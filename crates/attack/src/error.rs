//! Typed errors for the attack drivers.

use std::error::Error;
use std::fmt;

/// Errors reported by the attack drivers and estimators.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AttackError {
    /// A recovery was requested over an empty sample set — there is
    /// nothing to correlate against.
    NoSamples,
    /// A key-byte index past the workload's attacked subkey width was
    /// requested.
    ByteIndex {
        /// The offending index.
        j: usize,
    },
    /// A numeric parameter was outside its mathematical domain (e.g. a
    /// negative noise sigma, a correlation of magnitude ≥ 1, a
    /// non-positive signal variance).
    Domain(String),
    /// A streaming [`crate::SampleSource`] failed to produce its next
    /// chunk (e.g. the backing simulator rejected its configuration).
    Source(String),
    /// The attack's warp is wider than the predictor's 64-lane masks
    /// (`rcoal_core::MAX_WARP_LANES`).
    WarpTooWide {
        /// The offending warp size.
        warp_size: usize,
    },
    /// The oracle's block indices reach past the predictor's 64-bit
    /// block masks ([`crate::TableOracle::block_count`] `> 64`).
    TooManyBlocks {
        /// The oracle's block count.
        blocks: u64,
    },
}

impl fmt::Display for AttackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttackError::NoSamples => write!(f, "no attack samples were provided"),
            AttackError::ByteIndex { j } => {
                write!(f, "key byte index {j} out of range for the attacked subkey")
            }
            AttackError::Domain(msg) => write!(f, "parameter out of domain: {msg}"),
            AttackError::Source(msg) => write!(f, "sample source failed: {msg}"),
            AttackError::WarpTooWide { warp_size } => write!(
                f,
                "warp of {warp_size} lanes exceeds the predictor's 64-lane limit"
            ),
            AttackError::TooManyBlocks { blocks } => write!(
                f,
                "oracle spans {blocks} blocks, past the predictor's 64-block limit"
            ),
        }
    }
}

impl Error for AttackError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        assert!(AttackError::NoSamples
            .to_string()
            .contains("no attack samples"));
        assert!(AttackError::ByteIndex { j: 16 }.to_string().contains("16"));
        assert!(AttackError::Domain("sigma -1".into())
            .to_string()
            .contains("sigma -1"));
        assert!(AttackError::Source("sim rejected config".into())
            .to_string()
            .contains("sim rejected config"));
        assert!(AttackError::WarpTooWide { warp_size: 96 }
            .to_string()
            .contains("96 lanes"));
        assert!(AttackError::TooManyBlocks { blocks: 256 }
            .to_string()
            .contains("256 blocks"));
    }
}
