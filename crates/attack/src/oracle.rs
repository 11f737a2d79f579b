//! The attacker's table oracle: how an observed byte plus a subkey-byte
//! guess maps to the coalescing-block index of the thread's table
//! lookup.
//!
//! The baseline AES attack computes `t_j = S⁻¹[c_j ⊕ m]` and divides by
//! the 16 `u32` entries per 64-byte block; other table-based kernels
//! (PRESENT, GIFT, RECTANGLE) index their vulnerable round directly
//! with `text_j ⊕ k_j` over tables of different entry sizes. Everything
//! else about the attack — the coalescing replay, the 256-guess sweep,
//! the correlation — is oracle-independent, so the predictor and
//! [`crate::Attack`] carry a `dyn TableOracle` and default to AES.

use rcoal_aes::last_round_index;
use std::fmt::Debug;
use std::sync::{Arc, OnceLock};

/// Maps (observed byte, subkey guess) to the index of the 64-byte
/// coalescing block the thread's table lookup touches.
///
/// Implementations must be pure functions of their arguments: the
/// 256-guess sweep memoizes one 256-entry table per guess.
pub trait TableOracle: Send + Sync + Debug {
    /// Number of subkey bytes the attack sweeps (at most 16; the byte
    /// columns are drawn from 16-byte observation lines).
    fn key_bytes(&self) -> usize;

    /// Block index (in `0..R`) for observed byte `b` under guess
    /// `guess`, at the paper's 64-byte coalescing granularity.
    fn block_of(&self, b: u8, guess: u8) -> u64;

    /// `R`: an exclusive upper bound on [`TableOracle::block_of`] over
    /// every (byte, guess) pair. The attack predictor keeps one bit per
    /// block in a `u64`, so the attack entry points reject oracles with
    /// `block_count() > 64` ([`crate::AttackError::TooManyBlocks`]).
    ///
    /// The default scans all 65,536 pairs; oracles with a closed form
    /// should override it. An override that undercounts is a logic
    /// error: predictions then saturate the out-of-range indices at
    /// block 63 (never panicking, but no longer meaningful).
    fn block_count(&self) -> u64 {
        (0..=255u8)
            .flat_map(|g| (0..=255u8).map(move |b| (b, g)))
            .map(|(b, g)| self.block_of(b, g).saturating_add(1))
            .max()
            .unwrap_or(0)
    }
}

/// Widest block range the predictor's `u64` block masks can count.
pub(crate) const MAX_BLOCKS: u64 = 64;

/// The `table[guess][byte]` block-index table of one oracle, shared by
/// every guess lane of an attack (all 256 guesses × all byte engines):
/// 256 rows of 256 `u8` block indices, 64 KiB when full.
///
/// Each row is built (and allocated) from the oracle on its first use,
/// so constructing an attack pays no oracle calls and a single-guess
/// predictor (the audit's true-key replay) pays 256 — one row — instead
/// of 65,536.
pub(crate) struct GuessTable {
    oracle: Arc<dyn TableOracle>,
    rows: Box<[OnceLock<Box<[u8; 256]>>]>,
}

impl Debug for GuessTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let built = self.rows.iter().filter(|r| r.get().is_some()).count();
        f.debug_struct("GuessTable")
            .field("oracle", &self.oracle)
            .field("rows_built", &built)
            .finish()
    }
}

impl GuessTable {
    /// An empty table over `oracle`; rows fill in on demand.
    pub(crate) fn new(oracle: Arc<dyn TableOracle>) -> Self {
        GuessTable {
            oracle,
            rows: (0..256).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The oracle the rows are built from.
    pub(crate) fn oracle(&self) -> &Arc<dyn TableOracle> {
        &self.oracle
    }

    /// `row(guess)[b]` is the block index of observed byte `b` under
    /// `guess`, saturated at 63 (see [`TableOracle::block_count`]).
    pub(crate) fn row(&self, guess: u8) -> &[u8; 256] {
        self.rows[usize::from(guess)].get_or_init(|| {
            let mut row = Box::new([0u8; 256]);
            for (b, slot) in (0..=255u8).zip(row.iter_mut()) {
                *slot = self.oracle.block_of(b, guess).min(MAX_BLOCKS - 1) as u8;
            }
            row
        })
    }
}

/// The AES-128 last-round oracle: `InvSbox[c_j ⊕ m]` over the 4-byte
/// T4 entries, 16 entries per 64-byte block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AesLastRoundOracle;

impl TableOracle for AesLastRoundOracle {
    fn key_bytes(&self) -> usize {
        16
    }

    fn block_of(&self, b: u8, guess: u8) -> u64 {
        u64::from(last_round_index(b, guess) >> 4)
    }

    fn block_count(&self) -> u64 {
        16
    }
}

/// Oracle for ciphers whose vulnerable round indexes its tables with
/// `text_j ⊕ k_j` directly (key whitening before the S-box layer):
/// the block index is the whitened byte shifted by `log2(entries per
/// 64-byte block)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorWhiteningOracle {
    shift: u32,
    key_bytes: usize,
}

impl XorWhiteningOracle {
    /// `shift` is `log2(64 / entry_bytes)`; `key_bytes` the number of
    /// attacked subkey bytes (clamped to 16, the observation width).
    pub fn new(shift: u32, key_bytes: usize) -> Self {
        XorWhiteningOracle {
            shift: shift.min(8),
            key_bytes: key_bytes.clamp(1, 16),
        }
    }
}

impl TableOracle for XorWhiteningOracle {
    fn key_bytes(&self) -> usize {
        self.key_bytes
    }

    fn block_of(&self, b: u8, guess: u8) -> u64 {
        u64::from(b ^ guess) >> self.shift
    }

    fn block_count(&self) -> u64 {
        (255 >> self.shift) + 1
    }
}

/// The default oracle: AES-128 last round.
pub fn aes_oracle() -> Arc<dyn TableOracle> {
    Arc::new(AesLastRoundOracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aes_oracle_matches_the_inline_formula() {
        let o = AesLastRoundOracle;
        assert_eq!(o.key_bytes(), 16);
        for b in [0u8, 1, 0x3c, 255] {
            for g in [0u8, 0x7f, 255] {
                assert_eq!(o.block_of(b, g), u64::from(last_round_index(b, g) >> 4));
            }
        }
    }

    #[test]
    fn xor_oracle_shifts_the_whitened_byte() {
        let o = XorWhiteningOracle::new(3, 8);
        assert_eq!(o.key_bytes(), 8);
        assert_eq!(o.block_of(0xFF, 0x00), 0x1F);
        assert_eq!(o.block_of(0xA5, 0xA5), 0);
        let coarse = XorWhiteningOracle::new(5, 8);
        assert!((0..=255u8).all(|b| coarse.block_of(b, 0) < 8));
    }

    /// An oracle relying on the scanning default.
    #[derive(Debug)]
    struct Scanned<O>(O);

    impl<O: TableOracle> TableOracle for Scanned<O> {
        fn key_bytes(&self) -> usize {
            self.0.key_bytes()
        }

        fn block_of(&self, b: u8, guess: u8) -> u64 {
            self.0.block_of(b, guess)
        }
    }

    #[test]
    fn closed_form_block_counts_match_the_scan() {
        assert_eq!(AesLastRoundOracle.block_count(), 16);
        assert_eq!(Scanned(AesLastRoundOracle).block_count(), 16);
        for shift in 0..=8 {
            let o = XorWhiteningOracle::new(shift, 8);
            assert_eq!(o.block_count(), Scanned(o).block_count(), "shift {shift}");
        }
    }

    #[test]
    fn guess_table_rows_follow_the_oracle() {
        let table = GuessTable::new(Arc::new(XorWhiteningOracle::new(3, 8)));
        for g in [0u8, 0x5a, 255] {
            let row = table.row(g);
            assert!((0..=255u8).all(|b| u64::from(row[usize::from(b)]) == u64::from(b ^ g) >> 3));
        }
        // A too-wide oracle saturates instead of wrapping or panicking.
        let wide = GuessTable::new(Arc::new(Scanned(XorWhiteningOracle::new(0, 8))));
        assert_eq!(wide.row(0)[200], 63);
        assert_eq!(wide.oracle().block_count(), 256);
    }

    #[test]
    fn xor_oracle_clamps_degenerate_parameters() {
        let o = XorWhiteningOracle::new(40, 0);
        assert_eq!(o.key_bytes(), 1);
        assert_eq!(o.block_of(0xFF, 0), 0);
        assert_eq!(XorWhiteningOracle::new(2, 99).key_bytes(), 16);
    }
}
