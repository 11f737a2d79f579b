//! # rcoal-core
//!
//! Subwarp-based randomized memory-access coalescing, the primary
//! contribution of *RCoal: Mitigating GPU Timing Attack via Subwarp-Based
//! Randomized Coalescing Techniques* (HPCA 2018).
//!
//! A GPU's coalescing unit merges the per-lane memory requests of a warp
//! into as few cache-line-sized accesses as possible. That merge is
//! deterministic, which lets a correlation timing attacker *predict* the
//! number of accesses for every last-round AES key-byte guess and pick the
//! guess whose prediction correlates best with measured execution time.
//!
//! This crate randomizes the merge. A warp is split into *subwarps* and
//! coalescing happens independently inside each subwarp. Three knobs are
//! exposed, mirroring the paper's mechanisms:
//!
//! * **FSS** (fixed-sized subwarps): the warp is split into `M` equal,
//!   in-order subwarps. The attacker no longer knows `M`.
//! * **RSS** (random-sized subwarps): subwarp sizes are redrawn from a
//!   distribution (uniform-over-compositions "skewed", or "normal") for
//!   every kernel launch.
//! * **RTS** (random-threaded subwarps): lanes are assigned to subwarps by a
//!   fresh random permutation, composable with FSS and RSS.
//!
//! # Example
//!
//! Reproduces the paper's Figure 2: four lanes whose middle two requests
//! share a memory block coalesce to 3 accesses with one subwarp, but to 4
//! with two subwarps.
//!
//! ```
//! use rcoal_core::{Coalescer, CoalescingPolicy, SubwarpAssignment};
//! use rcoal_rng::SeedableRng;
//!
//! let coalescer = Coalescer::with_block_size(64)?;
//! let addrs = [Some(0u64), Some(64), Some(96), Some(128)];
//!
//! let mut rng = rcoal_rng::StdRng::seed_from_u64(7);
//! let one = CoalescingPolicy::Baseline.assignment(4, &mut rng)?;
//! assert_eq!(coalescer.coalesce(&one, &addrs).num_accesses(), 3);
//!
//! let two = SubwarpAssignment::in_order(&[2, 2])?;
//! assert_eq!(coalescer.coalesce(&two, &addrs).num_accesses(), 4);
//! # Ok::<(), rcoal_core::PolicyError>(())
//! ```

mod coalescer;
mod error;
mod policy;
mod prt;
mod subwarp;

pub use coalescer::{CoalesceResult, Coalescer, MemAccess};
pub use error::{ParsePolicyError, PolicyError};
pub use policy::{CoalescingPolicy, SizeDistribution, NORMAL_SIGMA_DIVISOR};
pub use prt::{PendingRequestTable, PrtEntry};
pub use subwarp::{NumSubwarps, SubwarpAssignment, SubwarpMasks};

/// Number of threads in a full warp on the simulated architecture (Table I).
pub const WARP_SIZE: usize = 32;

/// Widest warp the mask-based assignment and counting paths accept: one
/// bit of a `u64` per lane ([`SubwarpMasks`]).
pub const MAX_WARP_LANES: usize = 64;

/// Size in bytes of one coalescing memory block.
///
/// The paper's attack configuration maps "16 consecutive table elements ...
/// to the same memory block"; with 4-byte T-table entries that is a 64-byte
/// block, i.e. `R = 16` blocks for the 1 KiB last-round table.
pub const DEFAULT_BLOCK_SIZE: u64 = 64;
