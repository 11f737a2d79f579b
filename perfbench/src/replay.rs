//! Out-of-band replays of the calls a black-box layer makes internally.
//!
//! `SimulatorSource::next_batch` and `SweepRunner::run_scenarios` build
//! kernels and coalesce or simulate them inside one call. To split their
//! time by layer without adding spans to the program, the traced run
//! re-issues those inner calls (`KernelWorkload::build_kernel`,
//! `CoalescingPolicy::assignment` + `Coalescer::count_accesses`,
//! `GpuSimulator::run_launch_faulted`) on the same inputs, at the same
//! thread count, outside the end-to-end clock — and checks that they
//! reproduce the black box's outputs exactly.

use rcoal_aes::{Block, LAST_ROUND_TAG_BASE};
use rcoal_core::{Coalescer, CoalescingPolicy, PolicyError};
use rcoal_gpu_sim::{Kernel, TraceInstr};
use rcoal_parallel::try_parallel_map;
use rcoal_rng::{Rng, SeedableRng, StdRng};
use std::time::Instant;

/// Runs `f` and returns its result with its wall time in seconds.
pub(crate) fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Maps `f` over `items` on `threads` workers in one pass, where `f`
/// returns its output plus the time it spent in a kernel build and in the
/// layer that consumes the kernel. The pass's wall time is split between
/// the two in proportion to those per-call times. Building all kernels
/// first and consuming them in a second pass would evict each freshly
/// built kernel from cache before its use and overstate both layers.
pub(crate) fn fused_pass<I: Sync, T: Send, E: Send>(
    threads: usize,
    items: &[I],
    f: impl Fn(usize, &I) -> Result<(T, f64, f64), E> + Sync,
) -> Result<(Vec<T>, f64, f64), E> {
    let (out, wall) = timed(|| try_parallel_map(threads, items, f));
    let out = out?;
    let (build, inner) = out
        .iter()
        .fold((0.0, 0.0), |(b, i), (_, x, y)| (b + x, i + y));
    let share = if build + inner > 0.0 {
        build / (build + inner)
    } else {
        0.0
    };
    let values = out.into_iter().map(|(v, _, _)| v).collect();
    Ok((values, wall * share, wall * (1.0 - share)))
}

/// The next `n` inputs of `lines` random lines, drawn from `rng` in the
/// order the experiment layer draws them (sample-major, line-minor).
pub(crate) fn next_lines(rng: &mut StdRng, n: usize, lines: usize) -> Vec<Vec<Block>> {
    (0..n)
        .map(|_| {
            (0..lines)
                .map(|_| {
                    let mut b = [0u8; 16];
                    rng.fill(&mut b);
                    b
                })
                .collect()
        })
        .collect()
}

/// The policy seed of launch `index` under experiment seed `seed`.
pub(crate) fn launch_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(1 + index as u64)
}

/// Functional coalescing counts of one launch.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counts {
    /// Accesses of the last-round (attacked) loads.
    pub last_round: u64,
    /// All coalesced accesses.
    pub accesses: u64,
    /// Lane requests before coalescing.
    pub requests: u64,
}

/// Counts one launch's coalesced accesses under a uniform `policy`,
/// drawing each warp's subwarp assignment from the launch seed in warp
/// order, as the functional pipeline does.
pub(crate) fn functional_counts(
    kernel: &dyn Kernel,
    policy: CoalescingPolicy,
    seed: u64,
    coalescer: &Coalescer,
    warp_size: usize,
) -> Result<Counts, PolicyError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = Counts::default();
    for w in 0..kernel.num_warps() {
        let assignment = policy.assignment(kernel.warp_width(w).min(warp_size), &mut rng)?;
        for instr in kernel.trace(w).instrs() {
            if let TraceInstr::Load { addrs, tag } = instr {
                let n = coalescer.count_accesses(&assignment, addrs) as u64;
                counts.accesses += n;
                counts.requests += addrs.iter().filter(|a| a.is_some()).count() as u64;
                if *tag >= LAST_ROUND_TAG_BASE {
                    counts.last_round += n;
                }
            }
        }
    }
    Ok(counts)
}
