//! # rcoal-parallel — deterministic parallel execution
//!
//! Pure-`std` data parallelism for the workspace's embarrassingly
//! parallel sweeps (per-plaintext kernel launches, per-policy figure
//! rows, per-guess correlation scans). The design contract is
//! *determinism*: [`parallel_map`] returns exactly the vector the
//! sequential loop would return, for any thread count, because
//!
//! * work items are distributed by an atomic index (no per-thread
//!   pre-partitioning, so there is no load-balance-dependent split), and
//! * results are collected **by item index**, never by completion order.
//!
//! Every item must therefore derive its own randomness from its index
//! (the workspace's seed-per-launch convention), never from shared
//! mutable state; under that convention the output is bit-identical at
//! `threads = 1` and `threads = N`.
//!
//! `threads <= 1` takes a true sequential path on the calling thread —
//! no worker is spawned, and fallible maps short-circuit exactly like a
//! plain `for` loop.
//!
//! ```
//! use rcoal_parallel::{parallel_map, resolve_threads};
//!
//! let squares = parallel_map(resolve_threads(None), &[1u64, 2, 3, 4], |_i, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod supervise;

pub use supervise::{supervised_map, FailureKind, OutcomeCounts, SupervisorPolicy, TaskFailure};

use rcoal_telemetry::MetricsRegistry;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable overriding the worker-thread count for every
/// parallel sweep in the workspace (`0` and unparseable values are
/// ignored; explicit API arguments win over the environment).
pub const THREADS_ENV: &str = "RCOAL_THREADS";

/// Resolves the worker-thread count for a parallel sweep.
///
/// Precedence: an explicit `requested` count (already validated by the
/// caller), else a positive [`THREADS_ENV`] value, else
/// [`std::thread::available_parallelism`], else 1.
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` worker threads, returning
/// the results in item order. `f(i, &items[i])` must depend only on its
/// arguments (derive per-item randomness from `i`); the output is then
/// identical for every thread count.
///
/// With `threads <= 1` (or fewer than two items) no thread is spawned
/// and the map runs sequentially on the calling thread.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let (indexed, _) = run_workers(threads, items, |i, x| Ok::<R, Never>(f(i, x)), None, false);
    let mut out = Vec::with_capacity(items.len());
    for (_, r) in indexed {
        match r {
            Ok(v) => out.push(v),
            Err(never) => match never {},
        }
    }
    out
}

/// [`parallel_map`] plus a host-domain [`PoolReport`] describing how the
/// work spread over the pool.
///
/// The mapped output is still deterministic; the report is **not** (it
/// reflects this run's scheduling) and must never feed back into
/// results — record it into a metrics registry and nothing else.
pub fn parallel_map_metered<T, R, F>(threads: usize, items: &[T], f: F) -> (Vec<R>, PoolReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let start = Instant::now();
    if threads <= 1 || items.len() < 2 {
        let out: Vec<R> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        return (out, PoolReport::sequential(items.len(), start.elapsed()));
    }
    let (indexed, stats) = run_workers(threads, items, |i, x| Ok::<R, Never>(f(i, x)), None, true);
    let mut out = Vec::with_capacity(items.len());
    for (_, r) in indexed {
        match r {
            Ok(v) => out.push(v),
            Err(never) => match never {},
        }
    }
    (
        out,
        PoolReport::from_workers(stats, items.len(), start.elapsed()),
    )
}

/// Fallible [`parallel_map`]: maps `f` over `items` and collects
/// `Ok` results in item order, or returns the error of the
/// *lowest-indexed* failing item — the same error the sequential
/// short-circuiting loop would return, keeping failure behavior
/// deterministic across thread counts.
///
/// After the first observed error, workers stop claiming new items
/// (items already claimed still finish); every item below the failing
/// index is guaranteed to have completed, so the reported error index
/// cannot drift with scheduling.
///
/// # Errors
///
/// The error produced by the lowest-indexed item on which `f` failed.
pub fn try_parallel_map<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let abort = AtomicBool::new(false);
    let (indexed, _) = run_workers(threads, items, &f, Some(&abort), false);
    let mut out = Vec::with_capacity(items.len());
    for (_, r) in indexed {
        out.push(r?);
    }
    Ok(out)
}

/// [`try_parallel_map`] plus a host-domain [`PoolReport`]. The report is
/// returned even when the map fails (covering the items that did run).
pub fn try_parallel_map_metered<T, R, E, F>(
    threads: usize,
    items: &[T],
    f: F,
) -> (Result<Vec<R>, E>, PoolReport)
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let start = Instant::now();
    if threads <= 1 || items.len() < 2 {
        let out: Result<Vec<R>, E> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        return (out, PoolReport::sequential(items.len(), start.elapsed()));
    }
    let abort = AtomicBool::new(false);
    let (indexed, stats) = run_workers(threads, items, &f, Some(&abort), true);
    let report = PoolReport::from_workers(stats, items.len(), start.elapsed());
    let mut out = Vec::with_capacity(items.len());
    for (_, r) in indexed {
        match r {
            Ok(v) => out.push(v),
            Err(e) => return (Err(e), report),
        }
    }
    (Ok(out), report)
}

/// Calls `f(i, &mut items[i])` for every item on up to `threads` worker
/// threads, updating the items in place — the in-place counterpart of
/// [`parallel_map`] for long-lived per-item state (e.g. the streaming
/// attack's guess lanes), which would otherwise be cloned in and out of
/// every sweep.
///
/// Items are claimed in contiguous blocks through an atomic index, so
/// every item is visited exactly once, by one thread. When `f(i, x)`
/// depends only on `i`, `x` and shared read-only state, the final items
/// are identical for every thread count. `threads <= 1` (or fewer than
/// two items) runs sequentially on the calling thread. A panicking `f`
/// propagates to the caller.
pub fn parallel_for_each_mut<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    if threads <= 1 || items.len() < 2 {
        for (i, x) in items.iter_mut().enumerate() {
            f(i, x);
        }
        return;
    }
    // A few blocks per worker keeps the claim traffic low while letting a
    // fast worker pick up a slow one's share.
    let block = items.len().div_ceil(threads * 8);
    let blocks: Vec<std::sync::Mutex<&mut [T]>> =
        items.chunks_mut(block).map(std::sync::Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let (f, next, blocks) = (&f, &next, &blocks);
    thread::scope(|scope| {
        for _ in 0..threads.min(blocks.len()) {
            scope.spawn(move || loop {
                let b = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = blocks.get(b) else {
                    break;
                };
                // Each block is claimed once, so the lock is never
                // contended; a poisoned lock only means another worker
                // panicked, which the scope re-raises.
                let mut part = cell
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                for (k, x) in part.iter_mut().enumerate() {
                    f(b * block + k, x);
                }
            });
        }
    });
}

/// Host-domain utilization report of one parallel sweep.
///
/// Everything here is wall-clock and scheduling-dependent: two runs with
/// identical inputs produce identical *results* but different reports.
/// Record reports into a [`MetricsRegistry`]; never compare them across
/// runs or let them influence computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolReport {
    /// Workers that actually ran (1 for the sequential path).
    pub workers: usize,
    /// Items mapped.
    pub items: usize,
    /// Items completed by each worker.
    pub per_worker_items: Vec<u64>,
    /// Time each worker spent inside the mapped closure.
    pub per_worker_busy: Vec<Duration>,
    /// Wall-clock duration of the whole sweep.
    pub wall: Duration,
    /// Typed task-outcome tally. The unsupervised maps report all-ok
    /// (they abort on the first failure instead of classifying it);
    /// [`supervised_map`] fills in retries, quarantines, and timeouts.
    pub outcomes: OutcomeCounts,
}

impl PoolReport {
    pub(crate) fn sequential(items: usize, wall: Duration) -> Self {
        PoolReport {
            workers: 1,
            items,
            per_worker_items: vec![items as u64],
            per_worker_busy: vec![wall],
            wall,
            outcomes: OutcomeCounts::all_ok(items),
        }
    }

    pub(crate) fn from_workers(stats: Vec<(u64, Duration)>, items: usize, wall: Duration) -> Self {
        PoolReport {
            workers: stats.len(),
            items,
            per_worker_items: stats.iter().map(|&(n, _)| n).collect(),
            per_worker_busy: stats.into_iter().map(|(_, d)| d).collect(),
            wall,
            outcomes: OutcomeCounts::all_ok(items),
        }
    }

    /// Fraction of the pool's total capacity (`workers × wall`) spent
    /// inside the mapped closure — 1.0 is a perfectly packed pool.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if capacity <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self.per_worker_busy.iter().map(Duration::as_secs_f64).sum();
        (busy / capacity).min(1.0)
    }

    /// Items mapped per wall-clock second.
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.items as f64 / secs
        }
    }

    /// Records the report into `registry` under `pool.<name>.*`:
    /// total items and wall micros as counters, worker count and
    /// per-mille utilization as gauges, and per-worker item counts as a
    /// histogram (so imbalance is visible without one metric per worker).
    pub fn record_into(&self, registry: &MetricsRegistry, name: &str) {
        registry
            .counter(&format!("pool.{name}.items"))
            .add(self.items as u64);
        registry
            .counter(&format!("pool.{name}.wall_micros"))
            .add(self.wall.as_micros().min(u128::from(u64::MAX)) as u64);
        registry.counter(&format!("pool.{name}.sweeps")).inc();
        registry
            .gauge(&format!("pool.{name}.workers"))
            .raise_to(self.workers as u64);
        registry
            .gauge(&format!("pool.{name}.utilization_permille"))
            .set((self.utilization() * 1000.0) as u64);
        let worker_items = registry.histogram(&format!("pool.{name}.worker_items"));
        for &n in &self.per_worker_items {
            worker_items.record(n);
        }
        let worker_busy = registry.histogram(&format!("pool.{name}.worker_busy_micros"));
        for d in &self.per_worker_busy {
            worker_busy.record(d.as_micros().min(u128::from(u64::MAX)) as u64);
        }
        // Supervision counters stay at zero for unsupervised sweeps, so
        // dashboards can alert on any nonzero value.
        registry
            .counter(&format!("pool.{name}.retries"))
            .add(self.outcomes.retries);
        registry
            .counter(&format!("pool.{name}.quarantined"))
            .add(self.outcomes.quarantined);
        registry
            .counter(&format!("pool.{name}.timed_out"))
            .add(self.outcomes.timed_out);
    }
}

/// An uninhabited error type for the infallible path (a local stand-in
/// for the unstable `!`).
enum Never {}

/// Shared worker loop: claims indices from an atomic counter, applies
/// `f`, and returns all results sorted by item index. When `abort` is
/// provided, an `Err` result raises the flag and stops further claims.
/// With `metered` set, each worker also reports `(items, busy)` —
/// unmetered sweeps skip every `Instant::now()` call.
///
/// The atomic counter hands indices out in increasing order, so by the
/// time index `k` fails, every index below `k` has already been claimed
/// and will run to completion — which is what makes "first error by
/// index" well defined under any interleaving.
#[allow(clippy::type_complexity)]
fn run_workers<T, R, E, F>(
    threads: usize,
    items: &[T],
    f: F,
    abort: Option<&AtomicBool>,
    metered: bool,
) -> (Vec<(usize, Result<R, E>)>, Vec<(u64, Duration)>)
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    let f = &f;
    let next = &next;
    let (mut indexed, stats): (Vec<(usize, Result<R, E>)>, Vec<(u64, Duration)>) =
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(move || {
                        let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
                        let mut busy = Duration::ZERO;
                        loop {
                            if abort.is_some_and(|a| a.load(Ordering::Relaxed)) {
                                break;
                            }
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let t0 = metered.then(Instant::now);
                            let r = f(i, &items[i]);
                            if let Some(t0) = t0 {
                                busy += t0.elapsed();
                            }
                            if r.is_err() {
                                if let Some(a) = abort {
                                    a.store(true, Ordering::Relaxed);
                                }
                            }
                            local.push((i, r));
                        }
                        (local, busy)
                    })
                })
                .collect();
            let mut indexed = Vec::with_capacity(n);
            let mut stats = Vec::with_capacity(workers);
            for h in handles {
                match h.join() {
                    Ok((local, busy)) => {
                        stats.push((local.len() as u64, busy));
                        indexed.extend(local);
                    }
                    // A panicking closure propagates to the caller, as it
                    // would in the sequential loop.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            (indexed, stats)
        });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    (indexed, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn matches_sequential_output_for_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let seq = parallel_map(1, &items, |i, &x| x * 3 + i as u64);
        for threads in [2, 3, 8, 64] {
            let par = parallel_map(threads, &items, |i, &x| x * 3 + i as u64);
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn for_each_mut_visits_every_item_once_at_any_thread_count() {
        let seq: Vec<u64> = (0..1000).map(|i| i * 7 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..1000).collect();
            parallel_for_each_mut(threads, &mut items, |i, x| {
                assert_eq!(*x, i as u64);
                *x = *x * 7 + 1;
            });
            assert_eq!(items, seq, "threads = {threads}");
        }
        let mut empty: Vec<u64> = Vec::new();
        parallel_for_each_mut(4, &mut empty, |_, _| unreachable!());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(8, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let out = parallel_map(100, &[1u32, 2, 3], |_, &x| x);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn try_map_collects_in_order() {
        let items: Vec<u32> = (0..100).collect();
        let out: Result<Vec<u32>, String> = try_parallel_map(4, &items, |_, &x| Ok(x * 2));
        assert_eq!(
            out.unwrap(),
            items.iter().map(|x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn try_map_returns_the_lowest_indexed_error() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 4, 16] {
            let err = try_parallel_map(threads, &items, |i, _| {
                if i >= 13 {
                    Err(format!("fail at {i}"))
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, "fail at 13", "threads = {threads}");
        }
    }

    #[test]
    fn sequential_path_short_circuits() {
        let seen = Mutex::new(Vec::new());
        let items: Vec<u32> = (0..10).collect();
        let err: Result<Vec<u32>, &str> = try_parallel_map(1, &items, |i, &x| {
            seen.lock().unwrap().push(i);
            if i == 3 {
                Err("boom")
            } else {
                Ok(x)
            }
        });
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn parallel_errors_stop_new_claims() {
        // With an early error, far fewer than all items should run
        // (best effort — only check that the result is still correct).
        let items: Vec<u32> = (0..10_000).collect();
        let err = try_parallel_map(8, &items, |i, _| if i == 0 { Err("first") } else { Ok(i) })
            .unwrap_err();
        assert_eq!(err, "first");
    }

    #[test]
    fn resolve_threads_precedence() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "explicit zero clamps to one");
        assert!(resolve_threads(None) >= 1);
    }

    #[test]
    fn metered_map_matches_unmetered_output() {
        let items: Vec<u64> = (0..123).collect();
        let plain = parallel_map(4, &items, |i, &x| x * 7 + i as u64);
        let (metered, report) = parallel_map_metered(4, &items, |i, &x| x * 7 + i as u64);
        assert_eq!(metered, plain, "metering must not change results");
        assert_eq!(report.items, 123);
        assert!(report.workers >= 1 && report.workers <= 4);
        assert_eq!(
            report.per_worker_items.iter().sum::<u64>(),
            123,
            "every item is attributed to exactly one worker"
        );
        assert_eq!(report.per_worker_items.len(), report.workers);
        assert_eq!(report.per_worker_busy.len(), report.workers);
    }

    #[test]
    fn metered_sequential_path_reports_one_worker() {
        let (out, report) = parallel_map_metered(1, &[1u32, 2, 3], |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
        assert_eq!(report.workers, 1);
        assert_eq!(report.per_worker_items, vec![3]);
        assert!(report.utilization() <= 1.0);
    }

    #[test]
    fn try_metered_reports_even_on_failure() {
        let items: Vec<u32> = (0..64).collect();
        let (out, report) =
            try_parallel_map_metered(4, &items, |i, &x| if i == 20 { Err("boom") } else { Ok(x) });
        assert_eq!(out.unwrap_err(), "boom");
        assert!(report.items == 64 && report.workers >= 1);
    }

    #[test]
    fn pool_report_records_into_registry() {
        let report = PoolReport {
            workers: 2,
            items: 10,
            per_worker_items: vec![6, 4],
            per_worker_busy: vec![Duration::from_micros(500), Duration::from_micros(300)],
            wall: Duration::from_micros(600),
            outcomes: OutcomeCounts::all_ok(10),
        };
        // busy 800µs over capacity 1200µs ⇒ 2/3 utilization.
        assert!((report.utilization() - 2.0 / 3.0).abs() < 1e-9);
        let reg = MetricsRegistry::new();
        report.record_into(&reg, "sweep");
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pool.sweep.items"], 10);
        assert_eq!(snap.counters["pool.sweep.sweeps"], 1);
        assert_eq!(snap.gauges["pool.sweep.workers"], 2);
        assert_eq!(snap.gauges["pool.sweep.utilization_permille"], 666);
        assert_eq!(snap.hists["pool.sweep.worker_items"].count, 2);
        assert_eq!(snap.hists["pool.sweep.worker_items"].sum, 10);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..32).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(4, &items, |i, &x| {
                assert!(i != 5, "deliberate panic");
                x
            })
        });
        assert!(result.is_err());
    }

    // ---- supervised mode --------------------------------------------

    /// Supervised maps quarantine a panicking task instead of killing
    /// the pool: every other task keeps its result, ordering is by item
    /// index, and no task is lost.
    #[test]
    fn supervised_panic_is_quarantined_not_fatal() {
        let items: Vec<u32> = (0..32).collect();
        let policy = SupervisorPolicy::default()
            .with_max_retries(1)
            .with_backoff(Duration::ZERO);
        for threads in [1, 4] {
            let (out, report) = supervised_map(threads, &policy, &items, |i, &x| {
                assert!(i != 5, "deliberate panic at 5");
                Ok::<u32, String>(x * 2)
            });
            assert_eq!(out.len(), 32, "no lost tasks (threads = {threads})");
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let failure = r.as_ref().unwrap_err();
                    assert_eq!(failure.index, 5);
                    assert_eq!(failure.attempts, 2, "retry budget was spent");
                    assert!(
                        matches!(&failure.kind, FailureKind::Panicked(m) if m.contains("deliberate")),
                        "{failure:?}"
                    );
                } else {
                    assert_eq!(*r.as_ref().unwrap(), items[i] * 2, "index order preserved");
                }
            }
            assert_eq!(report.outcomes.quarantined, 1);
            assert_eq!(report.outcomes.ok, 31);
            assert_eq!(report.outcomes.retries, 1);
        }
    }

    /// After a panic the pool stays usable: an immediately following
    /// sweep on the same thread count completes cleanly.
    #[test]
    fn supervised_pool_remains_usable_after_panic() {
        let items: Vec<u32> = (0..64).collect();
        let policy = SupervisorPolicy::default()
            .with_max_retries(0)
            .with_backoff(Duration::ZERO);
        let (first, _) = supervised_map(4, &policy, &items, |i, &x| {
            assert!(i % 7 != 3, "poison");
            Ok::<u32, String>(x)
        });
        assert!(first.iter().any(|r| r.is_err()));
        let (second, report) = supervised_map(4, &policy, &items, |_, &x| Ok::<u32, String>(x + 1));
        assert!(second.iter().all(|r| r.is_ok()), "pool is reusable");
        assert_eq!(
            second
                .iter()
                .map(|r| *r.as_ref().unwrap())
                .collect::<Vec<_>>(),
            items.iter().map(|x| x + 1).collect::<Vec<_>>()
        );
        assert_eq!(report.outcomes.ok, 64);
        assert_eq!(report.outcomes.failed(), 0);
    }

    /// Errors are retried with backoff and succeed when the failure was
    /// transient (keyed off an attempt counter, the chaos-test pattern).
    #[test]
    fn supervised_retries_recover_transient_failures() {
        use std::sync::atomic::AtomicU32;
        let attempts: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<u32> = (0..8).collect();
        let policy = SupervisorPolicy::default()
            .with_max_retries(2)
            .with_backoff(Duration::ZERO);
        let (out, report) = supervised_map(2, &policy, &items, |i, &x| {
            let n = attempts[i].fetch_add(1, Ordering::Relaxed);
            // Item 3 fails twice then recovers; item 6 always fails.
            if (i == 3 && n < 2) || i == 6 {
                Err(format!("transient {i}"))
            } else {
                Ok(x)
            }
        });
        assert!(out[3].is_ok(), "transient failure recovered");
        let failure = out[6].as_ref().unwrap_err();
        assert_eq!(failure.attempts, 3, "budget exhausted");
        assert!(matches!(&failure.kind, FailureKind::Errored(e) if e.contains("transient 6")));
        assert_eq!(report.outcomes.retried, 1, "item 3");
        assert_eq!(report.outcomes.quarantined, 1, "item 6");
        assert_eq!(report.outcomes.ok, 6);
        assert_eq!(
            report.outcomes.retries,
            2 + 2,
            "two for item 3, two for item 6"
        );
    }

    /// A task overrunning the deadline is classified timed-out and its
    /// (late) result discarded.
    #[test]
    fn supervised_deadline_classifies_slow_tasks() {
        let items: Vec<u32> = (0..4).collect();
        let policy = SupervisorPolicy::default()
            .with_max_retries(0)
            .with_backoff(Duration::ZERO)
            .with_deadline(Duration::from_millis(5));
        let (out, report) = supervised_map(2, &policy, &items, |i, &x| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok::<u32, String>(x)
        });
        let failure = out[2].as_ref().unwrap_err();
        assert!(
            matches!(failure.kind, FailureKind::TimedOut(d) if d >= Duration::from_millis(5)),
            "{failure:?}"
        );
        assert_eq!(report.outcomes.timed_out, 1);
        assert_eq!(report.outcomes.ok, 3);
    }

    /// Supervision outcome counters flow into the metrics registry.
    #[test]
    fn supervised_outcomes_record_into_registry() {
        let items: Vec<u32> = (0..8).collect();
        let policy = SupervisorPolicy::default()
            .with_max_retries(1)
            .with_backoff(Duration::ZERO);
        let (_, report) = supervised_map(2, &policy, &items, |i, &x| {
            if i == 1 {
                Err("always".to_string())
            } else {
                Ok(x)
            }
        });
        let reg = MetricsRegistry::new();
        report.record_into(&reg, "supervised");
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pool.supervised.quarantined"], 1);
        assert_eq!(snap.counters["pool.supervised.retries"], 1);
        assert_eq!(snap.counters["pool.supervised.timed_out"], 0);
    }

    /// Exponential backoff grows and saturates.
    #[test]
    fn backoff_schedule_is_exponential_and_capped() {
        let p = SupervisorPolicy::default().with_backoff(Duration::from_millis(10));
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(40));
        assert_eq!(p.backoff_for(1000), SupervisorPolicy::MAX_BACKOFF);
        let zero = p.with_backoff(Duration::ZERO);
        assert_eq!(zero.backoff_for(5), Duration::ZERO);
    }
}
