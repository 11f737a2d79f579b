//! Peak-heap scaling of the streaming attack engine with sample count.
//!
//! The streaming engine's contract is that a correlation attack over
//! N samples needs O(1) memory: a chunk buffer plus 256 six-word
//! Pearson accumulators, never the N-sample set itself. This bench
//! makes that claim falsifiable with a counting allocator:
//!
//! 1. Stream a single-byte recovery over the paper AES config
//!    (functional simulator, exact per-byte access channel — the same
//!    channel the Fig. 17 sample-cost sweep attacks) at N samples,
//!    recording wall clock and peak live-heap transient.
//! 2. Repeat at 10N samples. The peak heap must grow by < 1.1x
//!    (plus a 1 MiB absolute slack for allocator jitter) — the CI
//!    floor. A rewrite that quietly materializes the stream fails here
//!    by ~100x, not by a rounding error.
//! 3. Cross-check: materialize the identical 10N-sample set (the
//!    simulator source is bit-deterministic, chunked or not) and run
//!    the two-pass engine; argmax and the true byte's rank must match
//!    the streamed verdict.
//!
//! 4. Throughput floor: with `RCOAL_MIN_SAMPLES_PER_SEC` set, the large
//!    streamed leg (functional source + 256-guess predictor) must reach
//!    that many samples per second. CI sizes it ~4x under a dev box, so
//!    it catches the predictor or the functional source falling back to
//!    per-prediction allocation, not scheduler noise.
//!
//! `RCOAL_SAMPLES` overrides the large-leg budget (default 1,000,000;
//! CI uses a small value — the heap *ratio* is scale-free). Results
//! land in `BENCH_attack.json` at the repo root.

use rcoal_attack::{
    stream_recover_byte, Attack, AttackSample, EarlyStop, SampleSource, StreamOptions,
};
use rcoal_bench::{PeakAlloc, BENCH_SEED};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{ExperimentConfig, SimulatorSource, TimingSource};
use std::time::Instant;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Large-leg sample budget when `RCOAL_SAMPLES` is unset. The
/// acceptance point: one million samples, single byte, paper config.
const DEFAULT_SAMPLES: usize = 1_000_000;
/// Attacked key byte (the channel is its exact access count).
const BYTE: usize = 0;
/// Streaming chunk ceiling. Peak heap is O(chunk) — the in-flight
/// plaintexts, launch results, and sample buffer — so both legs must
/// stream in identical chunks for the ratio to isolate the
/// sample-count dependence; the actual chunk is capped at the small
/// leg's budget.
const CHUNK_CEILING: usize = 512;
/// Peak-heap growth allowed between the two legs (CI floor).
const HEAP_RATIO_FLOOR: f64 = 1.1;
/// Absolute slack for allocator jitter on tiny CI budgets.
const HEAP_SLACK_BYTES: usize = 1 << 20;

struct StreamLeg {
    samples: usize,
    seconds: f64,
    peak_heap_bytes: usize,
    best_guess: u8,
    rank_of_true: usize,
    checkpoints: usize,
    terminated_early: bool,
}

fn source_for(budget: usize) -> Result<(SimulatorSource, [u8; 16]), String> {
    let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, budget, 32)
        .with_seed(BENCH_SEED)
        .with_threads(1)
        .functional_only();
    let source = SimulatorSource::new(cfg, TimingSource::ByteAccesses(BYTE as u8))
        .map_err(|e| e.to_string())?;
    let subkey = source.attacked_subkey();
    Ok((source, subkey))
}

/// One streamed recovery leg, heap-profiled end to end (simulator
/// source included — the claim covers the whole pipeline).
fn stream_leg(
    budget: usize,
    chunk: usize,
    early_stop: Option<EarlyStop>,
) -> Result<StreamLeg, String> {
    let (mut source, subkey) = source_for(budget)?;
    let attack = Attack::baseline(32).with_seed(BENCH_SEED ^ 0x5eed);
    let mut opts = StreamOptions::new(budget).with_chunk(chunk);
    if let Some(rule) = early_stop {
        opts = opts.with_early_stop(rule);
    }

    let heap_floor = PeakAlloc::current_bytes();
    PeakAlloc::reset_peak();
    let start = Instant::now();
    let rec = stream_recover_byte(&attack, &mut source, BYTE, &opts).map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let peak_heap_bytes = PeakAlloc::peak_bytes().saturating_sub(heap_floor);

    Ok(StreamLeg {
        samples: rec.samples,
        seconds,
        peak_heap_bytes,
        best_guess: rec.recovery.best_guess,
        rank_of_true: rec.recovery.rank_of(subkey[BYTE]),
        checkpoints: rec.checkpoints.len(),
        terminated_early: rec.terminated_early,
    })
}

/// Materializes the identical sample set the streaming legs consumed
/// and runs the two-pass engine over it.
fn materialized_verdict(budget: usize) -> Result<(u8, usize, f64), String> {
    let (mut source, subkey) = source_for(budget)?;
    // The simulator source is endless by design (the budget lives in
    // `StreamOptions`), so drain exactly `budget` samples.
    let mut samples: Vec<AttackSample> = Vec::with_capacity(budget);
    let mut chunk = Vec::new();
    while samples.len() < budget {
        let want = (budget - samples.len()).min(8192);
        let got = source
            .next_chunk(want, &mut chunk)
            .map_err(|e| e.to_string())?;
        if got == 0 {
            break;
        }
        samples.append(&mut chunk);
    }
    let attack = Attack::baseline(32).with_seed(BENCH_SEED ^ 0x5eed);
    let start = Instant::now();
    let rec = attack
        .recover_byte(&samples, BYTE)
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    Ok((rec.best_guess, rec.rank_of(subkey[BYTE]), seconds))
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("sample_scaling bench failed: {msg}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let large = std::env::var("RCOAL_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 100)
        .unwrap_or(DEFAULT_SAMPLES);
    let small = large / 10;
    println!("sample_scaling: streamed byte-{BYTE} recovery, {small} vs {large} samples");

    let chunk = CHUNK_CEILING.min(small).max(1);
    let lo = stream_leg(small, chunk, None)?;
    println!(
        "  n={:<8}: {:.3} s, peak heap {:.2} MiB, best {:#04x} (rank {})",
        lo.samples,
        lo.seconds,
        mib(lo.peak_heap_bytes),
        lo.best_guess,
        lo.rank_of_true
    );
    let hi = stream_leg(large, chunk, None)?;
    println!(
        "  n={:<8}: {:.3} s, peak heap {:.2} MiB, best {:#04x} (rank {})",
        hi.samples,
        hi.seconds,
        mib(hi.peak_heap_bytes),
        hi.best_guess,
        hi.rank_of_true
    );

    // The CI floor: 10x the samples, < 1.1x the memory.
    let heap_ratio = hi.peak_heap_bytes as f64 / lo.peak_heap_bytes.max(1) as f64;
    let heap_independent = hi.peak_heap_bytes
        <= (lo.peak_heap_bytes as f64 * HEAP_RATIO_FLOOR) as usize + HEAP_SLACK_BYTES;
    println!(
        "  heap ratio: {heap_ratio:.3}x for 10x samples (floor {HEAP_RATIO_FLOOR}x) -> {}",
        if heap_independent { "ok" } else { "FAIL" }
    );

    let samples_per_second = hi.samples as f64 / hi.seconds.max(1e-9);
    let floor = std::env::var("RCOAL_MIN_SAMPLES_PER_SEC")
        .ok()
        .map(|v| {
            v.parse::<f64>()
                .map_err(|_| format!("RCOAL_MIN_SAMPLES_PER_SEC={v:?} is not a number"))
        })
        .transpose()?;
    if let Some(floor) = floor {
        println!(
            "  throughput: {samples_per_second:.0} samples/s (floor {floor:.0}) -> {}",
            if samples_per_second >= floor {
                "ok"
            } else {
                "FAIL"
            }
        );
    }

    // Differential cross-check against the materialized engine.
    let (mat_guess, mat_rank, mat_seconds) = materialized_verdict(large)?;
    let verdicts_match = mat_guess == hi.best_guess && mat_rank == hi.rank_of_true;
    println!(
        "  materialized: best {mat_guess:#04x} (rank {mat_rank}), attack {mat_seconds:.3} s -> {}",
        if verdicts_match { "match" } else { "MISMATCH" }
    );

    // Early termination at the large budget, for the record.
    let stop = stream_leg(large, chunk, Some(EarlyStop::default()))?;
    println!(
        "  early stop: {} of {large} samples, {} checkpoint(s), terminated={}",
        stop.samples, stop.checkpoints, stop.terminated_early
    );

    let json = format!(
        "{{\n  \"schema\": \"rcoal-bench/v1\",\n  \"bench\": \"sample_scaling\",\n  \"workload\": \"streamed single-byte recovery, paper AES config, exact access channel\",\n  \"byte\": {BYTE},\n  \"chunk\": {chunk},\n  \"samples_small\": {},\n  \"samples_large\": {},\n  \"small_seconds\": {:.6},\n  \"small_peak_heap_bytes\": {},\n  \"large_seconds\": {:.6},\n  \"large_peak_heap_bytes\": {},\n  \"heap_ratio\": {heap_ratio:.6},\n  \"heap_ratio_floor\": {HEAP_RATIO_FLOOR},\n  \"heap_independent\": {heap_independent},\n  \"samples_per_second\": {:.1},\n  \"best_guess\": {},\n  \"rank_of_true\": {},\n  \"materialized_best_guess\": {mat_guess},\n  \"materialized_rank_of_true\": {mat_rank},\n  \"materialized_attack_seconds\": {mat_seconds:.6},\n  \"verdicts_match\": {verdicts_match},\n  \"early_stop_samples\": {},\n  \"early_stop_checkpoints\": {},\n  \"early_stop_terminated\": {}\n}}\n",
        lo.samples,
        hi.samples,
        lo.seconds,
        lo.peak_heap_bytes,
        hi.seconds,
        hi.peak_heap_bytes,
        samples_per_second,
        hi.best_guess,
        hi.rank_of_true,
        stop.samples,
        stop.checkpoints,
        stop.terminated_early,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_attack.json");
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
    println!("  recorded to BENCH_attack.json");

    if !heap_independent {
        return Err(format!(
            "peak heap grew {heap_ratio:.2}x for 10x samples — the streaming engine is \
             materializing"
        ));
    }
    if !verdicts_match {
        return Err("streamed and materialized verdicts diverged".into());
    }
    if let Some(floor) = floor.filter(|&f| samples_per_second < f) {
        return Err(format!(
            "streamed functional leg at {samples_per_second:.0} samples/s, below the floor \
             {floor:.0}"
        ));
    }
    Ok(())
}
