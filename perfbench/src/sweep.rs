//! The `sweep-store` workload.
//!
//! A round is a functional-only sweep with the shape of
//! `examples/specs/workload_matrix.json` (every registered kernel ×
//! {baseline, FSS(M=8), rss-rts:4}), generated from the round seed, run
//! in three passes over one on-disk store:
//!
//! 1. cold: a fresh `SweepRunner::with_store` on an empty directory
//!    simulates, encodes and writes every row;
//! 2. replay: a second fresh runner over the same directory reads,
//!    checksums and decodes every row;
//! 3. audit: `audit_scenarios` with the default `AuditSpec` on the replay
//!    runner.
//!
//! Each pass pulls one kernel's three rows at a time (a chunk) through the
//! runner's two-thread fan-out. The chunk latencies reported are the
//! replay pass's alone: the passes differ several-fold in cost per chunk,
//! and a cold chunk waits on the store's per-row fsyncs, whose latency
//! follows the host's disk. The cold and audit passes are reported whole
//! as `cold_s` and `audit_s`.

use crate::ledger::{peak_rss_mib, reset_peak_rss, Ledger, Run};
use crate::replay;
use crate::{for_rounds, round_key, round_seed, time_setups, Ctx, LINES, SETUP_SAMPLES_PER_ROUND};
use rcoal_audit::{AuditSpec, LeakageReport};
use rcoal_core::{Coalescer, CoalescingPolicy};
use rcoal_experiments::engine::{decode_run, encode_run, scenario_config, SweepRunner};
use rcoal_experiments::{audit_data, random_plaintexts, ExperimentData};
use rcoal_scenario::{Scenario, SweepSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Plaintexts per row of the timed rounds. Replay cost grows
/// quadratically with row size (see perfbench/README.md), so rows stay
/// small enough for several rounds per run.
const PLAINTEXTS: usize = 64;
/// Plaintexts per row of the verdict check: the budget the audit's
/// thresholds are calibrated for (`rcoal_audit::defaults`). Below it the
/// verdicts of the weaker cells (e.g. present80 under rss-rts:4) flip on
/// a few percent of seeds.
const GATE_PLAINTEXTS: usize = 512;
const POLICIES: [&str; 3] = ["baseline", "FSS(M=8)", "rss-rts:4"];

/// Scratch stores live under the working directory (the checkout).
const WORK_DIR: &str = ".perfbench-work";

fn spec(seed: u64, plaintexts: usize) -> SweepSpec {
    let policies = POLICIES.iter().map(|p| policy(p)).collect();
    let base = Scenario::new(CoalescingPolicy::Baseline, plaintexts, LINES)
        .with_seed(seed)
        .with_key(round_key(seed))
        .functional_only();
    SweepSpec::grid(base)
        .with_workloads(
            rcoal_workload::registry()
                .iter()
                .map(|w| w.name().to_string())
                .collect(),
        )
        .with_policies(policies)
}

/// The verdict the CI gate matrix expects: the ciphers leak under
/// baseline and FSS(8); rss-rts:4 and the key-free gather control do not.
fn expected_leaky(s: &Scenario) -> bool {
    s.workload.as_deref() != Some("gather") && s.policy != policy(POLICIES[2])
}

fn policy(name: &str) -> CoalescingPolicy {
    name.parse().expect("POLICIES are valid policy names")
}

/// A store directory that is removed when dropped.
struct Store(PathBuf);

impl Store {
    fn fresh(name: String) -> Self {
        let dir = Path::new(WORK_DIR).join(name);
        let _ = std::fs::remove_dir_all(&dir);
        Store(dir)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes the (by then empty) scratch directory when the run ends.
struct WorkDir;

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// What one round produced.
struct Round {
    scenarios: Vec<Scenario>,
    cold: Vec<ExperimentData>,
    replay: Vec<ExperimentData>,
    reports: Vec<LeakageReport>,
    replay_launched: u64,
    wall: f64,
    phases: [f64; 3],
}

fn open(dir: &Path, threads: usize) -> Result<SweepRunner, String> {
    Ok(SweepRunner::with_store(dir)
        .map_err(|e| e.to_string())?
        .with_threads(threads))
}

/// Runs one round's three passes, recording the replay-pass chunk latencies;
/// with a ledger, also replays the inner layers of each chunk out of band
/// and records the per-layer split.
fn round(
    ctx: &Ctx,
    seed: u64,
    store: &Store,
    chunk_ms: &mut Vec<f64>,
    mut ledger: Option<&mut Ledger>,
) -> Result<Round, String> {
    let mut excluded = 0.0;
    let start = Instant::now();
    let scenarios = spec(seed, PLAINTEXTS).expand().map_err(|e| e.to_string())?;
    let cold_runner = open(&store.0, ctx.threads)?;
    let mut phases = [0.0; 3];
    let mut cold = Vec::with_capacity(scenarios.len());
    let mut encoded = Vec::with_capacity(scenarios.len());

    let t = Instant::now();
    for slice in scenarios.chunks(POLICIES.len()) {
        let c = Instant::now();
        let rows = cold_runner
            .run_scenarios(slice)
            .map_err(|e| e.to_string())?;
        let dt = c.elapsed().as_secs_f64();
        if let Some(l) = ledger.as_deref_mut() {
            l.runner_s += dt;
            let r = Instant::now();
            encoded.extend(replay_cold(ctx, slice, &rows, l)?);
            excluded += r.elapsed().as_secs_f64();
        }
        cold.extend(rows);
    }
    phases[0] = t.elapsed().as_secs_f64() - excluded;

    let t = Instant::now();
    let replay_start = excluded;
    let replay_runner = open(&store.0, ctx.threads)?;
    let mut replayed = Vec::with_capacity(scenarios.len());
    for (i, slice) in scenarios.chunks(POLICIES.len()).enumerate() {
        let c = Instant::now();
        let rows = replay_runner
            .run_scenarios(slice)
            .map_err(|e| e.to_string())?;
        let dt = c.elapsed().as_secs_f64();
        chunk_ms.push(dt * 1e3);
        if let Some(l) = ledger.as_deref_mut() {
            l.runner_s += dt;
            let r = Instant::now();
            let lo = i * POLICIES.len();
            replay_decode(&encoded[lo..lo + slice.len()], &rows, l)?;
            excluded += r.elapsed().as_secs_f64();
        }
        replayed.extend(rows);
    }
    phases[1] = t.elapsed().as_secs_f64() - (excluded - replay_start);

    let t = Instant::now();
    let audit_start = excluded;
    let spec = AuditSpec::default();
    let mut reports = Vec::with_capacity(scenarios.len());
    for (i, slice) in scenarios.chunks(POLICIES.len()).enumerate() {
        let c = Instant::now();
        let out = replay_runner
            .audit_scenarios(slice, &spec)
            .map_err(|e| e.to_string())?;
        let dt = c.elapsed().as_secs_f64();
        if let Some(l) = ledger.as_deref_mut() {
            l.runner_s += dt;
            let r = Instant::now();
            let lo = i * POLICIES.len();
            replay_audit(&replayed[lo..lo + slice.len()], &out, &spec, l)?;
            excluded += r.elapsed().as_secs_f64();
        }
        reports.extend(out);
    }
    phases[2] = t.elapsed().as_secs_f64() - (excluded - audit_start);

    let wall = start.elapsed().as_secs_f64() - excluded;
    if let Some(l) = ledger {
        for runner in [&cold_runner, &replay_runner] {
            let report = runner.report();
            l.runner_launched += report.launched;
            l.runner_served += report.served;
            l.runner_hits += report.hits();
        }
    }
    Ok(Round {
        replay_launched: replay_runner.report().launched,
        scenarios,
        cold,
        replay: replayed,
        reports,
        wall,
        phases,
    })
}

/// Rebuilds and re-counts a cold chunk's rows (rows fan out across the
/// workers, each row sequential, as the runner does), then encodes them
/// as the store does. Returns the encodings.
fn replay_cold(
    ctx: &Ctx,
    slice: &[Scenario],
    rows: &[ExperimentData],
    ledger: &mut Ledger,
) -> Result<Vec<String>, String> {
    let (counts, build_s, count_s) = replay::fused_pass(ctx.threads, slice, |_, s| {
        let cfg = scenario_config(s);
        let workload = rcoal_workload::find(&cfg.workload)
            .ok_or_else(|| format!("unknown workload {}", cfg.workload))?;
        let coalescer =
            Coalescer::with_block_size(cfg.gpu.block_size).map_err(|e| e.to_string())?;
        let (mut build, mut count) = (0.0, 0.0);
        let mut counts = Vec::with_capacity(cfg.num_plaintexts);
        for (n, lines) in random_plaintexts(cfg.num_plaintexts, cfg.lines, cfg.seed)
            .into_iter()
            .enumerate()
        {
            let (kernel, b) =
                replay::timed(|| workload.build_kernel(&cfg.key, lines, cfg.gpu.warp_size));
            let seed = replay::launch_seed(cfg.seed, n);
            let (c, dt) = replay::timed(|| {
                replay::functional_counts(&kernel, cfg.policy, seed, &coalescer, cfg.gpu.warp_size)
            });
            counts.push(c.map_err(|e| e.to_string())?);
            build += b;
            count += dt;
        }
        Ok::<_, String>((counts, build, count))
    })?;
    ledger.build_s += build_s;
    ledger.build_calls += counts.iter().map(|c| c.len() as u64).sum::<u64>();
    ledger.count_s += count_s;
    for (row, counts) in rows.iter().zip(&counts) {
        for (n, c) in counts.iter().enumerate() {
            ledger.core_accesses += c.accesses;
            ledger.core_requests += c.requests;
            if row.total_accesses[n] != c.accesses || row.last_round_accesses[n] != c.last_round {
                return Err(format!(
                    "replayed counts disagree with the {} row",
                    row.workload
                ));
            }
        }
    }

    let t = Instant::now();
    let encoded = rows
        .iter()
        .map(|row| encode_run(row).ok_or("a functional row must encode"))
        .collect::<Result<Vec<_>, _>>()?;
    ledger.encode_s += t.elapsed().as_secs_f64();
    ledger.store_bytes += encoded.iter().map(|e| e.len() as u64).sum::<u64>();
    Ok(encoded)
}

/// Decodes a replay chunk's stored encodings as the store does.
fn replay_decode(
    encoded: &[String],
    rows: &[ExperimentData],
    ledger: &mut Ledger,
) -> Result<(), String> {
    let t = Instant::now();
    let decoded = encoded
        .iter()
        .map(|e| decode_run(e).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    ledger.decode_s += t.elapsed().as_secs_f64();
    ledger.decode_calls += decoded.len() as u64;
    if decoded != rows {
        return Err("replayed decode disagrees with the served rows".into());
    }
    Ok(())
}

/// Audits an audit chunk's rows as `audit_scenarios` does.
fn replay_audit(
    rows: &[ExperimentData],
    reports: &[LeakageReport],
    spec: &AuditSpec,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let t = Instant::now();
    let again = rows
        .iter()
        .map(|row| audit_data(row, 32, spec).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    ledger.audit_s += t.elapsed().as_secs_f64();
    ledger.audit_samples += rows.iter().map(|r| r.len() as u64).sum::<u64>();
    if again != reports {
        return Err("replayed audit disagrees with audit_scenarios".into());
    }
    Ok(())
}

fn row_name(s: &Scenario) -> String {
    format!("{}/{}", s.workload.as_deref().unwrap_or("aes"), s.policy)
}

fn verdicts(reports: &[LeakageReport]) -> String {
    reports
        .iter()
        .map(|r| if r.leaky { 'L' } else { 'S' })
        .collect()
}

/// The verdict check: audits every cell of the matrix at the calibrated
/// budget (in memory, untimed) and names each cell whose verdict differs
/// from the CI gate matrix. Returns the failures and the verdict vector.
fn verdict_check(ctx: &Ctx) -> Result<(Vec<String>, String), String> {
    let scenarios = spec(round_seed(ctx.seed, u64::MAX), GATE_PLAINTEXTS)
        .expand()
        .map_err(|e| e.to_string())?;
    let reports = SweepRunner::new()
        .with_threads(ctx.threads)
        .audit_scenarios(&scenarios, &AuditSpec::default())
        .map_err(|e| e.to_string())?;
    let bad = scenarios
        .iter()
        .zip(&reports)
        .filter(|(s, r)| r.leaky != expected_leaky(s))
        .map(|(s, r)| {
            format!(
                "{}: audit verdict {} at {GATE_PLAINTEXTS} samples (|t| = {:.2}, corrected MI = {:.4} bits)",
                row_name(s),
                if r.leaky { "leaky" } else { "secure" },
                r.timing.welch.t.abs(),
                r.timing.mi.corrected_bits
            )
        })
        .collect();
    Ok((bad, verdicts(&reports)))
}

pub(crate) fn run(ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let _work = WorkDir;
    let mut phases: [Vec<f64>; 3] = Default::default();
    let rows = (POLICIES.len() * rcoal_workload::registry().len()) as u64;

    reset_peak_rss()?;
    for_rounds(ctx, |r| {
        let seed = round_seed(ctx.seed, r);
        run.attempted += rows;
        let store = Store::fresh(format!("{}-{r}", std::process::id()));
        let untraced = round(ctx, seed, &store, &mut run.chunk_ms, None);
        // Set-up: spec expansion plus opening the round's store, as the
        // replay pass and a resumed sweep do (the journal is read and
        // replayed). Re-opening a populated store creates no file, so the
        // file system's commit latency stays out of the timed set-up.
        if untraced.is_ok() {
            for _ in 0..SETUP_SAMPLES_PER_ROUND {
                run.setup_s.push(time_setups(|| {
                    let scenarios = spec(seed, PLAINTEXTS).expand().map_err(|e| e.to_string())?;
                    Ok((scenarios, open(&store.0, ctx.threads)?))
                })?);
            }
        }
        drop(store);
        let out = match untraced {
            Ok(out) => out,
            Err(e) => {
                run.fail(rows, format!("round {r}: {e}"));
                return Ok(());
            }
        };
        run.samples += out.cold.iter().map(|d| d.len() as u64).sum::<u64>();
        run.busy_s += out.wall;
        for (p, v) in phases.iter_mut().zip(out.phases) {
            p.push(v);
        }
        let mut bad: Vec<String> = out
            .scenarios
            .iter()
            .zip(out.cold.iter().zip(&out.replay))
            .filter(|(_, (cold, replay))| encode_run(cold) != encode_run(replay))
            .map(|(s, _)| format!("{}: replayed row encodes differently", row_name(s)))
            .collect();
        if out.replay_launched != 0 {
            bad.push(format!(
                "replay launched {} simulations",
                out.replay_launched
            ));
        }
        let time_sum: u64 = out.cold.iter().flat_map(|d| &d.last_round_accesses).sum();
        run.digests.push(format!(
            "verdicts={} time_sum={time_sum}",
            verdicts(&out.reports)
        ));

        if ctx.trace {
            let store = Store::fresh(format!("{}-{r}-traced", std::process::id()));
            let mut chunks = Vec::new();
            match round(ctx, seed, &store, &mut chunks, Some(&mut run.ledger)) {
                Ok(traced) => {
                    run.ledger.traced_s += traced.wall;
                    run.ledger.paired_untraced_s += out.wall;
                }
                Err(e) => bad.push(format!("traced: {e}")),
            }
        }
        if !bad.is_empty() {
            let failed = if out.replay_launched != 0 {
                rows
            } else {
                bad.len().min(rows as usize) as u64
            };
            run.fail(failed, format!("round {r}: {}", bad.join("; ")));
        }
        Ok(())
    })?;
    run.peak_rss_mib = peak_rss_mib()?;
    run.attempted += rows;
    match verdict_check(ctx) {
        Ok((bad, verdicts)) => {
            run.gate_digest = Some(format!("verdicts={verdicts}"));
            if !bad.is_empty() {
                run.fail(
                    bad.len() as u64,
                    format!("verdict check: {}", bad.join("; ")),
                );
            }
        }
        Err(e) => run.fail(rows, format!("verdict check: {e}")),
    }
    let [cold, replay, audit] = phases;
    run.phases = vec![("cold_s", cold), ("replay_s", replay), ("audit_s", audit)];
    Ok(run)
}
