//! The streamed attack workloads: `key-functional` and `byte-timed`.
//!
//! A round is one streamed recovery at a fixed sample budget against a
//! fresh victim (key and plaintexts from the round seed), Baseline policy,
//! paper GPU configuration, modelled caches off.

use crate::ledger::{peak_rss_mib, reset_peak_rss, Ledger, Run};
use crate::replay;
use crate::{for_rounds, round_key, round_seed, time_setups, Ctx, LINES, SETUP_SAMPLES_PER_ROUND};
use rcoal_attack::{
    stream_recover_byte, stream_recover_key, Attack, AttackError, AttackSample, KeyRecovery,
    SampleSource, StreamOptions, StreamingByteRecovery, StreamingKeyRecovery,
};
use rcoal_core::{Coalescer, CoalescingPolicy};
use rcoal_experiments::{ExperimentConfig, SimulatorSource, TimingSource};
use rcoal_gpu_sim::{FaultPlan, GpuSimulator, LaunchPolicy, SimStats};
use rcoal_rng::{SeedableRng, StdRng};
use rcoal_workload::KernelWorkload;
use std::hint::black_box;
use std::time::Instant;

/// One streamed workload.
pub(crate) struct StreamWorkload {
    /// Cycle-timed (`LastRoundCycles`) or functional-only
    /// (`LastRoundAccesses`).
    timed: bool,
    /// All 16 key bytes (`stream_recover_key`) or byte 0
    /// (`stream_recover_byte`).
    full_key: bool,
}

/// Samples per round: a fixed budget, no early stop.
const BUDGET: usize = 2048;
/// Samples per chunk pulled from the source.
const CHUNK: usize = 64;
/// Checkpoint spacing, set explicitly so the untraced and the traced
/// rounds share one schedule.
const CHECKPOINT_EVERY: usize = BUDGET / 16;
const CHUNKS_PER_ROUND: u64 = BUDGET.div_ceil(CHUNK) as u64;

/// Full-key recovery on the functional access channel: the 256-guess
/// predictor and Pearson lanes do most of the work; the cycle simulator
/// is never entered.
pub(crate) const KEY_FUNCTIONAL: StreamWorkload = StreamWorkload {
    timed: false,
    full_key: true,
};

/// Byte-0 recovery on cycle-timed last-round times (the CLI's
/// `attack --max-samples` path): the cycle simulator does most of the
/// work, so this is the control for predictor changes.
pub(crate) const BYTE_TIMED: StreamWorkload = StreamWorkload {
    timed: true,
    full_key: false,
};

/// The attacked workload: the paper's AES kernel.
const WORKLOAD: &str = "aes";
const POLICY: CoalescingPolicy = CoalescingPolicy::Baseline;

impl StreamWorkload {
    fn config(&self, seed: u64, threads: usize) -> ExperimentConfig {
        let cfg = ExperimentConfig::new(POLICY, 0, LINES)
            .with_workload(WORKLOAD)
            .with_seed(seed)
            .with_key(round_key(seed))
            .with_threads(threads);
        if self.timed {
            cfg
        } else {
            cfg.functional_only()
        }
    }

    fn timing_source(&self) -> TimingSource {
        if self.timed {
            TimingSource::LastRoundCycles
        } else {
            TimingSource::LastRoundAccesses
        }
    }

    fn source(&self, seed: u64, threads: usize) -> Result<SimulatorSource, String> {
        SimulatorSource::new(self.config(seed, threads), self.timing_source())
            .map_err(|e| e.to_string())
    }

    fn attack(&self, threads: usize) -> Attack {
        Attack::baseline(LINES).with_threads(Some(threads))
    }

    fn options(&self) -> StreamOptions {
        StreamOptions::new(BUDGET)
            .with_chunk(CHUNK)
            .with_checkpoint_every(CHECKPOINT_EVERY)
    }

    fn bytes(&self) -> usize {
        if self.full_key {
            16
        } else {
            1
        }
    }
}

/// A source that stamps each chunk request, so per-chunk latency
/// (source + consume) is measured from outside `stream_recover_*`.
struct Clocked {
    inner: SimulatorSource,
    marks: Vec<Instant>,
    time_sum: f64,
}

impl SampleSource for Clocked {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<AttackSample>,
    ) -> Result<usize, AttackError> {
        self.marks.push(Instant::now());
        let before = out.len();
        let got = self.inner.next_chunk(max, out)?;
        self.time_sum += out[before..].iter().map(|s| s.time).sum::<f64>();
        Ok(got)
    }
}

/// The streaming engine a round drives by hand when traced.
enum Engine {
    Key(StreamingKeyRecovery),
    Byte(StreamingByteRecovery),
}

impl Engine {
    fn new(w: &StreamWorkload, attack: &Attack) -> Result<Self, AttackError> {
        Ok(if w.full_key {
            Engine::Key(StreamingKeyRecovery::new(attack)?)
        } else {
            Engine::Byte(StreamingByteRecovery::new(attack, 0)?)
        })
    }

    fn push(&mut self, chunk: &[AttackSample]) {
        match self {
            Engine::Key(e) => e.push_chunk(chunk),
            Engine::Byte(e) => e.push_chunk(chunk),
        }
    }

    /// What `stream_recover_*` evaluates at each checkpoint.
    fn checkpoint(&self) {
        match self {
            Engine::Key(e) => {
                for byte in e.byte_engines() {
                    black_box(byte.leader());
                }
            }
            Engine::Byte(e) => {
                black_box(e.leader());
            }
        }
    }

    fn recovery(&self) -> KeyRecovery {
        match self {
            Engine::Key(e) => e.snapshot(),
            Engine::Byte(e) => KeyRecovery {
                bytes: vec![e.snapshot()],
            },
        }
    }
}

/// One untraced round through `stream_recover_*`; returns the recovery,
/// the sum of sample times, the round wall time and the chunk latencies.
fn untraced_round(
    w: &StreamWorkload,
    ctx: &Ctx,
    seed: u64,
) -> Result<(KeyRecovery, f64, f64, Vec<f64>), String> {
    let mut source = Clocked {
        inner: w.source(seed, ctx.threads)?,
        marks: Vec::with_capacity(CHUNKS_PER_ROUND as usize),
        time_sum: 0.0,
    };
    let attack = w.attack(ctx.threads);
    let opts = w.options();
    let start = Instant::now();
    let recovery = if w.full_key {
        stream_recover_key(&attack, &mut source, &opts).map(|r| r.recovery)
    } else {
        stream_recover_byte(&attack, &mut source, 0, &opts).map(|r| KeyRecovery {
            bytes: vec![r.recovery],
        })
    }
    .map_err(|e| e.to_string())?;
    let end = Instant::now();
    let mut chunks: Vec<f64> = source
        .marks
        .windows(2)
        .map(|p| (p[1] - p[0]).as_secs_f64() * 1e3)
        .collect();
    if let Some(last) = source.marks.last() {
        chunks.push((end - *last).as_secs_f64() * 1e3);
    }
    Ok((
        recovery,
        source.time_sum,
        (end - start).as_secs_f64(),
        chunks,
    ))
}

/// One traced round: `next_batch` → `push_chunk` by hand, checkpoints
/// where `StreamOptions` puts them, inner source layers replayed out of
/// band. Returns the recovery and the round wall time without replays.
fn traced_round(
    w: &StreamWorkload,
    ctx: &Ctx,
    seed: u64,
    ledger: &mut Ledger,
) -> Result<(KeyRecovery, f64), String> {
    let cfg = w.config(seed, ctx.threads);
    let workload = rcoal_workload::find(WORKLOAD).ok_or("aes workload is not registered")?;
    let sim = GpuSimulator::new(cfg.gpu.clone());
    let coalescer = Coalescer::with_block_size(cfg.gpu.block_size).map_err(|e| e.to_string())?;
    let mut source = w.source(seed, ctx.threads)?;
    let attack = w.attack(ctx.threads);
    // The plaintext stream `SimulatorSource` draws from.
    let mut lines_rng = StdRng::seed_from_u64(seed);
    let mut buf = Vec::with_capacity(CHUNK);
    let mut consumed = 0usize;
    let mut excluded = 0.0;

    let start = Instant::now();
    let t = Instant::now();
    let mut engine = Engine::new(w, &attack).map_err(|e| e.to_string())?;
    ledger.attack_setup_s += t.elapsed().as_secs_f64();
    while consumed < BUDGET {
        let want = CHUNK.min(BUDGET - consumed);
        buf.clear();
        let t = Instant::now();
        source
            .next_batch(want, &mut buf)
            .map_err(|e| e.to_string())?;
        ledger.source_s += t.elapsed().as_secs_f64();
        ledger.source_calls += 1;
        ledger.source_samples += want as u64;

        let t = Instant::now();
        let lines = replay::next_lines(&mut lines_rng, want, LINES);
        replay_source_layers(
            w, ctx, &cfg, workload, &sim, &coalescer, &lines, consumed, &buf, ledger,
        )?;
        excluded += t.elapsed().as_secs_f64();

        // Feed the chunk split at checkpoint boundaries, as
        // `stream_recover_*` does.
        let mut off = 0;
        while off < want {
            let take = (CHECKPOINT_EVERY - consumed % CHECKPOINT_EVERY).min(want - off);
            let t = Instant::now();
            engine.push(&buf[off..off + take]);
            ledger.attack_push_s += t.elapsed().as_secs_f64();
            ledger.attack_push_calls += 1;
            consumed += take;
            off += take;
            if consumed.is_multiple_of(CHECKPOINT_EVERY) {
                let t = Instant::now();
                engine.checkpoint();
                ledger.attack_checkpoint_s += t.elapsed().as_secs_f64();
            }
        }
    }
    let t = Instant::now();
    let recovery = engine.recovery();
    ledger.attack_checkpoint_s += t.elapsed().as_secs_f64();
    let wall = start.elapsed().as_secs_f64() - excluded;
    ledger.attack_predictions += (BUDGET * w.bytes() * 256) as u64;
    Ok((recovery, wall))
}

/// Rebuilds and re-coalesces (or re-simulates) one chunk's launches and
/// checks them against what `next_batch` returned.
#[allow(clippy::too_many_arguments)]
fn replay_source_layers(
    w: &StreamWorkload,
    ctx: &Ctx,
    cfg: &ExperimentConfig,
    workload: &dyn KernelWorkload,
    sim: &GpuSimulator,
    coalescer: &Coalescer,
    lines: &[Vec<rcoal_aes::Block>],
    offset: usize,
    batch: &[AttackSample],
    ledger: &mut Ledger,
) -> Result<(), String> {
    let warp = cfg.gpu.warp_size;
    let boundary = workload.timing_boundary_round();
    let (launches, build_s, inner_s) = replay::fused_pass(ctx.threads, lines, |i, l| {
        let (kernel, build) = replay::timed(|| workload.build_kernel(&cfg.key, l.clone(), warp));
        let seed = replay::launch_seed(cfg.seed, offset + i);
        let (layer, inner) = replay::timed(|| {
            if w.timed {
                sim.run_launch_faulted(
                    &kernel,
                    LaunchPolicy::Uniform(POLICY),
                    seed,
                    &FaultPlan::none(),
                )
                .map(Layer::Sim)
                .map_err(|e| e.to_string())
            } else {
                replay::functional_counts(&kernel, POLICY, seed, coalescer, warp)
                    .map(Layer::Count)
                    .map_err(|e| e.to_string())
            }
        });
        Ok::<_, String>(((kernel.attack_text().to_vec(), layer?), build, inner))
    })?;
    ledger.build_s += build_s;
    ledger.build_calls += lines.len() as u64;
    if w.timed {
        ledger.sim_s += inner_s;
        ledger.sim_calls += lines.len() as u64;
    } else {
        ledger.count_s += inner_s;
    }

    for (i, (sample, (text, layer))) in batch.iter().zip(&launches).enumerate() {
        let time = match layer {
            Layer::Sim(s) => {
                ledger.sim_cycles += s.total_cycles;
                ledger.sim_row_hit_sum += s.row_hit_rate;
                ledger.sim_mem_latency_sum += s.mem_latency_sum;
                ledger.sim_accesses += s.total_accesses;
                s.try_cycles_after_round(boundary).unwrap_or(0) as f64
            }
            Layer::Count(c) => {
                ledger.core_accesses += c.accesses;
                ledger.core_requests += c.requests;
                c.last_round as f64
            }
        };
        if sample.ciphertexts.as_slice() != text.as_slice() || sample.time != time {
            return Err(format!(
                "replayed layers disagree with next_batch at sample {}",
                offset + i
            ));
        }
    }
    Ok(())
}

/// The output of the layer under the kernel build in one replayed launch.
enum Layer {
    Sim(SimStats),
    Count(replay::Counts),
}

/// Names each byte whose true value is not at rank 0.
fn rank_failures(recovery: &KeyRecovery, truth: &[u8; 16]) -> Vec<usize> {
    recovery
        .bytes
        .iter()
        .enumerate()
        .filter(|(j, b)| b.rank_of(truth[*j]) != 0)
        .map(|(j, _)| j)
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

pub(crate) fn run(w: &StreamWorkload, ctx: &Ctx) -> Result<Run, String> {
    let mut run = Run::default();
    let aes = rcoal_workload::find(WORKLOAD).ok_or("aes workload is not registered")?;
    reset_peak_rss()?;
    for_rounds(ctx, |r| {
        let seed = round_seed(ctx.seed, r);
        // Set-up: source and attack construction plus the 256-guess lanes
        // `stream_recover_*` builds.
        for _ in 0..SETUP_SAMPLES_PER_ROUND {
            run.setup_s.push(time_setups(|| {
                let source = w.source(seed, ctx.threads)?;
                let engine = Engine::new(w, &w.attack(ctx.threads)).map_err(|e| e.to_string())?;
                Ok((source, engine))
            })?);
        }
        let truth = aes.attacked_subkey(&round_key(seed));
        let ops = CHUNKS_PER_ROUND;
        run.attempted += ops;
        let (recovery, time_sum, wall, chunks) = match untraced_round(w, ctx, seed) {
            Ok(out) => out,
            Err(e) => {
                run.fail(ops, format!("round {r}: {e}"));
                return Ok(());
            }
        };
        run.samples += BUDGET as u64;
        run.busy_s += wall;
        run.chunk_ms.extend(chunks);

        let mut why = Vec::new();
        let misses = rank_failures(&recovery, &truth);
        if !misses.is_empty() {
            why.push(format!("true key byte(s) {misses:?} not at rank 0"));
        }
        run.digests.push(format!(
            "recovered={} time_sum={time_sum} ranks0={}",
            hex(&recovery.recovered_key()[..w.bytes()]),
            w.bytes() - misses.len()
        ));

        if ctx.trace {
            match traced_round(w, ctx, seed, &mut run.ledger) {
                Ok((traced, traced_wall)) => {
                    run.ledger.traced_s += traced_wall;
                    run.ledger.paired_untraced_s += wall;
                    if traced != recovery {
                        why.push("hand-driven recovery differs from stream_recover_*".into());
                    }
                }
                Err(e) => why.push(format!("traced: {e}")),
            }
        }
        if !why.is_empty() {
            run.fail(ops, format!("round {r}: {}", why.join("; ")));
        }
        Ok(())
    })?;
    run.peak_rss_mib = peak_rss_mib()?;
    Ok(run)
}
