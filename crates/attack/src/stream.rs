//! Single-pass streaming attack engine.
//!
//! The materialized drivers in [`crate::recover`] hold every
//! [`AttackSample`] and every per-guess prediction column in memory
//! before correlating — fine at the paper's 10²–10⁴ budgets, hopeless at
//! the 10⁵–10⁷ budgets Eq. 4 (S ≈ 11/ρ²) demands for the high-security
//! RCoal configurations. This module replaces that with a chunked
//! pipeline whose resident state is *independent of the sample count*:
//!
//! * [`PearsonAccumulator`] — a bivariate Welford accumulator (centered
//!   incremental moments) replacing the cancellation-prone raw sums the
//!   old online path used. Its final correlation agrees with the
//!   two-pass [`crate::stats::pearson`] to ~1e-9 on any stream either
//!   can handle, and it stays accurate where raw sums catastrophically
//!   cancel (large means, tiny variances).
//! * [`SampleSource`] — a pull-based chunk producer. Replay sources
//!   wrap collected samples; `rcoal-experiments` provides a
//!   simulator-backed source that *generates* launches chunk by chunk.
//! * [`StreamingByteRecovery`] / [`StreamingKeyRecovery`] — the
//!   256-guess sweep over a chunk, parallelized per guess. Each guess
//!   owns its predictor (seeded `attack.seed ^ guess`, exactly like the
//!   materialized sweep) and its accumulator, and consumes samples in
//!   stream order — so the accumulator state is **bit-identical at any
//!   thread count and any chunk size**.
//! * [`EarlyStop`] — terminate once the leader's separation is
//!   statistically stable: the same guess leads for `stable_checkpoints`
//!   consecutive checkpoints with a margin above `margin_k / √n` (the
//!   scale of a Pearson estimate's sampling error). A secure stream's
//!   256 near-zero correlations keep the top-two gap well below that
//!   band and the leader unstable, so it never confidently terminates.

use crate::error::AttackError;
use crate::online::even_checkpoints;
use crate::predict::AccessPredictor;
use crate::recover::{Attack, AttackSample, ByteRecovery, KeyRecovery};
use rcoal_parallel::{parallel_for_each_mut, resolve_threads};

/// Incremental Pearson correlation over a stream of `(x, y)` pairs,
/// using bivariate Welford updates (centered moments) instead of raw
/// `Σx, Σx², Σxy` sums.
///
/// The raw-sum correlation `(Σxy − ΣxΣy/n) / …` subtracts two nearly
/// equal large numbers when the means dominate the variances, losing all
/// significant digits; the centered recurrence never forms those large
/// intermediates. Degenerate streams report `0.0` with the exact
/// semantics of [`crate::stats::pearson`]: fewer than two samples, a
/// zero-variance axis, or any non-finite contamination.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PearsonAccumulator {
    n: u64,
    mean_x: f64,
    mean_y: f64,
    m2_x: f64,
    m2_y: f64,
    cxy: f64,
}

impl PearsonAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        PearsonAccumulator::default()
    }

    /// Feeds one `(x, y)` observation.
    pub fn push(&mut self, x: f64, y: f64) {
        self.n += 1;
        let nf = self.n as f64;
        let dx = x - self.mean_x;
        let dy = y - self.mean_y;
        self.mean_x += dx / nf;
        self.mean_y += dy / nf;
        // `dy2` uses the *updated* mean — the standard bivariate Welford
        // co-moment recurrence.
        let dy2 = y - self.mean_y;
        self.m2_x += dx * (x - self.mean_x);
        self.m2_y += dy * dy2;
        self.cxy += dx * dy2;
    }

    /// Observations consumed.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Whether no observations have been consumed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean of the `x` stream (0.0 while empty).
    pub fn mean_x(&self) -> f64 {
        self.mean_x
    }

    /// Mean of the `y` stream (0.0 while empty).
    pub fn mean_y(&self) -> f64 {
        self.mean_y
    }

    /// Current Pearson correlation; `0.0` for degenerate streams, with
    /// the same semantics as [`crate::stats::pearson`] (and the same
    /// `[-1, 1]` clamp).
    pub fn correlation(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let (vx, vy) = (self.m2_x, self.m2_y);
        if !(vx > 0.0 && vy > 0.0 && vx.is_finite() && vy.is_finite()) {
            return 0.0;
        }
        let r = self.cxy / (vx.sqrt() * vy.sqrt());
        if r.is_finite() {
            r.clamp(-1.0, 1.0)
        } else {
            0.0
        }
    }

    /// The raw bit patterns of the full accumulator state
    /// `(n, mean_x, mean_y, m2_x, m2_y, cxy)` — the object of the
    /// bit-identity contract: two runs that processed the same per-guess
    /// sample sequence produce equal `state_bits` regardless of thread
    /// count or chunk size.
    pub fn state_bits(&self) -> [u64; 6] {
        [
            self.n,
            self.mean_x.to_bits(),
            self.mean_y.to_bits(),
            self.m2_x.to_bits(),
            self.m2_y.to_bits(),
            self.cxy.to_bits(),
        ]
    }
}

/// A pull-based producer of [`AttackSample`] chunks.
///
/// Implementations must be deterministic for a fixed construction (the
/// concatenation of all chunks is one well-defined stream, whatever
/// chunk sizes the consumer asks for) — that is what makes streaming
/// results reproducible and chunk-size invariant.
pub trait SampleSource {
    /// Appends up to `max` samples to `out` and returns how many were
    /// produced. Returning `0` means the stream is exhausted.
    ///
    /// # Errors
    ///
    /// Source-specific failures surface as [`AttackError::Source`].
    fn next_chunk(&mut self, max: usize, out: &mut Vec<AttackSample>)
        -> Result<usize, AttackError>;

    /// Samples remaining, when the source knows (replay sources do;
    /// generative sources may not).
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

/// Replay-backed [`SampleSource`] over already-collected samples.
/// Chunks share the underlying ciphertext blocks via `Arc`, so replay
/// costs no block copies.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    samples: &'a [AttackSample],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Streams `samples` from the beginning.
    pub fn new(samples: &'a [AttackSample]) -> Self {
        SliceSource { samples, pos: 0 }
    }
}

impl SampleSource for SliceSource<'_> {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<AttackSample>,
    ) -> Result<usize, AttackError> {
        let take = max.min(self.samples.len() - self.pos);
        out.extend_from_slice(&self.samples[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.samples.len() - self.pos)
    }
}

/// One guess's streaming state: its independently seeded predictor plus
/// its correlation accumulator.
#[derive(Debug, Clone)]
struct GuessLane {
    guess: u8,
    predictor: AccessPredictor,
    acc: PearsonAccumulator,
}

impl GuessLane {
    /// Consumes one chunk in stream order.
    fn consume(&mut self, columns: &[Vec<u8>], times: &[f64]) {
        for (col, &t) in columns.iter().zip(times) {
            let x = self.predictor.predict_bytes(col, self.guess);
            self.acc.push(x, t);
        }
    }
}

/// Streaming recovery of one key byte: 256 [`GuessLane`]s fed chunk by
/// chunk, parallelized per guess.
///
/// Resident state is ~256 predictors + accumulators plus the attack's
/// shared guess table — independent of how many samples flow through.
/// Determinism contract: lane `m` consumes the stream in order whatever
/// the chunking, and lanes are independent, so the accumulator state
/// (and therefore every correlation, argmax, and rank) is bit-identical
/// at any thread count and chunk size.
#[derive(Debug, Clone)]
pub struct StreamingByteRecovery {
    lanes: Vec<GuessLane>,
    byte: usize,
    threads: Option<usize>,
    n: usize,
}

impl StreamingByteRecovery {
    /// Starts a streaming recovery of key byte `byte`, mirroring
    /// `attack`'s policy, oracle, per-guess seeds, and thread count.
    ///
    /// # Errors
    ///
    /// [`AttackError::ByteIndex`] for `byte >= attack.key_bytes()`,
    /// [`AttackError::WarpTooWide`] for a warp wider than 64 lanes, and
    /// [`AttackError::TooManyBlocks`] for an oracle of more than 64
    /// blocks.
    pub fn new(attack: &Attack, byte: usize) -> Result<Self, AttackError> {
        attack.check_limits()?;
        if byte >= attack.key_bytes() {
            return Err(AttackError::ByteIndex { j: byte });
        }
        let lanes = (0..=255u8)
            .map(|m| GuessLane {
                guess: m,
                predictor: attack.predictor_for_guess(m),
                acc: PearsonAccumulator::new(),
            })
            .collect();
        Ok(StreamingByteRecovery {
            lanes,
            byte,
            threads: attack.threads_option(),
            n: 0,
        })
    }

    /// The key byte position this engine recovers.
    pub fn byte(&self) -> usize {
        self.byte
    }

    /// Samples consumed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no samples have been consumed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Feeds one chunk of samples to all 256 guesses.
    ///
    /// The byte column is extracted once per sample (not once per
    /// guess), then each lane processes the chunk sequentially into its
    /// own accumulator on a worker thread, in place.
    pub fn push_chunk(&mut self, chunk: &[AttackSample]) {
        feed(std::slice::from_mut(self), chunk);
    }

    /// Current correlation of guess `m` (0.0 while degenerate).
    pub fn correlation_of(&self, m: u8) -> f64 {
        self.lanes[usize::from(m)].acc.correlation()
    }

    /// Accumulator of guess `m` (for state inspection / bit-identity
    /// checks).
    pub fn accumulator(&self, m: u8) -> &PearsonAccumulator {
        &self.lanes[usize::from(m)].acc
    }

    /// The guess currently leading — an allocation-free scan over the
    /// accumulators (first maximum wins, matching
    /// [`crate::stats::argmax`]).
    pub fn best_guess(&self) -> u8 {
        self.leader().0
    }

    /// `(leader, leader_corr, runner_up_corr)` in one scan.
    pub fn leader(&self) -> (u8, f64, f64) {
        let mut best = 0usize;
        let mut best_r = f64::NEG_INFINITY;
        let mut second_r = f64::NEG_INFINITY;
        for (i, lane) in self.lanes.iter().enumerate() {
            let r = lane.acc.correlation();
            if r > best_r {
                second_r = best_r;
                best_r = r;
                best = i;
            } else if r > second_r {
                second_r = r;
            }
        }
        (best as u8, best_r, second_r)
    }

    /// Snapshot of the full recovery state (the materialized-engine
    /// result type).
    pub fn snapshot(&self) -> ByteRecovery {
        let correlations: Vec<f64> = self.lanes.iter().map(|l| l.acc.correlation()).collect();
        ByteRecovery {
            best_guess: self.best_guess(),
            correlations,
        }
    }
}

/// Streaming recovery of every subkey byte the oracle exposes:
/// `key_bytes × 256` lanes fed from one pass over the stream.
#[derive(Debug, Clone)]
pub struct StreamingKeyRecovery {
    bytes: Vec<StreamingByteRecovery>,
}

impl StreamingKeyRecovery {
    /// Starts a streaming recovery of all `attack.key_bytes()` subkey
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`AttackError::WarpTooWide`] for a warp wider than 64 lanes and
    /// [`AttackError::TooManyBlocks`] for an oracle of more than 64
    /// blocks.
    pub fn new(attack: &Attack) -> Result<Self, AttackError> {
        let bytes = (0..attack.key_bytes())
            .map(|j| StreamingByteRecovery::new(attack, j))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StreamingKeyRecovery { bytes })
    }

    /// Samples consumed so far.
    pub fn len(&self) -> usize {
        self.bytes.first().map_or(0, StreamingByteRecovery::len)
    }

    /// Whether no samples have been consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-byte streaming engines, indexed by byte position.
    pub fn byte_engines(&self) -> &[StreamingByteRecovery] {
        &self.bytes
    }

    /// Feeds one chunk of samples to every byte engine, in one fan-out
    /// over all `bytes × 256` guess lanes.
    pub fn push_chunk(&mut self, chunk: &[AttackSample]) {
        feed(&mut self.bytes, chunk);
    }

    /// Snapshot of the full key recovery.
    pub fn snapshot(&self) -> KeyRecovery {
        KeyRecovery {
            bytes: self
                .bytes
                .iter()
                .map(StreamingByteRecovery::snapshot)
                .collect(),
        }
    }
}

/// Feeds `chunk` to every guess lane of `engines` in place, with one
/// parallel fan-out over all of their lanes. Each lane consumes the
/// chunk in stream order, so the result is the same at any thread count
/// and however the stream is chunked.
fn feed(engines: &mut [StreamingByteRecovery], chunk: &[AttackSample]) {
    let Some(threads) = engines.first().map(|e| resolve_threads(e.threads)) else {
        return;
    };
    if chunk.is_empty() {
        return;
    }
    let times: Vec<f64> = chunk.iter().map(|s| s.time).collect();
    let columns: Vec<Vec<Vec<u8>>> = engines
        .iter()
        .map(|e| {
            chunk
                .iter()
                .map(|s| s.ciphertexts.iter().map(|ct| ct[e.byte]).collect())
                .collect()
        })
        .collect();
    let mut work: Vec<(&mut GuessLane, &[Vec<u8>])> = Vec::with_capacity(engines.len() * 256);
    for (engine, cols) in engines.iter_mut().zip(&columns) {
        engine.n += chunk.len();
        work.extend(engine.lanes.iter_mut().map(|lane| (lane, cols.as_slice())));
    }
    parallel_for_each_mut(threads, &mut work, |_, (lane, cols)| {
        lane.consume(cols, &times);
    });
}

/// The early-termination rule: stop once the same guess has led for
/// `stable_checkpoints` consecutive checkpoints, each time with a
/// top-two correlation margin above `margin_k / √n`.
///
/// `1/√n` is the scale of a Pearson estimate's sampling error, so the
/// margin test asks "is the leader's separation larger than estimation
/// noise?". On a secure stream all 256 correlations are O(1/√n) noise
/// and the top-two *gap* is far smaller still, so neither the margin nor
/// the stability condition holds and the stream runs to its budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStop {
    /// Consecutive qualifying checkpoints required (≥ 1).
    pub stable_checkpoints: usize,
    /// Margin threshold scale: the top-two gap must exceed
    /// `margin_k / √n`.
    pub margin_k: f64,
}

impl Default for EarlyStop {
    fn default() -> Self {
        EarlyStop {
            stable_checkpoints: 3,
            margin_k: 5.0,
        }
    }
}

impl EarlyStop {
    /// Whether `margin` at sample count `n` clears the `margin_k / √n`
    /// band.
    pub fn margin_ok(&self, margin: f64, n: usize) -> bool {
        n > 0 && margin > self.margin_k / (n as f64).sqrt()
    }
}

/// Tracks leader stability across checkpoints for one byte position.
#[derive(Debug, Clone, Copy, Default)]
struct StopTracker {
    prev_leader: Option<u8>,
    streak: usize,
}

impl StopTracker {
    /// Observes one checkpoint; returns the current qualifying streak.
    fn observe(&mut self, rule: &EarlyStop, leader: u8, margin: f64, n: usize) -> usize {
        let qualifies = rule.margin_ok(margin, n);
        self.streak = if qualifies && self.prev_leader == Some(leader) {
            self.streak + 1
        } else {
            usize::from(qualifies)
        };
        self.prev_leader = Some(leader);
        self.streak
    }

    fn stable(&self, rule: &EarlyStop) -> bool {
        self.streak >= rule.stable_checkpoints.max(1)
    }
}

/// Options for the streaming drivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOptions {
    /// Sample budget: the stream stops here even without early
    /// termination.
    pub max_samples: usize,
    /// Samples pulled from the source per chunk (each chunk is one
    /// parallel 256-guess sweep). `0` is treated as 1.
    pub chunk: usize,
    /// Samples between early-stop/trajectory checkpoints; `0` derives
    /// `max(1, max_samples / 16)`. Checkpoints land on exact sample
    /// counts regardless of the chunk size (chunks are split
    /// internally), so trajectories and termination points are
    /// chunk-size invariant too.
    pub checkpoint_every: usize,
    /// Early-termination rule; `None` always runs to the budget.
    pub early_stop: Option<EarlyStop>,
}

impl StreamOptions {
    /// Streams up to `max_samples` with a 4096-sample chunk, derived
    /// checkpoints, and no early termination.
    pub fn new(max_samples: usize) -> Self {
        StreamOptions {
            max_samples,
            chunk: 4096,
            checkpoint_every: 0,
            early_stop: None,
        }
    }

    /// Sets the chunk size.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = chunk;
        self
    }

    /// Sets the checkpoint spacing.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Arms early termination.
    pub fn with_early_stop(mut self, rule: EarlyStop) -> Self {
        self.early_stop = Some(rule);
        self
    }

    fn resolved_checkpoint_every(&self) -> usize {
        if self.checkpoint_every > 0 {
            self.checkpoint_every
        } else {
            (self.max_samples / 16).max(1)
        }
    }
}

/// One point of the online attacker's trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamCheckpoint {
    /// Samples consumed at this checkpoint.
    pub samples: usize,
    /// The guess leading at this checkpoint.
    pub leader: u8,
    /// The leader's correlation.
    pub leader_corr: f64,
    /// The runner-up's correlation.
    pub runner_up_corr: f64,
    /// `leader_corr - runner_up_corr`.
    pub margin: f64,
    /// Consecutive qualifying checkpoints so far (under the armed
    /// [`EarlyStop`] rule; 0 when none is armed).
    pub stable_for: usize,
}

/// Result of a streaming single-byte recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRecovery {
    /// Byte position recovered.
    pub byte: usize,
    /// Final recovery state (materialized-engine result type).
    pub recovery: ByteRecovery,
    /// Samples actually consumed.
    pub samples: usize,
    /// Whether the early-stop rule fired before the budget/stream end.
    pub terminated_early: bool,
    /// The checkpoint trajectory.
    pub checkpoints: Vec<StreamCheckpoint>,
}

/// Result of a streaming full-key recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamKeyRecovery {
    /// Final recovery state (materialized-engine result type).
    pub recovery: KeyRecovery,
    /// Samples actually consumed.
    pub samples: usize,
    /// Whether every byte's early-stop rule fired before the budget.
    pub terminated_early: bool,
    /// Checkpoints evaluated.
    pub checkpoints: usize,
}

/// Evenly spaced checkpoint counts for a stream of `budget` samples —
/// re-exported convenience over [`even_checkpoints`].
pub fn stream_checkpoints(budget: usize, count: usize) -> Vec<usize> {
    even_checkpoints(budget, count)
}

/// Streams up to `opts.max_samples` from `source` and recovers key byte
/// `byte` in a single pass. Peak resident state is the 256 guess lanes
/// plus one chunk — independent of the sample count.
///
/// With `opts.early_stop` armed, the stream terminates at the first
/// checkpoint where the leader has been stable (see [`EarlyStop`]).
///
/// When `attack` carries a metrics sink, each checkpoint updates the
/// online-attacker channel: `attack.stream.samples`,
/// `attack.stream.leader`, `attack.stream.margin_ppm`, and
/// `attack.stream.stable` gauges plus an `attack.stream.checkpoints`
/// counter; early termination ticks `attack.stream.terminated`. Metrics
/// never influence the recovery.
///
/// # Errors
///
/// [`AttackError::ByteIndex`] for an out-of-range byte,
/// [`AttackError::NoSamples`] when the source yields nothing, and any
/// [`AttackError::Source`] the source reports.
pub fn stream_recover_byte(
    attack: &Attack,
    source: &mut dyn SampleSource,
    byte: usize,
    opts: &StreamOptions,
) -> Result<StreamRecovery, AttackError> {
    let span = attack.metrics_ref().map(|m| m.span("attack.stream_byte"));
    let mut engine = StreamingByteRecovery::new(attack, byte)?;
    let rule = opts.early_stop;
    let mut tracker = StopTracker::default();
    let mut checkpoints = Vec::new();
    let mut terminated = false;

    drive_stream(
        source,
        opts,
        &mut engine,
        StreamingByteRecovery::push_chunk,
        |engine, n| {
            let cp = evaluate_checkpoint(attack, engine, rule.as_ref(), &mut tracker, n);
            checkpoints.push(cp);
            let stop = rule.is_some_and(|r| tracker.stable(&r));
            terminated = terminated || stop;
            stop
        },
    )?;

    if engine.is_empty() {
        return Err(AttackError::NoSamples);
    }
    // Close the trajectory at the actual end of the stream (budget or
    // source exhaustion between checkpoints).
    if checkpoints.last().map(|c| c.samples) != Some(engine.len()) {
        let cp = evaluate_checkpoint(attack, &engine, rule.as_ref(), &mut tracker, engine.len());
        checkpoints.push(cp);
    }
    finish_stream_metrics(attack, engine.len(), terminated);
    if let Some(span) = span {
        span.finish();
    }
    Ok(StreamRecovery {
        byte,
        recovery: engine.snapshot(),
        samples: engine.len(),
        terminated_early: terminated,
        checkpoints,
    })
}

/// Streams up to `opts.max_samples` from `source` and recovers every
/// subkey byte in a single pass. With `opts.early_stop` armed, the
/// stream terminates once **every** byte's leader is stable.
///
/// # Errors
///
/// [`AttackError::NoSamples`] when the source yields nothing, and any
/// [`AttackError::Source`] the source reports.
pub fn stream_recover_key(
    attack: &Attack,
    source: &mut dyn SampleSource,
    opts: &StreamOptions,
) -> Result<StreamKeyRecovery, AttackError> {
    let span = attack.metrics_ref().map(|m| m.span("attack.stream_key"));
    let mut engine = StreamingKeyRecovery::new(attack)?;
    let rule = opts.early_stop;
    let mut trackers = vec![StopTracker::default(); engine.byte_engines().len()];
    let mut evaluated = 0usize;
    let mut terminated = false;

    drive_stream(
        source,
        opts,
        &mut engine,
        StreamingKeyRecovery::push_chunk,
        |engine, n| {
            evaluated += 1;
            let mut all_stable = rule.is_some();
            for (byte_engine, tracker) in engine.byte_engines().iter().zip(&mut trackers) {
                let (leader, r1, r2) = byte_engine.leader();
                if let Some(r) = &rule {
                    tracker.observe(r, leader, r1 - r2, n);
                    all_stable = all_stable && tracker.stable(r);
                }
            }
            if let Some(metrics) = attack.metrics_ref() {
                metrics.counter("attack.stream.checkpoints").inc();
                metrics.gauge("attack.stream.samples").set(n as u64);
            }
            terminated = terminated || all_stable;
            all_stable
        },
    )?;

    if engine.is_empty() {
        return Err(AttackError::NoSamples);
    }
    finish_stream_metrics(attack, engine.len(), terminated);
    if let Some(span) = span {
        span.finish();
    }
    Ok(StreamKeyRecovery {
        recovery: engine.snapshot(),
        samples: engine.len(),
        terminated_early: terminated,
        checkpoints: evaluated,
    })
}

/// The shared chunk loop: pulls chunks from `source` up to the budget,
/// feeds them to `engine` split exactly at checkpoint boundaries
/// (so checkpoints land on the same sample counts whatever the chunk
/// size), and calls `checkpoint(engine, n)` at each boundary; a `true`
/// return stops the stream.
fn drive_stream<E>(
    source: &mut dyn SampleSource,
    opts: &StreamOptions,
    engine: &mut E,
    push: impl Fn(&mut E, &[AttackSample]),
    mut checkpoint: impl FnMut(&mut E, usize) -> bool,
) -> Result<(), AttackError> {
    let chunk = opts.chunk.max(1);
    let cp_every = opts.resolved_checkpoint_every();
    let mut consumed = 0usize;
    let mut buf: Vec<AttackSample> = Vec::with_capacity(chunk.min(opts.max_samples));
    'stream: while consumed < opts.max_samples {
        let want = chunk.min(opts.max_samples - consumed);
        buf.clear();
        let got = source.next_chunk(want, &mut buf)?;
        if got == 0 {
            break;
        }
        let mut off = 0;
        while off < got {
            let to_boundary = cp_every - (consumed % cp_every);
            let take = to_boundary.min(got - off);
            push(engine, &buf[off..off + take]);
            consumed += take;
            off += take;
            if consumed.is_multiple_of(cp_every) && checkpoint(engine, consumed) {
                break 'stream;
            }
        }
    }
    Ok(())
}

fn evaluate_checkpoint(
    attack: &Attack,
    engine: &StreamingByteRecovery,
    rule: Option<&EarlyStop>,
    tracker: &mut StopTracker,
    n: usize,
) -> StreamCheckpoint {
    let (leader, r1, r2) = engine.leader();
    let margin = r1 - r2;
    let stable_for = match rule {
        Some(r) => tracker.observe(r, leader, margin, n),
        None => 0,
    };
    if let Some(metrics) = attack.metrics_ref() {
        metrics.counter("attack.stream.checkpoints").inc();
        metrics.gauge("attack.stream.samples").set(n as u64);
        metrics.gauge("attack.stream.leader").set(u64::from(leader));
        metrics
            .gauge("attack.stream.margin_ppm")
            .set((margin.max(0.0) * 1e6) as u64);
        metrics.gauge("attack.stream.stable").set(stable_for as u64);
    }
    StreamCheckpoint {
        samples: n,
        leader,
        leader_corr: r1,
        runner_up_corr: r2,
        margin,
        stable_for,
    }
}

fn finish_stream_metrics(attack: &Attack, samples: usize, terminated: bool) {
    if let Some(metrics) = attack.metrics_ref() {
        metrics
            .counter("attack.samples_correlated")
            .add(256 * samples as u64);
        if terminated {
            metrics.counter("attack.stream.terminated").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::pearson;
    use rcoal_aes::{last_round_index, Aes128, Block};
    use rcoal_core::CoalescingPolicy;
    use rcoal_rng::{Rng, SeedableRng, StdRng};
    use std::sync::Arc;

    // ---- PearsonAccumulator property tests (satellite 1) ----

    /// The old raw-sum correlation, exactly as `OnlineByteRecovery`
    /// computed it before this module existed — kept here as the
    /// cancellation strawman.
    fn raw_sum_pearson(xs: &[f64], ys: &[f64]) -> f64 {
        let n = xs.len() as f64;
        if xs.len() < 2 {
            return 0.0;
        }
        let (mut sx, mut sx2, mut sy, mut sy2, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (&x, &y) in xs.iter().zip(ys) {
            sx += x;
            sx2 += x * x;
            sy += y;
            sy2 += y * y;
            sxy += x * y;
        }
        let cov = sxy - sx * sy / n;
        let vx = sx2 - sx * sx / n;
        let vy = sy2 - sy * sy / n;
        if vx <= 1e-12 || vy <= 1e-12 {
            return 0.0;
        }
        cov / (vx * vy).sqrt()
    }

    fn accumulate(xs: &[f64], ys: &[f64]) -> PearsonAccumulator {
        let mut acc = PearsonAccumulator::new();
        for (&x, &y) in xs.iter().zip(ys) {
            acc.push(x, y);
        }
        acc
    }

    #[test]
    fn streaming_pearson_matches_two_pass_on_seeded_corpora() {
        let mut rng = StdRng::seed_from_u64(0x57_3a41);
        for case in 0..50 {
            let n = 2 + (case * 37) % 400;
            let scale = 10f64.powi((case % 7) - 3);
            let xs: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0) * scale).collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|x| 0.4 * x + rng.gen_range(0.0..1.0) * scale)
                .collect();
            let acc = accumulate(&xs, &ys);
            let two_pass = pearson(&xs, &ys);
            assert!(
                (acc.correlation() - two_pass).abs() < 1e-9,
                "case {case}: streaming {} vs two-pass {two_pass}",
                acc.correlation()
            );
        }
    }

    #[test]
    fn degenerate_streams_report_zero_like_pearson() {
        // n < 2.
        assert_eq!(PearsonAccumulator::new().correlation(), 0.0);
        assert_eq!(accumulate(&[1.0], &[2.0]).correlation(), 0.0);
        // Constant x.
        let ys: Vec<f64> = (0..20).map(f64::from).collect();
        let xs = vec![5.0; 20];
        assert_eq!(accumulate(&xs, &ys).correlation(), 0.0);
        assert_eq!(pearson(&xs, &ys), 0.0);
        // Constant y.
        assert_eq!(accumulate(&ys, &xs).correlation(), 0.0);
        // Non-finite contamination.
        let bad = [1.0, f64::NAN, 3.0];
        let good = [1.0, 2.0, 3.0];
        assert_eq!(accumulate(&bad, &good).correlation(), 0.0);
        assert_eq!(accumulate(&good, &bad).correlation(), 0.0);
        let inf = [1.0, f64::INFINITY, 3.0];
        assert_eq!(accumulate(&inf, &good).correlation(), 0.0);
        // Clamped to [-1, 1].
        let x: Vec<f64> = (0..50).map(|i| f64::from(i) * 1e-9 + 1e9).collect();
        let y: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let r = accumulate(&x, &y).correlation();
        assert!((-1.0..=1.0).contains(&r), "r = {r}");
    }

    #[test]
    fn adversarial_magnitudes_break_raw_sums_but_not_welford() {
        let mut rng = StdRng::seed_from_u64(0xbad_cafe);
        let n = 4000;
        let small: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let ys: Vec<f64> = small
            .iter()
            .map(|s| 0.8 * s + 0.2 * rng.gen_range(0.0..1.0))
            .collect();

        // (a) Large mean: x = 1e4 + s. Σx² ≈ n·1e8 quantizes away the
        // O(1) variance bits, so the raw-sum subtraction loses orders of
        // magnitude of precision; the centered recurrences never form
        // the large intermediates.
        let xs: Vec<f64> = small.iter().map(|s| 1e4 + s).collect();
        let two_pass = pearson(&xs, &ys);
        assert!(two_pass > 0.9, "the channel is strongly correlated");
        let welford_dev = (accumulate(&xs, &ys).correlation() - two_pass).abs();
        let raw_dev = (raw_sum_pearson(&xs, &ys) - two_pass).abs();
        assert!(welford_dev < 1e-9, "welford deviates {welford_dev}");
        assert!(
            raw_dev > 1e-9 && raw_dev > 100.0 * welford_dev.max(1e-16),
            "raw sums must lose precision here: raw_dev {raw_dev}, welford_dev {welford_dev}"
        );

        // (b) Tiny variance under a dominating mean: the same correlated
        // channel attenuated to amplitude 1e-8 on a 1e-3 pedestal. The
        // true correlation is unchanged, but the raw path's absolute
        // 1e-12 variance guard zeroes the channel entirely.
        let xs: Vec<f64> = small.iter().map(|s| 1e-3 + s * 1e-8).collect();
        let two_pass = pearson(&xs, &ys);
        assert!(
            two_pass > 0.9,
            "attenuation does not change the correlation"
        );
        let welford = accumulate(&xs, &ys).correlation();
        assert!(
            (welford - two_pass).abs() < 1e-9,
            "welford {welford} vs two-pass {two_pass}"
        );
        assert_eq!(
            raw_sum_pearson(&xs, &ys),
            0.0,
            "the raw path's absolute variance guard swallows the channel"
        );
    }

    #[test]
    fn accumulator_state_is_chunking_invariant_by_construction() {
        let xs: Vec<f64> = (0..100).map(|i| f64::from(i * 7 % 13)).collect();
        let ys: Vec<f64> = (0..100).map(|i| f64::from(i * 3 % 11)).collect();
        let whole = accumulate(&xs, &ys);
        // Same stream pushed in two halves is the same accumulator: the
        // recurrence has no chunk notion at all.
        let mut halves = PearsonAccumulator::new();
        for (&x, &y) in xs.iter().zip(&ys) {
            halves.push(x, y);
        }
        assert_eq!(whole.state_bits(), halves.state_bits());
        assert_eq!(whole.len(), 100);
        assert!(!whole.is_empty());
        assert!((whole.mean_x() - xs.iter().sum::<f64>() / 100.0).abs() < 1e-12);
        assert!((whole.mean_y() - ys.iter().sum::<f64>() / 100.0).abs() < 1e-12);
    }

    // ---- Streaming engine tests ----

    /// Noise-free samples whose time is byte `target`'s true baseline
    /// access count — the clean single-byte channel.
    fn leaky_samples(n: usize, target: usize) -> (Vec<AttackSample>, [u8; 16]) {
        let aes = Aes128::new(b"streaming key!!!");
        let k10 = aes.last_round_key();
        let out = (0..n)
            .map(|i| {
                let cts: Vec<Block> = (0..32)
                    .map(|l| {
                        let mut pt = [0u8; 16];
                        for (b, x) in pt.iter_mut().enumerate() {
                            *x = (i * 101 + l * 13 + b * 41) as u8 ^ (i >> 8) as u8;
                        }
                        aes.encrypt_block(pt)
                    })
                    .collect();
                let mut blocks: Vec<u8> = cts
                    .iter()
                    .map(|ct| last_round_index(ct[target], k10[target]) >> 4)
                    .collect();
                blocks.sort_unstable();
                blocks.dedup();
                AttackSample {
                    ciphertexts: Arc::new(cts),
                    time: blocks.len() as f64,
                }
            })
            .collect();
        (out, k10)
    }

    /// Samples whose time is pure key-independent noise — the
    /// FSS-equivalent secure stream.
    fn secure_samples(n: usize) -> Vec<AttackSample> {
        let (mut samples, _) = leaky_samples(n, 2);
        let mut rng = StdRng::seed_from_u64(0x5ec);
        for s in &mut samples {
            s.time = rng.gen_range(0.0..1.0) * 100.0;
        }
        samples
    }

    #[test]
    fn streaming_matches_materialized_recovery() {
        let (samples, k10) = leaky_samples(70, 2);
        let attack = Attack::baseline(32);
        let batch = attack.recover_byte(&samples, 2).unwrap();
        let mut source = SliceSource::new(&samples);
        let out = stream_recover_byte(
            &attack,
            &mut source,
            2,
            &StreamOptions::new(samples.len()).with_chunk(16),
        )
        .unwrap();
        assert_eq!(out.samples, 70);
        assert!(!out.terminated_early);
        assert_eq!(out.recovery.best_guess, batch.best_guess);
        assert_eq!(out.recovery.best_guess, k10[2]);
        for m in 0..256 {
            assert!(
                (out.recovery.correlations[m] - batch.correlations[m]).abs() < 1e-9,
                "guess {m}"
            );
        }
        assert_eq!(out.recovery.rank_of(k10[2]), batch.rank_of(k10[2]));
        assert_eq!(out.checkpoints.last().map(|c| c.samples), Some(70));
    }

    #[test]
    fn accumulator_state_is_bit_identical_across_chunks_and_threads() {
        let (samples, _) = leaky_samples(48, 1);
        let attack = Attack::against(CoalescingPolicy::rss_rts(8).unwrap(), 32);
        let mut reference: Option<Vec<[u64; 6]>> = None;
        for (chunk, threads) in [(1, 1), (7, 1), (7, 4), (48, 3), (13, 2)] {
            let attack = attack.clone().with_threads(Some(threads));
            let mut engine = StreamingByteRecovery::new(&attack, 1).unwrap();
            for c in samples.chunks(chunk) {
                engine.push_chunk(c);
            }
            let state: Vec<[u64; 6]> = (0..=255u8)
                .map(|m| engine.accumulator(m).state_bits())
                .collect();
            match &reference {
                None => reference = Some(state),
                Some(want) => assert_eq!(
                    want, &state,
                    "chunk {chunk} x threads {threads} must be bit-identical"
                ),
            }
        }
    }

    #[test]
    fn streaming_key_recovery_matches_materialized() {
        // Whitening oracle: 8 subkey bytes, cheap; time carries byte 0's
        // distinct-block count. (Under this oracle a guess XOR only
        // relabels blocks and the distinct count is relabel-invariant,
        // so every guess ties at r ≈ 1 on byte 0 — the interesting
        // claims here are streaming/materialized equivalence and the
        // true byte's rank, not a unique argmax.)
        let attack = Attack::baseline(32)
            .with_oracle(Arc::new(crate::oracle::XorWhiteningOracle::new(4, 8)));
        let mut rng = StdRng::seed_from_u64(77);
        let key_byte = 0xa7u8;
        let samples: Vec<AttackSample> = (0..60)
            .map(|_| {
                let cts: Vec<Block> = (0..32)
                    .map(|_| {
                        let mut b = [0u8; 16];
                        rng.fill(&mut b);
                        b
                    })
                    .collect();
                let mut blocks: Vec<u8> = cts.iter().map(|ct| (ct[0] ^ key_byte) >> 4).collect();
                blocks.sort_unstable();
                blocks.dedup();
                AttackSample {
                    ciphertexts: Arc::new(cts),
                    time: blocks.len() as f64,
                }
            })
            .collect();
        let batch = attack.recover_key(&samples).unwrap();
        let mut source = SliceSource::new(&samples);
        let out = stream_recover_key(
            &attack,
            &mut source,
            &StreamOptions::new(samples.len()).with_chunk(11),
        )
        .unwrap();
        assert_eq!(out.recovery.bytes.len(), 8);
        assert_eq!(out.samples, 60);
        for (j, (s, b)) in out.recovery.bytes.iter().zip(&batch.bytes).enumerate() {
            assert_eq!(s.best_guess, b.best_guess, "byte {j}");
            for m in 0..256 {
                assert!((s.correlations[m] - b.correlations[m]).abs() < 1e-9);
            }
        }
        // Byte 0 carries the channel: the true byte correlates ~1 and
        // shares the top rank (rank counts strictly better guesses).
        assert!(out.recovery.bytes[0].correlation_of(key_byte) > 0.99);
        assert_eq!(out.recovery.bytes[0].rank_of(key_byte), 0);
        // Byte 1 carries nothing: no guess reaches a confident lead.
        assert!(out.recovery.bytes[1]
            .correlations
            .iter()
            .all(|c| c.abs() < 0.9));
    }

    // ---- Early termination (satellite 3: falsifiability) ----

    #[test]
    fn leaky_stream_terminates_early_and_matches_full_stream() {
        let (samples, k10) = leaky_samples(400, 2);
        let attack = Attack::baseline(32);
        let full = attack.recover_byte(&samples, 2).unwrap();
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(samples.len())
            .with_chunk(32)
            .with_checkpoint_every(20)
            .with_early_stop(EarlyStop::default());
        let out = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        assert!(out.terminated_early, "clean channel must stabilize");
        assert!(
            out.samples < samples.len(),
            "termination must save samples ({} used)",
            out.samples
        );
        assert_eq!(
            out.recovery.best_guess, full.best_guess,
            "terminated recovery must agree with the full stream"
        );
        assert_eq!(out.recovery.best_guess, k10[2]);
        let last = out.checkpoints.last().unwrap();
        assert!(last.stable_for >= EarlyStop::default().stable_checkpoints);
        assert!(last.margin > 0.0);
    }

    #[test]
    fn secure_stream_never_terminates_early() {
        let samples = secure_samples(400);
        let attack = Attack::baseline(32);
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(samples.len())
            .with_chunk(32)
            .with_checkpoint_every(20)
            .with_early_stop(EarlyStop::default());
        let out = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        assert!(
            !out.terminated_early,
            "key-independent noise must run to the budget"
        );
        assert_eq!(out.samples, 400);
        // And a fortiori for a *constant* channel (every correlation 0).
        let mut flat = secure_samples(200);
        for s in &mut flat {
            s.time = 512.0;
        }
        let mut source = SliceSource::new(&flat);
        let out = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        assert!(!out.terminated_early);
        assert!(out.checkpoints.iter().all(|c| c.margin == 0.0));
    }

    #[test]
    fn inverted_termination_rule_fails_on_secure_streams() {
        // The margin band is load-bearing: a naive "stop as soon as any
        // leader exists" rule (margin_k = 0, one checkpoint) terminates
        // immediately on pure noise with an unjustified key — exactly
        // the false confidence the k/sqrt(n) band exists to prevent.
        let samples = secure_samples(400);
        let attack = Attack::baseline(32);
        let naive = EarlyStop {
            stable_checkpoints: 1,
            margin_k: 0.0,
        };
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(samples.len())
            .with_chunk(32)
            .with_checkpoint_every(20)
            .with_early_stop(naive);
        let out = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        assert!(
            out.terminated_early && out.samples == 20,
            "the strawman rule stops at the first checkpoint on noise"
        );
    }

    #[test]
    fn early_stop_margin_band_scales_with_n() {
        let rule = EarlyStop::default();
        assert!(!rule.margin_ok(0.4, 100), "0.4 < 5/sqrt(100)");
        assert!(rule.margin_ok(0.6, 100), "0.6 > 5/sqrt(100)");
        assert!(rule.margin_ok(0.06, 10_000), "band tightens with n");
        assert!(!rule.margin_ok(0.5, 0));
    }

    // ---- Sources and errors ----

    #[test]
    fn slice_source_chunks_and_hints() {
        let (samples, _) = leaky_samples(10, 0);
        let mut source = SliceSource::new(&samples);
        assert_eq!(source.remaining_hint(), Some(10));
        let mut buf = Vec::new();
        assert_eq!(source.next_chunk(4, &mut buf).unwrap(), 4);
        assert_eq!(source.next_chunk(100, &mut buf).unwrap(), 6);
        assert_eq!(source.next_chunk(1, &mut buf).unwrap(), 0);
        assert_eq!(buf.len(), 10);
        assert_eq!(source.remaining_hint(), Some(0));
        assert_eq!(buf, samples);
    }

    #[test]
    fn empty_source_and_bad_byte_are_typed_errors() {
        let attack = Attack::baseline(32);
        let mut source = SliceSource::new(&[]);
        assert_eq!(
            stream_recover_byte(&attack, &mut source, 0, &StreamOptions::new(100)).unwrap_err(),
            AttackError::NoSamples
        );
        let (samples, _) = leaky_samples(4, 0);
        let mut source = SliceSource::new(&samples);
        assert_eq!(
            stream_recover_byte(&attack, &mut source, 16, &StreamOptions::new(100)).unwrap_err(),
            AttackError::ByteIndex { j: 16 }
        );
        let mut source = SliceSource::new(&samples);
        assert_eq!(
            stream_recover_key(&attack, &mut source, &StreamOptions::new(0)).unwrap_err(),
            AttackError::NoSamples
        );
    }

    /// Every recovery entry point's answer for `attack` on `samples`.
    fn entry_point_errors(attack: &Attack, samples: &[AttackSample]) -> Vec<AttackError> {
        vec![
            StreamingByteRecovery::new(attack, 0).unwrap_err(),
            StreamingKeyRecovery::new(attack).unwrap_err(),
            crate::OnlineByteRecovery::new(attack, 0).unwrap_err(),
            attack.correlations_for_byte(samples, 0).unwrap_err(),
            attack.recover_byte(samples, 0).unwrap_err(),
            attack.recover_key(samples).unwrap_err(),
        ]
    }

    #[test]
    fn warps_past_the_lane_mask_are_typed_errors() {
        let (samples, _) = leaky_samples(4, 0);
        let wide = Attack::baseline(65);
        for err in entry_point_errors(&wide, &samples) {
            assert_eq!(err, AttackError::WarpTooWide { warp_size: 65 });
        }
        assert!(StreamingByteRecovery::new(&Attack::baseline(64), 0).is_ok());
    }

    #[test]
    fn oracles_past_the_block_mask_are_typed_errors() {
        /// 256 one-entry blocks, via the scanning `block_count` default.
        #[derive(Debug)]
        struct ByteBlocks;
        impl crate::TableOracle for ByteBlocks {
            fn key_bytes(&self) -> usize {
                16
            }
            fn block_of(&self, b: u8, guess: u8) -> u64 {
                u64::from(b ^ guess)
            }
        }
        let (samples, _) = leaky_samples(4, 0);
        for oracle in [
            Arc::new(ByteBlocks) as Arc<dyn crate::TableOracle>,
            Arc::new(crate::XorWhiteningOracle::new(1, 8)),
        ] {
            let attack = Attack::baseline(32).with_oracle(oracle);
            let blocks = if attack.key_bytes() == 16 { 256 } else { 128 };
            for err in entry_point_errors(&attack, &samples) {
                assert_eq!(err, AttackError::TooManyBlocks { blocks });
            }
        }
        // Four entries per block (shift 2) is exactly 64 blocks: accepted.
        let edge = Attack::baseline(32).with_oracle(Arc::new(crate::XorWhiteningOracle::new(2, 8)));
        assert!(edge.recover_byte(&samples, 0).is_ok());
    }

    #[test]
    fn budget_caps_the_stream_and_checkpoints_align() {
        let (samples, _) = leaky_samples(100, 0);
        let attack = Attack::baseline(32);
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(50)
            .with_chunk(7)
            .with_checkpoint_every(20);
        let out = stream_recover_byte(&attack, &mut source, 0, &opts).unwrap();
        assert_eq!(out.samples, 50);
        let counts: Vec<usize> = out.checkpoints.iter().map(|c| c.samples).collect();
        assert_eq!(
            counts,
            vec![20, 40, 50],
            "boundaries independent of chunk 7"
        );
        assert_eq!(source.remaining_hint(), Some(50), "unconsumed tail stays");
    }

    #[test]
    fn stream_metrics_record_the_online_attacker_channel() {
        let (samples, _) = leaky_samples(60, 2);
        let registry = rcoal_telemetry::MetricsRegistry::new();
        let attack = Attack::baseline(32).with_metrics(&registry);
        let plain = Attack::baseline(32);
        let mut source = SliceSource::new(&samples);
        let opts = StreamOptions::new(60)
            .with_chunk(16)
            .with_checkpoint_every(20);
        let metered = stream_recover_byte(&attack, &mut source, 2, &opts).unwrap();
        let mut source = SliceSource::new(&samples);
        let unmetered = stream_recover_byte(&plain, &mut source, 2, &opts).unwrap();
        assert_eq!(metered, unmetered, "metrics must not perturb the recovery");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["attack.stream.checkpoints"], 3);
        assert_eq!(snap.counters["attack.samples_correlated"], 256 * 60);
        assert_eq!(snap.counters["span.attack.stream_byte.calls"], 1);
        assert_eq!(snap.gauges["attack.stream.samples"], 60);
    }
}
