//! The audit engine: the TVLA/MI instruments and the full leakage
//! audit over chunked observation streams.
//!
//! [`StreamingAudit`] is the only code that computes a
//! [`LeakageReport`]; [`audit_target_with_stages`] pushes an in-memory
//! stream through it in one chunk. The engine stores only sufficient
//! statistics, so peak heap is independent of the sample count:
//!
//! * [`StreamingChannelTest`] groups `(prediction, value)` pairs by
//!   exact value into a count ledger. The simulated channels are
//!   discrete (coalesced-access and cycle counts), so the ledger's
//!   size is the number of *distinct* pairs — independent of how many
//!   samples stream through it. From the ledger it reproduces
//!   [`crate::binned_mi`] **bit-for-bit** (identical histograms fed to
//!   the same fold) and [`crate::welch_t_test`] on the median split up
//!   to count-weighted summation order.
//! * [`StreamingAudit`] wires one ledger per channel (timing plus each
//!   telemetry stage), a [`StreamingByteRecovery`] trajectory, and the
//!   channel histogram into a [`LeakageReport`]. Trajectory checkpoints
//!   land on the same [`even_checkpoints`] schedule whatever the chunk
//!   boundaries, so the whole report is chunk-size invariant.

use crate::report::{
    normalized_s, theory_check, AuditError, AuditTarget, ChannelQuantiles, ChannelTest,
    LeakageReport, StageChannel, TrajectoryPoint,
};
use crate::spec::AuditSpec;
use crate::stats::{bin_of, mi_from_histograms, min_max, welch_from_moments, MiEstimate};
use rcoal_attack::{
    even_checkpoints, AccessPredictor, Attack, AttackError, AttackSample, StreamingByteRecovery,
};
use rcoal_telemetry::Hist64;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One channel's TVLA verdict over a stream: feed `(prediction, value)`
/// pairs in, get the [`ChannelTest`] of the concatenated stream.
///
/// Observations are grouped by exact `(f64::to_bits)` pair, so memory
/// is proportional to the number of *distinct* pairs rather than the
/// stream length — constant for the simulator's integer-valued
/// channels no matter how many samples stream through.
#[derive(Debug, Clone)]
pub struct StreamingChannelTest {
    name: String,
    /// (prediction bits, value bits) → multiplicity.
    pairs: BTreeMap<(u64, u64), u64>,
    n: usize,
}

impl StreamingChannelTest {
    /// An empty ledger for the channel called `name`.
    pub fn new(name: &str) -> Self {
        StreamingChannelTest {
            name: name.to_string(),
            pairs: BTreeMap::new(),
            n: 0,
        }
    }

    /// Records one observation: the attacker-model prediction and the
    /// observed channel value.
    pub fn push(&mut self, prediction: f64, value: f64) {
        *self
            .pairs
            .entry((prediction.to_bits(), value.to_bits()))
            .or_insert(0) += 1;
        self.n += 1;
    }

    /// Observations recorded so far.
    pub fn observations(&self) -> usize {
        self.n
    }

    /// Whether no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distinct `(prediction, value)` pairs held — the ledger's actual
    /// memory footprint, which stays flat on discrete channels.
    pub fn distinct_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Distinct prediction values with their total multiplicities,
    /// sorted ascending by `f64::total_cmp` — the grouped image of the
    /// sorted prediction vector.
    fn grouped_predictions(&self) -> Vec<(f64, u64)> {
        let mut by_pred: BTreeMap<u64, u64> = BTreeMap::new();
        for (&(p, _), &c) in &self.pairs {
            *by_pred.entry(p).or_insert(0) += c;
        }
        let mut out: Vec<(f64, u64)> = by_pred
            .into_iter()
            .map(|(bits, c)| (f64::from_bits(bits), c))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// The partition's median: element `(n - 1) / 2` of the
    /// predictions sorted by `total_cmp`.
    fn median_prediction(&self, grouped: &[(f64, u64)]) -> f64 {
        let target = (self.n as u64 - 1) / 2;
        let mut cumulative = 0u64;
        for &(p, c) in grouped {
            cumulative += c;
            if cumulative > target {
                return p;
            }
        }
        grouped.last().map_or(0.0, |&(p, _)| p)
    }

    /// Computes the channel verdict against `spec`'s thresholds: a
    /// Welch t-test between the low- and high-prediction classes plus
    /// the binned MI, flagging when both clear their thresholds.
    ///
    /// The partition is the TVLA "specific" variant: each observation is
    /// classed by the attacker's own prediction, strictly above the
    /// median prediction (element `(n - 1) / 2` in `total_cmp` order)
    /// going high. Saturated geometries (few table blocks under many
    /// threads, e.g. RECTANGLE's R = 8 under N = 32) can pin the median
    /// at the maximum prediction, emptying the high class and silencing
    /// the t-test on a channel that still leaks; when the strict high
    /// class would have fewer than two members, ties go high instead.
    pub fn finish(&self, spec: &AuditSpec) -> ChannelTest {
        let welch = self.welch();
        let mi = self.mi(spec.mi_bins);
        let leaky = welch.exceeds(spec.t_threshold) && mi.corrected_bits > spec.mi_floor_bits;
        ChannelTest {
            name: self.name.clone(),
            welch,
            mi,
            leaky,
        }
    }

    fn welch(&self) -> crate::WelchT {
        if self.n == 0 {
            return welch_from_moments(0, 0.0, 0.0, 0, 0.0, 0.0);
        }
        let grouped = self.grouped_predictions();
        let median = self.median_prediction(&grouped);
        let strict_high: u64 = grouped
            .iter()
            .filter(|&&(p, _)| p > median)
            .map(|&(_, c)| c)
            .sum();
        let is_high: &dyn Fn(f64) -> bool = if strict_high >= 2 {
            &|p| p > median
        } else {
            &|p| p >= median
        };
        // Count-weighted two-pass moments per class (mean, then
        // unbiased variance), visiting pairs in ledger order.
        let mut acc = [(0u64, 0.0f64); 2]; // (count, sum) per class
        for (&(p, v), &c) in &self.pairs {
            let slot = &mut acc[usize::from(is_high(f64::from_bits(p)))];
            slot.0 += c;
            slot.1 += c as f64 * f64::from_bits(v);
        }
        let mean = |(count, sum): (u64, f64)| if count == 0 { 0.0 } else { sum / count as f64 };
        let (mean_low, mean_high) = (mean(acc[0]), mean(acc[1]));
        let mut ss = [0.0f64; 2];
        for (&(p, v), &c) in &self.pairs {
            let high = usize::from(is_high(f64::from_bits(p)));
            let d = f64::from_bits(v) - if high == 1 { mean_high } else { mean_low };
            ss[high] += c as f64 * d * d;
        }
        let var = |count: u64, ss: f64| {
            if count < 2 {
                0.0
            } else {
                ss / (count - 1) as f64
            }
        };
        welch_from_moments(
            acc[0].0 as usize,
            mean_low,
            var(acc[0].0, ss[0]),
            acc[1].0 as usize,
            mean_high,
            var(acc[1].0, ss[1]),
        )
    }

    fn mi(&self, max_bins: usize) -> MiEstimate {
        let n = self.n;
        if n == 0 {
            return MiEstimate {
                bits: 0.0,
                bias_bits: 0.0,
                corrected_bits: 0.0,
                x_bins: 0,
                y_bins: 0,
                n,
            };
        }
        let bins = max_bins.max(1);
        let xs: Vec<f64> = {
            let mut seen: Vec<u64> = self.pairs.keys().map(|&(p, _)| p).collect();
            seen.dedup();
            seen.into_iter().map(f64::from_bits).collect()
        };
        let ys: Vec<f64> = {
            let mut seen: Vec<u64> = self.pairs.keys().map(|&(_, v)| v).collect();
            seen.sort_unstable();
            seen.dedup();
            seen.into_iter().map(f64::from_bits).collect()
        };
        // min/max over the distinct values equal min/max over the full
        // stream, so the bin edges — and therefore every per-value bin
        // index — match `binned_mi` over the raw stream exactly.
        let (x_min, x_max) = min_max(&xs);
        let (y_min, y_max) = min_max(&ys);
        let x_bins = if x_max > x_min { bins } else { 1 };
        let y_bins = if y_max > y_min { bins } else { 1 };
        let mut joint = vec![0u64; x_bins * y_bins];
        let mut mx = vec![0u64; x_bins];
        let mut my = vec![0u64; y_bins];
        for (&(p, v), &c) in &self.pairs {
            let bx = bin_of(f64::from_bits(p), x_min, x_max, x_bins);
            let by = bin_of(f64::from_bits(v), y_min, y_max, y_bins);
            joint[bx * y_bins + by] += c;
            mx[bx] += c;
            my[by] += c;
        }
        mi_from_histograms(&joint, &mx, &my, n)
    }
}

/// A full leakage audit over a chunked sample stream, with peak heap
/// independent of how many samples flow through.
///
/// Create with a total `budget` (and optionally named stage channels),
/// feed chunks of any size with [`StreamingAudit::push_chunk`], and call
/// [`StreamingAudit::finish`]. The resulting [`LeakageReport`] is the
/// same whatever the chunking: the trajectory checkpoints land on the
/// [`even_checkpoints`] schedule of the budget regardless of chunk
/// boundaries, the per-guess correlations come from one
/// [`StreamingByteRecovery`], and the MI estimates and channel
/// quantiles are exact.
///
/// Every channel — timing and each stage — is classed by the same
/// attacker-model prediction for the *true* key byte, so each t-test
/// asks "do samples the attacker expects to be slow actually run slow?".
/// Randomized policies decorrelate the prediction from the realized
/// count, collapsing the class separation — which is the defense
/// working, and the gate's passing condition.
///
/// The 256 guess lanes run on the calling thread. That was measured
/// faster (and leaner in peak memory) than a per-sub-chunk thread
/// fan-out only at the calibrated budgets, where each checkpoint
/// sub-chunk holds tens of samples; for budgets in the millions, where
/// a sub-chunk is `budget / checkpoints` samples, the fan-out would
/// likely pay off and the thread count should follow the sub-chunk
/// size.
#[derive(Debug)]
pub struct StreamingAudit {
    target: AuditTarget,
    spec: AuditSpec,
    predictor: AccessPredictor,
    timing: StreamingChannelTest,
    stages: Vec<StreamingChannelTest>,
    recovery: StreamingByteRecovery,
    hist: Hist64,
    planned: Vec<usize>,
    next_checkpoint: usize,
    trajectory: Vec<TrajectoryPoint>,
}

impl StreamingAudit {
    /// Prepares an audit of the timing channel alone, expecting up to
    /// `budget` samples.
    ///
    /// # Errors
    ///
    /// As [`StreamingAudit::with_stages`].
    pub fn new(target: AuditTarget, spec: AuditSpec, budget: usize) -> Result<Self, AuditError> {
        Self::with_stages(target, spec, budget, &[])
    }

    /// Prepares an audit expecting up to `budget` samples, with one
    /// stage channel per entry of `stage_names`. Every
    /// [`StreamingAudit::push_chunk`] then carries one value column per
    /// stage, in this order.
    ///
    /// # Errors
    ///
    /// [`AuditError::Spec`] for an invalid spec or a zero budget;
    /// [`AuditError::Attack`] when the byte index is out of range for
    /// the target's oracle.
    pub fn with_stages(
        target: AuditTarget,
        spec: AuditSpec,
        budget: usize,
        stage_names: &[&str],
    ) -> Result<Self, AuditError> {
        spec.validate().map_err(AuditError::Spec)?;
        if budget == 0 {
            return Err(AuditError::Spec(
                "streamed audit budget must be positive".to_string(),
            ));
        }
        // Single-threaded guess lanes; see the type docs for why and
        // for the budgets this was measured at.
        let attack = Attack::against(target.policy, target.warp_size)
            .with_seed(spec.attack_seed)
            .with_oracle(Arc::clone(&target.oracle))
            .with_threads(Some(1));
        let recovery = StreamingByteRecovery::new(&attack, spec.byte)?;
        let predictor = attack.predictor_for_guess(target.true_key_byte);
        let planned = even_checkpoints(budget, spec.checkpoints);
        Ok(StreamingAudit {
            target,
            spec,
            predictor,
            timing: StreamingChannelTest::new("timing"),
            stages: stage_names
                .iter()
                .map(|name| StreamingChannelTest::new(name))
                .collect(),
            recovery,
            hist: Hist64::new(),
            planned,
            next_checkpoint: 0,
            trajectory: Vec::new(),
        })
    }

    /// Samples audited so far.
    pub fn len(&self) -> usize {
        self.recovery.len()
    }

    /// Whether no sample has been audited yet.
    pub fn is_empty(&self) -> bool {
        self.recovery.is_empty()
    }

    /// Feeds the next chunk of the stream plus one value column per
    /// stage channel, each index-aligned with `samples`. The chunk is
    /// split internally at checkpoint boundaries so the recorded
    /// trajectory is independent of how the stream is chunked.
    ///
    /// # Errors
    ///
    /// [`AuditError::Spec`] when the number of columns differs from the
    /// number of stage channels or a column's length differs from the
    /// chunk's; nothing is consumed then.
    pub fn push_chunk(
        &mut self,
        samples: &[AttackSample],
        stages: &[&[f64]],
    ) -> Result<(), AuditError> {
        if stages.len() != self.stages.len() {
            return Err(AuditError::Spec(format!(
                "{} stage columns for {} stage channels",
                stages.len(),
                self.stages.len()
            )));
        }
        check_aligned(
            self.stages.iter().map(|s| s.name.as_str()),
            stages,
            samples.len(),
        )?;
        let true_byte = self.target.true_key_byte;
        let mut pos = 0;
        while pos < samples.len() {
            let consumed = self.recovery.len();
            let remaining = samples.len() - pos;
            let take = match self.planned.get(self.next_checkpoint) {
                Some(&boundary) if boundary > consumed => remaining.min(boundary - consumed),
                _ => remaining,
            };
            let sub = &samples[pos..pos + take];
            for (i, s) in sub.iter().enumerate() {
                let prediction = self
                    .predictor
                    .predict(&s.ciphertexts, self.spec.byte, true_byte);
                self.timing.push(prediction, s.time);
                for (ledger, column) in self.stages.iter_mut().zip(stages) {
                    ledger.push(prediction, column[pos + i]);
                }
                self.hist.record(s.time.max(0.0).round() as u64);
            }
            self.recovery.push_chunk(sub);
            pos += take;
            if self.planned.get(self.next_checkpoint) == Some(&self.recovery.len()) {
                self.record_checkpoint();
                self.next_checkpoint += 1;
            }
        }
        Ok(())
    }

    fn record_checkpoint(&mut self) {
        let true_byte = self.target.true_key_byte;
        self.trajectory.push(TrajectoryPoint {
            samples: self.recovery.len(),
            corr_true: self.recovery.correlation_of(true_byte),
            rank: self.recovery.snapshot().rank_of(true_byte),
        });
    }

    /// Closes the stream and produces the leakage verdict.
    ///
    /// # Errors
    ///
    /// [`AuditError::Attack`] ([`AttackError::NoSamples`]) when nothing
    /// was pushed.
    pub fn finish(mut self) -> Result<LeakageReport, AuditError> {
        let n = self.recovery.len();
        if n == 0 {
            return Err(AuditError::Attack(AttackError::NoSamples));
        }
        // Streams that fall short of the budget still close their
        // trajectory with the full-stream point.
        if self.trajectory.last().map(|p| p.samples) != Some(n) {
            self.record_checkpoint();
        }
        let timing = self.timing.finish(&self.spec);
        let stages = self.stages.iter().map(|s| s.finish(&self.spec)).collect();
        let empirical_rho = self.trajectory.last().map_or(0.0, |p| p.corr_true);
        let empirical_s = normalized_s(empirical_rho);
        let theory = theory_check(
            self.target.policy,
            self.target.warp_size,
            &self.spec,
            empirical_rho,
            n,
            self.target.theory_r,
        );
        let quantiles = ChannelQuantiles {
            count: self.hist.count(),
            mean: self.hist.mean(),
            p50: self.hist.p50().unwrap_or(0),
            p95: self.hist.p95().unwrap_or(0),
            p99: self.hist.p99().unwrap_or(0),
        };
        let leaky = timing.leaky;
        Ok(LeakageReport {
            policy: self.target.policy,
            warp_size: self.target.warp_size,
            byte: self.spec.byte,
            channel: self.spec.channel,
            samples: n,
            spec: self.spec,
            timing,
            stages,
            trajectory: self.trajectory,
            empirical_rho,
            empirical_s,
            theory,
            quantiles,
            leaky,
        })
    }
}

/// Checks that every stage column holds one value per sample.
fn check_aligned<'a>(
    names: impl Iterator<Item = &'a str>,
    columns: &[&[f64]],
    samples: usize,
) -> Result<(), AuditError> {
    for (name, column) in names.zip(columns) {
        if column.len() != samples {
            return Err(AuditError::Spec(format!(
                "stage channel '{name}' has {} values for {samples} samples",
                column.len()
            )));
        }
    }
    Ok(())
}

/// Audits an in-memory sample stream for `target` (see
/// [`AuditTarget`]), plus index-aligned stage channels: validates the
/// inputs, pushes the whole stream through one [`StreamingAudit`], and
/// finishes it.
///
/// # Errors
///
/// [`AuditError::Spec`] for an invalid spec or a stage channel whose
/// length differs from the stream's; [`AuditError::Attack`] when the
/// stream is empty or the byte index is out of range for the target's
/// oracle.
pub fn audit_target_with_stages(
    target: &AuditTarget,
    samples: &[AttackSample],
    stages: &[StageChannel],
    spec: &AuditSpec,
) -> Result<LeakageReport, AuditError> {
    spec.validate().map_err(AuditError::Spec)?;
    if samples.is_empty() {
        return Err(AuditError::Attack(AttackError::NoSamples));
    }
    let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
    let columns: Vec<&[f64]> = stages.iter().map(|s| s.values.as_slice()).collect();
    check_aligned(names.iter().copied(), &columns, samples.len())?;
    let mut audit =
        StreamingAudit::with_stages(target.clone(), spec.clone(), samples.len(), &names)?;
    audit.push_chunk(samples, &columns)?;
    audit.finish()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stats::{binned_mi, welch_t_test, WelchT};
    use rcoal_core::CoalescingPolicy;

    /// Synthetic sample stream where the channel value IS the access
    /// count the baseline predictor computes for the true byte: the
    /// attacker's model matches reality exactly, so ρ̂ = 1.
    pub(crate) fn perfect_leak_samples(n: usize) -> (Vec<AttackSample>, u8) {
        let true_byte = 0x3c;
        let attack =
            Attack::against(CoalescingPolicy::Baseline, 32).with_seed(AuditSpec::new().attack_seed);
        let mut predictor = attack.predictor_for_guess(true_byte);
        let samples = (0..n)
            .map(|i| {
                let ct: Vec<[u8; 16]> = (0..32usize)
                    .map(|lane| {
                        let mut b = [0u8; 16];
                        b.iter_mut().enumerate().for_each(|(k, x)| {
                            *x = (i * 31 + lane * 7 + k * 13) as u8;
                        });
                        b
                    })
                    .collect();
                let time = predictor.predict(&ct, 0, true_byte);
                AttackSample {
                    ciphertexts: Arc::new(ct),
                    time,
                }
            })
            .collect();
        (samples, true_byte)
    }

    /// Audits `samples` as the paper's AES target under the baseline
    /// policy.
    pub(crate) fn audit_baseline(
        samples: &[AttackSample],
        true_byte: u8,
        stages: &[StageChannel],
        spec: &AuditSpec,
    ) -> Result<LeakageReport, AuditError> {
        let target = AuditTarget::aes(CoalescingPolicy::Baseline, 32, true_byte);
        audit_target_with_stages(&target, samples, stages, spec)
    }

    /// The reference TVLA partition, computed over the raw stream: the
    /// `(n - 1) / 2`-th sorted prediction splits the classes, with ties
    /// going high when the strict high class has fewer than two members.
    fn median_split_welch(preds: &[f64], vals: &[f64]) -> WelchT {
        let mut sorted = preds.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[(sorted.len() - 1) / 2];
        let strict = preds.iter().filter(|&&p| p > median).count() >= 2;
        let (mut low, mut high) = (Vec::new(), Vec::new());
        for (&p, &v) in preds.iter().zip(vals) {
            if p > median || (!strict && p >= median) {
                high.push(v);
            } else {
                low.push(v);
            }
        }
        welch_t_test(&low, &high)
    }

    fn assert_welch_close(streamed: &WelchT, reference: &WelchT) {
        assert_eq!(streamed.n_low, reference.n_low);
        assert_eq!(streamed.n_high, reference.n_high);
        assert!(
            (streamed.t - reference.t).abs() < 1e-9,
            "streamed t {} vs reference {}",
            streamed.t,
            reference.t
        );
    }

    #[test]
    fn ledger_mi_is_bit_identical_to_batch() {
        // Discrete values including negatives and repeats.
        let preds: Vec<f64> = (0..500).map(|i| f64::from(i % 7) - 3.0).collect();
        let vals: Vec<f64> = (0..500).map(|i| f64::from((i * i) % 11) * 0.5).collect();
        let mut ledger = StreamingChannelTest::new("synthetic");
        for (&p, &v) in preds.iter().zip(&vals) {
            ledger.push(p, v);
        }
        for bins in [2, 8, 16] {
            let streamed = ledger.mi(bins);
            let batch = binned_mi(&preds, &vals, bins);
            assert_eq!(streamed, batch, "bins {bins}");
        }
    }

    #[test]
    fn ledger_welch_matches_batch_partition() {
        let preds: Vec<f64> = (0..300).map(|i| f64::from(i % 9)).collect();
        let vals: Vec<f64> = (0..300)
            .map(|i| f64::from(i % 9) * 2.0 + f64::from(i % 5))
            .collect();
        let mut ledger = StreamingChannelTest::new("synthetic");
        for (&p, &v) in preds.iter().zip(&vals) {
            ledger.push(p, v);
        }
        let batch = median_split_welch(&preds, &vals);
        let streamed = ledger.welch();
        assert_welch_close(&streamed, &batch);
        assert!((streamed.mean_low - batch.mean_low).abs() < 1e-12);
        assert!((streamed.mean_high - batch.mean_high).abs() < 1e-12);
        assert!((streamed.dof - batch.dof).abs() < 1e-6);
    }

    #[test]
    fn ledger_memory_tracks_distinct_pairs_not_stream_length() {
        let mut ledger = StreamingChannelTest::new("discrete");
        for i in 0..10_000usize {
            ledger.push(f64::from(i as u32 % 8), f64::from(i as u32 % 5));
        }
        assert_eq!(ledger.observations(), 10_000);
        assert!(
            ledger.distinct_pairs() <= 40,
            "8 x 5 value grid, got {}",
            ledger.distinct_pairs()
        );
    }

    #[test]
    fn streamed_audit_matches_independent_references() {
        let (mut samples, true_byte) = perfect_leak_samples(200);
        // Key-independent jitter keeps every correlation off ±1.
        for (i, s) in samples.iter_mut().enumerate() {
            s.time += ((i * 7919) % 13) as f64;
        }
        let spec = AuditSpec::new();
        let target = AuditTarget::aes(CoalescingPolicy::Baseline, 32, true_byte);
        let attack = Attack::against(target.policy, target.warp_size).with_seed(spec.attack_seed);
        let mut predictor = attack.predictor_for_guess(true_byte);
        let preds: Vec<f64> = samples
            .iter()
            .map(|s| predictor.predict(&s.ciphertexts, spec.byte, true_byte))
            .collect();
        let times: Vec<f64> = samples.iter().map(|s| s.time).collect();

        let whole = audit_target_with_stages(&target, &samples, &[], &spec).unwrap();
        assert_eq!(whole.samples, 200);
        assert_eq!(whole.timing.mi, binned_mi(&preds, &times, spec.mi_bins));
        assert_welch_close(&whole.timing.welch, &median_split_welch(&preds, &times));
        let mut hist = Hist64::new();
        for &t in &times {
            hist.record(t.round() as u64);
        }
        assert_eq!(whole.quantiles.count, hist.count());
        assert_eq!(whole.quantiles.mean, hist.mean());
        assert_eq!(whole.quantiles.p95, hist.p95().unwrap());
        // The trajectory against the two-pass reference on each prefix.
        let counts: Vec<usize> = whole.trajectory.iter().map(|p| p.samples).collect();
        assert_eq!(counts, even_checkpoints(200, spec.checkpoints));
        for point in &whole.trajectory {
            let batch = attack.recover_byte(&samples[..point.samples], 0).unwrap();
            let want = batch.correlation_of(true_byte);
            assert!(
                (point.corr_true - want).abs() < 1e-9,
                "n = {}: {} vs {want}",
                point.samples,
                point.corr_true
            );
            assert_eq!(
                point.rank,
                batch.rank_of(true_byte),
                "n = {}",
                point.samples
            );
        }
        assert_eq!(
            Some(whole.empirical_rho),
            whole.trajectory.last().map(|p| p.corr_true)
        );
        // The whole report, Welch t included, is chunk-size invariant.
        for chunk in [1usize, 7, 64] {
            let mut audit = StreamingAudit::new(target.clone(), spec.clone(), 200).unwrap();
            for c in samples.chunks(chunk) {
                audit.push_chunk(c, &[]).unwrap();
            }
            assert_eq!(audit.finish().unwrap(), whole, "chunk {chunk}");
        }
    }

    #[test]
    fn perfectly_leaky_stream_is_flagged() {
        let (samples, true_byte) = perfect_leak_samples(256);
        let report = audit_baseline(&samples, true_byte, &[], &AuditSpec::new()).unwrap();
        assert!(report.leaky, "timing t = {}", report.timing.welch.t);
        assert!(report.timing.welch.exceeds(4.5));
        assert!(report.timing.mi.corrected_bits > 0.05);
        assert!(
            (report.empirical_rho - 1.0).abs() < 1e-9,
            "rho = {}",
            report.empirical_rho
        );
        let theory = report.theory.expect("baseline has a closed form");
        assert_eq!(theory.mechanism, "FSS");
        assert_eq!(theory.m, 1);
        assert!((theory.predicted_s - 1.0).abs() < 1e-12);
        assert!(theory.ok, "rho-hat 1.0 vs predicted 1.0");
    }

    #[test]
    fn constant_channel_is_not_flagged() {
        let (mut samples, true_byte) = perfect_leak_samples(128);
        for s in &mut samples {
            s.time = 42.0;
        }
        let report = audit_baseline(&samples, true_byte, &[], &AuditSpec::new()).unwrap();
        assert!(!report.leaky);
        assert_eq!(report.timing.welch.t, 0.0);
        assert_eq!(report.timing.mi.corrected_bits, 0.0);
        assert_eq!(report.empirical_rho, 0.0, "constant channel, no signal");
        assert!(report.empirical_s.is_infinite());
        assert_eq!(report.quantiles.p50, 42);
        assert_eq!(report.quantiles.p99, 42);
    }

    #[test]
    fn stage_channels_are_tested_alongside_timing() {
        let (samples, true_byte) = perfect_leak_samples(128);
        // One stage mirrors the leak, one is constant.
        let leak = StageChannel {
            name: "mirror".into(),
            values: samples.iter().map(|s| s.time * 3.0 + 1.0).collect(),
        };
        let flat = StageChannel {
            name: "flat".into(),
            values: vec![7.0; samples.len()],
        };
        let report = audit_baseline(&samples, true_byte, &[leak, flat], &AuditSpec::new()).unwrap();
        assert_eq!(report.stages.len(), 2);
        assert_eq!(report.stages[0].name, "mirror");
        assert!(report.stages[0].leaky, "mirrored stage flags");
        assert!(!report.stages[1].leaky, "constant stage is silent");
    }

    #[test]
    fn short_stream_closes_its_trajectory() {
        let (samples, true_byte) = perfect_leak_samples(30);
        let mut audit = StreamingAudit::new(
            AuditTarget::aes(CoalescingPolicy::Baseline, 32, true_byte),
            AuditSpec::new(),
            1000,
        )
        .unwrap();
        audit.push_chunk(&samples, &[]).unwrap();
        let report = audit.finish().unwrap();
        assert_eq!(report.samples, 30);
        assert_eq!(report.trajectory.last().unwrap().samples, 30);
        assert!(report.leaky, "the perfect leak still flags at n = 30");
    }

    #[test]
    fn empty_and_invalid_audits_are_typed_errors() {
        let target = AuditTarget::aes(CoalescingPolicy::Baseline, 32, 1);
        let err = StreamingAudit::new(target.clone(), AuditSpec::new(), 0).unwrap_err();
        assert!(matches!(err, AuditError::Spec(_)), "{err}");
        let err =
            StreamingAudit::new(target.clone(), AuditSpec::new().with_byte(16), 10).unwrap_err();
        assert!(matches!(err, AuditError::Spec(_)), "{err}");
        let audit = StreamingAudit::new(target.clone(), AuditSpec::new(), 10).unwrap();
        assert!(audit.is_empty());
        let err = audit.finish().unwrap_err();
        assert!(matches!(err, AuditError::Attack(AttackError::NoSamples)));

        let err = audit_target_with_stages(&target, &[], &[], &AuditSpec::new()).unwrap_err();
        assert!(matches!(err, AuditError::Attack(AttackError::NoSamples)));
        let (samples, tb) = perfect_leak_samples(8);
        let spec = AuditSpec::new().with_byte(16);
        let err = audit_baseline(&samples, tb, &[], &spec).unwrap_err();
        assert!(matches!(err, AuditError::Spec(_)), "{err}");
        let short = StageChannel {
            name: "short".into(),
            values: vec![1.0; 3],
        };
        let err = audit_baseline(&samples, tb, &[short], &AuditSpec::new()).unwrap_err();
        assert!(matches!(err, AuditError::Spec(_)), "{err}");
        assert!(err.to_string().contains("short"), "{err}");
    }

    #[test]
    fn misaligned_stage_columns_are_rejected_before_consuming() {
        let (samples, tb) = perfect_leak_samples(8);
        let target = AuditTarget::aes(CoalescingPolicy::Baseline, 32, tb);
        let mut audit =
            StreamingAudit::with_stages(target, AuditSpec::new(), 8, &["stage"]).unwrap();
        let err = audit.push_chunk(&samples, &[]).unwrap_err();
        assert!(err.to_string().contains("1 stage channels"), "{err}");
        let err = audit.push_chunk(&samples, &[&[0.0; 7]]).unwrap_err();
        assert!(err.to_string().contains("'stage' has 7 values"), "{err}");
        assert!(audit.is_empty(), "a rejected chunk is not consumed");
        audit.push_chunk(&samples, &[&[0.0; 8]]).unwrap();
        let report = audit.finish().unwrap();
        assert_eq!(
            report.stages[0].mi.n, 8,
            "every stage value reached its ledger"
        );
    }
}
