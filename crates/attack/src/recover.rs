use crate::error::AttackError;
use crate::oracle::{aes_oracle, TableOracle, MAX_BLOCKS};
use crate::predict::{AccessPredictor, SharedModel};
use crate::stats::{argmax, pearson};
use rcoal_aes::Block;
use rcoal_core::CoalescingPolicy;
use rcoal_parallel::{parallel_map, resolve_threads};
use rcoal_telemetry::MetricsRegistry;
use std::sync::Arc;

/// One observation the attacker collected from the encryption server:
/// the ciphertext lines of one plaintext and its (last-round) execution
/// time.
///
/// The ciphertext lines are shared via [`Arc`]: one launch's ciphertexts
/// are referenced by the timing sample, the functional sample, and every
/// noise-perturbed copy, so cloning a sample never deep-copies blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackSample {
    /// Ciphertext lines in line order.
    pub ciphertexts: Arc<Vec<Block>>,
    /// The timing measurement the attacker correlates against (the paper
    /// grants the attacker the clean last-round time; see §II-C).
    pub time: f64,
}

/// Result of attacking one key byte: the correlation of every guess.
#[derive(Debug, Clone, PartialEq)]
pub struct ByteRecovery {
    /// `correlations[m]` is the Pearson correlation of guess `m`.
    pub correlations: Vec<f64>,
    /// The winning guess (argmax of the correlations).
    pub best_guess: u8,
}

impl ByteRecovery {
    /// Correlation achieved by guess `m`.
    pub fn correlation_of(&self, m: u8) -> f64 {
        self.correlations[usize::from(m)]
    }

    /// Rank of guess `m` among all 256 (0 = highest correlation). The
    /// paper's scatter plots are exactly this data; a defense is working
    /// when the correct byte's rank is large.
    pub fn rank_of(&self, m: u8) -> usize {
        let mine = self.correlations[usize::from(m)];
        self.correlations.iter().filter(|&&c| c > mine).count()
    }
}

/// Result of attacking every subkey byte the workload exposes (16 for
/// the AES last round; 8 for the whitening ciphers).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRecovery {
    /// Per-byte recovery detail, indexed by byte position `j`.
    pub bytes: Vec<ByteRecovery>,
}

impl KeyRecovery {
    /// The attacker's best guess for the attacked subkey, zero-padded
    /// past the workload's byte count.
    pub fn recovered_key(&self) -> [u8; 16] {
        let mut k = [0u8; 16];
        for (j, b) in self.bytes.iter().enumerate().take(16) {
            k[j] = b.best_guess;
        }
        k
    }

    /// Scores the recovery against the true subkey (only the attacked
    /// prefix of `true_key` is consulted).
    pub fn outcome(&self, true_key: &[u8; 16]) -> RecoveryOutcome {
        let n = self.bytes.len().max(1) as f64;
        let num_correct = self
            .bytes
            .iter()
            .zip(true_key)
            .filter(|(b, &k)| b.best_guess == k)
            .count();
        let avg_correct_correlation = self
            .bytes
            .iter()
            .zip(true_key)
            .map(|(b, &k)| b.correlation_of(k))
            .sum::<f64>()
            / n;
        let avg_rank = self
            .bytes
            .iter()
            .zip(true_key)
            .map(|(b, &k)| b.rank_of(k))
            .sum::<usize>() as f64
            / n;
        RecoveryOutcome {
            bytes_attacked: self.bytes.len(),
            num_correct,
            avg_correct_correlation,
            avg_rank_of_correct: avg_rank,
        }
    }
}

/// Summary of a key-recovery attempt relative to the true key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryOutcome {
    /// Subkey bytes the attack swept (16 for AES).
    pub bytes_attacked: usize,
    /// Key bytes whose argmax-correlation guess was the true byte
    /// (`bytes_attacked` = complete break).
    pub num_correct: usize,
    /// Mean over the attacked byte positions of the *correct* guess's
    /// correlation — the paper's Figures 7b, 15 and 18a metric.
    pub avg_correct_correlation: f64,
    /// Mean rank of the correct guess among the 256 (0 = always wins).
    pub avg_rank_of_correct: f64,
}

impl RecoveryOutcome {
    /// Whether every attacked byte was recovered.
    pub fn complete(&self) -> bool {
        self.num_correct == self.bytes_attacked
    }
}

/// A correlation timing attack parameterized by the attacker's model of
/// the victim's coalescing policy.
///
/// The attack holds no sample state; call [`Attack::recover_key`] (or the
/// per-byte variants) with the collected [`AttackSample`]s.
#[derive(Debug, Clone)]
pub struct Attack {
    policy: CoalescingPolicy,
    warp_size: usize,
    seed: u64,
    mc_samples: usize,
    threads: Option<usize>,
    metrics: Option<MetricsRegistry>,
    /// The oracle's guess table (and hoisted deterministic masks),
    /// shared by every predictor this attack hands out.
    model: Arc<SharedModel>,
}

impl Attack {
    /// The baseline attack of Jiang et al.: the attacker assumes stock
    /// coalescing (one subwarp per warp).
    pub fn baseline(warp_size: usize) -> Self {
        Self::against(CoalescingPolicy::Baseline, warp_size)
    }

    /// The corresponding attack against a known defense (§IV-E): the
    /// attacker mirrors `policy` when predicting access counts.
    pub fn against(policy: CoalescingPolicy, warp_size: usize) -> Self {
        Attack {
            policy,
            warp_size,
            seed: 0x5eed,
            mc_samples: 1,
            threads: None,
            metrics: None,
            model: Arc::new(SharedModel::new(aes_oracle(), policy, warp_size.max(1))),
        }
    }

    /// Replaces the table oracle (AES-128 last round by default); the
    /// oracle also bounds the attacked byte range.
    pub fn with_oracle(mut self, oracle: Arc<dyn TableOracle>) -> Self {
        self.model = Arc::new(SharedModel::new(oracle, self.policy, self.warp_size.max(1)));
        self
    }

    /// Number of subkey bytes this attack sweeps.
    pub fn key_bytes(&self) -> usize {
        self.model.oracle().key_bytes()
    }

    /// Checks the limits of the predictor's bit masks: a warp of at most
    /// 64 lanes and an oracle of at most 64 blocks. Every recovery entry
    /// point runs this first.
    pub(crate) fn check_limits(&self) -> Result<(), AttackError> {
        if self.warp_size > rcoal_core::MAX_WARP_LANES {
            return Err(AttackError::WarpTooWide {
                warp_size: self.warp_size,
            });
        }
        let blocks = self.model.oracle().block_count();
        if blocks > MAX_BLOCKS {
            return Err(AttackError::TooManyBlocks { blocks });
        }
        Ok(())
    }

    /// Sets the attacker-side randomness seed (RSS/RTS replays).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Averages predictions over `n` Monte-Carlo replays of the defense's
    /// randomness.
    pub fn with_mc_samples(mut self, n: usize) -> Self {
        self.mc_samples = n.max(1);
        self
    }

    /// Sets the worker-thread count for the 256-guess correlation sweep
    /// (`None` defers to `RCOAL_THREADS` / the machine's parallelism).
    /// Every guess has an independent predictor seed, so the result is
    /// bit-identical at any thread count.
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Attaches a host-domain metrics sink. Byte sweeps then record
    /// `span.attack.byte.*` wall-clock spans, an `attack.guesses`
    /// progress counter (one tick per guess correlated, live from any
    /// worker thread), `attack.samples_correlated`, and an
    /// `attack.correlations_per_sec` throughput gauge. Metrics never
    /// influence the recovery itself — results stay bit-identical with
    /// and without a sink.
    pub fn with_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.metrics = Some(registry.clone());
        self
    }

    /// The mirrored policy.
    pub fn policy(&self) -> CoalescingPolicy {
        self.policy
    }

    /// The configured worker-thread override (for the streaming engine,
    /// which parallelizes per guess exactly like the materialized sweep).
    pub(crate) fn threads_option(&self) -> Option<usize> {
        self.threads
    }

    /// The attached metrics sink, if any.
    pub(crate) fn metrics_ref(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_ref()
    }

    /// The predictor this attack uses for guess `m` (each guess gets an
    /// independent replay seed so randomized-policy replays do not share
    /// a stream across guesses).
    pub fn predictor_for_guess(&self, m: u8) -> AccessPredictor {
        AccessPredictor::with_model(
            self.policy,
            self.warp_size,
            self.seed ^ u64::from(m),
            Arc::clone(&self.model),
        )
        .with_mc_samples(self.mc_samples)
    }

    /// Computes the correlation of every guess for key byte `j`.
    ///
    /// # Errors
    ///
    /// [`AttackError::ByteIndex`] for `j >= 16`,
    /// [`AttackError::NoSamples`] for an empty sample set,
    /// [`AttackError::WarpTooWide`] for a warp wider than 64 lanes, and
    /// [`AttackError::TooManyBlocks`] for an oracle of more than 64
    /// blocks.
    pub fn correlations_for_byte(
        &self,
        samples: &[AttackSample],
        j: usize,
    ) -> Result<Vec<f64>, AttackError> {
        self.check_limits()?;
        if j >= self.key_bytes() {
            return Err(AttackError::ByteIndex { j });
        }
        if samples.is_empty() {
            return Err(AttackError::NoSamples);
        }
        let times: Vec<f64> = samples.iter().map(|s| s.time).collect();
        let span = self.metrics.as_ref().map(|m| m.span("attack.byte"));
        // Resolve the progress counter once; its clone-free atomic handle
        // is safe to tick from every worker thread.
        let guess_counter = self.metrics.as_ref().map(|m| m.counter("attack.guesses"));
        // Hoist the byte-`j` ciphertext columns out of the sweep: every
        // guess reads the same column, so extracting them per guess
        // would redo `256 × samples × lines` block indexing. Together
        // with the shared guess table this memoizes everything about a
        // plaintext that the 256 guesses share.
        let columns: Vec<Vec<u8>> = samples
            .iter()
            .map(|s| s.ciphertexts.iter().map(|ct| ct[j]).collect())
            .collect();
        // Each guess derives its predictor seed from the guess value, so
        // the 256 correlation computations are independent and sweep in
        // parallel with bit-identical results.
        let guesses: Vec<u8> = (0..=255u8).collect();
        let correlations = parallel_map(resolve_threads(self.threads), &guesses, |_, &m| {
            let mut predictor = self.predictor_for_guess(m);
            let predicted: Vec<f64> = columns
                .iter()
                .map(|col| predictor.predict_bytes(col, m))
                .collect();
            let r = pearson(&predicted, &times);
            if let Some(c) = &guess_counter {
                c.inc();
            }
            r
        });
        if let (Some(span), Some(metrics)) = (span, &self.metrics) {
            let elapsed = span.finish();
            metrics
                .counter("attack.samples_correlated")
                .add(guesses.len() as u64 * samples.len() as u64);
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 {
                metrics
                    .gauge("attack.correlations_per_sec")
                    .set((guesses.len() as f64 / secs) as u64);
            }
        }
        Ok(correlations)
    }

    /// Attacks key byte `j`.
    ///
    /// # Errors
    ///
    /// Same as [`Attack::correlations_for_byte`].
    pub fn recover_byte(
        &self,
        samples: &[AttackSample],
        j: usize,
    ) -> Result<ByteRecovery, AttackError> {
        let correlations = self.correlations_for_byte(samples, j)?;
        let best_guess = argmax(&correlations).unwrap_or(0) as u8;
        Ok(ByteRecovery {
            correlations,
            best_guess,
        })
    }

    /// Attacks every subkey byte the oracle exposes (16 for AES).
    ///
    /// # Errors
    ///
    /// [`AttackError::NoSamples`] for an empty sample set, and the limit
    /// errors of [`Attack::correlations_for_byte`].
    pub fn recover_key(&self, samples: &[AttackSample]) -> Result<KeyRecovery, AttackError> {
        let span = self.metrics.as_ref().map(|m| m.span("attack.recover_key"));
        let bytes = (0..self.key_bytes())
            .map(|j| self.recover_byte(samples, j))
            .collect::<Result<Vec<_>, _>>()?;
        if let Some(span) = span {
            span.finish();
        }
        Ok(KeyRecovery { bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_aes::{last_round_index, Aes128};

    /// Builds noise-free samples whose "time" is the true baseline
    /// coalesced-access count summed over the byte positions in `bytes` —
    /// all 16 models the last-round time; a single byte isolates that
    /// byte's channel for fast deterministic tests.
    fn synthetic_samples_for(
        n: usize,
        key: &[u8; 16],
        bytes: &[usize],
    ) -> (Vec<AttackSample>, [u8; 16]) {
        let aes = Aes128::new(key);
        let k10 = aes.last_round_key();
        let samples = (0..n)
            .map(|i| {
                let cts: Vec<Block> = (0..32)
                    .map(|line| {
                        let mut pt = [0u8; 16];
                        for (b, x) in pt.iter_mut().enumerate() {
                            *x = (i * 131 + line * 17 + b * 29) as u8
                                ^ (i as u8)
                                ^ (line as u8).rotate_left(3);
                        }
                        aes.encrypt_block(pt)
                    })
                    .collect();
                // True number of baseline last-round accesses over the
                // requested byte positions.
                let mut time = 0.0;
                for &j in bytes {
                    let mut blocks: Vec<u8> = cts
                        .iter()
                        .map(|ct| last_round_index(ct[j], k10[j]) >> 4)
                        .collect();
                    blocks.sort_unstable();
                    blocks.dedup();
                    time += blocks.len() as f64;
                }
                AttackSample {
                    ciphertexts: Arc::new(cts),
                    time,
                }
            })
            .collect();
        (samples, k10)
    }

    #[test]
    fn baseline_attack_recovers_byte_zero_from_its_clean_channel() {
        // Time carries only byte 0's access count: the correlation of the
        // correct guess is near 1 and recovery is immediate.
        let (samples, k10) = synthetic_samples_for(80, b"attack test key!", &[0]);
        let attack = Attack::baseline(32);
        let rec = attack.recover_byte(&samples, 0).unwrap();
        assert_eq!(rec.best_guess, k10[0]);
        assert_eq!(rec.rank_of(k10[0]), 0);
        assert!(rec.correlation_of(k10[0]) > 0.95);
    }

    #[test]
    fn baseline_attack_ranks_correct_byte_highly_under_full_time() {
        // With all 16 bytes contributing, each byte's share of the time
        // variance is ~1/16, so at small N the correct guess may not be
        // the absolute argmax (the paper needs its low-noise simulator for
        // that) — but it must already rank far above the median guess.
        let (samples, k10) =
            synthetic_samples_for(200, b"attack test key!", &(0..16).collect::<Vec<_>>());
        let attack = Attack::baseline(32);
        let rec = attack.recover_byte(&samples, 0).unwrap();
        assert!(
            rec.rank_of(k10[0]) < 16,
            "correct byte ranked {} of 256",
            rec.rank_of(k10[0])
        );
        assert!(rec.correlation_of(k10[0]) > 0.1);
    }

    #[test]
    fn baseline_attack_recovers_two_target_bytes() {
        let (samples, k10) = synthetic_samples_for(80, b"attack test key!", &[3, 7]);
        let attack = Attack::baseline(32);
        for j in [3usize, 7] {
            let rec = attack.recover_byte(&samples, j).unwrap();
            assert_eq!(rec.best_guess, k10[j], "byte {j}");
        }
        // An untargeted byte's channel is absent: its correct guess holds
        // no special rank.
        let rec = attack.recover_byte(&samples, 11).unwrap();
        assert!(rec.correlation_of(k10[11]).abs() < 0.4);
    }

    #[test]
    fn constant_time_defeats_the_attack() {
        let (mut samples, k10) = synthetic_samples_for(100, b"attack test key!", &[0]);
        for s in &mut samples {
            s.time = 512.0; // e.g. coalescing disabled: always 32 × 16
        }
        let attack = Attack::baseline(32);
        let rec = attack.recover_byte(&samples, 0).unwrap();
        assert_eq!(rec.correlation_of(k10[0]), 0.0);
        assert!(rec.correlations.iter().all(|&c| c == 0.0));
    }

    #[test]
    fn rank_counts_strictly_better_guesses() {
        let br = ByteRecovery {
            correlations: vec![0.1, 0.9, 0.5, 0.9],
            best_guess: 1,
        };
        assert_eq!(br.rank_of(1), 0);
        assert_eq!(br.rank_of(3), 0, "ties don't worsen rank");
        assert_eq!(br.rank_of(2), 2);
        assert_eq!(br.rank_of(0), 3);
    }

    #[test]
    fn outcome_aggregates() {
        let (samples, k10) = synthetic_samples_for(60, b"attack test key!", &[0, 1]);
        let rec = Attack::baseline(32).recover_key(&samples).unwrap();
        let o = rec.outcome(&k10);
        assert!(o.num_correct >= 2, "bytes 0 and 1 carry clean channels");
        assert_eq!(rec.bytes[0].rank_of(k10[0]), 0);
        assert_eq!(rec.bytes[1].rank_of(k10[1]), 0);
        assert!(o.avg_correct_correlation > 0.0);
        // 14 untargeted bytes rank randomly (mean 127.5), two rank 0.
        assert!(o.avg_rank_of_correct < 220.0);
        assert!(!o.complete() || o.num_correct == 16);
        assert_eq!(rec.recovered_key()[0], rec.bytes[0].best_guess);
    }

    #[test]
    fn metrics_track_progress_without_changing_results() {
        let (samples, _) = synthetic_samples_for(20, b"attack test key!", &[0]);
        let plain = Attack::baseline(32).recover_byte(&samples, 0).unwrap();
        let registry = MetricsRegistry::new();
        let metered = Attack::baseline(32)
            .with_metrics(&registry)
            .recover_byte(&samples, 0)
            .unwrap();
        assert_eq!(metered, plain, "metrics must not perturb the recovery");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["attack.guesses"], 256);
        assert_eq!(snap.counters["attack.samples_correlated"], 256 * 20);
        assert_eq!(snap.counters["span.attack.byte.calls"], 1);
    }

    #[test]
    fn recover_key_records_its_span() {
        let (samples, _) = synthetic_samples_for(10, b"attack test key!", &[0]);
        let registry = MetricsRegistry::new();
        Attack::baseline(32)
            .with_metrics(&registry)
            .recover_key(&samples)
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["span.attack.recover_key.calls"], 1);
        assert_eq!(snap.counters["span.attack.byte.calls"], 16);
        assert_eq!(snap.counters["attack.guesses"], 16 * 256);
    }

    #[test]
    fn byte_index_and_empty_samples_are_typed_errors() {
        let attack = Attack::baseline(32);
        assert_eq!(
            attack.correlations_for_byte(&[], 16).unwrap_err(),
            crate::AttackError::ByteIndex { j: 16 }
        );
        assert_eq!(
            attack.recover_byte(&[], 0).unwrap_err(),
            crate::AttackError::NoSamples
        );
        assert_eq!(
            attack.recover_key(&[]).unwrap_err(),
            crate::AttackError::NoSamples
        );
    }
}
