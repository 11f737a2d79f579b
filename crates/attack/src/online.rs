//! Incremental (streaming) correlation attack: evaluate the recovery
//! state after every prefix of the sample stream without recomputing
//! predictions — each (guess, sample) prediction is made exactly once.
//!
//! This is how a real attacker operates ("collect until the argmax
//! stabilizes") and it makes sample-cost sweeps like the Table II
//! validation linear instead of quadratic.
//!
//! The per-guess correlation state is a [`PearsonAccumulator`] —
//! Welford-style centered moments, shared with the chunked engine in
//! [`crate::stream`] — replacing the raw `Σx, Σx², Σxy` sums this module
//! originally kept, whose final subtraction catastrophically cancels
//! when the means dominate the variances.

use crate::error::AttackError;
use crate::predict::AccessPredictor;
use crate::recover::{Attack, AttackSample, ByteRecovery};
use crate::stream::PearsonAccumulator;

/// Streaming per-byte recovery: maintains, for each of the 256 guesses,
/// a centered-moment Pearson accumulator against the timing stream.
#[derive(Debug, Clone)]
pub struct OnlineByteRecovery {
    predictors: Vec<AccessPredictor>,
    accumulators: Vec<PearsonAccumulator>,
    byte: usize,
    n: usize,
}

impl OnlineByteRecovery {
    /// Starts a streaming recovery of key byte `byte` using `attack`'s
    /// mirrored policy for predictions.
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
        let predictors = (0..=255u8).map(|m| attack.predictor_for_guess(m)).collect();
        Ok(OnlineByteRecovery {
            predictors,
            accumulators: vec![PearsonAccumulator::new(); 256],
            byte,
            n: 0,
        })
    }

    /// Feeds one observed sample.
    pub fn push(&mut self, sample: &AttackSample) {
        self.n += 1;
        for (m, (predictor, acc)) in self
            .predictors
            .iter_mut()
            .zip(&mut self.accumulators)
            .enumerate()
        {
            let x = predictor.predict(&sample.ciphertexts, self.byte, m as u8);
            acc.push(x, sample.time);
        }
    }

    /// Samples consumed so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether no samples have been consumed.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Current correlation of guess `m` (0.0 while degenerate).
    pub fn correlation_of(&self, m: u8) -> f64 {
        self.accumulators[usize::from(m)].correlation()
    }

    /// Snapshot of the full recovery state.
    pub fn snapshot(&self) -> ByteRecovery {
        let correlations: Vec<f64> = self.accumulators.iter().map(|a| a.correlation()).collect();
        ByteRecovery {
            correlations,
            best_guess: self.best_guess(),
        }
    }

    /// The guess currently leading — an O(1)-space scan over the
    /// accumulators (first maximum wins, matching
    /// [`crate::stats::argmax`]); no snapshot is allocated.
    pub fn best_guess(&self) -> u8 {
        let mut best = 0usize;
        let mut best_r = f64::NEG_INFINITY;
        for (i, acc) in self.accumulators.iter().enumerate() {
            let r = acc.correlation();
            if r > best_r {
                best_r = r;
                best = i;
            }
        }
        best as u8
    }
}

/// Evenly spaced checkpoint sample counts for a stream of `n` samples:
/// `count` targets at `n·i/count`, deduplicated and with zero dropped,
/// always ending exactly at `n` (empty for `n == 0`).
///
/// This is the one place clamped/duplicate checkpoint handling lives;
/// [`recovery_curve`] and the audit layer's trajectory construction both
/// defer to it.
pub fn even_checkpoints(n: usize, count: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    for i in 1..=count {
        let cp = n * i / count.max(1);
        if cp > 0 && out.last() != Some(&cp) {
            out.push(cp);
        }
    }
    out
}

/// Runs a streaming recovery over `samples`, snapshotting at each of the
/// (ascending) `checkpoints`; checkpoint values beyond the stream length
/// are clamped to the end, and checkpoints that clamp or repeat onto an
/// already-snapshotted prefix are skipped (each returned sample count
/// appears once).
///
/// # Errors
///
/// [`AttackError::ByteIndex`] for `byte >= attack.key_bytes()`.
pub fn recovery_curve(
    attack: &Attack,
    samples: &[AttackSample],
    byte: usize,
    checkpoints: &[usize],
) -> Result<Vec<(usize, ByteRecovery)>, AttackError> {
    let mut online = OnlineByteRecovery::new(attack, byte)?;
    let mut out: Vec<(usize, ByteRecovery)> = Vec::with_capacity(checkpoints.len());
    let mut fed = 0;
    for &cp in checkpoints {
        let target = cp.min(samples.len());
        if out.last().map(|(t, _)| *t) == Some(target) {
            continue;
        }
        while fed < target {
            online.push(&samples[fed]);
            fed += 1;
        }
        out.push((target, online.snapshot()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::Attack;
    use rcoal_aes::{last_round_index, Aes128, Block};

    fn samples(n: usize) -> (Vec<AttackSample>, [u8; 16]) {
        let aes = Aes128::new(b"streaming key!!!");
        let k10 = aes.last_round_key();
        let out = (0..n)
            .map(|i| {
                let cts: Vec<Block> = (0..32)
                    .map(|l| {
                        let mut pt = [0u8; 16];
                        for (b, x) in pt.iter_mut().enumerate() {
                            *x = (i * 101 + l * 13 + b * 41) as u8;
                        }
                        aes.encrypt_block(pt)
                    })
                    .collect();
                let mut blocks: Vec<u8> = cts
                    .iter()
                    .map(|ct| last_round_index(ct[2], k10[2]) >> 4)
                    .collect();
                blocks.sort_unstable();
                blocks.dedup();
                AttackSample {
                    ciphertexts: std::sync::Arc::new(cts),
                    time: blocks.len() as f64,
                }
            })
            .collect();
        (out, k10)
    }

    #[test]
    fn streaming_matches_batch_recovery() {
        let (samples, _) = samples(60);
        let attack = Attack::baseline(32);
        let batch = attack.recover_byte(&samples, 2).unwrap();
        let mut online = OnlineByteRecovery::new(&attack, 2).unwrap();
        assert!(online.is_empty());
        for s in &samples {
            online.push(s);
        }
        assert_eq!(online.len(), 60);
        let stream = online.snapshot();
        assert_eq!(stream.best_guess, batch.best_guess);
        assert_eq!(stream.best_guess, online.best_guess());
        for m in 0..256 {
            assert!(
                (stream.correlations[m] - batch.correlations[m]).abs() < 1e-9,
                "guess {m}"
            );
        }
    }

    #[test]
    fn curve_checkpoints_are_monotone_prefixes() {
        let (samples, k10) = samples(80);
        let attack = Attack::baseline(32);
        let curve = recovery_curve(&attack, &samples, 2, &[10, 40, 80, 500]).unwrap();
        // The 500 checkpoint clamps onto the already-snapshotted end of
        // the stream and is skipped.
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[0].0, 10);
        assert_eq!(curve[2].0, 80, "clamped to stream length");
        // With a clean single-byte channel the final checkpoint recovers.
        assert_eq!(curve[2].1.best_guess, k10[2]);
        assert!(curve[2].1.correlation_of(k10[2]) > 0.95);
    }

    #[test]
    fn even_checkpoints_dedupe_and_end_at_n() {
        assert_eq!(even_checkpoints(100, 4), vec![25, 50, 75, 100]);
        assert_eq!(even_checkpoints(3, 6), vec![1, 2, 3], "duplicates dropped");
        assert_eq!(even_checkpoints(1, 4), vec![1]);
        assert_eq!(even_checkpoints(0, 4), Vec::<usize>::new());
        assert_eq!(even_checkpoints(5, 0), Vec::<usize>::new());
        assert_eq!(even_checkpoints(7, 3), vec![2, 4, 7]);
    }

    #[test]
    fn byte_index_is_a_typed_error() {
        let attack = Attack::baseline(32);
        assert_eq!(
            OnlineByteRecovery::new(&attack, 16).unwrap_err(),
            AttackError::ByteIndex { j: 16 }
        );
        assert_eq!(
            recovery_curve(&attack, &[], 99, &[1]).unwrap_err(),
            AttackError::ByteIndex { j: 99 }
        );
    }

    #[test]
    fn degenerate_prefixes_report_zero() {
        let (samples, _) = samples(3);
        let attack = Attack::baseline(32);
        let mut online = OnlineByteRecovery::new(&attack, 2).unwrap();
        assert_eq!(online.correlation_of(0), 0.0);
        online.push(&samples[0]);
        assert_eq!(online.correlation_of(0), 0.0, "one sample is degenerate");
    }
}
