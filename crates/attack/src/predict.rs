use crate::oracle::{aes_oracle, GuessTable, TableOracle};
use rcoal_aes::Block;
use rcoal_core::{CoalescingPolicy, SubwarpMasks};
use rcoal_rng::SeedableRng;
use rcoal_rng::StdRng;
use std::sync::Arc;

/// What every guess lane of one attack shares: the oracle's
/// `table[guess][byte]` block indices and, for deterministic policies,
/// the full-warp subwarp masks — drawn once instead of once per
/// prediction, since Baseline, Disabled and FSS never touch the RNG.
#[derive(Debug)]
pub(crate) struct SharedModel {
    table: GuessTable,
    fixed: Option<SubwarpMasks>,
}

impl SharedModel {
    pub(crate) fn new(
        oracle: Arc<dyn TableOracle>,
        policy: CoalescingPolicy,
        warp_size: usize,
    ) -> Self {
        let mut masks = SubwarpMasks::new();
        // Deterministic policies make no draws, so any RNG will do.
        let fixed = (!policy.is_randomized())
            .then(|| policy.assignment_into(warp_size, &mut StdRng::seed_from_u64(0), &mut masks))
            .and_then(Result::ok)
            .map(|()| masks);
        SharedModel {
            table: GuessTable::new(oracle),
            fixed,
        }
    }

    pub(crate) fn oracle(&self) -> &Arc<dyn TableOracle> {
        self.table.oracle()
    }
}

/// The attacker's model of the victim GPU's coalescing: predicts how many
/// last-round coalesced accesses a plaintext generates for a given key
/// byte position and guess.
///
/// Construction mirrors the paper's "corresponding attacks" (§IV-E): the
/// predictor replays whatever policy the attacker believes the defense
/// uses. With [`CoalescingPolicy::Baseline`] this is the original attack
/// of Jiang et al.; with an FSS policy it is Algorithm 1; with
/// RSS/RTS policies it simulates the defense's own randomness.
///
/// A prediction allocates nothing: block indices come from a guess table
/// shared by every predictor of an [`crate::Attack`], subwarps are `u64`
/// lane masks drawn on the stack by
/// [`CoalescingPolicy::assignment_into`], and a subwarp's distinct blocks
/// are one popcount ([`SubwarpMasks::count_distinct`]). This needs warps
/// of at most 64 lanes and block indices below 64; the attack entry
/// points reject anything wider with a typed error. Used directly, a
/// wider warp degrades to one access per lane and a wider oracle
/// saturates at block 63.
#[derive(Debug, Clone)]
pub struct AccessPredictor {
    policy: CoalescingPolicy,
    warp_size: usize,
    rng: StdRng,
    mc_samples: usize,
    model: Arc<SharedModel>,
    /// Ciphertext byte-column scratch backing [`AccessPredictor::predict`].
    bytes_scratch: Vec<u8>,
}

impl AccessPredictor {
    /// Creates a predictor mirroring `policy` over `warp_size`-thread
    /// warps. `seed` drives the attacker-side randomness of RSS/RTS
    /// replays.
    pub fn new(policy: CoalescingPolicy, warp_size: usize, seed: u64) -> Self {
        let warp_size = warp_size.max(1);
        let model = SharedModel::new(aes_oracle(), policy, warp_size);
        Self::with_model(policy, warp_size, seed, Arc::new(model))
    }

    /// A predictor over an already shared model (one per attack).
    pub(crate) fn with_model(
        policy: CoalescingPolicy,
        warp_size: usize,
        seed: u64,
        model: Arc<SharedModel>,
    ) -> Self {
        AccessPredictor {
            policy,
            warp_size: warp_size.max(1),
            rng: StdRng::seed_from_u64(seed),
            mc_samples: 1,
            model,
            bytes_scratch: Vec::new(),
        }
    }

    /// Averages each prediction over `n ≥ 1` Monte-Carlo replays of the
    /// defense's randomness (only meaningful for randomized policies).
    pub fn with_mc_samples(mut self, n: usize) -> Self {
        self.mc_samples = n.max(1);
        self
    }

    /// Replaces the table oracle (AES-128 last round by default) —
    /// how the predictor maps an observed byte plus a guess onto the
    /// block its table lookup touches.
    pub fn with_oracle(mut self, oracle: Arc<dyn TableOracle>) -> Self {
        self.model = Arc::new(SharedModel::new(oracle, self.policy, self.warp_size));
        self
    }

    /// The mirrored policy.
    pub fn policy(&self) -> CoalescingPolicy {
        self.policy
    }

    /// Predicts the number of last-round coalesced accesses for key byte
    /// `j` under guess `m`, for one plaintext whose per-line ciphertexts
    /// are `ciphertexts` (threads are mapped to lines sequentially,
    /// `warp_size` per warp).
    pub fn predict(&mut self, ciphertexts: &[Block], j: usize, guess: u8) -> f64 {
        let mut bytes = std::mem::take(&mut self.bytes_scratch);
        bytes.clear();
        bytes.extend(ciphertexts.iter().map(|ct| ct[j]));
        let total = self.predict_bytes(&bytes, guess);
        self.bytes_scratch = bytes;
        total
    }

    /// Like [`AccessPredictor::predict`], but takes the ciphertext byte
    /// column `ciphertexts[..][j]` directly — the form the 256-guess
    /// sweep uses, so the column is extracted once per byte position
    /// instead of once per (sample, guess) pair. Bit-identical to
    /// `predict` on the same column.
    ///
    /// Each warp's Monte-Carlo replays are accumulated as
    /// `count / mc_samples`, added `mc_samples` times, in warp order.
    pub fn predict_bytes(&mut self, bytes: &[u8], guess: u8) -> f64 {
        let row = self.model.table.row(guess);
        let mc = self.mc_samples as f64;
        // Only randomized policies (and partial warps) draw masks here.
        let mut scratch: Option<SubwarpMasks> = None;
        let mut total = 0.0;
        for warp in bytes.chunks(self.warp_size) {
            let block_bit = |b: u8| 1u64 << row[usize::from(b)];
            let fixed = self
                .model
                .fixed
                .as_ref()
                .filter(|m| m.warp_size() == warp.len());
            for _ in 0..self.mc_samples {
                let drawn = match fixed {
                    Some(m) => Ok(m),
                    None => {
                        let masks = scratch.get_or_insert_with(SubwarpMasks::new);
                        self.policy
                            .assignment_into(warp.len(), &mut self.rng, masks)
                            .map(|()| &*masks)
                    }
                };
                total += match drawn {
                    Ok(m) => m.count_distinct(warp, block_bit) as f64 / mc,
                    // A policy that cannot split this (partial) warp —
                    // e.g. FSS(8) on a 4-line tail — degrades to the
                    // worst case of one access per thread.
                    Err(_) => warp.len() as f64 / mc,
                };
            }
        }
        total
    }
}

/// Convenience wrapper: predicted last-round accesses for every plaintext
/// in `samples`, for key byte `j` under guess `m`.
pub fn predicted_accesses(
    predictor: &mut AccessPredictor,
    samples: &[Vec<Block>],
    j: usize,
    guess: u8,
) -> Vec<f64> {
    samples
        .iter()
        .map(|cts| predictor.predict(cts, j, guess))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::XorWhiteningOracle;
    use rcoal_aes::{last_round_index, Aes128};

    fn ciphertexts(n: usize, key: &[u8; 16]) -> (Vec<Block>, [u8; 16]) {
        let aes = Aes128::new(key);
        let cts = (0..n)
            .map(|i| {
                let mut pt = [0u8; 16];
                for (k, b) in pt.iter_mut().enumerate() {
                    *b = (i * 37 + k * 11) as u8;
                }
                aes.encrypt_block(pt)
            })
            .collect();
        (cts, aes.last_round_key())
    }

    #[test]
    fn baseline_prediction_counts_distinct_blocks() {
        let (cts, k10) = ciphertexts(32, b"0123456789abcdef");
        let mut p = AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0);
        let predicted = p.predict(&cts, 0, k10[0]);
        // Recompute independently.
        let mut blocks: Vec<u8> = cts
            .iter()
            .map(|ct| last_round_index(ct[0], k10[0]) >> 4)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(predicted, blocks.len() as f64);
    }

    #[test]
    fn correct_guess_reproduces_true_indices() {
        // With the right key byte, predictions equal the defense's actual
        // baseline coalesced counts; sanity-check bounds here.
        let (cts, k10) = ciphertexts(64, b"another-aes-key!");
        let mut p = AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0);
        for (j, &kj) in k10.iter().enumerate() {
            let a = p.predict(&cts, j, kj);
            assert!((1.0..=32.0).contains(&a));
        }
    }

    #[test]
    fn fss_prediction_sums_per_subwarp_counts() {
        // Algorithm 1 semantics: per in-order group, count distinct
        // blocks, then sum.
        let (cts, k10) = ciphertexts(32, b"0123456789abcdef");
        let policy = CoalescingPolicy::fss(4).unwrap();
        let mut p = AccessPredictor::new(policy, 32, 0);
        let predicted = p.predict(&cts, 3, k10[3]);

        let mut manual = 0usize;
        for group in cts.chunks(8) {
            let mut blocks: Vec<u8> = group
                .iter()
                .map(|ct| last_round_index(ct[3], k10[3]) >> 4)
                .collect();
            blocks.sort_unstable();
            blocks.dedup();
            manual += blocks.len();
        }
        assert_eq!(predicted, manual as f64);
    }

    #[test]
    fn fss_at_32_subwarps_is_constant() {
        let (cts, k10) = ciphertexts(32, b"0123456789abcdef");
        let policy = CoalescingPolicy::fss(32).unwrap();
        let mut p = AccessPredictor::new(policy, 32, 0);
        for m in [0u8, 17, k10[0], 255] {
            assert_eq!(p.predict(&cts, 0, m), 32.0);
        }
    }

    #[test]
    fn multi_warp_plaintexts_sum_over_warps() {
        let (cts, k10) = ciphertexts(96, b"0123456789abcdef");
        let mut p = AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0);
        let total = p.predict(&cts, 0, k10[0]);
        let per_warp: f64 = cts
            .chunks(32)
            .map(|w| AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0).predict(w, 0, k10[0]))
            .sum();
        assert_eq!(total, per_warp);
    }

    #[test]
    fn mc_averaging_reduces_prediction_variance() {
        let (cts, k10) = ciphertexts(32, b"0123456789abcdef");
        let policy = CoalescingPolicy::rss_rts(4).unwrap();
        let spread = |mc: usize, seed_base: u64| {
            let preds: Vec<f64> = (0..40)
                .map(|s| {
                    AccessPredictor::new(policy, 32, seed_base + s)
                        .with_mc_samples(mc)
                        .predict(&cts, 0, k10[0])
                })
                .collect();
            let mean = preds.iter().sum::<f64>() / preds.len() as f64;
            preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / preds.len() as f64
        };
        assert!(spread(16, 1) < spread(1, 1000));
    }

    #[test]
    fn predict_bytes_is_bit_identical_to_predict() {
        // The byte-column path must replay the same RNG stream and the
        // same f64 accumulation as the Block-based path, across guess
        // switches.
        let (cts, k10) = ciphertexts(96, b"0123456789abcdef");
        let column: Vec<u8> = cts.iter().map(|ct| ct[5]).collect();
        for policy in [
            CoalescingPolicy::Baseline,
            CoalescingPolicy::fss(4).unwrap(),
            CoalescingPolicy::rss_rts(4).unwrap(),
        ] {
            let mut a = AccessPredictor::new(policy, 32, 7).with_mc_samples(3);
            let mut b = AccessPredictor::new(policy, 32, 7).with_mc_samples(3);
            for guess in [0u8, k10[5], 255, k10[5]] {
                let va = a.predict(&cts, 5, guess);
                let vb = b.predict_bytes(&column, guess);
                assert_eq!(va.to_bits(), vb.to_bits(), "guess {guess} {policy:?}");
            }
        }
    }

    #[test]
    fn xor_oracle_predictor_counts_whitened_blocks() {
        // A whitening-cipher predictor over 8-byte-entry tables (block
        // index = (b ^ g) >> 3): baseline count = distinct block count.
        let texts: Vec<Block> = (0..32u8)
            .map(|l| {
                let mut b = [0u8; 16];
                b.iter_mut()
                    .enumerate()
                    .for_each(|(k, x)| *x = l.wrapping_mul(37) ^ (k as u8) << 3);
                b
            })
            .collect();
        let key_byte = 0x5a;
        let mut p = AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0)
            .with_oracle(Arc::new(XorWhiteningOracle::new(3, 8)));
        let predicted = p.predict(&texts, 0, key_byte);
        let mut blocks: Vec<u8> = texts.iter().map(|t| (t[0] ^ key_byte) >> 3).collect();
        blocks.sort_unstable();
        blocks.dedup();
        assert_eq!(predicted, blocks.len() as f64);
        // Switching oracles swaps the shared guess table.
        let aes_pred = p.with_oracle(aes_oracle()).predict(&texts, 0, key_byte);
        let mut aes_blocks: Vec<u8> = texts
            .iter()
            .map(|t| last_round_index(t[0], key_byte) >> 4)
            .collect();
        aes_blocks.sort_unstable();
        aes_blocks.dedup();
        assert_eq!(aes_pred, aes_blocks.len() as f64);
    }

    #[test]
    fn predicted_accesses_maps_all_samples() {
        let (cts, k10) = ciphertexts(32, b"0123456789abcdef");
        let samples = vec![cts.clone(), cts];
        let mut p = AccessPredictor::new(CoalescingPolicy::Baseline, 32, 0);
        let v = predicted_accesses(&mut p, &samples, 0, k10[0]);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], v[1]);
    }
}
