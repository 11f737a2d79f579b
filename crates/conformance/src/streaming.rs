//! Differential conformance for the streaming attack engine.
//!
//! The single-pass engine in `rcoal-attack::stream` claims three
//! contracts, each of which this section checks against an independent
//! reference on paper-configuration AES samples:
//!
//! 1. **Engine equivalence** — [`stream_recover_key`] over a chunked
//!    [`SliceSource`] must reproduce the materialized
//!    `Attack::recover_key` verdict byte for byte: same argmax, same
//!    rank of the true subkey byte, same recovered key. (Correlations
//!    come from different summation orders — Welford vs two-pass — so
//!    the *verdicts* are the conformance surface, not the floats.)
//! 2. **Bit-identical accumulators** — the per-guess
//!    [`PearsonAccumulator`] state (six f64 words, compared bitwise)
//!    must be invariant to the chunk size the stream arrives in *and*
//!    to the worker thread count, for all 256 guesses.
//! 3. **Early-stop falsifiability** — the default stopping rule must
//!    terminate on the leaky baseline channel *with the same best
//!    guess the full stream produces*, must never terminate on an
//!    RSS+RTS-randomized stream at the same budget, and an inverted
//!    rule (one checkpoint, zero margin) must stop immediately on the
//!    randomized stream — proving the rule, not luck, is load-bearing.
//!
//! [`stream_recover_key`]: rcoal_attack::stream_recover_key
//! [`SliceSource`]: rcoal_attack::SliceSource
//! [`PearsonAccumulator`]: rcoal_attack::PearsonAccumulator

use crate::report::SectionReport;
use crate::ConformanceError;
use rcoal_attack::{
    stream_recover_byte, stream_recover_key, Attack, AttackSample, EarlyStop, SliceSource,
    StreamOptions, StreamingByteRecovery,
};
use rcoal_core::CoalescingPolicy;
use rcoal_experiments::{ExperimentConfig, TimingSource};

/// Warp size of the paper's attacked AES kernel.
const WARP_SIZE: usize = 32;

/// Seed offset so the attack's mirrored-predictor RNG never aliases
/// the experiment RNG.
const ATTACK_SEED_XOR: u64 = 0x5eed;

/// Budget for the early-stop runs. The leaky baseline stabilizes well
/// before this on its exact per-byte channel; the randomized stream
/// must not.
const STOP_BUDGET: usize = 240;

/// Generates `n` paper-config AES attack samples under `policy` and
/// returns them with the true attacked subkey.
fn paper_samples(
    policy: CoalescingPolicy,
    n: usize,
    seed: u64,
    source: TimingSource,
) -> Result<(Vec<AttackSample>, [u8; 16]), ConformanceError> {
    let cfg = ExperimentConfig::new(policy, n, WARP_SIZE)
        .with_seed(seed)
        .with_threads(1)
        .functional_only();
    let data = cfg
        .run()
        .map_err(|e| ConformanceError::new(format!("streaming sample generation: {e}")))?;
    let samples = data
        .attack_samples(source)
        .map_err(|e| ConformanceError::new(format!("streaming sample packaging: {e}")))?;
    Ok((samples, data.attacked_subkey()))
}

/// Contract 1: streamed key recovery matches the materialized engine
/// byte for byte. Counts one case per subkey byte.
fn key_equivalence(
    report: &mut SectionReport,
    samples: &[AttackSample],
    subkey: [u8; 16],
    seed: u64,
) -> Result<(), ConformanceError> {
    let attack =
        Attack::against(CoalescingPolicy::Baseline, WARP_SIZE).with_seed(seed ^ ATTACK_SEED_XOR);
    let materialized = attack
        .recover_key(samples)
        .map_err(|e| ConformanceError::new(format!("materialized recover_key: {e}")))?;
    // A deliberately awkward chunk size: not a divisor of the sample
    // count, so the last chunk is ragged.
    let opts = StreamOptions::new(samples.len()).with_chunk(17);
    let mut source = SliceSource::new(samples);
    let streamed = stream_recover_key(&attack, &mut source, &opts)
        .map_err(|e| ConformanceError::new(format!("streamed recover_key: {e}")))?;

    for (j, (mat, st)) in materialized
        .bytes
        .iter()
        .zip(&streamed.recovery.bytes)
        .enumerate()
    {
        report.cases += 1;
        if mat.best_guess != st.best_guess {
            report.failures.push(format!(
                "byte {j}: streamed argmax {:#04x} != materialized {:#04x}",
                st.best_guess, mat.best_guess
            ));
        }
        let true_byte = subkey[j];
        let (mr, sr) = (mat.rank_of(true_byte), st.rank_of(true_byte));
        if mr != sr {
            report.failures.push(format!(
                "byte {j}: streamed rank of true byte {sr} != materialized {mr}"
            ));
        }
    }
    report.cases += 1;
    if materialized.recovered_key() != streamed.recovery.recovered_key() {
        report
            .failures
            .push("streamed recovered_key differs from materialized".into());
    }
    Ok(())
}

/// Contract 2: per-guess accumulator state is bitwise invariant to
/// chunk size and thread count. One case per (chunk, threads) combo.
fn accumulator_bit_identity(
    report: &mut SectionReport,
    samples: &[AttackSample],
    seed: u64,
) -> Result<(), ConformanceError> {
    let reference = {
        let attack = Attack::against(CoalescingPolicy::Baseline, WARP_SIZE)
            .with_seed(seed ^ ATTACK_SEED_XOR);
        let mut engine = StreamingByteRecovery::new(&attack, 0)
            .map_err(|e| ConformanceError::new(format!("reference engine: {e}")))?;
        engine.push_chunk(samples);
        (0..=u8::MAX)
            .map(|m| engine.accumulator(m).state_bits())
            .collect::<Vec<_>>()
    };

    for &threads in &[1usize, 3] {
        for &chunk in &[1usize, 7, 64, samples.len()] {
            report.cases += 1;
            let attack = Attack::against(CoalescingPolicy::Baseline, WARP_SIZE)
                .with_seed(seed ^ ATTACK_SEED_XOR)
                .with_threads(Some(threads));
            let mut engine = StreamingByteRecovery::new(&attack, 0)
                .map_err(|e| ConformanceError::new(format!("chunked engine: {e}")))?;
            for piece in samples.chunks(chunk) {
                engine.push_chunk(piece);
            }
            if let Some(m) = (0..=u8::MAX)
                .find(|&m| engine.accumulator(m).state_bits() != reference[usize::from(m)])
            {
                report.failures.push(format!(
                    "chunk {chunk} x threads {threads}: guess {m:#04x} accumulator \
                     state diverged from the monolithic reference"
                ));
            }
        }
    }
    Ok(())
}

/// Contract 3: the stopping rule is falsifiable in both directions.
fn early_stop_falsifiability(
    report: &mut SectionReport,
    seed: u64,
) -> Result<(), ConformanceError> {
    // Leaky: the baseline's exact per-byte access channel.
    let (leaky, subkey) = paper_samples(
        CoalescingPolicy::Baseline,
        STOP_BUDGET,
        seed ^ 0x1eaf,
        TimingSource::ByteAccesses(0),
    )?;
    let attack =
        Attack::against(CoalescingPolicy::Baseline, WARP_SIZE).with_seed(seed ^ ATTACK_SEED_XOR);

    let stopped = StreamOptions::new(STOP_BUDGET).with_early_stop(EarlyStop::default());
    let full = StreamOptions::new(STOP_BUDGET);
    let terminated = stream_recover_byte(&attack, &mut SliceSource::new(&leaky), 0, &stopped)
        .map_err(|e| ConformanceError::new(format!("leaky early-stop run: {e}")))?;
    let exhaustive = stream_recover_byte(&attack, &mut SliceSource::new(&leaky), 0, &full)
        .map_err(|e| ConformanceError::new(format!("leaky full-stream run: {e}")))?;

    report.cases += 1;
    if !terminated.terminated_early {
        report.failures.push(format!(
            "leaky baseline channel did not terminate within {STOP_BUDGET} samples"
        ));
    }
    report.cases += 1;
    if terminated.recovery.best_guess != exhaustive.recovery.best_guess {
        report.failures.push(format!(
            "terminated best guess {:#04x} != full-stream best guess {:#04x}",
            terminated.recovery.best_guess, exhaustive.recovery.best_guess
        ));
    }
    report.cases += 1;
    if terminated.recovery.best_guess != subkey[0] {
        report.failures.push(format!(
            "leaky terminated recovery missed the true byte {:#04x}",
            subkey[0]
        ));
    }

    // Secure: RSS+RTS randomizes the same channel; the default rule
    // must never report a confidently stable (and thus wrong) leader.
    let rss_rts = CoalescingPolicy::rss_rts(8)
        .map_err(|e| ConformanceError::new(format!("rss_rts policy: {e}")))?;
    let (secure, _) = paper_samples(
        rss_rts,
        STOP_BUDGET,
        seed ^ 0x5afe,
        TimingSource::ByteAccesses(0),
    )?;
    let defended = Attack::against(rss_rts, WARP_SIZE).with_seed(seed ^ ATTACK_SEED_XOR);
    let held = stream_recover_byte(&defended, &mut SliceSource::new(&secure), 0, &stopped)
        .map_err(|e| ConformanceError::new(format!("secure early-stop run: {e}")))?;
    report.cases += 1;
    if held.terminated_early {
        report.failures.push(format!(
            "RSS+RTS stream terminated early at {} samples with leader {:#04x}",
            held.samples, held.recovery.best_guess
        ));
    }

    // Inverted rule: one checkpoint, zero margin. If this did NOT stop
    // on the randomized stream, the stopping predicate would be inert
    // and the two checks above would be vacuous.
    let inverted = StreamOptions::new(STOP_BUDGET).with_early_stop(EarlyStop {
        stable_checkpoints: 1,
        margin_k: 0.0,
    });
    let trigger = stream_recover_byte(&defended, &mut SliceSource::new(&secure), 0, &inverted)
        .map_err(|e| ConformanceError::new(format!("inverted-rule run: {e}")))?;
    report.cases += 1;
    if !trigger.terminated_early {
        report
            .failures
            .push("inverted stopping rule (1 checkpoint, zero margin) failed to stop".into());
    }
    report.cases += 1;
    if trigger.samples >= held.samples {
        report.failures.push(format!(
            "inverted rule consumed {} samples, not fewer than the default rule's {}",
            trigger.samples, held.samples
        ));
    }
    Ok(())
}

/// Runs the streaming-attack conformance section.
///
/// `cases` scales the sample budget of the engine-equivalence corpus;
/// the early-stop budget is fixed at 240 samples (`STOP_BUDGET`).
///
/// # Errors
///
/// [`ConformanceError`] when sample generation or the attack engines
/// fail outright (conformance *violations* are collected in the
/// report, not returned as errors).
pub fn section(seed: u64, cases: usize) -> Result<SectionReport, ConformanceError> {
    let mut report = SectionReport::new("streaming attack");
    let n = cases.clamp(48, 256);
    let (samples, subkey) = paper_samples(
        CoalescingPolicy::Baseline,
        n,
        seed,
        TimingSource::LastRoundAccesses,
    )?;
    key_equivalence(&mut report, &samples, subkey, seed)?;
    accumulator_bit_identity(&mut report, &samples, seed)?;
    early_stop_falsifiability(&mut report, seed)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_section_passes_clean() {
        let report = section(0xc0f0_24a1, 64).expect("section runs");
        assert!(
            report.passed(),
            "streaming conformance violations: {:?}",
            report.failures
        );
        // 16 bytes + key + 8 combos + 6 early-stop checks.
        assert_eq!(report.cases, 16 + 1 + 8 + 6);
    }

    #[test]
    fn section_counts_every_check_as_a_case() {
        let report = section(7, 48).expect("section runs");
        assert!(report.cases >= 31);
    }
}
