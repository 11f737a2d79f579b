//! Leakage audits over experiment results — the glue between
//! [`rcoal_audit`] and the experiment/sweep pipeline.
//!
//! The audit consumes what a run already produced: the attack-sample
//! stream for the spec's channel, plus (when the run was instrumented)
//! per-launch stage scalars pulled from telemetry. Nothing here
//! re-simulates — auditing a cached sweep row costs statistics only.

use crate::error::ExperimentError;
use crate::run::{ExperimentData, TimingSource};
use rcoal_attack::AttackSample;
use rcoal_audit::{
    audit_target_with_stages, AuditChannel, AuditSpec, AuditTarget, LeakageReport, StageChannel,
};

/// Maps an audit channel onto the experiment's timing source.
fn timing_source(spec: &AuditSpec) -> Result<TimingSource, ExperimentError> {
    Ok(match spec.channel {
        AuditChannel::ByteAccesses => {
            let j = u8::try_from(spec.byte).map_err(|_| {
                ExperimentError::Config(format!("audit byte {} out of range", spec.byte))
            })?;
            TimingSource::ByteAccesses(j)
        }
        AuditChannel::LastRoundAccesses => TimingSource::LastRoundAccesses,
        AuditChannel::LastRoundCycles => TimingSource::LastRoundCycles,
        AuditChannel::TotalCycles => TimingSource::TotalCycles,
    })
}

/// Per-launch stage channels from the run's telemetry, index-aligned
/// with the attack samples. Empty when the run was not instrumented
/// (or the trace is not one-per-plaintext, e.g. after trimming).
fn stage_channels(data: &ExperimentData) -> Vec<StageChannel> {
    let Some(tel) = &data.telemetry else {
        return Vec::new();
    };
    if tel.launches.len() != data.len() || data.is_empty() {
        return Vec::new();
    }
    let per_launch = |name: &str, f: &dyn Fn(&crate::telemetry::LaunchTrace) -> f64| StageChannel {
        name: name.to_string(),
        values: tel.launches.iter().map(f).collect(),
    };
    vec![
        per_launch("mem_latency_mean", &|l| l.profile.mem_latency.mean()),
        per_launch("mem_latency_p95", &|l| {
            l.profile.mem_latency.p95().unwrap_or(0) as f64
        }),
        per_launch("dram_row_hit_rate", &|l| {
            let (hits, serviced) = l.profile.mcs.iter().fold((0u64, 0u64), |(h, s), mc| {
                (h + mc.row_hits, s + mc.serviced)
            });
            if serviced == 0 {
                0.0
            } else {
                hits as f64 / serviced as f64
            }
        }),
        per_launch("issue_stall_cycles", &|l| {
            l.profile.issue_stall_cycles as f64
        }),
        per_launch("icnt_deferred", &|l| {
            (l.profile.icnt_req_deferred + l.profile.icnt_reply_deferred) as f64
        }),
        per_launch("warp_finish_spread", &|l| {
            l.profile.warp_finish_spread as f64
        }),
    ]
}

/// Audits an experiment's results against `spec`.
///
/// `warp_size` is the simulated GPU's warp width (the attacker models
/// the same coalescer geometry); pass `config.gpu.warp_size` or 32 for
/// the paper configuration. Stage channels are included automatically
/// when the run carries per-launch telemetry.
///
/// # Errors
///
/// [`ExperimentError::TimingUnavailable`] when a cycle channel is
/// audited on a functional-only run; [`ExperimentError::Config`] for a
/// bad spec; [`ExperimentError::Attack`] when the attack driver rejects
/// the stream (e.g. no samples).
pub fn audit_data(
    data: &ExperimentData,
    warp_size: usize,
    spec: &AuditSpec,
) -> Result<LeakageReport, ExperimentError> {
    let (target, samples, stages) = audit_inputs(data, warp_size, spec)?;
    audit_target_with_stages(&target, &samples, &stages, spec).map_err(|e| match e {
        rcoal_audit::AuditError::Attack(a) => ExperimentError::Attack(a),
        other => ExperimentError::Config(format!("audit: {other}")),
    })
}

/// What [`audit_data`] audits: the workload's target, the attack samples
/// for the spec's channel, and the run's stage channels.
fn audit_inputs(
    data: &ExperimentData,
    warp_size: usize,
    spec: &AuditSpec,
) -> Result<(AuditTarget, Vec<AttackSample>, Vec<StageChannel>), ExperimentError> {
    let samples = data.attack_samples(timing_source(spec)?)?;
    let workload = data.workload_def();
    let geometry = workload.geometry();
    let target = AuditTarget {
        policy: data.policy,
        warp_size,
        true_key_byte: workload.attacked_subkey(&data.key)[spec.byte.min(15)],
        oracle: workload.oracle(),
        // Theory cross-checks need the closed-form (R, N) model; the
        // gather control opts out (its indices are not byte-local).
        theory_r: workload
            .theory_comparable()
            .then_some(geometry.table_size_r),
    };
    Ok((target, samples, stage_channels(data)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::ExperimentConfig;
    use crate::telemetry::TelemetrySpec;
    use rcoal_attack::Attack;
    use rcoal_audit::{binned_mi, welch_t_test, StreamingAudit};
    use rcoal_core::CoalescingPolicy;

    #[test]
    fn functional_baseline_audit_is_leaky_and_matches_theory() {
        let data = ExperimentConfig::new(CoalescingPolicy::Baseline, 96, 32)
            .functional_only()
            .with_seed(11)
            .run()
            .unwrap();
        let report = audit_data(&data, 32, &AuditSpec::new()).unwrap();
        assert!(report.leaky, "t = {}", report.timing.welch.t);
        assert!((report.empirical_rho - 1.0).abs() < 1e-9);
        let theory = report.theory.expect("byte channel has a closed form");
        assert!(theory.ok);
        assert!(report.stages.is_empty(), "no telemetry, no stage channels");
    }

    #[test]
    fn cycle_channel_on_functional_run_is_a_timing_error() {
        let data = ExperimentConfig::new(CoalescingPolicy::Baseline, 16, 32)
            .functional_only()
            .with_seed(3)
            .run()
            .unwrap();
        let spec = AuditSpec::new().with_channel(AuditChannel::TotalCycles);
        let err = audit_data(&data, 32, &spec).unwrap_err();
        assert!(matches!(err, ExperimentError::TimingUnavailable { .. }));
    }

    #[test]
    fn telemetry_run_contributes_stage_channels() {
        let data = ExperimentConfig::new(CoalescingPolicy::Baseline, 12, 32)
            .with_seed(5)
            .with_telemetry(TelemetrySpec::profile_only())
            .run()
            .unwrap();
        let spec = AuditSpec::new().with_channel(AuditChannel::LastRoundCycles);
        let report = audit_data(&data, 32, &spec).unwrap();
        let names: Vec<&str> = report.stages.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"mem_latency_mean"), "{names:?}");
        assert!(names.contains(&"dram_row_hit_rate"), "{names:?}");
        assert!(names.contains(&"warp_finish_spread"), "{names:?}");
        for s in &report.stages {
            assert_eq!(s.welch.n_low + s.welch.n_high, 12, "{}", s.name);
        }
    }

    #[test]
    fn streamed_stage_channels_match_the_reference_estimators() {
        let data = ExperimentConfig::new(CoalescingPolicy::Baseline, 24, 32)
            .with_seed(5)
            .with_telemetry(TelemetrySpec::profile_only())
            .run()
            .unwrap();
        let spec = AuditSpec::new().with_channel(AuditChannel::LastRoundCycles);
        let (target, samples, stages) = audit_inputs(&data, 32, &spec).unwrap();
        assert_eq!(stages.len(), 6);
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        let mut audit =
            StreamingAudit::with_stages(target.clone(), spec.clone(), samples.len(), &names)
                .unwrap();
        for (i, chunk) in samples.chunks(5).enumerate() {
            let lo = i * 5;
            let columns: Vec<&[f64]> = stages
                .iter()
                .map(|s| &s.values[lo..lo + chunk.len()])
                .collect();
            audit.push_chunk(chunk, &columns).unwrap();
        }
        let report = audit.finish().unwrap();
        assert_eq!(
            report,
            audit_data(&data, 32, &spec).unwrap(),
            "chunking never moves the report"
        );

        // Independent references over the raw columns: every stage is
        // classed by the attacker's true-byte prediction.
        let true_byte = target.true_key_byte;
        let mut predictor = Attack::against(target.policy, 32)
            .with_seed(spec.attack_seed)
            .with_oracle(target.oracle)
            .predictor_for_guess(true_byte);
        let preds: Vec<f64> = samples
            .iter()
            .map(|s| predictor.predict(&s.ciphertexts, spec.byte, true_byte))
            .collect();
        let mut sorted = preds.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[(sorted.len() - 1) / 2];
        let strict = preds.iter().filter(|&&p| p > median).count() >= 2;
        let high: Vec<bool> = preds
            .iter()
            .map(|&p| p > median || (!strict && p >= median))
            .collect();
        assert_eq!(report.stages.len(), stages.len());
        for (test, stage) in report.stages.iter().zip(&stages) {
            assert_eq!(test.name, stage.name);
            assert_eq!(
                test.mi,
                binned_mi(&preds, &stage.values, spec.mi_bins),
                "{}",
                stage.name
            );
            let class = |want: bool| -> Vec<f64> {
                stage
                    .values
                    .iter()
                    .zip(&high)
                    .filter(|&(_, &h)| h == want)
                    .map(|(&v, _)| v)
                    .collect()
            };
            let want = welch_t_test(&class(false), &class(true));
            assert_eq!(
                (test.welch.n_low, test.welch.n_high),
                (want.n_low, want.n_high)
            );
            assert!(
                (test.welch.t - want.t).abs() < 1e-9,
                "{}: t {} vs {}",
                stage.name,
                test.welch.t,
                want.t
            );
        }
    }
}
