//! Simulator-backed streaming sample generation.
//!
//! [`SimulatorSource`] is the generative counterpart of
//! [`crate::ExperimentData::attack_samples`]: instead of materializing
//! `num_plaintexts` launches and then packaging them, it produces
//! [`AttackSample`] chunks on demand through the **exact same launch
//! path** ([`ExperimentConfig`]'s per-launch seeding, policy assignment
//! replay, and timing extraction), so the concatenation of its chunks is
//! bit-identical to a materialized run of the same configuration — at
//! any chunk size. That is what lets million-sample attack and audit
//! budgets run with peak heap independent of the sample count.

use crate::error::ExperimentError;
use crate::run::{Counted, ExperimentConfig, Launcher, TimingSource};
use crate::workload::random_lines_with;
use rcoal_attack::{AttackError, AttackSample, SampleSource};
use rcoal_parallel::{resolve_threads, try_parallel_map};
use rcoal_rng::{SeedableRng, StdRng};
use rcoal_workload::KernelWorkload;
use std::sync::Arc;

/// A [`SampleSource`] that generates launches on the simulated GPU chunk
/// by chunk.
///
/// The source is *unbounded*: the configuration's `num_plaintexts` is
/// ignored, and the consumer's budget (e.g.
/// [`rcoal_attack::StreamOptions::max_samples`]) decides how much of the
/// infinite deterministic stream to realize. Sample `i` of this stream
/// equals sample `i` of a materialized
/// [`ExperimentConfig::run`]/[`crate::ExperimentData::attack_samples`]
/// pipeline with `num_plaintexts > i`: the plaintext generator is one
/// carried sequential stream, and each launch's policy randomness comes
/// from its own index-derived seed.
///
/// The source binds the key once (one key-schedule expansion per
/// stream), and a functional-only source counts only the attacked-round
/// loads, the only ones its samples read; every warp still draws its
/// assignment, so the policy streams match the materialized run.
pub struct SimulatorSource {
    cfg: ExperimentConfig,
    launcher: Launcher,
    source: TimingSource,
    rng: StdRng,
    produced: usize,
}

impl std::fmt::Debug for SimulatorSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorSource")
            .field("workload", &self.cfg.workload)
            .field("source", &self.source)
            .field("produced", &self.produced)
            .finish_non_exhaustive()
    }
}

impl SimulatorSource {
    /// Builds a streaming source for `cfg`'s scenario, extracting the
    /// attacker's time from `source`.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Config`] for an invalid configuration, a
    /// telemetry spec (streamed launches are not collected, so
    /// instrumenting them would silently drop data), or an out-of-range
    /// [`TimingSource::ByteAccesses`] index;
    /// [`ExperimentError::TimingUnavailable`] when a cycle-based source
    /// is requested from a functional-only configuration.
    pub fn new(cfg: ExperimentConfig, source: TimingSource) -> Result<Self, ExperimentError> {
        // `num_plaintexts` is meaningless for an unbounded stream; run
        // validation with a nominal 1 so callers can leave it at 0.
        let mut probe = cfg.clone();
        probe.num_plaintexts = probe.num_plaintexts.max(1);
        probe.validate()?;
        if cfg.telemetry.is_some() {
            return Err(ExperimentError::Config(
                "streamed sources do not collect telemetry; drop the telemetry spec".into(),
            ));
        }
        match source {
            TimingSource::LastRoundCycles if !cfg.timing => {
                return Err(ExperimentError::TimingUnavailable {
                    what: "TimingSource::LastRoundCycles",
                });
            }
            TimingSource::TotalCycles if !cfg.timing => {
                return Err(ExperimentError::TimingUnavailable {
                    what: "TimingSource::TotalCycles",
                });
            }
            TimingSource::ByteAccesses(j) if usize::from(j) >= 16 => {
                return Err(ExperimentError::Config(format!(
                    "ByteAccesses index {j} out of range (observations carry 16 \
                     per-byte channels)"
                )));
            }
            _ => {}
        }
        let launcher = cfg.launcher(Counted::Attacked)?;
        let rng = StdRng::seed_from_u64(cfg.seed);
        Ok(SimulatorSource {
            cfg,
            launcher,
            source,
            rng,
            produced: 0,
        })
    }

    /// Samples generated so far.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// The registry entry of the workload this source simulates.
    pub fn workload_def(&self) -> &'static dyn KernelWorkload {
        self.launcher.workload
    }

    /// The true attacked subkey of the simulated victim (ground truth
    /// for scoring streamed recoveries).
    pub fn attacked_subkey(&self) -> [u8; 16] {
        self.launcher.workload.attacked_subkey(&self.cfg.key)
    }

    /// Generates the next `max` samples of the stream into `out`.
    ///
    /// Launches within the chunk fan out across the configured worker
    /// threads; each launch draws its policy randomness from its own
    /// index-derived seed, so the stream is bit-identical at any thread
    /// count and chunk size.
    ///
    /// # Errors
    ///
    /// Propagates simulator and policy failures.
    pub fn next_batch(
        &mut self,
        max: usize,
        out: &mut Vec<AttackSample>,
    ) -> Result<usize, ExperimentError> {
        if max == 0 {
            return Ok(0);
        }
        let plaintexts = random_lines_with(&mut self.rng, max, self.cfg.lines);
        let offset = self.produced;
        let threads = resolve_threads(self.cfg.threads);
        let launches = try_parallel_map(threads, &plaintexts, |i, lines: &Vec<_>| {
            self.cfg.run_one_launch(&self.launcher, offset + i, lines)
        })?;
        for data in launches {
            let time = match self.source {
                // `unwrap_or(0)` mirrors the materialized pipeline:
                // `run()` records missing boundary cycles as 0.
                TimingSource::LastRoundCycles => data.last_round_cycles.unwrap_or(0) as f64,
                TimingSource::TotalCycles => data.total_cycles.unwrap_or(0) as f64,
                TimingSource::LastRoundAccesses => data.by_byte.iter().sum::<u64>() as f64,
                TimingSource::ByteAccesses(j) => data.by_byte[usize::from(j)] as f64,
            };
            out.push(AttackSample {
                ciphertexts: Arc::clone(&data.ciphertexts),
                time,
            });
        }
        self.produced += max;
        Ok(max)
    }
}

impl SampleSource for SimulatorSource {
    fn next_chunk(
        &mut self,
        max: usize,
        out: &mut Vec<AttackSample>,
    ) -> Result<usize, AttackError> {
        self.next_batch(max, out)
            .map_err(|e| AttackError::Source(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetrySpec;
    use rcoal_aes::LAST_ROUND_TAG_BASE;
    use rcoal_core::CoalescingPolicy;
    use rcoal_gpu_sim::LaunchPolicy;

    fn chunked(
        cfg: &ExperimentConfig,
        source: TimingSource,
        chunks: &[usize],
    ) -> Vec<AttackSample> {
        let mut src = SimulatorSource::new(cfg.clone(), source).unwrap();
        let mut out = Vec::new();
        for &c in chunks {
            let got = src.next_batch(c, &mut out).unwrap();
            assert_eq!(got, c);
        }
        out
    }

    #[test]
    fn chunked_stream_is_bit_identical_to_materialized_run() {
        // A randomized policy (per-launch seeds) + functional counts.
        let cfg = ExperimentConfig::new(CoalescingPolicy::rss_rts(8).unwrap(), 23, 32)
            .with_seed(42)
            .functional_only();
        let materialized = cfg
            .run()
            .unwrap()
            .attack_samples(TimingSource::ByteAccesses(2))
            .unwrap();
        for chunks in [vec![23], vec![5, 5, 5, 5, 3], vec![1; 23]] {
            let streamed = chunked(&cfg, TimingSource::ByteAccesses(2), &chunks);
            assert_eq!(streamed, materialized, "chunks {chunks:?}");
        }
    }

    #[test]
    fn lean_functional_stream_keeps_every_warps_draws() {
        // The source counts only the attacked loads, but each warp must
        // still draw both assignments in order: a randomized default
        // policy covers half of the attacked bytes here, over a full and
        // a partial warp.
        let launch = LaunchPolicy::Selective {
            vulnerable: CoalescingPolicy::rss_rts(4).unwrap(),
            default: CoalescingPolicy::fss_rts(2).unwrap(),
            vulnerable_tags: (LAST_ROUND_TAG_BASE, LAST_ROUND_TAG_BASE + 8),
        };
        let cfg = ExperimentConfig::new(CoalescingPolicy::rss_rts(4).unwrap(), 9, 40)
            .with_launch(launch)
            .with_seed(5)
            .functional_only();
        let data = cfg.run().unwrap();
        for source in [
            TimingSource::ByteAccesses(3),
            TimingSource::ByteAccesses(12),
            TimingSource::LastRoundAccesses,
        ] {
            let streamed = chunked(&cfg, source, &[4, 5]);
            assert_eq!(streamed, data.attack_samples(source).unwrap(), "{source:?}");
        }
    }

    #[test]
    fn timing_stream_matches_materialized_cycles() {
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 6, 32).with_seed(9);
        let materialized = cfg
            .run()
            .unwrap()
            .attack_samples(TimingSource::LastRoundCycles)
            .unwrap();
        let streamed = chunked(&cfg, TimingSource::LastRoundCycles, &[4, 2]);
        assert_eq!(streamed, materialized);
        let totals = chunked(&cfg, TimingSource::TotalCycles, &[6]);
        assert!(totals.iter().zip(&streamed).all(|(t, l)| t.time >= l.time));
    }

    #[test]
    fn stream_is_thread_count_invariant() {
        let base = ExperimentConfig::new(CoalescingPolicy::rss(4).unwrap(), 0, 32)
            .with_seed(3)
            .functional_only();
        let one = chunked(
            &base.clone().with_threads(1),
            TimingSource::LastRoundAccesses,
            &[9],
        );
        let four = chunked(&base.with_threads(4), TimingSource::LastRoundAccesses, &[9]);
        assert_eq!(one, four);
    }

    #[test]
    fn source_trait_streams_and_counts() {
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 0, 32)
            .with_seed(11)
            .functional_only();
        let mut src = SimulatorSource::new(cfg, TimingSource::LastRoundAccesses).unwrap();
        assert_eq!(
            src.remaining_hint(),
            None,
            "generative sources are unbounded"
        );
        let mut buf = Vec::new();
        assert_eq!(SampleSource::next_chunk(&mut src, 5, &mut buf).unwrap(), 5);
        assert_eq!(SampleSource::next_chunk(&mut src, 0, &mut buf).unwrap(), 0);
        assert_eq!(src.produced(), 5);
        assert_eq!(buf.len(), 5);
        assert_eq!(
            src.attacked_subkey(),
            rcoal_aes::Aes128::new(&crate::workload::DEMO_KEY).last_round_key()
        );
    }

    #[test]
    fn invalid_streaming_configs_are_typed_errors() {
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 0, 32).functional_only();
        assert_eq!(
            SimulatorSource::new(cfg.clone(), TimingSource::LastRoundCycles).unwrap_err(),
            ExperimentError::TimingUnavailable {
                what: "TimingSource::LastRoundCycles"
            }
        );
        assert!(matches!(
            SimulatorSource::new(cfg.clone(), TimingSource::ByteAccesses(16)).unwrap_err(),
            ExperimentError::Config(_)
        ));
        let telemetry = ExperimentConfig::new(CoalescingPolicy::Baseline, 2, 32)
            .with_telemetry(TelemetrySpec::profile_only());
        assert!(matches!(
            SimulatorSource::new(telemetry, TimingSource::LastRoundCycles).unwrap_err(),
            ExperimentError::Config(_)
        ));
        let unknown =
            ExperimentConfig::new(CoalescingPolicy::Baseline, 2, 32).with_workload("des-cbc");
        assert!(matches!(
            SimulatorSource::new(unknown, TimingSource::LastRoundAccesses).unwrap_err(),
            ExperimentError::Config(_)
        ));
    }
}
