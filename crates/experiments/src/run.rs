use crate::error::ExperimentError;
use crate::telemetry::{ExperimentTelemetry, TelemetrySpec};
use crate::workload::{random_plaintexts, DEMO_KEY};
use rcoal_aes::{Block, LAST_ROUND_TAG_BASE};
use rcoal_attack::AttackSample;
use rcoal_audit::{AuditSpec, LeakageReport};
use rcoal_core::{Coalescer, CoalescingPolicy, SubwarpMasks};
use rcoal_gpu_sim::{
    FaultPlan, GpuConfig, GpuSimulator, Kernel, LaunchPolicy, SimTelemetry, TraceInstr,
};
use rcoal_parallel::{resolve_threads, try_parallel_map, try_parallel_map_metered};
use rcoal_rng::SeedableRng;
use rcoal_rng::StdRng;
use rcoal_telemetry::MetricsRegistry;
use rcoal_workload::{KernelBuilder, KernelWorkload};
use std::sync::Arc;

/// Which measurement plays the role of the attacker's timing observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingSource {
    /// Cycles spent after round 9 — the paper's strong attacker (§II-C).
    LastRoundCycles,
    /// Whole-kernel cycles — the realistic remote attacker.
    TotalCycles,
    /// The true number of last-round coalesced accesses — the paper's
    /// §VI-D trick to cancel warp-scheduling noise entirely.
    LastRoundAccesses,
    /// The last-round accesses of a single byte position's T4 load — the
    /// cleanest possible per-byte channel, useful for isolating one
    /// byte's leakage from the other fifteen.
    ByteAccesses(u8),
}

/// Configuration of one end-to-end encryption experiment: `num_plaintexts`
/// plaintexts of `lines` lines are encrypted on the simulated GPU under
/// `policy`, recording per-plaintext timing and access counts.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Coalescing policy the victim GPU deploys.
    pub policy: CoalescingPolicy,
    /// Registered workload the victim GPU runs (see
    /// [`rcoal_workload::registry`]); `"aes"` is the paper's kernel and
    /// the default.
    pub workload: String,
    /// Number of plaintexts (timing samples).
    pub num_plaintexts: usize,
    /// Lines per plaintext (32 = one warp; 1024 = the §VI-D case study).
    pub lines: usize,
    /// Master seed for plaintexts and per-launch policy randomness.
    pub seed: u64,
    /// AES-128 key held by the victim.
    pub key: [u8; 16],
    /// Simulated GPU configuration.
    pub gpu: GpuConfig,
    /// When false, skip the cycle simulator and collect only (functional)
    /// access counts — orders of magnitude faster, sufficient for the
    /// access-based security analyses.
    pub timing: bool,
    /// Optional launch-policy override; when set, `policy` is ignored and
    /// this (possibly selective) launch policy is used instead.
    pub launch: Option<LaunchPolicy>,
    /// Hardware faults to inject into every launch (DRAM reply jitter,
    /// dropped replies, interconnect backpressure). Defaults to
    /// [`FaultPlan::none`]. Only timing runs feel faults — they perturb
    /// cycles, never access counts.
    pub faults: FaultPlan,
    /// Worker threads for the per-plaintext launch sweep. `None` defers
    /// to `RCOAL_THREADS` / the machine's parallelism; `Some(1)` forces
    /// a true sequential run. Every launch derives its randomness from
    /// its own seed, so the results are bit-identical at any thread
    /// count.
    pub threads: Option<usize>,
    /// When set, every simulated launch runs instrumented and the
    /// collected [`ExperimentTelemetry`] lands on
    /// [`ExperimentData::telemetry`]. Requires `timing` (the telemetry is
    /// cycle-domain); everything collected is deterministic for a fixed
    /// seed at any thread count.
    pub telemetry: Option<TelemetrySpec>,
    /// Optional host-domain metrics sink. When set, the run records a
    /// `span.experiment.run` wall-clock span, `pool.launches.*` sweep
    /// utilization, and (if `telemetry` is also set) the aggregate
    /// `sim.*` profile. Host metrics are wall-clock and therefore **not**
    /// deterministic — they never feed back into results.
    pub host_metrics: Option<MetricsRegistry>,
    /// When set, [`ExperimentConfig::run_audited`] follows the run with
    /// a leakage audit over the produced data (see
    /// [`crate::audit_data`]). A cycle-domain audit channel requires
    /// `timing`; the audit itself is deterministic and never alters the
    /// experiment data.
    pub audit: Option<AuditSpec>,
}

impl ExperimentConfig {
    /// Creates a timing experiment with the paper's GPU configuration and
    /// the demo key.
    pub fn new(policy: CoalescingPolicy, num_plaintexts: usize, lines: usize) -> Self {
        ExperimentConfig {
            policy,
            workload: "aes".to_string(),
            num_plaintexts,
            lines,
            seed: 0x5C0A1,
            key: DEMO_KEY,
            gpu: GpuConfig::paper(),
            timing: true,
            launch: None,
            faults: FaultPlan::none(),
            threads: None,
            telemetry: None,
            host_metrics: None,
            audit: None,
        }
    }

    /// Creates a *selective* experiment implementing the paper's §VII
    /// future-work design: only the last-round (vulnerable) T4 loads use
    /// the randomized `vulnerable_policy`; every other load keeps stock
    /// baseline coalescing.
    pub fn selective(
        vulnerable_policy: CoalescingPolicy,
        num_plaintexts: usize,
        lines: usize,
    ) -> Self {
        let mut cfg = Self::new(vulnerable_policy, num_plaintexts, lines);
        cfg.launch = Some(LaunchPolicy::Selective {
            vulnerable: vulnerable_policy,
            default: CoalescingPolicy::Baseline,
            vulnerable_tags: (LAST_ROUND_TAG_BASE, LAST_ROUND_TAG_BASE + 16),
        });
        cfg
    }

    /// Selects a registered workload by name (see
    /// [`rcoal_workload::registry`]).
    pub fn with_workload(mut self, workload: impl Into<String>) -> Self {
        self.workload = workload.into();
        self
    }

    /// Overrides the launch policy (e.g. a custom selective split).
    pub fn with_launch(mut self, launch: LaunchPolicy) -> Self {
        self.launch = Some(launch);
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the victim key.
    pub fn with_key(mut self, key: [u8; 16]) -> Self {
        self.key = key;
        self
    }

    /// Overrides the GPU configuration.
    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Disables the cycle simulator (access counts only).
    pub fn functional_only(mut self) -> Self {
        self.timing = false;
        self
    }

    /// Injects hardware faults into every launch of the experiment.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the worker-thread count for the launch sweep (`1` =
    /// sequential). Use [`ExperimentConfig::threads`] = `None` (the
    /// default) to defer to `RCOAL_THREADS` / the machine.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Instruments every launch per `spec` (see
    /// [`ExperimentConfig::telemetry`]).
    pub fn with_telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.telemetry = Some(spec);
        self
    }

    /// Attaches a host-domain metrics sink (see
    /// [`ExperimentConfig::host_metrics`]); the registry is shared, so
    /// the caller keeps visibility through its own clone.
    pub fn with_host_metrics(mut self, registry: &MetricsRegistry) -> Self {
        self.host_metrics = Some(registry.clone());
        self
    }

    /// Schedules a leakage audit to run after the experiment (see
    /// [`ExperimentConfig::audit`] and [`ExperimentConfig::run_audited`]).
    pub fn with_audit(mut self, spec: AuditSpec) -> Self {
        self.audit = Some(spec);
        self
    }

    /// Validates the configuration without running anything.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Config`] naming the offending field.
    pub fn validate(&self) -> Result<(), ExperimentError> {
        if self.num_plaintexts == 0 {
            return Err(ExperimentError::Config(
                "num_plaintexts must be positive".into(),
            ));
        }
        if self.lines == 0 {
            return Err(ExperimentError::Config("lines must be positive".into()));
        }
        if rcoal_workload::find(&self.workload).is_none() {
            return Err(ExperimentError::Config(format!(
                "unknown workload '{}' (registered: {})",
                self.workload,
                rcoal_workload::names()
            )));
        }
        if self.threads == Some(0) {
            return Err(ExperimentError::Config(
                "threads must be positive (use 1 for a sequential run)".into(),
            ));
        }
        if self.telemetry.is_some() && !self.timing {
            return Err(ExperimentError::Config(
                "telemetry requires a timing run (it instruments the cycle simulator); \
                 drop functional_only() or the telemetry spec"
                    .into(),
            ));
        }
        if let Some(audit) = &self.audit {
            audit
                .validate()
                .map_err(|msg| ExperimentError::Config(format!("audit: {msg}")))?;
            if audit.channel.needs_cycles() && !self.timing {
                return Err(ExperimentError::Config(format!(
                    "audit channel '{}' needs cycle timing; drop functional_only() \
                     or audit an access-count channel",
                    audit.channel
                )));
            }
        }
        self.gpu
            .validate()
            .map_err(|msg| ExperimentError::Config(format!("gpu: {msg}")))?;
        self.faults
            .validate()
            .map_err(|msg| ExperimentError::Config(format!("faults: {msg}")))?;
        Ok(())
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Config`] for an invalid configuration;
    /// otherwise propagates simulator errors (cycle limit, watchdog
    /// stall, injected-fault livelock) and policy errors. Functional-only
    /// runs can still fail on a policy/warp-size mismatch.
    pub fn run(&self) -> Result<ExperimentData, ExperimentError> {
        self.validate()?;
        let span = self.host_metrics.as_ref().map(|m| m.span("experiment.run"));
        let launcher = self.launcher(Counted::Every)?;
        let plaintexts = random_plaintexts(self.num_plaintexts, self.lines, self.seed);

        // Launches are independent by construction — plaintext `i` draws
        // its policy randomness from its own `launch_seed` — so they fan
        // out across worker threads; results come back in plaintext
        // order, making the data bit-identical to a sequential run.
        let threads = resolve_threads(self.threads);
        let map = |i: usize, lines: &Vec<Block>| self.run_one_launch(&launcher, i, lines);
        let launches = if let Some(metrics) = &self.host_metrics {
            let (result, report) = try_parallel_map_metered(threads, &plaintexts, map);
            report.record_into(metrics, "launches");
            result?
        } else {
            try_parallel_map(threads, &plaintexts, map)?
        };

        let mut data = ExperimentData {
            policy: self.policy,
            workload: self.workload.clone(),
            key: self.key,
            ciphertexts: Vec::with_capacity(self.num_plaintexts),
            last_round_accesses: Vec::with_capacity(self.num_plaintexts),
            last_round_accesses_by_byte: Vec::with_capacity(self.num_plaintexts),
            total_accesses: Vec::with_capacity(self.num_plaintexts),
            total_requests: Vec::with_capacity(self.num_plaintexts),
            last_round_cycles: self.timing.then(Vec::new),
            total_cycles: self.timing.then(Vec::new),
            telemetry: self.telemetry.map(|_| ExperimentTelemetry::default()),
        };
        for (i, launch_data) in launches.into_iter().enumerate() {
            data.ciphertexts.push(launch_data.ciphertexts);
            data.last_round_accesses
                .push(launch_data.by_byte.iter().sum());
            data.last_round_accesses_by_byte.push(launch_data.by_byte);
            data.total_accesses.push(launch_data.total_accesses);
            data.total_requests.push(launch_data.total_requests);
            if let Some(lr) = data.last_round_cycles.as_mut() {
                lr.push(launch_data.last_round_cycles.unwrap_or(0));
            }
            if let Some(tc) = data.total_cycles.as_mut() {
                tc.push(launch_data.total_cycles.unwrap_or(0));
            }
            if let (Some(tel), Some(sink)) = (data.telemetry.as_mut(), launch_data.telemetry) {
                // Launches arrive in index order, so the merge (and every
                // serialized form of it) is thread-count independent.
                tel.push(i, sink);
            }
        }
        if let (Some(metrics), Some(tel)) = (&self.host_metrics, &data.telemetry) {
            tel.record_into(metrics);
        }
        if let Some(span) = span {
            span.finish();
        }
        Ok(data)
    }

    /// Runs the experiment and, when [`ExperimentConfig::audit`] is
    /// set, follows it with a leakage audit over the produced data.
    ///
    /// # Errors
    ///
    /// Everything [`ExperimentConfig::run`] can return, plus the audit
    /// failures of [`crate::audit_data`].
    pub fn run_audited(&self) -> Result<(ExperimentData, Option<LeakageReport>), ExperimentError> {
        let data = self.run()?;
        let report = match &self.audit {
            None => None,
            Some(spec) => Some(crate::audit::audit_data(&data, self.gpu.warp_size, spec)?),
        };
        Ok((data, report))
    }

    /// Everything this configuration's launches share: the registry
    /// workload with its key bound once, the simulator, the coalescer and
    /// the launch policy.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::Config`] for an unknown workload and policy
    /// errors for an invalid block size.
    pub(crate) fn launcher(&self, counted: Counted) -> Result<Launcher, ExperimentError> {
        let workload = rcoal_workload::find(&self.workload).ok_or_else(|| {
            ExperimentError::Config(format!("unknown workload '{}'", self.workload))
        })?;
        Ok(Launcher {
            workload,
            build: workload.keyed(&self.key),
            sim: GpuSimulator::new(self.gpu.clone()),
            coalescer: Coalescer::with_block_size(self.gpu.block_size)?,
            launch: self.launch.unwrap_or(LaunchPolicy::Uniform(self.policy)),
            counted,
        })
    }

    /// One kernel launch (plaintext `i`): encrypts, simulates (or
    /// functionally counts), and returns everything the experiment
    /// records about it. Runs on worker threads; must depend only on its
    /// arguments. Crate-visible so the streaming [`crate::SimulatorSource`]
    /// generates launches through the exact same path.
    pub(crate) fn run_one_launch(
        &self,
        launcher: &Launcher,
        i: usize,
        lines: &[Block],
    ) -> Result<LaunchData, ExperimentError> {
        let Launcher {
            workload,
            build,
            sim,
            coalescer,
            launch,
            counted,
        } = launcher;
        let (launch, workload) = (*launch, *workload);
        let kernel = build(lines.to_vec(), self.gpu.warp_size);
        // One kernel launch per plaintext; each launch re-draws the
        // policy randomness from its own seed.
        let launch_seed = self.seed.wrapping_add(1 + i as u64);
        let mut out = LaunchData {
            ciphertexts: Arc::new(kernel.attack_text().to_vec()),
            by_byte: [0; 16],
            total_accesses: 0,
            total_requests: 0,
            last_round_cycles: None,
            total_cycles: None,
            telemetry: None,
        };
        if self.timing {
            let stats = if let Some(spec) = &self.telemetry {
                let mut sink = spec.sink();
                let stats =
                    sim.run_instrumented(&kernel, launch, launch_seed, &self.faults, &mut sink)?;
                out.telemetry = Some(sink);
                stats
            } else {
                sim.run_launch_faulted(&kernel, launch, launch_seed, &self.faults)?
            };
            for (j, slot) in out.by_byte.iter_mut().enumerate() {
                *slot = stats.accesses_for_tag(LAST_ROUND_TAG_BASE + j as u16);
            }
            out.total_accesses = stats.total_accesses;
            out.total_requests = stats.total_requests;
            // `try_` keeps a kernel that never passes the boundary round
            // from silently reporting the whole run as "post-boundary"
            // time (registered workloads always pass it; a custom kernel
            // may not).
            out.last_round_cycles = stats.try_cycles_after_round(workload.timing_boundary_round());
            out.total_cycles = Some(stats.total_cycles);
        } else {
            let counts =
                functional_counts(&kernel, launch, launch_seed, coalescer, &self.gpu, *counted)?;
            out.by_byte = counts.by_byte;
            out.total_accesses = counts.total;
            out.total_requests = counts.requests;
        }
        Ok(out)
    }
}

/// Which loads a functional (timing-free) launch counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counted {
    /// Every load: the materialized run records totals and requests.
    Every,
    /// Only the tagged attacked-round loads: a streaming source reads
    /// nothing but the per-byte counts, so `total_accesses` and
    /// `total_requests` then cover those loads only.
    Attacked,
}

/// What every launch of one experiment shares (see
/// [`ExperimentConfig::launcher`]).
pub(crate) struct Launcher {
    pub(crate) workload: &'static dyn KernelWorkload,
    build: KernelBuilder,
    sim: GpuSimulator,
    coalescer: Coalescer,
    launch: LaunchPolicy,
    counted: Counted,
}

/// Everything one launch contributes to [`ExperimentData`].
pub(crate) struct LaunchData {
    pub(crate) ciphertexts: Arc<Vec<Block>>,
    pub(crate) by_byte: [u64; 16],
    pub(crate) total_accesses: u64,
    pub(crate) total_requests: u64,
    pub(crate) last_round_cycles: Option<u64>,
    pub(crate) total_cycles: Option<u64>,
    pub(crate) telemetry: Option<SimTelemetry>,
}

struct FunctionalCounts {
    total: u64,
    requests: u64,
    by_byte: [u64; 16],
}

/// Counts coalesced accesses without the cycle model, drawing the same
/// per-warp subwarp assignments the simulator would (same seed, same warp
/// order) — for every warp, whichever loads `counted` selects.
fn functional_counts(
    kernel: &dyn Kernel,
    launch: LaunchPolicy,
    launch_seed: u64,
    coalescer: &Coalescer,
    gpu: &GpuConfig,
    counted: Counted,
) -> Result<FunctionalCounts, ExperimentError> {
    let mut rng = StdRng::seed_from_u64(launch_seed);
    let mut counts = FunctionalCounts {
        total: 0,
        requests: 0,
        by_byte: [0; 16],
    };
    let (default_policy, vulnerable_policy) = launch.policies();
    let uniform = matches!(launch, LaunchPolicy::Uniform(_));
    let (mut masks, mut vulnerable_masks) = (SubwarpMasks::new(), SubwarpMasks::new());
    for w in 0..kernel.num_warps() {
        let width = kernel.warp_width(w).min(gpu.warp_size);
        // Same draw order as the simulator's launch stage, so seeded
        // functional runs reproduce its assignments exactly.
        default_policy.assignment_into(width, &mut rng, &mut masks)?;
        // A uniform launch has no vulnerable tags, so it draws once.
        if !uniform {
            vulnerable_policy.assignment_into(width, &mut rng, &mut vulnerable_masks)?;
        }
        for instr in kernel.trace(w).instrs() {
            let TraceInstr::Load { addrs, tag } = instr else {
                continue;
            };
            let attacked = *tag >= LAST_ROUND_TAG_BASE;
            if counted == Counted::Attacked && !attacked {
                continue;
            }
            let m = if launch.is_vulnerable_tag(*tag) {
                &vulnerable_masks
            } else {
                &masks
            };
            let n = coalescer.count_masked(m, addrs) as u64;
            counts.total += n;
            counts.requests += addrs.iter().filter(|a| a.is_some()).count() as u64;
            if attacked {
                counts.by_byte[usize::from(tag - LAST_ROUND_TAG_BASE)] += n;
            }
        }
    }
    Ok(counts)
}

/// Results of one experiment: per-plaintext observations.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentData {
    /// The deployed policy.
    pub policy: CoalescingPolicy,
    /// Name of the workload that produced the data (`"aes"` for the
    /// paper's kernel).
    pub workload: String,
    /// The victim key (available here because we are the experimenter;
    /// the attack itself never reads it).
    pub key: [u8; 16],
    /// Per-plaintext attacker-visible text lines (ciphertexts for AES,
    /// plaintexts for the first-round workloads), shared via [`Arc`] so
    /// packaging the data as attack samples (possibly several times, for
    /// different timing sources) never deep-copies the blocks.
    pub ciphertexts: Vec<Arc<Vec<Block>>>,
    /// Per-plaintext last-round coalesced accesses.
    pub last_round_accesses: Vec<u64>,
    /// Per-plaintext last-round accesses split by ciphertext byte
    /// position (`[n][j]` = plaintext `n`, byte `j`).
    pub last_round_accesses_by_byte: Vec<[u64; 16]>,
    /// Per-plaintext total coalesced accesses.
    pub total_accesses: Vec<u64>,
    /// Per-plaintext pre-coalescing lane requests.
    pub total_requests: Vec<u64>,
    /// Per-plaintext last-round cycles (timing runs only).
    pub last_round_cycles: Option<Vec<u64>>,
    /// Per-plaintext total cycles (timing runs only).
    pub total_cycles: Option<Vec<u64>>,
    /// Per-launch traces and the aggregate leakage profile (present only
    /// when the config set [`ExperimentConfig::telemetry`]). Cycle-domain
    /// and deterministic, so it participates in `PartialEq` like every
    /// other observation.
    pub telemetry: Option<ExperimentTelemetry>,
}

impl ExperimentData {
    /// The true last-round key (ground truth for scoring recoveries).
    pub fn true_last_round_key(&self) -> [u8; 16] {
        rcoal_aes::Aes128::new(&self.key).last_round_key()
    }

    /// The registry entry of the workload that produced this data.
    /// Unknown names (e.g. data decoded from a future cache format)
    /// fall back to the AES entry, matching the pre-registry pipeline.
    pub fn workload_def(&self) -> &'static dyn KernelWorkload {
        rcoal_workload::find(&self.workload).unwrap_or(rcoal_workload::registry()[0])
    }

    /// The true attacked subkey for this data's workload (ground truth
    /// for scoring recoveries): the last-round key for AES, the
    /// whitening material for the first-round workloads.
    pub fn attacked_subkey(&self) -> [u8; 16] {
        self.workload_def().attacked_subkey(&self.key)
    }

    /// Packages the observations as attack samples with the chosen
    /// timing source.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::TimingUnavailable`] if a cycle-based source is
    /// requested from a functional-only run, and
    /// [`ExperimentError::Config`] for an out-of-range byte index.
    pub fn attack_samples(
        &self,
        source: TimingSource,
    ) -> Result<Vec<AttackSample>, ExperimentError> {
        let times: Vec<f64> = match source {
            TimingSource::LastRoundCycles => self
                .last_round_cycles
                .as_ref()
                .ok_or(ExperimentError::TimingUnavailable {
                    what: "TimingSource::LastRoundCycles",
                })?
                .iter()
                .map(|&c| c as f64)
                .collect(),
            TimingSource::TotalCycles => self
                .total_cycles
                .as_ref()
                .ok_or(ExperimentError::TimingUnavailable {
                    what: "TimingSource::TotalCycles",
                })?
                .iter()
                .map(|&c| c as f64)
                .collect(),
            TimingSource::LastRoundAccesses => {
                self.last_round_accesses.iter().map(|&c| c as f64).collect()
            }
            TimingSource::ByteAccesses(j) => {
                if usize::from(j) >= 16 {
                    return Err(ExperimentError::Config(format!(
                        "ByteAccesses index {j} out of range (observations carry 16 \
                         per-byte channels)"
                    )));
                }
                self.last_round_accesses_by_byte
                    .iter()
                    .map(|b| b[usize::from(j)] as f64)
                    .collect()
            }
        };
        Ok(self
            .ciphertexts
            .iter()
            .zip(times)
            .map(|(cts, time)| AttackSample {
                // Arc clone: the sample shares the experiment's blocks.
                ciphertexts: Arc::clone(cts),
                time,
            })
            .collect())
    }

    /// Mean total cycles per plaintext.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::TimingUnavailable`] on a functional-only run.
    pub fn mean_total_cycles(&self) -> Result<f64, ExperimentError> {
        Ok(mean_u64(self.total_cycles.as_ref().ok_or(
            ExperimentError::TimingUnavailable {
                what: "mean_total_cycles",
            },
        )?))
    }

    /// Mean last-round cycles per plaintext.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::TimingUnavailable`] on a functional-only run.
    pub fn mean_last_round_cycles(&self) -> Result<f64, ExperimentError> {
        Ok(mean_u64(self.last_round_cycles.as_ref().ok_or(
            ExperimentError::TimingUnavailable {
                what: "mean_last_round_cycles",
            },
        )?))
    }

    /// Mean total coalesced accesses per plaintext.
    pub fn mean_total_accesses(&self) -> f64 {
        mean_u64(&self.total_accesses)
    }

    /// Mean last-round coalesced accesses per plaintext.
    pub fn mean_last_round_accesses(&self) -> f64 {
        mean_u64(&self.last_round_accesses)
    }

    /// Number of plaintexts observed.
    pub fn len(&self) -> usize {
        self.ciphertexts.len()
    }

    /// Whether the experiment observed no plaintexts.
    pub fn is_empty(&self) -> bool {
        self.ciphertexts.is_empty()
    }
}

fn mean_u64(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        // Accumulate in f64: a u64 sum overflows at ~2^64 total cycles,
        // which long timing sweeps can reach.
        v.iter().fold(0.0, |acc, &x| acc + x as f64) / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcoal_aes::Aes128;

    fn quick(policy: CoalescingPolicy, timing: bool) -> ExperimentData {
        let mut cfg = ExperimentConfig::new(policy, 4, 32).with_seed(7);
        cfg.timing = timing;
        cfg.run().unwrap()
    }

    #[test]
    fn ciphertexts_match_reference_aes() {
        let data = quick(CoalescingPolicy::Baseline, false);
        let plaintexts = random_plaintexts(4, 32, 7);
        let aes = Aes128::new(&DEMO_KEY);
        for (p, c) in plaintexts.iter().zip(&data.ciphertexts) {
            for (line, ct) in p.iter().zip(c.iter()) {
                assert_eq!(aes.encrypt_block(*line), *ct);
            }
        }
    }

    #[test]
    fn functional_counts_match_simulator_counts() {
        for policy in [
            CoalescingPolicy::Baseline,
            CoalescingPolicy::Disabled,
            CoalescingPolicy::fss(4).unwrap(),
            CoalescingPolicy::rss_rts(8).unwrap(),
        ] {
            let timing = quick(policy, true);
            let functional = quick(policy, false);
            assert_eq!(timing.total_accesses, functional.total_accesses, "{policy}");
            assert_eq!(
                timing.last_round_accesses, functional.last_round_accesses,
                "{policy}"
            );
            assert_eq!(timing.total_requests, functional.total_requests);
        }
    }

    #[test]
    fn last_round_access_bounds() {
        // Baseline: per byte 1..=16 blocks, 16 bytes → 16..=256 per warp.
        let data = quick(CoalescingPolicy::Baseline, false);
        for &a in &data.last_round_accesses {
            assert!((16..=256).contains(&a), "accesses {a}");
        }
        // Disabled: exactly 32 threads × 16 bytes = 512.
        let data = quick(CoalescingPolicy::Disabled, false);
        assert!(data.last_round_accesses.iter().all(|&a| a == 512));
    }

    #[test]
    fn attack_samples_carry_requested_source() {
        let data = quick(CoalescingPolicy::Baseline, true);
        let s = data
            .attack_samples(TimingSource::LastRoundAccesses)
            .unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].time, data.last_round_accesses[0] as f64);
        let s = data.attack_samples(TimingSource::TotalCycles).unwrap();
        assert_eq!(s[0].time, data.total_cycles.as_ref().unwrap()[0] as f64);
        assert_eq!(s[0].ciphertexts.len(), 32);
    }

    #[test]
    fn cycle_source_requires_timing_run() {
        let data = quick(CoalescingPolicy::Baseline, false);
        assert_eq!(
            data.attack_samples(TimingSource::LastRoundCycles)
                .unwrap_err(),
            ExperimentError::TimingUnavailable {
                what: "TimingSource::LastRoundCycles"
            }
        );
        assert!(matches!(
            data.mean_total_cycles(),
            Err(ExperimentError::TimingUnavailable { .. })
        ));
        assert!(matches!(
            data.mean_last_round_cycles(),
            Err(ExperimentError::TimingUnavailable { .. })
        ));
    }

    #[test]
    fn invalid_configs_fail_validation() {
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 0, 32);
        assert!(matches!(cfg.run(), Err(ExperimentError::Config(_))));
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 4, 0);
        assert!(matches!(cfg.run(), Err(ExperimentError::Config(_))));
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 4, 32)
            .with_faults(rcoal_gpu_sim::FaultPlan::seeded(1).with_drop(2.0, 1));
        assert!(matches!(cfg.validate(), Err(ExperimentError::Config(_))));
    }

    #[test]
    fn randomized_policies_vary_across_plaintexts() {
        let data = quick(CoalescingPolicy::rss_rts(4).unwrap(), false);
        // With random subwarps the per-plaintext last-round counts should
        // not all coincide (holds with overwhelming probability).
        let first = data.last_round_accesses[0];
        assert!(
            data.last_round_accesses.iter().any(|&a| a != first),
            "counts: {:?}",
            data.last_round_accesses
        );
    }

    #[test]
    fn subwarping_increases_accesses_and_time() {
        let base = quick(CoalescingPolicy::Baseline, true);
        let fss16 = quick(CoalescingPolicy::fss(16).unwrap(), true);
        assert!(fss16.mean_total_accesses() > base.mean_total_accesses());
        assert!(fss16.mean_total_cycles().unwrap() > base.mean_total_cycles().unwrap());
        assert!(fss16.mean_last_round_accesses() > base.mean_last_round_accesses());
        assert!(!base.is_empty());
        assert_eq!(base.len(), 4);
    }

    #[test]
    fn telemetry_collects_per_launch_traces() {
        let data = ExperimentConfig::new(CoalescingPolicy::Baseline, 3, 32)
            .with_seed(7)
            .with_telemetry(TelemetrySpec::full())
            .run()
            .unwrap();
        let tel = data.telemetry.as_ref().unwrap();
        assert_eq!(tel.launches.len(), 3);
        assert!(tel.num_events() > 0);
        assert_eq!(tel.launches[1].index, 1);
        // Every launch issues the same loads, so the aggregate profile
        // sums the per-launch ones.
        let per_launch: u64 = tel
            .launches
            .iter()
            .map(|l| l.profile.accesses_per_load.count())
            .sum();
        assert_eq!(tel.profile.accesses_per_load.count(), per_launch);
        let jsonl = tel.trace_jsonl();
        assert!(jsonl.lines().count() == tel.num_events());
        assert!(jsonl.contains("\"launch\":2,"));
    }

    #[test]
    fn telemetry_requires_timing() {
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 2, 32)
            .with_telemetry(TelemetrySpec::profile_only())
            .functional_only();
        assert!(matches!(cfg.validate(), Err(ExperimentError::Config(_))));
    }

    #[test]
    fn telemetry_does_not_perturb_observations() {
        let plain = quick(CoalescingPolicy::fss(4).unwrap(), true);
        let mut cfg = ExperimentConfig::new(CoalescingPolicy::fss(4).unwrap(), 4, 32)
            .with_seed(7)
            .with_telemetry(TelemetrySpec::full());
        cfg.timing = true;
        let mut instrumented = cfg.run().unwrap();
        instrumented.telemetry = None;
        assert_eq!(instrumented, plain, "instrumentation must be invisible");
    }

    #[test]
    fn host_metrics_record_span_and_pool() {
        let registry = rcoal_telemetry::MetricsRegistry::new();
        let data = ExperimentConfig::new(CoalescingPolicy::Baseline, 3, 32)
            .with_telemetry(TelemetrySpec::profile_only())
            .with_host_metrics(&registry)
            .with_threads(2)
            .run()
            .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["span.experiment.run.calls"], 1);
        assert_eq!(snap.counters["pool.launches.items"], 3);
        assert_eq!(snap.counters["sim.launches"], 3);
        assert!(snap.hists["sim.mem_latency"].count > 0);
        assert!(data.telemetry.is_some());
    }

    #[test]
    fn true_last_round_key_matches_reference() {
        let data = quick(CoalescingPolicy::Baseline, false);
        assert_eq!(
            data.true_last_round_key(),
            Aes128::new(&DEMO_KEY).last_round_key()
        );
        assert_eq!(data.workload, "aes");
        assert_eq!(data.attacked_subkey(), data.true_last_round_key());
    }

    #[test]
    fn unknown_workload_fails_validation() {
        let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 2, 32).with_workload("des-cbc");
        let err = cfg.run().unwrap_err();
        assert!(
            matches!(&err, ExperimentError::Config(msg) if msg.contains("des-cbc")),
            "{err}"
        );
    }

    #[test]
    fn cipher_workloads_run_and_expose_plaintext_attack_text() {
        for name in ["present80", "gift64", "rectangle", "gather"] {
            let cfg = ExperimentConfig::new(CoalescingPolicy::Baseline, 3, 32)
                .with_workload(name)
                .with_seed(7);
            let data = cfg.run().unwrap();
            assert_eq!(data.workload, name);
            assert_eq!(data.len(), 3);
            // First-round attacks observe the plaintext stream itself.
            let plaintexts = random_plaintexts(3, 32, 7);
            for (p, seen) in plaintexts.iter().zip(&data.ciphertexts) {
                assert_eq!(p, seen.as_ref(), "{name}");
            }
            let cycles = data.last_round_cycles.as_ref().unwrap();
            assert!(cycles.iter().all(|&c| c > 0), "{name}: {cycles:?}");
            assert!(data.mean_total_accesses() > 0.0, "{name}");
        }
    }

    #[test]
    fn workload_functional_counts_match_simulator_counts() {
        for name in ["present80", "rectangle"] {
            for policy in [
                CoalescingPolicy::Baseline,
                CoalescingPolicy::fss(8).unwrap(),
            ] {
                let cfg = ExperimentConfig::new(policy, 3, 32)
                    .with_workload(name)
                    .with_seed(5);
                let timing = cfg.clone().run().unwrap();
                let functional = cfg.functional_only().run().unwrap();
                assert_eq!(timing.total_accesses, functional.total_accesses, "{name}");
                assert_eq!(
                    timing.last_round_accesses_by_byte, functional.last_round_accesses_by_byte,
                    "{name}"
                );
            }
        }
    }
}
