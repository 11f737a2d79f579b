//! What a workload run measured, and how it is reported.

use std::fmt::Write as _;

/// Per-layer totals of a traced run. Seconds are host wall time of calls
/// into each layer's public functions, timed from outside.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    pub attack_push_s: f64,
    pub attack_push_calls: u64,
    pub attack_predictions: u64,
    pub attack_checkpoint_s: f64,
    /// Building the 256-guess lanes (part of the attack's self time).
    pub attack_setup_s: f64,
    pub sim_s: f64,
    pub sim_calls: u64,
    pub sim_cycles: u64,
    pub sim_row_hit_sum: f64,
    pub sim_mem_latency_sum: u64,
    pub sim_accesses: u64,
    pub source_s: f64,
    pub source_calls: u64,
    pub source_samples: u64,
    pub runner_s: f64,
    pub runner_launched: u64,
    pub runner_served: u64,
    pub runner_hits: u64,
    pub build_s: f64,
    pub build_calls: u64,
    pub count_s: f64,
    pub core_accesses: u64,
    pub core_requests: u64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub decode_calls: u64,
    pub store_bytes: u64,
    pub audit_s: f64,
    pub audit_samples: u64,
    /// Wall time of the traced rounds, out-of-band replays excluded.
    pub traced_s: f64,
    /// Wall time of the untraced rounds paired with them (same seeds).
    pub paired_untraced_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

impl Ledger {
    /// Self time of each layer. `source` and `runner` are black boxes
    /// whose inner layers were replayed out of band on the same inputs,
    /// so the experiments layer keeps what those replays do not cover.
    fn self_times(&self) -> [(&'static str, f64); 7] {
        let children =
            self.build_s + self.count_s + self.sim_s + self.encode_s + self.decode_s + self.audit_s;
        [
            (
                "attack",
                self.attack_push_s + self.attack_checkpoint_s + self.attack_setup_s,
            ),
            ("gpu_sim", self.sim_s),
            (
                "experiments",
                (self.source_s + self.runner_s - children).max(0.0),
            ),
            ("workload", self.build_s),
            ("core", self.count_s),
            ("scenario", self.encode_s + self.decode_s),
            ("audit", self.audit_s),
        ]
    }

    fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mib = 1024.0 * 1024.0;
        let mut m: Vec<(String, f64, &'static str)> = vec![
            ("attack.push.seconds".into(), self.attack_push_s, "s"),
            (
                "attack.push.calls".into(),
                self.attack_push_calls as f64,
                "count",
            ),
            (
                "attack.predictions".into(),
                self.attack_predictions as f64,
                "count",
            ),
            (
                "attack.predictions_per_s".into(),
                ratio(self.attack_predictions as f64, self.attack_push_s),
                "1/s",
            ),
            (
                "attack.checkpoint.seconds".into(),
                self.attack_checkpoint_s,
                "s",
            ),
            ("gpu_sim.launch.seconds".into(), self.sim_s, "s"),
            (
                "gpu_sim.launch.calls".into(),
                self.sim_calls as f64,
                "count",
            ),
            ("gpu_sim.cycles".into(), self.sim_cycles as f64, "cycles"),
            (
                "gpu_sim.cycles_per_s".into(),
                ratio(self.sim_cycles as f64, self.sim_s),
                "cycles/s",
            ),
            (
                "gpu_sim.row_hit_rate".into(),
                ratio(self.sim_row_hit_sum, self.sim_calls as f64),
                "ratio",
            ),
            (
                "gpu_sim.mem_latency_mean".into(),
                ratio(self.sim_mem_latency_sum as f64, self.sim_accesses as f64),
                "cycles",
            ),
            ("source.seconds".into(), self.source_s, "s"),
            ("source.calls".into(), self.source_calls as f64, "count"),
            ("source.samples".into(), self.source_samples as f64, "count"),
            ("runner.seconds".into(), self.runner_s, "s"),
            (
                "runner.launched".into(),
                self.runner_launched as f64,
                "count",
            ),
            (
                "runner.hit_rate".into(),
                ratio(self.runner_hits as f64, self.runner_served as f64),
                "ratio",
            ),
            ("workload.build.seconds".into(), self.build_s, "s"),
            (
                "workload.build.calls".into(),
                self.build_calls as f64,
                "count",
            ),
            ("core.count.seconds".into(), self.count_s, "s"),
            ("core.accesses".into(), self.core_accesses as f64, "count"),
            ("core.requests".into(), self.core_requests as f64, "count"),
            (
                "core.coalesce_ratio".into(),
                ratio(self.core_accesses as f64, self.core_requests as f64),
                "ratio",
            ),
            ("scenario.encode.seconds".into(), self.encode_s, "s"),
            ("scenario.decode.seconds".into(), self.decode_s, "s"),
            (
                "scenario.decode.calls".into(),
                self.decode_calls as f64,
                "count",
            ),
            (
                "scenario.store_bytes".into(),
                self.store_bytes as f64,
                "bytes",
            ),
            (
                "scenario.decode.mib_per_s".into(),
                ratio(self.store_bytes as f64 / mib, self.decode_s),
                "MiB/s",
            ),
            ("audit.seconds".into(), self.audit_s, "s"),
            ("audit.samples".into(), self.audit_samples as f64, "count"),
        ];
        let selves = self.self_times();
        let covered: f64 = selves.iter().map(|(_, s)| s).sum();
        for (layer, s) in selves {
            m.push((
                format!("{layer}.self_frac"),
                ratio(s, self.traced_s),
                "ratio",
            ));
        }
        m.push((
            "unattributed_frac".into(),
            ratio(self.traced_s - covered, self.traced_s),
            "ratio",
        ));
        m.push((
            "trace.overhead_frac".into(),
            ratio(self.traced_s, self.paired_untraced_s) - 1.0,
            "ratio",
        ));
        m
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub(crate) struct Run {
    /// Operations attempted: chunks (streamed) or scenario rows (sweep).
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Samples through the untraced rounds.
    pub samples: u64,
    /// Wall time of the untraced rounds (set-up and checks excluded).
    pub busy_s: f64,
    /// Latency of each untraced chunk (sweep-store: replay-pass chunks).
    pub chunk_ms: Vec<f64>,
    /// Mean set-up time of each batch of set-ups.
    pub setup_s: Vec<f64>,
    /// Named per-round phase times, reported for people only.
    pub phases: Vec<(&'static str, Vec<f64>)>,
    /// Peak resident memory of the workload's measured rounds.
    pub peak_rss_mib: f64,
    /// Output digest of each round, in round order.
    pub digests: Vec<String>,
    /// Output digest of the once-per-run verdict check, if any.
    pub gate_digest: Option<String>,
    pub ledger: Ledger,
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Resets the process's peak resident memory to its current value, so the
/// next [`peak_rss_mib`] covers only what ran since (Linux `clear_refs`).
pub(crate) fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting peak RSS: {e}"))
}

/// Peak resident memory since the last [`reset_peak_rss`] (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// FNV-1a over the round digests: one value that changes if any
/// simulated statistic or verdict changes.
fn fnv1a(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

impl Run {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    fn end_to_end(&self) -> Vec<(String, f64, &'static str)> {
        vec![
            (
                "samples_per_s".into(),
                ratio(self.samples as f64, self.busy_s),
                "1/s",
            ),
            ("chunk_p50_ms".into(), quantile(&self.chunk_ms, 0.5), "ms"),
            ("chunk_p90_ms".into(), quantile(&self.chunk_ms, 0.9), "ms"),
            ("setup_s".into(), quantile(&self.setup_s, 0.5), "s"),
            ("peak_rss_mib".into(), self.peak_rss_mib, "MiB"),
        ]
    }

    /// Human-readable lines: every metric by name and unit, the checks,
    /// and the output digest.
    pub fn print_human(&self, workload: &str, trace: bool) {
        println!("== {workload}");
        for (name, value, unit) in self.end_to_end() {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        println!(
            "  {:<28} {:>16.6} ratio ({} of {} operations)",
            "failed_frac",
            ratio(self.failed as f64, self.attempted as f64),
            self.failed,
            self.attempted
        );
        println!(
            "  chunks: {} (p90 has {} beyond it), set-up samples: {}",
            self.chunk_ms.len(),
            self.chunk_ms.len() / 10,
            self.setup_s.len()
        );
        for (name, values) in &self.phases {
            println!(
                "  {name:<28} {:>16.6} s (median of {} rounds)",
                quantile(values, 0.5),
                values.len()
            );
        }
        if trace {
            for (name, value, unit) in self.ledger.metrics() {
                println!("  {name:<28} {value:>16.6} {unit}");
            }
        }
        if let Some(first) = self.digests.first() {
            println!("  digest[round 0]: {first}");
        }
        if let Some(gate) = &self.gate_digest {
            println!("  digest[verdict check]: {gate}");
        }
        println!(
            "  digest[{} rounds]: {:016x}",
            self.digests.len(),
            fnv1a(&self.digests)
        );
        for why in &self.failures {
            println!("  FAILED: {why}");
        }
    }

    /// The result object: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics = if trace {
            self.ledger.metrics()
        } else {
            self.end_to_end()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}
