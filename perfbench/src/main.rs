//! The repository benchmark.
//!
//! ```text
//! rcoal-perfbench --workload <key-functional|byte-timed|sweep-store|all>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed loop: one consumer pulls the next chunk only
//! after the previous one is done, and rounds of fixed size repeat until
//! `--seconds` have passed (the round in flight always completes, so every
//! round's outputs can be checked). Inputs derive from `--seed` alone.
//!
//! `--trace 0` measures the end-to-end metrics through the public entry
//! points a user calls. `--trace 1` additionally drives each pipeline by
//! hand through the public calls of every layer and times each call from
//! outside, giving the per-layer ledger; each traced round is paired with
//! an untraced round on the same seed, so the run states its own tracing
//! overhead. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the process exits
//! nonzero when any output check failed.
//!
//! The simulated GPU has no real-hardware reference in this repository:
//! the model is unvalidated, and no accuracy figure is reported.

mod ledger;
mod replay;
mod streamed;
mod sweep;

use ledger::Run;
use std::process::ExitCode;

/// Settings shared by every workload.
pub(crate) struct Ctx {
    /// Workload seed; round `r` derives its inputs from `round_seed(seed, r)`.
    pub seed: u64,
    /// Minimum measured time; the last round always completes.
    pub seconds: f64,
    /// Worker threads handed to every layer.
    pub threads: usize,
    /// Whether to record the per-layer ledger.
    pub trace: bool,
}

/// Lines per launch: one full 32-thread warp, the paper's §VI setup.
pub(crate) const LINES: usize = 32;

/// Set-ups timed back to back as one `setup_s` sample, whose value is
/// their mean: a single set-up takes tens of microseconds to a
/// millisecond, too short to time alone against timer and scheduler jitter.
const SETUP_BATCH: usize = 32;

/// `setup_s` samples taken in every round. `setup_s` is their median over
/// the run: sampled across the whole run, so neither a few slow
/// first-touch set-ups nor one moment's host state can set it.
pub(crate) const SETUP_SAMPLES_PER_ROUND: usize = 3;

/// Times `SETUP_BATCH` calls of `setup` (each result dropped at once) and
/// returns the mean seconds per set-up.
pub(crate) fn time_setups<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let start = std::time::Instant::now();
    for _ in 0..SETUP_BATCH {
        std::hint::black_box(setup()?);
    }
    Ok(start.elapsed().as_secs_f64() / SETUP_BATCH as f64)
}

/// SplitMix64 finalizer: decorrelates per-round seeds and key bytes.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The input seed of round `round`.
pub(crate) fn round_seed(seed: u64, round: u64) -> u64 {
    mix(seed ^ mix(round))
}

/// The victim key of a round, derived from its seed.
pub(crate) fn round_key(seed: u64) -> [u8; 16] {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&mix(seed.wrapping_add(1)).to_le_bytes());
    key[8..].copy_from_slice(&mix(seed.wrapping_add(2)).to_le_bytes());
    key
}

/// Runs `round(r)` for r = 0, 1, ... until `ctx.seconds` have passed;
/// the first round always runs and a started round always completes.
pub(crate) fn for_rounds(
    ctx: &Ctx,
    mut round: impl FnMut(u64) -> Result<(), String>,
) -> Result<(), String> {
    let start = std::time::Instant::now();
    let mut r = 0;
    while r == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        round(r)?;
        r += 1;
    }
    Ok(())
}

struct Args {
    workload: String,
    ctx: Ctx,
}

const WORKLOADS: [&str; 3] = ["key-functional", "byte-timed", "sweep-store"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be a positive number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected {} or all)",
            WORKLOADS.join(", ")
        ));
    }
    // At most two workers: the reference host has two cores, and a fixed
    // cap keeps figures comparable across larger machines.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            threads,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

fn run_workload(name: &str, ctx: &Ctx) -> Result<Run, String> {
    match name {
        "key-functional" => streamed::run(&streamed::KEY_FUNCTIONAL, ctx),
        "byte-timed" => streamed::run(&streamed::BYTE_TIMED, ctx),
        "sweep-store" => sweep::run(ctx),
        other => Err(format!("unknown workload '{other}'")),
    }
}

/// `rustc --version` of the toolchain on the path, which built the binary.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "host: nproc={nproc} threads={} profile={profile} rustc=\"{}\"",
        args.ctx.threads,
        rustc_version()
    );
    println!("model: simulated GPU, unvalidated against hardware; no accuracy figure");
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut all_correct = true;
    for name in names {
        match run_workload(name, &args.ctx) {
            Ok(run) => {
                run.print_human(name, args.ctx.trace);
                all_correct &= run.correct();
                println!("{}", run.result_json(args.ctx.trace));
            }
            Err(e) => {
                eprintln!("error: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
