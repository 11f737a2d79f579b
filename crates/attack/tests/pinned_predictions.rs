//! Cross-version pin of the predictor's RNG draw order.
//!
//! The randomized corresponding attacks (RSS, FSS+RTS, RSS+RTS) replay
//! the defense's randomness on the attacker's side, so every prediction
//! depends on the exact sequence of RNG calls the policy makes. The
//! in-crate tests only compare two paths of the *current* code against
//! each other; this test compares the current code against a committed
//! fixture of `PearsonAccumulator::state_bits()` recorded before the
//! predictor was rewritten around lane masks, so any change to the draw
//! order, the Monte-Carlo accumulation order or the block table shows
//! up as a bit difference.
//!
//! Regenerate (only for an intentional model change) with
//! `RCOAL_UPDATE_GOLDENS=1 cargo test -p rcoal-attack --test pinned_predictions`.

use rcoal_attack::{
    aes_oracle, Attack, AttackSample, StreamingByteRecovery, TableOracle, XorWhiteningOracle,
};
use rcoal_core::CoalescingPolicy;
use rcoal_rng::{Rng, SeedableRng, StdRng};
use std::fmt::Write as _;
use std::sync::Arc;

const FIXTURE: &str = "tests/fixtures/predictor_state_bits.txt";
/// 36 lines per sample: one full 32-lane warp plus a 4-lane tail, so the
/// fixture also pins the partial-warp path (FSS(8) cannot split 4 lanes
/// and degrades to one access per lane).
const LINES: usize = 36;
const SAMPLES: usize = 60;
const CHUNK: usize = 7;
const GUESSES: [u8; 5] = [0x00, 0x3c, 0x5a, 0xc3, 0xff];

fn samples(seed: u64) -> Vec<AttackSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..SAMPLES)
        .map(|_| {
            let lines: Vec<[u8; 16]> = (0..LINES)
                .map(|_| {
                    let mut b = [0u8; 16];
                    rng.fill(&mut b);
                    b
                })
                .collect();
            let time = rng.gen_range(0u64..4096) as f64 + 0.5;
            AttackSample {
                ciphertexts: Arc::new(lines),
                time,
            }
        })
        .collect()
}

/// (workload, policy spec, oracle, Monte-Carlo replays, attacked byte).
type Case = (
    &'static str,
    &'static str,
    Arc<dyn TableOracle>,
    usize,
    usize,
);

fn cases() -> Vec<Case> {
    let present: Arc<dyn TableOracle> = Arc::new(XorWhiteningOracle::new(3, 8));
    vec![
        ("aes", "rss-rts:4", aes_oracle(), 3, 3),
        ("aes", "fss-rts:8", aes_oracle(), 3, 3),
        ("aes", "rss:4:normal", aes_oracle(), 3, 3),
        ("aes", "fss:8", aes_oracle(), 3, 3),
        ("aes", "baseline", aes_oracle(), 1, 3),
        ("present80", "rss-rts:4", Arc::clone(&present), 3, 5),
        ("present80", "baseline", present, 1, 5),
    ]
}

/// One fixture line per (case, guess): the streamed accumulator state
/// and the batch engine's correlation, as hex bit patterns.
fn render() -> String {
    let samples = samples(0x9e37_79b9);
    let mut out = String::new();
    for (workload, spec, oracle, mc, byte) in cases() {
        let policy: CoalescingPolicy = spec.parse().unwrap();
        let attack = Attack::against(policy, 32)
            .with_oracle(oracle)
            .with_seed(0x1234_5678)
            .with_mc_samples(mc)
            .with_threads(Some(2));
        let mut engine = StreamingByteRecovery::new(&attack, byte).unwrap();
        for chunk in samples.chunks(CHUNK) {
            engine.push_chunk(chunk);
        }
        let batch = attack.correlations_for_byte(&samples, byte).unwrap();
        for g in GUESSES {
            let bits = engine.accumulator(g).state_bits();
            write!(out, "{workload} {spec} mc={mc} byte={byte} guess={g:02x}").unwrap();
            for b in bits {
                write!(out, " {b:016x}").unwrap();
            }
            writeln!(out, " batch={:016x}", batch[usize::from(g)].to_bits()).unwrap();
        }
    }
    out
}

#[test]
fn predictor_state_matches_the_pinned_fixture() {
    let rendered = render();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var("RCOAL_UPDATE_GOLDENS").as_deref() == Ok("1") {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let pinned = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}; regenerate with RCOAL_UPDATE_GOLDENS=1",
            path.display()
        )
    });
    for (i, (got, want)) in rendered.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} differs", i + 1);
    }
    assert_eq!(rendered.lines().count(), pinned.lines().count());
}
