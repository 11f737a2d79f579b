//! CI gate semantics: turn a [`LeakageReport`] plus an expectation
//! into a pass/fail with human-readable reasons.
//!
//! The gate is falsifiable in both directions — a configuration
//! claimed secure fails if it leaks, and the known-vulnerable baseline
//! fails if the instruments *don't* register the leak (which would mean
//! the audit itself has gone blind, the more dangerous failure).

use crate::report::LeakageReport;
use std::fmt;
use std::str::FromStr;

/// What the caller claims about the audited configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// The configuration is expected to leak (e.g. the FSS baseline);
    /// the gate fails if the audit does NOT flag it.
    Leaky,
    /// The configuration is claimed secure; the gate fails if any
    /// instrument flags it or the measurement disagrees with theory.
    Secure,
}

impl Expectation {
    /// Stable CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            Expectation::Leaky => "leaky",
            Expectation::Secure => "secure",
        }
    }
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Expectation {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "leaky" => Ok(Expectation::Leaky),
            "secure" => Ok(Expectation::Secure),
            other => Err(format!(
                "unknown gate expectation '{other}' (expected leaky or secure)"
            )),
        }
    }
}

/// Result of gating a report against an expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Whether the report meets the expectation.
    pub pass: bool,
    /// One line per violated condition (empty on pass).
    pub failures: Vec<String>,
}

/// Evaluates the gate.
///
/// `Leaky` requires the full verdict — `|t|` at/above threshold AND
/// corrected MI above the floor — so a detector that has silently lost
/// either instrument fails loudly. `Secure` is stricter than "not
/// leaky": EITHER instrument firing fails it (a one-instrument signal
/// is still a signal). In both directions the theory cross-check, when
/// the channel supports one, must agree — a "secure" run whose
/// measured ρ̂ sits outside the predicted band is reporting numbers the
/// model can't vouch for, and a "leaky" baseline that disagrees with
/// ρ = 1 means the attack harness itself is broken.
pub fn evaluate_gate(report: &LeakageReport, expectation: Expectation) -> GateOutcome {
    let mut failures = Vec::new();
    let t = report.timing.welch.t;
    let t_thr = report.spec.t_threshold;
    let mi = report.timing.mi.corrected_bits;
    let mi_floor = report.spec.mi_floor_bits;
    match expectation {
        Expectation::Leaky => {
            if !report.timing.welch.exceeds(t_thr) {
                failures.push(format!(
                    "expected leaky, but TVLA |t| = {:.2} is below the threshold {t_thr}",
                    t.abs()
                ));
            }
            if mi <= mi_floor {
                failures.push(format!(
                    "expected leaky, but corrected MI = {mi:.4} bits is at or below the floor {mi_floor}"
                ));
            }
        }
        Expectation::Secure => {
            if report.timing.welch.exceeds(t_thr) {
                failures.push(format!(
                    "claimed secure, but TVLA |t| = {:.2} is at or above the threshold {t_thr}",
                    t.abs()
                ));
            }
            if mi > mi_floor {
                failures.push(format!(
                    "claimed secure, but corrected MI = {mi:.4} bits exceeds the floor {mi_floor}"
                ));
            }
        }
    }
    if let Some(theory) = &report.theory {
        if !theory.ok {
            failures.push(format!(
                "measured rho = {:.4} disagrees with {}(m={}) prediction rho = {:.4} \
                 (tolerance {}/sqrt(n))",
                report.empirical_rho.abs(),
                theory.mechanism,
                theory.m,
                theory.predicted_rho,
                theory.tolerance
            ));
        }
    }
    GateOutcome {
        pass: failures.is_empty(),
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AuditSpec;
    use crate::stream::tests::{audit_baseline, perfect_leak_samples};

    fn leaky_report() -> LeakageReport {
        let (samples, true_byte) = perfect_leak_samples(128);
        audit_baseline(&samples, true_byte, &[], &AuditSpec::new()).unwrap()
    }

    #[test]
    fn expectation_spelling_round_trips() {
        assert_eq!("leaky".parse::<Expectation>().unwrap(), Expectation::Leaky);
        assert_eq!(
            "secure".parse::<Expectation>().unwrap(),
            Expectation::Secure
        );
        assert_eq!(Expectation::Secure.to_string(), "secure");
        assert!("maybe".parse::<Expectation>().is_err());
    }

    #[test]
    fn gate_is_falsifiable_in_both_directions() {
        let report = leaky_report();
        assert!(report.leaky);
        let as_leaky = evaluate_gate(&report, Expectation::Leaky);
        assert!(as_leaky.pass, "failures: {:?}", as_leaky.failures);
        let as_secure = evaluate_gate(&report, Expectation::Secure);
        assert!(!as_secure.pass, "a leaky report must fail a secure claim");
        assert!(!as_secure.failures.is_empty());
        assert!(
            as_secure.failures.iter().any(|f| f.contains("TVLA")),
            "{:?}",
            as_secure.failures
        );
    }

    #[test]
    fn silent_channel_fails_the_leaky_expectation() {
        let mut report = leaky_report();
        // Flatten the verdict as if the instruments saw nothing.
        report.timing.welch.t = 0.0;
        report.timing.mi.corrected_bits = 0.0;
        report.timing.leaky = false;
        report.leaky = false;
        report.empirical_rho = 1.0; // keep theory agreeing
        let out = evaluate_gate(&report, Expectation::Leaky);
        assert!(!out.pass, "blind instruments must fail the baseline gate");
        assert_eq!(out.failures.len(), 2, "both instruments reported silent");
        let out = evaluate_gate(&report, Expectation::Secure);
        assert!(out.pass);
    }

    #[test]
    fn theory_disagreement_fails_either_expectation() {
        let mut report = leaky_report();
        report.empirical_rho = 0.2;
        if let Some(t) = report.theory.as_mut() {
            t.ok = false;
        }
        assert!(!evaluate_gate(&report, Expectation::Leaky).pass);
        let out = evaluate_gate(&report, Expectation::Secure);
        assert!(!out.pass);
        assert!(
            out.failures.iter().any(|f| f.contains("disagrees")),
            "{:?}",
            out.failures
        );
    }
}
