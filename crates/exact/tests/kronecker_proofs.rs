//! Exhaustive (proof-grade) verification of the paper's findings on the
//! Kronecker delta — the role the paper's conclusion predicts for SILVER.
//!
//! Unlike the statistical campaign these verdicts are exact: every
//! sharing and every randomness assignment in each probe's support is
//! enumerated.

mod common;

use common::verdict_digest;
use mmaes_circuits::build_kronecker;
use mmaes_exact::{ExactConfig, ExactVerifier};
use mmaes_masking::KroneckerRandomness;

/// Verdict-listing digests of the schedules below, recorded before the
/// verifier moved onto the shared packer and `Table` store: any change
/// to a counterexample key, a probability or `enumerated` shows here.
const EQ6_DIGEST: u64 = 0x989082f670cedf62;
const FULL_DIGEST: u64 = 0xe2faed9786b33bb9;
const R5_EQUALS_R6_DIGEST: u64 = 0xda222652d7efb7e5;

fn verify(schedule: &KroneckerRandomness) -> mmaes_exact::ExactReport {
    let circuit = build_kronecker(schedule).expect("valid circuit");
    let verifier = ExactVerifier::with_config(
        &circuit.netlist,
        ExactConfig {
            observe_cycle: 5,
            max_support_bits: 24,
            ..ExactConfig::default()
        },
    );
    // Leak returns move to the caller via the report.
    let report = verifier.verify_all();
    assert!(
        report.too_wide().is_empty(),
        "all Kronecker probes must be enumerable: {:?}",
        report.too_wide()
    );
    report
}

#[test]
fn e4_eq6_leak_is_proven_with_counterexample() {
    let report = verify(&KroneckerRandomness::de_meyer_eq6());
    assert!(report.leak_found(), "{report}");
    assert_eq!(verdict_digest(&report), EQ6_DIGEST);
    // The witness quantifies a genuine distribution gap.
    let (label, counterexample) = report.leaks()[0];
    assert!(
        (counterexample.probability_a - counterexample.probability_b).abs() > 1e-9,
        "{label}: {counterexample}"
    );
}

#[test]
fn full_schedule_is_proven_first_order_secure() {
    let report = verify(&KroneckerRandomness::full());
    assert!(report.proven_secure(), "{report}");
    assert_eq!(verdict_digest(&report), FULL_DIGEST);
}

#[test]
fn e5_eq9_is_proven_first_order_secure_under_glitches() {
    let report = verify(&KroneckerRandomness::proposed_eq9());
    assert!(report.proven_secure(), "{report}");
}

#[test]
fn e6_r5_equals_r6_leak_is_proven() {
    let report = verify(&KroneckerRandomness::r5_equals_r6());
    assert!(report.leak_found(), "{report}");
    assert_eq!(verdict_digest(&report), R5_EQUALS_R6_DIGEST);
}

#[test]
fn single_reuse_r1_r3_leak_is_proven() {
    let report = verify(&KroneckerRandomness::single_reuse_r1_r3());
    assert!(report.leak_found(), "{report}");
}

#[test]
fn transition_secure_schedules_are_proven_glitch_secure() {
    for reused in 1..=4 {
        let report = verify(&KroneckerRandomness::transition_secure(reused));
        assert!(report.proven_secure(), "r7=r{reused}:\n{report}");
    }
}
