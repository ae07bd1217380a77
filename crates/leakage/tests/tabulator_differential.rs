//! Differential tests for the two contingency-table stores: the dense
//! direct-indexed fast path and the hashed fallback must produce
//! byte-identical reports, CSVs and trajectories — across thread
//! counts, across a resume leg that switches stores mid-campaign, and
//! in mixed campaigns where a narrow key cap sends only some probing
//! sets down the dense path.

use std::path::PathBuf;

use mmaes_circuits::build_kronecker;
use mmaes_leakage::{
    CampaignSnapshot, Durability, EvaluationConfig, FixedVsRandom, LeakageReport, TabulatorMode,
};
use mmaes_masking::KroneckerRandomness;
use mmaes_netlist::{Netlist, NetlistBuilder, SecretId, SignalRole};

fn share_role(share: u8) -> SignalRole {
    SignalRole::Share {
        secret: SecretId(0),
        share,
        bit: 0,
    }
}

/// An unmasked recombination — leaks hard, so trajectories are rich.
fn leaky_design() -> Netlist {
    let mut builder = NetlistBuilder::new("tabulator_leaky");
    let s0 = builder.input("s0", share_role(0));
    let s1 = builder.input("s1", share_role(1));
    let secret = builder.xor2(s0, s1);
    let q = builder.register(secret);
    builder.output("q", q);
    builder.build().expect("valid")
}

fn eq6_config(threads: usize, tabulator: TabulatorMode) -> EvaluationConfig {
    EvaluationConfig {
        traces: 2048,
        threads,
        warmup_cycles: 6,
        checkpoints: 4,
        tabulator,
        ..EvaluationConfig::default()
    }
}

fn run_eq6(config: EvaluationConfig) -> LeakageReport {
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid circuit");
    FixedVsRandom::new(&circuit.netlist, config)
        .try_run()
        .expect("campaign")
}

/// The full user-visible surface: CSV (with trajectories) plus the
/// rendered report. `table_bytes` is deliberately excluded — it is
/// memory accounting and legitimately differs between the stores.
fn surface(report: &LeakageReport) -> (String, String) {
    (report.to_csv(), report.to_string())
}

#[test]
fn dense_and_hashed_reports_are_byte_identical_across_thread_counts() {
    let reference = run_eq6(eq6_config(1, TabulatorMode::Dense));
    for tabulator in [TabulatorMode::Dense, TabulatorMode::Hashed] {
        for threads in [1usize, 2] {
            let report = run_eq6(eq6_config(threads, tabulator));
            assert_eq!(
                surface(&report),
                surface(&reference),
                "threads={threads} tabulator={} diverged",
                tabulator.name()
            );
        }
    }
}

#[test]
fn a_narrow_key_cap_mixes_stores_without_changing_the_statistics() {
    // With the cap at 16 keys, probing sets observing ≤4 bits qualify
    // for the dense store while wider cones fall back to hashed — a
    // mixed campaign. The statistics must not notice.
    let mixed = |threads: usize, tabulator: TabulatorMode| {
        let mut config = eq6_config(threads, tabulator);
        config.max_table_keys = 16;
        run_eq6(config)
    };
    let reference = mixed(1, TabulatorMode::Hashed);
    assert!(reference.table_bytes > 0);
    for threads in [1usize, 2] {
        let report = mixed(threads, TabulatorMode::Dense);
        assert!(report.table_bytes > 0);
        assert_eq!(
            surface(&report),
            surface(&reference),
            "threads={threads}: mixed-store campaign diverged from all-hashed"
        );
    }
}

fn resume_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mmaes-tabulator-resume-{}-{tag}.snapshot",
        std::process::id()
    ))
}

/// Interrupt a campaign under `first`, resume it under `second`, and
/// demand the stitched run matches an uninterrupted reference byte for
/// byte. The snapshot stores plain sorted (key, counts) columns, so the
/// store that wrote it places no constraint on the store that restores
/// it — switching tabulators across a resume leg is supported exactly
/// like switching `--threads` or `--evaluator`.
fn assert_resume_switches_stores(first: TabulatorMode, second: TabulatorMode) {
    let netlist = leaky_design();
    let config = |tabulator: TabulatorMode| EvaluationConfig {
        traces: 12_800,
        warmup_cycles: 3,
        checkpoints: 5,
        tabulator,
        ..EvaluationConfig::default()
    };
    let reference = FixedVsRandom::new(&netlist, config(first))
        .try_run()
        .expect("reference");

    let path = resume_path(&format!("{}-{}", first.name(), second.name()));
    let mut interrupted = config(first);
    interrupted.durability = Durability {
        snapshot_path: Some(path.clone()),
        stop_after_batches: Some(80),
        ..Durability::default()
    };
    let first_leg = FixedVsRandom::new(&netlist, interrupted)
        .try_run()
        .expect("first leg");
    assert!(first_leg.interrupted);

    let mut resumed = config(second);
    resumed.durability = Durability {
        snapshot_path: Some(path.clone()),
        resume: true,
        ..Durability::default()
    };
    let second_leg = FixedVsRandom::new(&netlist, resumed)
        .try_run()
        .expect("resume leg");
    let _ = std::fs::remove_file(&path);

    assert!(!second_leg.interrupted);
    assert_eq!(
        surface(&second_leg),
        surface(&reference),
        "{}→{} resume diverged from the uninterrupted reference",
        first.name(),
        second.name()
    );
}

#[test]
fn a_snapshot_written_dense_resumes_hashed_bit_identically() {
    assert_resume_switches_stores(TabulatorMode::Dense, TabulatorMode::Hashed);
}

#[test]
fn a_snapshot_written_hashed_resumes_dense_bit_identically() {
    assert_resume_switches_stores(TabulatorMode::Hashed, TabulatorMode::Dense);
}

/// FNV-1a (64-bit) over a byte string: a stable digest for pinning
/// report and snapshot bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(max_table_keys, report CSV digest, final snapshot digest)` for
/// capped Eq. 6 campaigns whose hashed tables overflow the key cap.
/// Recorded from the implementation that folded each batch as
/// key-sorted runs. The equality checks above only compare one thread
/// count or store with another, so a change to the cap/overflow rule
/// that moved every leg the same way would pass them; it cannot pass
/// these constants.
const OVERFLOW_DIGESTS: [(usize, u64, u64); 2] = [
    (1, 0xdf39_ba26_4b7c_3b2d, 0x3683_ac60_6d48_186a),
    (3, 0x14dd_a304_e453_979a, 0x6d16_8804_a444_88e8),
];

#[test]
fn overflowing_campaigns_reproduce_pinned_report_and_snapshot_bytes() {
    for (cap, csv_digest, snapshot_digest) in OVERFLOW_DIGESTS {
        for tabulator in [TabulatorMode::Dense, TabulatorMode::Hashed] {
            for threads in [1usize, 2, 3] {
                let leg = format!("cap={cap} threads={threads} tabulator={}", tabulator.name());
                let path = resume_path(&format!("overflow-{cap}-{threads}-{}", tabulator.name()));
                let mut config = eq6_config(threads, tabulator);
                config.max_table_keys = cap;
                config.durability = Durability {
                    snapshot_path: Some(path.clone()),
                    ..Durability::default()
                };
                let report = run_eq6(config);
                let bytes = std::fs::read(&path).expect("final snapshot");
                let _ = std::fs::remove_file(&path);
                let snapshot = CampaignSnapshot::from_text(
                    std::str::from_utf8(&bytes).expect("snapshot is text"),
                )
                .expect("final snapshot parses");
                assert!(
                    snapshot.tables.iter().any(|table| table.overflow != [0, 0]),
                    "{leg}: no table overflowed its cap"
                );
                assert_eq!(
                    fnv1a(report.to_csv().as_bytes()),
                    csv_digest,
                    "{leg}: report CSV bytes changed"
                );
                assert_eq!(
                    fnv1a(&bytes),
                    snapshot_digest,
                    "{leg}: final snapshot bytes changed"
                );
            }
        }
    }
}
