//! Fault-containment checks on the campaign under deterministic
//! injected faults: supervised workers retry panicked batches without
//! perturbing the report, exhausted retry budgets surface as typed
//! errors, checkpoint-snapshot write failures degrade (rather than
//! abort) the campaign, and stale temp files from a crashed writer are
//! reaped at startup.
//!
//! Every test builds its own [`Faults`] handle and hands it to its
//! campaign through [`EvaluationConfig::faults`], so the tests run in
//! parallel with each other and with fault-free campaigns in the same
//! process — which one test below checks directly.

use std::path::{Path, PathBuf};

use mmaes_circuits::build_kronecker;
use mmaes_leakage::{
    snapshot, CampaignError, Durability, EvaluationConfig, FixedVsRandom, LeakageReport,
    TabulatorMode,
};
use mmaes_masking::KroneckerRandomness;
use mmaes_telemetry::Faults;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mmaes-fault-containment-{}-{name}",
        std::process::id()
    ))
}

/// A small Eq. 6 campaign: 2048 traces = 32 batches, so the scripted
/// faults at batches 3 and 5 land well inside the run, with interim
/// checkpoints for the snapshot-fault tests.
fn run_eq6(
    threads: usize,
    snapshot_path: Option<&Path>,
    faults: &Faults,
) -> Result<LeakageReport, CampaignError> {
    run_eq6_with(threads, TabulatorMode::Dense, snapshot_path, faults)
}

fn run_eq6_with(
    threads: usize,
    tabulator: TabulatorMode,
    snapshot_path: Option<&Path>,
    faults: &Faults,
) -> Result<LeakageReport, CampaignError> {
    let circuit = build_kronecker(&KroneckerRandomness::de_meyer_eq6()).expect("valid circuit");
    let config = EvaluationConfig {
        traces: 2048,
        threads,
        warmup_cycles: 6,
        checkpoints: 4,
        tabulator,
        durability: Durability {
            snapshot_path: snapshot_path.map(PathBuf::from),
            ..Durability::default()
        },
        faults: faults.clone(),
        ..EvaluationConfig::default()
    };
    FixedVsRandom::new(&circuit.netlist, config).try_run()
}

fn faults(spec: &str) -> Faults {
    Faults::parse(spec).expect("valid failpoint spec")
}

#[test]
fn worker_panics_leave_the_report_byte_identical_at_every_thread_count() {
    let baseline = run_eq6(1, None, &faults("")).expect("fault-free campaign");
    // Both table stores retry panicked batches without perturbing the
    // statistics: a faulted batch is retried in place on the worker
    // that ran it, and nothing reaches either store until the
    // batch-ordered fold.
    for tabulator in [TabulatorMode::Dense, TabulatorMode::Hashed] {
        for threads in [1usize, 2, 4] {
            let faults = faults("worker=panic@3x2;worker=stall(20)@5");
            let faulted =
                run_eq6_with(threads, tabulator, None, &faults).expect("faults must be contained");
            assert_eq!(
                faulted.to_csv(),
                baseline.to_csv(),
                "threads={threads} tabulator={}: retried batches perturbed the report",
                tabulator.name()
            );
        }
    }
}

#[test]
fn exhausted_retry_budget_is_a_typed_worker_error() {
    // A finite schedule of exactly the retry budget must mean the same
    // on every thread count: one stripe spends all four fires.
    for spec in ["worker=panic@3x*", "worker=panic@3x4"] {
        for threads in [1usize, 2, 3] {
            let faults = faults(spec);
            match run_eq6(threads, None, &faults) {
                Err(CampaignError::Worker {
                    batch,
                    attempts,
                    message,
                }) => {
                    assert_eq!(batch, 3);
                    assert_eq!(attempts, 4, "the full retry budget must be spent");
                    assert!(message.contains("injected panic"), "{message}");
                }
                other => panic!("{spec} threads={threads}: expected a Worker error, got {other:?}"),
            }
        }
    }
}

#[test]
fn a_fatal_fault_leaves_one_contiguous_frontier_at_every_thread_count() {
    // Batch 3 fails for good on one stripe while the others pack it, so
    // no table may absorb it: the emergency snapshot holds batches 0..3
    // for every table, byte for byte what one thread leaves behind.
    let emergency = |threads: usize| {
        let path = temp_path(&format!("frontier-{threads}.snapshot"));
        let _ = std::fs::remove_file(&path);
        let faults = faults("worker=panic@3x*");
        match run_eq6(threads, Some(&path), &faults) {
            Err(CampaignError::Worker {
                batch: 3,
                attempts: 4,
                ..
            }) => {}
            other => panic!("threads={threads}: expected a Worker error at batch 3, got {other:?}"),
        }
        let saved = snapshot::load(&path).expect("the emergency snapshot must land");
        assert_eq!(saved.batches_done, 3, "threads={threads}");
        let bytes = std::fs::read(&path).expect("read the emergency snapshot");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let single = emergency(1);
    for threads in [2usize, 3] {
        assert!(
            emergency(threads) == single,
            "threads={threads}: the emergency snapshot differs from one thread's"
        );
    }
}

#[test]
fn checkpoint_snapshot_faults_degrade_but_the_final_snapshot_lands() {
    let path = temp_path("degraded.snapshot");
    let _ = std::fs::remove_file(&path);
    // Three injected errors exhaust the first checkpoint's entire retry
    // budget; the final flush is healthy again.
    let faults = faults("snapshot.save=ioerr x3");
    let report =
        run_eq6(1, Some(&path), &faults).expect("a degraded snapshot must not abort the run");
    assert!(!report.interrupted);
    let marks = faults.degraded();
    assert!(
        marks.iter().any(|entry| entry.subsystem == "snapshot"),
        "snapshot degradation must be recorded: {marks:?}"
    );
    let saved = snapshot::load(&path).expect("the final snapshot must still be written");
    assert_eq!(
        saved.batches_done,
        2048 / 64,
        "final state, not a checkpoint"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn campaign_startup_reaps_a_stale_tmp_from_a_crashed_writer() {
    let path = temp_path("reap.snapshot");
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, b"torn half-write from a crashed process").expect("plant tmp");
    // Every save is forced to fail before touching the filesystem, so
    // startup reaping is the only thing that can remove the planted
    // file — the atomic rename never gets a chance to.
    let faults = faults("snapshot.save=ioerr x*");
    let result = run_eq6(1, Some(&path), &faults);
    assert!(
        matches!(result, Err(CampaignError::Snapshot(_))),
        "an unrecoverable final save must propagate: {result:?}"
    );
    assert!(
        !tmp.exists(),
        "the stale .tmp must be reaped at campaign startup"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&tmp);
}

#[test]
fn stalled_workers_are_flagged_advisory_without_touching_the_report() {
    let baseline = run_eq6(1, None, &faults("")).expect("fault-free campaign");
    // The watchdog threshold rides on the handle; drop it below the
    // injected stall so the heartbeat monitor actually fires.
    let faults = faults("worker=stall(400)@3").with_stall_timeout_ms(50);
    let report = run_eq6(2, None, &faults).expect("a stall is advisory, never fatal");
    assert_eq!(
        report.to_csv(),
        baseline.to_csv(),
        "a stalled batch must not perturb the report"
    );
    let marks = faults.degraded();
    assert!(
        marks.iter().any(|entry| entry.subsystem == "worker"),
        "the watchdog must record the stalled worker: {marks:?}"
    );
}

#[test]
fn concurrent_campaigns_keep_their_faults_to_themselves() {
    let baseline = run_eq6(1, None, &faults("")).expect("fault-free campaign");
    let path_a = temp_path("concurrent-a.snapshot");
    let path_b = temp_path("concurrent-b.snapshot");
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
    // Campaign A exhausts one checkpoint's snapshot retry budget and
    // panics batch 3 twice; campaign B runs alongside it, fault-free.
    let faults_a = faults("snapshot.save=ioerr x3;worker=panic@3x2");
    let faults_b = Faults::default();
    let (report_a, report_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_eq6(2, Some(&path_a), &faults_a));
        let b = scope.spawn(|| run_eq6(1, Some(&path_b), &faults_b));
        (a.join().expect("campaign A"), b.join().expect("campaign B"))
    });
    let report_a = report_a.expect("A's faults must be contained");
    let report_b = report_b.expect("B must not see A's faults");
    assert_eq!(report_a.to_csv(), baseline.to_csv(), "campaign A diverged");
    assert_eq!(report_b.to_csv(), baseline.to_csv(), "campaign B diverged");
    for path in [&path_a, &path_b] {
        let saved = snapshot::load(path).expect("both final snapshots must land");
        assert_eq!(saved.batches_done, 2048 / 64);
    }
    let marks = faults_a.degraded();
    assert!(
        marks.iter().any(|entry| entry.subsystem == "snapshot"),
        "A's snapshot degradation must be recorded on A's handle: {marks:?}"
    );
    assert!(
        faults_b.degraded().is_empty(),
        "B's handle must record no degradation: {:?}",
        faults_b.degraded()
    );
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}
