//! End-to-end checks of the `mmaes` CLI: the CSV export carries the
//! checkpoint trajectories, `--metrics` records the event stream,
//! `--perf` and `--trace` expose the per-phase timings, an unwritable
//! output file is invalid input, and stdout ends with the
//! machine-readable summary line.

use std::process::Command;

use mmaes_telemetry::json::{parse, JsonValue};

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mmaes-cli-test-{}-{name}", std::process::id()))
}

#[test]
fn evaluate_writes_trajectory_csv_metrics_jsonl_and_summary_line() {
    let csv_path = temp_path("report.csv");
    let jsonl_path = temp_path("run.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args([
            "evaluate",
            "kronecker:demeyer-eq6", // normalized to de-meyer-eq6
            "--traces",
            "20000",
            "--quiet",
            "--csv",
            csv_path.to_str().unwrap(),
            "--metrics",
            jsonl_path.to_str().unwrap(),
        ])
        .output()
        .expect("mmaes runs");
    // Eq. 6 leaks, so the exit status signals failure by design.
    assert_eq!(output.status.code(), Some(1), "{output:?}");

    // stdout: `--quiet` leaves exactly the one-line JSON summary.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let summary = stdout.trim();
    assert_eq!(summary.lines().count(), 1, "{stdout}");
    assert!(summary.starts_with("{\"type\":\"summary\""), "{summary}");
    assert!(
        summary.contains("\"schedule\":\"de-meyer-eq6\""),
        "{summary}"
    );
    assert!(summary.contains("\"passed\":false"), "{summary}");
    assert!(summary.contains("\"wall_ms\":"), "{summary}");

    // CSV: long format with interim checkpoint rows per probing set plus
    // one final row, all with the same column count.
    let csv = std::fs::read_to_string(&csv_path).expect("csv written");
    let _ = std::fs::remove_file(&csv_path);
    let mut lines = csv.lines();
    let header = lines.next().expect("header");
    assert!(header.contains("kind"), "{header}");
    assert!(header.contains("minus_log10_p"), "{header}");
    let columns = header.split(',').count();
    let mut checkpoint_rows = 0usize;
    let mut final_rows = 0usize;
    for line in lines {
        assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
        if line.contains(",checkpoint,") {
            checkpoint_rows += 1;
        } else if line.contains(",final,") {
            final_rows += 1;
        }
    }
    assert!(checkpoint_rows >= 2, "no trajectory rows:\n{csv}");
    assert!(final_rows >= 1, "no final rows:\n{csv}");

    // JSONL: campaign lifecycle with at least two interim checkpoints,
    // flagged probes, and the trailing summary event.
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("metrics written");
    let _ = std::fs::remove_file(&jsonl_path);
    let count = |tag: &str| {
        jsonl
            .lines()
            .filter(|line| line.contains(&format!("\"type\":\"{tag}\"")))
            .count()
    };
    assert_eq!(count("campaign_started"), 1, "{jsonl}");
    assert!(count("checkpoint") >= 2, "{jsonl}");
    assert!(count("probe_flagged") >= 1, "{jsonl}");
    assert_eq!(count("campaign_finished"), 1, "{jsonl}");
    assert_eq!(count("summary"), 1, "{jsonl}");
    assert!(
        jsonl
            .lines()
            .all(|line| line.starts_with('{') && line.ends_with('}')),
        "non-JSON line in metrics file"
    );
}

#[test]
fn evaluate_passes_a_secure_schedule_and_reports_success() {
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args([
            "evaluate",
            "kronecker:full-7",
            "--traces",
            "10000",
            "--quiet",
            "--checkpoints",
            "0",
        ])
        .output()
        .expect("mmaes runs");
    assert_eq!(output.status.code(), Some(0), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    assert!(stdout.trim().contains("\"passed\":true"), "{stdout}");
}

#[test]
fn evaluate_with_perf_records_a_snapshot_and_keeps_the_summary_last() {
    let jsonl_path = temp_path("perf.jsonl");
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args([
            "evaluate",
            "kronecker:proposed-eq9",
            "--traces",
            "5000",
            "--perf",
            "--metrics",
            jsonl_path.to_str().unwrap(),
        ])
        .output()
        .expect("mmaes runs");
    assert_eq!(output.status.code(), Some(0), "{output:?}");

    // The summary (with the v2 perf fields) is the last stdout line even
    // without --quiet, i.e. after the prose report.
    let stdout = String::from_utf8(output.stdout).expect("utf8");
    let last = stdout.trim().lines().last().expect("nonempty stdout");
    assert!(last.starts_with("{\"type\":\"summary\""), "{last}");
    assert!(last.contains("\"elapsed_ms\":"), "{last}");
    assert!(last.contains("\"traces_per_sec\":"), "{last}");
    assert!(last.contains("\"cell_evals\":"), "{last}");

    // --perf routes a campaign-scoped snapshot into the event stream and
    // a phase table onto stderr.
    let jsonl = std::fs::read_to_string(&jsonl_path).expect("metrics written");
    let _ = std::fs::remove_file(&jsonl_path);
    let snapshot = jsonl
        .lines()
        .find(|line| line.contains("\"type\":\"perf_snapshot\""))
        .expect("perf_snapshot event recorded");
    assert!(snapshot.contains("\"scope\":\"campaign\""), "{snapshot}");
    assert!(snapshot.contains("\"phases\":["), "{snapshot}");
    let stderr = String::from_utf8(output.stderr).expect("utf8");
    assert!(stderr.contains("g_test"), "{stderr}");
}

#[test]
fn evaluate_trace_is_one_evaluate_scope_with_every_campaign_phase() {
    let trace_path = temp_path("trace.json");
    let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
        .args([
            "evaluate",
            "kronecker:de-meyer-eq6",
            "--traces",
            "12800",
            "--quiet",
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("mmaes runs");
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let trace = std::fs::read_to_string(&trace_path).expect("trace written");
    let _ = std::fs::remove_file(&trace_path);
    let document = parse(&trace).expect("valid chrome-trace JSON");
    let events = document
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    fn name(event: &JsonValue) -> Option<&str> {
        event.get("name").and_then(JsonValue::as_str)
    }
    let scopes: Vec<&str> = events
        .iter()
        .filter(|event| name(event) == Some("thread_name"))
        .filter_map(|event| event.get("args")?.get("name")?.as_str())
        .collect();
    assert_eq!(scopes, ["evaluate"], "{trace}");
    let phases: Vec<&str> = events
        .iter()
        .filter(|event| event.get("ph").and_then(JsonValue::as_str) == Some("X"))
        .filter_map(name)
        .collect();
    for phase in ["simulate", "tabulate", "merge", "g_test"] {
        assert!(phases.contains(&phase), "no {phase} span: {phases:?}");
    }
}

#[test]
fn an_unwritable_output_file_is_invalid_input_not_a_finding() {
    // Eq. 9 is clean, so exit 1 here could only mean the write failure
    // was reported as leakage.
    let missing = temp_path("missing-dir");
    for (flag, file) in [("--csv", "report.csv"), ("--trace", "trace.json")] {
        let output = Command::new(env!("CARGO_BIN_EXE_mmaes"))
            .args([
                "evaluate",
                "kronecker:proposed-eq9",
                "--traces",
                "6400",
                "--quiet",
                flag,
                missing.join(file).to_str().unwrap(),
            ])
            .output()
            .expect("mmaes runs");
        assert_eq!(output.status.code(), Some(2), "{flag}: {output:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf8");
        assert!(stderr.contains("cannot write"), "{flag}: {stderr}");
    }
}
