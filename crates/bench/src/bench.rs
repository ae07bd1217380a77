//! `mmaes bench` — the standardized performance-regression workload.
//!
//! The evaluator is throughput-bound: the paper's 10⁸-trace second-order
//! campaigns only finish because the simulator sustains millions of cell
//! evaluations per second. This module pins that throughput down with a
//! fixed workload matrix — for each benchmark schedule (the flawed
//! Eq. 6, the repaired Eq. 9, and a second-order schedule) it runs
//!
//! 1. **simulate** — a bare drive/step loop over the Kronecker netlist
//!    with the compiled evaluator (raw simulator throughput);
//! 2. **simulate-interpreted** — the same loop on the tree-walking
//!    interpreter, so the record carries the compiled-over-interpreted
//!    speedup per schedule;
//! 3. **campaign** — a capped fixed-vs-random campaign with interim
//!    checkpoints (the end-to-end evaluation hot path), honouring
//!    `--threads`, `--evaluator`, and `--tabulator`;
//! 4. **campaign-hashed** — the same campaign pinned to the hashed
//!    contingency-table fallback, so the record carries the
//!    dense-over-hashed tabulation speedup per schedule;
//! 5. **exact** — an exhaustive verification slice scoped to
//!    `kronecker/G7` (the enumeration hot path).
//!
//! Every workload runs under an enabled [`PerfRecorder`], so the record
//! carries per-phase breakdowns (`simulate`/`tabulate`/`g_test`,
//! `unroll`/`enumerate`) next to the headline rates. Results are written
//! to a schema-versioned `BENCH_<label>.json` and the same JSON document
//! is the last line on stdout.
//!
//! `--baseline FILE` compares the run against an earlier record: any
//! workload whose `traces_per_sec` drops more than `--threshold` percent
//! below the baseline is a regression and the process exits non-zero.

use std::process::exit;

use mmaes_circuits::build_kronecker;
use mmaes_exact::{ExactConfig, ExactVerifier};
use mmaes_leakage::{EvaluationConfig, FixedVsRandom, StatisticKind, TabulatorMode};
use mmaes_masking::KroneckerRandomness;
use mmaes_sim::{EvaluatorMode, Simulator, LANES};
use mmaes_telemetry::json::{array, parse, JsonObject, JsonValue};
use mmaes_telemetry::{
    ChromeTraceBuilder, Faults, Observer, PerfRecorder, PerfSnapshot, PhaseStats, Stopwatch,
};

/// Version of the `BENCH_*.json` record layout. Bumped on any field
/// change; `--baseline` refuses records from a different version.
///
/// * v2 — per-workload `threads`/`evaluator` fields, the
///   `simulate-interpreted` workload, the top-level `threads` knob and
///   the per-schedule `compiled_speedup` map.
/// * v3 — per-workload `tabulator`/`keys_per_sec` fields, `table_bytes`
///   (actual resident bytes from the report, replacing the
///   per-key-estimated `table_bytes_est`), the `campaign-hashed`
///   workload and the per-schedule `tabulation_speedup` map.
/// * v4 — per-workload `statistic` field and the top-level `statistic`
///   knob (`--statistic gtest|ttest` on the campaign workloads; `none`
///   for workloads that fold no statistic).
pub const BENCH_SCHEMA_VERSION: u64 = 4;

/// Default regression threshold: a workload regresses when its
/// `traces_per_sec` falls more than this percentage below the baseline.
pub const DEFAULT_THRESHOLD_PCT: f64 = 25.0;

/// The parsed `mmaes bench` command line.
#[derive(Debug, Clone)]
pub struct BenchOptions {
    /// Scale the matrix down for CI smoke runs (`--quick`).
    pub quick: bool,
    /// Label embedded in the record and its file name (`--label`).
    pub label: String,
    /// Baseline record to diff against (`--baseline FILE`).
    pub baseline: Option<String>,
    /// Allowed `traces_per_sec` drop, percent (`--threshold`).
    pub threshold_pct: f64,
    /// Output path override (`--out FILE`; default `BENCH_<label>.json`).
    pub out: Option<String>,
    /// Chrome-trace JSON export of every workload's per-phase timings
    /// (`--trace FILE`; open in `chrome://tracing` or Perfetto).
    pub trace: Option<String>,
    /// Suppress the human-readable table (`--quiet`).
    pub quiet: bool,
    /// Worker threads for the campaign workloads (`--threads N`).
    pub threads: usize,
    /// Netlist evaluator for the campaign workloads (`--evaluator`).
    pub evaluator: EvaluatorMode,
    /// Contingency-table store for the `campaign` workload
    /// (`--tabulator`). The `campaign-hashed` workload always pins the
    /// hashed fallback regardless.
    pub tabulator: TabulatorMode,
    /// Leakage statistic for the campaign workloads (`--statistic`):
    /// the G-test fold or the Welch t-test fold, so either hot path can
    /// be tracked for regressions.
    pub statistic: StatisticKind,
    /// The run's fault handle (`MMAES_FAILPOINTS`), shared by every
    /// campaign workload.
    pub faults: Faults,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions {
            quick: false,
            label: "local".to_owned(),
            baseline: None,
            threshold_pct: DEFAULT_THRESHOLD_PCT,
            out: None,
            trace: None,
            quiet: false,
            threads: 1,
            evaluator: EvaluatorMode::Compiled,
            tabulator: TabulatorMode::Dense,
            statistic: StatisticKind::GTest,
            faults: Faults::default(),
        }
    }
}

impl BenchOptions {
    /// Parses the arguments after the `bench` subcommand.
    ///
    /// # Panics
    ///
    /// Exits (status 2) with a message on malformed arguments.
    pub fn parse(arguments: &[String]) -> Self {
        let mut options = BenchOptions::default();
        let mut rest = arguments.iter();
        while let Some(flag) = rest.next() {
            let mut value = || {
                rest.next().cloned().unwrap_or_else(|| {
                    eprintln!("flag {flag} needs a value");
                    exit(2);
                })
            };
            match flag.as_str() {
                "--quick" => options.quick = true,
                "--label" => options.label = value(),
                "--baseline" => options.baseline = Some(value()),
                "--threshold" => {
                    options.threshold_pct = value().parse().unwrap_or_else(|error| {
                        eprintln!("flag --threshold: {error}");
                        exit(2);
                    })
                }
                "--out" => options.out = Some(value()),
                "--trace" => options.trace = Some(value()),
                "--quiet" => options.quiet = true,
                "--threads" => {
                    options.threads = value().parse().unwrap_or_else(|error| {
                        eprintln!("flag --threads: {error}");
                        exit(2);
                    });
                    if options.threads == 0 {
                        eprintln!("flag --threads must be at least 1");
                        exit(2);
                    }
                }
                "--evaluator" => {
                    let name = value();
                    options.evaluator = EvaluatorMode::parse(&name).unwrap_or_else(|| {
                        eprintln!("unknown evaluator `{name}` (compiled|interpreted)");
                        exit(2);
                    })
                }
                "--tabulator" => {
                    let name = value();
                    options.tabulator = TabulatorMode::parse(&name).unwrap_or_else(|| {
                        eprintln!("unknown tabulator `{name}` (dense|hashed)");
                        exit(2);
                    })
                }
                "--statistic" => {
                    let name = value();
                    options.statistic = StatisticKind::parse(&name).unwrap_or_else(|| {
                        eprintln!("unknown statistic `{name}` (gtest|ttest)");
                        exit(2);
                    })
                }
                other => {
                    eprintln!(
                        "unknown bench flag `{other}` (flags: --quick --label NAME \
                         --baseline FILE --threshold PCT --out FILE --trace FILE \
                         --quiet --threads N --evaluator compiled|interpreted \
                         --tabulator dense|hashed --statistic gtest|ttest)"
                    );
                    exit(2);
                }
            }
        }
        if !options
            .label
            .chars()
            .all(|character| character.is_ascii_alphanumeric() || "-_.".contains(character))
            || options.label.is_empty()
        {
            eprintln!("--label must be non-empty [A-Za-z0-9._-]");
            exit(2);
        }
        options
    }

    fn out_path(&self) -> String {
        self.out
            .clone()
            .unwrap_or_else(|| format!("BENCH_{}.json", self.label))
    }
}

/// One (schedule, workload) measurement.
#[derive(Debug, Clone)]
pub struct WorkloadRecord {
    /// The randomness schedule benchmarked.
    pub schedule: String,
    /// Workload id: `simulate`, `simulate-interpreted`, `campaign`,
    /// `campaign-hashed`, or `exact`.
    pub workload: &'static str,
    /// Worker threads the workload ran with (1 for the single-simulator
    /// workloads).
    pub threads: u64,
    /// Netlist evaluator the workload ran with
    /// ([`EvaluatorMode::name`]).
    pub evaluator: &'static str,
    /// Contingency-table store the workload ran with
    /// ([`TabulatorMode::name`]; `none` for workloads that keep no
    /// tables).
    pub tabulator: &'static str,
    /// Leakage statistic the workload folded ([`StatisticKind::name`];
    /// `none` for workloads that fold no statistic).
    pub statistic: &'static str,
    /// Wall time of the workload, milliseconds.
    pub wall_ms: u64,
    /// Work units completed (lane-traces for `simulate`/`campaign`,
    /// probing sets for `exact`).
    pub traces: u64,
    /// Work units per second of wall time — the regression metric.
    pub traces_per_sec: f64,
    /// Simulator cell evaluations performed.
    pub cell_evals: u64,
    /// Cell evaluations per second of wall time.
    pub cell_evals_per_sec: f64,
    /// Observation keys absorbed per second of tabulate-phase time (0
    /// for workloads that keep no tables) — the tabulation hot-path
    /// rate, independent of simulator throughput.
    pub keys_per_sec: f64,
    /// Resident contingency-table memory at the final sweep, bytes,
    /// from [`mmaes_leakage::LeakageReport::table_bytes`] (0 for
    /// workloads that keep no tables).
    pub table_bytes: u64,
    /// Per-phase timing captured by the workload's [`PerfRecorder`].
    pub snapshot: PerfSnapshot,
}

impl WorkloadRecord {
    fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (name, value) in &self.snapshot.counters {
            counters = counters.unsigned(name, *value);
        }
        JsonObject::new()
            .string("schedule", &self.schedule)
            .string("workload", self.workload)
            .unsigned("threads", self.threads)
            .string("evaluator", self.evaluator)
            .string("tabulator", self.tabulator)
            .string("statistic", self.statistic)
            .unsigned("wall_ms", self.wall_ms)
            .unsigned("traces", self.traces)
            .float("traces_per_sec", self.traces_per_sec)
            .unsigned("cell_evals", self.cell_evals)
            .float("cell_evals_per_sec", self.cell_evals_per_sec)
            .float("keys_per_sec", self.keys_per_sec)
            .unsigned("table_bytes", self.table_bytes)
            .raw(
                "phases",
                &array(self.snapshot.phases.iter().map(PhaseStats::to_json)),
            )
            .raw("counters", &counters.finish())
            .finish()
    }
}

/// The schedule axis of the matrix: name, constructor, campaign order.
fn schedule_matrix() -> Vec<(KroneckerRandomness, usize)> {
    vec![
        (KroneckerRandomness::de_meyer_eq6(), 1),
        (KroneckerRandomness::proposed_eq9(), 1),
        (KroneckerRandomness::de_meyer_13_reconstruction(), 2),
    ]
}

/// Runs the full matrix and exits: 0 on success, 1 on a baseline
/// regression, 2 on bad arguments or an unreadable baseline. The
/// campaign workloads run under `faults`.
pub fn run(arguments: &[String], faults: Faults) -> ! {
    let options = BenchOptions {
        faults,
        ..BenchOptions::parse(arguments)
    };
    // Load the baseline up front so a bad path fails before the
    // (minutes-long) measurement, not after.
    let baseline = options.baseline.as_deref().map(load_baseline);
    let records = run_matrix(&options);

    let document = render_document(&options, &records);
    let out_path = options.out_path();
    if let Err(error) = std::fs::write(&out_path, format!("{document}\n")) {
        eprintln!("cannot write {out_path}: {error}");
        exit(1);
    }

    if let Some(trace_path) = &options.trace {
        if let Err(error) = std::fs::write(trace_path, render_chrome_trace(&records)) {
            eprintln!("cannot write {trace_path}: {error}");
            exit(1);
        }
    }

    if !options.quiet {
        println!("{}", render_table(&records));
        println!("record written to {out_path}");
        if let Some(trace_path) = &options.trace {
            println!("chrome trace written to {trace_path} (open in chrome://tracing or Perfetto)");
        }
    }

    let mut regressions = Vec::new();
    if let Some(baseline) = baseline {
        regressions = compare(&records, &baseline, options.threshold_pct);
        for line in &regressions {
            eprintln!("REGRESSION: {line}");
        }
        if regressions.is_empty() && !options.quiet {
            println!(
                "no regressions against the baseline (threshold {}%)",
                options.threshold_pct
            );
        }
    }

    // The machine-readable record is always the last stdout line.
    println!("{document}");
    exit(if regressions.is_empty() { 0 } else { 1 });
}

/// Runs every (schedule × workload) cell of the matrix.
pub fn run_matrix(options: &BenchOptions) -> Vec<WorkloadRecord> {
    let mut records = Vec::new();
    for (schedule, order) in schedule_matrix() {
        let name = schedule.name().to_owned();
        if !options.quiet {
            eprintln!("[bench] {name} (order {order})");
        }
        let circuit = build_kronecker(&schedule).expect("generator emits valid netlists");
        records.push(bench_simulate(
            &name,
            &circuit.netlist,
            EvaluatorMode::Compiled,
            options,
        ));
        records.push(bench_simulate(
            &name,
            &circuit.netlist,
            EvaluatorMode::Interpreted,
            options,
        ));
        records.push(bench_campaign(
            &name,
            &circuit.netlist,
            order,
            options,
            options.tabulator,
            "campaign",
        ));
        records.push(bench_campaign(
            &name,
            &circuit.netlist,
            order,
            options,
            TabulatorMode::Hashed,
            "campaign-hashed",
        ));
        records.push(bench_exact(&name, &circuit.netlist, options));
    }
    records
}

/// Raw simulator throughput: drive pseudo-random inputs and step, on
/// the requested evaluator so the record exposes both engines' rates.
fn bench_simulate(
    schedule: &str,
    netlist: &mmaes_netlist::Netlist,
    evaluator: EvaluatorMode,
    options: &BenchOptions,
) -> WorkloadRecord {
    // Full-size runs need enough cycles that the per-schedule rate (and
    // the compiled-over-interpreted ratio derived from it) is not
    // dominated by sub-millisecond timing noise on the small netlists.
    let cycles: u64 = if options.quick { 2_000 } else { 200_000 };
    let perf = PerfRecorder::enabled();
    let watch = Stopwatch::start();
    let mut sim = Simulator::with_evaluator(netlist, evaluator);
    let inputs: Vec<_> = netlist.inputs().to_vec();
    // A fixed xorshift stream: deterministic, dependency-free driving.
    let mut state = 0x9c01_ead0_f00d_5eedu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    {
        let _span = perf.span("simulate");
        for _ in 0..cycles {
            for &input in &inputs {
                sim.set_input(input, next());
            }
            sim.step();
        }
    }
    let wall_ms = watch.elapsed_ms();
    let stats = sim.counters();
    let traces = cycles * LANES as u64;
    perf.add("cycles", stats.cycles);
    perf.add("cell_evals", stats.cell_evals);
    WorkloadRecord {
        schedule: schedule.to_owned(),
        workload: match evaluator {
            EvaluatorMode::Compiled => "simulate",
            EvaluatorMode::Interpreted => "simulate-interpreted",
        },
        threads: 1,
        evaluator: evaluator.name(),
        tabulator: "none",
        statistic: "none",
        wall_ms,
        traces,
        traces_per_sec: watch.rate(traces),
        cell_evals: stats.cell_evals,
        cell_evals_per_sec: watch.rate(stats.cell_evals),
        keys_per_sec: 0.0,
        table_bytes: 0,
        snapshot: perf.snapshot().expect("enabled"),
    }
}

/// The end-to-end campaign hot path, capped for bounded runtime.
fn bench_campaign(
    schedule: &str,
    netlist: &mmaes_netlist::Netlist,
    order: usize,
    options: &BenchOptions,
    tabulator: TabulatorMode,
    workload: &'static str,
) -> WorkloadRecord {
    let traces: u64 = if options.quick { 8_000 } else { 100_000 };
    let config = EvaluationConfig {
        order,
        traces,
        checkpoints: 4,
        // Order-2 probing-set enumeration is quadratic; cap it so the
        // bench measures throughput, not combinatorics.
        max_probe_sets: if order >= 2 { 300 } else { 100_000 },
        threads: options.threads,
        evaluator: options.evaluator,
        tabulator,
        statistic: options.statistic,
        faults: options.faults.clone(),
        ..EvaluationConfig::default()
    };
    let perf = PerfRecorder::enabled();
    let observer = Observer::null().with_perf(perf.clone());
    let watch = Stopwatch::start();
    let report = FixedVsRandom::new(netlist, config)
        .with_observer(observer)
        .try_run()
        .expect("campaign");
    let wall_ms = watch.elapsed_ms();
    let snapshot = perf.snapshot().expect("enabled");
    WorkloadRecord {
        schedule: schedule.to_owned(),
        workload,
        threads: options.threads as u64,
        evaluator: options.evaluator.name(),
        tabulator: tabulator.name(),
        statistic: options.statistic.name(),
        wall_ms,
        traces: report.traces,
        traces_per_sec: watch.rate(report.traces),
        cell_evals: report.cell_evals,
        cell_evals_per_sec: watch.rate(report.cell_evals),
        keys_per_sec: keys_per_sec(&snapshot),
        table_bytes: report.table_bytes,
        snapshot,
    }
}

/// Observation keys absorbed per second of tabulate-phase time, from a
/// campaign's perf snapshot: the `keys_tabulated` counter over the
/// `tabulate` phase total (summed across workers by the campaign). Zero
/// when the snapshot carries neither.
fn keys_per_sec(snapshot: &PerfSnapshot) -> f64 {
    let keys = snapshot.counter("keys_tabulated").unwrap_or(0);
    let tabulate_ns = snapshot.phase("tabulate").map_or(0, |phase| phase.total_ns);
    if keys == 0 || tabulate_ns == 0 {
        return 0.0;
    }
    keys as f64 / (tabulate_ns as f64 / 1e9)
}

/// One exhaustive-verification slice (the `kronecker/G7` scope the CLI's
/// `verify` command defaults to).
fn bench_exact(
    schedule: &str,
    netlist: &mmaes_netlist::Netlist,
    options: &BenchOptions,
) -> WorkloadRecord {
    let config = ExactConfig {
        observe_cycle: 5,
        probe_scope_filter: Some("kronecker/G7".to_owned()),
        // Quick mode narrows the enumeration bound so CI smoke runs
        // (and debug-profile test builds) finish in seconds; wider
        // supports classify as TooWide, which is cheap by design.
        max_support_bits: if options.quick { 14 } else { 24 },
        ..ExactConfig::default()
    };
    let perf = PerfRecorder::enabled();
    let observer = Observer::null().with_perf(perf.clone());
    let watch = Stopwatch::start();
    let report = ExactVerifier::with_config(netlist, config)
        .with_observer(observer)
        .verify_all();
    let wall_ms = watch.elapsed_ms();
    let sets = report.verdicts.len() as u64;
    WorkloadRecord {
        schedule: schedule.to_owned(),
        workload: "exact",
        threads: 1,
        evaluator: EvaluatorMode::Compiled.name(),
        tabulator: "none",
        statistic: "none",
        wall_ms,
        traces: sets,
        traces_per_sec: watch.rate(sets),
        cell_evals: report.cell_evals,
        cell_evals_per_sec: watch.rate(report.cell_evals),
        keys_per_sec: 0.0,
        table_bytes: 0,
        snapshot: perf.snapshot().expect("enabled"),
    }
}

/// Renders every workload's perf snapshot into one Chrome-trace JSON
/// document, one trace scope per `{schedule}/{workload}` cell, so the
/// whole matrix lands on a single `chrome://tracing` timeline.
pub fn render_chrome_trace(records: &[WorkloadRecord]) -> String {
    let mut builder = ChromeTraceBuilder::new();
    for record in records {
        builder.add_scope(
            &format!("{}/{}", record.schedule, record.workload),
            &record.snapshot,
        );
    }
    builder.finish()
}

/// Per-schedule compiled-over-interpreted `simulate` rate ratio — the
/// headline number for the compiled evaluator. Schedules missing either
/// mode are skipped.
pub fn compiled_speedups(records: &[WorkloadRecord]) -> Vec<(String, f64)> {
    let rate = |schedule: &str, workload: &str| {
        records
            .iter()
            .find(|record| record.schedule == schedule && record.workload == workload)
            .map(|record| record.traces_per_sec)
    };
    let mut speedups = Vec::new();
    for record in records {
        if record.workload != "simulate" {
            continue;
        }
        let (Some(compiled), Some(interpreted)) = (
            rate(&record.schedule, "simulate"),
            rate(&record.schedule, "simulate-interpreted"),
        ) else {
            continue;
        };
        if interpreted > 0.0 {
            speedups.push((record.schedule.clone(), compiled / interpreted));
        }
    }
    speedups
}

/// Per-schedule `campaign`-over-`campaign-hashed` `traces_per_sec`
/// ratio — the headline number for the dense tabulation fast path.
/// Schedules missing either workload are skipped; when `--tabulator
/// hashed` pins both workloads to the hashed store the ratio degenerates
/// to ~1, which the record states honestly via the per-workload
/// `tabulator` fields.
pub fn tabulation_speedups(records: &[WorkloadRecord]) -> Vec<(String, f64)> {
    let rate = |schedule: &str, workload: &str| {
        records
            .iter()
            .find(|record| record.schedule == schedule && record.workload == workload)
            .map(|record| record.traces_per_sec)
    };
    let mut speedups = Vec::new();
    for record in records {
        if record.workload != "campaign" {
            continue;
        }
        let (Some(campaign), Some(hashed)) = (
            rate(&record.schedule, "campaign"),
            rate(&record.schedule, "campaign-hashed"),
        ) else {
            continue;
        };
        if hashed > 0.0 {
            speedups.push((record.schedule.clone(), campaign / hashed));
        }
    }
    speedups
}

/// Renders the full `BENCH_*.json` document (one line, no trailing
/// newline).
pub fn render_document(options: &BenchOptions, records: &[WorkloadRecord]) -> String {
    let mut speedups = JsonObject::new();
    for (schedule, ratio) in compiled_speedups(records) {
        speedups = speedups.float(&schedule, ratio);
    }
    let mut tab_speedups = JsonObject::new();
    for (schedule, ratio) in tabulation_speedups(records) {
        tab_speedups = tab_speedups.float(&schedule, ratio);
    }
    JsonObject::new()
        .string("type", "bench")
        .unsigned("schema_version", BENCH_SCHEMA_VERSION)
        .string("label", &options.label)
        .boolean("quick", options.quick)
        .unsigned("threads", options.threads as u64)
        .string("tabulator", options.tabulator.name())
        .string("statistic", options.statistic.name())
        .raw("compiled_speedup", &speedups.finish())
        .raw("tabulation_speedup", &tab_speedups.finish())
        .raw(
            "workloads",
            &array(records.iter().map(WorkloadRecord::to_json)),
        )
        .finish()
}

/// The human-readable result table.
pub fn render_table(records: &[WorkloadRecord]) -> String {
    use std::fmt::Write as _;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<36} {:<20} {:>7} {:>9} {:>14} {:>16} {:>12}",
        "schedule", "workload", "threads", "wall ms", "traces/s", "cell-evals/s", "table KiB"
    );
    for record in records {
        let _ = writeln!(
            table,
            "{:<36} {:<20} {:>7} {:>9} {:>14.0} {:>16.0} {:>12}",
            record.schedule,
            record.workload,
            record.threads,
            record.wall_ms,
            record.traces_per_sec,
            record.cell_evals_per_sec,
            record.table_bytes / 1024,
        );
    }
    for (schedule, ratio) in compiled_speedups(records) {
        let _ = writeln!(
            table,
            "{schedule}: compiled evaluator {ratio:.2}x interpreted"
        );
    }
    for (schedule, ratio) in tabulation_speedups(records) {
        let _ = writeln!(table, "{schedule}: campaign {ratio:.2}x hashed tabulation");
    }
    table
}

/// Loads and validates a baseline record; exits (status 2) when the file
/// is unreadable, unparseable, or from a different schema version.
fn load_baseline(path: &str) -> JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|error| {
        eprintln!("cannot read baseline {path}: {error}");
        exit(2);
    });
    let value = parse(text.trim()).unwrap_or_else(|error| {
        eprintln!("baseline {path} is not valid JSON: {error}");
        exit(2);
    });
    match value.get("schema_version").and_then(JsonValue::as_u64) {
        Some(BENCH_SCHEMA_VERSION) => {}
        other => {
            eprintln!(
                "baseline {path} has schema_version {other:?}, expected {BENCH_SCHEMA_VERSION}"
            );
            exit(2);
        }
    }
    value
}

/// Diffs the run against a baseline: one message per regressed workload.
/// Workloads absent from the baseline are skipped (schema-additive).
pub fn compare(
    records: &[WorkloadRecord],
    baseline: &JsonValue,
    threshold_pct: f64,
) -> Vec<String> {
    let empty = Vec::new();
    let baseline_workloads = baseline
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let floor_factor = 1.0 - threshold_pct / 100.0;
    let mut regressions = Vec::new();
    for record in records {
        let reference = baseline_workloads.iter().find(|entry| {
            entry.get("schedule").and_then(JsonValue::as_str) == Some(record.schedule.as_str())
                && entry.get("workload").and_then(JsonValue::as_str) == Some(record.workload)
        });
        let Some(reference_rate) = reference
            .and_then(|entry| entry.get("traces_per_sec"))
            .and_then(JsonValue::as_f64)
        else {
            continue;
        };
        if reference_rate <= 0.0 {
            continue;
        }
        let floor = reference_rate * floor_factor;
        if record.traces_per_sec < floor {
            regressions.push(format!(
                "{}/{}: {:.0} traces/s is {:.1}% below the baseline {:.0} \
                 (threshold {}%)",
                record.schedule,
                record.workload,
                record.traces_per_sec,
                100.0 * (1.0 - record.traces_per_sec / reference_rate),
                reference_rate,
                threshold_pct,
            ));
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(schedule: &str, workload: &'static str, rate: f64) -> WorkloadRecord {
        WorkloadRecord {
            schedule: schedule.to_owned(),
            workload,
            threads: 1,
            evaluator: "compiled",
            tabulator: "dense",
            statistic: "gtest",
            wall_ms: 100,
            traces: 1000,
            traces_per_sec: rate,
            cell_evals: 50_000,
            cell_evals_per_sec: 500_000.0,
            keys_per_sec: 0.0,
            table_bytes: 4096,
            snapshot: PerfSnapshot::default(),
        }
    }

    #[test]
    fn document_round_trips_through_the_parser() {
        let options = BenchOptions::default();
        let records = vec![record("de-meyer-eq6", "simulate", 123_456.0)];
        let document = render_document(&options, &records);
        let value = parse(&document).expect("valid JSON");
        assert_eq!(
            value.get("schema_version").and_then(JsonValue::as_u64),
            Some(BENCH_SCHEMA_VERSION)
        );
        let workloads = value
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads");
        assert_eq!(workloads.len(), 1);
        assert_eq!(
            workloads[0].get("workload").and_then(JsonValue::as_str),
            Some("simulate")
        );
        assert_eq!(
            workloads[0]
                .get("traces_per_sec")
                .and_then(JsonValue::as_f64),
            Some(123_456.0)
        );
    }

    #[test]
    fn regression_fires_below_threshold_and_not_above() {
        let options = BenchOptions::default();
        let baseline_records = vec![
            record("de-meyer-eq6", "simulate", 100_000.0),
            record("proposed-eq9", "simulate", 100_000.0),
        ];
        let baseline = parse(&render_document(&options, &baseline_records)).expect("valid");

        // 30% below a 100k baseline at a 25% threshold: regression.
        let slow = vec![record("de-meyer-eq6", "simulate", 70_000.0)];
        assert_eq!(compare(&slow, &baseline, 25.0).len(), 1);

        // 10% below: within the allowance.
        let fine = vec![record("de-meyer-eq6", "simulate", 90_000.0)];
        assert!(compare(&fine, &baseline, 25.0).is_empty());

        // A workload the baseline never measured is skipped.
        let unknown = vec![record("full", "simulate", 1.0)];
        assert!(compare(&unknown, &baseline, 25.0).is_empty());
    }

    #[test]
    fn speedup_is_the_ratio_of_the_two_simulate_modes() {
        let records = vec![
            record("de-meyer-eq6", "simulate", 200_000.0),
            record("de-meyer-eq6", "simulate-interpreted", 100_000.0),
            record("proposed-eq9", "simulate", 50_000.0), // no interpreted pair
        ];
        let speedups = compiled_speedups(&records);
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].0, "de-meyer-eq6");
        assert!((speedups[0].1 - 2.0).abs() < 1e-12);

        let options = BenchOptions::default();
        let value = parse(&render_document(&options, &records)).expect("valid JSON");
        assert_eq!(value.get("threads").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(
            value
                .get("compiled_speedup")
                .and_then(|map| map.get("de-meyer-eq6"))
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
        let workloads = value
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads");
        assert_eq!(
            workloads[0].get("evaluator").and_then(JsonValue::as_str),
            Some("compiled")
        );
        assert_eq!(
            workloads[0].get("threads").and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn tabulation_speedup_is_the_ratio_of_the_two_campaign_modes() {
        let mut dense = record("de-meyer-eq6", "campaign", 300_000.0);
        dense.tabulator = "dense";
        let mut hashed = record("de-meyer-eq6", "campaign-hashed", 100_000.0);
        hashed.tabulator = "hashed";
        let unpaired = record("proposed-eq9", "campaign", 50_000.0);
        let records = vec![dense, hashed, unpaired];
        let speedups = tabulation_speedups(&records);
        assert_eq!(speedups.len(), 1);
        assert_eq!(speedups[0].0, "de-meyer-eq6");
        assert!((speedups[0].1 - 3.0).abs() < 1e-12);

        let options = BenchOptions::default();
        let value = parse(&render_document(&options, &records)).expect("valid JSON");
        assert_eq!(
            value.get("tabulator").and_then(JsonValue::as_str),
            Some("dense")
        );
        assert_eq!(
            value
                .get("tabulation_speedup")
                .and_then(|map| map.get("de-meyer-eq6"))
                .and_then(JsonValue::as_f64),
            Some(3.0)
        );
        let workloads = value
            .get("workloads")
            .and_then(JsonValue::as_array)
            .expect("workloads");
        assert_eq!(
            workloads[1].get("tabulator").and_then(JsonValue::as_str),
            Some("hashed")
        );
        assert_eq!(
            workloads[0].get("table_bytes").and_then(JsonValue::as_u64),
            Some(4096)
        );
        assert_eq!(
            workloads[0].get("keys_per_sec").and_then(JsonValue::as_f64),
            Some(0.0)
        );
    }

    #[test]
    fn keys_per_sec_divides_the_counter_by_the_tabulate_phase() {
        let perf = PerfRecorder::enabled();
        perf.add("keys_tabulated", 2_000_000);
        perf.record_duration("tabulate", std::time::Duration::from_secs(2));
        let snapshot = perf.snapshot().expect("enabled");
        assert!((keys_per_sec(&snapshot) - 1_000_000.0).abs() < 1e-6);
        // No tabulate phase (or no counter) degrades to zero, not NaN.
        assert_eq!(keys_per_sec(&PerfSnapshot::default()), 0.0);
    }

    #[test]
    fn chrome_trace_export_parses_and_scopes_every_workload() {
        let perf = PerfRecorder::enabled();
        perf.record_duration("simulate", std::time::Duration::from_micros(100));
        let snapshot = perf.snapshot().expect("enabled");
        let mut first = record("de-meyer-eq6", "simulate", 100_000.0);
        first.snapshot = snapshot.clone();
        let mut second = record("proposed-eq9", "campaign", 50_000.0);
        second.snapshot = snapshot;
        let trace = render_chrome_trace(&[first, second]);
        let value = parse(&trace).expect("valid chrome-trace JSON");
        let events = value
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents");
        assert!(!events.is_empty());
        let processes: Vec<&str> = events
            .iter()
            .filter_map(|event| {
                event
                    .get("args")
                    .and_then(|args| args.get("name"))
                    .and_then(JsonValue::as_str)
            })
            .collect();
        assert!(
            processes.contains(&"de-meyer-eq6/simulate"),
            "{processes:?}"
        );
        assert!(
            processes.contains(&"proposed-eq9/campaign"),
            "{processes:?}"
        );
    }

    #[test]
    fn the_matrix_covers_eq6_eq9_and_a_second_order_schedule() {
        let schedules: Vec<String> = schedule_matrix()
            .iter()
            .map(|(schedule, _)| schedule.name().to_owned())
            .collect();
        assert!(schedules.iter().any(|name| name.contains("eq6")));
        assert!(schedules.iter().any(|name| name.contains("eq9")));
        assert!(schedule_matrix().iter().any(|&(_, order)| order == 2));
    }
}
