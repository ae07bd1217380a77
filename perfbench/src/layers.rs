//! The traced run: per-layer numbers, timed from the benchmark around
//! calls into each module's public functions, plus the program's own
//! `PerfRecorder` phases read through `Observer::with_perf`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mmaes_exact::{ExactVerifier, ProbeVerdict};
use mmaes_leakage::{enumerate_probe_sets, snapshot, ProbeSet};
use mmaes_netlist::{Netlist, StableCones};
use mmaes_sim::Simulator;
use mmaes_telemetry::{Observer, PerfRecorder, PerfSnapshot};

use crate::stamps::{high_percentile, median, Stamps};
use crate::workloads::{Engine, Job, Keep, Report};
use crate::{fits_another, Metrics, Tally};

/// Every per-layer metric, in output order, with its unit.
pub const METRICS: &[(&str, &str)] = &[
    ("circuits.build_ms", "ms"),
    ("netlist.validate_ms", "ms"),
    ("netlist.cells", "count"),
    ("sim.compile_ms", "ms"),
    ("probe.enumerate_ms", "ms"),
    ("probe.sets", "count"),
    ("sim.cell_evals_per_s", "1/s"),
    ("engine.simulate_ms", "ms"),
    ("engine.tabulate_ms", "ms"),
    ("engine.tabulate_ns_per_key", "ns"),
    ("engine.keys_tabulated", "count"),
    ("engine.merge_ms", "ms"),
    ("engine.g_test_self_ms", "ms"),
    ("engine.snapshot_ms", "ms"),
    ("engine.dense_tables", "count"),
    ("engine.hashed_tables", "count"),
    ("engine.self_time_pct", "%"),
    ("stats.sweep_ms", "ms"),
    ("campaign.checkpoint_interval_ms", "ms"),
    ("campaign.checkpoint_interval_hi_ms", "ms"),
    ("campaign.checkpoint_interval_hi_pct", "%"),
    ("campaign.checkpoint_intervals", "count"),
    ("tabulate.table_bytes", "B"),
    ("snapshot.bytes", "B"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("exact.unroll_ms", "ms"),
    ("exact.enumerate_ms", "ms"),
    ("exact.probe_ms", "ms"),
    ("exact.probe_hi_ms", "ms"),
    ("exact.probe_hi_pct", "%"),
    ("exact.probes", "count"),
    ("exact.cell_evals", "count"),
    ("exact.sets_secure", "count"),
    ("exact.sets_leaky", "count"),
    ("exact.sets_too_wide", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.sink_overhead_pct", "%"),
];

/// How long the bare simulator loop runs per netlist.
const SIM_LOOP: Duration = Duration::from_millis(100);

/// Observer set-up of one end-to-end repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observe {
    /// `Observer::null()`: no sink, no recorder.
    Null,
    /// The timed run's configuration: the timestamp sink only.
    Sink,
    /// The timestamp sink plus an enabled `PerfRecorder`.
    Traced,
}

/// Per-iteration sums, keyed by metric name.
type Sample = BTreeMap<&'static str, f64>;

fn add(sample: &mut Sample, name: &'static str, value: f64) {
    *sample.entry(name).or_insert(0.0) += value;
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn phase_ms(perf: &PerfSnapshot, name: &str) -> f64 {
    perf.phase(name).map_or(0.0, |phase| phase.total_ms())
}

/// Runs traced iterations while another fits in `budget` (at least
/// one). Returns every metric of [`METRICS`] and each iteration's
/// traced wall time.
pub fn run(jobs: &[Job], budget: Duration, tally: &mut Tally) -> (Metrics, Vec<f64>) {
    // The first campaign of a process runs slower (page faults, cold
    // caches). Without a warm-up repetition, whichever observer set-up
    // goes first in an iteration would carry that cost into the
    // overhead figures.
    for (index, job) in jobs.iter().enumerate() {
        let stamps = Stamps::default();
        let run = job.execute(Observer::single(stamps.sink()), &stamps, Keep::Nothing);
        tally.record(index, job, &run);
    }
    let begin = Instant::now();
    let mut samples: Vec<Sample> = Vec::new();
    let mut checkpoint_gaps: Vec<f64> = Vec::new();
    let mut probe_times: Vec<f64> = Vec::new();
    while samples.is_empty() || fits_another(begin, samples.len(), budget) {
        let iteration = samples.len();
        samples.push(iterate(
            jobs,
            iteration,
            tally,
            &mut checkpoint_gaps,
            &mut probe_times,
        ));
    }
    let median_of = |name: &str| {
        let values: Vec<f64> = samples
            .iter()
            .map(|sample| sample.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&values)
    };
    let (gap_hi, gap_pct) = high_percentile(&checkpoint_gaps);
    let (probe_hi, probe_pct) = high_percentile(&probe_times);
    let null = median_of("wall.null");
    let sink = median_of("wall.sink");
    let traced = median_of("wall.traced");
    let walls = samples
        .iter()
        .map(|sample| sample.get("wall.traced").copied().unwrap_or(0.0))
        .collect();
    let metrics = METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "campaign.checkpoint_interval_ms" => median(&checkpoint_gaps),
                "campaign.checkpoint_interval_hi_ms" => gap_hi,
                "campaign.checkpoint_interval_hi_pct" => gap_pct,
                "campaign.checkpoint_intervals" => checkpoint_gaps.len() as f64,
                "exact.probe_ms" => median(&probe_times),
                "exact.probe_hi_ms" => probe_hi,
                "exact.probe_hi_pct" => probe_pct,
                "exact.probes" => probe_times.len() as f64,
                "trace.wall_s" => traced,
                "trace.overhead_s" => traced - sink,
                "trace.sink_overhead_pct" => 100.0 * (sink - null) / null,
                other => median_of(other),
            };
            (name, value, unit)
        })
        .collect();
    (metrics, walls)
}

/// One traced iteration: the layer timings, then one end-to-end
/// repetition under each observer set-up, in rotating order.
fn iterate(
    jobs: &[Job],
    iteration: usize,
    tally: &mut Tally,
    checkpoint_gaps: &mut Vec<f64>,
    probe_times: &mut Vec<f64>,
) -> Sample {
    let mut sample = Sample::new();
    let mut single_verdicts: Vec<Vec<(String, ProbeVerdict)>> = Vec::new();
    let mut cell_evals = 0u64;
    let mut sim_seconds = 0.0;
    for job in jobs {
        let start = Instant::now();
        let built = job.design.build();
        add(&mut sample, "circuits.build_ms", ms(start.elapsed()));
        let netlist = &built.netlist;

        let start = Instant::now();
        let valid = netlist.validate();
        add(&mut sample, "netlist.validate_ms", ms(start.elapsed()));
        if let Err(error) = valid {
            tally.fail(format!("{}: netlist invalid: {error}", job.label));
        }
        add(&mut sample, "netlist.cells", netlist.cell_count() as f64);

        let start = Instant::now();
        drop(std::hint::black_box(Simulator::new(netlist)));
        add(&mut sample, "sim.compile_ms", ms(start.elapsed()));

        let (order, scope, cap) = match &job.engine {
            Engine::Campaign(config) => (
                config.order,
                config.probe_scope_filter.clone(),
                config.max_probe_sets,
            ),
            Engine::Exact(config) => (1, config.probe_scope_filter.clone(), config.max_probe_sets),
        };
        let start = Instant::now();
        let cones = StableCones::new(netlist);
        let sets = enumerate_probe_sets(netlist, &cones, order, scope.as_deref(), cap);
        add(&mut sample, "probe.enumerate_ms", ms(start.elapsed()));
        add(&mut sample, "probe.sets", sets.len() as f64);

        let (evals, seconds) = drive_and_step(netlist, iteration as u64);
        cell_evals += evals;
        sim_seconds += seconds;

        if let Engine::Exact(config) = &job.engine {
            let verifier = ExactVerifier::with_config(netlist, config.clone());
            single_verdicts.push(time_probes(&verifier, &sets, probe_times));
        }
    }
    add(
        &mut sample,
        "sim.cell_evals_per_s",
        cell_evals as f64 / sim_seconds,
    );

    let modes = [Observe::Null, Observe::Sink, Observe::Traced];
    for offset in 0..modes.len() {
        let mode = modes[(iteration + offset) % modes.len()];
        let mut wall = Duration::ZERO;
        let mut exact_index = 0;
        for (index, job) in jobs.iter().enumerate() {
            let stamps = Stamps::default();
            let recorder = PerfRecorder::enabled();
            let (observer, keep) = match mode {
                Observe::Null => (Observer::null(), Keep::Nothing),
                Observe::Sink => (Observer::single(stamps.sink()), Keep::Nothing),
                Observe::Traced => (
                    Observer::single(stamps.sink()).with_perf(recorder.clone()),
                    Keep::Everything,
                ),
            };
            let run = job.execute(observer, &stamps, keep);
            tally.record(index, job, &run);
            wall += run.wall;
            // Both stamped set-ups see the refresh interval a live
            // monitor sees; the recorder's share of it is within noise.
            checkpoint_gaps.extend(stamps.checkpoint_gaps().into_iter().map(ms));
            if mode != Observe::Traced {
                continue;
            }
            let perf = recorder.snapshot().expect("recorder is enabled");
            match &run.report {
                Some(Report::Campaign(report, tables)) => {
                    engine_phases(
                        &mut sample,
                        &perf,
                        run.wall,
                        job.threads(),
                        tally,
                        &job.label,
                    );
                    add(
                        &mut sample,
                        "tabulate.table_bytes",
                        report.table_bytes as f64,
                    );
                    let worst = report.worst().map_or(0.0, |result| result.minus_log10_p);
                    if let Some(tables) = tables {
                        sweep(&mut sample, job, tables, worst, tally);
                    }
                    if let Some(path) = job.snapshot_path() {
                        snapshot_round_trip(&mut sample, &path, tally);
                    }
                }
                Some(Report::Exact(report)) => {
                    add(&mut sample, "exact.unroll_ms", phase_ms(&perf, "unroll"));
                    add(
                        &mut sample,
                        "exact.enumerate_ms",
                        phase_ms(&perf, "enumerate"),
                    );
                    add(&mut sample, "exact.cell_evals", report.cell_evals as f64);
                    add(
                        &mut sample,
                        "exact.sets_secure",
                        report.secure_count() as f64,
                    );
                    add(&mut sample, "exact.sets_leaky", report.leaks().len() as f64);
                    add(
                        &mut sample,
                        "exact.sets_too_wide",
                        report.too_wide().len() as f64,
                    );
                    if single_verdicts.get(exact_index) != Some(&report.verdicts) {
                        tally.fail(format!(
                            "{}: per-set verify_probe disagrees with verify_all",
                            job.label
                        ));
                    }
                    exact_index += 1;
                }
                None => {}
            }
        }
        let key = match mode {
            Observe::Null => "wall.null",
            Observe::Sink => "wall.sink",
            Observe::Traced => "wall.traced",
        };
        add(&mut sample, key, wall.as_secs_f64());
    }
    sample
}

/// A bare drive/step loop: every input gets a fresh random word each
/// cycle. Returns (cell evaluations, seconds).
fn drive_and_step(netlist: &Netlist, seed: u64) -> (u64, f64) {
    let mut simulator = Simulator::new(netlist);
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let before = simulator.counters();
    let start = Instant::now();
    while start.elapsed() < SIM_LOOP {
        for _ in 0..16 {
            for &input in netlist.inputs() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                simulator.set_input(input, state);
            }
            simulator.step();
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let evals = simulator.counters().delta_since(before).cell_evals;
    std::hint::black_box(simulator.value(netlist.inputs()[0]));
    (evals, seconds)
}

/// Times `verify_probe` on every set (each call unrolls the design
/// afresh) and returns the verdicts in set order.
fn time_probes(
    verifier: &ExactVerifier<'_>,
    sets: &[ProbeSet],
    probe_times: &mut Vec<f64>,
) -> Vec<(String, ProbeVerdict)> {
    sets.iter()
        .map(|set| {
            let start = Instant::now();
            let verdict = verifier.verify_probe(set);
            probe_times.push(ms(start.elapsed()));
            (set.label.clone(), verdict)
        })
        .collect()
}

/// The engine's `PerfRecorder` phases. The interim-checkpoint `g_test`
/// span encloses the interim `snapshot` spans; the final save, the
/// largest file of the campaign, is the one snapshot span outside it.
///
/// Self times must fit in the wall time of every thread that records
/// spans: with `threads > 1` that is the workers plus the coordinator,
/// which merges and sweeps while the workers tabulate.
fn engine_phases(
    sample: &mut Sample,
    perf: &PerfSnapshot,
    wall: Duration,
    threads: usize,
    tally: &mut Tally,
    label: &str,
) {
    let simulate = phase_ms(perf, "simulate");
    let tabulate = phase_ms(perf, "tabulate");
    let merge = phase_ms(perf, "merge");
    let snapshot = phase_ms(perf, "snapshot");
    let nested_snapshot = perf
        .phase("snapshot")
        .map_or(0.0, |phase| (phase.total_ns - phase.max_ns) as f64 / 1e6);
    let g_test_self = phase_ms(perf, "g_test") - nested_snapshot;
    let keys = perf.counter("keys_tabulated").unwrap_or(0) as f64;
    add(sample, "engine.simulate_ms", simulate);
    add(sample, "engine.tabulate_ms", tabulate);
    add(
        sample,
        "engine.tabulate_ns_per_key",
        tabulate * 1e6 / keys.max(1.0),
    );
    add(sample, "engine.keys_tabulated", keys);
    add(sample, "engine.merge_ms", merge);
    add(sample, "engine.g_test_self_ms", g_test_self);
    add(sample, "engine.snapshot_ms", snapshot);
    add(
        sample,
        "engine.dense_tables",
        perf.counter("dense_tables").unwrap_or(0) as f64,
    );
    add(
        sample,
        "engine.hashed_tables",
        perf.counter("hashed_tables").unwrap_or(0) as f64,
    );
    let self_total = simulate + tabulate + merge + g_test_self + snapshot;
    let recording_threads = if threads > 1 { threads + 1 } else { 1 };
    let capacity = ms(wall) * recording_threads as f64;
    add(
        sample,
        "engine.self_time_pct",
        100.0 * self_total / capacity,
    );
    if self_total > capacity {
        tally.fail(format!(
            "{label}: phase self times sum to {self_total:.1} ms, over wall × recording threads = {capacity:.1} ms"
        ));
    }
}

/// Evaluates the configured statistic over the final tables and checks
/// that it reproduces the report's worst `-log10(p)`.
fn sweep(
    sample: &mut Sample,
    job: &Job,
    tables: &[mmaes_leakage::ProbeTable],
    worst: f64,
    tally: &mut Tally,
) {
    let Engine::Campaign(config) = &job.engine else {
        return;
    };
    let statistic = config.statistic.as_statistic();
    let start = Instant::now();
    let swept = tables
        .iter()
        .filter_map(|table| statistic.evaluate(&table.columns, table.overflow))
        .map(|outcome| outcome.minus_log10_p)
        .fold(0.0, f64::max);
    add(sample, "stats.sweep_ms", ms(start.elapsed()));
    if swept != worst {
        tally.fail(format!(
            "{}: statistic over the final tables gives {swept}, the report {worst}",
            job.label
        ));
    }
}

/// `snapshot::load` of the campaign's final snapshot, then
/// `snapshot::save` of it beside the original, which must reproduce
/// the file byte for byte.
fn snapshot_round_trip(sample: &mut Sample, path: &std::path::Path, tally: &mut Tally) {
    let resaved = path.with_extension("resaved");
    let start = Instant::now();
    let loaded = snapshot::load(path);
    add(sample, "snapshot.load_ms", ms(start.elapsed()));
    let saved = loaded.and_then(|snapshot| {
        let start = Instant::now();
        let saved = snapshot::save(&snapshot, &resaved);
        add(sample, "snapshot.save_ms", ms(start.elapsed()));
        saved
    });
    let compared = saved.map_err(|error| error.to_string()).and_then(|()| {
        let original = std::fs::read(path).map_err(|error| error.to_string())?;
        let copy = std::fs::read(&resaved).map_err(|error| error.to_string())?;
        Ok((original.len(), original == copy))
    });
    match compared {
        Ok((bytes, true)) => add(sample, "snapshot.bytes", bytes as f64),
        Ok((_, false)) => tally.fail("snapshot load + save changed the file".to_owned()),
        Err(error) => tally.fail(format!("snapshot round trip: {error}")),
    }
    let _ = std::fs::remove_file(&resaved);
}
