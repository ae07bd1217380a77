//! End-to-end and per-layer benchmark of the leakage evaluators.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sbox-o1|kron-o2|aes-core|exact-g7|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Each workload repeats its campaigns or verifications while another
//! repetition fits in `S` seconds (at least once) and reports medians.
//! `--trace 0` is the timed run:
//! one event sink that only timestamps lifecycle events, no perf
//! recorder. `--trace 1` is the separate traced run that reports the
//! per-layer metrics. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the host, seed, verdicts and report digests. `--workload
//! all` runs every workload in its own process, so that each peak RSS
//! belongs to one workload. Exit code 1 means a correctness or
//! determinism check failed, 2 a bad argument.

mod layers;
mod stamps;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use mmaes_telemetry::json::{self, JsonObject};
use mmaes_telemetry::Observer;

use stamps::{median, Stamps};
use workloads::{Job, JobRun, Keep, Workload};

/// Every end-to-end metric, in output order, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("traces_per_s", "1/s"),
    ("sets_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut workload_given = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload_given = true;
                args.workload = match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
                    ),
                };
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload_given {
        return Err("--workload is required".to_owned());
    }
    Ok(args)
}

/// Failure accounting: every campaign or verification attempted, and
/// every one that errored, panicked, gave a wrong verdict, or produced
/// a report digest differing from an earlier run with the same seed.
pub struct Tally {
    attempted: u64,
    failed: u64,
    digests: Vec<Option<u64>>,
    verdicts: Vec<String>,
    errors: Vec<String>,
}

impl Tally {
    fn new(jobs: usize) -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            digests: vec![None; jobs],
            verdicts: vec![String::new(); jobs],
            errors: Vec::new(),
        }
    }

    /// Counts a run of `job`, the `index`-th of the workload, checking
    /// its digest against the job's first successful run.
    pub fn record(&mut self, index: usize, job: &Job, run: &JobRun) {
        self.attempted += 1;
        let judged = &run.judged;
        self.verdicts[index].clone_from(&judged.verdict);
        let problem = match (&judged.check, self.digests[index]) {
            (Err(reason), _) => Some(reason.clone()),
            (Ok(()), None) => {
                self.digests[index] = Some(judged.digest);
                None
            }
            (Ok(()), Some(first)) if first != judged.digest => Some(format!(
                "{}: report digest {:016x} differs from {first:016x} of an earlier run with the same seed",
                job.label, judged.digest
            )),
            (Ok(()), Some(_)) => None,
        };
        if let Some(problem) = problem {
            self.failed += 1;
            self.note(problem);
        }
    }

    /// Marks a failed check outside a job's own verdict.
    pub fn fail(&mut self, problem: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(problem);
    }

    fn note(&mut self, problem: String) {
        eprintln!("perfbench: FAILED: {problem}");
        if self.errors.len() < 16 {
            self.errors.push(problem);
        }
    }
}

/// `(name, value, unit)` of every reported metric.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The timed run: repetitions with the timestamp sink only. Returns the
/// end-to-end metrics and every repetition's wall time.
fn timed(jobs: &[Job], budget: Duration, tally: &mut Tally) -> (Metrics, Vec<f64>) {
    let begin = Instant::now();
    let (mut walls, mut setups, mut trace_rates, mut set_rates) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    while walls.is_empty() || fits_another(begin, walls.len(), budget) {
        let (mut wall, mut setup, mut traces, mut sets) = (0.0, 0.0, 0u64, 0u64);
        for (index, job) in jobs.iter().enumerate() {
            let stamps = Stamps::default();
            let run = job.execute(Observer::single(stamps.sink()), &stamps, Keep::Nothing);
            tally.record(index, job, &run);
            wall += run.wall.as_secs_f64();
            setup += run.setup.as_secs_f64();
            traces += run.judged.traces;
            sets += run.judged.sets;
        }
        let busy = wall - setup;
        walls.push(wall);
        setups.push(setup);
        trace_rates.push(traces as f64 / busy);
        set_rates.push(sets as f64 / busy);
    }
    let values = [
        median(&walls),
        median(&setups),
        median(&trace_rates),
        median(&set_rates),
        peak_rss_mib(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    (metrics, walls)
}

/// Whether one more repetition, at the mean length of the `done` ones
/// so far, still ends within `budget`.
pub fn fits_another(begin: Instant, done: usize, budget: Duration) -> bool {
    let elapsed = begin.elapsed();
    elapsed + elapsed / done.max(1) as u32 <= budget
}

/// `VmHWM` of this process, which runs one workload only.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, when the working directory is the root of a
/// git checkout (a parent directory's repository is not this code's).
fn commit() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown (not a git checkout)".to_owned();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where snapshot files go: inside the build directory, which is
/// ignored by git.
fn scratch_dir(workload: Workload) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-scratch")
        .join(format!("{}-{}", workload.name(), std::process::id()))
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let scratch = scratch_dir(workload);
    if let Err(error) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {error}", scratch.display());
        return ExitCode::from(2);
    }
    let jobs = workload.jobs(args.seed, &scratch);
    let mut tally = Tally::new(jobs.len());
    let budget = Duration::from_secs(args.seconds);
    let (metrics, rep_walls) = if args.trace {
        layers::run(&jobs, budget, &mut tally)
    } else {
        timed(&jobs, budget, &mut tally)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(parent) = scratch.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    for &(name, value, _) in &metrics {
        // End-to-end metrics are never 0; per-layer ones are 0 on the
        // workloads that bypass their layer.
        if !value.is_finite() || (!args.trace && value <= 0.0) {
            tally.fail(format!("metric {name} reads {value}"));
        }
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;

    eprintln!(
        "perfbench {} (seed {}, {} run): {} attempted, {} failed",
        workload.name(),
        args.seed,
        if args.trace { "traced" } else { "timed" },
        tally.attempted,
        tally.failed
    );
    for &(name, value, unit) in &metrics {
        eprintln!("  {name:<36} {value:>16.4} {unit}");
    }
    eprintln!("  {:<36} {error_rate:>16.4} failed/attempted", "error_rate");

    let named = |pairs: Vec<(String, String)>| {
        pairs
            .into_iter()
            .fold(JsonObject::new(), |object, (key, value)| {
                object.string(&key, &value)
            })
            .finish()
    };
    let labels = jobs.iter().map(|job| job.label.clone());
    let digests = named(
        labels
            .clone()
            .zip(&tally.digests)
            .map(|(label, digest)| {
                (
                    label,
                    digest.map_or("none".to_owned(), |d| format!("{d:016x}")),
                )
            })
            .collect(),
    );
    let verdicts = named(labels.zip(tally.verdicts.iter().cloned()).collect());
    let record = JsonObject::new()
        .string("workload", workload.name())
        .unsigned("seed", args.seed)
        .boolean("trace", args.trace)
        .unsigned("seconds", args.seconds)
        .unsigned(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )
        .string("cpu", &cpu_model())
        .string("rustc", env!("PERFBENCH_RUSTC"))
        .string("commit", &commit())
        .raw("error_rate", &error_rate.to_string())
        .raw(
            "rep_wall_s",
            &json::array(rep_walls.iter().map(|wall| wall.to_string())),
        )
        .raw("verdicts", &verdicts)
        .raw("digests", &digests)
        .raw(
            "errors",
            &json::array(
                tally
                    .errors
                    .iter()
                    .map(|e| format!("\"{}\"", json::escape(e))),
            ),
        )
        .finish();
    println!("{record}");

    let metrics_json = metrics
        .iter()
        .fold(JsonObject::new(), |object, &(name, value, unit)| {
            let entry = JsonObject::new()
                .raw("value", &value.to_string())
                .string("unit", unit)
                .finish();
            object.raw(name, &entry)
        })
        .finish();
    let result = JsonObject::new()
        .boolean("correct", correct)
        .unsigned("attempted", tally.attempted)
        .unsigned("failed", tally.failed)
        .raw("metrics", &metrics_json)
        .finish();
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("perfbench: cannot find own executable: {error}");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        let ok = matches!(&status, Ok(status) if status.success());
        if !ok {
            eprintln!("perfbench: {} failed: {status:?}", workload.name());
        }
        all_correct &= ok;
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}
