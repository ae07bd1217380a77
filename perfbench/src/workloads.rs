//! The four workloads: what a security evaluator runs, through the
//! public library API, with the verdicts the paper fixes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mmaes_circuits::aes_datapath::ROUND_CYCLES;
use mmaes_circuits::{
    build_kronecker, build_masked_aes, build_masked_sbox, InverterKind, SboxOptions,
};
use mmaes_exact::{ExactConfig, ExactReport, ExactVerifier, ProbeVerdict};
use mmaes_leakage::{
    Durability, EvaluationConfig, FixedVsRandom, LeakageReport, ProbeModel, ProbeTable,
};
use mmaes_masking::KroneckerRandomness;
use mmaes_netlist::{Netlist, WireId};
use mmaes_telemetry::Observer;

use crate::stamps::Stamps;

/// Trace budgets and checkpoint counts, sized so that one repetition of
/// every workload takes a few seconds on a 2-core host.
const SBOX_TRACES: u64 = 524_288;
const SBOX_CHECKPOINTS: u64 = 8;
const KRON_O2_TRACES: u64 = 6_400;
const KRON_O2_CHECKPOINTS: u64 = 4;
const AES_TRACES: u64 = 10_240;
const AES_CHECKPOINTS: u64 = 4;
const AES_THREADS: usize = 2;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SboxO1,
    KronO2,
    AesCore,
    ExactG7,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SboxO1,
        Workload::KronO2,
        Workload::AesCore,
        Workload::ExactG7,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SboxO1 => "sbox-o1",
            Workload::KronO2 => "kron-o2",
            Workload::AesCore => "aes-core",
            Workload::ExactG7 => "exact-g7",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaigns and verifications of one repetition. `scratch` is
    /// where snapshot files go.
    pub fn jobs(self, seed: u64, scratch: &Path) -> Vec<Job> {
        match self {
            Workload::SboxO1 => vec![Job {
                label: "sbox-de-meyer-eq6".to_owned(),
                design: Design::Sbox(KroneckerRandomness::de_meyer_eq6()),
                engine: Engine::Campaign(EvaluationConfig {
                    model: ProbeModel::Glitch,
                    traces: SBOX_TRACES,
                    fixed_secret: 0,
                    warmup_cycles: 8,
                    seed,
                    checkpoints: SBOX_CHECKPOINTS,
                    threads: 1,
                    ..EvaluationConfig::default()
                }),
                check: Check::LeaksUnder("kronecker/"),
            }],
            Workload::KronO2 => vec![Job {
                label: "kronecker-de-meyer-13-order2-reconstruction-o2".to_owned(),
                design: Design::Kronecker(KroneckerRandomness::de_meyer_13_reconstruction()),
                engine: Engine::Campaign(EvaluationConfig {
                    model: ProbeModel::Glitch,
                    order: 2,
                    traces: KRON_O2_TRACES,
                    fixed_secret: 0,
                    warmup_cycles: 6,
                    seed,
                    checkpoints: KRON_O2_CHECKPOINTS,
                    threads: 1,
                    durability: Durability {
                        snapshot_path: Some(scratch.join("kron-o2.snapshot")),
                        ..Durability::default()
                    },
                    ..EvaluationConfig::default()
                }),
                check: Check::RecordOnly,
            }],
            Workload::AesCore => vec![Job {
                label: "aes-de-meyer-eq6".to_owned(),
                design: Design::Aes(KroneckerRandomness::de_meyer_eq6()),
                engine: Engine::Campaign(EvaluationConfig {
                    traces: AES_TRACES,
                    fixed_secret: 0,
                    warmup_cycles: 1 + 2 * ROUND_CYCLES,
                    seed,
                    checkpoints: AES_CHECKPOINTS,
                    threads: AES_THREADS,
                    ..EvaluationConfig::default()
                }),
                check: Check::Leaks,
            }],
            Workload::ExactG7 => [
                (KroneckerRandomness::full(), 12, 0),
                (KroneckerRandomness::de_meyer_eq6(), 6, 6),
                (KroneckerRandomness::proposed_eq9(), 12, 0),
            ]
            .into_iter()
            .map(|(schedule, secure, leaky)| Job {
                label: format!("exact-{}", schedule.name()),
                design: Design::Kronecker(schedule),
                engine: Engine::Exact(ExactConfig {
                    observe_cycle: 5,
                    probe_scope_filter: Some("kronecker/G7".to_owned()),
                    ..ExactConfig::default()
                }),
                check: Check::Exact { secure, leaky },
            })
            .collect(),
        }
    }
}

/// Which circuit generator a job calls.
#[derive(Debug, Clone)]
pub enum Design {
    Sbox(KroneckerRandomness),
    Kronecker(KroneckerRandomness),
    Aes(KroneckerRandomness),
}

/// A generated netlist plus the driving constraints its campaign needs.
#[derive(Debug)]
pub struct Built {
    pub netlist: Netlist,
    nonzero_buses: Vec<Vec<WireId>>,
    load: Option<WireId>,
}

impl Design {
    pub fn build(&self) -> Built {
        const VALID: &str = "generators emit valid netlists";
        match self {
            Design::Sbox(schedule) => {
                let circuit = build_masked_sbox(SboxOptions {
                    schedule: schedule.clone(),
                    ..SboxOptions::default()
                })
                .expect(VALID);
                Built {
                    netlist: circuit.netlist,
                    nonzero_buses: vec![circuit.r_bus],
                    load: None,
                }
            }
            Design::Kronecker(schedule) => Built {
                netlist: build_kronecker(schedule).expect(VALID).netlist,
                nonzero_buses: Vec::new(),
                load: None,
            },
            Design::Aes(schedule) => {
                let circuit = build_masked_aes(schedule, InverterKind::Tower).expect(VALID);
                Built {
                    netlist: circuit.netlist,
                    nonzero_buses: circuit.r_buses,
                    load: Some(circuit.load),
                }
            }
        }
    }
}

/// The evaluator a job runs.
#[derive(Debug, Clone)]
pub enum Engine {
    Campaign(EvaluationConfig),
    Exact(ExactConfig),
}

/// The verdict the paper fixes for a job.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// The design leaks, with a leaking probe set under this prefix.
    LeaksUnder(&'static str),
    /// The design leaks.
    Leaks,
    /// The paper fixes no verdict at this budget: recorded only.
    RecordOnly,
    /// Exact secure/leaky counts, nothing too wide.
    Exact { secure: usize, leaky: usize },
}

/// One campaign or verification.
#[derive(Debug, Clone)]
pub struct Job {
    pub label: String,
    pub design: Design,
    pub engine: Engine,
    pub check: Check,
}

/// A job's report.
pub enum Report {
    Campaign(LeakageReport, Option<Vec<ProbeTable>>),
    Exact(ExactReport),
}

/// What a report says, judged against the paper.
pub struct Judged {
    /// Campaign traces, or input assignments the exact checker
    /// enumerated.
    pub traces: u64,
    /// Probe sets that received a verdict.
    pub sets: u64,
    /// FNV-1a of the report (CSV bytes, or the verdict list).
    pub digest: u64,
    /// One-line verdict for the record.
    pub verdict: String,
    /// `Err` when the run failed or gave the wrong verdict.
    pub check: Result<(), String>,
}

/// The end-to-end record of one job execution.
pub struct JobRun {
    /// Start of the build to the report.
    pub wall: Duration,
    /// Start of the build to `CampaignStarted` / `EnumerationStarted`.
    pub setup: Duration,
    pub judged: Judged,
    /// The report, when the run was asked to keep it.
    pub report: Option<Report>,
}

/// Whether a run keeps its report and final tables for per-layer
/// analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keep {
    Nothing,
    Everything,
}

impl Job {
    fn campaign_config(&self) -> Option<&EvaluationConfig> {
        match &self.engine {
            Engine::Campaign(config) => Some(config),
            Engine::Exact(_) => None,
        }
    }

    /// The snapshot file this job's campaign writes, if any.
    pub fn snapshot_path(&self) -> Option<PathBuf> {
        self.campaign_config()
            .and_then(|config| config.durability.snapshot_path.clone())
    }

    /// Worker threads the job may use.
    pub fn threads(&self) -> usize {
        self.campaign_config()
            .map_or(1, |config| config.threads.max(1))
    }

    /// Builds and runs the job with `observer`, timing it. A panic or an
    /// error is a failed run, never an abort of the benchmark.
    pub fn execute(&self, observer: Observer, stamps: &Stamps, keep: Keep) -> JobRun {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run(observer, keep)));
        let end = Instant::now();
        let setup = stamps.started().map_or(end - start, |at| at - start);
        let failed = |reason: String| Judged {
            traces: 0,
            sets: 0,
            digest: 0,
            verdict: format!("{}: error: {reason}", self.label),
            check: Err(format!("{}: {reason}", self.label)),
        };
        let (judged, report) = match outcome {
            Ok(Ok(report)) => {
                let judged = match &report {
                    Report::Campaign(report, _) => self.judge_campaign(report),
                    Report::Exact(report) => self.judge_exact(report),
                };
                (judged, (keep == Keep::Everything).then_some(report))
            }
            Ok(Err(error)) => (failed(error), None),
            Err(_) => (failed("panicked".to_owned()), None),
        };
        JobRun {
            wall: end - start,
            setup,
            judged,
            report,
        }
    }

    fn run(&self, observer: Observer, keep: Keep) -> Result<Report, String> {
        let built = self.design.build();
        Ok(match &self.engine {
            Engine::Campaign(config) => {
                let mut campaign =
                    FixedVsRandom::new(&built.netlist, config.clone()).with_observer(observer);
                if let Some(load) = built.load {
                    campaign = campaign.schedule_control(load, vec![true, false]);
                }
                for bus in &built.nonzero_buses {
                    campaign = campaign.require_nonzero_bus(bus.clone());
                }
                match keep {
                    Keep::Nothing => Report::Campaign(
                        campaign.try_run().map_err(|error| error.to_string())?,
                        None,
                    ),
                    Keep::Everything => {
                        let (report, tables) = campaign
                            .try_run_with_tables()
                            .map_err(|error| error.to_string())?;
                        Report::Campaign(report, Some(tables))
                    }
                }
            }
            Engine::Exact(config) => Report::Exact(
                ExactVerifier::with_config(&built.netlist, config.clone())
                    .with_observer(observer)
                    .verify_all(),
            ),
        })
    }

    fn judge_campaign(&self, report: &LeakageReport) -> Judged {
        let config = self.campaign_config().expect("campaign job");
        let expected_traces = config.traces.div_ceil(64) * 64;
        let worst = report.worst().map_or(0.0, |result| result.minus_log10_p);
        let leaking = report.leaking();
        let check = if report.traces != expected_traces || report.interrupted {
            Err(format!(
                "{}: ran {} of {expected_traces} traces",
                self.label, report.traces
            ))
        } else {
            match self.check {
                Check::LeaksUnder(prefix)
                    if !leaking.iter().any(|result| result.label.contains(prefix)) =>
                {
                    Err(format!("{}: expected a leak under {prefix}", self.label))
                }
                Check::Leaks if report.passed() => Err(format!("{}: expected a leak", self.label)),
                _ => Ok(()),
            }
        };
        Judged {
            traces: report.traces,
            sets: report.results.len() as u64,
            digest: fnv1a(report.to_csv().as_bytes()),
            verdict: format!(
                "{}: {} of {} sets leak, max -log10(p) {worst:.1}",
                self.label,
                leaking.len(),
                report.results.len()
            ),
            check,
        }
    }

    fn judge_exact(&self, report: &ExactReport) -> Judged {
        let secure = report.secure_count();
        let leaky = report.leaks().len();
        let too_wide = report.too_wide().len();
        // Every verdict with a support enumerates 2^support input
        // assignments: the exhaustive checker's traces.
        let mut traces = 0u64;
        let mut listing = String::new();
        for (label, verdict) in &report.verdicts {
            match verdict {
                ProbeVerdict::Secure { support_bits, .. }
                | ProbeVerdict::Leaky { support_bits, .. } => {
                    traces += 1u64 << support_bits;
                }
                ProbeVerdict::TooWide { .. } => {}
            }
            listing.push_str(&format!("{label}\t{verdict:?}\n"));
        }
        let check = match self.check {
            Check::Exact {
                secure: want_secure,
                leaky: want_leaky,
            } if (secure, leaky, too_wide) != (want_secure, want_leaky, 0) => Err(format!(
                "{}: expected {want_secure} secure / {want_leaky} leaky",
                self.label
            )),
            _ => Ok(()),
        };
        Judged {
            traces,
            sets: (secure + leaky) as u64,
            digest: fnv1a(listing.as_bytes()),
            verdict: format!(
                "{}: {secure} secure / {leaky} leaky / {too_wide} too wide",
                self.label
            ),
            check,
        }
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}
