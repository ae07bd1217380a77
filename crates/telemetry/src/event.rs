//! The typed event schema (documented in DESIGN.md § Observability).

use crate::faults::{degraded_json, DegradedEntry};
use crate::json::{array, JsonObject};
use crate::perf::PerfSnapshot;

/// Version of the JSONL event schema and of the `summary` line. Bumped
/// on any field addition; consumers should treat unknown fields as
/// additive (v1: PR 1 lifecycle events; v2: perf_snapshot events, rate
/// fields on `sim_progress`, and `elapsed_ms`/`traces_per_sec`/
/// `cell_evals` on `summary`; v3: `interrupted` on `summary` — a run
/// that was SIGINT/SIGTERM'd mid-campaign and stopped cooperatively
/// after writing a snapshot; v4: `threads` on `summary` — how many
/// worker threads the run's campaigns sharded batches across, 1 for
/// in-place single-threaded; v5: `finding` events — per-probe-set
/// forensic evidence bundles emitted by `mmaes explain`, carrying a
/// one-line root-cause `hint` plus the full machine-readable `bundle`
/// object; v6: `health`/`health_summary` events — per-probe-set
/// convergence diagnostics computed at every checkpoint and once at the
/// end of a campaign — plus a `build_info` object on `summary` carrying
/// the crate version and the schema versions of every artifact the run
/// can write; v7: a `degraded` array on `health`/`health_summary`
/// events and on `summary` — subsystems that exhausted their I/O retry
/// budget and fell back to in-memory operation, `[]` on a clean run;
/// v8: a `statistic` field on `health`/`health_summary` and on
/// `summary` naming the leakage test that produced the `-log10(p)`
/// values — `"gtest"` or `"ttest"`, empty on summaries of runs that
/// never sampled). The campaign *snapshot* file carries its own
/// independent version
/// (`mmaes_leakage::snapshot::SNAPSHOT_SCHEMA_VERSION`, currently 2).
pub const EVENT_SCHEMA_VERSION: u64 = 8;

/// One probing set's running statistic at a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbePoint {
    /// The probing-set label (wire names).
    pub label: String,
    /// Running `-log10(p)` of the G-test at this point.
    pub minus_log10_p: f64,
    /// Whether the running value exceeds the decision threshold.
    pub leaking: bool,
}

impl ProbePoint {
    fn to_json(&self) -> String {
        JsonObject::new()
            .string("label", &self.label)
            .float("minus_log10_p", self.minus_log10_p)
            .boolean("leaking", self.leaking)
            .finish()
    }
}

/// One probing set's convergence diagnostics at a checkpoint
/// (schema v6). Everything here derives from the deterministic
/// contingency tables and trajectories, never from wall clocks, so
/// health payloads are byte-identical across `--threads`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeHealth {
    /// The probing-set label (wire names).
    pub label: String,
    /// Running `-log10(p)` of the G-test at this checkpoint.
    pub minus_log10_p: f64,
    /// Whether the running value exceeds the decision threshold.
    pub leaking: bool,
    /// Contingency columns kept as their own cells by the G-test.
    pub tested_columns: u64,
    /// Contingency columns pooled into the rare-events bucket
    /// (total below `POOLING_THRESHOLD`).
    pub pooled_columns: u64,
    /// Fraction of the set's sample mass sitting in pooled columns.
    pub pooled_fraction: f64,
    /// Minimum expected cell count after pooling (0 when untestable).
    pub min_expected: f64,
    /// Whether the table is too sparse for a calibrated test: not
    /// testable at all, or minimum expected count under Cochran's 5.
    pub undersampled: bool,
    /// Effect-size estimate: `-log10(p)` gained per million traces,
    /// the slope over the recent checkpoint trajectory.
    pub slope_per_mtrace: f64,
    /// Projected total traces until this set crosses the threshold:
    /// the observed crossing point for already-leaking sets, a linear
    /// projection for converging sets, infinity (rendered as JSON
    /// `null`) when the trajectory is flat or receding.
    pub traces_to_detection: f64,
}

impl ProbeHealth {
    fn to_json(&self) -> String {
        JsonObject::new()
            .string("label", &self.label)
            .float("minus_log10_p", self.minus_log10_p)
            .boolean("leaking", self.leaking)
            .unsigned("tested_columns", self.tested_columns)
            .unsigned("pooled_columns", self.pooled_columns)
            .float("pooled_fraction", self.pooled_fraction)
            .float("min_expected", self.min_expected)
            .boolean("undersampled", self.undersampled)
            .float("slope_per_mtrace", self.slope_per_mtrace)
            .float("traces_to_detection", self.traces_to_detection)
            .finish()
    }
}

/// Campaign-wide convergence health at a checkpoint (schema v6): the
/// payload of `health` events, of the final `health_summary`, and of
/// the `health` block in `--status-file` output.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthCheckpoint {
    /// Traces accumulated so far.
    pub traces: u64,
    /// The campaign's trace budget.
    pub traces_target: u64,
    /// The `-log10(p)` decision threshold in force.
    pub threshold: f64,
    /// Which leakage statistic produced the `-log10(p)` values —
    /// `"gtest"` or `"ttest"` (schema v8).
    pub statistic: String,
    /// Probing sets under test.
    pub probe_sets: u64,
    /// Sets whose table currently supports a calibrated G-test.
    pub testable_sets: u64,
    /// Sets flagged as undersampled (untestable or expected < 5).
    pub undersampled_sets: u64,
    /// Sets currently over the threshold.
    pub leaking_sets: u64,
    /// Fresh randomness the schedule draws per trace, in bits
    /// (sharing randomness + free masks + nonzero byte buses, over
    /// the warm-up window).
    pub fresh_bits_per_trace: u64,
    /// Total fresh randomness consumed so far, in bits.
    pub fresh_bits_total: u64,
    /// Per-set diagnostics: the checkpoint's top sets plus every set
    /// over the threshold (the same cut as checkpoint probes).
    pub probes: Vec<ProbeHealth>,
    /// Subsystems operating in degraded mode at this checkpoint
    /// (schema v7); empty — and rendered as `[]` — on a clean run, so
    /// health payloads stay byte-identical across `--threads`.
    pub degraded: Vec<DegradedEntry>,
}

impl HealthCheckpoint {
    fn fill_json(&self, object: JsonObject) -> JsonObject {
        object
            .unsigned("traces", self.traces)
            .unsigned("traces_target", self.traces_target)
            .float("threshold", self.threshold)
            .string("statistic", &self.statistic)
            .unsigned("probe_sets", self.probe_sets)
            .unsigned("testable_sets", self.testable_sets)
            .unsigned("undersampled_sets", self.undersampled_sets)
            .unsigned("leaking_sets", self.leaking_sets)
            .unsigned("fresh_bits_per_trace", self.fresh_bits_per_trace)
            .unsigned("fresh_bits_total", self.fresh_bits_total)
            .raw(
                "probes",
                &array(self.probes.iter().map(ProbeHealth::to_json)),
            )
            .raw("degraded", &degraded_json(&self.degraded))
    }

    /// Renders the health block as a standalone JSON object (the
    /// `health` value embedded in `--status-file` output).
    pub fn to_json(&self) -> String {
        self.fill_json(JsonObject::new()).finish()
    }
}

/// A periodic mid-campaign snapshot (PROLEAD's intermediate reports).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Traces accumulated so far.
    pub traces: u64,
    /// The campaign's trace target.
    pub traces_target: u64,
    /// Wall time since the campaign started, in milliseconds.
    pub elapsed_ms: u64,
    /// Current overall throughput, traces per second.
    pub traces_per_sec: f64,
    /// Running maximum `-log10(p)` over all probing sets.
    pub max_minus_log10_p: f64,
    /// Label of the probing set attaining the maximum.
    pub worst_label: String,
    /// Per-probe-set running values (the trajectory payload; campaigns
    /// include the top sets plus every set over the threshold).
    pub probes: Vec<ProbePoint>,
}

/// The machine-readable one-line verdict every CLI run ends with.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunSummary {
    /// The producing tool (`"mmaes evaluate"`, `"exp_e2"`, …).
    pub tool: String,
    /// Run identifier (experiment id or design spec).
    pub id: String,
    /// Design evaluated.
    pub design: String,
    /// Randomness schedule(s) involved.
    pub schedule: String,
    /// Probing model, when applicable.
    pub model: String,
    /// Leakage statistic the run's campaigns applied — `"gtest"` or
    /// `"ttest"`, empty when the run never sampled (schema v8).
    pub statistic: String,
    /// Probing order, when applicable (0 = not applicable).
    pub order: usize,
    /// Traces simulated (0 when not a sampling run).
    pub traces: u64,
    /// Maximum observed `-log10(p)` (0 when not a sampling run).
    pub max_minus_log10_p: f64,
    /// The run's verdict (leakage evaluation: "no leak found";
    /// experiments: "matches the paper").
    pub passed: bool,
    /// Wall time of the run, in milliseconds.
    pub wall_ms: u64,
    /// Overall throughput, traces per second of wall time (0 when not a
    /// sampling run).
    pub traces_per_sec: f64,
    /// Combinational cell evaluations performed by the run's
    /// simulator(s) (0 when unknown).
    pub cell_evals: u64,
    /// Whether the run was interrupted (SIGINT/SIGTERM) and stopped
    /// cooperatively before finishing; `passed` then reflects the
    /// evidence gathered so far, not a final verdict (schema v3).
    pub interrupted: bool,
    /// Worker threads the run's campaigns sharded batches across
    /// (schema v4); 1 for single-threaded, 0 when not applicable.
    pub threads: u64,
    /// Additional artifact schema versions rendered into `build_info`
    /// (schema v6) beyond the always-present event schema — e.g.
    /// `("snapshot_schema", 2)`, `("status_schema", 1)`. The producing
    /// binary lists the schemas of every artifact it can write.
    pub schemas: Vec<(String, u64)>,
    /// Subsystems that degraded to in-memory operation during the run
    /// (schema v7); empty on a clean run. Producers typically fill
    /// this from the run's [`crate::Faults::degraded`] when building
    /// the summary.
    pub degraded: Vec<DegradedEntry>,
    /// Free-form extras appended to the JSON object.
    pub extra: Vec<(String, String)>,
}

impl RunSummary {
    /// Renders the summary as a single JSON line.
    pub fn to_json_line(&self) -> String {
        let mut build_info = JsonObject::new()
            .string("version", env!("CARGO_PKG_VERSION"))
            .unsigned("event_schema", EVENT_SCHEMA_VERSION);
        for (name, version) in &self.schemas {
            build_info = build_info.unsigned(name, *version);
        }
        let mut object = JsonObject::new()
            .string("type", "summary")
            .string("tool", &self.tool)
            .string("id", &self.id)
            .string("design", &self.design)
            .string("schedule", &self.schedule)
            .string("model", &self.model)
            // Which leakage test produced `max_minus_log10_p`
            // (schema v8); empty when the run never sampled.
            .string("statistic", &self.statistic)
            .unsigned("order", self.order as u64)
            .unsigned("traces", self.traces)
            .float("max_minus_log10_p", self.max_minus_log10_p)
            .boolean("passed", self.passed)
            .unsigned("wall_ms", self.wall_ms)
            // `elapsed_ms` aliases `wall_ms` (schema v2): downstream
            // perf tooling reads one canonical duration key across
            // summaries, checkpoints, and bench records.
            .unsigned("elapsed_ms", self.wall_ms)
            .float("traces_per_sec", self.traces_per_sec)
            .unsigned("cell_evals", self.cell_evals)
            .boolean("interrupted", self.interrupted)
            .unsigned("threads", self.threads)
            // Attribution for archived runs (schema v6): which crate
            // version wrote this line, under which artifact schemas.
            .raw("build_info", &build_info.finish())
            // Fault containment (schema v7): `[]` unless a subsystem
            // exhausted its retry budget and fell back to in-memory.
            .raw("degraded", &degraded_json(&self.degraded));
        for (key, value) in &self.extra {
            object = object.string(key, value);
        }
        object.finish()
    }
}

/// Everything the instrumented stack reports.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A fixed-vs-random campaign began.
    CampaignStarted {
        /// Design under evaluation.
        design: String,
        /// Probing model name.
        model: String,
        /// Probing order.
        order: usize,
        /// Number of probing sets under test.
        probe_sets: usize,
        /// Trace budget.
        traces_target: u64,
    },
    /// A periodic mid-campaign snapshot.
    CampaignCheckpoint(Checkpoint),
    /// A probing set first crossed the decision threshold.
    ProbeFlagged {
        /// The probing-set label.
        label: String,
        /// Its `-log10(p)` at the crossing checkpoint.
        minus_log10_p: f64,
        /// Traces accumulated when it crossed.
        traces: u64,
    },
    /// A campaign completed (or early-stopped on a decisive verdict).
    CampaignFinished {
        /// Design under evaluation.
        design: String,
        /// Traces actually simulated.
        traces: u64,
        /// Wall time, milliseconds.
        wall_ms: u64,
        /// Whether no probing set exceeded the threshold.
        passed: bool,
        /// Final maximum `-log10(p)`.
        max_minus_log10_p: f64,
        /// Number of leaking probing sets.
        leaking: usize,
        /// Whether the campaign stopped before its trace budget.
        early_stopped: bool,
    },
    /// Simulator counters (reported at checkpoint cadence). The rates
    /// are computed over the interval since the previous report
    /// (schema v2), so they track *current* throughput, not the
    /// lifetime average.
    SimProgress {
        /// Clock cycles simulated since construction (monotonic).
        cycles: u64,
        /// Combinational cell evaluations (monotonic).
        cell_evals: u64,
        /// Fraction of the 64 lanes carrying useful traces.
        lane_utilization: f64,
        /// Clock cycles per second over the last interval.
        cycles_per_sec: f64,
        /// Cell evaluations per second over the last interval.
        cell_evals_per_sec: f64,
    },
    /// An exhaustive verification began.
    EnumerationStarted {
        /// Design under verification.
        design: String,
        /// Probing sets to verify.
        probe_sets: usize,
    },
    /// Exhaustive verification progress.
    EnumerationProgress {
        /// Probing sets verified so far.
        done: usize,
        /// Total probing sets.
        total: usize,
        /// Wall time so far, milliseconds.
        elapsed_ms: u64,
    },
    /// The enumerator found a distribution-gap counterexample.
    CounterexampleFound {
        /// The leaking probing set.
        label: String,
        /// Wall time from enumeration start to the hit, milliseconds.
        elapsed_ms: u64,
    },
    /// An exhaustive verification completed.
    EnumerationFinished {
        /// Design under verification.
        design: String,
        /// Probing sets proven secure.
        secure: usize,
        /// Probing sets proven leaky.
        leaky: usize,
        /// Probing sets skipped as too wide to enumerate.
        too_wide: usize,
        /// Wall time, milliseconds.
        wall_ms: u64,
    },
    /// A per-phase timing/counter snapshot from an enabled
    /// [`crate::PerfRecorder`] (emitted at the end of an instrumented
    /// run).
    PerfSnapshot {
        /// What was instrumented (`"campaign"`, `"exact"`, …).
        scope: String,
        /// The frozen per-phase stats and counters.
        snapshot: PerfSnapshot,
    },
    /// A forensic evidence bundle for one flagged probing set
    /// (schema v5, emitted by `mmaes explain`). JSONL sinks get the
    /// full machine-readable bundle; progress sinks print the hint.
    Finding {
        /// The probing-set label (wire names).
        label: String,
        /// The set's final `-log10(p)`.
        minus_log10_p: f64,
        /// One-line root-cause hint (recycled randomness, secret-bit
        /// dependence) suitable for a terminal.
        hint: String,
        /// The full evidence bundle, already rendered as a JSON object
        /// (see `mmaes_leakage::forensics::EvidenceBundle::to_json`).
        bundle: String,
    },
    /// Convergence health at a checkpoint (schema v6): statistical
    /// trustworthiness of the running G-tests, projected
    /// traces-to-detection, and randomness-consumption accounting.
    Health(HealthCheckpoint),
    /// The campaign's final convergence health (schema v6), emitted
    /// once after the closing sweep alongside `campaign_finished`.
    HealthSummary(HealthCheckpoint),
    /// The run's final machine-readable verdict.
    RunSummary(RunSummary),
}

impl Event {
    /// The event's `type` tag as it appears in JSONL records.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CampaignStarted { .. } => "campaign_started",
            Event::CampaignCheckpoint(_) => "checkpoint",
            Event::ProbeFlagged { .. } => "probe_flagged",
            Event::CampaignFinished { .. } => "campaign_finished",
            Event::SimProgress { .. } => "sim_progress",
            Event::EnumerationStarted { .. } => "enumeration_started",
            Event::EnumerationProgress { .. } => "enumeration_progress",
            Event::CounterexampleFound { .. } => "counterexample_found",
            Event::EnumerationFinished { .. } => "enumeration_finished",
            Event::PerfSnapshot { .. } => "perf_snapshot",
            Event::Finding { .. } => "finding",
            Event::Health(_) => "health",
            Event::HealthSummary(_) => "health_summary",
            Event::RunSummary(_) => "summary",
        }
    }

    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        match self {
            Event::CampaignStarted {
                design,
                model,
                order,
                probe_sets,
                traces_target,
            } => JsonObject::new()
                .string("type", self.kind())
                .string("design", design)
                .string("model", model)
                .unsigned("order", *order as u64)
                .unsigned("probe_sets", *probe_sets as u64)
                .unsigned("traces_target", *traces_target)
                .finish(),
            Event::CampaignCheckpoint(checkpoint) => JsonObject::new()
                .string("type", self.kind())
                .unsigned("traces", checkpoint.traces)
                .unsigned("traces_target", checkpoint.traces_target)
                .unsigned("elapsed_ms", checkpoint.elapsed_ms)
                .float("traces_per_sec", checkpoint.traces_per_sec)
                .float("max_minus_log10_p", checkpoint.max_minus_log10_p)
                .string("worst_label", &checkpoint.worst_label)
                .raw(
                    "probes",
                    &array(checkpoint.probes.iter().map(ProbePoint::to_json)),
                )
                .finish(),
            Event::ProbeFlagged {
                label,
                minus_log10_p,
                traces,
            } => JsonObject::new()
                .string("type", self.kind())
                .string("label", label)
                .float("minus_log10_p", *minus_log10_p)
                .unsigned("traces", *traces)
                .finish(),
            Event::CampaignFinished {
                design,
                traces,
                wall_ms,
                passed,
                max_minus_log10_p,
                leaking,
                early_stopped,
            } => JsonObject::new()
                .string("type", self.kind())
                .string("design", design)
                .unsigned("traces", *traces)
                .unsigned("wall_ms", *wall_ms)
                .boolean("passed", *passed)
                .float("max_minus_log10_p", *max_minus_log10_p)
                .unsigned("leaking", *leaking as u64)
                .boolean("early_stopped", *early_stopped)
                .finish(),
            Event::SimProgress {
                cycles,
                cell_evals,
                lane_utilization,
                cycles_per_sec,
                cell_evals_per_sec,
            } => JsonObject::new()
                .string("type", self.kind())
                .unsigned("cycles", *cycles)
                .unsigned("cell_evals", *cell_evals)
                .float("lane_utilization", *lane_utilization)
                .float("cycles_per_sec", *cycles_per_sec)
                .float("cell_evals_per_sec", *cell_evals_per_sec)
                .finish(),
            Event::EnumerationStarted { design, probe_sets } => JsonObject::new()
                .string("type", self.kind())
                .string("design", design)
                .unsigned("probe_sets", *probe_sets as u64)
                .finish(),
            Event::EnumerationProgress {
                done,
                total,
                elapsed_ms,
            } => JsonObject::new()
                .string("type", self.kind())
                .unsigned("done", *done as u64)
                .unsigned("total", *total as u64)
                .unsigned("elapsed_ms", *elapsed_ms)
                .finish(),
            Event::CounterexampleFound { label, elapsed_ms } => JsonObject::new()
                .string("type", self.kind())
                .string("label", label)
                .unsigned("elapsed_ms", *elapsed_ms)
                .finish(),
            Event::EnumerationFinished {
                design,
                secure,
                leaky,
                too_wide,
                wall_ms,
            } => JsonObject::new()
                .string("type", self.kind())
                .string("design", design)
                .unsigned("secure", *secure as u64)
                .unsigned("leaky", *leaky as u64)
                .unsigned("too_wide", *too_wide as u64)
                .unsigned("wall_ms", *wall_ms)
                .finish(),
            Event::PerfSnapshot { scope, snapshot } => snapshot
                .fill_json(
                    JsonObject::new()
                        .string("type", self.kind())
                        .string("scope", scope),
                )
                .finish(),
            Event::Finding {
                label,
                minus_log10_p,
                hint,
                bundle,
            } => JsonObject::new()
                .string("type", self.kind())
                .string("label", label)
                .float("minus_log10_p", *minus_log10_p)
                .string("hint", hint)
                .raw("bundle", bundle)
                .finish(),
            Event::Health(health) | Event::HealthSummary(health) => health
                .fill_json(JsonObject::new().string("type", self.kind()))
                .finish(),
            Event::RunSummary(summary) => summary.to_json_line(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_health() -> HealthCheckpoint {
        HealthCheckpoint {
            traces: 64_000,
            traces_target: 200_000,
            threshold: 5.0,
            statistic: "gtest".into(),
            probe_sets: 35,
            testable_sets: 30,
            undersampled_sets: 5,
            leaking_sets: 4,
            fresh_bits_per_trace: 72,
            fresh_bits_total: 4_608_000,
            probes: vec![ProbeHealth {
                label: "kronecker/G7/v1".into(),
                minus_log10_p: 7.3,
                leaking: true,
                tested_columns: 16,
                pooled_columns: 3,
                pooled_fraction: 0.01,
                min_expected: 42.5,
                undersampled: false,
                slope_per_mtrace: 114.0,
                traces_to_detection: 44_800.0,
            }],
            degraded: Vec::new(),
        }
    }

    #[test]
    fn every_event_renders_with_its_type_tag() {
        let events = [
            Event::CampaignStarted {
                design: "kronecker".into(),
                model: "glitch".into(),
                order: 1,
                probe_sets: 35,
                traces_target: 200_000,
            },
            Event::CampaignCheckpoint(Checkpoint {
                traces: 64_000,
                traces_target: 200_000,
                elapsed_ms: 1200,
                traces_per_sec: 53_333.0,
                max_minus_log10_p: 7.3,
                worst_label: "kronecker/G7/v1".into(),
                probes: vec![ProbePoint {
                    label: "kronecker/G7/v1".into(),
                    minus_log10_p: 7.3,
                    leaking: true,
                }],
            }),
            Event::ProbeFlagged {
                label: "kronecker/G7/v1".into(),
                minus_log10_p: 5.2,
                traces: 32_000,
            },
            Event::CampaignFinished {
                design: "kronecker".into(),
                traces: 200_000,
                wall_ms: 4000,
                passed: false,
                max_minus_log10_p: 308.0,
                leaking: 4,
                early_stopped: false,
            },
            Event::SimProgress {
                cycles: 21_875,
                cell_evals: 10_000_000,
                lane_utilization: 1.0,
                cycles_per_sec: 18_000.0,
                cell_evals_per_sec: 8_300_000.0,
            },
            Event::EnumerationStarted {
                design: "kronecker".into(),
                probe_sets: 35,
            },
            Event::EnumerationProgress {
                done: 10,
                total: 35,
                elapsed_ms: 90,
            },
            Event::CounterexampleFound {
                label: "kronecker/G7/v1".into(),
                elapsed_ms: 55,
            },
            Event::EnumerationFinished {
                design: "kronecker".into(),
                secure: 31,
                leaky: 4,
                too_wide: 0,
                wall_ms: 300,
            },
            Event::PerfSnapshot {
                scope: "campaign".into(),
                snapshot: PerfSnapshot::default(),
            },
            Event::Finding {
                label: "kronecker/G7/v1".into(),
                minus_log10_p: 308.0,
                hint: "recycled randomness r1=r3".into(),
                bundle: "{\"probe\":\"kronecker/G7/v1\"}".into(),
            },
            Event::Health(sample_health()),
            Event::HealthSummary(sample_health()),
            Event::RunSummary(RunSummary {
                tool: "mmaes evaluate".into(),
                id: "kronecker:de-meyer-eq6".into(),
                design: "kronecker".into(),
                schedule: "de-meyer-eq6".into(),
                model: "glitch".into(),
                statistic: "gtest".into(),
                order: 1,
                traces: 200_000,
                max_minus_log10_p: 308.0,
                passed: false,
                wall_ms: 4000,
                traces_per_sec: 50_000.0,
                cell_evals: 10_000_000,
                interrupted: false,
                threads: 4,
                schemas: vec![("snapshot_schema".into(), 1)],
                degraded: Vec::new(),
                extra: vec![("leaking".into(), "4".into())],
            }),
        ];
        for event in &events {
            let line = event.to_json_line();
            assert!(
                line.contains(&format!("\"type\":\"{}\"", event.kind())),
                "{line}"
            );
            assert!(!line.contains('\n'));
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn summary_extras_are_appended() {
        let summary = RunSummary {
            tool: "exp_e2".into(),
            extra: vec![("note".into(), "smoke".into())],
            ..RunSummary::default()
        };
        let line = summary.to_json_line();
        assert!(line.contains("\"note\":\"smoke\""));
        assert!(line.contains("\"tool\":\"exp_e2\""));
    }

    #[test]
    fn summary_carries_the_v2_perf_fields() {
        let summary = RunSummary {
            tool: "mmaes evaluate".into(),
            wall_ms: 1500,
            traces_per_sec: 42_000.5,
            cell_evals: 123,
            ..RunSummary::default()
        };
        let line = summary.to_json_line();
        assert!(line.contains("\"wall_ms\":1500"), "{line}");
        assert!(line.contains("\"elapsed_ms\":1500"), "{line}");
        assert!(line.contains("\"traces_per_sec\":42000.5"), "{line}");
        assert!(line.contains("\"cell_evals\":123"), "{line}");
    }

    #[test]
    fn summary_carries_the_v3_interrupted_flag() {
        let finished = RunSummary::default();
        assert!(finished.to_json_line().contains("\"interrupted\":false"));
        let interrupted = RunSummary {
            interrupted: true,
            ..RunSummary::default()
        };
        assert!(interrupted.to_json_line().contains("\"interrupted\":true"));
    }

    #[test]
    fn finding_embeds_the_bundle_as_a_raw_object() {
        let event = Event::Finding {
            label: "kronecker/G7/v1".into(),
            minus_log10_p: 12.5,
            hint: "recycled randomness r1=r3".into(),
            bundle: "{\"probe\":\"kronecker/G7/v1\",\"cells\":[]}".into(),
        };
        let line = event.to_json_line();
        assert!(line.contains("\"type\":\"finding\""), "{line}");
        // The bundle is spliced in verbatim, not re-escaped as a string.
        assert!(
            line.contains("\"bundle\":{\"probe\":\"kronecker/G7/v1\",\"cells\":[]}"),
            "{line}"
        );
        let parsed = crate::json::parse(&line).expect("finding line parses");
        assert_eq!(
            parsed
                .get("bundle")
                .and_then(|bundle| bundle.get("probe"))
                .and_then(|probe| probe.as_str()),
            Some("kronecker/G7/v1")
        );
    }

    #[test]
    fn health_events_carry_the_v6_diagnostics() {
        let line = Event::Health(sample_health()).to_json_line();
        let parsed = crate::json::parse(&line).expect("health line parses");
        assert_eq!(parsed.get("type").and_then(|v| v.as_str()), Some("health"));
        assert_eq!(parsed.get("leaking_sets").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(
            parsed.get("fresh_bits_per_trace").and_then(|v| v.as_u64()),
            Some(72)
        );
        let probes = parsed
            .get("probes")
            .and_then(|v| v.as_array())
            .expect("probes array");
        assert_eq!(probes.len(), 1);
        assert_eq!(
            probes[0]
                .get("traces_to_detection")
                .and_then(|v| v.as_f64()),
            Some(44_800.0)
        );
        // An unreachable projection renders as JSON null, not Infinity.
        let mut unreachable = sample_health();
        unreachable.probes[0].traces_to_detection = f64::INFINITY;
        let line = Event::Health(unreachable).to_json_line();
        assert!(line.contains("\"traces_to_detection\":null"), "{line}");
        crate::json::parse(&line).expect("null projection still parses");
    }

    #[test]
    fn summary_carries_the_v6_build_info() {
        let line = RunSummary::default().to_json_line();
        let parsed = crate::json::parse(&line).expect("summary parses");
        let info = parsed.get("build_info").expect("build_info present");
        assert_eq!(
            info.get("version").and_then(|v| v.as_str()),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert_eq!(
            info.get("event_schema").and_then(|v| v.as_u64()),
            Some(EVENT_SCHEMA_VERSION)
        );
        let line = RunSummary {
            schemas: vec![("snapshot_schema".into(), 2), ("status_schema".into(), 1)],
            ..RunSummary::default()
        }
        .to_json_line();
        assert!(line.contains("\"snapshot_schema\":2"), "{line}");
        assert!(line.contains("\"status_schema\":1"), "{line}");
    }

    #[test]
    fn health_and_summary_carry_the_v7_degraded_block() {
        // Clean runs render a deterministic empty array.
        let line = Event::Health(sample_health()).to_json_line();
        assert!(line.contains("\"degraded\":[]"), "{line}");
        let line = RunSummary::default().to_json_line();
        assert!(line.contains("\"degraded\":[]"), "{line}");
        // Degraded subsystems carry their detail and incident count.
        let mut health = sample_health();
        health.degraded = vec![DegradedEntry {
            subsystem: "snapshot".into(),
            detail: "write eq6.tmp: no space left".into(),
            incidents: 3,
        }];
        let line = Event::HealthSummary(health).to_json_line();
        let parsed = crate::json::parse(&line).expect("health line parses");
        let degraded = parsed
            .get("degraded")
            .and_then(|v| v.as_array())
            .expect("degraded array");
        assert_eq!(degraded.len(), 1);
        assert_eq!(
            degraded[0].get("subsystem").and_then(|v| v.as_str()),
            Some("snapshot")
        );
        assert_eq!(
            degraded[0].get("incidents").and_then(|v| v.as_u64()),
            Some(3)
        );
    }

    #[test]
    fn summary_carries_the_v4_threads_field() {
        let summary = RunSummary {
            threads: 4,
            ..RunSummary::default()
        };
        assert!(summary.to_json_line().contains("\"threads\":4"));
        assert!(RunSummary::default()
            .to_json_line()
            .contains("\"threads\":0"));
    }
}
