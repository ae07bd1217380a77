//! Campaign telemetry for the evaluator stack.
//!
//! PROLEAD reports intermediate `-log10(p)` checkpoints so the analyst
//! can watch leakage emerge long before the full simulation budget is
//! spent — on the paper's own experiments the Eq. 6 flaw is visible
//! climbing past the decision threshold within the first few percent of
//! the campaign. This crate gives the whole workspace that capability:
//!
//! * a typed [`Event`] stream — campaign lifecycle, per-probe-set
//!   `-log10(p)` trajectory checkpoints, simulator counters, exhaustive
//!   enumeration progress, and machine-readable run summaries;
//! * an [`Observer`] handle threaded through the hot paths, cheap enough
//!   to leave in place: the disabled (null) observer is a single `Option`
//!   check and instrumented code is expected to gate any expensive
//!   snapshot computation on [`Observer::enabled`];
//! * three bundled [`Sink`]s — [`HumanProgressSink`] (stderr: traces/s,
//!   ETA, running max `-log10(p)`), [`JsonlSink`] (a replayable run
//!   record, one JSON object per line), and [`MemorySink`] (tests);
//! * a [`Stopwatch`] for wall-clock spans;
//! * a performance-observability layer ([`perf`]): scoped [`Span`]
//!   timers, named counters, and fixed-bucket duration histograms in a
//!   [`PerfRecorder`] carried by the [`Observer`] — near-zero overhead
//!   when disabled, `perf_snapshot` events when enabled;
//!   [`chrome_trace`] renders a frozen snapshot into a deterministic
//!   single-scope `chrome://tracing` JSON timeline;
//! * a live-status layer ([`metrics`], [`status`]): a lock-cheap
//!   metrics registry with deterministic Prometheus text exposition
//!   and an optional `--metrics-addr` server on `std::net` serving
//!   `/metrics` and `/status`, plus a crash-safe `--status-file` sink
//!   atomically rewritten at every checkpoint;
//! * a fault-containment layer ([`faults`]): one cloneable per-run
//!   [`Faults`] handle carrying the deterministic fault schedule
//!   (`MMAES_FAILPOINTS` / `--failpoints`) that resilient sinks and
//!   campaign workers consult, the degraded-subsystem marks feeding
//!   the `degraded` block in status documents, health events, and run
//!   summaries, and the stalled-worker threshold.
//!
//! The crate is dependency-light by design: events serialize through a
//! hand-rolled JSON writer ([`json`]), so every downstream crate can
//! afford the dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome_trace;
mod counters;
mod event;
pub mod faults;
pub mod json;
pub mod metrics;
mod observer;
pub mod perf;
mod sink;
pub mod status;

pub use chrome_trace::chrome_trace;
pub use counters::Stopwatch;
pub use event::{
    Checkpoint, Event, HealthCheckpoint, ProbeHealth, ProbePoint, RunSummary, EVENT_SCHEMA_VERSION,
};
pub use faults::{DegradedEntry, Fault, Faults};
pub use metrics::{MetricsRegistry, MetricsServer, MetricsSink};
pub use observer::Observer;
pub use perf::{PerfRecorder, PerfSnapshot, PhaseStats, Span};
pub use sink::{HumanProgressSink, JsonlSink, MemorySink, Sink};
pub use status::{StatusFileSink, StatusModel, STATUS_SCHEMA_VERSION};
