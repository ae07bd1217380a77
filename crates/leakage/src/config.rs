//! Campaign configuration: what to evaluate, how hard, and with which
//! durability guarantees.
//!
//! Split out of `campaign.rs` so the builder API, the staged engine
//! ([`crate::engine`]) and the CLI all share one configuration surface.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use mmaes_sim::EvaluatorMode;
use mmaes_telemetry::Faults;

use crate::probe::ProbeModel;
use crate::stats::StatisticKind;
use crate::tabulate::TabulatorMode;

/// How the second population's secrets are drawn.
///
/// PROLEAD offers both fixed-vs-random and fixed-vs-fixed testing; the
/// latter compares two specific secret values (e.g. the all-zero
/// S-box input against a non-zero one), which concentrates statistical
/// power on one hypothesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CampaignMode {
    /// Population 1 draws fresh secrets per [`SecretDomain`].
    #[default]
    FixedVsRandom,
    /// Population 1 uses this second fixed secret value.
    FixedVsFixed {
        /// The second population's secret value.
        other: u64,
    },
}

/// The distribution of the *random* population's secrets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecretDomain {
    /// Uniform over all values (PROLEAD's default).
    #[default]
    Uniform,
    /// Uniform over non-zero values — used when evaluating the S-box
    /// *without* the Kronecker stage (experiment E1): plain
    /// multiplicative masking is only defined on GF(2⁸)*, so the
    /// testbench keeps zero out, exactly as the paper's evaluation of
    /// the reduced design does.
    NonZero,
}

/// Crash-safety and cooperative-shutdown options of a campaign.
///
/// All fields default to "off", so existing configurations behave
/// exactly as before. With a `snapshot_path` set, the campaign
/// atomically persists its complete state (contingency tables, batch
/// counter, flags, trajectories) at every checkpoint and when it stops;
/// with `resume` it restores that state and continues bit-identically —
/// the per-batch RNG derivation makes the trace stream a pure function
/// of `(seed, batch index)`, so a resumed campaign is indistinguishable
/// from an uninterrupted one.
#[derive(Debug, Clone, Default)]
pub struct Durability {
    /// Where to persist campaign state (written atomically; see
    /// [`crate::snapshot`]). `None` disables snapshotting.
    pub snapshot_path: Option<PathBuf>,
    /// Load `snapshot_path` before starting and continue from it. A
    /// missing file starts from scratch (so `--resume` is safe on the
    /// first run); a corrupt or mismatched file is a typed error.
    pub resume: bool,
    /// Cooperative interrupt flag (e.g. `mmaes_sigint::shared()`): when
    /// it becomes true the campaign finishes the batch in flight,
    /// writes a final snapshot and returns with
    /// [`crate::report::LeakageReport::interrupted`] set.
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Deterministic interruption for tests and CI: stop (as if
    /// signalled) once this many *total* batches are done. `None`
    /// disables the cap.
    pub stop_after_batches: Option<u64>,
}

/// Configuration of a fixed-vs-random evaluation.
#[derive(Debug, Clone)]
pub struct EvaluationConfig {
    /// The probing model (glitch, or glitch + transition).
    pub model: ProbeModel,
    /// Probing order to test (1 or 2).
    pub order: usize,
    /// Total observations per probing set (PROLEAD's "simulations"; the
    /// paper uses 4·10⁶ for first-order and 10⁸ for second-order — scale
    /// down for laptop runtimes, the Eq. 6 flaw shows at 10⁵).
    pub traces: u64,
    /// The fixed population's unshared secret value (applied to every
    /// declared secret; the paper fixes the S-box input).
    pub fixed_secret: u64,
    /// The random population's secret distribution.
    pub secret_domain: SecretDomain,
    /// Fixed-vs-random (default) or fixed-vs-fixed.
    pub mode: CampaignMode,
    /// Cycles simulated before observations start (must exceed the
    /// pipeline depth).
    pub warmup_cycles: usize,
    /// Decision threshold on `-log10(p)` (PROLEAD convention: 5.0).
    pub threshold: f64,
    /// RNG seed (campaigns are reproducible).
    pub seed: u64,
    /// Cap on enumerated probing sets (relevant at order 2).
    pub max_probe_sets: usize,
    /// Restrict probe positions to wires whose name starts with this
    /// prefix (e.g. `"kronecker"`), mirroring module-wise evaluation.
    pub probe_scope_filter: Option<String>,
    /// Cap on distinct keys kept per contingency table; overflow is
    /// pooled into one bucket (bounds memory on very wide cones).
    pub max_table_keys: usize,
    /// Number of interim checkpoints across the campaign (PROLEAD's
    /// intermediate reports). At each checkpoint every probing set's
    /// running statistic is computed, recorded in
    /// [`crate::ProbeResult::trajectory`], and emitted to the observer.
    /// 0 (the default) skips interim statistics entirely, leaving the
    /// sampling loop on its uninstrumented fast path.
    pub checkpoints: u64,
    /// Stop at a checkpoint once the verdict is decisive: the running
    /// max `-log10(p)` reached [`DECISIVE_MARGIN`] × `threshold`
    /// (p < 10⁻¹⁰ at the default threshold — far beyond any null
    /// fluctuation). Requires `checkpoints > 0` to have any effect.
    pub early_stop: bool,
    /// Threads the probing sets' tables are striped across, the calling
    /// thread included (0 and 1 both mean the calling thread alone; at
    /// most one per set).
    /// Because every batch's randomness is a pure function of
    /// `(seed, batch)` and every table absorbs its batches in strict
    /// batch order on its owner thread, the report, the trajectories
    /// and the snapshots are **byte-identical** for every thread count.
    /// Not part of the snapshot fingerprint: a campaign interrupted at
    /// `--threads 4` resumes fine on 1 thread.
    pub threads: usize,
    /// Which simulator engine each worker runs
    /// ([`EvaluatorMode::Compiled`] by default; the interpreter exists
    /// for differential testing). Both engines are bit-exact, so this is
    /// not part of the snapshot fingerprint either.
    pub evaluator: EvaluatorMode,
    /// Which contingency-table engine the campaign uses
    /// ([`TabulatorMode::Dense`] by default; the hashed reference
    /// exists for differential testing). Per probing set, `Dense`
    /// direct-indexes a flat table whenever the set's full key space
    /// fits `max_table_keys` (see
    /// [`crate::probe::ProbeSet::dense_index_width`]) and falls back to
    /// the hashed table otherwise; both produce byte-identical reports
    /// and snapshots, so this is not part of the snapshot fingerprint
    /// either — a campaign interrupted under one tabulator resumes fine
    /// under the other.
    pub tabulator: TabulatorMode,
    /// The detection statistic each probing set's contingency table is
    /// tested with ([`StatisticKind::GTest`] by default — the
    /// PROLEAD-style distribution test; [`StatisticKind::TTest`] runs a
    /// TVLA-style Welch t-test on first-order moments of the same
    /// observations). Part of the snapshot fingerprint when non-default,
    /// so a campaign cannot silently resume under a different test.
    pub statistic: StatisticKind,
    /// Crash-safety options: snapshotting, resume, cooperative
    /// interruption. Defaults to all-off (no behavior change).
    pub durability: Durability,
    /// The run's fault handle: the failpoint schedule the supervised
    /// workers and snapshot saves consult, the record every degraded
    /// subsystem is marked on, and the stalled-worker threshold. The
    /// default is inert and private to this configuration (and its
    /// clones). Not part of the snapshot fingerprint: faults never
    /// change a report.
    pub faults: Faults,
}

/// Early stop triggers at `DECISIVE_MARGIN × threshold` running
/// `-log10(p)` (see [`EvaluationConfig::early_stop`]).
pub const DECISIVE_MARGIN: f64 = 2.0;

impl Default for EvaluationConfig {
    fn default() -> Self {
        EvaluationConfig {
            model: ProbeModel::Glitch,
            order: 1,
            traces: 100_000,
            fixed_secret: 0,
            secret_domain: SecretDomain::Uniform,
            mode: CampaignMode::FixedVsRandom,
            warmup_cycles: 8,
            threshold: 5.0,
            seed: 0x9c0_1ead,
            max_probe_sets: 100_000,
            probe_scope_filter: None,
            max_table_keys: 1 << 20,
            checkpoints: 0,
            early_stop: false,
            threads: 1,
            evaluator: EvaluatorMode::Compiled,
            tabulator: TabulatorMode::Dense,
            statistic: StatisticKind::GTest,
            durability: Durability::default(),
            faults: Faults::default(),
        }
    }
}
