//! Workload scaling for the experiment suite.

use mmaes_leakage::{StatisticKind, TabulatorMode};
use mmaes_telemetry::Faults;

/// How much compute each experiment may spend.
///
/// The paper runs PROLEAD with 4·10⁶ simulations for first-order
/// evaluations and ≥10⁸ for the second-order design; those take hours on
/// a workstation. The defaults here reproduce every qualitative verdict
/// in seconds-to-minutes on a laptop; [`ExperimentBudget::paper_scale`]
/// restores the paper's numbers for a faithful (slow) rerun.
#[derive(Debug, Clone)]
pub struct ExperimentBudget {
    /// Traces for first-order statistical campaigns (paper: 4,000,000).
    pub first_order_traces: u64,
    /// Traces for transition-model campaigns (paper: 4,000,000).
    pub transition_traces: u64,
    /// Traces for the second-order campaign (paper: 100,000,000).
    pub second_order_traces: u64,
    /// Probing-set cap for the second-order campaign (pairs grow
    /// quadratically; truncation is reported).
    pub second_order_max_sets: usize,
    /// Traces per population for the zero-value DPA demo (E11).
    pub dpa_traces: usize,
    /// Scope filter for the exhaustive verifier (`None` = whole design;
    /// the default restricts to the G7 region where the paper's leaking
    /// probes live, keeping the proofs fast).
    pub exact_scope: Option<String>,
    /// Traces for the full-cipher campaign (extension experiment E12).
    pub cipher_traces: u64,
    /// RNG seed shared by all statistical campaigns.
    pub seed: u64,
    /// Interim checkpoints per statistical campaign (0 = none; see
    /// [`mmaes_leakage::EvaluationConfig::checkpoints`] via the leakage
    /// crate). Checkpoints feed `-log10(p)` trajectories to telemetry
    /// observers and the CSV export.
    pub checkpoints: u64,
    /// Directory for per-campaign snapshot files (crash safety; see
    /// [`mmaes_leakage::Durability`]). `None` disables snapshotting.
    /// Each campaign inside an experiment derives its own file name
    /// from the schedule, model and order, so multi-campaign
    /// experiments resume per campaign.
    pub snapshot_dir: Option<String>,
    /// Resume each campaign from its snapshot if one exists (campaigns
    /// without a snapshot start fresh, so a partially completed
    /// experiment suite resumes where it stopped).
    pub resume: bool,
    /// Threads each statistical campaign stripes its tables across (0
    /// and 1 both mean in place on the calling thread; see
    /// [`mmaes_leakage::EvaluationConfig::threads`]). Reports are
    /// byte-identical for every thread count.
    pub threads: usize,
    /// Contingency-table store for every statistical campaign (see
    /// [`mmaes_leakage::EvaluationConfig::tabulator`]). Reports are
    /// byte-identical for either store; `hashed` exists as the wide-key
    /// fallback and for differential testing.
    pub tabulator: TabulatorMode,
    /// Leakage statistic every campaign folds over its tables (see
    /// [`mmaes_leakage::EvaluationConfig::statistic`]): the
    /// PROLEAD-style G-test the paper's numbers come from, or the
    /// TVLA-style Welch t-test for cross-methodology comparison.
    pub statistic: StatisticKind,
    /// The run's fault handle, shared by every campaign (see
    /// [`mmaes_leakage::EvaluationConfig::faults`]): the experiment
    /// binaries set its stall threshold and read its degraded marks
    /// into their summary.
    pub faults: Faults,
}

impl Default for ExperimentBudget {
    fn default() -> Self {
        ExperimentBudget {
            first_order_traces: 200_000,
            transition_traces: 200_000,
            second_order_traces: 100_000,
            second_order_max_sets: 3_000,
            dpa_traces: 20_000,
            exact_scope: Some("kronecker/G7".to_owned()),
            cipher_traces: 30_000,
            seed: 0x9c0_1ead,
            checkpoints: 8,
            snapshot_dir: None,
            resume: false,
            threads: 1,
            tabulator: TabulatorMode::Dense,
            statistic: StatisticKind::GTest,
            faults: Faults::default(),
        }
    }
}

impl ExperimentBudget {
    /// A quick-smoke budget for CI-style runs (seconds in total).
    pub fn smoke() -> Self {
        ExperimentBudget {
            first_order_traces: 50_000,
            transition_traces: 50_000,
            second_order_traces: 30_000,
            second_order_max_sets: 800,
            dpa_traces: 10_000,
            exact_scope: Some("kronecker/G7".to_owned()),
            cipher_traces: 10_000,
            seed: 0x9c0_1ead,
            checkpoints: 4,
            snapshot_dir: None,
            resume: false,
            threads: 1,
            tabulator: TabulatorMode::Dense,
            statistic: StatisticKind::GTest,
            faults: Faults::default(),
        }
    }

    /// The paper's simulation counts (slow; hours).
    pub fn paper_scale() -> Self {
        ExperimentBudget {
            first_order_traces: 4_000_000,
            transition_traces: 4_000_000,
            second_order_traces: 100_000_000,
            second_order_max_sets: 100_000,
            dpa_traces: 1_000_000,
            exact_scope: None,
            cipher_traces: 4_000_000,
            seed: 0x9c0_1ead,
            checkpoints: 20,
            snapshot_dir: None,
            resume: false,
            threads: 1,
            tabulator: TabulatorMode::Dense,
            statistic: StatisticKind::GTest,
            faults: Faults::default(),
        }
    }
}
