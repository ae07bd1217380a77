//! The one event sink the timed runs attach: it only timestamps
//! lifecycle events, so set-up time and checkpoint intervals are read
//! off the program's own event stream without a perf recorder.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mmaes_telemetry::{Event, Sink};

/// Which lifecycle event a stamp marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// `CampaignStarted` or `EnumerationStarted`: set-up is over.
    Started,
    /// `CampaignCheckpoint`.
    Checkpoint,
}

type StampList = Arc<Mutex<Vec<(Lifecycle, Instant)>>>;

/// The shared stamp list one campaign or verification writes into.
#[derive(Debug, Clone, Default)]
pub struct Stamps(StampList);

impl Stamps {
    /// A sink that appends to this list.
    pub fn sink(&self) -> StampSink {
        StampSink(Arc::clone(&self.0))
    }

    fn all(&self) -> Vec<(Lifecycle, Instant)> {
        self.0.lock().expect("stamp list lock poisoned").clone()
    }

    /// The first `Started` stamp.
    pub fn started(&self) -> Option<Instant> {
        self.all()
            .into_iter()
            .find(|&(kind, _)| kind == Lifecycle::Started)
            .map(|(_, at)| at)
    }

    /// Gaps between consecutive checkpoints.
    pub fn checkpoint_gaps(&self) -> Vec<Duration> {
        let checkpoints: Vec<Instant> = self
            .all()
            .into_iter()
            .filter(|&(kind, _)| kind == Lifecycle::Checkpoint)
            .map(|(_, at)| at)
            .collect();
        checkpoints
            .windows(2)
            .map(|pair| pair[1] - pair[0])
            .collect()
    }
}

/// Appends `(lifecycle, now)` for the events it cares about.
#[derive(Debug)]
pub struct StampSink(StampList);

impl Sink for StampSink {
    fn on_event(&mut self, event: &Event) {
        let kind = match event {
            Event::CampaignStarted { .. } | Event::EnumerationStarted { .. } => Lifecycle::Started,
            Event::CampaignCheckpoint(_) => Lifecycle::Checkpoint,
            _ => return,
        };
        let now = Instant::now();
        self.0
            .lock()
            .expect("stamp list lock poisoned")
            .push((kind, now));
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` with at least ten samples above
/// it, as `(value, percentile)`. With ten or fewer samples no such
/// percentile exists and the maximum is returned as the 100th.
pub fn high_percentile(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => (0.0, 0.0),
        n if n <= 10 => (sorted[n - 1], 100.0),
        n => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}
