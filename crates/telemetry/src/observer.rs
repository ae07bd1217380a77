//! The observer handle instrumented code holds.

use std::sync::{Arc, Mutex};

use crate::event::Event;
use crate::perf::PerfRecorder;
use crate::sink::Sink;

/// A cloneable handle the hot paths emit events through.
///
/// The disabled observer ([`Observer::null`]) is a single `None` check
/// per emission site — and because expensive snapshots should be gated
/// on [`Observer::enabled`], a null observer leaves instrumented code
/// byte-for-byte on its uninstrumented path.
///
/// An observer also carries a [`PerfRecorder`] so per-phase timing
/// flows through the same handle the hot paths already hold. The
/// recorder defaults to disabled; attach an enabled one with
/// [`Observer::with_perf`] (the `--perf` flag). Events and perf are
/// independent: a null observer with an enabled recorder still times
/// phases (`--perf` or `--trace` without `--metrics`).
#[derive(Debug, Default, Clone)]
pub struct Observer {
    sinks: Option<SharedSinks>,
    perf: PerfRecorder,
}

/// The fan-out list behind an enabled observer.
type SharedSinks = Arc<Mutex<Vec<Box<dyn Sink>>>>;

// Mutex<Vec<Box<dyn Sink>>> where Sink: Send is Sync, but the derive
// cannot see through the trait object; Debug needs a manual impl too.
impl std::fmt::Debug for Box<dyn Sink> {
    fn fmt(&self, formatter: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        formatter.write_str("Sink")
    }
}

impl Observer {
    /// The disabled observer: no sinks, no event construction.
    pub fn null() -> Self {
        Observer {
            sinks: None,
            perf: PerfRecorder::disabled(),
        }
    }

    /// An observer fanning out to the given sinks. An empty list
    /// behaves like [`Observer::null`].
    pub fn from_sinks(sinks: Vec<Box<dyn Sink>>) -> Self {
        if sinks.is_empty() {
            return Observer::null();
        }
        Observer {
            sinks: Some(Arc::new(Mutex::new(sinks))),
            perf: PerfRecorder::disabled(),
        }
    }

    /// Attaches a perf recorder (replacing the disabled default); the
    /// recorder is shared by every clone of this observer.
    pub fn with_perf(mut self, perf: PerfRecorder) -> Self {
        self.perf = perf;
        self
    }

    /// The perf recorder carried by this observer. Disabled unless one
    /// was attached, so `observer.perf().span(..)` is free by default.
    pub fn perf(&self) -> &PerfRecorder {
        &self.perf
    }

    /// An observer with a single sink.
    pub fn single(sink: impl Sink + 'static) -> Self {
        Observer::from_sinks(vec![Box::new(sink)])
    }

    /// Whether any sink is attached. Gate expensive snapshot
    /// computation (interim G-tests, per-probe trajectories) on this.
    pub fn enabled(&self) -> bool {
        self.sinks.is_some()
    }

    /// Delivers an event to every sink.
    pub fn emit(&self, event: &Event) {
        if let Some(sinks) = &self.sinks {
            for sink in sinks.lock().unwrap().iter_mut() {
                sink.on_event(event);
            }
        }
    }

    /// Flushes every sink (end of run).
    pub fn flush(&self) {
        if let Some(sinks) = &self.sinks {
            for sink in sinks.lock().unwrap().iter_mut() {
                sink.flush();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn null_observer_is_disabled_and_silent() {
        let observer = Observer::null();
        assert!(!observer.enabled());
        observer.emit(&Event::EnumerationProgress {
            done: 1,
            total: 2,
            elapsed_ms: 0,
        });
        observer.flush();
    }

    #[test]
    fn events_fan_out_to_all_sinks_and_clones_share_them() {
        let first = MemorySink::new();
        let second = MemorySink::new();
        let (first_events, second_events) = (first.events(), second.events());
        let observer = Observer::from_sinks(vec![Box::new(first), Box::new(second)]);
        assert!(observer.enabled());

        let clone = observer.clone();
        clone.emit(&Event::EnumerationProgress {
            done: 1,
            total: 2,
            elapsed_ms: 5,
        });
        observer.emit(&Event::EnumerationProgress {
            done: 2,
            total: 2,
            elapsed_ms: 9,
        });

        assert_eq!(first_events.lock().unwrap().len(), 2);
        assert_eq!(second_events.lock().unwrap().len(), 2);
    }

    #[test]
    fn empty_sink_list_collapses_to_null() {
        assert!(!Observer::from_sinks(Vec::new()).enabled());
    }

    #[test]
    fn perf_recorder_defaults_to_disabled_and_is_shared_by_clones() {
        let observer = Observer::null();
        assert!(!observer.perf().is_enabled());

        let recorder = crate::PerfRecorder::enabled();
        let observer = Observer::null().with_perf(recorder.clone());
        let clone = observer.clone();
        {
            let _span = clone.perf().span("phase");
        }
        let snapshot = recorder.snapshot().expect("enabled");
        assert_eq!(snapshot.phase("phase").expect("recorded").count, 1);
    }
}
