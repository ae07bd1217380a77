//! Per-run fault handling (DESIGN.md § Fault containment): the
//! deterministic fault schedule, the degraded-subsystem record, and the
//! stall threshold, carried together by one cloneable [`Faults`] handle.
//!
//! Long campaigns die in boring ways — a full disk mid-snapshot, a
//! worker panic three hours in, a shard that stops making progress —
//! and none of those conditions appear in an ordinary test run. A
//! [`Faults`] handle lets the test suite, the `mmaes chaos` verb, and CI
//! *script* those conditions deterministically: instrumented code
//! consults the handle's named failpoints at the exact places real
//! faults would strike. When a resilient sink then exhausts its retry
//! budget, it degrades to in-memory operation and records the failure
//! on the same handle, which is the single source of truth for the
//! `degraded` block in `status.json`, the `/status` endpoint, `health`
//! events, and the final `summary` line.
//!
//! The handle is a value, not process state: the CLI parses
//! `MMAES_FAILPOINTS` / `--failpoints` once into a handle, and the
//! campaign configuration and the sinks each carry a clone. Clones
//! share one schedule and one record; a [`Faults::default`] handle is
//! inert and independent, so two campaigns in one process never
//! observe each other's faults.
//!
//! Design constraints:
//!
//! * **No-op when inert.** A handle without a schedule answers every
//!   failpoint query from a plain `bool` without taking its lock.
//! * **Deterministic.** Triggers key off hit counters, batch indices,
//!   or a seeded hash — never wall clocks — so a fault schedule
//!   reproduces the same fault sequence at any `--threads` count, and
//!   chaos runs can assert byte-identical reports. Degraded entries are
//!   sorted by subsystem name: a clean run renders `"degraded":[]`
//!   byte-identically at any `--threads` count.
//!
//! # Spec grammar
//!
//! A spec is a `;`- or `,`-separated list of entries (whitespace is
//! ignored):
//!
//! ```text
//! site=action[@WHEN][xCOUNT][~P:SEED]
//! ```
//!
//! * `site` — where to strike: `worker`, `snapshot.save`,
//!   `status.write`, `metrics.write` (any string; unknown sites are
//!   simply never consulted).
//! * `action` — `ioerr` (the write fails), `truncate` (a partial
//!   `.tmp` is left behind and the write fails), `panic` (the worker
//!   panics), `stall` / `stall(MS)` (the worker sleeps `MS`
//!   milliseconds, default 100).
//! * `@WHEN` — fire only at one point: for I/O sites the 1-based hit
//!   index, for the `worker` site the batch index (so the schedule is
//!   independent of which thread claims the batch). `@*` (the
//!   default) fires at every eligible hit.
//! * `xCOUNT` — fire at most `COUNT` times (default 1); `x*` is
//!   unlimited. Retry loops re-consult the failpoint, so `x3` makes
//!   exactly three attempts fail.
//! * `~P:SEED` — probabilistic: fire with probability `P` decided by
//!   a splitmix64 hash of the seed and the hit/batch index, still
//!   fully deterministic for a given seed.
//!
//! Example: `worker=panic@3x2;snapshot.save=ioerr x3` panics batch 3
//! twice (recovering on the second retry) and fails the first three
//! snapshot-save attempts.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::json::{array, JsonObject};

/// A fault an instrumented site must inject, as returned by
/// [`Faults::check`] / [`Faults::check_at`]. How each action manifests
/// is the site's contract: I/O sites turn `Io`/`Truncate` into write
/// errors, worker sites turn `Panic` into a real `panic!` and `Stall`
/// into a sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with an injected I/O error.
    Io,
    /// Write a truncated temporary file, then fail the operation —
    /// models a crash (or ENOSPC) mid-write, before the atomic rename.
    Truncate,
    /// Panic at the site (contained by the worker supervisor).
    Panic,
    /// Sleep this many milliseconds before proceeding (trips the
    /// heartbeat watchdog when it exceeds the stall timeout).
    Stall(u64),
}

impl Fault {
    /// The injected [`std::io::Error`] for `Io`/`Truncate` faults at
    /// the named site.
    pub fn as_io_error(&self, site: &str) -> std::io::Error {
        let detail = match self {
            Fault::Truncate => "injected truncated write",
            _ => "injected I/O error",
        };
        std::io::Error::other(format!("{detail} (failpoint {site})"))
    }
}

/// One subsystem operating in degraded mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedEntry {
    /// The degraded subsystem: `"snapshot"`, `"status-file"`,
    /// `"metrics"`, or `"worker"` (stalled workers).
    pub subsystem: String,
    /// The most recent failure, human-readable.
    pub detail: String,
    /// How many incidents the subsystem has recorded.
    pub incidents: u64,
}

impl DegradedEntry {
    /// Renders the entry as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("subsystem", &self.subsystem)
            .string("detail", &self.detail)
            .unsigned("incidents", self.incidents)
            .finish()
    }
}

/// Renders a list of entries as the `degraded` JSON array (empty —
/// `[]` — on a clean run).
pub fn degraded_json(entries: &[DegradedEntry]) -> String {
    array(entries.iter().map(DegradedEntry::to_json))
}

/// Retry budget for resilient artifact writes: one initial attempt
/// plus two retries.
pub const RETRY_ATTEMPTS: u32 = 3;

/// Base backoff between attempts, in milliseconds, doubling per retry.
/// Deliberately tiny: artifact writes sit on the checkpoint path, and
/// the budget exists to absorb transient hiccups, not to wait out a
/// full disk.
pub const RETRY_BACKOFF_MS: u64 = 2;

/// Default stalled-worker threshold: a batch in flight longer than this
/// is flagged (advisory) as a degraded `worker`.
pub const DEFAULT_STALL_TIMEOUT_MS: u64 = 2000;

/// Runs `operation` up to [`RETRY_ATTEMPTS`] times with bounded
/// doubling backoff, returning the first success or the last error.
/// Callers that exhaust the budget are expected to [`Faults::mark`]
/// their subsystem and fall back to in-memory operation.
pub fn retry<T, E>(mut operation: impl FnMut() -> Result<T, E>) -> Result<T, E> {
    let mut attempt = 0;
    loop {
        match operation() {
            Ok(value) => return Ok(value),
            Err(error) => {
                attempt += 1;
                if attempt >= RETRY_ATTEMPTS {
                    return Err(error);
                }
                std::thread::sleep(std::time::Duration::from_millis(
                    RETRY_BACKOFF_MS << (attempt - 1),
                ));
            }
        }
    }
}

/// When a scheduled entry fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Every eligible hit (up to the fire budget).
    Always,
    /// Only when the hit counter (I/O sites) or batch index (`worker`)
    /// equals this value.
    At(u64),
    /// Seeded coin flip per hit: fires when
    /// `splitmix64(seed ^ index) < p_threshold` (a `u128` so `P=1.0`
    /// does not overflow).
    Chance {
        /// `P` scaled to a 64-bit threshold.
        threshold: u128,
        /// The deterministic seed.
        seed: u64,
    },
}

#[derive(Debug, Clone)]
struct Entry {
    site: String,
    fault: Fault,
    trigger: Trigger,
    /// Fire budget; `None` is unlimited.
    budget: Option<u64>,
    /// Times fired so far.
    fired: u64,
    /// Hits observed so far (1-based after the first check).
    hits: u64,
}

/// The mutable state every clone of a [`Faults`] handle shares.
#[derive(Debug)]
struct State {
    entries: Vec<Entry>,
    /// Subsystem → (latest detail, incident count); a `BTreeMap` so the
    /// rendered block is sorted by name.
    degraded: BTreeMap<String, (String, u64)>,
    stall_timeout_ms: u64,
}

/// One run's fault handle: the parsed failpoint schedule with its hit
/// counters and fire budgets, the degraded-subsystem marks, and the
/// stall threshold. Clones share all three; see the module docs.
#[derive(Debug, Clone)]
pub struct Faults {
    /// Whether the schedule has any entry — fixed at parse time, so an
    /// inert handle never takes the lock on a failpoint query.
    armed: bool,
    shared: Arc<Mutex<State>>,
}

impl Default for Faults {
    fn default() -> Self {
        Faults::from_entries(Vec::new(), DEFAULT_STALL_TIMEOUT_MS)
    }
}

/// splitmix64: the same finalizer the campaign uses to derive per-batch
/// RNG streams, reused here so probabilistic faults are reproducible.
fn splitmix64(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_count(text: &str) -> Result<Option<u64>, String> {
    if text == "*" {
        return Ok(None);
    }
    text.parse::<u64>()
        .map(Some)
        .map_err(|_| format!("invalid count {text:?} (expected a number or '*')"))
}

fn parse_action(text: &str) -> Result<Fault, String> {
    match text {
        "ioerr" => Ok(Fault::Io),
        "truncate" => Ok(Fault::Truncate),
        "panic" => Ok(Fault::Panic),
        "stall" => Ok(Fault::Stall(100)),
        _ => {
            if let Some(ms) = text
                .strip_prefix("stall(")
                .and_then(|rest| rest.strip_suffix(')'))
            {
                let ms = ms
                    .parse::<u64>()
                    .map_err(|_| format!("invalid stall duration {ms:?}"))?;
                return Ok(Fault::Stall(ms));
            }
            Err(format!(
                "unknown action {text:?} (expected ioerr, truncate, panic, or stall[(MS)])"
            ))
        }
    }
}

fn parse_entry(entry: &str) -> Result<Entry, String> {
    let (site, rest) = entry
        .split_once('=')
        .ok_or_else(|| format!("missing '=' in failpoint entry {entry:?}"))?;
    if site.is_empty() {
        return Err(format!("empty site in failpoint entry {entry:?}"));
    }
    // Split off the suffixes in order: action [@WHEN] [xCOUNT] [~P:SEED].
    let (rest, chance) = match rest.split_once('~') {
        Some((head, prob)) => {
            let (p, seed) = prob
                .split_once(':')
                .ok_or_else(|| format!("probabilistic entry needs ~P:SEED, got ~{prob}"))?;
            let p: f64 = p
                .parse()
                .map_err(|_| format!("invalid probability {p:?}"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("probability {p} out of [0, 1]"));
            }
            let seed: u64 = seed.parse().map_err(|_| format!("invalid seed {seed:?}"))?;
            let threshold = (p * 18_446_744_073_709_551_616.0) as u128;
            (head, Some(Trigger::Chance { threshold, seed }))
        }
        None => (rest, None),
    };
    let (rest, count) = match rest.split_once('x') {
        Some((head, count)) => (head, Some(parse_count(count)?)),
        None => (rest, None),
    };
    let (action, when) = match rest.split_once('@') {
        Some((head, "*")) => (head, None),
        Some((head, at)) => {
            let at: u64 = at
                .parse()
                .map_err(|_| format!("invalid '@' index {at:?} (expected a number or '*')"))?;
            (head, Some(at))
        }
        None => (rest, None),
    };
    let trigger = match (when, chance) {
        (Some(_), Some(_)) => {
            return Err(format!("entry {entry:?} mixes '@' and '~' triggers"));
        }
        (Some(at), None) => Trigger::At(at),
        (None, Some(chance)) => chance,
        (None, None) => Trigger::Always,
    };
    Ok(Entry {
        site: site.to_owned(),
        fault: parse_action(action)?,
        trigger,
        budget: count.unwrap_or(Some(1)),
        fired: 0,
        hits: 0,
    })
}

impl Faults {
    fn from_entries(entries: Vec<Entry>, stall_timeout_ms: u64) -> Self {
        Faults {
            armed: !entries.is_empty(),
            shared: Arc::new(Mutex::new(State {
                entries,
                degraded: BTreeMap::new(),
                stall_timeout_ms,
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.shared.lock().unwrap_or_else(|poisoned| {
            // Fault tests panic on purpose; a poisoned lock carries no
            // broken invariant worth propagating.
            poisoned.into_inner()
        })
    }

    /// Parses a fault schedule into a fresh handle with the default
    /// stall threshold. An empty (or all-whitespace) spec yields an
    /// inert handle.
    ///
    /// # Errors
    ///
    /// A description of the first malformed entry.
    pub fn parse(spec: &str) -> Result<Faults, String> {
        let normalized: String = spec.chars().filter(|c| !c.is_whitespace()).collect();
        let entries: Vec<Entry> = normalized
            .split([';', ','])
            .filter(|entry| !entry.is_empty())
            .map(parse_entry)
            .collect::<Result<_, _>>()?;
        Ok(Faults::from_entries(entries, DEFAULT_STALL_TIMEOUT_MS))
    }

    /// An independent handle with this one's schedule and stall
    /// threshold, but unspent: hit counters and fire budgets reset, no
    /// degraded marks. `mmaes chaos` parses its schedule once and runs
    /// every leg on a fresh copy.
    pub fn fresh(&self) -> Faults {
        let state = self.lock();
        let mut entries = state.entries.clone();
        for entry in &mut entries {
            (entry.fired, entry.hits) = (0, 0);
        }
        Faults::from_entries(entries, state.stall_timeout_ms)
    }

    /// Sets the stalled-worker threshold for every clone of this handle.
    pub fn with_stall_timeout_ms(self, ms: u64) -> Self {
        self.lock().stall_timeout_ms = ms;
        self
    }

    /// The stalled-worker threshold in milliseconds
    /// ([`DEFAULT_STALL_TIMEOUT_MS`] unless set).
    pub fn stall_timeout_ms(&self) -> u64 {
        self.lock().stall_timeout_ms
    }

    fn consult(&self, site: &str, index_of: impl Fn(u64) -> u64) -> Option<Fault> {
        if !self.armed {
            return None;
        }
        let mut state = self.lock();
        for entry in state.entries.iter_mut() {
            if entry.site != site {
                continue;
            }
            entry.hits += 1;
            let index = index_of(entry.hits);
            let eligible = match entry.trigger {
                Trigger::Always => true,
                Trigger::At(at) => at == index,
                Trigger::Chance { threshold, seed } => {
                    u128::from(splitmix64(seed ^ index)) < threshold
                }
            };
            let budgeted = entry.budget.is_none_or(|budget| entry.fired < budget);
            if eligible && budgeted {
                entry.fired += 1;
                return Some(entry.fault);
            }
        }
        None
    }

    /// Consults the schedule at an I/O site, keyed by the site's own
    /// 1-based hit counter. Returns the fault to inject, if any.
    pub fn check(&self, site: &str) -> Option<Fault> {
        self.consult(site, |hits| hits)
    }

    /// Consults the schedule at an indexed site — the `worker` site
    /// passes the batch number, so `worker=panic@3` strikes batch 3
    /// regardless of which thread claims it (and strikes its retries,
    /// until the fire budget runs out).
    pub fn check_at(&self, site: &str, index: u64) -> Option<Fault> {
        self.consult(site, |_| index)
    }

    /// Applies any injected fault at an I/O site, in one call
    /// instrumented writers place before their real work: `Io` returns
    /// the injected error; `Truncate` writes the first half of
    /// `payload` to `tmp` (modelling a crash or ENOSPC mid-write,
    /// before the atomic rename) and returns the injected error;
    /// `Panic` panics; `Stall` sleeps, then lets the write proceed.
    /// Returns `Ok(())` when no failpoint fires.
    pub fn inject_io(
        &self,
        site: &str,
        truncate_target: Option<(&std::path::Path, &[u8])>,
    ) -> std::io::Result<()> {
        let Some(fault) = self.check(site) else {
            return Ok(());
        };
        match fault {
            Fault::Io => Err(fault.as_io_error(site)),
            Fault::Truncate => {
                if let Some((tmp, payload)) = truncate_target {
                    let _ = std::fs::write(tmp, &payload[..payload.len() / 2]);
                }
                Err(fault.as_io_error(site))
            }
            Fault::Panic => panic!("injected panic (failpoint {site})"),
            Fault::Stall(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
        }
    }

    /// Records an incident for `subsystem`, keeping the latest detail
    /// and bumping its incident count.
    pub fn mark(&self, subsystem: &str, detail: &str) {
        let mut state = self.lock();
        let (latest, incidents) = state.degraded.entry(subsystem.to_owned()).or_default();
        *latest = detail.to_owned();
        *incidents += 1;
    }

    /// The degraded subsystems so far, sorted by name (deterministic).
    pub fn degraded(&self) -> Vec<DegradedEntry> {
        self.lock()
            .degraded
            .iter()
            .map(|(subsystem, (detail, incidents))| DegradedEntry {
                subsystem: subsystem.clone(),
                detail: detail.clone(),
                incidents: *incidents,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults(spec: &str) -> Faults {
        Faults::parse(spec).expect("valid failpoint spec")
    }

    #[test]
    fn inactive_registry_is_a_no_op() {
        let faults = faults("");
        assert!(!faults.armed);
        assert_eq!(faults.check("snapshot.save"), None);
        assert_eq!(faults.check_at("worker", 3), None);
    }

    #[test]
    fn single_shot_entries_fire_once() {
        let faults = faults("snapshot.save=ioerr");
        assert!(faults.armed);
        assert_eq!(faults.check("snapshot.save"), Some(Fault::Io));
        assert_eq!(faults.check("snapshot.save"), None, "budget exhausted");
        assert_eq!(faults.check("status.write"), None, "other sites untouched");
    }

    #[test]
    fn hit_indexed_and_counted_entries_compose() {
        let faults = faults("status.write=truncate@2 x2");
        assert_eq!(faults.check("status.write"), None, "hit 1");
        assert_eq!(faults.check("status.write"), Some(Fault::Truncate), "hit 2");
        assert_eq!(faults.check("status.write"), None, "hit 3 is past '@2'");
    }

    #[test]
    fn worker_entries_key_off_the_batch_index() {
        let faults = faults("worker=panic@3x2");
        assert_eq!(faults.check_at("worker", 0), None);
        assert_eq!(faults.check_at("worker", 3), Some(Fault::Panic));
        assert_eq!(
            faults.check_at("worker", 3),
            Some(Fault::Panic),
            "first retry"
        );
        assert_eq!(
            faults.check_at("worker", 3),
            None,
            "budget spent: retry succeeds"
        );
    }

    #[test]
    fn unlimited_budgets_and_stall_durations_parse() {
        let faults = faults("worker=stall(250)@*x*; metrics.write=ioerr x*");
        for batch in 0..4 {
            assert_eq!(faults.check_at("worker", batch), Some(Fault::Stall(250)));
        }
        for _ in 0..4 {
            assert_eq!(faults.check("metrics.write"), Some(Fault::Io));
        }
    }

    #[test]
    fn probabilistic_entries_are_deterministic_per_seed() {
        let sample = |spec: &str| -> Vec<bool> {
            let faults = faults(spec);
            (0..64)
                .map(|_| faults.check("metrics.write").is_some())
                .collect()
        };
        let first = sample("metrics.write=ioerr x*~0.5:7");
        let again = sample("metrics.write=ioerr x*~0.5:7");
        assert_eq!(first, again, "same seed, same fault sequence");
        let fired = first.iter().filter(|&&fired| fired).count();
        assert!((16..=48).contains(&fired), "roughly half fire: {fired}");
        let other = sample("metrics.write=ioerr x*~0.5:8");
        assert_ne!(first, other, "different seed, different sequence");
        assert!(
            sample("metrics.write=ioerr x*~0:7").iter().all(|f| !f),
            "P=0 never fires"
        );
        assert!(
            sample("metrics.write=ioerr x*~1:7").iter().all(|f| *f),
            "P=1 always fires"
        );
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let faults = faults("");
        for spec in [
            "worker",
            "=panic",
            "worker=explode",
            "worker=panic@x",
            "worker=panic@2~0.5:1",
            "worker=stall(fast)",
            "worker=panic~2:1",
            "worker=panic~0.5",
        ] {
            assert!(Faults::parse(spec).is_err(), "{spec:?} must be rejected");
        }
        // A failed parse leaves the existing (empty) schedule alone.
        assert!(!faults.armed);
    }

    #[test]
    fn faults_render_as_io_errors() {
        let error = Fault::Io.as_io_error("snapshot.save");
        assert!(error.to_string().contains("snapshot.save"), "{error}");
        let error = Fault::Truncate.as_io_error("status.write");
        assert!(error.to_string().contains("truncated"), "{error}");
    }

    #[test]
    fn clones_share_one_schedule_and_fresh_copies_do_not() {
        let faults = faults("snapshot.save=ioerr").with_stall_timeout_ms(50);
        let fresh = faults.fresh();
        let clone = faults.clone();
        assert_eq!(clone.check("snapshot.save"), Some(Fault::Io));
        assert_eq!(faults.check("snapshot.save"), None, "the clone spent it");
        assert_eq!(fresh.check("snapshot.save"), Some(Fault::Io), "unspent");
        assert_eq!(fresh.stall_timeout_ms(), 50, "threshold carried over");
        clone.mark("snapshot", "full");
        assert_eq!(faults.degraded().len(), 1, "marks are shared");
        assert!(fresh.degraded().is_empty(), "but not with a fresh copy");
        assert!(
            Faults::default().degraded().is_empty(),
            "defaults are independent"
        );
        assert_eq!(
            Faults::default().stall_timeout_ms(),
            DEFAULT_STALL_TIMEOUT_MS
        );
    }

    #[test]
    fn marks_accumulate_and_render_deterministically() {
        let faults = Faults::default();
        assert!(faults.degraded().is_empty());
        assert_eq!(degraded_json(&faults.degraded()), "[]");
        faults.mark("status-file", "create /tmp/x.tmp: full");
        faults.mark("snapshot", "write eq6.tmp: full");
        faults.mark("snapshot", "rename eq6.tmp: full");
        let entries = faults.degraded();
        assert!(!entries.is_empty());
        assert_eq!(entries.len(), 2);
        // BTreeMap keys: "snapshot" sorts before "status-file".
        assert_eq!(entries[0].subsystem, "snapshot");
        assert_eq!(entries[0].incidents, 2);
        assert_eq!(entries[0].detail, "rename eq6.tmp: full", "latest kept");
        assert_eq!(entries[1].incidents, 1);
        let json = degraded_json(&entries);
        assert!(json.starts_with("[{"), "{json}");
        crate::json::parse(&json).expect("degraded block parses");
        // A fresh copy of the handle starts with no marks.
        assert_eq!(degraded_json(&faults.fresh().degraded()), "[]");
    }

    #[test]
    fn retry_returns_first_success_or_last_error() {
        let mut calls = 0;
        let result: Result<u32, &str> = retry(|| {
            calls += 1;
            if calls < 3 {
                Err("transient")
            } else {
                Ok(7)
            }
        });
        assert_eq!(result, Ok(7));
        assert_eq!(calls, 3, "succeeds on the last budgeted attempt");
        let mut calls = 0;
        let result: Result<u32, String> = retry(|| {
            calls += 1;
            Err(format!("attempt {calls} failed"))
        });
        assert_eq!(result, Err("attempt 3 failed".into()));
    }
}
