//! The staged campaign engine: one driver behind every run path.
//!
//! A campaign is a pipeline of stages —
//!
//! ```text
//! batch source → simulate → pack lanes → absorb → checkpoint/health/snapshot
//! ```
//!
//! — over `T = threads` *stripes* of tables. Stripe `s` owns tables
//! `s, s + T, s + 2T, …` (interleaved by table index) for the whole
//! run. The batches go through in chunks, each in two phases with a
//! barrier between them. In the pack phase, the stripes split the
//! chunk's batches (batch `first + j` to stripe `j mod T`); each
//! simulates its batches on its own simulator and packs every set's
//! lanes into the batch's shared slot ([`Engine::run_batch`], under the
//! supervised retry helper). In the absorb phase, each stripe absorbs
//! every packed batch, in batch order, into its own tables with
//! [`Table::absorb`]. A chunk holds `T` batches for large designs and
//! up to `T ×` [`MAX_ROUNDS`] for small ones, so that stripes over few
//! sets do not spend their time waking each other. A table's bytes
//! depend only on the order of its own batches, and every table sees
//! them in batch order on every thread count, so reports, trajectories
//! and snapshots are byte-identical across thread counts, evaluators
//! and tabulators — including which keys win the last slots of a
//! capped hashed table.
//!
//! The barrier is also what keeps the frontier shared: a chunk never
//! spans a checkpoint or `stop_after_batches`, and a batch whose
//! retries run out is absorbed by no stripe, while the batches before
//! it are absorbed by all. A fatal fault, a signal or the cap thus
//! leaves every table at the same contiguous `batches_done`, so
//! emergency and interrupt snapshots stay valid. At a checkpoint each
//! stripe sweeps the statistic and the health summary over its own
//! tables; the driver then emits `ProbeFlagged`, `CampaignCheckpoint`
//! and `Health` in table order, writes the snapshot and decides early
//! stop ([`Engine::after_batch`]).
//!
//! The calling thread runs stripe 0 itself; stripes `1..T` run on
//! scoped threads that live for the whole run, so each table only ever
//! grows on its owner thread. The calling thread posts each phase to
//! them, runs its own share, then runs the heartbeat watchdog while it
//! waits for the rest.
//!
//! Supervision (panic boundaries, bounded retries, rebuilt simulators,
//! heartbeat watchdogs, degraded-sink snapshots) is integrated here
//! once; `campaign.rs` is left with configuration, the builder API and
//! report assembly.

use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;

use mmaes_netlist::{Netlist, SecretId, WireId};
use mmaes_sim::{SimStats, Simulator, LANES};
use mmaes_telemetry::{
    Checkpoint, Event, Observer, PerfRecorder, ProbeHealth, ProbePoint, Stopwatch,
};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::campaign::CampaignError;
use crate::config::{CampaignMode, EvaluationConfig, SecretDomain, DECISIVE_MARGIN};
use crate::health;
use crate::probe::ProbeSet;
use crate::snapshot::{self, SnapshotError, TableView};
use crate::stats::pooling_summary;
use crate::supervisor;
use crate::tabulate::{Lanes, Table, TabulatorMode};

/// Probing sets carried per checkpoint event: the top sets by running
/// `-log10(p)` plus every set over the threshold.
pub(crate) const CHECKPOINT_TOP_PROBES: usize = 8;

/// Refill granularity of [`BufferedRng`], in `u64` words.
const RNG_BLOCK: usize = 256;

/// Packed sets a stripe aims to pack per phase when there is more than
/// one stripe: each stripe then packs `CHUNK_SETS / sets` batches of a
/// chunk (at least one, at most [`MAX_ROUNDS`]), so that cheap batches
/// over few sets do not each pay a barrier round trip (on the S-box at
/// two threads, a barrier per batch nearly doubled the wall time). A
/// packed set takes at most 1 KiB, which bounds the chunk's buffers
/// at 4 MiB per stripe for small designs; large designs such as the AES
/// core pack one batch per stripe and phase.
const CHUNK_SETS: usize = 4096;

/// The most batches a stripe packs per chunk: bounds how long an
/// interrupt waits for the next frontier advance.
const MAX_ROUNDS: usize = 16;

/// Watchdog granularity of the driver: how often it wakes while the
/// stripe threads run a phase, to scan their heartbeats.
const WATCHDOG_TICK_MS: u64 = 100;

/// Derives the RNG for one batch from the campaign seed and the batch
/// index (a splitmix64-style mix). Making every batch's randomness a
/// pure function of `(seed, batch)` is what lets an interrupted
/// campaign resume bit-identically: no draw-count bookkeeping can work,
/// because secret sampling uses rejection (variable draws per batch).
fn batch_rng(seed: u64, batch: u64) -> StdRng {
    let mut mixed = seed ^ batch.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    mixed = (mixed ^ (mixed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    mixed = (mixed ^ (mixed >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    StdRng::seed_from_u64(mixed ^ (mixed >> 31))
}

/// A block-buffered wrapper over the per-batch [`StdRng`]: refills 256
/// words in one tight pass and serves draws from the buffer, amortizing
/// the per-draw generator stepping across the batch's randomness
/// (shares, masks, controls). Emits the *identical* word stream — every
/// `gen`/`gen_range` draw in this crate consumes exactly one `next_u64`
/// — so the trace stream stays a pure function of `(seed, batch)`;
/// unused buffered words at batch end are simply discarded (each batch
/// derives a fresh RNG anyway).
struct BufferedRng {
    inner: StdRng,
    buffer: [u64; RNG_BLOCK],
    cursor: usize,
}

impl BufferedRng {
    fn new(inner: StdRng) -> Self {
        BufferedRng {
            inner,
            buffer: [0; RNG_BLOCK],
            cursor: RNG_BLOCK,
        }
    }
}

impl RngCore for BufferedRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.cursor == RNG_BLOCK {
            for word in &mut self.buffer {
                *word = self.inner.next_u64();
            }
            self.cursor = 0;
        }
        let word = self.buffer[self.cursor];
        self.cursor += 1;
        word
    }
}

/// Builds the contingency table for one probing set under the
/// configured [`TabulatorMode`]: a dense direct-indexed table when the
/// set's full key space fits the cap (it then cannot overflow), the
/// hashed reference otherwise.
pub(crate) fn make_table(set: &ProbeSet, config: &EvaluationConfig) -> Table {
    match config.tabulator {
        TabulatorMode::Dense => set
            .dense_index_width(config.model, config.max_table_keys)
            .map_or_else(Table::hashed, Table::dense),
        TabulatorMode::Hashed => Table::hashed(),
    }
}

/// The campaign state in table order. The driver deals its tables and
/// trajectories out to the stripes for the run and collects them back
/// afterwards; everything else changes only at batch-frontier advances
/// on the driver — which is the whole determinism argument: any stripe
/// count that advances the frontier through the same states yields the
/// same bytes. A side effect worth naming: `batches_done` is always a
/// contiguous frontier, so every snapshot records exactly the batches
/// `0..batches_done` — resumable on any thread count.
pub(crate) struct CampaignState {
    pub(crate) tables: Vec<Table>,
    pub(crate) trajectories: Vec<Vec<(u64, f64)>>,
    pub(crate) flagged: Vec<bool>,
    pub(crate) batches_done: u64,
    /// Simulator work of the absorbed batches.
    pub(crate) folded: SimStats,
    pub(crate) early_stopped: bool,
    pub(crate) interrupted: bool,
    /// Checkpoint snapshot writes exhausted their retry budget: skip
    /// further interim saves (the final save is still attempted) and
    /// mark the outage on the fault handle.
    pub(crate) snapshot_degraded: bool,
    pub(crate) last_stats: SimStats,
    pub(crate) last_elapsed_ms: u64,
}

impl CampaignState {
    pub(crate) fn new(probe_sets: &[ProbeSet], config: &EvaluationConfig) -> Self {
        let probe_set_count = probe_sets.len();
        CampaignState {
            tables: probe_sets
                .iter()
                .map(|set| make_table(set, config))
                .collect(),
            trajectories: vec![Vec::new(); probe_set_count],
            flagged: vec![false; probe_set_count],
            batches_done: 0,
            folded: SimStats::default(),
            early_stopped: false,
            interrupted: false,
            snapshot_degraded: false,
            last_stats: SimStats::default(),
            last_elapsed_ms: 0,
        }
    }
}

/// Read-only context the driver needs besides the state.
pub(crate) struct FoldContext<'a> {
    pub(crate) probe_sets: &'a [ProbeSet],
    pub(crate) watch: &'a Stopwatch,
    pub(crate) perf: &'a PerfRecorder,
    pub(crate) fingerprint: u64,
    pub(crate) batches: u64,
    pub(crate) checkpoint_every: u64,
    pub(crate) prior_cell_evals: u64,
    /// Fresh randomness the input driver draws per trace, in bits —
    /// the health layer's randomness-consumption accounting.
    pub(crate) fresh_bits_per_trace: u64,
}

impl FoldContext<'_> {
    /// Whether the frontier reaching `batches_done` is an interim
    /// checkpoint. The last batch is not: the final statistics cover it.
    fn is_checkpoint(&self, batches_done: u64) -> bool {
        self.checkpoint_every > 0
            && batches_done.is_multiple_of(self.checkpoint_every)
            && batches_done < self.batches
    }

    /// The end of the chunk of at most `chunk` batches from `first`: it
    /// stops at the next checkpoint, at `cap` and at the last batch, so
    /// that every frontier the driver acts on is one it would reach
    /// batch by batch.
    fn chunk_end(&self, first: u64, chunk: u64, cap: Option<u64>) -> u64 {
        let mut end = (first + chunk).min(self.batches);
        if self.checkpoint_every > 0 {
            end = end.min((first + 1).next_multiple_of(self.checkpoint_every));
        }
        match cap {
            Some(cap) if cap > first => end.min(cap),
            _ => end,
        }
    }
}

/// One phase of a chunk of batches. The driver posts it to every
/// stripe and moves on once all of them have run it.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Simulate and pack the stripe's share of the `count` batches from
    /// `first` (batch `first + j` goes to stripe `j mod T`), stopping
    /// at a batch whose retries run out.
    Pack { first: u64, count: usize },
    /// Absorb the chunk's first `count` batches into the stripe's
    /// tables; at a checkpoint, then
    /// sweep the statistic with the frontier at `sweep` traces. With
    /// `memoize` (after the last batch), then memoize each table's
    /// sorted columns for the final sweep and snapshot, so that the
    /// sorting allocates in the arena of the thread that grew the table
    /// (on the AES core, sorting on the calling thread instead adds
    /// ~60 MiB of peak RSS).
    Absorb {
        count: usize,
        sweep: Option<u64>,
        memoize: bool,
    },
}

/// One stripe: the tables `index, index + T, …` with their probing
/// sets and trajectories, plus what the last phase left for the driver
/// to read at the barrier. The thread running the stripe keeps its
/// simulator to itself.
struct Stripe<'s> {
    index: usize,
    /// `T`, the stripe count: the stripe's `k`-th table is table
    /// `index + k × stride`.
    stride: usize,
    sets: Vec<&'s ProbeSet>,
    tables: Vec<Table>,
    trajectories: Vec<Vec<(u64, f64)>>,
    /// The batch whose retries ran out in the last `Pack`, with its
    /// fault: the stripe packed none of its batches after it.
    failed: Option<(u64, CampaignError)>,
    /// The last checkpoint sweep, per table: the running `-log10(p)`
    /// and, when the observer is on, the health summary.
    swept: Vec<f64>,
    healths: Vec<ProbeHealth>,
}

/// Deals `items` out to `stripes` stripes, item `i` to stripe
/// `i % stripes`.
fn deal<T>(items: Vec<T>, stripes: usize) -> Vec<Vec<T>> {
    let mut dealt: Vec<Vec<T>> = (0..stripes)
        .map(|stripe| Vec::with_capacity((items.len() + stripes - 1 - stripe) / stripes))
        .collect();
    for (index, item) in items.into_iter().enumerate() {
        dealt[index % stripes].push(item);
    }
    dealt
}

/// Walks items dealt as by [`deal`] in table order: item `i` from
/// stripe `i % stripes`. Dealing round robin makes the first stripe to
/// run dry the one due the item past the last.
fn in_table_order<I: Iterator>(mut dealt: Vec<I>) -> impl Iterator<Item = I::Item> {
    let stripes = dealt.len();
    (0..).map_while(move |index| dealt[index % stripes].next())
}

/// The inverse of [`deal`]: the stripes' items back in table order.
fn interleave<T>(dealt: Vec<Vec<T>>) -> Vec<T> {
    in_table_order(dealt.into_iter().map(Vec::into_iter).collect()).collect()
}

/// One batch of a chunk: every set's packed lanes, plus the batch's
/// lane → population mask and simulator work. The stripe that packs
/// the batch writes it; after the barrier every stripe reads it.
struct Slot {
    lanes: Vec<Lanes>,
    packed: (u64, SimStats),
}

/// Moves the stripes' tables and trajectories back into `state`, in
/// table order.
fn collect(state: &mut CampaignState, stripes: Vec<Mutex<Stripe<'_>>>) {
    let (tables, trajectories) = stripes
        .into_iter()
        .map(|stripe| {
            let stripe = stripe.into_inner().unwrap_or_else(PoisonError::into_inner);
            (stripe.tables, stripe.trajectories)
        })
        .unzip();
    state.tables = interleave(tables);
    state.trajectories = interleave(trajectories);
}

/// Runs one batch under supervision, retrying in place. A faulted
/// attempt (contained panic — injected or real) rebuilds the simulator
/// and retries after bounded backoff, up to [`supervisor::MAX_ATTEMPTS`]
/// total attempts. Every attempt rewrites `observations` whole, and the
/// outcome is a pure function of `(seed, batch)`, so a successful retry
/// is indistinguishable from a fault-free first attempt and a torn
/// attempt can never half-count a batch.
fn run_batch_supervised<'a>(
    engine: &Engine<'a>,
    sim: &mut Simulator<'a>,
    batch: u64,
    perf: &PerfRecorder,
    observations: &mut [Lanes],
) -> Result<(u64, SimStats), CampaignError> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match supervisor::supervised(batch, &engine.config.faults, || {
            engine.run_batch(sim, batch, perf, observations)
        }) {
            Ok(packed) => return Ok(packed),
            Err(fault) => {
                if attempts >= supervisor::MAX_ATTEMPTS {
                    return Err(CampaignError::Worker {
                        batch,
                        attempts,
                        message: fault.to_string(),
                    });
                }
                // The panicked attempt may have torn the simulator
                // mid-step; rebuild it rather than trust its state.
                *sim = engine.simulator();
                std::thread::sleep(Duration::from_millis(supervisor::backoff_ms(attempts)));
            }
        }
    }
}

/// The staged scheduler: everything needed to simulate, tabulate and
/// absorb batches, shared read-only across the stripe threads.
/// Splitting this out of the builder is what lets `std::thread::scope`
/// stripes borrow the input-driving tables while the driver keeps
/// `&mut` access to the campaign state.
pub(crate) struct Engine<'a> {
    pub(crate) netlist: &'a Netlist,
    pub(crate) config: &'a EvaluationConfig,
    pub(crate) probe_sets: &'a [ProbeSet],
    /// Per secret: `shares[share][bit]` wires (dense).
    pub(crate) secrets: &'a [(SecretId, Vec<Vec<WireId>>)],
    pub(crate) free_masks: &'a [WireId],
    pub(crate) controls: &'a [WireId],
    pub(crate) nonzero_byte_buses: &'a [Vec<WireId>],
    pub(crate) control_schedules: &'a [(WireId, Vec<bool>)],
    pub(crate) observer: &'a Observer,
}

impl<'a> Engine<'a> {
    /// Runs the sampling pipeline from `state.batches_done` to
    /// `context.batches` (or an early stop / interrupt / fatal fault),
    /// then writes the final snapshot when one is configured. The final
    /// save covers interruption, early stop and normal completion
    /// (resuming a completed snapshot reproduces the final report
    /// without re-simulating) — and, when the run itself failed, it is
    /// an emergency flush of the contiguous prefix before the error
    /// propagates, so the traces already simulated are never lost.
    pub(crate) fn run(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
    ) -> Result<(), CampaignError> {
        let threads = self.config.threads.clamp(1, self.probe_sets.len().max(1));
        let stripes = self.deal(state, threads);
        let mut result = self.run_stripes(context, state, &stripes);
        if let Some(path) = &self.config.durability.snapshot_path {
            if let Err(error) = self.save_snapshot(context, state, &stripes, path) {
                if result.is_ok() {
                    // A healthy run whose final state cannot be
                    // persisted is a typed error: the caller asked for
                    // durability and did not get it.
                    result = Err(error.into());
                } else {
                    // The run error is the root cause and wins; record
                    // the failed emergency flush alongside it.
                    self.config
                        .faults
                        .mark("snapshot", &format!("emergency flush failed: {error}"));
                }
            }
        }
        collect(state, stripes);
        result
    }

    /// Moves the tables and trajectories out of `state` into `threads`
    /// stripes, table `i` to stripe `i % threads`.
    fn deal(&self, state: &mut CampaignState, threads: usize) -> Vec<Mutex<Stripe<'a>>> {
        let sets = deal(self.probe_sets.iter().collect(), threads);
        let tables = deal(std::mem::take(&mut state.tables), threads);
        let trajectories = deal(std::mem::take(&mut state.trajectories), threads);
        sets.into_iter()
            .zip(tables)
            .zip(trajectories)
            .enumerate()
            .map(|(index, ((sets, tables), trajectories))| {
                Mutex::new(Stripe {
                    index,
                    stride: threads,
                    sets,
                    tables,
                    trajectories,
                    failed: None,
                    swept: Vec::new(),
                    healths: Vec::new(),
                })
            })
            .collect()
    }

    /// Runs the batches on the stripes: stripe 0 on the calling thread,
    /// every other stripe on a persistent scoped thread of its own.
    fn run_stripes(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
        stripes: &[Mutex<Stripe<'a>>],
    ) -> Result<(), CampaignError> {
        if state.batches_done >= context.batches {
            return Ok(());
        }
        let heartbeats = supervisor::Heartbeats::new(stripes.len());
        let rounds = if stripes.len() == 1 {
            // No barrier to amortize.
            1
        } else {
            (CHUNK_SETS / self.probe_sets.len().max(1)).clamp(1, MAX_ROUNDS)
        };
        // Allocated here, like the tables: allocating the buffers on the
        // stripe threads measured +21 MiB of peak RSS on the AES core.
        let slots: Vec<RwLock<Slot>> = (0..stripes.len() * rounds)
            .map(|_| {
                RwLock::new(Slot {
                    lanes: self
                        .probe_sets
                        .iter()
                        .map(|set| Lanes::for_set(set, self.config.model))
                        .collect(),
                    packed: Default::default(),
                })
            })
            .collect();
        let slots = &slots[..];
        let (own, helpers) = stripes.split_first().expect("at least one stripe");
        let crew = Crew::default();
        let faults = &self.config.faults;
        let stall_timeout_ms = faults.stall_timeout_ms();
        let mut flagged_stall = vec![false; stripes.len()];
        std::thread::scope(|scope| {
            for stripe in helpers {
                let (crew, heartbeats) = (&crew, &heartbeats);
                scope.spawn(move || {
                    let mut sim = self.simulator();
                    crew.serve(|phase| {
                        let stripe = &mut lock(stripe);
                        self.execute(context, stripe, &mut sim, slots, phase, heartbeats);
                    });
                });
            }
            // Dismissed on every exit, an unwinding one included, so
            // no stripe thread is left waiting for the next phase.
            let _dismiss = Dismiss(&crew);
            let mut sim = self.simulator();
            self.drive(context, state, stripes, slots, |phase| {
                crew.dispatch(
                    phase,
                    helpers.len(),
                    || {
                        let stripe = &mut lock(own);
                        self.execute(context, stripe, &mut sim, slots, phase, &heartbeats);
                    },
                    || {
                        // Advisory stall flags, once per stripe.
                        for (worker, fault) in heartbeats.stalled(stall_timeout_ms) {
                            if !flagged_stall[worker] {
                                flagged_stall[worker] = true;
                                faults.mark("worker", &format!("worker {worker}: {fault}"));
                            }
                        }
                    },
                );
            })
        })
    }

    /// The one driver loop, whichever threads run the stripes:
    /// `dispatch` runs a phase on every stripe and returns once all of
    /// them have run it. Each round packs a chunk of up to one batch
    /// per slot and then absorbs the packed prefix of the chunk.
    ///
    /// Fault containment (see [`crate::supervisor`]): a panicked
    /// attempt is retried in place on the stripe that packs the batch,
    /// so every table absorbs each batch exactly once and reports stay
    /// byte-identical under injected faults. A batch that exhausts
    /// [`supervisor::MAX_ATTEMPTS`] is fatal: no table absorbs it,
    /// every table absorbs the batches before it, and the campaign
    /// returns [`CampaignError::Worker`] (the earliest failed batch's)
    /// with the frontier at that batch.
    fn drive(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
        stripes: &[Mutex<Stripe<'a>>],
        slots: &[RwLock<Slot>],
        mut dispatch: impl FnMut(Phase),
    ) -> Result<(), CampaignError> {
        let cap = self.config.durability.stop_after_batches;
        while state.batches_done < context.batches {
            let first = state.batches_done;
            let count = context.chunk_end(first, slots.len() as u64, cap) - first;
            dispatch(Phase::Pack {
                first,
                count: count as usize,
            });
            // The barrier: every batch of the chunk is packed, up to
            // the earliest one whose retries ran out.
            let failure = stripes
                .iter()
                .filter_map(|stripe| lock(stripe).failed.take())
                .min_by_key(|&(batch, _)| batch);
            let next = failure.as_ref().map_or(first + count, |&(batch, _)| batch);
            if next > first {
                let packed = (next - first) as usize;
                dispatch(Phase::Absorb {
                    count: packed,
                    sweep: context.is_checkpoint(next).then_some(next * LANES as u64),
                    memoize: next == context.batches,
                });
                for slot in &slots[..packed] {
                    let (_, work) = read(slot).packed;
                    state.folded.cycles += work.cycles;
                    state.folded.cell_evals += work.cell_evals;
                }
                state.batches_done = next;
            }
            if let Some((_, error)) = failure {
                return Err(error);
            }
            if self.after_batch(context, state, stripes) {
                break;
            }
        }
        Ok(())
    }

    /// Runs one phase on one stripe, with the simulator of the thread
    /// that runs it.
    fn execute(
        &self,
        context: &FoldContext<'_>,
        stripe: &mut Stripe<'_>,
        sim: &mut Simulator<'a>,
        slots: &[RwLock<Slot>],
        phase: Phase,
        heartbeats: &supervisor::Heartbeats,
    ) {
        let perf = context.perf;
        match phase {
            Phase::Pack { first, count } => {
                stripe.failed = None;
                for (batch, slot) in (first..)
                    .zip(&slots[..count])
                    .skip(stripe.index)
                    .step_by(stripe.stride)
                {
                    let slot = &mut *slot.write().unwrap_or_else(PoisonError::into_inner);
                    heartbeats.start(stripe.index, batch);
                    match run_batch_supervised(self, sim, batch, perf, &mut slot.lanes) {
                        Ok(packed) => slot.packed = packed,
                        Err(error) => {
                            stripe.failed = Some((batch, error));
                            break;
                        }
                    }
                }
                heartbeats.idle(stripe.index);
            }
            Phase::Absorb {
                count,
                sweep,
                memoize,
            } => {
                {
                    let _span = perf.span("merge");
                    let cap = self.config.max_table_keys;
                    let slots: Vec<_> = slots[..count].iter().map(read).collect();
                    for (k, table) in stripe.tables.iter_mut().enumerate() {
                        let set = stripe.index + k * stripe.stride;
                        for slot in &slots {
                            table.absorb(&slot.lanes[set], slot.packed.0, cap);
                        }
                    }
                }
                if let Some(traces) = sweep {
                    self.sweep(stripe, traces, perf);
                }
                if memoize {
                    let _span = perf.span("g_test");
                    for table in &mut stripe.tables {
                        table.sorted_columns();
                    }
                }
            }
        }
    }

    /// The checkpoint sweep over one stripe's tables: the running
    /// statistic (appended to each trajectory) and, when the observer
    /// is on, each set's health summary, left in `stripe.swept` and
    /// `stripe.healths` (empty until then: the driver takes both after
    /// every checkpoint).
    fn sweep(&self, stripe: &mut Stripe<'_>, traces: u64, perf: &PerfRecorder) {
        let _span = perf.span("g_test");
        let config = self.config;
        let statistic = config.statistic.as_statistic();
        let health_enabled = self.observer.enabled();
        // Both vectors grow by push: reserving them up front measured
        // +23 MiB of peak RSS on the AES core.
        for ((set, table), trajectory) in stripe
            .sets
            .iter()
            .zip(&mut stripe.tables)
            .zip(&mut stripe.trajectories)
        {
            let overflow = table.overflow();
            let minus_log10_p = statistic
                .evaluate(table.sorted_columns(), overflow)
                .map_or(0.0, |test| test.minus_log10_p);
            trajectory.push((traces, minus_log10_p));
            stripe.swept.push(minus_log10_p);
            if health_enabled {
                stripe.healths.push(health::probe_health(
                    &set.label,
                    &pooling_summary(&table.g_columns()),
                    minus_log10_p,
                    trajectory,
                    traces,
                    config.threshold,
                ));
            }
        }
    }

    /// A fresh simulator for the campaign's netlist and evaluator.
    fn simulator(&self) -> Simulator<'a> {
        Simulator::with_evaluator(self.netlist, self.config.evaluator)
    }

    /// Simulates one batch on `sim` and packs the lane observations of
    /// every probing set into `observations`, returning the batch's lane →
    /// population mask and simulator work. A pure function of
    /// `(seed, batch)` — which simulator runs it, on which thread, in
    /// which order, cannot change the outcome. Nothing is committed to
    /// live tables here: a faulted attempt leaves no trace once its
    /// retry rewrites the buffer.
    fn run_batch(
        &self,
        sim: &mut Simulator,
        batch: u64,
        perf: &PerfRecorder,
        observations: &mut [Lanes],
    ) -> (u64, SimStats) {
        let config = self.config;
        // Each batch derives its own RNG from (seed, batch), so the
        // trace stream is position-addressable: resume is exact and
        // whichever stripe packs a batch sees the same traces. Block-buffering
        // amortizes generator stepping without changing the stream.
        let mut rng = BufferedRng::new(batch_rng(config.seed, batch));
        // Lane → population: bit set = random population.
        let lane_groups: u64 = rng.gen();
        let before = sim.counters();
        sim.reset();
        {
            let _span = perf.span("simulate");
            for cycle in 0..=config.warmup_cycles {
                self.drive_cycle(sim, cycle, lane_groups, &mut rng);
                if cycle < config.warmup_cycles {
                    sim.step();
                } else {
                    sim.eval();
                }
            }
        }
        let _span = perf.span("tabulate");
        for (set, lanes) in self.probe_sets.iter().zip(observations.iter_mut()) {
            lanes.pack(sim, set, config.model);
        }
        (lane_groups, sim.counters().delta_since(before))
    }

    /// Drives every primary input for one cycle: shares re-randomized
    /// around the per-lane (fixed or random) secret, masks uniform,
    /// controls per their schedules.
    fn drive_cycle(
        &self,
        sim: &mut Simulator,
        cycle: usize,
        lane_groups: u64,
        rng: &mut BufferedRng,
    ) {
        let config = self.config;
        let fixed = config.fixed_secret;
        for (_, shares) in self.secrets {
            let bit_count = shares[0].len();
            let value_mask = if bit_count >= 64 {
                u64::MAX
            } else {
                (1u64 << bit_count) - 1
            };
            let mut per_lane_value = [0u64; LANES];
            for (lane, value) in per_lane_value.iter_mut().enumerate() {
                *value = if (lane_groups >> lane) & 1 == 1 {
                    match config.mode {
                        CampaignMode::FixedVsFixed { other } => other & value_mask,
                        CampaignMode::FixedVsRandom => match config.secret_domain {
                            SecretDomain::Uniform => rng.gen::<u64>() & value_mask,
                            SecretDomain::NonZero => loop {
                                let candidate = rng.gen::<u64>() & value_mask;
                                if candidate != 0 {
                                    break candidate;
                                }
                            },
                        },
                    }
                } else {
                    fixed & value_mask
                };
            }
            // Shares 1..d random; share 0 completes the XOR.
            let mut remaining = per_lane_value;
            for share_bus in shares.iter().skip(1) {
                let mut random_share = [0u64; LANES];
                for (lane, value) in random_share.iter_mut().enumerate() {
                    *value = rng.gen::<u64>() & value_mask;
                    remaining[lane] ^= *value;
                }
                sim.set_bus_per_lane(share_bus, &random_share);
            }
            sim.set_bus_per_lane(&shares[0], &remaining);
        }
        for &mask in self.free_masks {
            sim.set_input(mask, rng.gen());
        }
        for bus in self.nonzero_byte_buses {
            let mut per_lane = [0u64; LANES];
            for value in &mut per_lane {
                *value = rng.gen_range(1..=255u64);
            }
            sim.set_bus_per_lane(bus, &per_lane);
        }
        for &control in self.controls {
            sim.set_input(control, 0);
        }
        for (wire, pattern) in self.control_schedules {
            let value = pattern[cycle.min(pattern.len() - 1)];
            sim.set_input(*wire, if value { u64::MAX } else { 0 });
        }
    }

    /// Everything a batch-frontier advance triggers besides absorption:
    /// the interim checkpoint (events from the stripes' sweep, snapshot,
    /// early-stop decision) and the cooperative-interrupt check, purely
    /// as a function of `state.batches_done`. Infallible: a checkpoint
    /// snapshot that exhausts its retry budget degrades (marked on the
    /// fault handle, later interim saves skipped) rather than aborting a
    /// healthy campaign. Returns `true` when the campaign should stop
    /// before `context.batches`.
    fn after_batch(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
        stripes: &[Mutex<Stripe<'_>>],
    ) -> bool {
        let config = self.config;
        let perf = context.perf;

        // Interim checkpoint: the stripes' running statistic per
        // probing set in table order, events, and the early-stop
        // decision.
        if context.is_checkpoint(state.batches_done) {
            let _span = perf.span("g_test");
            let traces_so_far = state.batches_done * LANES as u64;
            let (swept, healths): (Vec<_>, Vec<_>) = stripes
                .iter()
                .map(|stripe| {
                    let mut stripe = lock(stripe);
                    (
                        std::mem::take(&mut stripe.swept),
                        std::mem::take(&mut stripe.healths),
                    )
                })
                .unzip();
            let probe_healths = interleave(healths);
            let mut running: Vec<(usize, f64)> =
                interleave(swept).into_iter().enumerate().collect();
            for &(index, minus_log10_p) in &running {
                if minus_log10_p > config.threshold && !state.flagged[index] {
                    state.flagged[index] = true;
                    if self.observer.enabled() {
                        self.observer.emit(&Event::ProbeFlagged {
                            label: context.probe_sets[index].label.clone(),
                            minus_log10_p,
                            traces: traces_so_far,
                        });
                    }
                }
            }
            running.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            let (worst_index, max_minus_log10_p) = running.first().copied().unwrap_or((0, 0.0));
            if self.observer.enabled() {
                let probes: Vec<ProbePoint> = running
                    .iter()
                    .enumerate()
                    .take_while(|&(rank, &(_, value))| {
                        rank < CHECKPOINT_TOP_PROBES || value > config.threshold
                    })
                    .map(|(_, &(index, value))| ProbePoint {
                        label: context.probe_sets[index].label.clone(),
                        minus_log10_p: value,
                        leaking: value > config.threshold,
                    })
                    .collect();
                self.observer.emit(&Event::CampaignCheckpoint(Checkpoint {
                    traces: traces_so_far,
                    traces_target: context.batches * LANES as u64,
                    elapsed_ms: context.watch.elapsed_ms(),
                    traces_per_sec: context.watch.rate(traces_so_far),
                    max_minus_log10_p,
                    worst_label: context
                        .probe_sets
                        .get(worst_index)
                        .map(|set| set.label.clone())
                        .unwrap_or_default(),
                    probes,
                }));
                let stats = state.folded;
                let elapsed_ms = context.watch.elapsed_ms();
                let interval = stats
                    .delta_since(state.last_stats)
                    .rates(elapsed_ms.saturating_sub(state.last_elapsed_ms) as f64 / 1000.0);
                state.last_stats = stats;
                state.last_elapsed_ms = elapsed_ms;
                self.observer.emit(&Event::SimProgress {
                    cycles: stats.cycles,
                    cell_evals: stats.cell_evals,
                    cycles_per_sec: interval.cycles_per_sec,
                    cell_evals_per_sec: interval.cell_evals_per_sec,
                    lane_utilization: config.traces.min(traces_so_far) as f64
                        / traces_so_far as f64,
                });
                self.observer.emit(&Event::Health(health::assess(
                    probe_healths,
                    traces_so_far,
                    context.batches * LANES as u64,
                    context.fresh_bits_per_trace,
                    config,
                    CHECKPOINT_TOP_PROBES,
                )));
            }
            if let Some(path) = &config.durability.snapshot_path {
                if !state.snapshot_degraded {
                    if let Err(error) = self.save_snapshot(context, state, stripes, path) {
                        // Interim saves are an amenity; losing them must
                        // not kill a healthy campaign. Degrade: skip
                        // further interim saves (the final save is still
                        // attempted) and surface the outage.
                        state.snapshot_degraded = true;
                        config.faults.mark(
                            "snapshot",
                            &format!("checkpoint at batch {}: {error}", state.batches_done),
                        );
                    }
                }
            }
            if config.early_stop && max_minus_log10_p >= DECISIVE_MARGIN * config.threshold {
                state.early_stopped = true;
                return true;
            }
        }

        // Cooperative interruption: a signal flag (set from a
        // SIGINT/SIGTERM handler) or a deterministic batch cap. Every
        // table holds the same contiguous prefix, so the state is
        // consistent; the final snapshot persists it.
        let signalled = config
            .durability
            .interrupt
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed));
        let capped = config
            .durability
            .stop_after_batches
            .is_some_and(|cap| state.batches_done >= cap);
        if (signalled || capped) && state.batches_done < context.batches {
            state.interrupted = true;
            return true;
        }
        false
    }

    /// Renders the campaign state straight from the stripes' live
    /// tables, in table order — each table's memoized sorted columns
    /// (shared with the checkpoint's statistic sweep), flag and
    /// trajectory — and writes it atomically within the fault handle's
    /// retry budget. The `snapshot` span nests in whatever span the
    /// caller holds: `g_test` for the interim save, none for the final
    /// one.
    fn save_snapshot(
        &self,
        context: &FoldContext<'_>,
        state: &CampaignState,
        stripes: &[Mutex<Stripe<'_>>],
        path: &std::path::Path,
    ) -> Result<(), SnapshotError> {
        let _span = context.perf.span("snapshot");
        let header = snapshot::Header {
            config_fingerprint: context.fingerprint,
            statistic: self.config.statistic,
            batches_done: state.batches_done,
            total_batches: context.batches,
            cell_evals: context.prior_cell_evals + state.folded.cell_evals,
        };
        let mut guards: Vec<MutexGuard<'_, Stripe<'_>>> = stripes.iter().map(lock).collect();
        let dealt = guards
            .iter_mut()
            .map(|stripe| {
                let stripe = &mut **stripe;
                stripe.tables.iter_mut().zip(&stripe.trajectories)
            })
            .collect();
        let tables: Vec<TableView<'_>> = in_table_order(dealt)
            .zip(&state.flagged)
            .map(|((table, trajectory), &flagged)| TableView {
                samples: table.samples(),
                overflow: table.overflow(),
                flagged,
                counts: table.sorted_columns(),
                trajectory,
            })
            .collect();
        snapshot::write_with_retry(
            &snapshot::render(&header, &tables),
            path,
            &self.config.faults,
        )
    }
}

/// The per-phase barrier between the driver and the persistent helper
/// threads (stripes `1..T`): the driver posts a phase, runs stripe 0's
/// share itself, and returns once every helper has run the phase once.
#[derive(Default)]
struct Crew {
    board: Mutex<Board>,
    posted: Condvar,
    finished: Condvar,
}

#[derive(Default)]
struct Board {
    /// The posted phase; `None` once the crew is dismissed.
    phase: Option<Phase>,
    /// Bumped on every post, so a stripe runs each phase once.
    round: u64,
    /// Stripes still running the posted phase.
    running: usize,
    /// A stripe thread panicked outside the supervised batch.
    lost: bool,
}

impl Crew {
    /// The stripe thread's loop: runs every posted phase until
    /// dismissed.
    fn serve(&self, mut run: impl FnMut(Phase)) {
        let mut seen = 0;
        loop {
            let phase = {
                let mut board = lock(&self.board);
                while board.round == seen {
                    board = self
                        .posted
                        .wait(board)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                seen = board.round;
                match board.phase {
                    Some(phase) => phase,
                    None => return,
                }
            };
            let report = Report(self);
            run(phase);
            drop(report);
        }
    }

    /// Posts `phase` to the `helpers` stripe threads, runs the calling
    /// thread's own share with `own`, then waits for the helpers to
    /// finish, calling `tick` every [`WATCHDOG_TICK_MS`] meanwhile.
    ///
    /// # Panics
    ///
    /// Panics if a stripe thread panicked — outside the supervised
    /// batch, so a bug rather than a contained fault.
    fn dispatch(&self, phase: Phase, helpers: usize, own: impl FnOnce(), mut tick: impl FnMut()) {
        {
            let mut board = lock(&self.board);
            board.phase = Some(phase);
            board.round += 1;
            board.running = helpers;
            self.posted.notify_all();
        }
        own();
        let mut board = lock(&self.board);
        while board.running > 0 && !board.lost {
            let (next, wait) = self
                .finished
                .wait_timeout(board, Duration::from_millis(WATCHDOG_TICK_MS))
                .unwrap_or_else(PoisonError::into_inner);
            board = next;
            if wait.timed_out() {
                tick();
            }
        }
        let lost = board.lost;
        drop(board);
        assert!(!lost, "a stripe thread panicked");
    }
}

/// Reports a stripe's phase as finished when dropped — also when the
/// phase unwinds, so the driver never waits for a dead stripe.
struct Report<'c>(&'c Crew);

impl Drop for Report<'_> {
    fn drop(&mut self) {
        let mut board = lock(&self.0.board);
        board.running -= 1;
        board.lost |= std::thread::panicking();
        self.0.finished.notify_one();
    }
}

/// Dismisses the crew when dropped: every stripe thread returns.
struct Dismiss<'c>(&'c Crew);

impl Drop for Dismiss<'_> {
    fn drop(&mut self) {
        let mut board = lock(&self.0.board);
        board.phase = None;
        board.round += 1;
        self.0.posted.notify_all();
    }
}

/// Locks `mutex`, recovering the data from a poisoned lock: a panic
/// while a stripe or the crew board is locked is propagated by the
/// driver anyway, and every board update is a single field write.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks a chunk slot. Its writer only ever panics inside the
/// supervised batch, which catches the panic before the guard drops, so
/// a poisoned slot holds a batch that was rewritten whole.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use crate::campaign::FixedVsRandom;
    use crate::config::EvaluationConfig;
    use mmaes_netlist::{Netlist, NetlistBuilder, SecretId, SignalRole};
    use mmaes_sim::EvaluatorMode;
    use mmaes_telemetry::{Event, Observer};

    fn share_role(share: u8) -> SignalRole {
        SignalRole::Share {
            secret: SecretId(0),
            share,
            bit: 0,
        }
    }

    /// An unmasked design: the secret bit goes straight to a register.
    /// Fixed-vs-random must flag it instantly.
    fn blatantly_leaky() -> Netlist {
        let mut builder = NetlistBuilder::new("leaky");
        let share0 = builder.input("s0", share_role(0));
        let share1 = builder.input("s1", share_role(1));
        let secret = builder.xor2(share0, share1); // recombines the secret!
        let q = builder.register(secret);
        let out = builder.buf(q);
        builder.output("out", out);
        builder.build().expect("valid")
    }

    /// Four secret bits, each recombined into a leaking register next
    /// to a clean register of one share: twelve probing sets, so three
    /// stripes each own leaking and clean ones.
    fn leaky_bits() -> Netlist {
        let mut builder = NetlistBuilder::new("leaky-bits");
        for bit in 0..4u8 {
            let role = |share| SignalRole::Share {
                secret: SecretId(0),
                share,
                bit,
            };
            let share0 = builder.input(format!("s0_{bit}"), role(0));
            let share1 = builder.input(format!("s1_{bit}"), role(1));
            let clean = builder.register(share0);
            let clean = builder.buf(clean);
            builder.output(format!("clean{bit}"), clean);
            let secret = builder.xor2(share0, share1);
            let leaky = builder.register(secret);
            let leaky = builder.buf(leaky);
            builder.output(format!("out{bit}"), leaky);
        }
        builder.build().expect("valid")
    }

    /// A properly masked pass-through: each share is registered
    /// independently; no wire depends on both shares.
    fn properly_masked() -> Netlist {
        let mut builder = NetlistBuilder::new("masked");
        let share0 = builder.input("s0", share_role(0));
        let share1 = builder.input("s1", share_role(1));
        let q0 = builder.register(share0);
        let q1 = builder.register(share1);
        builder.output("q0", q0);
        builder.output("q1", q1);
        builder.build().expect("valid")
    }

    fn config(traces: u64) -> EvaluationConfig {
        EvaluationConfig {
            traces,
            warmup_cycles: 3,
            ..EvaluationConfig::default()
        }
    }

    #[test]
    fn retained_tables_are_identical_across_thread_counts() {
        let netlist = blatantly_leaky();
        let run = |threads: usize| {
            let (_, tables) = FixedVsRandom::new(
                &netlist,
                EvaluationConfig {
                    threads,
                    ..config(20_000)
                },
            )
            .try_run_with_tables()
            .expect("valid campaign");
            tables
        };
        let single = run(1);
        let sharded = run(2);
        assert_eq!(single.len(), sharded.len());
        for (a, b) in single.iter().zip(&sharded) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.columns, b.columns);
            assert_eq!(a.overflow, b.overflow);
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn checkpoints_record_trajectories_and_emit_events() {
        use mmaes_telemetry::MemorySink;
        let netlist = blatantly_leaky();
        let sink = MemorySink::new();
        let collected = sink.events();
        let report = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                traces: 20_000,
                warmup_cycles: 3,
                checkpoints: 4,
                ..EvaluationConfig::default()
            },
        )
        .with_observer(Observer::single(sink))
        .try_run()
        .expect("campaign");

        let worst = report.worst().expect("results");
        assert!(worst.trajectory.len() >= 2, "{:?}", worst.trajectory);
        for pair in worst.trajectory.windows(2) {
            assert!(pair[0].0 < pair[1].0, "trace counts must increase");
        }
        assert!(worst.trajectory.last().expect("points").0 <= report.traces);

        let events = collected.lock().unwrap();
        assert!(matches!(
            events.first(),
            Some(Event::CampaignStarted { .. })
        ));
        assert!(events
            .iter()
            .any(|event| matches!(event, Event::CampaignCheckpoint(_))));
        assert!(events
            .iter()
            .any(|event| matches!(event, Event::ProbeFlagged { .. })));
        assert!(events
            .iter()
            .any(|event| matches!(event, Event::SimProgress { .. })));
        assert!(matches!(
            events.last(),
            Some(Event::CampaignFinished { passed: false, .. })
        ));
    }

    #[test]
    fn checkpoint_events_come_in_table_order_at_every_thread_count() {
        use mmaes_telemetry::{Checkpoint, MemorySink};
        let netlist = leaky_bits();
        // The flagged labels, checkpoint probe lists and health verdicts
        // the driver emits, with the wall-clock fields zeroed.
        let ordered_events = |threads: usize| {
            let sink = MemorySink::new();
            let collected = sink.events();
            FixedVsRandom::new(
                &netlist,
                EvaluationConfig {
                    threads,
                    checkpoints: 4,
                    ..config(20_000)
                },
            )
            .with_observer(Observer::single(sink))
            .try_run()
            .expect("campaign");
            let events = collected.lock().unwrap();
            events
                .iter()
                .filter_map(|event| match event {
                    Event::ProbeFlagged { .. } | Event::Health(_) => Some(event.clone()),
                    Event::CampaignCheckpoint(checkpoint) => {
                        Some(Event::CampaignCheckpoint(Checkpoint {
                            elapsed_ms: 0,
                            traces_per_sec: 0.0,
                            ..checkpoint.clone()
                        }))
                    }
                    _ => None,
                })
                .collect::<Vec<Event>>()
        };
        let single = ordered_events(1);
        let count = |name: &str| single.iter().filter(|event| event.kind() == name).count();
        assert_eq!(count("probe_flagged"), 8, "{single:?}");
        assert_eq!(count("checkpoint"), 4, "{single:?}");
        assert_eq!(count("health"), 4, "{single:?}");
        for threads in [2, 3] {
            assert_eq!(ordered_events(threads), single, "threads={threads}");
        }
    }

    #[test]
    fn early_stop_cuts_the_trace_budget_on_decisive_leak() {
        let netlist = blatantly_leaky();
        let report = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                traces: 64_000,
                warmup_cycles: 3,
                checkpoints: 16,
                early_stop: true,
                ..EvaluationConfig::default()
            },
        )
        .try_run()
        .expect("campaign");
        assert!(!report.passed());
        assert!(report.early_stopped);
        assert!(
            report.traces < 64_000,
            "stopped at {} traces",
            report.traces
        );
    }

    #[test]
    fn default_config_keeps_the_fast_path_trajectory_free() {
        let netlist = properly_masked();
        let report = FixedVsRandom::new(&netlist, config(1_000))
            .try_run()
            .expect("campaign");
        assert!(report
            .results
            .iter()
            .all(|result| result.trajectory.is_empty()));
        assert!(!report.early_stopped);
    }

    #[test]
    fn trajectory_of_a_strong_leak_is_monotone_for_a_deterministic_seed() {
        // The G statistic of a genuine leak accumulates with the sample
        // count, so the running -log10(p) of the worst probe must grow
        // checkpoint over checkpoint (the seed fixes the sampling, so
        // this is exact, not probabilistic).
        let netlist = blatantly_leaky();
        let report = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                traces: 32_000,
                warmup_cycles: 3,
                checkpoints: 8,
                ..EvaluationConfig::default()
            },
        )
        .try_run()
        .expect("campaign");
        let worst = report.worst().expect("results");
        assert!(worst.trajectory.len() >= 4, "{:?}", worst.trajectory);
        for pair in worst.trajectory.windows(2) {
            assert!(pair[0].0 < pair[1].0, "trace counts must increase");
            assert!(
                pair[1].1 >= pair[0].1,
                "-log10(p) regressed: {:?}",
                worst.trajectory
            );
        }
        assert!(worst.trajectory.last().expect("points").1 <= worst.minus_log10_p);
    }

    #[test]
    fn tiny_table_cap_pools_overflow_without_losing_the_leak() {
        // max_table_keys bounds per-probe memory; once the cap is hit,
        // further keys land in the overflow bucket. The bucket is one
        // more contingency column, so a blatant leak survives even an
        // absurdly small cap.
        let netlist = blatantly_leaky();
        let report = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                traces: 20_000,
                warmup_cycles: 3,
                max_table_keys: 1,
                ..EvaluationConfig::default()
            },
        )
        .try_run()
        .expect("campaign");
        assert!(!report.passed(), "{report}");
        for result in &report.results {
            assert!(result.distinct_keys <= 1, "cap violated: {result:?}");
        }
    }

    #[test]
    fn sharded_campaign_is_byte_identical_to_single_threaded() {
        let netlist = blatantly_leaky();
        let base = EvaluationConfig {
            traces: 20_000,
            warmup_cycles: 3,
            checkpoints: 4,
            ..EvaluationConfig::default()
        };
        let single = FixedVsRandom::new(&netlist, base.clone())
            .try_run()
            .expect("campaign");
        let sharded = FixedVsRandom::new(&netlist, EvaluationConfig { threads: 4, ..base })
            .try_run()
            .expect("campaign");
        assert_eq!(single.results, sharded.results);
        assert_eq!(single.traces, sharded.traces);
        assert_eq!(single.cell_evals, sharded.cell_evals);
        assert_eq!(single.to_csv(), sharded.to_csv());
    }

    #[test]
    fn sharded_overflow_tables_match_single_threaded() {
        // The nastiest determinism case: with a tiny table cap, *which*
        // keys claim the last slots depends on insertion order. Each
        // batch's keys are sorted inside `Table::absorb`, and every
        // table absorbs batches in batch order on whichever stripe owns
        // it, which makes that order a function of the batch sequence
        // alone.
        let netlist = blatantly_leaky();
        let base = EvaluationConfig {
            traces: 20_000,
            warmup_cycles: 3,
            max_table_keys: 1,
            ..EvaluationConfig::default()
        };
        let single = FixedVsRandom::new(&netlist, base.clone())
            .try_run()
            .expect("campaign");
        let sharded = FixedVsRandom::new(&netlist, EvaluationConfig { threads: 3, ..base })
            .try_run()
            .expect("campaign");
        assert_eq!(single.results, sharded.results);
    }

    #[test]
    fn sharded_early_stop_matches_single_threaded() {
        // Early stop is decided at a fold-side checkpoint, so the
        // stopping batch — and therefore the reported trace count — is
        // identical no matter how many workers were still simulating.
        let netlist = blatantly_leaky();
        let base = EvaluationConfig {
            traces: 64_000,
            warmup_cycles: 3,
            checkpoints: 16,
            early_stop: true,
            ..EvaluationConfig::default()
        };
        let single = FixedVsRandom::new(&netlist, base.clone())
            .try_run()
            .expect("campaign");
        let sharded = FixedVsRandom::new(&netlist, EvaluationConfig { threads: 4, ..base })
            .try_run()
            .expect("campaign");
        assert!(sharded.early_stopped);
        assert_eq!(single.traces, sharded.traces);
        assert_eq!(single.results, sharded.results);
    }

    #[test]
    fn interpreted_evaluator_reproduces_the_compiled_report() {
        let netlist = blatantly_leaky();
        let base = config(10_000);
        let compiled = FixedVsRandom::new(&netlist, base.clone())
            .try_run()
            .expect("campaign");
        let interpreted = FixedVsRandom::new(
            &netlist,
            EvaluationConfig {
                evaluator: EvaluatorMode::Interpreted,
                ..base
            },
        )
        .try_run()
        .expect("campaign");
        assert_eq!(compiled.results, interpreted.results);
        assert_eq!(compiled.cell_evals, interpreted.cell_evals);
    }

    #[test]
    fn ttest_statistic_produces_a_report_across_thread_counts() {
        use crate::stats::StatisticKind;
        let netlist = blatantly_leaky();
        let base = EvaluationConfig {
            statistic: StatisticKind::TTest,
            traces: 20_000,
            warmup_cycles: 3,
            checkpoints: 4,
            ..EvaluationConfig::default()
        };
        let single = FixedVsRandom::new(&netlist, base.clone())
            .try_run()
            .expect("campaign");
        // The recombined secret shifts the mean Hamming weight of the
        // observed cone between populations — the t-test must see it.
        assert!(!single.passed(), "{single}");
        let sharded = FixedVsRandom::new(&netlist, EvaluationConfig { threads: 4, ..base })
            .try_run()
            .expect("campaign");
        assert_eq!(single.results, sharded.results);
        assert_eq!(single.to_csv(), sharded.to_csv());
        // And a sound design stays clean under the t-test.
        let clean = FixedVsRandom::new(
            &properly_masked(),
            EvaluationConfig {
                statistic: StatisticKind::TTest,
                ..config(20_000)
            },
        )
        .try_run()
        .expect("campaign");
        assert!(clean.passed(), "{clean}");
    }
}
