//! The staged campaign engine: one scheduler behind every run path.
//!
//! A campaign is a pipeline of stages —
//!
//! ```text
//! batch source → simulate → pack lanes → fold → checkpoint/health/snapshot
//! ```
//!
//! — with one fold path. [`Engine::run_batch`] simulates a batch and
//! packs each probing set's 64 lane observations into a reused
//! [`Observations`] buffer; [`Engine::fold_batch`] absorbs them into the
//! live tables with [`Table::absorb`], strictly in batch order, and
//! hands the frontier advance to [`Engine::after_batch`] — the single
//! checkpoint / health / snapshot / early-stop / interrupt decision
//! point. Two drivers feed that fold: inline on the calling thread,
//! or a supervised worker pool whose reorder buffer restores batch
//! order. Because the fold sees the same batches in the same order
//! either way, reports, trajectories and snapshots are byte-identical
//! across thread counts, evaluators and tabulators — including which
//! keys win the last slots of a capped hashed table.
//!
//! Supervision (panic boundaries, bounded retries, rebuilt simulators,
//! heartbeat watchdogs, degraded-sink snapshots) is integrated here
//! once; `campaign.rs` is left with configuration, the builder API and
//! report assembly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
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
use crate::probe::{ProbeModel, ProbeSet};
use crate::snapshot::{self, SnapshotError, TableView};
use crate::stats::pooling_summary;
use crate::supervisor;
use crate::tabulate::{Lanes, Table, TabulatorMode};

/// Probing sets carried per checkpoint event: the top sets by running
/// `-log10(p)` plus every set over the threshold.
pub(crate) const CHECKPOINT_TOP_PROBES: usize = 8;

/// Refill granularity of [`BufferedRng`], in `u64` words.
const RNG_BLOCK: usize = 256;

/// Watchdog granularity of the pool coordinator: how often it wakes
/// from `recv` to scan heartbeats and check for a fatal worker verdict.
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

/// Where one probing set's packed lanes live in [`Observations`].
#[derive(Clone, Copy)]
enum Slot {
    /// Position in [`Observations::indices`].
    Index(usize),
    /// Position in [`Observations::keys`].
    Key(usize),
}

/// One batch's packed lane observations, one slot per probing set:
/// `u32` indices for sets observing at most
/// [`MAX_DENSE_WIDTH`](crate::tabulate::MAX_DENSE_WIDTH) bits, `u128`
/// keys for wider ones. Allocated once per driver (or per in-flight
/// batch in the pool) and rewritten whole by every batch attempt.
pub(crate) struct Observations {
    slots: Vec<Slot>,
    indices: Vec<[u32; LANES]>,
    keys: Vec<[u128; LANES]>,
}

impl Observations {
    fn new(probe_sets: &[ProbeSet], model: ProbeModel) -> Self {
        let mut indices = 0;
        let mut keys = 0;
        let slots: Vec<Slot> = probe_sets
            .iter()
            .map(|set| {
                if set.observation_bits(model) <= crate::tabulate::MAX_DENSE_WIDTH {
                    indices += 1;
                    Slot::Index(indices - 1)
                } else {
                    keys += 1;
                    Slot::Key(keys - 1)
                }
            })
            .collect();
        Observations {
            slots,
            indices: vec![[0; LANES]; indices],
            keys: vec![[0; LANES]; keys],
        }
    }

    /// Probing set `set`'s lanes, as [`Table::absorb`] takes them.
    fn lanes(&self, set: usize) -> Lanes<'_> {
        match self.slots[set] {
            Slot::Index(slot) => Lanes::Indices(&self.indices[slot]),
            Slot::Key(slot) => Lanes::Keys(&self.keys[slot]),
        }
    }
}

/// One completed batch: its packed observations, the lane → population
/// mask, and the simulator work it cost.
pub(crate) struct BatchOutcome {
    batch: u64,
    lane_groups: u64,
    stats: SimStats,
    observations: Observations,
}

/// The coordinator-side campaign state. Only the fold stage mutates it,
/// and only at batch-frontier advances — which is the whole determinism
/// argument: any producer (the inline driver or the worker pool) that
/// advances the frontier through the same states yields the same bytes.
/// A side effect worth naming: `batches_done` is always a contiguous
/// frontier, so every snapshot records exactly the batches
/// `0..batches_done` — resumable on any thread count.
pub(crate) struct CampaignState {
    pub(crate) tables: Vec<Table>,
    pub(crate) trajectories: Vec<Vec<(u64, f64)>>,
    pub(crate) flagged: Vec<bool>,
    pub(crate) batches_done: u64,
    /// Work from *folded* batches only. Batches a stopping worker pool
    /// simulated but never folded are excluded, keeping `cell_evals`
    /// independent of the thread count.
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

/// Read-only context the fold stage needs besides the state.
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

/// Runs one batch under supervision, retrying in place — the one retry
/// helper both drivers use. A faulted attempt (contained panic —
/// injected or real) rebuilds the simulator and retries after bounded
/// backoff, up to [`supervisor::MAX_ATTEMPTS`] total attempts. Every
/// attempt rewrites `observations` whole, and the outcome is a pure
/// function of `(seed, batch)`, so a successful retry is
/// indistinguishable from a fault-free first attempt and a torn
/// attempt can never half-count a batch.
fn run_batch_supervised<'a>(
    engine: &Engine<'a>,
    sim: &mut Simulator<'a>,
    batch: u64,
    perf: &PerfRecorder,
    mut observations: Observations,
) -> Result<BatchOutcome, CampaignError> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match supervisor::supervised(batch, &engine.config.faults, || {
            engine.run_batch(sim, batch, perf, &mut observations)
        }) {
            Ok((lane_groups, stats)) => {
                return Ok(BatchOutcome {
                    batch,
                    lane_groups,
                    stats,
                    observations,
                })
            }
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
                *sim = Simulator::with_evaluator(engine.netlist, engine.config.evaluator);
                std::thread::sleep(Duration::from_millis(supervisor::backoff_ms(attempts)));
            }
        }
    }
}

/// The staged scheduler: everything needed to simulate, tabulate and
/// fold batches, shared read-only across worker threads. Splitting this
/// out of the builder is what lets `std::thread::scope` workers borrow
/// the input-driving tables while the coordinator keeps `&mut` access
/// to the campaign state.
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

impl Engine<'_> {
    /// Runs the sampling pipeline from `state.batches_done` to
    /// `context.batches` (or an early stop / interrupt / fatal fault):
    /// inline on the calling thread when `threads == 1`, on a
    /// supervised worker pool otherwise. Both drivers run
    /// [`Engine::run_batch`] under the same retry helper and fold
    /// through [`Engine::fold_batch`] in batch order, so their outputs
    /// are byte-identical.
    pub(crate) fn run(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
    ) -> Result<(), CampaignError> {
        if state.batches_done >= context.batches {
            return Ok(());
        }
        match self.config.threads.max(1) {
            1 => self.run_inline(context, state),
            threads => self.run_pool(context, state, threads),
        }
    }

    /// Simulates one batch on `sim` and packs every probing set's lane
    /// observations into `observations`, returning the batch's lane →
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
        observations: &mut Observations,
    ) -> (u64, SimStats) {
        let config = self.config;
        // Each batch derives its own RNG from (seed, batch), so the
        // trace stream is position-addressable: resume is exact and
        // sharding across threads cannot perturb it. Block-buffering
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
        let Observations {
            slots,
            indices,
            keys,
        } = observations;
        for (set, slot) in self.probe_sets.iter().zip(slots.iter()) {
            match *slot {
                Slot::Index(slot) => {
                    observation_indices(sim, set, config.model, &mut indices[slot])
                }
                Slot::Key(slot) => observation_keys(sim, set, config.model, &mut keys[slot]),
            }
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

    /// Folds one completed batch into the campaign state: its lanes
    /// into the contingency tables, then [`Engine::after_batch`].
    /// Batches MUST be folded in strictly increasing batch order — that
    /// invariant (not any property of the producers) is what makes
    /// multi-threaded campaigns byte-identical to single-threaded ones,
    /// overflowing hashed tables included. Returns `true` when the
    /// campaign should stop before `context.batches` (early stop or
    /// interrupt).
    fn fold_batch(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
        outcome: &BatchOutcome,
    ) -> bool {
        debug_assert_eq!(outcome.batch, state.batches_done, "fold order violated");
        {
            let _span = context.perf.span("merge");
            for (set, table) in state.tables.iter_mut().enumerate() {
                table.absorb(
                    outcome.observations.lanes(set),
                    outcome.lane_groups,
                    self.config.max_table_keys,
                );
            }
        }
        state.folded.cycles += outcome.stats.cycles;
        state.folded.cell_evals += outcome.stats.cell_evals;
        state.batches_done += 1;
        self.after_batch(context, state)
    }

    /// Everything a batch-frontier advance triggers besides absorption:
    /// the interim checkpoint (running statistic sweep, events,
    /// snapshot, early-stop decision) and the cooperative-interrupt
    /// check, purely as a function of `state.batches_done`. Infallible:
    /// a checkpoint snapshot that exhausts its retry budget degrades
    /// (recorded in the registry, later interim saves skipped) rather
    /// than aborting a healthy campaign. Returns `true` when the
    /// campaign should stop before `context.batches`.
    fn after_batch(&self, context: &FoldContext<'_>, state: &mut CampaignState) -> bool {
        let config = self.config;
        let perf = context.perf;

        // Interim checkpoint: running statistic per probing set,
        // events, and the early-stop decision. Skipped on the last
        // batch (the final statistics cover it).
        if context.checkpoint_every > 0
            && state.batches_done.is_multiple_of(context.checkpoint_every)
            && state.batches_done < context.batches
        {
            let _span = perf.span("g_test");
            let statistic = config.statistic.as_statistic();
            let traces_so_far = state.batches_done * LANES as u64;
            let health_enabled = self.observer.enabled();
            let mut probe_healths: Vec<ProbeHealth> = Vec::with_capacity(if health_enabled {
                state.tables.len()
            } else {
                0
            });
            let mut running: Vec<(usize, f64)> = Vec::with_capacity(context.probe_sets.len());
            for (index, table) in state.tables.iter_mut().enumerate() {
                let overflow = table.overflow();
                let minus_log10_p = statistic
                    .evaluate(table.sorted_columns(), overflow)
                    .map(|test| test.minus_log10_p)
                    .unwrap_or(0.0);
                state.trajectories[index].push((traces_so_far, minus_log10_p));
                running.push((index, minus_log10_p));
                if health_enabled {
                    probe_healths.push(health::probe_health(
                        &context.probe_sets[index].label,
                        &pooling_summary(&table.g_columns()),
                        minus_log10_p,
                        &state.trajectories[index],
                        traces_so_far,
                        config.threshold,
                    ));
                }
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
                    if let Err(error) = self.save_snapshot(context, state, path) {
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
        // SIGINT/SIGTERM handler) or a deterministic batch cap. The
        // folded prefix is contiguous, so the state is consistent; the
        // final snapshot persists it.
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

    /// Renders the campaign state straight from the live tables — each
    /// table's memoized sorted columns (shared with the checkpoint's
    /// statistic sweep), flag and trajectory — and writes it atomically
    /// within the fault handle's retry budget. The `snapshot` span
    /// nests in whatever span the caller holds: `g_test` for the
    /// interim save, none for the final one.
    pub(crate) fn save_snapshot(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
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
        let tables: Vec<TableView<'_>> = state
            .tables
            .iter_mut()
            .zip(&state.flagged)
            .zip(&state.trajectories)
            .map(|((table, &flagged), trajectory)| TableView {
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

    /// The inline driver: one simulator and one observation buffer on
    /// the calling thread, each batch folded as soon as it completes.
    fn run_inline(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
    ) -> Result<(), CampaignError> {
        let mut sim = Simulator::with_evaluator(self.netlist, self.config.evaluator);
        let mut observations = Observations::new(self.probe_sets, self.config.model);
        for batch in state.batches_done..context.batches {
            let outcome = run_batch_supervised(self, &mut sim, batch, context.perf, observations)?;
            let stop = self.fold_batch(context, state, &outcome);
            observations = outcome.observations;
            if stop {
                break;
            }
        }
        Ok(())
    }

    /// The pool driver: workers claim batch indices from a shared
    /// atomic counter, each with a private [`Simulator`], and run them
    /// under [`run_batch_supervised`]; the coordinator (this thread)
    /// reorders completed batches through a `BTreeMap` buffer and folds
    /// them in strict batch order, so the result is byte-identical to
    /// the inline driver. Folded observation buffers go back to the
    /// workers for reuse.
    ///
    /// Fault containment (see [`crate::supervisor`]): a panicked
    /// attempt delivers no outcome and is retried in place, so the fold
    /// sees each batch exactly once and reports stay byte-identical
    /// under injected faults. A batch that exhausts
    /// [`supervisor::MAX_ATTEMPTS`] is fatal: the pool stops and the
    /// campaign returns [`CampaignError::Worker`] with the state at the
    /// last folded batch — a contiguous prefix, so the emergency
    /// snapshot stays valid. The coordinator doubles as a heartbeat
    /// watchdog, marking workers whose in-flight batch is overdue as
    /// degraded on the campaign's fault handle (advisory only —
    /// wall-clock diagnostics never reach the report).
    ///
    /// Each worker records perf into its own recorder, merged into the
    /// campaign recorder at join (per-phase totals then sum CPU time
    /// across workers, which can exceed wall time).
    fn run_pool(
        &self,
        context: &FoldContext<'_>,
        state: &mut CampaignState,
        threads: usize,
    ) -> Result<(), CampaignError> {
        let next_batch = AtomicU64::new(state.batches_done);
        let stop = AtomicBool::new(false);
        let heartbeats = supervisor::Heartbeats::new(threads);
        let faults = &self.config.faults;
        let stall_timeout_ms = faults.stall_timeout_ms();
        // First fatal worker verdict wins; later ones are dropped.
        let fatal: Mutex<Option<CampaignError>> = Mutex::new(None);
        let spare: Mutex<Vec<Observations>> = Mutex::new(Vec::new());
        // Bounded channel: backpressure keeps the reorder buffer (and
        // the observation buffers in flight) proportional to the thread
        // count even when one batch folds slowly (e.g. a checkpoint
        // snapshot).
        let (sender, receiver) = mpsc::sync_channel::<BatchOutcome>(threads * 2);
        let perf_enabled = context.perf.is_enabled();
        let mut result = Ok(());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let sender = sender.clone();
                    let next_batch = &next_batch;
                    let stop = &stop;
                    let heartbeats = &heartbeats;
                    let fatal = &fatal;
                    let spare = &spare;
                    scope.spawn(move || {
                        let worker_perf = if perf_enabled {
                            PerfRecorder::enabled()
                        } else {
                            PerfRecorder::disabled()
                        };
                        let mut sim =
                            Simulator::with_evaluator(self.netlist, self.config.evaluator);
                        while !stop.load(Ordering::Acquire) {
                            let batch = next_batch.fetch_add(1, Ordering::Relaxed);
                            if batch >= context.batches {
                                break;
                            }
                            let observations = lock(spare).pop().unwrap_or_else(|| {
                                Observations::new(self.probe_sets, self.config.model)
                            });
                            heartbeats.start(worker, batch);
                            let attempt = run_batch_supervised(
                                self,
                                &mut sim,
                                batch,
                                &worker_perf,
                                observations,
                            );
                            heartbeats.idle(worker);
                            match attempt {
                                // A closed channel means the coordinator
                                // stopped (early stop, interrupt or error).
                                Ok(outcome) => {
                                    if sender.send(outcome).is_err() {
                                        break;
                                    }
                                }
                                Err(error) => {
                                    lock(fatal).get_or_insert(error);
                                    stop.store(true, Ordering::Release);
                                    break;
                                }
                            }
                        }
                        worker_perf
                    })
                })
                .collect();
            drop(sender);
            // Reorder buffer: outcomes arrive in completion order and
            // are folded in batch order. A disconnect means every
            // worker exited — with all batches claimed and sent, that
            // only happens once the frontier has caught up (or the
            // pool stopped on a fatal fault, picked up below).
            let mut pending: BTreeMap<u64, BatchOutcome> = BTreeMap::new();
            let mut flagged_stall = vec![false; threads];
            'fold: while state.batches_done < context.batches {
                let outcome = match receiver.recv_timeout(Duration::from_millis(WATCHDOG_TICK_MS)) {
                    Ok(outcome) => outcome,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        // Watchdog tick: advisory stall flags (once
                        // per worker) and the fatal-verdict check.
                        for (worker, fault) in heartbeats.stalled(stall_timeout_ms) {
                            if !flagged_stall[worker] {
                                flagged_stall[worker] = true;
                                faults.mark("worker", &format!("worker {worker}: {fault}"));
                            }
                        }
                        if lock(&fatal).is_some() {
                            break;
                        }
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                };
                pending.insert(outcome.batch, outcome);
                while let Some(outcome) = pending.remove(&state.batches_done) {
                    let stop = self.fold_batch(context, state, &outcome);
                    lock(&spare).push(outcome.observations);
                    if stop {
                        break 'fold;
                    }
                }
            }
            // Shut down: flag first, then close the channel so workers
            // blocked in `send` observe the disconnect and exit.
            stop.store(true, Ordering::Release);
            drop(receiver);
            for handle in handles {
                match handle.join() {
                    Ok(worker_perf) => context.perf.absorb(&worker_perf),
                    // Unreachable: every batch attempt runs inside the
                    // supervisor's panic boundary.
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
            if let Some(error) = lock(&fatal).take() {
                result = Err(error);
            }
        });
        result
    }
}

/// Locks `mutex`, recovering the data from a poisoned lock: every
/// critical section here is a single push, pop or insert, which cannot
/// leave the data half-updated.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Packs each lane's extended observation of `set` into `keys`.
///
/// Up to 128 observed bits are packed exactly; beyond that, bits are
/// folded with a deterministic 128-bit mix (collisions can only merge
/// contingency columns — they can weaken detection, never fabricate it).
fn observation_keys(sim: &Simulator, set: &ProbeSet, model: ProbeModel, keys: &mut [u128; LANES]) {
    let bits = set.observation_bits(model);
    keys.fill(0);
    let mut position = 0usize;
    let push_word = |keys: &mut [u128; LANES], word: u64, position: usize| {
        if position < 128 {
            for (lane, key) in keys.iter_mut().enumerate() {
                *key |= (((word >> lane) & 1) as u128) << position;
            }
        } else {
            const PRIME: u128 = 0x0000_0100_0000_01b3_0000_0100_0000_01b3;
            for (lane, key) in keys.iter_mut().enumerate() {
                *key = key.wrapping_mul(PRIME) ^ (((word >> lane) & 1) as u128 + 2);
            }
        }
    };
    for &wire in &set.observed {
        push_word(keys, sim.value(wire), position);
        position += 1;
        if matches!(model, ProbeModel::GlitchTransition) {
            push_word(keys, sim.prev_value(wire), position);
            position += 1;
        }
    }
    debug_assert_eq!(position, bits);
}

/// [`observation_keys`] specialized to sets of at most
/// [`MAX_DENSE_WIDTH`](crate::tabulate::MAX_DENSE_WIDTH) observed bits:
/// packs each lane's observation into a `u32` index using the *same*
/// bit layout (observed bit `i` at index bit `i`), so the index is
/// bit-for-bit the zero-extended `u128` key — which is why a dense
/// table's linear scan serializes in the exact sorted-key order the
/// hashed store emits. No set this narrow reaches the overflow-mix arm.
fn observation_indices(
    sim: &Simulator,
    set: &ProbeSet,
    model: ProbeModel,
    indices: &mut [u32; LANES],
) {
    let bits = set.observation_bits(model);
    debug_assert!(bits <= crate::tabulate::MAX_DENSE_WIDTH);
    indices.fill(0);
    let mut position = 0u32;
    let mut push_word = |indices: &mut [u32; LANES], word: u64| {
        for (lane, index) in indices.iter_mut().enumerate() {
            *index |= (((word >> lane) & 1) as u32) << position;
        }
        position += 1;
    };
    for &wire in &set.observed {
        push_word(indices, sim.value(wire));
        if matches!(model, ProbeModel::GlitchTransition) {
            push_word(indices, sim.prev_value(wire));
        }
    }
    debug_assert_eq!(position as usize, bits);
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
        // keys claim the last slots depends on insertion order. One
        // ordered fold of lane observations — each batch's keys sorted
        // inside `Table::absorb`, batches folded in batch order by
        // either driver — makes that order a function of the batch
        // sequence alone.
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
