//! Contingency-table tabulation engines (DESIGN.md §5a).
//!
//! A fixed-vs-random campaign spends most of its time turning
//! observations into contingency-table counts. This module provides two
//! interchangeable table stores behind one [`Table`] type:
//!
//! * **Dense** — a flat `Vec<[u64; 2]>` directly indexed by the packed
//!   observation key. Selected per probing set when the set's exact
//!   key-space width fits (`2^width ≤ max_table_keys`, width ≤
//!   [`MAX_DENSE_WIDTH`]): absorption is then a bounds-checked array
//!   increment per lane — no hashing, no sorting, no allocation — and
//!   the table can never overflow its cap.
//! * **Hashed** — a `HashMap<u128, [u64; 2]>` with an overflow bucket
//!   past the key cap, hashed by a deterministic multiply–xor key
//!   hasher. The fallback for sets wider than the dense rule
//!   admits, and the differential-testing reference
//!   (`--tabulator hashed`).
//!
//! Both stores take one batch at a time through [`Table::absorb`]: one
//! [`Lanes`] buffer of 64 packed lane observations, plus the lane →
//! population mask. [`Lanes::pack`] is the one key packer, used by the
//! campaign engine and the exact verifier (`mmaes-exact`) alike. Each
//! table absorbs batches in batch order on the one thread that owns it,
//! so the hashed store's cap/overflow rule (first `cap` distinct keys
//! win, ties within a batch broken by key order) sees the same sequence
//! on every thread count.
//!
//! Byte-identity across the two stores is structural, not statistical:
//! a dense-eligible set has at most `2^width ≤ max_table_keys` distinct
//! keys, so the hashed store never overflows on it either, and because
//! keys are packed with bit `i` of the observation at key bit `i`, the
//! dense index order *is* the sorted-u128-key order the hashed store
//! serializes in. Same cells, same order, same bytes.
//!
//! [`Table::sorted_columns`] memoizes the sorted snapshot (invalidated
//! by any absorption), so a checkpoint's G-test sweep, its snapshot
//! serialization and the final report all share one sort (hashed) or
//! one linear scan (dense) instead of re-collecting per consumer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use mmaes_sim::{Simulator, LANES};

use crate::probe::{ProbeModel, ProbeSet};

/// Widest packed observation a dense table will direct-index: the
/// packed key must fit a `u32` (the per-lane index type). The memory
/// gate is [`EvaluationConfig::max_table_keys`](crate::EvaluationConfig::max_table_keys),
/// which bounds `2^width` cells of 16 bytes each.
pub const MAX_DENSE_WIDTH: usize = 32;

/// Fixed per-table bookkeeping bytes (struct header, overflow, cache
/// slot) counted by [`Table::resident_bytes`].
const TABLE_OVERHEAD_BYTES: u64 = 48;

/// Bytes per dense cell: one `[u64; 2]`.
const DENSE_CELL_BYTES: u64 = 16;

/// Estimated resident bytes per hashed entry: 24 bytes of payload
/// (`u128` key + `[u64; 2]` cell) plus hash-table bucket overhead.
const HASHED_ENTRY_BYTES: u64 = 48;

/// Which contingency-table store a campaign uses
/// (`--tabulator dense|hashed`, mirroring `--evaluator`).
///
/// Both produce byte-identical reports, CSVs, trajectories and
/// snapshots; `Hashed` exists as the differential-testing reference and
/// is also what `Dense` silently falls back to per probing set when the
/// set's key space exceeds the dense selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TabulatorMode {
    /// Direct-indexed flat tables for every set that fits the selection
    /// rule, hashed fallback for the rest. The default.
    #[default]
    Dense,
    /// The HashMap-based reference tabulator for every set.
    Hashed,
}

impl TabulatorMode {
    /// Canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            TabulatorMode::Dense => "dense",
            TabulatorMode::Hashed => "hashed",
        }
    }

    /// Parses the [`TabulatorMode::name`] spelling.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "dense" => Some(TabulatorMode::Dense),
            "hashed" => Some(TabulatorMode::Hashed),
            _ => None,
        }
    }
}

/// One probing set's packed observations of one batch, one per lane,
/// as [`Table::absorb`] takes them: the one place the key layout lives.
///
/// Observed bit `i` sits at bit `i` of the packed value (under
/// [`ProbeModel::GlitchTransition`] each wire's previous-cycle bit
/// follows its current bit), in both forms, so an index is bit for bit
/// its zero-extended key.
#[derive(Debug, Clone)]
pub enum Lanes {
    /// `u32` indices: sets observing at most [`MAX_DENSE_WIDTH`] bits.
    Indices(Box<[u32; LANES]>),
    /// `u128` keys: wider sets.
    Keys(Box<[u128; LANES]>),
}

impl Lanes {
    /// The buffer for `set` under `model`: indices when its observation
    /// fits [`MAX_DENSE_WIDTH`] bits, keys otherwise.
    pub fn for_set(set: &ProbeSet, model: ProbeModel) -> Self {
        if set.observation_bits(model) <= MAX_DENSE_WIDTH {
            Lanes::Indices(Box::new([0; LANES]))
        } else {
            Lanes::Keys(Box::new([0; LANES]))
        }
    }

    /// Packs each lane's extended observation of `set` from `sim`'s
    /// current (and, under transitions, previous-cycle) values,
    /// overwriting the whole buffer.
    ///
    /// Up to 128 observed bits are packed exactly; beyond that, bits
    /// are folded with a deterministic 128-bit mix (collisions can only
    /// merge contingency columns — they can weaken detection, never
    /// fabricate it, which is why the exact verifier refuses such sets).
    pub fn pack(&mut self, sim: &Simulator, set: &ProbeSet, model: ProbeModel) {
        match self {
            Lanes::Indices(indices) => pack_indices(sim, set, model, indices),
            Lanes::Keys(keys) => pack_keys(sim, set, model, keys),
        }
    }

    /// Lane `lane`'s observation as a `u128` key.
    fn key(&self, lane: usize) -> u128 {
        match self {
            Lanes::Indices(indices) => u128::from(indices[lane]),
            Lanes::Keys(keys) => keys[lane],
        }
    }
}

/// The [`Lanes::Keys`] packer.
fn pack_keys(sim: &Simulator, set: &ProbeSet, model: ProbeModel, keys: &mut [u128; LANES]) {
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

/// The [`Lanes::Indices`] packer: [`pack_keys`] specialized to sets of
/// at most [`MAX_DENSE_WIDTH`] observed bits, with the same layout —
/// which is why a dense table's linear scan serializes in the exact
/// sorted-key order the hashed store emits. No set this narrow reaches
/// the overflow-mix arm.
fn pack_indices(sim: &Simulator, set: &ProbeSet, model: ProbeModel, indices: &mut [u32; LANES]) {
    let bits = set.observation_bits(model);
    debug_assert!(bits <= MAX_DENSE_WIDTH);
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

/// The hashed store's key hasher: a multiply–xor mix of the key's two
/// 64-bit halves. Observation keys are not attacker-chosen, so the
/// keyed SipHash of `std`'s default hasher buys nothing here and costs
/// most of an absorb. The hash never reaches the output: the store is
/// only ever serialized through [`Table::sorted_columns`].
#[derive(Debug, Clone, Copy, Default)]
struct KeyHasher(u64);

/// An odd 64-bit constant (2^64 / φ) with well-spread bits.
const KEY_MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(KEY_MULTIPLIER);
    }

    fn write_u128(&mut self, key: u128) {
        self.write_u64(key as u64);
        self.write_u64((key >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        // A multiply only carries entropy upward. Fold the high half
        // down before and after the last one, so that both the bucket
        // index (low bits) and the control tag (top bits) see every key
        // bit — keys such as `i << 100` differ only in high bits.
        let folded = (self.0 ^ (self.0 >> 32)).wrapping_mul(KEY_MULTIPLIER);
        folded ^ (folded >> 29)
    }
}

/// The hashed arm of [`Table::absorb`]. Kept out of line: inlined
/// there with the key hasher, it slowed the exact checker on G7 from
/// 4.6 s to 4.9 s (median of ten runs).
#[inline(never)]
fn absorb_hashed(
    counts: &mut KeyMap,
    overflow: &mut [u64; 2],
    lanes: &Lanes,
    lane_groups: u64,
    cap: usize,
) {
    let group = |lane: usize| ((lane_groups >> lane) & 1) as usize;
    let mut sorted: [(u128, usize); LANES] =
        std::array::from_fn(|lane| (lanes.key(lane), group(lane)));
    sorted.sort_unstable_by_key(|&(key, _)| key);
    for run in sorted.chunk_by(|a, b| a.0 == b.0) {
        let mut cell = [0u64; 2];
        for &(_, group) in run {
            cell[group] += 1;
        }
        let key = run[0].0;
        if let Some(existing) = counts.get_mut(&key) {
            existing[0] += cell[0];
            existing[1] += cell[1];
        } else if counts.len() < cap {
            counts.insert(key, cell);
        } else {
            overflow[0] += cell[0];
            overflow[1] += cell[1];
        }
    }
}

/// The hashed store's map.
type KeyMap = HashMap<u128, [u64; 2], BuildHasherDefault<KeyHasher>>;

/// The two table stores. Dense cells are indexed by the packed
/// observation key; a cell of `[0, 0]` means the key was never seen
/// (counts only ever increment, so zero cells are exactly the unseen
/// keys).
#[derive(Debug, Clone)]
enum Store {
    Hashed(KeyMap),
    Dense(Vec<[u64; 2]>),
}

/// A contingency table over observation keys for one probing set:
/// `[fixed, random]` counts per key, an overflow bucket past the key
/// cap (hashed store only — dense tables cannot overflow), and a
/// memoized sorted snapshot of the columns.
#[derive(Debug, Clone)]
pub struct Table {
    store: Store,
    overflow: [u64; 2],
    samples: u64,
    /// Sorted `(key, cell)` snapshot, memoized until the next
    /// absorption. Serves the checkpoint G-test sweep, snapshot
    /// serialization and report assembly from one sort/scan.
    sorted: Option<Vec<(u128, [u64; 2])>>,
}

impl Table {
    /// An empty hashed table.
    pub fn hashed() -> Self {
        Table {
            store: Store::Hashed(KeyMap::default()),
            overflow: [0, 0],
            samples: 0,
            sorted: None,
        }
    }

    /// An empty dense table of `2^width` cells.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`MAX_DENSE_WIDTH`] — callers gate on
    /// the selection rule first.
    pub fn dense(width: usize) -> Self {
        assert!(width <= MAX_DENSE_WIDTH, "dense width {width} too wide");
        Table {
            store: Store::Dense(vec![[0, 0]; 1usize << width]),
            overflow: [0, 0],
            samples: 0,
            sorted: None,
        }
    }

    /// Whether this table uses the dense direct-indexed store.
    pub fn is_dense(&self) -> bool {
        matches!(self.store, Store::Dense(_))
    }

    /// Total samples absorbed (both populations, overflow included).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// `[fixed, random]` counts pooled past the key cap.
    pub fn overflow(&self) -> [u64; 2] {
        self.overflow
    }

    /// Absorbs one batch: [`LANES`] packed observations, lane `i` in the
    /// random population when bit `i` of `lane_groups` is set.
    ///
    /// The dense store does one increment per lane and ignores `cap`
    /// (its key space is complete by construction). The hashed store
    /// sorts the batch's keys first and then inserts them key by key: a
    /// key already present is counted, a new key is inserted while the
    /// table holds fewer than `cap` keys, and every other lane goes to
    /// the overflow bucket. Which keys win the last slots is then a
    /// function of the batch's key multiset, never of its lane order,
    /// so folding batches in batch order fixes the overflow exactly.
    ///
    /// # Panics
    ///
    /// Panics if a dense table receives an observation beyond its
    /// width — an internal invariant violation, since observations are
    /// packed from exactly the bits the width was computed from.
    pub fn absorb(&mut self, lanes: &Lanes, lane_groups: u64, cap: usize) {
        self.sorted = None;
        self.samples += LANES as u64;
        let group = |lane: usize| ((lane_groups >> lane) & 1) as usize;
        match &mut self.store {
            Store::Dense(cells) => match lanes {
                Lanes::Indices(indices) => {
                    for (lane, &index) in indices.iter().enumerate() {
                        cells[index as usize][group(lane)] += 1;
                    }
                }
                Lanes::Keys(keys) => {
                    for (lane, &key) in keys.iter().enumerate() {
                        cells[key as usize][group(lane)] += 1;
                    }
                }
            },
            Store::Hashed(counts) => {
                absorb_hashed(counts, &mut self.overflow, lanes, lane_groups, cap)
            }
        }
    }

    /// Restores serialized state (sorted `(key, cell)` pairs, overflow,
    /// samples) into this table — the resume path. A dense table whose
    /// layout cannot hold a key (a foreign or hand-edited snapshot)
    /// falls back to the hashed store rather than failing: resume
    /// correctness never depends on the tabulator choice.
    pub fn restore(&mut self, counts: Vec<(u128, [u64; 2])>, overflow: [u64; 2], samples: u64) {
        self.sorted = None;
        self.overflow = overflow;
        self.samples = samples;
        match &mut self.store {
            Store::Dense(cells) => {
                if counts.iter().all(|&(key, _)| key < cells.len() as u128) {
                    cells.fill([0, 0]);
                    for (key, cell) in counts {
                        cells[key as usize] = cell;
                    }
                } else {
                    self.store = Store::Hashed(counts.into_iter().collect());
                }
            }
            Store::Hashed(map) => *map = counts.into_iter().collect(),
        }
    }

    /// The `(key, cell)` columns in sorted key order, memoized until
    /// the next absorption. The G statistic is a float sum, so a
    /// deterministic column order is what makes checkpoint trajectories
    /// byte-identical across runs and resume legs; for the dense store
    /// the linear scan of non-zero cells *is* sorted-key order, because
    /// the packed index equals the key.
    pub fn sorted_columns(&mut self) -> &[(u128, [u64; 2])] {
        if self.sorted.is_none() {
            let entries = match &self.store {
                Store::Hashed(counts) => {
                    let mut entries: Vec<(u128, [u64; 2])> =
                        counts.iter().map(|(&key, &cell)| (key, cell)).collect();
                    entries.sort_unstable_by_key(|&(key, _)| key);
                    entries
                }
                Store::Dense(cells) => cells
                    .iter()
                    .enumerate()
                    .filter(|&(_, cell)| cell[0] | cell[1] != 0)
                    .map(|(index, &cell)| (index as u128, cell))
                    .collect(),
            };
            self.sorted = Some(entries);
        }
        self.sorted.as_deref().expect("just memoized")
    }

    /// The `(fixed, random)` columns exactly as the G-test consumes
    /// them: key-sorted counts, then the overflow bucket if any.
    pub fn g_columns(&mut self) -> Vec<(u64, u64)> {
        let overflow = self.overflow;
        let mut columns: Vec<(u64, u64)> = self
            .sorted_columns()
            .iter()
            .map(|&(_, cell)| (cell[0], cell[1]))
            .collect();
        if overflow[0] + overflow[1] > 0 {
            columns.push((overflow[0], overflow[1]));
        }
        columns
    }

    /// Distinct observation keys seen (the overflow bucket excluded).
    pub fn distinct_keys(&mut self) -> usize {
        self.sorted_columns().len()
    }

    /// Actual resident bytes of the table store: exact for dense (the
    /// cell array is fully allocated up front), a per-entry estimate
    /// including bucket overhead for hashed. Deterministic across
    /// thread counts and resume legs (it depends on logical content,
    /// never on allocator state).
    pub fn resident_bytes(&self) -> u64 {
        match &self.store {
            Store::Dense(cells) => TABLE_OVERHEAD_BYTES + DENSE_CELL_BYTES * cells.len() as u64,
            Store::Hashed(counts) => {
                TABLE_OVERHEAD_BYTES + HASHED_ENTRY_BYTES * counts.len() as u64
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmaes_netlist::{Netlist, NetlistBuilder, SignalRole, WireId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::hash::BuildHasher;

    /// One batch of packed indices: lane `i` observes `keys[i % len]`.
    fn batch(keys: &[u32]) -> [u32; LANES] {
        std::array::from_fn(|lane| keys[lane % keys.len()])
    }

    /// The same batch as zero-extended `u128` keys.
    fn widened(indices: &[u32; LANES]) -> [u128; LANES] {
        indices.map(u128::from)
    }

    /// The reference fold the hashed store must reproduce: each batch
    /// aggregated into key-sorted `(key, [fixed, random])` runs, runs
    /// inserted in order, a new key admitted only while fewer than
    /// `cap` keys are held, everything else pooled into the overflow.
    #[derive(Default)]
    struct SortedRuns {
        counts: BTreeMap<u128, [u64; 2]>,
        overflow: [u64; 2],
    }

    impl SortedRuns {
        fn absorb(&mut self, keys: &[u128; LANES], lane_groups: u64, cap: usize) {
            let mut runs: BTreeMap<u128, [u64; 2]> = BTreeMap::new();
            for (lane, &key) in keys.iter().enumerate() {
                runs.entry(key).or_default()[((lane_groups >> lane) & 1) as usize] += 1;
            }
            for (key, cell) in runs {
                if let Some(existing) = self.counts.get_mut(&key) {
                    existing[0] += cell[0];
                    existing[1] += cell[1];
                } else if self.counts.len() < cap {
                    self.counts.insert(key, cell);
                } else {
                    self.overflow[0] += cell[0];
                    self.overflow[1] += cell[1];
                }
            }
        }
    }

    /// The exact verifier's former per-lane packer, kept as the
    /// reference layout for [`Lanes::pack`]: exact up to 128 bits.
    fn oracle_keys(sim: &Simulator, set: &ProbeSet, model: ProbeModel) -> [u128; LANES] {
        std::array::from_fn(|lane| {
            let mut key: u128 = 0;
            let mut position = 0u32;
            for &wire in &set.observed {
                key |= (((sim.value(wire) >> lane) & 1) as u128) << position;
                position += 1;
                if matches!(model, ProbeModel::GlitchTransition) {
                    key |= (((sim.prev_value(wire) >> lane) & 1) as u128) << position;
                    position += 1;
                }
            }
            key
        })
    }

    /// Primary inputs of the packer differential netlist.
    const PACK_INPUTS: usize = 70;

    /// [`PACK_INPUTS`] mask inputs, each also registered: the inputs
    /// followed by the register outputs, 140 observable wires.
    fn pack_netlist() -> (Netlist, Vec<WireId>) {
        let mut builder = NetlistBuilder::new("pack");
        let inputs: Vec<WireId> = (0..PACK_INPUTS)
            .map(|index| builder.input(format!("m{index}"), SignalRole::Mask))
            .collect();
        let mut wires = inputs.clone();
        for (index, &input) in inputs.iter().enumerate() {
            let q = builder.register(input);
            builder.output(format!("q{index}"), q);
            wires.push(q);
        }
        (builder.build().expect("valid"), wires)
    }

    #[test]
    fn mode_parses_its_own_names() {
        for mode in [TabulatorMode::Dense, TabulatorMode::Hashed] {
            assert_eq!(TabulatorMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(TabulatorMode::parse("turbo"), None);
        assert_eq!(TabulatorMode::default(), TabulatorMode::Dense);
    }

    #[test]
    fn dense_and_hashed_agree_on_a_fixed_stream() {
        let mut dense = Table::dense(4);
        let mut hashed = Table::hashed();
        let indices = batch(&[3, 3, 15, 0, 3]);
        let lane_groups = 0x0123_4567_89ab_cdefu64;
        dense.absorb(&Lanes::Indices(Box::new(indices)), lane_groups, 16);
        hashed.absorb(&Lanes::Indices(Box::new(indices)), lane_groups, 16);
        assert_eq!(dense.sorted_columns(), hashed.sorted_columns());
        assert_eq!(dense.g_columns(), hashed.g_columns());
        assert_eq!(dense.samples(), hashed.samples());
        assert_eq!(dense.samples(), LANES as u64);
        assert_eq!(dense.distinct_keys(), 3);
        assert_eq!(dense.overflow(), [0, 0]);
    }

    #[test]
    fn indices_and_keys_absorb_identically_into_either_store() {
        let lane_groups = 0xdead_beef_0bad_f00du64;
        let indices: [u32; LANES] = std::array::from_fn(|lane| (lane % 7) as u32);
        let keys = widened(&indices);
        let mut reference = SortedRuns::default();
        reference.absorb(&keys, lane_groups, 8);
        let expected: Vec<(u128, [u64; 2])> = reference.counts.into_iter().collect();
        for mut table in [Table::dense(3), Table::hashed()] {
            let mut by_key = table.clone();
            table.absorb(&Lanes::Indices(Box::new(indices)), lane_groups, 8);
            by_key.absorb(&Lanes::Keys(Box::new(keys)), lane_groups, 8);
            assert_eq!(table.sorted_columns(), expected.as_slice());
            assert_eq!(by_key.sorted_columns(), expected.as_slice());
            assert_eq!(table.samples(), LANES as u64);
        }
    }

    #[test]
    fn cached_columns_invalidate_on_absorption() {
        let mut table = Table::dense(2);
        table.absorb(&Lanes::Indices(Box::new(batch(&[1]))), 0, 4);
        assert_eq!(table.sorted_columns().len(), 1);
        table.absorb(&Lanes::Indices(Box::new(batch(&[2]))), u64::MAX, 4);
        assert_eq!(table.sorted_columns().len(), 2, "stale cache served");
        table.absorb(&Lanes::Keys(Box::new([0u128; LANES])), 0, 4);
        assert_eq!(table.sorted_columns().len(), 3);
        let mut hashed = Table::hashed();
        hashed.absorb(&Lanes::Indices(Box::new(batch(&[1]))), 0, 4);
        assert_eq!(hashed.sorted_columns().len(), 1);
        hashed.absorb(&Lanes::Indices(Box::new(batch(&[2]))), 0, 4);
        assert_eq!(hashed.sorted_columns().len(), 2, "stale cache served");
    }

    #[test]
    fn cached_columns_survive_an_absorb_save_restore_round_trip() {
        // The snapshot path reads `sorted_columns()` to serialize (which
        // memoizes), then `restore()` repopulates the store on resume —
        // both on a fresh table and, after a ConfigMismatch retry, on
        // one that already served columns. A stale memo at any of these
        // points would silently corrupt every post-resume checkpoint.
        let mut table = Table::dense(3);
        table.absorb(
            &Lanes::Indices(Box::new(batch(&[1, 5]))),
            0xaaaa_aaaa_aaaa_aaaa,
            8,
        );
        let saved = table.sorted_columns().to_vec(); // memoizes
        let overflow = table.overflow();
        let samples = table.samples();

        // Resume into a table that has already memoized different
        // contents: restore must drop that memo.
        let mut resumed = Table::dense(3);
        resumed.absorb(&Lanes::Indices(Box::new(batch(&[2]))), 0, 8);
        assert_eq!(resumed.sorted_columns().len(), 1); // memoizes
        resumed.restore(saved.clone(), overflow, samples);
        assert_eq!(resumed.sorted_columns(), saved.as_slice(), "stale memo");
        assert_eq!(resumed.samples(), samples);

        // And absorption after the restore must invalidate again, so
        // the first post-resume checkpoint sees the merged counts.
        resumed.absorb(&Lanes::Indices(Box::new(batch(&[2]))), u64::MAX, 8);
        assert_eq!(resumed.sorted_columns().len(), saved.len() + 1);
        assert_eq!(resumed.g_columns().len(), saved.len() + 1);
    }

    #[test]
    fn hashed_overflow_pools_past_the_cap_deterministically() {
        // Lanes arrive largest key first; the smallest keys still win
        // the two slots because the batch is sorted before insertion.
        let mut table = Table::hashed();
        let indices = batch(&[4, 3, 2, 1]);
        // Lanes holding keys 4 and 3 are random, keys 2 and 1 fixed.
        let lane_groups = 0x3333_3333_3333_3333u64;
        table.absorb(&Lanes::Indices(Box::new(indices)), lane_groups, 2);
        assert_eq!(
            table.sorted_columns(),
            &[(1u128, [16u64, 0u64]), (2, [16, 0])]
        );
        assert_eq!(table.overflow(), [0, 32], "keys 3 and 4 pooled");
        assert_eq!(table.g_columns().len(), 3, "overflow is one more column");
        assert_eq!(table.samples(), LANES as u64);
        // A later batch still counts retained keys and pools new ones.
        table.absorb(&Lanes::Indices(Box::new(batch(&[1, 9]))), 0, 2);
        assert_eq!(
            table.sorted_columns(),
            &[(1u128, [48u64, 0u64]), (2, [16, 0])]
        );
        assert_eq!(table.overflow(), [32, 32]);
    }

    #[test]
    fn restore_falls_back_to_hashed_when_keys_exceed_the_dense_layout() {
        let mut table = Table::dense(2);
        table.restore(vec![(1, [5, 6]), (999, [1, 2])], [0, 0], 14);
        assert!(!table.is_dense(), "foreign snapshot forces the fallback");
        assert_eq!(
            table.sorted_columns(),
            &[(1u128, [5u64, 6u64]), (999, [1, 2])]
        );
        // The fallen-back store keeps absorbing the narrow indices the
        // engine packs for the set.
        table.absorb(&Lanes::Indices(Box::new(batch(&[1]))), 0, 1 << 20);
        assert_eq!(
            table.sorted_columns(),
            &[(1u128, [69u64, 6u64]), (999, [1, 2])]
        );
        assert_eq!(table.samples(), 14 + LANES as u64);
        let mut fits = Table::dense(2);
        fits.restore(vec![(1, [5, 6]), (3, [1, 2])], [0, 0], 14);
        assert!(fits.is_dense());
        assert_eq!(fits.sorted_columns(), &[(1u128, [5u64, 6u64]), (3, [1, 2])]);
    }

    /// Wide, low-entropy keys of the kind observation packing makes:
    /// small counters in the low word, in the high word and near the
    /// top, plus every single-bit key.
    fn structured_keys() -> Vec<u128> {
        let mut keys: Vec<u128> = (0..256u128).flat_map(|i| [i, i << 64, i << 100]).collect();
        keys.extend((0..128).map(|bit| 1u128 << bit));
        keys
    }

    #[test]
    fn key_hasher_serves_wide_low_entropy_keys() {
        let keys = structured_keys();
        let lane_groups = 0x5a5a_0f0f_3c3c_9669u64;
        for cap in [1, 8, usize::MAX] {
            let mut table = Table::hashed();
            let mut reference = SortedRuns::default();
            // Twice over, so retained keys are counted again.
            for chunk in keys.chunks(LANES).chain(keys.chunks(LANES)) {
                let batch: [u128; LANES] = std::array::from_fn(|lane| chunk[lane % chunk.len()]);
                table.absorb(&Lanes::Keys(Box::new(batch)), lane_groups, cap);
                reference.absorb(&batch, lane_groups, cap);
            }
            let expected: Vec<(u128, [u64; 2])> = reference.counts.into_iter().collect();
            assert_eq!(table.sorted_columns(), expected.as_slice(), "cap {cap}");
            assert_eq!(table.overflow(), reference.overflow, "cap {cap}");
        }
        // Keys that differ only in bits 100..112 still spread over the
        // low bits the bucket index is taken from.
        let hasher = BuildHasherDefault::<KeyHasher>::default();
        let mut buckets = vec![0u32; 4096];
        for i in 0..4096u128 {
            buckets[(hasher.hash_one(i << 100) & 0xfff) as usize] += 1;
        }
        let fullest = buckets.iter().copied().max().unwrap_or(0);
        assert!(fullest <= 16, "{fullest} keys share one bucket");
    }

    #[test]
    fn resident_bytes_track_the_store() {
        let dense = Table::dense(4);
        assert_eq!(dense.resident_bytes(), 48 + 16 * 16);
        let mut hashed = Table::hashed();
        assert_eq!(hashed.resident_bytes(), 48);
        hashed.absorb(&Lanes::Indices(Box::new(batch(&[1, 2]))), 0, 8);
        assert_eq!(hashed.resident_bytes(), 48 + 2 * 48);
    }

    /// Turns raw proptest draws into batches of `LANES` observations
    /// masked to `mask` (small masks force repeated keys).
    fn batches_of(raw: &[(u64, u64)], mask: u64) -> Vec<([u32; LANES], u64)> {
        raw.chunks_exact(LANES)
            .map(|chunk| {
                let indices = std::array::from_fn(|lane| (chunk[lane].0 & mask) as u32);
                let lane_groups = chunk
                    .iter()
                    .enumerate()
                    .fold(0u64, |groups, (lane, &(_, bits))| {
                        groups | ((bits & 1) << lane)
                    });
                (indices, lane_groups)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The differential property behind `--tabulator`: on any
        /// sequence of batches, a dense table and a capacity-matched
        /// hashed table produce identical `g_columns()` — including at
        /// the `2^width == max_table_keys` boundary, where the hashed
        /// store's cap is exactly the dense key space.
        #[test]
        fn dense_matches_hashed_on_random_key_streams(
            width in 1usize..=10,
            raw in prop::collection::vec((any::<u64>(), any::<u64>()), LANES..8 * LANES),
        ) {
            let cap = 1usize << width; // the exact 2^width == cap boundary
            let mut dense = Table::dense(width);
            let mut hashed = Table::hashed();
            for (indices, lane_groups) in batches_of(&raw, cap as u64 - 1) {
                dense.absorb(&Lanes::Indices(Box::new(indices)), lane_groups, cap);
                hashed.absorb(&Lanes::Keys(Box::new(widened(&indices))), lane_groups, cap);
            }
            prop_assert_eq!(dense.g_columns(), hashed.g_columns());
            prop_assert_eq!(dense.sorted_columns(), hashed.sorted_columns());
            prop_assert_eq!(dense.samples(), hashed.samples());
            prop_assert_eq!(dense.overflow(), [0, 0]);
            prop_assert_eq!(hashed.overflow(), [0, 0]);
        }

        /// Below the dense threshold the hashed store pools overflow:
        /// mass is conserved, the bucket is one extra column, and the
        /// retained keys and overflow are exactly the sorted-runs fold's.
        #[test]
        fn hashed_overflow_conserves_mass(
            raw in prop::collection::vec((any::<u64>(), any::<u64>()), LANES..8 * LANES),
            cap in 1usize..8,
        ) {
            let batches = batches_of(&raw, 0xff);
            let mut table = Table::hashed();
            let mut reference = SortedRuns::default();
            for (indices, lane_groups) in &batches {
                table.absorb(&Lanes::Indices(Box::new(*indices)), *lane_groups, cap);
                reference.absorb(&widened(indices), *lane_groups, cap);
            }
            let expected: Vec<(u128, [u64; 2])> = reference.counts.into_iter().collect();
            prop_assert!(table.distinct_keys() <= cap);
            prop_assert_eq!(table.sorted_columns(), expected.as_slice());
            prop_assert_eq!(table.overflow(), reference.overflow);
            let tallied: u64 = table
                .g_columns()
                .iter()
                .map(|&(fixed, random)| fixed + random)
                .sum();
            let absorbed = (batches.len() * LANES) as u64;
            prop_assert_eq!(tallied, absorbed);
            prop_assert_eq!(table.samples(), absorbed);
        }

        /// The hashed store ignores lane order within a batch: any
        /// permutation of one batch's lanes (with their populations)
        /// yields the same columns, overflow and sample count, at every
        /// cap from 1 to 8 — also on a table a previous batch filled.
        #[test]
        fn hashed_absorb_ignores_lane_order(
            raw in prop::collection::vec((any::<u64>(), any::<u64>()), 2 * LANES),
            order in prop::collection::vec(any::<u64>(), LANES),
            cap in 1usize..=8,
        ) {
            let batches = batches_of(&raw, 0xf);
            let (prior, prior_groups) = batches[0];
            let (indices, lane_groups) = batches[1];
            let mut permutation: [usize; LANES] = std::array::from_fn(|lane| lane);
            permutation.sort_by_key(|&lane| order[lane]);
            let permuted: [u32; LANES] = std::array::from_fn(|lane| indices[permutation[lane]]);
            let permuted_groups = permutation
                .iter()
                .enumerate()
                .fold(0u64, |groups, (lane, &from)| {
                    groups | (((lane_groups >> from) & 1) << lane)
                });
            let mut straight = Table::hashed();
            let mut shuffled = Table::hashed();
            for table in [&mut straight, &mut shuffled] {
                table.absorb(&Lanes::Indices(Box::new(prior)), prior_groups, cap);
            }
            straight.absorb(&Lanes::Indices(Box::new(indices)), lane_groups, cap);
            shuffled.absorb(&Lanes::Indices(Box::new(permuted)), permuted_groups, cap);
            prop_assert_eq!(straight.g_columns(), shuffled.g_columns());
            prop_assert_eq!(straight.overflow(), shuffled.overflow());
            prop_assert_eq!(straight.samples(), shuffled.samples());
        }

        /// The shared packer against the exact verifier's former
        /// per-lane loop, on a 70-input netlist driven with random words
        /// for three cycles: for a narrow (at most 32-bit) and a wide
        /// (33–128-bit) set under both probe models, the packed keys
        /// equal the oracle's, and a narrow set's `u32` indices are its
        /// zero-extended `u128` keys.
        #[test]
        fn packed_lanes_match_the_per_lane_oracle(
            words in prop::collection::vec(any::<u64>(), 3 * PACK_INPUTS),
            picks in prop::collection::vec(0..2 * PACK_INPUTS, 128),
            narrow in 1usize..=MAX_DENSE_WIDTH,
            wide in MAX_DENSE_WIDTH + 1..=128,
        ) {
            let (netlist, wires) = pack_netlist();
            let mut sim = Simulator::new(&netlist);
            for (cycle, words) in words.chunks(PACK_INPUTS).enumerate() {
                for (&input, &word) in wires.iter().zip(words) {
                    sim.set_input(input, word);
                }
                if cycle < 2 {
                    sim.step();
                } else {
                    sim.eval();
                }
            }
            for (model, per_wire) in [(ProbeModel::Glitch, 1), (ProbeModel::GlitchTransition, 2)] {
                for bits in [narrow, wide] {
                    let count = bits.div_ceil(per_wire);
                    let set = ProbeSet {
                        wires: Vec::new(),
                        observed: picks[..count].iter().map(|&pick| wires[pick]).collect(),
                        label: String::new(),
                    };
                    let bits = set.observation_bits(model);
                    let expected = oracle_keys(&sim, &set, model);
                    let mut lanes = Lanes::for_set(&set, model);
                    lanes.pack(&sim, &set, model);
                    let packed: [u128; LANES] = std::array::from_fn(|lane| lanes.key(lane));
                    prop_assert_eq!(packed, expected);
                    prop_assert_eq!(matches!(lanes, Lanes::Indices(_)), bits <= MAX_DENSE_WIDTH);
                    if let Lanes::Indices(indices) = lanes {
                        let mut keys = Lanes::Keys(Box::new([0; LANES]));
                        keys.pack(&sim, &set, model);
                        prop_assert!(matches!(&keys, Lanes::Keys(keys) if **keys == widened(&indices)));
                    }
                }
            }
        }
    }
}
