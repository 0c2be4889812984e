//! Compiled shedding verdicts: the per-(type, position) decision of an
//! active plan folded into 2-bit lookup tables, plus the partition `CDT`s
//! the plan's thresholds are read from.
//!
//! For a fixed predicted window size the decision for (event type, position)
//! depends on the model (utility table, bin and partition mapping), the
//! partition count `ρ` and the per-partition threshold utilities — and on
//! nothing else a plan carries: the boundary fraction is read at decision
//! time. It therefore collapses to one of three verdicts — always keep,
//! always drop, or *boundary* (the utility sits exactly on the partition's
//! threshold and the window's thinning accumulator must decide).
//! [`CompiledVerdicts`] caches one [`SizeTable`] per window size — keyed by
//! the exact `WindowMeta::predicted_size` the operator stamps, nothing is
//! rounded; a small LRU bounds how many sizes are resident — and each table
//! compiles its rows lazily, one event type at a time, on first contact. So
//! the span kernel pays a single shift-and-mask load per decision where the
//! scalar path pays a utility-row lookup, a `bin_range` multiply/divide, a
//! `partition_of` divide and a threshold branch.
//!
//! # Invalidation
//!
//! * A re-plan whose threshold vector is **unchanged** keeps everything:
//!   the controller re-plans every check interval, and most re-plans move
//!   only the drop amount within one utility level.
//! * A re-plan that **changes a threshold** (same `ρ`) clears the rows'
//!   `built` flags; tables, their position maps and the `CDT`s stay
//!   allocated and rows recompile on next contact at one byte compare per
//!   entry.
//! * A re-plan with another **`ρ`** rebuilds the `CDT`s and drops the
//!   tables (their partition maps are per `ρ`). Deactivation clears nothing.
//! * A **model swap** ([`invalidate_model`](CompiledVerdicts::invalidate_model))
//!   drops `CDT`s and tables together — both are functions of the model.
//!
//! All of this is **derived state**: never serialised or checkpointed, and
//! cloning a shedder produces an empty cache that recompiles on demand.
//! This is what keeps crash recovery honest — recovered shards replay from
//! pristine decider clones and rebuild the exact same tables from the plan
//! and model they restore.

use crate::Cdt;
use espice_events::EventType;
use std::ops::Range;

/// Verdict entries per 64-bit word (2 bits per position).
const POSITIONS_PER_WORD: usize = 32;

/// Size tables kept per shedder. Distinct predicted window sizes in flight
/// at once are bounded by how fast the size predictor moves while windows
/// are open — a handful, not hundreds.
const MAX_TABLES: usize = 8;

/// The compiled decision for one (event type, position) cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Utility strictly above the partition threshold (or no threshold):
    /// always keep.
    Keep = 0,
    /// Utility strictly below the partition threshold: always drop.
    Drop = 1,
    /// Utility exactly at the partition threshold: the per-window boundary
    /// accumulator decides (stateful path).
    Boundary = 2,
}

/// Where one window position lands in the model: the bins its utility is
/// read from and the partition whose threshold it is held against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) bins: Range<usize>,
    pub(crate) partition: usize,
}

/// The verdict table of one predicted window size: the position → [`Cell`]
/// map shared by every type, and per event type a position-indexed row of
/// 2-bit verdicts.
///
/// Rows cover positions `0 ..= window_size`: every position at or past the
/// predicted size maps to the same clamped model bin (`bin_range` clamps
/// both ends to the last position), so one shared trailing entry is exact
/// for the whole overflow range. Likewise all type indices at or past the
/// utility table's type count share one zero-utility row, which bounds the
/// table by the *trained* type universe regardless of stray indices.
#[derive(Debug, Clone)]
pub(crate) struct SizeTable {
    window_size: usize,
    /// Words per row.
    stride: usize,
    /// `rows × stride` packed verdicts; row `r` occupies
    /// `words[r * stride ..][.. stride]`.
    words: Vec<u64>,
    /// Which rows have been compiled (rows fill lazily per type).
    built: Vec<bool>,
    /// One cell per row entry, computed once per table: the divisions of the
    /// bin and partition mapping are paid here, not per compiled row.
    cells: Vec<Cell>,
}

impl SizeTable {
    fn new(window_size: usize, num_types: usize, cell: impl FnMut(usize) -> Cell) -> Self {
        let entries = window_size + 1;
        let stride = entries.div_ceil(POSITIONS_PER_WORD);
        // One row per trained type plus the shared unknown-type row.
        let rows = num_types + 1;
        SizeTable {
            window_size,
            stride,
            words: vec![0; rows * stride],
            built: vec![false; rows],
            cells: (0..entries).map(cell).collect(),
        }
    }

    /// The verdict for an event of type `ty` at window position `position`,
    /// compiling the type's row with `fill(cell) -> Verdict` on first
    /// contact. `fill` must be a pure function of the cell under the
    /// thresholds the cache was last pointed at (it is consulted once per
    /// row entry until a threshold changes).
    #[inline]
    pub(crate) fn verdict(
        &mut self,
        ty: EventType,
        position: usize,
        fill: impl FnMut(&Cell) -> Verdict,
    ) -> Verdict {
        let row = ty.index().min(self.built.len() - 1);
        if !self.built[row] {
            self.build_row(row, fill);
        }
        let entry = position.min(self.window_size);
        let word = self.words[row * self.stride + entry / POSITIONS_PER_WORD];
        match (word >> (2 * (entry % POSITIONS_PER_WORD))) & 0b11 {
            0 => Verdict::Keep,
            1 => Verdict::Drop,
            _ => Verdict::Boundary,
        }
    }

    #[cold]
    fn build_row(&mut self, row: usize, mut fill: impl FnMut(&Cell) -> Verdict) {
        let words = &mut self.words[row * self.stride..][..self.stride];
        // The row may hold verdicts compiled under earlier thresholds.
        words.fill(0);
        for (entry, cell) in self.cells.iter().enumerate() {
            words[entry / POSITIONS_PER_WORD] |=
                (fill(cell) as u64) << (2 * (entry % POSITIONS_PER_WORD));
        }
        self.built[row] = true;
    }

    /// The model partition of window position `position`.
    #[inline]
    pub(crate) fn partition(&self, position: usize) -> usize {
        self.cells[position.min(self.window_size)].partition
    }
}

/// The shedder-owned cache of plan-derived state: the partition `CDT`s of
/// the current (model, `ρ`) and the compiled verdict tables of the current
/// (model, `ρ`, thresholds), keyed by predicted window size.
#[derive(Debug, Default)]
pub(crate) struct CompiledVerdicts {
    /// One `CDT` per partition; empty until a plan needs them.
    cdts: Vec<Cdt>,
    /// The per-partition thresholds the compiled rows classify against.
    thresholds: Vec<Option<u8>>,
    /// Most recently used first.
    tables: Vec<SizeTable>,
}

impl CompiledVerdicts {
    /// An empty cache.
    pub(crate) fn new() -> Self {
        CompiledVerdicts::default()
    }

    /// Drops everything derived from the model: `CDT`s and tables together.
    /// Must be called whenever the model (or the utility table derived from
    /// it) is replaced.
    pub(crate) fn invalidate_model(&mut self) {
        self.cdts.clear();
        self.thresholds.clear();
        self.tables.clear();
    }

    /// The `CDT`s of `partitions` window partitions, computed with `build`
    /// only when the cache holds none for this partition count.
    pub(crate) fn cdts(&mut self, partitions: usize, build: impl FnOnce() -> Vec<Cdt>) -> &[Cdt] {
        if self.cdts.len() != partitions {
            self.cdts = build();
        }
        &self.cdts
    }

    /// Points the tables at a plan's per-partition `thresholds`: unchanged
    /// thresholds keep every compiled row, changed ones mark all rows
    /// uncompiled in place, and another partition count drops the tables
    /// (their cells carry the partition mapping).
    pub(crate) fn set_thresholds(
        &mut self,
        thresholds: impl ExactSizeIterator<Item = Option<u8>> + Clone,
    ) {
        if thresholds.clone().eq(self.thresholds.iter().copied()) {
            return;
        }
        if thresholds.len() != self.thresholds.len() {
            self.tables.clear();
        }
        for table in &mut self.tables {
            table.built.fill(false);
        }
        self.thresholds.clear();
        self.thresholds.extend(thresholds);
    }

    /// The table for `window_size`, created (cells mapped with `cell`, no
    /// rows compiled) on first use and moved to the front of the LRU.
    pub(crate) fn table_for(
        &mut self,
        window_size: usize,
        num_types: usize,
        cell: impl FnMut(usize) -> Cell,
    ) -> &mut SizeTable {
        match self.tables.iter().position(|t| t.window_size == window_size) {
            Some(index) => self.tables[..=index].rotate_right(1),
            None => {
                self.tables.insert(0, SizeTable::new(window_size, num_types, cell));
                self.tables.truncate(MAX_TABLES);
            }
        }
        &mut self.tables[0]
    }
}

#[cfg(test)]
impl CompiledVerdicts {
    /// Rows currently compiled, over all tables.
    pub(crate) fn built_rows(&self) -> usize {
        self.tables.iter().flat_map(|table| &table.built).filter(|&&built| built).count()
    }
}

impl Clone for CompiledVerdicts {
    /// Clones start cold: everything here is derived state, recomputed on
    /// demand from the plan and model — so recovered shards replaying from
    /// cloned deciders rebuild rather than inherit possibly-stale tables.
    fn clone(&self) -> Self {
        CompiledVerdicts::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ty(i: u32) -> EventType {
        EventType::from_index(i)
    }

    /// One bin per position, four positions per partition.
    fn identity_cell(position: usize) -> Cell {
        Cell { bins: position..position + 1, partition: position / 4 }
    }

    /// Position-dependent fill covering all three verdicts.
    fn fill_pattern(cell: &Cell) -> Verdict {
        match cell.bins.start % 3 {
            0 => Verdict::Keep,
            1 => Verdict::Drop,
            _ => Verdict::Boundary,
        }
    }

    #[test]
    fn verdicts_round_trip_through_the_packing() {
        let mut cache = CompiledVerdicts::new();
        let table = cache.table_for(100, 3, identity_cell);
        for position in 0..=100 {
            assert_eq!(
                table.verdict(ty(1), position, fill_pattern),
                fill_pattern(&identity_cell(position))
            );
        }
        // Positions past the window size reuse the trailing entry.
        let trailing = fill_pattern(&identity_cell(100));
        assert_eq!(table.verdict(ty(1), 100, fill_pattern), trailing);
        assert_eq!(table.verdict(ty(1), 5000, fill_pattern), trailing);
    }

    #[test]
    fn rows_compile_lazily_and_once() {
        let mut cache = CompiledVerdicts::new();
        let table = cache.table_for(10, 2, identity_cell);
        let mut calls = 0;
        let _ = table.verdict(ty(0), 0, |_| {
            calls += 1;
            Verdict::Keep
        });
        assert_eq!(calls, 11); // positions 0..=10, once
        let _ = table.verdict(ty(0), 7, |_| {
            calls += 1;
            Verdict::Keep
        });
        assert_eq!(calls, 11); // row already built
    }

    #[test]
    fn unknown_types_share_the_overflow_row() {
        let mut cache = CompiledVerdicts::new();
        let table = cache.table_for(4, 2, identity_cell);
        // Types 2 and 1_000_000 are both past the trained universe.
        assert_eq!(table.verdict(ty(2), 1, |_| Verdict::Drop), Verdict::Drop);
        let mut calls = 0;
        assert_eq!(
            table.verdict(ty(1_000_000), 1, |_| {
                calls += 1;
                Verdict::Keep
            }),
            Verdict::Drop
        );
        assert_eq!(calls, 0); // shared row was already compiled
    }

    #[test]
    fn partition_row_compiles_once_and_clamps() {
        let mut cache = CompiledVerdicts::new();
        let mut calls = 0;
        let table = cache.table_for(10, 1, |position| {
            calls += 1;
            identity_cell(position)
        });
        assert_eq!(table.partition(9), 2);
        // Positions past the window size reuse the clamped trailing entry.
        assert_eq!(table.partition(5000), 2);
        // A second request for the size finds the table, cells included.
        let _ = cache.table_for(10, 1, |_| unreachable!("cells are mapped once per table"));
        assert_eq!(calls, 11); // positions 0..=10, once
    }

    #[test]
    fn lru_keeps_recent_sizes_and_invalidate_clears() {
        let mut cache = CompiledVerdicts::new();
        for size in 0..MAX_TABLES + 3 {
            let _ = cache.table_for(size * 10 + 1, 1, identity_cell);
        }
        assert_eq!(cache.tables.len(), MAX_TABLES);
        // The most recent size is at the front; re-requesting an older one
        // moves it forward instead of re-creating it.
        let front = cache.tables[1].window_size;
        let _ = cache.table_for(front, 1, identity_cell);
        assert_eq!(cache.tables[0].window_size, front);
        let _ = cache.cdts(2, || vec![Cdt::from_occurrences(&[]); 2]);
        cache.invalidate_model();
        assert!(cache.tables.is_empty());
        assert!(cache.cdts.is_empty(), "a model swap drops CDTs and tables together");
    }

    #[test]
    fn clone_is_cold() {
        let mut cache = CompiledVerdicts::new();
        let _ = cache.table_for(8, 1, identity_cell);
        let _ = cache.cdts(1, || vec![Cdt::from_occurrences(&[])]);
        let cloned = cache.clone();
        assert!(cloned.tables.is_empty());
        assert!(cloned.cdts.is_empty());
    }

    #[test]
    fn lru_evicts_the_least_recently_used_size_first() {
        let mut cache = CompiledVerdicts::new();
        // Fill the cache: sizes 10, 20, …, 80, most recent first.
        for size in 1..=MAX_TABLES {
            let _ = cache.table_for(size * 10, 1, identity_cell);
        }
        // Touch the oldest entry (size 10): it must move to the front, so
        // size 20 becomes the least recently used.
        let _ = cache.table_for(10, 1, identity_cell);
        let _ = cache.table_for(90, 1, identity_cell);
        let sizes: Vec<usize> = cache.tables.iter().map(|t| t.window_size).collect();
        assert_eq!(sizes[0], 90, "newest entry must be most recently used");
        assert_eq!(sizes[1], 10, "touched entry must have been promoted");
        assert!(!sizes.contains(&20), "the least recently used size must be evicted");
        // The survivors keep exact MRU order: 90, 10, then 80 down to 30.
        assert_eq!(sizes, vec![90, 10, 80, 70, 60, 50, 40, 30]);
        // Touching an evicted size recreates it (empty, rows uncompiled).
        let table = cache.table_for(20, 1, identity_cell);
        assert!(table.built.iter().all(|&b| !b));
    }

    #[test]
    fn cold_clone_recompiles_from_current_inputs() {
        // The chunk-replay recovery contract: a replacement shard replays
        // from a *cloned* decider whose verdict cache starts cold and
        // recompiles from the plan and model the clone restores — it must
        // not inherit rows compiled under the original's inputs.
        let mut original = CompiledVerdicts::new();
        let mut fills = 0;
        let _ = original.table_for(10, 1, identity_cell).verdict(ty(0), 3, |_| {
            fills += 1;
            Verdict::Keep
        });
        assert_eq!(fills, 11, "original compiled its row");

        let mut recovered = original.clone();
        assert!(recovered.tables.is_empty(), "recovered cache must start cold");
        // The recovered shard's inputs changed (say, a re-applied plan now
        // drops this cell): the clone compiles the *new* verdict while the
        // original keeps serving its old row without re-filling.
        let mut recompiles = 0;
        let verdict = recovered.table_for(10, 1, identity_cell).verdict(ty(0), 3, |_| {
            recompiles += 1;
            Verdict::Drop
        });
        assert_eq!(verdict, Verdict::Drop, "clone must reflect recompiled inputs");
        assert_eq!(recompiles, 11, "clone recompiled the row from scratch");
        let unchanged =
            original.table_for(10, 1, identity_cell).verdict(ty(0), 3, |_| unreachable!());
        assert_eq!(unchanged, Verdict::Keep, "original keeps its compiled row");
    }

    #[test]
    fn thresholds_decide_what_a_replan_keeps() {
        let mut cache = CompiledVerdicts::new();
        cache.set_thresholds([Some(3), None].into_iter());
        let compiled = |cache: &mut CompiledVerdicts| {
            let table = cache.table_for(10, 1, identity_cell);
            let mut fills = 0;
            let verdict = table.verdict(ty(0), 2, |_| {
                fills += 1;
                Verdict::Drop
            });
            assert_eq!(verdict, Verdict::Drop);
            fills
        };
        assert_eq!(compiled(&mut cache), 11);
        // The same thresholds again: every row survives.
        cache.set_thresholds([Some(3), None].into_iter());
        assert_eq!(compiled(&mut cache), 0);
        // One threshold moved: rows recompile in the table that stays.
        cache.set_thresholds([Some(4), None].into_iter());
        assert_eq!(cache.tables.len(), 1);
        assert_eq!(compiled(&mut cache), 11);
        // Another partition count: the cells are stale, the table goes.
        cache.set_thresholds([Some(4)].into_iter());
        assert!(cache.tables.is_empty());
    }
}
