//! Shared event storage for overlapping windows.
//!
//! With sliding windows of size `w` and slide `s`, every event belongs to
//! `w / s` windows at once. Storing a [`WindowEntry`]-style copy per window
//! makes the operator's per-event work O(overlap); the [`EventRing`] stores
//! each event **once** and lets every open window reference its events as a
//! contiguous index range `[start, start + assigned)` of *global slots*.
//! Because an open window is assigned every event that arrives while it is
//! open, an event's per-window arrival position is simply
//! `slot - window.start` — no per-window bookkeeping beyond the start slot.
//!
//! Shedding decisions are per (event, window): an event can be dropped from
//! one window and kept in another. The ring therefore stores every assigned
//! event and each window records *its own* drops in a [`DropSet`] — an
//! adaptive set of dropped positions (sorted list under light shedding, one
//! bit per position under heavy shedding) whose kept runs are what the
//! matcher sees when the window closes.
//!
//! The pruning invariant: the ring retains exactly the slots at or above the
//! oldest open window's start (everything below can no longer be referenced,
//! because windows close in open order). The operator calls
//! [`EventRing::release_before`] after every window close, so the resident
//! entry count is bounded by the span of a single window plus slack — not by
//! the window span times the overlap factor.
//!
//! [`WindowEntry`]: crate::WindowEntry

use espice_events::Event;
use std::collections::vec_deque;
use std::collections::VecDeque;
use std::ops::Range;

/// Global index of a slot in an operator's [`EventRing`]. Slot numbers are
/// assigned once per appended event and never reused, so they stay valid
/// across pruning.
pub type SlotIndex = u64;

/// The shared, prunable event store of one operator.
#[derive(Debug, Default)]
pub struct EventRing {
    events: VecDeque<Event>,
    /// Global slot index of `events.front()`.
    base: SlotIndex,
}

impl EventRing {
    /// An empty ring whose next slot is 0.
    pub fn new() -> Self {
        EventRing { events: VecDeque::new(), base: 0 }
    }

    /// The slot index the next appended event will receive.
    pub fn next_slot(&self) -> SlotIndex {
        self.base + self.events.len() as SlotIndex
    }

    /// Appends one event, returning its slot index.
    pub fn push(&mut self, event: Event) -> SlotIndex {
        let slot = self.next_slot();
        self.events.push_back(event);
        slot
    }

    /// Number of events currently resident.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring currently holds no events.
    #[allow(dead_code)] // API completeness next to `len`; used in tests.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates the `len` events starting at slot `start`.
    ///
    /// # Panics
    ///
    /// Panics if any slot of the range has been pruned or not yet been
    /// appended.
    pub fn range(&self, start: SlotIndex, len: usize) -> vec_deque::Iter<'_, Event> {
        assert!(start >= self.base, "slot {start} already pruned (base {})", self.base);
        let offset = (start - self.base) as usize;
        self.events.range(offset..offset + len)
    }

    /// The `len` events starting at slot `start`, as the (at most two)
    /// contiguous slices they occupy in the backing deque. This is the
    /// zero-copy input of [`Matcher::matches_ring`]: a window with an empty
    /// drop set owns exactly this range, and the arrival position of the
    /// `i`-th event across the pair is `i`.
    ///
    /// # Panics
    ///
    /// Panics if any slot of the range has been pruned or not yet been
    /// appended.
    ///
    /// [`Matcher::matches_ring`]: crate::Matcher::matches_ring
    pub fn slices(&self, start: SlotIndex, len: usize) -> (&[Event], &[Event]) {
        assert!(start >= self.base, "slot {start} already pruned (base {})", self.base);
        let offset = (start - self.base) as usize;
        assert!(offset + len <= self.events.len(), "slot range extends past the ring");
        let (front, back) = self.events.as_slices();
        if offset + len <= front.len() {
            (&front[offset..offset + len], &[])
        } else if offset >= front.len() {
            let offset = offset - front.len();
            (&back[offset..offset + len], &[])
        } else {
            (&front[offset..], &back[..offset + len - front.len()])
        }
    }

    /// Drops every event below slot `start` (the start of the oldest window
    /// still open). No-op if those slots are already gone.
    pub fn release_before(&mut self, start: SlotIndex) {
        while self.base < start {
            self.events.pop_front().expect("ring slots below a window start are resident");
            self.base += 1;
        }
    }

    /// Drops every resident event (no window is open). Slot numbering
    /// continues where it left off.
    pub fn release_all(&mut self) {
        self.base = self.next_slot();
        self.events.clear();
    }

    /// Empties the ring **and** restarts slot numbering at 0 (operator
    /// reset).
    pub fn reset(&mut self) {
        self.events.clear();
        self.base = 0;
    }
}

/// Minimum recorded drops before the adaptive [`DropSet`] considers
/// switching to the bitset representation: below this the sorted list is
/// always at least as small, and the conversion cost cannot amortise.
const BITSET_MIN_DROPS: usize = 64;

/// Reciprocal of the drop-ratio crossover: the adaptive set converts once
/// `drops ≥ assigned / BITSET_CROSSOVER_DIVISOR`, i.e. at a ~25% drop
/// ratio, where one bit per assigned position beats one `u32` per drop in
/// both footprint and iteration cost (measured by the `window_overlap`
/// bench; see `dropset_crossover_percent` in BENCH_overlap.json).
const BITSET_CROSSOVER_DIVISOR: usize = 4;

/// The concrete storage behind a [`DropSet`].
#[derive(Debug, Clone)]
enum Repr {
    /// Sorted list of dropped positions — O(dropped) space and iteration,
    /// free when shedding is off (the common case).
    Sorted(Vec<u32>),
    /// One bit per window position up to the highest drop — smaller and
    /// faster to merge above the measured ~25% drop-ratio crossover.
    Bitset {
        /// 64 positions per word; bit `p % 64` of word `p / 64` marks
        /// position `p` as dropped.
        words: Vec<u64>,
        /// Number of set bits (maintained incrementally).
        len: usize,
    },
}

/// The positions a single window dropped, with an adaptive representation.
///
/// Positions are recorded in arrival order, so the initial sorted-list
/// representation is sorted by construction; closing a window reads the
/// *kept runs* between the drops
/// ([`for_each_kept_run`](DropSet::for_each_kept_run)), so it costs nothing
/// when shedding is off — the common case — and O(dropped) otherwise. Under
/// heavy shedding one `u32` per drop loses to one *bit* per assigned
/// position: past a minimum drop count (64) **and** the measured ~25%
/// drop-ratio crossover (see BENCH_overlap.json) the set converts itself
/// to a bitset. The `pinned_*` constructors freeze either representation
/// for benchmarking the crossover itself.
#[derive(Debug, Clone)]
pub struct DropSet {
    repr: Repr,
    /// Whether `push` may switch representations (pinned sets never do).
    adaptive: bool,
}

impl Default for DropSet {
    fn default() -> Self {
        Self::new()
    }
}

impl DropSet {
    /// An empty adaptive drop set (sorted list until the crossover).
    pub fn new() -> Self {
        DropSet { repr: Repr::Sorted(Vec::new()), adaptive: true }
    }

    /// An empty drop set pinned to the sorted-list representation — it
    /// never converts, regardless of density (crossover benchmarking).
    pub fn pinned_sorted() -> Self {
        DropSet { repr: Repr::Sorted(Vec::new()), adaptive: false }
    }

    /// An empty drop set pinned to the bitset representation from the
    /// first push (crossover benchmarking).
    pub fn pinned_bitset() -> Self {
        DropSet { repr: Repr::Bitset { words: Vec::new(), len: 0 }, adaptive: false }
    }

    /// Whether the set currently uses the bitset representation.
    pub fn is_bitset(&self) -> bool {
        matches!(self.repr, Repr::Bitset { .. })
    }

    /// Records that `position` was dropped. Positions must be recorded in
    /// increasing order (they arrive in arrival order). An adaptive set
    /// converts to the bitset here once the drop ratio `len / (position +
    /// 1)` crosses the measured threshold.
    pub fn push(&mut self, position: usize) {
        let position = u32::try_from(position).expect("window positions fit in u32");
        match &mut self.repr {
            Repr::Sorted(positions) => {
                debug_assert!(
                    positions.last().is_none_or(|&last| last < position),
                    "drop positions must be recorded in increasing order"
                );
                positions.push(position);
                // `position + 1` bounds the assigned count from below, so
                // this triggers at the true drop ratio or denser.
                if self.adaptive
                    && positions.len() >= BITSET_MIN_DROPS
                    && positions.len() * BITSET_CROSSOVER_DIVISOR > position as usize
                {
                    let mut words = vec![0u64; position as usize / 64 + 1];
                    for &p in positions.iter() {
                        words[p as usize / 64] |= 1 << (p % 64);
                    }
                    self.repr = Repr::Bitset { words, len: positions.len() };
                }
            }
            Repr::Bitset { words, len } => {
                let word = position as usize / 64;
                if word >= words.len() {
                    words.resize(word + 1, 0);
                }
                let bit = 1u64 << (position % 64);
                debug_assert!(
                    words[word] & bit == 0,
                    "drop positions must be recorded in increasing order"
                );
                words[word] |= bit;
                *len += 1;
            }
        }
    }

    /// Records that the `run_len` consecutive positions starting at `start`
    /// were all dropped — the fast path for the compiled decision kernel,
    /// whose verdict-table walk emits drops as monotone runs. Equivalent to
    /// `run_len` calls to [`push`](DropSet::push) with consecutive
    /// positions, under the same increasing-order contract: `start` must
    /// exceed every previously recorded position.
    pub fn push_run(&mut self, start: usize, run_len: usize) {
        if run_len == 0 {
            return;
        }
        let first = u32::try_from(start).expect("window positions fit in u32");
        let last = u32::try_from(start + run_len - 1).expect("window positions fit in u32");
        match &mut self.repr {
            Repr::Sorted(positions) => {
                debug_assert!(
                    positions.last().is_none_or(|&p| p < first),
                    "drop positions must be recorded in increasing order"
                );
                positions.extend(first..=last);
                // Same crossover test as `push`, evaluated once against the
                // run's final position instead of per element.
                if self.adaptive
                    && positions.len() >= BITSET_MIN_DROPS
                    && positions.len() * BITSET_CROSSOVER_DIVISOR > last as usize
                {
                    let mut words = vec![0u64; last as usize / 64 + 1];
                    for &p in positions.iter() {
                        words[p as usize / 64] |= 1 << (p % 64);
                    }
                    self.repr = Repr::Bitset { words, len: positions.len() };
                }
            }
            Repr::Bitset { words, len } => {
                let first_word = first as usize / 64;
                let last_word = last as usize / 64;
                if last_word >= words.len() {
                    words.resize(last_word + 1, 0);
                }
                let head_mask = !0u64 << (first % 64);
                let tail_mask = !0u64 >> (63 - last % 64);
                if first_word == last_word {
                    let mask = head_mask & tail_mask;
                    debug_assert!(
                        words[first_word] & mask == 0,
                        "drop positions must be recorded in increasing order"
                    );
                    words[first_word] |= mask;
                } else {
                    debug_assert!(
                        words[first_word] & head_mask == 0
                            && words[first_word + 1..].iter().all(|&w| w == 0),
                        "drop positions must be recorded in increasing order"
                    );
                    words[first_word] |= head_mask;
                    for word in &mut words[first_word + 1..last_word] {
                        *word = !0;
                    }
                    words[last_word] |= tail_mask;
                }
                *len += run_len;
            }
        }
    }

    /// Records a **retroactive** drop: `position` was kept at decision time
    /// and is dropped after the fact (partial-match shedding evicting a
    /// match whose constituents are no longer worth keeping). Unlike
    /// [`push`](DropSet::push) there is no ordering contract — the position
    /// is inserted at its sorted place — and inserting an already-dropped
    /// position is a no-op. Does not trigger the adaptive conversion:
    /// retro-drops are rare relative to decision-time drops, and the next
    /// ordinary `push` re-evaluates the crossover anyway.
    pub fn insert(&mut self, position: usize) {
        let position = u32::try_from(position).expect("window positions fit in u32");
        match &mut self.repr {
            Repr::Sorted(positions) => {
                if let Err(index) = positions.binary_search(&position) {
                    positions.insert(index, position);
                }
            }
            Repr::Bitset { words, len } => {
                let word = position as usize / 64;
                if word >= words.len() {
                    words.resize(word + 1, 0);
                }
                let bit = 1u64 << (position % 64);
                if words[word] & bit == 0 {
                    words[word] |= bit;
                    *len += 1;
                }
            }
        }
    }

    /// Whether `position` is recorded as dropped.
    pub fn contains(&self, position: usize) -> bool {
        let Ok(position) = u32::try_from(position) else {
            return false;
        };
        match &self.repr {
            Repr::Sorted(positions) => positions.binary_search(&position).is_ok(),
            Repr::Bitset { words, .. } => {
                let word = position as usize / 64;
                word < words.len() && words[word] & (1 << (position % 64)) != 0
            }
        }
    }

    /// Number of dropped positions.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sorted(positions) => positions.len(),
            Repr::Bitset { len, .. } => *len,
        }
    }

    /// Whether nothing was dropped.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Calls `run` with every maximal run of **kept** positions among
    /// `0..len`, in increasing order (drops at or past `len` are ignored).
    ///
    /// This is what a window close walks: the sorted list is crossed gap by
    /// gap and the bitset word by word, so the cost is O(kept runs + drops)
    /// resp. O(kept runs + words) — independent of how many positions the
    /// drops cover.
    pub fn for_each_kept_run(&self, len: usize, mut run: impl FnMut(Range<usize>)) {
        // End of the last drop seen, i.e. where the next kept run starts.
        let mut next = 0usize;
        match &self.repr {
            Repr::Sorted(positions) => {
                for &dropped in positions {
                    let dropped = (dropped as usize).min(len);
                    if dropped > next {
                        run(next..dropped);
                    }
                    next = dropped + 1;
                    if next >= len {
                        return;
                    }
                }
            }
            Repr::Bitset { words, .. } => {
                for (index, &word) in words.iter().enumerate().take(len.div_ceil(64)) {
                    // Dropped runs of this word, low to high; a kept run
                    // that spans words stays open in `next` until a drop
                    // (or `len`) ends it.
                    let mut dropped = word;
                    while dropped != 0 {
                        let first = dropped.trailing_zeros();
                        let run_len = (dropped >> first).trailing_ones();
                        let start = (index * 64 + first as usize).min(len);
                        if start > next {
                            run(next..start);
                        }
                        next = start + run_len as usize;
                        if next >= len {
                            return;
                        }
                        let end = first + run_len;
                        dropped = if end < 64 { dropped & (!0u64 << end) } else { 0 };
                    }
                }
            }
        }
        if next < len {
            run(next..len);
        }
    }

    /// The dropped positions in increasing order (either representation
    /// iterates ascending).
    pub fn iter(&self) -> DropIter<'_> {
        DropIter {
            inner: match &self.repr {
                Repr::Sorted(positions) => IterRepr::Sorted(positions.iter()),
                Repr::Bitset { words, .. } => IterRepr::Bitset {
                    words,
                    word_index: 0,
                    current: words.first().copied().unwrap_or(0),
                },
            },
        }
    }
}

/// Iterator over a [`DropSet`]'s positions in increasing order.
#[derive(Debug)]
pub struct DropIter<'a> {
    inner: IterRepr<'a>,
}

#[derive(Debug)]
enum IterRepr<'a> {
    Sorted(std::slice::Iter<'a, u32>),
    Bitset {
        words: &'a [u64],
        /// Index of the word `current` was loaded from.
        word_index: usize,
        /// Remaining bits of the current word (consumed low to high).
        current: u64,
    },
}

impl Iterator for DropIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.inner {
            IterRepr::Sorted(iter) => iter.next().copied(),
            IterRepr::Bitset { words, word_index, current } => loop {
                if *current != 0 {
                    let bit = current.trailing_zeros();
                    *current &= *current - 1;
                    return Some(*word_index as u32 * 64 + bit);
                }
                *word_index += 1;
                if *word_index >= words.len() {
                    return None;
                }
                *current = words[*word_index];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_events::{EventType, Timestamp};

    fn ev(seq: u64) -> Event {
        Event::new(EventType::from_index(0), Timestamp::from_secs(seq), seq)
    }

    #[test]
    fn slots_are_stable_across_pruning() {
        let mut ring = EventRing::new();
        for seq in 0..10 {
            assert_eq!(ring.push(ev(seq)), seq);
        }
        ring.release_before(4);
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.next_slot(), 10);
        let seqs: Vec<u64> = ring.range(5, 3).map(Event::seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);
        // Releasing below the current base is a no-op.
        ring.release_before(2);
        assert_eq!(ring.len(), 6);
    }

    #[test]
    fn release_all_keeps_slot_numbering() {
        let mut ring = EventRing::new();
        ring.push(ev(0));
        ring.push(ev(1));
        ring.release_all();
        assert!(ring.is_empty());
        assert_eq!(ring.next_slot(), 2);
        assert_eq!(ring.push(ev(2)), 2);
    }

    #[test]
    fn reset_restarts_numbering() {
        let mut ring = EventRing::new();
        ring.push(ev(0));
        ring.reset();
        assert!(ring.is_empty());
        assert_eq!(ring.next_slot(), 0);
    }

    #[test]
    fn slices_cover_the_same_events_as_range() {
        let mut ring = EventRing::new();
        for seq in 0..16 {
            ring.push(ev(seq));
        }
        // Force the deque to wrap: prune, then append more.
        ring.release_before(10);
        for seq in 16..24 {
            ring.push(ev(seq));
        }
        for start in 10..24u64 {
            for len in 0..=(24 - start) as usize {
                let via_range: Vec<u64> = ring.range(start, len).map(Event::seq).collect();
                let (head, tail) = ring.slices(start, len);
                let via_slices: Vec<u64> = head.iter().chain(tail.iter()).map(Event::seq).collect();
                assert_eq!(via_slices, via_range, "start {start}, len {len}");
                assert_eq!(head.len() + tail.len(), len);
            }
        }
    }

    #[test]
    #[should_panic(expected = "past the ring")]
    fn slices_reject_out_of_range() {
        let mut ring = EventRing::new();
        ring.push(ev(0));
        let _ = ring.slices(0, 2);
    }

    #[test]
    #[should_panic(expected = "already pruned")]
    fn range_rejects_pruned_slots() {
        let mut ring = EventRing::new();
        for seq in 0..4 {
            ring.push(ev(seq));
        }
        ring.release_before(2);
        let _ = ring.range(1, 2);
    }

    #[test]
    fn drop_set_iterates_in_order() {
        let mut drops = DropSet::new();
        assert!(drops.is_empty());
        drops.push(1);
        drops.push(4);
        drops.push(9);
        assert_eq!(drops.len(), 3);
        assert_eq!(drops.iter().collect::<Vec<_>>(), vec![1, 4, 9]);
    }

    #[test]
    fn sparse_drop_set_stays_sorted() {
        // Plenty of drops, but density stays well under the crossover.
        let mut drops = DropSet::new();
        for i in 0..200 {
            drops.push(i * 10);
        }
        assert!(!drops.is_bitset());
        assert_eq!(drops.len(), 200);
    }

    #[test]
    fn dense_drop_set_converts_to_bitset() {
        let mut drops = DropSet::new();
        // Drop every other position: 50% density crosses the ~25%
        // threshold as soon as the minimum drop count is reached.
        for i in 0..(2 * BITSET_MIN_DROPS) {
            drops.push(2 * i);
        }
        assert!(drops.is_bitset());
        assert_eq!(drops.len(), 2 * BITSET_MIN_DROPS);
        let expected: Vec<u32> = (0..2 * BITSET_MIN_DROPS as u32).map(|i| 2 * i).collect();
        assert_eq!(drops.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn both_representations_agree_after_conversion() {
        let mut adaptive = DropSet::new();
        let mut sorted = DropSet::pinned_sorted();
        let mut bitset = DropSet::pinned_bitset();
        // Dense prefix (forces the adaptive conversion), sparse tail.
        let positions: Vec<usize> = (0..100).chain((100..2000).filter(|p| p % 13 == 0)).collect();
        for &p in &positions {
            adaptive.push(p);
            sorted.push(p);
            bitset.push(p);
        }
        assert!(adaptive.is_bitset());
        assert!(!sorted.is_bitset());
        assert!(bitset.is_bitset());
        let expected: Vec<u32> = positions.iter().map(|&p| p as u32).collect();
        assert_eq!(adaptive.iter().collect::<Vec<_>>(), expected);
        assert_eq!(sorted.iter().collect::<Vec<_>>(), expected);
        assert_eq!(bitset.iter().collect::<Vec<_>>(), expected);
        assert_eq!(adaptive.len(), positions.len());
        assert_eq!(bitset.len(), positions.len());
    }

    #[test]
    fn push_run_matches_per_position_pushes() {
        // Mixed runs and singletons across word boundaries, in both pinned
        // representations and the adaptive one.
        let runs: &[(usize, usize)] = &[(0, 3), (10, 1), (60, 10), (128, 64), (300, 0), (500, 2)];
        let mut by_run_adaptive = DropSet::new();
        let mut by_run_sorted = DropSet::pinned_sorted();
        let mut by_run_bitset = DropSet::pinned_bitset();
        let mut by_push = DropSet::pinned_sorted();
        for &(start, len) in runs {
            by_run_adaptive.push_run(start, len);
            by_run_sorted.push_run(start, len);
            by_run_bitset.push_run(start, len);
            for p in start..start + len {
                by_push.push(p);
            }
        }
        let expected: Vec<u32> = by_push.iter().collect();
        assert_eq!(by_run_adaptive.iter().collect::<Vec<_>>(), expected);
        assert_eq!(by_run_sorted.iter().collect::<Vec<_>>(), expected);
        assert_eq!(by_run_bitset.iter().collect::<Vec<_>>(), expected);
        assert_eq!(by_run_adaptive.len(), expected.len());
        assert_eq!(by_run_bitset.len(), expected.len());
    }

    #[test]
    fn push_run_triggers_adaptive_conversion() {
        let mut drops = DropSet::new();
        // One dense run comfortably past both crossover conditions.
        drops.push_run(0, 2 * BITSET_MIN_DROPS);
        assert!(drops.is_bitset());
        assert_eq!(drops.len(), 2 * BITSET_MIN_DROPS);
        // Appending another run on the bitset side keeps iterating in order.
        drops.push_run(200, 70);
        let expected: Vec<u32> = (0..2 * BITSET_MIN_DROPS as u32).chain(200..270).collect();
        assert_eq!(drops.iter().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn insert_is_order_agnostic_and_idempotent() {
        for mut drops in [DropSet::new(), DropSet::pinned_bitset()] {
            drops.push(10);
            drops.push(40);
            // Retro-drops arrive out of order, possibly duplicated.
            drops.insert(25);
            drops.insert(3);
            drops.insert(25);
            drops.insert(40);
            assert_eq!(drops.iter().collect::<Vec<_>>(), vec![3, 10, 25, 40]);
            assert_eq!(drops.len(), 4);
            for p in [3usize, 10, 25, 40] {
                assert!(drops.contains(p));
            }
            for p in [0usize, 11, 26, 41, 1000] {
                assert!(!drops.contains(p));
            }
            // Ordinary pushes keep working past the inserted positions.
            drops.push(50);
            assert!(drops.contains(50));
            assert_eq!(drops.len(), 5);
        }
    }

    #[test]
    fn insert_into_bitset_extends_words() {
        let mut drops = DropSet::pinned_bitset();
        drops.insert(200);
        drops.insert(0);
        assert!(drops.contains(200));
        assert!(drops.contains(0));
        assert!(!drops.contains(199));
        assert_eq!(drops.iter().collect::<Vec<_>>(), vec![0, 200]);
    }

    /// The kept positions as the close path read them before kept runs: walk
    /// every assigned position, merging out the sorted drops.
    fn merge_walk(drops: &DropSet, len: usize) -> Vec<usize> {
        let mut dropped = drops.iter().peekable();
        (0..len).filter(|&position| dropped.next_if_eq(&(position as u32)).is_none()).collect()
    }

    /// The kept runs of `drops` over `0..len`, checked to be non-empty,
    /// ascending, maximal and inside `0..len`.
    fn kept_runs(drops: &DropSet, len: usize) -> Vec<Range<usize>> {
        let mut runs: Vec<Range<usize>> = Vec::new();
        drops.for_each_kept_run(len, |run| {
            assert!(run.start < run.end && run.end <= len, "bad run {run:?} of {len}");
            assert!(runs.last().is_none_or(|last| last.end < run.start), "{run:?} not maximal");
            runs.push(run);
        });
        runs
    }

    fn assert_kept_runs_match_merge_walk(drops: &DropSet, len: usize) {
        let flat: Vec<usize> = kept_runs(drops, len).into_iter().flatten().collect();
        assert_eq!(flat, merge_walk(drops, len), "len {len}, bitset {}", drops.is_bitset());
    }

    #[test]
    fn kept_runs_are_the_gaps_between_drops() {
        for mut drops in [DropSet::pinned_sorted(), DropSet::pinned_bitset()] {
            assert_eq!(kept_runs(&drops, 0), vec![]);
            assert_eq!(kept_runs(&drops, 5), vec![0..5]);
            // Drop runs that start, cross and end on word boundaries.
            for (start, len) in [(0, 2), (5, 1), (60, 8), (128, 64), (200, 56)] {
                drops.push_run(start, len);
            }
            assert_eq!(kept_runs(&drops, 300), vec![2..5, 6..60, 68..128, 192..200, 256..300]);
            // `len` below, at and just above the highest drop (255), inside
            // a dropped run and in words the bitset never allocated.
            assert_eq!(kept_runs(&drops, 1), vec![]);
            assert_eq!(kept_runs(&drops, 64), vec![2..5, 6..60]);
            assert_eq!(kept_runs(&drops, 255), vec![2..5, 6..60, 68..128, 192..200]);
            assert_eq!(kept_runs(&drops, 256), vec![2..5, 6..60, 68..128, 192..200]);
            assert_eq!(kept_runs(&drops, 257), vec![2..5, 6..60, 68..128, 192..200, 256..257]);
            assert_eq!(kept_runs(&drops, 1000).last(), Some(&(256..1000)));
            for len in 0..=320 {
                assert_kept_runs_match_merge_walk(&drops, len);
            }
        }
    }

    #[test]
    fn kept_runs_hold_across_the_adaptive_conversion_and_retro_inserts() {
        let mut drops = DropSet::new();
        let mut converted_at = None;
        // Every third position: dense enough to convert once 64 are in.
        for position in (0..600).step_by(3) {
            drops.push(position);
            assert_kept_runs_match_merge_walk(&drops, position + 2);
            if drops.is_bitset() && converted_at.is_none() {
                converted_at = Some(drops.len());
            }
        }
        assert_eq!(converted_at, Some(BITSET_MIN_DROPS));
        // pSPICE retro-drops land anywhere, already-dropped positions and
        // words past the last one included.
        for mut drops in [DropSet::pinned_sorted(), drops] {
            drops.push_run(610, 5);
            for position in [700, 1, 612, 64, 2, 699, 63, 1] {
                drops.insert(position);
                for len in [0, 1, 3, 64, 65, 600, 700, 701, 900] {
                    assert_kept_runs_match_merge_walk(&drops, len);
                }
            }
        }
    }

    proptest::proptest! {
        /// Kept runs equal the merge walk for any drop pattern, recorded by
        /// `push`, `push_run` and `insert`, in every representation, for
        /// `len` anywhere around the drops.
        #[test]
        fn kept_runs_equal_the_merge_walk(
            gaps in proptest::collection::vec((0usize..70, 1usize..70), 0..40),
            retro in proptest::collection::vec(0usize..3000, 0..6),
            len in 0usize..3200,
        ) {
            for mut drops in [DropSet::new(), DropSet::pinned_sorted(), DropSet::pinned_bitset()] {
                let mut next = 0;
                for &(gap, run) in &gaps {
                    if run == 1 {
                        drops.push(next + gap);
                    } else {
                        drops.push_run(next + gap, run);
                    }
                    next += gap + run + 1;
                }
                for &position in &retro {
                    drops.insert(position);
                }
                for len in [len, next.saturating_sub(1), next, next + 1] {
                    assert_kept_runs_match_merge_walk(&drops, len);
                }
            }
        }
    }

    #[test]
    fn pinned_sorted_never_converts() {
        let mut drops = DropSet::pinned_sorted();
        for i in 0..1000 {
            drops.push(i);
        }
        assert!(!drops.is_bitset());
        assert_eq!(drops.iter().collect::<Vec<_>>(), (0..1000).collect::<Vec<_>>());
    }
}
