//! The load-shedding hook of the operator.
//!
//! The paper's load shedder sits between the windowing stage and the
//! operator's processing function (Figure 1): for every primitive event and
//! every window it belongs to, the shedder decides whether to keep the event
//! *in that window*. Dropping an event from one window does not affect other
//! windows that contain the same event.
//!
//! This module defines the trait the operator calls for each decision and a
//! trivial implementation that keeps everything (used for ground-truth runs
//! and model training).

use crate::ring::DropSet;
use crate::WindowMeta;
use espice_events::{Event, SimDuration};

/// The outcome of a shedding decision for one (event, window) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Keep the event in the window.
    Keep,
    /// Drop the event from the window.
    Drop,
}

impl Decision {
    /// Whether this decision keeps the event.
    pub fn is_keep(self) -> bool {
        matches!(self, Decision::Keep)
    }
}

/// One (event, window) assignment within a batched shedding request.
///
/// A batch always concerns a *single* incoming event assigned to several open
/// windows at once, so the event itself is passed separately to
/// [`WindowEventDecider::decide_batch`] and each request only carries the
/// per-window part: the window metadata and the event's arrival position in
/// that window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRequest {
    /// Metadata of the window the event is being assigned to.
    pub meta: WindowMeta,
    /// 0-based arrival position of the event within that window.
    pub position: usize,
}

/// A measured snapshot of one shard's input queue, handed to deciders by
/// the streaming engine's drain loop (see
/// [`ShardedEngine::run_source`](crate::ShardedEngine::run_source)).
///
/// This is how the closed overload loop is wired without the CEP crate
/// knowing about overload detection: the drain loop periodically reports
/// what it *measured* — queue depth, events drained, busy time — and a
/// decider that implements [`WindowEventDecider::queue_sample`] can derive
/// its drain throughput and input rate from the deltas and switch shedding
/// on or off. Deciders that ignore the hook (the default) behave exactly as
/// in a slice-driven run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSample {
    /// Wall time since the shard's drain loop started.
    pub elapsed: SimDuration,
    /// Cumulative time the drain loop spent processing (i.e. `elapsed`
    /// minus the time spent waiting on an empty queue). The delta between
    /// two samples divided into `drained` is the shard's measured drain
    /// throughput.
    pub busy: SimDuration,
    /// Current depth of the shard's input queue (events pushed but not yet
    /// drained) — the quantity the overload detector compares against
    /// `f · qmax`.
    pub depth: usize,
    /// Events drained since the previous sample.
    pub drained: u64,
    /// (event, window) assignments decided since the previous sample,
    /// summed over every operator the queue serves.
    pub assignments: u64,
    /// Assignments *kept* since the previous sample. `kept / assignments`
    /// is the fraction of the no-shedding work the drain loop actually
    /// performed — what lets an overload controller normalise the drain
    /// rate it measures *during* shedding back to a no-shedding capacity
    /// estimate instead of freezing it.
    pub kept: u64,
    /// The operator's current window-size prediction, needed to partition
    /// windows into dropping intervals. In a multi-query engine each
    /// query's decider receives the sample with its *own* operator's
    /// prediction (queue state is shared; window geometry is not).
    pub predicted_window_size: usize,
}

/// Per-(event, window) shedding decision callback.
///
/// Implementations must be cheap: the operator calls [`decide`] once for every
/// event of every overlapping window ("it must be lightweight since it is
/// performed for every event in a window", paper §3.5).
///
/// `position` is the 0-based arrival index of the event within the window,
/// counting every event assigned to the window regardless of earlier drops,
/// so positions are consistent between shedded runs and the unshedded runs
/// the utility model was trained on.
///
/// [`decide`]: WindowEventDecider::decide
pub trait WindowEventDecider {
    /// Decides whether to keep `event` at `position` of the window described
    /// by `meta`.
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision;

    /// Decides a whole batch of (event, window) assignments for one incoming
    /// `event` at once, writing one decision per request into `decisions`
    /// (cleared first, same order as `requests`).
    ///
    /// The operator calls this instead of [`decide`] on its hot path so
    /// stateful shedders can amortise per-event work (utility-row and
    /// threshold lookups) over all windows the event belongs to. The default
    /// implementation delegates to [`decide`] per request, so existing
    /// deciders keep working unchanged; overrides must produce exactly the
    /// decisions the sequential delegation would, in the same order, because
    /// the two paths are interchangeable. Requests arrive ordered by window
    /// age (oldest open window first, i.e. ascending window id among the
    /// windows this operator materialises).
    ///
    /// [`decide`]: WindowEventDecider::decide
    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        decisions.clear();
        decisions.reserve(requests.len());
        for request in requests {
            decisions.push(self.decide(&request.meta, request.position, event));
        }
    }

    /// Decides a *span* of consecutive assignments to one window: `events`
    /// arrive at positions `start_position ..`, and every dropped position
    /// is appended to `drops` (absolute window positions, in increasing
    /// order). Returns the number of drops appended.
    ///
    /// This is the chunk-granular dual of [`decide_batch`]: where a batch is
    /// one event against many windows, a span is many consecutive events
    /// against one window, which lets compiled shedders walk a
    /// position-indexed verdict table sequentially and emit drops as
    /// monotone runs ([`DropSet::push_run`]). The operator guarantees each
    /// window sees its positions in increasing order across span and
    /// per-event calls alike; the interleaving *between* windows differs
    /// from the per-event path (span calls are window-major), so overrides
    /// must not couple decisions across windows beyond per-window state.
    /// Overrides must produce exactly the drops the sequential delegation
    /// would.
    ///
    /// [`decide_batch`]: WindowEventDecider::decide_batch
    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        // Drops are recorded as maximal runs: one `push_run` per run instead
        // of one `push` per drop.
        let mut dropped = 0;
        let mut run_start = start_position;
        for (offset, event) in events.iter().enumerate() {
            let position = start_position + offset;
            if self.decide(meta, position, event).is_keep() {
                if position > run_start {
                    drops.push_run(run_start, position - run_start);
                    dropped += position - run_start;
                }
                run_start = position + 1;
            }
        }
        let end = start_position + events.len();
        drops.push_run(run_start, end - run_start);
        dropped + (end - run_start)
    }

    /// Notifies the decider that a window has closed with `size` events
    /// assigned to it in total. Default: no-op. eSPICE uses this to update
    /// its window-size prediction and training statistics.
    ///
    /// The operator calls this exactly once per materialised window, before
    /// the closing window's events are matched. Deciders that key state on
    /// `meta.id` — such as eSPICE's per-window boundary-thinning
    /// accumulators — must release that state here; the operator guarantees
    /// no further decisions for this window id will follow, so per-window
    /// state stays bounded by the number of concurrently open windows.
    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        let _ = (meta, size);
    }

    /// Periodic queue measurement from the streaming engine's drain loop
    /// (every `check_interval`, when sampling is enabled). Default: no-op,
    /// so slice-driven deciders and static shedders are unaffected.
    /// Closed-loop shedders use this to measure overload from the *real*
    /// queue and (de)activate themselves — no precomputed rates involved.
    fn queue_sample(&mut self, sample: &QueueSample) {
        let _ = sample;
    }

    /// The per-window *partial-match* budget, consulted exactly once when
    /// the window described by `meta` opens. Default: `None`, meaning the
    /// operator tracks no partial-match store for the window and behaves
    /// exactly as before this hook existed.
    ///
    /// Returning `Some(budget)` arms pSPICE-style shedding for that window:
    /// the operator tracks the window's open partial matches and, whenever
    /// more than `budget` are live, evicts the one with the lowest
    /// utility-per-remaining-cost; kept events referenced only by evicted
    /// matches are retroactively dropped from the window. The decision is
    /// per *window open*, so a plan change applies to windows opened after
    /// it — already-open windows finish under the budget they started with
    /// (this is what keeps replay-based recovery deterministic).
    fn partial_match_budget(&mut self, meta: &WindowMeta) -> Option<usize> {
        let _ = meta;
        None
    }

    /// The utility contribution of keeping `event` at `position` of the
    /// window described by `meta`, feeding the partial-match store's
    /// utility-per-remaining-cost ordering. Only consulted for windows
    /// whose [`partial_match_budget`] returned `Some`. Default: 0 (every
    /// partial match ties; eviction falls back to dropping the youngest).
    ///
    /// Must be a **pure function** of `(meta, position, event)`: the
    /// per-event and chunked span paths consult it in different
    /// window-interleavings, and byte-identical output across shard counts
    /// and chunk sizes relies on both paths seeing the same utilities.
    ///
    /// [`partial_match_budget`]: WindowEventDecider::partial_match_budget
    fn constituent_utility(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> u8 {
        let _ = (meta, position, event);
        0
    }
}

/// A type-erased, engine-owned decider: one element of the dynamic decider
/// rows the lifecycle run paths ([`ShardedEngine::run_source_live`]) drive.
///
/// Static runs stay monomorphic (`&mut [D]`); the live paths need rows that
/// can grow on admission and shrink on retirement, and whose elements may be
/// *different* shedder types per query — both of which force type erasure.
///
/// [`ShardedEngine::run_source_live`]: crate::ShardedEngine::run_source_live
pub type BoxedDecider = Box<dyn WindowEventDecider + Send>;

/// Blanket implementation for boxed deciders (including boxed trait objects
/// of any subtrait of [`WindowEventDecider`], such as the runtime crate's
/// adaptive shedders), so `Vec<BoxedDecider>` rows plug into every generic
/// run method unchanged.
impl<D: WindowEventDecider + ?Sized> WindowEventDecider for Box<D> {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        (**self).decide(meta, position, event)
    }

    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        (**self).decide_batch(event, requests, decisions);
    }

    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        (**self).decide_span(meta, start_position, events, drops)
    }

    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        (**self).window_closed(meta, size);
    }

    fn queue_sample(&mut self, sample: &QueueSample) {
        (**self).queue_sample(sample);
    }

    fn partial_match_budget(&mut self, meta: &WindowMeta) -> Option<usize> {
        (**self).partial_match_budget(meta)
    }

    fn constituent_utility(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> u8 {
        (**self).constituent_utility(meta, position, event)
    }
}

/// A decider whose state stays observable after the decider itself has been
/// handed to (and possibly torn down by) a live engine run.
///
/// Boxed rows are *owned* by the run: an admitted query's decider moves into
/// the engine, and a retired query's decider is dropped at teardown. Tests
/// and reporting layers that need the decider's final state (shedder
/// counters, controller statistics) wrap it in a `SharedDecider`, keep a
/// [`clone`](Clone) outside, and read through [`lock`](SharedDecider::lock)
/// after the run — the shared state outlives the engine-owned handle.
pub struct SharedDecider<D> {
    inner: std::sync::Arc<std::sync::Mutex<D>>,
}

impl<D> SharedDecider<D> {
    /// Wraps `decider` in shared, lockable state.
    pub fn new(decider: D) -> Self {
        SharedDecider { inner: std::sync::Arc::new(std::sync::Mutex::new(decider)) }
    }

    /// Locks and returns the wrapped decider.
    ///
    /// A panic on the shard thread that held the lock (e.g. an injected
    /// fault) poisons it mid-decision at worst between two counter
    /// updates; the decider state stays usable for reporting, so the
    /// guard is recovered instead of cascading the panic into the reader.
    pub fn lock(&self) -> std::sync::MutexGuard<'_, D> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<D> Clone for SharedDecider<D> {
    fn clone(&self) -> Self {
        SharedDecider { inner: std::sync::Arc::clone(&self.inner) }
    }
}

impl<D> std::fmt::Debug for SharedDecider<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedDecider").finish_non_exhaustive()
    }
}

impl<D: WindowEventDecider> WindowEventDecider for SharedDecider<D> {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        self.lock().decide(meta, position, event)
    }

    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        self.lock().decide_batch(event, requests, decisions);
    }

    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        self.lock().decide_span(meta, start_position, events, drops)
    }

    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        self.lock().window_closed(meta, size);
    }

    fn queue_sample(&mut self, sample: &QueueSample) {
        self.lock().queue_sample(sample);
    }

    fn partial_match_budget(&mut self, meta: &WindowMeta) -> Option<usize> {
        self.lock().partial_match_budget(meta)
    }

    fn constituent_utility(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> u8 {
        self.lock().constituent_utility(meta, position, event)
    }
}

/// A decider that keeps every event. Used for ground-truth (no shedding) runs
/// and during model training.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeepAll;

impl WindowEventDecider for KeepAll {
    fn decide(&mut self, _meta: &WindowMeta, _position: usize, _event: &Event) -> Decision {
        Decision::Keep
    }
}

/// Blanket implementation so `&mut D` can be passed where a decider is
/// expected (mirrors the standard library's `io::Read for &mut R`).
impl<D: WindowEventDecider + ?Sized> WindowEventDecider for &mut D {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        (**self).decide(meta, position, event)
    }

    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        (**self).decide_batch(event, requests, decisions);
    }

    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        (**self).decide_span(meta, start_position, events, drops)
    }

    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        (**self).window_closed(meta, size);
    }

    fn queue_sample(&mut self, sample: &QueueSample) {
        (**self).queue_sample(sample);
    }

    fn partial_match_budget(&mut self, meta: &WindowMeta) -> Option<usize> {
        (**self).partial_match_budget(meta)
    }

    fn constituent_utility(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> u8 {
        (**self).constituent_utility(meta, position, event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_events::{EventType, Timestamp};

    fn meta() -> WindowMeta {
        WindowMeta { id: 0, query: 0, opened_at: Timestamp::ZERO, open_seq: 0, predicted_size: 10 }
    }

    #[test]
    fn keep_all_keeps_everything() {
        let mut d = KeepAll;
        let e = Event::new(EventType::from_index(0), Timestamp::ZERO, 0);
        for pos in 0..5 {
            assert_eq!(d.decide(&meta(), pos, &e), Decision::Keep);
        }
    }

    #[test]
    fn decision_is_keep() {
        assert!(Decision::Keep.is_keep());
        assert!(!Decision::Drop.is_keep());
    }

    /// A decider that drops every odd position; used to check the default
    /// batch implementation delegates per request in order.
    #[derive(Debug)]
    struct DropOdd;

    impl WindowEventDecider for DropOdd {
        fn decide(&mut self, _meta: &WindowMeta, position: usize, _event: &Event) -> Decision {
            if position % 2 == 1 {
                Decision::Drop
            } else {
                Decision::Keep
            }
        }
    }

    #[test]
    fn decide_batch_default_delegates_per_request() {
        let mut d = DropOdd;
        let e = Event::new(EventType::from_index(0), Timestamp::ZERO, 0);
        let requests: Vec<BatchRequest> =
            (0..5).map(|position| BatchRequest { meta: meta(), position }).collect();
        let mut decisions = vec![Decision::Drop; 9]; // stale content must be cleared
        d.decide_batch(&e, &requests, &mut decisions);
        assert_eq!(
            decisions,
            vec![Decision::Keep, Decision::Drop, Decision::Keep, Decision::Drop, Decision::Keep]
        );
        let mut empty = Vec::new();
        d.decide_batch(&e, &[], &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn decide_span_default_delegates_per_event() {
        let mut d = DropOdd;
        let events: Vec<Event> =
            (0..6).map(|seq| Event::new(EventType::from_index(0), Timestamp::ZERO, seq)).collect();
        let mut drops = DropSet::new();
        // Start at an odd position so drops land on the even offsets.
        let dropped = d.decide_span(&meta(), 3, &events, &mut drops);
        assert_eq!(dropped, 3);
        assert_eq!(drops.iter().collect::<Vec<_>>(), vec![3, 5, 7]);
        // Runs of consecutive drops — one that the span's end cuts short
        // included — are recorded whole and in order.
        struct KeepEveryFourth;
        impl WindowEventDecider for KeepEveryFourth {
            fn decide(&mut self, _meta: &WindowMeta, position: usize, _event: &Event) -> Decision {
                if position.is_multiple_of(4) {
                    Decision::Keep
                } else {
                    Decision::Drop
                }
            }
        }
        let mut runs = DropSet::new();
        assert_eq!(KeepEveryFourth.decide_span(&meta(), 3, &events, &mut runs), 4);
        assert_eq!(runs.iter().collect::<Vec<_>>(), vec![3, 5, 6, 7]);
        assert_eq!(KeepEveryFourth.decide_span(&meta(), 9, &events[..1], &mut runs), 1);
        assert_eq!(runs.iter().collect::<Vec<_>>(), vec![3, 5, 6, 7, 9]);
        // Boxed deciders forward the override-able span hook.
        let mut boxed: Box<dyn WindowEventDecider + Send> = Box::new(DropOdd);
        let mut boxed_drops = DropSet::new();
        assert_eq!(boxed.decide_span(&meta(), 3, &events, &mut boxed_drops), 3);
        assert_eq!(boxed_drops.iter().collect::<Vec<_>>(), vec![3, 5, 7]);
    }

    #[test]
    fn mutable_reference_is_a_decider() {
        fn takes_decider<D: WindowEventDecider>(d: &mut D) -> Decision {
            let e = Event::new(EventType::from_index(0), Timestamp::ZERO, 0);
            d.decide(&meta(), 0, &e)
        }
        let mut keep = KeepAll;
        let mut by_ref = &mut keep;
        assert_eq!(takes_decider(&mut by_ref), Decision::Keep);
    }
}
