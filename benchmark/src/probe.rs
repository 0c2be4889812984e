//! The pass-through wrapper the engine sees in place of each shedder.
//!
//! It forwards every hook, and from the shard thread it measures what the
//! engine does not report itself: the latency of each event from its due time
//! to its first shedding decision, the processing rate over slices of the
//! stream, the cost of every `apply_plan`, and (in the traced pass) a span per
//! hook plus the time between hooks.

use crate::hist::Histogram;
use crate::source::Pace;
use crate::trace::{SpanKind, ThreadTrace, IDLE_GAP_NS};
use espice::ShedPlan;
use espice_cep::{BatchRequest, Decision, DropSet, WindowEventDecider, WindowMeta};
use espice_events::Event;
use espice_runtime::AdaptiveShedder;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What the probes of one run share. All of them run on the one shard
/// thread, so the atomics only carry values from one hook to the next (and
/// `abort` to the generator); none of them publishes other data.
pub struct RunShared {
    pub clock: Instant,
    /// `None` in the capacity phase: every event is due at once and no
    /// latency is taken.
    pub pace: Option<Pace>,
    /// Once the phase clock passes this the generator has stopped, and the
    /// probes drop everything still queued so a collapsed engine drains fast.
    pub cut_after_ns: u64,
    /// Events per throughput slice.
    pub slice_events: u64,
    /// The phase must run without shedding: the first active plan ends it.
    pub forbid_shedding: bool,
    pub abort: Arc<AtomicBool>,
    cut: AtomicBool,
    cut_at_ns: AtomicU64,
    last_exit_ns: AtomicU64,
    last_kind: AtomicU8,
}

impl RunShared {
    pub fn new(clock: Instant, pace: Option<Pace>, cut_after_ns: u64, slice_events: u64) -> Self {
        RunShared {
            clock,
            pace,
            cut_after_ns,
            slice_events: slice_events.max(1),
            forbid_shedding: false,
            abort: Arc::new(AtomicBool::new(false)),
            cut: AtomicBool::new(false),
            cut_at_ns: AtomicU64::new(0),
            last_exit_ns: AtomicU64::new(0),
            last_kind: AtomicU8::new(SpanKind::OperatorGap as u8),
        }
    }

    pub fn was_cut(&self) -> bool {
        self.cut.load(Ordering::Relaxed)
    }

    /// When the probes started dropping everything, on the phase clock.
    pub fn cut_at_ns(&self) -> Option<u64> {
        self.was_cut().then(|| self.cut_at_ns.load(Ordering::Relaxed))
    }

    fn cut_now(&self) {
        self.cut_at_ns.store(self.clock.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.cut.store(true, Ordering::Relaxed);
    }
}

pub struct Probe {
    inner: Box<dyn AdaptiveShedder + Send>,
    shared: Arc<RunShared>,
    /// One probe per run takes latency and throughput: the last query's,
    /// which sees each span after every other query has.
    primary: bool,
    last_first_seq: u64,
    next_mark: u64,
    /// Phase-clock time at which each slice of the stream had been processed.
    pub slice_done_ns: Vec<u64>,
    /// Due time to first decision in nanoseconds, one histogram per slice of
    /// the stream (by event position).
    pub latency: Vec<Histogram>,
    pub assignments: u64,
    pub drops: u64,
    pub plans: u64,
    pub apply_ns: u64,
    pub first_plan_ns: Option<u64>,
    pub trace: Option<ThreadTrace>,
}

impl Probe {
    pub fn new(
        inner: Box<dyn AdaptiveShedder + Send>,
        shared: Arc<RunShared>,
        primary: bool,
    ) -> Self {
        let next_mark = shared.slice_events;
        Probe {
            inner,
            shared,
            primary,
            last_first_seq: u64::MAX,
            next_mark,
            slice_done_ns: Vec::new(),
            latency: Vec::new(),
            assignments: 0,
            drops: 0,
            plans: 0,
            apply_ns: 0,
            first_plan_ns: None,
            trace: None,
        }
    }

    pub fn traced(mut self) -> Self {
        self.trace = Some(ThreadTrace::new("shard0", self.shared.clock));
        self
    }

    fn is_cut(&self) -> bool {
        self.shared.cut.load(Ordering::Relaxed)
    }

    /// Called once per run of consecutive events (the first window to decide
    /// it): one look at the clock covers the whole run.
    fn observe(&mut self, first_seq: u64, events: u64) {
        if !self.primary || first_seq == self.last_first_seq {
            return;
        }
        self.last_first_seq = first_seq;
        if let Some(pace) = self.shared.pace {
            let now = pace.now_ns();
            let slice = (first_seq / self.shared.slice_events) as usize;
            if self.latency.len() <= slice {
                self.latency.resize_with(slice + 1, Histogram::new);
            }
            self.latency[slice].record_n(now.saturating_sub(pace.due_ns(first_seq)), events);
            if now > self.shared.cut_after_ns {
                self.shared.cut_now();
            }
        }
        if first_seq + events >= self.next_mark {
            self.slice_done_ns.push(self.shared.clock.elapsed().as_nanos() as u64);
            self.next_mark += self.shared.slice_events;
        }
    }

    /// Start of a traced hook: the time since the previous hook on this
    /// thread returned goes to the operator, the matcher or idling.
    fn enter(&mut self) -> Option<u64> {
        let trace = self.trace.as_mut()?;
        let now = trace.now_ns();
        let last = self.shared.last_exit_ns.load(Ordering::Relaxed);
        if last != 0 {
            let after_close =
                self.shared.last_kind.load(Ordering::Relaxed) == SpanKind::WindowClosed as u8;
            let kind = if after_close {
                SpanKind::CloseGap
            } else if now.saturating_sub(last) >= IDLE_GAP_NS {
                SpanKind::ShardIdle
            } else {
                SpanKind::OperatorGap
            };
            trace.span(kind, last, now, 0);
        }
        Some(now)
    }

    fn exit(&mut self, kind: SpanKind, entered: Option<u64>, weight: u64) {
        if let (Some(entered), Some(trace)) = (entered, self.trace.as_mut()) {
            let now = trace.now_ns();
            trace.span(kind, entered, now, weight);
            self.shared.last_exit_ns.store(now, Ordering::Relaxed);
            self.shared.last_kind.store(kind as u8, Ordering::Relaxed);
        }
    }
}

impl WindowEventDecider for Probe {
    fn decide(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> Decision {
        if self.is_cut() {
            return Decision::Drop;
        }
        let entered = self.enter();
        let decision = self.inner.decide(meta, position, event);
        self.exit(SpanKind::Decide, entered, 1);
        self.assignments += 1;
        self.drops += u64::from(!decision.is_keep());
        decision
    }

    fn decide_batch(
        &mut self,
        event: &Event,
        requests: &[BatchRequest],
        decisions: &mut Vec<Decision>,
    ) {
        if self.is_cut() {
            decisions.clear();
            decisions.resize(requests.len(), Decision::Drop);
            return;
        }
        let entered = self.enter();
        self.inner.decide_batch(event, requests, decisions);
        self.exit(SpanKind::DecideBatch, entered, requests.len() as u64);
        self.assignments += requests.len() as u64;
        self.drops += decisions.iter().filter(|d| !d.is_keep()).count() as u64;
        self.observe(event.seq(), 1);
    }

    fn decide_span(
        &mut self,
        meta: &WindowMeta,
        start_position: usize,
        events: &[Event],
        drops: &mut DropSet,
    ) -> usize {
        if self.is_cut() {
            drops.push_run(start_position, events.len());
            return events.len();
        }
        let entered = self.enter();
        let dropped = self.inner.decide_span(meta, start_position, events, drops);
        self.exit(SpanKind::DecideSpan, entered, events.len() as u64);
        self.assignments += events.len() as u64;
        self.drops += dropped as u64;
        if let Some(first) = events.first() {
            self.observe(first.seq(), events.len() as u64);
        }
        dropped
    }

    fn window_closed(&mut self, meta: &WindowMeta, size: usize) {
        let entered = if self.is_cut() { None } else { self.enter() };
        self.inner.window_closed(meta, size);
        self.exit(SpanKind::WindowClosed, entered, 1);
    }

    // `queue_sample` never arrives here: `ClosedLoopShedder` turns each sample
    // into `apply_plan` or `deactivate` itself.

    fn partial_match_budget(&mut self, meta: &WindowMeta) -> Option<usize> {
        let entered = self.enter();
        let budget = self.inner.partial_match_budget(meta);
        self.exit(SpanKind::PartialBudget, entered, 1);
        budget
    }

    fn constituent_utility(&mut self, meta: &WindowMeta, position: usize, event: &Event) -> u8 {
        let entered = self.enter();
        let utility = self.inner.constituent_utility(meta, position, event);
        self.exit(SpanKind::ConstituentUtility, entered, 1);
        utility
    }
}

impl AdaptiveShedder for Probe {
    fn apply_plan(&mut self, plan: ShedPlan) {
        if self.is_cut() {
            return;
        }
        if self.shared.forbid_shedding && plan.active {
            self.shared.abort.store(true, Ordering::Relaxed);
            self.shared.cut_now();
            self.plans += 1;
            return;
        }
        let entered = self.enter();
        let started = self.shared.clock.elapsed().as_nanos() as u64;
        self.inner.apply_plan(plan);
        let ended = self.shared.clock.elapsed().as_nanos() as u64;
        self.exit(SpanKind::ApplyPlan, entered, 1);
        self.plans += 1;
        self.apply_ns += ended - started;
        self.first_plan_ns.get_or_insert(started);
    }

    fn deactivate(&mut self) {
        if self.is_cut() {
            return;
        }
        let entered = self.enter();
        self.inner.deactivate();
        self.exit(SpanKind::Deactivate, entered, 1);
    }

    fn is_active(&self) -> bool {
        self.inner.is_active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espice_events::{EventType, Timestamp};
    use std::time::Duration;

    /// Drops every odd position and counts the hooks it saw.
    #[derive(Default)]
    struct OddDropper {
        active: bool,
        closed: u64,
    }

    impl WindowEventDecider for OddDropper {
        fn decide(&mut self, _: &WindowMeta, position: usize, _: &Event) -> Decision {
            if self.active && position % 2 == 1 {
                Decision::Drop
            } else {
                Decision::Keep
            }
        }

        fn window_closed(&mut self, _: &WindowMeta, _: usize) {
            self.closed += 1;
        }
    }

    impl AdaptiveShedder for OddDropper {
        fn apply_plan(&mut self, plan: ShedPlan) {
            self.active = plan.active;
        }

        fn deactivate(&mut self) {
            self.active = false;
        }

        fn is_active(&self) -> bool {
            self.active
        }
    }

    fn events(from: u64, n: u64) -> Vec<Event> {
        (from..from + n)
            .map(|i| Event::new(EventType::from_index(0), Timestamp::from_millis(i), i))
            .collect()
    }

    fn meta() -> WindowMeta {
        WindowMeta { id: 0, query: 0, opened_at: Timestamp::ZERO, open_seq: 0, predicted_size: 100 }
    }

    fn plan() -> ShedPlan {
        ShedPlan { active: true, partitions: 1, partition_size: 100, events_to_drop: 50.0 }
    }

    #[test]
    fn the_probe_passes_decisions_through_and_tallies_them() {
        let shared = Arc::new(RunShared::new(Instant::now(), None, u64::MAX, 8));
        let mut probe = Probe::new(Box::new(OddDropper::default()), shared, true);
        probe.apply_plan(plan());
        assert!(probe.is_active());
        let mut drops = DropSet::new();
        let span = events(0, 10);
        assert_eq!(probe.decide_span(&meta(), 0, &span, &mut drops), 5);
        assert_eq!(drops.iter().collect::<Vec<_>>(), vec![1, 3, 5, 7, 9]);
        assert_eq!((probe.assignments, probe.drops, probe.plans), (10, 5, 1));
        assert_eq!(probe.slice_done_ns.len(), 1, "10 events crossed the first 8-event mark");
        probe.deactivate();
        assert!(!probe.is_active());
    }

    #[test]
    fn latency_runs_from_the_due_time_and_is_taken_once_per_run_of_events() {
        // 1000 events/s from a start 1 s ago: event 500 was due 500 ms ago.
        let start = Instant::now() - Duration::from_secs(1);
        let pace = Pace::at_rate(start, 1_000.0);
        let shared = Arc::new(RunShared::new(start, Some(pace), u64::MAX, 1 << 40));
        let mut probe = Probe::new(Box::new(OddDropper::default()), shared, true);
        let span = events(500, 20);
        let mut drops = DropSet::new();
        probe.decide_span(&meta(), 0, &span, &mut drops);
        // The same run decided for a second window adds no samples.
        probe.decide_span(&WindowMeta { id: 1, ..meta() }, 0, &span, &mut drops);
        assert_eq!(probe.latency.len(), 1, "one slice so far");
        assert_eq!(probe.latency[0].len(), 20);
        let p50_ms = probe.latency[0].quantile(0.5) / 1e6;
        assert!((500.0..600.0).contains(&p50_ms), "p50 {p50_ms} ms");
    }

    #[test]
    fn after_the_cut_everything_is_dropped_without_asking_the_shedder() {
        let start = Instant::now() - Duration::from_secs(10);
        let pace = Pace::at_rate(start, 1_000.0);
        // The generator gave up 5 s ago.
        let shared = Arc::new(RunShared::new(start, Some(pace), 5_000_000_000, 1 << 40));
        let mut probe = Probe::new(Box::new(OddDropper::default()), Arc::clone(&shared), true);
        let mut drops = DropSet::new();
        assert_eq!(probe.decide_span(&meta(), 0, &events(0, 4), &mut drops), 0);
        assert!(shared.was_cut(), "the first look at the clock notices the deadline");
        assert_eq!(probe.decide_span(&meta(), 4, &events(4, 4), &mut drops), 4);
        assert_eq!(drops.iter().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
        probe.apply_plan(plan());
        assert!(!probe.is_active());
        assert_eq!((probe.assignments, probe.plans), (4, 0), "tallies stop at the cut");
    }

    #[test]
    fn a_phase_that_forbids_shedding_ends_at_the_first_active_plan() {
        let mut shared = RunShared::new(Instant::now(), None, u64::MAX, 8);
        shared.forbid_shedding = true;
        let shared = Arc::new(shared);
        let mut probe = Probe::new(Box::new(OddDropper::default()), Arc::clone(&shared), true);
        probe.apply_plan(ShedPlan::inactive());
        assert!(!shared.abort.load(Ordering::Relaxed));
        probe.apply_plan(plan());
        assert!(shared.abort.load(Ordering::Relaxed) && shared.was_cut());
        assert!(!probe.is_active(), "the plan never reached the shedder");
    }

    #[test]
    fn traced_hooks_and_the_gaps_between_them_add_up_to_the_thread_extent() {
        let shared = Arc::new(RunShared::new(Instant::now(), None, u64::MAX, 1 << 40));
        let mut probe = Probe::new(Box::new(OddDropper::default()), shared, true).traced();
        let mut drops = DropSet::new();
        for round in 0..50u64 {
            probe.decide_span(&meta(), (round * 10) as usize, &events(round * 10, 10), &mut drops);
        }
        probe.window_closed(&meta(), 500);
        probe.decide_span(&WindowMeta { id: 1, ..meta() }, 0, &events(500, 10), &mut drops);
        let trace = probe.trace.take().expect("traced");
        assert_eq!(trace.stats(SpanKind::DecideSpan).count, 51);
        assert_eq!(trace.stats(SpanKind::DecideSpan).weight, 510);
        assert_eq!(trace.stats(SpanKind::WindowClosed).count, 1);
        assert_eq!(trace.stats(SpanKind::CloseGap).count, 1);
        assert_eq!(
            trace.stats(SpanKind::OperatorGap).count + trace.stats(SpanKind::ShardIdle).count,
            50
        );
        assert_eq!(trace.attributed_ns(), trace.extent_ns());
    }
}
