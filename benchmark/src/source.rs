//! The load generator: an [`EventSource`] that replays the evaluation half of
//! a dataset in a loop, on a wall-clock schedule the engine cannot slow down.

use crate::hist::Histogram;
use crate::trace::{SpanKind, ThreadTrace};
use espice_events::{Event, EventSource, SimDuration};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many events are released per look at the clock.
pub const CLOCK_STRIDE: u64 = 64;

/// One in this many `next_event` calls is timed in a traced run. Odd, so the
/// timed calls visit every position of the engine's 256-event chunks.
const TRACE_STRIDE: u64 = 67;

/// The open-loop schedule: event `i` is due `i * ns_per_event` after `start`.
#[derive(Clone, Copy)]
pub struct Pace {
    pub start: Instant,
    pub ns_per_event: f64,
}

impl Pace {
    pub fn at_rate(start: Instant, events_per_s: f64) -> Self {
        Pace { start, ns_per_event: 1e9 / events_per_s }
    }

    pub fn due_ns(&self, position: u64) -> u64 {
        (position as f64 * self.ns_per_event) as u64
    }

    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Replays `template` lap after lap: `seq` is the global position and every
/// lap's timestamps are shifted by the lap span, so `(timestamp, seq)` stays
/// strictly increasing across the seam. Reports itself as paced in every
/// phase, so the engine's ingestion path is the same whether or not a
/// schedule is set.
pub struct LoopedSource<'a> {
    template: &'a [Event],
    lap_span: SimDuration,
    limit: u64,
    position: u64,
    index: usize,
    lap_shift: SimDuration,
    pace: Option<Pace>,
    /// The generator stops once the clock passes this, however many events
    /// are left: a collapsed engine costs bounded time.
    stop_after_ns: u64,
    /// Set by a probe to end the run early.
    abort: Arc<AtomicBool>,
    stopped_at_ns: Option<u64>,
    lateness: Histogram,
    trace: Option<ThreadTrace>,
    timed_call_ended: Option<u64>,
}

/// The timestamp distance between two laps: the template's extent plus one
/// mean inter-arrival gap, at least a microsecond.
pub fn lap_span(template: &[Event]) -> SimDuration {
    let first = template.first().expect("an empty template cannot be looped").timestamp();
    let last = template.last().expect("checked above").timestamp();
    let extent = last.saturating_since(first).as_micros();
    let gap = (extent / template.len().max(2) as u64).max(1);
    SimDuration::from_micros(extent + gap)
}

impl<'a> LoopedSource<'a> {
    /// A source that offers the first `limit` events of the looped template,
    /// all due at once.
    pub fn new(template: &'a [Event], limit: u64) -> Self {
        LoopedSource {
            template,
            lap_span: lap_span(template),
            limit,
            position: 0,
            index: 0,
            lap_shift: SimDuration::ZERO,
            pace: None,
            stop_after_ns: u64::MAX,
            abort: Arc::new(AtomicBool::new(false)),
            stopped_at_ns: None,
            lateness: Histogram::new(),
            trace: None,
            timed_call_ended: None,
        }
    }

    /// Releases events on `pace` and gives up `grace` after the last one was due.
    pub fn paced(mut self, pace: Pace, grace: Duration, abort: Arc<AtomicBool>) -> Self {
        self.stop_after_ns = pace.due_ns(self.limit) + grace.as_nanos() as u64;
        self.pace = Some(pace);
        self.abort = abort;
        self
    }

    pub fn traced(mut self, clock: Instant) -> Self {
        self.trace = Some(ThreadTrace::new("producer", clock));
        self
    }

    /// Events handed to the engine so far.
    pub fn released(&self) -> u64 {
        self.position
    }

    /// The deadline, on the schedule's clock.
    pub fn stop_after_ns(&self) -> u64 {
        self.stop_after_ns
    }

    /// When the generator gave up with events left, on the schedule's clock.
    pub fn stopped_at_ns(&self) -> Option<u64> {
        self.stopped_at_ns
    }

    /// How late each batch was released, in nanoseconds.
    pub fn lateness(&self) -> &Histogram {
        &self.lateness
    }

    pub fn take_trace(&mut self) -> Option<ThreadTrace> {
        self.trace.take()
    }

    /// Waits until the batch starting at the current position is due. Returns
    /// false if the generator must stop instead.
    fn wait_until_due(&mut self, pace: Pace) -> bool {
        let due = pace.due_ns(self.position);
        let mut waited_from = None;
        loop {
            let now = pace.now_ns();
            if now >= due {
                if let (Some(from), Some(trace)) = (waited_from, self.trace.as_mut()) {
                    trace.child(SpanKind::SourceWait, from, trace.now_ns());
                }
                if now > self.stop_after_ns || self.abort.load(Ordering::Relaxed) {
                    self.stopped_at_ns = Some(now);
                    return false;
                }
                self.lateness.record(now - due);
                return true;
            }
            if waited_from.is_none() {
                waited_from = self.trace.as_ref().map(ThreadTrace::now_ns);
            }
            // Sleeping, not spinning: the shard thread may share a core.
            std::thread::sleep(Duration::from_nanos(due - now));
        }
    }

    fn produce(&mut self) -> Option<Event> {
        if self.position >= self.limit {
            return None;
        }
        if self.position.is_multiple_of(CLOCK_STRIDE) {
            if let Some(pace) = self.pace {
                if !self.wait_until_due(pace) {
                    self.limit = self.position;
                    return None;
                }
            }
        }
        let template = &self.template[self.index];
        let event =
            template.with_timestamp(template.timestamp() + self.lap_shift).with_seq(self.position);
        self.position += 1;
        self.index += 1;
        if self.index == self.template.len() {
            self.index = 0;
            self.lap_shift =
                SimDuration::from_micros(self.lap_shift.as_micros() + self.lap_span.as_micros());
        }
        Some(event)
    }
}

impl EventSource for LoopedSource<'_> {
    fn next_event(&mut self) -> Option<Event> {
        // A traced run times one call in `TRACE_STRIDE` and the gap after it
        // (the engine's share of the producer thread between two pulls), so
        // the clock is read three times per stride, not twice per event.
        let timed = self.position.is_multiple_of(TRACE_STRIDE) || self.position >= self.limit;
        let gap_open = self.timed_call_ended.is_some();
        let Some(trace) = self.trace.as_mut().filter(|_| timed || gap_open) else {
            return self.produce();
        };
        let entered = trace.now_ns();
        if let Some(ended) = self.timed_call_ended.take() {
            trace.span(SpanKind::IngestGap, ended, entered, 1);
        }
        if !timed {
            return self.produce();
        }
        trace.enter(SpanKind::SourceNext, entered);
        let event = self.produce();
        let trace = self.trace.as_mut().expect("checked above");
        let left = trace.now_ns();
        trace.exit(SpanKind::SourceNext, left, 1);
        self.timed_call_ended = event.is_some().then_some(left);
        event
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some((self.limit - self.position) as usize))
    }

    fn is_paced(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Dataset, WORKLOADS};
    use espice_events::EventStream;

    fn assert_strictly_monotone(template: &[Event], laps: u64) {
        let limit = template.len() as u64 * laps + 17;
        let mut source = LoopedSource::new(template, limit);
        let mut previous: Option<Event> = None;
        let mut count = 0u64;
        while let Some(event) = source.next_event() {
            assert_eq!(event.seq(), count, "seq is the global position");
            if let Some(previous) = &previous {
                assert!(event.timestamp() >= previous.timestamp(), "time went back at {count}");
                assert!(previous < &event, "(timestamp, seq) must strictly increase at {count}");
                if count.is_multiple_of(template.len() as u64) {
                    assert!(
                        event.timestamp() > previous.timestamp(),
                        "a lap must start after the previous one ended (at {count})"
                    );
                }
            }
            previous = Some(event);
            count += 1;
        }
        assert_eq!(count, limit);
        assert_eq!(source.released(), limit);
    }

    #[test]
    fn looped_stock_stream_is_strictly_monotone_across_lap_seams() {
        let dataset = Dataset::generate(WORKLOADS[0].dataset, 3, 0.1);
        let events = dataset.stream().events();
        assert_strictly_monotone(&events[events.len() / 2..], 3);
    }

    #[test]
    fn looped_soccer_stream_is_strictly_monotone_across_lap_seams() {
        let spec = WORKLOADS.iter().find(|w| w.name == "soccer_q1_ladder").expect("listed");
        let dataset = Dataset::generate(spec.dataset, 5, 0.1);
        let events = dataset.stream().events();
        assert_strictly_monotone(&events[events.len() / 2..], 3);
    }

    #[test]
    fn a_paced_source_stops_at_its_deadline_and_reports_what_it_released() {
        let dataset = Dataset::generate(WORKLOADS[0].dataset, 3, 0.1);
        let events = dataset.stream().events();
        // A 10 s schedule of 10 M events that began 9.99 s ago and has no
        // grace: nearly everything is due at once, and 10 ms are left.
        let start = Instant::now() - Duration::from_millis(9_990);
        let pace = Pace::at_rate(start, 1e6);
        let abort = Arc::new(AtomicBool::new(false));
        let mut source = LoopedSource::new(events, 10_000_000).paced(pace, Duration::ZERO, abort);
        let mut released = 0;
        while source.next_event().is_some() {
            released += 1;
        }
        assert!(released > 0 && released < 10_000_000, "released {released}");
        assert_eq!(source.released(), released);
        assert_eq!(released % CLOCK_STRIDE, 0, "the clock is read once per stride");
        assert!(source.stopped_at_ns().expect("gave up") > source.stop_after_ns());
    }
}
