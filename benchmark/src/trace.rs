//! In-memory spans for the traced pass.
//!
//! Spans are recorded from the benchmark's own wrappers, around the calls the
//! engine makes into the source and the shedder. Every thread keeps, per span
//! name, a count, the total time, the self time (total minus the part covered
//! by child spans) and a weight (events or assignments handled), plus the
//! first [`RAW_PER_NAME`] spans as recorded. Nothing is written until the run
//! is over.

use crate::json::Json;
use std::time::Instant;

/// Raw spans kept per name, thread and phase.
pub const RAW_PER_NAME: usize = 1000;

/// The largest trace file written, in bytes.
pub const MAX_TRACE_BYTES: usize = 2_000_000;

/// A gap on the shard thread at least this long, with no call into the
/// shedder, is taken for the drain loop sleeping on an empty queue (its
/// backoff sleeps 100 us at a time). Shorter waits cannot be told from window
/// bookkeeping from outside the engine and count as operator time.
pub const IDLE_GAP_NS: u64 = 100_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum SpanKind {
    DecideSpan,
    DecideBatch,
    Decide,
    WindowClosed,
    ApplyPlan,
    Deactivate,
    PartialBudget,
    ConstituentUtility,
    /// Shard-thread time between two shedder calls: ring append, window
    /// bookkeeping, queue pop.
    OperatorGap,
    /// Shard-thread time from `window_closed` returning to the next shedder
    /// call: the matcher runs here.
    CloseGap,
    ShardIdle,
    SourceNext,
    SourceWait,
    /// Producer-thread time between two pulls: chunk building and hand-off.
    IngestGap,
}

pub const KINDS: [SpanKind; 14] = [
    SpanKind::DecideSpan,
    SpanKind::DecideBatch,
    SpanKind::Decide,
    SpanKind::WindowClosed,
    SpanKind::ApplyPlan,
    SpanKind::Deactivate,
    SpanKind::PartialBudget,
    SpanKind::ConstituentUtility,
    SpanKind::OperatorGap,
    SpanKind::CloseGap,
    SpanKind::ShardIdle,
    SpanKind::SourceNext,
    SpanKind::SourceWait,
    SpanKind::IngestGap,
];

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::DecideSpan => "espice.shedder.decide_span",
            SpanKind::DecideBatch => "espice.shedder.decide_batch",
            SpanKind::Decide => "espice.shedder.decide",
            SpanKind::WindowClosed => "espice.shedder.window_closed",
            SpanKind::ApplyPlan => "espice.shedder.apply_plan",
            SpanKind::Deactivate => "espice.shedder.deactivate",
            SpanKind::PartialBudget => "espice.shedder.partial_match_budget",
            SpanKind::ConstituentUtility => "espice.shedder.constituent_utility",
            SpanKind::OperatorGap => "cep.operator.window_pass",
            SpanKind::CloseGap => "cep.matcher.close_gap",
            SpanKind::ShardIdle => "runtime.shard.idle",
            SpanKind::SourceNext => "events.source.next_event",
            SpanKind::SourceWait => "events.source.pace_wait",
            SpanKind::IngestGap => "cep.ingest.handoff",
        }
    }
}

#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Events (source, ingest) or assignments (shedder calls) covered.
    pub weight: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct RawSpan {
    pub id: u64,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// 0 is the thread's root span.
    pub parent: u64,
}

struct OpenSpan {
    id: u64,
    kind: SpanKind,
    start_ns: u64,
    children_ns: u64,
}

/// The spans of one thread in one phase.
pub struct ThreadTrace {
    thread: &'static str,
    clock: Instant,
    stats: [SpanStats; KINDS.len()],
    raw: Vec<RawSpan>,
    raw_kept: [usize; KINDS.len()],
    open: Vec<OpenSpan>,
    next_id: u64,
    first_ns: u64,
    last_ns: u64,
}

impl ThreadTrace {
    pub fn new(thread: &'static str, clock: Instant) -> Self {
        ThreadTrace {
            thread,
            clock,
            stats: [SpanStats::default(); KINDS.len()],
            raw: Vec::new(),
            raw_kept: [0; KINDS.len()],
            open: Vec::new(),
            next_id: 1,
            first_ns: u64::MAX,
            last_ns: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    pub fn stats(&self, kind: SpanKind) -> SpanStats {
        self.stats[kind as usize]
    }

    /// Time from the first span's start to the last span's end.
    pub fn extent_ns(&self) -> u64 {
        self.last_ns.saturating_sub(self.first_ns)
    }

    /// Sum of the self times of every span: what the thread's extent must
    /// add up to if nothing was left unattributed.
    pub fn attributed_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.self_ns).sum()
    }

    /// Opens a span that may get children.
    pub fn enter(&mut self, kind: SpanKind, now_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(OpenSpan { id, kind, start_ns: now_ns, children_ns: 0 });
    }

    /// Closes the innermost open span, which must be of `kind`.
    pub fn exit(&mut self, kind: SpanKind, now_ns: u64, weight: u64) {
        let span = self.open.pop().expect("exit without enter");
        debug_assert_eq!(span.kind, kind);
        let total = now_ns.saturating_sub(span.start_ns);
        let parent = match self.open.last_mut() {
            Some(parent) => {
                parent.children_ns += total;
                parent.id
            }
            None => 0,
        };
        self.finish(span.id, kind, span.start_ns, now_ns, parent, span.children_ns, weight);
    }

    /// Records a finished span below the innermost open span.
    pub fn child(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        let parent = match self.open.last_mut() {
            Some(parent) => {
                parent.children_ns += end_ns.saturating_sub(start_ns);
                parent.id
            }
            None => 0,
        };
        self.finish(id, kind, start_ns, end_ns, parent, 0, 0);
    }

    /// Records a finished span directly below the thread's root.
    pub fn span(&mut self, kind: SpanKind, start_ns: u64, end_ns: u64, weight: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.finish(id, kind, start_ns, end_ns, 0, 0, weight);
    }

    #[allow(clippy::too_many_arguments)]
    fn finish(
        &mut self,
        id: u64,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        children_ns: u64,
        weight: u64,
    ) {
        let total = end_ns.saturating_sub(start_ns);
        let stats = &mut self.stats[kind as usize];
        stats.count += 1;
        stats.total_ns += total;
        stats.self_ns += total.saturating_sub(children_ns);
        stats.weight += weight;
        if self.raw_kept[kind as usize] < RAW_PER_NAME {
            self.raw_kept[kind as usize] += 1;
            self.raw.push(RawSpan { id, kind, start_ns, end_ns, parent });
        }
        self.first_ns = self.first_ns.min(start_ns);
        self.last_ns = self.last_ns.max(end_ns);
    }

    /// Folds in the spans another wrapper recorded on the same thread.
    pub fn merge(&mut self, other: ThreadTrace) {
        for (mine, theirs) in self.stats.iter_mut().zip(other.stats) {
            mine.count += theirs.count;
            mine.total_ns += theirs.total_ns;
            mine.self_ns += theirs.self_ns;
            mine.weight += theirs.weight;
        }
        // Ids stay unique within the thread.
        let offset = self.next_id;
        for mut span in other.raw {
            if self.raw_kept[span.kind as usize] < RAW_PER_NAME {
                self.raw_kept[span.kind as usize] += 1;
                span.id += offset;
                if span.parent != 0 {
                    span.parent += offset;
                }
                self.raw.push(span);
            }
        }
        self.next_id += other.next_id;
        self.first_ns = self.first_ns.min(other.first_ns);
        self.last_ns = self.last_ns.max(other.last_ns);
    }

    fn to_json(&self, raw_per_name: usize) -> Json {
        let spans = KINDS
            .iter()
            .filter(|&&kind| self.stats(kind).count > 0)
            .map(|&kind| {
                let stats = self.stats(kind);
                Json::object([
                    ("name", Json::str(kind.name())),
                    ("count", Json::uint(stats.count)),
                    ("total_ns", Json::uint(stats.total_ns)),
                    ("self_ns", Json::uint(stats.self_ns)),
                    ("weight", Json::uint(stats.weight)),
                ])
            })
            .collect();
        let mut kept = [0usize; KINDS.len()];
        let raw = self
            .raw
            .iter()
            .filter(|span| {
                kept[span.kind as usize] += 1;
                kept[span.kind as usize] <= raw_per_name
            })
            .map(|span| {
                Json::Array(vec![
                    Json::uint(span.id),
                    Json::str(span.kind.name()),
                    Json::uint(span.start_ns),
                    Json::uint(span.end_ns),
                    Json::uint(span.parent),
                ])
            })
            .collect();
        Json::object([
            ("thread", Json::str(self.thread)),
            (
                "root",
                Json::object([
                    ("id", Json::uint(0)),
                    ("name", Json::str(&format!("runtime.{}", self.thread))),
                    ("start_ns", Json::uint(self.first_ns.min(self.last_ns))),
                    ("end_ns", Json::uint(self.last_ns)),
                ]),
            ),
            ("spans", Json::Array(spans)),
            (
                "raw_columns",
                Json::Array(["id", "name", "start_ns", "end_ns", "parent"].map(Json::str).into()),
            ),
            ("raw", Json::Array(raw)),
        ])
    }
}

/// The traced threads of one phase.
pub struct PhaseTrace {
    pub phase: &'static str,
    pub wall_ns: u64,
    pub threads: Vec<ThreadTrace>,
}

/// Renders the trace file of one workload, shrinking the raw span lists until
/// the file fits [`MAX_TRACE_BYTES`].
pub fn render_trace_file(workload: &str, seed: u64, phases: &[PhaseTrace]) -> String {
    let mut raw_per_name = RAW_PER_NAME;
    loop {
        let document = Json::object([
            ("workload", Json::str(workload)),
            ("seed", Json::uint(seed)),
            ("clock", Json::str("nanoseconds since the phase started")),
            (
                "sampling",
                Json::str("producer thread: one next_event call in 67 and the gap after it are timed; shard thread: every call"),
            ),
            ("raw_spans_per_name", Json::uint(raw_per_name as u64)),
            (
                "phases",
                Json::Array(
                    phases
                        .iter()
                        .map(|phase| {
                            Json::object([
                                ("phase", Json::str(phase.phase)),
                                ("wall_ns", Json::uint(phase.wall_ns)),
                                (
                                    "threads",
                                    Json::Array(
                                        phase.threads.iter().map(|t| t.to_json(raw_per_name)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let text = document.render();
        if text.len() <= MAX_TRACE_BYTES || raw_per_name == 0 {
            return text;
        }
        raw_per_name /= 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_total_minus_children() {
        let mut trace = ThreadTrace::new("producer", Instant::now());
        trace.enter(SpanKind::SourceNext, 100);
        trace.child(SpanKind::SourceWait, 120, 180);
        trace.exit(SpanKind::SourceNext, 200, 1);
        trace.span(SpanKind::IngestGap, 200, 230, 1);
        let next = trace.stats(SpanKind::SourceNext);
        assert_eq!((next.count, next.total_ns, next.self_ns, next.weight), (1, 100, 40, 1));
        assert_eq!(trace.stats(SpanKind::SourceWait).self_ns, 60);
        assert_eq!(trace.extent_ns(), 130);
        assert_eq!(trace.attributed_ns(), 130, "self times add up to the extent");
        let wait = trace.raw.iter().find(|s| s.kind == SpanKind::SourceWait).expect("kept");
        let parent = trace.raw.iter().find(|s| s.kind == SpanKind::SourceNext).expect("kept");
        assert_eq!(wait.parent, parent.id);
        assert_eq!(parent.parent, 0);
    }

    #[test]
    fn raw_spans_are_capped_per_name_and_the_file_stays_under_its_limit() {
        let mut trace = ThreadTrace::new("shard0", Instant::now());
        for i in 0..200_000u64 {
            trace.span(SpanKind::DecideSpan, i * 10, i * 10 + 7, 50);
            trace.span(SpanKind::OperatorGap, i * 10 + 7, i * 10 + 10, 0);
        }
        assert_eq!(trace.raw.len(), 2 * RAW_PER_NAME);
        assert_eq!(trace.stats(SpanKind::DecideSpan).count, 200_000);
        let phases: Vec<PhaseTrace> = ["capacity", "r80", "r140"]
            .into_iter()
            .map(|phase| {
                let mut threads = Vec::new();
                for _ in 0..12 {
                    let mut t = ThreadTrace::new("shard0", Instant::now());
                    for kind in KINDS {
                        for i in 0..2_000u64 {
                            t.span(kind, 1_000_000_000 + i, 1_000_000_500 + i, 1);
                        }
                    }
                    threads.push(t);
                }
                PhaseTrace { phase, wall_ns: 1, threads }
            })
            .collect();
        let text = render_trace_file("stock_q4", 7, &phases);
        assert!(text.len() <= MAX_TRACE_BYTES, "{} bytes", text.len());
        assert!(crate::json::parse(&text).is_ok());
    }
}
