//! Set-up and the measured phases: each phase is one run of the real engine
//! (`run_closed_loop_set`, one shard) fed by the looped generator.

use crate::hist::Histogram;
use crate::probe::{Probe, RunShared};
use crate::source::{LoopedSource, Pace, CLOCK_STRIDE};
use crate::trace::{PhaseTrace, SpanKind, ThreadTrace};
use crate::workload::{Prepared, WorkloadSpec};
use espice::OverloadConfig;
use espice_cep::{ComplexEvent, EngineStats, KeepAll, Operator, QueueStats};
use espice_events::{EventSource, SimDuration, VecStream};
use espice_runtime::streaming::{run_closed_loop_set, ShardControlReport, StreamingRunConfig};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const LATENCY_BOUND: Duration = Duration::from_millis(100);
const ACTIVATION_FRACTION: f64 = 0.8;
const CHECK_INTERVAL: Duration = Duration::from_millis(10);

/// How long after the last event was due the generator keeps offering what is
/// left: ten latency bounds. An event not released by then counts with the
/// time it had already waited.
pub const GRACE: Duration = Duration::from_secs(1);

/// Every phase is cut into this many equal slices of the stream, by event
/// position. Capacity is the median rate over the slices and a latency metric
/// the median over the slices of each slice's percentile, so one stall of the
/// host spoils a few slices, not the figure; under a collapse, where latency
/// falls steadily from slice to slice, many slices keep the median from
/// jumping by a whole slice's worth.
pub const SLICES: u64 = 32;
const LAST_SLICE: usize = SLICES as usize - 1;

fn overload(latency_bound: Duration) -> OverloadConfig {
    OverloadConfig {
        latency_bound: SimDuration::from_micros(latency_bound.as_micros() as u64),
        f: ACTIVATION_FRACTION,
        check_interval: SimDuration::from_micros(CHECK_INTERVAL.as_micros() as u64),
        ..OverloadConfig::default()
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// Closed loop: every event is due at once, the queue's backpressure sets
    /// the pace, and the latency bound is an hour so nothing sheds.
    Capacity,
    /// Open loop: event `i` is due at `i / (factor * capacity)`.
    Paced { factor: f64, capacity: f64 },
}

#[derive(Clone, Copy, Debug)]
pub struct PhaseSpec {
    pub name: &'static str,
    pub load: Load,
    pub events: u64,
    pub traced: bool,
    /// The phase is only valid if shedding never activates; it ends early if
    /// it does.
    pub forbid_shedding: bool,
}

pub struct PhaseOutcome {
    pub name: &'static str,
    pub wall_s: f64,
    pub offered: u64,
    pub released: u64,
    /// The probes dropped what was still queued when the generator stopped.
    pub cut: bool,
    /// Shedding activated in a phase that forbids it.
    pub aborted: bool,
    /// One fingerprint per complex event, per query, in emission order.
    pub outputs: Vec<Vec<u64>>,
    pub stats: EngineStats,
    pub queue: QueueStats,
    pub control: Vec<ShardControlReport>,
    /// Due time to first decision in nanoseconds, one histogram per slice of
    /// the stream; events never released are in with the time they had waited
    /// when the generator stopped.
    pub latency: Vec<Histogram>,
    /// How late the generator released each batch, nanoseconds.
    pub lateness: Histogram,
    /// Events per second over each slice of the stream the shard finished.
    pub slice_rates: Vec<f64>,
    /// Decisions and drops up to the cut.
    pub assignments: u64,
    pub drops: u64,
    pub plans: u64,
    pub apply_ns: u64,
    pub first_plan_ns: Option<u64>,
    /// When the probes cut the run short, on the phase clock.
    pub cut_at_ns: Option<u64>,
    pub trace: Option<PhaseTrace>,
}

impl PhaseOutcome {
    /// The `q`-quantile of latency in each slice from `first_slice` on that
    /// saw any event.
    pub fn latency_quantiles(&self, q: f64, first_slice: usize) -> Vec<f64> {
        self.latency[first_slice..]
            .iter()
            .filter(|slice| slice.len() > 0)
            .map(|slice| slice.quantile(q))
            .collect()
    }

    /// The `q`-quantile of latency over the whole phase.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        let mut whole = Histogram::new();
        for slice in &self.latency {
            whole.merge(slice);
        }
        whole.quantile(q)
    }

    pub fn complex_events(&self) -> usize {
        self.outputs.iter().map(Vec::len).sum()
    }

    /// The traced spans of `thread`, if this phase was traced.
    pub fn thread(&self, thread: usize) -> Option<&ThreadTrace> {
        self.trace.as_ref().and_then(|trace| trace.threads.get(thread))
    }

    pub fn span(&self, thread: usize, kind: SpanKind) -> crate::trace::SpanStats {
        self.thread(thread).map(|t| t.stats(kind)).unwrap_or_default()
    }
}

/// Index of the shard thread and the producer thread in a phase's trace.
pub const SHARD: usize = 0;
pub const PRODUCER: usize = 1;

fn fingerprint(query: usize, event: &ComplexEvent) -> u64 {
    // `DefaultHasher::new` has fixed keys, so fingerprints repeat across runs.
    let mut hasher = DefaultHasher::new();
    query.hash(&mut hasher);
    event.window_id().hash(&mut hasher);
    event.detected_at().as_micros().hash(&mut hasher);
    for constituent in event.constituents() {
        constituent.seq.hash(&mut hasher);
        constituent.event_type.index().hash(&mut hasher);
        constituent.position.hash(&mut hasher);
    }
    hasher.finish()
}

fn fingerprints(per_query: &[Vec<ComplexEvent>]) -> Vec<Vec<u64>> {
    per_query
        .iter()
        .enumerate()
        .map(|(query, events)| events.iter().map(|event| fingerprint(query, event)).collect())
        .collect()
}

/// Shares of the ground truth that `detected` misses, and that it adds.
pub fn quality<T: AsRef<[u64]>>(truth: &[T], detected: &[T]) -> (f64, f64) {
    let all = |lists: &[T]| -> HashSet<u64> {
        lists.iter().flat_map(|list| list.as_ref().iter().copied()).collect()
    };
    let (truth, detected) = (all(truth), all(detected));
    if truth.is_empty() {
        return (0.0, 0.0);
    }
    let missed = truth.difference(&detected).count() as f64;
    let added = detected.difference(&truth).count() as f64;
    (missed / truth.len() as f64, added / truth.len() as f64)
}

pub fn run_phase(prepared: &Prepared, spec: &PhaseSpec) -> PhaseOutcome {
    let bound = overload(LATENCY_BOUND);
    let (hint, overload_config) = match spec.load {
        Load::Capacity => (prepared.spec.nominal_rate, overload(Duration::from_secs(3600))),
        Load::Paced { capacity, .. } => (capacity, bound),
    };
    // Queue and chunk sizes always follow the 100 ms bound, so the capacity
    // phase ingests through the same buffers as the paced ones.
    let config = StreamingRunConfig {
        overload: overload_config,
        window_size_hint: prepared.window_size_hint,
        ..StreamingRunConfig::sized(1, bound, hint)
    };

    let clock = Instant::now();
    let pace = match spec.load {
        Load::Capacity => None,
        Load::Paced { factor, capacity } => Some(Pace::at_rate(clock, factor * capacity)),
    };
    let mut source = LoopedSource::new(prepared.template(), spec.events);
    let mut shared = RunShared::new(clock, pace, u64::MAX, spec.events.div_ceil(SLICES));
    shared.forbid_shedding = spec.forbid_shedding;
    if let Some(pace) = pace {
        source = source.paced(pace, GRACE, Arc::clone(&shared.abort));
        shared.cut_after_ns = source.stop_after_ns();
    }
    if spec.traced {
        source = source.traced(clock);
    }
    let shared = Arc::new(shared);

    let queries = prepared.queries.len();
    let mut probes: Vec<Probe> = prepared
        .shedders()
        .into_iter()
        .enumerate()
        .map(|(query, shedder)| {
            let probe = Probe::new(shedder, Arc::clone(&shared), query + 1 == queries);
            if spec.traced {
                probe.traced()
            } else {
                probe
            }
        })
        .collect();

    let outcome = run_closed_loop_set(
        &prepared.queries,
        &mut source,
        vec![probes.iter_mut().collect()],
        &config,
    );
    let wall = clock.elapsed();

    let released = source.released();
    let mut latency: Vec<Histogram> = (0..SLICES).map(|_| Histogram::new()).collect();
    let (mut assignments, mut drops, mut plans, mut apply_ns) = (0, 0, 0, 0);
    let mut first_plan_ns: Option<u64> = None;
    let mut slice_done_ns = Vec::new();
    let mut shard_trace: Option<ThreadTrace> = None;
    for probe in &mut probes {
        for (slice, recorded) in probe.latency.iter().enumerate() {
            latency[slice.min(LAST_SLICE)].merge(recorded);
        }
        assignments += probe.assignments;
        drops += probe.drops;
        plans += probe.plans;
        apply_ns += probe.apply_ns;
        first_plan_ns = match (first_plan_ns, probe.first_plan_ns) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        if !probe.slice_done_ns.is_empty() {
            slice_done_ns = std::mem::take(&mut probe.slice_done_ns);
        }
        if let Some(trace) = probe.trace.take() {
            match shard_trace.as_mut() {
                Some(merged) => merged.merge(trace),
                None => shard_trace = Some(trace),
            }
        }
    }
    if let Some(pace) = pace {
        // Events the generator never released waited at least until it
        // stopped; they count, in the batches they would have been released
        // in, with that lower bound.
        let stopped_ns = source.stopped_at_ns().unwrap_or(shared.cut_after_ns);
        let mut position = released;
        while position < spec.events {
            let batch = CLOCK_STRIDE.min(spec.events - position);
            let slice = ((position / shared.slice_events) as usize).min(LAST_SLICE);
            latency[slice].record_n(stopped_ns.saturating_sub(pace.due_ns(position)), batch);
            position += batch;
        }
    }
    let mut previous_ns = 0u64;
    let slice_rates = slice_done_ns
        .iter()
        .map(|&done_ns| {
            let rate = shared.slice_events as f64 / ((done_ns - previous_ns).max(1) as f64 / 1e9);
            previous_ns = done_ns;
            rate
        })
        .collect();

    let trace = spec.traced.then(|| PhaseTrace {
        phase: spec.name,
        wall_ns: wall.as_nanos() as u64,
        threads: shard_trace.into_iter().chain(source.take_trace()).collect(),
    });

    PhaseOutcome {
        name: spec.name,
        wall_s: wall.as_secs_f64(),
        offered: spec.events,
        released,
        cut: shared.was_cut(),
        aborted: shared.abort.load(std::sync::atomic::Ordering::Relaxed),
        outputs: fingerprints(&outcome.complex_events),
        stats: outcome.stats,
        queue: outcome.queues[0],
        control: outcome.control.into_iter().next().expect("one shard"),
        latency,
        lateness: source.lateness().clone(),
        slice_rates,
        assignments,
        drops,
        plans,
        apply_ns,
        first_plan_ns,
        cut_at_ns: shared.cut_at_ns(),
        trace,
    }
}

/// Everything phase 1 produced.
pub struct SetupOutcome {
    pub prepared: Prepared,
    pub total_s: f64,
    pub build_s: f64,
    pub oracle_s: f64,
    /// The looped prefix the oracle check ran over, kept for the direct
    /// single-thread measurements.
    pub prefix: VecStream,
}

/// Phase 1: generate the dataset from `seed`, train, build the shedders, and
/// check the engine against one plain `Operator` per query over the first
/// `oracle_events` looped events. Both sides flush at the end of the prefix,
/// so the outputs must be equal as a whole.
pub fn setup(
    spec: &'static WorkloadSpec,
    seed: u64,
    oracle_events: u64,
) -> Result<SetupOutcome, String> {
    let started = Instant::now();
    let prepared = Prepared::new(spec, seed);

    let build_started = Instant::now();
    let shedders = prepared.shedders();
    let build_s = build_started.elapsed().as_secs_f64();
    drop(shedders);

    let oracle_started = Instant::now();
    let mut source = LoopedSource::new(prepared.template(), oracle_events);
    let mut prefix = Vec::with_capacity(oracle_events as usize);
    while let Some(event) = source.next_event() {
        prefix.push(event);
    }
    let prefix = VecStream::from_ordered(prefix);
    let expected: Vec<Vec<ComplexEvent>> = prepared
        .queries
        .queries()
        .iter()
        .map(|query| Operator::new(query.clone()).run(&prefix, &mut KeepAll))
        .collect();
    let engine = run_phase(
        &prepared,
        &PhaseSpec {
            name: "oracle",
            load: Load::Capacity,
            events: oracle_events,
            traced: false,
            forbid_shedding: true,
        },
    );
    let oracle_s = oracle_started.elapsed().as_secs_f64();
    if engine.outputs != fingerprints(&expected) {
        return Err(format!(
            "prefix oracle mismatch on {}: the engine emitted {} complex events over the first {} events, a plain operator {}",
            spec.name,
            engine.complex_events(),
            oracle_events,
            expected.iter().map(Vec::len).sum::<usize>(),
        ));
    }
    if expected.iter().all(Vec::is_empty) {
        return Err(format!("{}: no complex event in the first {oracle_events} events", spec.name));
    }

    Ok(SetupOutcome {
        prepared,
        total_s: started.elapsed().as_secs_f64(),
        build_s,
        oracle_s,
        prefix,
    })
}
