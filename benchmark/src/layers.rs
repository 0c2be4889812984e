//! Direct timed calls into single layers, through their public functions.
//!
//! Each figure is a mean over enough calls to last milliseconds, on the
//! calling thread alone. They are layer numbers, not end-to-end ones: they
//! show where a change landed, not whether a user would notice it.

use crate::phases::SetupOutcome;
use espice::{OverloadConfig, QueueOverloadController, ShedPlan};
use espice_cep::queue::spsc;
use espice_cep::{
    ChunkBuilder, DropSet, EntryRef, KeepAll, Matcher, QueueSample, ShardedEngine, WindowMeta,
};
use espice_events::{Event, EventStream, SimDuration, Timestamp};
use std::hint::black_box;
use std::time::Instant;

/// The single-layer figures of one workload.
pub struct LayerFigures {
    pub arena_push_ns_per_event: f64,
    pub queue_handoff_ns: f64,
    pub slice_ns_per_event: f64,
    pub match_ns_per_window_nodrops: f64,
    pub match_ns_per_window_drops50: f64,
    pub dropset_push_run_ns_per_drop: f64,
    pub apply_cold_us: f64,
    pub span_warm_ns_per_assignment: f64,
    pub control_sample_ns: f64,
}

fn ns_per(started: Instant, items: u64) -> f64 {
    started.elapsed().as_nanos() as f64 / items.max(1) as f64
}

pub fn measure(setup: &SetupOutcome) -> LayerFigures {
    let prepared = &setup.prepared;
    let events = setup.prefix.events();
    let primary = prepared.primary();
    let query = &prepared.queries.queries()[primary];
    let window = query
        .window()
        .expected_size()
        .or(prepared.window_size_hint)
        .expect("a time window has a profiled size")
        .min(events.len());

    // cep::arena: append each event once into 256-event chunks.
    let started = Instant::now();
    let mut builder = ChunkBuilder::new(espice_cep::DEFAULT_CHUNK_CAPACITY);
    let mut chunks = Vec::new();
    for event in events {
        if let Some(chunk) = builder.push(event.clone()) {
            chunks.push(chunk);
        }
    }
    let arena_push_ns_per_event = ns_per(started, events.len() as u64);

    // cep::queue: one uncontended push and pop of a chunk reference.
    let (mut producer, mut consumer) = spsc(chunks.len().max(1));
    let rounds = 50u64;
    let started = Instant::now();
    for _ in 0..rounds {
        for chunk in &chunks {
            let pushed = producer.push_weighted(chunk.clone(), chunk.len() as u64);
            assert!(pushed.is_ok(), "the queue holds every chunk");
        }
        while let Some(chunk) = consumer.pop() {
            consumer.consume_events(chunk.len() as u64);
            black_box(chunk);
        }
    }
    let queue_handoff_ns = ns_per(started, rounds * chunks.len() as u64);
    drop(chunks);

    // cep::engine: the same queries over a materialised slice, one thread,
    // nothing shed. The single-thread baseline for the streaming capacity.
    let mut engine = ShardedEngine::for_queries(prepared.queries.clone(), 1);
    if let Some(hint) = prepared.window_size_hint {
        engine.set_window_size_hint(hint);
    }
    let mut keep = vec![KeepAll; prepared.queries.len()];
    let started = Instant::now();
    black_box(engine.run_slice_per_query(&setup.prefix, &mut keep));
    let slice_ns_per_event = ns_per(started, events.len() as u64);

    // cep::matcher: whole windows cut from the stream, nothing dropped and
    // every other event dropped.
    let matcher = Matcher::from_query(query);
    let windows = (events.len() / window).clamp(1, 400);
    let timed_match = |keep_every: usize| {
        let entries: Vec<Vec<EntryRef<'_>>> = (0..windows)
            .map(|w| {
                events[w * window..(w + 1) * window]
                    .iter()
                    .enumerate()
                    .filter(|(position, _)| position % keep_every == 0)
                    .map(|(position, event)| EntryRef { position, event })
                    .collect()
            })
            .collect();
        let started = Instant::now();
        for (id, entries) in entries.iter().enumerate() {
            black_box(matcher.matches_refs(id as u64, entries));
        }
        ns_per(started, windows as u64)
    };
    let match_ns_per_window_nodrops = timed_match(1);
    let match_ns_per_window_drops50 = timed_match(2);

    // cep::ring::DropSet: runs of eight drops, as the span kernel emits them.
    let sets = 2_000u64;
    let started = Instant::now();
    let mut dropped = 0u64;
    for _ in 0..sets {
        let mut set = DropSet::new();
        for start in (0..window).step_by(16) {
            set.push_run(start, 8);
        }
        dropped += set.len() as u64;
        black_box(&set);
    }
    let dropset_push_run_ns_per_drop = ns_per(started, dropped);

    // espice shedder: applying a fresh plan, then deciding whole windows
    // against it once its tables are warm.
    let mut shedder = prepared.shedders().swap_remove(primary);
    let plans = 20u32;
    let started = Instant::now();
    for step in 0..plans {
        shedder.apply_plan(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: window,
            events_to_drop: window as f64 * (0.10 + 0.01 * f64::from(step)),
        });
    }
    let apply_cold_us = ns_per(started, u64::from(plans)) / 1e3;
    let meta = WindowMeta {
        id: 0,
        query: primary as u32,
        opened_at: Timestamp::ZERO,
        open_seq: 0,
        predicted_size: window,
    };
    let span: &[Event] = &events[..window];
    black_box(shedder.decide_span(&meta, 0, span, &mut DropSet::new()));
    let repeats = (2_000_000 / window as u64).max(10);
    let started = Instant::now();
    for id in 1..=repeats {
        let mut drops = DropSet::new();
        black_box(shedder.decide_span(&WindowMeta { id, ..meta }, 0, span, &mut drops));
        shedder.window_closed(&WindowMeta { id, ..meta }, window);
    }
    let span_warm_ns_per_assignment = ns_per(started, repeats * window as u64);

    // espice::control: one queue check.
    let mut controller = QueueOverloadController::new(OverloadConfig {
        latency_bound: SimDuration::from_millis(100),
        check_interval: SimDuration::from_millis(10),
        ..OverloadConfig::default()
    });
    let samples = 200_000u64;
    let started = Instant::now();
    for tick in 1..=samples {
        let at = SimDuration::from_millis(10 * tick);
        black_box(controller.sample(&QueueSample {
            elapsed: at,
            busy: at,
            depth: (tick % 97 * 5_000) as usize,
            drained: 50_000,
            assignments: 2_000_000,
            kept: 1_900_000,
            predicted_window_size: window,
        }));
    }
    let control_sample_ns = ns_per(started, samples);

    LayerFigures {
        arena_push_ns_per_event,
        queue_handoff_ns,
        slice_ns_per_event,
        match_ns_per_window_nodrops,
        match_ns_per_window_drops50,
        dropset_push_run_ns_per_drop,
        apply_cold_us,
        span_warm_ns_per_assignment,
        control_sample_ns,
    }
}
