//! Property-based tests of the shedding algebra: thresholds, drop amounts,
//! baseline quota allocation and planner arithmetic.

use crate::{
    BaselineShedder, EspiceShedder, ModelBuilder, ModelConfig, OverloadConfig, RandomShedder,
    ShedPlan, ShedPlanner,
};
use espice_cep::reference::ReferenceOperator;
use espice_cep::{
    Operator, Pattern, Query, ShardedEngine, WindowEventDecider, WindowMeta, WindowSpec,
};
use espice_events::{Event, EventStream, EventType, SimDuration, Timestamp, VecStream};
use proptest::prelude::*;

/// Builds a model from a randomly composed window population.
fn model_from(window: &[u32], contributing: &[usize]) -> crate::UtilityModel {
    let positions = window.len().max(1);
    let mut builder = ModelBuilder::new(ModelConfig::with_positions(positions), 6);
    let meta = WindowMeta {
        id: 0,
        query: 0,
        opened_at: Timestamp::ZERO,
        open_seq: 0,
        predicted_size: positions,
    };
    for (pos, &ty) in window.iter().enumerate() {
        let _ = builder.decide(
            &meta,
            pos,
            &Event::new(EventType::from_index(ty), Timestamp::ZERO, pos as u64),
        );
    }
    builder.window_closed(&meta, positions);
    for &pos in contributing {
        let pos = pos % positions;
        builder.observe_complex(&espice_cep::ComplexEvent::new(
            0,
            Timestamp::ZERO,
            vec![espice_cep::Constituent {
                seq: pos as u64,
                event_type: EventType::from_index(window[pos]),
                position: pos,
            }],
        ));
    }
    builder.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The planner's arithmetic: qmax, the activation threshold and the buffer
    /// are consistent, partitions cover the window, and the drop amount
    /// removes exactly the rate surplus.
    #[test]
    fn planner_arithmetic_is_consistent(
        throughput in 100.0f64..10_000.0,
        f in 0.1f64..0.95,
        window_size in 10usize..20_000,
        overload in 1.01f64..2.0,
    ) {
        let planner = ShedPlanner::new(
            OverloadConfig { latency_bound: SimDuration::from_secs(1), f, ..OverloadConfig::default() },
            throughput,
        );
        prop_assert!(planner.activation_queue_length() <= planner.qmax());
        prop_assert!(planner.buffer_size() >= 1);
        let partitions = planner.partitions_for_window(window_size);
        prop_assert!(partitions >= 1);
        // The partition size never exceeds the buffer (the dropping-interval
        // constraint of §3.4) unless the buffer itself is a single event.
        let plan = planner.plan(throughput * overload, window_size);
        prop_assert!(plan.active);
        prop_assert!(plan.partitions == partitions);
        if planner.buffer_size() > 1 {
            prop_assert!(plan.partition_size <= planner.buffer_size() + 1);
        }
        // Removing x events every psize/R seconds removes the surplus δ.
        let removal_rate = plan.events_to_drop / (plan.partition_size as f64 / (throughput * overload));
        let delta = throughput * overload - throughput;
        prop_assert!((removal_rate - delta).abs() / delta < 1e-6);
    }

    /// The eSPICE shedder's realised drop rate over a long window stream stays
    /// close to the planned drop fraction whenever the utility distribution
    /// offers enough low-utility events.
    #[test]
    fn espice_drop_rate_tracks_the_plan(
        window in prop::collection::vec(0u32..6, 8..40),
        contributing in prop::collection::vec(0usize..40, 0..6),
        drop_fraction in 0.05f64..0.9,
    ) {
        let positions = window.len();
        let model = model_from(&window, &contributing);
        let mut shedder = EspiceShedder::new(model);
        let plan = ShedPlan {
            active: true,
            partitions: 1,
            partition_size: positions,
            events_to_drop: drop_fraction * positions as f64,
        };
        shedder.apply(plan);
        let meta = WindowMeta { id: 0, query: 0, opened_at: Timestamp::ZERO, open_seq: 0, predicted_size: positions };
        let mut drops = 0usize;
        let windows = 200usize;
        for _ in 0..windows {
            for (pos, &ty) in window.iter().enumerate() {
                let e = Event::new(EventType::from_index(ty), Timestamp::ZERO, pos as u64);
                if !shedder.decide(&meta, pos, &e).is_keep() {
                    drops += 1;
                }
            }
        }
        let realised = drops as f64 / (windows * positions) as f64;
        // The shedder drops at least the requested fraction (it may overshoot
        // only when whole utility levels cannot be split, which the boundary
        // thinning prevents up to one event per partition per window).
        prop_assert!(realised + 1.0 / positions as f64 + 0.02 >= drop_fraction,
            "realised {realised} vs requested {drop_fraction}");
        prop_assert!(realised <= drop_fraction + 1.0 / positions as f64 + 0.02,
            "realised {realised} overshoots {drop_fraction}");
    }

    /// Shard invariance of shedded output: because the boundary-thinning
    /// accumulator is keyed per window id (seeded from `WindowMeta.id`), an
    /// N-shard engine running one eSPICE shedder instance per shard drops
    /// exactly the *same events* as a 1-shard run — complex events and
    /// merged statistics (drops included) are identical for N ∈ {1, 2, 4}.
    /// With the old per-shedder-instance accumulator only the drop *amount*
    /// was shard-invariant.
    #[test]
    fn sharded_espice_shedding_is_event_identical(
        types in prop::collection::vec(0u32..6, 30..160),
        window_size in 4usize..16,
        slide in 1usize..4,
        drop_fraction in 0.1f64..0.8,
    ) {
        let model = model_from(&types[..window_size.min(types.len())], &[0, 2]);
        let plan = ShedPlan {
            active: true,
            partitions: 2,
            partition_size: window_size.div_ceil(2),
            events_to_drop: drop_fraction * window_size.div_ceil(2) as f64,
        };
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        let mut armed = EspiceShedder::new(model);
        armed.apply(plan);

        let mut single_shedder = armed.clone();
        let mut single = Operator::new(query.clone());
        let expected = single.run(&stream, &mut single_shedder);

        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            let mut deciders = vec![armed.clone(); shards];
            let merged = engine.run(&stream, &mut deciders);
            prop_assert_eq!(&merged, &expected, "complex events diverged at {} shards", shards);
            prop_assert_eq!(&engine.stats().merged, single.stats(),
                "stats diverged at {} shards", shards);
            let mut shed_stats = crate::ShedderStats::default();
            for decider in &deciders {
                shed_stats.merge(decider.stats());
            }
            prop_assert_eq!(shed_stats.drops, single_shedder.stats().drops);
            prop_assert_eq!(shed_stats.decisions, single_shedder.stats().decisions);
        }
    }

    /// Streaming-ingestion identity under active shedding: an armed eSPICE
    /// shedder driven through the stream-backed engine (bounded per-shard
    /// queues, producer fan-out, N ∈ {1, 2, 4}) drops exactly the same
    /// events as a slice-driven single-operator run — complex events,
    /// operator statistics and shedder counters included — even with
    /// capacity-1 queues where the producer backpressures on every push.
    #[test]
    fn streaming_espice_shedding_equals_slice_run(
        types in prop::collection::vec(0u32..6, 30..140),
        window_size in 4usize..14,
        slide in 1usize..4,
        drop_fraction in 0.1f64..0.8,
        tiny_queues in prop::bool::ANY,
    ) {
        let model = model_from(&types[..window_size.min(types.len())], &[0, 2]);
        let plan = ShedPlan {
            active: true,
            partitions: 2,
            partition_size: window_size.div_ceil(2),
            events_to_drop: drop_fraction * window_size.div_ceil(2) as f64,
        };
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        let mut armed = EspiceShedder::new(model);
        armed.apply(plan);

        let mut single_shedder = armed.clone();
        let mut single = Operator::new(query.clone());
        let expected = single.run(&stream, &mut single_shedder);

        let capacity = if tiny_queues { 1 } else { 32 };
        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            engine.set_queue_capacity(capacity);
            let mut deciders = vec![armed.clone(); shards];
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let merged = engine.run_source(&mut source, &mut deciders);
            prop_assert_eq!(&merged, &expected,
                "complex events diverged at {} shards, capacity {}", shards, capacity);
            prop_assert_eq!(&engine.stats().merged, single.stats(),
                "stats diverged at {} shards, capacity {}", shards, capacity);
            let mut shed_stats = crate::ShedderStats::default();
            for decider in &deciders {
                shed_stats.merge(decider.stats());
            }
            prop_assert_eq!(shed_stats.drops, single_shedder.stats().drops);
            prop_assert_eq!(shed_stats.decisions, single_shedder.stats().decisions);
        }
    }

    /// Multi-query fusion identity under eSPICE shedding: a fused engine
    /// running N queries (distinct window sizes over a mix of shared open
    /// policies) with one armed eSPICE shedder per (shard, query) produces,
    /// *per query*, exactly the complex events, operator statistics and
    /// shedder counters of an independent single-query engine armed the
    /// same way — for shard counts {1, 2, 4}, shedding on and off, on the
    /// slice and streaming backends. The boundary-thinning accumulator is
    /// keyed per `(query, window id)`, so queries cannot bleed thinning
    /// phase into each other even though their window ids collide.
    #[test]
    fn fused_multi_query_espice_shedding_is_event_identical(
        types in prop::collection::vec(0u32..6, 30..140),
        window_a in 4usize..12,
        window_b in 5usize..16,
        slide in 1usize..4,
        drop_fraction in 0.1f64..0.8,
        shedding_on in prop::bool::ANY,
        streaming in prop::bool::ANY,
    ) {
        let model = model_from(&types[..window_a.min(types.len())], &[0, 2]);
        let make_query = |size: usize| {
            Query::builder()
                .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
                .window(WindowSpec::count_sliding(size, slide))
                .build()
        };
        let set = espice_cep::QuerySet::new(vec![make_query(window_a), make_query(window_b)]);
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        // One armed template per query: each query sheds against its own
        // window geometry.
        let armed: Vec<EspiceShedder> = set
            .queries()
            .iter()
            .map(|query| {
                let size = query.window().expected_size().expect("count windows");
                let mut shedder = EspiceShedder::new(model.clone());
                if shedding_on {
                    shedder.apply(ShedPlan {
                        active: true,
                        partitions: 2,
                        partition_size: size.div_ceil(2),
                        events_to_drop: drop_fraction * size.div_ceil(2) as f64,
                    });
                }
                shedder
            })
            .collect();

        for shards in [1usize, 2, 4] {
            let mut fused = ShardedEngine::for_queries(set.clone(), shards);
            // Shard-major deciders: every shard gets a clone of each
            // query's armed template.
            let mut deciders: Vec<EspiceShedder> = (0..shards)
                .flat_map(|_| armed.iter().cloned())
                .collect();
            let per_query = if streaming {
                let mut source = espice_events::SliceSource::from_stream(&stream);
                fused.run_source_per_query(&mut source, &mut deciders)
            } else {
                fused.run_slice_per_query(&stream, &mut deciders)
            };
            let fused_stats = fused.stats();

            for (id, query) in set.iter() {
                let id = id as usize;
                let mut solo = ShardedEngine::new(query.clone(), shards);
                let mut solo_deciders = vec![armed[id].clone(); shards];
                let expected = solo.run_slice(&stream, &mut solo_deciders);
                prop_assert_eq!(&per_query[id], &expected,
                    "query {} complex events diverged at {} shards (shedding={}, streaming={})",
                    id, shards, shedding_on, streaming);
                prop_assert_eq!(&fused_stats.per_query[id], &solo.stats().merged,
                    "query {} stats diverged at {} shards", id, shards);

                // Shedder counters: sum the fused deciders of query `id`
                // across shards and compare with the independent engine's.
                let mut fused_counters = crate::ShedderStats::default();
                for shard in 0..shards {
                    fused_counters.merge(deciders[shard * set.len() + id].stats());
                }
                let mut solo_counters = crate::ShedderStats::default();
                for decider in &solo_deciders {
                    solo_counters.merge(decider.stats());
                }
                prop_assert_eq!(fused_counters, solo_counters,
                    "query {} shedder counters diverged at {} shards", id, shards);
            }
            if shedding_on {
                prop_assert!(fused_stats.merged.dropped > 0 || fused_stats.merged.assignments == 0,
                    "an armed shedder over a non-trivial stream should drop something");
            } else {
                prop_assert_eq!(fused_stats.merged.dropped, 0);
            }
        }
    }

    /// The lifecycle acceptance pin: a streaming run that **admits a query
    /// mid-stream and retires another**, with armed eSPICE shedders on
    /// every slot, is identical to the static-engine oracles per query —
    /// complex events, operator statistics *and shedder counters*. The
    /// admitted slot equals a fresh static engine (with identically armed
    /// shedders) over `events[k..]`; the surviving slot equals its static
    /// full-stream run; the retired slot's shedders are torn down after
    /// its windows drained, with their counters still observable through
    /// the [`SharedDecider`] handles kept outside the engine.
    #[test]
    fn lifecycle_churn_with_espice_shedders_is_pinned_against_static_oracles(
        types in prop::collection::vec(0u32..6, 40..140),
        window_keep in 4usize..12,
        window_retire in 5usize..14,
        window_admit in 4usize..12,
        slide in 1usize..4,
        drop_fraction in 0.1f64..0.8,
        admit_frac in 0.2f64..0.8,
        retire_frac in 0.2f64..0.8,
        streaming in prop::bool::ANY,
    ) {
        use espice_cep::{BoxedDecider, SharedDecider};

        let model = model_from(&types[..window_keep.min(types.len())], &[0, 2]);
        let make_query = |size: usize| {
            Query::builder()
                .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
                .window(WindowSpec::count_sliding(size, slide))
                .build()
        };
        let armed = |size: usize| {
            let mut shedder = EspiceShedder::new(model.clone());
            shedder.apply(ShedPlan {
                active: true,
                partitions: 2,
                partition_size: size.div_ceil(2),
                events_to_drop: drop_fraction * size.div_ceil(2) as f64,
            });
            shedder
        };
        let set = espice_cep::QuerySet::new(vec![
            make_query(window_retire),
            make_query(window_keep),
        ]);
        let admitted_query = make_query(window_admit);
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);
        let admit_at = ((stream.len() as f64 * admit_frac) as u64).min(stream.len() as u64 - 1);
        let retire_at = ((stream.len() as f64 * retire_frac) as u64).min(stream.len() as u64 - 1);
        let suffix = VecStream::from_ordered(stream.events()[admit_at as usize..].to_vec());
        let window_sizes = [window_retire, window_keep, window_admit];

        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::for_queries(set.clone(), shards);
            let control = engine.control();
            control.retire_at(retire_at, engine.query_handle(0).expect("live"));

            // Observation handles per (shard, slot): the shedders move
            // into the engine boxed; the clones stay out here so the
            // counters survive even the retired slot's teardown.
            let mut observers: Vec<Vec<SharedDecider<EspiceShedder>>> =
                (0..shards).map(|_| Vec::new()).collect();
            let row_for = |slot: usize, observers: &mut Vec<Vec<SharedDecider<EspiceShedder>>>| {
                (0..shards)
                    .map(|shard| {
                        let decider = SharedDecider::new(armed(window_sizes[slot]));
                        observers[shard].push(decider.clone());
                        Box::new(decider) as BoxedDecider
                    })
                    .collect::<Vec<_>>()
            };
            let retired_row = row_for(0, &mut observers);
            let survivor_row = row_for(1, &mut observers);
            control.admit_at(admit_at, admitted_query.clone(), row_for(2, &mut observers));

            // Shard-major initial deciders: [shard0: slot0, slot1, ...].
            let mut initial: Vec<BoxedDecider> = Vec::new();
            let mut rows = vec![retired_row, survivor_row];
            for _ in 0..shards {
                for row in &mut rows {
                    initial.push(row.remove(0));
                }
            }

            let outcome = if streaming {
                let mut source = espice_events::SliceSource::from_stream(&stream);
                engine.run_source_live(&mut source, initial)
            } else {
                engine.run_slice_live(&stream, initial)
            };
            let stats = engine.stats();
            let counters = |slot: usize, observers: &Vec<Vec<SharedDecider<EspiceShedder>>>| {
                let mut merged = crate::ShedderStats::default();
                for row in observers {
                    merged.merge(row[slot].lock().stats());
                }
                merged
            };

            // Admitted slot vs a fresh engine over the suffix, identically
            // armed.
            let mut fresh = ShardedEngine::new(admitted_query.clone(), shards);
            let mut fresh_deciders = vec![armed(window_admit); shards];
            let expected_admitted = fresh.run_slice(&suffix, &mut fresh_deciders);
            prop_assert_eq!(&outcome.complex_events[2], &expected_admitted,
                "admitted complex events diverged at {} shards (streaming={})", shards, streaming);
            prop_assert_eq!(&stats.per_query[2], &fresh.stats().merged);
            let mut fresh_counters = crate::ShedderStats::default();
            for decider in &fresh_deciders {
                fresh_counters.merge(decider.stats());
            }
            prop_assert_eq!(counters(2, &observers), fresh_counters,
                "admitted shedder counters diverged at {} shards", shards);

            // Surviving slot vs its static full-stream run.
            let mut solo = ShardedEngine::new(set.queries()[1].clone(), shards);
            let mut solo_deciders = vec![armed(window_keep); shards];
            let expected_survivor = solo.run_slice(&stream, &mut solo_deciders);
            prop_assert_eq!(&outcome.complex_events[1], &expected_survivor,
                "survivor complex events diverged at {} shards (streaming={})", shards, streaming);
            prop_assert_eq!(&stats.per_query[1], &solo.stats().merged);
            let mut solo_counters = crate::ShedderStats::default();
            for decider in &solo_deciders {
                solo_counters.merge(decider.stats());
            }
            prop_assert_eq!(counters(1, &observers), solo_counters,
                "survivor shedder counters diverged at {} shards", shards);

            // Retired slot: deciders torn down (per-window boundary state
            // released with the last drained window), output a prefix of
            // the static run, counters frozen at the teardown.
            for row in &outcome.deciders {
                prop_assert!(row[0].is_none(), "retired decider must be dropped");
            }
            let mut full = ShardedEngine::new(set.queries()[0].clone(), shards);
            let mut full_deciders = vec![armed(window_retire); shards];
            let expected_full = full.run_slice(&stream, &mut full_deciders);
            let retired = &outcome.complex_events[0];
            prop_assert!(retired.len() <= expected_full.len());
            prop_assert_eq!(retired.as_slice(), &expected_full[..retired.len()]);
            let retired_counters = counters(0, &observers);
            prop_assert!(retired_counters.decisions <= {
                let mut all = crate::ShedderStats::default();
                for decider in &full_deciders {
                    all.merge(decider.stats());
                }
                all
            }.decisions);
            for row in &observers {
                prop_assert_eq!(row[0].lock().tracked_windows(), 0,
                    "retired shedder must have released its per-window state");
            }
        }
    }

    /// High-overlap identity under an active plan (slide ≪ window): the
    /// ring-backed operator with an armed eSPICE shedder produces exactly
    /// the complex events and operator statistics of the seed per-window
    /// reference implementation driving an identically armed shedder.
    #[test]
    fn ring_operator_matches_reference_under_active_shedding(
        types in prop::collection::vec(0u32..6, 40..200),
        window_size in 8usize..24,
        slide in 1usize..3,
        drop_fraction in 0.1f64..0.7,
    ) {
        let model = model_from(&types[..window_size.min(types.len())], &[1, 3]);
        let plan = ShedPlan {
            active: true,
            partitions: 3,
            partition_size: window_size.div_ceil(3),
            events_to_drop: drop_fraction * window_size.div_ceil(3) as f64,
        };
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        let mut armed = EspiceShedder::new(model);
        armed.apply(plan);

        let mut reference_shedder = armed.clone();
        let mut reference = ReferenceOperator::new(query.clone());
        let expected = reference.run(&stream, &mut reference_shedder);

        let mut ring_shedder = armed;
        let mut ring = Operator::new(query);
        let actual = ring.run(&stream, &mut ring_shedder);

        prop_assert_eq!(&actual, &expected);
        prop_assert_eq!(ring.stats(), reference.stats());
        prop_assert_eq!(ring_shedder.stats(), reference_shedder.stats());
        // Overlap >= 4: shared storage must beat per-window storage even
        // though the ring also retains the dropped slots.
        if window_size / slide >= 4 && reference_shedder.stats().drop_ratio() < 0.5 {
            prop_assert!(ring.peak_resident_entries() <= reference.peak_resident_entries());
        }
    }

    /// The baseline's expected drops per window equal the quota whenever the
    /// quota is feasible, and all probabilities are valid.
    #[test]
    fn baseline_quota_is_met_in_expectation(
        window in prop::collection::vec(0u32..6, 4..40),
        pattern_types in prop::collection::vec(0u32..6, 1..4),
        quota_fraction in 0.05f64..0.95,
    ) {
        let model = model_from(&window, &[]);
        let pattern = Pattern::sequence(pattern_types.iter().map(|&t| EventType::from_index(t)));
        let mut bl = BaselineShedder::new(&pattern, &model, 9);
        let quota = quota_fraction * window.len() as f64;
        bl.apply(ShedPlan {
            active: true,
            partitions: 1,
            partition_size: window.len(),
            events_to_drop: quota,
        });
        let probabilities = bl.drop_probabilities();
        prop_assert!(probabilities.iter().all(|p| (0.0..=1.0).contains(p)));
        let expected: f64 = probabilities
            .iter()
            .enumerate()
            .map(|(ty, p)| {
                p * model.position_shares().expected_per_window(EventType::from_index(ty as u32))
            })
            .sum();
        prop_assert!((expected - quota).abs() < 1e-6, "expected {expected}, quota {quota}");
    }

    /// The random shedder's drop probability equals the requested fraction and
    /// deactivation always restores keep-everything behaviour.
    #[test]
    fn random_shedder_probability_matches_plan(
        window_size in 1usize..10_000,
        drop_fraction in 0.0f64..1.0,
    ) {
        let mut random = RandomShedder::new(5);
        random.apply(
            ShedPlan {
                active: true,
                partitions: 1,
                partition_size: window_size,
                events_to_drop: drop_fraction * window_size as f64,
            },
            window_size as f64,
        );
        if drop_fraction > 0.0 {
            prop_assert!((random.drop_probability() - drop_fraction).abs() < 1e-9);
        }
        random.deactivate();
        prop_assert!(!random.is_active());
        let meta = WindowMeta { id: 0, query: 0, opened_at: Timestamp::ZERO, open_seq: 0, predicted_size: 1 };
        let e = Event::new(EventType::from_index(0), Timestamp::ZERO, 0);
        prop_assert!(random.decide(&meta, 0, &e).is_keep());
    }
}

/// One of the three table-compiled shedders, so one operation sequence can
/// drive any of them.
#[derive(Clone)]
enum Compiled {
    Espice(EspiceShedder),
    Hspice(crate::HspiceShedder),
    Gspice(crate::GspiceShedder),
}

impl Compiled {
    fn decider(&mut self) -> &mut dyn WindowEventDecider {
        match self {
            Compiled::Espice(shedder) => shedder,
            Compiled::Hspice(shedder) => shedder,
            Compiled::Gspice(shedder) => shedder,
        }
    }

    fn apply(&mut self, plan: ShedPlan) {
        match self {
            Compiled::Espice(shedder) => shedder.apply(plan),
            Compiled::Hspice(shedder) => shedder.apply(plan),
            Compiled::Gspice(shedder) => shedder.apply(plan),
        }
    }

    fn deactivate(&mut self) {
        match self {
            Compiled::Espice(shedder) => shedder.deactivate(),
            Compiled::Hspice(shedder) => shedder.deactivate(),
            Compiled::Gspice(shedder) => shedder.deactivate(),
        }
    }

    /// hSPICE and gSPICE are built over one model for life; only eSPICE
    /// swaps.
    fn set_model(&mut self, model: &crate::UtilityModel) {
        if let Compiled::Espice(shedder) = self {
            shedder.set_model(model.clone());
        }
    }

    fn observed(&self) -> (crate::ShedderStats, Vec<Option<u8>>) {
        match self {
            Compiled::Espice(shedder) => (*shedder.stats(), shedder.thresholds()),
            Compiled::Hspice(shedder) => (*shedder.stats(), shedder.thresholds()),
            Compiled::Gspice(shedder) => (*shedder.stats(), shedder.thresholds()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The plan caches are invisible: over random sequences of `apply`
    /// (drop amount and ρ ∈ {1, 2, 5} varying), `deactivate`, `set_model`,
    /// `window_closed` and `decide_span` / `decide` / `decide_batch`, a
    /// shedder that keeps its partition CDTs and verdict tables from call
    /// to call answers exactly like one whose caches are rebuilt cold
    /// before every call (a `clone()` starts cold) — decisions, drop sets,
    /// counters and thresholds, for eSPICE, hSPICE and gSPICE.
    #[test]
    fn warm_plan_caches_answer_like_cold_ones(
        window in prop::collection::vec(0u32..6, 8..24),
        contributing in prop::collection::vec(0usize..24, 1..6),
        backend in 0usize..3,
        ops in prop::collection::vec(
            (0u8..10, 0.0f64..1.2, prop::sample::select(vec![1usize, 2, 5]), 0usize..30, 1usize..12),
            10..60,
        ),
    ) {
        let positions = window.len();
        let models = [
            model_from(&window, &contributing),
            model_from(&window, &contributing.iter().map(|c| c + 1).collect::<Vec<_>>()),
        ];
        let shared = crate::SharedUtilityStats::new(models[0].clone());
        let pattern = Pattern::sequence([EventType::from_index(0), EventType::from_index(0), EventType::from_index(1)]);
        let mut warm = match backend {
            0 => Compiled::Espice(EspiceShedder::new(models[0].clone())),
            1 => Compiled::Hspice(crate::HspiceShedder::new(shared, &pattern)),
            _ => Compiled::Gspice(crate::GspiceShedder::new(shared)),
        };
        let mut oracle = warm.clone();

        for (step, &(op, amount, partitions, start, len)) in ops.iter().enumerate() {
            // Four windows stay open across calls, each with its own
            // predicted size (scaled down, exact, exact, scaled up), so
            // boundary accumulators and several size tables are live.
            let id = (start % 4) as u64;
            let predicted_size = [positions / 2, positions, positions, positions * 2][id as usize];
            let meta = WindowMeta { id, query: 0, opened_at: Timestamp::ZERO, open_seq: 0, predicted_size };
            // Type 7 is outside the trained universe (the shared row).
            let events: Vec<Event> = (start..start + len)
                .map(|p| {
                    let ty = if p % 11 == 10 { 7 } else { window[p % positions] };
                    Event::new(EventType::from_index(ty), Timestamp::ZERO, p as u64)
                })
                .collect();

            let mut cold = oracle.clone();
            let mut answers = Vec::new();
            for shedder in [&mut warm, &mut cold] {
                let mut drops = espice_cep::DropSet::new();
                let mut decisions = Vec::new();
                match op {
                    0..=2 => {
                        let partition_size = positions.div_ceil(partitions);
                        shedder.apply(ShedPlan {
                            active: true,
                            partitions,
                            partition_size,
                            events_to_drop: amount * partition_size as f64,
                        });
                    }
                    3 => shedder.deactivate(),
                    4 => shedder.set_model(&models[step % 2]),
                    5 => shedder.decider().window_closed(&meta, start + len),
                    6 | 7 => {
                        let dropped = shedder.decider().decide_span(&meta, start, &events, &mut drops);
                        prop_assert_eq!(dropped, drops.len());
                    }
                    8 => decisions.push(shedder.decider().decide(&meta, start, &events[0])),
                    _ => {
                        let requests: Vec<espice_cep::BatchRequest> = (0..4u64)
                            .map(|id| espice_cep::BatchRequest {
                                meta: WindowMeta { id, ..meta },
                                position: start + id as usize,
                            })
                            .collect();
                        shedder.decider().decide_batch(&events[0], &requests, &mut decisions);
                    }
                }
                answers.push((drops.iter().collect::<Vec<_>>(), decisions, shedder.observed()));
            }
            prop_assert_eq!(&answers[0], &answers[1], "diverged at step {} (op {})", step, op);
            oracle = cold;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The compiled decision kernel is byte-identical to the scalar
    /// per-event oracle across the chunked ingestion sweep: for shard
    /// counts {1, 2, 4} × chunk capacities {1, 2, 7, 64, 300} × shedding
    /// on or off × overlap (slide ≪ window), the span-fused engine —
    /// deciding each open window against whole chunk slices through the
    /// compiled verdict tables — emits exactly the complex events, merged
    /// operator statistics and shedder counters of a per-event
    /// [`Operator::run`] driving a scalar-deciding clone of the same armed
    /// shedder, boundary thinning included.
    #[test]
    fn compiled_kernel_equals_scalar_decide_across_chunk_sizes(
        types in prop::collection::vec(0u32..6, 30..140),
        window_size in 4usize..16,
        slide in 1usize..4,
        drop_fraction in 0.1f64..0.8,
        shedding_on in prop::bool::ANY,
        chunk_capacity in prop::sample::select(vec![1usize, 2, 7, 64, 300]),
    ) {
        let model = model_from(&types[..window_size.min(types.len())], &[0, 2]);
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        let mut armed = EspiceShedder::new(model);
        if shedding_on {
            armed.apply(ShedPlan {
                active: true,
                partitions: 2,
                partition_size: window_size.div_ceil(2),
                events_to_drop: drop_fraction * window_size.div_ceil(2) as f64,
            });
        }

        let mut scalar_shedder = armed.clone();
        let mut scalar = Operator::new(query.clone());
        let expected = scalar.run(&stream, &mut scalar_shedder);

        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            engine.set_chunk_capacity(chunk_capacity);
            let mut deciders = vec![armed.clone(); shards];
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let merged = engine.run_source(&mut source, &mut deciders);
            prop_assert_eq!(&merged, &expected,
                "kernel complex events diverged at {} shards, chunk {} (shedding={})",
                shards, chunk_capacity, shedding_on);
            prop_assert_eq!(&engine.stats().merged, scalar.stats(),
                "kernel stats diverged at {} shards, chunk {}", shards, chunk_capacity);
            let mut counters = crate::ShedderStats::default();
            for decider in &deciders {
                counters.merge(decider.stats());
            }
            // `plans_applied` counts the template's arming once per shard
            // clone; the decision counters are the identity claim.
            prop_assert_eq!(counters.decisions, scalar_shedder.stats().decisions,
                "kernel decision counts diverged at {} shards, chunk {}", shards, chunk_capacity);
            prop_assert_eq!(counters.drops, scalar_shedder.stats().drops,
                "kernel drop counts diverged at {} shards, chunk {}", shards, chunk_capacity);
        }
    }

    /// Crash recovery over a kernel-decided run stays byte-identical: with
    /// armed eSPICE shedders deciding whole chunk spans through the
    /// compiled verdict tables, seeded shard panics and stalls recover to
    /// exactly the fault-free resilient run's complex events, merged
    /// statistics and shedder counters. The verdict cache is derived
    /// state — replacement shards replay from pristine decider clones
    /// (cold caches) and recompile the identical tables from the restored
    /// plan and model.
    #[test]
    fn chaos_recovery_over_kernel_decided_run_is_byte_identical(
        types in prop::collection::vec(0u32..6, 30..140),
        window_size in 4usize..14,
        slide in 1usize..4,
        drop_fraction in 0.1f64..0.8,
        chunk_capacity in prop::sample::select(vec![1usize, 7, 64]),
        seed in 0u64..u64::MAX,
    ) {
        use espice_cep::{FaultKind, FaultPlan, ResilienceOptions, RunReport, ShardStatus};

        let model = model_from(&types[..window_size.min(types.len())], &[0, 2]);
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        let mut armed = EspiceShedder::new(model);
        armed.apply(ShedPlan {
            active: true,
            partitions: 2,
            partition_size: window_size.div_ceil(2),
            events_to_drop: drop_fraction * window_size.div_ceil(2) as f64,
        });

        let counters = |report: &RunReport<EspiceShedder>| {
            let mut merged = crate::ShedderStats::default();
            for row in report.deciders.iter().flatten() {
                for decider in row {
                    merged.merge(decider.stats());
                }
            }
            merged
        };

        for shards in [1usize, 2, 4] {
            let mut oracle_engine = ShardedEngine::new(query.clone(), shards);
            oracle_engine.set_chunk_capacity(chunk_capacity);
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let oracle = oracle_engine
                .run_source_resilient(
                    &mut source,
                    vec![armed.clone(); shards],
                    &ResilienceOptions::default(),
                )
                .unwrap();

            // Seeded faults; producer kills change the delivered stream
            // and are covered by the sealed-prefix property in espice-cep.
            let mut plan = FaultPlan::new();
            for fault in
                FaultPlan::seeded(seed, shards, stream.len() as u64, chunk_capacity).faults()
            {
                if !matches!(fault, FaultKind::KillProducer { .. }) {
                    plan = plan.with(fault.clone());
                }
            }
            let options = ResilienceOptions { fault_plan: Some(plan), ..Default::default() };
            let mut chaos_engine = ShardedEngine::new(query.clone(), shards);
            chaos_engine.set_chunk_capacity(chunk_capacity);
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let report = chaos_engine
                .run_source_resilient(&mut source, vec![armed.clone(); shards], &options)
                .unwrap();

            prop_assert_eq!(&report.complex_events, &oracle.complex_events,
                "recovered kernel output diverged at {} shards, chunk {}, seed {}",
                shards, chunk_capacity, seed);
            prop_assert_eq!(chaos_engine.stats().merged, oracle_engine.stats().merged,
                "recovered kernel stats diverged at {} shards, chunk {}, seed {}",
                shards, chunk_capacity, seed);
            prop_assert_eq!(counters(&report), counters(&oracle),
                "recovered shedder counters diverged at {} shards, chunk {}, seed {}",
                shards, chunk_capacity, seed);
            for status in &report.shard_status {
                prop_assert!(!matches!(status, ShardStatus::Failed(_)),
                    "no shard may exhaust its restart budget under a seeded plan: {:?}", status);
            }
        }
    }

    /// pSPICE's partial-match shedding is pinned byte-identical across the
    /// shard × chunk-size sweep: an armed [`PspiceShedder`] (per-window
    /// partial-match stores in the operator, utility-per-remaining-cost
    /// eviction, retroactive drops) driven through the sharded engine at
    /// shard counts {1, 2, 4} × chunk capacities {1, 2, 7, 64, 300}
    /// produces exactly the complex events, merged operator statistics
    /// (retro-drop accounting included) and decision counters of a
    /// per-event scalar [`Operator::run`]. Stores are per-window, windows
    /// are wholly shard-owned, both ingestion paths feed kept positions in
    /// window order, and the constituent utility is a pure function — so
    /// chunking and sharding cannot reorder evictions.
    #[test]
    fn pspice_partial_match_shedding_is_byte_identical_across_shards_and_chunks(
        types in prop::collection::vec(0u32..6, 30..140),
        window_size in 4usize..16,
        slide in 1usize..4,
        drop_fraction in 0.1f64..0.8,
        shedding_on in prop::bool::ANY,
        chunk_capacity in prop::sample::select(vec![1usize, 2, 7, 64, 300]),
    ) {
        let model = model_from(&types[..window_size.min(types.len())], &[0, 2]);
        let query = Query::builder()
            .pattern(Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]))
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);

        let mut armed = crate::PspiceShedder::new(crate::SharedUtilityStats::new(model));
        if shedding_on {
            armed.apply(ShedPlan {
                active: true,
                partitions: 2,
                partition_size: window_size.div_ceil(2),
                events_to_drop: drop_fraction * window_size.div_ceil(2) as f64,
            });
            prop_assert!(armed.budget().is_some());
        }

        let mut scalar_shedder = armed.clone();
        let mut scalar = Operator::new(query.clone());
        let expected = scalar.run(&stream, &mut scalar_shedder);
        if !shedding_on {
            prop_assert_eq!(scalar.stats().dropped, 0);
        }

        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            engine.set_chunk_capacity(chunk_capacity);
            let mut deciders = vec![armed.clone(); shards];
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let merged = engine.run_source(&mut source, &mut deciders);
            prop_assert_eq!(&merged, &expected,
                "pSPICE complex events diverged at {} shards, chunk {} (shedding={})",
                shards, chunk_capacity, shedding_on);
            prop_assert_eq!(&engine.stats().merged, scalar.stats(),
                "pSPICE stats diverged at {} shards, chunk {}", shards, chunk_capacity);
            let mut counters = crate::ShedderStats::default();
            for decider in &deciders {
                counters.merge(decider.stats());
            }
            prop_assert_eq!(counters.decisions, scalar_shedder.stats().decisions,
                "pSPICE decision counts diverged at {} shards, chunk {}", shards, chunk_capacity);
        }
    }

    /// The table-compiled family backends inherit the span kernel's
    /// byte-identity: armed [`HspiceShedder`] and [`GspiceShedder`] rows
    /// driven through the chunked sharded engine produce exactly the
    /// scalar per-event run's complex events, statistics and shedder
    /// counters across shard counts {1, 2, 4} × chunk capacities
    /// {1, 2, 7, 64, 300} — the same pin the eSPICE kernel carries.
    #[test]
    fn family_kernels_equal_scalar_decides_across_shards_and_chunks(
        types in prop::collection::vec(0u32..6, 30..140),
        window_size in 4usize..16,
        slide in 1usize..4,
        drop_fraction in 0.1f64..0.8,
        use_hspice in prop::bool::ANY,
        chunk_capacity in prop::sample::select(vec![1usize, 2, 7, 64, 300]),
    ) {
        let model = model_from(&types[..window_size.min(types.len())], &[0, 2]);
        let shared = crate::SharedUtilityStats::new(model);
        let pattern = Pattern::sequence([EventType::from_index(0), EventType::from_index(1)]);
        let query = Query::builder()
            .pattern(pattern.clone())
            .window(WindowSpec::count_sliding(window_size, slide))
            .build();
        let events: Vec<Event> = types
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::new(EventType::from_index(t), Timestamp::from_secs(i as u64), i as u64))
            .collect();
        let stream = VecStream::from_ordered(events);
        let plan = ShedPlan {
            active: true,
            partitions: 2,
            partition_size: window_size.div_ceil(2),
            events_to_drop: drop_fraction * window_size.div_ceil(2) as f64,
        };

        // Type-erased clones so one sweep covers both backends (and
        // exercises the boxed forwarding of the new trait surface).
        let clone_armed: Box<dyn Fn() -> espice_cep::BoxedDecider> = if use_hspice {
            let mut shedder = crate::HspiceShedder::new(shared, &pattern);
            shedder.apply(plan);
            Box::new(move || Box::new(shedder.clone()))
        } else {
            let mut shedder = crate::GspiceShedder::new(shared);
            shedder.apply(plan);
            Box::new(move || Box::new(shedder.clone()))
        };

        let mut scalar_decider = clone_armed();
        let mut scalar = Operator::new(query.clone());
        let expected = scalar.run(&stream, &mut scalar_decider);

        for shards in [1usize, 2, 4] {
            let mut engine = ShardedEngine::new(query.clone(), shards);
            engine.set_chunk_capacity(chunk_capacity);
            let mut deciders: Vec<espice_cep::BoxedDecider> =
                (0..shards).map(|_| clone_armed()).collect();
            let mut source = espice_events::SliceSource::from_stream(&stream);
            let merged = engine.run_source(&mut source, &mut deciders);
            prop_assert_eq!(&merged, &expected,
                "family complex events diverged at {} shards, chunk {} (hspice={})",
                shards, chunk_capacity, use_hspice);
            prop_assert_eq!(&engine.stats().merged, scalar.stats(),
                "family stats diverged at {} shards, chunk {} (hspice={})",
                shards, chunk_capacity, use_hspice);
        }
    }
}
