//! The four workloads: which dataset, which queries, which shedder, and why.

use espice::ModelConfig;
use espice_cep::{Query, QuerySet, SelectionPolicy};
use espice_datasets::{SoccerConfig, SoccerDataset, StockConfig, StockDataset};
use espice_events::{Event, EventStream, SimDuration, VecStream};
use espice_runtime::experiment::profile_average_window_size;
use espice_runtime::{queries, AdaptiveShedder, Experiment, ExperimentConfig, ShedderKind};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DatasetKind {
    Stock,
    Soccer,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryMix {
    /// `queries::q4(10 symbols x2, window 2000, slide 50)`.
    StockQ4,
    /// `queries::mixes::stock_blend`: Q2, Q3 and Q4 fused.
    StockBlend,
    /// `queries::q1` with n in {2, 4, 6} over 60 s windows, fused.
    SoccerQ1Ladder,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: DatasetKind,
    pub mix: QueryMix,
    pub shedder: ShedderKind,
    /// Events per second this workload sustains on the reference host, to the
    /// nearest million. It sizes `N` and the capacity phase's queue; the
    /// paced phases use the capacity they measured themselves.
    pub nominal_rate: f64,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "stock_q4",
        why: "eSPICE on sliding Q4: 40 overlapping 2000-event windows and the largest verdict table (500 types x 2000 positions)",
        dataset: DatasetKind::Stock,
        mix: QueryMix::StockQ4,
        shedder: ShedderKind::Espice,
        nominal_rate: 6.0e6,
    },
    WorkloadSpec {
        name: "stock_q4_bl",
        why: "same stream and query with the BL shedder: scalar decisions and no compiled tables, the control for stock_q4",
        dataset: DatasetKind::Stock,
        mix: QueryMix::StockQ4,
        shedder: ShedderKind::Baseline,
        nominal_rate: 6.0e6,
    },
    WorkloadSpec {
        name: "stock_blend",
        why: "Q2 time, Q3 count-on-type and Q4 sliding windows fused on one ingestion: three operators and three controllers on one queue",
        dataset: DatasetKind::Stock,
        mix: QueryMix::StockBlend,
        shedder: ShedderKind::Espice,
        nominal_rate: 6.0e6,
    },
    WorkloadSpec {
        name: "soccer_q1_ladder",
        why: "three 60 s time-window queries with sparse opens and few closes: per-event fixed costs dominate, matcher and kernel do little",
        dataset: DatasetKind::Soccer,
        mix: QueryMix::SoccerQ1Ladder,
        shedder: ShedderKind::Espice,
        nominal_rate: 8.0e6,
    },
];

pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

pub enum Dataset {
    Stock(StockDataset),
    Soccer(SoccerDataset),
}

impl Dataset {
    /// Generates the dataset of `kind` from `seed`. `scale` shortens it (the
    /// tests use a tenth); the benchmark always passes 1.
    pub fn generate(kind: DatasetKind, seed: u64, scale: f64) -> Dataset {
        match kind {
            DatasetKind::Stock => Dataset::Stock(StockDataset::generate(&StockConfig {
                // Eight hours of quotes: the generator loops the second half,
                // and a shorter template's match count (hence capacity and
                // memory) swings with the seed.
                duration_minutes: ((480.0 * scale) as usize).max(8),
                seed,
                ..StockConfig::default()
            })),
            DatasetKind::Soccer => Dataset::Soccer(soccer_season(seed, scale)),
        }
    }

    pub fn stream(&self) -> &VecStream {
        match self {
            Dataset::Stock(dataset) => &dataset.stream,
            Dataset::Soccer(dataset) => &dataset.stream,
        }
    }

    fn type_count(&self) -> usize {
        match self {
            Dataset::Stock(dataset) => dataset.registry.len(),
            Dataset::Soccer(dataset) => dataset.registry.len(),
        }
    }

    fn queries(&self, mix: QueryMix) -> Vec<Query> {
        match (self, mix) {
            (Dataset::Stock(dataset), QueryMix::StockQ4) => {
                vec![queries::q4(dataset, 10, 2000, 50, SelectionPolicy::First)]
            }
            (Dataset::Stock(dataset), QueryMix::StockBlend) => {
                queries::mixes::stock_blend(dataset).queries().to_vec()
            }
            (Dataset::Soccer(dataset), QueryMix::SoccerQ1Ladder) => [2, 4, 6]
                .into_iter()
                .map(|n| {
                    queries::q1(dataset, n, SimDuration::from_secs(60), SelectionPolicy::First)
                })
                .collect(),
            (_, mix) => panic!("{mix:?} does not run on this dataset"),
        }
    }
}

/// Sixteen short matches played back to back, two hours in all. One match
/// fixes every player's home position for its whole length, and with it how
/// often defenders come near a striker, which moved the workload's capacity
/// by a quarter from seed to seed; the looped half now averages eight of them.
/// Event types are interned by name in a fixed order, so every match shares
/// one registry.
fn soccer_season(seed: u64, scale: f64) -> SoccerDataset {
    const MATCHES: u64 = 16;
    let match_seconds = ((450.0 * scale) as u64).max(120);
    let mut matches = (0..MATCHES).map(|index| {
        SoccerDataset::generate(&SoccerConfig {
            duration_seconds: match_seconds,
            possession_probability: 0.12,
            seed: seed.wrapping_mul(MATCHES).wrapping_add(index),
            ..SoccerConfig::default()
        })
    });
    let mut season = matches.next().expect("at least one match");
    let mut events = std::mem::take(&mut season.stream).into_inner();
    for (played, next) in matches.enumerate() {
        let kickoff = SimDuration::from_secs((played as u64 + 1) * match_seconds);
        let base = events.len() as u64;
        events.extend(next.stream.events().iter().enumerate().map(|(offset, event)| {
            event.with_timestamp(event.timestamp() + kickoff).with_seq(base + offset as u64)
        }));
    }
    season.stream = VecStream::from_ordered(events);
    season
}

/// A workload after set-up: dataset generated, one model trained per query.
pub struct Prepared {
    pub spec: &'static WorkloadSpec,
    pub queries: QuerySet,
    experiments: Vec<Experiment>,
    seed: u64,
    /// Seeds the engine's size prediction for time-based windows.
    pub window_size_hint: Option<usize>,
    /// Wall time of dataset generation and of all `Experiment::train` calls.
    pub generate_s: f64,
    pub train_s: f64,
}

impl Prepared {
    pub fn new(spec: &'static WorkloadSpec, seed: u64) -> Prepared {
        let started = Instant::now();
        let dataset = Dataset::generate(spec.dataset, seed, 1.0);
        let generate_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let stream = dataset.stream();
        let profile_prefix = stream.slice(0, stream.len() / 4);
        let queries = dataset.queries(spec.mix);
        let mut window_size_hint = None;
        let experiments = queries
            .iter()
            .map(|query| {
                // Count windows give the model one column per position; time
                // windows get their average size, binned so the statistics
                // of a short training stream stay dense.
                let model = match query.window().expected_size() {
                    Some(size) => ModelConfig::with_positions(size),
                    None => {
                        let average = profile_average_window_size(query, &profile_prefix);
                        let positions = (average.round() as usize).max(1);
                        window_size_hint.get_or_insert(positions);
                        ModelConfig { positions, bin_size: 8, ..ModelConfig::default() }
                    }
                };
                let config = ExperimentConfig { seed, ..ExperimentConfig::default() };
                Experiment::train(
                    std::slice::from_ref(query),
                    stream,
                    dataset.type_count(),
                    model,
                    config,
                )
            })
            .collect();
        let train_s = started.elapsed().as_secs_f64();

        Prepared {
            spec,
            queries: QuerySet::new(queries),
            experiments,
            seed,
            window_size_hint,
            generate_s,
            train_s,
        }
    }

    /// The evaluation half of the dataset, which the generator loops. Every
    /// experiment splits the same stream at the same place.
    pub fn template(&self) -> &[Event] {
        self.experiments[0].eval_stream().events()
    }

    /// One fresh, inactive shedder per query. `--seed` reaches the BL sampler
    /// here and nothing else inside the engine.
    pub fn shedders(&self) -> Vec<Box<dyn AdaptiveShedder + Send>> {
        self.queries
            .queries()
            .iter()
            .zip(&self.experiments)
            .map(|(query, experiment)| experiment.shedder_for(query, self.spec.shedder, self.seed))
            .collect()
    }

    /// The query the direct matcher and shedder measurements use: the last
    /// one, which in every mix has the most overlapping windows.
    pub fn primary(&self) -> usize {
        self.queries.len() - 1
    }
}
