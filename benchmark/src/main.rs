//! `espice-benchmark`: latency bound, quality and capacity of the real
//! closed-loop engine, with a per-layer trace. See `benchmark/README.md`.

mod compare;
mod hist;
mod json;
mod layers;
mod metrics;
mod phases;
mod probe;
mod source;
mod trace;
mod workload;

use metrics::{Measured, Report};
use phases::{
    quality, run_phase, setup, Load, PhaseOutcome, PhaseSpec, SetupOutcome, LATENCY_BOUND,
    PRODUCER, SHARD, SLICES,
};
use std::process::ExitCode;
use trace::SpanKind;
use workload::WorkloadSpec;

/// The seed every documented number was taken with, and one that was never
/// used while the benchmark was written (for checking a claim on fresh input).
const DEFAULT_SEED: u64 = 7;
const HELD_OUT_SEED: u64 = 1_000_003;

const DEFAULT_SECONDS: u64 = 20;

/// How many times phase 1 runs; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// How often one repetition of the phase below capacity is tried before the
/// host is declared too unsteady to measure on. A try that fails ends within
/// about a second.
const BELOW_CAPACITY_ATTEMPTS: usize = 8;

/// The phase below capacity runs this many times, over that fraction of the
/// stream each; `r80_latency_p50_ms` is the median repetition, so two of them
/// may be spoilt by the host.
const BELOW_CAPACITY_REPS: u64 = 5;

/// The generator may run this late at the 99th percentile of its batches in
/// the r80 phase before the run is thrown away.
const MAX_LATE_P99_NS: f64 = 10e6;

struct Options {
    workloads: Vec<&'static WorkloadSpec>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: espice-benchmark [--workload <{}>] [--seed <n>] [--seconds <1..60>] [--trace <0|1>] [--smoke]\n       espice-benchmark compare <dir-a> <dir-b>\nwithout --workload every workload runs; the default seed is {DEFAULT_SEED}, the held-out seed {HELD_OUT_SEED}",
        names.join("|")
    )
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workloads: workload::WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value\n{}", usage()));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let spec = workload::find(name)
                    .ok_or(format!("unknown workload '{name}'\n{}", usage()))?;
                options.workloads = vec![spec];
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&options.seconds) {
                    return Err("--seconds must be between 1 and 60".to_owned());
                }
            }
            "--trace" => {
                options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(options)
}

/// Events offered per phase: about a fifth of `seconds` at the workload's
/// nominal rate, so the four phases together measure for about `seconds`.
/// A smoke run offers a twentieth of that.
fn events_per_phase(spec: &WorkloadSpec, seconds: u64, smoke: bool) -> u64 {
    let events = (spec.nominal_rate * seconds as f64 / 5.0) as u64;
    let events = if smoke { events / 20 } else { events };
    events.next_multiple_of(source::CLOCK_STRIDE * SLICES)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("a measurement is never NaN"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The median of the repetitions (or slices) of a metric, with the lowest and
/// the highest beside it.
fn median_of(name: &'static str, mut values: Vec<f64>) -> Measured {
    let value = median(&mut values);
    Measured::range(name, value, values[0], values[values.len() - 1])
}

fn capacity_phase(events: u64, traced: bool) -> PhaseSpec {
    PhaseSpec { name: "capacity", load: Load::Capacity, events, traced, forbid_shedding: true }
}

/// The capacity `C`: the median rate over the slices of a capacity phase.
fn capacity_of(phase: &PhaseOutcome) -> Result<f64, String> {
    if phase.released != phase.offered || phase.slice_rates.is_empty() {
        return Err(format!(
            "capacity phase handed over {} of {} events",
            phase.released, phase.offered
        ));
    }
    if phase.stats.merged.dropped != 0 || phase.plans != 0 {
        return Err("the capacity phase shed events although its latency bound is an hour".into());
    }
    Ok(median(&mut phase.slice_rates.clone()))
}

/// One open-loop phase at `factor` times the capacity a short closed-loop
/// probe measured immediately before it. The host's speed drifts over
/// seconds (its two hardware threads are not always two cores' worth), so a
/// rate fixed once per run would be 0.8 x C in name only.
fn paced_phase(
    setup: &SetupOutcome,
    name: &'static str,
    factor: f64,
    events: u64,
    probe_events: u64,
    traced: bool,
) -> Result<PhaseOutcome, String> {
    let probe = run_phase(&setup.prepared, &capacity_phase(probe_events, traced));
    let capacity = capacity_of(&probe)?;
    let spec = PhaseSpec {
        name,
        load: Load::Paced { factor, capacity },
        events,
        traced,
        forbid_shedding: factor < 1.0,
    };
    Ok(run_phase(&setup.prepared, &spec))
}

/// The output of a run over the first part of the stream, less the last few
/// complex events of each query (from windows the end of the shorter stream
/// cut short), and the part of `truth` it must equal.
fn settled<'a>(output: &'a [Vec<u64>], truth: &'a [Vec<u64>]) -> (Vec<&'a [u64]>, Vec<&'a [u64]>) {
    /// More than any query has windows open at once.
    const CUT_SHORT: usize = 64;
    output
        .iter()
        .zip(truth)
        .map(|(output, truth)| {
            let settled = output.len().saturating_sub(CUT_SHORT);
            (&output[..settled], &truth[..settled.min(truth.len())])
        })
        .unzip()
}

/// Runs the phase at 0.8 x C until one run is valid: nothing shed, the
/// generator on time, and the output equal to the capacity phase's over the
/// same events. A run spoilt by the host (a stall long enough to activate
/// shedding, which ends the run on the spot, or a late generator) is repeated;
/// wrong output is an error at once.
fn below_capacity(
    setup: &SetupOutcome,
    events: u64,
    probe_events: u64,
    traced: bool,
    truth: &PhaseOutcome,
) -> Result<PhaseOutcome, String> {
    let mut reasons = Vec::new();
    for _attempt in 0..BELOW_CAPACITY_ATTEMPTS {
        let phase = paced_phase(setup, "r80", 0.8, events, probe_events, traced)?;
        let late_p99 = phase.lateness.quantile(0.99);
        let (output, expected) = settled(&phase.outputs, &truth.outputs);
        if phase.aborted || phase.cut || phase.stats.merged.dropped != 0 {
            reasons.push(format!(
                "shedding activated after {} of {} events",
                phase.released, phase.offered
            ));
        } else if late_p99 > MAX_LATE_P99_NS {
            reasons.push(format!("the generator ran {:.1} ms late at p99", late_p99 / 1e6));
        } else if output != expected {
            let (missed, added) = quality(&expected, &output);
            return Err(format!(
                "r80: output differs from the capacity phase although nothing was shed (missing {missed:.4}, extra {added:.4} of the ground truth)"
            ));
        } else {
            return Ok(phase);
        }
        eprintln!("  r80 repeated: {}", reasons.last().expect("just pushed"));
    }
    Err(format!("r80 was invalid {BELOW_CAPACITY_ATTEMPTS} times: {}", reasons.join("; ")))
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// A latency metric in milliseconds: the median over the slices of the second
/// half of a phase of each slice's `q`-quantile, with the lowest and highest
/// slice beside it. One stall of the host spoils a few slices, not the figure;
/// and by the second half the controller has had every chance to act, so the
/// figure is the steady state of the overload, not how long the backlog took
/// to build up (which swings with the margin between `C` and what the open
/// loop really sustains).
fn latency_ms(name: &'static str, phase: &PhaseOutcome, q: f64) -> Measured {
    let slices: Vec<f64> =
        phase.latency_quantiles(q, SLICES as usize / 2).into_iter().map(ms).collect();
    if slices.is_empty() {
        return Measured::new(name, 0.0);
    }
    median_of(name, slices)
}

/// The largest of 0.8, 1.2 and 1.4 x C at which this and every lower rate
/// kept the p99 latency within the bound; 0 if none.
fn bound_held_up_to(p99_ms: [f64; 3]) -> f64 {
    let bound_ms = LATENCY_BOUND.as_secs_f64() * 1e3;
    let mut held = 0.0;
    for (factor, p99) in [0.8, 1.2, 1.4].into_iter().zip(p99_ms) {
        if p99 > bound_ms {
            break;
        }
        held = factor;
    }
    held
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM line in /proc/self/status".to_owned())
}

fn describe(phase: &PhaseOutcome) {
    eprintln!(
        "  {:<9} {:>9.3} s  released {}/{}  complex {}  p50 {:.2} ms  p99 {:.2} ms  drops {:.3}  plans {}  late p99 {:.0} us{}",
        phase.name,
        phase.wall_s,
        phase.released,
        phase.offered,
        phase.complex_events(),
        latency_ms("p50", phase, 0.5).value,
        latency_ms("p99", phase, 0.99).value,
        phase.drops as f64 / phase.assignments.max(1) as f64,
        phase.plans,
        phase.lateness.quantile(0.99) / 1e3,
        if phase.cut { "  (cut)" } else { "" },
    );
}

/// The untraced pass: every end-to-end metric of one workload.
fn end_to_end(spec: &'static WorkloadSpec, options: &Options) -> Result<Report, String> {
    let events = events_per_phase(spec, options.seconds, options.smoke);
    let oracle_events = events.min(500_000);

    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let outcome = setup(spec, options.seed, oracle_events)?;
        setup_s.push(outcome.total_s);
        last = Some(outcome);
    }
    let setup = last.expect("at least one set-up ran");
    eprintln!(
        "  setup     generate {:.3} s  train {:.3} s  build {:.3} s  oracle {:.3} s over {} events",
        setup.prepared.generate_s,
        setup.prepared.train_s,
        setup.build_s,
        setup.oracle_s,
        oracle_events
    );

    let capacity = run_phase(&setup.prepared, &capacity_phase(events, false));
    describe(&capacity);
    capacity_of(&capacity)?;
    let probe_events = (events / 8).next_multiple_of(source::CLOCK_STRIDE * SLICES);
    let mut r80_p50 = Vec::new();
    for _ in 0..BELOW_CAPACITY_REPS {
        let r80 =
            below_capacity(&setup, events / BELOW_CAPACITY_REPS, probe_events, false, &capacity)?;
        describe(&r80);
        r80_p50.push(ms(r80.latency_quantile(0.5)));
    }
    let r120 = paced_phase(&setup, "r120", 1.2, events, probe_events, false)?;
    describe(&r120);
    let r140 = paced_phase(&setup, "r140", 1.4, events, probe_events, false)?;
    describe(&r140);
    let (r140_fn_share, _) = quality(&capacity.outputs, &r140.outputs);

    let mut report = Report::new(spec.name, options.seed, false, options.smoke);
    // One capacity phase and two overload phases over the whole stream, and
    // the repetitions below capacity over a fraction each.
    report.attempted = 3 * events + BELOW_CAPACITY_REPS * (events / BELOW_CAPACITY_REPS);
    report.push(median_of("setup_s", setup_s));
    report.push(median_of("capacity_events_per_s", capacity.slice_rates));
    report.push(median_of("r80_latency_p50_ms", r80_p50));
    report.push(latency_ms("r120_latency_p99_ms", &r120, 0.99));
    report.push(latency_ms("r140_latency_p99_ms", &r140, 0.99));
    report.push(Measured::new("r140_fn_share", r140_fn_share));
    report.push(Measured::new("peak_rss_mb", peak_rss_mb()?));
    Ok(report)
}

/// Mean nanoseconds per unit of weight of the hooks of `kinds`.
fn hook_ns_per_weight(phase: &PhaseOutcome, kinds: &[SpanKind]) -> f64 {
    let (ns, weight) = kinds.iter().fold((0u64, 0u64), |(ns, weight), &kind| {
        let stats = phase.span(SHARD, kind);
        (ns + stats.total_ns, weight + stats.weight)
    });
    ns as f64 / weight.max(1) as f64
}

/// The traced pass: every per-layer metric of one workload, and the trace file.
fn per_layer(spec: &'static WorkloadSpec, options: &Options) -> Result<Report, String> {
    let events = events_per_phase(spec, options.seconds, options.smoke) / 2;
    let events = events.next_multiple_of(source::CLOCK_STRIDE * SLICES);
    let setup = setup(spec, options.seed, events.min(500_000))?;

    let plain = run_phase(&setup.prepared, &capacity_phase(events, false));
    describe(&plain);
    let capacity = run_phase(&setup.prepared, &capacity_phase(events, true));
    describe(&capacity);
    if capacity.outputs != plain.outputs {
        return Err("two capacity runs of the same stream emitted different complex events".into());
    }
    // Recording spans slows the shard, so a traced phase is paced against a
    // traced probe: 0.8 and 1.4 times what the traced engine sustains.
    let c_traced = capacity_of(&capacity)?;
    let probe_events = (events / 4).next_multiple_of(source::CLOCK_STRIDE * SLICES);
    let r80 = below_capacity(&setup, events / 2, probe_events, true, &plain)?;
    describe(&r80);
    let r120 = paced_phase(&setup, "r120", 1.2, events, probe_events, false)?;
    describe(&r120);
    let r140 = paced_phase(&setup, "r140", 1.4, events, probe_events, true)?;
    describe(&r140);
    let figures = layers::measure(&setup);

    // Where the shard thread's time went while nothing was shed.
    let shard = capacity.thread(SHARD).ok_or("the capacity phase recorded no shard spans")?;
    let reconcile = shard.attributed_ns() as f64 / (capacity.wall_s * 1e9);
    if !(0.9..=1.1).contains(&reconcile) {
        return Err(format!(
            "the shard thread's spans cover {reconcile:.3} of the capacity phase's wall time; they must cover 0.9 to 1.1 of it"
        ));
    }
    let operator_ns = (capacity.span(SHARD, SpanKind::OperatorGap).self_ns
        + capacity.span(SHARD, SpanKind::CloseGap).self_ns) as f64;
    let close_gap = capacity.span(SHARD, SpanKind::CloseGap);

    // The same at 1.4 x C, up to the moment the probes cut the run short.
    let r140_shard = r140.thread(SHARD).ok_or("the r140 phase recorded no shard spans")?;
    let r140_wall_ns = r140.cut_at_ns.map_or(r140.wall_s * 1e9, |ns| ns as f64).max(1.0);
    let r140_reconcile = r140_shard.attributed_ns() as f64 / r140_wall_ns;
    let r140_control = &r140.control;
    let estimate = r140_control.iter().rev().find_map(|c| c.measured_throughput).unwrap_or(0.0);

    let r80_shard = r80.thread(SHARD).ok_or("the r80 phase recorded no shard spans")?;
    let source_next = r80.span(PRODUCER, SpanKind::SourceNext);
    let ingest = r80.span(PRODUCER, SpanKind::IngestGap);
    let (r80_output, r80_expected) = settled(&r80.outputs, &plain.outputs);
    let (r80_fn, _) = quality(&r80_expected, &r80_output);
    let (r120_fn, _) = quality(&plain.outputs, &r120.outputs);
    let (_, r140_fp) = quality(&plain.outputs, &r140.outputs);
    let hooks = [SpanKind::DecideSpan, SpanKind::DecideBatch, SpanKind::Decide];

    let mut report = Report::new(spec.name, options.seed, true, options.smoke);
    report.attempted = 4 * events + events / 2;
    let mut put = |name: &'static str, value: f64| report.push(Measured::new(name, value));
    put("events.source.ns_per_event", source_next.self_ns as f64 / source_next.count.max(1) as f64);
    put("events.source.late_p99_us", r80.lateness.quantile(0.99) / 1e3);
    put("events.source.unreleased_share.r140", 1.0 - r140.released as f64 / r140.offered as f64);
    put("cep.ingest.ns_per_event", ingest.total_ns as f64 / ingest.count.max(1) as f64);
    put("cep.arena.push_ns_per_event", figures.arena_push_ns_per_event);
    put("cep.queue.handoff_ns", figures.queue_handoff_ns);
    put("cep.queue.backpressure_events", r140.queue.backpressure_events as f64);
    put("cep.queue.peak_event_depth", r140.queue.peak_event_depth as f64);
    put("cep.operator.ns_per_event", operator_ns / capacity.offered as f64);
    put("cep.operator.ns_per_assignment", operator_ns / capacity.assignments.max(1) as f64);
    put("cep.matcher.close_gap_ns", close_gap.total_ns as f64 / close_gap.count.max(1) as f64);
    put("cep.engine.slice_ns_per_event", figures.slice_ns_per_event);
    put("cep.matcher.match_ns_per_window.nodrops", figures.match_ns_per_window_nodrops);
    put("cep.matcher.match_ns_per_window.drops50", figures.match_ns_per_window_drops50);
    put("cep.dropset.push_run_ns_per_drop", figures.dropset_push_run_ns_per_drop);
    put("espice.shedder.decide_ns_per_assignment.idle", hook_ns_per_weight(&capacity, &hooks));
    put("espice.shedder.decide_ns_per_assignment.active", hook_ns_per_weight(&r140, &hooks));
    put("espice.shedder.apply_plan_calls", r140.plans as f64);
    put("espice.shedder.apply_plan_us_mean", r140.apply_ns as f64 / 1e3 / r140.plans.max(1) as f64);
    put("espice.shedder.apply_plan_share", r140.apply_ns as f64 / r140_wall_ns);
    put("espice.shedder.apply_cold_us", figures.apply_cold_us);
    put("espice.shedder.span_warm_ns_per_assignment", figures.span_warm_ns_per_assignment);
    put("espice.shedder.drop_share", r140.drops as f64 / r140.assignments.max(1) as f64);
    put("espice.control.sample_ns", figures.control_sample_ns);
    put("espice.control.checks", r140_control.iter().map(|c| c.stats.checks).sum::<u64>() as f64);
    put(
        "espice.control.activations",
        r140_control.iter().map(|c| c.activations).sum::<u64>() as f64,
    );
    put(
        "espice.control.qmax_violations",
        r140_control.iter().map(|c| c.stats.violations).sum::<u64>() as f64,
    );
    put(
        "espice.control.activation_delay_ms",
        r140.first_plan_ns.map_or(r140.wall_s * 1e3, |ns| ms(ns as f64)),
    );
    put("espice.control.throughput_ratio", estimate / c_traced);
    put("espice.model.build_ms", setup.prepared.train_s * 1e3);
    put("quality.r80_fn_share", r80_fn);
    put("quality.r120_fn_share", r120_fn);
    put("quality.r140_fp_share", r140_fp);
    put(
        "bound_held_up_to",
        bound_held_up_to([&r80, &r120, &r140].map(|phase| latency_ms("p99", phase, 0.99).value)),
    );
    put(
        "runtime.shard.idle_share.r80",
        r80.span(SHARD, SpanKind::ShardIdle).self_ns as f64 / (r80_shard.extent_ns().max(1)) as f64,
    );
    put("runtime.trace_overhead_share", capacity.wall_s / plain.wall_s - 1.0);
    put("runtime.reconcile_share", reconcile);
    put("runtime.reconcile_share.r140", r140_reconcile);

    let traces: Vec<trace::PhaseTrace> =
        [capacity, r80, r140].into_iter().filter_map(|phase| phase.trace).collect();
    let path = trace_path(spec.name);
    let text = trace::render_trace_file(spec.name, options.seed, &traces);
    std::fs::create_dir_all(path.parent().expect("the trace lives in a directory"))
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("  trace written to {}", path.display());
    Ok(report)
}

/// `benchmark/out/trace-<workload>.json`, in the checkout this binary was
/// built from.
fn trace_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}.json"))
}

fn run(options: &Options) -> Result<(), String> {
    let mut fn_share = std::collections::HashMap::new();
    for spec in &options.workloads {
        eprintln!(
            "== {} (seed {}, {} s{}{}) on {} hardware threads ==\n   {}",
            spec.name,
            options.seed,
            options.seconds,
            if options.trace { ", traced" } else { "" },
            if options.smoke { ", smoke: not comparable" } else { "" },
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            spec.why,
        );
        let report =
            if options.trace { per_layer(spec, options)? } else { end_to_end(spec, options)? };
        report.check()?;
        print!("{}", report.table());
        println!("{}", report.result_line());
        if let Some(share) = report.value("r140_fn_share") {
            fn_share.insert(spec.name, share);
        }
    }
    // The paper's quality ordering, when both sides of it ran. A warning, not
    // a failure: on an engine that collapses at 1.4 C both shares are near 1.
    if let (Some(espice), Some(baseline)) = (fn_share.get("stock_q4"), fn_share.get("stock_q4_bl"))
    {
        if espice >= baseline {
            eprintln!(
                "warning: stock_q4 r140_fn_share {espice:.4} is not below stock_q4_bl's {baseline:.4}"
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..])
    } else {
        parse_options(&args).and_then(|options| run(&options))
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("espice-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
