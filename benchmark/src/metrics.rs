//! The metric catalogue and the report of one run.
//!
//! `BENCHMARK.json` at the repository root declares the same names, units and
//! directions; a test keeps the two in step.

use crate::json::Json;
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// What a user of the engine would see. Printed by the untraced pass.
pub const END_TO_END: [MetricDef; 7] = [
    lower("setup_s", "s"),
    higher("capacity_events_per_s", "1/s"),
    lower("r80_latency_p50_ms", "ms"),
    lower("r120_latency_p99_ms", "ms"),
    lower("r140_latency_p99_ms", "ms"),
    lower("r140_fn_share", "share"),
    lower("peak_rss_mb", "MB"),
];

/// Single layers, named after the crates' modules. Printed by the traced pass.
pub const PER_LAYER: [MetricDef; 38] = [
    lower("events.source.ns_per_event", "ns"),
    lower("events.source.late_p99_us", "us"),
    lower("events.source.unreleased_share.r140", "share"),
    lower("cep.ingest.ns_per_event", "ns"),
    lower("cep.arena.push_ns_per_event", "ns"),
    lower("cep.queue.handoff_ns", "ns"),
    lower("cep.queue.backpressure_events", "count"),
    lower("cep.queue.peak_event_depth", "count"),
    lower("cep.operator.ns_per_event", "ns"),
    lower("cep.operator.ns_per_assignment", "ns"),
    lower("cep.matcher.close_gap_ns", "ns"),
    lower("cep.engine.slice_ns_per_event", "ns"),
    lower("cep.matcher.match_ns_per_window.nodrops", "ns"),
    lower("cep.matcher.match_ns_per_window.drops50", "ns"),
    lower("cep.dropset.push_run_ns_per_drop", "ns"),
    lower("espice.shedder.decide_ns_per_assignment.idle", "ns"),
    lower("espice.shedder.decide_ns_per_assignment.active", "ns"),
    lower("espice.shedder.apply_plan_calls", "count"),
    lower("espice.shedder.apply_plan_us_mean", "us"),
    lower("espice.shedder.apply_plan_share", "share"),
    lower("espice.shedder.apply_cold_us", "us"),
    lower("espice.shedder.span_warm_ns_per_assignment", "ns"),
    lower("espice.shedder.drop_share", "share"),
    lower("espice.control.sample_ns", "ns"),
    higher("espice.control.checks", "count"),
    lower("espice.control.activations", "count"),
    lower("espice.control.qmax_violations", "count"),
    lower("espice.control.activation_delay_ms", "ms"),
    higher("espice.control.throughput_ratio", "share"),
    lower("espice.model.build_ms", "ms"),
    lower("quality.r80_fn_share", "share"),
    lower("quality.r120_fn_share", "share"),
    lower("quality.r140_fp_share", "share"),
    higher("bound_held_up_to", "x_C"),
    higher("runtime.shard.idle_share.r80", "share"),
    lower("runtime.trace_overhead_share", "share"),
    higher("runtime.reconcile_share", "share"),
    higher("runtime.reconcile_share.r140", "share"),
];

/// One measured value, with the lowest and highest repetition where the
/// metric was taken more than once.
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub range: Option<(f64, f64)>,
}

impl Measured {
    pub fn new(name: &'static str, value: f64) -> Self {
        Measured { name, value, range: None }
    }

    pub fn range(name: &'static str, value: f64, lowest: f64, highest: f64) -> Self {
        Measured { name, value, range: Some((lowest, highest)) }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub smoke: bool,
    pub attempted: u64,
    values: Vec<Measured>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, traced: bool, smoke: bool) -> Self {
        Report { workload, seed, traced, smoke, attempted: 0, values: Vec::new() }
    }

    pub fn push(&mut self, measured: Measured) {
        self.values.push(measured);
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|m| m.name == name).map(|m| m.value)
    }

    fn catalogue(&self) -> &'static [MetricDef] {
        if self.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The report must hold exactly the catalogue's metrics, each a finite
    /// number under a well-formed name.
    pub fn check(&self) -> Result<(), String> {
        let catalogue = self.catalogue();
        for measured in &self.values {
            if !valid_name(measured.name) {
                return Err(format!(
                    "metric name '{}' does not match [A-Za-z0-9_.-]+",
                    measured.name
                ));
            }
            if !measured.value.is_finite() {
                return Err(format!("metric {} is {}", measured.name, measured.value));
            }
            if !catalogue.iter().any(|def| def.name == measured.name) {
                return Err(format!("metric {} is not in the catalogue", measured.name));
            }
        }
        for def in catalogue {
            if self.values.iter().filter(|m| m.name == def.name).count() != 1 {
                return Err(format!("metric {} must be reported exactly once", def.name));
            }
        }
        Ok(())
    }

    /// Every metric by name with its unit, one per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let kind = if self.traced { "per-layer" } else { "end-to-end" };
        let smoke = if self.smoke { ", smoke run: not comparable" } else { "" };
        writeln!(out, "{} {kind} metrics (seed {}{smoke})", self.workload, self.seed)
            .expect("string write");
        for def in self.catalogue() {
            let Some(measured) = self.values.iter().find(|m| m.name == def.name) else { continue };
            write!(
                out,
                "  {:<48} {:>16.4} {:<6} {} is better",
                def.name,
                measured.value,
                def.unit,
                def.better.as_str()
            )
            .expect("string write");
            if let Some((lowest, highest)) = measured.range {
                write!(out, "  [{lowest:.4} .. {highest:.4}]").expect("string write");
            }
            out.push('\n');
        }
        out
    }

    /// The one-line JSON result the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self
            .catalogue()
            .iter()
            .filter_map(|def| {
                let measured = self.values.iter().find(|m| m.name == def.name)?;
                let fields = Json::object([
                    ("value", Json::Num(measured.value)),
                    ("unit", Json::str(def.unit)),
                ]);
                Some((def.name.to_owned(), fields))
            })
            .collect();
        Json::object([
            ("correct", Json::Bool(true)),
            ("attempted", Json::uint(self.attempted.max(1))),
            ("failed", Json::uint(0)),
            ("metrics", Json::Object(metrics)),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::workload::WORKLOADS;

    const SPEC: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let spec = parse(SPEC).expect("BENCHMARK.json parses");
        spec.get(section)
            .and_then(Json::as_array)
            .expect("section is a list")
            .iter()
            .map(|metric| {
                let field = |key: &str| {
                    metric.get(key).and_then(Json::as_str).expect("string field").to_owned()
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn catalogue(defs: &[MetricDef]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.better.as_str().to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_catalogue() {
        assert_eq!(declared("end_to_end"), catalogue(&END_TO_END));
        assert_eq!(declared("per_layer"), catalogue(&PER_LAYER));
        let spec = parse(SPEC).expect("parses");
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    }

    #[test]
    fn every_metric_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit '{}' of {}",
                def.unit,
                def.name
            );
        }
        for bad in ["", "r80 p50", "-lead", "näme", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_carries_every_metric_and_round_trips() {
        let mut report = Report::new("stock_q4", 7, false, false);
        report.attempted = 96_000_000;
        for (i, def) in END_TO_END.iter().enumerate() {
            report.push(Measured::new(def.name, 1.5 + i as f64 / 3.0));
        }
        report.check().expect("complete");
        let line = report.result_line();
        let parsed = parse(&line).expect("parses");
        let keys: Vec<&str> =
            parsed.as_object().expect("object").iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for (i, def) in END_TO_END.iter().enumerate() {
            let metric = parsed.get("metrics").and_then(|m| m.get(def.name)).expect(def.name);
            assert_eq!(metric.get("value").and_then(Json::as_f64), Some(1.5 + i as f64 / 3.0));
            assert_eq!(metric.get("unit").and_then(Json::as_str), Some(def.unit));
        }
        assert!(report.table().contains("capacity_events_per_s"));
    }

    #[test]
    fn an_incomplete_or_non_finite_report_is_refused() {
        let mut report = Report::new("stock_q4", 7, false, false);
        report.push(Measured::new("setup_s", 1.0));
        assert!(report.check().is_err(), "six metrics are missing");
        let mut report = Report::new("stock_q4", 7, false, false);
        for def in &END_TO_END {
            report.push(Measured::new(def.name, f64::NAN));
        }
        assert!(report.check().is_err());
    }
}
