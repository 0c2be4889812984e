//! `espice-benchmark compare <dir-a> <dir-b>`: two sets of result lines side
//! by side, held against the bounds `BENCHMARK.json` records.
//!
//! Each directory holds one `<workload>.json` per workload, holding the result
//! line the untraced pass printed last. `repeat.sh` produces them.

use crate::json::{parse, Json};
use std::path::Path;

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn run(args: &[String]) -> Result<(), String> {
    let [dir_a, dir_b] = args else {
        return Err("compare takes two directories".to_owned());
    };
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = read_json(&spec_path)?;
    let workloads =
        spec.get("workloads").and_then(Json::as_array).ok_or("no workloads in BENCHMARK.json")?;
    let metrics =
        spec.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end in BENCHMARK.json")?;

    let mut outside = Vec::new();
    for workload in workloads {
        let workload =
            workload.get("name").and_then(Json::as_str).ok_or("a workload without a name")?;
        let a = read_json(&Path::new(dir_a).join(format!("{workload}.json")))?;
        let b = read_json(&Path::new(dir_b).join(format!("{workload}.json")))?;
        println!("{workload}");
        println!(
            "  {:<28} {:>6} {:>16} {:>16} {:>9} {:>7}",
            "metric", "unit", "first", "second", "change", "bound"
        );
        for def in metrics {
            let field = |key: &str| def.get(key).and_then(Json::as_str).unwrap_or("?");
            let name = field("name");
            let bound =
                def.get("bound").and_then(Json::as_f64).ok_or(format!("{name} has no bound"))?;
            let (first, second) = match (metric(&a, name), metric(&b, name)) {
                (Some(first), Some(second)) => (first, second),
                _ => return Err(format!("{workload}: {name} is missing from a result")),
            };
            let change = (second - first) / first;
            let verdict = if change.abs() > bound { "OUTSIDE" } else { "" };
            println!(
                "  {:<28} {:>6} {:>16.4} {:>16.4} {:>+8.1}% {:>6.0}% {verdict}",
                name,
                field("unit"),
                first,
                second,
                change * 100.0,
                bound * 100.0
            );
            if change.abs() > bound {
                outside.push(format!("{workload}/{name} {:+.1}%", change * 100.0));
            }
        }
    }
    if outside.is_empty() {
        println!("every end-to-end metric of every workload agrees within its bound");
        Ok(())
    } else {
        Err(format!("outside their bounds: {}", outside.join(", ")))
    }
}
