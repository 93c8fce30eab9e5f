//! `benchcmp a.json b.json` — compares two suite result files.
//!
//! Reads the end-to-end metrics' directions and bounds from
//! `BENCHMARK.json` (third argument, or the file one directory above this
//! crate), prints one row per (workload, end-to-end metric) — `ok`,
//! `regressed` or `improved` — and exits non-zero on any regression, on
//! any rise in `error_rate`, or when a workload or metric is missing from
//! either file.

use benchspine::json::{self, Value};
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `failed ÷ attempted` of one workload's untraced result.
fn error_rate(result: &Value) -> Option<f64> {
    let attempted = result.get("attempted")?.as_f64()?;
    Some(result.get("failed")?.as_f64()? / attempted.max(1.0))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (a_path, b_path) = match &args[..] {
        [a, b] | [a, b, _] => (a, b),
        _ => return Err("usage: benchcmp <a.json> <b.json> [BENCHMARK.json]".to_owned()),
    };
    let spec_path = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| format!("{}/../BENCHMARK.json", env!("CARGO_MANIFEST_DIR")));
    let (a, b, spec) = (load(a_path)?, load(b_path)?, load(&spec_path)?);
    for (label, file) in [("a", &a), ("b", &b)] {
        if let Some(stamp) = file.get("stamp") {
            let field = |k: &str| {
                stamp.get(k).map_or("?".to_owned(), |v| match v {
                    Value::Str(s) => s.clone(),
                    Value::Num(n) => n.to_string(),
                    other => format!("{other:?}"),
                })
            };
            println!(
                "{label}: commit {} seed {} seconds {} nproc {} co_env {:?}",
                field("commit"),
                field("seed"),
                field("seconds"),
                field("nproc"),
                stamp
                    .get("co_env")
                    .map_or(&[][..], Value::elements)
                    .iter()
                    .filter_map(Value::as_str)
                    .collect::<Vec<_>>(),
            );
        }
    }

    let mut clean = true;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for w in spec.get("workloads").map_or(&[][..], Value::elements) {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .ok_or("a workload without a name")?;
        let result = |file: &Value| {
            file.get("workloads")
                .and_then(|ws| ws.get(name))
                .and_then(|w| w.get("result"))
                .cloned()
        };
        let (Some(ra), Some(rb)) = (result(&a), result(&b)) else {
            println!("{name:<20} missing from a result file");
            clean = false;
            continue;
        };
        for m in spec.get("end_to_end").map_or(&[][..], Value::elements) {
            let metric_name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("a metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("a metric without a bound")?;
            let lower_is_better = m.get("better").and_then(Value::as_str) == Some("lower");
            let (Some(va), Some(vb)) = (metric(&ra, metric_name), metric(&rb, metric_name)) else {
                println!("{name:<20} {metric_name:<16} missing from a result file");
                clean = false;
                continue;
            };
            // Positive = b is worse than a, as a share of a.
            let worse = if lower_is_better {
                (vb - va) / va
            } else {
                (va - vb) / va
            };
            let verdict = if worse > bound {
                clean = false;
                "regressed"
            } else if worse < -bound {
                "improved"
            } else {
                "ok"
            };
            println!(
                "{name:<20} {metric_name:<16} {va:>14.3} {vb:>14.3} {:>8.2}% {:>6.0}%  {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
        let (Some(ea), Some(eb)) = (error_rate(&ra), error_rate(&rb)) else {
            println!("{name:<20} error_rate       missing from a result file");
            clean = false;
            continue;
        };
        let verdict = if eb > ea {
            clean = false;
            "regressed"
        } else if eb < ea {
            "improved"
        } else {
            "ok"
        };
        println!(
            "{name:<20} {:<16} {ea:>14.6} {eb:>14.6} {:>9} {:>7}  {verdict}",
            "error_rate", "", "any"
        );
    }
    Ok(clean)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchcmp: b is worse than a beyond the benchmark's bounds");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchcmp: {e}");
            ExitCode::from(2)
        }
    }
}
