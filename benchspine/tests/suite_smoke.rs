//! Runs `suite --smoke --trace` (same code paths as the real suite, op
//! counts cut so all five workloads finish in a few seconds) and checks
//! the result against `BENCHMARK.json`, so API drift in a later PR breaks
//! this test instead of the benchmark pipeline.

use benchspine::json::{self, Value};
use std::process::Command;

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn names(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .map_or(&[][..], Value::elements)
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Asserts that `result.metrics` holds every `(name, unit)` as a finite
/// number.
fn assert_metrics(workload: &str, result: &Value, expected: &[(String, String)]) {
    for (name, unit) in expected {
        assert!(name_ok(name), "metric name {name:?} breaks the naming rule");
        let m = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .unwrap_or_else(|| panic!("{workload}: metric {name} is missing"));
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is not a finite number: {value:?}"
        );
        assert_eq!(
            m.get("unit").and_then(Value::as_str),
            Some(unit.as_str()),
            "{workload}: unit of {name}"
        );
    }
}

#[test]
fn smoke_suite_matches_benchmark_json() {
    let spec_text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    let spec = json::parse(&spec_text).expect("BENCHMARK.json parses");
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke.json");

    // The parent's `CO_*` settings must not reach the measured program.
    let status = Command::new(env!("CARGO_BIN_EXE_suite"))
        .args(["--smoke", "--trace", "--seed", "7", "--out"])
        .arg(&out)
        .env("CO_GC_COLLECTOR", "1")
        .status()
        .expect("start the suite");
    assert!(status.success(), "suite --smoke exited with {status}");

    let result = json::parse(&std::fs::read_to_string(&out).expect("the result file"))
        .expect("the result file parses");
    let stamp = result.get("stamp").expect("a stamp");
    assert!(
        stamp.get("co_env").is_some_and(|e| e.elements().is_empty()),
        "stamp.co_env must be empty"
    );
    assert!(stamp
        .get("nproc")
        .and_then(Value::as_f64)
        .is_some_and(|n| n >= 1.0));
    for key in ["commit", "rustc"] {
        assert!(
            stamp.get(key).and_then(Value::as_str).is_some(),
            "stamp.{key}"
        );
    }

    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let workloads = spec.get("workloads").map_or(&[][..], Value::elements);
    assert_eq!(workloads.len(), benchspine::WORKLOADS.len());
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Value::as_str)
            .expect("a workload name");
        assert!(
            name_ok(name),
            "workload name {name:?} breaks the naming rule"
        );
        let entry = result
            .get("workloads")
            .and_then(|ws| ws.get(name))
            .unwrap_or_else(|| panic!("workload {name} is missing from the result"));
        for (key, expected) in [("result", &end_to_end), ("traced", &per_layer)] {
            let r = entry.get(key).unwrap_or_else(|| panic!("{name}.{key}"));
            assert_metrics(name, r, expected);
            assert_eq!(
                r.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{name}.{key}: error_rate must be 0"
            );
            assert_eq!(
                r.get("correct").and_then(Value::as_bool),
                Some(true),
                "{name}.{key}"
            );
            assert!(r
                .get("attempted")
                .and_then(Value::as_f64)
                .is_some_and(|a| a >= 1.0));
        }
        for key in ["info", "traced_info"] {
            let co_env = entry.get(key).and_then(|i| i.get("co_env"));
            assert!(
                co_env.is_some_and(|e| e.elements().is_empty()),
                "{name}.{key}.co_env must be empty"
            );
        }
    }

    // A result file agrees with itself.
    let status = Command::new(env!("CARGO_BIN_EXE_benchcmp"))
        .args([&out, &out])
        .status()
        .expect("start benchcmp");
    assert!(
        status.success(),
        "benchcmp of a file with itself exited with {status}"
    );
}
