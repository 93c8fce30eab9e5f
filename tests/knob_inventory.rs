//! The `CO_*` environment-variable inventory, pinned.
//!
//! Every knob the shipped code reads is a string literal `"CO_…"` in
//! `src/`, `crates/*/src/` or `examples/`. This test collects those
//! literals and asserts the set equals [`KNOBS`] exactly, and that
//! ARCHITECTURE.md names each one — so adding (or removing) a knob means
//! editing a list a reviewer sees, plus its documentation.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const KNOBS: [&str; 15] = [
    "CO_COLUMNAR_MIN_ROWS",
    "CO_ENGINE_THREADS",
    "CO_GC_COLLECTOR",
    "CO_GC_EVERY_ROUND",
    "CO_GC_HIGH_WATER",
    "CO_GC_PAUSE_BUDGET_US",
    "CO_MEMO_SHARD_CAP",
    "CO_METRICS",
    "CO_SERVER_ADDR",
    "CO_SERVER_MAX_FRAME",
    "CO_SERVER_MAX_INFLIGHT",
    "CO_SERVER_MAX_SESSIONS",
    "CO_SERVER_SESSION_QUEUE",
    "CO_SERVER_WORKERS",
    "CO_TRACE",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every `"CO_[A-Z0-9_]+"` literal in `source`, ignoring whatever follows
/// the first `#[cfg(test)]` (unit-test modules close their files here).
fn knob_literals(source: &str, out: &mut BTreeSet<String>) {
    let shipped = source.split("#[cfg(test)]").next().unwrap_or_default();
    for candidate in shipped.split("\"CO_").skip(1) {
        let name_len = candidate
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(candidate.len());
        if name_len > 0 && candidate[name_len..].starts_with('"') {
            out.insert(format!("CO_{}", &candidate[..name_len]));
        }
    }
}

#[test]
fn the_environment_knobs_are_exactly_the_documented_fifteen() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }

    let mut found = BTreeSet::new();
    for file in &files {
        knob_literals(&std::fs::read_to_string(file).unwrap(), &mut found);
    }
    let found: Vec<&str> = found.iter().map(String::as_str).collect();
    assert_eq!(
        found, KNOBS,
        "the CO_* names read by shipped code changed: update KNOBS and ARCHITECTURE.md together"
    );

    let architecture = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap();
    for knob in KNOBS {
        assert!(
            architecture.contains(&format!("`{knob}`")),
            "{knob} is read by the code but ARCHITECTURE.md does not name it"
        );
    }
}
