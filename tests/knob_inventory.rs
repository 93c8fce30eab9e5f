//! The `CO_*` environment-variable inventory, pinned.
//!
//! Every knob the shipped code reads is a string literal `"CO_…"` in
//! `src/`, `crates/*/src/` or `examples/`. This test collects those
//! literals and asserts the set equals [`KNOBS`] exactly, that each is
//! read in exactly one file, and that ARCHITECTURE.md names each one — so
//! adding (or removing) a knob means editing a list a reviewer sees, plus
//! its documentation. The library crates below the serving layer take
//! configuration only through typed setters and builders: none of them
//! reads the environment at all.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Each knob with the one shipped source file that reads it.
const KNOBS: [(&str, &str); 8] = [
    ("CO_METRICS", "crates/obs/src/metrics.rs"),
    ("CO_SERVER_ADDR", "crates/server/src/lib.rs"),
    ("CO_SERVER_MAX_FRAME", "crates/server/src/lib.rs"),
    ("CO_SERVER_MAX_INFLIGHT", "crates/server/src/lib.rs"),
    ("CO_SERVER_MAX_SESSIONS", "crates/server/src/lib.rs"),
    ("CO_SERVER_SESSION_QUEUE", "crates/server/src/lib.rs"),
    ("CO_SERVER_WORKERS", "crates/server/src/lib.rs"),
    ("CO_TRACE", "crates/obs/src/trace.rs"),
];

/// The library crates that must not read the environment.
const ENV_FREE_CRATES: [&str; 7] = [
    "object",
    "engine",
    "core",
    "relational",
    "wire",
    "parser",
    "schema",
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

/// Each `CO_*` literal in shipped code, mapped to the files that hold it.
fn shipped_knobs(root: &Path) -> BTreeMap<String, BTreeSet<String>> {
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    rust_files(&root.join("examples"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        rust_files(&krate.unwrap().path().join("src"), &mut files);
    }
    let mut by_knob: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for file in &files {
        let mut found = BTreeSet::new();
        knob_literals(&std::fs::read_to_string(file).unwrap(), &mut found);
        let relative = file
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .into_owned();
        for knob in found {
            by_knob.entry(knob).or_default().insert(relative.clone());
        }
    }
    by_knob
}

#[test]
fn the_environment_knobs_are_exactly_the_documented_eight() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let by_knob = shipped_knobs(root);
    let found: Vec<&str> = by_knob.keys().map(String::as_str).collect();
    let names: Vec<&str> = KNOBS.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        found, names,
        "the CO_* names read by shipped code changed: update KNOBS and ARCHITECTURE.md together"
    );

    let architecture = std::fs::read_to_string(root.join("ARCHITECTURE.md")).unwrap();
    for knob in names {
        assert!(
            architecture.contains(&format!("`{knob}`")),
            "{knob} is read by the code but ARCHITECTURE.md does not name it"
        );
    }
}

#[test]
fn each_knob_is_read_in_exactly_one_file() {
    for (knob, files) in shipped_knobs(Path::new(env!("CARGO_MANIFEST_DIR"))) {
        let home = KNOBS
            .iter()
            .find(|(name, _)| *name == knob)
            .map(|(_, home)| *home);
        assert!(
            home.is_some_and(|home| files.len() == 1 && files.contains(home)),
            "{knob} is read in {files:?}; a knob has one home file, listed in KNOBS"
        );
    }
}

#[test]
fn the_library_crates_do_not_read_the_environment() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for krate in ENV_FREE_CRATES {
        let mut files = Vec::new();
        rust_files(&root.join("crates").join(krate).join("src"), &mut files);
        for file in files {
            let source = std::fs::read_to_string(&file).unwrap();
            assert!(
                !source.contains("std::env::var"),
                "{} reads the environment; take the value through a setter or builder",
                file.display()
            );
        }
    }
}
