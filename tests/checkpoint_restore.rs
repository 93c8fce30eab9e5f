//! Checkpoint → restore → continue-to-fixpoint equivalence.
//!
//! The contract under test: `Engine::checkpoint` followed by
//! `Engine::restore` — in the same process or a **fresh** one — yields an
//! engine that reaches a bit-identical fixpoint with a bit-identical
//! trace, at any thread count and GC cadence.
//!
//! Fresh-process coverage re-executes this very test binary with
//! `--exact` on a child-mode test (selected by the `CKPT_CHILD_DIR`
//! environment variable): the child restores the snapshot into its own
//! empty store, runs to fixpoint under the thread count and GC cadence
//! named by `CKPT_CHILD_CONFIG`, and reports its result back as another
//! wire snapshot, which the parent re-loads and compares semantically.

use complex_objects::engine::{GcCadence, RunOutcome};
use complex_objects::prelude::*;
use complex_objects::wire;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn program_text() -> &'static str {
    "[doa: {p0}].
     [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}]."
}

fn chain_db(n: usize) -> Object {
    let family = Object::set((0..n).map(|i| {
        Object::tuple([
            ("name", Object::str(format!("p{i}"))),
            (
                "children",
                Object::set([Object::tuple([(
                    "name",
                    Object::str(format!("p{}", i + 1)),
                )])]),
            ),
        ])
    }));
    Object::tuple([("family", family)])
}

fn engine() -> Engine {
    Engine::new(parse_program(program_text()).unwrap()).tracing(true)
}

fn fingerprint(out: &RunOutcome) -> String {
    format!(
        "iterations={}\ndb={}\ntrace:\n{}",
        out.stats.iterations,
        out.database,
        out.trace.as_ref().expect("tracing enabled").render()
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("co_ckpt_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn same_process_restore_is_bit_identical_under_every_execution_choice() {
    let dir = temp_dir("same_process");
    let db = chain_db(12);
    let reference = engine().run(&db).unwrap();

    let path = dir.join("chain.cow");
    engine().checkpoint(&db, &path).unwrap();

    for threads in [1usize, 4] {
        for gc in [GcCadence::Off, GcCadence::EveryRounds(1)] {
            let restored = Engine::restore(&path).unwrap();
            assert_eq!(restored.database, db);
            assert_eq!(restored.database.node_id(), db.node_id());
            let out = restored
                .engine
                .threads(threads)
                .gc_cadence(gc)
                .run(&restored.database)
                .unwrap();
            assert_eq!(
                out.database, reference.database,
                "threads={threads} gc={gc:?}"
            );
            assert_eq!(out.database.node_id(), reference.database.node_id());
            assert_eq!(
                out.trace.as_ref().unwrap().events(),
                reference.trace.as_ref().unwrap().events(),
                "threads={threads} gc={gc:?}"
            );
            assert_eq!(fingerprint(&out), fingerprint(&reference));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_midway_resumes_to_the_same_fixpoint() {
    // Checkpointing a *partially evaluated* database (some doa facts
    // already derived) must converge to the same closure as the
    // uninterrupted run: the inflationary fixpoint is confluent, and the
    // checkpoint carries everything the continuation needs.
    let dir = temp_dir("midway");
    let db = chain_db(10);
    let full = engine().run(&db).unwrap();

    // A partial state: run a cheaper engine bounded to a few iterations.
    let partial = match engine()
        .guard(Guard {
            max_iterations: 4,
            ..Guard::default()
        })
        .run(&db)
    {
        Err(complex_objects::engine::EngineError::Diverged { partial, .. }) => *partial,
        Ok(out) => out.database,
    };

    let path = dir.join("midway.cow");
    engine().checkpoint(&partial, &path).unwrap();
    let restored = Engine::restore(&path).unwrap();
    let resumed = restored.engine.run(&restored.database).unwrap();
    assert_eq!(resumed.database, full.database);
    assert_eq!(resumed.database.node_id(), full.database.node_id());
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random chain lengths, random checkpoints of the initial state:
    /// restore + run equals run, bit for bit, with GC forced every round.
    #[test]
    fn restored_runs_match_for_random_chains(n in 1usize..24) {
        let dir = temp_dir(&format!("prop_{n}"));
        let db = chain_db(n);
        let reference = engine().run(&db).unwrap();
        let path = dir.join("prop.cow");
        engine().checkpoint(&db, &path).unwrap();
        let restored = Engine::restore(&path).unwrap();
        let out = restored
            .engine
            .gc_cadence(GcCadence::EveryRounds(1))
            .run(&restored.database)
            .unwrap();
        prop_assert_eq!(&out.database, &reference.database);
        prop_assert_eq!(out.database.node_id(), reference.database.node_id());
        prop_assert_eq!(
            out.trace.as_ref().unwrap().events(),
            reference.trace.as_ref().unwrap().events()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The database after at most `k` fixpoint rounds: a mid-evaluation
/// state to checkpoint (the guard trips before convergence on long
/// chains; short ones just close).
fn state_after(db: &Object, k: u64) -> Object {
    match engine()
        .guard(Guard {
            max_iterations: k,
            ..Guard::default()
        })
        .run(db)
    {
        Err(complex_objects::engine::EngineError::Diverged { partial, .. }) => *partial,
        Ok(out) => out.database,
    }
}

/// Checkpoints `db` as full-then-`deltas` layers (collecting the store
/// between layers, so GC runs against the live chain handle) and
/// returns the chain plus the final state it captured.
fn write_chain(dir: &Path, db: &Object, deltas: u64) -> (Vec<PathBuf>, Object) {
    let writer = engine();
    writer.checkpoint_full(db, dir.join("layer0.cow")).unwrap();
    let mut handle = writer.last_checkpoint().unwrap();
    for k in 1..=deltas {
        // Intermediate states are computed, checkpointed, and *dropped*:
        // the sweep below may free their nodes. The chain handle must
        // survive that — freed ids are never recycled, so re-derived
        // content simply re-encodes in a later delta.
        let state = if k == deltas {
            engine().run(db).unwrap().database
        } else {
            state_after(db, k)
        };
        let path = dir.join(format!("layer{k}.cow"));
        let (stats, next) = writer.checkpoint_delta(&state, &path, &handle).unwrap();
        assert_eq!(stats.version, 2, "layer {k} must be a delta");
        handle = next;
        drop(state);
        complex_objects::object::store::collect();
    }
    let final_state = engine().run(db).unwrap().database;
    (handle.layers().to_vec(), final_state)
}

/// The chain and an equivalent single full snapshot must restore to the
/// same `NodeId` and resume to line-identical fixpoints and traces — at
/// 1 and 4 threads, with GC after every round, with sweeps between the
/// delta writes.
fn assert_chain_equivalent_to_full(dir: &Path, db: &Object, deltas: u64) {
    let (layers, final_state) = write_chain(dir, db, deltas);
    let reference = engine().run(db).unwrap();
    assert_eq!(reference.database, final_state);

    // A single full snapshot of the same final state.
    let full_path = dir.join("equivalent_full.cow");
    engine().checkpoint_full(&final_state, &full_path).unwrap();

    for threads in [1usize, 4] {
        let from_chain = Engine::restore_chain(&layers).unwrap();
        let from_full = Engine::restore(&full_path).unwrap();
        // Bit-identical restored databases: the very same interned node.
        assert_eq!(from_chain.database, from_full.database);
        assert_eq!(from_chain.database.node_id(), from_full.database.node_id());
        assert_eq!(from_chain.database, final_state);
        assert_eq!(from_chain.database.node_id(), final_state.node_id());

        // Resuming both reaches the reference fixpoint with identical
        // traces, under GC every round.
        let out_chain = from_chain
            .engine
            .threads(threads)
            .gc_cadence(GcCadence::EveryRounds(1))
            .run(&from_chain.database)
            .unwrap();
        let out_full = from_full
            .engine
            .threads(threads)
            .gc_cadence(GcCadence::EveryRounds(1))
            .run(&from_full.database)
            .unwrap();
        assert_eq!(out_chain.database, reference.database, "threads={threads}");
        assert_eq!(out_chain.database.node_id(), reference.database.node_id());
        assert_eq!(out_full.database.node_id(), out_chain.database.node_id());
        assert_eq!(
            fingerprint(&out_chain),
            fingerprint(&out_full),
            "threads={threads}"
        );
    }
}

#[test]
fn a_base_plus_three_delta_chain_is_bit_identical_to_a_full_snapshot() {
    let dir = temp_dir("chain3");
    let db = chain_db(14);
    assert_chain_equivalent_to_full(&dir, &db, 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random programs (chain lengths) checkpointed as full-then-N
    /// deltas: the chain must restore bit-identically to a single full
    /// snapshot and resume to the same fixpoint, at 1 and 4 threads,
    /// with GC forced between deltas and every round.
    #[test]
    fn chain_differential_matches_full_snapshots(n in 3usize..14, deltas in 1u64..4) {
        let dir = temp_dir(&format!("chain_prop_{n}_{deltas}"));
        let db = chain_db(n);
        assert_chain_equivalent_to_full(&dir, &db, deltas);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The configuration a child leg runs under, from `CKPT_CHILD_CONFIG`
/// (`threads,gc_every_round`; `1` thread is sequential, a `0` cadence is
/// off).
fn child_config(spec: &str) -> (Parallelism, GcCadence) {
    let (threads, gc) = spec
        .split_once(',')
        .expect("CKPT_CHILD_CONFIG is threads,gc");
    let parallelism = match threads.parse().expect("a thread count") {
        1 => Parallelism::Sequential,
        n => Parallelism::Threads(n),
    };
    let gc = match gc.parse().expect("a GC cadence") {
        0 => GcCadence::Off,
        n => GcCadence::EveryRounds(n),
    };
    (parallelism, gc)
}

/// What a child reports about the run it actually made: its configuration
/// and whether the run fanned out and collected.
fn ran_as(parallelism: Parallelism, gc: GcCadence, fanned_out: bool, collected: bool) -> String {
    format!("{parallelism:?} {gc:?} fanned_out={fanned_out} collected={collected}")
}

/// Child-process worker: restore the snapshot `$CKPT_CHILD_DIR/initial.cow`
/// into this (fresh) process's store, run to fixpoint under the
/// configuration `config` names, and write the result database (as a wire
/// snapshot), the rendered trace and the run's [`ran_as`] report back.
fn child_run(dir: &Path, config: &str) {
    let (parallelism, gc) = child_config(config);
    let restored = Engine::restore(dir.join("initial.cow")).expect("child restores the snapshot");
    let out = restored
        .engine
        .parallelism(parallelism)
        .gc_cadence(gc)
        .run(&restored.database)
        .expect("child reaches a fixpoint");
    let report = ran_as(
        parallelism,
        gc,
        out.stats.work_units > out.stats.rule_applications,
        out.stats.gc_sweeps > 0,
    );
    std::fs::write(dir.join("child_config.txt"), report).expect("child writes its configuration");
    wire::save_to_path(
        dir.join("child_result.cow"),
        std::slice::from_ref(&out.database),
        out.stats.iterations.to_string().as_bytes(),
    )
    .expect("child writes its result");
    std::fs::write(
        dir.join("child_trace.txt"),
        out.trace.as_ref().expect("tracing restored").render(),
    )
    .expect("child writes its trace");
}

#[test]
fn fresh_process_restore_reaches_an_identical_fixpoint() {
    // Child mode: this same test re-executed by the parent below.
    if let Ok(dir) = std::env::var("CKPT_CHILD_DIR") {
        let config = std::env::var("CKPT_CHILD_CONFIG").expect("the parent names a config");
        child_run(Path::new(&dir), &config);
        return;
    }

    let dir = temp_dir("fresh");
    let db = chain_db(9);
    let reference = engine().run(&db).unwrap();
    engine().checkpoint(&db, dir.join("initial.cow")).unwrap();

    for config in ["1,0", "4,0", "1,1", "4,1"] {
        // Re-run this test binary with only this test, in child mode: a
        // fresh process whose object store has interned nothing yet.
        let exe = std::env::current_exe().unwrap();
        let output = std::process::Command::new(exe)
            .arg("fresh_process_restore_reaches_an_identical_fixpoint")
            .arg("--exact")
            .arg("--nocapture")
            .env("CKPT_CHILD_DIR", &dir)
            .env("CKPT_CHILD_CONFIG", config)
            .output()
            .expect("spawn child test process");
        assert!(
            output.status.success(),
            "child (config={config}) failed:\n{}\n{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );

        // The child ran the configuration it was given: fanned out iff
        // threaded, collected iff a cadence was set.
        let (parallelism, gc) = child_config(config);
        assert_eq!(
            std::fs::read_to_string(dir.join("child_config.txt")).unwrap(),
            ran_as(
                parallelism,
                gc,
                parallelism != Parallelism::Sequential,
                gc != GcCadence::Off
            ),
        );

        // The child's fixpoint, re-interned into *this* process, must be
        // the very node the parent computed…
        let result = wire::load_from_path(dir.join("child_result.cow")).unwrap();
        assert_eq!(result.roots[0], reference.database, "config={config}");
        assert_eq!(result.roots[0].node_id(), reference.database.node_id());
        assert_eq!(
            String::from_utf8(result.meta).unwrap(),
            reference.stats.iterations.to_string(),
            "same number of fixpoint rounds"
        );
        // …and the rendered traces must agree line for line.
        let child_trace = std::fs::read_to_string(dir.join("child_trace.txt")).unwrap();
        assert_eq!(
            child_trace,
            reference.trace.as_ref().unwrap().render(),
            "config={config}"
        );
        std::fs::remove_file(dir.join("child_result.cow")).unwrap();
        std::fs::remove_file(dir.join("child_trace.txt")).unwrap();
        std::fs::remove_file(dir.join("child_config.txt")).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
