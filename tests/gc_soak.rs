//! Differential soak tests for the object-store lifecycle: weak-interning
//! GC (`store::collect`) under randomized evaluate/drop/collect workloads.
//!
//! The safety contract under test:
//!
//! - **no reachable node is ever freed** — anything still held (fixpoint
//!   databases, kept objects, pinned `Root`s) survives every sweep and
//!   keeps its `NodeId`;
//! - **unreachable nodes are actually reclaimed** — transient garbage
//!   (superseded rounds, dropped results) disappears, in bulk;
//! - **collection is invisible to semantics** — fixpoints computed with GC
//!   forced after every round, sequentially or with 4 worker threads, are
//!   bit-identical (values, traces, and interned node ids) to a
//!   never-collected run;
//! - **dangling ids stay dangling** — a freed id is never re-bound, so
//!   stale ids held downstream are detectable, not aliased.
//!
//! The tests in this binary serialize on one mutex: `collect` and the
//! sweep counters are process-wide, and precise reclamation assertions
//! need to know whose garbage a sweep freed.

mod common;

use common::{chain_family_db, descendants_program, random_graph_db, reachability_program};
use complex_objects::engine::{Engine, GcCadence, Parallelism};
use complex_objects::object::{store, Object};
use proptest::prelude::*;

static SOAK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn soak_lock() -> std::sync::MutexGuard<'static, ()> {
    SOAK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A transient object with a unique, test-tagged shape: one tuple node
/// plus one set node per call.
fn transient(tag: &str, i: i64) -> Object {
    Object::tuple([
        (tag, Object::int(i)),
        (
            "payload",
            Object::set([Object::int(i), Object::int(i + 1), Object::int(-i)]),
        ),
    ])
}

/// The acceptance soak: intern ≥100k transient nodes, drop them, and
/// demand one `collect` reclaims ≥90%.
#[test]
fn soak_reclaims_at_least_90_percent_of_unreachable_nodes() {
    let _g = soak_lock();
    let before = store::stats();
    let (created, sample_ids) = {
        let transients: Vec<Object> = (0..60_000).map(|i| transient("soak_k", i)).collect();
        let sample_ids: Vec<_> = transients
            .iter()
            .step_by(997)
            .map(|o| o.node_id().unwrap())
            .collect();
        let mid = store::stats();
        let created = (mid.tuple_nodes + mid.set_nodes) - (before.tuple_nodes + before.set_nodes);
        assert!(
            created >= 100_000,
            "the workload must intern ≥100k fresh nodes, got {created}"
        );
        (created, sample_ids)
    }; // every transient drops here
    let sweep = store::collect();
    assert!(
        sweep.freed_nodes() >= created * 9 / 10,
        "one sweep must reclaim ≥90% of {created} unreachable nodes, freed {}",
        sweep.freed_nodes()
    );
    for id in sample_ids {
        assert!(
            !store::contains_node(id),
            "dropped transient {id} must be gone"
        );
    }
}

/// Reachability is absolute: whatever the churn around them, held objects
/// survive every sweep with their identity intact.
#[test]
fn reachable_nodes_survive_every_sweep_with_identity() {
    let _g = soak_lock();
    let kept: Vec<Object> = (0..500).map(|i| transient("gc_keep", i)).collect();
    let ids: Vec<_> = kept.iter().map(|o| o.node_id().unwrap()).collect();
    let pinned = store::pin(&kept[0]).unwrap();
    for round in 0..3 {
        {
            let _garbage: Vec<Object> = (0..2_000)
                .map(|i| transient("gc_churn", round * 10_000 + i))
                .collect();
        }
        let sweep = store::collect();
        assert!(sweep.freed_nodes() > 0, "churn must be reclaimed");
        assert!(sweep.pinned_roots >= 1, "the pinned root must be visible");
    }
    for (o, id) in kept.iter().zip(&ids) {
        assert!(store::contains_node(*id), "kept node {id} was freed");
        // Rebuilding the same canonical value must hit the same node: if
        // the store had freed a reachable node, this would intern a fresh
        // one under a fresh id.
        let rebuilt = transient(
            "gc_keep",
            o.dot("gc_keep").as_atom().unwrap().as_int().unwrap(),
        );
        assert_eq!(rebuilt.node_id(), o.node_id());
    }
    drop(pinned);
}

/// Freed ids never come back: the same value re-interned after a sweep is
/// a *new* node, and the old id stays permanently dead. A dead object
/// nested 20 levels deep (alternating tuple and set) also pins down that
/// one sweep frees a whole dead tree, not just its top layers.
#[test]
fn dangling_ids_stay_detectable_and_are_never_recycled() {
    let _g = soak_lock();
    let old_id = {
        let o = transient("gc_dangle", 424_242);
        o.node_id().unwrap()
    };
    let deep_ids: Vec<_> = {
        let mut level = Object::int(525_252);
        let mut ids = Vec::new();
        for depth in 0..20 {
            level = if depth % 2 == 0 {
                Object::tuple([
                    ("gc_deep_nest", level),
                    ("gc_deep_level", Object::int(depth)),
                ])
            } else {
                Object::set([level, Object::int(525_252 + depth)])
            };
            ids.push(level.node_id().unwrap());
        }
        ids
    }; // only the store references the 20 levels from here on
    store::collect();
    assert!(!store::contains_node(old_id), "dropped node must be swept");
    for (depth, id) in deep_ids.iter().enumerate() {
        assert!(
            !store::contains_node(*id),
            "level {depth} of the dead nested object survived one sweep"
        );
    }
    let rebuilt = transient("gc_dangle", 424_242);
    let new_id = rebuilt.node_id().unwrap();
    assert_ne!(new_id, old_id, "ids must never be recycled");
    assert!(store::contains_node(new_id));
    assert!(!store::contains_node(old_id));
}

/// The deterministic heavy chain: GC after every round, 1 and 4 threads,
/// versus a never-collected baseline — bit-identical everything.
#[test]
fn chain_fixpoint_is_bit_identical_under_gc_and_threads() {
    let _g = soak_lock();
    let db = chain_family_db(60);
    let program = descendants_program("p0");
    let baseline = Engine::new(program.clone())
        .parallelism(Parallelism::Sequential)
        .gc_cadence(GcCadence::Off)
        .tracing(true)
        .run(&db)
        .unwrap();
    for threads in [1usize, 4] {
        let engine = Engine::new(program.clone())
            .gc_every_rounds(1)
            .tracing(true)
            .parallelism(match threads {
                1 => Parallelism::Sequential,
                n => Parallelism::Threads(n),
            });
        let out = engine.run(&db).unwrap();
        assert_eq!(out.database, baseline.database, "threads={threads}");
        assert_eq!(out.database.node_id(), baseline.database.node_id());
        assert_eq!(
            out.trace.as_ref().unwrap().events(),
            baseline.trace.as_ref().unwrap().events(),
            "threads={threads}"
        );
        // EveryRounds(1): one sweep per changed round (all but the last).
        assert_eq!(out.stats.gc_sweeps, out.stats.iterations - 1);
        assert!(
            out.stats.gc_freed_nodes > 0,
            "61 superseded databases must yield reclaimable garbage"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized intern → evaluate → drop → collect → re-evaluate cycles:
    /// fixpoints under per-round GC (sequential and 4 threads) must be
    /// bit-identical to the never-collected baseline, before *and* after
    /// extra sweeps.
    #[test]
    fn differential_soak_randomized(
        seed in any::<u64>(),
        nodes in 4i64..14,
        edges in 4usize..40,
    ) {
        let _g = soak_lock();
        let db = random_graph_db(seed, nodes, edges);
        let program = reachability_program();
        let baseline = Engine::new(program.clone())
            .parallelism(Parallelism::Sequential)
            .gc_cadence(GcCadence::Off)
            .tracing(true)
            .run(&db)
            .unwrap();

        // Churn the store between runs: transient garbage plus a sweep.
        {
            let _garbage: Vec<Object> = (0..512)
                .map(|i| transient("gc_prop_churn", seed as i64 ^ i))
                .collect();
        }
        store::collect();

        for threads in [1usize, 4] {
            let engine = Engine::new(program.clone())
                .gc_every_rounds(1)
                .tracing(true)
                .parallelism(match threads {
                    1 => Parallelism::Sequential,
                    n => Parallelism::Threads(n),
                });
            let out = engine.run(&db).unwrap();
            prop_assert_eq!(&out.database, &baseline.database);
            prop_assert_eq!(out.database.node_id(), baseline.database.node_id());
            prop_assert_eq!(
                out.trace.as_ref().unwrap().events(),
                baseline.trace.as_ref().unwrap().events()
            );
            prop_assert_eq!(out.stats.gc_sweeps, out.stats.iterations - 1);
        }

        // And once more after everything transient is swept away.
        store::collect();
        let again = Engine::new(program).gc_every_rounds(1).run(&db).unwrap();
        prop_assert_eq!(&again.database, &baseline.database);
        prop_assert_eq!(again.database.node_id(), baseline.database.node_id());
    }
}
