//! Pause-budget soak for the incremental collector (PR 10).
//!
//! The latency contract under test:
//!
//! - **bounded pauses** — with a budget of B µs, no slice of a sweep cycle
//!   holds interner locks longer than ~B; every `store.gc_pause_ns`
//!   sample in the window stays ≤ 2×B even while a cycle walks 100k+
//!   nodes;
//! - **reclamation is undiminished** — slicing still reclaims ≥90% of
//!   unreachable churn per cycle;
//! - **semantics are untouched** — fixpoints under aggressive slicing
//!   (tiny budget, GC after every round, 1 and 4 threads) are
//!   bit-identical to a never-collected baseline, same as `gc_soak.rs`
//!   proves for the default budget;
//! - **the collector thread preserves all of the above** while taking
//!   autonomous collection off the calling thread's trigger path;
//!   explicit `collect()` calls still sweep on the caller's thread,
//!   serialised with the collector by the GC gate.
//!
//! Tests serialize on one mutex (collection and the registry histograms
//! are process-wide) and restore every knob they touch.

mod common;

use common::{chain_family_db, descendants_program};
use complex_objects::engine::{Engine, GcCadence, Parallelism};
use complex_objects::object::{store, Object};
use complex_objects::obs;

static SOAK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn soak_lock() -> std::sync::MutexGuard<'static, ()> {
    SOAK_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores budget / collector / metrics knobs on drop (even on panic).
struct KnobGuard {
    budget_us: u64,
    collector: bool,
    metrics: bool,
}

impl KnobGuard {
    fn capture() -> Self {
        KnobGuard {
            budget_us: store::gc_pause_budget_us(),
            collector: store::gc_collector_enabled(),
            metrics: obs::metrics_enabled(),
        }
    }
}

impl Drop for KnobGuard {
    fn drop(&mut self) {
        store::set_gc_pause_budget_us(self.budget_us);
        store::set_gc_collector(self.collector);
        obs::set_metrics_enabled(self.metrics);
    }
}

/// One tuple node + one set node per call, uniquely tagged.
fn transient(tag: &str, i: i64) -> Object {
    Object::tuple([
        (tag, Object::int(i)),
        (
            "payload",
            Object::set([Object::int(i), Object::int(i + 1), Object::int(-i)]),
        ),
    ])
}

/// The windowed `store.gc_pause_ns` histogram since `before`.
fn pause_window(before: &obs::Snapshot) -> obs::HistogramSnapshot {
    obs::global()
        .snapshot()
        .minus(before)
        .histogram("store.gc_pause_ns")
        .cloned()
        .unwrap_or_default()
}

/// The acceptance soak: 100k+ nodes of churn swept under a small budget —
/// every per-slice pause sample in the window must respect it, and the
/// cycle must still reclaim ≥90%.
#[test]
fn budgeted_sweep_bounds_every_pause_sample() {
    let _g = soak_lock();
    let _knobs = KnobGuard::capture();
    // Pause samples are wall time while a lock is held, so on a 1-core
    // box they honestly include any scheduler preemption (a few ms per
    // CFS timeslice, debug build) that lands mid-region. A 10ms budget
    // keeps that noise inside the 2× allowance while still proving
    // slicing: the same cycle unsliced holds locks for >100ms.
    const BUDGET_US: u64 = 10_000;
    store::set_gc_pause_budget_us(BUDGET_US);
    store::set_gc_collector(false);
    obs::set_metrics_enabled(true);
    store::collect(); // start the window from a garbage-free store

    let before_stats = store::stats();
    let before_snap = obs::global().snapshot();
    let (created, sample_ids) = {
        let transients: Vec<Object> = (0..60_000).map(|i| transient("gc_inc_k", i)).collect();
        let sample_ids: Vec<_> = transients
            .iter()
            .step_by(997)
            .map(|o| o.node_id().unwrap())
            .collect();
        let mid = store::stats();
        let created =
            (mid.tuple_nodes + mid.set_nodes) - (before_stats.tuple_nodes + before_stats.set_nodes);
        assert!(
            created >= 100_000,
            "the workload must intern ≥100k fresh nodes, got {created}"
        );
        (created, sample_ids)
    }; // every transient drops here

    let sweep = store::collect();
    assert!(
        sweep.freed_nodes() >= created * 9 / 10,
        "a sliced sweep must still reclaim ≥90% of {created} nodes, freed {}",
        sweep.freed_nodes()
    );
    for id in sample_ids {
        assert!(!store::contains_node(id), "transient {id} must be gone");
    }
    assert!(
        sweep.slices >= 4,
        "a 100k-node cycle under a small budget must split into many \
         slices, got {}",
        sweep.slices
    );
    assert!(
        u64::from(sweep.slices) == store::stats().gc_slices - before_stats.gc_slices,
        "SweepStats.slices must reconcile with the cumulative slice counter"
    );

    let pauses = pause_window(&before_snap);
    assert!(
        pauses.count >= u64::from(sweep.slices),
        "every slice records a pause sample"
    );
    // The invariant: no sample in the window exceeds 2× the budget. The
    // histogram's max is a bucket upper bound (≤3.2% over), well inside
    // the 2× allowance.
    let bound_ns = 2 * BUDGET_US * 1_000;
    assert!(
        pauses.max <= bound_ns,
        "worst pause {}ns breaches 2×budget {}ns across {} samples",
        pauses.max,
        bound_ns,
        pauses.count
    );
}

/// Budget 0 disables slicing: the whole cycle is one stop-the-world
/// slice, the pre-incremental behaviour.
#[test]
fn zero_budget_is_one_stop_the_world_slice() {
    let _g = soak_lock();
    let _knobs = KnobGuard::capture();
    store::set_gc_pause_budget_us(0);
    store::set_gc_collector(false);
    {
        let _garbage: Vec<Object> = (0..5_000).map(|i| transient("gc_inc_stw", i)).collect();
    }
    let sweep = store::collect();
    assert!(sweep.freed_nodes() > 0, "churn must be reclaimed");
    assert_eq!(
        sweep.slices, 1,
        "an unbudgeted cycle must run as exactly one slice"
    );
}

/// The differential oracle under *aggressive* slicing: a 50µs budget
/// forces many slices per cycle, GC runs after every round, at 1 and 4
/// threads — and the fixpoint is still bit-identical to a never-collected
/// baseline (values, traces, and node ids).
#[test]
fn tiny_budget_fixpoints_stay_bit_identical() {
    let _g = soak_lock();
    let _knobs = KnobGuard::capture();
    store::set_gc_collector(false);
    let db = chain_family_db(60);
    let program = descendants_program("p0");
    store::set_gc_pause_budget_us(0);
    let baseline = Engine::new(program.clone())
        .parallelism(Parallelism::Sequential)
        .gc_cadence(GcCadence::Off)
        .tracing(true)
        .run(&db)
        .unwrap();
    store::set_gc_pause_budget_us(50);
    for threads in [1usize, 4] {
        let out = Engine::new(program.clone())
            .gc_every_rounds(1)
            .tracing(true)
            .parallelism(match threads {
                1 => Parallelism::Sequential,
                n => Parallelism::Threads(n),
            })
            .run(&db)
            .unwrap();
        assert_eq!(out.database, baseline.database, "threads={threads}");
        assert_eq!(out.database.node_id(), baseline.database.node_id());
        assert_eq!(
            out.trace.as_ref().unwrap().events(),
            baseline.trace.as_ref().unwrap().events(),
            "threads={threads}"
        );
        assert_eq!(out.stats.gc_sweeps, out.stats.iterations - 1);
        assert!(out.stats.gc_freed_nodes > 0);
    }
}

/// The collector thread, end to end: high-water churn on worker threads
/// is reclaimed by the dedicated thread with every pause budgeted, and an
/// explicit `collect()` stays synchronous (its `SweepStats` reflect the
/// cycle the caller ran).
#[test]
fn collector_thread_bounds_pauses_and_keeps_collect_synchronous() {
    let _g = soak_lock();
    let _knobs = KnobGuard::capture();
    // A wider budget than the inline soak: the pause samples honestly
    // include time the collector spends *descheduled* while holding a
    // shard lock, and on a 1-core box with churn workers runnable that
    // adds scheduler-latency periods (up to ~10ms each, debug build) on
    // top of the sweep work itself. The invariant under test is unchanged
    // — every sample ≤ 2× budget.
    const BUDGET_US: u64 = 30_000;
    store::set_gc_pause_budget_us(BUDGET_US);
    store::set_gc_collector(true);
    obs::set_metrics_enabled(true);
    store::collect();

    let before_snap = obs::global().snapshot();
    let before = store::stats();

    // Churn from worker threads with the high-water trigger armed: the
    // workers only ever *nudge*; the collector thread does the sweeping.
    let mark = store::live_nodes() + 4_000;
    store::set_gc_high_water(mark);
    // The workers pace themselves like real ingest (a breath every few
    // thousand interns) instead of hard-spinning: with every thread
    // permanently runnable on a 1-core box, the collector could lose
    // several consecutive timeslices *while holding a shard lock*, and
    // that scheduler stall — not sweep work — would breach the bound.
    let workers: Vec<_> = (0..2)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..30_000i64 {
                    let _ = transient("gc_inc_bg", t * 1_000_000 + i);
                    if i % 4_000 == 3_999 {
                        std::thread::sleep(std::time::Duration::from_micros(500));
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    store::set_gc_high_water(0);

    // Synchronous tail collection mops up whatever the last nudge missed;
    // it runs inline, queued behind any collector cycle still in flight.
    let sweep = store::collect();
    let after = store::stats();
    assert!(
        after.gc_sweeps > before.gc_sweeps,
        "the collector must have swept"
    );
    assert!(
        after.gc_freed_nodes - before.gc_freed_nodes >= 100_000,
        "2×30k tuple+set transients must be reclaimed, got {}",
        after.gc_freed_nodes - before.gc_freed_nodes
    );
    // `passes >= 1` proves the caller got a *completed cycle's* stats
    // back (a default/empty `SweepStats` has 0 passes). `examined` can
    // legitimately be 0 here: the collector's last nudge-driven cycle may
    // have already reclaimed every transient before this call took the
    // gate.
    assert!(
        sweep.passes >= 1,
        "a synchronous collect with the collector on returns real stats"
    );

    let pauses = pause_window(&before_snap);
    let bound_ns = 2 * BUDGET_US * 1_000;
    assert!(
        pauses.count > 0,
        "collector cycles must record pause samples"
    );
    assert!(
        pauses.max <= bound_ns,
        "worst collector pause {}ns breaches 2×budget {}ns across {} samples",
        pauses.max,
        bound_ns,
        pauses.count
    );
}

/// Explicit collection with the collector on and a high-water mark armed:
/// two threads calling `collect()` at once each sweep on their own
/// thread, serialised by the GC gate (there is no ticket queue) — both
/// get a completed cycle's stats back and the sweep counter advances once
/// per call.
#[test]
fn concurrent_explicit_collects_serialise_on_the_gate() {
    let _g = soak_lock();
    let _knobs = KnobGuard::capture();
    store::set_gc_collector(true);
    // Armed but out of reach: the collector thread is live and pacing,
    // yet every sweep counted below is an explicit one.
    store::set_gc_high_water(store::live_nodes() + 10_000_000);
    let before = store::stats();
    let start = std::sync::Arc::new(std::sync::Barrier::new(2));
    let callers: Vec<_> = (0..2)
        .map(|_| {
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                store::collect()
            })
        })
        .collect();
    let sweeps: Vec<_> = callers.into_iter().map(|c| c.join().unwrap()).collect();
    store::set_gc_high_water(0);
    let after = store::stats();

    for sweep in &sweeps {
        assert!(sweep.passes >= 1, "each caller ran a whole cycle: {sweep}");
    }
    assert!(
        after.gc_sweeps - before.gc_sweeps >= 2,
        "one sweep per explicit call, got {}",
        after.gc_sweeps - before.gc_sweeps
    );
    assert_eq!(
        after.gc_auto_triggers, before.gc_auto_triggers,
        "the mark was never crossed, so no cycle was autonomous"
    );
}
