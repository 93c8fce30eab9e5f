//! Size-triggered garbage collection: the high-water mark fires
//! `collect()` from the intern path, with hysteresis, and never touches
//! reachable objects.
//!
//! These tests drive process-global store state (the mark, the live-node
//! gauge), so they serialize on a local mutex and always restore the
//! disabled default before finishing.
//!
//! They also pin collection **inline** (collector thread off) for their
//! duration: the assertions count synchronous trigger→sweep causality on
//! the interning thread, which an asynchronously-paced collector
//! deliberately decouples. Collector-mode trigger behaviour is covered by
//! `gc_incremental.rs`.

use co_object::{obj, store, Object};
use std::sync::Mutex;

static GATE: Mutex<()> = Mutex::new(());

/// Restores the collector-thread mode it captured at construction, and
/// flushes this thread's L1 intern cache: each test runs on its own
/// thread, and nodes parked in a finished test's L1 would otherwise stay
/// uncollectable — inflating the next test's live count and mark — until
/// that thread exits.
struct CollectorMode(bool);

impl CollectorMode {
    /// Pins collection inline, returning a guard that restores the
    /// previous mode on drop (even on panic).
    fn pin_inline() -> Self {
        let was = store::gc_collector_enabled();
        store::set_gc_collector(false);
        CollectorMode(was)
    }
}

impl Drop for CollectorMode {
    fn drop(&mut self) {
        store::set_gc_collector(self.0);
        store::flush_thread_caches();
    }
}

/// Runs `f` with the high-water mark set to `live + headroom`, restoring
/// the disabled default afterwards (even on panic, via a drop guard).
fn with_high_water<R>(headroom: u64, f: impl FnOnce(u64) -> R) -> R {
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            store::set_gc_high_water(0);
        }
    }
    let _reset = Reset;
    let s = store::stats();
    let live = (s.tuple_nodes + s.set_nodes) as u64;
    let mark = live + headroom;
    store::set_gc_high_water(mark);
    f(mark)
}

fn churn(salt: i64, n: i64) {
    for i in 0..n {
        let _ = obj!([gc_hw_churn: (salt), k: (i), pad: {(i), (i + 1)}]);
    }
}

#[test]
fn crossing_the_mark_triggers_a_collection() {
    let _gate = GATE.lock().unwrap();
    let _inline = CollectorMode::pin_inline();
    let before = store::stats();
    with_high_water(256, |_| {
        // Far more transient garbage than the headroom: the trigger must
        // fire at least once while we intern, without any explicit
        // `collect()` call.
        churn(1, 2_000);
    });
    let after = store::stats();
    assert!(
        after.gc_auto_triggers > before.gc_auto_triggers,
        "no automatic collection fired: {} -> {}",
        before.gc_auto_triggers,
        after.gc_auto_triggers
    );
    assert!(
        after.gc_sweeps > before.gc_sweeps,
        "auto triggers must run real sweeps"
    );
    assert!(
        after.gc_freed_nodes > before.gc_freed_nodes,
        "the churn garbage must actually be reclaimed"
    );
}

#[test]
fn disabled_mark_never_triggers() {
    let _gate = GATE.lock().unwrap();
    let _inline = CollectorMode::pin_inline();
    store::set_gc_high_water(0);
    let before = store::stats();
    churn(2, 2_000);
    let after = store::stats();
    assert_eq!(
        after.gc_auto_triggers, before.gc_auto_triggers,
        "high-water 0 must disable automatic collection"
    );
}

#[test]
fn reachable_objects_survive_automatic_sweeps() {
    let _gate = GATE.lock().unwrap();
    let _inline = CollectorMode::pin_inline();
    // A working set we keep holding across the auto sweeps.
    let kept: Vec<Object> = (0..128)
        .map(|i| obj!([gc_hw_kept: (i), v: {(i), (i + 1), (i + 2)}]))
        .collect();
    let kept_ids: Vec<_> = kept.iter().map(|o| o.node_id().unwrap()).collect();
    with_high_water(128, |_| {
        churn(3, 2_000);
    });
    for (o, id) in kept.iter().zip(&kept_ids) {
        assert_eq!(o.node_id(), Some(*id), "held objects keep their identity");
        assert!(
            store::contains_node(*id),
            "held objects must survive auto sweeps"
        );
    }
    // Rebuilding one is an intern hit on the same node, not a new id.
    assert_eq!(
        obj!([gc_hw_kept: 5, v: {5, 6, 7}]).node_id(),
        kept[5].node_id()
    );
}

#[test]
fn trigger_rearms_at_the_mark_when_survivors_fit_below_it() {
    let _gate = GATE.lock().unwrap();
    let _inline = CollectorMode::pin_inline();
    // A big held working set, so a buggy hysteresis that always re-arms
    // half a mark above the *survivors* would push the next trigger
    // thousands of nodes past the configured mark. With survivors below
    // the mark, re-arming must happen AT the mark: steady transient churn
    // then fires roughly every `headroom` nodes, not every `live/2`.
    let _held: Vec<Object> = (0..2_000)
        .map(|i| obj!([gc_hw_rearm: (i), p: {(i), (i + 1)}]))
        .collect();
    // Start from a garbage-free store: residue from earlier tests would
    // otherwise be reclaimed by the first auto sweep, dropping the live
    // count far below the mark and masking the re-arm behaviour.
    store::collect();
    let before = store::stats();
    with_high_water(200, |_| {
        churn(5, 2_000); // ≈ 4000 transient nodes against 200 headroom
    });
    let triggers = store::stats().gc_auto_triggers - before.gc_auto_triggers;
    assert!(
        triggers >= 5,
        "re-arming at the mark should fire many sweeps across 4000 \
         transient nodes with 200 headroom, got {triggers}"
    );
}

#[test]
fn crossing_during_a_parked_sweep_is_not_dropped() {
    let _gate = GATE.lock().unwrap();
    let _inline = CollectorMode::pin_inline();
    // Regression (PR 10): crossing the high-water mark while the GC gate
    // was held used to hit `try_lock`, fail, and silently do nothing — no
    // sweep, no re-arm — so the mark could be overshot unboundedly for as
    // long as an explicit collection stayed parked. The crossing must now
    // be recorded and absorbed the moment the gate frees.
    store::collect(); // start from a garbage-free store
    let before = store::stats();
    with_high_water(200, |mark| {
        // Park the gate (as a long explicit sweep would) and blow through
        // the mark while it is held: every crossing lands on the occupied
        // gate's try_lock path.
        store::with_gc_paused(|| {
            churn(6, 2_000); // ≈ 4000 transients vs 200 headroom
            assert_eq!(
                store::stats().gc_auto_triggers,
                before.gc_auto_triggers,
                "no sweep can run while the gate is paused"
            );
            assert!(
                store::live_nodes() > mark,
                "the churn must actually overshoot the mark while parked"
            );
        });
        // `with_gc_paused` re-checks the gauge on release: the recorded
        // crossing fires its sweep right here, on this thread.
    });
    let after = store::stats();
    assert!(
        after.gc_auto_triggers > before.gc_auto_triggers,
        "a crossing recorded while the gate was held must trigger a sweep \
         when it frees, got {} -> {}",
        before.gc_auto_triggers,
        after.gc_auto_triggers
    );
    assert!(
        after.gc_freed_nodes > before.gc_freed_nodes,
        "the absorbed trigger must reclaim the parked churn"
    );
}

#[test]
fn oversized_working_set_does_not_collect_per_intern() {
    let _gate = GATE.lock().unwrap();
    let _inline = CollectorMode::pin_inline();
    // Hold a working set bigger than the mark: after the first auto sweep
    // the survivors still exceed it, so hysteresis must re-arm the trigger
    // half a mark higher instead of sweeping on every subsequent intern.
    let _held: Vec<Object> = (0..1_500)
        .map(|i| obj!([gc_hw_big: (i), w: {(i), (i * 7)}]))
        .collect();
    store::collect(); // start from a garbage-free store
    let before = store::stats();
    with_high_water(0, |_| {
        // Mark is exactly the current live count: already at the mark.
        churn(4, 1_000);
    });
    let after = store::stats();
    let triggers = after.gc_auto_triggers - before.gc_auto_triggers;
    assert!(triggers >= 1, "crossing the mark must trigger");
    assert!(
        triggers <= 4,
        "hysteresis must bound trigger frequency, got {triggers} sweeps for 1000 interns"
    );
}
