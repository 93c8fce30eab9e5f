//! `StoreStats`/`SweepStats` accounting: the GC counters must reconcile
//! with the sweeps performed, and the `Display` renderings are pinned by
//! exact snapshots.
//!
//! Own integration-test binary (own process) with a single `#[test]`: the
//! sweep-count equations only hold when nothing else collects the
//! process-wide store concurrently.

use co_object::store::{self, MemoStats, ShardStats, StoreStats, SweepStats, SHARD_COUNT};
use co_object::Object;

/// A distinct 41-node set: 13 tuples tagged with `tag = salt`.
fn probe_set(tag: &str, salt: i64) -> Object {
    Object::set(
        (0..13).map(|j| Object::tuple([(tag, Object::int(salt)), ("member", Object::int(j))])),
    )
}

#[test]
fn counters_reconcile_and_display_is_pinned() {
    // --- GC sweep accounting -------------------------------------------
    let before = store::stats();
    {
        let _garbage: Vec<Object> = (0..30).map(|i| probe_set("acct_gc", i)).collect();
    } // all 30 sets (and their tuples) become unreachable here
    let sweep = store::collect();
    let after = store::stats();
    assert_eq!(
        after.gc_sweeps,
        before.gc_sweeps + 1,
        "one collect, one sweep"
    );
    assert_eq!(
        after.gc_freed_nodes - before.gc_freed_nodes,
        sweep.freed_nodes() as u64,
        "the cumulative counter must absorb exactly this sweep's count"
    );
    assert!(
        sweep.freed_nodes() >= 30,
        "the 30 dropped probe sets must be reclaimed, got {sweep}"
    );
    // Nothing memoizes the lattice operations: the legacy counters stay 0.
    for m in [after.le_memo, after.union_memo, after.intersect_memo] {
        assert_eq!(m, MemoStats::default());
    }

    // --- Display snapshots ---------------------------------------------
    let rendered = StoreStats {
        tuple_nodes: 12,
        set_nodes: 3,
        intern_hits: 100,
        intern_l1_hits: 40,
        intern_misses: 60,
        intern_contended: 2,
        le_memo: MemoStats::default(),
        union_memo: MemoStats::default(),
        intersect_memo: MemoStats::default(),
        gc_sweeps: 2,
        gc_freed_nodes: 7,
        gc_auto_triggers: 1,
        gc_slices: 3,
        live_nodes: 15,
        pinned_roots: 1,
        shards: [ShardStats::default(); SHARD_COUNT],
    }
    .to_string();
    let expected = "\
store: 12 tuple nodes, 3 set nodes across 16 shards
  intern: 100 hits (40 thread-local), 60 misses, 2 contended acquisitions
  gc: 2 sweeps (1 auto, 3 slices), 7 nodes freed, 15 live, 1 pinned roots
";
    assert_eq!(rendered, expected);

    let sweep_line = SweepStats {
        freed_tuples: 4,
        freed_sets: 2,
        examined: 10,
        columnar_entries_swept: 1,
        slices: 3,
        pinned_roots: 1,
    }
    .to_string();
    assert_eq!(
        sweep_line,
        "sweep: freed 6 of 10 nodes (4 tuples, 2 sets) in 3 slices, \
         1 columnar arenas swept, 1 pinned roots"
    );
}
