//! `StoreStats`/`MemoStats` accounting: the counters must reconcile with
//! the operations performed — every lookup is a hit or a miss, every miss
//! inserts exactly one entry, and every inserted entry is (at any later
//! moment) still cached, clock-evicted, or GC-swept — and the `Display`
//! rendering is pinned by exact snapshots.
//!
//! Own integration-test binary (own process) with a single `#[test]`: the
//! reconciliation equations only hold when nothing else drives the
//! process-wide memo tables and knobs concurrently.

use co_object::order::le;
use co_object::store::{
    self, MemoPolicy, MemoStats, ShardStats, StoreStats, SweepStats, SHARD_COUNT,
};
use co_object::Object;

/// A distinct memo-worthy set (41 nodes) whose *elements* are below the
/// memo threshold, so each `le` call touches the table exactly once.
fn probe_set(tag: &str, salt: i64) -> Object {
    Object::set(
        (0..13).map(|j| Object::tuple([(tag, Object::int(salt)), ("member", Object::int(j))])),
    )
}

#[test]
fn counters_reconcile_and_display_is_pinned() {
    store::set_memo_policy(MemoPolicy::SecondChance);
    store::set_memo_shard_cap(8); // small: force clock evictions

    // --- hit/miss/insert reconciliation under eviction churn -----------
    let objects: Vec<Object> = (0..60).map(|i| probe_set("acct", i)).collect();
    assert!(objects[0].meta().unwrap().size >= store::MEMO_MIN_SIZE);
    let s0 = store::stats();
    let mut lookups = 0u64;
    for a in &objects {
        for b in &objects {
            if a != b {
                let _ = le(a, b);
                lookups += 1;
            }
        }
    }
    let s1 = store::stats();
    let hits = s1.le_memo.hits - s0.le_memo.hits;
    let misses = s1.le_memo.misses - s0.le_memo.misses;
    assert_eq!(hits + misses, lookups, "every lookup is a hit or a miss");
    // Single-threaded: every miss inserts one fresh key, and each inserted
    // entry is now either still cached or was clock-evicted (no GC ran).
    let entered = (s1.le_memo.entries - s0.le_memo.entries) as u64;
    let evicted = s1.le_memo.evicted - s0.le_memo.evicted;
    let swept = s1.le_memo.swept - s0.le_memo.swept;
    assert_eq!(entered + evicted + swept, misses, "inserts must reconcile");
    assert!(evicted > 0, "3540 pairs into 8×16 slots must evict");

    // An immediate re-ask of a just-inserted pair is a hit.
    let (p, q) = (probe_set("acct_hit", 1), probe_set("acct_hit", 2));
    let s2 = store::stats();
    let _ = le(&p, &q);
    let _ = le(&p, &q);
    let s3 = store::stats();
    assert_eq!(s3.le_memo.misses - s2.le_memo.misses, 1);
    assert_eq!(s3.le_memo.hits - s2.le_memo.hits, 1);

    // --- GC sweep accounting -------------------------------------------
    let s4 = store::stats();
    {
        let garbage: Vec<Object> = (0..30).map(|i| probe_set("acct_gc", i)).collect();
        for w in garbage.windows(2) {
            let _ = le(&w[0], &w[1]);
        }
    } // all 30 sets (and their tuples) become unreachable here
    let pre = store::stats();
    let sweep = store::collect();
    let s5 = store::stats();
    assert_eq!(s5.gc_sweeps, s4.gc_sweeps + 1, "one collect, one sweep");
    assert_eq!(
        s5.gc_freed_nodes - s4.gc_freed_nodes,
        sweep.freed_nodes() as u64,
        "the cumulative counter must absorb exactly this sweep's count"
    );
    assert!(
        sweep.freed_nodes() >= 30,
        "the 30 dropped probe sets must be reclaimed, got {sweep}"
    );
    let memo_swept = s5.le_memo.swept - pre.le_memo.swept;
    assert!(memo_swept > 0, "entries keyed by freed ids must be swept");
    assert_eq!(
        s5.le_memo.entries,
        pre.le_memo.entries - memo_swept as usize,
        "a sweep removes exactly the entries it counts as swept"
    );
    // Live ledger: everything ever inserted is cached, evicted, or swept.
    assert_eq!(
        s5.le_memo.entries as u64 + s5.le_memo.evicted + s5.le_memo.swept,
        s5.le_memo.misses - s0.le_memo.misses
            + (s0.le_memo.entries as u64 + s0.le_memo.evicted + s0.le_memo.swept),
        "full-ledger reconciliation"
    );

    // --- Display snapshots ---------------------------------------------
    let rendered = StoreStats {
        tuple_nodes: 12,
        set_nodes: 3,
        intern_hits: 100,
        intern_l1_hits: 40,
        intern_misses: 60,
        intern_contended: 2,
        le_memo: MemoStats {
            entries: 5,
            hits: 10,
            misses: 9,
            contended: 0,
            evicted: 3,
            retained: 2,
            swept: 1,
        },
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
  memo ≤: 5 entries, 10 hits, 9 misses, 3 evicted, 2 retained, 1 swept
  memo ∪: 0 entries, 0 hits, 0 misses, 0 evicted, 0 retained, 0 swept
  memo ∩: 0 entries, 0 hits, 0 misses, 0 evicted, 0 retained, 0 swept
  gc: 2 sweeps (1 auto, 3 slices), 7 nodes freed, 15 live, 1 pinned roots
";
    assert_eq!(rendered, expected);

    let sweep_line = SweepStats {
        freed_tuples: 4,
        freed_sets: 2,
        examined: 10,
        memo_entries_swept: 3,
        columnar_entries_swept: 1,
        passes: 2,
        slices: 3,
        pinned_roots: 1,
    }
    .to_string();
    assert_eq!(
        sweep_line,
        "sweep: freed 6 of 10 nodes (4 tuples, 2 sets) in 2 passes / 3 slices, \
         3 memo entries swept, 1 columnar arenas swept, 1 pinned roots"
    );

    // hit_rate helper sanity.
    assert_eq!(MemoStats::default().hit_rate(), None);
    let rate = MemoStats {
        hits: 3,
        misses: 1,
        ..MemoStats::default()
    }
    .hit_rate()
    .unwrap();
    assert!((rate - 0.75).abs() < 1e-12);
}
