//! Differential correctness of memo-table eviction.
//!
//! The `≤`/`∪`/`∩` memo tables are a pure cache: no matter the capacity
//! (`store::set_memo_shard_cap` down to 1 entry per shard) or whether
//! memoization is on at all, every operation must return the same
//! result. This test computes a reference answer matrix with memoization
//! disabled and replays it under the second-chance clock at each
//! capacity, then checks the clock's observable behaviour: it keeps a hot
//! pair through a stream of cold ones.
//!
//! This lives in its own integration-test binary (hence its own process)
//! with a single `#[test]`, because it drives the process-wide policy and
//! capacity knobs; interleaving with other tests would race on them.

use co_object::lattice::{intersect, union};
use co_object::order::le;
use co_object::store::{self, MemoPolicy};
use co_object::Object;

/// Distinct memo-worthy objects (each comfortably over `MEMO_MIN_SIZE`
/// nodes) with overlapping structure so `≤`/`∪`/`∩` all exercise real
/// work.
fn corpus() -> Vec<Object> {
    (0..40)
        .map(|i| {
            Object::set((0..13).map(|j| {
                Object::tuple([
                    ("memo_evict_group", Object::int(i % 7)),
                    ("memo_evict_member", Object::int(j + i % 3)),
                    ("memo_evict_salt", Object::int(i)),
                ])
            }))
        })
        .collect()
}

/// The full answer matrix over the corpus under the *current* policy.
fn evaluate(objects: &[Object]) -> (Vec<bool>, Vec<Object>, Vec<Object>) {
    let mut les = Vec::new();
    let mut unions = Vec::new();
    let mut intersections = Vec::new();
    for a in objects {
        for b in objects {
            les.push(le(a, b));
            unions.push(union(a, b));
            intersections.push(intersect(a, b));
        }
    }
    (les, unions, intersections)
}

/// A hot/cold workload: one hot pair re-asked between every cold pair of a
/// once-through stream. Returns the hit-count delta it produced.
fn hot_cold_hits(hot: (&Object, &Object), cold: &[Object]) -> u64 {
    let before = store::stats().le_memo.hits;
    let _ = le(hot.0, hot.1); // seed the hot entry
    for c in cold {
        let _ = le(hot.0, hot.1);
        for d in cold.iter().take(4) {
            let _ = le(c, d);
        }
    }
    store::stats().le_memo.hits - before
}

/// Single `#[test]` entry point: both scenarios drive the process-wide
/// policy/capacity knobs, so they must run sequentially in this process.
#[test]
fn memo_eviction_lifecycle() {
    eviction_agrees_with_memo_disabled_reference();
    second_chance_keeps_hot_pairs();
}

fn eviction_agrees_with_memo_disabled_reference() {
    let objects = corpus();
    assert!(objects[0].meta().unwrap().size >= store::MEMO_MIN_SIZE);

    // Reference: memoization off — every answer structurally recomputed.
    store::set_memo_policy(MemoPolicy::Disabled);
    let reference = evaluate(&objects);

    // Unbounded second chance (nothing ever evicted).
    store::set_memo_policy(MemoPolicy::SecondChance);
    store::set_memo_shard_cap(usize::MAX);
    store::clear_memo_tables();
    assert_eq!(evaluate(&objects), reference, "unbounded second chance");

    // Pathologically tiny capacity: one entry per shard, constant churn.
    store::set_memo_shard_cap(1);
    store::clear_memo_tables();
    let before = store::stats();
    assert_eq!(evaluate(&objects), reference, "second chance, cap 1");
    let after = store::stats();
    assert!(
        after.le_memo.evicted > before.le_memo.evicted,
        "cap 1 must churn the clock: {:?}",
        after.le_memo
    );
    for (label, m) in [
        ("≤", after.le_memo),
        ("∪", after.union_memo),
        ("∩", after.intersect_memo),
    ] {
        assert!(
            m.entries <= 16,
            "memo {label} holds {} entries with cap 1 × 16 shards",
            m.entries
        );
    }

    // A small capacity: same answers, bounded at cap (the clock evicts
    // *before* inserting).
    store::set_memo_shard_cap(32);
    store::clear_memo_tables();
    let before = store::stats();
    assert_eq!(evaluate(&objects), reference, "second chance, cap 32");
    let after = store::stats();
    assert!(after.le_memo.entries <= 32 * 16);
    assert!(
        after.le_memo.evicted > before.le_memo.evicted,
        "the corpus overflows cap 32, so the clock must evict"
    );
}

fn second_chance_keeps_hot_pairs() {
    let hot_a = Object::set(
        (0..20)
            .map(|j| Object::tuple([("hot_member", Object::int(j)), ("hot_tag", Object::int(0))])),
    );
    let hot_b = Object::set((0..20).map(|j| {
        Object::tuple([
            ("hot_member", Object::int(j)),
            ("hot_tag", Object::int(j % 2)),
        ])
    }));
    let cold: Vec<Object> = (0..600)
        .map(|i| {
            Object::set((0..13).map(|j| {
                Object::tuple([
                    ("cold_member", Object::int(j)),
                    ("cold_salt", Object::int(i * 64 + j)),
                ])
            }))
        })
        .collect();

    store::set_memo_shard_cap(32);
    store::set_memo_policy(MemoPolicy::SecondChance);
    store::clear_memo_tables();
    let clock_hits = hot_cold_hits((&hot_a, &hot_b), &cold);

    let retained = store::stats().le_memo.retained;
    assert!(
        retained > 0,
        "the clock hand must have granted second chances to the hot pair"
    );
    // Every re-ask of the hot pair hits: 2400 cold inserts at cap 32
    // never push it out (a wholesale shard clear would lose it each time
    // its shard fills).
    assert_eq!(
        clock_hits,
        cold.len() as u64,
        "the hot pair must survive the whole cold stream"
    );
}
