//! `decode_relation` reads tuple entries directly: it must not build —
//! and the arena cache must not memoize — a columnar image of a set that
//! is only being decoded. (A decode routed through `arena_for` kept a
//! multi-thousand-row arena alive per decoded result and raised the
//! pipeline benchmark's peak RSS by a quarter.)
//!
//! Alone in its binary: `columnar::stats()` is process-wide, and any
//! concurrently running columnar operator would move it.

use co_object::{columnar, Attr, Object};
use co_relational::{decode_relation, encode_relation};

#[test]
fn decode_relation_leaves_the_arena_cache_alone() {
    let rel = Object::set((0..5_000i64).map(|i| {
        Object::tuple([
            (Attr::new("k"), Object::int(i)),
            (Attr::new("v"), Object::int(i % 20)),
        ])
    }));
    assert!(rel.as_set().unwrap().len() >= columnar::columnar_min_rows());
    let before = columnar::stats();
    let decoded = decode_relation(&rel).unwrap();
    assert_eq!(decoded.len(), 5_000);
    assert_eq!(columnar::stats(), before, "decode touched the arena layer");
    // Re-encoding goes through the canonical boundary, not the cache.
    assert_eq!(encode_relation(&decoded).node_id(), rel.node_id());
    assert_eq!(columnar::stats().entries, before.entries);
}
