//! Property tests: snapshots round-trip random deep objects exactly —
//! same canonical structure, same interned node (within one process) —
//! and sharing makes the wire encoding no larger than (usually far
//! smaller than) the naive tree encoding.

use co_object::random::{Generator, Profile};
use co_object::{obj, store, Object};
use co_wire::{naive_encoding_len, read_snapshot, write_snapshot};
use proptest::prelude::*;

fn arb_objects() -> impl Strategy<Value = Vec<Object>> {
    (any::<u64>(), 1usize..5, any::<bool>()).prop_map(|(seed, n, large)| {
        let profile = if large {
            Profile::large()
        } else {
            Profile::small()
        };
        Generator::new(seed, profile).objects(n)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Write → read is the identity on canonical objects, down to node
    /// identity (re-interning finds the same nodes in-process).
    #[test]
    fn snapshot_roundtrips_random_objects(roots in arb_objects()) {
        let mut bytes = Vec::new();
        let stats = write_snapshot(&mut bytes, &roots, b"prop-meta").unwrap();
        prop_assert_eq!(stats.total_bytes as usize, bytes.len());
        let snap = read_snapshot(bytes.as_slice()).unwrap();
        prop_assert_eq!(&snap.roots, &roots);
        prop_assert_eq!(snap.meta.as_slice(), b"prop-meta".as_slice());
        for (loaded, original) in snap.roots.iter().zip(&roots) {
            prop_assert_eq!(loaded.node_id(), original.node_id());
        }
    }

    /// Writing the same roots twice yields byte-identical snapshots
    /// (the format is deterministic — a requirement for content-addressed
    /// storage and for diffing checkpoints).
    #[test]
    fn snapshots_are_deterministic(roots in arb_objects()) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_snapshot(&mut a, &roots, b"m").unwrap();
        write_snapshot(&mut b, &roots, b"m").unwrap();
        prop_assert_eq!(a, b);
    }

    /// Sharing structure: no node is ever encoded twice, so a second
    /// copy of every root is almost free (a reference, not a re-encoding
    /// — the naive tree encoding would double).
    #[test]
    fn duplicated_roots_cost_references_not_reencodings(roots in arb_objects()) {
        let mut bytes = Vec::new();
        let stats = write_snapshot(&mut bytes, &roots, b"").unwrap();

        let doubled: Vec<Object> = roots.iter().chain(roots.iter()).cloned().collect();
        let mut bytes2 = Vec::new();
        let stats2 = write_snapshot(&mut bytes2, &doubled, b"").unwrap();
        prop_assert_eq!(stats2.nodes, stats.nodes, "no node is ever encoded twice");
        // Composite roots repeat as a node reference; atom roots repeat
        // inline — either way at most 11 bytes (a max-length int varint).
        prop_assert!(
            stats2.payload_bytes <= stats.payload_bytes + 11 * stats.roots,
            "duplicate roots must cost only references: {} vs {}",
            stats2.payload_bytes,
            stats.payload_bytes
        );
        // Meanwhile the naive encoding really does double.
        prop_assert_eq!(
            naive_encoding_len(&doubled),
            naive_encoding_len(&roots).saturating_mul(2)
        );
    }
}

#[test]
fn deep_chains_do_not_overflow_the_stack() {
    // 20 000 nesting levels: the writer's walk, the reader's streaming
    // pass, and the naive-length accounting must all be iterative (test
    // threads get small stacks — recursion this deep would abort).
    let mut o = Object::empty_tuple();
    for _ in 0..20_000 {
        o = Object::tuple([("d", o)]);
    }
    let mut bytes = Vec::new();
    let stats = write_snapshot(&mut bytes, std::slice::from_ref(&o), b"").unwrap();
    assert_eq!(stats.nodes, 20_001);
    // A pure chain has no sharing: naive pays ~4 bytes per level (tag,
    // width, inline "d"), the wire table slightly more (backward refs).
    let naive = naive_encoding_len(std::slice::from_ref(&o));
    assert!(naive >= 4 * 20_000, "naive chain accounting: {naive}");
    let snap = read_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(snap.roots[0].node_id(), o.node_id());
}

#[test]
fn round_trips_survive_size_triggered_collection() {
    // Arm a low high-water mark, so the store sweeps itself from the
    // intern path while a snapshot is built, written and re-interned.
    // The mark is process-wide: every test running alongside in this
    // binary round-trips under the same GC pressure until it is disarmed.
    struct Disarm;
    impl Drop for Disarm {
        fn drop(&mut self) {
            store::set_gc_high_water(0);
        }
    }
    let _disarm = Disarm;
    let before = store::stats().gc_auto_triggers;
    store::set_gc_high_water(20_000);

    let mut o = obj!([gc_pressure_leaf: 1]);
    for _ in 0..25_000 {
        o = Object::tuple([("d", o)]);
    }
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, std::slice::from_ref(&o), b"gc").unwrap();
    let snap = read_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(snap.roots, [o.clone()]);
    assert_eq!(snap.roots[0].node_id(), o.node_id());
    assert!(
        store::stats().gc_auto_triggers > before,
        "25 000 fresh nodes past a 20 000 mark fired no automatic collection"
    );
}

#[test]
fn measured_sharing_on_a_deep_tower() {
    // The motivating case: 2^16 tree expansion, 17 distinct nodes.
    let mut level = obj!({ widget });
    for _ in 0..16 {
        level = Object::tuple([("left", level.clone()), ("right", level)]);
    }
    let mut bytes = Vec::new();
    let stats = write_snapshot(&mut bytes, &[level.clone()], b"").unwrap();
    let naive = naive_encoding_len(&[level]);
    let ratio = naive as f64 / stats.payload_bytes as f64;
    assert!(
        ratio > 100.0,
        "tower sharing ratio should be huge, got {ratio:.1} ({naive} vs {})",
        stats.payload_bytes
    );
}
