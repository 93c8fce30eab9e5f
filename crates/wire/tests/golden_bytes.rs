//! Golden bytes: the writer resolves each attribute's symbol once per
//! layer and the reader maps each layer's symbol table to attributes
//! once — neither may move a byte. The constants below were produced by
//! the writer as it was before that caching (one symbol lookup per tuple
//! entry) over the fixtures the other wire suites use; symbol order is
//! first appearance, shared between attribute names and string atoms.
//!
//! One test function, alone in its binary: tuple entries are ordered by
//! attribute id, ids are handed out in interning order, and the bytes
//! depend on both — so nothing else may intern attributes concurrently.

use co_object::{obj, Attr, Object};
use co_wire::{
    read_chain, read_snapshot, write_delta_snapshot, write_snapshot, write_snapshot_columnar,
    write_snapshot_handle, FORMAT_VERSION, FORMAT_VERSION_COLUMNAR, FORMAT_VERSION_DELTA,
};

/// `[k: <i>, v: {100, 200}]` — the `stats.rs` fixture.
fn fact(i: i64) -> Object {
    Object::tuple([("k", Object::int(i)), ("v", obj!({100, 200}))])
}

/// `[r: {fact(0), …}]` over the given keys.
fn relation_db(keys: impl Iterator<Item = i64>) -> Object {
    Object::tuple([("r", Object::set(keys.map(fact)))])
}

/// The lib tests' flat relation: `{[k: i, v: i % 7]}`.
fn flat_relation(rows: i64) -> Object {
    Object::set((0..rows).map(|i| {
        Object::tuple([
            (Attr::new("k"), Object::int(i)),
            (Attr::new("v"), Object::int(i % 7)),
        ])
    }))
}

/// FNV-1a, 64 bit — enough to pin a byte string without spelling it out.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn v1_v2_v3_bytes_are_pinned() {
    // Fix the attribute ids (and with them tuple entry order).
    for name in ["k", "v", "r", "name", "children", "age"] {
        Attr::new(name);
    }

    // Tiny, spelled out in full: an attribute (`name`) that is also a
    // string atom shares one symbol, in first-appearance order.
    let tiny = obj!([name: name, age: 25]);
    let mut tiny_bytes = Vec::new();
    write_snapshot(&mut tiny_bytes, std::slice::from_ref(&tiny), b"m").unwrap();
    assert_eq!(hex(&tiny_bytes), GOLDEN_TINY_V1, "tiny v1 snapshot");

    // v1: a relation whose rows share a nested set, plus a nested
    // genealogy-style root with string atoms.
    let db = relation_db(0..40);
    let nested = obj!([name: peter, children: {[name: max, age: 3], [name: susan]}]);
    let roots = [db, nested];
    let mut v1 = Vec::new();
    let stats = write_snapshot(&mut v1, &roots, b"meta").unwrap();
    assert_eq!(stats.version, FORMAT_VERSION);
    let mut v1_again = Vec::new();
    let (_, handle) = write_snapshot_handle(&mut v1_again, &roots, b"meta").unwrap();
    assert_eq!(v1, v1_again);

    // v2: a delta that grows the relation and renames nothing.
    let grown = relation_db((0..40).chain([97, 98]));
    let mut v2 = Vec::new();
    let (stats, _) =
        write_delta_snapshot(&mut v2, std::slice::from_ref(&grown), b"", &handle).unwrap();
    assert_eq!(stats.version, FORMAT_VERSION_DELTA);

    // v3: a flat relation above the default arena threshold.
    let flat = flat_relation(100);
    let mut v3 = Vec::new();
    let (stats, _) = write_snapshot_columnar(&mut v3, std::slice::from_ref(&flat), b"").unwrap();
    assert_eq!(stats.version, FORMAT_VERSION_COLUMNAR);

    let actual = [
        (v1.len(), fnv1a(&v1)),
        (v2.len(), fnv1a(&v2)),
        (v3.len(), fnv1a(&v3)),
    ];
    assert_eq!(
        actual, GOLDEN_LEN_FNV,
        "(len, fnv1a) of the v1 / v2 / v3 snapshots"
    );

    // And the reader, with its per-layer attribute table, restores the
    // very same nodes from those bytes.
    let back = read_snapshot(v1.as_slice()).unwrap();
    assert_eq!(back.roots, roots);
    assert_eq!(back.meta, b"meta");
    let (chain, _) = read_chain([v1.as_slice(), v2.as_slice()]).unwrap();
    assert_eq!(chain.roots[0].node_id(), grown.node_id());
    let back = read_snapshot(v3.as_slice()).unwrap();
    assert_eq!(back.roots[0].node_id(), flat.node_id());
}

const GOLDEN_TINY_V1: &str =
    "434f574952450d0a0100000000000000010000000000000001000000000000001600000000000000\
                              a09304ce4616831d02046e616d650361676510020006000104320700016d";
const GOLDEN_LEN_FNV: [(usize, u64); 3] = [
    (540, 1354211921375090476),
    (183, 1469150965772608082),
    (497, 17122182521827719990),
];
