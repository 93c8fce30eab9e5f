//! Byte-level adversarial harness: for a corpus of full (v1) and delta
//! (v2) snapshots, **every** truncation boundary and every header bit
//! flip — plus every payload bit flip, which on this corpus size is
//! denser than sampling — must come back as a typed [`WireError`]:
//! never a panic, never a silently-wrong object.
//!
//! Why this is the contract and not "best effort": the payload is
//! checksummed, so payload corruption is always caught; the header is
//! *not* covered by the checksum, so every header field must be either
//! structurally validated (magic, version window, zeroed reserved bytes,
//! count plausibility) or unable to survive decoding (counts that
//! disagree with the payload hit tag/truncation/trailing-byte errors).
//! Each case runs under `catch_unwind` so a panic fails the suite with
//! the exact offending byte, and every error's `Display` must render
//! non-empty (the typed-rendering contract `tests/errors.rs` pins
//! string-by-string).

use co_object::{obj, Object};
use co_wire::{
    describe_snapshot, read_chain, read_snapshot, write_delta_snapshot, write_snapshot,
    write_snapshot_columnar, write_snapshot_handle, Snapshot, WireError, FORMAT_VERSION_COLUMNAR,
    HEADER_LEN, MAGIC,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A full snapshot exercising every value tag: ⊥/⊤ roots, bools, ints
/// (negative too), floats, strings, shared subtrees, repeated roots.
fn full_corpus_bytes() -> Vec<u8> {
    let shared = obj!({[k: 1, v: {alpha, beta}], [k: 2, v: {alpha, beta}]});
    let roots = vec![
        shared.clone(),
        co_object::Object::Bottom,
        co_object::Object::Top,
        obj!(-42),
        co_object::Object::float(2.5),
        co_object::Object::bool(true),
        co_object::Object::str("héllo"),
        shared,
    ];
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, &roots, b"adversarial-meta").unwrap();
    bytes
}

/// A base + delta pair: the delta adds one fact to the base's relation.
fn chain_corpus_bytes() -> (Vec<u8>, Vec<u8>) {
    let v1 = obj!([r: {[a: 1, b: {x, y}], [a: 2, b: {x, y}]}]);
    let mut base = Vec::new();
    let (_, handle) =
        write_snapshot_handle(&mut base, std::slice::from_ref(&v1), b"base-meta").unwrap();
    let v2 = obj!([r: {[a: 1, b: {x, y}], [a: 2, b: {x, y}], [a: 3, b: {x, y}]}]);
    let mut delta = Vec::new();
    write_delta_snapshot(
        &mut delta,
        std::slice::from_ref(&v2),
        b"delta-meta",
        &handle,
    )
    .unwrap();
    (base, delta)
}

/// Runs one read attempt, asserting it cannot panic, and returns the
/// typed outcome. The `label` names the exact corruption for failures.
fn sound_read<T>(label: &str, read: impl FnOnce() -> Result<T, WireError>) -> Result<T, WireError> {
    match catch_unwind(AssertUnwindSafe(read)) {
        Ok(outcome) => outcome,
        Err(_) => panic!("reader panicked on {label}"),
    }
}

/// Asserts the read fails with a typed error whose Display renders.
fn assert_typed_failure<T>(label: &str, read: impl FnOnce() -> Result<T, WireError>) {
    match sound_read(label, read) {
        Ok(_) => panic!("expected a typed error on {label}, got Ok"),
        Err(e) => {
            let text = e.to_string();
            assert!(!text.is_empty(), "empty error rendering on {label}");
        }
    }
}

/// Every strict prefix of a readable snapshot must fail typed: the
/// header declares the payload length, so no truncation can look
/// complete.
fn assert_all_truncations_fail(
    name: &str,
    bytes: &[u8],
    read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError>,
) {
    for len in 0..bytes.len() {
        assert_typed_failure(
            &format!("{name}: truncation to {len}/{} bytes", bytes.len()),
            || read(&bytes[..len]),
        );
    }
}

/// Every single-bit flip in `range` must fail typed.
fn assert_bit_flips_fail(
    name: &str,
    bytes: &[u8],
    range: std::ops::Range<usize>,
    read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError>,
) {
    for ix in range {
        for bit in 0..8 {
            let mut corrupt = bytes.to_vec();
            corrupt[ix] ^= 1 << bit;
            assert_typed_failure(&format!("{name}: bit {bit} of byte {ix} flipped"), || {
                read(&corrupt)
            });
        }
    }
}

#[test]
fn v1_reader_survives_every_truncation_and_bit_flip() {
    let bytes = full_corpus_bytes();
    // Sanity: the pristine blob reads back.
    let original = read_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(original.roots.len(), 8);

    let read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> = &|b| read_snapshot(b);
    assert_all_truncations_fail("v1", &bytes, read);
    assert_bit_flips_fail("v1 header", &bytes, 0..HEADER_LEN, read);
    assert_bit_flips_fail("v1 payload", &bytes, HEADER_LEN..bytes.len(), read);
}

#[test]
fn v2_reader_survives_every_truncation_and_bit_flip_of_the_delta() {
    let (base, delta) = chain_corpus_bytes();
    // Sanity: the pristine chain restores.
    let (snap, _) = read_chain([base.as_slice(), delta.as_slice()]).unwrap();
    assert_eq!(snap.meta, b"delta-meta");

    let read_with_base: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> =
        &|d| read_chain([base.as_slice(), d]).map(|(snap, _)| snap);
    assert_all_truncations_fail("v2 delta", &delta, read_with_base);
    assert_bit_flips_fail("v2 delta header", &delta, 0..HEADER_LEN, read_with_base);
    assert_bit_flips_fail(
        "v2 delta payload",
        &delta,
        HEADER_LEN..delta.len(),
        read_with_base,
    );
}

#[test]
fn v2_chain_survives_every_corruption_of_the_base_layer() {
    let (base, delta) = chain_corpus_bytes();
    // Corrupting the *base* under an intact delta must also fail typed:
    // either the base itself fails to decode, or its payload checksum
    // changes and the delta's base link no longer matches.
    let read_as_base: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> =
        &|b| read_chain([b, delta.as_slice()]).map(|(snap, _)| snap);
    assert_all_truncations_fail("v2 base", &base, read_as_base);
    assert_bit_flips_fail("v2 base header", &base, 0..HEADER_LEN, read_as_base);
    assert_bit_flips_fail(
        "v2 base payload",
        &base,
        HEADER_LEN..base.len(),
        read_as_base,
    );
}

#[test]
fn the_v1_entry_point_always_rejects_deltas_however_corrupt() {
    // `read_snapshot` can never restore a delta (it has no base), so
    // every variant of the delta blob — intact included — must fail
    // typed through the v1 entry point.
    let (_, delta) = chain_corpus_bytes();
    assert_typed_failure("v2 via read_snapshot: intact", || {
        read_snapshot(delta.as_slice())
    });
    let read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> = &|b| read_snapshot(b);
    assert_all_truncations_fail("v2 via read_snapshot", &delta, read);
    assert_bit_flips_fail("v2 via read_snapshot header", &delta, 0..HEADER_LEN, read);
    assert_bit_flips_fail(
        "v2 via read_snapshot payload",
        &delta,
        HEADER_LEN..delta.len(),
        read,
    );
}

#[test]
fn the_inspector_never_panics_and_catches_what_the_checksum_covers() {
    // `describe` reports the header's *claims* (it does not decode the
    // node table), so a flipped count byte can still describe — but it
    // must never panic, every truncation must fail typed (the payload
    // goes missing), and every payload flip must fail the checksum.
    let bytes = full_corpus_bytes();
    let pristine = describe_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(pristine.nodes, 4);

    for len in 0..bytes.len() {
        assert_typed_failure(&format!("describe: truncation to {len}"), || {
            describe_snapshot(&bytes[..len])
        });
    }
    for ix in HEADER_LEN..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[ix] ^= 1 << bit;
            assert_typed_failure(&format!("describe: payload bit {bit} of byte {ix}"), || {
                describe_snapshot(corrupt.as_slice())
            });
        }
    }
    for ix in 0..HEADER_LEN {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[ix] ^= 1 << bit;
            // Header flips: no panic; magic/version/reserved/size flips
            // fail typed, count flips may legitimately describe (the
            // full readers are what decode-verify the counts).
            let label = format!("describe: header bit {bit} of byte {ix}");
            if let Ok(info) = sound_read(&label, || describe_snapshot(corrupt.as_slice())) {
                assert!(
                    (16..32).contains(&ix),
                    "only count-field flips may still describe, got Ok on {label}: {info}"
                );
            }
        }
    }
}

/// A columnar (v3) snapshot: a flat relation large enough for the
/// default `columnar_min_rows()` threshold, mixing every atom kind the
/// columns can carry, plus one ordinary root alongside.
fn columnar_corpus_bytes() -> Vec<u8> {
    let rel = Object::set((0..100i64).map(|i| {
        Object::tuple([
            ("flag", Object::bool(i % 2 == 0)),
            ("id", Object::int(i)),
            ("name", Object::str(format!("row{}", i % 5))),
            ("score", Object::float(i as f64 * 0.5)),
        ])
    }));
    let roots = vec![rel, obj!({extra, 7})];
    let mut bytes = Vec::new();
    let (stats, _) = write_snapshot_columnar(&mut bytes, &roots, b"columnar-meta").unwrap();
    assert_eq!(stats.version, FORMAT_VERSION_COLUMNAR);
    assert_eq!(stats.columnar_sets, 1);
    bytes
}

#[test]
fn v3_reader_survives_every_truncation_and_bit_flip() {
    let bytes = columnar_corpus_bytes();
    // Sanity: the pristine blob reads back.
    let original = read_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(original.roots.len(), 2);
    assert_eq!(original.meta, b"columnar-meta");

    let read: &dyn Fn(&[u8]) -> Result<Snapshot, WireError> = &|b| read_snapshot(b);
    assert_all_truncations_fail("v3", &bytes, read);
    assert_bit_flips_fail("v3 header", &bytes, 0..HEADER_LEN, read);
    assert_bit_flips_fail("v3 payload", &bytes, HEADER_LEN..bytes.len(), read);
}

#[test]
fn the_inspector_is_as_strict_on_v3_headers_as_on_v1() {
    let bytes = columnar_corpus_bytes();
    let pristine = describe_snapshot(bytes.as_slice()).unwrap();
    assert_eq!(pristine.version, FORMAT_VERSION_COLUMNAR);
    assert_eq!(pristine.columnar_sets, 1);

    for len in 0..bytes.len() {
        assert_typed_failure(&format!("describe v3: truncation to {len}"), || {
            describe_snapshot(&bytes[..len])
        });
    }
    for ix in 0..HEADER_LEN {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[ix] ^= 1 << bit;
            // As for v1: magic/version/size flips fail typed; flips in
            // the count fields — which for v3 include the columnar
            // count at bytes 12..16 — may describe, and the full reader
            // is what decode-verifies them.
            let label = format!("describe v3: header bit {bit} of byte {ix}");
            if let Ok(info) = sound_read(&label, || describe_snapshot(corrupt.as_slice())) {
                assert!(
                    (12..32).contains(&ix),
                    "only count-field flips may still describe, got Ok on {label}: {info}"
                );
            }
        }
    }
}

/// Hand-crafts a v3 snapshot from parts — header fields and a raw
/// payload — with a **correct** checksum, so the corruption under test
/// is the only thing wrong with the bytes.
fn craft_v3(columnar: u32, node_count: u64, root_count: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION_COLUMNAR.to_le_bytes());
    bytes.extend_from_slice(&columnar.to_le_bytes());
    bytes.extend_from_slice(&node_count.to_le_bytes());
    bytes.extend_from_slice(&root_count.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&co_wire::codec::checksum(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The payload of a minimal v3 snapshot — symbols `a`, `b`; one columnar
/// record (`schema` and `rows` overridable); one root referencing it —
/// so each semantic corruption below changes exactly one knob.
fn craft_v3_payload(schema: &[u64], cells: &[&[u8]]) -> Vec<u8> {
    use co_wire::codec::{put_str, put_varint};
    let mut p = Vec::new();
    put_varint(&mut p, 2); // symbol table: "a", "b"
    put_str(&mut p, "a");
    put_str(&mut p, "b");
    p.push(0x12); // NODE_FLAT_SET
    put_varint(&mut p, schema.len() as u64);
    for &ix in schema {
        put_varint(&mut p, ix);
    }
    let rows = cells.first().map_or(0, |c| c.len());
    put_varint(&mut p, rows as u64);
    for column in cells {
        for &v in *column {
            p.push(0x04); // VAL_INT
            put_varint(&mut p, u64::from(v) << 1); // zigzag, non-negative
        }
    }
    p.push(0x07); // root table: VAL_NODE
    put_varint(&mut p, 0);
    put_varint(&mut p, 0); // empty metadata
    p
}

#[test]
fn hand_crafted_columnar_corruptions_fail_typed() {
    // Sanity: the pristine crafted snapshot decodes to the real relation.
    let good = craft_v3(1, 1, 1, &craft_v3_payload(&[0, 1], &[&[1, 2], &[10, 20]]));
    let snap = read_snapshot(good.as_slice()).unwrap();
    assert_eq!(snap.roots, vec![obj!({[a: 1, b: 10], [a: 2, b: 20]})]);

    // Zero columns.
    assert_typed_failure("columnar record with zero arity", || {
        read_snapshot(craft_v3(1, 1, 1, &craft_v3_payload(&[], &[])).as_slice())
    });
    // Zero rows.
    assert_typed_failure("columnar record with zero rows", || {
        read_snapshot(craft_v3(1, 1, 1, &craft_v3_payload(&[0, 1], &[&[], &[]])).as_slice())
    });
    // A schema symbol index beyond the symbol table.
    assert_typed_failure("columnar schema symbol out of range", || {
        read_snapshot(craft_v3(1, 1, 1, &craft_v3_payload(&[0, 9], &[&[1], &[2]])).as_slice())
    });
    // The same attribute twice: no canonical tuple has that.
    assert_typed_failure("columnar schema with a duplicate attribute", || {
        read_snapshot(craft_v3(1, 1, 1, &craft_v3_payload(&[0, 0], &[&[1], &[2]])).as_slice())
    });
    // A row count the remaining payload cannot possibly satisfy.
    {
        use co_wire::codec::{put_str, put_varint};
        let mut p = Vec::new();
        put_varint(&mut p, 1);
        put_str(&mut p, "a");
        p.push(0x12);
        put_varint(&mut p, 1); // arity 1
        put_varint(&mut p, 0); // attr "a"
        put_varint(&mut p, 1_000_000); // a million rows in a dozen bytes
        assert_typed_failure("columnar record with an implausible row count", || {
            read_snapshot(craft_v3(1, 1, 0, &p).as_slice())
        });
    }
    // A cell that is a node reference (rows must be atoms) and a cell
    // that is ⊥ (canonical nodes contain neither extreme).
    for (label, tag) in [("node-reference cell", 0x07u8), ("bottom cell", 0x00u8)] {
        use co_wire::codec::{put_str, put_varint};
        let mut p = Vec::new();
        put_varint(&mut p, 1);
        put_str(&mut p, "a");
        p.push(0x12);
        put_varint(&mut p, 1);
        put_varint(&mut p, 0);
        put_varint(&mut p, 1); // one row
        p.push(tag);
        put_varint(&mut p, 0); // the reference/ignored operand
        assert_typed_failure(label, || read_snapshot(craft_v3(1, 1, 0, &p).as_slice()));
    }
    // Header/table count disagreements: more declared than present, and
    // a declared count of zero under version 3.
    assert_typed_failure("columnar count exceeding the node count", || {
        read_snapshot(craft_v3(2, 1, 1, &craft_v3_payload(&[0, 1], &[&[1], &[2]])).as_slice())
    });
    assert_typed_failure("version 3 with a zero columnar count", || {
        read_snapshot(craft_v3(0, 1, 1, &craft_v3_payload(&[0, 1], &[&[1], &[2]])).as_slice())
    });
}

#[test]
fn random_tail_garbage_after_a_valid_header_is_typed() {
    // A valid header whose payload is replaced by pseudo-random bytes of
    // the declared length: the checksum rejects essentially all of them,
    // and none may panic. (Deterministic xorshift so failures reproduce.)
    let bytes = full_corpus_bytes();
    let payload_len = bytes.len() - HEADER_LEN;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for case in 0..64 {
        let mut corrupt = bytes[..HEADER_LEN].to_vec();
        for _ in 0..payload_len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            corrupt.push(state as u8);
        }
        assert_typed_failure(&format!("random payload #{case}"), || {
            read_snapshot(corrupt.as_slice())
        });
    }
}
