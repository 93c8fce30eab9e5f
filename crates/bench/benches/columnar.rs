//! PR 6 — the columnar fast path on `flat_relation_5000`: the shape the
//! snapshot bench pins at sharing ratio ~0.92 (12.3 B/node), where
//! interning buys nothing and a dense arena buys a lot.
//!
//! Three claims, asserted here before anything is recorded:
//!
//! - **operators** — columnar select/project/join are ≥ 5× faster than
//!   the supported interned path (`decode_relation` → `algebra` →
//!   `encode_relation`), and bit-identical to it: every fast result must
//!   re-intern to the very `NodeId` the slow path produces (union is
//!   checked for identity and recorded, with no speed floor — both
//!   paths are dominated by re-canonicalizing the 10 000-element result);
//! - **wire** — the columnar co-wire record (`write_snapshot_columnar`)
//!   is ≤ 60% of the flat relation's version-1 snapshot payload;
//! - **identity** — a columnar snapshot restores to the identical node.
//!
//! Run with `--save-json BENCH_pr6.json` to record the measurements —
//! every record carries the machine context (core count + `CO_*` knobs)
//! the criterion shim stamps in.

use co_bench::flat_relation;
use co_object::{Atom, Attr, Object};
use co_relational::{algebra, columnar, decode_relation, encode_relation, Relation};
use co_wire::{read_snapshot, write_snapshot, write_snapshot_columnar};
use criterion::{criterion_group, criterion_main, save_json_record, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

/// Median wall-clock nanoseconds of `f` over `reps` runs (one untimed
/// warm-up first — it builds the lazy columnar arenas, so the steady
/// state is what gets measured).
fn median_ns(reps: usize, mut f: impl FnMut() -> Object) -> f64 {
    black_box(f());
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

/// The interned baseline for unary operators: decode to rows, run the
/// algebra, re-encode canonically.
fn slow(rel: &Object, op: impl Fn(&Relation) -> Relation) -> Object {
    encode_relation(&op(&decode_relation(rel).unwrap()))
}

/// The interned baseline for binary operators.
fn slow2(l: &Object, r: &Object, op: impl Fn(&Relation, &Relation) -> Relation) -> Object {
    encode_relation(&op(
        &decode_relation(l).unwrap(),
        &decode_relation(r).unwrap(),
    ))
}

fn bench_operators(c: &mut Criterion) {
    const ROWS: i64 = 5_000;
    const CLASSES: i64 = 97;
    let r = flat_relation(ROWS, CLASSES, "k", "v");
    // A thin probe relation sharing attribute `k`: the join result stays
    // small, so input processing — what the fast path accelerates — is
    // what both sides spend their time on.
    let s = Object::set((0..100i64).map(|i| {
        Object::tuple([
            (Attr::new("k"), Object::int(i * 50)),
            (Attr::new("w"), Object::int(i % 7)),
        ])
    }));
    // A same-schema sibling for union (disjoint key range).
    let r2 = Object::set((ROWS..ROWS + ROWS).map(|i| {
        Object::tuple([
            (Attr::new("k"), Object::int(i)),
            (Attr::new("v"), Object::int(i % CLASSES)),
        ])
    }));
    let (rs, ss, r2s) = (
        r.as_set().unwrap(),
        s.as_set().unwrap(),
        r2.as_set().unwrap(),
    );
    let (k, v) = (Attr::new("k"), Attr::new("v"));
    let three = Atom::from(3i64);
    let _ = k;

    // The fast path must be *bit-identical* to the slow path before any
    // speed claim means anything.
    let identity_cases: Vec<(&str, Object, Object)> = vec![
        (
            "select_eq",
            columnar::select_eq(rs, v, &three).unwrap(),
            slow(&r, |rel| algebra::select_eq(rel, v, &three).unwrap()),
        ),
        (
            "project",
            columnar::project(rs, &[v]).unwrap(),
            slow(&r, |rel| algebra::project(rel, &[v]).unwrap()),
        ),
        (
            "natural_join",
            columnar::natural_join(rs, ss).unwrap(),
            slow2(&r, &s, |l, rr| algebra::natural_join(l, rr).unwrap()),
        ),
        (
            "union",
            columnar::union(rs, r2s).unwrap(),
            slow2(&r, &r2, |l, rr| algebra::union(l, rr).unwrap()),
        ),
    ];
    for (name, fast, slow_result) in &identity_cases {
        assert_eq!(
            fast.node_id(),
            slow_result.node_id(),
            "columnar {name} must re-intern to the slow path's node"
        );
    }
    drop(identity_cases);

    let reps = 15;
    // (name, fast ns, interned ns, speed floor — None for union).
    let timed: Vec<(&str, f64, f64, Option<f64>)> = vec![
        (
            "select_eq",
            median_ns(reps, || columnar::select_eq(rs, v, &three).unwrap()),
            median_ns(reps, || {
                slow(&r, |rel| algebra::select_eq(rel, v, &three).unwrap())
            }),
            Some(5.0),
        ),
        (
            "project",
            median_ns(reps, || columnar::project(rs, &[v]).unwrap()),
            median_ns(reps, || {
                slow(&r, |rel| algebra::project(rel, &[v]).unwrap())
            }),
            Some(5.0),
        ),
        (
            "natural_join",
            median_ns(reps, || columnar::natural_join(rs, ss).unwrap()),
            median_ns(reps, || {
                slow2(&r, &s, |l, rr| algebra::natural_join(l, rr).unwrap())
            }),
            Some(5.0),
        ),
        (
            "union",
            median_ns(reps, || columnar::union(rs, r2s).unwrap()),
            median_ns(reps, || {
                slow2(&r, &r2, |l, rr| algebra::union(l, rr).unwrap())
            }),
            None,
        ),
    ];
    for (name, fast_ns, slow_ns, floor) in &timed {
        let speedup = slow_ns / fast_ns;
        println!(
            "columnar/{name}: fast {:.1}µs vs interned {:.1}µs — {speedup:.1}x",
            fast_ns / 1e3,
            slow_ns / 1e3
        );
        if let Some(floor) = floor {
            assert!(
                speedup >= *floor,
                "acceptance: columnar {name} must be ≥{floor}x the interned path on \
                 flat_relation_{ROWS}, got {speedup:.2}x ({fast_ns:.0}ns vs {slow_ns:.0}ns)"
            );
        }
        save_json_record(&format!(
            "{{\"bench\": \"columnar\", \"id\": \"speedup/{name}/flat_relation_{ROWS}\", \
             \"fast_ns\": {fast_ns:.1}, \"interned_ns\": {slow_ns:.1}, \
             \"speedup\": {speedup:.2}, \"bit_identical\": true}}"
        ));
    }

    // Standard per-iteration records for the fast path itself.
    let mut group = c.benchmark_group("columnar");
    group.bench_with_input(
        BenchmarkId::new("select_eq", format!("flat_relation_{ROWS}")),
        &r,
        |b, rel| {
            let set = rel.as_set().unwrap();
            b.iter(|| columnar::select_eq(black_box(set), v, &three).unwrap())
        },
    );
    group.bench_with_input(
        BenchmarkId::new("project", format!("flat_relation_{ROWS}")),
        &r,
        |b, rel| {
            let set = rel.as_set().unwrap();
            b.iter(|| columnar::project(black_box(set), &[v]).unwrap())
        },
    );
    group.bench_with_input(
        BenchmarkId::new("natural_join", format!("flat_relation_{ROWS}x100")),
        &(r.clone(), s.clone()),
        |b, (rel, probe)| {
            let (left, right) = (rel.as_set().unwrap(), probe.as_set().unwrap());
            b.iter(|| columnar::natural_join(black_box(left), black_box(right)).unwrap())
        },
    );
    // The build-side choice: the same 250 × 5 000 join in both argument
    // orders (the hash table goes on the 250-row side either way), next
    // to the bulk decode that ends a relational pipeline.
    let thin = Object::set((0..250i64).map(|i| {
        Object::tuple([
            (Attr::new("k"), Object::int(i * 20)),
            (Attr::new("w"), Object::int(i % 7)),
        ])
    }));
    let thin_set = thin.as_set().unwrap();
    assert_eq!(
        columnar::natural_join(thin_set, rs).unwrap().node_id(),
        columnar::natural_join(rs, thin_set).unwrap().node_id(),
    );
    group.bench_function(BenchmarkId::new("join", "250x5000"), |b| {
        b.iter(|| columnar::natural_join(black_box(thin_set), black_box(rs)).unwrap())
    });
    group.bench_function(BenchmarkId::new("join", "5000x250"), |b| {
        b.iter(|| columnar::natural_join(black_box(rs), black_box(thin_set)).unwrap())
    });
    group.bench_function(BenchmarkId::new("decode_relation", ROWS), |b| {
        b.iter(|| decode_relation(black_box(&r)).unwrap())
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    const ROWS: i64 = 5_000;
    let r = flat_relation(ROWS, 97, "k", "v");
    let roots = [r.clone()];

    let mut row_bytes = Vec::new();
    let row_stats = write_snapshot(&mut row_bytes, &roots, b"").unwrap();
    let mut col_bytes = Vec::new();
    let (col_stats, _) = write_snapshot_columnar(&mut col_bytes, &roots, b"").unwrap();
    assert_eq!(col_stats.columnar_sets, 1);
    let ratio = col_stats.payload_bytes as f64 / row_stats.payload_bytes as f64;
    println!(
        "columnar/wire: v3 payload {} B vs v1 payload {} B ({:.1}% — v1 is the \
         61.5 KB flat snapshot the roadmap pins)",
        col_stats.payload_bytes,
        row_stats.payload_bytes,
        ratio * 100.0
    );
    assert!(
        ratio <= 0.60,
        "acceptance: columnar payload ≤60% of the flat v1 snapshot, got {:.1}%",
        ratio * 100.0
    );
    // The compact encoding still restores to the identical node.
    let snap = read_snapshot(col_bytes.as_slice()).unwrap();
    assert_eq!(snap.roots[0].node_id(), r.node_id());
    save_json_record(&format!(
        "{{\"bench\": \"columnar\", \"id\": \"wire/flat_relation_{ROWS}\", \
         \"columnar_payload_bytes\": {}, \"v1_payload_bytes\": {}, \
         \"payload_ratio\": {ratio:.3}, \"columnar_sets\": {}, \
         \"restores_bit_identical\": true}}",
        col_stats.payload_bytes, row_stats.payload_bytes, col_stats.columnar_sets
    ));

    let mut group = c.benchmark_group("columnar/wire");
    group.bench_function(
        BenchmarkId::new("write_v1", format!("flat_relation_{ROWS}")),
        |b| {
            b.iter(|| {
                let mut out = Vec::with_capacity(row_bytes.len());
                write_snapshot(&mut out, black_box(&roots), b"").unwrap();
                out
            })
        },
    );
    group.bench_function(
        BenchmarkId::new("write_columnar", format!("flat_relation_{ROWS}")),
        |b| {
            b.iter(|| {
                let mut out = Vec::with_capacity(col_bytes.len());
                write_snapshot_columnar(&mut out, black_box(&roots), b"").unwrap();
                out
            })
        },
    );
    group.bench_function(
        BenchmarkId::new("read_columnar", format!("flat_relation_{ROWS}")),
        |b| b.iter(|| read_snapshot(black_box(col_bytes.as_slice())).unwrap()),
    );
    group.finish();
}

criterion_group!(benches, bench_operators, bench_wire);
criterion_main!(benches);
