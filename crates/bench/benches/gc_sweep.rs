//! F9 — object-store lifecycle: sweep cost under churn, idle-sweep
//! overhead, and reclamation ratio.
//!
//! Run with `--save-json <file>` (or `CRITERION_SAVE_JSON`) to record
//! every measurement — including the derived reclaim ratio this file
//! computes itself — as JSON.

use co_object::store;
use co_object::Object;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// One transient tuple + set pair, distinct per `(salt, i)`.
fn transient(salt: i64, i: i64) -> Object {
    Object::tuple([
        ("gc_bench_salt", Object::int(salt)),
        ("gc_bench_key", Object::int(i)),
        (
            "gc_bench_payload",
            Object::set([Object::int(i), Object::int(i + 1)]),
        ),
    ])
}

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc/sweep");
    // A live working set every sweep must examine and retain.
    let live: Vec<Object> = (0..10_000).map(|i| transient(-1, i)).collect();
    for &n in &[10_000usize, 50_000] {
        group.bench_with_input(BenchmarkId::new("churn", n), &n, |b, &n| {
            b.iter(|| {
                {
                    let _garbage: Vec<Object> = (0..n as i64).map(|i| transient(7, i)).collect();
                }
                black_box(store::collect())
            })
        });
    }
    group.bench_function("idle", |b| b.iter(|| black_box(store::collect())));
    group.finish();

    // Reclamation ratio, recorded as a derived JSON record.
    let before = store::stats();
    {
        let _garbage: Vec<Object> = (0..50_000).map(|i| transient(9, i)).collect();
    }
    let mid = store::stats();
    let created = (mid.tuple_nodes + mid.set_nodes) - (before.tuple_nodes + before.set_nodes);
    let sweep = store::collect();
    let ratio = sweep.freed_nodes() as f64 / created.max(1) as f64;
    println!(
        "gc/sweep/reclaim: created {created} transient nodes, freed {} ({:.1}%), {}",
        sweep.freed_nodes(),
        ratio * 100.0,
        sweep
    );
    criterion::save_json_record(&format!(
        "{{\"bench\": \"gc/sweep\", \"id\": \"reclaim_50k\", \"created_nodes\": {created}, \
         \"freed_nodes\": {}, \"reclaim_ratio\": {ratio:.4}}}",
        sweep.freed_nodes(),
    ));
    drop(live);
    store::collect();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
