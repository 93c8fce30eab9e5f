//! `persist.cycle` — durable state as a library call. Per op:
//! `checkpoint_full`, then three times *drift the database and
//! `checkpoint_delta`*, then `restore_chain` over the four layer files,
//! which must give back exactly the last drifted database. The database
//! is a closed genealogy plus a 5 000-row flat relation; files go to a
//! scratch directory under the suite's `out/`.

use crate::trace::{summarize, Tracer};
use crate::{
    closed_loop, library_result, pass_base, warmup_base, EndToEnd, Layers, RunConfig, StoreMark,
    Traced, OP_STRIDE,
};
use co_engine::Engine;
use co_object::{store, Attr, Object};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Cycles per second of window, frozen after calibrating once.
const OPS_PER_S: f64 = 75.0;
/// Cycles per second of window in each pass of a traced run.
const TRACE_OPS_PER_S: f64 = 15.0;
const WARMUP_OPS_PER_S: f64 = 2.0;
const GC_EVERY: usize = 50;
const FAMILY: usize = 200;
const ROWS: i64 = 5_000;
const DELTAS: usize = 3;
/// Fresh rows each drift adds to the flat relation.
const DRIFT_ROWS: i64 = 20;

/// The engine, the base database, and where the layer files go.
pub struct State {
    engine: Engine,
    db: Object,
    dir: PathBuf,
}

impl Drop for State {
    fn drop(&mut self) {
        // Scratch files only; a failed removal must not mask the result.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: close a genealogy under the descendants program, attach the
/// flat relation, and create the scratch directory.
pub fn setup(seed: u64, rep: usize) -> State {
    let engine = Engine::new(co_bench::descendants_program());
    let closed = engine
        .run(&co_bench::tree_family(FAMILY, 3))
        .expect("the genealogy closes")
        .database;
    assert_eq!(closed.dot("doa").as_set().map(|s| s.len()), Some(FAMILY));
    let shift = (seed % 1000) as i64;
    let db = Object::tuple(
        closed
            .as_tuple()
            .expect("a database is a tuple")
            .entries()
            .iter()
            .cloned()
            .chain([(
                Attr::new("rel"),
                co_bench::flat_relation(ROWS, 97 + shift, "k", "v"),
            )]),
    );
    let dir = crate::out_dir().join(format!("persist-{}-{rep}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the checkpoint scratch directory");
    State { engine, db, dir }
}

/// `db` with `DRIFT_ROWS` rows nobody has seen added to `rel`.
fn drift(db: &Object, base: i64) -> Object {
    let fresh = (0..DRIFT_ROWS).map(|j| {
        Object::tuple([
            (Attr::new("k"), Object::int(base + j)),
            (Attr::new("v"), Object::int(j)),
        ])
    });
    let rel = db.dot("rel").as_set().expect("rel is a set");
    let rel = Object::set(rel.elements().iter().cloned().chain(fresh));
    Object::tuple(
        db.as_tuple()
            .expect("a database is a tuple")
            .entries()
            .iter()
            .map(|(a, v)| {
                if *a == Attr::new("rel") {
                    (*a, rel.clone())
                } else {
                    (*a, v.clone())
                }
            }),
    )
}

/// One cycle. Adds the bytes it stored to `stored`.
fn op(state: &State, i: usize, base: i64, t: &mut Tracer, stored: &mut u64) -> bool {
    t.set_op(i as u64);
    let span = t.enter("op.cycle");
    let base = base + i as i64 * OP_STRIDE;
    let result = (|| {
        let full = t
            .leaf("engine.checkpoint", || {
                state
                    .engine
                    .checkpoint_full(&state.db, state.dir.join("full.cow"))
            })
            .ok()?;
        *stored += full.total_bytes;
        let mut handle = state.engine.last_checkpoint()?;
        let mut db = state.db.clone();
        for layer in 0..DELTAS {
            db = t.leaf("object.build", || {
                drift(&db, base + (layer as i64) * DRIFT_ROWS)
            });
            let path = state.dir.join(format!("delta{layer}.cow"));
            let (stats, next) = t
                .leaf("engine.checkpoint", || {
                    state.engine.checkpoint_delta(&db, path, &handle)
                })
                .ok()?;
            *stored += stats.total_bytes;
            handle = next;
        }
        // `restore_chain` verifies every link's base identity (payload
        // checksum + cumulative node count) on the way.
        let restored = t
            .leaf("engine.restore", || Engine::restore_chain(handle.layers()))
            .ok()?;
        Some((db, restored.database))
    })();
    let ok = t.leaf("bench.check", || {
        result.is_some_and(|(written, restored)| written == restored)
    });
    t.exit(span);
    ok
}

/// The pure codec cost of the same cycle, without files: the four layers
/// written into memory and read back as a chain. Top-level `ref.` spans —
/// this repeats work the op already did, so it is never added to it.
fn wire_reference(state: &State, base: i64, t: &mut Tracer, bytes: &mut u64) -> bool {
    let mut layers: Vec<Vec<u8>> = Vec::new();
    let mut db = state.db.clone();
    let mut buf = Vec::new();
    let Ok((_, mut handle)) = t.leaf("ref.wire_encode", || {
        co_wire::write_snapshot_handle(&mut buf, std::slice::from_ref(&db), b"")
    }) else {
        return false;
    };
    layers.push(buf);
    for layer in 0..DELTAS {
        db = drift(&db, base + (layer as i64) * DRIFT_ROWS);
        let mut buf = Vec::new();
        let Ok((_, next)) = t.leaf("ref.wire_encode", || {
            co_wire::write_delta_snapshot(&mut buf, std::slice::from_ref(&db), b"", &handle)
        }) else {
            return false;
        };
        handle = next;
        layers.push(buf);
    }
    *bytes += layers.iter().map(|l| l.len() as u64).sum::<u64>();
    t.leaf("ref.wire_decode", || {
        co_wire::read_chain(layers.iter().map(|l| l.as_slice()))
    })
    .is_ok_and(|(snapshot, _)| snapshot.roots.first() == Some(&db))
}

/// The untraced run.
pub fn run(cfg: &RunConfig) -> EndToEnd {
    let warmup = cfg.count(WARMUP_OPS_PER_S, 1);
    let mut off = Tracer::new(false);
    let (state, setup_s) = crate::timed_setups(cfg.setup_reps, |rep| {
        let state = setup(cfg.seed, rep);
        let base = warmup_base(cfg.seed, rep);
        for i in 0..warmup {
            assert!(
                op(&state, i, base, &mut off, &mut 0),
                "warm-up cycle failed"
            );
        }
        store::collect();
        state
    });
    let base = pass_base(cfg.seed, 1);
    let (samples, wall, failed) = closed_loop(
        cfg.count(OPS_PER_S, 10),
        Duration::from_secs_f64(cfg.seconds),
        |i| op(&state, i, base, &mut off, &mut 0),
        |i| {
            if (i + 1) % GC_EVERY == 0 {
                store::collect();
            }
        },
    );
    library_result(setup_s, samples, wall, failed)
}

/// The traced run: an untraced replay (the overhead baseline), then the
/// traced one with the in-memory codec reference after every cycle.
pub fn trace(cfg: &RunConfig, span_file: &std::path::Path) -> Traced {
    let state = setup(cfg.seed, 0);
    let n = cfg.count(TRACE_OPS_PER_S, 5);
    let replay = |base: i64, t: &mut Tracer, stored: &mut u64, wire_bytes: &mut u64| {
        let mut failed = 0;
        let mut in_ops = Duration::ZERO;
        for i in 0..n {
            let t0 = Instant::now();
            failed += u64::from(!op(&state, i, base, t, stored));
            in_ops += t0.elapsed();
            failed += u64::from(!wire_reference(
                &state,
                base + i as i64 * OP_STRIDE + 500,
                t,
                wire_bytes,
            ));
            if (i + 1) % GC_EVERY == 0 {
                t.leaf("object.gc", store::collect);
            }
        }
        (n as f64 / in_ops.as_secs_f64(), failed)
    };
    let (untraced, failed_off) = replay(
        pass_base(cfg.seed, 2),
        &mut Tracer::new(false),
        &mut 0,
        &mut 0,
    );
    store::collect();

    let mut layers = Layers::new();
    let mut on = Tracer::new(true);
    let (mut stored, mut wire_bytes) = (0, 0);
    let mark = StoreMark::now();
    let (traced, failed_on) = replay(
        pass_base(cfg.seed, 3),
        &mut on,
        &mut stored,
        &mut wire_bytes,
    );
    mark.finish(n, &mut layers);
    let reconciliation = summarize(
        &on,
        n,
        &[
            ("engine.checkpoint", "engine.checkpoint_us"),
            ("engine.restore", "engine.restore_us"),
            ("object.build", "object.build_us"),
            ("object.gc", "object.gc_us"),
            ("ref.wire_encode", "wire.encode_us"),
            ("ref.wire_decode", "wire.decode_us"),
        ],
        &[],
        &mut layers,
    );
    layers.insert("persist.stored_bytes", stored as f64 / n as f64);
    layers.insert("wire.bytes", wire_bytes as f64 / n as f64);
    layers.insert("trace.overhead_pct", (untraced - traced) * 100.0 / untraced);
    on.write_jsonl(span_file).expect("write the span file");
    Traced {
        layers,
        reconciliation,
        attempted: 2 * n as u64,
        failed: failed_off + failed_on,
    }
}
