//! `fixpoint.fresh` — the paper's own workload (Example 4.5) as a library
//! call: `Engine::run` over inputs whose atoms are salted per op, so every
//! closure interns fresh nodes. Three shapes cycle: a chain (many rounds,
//! thin deltas), a tree (few rounds, wide deltas), a one-round join.
//! The harness calls `store::collect()` every [`GC_EVERY`] ops, inside the
//! wall time but outside the latency samples.

use crate::trace::{summarize, Tracer};
use crate::{
    closed_loop, library_result, pass_base, warmup_base, EndToEnd, Layers, RunConfig, StoreMark,
    Traced, OP_STRIDE, PASS_STRIDE,
};
use co_engine::{Engine, Strategy};
use co_object::{store, Attr, Object};
use std::time::{Duration, Instant};

/// Closures per second of window, frozen after calibrating once.
const OPS_PER_S: f64 = 900.0;
/// Closures per second of window in each pass of a traced run.
const TRACE_OPS_PER_S: f64 = 300.0;
const WARMUP_OPS_PER_S: f64 = 30.0;
const GC_EVERY: usize = 100;
const CHAIN_N: usize = 24;
const TREE_N: usize = 81;
const TREE_FANOUT: usize = 3;
const JOIN_ROWS: i64 = 64;
const JOIN_CLASSES: i64 = 8;

const JOIN_PROGRAM: &str = "[r: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}].";

/// The two engines the workload runs (programs parsed once, in set-up).
pub struct Engines {
    descendants: Engine,
    join: Engine,
}

/// The name of family member `j`: the program's fixed root `p0`, or an
/// integer no other op uses.
fn member(base: i64, j: usize) -> Object {
    if j == 0 {
        Object::str("p0")
    } else {
        Object::int(base + j as i64)
    }
}

fn family(base: i64, n: usize, children_of: impl Fn(usize) -> Vec<usize>) -> Object {
    let name = Attr::new("name");
    let family = Object::set((0..n).map(|parent| {
        let children = Object::set(
            children_of(parent)
                .into_iter()
                .map(|c| Object::tuple([(name, member(base, c))])),
        );
        Object::tuple([
            (name, member(base, parent)),
            (Attr::new("children"), children),
        ])
    }));
    Object::tuple([(Attr::new("family"), family)])
}

/// The input of op `i` and the size its answer must have.
fn input(i: usize, base: i64) -> (Object, usize) {
    let base = base + i as i64 * OP_STRIDE;
    match i % 3 {
        0 => (family(base, CHAIN_N, |p| vec![p + 1]), CHAIN_N + 1),
        1 => (
            family(base, TREE_N, |p| {
                (1..=TREE_FANOUT)
                    .map(|k| p * TREE_FANOUT + k)
                    .filter(|c| *c < TREE_N)
                    .collect()
            }),
            TREE_N,
        ),
        _ => {
            let rel = |x: &str, y: &str, rows: i64, f: &dyn Fn(i64) -> (i64, i64)| {
                Object::set((0..rows).map(|j| {
                    let (u, v) = f(j);
                    Object::tuple([
                        (Attr::new(x), Object::int(u)),
                        (Attr::new(y), Object::int(v)),
                    ])
                }))
            };
            let db = Object::tuple([
                (
                    Attr::new("r1"),
                    rel("a", "b", JOIN_ROWS, &|j| {
                        (base + j, base + 500 + j % JOIN_CLASSES)
                    }),
                ),
                (
                    Attr::new("r2"),
                    rel("c", "d", JOIN_CLASSES, &|j| {
                        (base + 500 + j, base + 600 + j)
                    }),
                ),
            ]);
            (db, JOIN_ROWS as usize)
        }
    }
}

/// Set-up: parse both programs, build the engines, and check once that
/// semi-naive evaluation agrees with `Strategy::Naive` on small inputs.
pub fn setup() -> Engines {
    let engines = Engines {
        descendants: Engine::new(co_bench::descendants_program()),
        join: Engine::new(co_parser::parse_program(JOIN_PROGRAM).expect("join program parses")),
    };
    for i in 0..3 {
        let (db, _) = input(i, -PASS_STRIDE);
        let engine = if i % 3 == 2 {
            &engines.join
        } else {
            &engines.descendants
        };
        let fast = engine.run(&db).expect("closure runs").database;
        let naive = engine
            .clone()
            .strategy(Strategy::Naive)
            .run(&db)
            .expect("naive closure runs");
        assert_eq!(
            fast, naive.database,
            "semi-naive disagrees with naive on shape {i}"
        );
    }
    engines
}

/// One closure: build the salted input, run the engine, check the size.
fn op(engines: &Engines, i: usize, base: i64, t: &mut Tracer, rounds: &mut u64) -> bool {
    t.set_op(i as u64);
    let span = t.enter(["op.chain", "op.tree", "op.join"][i % 3]);
    let (db, expected) = t.leaf("object.build", || input(i, base));
    let engine = if i % 3 == 2 {
        &engines.join
    } else {
        &engines.descendants
    };
    let out = t.leaf("engine.closure", || engine.run(&db));
    let ok = t.leaf("bench.check", || {
        out.is_ok_and(|out| {
            *rounds += out.stats.iterations;
            let attr = if i % 3 == 2 { "r" } else { "doa" };
            out.database
                .dot(attr)
                .as_set()
                .is_some_and(|s| s.len() == expected)
        })
    });
    t.exit(span);
    ok
}

/// The untraced run.
pub fn run(cfg: &RunConfig) -> EndToEnd {
    let warmup = cfg.count(WARMUP_OPS_PER_S, 3);
    let mut off = Tracer::new(false);
    let (engines, setup_s) = crate::timed_setups(cfg.setup_reps, |rep| {
        let engines = setup();
        let base = warmup_base(cfg.seed, rep);
        for i in 0..warmup {
            assert!(
                op(&engines, i, base, &mut off, &mut 0),
                "warm-up closure failed"
            );
        }
        store::collect();
        engines
    });
    let base = pass_base(cfg.seed, 1);
    let (samples, wall, failed) = closed_loop(
        cfg.count(OPS_PER_S, 30),
        Duration::from_secs_f64(cfg.seconds),
        |i| op(&engines, i, base, &mut off, &mut 0),
        |i| {
            if (i + 1) % GC_EVERY == 0 {
                store::collect();
            }
        },
    );
    library_result(setup_s, samples, wall, failed)
}

/// One replay pass; returns ops per second and failures.
fn replay(engines: &Engines, n: usize, base: i64, t: &mut Tracer, rounds: &mut u64) -> (f64, u64) {
    let mut failed = 0;
    let t0 = Instant::now();
    for i in 0..n {
        failed += u64::from(!op(engines, i, base, t, rounds));
        if (i + 1) % GC_EVERY == 0 {
            t.leaf("object.gc", store::collect);
        }
    }
    (n as f64 / t0.elapsed().as_secs_f64(), failed)
}

/// The traced run: an untraced replay (the overhead baseline), then the
/// traced one.
pub fn trace(cfg: &RunConfig, span_file: &std::path::Path) -> Traced {
    let engines = setup();
    let n = cfg.count(TRACE_OPS_PER_S, GC_EVERY);
    let (untraced, failed_off) = replay(
        &engines,
        n,
        pass_base(cfg.seed, 2),
        &mut Tracer::new(false),
        &mut 0,
    );
    store::collect();

    let mut layers = Layers::new();
    let mut on = Tracer::new(true);
    let mut rounds = 0;
    let mark = StoreMark::now();
    let (traced, failed_on) = replay(&engines, n, pass_base(cfg.seed, 3), &mut on, &mut rounds);
    mark.finish(n, &mut layers);
    let reconciliation = summarize(
        &on,
        n,
        &[
            ("object.build", "object.build_us"),
            ("engine.closure", "engine.closure_us"),
            ("object.gc", "object.gc_us"),
        ],
        &[],
        &mut layers,
    );
    layers.insert("engine.rounds", rounds as f64 / n as f64);
    layers.insert("trace.overhead_pct", (untraced - traced) * 100.0 / untraced);
    on.write_jsonl(span_file).expect("write the span file");
    Traced {
        layers,
        reconciliation,
        attempted: 2 * n as u64,
        failed: failed_off + failed_on,
    }
}
