//! `relational.pipeline` — the columnar fast path as a library call:
//! `select_eq → project → natural_join → union` over 5 000-row flat
//! relations, then the decode back to rows a relational caller ends
//! with. Every result is compared with what the flat algebra
//! (`Query::eval`) computes for the same constants.

use crate::trace::{summarize, Tracer};
use crate::{closed_loop, library_result, EndToEnd, Layers, Rng, RunConfig, StoreMark, Traced};
use co_object::{Atom, Attr, Object};
use co_relational::{columnar, decode_relation, encode_relation, int_relation, Database, Query};
use std::time::{Duration, Instant};

/// Pipelines per second of window, frozen after calibrating once.
const OPS_PER_S: f64 = 240.0;
/// Pipelines per second of window in each pass of a traced run.
const TRACE_OPS_PER_S: f64 = 60.0;
const WARMUP_OPS_PER_S: f64 = 10.0;
const ROWS: i64 = 5_000;
/// Selection classes: each select keeps `ROWS / CLASSES` rows.
const CLASSES: i64 = 20;

/// The encoded inputs and, per selection class, the flat algebra's answer.
pub struct Inputs {
    r: Object,
    s: Object,
    s2: Object,
    expected: Vec<Object>,
}

/// Set-up: build the flat database from the seed, encode it, and compute
/// the oracle for every class with the flat algebra.
pub fn setup(seed: u64) -> Inputs {
    let shift = (seed % 1000) as i64;
    let mut db = Database::new();
    db.insert(
        "r",
        int_relation(
            ["k", "v"],
            (0..ROWS)
                .map(|k| [k, (k + shift) % CLASSES])
                .collect::<Vec<_>>(),
        ),
    );
    db.insert(
        "s",
        int_relation(
            ["k", "w"],
            (0..ROWS).map(|k| [k, (k + shift) % 7]).collect::<Vec<_>>(),
        ),
    );
    // Overlaps `s` on half its keys, so the union has duplicates to drop.
    db.insert(
        "s2",
        int_relation(
            ["k", "w"],
            (ROWS / 2..ROWS + ROWS / 2)
                .map(|k| [k, (k + shift) % 7])
                .collect::<Vec<_>>(),
        ),
    );
    let encoded = |name: &str| encode_relation(db.get(name).expect("relation just inserted"));
    let expected = (0..CLASSES)
        .map(|c| {
            let flat = Query::rel("r")
                .select_eq("v", c)
                .project(["k"])
                .join(Query::rel("s"), [("k", "k")])
                .union(Query::rel("s2"))
                .eval(&db)
                .expect("the flat algebra evaluates the pipeline");
            encode_relation(&flat)
        })
        .collect();
    Inputs {
        r: encoded("r"),
        s: encoded("s"),
        s2: encoded("s2"),
        expected,
    }
}

/// One pipeline for selection class `c`.
fn op(inputs: &Inputs, i: usize, c: i64, t: &mut Tracer) -> bool {
    t.set_op(i as u64);
    let span = t.enter("op.pipeline");
    let result = (|| {
        let (r, s, s2) = (inputs.r.as_set()?, inputs.s.as_set()?, inputs.s2.as_set()?);
        let sel = t
            .leaf("relational.select", || {
                columnar::select_eq(r, Attr::new("v"), &Atom::Int(c))
            })
            .ok()?;
        let sel = sel.as_set()?;
        let proj = t
            .leaf("relational.project", || {
                columnar::project(sel, &[Attr::new("k")])
            })
            .ok()?;
        let proj = proj.as_set()?;
        let join = t
            .leaf("relational.join", || columnar::natural_join(proj, s))
            .ok()?;
        let join = join.as_set()?;
        let union = t
            .leaf("relational.union", || columnar::union(join, s2))
            .ok()?;
        let rows = t
            .leaf("relational.decode", || decode_relation(&union))
            .ok()?;
        Some((union, rows))
    })();
    let ok = t.leaf("bench.check", || {
        result.is_some_and(|(union, rows)| {
            let expected = &inputs.expected[c as usize];
            union == *expected && Some(rows.len()) == expected.as_set().map(|s| s.len())
        })
    });
    t.exit(span);
    ok
}

/// The seeded class sequence: the only input that varies per op.
fn classes(seed: u64, stream: u64, n: usize) -> Vec<i64> {
    let mut rng = Rng::new(seed, stream);
    (0..n).map(|_| rng.below(CLASSES as u64) as i64).collect()
}

/// The untraced run.
pub fn run(cfg: &RunConfig) -> EndToEnd {
    let warmup = classes(cfg.seed, 0, cfg.count(WARMUP_OPS_PER_S, 3));
    let mut off = Tracer::new(false);
    let (inputs, setup_s) = crate::timed_setups(cfg.setup_reps, |_| {
        let inputs = setup(cfg.seed);
        for (i, &c) in warmup.iter().enumerate() {
            assert!(op(&inputs, i, c, &mut off), "warm-up pipeline failed");
        }
        inputs
    });
    let sequence = classes(cfg.seed, 1, cfg.count(OPS_PER_S, 30));
    let (samples, wall, failed) = closed_loop(
        sequence.len(),
        Duration::from_secs_f64(cfg.seconds),
        |i| op(&inputs, i, sequence[i], &mut off),
        |_| {},
    );
    library_result(setup_s, samples, wall, failed)
}

/// The traced run: an untraced replay (the overhead baseline), then the
/// traced one, over the same class sequence.
pub fn trace(cfg: &RunConfig, span_file: &std::path::Path) -> Traced {
    let inputs = setup(cfg.seed);
    let sequence = classes(cfg.seed, 1, cfg.count(TRACE_OPS_PER_S, 30));
    let replay = |t: &mut Tracer| {
        let t0 = Instant::now();
        let failed: u64 = sequence
            .iter()
            .enumerate()
            .map(|(i, &c)| u64::from(!op(&inputs, i, c, t)))
            .sum();
        (sequence.len() as f64 / t0.elapsed().as_secs_f64(), failed)
    };
    // One discarded pass builds the lazy columnar arenas for both sides.
    replay(&mut Tracer::new(false));
    let (untraced, failed_off) = replay(&mut Tracer::new(false));

    let mut layers = Layers::new();
    let mut on = Tracer::new(true);
    let mark = StoreMark::now();
    let (traced, failed_on) = replay(&mut on);
    mark.finish(sequence.len(), &mut layers);
    let reconciliation = summarize(
        &on,
        sequence.len(),
        &[
            ("relational.select", "relational.select_us"),
            ("relational.project", "relational.project_us"),
            ("relational.join", "relational.join_us"),
            ("relational.union", "relational.union_us"),
            ("relational.decode", "relational.encode_us"),
        ],
        &[],
        &mut layers,
    );
    layers.insert("trace.overhead_pct", (untraced - traced) * 100.0 / untraced);
    on.write_jsonl(span_file).expect("write the span file");
    Traced {
        layers,
        reconciliation,
        attempted: 2 * sequence.len() as u64,
        failed: failed_off + failed_on,
    }
}
