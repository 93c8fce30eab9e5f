//! Quickstart: the complex-object model, the lattice, and the calculus in
//! five minutes.
//!
//! Run with `cargo run --example quickstart`.

use complex_objects::object::lattice::{intersect, union};
use complex_objects::object::order::le;
use complex_objects::object::{display, obj};
use complex_objects::prelude::*;

fn main() {
    // -----------------------------------------------------------------
    // 1. Objects: atoms, tuples, sets — freely nested, no schema.
    //    (Paper Definition 2.1 / Example 2.1.)
    // -----------------------------------------------------------------
    let person = obj!([
        name: [first: john, last: doe],
        age: 25,
        children: {john, mary, susan}
    ]);
    println!("a hierarchical person:\n  {person}\n");

    // The same thing via the parser (the paper's concrete syntax):
    let parsed =
        parse_object("[name: [first: john, last: doe], age: 25, children: {john, mary, susan}]")
            .expect("valid object syntax");
    assert_eq!(person, parsed);

    // Equality is the paper's semantic equality (Definition 2.2):
    assert_eq!(
        parse_object("[a: 1, b: 2]").unwrap(),
        parse_object("[b: 2, a: 1, c: bot]").unwrap(),
    );

    // -----------------------------------------------------------------
    // 2. The sub-object lattice (Section 3): ≤, union (lub), intersection
    //    (glb).
    // -----------------------------------------------------------------
    let a = obj!([name: peter, hobbies: {chess}]);
    let b = obj!([name: peter, age: 25]);
    println!("a         = {a}");
    println!("b         = {b}");
    println!("a ∪ b     = {}", union(&a, &b));
    println!("a ∩ b     = {}", intersect(&a, &b));
    assert!(le(&a, &union(&a, &b)));
    assert!(le(&intersect(&a, &b), &b));
    println!();

    // -----------------------------------------------------------------
    // 3. Formulas extract data (Definition 4.2): E(O) ≤ O.
    // -----------------------------------------------------------------
    let db = parse_object(
        "[people: {[name: ada,   born: 1815],
                   [name: alan,  born: 1912],
                   [name: grace, born: 1906]}]",
    )
    .unwrap();
    let f = parse_formula("[people: {[name: X, born: 1912]}]").unwrap();
    println!(
        "E(O) for {f}\n  = {}",
        interpret(&f, &db, MatchPolicy::Strict)
    );

    // -----------------------------------------------------------------
    // 4. Rules generate new structure (Definition 4.4), and programs run
    //    to a fixpoint (Theorem 4.1) on the engine.
    // -----------------------------------------------------------------
    let genealogy = parse_object(
        "[family: {[name: abraham, children: {[name: isaac]}],
                   [name: isaac,   children: {[name: esau], [name: jacob]}]}]",
    )
    .unwrap();
    let program = parse_program(
        "% Example 4.5 of the paper: descendants of abraham.
         [doa: {abraham}].
         [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
    )
    .unwrap();
    let out = Engine::new(program).run(&genealogy).expect("converges");
    println!("\ndescendants of abraham = {}", out.database.dot("doa"));
    println!("engine stats: {}", out.stats);

    // -----------------------------------------------------------------
    // 5. Pretty-printing for larger objects.
    // -----------------------------------------------------------------
    println!(
        "\nthe closed database:\n{}",
        display::pretty(&out.database, 60)
    );

    // -----------------------------------------------------------------
    // 6. The hash-consed store behind it all: every composite built above
    //    was interned (canonical equality = pointer equality), so
    //    rebuilding a value is an intern hit. The counters tell the story;
    //    force parallel evaluation with `Engine::threads` to watch them
    //    change.
    // -----------------------------------------------------------------
    println!("\n{}", complex_objects::object::store::stats());

    // -----------------------------------------------------------------
    // 7. Lifecycle: interned nodes live until a sweep proves them
    //    unreachable. Pin what must survive, drop the rest, collect.
    //    (Engines can do this automatically between rounds:
    //    `Engine::gc_every_rounds(1)`.)
    // -----------------------------------------------------------------
    use complex_objects::object::store;
    let root = store::pin(&out.database).expect("composites are pinnable");
    {
        // Transient intermediates nobody keeps…
        let _scratch: Vec<Object> = (0..1000)
            .map(|i| obj!([scratch: (i), pad: {(i), (i + 1)}]))
            .collect();
    }
    let swept = store::collect();
    println!("\nafter dropping 1000 scratch objects: {swept}");
    assert!(store::contains_node(root.id()), "pinned roots survive");
    println!("{}", store::stats());

    // -----------------------------------------------------------------
    // 8. Persistence: checkpoint → kill → restore → continue. A
    //    checkpoint is a `co-wire` snapshot — every distinct interned
    //    node encoded once, so the file tracks the DAG, not the tree —
    //    carrying the database, the program, and the engine config.
    //    Restoring (here; in practice in a *fresh* process after a crash
    //    or deploy) re-interns bottom-up and reaches the same fixpoint
    //    with a bit-identical trace.
    // -----------------------------------------------------------------
    let path = std::env::temp_dir().join(format!("quickstart_{}.cow", std::process::id()));
    let engine = Engine::new(
        parse_program(
            "[doa: {abraham}].
             [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
        )
        .unwrap(),
    );
    let genealogy = parse_object(
        "[family: {[name: abraham, children: {[name: isaac]}],
                   [name: isaac,   children: {[name: esau], [name: jacob]}]}]",
    )
    .unwrap();
    let stats = engine.checkpoint(&genealogy, &path).expect("checkpoint");
    println!("\ncheckpointed the database: {stats}");

    // …process exits, machine reboots, traffic moves…

    let restored = Engine::restore(&path).expect("restore");
    assert_eq!(restored.database, genealogy); // bit-identical structure
    let resumed = restored
        .engine
        .run(&restored.database)
        .expect("continues to the fixpoint");
    println!(
        "restored and resumed: descendants = {}",
        resumed.database.dot("doa")
    );

    // Checkpoint → mutate → **delta** → restore the chain. The second
    // checkpoint auto-selects a version-2 delta because the engine's
    // chain is live: it carries only the nodes the base lacks (the
    // fixpoint grew the database a little; everything else is referenced
    // by base-local id). `restore_chain` replays base then delta,
    // verifying each link's checksum.
    let delta_path =
        std::env::temp_dir().join(format!("quickstart_{}_delta.cow", std::process::id()));
    let stats = restored
        .engine
        .checkpoint(&resumed.database, &delta_path)
        .expect("delta checkpoint");
    println!("checkpointed the fixpoint as a delta: {stats}");
    println!(
        "on disk: {}",
        complex_objects::wire::describe(&delta_path).expect("inspectable")
    );
    let chain = Engine::restore_chain(&[path.clone(), delta_path.clone()]).expect("chain restore");
    assert_eq!(chain.database, resumed.database); // same node, same fixpoint
    assert_eq!(chain.database.node_id(), resumed.database.node_id());
    println!(
        "chain restored: descendants = {}",
        chain.database.dot("doa")
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&delta_path).ok();

    // -----------------------------------------------------------------
    // 9. Observability: everything above also recorded itself into the
    //    global co-obs registry — engine rounds, match/merge timings, GC
    //    pauses, wire encode/decode. One snapshot reads it all; the same
    //    registry is what a server returns for a `metrics` request and
    //    what the REPL's `metrics` command prints. (Set CO_TRACE=stderr
    //    to also stream per-round spans as JSON lines, and CO_METRICS=0
    //    to make every instrument a no-op.)
    // -----------------------------------------------------------------
    let metrics = complex_objects::obs::global().snapshot();
    let rounds = metrics.counter("engine.rounds").expect("engine ran above");
    assert!(rounds >= 2, "the fixpoint runs took at least two rounds");
    let match_ns = metrics
        .histogram("engine.match_ns")
        .expect("per-round match timings");
    assert_eq!(
        match_ns.count, rounds,
        "one match-phase observation per round"
    );
    assert!(match_ns.quantile(0.99) <= match_ns.max);
    println!("\nthe process's own story, from the metrics registry:\n{metrics}");
}
