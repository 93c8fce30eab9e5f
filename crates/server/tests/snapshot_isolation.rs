//! The snapshot-isolation differential: readers pinned at version R see
//! results **NodeId-identical** to a single-threaded run quiesced at R,
//! no matter how many writers advance the head or how often the store
//! collects in between.
//!
//! Shape: compute the single-threaded reference results against the seed
//! database first; start a server; have N reader sessions pin version 1;
//! then let a writer commit a stream of advances (with the engine
//! sweeping the store every round) while each reader re-runs its query
//! and fixpoint eval over and over, asserting every result is the same
//! interned node as the reference — same `NodeId`, not merely equal.
//! Run at 1 reader thread against the default engine, and at 4 reader
//! threads against a writer engine evaluating on 4 threads.

use co_engine::{Engine, GcCadence, Parallelism, SharedEngine};
use co_object::{store, NodeId, Object};
use co_parser::{parse_formula, parse_object, parse_program};
use co_server::{Client, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const SEED: &str = "[edge: {[s: n0, t: n1], [s: n1, t: n2], [s: n2, t: n3]}]";
const QUERY: &str = "[edge: {[s: X, t: Y]}]";
const CLOSURE: &str = "[path: {[s: X, t: Y]}] :- [edge: {[s: X, t: Y]}].
                       [path: {[s: X, t: Z]}] :- [edge: {[s: X, t: Y]}, path: {[s: Y, t: Z]}].";

/// How many advances the writer commits while readers re-read.
const WRITER_COMMITS: usize = 12;
/// How many times each reader re-checks its frozen view.
const READS_PER_READER: usize = 8;

fn seed() -> Object {
    parse_object(SEED).unwrap()
}

fn template() -> Engine {
    // GC every fixpoint round: the most adversarial cadence for pinned
    // readers — every advance sweeps the store repeatedly mid-run.
    Engine::new(Default::default()).gc_cadence(GcCadence::EveryRounds(1))
}

/// The single-threaded reference: what a run quiesced at version 1 sees.
/// Returned objects are held by the caller, so their ids stay valid.
fn references(shared: &SharedEngine) -> (Object, Object) {
    let db = seed();
    let q = parse_formula(QUERY).unwrap();
    let ref_query = co_calculus::interpret(&q, &db, shared.policy());
    let ref_eval = template()
        .with_program(parse_program(CLOSURE).unwrap())
        .run(&db)
        .unwrap()
        .database;
    (ref_query, ref_eval)
}

fn ids(o: &Object) -> Option<NodeId> {
    o.node_id()
}

fn run_differential(reader_threads: usize, writer: Parallelism) {
    let shared = SharedEngine::new(template().parallelism(writer), seed());
    let (ref_query, ref_eval) = references(&shared);
    let handle = Server::bind(shared, ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // Every reader pins version 1 before the writer commits anything.
    let pinned = Arc::new(Barrier::new(reader_threads + 1));
    let writer_done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..reader_threads)
        .map(|_| {
            let pinned = Arc::clone(&pinned);
            let writer_done = Arc::clone(&writer_done);
            let (ref_query, ref_eval) = (ref_query.clone(), ref_eval.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let (version, _root) = client.snapshot().unwrap();
                assert_eq!(version, 1, "readers must pin the seed version");
                pinned.wait();
                let mut reads = 0;
                // Keep re-reading until the planned reads are done AND the
                // writer has finished (so some reads provably race commits
                // and GC sweeps).
                while reads < READS_PER_READER || !writer_done.load(Ordering::Acquire) {
                    let (v, got) = client.query(QUERY).unwrap();
                    assert_eq!(v, 1);
                    assert_eq!(got, ref_query);
                    assert_eq!(ids(&got), ids(&ref_query), "query ids must match");
                    let (v, got) = client.eval(CLOSURE).unwrap();
                    assert_eq!(v, 1);
                    assert_eq!(got, ref_eval);
                    assert_eq!(ids(&got), ids(&ref_eval), "eval ids must match");
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    pinned.wait();
    // The writer: commit a stream of fresh facts and run the closure over
    // them, sweeping the store explicitly after every commit on top of
    // the engine's own every-round cadence.
    let mut writer = Client::connect(addr).unwrap();
    for i in 0..WRITER_COMMITS {
        let fact = format!("[edge: {{[s: w{i}, t: n0]}}].");
        let out = writer.advance(&fact).unwrap();
        assert_eq!(out.version, 2 + i as u64 * 2);
        let out = writer.advance(CLOSURE).unwrap();
        assert_eq!(out.version, 3 + i as u64 * 2);
        assert!(out.iterations >= 1);
        store::collect();
    }
    writer_done.store(true, Ordering::Release);

    for r in readers {
        assert!(r.join().unwrap() >= READS_PER_READER);
    }

    // Unpinned sessions see the advanced head, and it differs from the
    // frozen view the readers held.
    let (head_version, head_root) = writer.head().unwrap();
    assert_eq!(head_version, 1 + 2 * WRITER_COMMITS as u64);
    assert_ne!(head_root, ids(&ref_query).map(NodeId::get));
    let (v, now) = writer.query(QUERY).unwrap();
    assert_eq!(v, head_version);
    assert_ne!(now, ref_query, "the head really advanced under the pins");

    handle.shutdown();
}

#[test]
fn one_pinned_reader_is_isolated_from_a_writer() {
    run_differential(1, Parallelism::default());
}

#[test]
fn four_pinned_readers_are_isolated_from_a_writer() {
    run_differential(4, Parallelism::Threads(4));
}

/// Release-then-repin observes the new head — isolation is per-pin, not
/// per-connection.
#[test]
fn repinning_moves_a_session_forward() {
    let shared = SharedEngine::new(template(), seed());
    let handle = Server::bind(shared, ServerConfig::default()).unwrap();
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();

    let (v1, _) = a.snapshot().unwrap();
    let (_, frozen) = a.query(QUERY).unwrap();
    b.advance("[edge: {[s: x9, t: n0]}].").unwrap();

    // Still frozen…
    let (v, again) = a.query(QUERY).unwrap();
    assert_eq!((v, &again), (v1, &frozen));
    assert_eq!(again.node_id(), frozen.node_id());

    // …until the session re-pins.
    assert!(a.release().unwrap());
    let (v2, _) = a.snapshot().unwrap();
    assert_eq!(v2, v1 + 1);
    let (_, fresh) = a.query(QUERY).unwrap();
    assert_ne!(fresh, frozen);
    handle.shutdown();
}
