//! Failure injection and the safety/maintenance features around the
//! engine: every guard dimension, static divergence analysis, and
//! re-closing a closed database after a monotone addition.

mod common;

use co_calculus::{analyse, ClosureMode};
use co_engine::EngineError;
use co_object::lattice::union;
use complex_objects::prelude::*;
use std::time::Duration;

fn diverging_program() -> Program {
    parse_program(
        "[list: {1}].
         [list: {[head: 1, tail: X]}] :- [list: {X}].",
    )
    .unwrap()
}

#[test]
fn every_guard_dimension_fires() {
    let db = parse_object("[list: {}]").unwrap();

    // Iteration budget.
    let e = Engine::new(diverging_program())
        .guard(Guard {
            max_iterations: 5,
            ..Guard::default()
        })
        .run(&db)
        .unwrap_err();
    assert!(e.to_string().contains("iterations"), "{e}");

    // Depth budget.
    let e = Engine::new(diverging_program())
        .guard(Guard {
            max_depth: 10,
            ..Guard::default()
        })
        .run(&db)
        .unwrap_err();
    assert!(e.to_string().contains("depth"), "{e}");

    // Size budget (width growth, not just depth): a program that squares
    // a relation every iteration.
    let wide = parse_program(
        "[pairs: {[l: X, r: Y]}] :- [seed: {X, Y}].
         [seed: {[w: P]}] :- [pairs: {P}].",
    )
    .unwrap();
    let e = Engine::new(wide)
        .guard(Guard {
            max_size: 200,
            max_iterations: 50,
            ..Guard::default()
        })
        .run(&parse_object("[seed: {1, 2, 3}]").unwrap())
        .unwrap_err();
    assert!(e.to_string().contains("size"), "{e}");

    // Wall-clock budget.
    let e = Engine::new(diverging_program())
        .guard(Guard {
            time_limit: Some(Duration::ZERO),
            max_iterations: u64::MAX,
            ..Guard::default()
        })
        .run(&db)
        .unwrap_err();
    assert!(e.to_string().contains("time"), "{e}");
}

#[test]
fn divergence_error_carries_partial_state_and_stats() {
    let EngineError::Diverged {
        partial,
        stats,
        reason,
    } = Engine::new(diverging_program())
        .guard(Guard {
            max_iterations: 8,
            ..Guard::default()
        })
        .run(&parse_object("[list: {}]").unwrap())
        .unwrap_err();
    assert!(!reason.is_empty());
    assert!(stats.iterations >= 8);
    // The partial database is a usable snapshot: it parses back, and the
    // list relation already contains nested lists.
    let reparsed = parse_object(&partial.to_string()).unwrap();
    assert_eq!(&reparsed, partial.as_ref());
}

#[test]
fn static_analysis_predicts_the_guard_outcome() {
    // The diverging program is flagged before running anything.
    let risky = analyse(&diverging_program());
    assert!(!risky.is_depth_bounded());

    // The genealogy program is recursive but depth-bounded, and indeed
    // converges.
    let safe_program = common::descendants_program("p0");
    let safe = analyse(&safe_program);
    assert!(!safe.is_nonrecursive());
    assert!(safe.is_depth_bounded());
    assert!(Engine::new(safe_program)
        .run(&common::chain_family_db(5))
        .is_ok());
}

#[test]
fn paper_literal_mode_with_guards() {
    // PaperLiteral mode can oscillate towards ⊥; guards still apply and
    // convergence at ⊥ is reported as success with the honest answer.
    let p = parse_program("[out: {X}] :- [src: {X}].").unwrap();
    let out = Engine::new(p)
        .mode(ClosureMode::PaperLiteral)
        .run(&parse_object("[src: {1}]").unwrap())
        .unwrap();
    // O2 = [out: {1}], O3 = ⊥, O4 = ⊥: fixpoint at ⊥.
    assert!(out.database.is_bottom());
}

#[test]
fn materialized_view_survives_guard_failures() {
    // A guarded diverging program fails instead of closing.
    let failed = Engine::new(diverging_program())
        .guard(Guard {
            max_iterations: 10,
            ..Guard::default()
        })
        .run(&parse_object("[list: {}]").unwrap());
    assert!(failed.is_err());

    // A safe program's closed database (the materialized view) re-closes
    // after a monotone addition by running again on `closed ∪ addition`.
    let safe = Engine::new(parse_program("[reach: {X}] :- [start: {X}].").unwrap());
    let closed = safe
        .run(&parse_object("[start: {0}]").unwrap())
        .unwrap()
        .database;
    let grown = union(&closed, &parse_object("[start: {1}]").unwrap());
    let reclosed = safe.run(&grown).unwrap().database;
    assert_eq!(reclosed.dot("reach"), &parse_object("{0, 1}").unwrap());
}

#[test]
fn interactive_guard_preset_is_usable() {
    let out = Engine::new(common::descendants_program("p0"))
        .guard(Guard::interactive())
        .run(&common::chain_family_db(20))
        .unwrap();
    assert_eq!(out.database.dot("doa").as_set().unwrap().len(), 21);
}

#[test]
fn type_syntax_integrates_with_engine_outputs() {
    use co_schema::{check, parse_type};
    let out = Engine::new(common::descendants_program("p0"))
        .run(&common::chain_family_db(4))
        .unwrap();
    let t = parse_type(
        "[doa: {string}!,
          family: {[children: {[name: string]}, name: string!]}, ...]",
    )
    .unwrap();
    check(&out.database, &t).expect("closure conforms to the declared type");
}
