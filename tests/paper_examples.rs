//! Executable reproduction of every numbered example in the paper. Each
//! test states the example it reproduces; the assertions are the paper's
//! own identities.

use complex_objects::object::lattice::{intersect, union};
use complex_objects::object::order::le;
use complex_objects::object::{obj, Object};
use complex_objects::prelude::*;

// ---------------------------------------------------------------------------
// E1 — Example 2.1: all ten object forms parse and normalize.
// ---------------------------------------------------------------------------

#[test]
fn e1_example_2_1_object_forms() {
    let forms = [
        "john",
        "25",
        "{john, mary, susan}",
        "[name: peter, age: 25]",
        "[name: [first: john, last: doe], age: 25]",
        "[name: [first: john, last: doe], children: {john, mary, susan}]",
        "{[name: peter, age: 25], [name: john, age: 7], [name: mary, age: 13]}",
        "{[name: peter], [name: john, age: 7], [name: mary, address: austin]}",
        "{[name: peter, children: {max, susan}],
          [name: john, children: {mary, john, frank}],
          [name: mary, children: {}]}",
        "[r1: {[name: peter, age: 25], [name: john, age: 7]},
          r2: {[name: john, address: austin], [name: mary, address: paris]}]",
    ];
    for src in forms {
        let o = parse_object(src).unwrap_or_else(|e| panic!("{src}: {e}"));
        // Round-trip through the printer.
        assert_eq!(parse_object(&o.to_string()).unwrap(), o);
    }
}

// ---------------------------------------------------------------------------
// E2 — Example 2.2: the equality identities.
// ---------------------------------------------------------------------------

#[test]
fn e2_example_2_2_equalities() {
    let eq_pairs = [
        ("[a: 1, b: 2]", "[b: 2, a: 1]"),
        ("[a: 1, b: 2]", "[a: 1, b: 2, c: bot]"),
        ("{1, 2, 3}", "{2, 3, 1}"),
        ("{1, 1}", "{1}"),
        ("[a: {top}, b: 2]", "top"),
        ("{1, bot}", "{1}"),
    ];
    for (l, r) in eq_pairs {
        assert_eq!(
            parse_object(l).unwrap(),
            parse_object(r).unwrap(),
            "{l} = {r}"
        );
    }
    // "[a: x], {x}, and x are not equal."
    let x = parse_object("7").unwrap();
    assert_ne!(parse_object("[a: 7]").unwrap(), x);
    assert_ne!(parse_object("{7}").unwrap(), x);
}

// ---------------------------------------------------------------------------
// E3 — Example 3.1: sub-object facts and non-facts.
// ---------------------------------------------------------------------------

#[test]
fn e3_example_3_1_subobject() {
    let facts = [
        ("[a: 1, b: 2]", "[a: 1, b: 2, c: 3]"),
        ("{1, 2, 3}", "{1, 2, 3, 4}"),
        (
            "{[a: 1], [a: 2, b: 3]}",
            "{[a: 1, b: 2], [a: 2, b: 3], [a: 5, b: 5, c: 5]}",
        ),
        ("[a: {1}, b: 2]", "[a: {1, 2}, b: 2]"),
    ];
    for (small, big) in facts {
        assert!(
            le(&parse_object(small).unwrap(), &parse_object(big).unwrap()),
            "{small} ≤ {big}"
        );
    }
    // "Note however that 1 is not a sub-object of [a:1, b:2], nor of {1,2,3}."
    let one = parse_object("1").unwrap();
    assert!(!le(&one, &parse_object("[a: 1, b: 2]").unwrap()));
    assert!(!le(&one, &parse_object("{1, 2, 3}").unwrap()));
}

// ---------------------------------------------------------------------------
// E4 — Example 3.2: the anti-symmetry counterexample is repaired by
// reduction (Definition 3.2' / Theorem 3.2).
// ---------------------------------------------------------------------------

#[test]
fn e4_example_3_2_reduction_restores_antisymmetry() {
    // O1 = {[a1: 3, a2: 5], [a1: 3]} — "redundant information".
    let o1 = parse_object("{[a1: 3, a2: 5], [a1: 3]}").unwrap();
    let o2 = parse_object("{[a1: 3, a2: 5]}").unwrap();
    // In the unreduced space O1 ≠ O2 yet O1 ≤ O2 ≤ O1. Our constructors
    // reduce, so O1 *is* O2, and anti-symmetry holds universally.
    assert_eq!(o1, o2);
    assert!(le(&o1, &o2) && le(&o2, &o1));
    assert_eq!(o1.as_set().unwrap().len(), 1);
}

// ---------------------------------------------------------------------------
// E5 — Examples 3.3: union identities.
// ---------------------------------------------------------------------------

#[test]
fn e5_examples_3_3_union() {
    let cases = [
        ("[a: 1, b: 2]", "[b: 2, c: 3]", "[a: 1, b: 2, c: 3]"),
        ("[a: 1]", "[b: 2, c: 3]", "[a: 1, b: 2, c: 3]"),
        ("[a: 1, b: 2]", "[b: 3, c: 4]", "top"),
        ("{1, 2}", "{2, 3}", "{1, 2, 3}"),
        ("1", "2", "top"),
        ("[a: 1, b: 2]", "{1, 2, 3}", "top"),
        (
            "[a: 1, b: {2, 3}]",
            "[b: {3, 4}, c: 5]",
            "[a: 1, b: {2, 3, 4}, c: 5]",
        ),
    ];
    for (l, r, expected) in cases {
        assert_eq!(
            union(&parse_object(l).unwrap(), &parse_object(r).unwrap()),
            parse_object(expected).unwrap(),
            "{l} ∪ {r} = {expected}"
        );
    }
}

// ---------------------------------------------------------------------------
// E6 — Examples 3.4: intersection identities.
// ---------------------------------------------------------------------------

#[test]
fn e6_examples_3_4_intersection() {
    let cases = [
        ("[a: 1, b: 2]", "[b: 2, c: 3]", "[b: 2]"),
        ("[a: 1]", "[b: 2, c: 3]", "[]"),
        ("[a: 1, b: 2]", "[b: 3, c: 4]", "[]"),
        ("{1, 2}", "{2, 3}", "{2}"),
        ("1", "2", "bot"),
        ("[a: 1, b: 2]", "{1, 2, 3}", "bot"),
        ("[a: 1, b: {2, 3}]", "[b: {3, 4}, c: 5]", "[b: {3}]"),
    ];
    for (l, r, expected) in cases {
        assert_eq!(
            intersect(&parse_object(l).unwrap(), &parse_object(r).unwrap()),
            parse_object(expected).unwrap(),
            "{l} ∩ {r} = {expected}"
        );
    }
}

// ---------------------------------------------------------------------------
// E7 — Example 4.1 and the §4 prose: interpretations of the seven wffs.
// ---------------------------------------------------------------------------

fn walkthrough_db() -> Object {
    parse_object(
        "[r1: {[a: 1, b: 10], [a: 2, b: 20], [a: 3, b: 30]},
          r2: {[c: 10, d: 100], [c: 20, d: 200], [c: 99, d: 999]}]",
    )
    .unwrap()
}

#[test]
fn e7_example_4_1_interpretations() {
    let db = parse_object(
        "[r1: {[a: 1, b: b], [a: 2, b: c], [a: 3, b: b]},
          r2: {[c: b, d: 9]}]",
    )
    .unwrap();

    // (1) [R1: {[A: X, B: b]}] — selection on B = b.
    let f1 = parse_formula("[r1: {[a: X, b: b]}]").unwrap();
    assert_eq!(
        interpret(&f1, &db, MatchPolicy::Strict),
        parse_object("[r1: {[a: 1, b: b], [a: 3, b: b]}]").unwrap()
    );

    let db = walkthrough_db();

    // (2) semijoin-style projections.
    let f2 = parse_formula("[r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}]").unwrap();
    assert_eq!(
        interpret(&f2, &db, MatchPolicy::Strict),
        parse_object(
            "[r1: {[a: 1, b: 10], [a: 2, b: 20]},
              r2: {[c: 10, d: 100], [c: 20, d: 200]}]"
        )
        .unwrap()
    );

    // (3) same with a selection on A = 1.
    let f3 = parse_formula("[r1: {[a: 1, b: Y]}, r2: {[c: Y, d: Z]}]").unwrap();
    assert_eq!(
        interpret(&f3, &db, MatchPolicy::Strict),
        parse_object("[r1: {[a: 1, b: 10]}, r2: {[c: 10, d: 100]}]").unwrap()
    );

    // (4) [R1: {X}, R2: {X}] — intersection of R1 and R2.
    let db4 = parse_object("[r1: {1, 2, 3}, r2: {2, 3, 4}]").unwrap();
    let f4 = parse_formula("[r1: {X}, r2: {X}]").unwrap();
    assert_eq!(
        interpret(&f4, &db4, MatchPolicy::Strict),
        parse_object("[r1: {2, 3}, r2: {2, 3}]").unwrap()
    );

    // (5) pairwise-equal projections (A=C, B=D).
    let db5 = parse_object("[r1: {[a: 1, b: 2], [a: 5, b: 6]}, r2: {[c: 1, d: 2], [c: 7, d: 8]}]")
        .unwrap();
    let f5 = parse_formula("[r1: {[a: X, b: Y]}, r2: {[c: X, d: Y]}]").unwrap();
    assert_eq!(
        interpret(&f5, &db5, MatchPolicy::Strict),
        parse_object("[r1: {[a: 1, b: 2]}, r2: {[c: 1, d: 2]}]").unwrap()
    );

    // (6) [R1: X, R2: Y] — "relations R1 and R2".
    let f6 = parse_formula("[r1: X, r2: Y]").unwrap();
    assert_eq!(interpret(&f6, &db, MatchPolicy::Strict), db);

    // (7) [R1: {X}, R2: {Y}] — also both relations.
    let f7 = parse_formula("[r1: {X}, r2: {Y}]").unwrap();
    assert_eq!(interpret(&f7, &db, MatchPolicy::Strict), db);

    // Interpretations are always sub-objects of the database (Def 4.2).
    for f in [&f2, &f6, &f7] {
        assert!(le(&interpret(f, &db, MatchPolicy::Strict), &db));
    }
}

// ---------------------------------------------------------------------------
// E8 — Example 4.2 and the §4 prose: effects of the seven rules, plus the
// literal-vs-strict discrepancy.
// ---------------------------------------------------------------------------

#[test]
fn e8_example_4_2_rules() {
    let db_sel = parse_object("[r1: {[a: 1, b: b], [a: 2, b: c], [a: 3, b: b]}]").unwrap();

    // (1) selection + projection + renaming into attribute C.
    let r1 = parse_rule("[r: {[c: X]}] :- [r1: {[a: X, b: b]}].").unwrap();
    assert_eq!(
        apply_rule(&r1, &db_sel, MatchPolicy::Strict),
        parse_object("[r: {[c: 1], [c: 3]}]").unwrap()
    );

    // (2) projection to a set of atoms.
    let r2 = parse_rule("[r: {X}] :- [r1: {[a: X, b: b]}].").unwrap();
    assert_eq!(
        apply_rule(&r2, &db_sel, MatchPolicy::Strict),
        parse_object("[r: {1, 3}]").unwrap()
    );

    let db = walkthrough_db();

    // (3) join on B = C projected to A, D.
    let r3 =
        parse_rule("[r: {[a: X, d: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}].").unwrap();
    assert_eq!(
        apply_rule(&r3, &db, MatchPolicy::Strict),
        parse_object("[r: {[a: 1, d: 100], [a: 2, d: 200]}]").unwrap()
    );

    // (4) the same join with renamed output attributes.
    let r4 =
        parse_rule("[r: {[a1: X, a2: Z]}] :- [r1: {[a: X, b: Y]}, r2: {[c: Y, d: Z]}].").unwrap();
    assert_eq!(
        apply_rule(&r4, &db, MatchPolicy::Strict),
        parse_object("[r: {[a1: 1, a2: 100], [a1: 2, a2: 200]}]").unwrap()
    );

    // (5) intersection assigned to R.
    let db5 = parse_object("[r1: {1, 2, 3}, r2: {2, 3, 4}]").unwrap();
    let r5 = parse_rule("[r: {X}] :- [r1: {X}, r2: {X}].").unwrap();
    assert_eq!(
        apply_rule(&r5, &db5, MatchPolicy::Strict),
        parse_object("[r: {2, 3}]").unwrap()
    );

    // (6) the same, generating a bare set.
    let r6 = parse_rule("{X} :- [r1: {X}, r2: {X}].").unwrap();
    assert_eq!(
        apply_rule(&r6, &db5, MatchPolicy::Strict),
        parse_object("{2, 3}").unwrap()
    );

    // (7) intersection after renaming, to a set of tuples.
    let db7 = parse_object("[r1: {[a: 1, b: 2], [a: 5, b: 6]}, r2: {[c: 1, d: 2], [c: 7, d: 8]}]")
        .unwrap();
    let r7 = parse_rule("{[a1: X, a2: Y]} :- [r1: {[a: X, b: Y]}, r2: {[c: X, d: Y]}].").unwrap();
    assert_eq!(
        apply_rule(&r7, &db7, MatchPolicy::Strict),
        parse_object("{[a1: 1, a2: 2]}").unwrap()
    );

    // The documented discrepancy (DESIGN.md §3.3): Definition 4.4 verbatim
    // (Literal) degenerates the join to a cross product.
    let literal = apply_rule(&r3, &db, MatchPolicy::Literal);
    assert_eq!(literal.dot("r").as_set().unwrap().len(), 9);
}

// ---------------------------------------------------------------------------
// E9 — Example 4.5: the descendants-of-abraham closure converges.
// ---------------------------------------------------------------------------

#[test]
fn e9_example_4_5_descendants_closure() {
    let db = parse_object(
        "[family: {[name: abraham, children: {[name: isaac], [name: ishmael]}],
                   [name: isaac,   children: {[name: esau], [name: jacob]}],
                   [name: jacob,   children: {[name: joseph]}],
                   [name: lot,     children: {[name: moab]}]}]",
    )
    .unwrap();
    let program = parse_program(
        "[doa: {abraham}].
         [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
    )
    .unwrap();
    let out = Engine::new(program.clone()).run(&db).unwrap();
    assert_eq!(
        out.database.dot("doa"),
        &parse_object("{abraham, isaac, ishmael, esau, jacob, joseph}").unwrap()
    );
    // The closure is closed under R and contains the input (Def 4.5/4.6).
    assert!(co_calculus::is_closed_under(
        &program,
        &out.database,
        MatchPolicy::Strict
    ));
    assert!(le(&db, &out.database));
    // lot's line is not reachable from abraham.
    assert!(!out
        .database
        .dot("doa")
        .as_set()
        .unwrap()
        .contains(&obj!(moab)));
}

// ---------------------------------------------------------------------------
// E10 — Example 4.6: the infinite-list program has no closure; guards
// report divergence.
// ---------------------------------------------------------------------------

#[test]
fn e10_example_4_6_divergence_guarded() {
    let program = parse_program(
        "[list: {1}].
         [list: {[head: 1, tail: X]}] :- [list: {X}].",
    )
    .unwrap();
    let err = Engine::new(program)
        .guard(Guard {
            max_iterations: 64,
            max_depth: 40,
            ..Guard::default()
        })
        .run(&parse_object("[list: {}]").unwrap())
        .unwrap_err();
    let text = err.to_string();
    assert!(text.contains("diverged"), "got: {text}");
    // The partial result really does contain ever-deeper lists of ones.
    let co_engine::EngineError::Diverged { partial, stats, .. } = err;
    assert!(stats.iterations > 10);
    let lists = partial.dot("list").as_set().unwrap();
    assert!(lists.iter().any(|l| {
        l.at_path(&["tail", "tail", "head"])
            .map(|h| h == &obj!(1))
            .unwrap_or(false)
    }));
}
