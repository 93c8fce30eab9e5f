//! The cost of the paper's descendants closure (Example 4.5) does not
//! depend on process history.
//!
//! Attribute ids are assigned in interning order, and the matchers used to
//! solve a tuple formula's goals in attribute-id order: whichever of `doa`
//! and `family` the process interned first decided whether the closure
//! tried O(n) or O(n²) witness candidates. The goal order now follows
//! binding (see `co_calculus::matcher`, "Goal order"), so both orders stay
//! linear. The assertions are on deterministic counts, never wall-clock.
//!
//! Each case interns its own test-unique attribute names in a fixed order
//! before anything else can, so the order holds whatever other tests in
//! this binary do.

use complex_objects::engine::{Engine, EvalStats, Parallelism, Strategy};
use complex_objects::object::{Attr, Object};
use complex_objects::parser::parse_program;

const N: usize = 1_000;
const FANOUT: usize = 3;

/// A family tree of `N` people with fanout `FANOUT` under attribute `fam`.
fn tree(fam: &str) -> Object {
    let family = Object::set((0..N).map(|parent| {
        let children = Object::set(
            (1..=FANOUT)
                .map(|k| parent * FANOUT + k)
                .filter(|c| *c < N)
                .map(|c| Object::tuple([(Attr::new("name"), Object::str(format!("p{c}")))])),
        );
        Object::tuple([
            (Attr::new("name"), Object::str(format!("p{parent}"))),
            (Attr::new("children"), children),
        ])
    }));
    Object::tuple([(Attr::new(fam), family)])
}

/// Runs Example 4.5 over `tree(fam)` into `doa` under `strategy`,
/// returning the run's statistics after checking that every person is a
/// descendant of the root.
fn closure(doa: &str, fam: &str, strategy: Strategy) -> EvalStats {
    let program = parse_program(&format!(
        "[{doa}: {{p0}}].
         [{doa}: {{X}}] :- [{fam}: {{[name: Y, children: {{[name: X]}}]}}, {doa}: {{Y}}]."
    ))
    .expect("program parses");
    let out = Engine::new(program)
        .strategy(strategy)
        .parallelism(Parallelism::Sequential)
        .run(&tree(fam))
        .expect("the closure converges");
    let descendants = out.database.dot(doa).as_set().expect("a set").len();
    assert_eq!(descendants, N, "{doa}/{fam} {strategy:?}");
    out.stats
}

#[test]
fn example_4_5_costs_the_same_in_both_interning_orders() {
    // `doa` before `family`: the order the old goal stack made quadratic.
    let (doa_a, fam_a) = (Attr::new("doa_a"), Attr::new("fam_a"));
    assert!(doa_a.id() < fam_a.id());
    // `family` before `doa`.
    let (fam_b, doa_b) = (Attr::new("fam_b"), Attr::new("doa_b"));
    assert!(fam_b.id() < doa_b.id());

    for strategy in [Strategy::SemiNaive, Strategy::Naive] {
        let bound = match strategy {
            Strategy::SemiNaive => 4 * N as u64,
            Strategy::Naive => 10 * N as u64,
        };
        let a = closure("doa_a", "fam_a", strategy);
        let b = closure("doa_b", "fam_b", strategy);
        for (order, stats) in [("doa first", &a), ("family first", &b)] {
            assert!(
                stats.matching.candidates_tried <= bound,
                "{strategy:?}, {order}: {} candidates for n = {N} (bound {bound})",
                stats.matching.candidates_tried
            );
        }
        assert_eq!(a.matching.matches, b.matching.matches, "{strategy:?}");
        assert_eq!(a.iterations, b.iterations, "{strategy:?}");
    }
}
