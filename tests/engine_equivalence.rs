//! Differential testing of the engine: every strategy/index combination
//! must compute exactly the reference closure (`co_calculus::closure`) on
//! randomized databases and a library of rule shapes (experiment E12).

mod common;

use co_calculus::{ClosureLimits, ClosureMode};
use common::{program_library, random_graph_db};
use complex_objects::prelude::*;
// Explicit import: both preludes glob-export a `Strategy` (the engine's
// enum and proptest's trait); the non-glob import disambiguates.
use co_engine::{GcCadence, Strategy};
use proptest::prelude::*;

fn reference(
    program: &Program,
    db: &complex_objects::object::Object,
) -> complex_objects::object::Object {
    co_calculus::closure(
        program,
        db,
        ClosureMode::Inflationary,
        MatchPolicy::Strict,
        ClosureLimits::default(),
    )
    .expect("library programs converge on finite graphs")
    .object
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// naive == semi-naive == reference, with and without indexes, run
    /// sequentially and on 4 threads, with and without a store collection
    /// after every round.
    #[test]
    fn all_configurations_agree(seed in any::<u64>(), nodes in 2i64..8, edges in 1usize..14) {
        let db = random_graph_db(seed, nodes, edges);
        for (name, program) in program_library() {
            let expected = reference(&program, &db);
            for strategy in [Strategy::Naive, Strategy::SemiNaive] {
                for indexes in [false, true] {
                    for parallelism in [Parallelism::Sequential, Parallelism::Threads(4)] {
                        for gc in [GcCadence::Off, GcCadence::EveryRounds(1)] {
                            let out = Engine::new(program.clone())
                                .strategy(strategy)
                                .indexes(indexes)
                                .parallelism(parallelism)
                                .gc_cadence(gc)
                                .run(&db)
                                .unwrap();
                            prop_assert_eq!(
                                &out.database,
                                &expected,
                                "program={} strategy={:?} indexes={} parallelism={:?} gc={:?}",
                                name, strategy, indexes, parallelism, gc
                            );
                        }
                    }
                }
            }
        }
    }

    /// Literal policy: engine strategies agree with the reference too.
    #[test]
    fn literal_policy_configurations_agree(seed in any::<u64>(), nodes in 2i64..6, edges in 1usize..8) {
        let db = random_graph_db(seed, nodes, edges);
        let program = common::reachability_program();
        let expected = co_calculus::closure(
            &program, &db, ClosureMode::Inflationary, MatchPolicy::Literal,
            ClosureLimits::default(),
        ).unwrap().object;
        for strategy in [Strategy::Naive, Strategy::SemiNaive] {
            let out = Engine::new(program.clone())
                .strategy(strategy)
                .policy(MatchPolicy::Literal)
                .indexes(false)
                .run(&db)
                .unwrap();
            prop_assert_eq!(&out.database, &expected, "strategy={:?}", strategy);
        }
    }

    /// Lemma 4.1 (monotonicity), engine-level: running on a larger database
    /// yields a larger closure.
    #[test]
    fn closure_is_monotone_in_the_database(seed in any::<u64>(), nodes in 2i64..6, edges in 1usize..8) {
        use complex_objects::object::{lattice, order};
        let small = random_graph_db(seed, nodes, edges);
        let big = lattice::union(&small, &random_graph_db(seed.wrapping_add(1), nodes, edges));
        prop_assume!(order::le(&small, &big));
        let program = common::transitive_closure_program();
        let c_small = Engine::new(program.clone()).run(&small).unwrap().database;
        let c_big = Engine::new(program).run(&big).unwrap().database;
        prop_assert!(order::le(&c_small, &c_big));
    }
}

#[test]
fn seminaive_saves_work_on_long_chains() {
    // A 60-node chain: semi-naive must fire far fewer matches in total.
    let db = common::chain_family_db(60);
    let program = common::descendants_program("p0");
    let naive = Engine::new(program.clone())
        .strategy(Strategy::Naive)
        .indexes(false)
        .run(&db)
        .unwrap();
    let semi = Engine::new(program)
        .strategy(Strategy::SemiNaive)
        .indexes(false)
        .run(&db)
        .unwrap();
    assert_eq!(naive.database, semi.database);
    assert_eq!(
        naive.database.dot("doa").as_set().unwrap().len(),
        61 // p0 ..= p60
    );
    assert!(
        semi.stats.matching.matches * 5 < naive.stats.matching.matches,
        "semi-naive {} vs naive {} matches",
        semi.stats.matching.matches,
        naive.stats.matching.matches
    );
}

#[test]
fn reference_and_engine_agree_on_divergence_detection() {
    let program = parse_program(
        "[list: {1}].
         [list: {[head: 1, tail: X]}] :- [list: {X}].",
    )
    .unwrap();
    let db = parse_object("[list: {}]").unwrap();
    let reference = co_calculus::closure(
        &program,
        &db,
        ClosureMode::Inflationary,
        MatchPolicy::Strict,
        ClosureLimits {
            max_iterations: 30,
            ..ClosureLimits::default()
        },
    );
    assert!(reference.is_err());
    let engine = Engine::new(program)
        .guard(Guard {
            max_iterations: 30,
            ..Guard::default()
        })
        .run(&db);
    assert!(engine.is_err());
}
