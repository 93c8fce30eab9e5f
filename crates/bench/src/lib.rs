//! # co-bench — shared workloads
//!
//! Workload builders used by the Criterion benches (`benches/`) and the
//! benchmark spine (`benchspine/`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use co_calculus::Program;
use co_object::{Attr, Object};
use co_parser::parse_program;

/// A flat integer relation `{[k: i, v: i % classes], …}` with `rows` rows.
/// `classes` controls join/selection selectivity.
pub fn flat_relation(rows: i64, classes: i64, key_attr: &str, val_attr: &str) -> Object {
    Object::set((0..rows).map(|i| {
        Object::tuple([
            (Attr::new(key_attr), Object::int(i)),
            (Attr::new(val_attr), Object::int(i % classes)),
        ])
    }))
}

/// A two-relation join database: `r1(a, b)` and `r2(c, d)` with `b`/`c`
/// drawn from `classes` join classes.
pub fn join_db(rows: i64, classes: i64) -> Object {
    Object::tuple([
        (Attr::new("r1"), flat_relation(rows, classes, "a", "b")),
        (Attr::new("r2"), flat_relation(rows, classes, "c", "d")),
    ])
}

/// A family chain `p0 → p1 → … → pn` (worst case for naive evaluation:
/// one new descendant per iteration).
pub fn chain_family(n: usize) -> Object {
    let family = Object::set((0..n).map(|i| {
        Object::tuple([
            (Attr::new("name"), Object::str(format!("p{i}"))),
            (
                Attr::new("children"),
                Object::set([Object::tuple([(
                    Attr::new("name"),
                    Object::str(format!("p{}", i + 1)),
                )])]),
            ),
        ])
    }));
    Object::tuple([(Attr::new("family"), family)])
}

/// A family tree with the given fanout (generations discovered in parallel).
pub fn tree_family(n: usize, fanout: usize) -> Object {
    let family = Object::set((0..n).map(|parent| {
        let children = Object::set(
            (1..=fanout)
                .map(|k| parent * fanout + k)
                .filter(|c| *c < n)
                .map(|c| Object::tuple([(Attr::new("name"), Object::str(format!("p{c}")))])),
        );
        Object::tuple([
            (Attr::new("name"), Object::str(format!("p{parent}"))),
            (Attr::new("children"), children),
        ])
    }));
    Object::tuple([(Attr::new("family"), family)])
}

/// The descendants program of paper Example 4.5, rooted at `p0`.
pub fn descendants_program() -> Program {
    parse_program(
        "[doa: {p0}].
         [doa: {X}] :- [family: {[name: Y, children: {[name: X]}]}, doa: {Y}].",
    )
    .expect("static program parses")
}

/// The descendants program replicated per root: one independent rule
/// family `[doa_<root>: …]` per entry of `roots`, all reading the shared
/// `family` relation. Independent rule families are the natural source of
/// round-level parallelism for `Engine::parallelism` (each family is a
/// separate work unit every iteration), on top of the per-rule root
/// choice-point partitioning.
pub fn multi_descendants_program(roots: &[&str]) -> Program {
    let text = roots
        .iter()
        .map(|r| {
            format!(
                "[doa_{r}: {{{r}}}].\n\
                 [doa_{r}: {{X}}] :- \
                 [family: {{[name: Y, children: {{[name: X]}}]}}, doa_{r}: {{Y}}].",
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    parse_program(&text).expect("generated program parses")
}

/// Deterministic random objects for order/lattice scaling benches.
pub fn random_objects(seed: u64, depth: u32, fanout: usize, n: usize) -> Vec<Object> {
    let mut g = co_object::random::Generator::new(
        seed,
        co_object::random::Profile {
            max_depth: depth,
            max_fanout: fanout,
            attr_pool: 6,
            atom_pool: 8,
            set_bias: 0.5,
        },
    );
    g.objects(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_have_expected_shapes() {
        assert_eq!(
            flat_relation(100, 10, "k", "v").as_set().unwrap().len(),
            100
        );
        let db = join_db(50, 5);
        assert_eq!(db.dot("r1").as_set().unwrap().len(), 50);
        assert_eq!(chain_family(10).dot("family").as_set().unwrap().len(), 10);
        assert_eq!(random_objects(7, 3, 3, 5).len(), 5);
    }
}
