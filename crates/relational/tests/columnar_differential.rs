//! Differential proptests for the columnar fast path: every vectorized
//! operator must be *bit-identical* to the supported interned path
//! (`decode_relation` → `algebra` → `encode_relation`) — not just equal
//! as values, but the very same `NodeId`, because callers downstream
//! (memo tables, snapshots, the engine's set index) key on identity.
//!
//! The arena threshold is dropped to 2 rows so the generated relations —
//! deliberately small, to let proptest shrink — actually take the
//! columnar path. Dedicated tests interleave full store collections
//! and race four threads over shared relations:
//! whatever order arenas are built and caches are purged in, the
//! canonical boundary must hand back the same node.

//!
//! The deterministic cases below the proptests aim at the places where
//! the kernels choose by cardinality or skip re-canonicalization: the
//! join's build side (both argument orders, multi-attribute and
//! duplicate keys, products, the semijoin shortcut), the merge union,
//! gathers of zero / one / all rows, and the one-pass `decode_relation`
//! against a copy of the row-at-a-time routine it replaced.

use co_object::columnar::set_columnar_min_rows;
use co_object::{store, Atom, Attr, Object};
use co_relational::{
    algebra, columnar, decode_relation, encode_relation, RelSchema, Relation, RelationalError,
};
use proptest::prelude::*;

const ATTR_POOL: [&str; 5] = ["a", "b", "c", "d", "k"];

fn atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        (0i64..12).prop_map(Atom::from),
        any::<bool>().prop_map(Atom::from),
        prop_oneof![Just("x"), Just("y"), Just("z")].prop_map(Atom::from),
    ]
}

fn schema() -> impl Strategy<Value = Vec<Attr>> {
    proptest::sample::subsequence(ATTR_POOL.to_vec(), 1..=4)
        .prop_map(|names| names.into_iter().map(Attr::new).collect())
}

/// A non-empty flat relation over `schema` (an empty set has no schema
/// to infer, so both paths reject it before any comparison is possible).
fn relation(schema: Vec<Attr>) -> impl Strategy<Value = Object> {
    let arity = schema.len();
    proptest::collection::vec(proptest::collection::vec(atom(), arity..arity + 1), 1..24).prop_map(
        move |rows| {
            Object::set(rows.into_iter().map(|row| {
                Object::tuple(
                    schema
                        .iter()
                        .copied()
                        .zip(row.into_iter().map(Object::Atom)),
                )
            }))
        },
    )
}

/// A schema paired with a relation over it.
fn schema_and_relation() -> impl Strategy<Value = (Vec<Attr>, Object)> {
    schema().prop_flat_map(|s| (Just(s.clone()), relation(s)))
}

/// The interned baseline for unary operators.
fn slow(rel: &Object, op: impl Fn(&Relation) -> Relation) -> Object {
    encode_relation(&op(&decode_relation(rel).unwrap()))
}

/// The interned baseline for binary operators.
fn slow2(l: &Object, r: &Object, op: impl Fn(&Relation, &Relation) -> Relation) -> Object {
    encode_relation(&op(
        &decode_relation(l).unwrap(),
        &decode_relation(r).unwrap(),
    ))
}

proptest! {
    #[test]
    fn select_eq_matches_the_interned_path(
        (sch, rel) in schema_and_relation(),
        attr_ix in 0usize..4,
        value in atom(),
    ) {
        set_columnar_min_rows(2);
        let set = rel.as_set().unwrap();
        let attr = sch[attr_ix % sch.len()];
        let fast = columnar::select_eq(set, attr, &value).unwrap();
        let reference = slow(&rel, |r| algebra::select_eq(r, attr, &value).unwrap());
        prop_assert_eq!(fast.node_id(), reference.node_id());
    }

    #[test]
    fn project_matches_the_interned_path(
        (sch, rel) in schema_and_relation(),
        attr_ix in 0usize..4,
    ) {
        set_columnar_min_rows(2);
        let set = rel.as_set().unwrap();
        // A single attribute, and the full schema in reversed (i.e.
        // non-canonical) order: projection is order-insensitive.
        let one = [sch[attr_ix % sch.len()]];
        let reversed: Vec<Attr> = sch.iter().rev().copied().collect();
        for attrs in [&one[..], &reversed[..]] {
            let fast = columnar::project(set, attrs).unwrap();
            let reference = slow(&rel, |r| algebra::project(r, attrs).unwrap());
            prop_assert_eq!(fast.node_id(), reference.node_id());
        }
    }

    #[test]
    fn natural_join_matches_the_interned_path(
        (_, left) in schema_and_relation(),
        (_, right) in schema_and_relation(),
    ) {
        set_columnar_min_rows(2);
        // Schemas overlap or not as the generator pleases: both the hash
        // join and the cartesian fallback must agree with the algebra.
        let fast =
            columnar::natural_join(left.as_set().unwrap(), right.as_set().unwrap()).unwrap();
        let reference = slow2(&left, &right, |l, r| algebra::natural_join(l, r).unwrap());
        prop_assert_eq!(fast.node_id(), reference.node_id());
        // ⋈ commutes, and swapping the arguments swaps which side the
        // hash table is built on whenever the cardinalities differ.
        let swapped =
            columnar::natural_join(right.as_set().unwrap(), left.as_set().unwrap()).unwrap();
        prop_assert_eq!(swapped.node_id(), reference.node_id());
    }

    /// The one-pass decode agrees with the routine it replaced — same
    /// relation, or the very same error — on uniform relations and on
    /// sets with one irregular element spliced in.
    #[test]
    fn decode_matches_the_row_at_a_time_routine(
        (sch, rel) in schema_and_relation(),
        extra in atom(),
        irregular in 0usize..3,
    ) {
        let rows = rel.as_set().unwrap().elements().iter().cloned();
        let spliced = match irregular {
            // Uniform: the fast path itself.
            0 => rel.clone(),
            // One row with an attribute the others lack.
            1 => Object::set(rows.chain([Object::tuple(
                sch.iter()
                    .map(|a| (*a, Object::Atom(extra.clone())))
                    .chain([(Attr::new("extra"), Object::Atom(extra.clone()))]),
            )])),
            // One row with a nested value.
            _ => Object::set(rows.chain([Object::tuple(
                sch.iter().map(|a| (*a, Object::set([Object::Atom(extra.clone())]))),
            )])),
        };
        let decoded = decode_relation(&spliced);
        prop_assert_eq!(&decoded, &decode_row_at_a_time(&spliced));
        prop_assert_eq!(decoded.is_ok(), irregular == 0);
        if let Ok(relation) = decoded {
            prop_assert_eq!(encode_relation(&relation).node_id(), spliced.node_id());
        }
    }

    #[test]
    fn union_matches_the_interned_path(
        (sch, left) in schema_and_relation(),
        extra_rows in proptest::collection::vec(proptest::collection::vec(atom(), 4..5), 1..24),
    ) {
        set_columnar_min_rows(2);
        // Same schema on both sides (union demands it); overlapping rows
        // are likely, so dedup across the seam is exercised.
        let right = Object::set(extra_rows.into_iter().map(|row| {
            Object::tuple(sch.iter().copied().zip(row.into_iter().map(Object::Atom)))
        }));
        let fast = columnar::union(left.as_set().unwrap(), right.as_set().unwrap()).unwrap();
        let reference = slow2(&left, &right, |l, r| algebra::union(l, r).unwrap());
        prop_assert_eq!(fast.node_id(), reference.node_id());
    }

    /// The arena cache is purged by every full collection; rebuilding it
    /// afterwards must land on the same canonical results as long as the
    /// inputs are alive.
    #[test]
    fn results_are_stable_across_store_collections(
        (sch, rel) in schema_and_relation(),
        value in atom(),
    ) {
        set_columnar_min_rows(2);
        let set = rel.as_set().unwrap();
        let attr = sch[0];
        let before = columnar::select_eq(set, attr, &value).unwrap();
        store::collect();
        let after = columnar::select_eq(set, attr, &value).unwrap();
        prop_assert_eq!(before.node_id(), after.node_id());
        store::collect();
        let reference = slow(&rel, |r| algebra::select_eq(r, attr, &value).unwrap());
        prop_assert_eq!(after.node_id(), reference.node_id());
    }
}

/// Four threads race the same shared relations through every operator;
/// arenas are built and memoized concurrently, and every thread must
/// re-intern to the same nodes the interned path produces.
#[test]
fn four_threads_agree_with_the_interned_path() {
    set_columnar_min_rows(2);
    let (k, v, w) = (Attr::new("k"), Attr::new("v"), Attr::new("w"));
    let left = Object::set(
        (0..300i64).map(|i| Object::tuple([(k, Object::int(i % 50)), (v, Object::int(i % 7))])),
    );
    let right = Object::set(
        (0..40i64).map(|i| Object::tuple([(k, Object::int(i)), (w, Object::int(i % 3))])),
    );
    let three = Atom::from(3i64);

    let expected = [
        slow(&left, |r| algebra::select_eq(r, v, &three).unwrap()).node_id(),
        slow(&left, |r| algebra::project(r, &[v]).unwrap()).node_id(),
        slow2(&left, &right, |l, r| algebra::natural_join(l, r).unwrap()).node_id(),
        slow2(&left, &right, |l, r| {
            algebra::union(
                &algebra::project(l, &[k]).unwrap(),
                &algebra::project(r, &[k]).unwrap(),
            )
            .unwrap()
        })
        .node_id(),
    ];

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let (left, right, three) = (&left, &right, &three);
                scope.spawn(move || {
                    let (ls, rs) = (left.as_set().unwrap(), right.as_set().unwrap());
                    [
                        columnar::select_eq(ls, v, three).unwrap().node_id(),
                        columnar::project(ls, &[v]).unwrap().node_id(),
                        columnar::natural_join(ls, rs).unwrap().node_id(),
                        columnar::union(
                            columnar::project(ls, &[k]).unwrap().as_set().unwrap(),
                            columnar::project(rs, &[k]).unwrap().as_set().unwrap(),
                        )
                        .unwrap()
                        .node_id(),
                    ]
                })
            })
            .collect();
        for worker in workers {
            assert_eq!(
                worker.join().expect("worker panicked"),
                expected,
                "every thread must land on the interned path's nodes"
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Cardinality-aware kernels and canonical-by-construction re-entry
// ---------------------------------------------------------------------------

/// `{[schema[0]: row[0], …]}` over integer rows.
fn ints<const N: usize>(schema: [&str; N], rows: impl IntoIterator<Item = [i64; N]>) -> Object {
    Object::set(rows.into_iter().map(|row| {
        Object::tuple(
            schema
                .iter()
                .zip(row)
                .map(|(a, v)| (Attr::new(a), Object::int(v))),
        )
    }))
}

/// `fast` must land on `oracle`'s node — now, after a full collection
/// with the expected node held alive (the arena cache is purged, the id
/// must not move), and after one with nothing held (both sides rebuild).
fn assert_identical(what: &str, fast: impl Fn() -> Object, oracle: impl Fn() -> Object) {
    let expected = oracle();
    assert_eq!(fast().node_id(), expected.node_id(), "{what}");
    store::collect();
    assert_eq!(
        fast().node_id(),
        expected.node_id(),
        "{what}, after collect()"
    );
    drop(expected);
    store::collect();
    assert_eq!(
        fast().node_id(),
        oracle().node_id(),
        "{what}, rebuilt after collect()"
    );
}

/// Joins `l ⋈ r` and `r ⋈ l` (the build side flips with the argument
/// order whenever the cardinalities differ) against the algebra.
fn assert_join_identical(what: &str, l: &Object, r: &Object) {
    let oracle = || slow2(l, r, |a, b| algebra::natural_join(a, b).unwrap());
    let (ls, rs) = (l.as_set().unwrap(), r.as_set().unwrap());
    assert_identical(
        &format!("{what}, small side first"),
        || columnar::natural_join(ls, rs).unwrap(),
        oracle,
    );
    assert_identical(
        &format!("{what}, large side first"),
        || columnar::natural_join(rs, ls).unwrap(),
        oracle,
    );
}

#[test]
fn join_builds_on_either_side_with_duplicate_keys() {
    set_columnar_min_rows(2);
    // 6 rows against 300, the key repeating on both sides (k ∈ 0..5), so
    // every build-side chain and every probe has several matches.
    let small = ints(["k", "a"], (0..6).map(|i| [i % 5, i]));
    let large = ints(["k", "b"], (0..300).map(|i| [i % 5, i]));
    assert_join_identical("duplicate keys", &small, &large);
    // Keys of the small side that the large side lacks, and vice versa.
    let sparse = ints(["k", "a"], [[3, 0], [1000, 1], [-1, 2]]);
    assert_join_identical("mostly unmatched keys", &sparse, &large);
}

#[test]
fn join_on_multi_attribute_keys() {
    set_columnar_min_rows(2);
    // Two common attributes; each alone matches far more than the pair.
    let small = ints(["a", "b", "x"], (0..8).map(|i| [i % 2, i % 3, i]));
    let large = ints(["a", "b", "y"], (0..200).map(|i| [i % 2, i % 4, i]));
    assert_join_identical("two-attribute key", &small, &large);
    // Mixed atom kinds in one key column stay distinct keys.
    let mixed = |vals: [Atom; 3], other: &str| {
        Object::set(vals.into_iter().enumerate().map(|(i, v)| {
            Object::tuple([
                (Attr::new("a"), Object::Atom(v)),
                (Attr::new("b"), Object::int(0)),
                (Attr::new(other), Object::int(i as i64)),
            ])
        }))
    };
    let l = mixed([Atom::from(1i64), Atom::from("1"), Atom::from(true)], "x");
    let r = mixed([Atom::from("1"), Atom::from(1i64), Atom::from(false)], "y");
    assert_join_identical("mixed-kind keys", &l, &r);
}

#[test]
fn join_of_disjoint_schemas_is_a_product_either_way() {
    set_columnar_min_rows(2);
    let small = ints(["a"], (0..3).map(|i| [i]));
    let large = ints(["z", "y"], (0..40).map(|i| [i, i % 3]));
    assert_join_identical("product", &small, &large);
    let fast = columnar::natural_join(small.as_set().unwrap(), large.as_set().unwrap()).unwrap();
    assert_eq!(fast.as_set().unwrap().len(), 3 * 40);
}

#[test]
fn join_with_a_contained_schema_is_a_semijoin() {
    set_columnar_min_rows(2);
    // The wider side's rows come back by reference, whichever side is
    // larger and whichever argument it is.
    let wide = ints(["k", "w"], (0..300).map(|i| [i, i % 7]));
    let keys = ints(["k"], [[5], [250], [299], [1000]]);
    assert_join_identical("narrow small side", &keys, &wide);
    let few_wide = ints(["k", "w"], [[7, 0], [8, 1], [900, 2]]);
    let many_keys = ints(["k"], (0..300).map(|i| [i]));
    assert_join_identical("narrow large side", &few_wide, &many_keys);
    // Equal schemas: the join is the intersection.
    let other = ints(["k", "w"], (100..150).map(|i| [i, i % 7]).chain([[0, 5]]));
    assert_join_identical("same schema", &other, &wide);
    let both = columnar::natural_join(other.as_set().unwrap(), wide.as_set().unwrap()).unwrap();
    assert_eq!(both.as_set().unwrap().len(), 50);
}

#[test]
fn merge_union_on_disjoint_overlapping_identical_and_subset_inputs() {
    set_columnar_min_rows(2);
    let base = ints(["k", "w"], (0..200).map(|i| [i, i % 7]));
    let cases = [
        (
            "disjoint, above",
            ints(["k", "w"], (500..520).map(|i| [i, i % 7])),
        ),
        (
            "disjoint, below",
            ints(["k", "w"], (-20..0).map(|i| [i, i % 7])),
        ),
        (
            "interleaved",
            ints(["k", "w"], (0..200).map(|i| [i, (i + 1) % 7])),
        ),
        (
            "overlapping",
            ints(["k", "w"], (150..260).map(|i| [i, i % 7])),
        ),
        ("identical", base.clone()),
        ("subset", ints(["k", "w"], (40..45).map(|i| [i, i % 7]))),
        ("single row", ints(["k", "w"], [[77, 0]])),
    ];
    for (what, other) in &cases {
        let oracle = || slow2(&base, other, |a, b| algebra::union(a, b).unwrap());
        let (bs, os) = (base.as_set().unwrap(), other.as_set().unwrap());
        assert_identical(
            &format!("union, {what}"),
            || columnar::union(bs, os).unwrap(),
            oracle,
        );
        assert_identical(
            &format!("union, {what}, swapped"),
            || columnar::union(os, bs).unwrap(),
            oracle,
        );
    }
    // The subset case hands back the superset itself.
    let subset = &cases[5].1;
    let u = columnar::union(base.as_set().unwrap(), subset.as_set().unwrap()).unwrap();
    assert_eq!(u.node_id(), base.node_id());
}

#[test]
fn select_eq_hitting_zero_one_and_all_rows() {
    set_columnar_min_rows(2);
    let rel = ints(["k", "c"], (0..120).map(|i| [i, 9]));
    let set = rel.as_set().unwrap();
    for (what, attr, value, rows) in [
        ("no row", "k", 1000, 0),
        ("one row", "k", 57, 1),
        ("every row", "c", 9, 120),
    ] {
        let (attr, value) = (Attr::new(attr), Atom::from(value as i64));
        assert_identical(
            &format!("select_eq, {what}"),
            || columnar::select_eq(set, attr, &value).unwrap(),
            || slow(&rel, |r| algebra::select_eq(r, attr, &value).unwrap()),
        );
        let hit = columnar::select_eq(set, attr, &value).unwrap();
        assert_eq!(hit.as_set().unwrap().len(), rows, "{what}");
    }
    // Selecting everything is the relation itself, not a copy.
    let all = columnar::select_eq(set, Attr::new("c"), &Atom::from(9i64)).unwrap();
    assert_eq!(all.node_id(), rel.node_id());
}

/// `decode_relation` as it was before the one-pass fast path: schema
/// from the union of attributes, then one checked insert per element.
/// Kept here only as the reference the new routine is compared with.
fn decode_row_at_a_time(o: &Object) -> Result<Relation, RelationalError> {
    let set = o
        .as_set()
        .ok_or_else(|| RelationalError::NotFlat(format!("expected a set, got {o}")))?;
    let mut attrs: Vec<Attr> = Vec::new();
    for e in set.iter() {
        let t = e
            .as_tuple()
            .ok_or_else(|| RelationalError::NotFlat(format!("non-tuple element {e}")))?;
        for (a, v) in t.entries() {
            if v.as_atom().is_none() {
                return Err(RelationalError::NotFlat(format!(
                    "nested value {v} at attribute {a}"
                )));
            }
            if !attrs.contains(a) {
                attrs.push(*a);
            }
        }
    }
    attrs.sort_by_key(|a| a.name());
    let mut rel = Relation::empty(RelSchema::new(attrs.iter().copied())?);
    for e in set.iter() {
        let t = e.as_tuple().expect("checked above");
        let mut row = Vec::with_capacity(attrs.len());
        for a in &attrs {
            match t.get(*a) {
                Object::Atom(atom) => row.push(atom.clone()),
                Object::Bottom => {
                    return Err(RelationalError::NotFlat(format!(
                        "element {e} is missing attribute {a} (nulls are outside the flat model)"
                    )));
                }
                other => {
                    return Err(RelationalError::NotFlat(format!(
                        "nested value {other} at attribute {a}"
                    )));
                }
            }
        }
        rel.insert(row).expect("schema arity matches");
    }
    Ok(rel)
}

#[test]
fn decode_orders_columns_by_name_not_by_attribute_id() {
    // Interned in this order, `zz…` gets the smaller id: tuples list it
    // first, schemas list it last.
    let (zz, aa) = (Attr::new("zz_decode_order"), Attr::new("aa_decode_order"));
    assert!(zz < aa, "the test needs id order ≠ name order");
    let rel = Object::set(
        (0..90i64).map(|i| Object::tuple([(zz, Object::int(i % 4)), (aa, Object::int(i))])),
    );
    let decoded = decode_relation(&rel).unwrap();
    assert_eq!(decoded.schema().attrs(), [aa, zz]);
    assert!(decoded.contains(&vec![Atom::from(5i64), Atom::from(1i64)]));
    assert_eq!(decoded, decode_row_at_a_time(&rel).unwrap());
    assert_eq!(encode_relation(&decoded).node_id(), rel.node_id());
}

#[test]
fn decode_rejects_what_the_row_at_a_time_routine_rejected() {
    let flat = ints(["k", "w"], (0..70).map(|i| [i, i % 7]));
    let rows = || flat.as_set().unwrap().elements().iter().cloned();
    let irregular = [
        // A null: one row lacks `w`.
        Object::set(rows().chain([Object::tuple([("k", Object::int(500))])])),
        // One row with an extra attribute.
        Object::set(rows().chain([co_object::obj!([k: 500, w: 1, x: 2])])),
        // One nested value, early and last in element order.
        Object::set(rows().chain([co_object::obj!([k: 0, w: {1}])])),
        Object::set(rows().chain([co_object::obj!([k: 500, w: {1}])])),
        // A non-tuple element.
        Object::set(rows().chain([Object::int(3)])),
        // Same arity, another attribute list.
        Object::set(rows().chain([co_object::obj!([k: 500, x: 1])])),
        // Not a set at all.
        Object::int(5),
    ];
    for o in &irregular {
        let got = decode_relation(o);
        assert!(matches!(got, Err(RelationalError::NotFlat(_))), "{o}");
        assert_eq!(got, decode_row_at_a_time(o), "{o}");
    }
    // The empty set still decodes to the empty zero-attribute relation.
    assert_eq!(
        decode_relation(&Object::empty_set()),
        decode_row_at_a_time(&Object::empty_set())
    );
}
