//! Lattice operations: union (least upper bound, Definition 3.4 /
//! Theorem 3.4) and intersection (greatest lower bound, Definition 3.5 /
//! Theorem 3.5).
//!
//! Together with the sub-object order these make the set of reduced complex
//! objects a lattice (Theorem 3.6) — the structure on which the whole object
//! calculus rests: interpretations and rule applications are unions of
//! instantiations, and the matcher computes maximal variable bindings as
//! intersections.
//!
//! Both operations run over interned handles ([`crate::store`]): the
//! idempotence fast paths (`a ∪ a = a ∩ a = a`) are pointer comparisons,
//! and everything else is the structural recursion of the definitions.

use crate::{Attr, Object, Tuple};
use std::cmp::Ordering;

/// `a ∪ b` — the least upper bound (Definition 3.4).
///
/// ```
/// use co_object::{obj, lattice::union, Object};
///
/// // Paper Examples 3.3:
/// assert_eq!(union(&obj!([a: 1, b: 2]), &obj!([b: 2, c: 3])), obj!([a: 1, b: 2, c: 3]));
/// assert_eq!(union(&obj!([a: 1]), &obj!([b: 2, c: 3])), obj!([a: 1, b: 2, c: 3]));
/// assert_eq!(union(&obj!([a: 1, b: 2]), &obj!([b: 3, c: 4])), Object::Top);
/// assert_eq!(union(&obj!({1, 2}), &obj!({2, 3})), obj!({1, 2, 3}));
/// assert_eq!(union(&obj!(1), &obj!(2)), Object::Top);
/// assert_eq!(union(&obj!([a: 1, b: 2]), &obj!({1, 2, 3})), Object::Top);
/// assert_eq!(
///     union(&obj!([a: 1, b: {2, 3}]), &obj!([b: {3, 4}, c: 5])),
///     obj!([a: 1, b: {2, 3, 4}, c: 5])
/// );
/// ```
pub fn union(a: &Object, b: &Object) -> Object {
    match (a, b) {
        (Object::Bottom, x) | (x, Object::Bottom) => x.clone(),
        (Object::Top, _) | (_, Object::Top) => Object::Top,
        (Object::Atom(x), Object::Atom(y)) => {
            if x == y {
                a.clone()
            } else {
                Object::Top
            }
        }
        (Object::Tuple(_), Object::Tuple(_)) | (Object::Set(_), Object::Set(_)) => {
            // Idempotence fast path: interned equality is O(1).
            if a == b {
                return a.clone();
            }
            union_same_kind(a, b)
        }
        _ => Object::Top,
    }
}

/// Union of two composites of the same kind (both tuples or both sets).
fn union_same_kind(a: &Object, b: &Object) -> Object {
    match (a, b) {
        (Object::Tuple(x), Object::Tuple(y)) => union_tuples(x, y),
        (Object::Set(x), Object::Set(y)) => {
            let mut v: Vec<Object> = Vec::with_capacity(x.len() + y.len());
            v.extend(x.iter().cloned());
            v.extend(y.iter().cloned());
            Object::set_from_vec(v)
        }
        _ => unreachable!("union_same_kind called on non-matching kinds"),
    }
}

/// `a ∩ b` — the greatest lower bound (Definition 3.5).
///
/// ```
/// use co_object::{obj, lattice::intersect, Object};
///
/// // Paper Examples 3.4:
/// assert_eq!(intersect(&obj!([a: 1, b: 2]), &obj!([b: 2, c: 3])), obj!([b: 2]));
/// assert_eq!(intersect(&obj!([a: 1]), &obj!([b: 2, c: 3])), Object::empty_tuple());
/// assert_eq!(intersect(&obj!([a: 1, b: 2]), &obj!([b: 3, c: 4])), Object::empty_tuple());
/// assert_eq!(intersect(&obj!({1, 2}), &obj!({2, 3})), obj!({2}));
/// assert_eq!(intersect(&obj!(1), &obj!(2)), Object::Bottom);
/// assert_eq!(intersect(&obj!([a: 1, b: 2]), &obj!({1, 2, 3})), Object::Bottom);
/// assert_eq!(
///     intersect(&obj!([a: 1, b: {2, 3}]), &obj!([b: {3, 4}, c: 5])),
///     obj!([b: {3}])
/// );
/// ```
pub fn intersect(a: &Object, b: &Object) -> Object {
    match (a, b) {
        (Object::Top, x) | (x, Object::Top) => x.clone(),
        (Object::Bottom, _) | (_, Object::Bottom) => Object::Bottom,
        (Object::Atom(x), Object::Atom(y)) => {
            if x == y {
                a.clone()
            } else {
                Object::Bottom
            }
        }
        (Object::Tuple(_), Object::Tuple(_)) | (Object::Set(_), Object::Set(_)) => {
            // Idempotence fast path: interned equality is O(1).
            if a == b {
                return a.clone();
            }
            intersect_same_kind(a, b)
        }
        _ => Object::Bottom,
    }
}

/// Intersection of two composites of the same kind (both tuples or both
/// sets).
fn intersect_same_kind(a: &Object, b: &Object) -> Object {
    match (a, b) {
        (Object::Tuple(x), Object::Tuple(y)) => intersect_tuples(x, y),
        (Object::Set(x), Object::Set(y)) => {
            // "the reduced version of the set {o1 ∩ o2 | o1 ∈ O1, o2 ∈ O2}";
            // ⊥ entries vanish and reduction absorbs dominated intersections.
            // Flat sets (cached flag) intersect atom-by-atom: a sorted merge
            // instead of the quadratic product.
            if x.meta().flat && y.meta().flat {
                let mut v: Vec<Object> = Vec::new();
                for e in x.iter() {
                    if y.contains(e) {
                        v.push(e.clone());
                    }
                }
                return Object::set_from_vec(v);
            }
            let mut v: Vec<Object> = Vec::new();
            for e in x.iter() {
                for f in y.iter() {
                    match intersect(e, f) {
                        Object::Bottom => {}
                        o => v.push(o),
                    }
                }
            }
            Object::set_from_vec(v)
        }
        _ => unreachable!("intersect_same_kind called on non-matching kinds"),
    }
}

/// Tuple union: per-attribute union over the merged attribute lists
/// (missing attributes read as ⊥, the union identity). If any attribute
/// union is ⊤ the constructor collapses the whole tuple to ⊤.
fn union_tuples(x: &Tuple, y: &Tuple) -> Object {
    let xs = x.entries();
    let ys = y.entries();
    let mut v: Vec<(Attr, Object)> = Vec::with_capacity(xs.len() + ys.len());
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].0.cmp(&ys[j].0) {
            Ordering::Less => {
                v.push(xs[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                v.push(ys[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                let u = union(&xs[i].1, &ys[j].1);
                if u.is_top() {
                    return Object::Top;
                }
                v.push((xs[i].0, u));
                i += 1;
                j += 1;
            }
        }
    }
    v.extend_from_slice(&xs[i..]);
    v.extend_from_slice(&ys[j..]);
    Object::tuple_from_sorted(v)
}

/// Tuple intersection: per-attribute glb; attributes missing on either side
/// intersect to ⊥ and are dropped, possibly leaving the empty tuple `[]`
/// (which is *not* ⊥ — see paper Examples 3.4).
fn intersect_tuples(x: &Tuple, y: &Tuple) -> Object {
    let xs = x.entries();
    let ys = y.entries();
    let mut v: Vec<(Attr, Object)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].0.cmp(&ys[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                match intersect(&xs[i].1, &ys[j].1) {
                    Object::Bottom => {}
                    o => v.push((xs[i].0, o)),
                }
                i += 1;
                j += 1;
            }
        }
    }
    Object::tuple_from_sorted(v)
}

/// n-ary union: `⋃ items`, with ⊥ as the identity of the empty union.
///
/// The empty union being ⊥ is what makes "a formula with no matching
/// substitution contributes nothing" work in the calculus (Definition 4.2).
pub fn union_all<'a, I>(items: I) -> Object
where
    I: IntoIterator<Item = &'a Object>,
{
    union_many(items.into_iter().cloned())
}

/// n-ary union over owned objects, computed **in bulk**: instead of folding
/// binary unions (which re-normalizes a growing accumulator once per item —
/// quadratic when accumulating thousands of rule derivations), the items
/// are unioned level by level: all set elements concatenate into one
/// normalization pass, tuples union attribute-wise recursively. Equal to
/// the binary fold by associativity/commutativity of the lub (Theorem 3.4);
/// the equivalence is property-tested.
pub fn union_many<I>(items: I) -> Object
where
    I: IntoIterator<Item = Object>,
{
    let mut atoms: Option<Object> = None;
    let mut tuple_parts: Option<Vec<(Attr, Vec<Object>)>> = None;
    let mut set_elems: Vec<Object> = Vec::new();
    let mut saw_set = false;
    let mut kinds = 0u8; // bit 0: atom, bit 1: tuple, bit 2: set

    for o in items {
        match o {
            Object::Bottom => {}
            Object::Top => return Object::Top,
            Object::Atom(_) => {
                kinds |= 1;
                match &atoms {
                    None => atoms = Some(o),
                    Some(prev) if *prev == o => {}
                    Some(_) => return Object::Top,
                }
            }
            Object::Tuple(t) => {
                kinds |= 2;
                let parts = tuple_parts.get_or_insert_with(Vec::new);
                for (a, v) in t.entries() {
                    match parts.binary_search_by_key(a, |(k, _)| *k) {
                        Ok(i) => parts[i].1.push(v.clone()),
                        Err(i) => parts.insert(i, (*a, vec![v.clone()])),
                    }
                }
            }
            Object::Set(s) => {
                kinds |= 4;
                saw_set = true;
                set_elems.extend(s.iter().cloned());
            }
        }
    }

    match kinds {
        0 => Object::Bottom,
        1 => atoms.expect("atom recorded"),
        2 => {
            let parts = tuple_parts.expect("tuple recorded");
            let mut entries: Vec<(Attr, Object)> = Vec::with_capacity(parts.len());
            for (a, values) in parts {
                match union_many(values) {
                    Object::Top => return Object::Top,
                    Object::Bottom => {}
                    v => entries.push((a, v)),
                }
            }
            Object::tuple_from_sorted(entries)
        }
        4 => {
            debug_assert!(saw_set);
            Object::set_from_vec(set_elems)
        }
        // Mixed kinds: the lub of incomparable constructors is ⊤.
        _ => Object::Top,
    }
}

/// n-ary intersection: `⋂ items`, with ⊤ as the identity of the empty
/// intersection. This computes the maximal binding of a variable constrained
/// from several occurrences (see the matcher in `co-calculus`).
pub fn intersect_all<'a, I>(items: I) -> Object
where
    I: IntoIterator<Item = &'a Object>,
{
    let mut acc = Object::Top;
    for o in items {
        if acc.is_bottom() {
            return Object::Bottom;
        }
        acc = intersect(&acc, o);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;
    use crate::order::le;

    #[test]
    fn examples_3_3_union() {
        assert_eq!(
            union(&obj!([a: 1, b: 2]), &obj!([b: 2, c: 3])),
            obj!([a: 1, b: 2, c: 3])
        );
        assert_eq!(
            union(&obj!([a: 1]), &obj!([b: 2, c: 3])),
            obj!([a: 1, b: 2, c: 3])
        );
        assert_eq!(union(&obj!([a: 1, b: 2]), &obj!([b: 3, c: 4])), Object::Top);
        assert_eq!(union(&obj!({1, 2}), &obj!({2, 3})), obj!({1, 2, 3}));
        assert_eq!(union(&obj!(1), &obj!(2)), Object::Top);
        assert_eq!(union(&obj!([a: 1, b: 2]), &obj!({1, 2, 3})), Object::Top);
        assert_eq!(
            union(&obj!([a: 1, b: {2, 3}]), &obj!([b: {3, 4}, c: 5])),
            obj!([a: 1, b: {2, 3, 4}, c: 5])
        );
    }

    #[test]
    fn examples_3_4_intersection() {
        assert_eq!(
            intersect(&obj!([a: 1, b: 2]), &obj!([b: 2, c: 3])),
            obj!([b: 2])
        );
        assert_eq!(
            intersect(&obj!([a: 1]), &obj!([b: 2, c: 3])),
            Object::empty_tuple()
        );
        assert_eq!(
            intersect(&obj!([a: 1, b: 2]), &obj!([b: 3, c: 4])),
            Object::empty_tuple()
        );
        assert_eq!(intersect(&obj!({1, 2}), &obj!({2, 3})), obj!({ 2 }));
        assert_eq!(intersect(&obj!(1), &obj!(2)), Object::Bottom);
        assert_eq!(
            intersect(&obj!([a: 1, b: 2]), &obj!({1, 2, 3})),
            Object::Bottom
        );
        assert_eq!(
            intersect(&obj!([a: 1, b: {2, 3}]), &obj!([b: {3, 4}, c: 5])),
            obj!([b: {3}])
        );
    }

    #[test]
    fn set_intersection_includes_more_than_set_theoretic_intersection() {
        // "if O1 and O2 are sets then O1 ∩ O2 includes the set intersection"
        // — e.g. tuple elements contribute their common parts.
        let a = obj!({[x: 1, y: 2]});
        let b = obj!({[x: 1, z: 3]});
        assert_eq!(intersect(&a, &b), obj!({[x: 1]}));
    }

    #[test]
    fn union_is_an_upper_bound_and_intersection_a_lower_bound() {
        let samples = [
            Object::Bottom,
            obj!(1),
            obj!({1, 2}),
            obj!([a: 1, b: {2}]),
            obj!({[a: 1], [b: 2]}),
            Object::Top,
        ];
        for a in &samples {
            for b in &samples {
                let u = union(a, b);
                let i = intersect(a, b);
                assert!(le(a, &u), "{a} ≤ {a} ∪ {b} = {u}");
                assert!(le(b, &u));
                assert!(le(&i, a), "{a} ∩ {b} = {i} ≤ {a}");
                assert!(le(&i, b));
            }
        }
    }

    #[test]
    fn identity_elements() {
        let x = obj!([a: {1, 2}]);
        assert_eq!(union(&Object::Bottom, &x), x);
        assert_eq!(union(&x, &Object::Bottom), x);
        assert_eq!(intersect(&Object::Top, &x), x);
        assert_eq!(intersect(&x, &Object::Top), x);
        assert_eq!(union(&Object::Top, &x), Object::Top);
        assert_eq!(intersect(&Object::Bottom, &x), Object::Bottom);
    }

    #[test]
    fn empty_set_behaviour() {
        // {} ∪ S = S, {} ∩ S = {} for set objects.
        let s = obj!({1, 2});
        assert_eq!(union(&Object::empty_set(), &s), s);
        assert_eq!(intersect(&Object::empty_set(), &s), Object::empty_set());
        // {} vs a tuple is a kind clash.
        assert_eq!(union(&Object::empty_set(), &obj!([a: 1])), Object::Top);
        assert_eq!(
            intersect(&Object::empty_set(), &obj!([a: 1])),
            Object::Bottom
        );
    }

    #[test]
    fn union_absorbs_dominated_set_elements() {
        let a = obj!({[x: 1]});
        let b = obj!({[x: 1, y: 2]});
        assert_eq!(union(&a, &b), obj!({[x: 1, y: 2]}));
    }

    #[test]
    fn disjoint_atom_sets_intersect_to_empty() {
        assert_eq!(intersect(&obj!({1, 2}), &obj!({3, 4})), Object::empty_set());
    }

    #[test]
    fn nary_operations() {
        assert_eq!(union_all([] as [&Object; 0]), Object::Bottom);
        assert_eq!(intersect_all([] as [&Object; 0]), Object::Top);
        let items = [obj!({ 1 }), obj!({ 2 }), obj!({ 3 })];
        assert_eq!(union_all(items.iter()), obj!({1, 2, 3}));
        let items2 = [obj!({1, 2, 3}), obj!({2, 3}), obj!({3, 4})];
        assert_eq!(intersect_all(items2.iter()), obj!({ 3 }));
    }

    #[test]
    fn union_many_equals_binary_fold() {
        use crate::random::{Generator, Profile};
        for seed in 0..50u64 {
            let mut g = Generator::new(seed, Profile::small());
            let items = g.objects(5);
            let folded = items.iter().fold(Object::Bottom, |acc, o| union(&acc, o));
            let bulk = union_many(items.clone());
            assert_eq!(bulk, folded, "seed {seed}: items {items:?}");
        }
    }

    #[test]
    fn union_many_special_cases() {
        assert_eq!(union_many([] as [Object; 0]), Object::Bottom);
        assert_eq!(union_many([Object::Bottom]), Object::Bottom);
        assert_eq!(union_many([Object::Top, obj!(1)]), Object::Top);
        assert_eq!(union_many([obj!(1), obj!(1)]), obj!(1));
        assert_eq!(union_many([obj!(1), obj!(2)]), Object::Top);
        assert_eq!(union_many([obj!({ 1 }), obj!([a: 1])]), Object::Top);
        assert_eq!(
            union_many([obj!([a: 1]), obj!([b: {2}]), obj!([b: {3}])]),
            obj!([a: 1, b: {2, 3}])
        );
        assert_eq!(union_many([Object::empty_set()]), Object::empty_set());
        // Conflicting atom values inside tuple attributes poison the tuple.
        assert_eq!(union_many([obj!([a: 1]), obj!([a: 2])]), Object::Top);
    }

    #[test]
    fn lub_minimality_on_samples() {
        // If a ≤ c and b ≤ c then a ∪ b ≤ c (Theorem 3.4).
        let a = obj!({[x: 1]});
        let b = obj!({[y: 2]});
        let c = obj!({[x: 1, y: 2], [z: 3]});
        assert!(le(&a, &c) && le(&b, &c));
        assert!(le(&union(&a, &b), &c));
    }

    #[test]
    fn glb_maximality_on_samples() {
        // If c ≤ a and c ≤ b then c ≤ a ∩ b (Theorem 3.5).
        let a = obj!([x: 1, y: 2]);
        let b = obj!([y: 2, z: 3]);
        let c = obj!([y: 2]);
        assert!(le(&c, &a) && le(&c, &b));
        assert!(le(&c, &intersect(&a, &b)));
    }
}
