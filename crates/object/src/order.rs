//! The sub-object relationship `≤` (paper Definition 3.1).
//!
//! `O ≤ O'` holds when:
//!
//! - `O` and `O'` are tuples and `O.a ≤ O'.a` for every attribute `a`
//!   (missing attributes read as ⊥, which is below everything);
//! - `O` and `O'` are sets and every element of `O` is a sub-object of
//!   *some* element of `O'`;
//! - `O = O'` (reflexivity);
//! - `O' = ⊤` or `O = ⊥`.
//!
//! On the canonical (reduced) objects of this crate, `≤` is a partial order
//! (Theorems 3.1–3.3) and in fact a lattice order (Theorem 3.6); the lattice
//! operations live in [`crate::lattice`].
//!
//! The implementation leans on the hash-consed store ([`crate::store`]):
//! interned equality short-circuits `a ≤ a` in O(1), cached [`crate::Meta`]
//! gives monotone fast rejects (`a ≤ b ⇒ depth(a) ≤ depth(b)` and likewise
//! for size on sets' merge walks). Past those checks `≤` is the structural
//! recursion of Definition 3.1, run directly.

use crate::{Object, Set, Tuple};
use std::cmp::Ordering;

/// `a ≤ b`: is `a` a sub-object of `b`? (Definition 3.1.)
///
/// ```
/// use co_object::{obj, order::le};
///
/// // Paper Example 3.1:
/// assert!(le(&obj!([a: 1, b: 2]), &obj!([a: 1, b: 2, c: 3])));
/// assert!(le(&obj!({1, 2, 3}), &obj!({1, 2, 3, 4})));
/// assert!(le(
///     &obj!({[a: 1], [a: 2, b: 3]}),
///     &obj!({[a: 1, b: 2], [a: 2, b: 3], [a: 5, b: 5, c: 5]})
/// ));
/// assert!(le(&obj!([a: {1}, b: 2]), &obj!([a: {1, 2}, b: 2])));
/// // ...and the two non-facts:
/// assert!(!le(&obj!(1), &obj!([a: 1, b: 2])));
/// assert!(!le(&obj!(1), &obj!({1, 2, 3})));
/// ```
pub fn le(a: &Object, b: &Object) -> bool {
    match (a, b) {
        (Object::Bottom, _) => true,
        (_, Object::Top) => true,
        (Object::Top, _) => false,
        (_, Object::Bottom) => false,
        (Object::Atom(x), Object::Atom(y)) => x == y,
        (Object::Tuple(x), Object::Tuple(y)) => {
            // Interned handles: equality — and hence reflexivity — is a
            // pointer check.
            if x == y {
                return true;
            }
            // Monotone-measure rejects: x ≤ y forces attrs(x) ⊆ attrs(y)
            // and depth(x) ≤ depth(y) (induction over Definition 3.1).
            if x.len() > y.len() || x.meta().depth > y.meta().depth {
                return false;
            }
            tuple_le(x, y)
        }
        (Object::Set(x), Object::Set(y)) => {
            if x == y {
                return true;
            }
            // Element count is *not* monotone for sets, but depth is.
            if x.meta().depth > y.meta().depth {
                return false;
            }
            set_le(x, y)
        }
        _ => false,
    }
}

/// `a < b`: strict sub-object.
pub fn lt(a: &Object, b: &Object) -> bool {
    a != b && le(a, b)
}

/// `a ≥ b`.
pub fn ge(a: &Object, b: &Object) -> bool {
    le(b, a)
}

/// True when `a` and `b` are incomparable under `≤`.
pub fn incomparable(a: &Object, b: &Object) -> bool {
    !le(a, b) && !le(b, a)
}

/// Compares two objects in the partial order, when they are comparable.
pub fn partial_cmp(a: &Object, b: &Object) -> Option<Ordering> {
    if a == b {
        Some(Ordering::Equal)
    } else if le(a, b) {
        Some(Ordering::Less)
    } else if le(b, a) {
        Some(Ordering::Greater)
    } else {
        None
    }
}

/// Tuple case of Definition 3.1(i): `x.a ≤ y.a` for **every** attribute.
///
/// Canonical tuples contain no ⊥ values, so an attribute present in `x` but
/// absent from `y` fails immediately (`x.a ≤ ⊥` only for `x.a = ⊥`);
/// attributes only in `y` are vacuous (`⊥ ≤ y.a`). Both entry lists are
/// sorted by attribute id, so this is a linear merge walk.
fn tuple_le(x: &Tuple, y: &Tuple) -> bool {
    let mut ys = y.entries().iter();
    'outer: for (a, v) in x.entries() {
        for (b, w) in ys.by_ref() {
            match b.cmp(a) {
                Ordering::Less => continue,
                Ordering::Equal => {
                    if le(v, w) {
                        continue 'outer;
                    }
                    return false;
                }
                Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// Set case of Definition 3.1(ii): every element of `x` is below **some**
/// element of `y`.
///
/// Worst-case `O(|x|·|y|)` `le` checks; the equality fast path (binary
/// search in the canonically sorted `y`) removes the common case where the
/// element is literally present.
fn set_le(x: &Set, y: &Set) -> bool {
    // Flat fast path (cached flag): every element of a flat set is an atom,
    // and an atom is only below an equal atom — so `x ≤ y` degenerates to
    // subset, a binary search per element instead of a quadratic scan.
    if x.meta().flat {
        return x.iter().all(|e| y.contains(e));
    }
    x.iter()
        .all(|e| y.contains(e) || y.iter().any(|f| le(e, f)))
}

/// Returns the maximal elements of `items` under `≤` — used by reduction and
/// by clients that need a frontier of a result collection.
pub fn maximal_under_le(items: &[Object]) -> Vec<Object> {
    let mut out: Vec<Object> = Vec::new();
    for e in items {
        if items.iter().any(|f| e != f && lt(e, f)) {
            continue;
        }
        if !out.contains(e) {
            out.push(e.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    #[test]
    fn example_3_1_positive_cases() {
        assert!(le(&obj!([a: 1, b: 2]), &obj!([a: 1, b: 2, c: 3])));
        assert!(le(&obj!({1, 2, 3}), &obj!({1, 2, 3, 4})));
        assert!(le(
            &obj!({[a: 1], [a: 2, b: 3]}),
            &obj!({[a: 1, b: 2], [a: 2, b: 3], [a: 5, b: 5, c: 5]})
        ));
        assert!(le(&obj!([a: {1}, b: 2]), &obj!([a: {1, 2}, b: 2])));
    }

    #[test]
    fn example_3_1_negative_cases() {
        // "1 is not a sub-object of [a:1, b:2], nor of {1,2,3}".
        assert!(!le(&obj!(1), &obj!([a: 1, b: 2])));
        assert!(!le(&obj!(1), &obj!({1, 2, 3})));
    }

    #[test]
    fn bottom_and_top_are_extremes() {
        let samples = [
            Object::Bottom,
            obj!(1),
            obj!(x),
            obj!([a: 1]),
            obj!({ 1 }),
            Object::Top,
        ];
        for o in &samples {
            assert!(le(&Object::Bottom, o), "⊥ ≤ {o}");
            assert!(le(o, &Object::Top), "{o} ≤ ⊤");
        }
        assert!(!le(&Object::Top, &Object::Bottom));
    }

    #[test]
    fn reflexive_on_samples() {
        for o in [
            Object::Bottom,
            obj!(42),
            obj!([name: [first: john], tags: {1, 2}]),
            Object::Top,
        ] {
            assert!(le(&o, &o));
        }
    }

    #[test]
    fn tuples_with_extra_attrs_dominate() {
        assert!(le(&obj!([a: 1]), &obj!([a: 1, b: 2])));
        assert!(!le(&obj!([a: 1, b: 2]), &obj!([a: 1])));
        assert!(le(&Object::empty_tuple(), &obj!([a: 1])));
    }

    #[test]
    fn tuple_le_is_pointwise() {
        assert!(le(&obj!([a: {1}]), &obj!([a: {1, 2}])));
        assert!(!le(&obj!([a: {1, 2}]), &obj!([a: {1}])));
        assert!(!le(&obj!([a: 1]), &obj!([a: 2])));
    }

    #[test]
    fn set_le_uses_existential_witnesses() {
        // Both elements of the left set fit under the single right element.
        assert!(le(&obj!({[a: 1], [b: 2]}), &obj!({[a: 1, b: 2]})));
        // But not vice versa.
        assert!(!le(&obj!({[a: 1, b: 2]}), &obj!({[a: 1]})));
        assert!(le(&Object::empty_set(), &obj!({ 1 })));
        assert!(!le(&obj!({ 1 }), &Object::empty_set()));
    }

    #[test]
    fn mixed_kinds_are_incomparable() {
        assert!(incomparable(&obj!([a: 1]), &obj!({ 1 })));
        assert!(incomparable(&obj!(1), &obj!({ 1 })));
        assert!(incomparable(&obj!(1), &obj!(2)));
        assert!(incomparable(&Object::empty_tuple(), &Object::empty_set()));
    }

    #[test]
    fn partial_cmp_matches_le() {
        assert_eq!(
            partial_cmp(&obj!([a: 1]), &obj!([a: 1, b: 2])),
            Some(Ordering::Less)
        );
        assert_eq!(
            partial_cmp(&obj!([a: 1, b: 2]), &obj!([a: 1])),
            Some(Ordering::Greater)
        );
        assert_eq!(partial_cmp(&obj!(1), &obj!(1)), Some(Ordering::Equal));
        assert_eq!(partial_cmp(&obj!(1), &obj!(2)), None);
    }

    #[test]
    fn maximal_frontier() {
        let items = [obj!([a: 1]), obj!([a: 1, b: 2]), obj!([c: 3])];
        let max = maximal_under_le(&items);
        assert_eq!(max.len(), 2);
        assert!(max.contains(&obj!([a: 1, b: 2])));
        assert!(max.contains(&obj!([c: 3])));
    }

    #[test]
    fn anti_symmetry_on_reduced_objects() {
        // Example 3.2's counterexample cannot be built: the constructor
        // reduces {[a1:3, a2:5], [a1:3]} to {[a1:3, a2:5]}, restoring
        // anti-symmetry (Theorem 3.2).
        let o1 = obj!({[a1: 3, a2: 5], [a1: 3]});
        let o2 = obj!({[a1: 3, a2: 5]});
        assert!(le(&o1, &o2) && le(&o2, &o1));
        assert_eq!(o1, o2);
    }
}
