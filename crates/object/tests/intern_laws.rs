//! Laws of the interned (hash-consed) representation.
//!
//! Two families of guarantees are checked on randomly generated canonical
//! objects:
//!
//! 1. **Differential**: the O(1) interned equality (pointer/id comparison)
//!    agrees exactly with a reference *structural* equality implemented
//!    here by recursive descent — i.e. hash-consing changes the cost of
//!    `==`, never its answer. Hashes and node ids agree with equality.
//! 2. **Lattice laws over interned handles**: idempotence, commutativity,
//!    associativity, absorption, and the order/lattice consistency
//!    `a ≤ b ⇔ a ∪ b = b ⇔ a ∩ b = a`, and agreement of the production `≤`
//!    (metadata fast paths included) with a reference recursion on both
//!    small and large objects, where repeated operations must also give
//!    identical answers.

use co_object::lattice::{intersect, union};
use co_object::order::le;
use co_object::random::{Generator, Profile};
use co_object::{measure, Object};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Reference structural equality: recursive descent, never consulting
/// pointer identity, cached hashes, or node ids.
fn structural_eq(a: &Object, b: &Object) -> bool {
    match (a, b) {
        (Object::Bottom, Object::Bottom) => true,
        (Object::Top, Object::Top) => true,
        (Object::Atom(x), Object::Atom(y)) => x == y,
        (Object::Tuple(x), Object::Tuple(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((ax, vx), (ay, vy))| ax == ay && structural_eq(vx, vy))
        }
        (Object::Set(x), Object::Set(y)) => {
            x.len() == y.len() && x.iter().zip(y.iter()).all(|(ex, ey)| structural_eq(ex, ey))
        }
        _ => false,
    }
}

/// Reference sub-object order: Definition 3.1 by direct recursion, no
/// interned-equality or metadata fast paths.
fn ref_le(a: &Object, b: &Object) -> bool {
    match (a, b) {
        (Object::Bottom, _) => true,
        (_, Object::Top) => true,
        (Object::Top, _) => false,
        (_, Object::Bottom) => false,
        (Object::Atom(x), Object::Atom(y)) => x == y,
        (Object::Tuple(x), Object::Tuple(y)) => x
            .iter()
            .all(|(a, v)| y.contains(*a) && ref_le(v, y.get(*a))),
        (Object::Set(x), Object::Set(y)) => x.iter().all(|e| y.iter().any(|f| ref_le(e, f))),
        _ => false,
    }
}

fn hash_of<T: Hash>(v: &T) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Random canonical objects from the seeded generator (small profile).
fn arb_object() -> impl Strategy<Value = Object> {
    (any::<u64>(), 0usize..8).prop_map(|(seed, skip)| {
        let mut g = Generator::new(seed, Profile::small());
        g.objects(skip + 1).pop().unwrap()
    })
}

/// Random *large* canonical objects: deep and wide enough that the
/// metadata fast paths rarely decide `≤` alone.
fn arb_large_object() -> impl Strategy<Value = Object> {
    any::<u64>().prop_map(|seed| {
        let mut g = Generator::new(seed, Profile::large());
        g.object()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Interned equality ⇔ structural equality (same-seed duplicates give
    /// the positive cases the cross-seed pairs rarely hit).
    #[test]
    fn interned_equality_agrees_with_structural(
        a in arb_object(), b in arb_object(), seed in any::<u64>()
    ) {
        prop_assert_eq!(a == b, structural_eq(&a, &b));
        // Regenerating from the same seed rebuilds the same value through
        // fresh constructor calls: equality must hold and be structural.
        let mut g1 = Generator::new(seed, Profile::small());
        let mut g2 = Generator::new(seed, Profile::small());
        let (x, y) = (g1.object(), g2.object());
        prop_assert!(x == y && structural_eq(&x, &y));
        prop_assert_eq!(x.node_id(), y.node_id());
    }

    /// Equal objects hash equal (O(1) cached hashes included), and node ids
    /// characterize equality for same-kind composites.
    #[test]
    fn hashes_and_node_ids_agree_with_equality(a in arb_object(), b in arb_object()) {
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
            prop_assert_eq!(a.node_id(), b.node_id());
        } else if a.is_set() == b.is_set() && a.is_tuple() == b.is_tuple() {
            // Distinct same-kind composites must have distinct ids.
            if let (Some(ia), Some(ib)) = (a.node_id(), b.node_id()) {
                prop_assert_ne!(ia, ib);
            }
        }
    }

    /// The production `≤` (with its metadata fast paths) agrees with the
    /// reference recursion.
    #[test]
    fn le_agrees_with_reference(a in arb_object(), b in arb_object()) {
        prop_assert_eq!(le(&a, &b), ref_le(&a, &b));
        prop_assert!(le(&a, &a));
    }

    /// Idempotence and commutativity over interned handles.
    #[test]
    fn idempotence_and_commutativity(a in arb_object(), b in arb_object()) {
        prop_assert_eq!(union(&a, &a), a.clone());
        prop_assert_eq!(intersect(&a, &a), a.clone());
        prop_assert_eq!(union(&a, &b), union(&b, &a));
        prop_assert_eq!(intersect(&a, &b), intersect(&b, &a));
    }

    /// Absorption laws.
    #[test]
    fn absorption(a in arb_object(), b in arb_object()) {
        prop_assert_eq!(union(&a, &intersect(&a, &b)), a.clone());
        prop_assert_eq!(intersect(&a, &union(&a, &b)), a.clone());
    }

    /// Order/lattice consistency: `a ≤ b ⇔ a ∪ b = b ⇔ a ∩ b = a`.
    #[test]
    fn order_lattice_consistency(a in arb_object(), b in arb_object()) {
        let l = le(&a, &b);
        prop_assert_eq!(l, union(&a, &b) == b);
        prop_assert_eq!(l, intersect(&a, &b) == a);
    }

    /// On large objects, asking twice gives identical answers (the same
    /// interned handles for `∪`/`∩`), `≤` agrees with the reference
    /// recursion, and `∪`/`∩` are upper and lower bounds.
    #[test]
    fn memoized_operations_are_stable(a in arb_large_object(), b in arb_large_object()) {
        let first_le = le(&a, &b);
        prop_assert_eq!(first_le, le(&a, &b));
        prop_assert_eq!(first_le, ref_le(&a, &b));
        let u1 = union(&a, &b);
        prop_assert_eq!(&u1, &union(&a, &b));
        let i1 = intersect(&a, &b);
        prop_assert_eq!(&i1, &intersect(&a, &b));
        prop_assert!(le(&a, &u1) && le(&b, &u1));
        prop_assert!(le(&i1, &a) && le(&i1, &b));
    }

    /// Cached metadata agrees with first-principles recursion.
    #[test]
    fn meta_matches_recursive_measures(a in arb_object()) {
        fn ref_depth(o: &Object) -> u64 {
            match o {
                Object::Bottom | Object::Atom(_) => 1,
                Object::Top => u64::MAX,
                Object::Tuple(t) => {
                    1 + t.iter().map(|(_, v)| ref_depth(v)).max().unwrap_or(1)
                }
                Object::Set(s) => 1 + s.iter().map(ref_depth).max().unwrap_or(1),
            }
        }
        fn ref_size(o: &Object) -> u64 {
            match o {
                Object::Bottom | Object::Atom(_) | Object::Top => 1,
                Object::Tuple(t) => 1 + t.iter().map(|(_, v)| ref_size(v)).sum::<u64>(),
                Object::Set(s) => 1 + s.iter().map(ref_size).sum::<u64>(),
            }
        }
        fn ref_atoms(o: &Object) -> u64 {
            match o {
                Object::Atom(_) => 1,
                Object::Bottom | Object::Top => 0,
                Object::Tuple(t) => t.iter().map(|(_, v)| ref_atoms(v)).sum(),
                Object::Set(s) => s.iter().map(ref_atoms).sum(),
            }
        }
        fn ref_fanout(o: &Object) -> usize {
            match o {
                Object::Bottom | Object::Atom(_) | Object::Top => 0,
                Object::Tuple(t) => t
                    .iter()
                    .map(|(_, v)| ref_fanout(v))
                    .max()
                    .unwrap_or(0)
                    .max(t.len()),
                Object::Set(s) => {
                    s.iter().map(ref_fanout).max().unwrap_or(0).max(s.len())
                }
            }
        }
        if let Some(meta) = a.meta() {
            prop_assert_eq!(measure::depth(&a).finite(), Some(meta.depth));
            prop_assert_eq!(meta.depth, ref_depth(&a));
            prop_assert_eq!(meta.size, ref_size(&a));
            prop_assert_eq!(meta.atom_count, ref_atoms(&a));
            prop_assert_eq!(meta.max_fanout, ref_fanout(&a));
            prop_assert_eq!(measure::size(&a), meta.size);
        }
    }
}

#[test]
fn equality_is_pointer_identity_for_composites() {
    let mut g1 = Generator::new(0xC0FFEE, Profile::large());
    let mut g2 = Generator::new(0xC0FFEE, Profile::large());
    for (a, b) in g1.objects(32).into_iter().zip(g2.objects(32)) {
        assert_eq!(a, b);
        match (&a, &b) {
            (Object::Tuple(x), Object::Tuple(y)) => {
                assert_eq!(x.entries().as_ptr(), y.entries().as_ptr());
            }
            (Object::Set(x), Object::Set(y)) => {
                assert_eq!(x.elements().as_ptr(), y.elements().as_ptr());
            }
            _ => {}
        }
    }
}
