//! # co-object — the complex-object data model
//!
//! This crate implements Sections 2 and 3 of Bancilhon & Khoshafian,
//! *A Calculus for Complex Objects* (PODS 1986 / JCSS 1989):
//!
//! - [`Object`] — objects built freely from atoms, tuples, and sets, plus
//!   the special objects ⊤ (inconsistent) and ⊥ (undefined)
//!   (Definition 2.1), kept in a **canonical reduced form** so that the
//!   paper's semantic equality (Definition 2.2) is structural `==`;
//! - [`order`] — the sub-object partial order `≤` (Definition 3.1,
//!   Theorems 3.1–3.3);
//! - [`lattice`] — union (lub) and intersection (glb) making the object
//!   space a lattice (Definitions 3.4/3.5, Theorems 3.4–3.6);
//! - [`measure`] — the paper's depth measure (Definition 3.2) and sizes;
//! - [`obj!`] — literal syntax mirroring the paper's notation;
//! - [`path`]/[`update`] — navigation and persistent update primitives
//!   (the update primitives answer a §5 future-work item);
//! - [`walk`] — child iteration and the unique-postorder DAG walk that
//!   serializers (`co-wire`) build on;
//! - [`random`] — seeded random object generation (for property tests and
//!   benchmarks);
//! - serde support (feature `serde`, on by default) with re-normalization
//!   on deserialization.
//!
//! ## Example
//!
//! ```
//! use co_object::{obj, lattice, order, Object};
//!
//! let a = obj!([name: peter, hobbies: {chess}]);
//! let b = obj!([name: peter, age: 25]);
//!
//! // Union merges compatible tuples (Definition 3.4)…
//! assert_eq!(
//!     lattice::union(&a, &b),
//!     obj!([name: peter, hobbies: {chess}, age: 25])
//! );
//! // …intersection keeps the common part (Definition 3.5)…
//! assert_eq!(lattice::intersect(&a, &b), obj!([name: peter]));
//! // …and both are bounds in the sub-object order (Theorems 3.4/3.5).
//! assert!(order::le(&a, &lattice::union(&a, &b)));
//! assert!(order::le(&lattice::intersect(&a, &b), &b));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod atom;
mod attr;
pub mod builder;
pub mod columnar;
pub mod display;
mod error;
pub mod lattice;
pub mod measure;
pub mod order;
pub mod path;
#[cfg(feature = "rand")]
pub mod random;
#[cfg(feature = "serde")]
mod serde_impl;
pub mod store;
pub mod update;
mod value;
pub mod walk;

pub use atom::{is_bare_attr, is_bare_ident, Atom, F64, RESERVED_WORDS};
pub use attr::Attr;
pub use builder::IntoObject;
pub use error::ObjectError;
pub use measure::{atom_count, depth, max_fanout, size, Depth};
pub use path::Path;
pub use store::{Meta, NodeId, Root, SweepStats};
pub use value::{Object, Set, Tuple};

#[cfg(test)]
mod proptests {
    //! Property tests for the paper's theorems, on randomly generated
    //! canonical objects (Experiment E11).

    use crate::lattice::{intersect, union};
    use crate::order::le;
    use crate::random::{Generator, Profile};
    use crate::Object;
    use proptest::prelude::*;

    /// Strategy: a random canonical object from a seeded [`Generator`].
    fn arb_object() -> impl Strategy<Value = Object> {
        (any::<u64>(), 0usize..16).prop_map(|(seed, skip)| {
            let mut g = Generator::new(seed, Profile::small());
            g.objects(skip + 1).pop().unwrap()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Theorem 3.1 — reflexivity.
        #[test]
        fn le_is_reflexive(a in arb_object()) {
            prop_assert!(le(&a, &a));
        }

        /// Theorem 3.1 — transitivity: a ≤ a∪b ≤ (a∪b)∪c, and glb versions.
        #[test]
        fn le_is_transitive_on_constructed_chains(
            a in arb_object(), b in arb_object(), c in arb_object()
        ) {
            let ab = union(&a, &b);
            let abc = union(&ab, &c);
            prop_assert!(le(&a, &ab) && le(&ab, &abc));
            prop_assert!(le(&a, &abc), "transitivity failed: {a} vs {abc}");
            let ab_i = intersect(&a, &b);
            let abc_i = intersect(&ab_i, &c);
            prop_assert!(le(&abc_i, &ab_i) && le(&ab_i, &a));
            prop_assert!(le(&abc_i, &a));
        }

        /// Theorem 3.2 — anti-symmetry on (always-)reduced objects.
        #[test]
        fn le_is_antisymmetric(a in arb_object(), b in arb_object()) {
            if le(&a, &b) && le(&b, &a) {
                prop_assert_eq!(a, b);
            }
        }

        /// Theorem 3.4 — union is an upper bound and is below any
        /// constructed upper bound.
        #[test]
        fn union_is_least_upper_bound(
            a in arb_object(), b in arb_object(), extra in arb_object()
        ) {
            let u = union(&a, &b);
            prop_assert!(le(&a, &u));
            prop_assert!(le(&b, &u));
            // c := (a ∪ b) ∪ extra is an upper bound of a and b;
            // minimality demands u ≤ c.
            let c = union(&u, &extra);
            prop_assert!(le(&u, &c));
        }

        /// Theorem 3.5 — intersection is a lower bound and above any
        /// constructed lower bound.
        #[test]
        fn intersection_is_greatest_lower_bound(
            a in arb_object(), b in arb_object(), extra in arb_object()
        ) {
            let i = intersect(&a, &b);
            prop_assert!(le(&i, &a));
            prop_assert!(le(&i, &b));
            let c = intersect(&i, &extra);
            prop_assert!(le(&c, &i));
        }

        /// Lattice laws: commutativity and idempotence.
        #[test]
        fn union_and_intersection_commute_and_idempotent(
            a in arb_object(), b in arb_object()
        ) {
            prop_assert_eq!(union(&a, &b), union(&b, &a));
            prop_assert_eq!(intersect(&a, &b), intersect(&b, &a));
            prop_assert_eq!(union(&a, &a), a.clone());
            prop_assert_eq!(intersect(&a, &a), a.clone());
        }

        /// Lattice laws: associativity.
        #[test]
        fn union_and_intersection_associate(
            a in arb_object(), b in arb_object(), c in arb_object()
        ) {
            prop_assert_eq!(union(&union(&a, &b), &c), union(&a, &union(&b, &c)));
            prop_assert_eq!(
                intersect(&intersect(&a, &b), &c),
                intersect(&a, &intersect(&b, &c))
            );
        }

        /// Lattice laws: absorption.
        #[test]
        fn absorption_laws(a in arb_object(), b in arb_object()) {
            prop_assert_eq!(union(&a, &intersect(&a, &b)), a.clone());
            prop_assert_eq!(intersect(&a, &union(&a, &b)), a.clone());
        }

        /// Order/lattice consistency: a ≤ b ⟺ a∪b = b ⟺ a∩b = a.
        #[test]
        fn order_consistency(a in arb_object(), b in arb_object()) {
            let l = le(&a, &b);
            prop_assert_eq!(l, union(&a, &b) == b);
            prop_assert_eq!(l, intersect(&a, &b) == a);
        }

        /// Canonical total order is consistent with equality and antisymmetric.
        #[test]
        fn canonical_order_laws(a in arb_object(), b in arb_object()) {
            use std::cmp::Ordering;
            prop_assert_eq!(a.cmp(&b) == Ordering::Equal, a == b);
            prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        }

        /// Monotonicity of constructors: wrapping preserves ≤ (used
        /// implicitly by the matcher's correctness argument).
        #[test]
        fn constructors_are_monotone(a in arb_object(), b in arb_object()) {
            if le(&a, &b) {
                prop_assert!(le(&Object::set([a.clone()]), &Object::set([b.clone()])));
                prop_assert!(le(
                    &Object::tuple([("w", a.clone())]),
                    &Object::tuple([("w", b.clone())])
                ));
            }
        }
    }
}
