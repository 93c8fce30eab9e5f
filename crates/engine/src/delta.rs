//! Structural deltas between successive database states.
//!
//! Classical semi-naive Datalog tracks newly derived tuples. Under the
//! complex-object lattice, "new" is subtler: unioning `[a:1, b:2]` into
//! `{[a:1]}` *replaces* the dominated element, and whole relations can grow
//! in place. A [`Delta`] is a tree aligned with the **new** database that
//! marks, conservatively, which regions differ from the old one:
//!
//! - `Clean` — the sub-object is equal to its old counterpart (checked with
//!   an `Arc::ptr_eq` fast path, so unchanged relations diff in O(1));
//! - `New` — no old counterpart (or too different to pair up);
//! - `Tuple` — both sides are tuples: per-attribute deltas (attributes not
//!   listed are `Clean`);
//! - `Set` — both sides are sets: one flag per element of the *new* set,
//!   `true` when no equal element existed in the old set.
//!
//! Conservatism is safe: marking too much `New` only causes re-derivation,
//! never a missed derivation. The semi-naive matcher
//! ([`crate::dmatch`]) skips a substitution only when *every* part of the
//! database its derivation touched is `Clean` — in which case the identical
//! derivation existed in the previous iteration.

use co_object::{Attr, Object};

/// A change-marking tree aligned with a (new) object. See module docs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Delta {
    /// Sub-object equal to the old counterpart.
    Clean,
    /// Entirely new (or unrecognizably changed) sub-object.
    New,
    /// Both tuples: per-attribute child deltas (unlisted attributes are
    /// clean). Entries sorted by attribute.
    Tuple(Vec<(Attr, Delta)>),
    /// Both sets: `true` flags the elements of the new set that have no
    /// equal counterpart in the old set (aligned with canonical element
    /// order).
    Set(Vec<bool>),
}

/// Shared statics for navigation defaults.
static CLEAN: Delta = Delta::Clean;
static NEW: Delta = Delta::New;

impl Delta {
    /// True when nothing below is new.
    pub fn is_clean(&self) -> bool {
        match self {
            Delta::Clean => true,
            Delta::New => false,
            Delta::Tuple(entries) => entries.iter().all(|(_, d)| d.is_clean()),
            Delta::Set(flags) => flags.iter().all(|f| !f),
        }
    }

    /// A conservative count of this delta's new-marked regions: every
    /// `true` set-element flag counts one, and a bare `New` sub-tree —
    /// whose extent is unknown without the object it describes —
    /// saturates to `u64::MAX`. The engine reports it as the
    /// `delta_marks` field of its `engine.round` trace span.
    pub fn new_marks(&self) -> u64 {
        match self {
            Delta::Clean => 0,
            Delta::New => u64::MAX,
            Delta::Tuple(entries) => entries
                .iter()
                .fold(0u64, |acc, (_, d)| acc.saturating_add(d.new_marks())),
            Delta::Set(flags) => flags.iter().filter(|f| **f).count() as u64,
        }
    }

    /// The delta for attribute `a` of a tuple-shaped node.
    pub fn attr(&self, a: Attr) -> &Delta {
        match self {
            Delta::Clean => &CLEAN,
            Delta::New => &NEW,
            Delta::Tuple(entries) => match entries.binary_search_by_key(&a, |(k, _)| *k) {
                Ok(i) => &entries[i].1,
                Err(_) => &CLEAN,
            },
            // A set node navigated as a tuple: shape confusion — be safe.
            Delta::Set(_) => &NEW,
        }
    }

    /// The delta for element `i` of a set-shaped node.
    pub fn element(&self, i: usize) -> &Delta {
        match self {
            Delta::Clean => &CLEAN,
            Delta::New => &NEW,
            Delta::Set(flags) => {
                if flags.get(i).copied().unwrap_or(true) {
                    &NEW
                } else {
                    &CLEAN
                }
            }
            Delta::Tuple(_) => &NEW,
        }
    }
}

/// Computes the delta from `old` to `new`.
///
/// The result is aligned with `new`. Pairs tuple attributes positionally and
/// set elements by equality; set elements that changed internally (e.g. a
/// person whose nested `children` set grew) are conservatively `New`.
pub fn diff(old: &Object, new: &Object) -> Delta {
    match (old, new) {
        (Object::Tuple(to), Object::Tuple(tn)) => {
            if to == tn {
                return Delta::Clean;
            }
            // If the old tuple has attributes the new one lacks, growth
            // monotonicity was violated; mark everything new to stay safe.
            let shrunk = to.attrs().any(|a| !tn.contains(a));
            if shrunk {
                return Delta::New;
            }
            let mut entries: Vec<(Attr, Delta)> = Vec::new();
            for (a, vn) in tn.entries() {
                let vo = to.get(*a);
                let d = if vo.is_bottom() {
                    Delta::New
                } else {
                    diff(vo, vn)
                };
                if d != Delta::Clean {
                    entries.push((*a, d));
                }
            }
            if entries.is_empty() {
                Delta::Clean
            } else {
                Delta::Tuple(entries)
            }
        }
        (Object::Set(so), Object::Set(sn)) => {
            if so == sn {
                return Delta::Clean;
            }
            // Both element lists are canonically sorted: merge walk.
            let old_elems = so.elements();
            let mut flags = Vec::with_capacity(sn.len());
            let mut j = 0;
            let mut any_new = false;
            for e in sn.elements() {
                while j < old_elems.len() && old_elems[j] < *e {
                    j += 1;
                }
                let fresh = !(j < old_elems.len() && &old_elems[j] == e);
                any_new |= fresh;
                flags.push(fresh);
            }
            if any_new {
                Delta::Set(flags)
            } else {
                Delta::Clean
            }
        }
        (o, n) => {
            if o == n {
                Delta::Clean
            } else {
                Delta::New
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use co_object::obj;

    #[test]
    fn equal_objects_are_clean() {
        let a = obj!([r: {1, 2}, s: {[x: 1]}]);
        assert_eq!(diff(&a, &a.clone()), Delta::Clean);
        assert!(diff(&a, &a).is_clean());
    }

    #[test]
    fn grown_set_flags_only_new_elements() {
        let old = obj!([r: {1, 2}]);
        let new = obj!([r: {1, 2, 3}]);
        let d = diff(&old, &new);
        let r = d.attr(Attr::new("r"));
        // Canonical order of {1,2,3} is 1,2,3: only the last is new.
        assert_eq!(r, &Delta::Set(vec![false, false, true]));
        assert_eq!(r.element(0), &Delta::Clean);
        assert_eq!(r.element(2), &Delta::New);
        assert!(!d.is_clean());
    }

    #[test]
    fn new_attribute_is_new() {
        let old = obj!([r: {1}]);
        let new = obj!([r: {1}, s: {2}]);
        let d = diff(&old, &new);
        assert_eq!(d.attr(Attr::new("r")), &Delta::Clean);
        assert_eq!(d.attr(Attr::new("s")), &Delta::New);
    }

    #[test]
    fn replaced_grown_element_is_new() {
        // Union replaced [a:1] by [a:1, b:2]: the grown element is new.
        let old = obj!([r: {[a: 1]}]);
        let new = obj!([r: {[a: 1, b: 2]}]);
        let d = diff(&old, &new);
        assert_eq!(d.attr(Attr::new("r")).element(0), &Delta::New);
    }

    #[test]
    fn unchanged_relations_stay_clean_next_to_changed_ones() {
        let old = obj!([family: {[name: a]}, doa: {x}]);
        let new = obj!([family: {[name: a]}, doa: {x, y}]);
        let d = diff(&old, &new);
        assert_eq!(d.attr(Attr::new("family")), &Delta::Clean);
        assert!(!d.attr(Attr::new("doa")).is_clean());
        // Attributes never mentioned are clean.
        assert_eq!(d.attr(Attr::new("zzz")), &Delta::Clean);
    }

    #[test]
    fn kind_change_is_new() {
        assert_eq!(diff(&obj!(1), &obj!(2)), Delta::New);
        assert_eq!(diff(&obj!({ 1 }), &obj!([a: 1])), Delta::New);
        assert_eq!(diff(&Object::Bottom, &obj!({ 1 })), Delta::New);
    }

    #[test]
    fn shrunk_tuple_is_conservatively_new() {
        let old = obj!([a: 1, b: 2]);
        let new = obj!([a: 1]);
        assert_eq!(diff(&old, &new), Delta::New);
    }

    #[test]
    fn navigation_through_new_is_new() {
        assert_eq!(NEW.attr(Attr::new("q")), &Delta::New);
        assert_eq!(NEW.element(5), &Delta::New);
        assert_eq!(CLEAN.attr(Attr::new("q")), &Delta::Clean);
        assert_eq!(CLEAN.element(5), &Delta::Clean);
    }

    #[test]
    fn nested_growth_is_localized() {
        let old = obj!([db: [r: {1}, s: {9}]]);
        let new = obj!([db: [r: {1, 2}, s: {9}]]);
        let d = diff(&old, &new);
        let inner = d.attr(Attr::new("db"));
        assert_eq!(inner.attr(Attr::new("s")), &Delta::Clean);
        assert_eq!(inner.attr(Attr::new("r")), &Delta::Set(vec![false, true]));
    }
}
