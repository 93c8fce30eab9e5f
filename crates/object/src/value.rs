//! The complex-object value type (paper Definition 2.1) and its canonical
//! (normalized, reduced) representation.
//!
//! # Canonical form
//!
//! Every [`Object`] value in this library is kept in a canonical form chosen
//! so that the paper's *semantic* equality (Definition 2.2) coincides with
//! structural `==`:
//!
//! - **⊤-propagation** — any tuple or set containing ⊤ *is* ⊤
//!   (Def 2.2(iv): "every object containing ⊤ is equal to ⊤");
//! - **⊥-elimination** — ⊥-valued attributes are dropped from tuples
//!   (`[a:1, b:⊥] = [a:1]`, Def 2.2(ii) with the `O.a = ⊥` convention) and
//!   ⊥ elements are dropped from sets (`{1, ⊥} = {1}`, Def 2.2(iii));
//! - **reduction** — a set never contains two distinct elements `o₁ ≤ o₂`
//!   (Definition 3.2'atop reduced objects); the dominated element is removed;
//! - **determinism** — tuple entries are sorted by attribute id and set
//!   elements by the canonical total order [`Object::cmp`], then deduplicated.
//!
//! The constructors [`Object::tuple`], [`Object::try_tuple`] and
//! [`Object::set`] enforce all four properties, and the inner representations
//! are private, so canonicality is an invariant of the type: any `Object` you
//! can get your hands on is reduced. This is what makes Theorem 3.2
//! (anti-symmetry of `≤`) — and hence the lattice structure — hold for every
//! representable value.

use crate::order::le;
use crate::store::{self, Meta, NodeId, SetNode, TupleNode};
use crate::{Atom, Attr, ObjectError};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A complex object (paper Definition 2.1).
///
/// ```
/// use co_object::{obj, Object};
///
/// // A nested relation (paper Example 2.1):
/// let nested = obj!({
///     [name: peter, children: {max, susan}],
///     [name: john,  children: {mary, john, frank}],
///     [name: mary,  children: {}]
/// });
/// assert!(matches!(nested, Object::Set(_)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Object {
    /// ⊥ — the undefined object (`BOTTOM`).
    Bottom,
    /// An atomic object.
    Atom(Atom),
    /// A tuple object `[a1: O1, …, an: On]`.
    Tuple(Tuple),
    /// A set object `{O1, …, On}`.
    Set(Set),
    /// ⊤ — the inconsistent object (`TOP`).
    Top,
}

/// The interior of a tuple object: attribute/value entries sorted by
/// attribute id, with no ⊥ or ⊤ values (canonical form).
///
/// Interiors are **hash-consed** (see [`crate::store`]): content-equal
/// tuples share one allocation carrying a stable [`NodeId`], a cached hash,
/// and precomputed [`Meta`]. Cloning is an [`Arc`] bump; equality is a
/// pointer comparison; tuple objects are immutable.
#[derive(Clone)]
pub struct Tuple(Arc<TupleNode>);

/// The interior of a set object: canonically ordered, deduplicated, reduced
/// elements with no ⊥ or ⊤ members.
///
/// Interiors are **hash-consed** (see [`crate::store`]): content-equal sets
/// share one allocation carrying a stable [`NodeId`], a cached hash, and
/// precomputed [`Meta`]. Cloning is an [`Arc`] bump; equality is a pointer
/// comparison; set objects are immutable.
#[derive(Clone)]
pub struct Set(Arc<SetNode>);

// ---------------------------------------------------------------------------
// Tuple
// ---------------------------------------------------------------------------

impl Tuple {
    /// The number of (non-⊥) attributes.
    pub fn len(&self) -> usize {
        self.0.entries.len()
    }

    /// True when the tuple is `[]`.
    pub fn is_empty(&self) -> bool {
        self.0.entries.is_empty()
    }

    /// Iterates entries in canonical (attribute-id) order.
    pub fn iter(&self) -> std::slice::Iter<'_, (Attr, Object)> {
        self.0.entries.iter()
    }

    /// Entries as a slice, sorted by attribute id.
    pub fn entries(&self) -> &[(Attr, Object)] {
        &self.0.entries
    }

    /// The value at attribute `a`. Returns [`Object::Bottom`] when absent:
    /// the paper's convention `O.a = ⊥` for attributes not in the tuple.
    pub fn get(&self, a: Attr) -> &Object {
        static BOTTOM: Object = Object::Bottom;
        match self.0.entries.binary_search_by_key(&a, |(k, _)| *k) {
            Ok(i) => &self.0.entries[i].1,
            Err(_) => &BOTTOM,
        }
    }

    /// True when attribute `a` is present (with a non-⊥ value).
    pub fn contains(&self, a: Attr) -> bool {
        self.0.entries.binary_search_by_key(&a, |(k, _)| *k).is_ok()
    }

    /// The attributes of this tuple, in canonical order.
    pub fn attrs(&self) -> impl Iterator<Item = Attr> + '_ {
        self.0.entries.iter().map(|(a, _)| *a)
    }

    /// The stable id of this tuple's interned node.
    pub fn node_id(&self) -> NodeId {
        self.0.id
    }

    /// Precomputed structural metadata of this tuple.
    pub fn meta(&self) -> &Meta {
        &self.0.meta
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Self) -> bool {
        // Hash-consing makes canonical equality coincide with allocation
        // identity: O(1).
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Tuple {}

impl std::hash::Hash for Tuple {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // The content hash is cached at interning time: O(1).
        state.write_u64(self.0.hash);
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a (Attr, Object);
    type IntoIter = std::slice::Iter<'a, (Attr, Object)>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.entries.iter()
    }
}

// ---------------------------------------------------------------------------
// Set
// ---------------------------------------------------------------------------

impl Set {
    /// The number of elements.
    pub fn len(&self) -> usize {
        self.0.elements.len()
    }

    /// True when the set is `{}`.
    pub fn is_empty(&self) -> bool {
        self.0.elements.is_empty()
    }

    /// Iterates elements in canonical order.
    pub fn iter(&self) -> std::slice::Iter<'_, Object> {
        self.0.elements.iter()
    }

    /// Elements as a slice, in canonical order.
    pub fn elements(&self) -> &[Object] {
        &self.0.elements
    }

    /// Membership test (by canonical equality), via binary search.
    pub fn contains(&self, o: &Object) -> bool {
        self.0.elements.binary_search_by(|e| e.cmp(o)).is_ok()
    }

    /// The stable id of this set's interned node.
    pub fn node_id(&self) -> NodeId {
        self.0.id
    }

    /// Precomputed structural metadata of this set.
    pub fn meta(&self) -> &Meta {
        &self.0.meta
    }
}

impl PartialEq for Set {
    fn eq(&self, other: &Self) -> bool {
        // Hash-consing makes canonical equality coincide with allocation
        // identity: O(1).
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for Set {}

impl std::hash::Hash for Set {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // The content hash is cached at interning time: O(1).
        state.write_u64(self.0.hash);
    }
}

impl<'a> IntoIterator for &'a Set {
    type Item = &'a Object;
    type IntoIter = std::slice::Iter<'a, Object>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.elements.iter()
    }
}

// ---------------------------------------------------------------------------
// Constructors
// ---------------------------------------------------------------------------

impl Object {
    /// Builds an atomic object.
    pub fn atom(a: impl Into<Atom>) -> Object {
        Object::Atom(a.into())
    }

    /// Builds an integer atom object.
    pub fn int(v: i64) -> Object {
        Object::Atom(Atom::Int(v))
    }

    /// Builds a float atom object.
    pub fn float(v: f64) -> Object {
        Object::Atom(Atom::float(v))
    }

    /// Builds a string atom object.
    pub fn str(s: impl AsRef<str>) -> Object {
        Object::Atom(Atom::str(s))
    }

    /// Builds a boolean atom object.
    pub fn bool(v: bool) -> Object {
        Object::Atom(Atom::Bool(v))
    }

    /// The empty tuple `[]`. Note that `[] ≠ ⊥` (and `⊥ < []`): the empty
    /// tuple carries the information "this is a tuple".
    pub fn empty_tuple() -> Object {
        Object::Tuple(Tuple(store::intern_tuple(Vec::new())))
    }

    /// The empty set `{}`. Note that `{} ≠ ⊥` (and `⊥ < {}`).
    pub fn empty_set() -> Object {
        Object::Set(Set(store::intern_set(Vec::new())))
    }

    /// Builds a tuple object, normalizing to canonical form
    /// (⊤-propagation, ⊥-elimination, attribute sorting).
    ///
    /// Duplicate attributes with *equal* values collapse to one entry;
    /// duplicates with conflicting values are an error (the paper requires
    /// attribute names in a tuple to be distinct).
    pub fn try_tuple<I, A>(entries: I) -> Result<Object, ObjectError>
    where
        I: IntoIterator<Item = (A, Object)>,
        A: Into<Attr>,
    {
        let mut v: Vec<(Attr, Object)> = Vec::new();
        for (a, o) in entries {
            let a = a.into();
            match o {
                Object::Top => return Ok(Object::Top),
                Object::Bottom => {}
                o => v.push((a, o)),
            }
        }
        v.sort_by_key(|(a, _)| *a);
        let mut i = 1;
        while i < v.len() {
            if v[i - 1].0 == v[i].0 {
                if v[i - 1].1 == v[i].1 {
                    v.remove(i);
                } else {
                    return Err(ObjectError::DuplicateAttribute(v[i].0));
                }
            } else {
                i += 1;
            }
        }
        Ok(Object::Tuple(Tuple(store::intern_tuple(v))))
    }

    /// Builds a tuple object; panics on conflicting duplicate attributes.
    /// Prefer [`Object::try_tuple`] for untrusted input.
    pub fn tuple<I, A>(entries: I) -> Object
    where
        I: IntoIterator<Item = (A, Object)>,
        A: Into<Attr>,
    {
        Object::try_tuple(entries).expect("tuple literal with conflicting duplicate attribute")
    }

    /// Builds a set object, normalizing to canonical form: ⊤-propagation,
    /// ⊥-elimination, reduction (dominated elements removed), canonical
    /// ordering, deduplication.
    ///
    /// ```
    /// use co_object::{obj, Object};
    /// // Reduction: [a1: 3] ≤ [a1: 3, a2: 5], so it disappears (Example 3.2).
    /// let s = obj!({ [a1: 3, a2: 5], [a1: 3] });
    /// assert_eq!(s, obj!({ [a1: 3, a2: 5] }));
    /// ```
    pub fn set<I>(elements: I) -> Object
    where
        I: IntoIterator<Item = Object>,
    {
        let mut v: Vec<Object> = Vec::new();
        for e in elements {
            match e {
                Object::Top => return Object::Top,
                Object::Bottom => {}
                e => v.push(e),
            }
        }
        reduce_elements(&mut v);
        Object::Set(Set(store::intern_set(v)))
    }

    /// Rebuilds a set object from a [`Set`] interior plus extra elements —
    /// used by lattice union to avoid re-normalizing the existing part.
    pub(crate) fn set_from_vec(mut v: Vec<Object>) -> Object {
        v.retain(|e| !matches!(e, Object::Bottom));
        if v.iter().any(|e| matches!(e, Object::Top)) {
            return Object::Top;
        }
        reduce_elements(&mut v);
        Object::Set(Set(store::intern_set(v)))
    }

    /// Builds a set from elements that are **already canonical**: free of
    /// ⊥/⊤, strictly ascending in the canonical order (so sorted and
    /// deduplicated), and reduced (no element a sub-object of another) —
    /// exactly what [`reduce_elements`] would leave unchanged. Two shapes
    /// are canonical by construction: a subsequence of a canonical set's
    /// elements, and the ordered merge of two flat relations over one
    /// schema (same-schema flat tuples are pairwise incomparable). Skips
    /// the sort/dedup/reduce pass; the precondition is checked in debug
    /// builds only.
    pub(crate) fn set_from_canonical(v: Vec<Object>) -> Object {
        debug_assert!(
            {
                let mut reduced = v.clone();
                reduce_elements(&mut reduced);
                reduced == v && !v.iter().any(|e| matches!(e, Object::Bottom | Object::Top))
            },
            "set_from_canonical: elements are not canonical (sorted, distinct, reduced, ⊥/⊤-free)"
        );
        Object::Set(Set(store::intern_set(v)))
    }

    /// Internal: build a tuple from entries already known to be sorted,
    /// distinct, and free of ⊥; still propagates ⊤.
    pub(crate) fn tuple_from_sorted(v: Vec<(Attr, Object)>) -> Object {
        debug_assert!(v.windows(2).all(|w| w[0].0 < w[1].0), "entries not sorted");
        if v.iter().any(|(_, o)| matches!(o, Object::Top)) {
            return Object::Top;
        }
        debug_assert!(!v.iter().any(|(_, o)| matches!(o, Object::Bottom)));
        Object::Tuple(Tuple(store::intern_tuple(v)))
    }

    /// The stable interned-node id, for composite (tuple/set) objects.
    ///
    /// Two objects of the same kind are equal **iff** their node ids are
    /// equal — the id is the O(1) proxy for canonical equality that the
    /// engine's indexes and the store's memo tables key off.
    pub fn node_id(&self) -> Option<NodeId> {
        match self {
            Object::Tuple(t) => Some(t.node_id()),
            Object::Set(s) => Some(s.node_id()),
            _ => None,
        }
    }

    /// Precomputed structural metadata, for composite (tuple/set) objects.
    pub fn meta(&self) -> Option<&Meta> {
        match self {
            Object::Tuple(t) => Some(t.meta()),
            Object::Set(s) => Some(s.meta()),
            _ => None,
        }
    }
}

/// Reduces a vector of (already canonical, non-⊥/⊤) elements in place:
/// sorts canonically, removes duplicates, then removes every element that is
/// a strict sub-object of another element ("the reduced version of a set S is
/// constructed through eliminating from S the elements which are sub-objects
/// of other elements in S", Definition 3.4).
///
/// Domination between distinct elements is only possible when kinds match,
/// and for tuples only when the attribute set of one contains the other's;
/// moreover two distinct *flat* tuples (atomic values) over the same
/// attribute set can never dominate each other. Grouping by attribute
/// fingerprint therefore reduces the ubiquitous uniform-relation case to
/// sort + dedup, with the quadratic pass reserved for genuinely nested or
/// heterogeneous sets (benchmark F6 tracks both). The all-one-group case —
/// a flat relation — is recognized up front without building the groups.
pub(crate) fn reduce_elements(v: &mut Vec<Object>) {
    v.sort();
    v.dedup();
    if v.len() <= 1 || is_flat_relation(v) {
        return;
    }
    remove_dominated(v);
}

/// The grouped domination pass of [`reduce_elements`], over sorted,
/// deduplicated elements.
fn remove_dominated(v: &mut Vec<Object>) {
    let mut set_idx: Vec<usize> = Vec::new();
    // Tuple groups keyed by exact attribute list; the flag records whether
    // every member has only atomic values.
    let mut tuple_groups: rustc_hash::FxHashMap<Vec<Attr>, (Vec<usize>, bool)> =
        rustc_hash::FxHashMap::default();
    for (i, e) in v.iter().enumerate() {
        match e {
            Object::Set(_) => set_idx.push(i),
            Object::Tuple(t) => {
                let key: Vec<Attr> = t.attrs().collect();
                let flat = t.meta().flat;
                let entry = tuple_groups.entry(key).or_insert((Vec::new(), true));
                entry.0.push(i);
                entry.1 &= flat;
            }
            // Distinct atoms are incomparable; ⊥/⊤ cannot appear here.
            _ => {}
        }
    }

    let mut dominated = vec![false; v.len()];

    // Set elements: full pairwise (sets of sets are rare and usually small).
    for &i in &set_idx {
        for &j in &set_idx {
            if i != j && le(&v[i], &v[j]) {
                dominated[i] = true;
                break;
            }
        }
    }

    // Tuple elements: compare group A against group B only when
    // attrs(A) ⊆ attrs(B) (a necessary condition for domination), and skip
    // the same-group pass entirely when every member is flat (after dedup,
    // same-attrs flat tuples are pairwise incomparable).
    type TupleGroup<'g> = (&'g Vec<Attr>, &'g (Vec<usize>, bool));
    let groups: Vec<TupleGroup<'_>> = tuple_groups.iter().collect();
    for (ka, (ia, flat_a)) in &groups {
        for (kb, (ib, _)) in &groups {
            let same = ka == kb;
            if same && *flat_a {
                continue;
            }
            if !same && !is_attr_subset(ka, kb) {
                continue;
            }
            if same {
                // Within one attribute set, domination between distinct
                // tuples additionally requires the *atomic* attribute
                // values to agree exactly (an atom is only ≤ an equal
                // atom). Partition by that fingerprint: uniform-schema
                // relations with nested values (the common case) split
                // into tiny buckets, avoiding the quadratic pass.
                let mut buckets: rustc_hash::FxHashMap<Vec<(Attr, Atom)>, Vec<usize>> =
                    rustc_hash::FxHashMap::default();
                for &i in ia.iter() {
                    let t = v[i].as_tuple().expect("tuple group");
                    let fp: Vec<(Attr, Atom)> = t
                        .entries()
                        .iter()
                        .filter_map(|(a, o)| o.as_atom().map(|atom| (*a, atom.clone())))
                        .collect();
                    buckets.entry(fp).or_default().push(i);
                }
                for bucket in buckets.values() {
                    if bucket.len() <= 1 {
                        continue;
                    }
                    for &i in bucket {
                        if dominated[i] {
                            continue;
                        }
                        for &j in bucket {
                            if i != j && le(&v[i], &v[j]) {
                                dominated[i] = true;
                                break;
                            }
                        }
                    }
                }
            } else {
                for &i in ia.iter() {
                    if dominated[i] {
                        continue;
                    }
                    for &j in ib.iter() {
                        if i != j && le(&v[i], &v[j]) {
                            dominated[i] = true;
                            break;
                        }
                    }
                }
            }
        }
    }

    if dominated.iter().any(|d| *d) {
        let mut k = 0;
        v.retain(|_| {
            let d = dominated[k];
            k += 1;
            !d
        });
    }
}

/// True when every element is a flat tuple over the first element's
/// attribute list (allocation-free: canonical tuples keep entries in one
/// global attribute order, so equal schemas align positionally). Distinct
/// such tuples are pairwise incomparable, so a sorted, deduplicated run
/// of them is already reduced.
pub(crate) fn is_flat_relation(v: &[Object]) -> bool {
    let Some(Object::Tuple(first)) = v.first() else {
        return false;
    };
    v.iter().all(|e| match e {
        Object::Tuple(t) => t.meta().flat && t.len() == first.len() && t.attrs().eq(first.attrs()),
        _ => false,
    })
}

/// True when `a`'s attributes are a subset of `b`'s (both sorted by id).
fn is_attr_subset(a: &[Attr], b: &[Attr]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = b.iter();
    'outer: for x in a {
        for y in bi.by_ref() {
            match y.cmp(x) {
                Ordering::Less => continue,
                Ordering::Equal => continue 'outer,
                Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

impl Object {
    /// True for ⊥.
    pub fn is_bottom(&self) -> bool {
        matches!(self, Object::Bottom)
    }

    /// True for ⊤.
    pub fn is_top(&self) -> bool {
        matches!(self, Object::Top)
    }

    /// True for atomic objects.
    pub fn is_atom(&self) -> bool {
        matches!(self, Object::Atom(_))
    }

    /// True for tuple objects.
    pub fn is_tuple(&self) -> bool {
        matches!(self, Object::Tuple(_))
    }

    /// True for set objects.
    pub fn is_set(&self) -> bool {
        matches!(self, Object::Set(_))
    }

    /// The atom, if this is an atomic object.
    pub fn as_atom(&self) -> Option<&Atom> {
        match self {
            Object::Atom(a) => Some(a),
            _ => None,
        }
    }

    /// The tuple interior, if this is a tuple object.
    pub fn as_tuple(&self) -> Option<&Tuple> {
        match self {
            Object::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// The set interior, if this is a set object.
    pub fn as_set(&self) -> Option<&Set> {
        match self {
            Object::Set(s) => Some(s),
            _ => None,
        }
    }

    /// `O.a` — the value of attribute `a`, with the paper's convention that
    /// missing attributes read as ⊥. Non-tuples also read as ⊥ (there is
    /// nothing at `O.a`), except ⊤ whose every projection is ⊤.
    pub fn dot(&self, a: impl Into<Attr>) -> &Object {
        static BOTTOM: Object = Object::Bottom;
        match self {
            Object::Tuple(t) => t.get(a.into()),
            Object::Top => self,
            _ => &BOTTOM,
        }
    }

    /// A short name for the object's kind, used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Object::Bottom => "bottom",
            Object::Atom(_) => "atom",
            Object::Tuple(_) => "tuple",
            Object::Set(_) => "set",
            Object::Top => "top",
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical total order
// ---------------------------------------------------------------------------

/// The canonical **total** order on objects. This is *not* the sub-object
/// order `≤` (which is partial; see [`crate::order::le`]); it exists so set
/// elements have one deterministic arrangement, making structural equality,
/// hashing, and diffing well-defined.
///
/// Kinds order as `⊥ < atoms < tuples < sets < ⊤`; atoms by [`Atom`]'s
/// order; tuples and sets lexicographically.
impl Ord for Object {
    fn cmp(&self, other: &Self) -> Ordering {
        fn rank(o: &Object) -> u8 {
            match o {
                Object::Bottom => 0,
                Object::Atom(_) => 1,
                Object::Tuple(_) => 2,
                Object::Set(_) => 3,
                Object::Top => 4,
            }
        }
        match (self, other) {
            (Object::Atom(a), Object::Atom(b)) => a.cmp(b),
            (Object::Tuple(a), Object::Tuple(b)) => {
                // Interning: equal values are always the same node, so the
                // pointer check fully decides equality; unequal values walk
                // lexicographically (with O(1) subtree-equality along the
                // way).
                if Arc::ptr_eq(&a.0, &b.0) {
                    return Ordering::Equal;
                }
                a.iter()
                    .map(|(k, v)| (k, v))
                    .cmp(b.iter().map(|(k, v)| (k, v)))
            }
            (Object::Set(a), Object::Set(b)) => {
                if Arc::ptr_eq(&a.0, &b.0) {
                    return Ordering::Equal;
                }
                a.iter().cmp(b.iter())
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl PartialOrd for Object {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// ---------------------------------------------------------------------------
// Conversions
// ---------------------------------------------------------------------------

impl From<Atom> for Object {
    fn from(a: Atom) -> Self {
        Object::Atom(a)
    }
}

impl From<i64> for Object {
    fn from(v: i64) -> Self {
        Object::int(v)
    }
}

impl From<i32> for Object {
    fn from(v: i32) -> Self {
        Object::int(v as i64)
    }
}

impl From<f64> for Object {
    fn from(v: f64) -> Self {
        Object::float(v)
    }
}

impl From<bool> for Object {
    fn from(v: bool) -> Self {
        Object::bool(v)
    }
}

impl From<&str> for Object {
    fn from(v: &str) -> Self {
        Object::str(v)
    }
}

impl From<String> for Object {
    fn from(v: String) -> Self {
        Object::Atom(Atom::from(v))
    }
}

impl fmt::Debug for Object {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Debug mirrors Display (the paper notation) — far more readable in
        // test failures than a derived tree dump.
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    #[test]
    fn example_2_2_equality_identities() {
        // [a:1, b:2] = [b:2, a:1]
        assert_eq!(
            Object::tuple([(Attr::new("a"), obj!(1)), (Attr::new("b"), obj!(2))]),
            Object::tuple([(Attr::new("b"), obj!(2)), (Attr::new("a"), obj!(1))])
        );
        // [a:1, b:2] = [a:1, b:2, c:⊥]
        assert_eq!(
            obj!([a: 1, b: 2]),
            Object::tuple([
                (Attr::new("a"), obj!(1)),
                (Attr::new("b"), obj!(2)),
                (Attr::new("c"), Object::Bottom),
            ])
        );
        // {1,2,3} = {2,3,1}
        assert_eq!(obj!({1, 2, 3}), obj!({2, 3, 1}));
        // {1, ⊥} = {1}
        assert_eq!(Object::set([obj!(1), Object::Bottom]), obj!({ 1 }));
        // [a: {⊤}, b: 2] = ⊤
        assert_eq!(
            Object::tuple([
                (Attr::new("a"), Object::set([Object::Top])),
                (Attr::new("b"), obj!(2)),
            ]),
            Object::Top
        );
    }

    #[test]
    fn tuple_set_and_bare_value_are_distinct() {
        // "[a: x], {x}, and x are not equal" (paper, after Example 2.2).
        let x = obj!(7);
        assert_ne!(obj!([a: 7]), x);
        assert_ne!(obj!({ 7 }), x);
        assert_ne!(obj!([a: 7]), obj!({ 7 }));
    }

    #[test]
    fn empty_tuple_and_empty_set_are_distinct_and_not_bottom() {
        assert_ne!(Object::empty_tuple(), Object::empty_set());
        assert_ne!(Object::empty_tuple(), Object::Bottom);
        assert_ne!(Object::empty_set(), Object::Bottom);
    }

    #[test]
    fn set_reduction_removes_dominated_elements() {
        // Example 3.2: {[a1:3, a2:5], [a1:3]} reduces to {[a1:3, a2:5]}.
        let s = obj!({ [a1: 3, a2: 5], [a1: 3] });
        assert_eq!(s, obj!({ [a1: 3, a2: 5] }));
        let set = s.as_set().unwrap();
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn set_reduction_keeps_incomparable_elements() {
        let s = obj!({ [a: 1], [b: 2], [a: 2] });
        assert_eq!(s.as_set().unwrap().len(), 3);
    }

    mod reduce_early_exit {
        use super::*;
        use proptest::prelude::*;

        const ATTRS: [&str; 3] = ["p", "q", "r"];

        fn small_int() -> impl Strategy<Value = Object> {
            (0i64..4).prop_map(Object::int)
        }

        /// A flat tuple over exactly `attrs`.
        fn flat_tuple(attrs: Vec<&'static str>) -> impl Strategy<Value = Object> {
            proptest::collection::vec(small_int(), attrs.len()..attrs.len() + 1)
                .prop_map(move |vals| Object::tuple(attrs.iter().copied().zip(vals)))
        }

        /// Anything a set may hold: atoms, flat tuples over any subset of
        /// the attribute pool (so some dominate others), tuples with a
        /// nested set value, and sets of atoms.
        fn element() -> impl Strategy<Value = Object> {
            prop_oneof![
                small_int(),
                flat_tuple(ATTRS.to_vec()),
                proptest::sample::subsequence(ATTRS.to_vec(), 0..=3).prop_flat_map(flat_tuple),
                (small_int(), proptest::collection::vec(small_int(), 0..3))
                    .prop_map(|(p, qs)| { Object::tuple([("p", p), ("q", Object::set(qs))]) }),
                proptest::collection::vec(small_int(), 0..3).prop_map(Object::set),
            ]
        }

        /// What `reduce_elements` did before the flat-relation early exit.
        fn reduce_without_early_exit(v: &mut Vec<Object>) {
            v.sort();
            v.dedup();
            if v.len() > 1 {
                remove_dominated(v);
            }
        }

        fn assert_same_reduction(v: Vec<Object>) {
            let (mut fast, mut full) = (v.clone(), v);
            reduce_elements(&mut fast);
            reduce_without_early_exit(&mut full);
            assert_eq!(fast, full);
        }

        proptest! {
            #[test]
            fn agrees_on_uniform_flat_inputs(
                v in proptest::collection::vec(flat_tuple(ATTRS.to_vec()), 0..40),
            ) {
                prop_assert!(v.is_empty() || is_flat_relation(&v));
                assert_same_reduction(v);
            }

            #[test]
            fn agrees_on_mixed_schema_nested_and_tuple_plus_set_inputs(
                v in proptest::collection::vec(element(), 0..24),
            ) {
                assert_same_reduction(v);
            }
        }

        #[test]
        fn only_flat_relations_take_the_exit() {
            // One attribute list, atomic values only: the exit.
            assert!(is_flat_relation(&[obj!([p: 1, q: 2]), obj!([p: 1, q: 3])]));
            assert!(is_flat_relation(&[Object::empty_tuple()]));
            // Everything the grouped pass exists for: not the exit.
            assert!(!is_flat_relation(&[]));
            assert!(!is_flat_relation(&[obj!([p: 1]), obj!([p: 1, q: 3])]));
            assert!(!is_flat_relation(&[obj!([p: 1]), obj!([q: 1])]));
            assert!(!is_flat_relation(&[
                obj!([p: 1, q: {1}]),
                obj!([p: 1, q: {1, 2}])
            ]));
            assert!(!is_flat_relation(&[obj!([p: 1]), obj!({ 1 })]));
            assert!(!is_flat_relation(&[obj!(1), obj!(2)]));
            // A dominated row next to flat ones is still removed.
            let mut v = vec![obj!([p: 1, q: 2]), obj!([p: 1]), obj!([p: 2, q: 2])];
            reduce_elements(&mut v);
            assert_eq!(v, vec![obj!([p: 1, q: 2]), obj!([p: 2, q: 2])]);
        }
    }

    #[test]
    fn nested_reduction_applies_at_every_level() {
        let s = obj!([r: { {1}, {1, 2} }]);
        assert_eq!(s, obj!([r: { {1, 2} }]));
    }

    #[test]
    fn duplicate_attr_equal_values_collapse() {
        let t = Object::try_tuple([(Attr::new("a"), obj!(1)), (Attr::new("a"), obj!(1))]);
        assert_eq!(t.unwrap(), obj!([a: 1]));
    }

    #[test]
    fn duplicate_attr_conflicting_values_error() {
        let t = Object::try_tuple([(Attr::new("a"), obj!(1)), (Attr::new("a"), obj!(2))]);
        assert_eq!(t, Err(ObjectError::DuplicateAttribute(Attr::new("a"))));
    }

    #[test]
    fn top_propagates_through_tuples_and_sets() {
        assert!(Object::tuple([(Attr::new("a"), Object::Top)]).is_top());
        assert!(Object::set([obj!(1), Object::Top]).is_top());
        assert!(Object::set([Object::set([Object::Top])]).is_top());
    }

    #[test]
    fn bottom_vanishes_from_sets_and_tuples() {
        assert_eq!(Object::set([Object::Bottom]), Object::empty_set());
        assert_eq!(
            Object::tuple([(Attr::new("a"), Object::Bottom)]),
            Object::empty_tuple()
        );
    }

    #[test]
    fn dot_reads_missing_attributes_as_bottom() {
        let t = obj!([name: peter, age: 25]);
        assert_eq!(t.dot("age"), &obj!(25));
        assert!(t.dot("address").is_bottom());
        assert!(obj!(5).dot("a").is_bottom());
        assert!(Object::Top.dot("a").is_top());
    }

    #[test]
    fn set_contains_uses_canonical_order() {
        let s = obj!({3, 1, 2});
        let set = s.as_set().unwrap();
        assert!(set.contains(&obj!(2)));
        assert!(!set.contains(&obj!(4)));
    }

    #[test]
    fn canonical_order_is_total_and_consistent_with_eq() {
        let objects = [
            Object::Bottom,
            obj!(1),
            obj!(foo),
            obj!([a: 1]),
            obj!({1, 2}),
            Object::Top,
        ];
        for a in &objects {
            for b in &objects {
                let c1 = a.cmp(b);
                let c2 = b.cmp(a);
                assert_eq!(c1, c2.reverse());
                assert_eq!(c1 == Ordering::Equal, a == b);
            }
        }
    }

    #[test]
    fn paper_example_2_1_all_forms_construct() {
        // Atomic objects
        let _ = obj!(john);
        let _ = obj!(25);
        // Set of atoms
        let _ = obj!({john, mary, susan});
        // Relational tuple
        let _ = obj!([name: peter, age: 25]);
        // Hierarchical tuples
        let _ = obj!([name: [first: john, last: doe], age: 25]);
        let _ = obj!([name: [first: john, last: doe], children: {john, mary, susan}]);
        // A relation
        let _ = obj!({[name: peter, age: 25], [name: john, age: 7], [name: mary, age: 13]});
        // A relation with null values
        let _ = obj!({[name: peter], [name: john, age: 7], [name: mary, address: austin]});
        // A nested relation
        let _ = obj!({
            [name: peter, children: {max, susan}],
            [name: john, children: {mary, john, frank}],
            [name: mary, children: {}]
        });
        // A relational database
        let _ = obj!([
            r1: {[name: peter, age: 25], [name: john, age: 7]},
            r2: {[name: john, address: austin], [name: mary, address: paris]}
        ]);
    }
}
