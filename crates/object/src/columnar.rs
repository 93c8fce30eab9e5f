//! Columnar arenas for flat relations — the dense second representation
//! behind the store's hash-consed nodes.
//!
//! Hash-consing is pessimal exactly where the classical relational model
//! is at home: a *flat relation* (a set whose elements are all tuples of
//! atoms over one attribute list) shares nothing, so per-row interning
//! buys no deduplication while every scan chases a pointer per row. This
//! module gives such sets a **second, columnar representation**: a
//! [`ColumnarRel`] holds one dense `Vec<Atom>` per attribute, row `r` of
//! column `c` being the value of attribute `schema[c]` in element `r` of
//! the canonical set — **row order is element order**, so positions
//! returned by columnar scans index straight into
//! [`Set::elements`](crate::Set::elements).
//!
//! Arenas are built lazily ([`arena_for`]) once a set's cardinality
//! crosses [`columnar_min_rows`] (default 64, see
//! [`set_columnar_min_rows`]) and are memoized per [`NodeId`] — sound
//! because interned nodes are immutable and ids are never recycled, so an
//! id names one set value forever. Negative answers (the set is not a flat uniform relation)
//! are memoized too, so repeated probes of ineligible sets stay O(1).
//! [`collect`](crate::store::collect) purges entries keyed by freed ids.
//!
//! **Canonical at the boundary.** The arena is a read-only cache; every
//! result produced from columns re-enters the store through the
//! canonicalizing constructors ([`rows_to_object`], [`gather`],
//! [`merge_union`]), so
//! `NodeId`s — and therefore fixpoints, traces, and snapshots — are
//! bit-identical to the plain interned path. Vectorized operators live
//! in `co-relational`; the engine's set indexes build from columns when
//! an arena exists; `co-wire` packs eligible sets as columnar records.
//!
//! ```
//! use co_object::{columnar, Attr, Object};
//!
//! let rel = Object::set((0..100).map(|i| {
//!     Object::tuple([("k", Object::int(i)), ("v", Object::int(i % 7))])
//! }));
//! let set = rel.as_set().unwrap();
//! let arena = columnar::arena_for(set).expect("flat, uniform, large enough");
//! assert_eq!(arena.rows(), 100);
//! assert_eq!(arena.schema().len(), 2);
//! // Scanning a column yields element positions into the canonical set.
//! let v = arena.column_of(Attr::new("v")).unwrap();
//! let hits: Vec<usize> = (0..arena.rows())
//!     .filter(|&r| arena.column(v)[r] == co_object::Atom::Int(3))
//!     .collect();
//! // Gathering those elements re-enters the store canonically.
//! let selected = columnar::gather(set, hits.iter().copied());
//! assert!(selected.as_set().unwrap().len() > 0);
//! ```

use crate::store::NodeId;
use crate::{Atom, Attr, Object, Set};
use parking_lot::RwLock;
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Default row-count threshold for lazy arena construction: below it the
/// bookkeeping costs more than dense scans save.
pub const DEFAULT_COLUMNAR_MIN_ROWS: usize = 64;

/// The current row-count threshold for [`arena_for`] (default
/// [`DEFAULT_COLUMNAR_MIN_ROWS`]; see [`set_columnar_min_rows`]).
pub fn columnar_min_rows() -> usize {
    MIN_ROWS.load(Ordering::Relaxed)
}

/// Adjusts the [`arena_for`] row-count threshold at runtime (tests and
/// embedders). A threshold of 0 or 1 builds an arena for every eligible
/// non-empty set.
pub fn set_columnar_min_rows(rows: usize) {
    MIN_ROWS.store(rows, Ordering::Relaxed);
}

static MIN_ROWS: AtomicUsize = AtomicUsize::new(DEFAULT_COLUMNAR_MIN_ROWS);

/// The dense columnar image of one flat relation: per-attribute column
/// vectors plus the shared schema header.
///
/// `schema` is the canonical tuple entry order (ascending [`Attr`]
/// order) every row shares; `columns[c][r]` is the value of
/// `schema[c]` in element `r` of the source set. Immutable once built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnarRel {
    schema: Box<[Attr]>,
    columns: Box<[Box<[Atom]>]>,
    rows: usize,
}

impl ColumnarRel {
    /// Number of rows (= elements of the source set).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.schema.len()
    }

    /// The shared attribute list, in canonical (ascending) order.
    pub fn schema(&self) -> &[Attr] {
        &self.schema
    }

    /// Column `c` as a dense atom slice (length [`Self::rows`]).
    pub fn column(&self, c: usize) -> &[Atom] {
        &self.columns[c]
    }

    /// Position of attribute `a` in the schema, if present.
    pub fn column_of(&self, a: Attr) -> Option<usize> {
        self.schema.iter().position(|x| *x == a)
    }

    /// The atoms of row `r`, one per schema attribute, in schema order.
    pub fn row(&self, r: usize) -> impl Iterator<Item = &Atom> + '_ {
        self.columns.iter().map(move |col| &col[r])
    }
}

/// Builds the columnar image of `set` **unconditionally** (no threshold,
/// no cache): `Some` iff the set is a flat uniform relation — every
/// element a tuple over one attribute list with atomic values only.
/// Empty sets are not relations (they have no schema) and return `None`.
pub fn build(set: &Set) -> Option<ColumnarRel> {
    let elements = set.elements();
    let first = elements.first()?.as_tuple()?;
    if !first.meta().flat {
        return None;
    }
    let schema: Box<[Attr]> = first.attrs().collect();
    let arity = schema.len();
    let rows = elements.len();
    let mut columns: Vec<Vec<Atom>> = (0..arity).map(|_| Vec::with_capacity(rows)).collect();
    for e in elements {
        let t = e.as_tuple()?;
        let entries = t.entries();
        if entries.len() != arity {
            return None;
        }
        for (c, (a, v)) in entries.iter().enumerate() {
            // Canonical tuples keep entries in one global attribute
            // order, so uniform schemas align positionally.
            if *a != schema[c] {
                return None;
            }
            match v {
                Object::Atom(atom) => columns[c].push(atom.clone()),
                _ => return None,
            }
        }
    }
    Some(ColumnarRel {
        schema,
        columns: columns.into_iter().map(Vec::into_boxed_slice).collect(),
        rows,
    })
}

// ---------------------------------------------------------------------------
// The NodeId-keyed arena cache
// ---------------------------------------------------------------------------

/// `NodeId → Some(arena)` for flat uniform sets, `None` for sets probed
/// and found ineligible (negative caching keeps repeated probes O(1)).
type ArenaCache = FxHashMap<NodeId, Option<Arc<ColumnarRel>>>;

fn cache() -> &'static RwLock<ArenaCache> {
    static CACHE: OnceLock<RwLock<ArenaCache>> = OnceLock::new();
    CACHE.get_or_init(|| RwLock::new(FxHashMap::default()))
}

static BUILDS: AtomicU64 = AtomicU64::new(0);
static HITS: AtomicU64 = AtomicU64::new(0);
static REJECTS: AtomicU64 = AtomicU64::new(0);
static ROWS_BUILT: AtomicU64 = AtomicU64::new(0);
static PURGED: AtomicU64 = AtomicU64::new(0);

/// Returns (building and memoizing on first ask) the columnar arena for
/// `set`: `Some` iff the set is a flat uniform relation with at least
/// [`columnar_min_rows`] rows. Probes of ineligible or below-threshold
/// sets are cheap; negative shape answers are memoized per [`NodeId`].
pub fn arena_for(set: &Set) -> Option<Arc<ColumnarRel>> {
    if set.len() < columnar_min_rows().max(1) {
        return None;
    }
    // Cheap structural pre-filter: a flat relation is exactly depth 3
    // (set → tuple → atom), so anything shallower (atom sets) or deeper
    // (nested values) is rejected without touching the cache.
    if set.meta().depth != 3 {
        return None;
    }
    let id = set.node_id();
    if let Some(cached) = cache().read().get(&id) {
        match cached {
            Some(arena) => {
                HITS.fetch_add(1, Ordering::Relaxed);
                return Some(Arc::clone(arena));
            }
            None => return None,
        }
    }
    let built = build(set).map(Arc::new);
    match &built {
        Some(arena) => {
            BUILDS.fetch_add(1, Ordering::Relaxed);
            ROWS_BUILT.fetch_add(arena.rows() as u64, Ordering::Relaxed);
        }
        None => {
            REJECTS.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Losing a build race is harmless: both arenas are equal images of
    // one immutable node; last write wins.
    cache().write().insert(id, built.clone());
    built
}

/// Drops cache entries keyed by freed node ids (called by
/// `store::collect` with every sweep's freed set; freed ids never
/// recur, so these entries are pure garbage). Returns how many were
/// dropped.
pub(crate) fn purge_freed(freed: &FxHashSet<NodeId>) -> u64 {
    let mut cache = cache().write();
    let before = cache.len();
    cache.retain(|id, _| !freed.contains(id));
    let dropped = (before - cache.len()) as u64;
    PURGED.fetch_add(dropped, Ordering::Relaxed);
    dropped
}

/// Empties the arena cache (tests, embedders resetting between phases).
/// Counters are unaffected.
pub fn clear_cache() {
    cache().write().clear();
}

/// Counters of the columnar arena layer. Cumulative since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnarStats {
    /// Arenas built (one per distinct eligible set value).
    pub built: u64,
    /// [`arena_for`] calls answered from the cache.
    pub hits: u64,
    /// Sets probed and found ineligible (shape, not threshold).
    pub rejected: u64,
    /// Total rows across all arenas built.
    pub rows_built: u64,
    /// Cache entries dropped by GC purges.
    pub purged: u64,
    /// Entries currently cached (positive + negative).
    pub entries: usize,
}

/// A point-in-time snapshot of the columnar layer's counters.
pub fn stats() -> ColumnarStats {
    ColumnarStats {
        built: BUILDS.load(Ordering::Relaxed),
        hits: HITS.load(Ordering::Relaxed),
        rejected: REJECTS.load(Ordering::Relaxed),
        rows_built: ROWS_BUILT.load(Ordering::Relaxed),
        purged: PURGED.load(Ordering::Relaxed),
        entries: cache().read().len(),
    }
}

// ---------------------------------------------------------------------------
// Canonical re-entry
// ---------------------------------------------------------------------------

/// Builds the canonical set object for `rows` over `schema` — the
/// boundary through which every columnar result re-enters the store.
///
/// `schema` must be in canonical (strictly ascending) attribute order —
/// the order [`ColumnarRel::schema`] and any subsequence or sorted merge
/// of such schemas already have — and each row must align with it
/// positionally. Rows are deduplicated by the set constructor (flat
/// tuples over one schema are pairwise incomparable, so reduction is
/// sort + dedup).
pub fn rows_to_object<I, R>(schema: &[Attr], rows: I) -> Object
where
    I: IntoIterator<Item = R>,
    R: IntoIterator<Item = Atom>,
{
    debug_assert!(
        schema.windows(2).all(|w| w[0] < w[1]),
        "columnar schema not in canonical attribute order"
    );
    let elements: Vec<Object> = rows
        .into_iter()
        .map(|row| {
            let entries: Vec<(Attr, Object)> = schema
                .iter()
                .copied()
                .zip(row.into_iter().map(Object::Atom))
                .collect();
            debug_assert_eq!(entries.len(), schema.len(), "row/schema arity mismatch");
            Object::tuple_from_sorted(entries)
        })
        .collect();
    Object::set_from_vec(elements)
}

/// Builds the canonical set of the elements of `set` at `positions` —
/// the selection boundary: row positions found by a columnar scan turn
/// back into interned elements by reference (an `Arc` bump per row, no
/// re-interning). Strictly ascending positions (what a scan yields) name
/// a subsequence of a canonical set, which is canonical as it stands and
/// skips the sort/dedup/reduce pass; any other order goes through it.
pub fn gather(set: &Set, positions: impl IntoIterator<Item = usize>) -> Object {
    let elements = set.elements();
    let mut ascending = true;
    let mut last = None;
    let picked: Vec<Object> = positions
        .into_iter()
        .map(|i| {
            ascending &= last < Some(i);
            last = Some(i);
            elements[i].clone()
        })
        .collect();
    if ascending {
        Object::set_from_canonical(picked)
    } else {
        Object::set_from_vec(picked)
    }
}

/// The union of two sets as an ordered merge of their canonical element
/// lists — the boundary for same-schema `∪`. The merge walks the shorter
/// list and gallops through the longer, so it costs comparisons
/// proportional to the shorter side (plus an `Arc` bump per output row).
/// When the merged run is a flat relation it is canonical by
/// construction (distinct flat tuples over one schema never dominate one
/// another) and is interned as it stands; any other pair of sets takes
/// the general reduction, so the result is the canonical union either way.
pub fn merge_union(l: &Set, r: &Set) -> Object {
    let (short, mut long) = if l.len() <= r.len() {
        (l.elements(), r.elements())
    } else {
        (r.elements(), l.elements())
    };
    let mut merged: Vec<Object> = Vec::with_capacity(short.len() + long.len());
    for x in short {
        let below = gallop(long, x);
        merged.extend_from_slice(&long[..below]);
        long = &long[below..];
        if long.first() == Some(x) {
            long = &long[1..];
        }
        merged.push(x.clone());
    }
    merged.extend_from_slice(long);
    if crate::value::is_flat_relation(&merged) {
        Object::set_from_canonical(merged)
    } else {
        Object::set_from_vec(merged)
    }
}

/// How many leading elements of the ascending `run` are `< x`:
/// exponential search for the bracket, binary search inside it —
/// O(log answer) comparisons.
fn gallop(run: &[Object], x: &Object) -> usize {
    let mut hi = 1;
    while hi <= run.len() && run[hi - 1] < *x {
        hi *= 2;
    }
    // Everything before `hi / 2` compared `< x`; `run[hi - 1]`, when it
    // exists, did not.
    let lo = hi / 2;
    lo + run[lo..(hi - 1).min(run.len())].partition_point(|e| e < x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{obj, store};
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-wide row threshold (or
    /// depend on counters it gates): the test harness runs tests of one
    /// binary concurrently.
    static KNOB_LOCK: Mutex<()> = Mutex::new(());

    fn rel(n: i64, classes: i64) -> Object {
        Object::set((0..n).map(|i| {
            Object::tuple([
                (Attr::new("k"), Object::int(i)),
                (Attr::new("v"), Object::int(i % classes)),
            ])
        }))
    }

    #[test]
    fn build_images_a_flat_relation_in_element_order() {
        let o = rel(10, 3);
        let set = o.as_set().unwrap();
        let col = build(set).unwrap();
        assert_eq!(col.rows(), 10);
        assert_eq!(col.arity(), 2);
        let k = col.column_of(Attr::new("k")).unwrap();
        let v = col.column_of(Attr::new("v")).unwrap();
        for (r, e) in set.elements().iter().enumerate() {
            let t = e.as_tuple().unwrap();
            assert_eq!(
                t.get(Attr::new("k")),
                &Object::Atom(col.column(k)[r].clone())
            );
            assert_eq!(
                t.get(Attr::new("v")),
                &Object::Atom(col.column(v)[r].clone())
            );
        }
        assert!(col.column_of(Attr::new("absent")).is_none());
        assert_eq!(col.row(0).count(), 2);
    }

    #[test]
    fn ineligible_shapes_are_rejected() {
        // Atoms, nested values, heterogeneous schemas, empty set.
        assert!(build(obj!({1, 2, 3}).as_set().unwrap()).is_none());
        assert!(build(obj!({[a: 1, b: {2}]}).as_set().unwrap()).is_none());
        assert!(build(obj!({[a: 1], [a: 2, b: 3]}).as_set().unwrap()).is_none());
        assert!(build(obj!({[a: 1], [b: 2]}).as_set().unwrap()).is_none());
        assert!(build(Object::empty_set().as_set().unwrap()).is_none());
        // Mixed tuple/set elements.
        assert!(build(obj!({[a: 1], {2}}).as_set().unwrap()).is_none());
    }

    #[test]
    fn arena_for_thresholds_and_memoizes() {
        let _guard = KNOB_LOCK.lock().unwrap();
        let saved = columnar_min_rows();
        set_columnar_min_rows(8);
        let small = rel(4, 2);
        assert!(arena_for(small.as_set().unwrap()).is_none());

        let big = rel(32, 5);
        let before = stats();
        let a1 = arena_for(big.as_set().unwrap()).unwrap();
        let a2 = arena_for(big.as_set().unwrap()).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "second ask must hit the cache");
        let after = stats();
        assert!(after.built > before.built);
        assert!(after.hits > before.hits);
        set_columnar_min_rows(saved);
    }

    #[test]
    fn negative_answers_are_memoized() {
        let _guard = KNOB_LOCK.lock().unwrap();
        let saved = columnar_min_rows();
        set_columnar_min_rows(2);
        // The depth pre-filter rejects nested shapes before the cache, so
        // use a same-depth ineligible shape: uniform attrs are required
        // and this set's rows disagree on schema.
        let o = Object::set((0..8).map(|i| {
            if i % 2 == 0 {
                Object::tuple([(Attr::new("a"), Object::int(i))])
            } else {
                Object::tuple([(Attr::new("b"), Object::int(i))])
            }
        }));
        let id = o.as_set().unwrap().node_id();
        assert!(arena_for(o.as_set().unwrap()).is_none());
        assert!(
            matches!(cache().read().get(&id), Some(None)),
            "ineligible shape must be negatively cached"
        );
        assert!(arena_for(o.as_set().unwrap()).is_none());
        set_columnar_min_rows(saved);
    }

    #[test]
    fn rows_to_object_is_canonical_at_the_boundary() {
        let o = rel(80, 7);
        let set = o.as_set().unwrap();
        let col = build(set).unwrap();
        // Rebuild the whole relation from its columns: same canonical
        // node, bit-identical.
        let rebuilt = rows_to_object(
            col.schema(),
            (0..col.rows()).map(|r| col.row(r).cloned().collect::<Vec<_>>()),
        );
        assert_eq!(rebuilt.node_id(), o.node_id());
        // Duplicate rows collapse through the canonical constructors.
        let dup = rows_to_object(
            col.schema(),
            (0..col.rows())
                .chain(0..col.rows())
                .map(|r| col.row(r).cloned().collect::<Vec<_>>()),
        );
        assert_eq!(dup.node_id(), o.node_id());
    }

    #[test]
    fn gather_matches_interned_selection() {
        let o = rel(50, 5);
        let set = o.as_set().unwrap();
        let col = build(set).unwrap();
        let v = col.column_of(Attr::new("v")).unwrap();
        let hits: Vec<usize> = (0..col.rows())
            .filter(|&r| col.column(v)[r] == Atom::Int(2))
            .collect();
        let columnar = gather(set, hits.iter().copied());
        let interned = Object::set(
            set.elements()
                .iter()
                .filter(|e| e.dot("v") == &Object::int(2))
                .cloned(),
        );
        assert_eq!(columnar.node_id(), interned.node_id());
        assert_eq!(columnar, interned);
    }

    #[test]
    fn gather_canonicalizes_any_position_order() {
        let o = rel(30, 4);
        let set = o.as_set().unwrap();
        let pick = |ps: &[usize]| Object::set(ps.iter().map(|&i| set.elements()[i].clone()));
        // Ascending (the by-construction path), descending, shuffled with
        // repeats, empty: all the same canonical nodes `Object::set` builds.
        for ps in [
            &[2usize, 5, 11, 29][..],
            &[29, 11, 5, 2],
            &[7, 3, 7, 19, 3, 0],
            &[4, 4],
            &[],
        ] {
            let got = gather(set, ps.iter().copied());
            assert_eq!(got.node_id(), pick(ps).node_id(), "{ps:?}");
        }
        // Every position, in order, is the set itself.
        assert_eq!(gather(set, 0..set.len()).node_id(), o.node_id());
    }

    #[test]
    fn gallop_counts_the_elements_below() {
        let run: Vec<Object> = (0..40).map(|i| Object::int(2 * i)).collect();
        for len in 0..run.len() {
            for x in -1..=2 * len as i64 + 1 {
                let expected = run[..len].iter().filter(|e| **e < Object::int(x)).count();
                assert_eq!(
                    gallop(&run[..len], &Object::int(x)),
                    expected,
                    "len {len}, x {x}"
                );
            }
        }
    }

    #[test]
    fn merge_union_is_the_canonical_union() {
        let union_of = |l: &Object, r: &Object| {
            let (ls, rs) = (l.as_set().unwrap(), r.as_set().unwrap());
            let expected = Object::set(ls.iter().chain(rs.iter()).cloned());
            assert_eq!(merge_union(ls, rs).node_id(), expected.node_id());
            assert_eq!(merge_union(rs, ls).node_id(), expected.node_id());
            expected
        };
        // Flat relations over one schema: interleaved, overlapping, equal,
        // and against the empty set.
        let evens = Object::set((0..40).map(|i| obj!([k: (2 * i), v: 0])));
        let odds = Object::set((0..25).map(|i| obj!([k: (2 * i + 1), v: 0])));
        let low = Object::set((0..30).map(|i| obj!([k: (i), v: 0])));
        assert_eq!(union_of(&evens, &odds).as_set().unwrap().len(), 65);
        assert_eq!(union_of(&evens, &low).as_set().unwrap().len(), 55);
        assert_eq!(union_of(&low, &low).node_id(), low.node_id());
        assert_eq!(
            union_of(&low, &Object::empty_set()).node_id(),
            low.node_id()
        );
        assert!(union_of(&Object::empty_set(), &Object::empty_set())
            .as_set()
            .unwrap()
            .is_empty());
        // Not one flat relation: the merge must still reduce. A row of one
        // side dominates a row of the other; schemas differ; sets nest.
        let reduced = union_of(&obj!({[a: 1], [a: 2, b: 2]}), &obj!({[a: 1, b: 5], [a: 3]}));
        assert_eq!(reduced, obj!({[a: 1, b: 5], [a: 2, b: 2], [a: 3]}));
        union_of(&obj!({[a: 1], [a: 2]}), &obj!({[b: 1], [b: 2]}));
        union_of(&obj!({{1}, {2, 3}}), &obj!({{1, 2}, 4}));
        union_of(&obj!({1, 2, 3}), &obj!({2, [a: 1]}));
    }

    #[test]
    fn gc_purges_arena_cache_entries() {
        let _guard = KNOB_LOCK.lock().unwrap();
        let saved = columnar_min_rows();
        set_columnar_min_rows(2);
        let id = {
            let o = rel(12, 3);
            let set = o.as_set().unwrap();
            arena_for(set).unwrap();
            set.node_id()
        };
        assert!(cache().read().contains_key(&id));
        // The relation (and its rows) are now garbage; a sweep frees the
        // node and must purge the arena entry with it.
        store::collect();
        assert!(
            !cache().read().contains_key(&id),
            "arena cache entry for a freed set must be purged"
        );
        set_columnar_min_rows(saved);
    }
}
