//! Vectorized relational operators over columnar arenas — the fast path
//! the flat fragment takes around per-row interning.
//!
//! The plain [`algebra`](crate::algebra) path costs `decode → operate →
//! encode`: every input row is re-materialized as a `Vec<Atom>` and every
//! output row walks the interner. The operators here read the dense
//! columns of a [`ColumnarRel`] (built lazily and memoized per `NodeId`
//! by `co_object::columnar`) and only touch the store once, at the
//! boundary: results re-enter through the canonicalizing constructors
//! ([`rows_to_object`](co_object::columnar::rows_to_object) /
//! [`gather`](co_object::columnar::gather) /
//! [`merge_union`](co_object::columnar::merge_union)), so the produced
//! objects are **bit-identical** — same `NodeId`s — to what the interned
//! path builds. The differential proptests in
//! `tests/columnar_differential.rs` pin that equivalence down operator by
//! operator.
//!
//! Each kernel does work proportional to its smaller input where the
//! algebra allows it, and hands the boundary what it already knows: a
//! selection gathers ascending positions (canonical as it stands), the
//! join hashes the smaller side and gathers instead of re-interning when
//! one schema contains the other, a union is an ordered merge of two
//! canonical element lists. Only projection and the general join build
//! new rows, and those go through the set constructor's sort + dedup.
//!
//! Dispatch goes through a dense kernel table indexed by [`ColOp`] —
//! one function pointer per operator, no matching in the hot path.
//!
//! Sets that are not flat uniform relations (nested values, mixed
//! schemas, empty — an empty set has no schema to infer) are a
//! [`RelationalError::NotFlat`]; below the arena row threshold the
//! columns are built ad hoc without being cached, so the operators are
//! total over flat relations regardless of `columnar_min_rows()`.

use crate::{RelSchema, RelationalError};
use co_object::columnar::{self as col, ColumnarRel};
use co_object::{Atom, Attr, Object, Set};
use rustc_hash::{FxHashMap, FxHasher};
use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The vectorized operators, doubling as indices into the kernel table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColOp {
    /// σ_{attr = value} — equality selection.
    SelectEq = 0,
    /// π — projection (set semantics).
    Project = 1,
    /// ⋈ — natural join (product when schemas are disjoint).
    NaturalJoin = 2,
    /// ∪ — union of same-schema relations.
    Union = 3,
}

/// Uniform argument record every kernel receives; unused fields are
/// `None`/empty for the operators that don't take them.
struct KernelArgs<'k> {
    left: (&'k Set, &'k ColumnarRel),
    right: Option<(&'k Set, &'k ColumnarRel)>,
    attr: Option<Attr>,
    value: Option<&'k Atom>,
    attrs: &'k [Attr],
}

type Kernel = for<'k> fn(&KernelArgs<'k>) -> Result<Object, RelationalError>;

/// The dense operator table: `KERNELS[op as usize]` is the vectorized
/// implementation of `op`. Indexed, never matched.
static KERNELS: [Kernel; 4] = [k_select_eq, k_project, k_natural_join, k_union];

fn dispatch(op: ColOp, args: &KernelArgs<'_>) -> Result<Object, RelationalError> {
    KERNELS[op as usize](args)
}

/// The columnar image of `set`: the memoized arena when the set crosses
/// the row threshold, an uncached ad-hoc build below it.
fn arena(set: &Set) -> Result<Arc<ColumnarRel>, RelationalError> {
    if let Some(a) = col::arena_for(set) {
        return Ok(a);
    }
    col::build(set).map(Arc::new).ok_or_else(|| {
        RelationalError::NotFlat(format!(
            "set of {} elements is not a flat uniform relation",
            set.len()
        ))
    })
}

/// Renders a columnar schema the way [`RelSchema`] renders, so errors
/// read the same on both paths.
fn render_schema(attrs: &[Attr]) -> String {
    let mut s = String::from("(");
    for (i, a) in attrs.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&a.to_string());
    }
    s.push(')');
    s
}

/// Sorted-merge union of two ascending attribute lists.
fn merge_schemas(l: &[Attr], r: &[Attr]) -> Vec<Attr> {
    let mut out = Vec::with_capacity(l.len() + r.len());
    let (mut i, mut j) = (0, 0);
    while i < l.len() && j < r.len() {
        match l[i].cmp(&r[j]) {
            std::cmp::Ordering::Less => {
                out.push(l[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(r[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(l[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&l[i..]);
    out.extend_from_slice(&r[j..]);
    out
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

fn k_select_eq(args: &KernelArgs<'_>) -> Result<Object, RelationalError> {
    let (set, cols) = args.left;
    let attr = args.attr.expect("select kernel takes an attribute");
    let value = args.value.expect("select kernel takes a value");
    let c = cols
        .column_of(attr)
        .ok_or_else(|| RelationalError::UnknownAttribute {
            attr,
            schema: render_schema(cols.schema()),
        })?;
    let column = cols.column(c);
    // One dense scan; matching rows turn back into the set's own interned
    // elements (an Arc bump each, no re-interning).
    let hits = (0..cols.rows()).filter(|&r| &column[r] == value);
    Ok(col::gather(set, hits))
}

fn k_project(args: &KernelArgs<'_>) -> Result<Object, RelationalError> {
    let (_, cols) = args.left;
    // Duplicate attributes are the same error the algebra path raises.
    RelSchema::new(args.attrs.iter().copied())?;
    let mut picked: Vec<(Attr, usize)> = args
        .attrs
        .iter()
        .map(|&a| {
            cols.column_of(a)
                .map(|c| (a, c))
                .ok_or_else(|| RelationalError::UnknownAttribute {
                    attr: a,
                    schema: render_schema(cols.schema()),
                })
        })
        .collect::<Result<_, _>>()?;
    // Canonical output order; projection is order-insensitive under set
    // semantics.
    picked.sort_by_key(|(a, _)| *a);
    let schema: Vec<Attr> = picked.iter().map(|(a, _)| *a).collect();
    let cell = |r: usize, c: usize| &cols.column(c)[r];
    // Pre-dedup by row hash, allocation-free: a row whose hash was seen
    // is dropped when it equals the first row with that hash. (A true
    // collision is kept — harmless, the set constructor dedups for real.)
    // Projections that collapse thousands of rows into a few classes then
    // intern only the classes.
    let mut first_with_hash: FxHashMap<u64, usize> = FxHashMap::default();
    let distinct = (0..cols.rows()).filter(|&r| {
        let mut h = FxHasher::default();
        for &(_, c) in &picked {
            cell(r, c).hash(&mut h);
        }
        match first_with_hash.entry(h.finish()) {
            Entry::Vacant(e) => {
                e.insert(r);
                true
            }
            Entry::Occupied(e) => picked.iter().any(|&(_, c)| cell(r, c) != cell(*e.get(), c)),
        }
    });
    let picked = &picked;
    Ok(col::rows_to_object(
        &schema,
        distinct.map(|r| picked.iter().map(move |&(_, c)| cell(r, c).clone())),
    ))
}

fn k_natural_join(args: &KernelArgs<'_>) -> Result<Object, RelationalError> {
    let left = args.left;
    let right = args.right.expect("join kernel takes a right relation");
    // Hash the smaller relation, stream the larger one through it: the
    // table (and its build cost) is sized by the smaller input whichever
    // argument it arrives as. The result is a set, so which side builds
    // changes nothing but the work.
    let ((build_set, build), (probe_set, probe)) = if left.1.rows() <= right.1.rows() {
        (left, right)
    } else {
        (right, left)
    };
    // Per common attribute, the (build column, probe column) pair.
    let on: Vec<(&[Atom], &[Atom])> = build
        .schema()
        .iter()
        .enumerate()
        .filter_map(|(i, a)| {
            probe
                .column_of(*a)
                .map(|j| (build.column(i), probe.column(j)))
        })
        .collect();

    // Matching (build row, probe row) pairs.
    let pairs = if on.is_empty() {
        // Disjoint schemas: cartesian product.
        (0..build.rows())
            .flat_map(|b| (0..probe.rows()).map(move |p| (b, p)))
            .collect()
    } else {
        hash_join(&on, build.rows(), probe.rows())
    };
    // A side whose schema contains the other's joins as a semijoin: every
    // result row *is* one of that side's rows, so the matches are gathered
    // from its interned elements by reference (ascending positions when it
    // is the probe side — each probe row matches at most one build row).
    if on.len() == build.arity() {
        return Ok(col::gather(probe_set, pairs.iter().map(|&(_, p)| p)));
    }
    if on.len() == probe.arity() {
        return Ok(col::gather(build_set, pairs.iter().map(|&(b, _)| b)));
    }

    let schema = merge_schemas(build.schema(), probe.schema());
    // Each output attribute reads from the build arena when present there
    // (join rows agree on common attributes), else from the probe arena.
    let plan: Vec<(bool, &[Atom])> = schema
        .iter()
        .map(|&a| match build.column_of(a) {
            Some(c) => (true, build.column(c)),
            None => {
                let c = probe.column_of(a).expect("attr from one side");
                (false, probe.column(c))
            }
        })
        .collect();
    // Rows of a natural join are distinct by construction (each carries
    // every attribute of both of its distinct source rows), so they go to
    // the boundary lazily, one atom iterator per pair, with no dedup pass
    // and no materialized row vectors.
    let plan = &plan;
    Ok(col::rows_to_object(
        &schema,
        pairs.iter().map(|&(b, p)| {
            plan.iter()
                .map(move |&(from_build, column)| column[if from_build { b } else { p }].clone())
        }),
    ))
}

/// Equi-join row matching over `on` = per key attribute the (build,
/// probe) column pair: hashes the `build_rows` build side once, streams
/// the `probe_rows` probe side through it, and returns the matching
/// (build row, probe row) pairs. Keys borrow from the columns — `&Atom`
/// for a one-column key, `Vec<&Atom>` otherwise — so no atom is cloned
/// per row.
fn hash_join(
    on: &[(&[Atom], &[Atom])],
    build_rows: usize,
    probe_rows: usize,
) -> Vec<(usize, usize)> {
    if let [(build, probe)] = on {
        probe_table(build_rows, |b| &build[b], probe_rows, |p| &probe[p])
    } else {
        probe_table(
            build_rows,
            |b| on.iter().map(|(build, _)| &build[b]).collect::<Vec<_>>(),
            probe_rows,
            |p| on.iter().map(|(_, probe)| &probe[p]).collect::<Vec<_>>(),
        )
    }
}

/// The hash table behind [`hash_join`], generic over the borrowed key.
/// Build rows sharing a key are chained through `next` (one flat vector,
/// no per-key allocation): `heads[key]` is the last such row, `next[row]`
/// the one before it.
fn probe_table<K: Hash + Eq>(
    build_rows: usize,
    build_key: impl Fn(usize) -> K,
    probe_rows: usize,
    probe_key: impl Fn(usize) -> K,
) -> Vec<(usize, usize)> {
    const END: usize = usize::MAX;
    let mut heads: FxHashMap<K, usize> = FxHashMap::default();
    heads.reserve(build_rows);
    let mut next = vec![END; build_rows];
    for (b, link) in next.iter_mut().enumerate() {
        if let Some(prev) = heads.insert(build_key(b), b) {
            *link = prev;
        }
    }
    let mut pairs = Vec::new();
    for p in 0..probe_rows {
        let mut b = heads.get(&probe_key(p)).copied().unwrap_or(END);
        while b != END {
            pairs.push((b, p));
            b = next[b];
        }
    }
    pairs
}

fn k_union(args: &KernelArgs<'_>) -> Result<Object, RelationalError> {
    let (ls, lc) = args.left;
    let (rs, rc) = args.right.expect("union kernel takes a right relation");
    // Both schemas are in canonical order, so compatibility is slice
    // equality.
    if lc.schema() != rc.schema() {
        return Err(RelationalError::SchemaMismatch {
            operation: "union",
            left: render_schema(lc.schema()),
            right: render_schema(rc.schema()),
        });
    }
    // Same-schema flat rows need no column work at all: the union is the
    // ordered merge of the two canonical element lists, already canonical
    // when it comes out.
    Ok(col::merge_union(ls, rs))
}

// ---------------------------------------------------------------------------
// Public operators
// ---------------------------------------------------------------------------

/// σ_{attr = value} over a flat relation's columns. Returns the same
/// canonical object (same `NodeId`) as `decode → select_eq → encode`.
pub fn select_eq(set: &Set, attr: Attr, value: &Atom) -> Result<Object, RelationalError> {
    let cols = arena(set)?;
    dispatch(
        ColOp::SelectEq,
        &KernelArgs {
            left: (set, &cols),
            right: None,
            attr: Some(attr),
            value: Some(value),
            attrs: &[],
        },
    )
}

/// π over a flat relation's columns (set semantics; `attrs` order is
/// irrelevant to the canonical result). Bit-identical to the interned
/// path.
pub fn project(set: &Set, attrs: &[Attr]) -> Result<Object, RelationalError> {
    let cols = arena(set)?;
    dispatch(
        ColOp::Project,
        &KernelArgs {
            left: (set, &cols),
            right: None,
            attr: None,
            value: None,
            attrs,
        },
    )
}

/// ⋈ over two flat relations' columns: equi-join on all common
/// attributes, cartesian product when the schemas are disjoint.
/// Bit-identical to the interned path.
pub fn natural_join(l: &Set, r: &Set) -> Result<Object, RelationalError> {
    let lc = arena(l)?;
    let rc = arena(r)?;
    dispatch(
        ColOp::NaturalJoin,
        &KernelArgs {
            left: (l, &lc),
            right: Some((r, &rc)),
            attr: None,
            value: None,
            attrs: &[],
        },
    )
}

/// ∪ of two same-schema flat relations. Bit-identical to the interned
/// path.
pub fn union(l: &Set, r: &Set) -> Result<Object, RelationalError> {
    let lc = arena(l)?;
    let rc = arena(r)?;
    dispatch(
        ColOp::Union,
        &KernelArgs {
            left: (l, &lc),
            right: Some((r, &rc)),
            attr: None,
            value: None,
            attrs: &[],
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algebra, decode_relation, encode_relation, relation::int_relation};

    /// The interned reference path: decode, run `f` on the relation(s),
    /// re-encode.
    fn via_algebra(
        o: &Object,
        f: impl Fn(&crate::Relation) -> Result<crate::Relation, RelationalError>,
    ) -> Result<Object, RelationalError> {
        Ok(encode_relation(&f(&decode_relation(o)?)?))
    }

    fn rel(n: i64, classes: i64) -> Object {
        encode_relation(&int_relation(
            ["k", "v"],
            (0..n).map(|i| [i, i % classes]).collect::<Vec<_>>(),
        ))
    }

    #[test]
    fn select_matches_interned_path() {
        let o = rel(200, 7);
        let set = o.as_set().unwrap();
        let fast = select_eq(set, Attr::new("v"), &Atom::Int(3)).unwrap();
        let slow =
            via_algebra(&o, |r| algebra::select_eq(r, Attr::new("v"), &Atom::Int(3))).unwrap();
        assert_eq!(fast.node_id(), slow.node_id());
        // Unknown attribute errors like the schema lookup does.
        assert!(matches!(
            select_eq(set, Attr::new("zz"), &Atom::Int(0)),
            Err(RelationalError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn project_matches_interned_path_any_attr_order() {
        let o = rel(150, 5);
        let set = o.as_set().unwrap();
        for attrs in [
            vec![Attr::new("v")],
            vec![Attr::new("k"), Attr::new("v")],
            vec![Attr::new("v"), Attr::new("k")],
        ] {
            let fast = project(set, &attrs).unwrap();
            let slow = via_algebra(&o, |r| algebra::project(r, &attrs)).unwrap();
            assert_eq!(fast.node_id(), slow.node_id());
        }
        assert!(project(set, &[Attr::new("k"), Attr::new("k")]).is_err());
        assert!(project(set, &[Attr::new("nope")]).is_err());
    }

    #[test]
    fn join_matches_interned_path() {
        // r1(a, b) ⋈ r2(b, c) on the shared b.
        let r1 = encode_relation(&int_relation(
            ["a", "b"],
            (0..80).map(|i| [i, i % 11]).collect::<Vec<_>>(),
        ));
        let r2 = encode_relation(&int_relation(
            ["b", "c"],
            (0..60).map(|i| [i % 11, i * 10]).collect::<Vec<_>>(),
        ));
        let fast = natural_join(r1.as_set().unwrap(), r2.as_set().unwrap()).unwrap();
        let slow = encode_relation(
            &algebra::natural_join(
                &decode_relation(&r1).unwrap(),
                &decode_relation(&r2).unwrap(),
            )
            .unwrap(),
        );
        assert_eq!(fast.node_id(), slow.node_id());
    }

    #[test]
    fn disjoint_join_is_a_product() {
        let r1 = encode_relation(&int_relation(
            ["a"],
            (0..12).map(|i| [i]).collect::<Vec<_>>(),
        ));
        let r2 = encode_relation(&int_relation(
            ["z"],
            (0..9).map(|i| [i]).collect::<Vec<_>>(),
        ));
        let fast = natural_join(r1.as_set().unwrap(), r2.as_set().unwrap()).unwrap();
        let slow = encode_relation(
            &algebra::natural_join(
                &decode_relation(&r1).unwrap(),
                &decode_relation(&r2).unwrap(),
            )
            .unwrap(),
        );
        assert_eq!(fast.node_id(), slow.node_id());
        assert_eq!(fast.as_set().unwrap().len(), 12 * 9);
    }

    #[test]
    fn union_matches_interned_path() {
        let l = rel(100, 9);
        let r = encode_relation(&int_relation(
            ["k", "v"],
            (50..150).map(|i| [i, i % 9]).collect::<Vec<_>>(),
        ));
        let fast = union(l.as_set().unwrap(), r.as_set().unwrap()).unwrap();
        let slow = via_algebra(&l, |lr| algebra::union(lr, &decode_relation(&r).unwrap())).unwrap();
        assert_eq!(fast.node_id(), slow.node_id());
        // Mismatched schemas fail like the algebra path.
        let bad = encode_relation(&int_relation(
            ["x"],
            (0..40).map(|i| [i]).collect::<Vec<_>>(),
        ));
        assert!(matches!(
            union(l.as_set().unwrap(), bad.as_set().unwrap()),
            Err(RelationalError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn non_flat_sets_are_rejected() {
        let nested = co_object::obj!({[a: 1, b: {2}], [a: 2, b: {3}]});
        let set = nested.as_set().unwrap();
        assert!(matches!(
            select_eq(set, Attr::new("a"), &Atom::Int(1)),
            Err(RelationalError::NotFlat(_))
        ));
        let empty = Object::empty_set();
        assert!(matches!(
            project(empty.as_set().unwrap(), &[Attr::new("a")]),
            Err(RelationalError::NotFlat(_))
        ));
    }
}
