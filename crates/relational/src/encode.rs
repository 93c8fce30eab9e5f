//! Encoding flat relations as complex objects and back.
//!
//! The paper observes that "a relational database is an object":
//!
//! ```text
//! [R1: {[name: peter, age: 25], …}, R2: {…}]
//! ```
//!
//! `encode_*` produce exactly that shape; `decode_*` invert it, rejecting
//! objects outside the flat fragment (nested values, missing attributes —
//! i.e. nulls — or non-tuple elements). Decoding is the bridge used by the
//! differential tests: run a query through the calculus, decode the result,
//! and compare with the flat algebra's answer.

use crate::relation::Row;
use crate::{Database, RelSchema, Relation, RelationalError};
use co_object::{columnar, Attr, Object, Set};

/// Encodes one relation as a set object of flat tuples.
///
/// Construction goes through the normalizing constructors and therefore the
/// hash-consed store: encoding the same relation twice (or two relations
/// sharing rows) yields the *same* interned nodes — equality against
/// calculus results is a pointer check, and repeated encodings allocate
/// nothing new.
pub fn encode_relation(r: &Relation) -> Object {
    // Tuples list entries by attribute id, schemas in their own order:
    // fix the column permutation once instead of sorting every row.
    let attrs = r.schema().attrs();
    let mut order: Vec<usize> = (0..attrs.len()).collect();
    order.sort_by_key(|&c| attrs[c]);
    let canonical: Vec<Attr> = order.iter().map(|&c| attrs[c]).collect();
    let order = &order;
    columnar::rows_to_object(
        &canonical,
        r.rows()
            .map(|row| order.iter().map(move |&c| row[c].clone())),
    )
}

/// Encodes a database as a tuple of set objects: `[r1: {…}, r2: {…}]`.
pub fn encode_database(db: &Database) -> Object {
    Object::tuple(
        db.iter()
            .map(|(name, rel)| (Attr::new(name), encode_relation(rel))),
    )
}

/// Decodes a set object of flat tuples into a relation.
///
/// Every element must be a tuple over the same attribute set with atomic
/// values; the schema is taken from the union of attributes, and a missing
/// attribute (a null) is a [`RelationalError::NotFlat`].
pub fn decode_relation(o: &Object) -> Result<Relation, RelationalError> {
    let set = o
        .as_set()
        .ok_or_else(|| RelationalError::NotFlat(format!("expected a set, got {o}")))?;
    match decode_uniform(set) {
        Some(rel) => Ok(rel),
        // Empty, or irregular somewhere: the general pass names the error.
        None => decode_general(set),
    }
}

/// The one-pass decode of a uniform flat relation: the first element
/// fixes the schema, every element is read positionally against it
/// (canonical tuples keep one global attribute order, so equal schemas
/// align entry by entry), and the rows are handed to the relation in one
/// bulk build. `None` at the first irregularity — a non-tuple, another
/// attribute list, a nested value — and for the empty set. Reads tuple
/// entries directly: no columnar arena is built or memoized for a set
/// that is only being decoded.
fn decode_uniform(set: &Set) -> Option<Relation> {
    let first = set.elements().first()?.as_tuple()?;
    let attrs: Vec<Attr> = first.attrs().collect();
    // Column `i` of the relation is entry `order[i]` of each tuple:
    // schemas list attributes by name, tuples by attribute id.
    let mut order: Vec<usize> = (0..attrs.len()).collect();
    order.sort_by_cached_key(|&c| attrs[c].name());
    let schema = RelSchema::new(order.iter().map(|&c| attrs[c])).ok()?;
    let mut rows: Vec<Row> = Vec::with_capacity(set.len());
    for e in set.iter() {
        let entries = e.as_tuple()?.entries();
        if entries.len() != attrs.len() {
            return None;
        }
        let mut row = Row::with_capacity(order.len());
        for &c in &order {
            match &entries[c] {
                (a, Object::Atom(atom)) if *a == attrs[c] => row.push(atom.clone()),
                _ => return None,
            }
        }
        rows.push(row);
    }
    Relation::new(schema, rows).ok()
}

/// The general decode: schema from the union of attributes over all
/// elements, then one row per element — which is where a non-tuple, a
/// nested value or a missing attribute gets its error.
fn decode_general(set: &Set) -> Result<Relation, RelationalError> {
    // Collect the schema as the union of attributes over all elements.
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
    // Keep a deterministic column order (one name lookup per attribute,
    // not one per comparison).
    attrs.sort_by_cached_key(|a| a.name());
    let schema = RelSchema::new(attrs.iter().copied())?;
    let mut rel = Relation::empty(schema);
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

/// Decodes a tuple-of-sets object into a database.
pub fn decode_database(o: &Object) -> Result<Database, RelationalError> {
    let t = o
        .as_tuple()
        .ok_or_else(|| RelationalError::NotFlat(format!("expected a tuple, got {o}")))?;
    let mut db = Database::new();
    for (a, v) in t.entries() {
        db.insert(a.name().to_string(), decode_relation(v)?);
    }
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::int_relation;
    use co_object::obj;

    #[test]
    fn relation_round_trips() {
        let r = int_relation(["a", "b"], [[1, 10], [2, 20]]);
        let o = encode_relation(&r);
        assert_eq!(o, obj!({[a: 1, b: 10], [a: 2, b: 20]}));
        let back = decode_relation(&o).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn database_round_trips() {
        let mut db = Database::new();
        db.insert("r1", int_relation(["a"], [[1], [2]]));
        db.insert("r2", int_relation(["b", "c"], [[3, 4]]));
        let o = encode_database(&db);
        assert_eq!(o, obj!([r1: {[a: 1], [a: 2]}, r2: {[b: 3, c: 4]}]));
        assert_eq!(decode_database(&o).unwrap(), db);
    }

    #[test]
    fn repeated_encodings_reuse_interned_nodes() {
        let r = int_relation(["a", "b"], [[1, 10], [2, 20], [3, 30]]);
        let o1 = encode_relation(&r);
        let o2 = encode_relation(&r);
        // Same canonical value ⇒ same interned node, not merely equal trees.
        assert_eq!(o1.node_id(), o2.node_id());
        assert!(o1.node_id().is_some());
    }

    #[test]
    fn empty_relation_encodes_to_empty_set() {
        let r = Relation::empty(RelSchema::new(["a"]).unwrap());
        assert_eq!(encode_relation(&r), Object::empty_set());
        // Decoding an empty set gives an empty, zero-attribute relation.
        let back = decode_relation(&Object::empty_set()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn nulls_are_rejected() {
        // A relation with a missing attribute (paper: "relation with null
        // values") is representable as a complex object but not flat.
        let o = obj!({[name: peter], [name: john, age: 7]});
        let e = decode_relation(&o).unwrap_err();
        assert!(matches!(e, RelationalError::NotFlat(_)));
    }

    #[test]
    fn nested_values_are_rejected() {
        let o = obj!({[name: peter, children: {max}]});
        assert!(decode_relation(&o).is_err());
        let o2 = obj!({
            {
                1
            }
        });
        assert!(decode_relation(&o2).is_err());
        assert!(decode_relation(&obj!(5)).is_err());
        assert!(decode_database(&obj!({ 1 })).is_err());
    }
}
