//! Flat (1NF) relations: schemas, rows, and the relation container.
//!
//! This is the baseline data model the paper generalizes away from (§1):
//! every relation has a fixed flat schema and rows of atoms — no nesting,
//! no nulls. The complex-object encodings live in [`crate::encode`].

use crate::RelationalError;
use co_object::{Atom, Attr};
use std::collections::BTreeSet;
use std::fmt;

/// An ordered flat schema: a list of distinct attributes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelSchema {
    attrs: Vec<Attr>,
}

impl RelSchema {
    /// Builds a schema from attribute names; duplicates are an error.
    pub fn new<I, A>(attrs: I) -> Result<RelSchema, RelationalError>
    where
        I: IntoIterator<Item = A>,
        A: Into<Attr>,
    {
        let attrs: Vec<Attr> = attrs.into_iter().map(Into::into).collect();
        for (i, a) in attrs.iter().enumerate() {
            if attrs[..i].contains(a) {
                return Err(RelationalError::SchemaMismatch {
                    operation: "schema construction (duplicate attribute)",
                    left: format!("{a}"),
                    right: format!("{a}"),
                });
            }
        }
        Ok(RelSchema { attrs })
    }

    /// The attributes, in schema order.
    pub fn attrs(&self) -> &[Attr] {
        &self.attrs
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Position of `a` in the schema.
    pub fn position(&self, a: Attr) -> Result<usize, RelationalError> {
        self.attrs
            .iter()
            .position(|x| *x == a)
            .ok_or_else(|| RelationalError::UnknownAttribute {
                attr: a,
                schema: self.to_string(),
            })
    }

    /// Hands `row` back when it has one atom per attribute.
    fn check_arity(&self, row: Row) -> Result<Row, RelationalError> {
        if row.len() == self.arity() {
            Ok(row)
        } else {
            Err(RelationalError::SchemaMismatch {
                operation: "row insertion (arity)",
                left: self.to_string(),
                right: format!("row of arity {}", row.len()),
            })
        }
    }

    /// True when the schemas contain the same attribute set (order
    /// irrelevant) — the compatibility condition for union/intersection/
    /// difference.
    pub fn same_attrs(&self, other: &RelSchema) -> bool {
        self.arity() == other.arity() && self.attrs.iter().all(|a| other.attrs.contains(a))
    }

    /// Attributes common to both schemas, in `self`'s order.
    pub fn common(&self, other: &RelSchema) -> Vec<Attr> {
        self.attrs
            .iter()
            .copied()
            .filter(|a| other.attrs.contains(a))
            .collect()
    }
}

impl fmt::Display for RelSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A row: atoms aligned with the schema's attribute order.
pub type Row = Vec<Atom>;

/// A flat relation: a schema plus a set of rows.
///
/// Rows live in a `BTreeSet` for set semantics with deterministic
/// iteration order (atoms are totally ordered).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Relation {
    schema: RelSchema,
    rows: BTreeSet<Row>,
}

impl Relation {
    /// An empty relation over the given schema.
    pub fn empty(schema: RelSchema) -> Relation {
        Relation {
            schema,
            rows: BTreeSet::new(),
        }
    }

    /// Builds a relation from rows; every row must match the schema arity.
    /// The rows are collected in bulk (one sort, one tree build — linear
    /// when they arrive in order), not inserted one by one.
    pub fn new<I>(schema: RelSchema, rows: I) -> Result<Relation, RelationalError>
    where
        I: IntoIterator<Item = Row>,
    {
        let rows = rows
            .into_iter()
            .map(|row| schema.check_arity(row))
            .collect::<Result<BTreeSet<Row>, _>>()?;
        Ok(Relation { schema, rows })
    }

    /// The schema.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// The rows, in deterministic order.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row (set semantics).
    pub fn insert(&mut self, row: Row) -> Result<(), RelationalError> {
        self.rows.insert(self.schema.check_arity(row)?);
        Ok(())
    }

    /// Membership test.
    pub fn contains(&self, row: &Row) -> bool {
        self.rows.contains(row)
    }

    /// The value of `attr` in `row` (which must belong to this relation's
    /// schema).
    pub fn value<'r>(&self, row: &'r Row, attr: Attr) -> Result<&'r Atom, RelationalError> {
        Ok(&row[self.schema.position(attr)?])
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in &self.rows {
            write!(f, "  (")?;
            for (i, a) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{a}")?;
            }
            writeln!(f, ")")?;
        }
        Ok(())
    }
}

/// Convenience constructor: a relation over integer columns.
pub fn int_relation<const N: usize>(
    attrs: [&str; N],
    rows: impl IntoIterator<Item = [i64; N]>,
) -> Relation {
    let schema = RelSchema::new(attrs).expect("distinct attribute names");
    let mut r = Relation::empty(schema);
    for row in rows {
        r.insert(row.iter().map(|v| Atom::Int(*v)).collect())
            .expect("arity matches by construction");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_construction_and_lookup() {
        let s = RelSchema::new(["a", "b", "c"]).unwrap();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.position(Attr::new("b")).unwrap(), 1);
        assert!(s.position(Attr::new("z")).is_err());
        assert!(RelSchema::new(["a", "a"]).is_err());
        assert_eq!(s.to_string(), "(a, b, c)");
    }

    #[test]
    fn schema_compatibility() {
        let s1 = RelSchema::new(["a", "b"]).unwrap();
        let s2 = RelSchema::new(["b", "a"]).unwrap();
        let s3 = RelSchema::new(["a", "c"]).unwrap();
        assert!(s1.same_attrs(&s2));
        assert!(!s1.same_attrs(&s3));
        assert_eq!(s1.common(&s3), vec![Attr::new("a")]);
    }

    #[test]
    fn rows_are_a_set() {
        let r = int_relation(["a", "b"], [[1, 2], [1, 2], [3, 4]]);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&vec![Atom::Int(1), Atom::Int(2)]));
        assert!(!r.is_empty());
    }

    #[test]
    fn arity_checked_on_insert() {
        let mut r = Relation::empty(RelSchema::new(["a"]).unwrap());
        assert!(r.insert(vec![Atom::Int(1), Atom::Int(2)]).is_err());
        assert!(r.insert(vec![Atom::Int(1)]).is_ok());
    }

    #[test]
    fn value_lookup() {
        let r = int_relation(["a", "b"], [[7, 8]]);
        let row = r.rows().next().unwrap().clone();
        assert_eq!(r.value(&row, Attr::new("b")).unwrap(), &Atom::Int(8));
        assert!(r.value(&row, Attr::new("z")).is_err());
    }

    #[test]
    fn display_renders_rows() {
        let r = int_relation(["a"], [[1], [2]]);
        let text = r.to_string();
        assert!(text.contains("(a)"));
        assert!(text.contains("(1)") && text.contains("(2)"));
    }
}
