//! The `Database`: a catalog, a value dictionary, and one [`Relation`] per
//! schema entry. This is the in-memory substrate playing the role VoltDB
//! plays in the paper's implementation.
//!
//! Loading is just inserting: every attribute of every relation is indexed
//! the first time something reads it ([`Relation::index`]), so a loaded
//! database needs no separate indexing step.

use crate::dict::{Const, Dictionary};
use crate::relation::{Relation, Tuple, TupleId};
use crate::schema::{AttrRef, Catalog, RelId, RelationSchema};

/// An in-memory relational database instance.
#[derive(Debug, Default, Clone)]
pub struct Database {
    catalog: Catalog,
    dict: Dictionary,
    relations: Vec<Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new relation and returns its id.
    pub fn add_relation(&mut self, name: &str, attrs: &[&str]) -> RelId {
        let id = self.catalog.add(RelationSchema::new(name, attrs));
        self.relations.push(Relation::new(attrs.len()));
        id
    }

    /// The catalog of relation schemas.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The value dictionary.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// Interns a constant string.
    pub fn intern(&mut self, s: &str) -> Const {
        self.dict.intern(s)
    }

    /// Looks up a constant without interning.
    pub fn lookup(&self, s: &str) -> Option<Const> {
        self.dict.lookup(s)
    }

    /// The display name of constant `c`.
    pub fn const_name(&self, c: Const) -> &str {
        self.dict.name(c)
    }

    /// The relation with id `rel`.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.index()]
    }

    /// Mutable access to the relation with id `rel`.
    pub fn relation_mut(&mut self, rel: RelId) -> &mut Relation {
        &mut self.relations[rel.index()]
    }

    /// Looks up a relation id by name.
    pub fn rel_id(&self, name: &str) -> Option<RelId> {
        self.catalog.rel_id(name)
    }

    /// Inserts a tuple of pre-interned constants.
    pub fn insert_consts(&mut self, rel: RelId, tuple: &[Const]) -> TupleId {
        let t: Tuple = tuple.into();
        self.relations[rel.index()].insert(t)
    }

    /// Interns `values` and inserts the resulting tuple into `rel`.
    ///
    /// # Panics
    /// Panics if the arity does not match the relation schema.
    pub fn insert(&mut self, rel: RelId, values: &[&str]) -> TupleId {
        let t: Tuple = values.iter().map(|v| self.dict.intern(v)).collect();
        self.relations[rel.index()].insert(t)
    }

    /// Convenience: inserts into a relation looked up by name.
    ///
    /// # Panics
    /// Panics if no relation called `name` exists.
    pub fn insert_named(&mut self, name: &str, values: &[&str]) -> TupleId {
        let rel = self
            .rel_id(name)
            .unwrap_or_else(|| panic!("unknown relation: {name}"));
        self.insert(rel, values)
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Distinct values of one attribute.
    pub fn distinct(&self, attr: AttrRef) -> Vec<Const> {
        self.relation(attr.rel).distinct(attr.pos as usize)
    }

    /// Renders a tuple of `rel` with constant names, e.g. `publication(p1, juan)`.
    pub fn render_tuple(&self, rel: RelId, tuple: &[Const]) -> String {
        let name = &self.catalog.schema(rel).name;
        let vals: Vec<&str> = tuple.iter().map(|&c| self.const_name(c)).collect();
        format!("{}({})", name, vals.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::uw_fragment;

    #[test]
    fn build_uw_fragment() {
        let db = uw_fragment();
        assert_eq!(db.catalog().len(), 5);
        assert_eq!(db.total_tuples(), 12);
        let publ = db.rel_id("publication").unwrap();
        assert_eq!(db.relation(publ).len(), 4);
    }

    #[test]
    fn interning_shares_constants_across_relations() {
        let db = uw_fragment();
        let juan = db.lookup("juan").unwrap();
        let student = db.rel_id("student").unwrap();
        let publ = db.rel_id("publication").unwrap();
        assert_eq!(db.relation(student).index(0).freq(juan), 1);
        assert_eq!(db.relation(publ).index(1).freq(juan), 1);
    }

    #[test]
    fn render_tuple_uses_names() {
        let db = uw_fragment();
        let publ = db.rel_id("publication").unwrap();
        let t = db.relation(publ).tuple(0).to_vec();
        assert_eq!(db.render_tuple(publ, &t), "publication(p1, juan)");
    }

    #[test]
    fn distinct_per_attribute() {
        let db = uw_fragment();
        let phase = db.rel_id("inPhase").unwrap();
        assert_eq!(db.distinct(AttrRef::new(phase, 1)).len(), 1);
        assert_eq!(db.distinct(AttrRef::new(phase, 0)).len(), 2);
    }
}
