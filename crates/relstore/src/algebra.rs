//! Minimal relational algebra over [`Database`]: selection with an `IN`
//! predicate, projection, and the (right) semi-join the bottom-clause
//! construction algorithm is built from.

use crate::database::Database;
use crate::dict::Const;
use crate::fxhash::FxHashSet;
use crate::relation::TupleId;
use crate::schema::AttrRef;

/// σ_{A ∈ M}(R): ids of tuples of `attr.rel` whose value at `attr.pos` is in `values`.
/// Ascending; the cost is proportional to the result, through the attribute
/// index.
pub fn select_in(db: &Database, attr: AttrRef, values: &FxHashSet<Const>) -> Vec<TupleId> {
    let idx = db.relation(attr.rel).index(attr.pos as usize);
    // Probe the smaller side: the value set or the distinct values.
    let mut out = Vec::new();
    if values.len() <= idx.distinct_count() {
        for &v in values {
            out.extend_from_slice(idx.lookup(v));
        }
    } else {
        for v in idx.distinct_values() {
            if values.contains(&v) {
                out.extend_from_slice(idx.lookup(v));
            }
        }
    }
    out.sort_unstable();
    out
}

/// π_{A}(ids): distinct values at `pos` across the given tuples of `rel`.
pub fn project_distinct(db: &Database, attr: AttrRef, ids: &[TupleId]) -> FxHashSet<Const> {
    let rel = db.relation(attr.rel);
    ids.iter()
        .map(|&id| rel.tuple(id)[attr.pos as usize])
        .collect()
}

/// Right semi-join `L ⋊_{A=B} R`: ids of tuples of `right.rel` whose value at
/// `right.pos` appears in `left_values` (the distinct values of the left
/// side's join attribute).
///
/// Per the paper's §4.2.3 observation, the semi-join result depends only on
/// which values *exist* on the left, not on their frequencies — hence the
/// left side is passed as a distinct-value set.
pub fn semijoin(db: &Database, left_values: &FxHashSet<Const>, right: AttrRef) -> Vec<TupleId> {
    select_in(db, right, left_values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::uw_fragment;

    fn set(vals: impl IntoIterator<Item = Const>) -> FxHashSet<Const> {
        vals.into_iter().collect()
    }

    #[test]
    fn select_in_matches_a_brute_force_filter() {
        let db = uw_fragment();
        let publ = db.rel_id("publication").unwrap();
        let juan = db.lookup("juan").unwrap();
        let mary = db.lookup("mary").unwrap();
        let attr = AttrRef::new(publ, 1);
        let vals = set([juan, mary]);
        let scan: Vec<TupleId> = db
            .relation(publ)
            .iter()
            .filter(|(_, t)| vals.contains(&t[1]))
            .map(|(id, _)| id)
            .collect();
        assert_eq!(select_in(&db, attr, &vals), scan);
        assert_eq!(scan.len(), 2);
    }

    #[test]
    fn semijoin_example_4_1() {
        // U1(A,B) = {(a1,b1),(a2,b2)}, U2(A,C) = {(a0,c1),(a2,c2),(a1,c3)}
        // U1 ⋊_{A=A} U2 = {(a2,c2),(a1,c3)}
        let mut db = Database::new();
        let u1 = db.add_relation("u1", &["a", "b"]);
        let u2 = db.add_relation("u2", &["a", "c"]);
        db.insert(u1, &["a1", "b1"]);
        db.insert(u1, &["a2", "b2"]);
        db.insert(u2, &["a0", "c1"]);
        db.insert(u2, &["a2", "c2"]);
        db.insert(u2, &["a1", "c3"]);
        let left = project_distinct(
            &db,
            AttrRef::new(u1, 0),
            &db.relation(u1).iter().map(|(id, _)| id).collect::<Vec<_>>(),
        );
        let mut result = semijoin(&db, &left, AttrRef::new(u2, 0));
        result.sort_unstable();
        assert_eq!(result, vec![1, 2]); // (a2,c2) and (a1,c3)
    }

    #[test]
    fn project_distinct_dedups() {
        let db = uw_fragment();
        let phase = db.rel_id("inPhase").unwrap();
        let ids: Vec<TupleId> = db.relation(phase).iter().map(|(id, _)| id).collect();
        let p = project_distinct(&db, AttrRef::new(phase, 1), &ids);
        assert_eq!(p.len(), 1); // both students are post_quals
    }

    #[test]
    fn empty_value_set_selects_nothing() {
        let db = uw_fragment();
        let publ = db.rel_id("publication").unwrap();
        assert!(select_in(&db, AttrRef::new(publ, 0), &set([])).is_empty());
    }
}
