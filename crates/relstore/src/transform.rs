//! Schema transformations: vertical partitioning (normalization into 4NF-ish
//! fragments) and denormalization (joining fragments back).
//!
//! Castor — the learner AutoBias builds on — was designed to be *schema
//! independent*: learning results should not change when the same data is
//! stored normalized or denormalized (Picado et al., SIGMOD'17). These
//! transformations let tests and experiments check that AutoBias's IND-driven
//! bias induction inherits that robustness: partitioning introduces fresh
//! surrogate keys whose exact INDs the type graph picks up, re-linking the
//! fragments automatically.

use crate::database::Database;
use crate::dict::Const;
use crate::schema::RelId;
use std::fmt;

/// Errors raised by schema transformations.
#[derive(Debug)]
pub enum TransformError {
    /// The relation is unary — nothing to partition.
    NotPartitionable(RelId),
    /// Join attributes out of range.
    BadJoinAttrs,
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::NotPartitionable(r) => {
                write!(f, "relation r{} has arity < 2, cannot partition", r.0)
            }
            TransformError::BadJoinAttrs => write!(f, "join attribute out of range"),
        }
    }
}

impl std::error::Error for TransformError {}

/// Result of a vertical partition: the new database plus the fragment ids.
#[derive(Debug)]
pub struct Partitioned {
    /// The transformed database (all other relations copied unchanged).
    pub db: Database,
    /// One fragment per original attribute, in attribute order. Fragment `i`
    /// is the binary relation `<rel>_<attr_i>(<rel>_id, <attr_i>)`.
    pub fragments: Vec<RelId>,
}

/// Vertically partitions `rel` into one binary fragment per attribute,
/// linked by a fresh surrogate key (`<rel>_id`) — the universal lossless
/// decomposition. Every other relation is copied unchanged (ids may differ;
/// look relations up by name in the new database).
pub fn vertical_partition(db: &Database, rel: RelId) -> Result<Partitioned, TransformError> {
    let schema = db.catalog().schema(rel);
    if schema.arity() < 2 {
        return Err(TransformError::NotPartitionable(rel));
    }
    let rel_name = schema.name.clone();
    let attr_names: Vec<String> = schema.attrs.clone();

    let mut out = Database::new();
    // Copy all other relations.
    let mut rel_map: Vec<Option<RelId>> = Vec::new();
    for (old_id, s) in db.catalog().iter() {
        if old_id == rel {
            rel_map.push(None);
            continue;
        }
        let attrs: Vec<&str> = s.attrs.iter().map(String::as_str).collect();
        rel_map.push(Some(out.add_relation(&s.name, &attrs)));
    }
    // Fragments.
    let fragments: Vec<RelId> = attr_names
        .iter()
        .map(|a| out.add_relation(&format!("{rel_name}_{a}"), &[&format!("{rel_name}_id"), a]))
        .collect();

    // Copy tuples of the other relations.
    for (old_id, _) in db.catalog().iter() {
        let Some(new_id) = rel_map[old_id.index()] else {
            continue;
        };
        for (_, tuple) in db.relation(old_id).iter() {
            let vals: Vec<&str> = tuple.iter().map(|&c| db.const_name(c)).collect();
            out.insert(new_id, &vals);
        }
    }
    // Split the partitioned relation, one surrogate per original tuple.
    for (tid, tuple) in db.relation(rel).iter() {
        let surrogate = format!("{rel_name}_t{tid}");
        for (pos, &c) in tuple.iter().enumerate() {
            out.insert(fragments[pos], &[&surrogate, db.const_name(c)]);
        }
    }
    Ok(Partitioned { db: out, fragments })
}

/// Denormalizes two relations into one: the natural join of `left` and
/// `right` on `left[on_left] = right[on_right]`, named
/// `<left>_<right>`, with the join attribute kept once. All other relations
/// are copied unchanged.
pub fn denormalize(
    db: &Database,
    left: RelId,
    right: RelId,
    on_left: usize,
    on_right: usize,
) -> Result<Database, TransformError> {
    let ls = db.catalog().schema(left).clone();
    let rs = db.catalog().schema(right).clone();
    if on_left >= ls.arity() || on_right >= rs.arity() {
        return Err(TransformError::BadJoinAttrs);
    }

    let mut out = Database::new();
    for (old_id, s) in db.catalog().iter() {
        if old_id == left || old_id == right {
            continue;
        }
        let attrs: Vec<&str> = s.attrs.iter().map(String::as_str).collect();
        let new_id = out.add_relation(&s.name, &attrs);
        for (_, tuple) in db.relation(old_id).iter() {
            let vals: Vec<&str> = tuple.iter().map(|&c| db.const_name(c)).collect();
            out.insert(new_id, &vals);
        }
    }

    // Joined schema: left attrs then right attrs minus the join column.
    let mut attrs: Vec<String> = ls.attrs.clone();
    for (pos, a) in rs.attrs.iter().enumerate() {
        if pos != on_right {
            attrs.push(format!("{}_{}", rs.name, a));
        }
    }
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    let joined = out.add_relation(&format!("{}_{}", ls.name, rs.name), &attr_refs);

    // Hash join.
    let mut by_key: crate::fxhash::FxHashMap<Const, Vec<Vec<Const>>> =
        crate::fxhash::FxHashMap::default();
    for (_, rt) in db.relation(right).iter() {
        by_key.entry(rt[on_right]).or_default().push(rt.to_vec());
    }
    for (_, lt) in db.relation(left).iter() {
        let Some(matches) = by_key.get(&lt[on_left]) else {
            continue;
        };
        for rt in matches {
            let mut vals: Vec<&str> = lt.iter().map(|&c| db.const_name(c)).collect();
            for (pos, &c) in rt.iter().enumerate() {
                if pos != on_right {
                    vals.push(db.const_name(c));
                }
            }
            out.insert(joined, &vals);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::uw_fragment;

    #[test]
    fn partition_splits_and_preserves_counts() {
        let db = uw_fragment();
        let in_phase = db.rel_id("inPhase").unwrap();
        let n = db.relation(in_phase).len();
        let parts = vertical_partition(&db, in_phase).unwrap();
        assert_eq!(parts.fragments.len(), 2);
        for &f in &parts.fragments {
            assert_eq!(parts.db.relation(f).len(), n);
        }
        // Other relations intact.
        let publ = parts.db.rel_id("publication").unwrap();
        assert_eq!(parts.db.relation(publ).len(), 4);
        // The partitioned relation is gone.
        assert!(parts.db.rel_id("inPhase").is_none());
        assert!(parts.db.rel_id("inPhase_stud").is_some());
        assert!(parts.db.rel_id("inPhase_phase").is_some());
    }

    #[test]
    fn partition_is_lossless_under_rejoin() {
        let db = uw_fragment();
        let in_phase = db.rel_id("inPhase").unwrap();
        let parts = vertical_partition(&db, in_phase).unwrap();
        let f_stud = parts.db.rel_id("inPhase_stud").unwrap();
        let f_phase = parts.db.rel_id("inPhase_phase").unwrap();
        let rejoined = denormalize(&parts.db, f_stud, f_phase, 0, 0).unwrap();
        let joined_rel = rejoined.rel_id("inPhase_stud_inPhase_phase").unwrap();
        // (surrogate, stud, phase) per original tuple.
        assert_eq!(
            rejoined.relation(joined_rel).len(),
            db.relation(in_phase).len()
        );
        let mut original: Vec<(String, String)> = db
            .relation(in_phase)
            .iter()
            .map(|(_, t)| {
                (
                    db.const_name(t[0]).to_string(),
                    db.const_name(t[1]).to_string(),
                )
            })
            .collect();
        let mut recovered: Vec<(String, String)> = rejoined
            .relation(joined_rel)
            .iter()
            .map(|(_, t)| {
                (
                    rejoined.const_name(t[1]).to_string(),
                    rejoined.const_name(t[2]).to_string(),
                )
            })
            .collect();
        original.sort();
        recovered.sort();
        assert_eq!(original, recovered);
    }

    #[test]
    fn unary_relation_is_rejected() {
        let db = uw_fragment();
        let student = db.rel_id("student").unwrap();
        assert!(matches!(
            vertical_partition(&db, student),
            Err(TransformError::NotPartitionable(_))
        ));
    }

    #[test]
    fn denormalize_joins_on_shared_values() {
        let db = uw_fragment();
        let student = db.rel_id("student").unwrap();
        let in_phase = db.rel_id("inPhase").unwrap();
        let joined_db = denormalize(&db, student, in_phase, 0, 0).unwrap();
        let joined = joined_db.rel_id("student_inPhase").unwrap();
        // Both students are in a phase → 2 joined tuples (stud, phase).
        assert_eq!(joined_db.relation(joined).len(), 2);
        assert_eq!(joined_db.catalog().schema(joined).arity(), 2);
    }

    #[test]
    fn bad_join_attr_is_rejected() {
        let db = uw_fragment();
        let student = db.rel_id("student").unwrap();
        let in_phase = db.rel_id("inPhase").unwrap();
        assert!(matches!(
            denormalize(&db, student, in_phase, 5, 0),
            Err(TransformError::BadJoinAttrs)
        ));
    }
}
