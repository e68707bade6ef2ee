//! Property-based tests for the relstore algebra: indexed operations must
//! agree with brute-force scans written here, on random databases.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point
#![cfg(not(miri))] // proptest-heavy: hundreds of cases, far too slow under miri

use proptest::prelude::*;
use relstore::{algebra, AttrRef, Const, Database, FxHashSet};

/// Builds a database with one binary relation holding the given rows.
fn db_from_rows(rows: &[(u8, u8)]) -> Database {
    let mut db = Database::new();
    let r = db.add_relation("r", &["a", "b"]);
    for (a, b) in rows {
        db.insert(r, &[&format!("a{a}"), &format!("b{b}")]);
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// select_in through the index equals a brute-force filter, ascending.
    #[test]
    fn select_in_equals_a_brute_force_filter(
        rows in proptest::collection::vec((0u8..12, 0u8..12), 0..60),
        probe in proptest::collection::vec(0u8..12, 0..6),
    ) {
        let db = db_from_rows(&rows);
        let r = db.rel_id("r").unwrap();
        let vals: FxHashSet<Const> = probe
            .iter()
            .filter_map(|a| db.lookup(&format!("a{a}")))
            .collect();
        let scan: Vec<_> = db
            .relation(r)
            .iter()
            .filter(|(_, t)| vals.contains(&t[0]))
            .map(|(id, _)| id)
            .collect();
        prop_assert_eq!(algebra::select_in(&db, AttrRef::new(r, 0), &vals), scan);
    }

    /// Index frequency statistics match recount.
    #[test]
    fn index_stats_match_recount(rows in proptest::collection::vec((0u8..8, 0u8..8), 1..60)) {
        let db = db_from_rows(&rows);
        let r = db.rel_id("r").unwrap();
        let rel = db.relation(r);
        let idx = rel.index(0);
        let mut max_freq = 0usize;
        let mut distinct = FxHashSet::default();
        for (_, t) in rel.iter() {
            distinct.insert(t[0]);
        }
        for &v in &distinct {
            let count = rel.iter().filter(|(_, t)| t[0] == v).count();
            prop_assert_eq!(idx.freq(v), count);
            max_freq = max_freq.max(count);
        }
        prop_assert_eq!(idx.max_freq(), max_freq);
        prop_assert_eq!(idx.distinct_count(), distinct.len());
    }

    /// project_distinct equals a manual dedup of the projected column.
    #[test]
    fn project_distinct_equals_manual(rows in proptest::collection::vec((0u8..10, 0u8..10), 0..40)) {
        let db = db_from_rows(&rows);
        let r = db.rel_id("r").unwrap();
        let ids: Vec<_> = db.relation(r).iter().map(|(id, _)| id).collect();
        let projected = algebra::project_distinct(&db, AttrRef::new(r, 1), &ids);
        let manual: FxHashSet<Const> = db.relation(r).iter().map(|(_, t)| t[1]).collect();
        prop_assert_eq!(projected, manual);
    }

    /// Semi-join result: exactly the right-side tuples whose join value
    /// occurs on the left.
    #[test]
    fn semijoin_matches_definition(
        left in proptest::collection::vec(0u8..10, 0..20),
        rows in proptest::collection::vec((0u8..10, 0u8..10), 0..40),
    ) {
        let db = db_from_rows(&rows);
        let r = db.rel_id("r").unwrap();
        let left_vals: FxHashSet<Const> = left
            .iter()
            .filter_map(|a| db.lookup(&format!("a{a}")))
            .collect();
        let result = algebra::semijoin(&db, &left_vals, AttrRef::new(r, 0));
        let result_set: FxHashSet<_> = result.iter().copied().collect();
        for (id, t) in db.relation(r).iter() {
            prop_assert_eq!(result_set.contains(&id), left_vals.contains(&t[0]));
        }
    }

    /// CSV write → load preserves every tuple, including tricky characters.
    #[test]
    fn csv_roundtrip(rows in proptest::collection::vec(("[a-z,\"\\- ]{0,8}", "[a-z0-9]{0,8}"), 0..20)) {
        let mut db = Database::new();
        let r = db.add_relation("t", &["a", "b"]);
        for (a, b) in &rows {
            db.insert(r, &[a, b]);
        }
        let mut buf = Vec::new();
        relstore::csv::write_csv(&db, r, &mut buf).unwrap();
        let mut db2 = Database::new();
        let r2 = db2.add_relation("t", &["a", "b"]);
        relstore::csv::load_csv(&mut db2, r2, buf.as_slice()).unwrap();
        prop_assert_eq!(db.relation(r).len(), db2.relation(r2).len());
        for ((_, t1), (_, t2)) in db.relation(r).iter().zip(db2.relation(r2).iter()) {
            prop_assert_eq!(db.const_name(t1[0]), db2.const_name(t2[0]));
            prop_assert_eq!(db.const_name(t1[1]), db2.const_name(t2[1]));
        }
    }
}
