//! Tuple storage for a single relation, with per-attribute inverted indexes
//! and the frequency statistics the Olken-style samplers need.
//!
//! Every attribute is indexed: [`Relation::index`] builds an attribute's
//! index in one pass the first time it is read, and later inserts keep the
//! built indexes current, so an attribute nobody reads never pays for its
//! index.
//!
//! Layout is chosen for probe-heavy workloads (compiled clause evaluation,
//! serving): tuples live in one flat `Vec<Const>` with a fixed stride equal
//! to the relation's arity, so `tuple(id)` is a slice into contiguous memory
//! with no per-tuple heap indirection; postings are stored in a dense array
//! indexed by the interned constant id, so an index probe is a bounds check
//! plus one slice-header load instead of a hash computation and bucket walk.

use crate::dict::Const;
use std::sync::OnceLock;

/// A tuple: one interned constant per attribute.
pub type Tuple = Box<[Const]>;

/// Index of a tuple within its relation's tuple vector.
pub type TupleId = u32;

/// Inverted index for one attribute: value → ids of tuples holding it,
/// plus the maximum per-value frequency (the `M_{R.B}` bound in the paper's
/// §4.2.3 accept–reject sampler).
///
/// Postings are kept in a dense vector indexed by [`Const::index`]. Interned
/// ids are dense per database, so the vector is at most dictionary-sized;
/// ids outside the vector (including the ephemeral ids a `ConstResolver`
/// hands out for constants absent from the data) simply resolve to an empty
/// posting list. This trades a little memory on sparse attributes for an
/// O(1) probe with no hashing — the single hottest operation in compiled
/// clause evaluation.
#[derive(Debug, Default, Clone)]
pub struct AttrIndex {
    postings: Vec<Vec<TupleId>>,
    distinct: usize,
    max_freq: usize,
}

impl AttrIndex {
    /// Tuple ids whose attribute equals `c` (empty slice if none).
    #[inline]
    pub fn lookup(&self, c: Const) -> &[TupleId] {
        self.postings.get(c.index()).map_or(&[], Vec::as_slice)
    }

    /// Frequency `m(c)` of value `c` in this attribute.
    #[inline]
    pub fn freq(&self, c: Const) -> usize {
        self.postings.get(c.index()).map_or(0, Vec::len)
    }

    /// Upper bound `M` on any value's frequency in this attribute.
    pub fn max_freq(&self) -> usize {
        self.max_freq
    }

    /// Number of distinct values in this attribute.
    pub fn distinct_count(&self) -> usize {
        self.distinct
    }

    /// Iterates over distinct values of this attribute, in id order.
    pub fn distinct_values(&self) -> impl Iterator<Item = Const> + '_ {
        self.postings
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, _)| Const(i as u32))
    }

    fn insert(&mut self, c: Const, t: TupleId) {
        if c.index() >= self.postings.len() {
            self.postings.resize_with(c.index() + 1, Vec::new);
        }
        let v = &mut self.postings[c.index()];
        if v.is_empty() {
            self.distinct += 1;
        }
        v.push(t);
        if v.len() > self.max_freq {
            self.max_freq = v.len();
        }
    }
}

/// Tuples of one relation plus its per-attribute indexes, each built on
/// first read.
#[derive(Debug, Clone)]
pub struct Relation {
    arity: usize,
    len: usize,
    /// Flat arity-strided storage: tuple `id` occupies
    /// `data[id * arity .. (id + 1) * arity]`.
    data: Vec<Const>,
    /// `indexes[pos]` is filled by the first [`Relation::index`] read of
    /// attribute `pos`; [`Relation::insert`] keeps the filled ones current.
    indexes: Box<[OnceLock<AttrIndex>]>,
}

impl Relation {
    /// Creates an empty relation with the given arity.
    pub fn new(arity: usize) -> Self {
        Self {
            arity,
            len: 0,
            data: Vec::new(),
            indexes: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a tuple, returning its id. Duplicates are stored as given
    /// (the store has bag semantics; learners that need set semantics
    /// deduplicate at load time).
    ///
    /// # Panics
    /// Panics if the tuple arity does not match the relation's.
    pub fn insert(&mut self, tuple: Tuple) -> TupleId {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        let id = self.len as TupleId;
        // Keep the already-built indexes coherent with the new tuple; an
        // unbuilt one sees it when its first read scans the data.
        for (pos, idx) in self.indexes.iter_mut().enumerate() {
            if let Some(idx) = idx.get_mut() {
                idx.insert(tuple[pos], id);
            }
        }
        self.data.extend_from_slice(&tuple);
        self.len += 1;
        id
    }

    /// The tuple with id `id`.
    #[inline]
    pub fn tuple(&self, id: TupleId) -> &[Const] {
        let start = id as usize * self.arity;
        &self.data[start..start + self.arity]
    }

    /// Iterates over `(TupleId, &tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &[Const])> {
        (0..self.len as TupleId).map(|id| (id, self.tuple(id)))
    }

    /// The inverted index for attribute `pos`, built in one pass over the
    /// tuples on the first read.
    // An attribute's index, not `Index`-style element access: the clippy
    // name clash is only a name clash.
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, pos: usize) -> &AttrIndex {
        self.indexes[pos].get_or_init(|| {
            let mut idx = AttrIndex::default();
            for id in 0..self.len as TupleId {
                idx.insert(self.data[id as usize * self.arity + pos], id);
            }
            idx
        })
    }

    /// Estimated number of tuples matching an equality on attribute `pos`:
    /// the exact posting length when the probe value is known, and the
    /// average posting length (`len / distinct`) when the value is only
    /// known to be bound at runtime. Query planners use this to order joins
    /// by selectivity.
    pub fn estimated_matches(&self, pos: usize, value: Option<Const>) -> usize {
        let idx = self.index(pos);
        match value {
            Some(c) => idx.freq(c),
            None => self.len().div_ceil(idx.distinct_count().max(1)),
        }
    }

    /// Distinct values of attribute `pos`, in id order.
    pub fn distinct(&self, pos: usize) -> Vec<Const> {
        self.index(pos).distinct_values().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[u32]) -> Tuple {
        vals.iter().map(|&v| Const(v)).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut r = Relation::new(2);
        let a = r.insert(t(&[1, 2]));
        let b = r.insert(t(&[1, 3]));
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuple(a), &[Const(1), Const(2)]);
        assert_eq!(r.tuple(b), &[Const(1), Const(3)]);
    }

    #[test]
    fn first_read_builds_the_index() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[1, 3]));
        r.insert(t(&[4, 2]));
        assert_eq!(r.index(0).lookup(Const(1)), &[0, 1]);
        assert_eq!(r.index(1).lookup(Const(2)), &[0, 2]);
        assert_eq!(r.index(0).lookup(Const(9)), &[] as &[TupleId]);
        let idx = r.index(0);
        assert_eq!(idx.freq(Const(1)), 2);
        assert_eq!(idx.freq(Const(4)), 1);
        assert_eq!(idx.max_freq(), 2);
        assert_eq!(idx.distinct_count(), 2);
    }

    #[test]
    fn insert_after_index_keeps_index_coherent() {
        let mut r = Relation::new(1);
        r.insert(t(&[5]));
        r.index(0);
        r.insert(t(&[5]));
        r.insert(t(&[6]));
        let idx = r.index(0);
        assert_eq!(idx.freq(Const(5)), 2);
        assert_eq!(idx.freq(Const(6)), 1);
        assert_eq!(idx.max_freq(), 2);
        assert_eq!(idx.distinct_count(), 2);
    }

    /// Inserts interleaved with index reads: attribute 0 is read before the
    /// first insert, attribute 1 from the 10th insert on, attribute 2 only
    /// at the end. After every insert each index read so far (kept current
    /// by `insert`) matches a recount of the stored tuples.
    #[test]
    fn interleaved_inserts_and_reads_match_a_recount() {
        fn check(r: &Relation, pos: usize) {
            let idx = r.index(pos);
            let mut recount: Vec<Vec<TupleId>> = Vec::new();
            for (id, tuple) in r.iter() {
                let c = tuple[pos].index();
                if c >= recount.len() {
                    recount.resize_with(c + 1, Vec::new);
                }
                recount[c].push(id);
            }
            let values: Vec<Const> = (0..recount.len() as u32)
                .map(Const)
                .filter(|c| !recount[c.index()].is_empty())
                .collect();
            for c in 0..recount.len() as u32 + 2 {
                let want = recount.get(c as usize).map_or(&[][..], Vec::as_slice);
                assert_eq!(idx.lookup(Const(c)), want, "postings of {c} at {pos}");
                assert_eq!(idx.freq(Const(c)), want.len(), "freq of {c} at {pos}");
            }
            let max = recount.iter().map(Vec::len).max().unwrap_or(0);
            assert_eq!(idx.max_freq(), max, "max_freq at {pos}");
            assert_eq!(idx.distinct_count(), values.len(), "distinct at {pos}");
            assert_eq!(idx.distinct_values().collect::<Vec<_>>(), values);
            assert_eq!(r.distinct(pos), values);
        }
        let mut r = Relation::new(3);
        r.index(0);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut draw = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m) as u32
        };
        for i in 0..200usize {
            r.insert(t(&[draw(5), draw(12), draw(40)]));
            check(&r, 0);
            if i >= 9 {
                check(&r, 1);
            }
        }
        check(&r, 2);
    }

    #[test]
    fn lookup_beyond_seen_ids_is_empty() {
        // Ephemeral resolver ids land past every interned id; probes with
        // them must behave as "no matching tuples", not panic.
        let mut r = Relation::new(1);
        r.insert(t(&[2]));
        let idx = r.index(0);
        assert_eq!(idx.lookup(Const(1_000_000)), &[] as &[TupleId]);
        assert_eq!(idx.freq(Const(1_000_000)), 0);
    }

    #[test]
    fn distinct_values() {
        let mut r = Relation::new(1);
        for v in [3, 1, 3, 2, 1] {
            r.insert(t(&[v]));
        }
        assert_eq!(r.distinct(0), vec![Const(1), Const(2), Const(3)]);
    }

    #[test]
    fn estimated_matches_for_planning() {
        let mut r = Relation::new(2);
        r.insert(t(&[1, 2]));
        r.insert(t(&[1, 3]));
        r.insert(t(&[4, 5]));
        assert_eq!(r.estimated_matches(0, Some(Const(1))), 2, "exact freq");
        assert_eq!(r.estimated_matches(0, Some(Const(9))), 0, "absent value");
        // Unknown probe value: average posting length, rounded up (3/2 → 2).
        assert_eq!(r.estimated_matches(0, None), 2);
        // Three tuples over three distinct values.
        assert_eq!(r.estimated_matches(1, None), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Relation::new(2);
        r.insert(t(&[1]));
    }
}
