//! Canonical clause forms for candidate dedup and scoring.
//!
//! The beam's dedup ([`crate::generalize::learn_clause`]) keys on a
//! *canonical form* of each candidate clause, and the coverage engine
//! ([`crate::coverage::CoverageEngine`]) scores that form, so α-equivalent
//! candidates — the same clause up to variable renaming and body-literal
//! reordering — are scored once. armg produces such duplicates
//! constantly: different beam members generalized toward different sample
//! examples frequently collapse to the same clause, and seeds whose bottom
//! clauses enumerate the same neighbourhood in different orders produce
//! reordered copies.
//!
//! ## The chosen normal form
//!
//! [`canonical_form`] returns an actual [`Clause`] (not just a hash), built
//! in three steps:
//!
//! 1. **Color refinement.** Every variable gets a color. Head variables
//!    start colored by their first head position (the head binding makes
//!    them semantically distinct); body-only variables start uniform.
//!    Colors are then refined Weisfeiler–Leman-style: each round, a
//!    literal's signature is its relation plus the colors/constants at each
//!    argument position, and a variable's new color folds in the sorted
//!    multiset of `(literal signature, position)` pairs it occurs at.
//!    Rounds repeat until the color partition stops splitting.
//! 2. **Individualization.** If a color class still holds several variables
//!    (symmetric occurrences), the class with the smallest color is split by
//!    individualizing the member whose refined result yields the
//!    lexicographically smallest global signature, then re-refining. Each
//!    step makes at least one more variable unique, so at most `V` steps run.
//! 3. **Rewrite.** Body literals are sorted by their final signature and
//!    variables renumbered densely by first occurrence (head first, then the
//!    sorted body).
//!
//! ## Soundness vs. completeness
//!
//! Dedup *soundness* needs only one direction: clauses with **equal**
//! canonical forms must have identical coverage. That holds trivially —
//! equal canonical forms are literally the same clause, and coverage is
//! invariant under α-equivalence. The converse (every α-equivalent pair
//! collapsing to one form) is best-effort: color refinement cannot separate
//! some pathological automorphism-free symmetric structures, and an
//! unseparated tie falls back to input order. Such cases cost a duplicate
//! score, never a wrong answer. For the head-connected, mostly-tree-shaped clauses
//! armg produces, refinement separates everything in practice.

use crate::clause::{Clause, Term, VarId};
use relstore::FxHashMap;
use std::hash::{Hash, Hasher};

/// SplitMix64-style mix used to combine structural features into colors.
/// Not exposed; only relative equality of colors matters, never stability
/// across processes.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Tag values keeping constants, variables, and structural roles from
/// colliding in the mix.
const TAG_CONST: u64 = 0x5151;
const TAG_VAR: u64 = 0xA7A7;
const TAG_HEAD: u64 = 0xC3C3;
const TAG_INDIV: u64 = 0xD1B5_4A32_D192_ED03;

/// Cap on individualization trials (class-member refinements) per clause.
/// Trial counts are isomorphism-invariant (class sizes are), so α-variants
/// hit — or don't hit — this cap together.
const MAX_INDIV_TRIALS: usize = 64;

/// Signature of one body literal under the current variable coloring.
fn literal_sig(clause: &Clause, li: usize, colors: &[u64]) -> u64 {
    let lit = &clause.body[li];
    let mut h = mix(TAG_VAR.wrapping_add(1), lit.rel.0 as u64);
    for t in lit.args.iter() {
        h = match *t {
            Term::Const(c) => mix(h, mix(TAG_CONST, c.0 as u64)),
            Term::Var(v) => mix(h, mix(TAG_VAR, colors[v.index()])),
        };
    }
    h
}

/// The refinement state of one [`canonical_form_status`] call: the clause's
/// variable occurrences and every scratch buffer refinement and
/// individualization need, allocated once per call and reused by every
/// round and every trial.
struct Refiner<'c> {
    clause: &'c Clause,
    /// Occurrences of each variable, `(body literal index, argument
    /// position)`, CSR layout: `occ[occ_off[v]..occ_off[v + 1]]`. Head
    /// occurrences are folded into the initial colors instead.
    occ_off: Vec<u32>,
    occ: Vec<(u32, u32)>,
    /// Whether each variable id occurs in the clause at all.
    used: Vec<bool>,
    /// Per-literal signatures of the current round.
    sigs: Vec<u64>,
    /// Per-variable colors of the next round.
    next: Vec<u64>,
    /// One variable's sorted occurrence features.
    feats: Vec<u64>,
    /// Partition labels of the previous and the current round, and the
    /// color → label map that assigns them.
    prev_labels: Vec<u32>,
    labels: Vec<u32>,
    label_of: FxHashMap<u64, u32>,
}

impl<'c> Refiner<'c> {
    fn new(clause: &'c Clause, num_vars: usize) -> Self {
        let mut occ_off = vec![0u32; num_vars + 1];
        for lit in &clause.body {
            for v in lit.vars() {
                occ_off[v.index() + 1] += 1;
            }
        }
        for v in 0..num_vars {
            occ_off[v + 1] += occ_off[v];
        }
        let mut occ = vec![(0, 0); occ_off[num_vars] as usize];
        let mut cursor = occ_off.clone();
        for (li, lit) in clause.body.iter().enumerate() {
            for (pos, t) in lit.args.iter().enumerate() {
                if let Term::Var(v) = t {
                    occ[cursor[v.index()] as usize] = (li as u32, pos as u32);
                    cursor[v.index()] += 1;
                }
            }
        }
        let mut used: Vec<bool> = (0..num_vars).map(|v| occ_off[v] < occ_off[v + 1]).collect();
        for v in clause.head.vars() {
            used[v.index()] = true;
        }
        Self {
            clause,
            occ_off,
            occ,
            used,
            sigs: Vec::with_capacity(clause.body.len()),
            next: vec![0; num_vars],
            feats: Vec::new(),
            prev_labels: Vec::with_capacity(num_vars),
            labels: Vec::with_capacity(num_vars),
            label_of: FxHashMap::default(),
        }
    }

    /// One full refinement pass to a fixpoint of the color *partition*
    /// (values keep churning each round; refinement stops when the grouping
    /// of variables into equal-color classes stops changing). The stop
    /// condition must be an isomorphism invariant — the number of rounds
    /// run feeds the final color values, and α-variants must execute the
    /// same count — so partitions are compared as first-occurrence class
    /// labelings, never by color-value order.
    fn refine(&mut self, colors: &mut [u64]) {
        let num_vars = colors.len();
        self.partition_labels(colors);
        std::mem::swap(&mut self.prev_labels, &mut self.labels);
        for _round in 0..num_vars.max(2) {
            self.literal_sigs(colors);
            for (v, &color) in colors.iter().enumerate() {
                let slots = &self.occ[self.occ_off[v] as usize..self.occ_off[v + 1] as usize];
                self.feats.clear();
                self.feats.extend(
                    slots
                        .iter()
                        .map(|&(li, pos)| mix(self.sigs[li as usize], pos as u64)),
                );
                self.feats.sort_unstable();
                self.next[v] = self.feats.iter().fold(color, |h, &f| mix(h, f));
            }
            colors.copy_from_slice(&self.next);
            self.partition_labels(colors);
            if self.labels == self.prev_labels {
                return;
            }
            std::mem::swap(&mut self.prev_labels, &mut self.labels);
        }
    }

    /// Labels each **used** variable's color class by first occurrence in
    /// index order, into `self.labels`, so two colorings compare equal iff
    /// they induce the same *partition* of the clause's variables —
    /// independent of the color values themselves (which churn every round)
    /// and of unused id-range gaps (which would otherwise make the round
    /// count, and thus the final colors, depend on how the input happened
    /// to number its variables).
    fn partition_labels(&mut self, colors: &[u64]) {
        self.label_of.clear();
        self.labels.clear();
        for (&c, _) in colors.iter().zip(&self.used).filter(|&(_, &u)| u) {
            let next = self.label_of.len() as u32;
            self.labels.push(*self.label_of.entry(c).or_insert(next));
        }
    }

    /// Every body literal's signature under `colors`, into `self.sigs`.
    fn literal_sigs(&mut self, colors: &[u64]) {
        self.sigs.clear();
        self.sigs
            .extend((0..self.clause.body.len()).map(|li| literal_sig(self.clause, li, colors)));
    }

    /// Global structural signature under a coloring: the sorted body-literal
    /// signatures, into `self.sigs`. Used to pick the individualization
    /// branch deterministically.
    fn global_sig(&mut self, colors: &[u64]) {
        self.literal_sigs(colors);
        self.sigs.sort_unstable();
    }
}

/// Returns the canonical form of `clause`: body literals in normal-form
/// order, variables renumbered densely by first occurrence (head variables
/// first). α-equivalent clauses map to equal canonical forms whenever color
/// refinement separates their variables (always, for the clause shapes armg
/// produces); the result is always a genuine α-variant of the input, so
/// using it in place of the input never changes coverage semantics.
pub fn canonical_form(clause: &Clause) -> Clause {
    canonical_form_status(clause).0
}

/// [`canonical_form`] together with whether the form is *complete*: every
/// tie in the variable coloring was resolved, so the literal order depends
/// on the coloring alone. A complete form is a fixpoint:
/// `canonical_form(canonical_form(c)) == canonical_form(c)`. The form is
/// incomplete when the individualization trial cap cuts the tie-breaking
/// off. It is still an α-variant of the input, but the stable literal sort
/// then breaks the remaining ties by input order, and which members of a
/// tied class were individualized depends on variable ids. Canonicalizing
/// the output again can therefore individualize other members and return
/// a different α-variant.
///
/// All refinement scratch is allocated once per call (`Refiner`); rounds
/// and individualization trials reuse it.
pub fn canonical_form_status(clause: &Clause) -> (Clause, bool) {
    let num_vars = clause.num_vars() as usize;
    let mut r = Refiner::new(clause, num_vars);

    // Initial colors: head variables by first head position, body-only
    // variables uniform, unused ids parked on a sentinel.
    let mut colors = vec![mix(TAG_VAR, 0); num_vars];
    for (pos, t) in clause.head.args.iter().enumerate() {
        if let Term::Var(v) = t {
            if colors[v.index()] == mix(TAG_VAR, 0) {
                colors[v.index()] = mix(TAG_HEAD, pos as u64);
            }
        }
    }
    r.refine(&mut colors);

    // Individualize remaining ties. Each pass makes one more variable
    // unique, so the loop is bounded by the variable count; the trial
    // budget caps pathological all-symmetric clauses (exceeding it only
    // costs canonicalization completeness — a duplicate score, never a
    // wrong answer).
    let mut trials = 0usize;
    let mut complete = true;
    // (color, variable) of every used variable, sorted, so the tied class
    // with the smallest color is the first run longer than one.
    let mut by_color: Vec<(u64, u32)> = Vec::with_capacity(num_vars);
    let mut members: Vec<u32> = Vec::new();
    let (mut trial, mut best) = (colors.clone(), colors.clone());
    let mut best_sig: Vec<u64> = Vec::with_capacity(clause.body.len());
    for _ in 0..num_vars {
        by_color.clear();
        by_color.extend(
            colors
                .iter()
                .zip(&r.used)
                .enumerate()
                .filter(|&(_, (_, &u))| u)
                .map(|(v, (&c, _))| (c, v as u32)),
        );
        by_color.sort_unstable();
        members.clear();
        for run in by_color.chunk_by(|a, b| a.0 == b.0) {
            if run.len() > 1 {
                members.extend(run.iter().map(|&(_, v)| v));
                break;
            }
        }
        if members.is_empty() {
            break;
        }
        trials += members.len();
        if trials > MAX_INDIV_TRIALS {
            complete = false;
            break;
        }
        for (i, &v) in members.iter().enumerate() {
            trial.copy_from_slice(&colors);
            trial[v as usize] = mix(trial[v as usize], TAG_INDIV);
            r.refine(&mut trial);
            r.global_sig(&trial);
            if i == 0 || r.sigs < best_sig {
                std::mem::swap(&mut best_sig, &mut r.sigs);
                std::mem::swap(&mut best, &mut trial);
            }
        }
        std::mem::swap(&mut colors, &mut best);
    }

    // Order body literals by final signature; ties (genuine duplicates, and
    // the ultra-rare unresolved tie) keep input order, as a stable sort
    // would.
    r.literal_sigs(&colors);
    let sigs = &r.sigs;
    let mut order: Vec<usize> = (0..clause.body.len()).collect();
    order.sort_unstable_by_key(|&li| (sigs[li], li));

    // Renumber densely: head argument order first, then sorted-body
    // first-occurrence order.
    let mut map: Vec<u32> = vec![u32::MAX; num_vars];
    let mut next = 0u32;
    let mut renamed = |t: &Term| match *t {
        Term::Const(c) => Term::Const(c),
        Term::Var(v) => {
            if map[v.index()] == u32::MAX {
                map[v.index()] = next;
                next += 1;
            }
            Term::Var(VarId(map[v.index()]))
        }
    };
    let head = crate::clause::Literal::new(
        clause.head.rel,
        clause
            .head
            .args
            .iter()
            .map(&mut renamed)
            .collect::<Vec<_>>(),
    );
    let body = order
        .into_iter()
        .map(|li| {
            let lit = &clause.body[li];
            crate::clause::Literal::new(
                lit.rel,
                lit.args.iter().map(&mut renamed).collect::<Vec<_>>(),
            )
        })
        .collect();
    (Clause::new(head, body), complete)
}

/// 64-bit hash of the canonical form — a fingerprint for tests, logging,
/// and quick inequality checks. The beam's dedup keys on the full
/// canonical [`Clause`] (hash collisions resolved by `Eq`), so this hash is
/// never trusted for equality.
pub fn canonical_key(clause: &Clause) -> u64 {
    let canon = canonical_form(clause);
    let mut h = relstore::fxhash::FxHasher::default();
    canon.head.hash(&mut h);
    canon.body.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clause::{Literal, Term, VarId};
    use relstore::{Const, RelId};

    fn v(n: u32) -> Term {
        Term::Var(VarId(n))
    }

    fn k(n: u32) -> Term {
        Term::Const(Const(n))
    }

    /// t(x, y) ← r(x, z), s(z, y), u(z)
    fn chain() -> Clause {
        Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(1), vec![v(2), v(1)]),
                Literal::new(RelId(2), vec![v(2)]),
            ],
        )
    }

    #[test]
    fn renamed_variables_hash_equal() {
        // Same clause with every variable id scrambled.
        let renamed = Clause::new(
            Literal::new(RelId(9), vec![v(7), v(3)]),
            vec![
                Literal::new(RelId(0), vec![v(7), v(11)]),
                Literal::new(RelId(1), vec![v(11), v(3)]),
                Literal::new(RelId(2), vec![v(11)]),
            ],
        );
        assert_eq!(canonical_form(&chain()), canonical_form(&renamed));
        assert_eq!(canonical_key(&chain()), canonical_key(&renamed));
    }

    #[test]
    fn reordered_body_hashes_equal() {
        let reordered = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(2), vec![v(2)]),
                Literal::new(RelId(1), vec![v(2), v(1)]),
                Literal::new(RelId(0), vec![v(0), v(2)]),
            ],
        );
        assert_eq!(canonical_form(&chain()), canonical_form(&reordered));
        assert_eq!(canonical_key(&chain()), canonical_key(&reordered));
    }

    #[test]
    fn renamed_and_reordered_hashes_equal() {
        let both = Clause::new(
            Literal::new(RelId(9), vec![v(5), v(2)]),
            vec![
                Literal::new(RelId(1), vec![v(9), v(2)]),
                Literal::new(RelId(2), vec![v(9)]),
                Literal::new(RelId(0), vec![v(5), v(9)]),
            ],
        );
        assert_eq!(canonical_form(&chain()), canonical_form(&both));
    }

    #[test]
    fn different_constants_hash_differently() {
        let with_c1 = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(0), k(10)])],
        );
        let with_c2 = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(0), k(11)])],
        );
        assert_ne!(canonical_form(&with_c1), canonical_form(&with_c2));
        assert_ne!(canonical_key(&with_c1), canonical_key(&with_c2));
    }

    #[test]
    fn different_arity_or_relation_hash_differently() {
        let unary = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(0)])],
        );
        let binary = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(0), v(2)])],
        );
        let other_rel = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(1), vec![v(0)])],
        );
        assert_ne!(canonical_key(&unary), canonical_key(&binary));
        assert_ne!(canonical_key(&unary), canonical_key(&other_rel));
    }

    #[test]
    fn head_variable_roles_are_distinguished() {
        // t(x, y) ← r(x) is NOT α-equivalent to t(x, y) ← r(y): head
        // positions pin the variables.
        let first = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(0)])],
        );
        let second = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(1)])],
        );
        assert_ne!(canonical_form(&first), canonical_form(&second));
    }

    #[test]
    fn symmetric_body_variables_are_separated_deterministically() {
        // t(x) ← r(x, a), r(x, b), u(a): a and b start symmetric until u(a)
        // splits them. The two presentation orders must collapse together.
        let one = Clause::new(
            Literal::new(RelId(9), vec![v(0)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(1)]),
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(2), vec![v(1)]),
            ],
        );
        let two = Clause::new(
            Literal::new(RelId(9), vec![v(0)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(5)]),
                Literal::new(RelId(0), vec![v(0), v(4)]),
                Literal::new(RelId(2), vec![v(4)]),
            ],
        );
        assert_eq!(canonical_form(&one), canonical_form(&two));
    }

    #[test]
    fn fully_symmetric_duplicates_collapse() {
        // t(x) ← r(x, a), r(x, b): a and b are truly automorphic; the
        // individualization step must still produce one stable form for
        // both orders.
        let one = Clause::new(
            Literal::new(RelId(9), vec![v(0)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(1)]),
                Literal::new(RelId(0), vec![v(0), v(2)]),
            ],
        );
        let two = Clause::new(
            Literal::new(RelId(9), vec![v(0)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(8)]),
                Literal::new(RelId(0), vec![v(0), v(3)]),
            ],
        );
        assert_eq!(canonical_form(&one), canonical_form(&two));
    }

    #[test]
    fn canonical_form_is_a_fixpoint_and_alpha_variant() {
        let c = chain();
        let (canon, complete) = canonical_form_status(&c);
        // Complete, hence idempotent.
        assert!(complete);
        assert_eq!(canonical_form_status(&canon), (canon.clone(), true));
        // Same shape: relation multiset and literal count preserved.
        assert_eq!(canon.body.len(), c.body.len());
        let mut rels_a: Vec<u32> = c.body.iter().map(|l| l.rel.0).collect();
        let mut rels_b: Vec<u32> = canon.body.iter().map(|l| l.rel.0).collect();
        rels_a.sort_unstable();
        rels_b.sort_unstable();
        assert_eq!(rels_a, rels_b);
        // Variables are densely renumbered starting from the head.
        assert_eq!(canon.head.args[0], v(0));
        assert_eq!(canon.head.args[1], v(1));
        assert!(canon.num_vars() <= c.num_vars());
    }

    /// The trial cap's known limit, reproduced: `t(x, y) ← r(a_i, x),
    /// r(a_i, k)` for five `a_i` plus `r(b_j, x)` for ten `b_j`, in the
    /// body order below, ties two classes whose individualization needs
    /// more than 64 trials, so the form is incomplete. It still only
    /// renames, but it is not a fixpoint: canonicalizing it again
    /// individualizes other members of the tied classes. Making incomplete
    /// forms fixpoints changes learned output (DESIGN.md §10), and that
    /// change must flip the last assertion.
    #[test]
    fn truncated_individualization_is_incomplete_and_not_a_fixpoint() {
        // (variable, second argument is the constant) per body literal.
        let order = [
            (9, false),
            (3, false),
            (4, true),
            (5, true),
            (12, false),
            (6, true),
            (13, false),
            (7, false),
            (8, false),
            (14, false),
            (3, true),
            (5, false),
            (10, false),
            (6, false),
            (2, true),
            (15, false),
            (16, false),
            (11, false),
            (4, false),
            (2, false),
        ];
        let body = order
            .iter()
            .map(|&(a, to_k)| {
                let second = if to_k { k(102) } else { v(0) };
                Literal::new(RelId(0), vec![v(a), second])
            })
            .collect();
        let clause = Clause::new(Literal::new(RelId(9), vec![v(0), v(1)]), body);
        let (canon, complete) = canonical_form_status(&clause);
        assert!(!complete);
        let (again, again_complete) = canonical_form_status(&canon);
        assert!(!again_complete);
        for form in [&canon, &again] {
            assert_eq!(form.body.len(), clause.body.len());
            assert_eq!(form.num_vars(), clause.num_vars());
            let with_k = form.body.iter().filter(|l| l.args[1] == k(102)).count();
            assert_eq!(with_k, 5);
        }
        assert_ne!(again, canon, "incomplete forms are not fixpoints yet");
    }

    #[test]
    fn ground_literals_and_empty_bodies_work() {
        let ground = Clause::new(
            Literal::new(RelId(9), vec![k(1), k(2)]),
            vec![Literal::new(RelId(0), vec![k(3)])],
        );
        assert_eq!(canonical_form(&ground), ground);
        let empty = Clause::new(Literal::new(RelId(9), vec![v(0), v(1)]), vec![]);
        assert_eq!(canonical_form(&empty), empty);
    }
}
