//! Coverage testing (paper §5): ground bottom clauses are built **once** per
//! training example (with the same sampling strategy as BC construction) and
//! reused for every candidate clause during generalization, replacing
//! hundred-join SQL queries with θ-subsumption tests. The engine keeps only
//! the ground clauses; the learner variable-izes the one it seeds a clause
//! search from ([`crate::bottom::variablize`]).
//!
//! Scoring sits on top of the raw per-example tests (DESIGN.md §10):
//!
//! - every scoring entry point ([`CoverageEngine::covered_pos_mask`],
//!   [`CoverageEngine::batch_covered_pos`],
//!   [`CoverageEngine::count_neg_budget`]) takes a [`Canonical`] clause: the
//!   candidate rewritten once, by [`CoverageEngine::canonical`], to its
//!   canonical form ([`crate::canon`]), so α-equivalent armg duplicates get
//!   one *answer*: θ-subsumption is approximate and its search depends on
//!   literal order, so two α-variants could otherwise get different answers;
//! - scoring runs on the calling thread, every θ-test of a call in one
//!   [`Workspace`]: a test takes about 10 µs, far below what forking
//!   workers costs, so only the ground-BC build fans out;
//! - each clause is prepared for θ-subsumption once per call
//!   ([`crate::subsume::PreparedClause`]: its fold, index, components and
//!   literal shapes), so a test does only the per-example work;
//! - negative counting is *monotone*: [`CoverageEngine::count_neg_budget`]
//!   accepts a cutoff and stops at the first negative that takes the count
//!   past it, returning a [`NegCount::AtLeast`] lower bound.

use crate::bias::LanguageBias;
use crate::bottom::{build_ground_clause_in, BcConfig, BcScratch, GroundClause};
use crate::clause::Clause;
use crate::example::TrainingSet;
use crate::instrument;
use crate::learn::LearnerConfig;
use crate::subsume::{PreparedClause, SubsumeConfig, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relstore::Database;
use std::sync::OnceLock;

/// A fixed-length bit vector over example indices, backed by `u64` blocks.
/// Replaces the `Vec<usize>` index lists previously threaded through
/// `CoverageEngine`/`learn_clause`: set membership is one shift+mask, and
/// the covering loop's "remove covered" update is a blockwise `&= !`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    len: usize,
    blocks: Vec<u64>,
}

impl Bitset {
    /// An all-zeros bitset over `len` indices.
    pub fn new(len: usize) -> Self {
        Self {
            len,
            blocks: vec![0; len.div_ceil(64)],
        }
    }

    /// A bitset over `len` indices with exactly `indices` set.
    pub fn from_indices(len: usize, indices: &[usize]) -> Self {
        let mut s = Self::new(len);
        for &i in indices {
            s.set(i);
        }
        s
    }

    /// Number of indices the bitset ranges over (not the number set).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset ranges over zero indices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.blocks[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.blocks[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterates set indices in increasing order.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    return None;
                }
                let tz = b.trailing_zeros() as usize;
                b &= b - 1;
                Some(bi * 64 + tz)
            })
        })
    }
}

/// Result of a budgeted negative count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegCount {
    /// The exact number of negatives covered.
    Exact(usize),
    /// Counting stopped early: **at least** this many negatives are covered
    /// (always strictly above the cutoff that stopped it).
    AtLeast(usize),
}

impl NegCount {
    /// Whether this count proves the clause covers **more** than `cutoff`
    /// negatives. `AtLeast` results only ever arise from a crossed cutoff,
    /// so they always answer `true` for the cutoff that produced them.
    pub fn exceeds(self, cutoff: Option<usize>) -> bool {
        match (self, cutoff) {
            (NegCount::Exact(n), Some(c)) => n > c,
            (NegCount::AtLeast(_), Some(_)) => true,
            (_, None) => false,
        }
    }

    /// The counted value: exact, or the lower bound for `AtLeast`.
    pub fn value(self) -> usize {
        match self {
            NegCount::Exact(n) | NegCount::AtLeast(n) => n,
        }
    }
}

/// A clause in the canonical form every scoring entry point hands to the
/// subsumption search. Only [`CoverageEngine::canonical`] constructs one, so
/// holding a `Canonical` proves the rewrite already happened and the entry
/// points trust it instead of canonicalizing again. Each clause is rewritten
/// once and every query about it searches that one form. Where the form is
/// complete ([`crate::canon::canonical_form_status`]) it is a fixpoint, so
/// a second rewrite would change nothing; an incomplete form is an
/// α-variant that a second rewrite could reorder (DESIGN.md §10).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Canonical(Clause);

impl Canonical {
    /// Unwraps the canonical clause.
    pub fn into_clause(self) -> Clause {
        self.0
    }
}

impl std::ops::Deref for Canonical {
    type Target = Clause;

    fn deref(&self) -> &Clause {
        &self.0
    }
}

/// Clauses above this body size bypass canonicalization: color refinement
/// on a many-thousand-literal bottom clause costs more than it saves, and
/// such clauses are never duplicated anyway. The threshold depends only on
/// the clause, so every query about one clause searches the same α-variant.
const CANON_MAX_LITERALS: usize = 512;

/// Ground BCs for every training example plus the subsumption budget.
#[derive(Debug)]
pub struct CoverageEngine {
    /// Ground BCs for the positives.
    pub pos: Vec<GroundClause>,
    /// Ground BCs for the negatives.
    pub neg: Vec<GroundClause>,
    scfg: SubsumeConfig,
}

impl CoverageEngine {
    /// Builds ground BCs for every example in `train`, in parallel, with the
    /// default worker-thread count.
    pub fn build(
        db: &Database,
        bias: &LanguageBias,
        train: &TrainingSet,
        bc_cfg: &BcConfig,
        scfg: SubsumeConfig,
        seed: u64,
    ) -> Self {
        let cfg = LearnerConfig {
            bc: *bc_cfg,
            subsume: scfg,
            seed,
            ..LearnerConfig::default()
        };
        Self::for_learner(db, bias, train, &cfg)
    }

    /// Builds the engine a learner configured by `cfg` runs on: its BC
    /// settings, subsumption budget and seed, with the ground clauses built
    /// on `cfg.threads` workers.
    pub fn for_learner(
        db: &Database,
        bias: &LanguageBias,
        train: &TrainingSet,
        cfg: &LearnerConfig,
    ) -> Self {
        let (threads, seed, bc_cfg) = (cfg.threads, cfg.seed, &cfg.bc);
        // One construction scratch per worker serves both maps.
        let mut scratches: Vec<BcScratch> = std::iter::repeat_with(BcScratch::default)
            .take(threads.max(1))
            .collect();
        let pos = parallel_map_in(&mut scratches, &train.pos, |s, i, e| {
            build_ground_clause_in(s, db, bias, e, bc_cfg, &mut example_rng(seed, false, i))
        });
        let neg = parallel_map_in(&mut scratches, &train.neg, |s, i, e| {
            build_ground_clause_in(s, db, bias, e, bc_cfg, &mut example_rng(seed, true, i))
        });
        Self {
            pos,
            neg,
            scfg: cfg.subsume,
        }
    }

    /// Subsumption budget in use.
    pub fn subsume_config(&self) -> &SubsumeConfig {
        &self.scfg
    }

    /// The canonical form every scoring entry point hands to the
    /// subsumption search (see the module docs for why). Oversized clauses
    /// pass through unchanged. The one constructor of [`Canonical`].
    pub fn canonical(&self, clause: &Clause) -> Canonical {
        Canonical(if clause.body.len() > CANON_MAX_LITERALS {
            clause.clone()
        } else {
            crate::canon::canonical_form(clause)
        })
    }

    /// Whether `clause` covers positive example `i`. Raw single-example
    /// test: no canonicalization (armg tests its prefix clauses through
    /// [`crate::subsume::PrefixProbe`] instead). The answer is a pure
    /// function of the clause and the example.
    pub fn covers_pos(&self, clause: &Clause, i: usize) -> bool {
        self.covers_pos_in(&mut Workspace::default(), clause, i)
    }

    /// Whether `clause` covers negative example `i` (raw, like
    /// [`CoverageEngine::covers_pos`]).
    pub fn covers_neg(&self, clause: &Clause, i: usize) -> bool {
        self.covers_neg_in(&mut Workspace::default(), clause, i)
    }

    /// [`CoverageEngine::covers_pos`] in the caller's workspace, for callers
    /// that run many tests.
    pub fn covers_pos_in(&self, ws: &mut Workspace, clause: &Clause, i: usize) -> bool {
        ws.theta_subsumes(clause, &self.pos[i], &self.scfg)
    }

    /// [`CoverageEngine::covers_neg`] in the caller's workspace.
    pub fn covers_neg_in(&self, ws: &mut Workspace, clause: &Clause, i: usize) -> bool {
        ws.theta_subsumes(clause, &self.neg[i], &self.scfg)
    }

    /// [`CoverageEngine::covers_pos_in`] for a clause prepared once for
    /// many examples.
    pub(crate) fn covers_pos_prepared(
        &self,
        ws: &mut Workspace,
        clause: &PreparedClause,
        i: usize,
    ) -> bool {
        ws.theta_subsumes_prepared(clause, &self.pos[i], &self.scfg)
    }

    /// [`CoverageEngine::covers_neg_in`] for a clause prepared once for
    /// many examples.
    pub(crate) fn covers_neg_prepared(
        &self,
        ws: &mut Workspace,
        clause: &PreparedClause,
        i: usize,
    ) -> bool {
        ws.theta_subsumes_prepared(clause, &self.neg[i], &self.scfg)
    }

    /// Positives among `candidates` covered by `clause`, as a bitset over
    /// all positives.
    pub fn covered_pos_mask(&self, clause: &Canonical, candidates: &Bitset) -> Bitset {
        let mut masks = self.batch_pos_masks(std::slice::from_ref(clause), candidates);
        masks.pop().expect("one mask per input clause")
    }

    /// Indices among `candidates` of positives covered by `clause`
    /// (in `candidates` order). Canonicalizes `clause` once.
    pub fn covered_pos_subset(&self, clause: &Clause, candidates: &[usize]) -> Vec<usize> {
        let mask = Bitset::from_indices(self.pos.len(), candidates);
        let covered = self.covered_pos_mask(&self.canonical(clause), &mask);
        candidates
            .iter()
            .copied()
            .filter(|&i| covered.get(i))
            .collect()
    }

    /// Positive-coverage counts for a batch of candidate clauses over one
    /// candidate set. Returns one count per clause.
    pub fn batch_covered_pos(&self, clauses: &[Canonical], candidates: &[usize]) -> Vec<usize> {
        let cand_mask = Bitset::from_indices(self.pos.len(), candidates);
        self.batch_pos_masks(clauses, &cand_mask)
            .iter()
            .map(Bitset::count_ones)
            .collect()
    }

    /// Shared positive-coverage core: tests every `(clause, requested
    /// example)` pair in one workspace, returning one mask per clause. Each
    /// clause is prepared once for all its examples.
    fn batch_pos_masks(&self, canons: &[Canonical], candidates: &Bitset) -> Vec<Bitset> {
        debug_assert_eq!(candidates.len(), self.pos.len());
        let mut sp = obs::span!("coverage.theta", "pos");
        sp.note("examples", (canons.len() * candidates.count_ones()) as u64);
        let mut ws = Workspace::default();
        canons
            .iter()
            .map(|canon| {
                let prepared = PreparedClause::new(canon);
                let mut covered = Bitset::new(self.pos.len());
                for i in candidates.ones() {
                    if self.covers_pos_prepared(&mut ws, &prepared, i) {
                        covered.set(i);
                    }
                }
                covered
            })
            .collect()
    }

    /// Number of negatives covered by `clause` (exact). Canonicalizes
    /// `clause` once.
    pub fn count_neg(&self, clause: &Clause) -> usize {
        self.count_neg_budget(&self.canonical(clause), None).value()
    }

    /// Negative count with a monotone cutoff: with `Some(c)`, counting stops
    /// at the negative that takes the count to `c + 1` and returns
    /// [`NegCount::AtLeast`]`(c + 1)`; with `None` the count is exact.
    /// Negatives are tested in index order, so which get tested, and every
    /// value this can return, is a pure function of the clause and cutoff.
    pub fn count_neg_budget(&self, canon: &Canonical, cutoff: Option<usize>) -> NegCount {
        let mut sp = obs::span!("coverage.theta", "neg");
        let prepared = PreparedClause::new(canon);
        let mut ws = Workspace::default();
        let total = self.neg.len();
        let mut count = 0usize;
        for i in 0..total {
            if !self.covers_neg_prepared(&mut ws, &prepared, i) {
                continue;
            }
            count += 1;
            if cutoff.is_some_and(|c| count > c) {
                instrument::NEG_TESTS_SKIPPED.add((total - i - 1) as u64);
                sp.note("examples", (i + 1) as u64);
                return NegCount::AtLeast(count);
            }
        }
        sp.note("examples", total as u64);
        NegCount::Exact(count)
    }

    /// The clause score used by generalization: positives covered (among
    /// `pos_candidates`) minus negatives covered (paper §2.3.2).
    /// Canonicalizes `clause` once for both halves.
    pub fn score(&self, clause: &Clause, pos_candidates: &[usize]) -> (i64, usize, usize) {
        let canon = self.canonical(clause);
        let mask = Bitset::from_indices(self.pos.len(), pos_candidates);
        let p = self.covered_pos_mask(&canon, &mask).count_ones();
        let n = self.count_neg_budget(&canon, None).value();
        (p as i64 - n as i64, p, n)
    }
}

/// The RNG that builds the ground bottom clause of positive (`negative`
/// false) or negative example `i` under run seed `seed`. Each example has
/// its own stream, so a clause does not depend on which worker builds it or
/// on what that worker built before; the engine and evaluation both build
/// through this one derivation.
pub(crate) fn example_rng(seed: u64, negative: bool, i: usize) -> StdRng {
    let salt = if negative { 0xdead_beef } else { 0 };
    StdRng::seed_from_u64(seed ^ salt ^ (i as u64).wrapping_mul(0x9e37_79b9))
}

/// The default worker-thread count: `AUTOBIAS_THREADS` when it is a
/// non-negative integer (clamped to ≥1), otherwise `available_parallelism`
/// capped at 8. Read once per process; a learner overrides it through
/// `LearnerConfig::threads`.
pub fn worker_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("AUTOBIAS_THREADS")
            .ok()
            .and_then(|v| parse_threads(&v))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
                    .min(8)
            })
    })
}

/// Parses an `AUTOBIAS_THREADS` value: a non-negative integer, surrounding
/// whitespace tolerated, clamped to ≥1 with no upper bound (operators may
/// oversubscribe, or pin to 1 for deterministic profiling). `None` for
/// anything else.
fn parse_threads(v: &str) -> Option<usize> {
    v.trim().parse::<usize>().ok().map(|n| n.max(1))
}

/// Maps `f` over `items` with indices, one worker per element of `states`
/// (at least one), in parallel when the collection is large enough to
/// amortize thread spawn cost. Each worker hands its own state to `f`, so
/// per-item scratch such as a construction [`BcScratch`] or a subsumption
/// [`Workspace`] is reused across the worker's chunk. Workers record their
/// spans into the caller's trace context, if one is installed, under the
/// caller's open span. Learning forks only here, once per ground-BC build;
/// evaluation's streaming pass is the other caller.
pub(crate) fn parallel_map_in<S: Send, T: Sync, U: Send>(
    states: &mut [S],
    items: &[T],
    f: impl Fn(&mut S, usize, &T) -> U + Sync,
) -> Vec<U> {
    let threads = states.len();
    let len = items.len();
    if threads <= 1 || len < 16 {
        let state = &mut states[0];
        return items
            .iter()
            .enumerate()
            .map(|(i, x)| f(state, i, x))
            .collect();
    }
    let chunk = len.div_ceil(threads);
    let mut out: Vec<Option<U>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    let handoff = obs::trace::handoff();
    crossbeam::thread::scope(|s| {
        for ((ti, out_chunk), state) in out.chunks_mut(chunk).enumerate().zip(states.iter_mut()) {
            let f = &f;
            let handoff = &handoff;
            let base = ti * chunk;
            s.spawn(move |_| {
                let _traced = handoff.as_ref().map(obs::trace::Handoff::install);
                for (j, slot) in out_chunk.iter_mut().enumerate() {
                    *slot = Some(f(state, base + j, &items[base + j]));
                }
            });
        }
    })
    .expect("coverage worker panicked");
    out.into_iter().map(|o| o.expect("slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::parse::parse_bias;
    use crate::bottom::{variablize, SamplingStrategy};
    use crate::example::Example;
    use relstore::fixtures::uw_fragment;

    fn engine() -> (Database, CoverageEngine, LanguageBias) {
        let mut db = uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        let juan = db.intern("juan");
        let sarita = db.intern("sarita");
        let john = db.intern("john");
        let mary = db.intern("mary");
        let bias = parse_bias(
            &db,
            target,
            "
pred student(T1)
pred inPhase(T1, T2)
pred professor(T3)
pred hasPosition(T3, T4)
pred publication(T5, T1)
pred publication(T5, T3)
pred advisedBy(T1, T3)
mode student(+)
mode inPhase(+, -)
mode professor(+)
mode hasPosition(+, -)
mode publication(-, +)
",
        )
        .unwrap();
        let train = TrainingSet::new(
            vec![
                Example::new(target, vec![juan, sarita]),
                Example::new(target, vec![john, mary]),
            ],
            vec![
                Example::new(target, vec![juan, mary]),
                Example::new(target, vec![john, sarita]),
            ],
        );
        let cfg = BcConfig {
            depth: 2,
            strategy: SamplingStrategy::Full,
            max_body_literals: 100_000,
            max_tuples: 1000,
        };
        let eng = CoverageEngine::build(&db, &bias, &train, &cfg, SubsumeConfig::default(), 1);
        (db, eng, bias)
    }

    #[test]
    fn bottom_clause_covers_its_own_example() {
        let (_, eng, bias) = engine();
        for i in 0..eng.pos.len() {
            let clause = variablize(&eng.pos[i], &bias, 100_000);
            assert!(eng.covers_pos(&clause, i), "BC must cover its example");
        }
    }

    #[test]
    fn coauthor_clause_separates_pos_from_neg() {
        // advisedBy(x,y) ← publication(z,x), publication(z,y):
        // true for (juan,sarita) and (john,mary); false for crossed pairs.
        let (db, eng, _) = engine();
        use crate::clause::{Literal, Term, VarId};
        let publ = db.rel_id("publication").unwrap();
        let adv = db.rel_id("advisedBy").unwrap();
        let v = |n| Term::Var(VarId(n));
        let clause = Clause::new(
            Literal::new(adv, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
            ],
        );
        assert_eq!(eng.covered_pos_subset(&clause, &[0, 1]), vec![0, 1]);
        assert_eq!(eng.count_neg(&clause), 0);
        assert_eq!(eng.score(&clause, &[0, 1]), (2, 2, 0));
    }

    #[test]
    fn overly_general_clause_covers_everything() {
        let (db, eng, _) = engine();
        use crate::clause::{Literal, Term, VarId};
        let adv = db.rel_id("advisedBy").unwrap();
        let v = |n| Term::Var(VarId(n));
        let clause = Clause::new(Literal::new(adv, vec![v(0), v(1)]), vec![]);
        assert_eq!(eng.covered_pos_subset(&clause, &[0, 1]).len(), 2);
        assert_eq!(eng.count_neg(&clause), 2);
    }

    /// A clause, its α-variant and a repeat query score identically: every
    /// query searches the one canonical form.
    #[test]
    fn repeat_and_alpha_equivalent_queries_score_identically() {
        let (db, eng, _) = engine();
        use crate::clause::{Literal, Term, VarId};
        let publ = db.rel_id("publication").unwrap();
        let adv = db.rel_id("advisedBy").unwrap();
        let v = |n| Term::Var(VarId(n));
        let clause = Clause::new(
            Literal::new(adv, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
            ],
        );
        // α-variant: renamed join variable, reordered body.
        let variant = Clause::new(
            Literal::new(adv, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(7), v(1)]),
                Literal::new(publ, vec![v(7), v(0)]),
            ],
        );
        assert_eq!(eng.canonical(&clause), eng.canonical(&variant));
        let first = eng.score(&clause, &[0, 1]);
        assert_eq!(first, (2, 2, 0));
        assert_eq!(eng.score(&variant, &[0, 1]), first, "α-variant");
        assert_eq!(eng.score(&clause, &[0, 1]), first, "repeat query");
    }

    #[test]
    fn partial_pos_requests_agree_with_full_requests() {
        let (db, eng, _) = engine();
        use crate::clause::{Literal, Term, VarId};
        let adv = db.rel_id("advisedBy").unwrap();
        let v = |n| Term::Var(VarId(n));
        let clause = Clause::new(Literal::new(adv, vec![v(0), v(1)]), vec![]);
        // Ask for example 0 only, then for both: the second call must agree
        // with a fresh full evaluation.
        assert_eq!(eng.covered_pos_subset(&clause, &[0]), vec![0]);
        assert_eq!(eng.covered_pos_subset(&clause, &[0, 1]), vec![0, 1]);
        let mask = eng.covered_pos_mask(
            &eng.canonical(&clause),
            &Bitset::from_indices(eng.pos.len(), &[0, 1]),
        );
        assert_eq!(mask.count_ones(), 2);
    }

    #[test]
    fn count_neg_budget_cutoff_agrees_with_exact_predicate() {
        let (db, eng, _) = engine();
        use crate::clause::{Literal, Term, VarId};
        let adv = db.rel_id("advisedBy").unwrap();
        let v = |n| Term::Var(VarId(n));
        let clause = Clause::new(Literal::new(adv, vec![v(0), v(1)]), vec![]);
        let exact = eng.count_neg(&clause);
        assert_eq!(exact, 2);
        for cutoff in 0..4 {
            let budgeted = eng.count_neg_budget(&eng.canonical(&clause), Some(cutoff));
            assert_eq!(
                budgeted.exceeds(Some(cutoff)),
                exact > cutoff,
                "cutoff {cutoff}"
            );
            if !budgeted.exceeds(Some(cutoff)) {
                assert_eq!(budgeted, NegCount::Exact(exact));
            }
        }
    }

    /// The serial cutoff stops at the negative that crosses it: for every
    /// cutoff below the exact count the answer is `AtLeast(cutoff + 1)`, and
    /// from the exact count up it is `Exact`, equal to a brute-force count.
    #[test]
    fn count_neg_budget_stops_exactly_one_past_the_cutoff() {
        use crate::clause::{Literal, Term, VarId};
        let mut db = Database::new();
        let r = db.add_relation("r", &["a"]);
        let q = db.add_relation("q", &["a"]);
        let target = db.add_relation("t", &["a"]);
        let mut examples = Vec::new();
        for i in 0..260 {
            let name = format!("x{i}");
            if i % 3 == 0 {
                db.insert(r, &[&name]);
            }
            if i % 5 == 0 {
                db.insert(q, &[&name]);
            }
            examples.push(Example::new(target, vec![db.intern(&name)]));
        }
        let bias = parse_bias(
            &db,
            target,
            "
pred r(T1)
pred q(T1)
pred t(T1)
mode r(+)
mode q(+)
",
        )
        .unwrap();
        let train = TrainingSet::new(examples[..2].to_vec(), examples);
        let cfg = BcConfig {
            depth: 1,
            strategy: SamplingStrategy::Full,
            max_body_literals: 100,
            max_tuples: 100,
        };
        let eng = CoverageEngine::build(&db, &bias, &train, &cfg, SubsumeConfig::default(), 1);
        let x = Term::Var(VarId(0));
        let lit = |rel| Literal::new(rel, vec![x]);
        let bodies = [vec![], vec![lit(r)], vec![lit(q)], vec![lit(r), lit(q)]];
        for body in bodies {
            let clause = Clause::new(lit(target), body);
            let canon = eng.canonical(&clause);
            let exact = (0..eng.neg.len())
                .filter(|&i| eng.covers_neg(&canon, i))
                .count();
            assert_eq!(eng.count_neg_budget(&canon, None), NegCount::Exact(exact));
            for cutoff in 0..=exact + 1 {
                let expected = if cutoff < exact {
                    NegCount::AtLeast(cutoff + 1)
                } else {
                    NegCount::Exact(exact)
                };
                assert_eq!(
                    eng.count_neg_budget(&canon, Some(cutoff)),
                    expected,
                    "{} at cutoff {cutoff}",
                    clause.render(&db)
                );
            }
        }
    }

    #[test]
    fn bitset_ops() {
        let mut a = Bitset::new(130);
        for i in [0, 63, 64, 100, 129] {
            a.set(i);
        }
        assert_eq!(a.count_ones(), 5);
        assert!(a.get(63) && a.get(64) && !a.get(65));
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![0, 63, 64, 100, 129]);
        let b = Bitset::from_indices(130, &[63, 100, 128]);
        assert_eq!(b.ones().collect::<Vec<_>>(), vec![63, 100, 128]);
        assert_eq!(Bitset::new(0).count_ones(), 0);
        assert!(Bitset::new(0).is_empty());
        assert_eq!(a.len(), 130);
    }

    #[test]
    fn neg_count_exceeds_semantics() {
        assert!(!NegCount::Exact(3).exceeds(Some(3)));
        assert!(NegCount::Exact(4).exceeds(Some(3)));
        assert!(!NegCount::Exact(4).exceeds(None));
        assert!(NegCount::AtLeast(4).exceeds(Some(3)));
        assert_eq!(NegCount::Exact(7).value(), 7);
        assert_eq!(NegCount::AtLeast(7).value(), 7);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map_in(&mut [(); 4], &items, |_, i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_range_matches_sequential() {
        let items: Vec<usize> = (10..310).collect();
        for threads in [1, 3, 16] {
            let mut states = vec![0usize; threads];
            let out = parallel_map_in(&mut states, &items, |n, i, &x| {
                *n += 1;
                assert_eq!(x, i + 10);
                x * 3
            });
            assert_eq!(out, (10..310).map(|i| i * 3).collect::<Vec<_>>());
            // Every index ran on exactly one worker's state.
            assert_eq!(states.iter().sum::<usize>(), 300);
            assert_eq!(
                parallel_map_in(&mut states, &items[5..5], |_, i, _| i),
                Vec::<usize>::new()
            );
        }
    }

    /// A traced caller's fan-out is one tree: every worker's span lands in
    /// the caller's context, parented to the span open at the call.
    #[test]
    fn parallel_map_workers_record_into_the_callers_trace() {
        let ctx = obs::trace::TraceCtx::begin(None);
        {
            let _traced = ctx.install();
            let _caller = obs::span!("test.fan_out");
            let items: Vec<usize> = (0..32).collect();
            let out = parallel_map_in(&mut [(), ()], &items, |_, i, _| {
                let _sp = obs::span!("test.fan_out_item");
                i
            });
            assert_eq!(out, (0..32).collect::<Vec<_>>());
        }
        let tree = ctx.finish();
        let caller = tree
            .spans
            .iter()
            .find(|s| s.name == "test.fan_out")
            .expect("caller span");
        let items: Vec<_> = tree
            .spans
            .iter()
            .filter(|s| s.name == "test.fan_out_item")
            .collect();
        assert_eq!(items.len(), 32, "every item's span is in the tree");
        assert!(items.iter().all(|s| s.parent_id == caller.span_id));
        let tids: std::collections::HashSet<u32> = items.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 2, "both workers recorded");
        assert!(!tids.contains(&caller.tid));
    }

    /// `AUTOBIAS_THREADS` values: clamped to ≥1, no upper bound,
    /// whitespace tolerated, garbage rejected (the default then applies).
    #[test]
    fn parse_threads_clamps_and_rejects_garbage() {
        assert_eq!(parse_threads("3"), Some(3));
        assert_eq!(parse_threads("32"), Some(32));
        assert_eq!(parse_threads("0"), Some(1));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("\t8\n"), Some(8));
        assert_eq!(parse_threads("not-a-number"), None);
        assert_eq!(parse_threads("-1"), None);
        assert_eq!(parse_threads(""), None);
        assert!(worker_threads() >= 1);
    }

    /// One worker and many workers map to the same output.
    #[test]
    fn parallel_map_is_thread_count_independent() {
        let items: Vec<usize> = (0..40).collect();
        let seq = parallel_map_in(&mut [()], &items, |_, _, &x| x + 1);
        let par = parallel_map_in(&mut [(); 16], &items, |_, _, &x| x + 1);
        assert_eq!(seq, par);
    }
}
