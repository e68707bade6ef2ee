//! θ-subsumption for coverage testing (paper §5).
//!
//! Clause `C` θ-subsumes ground clause `G` iff some substitution `θ` maps
//! every body literal of `C` onto a literal of `G` (with the head binding
//! fixed by the example). Subsumption is NP-hard; like the paper (which
//! follows Kuzelka–Zelezny's restarted strategy), we run a budgeted search
//! with a node cutoff and a bounded number of restarts, so the test is
//! *approximate*: it may report "not covered" for a covered example when the
//! search budget runs out, never the reverse.
//!
//! The search (DESIGN.md §15) is a forward-checking CSP over word-parallel
//! `u64` bitset domains. Each body literal's candidate set (ground literals
//! of the same relation compatible with its constants and the head binding)
//! becomes a bitset; assigning a literal intersects the domains of every
//! unassigned literal sharing a *newly bound* variable with an on-the-fly
//! compatibility mask computed over currently-set bits only. Literals are
//! chosen smallest-domain-first (MRV over maintained popcounts), the body is
//! decomposed into connected components over unbound variables (each solved
//! independently, so restarts never re-explore a solved component), and each
//! component runs a cheap forward-checking-only pass before escalating to
//! maintained arc consistency (MAC) with the remaining per-call node budget.
//!
//! Restart permutations come from a private [`StdRng`] seeded by a hash of
//! the clause and the ground example, so the answer is a pure function of
//! `(clause, ground, cfg)` — search-internal ordering never shifts a
//! caller's RNG stream. Exact SPJ evaluation ([`crate::query::clause_covers`])
//! is the reference the differential suite (`tests/differential_subsume.rs`)
//! checks this search against.
//!
//! ```
//! use autobias::bottom::{GroundClause, GroundLiteral};
//! use autobias::clause::{Clause, Literal, Term, VarId};
//! use autobias::example::Example;
//! use autobias::subsume::{theta_subsumes, SubsumeConfig};
//! use relstore::{Const, RelId};
//!
//! // ground BC: head t(1, 2); body r(1, 10), s(10).
//! let ground = GroundClause::new(
//!     Example::new(RelId(9), vec![Const(1), Const(2)]),
//!     vec![
//!         GroundLiteral { rel: RelId(0), vals: vec![Const(1), Const(10)].into() },
//!         GroundLiteral { rel: RelId(1), vals: vec![Const(10)].into() },
//!     ],
//! );
//! // clause: t(x, y) ← r(x, z), s(z)
//! let v = |n| Term::Var(VarId(n));
//! let clause = Clause::new(
//!     Literal::new(RelId(9), vec![v(0), v(1)]),
//!     vec![
//!         Literal::new(RelId(0), vec![v(0), v(2)]),
//!         Literal::new(RelId(1), vec![v(2)]),
//!     ],
//! );
//! assert!(theta_subsumes(&clause, &ground, &SubsumeConfig::default()));
//! ```

use crate::bottom::GroundClause;
use crate::clause::{Clause, Literal, Term, VarId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relstore::Const;

/// Search budget for one subsumption test.
#[derive(Debug, Clone, Copy)]
pub struct SubsumeConfig {
    /// Backtracking nodes explored before a restart.
    pub node_limit: usize,
    /// Randomized restarts before giving up (answering `false`).
    pub max_restarts: usize,
}

impl Default for SubsumeConfig {
    fn default() -> Self {
        Self {
            node_limit: 20_000,
            max_restarts: 3,
        }
    }
}

impl SubsumeConfig {
    /// A budget that never cuts off: the search runs to completion, so the
    /// answer is the *exact* θ-subsumption relation (`Outcome::Cutoff` can
    /// never occur). Exponential in the worst case — meant for test oracles
    /// on small instances (see `tests/differential_subsume.rs`), not for
    /// learning.
    pub fn unbounded() -> Self {
        Self {
            node_limit: usize::MAX,
            max_restarts: 0,
        }
    }
}

/// Whether `clause` θ-subsumes `ground` — i.e. whether the clause covers the
/// ground BC's example (Definition 2.4 via the §5 reduction).
pub fn theta_subsumes(clause: &Clause, ground: &GroundClause, cfg: &SubsumeConfig) -> bool {
    PrefixProbe::new(clause, ground).covers(clause.body.len(), cfg)
}

/// θ-subsumption tests of the prefix clauses `T ← L1, …, Llen` of one clause
/// against one ground example, as armg's blocking-atom search asks them.
///
/// The head binding and the per-literal candidate lists depend only on the
/// example and on each literal itself, never on which prefix is tested, so
/// the probe computes them once and shares them across every prefix it
/// tests: the lists are filled lazily, up to the longest prefix asked for
/// so far. Only the variable→literal index and the component split are
/// rebuilt per prefix. [`PrefixProbe::covers`] answers exactly what
/// [`theta_subsumes`] answers on the materialized prefix clause — same
/// restart seed, same search — without copying the prefix;
/// `theta_subsumes` is itself a one-prefix probe.
pub struct PrefixProbe<'a> {
    head: &'a Literal,
    body: &'a [Literal],
    ground: &'a GroundClause,
    /// Head binding (variable → constant fixed by the example), or `None`
    /// when the head cannot match the example, which refutes every prefix.
    binding: Option<Vec<Option<Const>>>,
    cands: CandTable,
    /// Components [`PrefixProbe::covers_given`] skipped as proven so far.
    skipped: u64,
}

impl<'a> PrefixProbe<'a> {
    /// A probe of `clause`'s prefixes against `ground`; binds the head.
    pub fn new(clause: &'a Clause, ground: &'a GroundClause) -> Self {
        Self::with_table(clause, ground, CandTable::default())
    }

    /// A probe that starts from `cands`, a table filled by an earlier probe
    /// of a clause with the same head against the same `ground`, and
    /// remapped through every body edit since (see [`CandTable::remove`]
    /// and [`CandTable::keep`]).
    pub(crate) fn with_table(
        clause: &'a Clause,
        ground: &'a GroundClause,
        cands: CandTable,
    ) -> Self {
        Self {
            head: &clause.head,
            body: &clause.body,
            ground,
            binding: bind_head(clause, ground),
            cands,
            skipped: 0,
        }
    }

    /// Hands the candidate table back, for the next probe of an edited body.
    pub(crate) fn into_table(self) -> CandTable {
        self.cands
    }

    /// Components skipped as proven by [`PrefixProbe::covers_given`] over
    /// this probe's lifetime.
    pub(crate) fn skipped_components(&self) -> u64 {
        self.skipped
    }

    /// Whether the prefix clause `T ← body[..len]` θ-subsumes the ground
    /// example: the answer [`theta_subsumes`] gives on that clause. Each
    /// call is one subsumption test. Panics when `len` exceeds the body.
    pub fn covers(&mut self, len: usize, cfg: &SubsumeConfig) -> bool {
        self.covers_given(len, 0, cfg)
    }

    /// [`PrefixProbe::covers`] for a caller that knows the prefix
    /// `body[..proven]` covers the example. The search then skips every
    /// component of `body[..len]` whose literals all lie in `body[..proven]`:
    /// such a component is a sub-body of a clause that covers the example,
    /// so it is satisfiable. Skipping can only turn a budget-exhausted "not
    /// covered" into "covered", never claim "covered" wrongly; under an
    /// unbounded budget the answer equals [`PrefixProbe::covers`].
    pub fn covers_given(&mut self, len: usize, proven: usize, cfg: &SubsumeConfig) -> bool {
        crate::instrument::SUBSUMPTION_TESTS.bump();
        let Some(binding) = &self.binding else {
            return false;
        };
        if len == 0 {
            return true;
        }
        let body = &self.body[..len];
        if !self.cands.fill(body, binding, self.ground) {
            return false;
        }
        let prep = Prepared::new(body, binding, self.cands.slices(len));
        // Restart permutations come from a per-test RNG derived from the
        // clause and the example, never from caller state: the answer is a
        // pure function of the inputs, identical no matter which tests ran
        // before.
        let mut rng = StdRng::seed_from_u64(derive_seed(self.head, body, self.ground));
        let (covered, skipped) = bitset_subsumes(body, self.ground, cfg, &prep, proven, &mut rng);
        self.skipped += skipped;
        covered
    }
}

/// FNV-1a accumulator for the per-test RNG seed; deliberately hand-rolled so
/// the seed is stable across std hasher changes (bench baselines compare
/// learned output across builds).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn mix(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn term(&mut self, t: &Term) {
        match *t {
            Term::Var(v) => {
                self.mix(1);
                self.mix(u64::from(v.0));
            }
            Term::Const(c) => {
                self.mix(2);
                self.mix(u64::from(c.0));
            }
        }
    }
    fn literal(&mut self, l: &Literal) {
        self.mix(u64::from(l.rel.0));
        for t in &l.args {
            self.term(t);
        }
    }
}

/// The restart-permutation seed for one `(head ← body, ground)` test: a hash
/// of the clause structure and the ground example. The ground *body* is
/// summed up only by its length — hashing thousands of BC literals per test
/// would cost more than the search it seeds.
fn derive_seed(head: &Literal, body: &[Literal], ground: &GroundClause) -> u64 {
    let mut h = Fnv::new();
    h.literal(head);
    h.mix(body.len() as u64);
    for l in body {
        h.literal(l);
    }
    h.mix(u64::from(ground.example.rel.0));
    for &c in &ground.example.args {
        h.mix(u64::from(c.0));
    }
    h.mix(ground.body.len() as u64);
    h.0
}

/// Head binding: relation and arity must match; head vars bind to the
/// example's constants, head constants must equal them. `None` on mismatch.
fn bind_head(clause: &Clause, ground: &GroundClause) -> Option<Vec<Option<Const>>> {
    if clause.head.rel != ground.example.rel || clause.head.args.len() != ground.example.args.len()
    {
        return None;
    }
    let mut binding: Vec<Option<Const>> = vec![None; clause.num_vars() as usize];
    for (term, &c) in clause.head.args.iter().zip(ground.example.args.iter()) {
        match *term {
            Term::Var(v) => match binding[v.index()] {
                None => binding[v.index()] = Some(c),
                Some(b) if b == c => {}
                Some(_) => return None,
            },
            Term::Const(k) if k != c => return None,
            Term::Const(_) => {}
        }
    }
    Some(binding)
}

/// (relation, required-constant signature, pool index) of one distinct list.
type SigEntry = (relstore::RelId, Vec<(u32, Const)>, u32);

/// Static candidate lists per body literal: ground literals of the same
/// relation whose constant positions and head-bound variables match. The
/// search only re-filters these by later variable bindings.
///
/// The static filter only sees a literal's *required constants* (explicit
/// `#` constants and head-bound variables); armg bodies are full of
/// same-relation literals differing only in unbound search variables, so
/// lists are memoized by (relation, required-constant signature) and
/// same-signature literals share one list instead of rescanning.
///
/// A list depends only on its literal, the head binding and the example,
/// so one table serves every body armg derives from a clause by deleting
/// literals: [`CandTable::remove`] and [`CandTable::keep`] mirror the
/// deletions on the literal → list index, and the lists stay valid.
#[derive(Default)]
pub(crate) struct CandTable {
    /// Distinct candidate lists, one per signature.
    pool: Vec<Vec<u32>>,
    /// Body literal → index into `pool`, for the leading literals filled so
    /// far.
    of: Vec<u32>,
    /// (relation, required-constant signature) → pool index. Distinct
    /// signatures per clause number in the single digits, so a linear scan
    /// beats a hash map (no hashing, no table allocation).
    sigs: Vec<SigEntry>,
    /// Set when literal `of.len()` has an empty list: filling stops there,
    /// and every prefix containing that literal is refuted.
    empty: bool,
}

impl CandTable {
    /// Fills the lists of `body` (a prefix of the probed clause's body)
    /// that are not filled yet. Returns `false` when one of them is empty,
    /// which refutes the prefix without search — the common case for
    /// `#`-literals whose constant does not occur in this example's
    /// neighbourhood.
    fn fill(&mut self, body: &[Literal], binding: &[Option<Const>], ground: &GroundClause) -> bool {
        while self.of.len() < body.len() {
            if self.empty {
                return false;
            }
            let lit = &body[self.of.len()];
            let mut sig: Vec<(u32, Const)> = Vec::new();
            for (p, t) in lit.args.iter().enumerate() {
                let req = match *t {
                    Term::Const(c) => Some(c),
                    Term::Var(v) => binding[v.index()],
                };
                if let Some(c) = req {
                    sig.push((p as u32, c));
                }
            }
            if let Some(&(_, _, idx)) = self
                .sigs
                .iter()
                .find(|(r, s, _)| *r == lit.rel && *s == sig)
            {
                self.of.push(idx);
                continue;
            }
            let arity = lit.args.len();
            let cands: Vec<u32> = ground
                .literals_of(lit.rel)
                .iter()
                .copied()
                .filter(|&gi| {
                    let g = &ground.body[gi as usize];
                    arity == g.vals.len() && sig.iter().all(|&(p, c)| g.vals[p as usize] == c)
                })
                .collect();
            if cands.is_empty() {
                self.empty = true;
                return false;
            }
            let idx = self.pool.len() as u32;
            self.sigs.push((lit.rel, sig, idx));
            self.of.push(idx);
            self.pool.push(cands);
        }
        true
    }

    /// Mirrors `body.remove(i)` on the probed body.
    pub(crate) fn remove(&mut self, i: usize) {
        if i < self.of.len() {
            self.of.remove(i);
        } else if i == self.of.len() {
            // The literal with the empty list is gone; the next one is unfilled.
            self.empty = false;
        }
    }

    /// Mirrors keeping only the body literals at the ascending positions
    /// `kept` (`Clause::keep_body`) on the probed body.
    pub(crate) fn keep(&mut self, kept: &[usize]) {
        let filled = self.of.len();
        let mut w = 0;
        for &i in kept.iter().take_while(|&&i| i < filled) {
            self.of[w] = self.of[i];
            w += 1;
        }
        self.of.truncate(w);
        // The empty-list literal stays first past the filled ones iff kept.
        self.empty &= kept.get(w) == Some(&filled);
    }

    /// The candidate lists of the first `len` body literals (all filled).
    fn slices(&self, len: usize) -> Vec<&[u32]> {
        self.of[..len]
            .iter()
            .map(|&i| self.pool[i as usize].as_slice())
            .collect()
    }
}

/// The per-prefix search structure: the shared head binding and candidate
/// lists, plus the variable→literal index and components of this prefix.
struct Prepared<'a> {
    /// Head binding: variable → constant fixed by the example.
    binding: &'a [Option<Const>],
    /// Body literal → its static candidate list.
    cands: Vec<&'a [u32]>,
    /// Var index → body literals containing it (forward-checking targets),
    /// CSR layout: `lbv_off[v]..lbv_off[v + 1]` indexes `lbv_flat`. Flat
    /// storage keeps this to two allocations instead of one Vec per
    /// variable — it is built once per subsumption test.
    lbv_off: Vec<u32>,
    lbv_flat: Vec<u32>,
    /// Connected components of body literals over *unbound* variables,
    /// smallest first. Components share no search state, so each is solved
    /// independently — restarts never re-explore a solved component.
    components: Vec<Vec<usize>>,
}

impl<'a> Prepared<'a> {
    fn new(body: &[Literal], binding: &'a [Option<Const>], cands: Vec<&'a [u32]>) -> Self {
        // Var → literals, CSR: count (deduping repeats within one literal via
        // a last-literal stamp), prefix-sum, fill.
        let num_vars = binding.len();
        let n_body = body.len();
        let mut lbv_off = vec![0u32; num_vars + 1];
        let mut last_seen = vec![u32::MAX; num_vars];
        for (li, lit) in body.iter().enumerate() {
            for v in lit.vars() {
                if last_seen[v.index()] != li as u32 {
                    last_seen[v.index()] = li as u32;
                    lbv_off[v.index() + 1] += 1;
                }
            }
        }
        for v in 0..num_vars {
            lbv_off[v + 1] += lbv_off[v];
        }
        let mut lbv_flat = vec![0u32; lbv_off[num_vars] as usize];
        let mut cursor: Vec<u32> = lbv_off[..num_vars].to_vec();
        last_seen.iter_mut().for_each(|s| *s = u32::MAX);
        for (li, lit) in body.iter().enumerate() {
            for v in lit.vars() {
                if last_seen[v.index()] != li as u32 {
                    last_seen[v.index()] = li as u32;
                    lbv_flat[cursor[v.index()] as usize] = li as u32;
                    cursor[v.index()] += 1;
                }
            }
        }

        // Decompose the body into connected components over *unbound*
        // variables (head-bound vars don't link literals — their values are
        // fixed); same partition as `Clause::connected_body_components`.
        // Bottom clauses carry many trivially satisfiable side-literals, and
        // decomposition keeps them from multiplying the search space of the
        // part that matters.
        let mut comp_of: Vec<u32> = (0..n_body as u32).collect();
        fn find_root(comp_of: &mut [u32], mut x: u32) -> u32 {
            while comp_of[x as usize] != x {
                let parent = comp_of[x as usize];
                comp_of[x as usize] = comp_of[parent as usize];
                x = parent;
            }
            x
        }
        for v in 0..num_vars {
            let lits = &lbv_flat[lbv_off[v] as usize..lbv_off[v + 1] as usize];
            if binding[v].is_some() || lits.len() < 2 {
                continue;
            }
            let first = find_root(&mut comp_of, lits[0]);
            for &l in &lits[1..] {
                let r = find_root(&mut comp_of, l);
                comp_of[r as usize] = first;
            }
        }
        // Group by root in first-occurrence order (deterministic, no hashing).
        let mut components: Vec<Vec<usize>> = Vec::new();
        let mut comp_idx: Vec<u32> = vec![u32::MAX; n_body];
        for li in 0..n_body {
            let root = find_root(&mut comp_of, li as u32) as usize;
            if comp_idx[root] == u32::MAX {
                comp_idx[root] = components.len() as u32;
                components.push(Vec::new());
            }
            components[comp_idx[root] as usize].push(li);
        }
        // Small components first: cheap refutations come earliest.
        components.sort_by_key(Vec::len);
        if components.len() > 1 {
            crate::instrument::SUBSUME_COMPONENTS_SPLIT.add(components.len() as u64 - 1);
        }

        Prepared {
            binding,
            cands,
            lbv_off,
            lbv_flat,
            components,
        }
    }

    /// Body literals containing variable `v`, deduplicated, ascending.
    #[inline]
    fn lits_of_var(&self, v: usize) -> &[u32] {
        &self.lbv_flat[self.lbv_off[v] as usize..self.lbv_off[v + 1] as usize]
    }
}

enum Outcome {
    Found,
    Exhausted,
    Cutoff,
}

// ---------------------------------------------------------------------------
// Bitset engine: forward-checking CSP over word-parallel domains.
// ---------------------------------------------------------------------------

/// Number of `u64` words needed for `n` candidate bits.
fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// One body literal's CSP state: the location of its bitset domain over its
/// static candidate list in the flat domain vector.
struct LitCsp {
    /// Offset of this literal's domain words in the flat domain vector.
    off: usize,
    /// Domain width in `u64` words.
    width: usize,
}

struct BitsetSearch<'a> {
    body: &'a [Literal],
    static_cands: &'a [&'a [u32]],
    prep: &'a Prepared<'a>,
    ground: &'a GroundClause,
    lits: Vec<LitCsp>,
    /// Flat per-literal domain bitsets (current search state).
    dom: Vec<u64>,
    /// Pristine copy of `dom` (head binding applied, nothing else).
    dom0: Vec<u64>,
    /// Per-literal popcount of `dom` (MRV key).
    counts: Vec<u32>,
    counts0: Vec<u32>,
    /// Targeted-undo log: one entry per intersected literal, pointing at its
    /// saved words in `undo_words`. Unwound to a mark on backtrack, so a
    /// failed candidate costs only the domains it actually touched — not a
    /// full-state snapshot.
    undo_lits: Vec<(u32, u32, u32)>,
    undo_words: Vec<u64>,
    /// Bound-variable scratch, used with mark/truncate across recursion.
    trail: Vec<VarId>,
    active: Vec<usize>,
    nodes: usize,
    /// Budget ceiling for the current phase (`<= cfg.node_limit`): the
    /// forward-checking-only first pass runs against a small slice so easy
    /// tests never pay for propagation machinery they don't need.
    limit: usize,
    /// Whether to maintain arc consistency during search: `false` during
    /// the cheap first pass (plain forward checking), `true` once a
    /// component has proven hard enough to trip the first-pass budget.
    mac: bool,
    /// Domain words touched by intersections — the `subsume_domain_words`
    /// counter's contribution from this test.
    words: u64,
    /// Per-depth candidate-order buffers, pooled across candidates,
    /// restarts, and components to avoid a heap allocation per node.
    orders: Vec<Vec<u32>>,
    /// Arc-consistency worklist: literal indices whose domain shrank and
    /// whose neighbours still need revising, with membership flags and the
    /// single literal that caused the shrink (`u32::MAX` when several did,
    /// or when the shrink came from an assignment): revising the causer
    /// back is the one arc guaranteed to be a no-op, so it is skipped.
    queue: Vec<u32>,
    in_queue: Vec<bool>,
    cause: Vec<u32>,
    /// Scratch for the compatibility masks built by `fc_apply` and
    /// `revise_pair`.
    mask_scratch: Vec<u64>,
    /// Per-literal visited stamps for deduping forward-check targets when a
    /// candidate binds several variables at once (generation counter, never
    /// cleared).
    stamp: Vec<u64>,
    stamp_gen: u64,
    /// Distinct body literals sharing a search-bound variable with each
    /// literal (CSR layout: `neighbors_off[li]..neighbors_off[li + 1]`
    /// indexes `neighbors_flat`) — the propagation targets of an assignment.
    neighbors_off: Vec<u32>,
    neighbors_flat: Vec<u32>,
}

/// Outcome of revising one literal's domain against a support set.
enum Revised {
    Unchanged,
    Shrunk,
    Empty,
}

impl<'a> BitsetSearch<'a> {
    fn new(
        body: &'a [Literal],
        ground: &'a GroundClause,
        cfg: &'a SubsumeConfig,
        prep: &'a Prepared<'a>,
    ) -> Self {
        let n = body.len();
        let static_cands = prep.cands.as_slice();
        let mut lits = Vec::with_capacity(n);
        let mut off = 0usize;
        for cands in static_cands {
            let width = words_for(cands.len());
            lits.push(LitCsp { off, width });
            off += width;
        }
        let mut dom0 = vec![0u64; off];
        let mut counts0 = vec![0u32; n];
        for (li, cands) in static_cands.iter().enumerate() {
            let l = &lits[li];
            for w in 0..l.width {
                let bits = (cands.len() - w * 64).min(64);
                dom0[l.off + w] = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
            }
            counts0[li] = cands.len() as u32;
        }
        BitsetSearch {
            body,
            static_cands,
            prep,
            ground,
            lits,
            dom: dom0.clone(),
            dom0,
            counts: counts0.clone(),
            counts0,
            undo_lits: Vec::new(),
            undo_words: Vec::new(),
            trail: Vec::new(),
            active: Vec::new(),
            nodes: 0,
            limit: cfg.node_limit,
            mac: true,
            words: 0,
            orders: Vec::new(),
            queue: Vec::new(),
            in_queue: vec![false; n],
            cause: vec![u32::MAX; n],
            mask_scratch: Vec::new(),
            stamp: vec![0; n],
            stamp_gen: 0,
            neighbors_off: Vec::new(),
            neighbors_flat: Vec::new(),
        }
    }

    /// Builds the propagation-target CSR on first escalation to the
    /// arc-consistency phase — the distinct literals sharing a variable
    /// that is unbound at prepare time (head-bound vars are folded into
    /// the static candidate lists and never propagate). Most tests finish
    /// in the forward-checking pass and never pay for this.
    fn ensure_neighbors(&mut self) {
        if !self.neighbors_off.is_empty() {
            return;
        }
        let n = self.body.len();
        self.neighbors_off.reserve(n + 1);
        let mut stamp: Vec<u32> = vec![u32::MAX; n];
        self.neighbors_off.push(0);
        for (li, lit) in self.body.iter().enumerate() {
            for t in &lit.args {
                if let Term::Var(v) = *t {
                    if self.prep.binding[v.index()].is_some() {
                        continue;
                    }
                    for &lk in self.prep.lits_of_var(v.index()) {
                        if lk as usize != li && stamp[lk as usize] != li as u32 {
                            stamp[lk as usize] = li as u32;
                            self.neighbors_flat.push(lk);
                        }
                    }
                }
            }
            self.neighbors_off.push(self.neighbors_flat.len() as u32);
        }
    }

    /// Resets domains and counts to their pristine (head-bound) state.
    /// The node budget is deliberately *not* reset: `node_limit` bounds the work of the whole call (all components, all
    /// restarts, propagation included), which caps the worst-case latency
    /// of refutation-heavy tests. Budget exhaustion still only ever yields
    /// a conservative "not covered".
    fn reset(&mut self) {
        self.dom.copy_from_slice(&self.dom0);
        self.counts.copy_from_slice(&self.counts0);
        self.undo_lits.clear();
        self.undo_words.clear();
        self.trail.clear();
        self.drain_queue();
    }

    /// Empties the AC worklist, clearing membership flags.
    fn drain_queue(&mut self) {
        for &lj in &self.queue {
            self.in_queue[lj as usize] = false;
        }
        self.queue.clear();
    }

    /// Unwinds the targeted-undo log back to `mark`, restoring the saved
    /// domain words and popcounts of every literal intersected since.
    fn unwind(&mut self, mark: usize) {
        while self.undo_lits.len() > mark {
            let (lj, old_count, word_at) = self.undo_lits.pop().expect("non-empty past mark");
            let (off, width) = {
                let l = &self.lits[lj as usize];
                (l.off, l.width)
            };
            let src = word_at as usize;
            self.dom[off..off + width].copy_from_slice(&self.undo_words[src..src + width]);
            self.counts[lj as usize] = old_count;
            self.undo_words.truncate(src);
        }
    }

    /// Shrink-driven arc-consistency propagation (MAC, Django-style): while
    /// some literal's domain has shrunk, prune each unassigned neighbour to
    /// the candidates still compatible with it. Only values with *no*
    /// remaining support are removed, so the solution set is untouched —
    /// this is a pure search-space reduction layered on forward checking,
    /// and it is what keeps refutation-heavy components from thrashing.
    /// Propagation work is charged to the node budget; when the budget
    /// trips, pruning simply stops (sound: the search then notices the
    /// cutoff itself). Returns `false` when a domain empties.
    fn propagate(&mut self, assigned: &[bool]) -> bool {
        while let Some(lj) = self.queue.pop() {
            self.in_queue[lj as usize] = false;
            let skip = self.cause[lj as usize];
            let (a, b) = (
                self.neighbors_off[lj as usize] as usize,
                self.neighbors_off[lj as usize + 1] as usize,
            );
            for slot in a..b {
                let lk = self.neighbors_flat[slot] as usize;
                if assigned[lk] || lk as u32 == skip {
                    continue;
                }
                self.nodes += 1;
                if self.nodes > self.limit {
                    self.drain_queue();
                    return true;
                }
                match self.revise_pair(lj as usize, lk) {
                    Revised::Empty => {
                        self.drain_queue();
                        return false;
                    }
                    Revised::Shrunk => self.maybe_enqueue(lk, lj),
                    Revised::Unchanged => {}
                }
            }
        }
        true
    }

    /// Queues `lk` for propagation after a shrink caused by `from`
    /// (`u32::MAX` for an assignment), folding multiple causes together.
    fn maybe_enqueue(&mut self, lk: usize, from: u32) {
        if self.in_queue[lk] {
            if self.cause[lk] != from {
                self.cause[lk] = u32::MAX;
            }
        } else {
            self.in_queue[lk] = true;
            self.cause[lk] = from;
            self.queue.push(lk as u32);
        }
    }

    /// Extracts the position pairs constrained to be equal by a variable
    /// shared between body literals `li` and `lj`. Tiny arities make this a
    /// handful of comparisons — far cheaper than materializing and caching
    /// compatibility tables, which profiling showed are used ~1.4 times
    /// each before the test ends.
    #[inline]
    fn cons_pairs(body: &[Literal], li: usize, lj: usize) -> ([(u8, u8); 16], usize) {
        let mut cons: [(u8, u8); 16] = [(0, 0); 16];
        let mut n_cons = 0usize;
        for (pi, t) in body[li].args.iter().enumerate() {
            if let Term::Var(v) = *t {
                for (pj, t2) in body[lj].args.iter().enumerate() {
                    if matches!(t2, Term::Var(v2) if *v2 == v) && n_cons < cons.len() {
                        cons[n_cons] = (pi as u8, pj as u8);
                        n_cons += 1;
                    }
                }
            }
        }
        (cons, n_cons)
    }

    /// ANDs `mask` into literal `lk`'s domain, logging undo state on change.
    #[allow(clippy::too_many_arguments)]
    fn apply_mask(
        dom: &mut [u64],
        counts: &mut [u32],
        undo_lits: &mut Vec<(u32, u32, u32)>,
        undo_words: &mut Vec<u64>,
        off: usize,
        width: usize,
        lk: usize,
        mask: &[u64],
    ) -> Revised {
        let mut changed = false;
        let mut count = 0u32;
        for wd in 0..width {
            let nw = dom[off + wd] & mask[wd];
            changed |= nw != dom[off + wd];
            count += nw.count_ones();
        }
        if !changed {
            return Revised::Unchanged;
        }
        undo_lits.push((lk as u32, counts[lk], undo_words.len() as u32));
        undo_words.extend_from_slice(&dom[off..off + width]);
        for wd in 0..width {
            dom[off + wd] &= mask[wd];
        }
        counts[lk] = count;
        if count == 0 {
            Revised::Empty
        } else {
            Revised::Shrunk
        }
    }

    /// Applies the choice `li = ci` to neighbour `lj`'s domain: one
    /// word-parallel AND with the on-the-fly compatibility mask, covering
    /// every variable the two literals share at once. The mask is computed
    /// over `lj`'s *currently set* bits only, so the scan shrinks as the
    /// domain does, and nothing is allocated or cached.
    fn fc_apply(&mut self, li: usize, lj: usize, ci: usize) -> Revised {
        let (cons, n_cons) = Self::cons_pairs(self.body, li, lj);
        let BitsetSearch {
            static_cands,
            ground,
            lits,
            dom,
            counts,
            undo_lits,
            undo_words,
            mask_scratch,
            words,
            ..
        } = self;
        let (off, width) = (lits[lj].off, lits[lj].width);
        let gvi = &ground.body[static_cands[li][ci] as usize].vals;
        mask_scratch.clear();
        mask_scratch.resize(width, 0);
        for wd in 0..width {
            let mut bits = dom[off + wd];
            let mut keep = 0u64;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                let cj = wd * 64 + tz as usize;
                let gvj = &ground.body[static_cands[lj][cj] as usize].vals;
                if cons[..n_cons]
                    .iter()
                    .all(|&(pi, pj)| gvi[pi as usize] == gvj[pj as usize])
                {
                    keep |= 1u64 << tz;
                }
            }
            mask_scratch[wd] = keep;
        }
        *words += width as u64;
        Self::apply_mask(
            dom,
            counts,
            undo_lits,
            undo_words,
            off,
            width,
            lj,
            mask_scratch,
        )
    }

    /// Revises `lk` against `lj`: keeps only `lk`-candidates with at least
    /// one supporting candidate in `lj`'s current domain (classic AC-3
    /// revise with first-support early exit, over set bits only).
    fn revise_pair(&mut self, lj: usize, lk: usize) -> Revised {
        let (off_j, width_j) = (self.lits[lj].off, self.lits[lj].width);
        // Singleton source: support can only come from the one candidate —
        // identical to a forward check against it.
        if self.counts[lj] == 1 {
            let wd = (0..width_j)
                .find(|&wd| self.dom[off_j + wd] != 0)
                .expect("count 1 has a set bit");
            let ci = wd * 64 + self.dom[off_j + wd].trailing_zeros() as usize;
            return self.fc_apply(lj, lk, ci);
        }
        let (cons, n_cons) = Self::cons_pairs(self.body, lj, lk);
        let BitsetSearch {
            static_cands,
            ground,
            lits,
            dom,
            counts,
            undo_lits,
            undo_words,
            mask_scratch,
            words,
            ..
        } = self;
        let (off_k, width_k) = (lits[lk].off, lits[lk].width);
        mask_scratch.clear();
        mask_scratch.resize(width_k, 0);
        for wd_k in 0..width_k {
            let mut bits_k = dom[off_k + wd_k];
            let mut keep = 0u64;
            'target: while bits_k != 0 {
                let tz_k = bits_k.trailing_zeros();
                bits_k &= bits_k - 1;
                let ck = wd_k * 64 + tz_k as usize;
                let gvk = &ground.body[static_cands[lk][ck] as usize].vals;
                for wd_j in 0..width_j {
                    let mut bits_j = dom[off_j + wd_j];
                    while bits_j != 0 {
                        let tz_j = bits_j.trailing_zeros();
                        bits_j &= bits_j - 1;
                        let cj = wd_j * 64 + tz_j as usize;
                        let gvj = &ground.body[static_cands[lj][cj] as usize].vals;
                        if cons[..n_cons]
                            .iter()
                            .all(|&(pj, pk)| gvj[pj as usize] == gvk[pk as usize])
                        {
                            keep |= 1u64 << tz_k;
                            continue 'target;
                        }
                    }
                }
            }
            mask_scratch[wd_k] = keep;
        }
        *words += width_k as u64;
        Self::apply_mask(
            dom,
            counts,
            undo_lits,
            undo_words,
            off_k,
            width_k,
            lk,
            mask_scratch,
        )
    }

    /// Candidate bit-positions of literal `li`'s current domain, in
    /// ascending order, into `out`.
    fn collect_order(&self, li: usize, out: &mut Vec<u32>) {
        out.clear();
        let l = &self.lits[li];
        for w in 0..l.width {
            let mut bits = self.dom[l.off + w];
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                out.push((w * 64) as u32 + tz);
            }
        }
    }

    fn solve(
        &mut self,
        binding: &mut [Option<Const>],
        assigned: &mut [bool],
        depth: usize,
        randomize: bool,
        rng: &mut StdRng,
    ) -> Outcome {
        self.nodes += 1;
        if self.nodes > self.limit {
            return Outcome::Cutoff;
        }
        // MRV over maintained popcounts: integer scan of the active component.
        let mut best: Option<(usize, u32)> = None;
        for &li in &self.active {
            if assigned[li] {
                continue;
            }
            let c = self.counts[li];
            if best.is_none_or(|(_, b)| c < b) {
                best = Some((li, c));
                if c <= 1 {
                    break;
                }
            }
        }
        let Some((li, _)) = best else {
            return Outcome::Found; // all literals assigned
        };
        // One pooled candidate-order buffer per depth, reused across
        // candidates, restarts, and components.
        if self.orders.len() <= depth {
            self.orders.push(Vec::new());
        }
        let mut order = std::mem::take(&mut self.orders[depth]);
        self.collect_order(li, &mut order);
        if order.is_empty() {
            self.orders[depth] = order;
            return Outcome::Exhausted;
        }
        if randomize {
            order.shuffle(rng);
        }

        assigned[li] = true;
        let trail_mark = self.trail.len();
        let mut saw_cutoff = false;
        'cand: for &ci in &order {
            let gi = self.static_cands[li][ci as usize];
            // Extend the binding; the trail (used with mark/truncate across
            // the recursion) remembers which vars we set for undo. Vars
            // already bound are guaranteed consistent by domain maintenance;
            // a variable repeated *within* this literal can still conflict
            // and is checked here.
            {
                let lit = &self.body[li];
                let g = &self.ground.body[gi as usize];
                let mut conflict = false;
                for (t, &gv) in lit.args.iter().zip(g.vals.iter()) {
                    if let Term::Var(v) = *t {
                        match binding[v.index()] {
                            None => {
                                binding[v.index()] = Some(gv);
                                self.trail.push(v);
                            }
                            Some(b) if b == gv => {}
                            Some(_) => {
                                conflict = true;
                                break;
                            }
                        }
                    }
                }
                if conflict {
                    for ti in trail_mark..self.trail.len() {
                        binding[self.trail[ti].index()] = None;
                    }
                    self.trail.truncate(trail_mark);
                    continue 'cand;
                }
            }
            // Forward-check via pair tables: every unassigned neighbour's
            // domain is ANDed with the row of candidates compatible with
            // the choice `li = ci` — one word-parallel operation per
            // target, covering all shared variables at once. The undo
            // log records only the domains actually touched, so
            // backtracking costs O(touched), not a full-state snapshot.
            // Only literals containing a *newly bound* variable are
            // checked: when every variable shared with `li` was bound
            // earlier, both domains were already filtered to that binding
            // when it happened, so the check is provably a no-op. (In
            // particular, a candidate that binds nothing checks nothing.)
            let undo_mark = self.undo_lits.len();
            let mut dead_end = false;
            self.stamp_gen += 1;
            let gen = self.stamp_gen;
            let prep = self.prep;
            'fc: for ti in trail_mark..self.trail.len() {
                let v = self.trail[ti];
                let targets = prep.lits_of_var(v.index());
                for &lj in targets {
                    let lj = lj as usize;
                    if lj == li || assigned[lj] || self.stamp[lj] == gen {
                        continue;
                    }
                    self.stamp[lj] = gen;
                    match self.fc_apply(li, lj, ci as usize) {
                        Revised::Empty => {
                            dead_end = true;
                            break 'fc;
                        }
                        Revised::Shrunk => {
                            if self.mac {
                                self.maybe_enqueue(lj, u32::MAX);
                            }
                        }
                        Revised::Unchanged => {}
                    }
                }
            }
            if dead_end {
                self.drain_queue();
            } else if self.mac {
                dead_end = !self.propagate(assigned);
            }
            if !dead_end {
                match self.solve(binding, assigned, depth + 1, randomize, rng) {
                    Outcome::Found => {
                        self.orders[depth] = order;
                        return Outcome::Found;
                    }
                    Outcome::Cutoff => saw_cutoff = true,
                    Outcome::Exhausted => {}
                }
            }
            self.unwind(undo_mark);
            for ti in trail_mark..self.trail.len() {
                binding[self.trail[ti].index()] = None;
            }
            self.trail.truncate(trail_mark);
            if self.nodes > self.limit {
                assigned[li] = false;
                self.orders[depth] = order;
                return Outcome::Cutoff;
            }
        }
        assigned[li] = false;
        self.orders[depth] = order;
        if saw_cutoff {
            Outcome::Cutoff
        } else {
            Outcome::Exhausted
        }
    }
}

/// Searches every component of `body` against `ground`, except those whose
/// literals all lie in the proven prefix `body[..proven]` (satisfiable, see
/// [`PrefixProbe::covers_given`]). Returns the answer and the number of
/// components skipped.
fn bitset_subsumes(
    body: &[Literal],
    ground: &GroundClause,
    cfg: &SubsumeConfig,
    prep: &Prepared,
    proven: usize,
    rng: &mut StdRng,
) -> (bool, u64) {
    let mut search = BitsetSearch::new(body, ground, cfg, prep);
    // Phase structure per component: a cheap forward-checking-only pass
    // first (a small slice of the call budget — most coverage tests are
    // easy and propagation overhead would dominate them), escalating to
    // maintained arc consistency with the full remaining budget only when
    // the component proves hard enough to trip the first-pass slice. Both
    // phases are complete searches, so an `Exhausted` from either is an
    // exact "no θ"; only `Cutoff` escalates.
    const FC_PASS_BUDGET: usize = 256;
    // Binding and assignment buffers, refilled per attempt instead of
    // reallocated (~one attempt per component, components per test).
    let mut b = prep.binding.to_vec();
    let mut assigned = vec![true; body.len()];
    let mut covered = true;
    let mut skipped = 0u64;
    'component: for comp in &prep.components {
        // Members are ascending, so the last one bounds the component.
        if comp.last().is_some_and(|&li| li < proven) {
            skipped += 1;
            continue;
        }
        search.active.clone_from(comp);
        search.mac = false;
        search.limit = (search.nodes.saturating_add(FC_PASS_BUDGET)).min(cfg.node_limit);
        search.reset();
        b.copy_from_slice(prep.binding);
        // Literals outside the component are treated as already assigned.
        assigned.fill(true);
        for &li in comp {
            assigned[li] = false;
        }
        let out = search.solve(&mut b, &mut assigned, 0, false, rng);
        match out {
            Outcome::Found => continue 'component,
            Outcome::Exhausted => {
                covered = false; // complete: truly no θ
                break 'component;
            }
            Outcome::Cutoff => {} // escalate to the propagating search
        }
        search.mac = true;
        search.limit = cfg.node_limit;
        search.ensure_neighbors();
        for attempt in 0..=cfg.max_restarts {
            search.reset();
            b.copy_from_slice(prep.binding);
            assigned.fill(true);
            for &li in comp {
                assigned[li] = false;
            }
            // The first attempt runs in deterministic candidate order;
            // restarts shuffle (the classic randomized-restart recipe).
            let out = search.solve(&mut b, &mut assigned, 0, attempt > 0, rng);
            match out {
                Outcome::Found => continue 'component,
                Outcome::Exhausted => {
                    covered = false; // complete: truly no θ
                    break 'component;
                }
                Outcome::Cutoff => continue, // retry, new random order
            }
        }
        covered = false; // budget exhausted on this component
        break;
    }
    crate::instrument::SUBSUME_DOMAIN_WORDS.add(search.words);
    (covered, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottom::GroundLiteral;
    use crate::example::Example;
    use relstore::RelId;

    fn v(n: u32) -> Term {
        Term::Var(VarId(n))
    }

    fn c(n: u32) -> Const {
        Const(n)
    }

    fn glit(rel: u32, vals: &[u32]) -> GroundLiteral {
        GroundLiteral {
            rel: RelId(rel),
            vals: vals.iter().map(|&x| Const(x)).collect(),
        }
    }

    /// ground: head t(1,2); body r(1,10), r(10,2), s(10)
    fn chain_ground() -> GroundClause {
        GroundClause::new(
            Example::new(RelId(9), vec![c(1), c(2)]),
            vec![glit(0, &[1, 10]), glit(0, &[10, 2]), glit(1, &[10])],
        )
    }

    #[test]
    fn subsumes_chain() {
        // t(x,y) ← r(x,z), r(z,y), s(z)  covers the chain.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(0), vec![v(2), v(1)]),
                Literal::new(RelId(1), vec![v(2)]),
            ],
        );
        assert!(theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
    }

    #[test]
    fn rejects_wrong_chain() {
        // t(x,y) ← r(y,z): requires r starting at 2 — absent.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(1), v(2)])],
        );
        assert!(!theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
    }

    #[test]
    fn head_constant_must_match() {
        let clause_ok = Clause::new(
            Literal::new(RelId(9), vec![Term::Const(c(1)), v(0)]),
            vec![],
        );
        let clause_bad = Clause::new(
            Literal::new(RelId(9), vec![Term::Const(c(7)), v(0)]),
            vec![],
        );
        assert!(theta_subsumes(
            &clause_ok,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
        assert!(!theta_subsumes(
            &clause_bad,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
    }

    #[test]
    fn repeated_head_var_requires_equal_constants() {
        // t(x,x) can't cover example t(1,2).
        let clause = Clause::new(Literal::new(RelId(9), vec![v(0), v(0)]), vec![]);
        assert!(!theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
        // But covers t(1,1).
        let ground = GroundClause::new(Example::new(RelId(9), vec![c(1), c(1)]), vec![]);
        assert!(theta_subsumes(&clause, &ground, &SubsumeConfig::default()));
    }

    #[test]
    fn body_constants_must_match_exactly() {
        // t(x,y) ← r(x, 10) covers; r(x, 11) does not.
        let ok = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(0), Term::Const(c(10))])],
        );
        let bad = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(0), Term::Const(c(11))])],
        );
        assert!(theta_subsumes(
            &ok,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
        assert!(!theta_subsumes(
            &bad,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
    }

    #[test]
    fn non_injective_mappings_are_allowed() {
        // θ-subsumption permits two clause vars mapping to one constant:
        // t(x,y) ← r(x,z), r(w,y) with z = w = 10.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(0), vec![v(3), v(1)]),
            ],
        );
        assert!(theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
    }

    #[test]
    fn two_clause_literals_may_map_to_one_ground_literal() {
        // t(x,y) ← r(x,z), r(x,w): both can map onto r(1,10).
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(0), vec![v(0), v(3)]),
            ],
        );
        assert!(theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
    }

    #[test]
    fn repeated_var_within_one_literal_is_checked() {
        // t(x,y) ← r(z,z): no ground r-literal has equal args.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(2), v(2)])],
        );
        assert!(!theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
        // With r(7,7) present it covers.
        let ground = GroundClause::new(
            Example::new(RelId(9), vec![c(1), c(2)]),
            vec![glit(0, &[1, 10]), glit(0, &[7, 7])],
        );
        assert!(theta_subsumes(&clause, &ground, &SubsumeConfig::default()));
    }

    #[test]
    fn wrong_relation_or_arity_in_head_fails_fast() {
        let clause = Clause::new(Literal::new(RelId(8), vec![v(0), v(1)]), vec![]);
        assert!(!theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
        let clause = Clause::new(Literal::new(RelId(9), vec![v(0)]), vec![]);
        assert!(!theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
    }

    #[test]
    fn empty_body_always_covers_matching_head() {
        let clause = Clause::new(Literal::new(RelId(9), vec![v(0), v(1)]), vec![]);
        assert!(theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
    }

    /// A complete (non-cutoff) search answers exactly like brute force on a
    /// moderately tricky instance with multiple candidates per literal.
    #[test]
    fn finds_solution_requiring_backtracking() {
        // ground body: r(1,a) for a in {3,4,5}, s(4).
        // clause: t(x,y) ← r(x,z), s(z). Only z = 4 works; MRV picks s first,
        // but the search may try r's candidates first.
        let ground = GroundClause::new(
            Example::new(RelId(9), vec![c(1), c(2)]),
            vec![
                glit(0, &[1, 3]),
                glit(0, &[1, 4]),
                glit(0, &[1, 5]),
                glit(1, &[4]),
            ],
        );
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(1), vec![v(2)]),
            ],
        );
        assert!(theta_subsumes(&clause, &ground, &SubsumeConfig::default()));
    }

    #[test]
    fn absent_constant_refutes_immediately() {
        // A `#`-literal whose constant never occurs in the ground BC makes
        // the static candidate list empty — must answer false without search.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(0), vec![v(0), Term::Const(c(777))])],
        );
        let cfg = SubsumeConfig {
            node_limit: 0, // no search budget at all
            max_restarts: 0,
        };
        assert!(!theta_subsumes(&clause, &chain_ground(), &cfg));
    }

    #[test]
    fn forward_checking_detects_dead_ends() {
        // r(x,z) with z then required by s(z): binding z to a value with no
        // s-literal must be pruned by forward checking, still finding the
        // valid assignment.
        let ground = GroundClause::new(
            Example::new(RelId(9), vec![c(1), c(2)]),
            vec![
                glit(0, &[1, 3]),
                glit(0, &[1, 4]),
                glit(0, &[1, 5]),
                glit(0, &[1, 6]),
                glit(1, &[6]),
            ],
        );
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(1), vec![v(2)]),
            ],
        );
        assert!(theta_subsumes(&clause, &ground, &SubsumeConfig::default()));
    }

    #[test]
    fn shared_variable_across_distant_literals() {
        // The same variable in literals of different relations must stay
        // consistent through the domain-maintenance machinery.
        let good = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(1), vec![v(2)]),
            ],
        );
        assert!(theta_subsumes(
            &good,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
    }

    #[test]
    fn tight_budget_gives_up_not_wrong_answer() {
        // With a 1-node limit the search must answer false (approximation),
        // never panic or loop.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(0), vec![v(2), v(1)]),
            ],
        );
        let cfg = SubsumeConfig {
            node_limit: 1,
            max_restarts: 1,
        };
        // Either true (found fast) or false (budget) — just must terminate.
        let _ = theta_subsumes(&clause, &chain_ground(), &cfg);
    }

    /// The answer is a pure function of `(clause, ground, cfg)`: repeated
    /// calls — in any interleaving with other tests — agree. This is the
    /// regression test for the seed-stability gap: the engine used to draw
    /// restart permutations from the *caller's* RNG, so internal ordering
    /// changes shifted every downstream sample.
    #[test]
    fn answers_are_engine_order_independent() {
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(0), vec![v(2), v(1)]),
                Literal::new(RelId(1), vec![v(2)]),
            ],
        );
        let other = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![Literal::new(RelId(1), vec![v(2)])],
        );
        let cfg = SubsumeConfig::default();
        let alone = theta_subsumes(&clause, &chain_ground(), &cfg);
        // Interleave unrelated tests; the answer must not move.
        for _ in 0..5 {
            let _ = theta_subsumes(&other, &chain_ground(), &cfg);
        }
        assert_eq!(theta_subsumes(&clause, &chain_ground(), &cfg), alone);
    }

    /// Multi-component clause: two independent chains that must both be
    /// witnessed. Decomposition solves them separately; the answer matches
    /// the conjunction.
    #[test]
    fn decomposition_requires_every_component() {
        // t(x,y) ← r(x,z), s(z), r(w,u), s(u): second chain shares no
        // non-head variable with the first.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(1), vec![v(2)]),
                Literal::new(RelId(0), vec![v(3), v(4)]),
                Literal::new(RelId(1), vec![v(4)]),
            ],
        );
        assert!(theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
        // Remove the s-literal the second chain needs → not covered.
        let ground = GroundClause::new(
            Example::new(RelId(9), vec![c(1), c(2)]),
            vec![glit(0, &[1, 10]), glit(0, &[10, 2])],
        );
        assert!(!theta_subsumes(&clause, &ground, &SubsumeConfig::default()));
    }

    #[test]
    fn domain_words_counter_moves() {
        let before = crate::instrument::SUBSUME_DOMAIN_WORDS.get();
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(1), vec![v(2)]),
            ],
        );
        assert!(theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
        assert!(crate::instrument::SUBSUME_DOMAIN_WORDS.get() > before);
    }
}
