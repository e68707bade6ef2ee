//! θ-subsumption for coverage testing (paper §5).
//!
//! Clause `C` θ-subsumes ground clause `G` iff some substitution `θ` maps
//! every body literal of `C` onto a literal of `G` (with the head binding
//! fixed by the example). Subsumption is NP-hard, so the test runs a
//! budgeted search: `SubsumeConfig::node_limit` caps the nodes one test may
//! spend, propagation included. The test is therefore *approximate*: it may
//! report "not covered" for a covered example when the budget runs out,
//! never the reverse. Each such cut-off is counted in
//! `autobias_core_subsume_cutoffs_total`. The paper follows Kuželka and
//! Železný's randomized restarts; this engine does not restart, because a
//! restart would begin with the budget already spent (DESIGN.md §15).
//!
//! The search (DESIGN.md §15) is a forward-checking CSP over word-parallel
//! `u64` bitset domains. Each body literal's candidate set (ground literals
//! of the same relation compatible with its constants and the head binding)
//! becomes a bitset; assigning a literal intersects the domains of every
//! unassigned literal sharing a *newly bound* variable with an on-the-fly
//! compatibility mask computed over currently-set bits only. Literals are
//! chosen smallest-domain-first (MRV over maintained popcounts), the body is
//! decomposed into connected components over unbound variables (each solved
//! independently), and each component runs a cheap forward-checking-only
//! pass before escalating to maintained arc consistency (MAC) with the
//! remaining per-call node budget.
//!
//! The search runs on the body's *core*. A variable is *private* when the
//! head does not bind it and it occurs exactly once in the tested prefix;
//! a literal that an earlier kept literal of the same relation matches at
//! every position where it holds no private variable is *folded* out
//! before the search (a star's leaves `r(h, a1) … r(h, a12)` keep only
//! `r(h, a1)`). Any θ for the core extends to a folded literal by mapping
//! its private variables to what the matching literal's terms map to, so
//! the answer is the whole prefix's. Folded literals are counted in
//! `autobias_core_subsume_literals_folded_total`.
//!
//! What a test derives from the clause alone — its variable count and head
//! variables, each literal's variable positions and candidate-signature
//! shape, the fold, the variable→literal index, the components and the
//! arc-consistency neighbours — is prepared once per clause in a
//! [`PreparedClause`] that every example of a batch and every worker reads
//! ([`Workspace::theta_subsumes_prepared`]); the coverage engine prepares
//! each scored clause once per batch, evaluation each definition clause
//! once per pass. armg lays its clause out once per call, mirrors each
//! deletion on that layout, and has its [`PrefixProbe`]s rebuild only the
//! prefix's fold, index and components per test, through the same
//! functions. Only the head binding, the candidate lists
//! and the search depend on the example.
//!
//! Every buffer a test needs lives in a caller-owned [`Workspace`], cleared
//! between tests and never shrunk, so a caller that runs many tests (armg's
//! probes, a coverage worker's chunk, an evaluation pass) allocates nothing
//! per test once the buffers have grown. The answer is a pure function of
//! `(clause, ground, cfg)`: which tests a workspace ran before never shows.
//! Exact SPJ evaluation ([`crate::query::clause_covers`]) is the reference
//! the differential suite (`tests/differential_subsume.rs`) checks this
//! search against.
//!
//! ```
//! use autobias::bottom::{GroundClause, GroundLiteral};
//! use autobias::clause::{Clause, Literal, Term, VarId};
//! use autobias::example::Example;
//! use autobias::subsume::{theta_subsumes, SubsumeConfig, Workspace};
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
//! // The same test through a reusable workspace.
//! let mut ws = Workspace::default();
//! assert!(ws.theta_subsumes(&clause, &ground, &SubsumeConfig::default()));
//! ```

use crate::bottom::GroundClause;
use crate::clause::{Clause, Literal, Term, VarId};
use relstore::{Const, RelId};
use std::borrow::BorrowMut;
use std::sync::OnceLock;

/// Search budget for one subsumption test.
#[derive(Debug, Clone, Copy)]
pub struct SubsumeConfig {
    /// Search nodes (assignments tried plus arc revisions) one test may
    /// spend over all its components before it answers "not covered".
    pub node_limit: usize,
}

impl Default for SubsumeConfig {
    fn default() -> Self {
        Self { node_limit: 20_000 }
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
        }
    }
}

/// Whether `clause` θ-subsumes `ground` — i.e. whether the clause covers the
/// ground BC's example (Definition 2.4 via the §5 reduction). Runs in a
/// fresh [`Workspace`]; callers with many tests keep one and call
/// [`Workspace::theta_subsumes`].
pub fn theta_subsumes(clause: &Clause, ground: &GroundClause, cfg: &SubsumeConfig) -> bool {
    Workspace::default().theta_subsumes(clause, ground, cfg)
}

/// A clause prepared for θ-tests against many examples: everything a test
/// derives from the clause alone, built once and read by every test of a
/// batch, from any number of threads. That is the variable count and the
/// head's variables, each literal's variable positions and
/// candidate-signature shape (`Layout`), and the private-variable fold,
/// the variable→literal index, the components and the arc-consistency
/// neighbours of the body's core (`Core`). A test through
/// [`Workspace::theta_subsumes_prepared`] does only what depends on the
/// example: the head binding, the candidate lists and the search. It
/// answers exactly what [`theta_subsumes`] answers on the clause.
///
/// ```
/// use autobias::bottom::{GroundClause, GroundLiteral};
/// use autobias::clause::{Clause, Literal, Term, VarId};
/// use autobias::example::Example;
/// use autobias::subsume::{PreparedClause, SubsumeConfig, Workspace};
/// use relstore::{Const, RelId};
///
/// let v = |n| Term::Var(VarId(n));
/// // t(x, y) ← r(x, z)
/// let clause = Clause::new(
///     Literal::new(RelId(9), vec![v(0), v(1)]),
///     vec![Literal::new(RelId(0), vec![v(0), v(2)])],
/// );
/// let ground = |x| {
///     GroundClause::new(
///         Example::new(RelId(9), vec![Const(x), Const(2)]),
///         vec![GroundLiteral { rel: RelId(0), vals: vec![Const(1), Const(10)].into() }],
///     )
/// };
/// let prepared = PreparedClause::new(&clause);
/// let mut ws = Workspace::default();
/// let cfg = SubsumeConfig::default();
/// assert!(ws.theta_subsumes_prepared(&prepared, &ground(1), &cfg));
/// assert!(!ws.theta_subsumes_prepared(&prepared, &ground(3), &cfg));
/// ```
#[derive(Debug)]
pub struct PreparedClause<'c> {
    clause: &'c Clause,
    layout: Layout,
    core: Core,
}

impl<'c> PreparedClause<'c> {
    /// Prepares `clause` for tests of its whole body.
    pub fn new(clause: &'c Clause) -> Self {
        let mut layout = Layout::default();
        layout.build(clause);
        let mut core = Core::default();
        core.build(&clause.body, &layout);
        Self {
            clause,
            layout,
            core,
        }
    }
}

/// Every buffer a θ-subsumption test uses. A test clears what it uses and
/// keeps the capacity, so the buffers grow to the largest test seen and
/// stay there.
///
/// The workspace holds the clause-derived `Layout` and `Core` of the
/// clause it prepares itself, for [`Workspace::theta_subsumes`] and armg's
/// [`PrefixProbe`]s, and the per-example state every test needs, for those
/// and for [`Workspace::theta_subsumes_prepared`], whose clause comes
/// prepared.
///
/// The caller owns the workspace and decides how long it lives: armg keeps
/// one per call, the coverage engine one per worker in each batched map,
/// evaluation one per pass. A workspace is never shared between threads while in use and
/// never kept in a global or thread-local pool.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Layout of the clause this workspace prepared itself.
    layout: Layout,
    /// Core of the prefix this workspace prepared itself.
    core: Core,
    /// What depends on the example.
    ex: PerExample,
}

/// The per-example state of a test: the head binding, the candidate lists,
/// the search state and its scratch.
#[derive(Debug, Default)]
struct PerExample {
    /// Head binding of the current probe: variable → constant fixed by the
    /// example.
    binding: Vec<Option<Const>>,
    /// Candidate lists of the current probe's body literals.
    cands: CandTable,
    /// Search state of the current test.
    search: BitsetSearch,
    /// Working copy of `binding` the search extends and undoes.
    trial_binding: Vec<Option<Const>>,
    /// Per-literal "assigned or outside the active component" flags.
    assigned: Vec<bool>,
}

impl Workspace {
    /// [`theta_subsumes`] in this workspace: the same answer, from reused
    /// buffers.
    pub fn theta_subsumes(
        &mut self,
        clause: &Clause,
        ground: &GroundClause,
        cfg: &SubsumeConfig,
    ) -> bool {
        PrefixProbe::with_workspace(clause, ground, self).covers(clause.body.len(), cfg)
    }

    /// [`theta_subsumes`] on a prepared clause: the same answer, with only
    /// the per-example work done here.
    pub fn theta_subsumes_prepared(
        &mut self,
        prepared: &PreparedClause,
        ground: &GroundClause,
        cfg: &SubsumeConfig,
    ) -> bool {
        crate::instrument::SUBSUMPTION_TESTS.bump();
        let PreparedClause {
            clause,
            layout,
            core,
        } = prepared;
        let ex = &mut self.ex;
        ex.cands.clear();
        if !ex.bind_head(&clause.head, layout.num_vars, ground) {
            return false;
        }
        if clause.body.is_empty() {
            return true;
        }
        if !ex.cands.fill(&clause.body, layout, &ex.binding, ground) {
            return false;
        }
        bitset_subsumes(ex, &clause.body, layout, core, ground, cfg, 0).0
    }

    /// Mirrors `body.remove(i)` on the probed body's layout and candidate
    /// table (see [`PrefixProbe::resume`]).
    pub(crate) fn remove_literal(&mut self, i: usize) {
        self.layout.remove(i);
        self.ex.cands.remove(i);
    }

    /// Mirrors keeping only the body literals at the ascending positions
    /// `kept` (`Clause::keep_body`) on the probed body's layout and
    /// candidate table.
    pub(crate) fn keep_literals(&mut self, kept: &[usize]) {
        self.layout.keep(kept);
        self.ex.cands.keep(kept);
    }
}

impl PerExample {
    /// Binds `head` (of a clause with `num_vars` variable ids) to
    /// `ground`'s example into `self.binding`. Relation and arity must
    /// match; head vars bind to the example's constants, head constants
    /// must equal them. `false` on mismatch.
    fn bind_head(&mut self, head: &Literal, num_vars: usize, ground: &GroundClause) -> bool {
        let binding = &mut self.binding;
        binding.clear();
        if head.rel != ground.example.rel || head.args.len() != ground.example.args.len() {
            return false;
        }
        binding.resize(num_vars, None);
        for (term, &c) in head.args.iter().zip(ground.example.args.iter()) {
            match *term {
                Term::Var(v) => match binding[v.index()] {
                    None => binding[v.index()] = Some(c),
                    Some(b) if b == c => {}
                    Some(_) => return false,
                },
                Term::Const(k) if k != c => return false,
                Term::Const(_) => {}
            }
        }
        true
    }
}

/// θ-subsumption tests of the prefix clauses `T ← L1, …, Llen` of one clause
/// against one ground example, as armg's blocking-atom search asks them.
///
/// The clause's `Layout`, the head binding and the per-literal candidate
/// lists depend only on the clause, the example and each literal itself,
/// never on which prefix is tested, so the probe computes them once and
/// shares them across every prefix it tests: the lists are filled lazily,
/// up to the longest prefix asked for so far. Only the prefix's `Core`
/// (fold, variable→literal index, components) is rebuilt per prefix, by
/// the function that prepares a [`PreparedClause`].
/// [`PrefixProbe::covers`] answers exactly what [`theta_subsumes`] answers
/// on the materialized prefix clause — the same search — without copying
/// the prefix; `theta_subsumes` is itself a one-prefix probe.
///
/// The probe runs in a [`Workspace`] it owns (`PrefixProbe::new`) or
/// borrows (`PrefixProbe::with_workspace(.., &mut ws)`).
pub struct PrefixProbe<'a, W: BorrowMut<Workspace> = Workspace> {
    body: &'a [Literal],
    ground: &'a GroundClause,
    ws: W,
    /// Whether the head binds the example; when it cannot, every prefix is
    /// refuted.
    head_matches: bool,
    /// Components [`PrefixProbe::covers_given`] skipped as proven so far.
    skipped: u64,
}

impl<'a> PrefixProbe<'a> {
    /// A probe of `clause`'s prefixes against `ground` in a workspace of
    /// its own; binds the head.
    pub fn new(clause: &'a Clause, ground: &'a GroundClause) -> Self {
        Self::with_workspace(clause, ground, Workspace::default())
    }
}

impl<'a, W: BorrowMut<Workspace>> PrefixProbe<'a, W> {
    /// A probe of `clause`'s prefixes against `ground` in `ws`; lays the
    /// clause out, binds the head and empties the workspace's candidate
    /// table.
    pub fn with_workspace(clause: &'a Clause, ground: &'a GroundClause, mut ws: W) -> Self {
        let w = ws.borrow_mut();
        w.ex.cands.clear();
        w.layout.build(clause);
        Self::resume(clause, ground, ws)
    }

    /// A probe that keeps the layout and the candidate table `ws` holds:
    /// made by an earlier probe of a clause with the same head against the
    /// same `ground`, and remapped through every body edit since (see
    /// [`Workspace::remove_literal`] and [`Workspace::keep_literals`]).
    pub(crate) fn resume(clause: &'a Clause, ground: &'a GroundClause, mut ws: W) -> Self {
        let w = ws.borrow_mut();
        debug_assert_eq!(w.layout.len(), clause.body.len(), "layout out of step");
        let head_matches = w.ex.bind_head(&clause.head, w.layout.num_vars, ground);
        Self {
            body: &clause.body,
            ground,
            ws,
            head_matches,
            skipped: 0,
        }
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
        if !self.head_matches {
            return false;
        }
        if len == 0 {
            return true;
        }
        let body = &self.body[..len];
        let Workspace { layout, core, ex } = self.ws.borrow_mut();
        if !ex.cands.fill(body, layout, &ex.binding, self.ground) {
            return false;
        }
        core.build(body, layout);
        let (covered, skipped) = bitset_subsumes(ex, body, layout, core, self.ground, cfg, proven);
        self.skipped += skipped;
        covered
    }
}

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
///
/// Lists and signatures live in flat arrays, so clearing the table for the
/// next clause keeps every allocation.
#[derive(Debug, Default)]
struct CandTable {
    /// Distinct candidate lists, one per signature, back to back: list `k`
    /// is `pool[lists[k].0..lists[k].1]`.
    pool: Vec<u32>,
    lists: Vec<(u32, u32)>,
    /// Body literal → index of its list, for the leading literals filled so
    /// far.
    of: Vec<u32>,
    /// (relation, start, end) of each list's required-constant signature in
    /// `sig_vals`; list `k`'s signature is entry `k`. Distinct signatures
    /// per clause number in the single digits, so a linear scan beats a
    /// hash map (no hashing, no table allocation).
    sigs: Vec<(RelId, u32, u32)>,
    /// (position, constant) pairs of every signature, back to back.
    sig_vals: Vec<(u32, Const)>,
    /// Set when literal `of.len()` has an empty list: filling stops there,
    /// and every prefix containing that literal is refuted.
    empty: bool,
}

impl CandTable {
    /// Empties the table for a new clause, keeping its capacity.
    fn clear(&mut self) {
        self.pool.clear();
        self.lists.clear();
        self.of.clear();
        self.sigs.clear();
        self.sig_vals.clear();
        self.empty = false;
    }

    /// Fills the lists of `body` (a prefix of the probed clause's body,
    /// laid out in `layout`) that are not filled yet. Returns `false` when
    /// one of them is empty, which refutes the prefix without search — the
    /// common case for `#`-literals whose constant does not occur in this
    /// example's neighbourhood.
    fn fill(
        &mut self,
        body: &[Literal],
        layout: &Layout,
        binding: &[Option<Const>],
        ground: &GroundClause,
    ) -> bool {
        while self.of.len() < body.len() {
            if self.empty {
                return false;
            }
            let li = self.of.len();
            let lit = &body[li];
            // The literal's signature goes at the end of `sig_vals`; it stays
            // there only if it is new.
            let start = self.sig_vals.len();
            for &(p, fixed) in layout.shape(li) {
                let c = match fixed {
                    Fixed::Const(c) => c,
                    Fixed::Head(v) => binding[v.index()].expect("the head binds its variables"),
                };
                self.sig_vals.push((p, c));
            }
            let (known, sig) = self.sig_vals.split_at(start);
            if let Some(k) = self
                .sigs
                .iter()
                .position(|&(r, s, e)| r == lit.rel && known[s as usize..e as usize] == *sig)
            {
                self.sig_vals.truncate(start);
                self.of.push(k as u32);
                continue;
            }
            let arity = lit.args.len();
            let list_start = self.pool.len();
            self.pool
                .extend(ground.literals_of(lit.rel).iter().copied().filter(|&gi| {
                    let g = ground.vals(gi as usize);
                    arity == g.len() && sig.iter().all(|&(p, c)| g[p as usize] == c)
                }));
            if self.pool.len() == list_start {
                self.sig_vals.truncate(start);
                self.empty = true;
                return false;
            }
            self.of.push(self.sigs.len() as u32);
            self.sigs
                .push((lit.rel, start as u32, self.sig_vals.len() as u32));
            self.lists.push((list_start as u32, self.pool.len() as u32));
        }
        true
    }

    /// Mirrors `body.remove(i)` on the probed body.
    fn remove(&mut self, i: usize) {
        if i < self.of.len() {
            self.of.remove(i);
        } else if i == self.of.len() {
            // The literal with the empty list is gone; the next one is unfilled.
            self.empty = false;
        }
    }

    /// Mirrors keeping only the body literals at the ascending positions
    /// `kept` (`Clause::keep_body`) on the probed body.
    fn keep(&mut self, kept: &[usize]) {
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

    /// The candidate list of body literal `li` (filled).
    #[inline]
    fn list(&self, li: usize) -> &[u32] {
        let (a, b) = self.lists[self.of[li] as usize];
        &self.pool[a as usize..b as usize]
    }
}

/// Same-relation literals one literal's fold check visits at most, newest
/// first. Armg bodies keep a star's private-leaf literals next to each
/// other, so the literal a leaf folds onto is almost always among the
/// first visited (on the UW and HIV CV workloads this cap finds over 99%
/// of the folds an unbounded walk finds); the cap keeps bodies with
/// hundreds of same-relation literals linear. Folding less never changes
/// an answer.
const FOLD_WALK: usize = 32;

/// A required term of a body literal's candidate signature: a constant, or
/// a head variable, whose value the example's head binding fixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fixed {
    Const(Const),
    Head(VarId),
}

/// What a test needs to know about a clause's head and each of its body
/// literals: facts of the clause alone, the same for every example and
/// every prefix tested. Deleting body literals keeps every fact of the
/// others, so armg mirrors its deletions on the layout
/// ([`Layout::remove`], [`Layout::keep`]) instead of laying each step's
/// clause out again; `num_vars` may then exceed the smaller clause's
/// variable count, which only leaves some binding slots unused.
#[derive(Debug, Default)]
struct Layout {
    /// `Clause::num_vars`: the length of a head binding.
    num_vars: usize,
    /// Per variable id: whether the head holds it. The head binding fixes
    /// exactly these variables, so they never link literals in the search.
    in_head: Vec<bool>,
    /// Each body literal's variables with their argument positions, in
    /// position order: literal `li`'s are `var_pos[var_off[li]..var_off[li
    /// + 1]]`.
    var_off: Vec<u32>,
    var_pos: Vec<(VarId, u32)>,
    /// Each body literal's candidate-signature *shape*: the positions that
    /// hold a `#` constant or a head variable, with that term, at
    /// `shape[shape_off[li]..shape_off[li + 1]]`.
    shape_off: Vec<u32>,
    shape: Vec<(u32, Fixed)>,
}

impl Layout {
    /// Lays out `clause`.
    fn build(&mut self, clause: &Clause) {
        // `num_vars` is `Clause::num_vars`, the largest variable id plus
        // one, found on the way.
        self.in_head.clear();
        for v in clause.head.vars() {
            if v.index() >= self.in_head.len() {
                self.in_head.resize(v.index() + 1, false);
            }
            self.in_head[v.index()] = true;
        }
        let mut num_vars = self.in_head.len();
        self.var_off.clear();
        self.var_pos.clear();
        self.shape_off.clear();
        self.shape.clear();
        self.var_off.push(0);
        self.shape_off.push(0);
        for lit in &clause.body {
            for (p, t) in lit.args.iter().enumerate() {
                match *t {
                    Term::Var(v) => {
                        num_vars = num_vars.max(v.index() + 1);
                        self.var_pos.push((v, p as u32));
                        if self.in_head.get(v.index()) == Some(&true) {
                            self.shape.push((p as u32, Fixed::Head(v)));
                        }
                    }
                    Term::Const(c) => self.shape.push((p as u32, Fixed::Const(c))),
                }
            }
            self.var_off.push(self.var_pos.len() as u32);
            self.shape_off.push(self.shape.len() as u32);
        }
        self.in_head.resize(num_vars, false);
        self.num_vars = num_vars;
    }

    /// Number of body literals laid out.
    fn len(&self) -> usize {
        self.var_off.len() - 1
    }

    /// Mirrors `body.remove(i)`.
    fn remove(&mut self, i: usize) {
        csr_remove(&mut self.var_off, &mut self.var_pos, i);
        csr_remove(&mut self.shape_off, &mut self.shape, i);
    }

    /// Mirrors keeping only the body literals at the ascending positions
    /// `kept`.
    fn keep(&mut self, kept: &[usize]) {
        csr_keep(&mut self.var_off, &mut self.var_pos, kept);
        csr_keep(&mut self.shape_off, &mut self.shape, kept);
    }

    /// Body literal `li`'s variables with their positions, in position
    /// order.
    #[inline]
    fn vars_of(&self, li: usize) -> &[(VarId, u32)] {
        &self.var_pos[self.var_off[li] as usize..self.var_off[li + 1] as usize]
    }

    /// Body literal `li`'s candidate-signature shape.
    #[inline]
    fn shape(&self, li: usize) -> &[(u32, Fixed)] {
        &self.shape[self.shape_off[li] as usize..self.shape_off[li + 1] as usize]
    }
}

/// Removes row `i` of the CSR `(off, flat)`.
fn csr_remove<T>(off: &mut Vec<u32>, flat: &mut Vec<T>, i: usize) {
    let (a, b) = (off[i], off[i + 1]);
    flat.drain(a as usize..b as usize);
    off.remove(i + 1);
    for o in &mut off[i + 1..] {
        *o -= b - a;
    }
}

/// Keeps only the rows at the ascending positions `kept` of the CSR
/// `(off, flat)`, in order.
fn csr_keep<T: Copy>(off: &mut Vec<u32>, flat: &mut Vec<T>, kept: &[usize]) {
    let mut w = 0usize;
    for (k, &i) in kept.iter().enumerate() {
        // Row `i >= k` is read before row `k`'s offset is overwritten.
        let (a, b) = (off[i] as usize, off[i + 1] as usize);
        flat.copy_within(a..b, w);
        off[k] = w as u32;
        w += b - a;
    }
    off[kept.len()] = w as u32;
    off.truncate(kept.len() + 1);
    flat.truncate(w);
}

/// The search structure of a tested body (a whole clause, or one of armg's
/// prefixes): the private-variable fold, the variable→literal index, the
/// components of the body's core, and, built on first use, the
/// arc-consistency neighbours. All of it depends on the body and the
/// head's variables only, never on the example.
#[derive(Debug, Default)]
struct Core {
    /// Per body literal: folded out of the search (see [`Core::build`]).
    /// A folded literal has no domain, appears in no variable's literal
    /// list and belongs to no component.
    folded: Vec<bool>,
    /// Var index → unfolded body literals containing it (forward-checking
    /// targets), CSR layout: `lbv_off[v]..lbv_off[v + 1]` indexes
    /// `lbv_flat`.
    lbv_off: Vec<u32>,
    lbv_flat: Vec<u32>,
    /// Connected components of unfolded body literals over *unbound*
    /// variables, smallest first (ties in order of first literal), each
    /// listing its literals in ascending order: component `k` is
    /// `comp_flat[comp_off[k]..comp_off[k + 1]]`. Components share no
    /// search state, so each is solved independently.
    comp_off: Vec<u32>,
    comp_flat: Vec<u32>,
    /// Scratch: per-variable last literal seen (CSR dedup) and fill cursor,
    /// union-find parents, literal → component, component sizes and order.
    last_seen: Vec<u32>,
    cursor: Vec<u32>,
    comp_of: Vec<u32>,
    lit_comp: Vec<u32>,
    comp_len: Vec<u32>,
    comp_order: Vec<u32>,
    /// Fold scratch: relation → its newest unfolded literal, and literal →
    /// the unfolded literal of its relation before it (`u32::MAX`: none).
    rel_last: Vec<u32>,
    same_prev: Vec<u32>,
    /// Literals folded out, and extra components split off: what each test
    /// of this body adds to `autobias_core_subsume_literals_folded_total`
    /// and `autobias_core_subsume_components_split_total`.
    n_folded: u64,
    n_split: u64,
    /// The arc-consistency neighbours, built when a test first escalates to
    /// the propagating phase: most tests finish in the forward-checking
    /// pass and never need them.
    neighbors: OnceLock<Neighbors>,
}

/// Distinct unfolded body literals sharing a variable the head does not
/// bind with each literal — the propagation targets of an assignment — in
/// CSR layout: literal `li`'s are `flat[off[li]..off[li + 1]]`.
#[derive(Debug, Default)]
struct Neighbors {
    off: Vec<u32>,
    flat: Vec<u32>,
}

impl Neighbors {
    /// Literal `li`'s neighbours.
    #[inline]
    fn of(&self, li: usize) -> &[u32] {
        &self.flat[self.off[li] as usize..self.off[li + 1] as usize]
    }
}

/// The positions of `lit` holding a *private* variable, as a bit mask: a
/// variable the head does not hold (`in_head`) that occurs exactly once in
/// the prefix — in no other literal (`lit_count[v]`, the number of prefix
/// literals holding `v`, is 1) and at no other position of `lit`.
/// Positions past 63 count as not private, which only folds less.
fn private_mask(lit: &Literal, in_head: &[bool], lit_count: &[u32]) -> u64 {
    let mut mask = 0u64;
    for (p, &t) in lit.args.iter().enumerate().take(64) {
        if let Term::Var(v) = t {
            if !in_head[v.index()]
                && lit_count[v.index()] == 1
                && lit.args.iter().filter(|&&u| u == t).count() == 1
            {
                mask |= 1 << p;
            }
        }
    }
    mask
}

/// Whether `lit`, with private positions `private` ([`private_mask`]),
/// folds onto `onto` of the same relation: equal arity, and equal terms at
/// every position where `lit` does not hold a private variable.
#[inline]
fn folds_onto(lit: &Literal, private: u64, onto: &Literal) -> bool {
    lit.args.len() == onto.args.len()
        && (lit.args.iter().zip(&onto.args).enumerate())
            .all(|(p, (a, b))| a == b || (p < 64 && private >> p & 1 == 1))
}

impl Core {
    /// Rebuilds the fold, the index and the components for `body`, a prefix
    /// of the clause laid out in `layout`, and forgets the neighbours.
    ///
    /// Literal `Li` is *folded* when an earlier unfolded literal `Lj` of the
    /// same relation and arity agrees with it at every position where `Li`
    /// does not hold a private variable ([`private_mask`]). Any θ for the
    /// unfolded literals extends to `Li` by mapping each of its private
    /// variables `Li[p]` to `θ(Lj[p])` — nothing else constrains them — so
    /// the prefix and its core of unfolded literals are θ-equivalent and
    /// the search runs on the core alone.
    fn build(&mut self, body: &[Literal], layout: &Layout) {
        // Var → literals, CSR: count (deduping repeats within one literal via
        // a last-literal stamp), fold, uncount the folded literals,
        // prefix-sum, fill.
        let in_head = &layout.in_head;
        let num_vars = layout.num_vars;
        let n_body = body.len();
        self.neighbors.take();
        let Core {
            folded,
            lbv_off,
            lbv_flat,
            comp_off,
            comp_flat,
            last_seen,
            cursor,
            comp_of,
            lit_comp,
            comp_len,
            comp_order,
            rel_last,
            same_prev,
            n_folded,
            n_split,
            neighbors: _,
        } = self;
        lbv_off.clear();
        lbv_off.resize(num_vars + 1, 0);
        last_seen.clear();
        last_seen.resize(num_vars, u32::MAX);
        for (li, lit) in body.iter().enumerate() {
            for v in lit.vars() {
                if last_seen[v.index()] != li as u32 {
                    last_seen[v.index()] = li as u32;
                    lbv_off[v.index() + 1] += 1;
                }
            }
        }

        // Fold: walk each literal's earlier unfolded same-relation literals,
        // newest first, over the per-variable literal counts just made.
        folded.clear();
        folded.resize(n_body, false);
        same_prev.clear();
        same_prev.resize(n_body, u32::MAX);
        for (li, lit) in body.iter().enumerate() {
            let rel = lit.rel.index();
            if rel >= rel_last.len() {
                rel_last.resize(rel + 1, u32::MAX);
            }
            let mut lj = rel_last[rel];
            if lj != u32::MAX {
                let private = private_mask(lit, in_head, &lbv_off[1..]);
                let mut walked = 0;
                while lj != u32::MAX && walked < FOLD_WALK {
                    if folds_onto(lit, private, &body[lj as usize]) {
                        folded[li] = true;
                        break;
                    }
                    lj = same_prev[lj as usize];
                    walked += 1;
                }
            }
            if !folded[li] {
                same_prev[li] = rel_last[rel];
                rel_last[rel] = li as u32;
            }
        }
        *n_folded = 0;
        for (li, lit) in body.iter().enumerate() {
            rel_last[lit.rel.index()] = u32::MAX;
            if folded[li] {
                *n_folded += 1;
                for (p, v) in lit.args.iter().enumerate() {
                    if let Term::Var(v) = *v {
                        if !lit.args[..p].contains(&Term::Var(v)) {
                            lbv_off[v.index() + 1] -= 1;
                        }
                    }
                }
            }
        }

        for v in 0..num_vars {
            lbv_off[v + 1] += lbv_off[v];
        }
        lbv_flat.clear();
        lbv_flat.resize(lbv_off[num_vars] as usize, 0);
        cursor.clear();
        cursor.extend_from_slice(&lbv_off[..num_vars]);
        last_seen.fill(u32::MAX);
        for (li, lit) in body.iter().enumerate() {
            if folded[li] {
                continue;
            }
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
        comp_of.clear();
        comp_of.extend(0..n_body as u32);
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
            if in_head[v] || lits.len() < 2 {
                continue;
            }
            let first = find_root(comp_of, lits[0]);
            for &l in &lits[1..] {
                let r = find_root(comp_of, l);
                comp_of[r as usize] = first;
            }
        }
        // Number components by first literal (deterministic, no hashing);
        // `cursor` maps a root to its component while numbering.
        // Folded literals join none.
        cursor.clear();
        cursor.resize(n_body, u32::MAX);
        lit_comp.clear();
        comp_len.clear();
        for (li, &f) in folded.iter().enumerate() {
            if f {
                lit_comp.push(u32::MAX);
                continue;
            }
            let root = find_root(comp_of, li as u32) as usize;
            if cursor[root] == u32::MAX {
                cursor[root] = comp_len.len() as u32;
                comp_len.push(0);
            }
            lit_comp.push(cursor[root]);
            comp_len[cursor[root] as usize] += 1;
        }
        // Small components first: cheap refutations come earliest. Ties keep
        // first-literal order, as a stable sort by size would.
        comp_order.clear();
        comp_order.extend(0..comp_len.len() as u32);
        comp_order.sort_unstable_by_key(|&k| (comp_len[k as usize], k));
        // Lay the components out in that order; `cursor` now maps a
        // component to its next free slot.
        comp_off.clear();
        comp_off.push(0);
        cursor.clear();
        cursor.resize(comp_len.len(), 0);
        for &k in comp_order.iter() {
            let end = comp_off.last().copied().unwrap_or(0);
            cursor[k as usize] = end;
            comp_off.push(end + comp_len[k as usize]);
        }
        comp_flat.clear();
        comp_flat.resize(n_body - *n_folded as usize, 0);
        for (li, &k) in lit_comp.iter().enumerate() {
            if k != u32::MAX {
                comp_flat[cursor[k as usize] as usize] = li as u32;
                cursor[k as usize] += 1;
            }
        }
        *n_split = comp_len.len().saturating_sub(1) as u64;
    }

    /// The arc-consistency neighbours of `body` (the body this core was
    /// built for), built on the first call.
    fn neighbors(&self, body: &[Literal], layout: &Layout) -> &Neighbors {
        self.neighbors.get_or_init(|| {
            let n = body.len();
            let mut seen = vec![u32::MAX; n];
            let mut nb = Neighbors::default();
            nb.off.push(0);
            for li in 0..n {
                if !self.folded[li] {
                    for &(v, _) in layout.vars_of(li) {
                        if layout.in_head[v.index()] {
                            continue;
                        }
                        for &lk in self.lits_of_var(v.index()) {
                            if lk as usize != li && seen[lk as usize] != li as u32 {
                                seen[lk as usize] = li as u32;
                                nb.flat.push(lk);
                            }
                        }
                    }
                }
                nb.off.push(nb.flat.len() as u32);
            }
            nb
        })
    }

    /// Body literals containing variable `v`, deduplicated, ascending.
    #[inline]
    fn lits_of_var(&self, v: usize) -> &[u32] {
        &self.lbv_flat[self.lbv_off[v] as usize..self.lbv_off[v + 1] as usize]
    }

    /// Number of components.
    fn components(&self) -> usize {
        self.comp_off.len() - 1
    }

    /// The literals of component `k`, ascending.
    fn component(&self, k: usize) -> &[u32] {
        &self.comp_flat[self.comp_off[k] as usize..self.comp_off[k + 1] as usize]
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
#[derive(Debug, Clone, Copy)]
struct LitCsp {
    /// Offset of this literal's domain words in the flat domain vector.
    off: usize,
    /// Domain width in `u64` words.
    width: usize,
}

/// What one test searches: the prefix body, its layout and core, the
/// ground clause, and the head binding and candidate lists built for it.
struct Ctx<'a> {
    body: &'a [Literal],
    layout: &'a Layout,
    core: &'a Core,
    ground: &'a GroundClause,
    cands: &'a CandTable,
    binding: &'a [Option<Const>],
}

/// The search state of one test. Every field is a buffer that
/// [`BitsetSearch::init`] resets for the next test without freeing it.
#[derive(Debug, Default)]
struct BitsetSearch {
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
    /// Literals of the component being solved.
    active: Vec<u32>,
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
    /// components and tests to avoid a heap allocation per node.
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
    /// candidate binds several variables at once. The generation counter
    /// only ever grows, across tests too, so a stamp left by an earlier
    /// test never equals the current generation.
    stamp: Vec<u64>,
    stamp_gen: u64,
}

/// Outcome of revising one literal's domain against a support set.
enum Revised {
    Unchanged,
    Shrunk,
    Empty,
}

impl BitsetSearch {
    /// Resets the state for a test of `ctx`: one domain per unfolded body
    /// literal over its static candidate list (a folded literal's domain is
    /// empty and never read), everything else empty.
    fn init(&mut self, ctx: &Ctx, cfg: &SubsumeConfig) {
        let n = ctx.body.len();
        let folded = &ctx.core.folded;
        let len_of = |li: usize| {
            if folded[li] {
                0
            } else {
                ctx.cands.list(li).len()
            }
        };
        self.lits.clear();
        let mut off = 0usize;
        for li in 0..n {
            let width = words_for(len_of(li));
            self.lits.push(LitCsp { off, width });
            off += width;
        }
        self.dom0.clear();
        self.dom0.resize(off, 0);
        self.counts0.clear();
        for (li, l) in self.lits.iter().enumerate() {
            let len = len_of(li);
            for w in 0..l.width {
                let bits = (len - w * 64).min(64);
                self.dom0[l.off + w] = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
            }
            self.counts0.push(len as u32);
        }
        self.dom.clear();
        self.dom.extend_from_slice(&self.dom0);
        self.counts.clear();
        self.counts.extend_from_slice(&self.counts0);
        self.undo_lits.clear();
        self.undo_words.clear();
        self.trail.clear();
        self.active.clear();
        self.nodes = 0;
        self.limit = cfg.node_limit;
        self.mac = true;
        self.words = 0;
        self.queue.clear();
        self.in_queue.clear();
        self.in_queue.resize(n, false);
        self.cause.clear();
        self.cause.resize(n, u32::MAX);
        self.stamp.resize(n, 0);
    }

    /// Resets domains and counts to their pristine (head-bound) state.
    /// The node budget is deliberately *not* reset: `node_limit` bounds the
    /// work of the whole call (all components, propagation included), which
    /// caps the worst-case latency of refutation-heavy tests. Budget
    /// exhaustion still only ever yields a conservative "not covered".
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
            let LitCsp { off, width } = self.lits[lj as usize];
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
    fn propagate(&mut self, ctx: &Ctx, assigned: &[bool]) -> bool {
        let neighbors = ctx.core.neighbors(ctx.body, ctx.layout);
        while let Some(lj) = self.queue.pop() {
            self.in_queue[lj as usize] = false;
            let skip = self.cause[lj as usize];
            for &lk in neighbors.of(lj as usize) {
                let lk = lk as usize;
                if assigned[lk] || lk as u32 == skip {
                    continue;
                }
                self.nodes += 1;
                if self.nodes > self.limit {
                    self.drain_queue();
                    return true;
                }
                match self.revise_pair(ctx, lj as usize, lk) {
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
    /// shared between body literals `li` and `lj`, from the two literals'
    /// variable positions in the layout. Tiny arities make this a handful
    /// of comparisons — far cheaper than materializing and caching
    /// compatibility tables, which profiling showed are used ~1.4 times
    /// each before the test ends.
    #[inline]
    fn cons_pairs(layout: &Layout, li: usize, lj: usize) -> ([(u8, u8); 16], usize) {
        let mut cons: [(u8, u8); 16] = [(0, 0); 16];
        let mut n_cons = 0usize;
        let vars_j = layout.vars_of(lj);
        for &(v, pi) in layout.vars_of(li) {
            for &(v2, pj) in vars_j {
                if v2 == v && n_cons < cons.len() {
                    cons[n_cons] = (pi as u8, pj as u8);
                    n_cons += 1;
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
    fn fc_apply(&mut self, ctx: &Ctx, li: usize, lj: usize, ci: usize) -> Revised {
        let (cons, n_cons) = Self::cons_pairs(ctx.layout, li, lj);
        let BitsetSearch {
            lits,
            dom,
            counts,
            undo_lits,
            undo_words,
            mask_scratch,
            words,
            ..
        } = self;
        let LitCsp { off, width } = lits[lj];
        let ground = ctx.ground;
        let cands_j = ctx.cands.list(lj);
        let gvi = ground.vals(ctx.cands.list(li)[ci] as usize);
        mask_scratch.clear();
        mask_scratch.resize(width, 0);
        for wd in 0..width {
            let mut bits = dom[off + wd];
            let mut keep = 0u64;
            while bits != 0 {
                let tz = bits.trailing_zeros();
                bits &= bits - 1;
                let cj = wd * 64 + tz as usize;
                let gvj = ground.vals(cands_j[cj] as usize);
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
    fn revise_pair(&mut self, ctx: &Ctx, lj: usize, lk: usize) -> Revised {
        let LitCsp {
            off: off_j,
            width: width_j,
        } = self.lits[lj];
        // Singleton source: support can only come from the one candidate —
        // identical to a forward check against it.
        if self.counts[lj] == 1 {
            let wd = (0..width_j)
                .find(|&wd| self.dom[off_j + wd] != 0)
                .expect("count 1 has a set bit");
            let ci = wd * 64 + self.dom[off_j + wd].trailing_zeros() as usize;
            return self.fc_apply(ctx, lj, lk, ci);
        }
        let (cons, n_cons) = Self::cons_pairs(ctx.layout, lj, lk);
        let BitsetSearch {
            lits,
            dom,
            counts,
            undo_lits,
            undo_words,
            mask_scratch,
            words,
            ..
        } = self;
        let LitCsp {
            off: off_k,
            width: width_k,
        } = lits[lk];
        let ground = ctx.ground;
        let (cands_j, cands_k) = (ctx.cands.list(lj), ctx.cands.list(lk));
        mask_scratch.clear();
        mask_scratch.resize(width_k, 0);
        for wd_k in 0..width_k {
            let mut bits_k = dom[off_k + wd_k];
            let mut keep = 0u64;
            'target: while bits_k != 0 {
                let tz_k = bits_k.trailing_zeros();
                bits_k &= bits_k - 1;
                let ck = wd_k * 64 + tz_k as usize;
                let gvk = ground.vals(cands_k[ck] as usize);
                for wd_j in 0..width_j {
                    let mut bits_j = dom[off_j + wd_j];
                    while bits_j != 0 {
                        let tz_j = bits_j.trailing_zeros();
                        bits_j &= bits_j - 1;
                        let cj = wd_j * 64 + tz_j as usize;
                        let gvj = ground.vals(cands_j[cj] as usize);
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
        ctx: &Ctx,
        binding: &mut [Option<Const>],
        assigned: &mut [bool],
        depth: usize,
    ) -> Outcome {
        self.nodes += 1;
        if self.nodes > self.limit {
            return Outcome::Cutoff;
        }
        // MRV over maintained popcounts: integer scan of the active component.
        let mut best: Option<(usize, u32)> = None;
        for &li in &self.active {
            let li = li as usize;
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
        // candidates, components and tests.
        if self.orders.len() <= depth {
            self.orders.push(Vec::new());
        }
        let mut order = std::mem::take(&mut self.orders[depth]);
        self.collect_order(li, &mut order);
        if order.is_empty() {
            self.orders[depth] = order;
            return Outcome::Exhausted;
        }

        assigned[li] = true;
        let trail_mark = self.trail.len();
        let mut saw_cutoff = false;
        let cands_i = ctx.cands.list(li);
        'cand: for &ci in &order {
            let gi = cands_i[ci as usize];
            // Extend the binding; the trail (used with mark/truncate across
            // the recursion) remembers which vars we set for undo. Vars
            // already bound are guaranteed consistent by domain maintenance;
            // a variable repeated *within* this literal can still conflict
            // and is checked here.
            {
                let lit = &ctx.body[li];
                let g = ctx.ground.vals(gi as usize);
                let mut conflict = false;
                for (t, &gv) in lit.args.iter().zip(g.iter()) {
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
            'fc: for ti in trail_mark..self.trail.len() {
                let v = self.trail[ti];
                for &lj in ctx.core.lits_of_var(v.index()) {
                    let lj = lj as usize;
                    if lj == li || assigned[lj] || self.stamp[lj] == gen {
                        continue;
                    }
                    self.stamp[lj] = gen;
                    match self.fc_apply(ctx, li, lj, ci as usize) {
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
                dead_end = !self.propagate(ctx, assigned);
            }
            if !dead_end {
                match self.solve(ctx, binding, assigned, depth + 1) {
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

    /// Solves component `comp` from the pristine state, in the current
    /// phase (`mac`, `limit`).
    fn solve_component(
        &mut self,
        ctx: &Ctx,
        comp: &[u32],
        binding: &mut Vec<Option<Const>>,
        assigned: &mut [bool],
    ) -> Outcome {
        self.active.clear();
        self.active.extend_from_slice(comp);
        self.reset();
        binding.clear();
        binding.extend_from_slice(ctx.binding);
        // Literals outside the component are treated as already assigned.
        assigned.fill(true);
        for &li in comp {
            assigned[li as usize] = false;
        }
        self.solve(ctx, binding, assigned, 0)
    }
}

/// Searches every component of `body` (laid out in `layout`, with core
/// `core`) against `ground`, except those whose literals all lie in the
/// proven prefix `body[..proven]` (satisfiable, see
/// [`PrefixProbe::covers_given`]), with `ex`, whose head binding and
/// candidate table are filled for `body`. Returns the answer and the number
/// of components skipped.
fn bitset_subsumes(
    ex: &mut PerExample,
    body: &[Literal],
    layout: &Layout,
    core: &Core,
    ground: &GroundClause,
    cfg: &SubsumeConfig,
    proven: usize,
) -> (bool, u64) {
    let PerExample {
        binding,
        cands,
        search,
        trial_binding,
        assigned,
    } = ex;
    crate::instrument::SUBSUME_COMPONENTS_SPLIT.add(core.n_split);
    crate::instrument::SUBSUME_LITERALS_FOLDED.add(core.n_folded);
    let ctx = Ctx {
        body,
        layout,
        core,
        ground,
        cands,
        binding,
    };
    search.init(&ctx, cfg);
    assigned.clear();
    assigned.resize(body.len(), true);
    // Phase structure per component: a cheap forward-checking-only pass
    // first (a small slice of the call budget — most coverage tests are
    // easy and propagation overhead would dominate them), escalating to
    // maintained arc consistency with the full remaining budget only when
    // the component proves hard enough to trip the first-pass slice. Both
    // phases are complete searches, so an `Exhausted` from either is an
    // exact "no θ"; only `Cutoff` escalates, and a `Cutoff` of the second
    // phase ends the test: the budget is spent, so the answer is a
    // conservative "not covered".
    const FC_PASS_BUDGET: usize = 256;
    let mut covered = true;
    let mut skipped = 0u64;
    for k in 0..core.components() {
        let comp = core.component(k);
        // Members are ascending, so the last one bounds the component.
        if comp.last().is_some_and(|&li| (li as usize) < proven) {
            skipped += 1;
            continue;
        }
        search.mac = false;
        search.limit = (search.nodes.saturating_add(FC_PASS_BUDGET)).min(cfg.node_limit);
        let out = match search.solve_component(&ctx, comp, trial_binding, assigned) {
            Outcome::Cutoff => {
                // Escalate to the propagating search.
                search.mac = true;
                search.limit = cfg.node_limit;
                search.solve_component(&ctx, comp, trial_binding, assigned)
            }
            out => out,
        };
        match out {
            Outcome::Found => {}
            Outcome::Exhausted => {
                covered = false; // complete: truly no θ
                break;
            }
            Outcome::Cutoff => {
                crate::instrument::SUBSUME_CUTOFFS.bump();
                covered = false;
                break;
            }
        }
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
        let cfg = SubsumeConfig { node_limit: 1 };
        // Either true (found fast) or false (budget) — just must terminate.
        let _ = theta_subsumes(&clause, &chain_ground(), &cfg);
    }

    /// The answer is a pure function of `(clause, ground, cfg)`: repeated
    /// calls — in any interleaving with other tests, fresh or through one
    /// reused workspace — agree.
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
        let mut ws = Workspace::default();
        for _ in 0..3 {
            assert_eq!(ws.theta_subsumes(&clause, &chain_ground(), &cfg), alone);
            assert!(ws.theta_subsumes(&other, &chain_ground(), &cfg));
        }
    }

    /// A test the budget cuts off answers "not covered", even for a clause
    /// that covers, and is counted.
    #[test]
    fn cutoffs_are_counted() {
        // t(x, y) ← r(x, z), r(z, y), s(z) covers the chain, but needs a
        // second search node.
        let clause = Clause::new(
            Literal::new(RelId(9), vec![v(0), v(1)]),
            vec![
                Literal::new(RelId(0), vec![v(0), v(2)]),
                Literal::new(RelId(0), vec![v(2), v(1)]),
                Literal::new(RelId(1), vec![v(2)]),
            ],
        );
        let before = crate::instrument::SUBSUME_CUTOFFS.get();
        assert!(!theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig { node_limit: 1 }
        ));
        assert!(crate::instrument::SUBSUME_CUTOFFS.get() > before);
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

    /// The fold of `clause.body[..len]` with the head bound, after checking
    /// that every folded literal has a witness: an earlier unfolded literal
    /// it folds onto.
    fn fold_of(clause: &Clause, len: usize) -> Vec<bool> {
        let mut layout = Layout::default();
        layout.build(clause);
        let body = &clause.body[..len];
        let mut prep = Core::default();
        prep.build(body, &layout);
        let mut count = vec![0u32; layout.num_vars];
        for lit in body {
            let mut seen: Vec<VarId> = lit.vars().collect();
            seen.sort_unstable();
            seen.dedup();
            for v in seen {
                count[v.index()] += 1;
            }
        }
        for (li, lit) in body.iter().enumerate() {
            if prep.folded[li] {
                assert!(
                    (0..li).any(|lj| !prep.folded[lj]
                        && body[lj].rel == lit.rel
                        && folds_onto(lit, private_mask(lit, &layout.in_head, &count), &body[lj])),
                    "literal {li} folded without an earlier unfolded witness"
                );
                assert!(prep.lbv_flat.iter().all(|&l| l as usize != li));
                assert!(prep.comp_flat.iter().all(|&l| l as usize != li));
            }
        }
        assert_eq!(
            prep.comp_flat.len(),
            prep.folded.iter().filter(|&&f| !f).count()
        );
        prep.folded
    }

    /// `t(V0, V1) ← body`.
    fn t_clause(body: Vec<Literal>) -> Clause {
        Clause::new(Literal::new(RelId(9), vec![v(0), v(1)]), body)
    }

    fn lit(rel: u32, args: &[Term]) -> Literal {
        Literal::new(RelId(rel), args.to_vec())
    }

    #[test]
    fn a_star_of_private_leaves_folds_onto_its_first_member() {
        // t(x, y) ← r(x, h), r(h, a), r(h, b), r(h, c), s(h): the leaves
        // a, b, c are private; b's and c's literals fold onto a's.
        let clause = t_clause(vec![
            lit(0, &[v(0), v(2)]),
            lit(0, &[v(2), v(3)]),
            lit(0, &[v(2), v(4)]),
            lit(0, &[v(2), v(5)]),
            lit(1, &[v(2)]),
        ]);
        assert_eq!(fold_of(&clause, 5), [false, false, true, true, false]);
        // The answer is the unfolded clause's: h = 10 has an r-successor
        // and s(10) holds.
        assert!(theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::default()
        ));
        let before = crate::instrument::SUBSUME_LITERALS_FOLDED.get();
        assert!(Workspace::default().theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::unbounded()
        ));
        assert!(crate::instrument::SUBSUME_LITERALS_FOLDED.get() >= before + 2);
    }

    #[test]
    fn a_repeated_private_variable_is_not_private() {
        // r(z, z) demands equal arguments, so it never folds onto r(a, b).
        let clause = t_clause(vec![lit(0, &[v(2), v(3)]), lit(0, &[v(4), v(4)])]);
        assert_eq!(fold_of(&clause, 2), [false, false]);
        // The chain ground has r-literals but none with equal arguments.
        assert!(!theta_subsumes(
            &clause,
            &chain_ground(),
            &SubsumeConfig::unbounded()
        ));
        // The other way round r(a, b) folds onto r(z, z): any r(c, c) is
        // an r-literal.
        let clause = t_clause(vec![lit(0, &[v(4), v(4)]), lit(0, &[v(2), v(3)])]);
        assert_eq!(fold_of(&clause, 2), [false, true]);
    }

    #[test]
    fn a_literal_folds_onto_an_unfolded_earlier_literal_only() {
        // Never onto itself: a lone private-leaf literal stays.
        assert_eq!(fold_of(&t_clause(vec![lit(0, &[v(0), v(2)])]), 1), [false]);
        // Never onto a later literal: of two mutually foldable literals and
        // of two exact duplicates, exactly the second folds.
        let pair = t_clause(vec![lit(0, &[v(0), v(2)]), lit(0, &[v(0), v(3)])]);
        assert_eq!(fold_of(&pair, 2), [false, true]);
        let dups = t_clause(vec![
            lit(0, &[v(0), v(2)]),
            lit(0, &[v(0), v(2)]),
            lit(1, &[v(2)]),
        ]);
        assert_eq!(fold_of(&dups, 3), [false, true, false]);
        // A run of leaves all fold onto the run's first literal, the one
        // unfolded literal of the relation.
        let run = t_clause((2..8).map(|n| lit(0, &[v(1), v(n)])).collect());
        assert_eq!(fold_of(&run, 6), [false, true, true, true, true, true]);
    }

    #[test]
    fn head_variables_and_constants_are_never_private() {
        let k = |n| Term::Const(c(n));
        // r(h, x) and r(h, y) differ in head variables, r(h, #5) and
        // r(h, #6) in constants: nothing folds.
        let clause = t_clause(vec![
            lit(0, &[v(2), v(0)]),
            lit(0, &[v(2), v(1)]),
            lit(0, &[v(2), k(5)]),
            lit(0, &[v(2), k(6)]),
            lit(1, &[v(2)]),
        ]);
        assert_eq!(fold_of(&clause, 5), [false; 5]);
        // A leaf literal folds onto any of them, and an exact duplicate of
        // a constant literal folds too.
        let clause = t_clause(vec![
            lit(0, &[v(2), k(5)]),
            lit(0, &[v(2), v(3)]),
            lit(0, &[v(2), k(5)]),
            lit(1, &[v(2)]),
        ]);
        assert_eq!(fold_of(&clause, 4), [false, true, true, false]);
    }

    #[test]
    fn privacy_is_decided_within_the_prefix() {
        // t(x, y) ← r(h, a), r(h, b), s(b): b is private in the 2-literal
        // prefix, shared in the whole body.
        let clause = t_clause(vec![
            lit(0, &[v(2), v(3)]),
            lit(0, &[v(2), v(4)]),
            lit(1, &[v(4)]),
        ]);
        assert_eq!(fold_of(&clause, 2), [false, true]);
        assert_eq!(fold_of(&clause, 3), [false, false, false]);
        // One probe answers both prefixes: h = 1, b = 10 witnesses each.
        let ground = chain_ground();
        let mut probe = PrefixProbe::new(&clause, &ground);
        let cfg = SubsumeConfig::unbounded();
        assert!(probe.covers(2, &cfg) && probe.covers(3, &cfg));
    }

    /// armg's deletions mirrored on a layout leave exactly the layout of
    /// the edited clause (its variable count aside).
    #[test]
    fn mirrored_layout_edits_match_a_fresh_layout() {
        let k = |n| Term::Const(c(n));
        let mut clause = t_clause(vec![
            lit(0, &[v(0), v(2)]),
            lit(1, &[v(2), k(5), v(1)]),
            lit(2, &[k(7)]),
            lit(0, &[v(2), v(3)]),
            lit(1, &[v(3), v(3), v(0)]),
            lit(2, &[v(4)]),
            lit(0, &[v(4), k(5)]),
        ]);
        let mut layout = Layout::default();
        layout.build(&clause);
        let same = |a: &Layout, b: &Layout| {
            a.var_off == b.var_off
                && a.var_pos == b.var_pos
                && a.shape_off == b.shape_off
                && a.shape == b.shape
        };
        for edit in [&[1usize][..], &[0, 2, 3, 5], &[0, 1, 3], &[2], &[0]] {
            if let [i] = edit {
                clause.body.remove(*i);
                layout.remove(*i);
            } else {
                clause.keep_body(edit);
                layout.keep(edit);
            }
            let mut fresh = Layout::default();
            fresh.build(&clause);
            assert!(
                same(&layout, &fresh),
                "after {edit:?}: {layout:?} vs {fresh:?}"
            );
            assert_eq!(layout.len(), clause.body.len());
        }
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
