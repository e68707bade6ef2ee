//! Bottom-clause (BC) construction — paper §2.3.1 (Algorithm 2) and §4.
//!
//! The BC associated with an example `e` is the most specific clause in the
//! hypothesis space covering `e`. Construction BFS-expands from the example's
//! constants: at each of `d` iterations, every mode's `+` attribute is probed
//! with the type-compatible constants discovered in the previous iteration
//! (this is the chain of semi-joins of §4.2.2), and each discovered tuple
//! contributes literals according to the mode definitions.
//!
//! How many tuples each probe keeps is the sampling strategy:
//!
//! - [`SamplingStrategy::Full`] — keep everything (exact Algorithm 2);
//! - [`SamplingStrategy::Naive`] — uniform per-selection sample (§4.1);
//! - [`SamplingStrategy::Random`] — Olken-style accept–reject sampling over
//!   the semi-join, weighting by *existence* of left values rather than
//!   their frequencies (§4.2.3);
//! - [`SamplingStrategy::Stratified`] — Algorithm 4's depth-first stratified
//!   sampling with one stratum per distinct constant-able value (§4.3).
//!
//! Construction yields the **ground** clause ([`build_ground_clause`]): the
//! collected tuples as facts, in collection order. Coverage testing reads
//! nothing else (§5). The variable-ized clause generalization starts from is
//! derived from it by [`variablize`], only for the examples that seed a
//! clause search.

use crate::bias::{ArgMode, LanguageBias};
use crate::clause::{Clause, Literal, Term, VarId};
use crate::example::Example;
use constraints::TypeId;
use rand::seq::SliceRandom;
use rand::Rng;
use relstore::{AttrRef, Const, Database, FxHashMap, FxHashSet, RelId, TupleId};

/// One ground literal: a database tuple as a fact. The input form of
/// [`GroundClause::new`]; a ground clause itself stores its facts flat.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroundLiteral {
    /// Relation symbol.
    pub rel: RelId,
    /// Constant per attribute.
    pub vals: Box<[Const]>,
}

/// A ground bottom clause: the example plus every collected tuple as a ground
/// fact. This is the subsumption target used for coverage testing (paper §5).
///
/// The facts are stored flat: one relation and one start offset per literal,
/// and every literal's constants back to back in one array, so a clause of
/// thousands of facts is a handful of allocations, not one per fact.
#[derive(Debug, Clone)]
pub struct GroundClause {
    /// The example this ground BC belongs to.
    pub example: Example,
    /// Relation of each literal, in insertion order.
    rels: Vec<RelId>,
    /// Literal `i`'s constants are `vals[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    vals: Vec<Const>,
    /// Literal indices grouped by relation (built once, used by
    /// subsumption): relation → range of `by_rel_idx`, whose indices are
    /// ascending within each relation.
    by_rel: FxHashMap<RelId, (u32, u32)>,
    by_rel_idx: Vec<u32>,
}

impl GroundClause {
    /// Creates a ground clause and its relation index.
    pub fn new(example: Example, body: Vec<GroundLiteral>) -> Self {
        let mut facts = Facts::default();
        for lit in &body {
            facts.push(lit.rel, &lit.vals);
        }
        facts.finish(example)
    }

    /// Relation of ground literal `i`.
    #[inline]
    pub fn rel(&self, i: usize) -> RelId {
        self.rels[i]
    }

    /// Constants of ground literal `i`, one per attribute.
    #[inline]
    pub fn vals(&self, i: usize) -> &[Const] {
        &self.vals[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Every ground literal as `(relation, constants)`, in insertion order.
    pub fn literals(&self) -> impl ExactSizeIterator<Item = (RelId, &[Const])> + '_ {
        (0..self.len()).map(|i| (self.rel(i), self.vals(i)))
    }

    /// Indices of ground literals of relation `rel`, ascending.
    pub fn literals_of(&self, rel: RelId) -> &[u32] {
        self.by_rel
            .get(&rel)
            .map_or(&[], |&(a, b)| &self.by_rel_idx[a as usize..b as usize])
    }

    /// Number of ground body literals.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }
}

/// A ground clause's facts under construction, in the flat layout.
#[derive(Debug, Default)]
struct Facts {
    rels: Vec<RelId>,
    starts: Vec<u32>,
    vals: Vec<Const>,
}

impl Facts {
    fn push(&mut self, rel: RelId, vals: &[Const]) {
        self.rels.push(rel);
        self.starts.push(self.vals.len() as u32);
        self.vals.extend_from_slice(vals);
    }

    /// Closes the fact list and indexes it by relation.
    fn finish(self, example: Example) -> GroundClause {
        let Facts {
            rels,
            mut starts,
            vals,
        } = self;
        starts.push(vals.len() as u32);
        // Count per relation, give each relation a range, then fill each
        // range in literal order; a range is (start, end) once filled.
        let mut by_rel: FxHashMap<RelId, (u32, u32)> = FxHashMap::default();
        for &rel in &rels {
            by_rel.entry(rel).or_insert((0, 0)).1 += 1;
        }
        let mut next = 0u32;
        for range in by_rel.values_mut() {
            let count = range.1;
            *range = (next, next);
            next += count;
        }
        let mut by_rel_idx = vec![0u32; rels.len()];
        for (i, rel) in rels.iter().enumerate() {
            let range = by_rel.get_mut(rel).expect("counted above");
            by_rel_idx[range.1 as usize] = i as u32;
            range.1 += 1;
        }
        GroundClause {
            example,
            rels,
            starts,
            vals,
            by_rel,
            by_rel_idx,
        }
    }
}

/// A ground clause together with its variable-ized form
/// ([`build_bottom_clause`]).
#[derive(Debug, Clone)]
pub struct BottomClause {
    /// The most specific (sampled) clause covering the example.
    pub clause: Clause,
    /// The same collection as ground facts.
    pub ground: GroundClause,
}

/// Tuple-selection strategy during BC construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplingStrategy {
    /// Keep every tuple each probe finds (exact Algorithm 2).
    Full,
    /// Uniform random sample of each probe's result (§4.1). The paper's
    /// experiments cap at 20 tuples per mode.
    Naive {
        /// Max tuples kept per (mode, `+`-attribute) probe.
        per_selection: usize,
    },
    /// Accept–reject sampling over the semi-join without materializing it
    /// (§4.2.3, Olken's algorithm adapted to semi-joins).
    Random {
        /// Tuples to accept per probe.
        per_selection: usize,
        /// Attempt budget multiplier: give up after
        /// `per_selection * oversample` draws (the paper's "sufficiently
        /// larger number of samples" guard against rejection chains).
        oversample: usize,
    },
    /// Depth-first stratified sampling (Algorithm 4): one stratum per
    /// distinct value of each constant-able attribute.
    Stratified {
        /// Tuples sampled uniformly per stratum.
        per_stratum: usize,
    },
}

impl SamplingStrategy {
    /// Static regime name, used as the `bc.build` span label.
    pub fn label(&self) -> &'static str {
        match self {
            SamplingStrategy::Full => "full",
            SamplingStrategy::Naive { .. } => "naive",
            SamplingStrategy::Random { .. } => "random",
            SamplingStrategy::Stratified { .. } => "stratified",
        }
    }
}

/// Configuration for BC construction.
#[derive(Debug, Clone, Copy)]
pub struct BcConfig {
    /// Number of expansion iterations `d` (Algorithm 2). Paper Example 2.5
    /// uses `d = 1`; real runs typically use 2–3.
    pub depth: usize,
    /// Tuple-selection strategy.
    pub strategy: SamplingStrategy,
    /// Safety cap on collected tuples — BCs "usually contain hundreds of
    /// literals" (§2.3.2); unrestricted biases (Castor) can explode, which is
    /// exactly the paper's Table 5 "killed by the kernel" row. The cap keeps
    /// the reproduction bounded while preserving the blow-up in time.
    pub max_tuples: usize,
    /// Cap on *body literals* of the variable-ized clause. Each collected
    /// tuple yields one literal per matching mode, so constant-heavy biases
    /// multiply literals well beyond `max_tuples`; generalization over a
    /// clause that large is pointless (armg would drop almost all of it).
    /// Earlier-collected tuples (closest to the example) win.
    pub max_body_literals: usize,
}

impl Default for BcConfig {
    fn default() -> Self {
        Self {
            depth: 2,
            strategy: SamplingStrategy::Naive { per_selection: 20 },
            max_tuples: 5_000,
            max_body_literals: 2_000,
        }
    }
}

/// Reusable sets for bottom-clause construction
/// ([`build_ground_clause_in`]), the construction-side sibling of
/// [`crate::subsume::Workspace`]: a caller that builds many clauses keeps
/// one and hands it to every build, so the per-build sets are cleared
/// instead of reallocated. Each build starts by emptying it, so a build's
/// output never depends on what the scratch built before.
#[derive(Debug, Default)]
pub struct BcScratch {
    /// Collected tuples, one set per relation (indexed by [`RelId::index`]).
    collected: Vec<TupleSet>,
    /// The current probe's selection; empty between probes.
    selected: TupleSet,
    /// Collected tuples in insertion order.
    order: Vec<(RelId, TupleId)>,
    /// (constant, type) pairs seen so far, accumulated from the attributes
    /// each constant appeared in.
    known: FxHashSet<(Const, TypeId)>,
}

impl BcScratch {
    /// Forgets the previous build, keeping capacity. The selection is
    /// emptied by each probe itself.
    fn reset(&mut self) {
        for set in &mut self.collected {
            set.clear();
        }
        self.order.clear();
        self.known.clear();
    }
}

/// A set of tuple ids of one relation: one bit per id, plus one summary bit
/// per nonzero word. Listing and clearing visit only the words an insert
/// set, found through the summary (one summary word per 4,096 ids), so they
/// cost what was inserted rather than the relation's size, and list the ids
/// in ascending order without sorting them.
#[derive(Debug, Default)]
struct TupleSet {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl TupleSet {
    /// Adds `id`; false when it was already present.
    #[inline]
    fn insert(&mut self, id: TupleId) -> bool {
        let w = id as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
            self.summary.resize(w / 64 + 1, 0);
        }
        let bit = 1u64 << (id % 64);
        let word = &mut self.words[w];
        if *word & bit != 0 {
            return false;
        }
        if *word == 0 {
            self.summary[w / 64] |= 1u64 << (w % 64);
        }
        *word |= bit;
        true
    }

    /// Empties the set, appending its ids to `out` in ascending order.
    fn drain_into(&mut self, out: &mut Vec<TupleId>) {
        self.drain(|id| out.push(id));
    }

    /// Empties the set.
    fn clear(&mut self) {
        self.drain(|_| {});
    }

    fn drain(&mut self, mut each: impl FnMut(TupleId)) {
        for (si, summary) in self.summary.iter_mut().enumerate() {
            let mut s = std::mem::take(summary);
            while s != 0 {
                let w = si * 64 + s.trailing_zeros() as usize;
                s &= s - 1;
                let mut bits = std::mem::take(&mut self.words[w]);
                while bits != 0 {
                    each((w * 64) as TupleId + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// Internal construction state shared by the strategies.
struct Builder<'a, 's> {
    db: &'a Database,
    bias: &'a LanguageBias,
    cfg: BcConfig,
    s: &'s mut BcScratch,
    /// Tuple ids handed to collection after sampling (the
    /// `tuples_selected` note and counter).
    tuples_selected: u64,
}

impl<'a, 's> Builder<'a, 's> {
    fn new(db: &'a Database, bias: &'a LanguageBias, cfg: BcConfig, s: &'s mut BcScratch) -> Self {
        s.reset();
        Self {
            db,
            bias,
            cfg,
            s,
            tuples_selected: 0,
        }
    }

    fn at_capacity(&self) -> bool {
        self.s.order.len() >= self.cfg.max_tuples
    }

    /// Records a tuple unless it is already collected; true when new.
    fn collect(&mut self, rel: RelId, id: TupleId) -> bool {
        let sets = &mut self.s.collected;
        if sets.len() <= rel.index() {
            sets.resize_with(rel.index() + 1, TupleSet::default);
        }
        if !sets[rel.index()].insert(id) {
            return false;
        }
        self.s.order.push((rel, id));
        true
    }

    /// Records a tuple; appends to `frontier` the constants that gained a
    /// *new* type from a variable-izable attribute (the next BFS frontier
    /// contributions).
    fn add_tuple(&mut self, rel: RelId, id: TupleId, frontier: &mut Vec<(Const, TypeId)>) {
        if !self.collect(rel, id) {
            return;
        }
        let tuple = self.db.relation(rel).tuple(id);
        for (pos, &c) in tuple.iter().enumerate() {
            let attr = AttrRef::new(rel, pos);
            // Only variable-ized constants enter the hash table and drive
            // further expansion (paper §2.3.1).
            if !self.bias.can_be_var(attr) {
                continue;
            }
            for &t in self.bias.types_of(attr) {
                if self.s.known.insert((c, t)) {
                    frontier.push((c, t));
                }
            }
        }
    }

    /// Seeds `frontier` with the example's constants under the target
    /// attribute types.
    fn seed(&mut self, example: &Example, frontier: &mut Vec<(Const, TypeId)>) {
        for (pos, &c) in example.args.iter().enumerate() {
            let attr = AttrRef::new(example.rel, pos);
            for &t in self.bias.types_of(attr) {
                if self.s.known.insert((c, t)) {
                    frontier.push((c, t));
                }
            }
        }
    }

    /// Probe targets: every (relation, `+` position) pair from the body
    /// modes, deduplicated, in deterministic order.
    fn probe_points(&self) -> Vec<AttrRef> {
        let mut rels: Vec<RelId> = self.bias.body_rels().collect();
        rels.sort_unstable();
        let mut seen = FxHashSet::default();
        let mut out = Vec::new();
        for rel in rels {
            for mode in self.bias.modes_for(rel) {
                for j in mode.plus_positions() {
                    let attr = AttrRef::new(rel, j);
                    if seen.insert(attr) {
                        out.push(attr);
                    }
                }
            }
        }
        out
    }

    /// Frontier constants whose types make them candidates for `attr`,
    /// sorted and distinct, into `vals`.
    fn matching_values(&self, frontier: &[(Const, TypeId)], attr: AttrRef, vals: &mut Vec<Const>) {
        let attr_types = self.bias.types_of(attr);
        vals.clear();
        vals.extend(
            frontier
                .iter()
                .filter(|(_, t)| attr_types.contains(t))
                .map(|(c, _)| *c),
        );
        vals.sort_unstable();
        vals.dedup();
    }

    /// σ_{attr ∈ vals}: all matching tuple ids, ascending, appended to
    /// `out` (Full / Naive path). The values' postings are marked in the
    /// selection set and drained in id order, which is
    /// [`relstore::algebra::select_in`]'s sorted output (distinct values
    /// have disjoint postings) without its hash set or sort.
    fn select(&mut self, attr: AttrRef, vals: &[Const], out: &mut Vec<TupleId>) {
        let idx = self.db.relation(attr.rel).index(attr.pos as usize);
        for &v in vals {
            for &id in idx.lookup(v) {
                self.s.selected.insert(id);
            }
        }
        self.s.selected.drain_into(out);
    }
}

/// Builds the bottom clause for `example` under `bias`: the ground clause
/// and its variable-ized form, capped at `cfg.max_body_literals` literals.
pub fn build_bottom_clause<R: Rng>(
    db: &Database,
    bias: &LanguageBias,
    example: &Example,
    cfg: &BcConfig,
    rng: &mut R,
) -> BottomClause {
    let ground = build_ground_clause(db, bias, example, cfg, rng);
    BottomClause {
        clause: variablize(&ground, bias, cfg.max_body_literals),
        ground,
    }
}

/// Builds the ground bottom clause for `example` under `bias`: every tuple
/// the collection pass keeps, as a fact, in collection order.
///
/// [`SamplingStrategy::Random`] reads its frequency statistics `m(a)` and
/// `M` from the probed attributes' indexes.
/// Callers that build many clauses reuse one [`BcScratch`] through
/// [`build_ground_clause_in`].
pub fn build_ground_clause<R: Rng>(
    db: &Database,
    bias: &LanguageBias,
    example: &Example,
    cfg: &BcConfig,
    rng: &mut R,
) -> GroundClause {
    build_ground_clause_in(&mut BcScratch::default(), db, bias, example, cfg, rng)
}

/// [`build_ground_clause`] in the caller's scratch. The clause is the same
/// whatever the scratch built before.
///
/// The last expansion depth only collects: its tuples would feed a frontier
/// no later depth reads, so they skip the (constant, type) bookkeeping.
pub fn build_ground_clause_in<R: Rng>(
    scratch: &mut BcScratch,
    db: &Database,
    bias: &LanguageBias,
    example: &Example,
    cfg: &BcConfig,
    rng: &mut R,
) -> GroundClause {
    crate::instrument::BOTTOM_CLAUSES_BUILT.bump();
    let mut sp = obs::span!("bc.build", cfg.strategy.label());
    let mut walk = WalkStats::default();
    let mut b = Builder::new(db, bias, *cfg, scratch);
    let mut frontier = Vec::new();
    b.seed(example, &mut frontier);
    let probes = b.probe_points();

    match cfg.strategy {
        SamplingStrategy::Stratified { per_stratum } => {
            stratified_collect(&mut b, example, per_stratum);
        }
        strategy => {
            // Reused by every probe of the build.
            let (mut next_frontier, mut vals, mut picked) = (Vec::new(), Vec::new(), Vec::new());
            for depth in 1..=cfg.depth {
                if frontier.is_empty() || b.at_capacity() {
                    break;
                }
                let last = depth == cfg.depth;
                next_frontier.clear();
                for &attr in &probes {
                    if b.at_capacity() {
                        break;
                    }
                    b.matching_values(&frontier, attr, &mut vals);
                    if vals.is_empty() {
                        continue;
                    }
                    picked.clear();
                    match strategy {
                        SamplingStrategy::Full => b.select(attr, &vals, &mut picked),
                        SamplingStrategy::Naive { per_selection } => {
                            b.select(attr, &vals, &mut picked);
                            if picked.len() > per_selection {
                                picked.shuffle(rng);
                                picked.truncate(per_selection);
                            }
                        }
                        SamplingStrategy::Random {
                            per_selection,
                            oversample,
                        } => olken_semijoin_sample(
                            &b,
                            attr,
                            &vals,
                            per_selection,
                            oversample,
                            rng,
                            &mut walk,
                            &mut picked,
                        ),
                        SamplingStrategy::Stratified { .. } => unreachable!(),
                    }
                    b.tuples_selected += picked.len() as u64;
                    for &id in &picked {
                        if b.at_capacity() {
                            break;
                        }
                        if last {
                            b.collect(attr.rel, id);
                        } else {
                            b.add_tuple(attr.rel, id, &mut next_frontier);
                        }
                    }
                }
                std::mem::swap(&mut frontier, &mut next_frontier);
            }
        }
    }

    let order = &b.s.order;
    let tuple = |&(rel, id): &(RelId, TupleId)| db.relation(rel).tuple(id);
    let mut facts = Facts {
        rels: Vec::with_capacity(order.len()),
        starts: Vec::with_capacity(order.len() + 1),
        vals: Vec::with_capacity(order.iter().map(|t| tuple(t).len()).sum()),
    };
    for t in order {
        facts.push(t.0, tuple(t));
    }
    let ground = facts.finish(example.clone());
    let (selected, collected) = (b.tuples_selected, order.len() as u64);
    if sp.is_active() {
        sp.note("tuples_selected", selected);
        sp.note("tuples_collected", collected);
        sp.note("ground_literals", ground.len() as u64);
        if walk.draws > 0 {
            sp.note("walk_draws", walk.draws);
            sp.note("walk_accepted", walk.accepted);
        }
    }
    crate::instrument::BC_TUPLES_SELECTED.add(selected);
    crate::instrument::BC_TUPLES_COLLECTED.add(collected);
    crate::instrument::BC_WALK_DRAWS.add(walk.draws);
    crate::instrument::BC_WALK_ACCEPTED.add(walk.accepted);
    ground
}

/// Accept–reject walk tally for one bottom clause (exported as span notes
/// and the `autobias_core_bc_walk_*` counters; rejected = draws − accepted,
/// counting empty-lookup draws as rejections).
#[derive(Debug, Clone, Copy, Default)]
struct WalkStats {
    draws: u64,
    accepted: u64,
}

/// The §4.2.3 accept–reject sampler over the semi-join `{vals} ⋊ R`:
/// pick a value `a` uniformly from the distinct left values, pick a tuple
/// uniformly among those with `R[B] = a`, accept with probability
/// `m(a) / M`. Repeats until `want` tuples are accepted or the attempt
/// budget (`want × oversample`) is exhausted. Appends the accepted ids to
/// `out`.
#[allow(clippy::too_many_arguments)]
fn olken_semijoin_sample<R: Rng>(
    b: &Builder<'_, '_>,
    attr: AttrRef,
    vals: &[Const],
    want: usize,
    oversample: usize,
    rng: &mut R,
    walk: &mut WalkStats,
    out: &mut Vec<TupleId>,
) {
    let idx = b.db.relation(attr.rel).index(attr.pos as usize);
    let max_freq = idx.max_freq();
    if max_freq == 0 || vals.is_empty() {
        return;
    }
    let budget = want.saturating_mul(oversample.max(1)).max(want);
    let mut seen = FxHashSet::default();
    let start = out.len();
    for _ in 0..budget {
        if out.len() - start >= want {
            break;
        }
        walk.draws += 1;
        let a = vals[rng.random_range(0..vals.len())];
        let ts = idx.lookup(a);
        if ts.is_empty() {
            continue;
        }
        let t = ts[rng.random_range(0..ts.len())];
        // Accept with probability m(a)/M — this corrects for having selected
        // the *value* uniformly, yielding a uniform sample of the semi-join
        // result (Proposition 4.2).
        let accept = ts.len() as f64 / max_freq as f64;
        if rng.random_range(0.0..1.0) < accept && seen.insert(t) {
            walk.accepted += 1;
            out.push(t);
        }
    }
}

/// Algorithm 4: depth-first stratified collection. The recursion keeps, at
/// every level, only the parent tuples that join the sampled child tuples,
/// and unions the child samples themselves into the result (the union is
/// implicit in the paper's pseudocode).
fn stratified_collect(b: &mut Builder<'_, '_>, example: &Example, per_stratum: usize) {
    // Deterministic xorshift for stratum sampling; Algorithm 4 does not need
    // statistics, and determinism here makes tests reproducible.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let probes = b.probe_points();
    for (pos, &c) in example.args.iter().enumerate() {
        let attr = AttrRef::new(example.rel, pos);
        let types: Vec<TypeId> = b.bias.types_of(attr).to_vec();
        for &probe in &probes {
            let probe_types = b.bias.types_of(probe);
            if !types.iter().any(|t| probe_types.contains(t)) {
                continue;
            }
            let mut vals = FxHashSet::default();
            vals.insert(c);
            strat_rec(b, &probes, probe, &vals, 1, per_stratum, &mut next);
        }
    }
}

/// Recursive step of Algorithm 4. Returns the tuple ids of `probe.rel` kept
/// at this level (already recorded in the builder).
fn strat_rec(
    b: &mut Builder<'_, '_>,
    probes: &[AttrRef],
    probe: AttrRef,
    values: &FxHashSet<Const>,
    depth: usize,
    per_stratum: usize,
    rng: &mut impl FnMut() -> u64,
) -> Vec<TupleId> {
    if b.at_capacity() || values.is_empty() {
        return Vec::new();
    }
    let i_r = relstore::algebra::select_in(b.db, probe, values);
    if i_r.is_empty() {
        return Vec::new();
    }

    let kept: Vec<TupleId> = if depth >= b.cfg.depth.max(1) {
        sample_strata(b, probe.rel, &i_r, per_stratum, rng)
    } else {
        let arity = b.db.catalog().schema(probe.rel).arity();
        let mut kept = FxHashSet::default();
        let mut expanded = false;
        for out_pos in 0..arity {
            if out_pos == probe.pos as usize {
                continue;
            }
            let out_attr = AttrRef::new(probe.rel, out_pos);
            if !b.bias.can_be_var(out_attr) {
                continue;
            }
            let out_types = b.bias.types_of(out_attr);
            let out_vals: FxHashSet<Const> = i_r
                .iter()
                .map(|&id| b.db.relation(probe.rel).tuple(id)[out_pos])
                .collect();
            for &child in probes {
                if child == probe {
                    continue;
                }
                let child_types = b.bias.types_of(child);
                if !out_types.iter().any(|t| child_types.contains(t)) {
                    continue;
                }
                expanded = true;
                let child_kept =
                    strat_rec(b, probes, child, &out_vals, depth + 1, per_stratum, rng);
                if child_kept.is_empty() {
                    continue;
                }
                // Values of the child's join attribute among its kept tuples.
                let joined: FxHashSet<Const> = child_kept
                    .iter()
                    .map(|&id| b.db.relation(child.rel).tuple(id)[child.pos as usize])
                    .collect();
                for &id in &i_r {
                    if joined.contains(&b.db.relation(probe.rel).tuple(id)[out_pos]) {
                        kept.insert(id);
                    }
                }
            }
        }
        if !expanded {
            sample_strata(b, probe.rel, &i_r, per_stratum, rng)
        } else if kept.is_empty() {
            // Children sampled nothing joinable; keep a stratum sample of
            // this level so the example's own neighbourhood is represented.
            sample_strata(b, probe.rel, &i_r, per_stratum, rng)
        } else {
            let mut v: Vec<TupleId> = kept.into_iter().collect();
            v.sort_unstable();
            v
        }
    };

    // Algorithm 4 expands by recursion, not by frontier, so collection
    // keeps no (constant, type) bookkeeping.
    b.tuples_selected += kept.len() as u64;
    for &id in &kept {
        if b.at_capacity() {
            break;
        }
        b.collect(probe.rel, id);
    }
    kept
}

/// Samples `per_stratum` tuples from every stratum of `ids`: one stratum per
/// distinct value of each constant-able attribute, or a single stratum when
/// the relation has none (§4.3.2).
fn sample_strata(
    b: &Builder<'_, '_>,
    rel: RelId,
    ids: &[TupleId],
    per_stratum: usize,
    rng: &mut impl FnMut() -> u64,
) -> Vec<TupleId> {
    let arity = b.db.catalog().schema(rel).arity();
    let const_positions: Vec<usize> = (0..arity)
        .filter(|&p| b.bias.can_be_const(AttrRef::new(rel, p)))
        .collect();

    let mut uniform = |pool: &[TupleId], want: usize, out: &mut Vec<TupleId>| {
        if pool.len() <= want {
            out.extend_from_slice(pool);
        } else {
            // Floyd-style distinct sampling with the xorshift stream.
            let mut picked = FxHashSet::default();
            while picked.len() < want {
                picked.insert(pool[(rng() % pool.len() as u64) as usize]);
            }
            out.extend(picked);
        }
    };

    let mut out = Vec::new();
    if const_positions.is_empty() {
        uniform(ids, per_stratum, &mut out);
    } else {
        for &p in &const_positions {
            let mut strata: FxHashMap<Const, Vec<TupleId>> = FxHashMap::default();
            for &id in ids {
                strata
                    .entry(b.db.relation(rel).tuple(id)[p])
                    .or_default()
                    .push(id);
            }
            let mut keys: Vec<Const> = strata.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                uniform(&strata[&k], per_stratum, &mut out);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The variable-ized bottom clause of `ground`: the most specific clause
/// in the hypothesis space covering its example, which generalization
/// starts from. Each ground literal yields one literal per mode of its
/// relation: `#` attributes keep their constant, and every other constant
/// becomes a variable, shared wherever the constant recurs (the head's
/// included). Literals come in the ground body's order, duplicates dropped,
/// and stop at `max_body_literals`, so the tuples closest to the example
/// win.
pub fn variablize(ground: &GroundClause, bias: &LanguageBias, max_body_literals: usize) -> Clause {
    crate::instrument::BC_VARIABLIZED.bump();
    let mut sp = obs::span!("bc.variablize");
    let mut var_of: FxHashMap<Const, VarId> = FxHashMap::default();
    let mut var = |c: Const| {
        let next = VarId(var_of.len() as u32);
        *var_of.entry(c).or_insert(next)
    };

    let head_args: Vec<Term> = ground
        .example
        .args
        .iter()
        .map(|&c| Term::Var(var(c)))
        .collect();
    let head = Literal::new(ground.example.rel, head_args);

    let mut body = Vec::new();
    let mut body_seen = FxHashSet::default();
    'tuples: for (rel, vals) in ground.literals() {
        for mode in bias.modes_for(rel) {
            if body.len() >= max_body_literals {
                break 'tuples;
            }
            let args: Vec<Term> = vals
                .iter()
                .zip(&mode.args)
                .map(|(&c, m)| match m {
                    ArgMode::Hash => Term::Const(c),
                    ArgMode::Plus | ArgMode::Minus => Term::Var(var(c)),
                })
                .collect();
            let lit = Literal::new(rel, args);
            if body_seen.insert(lit.clone()) {
                body.push(lit);
            }
        }
    }
    sp.note("body_literals", body.len() as u64);
    Clause::new(head, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::parse::parse_bias;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use relstore::fixtures::uw_fragment;

    const UW_BIAS: &str = "
pred student(T1)
pred inPhase(T1, T2)
pred professor(T3)
pred hasPosition(T3, T4)
pred publication(T5, T1)
pred publication(T5, T3)
pred advisedBy(T1, T3)

mode student(+)
mode inPhase(+, -)
mode inPhase(+, #)
mode professor(+)
mode hasPosition(+, -)
mode publication(-, +)
";

    fn setup() -> (Database, RelId, LanguageBias, Example) {
        let mut db = uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        let juan = db.intern("juan");
        let sarita = db.intern("sarita");
        let bias = parse_bias(&db, target, UW_BIAS).unwrap();
        let example = Example::new(target, vec![juan, sarita]);
        (db, target, bias, example)
    }

    /// Reproduces Example 2.5 exactly: with d = 1 and the Table 3 bias, the
    /// BC for advisedBy(juan, sarita) has precisely the 7 literals the paper
    /// prints.
    #[test]
    fn example_2_5_bottom_clause() {
        let (db, _, bias, example) = setup();
        let cfg = BcConfig {
            depth: 1,
            strategy: SamplingStrategy::Full,
            max_body_literals: 100_000,
            max_tuples: 1000,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let bc = build_bottom_clause(&db, &bias, &example, &cfg, &mut rng);

        let rendered: Vec<String> = bc.clause.body.iter().map(|l| l.render(&db)).collect();
        let expected_count = 7;
        assert_eq!(
            bc.clause.len(),
            expected_count,
            "got literals: {rendered:?}"
        );
        // Structural spot checks matching the paper's clause.
        assert!(rendered.contains(&"student(x)".to_string()));
        assert!(rendered.contains(&"professor(y)".to_string()));
        assert!(rendered
            .iter()
            .any(|l| l.starts_with("inPhase(x, post_quals")));
        // Co-authorship: the same publication variable links x and y.
        let pub_lits: Vec<&String> = rendered
            .iter()
            .filter(|l| l.starts_with("publication("))
            .collect();
        assert_eq!(pub_lits.len(), 2);
        let var_of = |s: &str| {
            s["publication(".len()..]
                .split(',')
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(var_of(pub_lits[0]), var_of(pub_lits[1]));
    }

    #[test]
    fn ground_clause_matches_collection() {
        let (db, _, bias, example) = setup();
        let cfg = BcConfig {
            depth: 1,
            strategy: SamplingStrategy::Full,
            max_body_literals: 100_000,
            max_tuples: 1000,
        };
        let mut rng = StdRng::seed_from_u64(0);
        let bc = build_bottom_clause(&db, &bias, &example, &cfg, &mut rng);
        // 6 tuples: student(juan), professor(sarita), inPhase(juan,·),
        // hasPosition(sarita,·), publication(p1,juan), publication(p1,sarita).
        assert_eq!(bc.ground.len(), 6);
        let publ = db.rel_id("publication").unwrap();
        assert_eq!(bc.ground.literals_of(publ).len(), 2);
    }

    #[test]
    fn depth_2_reaches_coauthors() {
        // At d = 2 the expansion crosses publication to reach john? No:
        // p1's authors are juan and sarita only; john is on p2, unreachable.
        // But inPhase(john, post_quals) IS reachable? No — post_quals is in a
        // `-`/`#` attribute of type T2, and no + mode probes T2. The
        // reachable set at d = 2 equals d = 1 here except via publication
        // titles: publication(-,+) probes person only, so p1 (type T5)
        // cannot be probed either. The BC is stable.
        let (db, _, bias, example) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let d1 = build_bottom_clause(
            &db,
            &bias,
            &example,
            &BcConfig {
                depth: 1,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 1000,
            },
            &mut rng,
        );
        let d2 = build_bottom_clause(
            &db,
            &bias,
            &example,
            &BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 1000,
            },
            &mut rng,
        );
        assert_eq!(d1.ground.len(), d2.ground.len());
    }

    #[test]
    fn title_probing_mode_extends_reach() {
        // Adding mode publication(+, -) lets the expansion hop p1 → sarita
        // (already present) and, crucially, probe titles.
        let (db, target, _, example) = setup();
        let bias =
            parse_bias(&db, target, &format!("{UW_BIAS}\nmode publication(+, -)\n")).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let bc = build_bottom_clause(
            &db,
            &bias,
            &example,
            &BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 1000,
            },
            &mut rng,
        );
        assert_eq!(bc.ground.len(), 6); // same tuples, found via both directions
    }

    #[test]
    fn naive_sampling_caps_selection() {
        let (db, _, bias, example) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let bc = build_bottom_clause(
            &db,
            &bias,
            &example,
            &BcConfig {
                depth: 1,
                strategy: SamplingStrategy::Naive { per_selection: 1 },
                max_body_literals: 100_000,
                max_tuples: 1000,
            },
            &mut rng,
        );
        // publication probe may keep only 1 of its 2 tuples.
        let publ = db.rel_id("publication").unwrap();
        assert!(bc.ground.literals_of(publ).len() <= 1);
    }

    #[test]
    fn random_sampling_stays_within_reachable_set() {
        let (db, _, bias, example) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let full = build_bottom_clause(
            &db,
            &bias,
            &example,
            &BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 1000,
            },
            &mut rng,
        );
        let full_set: FxHashSet<(RelId, &[Const])> = full.ground.literals().collect();
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let sampled = build_bottom_clause(
                &db,
                &bias,
                &example,
                &BcConfig {
                    depth: 2,
                    strategy: SamplingStrategy::Random {
                        per_selection: 2,
                        oversample: 10,
                    },
                    max_body_literals: 100_000,
                    max_tuples: 1000,
                },
                &mut rng,
            );
            for lit in sampled.ground.literals() {
                assert!(full_set.contains(&lit), "sampled a non-reachable tuple");
            }
        }
    }

    /// The accept–reject sampler reads `m(a)` and `M` from indexes built on
    /// first read, so a database that has read no index samples exactly
    /// like one whose every index was read first.
    #[test]
    fn random_sampling_is_the_same_before_and_after_index_reads() {
        let (warm, _, bias, example) = setup();
        for attr in warm.catalog().all_attrs() {
            warm.relation(attr.rel).index(attr.pos as usize);
        }
        let cfg = BcConfig {
            depth: 2,
            strategy: SamplingStrategy::Random {
                per_selection: 1,
                oversample: 10,
            },
            max_body_literals: 100_000,
            max_tuples: 1000,
        };
        for seed in 0..16 {
            let (cold, ..) = setup();
            let build = |db: &Database| {
                let mut rng = StdRng::seed_from_u64(seed);
                let g = build_ground_clause(db, &bias, &example, &cfg, &mut rng);
                g.literals()
                    .map(|(rel, args)| (rel, args.to_vec()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(build(&cold), build(&warm), "seed {seed}");
        }
    }

    #[test]
    fn stratified_covers_every_constant_stratum() {
        // inPhase[phase] is constant-able; the stratified sample must keep at
        // least one tuple per distinct reachable phase value.
        let (db, _, bias, example) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let bc = build_bottom_clause(
            &db,
            &bias,
            &example,
            &BcConfig {
                depth: 1,
                strategy: SamplingStrategy::Stratified { per_stratum: 1 },
                max_body_literals: 100_000,
                max_tuples: 1000,
            },
            &mut rng,
        );
        let phase_rel = db.rel_id("inPhase").unwrap();
        // juan's only phase tuple must be present (one stratum: post_quals).
        assert_eq!(bc.ground.literals_of(phase_rel).len(), 1);
        // And the co-authorship tuples survive stratification.
        let publ = db.rel_id("publication").unwrap();
        assert!(!bc.ground.literals_of(publ).is_empty());
    }

    #[test]
    fn max_tuples_caps_collection() {
        let (db, _, bias, example) = setup();
        let mut rng = StdRng::seed_from_u64(0);
        let bc = build_bottom_clause(
            &db,
            &bias,
            &example,
            &BcConfig {
                depth: 3,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 2,
            },
            &mut rng,
        );
        assert!(bc.ground.len() <= 2);
    }

    #[test]
    fn repeated_example_constants_share_head_variable() {
        let (db, target, bias, _) = setup();
        let juan = db.lookup("juan").unwrap();
        let example = Example::new(target, vec![juan, juan]);
        let mut rng = StdRng::seed_from_u64(0);
        let bc = build_bottom_clause(&db, &bias, &example, &BcConfig::default(), &mut rng);
        assert_eq!(bc.clause.head.args[0], bc.clause.head.args[1]);
    }
}
