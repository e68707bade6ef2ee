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

/// Internal construction state shared by the strategies.
struct Builder<'a> {
    db: &'a Database,
    bias: &'a LanguageBias,
    cfg: BcConfig,
    /// Collected tuples in insertion order.
    collected: Vec<(RelId, TupleId)>,
    collected_set: FxHashSet<(RelId, TupleId)>,
    /// (constant, type) pairs seen so far, accumulated from the attributes
    /// each constant appeared in.
    known: FxHashSet<(Const, TypeId)>,
}

impl<'a> Builder<'a> {
    fn new(db: &'a Database, bias: &'a LanguageBias, cfg: BcConfig) -> Self {
        Self {
            db,
            bias,
            cfg,
            collected: Vec::new(),
            collected_set: FxHashSet::default(),
            known: FxHashSet::default(),
        }
    }

    fn at_capacity(&self) -> bool {
        self.collected.len() >= self.cfg.max_tuples
    }

    /// Records a tuple; appends to `frontier` the constants that gained a
    /// *new* type from a variable-izable attribute (the next BFS frontier
    /// contributions).
    fn add_tuple(&mut self, rel: RelId, id: TupleId, frontier: &mut Vec<(Const, TypeId)>) {
        if !self.collected_set.insert((rel, id)) {
            return;
        }
        self.collected.push((rel, id));
        // Borrow the tuple through a copy of the `&'a Database`, so it does
        // not hold `self` while `known` is updated.
        let db = self.db;
        let tuple = db.relation(rel).tuple(id);
        for (pos, &c) in tuple.iter().enumerate() {
            let attr = AttrRef::new(rel, pos);
            // Only variable-ized constants enter the hash table and drive
            // further expansion (paper §2.3.1).
            if !self.bias.can_be_var(attr) {
                continue;
            }
            for &t in self.bias.types_of(attr) {
                if self.known.insert((c, t)) {
                    frontier.push((c, t));
                }
            }
        }
    }

    /// Seeds the frontier with the example's constants under the target
    /// attribute types.
    fn seed(&mut self, example: &Example) -> Vec<(Const, TypeId)> {
        let mut frontier = Vec::new();
        for (pos, &c) in example.args.iter().enumerate() {
            let attr = AttrRef::new(example.rel, pos);
            for &t in self.bias.types_of(attr) {
                if self.known.insert((c, t)) {
                    frontier.push((c, t));
                }
            }
        }
        frontier
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

    /// Frontier constants whose types make them candidates for `attr`.
    fn matching_values(&self, frontier: &[(Const, TypeId)], attr: AttrRef) -> Vec<Const> {
        let attr_types = self.bias.types_of(attr);
        let mut vals: Vec<Const> = frontier
            .iter()
            .filter(|(_, t)| attr_types.contains(t))
            .map(|(c, _)| *c)
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals
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
/// Indexes should be built (`db.build_indexes()`) beforehand; the
/// [`SamplingStrategy::Random`] strategy requires them for its frequency
/// statistics and falls back to naive behaviour on unindexed relations.
pub fn build_ground_clause<R: Rng>(
    db: &Database,
    bias: &LanguageBias,
    example: &Example,
    cfg: &BcConfig,
    rng: &mut R,
) -> GroundClause {
    crate::instrument::BOTTOM_CLAUSES_BUILT.bump();
    let mut sp = obs::span!("bc.build", cfg.strategy.label());
    let mut walk = WalkStats::default();
    let mut b = Builder::new(db, bias, *cfg);
    let mut frontier = b.seed(example);
    let probes = b.probe_points();

    match cfg.strategy {
        SamplingStrategy::Stratified { per_stratum } => {
            stratified_collect(&mut b, example, per_stratum);
        }
        strategy => {
            for _ in 0..cfg.depth {
                if frontier.is_empty() || b.at_capacity() {
                    break;
                }
                let mut next_frontier = Vec::new();
                for &attr in &probes {
                    if b.at_capacity() {
                        break;
                    }
                    let vals = b.matching_values(&frontier, attr);
                    if vals.is_empty() {
                        continue;
                    }
                    let picked = match strategy {
                        SamplingStrategy::Full => select_all(&b, attr, &vals),
                        SamplingStrategy::Naive { per_selection } => {
                            let mut ids = select_all(&b, attr, &vals);
                            if ids.len() > per_selection {
                                ids.shuffle(rng);
                                ids.truncate(per_selection);
                            }
                            ids
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
                        ),
                        SamplingStrategy::Stratified { .. } => unreachable!(),
                    };
                    for id in picked {
                        if b.at_capacity() {
                            break;
                        }
                        b.add_tuple(attr.rel, id, &mut next_frontier);
                    }
                }
                frontier = next_frontier;
            }
        }
    }

    let tuple = |&(rel, id): &(RelId, TupleId)| db.relation(rel).tuple(id);
    let mut facts = Facts {
        rels: Vec::with_capacity(b.collected.len()),
        starts: Vec::with_capacity(b.collected.len() + 1),
        vals: Vec::with_capacity(b.collected.iter().map(|t| tuple(t).len()).sum()),
    };
    for t in &b.collected {
        facts.push(t.0, tuple(t));
    }
    let ground = facts.finish(example.clone());
    if sp.is_active() {
        sp.note("tuples", b.collected.len() as u64);
        sp.note("ground_literals", ground.len() as u64);
        if walk.draws > 0 {
            sp.note("walk_draws", walk.draws);
            sp.note("walk_accepted", walk.accepted);
        }
    }
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

/// σ_{attr ∈ vals}: all matching tuple ids (Full / Naive path).
fn select_all(b: &Builder<'_>, attr: AttrRef, vals: &[Const]) -> Vec<TupleId> {
    let set: FxHashSet<Const> = vals.iter().copied().collect();
    relstore::algebra::select_in(b.db, attr, &set)
}

/// The §4.2.3 accept–reject sampler over the semi-join `{vals} ⋊ R`:
/// pick a value `a` uniformly from the distinct left values, pick a tuple
/// uniformly among those with `R[B] = a`, accept with probability
/// `m(a) / M`. Repeats until `want` tuples are accepted or the attempt
/// budget (`want × oversample`) is exhausted.
fn olken_semijoin_sample<R: Rng>(
    b: &Builder<'_>,
    attr: AttrRef,
    vals: &[Const],
    want: usize,
    oversample: usize,
    rng: &mut R,
    walk: &mut WalkStats,
) -> Vec<TupleId> {
    let rel = b.db.relation(attr.rel);
    let Some(idx) = rel.index(attr.pos as usize) else {
        // No statistics available: degrade to naive uniform sampling.
        let mut ids = select_all(b, attr, vals);
        if ids.len() > want {
            ids.shuffle(rng);
            ids.truncate(want);
        }
        return ids;
    };
    let max_freq = idx.max_freq();
    if max_freq == 0 || vals.is_empty() {
        return Vec::new();
    }
    let budget = want.saturating_mul(oversample.max(1)).max(want);
    let mut out = Vec::with_capacity(want);
    let mut seen = FxHashSet::default();
    for _ in 0..budget {
        if out.len() >= want {
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
    out
}

/// Algorithm 4: depth-first stratified collection. The recursion keeps, at
/// every level, only the parent tuples that join the sampled child tuples,
/// and unions the child samples themselves into the result (the union is
/// implicit in the paper's pseudocode).
fn stratified_collect(b: &mut Builder<'_>, example: &Example, per_stratum: usize) {
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
    b: &mut Builder<'_>,
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

    // Algorithm 4 expands by recursion, not by frontier.
    let mut unused_frontier = Vec::new();
    for &id in &kept {
        if b.at_capacity() {
            break;
        }
        b.add_tuple(probe.rel, id, &mut unused_frontier);
        unused_frontier.clear();
    }
    kept
}

/// Samples `per_stratum` tuples from every stratum of `ids`: one stratum per
/// distinct value of each constant-able attribute, or a single stratum when
/// the relation has none (§4.3.2).
fn sample_strata(
    b: &Builder<'_>,
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
        db.build_indexes();
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
