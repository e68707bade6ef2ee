//! Property-based tests over the core invariants:
//!
//! - θ-subsumption matches a brute-force oracle on small random instances;
//! - sampled bottom clauses only contain tuples the full BC contains;
//! - a capped variable-ized bottom clause is a prefix of the uncapped one and
//!   covers its ground clause;
//! - bottom clauses built through one reused scratch equal fresh builds and
//!   the pre-scratch reference construction;
//! - IND discovery agrees with the direct subset check on random databases;
//! - the type graph's joinability relation is reflexive and symmetric;
//! - k-fold splits partition the data;
//! - armg results generalize (cover everything the input covered).

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point
#![cfg(not(miri))] // proptest-heavy: hundreds of cases, far too slow under miri

use autobias_repro::autobias::bottom::GroundLiteral;
use autobias_repro::autobias::prelude::*;
use autobias_repro::constraints::{build_type_graph, check_ind, discover_inds, IndConfig, TypeId};
use autobias_repro::relstore::fixtures::uw_fragment;
use autobias_repro::relstore::{AttrRef, Const, Database, FxHashMap, FxHashSet, RelId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------- θ-subsumption vs brute force ----------

/// Brute-force subsumption oracle: try every mapping of body literals to
/// ground literals (exponential; fine for ≤4 body literals).
fn brute_force_subsumes(clause: &Clause, ground: &GroundClause) -> bool {
    if clause.head.rel != ground.example.rel || clause.head.args.len() != ground.example.args.len()
    {
        return false;
    }
    let mut binding: FxHashMap<VarId, Const> = FxHashMap::default();
    for (t, &c) in clause.head.args.iter().zip(ground.example.args.iter()) {
        match *t {
            Term::Var(v) => match binding.get(&v) {
                None => {
                    binding.insert(v, c);
                }
                Some(&b) if b == c => {}
                Some(_) => return false,
            },
            Term::Const(k) => {
                if k != c {
                    return false;
                }
            }
        }
    }
    fn rec(body: &[Literal], ground: &GroundClause, binding: &FxHashMap<VarId, Const>) -> bool {
        let Some(lit) = body.first() else {
            return true;
        };
        'g: for (rel, vals) in ground.literals() {
            if rel != lit.rel || vals.len() != lit.args.len() {
                continue;
            }
            let mut next = binding.clone();
            for (t, &gv) in lit.args.iter().zip(vals.iter()) {
                match *t {
                    Term::Const(c) => {
                        if c != gv {
                            continue 'g;
                        }
                    }
                    Term::Var(v) => match next.get(&v) {
                        None => {
                            next.insert(v, gv);
                        }
                        Some(&b) if b == gv => {}
                        Some(_) => continue 'g,
                    },
                }
            }
            if rec(&body[1..], ground, &next) {
                return true;
            }
        }
        false
    }
    rec(&clause.body, ground, &binding)
}

/// Strategy: a small ground clause over 2 relations with ≤ 8 body literals
/// and constants drawn from a tiny pool (to force shared values).
fn ground_strategy() -> impl Strategy<Value = GroundClause> {
    let lit = (0u32..2, 0u32..5, 0u32..5).prop_map(|(r, a, b)| GroundLiteral {
        rel: RelId(r),
        vals: vec![Const(a), Const(b)].into(),
    });
    (proptest::collection::vec(lit, 0..8), 0u32..5, 0u32..5).prop_map(|(body, a, b)| {
        GroundClause::new(Example::new(RelId(9), vec![Const(a), Const(b)]), body)
    })
}

/// Strategy: a clause with ≤ 4 body literals over the same relations, with
/// variables 0..6 and occasional constants.
fn clause_strategy() -> impl Strategy<Value = Clause> {
    let term = prop_oneof![
        (0u32..6).prop_map(|v| Term::Var(VarId(v))),
        (0u32..5).prop_map(|c| Term::Const(Const(c))),
    ];
    let lit =
        (0u32..2, term.clone(), term).prop_map(|(r, a, b)| Literal::new(RelId(r), vec![a, b]));
    proptest::collection::vec(lit, 0..4).prop_map(|body| {
        Clause::new(
            Literal::new(RelId(9), vec![Term::Var(VarId(0)), Term::Var(VarId(1))]),
            body,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// With a generous node budget the search is complete on these tiny
    /// instances, so it must agree exactly with brute force.
    #[test]
    fn subsumption_matches_brute_force(clause in clause_strategy(), ground in ground_strategy()) {
        let cfg = SubsumeConfig { node_limit: 1_000_000 };
        let fast = theta_subsumes(&clause, &ground, &cfg);
        let slow = brute_force_subsumes(&clause, &ground);
        prop_assert_eq!(fast, slow);
    }

    /// The approximation is one-sided: with a tight budget the answer may be
    /// a false "no" but never a false "yes".
    #[test]
    fn tight_budget_is_one_sided(clause in clause_strategy(), ground in ground_strategy()) {
        let tight = SubsumeConfig { node_limit: 3 };
        if theta_subsumes(&clause, &ground, &tight) {
            prop_assert!(brute_force_subsumes(&clause, &ground));
        }
    }

    /// The flat ground-clause layout round-trips its input: `literals()`
    /// (and `rel(i)`, `vals(i)`) give back every fact in order, whatever its
    /// arity, `literals_of(rel)` lists exactly that relation's indices in
    /// ascending order, and `len()` counts the facts.
    #[test]
    fn ground_clause_layout_round_trips(
        facts in proptest::collection::vec(
            (0u32..5, proptest::collection::vec(0u32..9, 0..4)),
            0..40,
        ),
    ) {
        let lits: Vec<GroundLiteral> = facts
            .iter()
            .map(|(r, vals)| GroundLiteral {
                rel: RelId(*r),
                vals: vals.iter().map(|&c| Const(c)).collect(),
            })
            .collect();
        let g = GroundClause::new(Example::new(RelId(9), vec![Const(0)]), lits.clone());
        prop_assert_eq!(g.len(), lits.len());
        prop_assert_eq!(g.is_empty(), lits.is_empty());
        let back: Vec<GroundLiteral> = g
            .literals()
            .map(|(rel, vals)| GroundLiteral { rel, vals: vals.into() })
            .collect();
        prop_assert_eq!(&back, &lits);
        for (i, lit) in lits.iter().enumerate() {
            prop_assert_eq!(g.rel(i), lit.rel);
            prop_assert_eq!(g.vals(i), &lit.vals[..]);
        }
        for r in 0..6u32 {
            let want: Vec<u32> = (0..lits.len() as u32)
                .filter(|&i| lits[i as usize].rel == RelId(r))
                .collect();
            prop_assert_eq!(g.literals_of(RelId(r)), &want[..]);
        }
    }
}

// ---------- sampling invariants ----------

/// Random database in the UW-fragment shape.
fn small_uw(seed: u64, n: usize) -> (Database, RelId) {
    let mut rng = StdRng::seed_from_u64(seed);
    use rand::Rng;
    let mut db = Database::new();
    let student = db.add_relation("student", &["stud"]);
    let publ = db.add_relation("publication", &["title", "person"]);
    let target = db.add_relation("advisedBy", &["stud", "prof"]);
    for i in 0..n {
        db.insert(student, &[&format!("s{i}")]);
        let t = format!("p{}", rng.random_range(0..n.max(1)));
        db.insert(publ, &[&t, &format!("s{i}")]);
    }
    db.insert(target, &["s0", "s1"]);
    (db, target)
}

const SMALL_BIAS: &str = "
pred student(T1)
pred publication(T5, T1)
pred advisedBy(T1, T1)
mode student(+)
mode publication(-, +)
mode publication(+, -)
";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every tuple a sampled BC collects is in the full BC's collection:
    /// sampling only removes, never invents.
    #[test]
    fn sampled_bc_is_subset_of_full(seed in 0u64..500, n in 2usize..20, strat in 0usize..3) {
        let (db, target) = small_uw(seed, n);
        let bias = parse_bias(&db, target, SMALL_BIAS).unwrap();
        let s0 = db.lookup("s0").unwrap();
        let s1 = db.lookup("s1").unwrap();
        let e = Example::new(target, vec![s0, s1]);
        let full_cfg = BcConfig { depth: 2, strategy: SamplingStrategy::Full, max_body_literals: 100_000, max_tuples: 10_000 };
        let strategy = match strat {
            0 => SamplingStrategy::Naive { per_selection: 2 },
            1 => SamplingStrategy::Random { per_selection: 2, oversample: 5 },
            _ => SamplingStrategy::Stratified { per_stratum: 1 },
        };
        let s_cfg = BcConfig { depth: 2, strategy, max_body_literals: 100_000, max_tuples: 10_000 };
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let full_bc = build_bottom_clause(&db, &bias, &e, &full_cfg, &mut rng).ground;
        let full: FxHashSet<(RelId, &[Const])> = full_bc.literals().collect();
        let sampled = build_bottom_clause(&db, &bias, &e, &s_cfg, &mut rng).ground;
        for lit in sampled.literals() {
            prop_assert!(full.contains(&lit), "sampled literal outside full BC");
        }
    }

    /// The BC's variable-ized clause always covers its own ground BC.
    #[test]
    fn bc_covers_itself(seed in 0u64..200, n in 2usize..15) {
        let (db, target) = small_uw(seed, n);
        let bias = parse_bias(&db, target, SMALL_BIAS).unwrap();
        let s0 = db.lookup("s0").unwrap();
        let s1 = db.lookup("s1").unwrap();
        let e = Example::new(target, vec![s0, s1]);
        let cfg = BcConfig { depth: 2, strategy: SamplingStrategy::Full, max_body_literals: 100_000, max_tuples: 10_000 };
        let mut rng = StdRng::seed_from_u64(seed);
        let bc = build_bottom_clause(&db, &bias, &e, &cfg, &mut rng);
        prop_assert!(theta_subsumes(&bc.clause, &bc.ground, &SubsumeConfig::default()));
    }
}

// ---------- variable-izing a ground bottom clause ----------

/// The Table 3 bias over the paper's UW fragment, with titles probed too.
const UW_FRAGMENT_BIAS: &str = "
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
mode publication(+, -)
";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under every sampling strategy, capping the variable-ized clause at
    /// `k` body literals keeps exactly the first `k` literals of the
    /// uncapped clause, and every cap still covers the ground clause it was
    /// derived from.
    #[test]
    fn variablize_caps_to_a_prefix_and_covers_its_ground(
        seed in 0u64..500,
        strat in 0usize..4,
        depth in 1usize..4,
        stud in 0usize..2,
        prof in 0usize..2,
        k in 0usize..24,
    ) {
        let mut db = uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        let bias = parse_bias(&db, target, UW_FRAGMENT_BIAS).unwrap();
        let s = db.lookup(["juan", "john"][stud]).unwrap();
        let p = db.lookup(["sarita", "mary"][prof]).unwrap();
        let e = Example::new(target, vec![s, p]);
        let strategy = match strat {
            0 => SamplingStrategy::Full,
            1 => SamplingStrategy::Naive { per_selection: 1 },
            2 => SamplingStrategy::Random { per_selection: 1, oversample: 5 },
            _ => SamplingStrategy::Stratified { per_stratum: 1 },
        };
        let cfg = BcConfig { depth, strategy, max_body_literals: 100_000, max_tuples: 1_000 };
        let mut rng = StdRng::seed_from_u64(seed);
        let g = build_ground_clause(&db, &bias, &e, &cfg, &mut rng);
        let full = variablize(&g, &bias, usize::MAX);
        let capped = variablize(&g, &bias, k);
        prop_assert_eq!(&capped.head, &full.head);
        prop_assert_eq!(&capped.body[..], &full.body[..k.min(full.body.len())]);
        prop_assert!(theta_subsumes(&full, &g, &SubsumeConfig::default()));
        prop_assert!(theta_subsumes(&capped, &g, &SubsumeConfig::default()));
    }
}

// ---------- bottom-clause construction through a reused scratch ----------

/// One type over everything, so every attribute joins every other: `r` and
/// `s` probe forward, `s` backward too, `w` only forward with its second
/// attribute constant-only (so it never feeds the frontier), and `r`'s
/// second attribute is also constant-able (strata for Algorithm 4).
const SCRATCH_BIAS: &str = "
pred r(T1, T1)
pred s(T1, T1)
pred w(T1, T1)
pred u(T1)
pred t(T1, T1)
mode r(+, -)
mode r(+, #)
mode s(+, -)
mode s(-, +)
mode w(+, #)
mode u(+)
";

/// A random database for [`SCRATCH_BIAS`] over constants `c0..c{consts}`,
/// with `rows` tuples in each binary relation (duplicates allowed), plus
/// four random examples of `t`.
fn scratch_world(seed: u64, consts: usize, rows: usize) -> (Database, LanguageBias, Vec<Example>) {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let binary = ["r", "s", "w"].map(|name| db.add_relation(name, &["a", "b"]));
    let u = db.add_relation("u", &["a"]);
    let t = db.add_relation("t", &["a", "b"]);
    let c = |rng: &mut StdRng| format!("c{}", rng.random_range(0..consts));
    for rel in binary {
        for _ in 0..rows {
            let (a, b) = (c(&mut rng), c(&mut rng));
            db.insert(rel, &[&a, &b]);
        }
    }
    for _ in 0..rows / 2 {
        let a = c(&mut rng);
        db.insert(u, &[&a]);
    }
    let examples = (0..4)
        .map(|_| {
            let (a, b) = (c(&mut rng), c(&mut rng));
            Example::new(t, vec![db.intern(&a), db.intern(&b)])
        })
        .collect();
    let bias = parse_bias(&db, t, SCRATCH_BIAS).unwrap();
    (db, bias, examples)
}

/// σ_{attr ∈ values} by brute force: the ids of every tuple whose value at
/// `attr` is in `values`, ascending.
fn scan_in(db: &Database, attr: AttrRef, values: &FxHashSet<Const>) -> Vec<u32> {
    db.relation(attr.rel)
        .iter()
        .filter(|(_, t)| values.contains(&t[attr.pos as usize]))
        .map(|(id, _)| id)
        .collect()
}

/// Bottom-clause construction as it was before the scratch: a hash set of
/// constants and a brute-force selection per probe, a hash-set dedup of collected
/// tuples, and a frontier grown at every depth (by Algorithm 4 too, which
/// never reads it). The oracle for the scratch-based construction.
struct ReferenceBc<'a> {
    db: &'a Database,
    bias: &'a LanguageBias,
    cfg: BcConfig,
    collected: Vec<(RelId, u32)>,
    collected_set: FxHashSet<(RelId, u32)>,
    known: FxHashSet<(Const, TypeId)>,
}

impl ReferenceBc<'_> {
    fn at_capacity(&self) -> bool {
        self.collected.len() >= self.cfg.max_tuples
    }

    fn add_tuple(&mut self, rel: RelId, id: u32, frontier: &mut Vec<(Const, TypeId)>) {
        if !self.collected_set.insert((rel, id)) {
            return;
        }
        self.collected.push((rel, id));
        for (pos, &c) in self.db.relation(rel).tuple(id).iter().enumerate() {
            let attr = AttrRef::new(rel, pos);
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

    fn probe_points(&self) -> Vec<AttrRef> {
        let mut rels: Vec<RelId> = self.bias.body_rels().collect();
        rels.sort_unstable();
        let mut out = Vec::new();
        for rel in rels {
            for mode in self.bias.modes_for(rel) {
                for j in mode.plus_positions() {
                    let attr = AttrRef::new(rel, j);
                    if !out.contains(&attr) {
                        out.push(attr);
                    }
                }
            }
        }
        out
    }

    fn select(&self, attr: AttrRef, vals: &[Const]) -> Vec<u32> {
        let set: FxHashSet<Const> = vals.iter().copied().collect();
        scan_in(self.db, attr, &set)
    }

    fn naive(&self, attr: AttrRef, vals: &[Const], want: usize, rng: &mut StdRng) -> Vec<u32> {
        use rand::seq::SliceRandom;
        let mut ids = self.select(attr, vals);
        if ids.len() > want {
            ids.shuffle(rng);
            ids.truncate(want);
        }
        ids
    }

    fn olken(
        &self,
        attr: AttrRef,
        vals: &[Const],
        want: usize,
        oversample: usize,
        rng: &mut StdRng,
    ) -> Vec<u32> {
        use rand::Rng;
        let idx = self.db.relation(attr.rel).index(attr.pos as usize);
        let max_freq = idx.max_freq();
        if max_freq == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut seen = FxHashSet::default();
        for _ in 0..want.saturating_mul(oversample.max(1)).max(want) {
            if out.len() >= want {
                break;
            }
            let ts = idx.lookup(vals[rng.random_range(0..vals.len())]);
            if ts.is_empty() {
                continue;
            }
            let t = ts[rng.random_range(0..ts.len())];
            let accept = ts.len() as f64 / max_freq as f64;
            if rng.random_range(0.0..1.0) < accept && seen.insert(t) {
                out.push(t);
            }
        }
        out
    }

    fn stratified(&mut self, example: &Example, per_stratum: usize) {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let probes = self.probe_points();
        for (pos, &c) in example.args.iter().enumerate() {
            let types = self.bias.types_of(AttrRef::new(example.rel, pos)).to_vec();
            for &probe in &probes {
                if !types.iter().any(|t| self.bias.types_of(probe).contains(t)) {
                    continue;
                }
                let vals: FxHashSet<Const> = [c].into_iter().collect();
                self.strat_rec(&probes, probe, &vals, 1, per_stratum, &mut next);
            }
        }
    }

    fn strat_rec(
        &mut self,
        probes: &[AttrRef],
        probe: AttrRef,
        values: &FxHashSet<Const>,
        depth: usize,
        per_stratum: usize,
        rng: &mut impl FnMut() -> u64,
    ) -> Vec<u32> {
        if self.at_capacity() || values.is_empty() {
            return Vec::new();
        }
        let i_r = scan_in(self.db, probe, values);
        if i_r.is_empty() {
            return Vec::new();
        }
        let rel = self.db.relation(probe.rel);
        let mut kept = Vec::new();
        if depth < self.cfg.depth.max(1) {
            let mut joined_ids = FxHashSet::default();
            let mut expanded = false;
            for out_pos in 0..rel.arity() {
                let out_attr = AttrRef::new(probe.rel, out_pos);
                if out_pos == probe.pos as usize || !self.bias.can_be_var(out_attr) {
                    continue;
                }
                let out_types = self.bias.types_of(out_attr).to_vec();
                let out_vals: FxHashSet<Const> =
                    i_r.iter().map(|&id| rel.tuple(id)[out_pos]).collect();
                for &child in probes {
                    if child == probe
                        || !out_types
                            .iter()
                            .any(|t| self.bias.types_of(child).contains(t))
                    {
                        continue;
                    }
                    expanded = true;
                    let child_kept =
                        self.strat_rec(probes, child, &out_vals, depth + 1, per_stratum, rng);
                    let joined: FxHashSet<Const> = child_kept
                        .iter()
                        .map(|&id| self.db.relation(child.rel).tuple(id)[child.pos as usize])
                        .collect();
                    for &id in &i_r {
                        if joined.contains(&rel.tuple(id)[out_pos]) {
                            joined_ids.insert(id);
                        }
                    }
                }
            }
            if expanded && !joined_ids.is_empty() {
                kept = joined_ids.into_iter().collect();
                kept.sort_unstable();
            }
        }
        if kept.is_empty() {
            kept = self.sample_strata(probe.rel, &i_r, per_stratum, rng);
        }
        let mut frontier = Vec::new();
        for &id in &kept {
            if self.at_capacity() {
                break;
            }
            self.add_tuple(probe.rel, id, &mut frontier);
        }
        kept
    }

    fn sample_strata(
        &self,
        rel: RelId,
        ids: &[u32],
        per_stratum: usize,
        rng: &mut impl FnMut() -> u64,
    ) -> Vec<u32> {
        let arity = self.db.relation(rel).arity();
        let const_positions: Vec<usize> = (0..arity)
            .filter(|&p| self.bias.can_be_const(AttrRef::new(rel, p)))
            .collect();
        let mut uniform = |pool: &[u32], out: &mut Vec<u32>| {
            if pool.len() <= per_stratum {
                out.extend_from_slice(pool);
            } else {
                let mut picked = FxHashSet::default();
                while picked.len() < per_stratum {
                    picked.insert(pool[(rng() % pool.len() as u64) as usize]);
                }
                out.extend(picked);
            }
        };
        let mut out = Vec::new();
        if const_positions.is_empty() {
            uniform(ids, &mut out);
        }
        for &p in &const_positions {
            let mut strata: FxHashMap<Const, Vec<u32>> = FxHashMap::default();
            for &id in ids {
                strata
                    .entry(self.db.relation(rel).tuple(id)[p])
                    .or_default()
                    .push(id);
            }
            let mut keys: Vec<Const> = strata.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                uniform(&strata[&k], &mut out);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The ground clause [`ReferenceBc`] builds, as facts in collection order.
fn reference_bc(
    db: &Database,
    bias: &LanguageBias,
    example: &Example,
    cfg: &BcConfig,
    rng: &mut StdRng,
) -> Vec<(RelId, Vec<Const>)> {
    let mut b = ReferenceBc {
        db,
        bias,
        cfg: *cfg,
        collected: Vec::new(),
        collected_set: FxHashSet::default(),
        known: FxHashSet::default(),
    };
    let mut frontier = Vec::new();
    for (pos, &c) in example.args.iter().enumerate() {
        for &t in bias.types_of(AttrRef::new(example.rel, pos)) {
            if b.known.insert((c, t)) {
                frontier.push((c, t));
            }
        }
    }
    let probes = b.probe_points();
    if let SamplingStrategy::Stratified { per_stratum } = cfg.strategy {
        b.stratified(example, per_stratum);
    } else {
        for _ in 0..cfg.depth {
            if frontier.is_empty() || b.at_capacity() {
                break;
            }
            let mut next = Vec::new();
            for &attr in &probes {
                if b.at_capacity() {
                    break;
                }
                let types = bias.types_of(attr);
                let mut vals: Vec<Const> = frontier
                    .iter()
                    .filter(|(_, t)| types.contains(t))
                    .map(|&(c, _)| c)
                    .collect();
                vals.sort_unstable();
                vals.dedup();
                if vals.is_empty() {
                    continue;
                }
                let picked = match cfg.strategy {
                    SamplingStrategy::Naive { per_selection } => {
                        b.naive(attr, &vals, per_selection, rng)
                    }
                    SamplingStrategy::Random {
                        per_selection,
                        oversample,
                    } => b.olken(attr, &vals, per_selection, oversample, rng),
                    _ => b.select(attr, &vals),
                };
                for id in picked {
                    if b.at_capacity() {
                        break;
                    }
                    b.add_tuple(attr.rel, id, &mut next);
                }
            }
            frontier = next;
        }
    }
    b.collected
        .iter()
        .map(|&(rel, id)| (rel, db.relation(rel).tuple(id).to_vec()))
        .collect()
}

fn ground_facts(g: &GroundClause) -> Vec<(RelId, Vec<Const>)> {
    g.literals().map(|(rel, v)| (rel, v.to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One `BcScratch` builds a stream of bottom clauses with mixed
    /// strategies, depths 1–3 and tuple caps; each equals a fresh-scratch
    /// build and the pre-scratch reference construction. A selection or
    /// collected bit left behind by one probe or build would show up as an
    /// extra or missing fact in a later one.
    #[test]
    fn reused_bc_scratch_matches_fresh_and_reference(
        seed in 0u64..10_000,
        consts in 3usize..12,
        rows in 1usize..30,
    ) {
        use rand::Rng;
        let (db, bias, examples) = scratch_world(seed, consts, rows);
        let mut stream = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut scratch = BcScratch::default();
        for build in 0..12u64 {
            let e = &examples[stream.random_range(0..examples.len())];
            let k = stream.random_range(1..4usize);
            let strategy = match stream.random_range(0..4u32) {
                0 => SamplingStrategy::Full,
                1 => SamplingStrategy::Naive { per_selection: k },
                2 => SamplingStrategy::Random { per_selection: k, oversample: 4 },
                _ => SamplingStrategy::Stratified { per_stratum: k },
            };
            let cfg = BcConfig {
                depth: stream.random_range(1..4usize),
                strategy,
                max_tuples: [1, 2, 3, 5, 8, 13, 10_000][stream.random_range(0..7usize)],
                max_body_literals: 10_000,
            };
            let rng = || StdRng::seed_from_u64(seed.wrapping_mul(31) ^ build);
            let reused = build_ground_clause_in(&mut scratch, &db, &bias, e, &cfg, &mut rng());
            let fresh = build_ground_clause(&db, &bias, e, &cfg, &mut rng());
            let reference = reference_bc(&db, &bias, e, &cfg, &mut rng());
            prop_assert_eq!(ground_facts(&reused), ground_facts(&fresh), "build {}: {:?}", build, cfg);
            prop_assert_eq!(ground_facts(&fresh), reference, "build {}: {:?}", build, cfg);
        }
    }
}

// ---------- IND discovery ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Discovery agrees with the direct σ-based check on random data.
    #[test]
    fn ind_discovery_agrees_with_oracle(
        rows_a in proptest::collection::vec(0u32..10, 1..30),
        rows_b in proptest::collection::vec(0u32..10, 1..30),
    ) {
        let mut db = Database::new();
        let ra = db.add_relation("ra", &["x"]);
        let rb = db.add_relation("rb", &["y"]);
        for v in &rows_a { db.insert(ra, &[&format!("v{v}")]); }
        for v in &rows_b { db.insert(rb, &[&format!("v{v}")]); }
        let cfg = IndConfig { max_error: 1.0, min_distinct_for_approx: 1, ..IndConfig::default() };
        let inds = discover_inds(&db, &cfg);
        let a = AttrRef::new(ra, 0);
        let b = AttrRef::new(rb, 0);
        let found = inds.iter().find(|i| i.from == a && i.to == b).expect("pair reported");
        let direct = check_ind(&db, a, b);
        prop_assert!((found.error - direct).abs() < 1e-12);
    }

    /// Type-graph joinability is reflexive and symmetric for every attribute.
    #[test]
    fn typegraph_joinability_reflexive_symmetric(
        rows_a in proptest::collection::vec(0u32..8, 1..20),
        rows_b in proptest::collection::vec(0u32..8, 1..20),
    ) {
        let mut db = Database::new();
        let ra = db.add_relation("ra", &["x", "y"]);
        let rb = db.add_relation("rb", &["z"]);
        for (i, v) in rows_a.iter().enumerate() {
            db.insert(ra, &[&format!("v{v}"), &format!("w{i}")]);
        }
        for v in &rows_b { db.insert(rb, &[&format!("v{v}")]); }
        let inds = discover_inds(&db, &IndConfig::default());
        let g = build_type_graph(&db, &inds);
        let attrs = db.catalog().all_attrs();
        for &x in &attrs {
            prop_assert!(g.share_type(x, x), "reflexive");
            for &y in &attrs {
                prop_assert_eq!(g.share_type(x, y), g.share_type(y, x), "symmetric");
            }
        }
    }
}

// ---------- k-fold and armg ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every example lands in exactly one test fold, and train/test never
    /// overlap.
    #[test]
    fn kfold_partition(np in 2usize..40, nn in 2usize..40, k in 2usize..6, seed in 0u64..100) {
        let mk = |n: usize| -> Vec<Example> {
            (0..n).map(|i| Example::new(RelId(0), vec![Const(i as u32)])).collect()
        };
        let pos = mk(np);
        let neg = mk(nn);
        let splits = kfold_splits(&pos, &neg, k, seed);
        prop_assert_eq!(splits.len(), k);
        let total_test_pos: usize = splits.iter().map(|(_, t)| t.pos.len()).sum();
        prop_assert_eq!(total_test_pos, np);
        for (train, test) in &splits {
            prop_assert_eq!(train.pos.len() + test.pos.len(), np);
            for e in &test.pos {
                prop_assert!(!train.pos.contains(e));
            }
            for e in &test.neg {
                prop_assert!(!train.neg.contains(e));
            }
        }
    }
}

/// armg output covers both the new example and everything the input covered
/// (it is a *generalization*), checked on the co-authorship world.
#[test]
fn armg_is_a_generalization() {
    let mut db = Database::new();
    let student = db.add_relation("student", &["stud"]);
    let publ = db.add_relation("publication", &["title", "person"]);
    let in_phase = db.add_relation("inPhase", &["stud", "phase"]);
    let target = db.add_relation("advisedBy", &["stud", "prof"]);
    let phases = ["a", "b", "c"];
    for i in 0..9 {
        let s = format!("s{i}");
        let p = format!("f{i}");
        let t = format!("t{i}");
        db.insert(student, &[&s]);
        db.insert(publ, &[&t, &s]);
        db.insert(publ, &[&t, &p]);
        db.insert(in_phase, &[&s, phases[i % 3]]);
    }
    let bias = parse_bias(
        &db,
        target,
        "
pred student(T1)
pred publication(T5, T1)
pred inPhase(T1, T2)
pred advisedBy(T1, T3)
pred publication(T5, T3)
mode student(+)
mode publication(-, +)
mode inPhase(+, #)
mode inPhase(+, -)
",
    )
    .unwrap();
    let ex = |i: usize, db: &Database| {
        let s = db.lookup(&format!("s{i}")).unwrap();
        let p = db.lookup(&format!("f{i}")).unwrap();
        Example::new(target, vec![s, p])
    };
    let train = TrainingSet::new((0..9).map(|i| ex(i, &db)).collect(), vec![]);
    let cfg = BcConfig {
        depth: 2,
        strategy: SamplingStrategy::Full,
        max_body_literals: 100_000,
        max_tuples: 5000,
    };
    let engine = CoverageEngine::build(&db, &bias, &train, &cfg, SubsumeConfig::default(), 3);

    for seed_idx in 0..3 {
        let bc = variablize(&engine.pos[seed_idx], &bias, cfg.max_body_literals);
        let covered_before: Vec<usize> = (0..9).filter(|&i| engine.covers_pos(&bc, i)).collect();
        for other in 0..9 {
            if engine.covers_pos(&bc, other) {
                continue;
            }
            let g = armg(&bc, &engine, other).expect("armg");
            assert!(engine.covers_pos(&g, other), "covers the armg target");
            for &i in &covered_before {
                assert!(engine.covers_pos(&g, i), "still covers example {i}");
            }
        }
    }
}
