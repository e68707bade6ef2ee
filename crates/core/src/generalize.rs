//! Generalization (paper §2.3.2): the **armg** operator (asymmetric relative
//! minimal generalization) and the beam search that applies it.
//!
//! Given a bottom clause `C` and a positive example `e'` it does not cover,
//! armg repeatedly finds the *blocking atom* — the least `i` such that the
//! prefix clause `T ← L1, …, Li` does not cover `e'` — drops it, prunes
//! literals that lost head-connectivity, and repeats until `e'` is covered.
//! Each step strictly shrinks the clause, so termination is guaranteed.

use crate::clause::{Clause, Literal};
use crate::coverage::{Canonical, CoverageEngine};
use crate::subsume::{PrefixProbe, PreparedClause, Witness, Workspace};
use rand::seq::SliceRandom;
use rand::Rng;

/// Beam-search configuration for `LearnClause`.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Clauses kept per beam iteration.
    pub beam_width: usize,
    /// Positive examples sampled per iteration to drive armg (the paper's
    /// `E+_S`).
    pub sample_size: usize,
    /// Maximum beam iterations (the search also stops when the score stops
    /// improving).
    pub max_iterations: usize,
    /// Optional wall-clock deadline; the beam search returns its best
    /// clause so far once passed (set by the covering loop from
    /// `LearnerConfig::time_budget` — without it a single beam iteration
    /// over an unrestricted Castor-style bottom clause can run for hours,
    /// the very pathology the paper reports as `>10h`).
    pub deadline: Option<std::time::Instant>,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            beam_width: 3,
            sample_size: 10,
            max_iterations: 10,
            deadline: None,
        }
    }
}

/// Finds the blocking atom for `clause` w.r.t. positive example `pos_idx`:
/// the least prefix length `i` (1-based literal index) whose prefix clause
/// fails to cover the example. Returns `None` when the full clause covers it.
///
/// Prefix coverage is antitone in the prefix length (literals only constrain),
/// so a galloping search over prefix lengths finds the blocking atom with
/// `O(log i)` subsumption tests, all sharing one [`PrefixProbe`] and one
/// [`Witness`].
pub fn blocking_atom(clause: &Clause, engine: &CoverageEngine, pos_idx: usize) -> Option<usize> {
    let mut probe = PrefixProbe::new(clause, &engine.pos[pos_idx]);
    let mut witness = Witness::default();
    let cfg = engine.subsume_config();
    search_blocking_atom(clause.body.len(), 0, |len, _| {
        probe.covers_from(len, &mut witness, cfg)
    })
}

/// The blocking-atom search over prefix lengths `proven..=n`, given that
/// the prefix of length `proven` covers. `covers(len, lo)` asks whether the
/// prefix of length `len` covers the example, where `lo < len` is the
/// longest prefix known to cover so far. Returns the zero-based index of
/// the blocking literal, or `None` when the full prefix (`n`) covers.
///
/// The search gallops: it asks `proven + 1`, `proven + 2`, `proven + 4`, …
/// (capped at `n`) until a prefix fails, then bisects the gap between the
/// last covered length and the failed one. A blocking atom `d` literals
/// past `proven` costs about `2 log₂ d` tests, and one right at `proven`,
/// the commonest case in armg, costs one.
fn search_blocking_atom(
    n: usize,
    proven: usize,
    mut covers: impl FnMut(usize, usize) -> bool,
) -> Option<usize> {
    // Invariant: the prefix of length `lo` covers, and (once found) the
    // prefix of length `hi` does not.
    let mut lo = proven;
    let mut step = 1;
    let mut hi = loop {
        if lo >= n {
            return None;
        }
        let len = (proven + step).min(n);
        if !covers(len, lo) {
            break len;
        }
        lo = len;
        step *= 2;
    };
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if covers(mid, lo) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo) // zero-based index of the blocking literal
}

/// Applies armg: generalizes `clause` until it covers positive `pos_idx`.
/// Returns `None` if generalization degenerates to an empty body (the clause
/// would cover everything — never useful as a candidate).
///
/// Each step's galloping search ([`search_blocking_atom`]) ends with `lo`
/// = the blocking index: the prefix `body[..lo]` was proven (by a test
/// that answered "covered", or trivially for `lo = 0`) to cover the
/// example. Removing the blocking literal keeps that prefix in place, and
/// head-connectivity pruning only deletes literals, so the first `proven`
/// literals of the next clause (those the pruning kept from the proven
/// prefix) form a sub-body of a clause known to cover the example, and
/// cover it too. The next step's search therefore starts at `proven`.
///
/// The proof is kept, not just its length: armg owns a [`Witness`], a θ
/// that maps the proven prefix into the example, and mirrors each step's
/// deletions on it (a θ for a body is one for every sub-body). Each probe
/// ([`PrefixProbe::covers_from`]) first tries to extend that θ in order
/// over the literals past the prefix, and answers "covered" when the
/// extension maps them all; most covered probes end there. Otherwise it
/// searches, skipping the components that lie wholly inside the proven
/// prefix, and keeps the search's θ when it covers. Every "covered" comes
/// with a substitution, so the reuse never claims "covered" wrongly: a
/// skipped test or component could only have answered "not covered"
/// through budget exhaustion. Under an unbounded budget every answer, and
/// so the result, equals a bisection of from-scratch tests.
///
/// One [`Workspace`] serves the whole call, and so does its candidate
/// table: the lists depend only on a literal, the head binding and the
/// example, none of which a step changes, so the table follows each step's
/// deletions instead of being refilled.
///
/// Head-connectivity pruning rescans the whole body only when it has to.
/// The first step always rescans, because the input may carry literals
/// that were never head-connected. After it every literal is
/// head-connected, so a later removal can strand only literals whose every
/// path to the head ran through the removed literal; `HeadReach::keeps_all`
/// walks out from the removed literal's variables to decide that locally,
/// and the full rescan runs only when some walk fails to reach the head.
pub fn armg(clause: &Clause, engine: &CoverageEngine, pos_idx: usize) -> Option<Clause> {
    let mut sp = obs::span!("learn.armg");
    let ground = &engine.pos[pos_idx];
    let cfg = engine.subsume_config();
    let mut current = clause.clone();
    let mut ws = Workspace::default();
    let mut reach = HeadReach::new(clause.num_vars() as usize);
    let mut witness = Witness::default();
    let mut proven = 0usize;
    let (mut steps, mut probes, mut skipped, mut rescans) = (0u64, 0u64, 0u64, 0u64);
    let (mut extensions, mut searches) = (0u64, 0u64);
    let result = loop {
        let mut probe = if steps == 0 {
            PrefixProbe::with_workspace(&current, ground, &mut ws)
        } else {
            PrefixProbe::resume(&current, ground, &mut ws)
        };
        let block = search_blocking_atom(current.body.len(), proven, |len, lo| {
            debug_assert_eq!(
                lo,
                witness.len(),
                "the witness proves the longest covered prefix"
            );
            probes += 1;
            probe.covers_from(len, &mut witness, cfg)
        });
        skipped += probe.skipped_components();
        extensions += probe.witness_extensions();
        searches += probe.full_searches();
        let Some(block) = block else {
            break Some(current);
        };
        steps += 1;
        let removed = current.body.remove(block);
        ws.remove_literal(block);
        witness.remove_literal(block);
        if steps > 1 && reach.keeps_all(&current, &removed) {
            proven = block;
        } else {
            rescans += 1;
            let kept = current.head_connected_indices();
            proven = kept.partition_point(|&i| i < block);
            current.keep_body(&kept);
            ws.keep_literals(&kept);
            witness.keep_literals(&kept);
        }
        if current.body.is_empty() {
            break None;
        }
    };
    crate::instrument::ARMG_WITNESS_EXTENSIONS.add(extensions);
    if sp.is_active() {
        sp.note("steps", steps);
        sp.note("probes", probes);
        sp.note("witness_extensions", extensions);
        sp.note("full_searches", searches);
        sp.note("skipped_components", skipped);
        sp.note("rescans", rescans);
    }
    result
}

/// Per-variable state of a [`HeadReach`] check.
const UNSEEN: u8 = 0;
/// Reached by the walk in progress.
const WALKED: u8 = 1;
/// Known to be head-connected: a head variable, or reached by a walk that
/// got to the head.
const ANCHORED: u8 = 2;

/// armg's local head-connectivity check after a literal removal, with its
/// per-variable scratch, sized once per armg call (a step only ever removes
/// variables).
pub(crate) struct HeadReach {
    state: Vec<u8>,
    /// Variables whose state the check in progress set, in order; the walk
    /// in progress owns the tail from `walk_start`.
    touched: Vec<usize>,
}

impl HeadReach {
    /// Scratch for clauses whose variable ids are below `num_vars`.
    pub(crate) fn new(num_vars: usize) -> Self {
        Self {
            state: vec![UNSEEN; num_vars],
            touched: Vec::new(),
        }
    }

    /// Whether every literal of `rest` is still head-connected, given that
    /// every literal of `rest` plus `removed` was. A literal that lost its
    /// connection lies in a part of `rest` that no longer reaches the head
    /// but did through `removed`, so that part holds a variable of
    /// `removed` that the head does not bind. So the check walks outward
    /// from each such variable over `rest`, and a walk stops as soon as it
    /// reaches a literal holding a head variable (or a variable an earlier
    /// walk anchored). A walk that ends having reached some literal but not
    /// the head found stranded literals: the answer is `false`, and the
    /// caller rescans with [`Clause::head_connected_indices`], which agrees
    /// with this check on every such input.
    pub(crate) fn keeps_all(&mut self, rest: &Clause, removed: &Literal) -> bool {
        let Self { state, touched } = self;
        for v in rest.head.vars() {
            if state[v.index()] == UNSEEN {
                state[v.index()] = ANCHORED;
                touched.push(v.index());
            }
        }
        let mut connected = true;
        'walks: for x in removed.vars() {
            if state[x.index()] != UNSEEN {
                continue;
            }
            let walk_start = touched.len();
            state[x.index()] = WALKED;
            touched.push(x.index());
            let mut reached_any = false;
            loop {
                let mut grew = false;
                for lit in &rest.body {
                    let (mut walked, mut anchored) = (false, false);
                    for v in lit.vars() {
                        match state[v.index()] {
                            WALKED => walked = true,
                            ANCHORED => anchored = true,
                            _ => {}
                        }
                    }
                    if !walked {
                        continue;
                    }
                    reached_any = true;
                    if anchored {
                        for &v in &touched[walk_start..] {
                            state[v] = ANCHORED;
                        }
                        continue 'walks;
                    }
                    for v in lit.vars() {
                        if state[v.index()] == UNSEEN {
                            state[v.index()] = WALKED;
                            touched.push(v.index());
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            if reached_any {
                connected = false;
                break;
            }
        }
        for v in touched.drain(..) {
            state[v] = UNSEEN;
        }
        connected
    }
}

/// Post-processing: greedy backward literal elimination. Drops a body
/// literal when the clause still covers exactly the same positives and no
/// additional negatives — removing only *redundant* literals (the trivially
/// satisfiable ones armg's head-connectivity rule keeps around), so the
/// clause's training behaviour is unchanged but it reads like the paper's
/// example clauses.
///
/// Cost: one coverage evaluation per body literal.
pub fn reduce_clause(clause: &Clause, engine: &CoverageEngine) -> Clause {
    let all_pos: Vec<usize> = (0..engine.pos.len()).collect();
    let base_pos = engine.covered_pos_subset(clause, &all_pos);
    let base_neg = engine.count_neg(clause);
    let mut current = clause.clone();
    let mut i = current.body.len();
    while i > 0 {
        i -= 1;
        if current.body.len() <= 1 {
            break;
        }
        let mut candidate = current.clone();
        candidate.body.remove(i);
        candidate.prune_unconnected();
        if candidate.body.is_empty() {
            continue;
        }
        // Removal can only generalize: keeping the drop is sound whenever it
        // loses no positives (it cannot) and gains no negatives.
        let p = engine.covered_pos_subset(&candidate, &all_pos);
        if p.len() >= base_pos.len() && engine.count_neg(&candidate) <= base_neg {
            i = i.min(candidate.body.len());
            current = candidate;
        }
    }
    current
}

/// Statistics of one `LearnClause` invocation.
#[derive(Debug, Clone, Default)]
pub struct LearnClauseStats {
    /// Beam iterations executed.
    pub iterations: usize,
    /// armg applications.
    pub armg_calls: usize,
    /// Candidates scored.
    pub candidates_scored: usize,
    /// Distinct candidates generated by armg across all iterations.
    pub candidates_generated: usize,
    /// Candidates skipped before full scoring: by the positive-coverage
    /// upper bound, or because the monotone negative cutoff proved their
    /// score strictly below the beam's k-th best.
    pub candidates_pruned: usize,
    /// armg results dropped as α-equivalent duplicates (canonical-form
    /// dedup) of a candidate already kept this iteration.
    pub candidates_deduped: usize,
}

/// The `LearnClause` step of Algorithm 1: builds candidates from the seed's
/// bottom clause by beam search over armg generalizations, scoring each by
/// positives-covered − negatives-covered over `uncovered` ∪ negatives.
///
/// `bottom` is the seed example's variable-ized bottom clause
/// ([`crate::bottom::variablize`]); `uncovered` are the positive indices not
/// yet covered by the definition under construction.
pub fn learn_clause<R: Rng>(
    engine: &CoverageEngine,
    bottom: Clause,
    uncovered: &[usize],
    cfg: &GenConfig,
    rng: &mut R,
) -> (Clause, LearnClauseStats) {
    let mut stats = LearnClauseStats::default();
    let mut sp = obs::span!("learn.clause_search");
    let mut best_score = {
        let _score_sp = obs::span!("learn.score");
        stats.candidates_scored += 1;
        engine.score(&bottom, uncovered).0
    };
    let mut best = bottom.clone();
    let mut beam: Vec<(Clause, i64)> = vec![(bottom, best_score)];

    for _ in 0..cfg.max_iterations {
        stats.iterations += 1;
        // Sample E+_S from the uncovered positives.
        let mut sample: Vec<usize> = uncovered.to_vec();
        sample.shuffle(rng);
        sample.truncate(cfg.sample_size);

        let past_deadline = || cfg.deadline.is_some_and(|d| std::time::Instant::now() >= d);
        let generate_sp = obs::span!("learn.generate");
        let mut raw: Vec<Clause> = Vec::new();
        let mut ws = Workspace::default();
        'gen: for (clause, _) in &beam {
            let prepared = PreparedClause::new(clause);
            for &e in &sample {
                if past_deadline() {
                    break 'gen;
                }
                if engine.covers_pos_prepared(&mut ws, &prepared, e) {
                    continue; // already covered: armg would be a no-op
                }
                stats.armg_calls += 1;
                if let Some(generalized) = armg(clause, engine, e) {
                    raw.push(generalized);
                }
            }
        }
        drop(generate_sp);
        // Distinct armg results often coincide — across beam members, across
        // sample examples, and as α-variants of each other. Canonical forms
        // collapse all of those so each equivalence class is scored once,
        // and the kept clause IS the canonical form the scoring below
        // searches.
        let raw_len = raw.len();
        let canon_sp = obs::span!("learn.canon");
        let mut seen: relstore::FxHashSet<Canonical> = relstore::FxHashSet::default();
        let mut unique: Vec<Canonical> = Vec::new();
        for c in raw {
            let canon = engine.canonical(&c);
            if seen.insert(canon.clone()) {
                unique.push(canon);
            }
        }
        drop(canon_sp);
        stats.candidates_deduped += raw_len - unique.len();
        if unique.is_empty() {
            break;
        }
        stats.candidates_generated += unique.len();
        let score_sp = obs::span!("learn.score");

        // Positive halves of all candidates, scored in one batch (each
        // candidate prepared once) on this thread.
        let ps = engine.batch_covered_pos(&unique, uncovered);
        let mut with_p: Vec<(Canonical, usize)> = unique.into_iter().zip(ps).collect();
        with_p.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.len().cmp(&b.0.len())));

        // Scoring with sound pruning: score = p − n ≤ p, so once a
        // candidate's positive coverage cannot beat the beam's k-th best
        // full score, negative counting (the expensive half over every
        // negative example) is skipped.
        let mut candidates: Vec<(Canonical, i64)> = Vec::new();
        let total = with_p.len();
        for (idx, (c, p)) in with_p.into_iter().enumerate() {
            if past_deadline() && !candidates.is_empty() {
                break;
            }
            let kth_best = if candidates.len() >= cfg.beam_width {
                Some(candidates[cfg.beam_width - 1].1)
            } else {
                None
            };
            if let Some(kth) = kth_best {
                if (p as i64) <= kth {
                    // p is an upper bound on the score: prune the rest.
                    stats.candidates_pruned += total - idx;
                    break;
                }
            }
            // Monotone cutoff: the candidate can only enter the beam if
            // s = p − n ≥ kth, i.e. n ≤ p − kth (p > kth here, so the cast
            // is safe). Exceeding the cutoff proves s < kth strictly — such
            // a candidate could never displace a beam entry, so dropping it
            // leaves the final beam bit-identical to exact scoring.
            let cutoff = kth_best.map(|kth| (p as i64 - kth) as usize);
            stats.candidates_scored += 1;
            let n = engine.count_neg_budget(&c, cutoff);
            if n.exceeds(cutoff) {
                stats.candidates_pruned += 1;
                continue;
            }
            let s = p as i64 - n.value() as i64;
            candidates.push((c, s));
            candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.len().cmp(&b.0.len())));
        }
        drop(score_sp);
        if candidates.is_empty() {
            break;
        }
        candidates.truncate(cfg.beam_width);

        let round_best = candidates[0].1;
        if round_best > best_score {
            best_score = round_best;
            best = candidates[0].0.clone().into_clause();
            beam = candidates
                .into_iter()
                .map(|(c, s)| (c.into_clause(), s))
                .collect();
        } else {
            break; // no improvement: stop (paper: "iterates until the
                   // clauses cannot be improved")
        }
        if past_deadline() {
            break;
        }
    }

    crate::instrument::CANDIDATES_GENERATED.add(stats.candidates_generated as u64);
    crate::instrument::CANDIDATES_PRUNED.add(stats.candidates_pruned as u64);
    crate::instrument::CANDIDATES_DEDUPED.add(stats.candidates_deduped as u64);
    if sp.is_active() {
        sp.note("iterations", stats.iterations as u64);
        sp.note("armg_calls", stats.armg_calls as u64);
        sp.note("candidates_generated", stats.candidates_generated as u64);
        sp.note("candidates_scored", stats.candidates_scored as u64);
        sp.note("candidates_pruned", stats.candidates_pruned as u64);
        sp.note("candidates_deduped", stats.candidates_deduped as u64);
        sp.note("best_len", best.len() as u64);
    }
    (best, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::parse::parse_bias;
    use crate::bottom::{variablize, BcConfig, SamplingStrategy};
    use crate::example::{Example, TrainingSet};
    use crate::subsume::SubsumeConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use relstore::Database;

    /// A small UW-like database where the true rule is co-authorship:
    /// advisedBy(s, p) iff s and p share a publication. Extra noise tuples
    /// (phases, positions) make the bottom clauses over-specific so armg has
    /// real work to do.
    fn build_world() -> (Database, TrainingSet, crate::bias::LanguageBias) {
        let mut db = Database::new();
        let student = db.add_relation("student", &["stud"]);
        let professor = db.add_relation("professor", &["prof"]);
        let in_phase = db.add_relation("inPhase", &["stud", "phase"]);
        let publ = db.add_relation("publication", &["title", "person"]);
        let target = db.add_relation("advisedBy", &["stud", "prof"]);

        let phases = ["pre_quals", "post_quals", "post_generals"];
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for i in 0..6 {
            let s = format!("s{i}");
            let p = format!("f{i}");
            db.insert(student, &[&s]);
            db.insert(professor, &[&p]);
            db.insert(in_phase, &[&s, phases[i % 3]]);
            // Student i co-authors with professor i.
            let t = format!("paper{i}");
            db.insert(publ, &[&t, &s]);
            db.insert(publ, &[&t, &p]);
        }
        for i in 0..6 {
            let s = db.lookup(&format!("s{i}")).unwrap();
            let p = db.lookup(&format!("f{i}")).unwrap();
            let p_other = db.lookup(&format!("f{}", (i + 1) % 6)).unwrap();
            pos.push(Example::new(target, vec![s, p]));
            neg.push(Example::new(target, vec![s, p_other]));
        }
        let bias = parse_bias(
            &db,
            target,
            "
pred student(T1)
pred professor(T3)
pred inPhase(T1, T2)
pred publication(T5, T1)
pred publication(T5, T3)
pred advisedBy(T1, T3)
mode student(+)
mode professor(+)
mode inPhase(+, -)
mode inPhase(+, #)
mode publication(-, +)
",
        )
        .unwrap();
        (db, TrainingSet::new(pos, neg), bias)
    }

    /// The engine's body-literal cap, which the seed clauses share.
    const MAX_BODY_LITERALS: usize = 100_000;

    fn build_engine(
        db: &Database,
        train: &TrainingSet,
        bias: &crate::bias::LanguageBias,
    ) -> CoverageEngine {
        let cfg = BcConfig {
            depth: 2,
            strategy: SamplingStrategy::Full,
            max_body_literals: MAX_BODY_LITERALS,
            max_tuples: 1000,
        };
        CoverageEngine::build(db, bias, train, &cfg, SubsumeConfig::default(), 11)
    }

    #[test]
    fn armg_generalizes_bc_to_cover_other_positive() {
        let (db, train, bias) = build_world();
        let engine = build_engine(&db, &train, &bias);
        let bc = variablize(&engine.pos[0], &bias, MAX_BODY_LITERALS);
        // The seed's BC mentions s0's phase constant, so it cannot cover
        // s1 (different phase).
        assert!(!engine.covers_pos(&bc, 1));
        let g = armg(&bc, &engine, 1).expect("generalization must succeed");
        assert!(
            engine.covers_pos(&g, 1),
            "armg result must cover the target"
        );
        assert!(engine.covers_pos(&g, 0), "armg must stay a generalization");
        assert!(g.len() < bc.len(), "armg strictly shrinks the clause");
    }

    /// An input literal that was never head-connected is pruned by armg's
    /// first step, which rescans the whole body; later steps only check
    /// around the removed literal and would never see it.
    #[test]
    fn armg_first_step_prunes_an_originally_disconnected_literal() {
        use crate::clause::{Term, VarId};
        let (db, train, bias) = build_world();
        let engine = build_engine(&db, &train, &bias);
        let mut bc = variablize(&engine.pos[0], &bias, MAX_BODY_LITERALS);
        let student = db.rel_id("student").unwrap();
        let stray = Literal::new(student, vec![Term::Var(VarId(bc.num_vars()))]);
        bc.body.insert(0, stray.clone());
        assert_eq!(bc.head_connected_indices().len(), bc.len() - 1);
        assert!(!engine.covers_pos(&bc, 1));
        let g = armg(&bc, &engine, 1).expect("generalization must succeed");
        assert!(!g.body.contains(&stray), "the stray literal survived");
        assert_eq!(g.head_connected_indices().len(), g.len());
        // The same steps with a full rescan after every removal.
        let mut reference = bc.clone();
        while let Some(block) = blocking_atom(&reference, &engine, 1) {
            reference.body.remove(block);
            reference.prune_unconnected();
        }
        assert_eq!(g, reference);
    }

    /// Term code below 8 is a variable id, otherwise a constant.
    fn term_of(code: u32) -> crate::clause::Term {
        use crate::clause::{Term, VarId};
        if code < 8 {
            Term::Var(VarId(code))
        } else {
            Term::Const(relstore::Const(code))
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// On random head-connected clauses (repeated variables, constants,
        /// ground literals, head constants), armg's local check after each
        /// single-literal removal agrees with a full rescan. One scratch
        /// serves every removal, as in armg.
        #[test]
        fn local_connectivity_check_matches_a_full_rescan(
            head in proptest::collection::vec(0u32..10, 0..4),
            body in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..4), 1..14),
        ) {
            use relstore::RelId;
            let mut clause = Clause::new(
                Literal::new(RelId(9), head.into_iter().map(term_of).collect::<Vec<_>>()),
                body.into_iter()
                    .enumerate()
                    .map(|(i, args)| {
                        Literal::new(RelId(i as u32 % 3), args.into_iter().map(term_of).collect::<Vec<_>>())
                    })
                    .collect(),
            );
            clause.prune_unconnected();
            let mut reach = HeadReach::new(clause.num_vars() as usize);
            for i in 0..clause.body.len() {
                let mut rest = clause.clone();
                let removed = rest.body.remove(i);
                proptest::prop_assert_eq!(
                    reach.keeps_all(&rest, &removed),
                    rest.head_connected_indices().len() == rest.body.len(),
                    "removing literal {} of {:?}", i, clause
                );
            }
        }
    }

    /// On an antitone predicate over prefix lengths `0..=n` (covered up to
    /// the longest covering length `k`), galloping from any covered
    /// `proven` finds what a linear scan finds. Each ask is of an unasked
    /// length past the `lo` it is given, and that `lo` is the longest
    /// length seen covered so far. A block `d` literals past `proven` costs
    /// at most `2 log₂(d + 1) + 2` asks. The antitone predicates on
    /// `0..=n` are exactly these thresholds, so every `n ≤ 64`, every `k`
    /// and every `proven ≤ k` is checked.
    #[test]
    fn galloping_matches_a_linear_scan() {
        for n in 0..=64 {
            for k in 0..=n {
                for proven in 0..=k {
                    check_gallop(n, k, proven);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Budget cutoffs can make prefix answers non-monotone. On random
        /// answers, the gallop still asks each length at most once, past
        /// the `lo` it is given, and returns a literal whose prefix was
        /// proven or answered covered and whose one-longer prefix was
        /// answered not covered (or `None` only after the full prefix was
        /// answered covered).
        #[test]
        fn galloping_on_non_monotone_answers_returns_an_answered_boundary(
            answers in proptest::collection::vec(0u8..2, 1..66),
            proven in 0usize..65,
        ) {
            let answers: Vec<bool> = answers.into_iter().map(|a| a == 1).collect();
            let n = answers.len() - 1;
            let proven = proven.min(n);
            let mut seen: Vec<Option<bool>> = vec![None; n + 1];
            seen[proven] = Some(true);
            let got = search_blocking_atom(n, proven, |len, lo| {
                assert!(lo < len && len <= n && seen[len].is_none(), "asked {len} given {lo}");
                assert_eq!(seen[lo], Some(true), "lo {lo} was not covered");
                seen[len] = Some(answers[len]);
                answers[len]
            });
            match got {
                Some(b) => {
                    proptest::prop_assert_eq!(seen[b], Some(true));
                    proptest::prop_assert_eq!(seen[b + 1], Some(false));
                }
                None => proptest::prop_assert_eq!(seen[n], Some(true)),
            }
        }
    }

    /// Gallops over `covers(len) = len <= k` from `proven` and checks the
    /// answer and every ask against a linear scan.
    fn check_gallop(n: usize, k: usize, proven: usize) {
        let linear = (proven..n).find(|&len| len + 1 > k);
        let mut asked = Vec::new();
        let mut best = proven;
        let got = search_blocking_atom(n, proven, |len, lo| {
            assert!(lo < len && len <= n, "asked {len} given {lo} of {n}");
            assert_eq!(lo, best, "lo is not the longest covered length");
            assert!(!asked.contains(&len), "asked {len} twice");
            asked.push(len);
            let covered = len <= k;
            if covered {
                best = len;
            }
            covered
        });
        assert_eq!(got, linear, "n {n}, k {k}, proven {proven}");
        let d = (k - proven + 1) as f64;
        assert!(
            asked.len() as f64 <= 2.0 * d.log2() + 2.0,
            "{} asks for a block {} past {proven}",
            asked.len(),
            k - proven
        );
    }

    #[test]
    fn blocking_atom_is_minimal() {
        let (db, train, bias) = build_world();
        let engine = build_engine(&db, &train, &bias);
        let bc = variablize(&engine.pos[0], &bias, MAX_BODY_LITERALS);
        if let Some(i) = blocking_atom(&bc, &engine, 1) {
            // Prefix up to (but excluding) i covers; including i does not.
            let before = Clause::new(bc.head.clone(), bc.body[..i].to_vec());
            let with = Clause::new(bc.head.clone(), bc.body[..=i].to_vec());
            assert!(engine.covers_pos(&before, 1));
            assert!(!engine.covers_pos(&with, 1));
        } else {
            panic!("expected a blocking atom");
        }
    }

    #[test]
    fn armg_none_when_covered() {
        let (db, train, bias) = build_world();
        let engine = build_engine(&db, &train, &bias);
        let bc = variablize(&engine.pos[0], &bias, MAX_BODY_LITERALS);
        assert!(blocking_atom(&bc, &engine, 0).is_none());
        // armg on an already-covered example returns the clause unchanged.
        let same = armg(&bc, &engine, 0).unwrap();
        assert_eq!(same, bc);
    }

    #[test]
    fn learn_clause_finds_coauthorship() {
        let (db, train, bias) = build_world();
        let engine = build_engine(&db, &train, &bias);
        let uncovered: Vec<usize> = (0..train.pos.len()).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let (clause, stats) = learn_clause(
            &engine,
            variablize(&engine.pos[0], &bias, MAX_BODY_LITERALS),
            &uncovered,
            &GenConfig::default(),
            &mut rng,
        );
        let (_, p, n) = engine.score(&clause, &uncovered);
        assert_eq!(
            p,
            6,
            "clause should cover all positives: {}",
            clause.render(&db)
        );
        assert_eq!(
            n,
            0,
            "clause should cover no negatives: {}",
            clause.render(&db)
        );
        assert!(stats.armg_calls > 0);
    }
}
