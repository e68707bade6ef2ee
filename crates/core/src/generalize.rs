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
use crate::subsume::{PrefixProbe, Workspace};
use rand::seq::SliceRandom;
use rand::Rng;
use std::hash::{Hash, Hasher};

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
/// so a binary search over prefix lengths finds the blocking atom with
/// `O(log n)` subsumption tests, all sharing one [`PrefixProbe`].
pub fn blocking_atom(clause: &Clause, engine: &CoverageEngine, pos_idx: usize) -> Option<usize> {
    let mut probe = PrefixProbe::new(clause, &engine.pos[pos_idx]);
    let cfg = engine.subsume_config();
    search_blocking_atom(clause.body.len(), |len| probe.covers(len, cfg))
}

/// The blocking-atom binary search over prefix lengths `0..=n`, asking
/// `covers(len)` whether the prefix of length `len` covers the example.
/// Returns the zero-based index of the blocking literal, or `None` when the
/// full prefix (`n`) covers.
fn search_blocking_atom(n: usize, mut covers: impl FnMut(usize) -> bool) -> Option<usize> {
    if covers(n) {
        return None;
    }
    // Invariant: prefix of length `lo` covers, prefix of length `hi` does not.
    let mut lo = 0usize;
    let mut hi = n;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if covers(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(hi - 1) // zero-based index of the blocking literal
}

/// Applies armg: generalizes `clause` until it covers positive `pos_idx`.
/// Returns `None` if generalization degenerates to an empty body (the clause
/// would cover everything — never useful as a candidate).
///
/// Each step's binary search ends with `lo` = the blocking index: the prefix
/// `body[..lo]` was proven (by a test that answered "covered", or trivially
/// for `lo = 0`) to cover the example. Removing the blocking literal keeps
/// that prefix in place, and head-connectivity pruning only deletes
/// literals, so the first `proven` literals of the next clause — those the
/// pruning kept from the proven prefix — form a sub-body of a clause known
/// to cover the example, and cover it too. Probes of length `≤ proven`
/// therefore answer "covered" without a test, and longer probes skip the
/// components that lie wholly inside the proven prefix
/// ([`PrefixProbe::covers_given`]). The binary search still asks the same
/// lengths in the same order; a skipped test or component could only have
/// answered "not covered" through budget exhaustion, so the reuse never
/// claims "covered" wrongly.
///
/// One [`Workspace`] serves the whole call, and so does its candidate
/// table: the lists depend only on a literal, the head binding and the
/// example, none of which a step changes, so the table follows each step's
/// deletions instead of being refilled.
pub fn armg(clause: &Clause, engine: &CoverageEngine, pos_idx: usize) -> Option<Clause> {
    let mut sp = obs::span!("learn.armg");
    let ground = &engine.pos[pos_idx];
    let cfg = engine.subsume_config();
    let mut current = clause.clone();
    let mut ws = Workspace::default();
    let mut proven = 0usize;
    let (mut steps, mut probes, mut proven_probes, mut skipped) = (0u64, 0u64, 0u64, 0u64);
    let result = loop {
        let mut probe = if steps == 0 {
            PrefixProbe::with_workspace(&current, ground, &mut ws)
        } else {
            PrefixProbe::resume(&current, ground, &mut ws)
        };
        let block = search_blocking_atom(current.body.len(), |len| {
            if len <= proven {
                proven_probes += 1;
                return true;
            }
            probes += 1;
            probe.covers_given(len, proven, cfg)
        });
        skipped += probe.skipped_components();
        let Some(block) = block else {
            break Some(current);
        };
        steps += 1;
        current.body.remove(block);
        ws.remove_literal(block);
        let kept = current.head_connected_indices();
        proven = kept.partition_point(|&i| i < block);
        current.keep_body(&kept);
        ws.keep_literals(&kept);
        if current.body.is_empty() {
            break None;
        }
    };
    if sp.is_active() {
        sp.note("steps", steps);
        sp.note("probes", probes);
        sp.note("proven_probes", proven_probes);
        sp.note("skipped_components", skipped);
    }
    result
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

/// Cap on stored constraints per kind: consults are linear scans, so the
/// store must stay small. Beam runs produce at most a few hundred rejected
/// candidates, so the cap is generous; overflow silently stops harvesting
/// (pruning is an optimization, never required for correctness).
const CONSTRAINT_STORE_CAP: usize = 4096;

/// A canonical-form-keyed store of **coverage constraints** harvested from
/// scored beam candidates (after Cropper & Hocquette, "Learning logic
/// programs by discovering where not to search"), consulted before any
/// coverage test:
///
/// - a candidate measured to cover **zero positives** dooms every
///   *specialisation* (body ⊇ its body, same head): specialising only
///   shrinks coverage, so the specialisation's positive count is injected
///   as 0 without testing;
/// - every candidate whose negative count was measured — whether rejected
///   at its scoring cutoff (truncated count) or scored in full (exact
///   count) — bounds every *generalisation* (body ⊆ its body, same head)
///   from below: generalising only grows coverage, so when the inherited
///   bound already exceeds the current cutoff the candidate is dropped
///   before any negative test runs;
/// - an **exact** negative count for a canonically identical re-encounter
///   is injected outright: negatives are fixed for the whole learn run and
///   θ-subsumption is a pure function of (clause, ground BC, budget), so
///   the stored number *is* what the skipped scan would return.
///
/// Bodies are stored as sorted multisets of literal hashes of the
/// *canonical* clause (all candidates are canonicalized before scoring), so
/// the subset checks are linear merges and "specialisation" is literal
/// multiset inclusion under the identity substitution — a sound
/// under-approximation of θ-subsumption order, and an exact match (same
/// multiset, same head) is α-equivalence. Constraints stay valid for a
/// whole learn run: zero-positive claims are over the `uncovered` set, which
/// only shrinks, and negative bounds are against the fixed negatives.
///
/// Every prune has a provably identical outcome to the test it skips, so
/// learned output is bit-for-bit independent of
/// `LearnerConfig::constraint_pruning`; the UW byte-identity suite pins that
/// transparency.
#[derive(Debug, Default)]
pub struct ConstraintStore {
    enabled: bool,
    /// `(head key, sorted body literal keys)` of zero-positive candidates.
    zero_pos: Vec<(u64, Box<[u64]>)>,
    /// `(head key, sorted body literal keys, bound, exact)` per measured
    /// candidate: `bound` is a lower bound on its negative count, exact when
    /// `exact` (counting ran to completion rather than stopping at the
    /// scoring cutoff).
    neg_bounds: Vec<(u64, Box<[u64]>, usize, bool)>,
    /// Dedup of zero-positive bodies (hash of head + body keys).
    seen_zero: relstore::FxHashSet<u64>,
    /// Index into `neg_bounds` by body hash, for exact-repeat lookup and
    /// in-place upgrades (truncated bound → exact count).
    seen_neg: relstore::FxHashMap<u64, usize>,
}

impl ConstraintStore {
    /// An empty store that harvests and prunes.
    pub fn new() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// A store that never prunes nor harvests: the unpruned reference path
    /// (`LearnerConfig::constraint_pruning` off).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Number of stored constraints (both kinds).
    pub fn len(&self) -> usize {
        self.zero_pos.len() + self.neg_bounds.len()
    }

    /// Whether the store holds no constraints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn keys_of(clause: &Clause) -> (u64, Box<[u64]>) {
        let mut body: Vec<u64> = clause.body.iter().map(lit_key).collect();
        body.sort_unstable();
        (lit_key(&clause.head), body.into_boxed_slice())
    }

    fn harvest_key(head: u64, body: &[u64]) -> u64 {
        let mut h = head.rotate_left(17);
        for &k in body {
            h = h.rotate_left(5) ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        h
    }

    /// Records a candidate measured at zero positive coverage.
    pub fn harvest_zero_pos(&mut self, clause: &Clause) {
        if !self.enabled || self.zero_pos.len() >= CONSTRAINT_STORE_CAP {
            return;
        }
        let (head, body) = Self::keys_of(clause);
        if self.seen_zero.insert(Self::harvest_key(head, &body)) {
            self.zero_pos.push((head, body));
        }
    }

    /// Records a candidate whose measured negative count reached `bound`;
    /// `exact` when counting ran to completion (the bound is the count)
    /// rather than stopping at the scoring cutoff (truncated). Re-harvests
    /// of the same body upgrade the stored entry in place.
    pub fn harvest_neg_bound(&mut self, clause: &Clause, bound: usize, exact: bool) {
        if !self.enabled {
            return;
        }
        let (head, body) = Self::keys_of(clause);
        match self.seen_neg.entry(Self::harvest_key(head, &body)) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let slot = &mut self.neg_bounds[*e.get()];
                if slot.0 == head && slot.1 == body {
                    slot.2 = slot.2.max(bound);
                    slot.3 |= exact;
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                if self.neg_bounds.len() >= CONSTRAINT_STORE_CAP {
                    return;
                }
                e.insert(self.neg_bounds.len());
                self.neg_bounds.push((head, body, bound, exact));
            }
        }
    }

    /// Whether `clause` is a specialisation of a stored zero-positive
    /// candidate — in which case its positive coverage is provably zero.
    pub fn implies_zero_pos(&self, clause: &Clause) -> bool {
        if !self.enabled || self.zero_pos.is_empty() {
            return false;
        }
        let (head, body) = Self::keys_of(clause);
        self.zero_pos
            .iter()
            .any(|(h, b)| *h == head && b.len() <= body.len() && multiset_subset(b, &body))
    }

    /// The exact negative count stored for a canonically identical clause,
    /// if a fully measured one exists. O(1): hashed body lookup.
    pub fn neg_exact(&self, clause: &Clause) -> Option<usize> {
        if !self.enabled || self.neg_bounds.is_empty() {
            return None;
        }
        let (head, body) = Self::keys_of(clause);
        let &idx = self.seen_neg.get(&Self::harvest_key(head, &body))?;
        let (h, b, n, exact) = &self.neg_bounds[idx];
        (*exact && *h == head && *b == body).then_some(*n)
    }

    /// The largest stored negative lower bound applying to `clause` (i.e.
    /// from a stored candidate `clause` generalises), if any.
    pub fn neg_lower_bound(&self, clause: &Clause) -> Option<usize> {
        if !self.enabled || self.neg_bounds.is_empty() {
            return None;
        }
        let (head, body) = Self::keys_of(clause);
        self.neg_bounds
            .iter()
            .filter(|(h, b, _, _)| *h == head && body.len() <= b.len() && multiset_subset(&body, b))
            .map(|&(_, _, lb, _)| lb)
            .max()
    }
}

/// A structural key for one literal (relation + args, vars by id). Canonical
/// clauses give α-equivalent literals equal keys; a 64-bit collision between
/// distinct literals is the only failure mode and would at worst suppress or
/// add a prune that the byte-identity suite detects.
fn lit_key(l: &Literal) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    l.hash(&mut h);
    h.finish()
}

/// Multiset inclusion over two ascending-sorted key slices.
fn multiset_subset(small: &[u64], big: &[u64]) -> bool {
    let mut bi = 0usize;
    'outer: for &s in small {
        while bi < big.len() {
            match big[bi].cmp(&s) {
                std::cmp::Ordering::Less => bi += 1,
                std::cmp::Ordering::Equal => {
                    bi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
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
    /// Candidates answered or dropped by the failure-constraint store before
    /// any coverage test ran ([`ConstraintStore`]).
    pub candidates_pruned_by_constraint: usize,
}

/// The `LearnClause` step of Algorithm 1: builds candidates from the seed's
/// bottom clause by beam search over armg generalizations, scoring each by
/// positives-covered − negatives-covered over `uncovered` ∪ negatives.
///
/// `bottom` is the seed example's variable-ized bottom clause
/// ([`crate::bottom::variablize`]); `uncovered` are the positive indices not
/// yet covered by the definition under construction. `store` carries failure
/// constraints across covering iterations — rejected candidates harvested
/// here prune future beam candidates before any coverage test (pass
/// [`ConstraintStore::disabled`] to opt out).
pub fn learn_clause<R: Rng>(
    engine: &CoverageEngine,
    bottom: Clause,
    uncovered: &[usize],
    cfg: &GenConfig,
    store: &mut ConstraintStore,
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
            for &e in &sample {
                if past_deadline() {
                    break 'gen;
                }
                if engine.covers_pos_in(&mut ws, clause, e) {
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

        // Constraint consult #1: a specialisation of a stored zero-positive
        // candidate provably covers zero positives — inject p = 0 without
        // testing. Injection keeps the candidate in its original slot so the
        // stable sorts below (and therefore the learned output) are
        // bit-identical with pruning off.
        let known_zero: Vec<bool> = unique.iter().map(|c| store.implies_zero_pos(c)).collect();
        let test_idx: Vec<usize> = (0..unique.len()).filter(|&i| !known_zero[i]).collect();
        stats.candidates_pruned_by_constraint += unique.len() - test_idx.len();

        // Positive halves of all candidates scored as one batched parallel
        // map over (candidate × example) pairs — balanced even when the
        // beam holds one expensive clause and several cheap ones.
        let to_test: Vec<Canonical> = test_idx.iter().map(|&i| unique[i].clone()).collect();
        let ps = engine.batch_covered_pos(&to_test, uncovered);
        let mut p_of = vec![0usize; unique.len()];
        for (k, &i) in test_idx.iter().enumerate() {
            p_of[i] = ps[k];
        }
        let mut with_p: Vec<(Canonical, usize)> = unique.into_iter().zip(p_of).collect();
        // Constraint harvest #1: freshly measured zero-positive candidates.
        for (c, p) in &with_p {
            if *p == 0 {
                store.harvest_zero_pos(c);
            }
        }
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
            // Constraint consult #2: an exact count stored for a canonically
            // identical clause IS what the scan below would measure —
            // negatives are fixed and subsumption is a pure function — so
            // inject it and take the same branch the scan would take.
            // Otherwise, a generalisation of any stored candidate inherits
            // its lower bound; when that already exceeds the cutoff, the
            // negative scan would provably end in the same `continue`.
            let known_n = store.neg_exact(&c);
            if known_n.is_none() {
                if let Some(lb) = store.neg_lower_bound(&c) {
                    if cutoff.is_some_and(|k| lb > k) {
                        stats.candidates_pruned_by_constraint += 1;
                        continue;
                    }
                }
            }
            let (n_value, n_exceeds) = match known_n {
                Some(n) => {
                    stats.candidates_pruned_by_constraint += 1;
                    (n, cutoff.is_some_and(|k| n > k))
                }
                None => {
                    stats.candidates_scored += 1;
                    let n = engine.count_neg_budget(&c, cutoff);
                    (n.value(), n.exceeds(cutoff))
                }
            };
            if n_exceeds {
                // Constraint harvest #2: the measured count is a lower
                // bound on this candidate's — and every generalisation's —
                // negative coverage (exact only if counting finished).
                store.harvest_neg_bound(&c, n_value, known_n.is_some());
                stats.candidates_pruned += 1;
                continue;
            }
            // Constraint harvest #3: a fully counted number is exact and
            // also bounds every generalisation from below (negatives are
            // fixed, coverage is monotone under generalisation) —
            // harvesting *accepted* candidates too is what makes the store
            // fire on re-encounters across covering iterations.
            store.harvest_neg_bound(&c, n_value, true);
            let s = p as i64 - n_value as i64;
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
    crate::instrument::CANDIDATES_PRUNED_BY_CONSTRAINT
        .add(stats.candidates_pruned_by_constraint as u64);
    if sp.is_active() {
        sp.note("iterations", stats.iterations as u64);
        sp.note("armg_calls", stats.armg_calls as u64);
        sp.note("candidates_generated", stats.candidates_generated as u64);
        sp.note("candidates_scored", stats.candidates_scored as u64);
        sp.note("candidates_pruned", stats.candidates_pruned as u64);
        sp.note("candidates_deduped", stats.candidates_deduped as u64);
        sp.note(
            "candidates_pruned_by_constraint",
            stats.candidates_pruned_by_constraint as u64,
        );
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
        db.build_indexes();
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
        let mut store = ConstraintStore::disabled();
        let (clause, stats) = learn_clause(
            &engine,
            variablize(&engine.pos[0], &bias, MAX_BODY_LITERALS),
            &uncovered,
            &GenConfig::default(),
            &mut store,
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

    #[test]
    fn multiset_subset_is_inclusion_with_multiplicity() {
        assert!(multiset_subset(&[], &[]));
        assert!(multiset_subset(&[], &[1, 2]));
        assert!(multiset_subset(&[2], &[1, 2, 3]));
        assert!(multiset_subset(&[1, 2], &[1, 2]));
        assert!(multiset_subset(&[2, 2], &[1, 2, 2, 3]));
        assert!(!multiset_subset(&[2, 2], &[1, 2, 3])); // multiplicity counts
        assert!(!multiset_subset(&[4], &[1, 2, 3]));
        assert!(!multiset_subset(&[1, 2], &[2])); // bigger than big
    }

    /// Builds `t(V0, V1) ← body` over the given relation ids, with each body
    /// literal reading `rel(V0, Vk)` for a fresh k — so dropping literals
    /// gives genuine multiset-subset bodies (all vars hang off the head).
    fn star_clause(rels: &[u32]) -> Clause {
        use crate::clause::{Term, VarId};
        use relstore::RelId;
        let head = Literal::new(RelId(99), vec![Term::Var(VarId(0)), Term::Var(VarId(1))]);
        let body = rels
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                Literal::new(
                    RelId(r),
                    vec![Term::Var(VarId(0)), Term::Var(VarId(i as u32 + 2))],
                )
            })
            .collect();
        Clause::new(head, body)
    }

    #[test]
    fn zero_pos_constraint_dooms_specialisations_only() {
        let mut store = ConstraintStore::new();
        store.harvest_zero_pos(&star_clause(&[1, 2]));
        // Specialisation (superset body): provably zero positives.
        assert!(store.implies_zero_pos(&star_clause(&[1, 2, 3])));
        // The stored clause itself is its own specialisation.
        assert!(store.implies_zero_pos(&star_clause(&[1, 2])));
        // Generalisations and unrelated bodies are NOT doomed.
        assert!(!store.implies_zero_pos(&star_clause(&[1])));
        assert!(!store.implies_zero_pos(&star_clause(&[1, 3])));
        assert!(store.len() == 1 && !store.is_empty());
    }

    #[test]
    fn neg_bound_flows_to_generalisations_and_upgrades_in_place() {
        let mut store = ConstraintStore::new();
        // Truncated bound on the specific clause.
        store.harvest_neg_bound(&star_clause(&[1, 2, 3]), 4, false);
        // Generalisations (subset bodies) inherit the bound...
        assert_eq!(store.neg_lower_bound(&star_clause(&[1, 2])), Some(4));
        // ...under the *identity* substitution only: `star_clause(&[3])`
        // names its output V2 where the stored body names it V4, so the
        // hash-multiset check conservatively declines (a missed prune, never
        // an unsound one).
        assert_eq!(store.neg_lower_bound(&star_clause(&[3])), None);
        // A truncated bound is never served as exact.
        assert_eq!(store.neg_exact(&star_clause(&[1, 2, 3])), None);
        // Specialisations do not inherit (they may cover fewer negatives).
        assert_eq!(store.neg_lower_bound(&star_clause(&[1, 2, 3, 4])), None);
        // Re-harvesting the same body exactly upgrades the entry in place.
        store.harvest_neg_bound(&star_clause(&[1, 2, 3]), 7, true);
        assert_eq!(store.len(), 1, "upgrade must not duplicate the entry");
        assert_eq!(store.neg_exact(&star_clause(&[1, 2, 3])), Some(7));
        assert_eq!(store.neg_lower_bound(&star_clause(&[1])), Some(7));
        // Exactness is keyed on the precise body: near misses stay inexact.
        assert_eq!(store.neg_exact(&star_clause(&[1, 2])), None);
    }

    #[test]
    fn disabled_store_never_harvests_nor_answers() {
        let mut store = ConstraintStore::disabled();
        store.harvest_zero_pos(&star_clause(&[1]));
        store.harvest_neg_bound(&star_clause(&[1, 2]), 9, true);
        assert!(store.is_empty());
        assert!(!store.implies_zero_pos(&star_clause(&[1, 2])));
        assert_eq!(store.neg_exact(&star_clause(&[1, 2])), None);
        assert_eq!(store.neg_lower_bound(&star_clause(&[1])), None);
    }

    /// Pruning on vs off must learn the same clause on the co-authorship
    /// world — the in-process version of the UW byte-identity suite.
    #[test]
    fn learn_clause_is_invariant_under_constraint_pruning() {
        let (db, train, bias) = build_world();
        let engine = build_engine(&db, &train, &bias);
        let uncovered: Vec<usize> = (0..train.pos.len()).collect();
        let run = |store: &mut ConstraintStore| {
            let mut rng = StdRng::seed_from_u64(5);
            learn_clause(
                &engine,
                variablize(&engine.pos[0], &bias, MAX_BODY_LITERALS),
                &uncovered,
                &GenConfig::default(),
                store,
                &mut rng,
            )
            .0
        };
        let without = run(&mut ConstraintStore::disabled());
        let mut store = ConstraintStore::new();
        let with = run(&mut store);
        // Run twice with the same warm store: re-encounters answered from it.
        let with_warm = run(&mut store);
        assert_eq!(
            without,
            with,
            "pruning changed the learned clause: {}",
            with.render(&db)
        );
        assert_eq!(without, with_warm, "warm store changed the learned clause");
        assert!(!store.is_empty(), "co-authorship run harvested nothing");
    }
}
