//! The sequential covering learner (paper Algorithm 1) and the `Learner`
//! facade tying together bias, BC construction, coverage, and generalization.

use crate::bias::LanguageBias;
use crate::bottom::{variablize, BcConfig};
use crate::clause::Definition;
use crate::coverage::{worker_threads, Bitset, CoverageEngine};
use crate::example::TrainingSet;
use crate::generalize::{learn_clause, GenConfig};
use crate::subsume::{PreparedClause, SubsumeConfig, Workspace};
use obs::progress::{NullSink, ProgressEvent, ProgressSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relstore::Database;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The minimum criterion a clause must satisfy to enter the definition
/// (Algorithm 1, line 5).
#[derive(Debug, Clone, Copy)]
pub struct MinCriterion {
    /// Minimum training precision `p/(p+n)` of the clause.
    pub min_precision: f64,
    /// Minimum number of *new* positives the clause must cover.
    pub min_pos_covered: usize,
}

impl Default for MinCriterion {
    fn default() -> Self {
        Self {
            min_precision: 0.6,
            min_pos_covered: 1,
        }
    }
}

/// Full learner configuration.
#[derive(Debug, Clone, Copy)]
pub struct LearnerConfig {
    /// Bottom-clause construction settings (depth, sampling).
    pub bc: BcConfig,
    /// Subsumption search budget.
    pub subsume: SubsumeConfig,
    /// Beam-search settings.
    pub gen: GenConfig,
    /// Clause acceptance criterion.
    pub min: MinCriterion,
    /// Hard cap on clauses in the learned definition (guards the covering
    /// loop against pathological data).
    pub max_clauses: usize,
    /// RNG seed; every run with the same seed, data, and bias is
    /// reproducible.
    pub seed: u64,
    /// Optional wall-clock budget for one `learn` call. When exceeded, the
    /// covering loop stops and returns the definition learned so far — the
    /// reproduction of the paper's "killed after >10h" Castor rows.
    pub time_budget: Option<Duration>,
    /// Post-process each accepted clause with greedy backward literal
    /// elimination ([`crate::generalize::reduce_clause`]): same training
    /// coverage, far more readable clauses. Off by default to keep timing
    /// comparable with the paper's pipeline.
    pub reduce_clauses: bool,
    /// Worker threads for ground bottom-clause construction. Learned
    /// definitions do not depend on it.
    pub threads: usize,
}

impl Default for LearnerConfig {
    fn default() -> Self {
        Self {
            bc: BcConfig::default(),
            subsume: SubsumeConfig::default(),
            gen: GenConfig::default(),
            min: MinCriterion::default(),
            max_clauses: 20,
            seed: 0xC0FFEE,
            time_budget: None,
            reduce_clauses: false,
            threads: worker_threads(),
        }
    }
}

/// Statistics of one learning run.
#[derive(Debug, Clone, Default)]
pub struct LearnStats {
    /// Wall-clock time building ground bottom clauses.
    pub bc_time: Duration,
    /// Wall-clock time in the covering loop (generalization + scoring).
    pub search_time: Duration,
    /// Positives the learned definition leaves uncovered when the loop
    /// stopped, given-up seeds included: a rejected seed counts unless a
    /// clause accepted later covers it.
    pub uncovered_pos: usize,
    /// Whether the time budget expired before the loop finished.
    pub timed_out: bool,
    /// Whether an external cancellation flag stopped the run early (see
    /// [`Learner::learn_with_progress`]).
    pub cancelled: bool,
    /// Clauses proposed by `LearnClause` that failed the minimum criterion.
    pub rejected_clauses: usize,
    /// Total ground-BC literals built (a proxy for sampling effort).
    pub ground_literals: usize,
}

/// The sequential covering learner.
#[derive(Debug, Clone, Default)]
pub struct Learner {
    /// Configuration used by [`Learner::learn`].
    pub cfg: LearnerConfig,
}

impl Learner {
    /// Creates a learner with the given configuration.
    pub fn new(cfg: LearnerConfig) -> Self {
        Self { cfg }
    }

    /// Learns a Horn definition for the bias's target relation from the
    /// training set (Algorithm 1).
    pub fn learn(
        &self,
        db: &Database,
        bias: &LanguageBias,
        train: &TrainingSet,
    ) -> (Definition, LearnStats) {
        static NEVER: AtomicBool = AtomicBool::new(false);
        self.learn_with_progress(db, bias, train, &NEVER, &NullSink)
    }

    /// [`Learner::learn`] with cooperative cancellation and a structured
    /// progress channel. `cancel` is polled before the (expensive) ground-BC
    /// build and once per covering-loop iteration; when it reads `true`, the
    /// loop stops and the definition learned so far is returned with
    /// `stats.cancelled` set, which lets a resident server abort background
    /// learning jobs without killing the process.
    /// `sink` receives one [`ProgressEvent`] per covering-loop decision —
    /// `BcBuildFinished` after ground-BC construction, then per iteration
    /// `IterationStarted` → `ClauseSearched` → (`ClauseAccepted` |
    /// `ClauseRejected`), and exactly one terminal `Finished` on every exit
    /// path (including cancellation before any work). This is the feed
    /// behind `--report-out` run reports, the server's live job status and
    /// SSE stream, and `autobias jobs watch`. Events fire a handful of times
    /// per run, so the virtual call is nowhere near a hot path.
    pub fn learn_with_progress(
        &self,
        db: &Database,
        bias: &LanguageBias,
        train: &TrainingSet,
        cancel: &AtomicBool,
        sink: &dyn ProgressSink,
    ) -> (Definition, LearnStats) {
        crate::instrument::register();
        let mut sp = obs::span!("learn");
        let mut stats = LearnStats::default();
        let finished = |definition: &Definition, stats: &LearnStats| ProgressEvent::Finished {
            clauses: definition.len(),
            uncovered_pos: stats.uncovered_pos,
            rejected_clauses: stats.rejected_clauses,
            timed_out: stats.timed_out,
            cancelled: stats.cancelled,
            bc_us: stats.bc_time.as_micros() as u64,
            search_us: stats.search_time.as_micros() as u64,
        };
        if cancel.load(Ordering::Relaxed) {
            stats.cancelled = true;
            stats.uncovered_pos = train.pos.len();
            let definition = Definition::new();
            sink.on_event(&finished(&definition, &stats));
            return (definition, stats);
        }
        let t0 = Instant::now();
        let engine = {
            let _bc_sp = obs::span!("learn.bc_build");
            CoverageEngine::for_learner(db, bias, train, &self.cfg)
        };
        stats.bc_time = t0.elapsed();
        stats.ground_literals = engine
            .pos
            .iter()
            .chain(&engine.neg)
            .map(|g| g.len())
            .sum::<usize>();
        sink.on_event(&ProgressEvent::BcBuildFinished {
            pos_examples: train.pos.len(),
            neg_examples: train.neg.len(),
            ground_literals: stats.ground_literals,
            elapsed_us: stats.bc_time.as_micros() as u64,
        });

        let t1 = Instant::now();
        let deadline = self.cfg.time_budget.map(|b| t0 + b);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut uncovered: Vec<usize> = (0..train.pos.len()).collect();
        // Seeds whose clause was rejected: dropped from `uncovered` so the
        // loop makes progress, yet not covered by anything accepted so far.
        let mut given_up: Vec<usize> = Vec::new();
        let mut definition = Definition::new();
        let mut iteration = 0usize;

        while !uncovered.is_empty() && definition.len() < self.cfg.max_clauses {
            if cancel.load(Ordering::Relaxed) {
                stats.cancelled = true;
                break;
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    stats.timed_out = true;
                    break;
                }
            }
            // Only the seed example's bottom clause is ever variable-ized.
            let bottom = variablize(
                &engine.pos[uncovered[0]],
                bias,
                self.cfg.bc.max_body_literals,
            );
            iteration += 1;
            sink.on_event(&ProgressEvent::IterationStarted {
                iteration,
                uncovered_pos: uncovered.len(),
                clauses_so_far: definition.len(),
                seed_bc_literals: bottom.body.len(),
            });
            let mut gen_cfg = self.cfg.gen;
            gen_cfg.deadline = deadline;
            let (clause, cstats) = learn_clause(&engine, bottom, &uncovered, &gen_cfg, &mut rng);
            sink.on_event(&ProgressEvent::ClauseSearched {
                iteration,
                beam_iterations: cstats.iterations,
                candidates_generated: cstats.candidates_generated,
                candidates_pruned: cstats.candidates_pruned,
                armg_calls: cstats.armg_calls,
            });

            let uncovered_mask = Bitset::from_indices(train.pos.len(), &uncovered);
            let canon = engine.canonical(&clause);
            let covered_mask = engine.covered_pos_mask(&canon, &uncovered_mask);
            let covered_len = covered_mask.count_ones();
            let neg_covered = engine.count_neg_budget(&canon, None).value();
            let precision = precision_of(covered_len, neg_covered);

            let accept = covered_len >= self.cfg.min.min_pos_covered
                && precision >= self.cfg.min.min_precision;
            if !accept {
                crate::instrument::CLAUSES_REJECTED.bump();
                stats.rejected_clauses += 1;
                // The seed example is unlearnable under the current budget;
                // drop it so the loop can make progress on the rest.
                given_up.push(uncovered.remove(0));
                sink.on_event(&ProgressEvent::ClauseRejected {
                    iteration,
                    covered_pos: covered_len,
                    covered_neg: neg_covered,
                    precision,
                });
                continue;
            }

            uncovered.retain(|&i| !covered_mask.get(i));
            let mut clause = clause;
            if self.cfg.reduce_clauses {
                clause = crate::generalize::reduce_clause(&clause, &engine);
            }
            clause.canonicalize_vars();
            // Invariants the static verifier (crates/analyze) treats as
            // Error-level for learned theories: every accepted clause is
            // head-connected (AB102; armg and reduction both re-prune) and
            // draws its literals from mode-bearing relations (AB104).
            debug_assert_eq!(
                clause.head_connected_indices().len(),
                clause.body.len(),
                "accepted clause has a disconnected literal: {}",
                clause.render(db)
            );
            debug_assert!(
                clause
                    .body
                    .iter()
                    .all(|l| bias.modes_for(l.rel).next().is_some()),
                "accepted clause uses a relation without modes: {}",
                clause.render(db)
            );
            crate::instrument::CLAUSES_ACCEPTED.bump();
            sink.on_event(&ProgressEvent::ClauseAccepted {
                iteration,
                covered_pos: covered_len,
                covered_neg: neg_covered,
                precision,
                literals: clause.body.len(),
                uncovered_after: uncovered.len(),
                clause: clause.render(db),
            });
            definition.clauses.push(clause);
        }

        stats.search_time = t1.elapsed();
        // Acceptance only ever tested the seeds still uncovered, so a
        // given-up seed is tested once here against the final definition.
        let prepared = prepare_definition(&definition);
        let mut ws = Workspace::default();
        stats.uncovered_pos = uncovered.len()
            + given_up
                .iter()
                .filter(|&&i| !definition_covers_pos_in(&mut ws, &prepared, &engine, i))
                .count();
        if sp.is_active() {
            sp.note("clauses", definition.len() as u64);
            sp.note("rejected_clauses", stats.rejected_clauses as u64);
            sp.note("uncovered_pos", stats.uncovered_pos as u64);
            sp.note("ground_literals", stats.ground_literals as u64);
        }
        sink.on_event(&finished(&definition, &stats));
        (definition, stats)
    }
}

/// Training precision `p / (p + n)`, with the empty-coverage convention of
/// 0.0. The single definition used by both the acceptance check and every
/// reported precision, so the two can never drift apart on float rounding.
fn precision_of(pos_covered: usize, neg_covered: usize) -> f64 {
    if pos_covered == 0 {
        0.0
    } else {
        pos_covered as f64 / (pos_covered + neg_covered) as f64
    }
}

/// Definition-level coverage helper: whether `definition` covers example `i`
/// of the engine's positives. A one-off test of each clause, up to the
/// first that covers; a pass over many examples prepares the clauses once
/// ([`prepare_definition`], [`definition_covers_pos_in`]).
pub fn definition_covers_pos(def: &Definition, engine: &CoverageEngine, i: usize) -> bool {
    let mut ws = Workspace::default();
    def.clauses
        .iter()
        .any(|c| engine.covers_pos_in(&mut ws, c, i))
}

/// Every clause of `def`, prepared once for the many examples a pass tests
/// ([`definition_covers_pos_in`], [`definition_covers_neg_in`]).
pub fn prepare_definition(def: &Definition) -> Vec<PreparedClause<'_>> {
    def.clauses.iter().map(PreparedClause::new).collect()
}

/// [`definition_covers_pos`] over a definition's prepared clauses
/// ([`prepare_definition`]), in the caller's subsumption workspace.
pub fn definition_covers_pos_in(
    ws: &mut Workspace,
    def: &[PreparedClause],
    engine: &CoverageEngine,
    i: usize,
) -> bool {
    def.iter().any(|c| engine.covers_pos_prepared(ws, c, i))
}

/// Definition-level coverage helper for negatives (a one-off test, like
/// [`definition_covers_pos`]).
pub fn definition_covers_neg(def: &Definition, engine: &CoverageEngine, i: usize) -> bool {
    let mut ws = Workspace::default();
    def.clauses
        .iter()
        .any(|c| engine.covers_neg_in(&mut ws, c, i))
}

/// [`definition_covers_neg`] over a definition's prepared clauses, in the
/// caller's subsumption workspace.
pub fn definition_covers_neg_in(
    ws: &mut Workspace,
    def: &[PreparedClause],
    engine: &CoverageEngine,
    i: usize,
) -> bool {
    def.iter().any(|c| engine.covers_neg_prepared(ws, c, i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::parse::parse_bias;
    use crate::bottom::SamplingStrategy;
    use crate::example::Example;
    use relstore::Database;

    /// Whether each training positive / negative is covered by `def`,
    /// tested against the learner's own ground bottom clauses.
    fn training_coverage(
        def: &Definition,
        db: &Database,
        bias: &LanguageBias,
        train: &TrainingSet,
        cfg: &LearnerConfig,
    ) -> (Vec<bool>, Vec<bool>) {
        let engine = CoverageEngine::for_learner(db, bias, train, cfg);
        let prepared = prepare_definition(def);
        let mut ws = Workspace::default();
        let pos = (0..train.pos.len())
            .map(|i| definition_covers_pos_in(&mut ws, &prepared, &engine, i))
            .collect();
        let neg = (0..train.neg.len())
            .map(|i| definition_covers_neg_in(&mut ws, &prepared, &engine, i))
            .collect();
        (pos, neg)
    }

    /// World with a two-rule target: advisedBy(s,p) holds iff s,p co-author
    /// OR s TAs a course p teaches. Tests that sequential covering finds
    /// multiple clauses.
    fn two_rule_world() -> (Database, TrainingSet, LanguageBias) {
        let mut db = Database::new();
        let student = db.add_relation("student", &["stud"]);
        let professor = db.add_relation("professor", &["prof"]);
        let publ = db.add_relation("publication", &["title", "person"]);
        let ta = db.add_relation("ta", &["course", "stud"]);
        let taught = db.add_relation("taughtBy", &["course", "prof"]);
        let target = db.add_relation("advisedBy", &["stud", "prof"]);

        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for i in 0..8 {
            let s = format!("s{i}");
            let p = format!("f{i}");
            db.insert(student, &[&s]);
            db.insert(professor, &[&p]);
            if i < 4 {
                // co-authorship advising
                let t = format!("paper{i}");
                db.insert(publ, &[&t, &s]);
                db.insert(publ, &[&t, &p]);
            } else {
                // TAship advising
                let c = format!("course{i}");
                db.insert(ta, &[&c, &s]);
                db.insert(taught, &[&c, &p]);
            }
        }
        for i in 0..8 {
            let s = db.lookup(&format!("s{i}")).unwrap();
            let p = db.lookup(&format!("f{i}")).unwrap();
            let p2 = db.lookup(&format!("f{}", (i + 3) % 8)).unwrap();
            pos.push(Example::new(target, vec![s, p]));
            neg.push(Example::new(target, vec![s, p2]));
        }
        let bias = parse_bias(
            &db,
            target,
            "
pred student(T1)
pred professor(T3)
pred publication(T5, T1)
pred publication(T5, T3)
pred ta(T6, T1)
pred taughtBy(T6, T3)
pred advisedBy(T1, T3)
mode student(+)
mode professor(+)
mode publication(-, +)
mode ta(-, +)
mode ta(+, -)
mode taughtBy(-, +)
mode taughtBy(+, -)
",
        )
        .unwrap();
        (db, TrainingSet::new(pos, neg), bias)
    }

    #[test]
    fn covering_learns_both_rules() {
        let (db, train, bias) = two_rule_world();
        let cfg = LearnerConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 2000,
            },
            ..LearnerConfig::default()
        };
        let (def, stats) = Learner::new(cfg).learn(&db, &bias, &train);
        let (pos_cov, neg_cov) = training_coverage(&def, &db, &bias, &train, &cfg);
        assert!(
            def.len() >= 2,
            "expected ≥2 clauses, got:\n{}",
            def.render(&db)
        );
        assert!(pos_cov.iter().all(|&c| c), "all positives covered");
        assert!(neg_cov.iter().all(|&c| !c), "no negatives covered");
        assert_eq!(stats.uncovered_pos, 0);
    }

    #[test]
    fn unlearnable_seed_is_skipped_not_looped() {
        // A positive example with constants appearing nowhere in the data
        // yields an empty BC; the learner must skip it and terminate.
        let (mut db, mut train, _) = two_rule_world();
        let ghost_a = db.intern("ghost_a");
        let ghost_b = db.intern("ghost_b");
        let target = db.rel_id("advisedBy").unwrap();
        train
            .pos
            .insert(0, Example::new(target, vec![ghost_a, ghost_b]));
        let bias = parse_bias(
            &db,
            target,
            "
pred student(T1)
pred professor(T3)
pred publication(T5, T1)
pred publication(T5, T3)
pred ta(T6, T1)
pred taughtBy(T6, T3)
pred advisedBy(T1, T3)
mode publication(-, +)
mode ta(-, +)
mode taughtBy(-, +)
mode ta(+, -)
mode taughtBy(+, -)
",
        )
        .unwrap();
        let cfg = LearnerConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 2000,
            },
            ..LearnerConfig::default()
        };
        let (def, stats) = Learner::new(cfg).learn(&db, &bias, &train);
        assert!(stats.rejected_clauses >= 1 || stats.uncovered_pos >= 1);
        assert!(!def.is_empty(), "the real examples are still learnable");
    }

    /// A rejected seed is given up, not covered: `uncovered_pos` counts
    /// every positive the final definition misses on the learner's engine.
    #[test]
    fn rejected_seeds_count_as_uncovered() {
        let (db, mut train, bias) = two_rule_world();
        // s1 co-authors only with f1 and f6 TAs nothing, so no clause over
        // their bottom clause separates (s1, f6) from the negatives.
        let target = db.rel_id("advisedBy").unwrap();
        let (s1, f6) = (db.lookup("s1").unwrap(), db.lookup("f6").unwrap());
        train.pos.insert(0, Example::new(target, vec![s1, f6]));
        let cfg = LearnerConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 2000,
            },
            min: MinCriterion {
                min_precision: 1.0,
                min_pos_covered: 1,
            },
            ..LearnerConfig::default()
        };
        let (def, stats) = Learner::new(cfg).learn(&db, &bias, &train);
        assert!(stats.rejected_clauses >= 1, "the seed (s1, f6) is rejected");
        let engine = CoverageEngine::for_learner(&db, &bias, &train, &cfg);
        let recount = (0..train.pos.len())
            .filter(|&i| !definition_covers_pos(&def, &engine, i))
            .count();
        assert!(
            recount >= 1,
            "(s1, f6) stays uncovered:\n{}",
            def.render(&db)
        );
        assert_eq!(stats.uncovered_pos, recount);
    }

    #[test]
    fn empty_training_set_returns_empty_definition() {
        let (db, _, bias) = two_rule_world();
        let train = TrainingSet::default();
        let (def, stats) = Learner::default().learn(&db, &bias, &train);
        assert!(def.is_empty());
        assert_eq!(stats.uncovered_pos, 0);
    }

    #[test]
    fn max_clauses_caps_definition() {
        let (db, train, bias) = two_rule_world();
        let cfg = LearnerConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 2000,
            },
            max_clauses: 1,
            ..LearnerConfig::default()
        };
        let (def, _) = Learner::new(cfg).learn(&db, &bias, &train);
        assert_eq!(def.len(), 1);
    }

    #[test]
    fn reduction_shrinks_clauses_without_changing_coverage() {
        let (db, train, bias) = two_rule_world();
        let base_cfg = LearnerConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 2000,
            },
            ..LearnerConfig::default()
        };
        let reduced_cfg = LearnerConfig {
            reduce_clauses: true,
            ..base_cfg
        };
        let (plain, _) = Learner::new(base_cfg).learn(&db, &bias, &train);
        let (p_pos, p_neg) = training_coverage(&plain, &db, &bias, &train, &base_cfg);
        let (reduced, _) = Learner::new(reduced_cfg).learn(&db, &bias, &train);
        let (r_pos, r_neg) = training_coverage(&reduced, &db, &bias, &train, &reduced_cfg);
        assert!(
            reduced.total_literals() < plain.total_literals(),
            "reduced {} vs plain {}:\n{}",
            reduced.total_literals(),
            plain.total_literals(),
            reduced.render(&db)
        );
        assert_eq!(p_pos, r_pos, "positive coverage unchanged");
        assert_eq!(p_neg, r_neg, "negative coverage unchanged");
    }

    #[test]
    fn progress_events_trace_the_covering_loop() {
        use obs::progress::{ProgressEvent, ProgressSink};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder(Mutex<Vec<ProgressEvent>>);
        impl ProgressSink for Recorder {
            fn on_event(&self, ev: &ProgressEvent) {
                self.0.lock().unwrap().push(ev.clone());
            }
        }

        let (db, train, bias) = two_rule_world();
        let cfg = LearnerConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Full,
                max_body_literals: 100_000,
                max_tuples: 2000,
            },
            ..LearnerConfig::default()
        };
        let rec = Recorder::default();
        let never = AtomicBool::new(false);
        let (def, stats) = Learner::new(cfg).learn_with_progress(&db, &bias, &train, &never, &rec);
        let events = rec.0.into_inner().unwrap();

        assert!(
            matches!(
                events[0],
                ProgressEvent::BcBuildFinished {
                    pos_examples: 8,
                    neg_examples: 8,
                    ..
                }
            ),
            "first event is the BC build: {:?}",
            events[0]
        );
        if let ProgressEvent::BcBuildFinished {
            ground_literals, ..
        } = events[0]
        {
            assert_eq!(ground_literals, stats.ground_literals);
        }
        match events.last().unwrap() {
            ProgressEvent::Finished {
                clauses,
                uncovered_pos,
                timed_out,
                cancelled,
                ..
            } => {
                assert_eq!(*clauses, def.len());
                assert_eq!(*uncovered_pos, stats.uncovered_pos);
                assert!(!timed_out && !cancelled);
            }
            other => panic!("last event must be Finished, got {other:?}"),
        }

        let count = |k: &str| events.iter().filter(|e| e.kind() == k).count();
        assert_eq!(
            count("iteration_started"),
            count("clause_searched"),
            "every iteration runs exactly one search"
        );
        assert_eq!(
            count("iteration_started"),
            count("clause_accepted") + count("clause_rejected"),
            "every iteration resolves to accept or reject"
        );
        assert_eq!(count("clause_accepted"), def.len());
        assert_eq!(count("clause_rejected"), stats.rejected_clauses);
        assert_eq!(count("finished"), 1);

        // Accepted-clause text matches the learned definition, in order.
        let accepted: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::ClauseAccepted { clause, .. } => Some(clause.as_str()),
                _ => None,
            })
            .collect();
        let rendered: Vec<String> = def.clauses.iter().map(|c| c.render(&db)).collect();
        assert_eq!(
            accepted,
            rendered.iter().map(|s| s.as_str()).collect::<Vec<_>>()
        );

        // Uncovered counts are monotonically consistent across iterations.
        let mut last_uncovered = train.pos.len();
        for e in &events {
            if let ProgressEvent::IterationStarted { uncovered_pos, .. } = e {
                assert!(*uncovered_pos <= last_uncovered);
                last_uncovered = *uncovered_pos;
            }
        }
    }

    #[test]
    fn cancelled_run_still_emits_finished() {
        use obs::progress::{ProgressEvent, ProgressSink};
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder(Mutex<Vec<ProgressEvent>>);
        impl ProgressSink for Recorder {
            fn on_event(&self, ev: &ProgressEvent) {
                self.0.lock().unwrap().push(ev.clone());
            }
        }

        let (db, train, bias) = two_rule_world();
        let rec = Recorder::default();
        let cancelled = AtomicBool::new(true);
        let (_, stats) =
            Learner::default().learn_with_progress(&db, &bias, &train, &cancelled, &rec);
        assert!(stats.cancelled);
        let events = rec.0.into_inner().unwrap();
        assert_eq!(events.len(), 1, "pre-cancelled run emits only Finished");
        assert!(matches!(
            events[0],
            ProgressEvent::Finished {
                cancelled: true,
                clauses: 0,
                ..
            }
        ));
    }

    #[test]
    fn learning_is_deterministic_for_fixed_seed() {
        let (db, train, bias) = two_rule_world();
        let cfg = LearnerConfig {
            bc: BcConfig {
                depth: 2,
                strategy: SamplingStrategy::Naive { per_selection: 5 },
                max_body_literals: 100_000,
                max_tuples: 2000,
            },
            seed: 99,
            ..LearnerConfig::default()
        };
        let (d1, _) = Learner::new(cfg).learn(&db, &bias, &train);
        let (d2, _) = Learner::new(cfg).learn(&db, &bias, &train);
        assert_eq!(d1, d2);
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::bias::parse::parse_bias;
    use crate::example::Example;
    use relstore::Database;

    /// The learner's time budget interrupts the covering loop and reports it.
    #[test]
    fn time_budget_is_honoured() {
        let mut db = Database::new();
        let r = db.add_relation("r", &["a", "b"]);
        let target = db.add_relation("t", &["a"]);
        let mut pos = Vec::new();
        for i in 0..30 {
            db.insert(r, &[&format!("x{i}"), &format!("x{}", (i + 1) % 30)]);
            let c = db.lookup(&format!("x{i}")).unwrap();
            pos.push(Example::new(target, vec![c]));
        }
        let bias = parse_bias(
            &db,
            target,
            "
pred r(TA, TA)
pred t(TA)
mode r(+, -)
mode r(-, +)
",
        )
        .unwrap();
        let cfg = LearnerConfig {
            time_budget: Some(Duration::from_nanos(1)),
            ..LearnerConfig::default()
        };
        let (_, stats) = Learner::new(cfg).learn(&db, &bias, &TrainingSet::new(pos, vec![]));
        assert!(stats.timed_out);
    }

    /// A pre-set cancellation flag stops the run before any work happens;
    /// an unset flag leaves results identical to plain `learn`.
    #[test]
    fn cancellation_flag_is_honoured() {
        use std::sync::atomic::AtomicBool;

        let mut db = Database::new();
        let r = db.add_relation("r", &["a", "b"]);
        let target = db.add_relation("t", &["a"]);
        let mut pos = Vec::new();
        for i in 0..10 {
            db.insert(r, &[&format!("x{i}"), &format!("x{}", (i + 1) % 10)]);
            let c = db.lookup(&format!("x{i}")).unwrap();
            pos.push(Example::new(target, vec![c]));
        }
        let bias = parse_bias(
            &db,
            target,
            "
pred r(TA, TA)
pred t(TA)
mode r(+, -)
mode r(-, +)
",
        )
        .unwrap();
        let train = TrainingSet::new(pos, vec![]);
        let learner = Learner::default();

        let cancelled = AtomicBool::new(true);
        let (def, stats) = learner.learn_with_progress(&db, &bias, &train, &cancelled, &NullSink);
        assert!(stats.cancelled);
        assert!(def.is_empty());
        assert_eq!(stats.uncovered_pos, train.pos.len());

        let live = AtomicBool::new(false);
        let (def_live, stats_live) =
            learner.learn_with_progress(&db, &bias, &train, &live, &NullSink);
        let (def_plain, _) = learner.learn(&db, &bias, &train);
        assert!(!stats_live.cancelled);
        assert_eq!(def_live, def_plain, "unset flag must not change results");
    }
}
