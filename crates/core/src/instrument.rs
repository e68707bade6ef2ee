//! Process-wide instrumentation counters, built on [`obs::metrics`] so the
//! core's counters, the serving layer's, and any future crate's all live in
//! one registry and one `/metrics` scrape.
//!
//! Hot paths bump with `COUNTER.bump()` — a single relaxed `fetch_add`, one
//! uncontended cache-line write, negligible next to a subsumption search or
//! an SPJ query. Registration into the global registry happens lazily via
//! [`register`] (a `std::sync::Once`), never per bump.

use obs::metrics::Counter;
use std::sync::Once;

/// θ-subsumption tests started ([`crate::subsume::theta_subsumes`]).
pub static SUBSUMPTION_TESTS: Counter = Counter::new(
    "autobias_core_subsumption_tests_total",
    "Theta-subsumption tests started.",
);

/// Direct SPJ coverage queries started ([`crate::query::clause_covers`]).
pub static COVERAGE_QUERIES: Counter = Counter::new(
    "autobias_core_coverage_queries_total",
    "Direct SPJ coverage queries started.",
);

/// Ground bottom clauses constructed ([`crate::bottom::build_ground_clause`]).
pub static BOTTOM_CLAUSES_BUILT: Counter = Counter::new(
    "autobias_core_bottom_clauses_total",
    "Bottom clauses constructed.",
);

/// Ground bottom clauses variable-ized ([`crate::bottom::variablize`]): one
/// per covering iteration of a learn run, none during evaluation.
pub static BC_VARIABLIZED: Counter = Counter::new(
    "autobias_core_bc_variablized_total",
    "Ground bottom clauses variable-ized into a clause-search seed.",
);

/// Draws attempted by the Olken accept–reject semijoin walk (paper §4.2.3,
/// [`crate::bottom`] `Random` sampling).
pub static BC_WALK_DRAWS: Counter = Counter::new(
    "autobias_core_bc_walk_draws_total",
    "Accept-reject semijoin walk draws attempted.",
);

/// Draws accepted by the Olken accept–reject semijoin walk.
pub static BC_WALK_ACCEPTED: Counter = Counter::new(
    "autobias_core_bc_walk_accepted_total",
    "Accept-reject semijoin walk draws accepted.",
);

/// Tuple ids bottom-clause construction handed to collection after
/// sampling ([`crate::bottom::build_ground_clause`]), counting an id once
/// per probe that selected it. Against [`BC_TUPLES_COLLECTED`] it gives the
/// share of selections that were already collected.
pub static BC_TUPLES_SELECTED: Counter = Counter::new(
    "autobias_core_bc_tuples_selected_total",
    "Tuple ids handed to bottom-clause collection after sampling.",
);

/// Distinct tuples bottom-clause construction kept: the ground facts built.
pub static BC_TUPLES_COLLECTED: Counter = Counter::new(
    "autobias_core_bc_tuples_collected_total",
    "New tuples kept by bottom-clause collection.",
);

/// Candidate clauses produced by armg during beam search
/// ([`crate::generalize::learn_clause`]).
pub static CANDIDATES_GENERATED: Counter = Counter::new(
    "autobias_core_candidates_generated_total",
    "Candidate clauses generated by armg during beam search.",
);

/// Candidates skipped by the positive-coverage upper bound before any
/// negative scoring ([`crate::generalize::learn_clause`]).
pub static CANDIDATES_PRUNED: Counter = Counter::new(
    "autobias_core_candidates_pruned_total",
    "Candidate clauses pruned by the positive-coverage bound before negative scoring.",
);

/// Clauses accepted into a definition by the covering loop.
pub static CLAUSES_ACCEPTED: Counter = Counter::new(
    "autobias_core_clauses_accepted_total",
    "Clauses accepted into a definition by sequential covering.",
);

/// Clauses rejected by the covering loop (below the noise threshold).
pub static CLAUSES_REJECTED: Counter = Counter::new(
    "autobias_core_clauses_rejected_total",
    "Clauses rejected by sequential covering as below the precision threshold.",
);

/// Negative coverage tests skipped by the monotone cutoff in
/// [`crate::coverage::CoverageEngine::count_neg_budget`].
pub static NEG_TESTS_SKIPPED: Counter = Counter::new(
    "autobias_core_neg_tests_skipped_total",
    "Negative coverage tests skipped by the monotone counting cutoff.",
);

/// armg candidates dropped as α-equivalent duplicates of an already-kept
/// candidate (canonical-form dedup in [`crate::generalize::learn_clause`]).
pub static CANDIDATES_DEDUPED: Counter = Counter::new(
    "autobias_core_candidates_deduped_total",
    "Candidate clauses dropped as alpha-equivalent duplicates before scoring.",
);

/// Domain words processed by the bitset subsumption engine's forward
/// checking ([`crate::subsume`]): one unit per `u64` word ANDed against a
/// candidate mask, i.e. per 64 candidate ground literals filtered.
pub static SUBSUME_DOMAIN_WORDS: Counter = Counter::new(
    "autobias_core_subsume_domain_words_total",
    "u64 domain words processed by bitset subsumption forward checking.",
);

/// Extra connected components produced by subsumption body decomposition
/// ([`crate::subsume`]): a test whose body splits into `k` independently
/// solved components adds `k - 1`.
pub static SUBSUME_COMPONENTS_SPLIT: Counter = Counter::new(
    "autobias_core_subsume_components_split_total",
    "Extra connected components split off by subsumption body decomposition.",
);

/// Body literals θ-subsumption folded out of the search before it ran
/// ([`crate::subsume`]): literals an earlier literal of the same relation
/// covers through private variables, summed over every searched test.
pub static SUBSUME_LITERALS_FOLDED: Counter = Counter::new(
    "autobias_core_subsume_literals_folded_total",
    "Body literals folded out of theta-subsumption searches as covered through private variables.",
);

/// Beam candidates pruned by the failure-constraint store before any
/// coverage test ([`crate::generalize::ConstraintStore`]).
pub static CANDIDATES_PRUNED_BY_CONSTRAINT: Counter = Counter::new(
    "autobias_core_candidates_pruned_by_constraint_total",
    "Beam candidates pruned by harvested failure constraints before any coverage test.",
);

/// θ-subsumption tests that ran out of their node budget
/// (`SubsumeConfig::node_limit`) and therefore answered "not covered"
/// without a proof ([`crate::subsume`]). Budgets are one-sided, so every
/// possibly wrong answer is one of these.
pub static SUBSUME_CUTOFFS: Counter = Counter::new(
    "autobias_core_subsume_cutoffs_total",
    "Theta-subsumption tests cut off by the node budget (answered not covered).",
);

/// Individualization trials canonicalization considered
/// ([`crate::canon::canonical_form_status`]): one per member of each tied
/// color class it split, skipped twins included, within the trial cap.
pub static CANON_TRIALS: Counter = Counter::new(
    "autobias_core_canon_trials_total",
    "Individualization trials considered by canonicalization, skipped ones included.",
);

/// Individualization trials skipped because the member is a twin of an
/// earlier one: swapping the two maps the clause onto itself, so the trial
/// would repeat the earlier one's ([`crate::canon`]).
pub static CANON_TRIALS_SKIPPED: Counter = Counter::new(
    "autobias_core_canon_trials_skipped_total",
    "Individualization trials skipped as swap-symmetric twins of an earlier trial.",
);

/// Every counter this crate owns, in registration order.
pub const ALL: [&Counter; 21] = [
    &SUBSUMPTION_TESTS,
    &COVERAGE_QUERIES,
    &BOTTOM_CLAUSES_BUILT,
    &BC_WALK_DRAWS,
    &BC_WALK_ACCEPTED,
    &CANDIDATES_GENERATED,
    &CANDIDATES_PRUNED,
    &CLAUSES_ACCEPTED,
    &CLAUSES_REJECTED,
    &NEG_TESTS_SKIPPED,
    &CANDIDATES_DEDUPED,
    &SUBSUME_DOMAIN_WORDS,
    &SUBSUME_COMPONENTS_SPLIT,
    &CANDIDATES_PRUNED_BY_CONSTRAINT,
    &BC_VARIABLIZED,
    &SUBSUME_CUTOFFS,
    &BC_TUPLES_SELECTED,
    &BC_TUPLES_COLLECTED,
    &SUBSUME_LITERALS_FOLDED,
    &CANON_TRIALS,
    &CANON_TRIALS_SKIPPED,
];

/// Registers all core counters with the [`obs::metrics`] registry. Cheap
/// and idempotent; called from learner entry points and [`snapshot`] so any
/// exporter that iterates the registry sees the core counters.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        for c in ALL {
            obs::metrics::register(c);
        }
    });
}

/// A point-in-time reading of the original three core counters (kept for
/// callers that predate the registry; new counters are reached through
/// [`obs::metrics::registered`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// θ-subsumption tests started since process start.
    pub subsumption_tests: u64,
    /// Direct coverage queries started since process start.
    pub coverage_queries: u64,
    /// Bottom clauses constructed since process start.
    pub bottom_clauses_built: u64,
}

/// Reads the legacy counters (relaxed; values are monotonic but not a
/// consistent cross-counter snapshot). Also registers everything.
pub fn snapshot() -> CoreCounters {
    register();
    CoreCounters {
        subsumption_tests: SUBSUMPTION_TESTS.get(),
        coverage_queries: COVERAGE_QUERIES.get(),
        bottom_clauses_built: BOTTOM_CLAUSES_BUILT.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serving subsystem shares one `Database` and the learned
    /// definitions across request threads behind `Arc`s; this pins the
    /// Send + Sync bounds so a non-thread-safe field sneaking into these
    /// types becomes a compile error here rather than a trait-bound blowup
    /// in `crates/serve`.
    #[test]
    fn core_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<relstore::Database>();
        assert_send_sync::<crate::clause::Definition>();
        assert_send_sync::<crate::clause::Clause>();
        assert_send_sync::<crate::bias::LanguageBias>();
        assert_send_sync::<crate::learn::Learner>();
        assert_send_sync::<crate::learn::LearnStats>();
        assert_send_sync::<crate::example::TrainingSet>();
        assert_send_sync::<crate::query::QueryConfig>();
    }

    #[test]
    fn counters_are_monotonic() {
        let before = snapshot();
        SUBSUMPTION_TESTS.bump();
        COVERAGE_QUERIES.bump();
        BOTTOM_CLAUSES_BUILT.bump();
        let after = snapshot();
        assert!(after.subsumption_tests > before.subsumption_tests);
        assert!(after.coverage_queries > before.coverage_queries);
        assert!(after.bottom_clauses_built > before.bottom_clauses_built);
    }

    #[test]
    fn register_exposes_all_core_counters() {
        register();
        let names: Vec<_> = obs::metrics::registered()
            .iter()
            .map(|c| c.name())
            .collect();
        for c in ALL {
            assert!(names.contains(&c.name()), "missing {}", c.name());
        }
    }
}
