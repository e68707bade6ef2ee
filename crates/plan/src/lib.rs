//! Compiled evaluation plans for learned Horn definitions — the serve-side
//! half of the paper's learn-once/serve-fast split.
//!
//! The interpreter in [`autobias::query`] re-derives everything per tuple:
//! which literal to try next, which index to probe, whether each argument is
//! bound — and allocates candidate lists at every backtracking node. That is
//! the right trade-off during learning, where clauses are transient. A model
//! that reached the registry is different: it will be evaluated millions of
//! times against a frozen, fully indexed database, and the static verifier
//! (`analyze`, findings AB101–AB110) has already guaranteed the structural
//! invariants — head-connectedness and range restriction — that make a
//! one-shot compilation sound without defensive re-checks.
//!
//! [`compile_definition`] turns each clause into a [`CompiledClause`]: an
//! ordered pipeline of index-probe steps (literal order chosen greedily by
//! estimated selectivity from relation cardinalities), with every
//! bound/free argument decision resolved
//! at compile time into a flat op list. Execution is a backjumping walk
//! over `relstore`'s posting lists that allocates nothing per tuple — see
//! [`exec`].
//!
//! Every well-formed clause compiles, whatever its length or number of
//! variables: the executor sizes its buffers to the plan. Compilation
//! *declines* (rather than fails) only on a malformed clause — arities out
//! of sync with the catalog — or a plan that fails verification, and counts
//! it on [`PLAN_FALLBACK`]. [`verify`] statically proves each emitted plan
//! equivalent to its source clause at every compile boundary, checking the
//! compiler's step→literal certificate in one pass; a plan that fails the
//! proof is declined, never executed, and counted on
//! [`PLAN_VERIFY_REJECTS`]. The serve registry loads only fully compiled
//! models, so `/predict` has one engine, and even a compiler bug can make a
//! model unservable but never wrong. The differential suite in
//! `tests/compiled_vs_interpreted.rs` holds compiled verdicts equal to the
//! interpreter's ([`autobias::query`], the reference semantics) on
//! randomized worlds, long clauses included, wherever neither engine runs
//! out of its node budget.
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod compile;
pub mod exec;
pub mod explain;
pub mod stats;
pub mod verify;

pub use compile::{
    compile_clause, compile_definition, CompileConfig, CompiledClause, CompiledDefinition, Declined,
};
pub use exec::ExecScratch;
pub use explain::{explain, explain_text, Analyzed, EXPLAIN_VERSION};
pub use stats::{
    q_error, step_q_errors, BatchTally, ClauseTally, PlanStats, StepTally, TallyTotals,
    VariantTally,
};
pub use verify::{verify_clause, verify_definition};

use obs::metrics::Counter;
use std::sync::Once;

/// Clauses compiled into evaluation plans at model load.
pub static PLAN_COMPILED: Counter = Counter::new(
    "autobias_plan_compiled_total",
    "Clauses compiled into index-probe evaluation plans at model load.",
);

/// Clauses the compiler declined (malformed, or rejected by [`verify`]).
pub static PLAN_FALLBACK: Counter = Counter::new(
    "autobias_plan_fallback_total",
    "Clauses the plan compiler declined: arity mismatches and verifier rejections.",
);

/// Plans rejected by the soundness verifier ([`verify`]) at a compile
/// boundary; also counted on [`PLAN_FALLBACK`]. Nonzero means a compiler
/// bug was caught before it could serve a wrong answer.
pub static PLAN_VERIFY_REJECTS: Counter = Counter::new(
    "autobias_plan_verify_rejects_total",
    "Compiled plans rejected by the soundness verifier and never executed.",
);

/// Registers the plan counters with the [`obs::metrics`] registry so a
/// `/metrics` scrape sees them even before the first model loads. Cheap and
/// idempotent.
pub fn register() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        obs::metrics::register(&PLAN_COMPILED);
        obs::metrics::register(&PLAN_FALLBACK);
        obs::metrics::register(&PLAN_VERIFY_REJECTS);
    });
}
