//! Runtime plan statistics: per-operator tallies accumulated during
//! execution and their lock-free per-model aggregates.
//!
//! Two representations, same shape as the compiled definition they observe:
//!
//! - [`BatchTally`] — plain `u64` counters, owned by one predict batch.
//!   The executor bumps these in its hot loop (no atomics, no branches on
//!   the untallied path — see the `Tally` trait in `exec`), and the batch
//!   flushes them once at the end.
//! - [`PlanStats`] — the same counters as relaxed atomics, living on the
//!   model registry entry. [`PlanStats::absorb`] folds a finished batch in
//!   with one `fetch_add` per touched counter; readers ([`PlanStats::snapshot`])
//!   get a [`BatchTally`] back without stopping writers (Prometheus
//!   semantics: no consistent cut, monotonic per counter).
//!
//! The split is what keeps the stats-off path free: a server that disables
//! plan stats never constructs a tally and pays exactly one relaxed atomic
//! load per batch to find that out. With stats on, the hot loop pays plain
//! register increments and the batch pays one bounded flush.
//!
//! The estimate-accuracy measure derived from these counters is the
//! *q-error* of a step: `max(est/actual, actual/est)` where `est` is the
//! compile-time candidate estimate ([`Step::est_cost`](crate::compile)) and
//! `actual` is the mean observed candidate-set size per entry. 1.0 is a
//! perfect estimate; the factor is symmetric in over- and under-estimation.

use crate::compile::CompiledDefinition;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-step counters for one batch (or one snapshot).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepTally {
    /// Times the executor entered this step (computed its candidate set).
    pub entries: u64,
    /// Total candidates in the posting list / scan range across entries.
    pub candidates: u64,
    /// Candidates that passed every residual op (rows emitted downstream).
    pub emitted: u64,
    /// Candidates rejected by a residual check op.
    pub rejected: u64,
}

impl StepTally {
    /// Mean observed candidate-set size per entry; `None` before any entry.
    pub fn avg_candidates(&self) -> Option<f64> {
        (self.entries > 0).then(|| self.candidates as f64 / self.entries as f64)
    }
}

/// Per-variant counters: how often the runtime selector picked this
/// ordering, and its per-step tallies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VariantTally {
    /// Evaluations that ran under this ordering.
    pub selected: u64,
    /// One tally per step, in step order.
    pub steps: Vec<StepTally>,
}

/// Per-clause counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClauseTally {
    /// Evaluations of this clause (including head-op rejections).
    pub evals: u64,
    /// Evaluations that answered `true`.
    pub matches: u64,
    /// Backtracks (a step ran dry and the walk retreated one depth).
    pub backtracks: u64,
    /// Evaluations refuted by the node budget.
    pub node_limit_hits: u64,
    /// One tally per kept ordering, in variant order.
    pub variants: Vec<VariantTally>,
}

/// Counters for every compiled clause of a definition — the unit the
/// executor writes and [`PlanStats`] aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchTally {
    /// One tally per compiled clause, in plan order
    /// ([`CompiledDefinition::plans`]).
    pub clauses: Vec<ClauseTally>,
}

impl BatchTally {
    /// A zeroed tally shaped like `def` (one slot per clause, variant, and
    /// step). Allocated once per batch, reused across the batch's tuples.
    pub fn for_definition(def: &CompiledDefinition) -> Self {
        let clauses = def
            .plans()
            .iter()
            .map(|p| ClauseTally {
                variants: (0..p.num_variants())
                    .map(|vi| VariantTally {
                        selected: 0,
                        steps: vec![StepTally::default(); p.variant_len(vi)],
                    })
                    .collect(),
                ..ClauseTally::default()
            })
            .collect();
        Self { clauses }
    }

    /// Sum of `selected` over variants of multi-variant clauses — the
    /// evaluations where runtime variant selection actually chose between
    /// orderings.
    pub fn multi_variant_selections(&self) -> u64 {
        self.clauses
            .iter()
            .filter(|c| c.variants.len() > 1)
            .map(|c| c.variants.iter().map(|v| v.selected).sum::<u64>())
            .sum()
    }

    /// Totals across every clause, variant, and step of the tally — the
    /// batch-level summary surfaced by the serve layer (slow ring, access
    /// log).
    pub fn totals(&self) -> TallyTotals {
        let mut t = TallyTotals::default();
        for ct in &self.clauses {
            t.backtracks += ct.backtracks;
            t.node_limit_hits += ct.node_limit_hits;
            for vt in &ct.variants {
                for st in &vt.steps {
                    t.entries += st.entries;
                    t.candidates += st.candidates;
                    t.rejected += st.rejected;
                }
            }
        }
        t
    }
}

/// Whole-batch totals from [`BatchTally::totals`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TallyTotals {
    /// Step entries across all clauses, variants, and steps.
    pub entries: u64,
    /// Candidates enumerated across all steps.
    pub candidates: u64,
    /// Candidates rejected by residual check ops.
    pub rejected: u64,
    /// Backtracks across all clauses.
    pub backtracks: u64,
    /// Evaluations refuted by the node budget.
    pub node_limit_hits: u64,
}

/// The symmetric estimate-accuracy factor: `max(est/actual, actual/est)`,
/// with both sides clamped to ≥ 1 so empty posting lists (actual 0) and
/// constant-folded steps (est 0) measure against 1 instead of dividing by
/// zero.
pub fn q_error(est: f64, actual: f64) -> f64 {
    let est = est.max(1.0);
    let actual = actual.max(1.0);
    (est / actual).max(actual / est)
}

#[derive(Debug, Default)]
struct StepAtoms {
    entries: AtomicU64,
    candidates: AtomicU64,
    emitted: AtomicU64,
    rejected: AtomicU64,
}

#[derive(Debug)]
struct VariantAtoms {
    selected: AtomicU64,
    steps: Box<[StepAtoms]>,
}

#[derive(Debug)]
struct ClauseAtoms {
    evals: AtomicU64,
    matches: AtomicU64,
    backtracks: AtomicU64,
    node_limit_hits: AtomicU64,
    variants: Box<[VariantAtoms]>,
}

/// Lock-free per-model runtime statistics, shaped like the compiled
/// definition they observe. Lives on the registry entry (inside its `Arc`),
/// so rotation drops the stats with the model — per-model series can never
/// outlive the model that produced them.
#[derive(Debug, Default)]
pub struct PlanStats {
    batches: AtomicU64,
    clauses: Box<[ClauseAtoms]>,
}

impl PlanStats {
    /// Zeroed stats shaped like `def`.
    pub fn for_definition(def: &CompiledDefinition) -> Self {
        let clauses = def
            .plans()
            .iter()
            .map(|p| ClauseAtoms {
                evals: AtomicU64::new(0),
                matches: AtomicU64::new(0),
                backtracks: AtomicU64::new(0),
                node_limit_hits: AtomicU64::new(0),
                variants: (0..p.num_variants())
                    .map(|vi| VariantAtoms {
                        selected: AtomicU64::new(0),
                        steps: (0..p.variant_len(vi))
                            .map(|_| StepAtoms::default())
                            .collect(),
                    })
                    .collect(),
            })
            .collect();
        Self {
            batches: AtomicU64::new(0),
            clauses,
        }
    }

    /// Batches absorbed so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Folds one finished batch in. Zero counters are skipped, so an
    /// all-negative batch that never entered a clause costs one `fetch_add`.
    pub fn absorb(&self, tally: &BatchTally) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        for (ca, ct) in self.clauses.iter().zip(&tally.clauses) {
            add(&ca.evals, ct.evals);
            add(&ca.matches, ct.matches);
            add(&ca.backtracks, ct.backtracks);
            add(&ca.node_limit_hits, ct.node_limit_hits);
            for (va, vt) in ca.variants.iter().zip(&ct.variants) {
                add(&va.selected, vt.selected);
                for (sa, st) in va.steps.iter().zip(&vt.steps) {
                    add(&sa.entries, st.entries);
                    add(&sa.candidates, st.candidates);
                    add(&sa.emitted, st.emitted);
                    add(&sa.rejected, st.rejected);
                }
            }
        }
    }

    /// A point-in-time copy of the aggregates (relaxed reads, no snapshot
    /// consistency — each counter is individually monotonic).
    pub fn snapshot(&self) -> BatchTally {
        BatchTally {
            clauses: self
                .clauses
                .iter()
                .map(|ca| ClauseTally {
                    evals: ca.evals.load(Ordering::Relaxed),
                    matches: ca.matches.load(Ordering::Relaxed),
                    backtracks: ca.backtracks.load(Ordering::Relaxed),
                    node_limit_hits: ca.node_limit_hits.load(Ordering::Relaxed),
                    variants: ca
                        .variants
                        .iter()
                        .map(|va| VariantTally {
                            selected: va.selected.load(Ordering::Relaxed),
                            steps: va
                                .steps
                                .iter()
                                .map(|sa| StepTally {
                                    entries: sa.entries.load(Ordering::Relaxed),
                                    candidates: sa.candidates.load(Ordering::Relaxed),
                                    emitted: sa.emitted.load(Ordering::Relaxed),
                                    rejected: sa.rejected.load(Ordering::Relaxed),
                                })
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }
}

fn add(a: &AtomicU64, n: u64) {
    if n > 0 {
        a.fetch_add(n, Ordering::Relaxed);
    }
}

/// All per-step q-errors observable in `tally` against the compile-time
/// estimates of `def`: one entry per step that was entered at least once,
/// over every clause and variant. The serving layer feeds these into the
/// `autobias_plan_estimate_qerror` histogram.
pub fn step_q_errors(def: &CompiledDefinition, tally: &BatchTally) -> Vec<f64> {
    let mut out = Vec::new();
    for (plan, ct) in def.plans().iter().zip(&tally.clauses) {
        for (vi, vt) in ct.variants.iter().enumerate() {
            for (si, st) in vt.steps.iter().enumerate() {
                if let Some(actual) = st.avg_candidates() {
                    out.push(q_error(plan.step_est(vi, si) as f64, actual));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_is_symmetric_and_clamped() {
        assert_eq!(q_error(10.0, 10.0), 1.0);
        assert_eq!(q_error(20.0, 10.0), 2.0);
        assert_eq!(q_error(10.0, 20.0), 2.0);
        // Zeros clamp to 1 instead of dividing by zero.
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(8.0, 0.0), 8.0);
        assert_eq!(q_error(0.0, 8.0), 8.0);
    }

    #[test]
    fn absorb_and_snapshot_round_trip() {
        let mut db = relstore::fixtures::uw_fragment();
        let target = db.add_relation("advisedBy", &["stud", "prof"]);
        use autobias::clause::{Clause, Definition, Literal, Term, VarId};
        let publ = db.rel_id("publication").unwrap();
        let v = |n| Term::Var(VarId(n));
        let mut def = Definition::new();
        def.clauses.push(Clause::new(
            Literal::new(target, vec![v(0), v(1)]),
            vec![
                Literal::new(publ, vec![v(2), v(0)]),
                Literal::new(publ, vec![v(2), v(1)]),
            ],
        ));
        let compiled = crate::compile_definition(&db, &def, &crate::CompileConfig::default());
        assert_eq!(compiled.num_compiled(), 1);

        let stats = PlanStats::for_definition(&compiled);
        let mut tally = BatchTally::for_definition(&compiled);
        tally.clauses[0].evals = 3;
        tally.clauses[0].matches = 1;
        tally.clauses[0].variants[0].selected = 3;
        tally.clauses[0].variants[0].steps[0].entries = 3;
        tally.clauses[0].variants[0].steps[0].candidates = 12;
        stats.absorb(&tally);
        stats.absorb(&tally);
        assert_eq!(stats.batches(), 2);
        let snap = stats.snapshot();
        assert_eq!(snap.clauses[0].evals, 6);
        assert_eq!(snap.clauses[0].variants[0].steps[0].candidates, 24);
        assert_eq!(
            snap.clauses[0].variants[0].steps[0].avg_candidates(),
            Some(4.0)
        );
        assert!(!step_q_errors(&compiled, &snap).is_empty());
    }
}
