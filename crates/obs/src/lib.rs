//! # obs — the workspace's observability layer
//!
//! Zero-dependency tracing, profiling, metrics, and logging shared by every
//! crate in the pipeline. The paper's claims are claims about *where time
//! goes* (bottom-clause construction under different sampling regimes,
//! θ-subsumption vs. SQL coverage testing); this crate is how the
//! reproduction measures that instead of guessing.
//!
//! All pieces are built on `std` only:
//!
//! - [`mod@span`] — hierarchical RAII spans. A span is
//!   `let _sp = obs::span!("bc.build");`; guards record wall-clock on drop
//!   and can carry numeric notes (`sp.note("ground", n)`). The global
//!   recorder has two modes: [`Mode::Off`] (the default — entering a span
//!   costs **one relaxed atomic load**, nothing is recorded) and
//!   [`Mode::Summary`] (process-wide per-phase aggregates).
//! - [`mod@trace`] — context-carried trace trees, the one per-span record.
//!   A [`trace::TraceCtx`] installed on a thread gives every span entered
//!   there — and on the worker threads it hands the context to
//!   ([`trace::handoff`]) — a `span_id`/`parent_id` inside one request- or
//!   run-scoped tree, with W3C `traceparent` propagation
//!   ([`trace::parse_traceparent`]); the serving layer tail-samples
//!   finished request trees and keeps every learn job's. The off fast path
//!   is shared with the global recorder: the mode and the "any trace
//!   installed" flag live in one state byte, so a span still costs one
//!   relaxed load when both are off.
//! - [`chrome`] — exports spans as chrome-trace JSON, loadable in
//!   `about://tracing` or [Perfetto](https://ui.perfetto.dev), one
//!   [`json::Json`] event at a time.
//! - [`summary`] — flat process-wide per-phase statistics (count, total,
//!   mean, max, and fixed latency buckets): the raw data the serving layer
//!   renders as Prometheus histograms.
//! - [`metrics`] — a registry of named monotonic [`metrics::Counter`]s.
//!   Bumping a counter is a single relaxed `fetch_add` whether or not
//!   anything ever reads it; exporters iterate the registry so every
//!   counter in the process shows up in one scrape.
//! - [`log`] — a leveled logger (`error!`/`warn!`/`info!`/`debug!`)
//!   configured by the `AUTOBIAS_LOG` environment variable or
//!   [`log::set_level`], replacing ad-hoc `eprintln!` calls.
//! - [`progress`] — the structured [`progress::ProgressEvent`] channel a
//!   learning run emits (iteration started, clause accepted, …) and the
//!   [`progress::ProgressSink`] trait its consumers implement.
//! - [`report`] — one learn run's record: the builder keeps the run's
//!   progress events and owns its trace tree, and folds them and the
//!   counter deltas into a versioned JSON [`report::RunReport`] — the
//!   artifact behind `autobias learn --report-out`/`--profile`/`--trace-out`,
//!   a server job's status page, event stream and the server's run ledger.
//! - [`json`] — the workspace's one JSON value: parse and render. Every
//!   JSON document the workspace emits (run reports, progress events,
//!   diagnostics, traces, server bodies) is a [`json::Json`] rendered by
//!   its one serializer, and the perf gates read them back with its parser.
//!
//! ## Span naming convention
//!
//! Dotted lowercase names, coarse-grained (a span per pipeline stage or per
//! example, never per tuple or per subsumption node). The pipeline's stable
//! names, asserted by CI's analyze-smoke job on a traced learn:
//!
//! | span                  | where                                        |
//! |-----------------------|----------------------------------------------|
//! | `bias.induce`         | whole automatic bias induction               |
//! | `bias.ind_discovery`  | unary IND discovery                          |
//! | `bias.type_graph`     | type-graph construction                      |
//! | `learn`               | one `Learner::learn` call                    |
//! | `learn.bc_build`      | ground-BC construction for a training set    |
//! | `bc.build`            | one ground bottom clause (label = sampling)  |
//! | `bc.variablize`       | one seed clause derived from a ground clause |
//! | `learn.clause_search` | one beam search (`LearnClause`)              |
//! | `learn.generate`      | armg generation of one beam iteration        |
//! | `learn.armg`          | one armg call (notes: step and probe counts) |
//! | `learn.canon`         | canonical-form dedup of one beam iteration   |
//! | `learn.score`         | candidate scoring of one beam iteration      |
//! | `coverage.theta`      | θ-subsumption coverage batch                 |
//! | `coverage.spj`        | direct SPJ evaluation of a definition        |
//! | `analyze.check`       | one static-verifier pass (bias or theory)    |
//!
//! ## Overhead budget
//!
//! With the recorder [`Mode::Off`] and no trace installed a span is one
//! relaxed load and counters are one relaxed `fetch_add` — the pre-existing
//! hot-path cost. `Summary` adds two `Instant` reads and one short
//! mutex-protected hash-map update per span; an installed trace context
//! pushes one span into its tree, capped at [`trace::MAX_TRACE_SPANS`] per
//! request and [`trace::MAX_RUN_SPANS`] per learn run (drops beyond the cap
//! are counted, never silent). The `obs_overhead` bench in `crates/bench`
//! compares a full learning run untraced, in `Summary`, and under a run's
//! trace context.
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod chrome;
pub mod json;
pub mod log;
pub mod metrics;
pub mod progress;
pub mod report;
pub mod span;
pub mod summary;
pub mod trace;

pub use chrome::export_chrome_trace;
pub use progress::{NullSink, ProgressEvent, ProgressSink};
pub use report::{PlanReport, ReportBuilder, RunReport};
pub use span::{mode, reset, set_mode, Mode, SpanGuard};
pub use summary::{phase_snapshot, PhaseStat, PHASE_BUCKETS};
pub use trace::{format_traceparent, parse_traceparent, TraceCtx, TraceTree};
