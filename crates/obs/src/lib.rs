//! # obs — the workspace's observability layer
//!
//! Zero-dependency tracing, profiling, metrics, and logging shared by every
//! crate in the pipeline. The paper's claims are claims about *where time
//! goes* (bottom-clause construction under different sampling regimes,
//! θ-subsumption vs. SQL coverage testing); this crate is how the
//! reproduction measures that instead of guessing.
//!
//! Four pieces, all built on `std` only:
//!
//! - [`mod@span`] — hierarchical RAII spans over a process-wide recorder. A
//!   span is `let _sp = obs::span!("bc.build");`; guards nest via a
//!   thread-local depth, record wall-clock on drop, and can carry numeric
//!   notes (`sp.note("ground", n)`). Three recorder modes:
//!   [`Mode::Off`] (the default — entering a span costs **one relaxed
//!   atomic load**, nothing is recorded), [`Mode::Summary`] (per-phase
//!   aggregates only), and [`Mode::Full`] (aggregates plus a bounded event
//!   buffer for trace export).
//! - [`mod@trace`] — context-carried trace trees. A [`trace::TraceCtx`]
//!   installed on a thread gives every span entered there a
//!   `span_id`/`parent_id` inside one request- or job-scoped tree, with W3C
//!   `traceparent` propagation ([`trace::parse_traceparent`]); the serving
//!   layer tail-samples finished trees. The off fast path is shared with
//!   the global recorder: mode and the "any trace installed" flag live in
//!   one state byte, so a span still costs one relaxed load when both are
//!   off.
//! - [`chrome`] — exports the recorded events as chrome-trace JSON,
//!   loadable in `about://tracing` or [Perfetto](https://ui.perfetto.dev).
//! - [`summary`] — flat per-phase statistics (count, total, mean, max, and
//!   fixed latency buckets) with a human summary table and the raw data the
//!   serving layer renders as Prometheus histograms.
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
//! - [`report`] — folds a run's progress events plus the span summary and
//!   counter registry into a versioned JSON [`report::RunReport`] — the
//!   flight-recorder artifact behind `autobias learn --report-out` and the
//!   server's run ledger.
//! - [`json`] — a minimal `std`-only JSON parser for reading back the JSON
//!   this workspace writes (run reports, bench results, traces).
//!
//! ## Span naming convention
//!
//! Dotted lowercase names, coarse-grained (a span per pipeline stage or per
//! example, never per tuple or per subsumption node). The pipeline's stable
//! names, asserted by CI's trace-smoke step:
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
//! With the recorder [`Mode::Off`] a span is one relaxed load and counters
//! are one relaxed `fetch_add` — the pre-existing hot-path cost. `Summary`
//! adds two `Instant` reads and one short mutex-protected hash-map update
//! per span; `Full` additionally pushes one event into a buffer capped at
//! [`span::MAX_EVENTS`] (drops beyond the cap are counted, never silent).
//! The `obs_overhead` bench in `crates/bench` compares a full learning run
//! under all three modes.
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
pub use span::{enable_at_least, mode, reset, set_mode, Mode, SpanGuard};
pub use summary::{phase_snapshot, render_summary_table, PhaseStat, PHASE_BUCKETS};
pub use trace::{format_traceparent, parse_traceparent, TraceCtx, TraceTree};
