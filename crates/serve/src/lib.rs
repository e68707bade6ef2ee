//! # autobias-serve — a resident prediction and learning server
//!
//! The batch CLI pays the dominant cost — loading the dataset and building
//! indexes — on every invocation. This crate keeps one immutable
//! [`relstore::Database`] resident and serves predictions, model management,
//! and background learning jobs over a small plain-text HTTP/1.1 API
//! (`autobias serve --data DIR --models DIR`).
//!
//! Design constraints, in keeping with the rest of the workspace:
//!
//! - **No async runtime, no HTTP framework.** A `TcpListener` accept loop
//!   feeds a bounded thread pool ([`pool`]); the protocol layer ([`http`])
//!   parses exactly the subset of HTTP/1.1 the API needs.
//! - **The database is never written after load.** Model files may mention
//!   constants absent from the data; they resolve to ephemeral ids via
//!   [`relstore::ConstResolver`] instead of interning ([`registry`]).
//! - **Models swap atomically.** The registry replaces an `Arc`'d map on
//!   reload; in-flight requests keep the snapshot they started with.
//! - **One learn pipeline.** A learning job and `autobias learn` run the
//!   same learn → verify → compile → report path
//!   ([`jobs::learn_model`]). Jobs run on dedicated threads polling a
//!   cancellation flag through
//!   [`autobias::learn::Learner::learn_with_progress`].
//! - **Observable.** `GET /metrics` exports request counters, latency
//!   histograms, and the core engine's subsumption/coverage/bottom-clause
//!   counters in the Prometheus text format ([`metrics`]). Every learning
//!   job additionally keeps one run report: `GET /jobs/{id}` is a live
//!   view over it, the bounded on-disk ledger archives it for
//!   `GET /runs/{id}` ([`ledger`]), and `GET /jobs/{id}/events` replays
//!   the progress events it keeps as SSE ([`server`]).
//! - **Traceable.** Every request runs under an [`obs::trace::TraceCtx`]
//!   (W3C `traceparent` in, `x-autobias-trace-id` out); requests that
//!   error or land above a rolling latency
//!   threshold keep their full span tree in a bounded store behind
//!   `GET /debug/traces` ([`trace`]); `GET /debug/slow` is the same store's
//!   kept predictions, worst latency first, with their batch context. An
//!   optional JSONL access log ([`access_log`]) writes each request's
//!   record, the same [`trace::RequestRecord`] a kept trace holds.
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]
#![warn(missing_docs)]

pub mod access_log;
pub mod http;
pub mod jobs;
pub mod ledger;
pub mod metrics;
pub mod pool;
pub mod registry;
pub mod server;
pub mod trace;

pub use server::{serve, ServeConfig, ServerHandle};
