//! Request metrics in the Prometheus text exposition format.
//!
//! Everything is lock-free: per-endpoint request counters and fixed-bucket
//! latency histograms are relaxed atomics, bumped on the request path and
//! read (without a consistent snapshot — Prometheus semantics) by
//! `GET /metrics`. One scrape shows four families:
//!
//! - HTTP traffic: `autobias_requests_total`, `autobias_request_errors_total`,
//!   the per-route `autobias_http_request_duration_seconds` histogram, and
//!   the `autobias_http_requests_in_flight` gauge (owned by [`Metrics`]);
//! - pipeline phases: `autobias_phase_duration_seconds{phase="..."}`
//!   histograms from the [`obs`] span recorder (the server runs it in
//!   `Summary` mode);
//! - every counter in the [`obs::metrics`] registry (`autobias_core_*` from
//!   the learner plus anything future crates register);
//! - point-in-time gauges supplied by the caller ([`GaugeSample`]).
//!
//! Conformance: every series gets `# HELP` and `# TYPE` lines, label values
//! are escaped per the text-format spec, and histogram `_bucket`/`_sum`/
//! `_count` invariants hold (cumulative buckets ending in `+Inf` == count).
//! The unit tests parse the rendered output and check those invariants.
//!
//! Exemplars: traced requests leave the last-seen trace id per histogram
//! bucket, rendered as OpenMetrics-style `# EXEMPLAR <series> trace_id="…"
//! value=<v>` comment lines after the bucket they annotate — comments, so
//! plain Prometheus text parsers skip them, while a scraped p999 bucket
//! still links straight to a stored trace at `/debug/traces/{trace_id}`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The last traced observation that landed in one histogram bucket.
#[derive(Debug, Clone)]
struct Exemplar {
    trace_id: String,
    value: f64,
}

/// Writes one `# EXEMPLAR` annotation line for a bucket series.
fn push_exemplar(out: &mut String, series: &str, ex: &Exemplar) {
    out.push_str(&format!(
        "# EXEMPLAR {series} trace_id=\"{}\" value={}\n",
        escape_label_value(&ex.trace_id),
        ex.value
    ));
}

/// Model artifacts rejected by the static verifier — uploads answered 422
/// and registry loads skipped for Error-severity findings.
pub static MODEL_REJECTIONS: obs::metrics::Counter = obs::metrics::Counter::new(
    "autobias_model_rejections_total",
    "Models rejected by the static verifier at upload or load time.",
);

/// TCP connections accepted by the server.
pub static HTTP_CONNECTIONS: obs::metrics::Counter = obs::metrics::Counter::new(
    "autobias_http_connections_total",
    "TCP connections accepted by the HTTP server.",
);

/// Requests served on an already-open keep-alive connection — each bump is
/// one request that skipped a TCP handshake.
pub static KEEPALIVE_REUSES: obs::metrics::Counter = obs::metrics::Counter::new(
    "autobias_http_keepalive_reuses_total",
    "Requests served on a reused keep-alive connection (after the first on each connection).",
);

/// Connection handlers that panicked. The worker catches the panic, drops
/// the connection and keeps serving ([`crate::pool::WorkerPool`]).
pub static HANDLER_PANICS: obs::metrics::Counter = obs::metrics::Counter::new(
    "autobias_handler_panics_total",
    "Connection handler panics caught by a pool worker (connection dropped, worker kept).",
);

/// Tuples classified by `POST /predict`, over both evaluation paths.
pub static PREDICT_TUPLES: obs::metrics::Counter = obs::metrics::Counter::new(
    "autobias_predict_tuples_total",
    "Tuples classified by POST /predict (compiled and interpreted paths).",
);

/// Tuples no compiled plan covered that then ran the model's declined
/// clauses through the clause interpreter.
pub static PREDICT_INTERPRETED_TUPLES: obs::metrics::Counter = obs::metrics::Counter::new(
    "autobias_predict_interpreted_tuples_total",
    "Predict tuple evaluations that ran declined clauses through the interpreter.",
);

/// Predict batches where runtime variant selection chose between multiple
/// kept orderings (single-variant clauses never bump this).
pub static PLAN_VARIANT_SELECTIONS: obs::metrics::Counter = obs::metrics::Counter::new(
    "autobias_plan_variant_selections_total",
    "Clause evaluations where runtime variant selection chose between multiple kept orderings.",
);

/// Bucket upper bounds of the q-error histogram. q-error is ≥ 1 by
/// definition, so the first bucket catches near-perfect estimates.
const QERROR_BUCKETS: [f64; 8] = [1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, f64::INFINITY];

/// Process-global q-error histogram (`autobias_plan_estimate_qerror`):
/// per-step estimated-vs-actual cardinality ratios observed by /predict
/// batches with plan stats enabled. Global like the [`obs::metrics`]
/// counters so every server and test in the process shares one series.
static QERROR_BUCKET_COUNTS: [AtomicU64; QERROR_BUCKETS.len()] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static QERROR_SUM_MILLIS: AtomicU64 = AtomicU64::new(0);
static QERROR_COUNT: AtomicU64 = AtomicU64::new(0);

/// Last traced observation per q-error bucket. Only traced requests pay the
/// (short, uncontended) lock; untraced observations stay lock-free.
static QERROR_EXEMPLARS: Mutex<[Option<Exemplar>; QERROR_BUCKETS.len()]> =
    Mutex::new([None, None, None, None, None, None, None, None]);

/// Records one per-step q-error observation.
pub fn observe_qerror(q: f64) {
    observe_qerror_traced(q, None);
}

/// [`observe_qerror`] with the observing request's trace id, kept as the
/// bucket's exemplar so a scraped outlier links to its stored trace.
pub fn observe_qerror_traced(q: f64, trace_id: Option<&str>) {
    for (i, &le) in QERROR_BUCKETS.iter().enumerate() {
        if q <= le {
            QERROR_BUCKET_COUNTS[i].fetch_add(1, Ordering::Relaxed);
            if let Some(id) = trace_id {
                if let Ok(mut ex) = QERROR_EXEMPLARS.lock() {
                    ex[i] = Some(Exemplar {
                        trace_id: id.to_string(),
                        value: q,
                    });
                }
            }
            break;
        }
    }
    // Milli-units keep the sum integral without losing meaningful precision
    // (q-errors worth histogramming are ≥ 1).
    QERROR_SUM_MILLIS.fetch_add((q * 1e3) as u64, Ordering::Relaxed);
    QERROR_COUNT.fetch_add(1, Ordering::Relaxed);
}

/// q-error observations so far (the histogram's `_count`).
pub fn qerror_count() -> u64 {
    QERROR_COUNT.load(Ordering::Relaxed)
}

/// Per-model compile outcome for labeled `autobias_plan_*_total` samples,
/// built from the live registry at scrape time — rotated models simply stop
/// appearing, so the label set is always the current registry names.
#[derive(Debug, Clone)]
pub struct ModelPlanSample {
    /// Registry name (the `model` label value).
    pub name: String,
    /// Clauses compiled for this model.
    pub compiled: u64,
    /// Clauses declined to the interpreter for this model.
    pub fallback: u64,
}

/// The endpoints we track. `Other` buckets everything unrecognized so the
/// label set stays bounded no matter what clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET`/`POST /models`
    Models,
    /// `POST /predict`
    Predict,
    /// `POST /jobs/learn`, `GET /jobs/*`, `POST /jobs/*/cancel`
    Jobs,
    /// `GET /jobs/{id}/events` (the SSE stream)
    Events,
    /// `GET /runs`, `GET /runs/{id}` (archived run reports)
    Runs,
    /// `GET /models/{name}/plan` (EXPLAIN / EXPLAIN ANALYZE)
    Plan,
    /// `GET /debug/slow` and `GET /debug/traces` (the trace store's views)
    Debug,
    /// `POST /shutdown`
    Shutdown,
    /// Anything else (404s, parse failures).
    Other,
}

/// Stable label value for an endpoint — the `route=` label on the request
/// histogram, and the route field in access-log lines and stored traces.
pub fn endpoint_name(endpoint: Endpoint) -> &'static str {
    ENDPOINTS
        .iter()
        .find(|&&(e, _)| e == endpoint)
        .map(|&(_, name)| name)
        .unwrap_or("other")
}

const ENDPOINTS: [(Endpoint, &str); 11] = [
    (Endpoint::Healthz, "healthz"),
    (Endpoint::Metrics, "metrics"),
    (Endpoint::Models, "models"),
    (Endpoint::Predict, "predict"),
    (Endpoint::Plan, "plan"),
    (Endpoint::Debug, "debug"),
    (Endpoint::Jobs, "jobs"),
    (Endpoint::Events, "events"),
    (Endpoint::Runs, "runs"),
    (Endpoint::Shutdown, "shutdown"),
    (Endpoint::Other, "other"),
];

/// Histogram bucket upper bounds, in seconds. Chosen to straddle the two
/// regimes this server sees: sub-millisecond index probes and multi-second
/// learning-job submissions.
const BUCKETS: [f64; 8] = [0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0, f64::INFINITY];

/// A point-in-time gauge owned by another subsystem (loaded models, running
/// jobs, sampler acceptance rate), rendered with its own HELP/TYPE lines.
#[derive(Debug, Clone, Copy)]
pub struct GaugeSample {
    /// Metric name (no labels).
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// Current value.
    pub value: f64,
}

/// Escapes a label value per the Prometheus text format: backslash, double
/// quote, and newline.
pub(crate) fn escape_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes `# HELP` text per the Prometheus text format: backslash and
/// newline (quotes are fine in help text).
fn escape_help(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_le(le: f64) -> String {
    if le.is_infinite() {
        "+Inf".to_string()
    } else {
        format!("{le}")
    }
}

#[derive(Default)]
struct EndpointStats {
    requests: AtomicU64,
    errors: AtomicU64,
    bucket_counts: [AtomicU64; BUCKETS.len()],
    sum_micros: AtomicU64,
}

/// Process-lifetime request metrics; one instance per server.
pub struct Metrics {
    stats: [EndpointStats; ENDPOINTS.len()],
    /// Streaming responses cut short because the client went away. A
    /// watcher hanging up mid-SSE is normal operation, not a server error,
    /// so these are counted here instead of `request_errors_total`.
    client_disconnects: AtomicU64,
    /// Requests currently being handled (read → routed → response written).
    /// Signed so a missed increment can never wrap to 2^64 on the gauge.
    in_flight: AtomicI64,
    /// Last traced observation per (endpoint, latency bucket); locked only
    /// by traced requests and the scrape.
    exemplars: Mutex<[[Option<Exemplar>; BUCKETS.len()]; ENDPOINTS.len()]>,
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            stats: Default::default(),
            client_disconnects: AtomicU64::new(0),
            in_flight: AtomicI64::new(0),
            exemplars: Mutex::new(Default::default()),
        }
    }
}

impl Metrics {
    /// Creates a zeroed metrics table.
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(endpoint: Endpoint) -> usize {
        ENDPOINTS
            .iter()
            .position(|&(e, _)| e == endpoint)
            .expect("every endpoint is in the table")
    }

    /// Records one finished request.
    pub fn observe(&self, endpoint: Endpoint, latency: Duration, is_error: bool) {
        self.observe_traced(endpoint, latency, is_error, None);
    }

    /// [`observe`](Metrics::observe) with the request's trace id, kept as
    /// the latency bucket's exemplar.
    pub fn observe_traced(
        &self,
        endpoint: Endpoint,
        latency: Duration,
        is_error: bool,
        trace_id: Option<&str>,
    ) {
        let ei = Self::idx(endpoint);
        let s = &self.stats[ei];
        s.requests.fetch_add(1, Ordering::Relaxed);
        if is_error {
            s.errors.fetch_add(1, Ordering::Relaxed);
        }
        let secs = latency.as_secs_f64();
        for (i, &le) in BUCKETS.iter().enumerate() {
            if secs <= le {
                s.bucket_counts[i].fetch_add(1, Ordering::Relaxed);
                if let Some(id) = trace_id {
                    if let Ok(mut ex) = self.exemplars.lock() {
                        ex[ei][i] = Some(Exemplar {
                            trace_id: id.to_string(),
                            value: secs,
                        });
                    }
                }
                break;
            }
        }
        s.sum_micros
            .fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
    }

    /// Marks one request as started; pair with
    /// [`in_flight_dec`](Metrics::in_flight_dec) on every exit path
    /// (including connection write errors).
    pub fn in_flight_inc(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one request as finished.
    pub fn in_flight_dec(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Total requests seen on one endpoint.
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.stats[Self::idx(endpoint)]
            .requests
            .load(Ordering::Relaxed)
    }

    /// Records a client hanging up mid-stream (not an error).
    pub fn disconnect(&self) {
        self.client_disconnects.fetch_add(1, Ordering::Relaxed);
    }

    /// Streaming responses cut short by the client so far.
    pub fn client_disconnects(&self) -> u64 {
        self.client_disconnects.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text format. `gauges` supplies point-in-time
    /// values owned by other subsystems; `models` supplies the live
    /// registry's per-model compile outcomes for labeled plan counters.
    pub fn render(&self, gauges: &[GaugeSample], models: &[ModelPlanSample]) -> String {
        let mut out = String::with_capacity(8192);

        out.push_str("# HELP autobias_requests_total Requests handled, by endpoint.\n");
        out.push_str("# TYPE autobias_requests_total counter\n");
        for (i, &(_, name)) in ENDPOINTS.iter().enumerate() {
            let n = self.stats[i].requests.load(Ordering::Relaxed);
            out.push_str(&format!(
                "autobias_requests_total{{endpoint=\"{}\"}} {n}\n",
                escape_label_value(name)
            ));
        }

        out.push_str("# HELP autobias_request_errors_total Non-2xx responses, by endpoint.\n");
        out.push_str("# TYPE autobias_request_errors_total counter\n");
        for (i, &(_, name)) in ENDPOINTS.iter().enumerate() {
            let n = self.stats[i].errors.load(Ordering::Relaxed);
            out.push_str(&format!(
                "autobias_request_errors_total{{endpoint=\"{}\"}} {n}\n",
                escape_label_value(name)
            ));
        }

        out.push_str(
            "# HELP autobias_http_request_duration_seconds Request latency, by route.\n\
             # TYPE autobias_http_request_duration_seconds histogram\n",
        );
        let exemplars = self.exemplars.lock().map(|g| g.clone()).unwrap_or_default();
        for (i, &(_, name)) in ENDPOINTS.iter().enumerate() {
            let s = &self.stats[i];
            let name = escape_label_value(name);
            let mut cumulative = 0u64;
            for (bi, &le) in BUCKETS.iter().enumerate() {
                cumulative += s.bucket_counts[bi].load(Ordering::Relaxed);
                let series = format!(
                    "autobias_http_request_duration_seconds_bucket{{route=\"{name}\",le=\"{}\"}}",
                    fmt_le(le)
                );
                out.push_str(&format!("{series} {cumulative}\n"));
                if let Some(ex) = &exemplars[i][bi] {
                    push_exemplar(&mut out, &series, ex);
                }
            }
            let sum = s.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
            let count = s.requests.load(Ordering::Relaxed);
            out.push_str(&format!(
                "autobias_http_request_duration_seconds_sum{{route=\"{name}\"}} {sum}\n\
                 autobias_http_request_duration_seconds_count{{route=\"{name}\"}} {count}\n"
            ));
        }

        out.push_str(
            "# HELP autobias_http_requests_in_flight Requests currently being handled.\n\
             # TYPE autobias_http_requests_in_flight gauge\n",
        );
        out.push_str(&format!(
            "autobias_http_requests_in_flight {}\n",
            self.in_flight.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP autobias_client_disconnects_total Streaming responses cut short because the client hung up (not errors).\n\
             # TYPE autobias_client_disconnects_total counter\n",
        );
        out.push_str(&format!(
            "autobias_client_disconnects_total {}\n",
            self.client_disconnects.load(Ordering::Relaxed)
        ));

        render_phase_histograms(&mut out);
        render_qerror_histogram(&mut out);
        render_registered_counters(&mut out, models);

        for g in gauges {
            out.push_str(&format!(
                "# HELP {} {}\n# TYPE {} gauge\n{} {}\n",
                g.name,
                escape_help(g.help),
                g.name,
                g.name,
                g.value
            ));
        }
        out
    }
}

/// Renders `autobias_phase_duration_seconds{phase="..."}` histograms from
/// the span recorder's per-phase aggregates. The recorder's buckets are
/// per-bucket counts; Prometheus `_bucket` series are cumulative.
fn render_phase_histograms(out: &mut String) {
    out.push_str(
        "# HELP autobias_phase_duration_seconds Pipeline phase wall-clock, by span name.\n\
         # TYPE autobias_phase_duration_seconds histogram\n",
    );
    for p in obs::phase_snapshot() {
        let phase = escape_label_value(p.name);
        let mut cumulative = 0u64;
        for (bi, &le) in obs::PHASE_BUCKETS.iter().enumerate() {
            cumulative += p.bucket_counts[bi];
            out.push_str(&format!(
                "autobias_phase_duration_seconds_bucket{{phase=\"{phase}\",le=\"{}\"}} {cumulative}\n",
                fmt_le(le)
            ));
        }
        out.push_str(&format!(
            "autobias_phase_duration_seconds_sum{{phase=\"{phase}\"}} {}\n\
             autobias_phase_duration_seconds_count{{phase=\"{phase}\"}} {}\n",
            p.total_secs(),
            p.count
        ));
    }
}

/// Renders the `autobias_plan_estimate_qerror` histogram: per-step
/// estimated-vs-actual cardinality ratios across all models.
fn render_qerror_histogram(out: &mut String) {
    out.push_str(
        "# HELP autobias_plan_estimate_qerror Per-step q-error (max(est/actual, actual/est)) of compile-time cardinality estimates.\n\
         # TYPE autobias_plan_estimate_qerror histogram\n",
    );
    let exemplars = QERROR_EXEMPLARS
        .lock()
        .map(|g| g.clone())
        .unwrap_or_default();
    let mut cumulative = 0u64;
    for (i, &le) in QERROR_BUCKETS.iter().enumerate() {
        cumulative += QERROR_BUCKET_COUNTS[i].load(Ordering::Relaxed);
        let series = format!(
            "autobias_plan_estimate_qerror_bucket{{le=\"{}\"}}",
            fmt_le(le)
        );
        out.push_str(&format!("{series} {cumulative}\n"));
        if let Some(ex) = &exemplars[i] {
            push_exemplar(out, &series, ex);
        }
    }
    out.push_str(&format!(
        "autobias_plan_estimate_qerror_sum {}\n\
         autobias_plan_estimate_qerror_count {}\n",
        QERROR_SUM_MILLIS.load(Ordering::Relaxed) as f64 / 1e3,
        QERROR_COUNT.load(Ordering::Relaxed)
    ));
}

/// Renders every counter in the [`obs::metrics`] registry. The core
/// learner's counters are registered via `autobias::instrument::register`
/// and the verifier's via `analyze::register`, so a scrape sees them even
/// before the first learning job or upload. The plan compile counters
/// additionally get per-model labeled samples within the same family block
/// (one HELP/TYPE), derived from the live registry so rotated models drop
/// out of the label set immediately.
fn render_registered_counters(out: &mut String, models: &[ModelPlanSample]) {
    autobias::instrument::register();
    analyze::register();
    plan::register();
    obs::metrics::register(&MODEL_REJECTIONS);
    obs::metrics::register(&HTTP_CONNECTIONS);
    obs::metrics::register(&KEEPALIVE_REUSES);
    obs::metrics::register(&HANDLER_PANICS);
    obs::metrics::register(&PREDICT_TUPLES);
    obs::metrics::register(&PREDICT_INTERPRETED_TUPLES);
    obs::metrics::register(&PLAN_VARIANT_SELECTIONS);
    obs::metrics::register(&obs::trace::DROPPED_SPANS);
    for c in obs::metrics::registered() {
        out.push_str(&format!(
            "# HELP {} {}\n# TYPE {} counter\n{} {}\n",
            c.name(),
            escape_help(c.help()),
            c.name(),
            c.name(),
            c.get()
        ));
        let per_model: Option<fn(&ModelPlanSample) -> u64> = match c.name() {
            "autobias_plan_compiled_total" => Some(|m| m.compiled),
            "autobias_plan_fallback_total" => Some(|m| m.fallback),
            _ => None,
        };
        if let Some(value_of) = per_model {
            for m in models {
                out.push_str(&format!(
                    "{}{{model=\"{}\"}} {}\n",
                    c.name(),
                    escape_label_value(&m.name),
                    value_of(m)
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn observe_counts_and_buckets() {
        let m = Metrics::new();
        m.observe(Endpoint::Predict, Duration::from_micros(500), false);
        m.observe(Endpoint::Predict, Duration::from_millis(50), true);
        assert_eq!(m.requests(Endpoint::Predict), 2);
        let text = m.render(
            &[GaugeSample {
                name: "autobias_models_loaded",
                help: "Models in the registry.",
                value: 3.0,
            }],
            &[],
        );
        assert!(text.contains("autobias_requests_total{endpoint=\"predict\"} 2"));
        assert!(text.contains("autobias_request_errors_total{endpoint=\"predict\"} 1"));
        // 500µs lands in the 0.001 bucket; cumulative counts reach 2 at +Inf.
        assert!(text.contains(
            "autobias_http_request_duration_seconds_bucket{route=\"predict\",le=\"0.001\"} 1"
        ));
        assert!(text.contains(
            "autobias_http_request_duration_seconds_bucket{route=\"predict\",le=\"+Inf\"} 2"
        ));
        assert!(text.contains("autobias_http_requests_in_flight 0"));
        assert!(text.contains("autobias_models_loaded 3"));
        // The core counters ride the same registry: a scrape shows
        // subsumption work and cutoff savings without any serve-side wiring.
        assert!(text.contains("autobias_core_subsumption_tests_total"));
        assert!(text.contains("autobias_core_subsume_cutoffs_total"));
        assert!(text.contains("autobias_core_neg_tests_skipped_total"));
        assert!(text.contains("autobias_core_candidates_deduped_total"));
        assert!(text.contains("autobias_phase_duration_seconds"));
        assert!(text.contains("autobias_trace_dropped_events_total"));
        // Serving-path counters: keep-alive reuse and the compiled-plan
        // split of predict traffic are visible from the very first scrape.
        assert!(text.contains("autobias_http_connections_total"));
        assert!(text.contains("autobias_http_keepalive_reuses_total"));
        assert!(text.contains("autobias_handler_panics_total"));
        assert!(text.contains("autobias_predict_tuples_total"));
        assert!(text.contains("autobias_predict_interpreted_tuples_total"));
        assert!(text.contains("autobias_plan_compiled_total"));
        assert!(text.contains("autobias_plan_fallback_total"));
        assert!(text.contains("autobias_plan_variant_selections_total"));
        assert!(text.contains("autobias_plan_estimate_qerror_bucket"));
        assert!(text.contains("autobias_plan_estimate_qerror_count"));
    }

    #[test]
    fn per_model_plan_labels_follow_the_live_registry() {
        let m = Metrics::new();
        let text = m.render(
            &[],
            &[ModelPlanSample {
                name: "uw_coauthor".into(),
                compiled: 2,
                fallback: 1,
            }],
        );
        assert!(text.contains("autobias_plan_compiled_total{model=\"uw_coauthor\"} 2"));
        assert!(text.contains("autobias_plan_fallback_total{model=\"uw_coauthor\"} 1"));

        // Rotation: the samples come from the registry snapshot passed per
        // scrape, so a replaced model's series vanishes instead of going
        // stale.
        let text = m.render(
            &[],
            &[ModelPlanSample {
                name: "uw_v2".into(),
                compiled: 3,
                fallback: 0,
            }],
        );
        assert!(!text.contains("model=\"uw_coauthor\""));
        assert!(text.contains("autobias_plan_compiled_total{model=\"uw_v2\"} 3"));
    }

    #[test]
    fn qerror_histogram_buckets_and_count_agree() {
        let before = qerror_count();
        observe_qerror(1.0);
        observe_qerror(3.0);
        observe_qerror(1000.0);
        assert_eq!(qerror_count(), before + 3);
        let text = Metrics::new().render(&[], &[]);
        let count_line = text
            .lines()
            .find(|l| l.starts_with("autobias_plan_estimate_qerror_count"))
            .expect("qerror count rendered");
        let inf_line = text
            .lines()
            .find(|l| l.starts_with("autobias_plan_estimate_qerror_bucket{le=\"+Inf\"}"))
            .expect("+Inf bucket rendered");
        let count: u64 = count_line.rsplit(' ').next().unwrap().parse().unwrap();
        let inf: u64 = inf_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert_eq!(count, inf, "+Inf bucket must equal _count");
        assert!(count >= 3);
    }

    #[test]
    fn client_disconnects_are_counted_separately_from_errors() {
        let m = Metrics::new();
        m.observe(Endpoint::Events, Duration::from_secs(3), false);
        m.disconnect();
        m.disconnect();
        assert_eq!(m.client_disconnects(), 2);
        let text = m.render(&[], &[]);
        assert!(text.contains("autobias_client_disconnects_total 2"));
        assert!(text.contains("autobias_requests_total{endpoint=\"events\"} 1"));
        assert!(text.contains("autobias_request_errors_total{endpoint=\"events\"} 0"));
        assert!(text.contains("autobias_requests_total{endpoint=\"runs\"} 0"));
    }

    #[test]
    fn escaping_label_values_and_help() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_help("line1\nline2 \\x"), "line1\\nline2 \\\\x");
    }

    /// Inverse of [`escape_label_value`] per the text-format spec, used to
    /// prove the escaping below round-trips.
    fn unescape_label_value(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                out.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => out.push('\\'),
                Some('"') => out.push('"'),
                Some('n') => out.push('\n'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        }
        out
    }

    /// Conformance check for dynamic label values: model names carrying
    /// every character the text format requires escaping (`"`, `\`, `\n`)
    /// must render as single physical lines whose label values round-trip.
    #[test]
    fn dynamic_label_values_survive_hostile_model_names() {
        let hostile = "we\"ird\\mo\ndel";
        let m = Metrics::new();
        let text = m.render(
            &[],
            &[ModelPlanSample {
                name: hostile.into(),
                compiled: 4,
                fallback: 2,
            }],
        );
        // One physical line per sample — the newline must have been escaped.
        let line = text
            .lines()
            .find(|l| l.starts_with("autobias_plan_compiled_total{model="))
            .expect("labeled sample rendered");
        assert_eq!(
            line,
            "autobias_plan_compiled_total{model=\"we\\\"ird\\\\mo\\ndel\"} 4"
        );
        // The escaped value parses back to the original name.
        let escaped = line
            .strip_prefix("autobias_plan_compiled_total{model=\"")
            .unwrap()
            .strip_suffix("\"} 4")
            .unwrap();
        assert_eq!(unescape_label_value(escaped), hostile);
        // Every rendered line is intact: no stray unescaped newline left a
        // dangling fragment that fails to parse as comment or sample.
        for l in text.lines() {
            if l.is_empty() || l.starts_with('#') {
                continue;
            }
            assert!(
                l.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "unparsable sample line: {l:?}"
            );
        }
    }

    #[test]
    fn traced_observations_render_exemplar_annotations() {
        let m = Metrics::new();
        m.observe_traced(
            Endpoint::Predict,
            Duration::from_micros(400),
            false,
            Some("cafe0000000000000000000000000001"),
        );
        observe_qerror_traced(2.5, Some("cafe0000000000000000000000000001"));
        let text = m.render(&[], &[]);
        let latency_ex = text.lines().find(|l| {
            l.starts_with(
                "# EXEMPLAR autobias_http_request_duration_seconds_bucket{route=\"predict\"",
            )
        });
        let ex = latency_ex.expect("latency exemplar rendered");
        assert!(ex.contains("le=\"0.001\""));
        assert!(ex.contains("trace_id=\"cafe0000000000000000000000000001\""));
        assert!(ex.contains("value=0.0004"));
        let qerror_ex = text
            .lines()
            .find(|l| l.starts_with("# EXEMPLAR autobias_plan_estimate_qerror_bucket{le=\"4\"}"))
            .expect("q-error exemplar rendered");
        assert!(qerror_ex.contains("trace_id=\"cafe0000000000000000000000000001\""));
        // Each exemplar line follows the bucket it annotates.
        let lines: Vec<&str> = text.lines().collect();
        let pos = lines.iter().position(|l| *l == ex).unwrap();
        assert!(lines[pos - 1].starts_with(
            "autobias_http_request_duration_seconds_bucket{route=\"predict\",le=\"0.001\"}"
        ));
        // Untraced observations never overwrite an exemplar with nothing.
        m.observe(Endpoint::Predict, Duration::from_micros(300), false);
        let text = m.render(&[], &[]);
        assert!(text.contains("trace_id=\"cafe0000000000000000000000000001\""));
    }

    /// Spans a trace tree drops past its cap show on `/metrics`.
    #[test]
    fn trace_tree_drops_are_counted() {
        const EXTRA: usize = 3;
        let scrape = || {
            let text = Metrics::new().render(&[], &[]);
            assert!(
                text.contains("# HELP autobias_trace_dropped_events_total Spans dropped"),
                "{text}"
            );
            text.lines()
                .find_map(|l| l.strip_prefix("autobias_trace_dropped_events_total "))
                .and_then(|v| v.parse::<u64>().ok())
                .expect("dropped-spans counter rendered")
        };
        let before = scrape();
        let ctx = obs::trace::TraceCtx::begin(None);
        {
            let _traced = ctx.install();
            for _ in 0..obs::trace::MAX_TRACE_SPANS + EXTRA {
                let _sp = obs::span!("test.metrics_overflow");
            }
        }
        assert_eq!(ctx.finish().dropped, EXTRA as u64);
        // Other tests may drop spans concurrently; the counter only grows.
        assert!(scrape() >= before + EXTRA as u64);
    }

    #[test]
    fn in_flight_gauge_tracks_inc_dec() {
        let m = Metrics::new();
        m.in_flight_inc();
        m.in_flight_inc();
        m.in_flight_dec();
        assert_eq!(m.in_flight(), 1);
        let text = m.render(&[], &[]);
        assert!(text.contains("autobias_http_requests_in_flight 1"));
        m.in_flight_dec();
        assert_eq!(m.in_flight(), 0);
    }

    /// Family name of a sample line: the metric name with any histogram
    /// suffix stripped when that family is declared as a histogram.
    fn family_of<'a>(name: &'a str, histograms: &HashSet<&str>) -> &'a str {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if histograms.contains(base) {
                    return base;
                }
            }
        }
        name
    }

    /// Parses the rendered exposition text and checks the conformance
    /// invariants promised by the module docs: HELP+TYPE for every series,
    /// histogram buckets cumulative and ending in `+Inf` == `_count`.
    #[test]
    fn rendered_output_is_conformant() {
        let m = Metrics::new();
        m.observe(Endpoint::Predict, Duration::from_micros(500), false);
        m.observe(Endpoint::Jobs, Duration::from_secs(100), false); // +Inf-only bucket
        {
            // Make sure at least one phase aggregate exists.
            obs::set_mode(obs::Mode::Summary);
            let _sp = obs::span!("test.metrics_conformance");
        }
        let text = m.render(
            &[GaugeSample {
                name: "autobias_jobs_running",
                help: "Jobs currently running.",
                value: 0.0,
            }],
            &[ModelPlanSample {
                name: "uw".into(),
                compiled: 1,
                fallback: 0,
            }],
        );

        let mut helps: HashSet<String> = HashSet::new();
        let mut types: HashMap<String, String> = HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                helps.insert(rest.split(' ').next().unwrap().to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap().to_string();
                let ty = it.next().expect("TYPE line has a type").to_string();
                types.insert(name, ty);
            }
        }
        let histograms: HashSet<&str> = types
            .iter()
            .filter(|(_, t)| t.as_str() == "histogram")
            .map(|(n, _)| n.as_str())
            .collect();

        // Histogram series keyed by (family, non-le labels).
        let mut buckets: HashMap<(String, String), Vec<(String, u64)>> = HashMap::new();
        let mut counts: HashMap<(String, String), u64> = HashMap::new();

        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            let (name, labels) = match series.split_once('{') {
                Some((n, l)) => (n, l.trim_end_matches('}')),
                None => (series, ""),
            };
            let family = family_of(name, &histograms);
            assert!(helps.contains(family), "no # HELP for {name}: {line}");
            assert!(types.contains_key(family), "no # TYPE for {name}: {line}");

            if histograms.contains(family) {
                let non_le: Vec<&str> = labels
                    .split(',')
                    .filter(|kv| !kv.is_empty() && !kv.starts_with("le="))
                    .collect();
                let key = (family.to_string(), non_le.join(","));
                if name.ends_with("_bucket") {
                    let le = labels
                        .split(',')
                        .find_map(|kv| kv.strip_prefix("le=\""))
                        .expect("bucket has le label")
                        .trim_end_matches('"');
                    buckets
                        .entry(key)
                        .or_default()
                        .push((le.to_string(), value.parse().unwrap()));
                } else if name.ends_with("_count") {
                    counts.insert(key, value.parse().unwrap());
                }
            }
        }

        assert!(!buckets.is_empty(), "no histogram series rendered");
        for (key, series) in &buckets {
            // Buckets appear in declaration order; counts must be
            // nondecreasing and the last bucket must be +Inf == _count.
            for w in series.windows(2) {
                assert!(w[0].1 <= w[1].1, "{key:?}: non-cumulative buckets");
            }
            let (last_le, last_n) = series.last().unwrap();
            assert_eq!(last_le, "+Inf", "{key:?}: last bucket must be +Inf");
            let count = counts
                .get(key)
                .unwrap_or_else(|| panic!("{key:?}: no _count"));
            assert_eq!(last_n, count, "{key:?}: +Inf bucket != _count");
        }

        // The gauge got HELP and TYPE too.
        assert!(helps.contains("autobias_jobs_running"));
        assert_eq!(types["autobias_jobs_running"], "gauge");
    }
}
