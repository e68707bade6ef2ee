//! The serving loop: routing, the shared application state, and graceful
//! shutdown.
//!
//! One `TcpListener` accept thread feeds a bounded [`WorkerPool`]; every
//! worker shares one immutable [`Dataset`] (loaded once, behind an `Arc`),
//! the copy-on-write [`ModelRegistry`], and the [`JobManager`]. Prediction
//! never writes the database: request constants resolve through a per-request
//! [`relstore::ConstResolver`], so the whole request path is lock-free reads
//! plus atomic metric bumps. `POST /shutdown` sets a flag, wakes the accept
//! loop with a loopback connection, and the server drains: queued
//! connections finish, job threads are cancelled and joined.

use crate::access_log::{AccessLog, AccessRecord};
use crate::http::{
    finish_chunked, read_request_from, write_chunk, write_response, write_response_extra,
    write_stream_head, HttpError, Request, MAX_REQUESTS_PER_CONN,
};
use crate::jobs::{JobManager, JobSpec};
use crate::ledger::RunLedger;
use crate::metrics::{Endpoint, GaugeSample, Metrics};
use crate::pool::WorkerPool;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::trace::{PredictInfo, StoredTrace, TraceStore};
use autobias::example::parse_arg_tuple;
use autobias::query::{clause_covers_args, EvalScratch, QueryConfig};
use datasets::io::load_dataset;
use datasets::Dataset;
use relstore::ConstResolver;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8720` (port 0 for an ephemeral port).
    pub addr: String,
    /// Dataset directory in the `datasets::io` layout.
    pub data_dir: PathBuf,
    /// Directory of `*.model` files; also receives models learned by jobs.
    pub models_dir: PathBuf,
    /// Connection-handling worker threads.
    pub threads: usize,
    /// JSONL access log path (`--access-log FILE`); `None` disables.
    pub access_log: Option<PathBuf>,
    /// Per-request tracing (traceparent in, `x-autobias-trace-id` out,
    /// tail-sampled span trees, the `/debug/slow` view). On by default;
    /// `autobias serve` turns it off under `AUTOBIAS_TRACE=0`, and the bench
    /// harnesses turn it off to measure the untraced fast path.
    pub request_trace: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:8720".to_string(),
            data_dir: PathBuf::from("data"),
            models_dir: PathBuf::from("models"),
            threads: 4,
            access_log: None,
            request_trace: true,
        }
    }
}

struct AppState {
    ds: Arc<Dataset>,
    registry: Arc<ModelRegistry>,
    jobs: JobManager,
    ledger: Arc<RunLedger>,
    metrics: Metrics,
    traces: Arc<TraceStore>,
    access_log: Option<AccessLog>,
    request_trace: bool,
    shutting_down: AtomicBool,
    addr: SocketAddr,
}

/// A running server; dropping the handle does not stop it — send
/// `POST /shutdown` and then [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    accept_thread: JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the server has fully shut down (accept loop exited,
    /// workers drained, job threads joined).
    pub fn join(self) {
        let _ = self.accept_thread.join();
    }
}

/// Loads the dataset and models, binds, and starts serving. Returns the
/// handle plus the names of models loaded at startup and any per-file parse
/// errors (non-fatal).
pub fn serve(cfg: &ServeConfig) -> Result<(ServerHandle, crate::registry::ReloadReport), String> {
    // Per-phase aggregates power the /metrics phase histograms.
    obs::set_mode(obs::Mode::Summary);
    autobias::instrument::register();
    let ds = load_dataset(&cfg.data_dir)
        .map_err(|e| format!("loading {}: {e}", cfg.data_dir.display()))?;
    let (registry, report) = ModelRegistry::open(&ds.db, &cfg.models_dir)
        .map_err(|e| format!("models dir {}: {e}", cfg.models_dir.display()))?;
    let runs_dir = cfg.models_dir.join("runs");
    let ledger = RunLedger::open(&runs_dir, RunLedger::DEFAULT_CAP)
        .map_err(|e| format!("runs dir {}: {e}", runs_dir.display()))?;
    let listener = TcpListener::bind(&cfg.addr).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let access_log = match &cfg.access_log {
        Some(path) => Some(
            AccessLog::open(path.clone(), crate::access_log::DEFAULT_MAX_BYTES)
                .map_err(|e| format!("access log {}: {e}", path.display()))?,
        ),
        None => None,
    };

    let state = Arc::new(AppState {
        ds: Arc::new(ds),
        registry: Arc::new(registry),
        jobs: JobManager::new(),
        ledger: Arc::new(ledger),
        metrics: Metrics::new(),
        traces: Arc::new(TraceStore::open(Some(cfg.models_dir.join("traces")))),
        access_log,
        request_trace: cfg.request_trace,
        shutting_down: AtomicBool::new(false),
        addr,
    });

    let pool_state = state.clone();
    let mut pool = WorkerPool::new(
        cfg.threads,
        cfg.threads * 8,
        Arc::new(move |conn| handle_connection(&pool_state, conn)),
        &crate::metrics::HANDLER_PANICS,
    );

    let accept_state = state;
    let accept_thread = std::thread::Builder::new()
        .name("serve-accept".to_string())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_state.shutting_down.load(Ordering::SeqCst) {
                    break; // the waking connection (or any racer) is dropped
                }
                let Ok(conn) = conn else { continue };
                if let Err(mut rejected) = pool.dispatch(conn) {
                    let _ =
                        write_response(&mut rejected, 503, "Service Unavailable", "saturated\n");
                }
            }
            drop(listener);
            pool.shutdown(); // drains queued + in-flight requests
            accept_state.jobs.shutdown(); // cancels and joins learning jobs
        })
        .map_err(|e| e.to_string())?;

    Ok((
        ServerHandle {
            addr,
            accept_thread,
        },
        report,
    ))
}

/// RAII in-flight marker: the gauge decrements on every exit path out of
/// the request block — including a keep-alive client vanishing mid-write —
/// so `autobias_http_requests_in_flight` can never drift upward.
struct InFlightGuard<'a>(&'a Metrics);

impl<'a> InFlightGuard<'a> {
    fn new(metrics: &'a Metrics) -> Self {
        metrics.in_flight_inc();
        Self(metrics)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.in_flight_dec();
    }
}

fn handle_connection(state: &Arc<AppState>, mut conn: TcpStream) {
    crate::metrics::HTTP_CONNECTIONS.bump();
    // The read timeout doubles as the keep-alive idle timeout: a connection
    // with no next request for 10s times out and is closed.
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    // Request/response traffic is latency-bound: never let Nagle hold a
    // response back waiting for a client ACK.
    let _ = conn.set_nodelay(true);
    // Requests are read through one persistent buffered reader (a cloned
    // handle of the same socket) so bytes buffered past a request boundary
    // — the start of a pipelined next request — are not lost between
    // iterations; responses are written to the original handle.
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut served = 0usize;
    loop {
        let t_read = Instant::now();
        let req = match read_request_from(&mut reader) {
            Ok(r) => r,
            Err(HttpError::Bad(m)) => {
                state
                    .metrics
                    .observe(Endpoint::Other, t_read.elapsed(), true);
                let _ = write_response(&mut conn, 400, "Bad Request", &format!("{m}\n"));
                return;
            }
            // Client went away, or an idle keep-alive connection timed out
            // or closed cleanly between requests; nothing to say.
            Err(HttpError::Io(_)) => return,
        };
        // Latency clock starts once the request is fully read: time a
        // keep-alive connection spends idle between requests is the
        // client's, not ours.
        let t0 = Instant::now();
        if served > 0 {
            crate::metrics::KEEPALIVE_REUSES.bump();
        }
        served += 1;
        let _in_flight = InFlightGuard::new(&state.metrics);
        if req.method == "GET" && req.path.starts_with("/jobs/") && req.path.ends_with("/events") {
            // The SSE stream owns the connection until it ends, and always
            // closes (its chunked response advertises `Connection: close`).
            return handle_events_stream(state, &mut conn, &req, t0);
        }
        // Every request gets its own trace tree: continue the client's trace
        // when it sent a `traceparent`, mint a fresh id otherwise. Installing
        // the context makes every `obs::span!` below (routing, plan
        // execution) record into this request's tree.
        let trace = state.request_trace.then(|| {
            obs::trace::TraceCtx::begin(req.traceparent.as_deref().and_then(obs::parse_traceparent))
        });
        let trace_hex = trace.as_ref().map(|c| c.trace_id_hex()).unwrap_or_default();
        let trace_id = (!trace_hex.is_empty()).then_some(trace_hex.as_str());
        let r = {
            let _installed = trace.as_ref().map(|c| c.install());
            let mut root = obs::span!("http.request");
            let r = route(state, &req, trace_id);
            root.note("status", r.status as u64);
            r
        };
        let keep = req.keep_alive
            && served < MAX_REQUESTS_PER_CONN
            && r.endpoint != Endpoint::Shutdown
            && !state.shutting_down.load(Ordering::SeqCst);
        let latency = t0.elapsed();
        let latency_us = latency.as_micros() as u64;
        state
            .metrics
            .observe_traced(r.endpoint, latency, r.status >= 400, trace_id);
        let route_name = crate::metrics::endpoint_name(r.endpoint);
        // Tail sampling: the finished tree is kept only when the request is
        // worth a postmortem (error / interpreter fallback / slow outlier).
        // A kept prediction carries its batch context for `/debug/slow`;
        // the argument sample is cut from the body only now, so requests
        // that are not kept pay nothing for it.
        let mut kept_reason = None;
        if let Some(ctx) = trace {
            let fallback = r.predict.as_ref().is_some_and(|p| p.interpreter_fallback);
            if let Some(reason) = state.traces.keep_reason(r.status, fallback, latency_us) {
                state.traces.keep(StoredTrace {
                    predict: r.predict.clone(),
                    args_sample: r.predict.as_ref().map_or_else(String::new, |_| {
                        crate::trace::truncate_sample(&first_tuple(&req.body))
                    }),
                    ..StoredTrace::new(route_name, r.status, latency_us, reason, ctx.finish())
                });
                kept_reason = Some(reason);
            }
        }
        if let Some(log) = &state.access_log {
            log.log(&AccessRecord {
                trace_id: &trace_hex,
                route: route_name,
                method: &req.method,
                path: &req.path,
                status: r.status,
                latency_us,
                predict: r.predict.as_ref(),
                kept: kept_reason.map(crate::trace::KeepReason::as_str),
            });
        }
        let trace_header = [("x-autobias-trace-id", trace_hex.as_str())];
        let extra: &[(&str, &str)] = if trace_id.is_some() {
            &trace_header
        } else {
            &[]
        };
        let wrote = write_response_extra(
            &mut conn,
            r.status,
            r.reason,
            r.content_type,
            &r.body,
            keep,
            extra,
        );
        if wrote.is_err() || !keep {
            return;
        }
    }
}

/// A routed response. Most routes speak `text/plain`; the model-upload
/// admission path returns its diagnostics as JSON.
struct Routed {
    endpoint: Endpoint,
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
    predict: Option<PredictInfo>,
}

impl Routed {
    fn json(endpoint: Endpoint, status: u16, reason: &'static str, body: String) -> Self {
        Self {
            endpoint,
            status,
            reason,
            content_type: "application/json",
            body,
            predict: None,
        }
    }
}

/// `GET /jobs/{id}/events`: replays the job's event log as an SSE stream
/// over chunked transfer, then follows it live until the job terminates.
/// A client hanging up mid-stream is normal operation — it bumps
/// `client_disconnects_total` and the request still counts as a success.
fn handle_events_stream(state: &Arc<AppState>, conn: &mut TcpStream, req: &Request, t0: Instant) {
    let Some(id) = parse_job_id(&req.path, "/events") else {
        state.metrics.observe(Endpoint::Events, t0.elapsed(), true);
        let _ = write_response(conn, 400, "Bad Request", "expected /jobs/{id}/events\n");
        return;
    };
    let Some(job) = state.jobs.get(id) else {
        state.metrics.observe(Endpoint::Events, t0.elapsed(), true);
        let _ = write_response(conn, 404, "Not Found", &format!("no job {id}\n"));
        return;
    };
    if write_stream_head(conn, 200, "OK", "text/event-stream").is_err() {
        state.metrics.disconnect();
        state.metrics.observe(Endpoint::Events, t0.elapsed(), false);
        return;
    }
    // Lead with the job's trace id so a watcher can correlate the stream
    // with the archived trace (`GET /debug/traces/{trace_id}`) before any
    // progress event arrives.
    let trace_frame = format!(
        "event: trace\ndata: {{\"event\":\"trace\",\"trace_id\":\"{}\"}}\n\n",
        job.trace_id
    );
    if write_chunk(conn, trace_frame.as_bytes()).is_err() {
        state.metrics.disconnect();
        state.metrics.observe(Endpoint::Events, t0.elapsed(), false);
        return;
    }
    let mut disconnected = false;
    let mut next = 0usize;
    'stream: loop {
        let batch = job.events.wait_from(next, Duration::from_millis(500));
        next = batch.next;
        if batch.missed > 0 {
            let frame = format!(
                "event: dropped\ndata: {{\"event\":\"dropped\",\"missed\":{}}}\n\n",
                batch.missed
            );
            if write_chunk(conn, frame.as_bytes()).is_err() {
                disconnected = true;
                break 'stream;
            }
        }
        for frame in &batch.frames {
            if write_chunk(conn, frame.as_bytes()).is_err() {
                disconnected = true;
                break 'stream;
            }
        }
        if batch.closed {
            break;
        }
        // Worker threads must stay joinable during drain: a stream over a
        // job the drain has not yet cancelled would otherwise block
        // `pool.shutdown()` forever.
        if state.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        if batch.frames.is_empty() {
            // SSE comment as keep-alive; also how a dead client is noticed
            // between events.
            if write_chunk(conn, b": keep-alive\n\n").is_err() {
                disconnected = true;
                break 'stream;
            }
        }
    }
    if disconnected || finish_chunked(conn).is_err() {
        state.metrics.disconnect();
    }
    state.metrics.observe(Endpoint::Events, t0.elapsed(), false);
}

const API_HELP: &str = "\
endpoints:
  GET  /healthz            liveness
  GET  /metrics            Prometheus text metrics
  GET  /models             list loaded models
  POST /models             reload models from the models directory
  POST /models/{name}      upload a model (verified; 422 + JSON diagnostics on Error findings)
  GET  /models/{name}/plan EXPLAIN the model's compiled plans as JSON (?analyze=1 adds runtime stats)
  POST /predict            body: `model NAME` then one CSV tuple per line
  GET  /debug/slow         kept /predict traces, worst latency first (JSON; empty with tracing off)
  GET  /debug/traces       tail-sampled request traces (newest first, JSON)
  GET  /debug/traces/{id}  one kept span tree (?format=chrome for a chrome-trace export)
  POST /jobs/learn         start a background learning job (key value lines)
  GET  /jobs               list jobs
  GET  /jobs/{id}          poll one job (includes live progress)
  GET  /jobs/{id}/events   live progress events (SSE over chunked transfer)
  POST /jobs/{id}/cancel   cancel one job
  GET  /runs               list archived run reports
  GET  /runs/{id}          fetch one archived run report (JSON)
  POST /shutdown           drain and stop
";

fn route(state: &Arc<AppState>, req: &Request, trace_id: Option<&str>) -> Routed {
    // JSON-speaking routes are intercepted before the plain-text router:
    // model upload, plan EXPLAIN, and the trace store's debug views. The
    // predict path is intercepted too so its batch context (model,
    // fallback, plan totals) reaches the connection loop.
    if matches!(req.method.as_str(), "POST" | "PUT") {
        if let Some(name) = req.path.strip_prefix("/models/") {
            return handle_model_upload(state, name, &req.body);
        }
    }
    if req.method == "POST" && req.path == "/predict" {
        return match handle_predict(state, &req.body, trace_id) {
            Ok((body, info)) => Routed {
                endpoint: Endpoint::Predict,
                status: 200,
                reason: "OK",
                content_type: "text/plain; charset=utf-8",
                body,
                predict: Some(info),
            },
            Err((status, reason, body)) => Routed {
                endpoint: Endpoint::Predict,
                status,
                reason,
                content_type: "text/plain; charset=utf-8",
                body,
                predict: None,
            },
        };
    }
    if req.method == "GET" {
        if let Some(name) = req
            .path
            .strip_prefix("/models/")
            .and_then(|rest| rest.strip_suffix("/plan"))
        {
            return handle_plan(state, name, &req.query);
        }
        if req.path == "/debug/slow" {
            return Routed::json(
                Endpoint::Debug,
                200,
                "OK",
                format!("{}\n", state.traces.slow_json()),
            );
        }
        if req.path == "/debug/traces" {
            return Routed::json(
                Endpoint::Debug,
                200,
                "OK",
                format!("{}\n", state.traces.list_json()),
            );
        }
        if let Some(id) = req.path.strip_prefix("/debug/traces/") {
            let chrome = req.query.split('&').any(|kv| kv == "format=chrome");
            let doc = if chrome {
                state.traces.get_chrome(id)
            } else {
                state.traces.get_json(id)
            };
            return match doc {
                Some(doc) => Routed::json(Endpoint::Debug, 200, "OK", format!("{doc}\n")),
                None => Routed::json(
                    Endpoint::Debug,
                    404,
                    "Not Found",
                    format!(
                        "{}\n",
                        obs::json::Json::Obj(vec![(
                            "error".to_string(),
                            obs::json::Json::Str(format!("no kept trace {id}")),
                        )])
                    ),
                ),
            };
        }
    }
    let (endpoint, status, reason, body) = route_text(state, req);
    Routed {
        endpoint,
        status,
        reason,
        content_type: "text/plain; charset=utf-8",
        body,
        predict: None,
    }
}

/// `POST /models/{name}`: admission-checked model upload. The body is model
/// text; it must parse, pass the static verifier with zero Error findings,
/// and its compiled plans must pass soundness verification (AB2xx) —
/// otherwise the upload is rejected with 422 and the JSON diagnostics
/// payload (and `autobias_model_rejections_total` bumps). Accepted models
/// are persisted to the models directory and inserted into the registry
/// copy-on-write, so in-flight predictions are unaffected.
fn handle_model_upload(state: &Arc<AppState>, name: &str, body: &str) -> Routed {
    if name.is_empty()
        || name.len() > 64
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return Routed::json(
            Endpoint::Models,
            400,
            "Bad Request",
            format!(
                "{{\"error\": \"model name must be 1-64 chars of [A-Za-z0-9_-], got {:?}\"}}\n",
                name
            ),
        );
    }
    let (report, parsed) = analyze::check_model_source(&state.ds.db, body, None);
    let Some((definition, unknown_constants)) = parsed.filter(|_| !report.has_errors()) else {
        // Parse failures are Error findings too, so this is one 422 path.
        crate::metrics::MODEL_REJECTIONS.bump();
        return Routed::json(
            Endpoint::Models,
            422,
            "Unprocessable Entity",
            format!("{}\n", report.to_json()),
        );
    };
    if definition.clauses.is_empty() {
        return Routed::json(
            Endpoint::Models,
            400,
            "Bad Request",
            "{\"error\": \"model has no clauses\"}\n".to_string(),
        );
    }
    let path = state.registry.dir().join(format!("{name}.model"));
    // Compile (and verify) before persisting anything: an AB2xx verifier
    // error is rejected with the same 422 shape as the AB1xx lints above,
    // and leaves no file behind for the next reload to trip over.
    let clauses = definition.clauses.len();
    let entry = ModelEntry::new(
        &state.ds.db,
        name.to_string(),
        definition,
        unknown_constants,
        Some(path.clone()),
    );
    let verify = entry.plan.verify_report();
    if verify.has_errors() {
        crate::metrics::MODEL_REJECTIONS.bump();
        return Routed::json(
            Endpoint::Models,
            422,
            "Unprocessable Entity",
            format!("{}\n", verify.to_json()),
        );
    }
    let text = if body.ends_with('\n') {
        body.to_string()
    } else {
        format!("{body}\n")
    };
    if let Err(e) = std::fs::write(&path, &text) {
        return Routed::json(
            Endpoint::Models,
            500,
            "Internal Server Error",
            format!("{{\"error\": \"persisting model: {e}\"}}\n"),
        );
    }
    state.registry.insert(entry);
    obs::info!("model {name} uploaded ({clauses} clause(s))");
    Routed::json(
        Endpoint::Models,
        201,
        "Created",
        format!(
            "{{\"name\": \"{name}\", \"clauses\": {clauses}, \"diagnostics\": {}}}\n",
            report.to_json()
        ),
    )
}

/// `GET /models/{name}/plan`: the EXPLAIN document for a loaded model —
/// per-clause access paths, probe keys, residual ops, kept variants, and
/// compile-time estimates, with declined clauses carrying their reason.
/// `?analyze=1` upgrades to EXPLAIN ANALYZE: the model's aggregated
/// per-operator runtime counters and estimate-vs-actual q-errors are folded
/// into the same document.
fn handle_plan(state: &Arc<AppState>, name: &str, query: &str) -> Routed {
    let Some(entry) = state.registry.get(name) else {
        return Routed::json(
            Endpoint::Plan,
            404,
            "Not Found",
            format!("{{\"error\": \"no model {name} (see GET /models)\"}}\n"),
        );
    };
    let want_analyze = query
        .split('&')
        .any(|kv| kv == "analyze=1" || kv == "analyze=true");
    let snapshot = want_analyze.then(|| (entry.stats.snapshot(), entry.stats.batches()));
    let analyzed = snapshot.as_ref().map(|(tally, batches)| plan::Analyzed {
        tally,
        batches: *batches,
    });
    let json = plan::explain_json(
        &state.ds.db,
        Some(name),
        &entry.unknown_constants,
        &entry.definition,
        &entry.plan,
        analyzed,
    );
    Routed::json(Endpoint::Plan, 200, "OK", format!("{json}\n"))
}

fn route_text(state: &Arc<AppState>, req: &Request) -> (Endpoint, u16, &'static str, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (Endpoint::Healthz, 200, "OK", "ok\n".to_string()),
        ("GET", "/metrics") => {
            let draws = autobias::instrument::BC_WALK_DRAWS.get();
            let accepted = autobias::instrument::BC_WALK_ACCEPTED.get();
            let acceptance = if draws > 0 {
                accepted as f64 / draws as f64
            } else {
                0.0
            };
            let gauges = [
                GaugeSample {
                    name: "autobias_models_loaded",
                    help: "Models currently in the registry.",
                    value: state.registry.len() as f64,
                },
                GaugeSample {
                    name: "autobias_jobs_running",
                    help: "Learning jobs currently running.",
                    value: state.jobs.running_count() as f64,
                },
                GaugeSample {
                    name: "autobias_jobs_total",
                    help: "Learning jobs submitted since startup.",
                    value: state.jobs.list().len() as f64,
                },
                GaugeSample {
                    name: "autobias_dataset_tuples",
                    help: "Tuples in the resident dataset.",
                    value: state.ds.db.total_tuples() as f64,
                },
                GaugeSample {
                    name: "autobias_sampler_acceptance_ratio",
                    help: "Accepted fraction of accept-reject semijoin walk draws (0 before any Random-sampling BC build).",
                    value: acceptance,
                },
            ];
            // Per-model plan samples come from the live registry snapshot,
            // so rotated models drop out of the label set at the next
            // scrape instead of leaving stale series behind.
            let models: Vec<crate::metrics::ModelPlanSample> = state
                .registry
                .list()
                .iter()
                .map(|m| crate::metrics::ModelPlanSample {
                    name: m.name.clone(),
                    compiled: m.plan.num_compiled() as u64,
                    fallback: m.plan.num_declined() as u64,
                })
                .collect();
            (
                Endpoint::Metrics,
                200,
                "OK",
                state.metrics.render(&gauges, &models),
            )
        }
        ("GET", "/models") => {
            let mut out = String::new();
            for m in state.registry.list() {
                out.push_str(&format!(
                    "{}\tclauses={}\tunknown_constants={}\n",
                    m.name,
                    m.definition.len(),
                    m.unknown_constants.len()
                ));
            }
            (Endpoint::Models, 200, "OK", out)
        }
        ("POST", "/models") => {
            let report = state.registry.reload(&state.ds.db);
            let mut out = format!("loaded {}\n", report.loaded.join(" "));
            for (file, err) in &report.errors {
                out.push_str(&format!("error {file}: {err}\n"));
            }
            (Endpoint::Models, 200, "OK", out)
        }
        ("POST", "/jobs/learn") => {
            if state.shutting_down.load(Ordering::SeqCst) {
                return (
                    Endpoint::Jobs,
                    503,
                    "Service Unavailable",
                    "shutting down\n".to_string(),
                );
            }
            match JobSpec::parse(&req.body) {
                Ok(spec) => {
                    let job = state.jobs.spawn_learn(
                        spec,
                        state.ds.clone(),
                        state.registry.clone(),
                        Some(state.ledger.clone()),
                        Some(state.traces.clone()),
                    );
                    (
                        Endpoint::Jobs,
                        202,
                        "Accepted",
                        format!(
                            "id {}\nmodel {}\ntrace {}\n",
                            job.id, job.model_name, job.trace_id
                        ),
                    )
                }
                Err(e) => (Endpoint::Jobs, 400, "Bad Request", format!("{e}\n")),
            }
        }
        ("GET", "/jobs") => {
            let mut out = String::new();
            for job in state.jobs.list() {
                out.push_str(&format!(
                    "{}\t{}\t{}\tclauses={}\n",
                    job.id,
                    job.model_name,
                    job.status().state.as_str(),
                    job.report.finish().clauses.len()
                ));
            }
            (Endpoint::Jobs, 200, "OK", out)
        }
        ("GET", path) if path.starts_with("/jobs/") => match parse_job_id(path, "") {
            Some(id) => match state.jobs.get(id) {
                Some(job) => (Endpoint::Jobs, 200, "OK", render_job(&job)),
                None => (Endpoint::Jobs, 404, "Not Found", format!("no job {id}\n")),
            },
            None => (
                Endpoint::Jobs,
                400,
                "Bad Request",
                "expected /jobs/{id}\n".to_string(),
            ),
        },
        ("POST", path) if path.starts_with("/jobs/") && path.ends_with("/cancel") => {
            match parse_job_id(path, "/cancel") {
                Some(id) => match state.jobs.get(id) {
                    Some(job) => {
                        job.cancel();
                        (Endpoint::Jobs, 200, "OK", render_job(&job))
                    }
                    None => (Endpoint::Jobs, 404, "Not Found", format!("no job {id}\n")),
                },
                None => (
                    Endpoint::Jobs,
                    400,
                    "Bad Request",
                    "expected /jobs/{id}/cancel\n".to_string(),
                ),
            }
        }
        ("GET", "/runs") => {
            let mut out = String::new();
            for id in state.ledger.list() {
                out.push_str(&format!("{id}\n"));
            }
            (Endpoint::Runs, 200, "OK", out)
        }
        ("GET", path) if path.starts_with("/runs/") => {
            match path
                .strip_prefix("/runs/")
                .and_then(|s| s.parse::<u64>().ok())
            {
                Some(id) => match state.ledger.get(id) {
                    Some(json) => (Endpoint::Runs, 200, "OK", json),
                    None => (Endpoint::Runs, 404, "Not Found", format!("no run {id}\n")),
                },
                None => (
                    Endpoint::Runs,
                    400,
                    "Bad Request",
                    "expected /runs/{id}\n".to_string(),
                ),
            }
        }
        ("POST", "/shutdown") => {
            state.shutting_down.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag; it drops this
            // throwaway connection and begins the drain.
            let _ = TcpStream::connect(state.addr);
            (Endpoint::Shutdown, 200, "OK", "shutting down\n".to_string())
        }
        _ => (
            Endpoint::Other,
            404,
            "Not Found",
            format!("no route {} {}\n{API_HELP}", req.method, req.path),
        ),
    }
}

fn parse_job_id(path: &str, suffix: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// `GET /jobs/{id}`: the job's state and a view over its run report.
pub(crate) fn render_job(job: &crate::jobs::Job) -> String {
    let s = job.status();
    let r = job.report.finish();
    // Positives still uncovered as of the latest event; unknown until the
    // bottom clauses are built.
    let uncovered = r
        .outcome
        .as_ref()
        .map(|o| o.uncovered_pos)
        .or_else(|| r.iterations.last().map(|it| it.uncovered_after))
        .or_else(|| r.bc.as_ref().map(|bc| bc.pos_examples));
    let mut out = format!(
        "id {}\nmodel {}\ntrace {}\nstate {}\nclauses {}\nuncovered {}\niteration {}\nprogress {}/{}\n",
        job.id,
        job.model_name,
        job.trace_id,
        s.state.as_str(),
        r.clauses.len(),
        uncovered.unwrap_or(0),
        r.iterations.last().map_or(0, |it| it.iteration),
        uncovered.map_or(0, |u| job.pos_total.saturating_sub(u)),
        job.pos_total
    );
    if let Some(secs) = s.elapsed_secs {
        out.push_str(&format!("elapsed {secs:.3}\n"));
    }
    if let Some(o) = &r.outcome {
        out.push_str(&format!("phase bc_build {:.3}\n", o.bc_secs));
        out.push_str(&format!("phase clause_search {:.3}\n", o.search_secs));
    }
    if let Some(plan) = &r.plan {
        out.push_str(&format!(
            "plan compiled={} fallback={}\n",
            plan.compiled_clauses, plan.fallback_clauses
        ));
    }
    if !s.detail.is_empty() {
        out.push_str(&format!("detail {}\n", s.detail));
    }
    out
}

/// The first tuple line of a `/predict` body (the line after `model NAME`),
/// rendered the way the response echoes it.
fn first_tuple(body: &str) -> String {
    let line = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .nth(1)
        .unwrap_or_default();
    parse_arg_tuple(line).map_or_else(|_| line.to_string(), |fields| fields.join(","))
}

/// `POST /predict` body: a `model NAME` line, then one comma-separated tuple
/// per line. The response has one `TUPLE\tpositive|negative` line per input
/// tuple, in order.
///
/// The whole batch is parsed up front into one flat constants buffer, then
/// evaluated in one pass: each tuple runs the model's compiled plans first,
/// and only a tuple no compiled clause covers runs the clauses the compiler
/// declined, through the interpreter with scratch buffers reused across
/// tuples. The verdicts equal the interpreter's over the whole definition —
/// the differential suites hold them to that.
fn handle_predict(
    state: &Arc<AppState>,
    body: &str,
    trace_id: Option<&str>,
) -> Result<(String, PredictInfo), (u16, &'static str, String)> {
    let mut lines = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or((
        400,
        "Bad Request",
        "empty body: expected `model NAME`\n".to_string(),
    ))?;
    let name = header
        .strip_prefix("model ")
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .ok_or((
            400,
            "Bad Request",
            format!("first line must be `model NAME`, got {header:?}\n"),
        ))?;
    let entry = state.registry.get(name).ok_or((
        404,
        "Not Found",
        format!("no model {name:?} (see GET /models)\n"),
    ))?;

    let db = &state.ds.db;
    // Re-derive the model's ephemeral constant ids: resolving its unknown
    // strings first, in first-seen order, reproduces the ids assigned when
    // the model was parsed, so a request mentioning the same out-of-data
    // string compares equal to the model's constant.
    let mut resolver = ConstResolver::new(db.dict());
    for s in &entry.unknown_constants {
        resolver.resolve(s);
    }

    let rel = entry
        .definition
        .clauses
        .first()
        .map(|c| c.head.rel)
        .unwrap_or(state.ds.target);
    let arity = db.catalog().schema(rel).arity();

    // Parse the batch: echo strings per tuple plus one flat `Const` buffer
    // with stride `arity` (no per-tuple allocation on the eval path).
    let mut echo: Vec<String> = Vec::new();
    let mut consts: Vec<relstore::Const> = Vec::new();
    for (i, line) in lines.enumerate() {
        let fields = parse_arg_tuple(line)
            .map_err(|e| (400, "Bad Request", format!("tuple {}: {e}\n", i + 1)))?;
        if fields.len() != arity {
            return Err((
                400,
                "Bad Request",
                format!(
                    "tuple {}: target takes {arity} arguments, got {}\n",
                    i + 1,
                    fields.len()
                ),
            ));
        }
        consts.extend(fields.iter().map(|f| resolver.resolve(f)));
        echo.push(fields.join(","));
    }
    if echo.is_empty() {
        return Err((
            400,
            "Bad Request",
            "no tuples: expected one CSV tuple per line after `model NAME`\n".to_string(),
        ));
    }

    let qcfg = QueryConfig::default();
    let mut verdicts = vec![false; echo.len()];
    let plans = &entry.plan;
    crate::metrics::PREDICT_TUPLES.add(echo.len() as u64);
    let mut sp = obs::span!("predict.compiled_batch");
    let mut scratch = EvalScratch::default();
    let mut exec = plan::ExecScratch::default();
    let mut interpreted = 0u64;
    // One plain-counter tally for the whole batch, flushed into the model's
    // atomics once at the end.
    let mut tally = plan::BatchTally::for_definition(plans);
    for (t, verdict) in verdicts.iter_mut().enumerate() {
        let args = &consts[t * arity..(t + 1) * arity];
        let mut covered = plans.covers_compiled_tallied(db, args, &mut exec, &mut tally);
        // Clauses the compiler declined still participate in the
        // definition's disjunction — interpret them for tuples no compiled
        // clause covered.
        if !covered && !plans.is_fully_compiled() {
            interpreted += 1;
            covered = plans.declined().iter().any(|&(i, _)| {
                clause_covers_args(
                    db,
                    &entry.definition.clauses[i],
                    rel,
                    args,
                    &qcfg,
                    &mut scratch,
                )
            });
        }
        *verdict = covered;
    }
    sp.note("tuples", echo.len() as u64);
    crate::metrics::PREDICT_INTERPRETED_TUPLES.add(interpreted);
    entry.stats.absorb(&tally);
    let q_errors = plan::step_q_errors(plans, &tally);
    for &q in &q_errors {
        crate::metrics::observe_qerror_traced(q, trace_id);
    }
    crate::metrics::PLAN_VARIANT_SELECTIONS.add(tally.multi_variant_selections());
    drop(sp);

    let mut out = String::with_capacity(echo.len() * 24);
    for (fields, covered) in echo.iter().zip(&verdicts) {
        out.push_str(&format!(
            "{fields}\t{}\n",
            if *covered { "positive" } else { "negative" }
        ));
    }
    let info = PredictInfo {
        model: name.to_string(),
        tuples: echo.len() as u64,
        interpreter_fallback: interpreted > 0,
        plan: tally.totals(),
        max_qerror: q_errors.into_iter().reduce(f64::max),
    };
    Ok((out, info))
}
