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

use crate::access_log::AccessLog;
use crate::events::sse_frame;
use crate::http::{
    finish_chunked, read_request_from, write_chunk, write_response, write_response_extra,
    write_stream_head, HttpError, Request, MAX_REQUESTS_PER_CONN,
};
use crate::jobs::{JobManager, JobSpec};
use crate::ledger::RunLedger;
use crate::metrics::{endpoint_name, Endpoint, GaugeSample, Metrics};
use crate::pool::WorkerPool;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::trace::{truncate_sample, PredictInfo, RequestRecord, StoredTrace, TraceStore};
use autobias::example::split_arg_tuple;
use autobias::query::{clause_covers_args, EvalScratch, QueryConfig};
use datasets::io::load_dataset;
use datasets::Dataset;
use obs::json::Json;
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
    // The request and the response bytes reuse their buffers across the
    // connection's requests.
    let mut req = Request::default();
    let mut out = Vec::new();
    let mut served = 0usize;
    loop {
        let t_read = Instant::now();
        match read_request_from(&mut reader, &mut req) {
            Ok(()) => {}
            Err(HttpError::Bad(m)) => {
                state.finish_unrouted(Endpoint::Other, None, 400, t_read.elapsed());
                let _ = write_response(&mut conn, 400, "Bad Request", &format!("{m}\n"));
                return;
            }
            // Client went away, or an idle keep-alive connection timed out
            // or closed cleanly between requests; nothing to say.
            Err(HttpError::Io(_)) => return,
        }
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
        let mut r = {
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
        // Tail sampling: the finished tree is kept only when the request is
        // worth a postmortem (error / interpreter fallback / slow outlier).
        let reason = trace.as_ref().and_then(|_| {
            let fallback = r.predict.as_ref().is_some_and(|p| p.interpreter_fallback);
            state.traces.keep_reason(r.status, fallback, latency_us)
        });
        // One record per request that is logged or kept; a request that is
        // neither builds none, and pays nothing for the argument sample cut
        // from its body.
        if reason.is_some() || state.access_log.is_some() {
            let record = RequestRecord {
                trace_id: trace_hex.clone(),
                route: endpoint_name(r.endpoint),
                method: req.method.clone(),
                path: req.path.clone(),
                status: r.status,
                latency_us,
                args_sample: r
                    .predict
                    .as_ref()
                    .map_or_else(String::new, |_| truncate_sample(&first_tuple(&req.body))),
                predict: r.predict.take(),
                reason,
            };
            if let Some(log) = &state.access_log {
                log.log(&record);
            }
            if let (Some(ctx), Some(_)) = (trace, reason) {
                state.traces.keep(StoredTrace {
                    record,
                    tree: ctx.finish(),
                });
            }
        }
        let trace_header = [("x-autobias-trace-id", trace_hex.as_str())];
        let extra: &[(&str, &str)] = if trace_id.is_some() {
            &trace_header
        } else {
            &[]
        };
        let wrote = write_response_extra(
            &mut conn,
            &mut out,
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

/// A routed response, plus the batch a served prediction hands to the
/// request's record.
struct Routed {
    endpoint: Endpoint,
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
    predict: Option<PredictInfo>,
}

impl Routed {
    fn text(
        endpoint: Endpoint,
        status: u16,
        reason: &'static str,
        body: impl Into<String>,
    ) -> Self {
        Self {
            endpoint,
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            predict: None,
        }
    }

    /// A JSON body: a [`Json`] value, or a document rendered as text
    /// elsewhere (a chrome export, which is streamed, never held whole).
    fn json(
        endpoint: Endpoint,
        status: u16,
        reason: &'static str,
        body: impl std::fmt::Display,
    ) -> Self {
        Self {
            content_type: "application/json",
            ..Self::text(endpoint, status, reason, format!("{body}\n"))
        }
    }

    /// The one error body of the JSON routes: `{"error": msg}`.
    fn error(
        endpoint: Endpoint,
        status: u16,
        reason: &'static str,
        msg: impl Into<String>,
    ) -> Self {
        let msg: String = msg.into();
        Self::json(endpoint, status, reason, Json::obj([("error", msg.into())]))
    }
}

impl AppState {
    /// Accounts a request answered outside [`route`]: an SSE stream, or a
    /// request whose head did not parse (`req` is `None`, so its method and
    /// path are unknown). Such a request is never traced, so it gets a
    /// record only when there is an access log to write it to.
    fn finish_unrouted(
        &self,
        endpoint: Endpoint,
        req: Option<&Request>,
        status: u16,
        latency: Duration,
    ) {
        self.metrics.observe(endpoint, latency, status >= 400);
        if let Some(log) = &self.access_log {
            log.log(&RequestRecord {
                trace_id: String::new(),
                route: endpoint_name(endpoint),
                method: req.map_or_else(String::new, |r| r.method.clone()),
                path: req.map_or_else(String::new, |r| r.path.clone()),
                status,
                latency_us: latency.as_micros() as u64,
                predict: None,
                args_sample: String::new(),
                reason: None,
            });
        }
    }
}

/// `GET /jobs/{id}/events`: replays the job's event log as an SSE stream
/// over chunked transfer, then follows it live until the job terminates.
/// A client hanging up mid-stream is normal operation — it bumps
/// `client_disconnects_total` and the request still counts as a success.
fn handle_events_stream(state: &Arc<AppState>, conn: &mut TcpStream, req: &Request, t0: Instant) {
    let finish = |status| state.finish_unrouted(Endpoint::Events, Some(req), status, t0.elapsed());
    let Some(id) = parse_job_id(&req.path, "/events") else {
        finish(400);
        let _ = write_response(conn, 400, "Bad Request", "expected /jobs/{id}/events\n");
        return;
    };
    let Some(job) = state.jobs.get(id) else {
        finish(404);
        let _ = write_response(conn, 404, "Not Found", &format!("no job {id}\n"));
        return;
    };
    if write_stream_head(conn, 200, "OK", "text/event-stream").is_err() {
        state.metrics.disconnect();
        finish(200);
        return;
    }
    // Lead with the job's trace id so a watcher can correlate the stream
    // with the archived trace (`GET /debug/traces/{trace_id}`) before any
    // progress event arrives.
    let trace_frame = sse_frame(
        "trace",
        &Json::obj([
            ("event", "trace".into()),
            ("trace_id", job.trace_id.as_str().into()),
        ]),
    );
    if write_chunk(conn, trace_frame.as_bytes()).is_err() {
        state.metrics.disconnect();
        finish(200);
        return;
    }
    let mut disconnected = false;
    let mut next = 0usize;
    'stream: loop {
        let batch = job.events.wait_from(next, Duration::from_millis(500));
        next = batch.next;
        if batch.missed > 0 {
            let frame = sse_frame(
                "dropped",
                &Json::obj([("event", "dropped".into()), ("missed", batch.missed.into())]),
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
    finish(200);
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

/// The one router: every request but the SSE stream is one arm of this
/// match on `(method, path)`.
fn route(state: &Arc<AppState>, req: &Request, trace_id: Option<&str>) -> Routed {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Routed::text(Endpoint::Healthz, 200, "OK", "ok\n"),
        ("GET", "/metrics") => handle_metrics(state),
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
            Routed::text(Endpoint::Models, 200, "OK", out)
        }
        ("POST", "/models") => {
            let report = state.registry.reload(&state.ds.db);
            let mut out = format!("loaded {}\n", report.loaded.join(" "));
            for (file, err) in &report.errors {
                out.push_str(&format!("error {file}: {err}\n"));
            }
            Routed::text(Endpoint::Models, 200, "OK", out)
        }
        ("POST" | "PUT", path) if let Some(name) = path.strip_prefix("/models/") => {
            handle_model_upload(state, name, &req.body)
        }
        ("GET", path)
            if let Some(name) = path
                .strip_prefix("/models/")
                .and_then(|rest| rest.strip_suffix("/plan")) =>
        {
            handle_plan(state, name, &req.query)
        }
        ("POST", "/predict") => handle_predict(state, &req.body, trace_id),
        ("GET", "/debug/slow") => {
            Routed::json(Endpoint::Debug, 200, "OK", state.traces.slow_json())
        }
        ("GET", "/debug/traces") => {
            Routed::json(Endpoint::Debug, 200, "OK", state.traces.list_json())
        }
        ("GET", path) if let Some(id) = path.strip_prefix("/debug/traces/") => {
            let found = if req.query.split('&').any(|kv| kv == "format=chrome") {
                state
                    .traces
                    .get_chrome(id)
                    .map(|doc| Routed::json(Endpoint::Debug, 200, "OK", doc))
            } else {
                state
                    .traces
                    .get_json(id)
                    .map(|doc| Routed::json(Endpoint::Debug, 200, "OK", doc))
            };
            found.unwrap_or_else(|| {
                Routed::error(
                    Endpoint::Debug,
                    404,
                    "Not Found",
                    format!("no kept trace {id}"),
                )
            })
        }
        ("POST", "/jobs/learn") => handle_learn(state, &req.body),
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
            Routed::text(Endpoint::Jobs, 200, "OK", out)
        }
        ("GET", path) if path.starts_with("/jobs/") => handle_job(state, path, "", |_| {}),
        ("POST", path) if path.starts_with("/jobs/") && path.ends_with("/cancel") => {
            handle_job(state, path, "/cancel", crate::jobs::Job::cancel)
        }
        ("GET", "/runs") => {
            let mut out = String::new();
            for id in state.ledger.list() {
                out.push_str(&format!("{id}\n"));
            }
            Routed::text(Endpoint::Runs, 200, "OK", out)
        }
        ("GET", path) if let Some(id) = path.strip_prefix("/runs/") => {
            let Ok(id) = id.parse::<u64>() else {
                return Routed::error(Endpoint::Runs, 400, "Bad Request", "expected /runs/{id}");
            };
            // Served like a kept tree from disk: the ledger's text is parsed
            // back, so a damaged file is never sent as JSON.
            match state
                .ledger
                .get(id)
                .and_then(|text| Json::parse(&text).ok())
            {
                Some(report) => Routed::json(Endpoint::Runs, 200, "OK", report),
                None => Routed::error(Endpoint::Runs, 404, "Not Found", format!("no run {id}")),
            }
        }
        ("POST", "/shutdown") => {
            state.shutting_down.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag; it drops this
            // throwaway connection and begins the drain.
            let _ = TcpStream::connect(state.addr);
            Routed::text(Endpoint::Shutdown, 200, "OK", "shutting down\n")
        }
        (method, path) => Routed::text(
            Endpoint::Other,
            404,
            "Not Found",
            format!("no route {method} {path}\n{API_HELP}"),
        ),
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
        return Routed::error(
            Endpoint::Models,
            400,
            "Bad Request",
            format!("model name must be 1-64 chars of [A-Za-z0-9_-], got {name:?}"),
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
            report.to_json(),
        );
    };
    if definition.clauses.is_empty() {
        return Routed::error(Endpoint::Models, 400, "Bad Request", "model has no clauses");
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
            verify.to_json(),
        );
    }
    let text = if body.ends_with('\n') {
        body.to_string()
    } else {
        format!("{body}\n")
    };
    if let Err(e) = std::fs::write(&path, &text) {
        return Routed::error(
            Endpoint::Models,
            500,
            "Internal Server Error",
            format!("persisting model: {e}"),
        );
    }
    state.registry.insert(entry);
    obs::info!("model {name} uploaded ({clauses} clause(s))");
    Routed::json(
        Endpoint::Models,
        201,
        "Created",
        Json::obj([
            ("name", name.into()),
            ("clauses", clauses.into()),
            ("diagnostics", report.to_json()),
        ]),
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
        return Routed::error(
            Endpoint::Plan,
            404,
            "Not Found",
            format!("no model {name} (see GET /models)"),
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
    let json = plan::explain(
        &state.ds.db,
        Some(name),
        &entry.unknown_constants,
        &entry.definition,
        &entry.plan,
        analyzed,
    );
    Routed::json(Endpoint::Plan, 200, "OK", json)
}

/// `GET /metrics`: Prometheus text, with gauges read at scrape time.
fn handle_metrics(state: &Arc<AppState>) -> Routed {
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
            value: state.jobs.submitted() as f64,
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
    // Per-model plan samples come from the live registry snapshot, so
    // rotated models drop out of the label set at the next scrape instead
    // of leaving stale series behind.
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
    Routed::text(
        Endpoint::Metrics,
        200,
        "OK",
        state.metrics.render(&gauges, &models),
    )
}

/// `POST /jobs/learn`: starts a background learning job.
fn handle_learn(state: &Arc<AppState>, body: &str) -> Routed {
    if state.shutting_down.load(Ordering::SeqCst) {
        return Routed::text(
            Endpoint::Jobs,
            503,
            "Service Unavailable",
            "shutting down\n",
        );
    }
    match JobSpec::parse(body) {
        Ok(spec) => {
            let job = state.jobs.spawn_learn(
                spec,
                state.ds.clone(),
                state.registry.clone(),
                Some(state.ledger.clone()),
                Some(state.traces.clone()),
            );
            Routed::text(
                Endpoint::Jobs,
                202,
                "Accepted",
                format!(
                    "id {}\nmodel {}\ntrace {}\n",
                    job.id, job.model_name, job.trace_id
                ),
            )
        }
        Err(e) => Routed::text(Endpoint::Jobs, 400, "Bad Request", format!("{e}\n")),
    }
}

/// `GET /jobs/{id}` and `POST /jobs/{id}/cancel`: applies `act` to the job
/// `path` names (ending in `suffix`) and renders it.
fn handle_job(
    state: &Arc<AppState>,
    path: &str,
    suffix: &str,
    act: impl FnOnce(&crate::jobs::Job),
) -> Routed {
    let Some(id) = parse_job_id(path, suffix) else {
        return Routed::text(
            Endpoint::Jobs,
            400,
            "Bad Request",
            format!("expected /jobs/{{id}}{suffix}\n"),
        );
    };
    let Some(job) = state.jobs.get(id) else {
        return Routed::text(Endpoint::Jobs, 404, "Not Found", format!("no job {id}\n"));
    };
    act(&job);
    Routed::text(Endpoint::Jobs, 200, "OK", render_job(&job))
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
    split_arg_tuple(line).map_or_else(
        |_| line.to_string(),
        |fields| {
            let mut echo = String::with_capacity(line.len());
            push_echo(&mut echo, fields);
            echo
        },
    )
}

/// Appends a tuple's echo: its trimmed fields joined by bare commas, so
/// `" a , b "` echoes `a,b`.
fn push_echo<'a>(out: &mut String, fields: impl Iterator<Item = &'a str>) {
    for (k, field) in fields.enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(field);
    }
}

/// `POST /predict` body: a `model NAME` line, then one comma-separated tuple
/// per line in the grammar of [`split_arg_tuple`]. The response has one
/// `TUPLE\tpositive|negative` line per input tuple, in order, where `TUPLE`
/// is the tuple's trimmed fields joined by bare commas.
///
/// The batch allocates per batch, never per tuple. One pass splits each
/// line into fields borrowed from the body and resolves them straight into
/// one flat constants buffer; the split fields stay behind, still borrowed,
/// as the tuple's echo. Evaluation then runs each tuple through the model's
/// compiled plans first, and only a tuple no compiled clause covers runs
/// the clauses the compiler declined, through the interpreter with scratch
/// buffers reused across tuples. The verdicts equal the interpreter's over
/// the whole definition — the differential suites hold them to that. Last,
/// every response line is appended to one buffer sized for the batch.
fn handle_predict(state: &Arc<AppState>, body: &str, trace_id: Option<&str>) -> Routed {
    let bad = |msg: String| Routed::text(Endpoint::Predict, 400, "Bad Request", msg);
    let mut lines = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let Some(header) = lines.next() else {
        return bad("empty body: expected `model NAME`\n".to_string());
    };
    let Some(name) = header
        .strip_prefix("model ")
        .map(str::trim)
        .filter(|n| !n.is_empty())
    else {
        return bad(format!("first line must be `model NAME`, got {header:?}\n"));
    };
    let Some(entry) = state.registry.get(name) else {
        return Routed::text(
            Endpoint::Predict,
            404,
            "Not Found",
            format!("no model {name:?} (see GET /models)\n"),
        );
    };

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

    // Parse and resolve in one pass: `consts` holds every tuple's constants
    // with stride `arity`, and `echoes` each tuple's fields, still borrowed
    // from the body, for the response.
    let mut echoes = Vec::new();
    let mut consts: Vec<relstore::Const> = Vec::new();
    // Response bytes: an echo is never longer than its line.
    let mut out_len = 0;
    for (i, line) in lines.enumerate() {
        let fields = match split_arg_tuple(line) {
            Ok(fields) => fields,
            Err(e) => return bad(format!("tuple {}: {e}\n", i + 1)),
        };
        let start = consts.len();
        consts.extend(fields.clone().map(|f| resolver.resolve(f)));
        let got = consts.len() - start;
        if got != arity {
            return bad(format!(
                "tuple {}: target takes {arity} arguments, got {got}\n",
                i + 1
            ));
        }
        echoes.push(fields);
        out_len += line.len() + "\tnegative\n".len();
    }
    if echoes.is_empty() {
        return bad("no tuples: expected one CSV tuple per line after `model NAME`\n".to_string());
    }

    let qcfg = QueryConfig::default();
    let mut verdicts = vec![false; echoes.len()];
    let plans = &entry.plan;
    crate::metrics::PREDICT_TUPLES.add(echoes.len() as u64);
    let mut sp = obs::span!("predict.compiled_batch");
    let mut scratch = EvalScratch::default();
    let mut exec = plan::ExecScratch::default();
    let mut interpreted = 0u64;
    // One plain-counter tally for the whole batch, flushed into the model's
    // atomics once at the end.
    let mut tally = plan::BatchTally::for_definition(plans);
    for (args, verdict) in consts.chunks_exact(arity).zip(&mut verdicts) {
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
    // The batch's plan summary rides on its span, so a kept trace's tree
    // carries it next to the request record's `plan` object.
    let totals = tally.totals();
    sp.note("tuples", echoes.len() as u64);
    sp.note("entries", totals.entries);
    sp.note("candidates", totals.candidates);
    sp.note("rejected", totals.rejected);
    sp.note("backtracks", totals.backtracks);
    sp.note("node_limit_hits", totals.node_limit_hits);
    crate::metrics::PREDICT_INTERPRETED_TUPLES.add(interpreted);
    entry.stats.absorb(&tally);
    let q_errors = plan::step_q_errors(plans, &tally);
    for &q in &q_errors {
        crate::metrics::observe_qerror_traced(q, trace_id);
    }
    crate::metrics::PLAN_VARIANT_SELECTIONS.add(tally.multi_variant_selections());
    drop(sp);

    let tuples = echoes.len() as u64;
    let mut out = String::with_capacity(out_len);
    for (fields, covered) in echoes.into_iter().zip(verdicts) {
        push_echo(&mut out, fields);
        out.push_str(if covered {
            "\tpositive\n"
        } else {
            "\tnegative\n"
        });
    }
    let info = PredictInfo {
        model: name.to_string(),
        tuples,
        interpreter_fallback: interpreted > 0,
        plan: totals,
        max_qerror: q_errors.into_iter().reduce(f64::max),
    };
    Routed {
        predict: Some(info),
        ..Routed::text(Endpoint::Predict, 200, "OK", out)
    }
}
