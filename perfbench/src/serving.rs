//! The `serve-point` and `serve-batch` workloads: the resident server on the
//! UW serve profile with the committed co-authorship model, driven closed
//! loop over one keep-alive connection (one tuple, or a batch of tuples, per
//! `/predict`).
//!
//! The untimed generation step also computes the expected verdict of every
//! pool tuple twice, through the compiled plans and through the
//! interpreter; every served verdict must equal both. Both come from the
//! build under test, so the verdicts are also pinned: at a data seed in
//! [`KNOWN_SERVED`] the served verdicts must hash to the recorded value.
//!
//! The data seed is fixed ([`crate::DATA_SEED`] unless `--data-seed`
//! overrides it) and `--seed` shuffles the order the pool is requested in.
//! The cost of a request is measured as the CPU time of the server's
//! threads (the process's minus the client's, which is the calling
//! thread), which hypervisor steal does not inflate; wall latency is
//! printed as context and reported by the traced run.

use crate::report::{Outcome, Values};
use crate::spans::{per_item_ns, phase_total_s, Spans};
use crate::stats::{highest_tail, median, percentile, ratio, tail_at, Sample};
use autobias::clause::Definition;
use autobias::query::{clause_covers_args, definition_covers_args, EvalScratch, QueryConfig};
use autobias_serve::http::read_response_head;
use autobias_serve::{serve, ServeConfig, ServerHandle};
use plan::CompiledDefinition;
use relstore::{Const, Database, RelId};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// The served model, read from the checkout by the generation step.
const MODEL_SRC: &str = "examples/models/uw_coauthor.model";
const MODEL: &str = "coauthor";

/// Server boots are repeated at least this often, and until they have
/// taken [`SETUP_MIN_TOTAL`], at most [`SETUP_MAX_REPS`] times. A boot
/// takes about 40 ms and single boots vary by a third (page faults in
/// loading), so the median is taken over many.
const SETUP_MIN_REPS: usize = 30;
const SETUP_MAX_REPS: usize = 400;
const SETUP_MIN_TOTAL: Duration = Duration::from_secs(3);

/// F-measure of the served verdicts against the pool labels, rounded to
/// four places, and the FNV-1a hash of the verdicts in pool order, at the
/// data seeds measured so far; any other data seed is checked only against
/// the in-process verdicts.
const KNOWN_SERVED: &[(u64, f64, u64)] = &[
    (1, 0.7202, 0x6b68_5b73_dfd9_1a6e),
    (2, 0.7217, 0x9f1d_6215_f62d_dba2),
    (3, 0.6951, 0x5805_bbb0_4f01_5aac),
    (4, 0.7354, 0x09aa_0198_89a0_9e46),
    (5, 0.7297, 0xb12a_d7a7_9876_5b4d),
    (7, 0.7147, 0xabd6_b4aa_5bc1_b43b),
];

/// Latency samples kept per load phase, at most: a uniform sample of
/// every request (see [`Sample`]), enough for a p99.9 with ten samples
/// beyond it, in 512 KiB whatever the request count.
const MAX_SAMPLES: usize = 1 << 16;

/// Verdict of the `/predict` recipe: compiled plans first, the interpreter
/// only for clauses the compiler declined.
fn compiled_verdict(
    db: &Database,
    def: &Definition,
    plans: &CompiledDefinition,
    rel: RelId,
    args: &[Const],
) -> bool {
    let mut exec = plan::ExecScratch::default();
    plans.covers_compiled_with(db, args, &mut exec)
        || plans.declined().iter().any(|&(i, _)| {
            let mut scratch = EvalScratch::default();
            clause_covers_args(
                db,
                &def.clauses[i],
                rel,
                args,
                &QueryConfig::default(),
                &mut scratch,
            )
        })
}

/// Verdict of the interpreter alone.
fn interpreted_verdict(db: &Database, def: &Definition, rel: RelId, args: &[Const]) -> bool {
    let mut scratch = EvalScratch::default();
    definition_covers_args(db, def, rel, args, &QueryConfig::default(), &mut scratch)
}

/// One pool tuple with its label and expected verdicts.
#[derive(Debug, Clone, PartialEq)]
struct PoolTuple {
    line: String,
    positive: bool,
    compiled: bool,
    interpreted: bool,
}

/// `splitmix64`: a seeded shuffle that needs no dependency.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn parse_model(db: &Database, text: &str) -> Result<Definition, String> {
    autobias::clause_text::parse_definition_frozen(db, text)
        .map(|(def, _unknown)| def)
        .map_err(|e| format!("parse {MODEL_SRC}: {e}"))
}

/// Writes the serve-profile dataset for `seed`, the model, and the pool
/// with expected verdicts, in dataset order, into `dir` (the untimed
/// generation step).
pub fn generate(seed: u64, dir: &Path) -> Result<(), String> {
    let ds = datasets::uw::generate(&datasets::uw::serve_profile(), seed);
    let data = dir.join("data");
    datasets::io::save_dataset(&ds, &data).map_err(|e| format!("save {}: {e}", data.display()))?;
    let model = std::fs::read_to_string(MODEL_SRC).map_err(|e| format!("read {MODEL_SRC}: {e}"))?;
    let models = dir.join("models");
    std::fs::create_dir_all(&models).map_err(|e| e.to_string())?;
    std::fs::write(models.join(format!("{MODEL}.model")), &model).map_err(|e| e.to_string())?;

    // Expected verdicts come from the files the server will load.
    let ds =
        datasets::io::load_dataset(&data).map_err(|e| format!("load {}: {e}", data.display()))?;
    let def = parse_model(&ds.db, &model)?;
    let rel = def.clauses.first().map_or(ds.target, |c| c.head.rel);
    let plans = plan::compile_definition(&ds.db, &def, &plan::CompileConfig::default());
    let pool = ds
        .pos
        .iter()
        .map(|e| (e, true))
        .chain(ds.neg.iter().map(|e| (e, false)));
    let mut text = String::new();
    for (e, positive) in pool {
        let names: Vec<&str> = e.args.iter().map(|&c| ds.db.const_name(c)).collect();
        let compiled = compiled_verdict(&ds.db, &def, &plans, rel, &e.args);
        let interpreted = interpreted_verdict(&ds.db, &def, rel, &e.args);
        text.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            u8::from(positive),
            u8::from(compiled),
            u8::from(interpreted),
            names.join(",")
        ));
    }
    std::fs::write(dir.join("pool.tsv"), text).map_err(|e| e.to_string())
}

fn read_pool(dir: &Path) -> Result<Vec<PoolTuple>, String> {
    let text =
        std::fs::read_to_string(dir.join("pool.tsv")).map_err(|e| format!("read pool: {e}"))?;
    text.lines()
        .map(|l| {
            let f: Vec<&str> = l.splitn(4, '\t').collect();
            match f[..] {
                [p, c, i, line] => Ok(PoolTuple {
                    line: line.to_string(),
                    positive: p == "1",
                    compiled: c == "1",
                    interpreted: i == "1",
                }),
                _ => Err(format!("bad pool line {l:?}")),
            }
        })
        .collect()
}

/// One keep-alive client connection issuing sequential requests.
struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    connects: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            conn: None,
            connects: 0,
        }
    }

    fn connect(&mut self) -> std::io::Result<()> {
        let conn = TcpStream::connect(self.addr)?;
        conn.set_nodelay(true)?;
        conn.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(conn.try_clone()?);
        self.conn = Some((conn, reader));
        self.connects += 1;
        Ok(())
    }

    /// Sends one request and reads the whole response. Opens a connection
    /// first when the server closed the previous one (it rotates keep-alive
    /// connections); that cost is part of this request, as for any client.
    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        if self.conn.is_none() {
            self.connect()?;
        }
        let (w, r) = self.conn.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let result = (|| {
            w.write_all(head.as_bytes())?;
            w.write_all(body.as_bytes())?;
            w.flush()?;
            let (status, headers) = read_response_head(r)?;
            let header = |name: &str| {
                headers
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v.as_str())
            };
            let len: usize = header("content-length")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| std::io::Error::other("response without content-length"))?;
            let mut buf = vec![0u8; len];
            r.read_exact(&mut buf)?;
            let closing = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
            let text = String::from_utf8(buf).map_err(std::io::Error::other)?;
            Ok((status, text, closing))
        })();
        match result {
            Ok((status, text, closing)) => {
                if closing {
                    self.conn = None;
                }
                Ok((status, text))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }
}

/// One request on its own connection (boot checks and shutdown).
fn oneshot(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<u16> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    write!(conn, "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")?;
    let mut reader = BufReader::new(conn);
    let (status, _) = read_response_head(&mut reader)?;
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest)?;
    Ok(status)
}

fn server_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn boot(dir: &Path, request_trace: bool) -> Result<ServerHandle, String> {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: dir.join("data"),
        models_dir: dir.join("models"),
        threads: server_threads(),
        access_log: None,
        request_trace,
    };
    let (handle, report) = serve(&cfg)?;
    if !report.loaded.iter().any(|m| m == MODEL) {
        stop(handle)?;
        return Err(format!("model {MODEL} not loaded: {:?}", report.errors));
    }
    Ok(handle)
}

fn stop(handle: ServerHandle) -> Result<(), String> {
    let status =
        oneshot(handle.addr(), "POST", "/shutdown").map_err(|e| format!("shutdown: {e}"))?;
    handle.join();
    (status == 200)
        .then_some(())
        .ok_or(format!("shutdown answered {status}"))
}

/// Boots the server repeatedly, timing each boot until ready (process CPU
/// seconds, wall seconds); keeps the last one running.
fn boot_repeated(
    dir: &Path,
    request_trace: bool,
) -> Result<(ServerHandle, Vec<f64>, Vec<f64>), String> {
    let t0 = Instant::now();
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    loop {
        let (t, cpu0) = (Instant::now(), crate::host::process_cpu_s());
        let handle = boot(dir, request_trace)?;
        cpu.push(crate::host::process_cpu_s() - cpu0);
        wall.push(t.elapsed().as_secs_f64());
        let enough = cpu.len() >= SETUP_MIN_REPS && t0.elapsed() >= SETUP_MIN_TOTAL;
        if enough || cpu.len() >= SETUP_MAX_REPS {
            return Ok((handle, cpu, wall));
        }
        stop(handle)?;
    }
}

/// Request bodies covering the pool in the given `order`, `per_request`
/// tuples each (the last wraps around), with the pool indices each one
/// carries.
fn bodies(pool: &[PoolTuple], order: &[usize], per_request: usize) -> Vec<(String, Vec<usize>)> {
    let n = order.len();
    (0..n.div_ceil(per_request))
        .map(|b| {
            let idx: Vec<usize> = (0..per_request)
                .map(|k| order[(b * per_request + k) % n])
                .collect();
            let mut body = format!("model {MODEL}\n");
            for &i in &idx {
                body.push_str(&pool[i].line);
                body.push('\n');
            }
            (body, idx)
        })
        .collect()
}

/// What one closed-loop load phase observed.
struct Load {
    /// A uniform sample of the request latencies in µs, ascending.
    latencies_us: Vec<f64>,
    elapsed: Duration,
    /// CPU seconds of the server's threads over the load phase.
    server_cpu_s: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    served: Vec<Option<bool>>,
    connects: u64,
}

/// Checks one response against the expected verdicts; returns a problem.
fn check_response(
    pool: &[PoolTuple],
    idx: &[usize],
    text: &str,
    served: &mut [Option<bool>],
) -> Option<String> {
    let mut lines = 0;
    for (line, &i) in text.lines().zip(idx) {
        lines += 1;
        let t = &pool[i];
        let Some((echo, verdict)) = line.split_once('\t') else {
            return Some(format!("malformed verdict line {line:?}"));
        };
        let positive = verdict == "positive";
        if echo != t.line || !(positive || verdict == "negative") {
            return Some(format!("response line {line:?} for tuple {:?}", t.line));
        }
        if positive != t.compiled || positive != t.interpreted {
            return Some(format!(
                "tuple {:?}: served {verdict}, compiled {}, interpreted {}",
                t.line, t.compiled, t.interpreted
            ));
        }
        served[i] = Some(positive);
    }
    (lines != idx.len()).then(|| format!("{lines} verdicts for {} tuples", idx.len()))
}

fn drive(
    addr: SocketAddr,
    pool: &[PoolTuple],
    bodies: &[(String, Vec<usize>)],
    seconds: f64,
    spans: &mut Spans,
) -> Load {
    let mut client = Client::new(addr);
    let mut latencies_us = Sample::new(MAX_SAMPLES);
    let mut load = Load {
        latencies_us: Vec::new(),
        elapsed: Duration::ZERO,
        server_cpu_s: 0.0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        served: vec![None; pool.len()],
        connects: 0,
    };
    // The client runs on this thread; every other thread is the server's.
    let server_cpu_s = || crate::host::process_cpu_s() - crate::host::thread_cpu_s();
    let cpu0 = server_cpu_s();
    let t0 = Instant::now();
    let mut k = 0usize;
    while t0.elapsed().as_secs_f64() < seconds {
        let (body, idx) = &bodies[k % bodies.len()];
        k += 1;
        let t = Instant::now();
        let response = client.request("POST", "/predict", body);
        let dur = t.elapsed();
        spans.record("serve.request", 0, t, dur);
        load.attempted += 1;
        latencies_us.push(dur.as_secs_f64() * 1e6);
        let problem = match response {
            Ok((200, text)) => check_response(pool, idx, &text, &mut load.served),
            Ok((status, text)) => Some(format!("status {status}: {}", text.trim())),
            Err(e) => Some(format!("request failed: {e}")),
        };
        if let Some(p) = problem {
            load.failed += 1;
            if load.errors.len() < 5 {
                load.errors.push(p);
            }
        }
    }
    load.elapsed = t0.elapsed();
    load.server_cpu_s = server_cpu_s() - cpu0;
    load.connects = client.connects;
    load.latencies_us = latencies_us.into_sorted();
    load
}

/// F-measure of the served verdicts against the pool labels.
fn served_f(pool: &[PoolTuple], served: &[Option<bool>]) -> f64 {
    let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
    for (t, s) in pool.iter().zip(served) {
        match (*s, t.positive) {
            (Some(true), true) => tp += 1,
            (Some(true), false) => fp += 1,
            (Some(false), true) => fn_ += 1,
            _ => {}
        }
    }
    autobias::eval::Metrics { tp, fp, fn_ }.f_measure()
}

/// FNV-1a hash of the served verdicts in pool order (`1` positive, `0`
/// negative, `?` never served).
fn verdict_hash(served: &[Option<bool>]) -> u64 {
    served
        .iter()
        .map(|s| match s {
            Some(true) => b'1',
            Some(false) => b'0',
            None => b'?',
        })
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// Runs the workload with `per_request` tuples per `/predict` on the files
/// in `dir`, generated from data seed `data_seed`, requesting the pool in
/// the order `seed` shuffles it into.
pub fn run(
    per_request: usize,
    dir: &Path,
    data_seed: u64,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Outcome, String> {
    let pool = read_pool(dir)?;
    let mut order: Vec<usize> = (0..pool.len()).collect();
    shuffle(&mut order, seed);
    let bodies = bodies(&pool, &order, per_request);
    let mut out = Outcome::default();
    for t in pool.iter().filter(|t| t.compiled != t.interpreted) {
        out.errors.push(format!(
            "tuple {:?}: compiled and interpreted verdicts differ",
            t.line
        ));
    }
    let mut quiet = Spans::new(false);
    let (handle, boots, boots_wall) = boot_repeated(dir, false)?;
    let base = drive(handle.addr(), &pool, &bodies, seconds, &mut quiet);
    stop(handle)?;

    out.attempted = base.attempted;
    out.failed = base.failed;
    out.errors.extend(base.errors.iter().cloned());
    let unserved = base.served.iter().filter(|s| s.is_none()).count();
    if unserved > 0 && out.failed == 0 {
        out.errors
            .push(format!("{unserved} pool tuple(s) never served"));
    }
    let f = served_f(&pool, &base.served);
    let hash = verdict_hash(&base.served);
    if let Some(&(_, want_f, want_hash)) = KNOWN_SERVED.iter().find(|(s, ..)| *s == data_seed) {
        if (f - want_f).abs() > 5e-5 || hash != want_hash {
            out.errors.push(format!(
                "served f_measure {f:.4}, verdict hash {hash:016x} at data seed {data_seed}, \
                 expected {want_f:.4}, {want_hash:016x}"
            ));
        }
    }
    let sorted = &base.latencies_us;
    let p50 = percentile(sorted, 0.5).map_or(0.0, |(v, _)| v);
    out.detail("pool_tuples", pool.len());
    out.detail("tuples_per_request", per_request);
    out.detail("server_threads", server_threads());
    out.detail("client_connections", 1);
    out.detail("boots", boots.len());
    out.detail("boot_wall_s", median(&boots_wall).unwrap_or(0.0));
    out.detail(
        "server_cpu_us_per_request",
        ratio(base.server_cpu_s * 1e6, base.attempted as f64),
    );
    out.detail("requests", base.attempted);
    out.detail("verdict_hash", format!("{hash:016x}"));
    out.detail("latency_p50_us", p50);
    out.detail("latency_samples", sorted.len());
    if let Some(t) = highest_tail(sorted) {
        out.detail(
            "latency_tail",
            format!(
                "p{} {:.1} us ({} samples beyond)",
                t.q * 100.0,
                t.value,
                t.beyond
            ),
        );
    }
    out.detail(
        "throughput_per_s",
        ratio(base.attempted as f64, base.elapsed.as_secs_f64()),
    );

    if !trace {
        let v = &mut out.values;
        v.set("setup_s", median(&boots).unwrap_or(0.0));
        v.set(
            "cpu_ms_per_op",
            ratio(base.server_cpu_s * 1e3, base.attempted as f64),
        );
        v.set("f_measure", f);
        v.set("peak_rss_mb", crate::host::peak_rss_mb());
        return Ok(out);
    }

    let mut spans = Spans::new(true);
    let (handle, _) = spans.time("serve.boot", 0, || boot(dir, true));
    let handle = handle?;
    let reuse_counter = &autobias_serve::metrics::KEEPALIVE_REUSES;
    let phase_us = |name| phase_total_s(name) * 1e6;
    let reuses0 = reuse_counter.get();
    let (http0, batch0) = (phase_us("http.request"), phase_us("predict.compiled_batch"));
    let traced = drive(handle.addr(), &pool, &bodies, seconds, &mut spans);
    let reuses = reuse_counter.get() - reuses0;
    let (http, batch) = (
        phase_us("http.request") - http0,
        phase_us("predict.compiled_batch") - batch0,
    );
    stop(handle)?;
    out.errors.extend(traced.errors.iter().cloned());
    if traced.served != base.served {
        out.errors
            .push("traced and untraced runs served different verdicts".to_string());
    }

    let v = &mut out.values;
    let requests = traced.attempted as f64;
    let sorted = &traced.latencies_us;
    let traced_p50 = percentile(sorted, 0.5).map_or(0.0, |(v, _)| v);
    let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
    v.set(
        "serve.throughput_per_s",
        ratio(requests, traced.elapsed.as_secs_f64()),
    );
    v.set("serve.latency_p50_us", traced_p50);
    for (name, q) in [
        ("serve.latency_p90_us", 0.90),
        ("serve.latency_p99_us", 0.99),
        ("serve.latency_p999_us", 0.999),
    ] {
        v.set(name, tail_at(sorted, q).map_or(0.0, |t| t.value));
    }
    if let Some(t) = highest_tail(sorted) {
        v.set("serve.latency_tail_us", t.value);
        v.set("serve.latency_tail_pct", t.q * 100.0);
    }
    v.set("serve.latency_samples", sorted.len() as f64);
    v.set(
        "serve.cpu_us_per_request",
        ratio(traced.server_cpu_s * 1e6, requests),
    );
    v.set(
        "serve.keepalive_reuse_ratio",
        ratio(reuses as f64, requests),
    );
    v.set("serve.http_request_span_us", ratio(http, requests));
    v.set("serve.compiled_batch_span_us", ratio(batch, requests));
    v.set(
        "obs.trace_overhead_ratio",
        ratio(mean(&traced.latencies_us), mean(&base.latencies_us)),
    );
    in_process_layers(dir, &pool, per_request, traced_p50, &mut spans, v)?;
    out.detail("traced_connects", traced.connects);
    out.spans = Some(spans);
    Ok(out)
}

/// Times the layers a request passes through, in-process on the same
/// files: load, compile, then per tuple parse, resolve and execute.
fn in_process_layers(
    dir: &Path,
    pool: &[PoolTuple],
    per_request: usize,
    traced_p50_us: f64,
    spans: &mut Spans,
    v: &mut Values,
) -> Result<(), String> {
    let data = dir.join("data");
    let mut load_s = Vec::new();
    let mut ds = None;
    for _ in 0..3 {
        let (loaded, dur) = spans.time("relstore.load", 1, || datasets::io::load_dataset(&data));
        ds = Some(loaded.map_err(|e| format!("load {}: {e}", data.display()))?);
        load_s.push(dur.as_secs_f64());
    }
    let ds = ds.expect("loaded three times");
    let db = &ds.db;
    let model = std::fs::read_to_string(dir.join("models").join(format!("{MODEL}.model")))
        .map_err(|e| e.to_string())?;
    let def = parse_model(db, &model)?;
    let mut compile_s = Vec::new();
    let mut plans = None;
    for _ in 0..9 {
        let (p, dur) = spans.time("plan.compile", 1, || {
            plan::compile_definition(db, &def, &plan::CompileConfig::default())
        });
        plans = Some(p);
        compile_s.push(dur.as_secs_f64());
    }
    let plans = plans.expect("compiled nine times");

    let lines: Vec<&str> = pool.iter().map(|t| t.line.as_str()).collect();
    let (parse_ns, _) = spans.time("serve.parse", 1, || {
        per_item_ns(lines.len(), || {
            for l in &lines {
                let _ = std::hint::black_box(autobias::example::parse_arg_tuple(l));
            }
        })
    });
    let fields: Vec<Vec<String>> = lines
        .iter()
        .map(|l| {
            autobias::example::parse_arg_tuple(l).map_err(|e| format!("pool tuple {l:?}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let (resolve_ns, _) = spans.time("relstore.resolve", 1, || {
        per_item_ns(fields.len(), || {
            let mut resolver = relstore::ConstResolver::new(db.dict());
            for fs in &fields {
                for f in fs {
                    std::hint::black_box(resolver.resolve(f));
                }
            }
        })
    });
    let mut resolver = relstore::ConstResolver::new(db.dict());
    let consts: Vec<Vec<Const>> = fields
        .iter()
        .map(|fs| fs.iter().map(|f| resolver.resolve(f)).collect())
        .collect();
    let mut exec = plan::ExecScratch::default();
    let (exec_ns, _) = spans.time("plan.exec", 1, || {
        per_item_ns(consts.len(), || {
            for args in &consts {
                std::hint::black_box(plans.covers_compiled_with(db, args, &mut exec));
            }
        })
    });

    v.set("relstore.load_s", median(&load_s).unwrap_or(0.0));
    v.set("relstore.resolve_ns_per_tuple", resolve_ns);
    v.set("plan.compile_s", median(&compile_s).unwrap_or(0.0));
    v.set("plan.exec_ns_per_tuple", exec_ns);
    v.set("plan.compiled_clauses", plans.num_compiled() as f64);
    v.set("plan.declined_clauses", plans.num_declined() as f64);
    v.set("serve.parse_ns_per_tuple", parse_ns);
    let in_process_us = per_request as f64 * (parse_ns + resolve_ns + exec_ns) / 1e3;
    v.set("serve.overhead_us", traced_p50_us - in_process_us);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> Vec<PoolTuple> {
        (0..n)
            .map(|i| PoolTuple {
                line: format!("s{i},prof{i}"),
                positive: i % 3 == 0,
                compiled: i % 2 == 0,
                interpreted: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn bodies_cover_the_pool_and_wrap() {
        let p = pool(5);
        let order = [3, 1, 4, 0, 2];
        let b = bodies(&p, &order, 2);
        assert_eq!(b.len(), 3);
        assert_eq!(b[2].1, vec![2, 3]);
        assert_eq!(b[0].0, "model coauthor\ns3,prof3\ns1,prof1\n");
        let point = bodies(&p, &order, 1);
        assert_eq!(point.len(), 5);
        assert_eq!(point[4].1, vec![2]);
    }

    #[test]
    fn responses_must_match_both_expected_verdicts() {
        let p = pool(3);
        let mut served = vec![None; 3];
        let ok = "s0,prof0\tpositive\ns1,prof1\tnegative\n";
        assert_eq!(check_response(&p, &[0, 1], ok, &mut served), None);
        assert_eq!(served, vec![Some(true), Some(false), None]);
        let wrong = "s0,prof0\tnegative\n";
        assert!(check_response(&p, &[0], wrong, &mut served).is_some());
        let short = "s0,prof0\tpositive\n";
        assert!(check_response(&p, &[0, 1], short, &mut served).is_some());
        let echo = "s9,prof9\tpositive\n";
        assert!(check_response(&p, &[0], echo, &mut served).is_some());
    }

    #[test]
    fn served_f_counts_each_pool_tuple_once() {
        let p = pool(6); // positives: 0, 3
        let served = vec![Some(true), Some(true), None, Some(false), None, None];
        // tp 1 (0), fp 1 (1), fn 1 (3): precision 0.5, recall 0.5.
        assert!((served_f(&p, &served) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn verdict_hash_depends_on_every_verdict_and_its_place() {
        let a = [Some(true), Some(false), None];
        assert_eq!(verdict_hash(&a), verdict_hash(&a.clone()));
        assert_ne!(
            verdict_hash(&a),
            verdict_hash(&[Some(false), Some(true), None])
        );
        assert_ne!(
            verdict_hash(&a),
            verdict_hash(&[Some(true), Some(false), Some(false)])
        );
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..100).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<_>>());
    }
}
