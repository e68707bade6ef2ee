//! `bench_serve` — serving benchmark with latency SLO gates, writing a
//! `BENCH_serve_<dataset>.json` trajectory file for `bench_compare`.
//!
//! Two measurements over the same dataset + model:
//!
//! 1. **Engine comparison** (in-process): batch predictions per second
//!    through the compiled plans vs. the interpreter, on the same example
//!    pool in the same process — the `speedup` ratio is the headline number
//!    the plan compiler exists for.
//! 2. **HTTP load** (open loop): boots the real server in-process, drives
//!    batch `/predict` over `--connections` keep-alive connections at a
//!    fixed target rate, and reports achieved throughput and p50/p99/p999
//!    latency. Requests are claimed from a global tick counter and latency
//!    is measured from each tick's *scheduled* time, so a stalled server
//!    accrues the queueing delay it caused (no coordinated omission).
//!
//! Usage:
//!   bench_serve --data DIR --models DIR [--model NAME] [--rate RPS]
//!               [--duration-secs S] [--connections C] [--batch B]
//!               [--threads T] [--out FILE] [--measure-secs S]
//!               [--min-speedup X] [--max-p99-ms MS]
//!
//! Exits non-zero when an SLO is violated: `speedup < --min-speedup`
//! (default 10×) or `p99 > --max-p99-ms` (default 50 ms).

#![allow(clippy::unwrap_used)] // bench harness: fail fast on broken setup

use autobias::query::{definition_covers_args, EvalScratch, QueryConfig};
use autobias_bench::harness::Args;
use autobias_serve::http::read_response_head;
use autobias_serve::{serve, ServeConfig};
use obs::json::json_escape;
use relstore::Const;
use std::fmt::Write as _;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One-shot request on a fresh `Connection: close` socket — used for setup
/// and teardown so it never pins a pool worker the way a held keep-alive
/// connection does.
fn oneshot(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    conn.write_all(head.as_bytes()).unwrap();
    conn.write_all(body.as_bytes()).unwrap();
    conn.flush().unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {raw:?}"));
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// One keep-alive connection issuing sequential `/predict` requests.
struct Client {
    write_half: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).ok();
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let read_half = conn.try_clone().expect("clone socket");
        Self {
            write_half: conn,
            reader: BufReader::new(read_half),
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.write_half.write_all(head.as_bytes())?;
        self.write_half.write_all(body.as_bytes())?;
        self.write_half.flush()?;
        let (status, headers) = read_response_head(&mut self.reader)
            .map_err(|e| std::io::Error::other(format!("response head: {e}")))?;
        let len: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .expect("content-length on fixed responses");
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8(body).unwrap()))
    }

    /// Issues the request, transparently reconnecting once if the server
    /// rotated the connection (it closes keep-alive connections after
    /// `MAX_REQUESTS_PER_CONN` requests). The reconnect cost lands in this
    /// request's measured latency, as it would for any real client.
    fn request(&mut self, addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        match self.try_request(method, path, body) {
            Ok(r) => r,
            Err(_) => {
                *self = Client::connect(addr);
                self.try_request(method, path, body)
                    .expect("request after reconnect")
            }
        }
    }
}

/// `q`-th percentile (0..1) of sorted `lat` (µs).
fn percentile(lat: &[u64], q: f64) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    let idx = ((q * lat.len() as f64).ceil() as usize).clamp(1, lat.len()) - 1;
    lat[idx]
}

/// Runs `eval` over the whole pool repeatedly until `measure_secs` of wall
/// clock have elapsed (whole passes only, at least one); returns
/// (predictions, elapsed).
fn measure_passes(pool_len: usize, measure_secs: f64, mut eval: impl FnMut()) -> (usize, Duration) {
    let t0 = Instant::now();
    let mut n = 0usize;
    loop {
        eval();
        n += pool_len;
        if t0.elapsed().as_secs_f64() >= measure_secs {
            return (n, t0.elapsed());
        }
    }
}

fn metrics_sample(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}

fn main() -> ExitCode {
    let args = Args::parse();
    let data = PathBuf::from(args.get_str("--data").expect("--data DIR is required"));
    let models = PathBuf::from(args.get_str("--models").expect("--models DIR is required"));
    let model = args.get_str("--model").unwrap_or("coauthor").to_string();
    let rate: f64 = args.get("--rate", 500.0);
    let duration_secs: f64 = args.get("--duration-secs", 10.0);
    let connections: usize = args.get("--connections", 4);
    let batch: usize = args.get("--batch", 64);
    let threads: usize = args.get("--threads", 4);
    let measure_secs: f64 = args.get("--measure-secs", 1.0);
    let min_speedup: f64 = args.get("--min-speedup", 10.0);
    let max_p99_ms: f64 = args.get("--max-p99-ms", 50.0);
    let out = PathBuf::from(args.get_str("--out").unwrap_or("BENCH_serve_uw.json"));

    // --- shared setup: dataset, model, example pool -----------------------
    let ds = datasets::io::load_dataset(&data).expect("load dataset");
    let model_text =
        std::fs::read_to_string(models.join(format!("{model}.model"))).expect("read model file");
    let (definition, _unknown) =
        autobias::clause_text::parse_definition_frozen(&ds.db, &model_text).expect("parse model");
    let rel = definition
        .clauses
        .first()
        .map(|c| c.head.rel)
        .unwrap_or(ds.target);
    let pool: Vec<Vec<Const>> = ds
        .pos
        .iter()
        .chain(ds.neg.iter())
        .map(|e| e.args.to_vec())
        .collect();
    assert!(!pool.is_empty(), "dataset has no examples to predict on");
    println!(
        "pool: {} tuples; model {model}: {} clause(s)",
        pool.len(),
        definition.len()
    );

    // --- phase 1: compiled vs. interpreted engine throughput --------------
    let plans = plan::compile_definition(&ds.db, &definition, &plan::CompileConfig::default());
    println!(
        "plan: {} compiled, {} declined",
        plans.num_compiled(),
        plans.num_declined()
    );
    let qcfg = QueryConfig::default();

    let mut scratch = EvalScratch::default();
    let (n_int, t_int) = measure_passes(pool.len(), measure_secs, || {
        for args in &pool {
            std::hint::black_box(definition_covers_args(
                &ds.db,
                &definition,
                rel,
                args,
                &qcfg,
                &mut scratch,
            ));
        }
    });
    let interpreted_pps = n_int as f64 / t_int.as_secs_f64();

    // The exact /predict recipe: the compiled disjunction is the verdict
    // (the server loads only fully compiled models).
    let mut exec = plan::ExecScratch::default();
    let (n_cmp, t_cmp) = measure_passes(pool.len(), measure_secs, || {
        for args in &pool {
            std::hint::black_box(plans.covers_compiled_with(&ds.db, args, &mut exec));
        }
    });
    let compiled_pps = n_cmp as f64 / t_cmp.as_secs_f64();
    let speedup = compiled_pps / interpreted_pps;
    println!(
        "engine: interpreted {interpreted_pps:.0}/s ({n_int} preds), \
         compiled {compiled_pps:.0}/s ({n_cmp} preds), speedup {speedup:.1}x"
    );

    // --- phase 2: open-loop HTTP load over keep-alive connections ---------
    // Each held keep-alive connection occupies one pool worker for its
    // lifetime, so the server needs at least one worker per load connection.
    let threads = threads.max(connections);
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data.clone(),
        models_dir: models.clone(),
        threads,
        access_log: None,
        // The HTTP phase measures the untraced fast path (one relaxed load
        // per span site), so the bench_compare gate against the committed
        // baseline holds request tracing to zero overhead when off.
        request_trace: false,
    };
    let (handle, report) = serve(&cfg).expect("server boots");
    assert!(
        report.loaded.contains(&model),
        "model {model} not loaded (loaded: {:?})",
        report.loaded
    );
    let addr = handle.addr();

    let mut body = format!("model {model}\n");
    for i in 0..batch {
        let args = &pool[i % pool.len()];
        let fields: Vec<&str> = args.iter().map(|&c| ds.db.const_name(c)).collect();
        body.push_str(&fields.join(","));
        body.push('\n');
    }
    // Warm-up / sanity: the batch answers with one verdict per tuple.
    let (status, first) = oneshot(addr, "POST", "/predict", &body);
    assert_eq!(status, 200, "predict failed: {first}");
    assert_eq!(first.lines().count(), batch);

    let total_ticks = (rate * duration_secs).ceil() as usize;
    let next_tick = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(50);
    let t_load = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                let body = &body;
                let next_tick = &next_tick;
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let mut lat = Vec::new();
                    loop {
                        let i = next_tick.fetch_add(1, Ordering::Relaxed);
                        if i >= total_ticks {
                            break;
                        }
                        let sched = start + Duration::from_secs_f64(i as f64 / rate);
                        std::thread::sleep(sched.saturating_duration_since(Instant::now()));
                        let (status, _) = client.request(addr, "POST", "/predict", body);
                        assert_eq!(status, 200);
                        // From the *scheduled* tick, not the send: queueing
                        // delay behind a slow server counts against it.
                        lat.push(sched.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load worker"))
            .collect()
    });
    let elapsed = t_load.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let requests = latencies.len();
    let achieved_rps = requests as f64 / elapsed;
    let (p50, p99, p999) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.99),
        percentile(&latencies, 0.999),
    );
    println!(
        "http: {requests} requests in {elapsed:.2}s (target {rate:.0}/s, achieved \
         {achieved_rps:.0}/s), p50 {p50}us p99 {p99}us p999 {p999}us"
    );

    let (status, metrics) = oneshot(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let plan_compiled = metrics_sample(&metrics, "autobias_plan_compiled_total");
    let keepalive_reuses = metrics_sample(&metrics, "autobias_http_keepalive_reuses_total");
    let predict_tuples = metrics_sample(&metrics, "autobias_predict_tuples_total");
    // Plan-observability counters: q-error observations prove the per-op
    // stats pipeline stayed engaged under load; variant selections only move
    // on multi-variant plans, so they are recorded but not gated.
    let qerror_observations = metrics_sample(&metrics, "autobias_plan_estimate_qerror_count");
    let variant_selections = metrics_sample(&metrics, "autobias_plan_variant_selections_total");
    let (status, _) = oneshot(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();

    // --- trajectory file ---------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    writeln!(json, "  \"dataset\": \"{}\",", json_escape(ds.name)).unwrap();
    writeln!(json, "  \"model\": \"{}\",", json_escape(&model)).unwrap();
    writeln!(json, "  \"pool_tuples\": {},", pool.len()).unwrap();
    writeln!(json, "  \"batch\": {batch},").unwrap();
    writeln!(json, "  \"connections\": {connections},").unwrap();
    writeln!(json, "  \"threads\": {threads},").unwrap();
    writeln!(json, "  \"target_rps\": {rate:.1},").unwrap();
    writeln!(json, "  \"duration_secs\": {duration_secs:.1},").unwrap();
    json.push_str("  \"methods\": {\n");
    writeln!(json, "    \"interpreted\": {{").unwrap();
    writeln!(json, "      \"predictions_per_sec\": {interpreted_pps:.1},").unwrap();
    writeln!(json, "      \"predictions\": {n_int},").unwrap();
    writeln!(json, "      \"phases\": {{}}").unwrap();
    writeln!(json, "    }},").unwrap();
    writeln!(json, "    \"compiled\": {{").unwrap();
    writeln!(json, "      \"predictions_per_sec\": {compiled_pps:.1},").unwrap();
    writeln!(json, "      \"predictions\": {n_cmp},").unwrap();
    writeln!(json, "      \"speedup\": {speedup:.2},").unwrap();
    writeln!(json, "      \"phases\": {{}}").unwrap();
    writeln!(json, "    }},").unwrap();
    writeln!(json, "    \"http\": {{").unwrap();
    writeln!(json, "      \"request_trace\": false,").unwrap();
    writeln!(json, "      \"achieved_rps\": {achieved_rps:.1},").unwrap();
    writeln!(json, "      \"requests\": {requests},").unwrap();
    writeln!(json, "      \"p50_us\": {p50},").unwrap();
    writeln!(json, "      \"p99_us\": {p99},").unwrap();
    writeln!(json, "      \"p999_us\": {p999},").unwrap();
    writeln!(json, "      \"phases\": {{}},").unwrap();
    writeln!(json, "      \"counters\": {{").unwrap();
    writeln!(
        json,
        "        \"autobias_plan_compiled_total\": {plan_compiled},"
    )
    .unwrap();
    writeln!(
        json,
        "        \"autobias_http_keepalive_reuses_total\": {keepalive_reuses},"
    )
    .unwrap();
    writeln!(
        json,
        "        \"autobias_predict_tuples_total\": {predict_tuples},"
    )
    .unwrap();
    writeln!(
        json,
        "        \"autobias_plan_estimate_qerror_count\": {qerror_observations},"
    )
    .unwrap();
    writeln!(
        json,
        "        \"autobias_plan_variant_selections_total\": {variant_selections}"
    )
    .unwrap();
    writeln!(json, "      }}").unwrap();
    writeln!(json, "    }}").unwrap();
    json.push_str("  }\n}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {}", out.display());

    // --- SLO gates ---------------------------------------------------------
    let mut failed = false;
    if speedup < min_speedup {
        eprintln!("SLO VIOLATION: compiled/interpreted speedup {speedup:.1}x < {min_speedup}x");
        failed = true;
    }
    let p99_ms = p99 as f64 / 1000.0;
    if p99_ms > max_p99_ms {
        eprintln!("SLO VIOLATION: p99 {p99_ms:.2}ms > {max_p99_ms}ms");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("SLOs met: speedup {speedup:.1}x >= {min_speedup}x, p99 {p99_ms:.2}ms <= {max_p99_ms}ms");
        ExitCode::SUCCESS
    }
}
