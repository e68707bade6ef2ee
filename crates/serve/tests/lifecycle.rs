//! End-to-end lifecycle test: boot on an ephemeral port, serve predictions
//! checked against a direct-evaluation oracle, hammer /predict from
//! concurrent clients, run a background learning job to completion, cancel
//! another, scrape metrics, and shut down gracefully.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::clause_text::parse_definition;
use autobias::query::{definition_covers, QueryConfig};
use autobias_serve::{serve, ServeConfig};
use datasets::io::{load_dataset, save_dataset};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const COAUTHOR_MODEL: &str = "advisedBy(x, y) ← publication(z, x), publication(z, y)\n";

/// One-shot HTTP client: sends a request, returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
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

fn setup_dirs(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("autobias_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data = base.join("data");
    let models = base.join("models");
    let ds = datasets::uw::generate(
        &datasets::uw::UwConfig {
            students: 25,
            professors: 10,
            courses: 12,
            advised_pairs: 14,
            negatives: 28,
            evidence_prob: 1.0,
            ..datasets::uw::UwConfig::default()
        },
        11,
    );
    save_dataset(&ds, &data).expect("save dataset");
    std::fs::create_dir_all(&models).unwrap();
    std::fs::write(models.join("coauthor.model"), COAUTHOR_MODEL).unwrap();
    (data, models)
}

fn poll_job(addr: SocketAddr, id: &str, deadline: Duration) -> String {
    let t0 = Instant::now();
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let state = body
            .lines()
            .find_map(|l| l.strip_prefix("state "))
            .unwrap_or_else(|| panic!("no state line in {body:?}"))
            .to_string();
        if matches!(state.as_str(), "done" | "cancelled" | "failed") {
            return body;
        }
        assert!(
            t0.elapsed() < deadline,
            "job {id} still {state} after {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn full_server_lifecycle() {
    let (data, models) = setup_dirs("lifecycle");
    let access_log = data.parent().unwrap().join("access.jsonl");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data.clone(),
        models_dir: models.clone(),
        threads: 4,
        access_log: Some(access_log.clone()),
        request_trace: true,
    };
    let (handle, report) = serve(&cfg).expect("server boots");
    assert_eq!(report.loaded, vec!["coauthor"]);
    assert!(report.errors.is_empty());
    let addr = handle.addr();

    // --- liveness ---
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // --- model listing ---
    let (status, body) = request(addr, "GET", "/models", "");
    assert_eq!(status, 200);
    assert!(body.contains("coauthor\tclauses=1"), "{body}");

    // --- predict, checked against the direct-evaluation oracle ---
    let mut oracle_ds = load_dataset(&data).expect("oracle load");
    let def = parse_definition(&mut oracle_ds.db, COAUTHOR_MODEL).expect("oracle model");
    let qcfg = QueryConfig::default();
    let examples: Vec<_> = oracle_ds
        .pos
        .iter()
        .chain(oracle_ds.neg.iter())
        .take(12)
        .collect();
    let mut predict_body = String::from("model coauthor\n");
    let mut expected = String::new();
    for e in &examples {
        let fields: Vec<&str> = e.args.iter().map(|&c| oracle_ds.db.const_name(c)).collect();
        predict_body.push_str(&format!("{}\n", fields.join(", ")));
        let covered = definition_covers(&oracle_ds.db, &def, e, &qcfg);
        expected.push_str(&format!(
            "{}\t{}\n",
            fields.join(","),
            if covered { "positive" } else { "negative" }
        ));
    }
    let (status, body) = request(addr, "POST", "/predict", &predict_body);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected, "server must agree with direct evaluation");
    assert!(
        body.lines().any(|l| l.ends_with("\tpositive")),
        "test data should contain at least one covered tuple:\n{body}"
    );
    assert!(
        body.lines().any(|l| l.ends_with("\tnegative")),
        "test data should contain at least one uncovered tuple:\n{body}"
    );

    // --- 8 concurrent clients see identical, correct results ---
    let concurrent_clients = 8;
    let requests_per_client = 5;
    let workers: Vec<_> = (0..concurrent_clients)
        .map(|_| {
            let predict_body = predict_body.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for _ in 0..requests_per_client {
                    let (status, body) = request(addr, "POST", "/predict", &predict_body);
                    assert_eq!(status, 200, "{body}");
                    assert_eq!(body, expected, "concurrent responses must be consistent");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("concurrent client");
    }

    // --- error paths ---
    let (status, body) = request(addr, "POST", "/predict", "model nosuch\na, b\n");
    assert_eq!(status, 404, "{body}");
    let (status, body) = request(addr, "POST", "/predict", "model coauthor\na,,b\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("empty field"), "{body}");
    let (status, body) = request(addr, "POST", "/predict", "model coauthor\n   \n");
    assert_eq!(status, 400, "{body}");
    let (status, body) = request(addr, "POST", "/predict", "model coauthor\nonly_one\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("takes 2 arguments"), "{body}");
    let (status, body) = request(addr, "GET", "/nosuch", "");
    assert_eq!(status, 404);
    assert!(
        body.contains("endpoints:"),
        "404 should list the API: {body}"
    );

    // --- request tracing: a traceparent-continued errored request is
    // tail-sampled and retrievable by its trace id ---
    let client_trace = "cafe000000000000000000000000feed";
    // A random-looking 64-bit parent id, too wide for an f64.
    let client_parent = "b7ad6b7169203331";
    let traced_body = "model nosuch\na, b\n";
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let head = format!(
        "POST /predict HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         traceparent: 00-{client_trace}-{client_parent}-01\r\nConnection: close\r\n\r\n",
        traced_body.len()
    );
    conn.write_all(head.as_bytes()).unwrap();
    conn.write_all(traced_body.as_bytes()).unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert!(
        raw.contains(&format!("x-autobias-trace-id: {client_trace}")),
        "response must echo the continued trace id: {raw}"
    );
    let (status, listing) = request(addr, "GET", "/debug/traces", "");
    assert_eq!(status, 200, "{listing}");
    assert!(listing.contains(client_trace), "{listing}");
    let (status, tree) = request(addr, "GET", &format!("/debug/traces/{client_trace}"), "");
    assert_eq!(status, 200, "{tree}");
    assert!(tree.contains("\"reason\":\"error\""), "{tree}");
    assert!(
        tree.contains("\"http.request\""),
        "root span in tree: {tree}"
    );
    let kept = obs::json::Json::parse(&tree).unwrap_or_else(|e| panic!("{e}\n{tree}"));
    assert_eq!(
        kept.path(&["tree", "remote_parent_id"])
            .and_then(|v| v.as_str()),
        Some(client_parent),
        "the caller's span id reads back exactly: {tree}"
    );
    let (status, chrome) = request(
        addr,
        "GET",
        &format!("/debug/traces/{client_trace}?format=chrome"),
        "",
    );
    assert_eq!(status, 200, "{chrome}");
    assert!(chrome.contains("\"ph\":\"X\""), "{chrome}");
    let (status, body) = request(addr, "GET", "/debug/traces/0000deadbeef", "");
    assert_eq!(status, 404, "{body}");

    // --- background learning job to completion ---
    let (status, body) = request(addr, "POST", "/jobs/learn", "name learned\nbias manual\n");
    assert_eq!(status, 202, "{body}");
    let id = body
        .lines()
        .find_map(|l| l.strip_prefix("id "))
        .expect("job id")
        .to_string();
    let job_trace = body
        .lines()
        .find_map(|l| l.strip_prefix("trace "))
        .expect("job trace id")
        .to_string();
    let final_status = poll_job(addr, &id, Duration::from_secs(120));
    assert!(final_status.contains("state done"), "{final_status}");
    assert!(
        final_status.contains(&format!("trace {job_trace}")),
        "{final_status}"
    );
    // The finished job's span tree (BC build, clause search) is kept
    // unconditionally in the trace store.
    let (status, job_tree) = request(addr, "GET", &format!("/debug/traces/{job_trace}"), "");
    assert_eq!(status, 200, "{job_tree}");
    assert!(job_tree.contains("\"reason\":\"job\""), "{job_tree}");
    assert!(job_tree.contains("\"learn\""), "{job_tree}");
    // The archived run report carries the same trace id.
    let (status, run_report) = request(addr, "GET", &format!("/runs/{id}"), "");
    assert_eq!(status, 200, "{run_report}");
    let run = obs::json::Json::parse(&run_report).unwrap_or_else(|e| panic!("{e}\n{run_report}"));
    assert_eq!(
        run.get("trace_id").and_then(|v| v.as_str()),
        Some(job_trace.as_str()),
        "{run_report}"
    );
    // --- requests answered outside the router: the job's SSE stream, an
    // unknown job's stream and a request line that does not parse ---
    let (status, events) = request(addr, "GET", &format!("/jobs/{id}/events"), "");
    assert_eq!(status, 200, "{events}");
    let (status, body) = request(addr, "GET", "/jobs/99/events", "");
    assert_eq!(status, 404, "{body}");
    let mut broken = TcpStream::connect(addr).unwrap();
    broken.write_all(b"BROKEN\r\n\r\n").unwrap();
    let mut raw = String::new();
    broken.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    let (_, body) = request(addr, "GET", "/models", "");
    assert!(body.contains("learned\t"), "{body}");
    assert!(models.join("learned.model").exists());
    let (status, body) = request(
        addr,
        "POST",
        "/predict",
        &predict_body.replace("coauthor", "learned"),
    );
    assert_eq!(status, 200, "{body}");
    assert!(
        body.lines().any(|l| l.ends_with("\tpositive")),
        "learned model should cover something:\n{body}"
    );

    // --- job cancellation terminates the job ---
    let (status, body) = request(
        addr,
        "POST",
        "/jobs/learn",
        "name doomed\nbias manual\nsampling full\n",
    );
    assert_eq!(status, 202, "{body}");
    let id2 = body
        .lines()
        .find_map(|l| l.strip_prefix("id "))
        .expect("job id")
        .to_string();
    let (status, _) = request(addr, "POST", &format!("/jobs/{id2}/cancel"), "");
    assert_eq!(status, 200);
    let final_status = poll_job(addr, &id2, Duration::from_secs(120));
    assert!(
        final_status.contains("state cancelled") || final_status.contains("state done"),
        "cancelled job must terminate: {final_status}"
    );
    let (status, body) = request(addr, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert_eq!(body.lines().count(), 2, "{body}");

    // --- model reload picks up a file added behind the server's back ---
    std::fs::write(
        models.join("tas.model"),
        "advisedBy(x, y) ← ta(z, x, v3), taughtBy(z, y, v3)\n",
    )
    .unwrap();
    let (status, body) = request(addr, "POST", "/models", "");
    assert_eq!(status, 200);
    assert!(body.contains("tas"), "{body}");

    // --- metrics reflect the traffic ---
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let predict_total: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("autobias_requests_total{endpoint=\"predict\"} "))
        .expect("predict counter")
        .parse()
        .unwrap();
    // 1 oracle batch + 8×5 concurrent + 4 error probes + 1 learned-model batch.
    let sent = 1 + concurrent_clients * requests_per_client + 4 + 1;
    assert!(
        predict_total >= sent as u64,
        "predict counter {predict_total} < sent {sent}"
    );
    assert!(metrics
        .contains("autobias_http_request_duration_seconds_bucket{route=\"predict\",le=\"+Inf\"}"));
    // The /metrics request itself is the one request in flight.
    assert!(
        metrics.contains("autobias_http_requests_in_flight 1"),
        "{metrics}"
    );
    // Traced predict requests leave trace-id exemplars on the latency
    // histogram (later traced requests may rotate which id a bucket holds,
    // so assert presence, not a specific id).
    assert!(
        metrics
            .contains("# EXEMPLAR autobias_http_request_duration_seconds_bucket{route=\"predict\""),
        "{metrics}"
    );
    assert!(metrics.contains("autobias_core_coverage_queries_total"));
    // coauthor + learned + tas + the cancelled job's partial "doomed" model.
    assert!(metrics.contains("autobias_models_loaded 4"), "{metrics}");
    assert!(metrics.contains("autobias_jobs_total 2"), "{metrics}");

    // --- graceful shutdown drains and stops ---
    let (status, body) = request(addr, "POST", "/shutdown", "");
    assert_eq!((status, body.as_str()), (200, "shutting down\n"));
    handle.join();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener must be closed after shutdown"
    );

    // --- the access log carries one correlated line per request ---
    let access = std::fs::read_to_string(&access_log).expect("access log written");
    assert!(
        access
            .lines()
            .any(|l| l.contains(client_trace) && l.contains("\"route\":\"predict\"")),
        "traced predict line in access log:\n{access}"
    );
    assert!(
        access.lines().any(|l| l.contains("\"status\":404")),
        "{access}"
    );
    // Requests answered outside the router get one record each, naming
    // the method and path when the head parsed.
    let records: Vec<obs::json::Json> = access
        .lines()
        .map(|l| obs::json::Json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();
    let logged = |route: &str, method: &str, path: &str, status: f64| {
        records
            .iter()
            .filter(|r| {
                let text = |k: &str| r.get(k).and_then(|v| v.as_str());
                [text("route"), text("method"), text("path")]
                    == [Some(route), Some(method), Some(path)]
                    && r.get("status").and_then(|v| v.as_f64()) == Some(status)
            })
            .count()
    };
    let stream = format!("/jobs/{id}/events");
    assert_eq!(logged("events", "GET", &stream, 200.0), 1, "{access}");
    assert_eq!(
        logged("events", "GET", "/jobs/99/events", 404.0),
        1,
        "{access}"
    );
    assert_eq!(logged("other", "", "", 400.0), 1, "{access}");

    let _ = std::fs::remove_dir_all(data.parent().unwrap());
}
