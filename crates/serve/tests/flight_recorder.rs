//! End-to-end flight-recorder test: start a learning job, stream its
//! progress events over `GET /jobs/{id}/events` (SSE over chunked
//! transfer), check the live progress fields on `GET /jobs/{id}`, fetch the
//! archived run report from `GET /runs/{id}`, and verify that a client
//! hanging up mid-stream is counted as a disconnect, not a request error.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias_serve::http::{read_response_head, ChunkedReader};
use autobias_serve::{serve, ServeConfig};
use datasets::io::save_dataset;
use obs::json::Json;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

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
    (data, models)
}

/// Consumes a whole SSE stream, returning `(event, data-json)` pairs.
/// Replay semantics make this timing-independent: connecting after the job
/// finished still yields the full event history before the stream closes.
fn read_sse(addr: SocketAddr, path: &str) -> Vec<(String, String)> {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    conn.flush().unwrap();
    let mut reader = BufReader::new(conn);
    let (status, headers) = read_response_head(&mut reader).expect("response head");
    assert_eq!(status, 200);
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "content-type" && v.starts_with("text/event-stream")),
        "{headers:?}"
    );
    assert!(
        headers
            .iter()
            .any(|(n, v)| n == "transfer-encoding" && v == "chunked"),
        "{headers:?}"
    );
    let mut chunks = ChunkedReader::new(reader);
    let mut raw = String::new();
    while let Some(chunk) = chunks.next_chunk().expect("chunk") {
        raw.push_str(&String::from_utf8(chunk).expect("utf-8 stream"));
    }
    let mut events = Vec::new();
    for frame in raw.split("\n\n") {
        let mut event = None;
        let mut data = None;
        for line in frame.lines() {
            if let Some(e) = line.strip_prefix("event: ") {
                event = Some(e.to_string());
            } else if let Some(d) = line.strip_prefix("data: ") {
                data = Some(d.to_string());
            }
            // `: keep-alive` comment lines fall through both prefixes.
        }
        if let (Some(e), Some(d)) = (event, data) {
            events.push((e, d));
        }
    }
    events
}

fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.trim().parse().ok()))
        .unwrap_or_else(|| panic!("no metric {name} in:\n{metrics}"))
}

#[test]
fn flight_recorder_end_to_end() {
    let (data, models) = setup_dirs("flight");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data.clone(),
        models_dir: models.clone(),
        threads: 4,
        access_log: None,
        request_trace: true,
    };
    let (handle, _) = serve(&cfg).expect("server boots");
    let addr = handle.addr();

    // --- start a learning job and stream its whole event history ---
    let (status, body) = request(addr, "POST", "/jobs/learn", "name flight\nbias manual\n");
    assert_eq!(status, 202, "{body}");
    let id = body
        .lines()
        .find_map(|l| l.strip_prefix("id "))
        .expect("job id")
        .to_string();

    let events = read_sse(addr, &format!("/jobs/{id}/events"));
    assert!(
        events.len() >= 4,
        "expected at least trace + bc_build + iteration + finished, got {events:?}"
    );
    // Every stream leads with the job's trace id so a watcher can correlate
    // the SSE feed with /debug/traces/{id}.
    assert_eq!(events[0].0, "trace");
    assert!(events[0].1.contains("trace_id"), "{:?}", events[0]);
    assert_eq!(events[1].0, "bc_build_finished");
    assert_eq!(events.last().unwrap().0, "finished");
    let accepted = events
        .iter()
        .filter(|(e, _)| e == "clause_accepted")
        .count();
    let iterations = events
        .iter()
        .filter(|(e, _)| e == "iteration_started")
        .count();
    assert!(accepted >= 1, "the UW job learns something: {events:?}");
    assert!(iterations >= accepted);
    for (event, data) in &events {
        let parsed = Json::parse(data).unwrap_or_else(|e| panic!("{event}: {e}\n{data}"));
        assert_eq!(parsed.get("event").unwrap().as_str(), Some(event.as_str()));
    }

    // A second stream replays the identical history (the log is closed).
    let replay = read_sse(addr, &format!("/jobs/{id}/events"));
    assert_eq!(events, replay, "replay must be deterministic");

    // --- live progress fields on the polling endpoint ---
    let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    assert!(body.contains("state done"), "{body}");
    let iteration_line: usize = body
        .lines()
        .find_map(|l| l.strip_prefix("iteration "))
        .expect("iteration line")
        .parse()
        .unwrap();
    assert_eq!(iteration_line, iterations, "{body}");
    let progress = body
        .lines()
        .find_map(|l| l.strip_prefix("progress "))
        .expect("progress line");
    let (covered, total) = progress.split_once('/').expect("covered/total");
    let (covered, total): (usize, usize) = (covered.parse().unwrap(), total.parse().unwrap());
    assert!(total > 0 && covered <= total, "{body}");
    let clauses_line: usize = body
        .lines()
        .find_map(|l| l.strip_prefix("clauses "))
        .expect("clauses line")
        .parse()
        .unwrap();
    assert_eq!(clauses_line, accepted, "{body}");

    // --- the archived run report agrees with the event stream ---
    let (status, body) = request(addr, "GET", "/runs", "");
    assert_eq!(status, 200);
    assert!(body.lines().any(|l| l == id), "{body}");
    let (status, body) = request(addr, "GET", &format!("/runs/{id}"), "");
    assert_eq!(status, 200);
    let report = Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    assert_eq!(report.get("schema_version").unwrap().as_f64(), Some(2.0));
    // Schema v2: the archived report records the final compile outcome.
    let plan_compiled = report
        .path(&["plan", "compiled_clauses"])
        .expect("v2 report has a plan section")
        .as_f64()
        .unwrap() as usize;
    let plan_fallback = report
        .path(&["plan", "fallback_clauses"])
        .unwrap()
        .as_f64()
        .unwrap() as usize;
    assert_eq!(plan_compiled + plan_fallback, accepted, "{body}");
    // The server names the dataset after the directory it was loaded from.
    assert_eq!(report.get("dataset").unwrap().as_str(), Some("data"));
    assert_eq!(
        report.path(&["params", "bias"]).unwrap().as_str(),
        Some("manual")
    );
    assert_eq!(
        report.get("iterations").unwrap().as_arr().unwrap().len(),
        iterations
    );
    assert_eq!(
        report.get("clauses").unwrap().as_arr().unwrap().len(),
        accepted
    );
    assert_eq!(
        report.path(&["outcome", "state"]).unwrap().as_str(),
        Some("done")
    );
    let phases = report.get("phases").unwrap().as_obj().unwrap();
    assert!(
        phases.iter().any(|(name, _)| name == "learn"),
        "phase timings must include the learn span: {body}"
    );
    let (status, _) = request(addr, "GET", "/runs/9999", "");
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/jobs/9999/events", "");
    assert_eq!(status, 404);

    // --- a client hanging up mid-stream is a disconnect, not an error ---
    let (status, body) = request(
        addr,
        "POST",
        "/jobs/learn",
        "name abandoned\nbias manual\nsampling full\ndepth 3\n",
    );
    assert_eq!(status, 202, "{body}");
    let id2 = body
        .lines()
        .find_map(|l| l.strip_prefix("id "))
        .expect("job id")
        .to_string();
    {
        let mut conn = TcpStream::connect(addr).expect("connect");
        write!(
            conn,
            "GET /jobs/{id2}/events HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        conn.flush().unwrap();
        // Read a little so the stream is established, then hang up with
        // data still coming — the server's next writes fail.
        let mut buf = [0u8; 64];
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let _ = conn.read(&mut buf);
    } // dropped: RST on the server's next write
    let (status, _) = request(addr, "POST", &format!("/jobs/{id2}/cancel"), "");
    assert_eq!(status, 200);

    let t0 = Instant::now();
    loop {
        let (status, metrics) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, 200);
        let disconnects = metric_value(&metrics, "autobias_client_disconnects_total ");
        let event_errors = metric_value(
            &metrics,
            "autobias_request_errors_total{endpoint=\"events\"} ",
        );
        // The two deliberate 404 probes above hit /runs/9999 (runs) and
        // /jobs/9999/events (events): exactly one events error is expected,
        // and none from the disconnected stream.
        assert!(event_errors <= 1, "disconnects must not count as errors");
        if disconnects >= 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "no disconnect counted:\n{metrics}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // --- graceful shutdown still works with the recorder wired in ---
    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
    let _ = std::fs::remove_dir_all(data.parent().unwrap());
}

/// A job's record is its own run's: polling the job while it runs (each
/// poll an `http.request` span on a traced request thread) leaves no
/// `http.*` phase in its archived report, and its kept span tree is whole.
#[test]
fn job_record_excludes_the_requests_that_poll_it() {
    let (data, models) = setup_dirs("polled");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data,
        models_dir: models,
        threads: 2,
        access_log: None,
        request_trace: true,
    };
    let (handle, _) = serve(&cfg).expect("server boots");
    let addr = handle.addr();

    let (status, body) = request(addr, "POST", "/jobs/learn", "name polled\nbias manual\n");
    assert_eq!(status, 202, "{body}");
    let field = |body: &str, key: &str| {
        body.lines()
            .find_map(|l| l.strip_prefix(key))
            .unwrap_or_else(|| panic!("no {key:?} line in {body:?}"))
            .to_string()
    };
    let id = field(&body, "id ");
    let trace = field(&body, "trace ");
    let t0 = Instant::now();
    let mut polls = 0;
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        polls += 1;
        if field(&body, "state ") == "done" {
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(120), "{body}");
        std::thread::sleep(Duration::from_millis(2));
    }

    let (status, body) = request(addr, "GET", &format!("/runs/{id}"), "");
    assert_eq!(status, 200, "{body}");
    let report = Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let phases = report.get("phases").unwrap().as_obj().unwrap();
    let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
    assert!(
        !names.iter().any(|n| n.starts_with("http.")),
        "{polls} poll(s) leaked into the job's phases: {names:?}"
    );
    for phase in ["learn", "bc.build", "analyze.check", "plan.compile"] {
        assert!(names.contains(&phase), "no {phase} phase: {names:?}");
    }
    assert_eq!(
        report.get("trace_id").unwrap().as_str(),
        Some(trace.as_str())
    );

    let (status, body) = request(addr, "GET", &format!("/debug/traces/{trace}"), "");
    assert_eq!(status, 200, "{body}");
    let kept = Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    assert_eq!(kept.path(&["tree", "dropped"]).unwrap().as_f64(), Some(0.0));
    let spans = kept.path(&["tree", "spans"]).unwrap().as_arr().unwrap();
    // The report's phases are a view over the kept tree.
    let learn = phases
        .iter()
        .find(|(n, _)| n == "learn")
        .map(|(_, p)| p.get("count").unwrap().as_f64().unwrap() as usize)
        .unwrap();
    let learn_spans = spans
        .iter()
        .filter(|s| s.get("name").unwrap().as_str() == Some("learn"))
        .count();
    assert_eq!(learn, learn_spans);

    request(addr, "POST", "/shutdown", "");
    handle.join();
}
