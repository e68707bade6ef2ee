//! End-to-end equivalence of served `/predict` verdicts with the clause
//! interpreter, and the keep-alive request loop.
//!
//! Boots real servers over a UW dataset and asserts that `/predict`
//! responses are **byte-identical** to a reference computed in process:
//! the model file parsed against the loaded dataset and every tuple
//! evaluated by `definition_covers_args`. Covers a hand-written model and a
//! model learned by a background job, across 1 and 8 worker threads. Also
//! drives several requests down one keep-alive connection and checks the
//! reuse counter on `/metrics`.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::clause_text::parse_definition_frozen;
use autobias::query::{definition_covers_args, EvalScratch, QueryConfig};
use autobias_serve::http::read_response_head;
use autobias_serve::{serve, ServeConfig};
use datasets::io::save_dataset;
use datasets::Dataset;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

const COAUTHOR_MODEL: &str = "advisedBy(x, y) ← publication(z, x), publication(z, y)\n";

/// One-shot client (Connection: close), as a plain-text `(status, body)`.
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

/// A persistent keep-alive connection issuing sequential requests.
struct KeepAliveClient {
    write_half: TcpStream,
    reader: BufReader<TcpStream>,
}

impl KeepAliveClient {
    fn connect(addr: SocketAddr) -> Self {
        let conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let read_half = conn.try_clone().expect("clone socket");
        Self {
            write_half: conn,
            reader: BufReader::new(read_half),
        }
    }

    /// Sends one request on the open connection; returns status, the
    /// server's `Connection` header, and the body.
    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String, String) {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.write_half.write_all(head.as_bytes()).unwrap();
        self.write_half.write_all(body.as_bytes()).unwrap();
        self.write_half.flush().unwrap();
        let (status, headers) = read_response_head(&mut self.reader).expect("response head");
        let connection = headers
            .iter()
            .find(|(n, _)| n == "connection")
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        let len: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .expect("content-length on fixed responses");
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body).expect("body");
        (status, connection, String::from_utf8(body).unwrap())
    }
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

fn sample_value(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("no sample for {name}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("unparsable value for {name}: {e}"))
}

/// Every example of `ds` as a `/predict` tuple line, positives first.
fn example_tuples(ds: &Dataset) -> String {
    ds.pos
        .iter()
        .chain(ds.neg.iter())
        .map(|e| {
            let fields: Vec<&str> = e.args.iter().map(|&c| ds.db.const_name(c)).collect();
            format!("{}\n", fields.join(","))
        })
        .collect()
}

/// The interpreter's `/predict` response for [`example_tuples`]: the model
/// text parsed against the dataset, each tuple evaluated by
/// `definition_covers_args`, rendered the way the server renders verdicts.
fn interpreter_reference(ds: &Dataset, model_text: &str) -> String {
    let (def, _) = parse_definition_frozen(&ds.db, model_text).expect("model parses");
    let qcfg = QueryConfig::default();
    let mut scratch = EvalScratch::default();
    let examples = ds.pos.iter().chain(ds.neg.iter());
    examples
        .zip(example_tuples(ds).lines())
        .map(|(e, tuple)| {
            let covered =
                definition_covers_args(&ds.db, &def, ds.target, &e.args, &qcfg, &mut scratch);
            let verdict = if covered { "positive" } else { "negative" };
            format!("{tuple}\t{verdict}\n")
        })
        .collect()
}

#[test]
fn served_predictions_match_the_interpreter_byte_for_byte() {
    let (data, models) = setup_dirs("predict_plan");

    // Batch body: every positive and negative example of the dataset.
    let ds = datasets::io::load_dataset(&data).expect("load");
    let tuples = example_tuples(&ds);
    let n_tuples = tuples.lines().count();
    assert!(n_tuples >= 20, "want a real batch, got {n_tuples}");

    // --- learn a UW model through a job on a 1-thread server ---
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data.clone(),
        models_dir: models.clone(),
        threads: 1,
        access_log: None,
        request_trace: true,
    };
    let (handle, report) = serve(&cfg).expect("server boots");
    assert_eq!(report.loaded, vec!["coauthor"]);
    let addr = handle.addr();
    let (status, body) = request(
        addr,
        "POST",
        "/jobs/learn",
        "name learned\nbias manual\nmax-clauses 3\n",
    );
    assert_eq!(status, 202, "{body}");
    let id = body.lines().find_map(|l| l.strip_prefix("id ")).unwrap();
    let t0 = Instant::now();
    loop {
        let (_, body) = request(addr, "GET", &format!("/jobs/{id}"), "");
        let state = body
            .lines()
            .find_map(|l| l.strip_prefix("state "))
            .unwrap()
            .to_string();
        if state != "queued" && state != "running" {
            assert_eq!(state, "done", "{body}");
            break;
        }
        assert!(t0.elapsed() < Duration::from_secs(120), "job stuck: {body}");
        std::thread::sleep(Duration::from_millis(50));
    }

    // --- the interpreter reference, computed in process per model ---
    let references: Vec<(&str, String)> = ["coauthor", "learned"]
        .into_iter()
        .map(|model| {
            let text = std::fs::read_to_string(models.join(format!("{model}.model"))).unwrap();
            (model, interpreter_reference(&ds, &text))
        })
        .collect();
    let coauthor = &references[0].1;
    assert!(coauthor.lines().any(|l| l.ends_with("\tpositive")));
    assert!(coauthor.lines().any(|l| l.ends_with("\tnegative")));

    // --- the differential matrix: 2 models × {1,8} threads ---
    let mut handles = vec![handle];
    for threads in [1usize, 8] {
        let addr = if threads == 1 {
            addr
        } else {
            let cfg = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                data_dir: data.clone(),
                models_dir: models.clone(),
                threads,
                access_log: None,
                request_trace: true,
            };
            let (h, report) = serve(&cfg).expect("8-thread server boots");
            assert_eq!(report.loaded, vec!["coauthor", "learned"]);
            let addr = h.addr();
            handles.push(h);
            addr
        };
        for (model, reference) in &references {
            let (status, served) = request(
                addr,
                "POST",
                "/predict",
                &format!("model {model}\n{tuples}"),
            );
            assert_eq!(status, 200, "{served}");
            assert_eq!(
                &served, reference,
                "served verdicts must equal the interpreter's (model {model}, {threads} thread(s))"
            );
        }
    }

    // --- keep-alive: several requests down one connection ---
    let mut ka = KeepAliveClient::connect(addr);
    let body = format!("model coauthor\n{tuples}");
    let (status, connection, first) = ka.request("POST", "/predict", &body);
    assert_eq!(status, 200, "{first}");
    assert_eq!(connection, "keep-alive", "server honors HTTP/1.1 default");
    for _ in 0..3 {
        let (status, connection, again) = ka.request("POST", "/predict", &body);
        assert_eq!(status, 200);
        assert_eq!(connection, "keep-alive");
        assert_eq!(again, first, "reused connection, same verdicts");
    }
    let (status, _, metrics) = ka.request("GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        sample_value(&metrics, "autobias_http_keepalive_reuses_total") >= 4.0,
        "4 follow-up requests rode the same connection"
    );
    assert!(sample_value(&metrics, "autobias_http_connections_total") >= 1.0);
    // Plan compilation happened at load (coauthor + learned), and every
    // batch ran under the compiled-batch span.
    assert!(sample_value(&metrics, "autobias_plan_compiled_total") >= 2.0);
    assert!(sample_value(&metrics, "autobias_predict_tuples_total") > 0.0);
    assert!(
        metrics.contains("autobias_phase_duration_seconds_count{phase=\"predict.compiled_batch\"}"),
        "compiled batches record their span:\n{metrics}"
    );
    assert!(metrics.contains("autobias_phase_duration_seconds_count{phase=\"plan.compile\"}"));

    // A client asking to close is honored.
    let mut closing = KeepAliveClient::connect(addr);
    let head = format!(
        "POST /predict HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    closing.write_half.write_all(head.as_bytes()).unwrap();
    closing.write_half.write_all(body.as_bytes()).unwrap();
    let (status, headers) = read_response_head(&mut closing.reader).unwrap();
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "connection" && v == "close"));

    // --- shutdown every server ---
    for h in handles {
        let (status, _) = request(h.addr(), "POST", "/shutdown", "");
        assert_eq!(status, 200);
        h.join();
    }
}
