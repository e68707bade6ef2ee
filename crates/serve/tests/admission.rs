//! Serve-side admission tests: `POST /models/{name}` uploads run the static
//! verifier and reject Error-verdict models with 422 + JSON diagnostics,
//! bumping `autobias_model_rejections_total`; directory reloads apply the
//! same bar; and every route answers with its pinned content type.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias_serve::{serve, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One-shot HTTP client: sends a request, returns `(status, headers, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
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
    let (headers, body) = raw
        .split_once("\r\n\r\n")
        .map(|(h, b)| (h.to_string(), b.to_string()))
        .unwrap_or_default();
    (status, headers, body)
}

fn setup_dirs(tag: &str) -> (PathBuf, PathBuf) {
    let base =
        std::env::temp_dir().join(format!("autobias_admission_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let data = base.join("data");
    let models = base.join("models");
    let ds = datasets::uw::generate(
        &datasets::uw::UwConfig {
            students: 20,
            professors: 8,
            courses: 10,
            advised_pairs: 10,
            negatives: 20,
            evidence_prob: 1.0,
            ..datasets::uw::UwConfig::default()
        },
        11,
    );
    datasets::io::save_dataset(&ds, &data).expect("save dataset");
    std::fs::create_dir_all(&models).unwrap();
    (data, models)
}

fn rejections_from_metrics(addr: SocketAddr) -> u64 {
    let (status, _, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    metrics
        .lines()
        .find_map(|l| l.strip_prefix("autobias_model_rejections_total "))
        .expect("rejection counter exported")
        .parse()
        .expect("counter is a number")
}

#[test]
fn upload_admission_and_rejection() {
    let (data, models) = setup_dirs("upload");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data,
        models_dir: models.clone(),
        threads: 2,
        access_log: None,
        request_trace: true,
    };
    let (handle, report) = serve(&cfg).expect("boot");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let addr = handle.addr();

    let before = rejections_from_metrics(addr);

    // A well-formed model is admitted, persisted, and immediately servable.
    let good = "advisedBy(x, y) ← publication(z, x), publication(z, y)\n";
    let (status, headers, body) = request(addr, "POST", "/models/coauthor", good);
    assert_eq!(status, 201, "{body}");
    assert!(headers.contains("application/json"), "{headers}");
    let created = obs::json::Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    assert_eq!(
        created.get("clauses").and_then(|v| v.as_f64()),
        Some(1.0),
        "{body}"
    );
    assert!(models.join("coauthor.model").exists());
    let (status, _, listing) = request(addr, "GET", "/models", "");
    assert_eq!(status, 200);
    assert!(listing.contains("coauthor"), "{listing}");
    let (status, _, pred) = request(addr, "POST", "/predict", "model coauthor\ns0,f0\n");
    assert_eq!(status, 200, "{pred}");

    // A disconnected literal is an Error finding (AB102): 422 with the JSON
    // diagnostics payload, counter bumped, nothing persisted or registered.
    let bad = "advisedBy(x, y) ← publication(z, x), publication(z, y), student(v9)\n";
    let (status, headers, body) = request(addr, "POST", "/models/broken", bad);
    assert_eq!(status, 422, "{body}");
    assert!(headers.contains("application/json"), "{headers}");
    assert!(body.contains("AB102"), "{body}");
    let json = obs::json::Json::parse(&body).expect("diagnostics payload parses");
    let errors = json.get("errors").and_then(|v| v.as_f64()).unwrap_or(0.0);
    assert!(errors >= 1.0, "{body}");
    assert!(!models.join("broken.model").exists());
    let (_, _, listing) = request(addr, "GET", "/models", "");
    assert!(!listing.contains("broken"), "{listing}");

    // Unparsable text rejects with AB101.
    let (status, _, body) = request(addr, "POST", "/models/garbled", "nosuchrel(x)\n");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("AB101"), "{body}");

    // Invalid names never reach the verifier, and the 400 is JSON that
    // quotes the rejected name.
    let (status, headers, body) = request(addr, "POST", "/models/bad%2Fname", good);
    assert_eq!(status, 400);
    assert!(headers.contains("application/json"), "{headers}");
    let rejected = obs::json::Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let error = rejected.get("error").and_then(|v| v.as_str());
    assert!(
        error.is_some_and(|m| m.contains("\"bad%2Fname\"")),
        "{body}"
    );

    let after = rejections_from_metrics(addr);
    assert_eq!(after, before + 2, "two rejected uploads counted");

    // Directory reload applies the same bar: a corrupt file on disk is
    // skipped (with its summary as the error) and counted as a rejection.
    std::fs::write(models.join("corrupt.model"), bad).unwrap();
    let (status, _, body) = request(addr, "POST", "/models", "");
    assert_eq!(status, 200);
    assert!(body.contains("corrupt.model"), "{body}");
    assert!(body.contains("error"), "{body}");
    let (_, _, listing) = request(addr, "GET", "/models", "");
    assert!(!listing.contains("corrupt"), "{listing}");
    assert_eq!(rejections_from_metrics(addr), after + 1);

    // Every route pins its content type: the JSON routes (errors included)
    // answer `application/json`, the rest `text/plain`.
    let (status, _, body) = request(addr, "POST", "/jobs/learn", "name learned\nbias manual\n");
    assert_eq!(status, 202, "{body}");
    let deadline = Instant::now() + Duration::from_secs(120);
    while !request(addr, "GET", "/jobs/1", "").2.contains("state done") {
        assert!(Instant::now() < deadline, "job 1 did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
    let (_, _, listing) = request(addr, "GET", "/debug/traces", "");
    let listing = obs::json::Json::parse(&listing).unwrap();
    let kept = listing.path(&["traces"]).unwrap().as_arr().unwrap()[0]
        .get("trace_id")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    const JSON: &str = "application/json";
    const TEXT: &str = "text/plain; charset=utf-8";
    let probes: &[(&str, &str, &str, u16, &str)] = &[
        ("GET", "/models/coauthor/plan", "", 200, JSON),
        ("GET", "/models/nosuch/plan", "", 404, JSON),
        ("GET", "/debug/slow", "", 200, JSON),
        ("GET", "/debug/traces", "", 200, JSON),
        ("GET", &format!("/debug/traces/{kept}"), "", 200, JSON),
        ("GET", "/debug/traces/0000dead", "", 404, JSON),
        ("GET", "/runs/1", "", 200, JSON),
        ("GET", "/runs/9999", "", 404, JSON),
        ("GET", "/runs/one", "", 400, JSON),
        ("POST", "/models/broken", bad, 422, JSON),
        ("POST", "/models/bad%2Fname", good, 400, JSON),
        ("GET", "/healthz", "", 200, TEXT),
        ("GET", "/models", "", 200, TEXT),
        ("GET", "/jobs", "", 200, TEXT),
        ("GET", "/jobs/1", "", 200, TEXT),
        ("GET", "/runs", "", 200, TEXT),
        ("POST", "/predict", "model coauthor\ns0,f0\n", 200, TEXT),
        ("GET", "/nosuch", "", 404, TEXT),
    ];
    for &(method, path, body, want_status, want_type) in probes {
        let (status, headers, text) = request(addr, method, path, body);
        assert_eq!(status, want_status, "{method} {path}: {text}");
        let content_type = headers
            .lines()
            .find_map(|l| l.strip_prefix("Content-Type: "))
            .unwrap_or_else(|| panic!("{method} {path}: no Content-Type in {headers}"));
        assert_eq!(content_type, want_type, "{method} {path}");
        if want_type == JSON {
            obs::json::Json::parse(&text).unwrap_or_else(|e| panic!("{method} {path}: {e}"));
        }
    }
    let (_, _, text) = request(addr, "GET", "/runs/9999", "");
    let missing = obs::json::Json::parse(&text).unwrap();
    assert_eq!(
        missing.get("error").and_then(|v| v.as_str()),
        Some("no run 9999")
    );

    let (status, _, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
}
