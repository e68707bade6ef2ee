//! Serve-side admission tests: `POST /models/{name}` uploads run the static
//! verifier and reject Error-verdict models with 422 + JSON diagnostics,
//! bumping `autobias_model_rejections_total`; directory reloads apply the
//! same bar.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias_serve::{serve, ServeConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

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

    let (status, _, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
}
