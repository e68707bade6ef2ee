//! End-to-end plan observability: `GET /models/{name}/plan` (EXPLAIN),
//! `?analyze=1` (EXPLAIN ANALYZE with live per-operator counters), the
//! q-error / per-model plan series on `GET /metrics`, a model with a clause
//! longer than any fixed step buffer served compiled, and a batch that
//! exhausts the plan's node budget — its kept trace and its
//! `GET /debug/slow` entry, one request record that the access log and
//! every trace view render alike.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::clause_text::parse_definition_frozen;
use autobias::query::{definition_covers_args, EvalScratch, QueryConfig};
use autobias_serve::trace::TraceStore;
use autobias_serve::{serve, ServeConfig};
use datasets::io::save_dataset;
use datasets::Dataset;
use obs::json::Json;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

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
        .unwrap_or_else(|| panic!("no sample for {name} in:\n{metrics}"))
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("unparsable value for {name}: {e}"))
}

#[test]
fn explain_analyze_and_metrics() {
    let (data, models) = setup_dirs("plan_obs");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data.clone(),
        models_dir: models.clone(),
        threads: 2,
        access_log: None,
        request_trace: true,
    };
    let (handle, report) = serve(&cfg).expect("server boots");
    assert_eq!(report.loaded, vec!["coauthor"]);
    let addr = handle.addr();

    // --- EXPLAIN before any traffic: static plan, no analyze section ---
    let (status, body) = request(addr, "GET", "/models/coauthor/plan", "");
    assert_eq!(status, 200, "{body}");
    let explain = Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    assert_eq!(explain.get("explain_version").unwrap().as_f64(), Some(1.0));
    assert_eq!(explain.get("model").unwrap().as_str(), Some("coauthor"));
    assert_eq!(explain.get("analyze").unwrap().as_bool(), Some(false));
    assert_eq!(explain.get("compiled").unwrap().as_f64(), Some(1.0));
    assert_eq!(explain.get("fallback").unwrap().as_f64(), Some(0.0));
    let clauses = explain.get("clauses").unwrap().as_arr().unwrap();
    assert_eq!(clauses.len(), 1);
    assert_eq!(clauses[0].get("engine").unwrap().as_str(), Some("compiled"));
    let variants = clauses[0].get("variants").unwrap().as_arr().unwrap();
    assert!(!variants.is_empty());
    let steps = variants[0].get("steps").unwrap().as_arr().unwrap();
    assert!(!steps.is_empty());
    assert!(steps[0].get("est").unwrap().as_f64().unwrap() >= 1.0);
    assert!(
        steps[0].get("entries").is_none(),
        "no runtime counters without analyze=1"
    );
    // Unknown model is a clean 404 whose JSON body survives a name that
    // needs escaping.
    let (status, _) = request(addr, "GET", "/models/nope/plan", "");
    assert_eq!(status, 404);
    let (status, body) = request(addr, "GET", "/models/a\"b\\c/plan", "");
    assert_eq!(status, 404);
    let missing = Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    let error = missing.get("error").and_then(|v| v.as_str());
    assert!(error.is_some_and(|m| m.contains("a\"b\\c")), "{body}");

    // --- drive a real /predict batch so the tallies move ---
    let ds = datasets::io::load_dataset(&data).expect("load");
    let tuples = example_tuples(&ds);
    let n_tuples = tuples.lines().count();
    assert!(n_tuples >= 20, "want a real batch, got {n_tuples}");
    let payload = format!("model coauthor\n{tuples}");
    let (status, verdicts) = request(addr, "POST", "/predict", &payload);
    assert_eq!(status, 200, "{verdicts}");
    assert_eq!(verdicts.lines().count(), n_tuples);

    // --- EXPLAIN ANALYZE: runtime counters consistent with the batch ---
    let (status, body) = request(addr, "GET", "/models/coauthor/plan?analyze=1", "");
    assert_eq!(status, 200, "{body}");
    let analyzed = Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    assert_eq!(analyzed.get("analyze").unwrap().as_bool(), Some(true));
    assert!(analyzed.get("batches").unwrap().as_f64().unwrap() >= 1.0);
    let clause = &analyzed.get("clauses").unwrap().as_arr().unwrap()[0];
    let evals = clause.get("evals").unwrap().as_f64().unwrap();
    assert!(
        evals >= n_tuples as f64,
        "every tuple evaluates the only clause: {body}"
    );
    let matches = clause.get("matches").unwrap().as_f64().unwrap();
    let positives = verdicts
        .lines()
        .filter(|l| l.ends_with("\tpositive"))
        .count() as f64;
    assert_eq!(matches, positives, "matches agree with the verdicts");
    let variants = clause.get("variants").unwrap().as_arr().unwrap();
    let first_steps = variants[0].get("steps").unwrap().as_arr().unwrap();
    let entered: f64 = variants
        .iter()
        .map(|v| {
            v.get("steps").unwrap().as_arr().unwrap()[0]
                .get("entries")
                .unwrap()
                .as_f64()
                .unwrap_or(0.0)
        })
        .sum();
    assert_eq!(entered, evals, "every eval enters exactly one variant");
    assert!(first_steps[0].get("avg_candidates").is_some());

    // --- metrics: q-error histogram and per-model plan series ---
    let (status, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        sample_value(&metrics, "autobias_plan_estimate_qerror_count") >= 1.0,
        "the batch observed at least one step's q-error:\n{metrics}"
    );
    assert!(
        metrics.contains("autobias_plan_estimate_qerror_bucket{le=\"+Inf\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("autobias_plan_compiled_total{model=\"coauthor\"} 1"),
        "per-model compiled series:\n{metrics}"
    );
    assert!(
        !metrics.contains("autobias_plan_fallback_total{model="),
        "a loaded model declined no clause, so it has no fallback series:\n{metrics}"
    );

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
    let _ = std::fs::remove_dir_all(data.parent().unwrap());
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

/// A model mixing the co-authorship clause with a 33-literal one, longer
/// than the fixed step buffer the executor once had.
fn mixed_model() -> String {
    let mut body = vec!["ta(v3, x, v4)"; 32];
    body.push("taughtBy(v3, y, v4)");
    format!("{COAUTHOR_MODEL}advisedBy(x, y) ← {}\n", body.join(", "))
}

/// A clause that exhausts the plan's node budget for a student with a
/// classmate in the same year: a chain of 24 hops from the student to a
/// student of the same year and back to the year, then a phase keyed by
/// that year, which no phase equals. Every hop depends on the one before,
/// so backjumping cannot skip any, and the walk tries every chain (two or
/// more choices per hop, 2^24 chains) before it could refute.
fn budget_model() -> String {
    let mut body = vec![
        "professor(y)".to_string(),
        "yearsInProgram(x, v2)".to_string(),
    ];
    let hops = 24;
    for i in 0..hops {
        let (year, student, next) = (2 + 2 * i, 3 + 2 * i, 4 + 2 * i);
        body.push(format!("yearsInProgram(v{student}, v{year})"));
        body.push(format!("yearsInProgram(v{student}, v{next})"));
    }
    body.push(format!("inPhase(v{}, v{})", 1 + 2 * hops, 2 + 2 * hops));
    format!("advisedBy(x, y) ← {}\n", body.join(", "))
}

#[test]
fn long_clauses_serve_compiled_and_a_kept_batch_renders_alike() {
    let (data, models) = setup_dirs("plan_long");
    let mixed = mixed_model();
    std::fs::write(models.join("mixed.model"), &mixed).unwrap();
    std::fs::write(models.join("budget.model"), budget_model()).unwrap();
    let access_log = data.parent().unwrap().join("access.jsonl");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data.clone(),
        models_dir: models.clone(),
        threads: 2,
        access_log: Some(access_log.clone()),
        request_trace: true,
    };
    let (handle, report) = serve(&cfg).expect("server boots");
    assert_eq!(
        report.loaded,
        vec!["budget", "coauthor", "mixed"],
        "{:?}",
        report.errors
    );
    let addr = handle.addr();

    let (status, body) = request(addr, "GET", "/models/mixed/plan", "");
    assert_eq!(status, 200, "{body}");
    let explain = Json::parse(&body).unwrap();
    assert_eq!(explain.get("compiled").unwrap().as_f64(), Some(2.0));
    assert_eq!(explain.get("fallback").unwrap().as_f64(), Some(0.0));

    // A batch the tail sampler keeps on any host and build: each tuple's
    // walk runs the 1,000,000-node budget out, so even at 2 ns a node the
    // eight tuples take 16 ms, past the 10 ms slow floor, and the traffic
    // before them is a handful of fast requests.
    let ds = datasets::io::load_dataset(&data).expect("load");
    let tuples = example_tuples(&ds);
    let n_kept = 8;
    let kept_tuples: String = tuples
        .lines()
        .take(n_kept)
        .map(|l| format!("{l}\n"))
        .collect();
    let (status, served) = request(
        addr,
        "POST",
        "/predict",
        &format!("model budget\n{kept_tuples}"),
    );
    assert_eq!(status, 200, "{served}");
    assert_eq!(served.matches("\tnegative\n").count(), n_kept, "{served}");

    // The long clause must decide some verdicts, or the check below could
    // pass with its plan never consulted.
    let reference = interpreter_reference(&ds, &mixed);
    let positives = |r: &str| r.lines().filter(|l| l.ends_with("\tpositive")).count();
    assert!(
        positives(&reference) > positives(&interpreter_reference(&ds, COAUTHOR_MODEL)),
        "the long clause covers tuples the co-authorship clause does not"
    );
    let (status, served) = request(addr, "POST", "/predict", &format!("model mixed\n{tuples}"));
    assert_eq!(status, 200, "{served}");
    assert_eq!(served, reference, "served verdicts equal the interpreter's");

    // `/debug/slow` lists the kept batch with its context under the trace
    // id that resolves in the store.
    let (status, body) = request(addr, "GET", "/debug/slow", "");
    assert_eq!(status, 200, "{body}");
    let slow = Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
    assert_eq!(
        slow.get("cap").unwrap().as_f64(),
        Some(TraceStore::DEFAULT_CAP as f64)
    );
    let entries = slow.get("slow").unwrap().as_arr().unwrap();
    let entry = entries
        .iter()
        .find(|e| e.get("model").unwrap().as_str() == Some("budget"))
        .unwrap_or_else(|| panic!("budget batch listed: {body}"));
    assert_eq!(entry.get("engine").unwrap().as_str(), Some("compiled"));
    assert_eq!(entry.get("tuples").unwrap().as_f64(), Some(n_kept as f64));
    assert!(entry.path(&["plan", "entries"]).unwrap().as_f64().unwrap() > 0.0);
    assert!(
        entry
            .path(&["plan", "candidates"])
            .unwrap()
            .as_f64()
            .unwrap()
            > 0.0
    );
    assert_eq!(
        entry.path(&["plan", "node_limit_hits"]).unwrap().as_f64(),
        Some(n_kept as f64),
        "every tuple of the batch ran the node budget out"
    );
    let first = tuples.lines().next().unwrap();
    assert_eq!(entry.get("args_sample").unwrap().as_str(), Some(first));
    let id = entry.get("trace_id").unwrap().as_str().unwrap();
    let (status, body) = request(addr, "GET", &format!("/debug/traces/{id}"), "");
    assert_eq!(status, 200, "{body}");
    let trace = Json::parse(&body).unwrap();
    assert_eq!(trace.get("reason").unwrap().as_str(), Some("slow"));
    assert_eq!(trace.get("route").unwrap().as_str(), Some("predict"));
    // The kept tree carries the batch's plan summary as notes on its
    // `predict.compiled_batch` span, equal to the record's `plan` object.
    let spans = trace.path(&["tree", "spans"]).unwrap().as_arr().unwrap();
    let batch = spans
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some("predict.compiled_batch"))
        .unwrap_or_else(|| panic!("batch span kept: {body}"));
    let notes = batch.get("notes").unwrap();
    assert_eq!(notes.get("tuples").unwrap().as_f64(), Some(n_kept as f64));
    for key in [
        "entries",
        "candidates",
        "rejected",
        "backtracks",
        "node_limit_hits",
    ] {
        let noted = notes.get(key).unwrap_or_else(|| panic!("no {key} note"));
        assert_eq!(Some(noted), trace.path(&["plan", key]), "{key}");
    }
    assert!(notes.get("entries").unwrap().as_f64().unwrap() > 0.0);
    let (_, listing) = request(addr, "GET", "/debug/traces", "");
    let listing = Json::parse(&listing).unwrap();
    let listed = listing
        .get("traces")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .find(|t| t.get("trace_id").unwrap().as_str() == Some(id))
        .unwrap_or_else(|| panic!("{id} listed"))
        .clone();

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();

    // One record, four renderings: the access-log line, the listing entry,
    // the kept trace and the `/debug/slow` entry agree on every value.
    let access = std::fs::read_to_string(&access_log).unwrap();
    let logged = access
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .find(|l| l.get("trace_id").unwrap().as_str() == Some(id))
        .unwrap_or_else(|| panic!("{id} logged:\n{access}"));
    for key in [
        "trace_id",
        "route",
        "status",
        "latency_us",
        "reason",
        "model",
        "tuples",
        "plan",
    ] {
        let value = logged.get(key);
        assert!(value.is_some(), "access log lacks {key}");
        for (view, doc) in [("listing", &listed), ("trace", &trace), ("slow", entry)] {
            assert_eq!(doc.get(key), value, "{view} disagrees on {key}");
        }
    }
    let _ = std::fs::remove_dir_all(data.parent().unwrap());
}

/// A model constant the data lacks gets an ephemeral id at load time. EXPLAIN
/// names it by the model's own spelling instead of looking the id up in the
/// dictionary, which used to panic and take down the only pool worker.
#[test]
fn explain_names_model_only_constants_and_the_worker_survives() {
    let (data, models) = setup_dirs("plan_ephemeral");
    std::fs::remove_file(models.join("coauthor.model")).unwrap();
    let model = "advisedBy(x, y) ← publication(z, y), publication(z, c)";
    std::fs::write(models.join("eph.model"), format!("{model}\n")).unwrap();
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data.clone(),
        models_dir: models.clone(),
        threads: 1,
        access_log: None,
        request_trace: true,
    };
    let (handle, report) = serve(&cfg).expect("server boots");
    assert_eq!(report.loaded, vec!["eph"], "{:?}", report.errors);
    let addr = handle.addr();

    for _ in 0..2 {
        let (status, body) = request(addr, "GET", "/models/eph/plan", "");
        assert_eq!(status, 200, "{body}");
        let explain = Json::parse(&body).unwrap_or_else(|e| panic!("{e}\n{body}"));
        let clauses = explain.get("clauses").unwrap().as_arr().unwrap();
        assert_eq!(clauses[0].get("text").unwrap().as_str(), Some(model));
        let variants = clauses[0].get("variants").unwrap().as_arr().unwrap();
        let names_c = variants.iter().any(|v| {
            v.get("steps").unwrap().as_arr().unwrap().iter().any(|s| {
                s.get("key").and_then(Json::as_str) == Some("c")
                    || s.get("ops")
                        .unwrap()
                        .as_arr()
                        .unwrap()
                        .iter()
                        .any(|op| op.as_str().is_some_and(|op| op.ends_with("= c")))
            })
        });
        assert!(names_c, "the plan names the constant `c`: {body}");
    }
    let (status, body) = request(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();
    let _ = std::fs::remove_dir_all(data.parent().unwrap());
}
