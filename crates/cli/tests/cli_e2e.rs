//! End-to-end test of the `autobias` binary: generate → inspect INDs →
//! induce bias → learn → evaluate → predict, all through the real CLI.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_autobias"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = bin().args(args).output().expect("spawn autobias");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("autobias_cli_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&p).unwrap();
        Self(p)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn full_pipeline_on_uw() {
    let tmp = TempDir::new("pipeline");
    let data = tmp.path("uw");
    let model = tmp.path("model.txt");
    let bias = tmp.path("bias.txt");

    let (ok, out, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "3"]);
    assert!(ok, "gen failed: {err}");
    assert!(out.contains("UW:"), "gen output: {out}");

    let (ok, out, _) = run(&["inds", "--data", &data]);
    assert!(ok);
    assert!(out.contains('⊆'), "inds output: {out}");

    let (ok, _, err) = run(&["induce", "--data", &data, "--out", &bias]);
    assert!(ok, "induce failed: {err}");
    let bias_text = std::fs::read_to_string(&bias).unwrap();
    assert!(bias_text.contains("pred ") && bias_text.contains("mode "));

    // Learn with the (fast) expert bias; the induced-bias file is validated
    // by parsing it back through `learn`'s bias loader below.
    let (ok, _, err) = run(&[
        "learn", "--data", &data, "--bias", "manual", "--out", &model,
    ]);
    assert!(ok, "learn failed: {err}");
    let model_text = std::fs::read_to_string(&model).unwrap();
    assert!(model_text.contains("advisedBy"), "model: {model_text}");

    let (ok, out, err) = run(&["eval", "--data", &data, "--model", &model]);
    assert!(ok, "eval failed: {err}");
    assert!(out.contains("f-measure"), "eval output: {out}");
    // Noise-capped but far above chance.
    let fm: f64 = out
        .split("f-measure")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .and_then(|s| s.parse().ok())
        .expect("parse fm");
    assert!(fm > 0.5, "fm {fm} too low; output {out}");

    // Predict on a known positive and a known negative.
    let pos_line = std::fs::read_to_string(tmp.0.join("uw/pos.csv")).unwrap();
    let first_pos = pos_line.lines().next().unwrap();
    let (ok, out, _) = run(&[
        "predict", "--data", &data, "--model", &model, "--args", first_pos,
    ]);
    assert!(ok);
    assert!(out.contains('→'), "predict output: {out}");
}

#[test]
fn bias_file_errors_are_reported() {
    let tmp = TempDir::new("badbias");
    let data = tmp.path("uw");
    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "2"]);
    assert!(ok, "gen failed: {err}");
    let bad = tmp.path("bad_bias.txt");
    std::fs::write(&bad, "pred nosuchrel(T1)\n").unwrap();
    let (ok, _, err) = run(&["learn", "--data", &data, "--bias", &bad]);
    assert!(!ok);
    assert!(err.contains("unknown relation"), "stderr: {err}");
}

#[test]
fn helpful_errors() {
    let (ok, _, err) = run(&["learn"]);
    assert!(!ok);
    assert!(err.contains("--data"), "stderr: {err}");

    let (ok, _, err) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));

    let (ok, out, _) = run(&["help"]);
    assert!(ok);
    assert!(out.contains("USAGE"));
}

#[test]
fn gen_rejects_unknown_dataset() {
    let tmp = TempDir::new("unknown");
    let (ok, _, err) = run(&["gen", "--dataset", "nope", "--out", &tmp.path("x")]);
    assert!(!ok);
    assert!(err.contains("unknown dataset"));
}

#[test]
fn stats_profiles_a_dataset() {
    let tmp = TempDir::new("stats");
    let data = tmp.path("uw");
    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "5"]);
    assert!(ok, "gen failed: {err}");
    let (ok, out, _) = run(&["stats", "--data", &data]);
    assert!(ok);
    assert!(out.contains("publication"), "stats output: {out}");
    assert!(out.contains("relation"), "stats output: {out}");
}

#[test]
fn missing_flags_print_usage() {
    // Every subcommand with required flags exits non-zero and shows usage.
    for argv in [
        vec!["learn"],
        vec!["eval", "--data", "somewhere"],
        vec!["predict", "--data", "somewhere"],
        vec!["serve"],
        vec!["serve", "--data", "somewhere"],
    ] {
        let (ok, _, err) = run(&argv);
        assert!(!ok, "{argv:?} should fail");
        assert!(err.contains("missing --"), "{argv:?} stderr: {err}");
        assert!(err.contains("USAGE"), "{argv:?} should print usage: {err}");
    }
}

/// A present but malformed flag value fails the command with the flag
/// named, instead of falling back to the flag's default.
#[test]
fn malformed_flag_values_are_rejected() {
    let tmp = TempDir::new("badflags");
    let data = tmp.path("uw");
    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "3"]);
    assert!(ok, "gen failed: {err}");
    // `serve` gets no data, so a regression fails on loading instead of
    // starting a server that never returns.
    for (argv, flag) in [
        (
            vec![
                "learn", "--data", &data, "--bias", "manual", "--depth", "two",
            ],
            "--depth",
        ),
        (
            vec![
                "learn", "--data", &data, "--bias", "manual", "--seed", "abc",
            ],
            "--seed",
        ),
        (
            vec![
                "serve",
                "--data",
                "nowhere",
                "--models",
                "nowhere",
                "--threads",
                "x",
            ],
            "--threads",
        ),
        (
            vec!["induce", "--data", &data, "--absolute", "many"],
            "--absolute",
        ),
    ] {
        let (ok, _, err) = run(&argv);
        assert!(!ok, "{argv:?} should fail");
        assert!(err.contains(flag), "{argv:?} stderr: {err}");
    }
}

#[test]
fn predict_rejects_malformed_tuples() {
    let tmp = TempDir::new("badtuple");
    let data = tmp.path("uw");
    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "4"]);
    assert!(ok, "gen failed: {err}");
    let model = tmp.path("m.model");
    std::fs::write(
        &model,
        "advisedBy(x, y) ← publication(z, x), publication(z, y)\n",
    )
    .unwrap();

    let (ok, _, err) = run(&[
        "predict", "--data", &data, "--model", &model, "--args", "a,,b",
    ]);
    assert!(!ok);
    assert!(err.contains("empty field"), "stderr: {err}");

    let (ok, _, err) = run(&[
        "predict", "--data", &data, "--model", &model, "--args", "  ",
    ]);
    assert!(!ok);
    assert!(err.contains("empty tuple"), "stderr: {err}");

    // Whitespace around commas is fine.
    let pos = std::fs::read_to_string(tmp.0.join("uw/pos.csv")).unwrap();
    let first = pos.lines().next().unwrap().replace(',', " , ");
    let (ok, out, err) = run(&[
        "predict", "--data", &data, "--model", &model, "--args", &first,
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains('→'), "stdout: {out}");
}

#[test]
fn serve_smoke_over_cli() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    let tmp = TempDir::new("serve");
    let data = tmp.path("uw");
    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "6"]);
    assert!(ok, "gen failed: {err}");
    let models = tmp.path("models");
    std::fs::create_dir_all(&models).unwrap();
    std::fs::write(
        tmp.0.join("models/coauthor.model"),
        "advisedBy(x, y) ← publication(z, x), publication(z, y)\n",
    )
    .unwrap();

    let mut child = bin()
        .args([
            "serve",
            "--data",
            &data,
            "--models",
            &models,
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).unwrap();
    let addr = banner
        .split("http://")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
        .to_string();

    let request = |method: &str, path: &str| -> String {
        let mut conn = TcpStream::connect(&addr).unwrap();
        conn.write_all(
            format!("{method} {path} HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
        let mut raw = String::new();
        conn.read_to_string(&mut raw).unwrap();
        raw
    };
    assert!(request("GET", "/healthz").contains("ok"));
    assert!(request("GET", "/models").contains("coauthor"));
    assert!(request("POST", "/shutdown").contains("shutting down"));

    let status = child.wait().expect("serve exits");
    assert!(status.success(), "serve exit: {status:?}");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("shut down cleanly"), "stdout tail: {rest}");
}

#[test]
fn trace_out_and_profile_produce_chrome_trace_and_table() {
    let tmp = TempDir::new("trace");
    let data = tmp.path("uw");
    let model = tmp.path("model.txt");
    let trace = tmp.path("trace.json");

    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "5"]);
    assert!(ok, "gen failed: {err}");

    // --bias auto so the bias-induction spans appear; --depth 1 keeps the
    // search small enough for a test.
    let (ok, _, err) = run(&[
        "learn",
        "--data",
        &data,
        "--bias",
        "auto",
        "--depth",
        "1",
        "--trace-out",
        &trace,
        "--profile",
        "--out",
        &model,
    ]);
    assert!(ok, "learn failed: {err}");

    // The profile table goes to stderr with the dominating phase on top.
    assert!(err.contains("phase"), "no summary table: {err}");
    for phase in ["learn", "bc.build", "coverage.theta"] {
        assert!(err.contains(phase), "table missing {phase}: {err}");
    }

    // The trace is structurally valid chrome-trace JSON with one span per
    // pipeline stage (full validation runs in CI with a JSON parser).
    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.ends_with("]}"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    for span in [
        "bias.induce",
        "bias.ind_discovery",
        "bias.type_graph",
        "learn",
        "learn.bc_build",
        "bc.build",
        "bc.variablize",
        "learn.clause_search",
        "coverage.theta",
    ] {
        assert!(
            json.contains(&format!("\"name\":\"{span}\"")),
            "trace missing span {span}"
        );
    }
    assert!(json.contains("\"ph\":\"X\""));
    assert!(
        json.contains("\"label\":\"naive\""),
        "sampling regime label"
    );
}

#[test]
fn report_out_writes_structured_run_report() {
    let tmp = TempDir::new("report");
    let data = tmp.path("uw");
    let model = tmp.path("model.txt");
    let report = tmp.path("report.json");

    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "3"]);
    assert!(ok, "gen failed: {err}");
    let (ok, _, err) = run(&[
        "learn",
        "--data",
        &data,
        "--bias",
        "manual",
        "--out",
        &model,
        "--report-out",
        &report,
    ]);
    assert!(ok, "learn failed: {err}");
    assert!(err.contains("wrote run report"), "{err}");

    let raw = std::fs::read_to_string(&report).unwrap();
    let json = obs::json::Json::parse(&raw).unwrap_or_else(|e| panic!("{e}\n{raw}"));
    assert_eq!(json.get("schema_version").unwrap().as_f64(), Some(2.0));
    // Loaded datasets are named after the directory they came from.
    assert_eq!(json.get("dataset").unwrap().as_str(), Some("uw"));
    // Schema v2: the report records the serving-readiness compile outcome.
    let plan_compiled = json
        .path(&["plan", "compiled_clauses"])
        .expect("v2 report has a plan section")
        .as_f64()
        .unwrap() as usize;
    let plan_fallback = json
        .path(&["plan", "fallback_clauses"])
        .unwrap()
        .as_f64()
        .unwrap() as usize;
    assert_eq!(
        json.path(&["params", "bias"]).unwrap().as_str(),
        Some("manual")
    );

    // The iteration trace covers the whole run: uncovered counts decrease
    // and every accepted clause appears in the clause list.
    let iterations = json.get("iterations").unwrap().as_arr().unwrap();
    assert!(!iterations.is_empty());
    let clauses = json.get("clauses").unwrap().as_arr().unwrap();
    assert!(!clauses.is_empty());
    let model_clauses = std::fs::read_to_string(&model)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count();
    assert_eq!(clauses.len(), model_clauses, "{raw}");
    assert_eq!(plan_compiled + plan_fallback, model_clauses, "{raw}");
    let accepted = iterations
        .iter()
        .filter(|it| it.get("accepted").and_then(|v| v.as_bool()) == Some(true))
        .count();
    assert_eq!(accepted, clauses.len(), "{raw}");

    // Phase timings from the span summary registry are folded in.
    let phases = json.get("phases").unwrap().as_obj().unwrap();
    for phase in ["learn", "learn.bc_build", "learn.clause_search"] {
        let entry = phases
            .iter()
            .find(|(name, _)| name == phase)
            .unwrap_or_else(|| panic!("missing phase {phase}: {raw}"));
        assert!(entry.1.get("count").unwrap().as_f64().unwrap() >= 1.0);
    }
    assert_eq!(
        json.path(&["outcome", "state"]).unwrap().as_str(),
        Some("done")
    );
    assert_eq!(
        json.path(&["outcome", "clauses"]).unwrap().as_f64(),
        Some(clauses.len() as f64)
    );
}

/// A running `autobias serve` on an ephemeral port, shut down on drop.
struct Server {
    child: std::process::Child,
    /// Held open so the server's later stdout lines have a reader.
    _stdout: std::io::BufReader<std::process::ChildStdout>,
    addr: String,
}

impl Server {
    fn start(data: &str, models: &str) -> Self {
        use std::io::{BufRead, BufReader};
        let mut child = bin()
            .args([
                "serve",
                "--data",
                data,
                "--models",
                models,
                "--addr",
                "127.0.0.1:0",
            ])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut banner = String::new();
        stdout.read_line(&mut banner).unwrap();
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner: {banner:?}"))
            .to_string();
        Self {
            child,
            _stdout: stdout,
            addr,
        }
    }

    /// One `Connection: close` request; the raw response.
    fn request(&self, method: &str, path: &str, body: &str) -> String {
        use std::io::{Read, Write};
        let mut conn = std::net::TcpStream::connect(&self.addr).unwrap();
        conn.write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    /// Starts a learning job and returns its id.
    fn submit_job(&self, body: &str) -> String {
        let response = self.request("POST", "/jobs/learn", body);
        response
            .lines()
            .find_map(|l| l.strip_prefix("id "))
            .unwrap_or_else(|| panic!("no job id in: {response}"))
            .to_string()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request("POST", "/shutdown", "");
        let status = self.child.wait().expect("serve exits");
        if !std::thread::panicking() {
            assert!(status.success(), "serve exit: {status:?}");
        }
    }
}

#[test]
fn jobs_watch_streams_progress_from_a_server() {
    let tmp = TempDir::new("watch");
    let data = tmp.path("uw");
    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "8"]);
    assert!(ok, "gen failed: {err}");
    let models = tmp.path("models");
    std::fs::create_dir_all(&models).unwrap();
    let server = Server::start(&data, &models);
    let addr = server.addr.clone();

    // Start a learning job over the raw API, then watch it via the CLI.
    let id = server.submit_job("name watched\nbias manual\n");

    let (ok, out, err) = run(&["jobs", "watch", &id, "--addr", &addr]);
    assert!(ok, "watch failed: {err}");
    assert!(out.contains("bottom clauses:"), "{out}");
    assert!(out.contains("iteration 1:"), "{out}");
    assert!(out.lines().any(|l| l.starts_with("  + ")), "{out}");
    assert!(out.contains("finished:"), "{out}");

    // Bad ids fail cleanly.
    let (ok, _, err) = run(&["jobs", "watch", "9999", "--addr", &addr]);
    assert!(!ok);
    assert!(err.contains("404"), "{err}");
    let (ok, _, err) = run(&["jobs", "frobnicate"]);
    assert!(!ok);
    assert!(err.contains("usage: autobias jobs watch"), "{err}");
}

/// `autobias learn --bias auto` and a `bias auto` job resolve the bias the
/// same way, so with equal options they write the same model.
#[test]
fn bias_auto_learns_the_same_model_from_the_cli_and_a_job() {
    let tmp = TempDir::new("bias_auto");
    let data = tmp.path("uw");
    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "7"]);
    assert!(ok, "gen failed: {err}");
    let cli_model = tmp.path("cli.model");
    let (ok, _, err) = run(&[
        "learn", "--data", &data, "--bias", "auto", "--depth", "1", "--out", &cli_model,
    ]);
    assert!(ok, "learn failed: {err}");
    let models = tmp.path("models");
    std::fs::create_dir_all(&models).unwrap();
    let server = Server::start(&data, &models);
    let id = server.submit_job("name auto\nbias auto\ndepth 1\n");
    // `jobs watch` returns once the job is terminal, after its model is saved.
    let (ok, out, err) = run(&["jobs", "watch", &id, "--addr", &server.addr]);
    assert!(ok, "watch failed: {err}");
    assert!(out.contains("finished:"), "{out}");
    let status = server.request("GET", &format!("/jobs/{id}"), "");
    assert!(status.contains("state done"), "{status}");
    assert_eq!(
        std::fs::read_to_string(tmp.0.join("models/auto.model")).unwrap(),
        std::fs::read_to_string(&cli_model).unwrap()
    );
}

#[test]
fn log_level_flag_silences_info() {
    let tmp = TempDir::new("loglevel");
    let data = tmp.path("uw");
    let (ok, _, err) = run(&["gen", "--dataset", "uw", "--out", &data, "--seed", "5"]);
    assert!(ok, "gen failed: {err}");

    // Default level prints the info summary...
    let (ok, _, err) = run(&["inds", "--data", &data]);
    assert!(ok);
    assert!(err.contains("info: ") && err.contains("types"), "{err}");

    // ...and --log-level error silences it.
    let (ok, _, err) = run(&["inds", "--data", &data, "--log-level", "error"]);
    assert!(ok);
    assert!(!err.contains("info: "), "{err}");

    // Garbage levels are rejected.
    let (ok, _, err) = run(&["inds", "--data", &data, "--log-level", "loud"]);
    assert!(!ok);
    assert!(err.contains("unknown --log-level"), "{err}");
}
