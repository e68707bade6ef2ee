//! End-to-end equivalence of served `/predict` verdicts with the clause
//! interpreter, and the keep-alive request loop.
//!
//! Boots real servers over a UW dataset and asserts that `/predict`
//! responses are **byte-identical** to a reference computed in process:
//! the model file parsed against the loaded dataset and every tuple
//! evaluated by `definition_covers_args`. Covers a hand-written model and a
//! model learned by a background job, across 1 and 8 worker threads. Also
//! drives several requests down one keep-alive connection and checks the
//! reuse counter on `/metrics`. A second test holds every status and body
//! of the batch path — padded fields, CRLF, comments, constants the data
//! lacks, and each 400 — to a reference built on `parse_arg_tuple`.

#![allow(clippy::unwrap_used)] // tests assert; unwraps are the point

use autobias::clause_text::parse_definition_frozen;
use autobias::example::parse_arg_tuple;
use autobias::query::{definition_covers_args, EvalScratch, QueryConfig};
use autobias_serve::http::read_response_head;
use autobias_serve::{serve, ServeConfig};
use datasets::io::save_dataset;
use datasets::Dataset;
use obs::json::Json;
use relstore::ConstResolver;
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

/// A model whose head names a constant the data lacks: `ghost` gets an
/// ephemeral id at load, and a request mentioning `ghost` must resolve to
/// that same id.
const GHOST_MODEL: &str = "advisedBy(x, ghost) ← publication(z, x)\n";

/// The `/predict` contract computed in process, the way the batch path
/// computed it before it stopped allocating per tuple: header checks, then
/// every tuple split by `parse_arg_tuple`, checked for arity, echoed as
/// `fields.join(",")`, resolved through a `ConstResolver` seeded with the
/// model's unknown constants, and evaluated by the interpreter.
fn reference_predict(ds: &Dataset, models: &[(&str, &str)], body: &str) -> (u16, String) {
    let mut lines = body
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'));
    let Some(header) = lines.next() else {
        return (400, "empty body: expected `model NAME`\n".to_string());
    };
    let Some(name) = header
        .strip_prefix("model ")
        .map(str::trim)
        .filter(|n| !n.is_empty())
    else {
        return (
            400,
            format!("first line must be `model NAME`, got {header:?}\n"),
        );
    };
    let Some(&(_, text)) = models.iter().find(|(n, _)| *n == name) else {
        return (404, format!("no model {name:?} (see GET /models)\n"));
    };
    let (def, unknown) = parse_definition_frozen(&ds.db, text).expect("model parses");
    let mut resolver = ConstResolver::new(ds.db.dict());
    for s in &unknown {
        resolver.resolve(s);
    }
    let rel = def.clauses[0].head.rel;
    let arity = ds.db.catalog().schema(rel).arity();
    let mut tuples = Vec::new();
    for (i, line) in lines.enumerate() {
        let fields = match parse_arg_tuple(line) {
            Ok(fields) => fields,
            Err(e) => return (400, format!("tuple {}: {e}\n", i + 1)),
        };
        if fields.len() != arity {
            return (
                400,
                format!(
                    "tuple {}: target takes {arity} arguments, got {}\n",
                    i + 1,
                    fields.len()
                ),
            );
        }
        tuples.push(fields);
    }
    if tuples.is_empty() {
        return (
            400,
            "no tuples: expected one CSV tuple per line after `model NAME`\n".to_string(),
        );
    }
    let args: Vec<Vec<relstore::Const>> = tuples
        .iter()
        .map(|fields| fields.iter().map(|f| resolver.resolve(f)).collect())
        .collect();
    let qcfg = QueryConfig::default();
    let mut scratch = EvalScratch::default();
    let mut out = String::new();
    for (fields, args) in tuples.iter().zip(&args) {
        let covered = definition_covers_args(&ds.db, &def, rel, args, &qcfg, &mut scratch);
        let verdict = if covered { "positive" } else { "negative" };
        out.push_str(&format!("{}\t{verdict}\n", fields.join(",")));
    }
    (200, out)
}

#[test]
fn batch_bytes_match_the_reference_parser() {
    let (data, models) = setup_dirs("predict_bytes");
    std::fs::write(models.join("ghost.model"), GHOST_MODEL).unwrap();
    let access_log = data.parent().unwrap().join("access.jsonl");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        data_dir: data.clone(),
        models_dir: models.clone(),
        threads: 1,
        access_log: Some(access_log.clone()),
        request_trace: true,
    };
    let (handle, report) = serve(&cfg).expect("server boots");
    assert_eq!(
        report.loaded,
        vec!["coauthor", "ghost"],
        "{:?}",
        report.errors
    );
    let addr = handle.addr();
    let ds = datasets::io::load_dataset(&data).expect("load");
    let model_texts = [("coauthor", COAUTHOR_MODEL), ("ghost", GHOST_MODEL)];

    // Real tuples, each padded a different way: spaces, tabs, both, and a
    // non-breaking space, which `str::trim` also strips.
    let tuples = example_tuples(&ds);
    let pads = [
        (" ", " "),
        ("", ""),
        ("\t", "\t"),
        ("  \t", " \t "),
        ("\u{a0}", ""),
    ];
    let padded: String = tuples
        .lines()
        .enumerate()
        .map(|(i, line)| {
            let (l, r) = pads[i % pads.len()];
            let fields: Vec<String> = line.split(',').map(|f| format!("{l}{f}{r}")).collect();
            format!("{l}{}{r}\n", fields.join(","))
        })
        .collect();
    let first_padded = padded.lines().next().unwrap().to_string();
    let crlf: String = tuples
        .lines()
        .enumerate()
        .map(|(i, line)| match i % 4 {
            0 => format!("{line}\r\n\r\n"),
            1 => format!("# comment {i}\r\n {line} \r\n"),
            2 => format!("\t\r\n{line}\r\n"),
            _ => format!("{line}\n   # indented comment\n"),
        })
        .collect();
    let a_student = ds.db.const_name(ds.pos[0].args[0]).to_string();
    let a_prof = ds.db.const_name(ds.pos[0].args[1]).to_string();
    let unknown = format!(
        "ghost, {a_prof}\n{a_student},ghost\n nobody ,  {a_prof}\n{a_student}, nobody\n\
         s 1,prof 2\nghost,ghost\n{a_student},{a_prof}\n"
    );

    let bodies: Vec<String> = vec![
        format!("model coauthor\n{padded}"),
        format!("  model   coauthor  \n{padded}"),
        format!("# leading comment\r\nmodel coauthor\r\n\r\n{crlf}"),
        format!("model coauthor\n{unknown}"),
        format!("model ghost\n{unknown}{tuples}"),
        format!("model ghost\r\n{crlf}"),
        // Each 400 the batch path can answer, and the 404.
        format!("model coauthor\n{a_student},,{a_prof}\n"),
        format!("model coauthor\n{a_student}, \t ,{a_prof}\n"),
        format!("model coauthor\n{tuples}{a_student},{a_prof},\n"),
        format!("model coauthor\n,{a_prof}\n"),
        format!("model coauthor\n{a_student}\n"),
        format!("model coauthor\n{tuples}{a_student},{a_prof},{a_prof}\n"),
        "model coauthor\n".to_string(),
        "model coauthor\n# only a comment\n\r\n  \n".to_string(),
        String::new(),
        " \r\n\t\n".to_string(),
        format!("modl coauthor\n{tuples}"),
        format!("model \n{tuples}"),
        format!("coauthor\n{tuples}"),
        format!("model nope\n{tuples}"),
    ];
    for (k, body) in bodies.iter().enumerate() {
        let want = reference_predict(&ds, &model_texts, body);
        let got = request(addr, "POST", "/predict", body);
        assert_eq!(got, want, "body {k}: {body:?}");
    }
    // The differential must see both verdicts and ephemeral constants
    // matching the model's: `ghost` in the second field is a positive.
    let (_, ghost) = request(addr, "POST", "/predict", &bodies[4]);
    assert!(
        ghost
            .lines()
            .any(|l| l == format!("{a_student},ghost\tpositive")),
        "{ghost}"
    );
    assert!(ghost.lines().any(|l| l.ends_with("\tnegative")), "{ghost}");

    let (status, _) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle.join();

    // The access log samples the first tuple as the response echoes it.
    let access = std::fs::read_to_string(&access_log).unwrap();
    let first = access
        .lines()
        .map(|l| Json::parse(l).unwrap())
        .find(|l| l.get("route").unwrap().as_str() == Some("predict"))
        .unwrap_or_else(|| panic!("a predict line logged:\n{access}"));
    let want = parse_arg_tuple(&first_padded).unwrap().join(",");
    assert_ne!(want, first_padded.trim(), "the first tuple is padded");
    assert_eq!(first.get("args_sample").unwrap().as_str(), Some(&*want));
    let _ = std::fs::remove_dir_all(data.parent().unwrap());
}
