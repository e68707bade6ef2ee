//! `autobias` — command-line interface to the AutoBias reproduction.
//!
//! Works on dataset directories in the `datasets::io` CSV layout:
//!
//! ```text
//! autobias gen     --dataset uw --out data/uw [--seed 7]
//! autobias inds    --data data/uw [--max-error 0.5]
//! autobias induce  --data data/uw [--absolute 50 | --relative 0.18] [--out bias.txt]
//! autobias learn   --data data/uw --bias auto|manual|FILE [--out model.txt]
//!                  [--sampling naive|random|stratified|full] [--depth 2] [--seed 7]
//!                  [--sample-size 20] [--no-reduce] [--absolute 50 | --relative 0.18]
//! autobias eval    --data data/uw --model model.txt
//! autobias predict --data data/uw --model model.txt --args "s3,prof1"
//! autobias jobs    watch 3 [--addr 127.0.0.1:8720]
//! ```
//!
//! `eval` and `predict` use exact direct evaluation (`I ∧ C ⊨ e`) — learned
//! clauses are short, so no bias or sampling is needed at prediction time.
//! `learn` runs the server's learning-job pipeline
//! ([`autobias_serve::jobs::learn_model`]) with the same options.
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

use autobias::bias::auto::{induce_bias, AutoBiasConfig, ConstantThreshold};
use autobias::clause_text::parse_definition;
use autobias::eval::Metrics;
use autobias::query::{definition_covers, QueryConfig};
use autobias_serve::jobs::{
    learn_model, resolve_bias, LearnOptions, DEFAULT_CONSTANT_THRESHOLD, DEFAULT_SAMPLE_SIZE,
};
use datasets::io::{load_dataset, save_dataset};
use datasets::Dataset;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod args;
use args::Args;

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let cmd = argv.remove(0);
    let args = Args::new(argv);
    if let Err(e) = init_logging(&args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&args).map(done),
        "stats" => cmd_stats(&args).map(done),
        "inds" => cmd_inds(&args).map(done),
        "induce" => cmd_induce(&args).map(done),
        "learn" => cmd_learn(&args).map(done),
        "eval" => cmd_eval(&args).map(done),
        "predict" => cmd_predict(&args).map(done),
        "explain" => cmd_explain(&args).map(done),
        "check" => cmd_check(&args),
        "serve" => cmd_serve(&args).map(done),
        "jobs" => cmd_jobs(&args).map(done),
        "trace" => cmd_trace(&args).map(done),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            if e.contains("missing --") {
                eprintln!("{USAGE}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Maps a unit-returning command onto the success exit code.
fn done((): ()) -> ExitCode {
    ExitCode::SUCCESS
}

const USAGE: &str = "\
autobias — relational learning with automatic language bias

USAGE:
  autobias gen     --dataset uw|hiv|imdb|flt|sys --out DIR [--seed N]
                   [--profile paper|serve]  (serve: UW at serving density)
  autobias stats   --data DIR
  autobias inds    --data DIR [--max-error F]
  autobias induce  --data DIR [--absolute N | --relative F] [--out FILE]
                   [--format native|aleph]
  autobias learn   --data DIR [--bias auto|manual|FILE] [--out FILE]
                   [--sampling naive|random|stratified|full] [--sample-size N]
                   [--depth N] [--seed N] [--no-reduce] [--absolute N | --relative F]
                   [--trace-out FILE] [--profile] [--report-out FILE]
  autobias eval    --data DIR --model FILE
  autobias predict --data DIR --model FILE --args \"v1,v2\"
  autobias explain --data DIR --model FILE [--json] [--verify]
  autobias check   --data DIR (--bias FILE | --model FILE [--bias auto|manual|FILE])
                   [--format text|json]
  autobias serve   --data DIR --models DIR [--addr HOST:PORT] [--threads N]
                   [--access-log FILE] [--log-level error|warn|info|debug]
  autobias jobs    watch ID [--addr HOST:PORT]
  autobias trace   dump TRACE_ID [--addr HOST:PORT] [--format tree|chrome]
                   [--out FILE]

Every command accepts --log-level error|warn|info|debug (or set AUTOBIAS_LOG).
check: static verification (lints AB0xx/AB1xx, plan soundness AB2xx);
       exits non-zero on Error findings. --bias alone lints a bias file
       against the data's type graph; --model lints a learned theory and
       verifies its compiled plans (add --bias for mode checks).
learn: the same pipeline and options as a server learning job (POST
       /jobs/learn); --absolute/--relative set the constant threshold of
       --bias auto (default --absolute 50);
       --trace-out writes the run's span tree (bias, learn, worker
       threads) as chrome-trace JSON (open in ui.perfetto.dev);
       --profile prints the run's per-phase wall-clock and counter tables
       to stderr; --report-out writes a structured JSON run report
       (schema v2). All three read the one record of the run.
explain: renders the compiled evaluation plan per clause — access paths,
       probe keys, residual checks, cost estimates, and declined clauses
       with reasons. --json emits the same versioned document served by
       GET /models/{name}/plan. --verify appends the plan soundness
       verdict (AB2xx) — text line or JSON \"verify\" object.
jobs watch: streams a running server's learning-job progress events (SSE).
serve: --access-log appends one JSON line per request (trace id, route,
       status, latency, plan totals), rotated at a size cap.
trace dump: fetches one tail-sampled trace from a running server
       (GET /debug/traces/{id}); --format chrome writes a chrome-trace
       JSON loadable in ui.perfetto.dev.";

/// Applies `--log-level` (which wins over the `AUTOBIAS_LOG` environment
/// variable read by `obs` on first use).
fn init_logging(args: &Args) -> Result<(), String> {
    if let Some(spec) = args.get_str("--log-level") {
        let level = obs::log::Level::parse(spec)
            .ok_or_else(|| format!("unknown --log-level {spec:?} (error|warn|info|debug)"))?;
        obs::log::set_level(level);
    }
    Ok(())
}

fn load(args: &Args) -> Result<Dataset, String> {
    let dir = args.get_str("--data").ok_or("missing --data DIR")?;
    load_dataset(Path::new(dir)).map_err(|e| format!("loading {dir}: {e}"))
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let which = args.get_str("--dataset").ok_or("missing --dataset NAME")?;
    let out = PathBuf::from(args.get_str("--out").ok_or("missing --out DIR")?);
    let seed: u64 = args.get("--seed", 7)?;
    let profile = args.get_str("--profile").unwrap_or("paper");
    let uw_config = match profile {
        "paper" => datasets::uw::UwConfig::default(),
        "serve" => datasets::uw::serve_profile(),
        other => return Err(format!("unknown profile {other:?} (paper|serve)")),
    };
    if profile != "paper" && !which.eq_ignore_ascii_case("uw") {
        return Err(format!(
            "--profile {profile} is only defined for --dataset uw"
        ));
    }
    let ds = match which.to_ascii_lowercase().as_str() {
        "uw" => datasets::uw::generate(&uw_config, seed),
        "hiv" => datasets::hiv::generate(&datasets::hiv::HivConfig::default(), seed),
        "imdb" => datasets::imdb::generate(&datasets::imdb::ImdbConfig::default(), seed),
        "flt" => datasets::flt::generate(&datasets::flt::FltConfig::default(), seed),
        "sys" => datasets::sys::generate(&datasets::sys::SysConfig::default(), seed),
        other => return Err(format!("unknown dataset {other:?} (uw|hiv|imdb|flt|sys)")),
    };
    save_dataset(&ds, &out).map_err(|e| e.to_string())?;
    println!("wrote {} to {}", ds.summary(), out.display());
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    println!("{}", ds.summary());
    println!(
        "{:<16} {:>8}  attributes (distinct values)",
        "relation", "tuples"
    );
    for (rel, schema) in ds.db.catalog().iter() {
        let n = ds.db.relation(rel).len();
        let cols: Vec<String> = (0..schema.arity())
            .map(|pos| {
                let d = ds.db.distinct(relstore::AttrRef::new(rel, pos)).len();
                format!("{} ({d})", schema.attrs[pos])
            })
            .collect();
        println!("{:<16} {:>8}  {}", schema.name, n, cols.join(", "));
    }
    Ok(())
}

fn cmd_inds(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let cfg = constraints::IndConfig {
        max_error: args.get("--max-error", 0.5)?,
        ..constraints::IndConfig::default()
    };
    let inds = constraints::discover_inds(&ds.db, &cfg);
    for ind in &inds {
        println!("{}", ind.render(&ds.db));
    }
    let graph = constraints::build_type_graph(&ds.db, &inds);
    obs::info!(
        "{} INDs ({} exact), {} types",
        inds.len(),
        inds.iter().filter(|i| i.is_exact()).count(),
        graph.num_types
    );
    Ok(())
}

fn threshold(args: &Args) -> Result<ConstantThreshold, String> {
    Ok(if let Some(n) = args.try_get::<usize>("--absolute")? {
        ConstantThreshold::Absolute(n)
    } else if let Some(f) = args.try_get::<f64>("--relative")? {
        ConstantThreshold::Relative(f)
    } else {
        DEFAULT_CONSTANT_THRESHOLD
    })
}

fn cmd_induce(args: &Args) -> Result<(), String> {
    let ds = load(args)?;
    let cfg = AutoBiasConfig {
        constant_threshold: threshold(args)?,
        ..AutoBiasConfig::default()
    };
    let (bias, _, stats) = induce_bias(&ds.db, ds.target, &cfg).map_err(|e| e.to_string())?;
    let text = match args.get_str("--format").unwrap_or("native") {
        "native" => bias.render(&ds.db),
        "aleph" => autobias::bias::aleph::render_aleph_bias(&ds.db, &bias),
        other => return Err(format!("unknown format {other:?} (native|aleph)")),
    };
    match args.get_str("--out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| e.to_string())?;
            println!("wrote {} definitions to {path}", bias.size());
        }
        None => print!("{text}"),
    }
    obs::info!(
        "{} preds + {} modes from {} exact / {} approximate INDs in {:?}",
        stats.num_preds,
        stats.num_modes,
        stats.exact_inds,
        stats.approx_inds,
        stats.ind_time + stats.bias_time
    );
    Ok(())
}

fn pick_bias(args: &Args, ds: &Dataset) -> Result<autobias::bias::LanguageBias, String> {
    match args.get_str("--bias").unwrap_or("auto") {
        which @ ("auto" | "manual") => resolve_bias(ds, which, threshold(args)?),
        path => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            // Auto-detect Aleph mode declarations.
            if text.lines().any(|l| l.trim_start().starts_with(":- mode")) {
                autobias::bias::aleph::parse_aleph_bias(&ds.db, ds.target, &text)
                    .map_err(|e| format!("{path}: {e}"))
            } else {
                autobias::bias::parse::parse_bias(&ds.db, ds.target, &text)
                    .map_err(|e| format!("{path}: {e}"))
            }
        }
    }
}

/// The learn options `autobias learn` takes as flags.
fn learn_options(args: &Args) -> Result<LearnOptions, String> {
    let defaults = LearnOptions::default();
    Ok(LearnOptions {
        bias: args.get_str("--bias").unwrap_or("auto").to_string(),
        sampling: LearnOptions::parse_sampling(
            args.get_str("--sampling").unwrap_or("naive"),
            args.get("--sample-size", DEFAULT_SAMPLE_SIZE)?,
        )?,
        depth: args.get("--depth", defaults.depth)?,
        seed: args.get("--seed", defaults.seed)?,
        reduce: !args.has("--no-reduce"),
        ..defaults
    })
}

fn cmd_learn(args: &Args) -> Result<(), String> {
    let trace_out = args.get_str("--trace-out");
    let report_out = args.get_str("--report-out");
    let profile = args.has("--profile");
    let opts = learn_options(args)?;
    let ds = load(args)?;
    // The run's record: its trace tree is installed around bias resolution
    // and learning, and --report-out, --profile and --trace-out all read it.
    let report = obs::ReportBuilder::new(ds.name, opts.report_params());
    let t0;
    let run = {
        let _traced = report.trace().install();
        let bias = pick_bias(args, &ds)?;
        t0 = std::time::Instant::now();
        let never = std::sync::atomic::AtomicBool::new(false);
        learn_model(
            &ds,
            &bias,
            &opts,
            ds.name.to_string(),
            &report,
            &obs::progress::NullSink,
            &never,
        )
    };
    // Verification findings go to stderr and never alter the model output;
    // Error findings fail the command.
    if !run.verdict.is_clean() {
        eprint!("{}", run.verdict.render_text());
    }
    if run.verdict.has_errors() {
        return Err(format!(
            "learned definition failed static verification: {}",
            run.verdict.summary()
        ));
    }
    let def = &run.model.definition;
    let text = def.render(&ds.db);
    match args.get_str("--out") {
        Some(path) => {
            std::fs::write(path, format!("{text}\n")).map_err(|e| e.to_string())?;
            println!("wrote {} clause(s) to {path}", def.len());
        }
        None => println!("{text}"),
    }
    obs::info!(
        "learned in {:?} ({} uncovered positives, BC time {:?})",
        t0.elapsed(),
        run.stats.uncovered_pos,
        run.stats.bc_time
    );
    let record = report.finish();
    if let Some(path) = report_out {
        std::fs::write(path, format!("{}\n", record.to_json()))
            .map_err(|e| format!("{path}: {e}"))?;
        obs::info!("wrote run report to {path}");
    }
    if let Some(path) = trace_out {
        let json = report.trace().finish().to_chrome();
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        obs::info!("wrote chrome trace to {path} (open in ui.perfetto.dev)");
    }
    if profile {
        eprint!("{}", record.render_profile());
    }
    Ok(())
}

/// `autobias check`: static verification of a bias or model file against a
/// dataset. Prints the diagnostics (text or JSON) and exits non-zero when
/// any Error-severity finding fires, so CI can gate on model artifacts.
fn cmd_check(args: &Args) -> Result<ExitCode, String> {
    let format = args.get_str("--format").unwrap_or("text");
    if !matches!(format, "text" | "json") {
        return Err(format!("unknown format {format:?} (text|json)"));
    }
    let ds = load(args)?;
    let report = match (args.get_str("--model"), args.get_str("--bias")) {
        (Some(path), bias_arg) => {
            // Mode/type conformance only runs when a bias is supplied; the
            // structural rules always do.
            let bias = match bias_arg {
                Some(_) => Some(pick_bias(args, &ds)?),
                None => None,
            };
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let (mut report, parsed) = analyze::check_model_source(&ds.db, &text, bias.as_ref());
            // Compile the model exactly the way the server's registry would
            // and run the plan soundness pass (AB2xx) offline, so CI catches
            // a plan the serve path would refuse before deployment.
            if let Some((definition, _)) = parsed {
                let compiled =
                    plan::compile_definition(&ds.db, &definition, &plan::CompileConfig::default());
                // The compile-boundary report covers every produced plan,
                // including any the verifier declined.
                report.merge(compiled.verify_report().clone());
            }
            report
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            // The data's own type graph cross-checks the file's typing
            // (lint AB011), and the constant threshold bounds `#` modes.
            let inds = constraints::discover_inds(&ds.db, &constraints::IndConfig::default());
            let graph = constraints::build_type_graph(&ds.db, &inds);
            analyze::check_bias_source(
                &ds.db,
                ds.target,
                &text,
                Some(&graph),
                Some(threshold(args)?),
            )
        }
        (None, None) => return Err("missing --bias FILE or --model FILE".to_string()),
    };
    match format {
        "json" => println!("{}", report.to_json()),
        _ => print!("{}", report.render_text()),
    }
    Ok(if report.has_errors() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn load_model(args: &Args, ds: &mut Dataset) -> Result<autobias::clause::Definition, String> {
    let path = args.get_str("--model").ok_or("missing --model FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_definition(&mut ds.db, &text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_eval(args: &Args) -> Result<(), String> {
    args.get_str("--model").ok_or("missing --model FILE")?;
    let mut ds = load(args)?;
    let def = load_model(args, &mut ds)?;
    let qcfg = QueryConfig::default();
    let tp = ds
        .pos
        .iter()
        .filter(|e| definition_covers(&ds.db, &def, e, &qcfg))
        .count();
    let fp = ds
        .neg
        .iter()
        .filter(|e| definition_covers(&ds.db, &def, e, &qcfg))
        .count();
    let m = Metrics {
        tp,
        fp,
        fn_: ds.pos.len() - tp,
    };
    println!(
        "precision {:.3}  recall {:.3}  f-measure {:.3}  (tp {} fp {} fn {})",
        m.precision(),
        m.recall(),
        m.f_measure(),
        m.tp,
        m.fp,
        m.fn_
    );
    Ok(())
}

fn cmd_predict(args: &Args) -> Result<(), String> {
    args.get_str("--model").ok_or("missing --model FILE")?;
    let raw = args.get_str("--args").ok_or("missing --args \"v1,v2\"")?;
    let mut ds = load(args)?;
    let def = load_model(args, &mut ds)?;
    let fields: Vec<&str> = autobias::example::split_arg_tuple(raw)?.collect();
    let arity = ds.db.catalog().schema(ds.target).arity();
    if fields.len() != arity {
        return Err(format!(
            "target takes {arity} arguments, got {}",
            fields.len()
        ));
    }
    let example = autobias::example::Example::from_strs(&mut ds.db, ds.target, &fields);
    let covered = definition_covers(&ds.db, &def, &example, &QueryConfig::default());
    println!(
        "{} → {}",
        example.render(&ds.db),
        if covered { "POSITIVE" } else { "negative" }
    );
    Ok(())
}

/// `autobias explain`: EXPLAIN for a model file — how each clause would be
/// evaluated at serving time. Compiles the definition exactly the way the
/// server's registry does at model load. `--verify` re-runs the plan
/// soundness pass offline and appends its verdict (text) or a `verify`
/// object (JSON) to the document.
fn cmd_explain(args: &Args) -> Result<(), String> {
    let path = args.get_str("--model").ok_or("missing --model FILE")?;
    let mut ds = load(args)?;
    let def = load_model(args, &mut ds)?;
    let compiled = plan::compile_definition(&ds.db, &def, &plan::CompileConfig::default());
    let verify = args
        .has("--verify")
        .then(|| plan::verify_definition(&ds.db, &def, &compiled));
    if args.has("--json") {
        let name = Path::new(path).file_stem().and_then(|s| s.to_str());
        let mut doc = plan::explain::explain(&ds.db, name, &[], &def, &compiled, None);
        if let (Some(report), obs::json::Json::Obj(fields)) = (&verify, &mut doc) {
            fields.push(("verify".to_string(), report.to_json()));
        }
        println!("{doc}");
    } else {
        print!("{}", plan::explain_text(&ds.db, &[], &def, &compiled, None));
        if let Some(report) = &verify {
            if report.is_clean() {
                println!(
                    "verify: clean ({} plan(s) proved equivalent to their clauses)",
                    compiled.num_compiled()
                );
            } else {
                print!("{}", report.render_text());
            }
        }
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let data = args.get_str("--data").ok_or("missing --data DIR")?;
    let models = args.get_str("--models").ok_or("missing --models DIR")?;
    let cfg = autobias_serve::ServeConfig {
        addr: args
            .get_str("--addr")
            .unwrap_or("127.0.0.1:8720")
            .to_string(),
        data_dir: PathBuf::from(data),
        models_dir: PathBuf::from(models),
        threads: args.get("--threads", 4usize)?,
        access_log: args.get_str("--access-log").map(PathBuf::from),
        // Read once per boot: `AUTOBIAS_TRACE=0` serves untraced.
        request_trace: std::env::var("AUTOBIAS_TRACE").map_or(true, |v| v != "0"),
    };
    let (handle, report) = autobias_serve::serve(&cfg)?;
    for (file, e) in &report.errors {
        obs::warn!("skipped model {file}: {e}");
    }
    println!(
        "listening on http://{} ({} model(s): {})",
        handle.addr(),
        report.loaded.len(),
        report.loaded.join(" ")
    );
    println!("POST /shutdown to stop");
    handle.join();
    println!("shut down cleanly");
    Ok(())
}

const JOBS_USAGE: &str = "usage: autobias jobs watch ID [--addr HOST:PORT]";

fn cmd_jobs(args: &Args) -> Result<(), String> {
    let positionals = args.positionals();
    match positionals.as_slice() {
        ["watch", id] => watch_job(args.get_str("--addr").unwrap_or("127.0.0.1:8720"), id),
        _ => Err(JOBS_USAGE.to_string()),
    }
}

const TRACE_USAGE: &str =
    "usage: autobias trace dump TRACE_ID [--addr HOST:PORT] [--format tree|chrome] [--out FILE]";

fn cmd_trace(args: &Args) -> Result<(), String> {
    let positionals = args.positionals();
    match positionals.as_slice() {
        ["dump", id] => dump_trace(
            args.get_str("--addr").unwrap_or("127.0.0.1:8720"),
            id,
            args.get_str("--format").unwrap_or("tree"),
            args.get_str("--out"),
        ),
        _ => Err(TRACE_USAGE.to_string()),
    }
}

/// One-shot `GET /debug/traces/{id}` against a running server. The trace
/// only exists if the tail sampler kept it (errored, fell back to the
/// interpreter, ran slow, or was a learn job).
fn dump_trace(addr: &str, id: &str, format: &str, out: Option<&str>) -> Result<(), String> {
    use autobias_serve::http::read_response_head;
    use std::io::{BufReader, Read, Write};

    if id.is_empty() || !id.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("trace id must be hex: {TRACE_USAGE}"));
    }
    let path = match format {
        "tree" => format!("/debug/traces/{id}"),
        "chrome" => format!("/debug/traces/{id}?format=chrome"),
        other => return Err(format!("unknown --format {other}: {TRACE_USAGE}")),
    };
    let mut conn =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    conn.flush().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(conn);
    let (status, headers) =
        read_response_head(&mut reader).map_err(|e| format!("bad response: {e}"))?;
    let mut body = String::new();
    let len = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse::<usize>().ok());
    match len {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader
                .read_exact(&mut buf)
                .map_err(|e| format!("reading body: {e}"))?;
            body.push_str(&String::from_utf8_lossy(&buf));
        }
        None => {
            reader
                .read_to_string(&mut body)
                .map_err(|e| format!("reading body: {e}"))?;
        }
    }
    if status == 404 {
        return Err(format!(
            "no kept trace {id} (only errored, slow, interpreter-fallback, or job requests are kept)"
        ));
    }
    if status != 200 {
        return Err(format!("server returned {status} for trace {id}"));
    }
    match out {
        Some(file) => {
            std::fs::write(file, body.as_bytes()).map_err(|e| format!("writing {file}: {e}"))?;
            println!("wrote trace {id} to {file}");
        }
        None => println!("{body}"),
    }
    Ok(())
}

/// Streams `GET /jobs/{id}/events` from a running server and renders each
/// SSE frame as one human-readable progress line. Exits when the job
/// reaches a terminal state (the server closes the stream).
fn watch_job(addr: &str, id: &str) -> Result<(), String> {
    use autobias_serve::http::{read_response_head, ChunkedReader};
    use std::io::{BufReader, Write};

    id.parse::<u64>().map_err(|_| JOBS_USAGE.to_string())?;
    let mut conn =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    write!(
        conn,
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| e.to_string())?;
    conn.flush().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(conn);
    let (status, _) = read_response_head(&mut reader).map_err(|e| format!("bad response: {e}"))?;
    if status != 200 {
        return Err(format!("server returned {status} for job {id}"));
    }
    let mut chunks = ChunkedReader::new(reader);
    let mut buf = String::new();
    loop {
        // Drain complete SSE frames (separated by a blank line) before
        // blocking on the next chunk.
        while let Some(end) = buf.find("\n\n") {
            let frame: String = buf.drain(..end + 2).collect();
            let mut event = None;
            let mut data = None;
            for line in frame.lines() {
                if let Some(e) = line.strip_prefix("event: ") {
                    event = Some(e.to_string());
                } else if let Some(d) = line.strip_prefix("data: ") {
                    data = Some(d.to_string());
                }
            }
            if let (Some(event), Some(data)) = (event, data) {
                if let Some(line) = render_event(&event, &data) {
                    println!("{line}");
                }
            }
        }
        match chunks.next_chunk().map_err(|e| format!("stream: {e}"))? {
            Some(chunk) => buf.push_str(&String::from_utf8_lossy(&chunk)),
            None => return Ok(()),
        }
    }
}

/// One progress line per SSE event; `None` drops events too noisy for an
/// interactive watch (per-candidate beam statistics).
fn render_event(event: &str, data: &str) -> Option<String> {
    let json = obs::json::Json::parse(data).ok()?;
    let num = |key: &str| json.get(key).and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
    let secs = |key: &str| num(key) as f64 / 1e6;
    Some(match event {
        "bc_build_finished" => format!(
            "bottom clauses: {} pos, {} neg, {} ground literals ({:.2}s)",
            num("pos_examples"),
            num("neg_examples"),
            num("ground_literals"),
            secs("elapsed_us")
        ),
        "iteration_started" => format!(
            "iteration {}: {} uncovered positives, {} clause(s) so far",
            num("iteration"),
            num("uncovered_pos"),
            num("clauses_so_far")
        ),
        "clause_accepted" => format!(
            "  + {} ({} pos / {} neg)",
            json.get("clause").and_then(|v| v.as_str()).unwrap_or("?"),
            num("covered_pos"),
            num("covered_neg")
        ),
        "clause_rejected" => format!(
            "  - rejected candidate ({} pos / {} neg)",
            num("covered_pos"),
            num("covered_neg")
        ),
        "clause_searched" => return None,
        "dropped" => format!("(stream fell behind: {} event(s) missed)", num("missed")),
        "finished" => {
            let tail = if json.get("cancelled").and_then(|v| v.as_bool()) == Some(true) {
                " [cancelled]"
            } else if json.get("timed_out").and_then(|v| v.as_bool()) == Some(true) {
                " [timed out]"
            } else {
                ""
            };
            format!(
                "finished: {} clause(s), {} uncovered positives (bc {:.2}s, search {:.2}s){tail}",
                num("clauses"),
                num("uncovered_pos"),
                secs("bc_us"),
                secs("search_us")
            )
        }
        other => format!("{other}: {data}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `autobias learn` flags and a `POST /jobs/learn` body naming the same
    /// options select the same learner and the same report params.
    #[test]
    fn cli_flags_and_job_body_select_the_same_run() {
        let cases: [(&[&str], &str); 3] = [
            (&[], ""),
            (
                &[
                    "--bias",
                    "manual",
                    "--depth",
                    "3",
                    "--seed",
                    "42",
                    "--no-reduce",
                ],
                "bias manual\ndepth 3\nseed 42\nreduce false\n",
            ),
            (
                &["--sampling", "random", "--sample-size", "5"],
                "sampling random\nsample-size 5\n",
            ),
        ];
        for (flags, body) in cases {
            let cli =
                learn_options(&Args::new(flags.iter().map(|f| f.to_string()).collect())).unwrap();
            let job = autobias_serve::jobs::JobSpec::parse(body).unwrap().learn;
            assert_eq!(
                format!("{:?}", cli.learner_config()),
                format!("{:?}", job.learner_config()),
                "{flags:?}"
            );
            assert_eq!(cli.report_params(), job.report_params(), "{flags:?}");
            assert_eq!(cli, job);
        }
    }
}
