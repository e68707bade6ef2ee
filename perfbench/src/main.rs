//! `perfbench` — the repository benchmark: four workloads over AutoBias
//! learning and serving, checked for correctness, with end-to-end metrics
//! from an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload uw-cv|hiv-cv|serve-point|serve-batch
//!           --seed N --seconds S --trace 0|1
//! perfbench spread FILE...   # median and quartile spread of saved results
//! ```
//!
//! Run from the repository root (see README.md). The inputs are generated
//! by a child process into `.perfbench/work/`, untimed, and the run then
//! measures only the program on those files. Every workload runs on the
//! datasets of data seed [`DATA_SEED`]; `--seed` sets the order the serving
//! workloads request the pool in, and `--data-seed N` overrides the data
//! seed, to check a claim on other inputs. The last line of
//! standard output is the JSON result, also written under `.perfbench/out/`
//! (with a chrome trace of the benchmark's spans when traced).

mod cv;
mod host;
mod report;
mod serving;
mod spans;
mod stats;

use cv::CvData;
use report::{catalogue, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload uw-cv|hiv-cv|serve-point|serve-batch \
                     --seed N --seconds S --trace 0|1 [--data-seed N]\n       perfbench spread FILE...";

/// The generator seed of every workload's inputs unless `--data-seed`
/// overrides it: the seed of the paper-table runs. Learn time moves by a
/// third between generated UW datasets (8.9 to 16.7 s per fold over seeds
/// 1 to 5), far beyond any usable bound, so every run works on the same
/// data; the correctness checks pin this seed's results.
pub const DATA_SEED: u64 = 7;

/// Tuples per `/predict` request on `serve-batch`.
const BATCH: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    UwCv,
    HivCv,
    ServePoint,
    ServeBatch,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "uw-cv" => Self::UwCv,
            "hiv-cv" => Self::HivCv,
            "serve-point" => Self::ServePoint,
            "serve-batch" => Self::ServeBatch,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::UwCv => "uw-cv",
            Self::HivCv => "hiv-cv",
            Self::ServePoint => "serve-point",
            Self::ServeBatch => "serve-batch",
        }
    }

    /// Writes this workload's inputs for `seed` into `dir`.
    fn generate(self, seed: u64, dir: &Path) -> Result<(), String> {
        match self {
            Self::UwCv => cv::generate(CvData::Uw, seed, dir),
            Self::HivCv => cv::generate(CvData::Hiv, seed, dir),
            Self::ServePoint | Self::ServeBatch => serving::generate(seed, dir),
        }
    }

    fn run(self, dir: &Path, a: &Args) -> Result<Outcome, String> {
        let (seed, run_seed) = (a.seed, a.run_seed);
        match self {
            Self::UwCv => cv::run(CvData::Uw, dir, seed, a.seconds, a.trace),
            Self::HivCv => cv::run(CvData::Hiv, dir, seed, a.seconds, a.trace),
            Self::ServePoint => serving::run(1, dir, seed, run_seed, a.seconds, a.trace),
            Self::ServeBatch => serving::run(BATCH, dir, seed, run_seed, a.seconds, a.trace),
        }
    }
}

struct Args {
    workload: Workload,
    /// `--seed`.
    run_seed: u64,
    /// The seed inputs are generated from.
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |key| flag(args, key).ok_or(format!("missing {key}"));
    let workload = need("--workload")?;
    let seconds: f64 = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?;
    let run_seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seed = match flag(args, "--data-seed") {
        Some(s) => s.parse().map_err(|e| format!("--data-seed: {e}"))?,
        None => DATA_SEED,
    };
    Ok(Args {
        workload,
        run_seed,
        seed,
        seconds,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
        },
    })
}

/// Generates the inputs in a child process, so neither the generator's
/// time nor its memory counts against the measured process.
fn generate_in_child(a: &Args, dir: &Path) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .args(["gen", a.workload.name(), &a.seed.to_string()])
        .arg(dir)
        .status()
        .map_err(|e| format!("spawn generator: {e}"))?;
    status
        .success()
        .then_some(())
        .ok_or(format!("generator exited with {status}"))
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let root = Path::new(".perfbench");
    let tag = format!(
        "{}-seed{}-trace{}",
        a.workload.name(),
        a.run_seed,
        u8::from(a.trace)
    );
    let work = root
        .join("work")
        .join(format!("{tag}-{}", std::process::id()));
    let out_dir = root.join("out");
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;

    let result = generate_in_child(a, &work).and_then(|()| {
        let probe = host::NoiseProbe::start();
        let outcome = a.workload.run(&work, a)?;
        Ok((outcome, probe.finish()))
    });
    // The generated inputs are large (HIV) and rebuilt from the seed.
    let _ = std::fs::remove_dir_all(&work);
    let (mut outcome, noise) = result?;

    outcome.detail("data_seed", a.seed);
    outcome.detail("steal_share", format!("{:.4}", noise.steal_share));
    outcome.detail(
        "loadavg_1m",
        format!("{:.2} -> {:.2}", noise.load_before, noise.load_after),
    );
    outcome.detail("process_threads", host::threads());
    outcome.detail(
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let list = if a.trace {
        &catalogue().per_layer
    } else {
        &catalogue().end_to_end
    };
    if !a.trace {
        // Every end-to-end metric is a positive quantity; a 0 means a
        // reading failed (no `/proc`, say), not a fast program.
        for (name, _) in list {
            if !outcome.values.get(name).is_some_and(|v| v > 0.0) {
                outcome
                    .errors
                    .push(format!("{name} read 0 or was not measured"));
            }
        }
    }
    let mut missing = Vec::new();
    let line = outcome.result_line(list, &mut missing);
    if !missing.is_empty() {
        outcome.detail("not_exercised", missing.join(" "));
    }
    if let Some(spans) = outcome.spans.take() {
        let (kept, dropped) = spans.counts();
        outcome.detail("spans", format!("{kept} kept, {dropped} dropped"));
        write_file(
            &out_dir.join(format!("{tag}.trace.json")),
            &spans.to_chrome(),
        )?;
    }
    for e in &outcome.errors {
        outcome.details.push(("error".to_string(), e.clone()));
    }
    let mut text = String::new();
    for (k, v) in &outcome.details {
        text.push_str(&format!("{k}: {v}\n"));
    }
    text.push_str(&line);
    text.push('\n');
    write_file(&out_dir.join(format!("{tag}.txt")), &text)?;
    write_file(&out_dir.join(format!("{tag}.json")), &line)?;
    print!("{text}");
    Ok(if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// `perfbench spread FILE...`: for each metric in the saved results (the
/// last line of each file), its median, quartiles and quartile spread as a
/// share of the median — the figure a bound in `BENCHMARK.json` must cover.
fn spread(files: &[String]) -> Result<(), String> {
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("read {f}: {e}"))?;
        let last = text.lines().last().unwrap_or("");
        let json = obs::json::Json::parse(last).map_err(|e| format!("{f}: {e}"))?;
        let metrics = json
            .get("metrics")
            .and_then(|m| m.as_obj())
            .ok_or(format!("{f}: no metrics"))?;
        for (name, m) in metrics {
            if !stats::valid_metric_name(name) {
                return Err(format!("{f}: invalid metric name {name:?}"));
            }
            let v = m
                .get("value")
                .and_then(|v| v.as_f64())
                .ok_or(format!("{f}: {name}"))?;
            match values.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(v),
                None => values.push((name.clone(), vec![v])),
            }
        }
    }
    println!(
        "{:<36} {:>5} {:>14} {:>14} {:>14} {:>8}",
        "metric", "n", "q1", "median", "q3", "spread"
    );
    for (name, vs) in &values {
        let med = stats::median(vs).unwrap_or(0.0);
        let (q1, q3) = stats::quartiles(vs).map_or((med, med), |[a, _, c]| (a, c));
        let share = stats::spread_share(vs).map_or("-".to_string(), |s| format!("{s:.4}"));
        println!(
            "{name:<36} {:>5} {q1:>14.6} {med:>14.6} {q3:>14.6} {share:>8}",
            vs.len()
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => match &args[1..] {
            [w, seed, dir] => Workload::parse(w)
                .ok_or(format!("unknown workload {w:?}"))
                .and_then(|w| {
                    let seed = seed.parse().map_err(|e| format!("seed: {e}"))?;
                    w.generate(seed, &PathBuf::from(dir))
                })
                .map(|()| ExitCode::SUCCESS),
            _ => Err(USAGE.to_string()),
        },
        Some("spread") => spread(&args[1..]).map(|()| ExitCode::SUCCESS),
        _ => parse_args(&args)
            .map_err(|e| format!("{e}\n{USAGE}"))
            .and_then(|a| run(&a)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}
