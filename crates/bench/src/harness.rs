//! Shared experiment harness: runs one (dataset, method) cell of Table 5 or
//! one (dataset, sampling) cell of Table 6 and formats the tables.

use autobias::bias::auto::AutoBiasConfig;
use autobias::bias::baseline::{castor_bias, no_const_bias};
use autobias::bias::overlap::overlap_bias;
use autobias::bias::LanguageBias;
use autobias::bottom::{BcConfig, SamplingStrategy};
use autobias::eval::{evaluate_definition, kfold_splits, Metrics};
use autobias::learn::{Learner, LearnerConfig};
use autobias_serve::jobs::{resolve_bias, DEFAULT_CONSTANT_THRESHOLD};
use datasets::Dataset;
use foil::{FoilConfig, FoilLearner};
use std::time::{Duration, Instant};

/// The five methods of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Castor baseline: no real bias (universal type, constants everywhere).
    Castor,
    /// Castor without constants.
    NoConst,
    /// Castor with the expert-written bias.
    Manual,
    /// Aleph emulating FOIL, with the expert bias.
    Aleph,
    /// AutoBias: automatically induced bias.
    AutoBias,
    /// Extension (not in the paper's Table 5): McCreath–Sharma overlap
    /// typing \[34\] — same type on any single-value overlap (§7 argues this
    /// under-restricts the space; `table5 --extended` measures it).
    Overlap,
}

impl Method {
    /// All methods in Table 5's column order.
    pub const ALL: [Method; 5] = [
        Method::Castor,
        Method::NoConst,
        Method::Manual,
        Method::Aleph,
        Method::AutoBias,
    ];

    /// Table 5 columns plus the overlap-typing extension.
    pub const EXTENDED: [Method; 6] = [
        Method::Castor,
        Method::NoConst,
        Method::Manual,
        Method::Aleph,
        Method::AutoBias,
        Method::Overlap,
    ];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Castor => "Castor",
            Method::NoConst => "No const.",
            Method::Manual => "Manual",
            Method::Aleph => "Aleph",
            Method::AutoBias => "AutoBias",
            Method::Overlap => "Overlap",
        }
    }
}

/// One cell of an experiment table.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Mean precision over folds.
    pub precision: f64,
    /// Mean recall over folds.
    pub recall: f64,
    /// Mean F-measure over folds.
    pub f_measure: f64,
    /// Mean learning time per fold (includes bias induction for AutoBias).
    pub time: Duration,
    /// Whether any fold hit the time budget (rendered like the paper's
    /// `>10h` rows).
    pub timed_out: bool,
    /// Size of the language bias used (predicate + mode definitions).
    pub bias_size: usize,
    /// Time spent inducing / constructing the bias (IND discovery for
    /// AutoBias; ~0 for others).
    pub bias_time: Duration,
}

/// Harness-wide settings.
#[derive(Debug, Clone, Copy)]
pub struct HarnessConfig {
    /// Cross-validation folds (the paper: 5 for UW, 10 elsewhere; we default
    /// to 5 to keep the default run quick — pass `--folds` to change).
    pub folds: usize,
    /// Per-fold learning time budget.
    pub budget: Duration,
    /// RNG seed.
    pub seed: u64,
    /// BC construction depth.
    pub depth: usize,
    /// Tuples kept per mode probe ("at most 20 tuples per mode", §6.1).
    pub sample_per_mode: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            folds: 5,
            budget: Duration::from_secs(120),
            seed: 7,
            depth: 2,
            sample_per_mode: 20,
        }
    }
}

/// Builds the language bias for a method over a dataset. Returns the bias,
/// its construction time, and its size.
pub fn bias_for(method: Method, ds: &Dataset) -> Result<(LanguageBias, Duration), String> {
    let t0 = Instant::now();
    let bias = match method {
        Method::Castor => castor_bias(&ds.db, ds.target, 2).map_err(|e| e.to_string())?,
        Method::NoConst => no_const_bias(&ds.db, ds.target).map_err(|e| e.to_string())?,
        Method::Manual | Method::Aleph => resolve_bias(ds, "manual", DEFAULT_CONSTANT_THRESHOLD)?,
        Method::Overlap => overlap_bias(
            &ds.db,
            ds.target,
            DEFAULT_CONSTANT_THRESHOLD,
            AutoBiasConfig::default().max_constant_set_size,
        )
        .map_err(|e| e.to_string())?,
        // The paper tunes the constant threshold per dataset (18% relative
        // on its multi-million-tuple data). At our synthetic scale a
        // relative threshold misfires on key-like attributes, so AutoBias
        // runs with the CLI's and the server's absolute default.
        Method::AutoBias => resolve_bias(ds, "auto", DEFAULT_CONSTANT_THRESHOLD)?,
    };
    Ok((bias, t0.elapsed()))
}

/// Learner configuration used across Table 5 (naïve sampling per §6.1).
pub fn learner_config(h: &HarnessConfig, budget: Duration) -> LearnerConfig {
    LearnerConfig {
        bc: BcConfig {
            depth: h.depth,
            strategy: SamplingStrategy::Naive {
                per_selection: h.sample_per_mode,
            },
            max_body_literals: 2_000,
            max_tuples: 3_000,
        },
        seed: h.seed,
        time_budget: Some(budget),
        ..LearnerConfig::default()
    }
}

/// Runs one Table 5 cell: k-fold CV of `method` on `ds`.
pub fn run_table5_cell(ds: &Dataset, method: Method, h: &HarnessConfig) -> Result<Cell, String> {
    let (bias, bias_time) = bias_for(method, ds)?;
    let bias_size = bias.size();
    let splits = kfold_splits(&ds.pos, &ds.neg, h.folds, h.seed);

    let mut metrics: Vec<Metrics> = Vec::new();
    let mut times = Vec::new();
    let mut timed_out = false;
    for (train, test) in splits {
        let t0 = Instant::now();
        let (def, learn_timed_out) = match method {
            Method::Aleph => {
                let cfg = FoilConfig {
                    bc: learner_config(h, h.budget).bc,
                    seed: h.seed,
                    time_budget: Some(h.budget),
                    ..FoilConfig::default()
                };
                let (def, stats) = FoilLearner::new(cfg).learn(&ds.db, &bias, &train);
                (def, stats.timed_out)
            }
            _ => {
                let learner = Learner::new(learner_config(h, h.budget));
                let (def, stats) = learner.learn(&ds.db, &bias, &train);
                (def, stats.timed_out)
            }
        };
        times.push(t0.elapsed());
        timed_out |= learn_timed_out;
        metrics.push(evaluate_definition(
            &ds.db, &bias, &def, &test, h.depth, h.seed,
        ));
        if timed_out {
            break; // remaining folds would also blow the budget
        }
    }

    let n = metrics.len().max(1) as f64;
    Ok(Cell {
        precision: metrics.iter().map(Metrics::precision).sum::<f64>() / n,
        recall: metrics.iter().map(Metrics::recall).sum::<f64>() / n,
        f_measure: metrics.iter().map(Metrics::f_measure).sum::<f64>() / n,
        time: times.iter().sum::<Duration>() / times.len().max(1) as u32,
        timed_out,
        bias_size,
        bias_time,
    })
}

/// Runs one Table 6 cell: CV with a given sampling strategy (AutoBias bias),
/// averaged over `repeats` runs for randomized strategies.
pub fn run_table6_cell(
    ds: &Dataset,
    strategy: SamplingStrategy,
    h: &HarnessConfig,
    repeats: usize,
) -> Result<Cell, String> {
    let (bias, bias_time) = bias_for(Method::AutoBias, ds)?;
    let bias_size = bias.size();

    let mut fms = Vec::new();
    let mut precs = Vec::new();
    let mut recalls = Vec::new();
    let mut times = Vec::new();
    let mut timed_out = false;
    for rep in 0..repeats {
        let splits = kfold_splits(&ds.pos, &ds.neg, h.folds, h.seed);
        for (train, test) in splits {
            let mut cfg = learner_config(h, h.budget);
            cfg.bc.strategy = strategy;
            cfg.seed = h.seed ^ (rep as u64) << 32;
            let t0 = Instant::now();
            let learner = Learner::new(cfg);
            let (def, stats) = learner.learn(&ds.db, &bias, &train);
            times.push(t0.elapsed());
            timed_out |= stats.timed_out;
            let m = evaluate_definition(&ds.db, &bias, &def, &test, h.depth, h.seed);
            fms.push(m.f_measure());
            precs.push(m.precision());
            recalls.push(m.recall());
            if timed_out {
                break;
            }
        }
        if timed_out {
            break;
        }
    }

    let n = fms.len().max(1) as f64;
    Ok(Cell {
        precision: precs.iter().sum::<f64>() / n,
        recall: recalls.iter().sum::<f64>() / n,
        f_measure: fms.iter().sum::<f64>() / n,
        time: times.iter().sum::<Duration>() / times.len().max(1) as u32,
        timed_out,
        bias_size,
        bias_time,
    })
}

/// Formats a duration the way the paper's tables do (h/m/s).
pub fn fmt_duration(d: Duration, timed_out: bool) -> String {
    let prefix = if timed_out { ">" } else { "" };
    let s = d.as_secs_f64();
    if s >= 3600.0 {
        format!("{prefix}{:.1}h", s / 3600.0)
    } else if s >= 60.0 {
        format!("{prefix}{:.1}m", s / 60.0)
    } else {
        format!("{prefix}{:.1}s", s)
    }
}

/// Parses `--key value` style arguments shared by the experiment binaries.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Self {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Value of `--key <v>` parsed into `T`, or `default`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether the flag `--key` is present.
    pub fn has(&self, key: &str) -> bool {
        self.raw.iter().any(|a| a == key)
    }

    /// Value of `--key <v>` as a string, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }
}

/// Datasets selected by `--dataset NAME` (default: all five).
pub fn selected_datasets(args: &Args, seed: u64) -> Vec<Dataset> {
    let all = Dataset::all_default(seed);
    match args.get_str("--dataset") {
        Some(name) => all
            .into_iter()
            .filter(|d| d.name.eq_ignore_ascii_case(name))
            .collect(),
        None => all,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::uw::{generate, UwConfig};

    fn tiny_uw() -> Dataset {
        generate(
            &UwConfig {
                students: 30,
                professors: 10,
                courses: 12,
                advised_pairs: 18,
                negatives: 36,
                evidence_prob: 1.0,
                noise_coauthor_pairs: 0,
                ..UwConfig::default()
            },
            3,
        )
    }

    fn fast_cfg() -> HarnessConfig {
        HarnessConfig {
            folds: 2,
            budget: Duration::from_secs(30),
            ..HarnessConfig::default()
        }
    }

    #[test]
    fn every_method_builds_a_bias() {
        let ds = tiny_uw();
        for m in Method::EXTENDED {
            let (bias, _) = bias_for(m, &ds).unwrap_or_else(|e| panic!("{}: {e}", m.label()));
            assert!(bias.size() > 0, "{}", m.label());
        }
    }

    #[test]
    fn table5_cell_runs_and_scores() {
        let ds = tiny_uw();
        let cell = run_table5_cell(&ds, Method::Manual, &fast_cfg()).unwrap();
        assert!(cell.f_measure > 0.5, "FM {}", cell.f_measure);
        assert!(!cell.timed_out);
        assert!(cell.bias_size > 0);
    }

    #[test]
    fn table6_cell_runs_for_each_strategy() {
        let ds = tiny_uw();
        for strategy in [
            SamplingStrategy::Naive { per_selection: 10 },
            SamplingStrategy::Random {
                per_selection: 10,
                oversample: 5,
            },
            SamplingStrategy::Stratified { per_stratum: 2 },
        ] {
            let cell = run_table6_cell(&ds, strategy, &fast_cfg(), 1).unwrap();
            assert!(cell.f_measure > 0.3, "{strategy:?}: FM {}", cell.f_measure);
        }
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs_f64(2.34), false), "2.3s");
        assert_eq!(fmt_duration(Duration::from_secs(90), false), "1.5m");
        assert_eq!(fmt_duration(Duration::from_secs(7200), false), "2.0h");
        assert_eq!(fmt_duration(Duration::from_secs(30), true), ">30.0s");
    }

    #[test]
    fn aleph_uses_foil_learner() {
        let ds = tiny_uw();
        let cell = run_table5_cell(&ds, Method::Aleph, &fast_cfg()).unwrap();
        // Top-down greedy search is weak on tiny training sets (the paper's
        // Aleph row on the real UW is 0.27); just require the pipeline ran.
        assert!(!cell.timed_out);
        assert!(cell.bias_size > 0);
    }
}
