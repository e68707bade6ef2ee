//! Emits `BENCH_<dataset>.json` trajectory files: one Table-5 style cell per
//! method plus per-phase wall-clock timings from the obs recorder, so the
//! JSON output tracks phase-level (not just end-to-end) performance.
//!
//! Usage:
//!   bench_json [--dataset NAME] [--folds N] [--out-dir DIR]
//!
//! Each file holds, per method, the quality/time cell, a `"phases"` map
//! keyed by span name (`learn`, `learn.bc_build`, `bc.build`,
//! `learn.clause_search`, `coverage.theta`, ...) with count / total / mean /
//! max timings aggregated over all folds of that method's run, and a
//! `"counters"` map of registered-counter deltas over the run (skipped
//! negative tests, deduped candidates, constraint prunes, ...) so
//! `bench_compare` can gate on the search machinery staying engaged, not
//! just on wall-clock.

#![allow(clippy::unwrap_used)] // bench harness: fail fast on bad JSON

use autobias_bench::harness::{run_table5_cell, selected_datasets, Args, HarnessConfig, Method};
use obs::json::json_escape;
use std::fmt::Write as _;

fn main() {
    let args = Args::parse();
    let h = HarnessConfig {
        folds: args.get("--folds", 2),
        ..HarnessConfig::default()
    };
    let out_dir = std::path::PathBuf::from(args.get_str("--out-dir").unwrap_or("."));
    obs::set_mode(obs::Mode::Summary);

    for ds in selected_datasets(&args, h.seed) {
        let mut json = String::new();
        json.push_str("{\n");
        writeln!(json, "  \"dataset\": \"{}\",", json_escape(ds.name)).unwrap();
        writeln!(json, "  \"folds\": {},", h.folds).unwrap();
        writeln!(json, "  \"seed\": {},", h.seed).unwrap();
        json.push_str("  \"methods\": {\n");
        let methods = [Method::Manual, Method::AutoBias];
        for (i, m) in methods.iter().enumerate() {
            obs::reset();
            // Counter snapshot before the run: the per-method "counters" map
            // holds deltas, so methods don't see each other's work.
            let before: Vec<(&'static str, u64)> = obs::metrics::registered()
                .iter()
                .map(|c| (c.name(), c.get()))
                .collect();
            match run_table5_cell(&ds, *m, &h) {
                Ok(c) => {
                    writeln!(json, "    \"{}\": {{", json_escape(m.label())).unwrap();
                    writeln!(json, "      \"precision\": {:.4},", c.precision).unwrap();
                    writeln!(json, "      \"recall\": {:.4},", c.recall).unwrap();
                    writeln!(json, "      \"f_measure\": {:.4},", c.f_measure).unwrap();
                    writeln!(json, "      \"time_secs\": {:.6},", c.time.as_secs_f64()).unwrap();
                    writeln!(
                        json,
                        "      \"bias_time_secs\": {:.6},",
                        c.bias_time.as_secs_f64()
                    )
                    .unwrap();
                    writeln!(json, "      \"bias_size\": {},", c.bias_size).unwrap();
                    writeln!(json, "      \"timed_out\": {},", c.timed_out).unwrap();
                    json.push_str("      \"phases\": {\n");
                    let phases = obs::phase_snapshot();
                    for (j, p) in phases.iter().enumerate() {
                        write!(
                            json,
                            "        \"{}\": {{\"count\": {}, \"total_secs\": {:.6}, \
                             \"mean_us\": {}, \"max_us\": {}}}",
                            json_escape(p.name),
                            p.count,
                            p.total_secs(),
                            p.mean_us(),
                            p.max_us
                        )
                        .unwrap();
                        json.push_str(if j + 1 < phases.len() { ",\n" } else { "\n" });
                    }
                    json.push_str("      },\n");
                    // Registered-counter deltas over this method's run (zero
                    // deltas elided). Counters registered mid-run count from 0.
                    let deltas: Vec<(&'static str, u64)> = obs::metrics::registered()
                        .iter()
                        .map(|c| {
                            let prev = before
                                .iter()
                                .find(|(n, _)| *n == c.name())
                                .map_or(0, |&(_, v)| v);
                            (c.name(), c.get().saturating_sub(prev))
                        })
                        .filter(|&(_, d)| d != 0)
                        .collect();
                    json.push_str("      \"counters\": {\n");
                    for (j, (name, delta)) in deltas.iter().enumerate() {
                        write!(json, "        \"{}\": {}", json_escape(name), delta).unwrap();
                        json.push_str(if j + 1 < deltas.len() { ",\n" } else { "\n" });
                    }
                    json.push_str("      }\n");
                    json.push_str("    }");
                }
                Err(e) => {
                    write!(
                        json,
                        "    \"{}\": {{\"error\": \"{}\"}}",
                        json_escape(m.label()),
                        json_escape(&e)
                    )
                    .unwrap();
                }
            }
            json.push_str(if i + 1 < methods.len() { ",\n" } else { "\n" });
        }
        json.push_str("  }\n}\n");
        let path = out_dir.join(format!("BENCH_{}.json", ds.name));
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}
