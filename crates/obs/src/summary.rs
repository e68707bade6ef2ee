//! Flat per-phase statistics: in `Summary` mode every span completion is
//! folded into a process-wide count / total / max / latency-bucket
//! aggregate keyed by span name. [`phase_snapshot`] is the raw data the
//! serving layer renders as Prometheus histograms and the benchmarks read
//! per phase. A single run's phases come from its own trace tree instead
//! ([`crate::report`]).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Histogram bucket upper bounds in **seconds**, shared with the Prometheus
/// exporter in `crates/serve` (`autobias_phase_duration_seconds`). The last
/// bucket is `+Inf`, per the Prometheus histogram convention. Spans range
/// from sub-millisecond (one θ-subsumption batch) to tens of seconds (a
/// whole learn on IMDb-scale data), hence the wide log-ish spread.
pub const PHASE_BUCKETS: [f64; 9] = [
    0.000_1,
    0.001,
    0.01,
    0.05,
    0.25,
    1.0,
    5.0,
    30.0,
    f64::INFINITY,
];

#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    count: u64,
    total_us: u64,
    max_us: u64,
    buckets: [u64; PHASE_BUCKETS.len()],
}

/// Aggregated wall-clock statistics for one span name (one pipeline phase).
#[derive(Debug, Clone)]
pub struct PhaseStat {
    /// Span name (see the naming table in the crate docs).
    pub name: &'static str,
    /// Completed spans observed.
    pub count: u64,
    /// Sum of span durations, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
    /// Per-bucket counts (NOT cumulative) aligned with [`PHASE_BUCKETS`];
    /// exporters cumulate when rendering Prometheus `_bucket` series.
    pub bucket_counts: [u64; PHASE_BUCKETS.len()],
}

impl PhaseStat {
    /// Mean span duration in microseconds (0 when no spans completed).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    /// Total time in this phase, seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_us as f64 / 1e6
    }
}

fn table() -> &'static Mutex<HashMap<&'static str, Agg>> {
    static TABLE: OnceLock<Mutex<HashMap<&'static str, Agg>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Folds one completed span into the aggregate for `name`. Called from the
/// span guard's `Drop`; the lock is held only for the hash-map update.
pub(crate) fn record(name: &'static str, dur: Duration) {
    let us = dur.as_micros().min(u64::MAX as u128) as u64;
    let secs = dur.as_secs_f64();
    let bucket = PHASE_BUCKETS
        .iter()
        .position(|&le| secs <= le)
        .unwrap_or(PHASE_BUCKETS.len() - 1);
    let mut t = table().lock().expect("phase table poisoned");
    let a = t.entry(name).or_default();
    a.count += 1;
    a.total_us += us;
    a.max_us = a.max_us.max(us);
    a.buckets[bucket] += 1;
}

/// Clears the aggregates (called from [`crate::span::reset`]).
pub(crate) fn reset() {
    table().lock().expect("phase table poisoned").clear();
}

/// Snapshot of all phase aggregates, sorted by name for determinism.
pub fn phase_snapshot() -> Vec<PhaseStat> {
    let t = table().lock().expect("phase table poisoned");
    let mut out: Vec<PhaseStat> = t
        .iter()
        .map(|(&name, a)| PhaseStat {
            name,
            count: a.count,
            total_us: a.total_us,
            max_us: a.max_us,
            bucket_counts: a.buckets,
        })
        .collect();
    out.sort_by_key(|p| p.name);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_all_durations() {
        // Last bucket is +Inf so any duration lands somewhere, and bounds
        // are strictly increasing (the exporter relies on both).
        assert_eq!(*PHASE_BUCKETS.last().unwrap(), f64::INFINITY);
        for w in PHASE_BUCKETS.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn record_aggregates_and_buckets() {
        let _g = crate::span::test_lock();
        reset();
        record("test.sum", Duration::from_micros(50)); // ≤ 0.1ms bucket
        record("test.sum", Duration::from_millis(2)); // ≤ 10ms bucket
        record("test.sum", Duration::from_millis(2));
        let snap = phase_snapshot();
        let p = snap.iter().find(|p| p.name == "test.sum").unwrap();
        assert_eq!(p.count, 3);
        assert_eq!(p.max_us, 2_000);
        assert_eq!(p.mean_us(), (50 + 2_000 + 2_000) / 3);
        assert_eq!(p.bucket_counts[0], 1);
        assert_eq!(p.bucket_counts.iter().sum::<u64>(), 3);
        reset();
    }
}
