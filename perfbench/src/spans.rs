//! The benchmark's own spans: one per call into a layer, recorded around
//! the call from the benchmark's side, kept in memory and written as a
//! chrome trace when the run ends. Disabled (the untraced run) a span
//! costs one branch. Also the other timing readings layers are measured
//! with: per-item micro-timings and the program's obs phase totals.

use obs::span::SpanEvent;
use std::time::{Duration, Instant};

/// Per-item micro-measurements loop for at least this long.
const MICRO_MIN: Duration = Duration::from_millis(100);

/// Spans kept beyond this are counted, not stored.
const MAX_SPANS: usize = 200_000;

/// In-memory span recorder for one run.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    events: Vec<SpanEvent>,
    dropped: u64,
}

impl Spans {
    /// A recorder that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a span `name` that started at `start` and lasted `dur`, at
    /// nesting `depth` (0 = a workload phase, 1 = a layer call inside it).
    pub fn record(&mut self, name: &'static str, depth: u32, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.events.push(SpanEvent {
            name,
            label: None,
            notes: Vec::new(),
            tid: 0,
            depth,
            start_us: start.saturating_duration_since(self.epoch).as_micros() as u64,
            dur_us: dur.as_micros() as u64,
        });
    }

    /// Times `f` and records it as span `name`; returns its result and the
    /// elapsed time (measured whether or not spans are recorded).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        depth: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.record(name, depth, start, dur);
        (out, dur)
    }

    /// Spans recorded, and spans dropped over the cap.
    pub fn counts(&self) -> (usize, u64) {
        (self.events.len(), self.dropped)
    }

    /// The recorded spans as chrome-trace JSON.
    pub fn to_chrome(&self) -> String {
        obs::chrome::export_chrome_trace(&self.events)
    }
}

/// Runs `pass` (which handles `items` items) repeatedly for at least
/// [`MICRO_MIN`]; returns nanoseconds per item.
pub fn per_item_ns(items: usize, mut pass: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut done = 0usize;
    loop {
        pass();
        done += items;
        if t0.elapsed() >= MICRO_MIN {
            return crate::stats::ratio(t0.elapsed().as_nanos() as f64, done as f64);
        }
    }
}

/// Total seconds the program spent in obs phase `name` since the last
/// `obs::reset` (0 when the recorder is off or the phase never ran).
pub fn phase_total_s(name: &str) -> f64 {
    obs::phase_snapshot()
        .iter()
        .find(|p| p.name == name)
        .map_or(0.0, |p| p.total_secs())
}
