//! Hierarchical RAII spans over the process-wide phase table, plus
//! per-context trace trees.
//!
//! A span is opened with [`enter`] (or the [`crate::span!`] macro) and
//! closed by dropping the returned [`SpanGuard`]. The global recorder has
//! two modes (see [`Mode`]): off, or folding every completion into the
//! per-phase aggregates of [`crate::summary`].
//!
//! Independently of the mode, a [`crate::trace::TraceCtx`] can be installed
//! on a thread: every span entered while it is installed is recorded into
//! that context's tree with explicit `span_id`/`parent_id` links (see
//! [`crate::trace`]). The tree is the one per-span record — a learn run's
//! report, its chrome-trace export and a server's kept traces all read it.
//! Both sinks share the single fast-path check: one relaxed atomic load of
//! a combined state byte (the mode bit and a "some trace installed" bit),
//! so a span costs nothing extra when both are off.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::time::Instant;

/// What the global recorder captures. Per-span records live in trace trees
/// ([`crate::trace`]), whatever the mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Mode {
    /// Nothing. Entering a span costs one relaxed atomic load.
    Off = 0,
    /// Per-phase aggregates ([`crate::summary`]).
    Summary = 1,
}

/// Combined recorder state: [`SUMMARY_BIT`] for the mode, [`TRACE_BIT`] set
/// while at least one `TraceCtx` is installed anywhere in the process.
static STATE: AtomicU8 = AtomicU8::new(0);

const SUMMARY_BIT: u8 = 0b01;
const TRACE_BIT: u8 = 0b10;

/// Raises/clears the trace flag in the combined state. Called only by
/// [`crate::trace`] when the count of installed contexts crosses zero.
pub(crate) fn set_trace_flag(on: bool) {
    if on {
        STATE.fetch_or(TRACE_BIT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!TRACE_BIT, Ordering::Relaxed);
    }
}

/// Whether any trace context is installed anywhere — one relaxed load.
#[inline]
pub(crate) fn trace_flag() -> bool {
    STATE.load(Ordering::Relaxed) & TRACE_BIT != 0
}

/// Current recorder mode.
#[inline]
pub fn mode() -> Mode {
    if STATE.load(Ordering::Relaxed) & SUMMARY_BIT != 0 {
        Mode::Summary
    } else {
        Mode::Off
    }
}

/// Sets the recorder mode (the trace flag is left untouched).
pub fn set_mode(m: Mode) {
    match m {
        Mode::Off => STATE.fetch_and(!SUMMARY_BIT, Ordering::Relaxed),
        Mode::Summary => STATE.fetch_or(SUMMARY_BIT, Ordering::Relaxed),
    };
}

/// One completed span in the form the chrome-trace exporter
/// ([`crate::chrome::export_chrome_trace`]) takes.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Static span name (see the naming table in the crate docs).
    pub name: &'static str,
    /// Optional static label (e.g. the sampling regime).
    pub label: Option<&'static str>,
    /// Numeric notes attached while the span was open.
    pub notes: Vec<(&'static str, u64)>,
    /// Small dense thread id (not the OS tid).
    pub tid: u32,
    /// Nesting depth when opened (0 = top level).
    pub depth: u32,
    /// Start, microseconds since the exporter's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// Clears the per-phase aggregates (counters and the mode are left
/// untouched). Intended for process-owned flows — benchmarks, tests — not
/// for concurrent servers, where clearing would race other threads' open
/// spans.
pub fn reset() {
    crate::summary::reset();
}

static NEXT_TID: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// RAII guard for one span; records on drop. Inactive guards (recorder off,
/// no trace installed on this thread) do nothing.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    label: Option<&'static str>,
    notes: Vec<(&'static str, u64)>,
    /// `None` while the guard is inactive — an inactive guard never reads
    /// the clock.
    start: Option<Instant>,
    /// Set when a [`crate::trace::TraceCtx`] was installed on this thread at
    /// entry; the span is then recorded into that trace tree.
    trace: Option<crate::trace::TraceAttach>,
}

impl SpanGuard {
    fn inactive(name: &'static str, label: Option<&'static str>) -> Self {
        Self {
            name,
            label,
            notes: Vec::new(),
            start: None,
            trace: None,
        }
    }

    /// Attaches a numeric note, exported as a chrome-trace `args` entry.
    /// No-op on an inactive guard.
    #[inline]
    pub fn note(&mut self, key: &'static str, value: u64) {
        if self.start.is_some() {
            self.notes.push((key, value));
        }
    }

    /// Adds `delta` to an existing note or creates it — for accumulating
    /// counts across loop iterations inside one span.
    #[inline]
    pub fn add_note(&mut self, key: &'static str, delta: u64) {
        if self.start.is_none() {
            return;
        }
        match self.notes.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += delta,
            None => self.notes.push((key, delta)),
        }
    }

    /// Whether this guard is recording (recorder on or trace installed at
    /// entry).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.start.is_some()
    }
}

/// Opens a span. Prefer the [`crate::span!`] macro.
#[inline]
pub fn enter(name: &'static str, label: Option<&'static str>) -> SpanGuard {
    // The off fast path: one relaxed load covering both the global mode and
    // the "any trace installed" flag. No clock read, no allocation.
    if STATE.load(Ordering::Relaxed) == 0 {
        return SpanGuard::inactive(name, label);
    }
    enter_slow(name, label)
}

#[cold]
fn enter_slow(name: &'static str, label: Option<&'static str>) -> SpanGuard {
    let trace = crate::trace::attach();
    if trace.is_none() && mode() == Mode::Off {
        // The trace flag is set but this thread carries no context (another
        // thread's trace raised it). Stay inactive.
        return SpanGuard::inactive(name, label);
    }
    SpanGuard {
        name,
        label,
        notes: Vec::new(),
        start: Some(Instant::now()),
        trace,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let dur = start.elapsed();
        if let Some(attach) = self.trace.take() {
            let notes = std::mem::take(&mut self.notes);
            let tid = TID.with(|t| *t);
            crate::trace::record(attach, self.name, self.label, notes, tid, start, dur);
        }
        if mode() == Mode::Summary {
            crate::summary::record(self.name, dur);
        }
    }
}

/// Opens a span guard: `let _sp = obs::span!("learn");` or, with a static
/// label, `obs::span!("bc.build", "naive")`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name, None)
    };
    ($name:expr, $label:expr) => {
        $crate::span::enter($name, Some($label))
    };
}

#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn off_mode_records_nothing() {
        let _g = test_lock();
        set_mode(Mode::Off);
        reset();
        {
            let mut sp = crate::span!("test.off");
            sp.note("k", 1);
            assert!(!sp.is_active());
        }
        assert!(crate::summary::phase_snapshot().is_empty());
    }

    /// The acceptance bound is "one relaxed atomic per event" when tracing
    /// is off; this smoke-checks that 100k disabled spans finish in time
    /// that only a pathologically slower implementation (allocation, locks,
    /// clock reads) would exceed. The real comparison lives in the
    /// `obs_overhead` bench.
    #[test]
    fn off_mode_spans_are_cheap() {
        let _g = test_lock();
        set_mode(Mode::Off);
        let t0 = Instant::now();
        for _ in 0..100_000 {
            let _sp = crate::span!("test.cheap");
        }
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "100k disabled spans took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn summary_mode_aggregates_per_phase() {
        let _g = test_lock();
        set_mode(Mode::Summary);
        reset();
        for _ in 0..3 {
            let _sp = crate::span!("test.agg");
        }
        set_mode(Mode::Off);
        let phases = crate::summary::phase_snapshot();
        let agg = phases.iter().find(|p| p.name == "test.agg").unwrap();
        assert_eq!(agg.count, 3);
        reset();
    }
}
