//! A registry of named monotonic counters. A [`Counter`] is a `static` with
//! a Prometheus-style name and help string; bumping it is a single relaxed
//! `fetch_add` — the same cost whether or not anything ever scrapes it.
//! Crates register their counters once (idempotently) and exporters iterate
//! [`registered`] so every counter in the process shows up in one scrape
//! without the exporter hard-coding names.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A monotonic counter with Prometheus metadata. Declare as a `static`,
/// bump from hot paths, [`register`] it once for export.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter. `name` should follow Prometheus conventions
    /// (snake_case, `_total` suffix); `help` is the `# HELP` text.
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Increments by one — one relaxed `fetch_add`.
    #[inline]
    pub fn bump(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `# HELP` text.
    pub fn help(&self) -> &'static str {
        self.help
    }
}

fn registry() -> &'static Mutex<Vec<&'static Counter>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Counter>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Adds `c` to the global registry. Idempotent (a counter already present —
/// by pointer or by name — is not added twice), so crates can register from
/// multiple entry points without coordination. Never call this from a hot
/// path; registration takes a lock.
pub fn register(c: &'static Counter) {
    let mut r = registry().lock().expect("counter registry poisoned");
    if !r.iter().any(|e| std::ptr::eq(*e, c) || e.name == c.name) {
        r.push(c);
    }
}

/// Snapshot of all registered counters, sorted by name.
pub fn registered() -> Vec<&'static Counter> {
    let mut v = registry()
        .lock()
        .expect("counter registry poisoned")
        .clone();
    v.sort_by_key(|c| c.name);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_A: Counter = Counter::new("obs_test_a_total", "Test counter A.");
    static TEST_B: Counter = Counter::new("obs_test_b_total", "Test counter B.");

    #[test]
    fn bump_add_get() {
        static C: Counter = Counter::new("obs_test_local_total", "Local.");
        assert_eq!(C.get(), 0);
        C.bump();
        C.add(4);
        C.add(0);
        assert_eq!(C.get(), 5);
    }

    #[test]
    fn register_is_idempotent_and_sorted() {
        register(&TEST_B);
        register(&TEST_A);
        register(&TEST_A);
        register(&TEST_B);
        let names: Vec<_> = registered()
            .iter()
            .map(|c| c.name())
            .filter(|n| n.starts_with("obs_test_") && !n.contains("local"))
            .collect();
        assert_eq!(names, vec!["obs_test_a_total", "obs_test_b_total"]);
        assert_eq!(TEST_A.help(), "Test counter A.");
    }
}
