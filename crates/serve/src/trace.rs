//! Tail-sampled trace store behind `GET /debug/traces` and
//! `GET /debug/slow`.
//!
//! Every request records its span tree into an [`obs::trace::TraceCtx`];
//! keeping every tree would be wasteful, so this store samples from the
//! *tail* — a finished tree is retained only when the request is worth a
//! postmortem:
//!
//! - it **errored** (status ≥ 400),
//! - or it landed **above a rolling latency threshold** — an EWMA of recent
//!   request latencies times a multiplier, with a floor so quiet servers
//!   don't archive every request (`AUTOBIAS_TRACE_SLOW_US` pins the floor,
//!   which CI uses to force-keep requests).
//!
//! Kept traces live in a bounded in-memory deque (newest first, at most
//! [`TraceStore::DEFAULT_CAP`]) and, when the store is opened with a
//! directory, as JSON documents on disk — both the span tree
//! (`<trace_id>.json`) and the chrome-trace export (`<trace_id>.chrome.json`,
//! loadable in Perfetto) — pruned oldest-first past
//! [`TraceStore::DEFAULT_DISK_CAP`] pairs. A kept trace is its request's
//! [`RequestRecord`] plus the tree; the record — for a `/predict`, with its
//! batch context ([`PredictInfo`] plus a sample of the first tuple) — is
//! what the access log writes too, and every view here renders it.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use obs::json::Json;
use obs::trace::TraceTree;

/// Why a trace was kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeepReason {
    /// The request answered with status ≥ 400.
    Error,
    /// Latency landed above the rolling threshold.
    Slow,
    /// Kept unconditionally (learn jobs archive their tree).
    Job,
}

impl KeepReason {
    /// Stable string for JSON payloads.
    pub fn as_str(self) -> &'static str {
        match self {
            KeepReason::Error => "error",
            KeepReason::Slow => "slow",
            KeepReason::Job => "job",
        }
    }
}

/// What one `/predict` batch did: handed from the predict handler to the
/// request's [`RequestRecord`].
#[derive(Debug, Clone)]
pub struct PredictInfo {
    /// Model that served the batch.
    pub model: String,
    /// Tuples in the batch.
    pub tuples: u64,
    /// Plan-tally totals of the batch's compiled clauses.
    pub plan: plan::TallyTotals,
    /// Worst per-step q-error in the batch, if any compiled step ran.
    pub max_qerror: Option<f64>,
}

impl PredictInfo {
    /// The `engine` label of a served prediction's record: every batch runs
    /// compiled plans only.
    pub const ENGINE: &'static str = "compiled";
}

/// One finished request, built once by the connection loop when the
/// request is access-logged or its trace is kept (a learn job's kept trace
/// carries one too). Its [`to_json`](RequestRecord::to_json) is the one
/// rendering of request fields: the access-log line, and the body of every
/// trace-store view.
#[derive(Debug, Clone, Default)]
pub struct RequestRecord {
    /// Trace id (32 hex digits; empty when tracing is off).
    pub trace_id: String,
    /// Route label (the metrics endpoint name, or `"job"`).
    pub route: &'static str,
    /// HTTP method (empty for a job).
    pub method: String,
    /// Request path (empty for a job).
    pub path: String,
    /// Response status (0 for a job).
    pub status: u16,
    /// Wall-clock latency in microseconds (a job's run time).
    pub latency_us: u64,
    /// The batch a served `/predict` ran.
    pub predict: Option<PredictInfo>,
    /// The first tuple of a served `/predict` body, cut to
    /// [`ARGS_SAMPLE_MAX`] bytes (empty otherwise).
    pub args_sample: String,
    /// Why the tail sampler kept the request's trace, when it did.
    pub reason: Option<KeepReason>,
}

impl RequestRecord {
    /// The record as one JSON object; a served prediction adds its batch
    /// context, a kept trace its `reason`.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("trace_id", self.trace_id.as_str().into()),
            ("route", self.route.into()),
            ("method", self.method.as_str().into()),
            ("path", self.path.as_str().into()),
            ("status", u64::from(self.status).into()),
            ("latency_us", self.latency_us.into()),
        ];
        if let Some(p) = &self.predict {
            let plan = Json::obj([
                ("entries", p.plan.entries.into()),
                ("candidates", p.plan.candidates.into()),
                ("rejected", p.plan.rejected.into()),
                ("backtracks", p.plan.backtracks.into()),
                ("node_limit_hits", p.plan.node_limit_hits.into()),
            ]);
            members.extend([
                ("model", p.model.as_str().into()),
                ("engine", PredictInfo::ENGINE.into()),
                ("tuples", p.tuples.into()),
                ("args_sample", self.args_sample.as_str().into()),
                ("plan", plan),
                ("max_qerror", p.max_qerror.map_or(Json::Null, Json::Num)),
            ]);
        }
        if let Some(reason) = self.reason {
            members.push(("reason", reason.as_str().into()));
        }
        Json::obj(members)
    }
}

/// One retained trace: the request's record and its span tree.
#[derive(Debug, Clone)]
pub struct StoredTrace {
    /// The kept request (its `reason` is set).
    pub record: RequestRecord,
    /// The finished span tree.
    pub tree: TraceTree,
}

impl StoredTrace {
    /// The record's rendering with `key: value` appended.
    fn to_json_with(&self, key: &str, value: Json) -> Json {
        let mut doc = self.record.to_json();
        if let Json::Obj(members) = &mut doc {
            members.push((key.to_string(), value));
        }
        doc
    }
}

/// `RequestRecord::args_sample` is cut to this many bytes.
pub const ARGS_SAMPLE_MAX: usize = 120;

/// Cuts `tuple` to at most [`ARGS_SAMPLE_MAX`] bytes on a char boundary,
/// marking a cut with `…`.
pub fn truncate_sample(tuple: &str) -> String {
    let mut sample = String::with_capacity(tuple.len().min(ARGS_SAMPLE_MAX + 3));
    for ch in tuple.chars() {
        if sample.len() + ch.len_utf8() > ARGS_SAMPLE_MAX {
            sample.push('…');
            break;
        }
        sample.push(ch);
    }
    sample
}

/// Bounded tail-sampling trace store; one per server.
pub struct TraceStore {
    cap: usize,
    disk_cap: usize,
    dir: Option<PathBuf>,
    /// Newest first.
    entries: Mutex<VecDeque<StoredTrace>>,
    /// Trace ids written to disk, oldest first, for pruning.
    disk_files: Mutex<VecDeque<String>>,
    /// EWMA of request latency in microseconds (×[`EWMA_SCALE`] for
    /// fixed-point storage in an atomic).
    ewma_us_scaled: AtomicU64,
    /// Latency floor below which nothing is "slow".
    slow_floor_us: u64,
    kept: AtomicU64,
    observed: AtomicU64,
}

/// Fixed-point scale for the latency EWMA.
const EWMA_SCALE: u64 = 16;
/// EWMA smoothing: each observation moves the mean by 1/16 of the delta.
const EWMA_SHIFT: u32 = 4;
/// A request is "slow" at this multiple of the rolling mean.
const SLOW_MULTIPLIER: u64 = 4;

impl TraceStore {
    /// In-memory retention.
    pub const DEFAULT_CAP: usize = 64;
    /// On-disk retention (pairs of tree + chrome documents).
    pub const DEFAULT_DISK_CAP: usize = 256;
    /// Default slow floor: below this latency nothing is kept as "slow"
    /// regardless of the rolling mean.
    pub const DEFAULT_SLOW_FLOOR_US: u64 = 10_000;

    /// An empty store, optionally persisting kept traces under `dir`
    /// (created on first write). The slow floor is `AUTOBIAS_TRACE_SLOW_US`
    /// when set, read once here.
    pub fn open(dir: Option<PathBuf>) -> Self {
        let slow_floor_us = std::env::var("AUTOBIAS_TRACE_SLOW_US")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .unwrap_or(Self::DEFAULT_SLOW_FLOOR_US);
        Self {
            cap: Self::DEFAULT_CAP,
            disk_cap: Self::DEFAULT_DISK_CAP,
            dir,
            entries: Mutex::new(VecDeque::new()),
            disk_files: Mutex::new(VecDeque::new()),
            ewma_us_scaled: AtomicU64::new(0),
            slow_floor_us,
            kept: AtomicU64::new(0),
            observed: AtomicU64::new(0),
        }
    }

    /// In-memory capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Traces kept so far.
    pub fn kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// Current slow threshold in microseconds: the larger of the floor and
    /// `SLOW_MULTIPLIER`× the rolling mean latency.
    pub fn slow_threshold_us(&self) -> u64 {
        let mean = self.ewma_us_scaled.load(Ordering::Relaxed) / EWMA_SCALE;
        self.slow_floor_us.max(mean.saturating_mul(SLOW_MULTIPLIER))
    }

    /// Feeds one finished request into the rolling latency estimate and
    /// decides whether its trace should be kept. Called for every request,
    /// kept or not, so the threshold tracks real traffic.
    pub fn keep_reason(&self, status: u16, latency_us: u64) -> Option<KeepReason> {
        self.observed.fetch_add(1, Ordering::Relaxed);
        let threshold = self.slow_threshold_us();
        // EWMA update after the threshold read: the request that first
        // crosses the threshold is judged against traffic before it.
        let scaled = latency_us.saturating_mul(EWMA_SCALE);
        let prev = self.ewma_us_scaled.load(Ordering::Relaxed);
        let next = if prev == 0 {
            scaled
        } else {
            // prev + (x - prev)/16, in fixed point; saturating on both ends.
            let delta = (scaled as i128 - prev as i128) >> EWMA_SHIFT;
            (prev as i128 + delta).max(0) as u64
        };
        self.ewma_us_scaled.store(next, Ordering::Relaxed);
        if status >= 400 {
            Some(KeepReason::Error)
        } else if latency_us >= threshold {
            Some(KeepReason::Slow)
        } else {
            None
        }
    }

    /// Retains one finished trace (already judged by
    /// [`keep_reason`](TraceStore::keep_reason), or kept unconditionally
    /// for jobs). Evicts the oldest in-memory entry past the cap and prunes
    /// on-disk documents past the disk cap.
    pub fn keep(&self, stored: StoredTrace) {
        self.kept.fetch_add(1, Ordering::Relaxed);
        self.persist(&stored);
        let mut entries = self.entries.lock().expect("trace store poisoned");
        entries.push_front(stored);
        while entries.len() > self.cap {
            entries.pop_back();
        }
    }

    fn persist(&self, stored: &StoredTrace) {
        let Some(dir) = &self.dir else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let id = &stored.tree.trace_id;
        let tree_path = dir.join(format!("{id}.json"));
        let chrome_path = dir.join(format!("{id}.chrome.json"));
        let doc = stored
            .to_json_with("tree", stored.tree.to_json())
            .to_string();
        if std::fs::write(&tree_path, doc).is_err() {
            return;
        }
        let _ = std::fs::write(&chrome_path, stored.tree.to_chrome());
        let mut files = self.disk_files.lock().expect("trace store poisoned");
        files.push_back(id.clone());
        while files.len() > self.disk_cap {
            if let Some(old) = files.pop_front() {
                let _ = std::fs::remove_file(dir.join(format!("{old}.json")));
                let _ = std::fs::remove_file(dir.join(format!("{old}.chrome.json")));
            }
        }
    }

    /// The `GET /debug/traces` body: newest-first records with their span
    /// counts, plus the store's sampling state.
    pub fn list_json(&self) -> Json {
        let entries = self.entries.lock().expect("trace store poisoned");
        let traces = entries
            .iter()
            .map(|t| t.to_json_with("spans", t.tree.spans.len().into()))
            .collect();
        Json::obj([
            ("cap", self.cap.into()),
            ("kept", self.kept().into()),
            ("observed", self.observed.load(Ordering::Relaxed).into()),
            ("slow_threshold_us", self.slow_threshold_us().into()),
            ("traces", Json::Arr(traces)),
        ])
    }

    /// The `GET /debug/slow` body: the records of retained `/predict`
    /// requests that served a batch, worst latency first; each trace id
    /// resolves at `GET /debug/traces/{id}`.
    pub fn slow_json(&self) -> Json {
        let entries = self.entries.lock().expect("trace store poisoned");
        let mut served: Vec<&RequestRecord> = entries
            .iter()
            .map(|t| &t.record)
            .filter(|r| r.predict.is_some())
            .collect();
        // Stable sort over the newest-first deque: ties list newest first.
        served.sort_by_key(|r| std::cmp::Reverse(r.latency_us));
        let slow = served.into_iter().map(RequestRecord::to_json).collect();
        Json::obj([("cap", self.cap.into()), ("slow", Json::Arr(slow))])
    }

    /// The `GET /debug/traces/{id}` body: the kept request's record with
    /// its span tree as `tree`, from memory or (for evicted traces) disk.
    /// `None` when the id was never kept or has been pruned everywhere.
    pub fn get_json(&self, trace_id: &str) -> Option<Json> {
        {
            let entries = self.entries.lock().expect("trace store poisoned");
            if let Some(t) = entries.iter().find(|t| t.tree.trace_id == trace_id) {
                return Some(t.to_json_with("tree", t.tree.to_json()));
            }
        }
        Json::parse(&self.read_disk(trace_id, "json")?).ok()
    }

    /// The `?format=chrome` body for one trace: chrome-trace JSON, from
    /// memory or disk.
    pub fn get_chrome(&self, trace_id: &str) -> Option<String> {
        {
            let entries = self.entries.lock().expect("trace store poisoned");
            if let Some(t) = entries.iter().find(|t| t.tree.trace_id == trace_id) {
                return Some(t.tree.to_chrome());
            }
        }
        self.read_disk(trace_id, "chrome.json")
    }

    fn read_disk(&self, trace_id: &str, ext: &str) -> Option<String> {
        // Ids are hex, so a path traversal cannot hide in one — but check
        // anyway: this string came off the wire.
        if !trace_id.chars().all(|c| c.is_ascii_hexdigit()) {
            return None;
        }
        let dir = self.dir.as_ref()?;
        std::fs::read_to_string(dir.join(format!("{trace_id}.{ext}"))).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::trace::TraceCtx;

    fn tree_with_one_span(name_suffix: &'static str) -> TraceTree {
        let ctx = TraceCtx::begin(None);
        {
            let _g = ctx.install();
            let _sp = obs::span!(name_suffix);
        }
        ctx.finish()
    }

    /// A kept trace of a request with no `/predict` context.
    fn kept(route: &'static str, status: u16, latency_us: u64, reason: KeepReason) -> StoredTrace {
        let tree = tree_with_one_span("test.store_span");
        StoredTrace {
            record: RequestRecord {
                trace_id: tree.trace_id.clone(),
                route,
                status,
                latency_us,
                reason: Some(reason),
                ..RequestRecord::default()
            },
            tree,
        }
    }

    fn fresh_store() -> TraceStore {
        TraceStore {
            cap: 4,
            disk_cap: 2,
            dir: None,
            entries: Mutex::new(VecDeque::new()),
            disk_files: Mutex::new(VecDeque::new()),
            ewma_us_scaled: AtomicU64::new(0),
            slow_floor_us: TraceStore::DEFAULT_SLOW_FLOOR_US,
            kept: AtomicU64::new(0),
            observed: AtomicU64::new(0),
        }
    }

    #[test]
    fn errors_always_keep() {
        let s = fresh_store();
        assert_eq!(s.keep_reason(500, 10), Some(KeepReason::Error));
        assert_eq!(s.keep_reason(422, 10), Some(KeepReason::Error));
        assert_eq!(s.keep_reason(200, 10), None);
    }

    #[test]
    fn slow_keeps_only_above_rolling_threshold() {
        let s = fresh_store();
        // Fast traffic: never slow (under the floor).
        for _ in 0..50 {
            assert_eq!(s.keep_reason(200, 100), None);
        }
        // The floor dominates while the mean is tiny.
        assert_eq!(s.slow_threshold_us(), TraceStore::DEFAULT_SLOW_FLOOR_US);
        // A genuine outlier above the floor is kept.
        assert_eq!(
            s.keep_reason(200, 50_000),
            Some(KeepReason::Slow),
            "outlier above the floor"
        );
        // Sustained slow traffic raises the mean and thus the threshold.
        for _ in 0..200 {
            let _ = s.keep_reason(200, 200_000);
        }
        assert!(
            s.slow_threshold_us() > 400_000,
            "threshold tracks the mean: {}",
            s.slow_threshold_us()
        );
        assert_eq!(
            s.keep_reason(200, 250_000),
            None,
            "no longer an outlier once the fleet is slow"
        );
    }

    #[test]
    fn bounded_memory_and_list_get_round_trip() {
        let s = fresh_store();
        let mut ids = Vec::new();
        for _ in 0..6 {
            let t = kept("predict", 200, 123, KeepReason::Slow);
            ids.push(t.tree.trace_id.clone());
            s.keep(t);
        }
        let listed = Json::parse(&s.list_json().to_string()).unwrap();
        let traces = listed.get("traces").unwrap().as_arr().unwrap();
        assert_eq!(traces.len(), 4, "bounded to cap");
        // Newest first.
        assert_eq!(
            traces[0].get("trace_id").unwrap().as_str(),
            Some(ids[5].as_str())
        );
        // Evicted ids are gone; retained ones resolve with a parented tree.
        assert!(s.get_json(&ids[0]).is_none());
        let parsed = s.get_json(&ids[5]).unwrap();
        assert_eq!(parsed.get("reason").unwrap().as_str(), Some("slow"));
        let spans = parsed.path(&["tree", "spans"]).unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].get("name").unwrap().as_str(),
            Some("test.store_span")
        );
        // Chrome export for a retained trace.
        let chrome = s.get_chrome(&ids[5]).unwrap();
        assert!(chrome.contains("\"ph\":\"X\""));
    }

    #[test]
    fn slow_view_lists_kept_predictions_worst_first() {
        let s = fresh_store();
        let predict = |latency_us: u64, model: &str| {
            let mut t = kept("predict", 200, latency_us, KeepReason::Slow);
            t.record.predict = Some(PredictInfo {
                model: model.to_string(),
                tuples: 3,
                plan: plan::TallyTotals {
                    entries: 4,
                    candidates: 12,
                    rejected: 2,
                    backtracks: 1,
                    node_limit_hits: 0,
                },
                max_qerror: Some(2.5),
            });
            t.record.args_sample = truncate_sample(&"x".repeat(500));
            t
        };
        s.keep(predict(20, "fast"));
        s.keep(kept("metrics", 500, 90, KeepReason::Error));
        s.keep(predict(50, "worst"));
        s.keep(predict(30, "middle"));

        let json = s.slow_json().to_string();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.to_string(), json, "canonical rendering");
        assert_eq!(parsed.get("cap").unwrap().as_f64(), Some(4.0));
        let slow = parsed.get("slow").unwrap().as_arr().unwrap();
        let models: Vec<_> = slow
            .iter()
            .map(|e| e.get("model").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(models, ["worst", "middle", "fast"], "predict traces only");
        let worst = &slow[0];
        assert_eq!(worst.get("latency_us").unwrap().as_f64(), Some(50.0));
        assert_eq!(worst.get("engine").unwrap().as_str(), Some("compiled"));
        assert_eq!(
            worst.path(&["plan", "candidates"]).unwrap().as_f64(),
            Some(12.0)
        );
        assert_eq!(worst.get("max_qerror").unwrap().as_f64(), Some(2.5));
        assert!(worst.get("seq").is_none(), "the trace id is the identity");
        let id = worst.get("trace_id").unwrap().as_str().unwrap();
        assert!(s.get_json(id).is_some(), "entry resolves as a kept trace");
        let sample = worst.get("args_sample").unwrap().as_str().unwrap();
        assert!(sample.len() <= ARGS_SAMPLE_MAX + '…'.len_utf8());
        assert!(sample.ends_with('…'));
    }

    #[test]
    fn truncate_sample_cuts_on_a_char_boundary() {
        assert_eq!(truncate_sample("s1,p1"), "s1,p1");
        let cut = truncate_sample(&"é".repeat(100));
        assert!(cut.ends_with('…'));
        assert_eq!(cut.chars().count(), ARGS_SAMPLE_MAX / 2 + 1);
    }

    #[test]
    fn disk_persistence_survives_memory_eviction_and_prunes() {
        let dir = std::env::temp_dir().join(format!(
            "autobias-trace-store-{}-{}",
            std::process::id(),
            obs::trace::new_trace_id() as u64
        ));
        let mut s = fresh_store();
        s.dir = Some(dir.clone());
        let mut ids = Vec::new();
        for _ in 0..6 {
            let t = kept("predict", 500, 9, KeepReason::Error);
            ids.push(t.tree.trace_id.clone());
            s.keep(t);
        }
        // disk_cap = 2: only the newest two pairs remain on disk.
        let remaining: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            remaining.len(),
            4,
            "2 traces × (tree + chrome): {remaining:?}"
        );
        // ids[4] fell out of memory? cap=4 keeps ids[2..6]; drop them all to
        // prove the disk path serves evicted-but-persisted ids.
        s.entries.lock().unwrap().clear();
        assert!(s.get_json(&ids[5]).is_some(), "served from disk");
        assert!(s.get_chrome(&ids[5]).is_some(), "chrome from disk");
        assert!(s.get_json(&ids[0]).is_none(), "pruned from disk");
        // Hostile id never touches the filesystem.
        assert!(s.get_json("../../etc/passwd").is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
