//! Structured JSONL access log with size-capped rotation.
//!
//! `autobias serve --access-log FILE` appends one JSON object per finished
//! request — trace id, route, method, path, status, latency, and (for
//! predictions) the model, engine, and plan-tally totals — so a slow or
//! failing request found in the log correlates directly with its stored
//! trace (`GET /debug/traces/{trace_id}`) and the `/metrics` exemplars by
//! trace id.
//!
//! Rotation is deliberately simple: when the current file would exceed the
//! size cap, it is renamed to `FILE.1` (replacing any previous `.1`) and a
//! fresh file is started — at most two generations on disk, bounded space,
//! no background thread. Lines render through [`obs::json::Json`], so
//! escaping is exactly the workspace's canonical JSON escaping and every
//! line parses back with the same module.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Mutex;

use crate::trace::PredictInfo;
use obs::json::Json;

/// Default rotation threshold.
pub const DEFAULT_MAX_BYTES: u64 = 16 * 1024 * 1024;

/// One request's worth of access-log context.
#[derive(Debug, Clone, Default)]
pub struct AccessRecord<'a> {
    /// Trace id (32 hex digits; empty when tracing is off).
    pub trace_id: &'a str,
    /// Route label (the metrics endpoint name).
    pub route: &'a str,
    /// HTTP method.
    pub method: &'a str,
    /// Request path.
    pub path: &'a str,
    /// Response status.
    pub status: u16,
    /// Wall-clock latency in microseconds.
    pub latency_us: u64,
    /// The batch, when the request was a served prediction.
    pub predict: Option<&'a PredictInfo>,
    /// Tail-sampler verdict (`"error"`, `"slow"`, …) when the trace was
    /// kept.
    pub kept: Option<&'static str>,
}

impl AccessRecord<'_> {
    /// Renders the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut m = vec![
            ("trace_id", self.trace_id.into()),
            ("route", self.route.into()),
            ("method", self.method.into()),
            ("path", self.path.into()),
            ("status", u64::from(self.status).into()),
            ("latency_us", self.latency_us.into()),
        ];
        if let Some(p) = self.predict {
            m.push(("model", p.model.as_str().into()));
            m.push(("engine", PredictInfo::ENGINE.into()));
            m.push(("tuples", p.tuples.into()));
            m.push((
                "plan",
                Json::obj([
                    ("entries", p.plan.entries.into()),
                    ("candidates", p.plan.candidates.into()),
                    ("rejected", p.plan.rejected.into()),
                    ("backtracks", p.plan.backtracks.into()),
                    ("node_limit_hits", p.plan.node_limit_hits.into()),
                ]),
            ));
        }
        if let Some(kept) = self.kept {
            m.push(("kept", kept.into()));
        }
        Json::obj(m).to_string()
    }
}

struct LogFile {
    file: File,
    written: u64,
}

/// Append-only JSONL writer with two-generation size-capped rotation.
pub struct AccessLog {
    path: PathBuf,
    max_bytes: u64,
    inner: Mutex<Option<LogFile>>,
}

impl AccessLog {
    /// Opens (appending) the log at `path`, rotating when a write would
    /// push it past `max_bytes`.
    pub fn open(path: PathBuf, max_bytes: u64) -> std::io::Result<Self> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(Self {
            path,
            max_bytes: max_bytes.max(1024),
            inner: Mutex::new(Some(LogFile { file, written })),
        })
    }

    /// Path of the rotated generation (`FILE.1`).
    fn rotated_path(&self) -> PathBuf {
        let mut name = self
            .path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        name.push(".1");
        self.path.with_file_name(name)
    }

    /// Appends one record as a JSON line. Errors are swallowed after
    /// disabling the writer — logging must never take the serving path
    /// down.
    pub fn log(&self, record: &AccessRecord<'_>) {
        let mut line = record.to_json();
        line.push('\n');
        let mut guard = self.inner.lock().expect("access log poisoned");
        let Some(lf) = guard.as_mut() else {
            return;
        };
        if lf.written + line.len() as u64 > self.max_bytes {
            // Rotate: current → .1 (clobbering), fresh current.
            let rotated = self.rotated_path();
            let _ = std::fs::rename(&self.path, &rotated);
            match OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
            {
                Ok(file) => *lf = LogFile { file, written: 0 },
                Err(_) => {
                    *guard = None;
                    return;
                }
            }
        }
        if lf.file.write_all(line.as_bytes()).is_err() {
            *guard = None;
            return;
        }
        lf.written += line.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "autobias-access-{tag}-{}-{}.jsonl",
            std::process::id(),
            obs::trace::new_trace_id() as u64
        ))
    }

    #[test]
    fn lines_carry_context_and_parse_back() {
        let path = temp_path("basic");
        let log = AccessLog::open(path.clone(), DEFAULT_MAX_BYTES).unwrap();
        log.log(&AccessRecord {
            trace_id: "cafe0000000000000000000000000003",
            route: "predict",
            method: "POST",
            path: "/predict",
            status: 200,
            latency_us: 742,
            predict: Some(&PredictInfo {
                model: "uw_coauthor".to_string(),
                tuples: 3,
                interpreter_fallback: false,
                plan: plan::TallyTotals {
                    entries: 4,
                    candidates: 12,
                    rejected: 2,
                    backtracks: 1,
                    node_limit_hits: 0,
                },
                max_qerror: None,
            }),
            kept: Some("slow"),
        });
        log.log(&AccessRecord {
            trace_id: "",
            route: "healthz",
            method: "GET",
            path: "/healthz",
            status: 200,
            latency_us: 12,
            ..Default::default()
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).unwrap();
        assert_eq!(
            first.get("trace_id").unwrap().as_str(),
            Some("cafe0000000000000000000000000003")
        );
        assert_eq!(first.get("model").unwrap().as_str(), Some("uw_coauthor"));
        assert_eq!(first.get("engine").unwrap().as_str(), Some("compiled"));
        assert_eq!(
            first.path(&["plan", "candidates"]).unwrap().as_f64(),
            Some(12.0)
        );
        assert_eq!(first.get("kept").unwrap().as_str(), Some("slow"));
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("route").unwrap().as_str(), Some("healthz"));
        assert!(second.get("model").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotation_caps_disk_at_two_generations() {
        let path = temp_path("rotate");
        // max_bytes floors at 1024; each line below is ~120 bytes, so
        // rotation triggers every ~8 lines.
        let log = AccessLog::open(path.clone(), 1024).unwrap();
        for i in 0..100 {
            log.log(&AccessRecord {
                trace_id: "ffff0000000000000000000000000000",
                route: "predict",
                method: "POST",
                path: "/predict",
                status: 200,
                latency_us: i,
                ..Default::default()
            });
        }
        let rotated = {
            let mut name = path.file_name().unwrap().to_os_string();
            name.push(".1");
            path.with_file_name(name)
        };
        let current_len = std::fs::metadata(&path).unwrap().len();
        let rotated_len = std::fs::metadata(&rotated).unwrap().len();
        assert!(current_len <= 1024);
        assert!(rotated_len <= 1024);
        // Every surviving line still parses.
        for file in [&path, &rotated] {
            for line in std::fs::read_to_string(file).unwrap().lines() {
                Json::parse(line).unwrap();
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&rotated).ok();
    }

    /// Control characters in logged strings (satellite: obs::json escaping
    /// round-trip) survive the line format: the rendered line stays one
    /// physical line and parses back to the original string.
    #[test]
    fn control_characters_in_paths_round_trip() {
        let hostile = "/predict\u{0}\u{1}\t\r\nx\u{1f}";
        let rec = AccessRecord {
            trace_id: "cafe0000000000000000000000000004",
            route: "other",
            method: "GET",
            path: hostile,
            status: 404,
            latency_us: 5,
            ..Default::default()
        };
        let line = rec.to_json();
        assert!(
            !line.contains('\n'),
            "escaped line must be one physical line"
        );
        assert!(!line.contains('\u{0}'), "raw control chars must not leak");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("path").unwrap().as_str(), Some(hostile));
    }
}
