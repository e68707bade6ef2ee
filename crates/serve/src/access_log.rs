//! Structured JSONL access log with size-capped rotation.
//!
//! `autobias serve --access-log FILE` appends one line per finished request:
//! its [`RequestRecord`], rendered by the same `to_json` the trace store's
//! views use, so a slow or failing request found in the log carries the
//! values its stored trace (`GET /debug/traces/{trace_id}`) and the
//! `/metrics` exemplars show under the same trace id.
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

use crate::trace::RequestRecord;

/// Default rotation threshold.
pub const DEFAULT_MAX_BYTES: u64 = 16 * 1024 * 1024;

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
    pub fn log(&self, record: &RequestRecord) {
        let mut line = record.to_json().to_string();
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
    use crate::trace::{KeepReason, PredictInfo};
    use obs::json::Json;

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
        log.log(&RequestRecord {
            trace_id: "cafe0000000000000000000000000003".to_string(),
            route: "predict",
            method: "POST".to_string(),
            path: "/predict".to_string(),
            status: 200,
            latency_us: 742,
            predict: Some(PredictInfo {
                model: "uw_coauthor".to_string(),
                tuples: 3,
                plan: plan::TallyTotals {
                    entries: 4,
                    candidates: 12,
                    rejected: 2,
                    backtracks: 1,
                    node_limit_hits: 0,
                },
                max_qerror: None,
            }),
            args_sample: "s1,p1".to_string(),
            reason: Some(KeepReason::Slow),
        });
        log.log(&RequestRecord {
            route: "healthz",
            method: "GET".to_string(),
            path: "/healthz".to_string(),
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
        assert_eq!(first.get("args_sample").unwrap().as_str(), Some("s1,p1"));
        assert_eq!(first.get("reason").unwrap().as_str(), Some("slow"));
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("route").unwrap().as_str(), Some("healthz"));
        assert_eq!(second.get("trace_id").unwrap().as_str(), Some(""));
        assert!(second.get("model").is_none());
        assert!(second.get("reason").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotation_caps_disk_at_two_generations() {
        let path = temp_path("rotate");
        // max_bytes floors at 1024; each line below is ~120 bytes, so
        // rotation triggers every ~8 lines.
        let log = AccessLog::open(path.clone(), 1024).unwrap();
        for i in 0..100 {
            log.log(&RequestRecord {
                trace_id: "ffff0000000000000000000000000000".to_string(),
                route: "predict",
                method: "POST".to_string(),
                path: "/predict".to_string(),
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
        let rec = RequestRecord {
            trace_id: "cafe0000000000000000000000000004".to_string(),
            route: "other",
            method: "GET".to_string(),
            path: hostile.to_string(),
            status: 404,
            latency_us: 5,
            ..Default::default()
        };
        let line = rec.to_json().to_string();
        assert!(
            !line.contains('\n'),
            "escaped line must be one physical line"
        );
        assert!(!line.contains('\u{0}'), "raw control chars must not leak");
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("path").unwrap().as_str(), Some(hostile));
    }
}
