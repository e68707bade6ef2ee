//! The per-job live event log behind `GET /jobs/{id}/events`.
//!
//! The log is the learning run's SSE sink: each [`ProgressEvent`] it
//! receives becomes one pre-rendered frame. Any number of stream
//! handlers replay the log from the beginning and then block on a condvar
//! for more, so a watcher attaching mid-run still sees the whole story. The
//! log is bounded: past [`EventLog::DEFAULT_CAP`] frames the oldest are
//! dropped (tracked by a rising `start` offset, so late readers know how
//! many they missed rather than silently skipping).

use obs::json::Json;
use obs::progress::{ProgressEvent, ProgressSink};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// One server-sent-events frame: `event: {kind}`, then `data` as one line
/// of JSON. Every frame `GET /jobs/{id}/events` sends is written here.
pub(crate) fn sse_frame(kind: &str, data: &Json) -> String {
    format!("event: {kind}\ndata: {data}\n\n")
}

#[derive(Default)]
struct Inner {
    frames: Vec<String>,
    /// Log index of `frames[0]`; rises when old frames are dropped.
    start: usize,
    closed: bool,
}

/// A bounded, closable, multi-reader log of pre-rendered SSE frames.
pub struct EventLog {
    inner: Mutex<Inner>,
    cond: Condvar,
    cap: usize,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::with_cap(Self::DEFAULT_CAP)
    }
}

/// What one blocking read returned.
#[derive(Debug)]
pub struct Batch {
    /// Frames from the requested index on (empty on a pure timeout).
    pub frames: Vec<String>,
    /// Index to pass to the next [`EventLog::wait_from`] call.
    pub next: usize,
    /// Frames the reader missed because the bounded log dropped them.
    pub missed: usize,
    /// Whether the log is closed (no more frames will ever arrive).
    pub closed: bool,
}

impl EventLog {
    /// Default frame cap. A learning run emits a handful of events per
    /// covering-loop iteration, so thousands of frames means hundreds of
    /// iterations — far past what a progress view needs verbatim.
    pub const DEFAULT_CAP: usize = 4096;

    /// Creates a log bounded to `cap` frames.
    pub fn with_cap(cap: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            cond: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Appends a frame and wakes blocked readers. No-op after [`close`].
    ///
    /// [`close`]: EventLog::close
    pub fn push(&self, frame: String) {
        let mut g = self.inner.lock().expect("event log poisoned");
        if g.closed {
            return;
        }
        if g.frames.len() >= self.cap {
            let drop_n = g.frames.len() + 1 - self.cap;
            g.frames.drain(..drop_n);
            g.start += drop_n;
        }
        g.frames.push(frame);
        drop(g);
        self.cond.notify_all();
    }

    /// Marks the log complete and wakes all readers. Idempotent.
    pub fn close(&self) {
        self.inner.lock().expect("event log poisoned").closed = true;
        self.cond.notify_all();
    }

    /// Whether [`close`](EventLog::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.inner.lock().expect("event log poisoned").closed
    }

    /// Total frames ever pushed.
    pub fn len(&self) -> usize {
        let g = self.inner.lock().expect("event log poisoned");
        g.start + g.frames.len()
    }

    /// Whether no frame has ever been pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns frames from log index `from` on, blocking up to `timeout`
    /// when none are available yet. A timeout returns an empty batch with
    /// `closed: false`, letting the caller write a keep-alive or re-check
    /// its socket.
    pub fn wait_from(&self, from: usize, timeout: Duration) -> Batch {
        let mut g = self.inner.lock().expect("event log poisoned");
        if g.start + g.frames.len() <= from && !g.closed {
            let (guard, _) = self
                .cond
                .wait_timeout_while(g, timeout, |i| {
                    i.start + i.frames.len() <= from && !i.closed
                })
                .expect("event log poisoned");
            g = guard;
        }
        let effective = from.max(g.start);
        Batch {
            frames: g.frames[effective - g.start..].to_vec(),
            next: g.start + g.frames.len(),
            missed: effective - from,
            closed: g.closed,
        }
    }
}

impl ProgressSink for EventLog {
    fn on_event(&self, ev: &ProgressEvent) {
        self.push(sse_frame(ev.kind(), &ev.to_json()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn replay_then_live_then_close() {
        let log = Arc::new(EventLog::default());
        log.push("a".into());
        log.push("b".into());

        // Replay from the start.
        let b = log.wait_from(0, Duration::from_millis(10));
        assert_eq!(b.frames, vec!["a", "b"]);
        assert_eq!(b.next, 2);
        assert_eq!(b.missed, 0);
        assert!(!b.closed);

        // A blocked reader is woken by a concurrent push.
        let writer = {
            let log = log.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                log.push("c".into());
                log.close();
            })
        };
        let b = log.wait_from(2, Duration::from_secs(5));
        assert_eq!(b.frames, vec!["c"]);
        writer.join().unwrap();

        // After close, a drained reader sees closed immediately.
        let t0 = Instant::now();
        let b = log.wait_from(3, Duration::from_secs(5));
        assert!(b.frames.is_empty());
        assert!(b.closed);
        assert!(t0.elapsed() < Duration::from_secs(1), "no pointless wait");
        assert!(log.is_closed());

        // Pushes after close are ignored.
        log.push("zombie".into());
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn progress_events_become_one_frame_each_with_json_data() {
        let log = EventLog::default();
        let ev = ProgressEvent::ClauseAccepted {
            iteration: 1,
            covered_pos: 6,
            covered_neg: 0,
            precision: 1.0,
            literals: 2,
            uncovered_after: 4,
            clause: "t(x) ← r(x, \"y\")".to_string(),
        };
        log.on_event(&ev);
        let b = log.wait_from(0, Duration::ZERO);
        let frame = &b.frames[0];
        assert!(
            frame.starts_with("event: clause_accepted\ndata: "),
            "{frame}"
        );
        assert!(frame.ends_with("\n\n"), "{frame}");
        let data = frame
            .lines()
            .find_map(|l| l.strip_prefix("data: "))
            .expect("frame has a data line");
        assert_eq!(Json::parse(data).unwrap(), ev.to_json());
    }

    #[test]
    fn timeout_returns_empty_open_batch() {
        let log = EventLog::default();
        let b = log.wait_from(0, Duration::from_millis(5));
        assert!(b.frames.is_empty());
        assert!(!b.closed);
        assert_eq!(b.next, 0);
    }

    #[test]
    fn bounded_log_reports_missed_frames() {
        let log = EventLog::with_cap(3);
        for i in 0..10 {
            log.push(format!("f{i}"));
        }
        assert_eq!(log.len(), 10);
        let b = log.wait_from(0, Duration::from_millis(5));
        assert_eq!(b.frames, vec!["f7", "f8", "f9"]);
        assert_eq!(b.missed, 7);
        assert_eq!(b.next, 10);
    }
}
