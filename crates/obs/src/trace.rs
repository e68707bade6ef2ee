//! Context-carried trace trees with W3C `traceparent` propagation.
//!
//! The process-wide phase table in [`crate::summary`] answers "where does
//! this *process* spend time"; this module answers "where did *this request*
//! or *this learn run* go". A [`TraceCtx`] is one trace: a 128-bit trace id
//! plus a tree of spans with explicit `span_id`/`parent_id` links.
//! Installing a context on a thread ([`TraceCtx::install`]) makes every span
//! entered via [`crate::span!`] record into that tree (and, in
//! [`crate::Mode::Summary`], into the phase table too); the install guard
//! restores the previous context on drop, so contexts nest. A thread that
//! fans work out hands its context and open span to the workers
//! ([`handoff`]), so their spans join the same tree under the span that
//! spawned them.
//!
//! A request's tree holds up to [`MAX_TRACE_SPANS`]; a learn run's
//! ([`TraceCtx::begin_run`], begun by [`crate::ReportBuilder::new`]) up to
//! [`MAX_RUN_SPANS`]. Spans past the cap are counted in the tree and in
//! [`DROPPED_SPANS`], never silently lost.
//!
//! The fast path is unchanged: while no context is installed anywhere and
//! the global mode is [`crate::Mode::Off`], entering a span is still a
//! single relaxed atomic load (the trace flag lives in the same state byte
//! as the mode).
//!
//! Trace ids follow the W3C Trace Context wire format: incoming
//! `traceparent` headers are parsed with [`parse_traceparent`] so a caller's
//! trace id is reused, and [`format_traceparent`] renders the header for
//! downstream hops. Finished trees ([`TraceCtx::finish`]) serialize to JSON
//! ([`TraceTree::to_json`]) or to chrome-trace ([`TraceTree::to_chrome`],
//! through [`crate::chrome`]'s exporter).

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::Counter;

/// Cap on spans recorded into one request's trace tree. A request executes
/// a handful of coarse spans; thousands means a span was opened per tuple,
/// which the naming convention forbids. Overflow is counted, never silent.
pub const MAX_TRACE_SPANS: usize = 4096;

/// Cap on spans recorded into one learn run's tree ([`TraceCtx::begin_run`]).
/// A UW run with automatic bias records a few thousand (one `bc.build` per
/// example, one `learn.armg` per generalization); the cap bounds the memory
/// a runaway run can hold at a few tens of MB.
pub const MAX_RUN_SPANS: usize = 262_144;

/// Spans dropped process-wide because their trace tree was at its cap.
pub static DROPPED_SPANS: Counter = Counter::new(
    "autobias_trace_dropped_events_total",
    "Spans dropped because their trace tree was full (4096 per request, 262144 per learn run).",
);

/// One completed span inside a trace tree.
#[derive(Debug, Clone)]
pub struct TraceSpan {
    /// Static span name (see the naming table in the crate docs).
    pub name: &'static str,
    /// Optional static label.
    pub label: Option<&'static str>,
    /// Numeric notes attached while the span was open.
    pub notes: Vec<(&'static str, u64)>,
    /// Id unique within the trace (allocated at entry, starting at 1).
    pub span_id: u64,
    /// Id of the enclosing span on the same thread; 0 for tree roots.
    pub parent_id: u64,
    /// Small dense thread id (not the OS tid), one per recording thread.
    pub tid: u32,
    /// Start, microseconds since the trace began.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

struct TraceInner {
    trace_id: u128,
    /// Caller's span id from an incoming `traceparent`, 0 if none.
    remote_parent: u64,
    start: Instant,
    /// Most spans the tree keeps.
    cap: usize,
    next_span_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<TraceSpan>>,
}

/// A handle to one in-progress trace. Clone-cheap (`Arc` inside); clones
/// share the same tree.
#[derive(Clone)]
pub struct TraceCtx {
    inner: Arc<TraceInner>,
}

/// A finished trace: the id plus every recorded span, parent-linked.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// Trace id as 32 lowercase hex digits (W3C wire form).
    pub trace_id: String,
    /// Caller's span id from the incoming `traceparent`, 0 if none.
    pub remote_parent_id: u64,
    /// Spans dropped past the tree's cap ([`MAX_TRACE_SPANS`] for a
    /// request, [`MAX_RUN_SPANS`] for a learn run).
    pub dropped: u64,
    /// Completed spans in completion order (children before parents).
    pub spans: Vec<TraceSpan>,
}

struct ActiveTrace {
    inner: Arc<TraceInner>,
    /// Open span ids on this thread, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Count of installed contexts process-wide; drives the trace flag inside
/// the span recorder's state byte.
static INSTALLED: AtomicU64 = AtomicU64::new(0);

/// Ticket handed to a [`crate::SpanGuard`] at entry when a context is
/// installed; redeemed on drop via [`record`].
pub(crate) struct TraceAttach {
    inner: Arc<TraceInner>,
    span_id: u64,
    parent_id: u64,
}

/// Allocates a span id under the thread's installed context, if any.
pub(crate) fn attach() -> Option<TraceAttach> {
    ACTIVE.with(|a| {
        let mut a = a.borrow_mut();
        let at = a.as_mut()?;
        let span_id = at.inner.next_span_id.fetch_add(1, Ordering::Relaxed);
        let parent_id = at.stack.last().copied().unwrap_or(0);
        at.stack.push(span_id);
        Some(TraceAttach {
            inner: Arc::clone(&at.inner),
            span_id,
            parent_id,
        })
    })
}

/// Completes an attached span: pops it from the thread's open stack and
/// pushes the finished [`TraceSpan`] into its tree (bounded by the tree's
/// cap; a span past it bumps the tree's and the process's drop counts).
pub(crate) fn record(
    attach: TraceAttach,
    name: &'static str,
    label: Option<&'static str>,
    notes: Vec<(&'static str, u64)>,
    tid: u32,
    start: Instant,
    dur: Duration,
) {
    ACTIVE.with(|a| {
        if let Some(at) = a.borrow_mut().as_mut() {
            if Arc::ptr_eq(&at.inner, &attach.inner) {
                if at.stack.last() == Some(&attach.span_id) {
                    at.stack.pop();
                } else if let Some(pos) = at.stack.iter().rposition(|&s| s == attach.span_id) {
                    at.stack.remove(pos);
                }
            }
        }
    });
    let span = TraceSpan {
        name,
        label,
        notes,
        span_id: attach.span_id,
        parent_id: attach.parent_id,
        tid,
        start_us: start
            .saturating_duration_since(attach.inner.start)
            .as_micros()
            .min(u64::MAX as u128) as u64,
        dur_us: dur.as_micros().min(u64::MAX as u128) as u64,
    };
    let mut spans = attach.inner.spans.lock().expect("trace spans poisoned");
    if spans.len() < attach.inner.cap {
        spans.push(span);
    } else {
        attach.inner.dropped.fetch_add(1, Ordering::Relaxed);
        DROPPED_SPANS.bump();
    }
}

/// Makes `active` the thread's context; the guard restores the previous one.
fn install_active(active: ActiveTrace) -> TraceGuard {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(active));
    if INSTALLED.fetch_add(1, Ordering::Relaxed) == 0 {
        crate::span::set_trace_flag(true);
    }
    TraceGuard {
        prev,
        restored: false,
        _not_send: std::marker::PhantomData,
    }
}

/// A thread's installed context and innermost open span, captured so that
/// worker threads it spawns record into the same tree: each worker installs
/// the handoff ([`Handoff::install`]), and its top-level spans parent to the
/// span that was open where the work was handed off.
pub struct Handoff {
    inner: Arc<TraceInner>,
    parent_id: u64,
}

/// Captures the calling thread's context for its workers; `None` when none
/// is installed. One relaxed load when nothing is traced anywhere.
#[inline]
pub fn handoff() -> Option<Handoff> {
    if !crate::span::trace_flag() {
        return None;
    }
    ACTIVE.with(|a| {
        a.borrow().as_ref().map(|at| Handoff {
            inner: Arc::clone(&at.inner),
            parent_id: at.stack.last().copied().unwrap_or(0),
        })
    })
}

impl Handoff {
    /// Installs the handed-off context on the current (worker) thread.
    #[must_use = "spans record into the trace only while the guard lives"]
    pub fn install(&self) -> TraceGuard {
        // A bottom entry of 0 (nothing open at the handoff) makes the
        // worker's spans roots, as on an empty stack; no span has id 0.
        install_active(ActiveTrace {
            inner: Arc::clone(&self.inner),
            stack: vec![self.parent_id],
        })
    }
}

/// RAII guard from [`TraceCtx::install`]; restores the thread's previous
/// context (if any) on drop. Not `Send` — it manages thread-local state.
pub struct TraceGuard {
    prev: Option<ActiveTrace>,
    restored: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.restored {
            return;
        }
        self.restored = true;
        ACTIVE.with(|a| {
            *a.borrow_mut() = self.prev.take();
        });
        // When the count of installed contexts returns to zero, clear the
        // trace flag — then re-check, so a concurrent install that raced the
        // clear wins and the flag stays up.
        if INSTALLED.fetch_sub(1, Ordering::Relaxed) == 1 {
            crate::span::set_trace_flag(false);
            if INSTALLED.load(Ordering::Relaxed) > 0 {
                crate::span::set_trace_flag(true);
            }
        }
    }
}

impl TraceCtx {
    /// Starts a trace. With `parent` (a parsed incoming `traceparent`), the
    /// caller's trace id is continued and its span id becomes the tree's
    /// remote parent; without, a fresh random trace id is drawn.
    /// Holds up to [`MAX_TRACE_SPANS`] spans.
    pub fn begin(parent: Option<(u128, u64)>) -> Self {
        let (trace_id, remote_parent) = match parent {
            Some((t, s)) => (t, s),
            None => (new_trace_id(), 0),
        };
        Self::with_cap(trace_id, remote_parent, MAX_TRACE_SPANS)
    }

    /// Starts a learn run's trace under a fresh id, holding up to
    /// [`MAX_RUN_SPANS`] spans.
    pub fn begin_run() -> Self {
        Self::with_cap(new_trace_id(), 0, MAX_RUN_SPANS)
    }

    fn with_cap(trace_id: u128, remote_parent: u64, cap: usize) -> Self {
        Self {
            inner: Arc::new(TraceInner {
                trace_id,
                remote_parent,
                start: Instant::now(),
                cap,
                next_span_id: AtomicU64::new(1),
                dropped: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The raw 128-bit trace id.
    pub fn trace_id(&self) -> u128 {
        self.inner.trace_id
    }

    /// The trace id as 32 lowercase hex digits.
    pub fn trace_id_hex(&self) -> String {
        format!("{:032x}", self.inner.trace_id)
    }

    /// Installs this context on the current thread; spans entered until the
    /// returned guard drops record into this trace. Contexts nest: the guard
    /// restores whatever was installed before.
    #[must_use = "spans record into the trace only while the guard lives"]
    pub fn install(&self) -> TraceGuard {
        install_active(ActiveTrace {
            inner: Arc::clone(&self.inner),
            stack: Vec::new(),
        })
    }

    /// The spans recorded so far, in completion order.
    pub(crate) fn spans(&self) -> std::sync::MutexGuard<'_, Vec<TraceSpan>> {
        self.inner.spans.lock().expect("trace spans poisoned")
    }

    /// The tree as recorded so far, as a [`TraceTree`]. The context keeps
    /// its spans, so a live run can be read as often as it is polled; call
    /// after every install guard has dropped for the complete tree.
    pub fn finish(&self) -> TraceTree {
        let spans = self.spans().clone();
        TraceTree {
            trace_id: self.trace_id_hex(),
            remote_parent_id: self.inner.remote_parent,
            dropped: self.inner.dropped.load(Ordering::Relaxed),
            spans,
        }
    }
}

impl TraceTree {
    /// Serializes the tree as a JSON object: trace id, the caller's span id
    /// (16 hex digits, its `traceparent` form), drop count, and one object
    /// per span carrying its `span_id`/`parent_id` links and notes.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut m = vec![
                    ("span_id", s.span_id.into()),
                    ("parent_id", s.parent_id.into()),
                    ("name", s.name.into()),
                    ("tid", u64::from(s.tid).into()),
                    ("start_us", s.start_us.into()),
                    ("dur_us", s.dur_us.into()),
                ];
                if let Some(label) = s.label {
                    m.push(("label", label.into()));
                }
                if !s.notes.is_empty() {
                    m.push((
                        "notes",
                        Json::obj(s.notes.iter().map(|&(k, v)| (k, v.into()))),
                    ));
                }
                Json::obj(m)
            })
            .collect();
        Json::obj([
            ("trace_id", self.trace_id.as_str().into()),
            (
                "remote_parent_id",
                format!("{:016x}", self.remote_parent_id).into(),
            ),
            ("dropped", self.dropped.into()),
            ("spans", Json::Arr(spans)),
        ])
    }

    /// Exports the tree as chrome-trace JSON via [`crate::chrome`], one
    /// event per span rendered as it is drawn; the viewer nests spans by
    /// thread and interval.
    pub fn to_chrome(&self) -> String {
        crate::chrome::export(
            self.spans.iter().map(|s| {
                crate::chrome::event(s.name, s.label, &s.notes, s.tid, s.start_us, s.dur_us)
            }),
            self.dropped,
        )
    }
}

/// Draws a fresh non-zero 128-bit trace id. Randomness comes from the
/// process's [`RandomState`] seed (`std`'s per-process SipHash keys) mixed
/// with a monotonic nonce — no external RNG dependency, unique per process
/// and unpredictable across processes.
pub fn new_trace_id() -> u128 {
    loop {
        let hi = seeded_hash();
        let lo = seeded_hash();
        let id = ((hi as u128) << 64) | lo as u128;
        if id != 0 {
            return id;
        }
    }
}

fn seeded_hash() -> u64 {
    static SEED: OnceLock<RandomState> = OnceLock::new();
    static NONCE: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);
    let mut h = SEED.get_or_init(RandomState::new).build_hasher();
    h.write_u64(NONCE.fetch_add(1, Ordering::Relaxed));
    h.finish()
}

/// Parses a W3C `traceparent` header value: `VV-<32 hex>-<16 hex>-FF`.
/// Returns the trace id and the caller's span id. Rejects the all-zero
/// trace id and malformed fields, per the spec.
pub fn parse_traceparent(value: &str) -> Option<(u128, u64)> {
    let mut parts = value.trim().split('-');
    let version = parts.next()?;
    if version.len() != 2 || version == "ff" || u8::from_str_radix(version, 16).is_err() {
        return None;
    }
    let trace_hex = parts.next()?;
    if trace_hex.len() != 32 {
        return None;
    }
    let trace_id = u128::from_str_radix(trace_hex, 16).ok()?;
    if trace_id == 0 {
        return None;
    }
    let span_hex = parts.next()?;
    if span_hex.len() != 16 {
        return None;
    }
    let span_id = u64::from_str_radix(span_hex, 16).ok()?;
    let flags = parts.next()?;
    if flags.len() != 2 || u8::from_str_radix(flags, 16).is_err() {
        return None;
    }
    // Version 00 has exactly four fields; later versions may append more.
    if version == "00" && parts.next().is_some() {
        return None;
    }
    Some((trace_id, span_id))
}

/// Renders a `traceparent` header value for this trace (sampled flag set).
pub fn format_traceparent(trace_id: u128, span_id: u64) -> String {
    format!("00-{trace_id:032x}-{span_id:016x}-01")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traceparent_round_trip_and_rejects() {
        let (t, s) = (
            0x0123_4567_89ab_cdef_0123_4567_89ab_cdefu128,
            0xdead_beefu64,
        );
        let header = format_traceparent(t, s);
        assert_eq!(
            header,
            "00-0123456789abcdef0123456789abcdef-00000000deadbeef-01"
        );
        assert_eq!(parse_traceparent(&header), Some((t, s)));
        assert_eq!(parse_traceparent(&format!("  {header} ")), Some((t, s)));
        // Malformed variants.
        for bad in [
            "",
            "00",
            "00-0123456789abcdef0123456789abcdef-00000000deadbeef",
            "00-00000000000000000000000000000000-00000000deadbeef-01",
            "00-0123456789abcdef0123456789abcde-00000000deadbeef-01",
            "00-0123456789abcdef0123456789abcdef-00000000deadbee-01",
            "ff-0123456789abcdef0123456789abcdef-00000000deadbeef-01",
            "zz-0123456789abcdef0123456789abcdef-00000000deadbeef-01",
            "00-0123456789abcdef0123456789abcdxx-00000000deadbeef-01",
            "00-0123456789abcdef0123456789abcdef-00000000deadbeef-01-extra",
        ] {
            assert_eq!(parse_traceparent(bad), None, "accepted {bad:?}");
        }
        // Future versions may carry extra fields.
        assert_eq!(
            parse_traceparent("42-0123456789abcdef0123456789abcdef-00000000deadbeef-01-x"),
            Some((t, s))
        );
    }

    #[test]
    fn fresh_trace_ids_are_distinct_and_nonzero() {
        let a = new_trace_id();
        let b = new_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn installed_context_records_parented_tree_with_mode_off() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Off);
        let ctx = TraceCtx::begin(None);
        {
            let _install = ctx.install();
            let mut root = crate::span!("test.root");
            root.note("n", 5);
            root.add_note("n", 3);
            root.add_note("m", 2);
            {
                let _child = crate::span!("test.child", "lbl");
                let _grandchild = crate::span!("test.grandchild");
            }
            let _sibling = crate::span!("test.sibling");
        }
        // Nothing leaked into the global phase table.
        assert!(crate::summary::phase_snapshot().is_empty());
        let tree = ctx.finish();
        assert_eq!(tree.spans.len(), 4);
        let by_name = |n: &str| tree.spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("test.root");
        let child = by_name("test.child");
        let grandchild = by_name("test.grandchild");
        let sibling = by_name("test.sibling");
        assert_eq!(root.parent_id, 0);
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(grandchild.parent_id, child.span_id);
        assert_eq!(sibling.parent_id, root.span_id);
        // add_note accumulates into an existing key and creates a new one.
        assert_eq!(root.notes, vec![("n", 8), ("m", 2)]);
        assert_eq!(child.label, Some("lbl"));
        // Spans outside the install guard do not record.
        {
            let _after = crate::span!("test.after");
        }
        assert_eq!(ctx.finish().spans.len(), 4, "nothing new landed");
        let again = ctx.finish();
        assert_eq!(again.spans.len(), tree.spans.len(), "finish is repeatable");
        assert_eq!(again.trace_id, tree.trace_id);
    }

    #[test]
    fn trees_cap_at_their_kind_and_count_drops() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Off);
        const EXTRA: usize = 5;
        let before = DROPPED_SPANS.get();
        let request = TraceCtx::begin(None);
        let run = TraceCtx::begin_run();
        {
            let _install = request.install();
            for _ in 0..MAX_TRACE_SPANS + EXTRA {
                let _sp = crate::span!("test.overflow");
            }
        }
        {
            let _install = run.install();
            for _ in 0..MAX_TRACE_SPANS + EXTRA {
                let _sp = crate::span!("test.overflow");
            }
        }
        let tree = request.finish();
        assert_eq!(tree.spans.len(), MAX_TRACE_SPANS);
        assert_eq!(tree.dropped, EXTRA as u64);
        // Other tests may overflow their own trees concurrently; the process
        // counter only grows.
        assert!(DROPPED_SPANS.get() >= before + EXTRA as u64);
        let run_tree = run.finish();
        assert_eq!(run_tree.spans.len(), MAX_TRACE_SPANS + EXTRA);
        assert_eq!(run_tree.dropped, 0, "a run's tree holds {MAX_RUN_SPANS}");
    }

    #[test]
    fn handoff_parents_worker_spans_to_the_open_span() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Off);
        assert!(handoff().is_none(), "nothing installed, nothing handed off");
        let ctx = TraceCtx::begin(None);
        {
            let _install = ctx.install();
            let _outer = crate::span!("test.spawner");
            let handed = handoff().expect("context installed");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let _traced = handed.install();
                        let _sp = crate::span!("test.worker");
                    });
                }
            });
        }
        let tree = ctx.finish();
        let spawner = tree
            .spans
            .iter()
            .find(|s| s.name == "test.spawner")
            .unwrap();
        let workers: Vec<_> = tree
            .spans
            .iter()
            .filter(|s| s.name == "test.worker")
            .collect();
        assert_eq!(workers.len(), 2);
        assert!(workers.iter().all(|w| w.parent_id == spawner.span_id));
        assert!(workers.iter().all(|w| w.tid != spawner.tid));
    }

    #[test]
    fn nested_install_restores_previous_context() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Off);
        let outer = TraceCtx::begin(None);
        let inner = TraceCtx::begin(None);
        {
            let _a = outer.install();
            {
                let _b = inner.install();
                let _sp = crate::span!("test.inner_ctx");
            }
            let _sp = crate::span!("test.outer_ctx");
        }
        let outer_tree = outer.finish();
        let inner_tree = inner.finish();
        assert_eq!(inner_tree.spans.len(), 1);
        assert_eq!(inner_tree.spans[0].name, "test.inner_ctx");
        assert_eq!(outer_tree.spans.len(), 1);
        assert_eq!(outer_tree.spans[0].name, "test.outer_ctx");
        assert_ne!(outer_tree.trace_id, inner_tree.trace_id);
    }

    #[test]
    fn continued_parent_sets_trace_id_and_remote_parent() {
        let ctx = TraceCtx::begin(Some((0xabcu128, 0x77u64)));
        assert_eq!(ctx.trace_id_hex(), format!("{:032x}", 0xabcu128));
        let tree = ctx.finish();
        assert_eq!(tree.remote_parent_id, 0x77);
        assert_eq!(
            tree.to_json()
                .get("remote_parent_id")
                .and_then(Json::as_str),
            Some("0000000000000077")
        );
    }

    #[test]
    fn tree_serializes_to_json_and_chrome() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Off);
        let ctx = TraceCtx::begin(None);
        {
            let _install = ctx.install();
            let mut sp = crate::span!("test.json_root");
            sp.note("tuples", 3);
            let _inner = crate::span!("test.json_child");
        }
        let tree = ctx.finish();
        let doc = tree.to_json().to_string();
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(
            parsed.get("trace_id").and_then(Json::as_str),
            Some(tree.trace_id.as_str())
        );
        let spans = parsed.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 2);
        let chrome = tree.to_chrome();
        assert!(chrome.contains("test.json_root"));
        assert!(chrome.contains("\"ph\":\"X\""));
    }

    #[test]
    fn trace_flag_clears_after_last_guard() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Off);
        let ctx = TraceCtx::begin(None);
        {
            let _install = ctx.install();
            let sp = crate::span!("test.flagged");
            assert!(sp.is_active());
        }
        let sp = crate::span!("test.unflagged");
        assert!(
            !sp.is_active(),
            "flag must clear once no context is installed"
        );
    }
}
