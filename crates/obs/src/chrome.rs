//! Chrome-trace JSON exporter. The output is the "JSON Object Format" of
//! the Trace Event specification — an object with a `traceEvents` array of
//! complete (`"ph":"X"`) events — and loads directly in `about://tracing`
//! or <https://ui.perfetto.dev>. Timestamps and durations are microseconds
//! (since the trace began, for a [`crate::trace::TraceTree`] export), as the
//! format requires.

use crate::json::{render_with_array, Json};
use crate::span::SpanEvent;

/// One complete (`"ph":"X"`) event: the span's name, thread and interval,
/// with its label and notes as `args`.
pub(crate) fn event(
    name: &str,
    label: Option<&str>,
    notes: &[(&str, u64)],
    tid: u32,
    start_us: u64,
    dur_us: u64,
) -> Json {
    let args = label
        .map(|l| ("label", l.into()))
        .into_iter()
        .chain(notes.iter().map(|&(k, v)| (k, v.into())));
    Json::obj([
        ("name", name.into()),
        ("cat", "autobias".into()),
        ("ph", "X".into()),
        ("pid", 1u64.into()),
        ("tid", u64::from(tid).into()),
        ("ts", start_us.into()),
        ("dur", dur_us.into()),
        ("args", Json::obj(args)),
    ])
}

/// Serializes `events` (plus a process-name metadata event) as
/// chrome-trace JSON.
pub fn export_chrome_trace(events: &[SpanEvent]) -> String {
    export(
        events
            .iter()
            .map(|e| event(e.name, e.label, &e.notes, e.tid, e.start_us, e.dur_us)),
        0,
    )
}

/// The chrome-trace document over `events`, each rendered as it is drawn,
/// led by the metadata event that carries the count of spans the source
/// dropped (a trace tree past its cap) as `dropped_events`.
pub(crate) fn export(events: impl Iterator<Item = Json>, dropped: u64) -> String {
    let metadata = Json::obj([
        ("name", "process_name".into()),
        ("ph", "M".into()),
        ("pid", 1u64.into()),
        ("tid", 0u64.into()),
        (
            "args",
            Json::obj([
                ("name", "autobias".into()),
                ("dropped_events", dropped.into()),
            ]),
        ),
    ]);
    render_with_array(
        &[("displayTimeUnit", "ms".into())],
        "traceEvents",
        std::iter::once(metadata).chain(events),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str) -> SpanEvent {
        SpanEvent {
            name,
            label: Some("naive"),
            notes: vec![("tuples", 42), ("ground_literals", 7)],
            tid: 3,
            depth: 1,
            start_us: 100,
            dur_us: 250,
        }
    }

    #[test]
    fn export_is_wellformed_and_contains_fields() {
        let json = export_chrome_trace(&[ev("bc.build")]);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"bc.build\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":100"));
        assert!(json.contains("\"dur\":250"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"label\":\"naive\""));
        assert!(json.contains("\"tuples\":42"));
        assert!(json.contains("\"ground_literals\":7"));
        // Balanced braces/brackets — a cheap structural well-formedness check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_export_still_has_metadata() {
        let json = export_chrome_trace(&[]);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"dropped_events\""));
    }

    #[test]
    fn empty_export_is_parseable_with_single_metadata_event() {
        let json = export_chrome_trace(&[]);
        let parsed = crate::json::Json::parse(&json).expect("empty export parses");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1, "only the process_name metadata event");
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("M"));
        assert_eq!(
            events[0]
                .path(&["args", "dropped_events"])
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn tree_cap_drops_are_exported() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Off);
        const EXTRA: usize = 5;
        let ctx = crate::TraceCtx::begin(None);
        {
            let _install = ctx.install();
            for _ in 0..crate::trace::MAX_TRACE_SPANS + EXTRA {
                let _sp = crate::span!("test.overflow");
            }
        }
        let json = ctx.finish().to_chrome();
        assert!(
            json.contains(&format!("\"dropped_events\":{EXTRA}")),
            "{}",
            &json[..200]
        );
        let parsed = crate::json::Json::parse(&json).expect("capped export parses");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1 + crate::trace::MAX_TRACE_SPANS);
    }

    #[test]
    fn nested_spans_export_child_before_parent_and_inside_it() {
        let _g = crate::span::test_lock();
        crate::set_mode(crate::Mode::Off);
        let ctx = crate::TraceCtx::begin(None);
        {
            let _install = ctx.install();
            let _outer = crate::span!("test.parent");
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = crate::span!("test.child");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let json = ctx.finish().to_chrome();

        let parsed = crate::json::Json::parse(&json).expect("nested export parses");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let idx = |name: &str| {
            events
                .iter()
                .position(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .unwrap_or_else(|| panic!("event {name} in export"))
        };
        let (ci, pi) = (idx("test.child"), idx("test.parent"));
        assert!(
            ci < pi,
            "spans complete innermost-first, so the child must precede its parent"
        );
        let ts = |i: usize| events[i].get("ts").unwrap().as_f64().unwrap();
        let dur = |i: usize| events[i].get("dur").unwrap().as_f64().unwrap();
        assert!(ts(pi) <= ts(ci), "parent starts before child");
        assert!(
            ts(ci) + dur(ci) <= ts(pi) + dur(pi),
            "child interval nests inside the parent interval"
        );
        // Same thread: the viewer reconstructs nesting from tid + intervals.
        assert_eq!(
            events[ci].get("tid").unwrap().as_f64(),
            events[pi].get("tid").unwrap().as_f64()
        );
    }
}
