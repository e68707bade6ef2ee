//! Chrome-trace JSON exporter. The output is the "JSON Object Format" of
//! the Trace Event specification — an object with a `traceEvents` array of
//! complete (`"ph":"X"`) events — and loads directly in `about://tracing`
//! or <https://ui.perfetto.dev>. Timestamps and durations are microseconds
//! (since the trace began, for a [`crate::trace::TraceTree`] export), as the
//! format requires.

use crate::span::SpanEvent;

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn push_event(out: &mut String, e: &SpanEvent) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"cat\":\"autobias\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
        json_escape(e.name),
        e.tid,
        e.start_us,
        e.dur_us
    ));
    out.push_str(",\"args\":{");
    let mut first = true;
    if let Some(label) = e.label {
        out.push_str(&format!("\"label\":\"{}\"", json_escape(label)));
        first = false;
    }
    for (k, v) in &e.notes {
        if !first {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{v}", json_escape(k)));
        first = false;
    }
    out.push_str("}}");
}

/// Serializes `events` (plus a process-name metadata event) as
/// chrome-trace JSON.
pub fn export_chrome_trace(events: &[SpanEvent]) -> String {
    export_with_dropped(events, 0)
}

/// [`export_chrome_trace`] with the count of spans the source dropped (a
/// trace tree past its cap) in the metadata event's `dropped_events`.
pub(crate) fn export_with_dropped(events: &[SpanEvent], dropped: u64) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    out.push_str(&format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"autobias\",\"dropped_events\":{dropped}}}}}"
    ));
    for e in events {
        out.push(',');
        push_event(&mut out, e);
    }
    out.push_str("]}");
    out
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
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("plain"), "plain");
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
