//! Chrome trace-event JSON export for recorded [`Span`]s.
//!
//! The output is the "JSON Array Format with metadata" flavour of the
//! trace-event spec: an object with a `traceEvents` array, loadable
//! directly into `chrome://tracing` or <https://ui.perfetto.dev>. Spans
//! with a duration (batch drains) become complete events (`"ph": "X"`);
//! everything else becomes a thread-scoped instant (`"ph": "i"`).
//!
//! Lane mapping: the whole recorder is one process (`pid` 1, named
//! `"bnb"`), and each recorder lane — one per writer thread, so engine
//! worker `i` lands in lane `i` — is a thread (`tid` = lane). Metadata
//! events name the lanes so Perfetto shows "lane 0", "lane 1", … tracks.
//!
//! Timestamps: the spec counts in *microseconds*; span clocks are
//! nanoseconds, so values are emitted with three decimal places to keep
//! full precision.
//!
//! The JSON is built by hand (the vendored serde stack has no
//! `json!`-style ad-hoc composition), which also keeps the field layout
//! byte-for-byte what the CI schema check expects.

use crate::recorder::{Span, SpanKind};

/// Human-readable event name per span kind.
fn kind_name(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Column => "column",
        SpanKind::Sweep => "sweep",
        SpanKind::Conflict => "conflict",
        SpanKind::Hop => "hop",
        SpanKind::Submit => "submit",
        SpanKind::Drain => "drain",
        SpanKind::Round => "round",
        SpanKind::Fault => "fault",
        SpanKind::Retry => "retry",
        SpanKind::Request => "request",
    }
}

/// Trace-viewer category per span kind (one lane of the category filter
/// per subsystem: core routing, engine batches, scheduler, faults).
fn kind_category(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Column | SpanKind::Sweep | SpanKind::Hop => "route",
        SpanKind::Submit | SpanKind::Drain => "engine",
        SpanKind::Round => "scheduler",
        SpanKind::Request => "serve",
        SpanKind::Conflict | SpanKind::Fault | SpanKind::Retry => "error",
    }
}

/// Nanoseconds as a microsecond decimal literal (`1234` → `1.234`).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn push_args(out: &mut String, span: &Span) {
    out.push_str(&format!(
        "{{\"seq\":{},\"a\":{},\"b\":{},\"c\":{},\"ok\":{}}}",
        span.seq, span.a, span.b, span.c, span.ok
    ));
}

/// Renders spans as Chrome trace-event JSON (see the [module docs](self)).
///
/// # Example
///
/// ```
/// use bnb_obs::{render_chrome_trace, Span, SpanKind};
///
/// let spans = [Span {
///     kind: SpanKind::Drain,
///     ts_ns: 5_000,
///     dur_ns: 2_000,
///     lane: 1,
///     seq: 3,
///     a: 64,
///     b: 0,
///     c: 0,
///     ok: true,
/// }];
/// let json = render_chrome_trace(&spans);
/// assert!(json.contains("\"ph\":\"X\""));
/// assert!(json.contains("\"dur\":2.000"));
/// ```
pub fn render_chrome_trace(spans: &[Span]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");

    // Process/thread naming metadata, one thread_name per lane in use.
    out.push_str(
        "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"bnb\"}}",
    );
    let mut lanes: Vec<u32> = spans.iter().map(|s| s.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in &lanes {
        out.push_str(&format!(
            ",\n{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"lane {lane}\"}}}}"
        ));
    }

    for span in spans {
        out.push_str(",\n{");
        out.push_str(&format!(
            "\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            kind_name(span.kind),
            kind_category(span.kind),
            span.lane,
            micros(span.ts_ns),
        ));
        if span.dur_ns > 0 {
            out.push_str(&format!(",\"ph\":\"X\",\"dur\":{}", micros(span.dur_ns)));
        } else {
            out.push_str(",\"ph\":\"i\",\"s\":\"t\"");
        }
        out.push_str(",\"args\":");
        push_args(&mut out, span);
        out.push('}');
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, ts_ns: u64, dur_ns: u64, lane: u32) -> Span {
        Span {
            kind,
            ts_ns,
            dur_ns,
            lane,
            seq: 1,
            a: 2,
            b: 3,
            c: 4,
            ok: true,
        }
    }

    /// Minimal structural check: one top-level JSON value with balanced
    /// braces/brackets outside string literals. (CI re-validates the
    /// output against the trace-event schema with a real JSON parser.)
    fn assert_balanced_json(s: &str) {
        let (mut depth, mut in_str, mut escaped) = (0i64, false, false);
        for c in s.chars() {
            if in_str {
                match (escaped, c) {
                    (true, _) => escaped = false,
                    (false, '\\') => escaped = true,
                    (false, '"') => in_str = false,
                    _ => {}
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in {s}");
                }
                _ => {}
            }
        }
        assert!(!in_str, "unterminated string in {s}");
        assert_eq!(depth, 0, "unbalanced braces in {s}");
    }

    #[test]
    fn trace_has_one_event_per_span_plus_metadata() {
        let spans = [
            span(SpanKind::Submit, 1_000, 0, 0),
            span(SpanKind::Drain, 1_500, 2_500, 1),
            span(SpanKind::Retry, 9_999, 0, 1),
        ];
        let json = render_chrome_trace(&spans);
        assert_balanced_json(&json);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        // 1 process_name + 2 lane thread_names + 3 spans.
        assert_eq!(json.matches("\"ph\":").count(), 6);
        assert_eq!(json.matches("\"pid\":1").count(), 6);
    }

    #[test]
    fn durations_become_complete_events_instants_otherwise() {
        let json = render_chrome_trace(&[
            span(SpanKind::Drain, 5_000, 2_000, 0),
            span(SpanKind::Column, 6_000, 0, 0),
        ]);
        assert!(json.contains("\"ph\":\"X\",\"dur\":2.000"));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\""));
    }

    #[test]
    fn timestamps_are_microseconds_with_ns_precision() {
        let json = render_chrome_trace(&[span(SpanKind::Round, 1_234_567, 0, 0)]);
        assert!(json.contains("\"ts\":1234.567"), "{json}");
    }

    #[test]
    fn lanes_map_to_tids_with_names() {
        let json = render_chrome_trace(&[
            span(SpanKind::Submit, 0, 0, 2),
            span(SpanKind::Drain, 1, 0, 5),
        ]);
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"name\":\"lane 2\""));
        assert!(json.contains("\"name\":\"lane 5\""));
        assert!(json.contains("\"tid\":5"));
    }

    #[test]
    fn empty_input_still_renders_valid_json() {
        let json = render_chrome_trace(&[]);
        assert_balanced_json(&json);
        assert_eq!(
            json.matches("\"ph\":").count(),
            1,
            "just the process_name metadata event"
        );
    }
}
