//! Cold-path trace rendering: JSONL and Chrome `trace_event` JSON.
//!
//! Nothing here runs while the simulation is executing — rendering
//! happens after a run, over records a tracer retained. This is the only
//! module of the crate where string formatting is allowed (the
//! `trace-determinism` tidy lint forbids it everywhere else).

use serde::value::Value;
use serde::Serialize;

use crate::event::TraceRecord;

/// Renders records as JSONL: one serialized [`TraceRecord`] per line,
/// in emission order, with a trailing newline after the last record
/// (empty string for an empty stream).
///
/// Member order follows struct/variant declaration order, so the same
/// record stream always renders to the same bytes — the property the
/// golden-trace suite pins down.
pub fn render_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for record in records {
        match serde_json::to_string(record) {
            Ok(line) => {
                out.push_str(&line);
                out.push('\n');
            }
            Err(_) => {
                // The shim serializer is total over shim-derived
                // values; treat a failure as a skipped record rather
                // than aborting the export.
            }
        }
    }
    out
}

/// Parses one JSONL document back into records, skipping blank lines.
///
/// # Errors
///
/// Returns the underlying parse error message for the first malformed
/// line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: TraceRecord =
            serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        records.push(record);
    }
    Ok(records)
}

/// Adapter: the shim's `Value` is not itself `Serialize`, so wrap it
/// to hand pre-built subtrees back to the renderer.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Variant name and payload of an externally-tagged enum value.
fn variant_of(v: &Value) -> (&str, Option<&Value>) {
    match v {
        Value::String(name) => (name.as_str(), None),
        Value::Object(members) => members
            .first()
            .map(|(k, payload)| (k.as_str(), Some(payload)))
            .unwrap_or(("?", None)),
        _ => ("?", None),
    }
}

/// Renders records in Chrome's `trace_event` JSON format, loadable in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Kernel begin/end pairs become duration (`B`/`E`) events; everything
/// else becomes an instant (`i`) event carrying its payload as `args`.
/// Timestamps are virtual microseconds (the format's native unit).
pub fn render_chrome_trace(records: &[TraceRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for record in records {
        let value = record.event.to_value();
        let (name, payload) = variant_of(&value);
        let (ph, shown_name) = match name {
            "KernelBegin" => {
                let kname = payload
                    .and_then(|p| p.get("name"))
                    .and_then(|n| match n {
                        Value::String(s) => Some(s.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| "kernel".to_string());
                ("B", kname)
            }
            "KernelEnd" => ("E", "kernel".to_string()),
            other => ("i", other.to_string()),
        };
        if !first {
            out.push(',');
        }
        first = false;
        // ts is microseconds; keep nanosecond precision as a fraction.
        let us = record.t / 1000;
        let frac = record.t % 1000;
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"{ph}\",\"ts\":{us}.{frac:03},\"pid\":1,\"tid\":1",
            json_string(&shown_name)
        ));
        if ph == "i" {
            out.push_str(",\"s\":\"t\"");
        }
        if let Some(p) = payload {
            if let Ok(args) = serde_json::to_string(&Raw(p.clone())) {
                out.push_str(",\"args\":");
                out.push_str(&args);
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Minimal JSON string escaping for kernel/event names.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn sample() -> Vec<TraceRecord> {
        vec![
            TraceRecord {
                t: 1500,
                event: TraceEvent::KernelBegin {
                    seq: 0,
                    name: "conv\"1\"".to_string(),
                },
            },
            TraceRecord {
                t: 2000,
                event: TraceEvent::PageMigration {
                    block: 7,
                    pages: 32,
                    prefetch: false,
                    bytes: 1 << 17,
                },
            },
            TraceRecord {
                t: 2500,
                event: TraceEvent::KernelEnd {
                    seq: 0,
                    faults: 1,
                    stall_ns: 500,
                },
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_and_is_stable() {
        let records = sample();
        let a = render_jsonl(&records);
        let b = render_jsonl(&records);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 3);
        let back = parse_jsonl(&a).expect("parses");
        assert_eq!(back, records);
    }

    #[test]
    fn parse_rejects_garbage_with_line_number() {
        let err = parse_jsonl("{\"t\":1,\"event\":\"TlbStall\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line"), "{err}");
    }

    #[test]
    fn chrome_trace_has_duration_pair_and_instants() {
        let json = render_chrome_trace(&sample());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("conv\\\"1\\\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn empty_stream_renders_empty_documents() {
        assert_eq!(render_jsonl(&[]), "");
        assert_eq!(render_chrome_trace(&[]), "{\"traceEvents\":[]}");
        assert!(parse_jsonl("").unwrap().is_empty());
    }
}
