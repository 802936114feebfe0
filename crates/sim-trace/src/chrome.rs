//! Chrome `trace_event` export: one JSON object loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Mapping: each lane *scope* becomes a process (named via `M` metadata
//! events), each lane becomes a thread within its scope. Spans export as
//! complete events (`ph: "X"`, microsecond `ts`/`dur`), instants as `ph:
//! "i"` (thread scope) and gauges as counter events (`ph: "C"`).

use crate::json::Escaped;
use crate::recorder::{EventKind, Recorder};

/// Render every retained event as a Chrome `trace_event` JSON document.
pub fn chrome_trace(rec: &Recorder) -> String {
    let lanes = rec.lanes();
    // Stable pid per scope, tid per lane (dense, in lane-table order).
    let mut scopes: Vec<&str> = Vec::new();
    let mut pid_of = Vec::with_capacity(lanes.len());
    let mut tid_of = Vec::with_capacity(lanes.len());
    for meta in &lanes {
        let pid = match scopes.iter().position(|s| *s == meta.scope) {
            Some(i) => i,
            None => {
                scopes.push(&meta.scope);
                scopes.len() - 1
            }
        };
        pid_of.push(pid + 1); // pids start at 1 (0 renders oddly)
        tid_of.push(
            lanes[..pid_of.len() - 1]
                .iter()
                .filter(|l| l.scope == meta.scope)
                .count()
                + 1,
        );
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(&line);
    };
    for (i, scope) in scopes.iter().enumerate() {
        let name = Escaped(scope);
        push(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}",
                i + 1
            ),
            &mut out,
            &mut first,
        );
    }
    for (id, meta) in lanes.iter().enumerate() {
        let name = Escaped(&meta.name);
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"{name}\"}}}}",
                pid_of[id], tid_of[id]
            ),
            &mut out,
            &mut first,
        );
    }
    for ev in rec.events() {
        let id = ev.lane as usize;
        let (pid, tid) = (pid_of[id], tid_of[id]);
        let cat = lanes[id].kind.label();
        let line = match ev.kind {
            EventKind::Span {
                name,
                chunk,
                start,
                end,
            } => {
                let n = Escaped(name);
                let args = match chunk {
                    Some(c) => format!("{{\"chunk\":{c}}}"),
                    None => "{}".to_string(),
                };
                format!(
                    "{{\"name\":\"{n}\",\"cat\":\"{cat}\",\"ph\":\"X\",\
                     \"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                    start.as_micros_f64(),
                    (end - start).as_micros_f64()
                )
            }
            EventKind::Instant { name, at } => {
                let n = Escaped(name);
                format!(
                    "{{\"name\":\"{n}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":{pid},\"tid\":{tid}}}",
                    at.as_micros_f64()
                )
            }
            EventKind::Gauge { at, value } => {
                let n = Escaped(&lanes[id].name);
                format!(
                    "{{\"name\":\"{n}\",\"cat\":\"{cat}\",\"ph\":\"C\",\
                     \"ts\":{},\"pid\":{pid},\"args\":{{\"value\":{value}}}}}",
                    at.as_micros_f64()
                )
            }
        };
        push(line, &mut out, &mut first);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::{LaneKind, Recorder};
    use sim_core::SimTime;

    #[test]
    fn export_parses_and_carries_events() {
        let r = Recorder::new();
        let pack = r.lane("rank0", "pack", LaneKind::Stage);
        let pool = r.lane("rank0", "send_pool", LaneKind::Gauge);
        pack.chunk_span(
            "pack",
            Some(0),
            SimTime::from_nanos(500),
            SimTime::from_nanos(2500),
        );
        pack.instant("retry.rts", SimTime::from_nanos(3000));
        {
            // Gauge outside a sim process: record via the low-level path.
            let _ = &pool;
        }
        let doc = chrome_trace(&r);
        let v = json::parse(&doc).expect("exported trace must be valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(json::JsonValue::as_arr)
            .expect("traceEvents array");
        // 1 process + 2 threads metadata + 1 span + 1 instant.
        assert_eq!(events.len(), 5);
        let span = events
            .iter()
            .find(|e| e.get("ph").and_then(json::JsonValue::as_str) == Some("X"))
            .expect("complete event");
        assert_eq!(
            span.get("name").and_then(json::JsonValue::as_str),
            Some("pack")
        );
        assert_eq!(span.get("ts").and_then(json::JsonValue::as_f64), Some(0.5));
        assert_eq!(span.get("dur").and_then(json::JsonValue::as_f64), Some(2.0));
    }

    #[test]
    fn names_are_escaped() {
        let r = Recorder::new();
        let lane = r.lane("scope\"x", "t\\d", LaneKind::Proto);
        lane.instant("i", SimTime::ZERO);
        let doc = chrome_trace(&r);
        assert!(json::parse(&doc).is_ok(), "escaping must keep JSON valid");
    }
}
