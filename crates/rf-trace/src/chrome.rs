//! Chrome trace-event / Perfetto export and validation.
//!
//! [`chrome_trace_json`] renders a [`TraceSnapshot`] in the Chrome
//! trace-event JSON object format (`{"traceEvents": [...]}`) — loadable in
//! Perfetto (`ui.perfetto.dev`) and `chrome://tracing`. Spans become `"X"`
//! (complete) events, instants become `"i"` events, all under the one
//! `engine` process, and every distinct track gets a `thread_name` metadata
//! record so the viewer labels request and worker timelines.
//!
//! [`validate_chrome_trace`] is the inverse check used by tests and the
//! observability example: parse the JSON (own mini-parser — the
//! workspace is offline, no serde), require a non-empty `traceEvents` array,
//! sane timestamps, and that spans sharing a track nest properly instead of
//! partially overlapping.

use std::collections::HashMap;

use crate::json::{self, JsonValue};
use crate::span::{ArgValue, EventPhase, TraceEvent, TraceSnapshot, Track};

/// The Chrome `pid` of the one `engine` process every event renders under.
const ENGINE_PID: u64 = 1;

/// Renders a snapshot as Chrome trace-event JSON. Timestamps and durations
/// are exported in microseconds, as the format specifies.
pub fn chrome_trace_json(snapshot: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(snapshot.events.len() * 128 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":");
    out.push_str(&json::number(snapshot.dropped as f64));
    out.push_str("},\"traceEvents\":[");
    let mut first = true;
    let mut emit = |text: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&text);
    };
    if !snapshot.events.is_empty() {
        emit(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{ENGINE_PID},\"tid\":0,\
                 \"args\":{{\"name\":\"engine\"}}}}"
            ),
            &mut first,
        );
    }
    for (track, label) in track_labels(&snapshot.events) {
        emit(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{ENGINE_PID},\"tid\":{track},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                json::escape(&label)
            ),
            &mut first,
        );
    }
    for event in &snapshot.events {
        emit(event_json(event), &mut first);
    }
    out.push_str("]}");
    out
}

/// One label per distinct track (`tid`), in first-appearance order.
fn track_labels(events: &[TraceEvent]) -> Vec<(u64, String)> {
    let mut seen = Vec::new();
    for event in events {
        let key = event.track_id();
        if seen.iter().any(|(k, _)| *k == key) {
            continue;
        }
        let label = match event.track {
            Track::FrontDoor => "front-door".to_string(),
            Track::Worker(i) => format!("worker-{i}"),
            Track::Request(id) => format!("request-{id}"),
        };
        seen.push((key, label));
    }
    seen
}

fn event_json(event: &TraceEvent) -> String {
    let mut args = Vec::new();
    if let Some(id) = event.request {
        args.push(format!("\"request\":{id}"));
    }
    if let Some(lane) = event.lane {
        args.push(format!("\"lane\":\"{lane}\""));
    }
    if let Some(class) = event.class {
        args.push(format!("\"class\":\"{}\"", json::escape(class)));
    }
    if let Some(iteration) = event.iteration {
        args.push(format!("\"iteration\":{iteration}"));
    }
    for (key, value) in &event.args {
        let rendered = match value {
            ArgValue::U64(n) => n.to_string(),
            ArgValue::F64(f) => json::number(*f),
        };
        args.push(format!("\"{}\":{rendered}", json::escape(key)));
    }
    let phase = match event.phase {
        // "i" instants carry a scope; "t" (thread) keeps them on their track.
        EventPhase::Instant => "\"ph\":\"i\",\"s\":\"t\"".to_string(),
        EventPhase::Span => format!("\"ph\":\"X\",\"dur\":{}", json::number(event.dur_us)),
    };
    format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",{phase},\"ts\":{},\"pid\":{ENGINE_PID},\"tid\":{},\"args\":{{{}}}}}",
        json::escape(event.name),
        match event.track {
            Track::Request(_) => "request",
            Track::Worker(_) => "engine",
            Track::FrontDoor => "admission",
        },
        json::number(event.ts_us),
        event.track_id(),
        args.join(",")
    )
}

/// Summary counters returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Total events in `traceEvents` (metadata included).
    pub events: usize,
    /// `"X"` complete spans.
    pub spans: usize,
    /// `"i"` instants.
    pub instants: usize,
    /// Distinct request tracks observed.
    pub request_tracks: usize,
}

/// Checks that `text` is a well-formed Chrome trace export: it parses as
/// JSON, `traceEvents` is a non-empty array, every span has finite
/// non-negative `ts`/`dur`, and spans sharing a track nest (any two are
/// disjoint or one contains the other — a partial overlap would render as a
/// corrupt timeline).
///
/// # Errors
///
/// A description of the first violation.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = json::parse(text).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .ok_or("trace has no `traceEvents` field")?
        .as_array()
        .ok_or("`traceEvents` is not an array")?;
    if events.is_empty() {
        return Err("`traceEvents` is empty".into());
    }
    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    // Tracks are only unique within a process, so the nesting key is the
    // (pid, tid) pair.
    type TrackKey = (u64, u64);
    let mut spans_by_track: HashMap<TrackKey, Vec<(f64, f64, String)>> = HashMap::new();
    let mut request_tracks: Vec<TrackKey> = Vec::new();
    for (index, event) in events.iter().enumerate() {
        let phase = event
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {index} has no `ph`"))?;
        let name = event
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or("<unnamed>")
            .to_string();
        let pid = event.get("pid").and_then(JsonValue::as_f64).unwrap_or(1.0) as u64;
        let tid = event.get("tid").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        match phase {
            "M" => {}
            "i" | "I" => {
                stats.instants += 1;
                let ts = event
                    .get("ts")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("instant `{name}` has no numeric `ts`"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!("instant `{name}` has bad ts {ts}"));
                }
            }
            "X" => {
                stats.spans += 1;
                let ts = event
                    .get("ts")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("span `{name}` has no numeric `ts`"))?;
                let dur = event
                    .get("dur")
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("span `{name}` has no numeric `dur`"))?;
                if !ts.is_finite() || ts < 0.0 || !dur.is_finite() || dur < 0.0 {
                    return Err(format!("span `{name}` has bad ts/dur ({ts}, {dur})"));
                }
                if event.get("cat").and_then(JsonValue::as_str) == Some("request")
                    && !request_tracks.contains(&(pid, tid))
                {
                    request_tracks.push((pid, tid));
                }
                spans_by_track
                    .entry((pid, tid))
                    .or_default()
                    .push((ts, dur, name));
            }
            other => return Err(format!("event {index} has unknown phase `{other}`")),
        }
    }
    if stats.spans == 0 {
        return Err("trace contains no spans".into());
    }
    stats.request_tracks = request_tracks.len();
    // Nesting check: per track, sort by (start, -duration); each span must
    // either start after every open ancestor ends, or end within the
    // innermost open one. A small epsilon forgives f64 rendering jitter.
    const EPS: f64 = 0.01;
    for ((pid, tid), mut spans) in spans_by_track {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        let mut open: Vec<(f64, f64, String)> = Vec::new();
        for (ts, dur, name) in spans {
            while let Some(last) = open.last() {
                if ts >= last.0 + last.1 - EPS {
                    open.pop();
                } else {
                    break;
                }
            }
            if let Some((ots, odur, oname)) = open.last() {
                if ts + dur > ots + odur + EPS {
                    return Err(format!(
                        "track {pid}/{tid}: span `{name}` [{ts}, {}] partially overlaps \
                         `{oname}` [{ots}, {}]",
                        ts + dur,
                        ots + odur
                    ));
                }
            }
            open.push((ts, dur, name));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{TraceCollector, TraceConfig};

    fn sample_snapshot() -> TraceSnapshot {
        let c = TraceCollector::new(TraceConfig::full());
        c.record(
            TraceEvent::span("queue", 0.0, 10.0, Track::Request(1))
                .with_request(1)
                .with_lane("normal"),
        );
        c.record(
            TraceEvent::span("compile", 10.0, 5.0, Track::Request(1))
                .with_request(1)
                .with_class("softmax"),
        );
        c.record(
            TraceEvent::span("execute", 15.0, 3.0, Track::Request(1))
                .with_request(1)
                .with_iteration(2),
        );
        c.record(TraceEvent::instant("deliver", 18.0, Track::Request(1)).with_request(1));
        c.record(
            TraceEvent::span("iteration", 10.0, 8.0, Track::Worker(0))
                .with_iteration(2)
                .with_arg("occupancy", ArgValue::U64(4))
                .with_arg("utilisation", ArgValue::F64(0.25)),
        );
        c.record(
            TraceEvent::instant("shed", 4.0, Track::FrontDoor)
                .with_arg("in_flight", ArgValue::U64(64))
                .with_arg("budget", ArgValue::U64(64)),
        );
        c.snapshot()
    }

    #[test]
    fn export_validates_round_trip() {
        let json_text = chrome_trace_json(&sample_snapshot());
        let stats = validate_chrome_trace(&json_text).expect("export must validate");
        assert_eq!(stats.spans, 4);
        assert_eq!(stats.instants, 2);
        assert_eq!(stats.request_tracks, 1);
        // The document parses as standard JSON and carries the tracks.
        let doc = json::parse(&json_text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.len() >= 6 + 3, "payload plus thread_name metadata");
        assert_eq!(
            doc.get("otherData").unwrap().get("dropped_events"),
            Some(&JsonValue::Number(0.0))
        );
    }

    #[test]
    fn validation_rejects_garbage_and_empties() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        // Instants alone are not a usable trace.
        let only_instant =
            "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":1}]}";
        assert!(validate_chrome_trace(only_instant)
            .unwrap_err()
            .contains("no spans"));
    }

    #[test]
    fn validation_rejects_partially_overlapping_spans() {
        // [0, 10] and [5, 15] on one track: neither contains the other.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\"pid\":1,\"tid\":7},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"dur\":10,\"pid\":1,\"tid\":7}]}";
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("partially overlaps"), "got: {err}");
        // The same pair on different tracks is fine.
        let ok = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\"pid\":1,\"tid\":7},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":5,\"dur\":10,\"pid\":1,\"tid\":8}]}";
        assert!(validate_chrome_trace(ok).is_ok());
        // Proper nesting on one track is fine too.
        let nested = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":10,\"pid\":1,\"tid\":7},\
            {\"name\":\"b\",\"ph\":\"X\",\"ts\":2,\"dur\":4,\"pid\":1,\"tid\":7}]}";
        assert!(validate_chrome_trace(nested).is_ok());
    }

    #[test]
    fn validation_rejects_negative_and_nonfinite_times() {
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":-1,\"dur\":10,\"pid\":1,\"tid\":7}]}";
        assert!(validate_chrome_trace(bad).is_err());
        let bad = "{\"traceEvents\":[\
            {\"name\":\"a\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":7}]}";
        assert!(validate_chrome_trace(bad).unwrap_err().contains("dur"));
    }
}
