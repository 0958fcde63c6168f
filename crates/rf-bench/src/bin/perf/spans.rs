//! The traced run's in-memory span recorder.
//!
//! The benchmark records one span around each call into a layer — never
//! inside the crates under test — keeps them in memory, and writes them as
//! Chrome trace-event JSON when the run ends. A layer's self time is its
//! spans' duration minus the part their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call goes into (`bench` for the benchmark's own roots).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Config / family / request id; spans of one operation share it, and it
    /// is the Chrome track the span renders on.
    pub id: u64,
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or only times calls.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn ns_since_origin(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span from raw offsets (used for the request stages
    /// the engine reports in `RequestTiming`).
    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        id: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span that encloses several calls; close it with [`close`].
    ///
    /// [`close`]: Recorder::close
    pub fn open(&mut self, name: &'static str, layer: &'static str, id: u64) -> Option<SpanId> {
        let now = self.ns_since_origin(Instant::now());
        self.push(name, layer, None, id, now, now)
    }

    pub fn close(&mut self, span: Option<SpanId>) {
        if let Some(span) = span {
            self.spans[span].end_ns = self.ns_since_origin(Instant::now());
        }
    }

    /// Times `f` — in every run, traced or not, so both take the same code
    /// path — and records the span when tracing. Returns `f`'s result and
    /// its duration in nanoseconds.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        if self.enabled {
            let (start_ns, end_ns) = (self.ns_since_origin(start), self.ns_since_origin(end));
            self.push(name, layer, parent, id, start_ns, end_ns);
        }
        (result, (end - start).as_nanos() as f64)
    }

    /// Per-span self time: duration minus the union of the child intervals
    /// (clipped to the span, so overlapping or overhanging children are not
    /// subtracted twice).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let p = &self.spans[parent];
                let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
                if start < end {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for (start, end) in kids {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Each layer's share of the total root-span time that is self time of
    /// that layer's spans.
    pub fn self_share_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let self_ns = self.self_ns();
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut root_ns = 0.0;
        for (span, own) in self.spans.iter().zip(self_ns) {
            *by_layer.entry(span.layer).or_default() += own as f64;
            if span.parent.is_none() {
                root_ns += (span.end_ns - span.start_ns) as f64;
            }
        }
        for value in by_layer.values_mut() {
            *value = crate::stats::share(*value, root_ns);
        }
        by_layer
    }

    /// The spans as Chrome trace-event JSON (`ts`/`dur` in microseconds; one
    /// track per operation id, so concurrent requests do not overlap on a
    /// track).
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 160);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}",
                span.name,
                span.layer,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.id,
                index,
                parent,
                span.id
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> Recorder {
        let mut rec = Recorder::new(true);
        for &(layer, parent, start, end) in spans {
            rec.push("s", layer, parent, 0, start, end);
        }
        rec
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] > a [10,60] > b [20,30]; root also > c [70,90].
        let rec = recorder_with(&[
            ("bench", None, 0, 100),
            ("rf-a", Some(0), 10, 60),
            ("rf-b", Some(1), 20, 30),
            ("rf-c", Some(0), 70, 90),
        ]);
        assert_eq!(rec.self_ns(), vec![30, 40, 10, 20]);
        let shares = rec.self_share_by_layer();
        assert!((shares["bench"] - 0.30).abs() < 1e-12);
        assert!((shares["rf-a"] - 0.40).abs() < 1e-12);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_merges_overlapping_and_overhanging_children() {
        // Children [10,50] and [30,70] overlap (union 60); [90,130] overhangs
        // the parent's end (clipped to 10); [5,5] is empty.
        let rec = recorder_with(&[
            ("bench", None, 0, 100),
            ("x", Some(0), 10, 50),
            ("x", Some(0), 30, 70),
            ("x", Some(0), 90, 130),
            ("x", Some(0), 5, 5),
        ]);
        assert_eq!(rec.self_ns()[0], 100 - 60 - 10);
        // A child fully inside another adds nothing.
        let rec = recorder_with(&[
            ("bench", None, 0, 100),
            ("x", Some(0), 10, 90),
            ("x", Some(0), 20, 30),
        ]);
        assert_eq!(rec.self_ns()[0], 20);
    }

    #[test]
    fn disabled_recorder_times_calls_but_keeps_no_spans() {
        let mut rec = Recorder::new(false);
        let root = rec.open("op", "bench", 1);
        let (value, ns) = rec.call("f", "rf-x", root, 1, || 41 + 1);
        rec.close(root);
        assert_eq!((value, root), (42, None));
        assert!(ns >= 0.0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_export_is_a_valid_nested_trace() {
        let mut rec = Recorder::new(true);
        for id in 0..3 {
            let root = rec.open("op", "bench", id);
            rec.call("f", "rf-x", root, id, || std::hint::black_box(id * 2));
            rec.close(root);
        }
        let stats = rf_trace::validate_chrome_trace(&rec.chrome_json()).expect("valid trace");
        assert_eq!(stats.spans, 6);
        let roots: Vec<_> = rec.spans().iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 3);
        let child = &rec.spans()[1];
        let parent = &rec.spans()[child.parent.unwrap()];
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
    }
}
