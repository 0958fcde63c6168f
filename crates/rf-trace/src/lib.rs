//! `rf-trace`: lightweight tracing and telemetry for the RedFuser serving
//! stack.
//!
//! The serving engine (`rf-runtime`) answers *what* it served through
//! `RuntimeMetrics`; this crate answers *where the time went*:
//!
//! * [`TraceCollector`] — a bounded, lock-minimal ring buffer of
//!   [`TraceEvent`] spans covering each request's lifecycle
//!   (`submit → queue → compile|hit → execute → deliver`) plus engine-level
//!   events (iteration boundaries with occupancy, shed decisions). Zero-cost
//!   when disabled: below [`TraceLevel::Full`] recording is a single branch.
//! * [`LogHistogram`] — HDR-style log-bucketed histograms giving
//!   lifetime-accurate p50/p99/p999 per pipeline [`Stage`], per lane and per
//!   workload class, in fixed memory.
//! * [`chrome_trace_json`] / [`TraceSnapshot::chrome_trace`] — a Chrome
//!   trace-event / Perfetto-compatible JSON exporter, with
//!   [`validate_chrome_trace`] as the matching well-formedness check used by
//!   tests and CI (the workspace is offline, so the crate carries its own
//!   minimal JSON reader, [`json::parse`]).
//! * [`OpProfiler`] — op-level aggregation of tile-VM interpreter samples
//!   per `(class, region, op)`, exportable as folded-stack text for
//!   `inferno`-style flamegraph tools ([`validate_folded`] checks the
//!   format).
//!
//! Nothing here keeps windows over time: a rate over an interval is the
//! difference of two readings of the runtime's lifetime counters.
//!
//! The crate is dependency-free and knows nothing about the engine; the
//! runtime re-exports it as `redfuser::trace` and threads the collector
//! through its hot path.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod hist;
pub mod json;
pub mod profile;
pub mod span;

pub use chrome::{chrome_trace_json, validate_chrome_trace, TraceStats};
pub use hist::{quantile_sorted, HistogramSnapshot, LogHistogram, SUB_BUCKETS};
pub use profile::{validate_folded, OpProfileEntry, OpProfileSnapshot, OpProfiler, OpSample};
pub use span::{
    ArgValue, EventPhase, TraceCollector, TraceConfig, TraceEvent, TraceLevel, TraceSnapshot,
    Track, REQUEST_TRACK_BASE,
};

/// The instrumented stages of the serving pipeline, in lifecycle order.
/// Stage names double as span names in exported traces and as label values
/// in the Prometheus exposition, so a dashboard and a Perfetto timeline
/// agree on vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Submission accepted → the iteration that served it formed. Span name
    /// `"queue"`.
    Queue,
    /// Plan acquisition on a cache miss: compile + auto-tune. Span name
    /// `"compile"` (a cache hit records the `"hit"` span instead and
    /// contributes no `compile` sample).
    Compile,
    /// This request's own execution → its result delivered (the batch-mates
    /// served before it are not in it). Span name `"execute"`.
    Execute,
    /// Submission accepted → result delivered, end to end.
    EndToEnd,
}

/// Number of instrumented stages.
pub const STAGES: usize = 4;

impl Stage {
    /// All stages in lifecycle order — index order matches
    /// [`Stage::index`].
    pub const ALL: [Stage; STAGES] = [
        Stage::Queue,
        Stage::Compile,
        Stage::Execute,
        Stage::EndToEnd,
    ];

    /// The stage's dense index, for stage-indexed arrays.
    pub fn index(self) -> usize {
        match self {
            Stage::Queue => 0,
            Stage::Compile => 1,
            Stage::Execute => 2,
            Stage::EndToEnd => 3,
        }
    }

    /// The stage's name — also the span name in exported traces.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Compile => "compile",
            Stage::Execute => "execute",
            Stage::EndToEnd => "e2e",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_ordered() {
        for (expected, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), expected);
        }
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["queue", "compile", "execute", "e2e"]);
    }
}
