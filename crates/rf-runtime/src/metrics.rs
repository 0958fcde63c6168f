//! Serving metrics: request/batch counters, simulated latency percentiles,
//! queue depth and cache effectiveness, rendered as a Prometheus-style
//! exposition.
//!
//! Two latency families coexist here, one statistic under both — the
//! mergeable, lifetime-accurate [`LogHistogram`]:
//!
//! * **Simulated** latencies from the analytical GPU model (`rf-gpusim`) —
//!   the quantity the paper's evaluation reasons about. One histogram
//!   engine-wide and one per workload class, recorded at every
//!   [`TraceLevel`] ([`MetricsSnapshot::lifetime`],
//!   [`ClassSnapshot::lifetime`]): a batch is one
//!   [`LogHistogram::record_n`] into each.
//! * **Wall-clock** per-stage times measured by the engine
//!   ([`crate::RequestTiming`]): queue wait, compile, execute and
//!   end-to-end, recorded at [`TraceLevel::Histograms`] and above into
//!   per-[`Stage`] and per-lane histograms so a long run can attribute its
//!   served latency to pipeline stages.
//!
//! Every number is a lifetime total. A rate over an interval — throughput,
//! shed rate, batch occupancy, busy fraction — is the difference of two
//! snapshots' counters (`rate()` to a scraper). The exposition is the one
//! text rendering of a [`MetricsSnapshot`], from one table of metric
//! families ([`metric_reference`] prints it) that exports every number the
//! snapshot holds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Duration;

use rf_trace::{HistogramSnapshot, LogHistogram, Stage, TraceConfig, TraceLevel, STAGES};

use crate::cache::CacheStats;
use crate::submit::{Priority, RequestTiming, LANES};

/// Accumulators for one [`rf_codegen::Workload::class`]: request/batch
/// counters, plan-cache effectiveness, simulated busy time and the class's
/// lifetime simulated-latency histogram. The engine-wide batch count, mean
/// batch size and busy time are sums over the classes.
#[derive(Debug, Default)]
struct ClassTrack {
    completed: u64,
    failed: u64,
    batches: u64,
    cache_hits: u64,
    /// Simulated device-busy time in nanoseconds: each executed batch's
    /// latency counted once (the histogram weights it by batch size).
    busy_ns: u64,
    lifetime: LogHistogram,
}

/// Per-priority-lane accumulators.
#[derive(Debug, Default)]
struct LaneTrack {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    /// Lifetime end-to-end wall-clock histogram (populated at
    /// [`TraceLevel::Histograms`] and above).
    wall: LogHistogram,
}

/// Thread-safe metric accumulators, owned by the engine and updated by the
/// worker pool.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    /// How much telemetry to record (the wall-clock histograms are skipped
    /// at [`TraceLevel::Off`]).
    level: TraceLevel,
    /// Wall-clock per-stage histograms, indexed by [`Stage::index`].
    stage_walls: [LogHistogram; STAGES],
    /// Lifetime simulated per-request latency (all classes), recorded at
    /// every level.
    lifetime: LogHistogram,
    /// Last retry hint attached to a shed, as `f64::to_bits` microseconds.
    shed_retry_last_bits: AtomicU64,
    /// Sum of shed retry hints, in integer microseconds (mean = sum/shed).
    shed_retry_sum_us: AtomicU64,
    /// Submissions shed by admission control (`RuntimeError::Overloaded`).
    shed: AtomicU64,
    /// Per-priority-lane traffic, indexed by [`Priority::lane`].
    lanes: [LaneTrack; LANES],
    /// Per-workload-class accumulators, keyed (and so sorted) by
    /// `Workload::class()`.
    classes: Mutex<BTreeMap<&'static str, ClassTrack>>,
    /// Whole graphs served end-to-end via graph submissions.
    graphs_served: AtomicU64,
    /// Graph ops executed inside fused regions, over all served graphs.
    graph_fused_ops: AtomicU64,
    /// Graph ops executed unfused as glue, over all served graphs.
    graph_glue_ops: AtomicU64,
    /// Fused-region plan lookups issued by graph serving.
    region_lookups: AtomicU64,
    /// Fused-region plan lookups served from the plan cache.
    region_hits: AtomicU64,
}

/// A point-in-time view of one workload class's serving health.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSnapshot {
    /// The workload class name (e.g. `"softmax"`, `"mha"`).
    pub class: &'static str,
    /// Requests of this class fully executed.
    pub completed: u64,
    /// Requests of this class whose execution failed (the ticket received an
    /// error instead of a result).
    pub failed: u64,
    /// Batches of this class executed.
    pub batches: u64,
    /// Batches of this class served from an already-compiled plan.
    pub cache_hits: u64,
    /// The class's simulated request latency over the whole run: count,
    /// sum, p50/p99/p999 and maximum, in µs. Recorded at every level.
    pub lifetime: HistogramSnapshot,
}

/// A point-in-time view of one priority lane's traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneSnapshot {
    /// The lane name (`"high"`, `"normal"`, `"low"`).
    pub lane: &'static str,
    /// Submissions accepted onto this lane.
    pub submitted: u64,
    /// Submissions from this lane fully served.
    pub completed: u64,
    /// Submissions from this lane delivered an execution error.
    pub failed: u64,
    /// Submissions to this lane shed by admission control.
    pub shed: u64,
    /// Lifetime end-to-end wall-clock histogram summary for this lane.
    /// All-zero at [`TraceLevel::Off`].
    pub wall: HistogramSnapshot,
}

impl LaneSnapshot {
    /// Fraction of this lane's arrivals shed by admission control, in
    /// `[0, 1]` (sheds never count as submitted, so arrivals are
    /// `submitted + shed`).
    pub fn shed_rate(&self) -> f64 {
        ratio(self.shed as f64, self.submitted + self.shed)
    }
}

/// A point-in-time wall-clock summary of one pipeline [`Stage`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSnapshot {
    /// The stage name (also the span name in exported traces).
    pub stage: &'static str,
    /// Lifetime histogram summary of the stage's wall time.
    pub wall: HistogramSnapshot,
}

/// A point-in-time view of the runtime's health.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Requests fully executed: the sum over [`MetricsSnapshot::lanes`],
    /// counted before the request's ticket is delivered.
    pub completed: u64,
    /// Requests whose execution failed (delivered an error, not a result),
    /// summed and counted the same way.
    pub failed: u64,
    /// Submissions shed by admission control with
    /// [`crate::RuntimeError::Overloaded`] — never accepted, so disjoint
    /// from `submitted`.
    pub shed: u64,
    /// Per-priority-lane traffic, highest lane first.
    pub lanes: Vec<LaneSnapshot>,
    /// Batches executed.
    pub batches: u64,
    /// Requests waiting or executing right now.
    pub queue_depth: usize,
    /// Mean batch size over all executed batches.
    pub mean_batch_size: f64,
    /// Total simulated device-busy time in microseconds: each executed
    /// batch's simulated latency counted once, regardless of batch size
    /// (accumulated in whole nanoseconds). Served requests over `busy_us` is
    /// the simulated-time throughput; its change over a host-clock interval
    /// is the device's simulated busy fraction in it.
    pub busy_us: f64,
    /// The telemetry level the engine ran with.
    pub trace_level: TraceLevel,
    /// Simulated request latency over the whole run: count, sum,
    /// p50/p99/p999 (bucket-quantised, ≤ 1/16 relative) and maximum, in µs.
    /// Recorded at every level.
    pub lifetime: HistogramSnapshot,
    /// Wall-clock per-stage breakdown in lifecycle order (queue, compile,
    /// execute, e2e). Counts are zero at [`TraceLevel::Off`].
    pub stages: Vec<StageSnapshot>,
    /// The retry hint attached to the most recent shed, in microseconds
    /// (0 when nothing was shed).
    pub shed_retry_last_us: f64,
    /// Sum of the retry hints over all sheds, in whole microseconds (each
    /// hint truncated); the mean hint is this over `shed`.
    pub shed_retry_sum_us: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Per-workload-class breakdown (requests, latency percentiles, cache
    /// effectiveness), sorted by class name.
    pub classes: Vec<ClassSnapshot>,
    /// Whole graphs served end-to-end (graph submissions).
    pub graphs_served: u64,
    /// Graph ops executed inside fused regions, over all served graphs.
    pub graph_fused_ops: u64,
    /// Graph ops executed unfused as glue, over all served graphs.
    pub graph_glue_ops: u64,
    /// Fused-region plan lookups issued by graph serving.
    pub region_lookups: u64,
    /// Fused-region plan lookups served from the plan cache.
    pub region_hits: u64,
}

/// `numerator / denominator`, `0.0` while nothing has been counted.
fn ratio(numerator: f64, denominator: u64) -> f64 {
    match denominator {
        0 => 0.0,
        n => numerator / n as f64,
    }
}

impl RuntimeMetrics {
    /// Creates zeroed metrics recording at `config`'s trace level.
    pub fn with_trace(config: TraceConfig) -> Self {
        RuntimeMetrics {
            level: config.level,
            ..Self::default()
        }
    }

    /// Records one accepted submission on `priority`'s lane.
    pub fn record_submit(&self, priority: Priority) {
        self.lanes[priority.lane()].submitted.fetch_add(1, Relaxed);
    }

    /// Rolls back one [`RuntimeMetrics::record_submit`] whose submission was
    /// rejected after counting (scheduler shutdown race or admission shed).
    pub fn cancel_submit(&self, priority: Priority) {
        self.lanes[priority.lane()].submitted.fetch_sub(1, Relaxed);
    }

    /// Records one submission shed by admission control, together with the
    /// retry hint the caller was given (surfaced as the last hint and the
    /// sum of hints in [`MetricsSnapshot`] so operators can see what backoff
    /// the engine is asking for).
    pub fn record_shed(&self, priority: Priority, retry_hint: Duration) {
        self.shed.fetch_add(1, Relaxed);
        self.lanes[priority.lane()].shed.fetch_add(1, Relaxed);
        let hint_us = retry_hint.as_secs_f64() * 1e6;
        self.shed_retry_last_bits.store(hint_us.to_bits(), Relaxed);
        self.shed_retry_sum_us.fetch_add(hint_us as u64, Relaxed);
    }

    /// Records `failed` submissions from `priority`'s lane delivered an
    /// execution error — the per-request counterpart of the class-level
    /// failure count in [`RuntimeMetrics::record_batch`], keeping
    /// `submitted == completed + failed` exact per lane once the queue
    /// drains. The engine-wide `failed` total is the sum over the lanes. Call
    /// it before the ticket is fulfilled: a client that has its result must
    /// find it counted.
    pub fn record_failed(&self, priority: Priority, failed: usize) {
        self.lanes[priority.lane()]
            .failed
            .fetch_add(failed as u64, Relaxed);
    }

    /// Records one served request's wall-clock stage breakdown into the
    /// per-stage and per-lane histograms. No-op at [`TraceLevel::Off`]. A
    /// zero `compile_us` (plan-cache hit) contributes no compile sample, so
    /// that histogram describes misses only.
    pub fn record_timing(&self, priority: Priority, timing: &RequestTiming) {
        if !self.level.histograms_enabled() {
            return;
        }
        self.stage_walls[Stage::Queue.index()].record_us(timing.queue_us);
        if timing.compile_us > 0.0 {
            self.stage_walls[Stage::Compile.index()].record_us(timing.compile_us);
        }
        self.stage_walls[Stage::Execute.index()].record_us(timing.execute_us);
        self.stage_walls[Stage::EndToEnd.index()].record_us(timing.total_us);
        self.lanes[priority.lane()].wall.record_us(timing.total_us);
    }

    /// Records `served` submissions from `priority`'s lane fully served; the
    /// engine-wide `completed` total is the sum over the lanes, class and
    /// batch counters come from [`RuntimeMetrics::record_batch`], which runs
    /// once per batch. Call it before the ticket is fulfilled: a client that
    /// has its result must find it counted.
    pub fn record_served(&self, priority: Priority, served: usize) {
        self.lanes[priority.lane()]
            .completed
            .fetch_add(served as u64, Relaxed);
    }

    /// Records one batch of workload class `class`: `executed` requests were
    /// served successfully (each experiencing the batch's simulated latency
    /// `latency_us`) and `failed` requests were delivered an execution error.
    /// `cache_hit` says whether the batch's plan came from the cache. The
    /// engine-wide `completed` / `failed` totals do not come from here: they
    /// are the lanes' counters, which advance per request in
    /// [`RuntimeMetrics::record_served`] / [`RuntimeMetrics::record_failed`]
    /// before each ticket is delivered, while a batch is recorded once its
    /// last request is.
    ///
    /// Failed requests are never counted as completed and contribute no
    /// latency samples. Non-finite latencies (an infeasible kernel's infinite
    /// estimate) still count their requests as completed but are excluded
    /// from the latency distributions and the busy time — a single infinite
    /// sample would otherwise poison the lifetime sum forever.
    pub fn record_batch(
        &self,
        class: &'static str,
        executed: usize,
        failed: usize,
        latency_us: f64,
        cache_hit: bool,
    ) {
        let (executed, failed) = (executed as u64, failed as u64);
        {
            let mut classes = self.classes.lock().expect("metrics lock poisoned");
            let track = classes.entry(class).or_default();
            track.completed += executed;
            track.failed += failed;
            track.batches += 1;
            track.cache_hits += u64::from(cache_hit);
            if latency_us.is_finite() {
                // `as` saturates: a negative estimate adds no busy time.
                track.busy_ns += (latency_us * 1000.0).round() as u64;
            }
            track.lifetime.record_n(latency_us, executed);
        }
        self.lifetime.record_n(latency_us, executed);
    }

    /// Records one graph served end-to-end: `fused_ops` graph ops were
    /// covered by fused regions, `glue_ops` executed unfused, and of the
    /// `region_lookups` per-region plan-cache lookups `region_hits` found an
    /// already-compiled plan.
    pub fn record_graph(
        &self,
        fused_ops: usize,
        glue_ops: usize,
        region_hits: usize,
        region_lookups: usize,
    ) {
        self.graphs_served.fetch_add(1, Relaxed);
        self.graph_fused_ops.fetch_add(fused_ops as u64, Relaxed);
        self.graph_glue_ops.fetch_add(glue_ops as u64, Relaxed);
        self.region_hits.fetch_add(region_hits as u64, Relaxed);
        self.region_lookups
            .fetch_add(region_lookups as u64, Relaxed);
    }

    /// Builds a snapshot; the caller supplies the current queue depth and the
    /// plan-cache counters (owned by the engine).
    pub fn snapshot(&self, queue_depth: usize, cache: CacheStats) -> MetricsSnapshot {
        let (classes, busy_ns): (Vec<ClassSnapshot>, u64) = {
            let tracks = self.classes.lock().expect("metrics lock poisoned");
            let classes = tracks.iter().map(|(&class, track)| ClassSnapshot {
                class,
                completed: track.completed,
                failed: track.failed,
                batches: track.batches,
                cache_hits: track.cache_hits,
                lifetime: track.lifetime.snapshot(),
            });
            (classes.collect(), tracks.values().map(|t| t.busy_ns).sum())
        };
        let batches = classes.iter().map(|c| c.batches).sum();
        let batched: u64 = classes.iter().map(|c| c.completed + c.failed).sum();
        let lanes: Vec<LaneSnapshot> = Priority::ALL
            .iter()
            .map(|priority| {
                let track = &self.lanes[priority.lane()];
                // Outcomes before submissions: a request is counted as
                // submitted before it can complete, so read in this order a
                // lane never shows more outcomes than submissions.
                let completed = track.completed.load(Relaxed);
                let failed = track.failed.load(Relaxed);
                LaneSnapshot {
                    lane: priority.name(),
                    submitted: track.submitted.load(Relaxed),
                    completed,
                    failed,
                    shed: track.shed.load(Relaxed),
                    wall: track.wall.snapshot(),
                }
            })
            .collect();
        let stages = Stage::ALL
            .iter()
            .map(|stage| StageSnapshot {
                stage: stage.name(),
                wall: self.stage_walls[stage.index()].snapshot(),
            })
            .collect();
        MetricsSnapshot {
            // Derived from the lanes like `completed` and `failed`: a shed
            // submission is counted and then rolled back (`cancel_submit`),
            // so the counters are not monotonic and no read order keeps a
            // separately read global figure at or above the lane sum.
            submitted: lanes.iter().map(|lane| lane.submitted).sum(),
            completed: lanes.iter().map(|lane| lane.completed).sum(),
            failed: lanes.iter().map(|lane| lane.failed).sum(),
            shed: self.shed.load(Relaxed),
            lanes,
            batches,
            queue_depth,
            mean_batch_size: ratio(batched as f64, batches),
            busy_us: busy_ns as f64 / 1000.0,
            trace_level: self.level,
            lifetime: self.lifetime.snapshot(),
            stages,
            shed_retry_last_us: f64::from_bits(self.shed_retry_last_bits.load(Relaxed)),
            shed_retry_sum_us: self.shed_retry_sum_us.load(Relaxed),
            cache,
            classes,
            graphs_served: self.graphs_served.load(Relaxed),
            graph_fused_ops: self.graph_fused_ops.load(Relaxed),
            graph_glue_ops: self.graph_glue_ops.load(Relaxed),
            region_lookups: self.region_lookups.load(Relaxed),
            region_hits: self.region_hits.load(Relaxed),
        }
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus plain-text exposition format
    /// (counters for traffic, gauges for instantaneous state, summaries with
    /// `quantile` labels from the lifetime histograms). The string is
    /// scrape-ready: serve it verbatim under a `/metrics` endpoint.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        for family in FAMILIES {
            let (name, kind, help) = (family.name, family.kind, family.help);
            let mut described = false;
            (family.samples)(self, &mut |suffix, labels, value| {
                if !described {
                    described = true;
                    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
                }
                let _ = match labels {
                    "" => writeln!(out, "{name}{suffix} {value}"),
                    labels => writeln!(out, "{name}{suffix}{{{labels}}} {value}"),
                };
            });
        }
        out
    }
}

/// The exposition's metric reference as a markdown table, one row per
/// family in exposition order: name, kind, the clock its value is on
/// (`sim` = simulated GPU time from the `rf-gpusim` model, `host` = wall
/// time of this process, `-` = a count), unit and help text. README embeds
/// it; a test keeps the two equal.
pub fn metric_reference() -> String {
    let mut out = String::from("| family | kind | clock | unit | help |\n|---|---|---|---|---|\n");
    for f in FAMILIES {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | {} |\n",
            f.name, f.kind, f.clock, f.unit, f.help
        ));
    }
    out
}

/// Receives one exposition line of the family being sampled: a name suffix
/// (`""`, `"_sum"`, `"_count"`), `key="value"` labels (possibly empty) and
/// the value — Prometheus values are float64, and `f64` prints an integral
/// count without a fraction.
type Emit<'a> = dyn FnMut(&str, &str, f64) + 'a;

/// One exported metric family, declared once: the HELP/TYPE header, the
/// README reference row and the samples all come from here. A family that
/// yields no sample (no class served yet) prints nothing.
struct Family {
    name: &'static str,
    kind: &'static str,
    clock: &'static str,
    unit: &'static str,
    help: &'static str,
    samples: fn(&MetricsSnapshot, &mut Emit),
}

/// One row of a family table: `kind "name" [clock, unit] help => samples`.
macro_rules! family {
    ($kind:ident $name:literal [$clock:literal, $unit:literal] $help:literal => $samples:expr) => {
        Family {
            name: $name,
            kind: stringify!($kind),
            clock: $clock,
            unit: $unit,
            help: $help,
            samples: $samples,
        }
    };
}

/// Two label lists as one.
fn join(a: &str, b: &str) -> String {
    let comma = if a.is_empty() || b.is_empty() {
        ""
    } else {
        ","
    };
    format!("{a}{comma}{b}")
}

fn label(key: &str, value: &str) -> String {
    format!("{key}=\"{value}\"")
}

/// A histogram as a Prometheus summary: its quantiles, `_sum` and `_count`.
fn summary(emit: &mut Emit, labels: &str, hist: &HistogramSnapshot) {
    for (q, v) in [
        ("0.5", hist.p50_us),
        ("0.99", hist.p99_us),
        ("0.999", hist.p999_us),
    ] {
        emit("", &join(labels, &label("quantile", q)), v);
    }
    emit("_sum", labels, hist.sum_us);
    emit("_count", labels, hist.count as f64);
}

/// Counts under one more label: `key="name"` for each `(name, count)`.
fn split(emit: &mut Emit, labels: &str, key: &str, counts: &[(&str, u64)]) {
    for &(name, value) in counts {
        emit("", &join(labels, &label(key, name)), value as f64);
    }
}

/// One ledger's requests by outcome.
fn outcomes(emit: &mut Emit, labels: &str, [submitted, completed, failed, shed]: [u64; 4]) {
    let counts = [
        ("submitted", submitted),
        ("completed", completed),
        ("failed", failed),
        ("shed", shed),
    ];
    split(emit, labels, "outcome", &counts);
}

/// The exported families, in exposition order.
const FAMILIES: &[Family] = &[
    family!(counter "redfuser_requests_total" ["-", "requests"]
        "Request traffic by outcome (submitted/completed/failed/shed)."
        => |m, emit| outcomes(emit, "", [m.submitted, m.completed, m.failed, m.shed])),
    family!(counter "redfuser_batches_total" ["-", "batches"]
        "Engine iterations that executed a batch."
        => |m, emit| emit("", "", m.batches as f64)),
    family!(counter "redfuser_sim_busy_us_total" ["sim", "us"]
        "Simulated device-busy time, each executed batch's latency counted once, microseconds."
        => |m, emit| emit("", "", m.busy_us)),
    family!(gauge "redfuser_queue_depth" ["-", "requests"]
        "Submissions queued or executing right now."
        => |m, emit| emit("", "", m.queue_depth as f64)),
    family!(gauge "redfuser_mean_batch_size" ["-", "requests/batch"]
        "Mean requests per executed batch over the engine lifetime."
        => |m, emit| emit("", "", m.mean_batch_size)),
    family!(counter "redfuser_plan_cache_total" ["-", "events"]
    "Plan-cache lookups by result."
    => |m, emit| {
        let c = &m.cache;
        let counts = [("hit", c.hits), ("miss", c.misses), ("eviction", c.evictions)];
        split(emit, "", "result", &counts);
    }),
    family!(gauge "redfuser_plan_cache_entries" ["-", "plans"]
        "Compiled plans held by the plan cache right now."
        => |m, emit| emit("", "", m.cache.entries as f64)),
    family!(gauge "redfuser_shed_retry_hint_us" ["host", "us"]
        "Retry hint attached to the most recent shed, microseconds."
        => |m, emit| emit("", "", m.shed_retry_last_us)),
    family!(counter "redfuser_shed_retry_hint_us_total" ["host", "us"]
        "Sum of the retry hints attached to sheds, whole microseconds; over the shed count it is the mean hint."
        => |m, emit| emit("", "", m.shed_retry_sum_us as f64)),
    family!(summary "redfuser_sim_latency_us" ["sim", "us"]
        "Lifetime simulated request latency, microseconds."
        => |m, emit| summary(emit, "", &m.lifetime)),
    family!(summary "redfuser_stage_wall_us" ["host", "us"]
    "Wall-clock time per pipeline stage, microseconds."
    => |m, emit| {
        for s in &m.stages {
            summary(emit, &label("stage", s.stage), &s.wall);
        }
    }),
    family!(counter "redfuser_lane_requests_total" ["-", "requests"]
    "Per-priority-lane traffic by outcome."
    => |m, emit| {
        for l in &m.lanes {
            let counts = [l.submitted, l.completed, l.failed, l.shed];
            outcomes(emit, &label("lane", l.lane), counts);
        }
    }),
    family!(summary "redfuser_lane_wall_us" ["host", "us"]
    "Per-lane end-to-end wall-clock latency, microseconds."
    => |m, emit| {
        for l in &m.lanes {
            summary(emit, &label("lane", l.lane), &l.wall);
        }
    }),
    family!(counter "redfuser_class_requests_total" ["-", "requests"]
    "Per-workload-class requests executed, by outcome (completed/failed)."
    => |m, emit| {
        for c in &m.classes {
            let counts = [("completed", c.completed), ("failed", c.failed)];
            split(emit, &label("class", c.class), "outcome", &counts);
        }
    }),
    family!(counter "redfuser_class_batches_total" ["-", "batches"]
    "Per-workload-class batches executed, by whether the plan came from the plan cache."
    => |m, emit| {
        for c in &m.classes {
            let counts = [("hit", c.cache_hits), ("miss", c.batches - c.cache_hits)];
            split(emit, &label("class", c.class), "plan", &counts);
        }
    }),
    family!(summary "redfuser_class_sim_latency_us" ["sim", "us"]
    "Per-workload-class lifetime simulated latency, microseconds."
    => |m, emit| {
        for c in &m.classes {
            summary(emit, &label("class", c.class), &c.lifetime);
        }
    }),
    family!(counter "redfuser_graphs_total" ["-", "graphs"]
        "Whole graphs served end-to-end through graph submissions."
        => |m, emit| emit("", "", m.graphs_served as f64)),
    family!(counter "redfuser_graph_ops_total" ["-", "ops"]
    "Ops of the served graphs, by whether a fused region or unfused glue executed them."
    => |m, emit| {
        let counts = [("fused", m.graph_fused_ops), ("glue", m.graph_glue_ops)];
        split(emit, "", "kind", &counts);
    }),
    family!(counter "redfuser_region_plan_cache_total" ["-", "lookups"]
    "Fused-region plan lookups of graph serving, by result."
    => |m, emit| {
        // Two separately read atomics: mid-flight, hits can lead lookups.
        let misses = m.region_lookups.saturating_sub(m.region_hits);
        split(emit, "", "result", &[("hit", m.region_hits), ("miss", misses)]);
    }),
];

#[cfg(test)]
impl MetricsSnapshot {
    /// Asserts that the exposition carries `line` exactly.
    pub(crate) fn assert_exported(&self, line: &str) {
        let text = self.prometheus();
        assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_cache_stats() -> CacheStats {
        CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            entries: 0,
        }
    }

    /// A ledger at the default level, [`TraceLevel::Histograms`].
    fn ledger() -> RuntimeMetrics {
        RuntimeMetrics::with_trace(TraceConfig::default())
    }

    /// A histogram quantile is its bucket's midpoint: within one bucket
    /// width (1/16 relative) of the sample it stands for.
    fn within_a_bucket(actual: f64, exact: f64) -> bool {
        (actual - exact).abs() <= exact / rf_trace::SUB_BUCKETS as f64
    }

    #[test]
    fn non_finite_samples_do_not_panic_the_metrics_path() {
        // Regression: sorting with `partial_cmp(...).expect(...)` panicked the
        // metrics path as soon as an infeasible kernel's infinite (or NaN)
        // latency reached a sample. A non-finite estimate still counts its
        // requests as completed and contributes no sample, at either level.
        for config in [TraceConfig::default(), TraceConfig::off()] {
            let metrics = RuntimeMetrics::with_trace(config);
            metrics.record_batch("softmax", 2, 0, 10.0, false);
            metrics.record_batch("softmax", 1, 0, f64::INFINITY, true);
            metrics.record_batch("softmax", 1, 0, f64::NAN, true);
            metrics.record_batch("softmax", 1, 0, f64::NEG_INFINITY, true);
            metrics.record_served(Priority::Normal, 5);
            let snap = metrics.snapshot(0, empty_cache_stats());
            assert_eq!(snap.completed, 5);
            assert_eq!(snap.classes[0].completed, 5);
            assert_eq!(snap.lifetime.count, 2);
            assert_eq!(snap.classes[0].lifetime.count, 2);
            assert!(within_a_bucket(snap.lifetime.p50_us, 10.0));
            assert_eq!(snap.lifetime.p99_us, snap.lifetime.p50_us);
            assert_eq!(snap.lifetime.max_us, 10.0);
            assert_eq!(snap.lifetime.sum_us, 20.0, "the sum must stay finite");
            assert_eq!(snap.busy_us, 10.0, "only the finite batch was busy time");
        }
    }

    #[test]
    fn batches_update_counters_and_latency_distribution() {
        let metrics = ledger();
        for _ in 0..4 {
            metrics.record_submit(Priority::Normal);
        }
        metrics.record_batch("softmax", 3, 0, 10.0, false);
        metrics.record_batch("mha", 1, 0, 50.0, true);
        metrics.record_served(Priority::Normal, 3);
        metrics.record_served(Priority::High, 1);
        let snap = metrics.snapshot(0, empty_cache_stats());
        assert_eq!(snap.submitted, 4);
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_size - 2.0).abs() < 1e-12);
        assert!(within_a_bucket(snap.lifetime.p50_us, 10.0));
        assert!(within_a_bucket(snap.lifetime.p99_us, 50.0));
        assert_eq!(snap.lifetime.sum_us, 80.0);
        // Lane attribution: 4 normal submissions, 3 normal + 1 high served.
        assert_eq!(snap.lanes.len(), LANES);
        assert_eq!(snap.lanes[0].lane, "high");
        assert_eq!((snap.lanes[0].submitted, snap.lanes[0].completed), (0, 1));
        assert_eq!((snap.lanes[1].submitted, snap.lanes[1].completed), (4, 3));
    }

    #[test]
    fn sheds_are_counted_per_lane_and_reported() {
        let metrics = ledger();
        // An overloaded submission is first counted, then rolled back and
        // recorded as a shed — it must not inflate `submitted`.
        metrics.record_submit(Priority::Low);
        metrics.cancel_submit(Priority::Low);
        metrics.record_shed(Priority::Low, Duration::from_micros(200));
        metrics.record_shed(Priority::High, Duration::from_micros(400));
        let snap = metrics.snapshot(0, empty_cache_stats());
        assert_eq!(snap.submitted, 0);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.lanes[Priority::Low.lane()].shed, 1);
        assert_eq!(snap.lanes[Priority::High.lane()].shed, 1);
        assert_eq!(snap.lanes[Priority::Low.lane()].submitted, 0);
        // Retry hints: last is the most recent shed's, the sum adds both.
        assert!((snap.shed_retry_last_us - 400.0).abs() < 1e-9);
        assert_eq!(snap.shed_retry_sum_us, 600);
        // Shed rate: the low lane saw 1 arrival, all shed.
        assert!((snap.lanes[Priority::Low.lane()].shed_rate() - 1.0).abs() < 1e-12);
        for line in [
            "redfuser_requests_total{outcome=\"shed\"} 2",
            "redfuser_lane_requests_total{lane=\"low\",outcome=\"submitted\"} 0",
            "redfuser_lane_requests_total{lane=\"low\",outcome=\"shed\"} 1",
            "redfuser_shed_retry_hint_us 400",
            "redfuser_shed_retry_hint_us_total 600",
        ] {
            snap.assert_exported(line);
        }
    }

    #[test]
    fn shed_rate_is_zero_on_an_idle_lane() {
        let snap = ledger().snapshot(0, empty_cache_stats());
        assert_eq!(snap.lanes[0].shed_rate(), 0.0);
        assert_eq!(snap.shed_retry_last_us, 0.0);
        assert_eq!(snap.shed_retry_sum_us, 0);
        snap.assert_exported("redfuser_shed_retry_hint_us_total 0");
    }

    #[test]
    fn stage_timings_feed_histograms_unless_traced_off() {
        let timing = RequestTiming {
            queue_us: 100.0,
            compile_us: 5_000.0,
            execute_us: 400.0,
            total_us: 5_500.0,
            iterations_waited: 1,
        };
        let hit = RequestTiming {
            compile_us: 0.0,
            ..timing
        };
        let metrics = ledger();
        metrics.record_timing(Priority::Normal, &timing);
        metrics.record_timing(Priority::High, &hit);
        let snap = metrics.snapshot(0, empty_cache_stats());
        let by_name = |name: &str| {
            snap.stages
                .iter()
                .find(|s| s.stage == name)
                .expect("stage present")
        };
        // Queue and e2e see both requests; compile only the cache miss.
        assert_eq!(by_name("queue").wall.count, 2);
        assert_eq!(by_name("e2e").wall.count, 2);
        assert_eq!(by_name("compile").wall.count, 1);
        assert_eq!(by_name("execute").wall.count, 2);
        assert!((by_name("compile").wall.p50_us - 5_000.0).abs() / 5_000.0 < 0.08);
        // Lane attribution of the e2e wall time.
        assert_eq!(snap.lanes[Priority::Normal.lane()].wall.count, 1);
        assert_eq!(snap.lanes[Priority::High.lane()].wall.count, 1);
        snap.assert_exported("redfuser_stage_wall_us_count{stage=\"compile\"} 1");

        // The Off contract: the wall-clock histograms record nothing; the
        // simulated-latency statistic (and the counters) are always on.
        let off = RuntimeMetrics::with_trace(TraceConfig::off());
        off.record_submit(Priority::Normal);
        off.record_timing(Priority::Normal, &timing);
        off.record_batch("softmax", 4, 0, 10.0, true);
        let snap = off.snapshot(0, empty_cache_stats());
        assert_eq!(snap.trace_level, TraceLevel::Off);
        assert!(snap.stages.iter().all(|s| s.wall.count == 0));
        assert!(snap.lanes.iter().all(|l| l.wall.count == 0));
        assert_eq!(snap.lifetime.count, 4);
        assert_eq!(snap.classes[0].lifetime.count, 4);
        assert!(within_a_bucket(snap.lifetime.p50_us, 10.0));
        assert_eq!((snap.batches, snap.busy_us), (1, 10.0));
    }

    #[test]
    fn lifetime_histograms_track_the_full_run() {
        let metrics = ledger();
        // Late slow traffic does not displace the fast early majority: no
        // statistic here forgets.
        metrics.record_batch("softmax", 8192, 0, 1.0, false);
        metrics.record_batch("softmax", 8192, 0, 1.0, true);
        metrics.record_batch("softmax", 8192, 0, 9.0, true);
        let snap = metrics.snapshot(0, empty_cache_stats());
        assert!(
            snap.lifetime.p50_us < 2.0,
            "the lifetime histogram remembers the 2/3 fast majority, got {}",
            snap.lifetime.p50_us
        );
        assert!(within_a_bucket(snap.lifetime.p99_us, 9.0));
        assert_eq!(snap.lifetime.sum_us, 11.0 * 8192.0);
        assert_eq!(snap.lifetime.count, 3 * 8192);
        let softmax = &snap.classes[0];
        assert_eq!(softmax.lifetime, snap.lifetime);
        snap.assert_exported("redfuser_sim_latency_us_sum 90112");
        snap.assert_exported("redfuser_sim_latency_us_count 24576");
    }

    #[test]
    fn prometheus_exposition_contains_every_family() {
        let metrics = ledger();
        metrics.record_submit(Priority::Normal);
        metrics.record_batch("softmax", 1, 0, 12.5, false);
        metrics.record_served(Priority::Normal, 1);
        metrics.record_timing(
            Priority::Normal,
            &RequestTiming {
                queue_us: 10.0,
                compile_us: 100.0,
                execute_us: 30.0,
                total_us: 140.0,
                iterations_waited: 0,
            },
        );
        metrics.record_shed(Priority::Low, Duration::from_micros(250));
        let text = metrics.snapshot(2, empty_cache_stats()).prometheus();
        for needle in [
            "# TYPE redfuser_requests_total counter",
            "redfuser_requests_total{outcome=\"submitted\"} 1",
            "redfuser_requests_total{outcome=\"shed\"} 1",
            "redfuser_queue_depth 2",
            "# TYPE redfuser_stage_wall_us summary",
            "redfuser_stage_wall_us{stage=\"queue\",quantile=\"0.5\"}",
            "redfuser_stage_wall_us_count{stage=\"compile\"} 1",
            "redfuser_lane_requests_total{lane=\"normal\",outcome=\"completed\"} 1",
            "redfuser_lane_wall_us{lane=\"normal\",quantile=\"0.99\"}",
            "redfuser_class_sim_latency_us{class=\"softmax\",quantile=\"0.5\"}",
            "redfuser_shed_retry_hint_us 250",
            "redfuser_sim_busy_us_total 12.5",
            "redfuser_sim_latency_us_count 1",
        ] {
            assert!(
                text.contains(needle),
                "exposition must contain `{needle}`:\n{text}"
            );
        }
        for f in FAMILIES {
            let header = format!("# TYPE {} {}\n", f.name, f.kind);
            assert!(text.contains(&header), "no `{header}` in:\n{text}");
        }
        // Every line is either a comment or `name{labels} value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
                "malformed exposition line: `{line}`"
            );
        }
    }

    #[test]
    fn busy_time_is_a_sim_clock_counter_in_the_exposition() {
        let metrics = ledger();
        let busy = |metrics: &RuntimeMetrics| {
            let snap = metrics.snapshot(0, empty_cache_stats());
            let text = snap.prometheus();
            let line = text
                .lines()
                .find(|line| line.starts_with("redfuser_sim_busy_us_total "))
                .map(str::to_owned);
            (snap.busy_us, line)
        };
        // Each batch's latency counts once, whatever its size; a failed
        // batch's latency counts like any other.
        metrics.record_batch("softmax", 4, 0, 10.5, false);
        metrics.record_batch("mha", 1, 1, 2.25, true);
        let (before, line) = busy(&metrics);
        assert_eq!(before, 12.75);
        assert_eq!(line.as_deref(), Some("redfuser_sim_busy_us_total 12.75"));
        // The difference of two readings is the busy time in between.
        metrics.record_batch("softmax", 16, 0, 40.0, true);
        let (after, _) = busy(&metrics);
        assert_eq!(after - before, 40.0);
    }

    #[test]
    fn exposition_carries_every_headline_number() {
        let metrics = ledger();
        metrics.record_submit(Priority::Normal);
        metrics.record_batch("softmax", 1, 0, 12.5, false);
        metrics.record_served(Priority::Normal, 1);
        let cache = CacheStats {
            hits: 9,
            misses: 1,
            evictions: 0,
            entries: 1,
        };
        let snap = metrics.snapshot(3, cache);
        for line in [
            "redfuser_requests_total{outcome=\"completed\"} 1",
            "redfuser_queue_depth 3",
            "redfuser_mean_batch_size 1",
            "redfuser_sim_latency_us_sum 12.5",
            "redfuser_sim_latency_us_count 1",
            "redfuser_plan_cache_total{result=\"hit\"} 9",
            "redfuser_plan_cache_total{result=\"miss\"} 1",
            "redfuser_plan_cache_entries 1",
            "redfuser_class_requests_total{class=\"softmax\",outcome=\"completed\"} 1",
            "redfuser_class_batches_total{class=\"softmax\",plan=\"miss\"} 1",
            "redfuser_class_sim_latency_us_count{class=\"softmax\"} 1",
        ] {
            snap.assert_exported(line);
        }
    }

    #[test]
    fn summary_sums_are_the_recorded_sums() {
        // 335 + 336 + 336 ns: a sum rebuilt as mean × count exported
        // 1.0070000000000001; the recorded nanosecond sum divided once
        // prints as what was recorded.
        let metrics = ledger();
        for latency_us in [0.335, 0.336, 0.336] {
            metrics.record_batch("softmax", 1, 0, latency_us, true);
        }
        let snap = metrics.snapshot(0, empty_cache_stats());
        assert_eq!(snap.lifetime.sum_us, 1.007);
        snap.assert_exported("redfuser_sim_latency_us_sum 1.007");
        snap.assert_exported("redfuser_class_sim_latency_us_sum{class=\"softmax\"} 1.007");
    }

    #[test]
    fn per_class_breakdown_tracks_each_class_separately() {
        let metrics = ledger();
        // softmax: 3 batches (2 cache hits), fast; mha: 1 batch (miss), slow.
        metrics.record_batch("softmax", 2, 0, 10.0, false);
        metrics.record_batch("softmax", 4, 0, 12.0, true);
        metrics.record_batch("softmax", 2, 0, 14.0, true);
        metrics.record_batch("mha", 1, 0, 200.0, false);
        let snap = metrics.snapshot(0, empty_cache_stats());
        assert_eq!(snap.classes.len(), 2);
        // Sorted by class name: mha before softmax.
        let mha = &snap.classes[0];
        let softmax = &snap.classes[1];
        assert_eq!(mha.class, "mha");
        assert_eq!((mha.completed, mha.batches, mha.cache_hits), (1, 1, 0));
        assert!(within_a_bucket(mha.lifetime.p50_us, 200.0));
        assert_eq!(softmax.class, "softmax");
        assert_eq!(
            (softmax.completed, softmax.batches, softmax.cache_hits),
            (8, 3, 2)
        );
        snap.assert_exported("redfuser_class_batches_total{class=\"softmax\",plan=\"hit\"} 2");
        snap.assert_exported("redfuser_class_batches_total{class=\"softmax\",plan=\"miss\"} 1");
        assert!(within_a_bucket(softmax.lifetime.p50_us, 12.0));
        assert!(within_a_bucket(softmax.lifetime.p99_us, 14.0));
        // Class percentiles are independent of the global distribution.
        assert!(snap.lifetime.p99_us > softmax.lifetime.p99_us);
        // Non-finite latencies count requests but never enter the histogram.
        metrics.record_batch("mha", 1, 0, f64::INFINITY, true);
        let snap = metrics.snapshot(0, empty_cache_stats());
        let mha = &snap.classes[0];
        assert_eq!((mha.completed, mha.batches, mha.cache_hits), (2, 2, 1));
        assert_eq!(mha.lifetime.count, 1);
        assert!(within_a_bucket(mha.lifetime.p99_us, 200.0));
    }

    #[test]
    fn graph_counters_accumulate_and_render() {
        let metrics = ledger();
        let before = metrics.snapshot(0, empty_cache_stats());
        assert_eq!(before.graphs_served, 0);
        before.assert_exported("redfuser_graphs_total 0");
        before.assert_exported("redfuser_region_plan_cache_total{result=\"miss\"} 0");
        // First graph: 2 regions (both compile), 9 fused ops, 8 glue ops.
        metrics.record_graph(9, 8, 0, 2);
        // Same graph again: both regions hit the plan cache.
        metrics.record_graph(9, 8, 2, 2);
        let snap = metrics.snapshot(0, empty_cache_stats());
        assert_eq!(snap.graphs_served, 2);
        assert_eq!(snap.graph_fused_ops, 18);
        assert_eq!(snap.graph_glue_ops, 16);
        assert_eq!((snap.region_hits, snap.region_lookups), (2, 4));
        for line in [
            "redfuser_graphs_total 2",
            "redfuser_graph_ops_total{kind=\"fused\"} 18",
            "redfuser_graph_ops_total{kind=\"glue\"} 16",
            "redfuser_region_plan_cache_total{result=\"hit\"} 2",
            "redfuser_region_plan_cache_total{result=\"miss\"} 2",
        ] {
            snap.assert_exported(line);
        }
    }

    #[test]
    fn every_family_states_its_kind_clock_and_unit() {
        let mut names: Vec<&str> = FAMILIES.iter().map(|f| f.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FAMILIES.len(), "family names are unique");
        for f in FAMILIES {
            let name = f.name;
            assert!(name.starts_with("redfuser_"), "{name}");
            assert!(["counter", "gauge", "summary"].contains(&f.kind), "{name}");
            assert!(["sim", "host", "-"].contains(&f.clock), "{name}");
            assert!(!f.unit.is_empty() && !f.help.is_empty(), "{name}");
            assert_eq!(f.kind == "counter", name.ends_with("_total"), "{name}");
            // A time is on a stated clock, in the unit its name ends with
            // (before a counter's `_total`).
            let base = name.strip_suffix("_total").unwrap_or(name);
            assert_eq!(base.ends_with("_us"), f.unit == "us", "{name}");
            assert!(f.unit != "us" || f.clock != "-", "{name}");
        }
    }

    #[test]
    fn readme_metric_reference_is_generated_from_the_family_table() {
        const BEGIN: &str = "<!-- metric-reference:begin -->\n";
        const END: &str = "<!-- metric-reference:end -->";
        let readme = include_str!("../../../README.md");
        let start = readme.find(BEGIN).expect("README has the begin marker") + BEGIN.len();
        let len = readme[start..]
            .find(END)
            .expect("README has the end marker");
        let reference = metric_reference();
        assert!(
            readme[start..start + len] == reference,
            "README's metric reference is out of date; replace the block between the \
             markers with:\n{reference}"
        );
    }
}
