//! The serving engine: the submission front door, the state its workers
//! share, and the engine lifecycle. The workers' loop is the `serve` module.
//!
//! Everything the engine serves — single workloads, whole operator graphs,
//! pre-partitioned plans — enters through [`Engine::submit`] as a
//! [`Submission`] and resolves to a [`crate::Response`] through the returned
//! [`Ticket`]. The engine owns one [`crate::backend::ExecBackend`], one
//! plan/tuning cache, one work queue and one worker pool.
//!
//! ```
//! use rf_gpusim::GpuArch;
//! use rf_runtime::{Engine, Priority, Request, Submission};
//! use rf_workloads::random_matrix;
//!
//! let engine = Engine::new(GpuArch::a10());
//! // A bare `Request` converts into a normal-priority submission…
//! let ticket = engine
//!     .submit(Request::softmax(random_matrix(4, 64, 1, -2.0, 2.0)))
//!     .unwrap();
//! // …and the explicit form picks a priority lane.
//! let urgent = engine
//!     .submit(
//!         Submission::workload(Request::softmax(random_matrix(4, 64, 2, -2.0, 2.0)))
//!             .with_priority(Priority::High),
//!     )
//!     .unwrap();
//! let result = ticket.wait().unwrap();
//! assert_eq!(result.workload, "softmax_4x64");
//! assert!(urgent.wait().unwrap().iteration >= 1);
//! ```

mod serve;

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rf_gpusim::GpuArch;
use rf_trace::{
    ArgValue, OpProfileSnapshot, OpProfiler, TraceCollector, TraceEvent, TraceSnapshot, Track,
};

use crate::backend::{ExecBackend, TileVmBackend};
use crate::cache::PlanCache;
use crate::config::{LaneWeights, RuntimeConfig};
use crate::metrics::{MetricsSnapshot, RuntimeMetrics};
use crate::request::RuntimeError;
use crate::stream::{QueuedWork, StreamScheduler, Ticket};
use crate::submit::Submission;

/// A concurrent serving engine.
///
/// [`Engine::submit`] validates a [`Submission`], enqueues it and returns a
/// [`Ticket`]; the worker pool serves the stream in iterations, grouping
/// shape-compatible requests into batches formed at each iteration boundary,
/// compiling (or re-using) fused plans via the [`crate::PlanCache`] and
/// executing through the [`crate::backend::ExecBackend`]. Admission is
/// bounded: past [`RuntimeConfig::max_in_flight`] the engine sheds with
/// [`RuntimeError::Overloaded`] instead of queuing without bound. Dropping
/// the engine shuts it down; still-queued submissions fail with
/// [`RuntimeError::ShuttingDown`].
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

/// The state the front door and the workers share.
struct Shared {
    /// How the engine executes compiled plans.
    backend: Arc<dyn ExecBackend>,
    /// The compiled-plan cache; its arch is the one the engine compiles,
    /// tunes and costs for.
    cache: PlanCache,
    /// The serving counters.
    metrics: RuntimeMetrics,
    /// The work queue and batching state.
    scheduler: StreamScheduler,
    /// The span collector (records only at `TraceLevel::Full`).
    trace: TraceCollector,
    /// The tile-VM op profiler. Disabled unless
    /// [`rf_trace::TraceConfig::profile`] is set, in which case workload
    /// requests execute through `CompiledKernel::run_profiled`.
    profiler: OpProfiler,
    /// Host nanoseconds the delivered submissions took, each from the start
    /// of its own execution to its delivery, and how many there were: their
    /// ratio is the host time one submission costs.
    host_ns: AtomicU64,
    delivered: AtomicU64,
}

impl Shared {
    /// The backoff to suggest alongside an [`RuntimeError::Overloaded`] shed:
    /// roughly how long until the in-flight budget frees up, estimated as the
    /// mean host time per delivered submission times the iterations queued
    /// ahead of a submission refused at `depth`. A client sleeps on it, so it
    /// is on the host clock. Only a shed reads it.
    fn retry_hint(&self, depth: usize) -> Duration {
        let delivered = self.delivered.load(Relaxed).max(1);
        let mean_us = self.host_ns.load(Relaxed) as f64 / 1e3 / delivered as f64;
        let iterations_ahead = (depth as f64 / self.scheduler.max_batch() as f64).max(1.0);
        let hint_us = (mean_us.max(10.0) * iterations_ahead).clamp(100.0, 100_000.0);
        Duration::from_micros(hint_us as u64)
    }
}

impl Engine {
    /// Creates an engine for `arch` with the default [`RuntimeConfig`].
    pub fn new(arch: GpuArch) -> Self {
        Engine::with_config(arch, RuntimeConfig::default())
    }

    /// Creates an engine with explicit tunables.
    ///
    /// This is a thin wrapper over [`Engine::try_with_config`] for callers
    /// that treat a bad configuration as a programming error; prefer the
    /// fallible form where the configuration is user-supplied.
    ///
    /// # Panics
    ///
    /// Panics if `config` violates its invariants (see
    /// [`RuntimeConfig::validate`]). Configurations built through
    /// [`RuntimeConfig::builder`] are already validated.
    pub fn with_config(arch: GpuArch, config: RuntimeConfig) -> Self {
        match Engine::try_with_config(arch, config) {
            Ok(engine) => engine,
            Err(err) => panic!("invalid RuntimeConfig: {err}"),
        }
    }

    /// Creates an engine with explicit tunables, returning the typed
    /// validation error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] describing the first violated
    /// invariant (see [`RuntimeConfig::validate`]).
    pub fn try_with_config(arch: GpuArch, config: RuntimeConfig) -> Result<Self, RuntimeError> {
        config.validate()?;
        Ok(Engine::start(arch, Arc::new(TileVmBackend), &config))
    }

    /// Spawns the engine for `arch` around `backend` (the tests inject one
    /// that parks or panics on cue): its caches, scheduler, trace collector
    /// and profiler, and `config.workers` worker threads.
    fn start(arch: GpuArch, backend: Arc<dyn ExecBackend>, config: &RuntimeConfig) -> Engine {
        let shared = Arc::new(Shared {
            backend,
            cache: PlanCache::new(arch, config.cache_capacity),
            metrics: RuntimeMetrics::with_trace(config.trace),
            scheduler: StreamScheduler::new(
                config.max_batch,
                config.max_in_flight,
                LaneWeights::default().as_array(),
            ),
            trace: TraceCollector::new(config.trace),
            profiler: OpProfiler::new(config.trace.profile),
            host_ns: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rf-runtime-worker-{i}"))
                    .spawn(move || serve::worker_loop(&shared, i))
                    .expect("spawning a runtime worker failed")
            })
            .collect();
        Engine {
            shared,
            workers,
            next_id: AtomicU64::new(0),
        }
    }

    /// The architecture the engine compiles, tunes and costs for.
    pub fn arch(&self) -> &GpuArch {
        self.shared.cache.arch()
    }

    /// Validates and enqueues a submission, returning the completion ticket.
    /// Accepts anything convertible into a [`Submission`] — in particular a
    /// bare [`Request`](crate::Request), which submits at
    /// [`crate::Priority::Normal`].
    ///
    /// The submission joins the open stream immediately: if a batch is
    /// executing right now, the request is eligible for the next iteration
    /// boundary — it never waits for the queue to drain.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InputMismatch`] / [`RuntimeError::ShapeMismatch`] for
    /// invalid workload requests, [`RuntimeError::Overloaded`] (with a retry
    /// hint) when the bounded in-flight budget is exhausted, and
    /// [`RuntimeError::ShuttingDown`] once the engine is being dropped.
    pub fn submit(&self, submission: impl Into<Submission>) -> Result<Ticket, RuntimeError> {
        let submission = submission.into();
        if let Submission::Workload { request, .. } = &submission {
            crate::request::validate(&request.workload, &request.input)?;
        }
        let id = self.next_id.fetch_add(1, Relaxed);
        let Shared {
            metrics,
            scheduler,
            trace,
            ..
        } = &*self.shared;
        let priority = submission.priority();
        let (queued, ticket) = QueuedWork::new(id, submission);
        // Count before enqueueing so a snapshot can never observe a completed
        // request that was not yet counted as submitted; roll back if the
        // scheduler rejects the request (shutdown or shed), so rejected
        // requests never inflate the counter.
        metrics.record_submit(priority);
        let admitted =
            scheduler.enqueue_or_shed(queued, |refused| self.shared.retry_hint(refused.in_flight));
        if let Err(err) = admitted {
            metrics.cancel_submit(priority);
            if let RuntimeError::Overloaded { retry_hint, source } = &err {
                metrics.record_shed(priority, *retry_hint);
                if trace.enabled() {
                    trace.record(
                        TraceEvent::instant("shed", trace.now_us(), Track::FrontDoor)
                            .with_request(id)
                            .with_lane(priority.name())
                            .with_arg("in_flight", ArgValue::U64(source.in_flight as u64))
                            .with_arg("budget", ArgValue::U64(source.budget as u64))
                            .with_arg("retry_us", ArgValue::F64(retry_hint.as_secs_f64() * 1e6)),
                    );
                }
            }
            return Err(err);
        }
        if trace.enabled() {
            trace.record(
                TraceEvent::instant("submit", trace.now_us(), Track::Request(id))
                    .with_request(id)
                    .with_lane(priority.name()),
            );
        }
        Ok(ticket)
    }

    /// Blocks until every accepted submission has been executed.
    pub fn run_until_drained(&self) {
        self.shared.scheduler.wait_drained();
    }

    /// Submissions currently queued or executing.
    pub fn queue_depth(&self) -> usize {
        self.shared.scheduler.depth()
    }

    /// Engine iterations started so far.
    pub fn iterations(&self) -> u64 {
        self.shared.scheduler.iterations()
    }

    /// A point-in-time metrics snapshot (latency percentiles, batch sizes,
    /// queue depth, shed counts, per-lane traffic, cache effectiveness).
    pub fn metrics(&self) -> MetricsSnapshot {
        let Shared {
            metrics,
            scheduler,
            cache,
            ..
        } = &*self.shared;
        metrics.snapshot(scheduler.depth(), cache.stats())
    }

    /// The tile-VM op profile: per op kind, the invocations and tensor bytes
    /// loaded and stored that the kernels counted as they ran, aggregated per
    /// (workload class, region). No wall time is split across ops. Empty
    /// unless the engine was started with
    /// [`rf_trace::TraceConfig::with_profile`]; render it with
    /// [`OpProfileSnapshot::folded`] (weighted by bytes) for inferno-style
    /// flamegraph tools.
    pub fn op_profile(&self) -> OpProfileSnapshot {
        self.shared.profiler.snapshot()
    }

    /// The metrics in Prometheus exposition format — serve it verbatim under
    /// a `/metrics` endpoint.
    pub fn prometheus(&self) -> String {
        self.metrics().prometheus()
    }

    /// The span collector (level, timestamps, drop count). Only records at
    /// [`rf_trace::TraceLevel::Full`]; see [`RuntimeConfig::builder`]'s
    /// `trace`/`trace_level`.
    pub fn trace_collector(&self) -> &TraceCollector {
        &self.shared.trace
    }

    /// A copy of the buffered span events (empty below
    /// [`rf_trace::TraceLevel::Full`]).
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.shared.trace.snapshot()
    }

    /// The buffered span events as Chrome trace-event JSON, loadable in
    /// Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        self.shared.trace.chrome_trace()
    }
}

impl Drop for Engine {
    /// Fails every queued submission, then joins the workers.
    fn drop(&mut self) {
        self.shared.scheduler.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("arch", &self.arch().name)
            .field("queue_depth", &self.queue_depth())
            .finish()
    }
}

#[cfg(test)]
mod tests;
