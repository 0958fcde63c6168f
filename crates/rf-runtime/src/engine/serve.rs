//! The serving loop: a worker takes an iteration off the stream and serves
//! its members one at a time, and every member — a request of a workload
//! batch or a graph — reaches its ticket through one delivery path.
//!
//! A workload batch shares one plan: its first member compiles it (or finds
//! it in the [`crate::PlanCache`]). A graph is a singleton iteration; it
//! compiles its regions as it runs. Every time here is host time, the
//! member's [`RequestTiming`]. Each member's execution is guarded: a panic
//! inside it — the backend, a compile, a graph step — fails that member
//! only, through the same ledger path as any execution error.
//! A member's `execute_us` is its own execution; the batch-mates served
//! before it count in its `total_us` only.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use rf_codegen::CompiledKernel;
use rf_trace::{ArgValue, OpSample, TraceEvent, Track};

use super::Shared;
use crate::graph::{execute_graph_plan, GraphResponse};
use crate::request::{Request, RequestOutput, RuntimeError};
use crate::stream::{Iteration, QueuedWork};
use crate::submit::{GraphStats, Priority, RequestTiming, Response, Submission};

/// What one member's execution produced: its output, and the region
/// counters when it was a graph.
type Outcome = Result<(RequestOutput, Option<GraphStats>), RuntimeError>;

/// Microseconds from `from` to `to` (0 when the clock says they inverted —
/// the metrics path must never panic on a monotonic-clock edge case).
fn duration_us(from: Instant, to: Instant) -> f64 {
    to.checked_duration_since(from)
        .map(|d| d.as_secs_f64() * 1e6)
        .unwrap_or(0.0)
}

/// One worker thread: serves iterations until the scheduler shuts down.
pub(super) fn worker_loop(shared: &Shared, worker: usize) {
    while let Some(iteration) = shared.scheduler.next_iteration() {
        // The backstop: every member's execution unwinds on its own, but a
        // panic anywhere else in the iteration must not wedge the engine
        // either. The guard keeps the in-flight accounting balanced (so
        // `run_until_drained` returns) and dropping the unfulfilled
        // `QueuedWork`s delivers `ExecutionFailed` to their tickets (so
        // `Ticket::wait` returns).
        let size = iteration.work.len();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            run_iteration(shared, worker, iteration)
        }));
        shared.scheduler.finish_iteration(size);
    }
}

/// Serves one iteration member by member, then records it as one batch of
/// its class.
fn run_iteration(shared: &Shared, worker: usize, iteration: Iteration) {
    let Iteration {
        index,
        lane,
        formed_at,
        work,
    } = iteration;
    let mut batch = Batch {
        class: work[0].submission.class(),
        size: work.len(),
        index,
        formed_at,
        plan: None,
        plan_started: formed_at,
        compile_us: 0.0,
        cache_hit: false,
        started: formed_at,
    };
    let mut executed = 0;
    for queued in work {
        let outcome = catch_unwind(AssertUnwindSafe(|| batch.run(shared, &queued.submission)))
            .unwrap_or_else(|_| {
                let workload = queued.submission.label();
                Err(RuntimeError::execution_failed(
                    workload,
                    "the execution panicked",
                ))
            });
        executed += usize::from(batch.deliver(shared, queued, outcome));
    }
    shared.metrics.record_batch(
        batch.class,
        executed,
        batch.size - executed,
        batch.cache_hit,
    );
    if shared.trace.enabled() {
        let start = shared.trace.ts_us_of(formed_at);
        shared.trace.record(
            TraceEvent::span(
                "iteration",
                start,
                shared.trace.now_us() - start,
                Track::Worker(worker),
            )
            .with_iteration(index)
            .with_lane(Priority::ALL[lane].name())
            .with_arg("batch", ArgValue::U64(batch.size as u64))
            .with_arg(
                "occupancy",
                ArgValue::F64(batch.size as f64 / shared.scheduler.max_batch() as f64),
            ),
        );
    }
}

/// What the members of one iteration share: the class the ledger files them
/// under, the workload plan and how it was acquired, and the cache verdict
/// every member's response reports.
struct Batch {
    class: &'static str,
    size: usize,
    index: u64,
    formed_at: Instant,
    /// The workload plan, acquired by the batch's first member; `None` for
    /// a graph.
    plan: Option<Arc<CompiledKernel>>,
    plan_started: Instant,
    compile_us: f64,
    /// A workload batch: its plan came from the cache. A graph: every fused
    /// region's did.
    cache_hit: bool,
    /// When the member being served began its own execution.
    started: Instant,
}

impl Batch {
    /// Executes one member, marking in `started` where its own execution
    /// began: after the batch's plan acquisition for a workload, before the
    /// partition for a graph.
    fn run(&mut self, shared: &Shared, submission: &Submission) -> Outcome {
        match submission {
            Submission::Workload { request, .. } => {
                let plan = self.acquire(shared, request);
                self.started = Instant::now();
                run_workload(shared, &plan, request, self.class).map(|output| (output, None))
            }
            Submission::Graph {
                graph,
                plan,
                bindings,
                ..
            } => {
                self.started = Instant::now();
                let plan = plan
                    .clone()
                    .unwrap_or_else(|| Arc::new(rf_graph::partition(graph)));
                let GraphResponse { outputs, stats } = execute_graph_plan(
                    &shared.cache,
                    shared.cache.arch(),
                    Some(&shared.metrics),
                    graph,
                    &plan,
                    bindings.as_slice(),
                )?;
                self.cache_hit =
                    stats.fused_regions > 0 && stats.region_cache_hits == stats.fused_regions;
                Ok((RequestOutput::Tensors(outputs), Some(stats)))
            }
        }
    }

    /// The batch's plan. The first member compiles it or finds it in the
    /// cache; the others re-use it.
    fn acquire(&mut self, shared: &Shared, request: &Request) -> Arc<CompiledKernel> {
        if let Some(plan) = &self.plan {
            return Arc::clone(plan);
        }
        self.plan_started = Instant::now();
        let (plan, cache_hit) = shared.cache.get_or_compile_traced(&request.workload);
        // Plan acquisition as this batch experienced it: ~0 on a hit, the
        // full compile+tune wall time on a miss.
        if !cache_hit {
            self.compile_us = duration_us(self.plan_started, Instant::now());
        }
        self.cache_hit = cache_hit;
        self.plan = Some(Arc::clone(&plan));
        plan
    }

    /// Delivers one member's outcome: its timing, the ledger (before the
    /// ticket, so a client holding its result finds it counted), its spans,
    /// then the ticket. Returns whether the member executed.
    fn deliver(&self, shared: &Shared, queued: QueuedWork, outcome: Outcome) -> bool {
        let delivered_at = Instant::now();
        let priority = queued.priority();
        let timing = RequestTiming {
            queue_us: duration_us(queued.submitted_at, self.formed_at),
            compile_us: self.compile_us,
            execute_us: duration_us(self.started, delivered_at),
            total_us: duration_us(queued.submitted_at, delivered_at),
            iterations_waited: self.index.saturating_sub(queued.iterations_at_submit + 1),
        };
        shared
            .host_ns
            .fetch_add((timing.execute_us * 1e3) as u64, Relaxed);
        shared.delivered.fetch_add(1, Relaxed);
        let ok = outcome.is_ok();
        if ok {
            shared.metrics.record_served(priority, 1);
            shared.metrics.record_timing(priority, &timing);
        } else {
            shared.metrics.record_failed(priority, 1);
        }
        if shared.trace.enabled() {
            self.record_spans(shared, &queued, priority, &timing, ok);
        }
        let result = outcome.map(|(output, graph)| Response {
            id: queued.id,
            workload: queued.submission.label(),
            output,
            simulated_us: 0.0,
            batch_size: self.size,
            cache_hit: self.cache_hit,
            iteration: self.index,
            priority,
            device: 0,
            graph,
            timing,
        });
        queued.fulfil(result);
        ok
    }

    /// Records one member's lifecycle on its own trace track: `queue`
    /// (admission → iteration formed); for a workload, `compile` (miss) or a
    /// `hit` instant; `execute` (its own execution → delivery); and a final
    /// `deliver` marker. The spans never overlap, so their durations sum to
    /// at most the member's end-to-end latency.
    fn record_spans(
        &self,
        shared: &Shared,
        queued: &QueuedWork,
        priority: Priority,
        timing: &RequestTiming,
        ok: bool,
    ) {
        let trace = &shared.trace;
        let (id, class, lane) = (queued.id, self.class, priority.name());
        let track = Track::Request(id);
        trace.record(
            TraceEvent::span(
                "queue",
                trace.ts_us_of(queued.submitted_at),
                timing.queue_us,
                track,
            )
            .with_request(id)
            .with_lane(lane)
            .with_class(class)
            .with_iteration(self.index),
        );
        if self.plan.is_some() {
            let plan_start = trace.ts_us_of(self.plan_started);
            let acquired = if self.cache_hit {
                TraceEvent::instant("hit", plan_start, track)
            } else {
                TraceEvent::span("compile", plan_start, timing.compile_us, track)
            };
            trace.record(acquired.with_request(id).with_class(class));
        }
        let execute_start = trace.ts_us_of(self.started);
        trace.record(
            TraceEvent::span("execute", execute_start, timing.execute_us, track)
                .with_request(id)
                .with_lane(lane)
                .with_class(class)
                .with_iteration(self.index)
                .with_arg("batch", ArgValue::U64(self.size as u64)),
        );
        trace.record(
            TraceEvent::instant("deliver", execute_start + timing.execute_us, track)
                .with_request(id)
                .with_arg("ok", ArgValue::U64(ok as u64)),
        );
    }
}

/// Executes one workload request on `plan` through the backend — or, when
/// the profiler is on, through `CompiledKernel::run_profiled`, filing one
/// folded-stack leaf per op the kernel ran under `class` and the request's
/// concrete shape (the region frame).
fn run_workload(
    shared: &Shared,
    plan: &CompiledKernel,
    request: &Request,
    class: &'static str,
) -> Result<RequestOutput, RuntimeError> {
    if !shared.profiler.enabled() {
        return shared.backend.execute(plan, request);
    }
    let region = request.workload.name();
    let (output, profile) = plan
        .run_profiled(&request.input.as_exec())
        .map_err(|err| RuntimeError::execution_failed(region.clone(), err))?;
    for op in &profile.ops {
        shared.profiler.record(
            class,
            &region,
            op.op,
            &OpSample {
                invocations: op.invocations,
                bytes_read: op.bytes_read,
                bytes_written: op.bytes_written,
            },
        );
    }
    Ok(RequestOutput::from_exec(output))
}
