//! The device: its [`ExecBackend`], plan/tuning caches, stream scheduler,
//! worker pool and the per-iteration serving loop.
//!
//! Requests admitted onto the scheduler are formed into shape-compatible
//! batches at iteration boundaries, compiled (or re-used) through the
//! [`PlanCache`], costed on its arch, executed by the backend and accounted
//! into the [`RuntimeMetrics`]. A backend call that panics fails the one
//! request it was serving, through the same ledger path as any execution
//! error.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rf_gpusim::GpuArch;
use rf_trace::{ArgValue, OpProfiler, OpSample, TraceCollector, TraceEvent, Track};

use crate::backend::ExecBackend;
use crate::cache::PlanCache;
use crate::config::{LaneWeights, RuntimeConfig};
use crate::graph::execute_graph_plan;
use crate::metrics::RuntimeMetrics;
use crate::request::{RequestOutput, RuntimeError};
use crate::stream::{batch_latency_us, Iteration, QueuedWork, StreamScheduler, Ticket};
use crate::submit::{GraphStats, Priority, RequestTiming, Response, Submission};

/// Microseconds from `from` to `to` (0 when the clock says they inverted —
/// the metrics path must never panic on a monotonic-clock edge case).
fn duration_us(from: Instant, to: Instant) -> f64 {
    to.checked_duration_since(from)
        .map(|d| d.as_secs_f64() * 1e6)
        .unwrap_or(0.0)
}

/// The state the workers and the engine's front door share.
pub(crate) struct DeviceShared {
    /// How the device executes compiled plans.
    pub backend: Arc<dyn ExecBackend>,
    /// The compiled-plan cache; its arch is the one the device compiles,
    /// tunes and costs for.
    pub cache: PlanCache,
    /// The serving counters.
    pub metrics: RuntimeMetrics,
    /// The work queue and batching state.
    pub scheduler: StreamScheduler,
    /// The span collector (records only at `TraceLevel::Full`).
    pub trace: TraceCollector,
    /// The tile-VM op profiler. Disabled unless
    /// [`rf_trace::TraceConfig::profile`] is set, in which case workload
    /// batches execute through `CompiledKernel::run_profiled`.
    pub profiler: OpProfiler,
    /// Host nanoseconds the executed workload batches took, plan ready to
    /// the last delivery, and the requests they held: their ratio is the
    /// host time one request costs.
    batch_host_ns: AtomicU64,
    batch_requests: AtomicU64,
}

impl DeviceShared {
    /// The backoff to suggest alongside an [`RuntimeError::Overloaded`] shed:
    /// roughly how long until the in-flight budget frees up,
    /// estimated as the mean host time per executed request times the
    /// iterations queued ahead of a submission refused at `depth`. A client
    /// sleeps on it, so it is on the host clock. Only a shed reads it.
    fn retry_hint(&self, depth: usize) -> Duration {
        let requests = self.batch_requests.load(Relaxed).max(1);
        let mean_us = self.batch_host_ns.load(Relaxed) as f64 / 1e3 / requests as f64;
        let iterations_ahead = (depth as f64 / self.scheduler.max_batch() as f64).max(1.0);
        let hint_us = (mean_us.max(10.0) * iterations_ahead).clamp(100.0, 100_000.0);
        Duration::from_micros(hint_us as u64)
    }

    /// Admits one already-validated submission onto the scheduler,
    /// maintaining the submit/shed ledger and trace markers.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Overloaded`] (with a retry hint) when the bounded
    /// in-flight budget is exhausted, [`RuntimeError::ShuttingDown`] once the
    /// engine is being dropped.
    pub fn enqueue(&self, id: u64, submission: Submission) -> Result<Ticket, RuntimeError> {
        let priority = submission.priority();
        let (queued, ticket) = QueuedWork::new(id, submission);
        // Count before enqueueing so a snapshot can never observe a completed
        // request that was not yet counted as submitted; roll back if the
        // scheduler rejects the request (shutdown or shed), so rejected
        // requests never inflate the counter.
        self.metrics.record_submit(priority);
        let admitted = self
            .scheduler
            .enqueue_or_shed(queued, |refused| self.retry_hint(refused.in_flight));
        if let Err(err) = admitted {
            self.metrics.cancel_submit(priority);
            if let RuntimeError::Overloaded { retry_hint, source } = &err {
                self.metrics.record_shed(priority, *retry_hint);
                if self.trace.enabled() {
                    self.trace.record(
                        TraceEvent::instant("shed", self.trace.now_us(), Track::FrontDoor)
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
        if self.trace.enabled() {
            self.trace.record(
                TraceEvent::instant("submit", self.trace.now_us(), Track::Request(id))
                    .with_request(id)
                    .with_lane(priority.name()),
            );
        }
        Ok(ticket)
    }

    /// The point-in-time metrics snapshot.
    pub fn snapshot(&self) -> crate::metrics::MetricsSnapshot {
        self.metrics.snapshot(
            self.scheduler.depth(),
            self.cache.stats(),
            self.cache.tuning_stats(),
        )
    }
}

/// The running device: its shared state plus its worker threads. Dropping
/// it fails every queued submission, then joins the workers.
pub(crate) struct Device {
    pub shared: Arc<DeviceShared>,
    workers: Vec<JoinHandle<()>>,
}

impl Device {
    /// Spawns the device for `arch` around `backend` (the tests inject one
    /// that parks, fails or panics on cue): its caches, scheduler, trace
    /// collector and profiler, and `config.workers` worker threads.
    pub fn start(arch: GpuArch, backend: Arc<dyn ExecBackend>, config: &RuntimeConfig) -> Device {
        let shared = Arc::new(DeviceShared {
            cache: PlanCache::new(arch, config.cache_capacity),
            backend,
            metrics: RuntimeMetrics::with_trace(config.trace),
            scheduler: StreamScheduler::new(
                config.max_batch,
                config.max_in_flight,
                LaneWeights::default().as_array(),
            ),
            trace: TraceCollector::new(config.trace),
            profiler: OpProfiler::new(config.trace.profile),
            batch_host_ns: AtomicU64::new(0),
            batch_requests: AtomicU64::new(0),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rf-runtime-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawning a runtime worker failed")
            })
            .collect();
        Device { shared, workers }
    }
}

impl Drop for Device {
    fn drop(&mut self) {
        self.shared.scheduler.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Runs one backend call; a panic inside it becomes
/// [`RuntimeError::ExecutionFailed`] for `workload`, so a panicking kernel
/// fails the one request it was serving and the ledger counts it.
fn unwind_to_error<T>(
    workload: impl FnOnce() -> String,
    call: impl FnOnce() -> Result<T, RuntimeError>,
) -> Result<T, RuntimeError> {
    catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|_| {
        Err(RuntimeError::ExecutionFailed {
            workload: workload(),
        })
    })
}

fn worker_loop(shared: &DeviceShared, worker: usize) {
    while let Some(iteration) = shared.scheduler.next_iteration() {
        // The backstop: backend calls unwind one request at a time, but a
        // panic anywhere else in the iteration must not wedge the device
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

/// Executes one iteration taken off the stream: a shape-compatible workload
/// batch, or a singleton graph.
fn run_iteration(shared: &DeviceShared, worker: usize, iteration: Iteration) {
    let Iteration {
        index,
        lane,
        formed_at,
        work,
    } = iteration;
    let size = work.len();
    match &work[0].submission {
        Submission::Workload { .. } => run_workload_batch(shared, index, formed_at, work),
        Submission::Graph { .. } => {
            for work in work {
                run_graph(shared, index, work);
            }
        }
    }
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
            .with_arg("batch", ArgValue::U64(size as u64))
            .with_arg(
                "occupancy",
                ArgValue::F64(size as f64 / shared.scheduler.max_batch() as f64),
            ),
        );
    }
}

/// Executes one shape-compatible batch through the backend — a
/// cache hit reuses both the tuning and the executable. No scheduler or
/// cache lock is held here: the plan is an `Arc` snapshot and the backend
/// runs on borrowed views of the queued tensors.
fn run_workload_batch(
    shared: &DeviceShared,
    index: u64,
    formed_at: Instant,
    work: Vec<QueuedWork>,
) {
    let Submission::Workload { request, .. } = &work[0].submission else {
        unreachable!("workload iterations contain only workload submissions");
    };
    let workload = request.workload.clone();
    let class = workload.class();
    let plan_started = Instant::now();
    let (plan, cache_hit) = shared.cache.get_or_compile_traced(&workload);
    let plan_ready = Instant::now();
    // Plan acquisition as *this iteration* experienced it: ~0 on a hit, the
    // full compile+tune wall time on a miss (the compiled kernel carries its
    // own tuner share).
    let (compile_us, tune_us) = if cache_hit {
        (0.0, 0.0)
    } else {
        (duration_us(plan_started, plan_ready), plan.timing.tune_us)
    };
    let batch_size = work.len();
    let simulated_us = batch_latency_us(shared.cache.arch(), &plan.profile, batch_size);
    let (mut executed, mut failed) = (0usize, 0usize);
    let mut last_delivered = plan_ready;
    for queued in work {
        let priority = queued.priority();
        let Submission::Workload { request, .. } = &queued.submission else {
            unreachable!("workload iterations contain only workload submissions");
        };
        let outcome = unwind_to_error(
            || request.workload.name(),
            || {
                if !shared.profiler.enabled() {
                    return shared.backend.execute(&plan, request);
                }
                let failed = |_| RuntimeError::ExecutionFailed {
                    workload: request.workload.name(),
                };
                let (output, profile) = plan
                    .run_profiled(&request.input.as_exec())
                    .map_err(failed)?;
                record_op_profile(shared, class, &request.workload.name(), &profile);
                Ok(RequestOutput::from_exec(output))
            },
        );
        let delivered_at = Instant::now();
        last_delivered = delivered_at;
        let timing = RequestTiming {
            queue_us: duration_us(queued.submitted_at, formed_at),
            compile_us,
            tune_us,
            execute_us: duration_us(plan_ready, delivered_at),
            total_us: duration_us(queued.submitted_at, delivered_at),
            iterations_waited: index.saturating_sub(queued.iterations_at_submit + 1),
        };
        let result = outcome.map(|output| Response {
            id: queued.id,
            workload: request.workload.name(),
            output,
            simulated_us,
            batch_size,
            cache_hit,
            iteration: index,
            priority,
            device: 0,
            graph: None,
            timing,
        });
        match &result {
            Ok(_) => {
                executed += 1;
                shared.metrics.record_served(priority, 1);
                shared.metrics.record_timing(priority, &timing);
            }
            Err(_) => {
                failed += 1;
                shared.metrics.record_failed(priority, 1);
            }
        }
        if shared.trace.enabled() {
            record_request_spans(
                shared,
                queued.id,
                priority,
                class,
                index,
                &timing,
                queued.submitted_at,
                plan_started,
                plan_ready,
                batch_size,
                cache_hit,
                result.is_ok(),
            );
        }
        queued.fulfil(result);
    }
    let host_ns = last_delivered
        .saturating_duration_since(plan_ready)
        .as_nanos() as u64;
    shared.batch_host_ns.fetch_add(host_ns, Relaxed);
    shared.batch_requests.fetch_add(batch_size as u64, Relaxed);
    shared
        .metrics
        .record_batch(class, executed, failed, simulated_us, cache_hit);
}

/// Feeds one profiled execution's per-op counts into the op profiler: one
/// folded-stack leaf per op the kernel ran, under the batch's workload class
/// and the request's concrete shape (the region frame).
fn record_op_profile(
    shared: &DeviceShared,
    class: &'static str,
    region: &str,
    profile: &rf_tile::ExecProfile,
) {
    for op in &profile.ops {
        shared.profiler.record(
            class,
            region,
            op.op,
            &OpSample {
                invocations: op.invocations,
                bytes_read: op.bytes_read,
                bytes_written: op.bytes_written,
            },
        );
    }
}

/// Records one served request's lifecycle spans on its own trace track:
/// `queue` (admission → iteration formed), `compile` (miss) or a `hit`
/// instant, `execute` (plan ready → delivery) and a final `deliver` marker.
/// The three spans tile the request's wall-clock life, so their durations sum
/// to its end-to-end latency (up to scheduling gaps).
#[allow(clippy::too_many_arguments)]
fn record_request_spans(
    shared: &DeviceShared,
    id: u64,
    priority: Priority,
    class: &'static str,
    index: u64,
    timing: &RequestTiming,
    submitted_at: Instant,
    plan_started: Instant,
    plan_ready: Instant,
    batch_size: usize,
    cache_hit: bool,
    ok: bool,
) {
    let trace = &shared.trace;
    let track = Track::Request(id);
    let lane = priority.name();
    let plan_start = trace.ts_us_of(plan_started);
    let execute_start = trace.ts_us_of(plan_ready);
    trace.record(
        TraceEvent::span(
            "queue",
            trace.ts_us_of(submitted_at),
            timing.queue_us,
            track,
        )
        .with_request(id)
        .with_lane(lane)
        .with_class(class)
        .with_iteration(index),
    );
    if cache_hit {
        trace.record(
            TraceEvent::instant("hit", execute_start, track)
                .with_request(id)
                .with_class(class),
        );
    } else {
        trace.record(
            TraceEvent::span("compile", plan_start, timing.compile_us, track)
                .with_request(id)
                .with_class(class)
                .with_arg("tune_us", ArgValue::F64(timing.tune_us)),
        );
    }
    trace.record(
        TraceEvent::span("execute", execute_start, timing.execute_us, track)
            .with_request(id)
            .with_lane(lane)
            .with_class(class)
            .with_iteration(index)
            .with_arg("batch", ArgValue::U64(batch_size as u64)),
    );
    trace.record(
        TraceEvent::instant("deliver", execute_start + timing.execute_us, track)
            .with_request(id)
            .with_arg("ok", ArgValue::U64(ok as u64)),
    );
}

/// Serves one graph submission: partitions (unless a plan was supplied),
/// executes the region steps through the plan cache and backend,
/// and answers with the graph outputs plus serving counters.
fn run_graph(shared: &DeviceShared, index: u64, work: QueuedWork) {
    let Submission::Graph {
        graph,
        plan,
        bindings,
        priority,
    } = &work.submission
    else {
        unreachable!("graph iterations contain only graph submissions");
    };
    let priority = *priority;
    let label = work.submission.label();
    let graph = Arc::clone(graph);
    let bindings = Arc::clone(bindings);
    let started = Instant::now();
    let result = unwind_to_error(
        || label.clone(),
        || {
            let plan = plan
                .clone()
                .unwrap_or_else(|| Arc::new(rf_graph::partition(&graph)));
            execute_graph_plan(
                &shared.cache,
                shared.cache.arch(),
                Some(&shared.metrics),
                &graph,
                &plan,
                bindings.as_slice(),
            )
        },
    );
    let delivered_at = Instant::now();
    // For a graph the `execute` stage covers partitioning plus every region
    // step — region compiles hide inside it, so `compile_us` stays zero.
    let timing = RequestTiming {
        queue_us: duration_us(work.submitted_at, started),
        compile_us: 0.0,
        tune_us: 0.0,
        execute_us: duration_us(started, delivered_at),
        total_us: duration_us(work.submitted_at, delivered_at),
        iterations_waited: index.saturating_sub(work.iterations_at_submit + 1),
    };
    if shared.trace.enabled() {
        let trace = &shared.trace;
        let track = Track::Request(work.id);
        let lane = priority.name();
        trace.record(
            TraceEvent::span(
                "queue",
                trace.ts_us_of(work.submitted_at),
                timing.queue_us,
                track,
            )
            .with_request(work.id)
            .with_lane(lane)
            .with_class("graph")
            .with_iteration(index),
        );
        trace.record(
            TraceEvent::span("execute", trace.ts_us_of(started), timing.execute_us, track)
                .with_request(work.id)
                .with_lane(lane)
                .with_class("graph")
                .with_iteration(index),
        );
        trace.record(
            TraceEvent::instant("deliver", trace.ts_us_of(delivered_at), track)
                .with_request(work.id)
                .with_arg("ok", ArgValue::U64(result.is_ok() as u64)),
        );
    }
    match result {
        Ok(graph_response) => {
            let stats = GraphStats {
                fused_regions: graph_response.fused_regions,
                fused_ops: graph_response.fused_ops,
                glue_ops: graph_response.glue_ops,
                region_cache_hits: graph_response.region_cache_hits,
            };
            // "Cache hit" for a graph means every fused region re-used an
            // already-compiled plan.
            let cache_hit =
                stats.fused_regions > 0 && stats.region_cache_hits == stats.fused_regions;
            shared
                .metrics
                .record_batch("graph", 1, 0, graph_response.simulated_us, cache_hit);
            shared.metrics.record_served(priority, 1);
            shared.metrics.record_timing(priority, &timing);
            let id = work.id;
            work.fulfil(Ok(Response {
                id,
                workload: label,
                output: RequestOutput::Tensors(graph_response.outputs),
                simulated_us: graph_response.simulated_us,
                batch_size: 1,
                cache_hit,
                iteration: index,
                priority,
                device: 0,
                graph: Some(stats),
                timing,
            }));
        }
        Err(err) => {
            shared.metrics.record_batch("graph", 0, 1, 0.0, false);
            shared.metrics.record_failed(priority, 1);
            work.fulfil(Err(err));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::sync::Mutex;

    use rf_codegen::CompiledKernel;
    use rf_workloads::Matrix;

    use crate::backend::TileVmBackend;
    use crate::request::Request;

    /// What one scripted `execute` call does before running.
    enum Cue {
        /// Runs straight away.
        Run,
        /// Waits for the test's signal.
        Wait(Receiver<()>),
        /// Panics, as a buggy kernel would.
        Panic,
    }

    /// A tile-VM backend whose `n`-th `execute` call follows the `n`-th cue
    /// of its script, when there is one.
    struct CuedBackend {
        script: Mutex<VecDeque<Cue>>,
    }

    impl CuedBackend {
        /// The backend, and one sender per call in `cued`; `calls` are
        /// scripted in all, and the calls in `panics` panic.
        fn new(
            calls: usize,
            cued: &[usize],
            panics: &[usize],
        ) -> (Arc<CuedBackend>, Vec<Sender<()>>) {
            let mut script: VecDeque<Cue> = (0..calls).map(|_| Cue::Run).collect();
            let mut cues = Vec::new();
            for &call in cued {
                let (tx, rx) = channel();
                script[call] = Cue::Wait(rx);
                cues.push(tx);
            }
            for &call in panics {
                script[call] = Cue::Panic;
            }
            let backend = CuedBackend {
                script: Mutex::new(script),
            };
            (Arc::new(backend), cues)
        }
    }

    impl ExecBackend for CuedBackend {
        fn execute(
            &self,
            plan: &CompiledKernel,
            request: &Request,
        ) -> Result<RequestOutput, RuntimeError> {
            let cue = self.script.lock().unwrap().pop_front();
            match cue {
                Some(Cue::Wait(cue)) => cue.recv().expect("the test drives every cue"),
                Some(Cue::Panic) => panic!("scripted kernel panic"),
                Some(Cue::Run) | None => {}
            }
            TileVmBackend.execute(plan, request)
        }
    }

    #[test]
    fn a_delivered_ticket_is_already_counted() {
        // Call 0 is a plug that holds the one worker while two same-shape
        // requests queue up behind it, so they form one batch of two; call 2,
        // the batch's second request, is held until the first request's
        // waiter has read the counters.
        let (backend, cues) = CuedBackend::new(3, &[0, 2], &[]);
        let config = RuntimeConfig::builder()
            .workers(1)
            .max_batch(2)
            .build()
            .unwrap();
        let device = Device::start(GpuArch::a10(), backend, &config);
        let shared = Arc::clone(&device.shared);
        let submit = |id: u64, cols: usize| {
            let request = Request::softmax(Matrix::random(2, cols, id, -1.0, 1.0));
            shared.enqueue(id, Submission::workload(request)).unwrap()
        };
        let plug = submit(0, 8);
        let first = submit(1, 16);
        let second = submit(2, 16);
        cues[0].send(()).unwrap();
        plug.wait().unwrap();
        let response = first.wait().unwrap();
        assert_eq!(response.batch_size, 2, "the two requests share a batch");
        // The batch is still open — its second request has not executed — and
        // the first one's client already has its result: it must be counted.
        let snapshot = shared.snapshot();
        assert_eq!(snapshot.completed, 2, "the plug and the delivered request");
        assert_eq!(snapshot.lanes[Priority::Normal.lane()].completed, 2);
        cues[1].send(()).unwrap();
        second.wait().unwrap();
        assert_eq!(shared.snapshot().completed, 3);
        // Batch-level counters follow once the iteration is finished.
        shared.scheduler.wait_drained();
        let snapshot = shared.snapshot();
        assert_eq!((snapshot.completed, snapshot.failed), (3, 0));
        assert_eq!(snapshot.batches, 2);
        drop(device);
    }

    #[test]
    fn a_panicking_kernel_fails_only_its_own_request() {
        // Call 0 is a plug that holds the one worker while four same-shape
        // requests queue up behind it, so they form one batch of four; call
        // 2, the batch's second request, panics.
        let (backend, cues) = CuedBackend::new(5, &[0], &[2]);
        let config = RuntimeConfig::builder()
            .workers(1)
            .max_batch(4)
            .build()
            .unwrap();
        let device = Device::start(GpuArch::a10(), backend, &config);
        let shared = Arc::clone(&device.shared);
        let submit = |id: u64, cols: usize| {
            let request = Request::softmax(Matrix::random(2, cols, id, -1.0, 1.0));
            shared.enqueue(id, Submission::workload(request)).unwrap()
        };
        let plug = submit(0, 8);
        let batch: Vec<Ticket> = (1..=4).map(|id| submit(id, 16)).collect();
        cues[0].send(()).unwrap();
        plug.wait().unwrap();
        let outcomes: Vec<_> = batch.into_iter().map(Ticket::wait).collect();
        let failed: Vec<usize> = (0..4).filter(|&i| outcomes[i].is_err()).collect();
        assert_eq!(failed, [1], "only the panicking request fails");
        assert!(matches!(
            &outcomes[1],
            Err(RuntimeError::ExecutionFailed { workload }) if workload == "softmax_2x16"
        ));
        for response in outcomes.iter().filter_map(|o| o.as_ref().ok()) {
            assert_eq!(response.batch_size, 4, "the four requests share a batch");
        }
        // The failure went through the ledger: nothing is lost or uncounted.
        shared.scheduler.wait_drained();
        let snapshot = shared.snapshot();
        assert_eq!(
            (snapshot.submitted, snapshot.completed, snapshot.failed),
            (5, 4, 1)
        );
        assert_eq!(snapshot.submitted, snapshot.completed + snapshot.failed);
        assert_eq!(snapshot.classes[0].failed, 1);
        drop(device);
    }

    #[test]
    fn a_shed_retry_hint_is_on_the_host_clock() {
        // Call 0 is held ≥ 10 ms past its iteration's start, so one request
        // has cost this device ≥ 5 ms of host time; call 1 then fills the
        // one-slot budget and the next submission is shed. Its hint must
        // reflect the host cost, not the few simulated microseconds.
        let (backend, cues) = CuedBackend::new(2, &[0, 1], &[]);
        let config = RuntimeConfig::builder()
            .workers(1)
            .max_batch(1)
            .max_in_flight(1)
            .build()
            .unwrap();
        let device = Device::start(GpuArch::a10(), backend, &config);
        let shared = Arc::clone(&device.shared);
        let request = |seed: u64| Request::softmax(Matrix::random(2, 16, seed, -1.0, 1.0));
        // A warm plan: the iteration reaches `execute` without compiling.
        shared.cache.get_or_compile(&request(0).workload);
        let held = shared.enqueue(0, Submission::workload(request(0))).unwrap();
        while shared.scheduler.iterations() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_millis(10));
        cues[0].send(()).unwrap();
        held.wait().unwrap();
        shared.scheduler.wait_drained();
        let plug = shared.enqueue(1, Submission::workload(request(1))).unwrap();
        let err = shared
            .enqueue(2, Submission::workload(request(2)))
            .unwrap_err();
        let RuntimeError::Overloaded { retry_hint, .. } = err else {
            panic!("a full budget sheds, got {err:?}");
        };
        assert!(
            retry_hint >= Duration::from_millis(5),
            "the hint follows the host cost of a request, got {retry_hint:?}"
        );
        cues[1].send(()).unwrap();
        plug.wait().unwrap();
        drop(device);
    }
}
