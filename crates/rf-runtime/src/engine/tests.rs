use super::*;
use crate::request::{execute_reference, Request, RequestInput, RequestOutput};
use crate::submit::{Priority, Response};
use rf_codegen::{CompiledKernel, Workload};
use rf_workloads::{moe_tiny, random_matrix, Matrix};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

fn tiny_engine(workers: usize) -> Engine {
    Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(workers)
            .max_batch(4)
            .cache_capacity(16)
            .build()
            .unwrap(),
    )
}

/// What one scripted `execute` call does before running.
enum Cue {
    /// Runs straight away.
    Run,
    /// Waits for the test's signal.
    Wait(Receiver<()>),
    /// Panics, as a buggy kernel would.
    Panic,
}

/// A tile-VM backend whose `n`-th `execute` call follows the `n`-th cue of
/// its script, when there is one.
struct CuedBackend {
    script: Mutex<VecDeque<Cue>>,
}

impl CuedBackend {
    /// The backend, and one sender per call in `cued`; `calls` are scripted
    /// in all, and the calls in `panics` panic.
    fn new(calls: usize, cued: &[usize], panics: &[usize]) -> (Arc<CuedBackend>, Vec<Sender<()>>) {
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

/// A one-worker engine around `backend` with the given batch bound and
/// in-flight budget.
fn cued_engine(backend: Arc<CuedBackend>, max_batch: usize, max_in_flight: usize) -> Engine {
    let config = RuntimeConfig::builder()
        .workers(1)
        .max_batch(max_batch)
        .max_in_flight(max_in_flight)
        .build()
        .unwrap();
    Engine::start(GpuArch::a10(), backend, &config)
}

fn softmax(seed: u64, cols: usize) -> Request {
    Request::softmax(Matrix::random(2, cols, seed, -1.0, 1.0))
}

/// The end-to-end wall-clock summary of a snapshot.
fn e2e(metrics: &MetricsSnapshot) -> rf_trace::HistogramSnapshot {
    let stage = metrics.stages.iter().find(|s| s.stage == "e2e");
    stage.expect("the e2e stage is reported").wall
}

#[test]
fn served_results_match_the_reference_kernels() {
    let engine = tiny_engine(2);
    let requests: Vec<Request> = (0..6)
        .map(|seed| Request::softmax(random_matrix(2, 32, seed, -2.0, 2.0)))
        .collect();
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| engine.submit(r.clone()).unwrap())
        .collect();
    engine.run_until_drained();
    for (request, ticket) in requests.iter().zip(tickets) {
        let result = ticket.wait().unwrap();
        let oracle = execute_reference(&request.workload, &request.input);
        assert!(result.output.approx_eq(&oracle, 1e-9));
        assert!(result.iteration >= 1, "responses carry their iteration");
        assert_eq!(result.priority, Priority::Normal);
        assert_eq!(result.device, 0, "`Response::device` is always 0");
        assert_eq!(
            result.simulated_us, 0.0,
            "`Response::simulated_us` is always 0"
        );
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.completed, 6);
    assert_eq!(metrics.queue_depth, 0);
    assert_eq!(metrics.shed, 0);
    assert_eq!(metrics.cache.misses, 1, "one shape => one compile");
    assert_eq!(e2e(&metrics).count, 6);
    assert!(e2e(&metrics).p99_us >= e2e(&metrics).p50_us);
}

#[test]
fn invalid_requests_are_rejected_at_the_front_door() {
    let engine = tiny_engine(1);
    let c = moe_tiny();
    let err = engine
        .submit(Request {
            workload: Workload::Moe(c.clone()),
            input: RequestInput::Rows(random_matrix(2, 4, 1, 0.0, 1.0)),
        })
        .unwrap_err();
    assert!(matches!(err, RuntimeError::InputMismatch { .. }));
    assert_eq!(err.code(), "input_mismatch");
    assert_eq!(engine.metrics().submitted, 0);
}

#[test]
fn a_zero_row_shape_is_refused_before_it_reaches_the_compiler() {
    // `compile_workload` asserts on a cascade of zero rows; the front door
    // refuses the shape first, and the engine serves the next request.
    let engine = tiny_engine(1);
    let err = engine
        .submit(Request {
            workload: Workload::Softmax { rows: 0, len: 8 },
            input: RequestInput::Rows(Matrix::from_vec(0, 8, Vec::new())),
        })
        .unwrap_err();
    assert!(matches!(err, RuntimeError::ShapeMismatch { .. }));
    assert!(err.to_string().contains("rows must be non-empty"), "{err}");
    let next = softmax(1, 8);
    let ticket = engine.submit(next.clone()).unwrap();
    engine.run_until_drained();
    let oracle = execute_reference(&next.workload, &next.input);
    assert!(ticket.wait().unwrap().output.approx_eq(&oracle, 1e-9));
    let metrics = engine.metrics();
    assert_eq!((metrics.submitted, metrics.completed), (1, 1));
    assert_eq!(metrics.cache.misses, 1, "only the served shape compiles");
}

#[test]
fn invalid_configs_panic_with_the_typed_detail() {
    let config = RuntimeConfig {
        workers: 0,
        ..RuntimeConfig::default()
    };
    let panic = std::panic::catch_unwind(|| Engine::with_config(GpuArch::a10(), config))
        .expect_err("zero workers must be rejected");
    let message = panic
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(message.contains("workers"), "got: {message}");
}

#[test]
fn try_with_config_returns_the_typed_error_instead_of_panicking() {
    let err = Engine::try_with_config(
        GpuArch::a10(),
        RuntimeConfig {
            workers: 0,
            ..RuntimeConfig::default()
        },
    )
    .unwrap_err();
    assert_eq!(err.code(), "invalid_config");
    assert!(err.to_string().contains("workers"));
    // And the happy path actually serves.
    let engine = Engine::try_with_config(GpuArch::a10(), RuntimeConfig::default()).unwrap();
    let response = engine
        .submit(Request::softmax(random_matrix(2, 16, 1, -1.0, 1.0)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(response.workload, "softmax_2x16");
}

#[test]
fn drop_fails_pending_tickets_cleanly() {
    let engine = tiny_engine(1);
    // Queue more work than one worker can finish instantly, then drop.
    let tickets: Vec<Ticket> = (0..16)
        .map(|seed| {
            engine
                .submit(Request::softmax(random_matrix(8, 128, seed, -1.0, 1.0)))
                .unwrap()
        })
        .collect();
    drop(engine);
    for ticket in tickets {
        match ticket.wait() {
            Ok(result) => assert_eq!(result.workload, "softmax_8x128"),
            Err(err) => assert_eq!(err, RuntimeError::ShuttingDown),
        }
    }
}

#[test]
fn failed_executions_are_counted_as_failures_not_completions() {
    use rf_workloads::inertia_tiny;
    // A massless inertia system passes shape validation but is rejected by
    // the VM at execution time: the ticket must receive the error and the
    // metrics must report a failure, not a served request.
    let engine = tiny_engine(1);
    let inertia = inertia_tiny();
    let ticket = engine
        .submit(
            Request::new(
                Workload::Inertia(inertia.clone()),
                RequestInput::Inertia {
                    masses: vec![0.0; 8],
                    positions: random_matrix(8, inertia.dim, 1, -1.0, 1.0),
                },
            )
            .unwrap(),
        )
        .unwrap();
    engine.run_until_drained();
    let err = ticket.wait().unwrap_err();
    assert!(matches!(err, RuntimeError::ExecutionFailed { .. }));
    assert_eq!(err.code(), "execution_failed");
    assert!(
        err.to_string().contains("total mass must be positive"),
        "the VM's reason reaches the ticket: {err}"
    );
    let metrics = engine.metrics();
    assert_eq!(metrics.submitted, 1);
    assert_eq!(metrics.completed, 0);
    assert_eq!(metrics.failed, 1);
    assert_eq!(e2e(&metrics).count, 0, "failures contribute no latency");
    let class = &metrics.classes[0];
    assert_eq!(
        (class.class, class.completed, class.failed),
        ("inertia", 0, 1)
    );
    metrics.assert_exported("redfuser_requests_total{outcome=\"failed\"} 1");
    let failed = "redfuser_class_requests_total{class=\"inertia\",outcome=\"failed\"} 1";
    metrics.assert_exported(failed);
}

#[test]
fn metrics_break_down_per_workload_class() {
    use rf_workloads::variance_tiny;
    let engine = tiny_engine(2);
    let var = variance_tiny();
    for seed in 0..4 {
        engine
            .submit(Request::softmax(random_matrix(2, 32, seed, -1.0, 1.0)))
            .unwrap();
        engine
            .submit(
                Request::new(
                    Workload::Variance(var.clone()),
                    RequestInput::Rows(random_matrix(3, var.l, seed + 50, -2.0, 2.0)),
                )
                .unwrap(),
            )
            .unwrap();
    }
    engine.run_until_drained();
    let metrics = engine.metrics();
    assert_eq!(metrics.completed, 8);
    let classes: Vec<&str> = metrics.classes.iter().map(|c| c.class).collect();
    assert_eq!(classes, ["softmax", "variance"]);
    for class in &metrics.classes {
        assert_eq!(class.completed, 4);
        assert!(class.batches >= 1);
    }
    let total_class_batches: u64 = metrics.classes.iter().map(|c| c.batches).sum();
    assert_eq!(total_class_batches, metrics.batches);
    for class in ["softmax", "variance"] {
        let completed =
            format!("redfuser_class_requests_total{{class=\"{class}\",outcome=\"completed\"}} 4");
        metrics.assert_exported(&completed);
    }
}

#[test]
fn graph_serving_shares_the_engine_cache_and_surfaces_metrics() {
    use rf_graph::builders;
    let engine = tiny_engine(1);
    let graph = Arc::new(builders::moe_block(4, 8, 4));
    let bindings: Vec<(String, rf_workloads::Matrix)> = builders::moe_block_inputs(4, 8, 4, 3)
        .into_iter()
        .map(|(n, m)| (n.to_string(), m))
        .collect();
    let serve = || -> Response {
        engine
            .submit(Submission::graph(Arc::clone(&graph), bindings.clone()))
            .unwrap()
            .wait()
            .unwrap()
    };
    let first = serve();
    let second = serve();
    assert_eq!(first.output, second.output);
    let first_stats = first.graph.expect("graph stats attached");
    let second_stats = second.graph.expect("graph stats attached");
    assert_eq!(first_stats.region_cache_hits, 0);
    assert_eq!(
        second_stats.region_cache_hits, 1,
        "the region plan is cached"
    );
    let metrics = engine.metrics();
    assert_eq!(metrics.graphs_served, 2);
    assert_eq!(metrics.graph_fused_ops, 2 * first_stats.fused_ops as u64);
    assert_eq!(metrics.graph_glue_ops, 2 * first_stats.glue_ops as u64);
    assert_eq!((metrics.region_hits, metrics.region_lookups), (1, 2));
    metrics.assert_exported("redfuser_graphs_total 2");
    metrics.assert_exported("redfuser_region_plan_cache_total{result=\"hit\"} 1");
    metrics.assert_exported("redfuser_region_plan_cache_total{result=\"miss\"} 1");
    // Graphs ride the unified stream, so they also count as served requests
    // under the "graph" class.
    assert_eq!(metrics.submitted, 2);
    assert_eq!(metrics.completed, 2);
    assert!(metrics.classes.iter().any(|c| c.class == "graph"));
    // The routing-softmax region landed in the same plan cache the request
    // path uses.
    assert_eq!(metrics.cache.misses, 1);
}

#[test]
fn unified_submit_serves_graphs_asynchronously() {
    use rf_graph::builders;
    let engine = tiny_engine(2);
    let graph = Arc::new(builders::moe_block(4, 8, 4));
    let bindings: Vec<(String, rf_workloads::Matrix)> = builders::moe_block_inputs(4, 8, 4, 3)
        .into_iter()
        .map(|(n, m)| (n.to_string(), m))
        .collect();
    let reference = graph
        .evaluate(&builders::moe_block_inputs(4, 8, 4, 3))
        .unwrap();
    let ticket = engine
        .submit(Submission::graph(Arc::clone(&graph), bindings).with_priority(Priority::High))
        .unwrap();
    let response = ticket.wait().unwrap();
    assert_eq!(response.priority, Priority::High);
    assert_eq!(response.batch_size, 1, "graphs are singleton iterations");
    let stats = response.graph.expect("graph stats attached");
    assert!(stats.fused_regions >= 1);
    let RequestOutput::Tensors(outputs) = &response.output else {
        panic!("graph submissions produce tensors");
    };
    assert_eq!(outputs.len(), reference.len());
    assert!(outputs[0].max_abs_diff(&reference[0]) < 1e-9);
    assert!(response.workload.starts_with("graph["));
}

#[test]
fn mean_batch_size_grows_when_shapes_repeat() {
    let engine = Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(1)
            .max_batch(8)
            .cache_capacity(16)
            .build()
            .unwrap(),
    );
    for seed in 0..8 {
        engine
            .submit(Request::softmax(random_matrix(2, 64, seed, -1.0, 1.0)))
            .unwrap();
    }
    engine.run_until_drained();
    let metrics = engine.metrics();
    assert_eq!(metrics.completed, 8);
    assert!(
        metrics.mean_batch_size > 1.0,
        "identical shapes should have been batched (mean {})",
        metrics.mean_batch_size
    );
}

#[test]
fn overload_sheds_are_counted_per_lane() {
    // One worker, a budget of 2: flood the engine and require typed, counted
    // sheds while everything admitted still completes.
    let engine = Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(1)
            .max_batch(2)
            .max_in_flight(2)
            .cache_capacity(8)
            .build()
            .unwrap(),
    );
    let mut admitted = Vec::new();
    let mut sheds = 0usize;
    for seed in 0..64 {
        match engine.submit(Request::softmax(random_matrix(8, 256, seed, -1.0, 1.0))) {
            Ok(ticket) => admitted.push(ticket),
            Err(err @ RuntimeError::Overloaded { .. }) => {
                assert_eq!(err.code(), "overloaded");
                sheds += 1;
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    engine.run_until_drained();
    for ticket in admitted {
        ticket.wait().unwrap();
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.shed as usize, sheds);
    assert_eq!(metrics.submitted + metrics.shed, 64);
    assert_eq!(metrics.completed, metrics.submitted);
    let normal = &metrics.lanes[Priority::Normal.lane()];
    assert_eq!(normal.shed as usize, sheds);
    assert_eq!(normal.completed, metrics.completed);
    metrics.assert_exported(&format!(
        "redfuser_requests_total{{outcome=\"shed\"}} {sheds}"
    ));
    if sheds > 0 {
        assert!(metrics.shed_retry_last_us > 0.0, "sheds carry retry hints");
        assert!(metrics.shed_retry_sum_us > 0);
        assert!(normal.shed_rate() > 0.0);
        let sum = format!(
            "redfuser_shed_retry_hint_us_total {}",
            metrics.shed_retry_sum_us
        );
        metrics.assert_exported(&sum);
    }
}

#[test]
fn responses_carry_a_wall_clock_timing_breakdown() {
    let engine = tiny_engine(1);
    let first = engine
        .submit(Request::softmax(random_matrix(2, 64, 1, -1.0, 1.0)))
        .unwrap()
        .wait()
        .unwrap();
    let timing = *first.timing();
    assert!(!first.cache_hit);
    assert!(timing.total_us > 0.0);
    assert!(timing.execute_us > 0.0);
    assert!(
        timing.compile_us > 0.0,
        "the first request of a shape pays the compile"
    );
    assert!(timing.accounted_us() <= timing.total_us * 1.001);
    // Same shape again: served off the cache, so no compile share.
    let second = engine
        .submit(Request::softmax(random_matrix(2, 64, 2, -1.0, 1.0)))
        .unwrap()
        .wait()
        .unwrap();
    assert!(second.cache_hit);
    assert_eq!(second.timing().compile_us, 0.0);
    // The stage histograms saw both requests.
    let metrics = engine.metrics();
    let e2e = metrics.stages.iter().find(|s| s.stage == "e2e").unwrap();
    assert_eq!(e2e.wall.count, 2);
    let compile = metrics
        .stages
        .iter()
        .find(|s| s.stage == "compile")
        .unwrap();
    assert_eq!(compile.wall.count, 1, "cache hits record no compile sample");
}

#[test]
fn full_tracing_exports_a_valid_nested_chrome_trace() {
    let engine = Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(2)
            .max_batch(4)
            .trace_level(rf_trace::TraceLevel::Full)
            .build()
            .unwrap(),
    );
    let tickets: Vec<Ticket> = (0..8)
        .map(|seed| {
            engine
                .submit(Request::softmax(random_matrix(2, 32, seed, -1.0, 1.0)))
                .unwrap()
        })
        .collect();
    engine.run_until_drained();
    let responses: Vec<Response> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
    let snapshot = engine.trace_snapshot();
    assert_eq!(snapshot.dropped, 0);
    // Every lifecycle stage appears, plus worker iteration spans.
    for name in ["submit", "queue", "execute", "deliver", "iteration"] {
        assert!(
            snapshot.events.iter().any(|e| e.name == name),
            "trace must contain `{name}` events"
        );
    }
    let json = engine.chrome_trace();
    // Every event renders under the one engine process.
    assert_eq!(json.matches("\"process_name\"").count(), 1);
    let stats = rf_trace::validate_chrome_trace(&json).expect("trace must be well-formed");
    assert!(stats.spans >= 8 * 2, "≥ queue+execute per request");
    assert!(stats.request_tracks >= 1);
    // Each request's spans are its `RequestTiming`, laid end to end on its
    // own track: they sum to the accounted stages, which fit in the e2e
    // latency, and they neither overlap nor leave their order.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let in_order = |before: f64, after: f64| before <= after || close(before, after);
    let end = |e: &TraceEvent| e.ts_us + e.dur_us;
    for response in &responses {
        let timing = response.timing();
        let spans: Vec<&TraceEvent> = snapshot
            .events
            .iter()
            .filter(|e| e.request == Some(response.id) && e.track == Track::Request(response.id))
            .collect();
        let one = |names: &[&str]| {
            let found: Vec<&&TraceEvent> =
                spans.iter().filter(|e| names.contains(&e.name)).collect();
            assert_eq!(
                found.len(),
                1,
                "request {} has one of {names:?}",
                response.id
            );
            *found[0]
        };
        let (queue, acquire, execute) =
            (one(&["queue"]), one(&["compile", "hit"]), one(&["execute"]));
        let span_sum: f64 = spans.iter().map(|e| e.dur_us).sum();
        assert!(
            close(span_sum, timing.accounted_us()),
            "spans {span_sum} us vs accounted {} us",
            timing.accounted_us()
        );
        assert!(in_order(timing.accounted_us(), timing.total_us));
        assert!(
            in_order(end(queue), acquire.ts_us),
            "queue ends before the plan is acquired"
        );
        assert!(
            in_order(end(acquire), execute.ts_us),
            "the plan is acquired before execute"
        );
        assert_eq!(
            one(&["deliver"]).ts_us,
            end(execute),
            "deliver sits at the end of execute"
        );
    }
}

#[test]
fn tracing_off_records_no_spans_but_still_times_responses() {
    let engine = Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(1)
            .trace(rf_trace::TraceConfig::off())
            .build()
            .unwrap(),
    );
    let response = engine
        .submit(Request::softmax(random_matrix(2, 32, 7, -1.0, 1.0)))
        .unwrap()
        .wait()
        .unwrap();
    assert!(
        response.timing().total_us > 0.0,
        "timing is always measured"
    );
    assert!(engine.trace_snapshot().events.is_empty());
    assert_eq!(engine.trace_collector().dropped(), 0);
    let metrics = engine.metrics();
    assert_eq!(metrics.trace_level, rf_trace::TraceLevel::Off);
    assert!(metrics.stages.iter().all(|s| s.wall.count == 0));
    assert!(metrics.lanes.iter().all(|l| l.wall.count == 0));
    // The counters are on at every level; a batch is recorded once its
    // iteration finishes.
    engine.run_until_drained();
    assert_eq!(engine.metrics().batches, 1);
}

#[test]
fn graph_submissions_time_their_execute_stage() {
    use rf_graph::builders;
    let engine = Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(1)
            .trace_level(rf_trace::TraceLevel::Full)
            .build()
            .unwrap(),
    );
    let graph = Arc::new(builders::moe_block(4, 8, 4));
    let bindings: Vec<(String, rf_workloads::Matrix)> = builders::moe_block_inputs(4, 8, 4, 3)
        .into_iter()
        .map(|(n, m)| (n.to_string(), m))
        .collect();
    let response = engine
        .submit(Submission::graph(graph, bindings))
        .unwrap()
        .wait()
        .unwrap();
    let timing = response.timing();
    assert!(timing.execute_us > 0.0);
    assert_eq!(
        timing.compile_us, 0.0,
        "region compiles hide inside execute"
    );
    assert!(timing.total_us >= timing.execute_us);
    let snapshot = engine.trace_snapshot();
    assert!(snapshot
        .events
        .iter()
        .any(|e| e.name == "execute" && e.class == Some("graph")));
    rf_trace::validate_chrome_trace(&engine.chrome_trace()).expect("graph trace well-formed");
}

#[test]
fn rates_over_an_interval_are_differences_of_exported_counters() {
    const BURST: u64 = 6;
    let engine = tiny_engine(2);
    let burst = |first_seed: u64| {
        let tickets: Vec<Ticket> = (first_seed..first_seed + BURST)
            .map(|seed| {
                engine
                    .submit(Request::softmax(random_matrix(4, 64, seed, -1.0, 1.0)))
                    .unwrap()
            })
            .collect();
        engine.run_until_drained();
        for ticket in tickets {
            ticket.wait().unwrap();
        }
    };
    // The first burst pays the compile; the interval is the second.
    burst(0);
    let before = engine.metrics();
    burst(BURST);
    let after = engine.metrics();
    assert_eq!(after.trace_level, rf_trace::TraceLevel::Histograms);
    assert_eq!(after.completed - before.completed, BURST);
    assert!(after.batches - before.batches >= 1);
    let (served, wall) = (e2e(&after), e2e(&before));
    assert_eq!(served.count - wall.count, BURST);
    assert!(served.sum_us > wall.sum_us, "the interval took host time");
    // Both readings are exported counters; no windowed gauge is.
    let text = after.prometheus();
    for line in [
        format!(
            "redfuser_requests_total{{outcome=\"completed\"}} {}",
            after.completed
        ),
        format!(
            "redfuser_stage_wall_us_count{{stage=\"e2e\"}} {}",
            served.count
        ),
        format!(
            "redfuser_stage_wall_us_sum{{stage=\"e2e\"}} {}",
            served.sum_us
        ),
    ] {
        assert!(text.lines().any(|l| l == line), "no `{line}` in:\n{text}");
    }
    assert!(!text.contains("window"), "{text}");
}

#[test]
fn op_profiler_captures_folded_stacks_only_when_enabled() {
    let engine = Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(1)
            .trace(rf_trace::TraceConfig::default().with_profile(true))
            .build()
            .unwrap(),
    );
    engine
        .submit(Request::softmax(random_matrix(4, 64, 1, -2.0, 2.0)))
        .unwrap()
        .wait()
        .unwrap();
    let profile = engine.op_profile();
    assert!(!profile.is_empty(), "profiling was on");
    let folded = profile.folded();
    let frames = rf_trace::validate_folded(&folded).expect("folded output validates");
    assert!(frames >= 3, "softmax runs several op kinds, got {frames}");
    assert!(
        folded
            .lines()
            .all(|l| l.starts_with("softmax;softmax_4x64;")),
        "frames are class;region;op:\n{folded}"
    );
    // Without the opt-in the profiler records nothing.
    let plain = tiny_engine(1);
    plain
        .submit(Request::softmax(random_matrix(4, 64, 1, -2.0, 2.0)))
        .unwrap()
        .wait()
        .unwrap();
    assert!(plain.op_profile().is_empty());
}

#[test]
fn a_delivered_ticket_is_already_counted() {
    // Call 0 is a plug that holds the one worker while two same-shape
    // requests queue up behind it, so they form one batch of two; call 2,
    // the batch's second request, is held until the first request's waiter
    // has read the counters.
    let (backend, cues) = CuedBackend::new(3, &[0, 2], &[]);
    let engine = cued_engine(backend, 2, 1024);
    let plug = engine.submit(softmax(0, 8)).unwrap();
    let first = engine.submit(softmax(1, 16)).unwrap();
    let second = engine.submit(softmax(2, 16)).unwrap();
    cues[0].send(()).unwrap();
    plug.wait().unwrap();
    let response = first.wait().unwrap();
    assert_eq!(response.batch_size, 2, "the two requests share a batch");
    // The batch is still open — its second request has not executed — and
    // the first one's client already has its result: it must be counted.
    let snapshot = engine.metrics();
    assert_eq!(snapshot.completed, 2, "the plug and the delivered request");
    assert_eq!(snapshot.lanes[Priority::Normal.lane()].completed, 2);
    cues[1].send(()).unwrap();
    second.wait().unwrap();
    assert_eq!(engine.metrics().completed, 3);
    // Batch-level counters follow once the iteration is finished.
    engine.run_until_drained();
    let snapshot = engine.metrics();
    assert_eq!((snapshot.completed, snapshot.failed), (3, 0));
    assert_eq!(snapshot.batches, 2);
}

#[test]
fn a_panicking_kernel_fails_only_its_own_request() {
    // Call 0 is a plug that holds the one worker while four same-shape
    // requests queue up behind it, so they form one batch of four; call 2,
    // the batch's second request, panics.
    let (backend, cues) = CuedBackend::new(5, &[0], &[2]);
    let engine = cued_engine(backend, 4, 1024);
    let plug = engine.submit(softmax(0, 8)).unwrap();
    let batch: Vec<Ticket> = (1..=4)
        .map(|seed| engine.submit(softmax(seed, 16)).unwrap())
        .collect();
    cues[0].send(()).unwrap();
    plug.wait().unwrap();
    let outcomes: Vec<_> = batch.into_iter().map(Ticket::wait).collect();
    let failed: Vec<usize> = (0..4).filter(|&i| outcomes[i].is_err()).collect();
    assert_eq!(failed, [1], "only the panicking request fails");
    assert!(matches!(
        &outcomes[1],
        Err(RuntimeError::ExecutionFailed { workload, .. }) if workload == "softmax_2x16"
    ));
    for response in outcomes.iter().filter_map(|o| o.as_ref().ok()) {
        assert_eq!(response.batch_size, 4, "the four requests share a batch");
    }
    // The failure went through the ledger: nothing is lost or uncounted.
    engine.run_until_drained();
    let snapshot = engine.metrics();
    assert_eq!(
        (snapshot.submitted, snapshot.completed, snapshot.failed),
        (5, 4, 1)
    );
    assert_eq!(snapshot.submitted, snapshot.completed + snapshot.failed);
    assert_eq!(snapshot.classes[0].failed, 1);
}

#[test]
fn a_shed_retry_hint_is_on_the_host_clock() {
    // Call 0 is held ≥ 10 ms past its iteration's start, so one request has
    // cost the engine ≥ 5 ms of host time; call 1 then fills the one-slot
    // budget and the next submission is shed. Its hint must reflect that host
    // cost.
    let (backend, cues) = CuedBackend::new(2, &[0, 1], &[]);
    let engine = cued_engine(backend, 1, 1);
    // A warm plan: the iteration reaches `execute` without compiling.
    engine.shared.cache.get_or_compile(&softmax(0, 16).workload);
    let held = engine.submit(softmax(0, 16)).unwrap();
    while engine.iterations() == 0 {
        std::thread::yield_now();
    }
    std::thread::sleep(Duration::from_millis(10));
    cues[0].send(()).unwrap();
    held.wait().unwrap();
    engine.run_until_drained();
    let plug = engine.submit(softmax(1, 16)).unwrap();
    let err = engine.submit(softmax(2, 16)).unwrap_err();
    let RuntimeError::Overloaded { retry_hint, .. } = err else {
        panic!("a full budget sheds, got {err:?}");
    };
    assert!(
        retry_hint >= Duration::from_millis(5),
        "the hint follows the host cost of a request, got {retry_hint:?}"
    );
    cues[1].send(()).unwrap();
    plug.wait().unwrap();
}

#[test]
fn execute_us_is_the_requests_own_execution() {
    // Call 0 is a plug that holds the one worker while three same-shape
    // requests queue up behind it, so they form one batch of three. Each
    // request's execution starts after the one before it is delivered, so
    // its stages and the executions of the batch-mates before it all fit in
    // its total. A request charged from the batch's plan-ready instant
    // instead would count its batch-mates' executions twice.
    let (backend, cues) = CuedBackend::new(4, &[0], &[]);
    let engine = cued_engine(backend, 3, 1024);
    let plug = engine.submit(softmax(0, 8)).unwrap();
    let batch: Vec<Ticket> = (1..=3)
        .map(|seed| engine.submit(softmax(seed, 16)).unwrap())
        .collect();
    cues[0].send(()).unwrap();
    plug.wait().unwrap();
    let responses: Vec<Response> = batch.into_iter().map(|t| t.wait().unwrap()).collect();
    assert!(responses.iter().all(|r| r.batch_size == 3));
    for (k, response) in responses.iter().enumerate() {
        let timing = response.timing;
        let mates: f64 = responses[..k].iter().map(|r| r.timing.execute_us).sum();
        assert!(
            timing.accounted_us() + mates <= timing.total_us + 1e-3,
            "request {k}: stages {timing:?} and batch-mates' {mates} us exceed its total"
        );
    }
}
