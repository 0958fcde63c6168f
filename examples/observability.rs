//! Observability walkthrough: run a mixed workload + graph burst with full
//! tracing enabled, then read the run back three ways — per-request
//! [`Response::timing`] breakdowns, the per-stage wall-time percentiles of
//! the metrics snapshot, and its Prometheus text exposition — and finally
//! export a Chrome trace-event document that loads in Perfetto.
//!
//! Run with `cargo run --example observability`.

use std::sync::Arc;

use redfuser::gpusim::GpuArch;
use redfuser::graph::builders;
use redfuser::runtime::{
    Engine, Priority, Request, RuntimeConfig, Submission, TraceConfig, TraceLevel,
};
use redfuser::workloads::random_matrix;

pub fn main() {
    // 1. Telemetry is part of the engine config. `TraceLevel::Histograms`
    //    (the default) keeps per-stage latency histograms with no span
    //    buffer; `TraceLevel::Full` additionally records per-request spans
    //    into a bounded ring buffer for Chrome-trace export. `Off` disables
    //    both — submissions still carry `Response::timing()` either way.
    let config = RuntimeConfig::builder()
        .workers(2)
        .max_batch(8)
        .max_in_flight(128)
        .trace(TraceConfig::full())
        .build()
        .expect("the configuration is valid");
    let engine = Engine::with_config(GpuArch::h800(), config);
    assert_eq!(engine.trace_collector().level(), TraceLevel::Full);

    // 2. A small mixed burst: softmax requests across the three priority
    //    lanes plus one whole operator graph through the same front door.
    let mut tickets = Vec::new();
    for seed in 0..24u64 {
        let lane = match seed % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        let request = Request::softmax(random_matrix(4, 128, seed, -2.0, 2.0));
        tickets.push(
            engine
                .submit(Submission::workload(request).with_priority(lane))
                .expect("the engine has budget for the burst"),
        );
    }
    let graph = Arc::new(builders::moe_block(4, 8, 4));
    let bindings: Vec<(String, _)> = builders::moe_block_inputs(4, 8, 4, 7)
        .into_iter()
        .map(|(name, matrix)| (name.to_string(), matrix))
        .collect();
    tickets.push(
        engine
            .submit(Submission::graph(graph, bindings))
            .expect("graph accepted"),
    );
    engine.run_until_drained();

    // 3. Every response carries a wall-clock breakdown: queue wait, plan
    //    acquisition (compile + tune on a cache miss, ~0 on a hit), its own
    //    execution and the end-to-end total, plus how many engine iterations
    //    the request sat out. The stages never overlap, so they sum to at
    //    most the total; the rest is the wait behind earlier batch-mates.
    println!("per-request wall-clock breakdowns (first four + the graph):");
    let responses: Vec<_> = tickets
        .into_iter()
        .map(|t| t.wait().expect("request completes"))
        .collect();
    let graph_response = responses.last().expect("the graph response is last");
    for response in responses.iter().take(4).chain([graph_response]) {
        let t = response.timing();
        println!(
            "  {:<12} [{:<6}] queue {:>8.1} us  compile {:>8.1} us  \
             execute {:>8.1} us  total {:>8.1} us  waited {} iter",
            response.workload,
            response.priority.name(),
            t.queue_us,
            t.compile_us,
            t.execute_us,
            t.total_us,
            t.iterations_waited,
        );
        assert!(t.accounted_us() <= t.total_us * 1.001);
    }
    let misses = responses.iter().filter(|r| !r.cache_hit).count();
    println!(
        "  ({misses} plan compilations across {} responses)",
        responses.len()
    );

    // 4. The metrics snapshot aggregates the same stages into log-bucketed
    //    histograms — p50/p99/p999 wall time per stage, per lane and per
    //    class — and renders them, with the serving counters, as Prometheus
    //    text exposition for scraping: counters as `_total` families,
    //    histograms as summaries with quantile labels.
    let metrics = engine.metrics();
    let e2e = &metrics.stages[redfuser::trace::Stage::EndToEnd.index()];
    assert_eq!(e2e.wall.count, responses.len() as u64);
    let exposition = metrics.prometheus();
    assert!(exposition.contains("redfuser_requests_total{outcome=\"completed\"}"));
    assert!(exposition.contains("redfuser_stage_wall_us{stage=\"e2e\",quantile=\"0.99\"}"));
    println!(
        "\nprometheus exposition ({} lines), request counters and stage wall times:",
        exposition.lines().count()
    );
    for line in exposition.lines().filter(|l| {
        l.starts_with("redfuser_requests_total") || l.starts_with("redfuser_stage_wall_us")
    }) {
        println!("  {line}");
    }

    // 5. At `TraceLevel::Full` the span buffer exports as Chrome trace-event
    //    JSON: one track per worker plus one per sampled request, with
    //    queue/compile/execute spans nested under submit/deliver instants.
    //    Write it to a file and load it at `ui.perfetto.dev`.
    let trace = engine.chrome_trace();
    let stats = redfuser::trace::validate_chrome_trace(&trace).expect("the trace is well-formed");
    println!(
        "chrome trace: {} events ({} spans, {} instants) across {} request tracks",
        stats.events, stats.spans, stats.instants, stats.request_tracks
    );
    assert!(stats.request_tracks >= responses.len());
}
