//! End-to-end tests of the continuous-batching serving front door: the
//! unified [`Submission`] API, iteration-level batching without drain
//! barriers, bounded typed shedding under flood, and lane fairness under
//! sustained high-priority load.

use std::error::Error as _;
use std::sync::Arc;
use std::time::Duration;

use rf_gpusim::GpuArch;
use rf_graph::builders;
use rf_runtime::{
    Engine, Priority, Request, RequestOutput, RuntimeConfig, RuntimeError, Submission,
};
use rf_workloads::{random_matrix, Matrix};

fn engine(workers: usize, max_batch: usize, max_in_flight: usize) -> Engine {
    Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(workers)
            .max_batch(max_batch)
            .cache_capacity(32)
            .max_in_flight(max_in_flight)
            .build()
            .expect("valid config"),
    )
}

/// The one acceptance-critical behaviour: a request submitted while the
/// engine is busy serving joins a *subsequent* iteration — the stream never
/// needs a drain for new work to make progress.
#[test]
fn requests_join_iterations_mid_flight_without_a_drain_barrier() {
    let engine = engine(1, 8, 1024);
    // A unique shape: iteration 1 is this request alone, and its cold-cache
    // compile (auto-tuning, lowering) keeps the single
    // worker busy for a while.
    let first = engine
        .submit(Request::softmax(random_matrix(64, 512, 1, -1.0, 1.0)))
        .expect("first request accepted");
    // Meanwhile 15 identical tiny requests arrive on the open stream.
    let tiny: Vec<_> = (0..15)
        .map(|seed| {
            engine
                .submit(Request::softmax(random_matrix(2, 64, seed, -1.0, 1.0)))
                .expect("tiny request accepted")
        })
        .collect();
    let first = first.wait().expect("first request completes");
    assert_eq!(first.iteration, 1, "the cold request rides iteration 1");
    assert_eq!(first.batch_size, 1, "a unique shape batches alone");

    let served: Vec<_> = tiny
        .into_iter()
        .map(|t| t.wait().expect("tiny request completes"))
        .collect();
    // Every mid-flight submission joined a later iteration of the same
    // still-running stream…
    assert!(
        served.iter().all(|r| r.iteration > first.iteration),
        "mid-flight submissions join subsequent iterations"
    );
    // …and they joined in batches: all 15 were queued while iteration 1 was
    // mid-flight, so the scheduler coalesced them instead of serving 15
    // singleton iterations.
    assert!(
        served.iter().any(|r| r.batch_size > 1),
        "queued same-shape requests coalesce into shared iterations"
    );
    let max_iteration = served.iter().map(|r| r.iteration).max().unwrap();
    assert!(
        max_iteration < 1 + 15,
        "15 batched requests take fewer than 15 iterations (max was {max_iteration})"
    );
    engine.run_until_drained();
    assert_eq!(engine.metrics().completed, 16);
}

/// The unified front door serves every submission kind with numbers that
/// match the whole-graph reference evaluator, and repeated submissions are
/// deterministic.
#[test]
fn unified_submission_front_door_matches_the_reference() {
    let engine = engine(2, 4, 1024);

    // A bare Request and an explicit Submission::workload are the same call.
    let rows = random_matrix(4, 128, 9, -2.0, 2.0);
    let via_request = engine
        .submit(Request::softmax(rows.clone()))
        .unwrap()
        .wait()
        .unwrap();
    let via_submission = engine
        .submit(Submission::workload(Request::softmax(rows)).with_priority(Priority::High))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(via_request.output, via_submission.output);
    assert_eq!(via_submission.priority, Priority::High);

    // A graph through the unified door matches the unfused whole-graph
    // reference, and serving it twice is bit-identical.
    let graph = builders::moe_block(4, 8, 4);
    let inputs = builders::moe_block_inputs(4, 8, 4, 42);
    let reference = graph.evaluate(&inputs).expect("reference evaluates");
    let bindings: Vec<(String, Matrix)> = inputs
        .iter()
        .map(|(name, matrix)| (name.to_string(), matrix.clone()))
        .collect();
    let graph = Arc::new(graph);
    let serve = || {
        engine
            .submit(Submission::graph(Arc::clone(&graph), bindings.clone()))
            .expect("graph accepted")
            .wait()
            .expect("graph served")
    };
    let response = serve();
    let stats = response.graph.expect("graph responses carry stats");
    assert!(stats.fused_regions >= 1);
    let RequestOutput::Tensors(outputs) = &response.output else {
        panic!("graph submissions resolve to tensor outputs");
    };
    assert_eq!(outputs.len(), reference.len());
    for (got, want) in outputs.iter().zip(&reference) {
        assert!(
            got.max_abs_diff(want) <= 1e-9,
            "unified door matches the reference"
        );
    }
    let again = serve();
    let RequestOutput::Tensors(second) = &again.output else {
        panic!("graph submissions resolve to tensor outputs");
    };
    assert_eq!(outputs, second, "graph serving is deterministic");
}

/// Flooding past the in-flight budget sheds gracefully: every rejection is
/// the typed `Overloaded` error with a usable retry hint and a source chain,
/// the shed count is bounded by the flood, and everything admitted still
/// completes.
#[test]
fn flood_past_the_budget_sheds_typed_and_bounded() {
    const FLOOD: usize = 64;
    const BUDGET: usize = 4;
    let engine = engine(1, 2, BUDGET);
    let mut admitted = Vec::new();
    let mut sheds = 0usize;
    for seed in 0..FLOOD as u64 {
        match engine.submit(Request::softmax(random_matrix(8, 256, seed, -1.0, 1.0))) {
            Ok(ticket) => admitted.push(ticket),
            Err(err) => {
                // Typed, stable, chained: match on the variant, not a string.
                let RuntimeError::Overloaded { retry_hint, .. } = &err else {
                    panic!("floods shed with Overloaded, got {err}");
                };
                assert_eq!(err.code(), "overloaded");
                assert!(*retry_hint > Duration::ZERO, "retry hints are usable");
                let source = err.source().expect("Overloaded chains its source");
                assert!(
                    source.to_string().contains(&format!("of {BUDGET} slots")),
                    "the source names the exhausted budget: {source}"
                );
                sheds += 1;
            }
        }
    }
    assert!(
        sheds > 0,
        "a {BUDGET}-slot budget must shed a {FLOOD}-flood"
    );
    assert!(
        sheds <= FLOOD - BUDGET,
        "at least the budget's worth is admitted"
    );
    assert_eq!(
        admitted.len() + sheds,
        FLOOD,
        "every submission is accounted"
    );
    for ticket in admitted {
        ticket.wait().expect("admitted requests complete");
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.shed, sheds as u64, "sheds are counted in metrics");
    assert_eq!(metrics.completed as usize + sheds, FLOOD);
}

/// A low-priority submission completes under sustained high-priority load:
/// the deficit-weighted lanes give the backlogged low lane credit every
/// iteration, so it is never starved indefinitely.
#[test]
fn low_priority_work_completes_under_sustained_high_priority_load() {
    let engine = engine(1, 2, 1024);
    // One low-priority straggler…
    let low = engine
        .submit(
            Submission::workload(Request::softmax(random_matrix(2, 64, 999, -1.0, 1.0)))
                .with_priority(Priority::Low),
        )
        .expect("low-priority request accepted");
    // …behind a sustained high-priority barrage of 48 requests.
    let high: Vec<_> = (0..48)
        .map(|seed| {
            engine
                .submit(
                    Submission::workload(Request::softmax(random_matrix(4, 128, seed, -1.0, 1.0)))
                        .with_priority(Priority::High),
                )
                .expect("high-priority request accepted")
        })
        .collect();
    // The low request must complete within a bounded wait even though the
    // high lane outweighs it 4:1 — starvation would time this out.
    let low = low
        .wait_timeout(Duration::from_secs(60))
        .expect("low-priority work is not starved")
        .expect("low-priority work completes");
    assert_eq!(low.priority, Priority::Low);
    for ticket in high {
        ticket.wait().expect("high-priority requests complete");
    }
    let metrics = engine.metrics();
    let lane = |name: &str| {
        metrics
            .lanes
            .iter()
            .find(|l| l.lane == name)
            .expect("lane snapshot present")
    };
    assert_eq!(lane("high").completed, 48);
    assert_eq!(lane("low").completed, 1);
}
