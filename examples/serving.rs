//! Serving runtime walkthrough: spin up an [`Engine`] with a validated
//! config, submit a mixed stream of prioritised requests (plus a whole
//! operator graph) through the unified [`Submission`] front door, watch
//! admission control shed under a flood, and read the metrics exposition.
//!
//! Run with `cargo run --example serving`.

use std::sync::Arc;
use std::thread;

use redfuser::codegen::Workload;
use redfuser::gpusim::GpuArch;
use redfuser::graph::builders;
use redfuser::runtime::{
    Engine, Priority, Request, RequestInput, RuntimeConfig, RuntimeError, Submission,
};
use redfuser::workloads::{mha_tiny, moe_tiny, random_matrix};

pub fn main() {
    // 1. One engine per target architecture, configured through the
    //    validating builder (an impossible config is a typed error here, not
    //    a panic inside the engine). The worker pool compiles each distinct
    //    (workload, arch) pair once — the plan cache serves every later
    //    request of the same shape — and serves the open request stream in
    //    iterations: requests submitted while a batch is mid-flight join the
    //    next iteration instead of waiting for a drain.
    let config = RuntimeConfig::builder()
        .workers(4)
        .max_batch(8)
        .cache_capacity(32)
        .max_in_flight(64)
        .build()
        .expect("the configuration is valid");
    let engine = Arc::new(Engine::with_config(GpuArch::h800(), config));

    // 2. Four client threads submit a mixed softmax / attention / MoE stream.
    //    A bare `Request` converts into a normal-priority submission; the
    //    explicit `Submission` form picks a lane — the deficit-weighted
    //    scheduler prefers high-priority work without starving low.
    let clients: Vec<_> = (0..4u64)
        .map(|client| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let mha = mha_tiny();
                let moe = moe_tiny();
                let seed = client * 1000;
                let mut tickets = Vec::new();
                for round in 0..4 {
                    let s = seed + round * 10;
                    // Interactive traffic rides the high lane…
                    tickets.push(
                        engine
                            .submit(
                                Submission::workload(Request::softmax(random_matrix(
                                    4, 128, s, -2.0, 2.0,
                                )))
                                .with_priority(Priority::High),
                            )
                            .expect("valid request"),
                    );
                    // …a bare Request submits at normal priority…
                    tickets.push(
                        engine
                            .submit(
                                Request::new(
                                    Workload::Mha(mha.clone()),
                                    RequestInput::Attention {
                                        q: random_matrix(mha.q, mha.hd, s + 1, -1.0, 1.0),
                                        k: random_matrix(mha.kv, mha.hd, s + 2, -1.0, 1.0),
                                        v: random_matrix(mha.kv, mha.hd, s + 3, -1.0, 1.0),
                                    },
                                )
                                .expect("valid workload/input pairing"),
                            )
                            .expect("valid request"),
                    );
                    // …and batch traffic tolerates the low lane.
                    tickets.push(
                        engine
                            .submit(
                                Submission::workload(
                                    Request::new(
                                        Workload::Moe(moe.clone()),
                                        RequestInput::Routing {
                                            x: random_matrix(8, moe.hd, s + 4, -1.0, 1.0),
                                            w: random_matrix(moe.hd, moe.en, s + 5, -1.0, 1.0),
                                        },
                                    )
                                    .expect("valid workload/input pairing"),
                                )
                                .with_priority(Priority::Low),
                            )
                            .expect("valid request"),
                    );
                }
                // Each ticket resolves to the request's numeric output plus
                // its simulated latency, the engine iteration it rode in and
                // its cache provenance.
                tickets
                    .into_iter()
                    .map(|t| t.wait().expect("request completes"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let mut served = 0usize;
    for client in clients {
        for result in client.join().expect("client thread succeeds") {
            served += 1;
            assert!(result.simulated_us > 0.0);
            assert!(result.iteration >= 1);
        }
    }

    // 3. Whole operator graphs flow through the same front door: the engine
    //    partitions the graph into fused regions plus glue ops and serves the
    //    region plans from the same cache the request path uses.
    let graph = Arc::new(builders::moe_block(4, 8, 4));
    let bindings: Vec<(String, _)> = builders::moe_block_inputs(4, 8, 4, 7)
        .into_iter()
        .map(|(name, matrix)| (name.to_string(), matrix))
        .collect();
    let response = engine
        .submit(Submission::graph(graph, bindings))
        .expect("graph accepted")
        .wait()
        .expect("graph served");
    let stats = response.graph.expect("graph submissions carry stats");
    println!(
        "graph served: {} fused region(s) covering {} op(s), {} glue op(s)",
        stats.fused_regions, stats.fused_ops, stats.glue_ops
    );
    engine.run_until_drained();

    // 4. Backpressure: flood a deliberately tiny engine past its in-flight
    //    budget. Excess submissions are shed gracefully with a typed error
    //    carrying a retry hint — the engine never queues without bound.
    let tiny = Engine::with_config(
        GpuArch::h800(),
        RuntimeConfig::builder()
            .workers(1)
            .max_batch(2)
            .max_in_flight(4)
            .build()
            .expect("valid config"),
    );
    let mut sheds = 0usize;
    let mut flood = Vec::new();
    for seed in 0..128 {
        match tiny.submit(Request::softmax(random_matrix(8, 512, seed, -1.0, 1.0))) {
            Ok(ticket) => flood.push(ticket),
            Err(RuntimeError::Overloaded { retry_hint, .. }) => {
                if sheds == 0 {
                    println!(
                        "shed with retry hint ~{:.1} ms",
                        retry_hint.as_secs_f64() * 1e3
                    );
                }
                sheds += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    tiny.run_until_drained();
    for ticket in flood {
        ticket.wait().expect("admitted requests complete");
    }
    println!(
        "flood of 128: {} admitted, {sheds} shed by admission control",
        128 - sheds
    );
    assert!(sheds > 0, "a 4-slot budget must shed under a 128-burst");

    // 5. Three distinct shapes were submitted 48 times: the compiler pipeline
    //    ran exactly three times (plus one graph region), everything else was
    //    cache + continuous batching.
    let metrics = engine.metrics();
    println!(
        "served {served} requests over {} compiled plans",
        metrics.cache.entries
    );

    // 6. The metrics exposition summarises the run: request counters, latency
    //    percentiles, per-lane and per-class breakdowns, shed counts.
    for line in metrics.prometheus().lines().filter(|l| !l.starts_with('#')) {
        println!("{line}");
    }
}
