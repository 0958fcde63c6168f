//! Graph-frontend walkthrough: build an unfused transformer decoder layer as
//! an operator graph, watch the detector find its attention cascade, partition
//! it into a fused region plus glue ops, and serve it end-to-end through the
//! engine — twice, so the second submission hits the per-region plan cache.
//!
//! Run with `cargo run --example graph_serving`.

use std::sync::Arc;

use redfuser::codegen::compile_workload;
use redfuser::gpusim::GpuArch;
use redfuser::graph::{builders, detect_cascades, partition};
use redfuser::runtime::{Engine, RequestOutput, Response, Submission};

pub fn main() {
    // 1. A whole model subgraph, written fully unfused: explicit GEMMs,
    //    broadcasts, exponentials and row reductions. Nothing is labelled as
    //    "attention" — the detector has to find it.
    let (seq, d, ff) = (8, 16, 32);
    let graph = builders::transformer_decoder_layer(seq, d, ff);
    println!(
        "transformer decoder layer: {} nodes, {} inputs",
        graph.len(),
        graph.input_names().len()
    );

    // 2. Detection: reduction chains are lifted into cascade specs and proved
    //    (or refuted) by the real ACRF analysis.
    for cand in detect_cascades(&graph) {
        println!(
            "detected cascade over [{}x{}]: {} reduction(s), fusable = {}",
            cand.rows,
            cand.axis_len,
            cand.reductions.len(),
            cand.is_fusable()
        );
    }

    // 3. Partitioning: maximal fusable regions (here: the whole attention
    //    slice, absorbed into one MHA workload) plus unfused glue ops.
    let plan = partition(&graph);
    println!("plan: {}", plan.summary());

    // 4. Serving: graphs ride the same unified `Engine::submit` front door
    //    as single workloads. The engine compiles each region through its
    //    plan cache, interprets the tuned tile programs and threads
    //    intermediates.
    let engine = Engine::new(GpuArch::a10());
    let inputs = builders::transformer_decoder_layer_inputs(seq, d, ff, 7);
    let shared_graph = Arc::new(graph.clone());
    let shared_plan = Arc::new(plan);
    let serve = || -> Response {
        let bindings: Vec<(String, _)> = inputs
            .iter()
            .map(|(name, matrix)| (name.to_string(), matrix.clone()))
            .collect();
        engine
            .submit(Submission::graph_plan(
                Arc::clone(&shared_graph),
                Arc::clone(&shared_plan),
                bindings,
            ))
            .expect("the graph is admitted")
            .wait()
            .expect("the graph serves")
    };
    let first = serve();
    let stats = first.graph.expect("graph submissions carry graph stats");
    // Serving reports host time; the GPU model's latency is the compiled
    // plan's, known before anything is served.
    let modelled_us: f64 = shared_plan
        .regions()
        .iter()
        .map(|region| compile_workload(&region.workload, engine.arch()).latency_us)
        .sum();
    println!(
        "served: {} fused region(s), {} glue op(s) in {:.1} us host time; \
         the fused regions' plans model {modelled_us:.2} us",
        stats.fused_regions,
        stats.glue_ops,
        first.timing().total_us
    );

    // The fused execution matches the whole-graph unfused reference.
    let reference = graph.evaluate(&inputs).expect("the reference evaluates");
    let RequestOutput::Tensors(outputs) = &first.output else {
        panic!("graph submissions produce tensors");
    };
    let diff = outputs[0].max_abs_diff(&reference[0]);
    assert!(diff < 1e-7, "fused vs reference diff {diff}");
    println!("matches the unfused whole-graph reference (max diff {diff:.2e})");

    // 5. Same graph again: both the partition and the compiled region plan
    //    are re-used; the engine's exposition shows the graph counters.
    let second = serve();
    assert_eq!(second.graph.expect("graph stats").region_cache_hits, 1);
    let exposition = engine.prometheus();
    for line in exposition.lines().filter(|l| {
        ["redfuser_graph", "redfuser_region_plan_cache"]
            .iter()
            .any(|family| l.starts_with(family))
    }) {
        println!("{line}");
    }
}
