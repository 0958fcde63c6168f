//! End-to-end graph serving: differential tests against the whole-graph
//! unfused reference evaluator, and the negative-detection guarantees.
//!
//! The differential tests prove that graph serving through the unified
//! `Engine::submit` front door — partition into
//! fused regions + glue, compile each region through the plan cache,
//! interpret the tuned tile programs, thread intermediates — produces the
//! same numbers as evaluating every graph node with the unfused reference
//! kernels. The exactly-reassociative graphs are held to a tight relative
//! tolerance; the FP8-quantized MLP is held to the established provisional-
//! scale noise floor of the quant VM (see `tests/differential.rs`).
//!
//! On the analytical A10 model, each builder graph's fused plan must also
//! beat the fully-unfused whole-graph baseline: the speedup the graph
//! frontend exists for.
//!
//! The property tests embed the known non-fusable pattern (the dependent
//! two-pass variance) in larger graphs under random glue-op decorations of a
//! fusable softmax core, and check the partitioner never fuses it, never
//! drops a glue op and never reorders one.

use std::sync::Arc;

use proptest::prelude::*;
use rf_algebra::ReduceOp;
use rf_codegen::compile_workload;
use rf_gpusim::{estimate_latency, sequence_latency, GpuArch};
use rf_graph::partition::{partition, GraphPlan, Step};
use rf_graph::{builders, glue_profile, unfused_profiles, MapOp, NodeId, Op, OpGraph, ZipOp};
use rf_runtime::{
    Engine, GraphStats, PlanCache, RequestOutput, RuntimeConfig, RuntimeError, Submission,
};
use rf_workloads::Matrix;

/// Damped-relative tolerance for the exactly-reassociative graphs: the fused
/// regions' VM execution is reassociation-exact against the references, so
/// only f64 rounding through the glue GEMMs remains.
const TIGHT_TOL: f64 = 1e-7;

/// Noise floor for the FP8-quantized MLP, as a fraction of the reference
/// output's peak magnitude. Matches `tests/differential.rs`: each quant
/// region's provisional per-tile scales may disagree with the final row
/// scale by up to ~5% of peak; the MLP cascades two such regions (the second
/// quantizes the first's already-noisy activations), so the compounded floor
/// is three single-region floors.
const QUANT_NOISE: f64 = 3.0 * 0.05;

fn max_damped_rel_diff(a: &Matrix, b: &Matrix) -> f64 {
    assert_eq!(a.rows(), b.rows());
    assert_eq!(a.cols(), b.cols());
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs() / (1.0 + y.abs()))
        .fold(0.0, f64::max)
}

fn peak(m: &Matrix) -> f64 {
    m.as_slice().iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
}

/// Serves a graph through the unified `Engine::submit` front door and
/// unwraps the tensor outputs plus the graph-serving stats.
fn serve_graph(
    engine: &Engine,
    graph: &OpGraph,
    inputs: &[(&str, Matrix)],
) -> Result<(Vec<Matrix>, GraphStats), RuntimeError> {
    let bindings: Vec<(String, Matrix)> = inputs
        .iter()
        .map(|(name, matrix)| (name.to_string(), matrix.clone()))
        .collect();
    let response = engine
        .submit(Submission::graph(Arc::new(graph.clone()), bindings))?
        .wait()?;
    let stats = response.graph.expect("graph submissions carry graph stats");
    let RequestOutput::Tensors(outputs) = response.output else {
        panic!("graph submissions produce tensors");
    };
    Ok((outputs, stats))
}

fn tiny_engine() -> Engine {
    Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(1)
            .max_batch(4)
            .cache_capacity(16)
            .build()
            .expect("valid config"),
    )
}

#[test]
fn transformer_layer_graph_matches_the_unfused_reference() {
    let graph = builders::transformer_decoder_layer(8, 16, 32);
    let plan = partition(&graph);
    assert_eq!(plan.fused_regions(), 1, "the attention slice fuses");
    assert!(plan.glue_ops() >= 6, "projections and MLP stay glue");
    let engine = tiny_engine();
    for seed in [1, 42] {
        let inputs = builders::transformer_decoder_layer_inputs(8, 16, 32, seed);
        let (outputs, stats) = serve_graph(&engine, &graph, &inputs).unwrap();
        let reference = graph.evaluate(&inputs).unwrap();
        let diff = max_damped_rel_diff(&outputs[0], &reference[0]);
        assert!(diff <= TIGHT_TOL, "seed {seed}: diff {diff}");
        assert_eq!(stats.fused_regions, 1);
        assert!(stats.glue_ops >= 6);
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.graphs_served, 2);
    assert_eq!(metrics.region_hits, 1, "second submission re-uses the plan");
}

#[test]
fn moe_block_graph_matches_the_unfused_reference() {
    let graph = builders::moe_block(6, 16, 4);
    let plan = partition(&graph);
    assert_eq!(plan.fused_regions(), 1, "the routing softmax fuses");
    assert!(
        plan.glue_ops() >= 6,
        "gate/expert GEMMs and combine stay glue"
    );
    let engine = tiny_engine();
    for seed in [7, 99] {
        let inputs = builders::moe_block_inputs(6, 16, 4, seed);
        let (outputs, _) = serve_graph(&engine, &graph, &inputs).unwrap();
        let reference = graph.evaluate(&inputs).unwrap();
        let diff = max_damped_rel_diff(&outputs[0], &reference[0]);
        assert!(diff <= TIGHT_TOL, "seed {seed}: diff {diff}");
    }
}

#[test]
fn quantized_mlp_graph_stays_within_the_fp8_noise_floor() {
    let graph = builders::quantized_mlp(4, 32, 16, 8);
    let plan = partition(&graph);
    assert_eq!(plan.fused_regions(), 2, "both quantized layers fuse");
    assert!(plan.glue_ops() >= 1, "the inter-layer relu stays glue");
    let engine = tiny_engine();
    for seed in [3, 77] {
        let inputs = builders::quantized_mlp_inputs(4, 32, 16, 8, seed);
        let (outputs, _) = serve_graph(&engine, &graph, &inputs).unwrap();
        let reference = graph.evaluate(&inputs).unwrap();
        let floor = QUANT_NOISE * peak(&reference[0]) + 1e-9;
        let diff = outputs[0].max_abs_diff(&reference[0]);
        assert!(
            diff <= floor,
            "seed {seed}: diff {diff} exceeds the noise floor {floor}"
        );
    }
}

#[test]
fn graph_serving_reports_missing_inputs() {
    let graph = builders::moe_block(4, 8, 4);
    let engine = tiny_engine();
    let err = serve_graph(&engine, &graph, &[]).unwrap_err();
    assert!(err.to_string().contains("not bound"));
    // A failed graph goes through the same ledger as a failed request.
    engine.run_until_drained();
    let metrics = engine.metrics();
    assert_eq!(
        (metrics.submitted, metrics.completed, metrics.failed),
        (1, 0, 1)
    );
    let class = &metrics.classes[0];
    assert_eq!(
        (class.class, class.completed, class.failed, class.batches),
        ("graph", 0, 1, 1)
    );
}

/// Simulated latency of executing a fused plan: each region's tuned compiled
/// kernel plus one unfused launch per glue op.
fn fused_plan_latency_us(graph: &OpGraph, plan: &GraphPlan, arch: &GpuArch) -> f64 {
    plan.steps
        .iter()
        .map(|step| match step {
            Step::Region(region) => compile_workload(&region.workload, arch).latency_us,
            Step::Glue(id) => estimate_latency(arch, &glue_profile(graph, *id)).total_us,
        })
        .sum()
}

#[test]
fn fused_plans_beat_the_unfused_baseline_on_the_simulated_clock() {
    let arch = GpuArch::a10();
    for (name, graph) in [
        (
            "transformer_layer",
            builders::transformer_decoder_layer(64, 64, 256),
        ),
        ("moe_block", builders::moe_block(64, 64, 8)),
        ("quantized_mlp", builders::quantized_mlp(64, 256, 128, 64)),
    ] {
        let plan = partition(&graph);
        assert!(plan.fused_regions() >= 1, "{name}: nothing fused");
        let fused_us = fused_plan_latency_us(&graph, &plan, &arch);
        let unfused_us = sequence_latency(&arch, &unfused_profiles(&graph));
        assert!(
            fused_us < unfused_us,
            "{name}: fused plan ({fused_us} us) must beat the unfused baseline ({unfused_us} us)"
        );
    }
}

/// Appends the dependent two-pass variance of `y` — the canonical
/// non-fusable cascade — returning its two reduction nodes and its result.
fn append_two_pass_variance(g: &mut OpGraph, y: NodeId) -> ([NodeId; 2], NodeId) {
    let len = g.node(y).shape.cols;
    let s1 = g.row_reduce(ReduceOp::Sum, y);
    let mu = g.scale(1.0 / len as f64, s1);
    let centered = g.zip(ZipOp::Sub, y, mu);
    let sq = g.map(MapOp::Square, centered);
    let v = g.row_reduce(ReduceOp::Sum, sq);
    let var = g.scale(1.0 / len as f64, v);
    ([s1, v], var)
}

/// Applies one elementwise glue decoration chosen by `choice`.
fn decorate(g: &mut OpGraph, node: NodeId, choice: u32) -> NodeId {
    match choice % 5 {
        0 => node,
        1 => g.scale(1.25, node),
        2 => g.shift(0.375, node),
        3 => g.map(MapOp::Relu, node),
        _ => g.map(MapOp::Neg, node),
    }
}

/// Builds a graph with a fusable softmax core and the embedded non-fusable
/// two-pass variance, decorated with random glue ops before and after both.
fn decorated_graph(decos: [u32; 4]) -> (OpGraph, [NodeId; 2]) {
    let mut g = OpGraph::new();
    let x = g.input("x", 4, 24);
    let y = g.input("y", 4, 16);
    let xd = decorate(&mut g, x, decos[0]);
    let probs = builders::append_softmax(&mut g, xd);
    let yd = decorate(&mut g, y, decos[1]);
    let (variance_reductions, var) = append_two_pass_variance(&mut g, yd);
    let probs_out = decorate(&mut g, probs, decos[2]);
    // A reshape glue consumer of the fused region's output.
    let reshaped = g.reshape(probs_out, 8, 12);
    let var_out = decorate(&mut g, var, decos[3]);
    g.mark_output(reshaped);
    g.mark_output(var_out);
    (g, variance_reductions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The partitioner never fuses the embedded non-fusable pattern, never
    /// drops a glue op, and never reorders one — under arbitrary glue-op
    /// decorations of the fusable core.
    #[test]
    fn prop_partitioner_never_fuses_the_non_fusable_pattern(
        decos in (0u32..5, 0u32..5, 0u32..5, 0u32..5),
    ) {
        let (graph, variance_reductions) =
            decorated_graph([decos.0, decos.1, decos.2, decos.3]);
        let plan = partition(&graph);
        // The softmax core always fuses; nothing else may.
        prop_assert_eq!(plan.fused_regions(), 1);
        let mut region_nodes: Vec<NodeId> = Vec::new();
        let mut glue_nodes: Vec<NodeId> = Vec::new();
        for step in &plan.steps {
            match step {
                Step::Region(r) => region_nodes.extend(&r.nodes),
                Step::Glue(id) => glue_nodes.push(*id),
            }
        }
        for vr in variance_reductions {
            prop_assert!(
                !region_nodes.contains(&vr),
                "non-fusable reduction {} landed in a fused region",
                vr
            );
        }
        // Glue ops are emitted in topological order (never reordered) …
        prop_assert!(glue_nodes.windows(2).all(|w| w[0] < w[1]));
        // … and every non-input node is planned exactly once (never dropped).
        let mut covered = region_nodes;
        covered.extend(&glue_nodes);
        covered.sort_unstable();
        covered.dedup();
        let expected: Vec<NodeId> = (0..graph.len())
            .filter(|&id| !matches!(graph.node(id).op, Op::Input { .. }))
            .collect();
        prop_assert_eq!(covered, expected);
    }

    /// The decorated graphs also *execute* correctly: the fused plan threads
    /// every glue value and matches the whole-graph unfused reference.
    #[test]
    fn prop_decorated_graphs_serve_correctly(
        decos in (0u32..5, 0u32..5, 0u32..5, 0u32..5),
        seed in 0u64..32,
    ) {
        let (graph, _) = decorated_graph([decos.0, decos.1, decos.2, decos.3]);
        let plan = partition(&graph);
        let arch = GpuArch::a10();
        let cache = PlanCache::new(arch.clone(), 8);
        let inputs = vec![
            ("x", rf_workloads::random_matrix(4, 24, seed, -2.0, 2.0)),
            ("y", rf_workloads::random_matrix(4, 16, seed + 100, -1.0, 1.0)),
        ];
        let served =
            rf_runtime::execute_graph_plan(&cache, &arch, None, &graph, &plan, &inputs).unwrap();
        let reference = graph.evaluate(&inputs).unwrap();
        for (got, want) in served.outputs.iter().zip(&reference) {
            prop_assert!(max_damped_rel_diff(got, want) <= TIGHT_TOL);
        }
    }
}
