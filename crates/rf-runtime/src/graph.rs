//! End-to-end graph serving: executing a partitioned [`GraphPlan`] through
//! the engine's plan cache.
//!
//! [`execute_graph_plan`] walks the plan's topologically-ordered steps and
//! threads intermediate tensors between them:
//!
//! * a **fused region** step compiles (or re-uses, via the [`PlanCache`]
//!   keyed by the region's workload — the graph-region fingerprint) the
//!   region's workload and interprets the compiled tile program over the
//!   region's input tensors;
//! * a **glue op** step executes the node's unfused reference kernel.
//!
//! The result of every step lands in the shared value table, so a glue op
//! can consume a fused region's output and vice versa. The whole-graph
//! unfused oracle for this execution is [`OpGraph::evaluate`].

use rf_gpusim::GpuArch;
use rf_graph::partition::{GraphPlan, RegionKind, Step};
use rf_graph::{NodeId, Op, OpGraph};
use rf_tile::exec::{ExecInput, ExecOutput};
use rf_workloads::Matrix;

use crate::cache::PlanCache;
use crate::metrics::RuntimeMetrics;
use crate::request::RuntimeError;
use crate::submit::GraphStats;

/// The result of serving one graph end-to-end.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphResponse {
    /// The graph's declared outputs, in declaration order.
    pub outputs: Vec<Matrix>,
    /// The region and glue counters; the engine returns them on the graph's
    /// [`crate::Response`].
    pub stats: GraphStats,
}

fn graph_err(detail: impl Into<String>) -> RuntimeError {
    RuntimeError::graph(detail)
}

/// Checks that every node `plan` names exists in `graph` and that no glue
/// step names an input, so a plan partitioned from another graph is refused
/// before any step indexes past this one.
fn check_plan(graph: &OpGraph, plan: &GraphPlan) -> Result<(), RuntimeError> {
    let n = graph.len();
    let exists = |id: NodeId| id < n;
    let fits = |step: &Step| match step {
        Step::Glue(id) => exists(*id) && !matches!(graph.node(*id).op, Op::Input { .. }),
        Step::Region(region) => {
            exists(region.output)
                && match region.kind {
                    RegionKind::Softmax { src } | RegionKind::Variance { src } => exists(src),
                    RegionKind::Attention { q, k, v } => exists(q) && exists(k) && exists(v),
                    RegionKind::QuantGemm { a, w } => exists(a) && exists(w),
                }
        }
    };
    let Some(step) = plan.steps.iter().find(|step| !fits(step)) else {
        return Ok(());
    };
    let step = match step {
        Step::Glue(id) => format!("Glue({id})"),
        Step::Region(region) => format!("Region({})", region.workload.name()),
    };
    Err(graph_err(format!(
        "the plan does not fit this {n}-node graph: {step}"
    )))
}

/// Executes a partitioned graph over concrete input bindings, compiling each
/// fused region through `cache` for [`PlanCache::arch`]. `_arch` is unused:
/// it stays only because `perf`'s `exec.rs`, frozen outside `[benchmark]`
/// PRs, passes it, and goes with `Response::device` (ROADMAP item 26).
/// Records the graph-serving counters into `metrics` when provided. Bindings
/// are generic over the name type, so both borrowed (`(&str, Matrix)`)
/// builder output and owned (`(String, Matrix)`) queue payloads execute
/// without cloning tensors.
///
/// # Errors
///
/// [`RuntimeError::Graph`] when the plan names a node the graph lacks or a
/// glue step on an input, when a binding is missing or misshapen, or when a
/// region's compiled program rejects its tensors. Errors originating in
/// `rf-graph` keep the [`rf_graph::GraphError`] reachable through
/// [`std::error::Error::source`].
pub fn execute_graph_plan<S: AsRef<str>>(
    cache: &PlanCache,
    _arch: &GpuArch,
    metrics: Option<&RuntimeMetrics>,
    graph: &OpGraph,
    plan: &GraphPlan,
    bindings: &[(S, Matrix)],
) -> Result<GraphResponse, RuntimeError> {
    check_plan(graph, plan)?;
    let mut values = graph
        .bind(bindings)
        .map_err(RuntimeError::from_graph_error)?;
    let mut fused_ops = 0usize;
    let mut glue_ops = 0usize;
    let mut region_lookups = 0usize;
    let mut region_hits = 0usize;

    for step in &plan.steps {
        match step {
            Step::Glue(id) => {
                let value = graph
                    .eval_node(*id, &values)
                    .map_err(RuntimeError::from_graph_error)?;
                values[*id] = Some(value);
                glue_ops += 1;
            }
            Step::Region(region) => {
                let (kernel, hit) = cache.get_or_compile_traced(&region.workload);
                region_lookups += 1;
                region_hits += usize::from(hit);
                let value = {
                    let tensor = |id: NodeId| {
                        values[id].as_ref().ok_or_else(|| {
                            graph_err(format!("region input node {id} is not computed yet"))
                        })
                    };
                    let input = match region.kind {
                        RegionKind::Softmax { src } | RegionKind::Variance { src } => {
                            ExecInput::Rows(tensor(src)?)
                        }
                        RegionKind::Attention { q, k, v } => ExecInput::Attention {
                            q: tensor(q)?,
                            k: tensor(k)?,
                            v: tensor(v)?,
                        },
                        RegionKind::QuantGemm { a, w } => ExecInput::QuantGemm {
                            a: tensor(a)?,
                            w: tensor(w)?,
                        },
                    };
                    let output = kernel.run(&input).map_err(|e| {
                        graph_err(format!("region `{}`: {e}", region.workload.name()))
                    })?;
                    match output {
                        ExecOutput::Matrix(m) => m,
                        // Per-row scalars (variance) thread on as a column.
                        ExecOutput::Values(v) => {
                            let rows = v.len();
                            Matrix::from_vec(rows, 1, v)
                        }
                        ExecOutput::TopK(_) => {
                            return Err(graph_err(format!(
                                "region `{}` produced a non-tensor output",
                                region.workload.name()
                            )))
                        }
                    }
                };
                values[region.output] = Some(value);
                fused_ops += region.nodes.len();
            }
        }
    }

    if let Some(metrics) = metrics {
        metrics.record_graph(fused_ops, glue_ops, region_hits, region_lookups);
    }
    let outputs = graph
        .outputs()
        .iter()
        .map(|&id| {
            values[id]
                .clone()
                .ok_or_else(|| graph_err(format!("output node {id} was never computed")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(GraphResponse {
        outputs,
        stats: GraphStats {
            fused_regions: region_lookups,
            fused_ops,
            glue_ops,
            region_cache_hits: region_hits,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_graph::{builders, partition};

    #[test]
    fn fused_plan_matches_the_unfused_reference_for_moe() {
        let graph = builders::moe_block(6, 16, 4);
        let plan = partition::partition(&graph);
        assert_eq!(plan.fused_regions(), 1);
        let arch = GpuArch::a10();
        let cache = PlanCache::new(arch.clone(), 8);
        let inputs = builders::moe_block_inputs(6, 16, 4, 11);
        let response = execute_graph_plan(&cache, &arch, None, &graph, &plan, &inputs).unwrap();
        let reference = graph.evaluate(&inputs).unwrap();
        assert_eq!(response.outputs.len(), 1);
        assert!(response.outputs[0].max_abs_diff(&reference[0]) < 1e-9);
        assert_eq!(response.stats.region_cache_hits, 0);
        // Serving the same graph again hits the cached region plan.
        let again = execute_graph_plan(&cache, &arch, None, &graph, &plan, &inputs).unwrap();
        assert_eq!(again.stats.region_cache_hits, 1);
    }

    #[test]
    fn missing_bindings_fail_cleanly() {
        let graph = builders::moe_block(4, 8, 4);
        let plan = partition::partition(&graph);
        let arch = GpuArch::a10();
        let cache = PlanCache::new(arch.clone(), 8);
        let no_bindings: [(&str, Matrix); 0] = [];
        let err = execute_graph_plan(&cache, &arch, None, &graph, &plan, &no_bindings).unwrap_err();
        assert!(matches!(err, RuntimeError::Graph { .. }));
        assert!(err.to_string().contains("not bound"));
        // The originating rf-graph error stays reachable via source().
        let source = std::error::Error::source(&err).expect("graph errors chain their source");
        assert!(source.to_string().contains("not bound"));
    }

    #[test]
    fn a_plan_that_does_not_fit_its_graph_is_refused() {
        let mut graph = OpGraph::new();
        let x = graph.input("x", 4, 8);
        let e = graph.map(rf_graph::MapOp::Exp, x);
        graph.mark_output(e);
        let arch = GpuArch::a10();
        let cache = PlanCache::new(arch.clone(), 8);
        let inputs = [("x", Matrix::zeros(4, 8))];
        let refusal =
            |plan: &GraphPlan| match execute_graph_plan(&cache, &arch, None, &graph, plan, &inputs)
            {
                Err(RuntimeError::Graph { detail, .. }) => detail,
                other => panic!("expected a graph error, got {other:?}"),
            };
        // A plan partitioned from another graph names nodes this one lacks.
        let foreign = partition::partition(&builders::moe_block(4, 8, 4));
        assert_eq!(
            refusal(&foreign),
            "the plan does not fit this 2-node graph: Glue(4)"
        );
        // A glue step on an input would evaluate a binding.
        let on_input = GraphPlan {
            steps: vec![Step::Glue(x), Step::Glue(e)],
        };
        assert_eq!(
            refusal(&on_input),
            "the plan does not fit this 2-node graph: Glue(0)"
        );
        // The graph's own plan still serves.
        let own = partition::partition(&graph);
        let response = execute_graph_plan(&cache, &arch, None, &graph, &own, &inputs).unwrap();
        assert_eq!(response.outputs, graph.evaluate(&inputs).unwrap());
    }
}
