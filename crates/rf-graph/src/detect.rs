//! Automatic cascade detection over operator graphs.
//!
//! The detector walks an [`OpGraph`], finds its row-wise reduction nodes and
//! lifts dependency-connected groups of them into
//! [`rf_fusion::CascadeSpec`]s — the same mathematical representation the
//! scalar-IR detector in `rf-tir` produces — then proves or refutes the
//! fusability of every candidate with the real ACRF analysis
//! ([`rf_fusion::analyze_cascade`]), not a pattern list. A reduction's map
//! function is recovered by walking the elementwise subgraph feeding it:
//! `[rows, axis]` tensors become per-position input variables, earlier
//! reductions of the same row space become dependency variables, and
//! broadcast `[rows, 1]` columns stay scalar expressions over those
//! dependencies.
//!
//! The partitioner ([`crate::partition()`]) consumes the proved candidates and
//! decides which of them lower to a compilable workload; refuted candidates
//! (for example the dependent two-pass variance) are guaranteed to stay
//! unfused.

use std::collections::HashMap;

use rf_expr::{semantically_equal, EquivConfig, Expr};
use rf_fusion::{analyze_cascade, AcrfError, CascadeSpec, FusionPlan, ReductionSpec};

use crate::graph::{MapOp, NodeId, Op, OpGraph, ZipOp};

/// One detected reduction chain: a dependency-connected group of row-wise
/// reductions over a shared `(rows, axis)` space, lifted into a cascade and
/// analysed by ACRF.
#[derive(Debug, Clone)]
pub struct CascadeCandidate {
    /// The reduction nodes, in dependency (topological) order.
    pub reductions: Vec<NodeId>,
    /// Independent reduction rows.
    pub rows: usize,
    /// Length of the shared reduction axis.
    pub axis_len: usize,
    /// The lifted cascade. Reduction `i` of the spec corresponds to
    /// `reductions[i]`; its name is `d<node-id>`.
    pub spec: CascadeSpec,
    /// Cascade input variables and the graph nodes feeding them, in
    /// first-use order (variable `x<node-id>` reads node `<node-id>`).
    pub inputs: Vec<(String, NodeId)>,
    /// The ACRF verdict: the fusion plan when the chain is fusable, the
    /// refutation (e.g. [`AcrfError::NotDecomposable`]) when it is not.
    pub proof: Result<FusionPlan, AcrfError>,
}

impl CascadeCandidate {
    /// Whether ACRF proved the whole chain fusable.
    pub fn is_fusable(&self) -> bool {
        self.proof.is_ok()
    }
}

/// Reasons a reduction's map function cannot be lifted into the cascade
/// model; such reductions simply stay unfused.
enum LiftError {
    /// The map contains an op with no scalar counterpart (e.g. FP8 rounding
    /// or a nested matmul of the wrong shape).
    Unliftable,
}

struct Chain {
    rows: usize,
    axis_len: usize,
    reductions: Vec<NodeId>,
    specs: Vec<ReductionSpec>,
    inputs: Vec<(String, NodeId)>,
}

/// Detects every liftable reduction chain of the graph and runs ACRF on each.
///
/// Candidates are returned in topological order of their first reduction.
/// Chains whose maps cannot be lifted (no scalar counterpart) produce no
/// candidate — exactly the fall-back-to-unfused behaviour of the paper's
/// framework for non-reduction subgraphs.
pub fn detect_cascades(graph: &OpGraph) -> Vec<CascadeCandidate> {
    let mut chains: Vec<Chain> = Vec::new();
    // Which chain each already-processed reduction node belongs to.
    let mut chain_of: HashMap<NodeId, usize> = HashMap::new();

    for id in 0..graph.len() {
        let Op::RowReduce(reduce) = graph.node(id).op else {
            continue;
        };
        let src = graph.node(id).args[0];
        let rows = graph.node(src).shape.rows;
        let axis_len = graph.node(src).shape.cols;

        // Earlier reductions of the same row space reachable through
        // elementwise ops are this reduction's cascade dependencies.
        let deps = reachable_chain_deps(graph, src, rows, axis_len, &chain_of, &chains);

        // Merge every chain a dependency lives in (same row space by
        // construction), or start a fresh chain for an independent reduction.
        let target = merge_dep_chains(&deps, &mut chains, &mut chain_of, rows, axis_len);

        let (lifted, used_inputs) = {
            let chain = &chains[target];
            let mut inputs = chain.inputs.clone();
            let names: HashMap<NodeId, String> = chain
                .reductions
                .iter()
                .map(|&r| (r, format!("d{r}")))
                .collect();
            match lift_map(graph, src, rows, axis_len, &names, &mut inputs) {
                Ok(expr) => (Some(expr), inputs),
                Err(LiftError::Unliftable) => (None, inputs),
            }
        };
        let Some(map) = lifted else {
            // Unliftable: drop the freshly-created empty chain, keep merged
            // ones (their earlier reductions are still valid candidates).
            continue;
        };
        let chain = &mut chains[target];
        chain.inputs = used_inputs;
        chain
            .specs
            .push(ReductionSpec::new(format!("d{id}"), reduce, map));
        chain.reductions.push(id);
        chain_of.insert(id, target);
    }

    chains
        .into_iter()
        .filter(|c| !c.reductions.is_empty() && !c.inputs.is_empty())
        .map(|c| {
            let spec = CascadeSpec {
                name: format!("graph_cascade_{}", c.reductions[0]),
                inputs: c.inputs.iter().map(|(n, _)| n.clone()).collect(),
                reductions: c.specs,
            };
            // `analyze_cascade` validates the lifted spec itself (an invalid
            // one is an `AcrfError::Cascade`).
            let proof = analyze_cascade(&spec);
            CascadeCandidate {
                reductions: c.reductions,
                rows: c.rows,
                axis_len: c.axis_len,
                spec,
                inputs: c.inputs,
                proof,
            }
        })
        .collect()
}

/// Collects the already-chained reductions (of the same row space) reachable
/// from `src` through elementwise ops — the cascade dependencies of a
/// reduction whose input is `src`.
fn reachable_chain_deps(
    graph: &OpGraph,
    src: NodeId,
    rows: usize,
    axis_len: usize,
    chain_of: &HashMap<NodeId, usize>,
    chains: &[Chain],
) -> Vec<NodeId> {
    let mut deps = Vec::new();
    let mut stack = vec![src];
    let mut seen = vec![false; graph.len()];
    while let Some(id) = stack.pop() {
        if seen[id] {
            continue;
        }
        seen[id] = true;
        let node = graph.node(id);
        if let Some(&chain) = chain_of.get(&id) {
            if chains[chain].rows == rows && chains[chain].axis_len == axis_len {
                deps.push(id);
            }
            continue;
        }
        if node.op.is_elementwise() {
            stack.extend(node.args.iter().copied());
        }
    }
    deps.sort_unstable();
    deps
}

/// Merges the chains of `deps` into one (or creates a fresh chain when there
/// are none) and returns its index.
fn merge_dep_chains(
    deps: &[NodeId],
    chains: &mut Vec<Chain>,
    chain_of: &mut HashMap<NodeId, usize>,
    rows: usize,
    axis_len: usize,
) -> usize {
    let mut indices: Vec<usize> = deps.iter().map(|d| chain_of[d]).collect();
    indices.sort_unstable();
    indices.dedup();
    match indices.split_first() {
        None => {
            chains.push(Chain {
                rows,
                axis_len,
                reductions: Vec::new(),
                specs: Vec::new(),
                inputs: Vec::new(),
            });
            chains.len() - 1
        }
        Some((&first, rest)) => {
            for &other in rest {
                // Merge preserving topological order of reduction node ids;
                // specs travel with their reductions.
                let moved_reductions = std::mem::take(&mut chains[other].reductions);
                let moved_specs = std::mem::take(&mut chains[other].specs);
                let moved_inputs = std::mem::take(&mut chains[other].inputs);
                for (r, s) in moved_reductions.into_iter().zip(moved_specs) {
                    let pos = chains[first]
                        .reductions
                        .partition_point(|&existing| existing < r);
                    chains[first].reductions.insert(pos, r);
                    chains[first].specs.insert(pos, s);
                    chain_of.insert(r, first);
                }
                for input in moved_inputs {
                    if !chains[first].inputs.contains(&input) {
                        chains[first].inputs.push(input);
                    }
                }
            }
            first
        }
    }
}

/// Upper bound on the node count of a lifted map expression. Lifting inlines
/// shared elementwise subgraphs (a `Square` becomes `e * e`), so a deep chain
/// of squarings — or a diamond-shared elementwise DAG — would otherwise grow
/// the expression (and the cost of every downstream clone, simplification and
/// equivalence check) exponentially. Maps that exceed the bound are treated
/// as unliftable and their reductions simply stay unfused; the canonical
/// cascades are all under a dozen nodes.
const MAX_LIFTED_NODES: u64 = 512;

/// Lifts the value of node `id` into a scalar expression over the cascade's
/// per-position input variables and dependency variables.
fn lift_map(
    graph: &OpGraph,
    id: NodeId,
    rows: usize,
    axis_len: usize,
    chain_names: &HashMap<NodeId, String>,
    inputs: &mut Vec<(String, NodeId)>,
) -> Result<Expr, LiftError> {
    lift_expr(graph, id, rows, axis_len, chain_names, inputs).map(|(expr, _)| expr)
}

/// The recursion behind [`lift_map`], additionally tracking the size of the
/// built expression (computed arithmetically, never by traversal) so the
/// [`MAX_LIFTED_NODES`] budget cuts exponential growth off before any
/// oversized tree is cloned.
fn lift_expr(
    graph: &OpGraph,
    id: NodeId,
    rows: usize,
    axis_len: usize,
    chain_names: &HashMap<NodeId, String>,
    inputs: &mut Vec<(String, NodeId)>,
) -> Result<(Expr, u64), LiftError> {
    let node = graph.node(id);
    // An earlier reduction of this chain: its broadcast column is the
    // dependency variable `d_i` of the cascade model.
    if let Some(name) = chain_names.get(&id) {
        return Ok((Expr::var(name.clone()), 1));
    }
    let is_axis_shaped = node.shape.rows == rows && node.shape.cols == axis_len;
    let is_row_scalar = node.shape.rows == rows && node.shape.cols == 1;
    if !node.op.is_elementwise() || !(is_axis_shaped || is_row_scalar) {
        // Opaque feed (input, matmul, slice, reshape, a foreign-row-space
        // value, …): a per-position cascade input variable. Treating a
        // row-constant broadcast as position-varying is conservative — it can
        // only make ACRF *reject* a decomposition that would exist, never
        // accept a wrong one.
        if is_axis_shaped || is_row_scalar {
            let var = format!("x{id}");
            if !inputs.iter().any(|(_, n)| *n == id) {
                inputs.push((var.clone(), id));
            }
            return Ok((Expr::var(var), 1));
        }
        return Err(LiftError::Unliftable);
    }
    let arg = |i: usize, inputs: &mut Vec<(String, NodeId)>| {
        lift_expr(graph, node.args[i], rows, axis_len, chain_names, inputs)
    };
    let (expr, size) = match &node.op {
        Op::Map(op) => {
            let (inner, size) = arg(0, inputs)?;
            match op {
                MapOp::Exp => (inner.exp(), size + 1),
                MapOp::Abs => (inner.abs(), size + 1),
                MapOp::Sqrt => (inner.sqrt(), size + 1),
                MapOp::Neg => (-inner, size + 1),
                MapOp::Recip => (inner.recip(), size + 1),
                MapOp::Relu => (inner.max(Expr::zero()), size + 2),
                MapOp::Square => {
                    // The clone doubles the subtree; budget it before cloning.
                    if size.saturating_mul(2) > MAX_LIFTED_NODES {
                        return Err(LiftError::Unliftable);
                    }
                    (inner.clone() * inner, size.saturating_mul(2) + 1)
                }
                // FP8 rounding has no scalar expression; the quantization
                // *region* is recognised structurally by the partitioner.
                MapOp::Fp8Round => return Err(LiftError::Unliftable),
            }
        }
        Op::Zip(op) => {
            let (a, sa) = arg(0, inputs)?;
            let (b, sb) = arg(1, inputs)?;
            let size = sa.saturating_add(sb) + 1;
            let expr = match op {
                ZipOp::Add => a + b,
                ZipOp::Sub => a - b,
                ZipOp::Mul => a * b,
                ZipOp::Div => a / b,
                ZipOp::Max => a.max(b),
                ZipOp::Min => a.min(b),
            };
            (expr, size)
        }
        Op::Scale(factor) => {
            let (inner, size) = arg(0, inputs)?;
            (inner * Expr::constant(*factor), size + 2)
        }
        Op::Shift(offset) => {
            let (inner, size) = arg(0, inputs)?;
            (inner + Expr::constant(*offset), size + 2)
        }
        _ => unreachable!("non-elementwise ops are handled above"),
    };
    if size > MAX_LIFTED_NODES {
        return Err(LiftError::Unliftable);
    }
    Ok((expr, size))
}

/// Whether a lifted candidate computes the same cascade as a canonical spec
/// (e.g. one from [`rf_codegen::Workload::cascade_spec`]), up to variable
/// naming: inputs and reductions are matched positionally and the map
/// functions compared by randomized semantic equivalence.
pub fn chain_matches_spec(candidate: &CascadeSpec, canonical: &CascadeSpec) -> bool {
    if candidate.inputs.len() != canonical.inputs.len()
        || candidate.reductions.len() != canonical.reductions.len()
    {
        return false;
    }
    // Rename the canonical spec's variables into the candidate's.
    let renames: Vec<(&str, Expr)> = canonical
        .inputs
        .iter()
        .zip(&candidate.inputs)
        .map(|(from, to)| (from.as_str(), Expr::var(to.clone())))
        .chain(
            canonical
                .reductions
                .iter()
                .zip(&candidate.reductions)
                .map(|(from, to)| (from.name.as_str(), Expr::var(to.name.clone()))),
        )
        .collect();
    let all_vars: Vec<String> = candidate
        .inputs
        .iter()
        .cloned()
        .chain(candidate.reductions.iter().map(|r| r.name.clone()))
        .collect();
    let var_refs: Vec<&str> = all_vars.iter().map(|s| s.as_str()).collect();
    candidate
        .reductions
        .iter()
        .zip(&canonical.reductions)
        .all(|(cand, canon)| {
            cand.reduce == canon.reduce
                && semantically_equal(
                    &cand.map,
                    &canon.map.substitute_all(&renames),
                    &var_refs,
                    &EquivConfig::default(),
                )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{MapOp, ZipOp};
    use rf_algebra::ReduceOp;
    use rf_codegen::Workload;

    fn softmax_graph() -> (OpGraph, NodeId, NodeId, NodeId) {
        let mut g = OpGraph::new();
        let x = g.input("x", 4, 32);
        let m = g.row_reduce(ReduceOp::Max, x);
        let sub = g.zip(ZipOp::Sub, x, m);
        let e = g.map(MapOp::Exp, sub);
        let t = g.row_reduce(ReduceOp::Sum, e);
        let p = g.zip(ZipOp::Div, e, t);
        g.mark_output(p);
        (g, m, t, p)
    }

    #[test]
    fn softmax_chain_is_detected_and_proved() {
        let (g, m, t, _) = softmax_graph();
        let candidates = detect_cascades(&g);
        assert_eq!(candidates.len(), 1);
        let cand = &candidates[0];
        assert_eq!(cand.reductions, vec![m, t]);
        assert_eq!((cand.rows, cand.axis_len), (4, 32));
        assert!(cand.is_fusable(), "{:?}", cand.proof);
        // The lifted cascade is exactly the canonical safe-softmax spec of
        // the softmax workload class — the shared source of truth.
        let canonical = Workload::Softmax { rows: 4, len: 32 }.cascade_spec();
        assert!(chain_matches_spec(&cand.spec, &canonical));
    }

    #[test]
    fn two_pass_variance_is_detected_but_refuted() {
        let mut g = OpGraph::new();
        let y = g.input("y", 3, 16);
        let s1 = g.row_reduce(ReduceOp::Sum, y);
        let mu = g.scale(1.0 / 16.0, s1);
        let centered = g.zip(ZipOp::Sub, y, mu);
        let sq = g.map(MapOp::Square, centered);
        let v = g.row_reduce(ReduceOp::Sum, sq);
        let var = g.scale(1.0 / 16.0, v);
        g.mark_output(var);
        let candidates = detect_cascades(&g);
        assert_eq!(candidates.len(), 1, "s1 and v form one dependent chain");
        let cand = &candidates[0];
        assert_eq!(cand.reductions, vec![s1, v]);
        assert!(
            matches!(cand.proof, Err(AcrfError::NotDecomposable { .. })),
            "the dependent two-pass variance must be refuted, got {:?}",
            cand.proof
        );
    }

    #[test]
    fn independent_sums_form_separate_chains() {
        let mut g = OpGraph::new();
        let x = g.input("x", 2, 8);
        let s1 = g.row_reduce(ReduceOp::Sum, x);
        let sq = g.map(MapOp::Square, x);
        let s2 = g.row_reduce(ReduceOp::Sum, sq);
        let m1 = g.scale(1.0 / 8.0, s1);
        let m2 = g.scale(1.0 / 8.0, s2);
        let m1sq = g.map(MapOp::Square, m1);
        let var = g.zip(ZipOp::Sub, m2, m1sq);
        g.mark_output(var);
        let candidates = detect_cascades(&g);
        assert_eq!(candidates.len(), 2);
        assert!(candidates.iter().all(|c| c.is_fusable()));
    }

    #[test]
    fn abs_max_chain_lifts_through_elementwise_ops() {
        let mut g = OpGraph::new();
        let a = g.input("a", 4, 16);
        let ab = g.map(MapOp::Abs, a);
        let mx = g.row_reduce(ReduceOp::Max, ab);
        g.mark_output(mx);
        let candidates = detect_cascades(&g);
        assert_eq!(candidates.len(), 1);
        let cand = &candidates[0];
        assert!(cand.is_fusable());
        assert_eq!(cand.inputs.len(), 1);
        assert_eq!(cand.inputs[0].1, a, "the input variable reads node a");
        assert_eq!(
            cand.spec.reductions[0].map.to_string(),
            format!("abs(x{a})")
        );
    }

    #[test]
    fn deep_duplicating_chains_are_cut_off_not_exponential() {
        // Regression: lifting inlines shared subgraphs, so a chain of n
        // squarings (or a diamond-shared Zip tower) describes a 2^n-node
        // expression. The size budget must reject such maps as unliftable in
        // bounded time instead of materialising the tree.
        let mut g = OpGraph::new();
        let x = g.input("x", 2, 8);
        let mut sq = x;
        for _ in 0..64 {
            sq = g.map(MapOp::Square, sq);
        }
        let r = g.row_reduce(ReduceOp::Sum, sq);
        g.mark_output(r);
        let start = std::time::Instant::now();
        let candidates = detect_cascades(&g);
        assert!(start.elapsed().as_secs() < 5, "detection must stay bounded");
        assert!(candidates.is_empty(), "the oversized map stays unfused");

        // Same for a diamond-shared multiply tower.
        let mut g = OpGraph::new();
        let x = g.input("x", 2, 8);
        let mut m = x;
        for _ in 0..64 {
            m = g.zip(ZipOp::Mul, m, m);
        }
        let r = g.row_reduce(ReduceOp::Sum, m);
        g.mark_output(r);
        let start = std::time::Instant::now();
        assert!(detect_cascades(&g).is_empty());
        assert!(start.elapsed().as_secs() < 5, "detection must stay bounded");
    }

    #[test]
    fn fp8_round_in_a_map_is_unliftable() {
        let mut g = OpGraph::new();
        let a = g.input("a", 2, 8);
        let q = g.map(MapOp::Fp8Round, a);
        let s = g.row_reduce(ReduceOp::Sum, q);
        g.mark_output(s);
        assert!(detect_cascades(&g).is_empty());
    }

    #[test]
    fn foreign_row_space_reductions_do_not_join_the_chain() {
        // A reduction over [4, 32] and one over [4, 8] share rows but not the
        // axis; the second must not claim the first as a dependency.
        let mut g = OpGraph::new();
        let x = g.input("x", 4, 32);
        let y = g.input("y", 4, 8);
        let m = g.row_reduce(ReduceOp::Max, x);
        let shifted = g.zip(ZipOp::Sub, y, m);
        let t = g.row_reduce(ReduceOp::Sum, shifted);
        g.mark_output(t);
        let candidates = detect_cascades(&g);
        assert_eq!(candidates.len(), 2);
        assert!(candidates.iter().all(|c| c.reductions.len() == 1));
        // The [4, 8] chain sees `m` as an opaque input variable.
        let t_chain = candidates.iter().find(|c| c.reductions == vec![t]).unwrap();
        assert!(t_chain.inputs.iter().any(|(_, n)| *n == m));
    }

    #[test]
    fn spec_matching_rejects_different_cascades() {
        let (g, ..) = softmax_graph();
        let cand = &detect_cascades(&g)[0];
        let quant = Workload::Quant(rf_workloads::quant_tiny()).cascade_spec();
        assert!(!chain_matches_spec(&cand.spec, &quant));
    }
}
