//! Numeric evaluators for cascaded reductions.
//!
//! Three evaluation strategies are provided, all producing the same results
//! (they are cross-checked in the tests and by `rf-codegen`):
//!
//! * [`NaiveCascadeEvaluator`] — evaluates the definition (Eq. 1) directly:
//!   one full pass over the input per reduction, in dependency order. This is
//!   the *chain of reduction trees* and serves as the correctness oracle.
//! * [`IncrementalEvaluator`] — a single streaming pass that maintains one
//!   running value per reduction and applies the incremental update rules
//!   (Eq. 15–16). This is the generalised online-softmax; FlashAttention's
//!   update is the instantiation for the attention cascade.
//! * [`FusedTreeEvaluator`] — evaluates the fused reduction tree (Eq. 11) for
//!   an arbitrary [`TreeShape`]: level-1 segments are processed incrementally
//!   and higher levels merge same-level partial results with the correction
//!   term `d^{k-1} ⊗ H(D^{k-1})^{-1} ⊗ H(D^k)`.
//!
//! Every evaluator compiles its expressions (`F`, or `G` and `H`) once per call
//! against the slot layout `[input columns…, reduction results…]` and then
//! writes slots per position: no name is looked up, and nothing is allocated,
//! per element.
//!
//! Non-invertible `H` values are handled with the reversibility repair of
//! Appendix A.1 (substituting the identity element), implemented by
//! [`rf_algebra::BinaryOp::inverse_or_repair`].

use rf_algebra::ReduceOp;
use rf_expr::CompiledExpr;

use crate::cascade::{CascadeInput, CascadeSpec};
use crate::plan::{FusedReduction, FusionPlan};
use crate::tree::TreeShape;

/// Evaluates the cascade definition directly (multi-pass, unfused).
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveCascadeEvaluator;

impl NaiveCascadeEvaluator {
    /// Creates a naive evaluator.
    pub fn new() -> Self {
        NaiveCascadeEvaluator
    }

    /// Evaluates every reduction of `spec` over `input`, returning the final
    /// results `d_1..d_I` in order.
    ///
    /// # Panics
    ///
    /// Panics if a map function references a variable that is neither an input
    /// column nor an earlier result (validated specs never do), or if the
    /// input is empty.
    pub fn evaluate(&self, spec: &CascadeSpec, input: &CascadeInput) -> Vec<f64> {
        assert!(!input.is_empty(), "cascade input must not be empty");
        let vars = layout(input, spec.reductions.iter().map(|r| &r.name));
        let n_inputs = input.names().len();
        let mut slots = vec![0.0; vars.len()];
        for (i, reduction) in spec.reductions.iter().enumerate() {
            // Reduction `i` sees the inputs and the `i` results before it.
            let seen = n_inputs + i;
            let map = reduction
                .map
                .compile(&vars[..seen])
                .expect("validated cascade evaluates without unbound variables");
            let op = reduction.reduce.binary_op();
            let mut acc = op.identity();
            for l in 0..input.len() {
                input.write_position(l, &mut slots[..n_inputs]);
                acc = op.apply(acc, map.eval(&slots[..seen]));
            }
            slots[seen] = acc;
        }
        slots.split_off(n_inputs)
    }
}

/// Streaming single-pass evaluation using the incremental form (Eq. 15–16).
#[derive(Debug, Clone, Copy, Default)]
pub struct IncrementalEvaluator;

impl IncrementalEvaluator {
    /// Creates an incremental evaluator.
    pub fn new() -> Self {
        IncrementalEvaluator
    }

    /// Evaluates the fused cascade over the full input in a single pass.
    pub fn evaluate(&self, plan: &FusionPlan, input: &CascadeInput) -> Vec<f64> {
        self.evaluate_range(plan, input, 0, input.len())
    }

    /// Evaluates the fused cascade over the positions `[start, end)`, producing
    /// the first-level segment outputs `d^1_{i,j}` of Eq. 6–7.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds, or if the plan contains
    /// a `Prod` reduction (the generic evaluators do not implement the
    /// log-transform; `Prod` never occurs in the paper's workloads).
    pub fn evaluate_range(
        &self,
        plan: &FusionPlan,
        input: &CascadeInput,
        start: usize,
        end: usize,
    ) -> Vec<f64> {
        evaluate_range(
            plan,
            &compile_g(plan, input),
            &compile_h(plan),
            input,
            start..end,
        )
    }

    /// Merges same-level partial results of several segments into the next
    /// level's output (Eq. 11). `partials[j][i]` is reduction `i`'s partial
    /// result for segment `j`.
    ///
    /// # Panics
    ///
    /// Panics if `partials` is empty or the inner vectors do not match the
    /// plan's reduction count.
    pub fn merge_partials(&self, plan: &FusionPlan, partials: &[Vec<f64>]) -> Vec<f64> {
        merge_partials(plan, &compile_h(plan), partials)
    }
}

/// Evaluates the fused reduction tree for an arbitrary [`TreeShape`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FusedTreeEvaluator;

impl FusedTreeEvaluator {
    /// Creates a fused-tree evaluator.
    pub fn new() -> Self {
        FusedTreeEvaluator
    }

    /// Evaluates the cascade over `input` using the level structure of `shape`.
    ///
    /// # Panics
    ///
    /// Panics if `shape.input_len()` does not match the input length.
    pub fn evaluate(&self, plan: &FusionPlan, input: &CascadeInput, shape: &TreeShape) -> Vec<f64> {
        assert_eq!(
            shape.input_len(),
            input.len(),
            "tree shape input length must match the cascade input length"
        );
        let (g, h) = (compile_g(plan, input), compile_h(plan));

        // Level 1: evaluate each segment over its slice of the input.
        let level1_segments = shape.segments(1);
        let seg_len = shape.segment_len(1);
        let mut current: Vec<Vec<f64>> = (0..level1_segments)
            .map(|j| evaluate_range(plan, &g, &h, input, j * seg_len..(j + 1) * seg_len))
            .collect();

        // Levels 2..=K: merge groups of same-level partials.
        for k in 2..=shape.depth() {
            let group = shape.segment_len(k);
            current = current
                .chunks(group)
                .map(|chunk| merge_partials(plan, &h, chunk))
                .collect();
        }
        assert_eq!(
            current.len(),
            1,
            "the final level must produce a single segment"
        );
        current.pop().unwrap()
    }
}

fn assert_prod_free(plan: &FusionPlan) {
    assert!(
        plan.reductions.iter().all(|r| r.reduce != ReduceOp::Prod),
        "the generic fused evaluators do not support Prod reductions (rewrite as a log-sum first)"
    );
}

/// The slot layout `[input columns…, reduction results…]`.
fn layout<'a>(input: &'a CascadeInput, results: impl Iterator<Item = &'a String>) -> Vec<&'a str> {
    input
        .names()
        .iter()
        .chain(results)
        .map(|s| s.as_str())
        .collect()
}

/// Every `G_i`, compiled over the whole layout.
fn compile_g(plan: &FusionPlan, input: &CascadeInput) -> Vec<CompiledExpr> {
    let vars = layout(input, plan.reductions.iter().map(|r| &r.name));
    plan.reductions
        .iter()
        .map(|r| {
            r.g.compile(&vars)
                .expect("G only references input variables and earlier reduction results")
        })
        .collect()
}

/// Every `H_i`, compiled over the results alone — the running states of a
/// pass, or one segment's partials.
fn compile_h(plan: &FusionPlan) -> Vec<CompiledExpr> {
    let vars: Vec<&str> = plan.reductions.iter().map(|r| r.name.as_str()).collect();
    plan.reductions
        .iter()
        .map(|r| {
            r.h.compile(&vars)
                .expect("H only references earlier reduction results")
        })
        .collect()
}

/// The correction term of Eq. 11 / Eq. 15, `value ⊗ H(D_from)⁻¹ ⊗ H(D_to)`:
/// a partial result re-based from the dependency values it was accumulated
/// under to the current ones (a non-invertible `H` is repaired, Appendix A.1).
fn rebase(r: &FusedReduction, value: f64, h_from: f64, h_to: f64) -> f64 {
    let unscaled = r.combine.apply(value, r.combine.inverse_or_repair(h_from));
    r.combine.apply(unscaled, h_to)
}

/// [`IncrementalEvaluator::evaluate_range`] over compiled `G` / `H`.
fn evaluate_range(
    plan: &FusionPlan,
    g: &[CompiledExpr],
    h: &[CompiledExpr],
    input: &CascadeInput,
    range: std::ops::Range<usize>,
) -> Vec<f64> {
    assert!(
        range.start < range.end && range.end <= input.len(),
        "invalid segment range [{}, {})",
        range.start,
        range.end
    );
    assert_prod_free(plan);
    let n_inputs = input.names().len();
    // The running states are the results part of the slots.
    let mut slots = vec![0.0; n_inputs];
    slots.extend(plan.reductions.iter().map(|r| r.plus.identity()));
    let mut prev_states = slots[n_inputs..].to_vec();
    for l in range {
        input.write_position(l, &mut slots[..n_inputs]);
        prev_states.copy_from_slice(&slots[n_inputs..]);
        for (i, r) in plan.reductions.iter().enumerate() {
            let g_val = g[i].eval(&slots);
            let state = slots[n_inputs + i];
            slots[n_inputs + i] = if r.is_independent() {
                r.plus.apply(state, g_val)
            } else {
                let h_prev = h[i].eval(&prev_states);
                let h_cur = h[i].eval(&slots[n_inputs..]);
                r.plus.apply(
                    rebase(r, state, h_prev, h_cur),
                    r.combine.apply(g_val, h_cur),
                )
            };
        }
    }
    slots.split_off(n_inputs)
}

/// [`IncrementalEvaluator::merge_partials`] over compiled `H`.
fn merge_partials(plan: &FusionPlan, h: &[CompiledExpr], partials: &[Vec<f64>]) -> Vec<f64> {
    assert!(!partials.is_empty(), "cannot merge zero segments");
    assert!(
        partials.iter().all(|p| p.len() == plan.reductions.len()),
        "each partial must contain one value per reduction"
    );
    assert_prod_free(plan);
    let mut merged: Vec<f64> = plan.reductions.iter().map(|r| r.plus.identity()).collect();
    for (i, r) in plan.reductions.iter().enumerate() {
        let mut acc = r.plus.identity();
        for segment in partials {
            let contribution = if r.is_independent() {
                segment[i]
            } else {
                rebase(r, segment[i], h[i].eval(segment), h[i].eval(&merged))
            };
            acc = r.plus.apply(acc, contribution);
        }
        merged[i] = acc;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acrf::analyze_cascade;
    use crate::patterns;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
    }

    fn assert_all_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(close(*x, *y), "mismatch: {a:?} vs {b:?}");
        }
    }

    fn random_input(names: &[&str], len: usize, seed: u64) -> CascadeInput {
        let mut rng = StdRng::seed_from_u64(seed);
        CascadeInput::new(
            names
                .iter()
                .map(|n| {
                    (
                        n.to_string(),
                        (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                    )
                })
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn softmax_incremental_matches_naive() {
        let spec = patterns::safe_softmax();
        let plan = analyze_cascade(&spec).unwrap();
        let input = random_input(&["x"], 128, 1);
        let naive = NaiveCascadeEvaluator::new().evaluate(&spec, &input);
        let fused = IncrementalEvaluator::new().evaluate(&plan, &input);
        assert_all_close(&naive, &fused);
    }

    #[test]
    fn attention_tree_matches_naive_across_shapes() {
        let spec = patterns::attention_row();
        let plan = analyze_cascade(&spec).unwrap();
        let input = random_input(&["p", "v"], 256, 2);
        let naive = NaiveCascadeEvaluator::new().evaluate(&spec, &input);
        for shape in [
            TreeShape::flat(256),
            TreeShape::new(vec![256, 8, 1]).unwrap(),
            TreeShape::new(vec![256, 64, 8, 1]).unwrap(),
            TreeShape::new(vec![256, 128, 32, 4, 1]).unwrap(),
        ] {
            let fused = FusedTreeEvaluator::new().evaluate(&plan, &input, &shape);
            assert_all_close(&naive, &fused);
        }
    }

    #[test]
    fn quant_gemm_incremental_matches_naive() {
        let spec = patterns::fp8_quant_gemm();
        let plan = analyze_cascade(&spec).unwrap();
        let input = random_input(&["a", "w"], 192, 3);
        let naive = NaiveCascadeEvaluator::new().evaluate(&spec, &input);
        let fused = IncrementalEvaluator::new().evaluate(&plan, &input);
        assert_all_close(&naive, &fused);
    }

    #[test]
    fn sum_sum_tree_matches_naive() {
        let spec = patterns::sum_sum();
        let plan = analyze_cascade(&spec).unwrap();
        let input = random_input(&["x1", "x2"], 64, 4);
        let naive = NaiveCascadeEvaluator::new().evaluate(&spec, &input);
        let shape = TreeShape::new(vec![64, 8, 1]).unwrap();
        let fused = FusedTreeEvaluator::new().evaluate(&plan, &input, &shape);
        assert_all_close(&naive, &fused);
    }

    #[test]
    fn merge_partials_matches_single_pass() {
        let spec = patterns::safe_softmax();
        let plan = analyze_cascade(&spec).unwrap();
        let input = random_input(&["x"], 96, 5);
        let inc = IncrementalEvaluator::new();
        let whole = inc.evaluate(&plan, &input);
        let parts: Vec<Vec<f64>> = (0..3)
            .map(|j| inc.evaluate_range(&plan, &input, j * 32, (j + 1) * 32))
            .collect();
        let merged = inc.merge_partials(&plan, &parts);
        assert_all_close(&whole, &merged);
    }

    #[test]
    #[should_panic(expected = "invalid segment range")]
    fn empty_range_panics() {
        let plan = analyze_cascade(&patterns::safe_softmax()).unwrap();
        let input = CascadeInput::single("x", vec![1.0, 2.0]);
        IncrementalEvaluator::new().evaluate_range(&plan, &input, 1, 1);
    }

    #[test]
    #[should_panic(expected = "must match the cascade input length")]
    fn mismatched_shape_panics() {
        let plan = analyze_cascade(&patterns::safe_softmax()).unwrap();
        let input = CascadeInput::single("x", vec![1.0, 2.0, 3.0, 4.0]);
        let shape = TreeShape::flat(8);
        FusedTreeEvaluator::new().evaluate(&plan, &input, &shape);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_all_fusable_patterns_agree(
            seed in 0u64..1_000,
            len_pow in 3u32..8,
        ) {
            let len = 1usize << len_pow;
            for spec in patterns::all_fusable() {
                let plan = analyze_cascade(&spec).unwrap();
                let names: Vec<&str> = spec.inputs.iter().map(|s| s.as_str()).collect();
                let input = random_input(&names, len, seed);
                let naive = NaiveCascadeEvaluator::new().evaluate(&spec, &input);
                let inc = IncrementalEvaluator::new().evaluate(&plan, &input);
                for (a, b) in naive.iter().zip(&inc) {
                    prop_assert!(close(*a, *b), "{}: naive={a} fused={b}", spec.name);
                }
                let shape = TreeShape::gpu_hierarchy(len, len / 2, len / 4, 2);
                let tree = FusedTreeEvaluator::new().evaluate(&plan, &input, &shape);
                for (a, b) in naive.iter().zip(&tree) {
                    prop_assert!(close(*a, *b), "{} (tree): naive={a} fused={b}", spec.name);
                }
            }
        }

        #[test]
        fn prop_merge_is_associative_in_grouping(
            seed in 0u64..1_000,
        ) {
            let spec = patterns::attention_row();
            let plan = analyze_cascade(&spec).unwrap();
            let input = random_input(&["p", "v"], 64, seed);
            let inc = IncrementalEvaluator::new();
            let parts: Vec<Vec<f64>> = (0..4)
                .map(|j| inc.evaluate_range(&plan, &input, j * 16, (j + 1) * 16))
                .collect();
            let flat = inc.merge_partials(&plan, &parts);
            let left = inc.merge_partials(&plan, &[
                inc.merge_partials(&plan, &parts[..2]),
                inc.merge_partials(&plan, &parts[2..]),
            ]);
            for (a, b) in flat.iter().zip(&left) {
                prop_assert!(close(*a, *b), "grouping changed the result: {a} vs {b}");
            }
        }
    }
}
