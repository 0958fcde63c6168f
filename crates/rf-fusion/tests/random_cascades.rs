//! Property test: **randomly generated** fusable cascades evaluate identically
//! under the naive chain-of-trees, incremental and fused-tree evaluators.
//!
//! The unit tests in `eval.rs` cross-check the evaluators on the paper's five
//! fixed patterns; this test draws cascades from a small grammar
//! (`tests/grammar`) spanning the four fusable map-function families the
//! paper's case studies cover (softmax-like, quant-like, attention-like,
//! sum+sum-like), with randomized per-element selectors, weight terms,
//! reduction operators and constants.
//! It is the correctness oracle backing `rf-runtime`'s execution path: any
//! cascade the runtime serves evaluates through exactly these code paths.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rf_fusion::{
    analyze_cascade, CascadeInput, FusedTreeEvaluator, IncrementalEvaluator, NaiveCascadeEvaluator,
    TreeShape,
};

mod grammar;
use grammar::{family_grid, random_cascade};

fn random_input(len: usize, seed: u64) -> CascadeInput {
    let mut rng = StdRng::seed_from_u64(seed);
    CascadeInput::new([
        (
            "x".to_string(),
            (0..len)
                .map(|_| rng.gen_range(-2.0..2.0))
                .collect::<Vec<f64>>(),
        ),
        (
            "y".to_string(),
            (0..len)
                .map(|_| rng.gen_range(-2.0..2.0))
                .collect::<Vec<f64>>(),
        ),
    ])
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn every_grammar_point_is_fusable() {
    for spec in (0..4).flat_map(family_grid) {
        analyze_cascade(&spec)
            .unwrap_or_else(|e| panic!("{} should be fusable, got {e}", spec.name));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_random_fusable_cascades_agree_across_evaluators(
        family in 0usize..4,
        s0 in 0usize..4,
        s1 in 0usize..3,
        c_idx in 0usize..4,
        len_pow in 3u32..8,
        seed in 0u64..10_000,
    ) {
        let len = 1usize << len_pow;
        let spec = random_cascade(family, s0, s1, c_idx);
        let plan = analyze_cascade(&spec).expect("grammar only emits fusable cascades");
        let input = random_input(len, seed);

        let naive = NaiveCascadeEvaluator::new().evaluate(&spec, &input);
        let incremental = IncrementalEvaluator::new().evaluate(&plan, &input);
        for (a, b) in naive.iter().zip(&incremental) {
            prop_assert!(close(*a, *b), "{}: naive={a} incremental={b}", spec.name);
        }

        // The fused reduction tree must agree for every level hierarchy, not
        // just the flat one.
        for shape in [
            TreeShape::flat(len),
            TreeShape::gpu_hierarchy(len, len / 2, len / 4, 2),
        ] {
            let tree = FusedTreeEvaluator::new().evaluate(&plan, &input, &shape);
            for (a, b) in naive.iter().zip(&tree) {
                prop_assert!(close(*a, *b), "{} ({shape}): naive={a} tree={b}", spec.name);
            }
        }

        // Splitting the stream and merging partials must match the single
        // pass (the runtime's multi-segment execution path).
        if len >= 16 {
            let inc = IncrementalEvaluator::new();
            let quarters: Vec<Vec<f64>> = (0..4)
                .map(|j| inc.evaluate_range(&plan, &input, j * len / 4, (j + 1) * len / 4))
                .collect();
            let merged = inc.merge_partials(&plan, &quarters);
            for (a, b) in naive.iter().zip(&merged) {
                prop_assert!(close(*a, *b), "{} (merge): naive={a} merged={b}", spec.name);
            }
        }
    }
}
