//! The §4.1 front end over every cascade the repository names: the seven
//! `patterns::all_fusable()` specs, the refuted two-pass variance,
//! `examples/custom_reduction.rs`' `scaled_sum` and the 384 cascades of the
//! test grammar (`rf-fusion/tests/grammar`). For each, the unfused nest
//! generated from the spec is detected back into the spec, ACRF decides the
//! detected cascade as it decides the spec, and the interpreted unfused and
//! fused nests agree with `NaiveCascadeEvaluator` on three seeded inputs.

use std::collections::HashMap;

use rf_algebra::ReduceOp;
use rf_expr::Expr;
use rf_fusion::{
    analyze_cascade, patterns, CascadeInput, CascadeSpec, NaiveCascadeEvaluator, ReductionSpec,
};
use rf_tir::{builder, detect_cascade, generate_fused, Interpreter};
use rf_workloads::random_vec;

#[path = "../../rf-fusion/tests/grammar/mod.rs"]
mod grammar;

/// Length of every input vector.
const EXTENT: usize = 48;

/// The custom cascade of `examples/custom_reduction.rs`.
fn scaled_sum() -> CascadeSpec {
    CascadeSpec::new(
        "scaled_sum",
        vec!["x".to_string()],
        vec![
            ReductionSpec::new("s", ReduceOp::Sum, Expr::var("x")),
            ReductionSpec::new("q", ReduceOp::Sum, Expr::var("x") / Expr::var("s")),
        ],
    )
    .expect("scaled_sum is a valid cascade")
}

/// Every cascade the repository names, the grammar's full grid included.
fn named_cascades() -> Vec<CascadeSpec> {
    let mut specs = patterns::all_fusable();
    specs.push(patterns::non_decomposable_variance());
    specs.push(scaled_sum());
    specs.extend((0..4).flat_map(grammar::family_grid));
    specs
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-8 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn every_named_cascade_round_trips_through_the_front_end() {
    let specs = named_cascades();
    assert_eq!(specs.len(), 393);
    let interp = Interpreter::new();
    let mut refuted = Vec::new();
    for spec in &specs {
        let unfused = builder::unfused(spec, EXTENT);
        let detected = detect_cascade(&unfused).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        assert_eq!(detected.cascade.name, spec.name);
        assert_eq!(
            detected.cascade.reductions, spec.reductions,
            "{}",
            spec.name
        );

        // The detected cascade lists only the inputs its maps read, so the
        // verdicts are compared on their reductions.
        let verdict = analyze_cascade(&detected.cascade);
        assert_eq!(
            verdict.as_ref().map(|plan| &plan.reductions),
            analyze_cascade(spec).as_ref().map(|plan| &plan.reductions),
            "{}",
            spec.name
        );
        let fused = match verdict {
            Ok(plan) => Some(generate_fused(&plan, &detected)),
            Err(_) => {
                refuted.push(spec.name.clone());
                None
            }
        };

        for seed in 0..3u64 {
            let columns: Vec<(String, Vec<f64>)> = spec
                .inputs
                .iter()
                .zip(seed * 8..)
                .map(|(name, column_seed)| {
                    (name.clone(), random_vec(EXTENT, column_seed, -2.0, 2.0))
                })
                .collect();
            let expected =
                NaiveCascadeEvaluator::new().evaluate(spec, &CascadeInput::new(columns.clone()));
            let buffers: HashMap<String, Vec<f64>> = columns.into_iter().collect();
            for nest in std::iter::once(&unfused).chain(&fused) {
                let out = interp
                    .run(nest, &buffers)
                    .unwrap_or_else(|e| panic!("{}: {e}", nest.name));
                for (r, want) in spec.reductions.iter().zip(&expected) {
                    let got = out[&r.name][0];
                    assert!(
                        close(got, *want),
                        "{} (seed {seed}): {} = {got}, naive {want}",
                        nest.name,
                        r.name
                    );
                }
            }
        }
    }
    assert_eq!(refuted, [patterns::non_decomposable_variance().name]);
}
