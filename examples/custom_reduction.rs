//! Fusing user-defined (non-ML) cascaded reductions: variance and the moment
//! of inertia about the center of mass (Appendix A.6), plus a custom cascade
//! defined from scratch with the public API and taken through the scalar-IR
//! front end (loop nest → detection → ACRF → fused loop nest).
//!
//! Run with `cargo run --example custom_reduction`.

use std::collections::HashMap;

use redfuser::algebra::ReduceOp;
use redfuser::codegen::{compile_workload, Workload};
use redfuser::expr::Expr;
use redfuser::fusion::{
    acrf::analyze_cascade, CascadeInput, CascadeSpec, IncrementalEvaluator, NaiveCascadeEvaluator,
    ReductionSpec,
};
use redfuser::gpusim::GpuArch;
use redfuser::kernels::max_rel_diff;
use redfuser::runtime::{execute_plan, execute_reference, Request, RequestInput, RequestOutput};
use redfuser::tir::{builder, detect_cascade, generate_fused, Interpreter};
use redfuser::workloads::{inertia_tiny, random_vec, variance_tiny, Matrix};

pub fn main() {
    // A custom cascade built from scratch: a scaled-normalisation pattern
    // s = sum x, q = sum x / s (every later term normalised by the total).
    let x = Expr::var("x");
    let cascade = CascadeSpec::new(
        "scaled_sum",
        vec!["x".to_string()],
        vec![
            ReductionSpec::new("s", ReduceOp::Sum, x.clone()),
            ReductionSpec::new("q", ReduceOp::Sum, x / Expr::var("s")),
        ],
    )
    .expect("valid cascade");
    let plan = analyze_cascade(&cascade).expect("scaled sum is fusable");
    println!("{}", plan.report());

    let values = random_vec(1024, 11, 0.5, 2.0);
    let input = CascadeInput::single("x", values.clone());
    let naive = NaiveCascadeEvaluator::new().evaluate(&cascade, &input);
    let fused = IncrementalEvaluator::new().evaluate(&plan, &input);
    println!("s: unfused {:.9} vs fused {:.9}", naive[0], fused[0]);
    println!("q: unfused {:.9} vs fused {:.9}", naive[1], fused[1]);

    // The same cascade through the scalar-IR front end: the unfused loop nest
    // generated from the spec is detected, fused and interpreted.
    let unfused = builder::unfused(&cascade, values.len());
    let detected = detect_cascade(&unfused).expect("the generated nest is a cascade");
    assert_eq!(detected.cascade, cascade, "detection recovers the spec");
    let fused_nest = generate_fused(&plan, &detected);
    println!("\nfused scalar kernel:\n{fused_nest}");
    let out = Interpreter::new()
        .run(&fused_nest, &HashMap::from([("x".to_string(), values)]))
        .expect("the fused nest runs");
    let interpreted: Vec<f64> = cascade
        .result_names()
        .iter()
        .map(|name| out[name][0])
        .collect();
    println!(
        "fused nest: s {:.9}, q {:.9} (max relative difference to unfused {:.3e})",
        interpreted[0],
        interpreted[1],
        max_rel_diff(&interpreted, &naive)
    );
    assert!(
        max_rel_diff(&interpreted, &naive) <= 1e-9,
        "the fused scalar kernel disagrees with the unfused evaluation"
    );

    // The paper's non-ML workloads: the generated single-pass kernels for the
    // tiny configs, run on the tile VM, against the one-pass-per-reduction
    // oracles.
    let arch = GpuArch::a10();
    let (variance, inertia) = (variance_tiny(), inertia_tiny());
    let requests = [
        Request::new(
            Workload::Variance(variance.clone()),
            RequestInput::Rows(Matrix::random(variance.bs, variance.l, 13, -3.0, 3.0)),
        ),
        Request::new(
            Workload::Inertia(inertia.clone()),
            RequestInput::Inertia {
                masses: random_vec(inertia.n, 17, 0.1, 2.0),
                positions: Matrix::random(inertia.n, inertia.dim, 18, -5.0, 5.0),
            },
        ),
    ];
    for request in requests {
        let request = request.expect("tensors fit the workload");
        let kernel = compile_workload(&request.workload, &arch);
        let generated = execute_plan(&kernel, &request).expect("the compiled kernel runs");
        let reference = execute_reference(&request.workload, &request.input);
        let (RequestOutput::Values(g), RequestOutput::Values(r)) = (&generated, &reference) else {
            panic!("variance and inertia return values");
        };
        println!(
            "{}: unfused {r:.6?} vs generated {g:.6?} (max relative difference {:.3e})",
            request.workload.name(),
            max_rel_diff(g, r)
        );
        assert!(
            generated.approx_eq(&reference, 1e-9),
            "{}: the generated kernel disagrees with the unfused oracle",
            request.workload.name()
        );
    }
}
