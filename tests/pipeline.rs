//! Cross-crate integration tests: the full RedFuser pipeline from scalar loop
//! nests through ACRF, fused-kernel generation, tile-level lowering and the
//! analytical GPU model, cross-checked against the unfused CPU oracles.

use std::collections::HashMap;

use redfuser::baselines::{mha_op_list, moe_op_list, quant_op_list, CompilerBaseline};
use redfuser::codegen::{compile_workload, executable_program, TuningPoint, Workload};
use redfuser::fusion::{
    acrf::analyze_cascade, patterns, CascadeInput, FusedTreeEvaluator, IncrementalEvaluator,
    NaiveCascadeEvaluator, TreeShape,
};
use redfuser::gpusim::{sequence_latency, GpuArch};
use redfuser::kernels::attention::attention_naive;
use redfuser::kernels::moe::route_naive;
use redfuser::tile::exec::{self, ExecInput, ExecOutput};
use redfuser::tir::{builder, detect_cascade, generate_fused, Interpreter};
use redfuser::workloads::{
    mha_configs, moe_configs, moe_tiny, quant_configs, random_vec, Matrix, MoeConfig,
};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn tir_to_fused_kernel_matches_reference_for_every_builder() {
    // Front end end-to-end: builder loop nest -> detection -> ACRF -> fused
    // scalar kernel -> interpreter, compared against the unfused loop nest.
    type Case = (redfuser::tir::TirFunction, Vec<(&'static str, (f64, f64))>);
    let cases: Vec<Case> = vec![
        (builder::unfused_softmax(96), vec![("x", (-3.0, 3.0))]),
        (
            builder::unfused_attention_row(128),
            vec![("p", (-2.0, 2.0)), ("v", (-2.0, 2.0))],
        ),
        (
            builder::unfused_quant_gemm_row(80),
            vec![("a", (-2.0, 2.0)), ("w", (-1.0, 1.0))],
        ),
        (
            builder::unfused_sum_sum(64),
            vec![("x1", (0.5, 2.0)), ("x2", (-1.0, 1.0))],
        ),
    ];
    let interp = Interpreter::new();
    for (unfused, ranges) in cases {
        let detected = detect_cascade(&unfused).unwrap_or_else(|e| panic!("{}: {e}", unfused.name));
        let plan =
            analyze_cascade(&detected.cascade).unwrap_or_else(|e| panic!("{}: {e}", unfused.name));
        let fused = generate_fused(&plan, &detected);
        let inputs: HashMap<String, Vec<f64>> = ranges
            .iter()
            .enumerate()
            .map(|(i, (name, (lo, hi)))| {
                (
                    name.to_string(),
                    random_vec(detected.extent, 100 + i as u64, *lo, *hi),
                )
            })
            .collect();
        let expected = interp.run(&unfused, &inputs).unwrap();
        let actual = interp.run(&fused, &inputs).unwrap();
        for (name, value) in &expected {
            assert!(
                close(value[0], actual[name][0]),
                "{}: output {name} mismatch {} vs {}",
                unfused.name,
                value[0],
                actual[name][0]
            );
        }
    }
}

#[test]
fn generic_evaluators_agree_with_dedicated_attention_kernels() {
    // The symbolic attention-row cascade and the dense unfused attention
    // oracle compute the same output component.
    let kv = 64;
    let hd = 8;
    let q = Matrix::random(1, hd, 3, -1.0, 1.0);
    let k = Matrix::random(kv, hd, 4, -1.0, 1.0);
    let v = Matrix::random(kv, hd, 5, -1.0, 1.0);
    let naive = attention_naive(&q, &k, &v, 1.0);

    let spec = patterns::attention_row();
    let plan = analyze_cascade(&spec).unwrap();
    for component in 0..hd {
        let scores: Vec<f64> = (0..kv)
            .map(|j| (0..hd).map(|d| q.get(0, d) * k.get(j, d)).sum())
            .collect();
        let values: Vec<f64> = (0..kv).map(|j| v.get(j, component)).collect();
        let input = CascadeInput::new([("p".to_string(), scores), ("v".to_string(), values)]);
        let result = IncrementalEvaluator::new().evaluate(&plan, &input);
        assert!(
            close(result[2], naive.get(0, component)),
            "component {component}"
        );
    }
}

#[test]
fn tree_evaluation_is_invariant_across_gpu_like_shapes() {
    let spec = patterns::fp8_quant_gemm();
    let plan = analyze_cascade(&spec).unwrap();
    let input = CascadeInput::new([
        ("a".to_string(), random_vec(512, 21, -2.0, 2.0)),
        ("w".to_string(), random_vec(512, 22, -1.0, 1.0)),
    ]);
    let reference = NaiveCascadeEvaluator::new().evaluate(&spec, &input);
    for shape in [
        TreeShape::flat(512),
        TreeShape::new(vec![512, 64, 8, 1]).unwrap(),
        TreeShape::gpu_hierarchy(512, 128, 16, 4),
    ] {
        let result = FusedTreeEvaluator::new().evaluate(&plan, &input, &shape);
        for (a, b) in reference.iter().zip(&result) {
            assert!(close(*a, *b), "{shape}: {a} vs {b}");
        }
    }
}

#[test]
fn headline_speedups_have_the_papers_shape() {
    // Figure 5 orderings: RedFuser beats both general-purpose compilers on
    // every workload family and is within a small factor of hand-optimized
    // kernels on attention.
    let a10 = GpuArch::a10();
    let h800 = GpuArch::h800();

    let mha = &mha_configs()[1];
    let fused = compile_workload(&Workload::Mha(mha.clone()), &a10);
    let ops = mha_op_list(mha);
    let eager = sequence_latency(&a10, &CompilerBaseline::PyTorchEager.kernels(&ops));
    let dynamo = sequence_latency(&a10, &CompilerBaseline::Dynamo.kernels(&ops));
    let tvm = sequence_latency(&a10, &CompilerBaseline::Tvm.kernels(&ops));
    assert!(fused.latency_us < dynamo && fused.latency_us < tvm && fused.latency_us < eager);
    assert!(
        eager / fused.latency_us >= 2.0,
        "fused attention should be at least ~2x over eager"
    );

    let moe = &moe_configs()[6];
    let fused = compile_workload(&Workload::Moe(moe.clone()), &a10);
    let dynamo = sequence_latency(&a10, &CompilerBaseline::Dynamo.kernels(&moe_op_list(moe)));
    assert!(fused.latency_us < dynamo);

    let quant = &quant_configs()[5];
    let fused = compile_workload(&Workload::Quant(quant.clone()), &h800);
    let tvm = sequence_latency(&h800, &CompilerBaseline::Tvm.kernels(&quant_op_list(quant)));
    let dynamo = sequence_latency(
        &h800,
        &CompilerBaseline::Dynamo.kernels(&quant_op_list(quant)),
    );
    assert!(fused.latency_us < dynamo && fused.latency_us < tvm);
    assert!(
        tvm / fused.latency_us > dynamo / fused.latency_us,
        "TVM must trail Dynamo on Quant+GEMM"
    );
}

#[test]
fn every_fig5_workload_compiles_on_every_platform() {
    for arch in GpuArch::all() {
        for workload in [
            Workload::Mha(mha_configs()[0].clone()),
            Workload::Mla(redfuser::workloads::mla_configs()[0].clone()),
            Workload::Moe(moe_configs()[0].clone()),
            Workload::Quant(quant_configs()[0].clone()),
            Workload::Variance(redfuser::workloads::variance_configs()[0].clone()),
            Workload::Inertia(redfuser::workloads::inertia_configs()[0].clone()),
        ] {
            let compiled = compile_workload(&workload, &arch);
            assert!(
                compiled.latency_us.is_finite() && compiled.latency_us > 0.0,
                "{} on {}",
                compiled.name,
                arch.name
            );
        }
    }
}

#[test]
fn routing_selects_the_oracles_experts_around_nan_scores_at_any_segment_count() {
    // Three experts score NaN for every token (a NaN weight under positive
    // activations) and token 4 scores NaN everywhere (a NaN activation). NaN
    // ranks below every number in the tile VM and in `route_naive` alike, so
    // the order in which tiles and segments offer the scores cannot move the
    // selection; every probability of a row with a NaN score is NaN.
    let moe = MoeConfig { s: 6, ..moe_tiny() };
    let x = {
        let mut x = Matrix::random(moe.s, moe.hd, 41, 0.1, 1.0);
        x.set(4, 7, f64::NAN);
        x
    };
    let mut w = Matrix::random(moe.hd, moe.en, 42, -1.0, 1.0);
    for expert in [0, 5, 9] {
        w.set(3, expert, f64::NAN);
    }
    let expected = route_naive(&x, &w, moe.topk);
    assert_eq!(expected[0].experts.len(), moe.topk);
    assert!(!expected[0].experts.contains(&0), "a NaN score ranks last");
    assert_eq!(expected[4].experts, [0, 1, 2, 3], "all NaN: by index");
    let workload = Workload::Moe(moe.clone());
    for (block_axis, segments) in [(moe.en, 1), (3, 1), (2, 4), (1, moe.en)] {
        let tuning = TuningPoint {
            block_rows: 1,
            block_axis,
            threads: 128,
            pipeline_depth: 2,
            segments: segments as u32,
        };
        let program = executable_program(&workload, &tuning);
        assert_eq!(program.binding.as_ref().unwrap().segments, segments);
        let input = ExecInput::Routing { x: &x, w: &w };
        let ExecOutput::TopK(decisions) = exec::execute(&program, &input).unwrap() else {
            panic!("routing returns decisions");
        };
        for (token, (got, want)) in decisions.iter().zip(&expected).enumerate() {
            let context = format!("token {token}, tiles of {block_axis}, {segments} segments");
            assert_eq!(got.experts, want.experts, "{context}");
            assert!(
                got.probs.iter().chain(&want.probs).all(|p| p.is_nan()),
                "{context}"
            );
        }
    }
}
