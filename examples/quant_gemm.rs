//! FP8 per-token quantization + GEMM (the paper's §3.4 case study): ACRF
//! derives the fused and incremental forms, the generated kernel is checked
//! against the unfused oracle, and the DeepSeek-R1 shapes are compiled for an
//! H800.
//!
//! Run with `cargo run --example quant_gemm`.

use redfuser::baselines::{quant_op_list, CompilerBaseline};
use redfuser::codegen::{compile_workload, Workload};
use redfuser::gpusim::{sequence_latency, GpuArch};
use redfuser::runtime::{execute_plan, execute_reference, Request, RequestInput, RequestOutput};
use redfuser::workloads::{quant_configs, quant_tiny, Matrix};

pub fn main() {
    // Symbolic derivation (Eq. 17-22 of the paper).
    let plan =
        redfuser::fusion::analyze_cascade(&redfuser::fusion::patterns::fp8_quant_gemm()).unwrap();
    println!("{}", plan.report());

    // Numeric check: the generated kernel for a tiny config, run on the tile
    // VM, against the three-pass oracle. Tiles that see only part of a row
    // quantise under a provisional scale (Eq. 21-22), so the two agree within
    // the FP8 noise floor: 5% of the output peak.
    let arch = GpuArch::h800();
    let tiny = quant_tiny();
    let request = Request::new(
        Workload::Quant(tiny.clone()),
        RequestInput::QuantGemm {
            a: Matrix::random(tiny.m, tiny.k, 9, -2.0, 2.0),
            w: Matrix::random(tiny.k, tiny.n, 10, -1.0, 1.0),
        },
    )
    .expect("tensors fit the workload");
    let kernel = compile_workload(&request.workload, &arch);
    let generated = execute_plan(&kernel, &request).expect("the compiled kernel runs");
    let reference = execute_reference(&request.workload, &request.input);
    let (RequestOutput::Matrix(g), RequestOutput::Matrix(r)) = (&generated, &reference) else {
        panic!("quant + GEMM returns a matrix");
    };
    let peak = r.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let diff = r.max_abs_diff(g);
    println!(
        "max |unfused - generated| = {diff:.3e} (noise floor {:.3e}, tuned {:?})",
        0.05 * peak,
        kernel.tuning.point
    );
    assert!(
        diff <= 0.05 * peak + 1e-9,
        "the generated quant + GEMM kernel leaves the FP8 noise floor"
    );

    // Performance: DeepSeek-R1 projection shapes (Q5/Q6) on an H800.
    for name in ["Q5", "Q6"] {
        let config = quant_configs()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap();
        let compiled = compile_workload(&Workload::Quant(config.clone()), &arch);
        let ops = quant_op_list(&config);
        println!(
            "\nestimated latency on {} ({} = [{} x {}] * [{} x {}]):",
            arch.name, name, config.m, config.k, config.k, config.n
        );
        for baseline in CompilerBaseline::ALL {
            println!(
                "  {:<16}{:10.1} us",
                baseline.name(),
                sequence_latency(&arch, &baseline.kernels(&ops))
            );
        }
        println!("  {:<16}{:10.1} us", "RedFuser", compiled.latency_us);
    }
}
