//! End-to-end attention fusion: detect the cascade in a scalar loop nest,
//! fuse it, generate the FlashAttention-style tile program, auto-tune it for
//! an A10, run it against the unfused oracle, and compare its latency with
//! the compiler baselines and FlashAttention2.
//!
//! Run with `cargo run --example attention_fusion`.

use std::collections::HashMap;

use redfuser::baselines::{flash_attention2_profile, mha_op_list, CompilerBaseline};
use redfuser::codegen::{compile_workload, Workload};
use redfuser::fusion::patterns;
use redfuser::gpusim::{estimate_latency, sequence_latency, GpuArch};
use redfuser::runtime::{execute_plan, execute_reference, Request, RequestInput, RequestOutput};
use redfuser::tir::{builder, detect_cascade, generate_fused, Interpreter};
use redfuser::workloads::{mha_configs, mha_tiny, Matrix};

pub fn main() {
    // --- Front end: scalar loop nest -> cascade -> fused scalar kernel. ---
    let unfused = builder::unfused(&patterns::attention_row(), 256);
    let detected = detect_cascade(&unfused).expect("attention row is a cascaded reduction");
    let plan =
        redfuser::fusion::analyze_cascade(&detected.cascade).expect("attention row is fusable");
    let fused = generate_fused(&plan, &detected);
    println!(
        "detected cascade over axis `{}` with reductions {:?}",
        detected.axis, detected.reduction_buffers
    );
    println!("\nfused scalar kernel:\n{fused}");

    // The fused kernel computes the same result as the unfused loop nest.
    let inputs = HashMap::from([
        (
            "p".to_string(),
            redfuser::workloads::random_vec(256, 3, -2.0, 2.0),
        ),
        (
            "v".to_string(),
            redfuser::workloads::random_vec(256, 4, -2.0, 2.0),
        ),
    ]);
    let interp = Interpreter::new();
    let a = interp.run(&unfused, &inputs).unwrap();
    let b = interp.run(&fused, &inputs).unwrap();
    println!("unfused o = {:.9}, fused o = {:.9}", a["o"][0], b["o"][0]);

    // --- The generated kernel: a tiny MHA slice compiled, run on the tile VM
    //     and checked against the unfused oracle. ---
    let arch = GpuArch::a10();
    let tiny = mha_tiny();
    let request = Request::new(
        Workload::Mha(tiny.clone()),
        RequestInput::Attention {
            q: Matrix::random(tiny.q, tiny.hd, 1, -1.0, 1.0),
            k: Matrix::random(tiny.kv, tiny.hd, 2, -1.0, 1.0),
            v: Matrix::random(tiny.kv, tiny.hd, 3, -1.0, 1.0),
        },
    )
    .expect("tensors fit the workload");
    let kernel = compile_workload(&request.workload, &arch);
    let generated = execute_plan(&kernel, &request).expect("the compiled kernel runs");
    let reference = execute_reference(&request.workload, &request.input);
    let (RequestOutput::Matrix(g), RequestOutput::Matrix(r)) = (&generated, &reference) else {
        panic!("attention returns a matrix");
    };
    println!(
        "max |unfused - generated| = {:.3e} (tuned {:?})",
        r.max_abs_diff(g),
        kernel.tuning.point
    );
    assert!(
        generated.approx_eq(&reference, 1e-9),
        "the generated attention kernel disagrees with the unfused oracle"
    );

    // --- Back end: compile BERT-base MHA for an A10 and compare latencies. ---
    let config = mha_configs()
        .into_iter()
        .find(|c| c.model == "BERT-Base")
        .unwrap();
    let compiled = compile_workload(&Workload::Mha(config.clone()), &arch);
    println!(
        "\nRedFuser-compiled kernel (tuned {:?}):",
        compiled.tuning.point
    );
    if let Some(program) = &compiled.program {
        println!("{program}");
    }
    let eager = sequence_latency(
        &arch,
        &CompilerBaseline::PyTorchEager.kernels(&mha_op_list(&config)),
    );
    let dynamo = sequence_latency(
        &arch,
        &CompilerBaseline::Dynamo.kernels(&mha_op_list(&config)),
    );
    let fa2 = estimate_latency(&arch, &flash_attention2_profile(&config)).total_us;
    println!("estimated latency on {} ({}):", arch.name, config.name);
    println!("  PyTorch Eager    {eager:10.1} us");
    println!("  PyTorch Dynamo   {dynamo:10.1} us");
    println!("  FlashAttention2  {fa2:10.1} us");
    println!("  RedFuser         {:10.1} us", compiled.latency_us);
}
