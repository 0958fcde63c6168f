//! MoE routing fusion: the softmax + top-k cascade is fused into a single
//! streaming pass per token, the generated kernel is checked against the
//! unfused pipeline, and the DeepSeek-V2-Lite routing configuration is
//! compiled and compared against the compiler baselines.
//!
//! Run with `cargo run --example moe_routing`.

use redfuser::baselines::{moe_op_list, CompilerBaseline};
use redfuser::codegen::{compile_workload, Workload};
use redfuser::gpusim::{sequence_latency, GpuArch};
use redfuser::kernels::max_rel_diff;
use redfuser::runtime::{execute_plan, execute_reference, Request, RequestInput, RequestOutput};
use redfuser::workloads::{moe_configs, moe_tiny, Matrix};

pub fn main() {
    // The symbolic side: the routing softmax is a fusable cascade.
    let plan = redfuser::fusion::analyze_cascade(&redfuser::fusion::patterns::moe_routing_scores())
        .unwrap();
    println!("{}", plan.report());

    // The numeric side: the generated routing kernel for a tiny config, run on
    // the tile VM, picks the same experts as the unfused GEMM -> softmax ->
    // top-k pipeline, with the same probabilities.
    let arch = GpuArch::a10();
    let tiny = moe_tiny();
    let request = Request::new(
        Workload::Moe(tiny.clone()),
        RequestInput::Routing {
            x: Matrix::random(tiny.s, tiny.hd, 5, -1.0, 1.0),
            w: Matrix::random(tiny.hd, tiny.en, 6, -1.0, 1.0),
        },
    )
    .expect("tensors fit the workload");
    let kernel = compile_workload(&request.workload, &arch);
    let generated = execute_plan(&kernel, &request).expect("the compiled kernel runs");
    let reference = execute_reference(&request.workload, &request.input);
    let (RequestOutput::Routing(g), RequestOutput::Routing(r)) = (&generated, &reference) else {
        panic!("routing returns decisions");
    };
    println!(
        "same experts: {}, max probability difference {:.3e}",
        g.iter().zip(r).all(|(g, r)| g.experts == r.experts),
        g.iter()
            .zip(r)
            .map(|(g, r)| max_rel_diff(&g.probs, &r.probs))
            .fold(0.0, f64::max)
    );
    println!(
        "token 0 experts: {:?} probs: {:?}",
        g[0].experts,
        g[0].probs
            .iter()
            .map(|p| format!("{p:.4}"))
            .collect::<Vec<_>>()
    );
    assert!(
        generated.approx_eq(&reference, 1e-9),
        "the generated routing kernel disagrees with the unfused oracle"
    );

    // The performance side: DeepSeek-V2-Lite routing (R6) on an A10.
    let config = moe_configs().into_iter().find(|c| c.name == "R6").unwrap();
    let compiled = compile_workload(&Workload::Moe(config.clone()), &arch);
    let ops = moe_op_list(&config);
    println!("\nestimated latency on {} ({}):", arch.name, config.name);
    for baseline in CompilerBaseline::ALL {
        println!(
            "  {:<16}{:10.1} us",
            baseline.name(),
            sequence_latency(&arch, &baseline.kernels(&ops))
        );
    }
    println!("  {:<16}{:10.1} us", "RedFuser", compiled.latency_us);
}
