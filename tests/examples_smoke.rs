//! Smoke test: every `examples/*.rs` target must keep compiling *and* running.
//!
//! Each example is included here as a module via `#[path]`, so `cargo test`
//! exercises the exact source that `cargo run --example <name>` builds — the
//! quickstart paths shown in the README and crate docs cannot silently rot.
//! The examples expose `pub fn main()` (instead of the private default) to
//! make them callable from this harness.

#[path = "../examples/attention_fusion.rs"]
mod attention_fusion;
#[path = "../examples/custom_reduction.rs"]
mod custom_reduction;
#[path = "../examples/graph_serving.rs"]
mod graph_serving;
#[path = "../examples/moe_routing.rs"]
mod moe_routing;
#[path = "../examples/observability.rs"]
mod observability;
#[path = "../examples/quant_gemm.rs"]
mod quant_gemm;
#[path = "../examples/quickstart.rs"]
mod quickstart;
#[path = "../examples/serving.rs"]
mod serving;
#[path = "../examples/tuning.rs"]
mod tuning;

#[test]
fn quickstart_runs() {
    quickstart::main();
}

#[test]
fn attention_fusion_runs() {
    attention_fusion::main();
}

#[test]
fn custom_reduction_runs() {
    custom_reduction::main();
}

#[test]
fn graph_serving_runs() {
    graph_serving::main();
}

#[test]
fn moe_routing_runs() {
    moe_routing::main();
}

#[test]
fn observability_runs() {
    observability::main();
}

#[test]
fn quant_gemm_runs() {
    quant_gemm::main();
}

#[test]
fn serving_runs() {
    serving::main();
}

#[test]
fn tuning_runs() {
    tuning::main();
}
