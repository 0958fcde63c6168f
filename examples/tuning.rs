//! The staged auto-tuner: guided search vs the exhaustive oracle.
//!
//! Run with `cargo run --release --example tuning`.

use redfuser::codegen::{compile_workload_with, CompileOptions, SearchMode, Workload};
use redfuser::gpusim::GpuArch;

pub fn main() {
    let arch = GpuArch::h800();
    let workload = Workload::Softmax {
        rows: 4096,
        len: 8192,
    };

    // The exhaustive oracle scans every (deduplicated, statically feasible)
    // candidate; the guided mode seeds a coarse lattice and refines by
    // coordinate descent. Both must agree on the chosen configuration.
    let oracle = compile_workload_with(
        &workload,
        &arch,
        &CompileOptions {
            mode: SearchMode::Exhaustive,
            ..CompileOptions::default()
        },
    );
    let guided = compile_workload_with(&workload, &arch, &CompileOptions::default());
    println!(
        "exhaustive: {:?} -> {:.2} us ({} of {} raw points evaluated)",
        oracle.tuning.point, oracle.latency_us, oracle.tuning.evaluated, oracle.tuning.space_size
    );
    println!(
        "guided:     {:?} -> {:.2} us ({} evaluated, {:.1}x fewer)",
        guided.tuning.point,
        guided.latency_us,
        guided.tuning.evaluated,
        oracle.tuning.evaluated as f64 / guided.tuning.evaluated as f64
    );
    assert!(guided.latency_us <= oracle.latency_us * 1.05);
}
