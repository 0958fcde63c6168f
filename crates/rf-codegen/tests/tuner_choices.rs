//! The auto-tuner's claims as tests. The guided search picks the exhaustive
//! oracle's point on every Table 2/3 config, at most a fifth of the raw space
//! on each config it tunes; and compiling is deterministic.
//!
//! What the tuner chose — per workload, preset and search mode, the point,
//! the bits of its estimated latency, how many candidates it costed, the size
//! of the raw space and the kernel profile — is recorded in the sim-clock
//! ledger `BENCH_sim.json` at the repository root, which `rf-bench`'s
//! `tests/sim_ledger.rs` regenerates and compares row by row.

use rf_codegen::{compile_workload_with, CompileOptions, SearchMode, Workload};
use rf_gpusim::GpuArch;
use rf_workloads::{
    inertia_configs, mha_configs, mha_tiny, mla_configs, mla_tiny, moe_configs, quant_configs,
    variance_configs,
};

/// The tuned workloads beyond Table 2/3 (the rest of the ledger's tuner
/// rows): the two tiny attention shapes and nine softmax shapes.
fn extra_workloads() -> Vec<Workload> {
    let softmax_rows = [512, 64, 4, 1, 32, 4, 256, 1, 3];
    let softmax_lens = [4096, 1024, 8192, 32768, 128, 8, 1024, 1, 7];
    let softmax = softmax_rows.into_iter().zip(softmax_lens);
    [Workload::Mha(mha_tiny()), Workload::Mla(mla_tiny())]
        .into_iter()
        .chain(softmax.map(|(rows, len)| Workload::Softmax { rows, len }))
        .collect()
}

fn exhaustive() -> CompileOptions {
    CompileOptions {
        mode: SearchMode::Exhaustive,
        ..CompileOptions::default()
    }
}

/// The 52 Table 2/3 configs: MHA, MLA, MoE, Quant, Variance, Inertia.
fn table23_workloads() -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    out.extend(mha_configs().into_iter().map(Workload::Mha));
    out.extend(mla_configs().into_iter().map(Workload::Mla));
    out.extend(moe_configs().into_iter().map(Workload::Moe));
    out.extend(quant_configs().into_iter().map(Workload::Quant));
    out.extend(variance_configs().into_iter().map(Workload::Variance));
    out.extend(inertia_configs().into_iter().map(Workload::Inertia));
    out
}

/// On every preset, the guided search picks the exhaustive oracle's point
/// on all 52 configs, and each of the 18 attention configs it tunes costs at
/// most a fifth of the 840-point raw space. (The other four families compile
/// from a one-point space.)
#[test]
fn guided_picks_the_oracle_point_at_a_fifth_of_the_space() {
    let workloads = table23_workloads();
    assert_eq!(workloads.len(), 52);
    for arch in GpuArch::all() {
        let mut tuned = 0;
        for workload in &workloads {
            let guided = compile_workload_with(workload, &arch, &CompileOptions::default()).tuning;
            let oracle = compile_workload_with(workload, &arch, &exhaustive()).tuning;
            let name = workload.name();
            assert_eq!(guided.point, oracle.point, "{name} on {}", arch.name);
            if guided.space_size > 1 {
                tuned += 1;
                assert!(
                    guided.evaluated * 5 <= guided.space_size,
                    "{name} on {}: guided costed {} of a {}-point space",
                    arch.name,
                    guided.evaluated,
                    guided.space_size
                );
            }
        }
        assert_eq!(tuned, 18, "tuned configs on {}", arch.name);
    }
}

/// Compiling is a pure function of `(workload, arch, options)`: two compiles
/// of every workload of this file, on every preset and in both modes, return
/// equal kernels.
#[test]
fn compiling_twice_gives_equal_kernels() {
    let mut workloads = table23_workloads();
    workloads.extend(extra_workloads());
    for arch in GpuArch::all() {
        for opts in [CompileOptions::default(), exhaustive()] {
            for workload in &workloads {
                assert_eq!(
                    compile_workload_with(workload, &arch, &opts),
                    compile_workload_with(workload, &arch, &opts),
                    "{} on {} ({:?})",
                    workload.name(),
                    arch.name,
                    opts.mode
                );
            }
        }
    }
}
