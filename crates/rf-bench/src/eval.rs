//! Evaluation driver shared by the Figure 5 / 8 / 9 harness binaries and the
//! sim-clock ledger.
//!
//! For each workload configuration the driver estimates the latency of every
//! baseline (via `rf-baselines` + `rf-gpusim`) and of the RedFuser-compiled
//! kernel (via `rf-codegen`); [`SimRow::speedups`] normalizes them to PyTorch
//! Eager exactly as the paper's figures do.

use rf_baselines::{
    flash_attention2_profile, flash_mla_profile, inertia_op_list, mha_op_list, mla_op_list,
    moe_op_list, quant_op_list, variance_op_list, CompilerBaseline,
};
use rf_codegen::{compile_workload, Workload};
use rf_gpusim::{estimate_latency, sequence_latency, GpuArch};
use rf_workloads::{
    inertia_configs, mha_configs, mla_configs, moe_configs, quant_configs, variance_configs,
};

use crate::SimRow;

/// The 52 Table 2/3 configurations in table order: MHA, MLA, MoE, Quant,
/// Variance, Inertia.
pub(crate) fn table_workloads() -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    out.extend(mha_configs().into_iter().map(Workload::Mha));
    out.extend(mla_configs().into_iter().map(Workload::Mla));
    out.extend(moe_configs().into_iter().map(Workload::Moe));
    out.extend(quant_configs().into_iter().map(Workload::Quant));
    out.extend(variance_configs().into_iter().map(Workload::Variance));
    out.extend(inertia_configs().into_iter().map(Workload::Inertia));
    out
}

/// `workload` on `arch`: Eager, Dynamo and TVM over the family's op list, the
/// family's hand-written kernel (FlashAttention2 for MHA, FlashMLA for MLA)
/// where it has one, then RedFuser's compiled kernel.
///
/// # Panics
///
/// On `Workload::Softmax`, which has no baseline op list.
pub(crate) fn sim_row(workload: &Workload, arch: &GpuArch) -> SimRow {
    let (config, ops, hand) = match workload {
        Workload::Mha(c) => (
            c.name,
            mha_op_list(c),
            Some(("FlashAttention2", flash_attention2_profile(c))),
        ),
        Workload::Mla(c) => (
            c.name,
            mla_op_list(c),
            Some(("FlashMLA", flash_mla_profile(c))),
        ),
        Workload::Moe(c) => (c.name, moe_op_list(c), None),
        Workload::Quant(c) => (c.name, quant_op_list(c), None),
        Workload::Variance(c) => (c.name, variance_op_list(c), None),
        Workload::Inertia(c) => (c.name, inertia_op_list(c), None),
        Workload::Softmax { .. } => panic!("{}: no baseline op list", workload.name()),
    };
    let mut us: Vec<(&'static str, f64)> = CompilerBaseline::ALL
        .iter()
        .map(|b| (b.name(), sequence_latency(arch, &b.kernels(&ops))))
        .collect();
    us.extend(hand.map(|(name, profile)| (name, estimate_latency(arch, &profile).total_us)));
    us.push(("RedFuser", compile_workload(workload, arch).latency_us));
    SimRow {
        config: config.to_string(),
        us,
    }
}

/// The rows of one Table 2/3 family (`Workload::class`, e.g. `"mha"`) on
/// `arch`: Figure 5's panels, Figure 8's columns and Figure 9's plots.
pub fn rows(arch: &GpuArch, class: &str) -> Vec<SimRow> {
    table_workloads()
        .iter()
        .filter(|w| w.class() == class)
        .map(|w| sim_row(w, arch))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redfuser_beats_compilers_on_every_fig5_workload() {
        let a10 = GpuArch::a10();
        let h800 = GpuArch::h800();
        for rows in [
            rows(&a10, "mha"),
            rows(&h800, "mla"),
            rows(&a10, "moe"),
            rows(&h800, "quant"),
        ] {
            for row in &rows {
                let redfuser = row.speedup("RedFuser");
                assert!(
                    redfuser > row.speedup("PyTorch Dynamo"),
                    "{}: vs Dynamo",
                    row.config
                );
                assert!(redfuser > row.speedup("TVM"), "{}: vs TVM", row.config);
                assert!(redfuser >= 1.0, "{}: vs Eager", row.config);
            }
        }
    }

    #[test]
    fn redfuser_is_competitive_with_hand_optimized_kernels() {
        for row in rows(&GpuArch::a10(), "mha") {
            let ratio = row.speedup("RedFuser") / row.speedup("FlashAttention2");
            assert!(
                (0.8..=1.5).contains(&ratio),
                "{}: RedFuser/FA2 = {ratio}",
                row.config
            );
        }
    }
}
