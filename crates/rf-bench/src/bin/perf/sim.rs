//! Sim-clock numbers: the simulated speedup of RedFuser's plan over the best
//! compiler baseline, computed from `rf_baselines` + `rf_gpusim` directly.
//! These repeat exactly from run to run; nothing here reads a host clock.

use rf_baselines::{
    inertia_op_list, mha_op_list, mla_op_list, moe_op_list, quant_op_list, variance_op_list,
    CompilerBaseline,
};
use rf_codegen::{compile_workload, Workload};
use rf_gpusim::{sequence_latency, GpuArch};

use crate::stats::geomean;

/// The platform the paper's Figure 5 evaluates each family on (the non-ML
/// cascades of Figure 8 run on every platform; A100 stands in for them, and
/// H800 — the serving device — for bare softmax).
pub fn figure_arch(workload: &Workload) -> GpuArch {
    match workload {
        Workload::Mha(_) | Workload::Moe(_) => GpuArch::a10(),
        Workload::Mla(_) | Workload::Quant(_) | Workload::Softmax { .. } => GpuArch::h800(),
        Workload::Variance(_) | Workload::Inertia(_) => GpuArch::a100(),
    }
}

/// Simulated µs of the fastest of Eager / Dynamo / TVM on `arch`; `None` for
/// bare softmax, which has no baseline op list.
fn best_baseline_sim_us(workload: &Workload, arch: &GpuArch) -> Option<f64> {
    let ops = match workload {
        Workload::Mha(c) => mha_op_list(c),
        Workload::Mla(c) => mla_op_list(c),
        Workload::Moe(c) => moe_op_list(c),
        Workload::Quant(c) => quant_op_list(c),
        Workload::Variance(c) => variance_op_list(c),
        Workload::Inertia(c) => inertia_op_list(c),
        Workload::Softmax { .. } => return None,
    };
    CompilerBaseline::ALL
        .iter()
        .map(|b| sequence_latency(arch, &b.kernels(&ops)))
        .min_by(f64::total_cmp)
}

#[derive(Debug, Clone)]
pub struct SimSpeedups {
    /// Geomean over the configs of baseline sim µs ÷ RedFuser sim µs.
    pub geomean: f64,
    /// The smallest single speedup (the gate: fusion must never lose).
    pub min: f64,
    pub configs: usize,
    /// Geomean of RedFuser's simulated µs over the same configs.
    pub redfuser_sim_us_geomean: f64,
}

/// Compiles every config that has a baseline on its Figure-5 platform and
/// compares simulated latencies.
pub fn speedups<'a>(workloads: impl IntoIterator<Item = &'a Workload>) -> SimSpeedups {
    let mut ratios = Vec::new();
    let mut redfuser = Vec::new();
    for workload in workloads {
        let arch = figure_arch(workload);
        if let Some(baseline_us) = best_baseline_sim_us(workload, &arch) {
            let fused_us = compile_workload(workload, &arch).latency_us;
            ratios.push(baseline_us / fused_us);
            redfuser.push(fused_us);
        }
    }
    SimSpeedups {
        geomean: geomean(&ratios),
        min: ratios.iter().copied().fold(f64::INFINITY, f64::min),
        configs: ratios.len(),
        redfuser_sim_us_geomean: geomean(&redfuser),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_repeat_exactly_and_skip_softmax() {
        let set = [
            Workload::Mha(rf_workloads::mha_tiny()),
            Workload::Variance(rf_workloads::variance_tiny()),
            Workload::Softmax { rows: 4, len: 256 },
        ];
        let (a, b) = (speedups(&set), speedups(&set));
        assert_eq!(a.configs, 2);
        assert_eq!(a.geomean.to_bits(), b.geomean.to_bits());
        assert!(a.min > 0.0 && a.min <= a.geomean);
    }
}
