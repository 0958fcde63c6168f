//! Workload configurations and synthetic data generation.
//!
//! The paper evaluates RedFuser on four ML subgraph families (Table 2) and two
//! non-ML cascaded reductions (Table 3):
//!
//! * Multi-Head Attention (MHA) — configurations `H1..H9` ([`attention`]),
//! * Multi-Latent Attention (MLA) decode — configurations `L1..L9` ([`attention`]),
//! * MoE routing — configurations `R1..R8` ([`moe`]),
//! * FP8 PerToken Quant + GEMM — configurations `Q1..Q10` ([`quant`]),
//! * variance `V1..V8` and moment of inertia `I1..I8` ([`nonml`]).
//!
//! Every configuration struct knows its shape parameters, the model it was
//! taken from, and provides floating-point-operation and memory-traffic
//! accounting used by the analytical GPU model and the baselines. The
//! [`data`] module provides deterministic random tensor generation shared by
//! kernels, tests and benchmarks; [`rows`] runs a computation's independent
//! rows on the host's cores and holds [`add_scaled_block`], the GEMM loop of
//! every cascade that carries one, a block of rows against one W tile, and
//! the tile VM's other row loops; [`exp`](mod@exp) is the exponential the
//! tile VM and its unfused oracles share. Both run their slice loops at the
//! widest vector tier the CPU offers, with the same bits at every tier; the
//! private `tier` module makes that run-time choice.

// `forbid` everywhere else in the workspace; here the `tier` module alone
// opts out, for the run-time choice of vector width (CI checks that no other
// file does).
#![deny(unsafe_code)]

pub mod attention;
pub mod data;
pub mod exp;
pub mod moe;
pub mod nonml;
pub mod quant;
pub mod rows;
mod tier;

pub use attention::{mha_configs, mha_tiny, mla_configs, mla_tiny, MhaConfig, MlaConfig};
pub use data::{random_matrix, random_vec, Matrix};
pub use exp::{exp, exp_shifted, exp_shifted_in_place};
pub use moe::{moe_configs, moe_tiny, MoeConfig};
pub use nonml::{
    inertia_configs, inertia_tiny, variance_configs, variance_tiny, InertiaConfig, VarianceConfig,
};
pub use quant::{fp8_round, quant_configs, quant_tiny, QuantGemmConfig, FP8_MAX};
pub use rows::{
    add_scaled_block, available_cores, dot_rows, for_row_ranges, query_groups, score_group,
    sum_and_squares, tile_max, QueryGroup, Terms, PARALLEL_MIN_WORK, QUERY_LANES,
};

/// Bytes per element for the storage precisions used in the paper's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 8-bit floating point (FP8 E4M3).
    Fp8,
    /// 16-bit floating point (FP16/BF16), the default activation precision.
    Fp16,
    /// 32-bit floating point, used for accumulators and the non-ML workloads.
    Fp32,
}

impl Precision {
    /// Size of one element in bytes.
    pub const fn bytes(self) -> usize {
        match self {
            Precision::Fp8 => 1,
            Precision::Fp16 => 2,
            Precision::Fp32 => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_sizes() {
        assert_eq!(Precision::Fp8.bytes(), 1);
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Fp32.bytes(), 4);
    }

    #[test]
    fn configs_work_as_hash_map_keys() {
        use std::collections::HashMap;
        let mut by_mha: HashMap<MhaConfig, usize> = HashMap::new();
        for (i, c) in mha_configs().into_iter().enumerate() {
            by_mha.insert(c, i);
        }
        assert_eq!(by_mha.len(), 9);
        assert_eq!(by_mha.get(&mha_configs()[3]), Some(&3));

        let mut mixed: HashMap<(MoeConfig, Precision), u64> = HashMap::new();
        mixed.insert((moe_configs()[0].clone(), Precision::Fp16), 1);
        mixed.insert((moe_configs()[0].clone(), Precision::Fp8), 2);
        assert_eq!(mixed.len(), 2);

        let mut nonml: HashMap<(VarianceConfig, InertiaConfig), ()> = HashMap::new();
        nonml.insert(
            (variance_configs()[0].clone(), inertia_configs()[0].clone()),
            (),
        );
        assert_eq!(nonml.len(), 1);

        let mut by_quant: HashMap<(MlaConfig, QuantGemmConfig), ()> = HashMap::new();
        by_quant.insert((mla_configs()[0].clone(), quant_configs()[0].clone()), ());
        assert!(by_quant.contains_key(&(mla_configs()[0].clone(), quant_configs()[0].clone())));
    }

    #[test]
    fn all_tables_have_paper_row_counts() {
        assert_eq!(mha_configs().len(), 9);
        assert_eq!(mla_configs().len(), 9);
        assert_eq!(moe_configs().len(), 8);
        assert_eq!(quant_configs().len(), 10);
        assert_eq!(variance_configs().len(), 8);
        assert_eq!(inertia_configs().len(), 8);
    }
}
