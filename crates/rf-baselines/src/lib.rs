//! Compiler-behaviour baseline models.
//!
//! The paper compares RedFuser against PyTorch Eager, PyTorch Dynamo
//! (Inductor) and TVM, plus hand-optimized libraries (FlashAttention2,
//! FlashMLA). Running those frameworks is not possible here, so this crate
//! models *how they execute a workload*: which kernels they launch and which
//! intermediate tensors they spill to global memory. The resulting
//! [`rf_gpusim::KernelProfile`] sequences are fed to the same analytical GPU
//! model as RedFuser's generated kernels, so the comparison isolates exactly
//! the effects the paper attributes to fusion (memory traffic, kernel-launch
//! count, and schedule quality).
//!
//! Modeling assumptions (documented per baseline in [`CompilerBaseline`]):
//!
//! * **PyTorch Eager** launches one kernel per operator and materialises every
//!   intermediate tensor in global memory.
//! * **PyTorch Dynamo / Inductor** fuses element-wise operators into their
//!   producer, eliminating the intermediate traffic of those element-wise ops,
//!   but keeps every reduction as a separate kernel (it has no cross-reduction
//!   fusion — the gap this paper addresses).
//! * **TVM** (default pipeline, no CUTLASS/FlashInfer backends, matching §5.1)
//!   also keeps reductions separate and additionally reaches a lower fraction
//!   of peak on GEMM-shaped operators because its generated schedules do not
//!   use tensor-core instructions.
//! * **FlashAttention2 / FlashMLA** are single fused kernels with minimal
//!   traffic and highly tuned inner loops.

#![forbid(unsafe_code)]

pub mod ops;
pub mod sequences;

pub use ops::{
    inertia_op_list, mha_op_list, mla_op_list, moe_op_list, quant_op_list, variance_op_list, OpSpec,
};
pub use sequences::{flash_attention2_profile, flash_mla_profile, CompilerBaseline};

#[cfg(test)]
mod tests {
    use super::*;
    use rf_gpusim::{sequence_latency, GpuArch};
    use rf_workloads::mha_configs;

    #[test]
    fn eager_is_slower_than_dynamo_on_attention() {
        let arch = GpuArch::a10();
        let config = &mha_configs()[1];
        let ops = mha_op_list(config);
        let eager = sequence_latency(&arch, &CompilerBaseline::PyTorchEager.kernels(&ops));
        let dynamo = sequence_latency(&arch, &CompilerBaseline::Dynamo.kernels(&ops));
        assert!(
            dynamo < eager,
            "inductor-style elementwise fusion must help"
        );
    }
}
