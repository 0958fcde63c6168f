//! Analytical GPU performance model.
//!
//! The paper evaluates real GPUs (NVIDIA A10, A100, H800 and AMD MI308X);
//! this reproduction replaces them with an analytical latency model driven by
//! the quantities the fusion transformation actually changes: global-memory
//! traffic, floating-point work, kernel-launch count, per-block shared-memory
//! footprint and achievable occupancy. The model is deliberately simple — a
//! refined roofline with wave quantization — because those are exactly the
//! effects behind the paper's results:
//!
//! * fusion removes intermediate-tensor traffic and kernel launches (Fig. 5, 8, 9),
//! * fusion level trades correction flops against latency hiding (Fig. 6a),
//! * incremental mode trades extra correction flops for freedom in choosing the
//!   parallelism, whose efficiency is quantized in waves per SM (Fig. 6b).
//!
//! Latencies are reported in microseconds. Absolute values are *not* expected
//! to match the paper's hardware; the comparisons between implementations are.

#![forbid(unsafe_code)]

pub mod arch;
pub mod model;

pub use arch::GpuArch;
pub use model::{
    estimate_latency, pipeline_overlap, sequence_latency, KernelProfile, LatencyBreakdown,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_traffic_is_never_faster() {
        let arch = GpuArch::a10();
        let small = KernelProfile {
            hbm_bytes: 1 << 20,
            flops: 1 << 20,
            blocks: 128,
            ..Default::default()
        };
        let large = KernelProfile {
            hbm_bytes: 1 << 24,
            flops: 1 << 20,
            blocks: 128,
            ..Default::default()
        };
        assert!(
            estimate_latency(&arch, &small).total_us <= estimate_latency(&arch, &large).total_us
        );
    }
}
