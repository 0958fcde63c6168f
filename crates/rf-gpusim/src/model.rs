//! The latency model: refined roofline with occupancy and wave quantization.

use rf_tile::TileProgram;

use crate::arch::GpuArch;

/// The execution profile of one kernel launch, as consumed by the model.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel name (for reports).
    pub name: String,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Bytes moved to/from global memory.
    pub hbm_bytes: u64,
    /// Thread blocks launched.
    pub blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Shared memory required per block, in bytes.
    pub shared_mem_per_block: u64,
    /// Dominant compute precision: `"fp16"`, `"fp32"` or `"fp8"`.
    pub precision: &'static str,
    /// Fraction of peak throughput the kernel's inner loops reach (0–1).
    pub compute_efficiency: f64,
    /// Fraction of the shorter of compute/memory time hidden by overlap (0–1).
    /// Software pipelining and deeper fused subtrees increase this (§5.3).
    pub overlap: f64,
    /// Number of kernel launches this profile represents.
    pub launches: u32,
}

impl Default for KernelProfile {
    fn default() -> Self {
        KernelProfile {
            name: "kernel".to_string(),
            flops: 0,
            hbm_bytes: 0,
            blocks: 1,
            threads_per_block: 128,
            shared_mem_per_block: 0,
            precision: "fp16",
            compute_efficiency: 0.6,
            overlap: 0.8,
            launches: 1,
        }
    }
}

/// The overlap a software pipeline of `depth` stages reaches: deeper
/// pipelines hide more of the shorter of compute and memory time.
pub fn pipeline_overlap(depth: u32) -> f64 {
    match depth {
        0 | 1 => 0.5,
        2 => 0.8,
        _ => 0.9,
    }
}

impl KernelProfile {
    /// Builds a profile from a tile program's cost summary, using its launch
    /// configuration and pipeline depth (deeper pipelines overlap better).
    pub fn from_tile_program(program: &TileProgram) -> KernelProfile {
        let cost = program.cost();
        KernelProfile {
            name: program.name.clone(),
            flops: cost.flops,
            hbm_bytes: cost.global_bytes,
            blocks: program.grid_blocks,
            threads_per_block: program.threads_per_block,
            shared_mem_per_block: cost.shared_mem_per_block,
            precision: program.precision,
            compute_efficiency: 0.6,
            overlap: pipeline_overlap(program.pipeline_depth),
            launches: cost.kernel_launches.max(1),
        }
    }

    /// Whether the kernel can be launched on `arch` at all (shared memory and
    /// thread limits, see [`GpuArch::launch_feasible`]). Non-incremental
    /// kernels with long staged axes fail this check, which is the effect
    /// measured in §5.4.
    pub fn fits(&self, arch: &GpuArch) -> bool {
        arch.launch_feasible(self.threads_per_block, self.shared_mem_per_block)
    }
}

/// The components of an estimated kernel latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Time limited by arithmetic throughput, in microseconds.
    pub compute_us: f64,
    /// Time limited by global-memory bandwidth, in microseconds.
    pub memory_us: f64,
    /// Kernel launch overhead, in microseconds.
    pub launch_us: f64,
    /// Number of block waves needed to drain the grid.
    pub waves: f64,
    /// Waves per SM (the x-axis of Figure 6b).
    pub waves_per_sm: f64,
    /// Achieved occupancy (resident blocks / maximum resident blocks), 0–1.
    pub occupancy: f64,
    /// Total estimated latency in microseconds.
    pub total_us: f64,
}

/// Estimates the latency of one kernel on one architecture.
///
/// Kernels that do not fit the architecture (see [`KernelProfile::fits`])
/// report an infinite latency.
pub fn estimate_latency(arch: &GpuArch, profile: &KernelProfile) -> LatencyBreakdown {
    if !profile.fits(arch) {
        return LatencyBreakdown {
            compute_us: f64::INFINITY,
            memory_us: f64::INFINITY,
            launch_us: 0.0,
            waves: 0.0,
            waves_per_sm: 0.0,
            occupancy: 0.0,
            total_us: f64::INFINITY,
        };
    }

    // Resident blocks per SM, limited by shared memory, the block cap and the
    // thread cap.
    let by_shared = arch
        .shared_mem_per_sm
        .checked_div(profile.shared_mem_per_block)
        .map_or(arch.max_blocks_per_sm as u64, |blocks| blocks.max(1));
    let by_threads = (arch.max_threads_per_sm / profile.threads_per_block.max(1)).max(1) as u64;
    let blocks_per_sm = by_shared
        .min(by_threads)
        .min(arch.max_blocks_per_sm as u64)
        .max(1);
    let concurrent = blocks_per_sm * arch.sms as u64;

    let blocks = profile.blocks.max(1);
    let waves = (blocks as f64 / concurrent as f64).ceil().max(1.0);
    let occupancy = (blocks as f64 / concurrent as f64).min(1.0);
    // Wave quantization: the grid takes an integer number of waves; a nearly
    // empty last wave (or an under-filled single wave) wastes throughput.
    let quantization = waves * concurrent as f64 / blocks as f64;

    let peak = arch.flops_per_us(profile.precision) * profile.compute_efficiency.clamp(0.05, 1.0);
    let ideal_compute = profile.flops as f64 / peak;
    let ideal_memory = profile.hbm_bytes as f64 / arch.mem_bandwidth_bytes_per_us;
    let compute_us = ideal_compute * quantization;
    let memory_us = ideal_memory * quantization;

    let overlap = profile.overlap.clamp(0.0, 1.0);
    let body = compute_us.max(memory_us) + (1.0 - overlap) * compute_us.min(memory_us);
    let launch_us = arch.launch_overhead_us * profile.launches.max(1) as f64;

    LatencyBreakdown {
        compute_us,
        memory_us,
        launch_us,
        waves,
        waves_per_sm: blocks as f64 / arch.sms as f64 / blocks_per_sm as f64,
        occupancy,
        total_us: body + launch_us,
    }
}

/// Total latency of a sequence of dependent kernels (they cannot overlap, so
/// latencies add — the execution model of an eager framework).
pub fn sequence_latency(arch: &GpuArch, kernels: &[KernelProfile]) -> f64 {
    kernels
        .iter()
        .map(|k| estimate_latency(arch, k).total_us)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A one-reduction row kernel built from `rf-tile`'s ops: 1024 rows of
    /// 4096 `element_bytes`-wide elements, 128 rows per block, one
    /// 128-element tile staged in shared memory per trip.
    fn row_sum_program(element_bytes: u32) -> rf_tile::TileProgram {
        use rf_tile::{MemoryScope, StageLoop, TileBuffer, TileOp, TileProgram};
        let mut program = TileProgram::new("row_sum", 8, 128);
        program.precision = rf_tile::precision_for_element_bytes(element_bytes);
        program.buffers = vec![
            TileBuffer::new("x", vec![1024, 4096], MemoryScope::Global, element_bytes),
            TileBuffer::new(
                "x_shared",
                vec![128, 128],
                MemoryScope::Shared,
                element_bytes,
            ),
            TileBuffer::new("sum", vec![128], MemoryScope::Fragment, 4),
        ];
        program.main_loop = StageLoop {
            iterations: 32,
            ops: vec![
                TileOp::Copy {
                    src: "x".into(),
                    dst: "x_shared".into(),
                    elements: 128 * 128,
                },
                TileOp::Parallel {
                    expr: "sum[r] += x_shared[r, k]".into(),
                    elements: 128 * 128,
                    flops_per_element: 1,
                },
            ],
        };
        program
    }

    fn base_profile() -> KernelProfile {
        KernelProfile {
            flops: 1 << 28,
            hbm_bytes: 1 << 24,
            blocks: 1024,
            ..Default::default()
        }
    }

    #[test]
    fn launch_overhead_is_included() {
        let arch = GpuArch::a10();
        let one = estimate_latency(&arch, &base_profile());
        let two = estimate_latency(
            &arch,
            &KernelProfile {
                launches: 2,
                ..base_profile()
            },
        );
        assert!((two.total_us - one.total_us - arch.launch_overhead_us).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_kernels_scale_with_bandwidth() {
        let profile = KernelProfile {
            flops: 1 << 20,
            hbm_bytes: 1 << 30,
            blocks: 4096,
            ..Default::default()
        };
        let slow = estimate_latency(&GpuArch::a10(), &profile);
        let fast = estimate_latency(&GpuArch::h800(), &profile);
        assert!(fast.total_us < slow.total_us);
        assert!(slow.memory_us > slow.compute_us);
    }

    #[test]
    fn oversized_shared_memory_is_infeasible() {
        let arch = GpuArch::a10();
        let profile = KernelProfile {
            shared_mem_per_block: arch.shared_mem_per_sm + 1,
            ..base_profile()
        };
        assert!(!profile.fits(&arch));
        assert!(estimate_latency(&arch, &profile).total_us.is_infinite());
    }

    #[test]
    fn oversubscribed_blocks_are_infeasible() {
        // 1536 threads fit the A10's per-SM residency limit but exceed the
        // 1024-thread per-block hardware limit; `fits` used to miss this.
        let arch = GpuArch::a10();
        assert!(arch.max_threads_per_sm >= 1536);
        let profile = KernelProfile {
            threads_per_block: 1536,
            ..base_profile()
        };
        assert!(!profile.fits(&arch));
        assert!(estimate_latency(&arch, &profile).total_us.is_infinite());
        let ok = KernelProfile {
            threads_per_block: 1024,
            ..base_profile()
        };
        assert!(ok.fits(&arch));
    }

    #[test]
    fn tile_program_precision_reaches_the_profile() {
        // FP8 tile programs used to be costed at fp16 throughput because
        // `from_tile_program` hardcoded the precision tag.
        let profile = KernelProfile::from_tile_program(&row_sum_program(1));
        assert_eq!(profile.precision, "fp8");
        // On an FP8-capable part the same work at fp16 rate must be slower
        // once the kernel is compute-bound.
        let h800 = GpuArch::h800();
        let compute_bound = KernelProfile {
            flops: 1 << 38,
            ..profile
        };
        let fp16_rate = KernelProfile {
            precision: "fp16",
            ..compute_bound.clone()
        };
        assert!(
            estimate_latency(&h800, &compute_bound).total_us
                < estimate_latency(&h800, &fp16_rate).total_us
        );
    }

    #[test]
    fn low_parallelism_hurts_and_integer_waves_are_local_optima() {
        let arch = GpuArch::a10();
        // One block cannot saturate the device.
        let narrow = KernelProfile {
            blocks: 1,
            ..base_profile()
        };
        let wide = KernelProfile {
            blocks: 8192,
            ..base_profile()
        };
        let n = estimate_latency(&arch, &narrow);
        let w = estimate_latency(&arch, &wide);
        assert!(n.total_us > w.total_us);
        assert!(n.occupancy < 0.05);

        // A grid that exactly fills k waves is better (per unit work) than one
        // that spills a few blocks into an extra wave.
        let mut exact = base_profile();
        exact.shared_mem_per_block = arch.shared_mem_per_sm / 2; // 2 blocks/SM
        let concurrent = 2 * arch.sms as u64;
        exact.blocks = concurrent * 3;
        let mut spill = exact.clone();
        spill.blocks = concurrent * 3 + 1;
        let e = estimate_latency(&arch, &exact);
        let s = estimate_latency(&arch, &spill);
        assert_eq!(e.waves, 3.0);
        assert_eq!(s.waves, 4.0);
        assert!(s.compute_us > e.compute_us);
    }

    #[test]
    fn overlap_reduces_latency() {
        let arch = GpuArch::a10();
        let balanced = KernelProfile {
            flops: 1 << 30,
            hbm_bytes: 1 << 26,
            blocks: 4096,
            ..Default::default()
        };
        let serial = estimate_latency(
            &arch,
            &KernelProfile {
                overlap: 0.0,
                ..balanced.clone()
            },
        );
        let overlapped = estimate_latency(
            &arch,
            &KernelProfile {
                overlap: 1.0,
                ..balanced
            },
        );
        assert!(overlapped.total_us < serial.total_us);
    }

    #[test]
    fn sequence_latency_adds_kernels() {
        let arch = GpuArch::h800();
        let k = base_profile();
        let single = estimate_latency(&arch, &k).total_us;
        let seq = sequence_latency(&arch, &[k.clone(), k.clone(), k]);
        assert!((seq - 3.0 * single).abs() < 1e-6);
    }

    #[test]
    fn profile_from_tile_program() {
        let program = row_sum_program(2);
        let profile = KernelProfile::from_tile_program(&program);
        assert_eq!(profile.blocks, program.grid_blocks);
        assert!(profile.hbm_bytes > 0);
        assert!(profile.fits(&GpuArch::a10()));
        let lat = estimate_latency(&GpuArch::a10(), &profile);
        assert!(lat.total_us.is_finite() && lat.total_us > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_latency_monotone_in_traffic(
            bytes_pow in 10u32..30,
            extra in 1u64..1_000_000,
        ) {
            let arch = GpuArch::a100();
            let small = KernelProfile { hbm_bytes: 1u64 << bytes_pow, blocks: 2048, ..Default::default() };
            let large = KernelProfile { hbm_bytes: (1u64 << bytes_pow) + extra, blocks: 2048, ..Default::default() };
            prop_assert!(estimate_latency(&arch, &small).total_us <= estimate_latency(&arch, &large).total_us);
        }

        #[test]
        fn prop_latency_positive_and_finite(
            flops_pow in 10u32..34,
            bytes_pow in 10u32..30,
            blocks in 1u64..65_536,
        ) {
            let arch = GpuArch::mi308x();
            let p = KernelProfile {
                flops: 1u64 << flops_pow,
                hbm_bytes: 1u64 << bytes_pow,
                blocks,
                ..Default::default()
            };
            let l = estimate_latency(&arch, &p);
            prop_assert!(l.total_us.is_finite());
            prop_assert!(l.total_us > 0.0);
        }
    }
}
