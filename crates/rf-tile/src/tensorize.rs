//! Tensorization and Parallelization passes (§4.4).
//!
//! **Tensorization** turns the fused scalar kernel into a tile program:
//!
//! * *Blockization* — the independent cascade rows are partitioned into block
//!   tiles; the shared reduction axis is partitioned into per-iteration tiles.
//! * *Block-level buffer management* — explicit `copy` ops move input tiles
//!   from global to shared memory, accumulators live in register fragments,
//!   and buffer sizes are compacted to the tile footprint.
//! * *Conversion to TileOps* — the per-reduction work becomes `reduce` +
//!   `parallel` (correction) ops, GEMM-shaped reductions become `gemm`.
//!
//! **Parallelization** binds block tiles to `blockIdx.x`: the program's grid
//! has one block per block tile.
//!
//! The pass exposes the knob that distinguishes the paper's two computation
//! modes: in **incremental** mode the per-iteration state is constant-sized
//! and corrections run every iteration; in **non-incremental** mode the whole
//! axis must be staged in shared memory before the reductions run, so shared
//! memory grows linearly with the axis length (Figure 4, §5.4).

use crate::cost::MemoryScope;
use crate::ops::{StageLoop, TileBuffer, TileOp, TileProgram};

/// Configuration for the tensorization pass (the auto-tuner's search space,
/// §4.4: block tile size, threads per block, software pipeline depth).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TensorizeConfig {
    /// Cascade rows processed by one block.
    pub block_rows: usize,
    /// Elements of the shared reduction axis consumed per main-loop iteration.
    pub block_axis: usize,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Software pipeline depth.
    pub pipeline_depth: u32,
    /// Bytes per input element.
    pub element_bytes: u32,
    /// Incremental (streaming) mode vs non-incremental (stage-everything) mode.
    pub incremental: bool,
}

impl Default for TensorizeConfig {
    fn default() -> Self {
        TensorizeConfig {
            block_rows: 128,
            block_axis: 128,
            threads_per_block: 128,
            pipeline_depth: 2,
            element_bytes: 2,
            incremental: true,
        }
    }
}

/// Tensorizes a generic fused cascade of `num_reductions` dependent reductions
/// over an axis of length `axis_len`, applied independently to `rows` rows.
///
/// The returned program is a single fused kernel: the input is loaded once,
/// every reduction's running state lives on-chip, and corrections are applied
/// per iteration (incremental) or once after staging (non-incremental).
pub fn tensorize_cascade(
    name: &str,
    num_reductions: usize,
    axis_len: usize,
    rows: usize,
    cfg: &TensorizeConfig,
) -> TileProgram {
    assert!(num_reductions > 0, "a cascade has at least one reduction");
    assert!(
        axis_len > 0 && rows > 0,
        "axis length and rows must be positive"
    );
    let block_rows = cfg.block_rows.min(rows).max(1);
    let block_axis = cfg.block_axis.min(axis_len).max(1);
    let grid_blocks = rows.div_ceil(block_rows) as u64;
    let iterations = axis_len.div_ceil(block_axis) as u64;

    let mut program = TileProgram::new(format!("fused_{name}"), grid_blocks, cfg.threads_per_block);
    program.pipeline_depth = cfg.pipeline_depth;
    program.precision = crate::ops::precision_for_element_bytes(cfg.element_bytes);

    // Input tile staged per iteration; in non-incremental mode the whole axis
    // must be resident before the reductions can run.
    let staged_axis = if cfg.incremental {
        block_axis
    } else {
        axis_len
    };
    program.buffers.push(TileBuffer::new(
        "x",
        vec![rows, axis_len],
        MemoryScope::Global,
        cfg.element_bytes,
    ));
    program.buffers.push(TileBuffer::new(
        "x_shared",
        vec![block_rows, staged_axis],
        MemoryScope::Shared,
        cfg.element_bytes,
    ));
    for i in 0..num_reductions {
        program.buffers.push(TileBuffer::new(
            format!("state{i}"),
            vec![block_rows],
            MemoryScope::Fragment,
            4,
        ));
        program.buffers.push(TileBuffer::new(
            format!("state{i}_prev"),
            vec![block_rows],
            MemoryScope::Fragment,
            4,
        ));
    }
    program.buffers.push(TileBuffer::new(
        "out",
        vec![rows, num_reductions],
        MemoryScope::Global,
        4,
    ));

    for i in 0..num_reductions {
        program.prologue.push(TileOp::Fill {
            tile: format!("state{i}"),
            value: 0.0,
            elements: block_rows as u64,
        });
    }

    let per_iter_reduction_ops = |ops: &mut Vec<TileOp>, axis: usize| {
        for i in 0..num_reductions {
            if i > 0 && cfg.incremental {
                // Store previous result + correction (steps 1 and 2 of the
                // fused reduction template).
                ops.push(TileOp::Copy {
                    src: format!("state{i}"),
                    dst: format!("state{i}_prev"),
                    elements: block_rows as u64,
                });
                ops.push(TileOp::Parallel {
                    expr: format!(
                        "state{i}[r] *= correction(state{}_prev[r], state{}[r])",
                        i - 1,
                        i - 1
                    ),
                    elements: block_rows as u64,
                    flops_per_element: 3,
                });
            }
            ops.push(TileOp::Reduce {
                src: "x_shared".into(),
                dst: format!("state{i}"),
                axis_len: axis as u64,
                rows: block_rows as u64,
                op: rf_algebra::BinaryOp::Add,
            });
        }
    };

    if cfg.incremental {
        let mut ops = vec![TileOp::Copy {
            src: "x".into(),
            dst: "x_shared".into(),
            elements: (block_rows * block_axis) as u64,
        }];
        per_iter_reduction_ops(&mut ops, block_axis);
        program.main_loop = StageLoop { iterations, ops };
    } else {
        // Stage the whole axis, then run the reductions once.
        program.main_loop = StageLoop {
            iterations,
            ops: vec![TileOp::Copy {
                src: "x".into(),
                dst: "x_shared".into(),
                elements: (block_rows * block_axis) as u64,
            }],
        };
        let mut ops = Vec::new();
        per_iter_reduction_ops(&mut ops, axis_len);
        program.epilogue.extend(ops);
    }

    program.epilogue.push(TileOp::Copy {
        src: "state0".into(),
        dst: "out".into(),
        elements: (block_rows * num_reductions) as u64,
    });
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn incremental_shared_memory_is_constant_in_axis_length() {
        let cfg = TensorizeConfig::default();
        let small = tensorize_cascade("softmax", 2, 1024, 512, &cfg);
        let large = tensorize_cascade("softmax", 2, 65536, 512, &cfg);
        assert_eq!(
            small.cost().shared_mem_per_block,
            large.cost().shared_mem_per_block,
            "incremental mode keeps O(1) on-chip state"
        );
    }

    #[test]
    fn non_incremental_shared_memory_grows_with_axis_length() {
        let cfg = TensorizeConfig {
            incremental: false,
            ..TensorizeConfig::default()
        };
        let small = tensorize_cascade("softmax", 2, 1024, 512, &cfg);
        let large = tensorize_cascade("softmax", 2, 8192, 512, &cfg);
        assert!(large.cost().shared_mem_per_block > small.cost().shared_mem_per_block);
        let ratio =
            large.cost().shared_mem_per_block as f64 / small.cost().shared_mem_per_block as f64;
        assert!(
            (ratio - 8.0).abs() < 0.5,
            "shared memory should scale with the staged axis"
        );
    }

    #[test]
    fn non_incremental_avoids_per_iteration_corrections() {
        let base = TensorizeConfig::default();
        let inc = tensorize_cascade("softmax", 2, 4096, 128, &base);
        let non = tensorize_cascade(
            "softmax",
            2,
            4096,
            128,
            &TensorizeConfig {
                incremental: false,
                ..base
            },
        );
        // Same memory traffic (input loaded once either way), fewer flops for
        // the non-incremental variant (no per-iteration correction), which is
        // the §5.4 observation that non-incremental wins at equal parallelism.
        assert_eq!(inc.cost().global_bytes, non.cost().global_bytes);
        assert!(non.cost().flops < inc.cost().flops);
    }

    #[test]
    fn element_width_sets_the_program_precision() {
        let base = TensorizeConfig::default();
        assert_eq!(tensorize_cascade("s", 1, 64, 64, &base).precision, "fp16");
        let fp8 = TensorizeConfig {
            element_bytes: 1,
            ..base
        };
        assert_eq!(tensorize_cascade("q", 1, 64, 64, &fp8).precision, "fp8");
        let fp32 = TensorizeConfig {
            element_bytes: 4,
            ..base
        };
        assert_eq!(tensorize_cascade("v", 1, 64, 64, &fp32).precision, "fp32");
    }

    #[test]
    fn grid_covers_all_rows() {
        let cfg = TensorizeConfig {
            block_rows: 100,
            ..TensorizeConfig::default()
        };
        let p = tensorize_cascade("quant", 2, 2048, 250, &cfg);
        assert_eq!(p.grid_blocks, 3);
    }

    #[test]
    #[should_panic(expected = "at least one reduction")]
    fn zero_reductions_panics() {
        tensorize_cascade("empty", 0, 16, 16, &TensorizeConfig::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_traffic_scales_linearly_with_rows(
            rows_pow in 5u32..10,
            axis_pow in 6u32..12,
        ) {
            let cfg = TensorizeConfig::default();
            let rows = 1usize << rows_pow;
            let axis = 1usize << axis_pow;
            let one = tensorize_cascade("softmax", 2, axis, rows, &cfg);
            let two = tensorize_cascade("softmax", 2, axis, rows * 2, &cfg);
            let ratio = two.cost().global_bytes as f64 / one.cost().global_bytes as f64;
            prop_assert!((ratio - 2.0).abs() < 0.25, "ratio = {ratio}");
        }

        #[test]
        fn prop_fused_program_is_single_kernel(
            reductions in 1usize..5,
            axis_pow in 4u32..12,
        ) {
            let p = tensorize_cascade("cascade", reductions, 1usize << axis_pow, 256, &TensorizeConfig::default());
            prop_assert_eq!(p.cost().kernel_launches, 1);
        }
    }
}
