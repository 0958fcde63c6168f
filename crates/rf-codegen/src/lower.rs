//! Workload-specific lowering to tile programs.
//!
//! [`attention_program`] reproduces the tile-level structure of Figures 12b
//! (FlashAttention, Single-Segment) and 13b (FlashDecoding, Multi-Segment):
//! a per-block pipeline over KV tiles with `copy`/`gemm`/`reduce`/`parallel`
//! ops and, for the Multi-Segment strategy, a separate combine kernel.
//! [`cascade_program`] lowers generic row-parallel cascades (softmax, MoE
//! routing, Quant+GEMM rows, variance, inertia) through the tensorization pass
//! of `rf-tile`.
//!
//! Next to each lowering sits its **closed form** (`attention_profile`,
//! `cascade_profile`), the auto-tuner's view of it: integer arithmetic over
//! the same extents that returns exactly [`KernelProfile::from_tile_program`]
//! of the program the lowering would build, in ~0.1 µs instead of the 2–3 µs
//! of building 13 named buffers and ~20 ops to fold them into six integers.
//! An edit to a lowering's ops, buffers or clamps must be mirrored there;
//! `closed_forms_equal_the_lowering_over_the_whole_space` and the
//! `debug_assert_eq!` on every shipped winner (both in `compile.rs`) and the
//! recorded choices in `BENCH_sim.json` (the sim-clock ledger, checked by
//! `rf-bench`'s `tests/sim_ledger.rs`) say so when it is not.

use rf_gpusim::{pipeline_overlap, KernelProfile};
use rf_tile::{
    precision_for_element_bytes, tensorize_cascade, MemoryScope, StageLoop, TensorizeConfig,
    TileBuffer, TileOp, TileProgram,
};

use crate::strategy::{Mode, Strategy};

/// The shape of one attention problem as seen by the code generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionShape {
    /// Number of independent (batch × head) attention problems.
    pub heads: usize,
    /// Query sequence length per head.
    pub q_len: usize,
    /// Key/value sequence length per head.
    pub kv_len: usize,
    /// Head dimension of the values / output.
    pub head_dim: usize,
    /// Query/key dimension (differs from `head_dim` for MLA's RoPE extension).
    pub qk_dim: usize,
}

impl AttentionShape {
    /// Shape of an MHA configuration.
    pub fn from_mha(c: &rf_workloads::MhaConfig) -> Self {
        AttentionShape {
            heads: c.bs * c.hn,
            q_len: c.q,
            kv_len: c.kv,
            head_dim: c.hd,
            qk_dim: c.hd,
        }
    }

    /// Shape of an MLA decode configuration.
    ///
    /// In MLA the latent KV cache is shared by all heads of a batch entry, so
    /// the lowering treats the `hn` heads of one batch as the query rows of a
    /// single attention problem (exactly how FlashMLA tiles the computation):
    /// the KV cache is then loaded once per batch entry rather than once per
    /// head.
    pub fn from_mla(c: &rf_workloads::MlaConfig) -> Self {
        AttentionShape {
            heads: c.bs,
            q_len: c.hn,
            kv_len: c.kv,
            head_dim: c.hd,
            qk_dim: c.qk_dim(),
        }
    }
}

/// Tuning parameters of the attention lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionTiling {
    /// Query rows per block tile.
    pub block_q: usize,
    /// KV rows per main-loop iteration.
    pub block_kv: usize,
    /// Threads per block.
    pub threads: u32,
    /// Software pipeline depth.
    pub pipeline_depth: u32,
}

impl Default for AttentionTiling {
    fn default() -> Self {
        AttentionTiling {
            block_q: 128,
            block_kv: 128,
            threads: 256,
            pipeline_depth: 2,
        }
    }
}

/// The clamped tile sizes and loop/grid extents of the attention lowering at
/// one tiling: what [`attention_program`] builds from and `attention_profile`
/// costs from.
struct AttentionExtents {
    block_q: usize,
    block_kv: usize,
    segments: usize,
    /// Main-loop trips of one block over its KV segment.
    iterations: u64,
    /// `heads × q_blocks`, the combine kernel's grid; the main kernel's is
    /// `segments` times it.
    row_blocks: usize,
    kernel: &'static str,
}

impl AttentionExtents {
    fn new(shape: &AttentionShape, tiling: &AttentionTiling, strategy: Strategy) -> Self {
        let block_q = tiling.block_q.min(shape.q_len).max(1);
        let block_kv = tiling.block_kv.min(shape.kv_len).max(1);
        let segments = strategy.segments() as usize;
        AttentionExtents {
            block_q,
            block_kv,
            segments,
            iterations: shape.kv_len.div_ceil(segments).div_ceil(block_kv) as u64,
            row_blocks: shape.heads * shape.q_len.div_ceil(block_q),
            kernel: match strategy {
                Strategy::SingleSegment => "flash_attention",
                Strategy::MultiSegment { .. } => "flash_decoding_partial",
            },
        }
    }
}

/// Closed form of `KernelProfile::from_tile_program(&attention_program(shape,
/// tiling, strategy))`, term by term in the order the lowering emits its ops.
pub(crate) fn attention_profile(
    shape: &AttentionShape,
    tiling: &AttentionTiling,
    strategy: Strategy,
) -> KernelProfile {
    let e = AttentionExtents::new(shape, tiling, strategy);
    let (bq, bkv, s) = (e.block_q as u64, e.block_kv as u64, e.segments as u64);
    let (d, qk) = (shape.head_dim as u64, shape.qk_dim as u64);
    let (row_blocks, blocks) = (e.row_blocks as u64, e.row_blocks as u64 * s);
    // One main-loop trip: gemm(Q, K), max, the psum and exp maps, sum, the
    // output correction and gemm(P, V); the fp16 K and V tiles in.
    let trip_flops = bq * (bkv * (2 * qk + 2 * d + 4) + 4 * d + 3);
    let trip_bytes = 2 * bkv * (qk + d);
    // Once per block: the Q tile in and, Single-Segment only, the output tile
    // out — the Multi-Segment epilogue's partial writes are not counted
    // (ROADMAP, "GPU-model ledger"). The combine kernel (none: 0) reads them,
    // merges and writes the output tile, per row block.
    let combine = u64::from(strategy.needs_combine_kernel());
    let once_bytes = 2 * bq * qk + (1 - combine) * 2 * bq * d;
    let combine_flops = combine * row_blocks * bq * s * (5 * d + 1);
    let combine_bytes = combine * row_blocks * (4 * bq * s * (d + 2) + 2 * bq * d);
    KernelProfile {
        name: e.kernel.to_string(),
        flops: blocks * e.iterations * trip_flops + combine_flops,
        hbm_bytes: blocks * (once_bytes + e.iterations * trip_bytes) + combine_bytes,
        blocks,
        threads_per_block: tiling.threads,
        shared_mem_per_block: 2 * (bq * qk + bkv * (qk + d)),
        precision: "fp16",
        compute_efficiency: 0.6,
        overlap: pipeline_overlap(tiling.pipeline_depth),
        launches: 1 + combine as u32,
    }
}

/// Builds the fused attention tile program for the given strategy.
///
/// Single-Segment (`Strategy::SingleSegment`) yields the Figure 12b kernel;
/// Multi-Segment splits the KV axis across `segments` blocks per (head,
/// q-block) pair and appends the Figure 13b combine kernel.
pub fn attention_program(
    shape: &AttentionShape,
    tiling: &AttentionTiling,
    strategy: Strategy,
) -> TileProgram {
    let e = AttentionExtents::new(shape, tiling, strategy);
    let (block_q, block_kv, segments) = (e.block_q, e.block_kv, e.segments);

    let grid = (e.row_blocks * segments) as u64;
    let mut program = TileProgram::new(e.kernel, grid, tiling.threads);
    program.pipeline_depth = tiling.pipeline_depth;
    program.buffers = vec![
        TileBuffer::new(
            "Q",
            vec![shape.heads * shape.q_len, shape.qk_dim],
            MemoryScope::Global,
            2,
        ),
        TileBuffer::new(
            "K",
            vec![shape.heads * shape.kv_len, shape.qk_dim],
            MemoryScope::Global,
            2,
        ),
        TileBuffer::new(
            "V",
            vec![shape.heads * shape.kv_len, shape.head_dim],
            MemoryScope::Global,
            2,
        ),
        TileBuffer::new(
            "o",
            vec![shape.heads * shape.q_len, shape.head_dim],
            MemoryScope::Global,
            2,
        ),
        TileBuffer::new(
            "Q_shared",
            vec![block_q, shape.qk_dim],
            MemoryScope::Shared,
            2,
        ),
        TileBuffer::new(
            "K_shared",
            vec![block_kv, shape.qk_dim],
            MemoryScope::Shared,
            2,
        ),
        TileBuffer::new(
            "V_shared",
            vec![block_kv, shape.head_dim],
            MemoryScope::Shared,
            2,
        ),
        TileBuffer::new("P_frag", vec![block_q, block_kv], MemoryScope::Fragment, 4),
        TileBuffer::new(
            "o_frag",
            vec![block_q, shape.head_dim],
            MemoryScope::Fragment,
            4,
        ),
        TileBuffer::new("pmax", vec![block_q], MemoryScope::Fragment, 4),
        TileBuffer::new("pmax_prev", vec![block_q], MemoryScope::Fragment, 4),
        TileBuffer::new("psum", vec![block_q], MemoryScope::Fragment, 4),
        TileBuffer::new("psum_prev", vec![block_q], MemoryScope::Fragment, 4),
    ];
    program.prologue = vec![
        TileOp::Fill {
            tile: "o_frag".into(),
            value: 0.0,
            elements: (block_q * shape.head_dim) as u64,
        },
        TileOp::Copy {
            src: "Q".into(),
            dst: "Q_shared".into(),
            elements: (block_q * shape.qk_dim) as u64,
        },
    ];
    program.main_loop = StageLoop {
        iterations: e.iterations,
        ops: vec![
            TileOp::Copy {
                src: "K".into(),
                dst: "K_shared".into(),
                elements: (block_kv * shape.qk_dim) as u64,
            },
            TileOp::Copy {
                src: "V".into(),
                dst: "V_shared".into(),
                elements: (block_kv * shape.head_dim) as u64,
            },
            // reduction 1: gemm(Q, K)
            TileOp::Gemm {
                a: "Q_shared".into(),
                b: "K_shared".into(),
                c: "P_frag".into(),
                m: block_q as u64,
                n: block_kv as u64,
                k: shape.qk_dim as u64,
            },
            // reduction 2: max(P) — step 1 store previous, step 3 reduce.
            TileOp::Copy {
                src: "pmax".into(),
                dst: "pmax_prev".into(),
                elements: block_q as u64,
            },
            TileOp::Reduce {
                src: "P_frag".into(),
                dst: "pmax".into(),
                axis_len: block_kv as u64,
                rows: block_q as u64,
                op: rf_algebra::BinaryOp::Max,
            },
            // reduction 3: sum(exp(P - pmax)) — steps 1, 2, 3.
            TileOp::Copy {
                src: "psum".into(),
                dst: "psum_prev".into(),
                elements: block_q as u64,
            },
            TileOp::Parallel {
                expr: "psum[i] *= exp(pmax_prev[i] - pmax[i])".into(),
                elements: block_q as u64,
                flops_per_element: 3,
            },
            TileOp::Parallel {
                expr: "pexp[i, j] = exp(P_frag[i, j] - pmax[i])".into(),
                elements: (block_q * block_kv) as u64,
                flops_per_element: 2,
            },
            TileOp::Reduce {
                src: "P_frag".into(),
                dst: "psum".into(),
                axis_len: block_kv as u64,
                rows: block_q as u64,
                op: rf_algebra::BinaryOp::Add,
            },
            // reduction 4: gemm(exp(P - pmax) / psum, V) — steps 2 and 3.
            TileOp::Parallel {
                expr: "o_frag[i, j] *= exp(pmax_prev[i] - pmax[i]) * (psum_prev[i] / psum[i])"
                    .into(),
                elements: (block_q * shape.head_dim) as u64,
                flops_per_element: 4,
            },
            TileOp::Gemm {
                a: "P_frag".into(),
                b: "V_shared".into(),
                c: "o_frag".into(),
                m: block_q as u64,
                n: shape.head_dim as u64,
                k: block_kv as u64,
            },
        ],
    };
    program.epilogue = vec![TileOp::Copy {
        src: "o_frag".into(),
        dst: "o".into(),
        elements: (block_q * shape.head_dim) as u64,
    }];

    if strategy.needs_combine_kernel() {
        program.epilogue = vec![
            TileOp::Copy {
                src: "pmax".into(),
                dst: "pmax_part".into(),
                elements: block_q as u64,
            },
            TileOp::Copy {
                src: "psum".into(),
                dst: "psum_part".into(),
                elements: block_q as u64,
            },
            TileOp::Copy {
                src: "o_frag".into(),
                dst: "o_part".into(),
                elements: (block_q * shape.head_dim) as u64,
            },
        ];
        let mut combine = TileProgram::new(
            "flash_decoding_combine",
            e.row_blocks as u64,
            tiling.threads,
        );
        combine.buffers = vec![
            TileBuffer::new(
                "pmax_part",
                vec![shape.heads * shape.q_len, segments],
                MemoryScope::Global,
                4,
            ),
            TileBuffer::new(
                "psum_part",
                vec![shape.heads * shape.q_len, segments],
                MemoryScope::Global,
                4,
            ),
            TileBuffer::new(
                "o_part",
                vec![shape.heads * shape.q_len, shape.head_dim * segments],
                MemoryScope::Global,
                4,
            ),
            TileBuffer::new(
                "o",
                vec![shape.heads * shape.q_len, shape.head_dim],
                MemoryScope::Global,
                2,
            ),
            TileBuffer::new(
                "part_frag",
                vec![block_q, shape.head_dim * segments],
                MemoryScope::Fragment,
                4,
            ),
            TileBuffer::new(
                "o_final",
                vec![block_q, shape.head_dim],
                MemoryScope::Fragment,
                4,
            ),
        ];
        combine.main_loop = StageLoop {
            iterations: 1,
            ops: vec![
                TileOp::Copy {
                    src: "pmax_part".into(),
                    dst: "part_frag".into(),
                    elements: (block_q * segments) as u64,
                },
                TileOp::Copy {
                    src: "psum_part".into(),
                    dst: "part_frag".into(),
                    elements: (block_q * segments) as u64,
                },
                TileOp::Copy {
                    src: "o_part".into(),
                    dst: "part_frag".into(),
                    elements: (block_q * shape.head_dim * segments) as u64,
                },
                TileOp::Reduce {
                    src: "part_frag".into(),
                    dst: "o_final".into(),
                    axis_len: segments as u64,
                    rows: block_q as u64,
                    op: rf_algebra::BinaryOp::Max,
                },
                TileOp::Parallel {
                    expr: "o_final[i, j, k] *= exp(pmax_frag[i, k] - pmax[i]) * (psum_frag[i, k] / psum[i])".into(),
                    elements: (block_q * shape.head_dim * segments) as u64,
                    flops_per_element: 4,
                },
                TileOp::Reduce {
                    src: "part_frag".into(),
                    dst: "o_final".into(),
                    axis_len: segments as u64,
                    rows: (block_q * shape.head_dim) as u64,
                    op: rf_algebra::BinaryOp::Add,
                },
                TileOp::Copy {
                    src: "o_final".into(),
                    dst: "o".into(),
                    elements: (block_q * shape.head_dim) as u64,
                },
            ],
        };
        program.combine_kernel = Some(Box::new(combine));
    }

    program
}

/// The per-segment problem [`cascade_program`] hands to `tensorize_cascade`
/// and its combine kernel's tile height and grid; shared with `cascade_profile`.
struct CascadeExtents {
    segments: usize,
    axis_per_segment: usize,
    effective_rows: usize,
    /// The combine kernel iterates over the original rows, so its tile height
    /// clamps to them (as the main kernel's clamps to the effective rows).
    combine_rows: usize,
    combine_blocks: u64,
}

impl CascadeExtents {
    fn new(rows: usize, axis_len: usize, strategy: Strategy, cfg: &TensorizeConfig) -> Self {
        let segments = strategy.segments() as usize;
        let combine_rows = cfg.block_rows.min(rows).max(1);
        CascadeExtents {
            segments,
            axis_per_segment: axis_len.div_ceil(segments).max(1),
            effective_rows: rows * segments,
            combine_rows,
            combine_blocks: rows.div_ceil(combine_rows).max(1) as u64,
        }
    }
}

/// Closed form of `KernelProfile::from_tile_program(&cascade_program(name,
/// num_reductions, rows, axis_len, Mode::Incremental, strategy, cfg))` — the
/// incremental lowering, the only one the tuner searches.
pub(crate) fn cascade_profile(
    name: &str,
    num_reductions: usize,
    rows: usize,
    axis_len: usize,
    strategy: Strategy,
    cfg: &TensorizeConfig,
) -> KernelProfile {
    let e = CascadeExtents::new(rows, axis_len, strategy, cfg);
    // `tensorize_cascade`'s own clamps, over the per-segment problem.
    let br = cfg.block_rows.min(e.effective_rows).max(1) as u64;
    let ba = cfg.block_axis.min(e.axis_per_segment).max(1) as u64;
    let blocks = (e.effective_rows as u64).div_ceil(br);
    let iterations = (e.axis_per_segment as u64).div_ceil(ba);
    let (r, s) = (num_reductions as u64, e.segments as u64);
    let width = u64::from(cfg.element_bytes);
    // The combine kernel (none: 0) reads every partial, reduces over the
    // segments and writes the results: this many fp32 values per segment.
    let combine = u64::from(strategy.needs_combine_kernel());
    let merged = combine * e.combine_blocks * e.combine_rows as u64 * r;
    KernelProfile {
        name: format!("fused_{name}"),
        // One main-loop trip: a row reduction per cascade member and a 3-flop
        // correction for each but the first; the input tile in. Once per
        // block: the fp32 results out.
        flops: blocks * iterations * br * (r * ba + 3 * (r - 1)) + merged * s,
        hbm_bytes: blocks * br * (iterations * ba * width + 4 * r) + merged * 4 * (s + 1),
        blocks,
        threads_per_block: cfg.threads_per_block,
        shared_mem_per_block: br * ba * width,
        precision: precision_for_element_bytes(cfg.element_bytes),
        compute_efficiency: 0.6,
        overlap: pipeline_overlap(cfg.pipeline_depth),
        launches: 1 + combine as u32,
    }
}

/// Lowers a generic row-parallel cascade (softmax / MoE routing / Quant+GEMM
/// rows / variance / inertia) to a tile program via the tensorization pass,
/// honouring the computation mode and strategy.
pub fn cascade_program(
    name: &str,
    num_reductions: usize,
    rows: usize,
    axis_len: usize,
    mode: Mode,
    strategy: Strategy,
    cfg: &TensorizeConfig,
) -> TileProgram {
    let e = CascadeExtents::new(rows, axis_len, strategy, cfg);
    let (segments, combine_rows) = (e.segments, e.combine_rows);
    let tensorize_cfg = TensorizeConfig {
        incremental: mode == Mode::Incremental,
        ..*cfg
    };
    let mut program = tensorize_cascade(
        name,
        num_reductions,
        e.axis_per_segment,
        e.effective_rows,
        &tensorize_cfg,
    );
    if strategy.needs_combine_kernel() {
        let mut combine = TileProgram::new(
            format!("{name}_combine"),
            e.combine_blocks,
            cfg.threads_per_block,
        );
        combine.precision = program.precision;
        combine.buffers = vec![
            TileBuffer::new(
                "partials",
                vec![rows, segments * num_reductions],
                MemoryScope::Global,
                4,
            ),
            TileBuffer::new("out", vec![rows, num_reductions], MemoryScope::Global, 4),
            TileBuffer::new(
                "partial_frag",
                vec![combine_rows, segments * num_reductions],
                MemoryScope::Fragment,
                4,
            ),
        ];
        combine.main_loop = StageLoop {
            iterations: 1,
            ops: vec![
                TileOp::Copy {
                    src: "partials".into(),
                    dst: "partial_frag".into(),
                    elements: (combine_rows * segments * num_reductions) as u64,
                },
                TileOp::Reduce {
                    src: "partial_frag".into(),
                    dst: "out".into(),
                    axis_len: segments as u64,
                    rows: (combine_rows * num_reductions) as u64,
                    op: rf_algebra::BinaryOp::Add,
                },
                TileOp::Copy {
                    src: "partial_frag".into(),
                    dst: "out".into(),
                    elements: (combine_rows * num_reductions) as u64,
                },
            ],
        };
        program.combine_kernel = Some(Box::new(combine));
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_workloads::{mha_configs, mla_configs};

    #[test]
    fn single_segment_attention_is_one_kernel() {
        let shape = AttentionShape::from_mha(&mha_configs()[1]);
        let program =
            attention_program(&shape, &AttentionTiling::default(), Strategy::SingleSegment);
        let cost = program.cost();
        assert_eq!(cost.kernel_launches, 1);
        assert!(cost.flops > 0 && cost.global_bytes > 0);
        let text = program.to_string();
        assert!(text.contains("gemm(Q_shared, K_shared, P_frag)"));
        assert!(text.contains("psum[i] *= exp(pmax_prev[i] - pmax[i])"));
    }

    #[test]
    fn multi_segment_attention_adds_a_combine_kernel() {
        let shape = AttentionShape::from_mla(&mla_configs()[0]);
        let single =
            attention_program(&shape, &AttentionTiling::default(), Strategy::SingleSegment);
        let multi = attention_program(
            &shape,
            &AttentionTiling::default(),
            Strategy::MultiSegment { segments: 4 },
        );
        assert_eq!(multi.cost().kernel_launches, 2);
        assert!(
            multi.grid_blocks > single.grid_blocks,
            "splitting increases parallelism"
        );
    }

    #[test]
    fn fused_attention_avoids_score_matrix_traffic() {
        let config = &mha_configs()[1];
        let shape = AttentionShape::from_mha(config);
        let program =
            attention_program(&shape, &AttentionTiling::default(), Strategy::SingleSegment);
        let score_bytes = config.score_bytes(rf_workloads::Precision::Fp16);
        // Unfused execution spills the score matrix several times; the fused
        // kernel's total global traffic is below even one score-matrix pass
        // plus the unavoidable Q/K/V/O traffic.
        assert!(
            program.cost().global_bytes
                < config.min_bytes(rf_workloads::Precision::Fp16) * 6 + score_bytes
        );
    }

    #[test]
    fn cascade_program_modes_and_strategies() {
        let cfg = rf_tile::TensorizeConfig::default();
        let single = cascade_program(
            "softmax",
            2,
            2048,
            8192,
            Mode::Incremental,
            Strategy::SingleSegment,
            &cfg,
        );
        assert_eq!(single.cost().kernel_launches, 1);
        let multi = cascade_program(
            "softmax",
            2,
            2048,
            8192,
            Mode::Incremental,
            Strategy::MultiSegment { segments: 4 },
            &cfg,
        );
        assert_eq!(multi.cost().kernel_launches, 2);
        assert!(multi.grid_blocks > single.grid_blocks);
        let non_inc = cascade_program(
            "softmax",
            2,
            2048,
            8192,
            Mode::NonIncremental,
            Strategy::SingleSegment,
            &cfg,
        );
        assert!(non_inc.cost().shared_mem_per_block > single.cost().shared_mem_per_block);
    }
}
