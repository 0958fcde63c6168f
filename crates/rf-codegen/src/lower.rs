//! Workload-specific lowering to tile programs, at one [`TuningPoint`] of
//! the auto-tuner.
//!
//! A raw point is clamped in one place: the **canonical point**
//! (`canonical_attention_point`, `canonical_cascade_point`) is the kernel.
//! Its tile sizes are clamped to the shape and its `segments` is the number
//! of non-empty axis segments the VM runs, so a kernel is Multi-Segment
//! exactly when its canonical `segments > 1`. The public lowerings
//! ([`attention_program`], [`cascade_program`], and
//! `crate::compile::executable_program`) canonicalize once on entry;
//! everything below them — the extents, the closed forms, the tensorization
//! pass, the footprints and the VM binding — reads the canonical point and
//! clamps nothing again. The tuner dedups through the same functions, so
//! it costs each distinct kernel once.
//!
//! [`attention_program`] reproduces the tile-level structure of Figures 12b
//! (FlashAttention, Single-Segment) and 13b (FlashDecoding, Multi-Segment):
//! a per-block pipeline over KV tiles with `copy`/`gemm`/`reduce`/`parallel`
//! ops and, Multi-Segment, a separate combine kernel. [`cascade_program`]
//! lowers generic row-parallel cascades (softmax, MoE routing, Quant+GEMM
//! rows, variance, inertia) through the tensorization pass
//! (`tensorize_cascade`, §4.4), in either computation [`Mode`].
//!
//! Next to each lowering sits its **closed form** (`attention_profile`,
//! `cascade_profile`), the auto-tuner's view of it: integer arithmetic over
//! the same extents that returns exactly [`KernelProfile::from_tile_program`]
//! of the program the lowering would build, in ~0.1 µs instead of the 2–3 µs
//! of building 13 named buffers and ~20 ops to fold them into six integers.
//! Each family's shared-memory formula (`attention_footprint`,
//! `cascade_footprint`) is shared by its closed form and the tuner's
//! footprint hook. An edit to a lowering's ops or buffers must be mirrored
//! in its closed form; `closed_forms_equal_the_lowering_over_the_whole_space`
//! and the `debug_assert_eq!` on every shipped winner (both in `compile.rs`)
//! and the recorded choices in `BENCH_sim.json` (the sim-clock ledger,
//! checked by `rf-bench`'s `tests/sim_ledger.rs`) say so when it is not.

use rf_gpusim::{pipeline_overlap, KernelProfile};
use rf_tile::{
    precision_for_element_bytes, MemoryScope, StageLoop, TileBuffer, TileOp, TileProgram,
};

use crate::strategy::Mode;
use crate::tuner::{PointFootprint, TuningPoint};

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

/// The number of segments the VM runs when an axis of `axis_len` is split
/// into `segments`: `ceil(axis_len / segments)` elements each, empty trailing
/// segments dropped, so `ceil(axis_len / ceil(axis_len / segments))` — at
/// least one, never more than the axis.
fn segment_count(axis_len: usize, segments: u32) -> u32 {
    let (axis, s) = (axis_len.max(1), segments.max(1) as usize);
    // No segment is empty when `ceil(axis / s) · (s − 1) < axis`, which holds
    // whenever `axis ≥ s · (s − 1)`: a long axis keeps its count without a
    // division (the tuner canonicalizes all 840 raw points of every compile).
    if axis >= s * (s - 1) {
        return s as u32;
    }
    axis.div_ceil(axis.div_ceil(s)) as u32
}

/// The point [`attention_program`] builds for `point`: the tile sizes clamped
/// to the shape and `segments` to the count the VM runs over the KV axis —
/// the tuner's canonicalization hook for attention, exact because two points
/// with one canonical point build the identical kernel.
pub(crate) fn canonical_attention_point(shape: &AttentionShape, p: &TuningPoint) -> TuningPoint {
    TuningPoint {
        block_rows: p.block_rows.min(shape.q_len).max(1),
        block_axis: p.block_axis.min(shape.kv_len).max(1),
        segments: segment_count(shape.kv_len, p.segments),
        ..*p
    }
}

/// The loop and grid extents of the attention lowering at a canonical point:
/// what [`attention_program`] builds from and `attention_profile` costs from.
struct AttentionExtents {
    segments: usize,
    /// Main-loop trips of one block over its KV segment.
    iterations: u64,
    /// `heads × q_blocks`, the combine kernel's grid; the main kernel's is
    /// `segments` times it.
    row_blocks: usize,
    kernel: &'static str,
}

impl AttentionExtents {
    fn new(shape: &AttentionShape, p: &TuningPoint) -> Self {
        let segments = p.segments as usize;
        AttentionExtents {
            segments,
            iterations: shape.kv_len.div_ceil(segments).div_ceil(p.block_axis) as u64,
            row_blocks: shape.heads * shape.q_len.div_ceil(p.block_rows),
            kernel: if segments > 1 {
                "flash_decoding_partial"
            } else {
                "flash_attention"
            },
        }
    }
}

/// Launch resources of the attention kernel at a canonical point: the fp16
/// Q, K and V staging tiles (the combine kernel uses no shared memory).
pub(crate) fn attention_footprint(shape: &AttentionShape, p: &TuningPoint) -> PointFootprint {
    let (qk, d) = (shape.qk_dim, shape.head_dim);
    PointFootprint {
        threads_per_block: p.threads,
        shared_mem_per_block: 2 * (p.block_rows * qk + p.block_axis * (qk + d)) as u64,
    }
}

/// Closed form of `KernelProfile::from_tile_program(&attention_program(shape,
/// p))` at a canonical point, term by term in the order the lowering emits
/// its ops.
pub(crate) fn attention_profile(shape: &AttentionShape, p: &TuningPoint) -> KernelProfile {
    let e = AttentionExtents::new(shape, p);
    let (bq, bkv, s) = (p.block_rows as u64, p.block_axis as u64, e.segments as u64);
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
    let combine = u64::from(s > 1);
    let once_bytes = 2 * bq * qk + (1 - combine) * 2 * bq * d;
    let combine_flops = combine * row_blocks * bq * s * (5 * d + 1);
    let combine_bytes = combine * row_blocks * (4 * bq * s * (d + 2) + 2 * bq * d);
    KernelProfile {
        name: e.kernel.to_string(),
        flops: blocks * e.iterations * trip_flops + combine_flops,
        hbm_bytes: blocks * (once_bytes + e.iterations * trip_bytes) + combine_bytes,
        blocks,
        threads_per_block: p.threads,
        shared_mem_per_block: attention_footprint(shape, p).shared_mem_per_block,
        precision: "fp16",
        compute_efficiency: 0.6,
        overlap: pipeline_overlap(p.pipeline_depth),
        launches: 1 + combine as u32,
    }
}

/// Builds the fused attention tile program at one tuning point.
///
/// Single-Segment (canonical `segments` = 1) yields the Figure 12b kernel;
/// Multi-Segment splits the KV axis across `segments` blocks per (head,
/// q-block) pair and appends the Figure 13b combine kernel.
pub fn attention_program(shape: &AttentionShape, point: &TuningPoint) -> TileProgram {
    lower_attention(shape, &canonical_attention_point(shape, point))
}

/// [`attention_program`] at a canonical point.
pub(crate) fn lower_attention(shape: &AttentionShape, point: &TuningPoint) -> TileProgram {
    let e = AttentionExtents::new(shape, point);
    let (block_q, block_kv, segments) = (point.block_rows, point.block_axis, e.segments);

    let grid = (e.row_blocks * segments) as u64;
    let mut program = TileProgram::new(e.kernel, grid, point.threads);
    program.pipeline_depth = point.pipeline_depth;
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

    if segments > 1 {
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
        let mut combine =
            TileProgram::new("flash_decoding_combine", e.row_blocks as u64, point.threads);
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

/// The point [`cascade_program`] builds for `point`: `segments` clamped to the
/// count the VM runs over the axis, then the tile sizes to the per-segment
/// problem (`rows × segments` effective rows over `ceil(axis_len /
/// segments)` axis elements) — the tuner's canonicalization hook for
/// cascades.
pub(crate) fn canonical_cascade_point(
    rows: usize,
    axis_len: usize,
    p: &TuningPoint,
) -> TuningPoint {
    let segments = segment_count(axis_len, p.segments);
    TuningPoint {
        block_rows: p.block_rows.min(rows * segments as usize).max(1),
        block_axis: p
            .block_axis
            .min(axis_len.div_ceil(segments as usize))
            .max(1),
        segments,
        ..*p
    }
}

/// The tile height of a cascade's combine kernel and of the VM's row block at
/// a canonical point: `block_rows` over the original rows (the main kernel's
/// tile spans the `rows × segments` effective rows, so it may be taller).
pub(crate) fn cascade_row_block(rows: usize, p: &TuningPoint) -> usize {
    p.block_rows.min(rows).max(1)
}

/// The per-segment problem [`cascade_program`] hands to `tensorize_cascade`
/// and its combine kernel's tile height and grid; shared with `cascade_profile`.
struct CascadeExtents {
    segments: usize,
    axis_per_segment: usize,
    effective_rows: usize,
    combine_rows: usize,
    combine_blocks: u64,
}

impl CascadeExtents {
    fn new(rows: usize, axis_len: usize, p: &TuningPoint) -> Self {
        let segments = p.segments as usize;
        let combine_rows = cascade_row_block(rows, p);
        CascadeExtents {
            segments,
            axis_per_segment: axis_len.div_ceil(segments).max(1),
            effective_rows: rows * segments,
            combine_rows,
            combine_blocks: rows.div_ceil(combine_rows).max(1) as u64,
        }
    }
}

/// Launch resources of the tensorized cascade at a canonical point: the
/// staged input — one main-loop tile incremental, the whole segment
/// non-incremental (the combine kernel uses no shared memory).
pub(crate) fn cascade_footprint(
    axis_len: usize,
    element_bytes: u32,
    mode: Mode,
    p: &TuningPoint,
) -> PointFootprint {
    let staged = match mode {
        Mode::Incremental => p.block_axis,
        Mode::NonIncremental => axis_len.div_ceil(p.segments as usize).max(1),
    };
    PointFootprint {
        threads_per_block: p.threads,
        shared_mem_per_block: (p.block_rows * staged) as u64 * u64::from(element_bytes),
    }
}

/// Closed form of `KernelProfile::from_tile_program(&cascade_program(name,
/// num_reductions, rows, axis_len, element_bytes, mode, p))` at a canonical
/// point.
pub(crate) fn cascade_profile(
    name: &str,
    num_reductions: usize,
    rows: usize,
    axis_len: usize,
    element_bytes: u32,
    mode: Mode,
    p: &TuningPoint,
) -> KernelProfile {
    let e = CascadeExtents::new(rows, axis_len, p);
    let (br, ba) = (p.block_rows as u64, p.block_axis as u64);
    let blocks = (e.effective_rows as u64).div_ceil(br);
    let iterations = (e.axis_per_segment as u64).div_ceil(ba);
    let (r, s) = (num_reductions as u64, e.segments as u64);
    let width = u64::from(element_bytes);
    // Per block row: incremental mode reduces every main-loop trip's tile, a
    // row reduction per cascade member and a 3-flop correction for each but
    // the first; non-incremental mode reduces the staged segment once per
    // member after the loop.
    let row_flops = match mode {
        Mode::Incremental => iterations * (r * ba + 3 * (r - 1)),
        Mode::NonIncremental => r * e.axis_per_segment as u64,
    };
    // The combine kernel (none: 0) reads every partial, reduces over the
    // segments and writes the results: this many fp32 values per segment.
    let combine = u64::from(s > 1);
    let merged = combine * e.combine_blocks * e.combine_rows as u64 * r;
    KernelProfile {
        name: format!("fused_{name}"),
        // Per block: the input tile in every trip and the fp32 results out.
        flops: blocks * br * row_flops + merged * s,
        hbm_bytes: blocks * br * (iterations * ba * width + 4 * r) + merged * 4 * (s + 1),
        blocks,
        threads_per_block: p.threads,
        shared_mem_per_block: cascade_footprint(axis_len, element_bytes, mode, p)
            .shared_mem_per_block,
        precision: precision_for_element_bytes(element_bytes),
        compute_efficiency: 0.6,
        overlap: pipeline_overlap(p.pipeline_depth),
        launches: 1 + combine as u32,
    }
}

/// The tensorization pass (§4.4) over one row cascade of `num_reductions`
/// dependent reductions along an axis of `axis_len`, applied independently to
/// `rows` rows: a single fused kernel that loads the input once and keeps
/// every reduction's running state on chip.
///
/// * *Blockization* — the rows are partitioned into block tiles of
///   `point.block_rows`, the axis into per-iteration tiles of
///   `point.block_axis`; *Parallelization* binds one block per row tile.
/// * *Block-level buffer management* — a `copy` stages each input tile in
///   shared memory, the states live in register fragments, and buffers are
///   compacted to the tile footprint.
/// * *Conversion to TileOps* — each reduction becomes a `reduce`, each
///   correction a `parallel` op.
///
/// Incremental mode corrects every iteration with constant-sized state;
/// non-incremental mode stages the whole axis in shared memory, so shared
/// memory grows linearly with the axis (Figure 4, §5.4), and reduces once.
///
/// `point` is canonical for this problem: its tiles are no larger than
/// `rows × axis_len`.
pub(crate) fn tensorize_cascade(
    name: &str,
    num_reductions: usize,
    rows: usize,
    axis_len: usize,
    element_bytes: u32,
    mode: Mode,
    point: &TuningPoint,
) -> TileProgram {
    assert!(num_reductions > 0, "a cascade has at least one reduction");
    assert!(
        axis_len > 0 && rows > 0,
        "axis length and rows must be positive"
    );
    let incremental = mode == Mode::Incremental;
    let (block_rows, block_axis) = (point.block_rows, point.block_axis);
    let grid_blocks = rows.div_ceil(block_rows) as u64;
    let iterations = axis_len.div_ceil(block_axis) as u64;

    let mut program = TileProgram::new(format!("fused_{name}"), grid_blocks, point.threads);
    program.pipeline_depth = point.pipeline_depth;
    program.precision = precision_for_element_bytes(element_bytes);

    // Input tile staged per iteration; in non-incremental mode the whole axis
    // must be resident before the reductions can run.
    let staged_axis = if incremental { block_axis } else { axis_len };
    program.buffers.push(TileBuffer::new(
        "x",
        vec![rows, axis_len],
        MemoryScope::Global,
        element_bytes,
    ));
    program.buffers.push(TileBuffer::new(
        "x_shared",
        vec![block_rows, staged_axis],
        MemoryScope::Shared,
        element_bytes,
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

    let mut ops = vec![TileOp::Copy {
        src: "x".into(),
        dst: "x_shared".into(),
        elements: (block_rows * block_axis) as u64,
    }];
    // Incremental mode reduces every trip's tile; non-incremental mode reduces
    // the staged axis once, after the loop.
    let reductions = if incremental {
        &mut ops
    } else {
        &mut program.epilogue
    };
    for i in 0..num_reductions {
        if i > 0 && incremental {
            // Store previous result + correction (steps 1 and 2 of the fused
            // reduction template).
            reductions.push(TileOp::Copy {
                src: format!("state{i}"),
                dst: format!("state{i}_prev"),
                elements: block_rows as u64,
            });
            reductions.push(TileOp::Parallel {
                expr: format!(
                    "state{i}[r] *= correction(state{}_prev[r], state{}[r])",
                    i - 1,
                    i - 1
                ),
                elements: block_rows as u64,
                flops_per_element: 3,
            });
        }
        reductions.push(TileOp::Reduce {
            src: "x_shared".into(),
            dst: format!("state{i}"),
            axis_len: staged_axis as u64,
            rows: block_rows as u64,
            op: rf_algebra::BinaryOp::Add,
        });
    }
    program.main_loop = StageLoop { iterations, ops };

    program.epilogue.push(TileOp::Copy {
        src: "state0".into(),
        dst: "out".into(),
        elements: (block_rows * num_reductions) as u64,
    });
    program
}

/// Lowers a generic row-parallel cascade (softmax / MoE routing / Quant+GEMM
/// rows / variance / inertia) at one tuning point: the tensorization pass over
/// the per-segment problem and, Multi-Segment, the combine kernel.
pub fn cascade_program(
    name: &str,
    num_reductions: usize,
    rows: usize,
    axis_len: usize,
    element_bytes: u32,
    mode: Mode,
    point: &TuningPoint,
) -> TileProgram {
    let p = canonical_cascade_point(rows, axis_len, point);
    lower_cascade(
        name,
        num_reductions,
        rows,
        axis_len,
        element_bytes,
        mode,
        &p,
    )
}

/// [`cascade_program`] at a canonical point.
pub(crate) fn lower_cascade(
    name: &str,
    num_reductions: usize,
    rows: usize,
    axis_len: usize,
    element_bytes: u32,
    mode: Mode,
    point: &TuningPoint,
) -> TileProgram {
    let e = CascadeExtents::new(rows, axis_len, point);
    let (segments, combine_rows) = (e.segments, e.combine_rows);
    let mut program = tensorize_cascade(
        name,
        num_reductions,
        e.effective_rows,
        e.axis_per_segment,
        element_bytes,
        mode,
        point,
    );
    if segments > 1 {
        let mut combine =
            TileProgram::new(format!("{name}_combine"), e.combine_blocks, point.threads);
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

    /// A mid-space point: 128 × 128 tiles, 256 threads, double buffering.
    const POINT: TuningPoint = TuningPoint {
        block_rows: 128,
        block_axis: 128,
        threads: 256,
        pipeline_depth: 2,
        segments: 1,
    };

    #[test]
    fn canonical_segments_are_the_count_the_vm_runs() {
        // `from_segments`' old rule: 0 and 1 are Single-Segment.
        assert_eq!(segment_count(100, 0), 1);
        assert_eq!(segment_count(100, 1), 1);
        // 100 over 64 runs 50 segments of two; 7 over 8 runs 7 of one.
        assert_eq!(segment_count(100, 64), 50);
        assert_eq!(segment_count(7, 8), 7);
        for axis in 0..=300usize {
            for s in 0..=70u32 {
                let count = segment_count(axis, s) as usize;
                let (a, raw) = (axis.max(1), s.max(1) as usize);
                let len = a.div_ceil(count);
                assert_eq!(count, a.div_ceil(a.div_ceil(raw)), "{axis} over {s}");
                assert_eq!(len, a.div_ceil(raw), "same segment length");
                assert!((count - 1) * len < a, "{axis} over {s}: an empty segment");
            }
        }
    }

    #[test]
    fn single_segment_attention_is_one_kernel() {
        let shape = AttentionShape::from_mha(&mha_configs()[1]);
        let program = attention_program(&shape, &POINT);
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
        let single = attention_program(&shape, &POINT);
        let multi = attention_program(
            &shape,
            &TuningPoint {
                segments: 4,
                ..POINT
            },
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
        let program = attention_program(&shape, &POINT);
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
        let lower = |mode, segments| {
            let point = TuningPoint { segments, ..POINT };
            cascade_program("softmax", 2, 2048, 8192, 2, mode, &point)
        };
        let single = lower(Mode::Incremental, 1);
        assert_eq!(single.cost().kernel_launches, 1);
        let multi = lower(Mode::Incremental, 4);
        assert_eq!(multi.cost().kernel_launches, 2);
        assert!(multi.grid_blocks > single.grid_blocks);
        let non_inc = lower(Mode::NonIncremental, 1);
        assert!(non_inc.cost().shared_mem_per_block > single.cost().shared_mem_per_block);
    }
}
