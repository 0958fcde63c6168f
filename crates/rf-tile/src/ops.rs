//! TileOps, tile buffers and tile programs (Figure 10 of the paper).

use std::fmt;

use rf_algebra::BinaryOp;

use crate::cost::{CostSummary, MemoryScope};
use crate::exec::ExecBinding;

/// A tile buffer: a named on-chip or global region with a shape, a memory
/// scope and an element width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileBuffer {
    /// Buffer name.
    pub name: String,
    /// Extent of each dimension.
    pub shape: Vec<usize>,
    /// Where the buffer lives.
    pub scope: MemoryScope,
    /// Bytes per element (1 for FP8, 2 for FP16, 4 for FP32 accumulators).
    pub element_bytes: u32,
}

impl TileBuffer {
    /// Creates a buffer.
    pub fn new(
        name: impl Into<String>,
        shape: Vec<usize>,
        scope: MemoryScope,
        element_bytes: u32,
    ) -> Self {
        TileBuffer {
            name: name.into(),
            shape,
            scope,
            element_bytes,
        }
    }

    /// Total elements.
    pub fn elements(&self) -> u64 {
        self.shape.iter().map(|&d| d as u64).product::<u64>().max(1)
    }

    /// Total size in bytes.
    pub fn bytes(&self) -> u64 {
        self.elements() * self.element_bytes as u64
    }
}

/// Precision tag implied by an input element width: 1 byte → `"fp8"`,
/// 4 bytes → `"fp32"`, anything else (2-byte FP16/BF16) → `"fp16"`.
pub fn precision_for_element_bytes(element_bytes: u32) -> &'static str {
    match element_bytes {
        1 => "fp8",
        4 => "fp32",
        _ => "fp16",
    }
}

/// One tile-level operation (the grammar of Figure 10).
#[derive(Debug, Clone, PartialEq)]
pub enum TileOp {
    /// `copy(src, dst)`: moves `elements` elements between two tiles.
    Copy {
        /// Source tile name.
        src: String,
        /// Destination tile name.
        dst: String,
        /// Number of elements moved.
        elements: u64,
    },
    /// `gemm(a, b, c)`: `c += a * b` on an `m × k` by `k × n` tile pair.
    Gemm {
        /// Left operand tile.
        a: String,
        /// Right operand tile.
        b: String,
        /// Accumulator tile.
        c: String,
        /// Rows of `a`/`c`.
        m: u64,
        /// Columns of `b`/`c`.
        n: u64,
        /// Reduction depth.
        k: u64,
    },
    /// `reduce(src, dst, axis, op)`: reduces `rows × axis_len` down to `rows`.
    Reduce {
        /// Source tile.
        src: String,
        /// Destination tile.
        dst: String,
        /// Length of the reduced axis.
        axis_len: u64,
        /// Number of independent rows reduced.
        rows: u64,
        /// Reduction operator.
        op: BinaryOp,
    },
    /// `parallel(buf[idx] , f(args), iters, ranges)`: an elementwise map over
    /// `elements` elements costing `flops_per_element` each. The expression is
    /// kept as display text (it has already been validated at the scalar level).
    Parallel {
        /// Human-readable expression, e.g. `psum[i] *= exp(pmax_prev[i] - pmax[i])`.
        expr: String,
        /// Number of elements written.
        elements: u64,
        /// Scalar operations per element.
        flops_per_element: u64,
    },
    /// `fill(tile, c)`: initialises a tile with a constant.
    Fill {
        /// Destination tile.
        tile: String,
        /// Fill value.
        value: f64,
        /// Number of elements filled.
        elements: u64,
    },
}

impl fmt::Display for TileOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileOp::Copy { src, dst, .. } => write!(f, "copy({src}, {dst})"),
            TileOp::Gemm { a, b, c, .. } => write!(f, "gemm({a}, {b}, {c})"),
            TileOp::Reduce { src, dst, op, .. } => {
                write!(f, "reduce({src}, {dst}, axis=1, op={op})")
            }
            TileOp::Parallel { expr, .. } => write!(f, "parallel({expr})"),
            TileOp::Fill { tile, value, .. } => write!(f, "fill({tile}, {value})"),
        }
    }
}

/// The main per-block loop of a tile program: `iterations` pipeline stages,
/// each executing the same TileOp sequence on the next input tile.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StageLoop {
    /// Number of loop iterations (KV blocks, K blocks, …).
    pub iterations: u64,
    /// The TileOps executed per iteration.
    pub ops: Vec<TileOp>,
}

/// A tile-level program: the unit handed to code generation and to the GPU
/// performance model. A program describes the work of one kernel; programs
/// needing a separate combine kernel (Multi-Segment strategy) chain it via
/// [`TileProgram::combine_kernel`].
#[derive(Debug, Clone, PartialEq)]
pub struct TileProgram {
    /// Program name.
    pub name: String,
    /// Number of thread blocks launched.
    pub grid_blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Software-pipeline depth (1 = no pipelining).
    pub pipeline_depth: u32,
    /// Dominant compute precision of the kernel's inner loops (`"fp8"`,
    /// `"fp16"` or `"fp32"`), used by the GPU model to pick the peak
    /// throughput the kernel is rated against.
    pub precision: &'static str,
    /// All tile buffers used by one block.
    pub buffers: Vec<TileBuffer>,
    /// Ops executed once per block before the main loop.
    pub prologue: Vec<TileOp>,
    /// The main per-block loop.
    pub main_loop: StageLoop,
    /// Ops executed once per block after the main loop.
    pub epilogue: Vec<TileOp>,
    /// Optional separate combine kernel (e.g. the FlashDecoding merge).
    pub combine_kernel: Option<Box<TileProgram>>,
    /// Execution binding: the reduction semantics and clamped loop extents the
    /// [`crate::exec`] virtual machine needs to run the program over real
    /// tensors. `None` for cost-model-only programs (they can be displayed and
    /// costed but not executed).
    pub binding: Option<ExecBinding>,
}

impl TileProgram {
    /// Creates an empty program with the given launch configuration.
    pub fn new(name: impl Into<String>, grid_blocks: u64, threads_per_block: u32) -> Self {
        TileProgram {
            name: name.into(),
            grid_blocks,
            threads_per_block,
            pipeline_depth: 1,
            precision: "fp16",
            buffers: Vec::new(),
            prologue: Vec::new(),
            main_loop: StageLoop::default(),
            epilogue: Vec::new(),
            combine_kernel: None,
            binding: None,
        }
    }

    /// Looks up a buffer by name.
    pub fn buffer(&self, name: &str) -> Option<&TileBuffer> {
        self.buffers.iter().find(|b| b.name == name)
    }

    fn op_cost(&self, op: &TileOp) -> CostSummary {
        let mut cost = CostSummary::default();
        match op {
            TileOp::Copy { src, dst, elements } => {
                let scope = |name: &str, default| self.buffer(name).map_or(default, |b| b.scope);
                if scope(src, MemoryScope::Global) == MemoryScope::Global
                    || scope(dst, MemoryScope::Shared) == MemoryScope::Global
                {
                    let width = self
                        .buffer(dst)
                        .or_else(|| self.buffer(src))
                        .map(|b| b.element_bytes as u64)
                        .unwrap_or(2);
                    cost.global_bytes += elements * width;
                }
            }
            TileOp::Gemm { m, n, k, .. } => {
                cost.flops += 2 * m * n * k;
            }
            TileOp::Reduce { axis_len, rows, .. } => {
                cost.flops += axis_len * rows;
            }
            TileOp::Parallel {
                elements,
                flops_per_element,
                ..
            } => {
                cost.flops += elements * flops_per_element;
            }
            TileOp::Fill { .. } => {}
        }
        cost
    }

    /// Aggregate execution cost across the whole grid, including the combine
    /// kernel when present.
    pub fn cost(&self) -> CostSummary {
        let mut per_block = CostSummary::default();
        for op in &self.prologue {
            per_block = per_block.combine(&self.op_cost(op));
        }
        let mut per_iter = CostSummary::default();
        for op in &self.main_loop.ops {
            per_iter = per_iter.combine(&self.op_cost(op));
        }
        per_block.global_bytes += per_iter.global_bytes * self.main_loop.iterations;
        per_block.flops += per_iter.flops * self.main_loop.iterations;
        for op in &self.epilogue {
            per_block = per_block.combine(&self.op_cost(op));
        }

        let shared_mem_per_block: u64 = self
            .buffers
            .iter()
            .filter(|b| b.scope == MemoryScope::Shared)
            .map(TileBuffer::bytes)
            .sum();

        let mut total = CostSummary {
            global_bytes: per_block.global_bytes * self.grid_blocks,
            flops: per_block.flops * self.grid_blocks,
            kernel_launches: 1,
            shared_mem_per_block,
        };
        if let Some(combine) = &self.combine_kernel {
            total = total.combine(&combine.cost());
        }
        total
    }
}

impl fmt::Display for TileProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "// {} — grid = {}, threads = {}, pipeline depth = {}",
            self.name, self.grid_blocks, self.threads_per_block, self.pipeline_depth
        )?;
        writeln!(
            f,
            "bx = launch_thread(\"blockIdx.x\", {})",
            self.grid_blocks
        )?;
        for b in &self.buffers {
            let dims: Vec<String> = b.shape.iter().map(|d| d.to_string()).collect();
            writeln!(
                f,
                "alloc_{}({}, [{}])",
                b.scope.name(),
                b.name,
                dims.join(", ")
            )?;
        }
        for op in &self.prologue {
            writeln!(f, "{op}")?;
        }
        writeln!(f, "for stage in range({}):", self.main_loop.iterations)?;
        for op in &self.main_loop.ops {
            writeln!(f, "    {op}")?;
        }
        for op in &self.epilogue {
            writeln!(f, "{op}")?;
        }
        if let Some(combine) = &self.combine_kernel {
            writeln!(f, "\n// combine kernel")?;
            write!(f, "{combine}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> TileProgram {
        let mut p = TileProgram::new("sample", 4, 128);
        p.buffers = vec![
            TileBuffer::new("Q", vec![128, 64], MemoryScope::Global, 2),
            TileBuffer::new("Q_shared", vec![128, 64], MemoryScope::Shared, 2),
            TileBuffer::new("P_frag", vec![128, 128], MemoryScope::Fragment, 4),
        ];
        p.prologue = vec![TileOp::Copy {
            src: "Q".into(),
            dst: "Q_shared".into(),
            elements: 128 * 64,
        }];
        p.main_loop = StageLoop {
            iterations: 4,
            ops: vec![
                TileOp::Gemm {
                    a: "Q_shared".into(),
                    b: "K_shared".into(),
                    c: "P_frag".into(),
                    m: 128,
                    n: 128,
                    k: 64,
                },
                TileOp::Reduce {
                    src: "P_frag".into(),
                    dst: "pmax".into(),
                    axis_len: 128,
                    rows: 128,
                    op: BinaryOp::Max,
                },
                TileOp::Parallel {
                    expr: "pexp[i,j] = exp(P[i,j] - pmax[i])".into(),
                    elements: 128 * 128,
                    flops_per_element: 2,
                },
            ],
        };
        p.epilogue = vec![TileOp::Copy {
            src: "o_frag".into(),
            dst: "o".into(),
            elements: 128 * 64,
        }];
        p
    }

    #[test]
    fn cost_accumulates_across_grid_and_iterations() {
        let p = sample_program();
        let cost = p.cost();
        assert_eq!(cost.kernel_launches, 1);
        // Prologue copy: 128*64 elements * 2 bytes * 4 blocks; epilogue copy
        // falls back to 2-byte width since `o` is undeclared.
        assert!(cost.global_bytes >= (128 * 64 * 2 * 4) as u64 * 2);
        // 4 iterations of a 128x128x64 gemm per block, 4 blocks.
        assert!(cost.flops >= 2 * 128 * 128 * 64 * 4 * 4);
        assert_eq!(cost.shared_mem_per_block, 128 * 64 * 2);
    }

    #[test]
    fn display_contains_figure_style_ops() {
        let p = sample_program();
        let text = p.to_string();
        assert!(text.contains("launch_thread(\"blockIdx.x\", 4)"));
        assert!(text.contains("gemm(Q_shared, K_shared, P_frag)"));
        assert!(text.contains("reduce(P_frag, pmax, axis=1, op=max)"));
        assert!(text.contains("for stage in range(4):"));
    }

    #[test]
    fn combine_kernel_adds_a_launch() {
        let mut p = sample_program();
        p.combine_kernel = Some(Box::new(TileProgram::new("combine", 4, 128)));
        assert_eq!(p.cost().kernel_launches, 2);
        assert!(p.to_string().contains("// combine kernel"));
    }

    #[test]
    fn buffer_helpers() {
        let b = TileBuffer::new("t", vec![4, 8], MemoryScope::Shared, 4);
        assert_eq!(b.elements(), 32);
        assert_eq!(b.bytes(), 128);
    }
}
