//! A deterministic CPU virtual machine for [`TileProgram`]s.
//!
//! The rest of this crate builds tile programs for *costing*: the GPU model
//! only needs op counts and buffer footprints. This module makes the same
//! programs *executable*, closing the loop the paper's §4 pipeline promises —
//! the kernel the tuner chose is the kernel that produces the numbers.
//!
//! # Execution model
//!
//! A program is executable when it carries an [`ExecBinding`]: the reduction
//! semantics of its cascade plus the **clamped** loop extents the lowering
//! baked in (rows per block tile, reduction-axis elements per main-loop
//! iteration, number of axis segments from the Multi-Segment strategy). Every
//! output row goes through the generated kernel's template:
//!
//! * **segments** — the shared reduction axis is split into
//!   [`ExecBinding::segments`] contiguous ranges. Each segment produces a
//!   partial reduction state, exactly like the Multi-Segment strategy's
//!   independent CTAs; with one segment no partials exist (Single-Segment);
//! * **main loop** — within a segment the axis is consumed in tiles of
//!   [`ExecBinding::block_axis`] elements. Every tile goes through the
//!   paper's three-step fused reduction template: **store** the previous
//!   running state, **correct** the dependent accumulators for the state
//!   change, **reduce** the new tile into the running state. The plain sums of
//!   variance and inertia have no correct step, so a tile boundary cannot show
//!   in them and their loop runs straight through the segment;
//! * **combine kernel** — when segments > 1 the per-segment partials are
//!   merged with the level-`k` fused combine expression (Eq. 31 for softmax
//!   statistics, plain addition for group-like reductions, a rescaling merge
//!   for the FP8 accumulators). Attention rescales every partial to the
//!   row's maximum and adds it, a partial whose factor is 0 included, so
//!   0·NaN and 0·inf are NaN there as they are in the unfused form;
//! * **epilogue** — the finalisation that the generated kernel's epilogue
//!   performs (normalisation, variance/inertia closed forms, de-quantisation,
//!   top-k probability extraction). Softmax keeps each tile's exponentials in
//!   the output while it reduces, so its epilogue is the correct step applied
//!   to the stored tile — one exponential per tile — fused with the
//!   normalisation.
//!
//! The loop nest that runs is **row → segment → tile**. FP8 quant + GEMM
//! alone runs **row block → segment → tile**,
//! [`ExecBinding::block_rows`] rows per block: its weight matrix is the one
//! operand that every row reads and that outgrows the cache, and in this
//! order a weight tile is fetched once per block while the block's
//! accumulators stay resident. Each tile then takes two passes: per row, the
//! abs-max, the correction and the FP8 quantisation of the row's tile into
//! the block's coefficient tile; then one [`add_scaled_block`] over the whole
//! block, which holds four rows' accumulators in vector registers while the
//! tile's W rows stream past, so W is read from cache once per four rows
//! instead of once per row. Attention runs **query group → segment →
//! tile**: a group is the rows of one block of [`QUERY_LANES`] (eight)
//! that fall in a range of the row split, staged column-major once
//! ([`QueryGroup`]), and each K tile is scored against the whole group in
//! one tile GEMM ([`score_group`]), as a FlashAttention CTA scores its
//! `block_q` rows; the statistics and the exponentials of each row then run
//! in the order a lone row runs them, and the tile's P·V is one
//! [`add_scaled_block`] for the group. Routing runs **block of eight tokens
//! → segment → tile**: one [`add_scaled_block`] scores the block's tokens
//! against the tile's columns of W, read in place; the top-k and the
//! statistics then run per token. Inner loops run over row slices with
//! several independent accumulation chains ([`score_group`],
//! [`add_scaled_block`], [`tile_max`], the slice exponentials,
//! [`sum_and_squares`]), and nothing is allocated per row, group, segment or
//! tile: a call sizes its scratch once.
//!
//! **Vector width.** Every loop over a tile runs at the widest vector tier
//! the CPU offers (AVX-512F + FMA on the benchmark host), picked at run time
//! inside `rf-workloads`: [`score_group`], attention's Q·Kᵀ, one vector of
//! eight query rows per key; [`add_scaled_block`], every GEMM that follows a
//! reduction — attention's P·V, routing's scores and quant + GEMM's
//! accumulate, 4 rows × 32 columns of accumulators in sixteen `zmm`
//! registers per pass over a tile's keys — and attention's segment combine,
//! one block row per output row; [`tile_max`], a tile's maximum in eight
//! lanes; the exponentials, which in slice form return the sum of the
//! tile's exponentials in eight lanes from the same pass; and
//! [`sum_and_squares`], variance's Σx and Σx² over a segment, in eight lanes
//! — one vector per sum there. Every multiply-add in them is one `mul_add`,
//! rounded once: a hardware fused multiply-add above the baseline and libm's
//! exact `fma` at it. All of them return the bits of the baseline build on
//! every CPU, each row of a block has the bits it has alone, and the eight
//! lanes and their tree are the source's, so neither the tier nor the
//! grouping can show in a result. What is left at the baseline is short or
//! scalar: softmax's epilogue multiply (a vector form measured no gain the
//! pair rule could tell from the binaries' own spread), the per-row
//! corrections, inertia and the statistics' merges. A group of one row
//! (decode, or a range of one) is scored by
//! [`dot_rows`](rf_workloads::dot_rows): eight keys' chains beat one busy
//! lane of eight, measured in its docs. Inertia split over lanes naively
//! measured slower.
//!
//! **The exponential.** Softmax, attention and routing reduce a tile in two
//! passes over a slice that sits in L1 around one `advance` of the running
//! statistics (the store and correct steps): its maximum, then the
//! exponentials of the whole tile under the new maximum with their sum.
//! Every exponential is
//! [`rf_workloads::exp`](mod@rf_workloads::exp): the tile's through the slice
//! forms, and so are attention's combine factors (one slice call over a
//! row's segment maxima) and softmax's epilogue; the per-tile factors of
//! `advance` and `merge` through the scalar form. Both return the same bits
//! on every CPU; that module holds the numerics policy.
//!
//! **Parallel grid.** The generated kernel is a grid — every row block, and
//! under Multi-Segment every `(row, segment)` cell, is an independent CTA —
//! and the VM walks it on every core: softmax, variance, attention, routing
//! and quant + GEMM are each the *body* that
//! [`rf_workloads::for_row_ranges`] runs over contiguous row ranges, the first
//! on the calling thread and the rest on scoped threads joined before the
//! call returns. Ranges start on multiples of `block_rows` for quant + GEMM
//! (the same row blocks, a weight tile still fetched once per block); for
//! attention they start on any row, and a range boundary inside a block of
//! [`QUERY_LANES`] rows cuts it into two groups; each range sizes its own
//! scratch.
//! Attention with fewer rows than threads and than segments — decode, the
//! paper's low-concurrency case — keeps its rows on the caller and gives each
//! group's *segments* to the same splitter instead: a range of cells leaves
//! its FlashDecoding partials in the group's cell buffer and the combine kernel
//! runs on the caller as the join (rows or segments, never both: no spawn
//! nests). A call — or a group's cells — under the splitter's threshold (2²²
//! multiply-add equivalents, an exponential and an FP8 rounding counted as 16
//! each, a query group's Q·Kᵀ as a whole vector of [`QUERY_LANES`] rows
//! whatever the group's size, all measured on the benchmark host, see
//! [`rf_workloads::PARALLEL_MIN_WORK`]) or with one row block runs the same
//! body inline as its only range. Of `perf`'s `exec_decode` cases MLA
//! 1×4096×(576→512) (21.0 M: p50 1.9–2.1 → 1.2–1.4 ms on two cores) and MHA
//! 1×8192 (4.85 M: p50 400–550 → 300–380 µs on two cores, but 530–620 µs
//! while the host keeps both threads on one) split their segments; both
//! softmax shapes (2¹⁹) and variance run inline and cost what they did.
//! Which of `perf`'s shapes split is pinned, without a clock, by the test
//! `the_benchmark_shapes_split_where_the_threshold_says`. Inertia is one
//! system per request and stays on one thread. There is no thread pool (a
//! parked worker starts 60–100 µs sooner than a scoped thread, 1–5 % of the
//! calls that split: not worth global state) and no knob: the thread count
//! is the cached `available_parallelism()`, which honours the affinity mask.
//! [`ExecProfile::wall_ns`] is elapsed wall time, not CPU time, once a call
//! fans out.
//!
//! # Determinism
//!
//! For a fixed program and input the VM performs the same floating-point
//! operations in the same order on every run. The order in which one output
//! adds up its terms is fixed by the tuning point's `block_axis` and
//! `segments` — ascending along the axis inside a tile (a tile's maximum and
//! the sum of its exponentials: over eight lanes and one tree, both written in
//! `rf-workloads`' source), tiles in order, segment partials merged in order; a plain sum
//! (variance's Σx and Σx²) adds element `i` of its segment into lane `i mod 8`,
//! then the eight lanes in the same tree, then the segments in order — and is
//! independent of the CPU's vector width and **of `block_rows`**, so a call
//! split across threads returns the bits of the unsplit run: a
//! range computes its rows, or its cells of one row, exactly as the unsplit
//! loop would and writes only its own chunk of the output or of the cell
//! buffer, and the combine merges the cells in segment order on one thread, so
//! the result is bit-identical for every thread count and every way of cutting
//! the rows or the segments. Different tuning points change the association
//! order of the reductions (that is exactly what tiling does on hardware), so
//! outputs across tuning points agree to rounding error — never more. The one
//! intentional exception is FP8 quant + GEMM, where early tiles are quantised
//! under a provisional scale (Eq. 21–22); there the tile size moves results
//! within the quantisation noise floor, the same behaviour a fused kernel on
//! hardware exhibits.
//!
//! Inputs are borrowed views ([`ExecInput`]) so the serving hot path never
//! copies a tensor; outputs ([`ExecOutput`]) are owned.
//!
//! # The input contract
//!
//! [`Semantics::check`] is each family's one input contract: the input kind,
//! the inner dimensions, no empty row or reduction axis, `topk` in
//! `1..=experts`. [`execute`] runs it once, before any kernel, and the kernels
//! read their shapes without checking them again; the serving front door
//! (`rf_runtime::validate`) runs the same check plus the row count and axis
//! length its workload fixes. Only a value can still fail a call that passed
//! it: an inertia system whose total mass is not positive.
//!
//! # Profiling
//!
//! The kernels are the only description of their loops. Each takes a
//! private tally that it tells, at the code that runs a template step, that
//! the step ran and which tensor bytes it loaded or stored: [`execute`]
//! passes one that ignores it, [`execute_profiled`] one that counts. The
//! profile is those counts ([`OpStats`]) and the call's measured wall time;
//! no time is apportioned to ops.

use std::fmt;
use std::ops::Range;

use rf_algebra::BinaryOp;
use rf_workloads::moe::{score_order, RoutingDecision};
use rf_workloads::{
    add_scaled_block, available_cores, exp, exp_shifted, exp_shifted_in_place, for_row_ranges,
    query_groups, score_group, sum_and_squares, tile_max, Matrix, QueryGroup, Terms, QUERY_LANES,
};

use crate::ops::TileProgram;

// The simulated FP8 E4M3 grid is defined once in `rf_workloads::quant` and
// shared with the unfused oracles in `rf-kernels`, so the VM and the oracles
// perform bit-identical roundings.
pub use rf_workloads::{fp8_round, FP8_MAX};

/// The reduction semantics of an executable cascade: what the store → correct
/// → reduce template computes per tile and how the epilogue finalises it.
///
/// Workload-shape parameters that the input tensors cannot carry themselves
/// (the GEMM output width, the top-k count, the attention head split) live
/// here; everything else — row counts, axis lengths — is read from the live
/// input, clamped exactly the way the lowering clamps tile sizes to shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Semantics {
    /// Row-wise safe softmax: max reduction → corrected sum of exponentials →
    /// normalisation epilogue. Consumes [`ExecInput::Rows`], produces
    /// [`ExecOutput::Matrix`] of probabilities.
    Softmax,
    /// Row-wise population variance via the sum / sum-of-squares sufficient
    /// statistics. Consumes [`ExecInput::Rows`], produces one value per row.
    Variance,
    /// Fused attention over one `(batch, head)` slice: the FlashAttention
    /// online-softmax loop over KV tiles, with FlashDecoding partials and the
    /// combine merge when the program is Multi-Segment. Consumes
    /// [`ExecInput::Attention`], produces the `[q_len, head_dim]` output.
    Attention {
        /// Query/key dimension (sets the `1/sqrt(qk_dim)` score scale).
        qk_dim: usize,
        /// Value/output head dimension.
        head_dim: usize,
    },
    /// MoE routing: scoring GEMM + streaming softmax statistics + streaming
    /// top-k over the expert axis. Consumes [`ExecInput::Routing`], produces
    /// [`ExecOutput::TopK`].
    Routing {
        /// Experts selected per token.
        topk: usize,
        /// Routing width (columns of the activations, rows of the weights).
        hidden: usize,
    },
    /// FP8 per-token quantization + GEMM: running abs-max with accumulator
    /// rescaling (Eq. 21–22), de-quantisation in the epilogue. Consumes
    /// [`ExecInput::QuantGemm`], produces the `[m, n]` output matrix.
    QuantGemm {
        /// GEMM output width (columns of the weight matrix).
        n: usize,
    },
    /// Moment of inertia about the center of mass via the parallel-axis
    /// sufficient statistics `(Σm, Σm·x, Σm·‖x‖²)`. Consumes
    /// [`ExecInput::Inertia`], produces a single value.
    Inertia {
        /// Spatial dimension of the particle positions.
        dim: usize,
    },
}

impl Semantics {
    /// Short display name of the cascade family.
    pub fn name(&self) -> &'static str {
        match self {
            Semantics::Softmax => "softmax",
            Semantics::Variance => "variance",
            Semantics::Attention { .. } => "attention",
            Semantics::Routing { .. } => "routing",
            Semantics::QuantGemm { .. } => "quant-gemm",
            Semantics::Inertia { .. } => "inertia",
        }
    }

    /// The family's input contract — the one check the VM runs before a
    /// kernel and the serving front door runs at submit: the input kind, the
    /// inner dimensions this semantics fixes or the tensors must share, no
    /// empty row or reduction axis and, for routing, `topk` in
    /// `1..=experts`. Builds no string: a rejection is a typed
    /// [`InputError`].
    ///
    /// Returns `(rows, axis length)`: the independent outputs and the length
    /// of the reduction axis each of them runs over — an inertia input is
    /// one system over its particles.
    ///
    /// # Errors
    ///
    /// The first rule `input` breaks.
    #[inline]
    pub fn check(&self, input: &ExecInput<'_>) -> Result<(usize, usize), InputError> {
        let extents = match (*self, *input) {
            (Semantics::Softmax | Semantics::Variance, ExecInput::Rows(m)) => (m.rows(), m.cols()),
            (Semantics::Attention { qk_dim, head_dim }, ExecInput::Attention { q, k, v }) => {
                InputError::same("q width", qk_dim, q.cols())?;
                InputError::same("k width", qk_dim, k.cols())?;
                InputError::same("v width", head_dim, v.cols())?;
                InputError::same("v rows", k.rows(), v.rows())?;
                (q.rows(), k.rows())
            }
            (Semantics::Routing { topk, hidden }, ExecInput::Routing { x, w }) => {
                InputError::same("x width", hidden, x.cols())?;
                InputError::same("w rows", hidden, w.rows())?;
                if topk == 0 || topk > w.cols() {
                    let experts = w.cols();
                    return Err(InputError::TopK { topk, experts });
                }
                (x.rows(), w.cols())
            }
            (Semantics::QuantGemm { n }, ExecInput::QuantGemm { a, w }) => {
                InputError::same("w rows", a.cols(), w.rows())?;
                InputError::same("w width", n, w.cols())?;
                if n == 0 {
                    return Err(InputError::Empty { dim: "w width" });
                }
                (a.rows(), a.cols())
            }
            (Semantics::Inertia { dim }, ExecInput::Inertia { masses, positions }) => {
                InputError::same("positions rows", masses.len(), positions.rows())?;
                InputError::same("positions width", dim, positions.cols())?;
                (1, masses.len())
            }
            _ => {
                let expected = match self {
                    Semantics::Softmax | Semantics::Variance => "row-matrix",
                    Semantics::Attention { .. } => "attention (q/k/v)",
                    Semantics::Routing { .. } => "routing (x/w)",
                    Semantics::QuantGemm { .. } => "quant-gemm (a/w)",
                    Semantics::Inertia { .. } => "inertia (masses/positions)",
                };
                let got = input.kind();
                return Err(InputError::Kind { expected, got });
            }
        };
        match extents {
            (0, _) => Err(InputError::Empty { dim: "rows" }),
            (_, 0) => Err(InputError::Empty { dim: "axis" }),
            extents => Ok(extents),
        }
    }
}

/// Why input tensors break a family's contract ([`Semantics::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputError {
    /// The input variant feeds another family.
    Kind {
        /// The input kind the semantics require.
        expected: &'static str,
        /// The input kind that was provided.
        got: &'static str,
    },
    /// A tensor extent differs from the one it must equal.
    Extent {
        /// Which dimension (`"k width"`, `"rows"`, …).
        dim: &'static str,
        /// The extent it must have.
        expected: usize,
        /// The extent it has.
        got: usize,
    },
    /// An axis the kernel reduces over or writes along is empty.
    Empty {
        /// Which axis.
        dim: &'static str,
    },
    /// Routing's `topk` is outside `1..=experts`.
    TopK {
        /// Experts to select per token.
        topk: usize,
        /// Experts the weights score.
        experts: usize,
    },
}

impl InputError {
    /// `Ok` when dimension `dim` is `expected`, else [`InputError::Extent`].
    ///
    /// # Errors
    ///
    /// [`InputError::Extent`] when `got != expected`.
    pub fn same(dim: &'static str, expected: usize, got: usize) -> Result<(), InputError> {
        let error = InputError::Extent { dim, expected, got };
        (got == expected).then_some(()).ok_or(error)
    }
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InputError::Kind { expected, got } => write!(f, "requires {expected} input, got {got}"),
            InputError::Extent { dim, expected, got } => {
                write!(f, "{dim} must be {expected}, got {got}")
            }
            InputError::Empty { dim } => write!(f, "{dim} must be non-empty"),
            InputError::TopK { topk, experts } => {
                write!(f, "topk ({topk}) must be in 1..={experts} (expert count)")
            }
        }
    }
}

/// Everything the VM needs to run a [`TileProgram`]: the cascade semantics
/// plus the loop extents of the tuned launch configuration.
///
/// `rf-codegen` copies the extents from the canonical tuning point the
/// kernel was lowered at, so they describe the kernel that was costed. At
/// execution time each is re-clamped to the live input (`block_rows` to the
/// actual row count, `block_axis` to the per-segment axis length, `segments`
/// to the non-empty segments of the axis), which changes nothing on the
/// compiled shape. The row count and axis length themselves are read from
/// the input; the ones a served workload fixes are its own
/// (`rf_codegen::Workload::fixed_extents`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecBinding {
    /// The reduction template the program instantiates.
    pub semantics: Semantics,
    /// Rows per block tile: the canonical `block_rows`, over the original
    /// rows (a cascade's main kernel tiles `rows × segments` effective rows).
    pub block_rows: usize,
    /// Axis elements per main-loop iteration: the canonical `block_axis`,
    /// clamped to one segment's extent of the axis (the KV axis for
    /// attention).
    pub block_axis: usize,
    /// Number of axis segments: the canonical count, every one non-empty
    /// (1 = Single-Segment; > 1 adds the combine step, exactly when the
    /// program carries a combine kernel).
    pub segments: usize,
}

/// Borrowed input tensors for one program execution. Each variant feeds one
/// [`Semantics`] family; [`Semantics::check`] says whether it can.
#[derive(Debug, Clone, Copy)]
pub enum ExecInput<'a> {
    /// Independent rows reduced along the row axis (softmax, variance).
    Rows(&'a Matrix),
    /// One attention slice: `q` is `[q_len, qk_dim]`, `k` is
    /// `[kv_len, qk_dim]`, `v` is `[kv_len, head_dim]`.
    Attention {
        /// Query matrix.
        q: &'a Matrix,
        /// Key matrix.
        k: &'a Matrix,
        /// Value matrix.
        v: &'a Matrix,
    },
    /// MoE routing: token activations `[tokens, hd]`, router weights
    /// `[hd, experts]`.
    Routing {
        /// Token activations.
        x: &'a Matrix,
        /// Routing weight matrix.
        w: &'a Matrix,
    },
    /// FP8 quant + GEMM: activations `[m, k]`, weights `[k, n]`.
    QuantGemm {
        /// Activation matrix.
        a: &'a Matrix,
        /// Weight matrix.
        w: &'a Matrix,
    },
    /// Moment of inertia: per-particle masses and positions `[n, dim]`.
    Inertia {
        /// Particle masses.
        masses: &'a [f64],
        /// Particle positions.
        positions: &'a Matrix,
    },
}

impl ExecInput<'_> {
    /// Short name of the input kind, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecInput::Rows(_) => "row-matrix",
            ExecInput::Attention { .. } => "attention (q/k/v)",
            ExecInput::Routing { .. } => "routing (x/w)",
            ExecInput::QuantGemm { .. } => "quant-gemm (a/w)",
            ExecInput::Inertia { .. } => "inertia (masses/positions)",
        }
    }
}

/// Owned result of one program execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutput {
    /// A dense matrix (softmax probabilities, attention output, GEMM result).
    Matrix(Matrix),
    /// One scalar per row/system (variance, moment of inertia).
    Values(Vec<f64>),
    /// Per-token expert selections (MoE routing).
    TopK(Vec<RoutingDecision>),
}

/// Errors reported by the VM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The program carries no [`ExecBinding`] and therefore cannot be run.
    NotExecutable {
        /// Name of the program.
        program: String,
    },
    /// The input breaks the contract of the program's semantics
    /// ([`Semantics::check`]).
    Input {
        /// Name of the program.
        program: String,
        /// The rule the input breaks.
        error: InputError,
    },
    /// The input's values cannot be reduced (an inertia system whose total
    /// mass is not positive).
    Value {
        /// Name of the program.
        program: String,
        /// What is wrong with the values.
        detail: &'static str,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NotExecutable { program } => {
                write!(f, "program `{program}` carries no execution binding")
            }
            ExecError::Input { program, error } => write!(f, "program `{program}`: {error}"),
            ExecError::Value { program, detail } => write!(f, "program `{program}`: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Executes `program` over `input` on the deterministic CPU VM.
///
/// The program must carry an [`ExecBinding`] (programs emitted by
/// `rf-codegen`'s lowering always do). Loop extents honour the tuned tile
/// sizes and segment counts, clamped to the live input shape the same way the
/// lowering clamps them to the compiled shape.
///
/// # Errors
///
/// [`ExecError::NotExecutable`] for unbound programs, [`ExecError::Input`]
/// when the input breaks the contract of the binding's semantics
/// ([`Semantics::check`]), [`ExecError::Value`] for an inertia system without
/// positive mass.
pub fn execute(program: &TileProgram, input: &ExecInput<'_>) -> Result<ExecOutput, ExecError> {
    run::<()>(available_cores(), program, input).map(|(output, ())| output)
}

/// Runs `program` with the grid on up to `threads` threads and returns the
/// output with the kernel's [`Tally`]. Neither depends on `threads`; the unit
/// tests call this to show it.
fn run<K: Tally>(
    threads: usize,
    program: &TileProgram,
    input: &ExecInput<'_>,
) -> Result<(ExecOutput, K), ExecError> {
    let binding = program
        .binding
        .as_ref()
        .ok_or_else(|| ExecError::NotExecutable {
            program: program.name.clone(),
        })?;
    binding
        .semantics
        .check(input)
        .map_err(|error| ExecError::Input {
            program: program.name.clone(),
            error,
        })?;
    // The contract holds: every kernel below reads shapes it may trust.
    Ok(match (binding.semantics, *input) {
        (Semantics::Softmax, ExecInput::Rows(m)) => exec_softmax(binding, threads, m),
        (Semantics::Variance, ExecInput::Rows(m)) => exec_variance(binding, threads, m),
        (Semantics::Attention { qk_dim, head_dim }, ExecInput::Attention { q, k, v }) => {
            exec_attention(binding, threads, qk_dim, head_dim, q, k, v)
        }
        (Semantics::Routing { topk, .. }, ExecInput::Routing { x, w }) => {
            exec_routing(binding, threads, topk, x, w)
        }
        (Semantics::QuantGemm { n }, ExecInput::QuantGemm { a, w }) => {
            exec_quant_gemm(binding, threads, n, a, w)
        }
        (Semantics::Inertia { dim }, ExecInput::Inertia { masses, positions }) => {
            exec_inertia(binding, dim, masses, positions).ok_or_else(|| ExecError::Value {
                program: program.name.clone(),
                detail: "total mass must be positive",
            })?
        }
        _ => unreachable!("`Semantics::check` admits only the family's input kind"),
    })
}

/// What one exponential and one FP8 rounding cost in multiply-adds of a
/// vectorised inner loop: the weights that put a row's element operations on
/// the one scale [`for_row_ranges`] compares with its threshold. Measured on
/// the benchmark host, both loops at the same tier (`cargo test --release -p
/// rf-workloads timing -- --ignored --nocapture`). That host's speed moves by
/// about 2× with its other tenants, so the ratios are what carry over: a
/// multiply-add of a row at a time (`add_scaled_block`'s loop for one row)
/// costs 0.056–0.14 ns under AVX-512F (what that host runs), 0.076–0.22 ns
/// under AVX2 and 0.11–0.35 ns at the x86-64 baseline; an element of
/// `exp_shifted`, measured in the same runs, 1.1–2.7, 1.7–4.0 and 3.2–7.6 ns
/// — 17–25, 16–32 and 19–31 multiply-adds — and the tile's maximum and sum
/// add about one each (the sum now rides in the same pass); an FP8 rounding
/// (2.7–3.0 ns when last measured, the slow state) about 20 at the widest
/// tier. One number for every tier and both: 16, within a factor of 2 of
/// each, which moves the point a call starts to split by less than the
/// threshold's own margin (a split too early costs 3 %, too late forgoes a
/// third). With any weight from 9 to 33 no benchmark shape changes sides of
/// [`rf_workloads::PARALLEL_MIN_WORK`]; which of them split at 16 is pinned
/// by the test `the_benchmark_shapes_split_where_the_threshold_says` (the
/// nearest to the threshold: `mha 1×8192`'s segments at 4.85 M split,
/// `softmax 1×32768` and `4×8192` at 0.52 M and every `serve_tiny` shape
/// run inline). With every multiply-add of the loops fused (one
/// `mul_add`), one pinned run read 0.138 ns per multiply-add and 1.60 ns per
/// exponential under AVX-512F, 0.195 and 2.75 ns under AVX2 — 12 and 14
/// multiply-adds, inside that range — so the weight stays 16. (The baseline
/// now calls libm for every `mul_add`, about 4.3 and 67 ns: 16 there too.)
///
/// Quant + GEMM rounds a tile in a pass of its own, ahead of
/// [`add_scaled_block`], whose multiply-add over a block of rows costs about
/// half of a row's at a time under AVX-512F (its ignored
/// `timing_scaled_block` test; P·V's and routing's blocks gain less, see
/// there). The weights and the `n` multiply-adds per element stay as they
/// are: `quant 256×1024→256` is 17× the threshold either way, and no other
/// benchmark shape moves enough to change sides.
const EXP_WORK: usize = 16;
const FP8_WORK: usize = 16;

/// What one op kind of the template did in one profiled execution, counted
/// by the kernel's loops where they do it.
///
/// Bytes are the call's tensors at the points a step loads an input slice
/// or stores an output value for the last time — scratch (running
/// statistics, accumulators, attention's cell buffer, an output row still
/// being accumulated) is not traffic. A slice a step reads twice while it
/// sits in L1 counts once. Counts follow the data only where a kernel skips
/// work on it (a fully masked tile loads no values, a zero row nothing after
/// its abs-max), and attention's K tiles count once per block of
/// [`QUERY_LANES`] query rows, by the group that holds the block's first row
/// (a range boundary that cuts a block scores its tiles twice, the second
/// time uncounted), so profiles of one (program, input) pair are identical on
/// every run and every thread count: the unsplit run's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Op kind within the store → correct → reduce template.
    pub op: &'static str,
    /// Times the op ran (e.g. once per main-loop tile per row).
    pub invocations: u64,
    /// Bytes of input tensors the op loaded.
    pub bytes_read: u64,
    /// Bytes of the output tensor the op stored.
    pub bytes_written: u64,
}

/// The op-level profile of one [`execute_profiled`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecProfile {
    /// Per-op counters of the ops that ran, in template order.
    pub ops: Vec<OpStats>,
    /// Measured wall time of the whole execution, in nanoseconds.
    pub wall_ns: u64,
}

/// Executes `program` over `input` like [`execute`] and additionally returns
/// the op-level profile: what each op of the template counted as it ran,
/// and the call's measured wall time.
///
/// The numeric output is bit-identical to [`execute`]'s: the same kernels
/// run, instantiated with a counting tally instead of `()`.
///
/// # Errors
///
/// Exactly the errors of [`execute`].
pub fn execute_profiled(
    program: &TileProgram,
    input: &ExecInput<'_>,
) -> Result<(ExecOutput, ExecProfile), ExecError> {
    let start = std::time::Instant::now();
    let (output, Counts(counts)) = run(available_cores(), program, input)?;
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let ops = (STEP_NAMES.into_iter().zip(counts))
        .filter(|(_, [runs, ..])| *runs > 0)
        .map(|(op, [invocations, bytes_read, bytes_written])| OpStats {
            op,
            invocations,
            bytes_read,
            bytes_written,
        })
        .collect();
    Ok((output, ExecProfile { ops, wall_ns }))
}

/// The steps of the template a profile counts, in template order.
#[derive(Clone, Copy)]
enum Step {
    /// The GEMM that produces a tile's scores (attention, routing).
    ScoreGemm,
    /// Keeping the running state a tile is about to move.
    Store,
    /// Moving the dependent accumulators to the new state.
    Correct,
    /// Folding a tile — a whole segment, for plain sums — into the state.
    Reduce,
    /// Merging one segment's partial into its row's; a Single-Segment row
    /// has nothing to merge.
    Combine,
    /// Finishing a row and storing it.
    Epilogue,
}

/// [`OpStats::op`] of each [`Step`].
const STEP_NAMES: [&str; 6] = [
    "score-gemm",
    "store",
    "correct",
    "reduce",
    "combine",
    "epilogue",
];

/// What a kernel says about its own loops as they run. [`execute`] passes
/// `()`, which ignores it and compiles to the bare loops; [`execute_profiled`]
/// passes [`Counts`]. Each range of a split grid keeps its own tally and the
/// ranges' tallies add up, so no split changes a count.
trait Tally: Default + Send {
    /// `runs` more runs of `step`, which loaded `read` and stored `written`
    /// bytes of the call's tensors.
    fn add(&mut self, step: Step, runs: u64, read: u64, written: u64);

    /// This tally plus another range's.
    fn merge(self, other: Self) -> Self;

    /// One run of each of `steps`, moving no tensor bytes.
    fn ran(&mut self, steps: &[Step]) {
        for &step in steps {
            self.add(step, 1, 0, 0);
        }
    }

    /// The total of the tallies [`for_row_ranges`] returns.
    fn sum(ranges: Vec<Self>) -> Self {
        ranges.into_iter().fold(Self::default(), Self::merge)
    }
}

impl Tally for () {
    fn add(&mut self, _: Step, _: u64, _: u64, _: u64) {}

    fn merge(self, _: ()) {}
}

/// `[runs, bytes read, bytes written]` per [`Step`].
#[derive(Debug, Default, PartialEq)]
struct Counts([[u64; 3]; 6]);

impl Tally for Counts {
    fn add(&mut self, step: Step, runs: u64, read: u64, written: u64) {
        for (count, more) in self.0[step as usize].iter_mut().zip([runs, read, written]) {
            *count += more;
        }
    }

    fn merge(mut self, other: Counts) -> Counts {
        let more = other.0.into_iter().flatten();
        for (count, more) in self.0.iter_mut().flatten().zip(more) {
            *count += more;
        }
        self
    }
}

/// Bytes of `elements` f64 values.
fn f64_bytes(elements: usize) -> u64 {
    (elements * std::mem::size_of::<f64>()) as u64
}

/// The contiguous pieces of `[start, end)` that are `step` elements long (the
/// last one shorter): the main-loop tiles of a segment.
fn chunks(start: usize, end: usize, step: usize) -> impl Pieces {
    let step = step.max(1);
    (start..end)
        .step_by(step)
        .map(move |piece| (piece, (piece + step).min(end)))
}

/// Contiguous `(start, end)` pieces of an axis, counted in advance.
trait Pieces: ExactSizeIterator<Item = (usize, usize)> + Clone {}

impl<I: ExactSizeIterator<Item = (usize, usize)> + Clone> Pieces for I {}

/// The contiguous `[start, end)` axis ranges of the Multi-Segment split:
/// `ceil(axis_len / segments)` elements per segment, empty trailing segments
/// dropped (the lowering launches no blocks for them either).
fn segment_ranges(axis_len: usize, segments: usize) -> impl Pieces {
    let segments = segments.clamp(1, axis_len.max(1));
    chunks(0, axis_len, axis_len.div_ceil(segments))
}

/// `exp(shift)`, the factor that moves an accumulator to a maximum `-shift`
/// above its own — skipping the routine when the maximum did not move, the
/// common case once a row's largest tile has been seen. `exp(0)` is exactly
/// 1, so the shortcut cannot show in a result (`inf − inf` is NaN, not 0, and
/// takes the routine).
fn rescale_factor(shift: f64) -> f64 {
    if shift == 0.0 {
        1.0
    } else {
        exp(shift)
    }
}

/// Running online-softmax statistics: the fused max / rescaled-sum pair.
#[derive(Debug, Clone, Copy)]
struct OnlineStats {
    max: f64,
    sum: f64,
}

impl OnlineStats {
    fn identity() -> Self {
        OnlineStats {
            max: BinaryOp::Max.identity(),
            sum: BinaryOp::Add.identity(),
        }
    }

    /// Store → correct: raises the running maximum to cover `tile_max`,
    /// rescales the running sum to it and returns the factor that brings any
    /// other accumulator kept under the previous maximum along. While nothing
    /// finite has been seen the factor is 0, not `exp(-inf − -inf)`; the
    /// caller replaces the reduce step by [`OnlineStats::skip_masked`] while
    /// the maximum is still `-inf`, so a fully masked prefix contributes
    /// nothing.
    fn advance(&mut self, tile_max: f64) -> f64 {
        let new_max = BinaryOp::Max.apply(self.max, tile_max);
        let correction = if self.max == f64::NEG_INFINITY {
            0.0
        } else {
            rescale_factor(self.max - new_max)
        };
        self.sum *= correction;
        self.max = new_max;
        correction
    }

    /// The reduce step of a tile that left the maximum at `-inf`: it holds
    /// nothing but `-inf` and NaN. The masked entries add nothing; a NaN
    /// makes the sum NaN, as it does in the unfused form.
    fn skip_masked(&mut self, tile: &[f64]) {
        if tile.iter().any(|x| x.is_nan()) {
            self.sum = f64::NAN;
        }
    }

    /// The level-`k` fused combine of two disjoint segments (Eq. 31).
    fn merge(self, other: OnlineStats) -> OnlineStats {
        let max = BinaryOp::Max.apply(self.max, other.max);
        let rescale = |s: OnlineStats| {
            if s.sum == 0.0 {
                0.0
            } else {
                s.sum * rescale_factor(s.max - max)
            }
        };
        OnlineStats {
            max,
            sum: rescale(self) + rescale(other),
        }
    }
}

fn exec_softmax<K: Tally>(binding: &ExecBinding, threads: usize, m: &Matrix) -> (ExecOutput, K) {
    let (rows, len) = (m.rows(), m.cols());
    let segments = segment_ranges(len, binding.segments);
    let tiles = |(start, end)| chunks(start, end, binding.block_axis);
    let n_tiles = segments.clone().flat_map(tiles).count();
    let mut out = vec![0.0f64; rows * len];
    let body = |range: Range<usize>, out: &mut [f64]| {
        let mut tally = K::default();
        // The running maximum each tile's exponentials were stored under,
        // then the factor that moves them to the row's.
        let mut stored_under = vec![0.0f64; n_tiles];
        for (r, out_row) in range.zip(out.chunks_exact_mut(len)) {
            let row = m.row(r);
            let mut global = OnlineStats::identity();
            let mut slots = stored_under.iter_mut();
            for segment in segments.clone() {
                let mut stats = OnlineStats::identity();
                for ((tile_start, tile_end), under) in tiles(segment).zip(&mut slots) {
                    let tile = &row[tile_start..tile_end];
                    tally.add(Step::Reduce, 1, f64_bytes(tile.len()), 0);
                    // Store + correct: the running sum moves to the new maximum.
                    tally.ran(&[Step::Store, Step::Correct]);
                    stats.advance(tile_max(tile));
                    *under = stats.max;
                    if stats.max == f64::NEG_INFINITY {
                        // Every element so far is masked: the tile adds nothing
                        // and its outputs stay the zeros `out` was created with.
                        stats.skip_masked(tile);
                        continue;
                    }
                    // Reduce: fold the tile under the updated maximum, keeping
                    // each exponential as the still-unnormalised output.
                    let stored = &mut out_row[tile_start..tile_end];
                    stats.sum += exp_shifted(stored, tile, stats.max);
                }
                // Combine kernel: Eq. 31 over the segment statistics.
                tally.add(Step::Combine, u64::from(segments.len() > 1), 0, 0);
                global = global.merge(stats);
            }
            // Epilogue: the correct step applied to the stored output — one
            // exponential per tile moves it from the maximum it was stored
            // under to the global one, the row's tiles in one slice call —
            // fused with the normalisation.
            tally.add(Step::Epilogue, 1, 0, f64_bytes(len));
            exp_shifted_in_place(&mut stored_under, global.max);
            let all_tiles = segments.clone().flat_map(tiles);
            for ((tile_start, tile_end), &moved) in all_tiles.zip(&stored_under) {
                let factor = moved / global.sum;
                for slot in &mut out_row[tile_start..tile_end] {
                    *slot *= factor;
                }
            }
        }
        tally
    };
    let ranges = for_row_ranges(threads, rows, 1, len * EXP_WORK, &mut out, len, body);
    let out = Matrix::from_vec(rows, len, out);
    (ExecOutput::Matrix(out), K::sum(ranges))
}

fn exec_variance<K: Tally>(binding: &ExecBinding, threads: usize, m: &Matrix) -> (ExecOutput, K) {
    let (rows, len) = (m.rows(), m.cols());
    let segments = segment_ranges(len, binding.segments);
    let combines = u64::from(segments.len() > 1);
    let mut out = vec![0.0f64; rows];
    let ranges = for_row_ranges(threads, rows, 1, len, &mut out, 1, |range, out| {
        let mut tally = K::default();
        for (slot, r) in out.iter_mut().zip(range) {
            let row = m.row(r);
            // Both reductions are group-like (plain sums): no correct step, so
            // the tile boundaries inside a segment do not show and one loop
            // runs straight through it; the partials add in segment order.
            let (mut sum, mut sum_sq) = (0.0f64, 0.0f64);
            for (start, end) in segments.clone() {
                tally.add(Step::Reduce, 1, f64_bytes(end - start), 0);
                let (partial, partial_sq) = sum_and_squares(&row[start..end]);
                tally.add(Step::Combine, combines, 0, 0);
                sum += partial;
                sum_sq += partial_sq;
            }
            tally.add(Step::Epilogue, 1, 0, f64_bytes(1));
            let n = len as f64;
            let mean = sum / n;
            *slot = clamp_negative(sum_sq / n - mean * mean);
        }
        tally
    });
    (ExecOutput::Values(out), K::sum(ranges))
}

/// A difference of two sufficient statistics, raised to 0 where rounding
/// pushed it below (a finite negative value). A NaN or an infinity — from an
/// input that was not finite, or from a statistic that overflowed — is
/// returned as it is, never as 0 (`f64::max` returns the 0 for a NaN): the
/// result is NaN where the unfused form's is, and never a finite number
/// where a statistic was not.
fn clamp_negative(v: f64) -> f64 {
    if v < 0.0 && v.is_finite() {
        0.0
    } else {
        v
    }
}

fn exec_attention<K: Tally>(
    binding: &ExecBinding,
    threads: usize,
    qk_dim: usize,
    head_dim: usize,
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
) -> (ExecOutput, K) {
    let (q_rows, kv_len) = (q.rows(), k.rows());
    let scale = 1.0 / (qk_dim.max(1) as f64).sqrt();
    let segments = segment_ranges(kv_len, binding.segments);
    let n_segments = segments.len();
    // A row's combine runs once per segment, under Multi-Segment only.
    let combines = if n_segments > 1 { n_segments as u64 } else { 0 };
    let (_, seg_len) = segments.clone().next().expect("kv_len > 0");
    let tile = binding.block_axis.clamp(1, seg_len);
    let work_per_row = kv_len * (qk_dim + head_dim + EXP_WORK);
    // A `(row, segment)` grid cell holds the segment's FlashDecoding partial,
    // the max-shifted unnormalised output (`head_dim`) and its statistics
    // (max, sum), and a tile of the row's scores. A group's cells of one
    // segment lie as its accumulators back to back (the P·V block's rows),
    // then its statistics, then its scores, one piece per query row.
    let cell_len = head_dim + 2 + tile;
    // Multi-Segment's low-concurrency case: rows too few to fill the cores
    // leave the grid to each group's segments. Never both, so no spawn nests.
    let by_seg = q_rows < threads.min(n_segments);
    let (row_par, seg_par) = if by_seg { (1, threads) } else { (threads, 1) };
    let mut out = vec![0.0f64; q_rows * head_dim];
    let body = |range: Range<usize>, out: &mut [f64]| {
        let mut tally = K::default();
        let mut cells = vec![0.0f64; n_segments * range.len().min(QUERY_LANES) * cell_len];
        let mut factors = vec![0.0f64; n_segments];
        let mut group = QueryGroup::default();
        for rows in query_groups(range.clone()) {
            let g = rows.len();
            let out_rows = &mut out[(rows.start - range.start) * head_dim..][..g * head_dim];
            // A query row loads once per call, a K tile once per block of
            // QUERY_LANES rows (see `OpStats`).
            tally.add(Step::ScoreGemm, 0, f64_bytes(g * qk_dim), 0);
            let counted = u64::from(rows.start % QUERY_LANES == 0);
            group.load(qk_dim, rows.clone().map(|r| q.row(r)));
            let run = |cell_range: Range<usize>, cells: &mut [f64]| {
                let mut tally = K::default();
                let segments = segments.clone().skip(cell_range.start);
                for ((start, end), cells) in segments.zip(cells.chunks_exact_mut(g * cell_len)) {
                    #[cfg(test)]
                    tests::probe_cells(rows.clone(), q, start);
                    let (accs, cells) = cells.split_at_mut(g * head_dim);
                    let (partials, scores) = cells.split_at_mut(g * 2);
                    let mut stats = [OnlineStats::identity(); QUERY_LANES];
                    accs.fill(0.0);
                    for (tile_start, tile_end) in chunks(start, end, binding.block_axis) {
                        // Reduce (reduction 1): the scoring GEMM tile Q·Kᵀ, the
                        // group's rows against the tile's keys.
                        let n = tile_end - tile_start;
                        let scores = &mut scores[..g * n];
                        tally.add(Step::ScoreGemm, counted, counted * f64_bytes(n * qk_dim), 0);
                        score_group(&group, (tile_start..tile_end).map(|j| k.row(j)), scores);
                        scores.iter_mut().for_each(|s| *s *= scale);
                        // Then each row's statistics and exponentials, in the
                        // order a lone row runs them.
                        let mut masked = [false; QUERY_LANES];
                        for (lane, scores) in scores.chunks_exact_mut(n).enumerate() {
                            let stats = &mut stats[lane];
                            let acc = &mut accs[lane * head_dim..][..head_dim];
                            // Store: snapshot the previous maximum; correct: rescale the
                            // running sum and the output accumulator for the moved maximum.
                            tally.ran(&[Step::Store, Step::Correct]);
                            let correction = stats.advance(tile_max(scores));
                            if stats.max == f64::NEG_INFINITY {
                                stats.skip_masked(scores);
                                masked[lane] = true;
                                continue;
                            }
                            if correction != 1.0 {
                                acc.iter_mut().for_each(|slot| *slot *= correction);
                            }
                            // Reduce (reductions 2–4): the tile's probabilities
                            // under the updated maximum, and their sum.
                            tally.add(Step::Reduce, 1, f64_bytes(n * head_dim), 0);
                            stats.sum += exp_shifted_in_place(scores, stats.max);
                        }
                        // ... and their value contributions, the group's rows
                        // in one block against the tile's values. A row still
                        // at `-inf` had an all-zero accumulator and rides
                        // along on its raw scores: it is zeroed again.
                        let values = &v.as_slice()[tile_start * head_dim..tile_end * head_dim];
                        add_scaled_block(accs, head_dim, scores, values, head_dim, Terms::All);
                        for lane in (0..g).filter(|&lane| masked[lane]) {
                            accs[lane * head_dim..][..head_dim].fill(0.0);
                        }
                    }
                    for (partial, stats) in partials.chunks_exact_mut(2).zip(&stats) {
                        partial.copy_from_slice(&[stats.max, stats.sum]);
                    }
                }
                tally
            };
            // A cell's work. The group's Q·Kᵀ costs one vector of QUERY_LANES
            // rows per key and column whatever its size (a lone row's
            // `dot_rows` half to three quarters of it: `score_group`'s docs);
            // P·V and the exponentials cost per row.
            let work = kv_len * (qk_dim * QUERY_LANES + g * (head_dim + EXP_WORK)) / n_segments;
            let cells = &mut cells[..n_segments * g * cell_len];
            let split = for_row_ranges(seg_par, n_segments, 1, work, cells, g * cell_len, run);
            tally = tally.merge(K::sum(split));
            // Combine kernel, per row on this thread once the cells are joined, in
            // segment order whatever the split: merge the statistics (Eq. 31),
            // rescale the partials to the global maximum — one factor per
            // segment, `exp(max − global max)` in one slice call — and add them
            // as one block row (the partials `g · cell_len` apart), then
            // normalise (one segment: the plain FlashAttention epilogue).
            for (lane, out_row) in out_rows.chunks_exact_mut(head_dim.max(1)).enumerate() {
                let partials = cells.chunks_exact(g * cell_len).map(|segment| {
                    let stats = &segment[g * head_dim + 2 * lane..][..2];
                    let (max, sum) = (stats[0], stats[1]);
                    OnlineStats { max, sum }
                });
                let mut global = OnlineStats::identity();
                for (factor, partial) in factors.iter_mut().zip(partials) {
                    global = global.merge(partial);
                    *factor = partial.max;
                }
                exp_shifted_in_place(&mut factors, global.max);
                tally.add(Step::Combine, combines, 0, 0);
                let accs = &cells[lane * head_dim..][..(n_segments - 1) * g * cell_len + head_dim];
                add_scaled_block(out_row, head_dim, &factors, accs, g * cell_len, Terms::All);
                tally.add(Step::Epilogue, 1, 0, f64_bytes(head_dim));
                out_row.iter_mut().for_each(|slot| *slot /= global.sum);
            }
        }
        tally
    };
    let ranges = for_row_ranges(row_par, q_rows, 1, work_per_row, &mut out, head_dim, body);
    let out = Matrix::from_vec(q_rows, head_dim, out);
    (ExecOutput::Matrix(out), K::sum(ranges))
}

/// One streaming top-k candidate.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    index: usize,
    score: f64,
}

/// Inserts into a bounded candidate list sorted by [`score_order`] (the
/// oracle's, total over NaN) — for the streaming pass and the segment merge,
/// so the selected expert *set* is independent of the tiling and segments.
fn insert_candidate(best: &mut Vec<Candidate>, candidate: Candidate, topk: usize) {
    let key = |c: &Candidate| (c.index, c.score);
    let pos = best.partition_point(|b| score_order(key(b), key(&candidate)).is_lt());
    best.insert(pos, candidate);
    if best.len() > topk {
        best.pop();
    }
}

/// Tokens whose scores [`exec_routing`] computes in one block against each
/// tile of W.
const TOKEN_BLOCK: usize = 8;

fn exec_routing<K: Tally>(
    binding: &ExecBinding,
    threads: usize,
    topk: usize,
    x: &Matrix,
    w: &Matrix,
) -> (ExecOutput, K) {
    let (tokens, hidden, experts) = (x.rows(), x.cols(), w.cols());
    let segments = segment_ranges(experts, binding.segments);
    let work_per_row = experts * (hidden + EXP_WORK);
    let undecided = RoutingDecision {
        experts: Vec::new(),
        probs: Vec::new(),
    };
    let mut decisions = vec![undecided; tokens];
    let tile = binding.block_axis.clamp(1, experts);
    let body = |range: Range<usize>, out: &mut [RoutingDecision]| {
        let mut tally = K::default();
        // Per token of a block: a tile of scores, the segment's statistics
        // and candidates, and the row's merged ones.
        let mut scores = vec![0.0f64; TOKEN_BLOCK * tile];
        let mut best = vec![Vec::new(); TOKEN_BLOCK];
        let mut merged_best = best.clone();
        let mut stats = [OnlineStats::identity(); TOKEN_BLOCK];
        let mut merged_stats = stats;
        let blocks = chunks(range.start, range.end, TOKEN_BLOCK);
        for ((t0, t1), out) in blocks.zip(out.chunks_mut(TOKEN_BLOCK)) {
            let (x_rows, t) = (&x.as_slice()[t0 * hidden..t1 * hidden], t1 - t0);
            merged_stats.fill(OnlineStats::identity());
            merged_best.iter_mut().for_each(Vec::clear);
            for (start, end) in segments.clone() {
                stats.fill(OnlineStats::identity());
                best.iter_mut().for_each(Vec::clear);
                for (tile_start, tile_end) in chunks(start, end, binding.block_axis) {
                    // Reduce: the scoring GEMM tile, the cascade's innermost
                    // reduction — the block's tokens against the tile's
                    // columns of W, read in place.
                    let n = tile_end - tile_start;
                    let scores = &mut scores[..t * n];
                    scores.fill(0.0);
                    let loaded = f64_bytes(t * hidden * (1 + n));
                    tally.add(Step::ScoreGemm, t as u64, loaded, 0);
                    // The tile's columns of W, rows `experts` apart (none
                    // when `hidden` is 0).
                    let w_end = hidden.saturating_sub(1) * experts + tile_end;
                    let w_tile = w.as_slice().get(tile_start..w_end).unwrap_or_default();
                    add_scaled_block(scores, n, x_rows, w_tile, experts, Terms::All);
                    let token_state = scores.chunks_exact_mut(n).zip(&mut stats).zip(&mut best);
                    for ((scores, stats), best) in token_state {
                        // Streaming top-k over the raw scores (softmax is
                        // order-preserving, so selection and normalisation
                        // commute).
                        for (index, &score) in (tile_start..tile_end).zip(scores.iter()) {
                            insert_candidate(best, Candidate { index, score }, topk);
                        }
                        // Store + correct + reduce on the softmax statistics, the
                        // scores turning into their exponentials where they are.
                        tally.ran(&[Step::Store, Step::Correct, Step::Reduce]);
                        stats.advance(tile_max(scores));
                        if stats.max == f64::NEG_INFINITY {
                            stats.skip_masked(scores);
                            continue;
                        }
                        stats.sum += exp_shifted_in_place(scores, stats.max);
                    }
                }
                // Combine kernel: merge statistics with Eq. 31 and the
                // candidate lists under the shared comparator.
                let merged = merged_stats.iter_mut().zip(&mut merged_best);
                for ((merged_stats, merged_best), (stats, best)) in
                    merged.zip(stats.iter().zip(&best)).take(t)
                {
                    tally.add(Step::Combine, u64::from(segments.len() > 1), 0, 0);
                    *merged_stats = merged_stats.merge(*stats);
                    for &candidate in best {
                        insert_candidate(merged_best, candidate, topk);
                    }
                }
            }
            // Epilogue: only the selected scores are normalised; an expert
            // index and a probability stored per selection.
            let token_state = out.iter_mut().zip(&merged_best).zip(&merged_stats);
            for ((decision, merged_best), merged_stats) in token_state {
                tally.add(Step::Epilogue, 1, 0, f64_bytes(2 * merged_best.len()));
                let mut probs: Vec<f64> = merged_best.iter().map(|c| c.score).collect();
                exp_shifted_in_place(&mut probs, merged_stats.max);
                for prob in &mut probs {
                    *prob /= merged_stats.sum;
                }
                *decision = RoutingDecision {
                    experts: merged_best.iter().map(|c| c.index).collect(),
                    probs,
                };
            }
        }
        tally
    };
    let ranges = for_row_ranges(threads, tokens, 1, work_per_row, &mut decisions, 1, body);
    (ExecOutput::TopK(decisions), K::sum(ranges))
}

fn exec_quant_gemm<K: Tally>(
    binding: &ExecBinding,
    threads: usize,
    n: usize,
    a: &Matrix,
    w: &Matrix,
) -> (ExecOutput, K) {
    let (m, k_len) = (a.rows(), a.cols());
    let block_rows = binding.block_rows.clamp(1, m);
    let segments = segment_ranges(k_len, binding.segments);
    let work_per_row = k_len * (n + FP8_WORK);
    let mut out = vec![0.0f64; m * n];
    // Ranges start on multiples of `block_rows`: the same row blocks run,
    // and each weight tile is still fetched once per block.
    let body = |range: Range<usize>, out: &mut [f64]| {
        let mut tally = K::default();
        // Per row of a block: the accumulator, the abs-max it is scaled by
        // and the current tile's quantised activations.
        let mut accs = vec![0.0f64; block_rows * n];
        let mut amaxes = vec![0.0f64; block_rows];
        let mut quantised = vec![0.0f64; block_rows * binding.block_axis.clamp(1, k_len)];
        let blocks = chunks(range.start, range.end, block_rows);
        for ((r0, r1), out_block) in blocks.zip(out.chunks_mut(block_rows * n)) {
            let rows = r1 - r0;
            let accs = &mut accs[..rows * n];
            for (start, end) in segments.clone() {
                accs.fill(0.0);
                amaxes.fill(0.0);
                for (tile_start, tile_end) in chunks(start, end, binding.block_axis) {
                    // The weight tile is visited once per row block: it
                    // stays cache-resident while every row of the block
                    // consumes it.
                    let tile_len = tile_end - tile_start;
                    tally.add(Step::Reduce, 0, f64_bytes(tile_len * n), 0);
                    let state = (r0..r1).zip(accs.chunks_exact_mut(n)).zip(&mut amaxes);
                    for (((row, acc), amax), q) in state.zip(quantised.chunks_exact_mut(tile_len)) {
                        // Reduce (reduction 1): the tile's abs-max.
                        let tile = &a.row(row)[tile_start..tile_end];
                        tally.add(Step::Reduce, 1, f64_bytes(tile.len()), 0);
                        let new_amax = tile.iter().fold(*amax, |m, v| m.max(v.abs()));
                        if new_amax == 0.0 {
                            q.fill(0.0);
                            continue;
                        }
                        // Store + correct: rescale the accumulator from the
                        // provisional scale to the updated one (Eq. 21).
                        tally.ran(&[Step::Store, Step::Correct]);
                        if *amax > 0.0 && new_amax > *amax {
                            let correction = *amax / new_amax;
                            acc.iter_mut().for_each(|slot| *slot *= correction);
                        }
                        // Reduce (reduction 2), first half: quantise the tile
                        // under the updated scale.
                        let scale = new_amax / FP8_MAX;
                        for (qv, &x) in q.iter_mut().zip(tile) {
                            *qv = fp8_round(x / scale);
                        }
                        *amax = new_amax;
                    }
                    // Second half: the block's GEMM contribution (Eq. 22),
                    // a zero quantised value adding nothing.
                    let w_tile = &w.as_slice()[tile_start * n..tile_end * n];
                    let coeffs = &quantised[..rows * tile_len];
                    add_scaled_block(accs, n, coeffs, w_tile, n, Terms::NonZero);
                }
                // Combine kernel + epilogue: de-quantise each partial under
                // its own segment scale and sum — algebraically the
                // rescale-to-global merge of Eq. 21 followed by the final
                // de-quantisation.
                let partials = accs.chunks_exact(n).zip(&amaxes);
                for (out_row, (acc, &amax)) in out_block.chunks_exact_mut(n).zip(partials) {
                    tally.add(Step::Combine, u64::from(segments.len() > 1), 0, 0);
                    if amax == 0.0 {
                        continue;
                    }
                    let scale = amax / FP8_MAX;
                    for (slot, &partial) in out_row.iter_mut().zip(acc) {
                        *slot += partial * scale;
                    }
                }
            }
            // Epilogue: the block's rows are final once the last segment is in.
            tally.add(Step::Epilogue, rows as u64, 0, f64_bytes(rows * n));
        }
        tally
    };
    let ranges = for_row_ranges(threads, m, block_rows, work_per_row, &mut out, n, body);
    let out = Matrix::from_vec(m, n, out);
    (ExecOutput::Matrix(out), K::sum(ranges))
}

/// `None` when the system's total mass is not positive.
fn exec_inertia<K: Tally>(
    binding: &ExecBinding,
    dim: usize,
    masses: &[f64],
    positions: &Matrix,
) -> Option<(ExecOutput, K)> {
    let particles = masses.len();
    // One independent system per request: the cascade's axis is the particle
    // index; all three sufficient statistics are group-like sums, so tile
    // boundaries inside a segment do not show in the result.
    let mut tally = K::default();
    let segments = segment_ranges(particles, binding.segments);
    let mut total_mass = 0.0f64;
    let mut scratch = vec![0.0f64; 2 * dim];
    let (weighted, seg_weighted) = scratch.split_at_mut(dim);
    let mut weighted_sq = 0.0f64;
    for (start, end) in segments.clone() {
        tally.add(Step::Reduce, 1, f64_bytes((end - start) * (1 + dim)), 0);
        let mut seg_mass = 0.0f64;
        seg_weighted.fill(0.0);
        let mut seg_weighted_sq = 0.0f64;
        for (i, &mass) in (start..end).zip(&masses[start..end]) {
            seg_mass += mass;
            let mut norm_sq = 0.0;
            for (slot, &pos) in seg_weighted.iter_mut().zip(positions.row(i)) {
                *slot += mass * pos;
                norm_sq += pos * pos;
            }
            seg_weighted_sq += mass * norm_sq;
        }
        tally.add(Step::Combine, u64::from(segments.len() > 1), 0, 0);
        total_mass += seg_mass;
        for (slot, &partial) in weighted.iter_mut().zip(seg_weighted.iter()) {
            *slot += partial;
        }
        weighted_sq += seg_weighted_sq;
    }
    if total_mass <= 0.0 {
        return None;
    }
    let center_norm_sq: f64 = weighted.iter().map(|w| w * w).sum::<f64>() / total_mass;
    tally.add(Step::Epilogue, 1, 0, f64_bytes(1));
    let inertia = clamp_negative(weighted_sq - center_norm_sq);
    Some((ExecOutput::Values(vec![inertia]), tally))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::TileProgram;
    use rf_workloads::{random_matrix, random_vec};
    use std::sync::Mutex;
    use std::thread::ThreadId;

    fn bound_program(semantics: Semantics, point: (usize, usize, usize)) -> TileProgram {
        let (block_rows, block_axis, segments) = point;
        let mut p = TileProgram::new("vm-test", 1, 128);
        p.binding = Some(ExecBinding {
            semantics,
            block_rows,
            block_axis,
            segments,
        });
        p
    }

    fn naive_softmax_row(row: &[f64]) -> Vec<f64> {
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = row.iter().map(|&v| exp(v - max)).sum();
        row.iter().map(|&v| exp(v - max) / sum).collect()
    }

    #[test]
    fn profiled_execution_is_bit_identical_to_plain_execution() {
        let m = random_matrix(4, 64, 10, -3.0, 3.0);
        let q = random_matrix(4, 16, 1, -1.0, 1.0);
        let k = random_matrix(32, 16, 2, -1.0, 1.0);
        let v = random_matrix(32, 8, 3, -1.0, 1.0);
        let x = random_matrix(6, 16, 4, -1.0, 1.0);
        let w = random_matrix(16, 8, 5, -1.0, 1.0);
        let a = random_matrix(4, 32, 6, -1.0, 1.0);
        let wq = random_matrix(32, 8, 7, -1.0, 1.0);
        let masses = random_vec(24, 8, 0.1, 2.0);
        let positions = random_matrix(24, 3, 9, -1.0, 1.0);
        let cases: Vec<(TileProgram, ExecInput<'_>)> = vec![
            (
                bound_program(Semantics::Softmax, (2, 16, 2)),
                ExecInput::Rows(&m),
            ),
            (
                bound_program(Semantics::Variance, (2, 16, 2)),
                ExecInput::Rows(&m),
            ),
            (
                bound_program(
                    Semantics::Attention {
                        qk_dim: 16,
                        head_dim: 8,
                    },
                    (2, 8, 2),
                ),
                ExecInput::Attention {
                    q: &q,
                    k: &k,
                    v: &v,
                },
            ),
            (
                bound_program(
                    Semantics::Routing {
                        topk: 2,
                        hidden: 16,
                    },
                    (2, 4, 2),
                ),
                ExecInput::Routing { x: &x, w: &w },
            ),
            (
                bound_program(Semantics::QuantGemm { n: 8 }, (2, 8, 2)),
                ExecInput::QuantGemm { a: &a, w: &wq },
            ),
            (
                bound_program(Semantics::Inertia { dim: 3 }, (1, 8, 2)),
                ExecInput::Inertia {
                    masses: &masses,
                    positions: &positions,
                },
            ),
        ];
        for (program, input) in &cases {
            let plain = execute(program, input).expect("plain execution");
            let (profiled, profile) = execute_profiled(program, input).expect("profiled execution");
            // Bit-identical: the same kernels run, only the tally differs.
            assert_eq!(plain, profiled);
            assert!(!profile.ops.is_empty());
        }
    }

    /// [`execute`] on up to `threads` threads.
    fn execute_with_threads(
        threads: usize,
        program: &TileProgram,
        input: &ExecInput<'_>,
    ) -> Result<ExecOutput, ExecError> {
        run::<()>(threads, program, input).map(|(output, ())| output)
    }

    /// The op counts of one profiled call.
    fn profile_of(program: &TileProgram, input: &ExecInput<'_>) -> Vec<OpStats> {
        execute_profiled(program, input).unwrap().1.ops
    }

    /// The counts of op `name` in `ops`.
    fn op(ops: &[OpStats], name: &str) -> OpStats {
        let found = ops.iter().find(|o| o.op == name);
        *found.unwrap_or_else(|| panic!("missing op {name} in {ops:?}"))
    }

    #[test]
    fn profiled_counts_mirror_the_loop_structure() {
        let m = random_matrix(4, 64, 10, -3.0, 3.0);
        let program = bound_program(Semantics::Softmax, (2, 16, 2));
        let ops = profile_of(&program, &ExecInput::Rows(&m));
        // 2 segments × 2 tiles each × 4 rows = 16 main-loop reductions.
        assert_eq!(op(&ops, "reduce").invocations, 16);
        assert_eq!(op(&ops, "reduce").bytes_read, 4 * 64 * 8);
        // Multi-Segment: the combine op is present.
        assert_eq!(op(&ops, "combine").invocations, 4 * 2);
        assert_eq!(op(&ops, "epilogue").bytes_written, 4 * 64 * 8);
        // Single-Segment drops the combine op entirely.
        let single = bound_program(Semantics::Softmax, (2, 16, 1));
        let ops = profile_of(&single, &ExecInput::Rows(&m));
        assert!(ops.iter().all(|o| o.op != "combine"));
    }

    #[test]
    fn plain_sums_reduce_once_per_segment() {
        // Tiles of 8 or 16 do not show in a plain sum's loop, so they do not
        // show in its counts either: one reduce per (row, segment).
        let m = random_matrix(4, 64, 10, -3.0, 3.0);
        let program = bound_program(Semantics::Variance, (2, 16, 2));
        let ops = profile_of(&program, &ExecInput::Rows(&m));
        let names: Vec<_> = ops.iter().map(|o| o.op).collect();
        assert_eq!(names, ["reduce", "combine", "epilogue"]);
        assert_eq!(op(&ops, "reduce").invocations, 4 * 2);
        assert_eq!(op(&ops, "reduce").bytes_read, 4 * 64 * 8);
        assert_eq!(op(&ops, "epilogue").bytes_written, 4 * 8);
        let masses = random_vec(24, 8, 0.1, 2.0);
        let positions = random_matrix(24, 3, 9, -1.0, 1.0);
        let input = ExecInput::Inertia {
            masses: &masses,
            positions: &positions,
        };
        let program = bound_program(Semantics::Inertia { dim: 3 }, (1, 8, 2));
        let ops = profile_of(&program, &input);
        assert_eq!(op(&ops, "reduce").invocations, 2);
        assert_eq!(op(&ops, "reduce").bytes_read, 24 * (1 + 3) * 8);
        assert_eq!(op(&ops, "combine").invocations, 2);
    }

    #[test]
    fn attention_stores_its_output_once() {
        // The running accumulator and the cells are scratch: the only tensor
        // stored is the `q_rows × head_dim` output. 19 query rows score in
        // groups of 8, 8 and 3.
        let q = random_matrix(19, 16, 1, -1.0, 1.0);
        let k = random_matrix(32, 16, 2, -1.0, 1.0);
        let v = random_matrix(32, 8, 3, -1.0, 1.0);
        let input = ExecInput::Attention {
            q: &q,
            k: &k,
            v: &v,
        };
        for (point, tiles) in [((2, 8, 1), 4), ((2, 8, 2), 4), ((4, 5, 3), 8)] {
            let semantics = Semantics::Attention {
                qk_dim: 16,
                head_dim: 8,
            };
            let ops = profile_of(&bound_program(semantics, point), &input);
            let written: u64 = ops.iter().map(|o| o.bytes_written).sum();
            assert_eq!(written, 19 * 8 * 8, "{point:?}");
            // Each query row loads once, each group reads every key once ...
            let gemm = op(&ops, "score-gemm");
            assert_eq!(gemm.invocations, 3 * tiles, "{point:?}");
            assert_eq!(gemm.bytes_read, (19 + 3 * 32) * 16 * 8, "{point:?}");
            // ... and each query row reads every value once.
            assert_eq!(op(&ops, "reduce").bytes_read, 19 * 32 * 8 * 8, "{point:?}");
        }
    }

    #[test]
    fn routing_loads_a_token_once_per_tile() {
        let x = random_matrix(6, 16, 4, -1.0, 1.0);
        let w = random_matrix(16, 8, 5, -1.0, 1.0);
        let program = bound_program(
            Semantics::Routing {
                topk: 2,
                hidden: 16,
            },
            (2, 4, 2),
        );
        let ops = profile_of(&program, &ExecInput::Routing { x: &x, w: &w });
        // 6 tokens × 2 tiles of 4 experts: the token's 16 activations and
        // the tile's 16 × 4 weights per tile.
        let gemm = op(&ops, "score-gemm");
        assert_eq!(gemm.invocations, 6 * 2);
        assert_eq!(gemm.bytes_read, 6 * 2 * (16 + 16 * 4) * 8);
        assert_eq!(op(&ops, "epilogue").bytes_written, 6 * 2 * 2 * 8);
    }

    #[test]
    fn profiled_execution_propagates_vm_errors() {
        let program = bound_program(Semantics::Softmax, (2, 4, 1));
        let empty = Matrix::zeros(0, 0);
        assert!(execute_profiled(&program, &ExecInput::Rows(&empty)).is_err());
        let bare = TileProgram::new("bare", 1, 128);
        let m = random_matrix(2, 8, 1, -1.0, 1.0);
        assert!(matches!(
            execute_profiled(&bare, &ExecInput::Rows(&m)),
            Err(ExecError::NotExecutable { .. })
        ));
    }

    #[test]
    fn unbound_programs_are_rejected() {
        let p = TileProgram::new("bare", 1, 128);
        let m = random_matrix(2, 8, 1, -1.0, 1.0);
        let err = execute(&p, &ExecInput::Rows(&m)).unwrap_err();
        assert!(matches!(err, ExecError::NotExecutable { .. }));
        assert!(err.to_string().contains("bare"));
    }

    #[test]
    fn input_kind_mismatch_is_rejected() {
        let p = bound_program(Semantics::Softmax, (2, 4, 1));
        let m = random_matrix(2, 8, 1, -1.0, 1.0);
        let err = execute(
            &p,
            &ExecInput::Inertia {
                masses: &[1.0],
                positions: &m,
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            ExecError::Input {
                error: InputError::Kind { .. },
                ..
            }
        ));
        assert!(err.to_string().contains("row-matrix"));
    }

    fn output_bits(output: ExecOutput) -> Vec<u64> {
        match output {
            ExecOutput::Matrix(m) => m.as_slice().iter().map(|v| v.to_bits()).collect(),
            ExecOutput::Values(v) => v.iter().map(|v| v.to_bits()).collect(),
            ExecOutput::TopK(decisions) => decisions
                .iter()
                .flat_map(|d| {
                    let experts = d.experts.iter().map(|&e| e as u64);
                    experts.chain(d.probs.iter().map(|p| p.to_bits()))
                })
                .collect(),
        }
    }

    /// The output on one thread, the same bits on each of `threads`, and the
    /// same profile on one thread, on each of `threads` and on one thread
    /// again. `work` is the case's `rows × work_per_row` (one row's, where the
    /// segments are what splits): the comparison means something only when
    /// the splitter does split.
    fn same_output_on(
        threads: &[usize],
        program: &TileProgram,
        input: &ExecInput<'_>,
        work: usize,
    ) -> ExecOutput {
        assert!(
            work >= rf_workloads::PARALLEL_MIN_WORK,
            "case too small to split"
        );
        let serial = execute_with_threads(1, program, input).unwrap();
        let serial_bits = output_bits(serial.clone());
        let (_, serial_counts) = run::<Counts>(1, program, input).unwrap();
        for &threads in threads.iter().chain(&[1]) {
            let (split, counts) = run::<Counts>(threads, program, input).unwrap();
            assert!(
                serial_bits == output_bits(split),
                "{threads} threads changed the output bits"
            );
            assert!(
                serial_counts == counts,
                "{threads} threads changed the profile"
            );
        }
        serial
    }

    /// Runs one case on 1, 2, 3 and 7 threads, compares the output bits and
    /// returns them.
    fn assert_bits_ignore_the_thread_count(
        program: &TileProgram,
        input: &ExecInput<'_>,
        work: usize,
    ) -> Vec<u64> {
        output_bits(same_output_on(&[2, 3, 7], program, input, work))
    }

    /// Row counts that leave every split ragged: `7k + 1` (also `2k + 1` and
    /// not a multiple of 4), fewer rows than threads, and a single row.
    const RAGGED_ROWS: [usize; 3] = [15, 5, 1];

    #[test]
    fn softmax_bits_ignore_the_thread_count() {
        for rows in RAGGED_ROWS {
            let len = 18_000 * 15 / rows;
            let m = random_matrix(rows, len, 20, -3.0, 3.0);
            for point in [(4, 4096, 1), (2, 1000, 3)] {
                let program = bound_program(Semantics::Softmax, point);
                let work = rows * len * EXP_WORK;
                assert_bits_ignore_the_thread_count(&program, &ExecInput::Rows(&m), work);
            }
        }
    }

    #[test]
    fn variance_bits_ignore_the_thread_count() {
        // One row alone must reach the threshold: 2²² elements per shape.
        let data = random_vec(15 * 280_000, 21, -3.0, 3.0);
        for rows in RAGGED_ROWS {
            let len = data.len() / rows;
            let m = Matrix::from_vec(rows, len, data.clone());
            let program = bound_program(Semantics::Variance, (4, 4096, 3));
            assert_bits_ignore_the_thread_count(&program, &ExecInput::Rows(&m), rows * len);
        }
    }

    #[test]
    fn attention_bits_ignore_the_thread_count() {
        let (qk_dim, head_dim) = (64, 48);
        for rows in RAGGED_ROWS {
            let kv = 2_800 * 15 / rows;
            let q = random_matrix(rows, qk_dim, 1, -1.0, 1.0);
            let k = random_matrix(kv, qk_dim, 2, -1.0, 1.0);
            let v = random_matrix(kv, head_dim, 3, -1.0, 1.0);
            let input = ExecInput::Attention {
                q: &q,
                k: &k,
                v: &v,
            };
            for point in [(4, 128, 1), (2, 100, 3)] {
                let program = bound_program(Semantics::Attention { qk_dim, head_dim }, point);
                assert_bits_ignore_the_thread_count(
                    &program,
                    &input,
                    rows * kv * (qk_dim + head_dim),
                );
            }
        }
    }

    /// A test's view into the attention grid, keyed on the first query element
    /// so tests running side by side do not see each other: the cells of a
    /// query that starts with `TRACED` are logged as `(row, first key, thread)`,
    /// and one that starts with `TRIPPED` panics in every segment but its first.
    const TRACED: f64 = 0.123_456_789;
    const TRIPPED: f64 = 0.987_654_321;
    static CELL_LOG: Mutex<Vec<(usize, usize, ThreadId)>> = Mutex::new(Vec::new());

    pub(super) fn probe_cells(rows: Range<usize>, q: &Matrix, start: usize) {
        for row in rows {
            match q.row(row).first() {
                Some(&mark) if mark == TRACED => {
                    let cell = (row, start, std::thread::current().id());
                    CELL_LOG.lock().unwrap().push(cell);
                }
                Some(&mark) if mark == TRIPPED => {
                    assert!(start == 0, "injected failure in a later segment");
                }
                _ => {}
            }
        }
    }

    /// Unfused attention: every score, a whole-row softmax, the weighted sum.
    fn naive_attention(q: &Matrix, k: &Matrix, v: &Matrix) -> Vec<f64> {
        let scale = 1.0 / (q.cols() as f64).sqrt();
        let mut out = Vec::with_capacity(q.rows() * v.cols());
        for r in 0..q.rows() {
            let dot = |j: usize| {
                q.row(r)
                    .iter()
                    .zip(k.row(j))
                    .map(|(a, b)| a * b)
                    .sum::<f64>()
            };
            let scores: Vec<f64> = (0..k.rows()).map(|j| dot(j) * scale).collect();
            let probs = naive_softmax_row(&scores);
            out.extend((0..v.cols()).map(|c| {
                let terms = probs.iter().enumerate().map(|(j, p)| p * v.get(j, c));
                terms.sum::<f64>()
            }));
        }
        out
    }

    /// `actual` against the unfused computation: NaN exactly where that is
    /// NaN, within `tolerance` of it everywhere else.
    fn assert_matches_unfused(actual: &[f64], expected: &[f64], tolerance: f64, case: &str) {
        assert_eq!(actual.len(), expected.len(), "{case}");
        for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
            assert_eq!(a.is_nan(), e.is_nan(), "{case} [{i}]: {a} vs {e}");
            assert!(
                a.is_nan() || (a - e).abs() <= tolerance,
                "{case} [{i}]: {a} vs {e}"
            );
        }
    }

    /// A decode-shaped attention case: `q_rows` queries over `kv` keys, one
    /// row alone over the splitter's threshold.
    struct DecodeCase {
        q: Matrix,
        k: Matrix,
        v: Matrix,
    }

    impl DecodeCase {
        fn new(q_rows: usize, kv: usize, qk_dim: usize, head_dim: usize) -> DecodeCase {
            DecodeCase {
                // Positive queries: a `-inf` key coordinate scores `-inf`.
                q: random_matrix(q_rows, qk_dim, 11, 0.1, 1.0),
                k: random_matrix(kv, qk_dim, 12, -1.0, 1.0),
                v: random_matrix(kv, head_dim, 13, -1.0, 1.0),
            }
        }

        fn mask_keys(&mut self, keys: Range<usize>) {
            for j in keys {
                self.k.set(j, 0, f64::NEG_INFINITY);
            }
        }

        fn program(&self, point: (usize, usize, usize)) -> TileProgram {
            let semantics = Semantics::Attention {
                qk_dim: self.q.cols(),
                head_dim: self.v.cols(),
            };
            bound_program(semantics, point)
        }

        fn input(&self) -> ExecInput<'_> {
            ExecInput::Attention {
                q: &self.q,
                k: &self.k,
                v: &self.v,
            }
        }

        fn run(&self, threads: usize, point: (usize, usize, usize)) -> ExecOutput {
            execute_with_threads(threads, &self.program(point), &self.input()).unwrap()
        }

        /// The output, the same bits on 1, 2, 3 and 7 threads.
        fn bits_ignore_the_thread_count(&self, point: (usize, usize, usize)) -> Vec<f64> {
            let row_work = self.k.rows() * (self.q.cols() + self.v.cols() + EXP_WORK);
            let bits =
                assert_bits_ignore_the_thread_count(&self.program(point), &self.input(), row_work);
            bits.into_iter().map(f64::from_bits).collect()
        }

        /// Bitwise thread-count independence plus agreement with the unfused
        /// computation, NaN positions included; returns the output.
        fn check(&self, point: (usize, usize, usize)) -> Vec<f64> {
            let out = self.bits_ignore_the_thread_count(point);
            let expected = naive_attention(&self.q, &self.k, &self.v);
            assert_matches_unfused(&out, &expected, 1e-9, &format!("{point:?}"));
            out
        }
    }

    /// 64 segments of 516 keys, the last one 493 long; tiles of 100 leave a
    /// 16-key (and a 93-key) tail in every segment.
    const DECODE_KV: usize = 33_001;

    #[test]
    fn attention_bits_ignore_how_a_rows_segments_are_split() {
        for q_rows in [1, 2, 4] {
            let case = DecodeCase::new(q_rows, DECODE_KV, 64, 64);
            // One segment (nothing to split), two, the tuner's 64, and more
            // segments than keys (clamped to one key per segment).
            for point in [(4, 128, 1), (1, 100, 2), (1, 100, 64), (1, 128, 40_000)] {
                case.bits_ignore_the_thread_count(point);
            }
        }
        DecodeCase::new(2, DECODE_KV, 64, 64).check((1, 100, 64));
    }

    #[test]
    fn attention_split_by_segments_handles_unit_dimensions() {
        // One multiply-add per score and per value: the exponentials alone
        // put a row over the threshold.
        let kv = rf_workloads::PARALLEL_MIN_WORK / EXP_WORK;
        DecodeCase::new(1, kv, 1, 1).check((1, 128, 64));
        DecodeCase::new(2, kv, 1, 7).check((1, 100, 3));
        DecodeCase::new(3, kv, 5, 1).check((1, 4096, 7));
    }

    #[test]
    fn masked_segments_contribute_nothing_under_every_segment_split() {
        let point = (1, 100, 64);
        let seg_len = DECODE_KV.div_ceil(64);
        // A leading, an interior and the (short) trailing segment, each fully
        // `-inf`, alone and together; then every key masked: a row with
        // nothing to attend to is NaN everywhere, as in the unfused form.
        let segments = [
            0..seg_len,
            10 * seg_len..11 * seg_len,
            63 * seg_len..DECODE_KV,
        ];
        let mut together = DecodeCase::new(2, DECODE_KV, 64, 64);
        for keys in &segments {
            let mut alone = DecodeCase::new(1, DECODE_KV, 64, 64);
            alone.mask_keys(keys.clone());
            alone.check(point);
            together.mask_keys(keys.clone());
        }
        together.check(point);
        together.mask_keys(0..DECODE_KV);
        assert!(together.check(point).iter().all(|v| v.is_nan()));
    }

    #[test]
    fn rows_that_fill_the_threads_split_by_row_else_by_segment() {
        let caller = std::thread::current().id();
        let traced = |q_rows: usize, threads: usize| {
            let mut case = DecodeCase::new(q_rows, DECODE_KV, 64, 64);
            for row in 0..q_rows {
                case.q.set(row, 0, TRACED);
            }
            CELL_LOG.lock().unwrap().clear();
            case.run(threads, (1, 100, 64));
            let mut cells = std::mem::take(&mut *CELL_LOG.lock().unwrap());
            cells.sort_by_key(|&(row, start, _)| (row, start));
            assert_eq!(cells.len(), q_rows * 64, "every cell runs once");
            cells
        };
        // `owners`, one per grid unit in order, form one contiguous range per
        // thread, the first of them the caller's.
        let one_range_per_thread = |owners: &mut Vec<ThreadId>, threads: usize| {
            owners.dedup();
            assert_eq!(owners.len(), threads);
            assert_eq!(owners[0], caller);
            assert!(owners[1..].iter().all(|&thread| thread != caller));
        };
        // Rows fill the threads: the row grid splits, and a row's 64 cells
        // stay on the thread that owns the row.
        for (q_rows, threads) in [(2, 2), (4, 3)] {
            let cells = traced(q_rows, threads);
            let mut owners = Vec::new();
            for row_cells in cells.chunks(64) {
                let owner = row_cells[0].2;
                assert!(row_cells.iter().all(|&(_, _, thread)| thread == owner));
                owners.push(owner);
            }
            one_range_per_thread(&mut owners, threads);
        }
        // Too few rows: every row stays on the caller, which runs the first
        // range of the row's cells and spawns the others.
        for (q_rows, threads) in [(1, 2), (2, 3)] {
            let cells = traced(q_rows, threads);
            for row_cells in cells.chunks(64) {
                let mut owners = row_cells.iter().map(|cell| cell.2).collect();
                one_range_per_thread(&mut owners, threads);
            }
        }
    }

    #[test]
    fn a_panic_in_a_spawned_segment_range_panics_the_call() {
        let mut case = DecodeCase::new(1, DECODE_KV, 64, 64);
        case.q.set(0, 0, TRIPPED);
        for threads in [1, 2] {
            let result = std::panic::catch_unwind(|| case.run(threads, (1, 100, 64)));
            assert!(result.is_err(), "no output may be returned");
        }
    }

    /// The threads a call's grid ran on. Every range body starts its tally on
    /// the thread that runs it, so a split shows as a second thread, with no
    /// clock read.
    struct Threads(Vec<ThreadId>);

    impl Default for Threads {
        fn default() -> Threads {
            Threads(vec![std::thread::current().id()])
        }
    }

    impl Tally for Threads {
        fn add(&mut self, _: Step, _: u64, _: u64, _: u64) {}

        fn merge(mut self, other: Threads) -> Threads {
            for thread in other.0 {
                if !self.0.contains(&thread) {
                    self.0.push(thread);
                }
            }
            self
        }
    }

    /// The threads `semantics` at `point` runs on when given two, over seeded
    /// tensors of the given shapes: `rows × len` for softmax and variance,
    /// `[q, k, v]` for attention, `[x, w]` for routing, `[a, w]` for quant +
    /// GEMM and the positions for inertia.
    fn threads_used(
        semantics: Semantics,
        point: (usize, usize, usize),
        shapes: &[[usize; 2]],
    ) -> usize {
        let m: Vec<Matrix> = (0..)
            .zip(shapes)
            .map(|(seed, &[rows, cols])| random_matrix(rows, cols, seed, 0.1, 1.0))
            .collect();
        let masses = random_vec(m[0].rows(), 9, 0.1, 2.0);
        let input = match semantics {
            Semantics::Softmax | Semantics::Variance => ExecInput::Rows(&m[0]),
            Semantics::Attention { .. } => ExecInput::Attention {
                q: &m[0],
                k: &m[1],
                v: &m[2],
            },
            Semantics::Routing { .. } => ExecInput::Routing { x: &m[0], w: &m[1] },
            Semantics::QuantGemm { .. } => ExecInput::QuantGemm { a: &m[0], w: &m[1] },
            Semantics::Inertia { .. } => ExecInput::Inertia {
                masses: &masses,
                positions: &m[0],
            },
        };
        let program = bound_program(semantics, point);
        run::<Threads>(2, &program, &input).unwrap().1 .0.len()
    }

    /// Which of `perf`'s shapes split on two threads, on the tuning points
    /// the H800 plans give them `(block_rows, block_axis, segments)`: the
    /// source of truth for where the threshold falls. Decode attention's one
    /// row splits its segments; every other shape that splits has the rows
    /// to fill both threads, so its split is the row split.
    #[test]
    fn the_benchmark_shapes_split_where_the_threshold_says() {
        let attention = |qk_dim, head_dim| Semantics::Attention { qk_dim, head_dim };
        let routing = |topk, hidden| Semantics::Routing { topk, hidden };
        let (softmax, variance) = (Semantics::Softmax, Semantics::Variance);
        let (quant, inertia) = (
            |n| Semantics::QuantGemm { n },
            Semantics::Inertia { dim: 3 },
        );
        let qkv = |q, kv, qk, head| [[q, qk], [kv, qk], [kv, head]];
        let cases = [
            // exec_decode: MHA 1×8192 and MLA 1×4096 split their segments.
            (
                "mha 1x8192",
                attention(64, 64),
                (1, 256, 32),
                &qkv(1, 8192, 64, 64)[..],
                2,
            ),
            (
                "mla 1x4096",
                attention(576, 512),
                (1, 64, 64),
                &qkv(1, 4096, 576, 512),
                2,
            ),
            ("softmax 1x32768", softmax, (1, 256, 64), &[[1, 32768]], 1),
            ("softmax 4x8192", softmax, (4, 128, 64), &[[4, 8192]], 1),
            ("variance 1x65536", variance, (1, 128, 1), &[[1, 65536]], 1),
            // exec_prefill.
            (
                "mha 256x1024",
                attention(64, 64),
                (16, 16, 64),
                &qkv(256, 1024, 64, 64),
                2,
            ),
            (
                "softmax 512x4096",
                softmax,
                (16, 128, 32),
                &[[512, 4096]],
                2,
            ),
            (
                "quant 256x1024->256",
                quant(256),
                (128, 128, 1),
                &[[256, 1024], [1024, 256]],
                2,
            ),
            (
                "moe 512x64",
                routing(8, 256),
                (128, 64, 1),
                &[[512, 256], [256, 64]],
                2,
            ),
            (
                "variance 256x4096",
                variance,
                (128, 128, 1),
                &[[256, 4096]],
                1,
            ),
            ("inertia 4096", inertia, (64, 128, 1), &[[4096, 3]], 1),
            // serve_tiny, every kind.
            ("softmax 4x256", softmax, (4, 256, 1), &[[4, 256]], 1),
            ("softmax 2x1024", softmax, (2, 256, 1), &[[2, 1024]], 1),
            (
                "mha tiny",
                attention(8, 8),
                (16, 32, 1),
                &qkv(16, 32, 8, 8),
                1,
            ),
            (
                "mla tiny",
                attention(24, 16),
                (4, 64, 1),
                &qkv(1, 64, 24, 16),
                1,
            ),
            (
                "moe tiny",
                routing(4, 32),
                (16, 16, 1),
                &[[16, 32], [32, 16]],
                1,
            ),
            ("quant tiny", quant(12), (8, 16, 1), &[[8, 16], [16, 12]], 1),
            ("variance tiny", variance, (4, 128, 1), &[[4, 256]], 1),
            ("inertia tiny", inertia, (4, 128, 1), &[[128, 3]], 1),
        ];
        for (name, semantics, point, shapes, threads) in cases {
            assert_eq!(threads_used(semantics, point, shapes), threads, "{name}");
        }
    }

    #[test]
    fn routing_bits_ignore_the_thread_count() {
        let hidden = 160;
        for rows in RAGGED_ROWS {
            let experts = 1_800 * 15 / rows;
            let x = random_matrix(rows, hidden, 4, -1.0, 1.0);
            let w = random_matrix(hidden, experts, 5, -1.0, 1.0);
            let input = ExecInput::Routing { x: &x, w: &w };
            for point in [(4, 256, 1), (2, 100, 3)] {
                let program = bound_program(Semantics::Routing { topk: 6, hidden }, point);
                assert_bits_ignore_the_thread_count(&program, &input, rows * experts * hidden);
            }
        }
    }

    #[test]
    fn quant_gemm_bits_ignore_the_thread_count() {
        let n = 288;
        for rows in RAGGED_ROWS {
            let k_len = 1_024 * 15 / rows;
            let a = random_matrix(rows, k_len, 6, -2.0, 2.0);
            let w = random_matrix(k_len, n, 7, -1.0, 1.0);
            let input = ExecInput::QuantGemm { a: &a, w: &w };
            // Row blocks of 4 and 2: 15 rows leave a short last block, and on
            // 2 threads `block_rows` 4 deals 8 + 7 rows.
            for point in [(4, 128, 1), (2, 100, 3)] {
                let program = bound_program(Semantics::QuantGemm { n }, point);
                assert_bits_ignore_the_thread_count(&program, &input, rows * k_len * n);
            }
        }
    }

    /// What a row of scores can carry besides ordinary numbers. `apply(row,
    /// t)` rewrites a row of ordinary scores whose tiles are `t` long.
    struct Hostile {
        name: &'static str,
        apply: fn(&mut [f64], usize),
    }

    const NEG_INF: f64 = f64::NEG_INFINITY;

    /// `row[start..start + t]`, clipped to the row, becomes `-inf`.
    fn mask_tile(row: &mut [f64], start: usize, t: usize) {
        let end = (start + t).min(row.len());
        row[start.min(end)..end].fill(NEG_INF);
    }

    const HOSTILE: [Hostile; 11] = [
        Hostile {
            name: "ordinary",
            apply: |_, _| {},
        },
        Hostile {
            name: "all -inf",
            apply: |row, _| row.fill(NEG_INF),
        },
        Hostile {
            name: "leading -inf tile",
            apply: |row, t| mask_tile(row, 0, t),
        },
        Hostile {
            name: "interior -inf tile",
            apply: |row, t| mask_tile(row, t, t),
        },
        Hostile {
            name: "trailing -inf tile",
            apply: |row, t| mask_tile(row, row.len().saturating_sub(t), t),
        },
        Hostile {
            name: "only the last entry finite",
            apply: |row, _| mask_tile(row, 0, row.len() - 1),
        },
        Hostile {
            name: "+inf entry",
            apply: |row, _| row[row.len() / 2] = f64::INFINITY,
        },
        Hostile {
            name: "NaN entry",
            apply: |row, _| row[row.len() / 2] = f64::NAN,
        },
        Hostile {
            name: "NaN inside a -inf leading tile",
            apply: |row, t| {
                mask_tile(row, 0, t);
                row[0] = f64::NAN;
            },
        },
        Hostile {
            name: "magnitudes of 700, both signs",
            apply: |row, _| {
                for (i, x) in row.iter_mut().enumerate() {
                    *x += if i % 2 == 0 { 700.0 } else { -700.0 };
                }
            },
        },
        Hostile {
            name: "one 700 among ordinary scores",
            apply: |row, _| row[row.len() / 3] = 700.0,
        },
    ];

    /// `(tile length, axis length)`: an axis of one element, then for every
    /// tile length 1..=9 three whole tiles and a one-element tail.
    fn hostile_axes() -> impl Iterator<Item = (usize, usize)> {
        std::iter::once((1, 1)).chain((1..=9).map(|t| (t, 3 * t + 1)))
    }

    /// Single-tile, multi-tile and multi-segment tuning points for tiles of `t`.
    fn hostile_points(t: usize) -> [(usize, usize, usize); 3] {
        [(128, 128, 1), (2, t, 1), (2, t, 3)]
    }

    /// Rows that put a call of `work_per_row` over the splitter's threshold.
    fn rows_that_split(work_per_row: usize) -> usize {
        rf_workloads::PARALLEL_MIN_WORK / work_per_row + 1
    }

    /// The big case of hostile kind `i`: a tile length and a tuning point, so
    /// that the kinds between them cross a split at every length and point.
    fn split_case(i: usize) -> (usize, usize, (usize, usize, usize)) {
        let t = 1 + i % 9;
        (t, 3 * t + 1, hostile_points(t)[i % 3])
    }

    #[test]
    fn softmax_agrees_with_the_unfused_form_on_hostile_rows() {
        // Every kind of row `copies` times over, each copy on other scores.
        let check = |t: usize, len: usize, copies: usize, points: &[(usize, usize, usize)]| {
            let rows = copies * HOSTILE.len();
            let mut m = random_matrix(rows, len, 30 + t as u64, -4.0, 4.0);
            for r in 0..rows {
                (HOSTILE[r % HOSTILE.len()].apply)(m.row_mut(r), t);
            }
            let expected: Vec<f64> = (0..rows)
                .flat_map(|r| naive_softmax_row(m.row(r)))
                .collect();
            for &point in points {
                let program = bound_program(Semantics::Softmax, point);
                let input = ExecInput::Rows(&m);
                let out = if copies == 1 {
                    execute_with_threads(1, &program, &input).unwrap()
                } else {
                    same_output_on(&[3], &program, &input, rows * len * EXP_WORK)
                };
                let ExecOutput::Matrix(out) = out else {
                    panic!("softmax returns a matrix");
                };
                let case = format!("tiles of {t} over {len} at {point:?}, row = [i] / {len}");
                assert_matches_unfused(out.as_slice(), &expected, 1e-12, &case);
            }
        };
        for (t, len) in hostile_axes() {
            check(t, len, 1, &hostile_points(t));
        }
        for i in [0, 4, 8] {
            let (t, len, point) = split_case(i);
            let copies = rows_that_split(len * EXP_WORK).div_ceil(HOSTILE.len());
            check(t, len, copies, &[point]);
        }
    }

    /// Attention whose scores are `query × pattern`: one key coordinate, every
    /// query positive, so a key's `-inf` / `+inf` / NaN is its score's.
    fn hostile_attention(hostile: &Hostile, t: usize, len: usize, q_rows: usize) -> DecodeCase {
        let mut keys = random_vec(len, 40 + t as u64, -4.0, 4.0);
        (hostile.apply)(&mut keys, t);
        DecodeCase {
            q: random_matrix(q_rows, 1, 41, 0.5, 1.5),
            k: Matrix::from_vec(len, 1, keys),
            v: random_matrix(len, 2, 42, -1.0, 1.0),
        }
    }

    #[test]
    fn attention_agrees_with_the_unfused_form_on_hostile_scores() {
        for (i, hostile) in HOSTILE.iter().enumerate() {
            let check = |case: &DecodeCase, t: usize, point, out: ExecOutput| {
                let ExecOutput::Matrix(out) = out else {
                    panic!("attention returns a matrix");
                };
                let expected = naive_attention(&case.q, &case.k, &case.v);
                let len = case.k.rows();
                let name = format!("{}, tiles of {t} over {len} at {point:?}", hostile.name);
                assert_matches_unfused(out.as_slice(), &expected, 1e-12, &name);
            };
            // One thread, three queries: every tile length at every point.
            for (t, len) in hostile_axes() {
                let case = hostile_attention(hostile, t, len, 3);
                for point in hostile_points(t) {
                    check(&case, t, point, case.run(1, point));
                }
            }
            // Enough queries to split.
            let (t, len, point) = split_case(i);
            let work_per_row = len * (1 + 2 + EXP_WORK);
            let rows = rows_that_split(work_per_row);
            let case = hostile_attention(hostile, t, len, rows);
            let work = rows * work_per_row;
            let out = same_output_on(&[3], &case.program(point), &case.input(), work);
            check(&case, t, point, out);
        }
    }

    /// Routing whose scores are `token × pattern` (one hidden coordinate,
    /// every token positive), with the unfused decisions: a whole-row softmax,
    /// then the `topk` largest scores under the VM's comparator.
    fn hostile_routing(
        hostile: &Hostile,
        t: usize,
        len: usize,
        tokens: usize,
    ) -> (Matrix, Matrix, Vec<RoutingDecision>) {
        let mut weights = random_vec(len, 50 + t as u64, -4.0, 4.0);
        (hostile.apply)(&mut weights, t);
        let x = random_matrix(tokens, 1, 51, 0.5, 1.5);
        let expected = (0..tokens)
            .map(|token| {
                let scores: Vec<f64> = weights.iter().map(|w| x.get(token, 0) * w).collect();
                let probs = naive_softmax_row(&scores);
                let mut best = Vec::new();
                for (index, &score) in scores.iter().enumerate() {
                    insert_candidate(&mut best, Candidate { index, score }, len.min(3));
                }
                RoutingDecision {
                    experts: best.iter().map(|c| c.index).collect(),
                    probs: best.iter().map(|c| probs[c.index]).collect(),
                }
            })
            .collect();
        (x, Matrix::from_vec(1, len, weights), expected)
    }

    #[test]
    fn routing_agrees_with_the_unfused_form_on_hostile_scores() {
        for (i, hostile) in HOSTILE.iter().enumerate() {
            // The probabilities NaN exactly where the unfused ones are and
            // within 1e-12 elsewhere; the same experts, NaN scores included
            // (they rank below every number, whatever order the tiles and
            // segments offer them in).
            let check = |expected: &[RoutingDecision], t: usize, point, out: ExecOutput| {
                let ExecOutput::TopK(out) = out else {
                    panic!("routing returns decisions");
                };
                let name = format!("{}, tiles of {t} at {point:?}", hostile.name);
                let probs = |decisions: &[RoutingDecision]| -> Vec<f64> {
                    decisions.iter().flat_map(|d| d.probs.clone()).collect()
                };
                assert_matches_unfused(&probs(&out), &probs(expected), 1e-12, &name);
                let experts = |decisions: &[RoutingDecision]| -> Vec<usize> {
                    decisions.iter().flat_map(|d| d.experts.clone()).collect()
                };
                assert_eq!(experts(&out), experts(expected), "{name}");
            };
            let program = |len: usize, point| {
                let topk = len.min(3);
                bound_program(Semantics::Routing { topk, hidden: 1 }, point)
            };
            for (t, len) in hostile_axes() {
                let (x, w, expected) = hostile_routing(hostile, t, len, 3);
                let input = ExecInput::Routing { x: &x, w: &w };
                for point in hostile_points(t) {
                    let out = execute_with_threads(1, &program(len, point), &input).unwrap();
                    check(&expected, t, point, out);
                }
            }
            let (t, len, point) = split_case(i);
            let work_per_row = len * (1 + EXP_WORK);
            let tokens = rows_that_split(work_per_row);
            let (x, w, expected) = hostile_routing(hostile, t, len, tokens);
            let input = ExecInput::Routing { x: &x, w: &w };
            let program = program(len, point);
            let out = same_output_on(&[3], &program, &input, tokens * work_per_row);
            check(&expected, t, point, out);
        }
    }

    /// FNV-1a over an output's bits.
    fn fold_bits(output: ExecOutput) -> u64 {
        let words = output_bits(output).into_iter();
        words.fold(0xcbf2_9ce4_8422_2325, |h, word| {
            (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Runs `case` at each point on one thread: NaN exactly where the unfused
    /// form is NaN, within `1e-12` of it elsewhere, and the fold recorded when
    /// P·V still ran one query row at a time.
    fn check_attention_folds(case: &DecodeCase, golden: [((usize, usize, usize), u64); 3]) {
        let expected = naive_attention(&case.q, &case.k, &case.v);
        for (point, recorded) in golden {
            let out = case.run(1, point);
            let ExecOutput::Matrix(m) = &out else {
                panic!("attention returns a matrix");
            };
            assert_matches_unfused(m.as_slice(), &expected, 1e-12, &format!("{point:?}"));
            let fold = fold_bits(out);
            assert_eq!(fold, recorded, "{point:?}: fold {fold:#018x}");
        }
    }

    #[test]
    fn an_infinite_value_under_a_zero_probability_adds_nan() {
        // Eleven query rows (a group of eight, one of three) over 13 keys of
        // one coordinate. Key 2 scores at least 799 below every row's
        // maximum, so its probability is exactly 0; its values are +inf, NaN,
        // -inf and 0.5, and 0·inf is NaN in P·V as in the unfused form. Every
        // point keeps key 2 in a segment with ordinary keys, whose partial
        // the combine keeps.
        let mut keys = random_vec(13, 60, -2.0, 2.0);
        keys[2] = -1600.0;
        let mut v = random_matrix(13, 4, 61, -1.0, 1.0);
        v.row_mut(2)
            .copy_from_slice(&[f64::INFINITY, f64::NAN, NEG_INF, 0.5]);
        let case = DecodeCase {
            q: random_matrix(11, 1, 62, 0.5, 1.5),
            k: Matrix::from_vec(13, 1, keys),
            v,
        };
        check_attention_folds(
            &case,
            [
                ((128, 128, 1), 0xaba3_d015_c4e4_5cd7),
                ((4, 2, 1), 0x170f_4d07_d1b4_2739),
                ((4, 3, 3), 0xdd8a_f1f5_90cc_a200),
            ],
        );
        let out = case.run(1, (128, 128, 1));
        let ExecOutput::Matrix(out) = out else {
            unreachable!()
        };
        for r in 0..11 {
            let nan: Vec<bool> = out.row(r).iter().map(|x| x.is_nan()).collect();
            assert_eq!(nan, [true, true, true, false], "row {r}");
        }
    }

    #[test]
    fn a_nan_value_under_a_partial_rescaled_to_zero_adds_nan() {
        // One query row over 13 keys of one coordinate. Key 9 scores 1600,
        // so every other key's probability is exactly 0, and key 2's value
        // is NaN in column 0: 0·NaN is NaN in the unfused form. Under three
        // segments key 2's partial is rescaled to the global maximum by a
        // factor of exactly 0, and its NaN must come through the combine.
        let mut keys = random_vec(13, 68, -1.0, 1.0);
        keys[9] = 1600.0;
        let mut v = random_matrix(13, 2, 69, -1.0, 1.0);
        v.set(2, 0, f64::NAN);
        let case = DecodeCase {
            q: Matrix::from_vec(1, 1, vec![1.0]),
            k: Matrix::from_vec(13, 1, keys),
            v,
        };
        let expected = naive_attention(&case.q, &case.k, &case.v);
        assert!(expected[0].is_nan() && !expected[1].is_nan());
        for point in [(128, 128, 1), (1, 5, 1), (1, 5, 3)] {
            let ExecOutput::Matrix(out) = case.run(1, point) else {
                unreachable!()
            };
            assert_matches_unfused(out.as_slice(), &expected, 1e-12, &format!("{point:?}"));
        }
    }

    #[test]
    fn a_fully_masked_row_rides_with_live_group_mates() {
        // Key coordinate 1 is -inf for keys 0..3 (every row's leading tile
        // masked at tiles of three), coordinate 0 positive for every key, and
        // query row 5's coordinate 0 is -inf: it scores -inf against every
        // key while its seven group mates are live from key 3 on.
        let mut q = random_matrix(11, 2, 63, 0.5, 1.5);
        q.set(5, 0, NEG_INF);
        let mut k = random_matrix(13, 2, 64, -1.0, 1.0);
        for j in 0..13 {
            k.set(j, 0, 0.5 + k.get(j, 0).abs());
        }
        for j in 0..3 {
            k.set(j, 1, NEG_INF);
        }
        let case = DecodeCase {
            q,
            k,
            v: random_matrix(13, 3, 65, -1.0, 1.0),
        };
        check_attention_folds(
            &case,
            [
                ((128, 128, 1), 0xa179_d319_934b_cb7b),
                ((4, 3, 1), 0x3846_1bbb_8f3b_6bfa),
                ((4, 2, 3), 0xbf7d_d4cb_61e1_9c11),
            ],
        );
        let ExecOutput::Matrix(out) = case.run(1, (4, 3, 1)) else {
            unreachable!()
        };
        for r in 0..11 {
            assert_eq!(out.row(r).iter().all(|x| x.is_nan()), r == 5, "row {r}");
            assert_eq!(out.row(r).iter().any(|x| x.is_nan()), r == 5, "row {r}");
        }
    }

    #[test]
    fn an_infinite_weight_under_a_zero_activation_adds_nan() {
        // Eleven tokens over 5 hidden coordinates and 21 experts. Weight row
        // 3 holds +inf at expert 4 and -inf at expert 12; the odd tokens'
        // coordinate 3 is 0, so 0·inf makes their scores there NaN (every
        // term is added, as in the unfused form), and the even tokens'
        // scores there are infinite.
        let (tokens, hidden, experts, topk) = (11, 5, 21, 3);
        let mut x = random_matrix(tokens, hidden, 66, -1.0, 1.0);
        for t in (1..tokens).step_by(2) {
            x.set(t, 3, 0.0);
        }
        let mut w = random_matrix(hidden, experts, 67, -1.0, 1.0);
        w.set(3, 4, f64::INFINITY);
        w.set(3, 12, NEG_INF);
        let expected: Vec<RoutingDecision> = (0..tokens)
            .map(|t| {
                let score = |e: usize| (0..hidden).fold(0.0, |s, h| s + x.get(t, h) * w.get(h, e));
                let scores: Vec<f64> = (0..experts).map(score).collect();
                let probs = naive_softmax_row(&scores);
                let mut best = Vec::new();
                for (index, &score) in scores.iter().enumerate() {
                    insert_candidate(&mut best, Candidate { index, score }, topk);
                }
                RoutingDecision {
                    experts: best.iter().map(|c| c.index).collect(),
                    probs: best.iter().map(|c| probs[c.index]).collect(),
                }
            })
            .collect();
        let input = ExecInput::Routing { x: &x, w: &w };
        let recorded = 0xba6b_7ea5_a92c_f634;
        let golden = [
            ((128, 128, 1), recorded),
            ((4, 5, 1), recorded),
            ((4, 5, 3), recorded),
        ];
        for (point, recorded) in golden {
            let program = bound_program(Semantics::Routing { topk, hidden }, point);
            let out = execute_with_threads(1, &program, &input).unwrap();
            let ExecOutput::TopK(decisions) = &out else {
                panic!("routing returns decisions");
            };
            for (t, (got, want)) in decisions.iter().zip(&expected).enumerate() {
                let case = format!("token {t} at {point:?}");
                assert_eq!(got.experts, want.experts, "{case}");
                assert_matches_unfused(&got.probs, &want.probs, 1e-12, &case);
                if t % 2 == 1 {
                    // A NaN score makes the sum NaN and ranks below every
                    // number.
                    assert!(got.probs.iter().all(|p| p.is_nan()), "{case}");
                    assert!(!got.experts.contains(&4) && !got.experts.contains(&12));
                }
            }
            let fold = fold_bits(out);
            assert_eq!(fold, recorded, "{point:?}: fold {fold:#018x}");
        }
    }

    #[test]
    fn softmax_matches_naive_for_every_tiling() {
        let m = random_matrix(5, 37, 3, -4.0, 4.0);
        for point in [(1, 1, 1), (2, 5, 1), (128, 16, 3), (5, 37, 7), (3, 4, 37)] {
            let p = bound_program(Semantics::Softmax, point);
            let ExecOutput::Matrix(out) = execute(&p, &ExecInput::Rows(&m)).unwrap() else {
                panic!("softmax returns a matrix");
            };
            for r in 0..m.rows() {
                let expected = naive_softmax_row(m.row(r));
                for (a, e) in out.row(r).iter().zip(&expected) {
                    assert!((a - e).abs() < 1e-12, "point {point:?}: {a} vs {e}");
                }
            }
        }
    }

    #[test]
    fn variance_matches_definition_for_every_tiling() {
        let m = random_matrix(4, 53, 9, -3.0, 3.0);
        let expected: Vec<f64> = (0..m.rows())
            .map(|r| {
                let row = m.row(r);
                let mean = row.iter().sum::<f64>() / row.len() as f64;
                row.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / row.len() as f64
            })
            .collect();
        for point in [(1, 53, 1), (4, 7, 2), (2, 1, 5)] {
            let p = bound_program(Semantics::Variance, point);
            let ExecOutput::Values(out) = execute(&p, &ExecInput::Rows(&m)).unwrap() else {
                panic!("variance returns values");
            };
            for (a, e) in out.iter().zip(&expected) {
                assert!((a - e).abs() < 1e-9 * (1.0 + e), "point {point:?}");
            }
        }
    }

    #[test]
    fn attention_segments_merge_to_the_single_segment_result() {
        let q = random_matrix(6, 8, 1, -1.0, 1.0);
        let k = random_matrix(33, 8, 2, -1.0, 1.0);
        let v = random_matrix(33, 5, 3, -1.0, 1.0);
        let single = bound_program(
            Semantics::Attention {
                qk_dim: 8,
                head_dim: 5,
            },
            (128, 128, 1),
        );
        let input = ExecInput::Attention {
            q: &q,
            k: &k,
            v: &v,
        };
        let ExecOutput::Matrix(reference) = execute(&single, &input).unwrap() else {
            panic!()
        };
        for point in [(1, 7, 4), (2, 3, 2), (6, 1, 33)] {
            let p = bound_program(
                Semantics::Attention {
                    qk_dim: 8,
                    head_dim: 5,
                },
                point,
            );
            let ExecOutput::Matrix(out) = execute(&p, &input).unwrap() else {
                panic!()
            };
            assert!(
                reference.max_abs_diff(&out) < 1e-9,
                "point {point:?} diverged"
            );
        }
    }

    #[test]
    fn routing_expert_sets_are_tiling_invariant() {
        let x = random_matrix(7, 12, 4, -1.0, 1.0);
        let w = random_matrix(12, 20, 5, -1.0, 1.0);
        let input = ExecInput::Routing { x: &x, w: &w };
        let reference = {
            let p = bound_program(
                Semantics::Routing {
                    topk: 4,
                    hidden: 12,
                },
                (128, 128, 1),
            );
            let ExecOutput::TopK(d) = execute(&p, &input).unwrap() else {
                panic!()
            };
            d
        };
        for point in [(1, 3, 5), (3, 20, 2), (7, 1, 1)] {
            let p = bound_program(
                Semantics::Routing {
                    topk: 4,
                    hidden: 12,
                },
                point,
            );
            let ExecOutput::TopK(out) = execute(&p, &input).unwrap() else {
                panic!()
            };
            for (a, b) in out.iter().zip(&reference) {
                assert_eq!(a.experts, b.experts, "point {point:?}");
                for (p1, p2) in a.probs.iter().zip(&b.probs) {
                    assert!((p1 - p2).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn quant_gemm_single_tile_matches_exact_quantization() {
        let a = random_matrix(3, 24, 6, -2.0, 2.0);
        let w = random_matrix(24, 5, 7, -1.0, 1.0);
        // Reference: quantize the whole row under its final scale, then GEMM.
        let mut expected = Matrix::zeros(3, 5);
        for i in 0..3 {
            let amax = a.row(i).iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            let scale = amax / FP8_MAX;
            for j in 0..5 {
                let mut acc = 0.0;
                for kk in 0..24 {
                    acc += fp8_round(a.get(i, kk) / scale) * w.get(kk, j);
                }
                expected.set(i, j, acc * scale);
            }
        }
        let p = bound_program(Semantics::QuantGemm { n: 5 }, (128, 128, 1));
        let ExecOutput::Matrix(out) = execute(&p, &ExecInput::QuantGemm { a: &a, w: &w }).unwrap()
        else {
            panic!()
        };
        assert!(expected.max_abs_diff(&out) < 1e-12);
        // Blocked execution stays within the provisional-scale noise floor.
        let blocked = bound_program(Semantics::QuantGemm { n: 5 }, (1, 4, 3));
        let ExecOutput::Matrix(out) =
            execute(&blocked, &ExecInput::QuantGemm { a: &a, w: &w }).unwrap()
        else {
            panic!()
        };
        let peak = expected
            .as_slice()
            .iter()
            .fold(0.0f64, |acc, v| acc.max(v.abs()));
        assert!(expected.max_abs_diff(&out) <= 0.05 * peak + 1e-9);
    }

    #[test]
    fn inertia_matches_parallel_axis_formula() {
        let masses = random_vec(40, 8, 0.1, 2.0);
        let positions = random_matrix(40, 3, 9, -2.0, 2.0);
        let expected = {
            let total: f64 = masses.iter().sum();
            let mut center = [0.0; 3];
            for (i, &mass) in masses.iter().enumerate() {
                for (d, c) in center.iter_mut().enumerate() {
                    *c += mass * positions.get(i, d);
                }
            }
            for c in center.iter_mut() {
                *c /= total;
            }
            masses
                .iter()
                .enumerate()
                .map(|(i, &mass)| {
                    (0..3)
                        .map(|d| {
                            let delta = positions.get(i, d) - center[d];
                            mass * delta * delta
                        })
                        .sum::<f64>()
                })
                .sum::<f64>()
        };
        for point in [(1, 40, 1), (1, 7, 3), (1, 1, 8)] {
            let p = bound_program(Semantics::Inertia { dim: 3 }, point);
            let ExecOutput::Values(out) = execute(
                &p,
                &ExecInput::Inertia {
                    masses: &masses,
                    positions: &positions,
                },
            )
            .unwrap() else {
                panic!()
            };
            assert_eq!(out.len(), 1);
            assert!((out[0] - expected).abs() < 1e-7 * (1.0 + expected));
        }
    }

    #[test]
    fn massless_systems_are_rejected_not_panicking() {
        let positions = Matrix::zeros(2, 3);
        let p = bound_program(Semantics::Inertia { dim: 3 }, (1, 2, 1));
        let err = execute(
            &p,
            &ExecInput::Inertia {
                masses: &[0.0, 0.0],
                positions: &positions,
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("total mass"));
    }

    #[test]
    fn segment_ranges_cover_the_axis_without_overlap() {
        for (axis, segments) in [(10, 3), (1, 8), (64, 64), (7, 1), (5, 9)] {
            let ranges: Vec<_> = segment_ranges(axis, segments).collect();
            let mut covered = 0;
            let mut prev_end = 0;
            for &(start, end) in &ranges {
                assert_eq!(start, prev_end, "contiguous");
                assert!(end > start, "non-empty");
                covered += end - start;
                prev_end = end;
            }
            assert_eq!(covered, axis);
        }
    }

    #[test]
    fn oversized_topk_is_rejected() {
        let x = random_matrix(2, 4, 1, -1.0, 1.0);
        let w = random_matrix(4, 3, 2, -1.0, 1.0);
        let p = bound_program(Semantics::Routing { topk: 5, hidden: 4 }, (1, 1, 1));
        let err = execute(&p, &ExecInput::Routing { x: &x, w: &w }).unwrap_err();
        assert!(err.to_string().contains("topk"));
    }
}
