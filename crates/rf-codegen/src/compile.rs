//! Top-level compilation entry point: workload → tuned fused kernel.

use std::sync::Arc;
use std::time::Instant;

use rf_gpusim::{estimate_latency, GpuArch, KernelProfile};
use rf_tile::exec::{ExecBinding, ExecError, ExecInput, ExecOutput, Semantics};
use rf_tile::{TensorizeConfig, TileProgram};
use rf_workloads::{
    InertiaConfig, MhaConfig, MlaConfig, MoeConfig, Precision, QuantGemmConfig, VarianceConfig,
};

use crate::lower::{
    attention_profile, attention_program, cascade_profile, cascade_program, AttentionShape,
    AttentionTiling,
};
use crate::strategy::Mode;
use crate::tuner::{
    AutoTuner, PointFootprint, SearchMode, TuneHooks, TuningCache, TuningChoice, TuningPoint,
};

/// Options for [`compile_workload_with`]: how the auto-tuner searches and
/// whether it warm-starts from (and records into) a shared [`TuningCache`].
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// The tuner search mode ([`SearchMode::Guided`] by default;
    /// [`SearchMode::Exhaustive`] is the oracle).
    pub mode: SearchMode,
    /// Warm-start cache shared across compilations (keyed by
    /// [`Workload::class`] and architecture fingerprint).
    pub tuning_cache: Option<Arc<TuningCache>>,
}

/// A workload RedFuser can compile end-to-end.
///
/// All variants carry integer-only shape descriptions, so `Workload` derives
/// `Eq`/`Hash` and serves as the workload half of a [`PlanKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Multi-Head Attention (Table 2a).
    Mha(MhaConfig),
    /// Multi-Latent Attention decode (Table 2b).
    Mla(MlaConfig),
    /// MoE routing (Table 2c).
    Moe(MoeConfig),
    /// FP8 PerToken Quant + GEMM (Table 2d).
    Quant(QuantGemmConfig),
    /// Batched variance (Table 3a).
    Variance(VarianceConfig),
    /// Moment of inertia (Table 3b).
    Inertia(InertiaConfig),
    /// A standalone batched safe softmax of `rows` rows of length `len`.
    Softmax {
        /// Number of independent rows.
        rows: usize,
        /// Row length.
        len: usize,
    },
}

impl Workload {
    /// Display name of the workload instance.
    pub fn name(&self) -> String {
        match self {
            Workload::Mha(c) => format!("mha_{}", c.name),
            Workload::Mla(c) => format!("mla_{}", c.name),
            Workload::Moe(c) => format!("moe_{}", c.name),
            Workload::Quant(c) => format!("quant_{}", c.name),
            Workload::Variance(c) => format!("variance_{}", c.name),
            Workload::Inertia(c) => format!("inertia_{}", c.name),
            Workload::Softmax { rows, len } => format!("softmax_{rows}x{len}"),
        }
    }

    /// The workload class, shared by every shape of one family — the key the
    /// [`TuningCache`] warm-starts under (a winning launch configuration for
    /// one MHA shape is a good starting point for the next MHA shape).
    pub fn class(&self) -> &'static str {
        match self {
            Workload::Mha(_) => "mha",
            Workload::Mla(_) => "mla",
            Workload::Moe(_) => "moe",
            Workload::Quant(_) => "quant",
            Workload::Variance(_) => "variance",
            Workload::Inertia(_) => "inertia",
            Workload::Softmax { .. } => "softmax",
        }
    }

    /// The canonical cascaded-reduction specification of this workload's
    /// class — the **single source of truth** shared by the fusion analysis,
    /// the lowering and the graph-frontend detector.
    ///
    /// The specs themselves are the constructors in `rf_fusion::patterns`;
    /// this accessor is the one place that maps a compilable workload to its
    /// cascade. The lowering derives its per-family reduction count from it
    /// ([`Workload::lowered_reductions`]) and `rf-graph`'s detector matches
    /// candidate regions against it, so a pattern change propagates to every
    /// layer instead of having to be repeated in three hand-maintained lists.
    pub fn cascade_spec(&self) -> rf_fusion::CascadeSpec {
        use rf_fusion::patterns;
        match self {
            // The attention output row: softmax statistics plus the weighted
            // sum over value components (Appendix A.2.1).
            Workload::Mha(_) | Workload::Mla(_) => patterns::attention_row(),
            Workload::Softmax { .. } => patterns::safe_softmax(),
            // The softmax part of routing; the segmented top-k selection is
            // an extra lowered pass (see `lowered_reductions`).
            Workload::Moe(_) => patterns::moe_routing_scores(),
            Workload::Quant(_) => patterns::fp8_quant_gemm(),
            Workload::Variance(_) => patterns::variance_sufficient_stats(),
            Workload::Inertia(_) => patterns::inertia_sufficient_stats(),
        }
    }

    /// Number of reduction passes the tile-program lowering materialises for
    /// this workload: the cascade's reduction count, plus the segmented top-k
    /// selection pass for MoE routing that `rf_fusion::patterns` documents as
    /// handled outside the softmax cascade.
    pub fn lowered_reductions(&self) -> usize {
        let base = self.cascade_spec().len();
        match self {
            Workload::Moe(_) => base + 1,
            _ => base,
        }
    }
}

/// The canonical cache key for one compilation: the workload shape plus the
/// target architecture's name and a fingerprint of its numeric parameters.
///
/// [`GpuArch`] itself carries floating-point throughput numbers and therefore
/// cannot implement `Hash`/`Eq` directly; the fingerprint folds the canonical
/// IEEE-754 bit patterns of every field into a `u64`, so a preset whose `pub`
/// fields were tweaked (a what-if study) keys differently from the stock
/// preset of the same name. Callers that build many keys for one
/// architecture (e.g. the `rf-runtime` plan cache) compute
/// [`GpuArch::fingerprint`] once and assemble keys from the public fields.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// The workload shape being compiled.
    pub workload: Workload,
    /// The target architecture's name (e.g. `"NVIDIA A10"`), kept for display.
    pub arch: &'static str,
    /// Hash of the architecture's full parameter set (bit-exact).
    pub arch_fingerprint: u64,
}

impl PlanKey {
    /// Builds the cache key for compiling `workload` on `arch`.
    pub fn new(workload: &Workload, arch: &GpuArch) -> Self {
        PlanKey {
            workload: workload.clone(),
            arch: arch.name,
            arch_fingerprint: arch.fingerprint(),
        }
    }
}

/// Wall-clock cost of producing one [`CompiledKernel`], for the runtime's
/// per-stage telemetry (`rf-trace`): how much of a cache miss went to the
/// auto-tuner search versus lowering and profile construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CompileTiming {
    /// Total wall time of [`compile_workload_with`], in microseconds.
    pub total_us: f64,
    /// Wall time spent inside the auto-tuner search, in microseconds
    /// (a subset of `total_us`; zero for accounting-only compilations).
    pub tune_us: f64,
}

/// The result of compiling one workload for one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    /// Workload name.
    pub name: String,
    /// The fully-bound tile program. Every workload family lowers to one; it
    /// carries the [`ExecBinding`] the `rf_tile::exec` VM interprets, so the
    /// compiled artifact is executable, not just costable.
    pub program: Option<TileProgram>,
    /// The kernel profile handed to the GPU model.
    pub profile: KernelProfile,
    /// Estimated latency on the target architecture, in microseconds.
    pub latency_us: f64,
    /// The auto-tuning choice that produced the kernel.
    pub tuning: TuningChoice,
    /// Wall-clock compile/tune cost of producing this kernel.
    pub timing: CompileTiming,
}

impl CompiledKernel {
    /// Executes the compiled kernel over real tensors by interpreting its
    /// tile program on the `rf_tile::exec` VM. The execution honours exactly
    /// the tuned tile sizes and segment strategy the auto-tuner chose — this
    /// is the path the `rf-runtime` engine serves.
    ///
    /// # Errors
    ///
    /// [`ExecError::NotExecutable`] if the kernel carries no program, and the
    /// VM's input/shape mismatch errors for tensors that do not feed the
    /// program's binding.
    pub fn run(&self, input: &ExecInput<'_>) -> Result<ExecOutput, ExecError> {
        let program = self
            .program
            .as_ref()
            .ok_or_else(|| ExecError::NotExecutable {
                program: self.name.clone(),
            })?;
        rf_tile::exec::execute(program, input)
    }

    /// Executes the compiled kernel like [`CompiledKernel::run`] and
    /// additionally returns the tile-VM's op-level profile
    /// ([`rf_tile::ExecProfile`]): per-op invocation/row/byte counts plus
    /// the measured wall time. The numeric output is bit-identical to
    /// [`CompiledKernel::run`]'s — the profiled VM entry point wraps the
    /// same interpreter.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`CompiledKernel::run`].
    pub fn run_profiled(
        &self,
        input: &ExecInput<'_>,
    ) -> Result<(ExecOutput, rf_tile::ExecProfile), ExecError> {
        let program = self
            .program
            .as_ref()
            .ok_or_else(|| ExecError::NotExecutable {
                program: self.name.clone(),
            })?;
        rf_tile::exec::execute_profiled(program, input)
    }
}

/// Clamps an attention tuning point to the shape, exactly as the tuner's
/// canonicalization hook does, and builds the lowering tiling for it.
fn attention_tiling_for(shape: &AttentionShape, point: &TuningPoint) -> AttentionTiling {
    AttentionTiling {
        block_q: point.block_rows.min(shape.q_len).max(1),
        block_kv: point.block_axis.min(shape.kv_len).max(1),
        threads: point.threads,
        pipeline_depth: point.pipeline_depth,
    }
}

/// Lowers an attention shape at one tuning point to a fully-bound program:
/// the Figure 12b/13b tile structure plus the [`ExecBinding`] the VM needs.
fn bound_attention_program(shape: &AttentionShape, point: &TuningPoint) -> TileProgram {
    let tiling = attention_tiling_for(shape, point);
    let mut program = attention_program(shape, &tiling, point.strategy());
    program.binding = Some(ExecBinding {
        semantics: Semantics::Attention {
            qk_dim: shape.qk_dim,
            head_dim: shape.head_dim,
        },
        rows: shape.q_len,
        axis_len: shape.kv_len,
        block_rows: tiling.block_q,
        block_axis: tiling.block_kv,
        segments: (point.segments.max(1) as usize).min(shape.kv_len.max(1)),
    });
    program
}

/// The tensorization config a cascade tuning point lowers with.
fn cascade_config(point: &TuningPoint, element_bytes: u32) -> TensorizeConfig {
    TensorizeConfig {
        block_rows: point.block_rows,
        block_axis: point.block_axis,
        threads_per_block: point.threads,
        pipeline_depth: point.pipeline_depth,
        element_bytes,
        incremental: true,
    }
}

/// Lowers a row-parallel cascade at one tuning point to a fully-bound program
/// (the tensorization pass plus the [`ExecBinding`]).
fn bound_cascade_program(
    name: &str,
    num_reductions: usize,
    rows: usize,
    axis_len: usize,
    element_bytes: u32,
    semantics: Semantics,
    point: &TuningPoint,
) -> TileProgram {
    let cfg = cascade_config(point, element_bytes);
    let segments = (point.segments.max(1) as usize).min(axis_len.max(1));
    let mut program = cascade_program(
        name,
        num_reductions,
        rows,
        axis_len,
        Mode::Incremental,
        point.strategy(),
        &cfg,
    );
    program.binding = Some(ExecBinding {
        semantics,
        rows,
        axis_len,
        block_rows: point.block_rows.min(rows).max(1),
        block_axis: point.block_axis.min(axis_len.div_ceil(segments)).max(1),
        segments,
    });
    program
}

/// The fully-bound executable tile program for `workload` at an arbitrary
/// tuning point — the artifact [`compile_workload`] attaches for the winning
/// point, exposed so verification harnesses can pin the point themselves and
/// prove that tuning choices change cost, never results.
pub fn executable_program(workload: &Workload, point: &TuningPoint) -> TileProgram {
    let name = workload.name();
    // The per-family reduction count comes from the canonical cascade spec
    // (`Workload::cascade_spec`), not a hand-maintained table.
    let num = workload.lowered_reductions();
    match workload {
        Workload::Mha(c) => bound_attention_program(&AttentionShape::from_mha(c), point),
        Workload::Mla(c) => bound_attention_program(&AttentionShape::from_mla(c), point),
        Workload::Softmax { rows, len } => {
            bound_cascade_program(&name, num, *rows, *len, 2, Semantics::Softmax, point)
        }
        Workload::Variance(c) => {
            bound_cascade_program(&name, num, c.bs, c.l, 4, Semantics::Variance, point)
        }
        Workload::Moe(c) => bound_cascade_program(
            &name,
            num,
            c.s,
            c.en,
            2,
            Semantics::Routing { topk: c.topk },
            point,
        ),
        Workload::Quant(c) => bound_cascade_program(
            &name,
            num,
            c.m,
            c.k,
            1,
            Semantics::QuantGemm { n: c.n },
            point,
        ),
        Workload::Inertia(c) => bound_cascade_program(
            &name,
            num,
            c.bs,
            c.n,
            4,
            Semantics::Inertia { dim: c.dim },
            point,
        ),
    }
}

fn tuner_for(arch: &GpuArch, class: &'static str, opts: &CompileOptions) -> AutoTuner {
    let mut tuner = AutoTuner::new(arch.clone()).with_mode(opts.mode);
    if let Some(cache) = &opts.tuning_cache {
        tuner = tuner.with_cache(Arc::clone(cache), class);
    }
    tuner
}

/// The tuned path shared by attention and cascades: search with `profile`
/// costing each candidate in closed form (see `lower.rs`), then lower only
/// the winner — whose real profile must be the one the search saw.
fn tune_then_lower(
    name: &str,
    tuner: AutoTuner,
    hooks: TuneHooks<'_>,
    profile: impl Fn(&TuningPoint) -> KernelProfile,
    lower: impl FnOnce(&TuningPoint) -> TileProgram,
) -> CompiledKernel {
    let tune_started = Instant::now();
    let choice = tuner.tune_with_hooks(&profile, hooks);
    let tune_us = tune_started.elapsed().as_secs_f64() * 1e6;
    let program = lower(&choice.point);
    debug_assert_eq!(
        choice.profile,
        KernelProfile {
            // The §4.4 rating is the caller's, not derived from the program.
            compute_efficiency: choice.profile.compute_efficiency,
            ..KernelProfile::from_tile_program(&program)
        },
        "closed-form profile out of sync with the lowering at {:?}",
        choice.point
    );
    CompiledKernel {
        name: name.to_string(),
        program: Some(program),
        profile: choice.profile.clone(),
        latency_us: choice.latency_us,
        tuning: choice,
        timing: CompileTiming {
            total_us: 0.0,
            tune_us,
        },
    }
}

fn tuned_attention(
    shape: AttentionShape,
    arch: &GpuArch,
    name: &str,
    class: &'static str,
    opts: &CompileOptions,
) -> CompiledKernel {
    // Canonicalization mirrors the clamps `attention_program` applies, so two
    // raw points building the identical kernel are evaluated once.
    let normalize = |p: &TuningPoint| TuningPoint {
        block_rows: p.block_rows.min(shape.q_len).max(1),
        block_axis: p.block_axis.min(shape.kv_len).max(1),
        threads: p.threads,
        pipeline_depth: p.pipeline_depth,
        segments: p.segments.max(1),
    };
    // Exactly the shared-memory footprint of the Q/K/V staging buffers the
    // lowering allocates (the combine kernel uses no shared memory).
    let footprint = |p: &TuningPoint| PointFootprint {
        threads_per_block: p.threads,
        shared_mem_per_block: 2
            * (p.block_rows * shape.qk_dim
                + p.block_axis * shape.qk_dim
                + p.block_axis * shape.head_dim) as u64,
    };
    let profile = |p: &TuningPoint| KernelProfile {
        // Hardware-aware implementation selection (§4.4): MMA/WGMMA mapping
        // and cp.async/TMA copies lift the fused kernel close to peak.
        compute_efficiency: 0.75,
        ..attention_profile(&shape, &attention_tiling_for(&shape, p), p.strategy())
    };
    let hooks = TuneHooks {
        normalize: Some(&normalize),
        footprint: Some(&footprint),
    };
    tune_then_lower(name, tuner_for(arch, class, opts), hooks, profile, |p| {
        bound_attention_program(&shape, p)
    })
}

#[allow(clippy::too_many_arguments)]
fn tuned_cascade(
    name: &str,
    num_reductions: usize,
    rows: usize,
    axis_len: usize,
    semantics: Semantics,
    arch: &GpuArch,
    class: &'static str,
    opts: &CompileOptions,
) -> CompiledKernel {
    const ELEMENT_BYTES: u32 = 2;
    // Mirror the clamps of `tensorize_cascade`: the cascade is lowered with
    // `rows * segments` effective rows over `ceil(axis_len / segments)` axis
    // elements per segment, so larger tile sizes collapse onto those bounds.
    let normalize = |p: &TuningPoint| {
        let segments = p.segments.max(1);
        TuningPoint {
            block_rows: p.block_rows.min(rows * segments as usize).max(1),
            block_axis: p
                .block_axis
                .min(axis_len.div_ceil(segments as usize))
                .max(1),
            threads: p.threads,
            pipeline_depth: p.pipeline_depth,
            segments,
        }
    };
    // The incremental lowering stages exactly one input tile in shared memory
    // (the combine kernel uses none).
    let footprint = |p: &TuningPoint| PointFootprint {
        threads_per_block: p.threads,
        shared_mem_per_block: (p.block_rows * p.block_axis) as u64 * ELEMENT_BYTES as u64,
    };
    let profile = |p: &TuningPoint| {
        let cfg = cascade_config(p, ELEMENT_BYTES);
        cascade_profile(name, num_reductions, rows, axis_len, p.strategy(), &cfg)
    };
    let hooks = TuneHooks {
        normalize: Some(&normalize),
        footprint: Some(&footprint),
    };
    tune_then_lower(name, tuner_for(arch, class, opts), hooks, profile, |p| {
        bound_cascade_program(
            name,
            num_reductions,
            rows,
            axis_len,
            ELEMENT_BYTES,
            semantics,
            p,
        )
    })
}

/// Builds a single fused-kernel profile from a workload's minimal traffic and
/// flop accounting (used for the GEMM-dominated workloads whose fused kernels
/// load every operand exactly once).
fn fused_profile_from_accounting(
    name: &str,
    flops: u64,
    hbm_bytes: u64,
    blocks: u64,
    precision: &'static str,
    arch: &GpuArch,
) -> CompiledKernel {
    let profile = KernelProfile {
        name: name.to_string(),
        flops,
        hbm_bytes,
        blocks: blocks.max(64),
        threads_per_block: 256,
        shared_mem_per_block: 64 * 1024,
        precision,
        compute_efficiency: 0.72,
        overlap: 0.9,
        launches: 1,
    };
    let latency_us = estimate_latency(arch, &profile).total_us;
    let tuning = TuningChoice {
        point: TuningPoint {
            block_rows: 128,
            block_axis: 128,
            threads: 256,
            pipeline_depth: 2,
            segments: 1,
        },
        profile: profile.clone(),
        latency_us,
        evaluated: 1,
        space_size: 1,
        mode: SearchMode::Exhaustive,
    };
    CompiledKernel {
        name: name.to_string(),
        program: None,
        profile,
        latency_us,
        tuning,
        timing: CompileTiming::default(),
    }
}

/// Compiles a workload with RedFuser for one architecture: lowering, strategy
/// selection and auto-tuning with the default [`CompileOptions`] (guided
/// search, no warm-start cache), returning the tuned fused kernel.
pub fn compile_workload(workload: &Workload, arch: &GpuArch) -> CompiledKernel {
    compile_workload_with(workload, arch, &CompileOptions::default())
}

/// Like [`compile_workload`], with explicit tuner options (search mode,
/// warm-start [`TuningCache`]).
pub fn compile_workload_with(
    workload: &Workload,
    arch: &GpuArch,
    opts: &CompileOptions,
) -> CompiledKernel {
    let compile_started = Instant::now();
    let class = workload.class();
    let mut kernel = match workload {
        Workload::Mha(c) => tuned_attention(
            AttentionShape::from_mha(c),
            arch,
            &workload.name(),
            class,
            opts,
        ),
        Workload::Mla(c) => tuned_attention(
            AttentionShape::from_mla(c),
            arch,
            &workload.name(),
            class,
            opts,
        ),
        Workload::Softmax { rows, len } => tuned_cascade(
            &workload.name(),
            workload.lowered_reductions(),
            *rows,
            *len,
            Semantics::Softmax,
            arch,
            class,
            opts,
        ),
        Workload::Moe(c) => {
            // Scoring GEMM + softmax + top-k fused into one pass over experts.
            let correction_flops = 6 * (c.s * c.en) as u64;
            fused_profile_from_accounting(
                &workload.name(),
                c.flops() + correction_flops,
                c.min_bytes(Precision::Fp16),
                (c.s as u64).div_ceil(2),
                "fp16",
                arch,
            )
        }
        Workload::Quant(c) => {
            let correction_flops = 2 * (c.m * c.n) as u64;
            fused_profile_from_accounting(
                &workload.name(),
                c.flops() + correction_flops,
                c.min_bytes(),
                ((c.m / 128).max(1) * (c.n / 128).max(1)) as u64,
                "fp8",
                arch,
            )
        }
        Workload::Variance(c) => fused_profile_from_accounting(
            &workload.name(),
            c.flops(),
            c.min_bytes(),
            (c.bs as u64).max(64),
            "fp32",
            arch,
        ),
        Workload::Inertia(c) => fused_profile_from_accounting(
            &workload.name(),
            c.flops(),
            c.min_bytes(),
            (c.bs as u64).max(64),
            "fp32",
            arch,
        ),
    };
    // Every compiled kernel ships an executable program: the GEMM-dominated
    // workloads keep their traffic-accounting cost profile but are lowered at
    // the chosen point so the runtime can interpret them like everything else.
    if kernel.program.is_none() {
        kernel.program = Some(executable_program(workload, &kernel.tuning.point));
    }
    kernel.timing.total_us = compile_started.elapsed().as_secs_f64() * 1e6;
    kernel
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_baselines::{mha_op_list, moe_op_list, quant_op_list, CompilerBaseline};
    use rf_gpusim::sequence_latency;
    use rf_workloads::{mha_configs, mla_configs, moe_configs, quant_configs};

    #[test]
    fn redfuser_beats_compiler_baselines_on_attention() {
        let arch = GpuArch::a10();
        for config in mha_configs().iter().take(3) {
            let fused = compile_workload(&Workload::Mha(config.clone()), &arch);
            let eager = sequence_latency(
                &arch,
                &CompilerBaseline::PyTorchEager.kernels(&mha_op_list(config)),
            );
            let dynamo = sequence_latency(
                &arch,
                &CompilerBaseline::Dynamo.kernels(&mha_op_list(config)),
            );
            assert!(
                fused.latency_us < dynamo.min(eager),
                "{}: fused must win",
                config.name
            );
        }
    }

    #[test]
    fn redfuser_is_close_to_flash_attention2() {
        let arch = GpuArch::a10();
        let config = &mha_configs()[1];
        let fused = compile_workload(&Workload::Mha(config.clone()), &arch);
        let fa2 = estimate_latency(&arch, &rf_baselines::flash_attention2_profile(config)).total_us;
        let ratio = fa2 / fused.latency_us;
        assert!((0.7..=1.6).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn multi_segment_helps_low_concurrency_decode() {
        // With very few attention heads the Single-Segment strategy cannot
        // fill the GPU; splitting the KV axis across blocks recovers
        // utilisation (the FlashDecoding argument, §4.3).
        use crate::lower::{attention_program, AttentionShape, AttentionTiling};
        use crate::strategy::Strategy;
        let arch = GpuArch::h800();
        let shape = AttentionShape {
            heads: 16,
            q_len: 1,
            kv_len: 8192,
            head_dim: 512,
            qk_dim: 576,
        };
        let tiling = AttentionTiling {
            block_kv: 64,
            ..AttentionTiling::default()
        };
        let single = KernelProfile::from_tile_program(&attention_program(
            &shape,
            &tiling,
            Strategy::SingleSegment,
        ));
        let multi = KernelProfile::from_tile_program(&attention_program(
            &shape,
            &tiling,
            Strategy::MultiSegment { segments: 8 },
        ));
        let single_us = estimate_latency(&arch, &single).total_us;
        let multi_us = estimate_latency(&arch, &multi).total_us;
        assert!(multi_us < single_us, "multi={multi_us} single={single_us}");
        // And the end-to-end compilation of a real decode config stays finite.
        let config = mla_configs().into_iter().find(|c| c.name == "L9").unwrap();
        let fused = compile_workload(&Workload::Mla(config), &arch);
        assert!(fused.latency_us.is_finite());
    }

    #[test]
    fn moe_and_quant_beat_their_baselines() {
        let a10 = GpuArch::a10();
        let h800 = GpuArch::h800();
        let moe = &moe_configs()[0];
        let fused = compile_workload(&Workload::Moe(moe.clone()), &a10);
        let dynamo = sequence_latency(&a10, &CompilerBaseline::Dynamo.kernels(&moe_op_list(moe)));
        assert!(fused.latency_us < dynamo);
        let quant = &quant_configs()[4];
        let fused = compile_workload(&Workload::Quant(quant.clone()), &h800);
        let tvm = sequence_latency(&h800, &CompilerBaseline::Tvm.kernels(&quant_op_list(quant)));
        assert!(fused.latency_us < tvm);
    }

    #[test]
    fn workload_names_are_descriptive() {
        assert_eq!(Workload::Softmax { rows: 4, len: 8 }.name(), "softmax_4x8");
        assert!(Workload::Mha(mha_configs()[0].clone())
            .name()
            .contains("H1"));
    }

    #[test]
    fn cascade_specs_are_fusable_and_drive_the_lowering_counts() {
        use rf_workloads::{inertia_tiny, mha_tiny, mla_tiny, moe_tiny, variance_tiny};
        let workloads = [
            Workload::Mha(mha_tiny()),
            Workload::Mla(mla_tiny()),
            Workload::Moe(moe_tiny()),
            Workload::Quant(quant_configs()[0].clone()),
            Workload::Variance(variance_tiny()),
            Workload::Inertia(inertia_tiny()),
            Workload::Softmax { rows: 4, len: 8 },
        ];
        for w in &workloads {
            let spec = w.cascade_spec();
            assert!(
                rf_fusion::analyze_cascade(&spec).is_ok(),
                "{}: canonical cascade must be fusable",
                w.name()
            );
            // The lowering count is derived from the spec (plus the documented
            // top-k selection pass for routing), never hand-maintained.
            let extra = usize::from(matches!(w, Workload::Moe(_)));
            assert_eq!(w.lowered_reductions(), spec.len() + extra, "{}", w.name());
        }
        // Families sharing a class share one spec.
        assert_eq!(
            Workload::Mha(mha_tiny()).cascade_spec().name,
            Workload::Mla(mla_tiny()).cascade_spec().name
        );
    }

    #[test]
    fn plan_keys_distinguish_workload_and_arch() {
        use std::collections::HashSet;
        let softmax = Workload::Softmax { rows: 8, len: 16 };
        let moe = Workload::Moe(moe_configs()[0].clone());
        let mut keys = HashSet::new();
        for arch in GpuArch::all() {
            keys.insert(PlanKey::new(&softmax, &arch));
            keys.insert(PlanKey::new(&moe, &arch));
        }
        assert_eq!(keys.len(), 8);
        // Same workload + same arch collapses to the same key.
        assert_eq!(
            PlanKey::new(&softmax, &GpuArch::a10()),
            PlanKey::new(&softmax.clone(), &GpuArch::a10())
        );
        // Tweaking any numeric parameter of a preset changes the key even
        // though the name is unchanged.
        let mut tweaked = GpuArch::a10();
        tweaked.mem_bandwidth_bytes_per_us *= 2.0;
        assert_ne!(
            PlanKey::new(&softmax, &tweaked),
            PlanKey::new(&softmax, &GpuArch::a10())
        );
    }

    #[test]
    fn guided_search_matches_oracle_on_tiny_configs() {
        // The guided search within 5% of the exhaustive oracle on every
        // tuned tiny workload, with fewer candidates costed.
        use rf_workloads::{mha_tiny, mla_tiny};
        for arch in [GpuArch::a10(), GpuArch::h800()] {
            for workload in [
                Workload::Mha(mha_tiny()),
                Workload::Mla(mla_tiny()),
                Workload::Softmax { rows: 32, len: 128 },
            ] {
                let guided = compile_workload(&workload, &arch);
                let oracle = compile_workload_with(
                    &workload,
                    &arch,
                    &CompileOptions {
                        mode: SearchMode::Exhaustive,
                        ..CompileOptions::default()
                    },
                );
                assert!(
                    guided.latency_us <= oracle.latency_us * 1.05,
                    "{}: guided {} vs oracle {}",
                    workload.name(),
                    guided.latency_us,
                    oracle.latency_us
                );
                assert!(
                    guided.tuning.evaluated < oracle.tuning.evaluated,
                    "{}: guided must evaluate fewer candidates",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn dedup_shrinks_the_search_on_clamped_shapes() {
        // The tiny MLA decode shape clamps every oversized tile size, so the
        // canonicalization stage must collapse large parts of the space.
        let oracle = compile_workload_with(
            &Workload::Mla(rf_workloads::mla_tiny()),
            &GpuArch::a10(),
            &CompileOptions {
                mode: SearchMode::Exhaustive,
                ..CompileOptions::default()
            },
        );
        assert!(
            oracle.tuning.evaluated * 2 <= oracle.tuning.space_size,
            "evaluated {} of {} raw points",
            oracle.tuning.evaluated,
            oracle.tuning.space_size
        );
    }

    #[test]
    fn closed_forms_equal_the_lowering_over_the_whole_space() {
        // The tuner costs candidates with `attention_profile` /
        // `cascade_profile` and ships the lowering of the winner: the two
        // must agree on every field of the profile at every point it can
        // visit — raw (the closed form's clamps against the lowering's) and
        // clamped to the shape (the path the tuner and the shipped program
        // take).
        use crate::tuner::TuningSpace;
        use rf_workloads::{mha_tiny, mla_tiny};
        let points = TuningSpace::default().points();

        let mut shapes: Vec<AttentionShape> = Vec::new();
        shapes.extend(mha_configs().iter().map(AttentionShape::from_mha));
        shapes.extend(mla_configs().iter().map(AttentionShape::from_mla));
        shapes.push(AttentionShape::from_mha(&mha_tiny()));
        shapes.push(AttentionShape::from_mla(&mla_tiny()));
        shapes.push(AttentionShape {
            heads: 3,
            q_len: 5,
            kv_len: 77,
            head_dim: 7,
            qk_dim: 9,
        });
        for shape in &shapes {
            for p in &points {
                let raw = AttentionTiling {
                    block_q: p.block_rows,
                    block_kv: p.block_axis,
                    threads: p.threads,
                    pipeline_depth: p.pipeline_depth,
                };
                assert_eq!(
                    attention_profile(shape, &raw, p.strategy()),
                    KernelProfile::from_tile_program(&attention_program(shape, &raw, p.strategy())),
                    "{shape:?} at raw {p:?}"
                );
                assert_eq!(
                    attention_profile(shape, &attention_tiling_for(shape, p), p.strategy()),
                    KernelProfile::from_tile_program(&bound_attention_program(shape, p)),
                    "{shape:?} at clamped {p:?}"
                );
            }
        }

        for (rows, len) in [
            (512usize, 4096usize),
            (64, 1024),
            (4, 8192),
            (1, 32768),
            (32, 128),
            (4, 8),
            (3, 7),
            (1, 1),
        ] {
            // One element width per reduction count covers fp32/fp16/fp8.
            for (reductions, element_bytes) in [(1, 4), (2, 2), (3, 1)] {
                for raw in &points {
                    let segments = raw.segments as usize;
                    let clamped = TuningPoint {
                        block_rows: raw.block_rows.min(rows * segments).max(1),
                        block_axis: raw.block_axis.min(len.div_ceil(segments)).max(1),
                        ..*raw
                    };
                    for p in [raw, &clamped] {
                        assert_eq!(
                            cascade_profile(
                                "c",
                                reductions,
                                rows,
                                len,
                                p.strategy(),
                                &cascade_config(p, element_bytes)
                            ),
                            KernelProfile::from_tile_program(&bound_cascade_program(
                                "c",
                                reductions,
                                rows,
                                len,
                                element_bytes,
                                Semantics::Softmax,
                                p
                            )),
                            "{rows}x{len}, {reductions} reductions at {p:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fp8_quant_tile_programs_are_not_costed_at_fp16_rate() {
        // Regression: `KernelProfile::from_tile_program` hardcoded fp16, so
        // FP8 quant-GEMM tile programs were rated against fp16 throughput.
        use crate::strategy::Strategy;
        let c = &quant_configs()[0];
        let arch = GpuArch::h800();
        let fp8_cfg = TensorizeConfig {
            element_bytes: 1,
            ..TensorizeConfig::default()
        };
        let fp16_cfg = TensorizeConfig {
            element_bytes: 2,
            ..TensorizeConfig::default()
        };
        let fp8 = cascade_program(
            "quant",
            2,
            c.m,
            c.k,
            Mode::Incremental,
            Strategy::SingleSegment,
            &fp8_cfg,
        );
        let fp16 = cascade_program(
            "quant",
            2,
            c.m,
            c.k,
            Mode::Incremental,
            Strategy::SingleSegment,
            &fp16_cfg,
        );
        let fp8_profile = KernelProfile::from_tile_program(&fp8);
        assert_eq!(fp8_profile.precision, "fp8");
        assert_eq!(KernelProfile::from_tile_program(&fp16).precision, "fp16");
        // The exact regression: the same fp8 kernel rated at fp16 throughput
        // (what the hardcoded tag used to do) must be estimated slower than
        // the correct fp8 rating on an fp8-capable part.
        let misrated = KernelProfile {
            precision: "fp16",
            ..fp8_profile.clone()
        };
        let fp8_us = estimate_latency(&arch, &fp8_profile).total_us;
        let misrated_us = estimate_latency(&arch, &misrated).total_us;
        assert!(
            fp8_us < misrated_us,
            "fp8 {fp8_us} vs fp16-misrated {misrated_us}"
        );
        // And the end-to-end quant compilation keeps its fp8 rating.
        let compiled = compile_workload(&Workload::Quant(c.clone()), &arch);
        assert_eq!(compiled.profile.precision, "fp8");
    }

    #[test]
    fn tuning_cache_warm_starts_across_shapes_of_one_class() {
        let arch = GpuArch::a10();
        let cache = std::sync::Arc::new(TuningCache::new());
        let opts = CompileOptions {
            tuning_cache: Some(std::sync::Arc::clone(&cache)),
            ..CompileOptions::default()
        };
        let cold = compile_workload_with(
            &Workload::Softmax {
                rows: 512,
                len: 2048,
            },
            &arch,
            &opts,
        );
        let warm = compile_workload_with(
            &Workload::Softmax {
                rows: 512,
                len: 4096,
            },
            &arch,
            &opts,
        );
        let stats = cache.stats();
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.seeded, 1, "second compile warm-starts");
        assert_eq!(stats.insertions, 2);
        assert_eq!(stats.entries, 1, "one (class, arch) key");
        assert!(cold.latency_us.is_finite() && warm.latency_us.is_finite());
    }

    #[test]
    fn compile_timing_accounts_tune_inside_total() {
        let arch = GpuArch::a10();
        // A tuned cascade searches a real space: tune time is non-zero and
        // bounded by the total compile wall time.
        let kernel = compile_workload(&Workload::Softmax { rows: 32, len: 128 }, &arch);
        assert!(kernel.timing.total_us > 0.0);
        assert!(kernel.timing.tune_us > 0.0);
        assert!(kernel.timing.total_us >= kernel.timing.tune_us);
        // Accounting-only compilations skip the tuner entirely.
        let moe = compile_workload(&Workload::Moe(rf_workloads::moe_tiny()), &arch);
        assert_eq!(moe.timing.tune_us, 0.0);
        assert!(moe.timing.total_us > 0.0);
    }
}
