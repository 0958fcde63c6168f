//! Top-level compilation entry point: workload → tuned fused kernel.

use std::sync::Arc;

use rf_gpusim::{estimate_latency, GpuArch, KernelProfile};
use rf_tile::exec::{ExecBinding, ExecError, ExecInput, ExecOutput, Semantics};
use rf_tile::TileProgram;
use rf_workloads::{
    InertiaConfig, MhaConfig, MlaConfig, MoeConfig, Precision, QuantGemmConfig, VarianceConfig,
};

use crate::lower::{
    attention_footprint, attention_profile, canonical_attention_point, canonical_cascade_point,
    cascade_footprint, cascade_profile, cascade_row_block, lower_attention, lower_cascade,
    AttentionShape,
};
use crate::strategy::Mode;
use crate::tuner::{AutoTuner, SearchMode, TuneHooks, TuningCache, TuningChoice, TuningPoint};

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

    /// The reduction semantics the executable program binds — with the inner
    /// dimensions this workload fixes, the family's input contract
    /// ([`Semantics::check`]).
    #[inline]
    pub fn semantics(&self) -> Semantics {
        match self {
            Workload::Mha(c) => Semantics::Attention {
                qk_dim: c.hd,
                head_dim: c.hd,
            },
            Workload::Mla(c) => Semantics::Attention {
                qk_dim: c.qk_dim(),
                head_dim: c.hd,
            },
            Workload::Moe(c) => Semantics::Routing {
                topk: c.topk,
                hidden: c.hd,
            },
            Workload::Quant(c) => Semantics::QuantGemm { n: c.n },
            Workload::Variance(_) => Semantics::Variance,
            Workload::Inertia(c) => Semantics::Inertia { dim: c.dim },
            Workload::Softmax { .. } => Semantics::Softmax,
        }
    }

    /// The `(rows, axis length)` a request for this workload must bring, in
    /// the terms of [`Semantics::check`]'s result; `None` where any count is
    /// served (variance, routing and quant + GEMM take any number of rows,
    /// inertia any number of particles).
    #[inline]
    pub fn fixed_extents(&self) -> (Option<usize>, Option<usize>) {
        match self {
            Workload::Mha(c) => (Some(c.q), Some(c.kv)),
            Workload::Mla(c) => (Some(1), Some(c.kv)),
            Workload::Moe(c) => (None, Some(c.en)),
            Workload::Quant(c) => (None, Some(c.k)),
            Workload::Variance(c) => (None, Some(c.l)),
            Workload::Inertia(_) => (None, None),
            Workload::Softmax { rows, len } => (Some(*rows), Some(*len)),
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
    /// VM's errors ([`ExecError::Input`] for tensors that break the binding's
    /// [`Semantics::check`], [`ExecError::Value`] for a massless inertia
    /// system).
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
    /// ([`rf_tile::ExecProfile`]): per-op invocations and tensor bytes as the
    /// kernel's loops counted them, plus the call's measured wall time. The
    /// numeric output is bit-identical to [`CompiledKernel::run`]'s — the
    /// same kernels run with a counting tally.
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

/// The fully-bound executable tile program for `workload` at an arbitrary
/// tuning point — the artifact [`compile_workload`] attaches for the winning
/// point, exposed so verification harnesses can pin the point themselves and
/// prove that tuning choices change cost, never results. The point is
/// canonicalized once; the kernel and its [`ExecBinding`] both read the
/// canonical point.
pub fn executable_program(workload: &Workload, point: &TuningPoint) -> TileProgram {
    let attention = |shape: AttentionShape| {
        let p = canonical_attention_point(&shape, point);
        (lower_attention(&shape, &p), p.block_rows, p)
    };
    // The per-family reduction count comes from the canonical cascade spec
    // (`Workload::cascade_spec`), not a hand-maintained table.
    let cascade = |rows: usize, axis_len: usize, element_bytes: u32| {
        let p = canonical_cascade_point(rows, axis_len, point);
        let (name, num) = (workload.name(), workload.lowered_reductions());
        let mode = Mode::Incremental;
        let program = lower_cascade(&name, num, rows, axis_len, element_bytes, mode, &p);
        (program, cascade_row_block(rows, &p), p)
    };
    let (mut program, block_rows, p) = match workload {
        Workload::Mha(c) => attention(AttentionShape::from_mha(c)),
        Workload::Mla(c) => attention(AttentionShape::from_mla(c)),
        Workload::Softmax { rows, len } => cascade(*rows, *len, 2),
        Workload::Variance(c) => cascade(c.bs, c.l, 4),
        Workload::Moe(c) => cascade(c.s, c.en, 2),
        Workload::Quant(c) => cascade(c.m, c.k, 1),
        Workload::Inertia(c) => cascade(c.bs, c.n, 4),
    };
    program.binding = Some(ExecBinding {
        semantics: workload.semantics(),
        block_rows,
        block_axis: p.block_axis,
        segments: p.segments as usize,
    });
    program
}

/// The tuned path shared by attention and cascades: search with `profile`
/// costing each candidate in closed form (see `lower.rs`), then lower only
/// the winner through [`executable_program`] — whose real profile must be the
/// one the search saw.
fn tune_then_lower(
    workload: &Workload,
    arch: &GpuArch,
    opts: &CompileOptions,
    hooks: TuneHooks<'_>,
    profile: impl Fn(&TuningPoint) -> KernelProfile,
) -> CompiledKernel {
    let mut tuner = AutoTuner::new(arch.clone()).with_mode(opts.mode);
    if let Some(cache) = &opts.tuning_cache {
        tuner = tuner.with_cache(Arc::clone(cache), workload.class());
    }
    let choice = tuner.tune(&profile, hooks);
    let program = executable_program(workload, &choice.point);
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
        name: workload.name(),
        program: Some(program),
        profile: choice.profile.clone(),
        latency_us: choice.latency_us,
        tuning: choice,
    }
}

fn tuned_attention(
    workload: &Workload,
    shape: AttentionShape,
    arch: &GpuArch,
    opts: &CompileOptions,
) -> CompiledKernel {
    let profile = |p: &TuningPoint| KernelProfile {
        // Hardware-aware implementation selection (§4.4): MMA/WGMMA mapping
        // and cp.async/TMA copies lift the fused kernel close to peak.
        compute_efficiency: 0.75,
        ..attention_profile(&shape, p)
    };
    let hooks = TuneHooks {
        normalize: &|p| canonical_attention_point(&shape, p),
        footprint: &|p| attention_footprint(&shape, p),
    };
    tune_then_lower(workload, arch, opts, hooks, profile)
}

fn tuned_cascade(
    workload: &Workload,
    rows: usize,
    axis_len: usize,
    arch: &GpuArch,
    opts: &CompileOptions,
) -> CompiledKernel {
    const ELEMENT_BYTES: u32 = 2;
    let (name, num_reductions) = (&workload.name(), workload.lowered_reductions());
    let mode = Mode::Incremental;
    let profile = |p: &TuningPoint| {
        cascade_profile(name, num_reductions, rows, axis_len, ELEMENT_BYTES, mode, p)
    };
    let hooks = TuneHooks {
        normalize: &|p| canonical_cascade_point(rows, axis_len, p),
        footprint: &|p| cascade_footprint(axis_len, ELEMENT_BYTES, mode, p),
    };
    tune_then_lower(workload, arch, opts, hooks, profile)
}

/// Builds a single fused-kernel profile from a workload's minimal traffic and
/// flop accounting (used for the GEMM-dominated workloads whose fused kernels
/// load every operand exactly once). The kernel still ships the executable
/// program of its fixed point, so the runtime interprets it like every other.
fn fused_profile_from_accounting(
    workload: &Workload,
    flops: u64,
    hbm_bytes: u64,
    blocks: u64,
    precision: &'static str,
    arch: &GpuArch,
) -> CompiledKernel {
    let profile = KernelProfile {
        name: workload.name(),
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
    let point = TuningPoint {
        block_rows: 128,
        block_axis: 128,
        threads: 256,
        pipeline_depth: 2,
        segments: 1,
    };
    let tuning = TuningChoice {
        point,
        profile: profile.clone(),
        latency_us,
        evaluated: 1,
        space_size: 1,
    };
    CompiledKernel {
        name: workload.name(),
        program: Some(executable_program(workload, &point)),
        profile,
        latency_us,
        tuning,
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
    match workload {
        Workload::Mha(c) => tuned_attention(workload, AttentionShape::from_mha(c), arch, opts),
        Workload::Mla(c) => tuned_attention(workload, AttentionShape::from_mla(c), arch, opts),
        Workload::Softmax { rows, len } => tuned_cascade(workload, *rows, *len, arch, opts),
        Workload::Moe(c) => {
            // Scoring GEMM + softmax + top-k fused into one pass over experts.
            let correction_flops = 6 * (c.s * c.en) as u64;
            fused_profile_from_accounting(
                workload,
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
                workload,
                c.flops() + correction_flops,
                c.min_bytes(),
                ((c.m / 128).max(1) * (c.n / 128).max(1)) as u64,
                "fp8",
                arch,
            )
        }
        Workload::Variance(c) => fused_profile_from_accounting(
            workload,
            c.flops(),
            c.min_bytes(),
            (c.bs as u64).max(64),
            "fp32",
            arch,
        ),
        Workload::Inertia(c) => fused_profile_from_accounting(
            workload,
            c.flops(),
            c.min_bytes(),
            (c.bs as u64).max(64),
            "fp32",
            arch,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{attention_program, cascade_program};
    use crate::tuner::TuningSpace;
    use rf_baselines::{mha_op_list, CompilerBaseline};
    use rf_gpusim::sequence_latency;
    use rf_workloads::{mha_configs, mha_tiny, mla_configs, mla_tiny, moe_configs, quant_configs};

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
    fn multi_segment_helps_low_concurrency_decode() {
        // With very few attention heads the Single-Segment strategy cannot
        // fill the GPU; splitting the KV axis across blocks recovers
        // utilisation (the FlashDecoding argument, §4.3).
        let arch = GpuArch::h800();
        let shape = AttentionShape {
            heads: 16,
            q_len: 1,
            kv_len: 8192,
            head_dim: 512,
            qk_dim: 576,
        };
        let point = TuningPoint {
            block_rows: 128,
            block_axis: 64,
            threads: 256,
            pipeline_depth: 2,
            segments: 1,
        };
        let single = KernelProfile::from_tile_program(&attention_program(&shape, &point));
        let multi = KernelProfile::from_tile_program(&attention_program(
            &shape,
            &TuningPoint {
                segments: 8,
                ..point
            },
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
    fn workload_names_are_descriptive() {
        assert_eq!(Workload::Softmax { rows: 4, len: 8 }.name(), "softmax_4x8");
        assert!(Workload::Mha(mha_configs()[0].clone())
            .name()
            .contains("H1"));
    }

    #[test]
    fn cascade_specs_are_fusable_and_drive_the_lowering_counts() {
        use rf_workloads::{inertia_tiny, moe_tiny, variance_tiny};
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

    /// The closed-form tests' cascade shapes, `(rows, axis length)`: the
    /// ledger's softmax shapes and the degenerate ones.
    const CASCADE_SHAPES: [(usize, usize); 8] = [
        (512, 4096),
        (64, 1024),
        (4, 8192),
        (1, 32768),
        (32, 128),
        (4, 8),
        (3, 7),
        (1, 1),
    ];

    /// The closed-form tests' attention shapes: every Table 2a/2b config, the
    /// tiny ones and an odd one.
    fn attention_shapes() -> Vec<AttentionShape> {
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
        shapes
    }

    #[test]
    fn closed_forms_equal_the_lowering_over_the_whole_space() {
        // The tuner costs canonical candidates with `attention_profile` /
        // `cascade_profile` (their shared memory from the footprint hooks'
        // formulas) and ships the lowering of the winner: the closed form at
        // the canonical point must agree on every field of the profile with
        // the public lowering of every raw point of the space.
        let points = TuningSpace::PAPER.points();
        for shape in &attention_shapes() {
            for raw in &points {
                assert_eq!(
                    attention_profile(shape, &canonical_attention_point(shape, raw)),
                    KernelProfile::from_tile_program(&attention_program(shape, raw)),
                    "{shape:?} at {raw:?}"
                );
            }
        }

        for (rows, len) in CASCADE_SHAPES {
            // One element width per reduction count covers fp32/fp16/fp8.
            for (reductions, element_bytes) in [(1, 4), (2, 2), (3, 1)] {
                for raw in &points {
                    let p = canonical_cascade_point(rows, len, raw);
                    for mode in [Mode::Incremental, Mode::NonIncremental] {
                        let program =
                            cascade_program("c", reductions, rows, len, element_bytes, mode, raw);
                        assert_eq!(
                            cascade_profile("c", reductions, rows, len, element_bytes, mode, &p),
                            KernelProfile::from_tile_program(&program),
                            "{rows}x{len}, {reductions} reductions, {mode:?} at {raw:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn normalize_builds_the_identical_program() {
        // The tuner dedups through the `normalize` hook, so a raw point and
        // its canonical point must lower to the same executable program —
        // kernel and VM binding — or the dedup would drop a distinct kernel.
        let odd = MhaConfig {
            name: "odd",
            bs: 1,
            hn: 3,
            q: 5,
            kv: 77,
            hd: 7,
            model: "test",
        };
        let mut workloads: Vec<Workload> = (mha_configs().into_iter())
            .chain([mha_tiny(), odd])
            .map(Workload::Mha)
            .collect();
        workloads.extend(
            mla_configs()
                .into_iter()
                .chain([mla_tiny()])
                .map(Workload::Mla),
        );
        workloads.extend(CASCADE_SHAPES.map(|(rows, len)| Workload::Softmax { rows, len }));
        let normalize = |workload: &Workload, p: &TuningPoint| match workload {
            Workload::Mha(c) => canonical_attention_point(&AttentionShape::from_mha(c), p),
            Workload::Mla(c) => canonical_attention_point(&AttentionShape::from_mla(c), p),
            Workload::Softmax { rows, len } => canonical_cascade_point(*rows, *len, p),
            _ => unreachable!("only attention and softmax are tuned"),
        };
        for workload in &workloads {
            for p in TuningSpace::PAPER.points() {
                assert_eq!(
                    executable_program(workload, &p),
                    executable_program(workload, &normalize(workload, &p)),
                    "{} at {p:?}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn fp8_quant_tile_programs_are_not_costed_at_fp16_rate() {
        // Regression: `KernelProfile::from_tile_program` hardcoded fp16, so
        // FP8 quant-GEMM tile programs were rated against fp16 throughput.
        let c = &quant_configs()[0];
        let arch = GpuArch::h800();
        let point = TuningPoint {
            block_rows: 128,
            block_axis: 128,
            threads: 128,
            pipeline_depth: 2,
            segments: 1,
        };
        let lower = |bytes| cascade_program("quant", 2, c.m, c.k, bytes, Mode::Incremental, &point);
        let fp8_profile = KernelProfile::from_tile_program(&lower(1));
        assert_eq!(fp8_profile.precision, "fp8");
        assert_eq!(
            KernelProfile::from_tile_program(&lower(2)).precision,
            "fp16"
        );
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
}
