//! Code generation: lowering fusion plans to tile programs, the execution
//! strategies, and the auto-tuner.
//!
//! This crate is the back half of the RedFuser pipeline (§4.3–4.4): it takes
//! the fused computation derived by `rf-fusion`, builds tile-level programs
//! (`rf-tile`), chooses between the **Single-Segment** and **Multi-Segment**
//! strategies and between **incremental** and **non-incremental** computation,
//! applies the fusion level (intra-thread / intra-warp / intra-block /
//! inter-block) and auto-tunes the launch parameters against the analytical
//! GPU model (`rf-gpusim`).
//!
//! Modules:
//!
//! * [`strategy`] — the computation-mode and fusion-level enums and their
//!   feasibility rules (the Single-/Multi-Segment strategy is a tuning
//!   point's segment count).
//! * [`lower`] — workload-specific lowering to tile programs at one
//!   [`TuningPoint`] (the attention lowering reproduces Figures 12b and 13b;
//!   row cascades go through the tensorization pass), with the closed-form
//!   costs the tuner searches with.
//! * [`tuner`] — the empirical search space of §4.4 and the runtime
//!   configuration selection.
//! * [`compile`] — the top-level `compile_workload` entry point used by the
//!   benchmarks and examples.
//! * [`level`] — the fusion-level latency model behind Figure 6a and the
//!   incremental/non-incremental comparison behind Figure 6b.

#![forbid(unsafe_code)]

pub mod compile;
pub mod level;
pub mod lower;
pub mod strategy;
pub mod tuner;

pub use compile::{
    compile_workload, compile_workload_with, executable_program, CompileOptions, CompiledKernel,
    PlanKey, Workload,
};
pub use level::{fusion_level_latency, incremental_sweep, FusionLevelReport, IncrementalPoint};
pub use lower::{attention_program, cascade_program, AttentionShape};
pub use strategy::{FusionLevel, Mode};
pub use tuner::{
    AutoTuner, PointFootprint, SearchMode, TuneHooks, TuningCache, TuningCacheStats, TuningChoice,
    TuningPoint, TuningSpace,
};

#[cfg(test)]
mod tensorize;

#[cfg(test)]
mod tests {
    use super::*;
    use rf_gpusim::GpuArch;

    #[test]
    fn compile_produces_finite_latency() {
        let arch = GpuArch::a10();
        let workload = Workload::Softmax {
            rows: 1024,
            len: 4096,
        };
        let compiled = compile_workload(&workload, &arch);
        assert!(compiled.latency_us.is_finite());
        assert!(compiled.latency_us > 0.0);
    }
}
