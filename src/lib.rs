//! # RedFuser
//!
//! A pure-Rust reproduction of *RedFuser: An Automatic Operator Fusion Framework
//! for Cascaded Reductions on AI Accelerators* (ASPLOS 2026).
//!
//! RedFuser takes a **cascaded reduction** — a chain of reductions where each
//! reduction's per-element map function depends on the results of the earlier
//! reductions (safe softmax, attention, MoE routing, FP8 quant + GEMM, …) — and
//! automatically:
//!
//! 1. decides whether the chain is fusable (the **ACRF** fixed-point analysis),
//! 2. derives the **fused** reduction expressions (a single reduction tree) and
//!    the **incremental** update form (constant on-chip state),
//! 3. lowers the result through a scalar loop-nest IR and a tile-level IR into a
//!    kernel that is executed numerically on the CPU and costed on an analytical
//!    GPU performance model.
//!
//! The workspace is organised as a set of focused crates, all re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`algebra`] | `rf-algebra` | binary/reduce operators, monoid and distributivity laws, Table 1 |
//! | [`expr`] | `rf-expr` | symbolic scalar expression engine |
//! | [`fusion`] | `rf-fusion` | cascade model, reduction trees, ACRF, fused + incremental evaluators |
//! | [`graph`] | `rf-graph` | operator-graph frontend: cascade detection and region partitioning |
//! | [`tir`] | `rf-tir` | scalar loop-nest IR, reduction-pattern detection, fused-IR generation |
//! | [`tile`] | `rf-tile` | tile-level IR (TileOps), cost accounting, interpreter |
//! | [`gpusim`] | `rf-gpusim` | analytical GPU performance model (A10/A100/H800/MI308X) |
//! | [`codegen`] | `rf-codegen` | lowering at a tuning point (incl. tensorization), Single/Multi-Segment strategies, fusion levels, auto-tuner |
//! | [`kernels`] | `rf-kernels` | unfused CPU oracles (the definition, one pass per reduction) |
//! | [`runtime`] | `rf-runtime` | continuous-batching serving engine: unified submission API, priority lanes, admission control, plan cache, metrics |
//! | [`trace`] | `rf-trace` | tracing/telemetry: span collector, HDR-style histograms, Chrome trace export |
//! | [`baselines`] | `rf-baselines` | eager / inductor-like / tvm-like compiler behaviour models |
//! | [`workloads`] | `rf-workloads` | paper configuration tables and data generation |
//!
//! # Quickstart
//!
//! ```
//! use redfuser::fusion::{CascadeSpec, acrf::analyze_cascade};
//! use redfuser::fusion::patterns;
//!
//! // Safe softmax = max reduction followed by a sum-of-exp reduction.
//! let cascade: CascadeSpec = patterns::safe_softmax();
//! let plan = analyze_cascade(&cascade).expect("softmax is fusable");
//! assert_eq!(plan.reductions.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub use rf_algebra as algebra;
pub use rf_baselines as baselines;
pub use rf_codegen as codegen;
pub use rf_expr as expr;
pub use rf_fusion as fusion;
pub use rf_gpusim as gpusim;
pub use rf_graph as graph;
pub use rf_kernels as kernels;
pub use rf_runtime as runtime;
pub use rf_tile as tile;
pub use rf_tir as tir;
pub use rf_trace as trace;
pub use rf_workloads as workloads;

/// Crate version of the facade, mirroring the workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_nonempty() {
        assert!(!super::VERSION.is_empty());
    }
}
