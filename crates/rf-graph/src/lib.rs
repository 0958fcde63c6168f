//! Operator-graph frontend: automatic cascade detection over whole
//! computation graphs.
//!
//! The compiler crates answer "how do I fuse this *given* cascade"; this
//! crate answers "where are the cascades in this *graph*" — the detect stage
//! that makes RedFuser's fusion automatic rather than pre-labelled. It is
//! organised as a pipeline:
//!
//! * [`graph`] — a small tensor-level operator IR ([`OpGraph`]): named
//!   inputs, elementwise glue ops, GEMMs, transposes, reshapes, slices and
//!   row-wise reductions, with eager shape checking and an unfused
//!   whole-graph reference evaluator.
//! * [`builders`] — ready-made unfused graphs for a transformer decoder
//!   layer, a mixture-of-experts block and an FP8-quantized MLP.
//! * [`detect`] — walks the graph, lifts dependency-connected reduction
//!   chains into [`rf_fusion::CascadeSpec`]s and proves (or refutes) each
//!   one with the real ACRF analysis ([`rf_fusion::analyze_cascade`]).
//! * [`mod@partition`] — greedily grows maximal fusable regions around the
//!   proved chains, lowers each region to an existing
//!   [`rf_codegen::Workload`] and emits a topologically-ordered
//!   [`GraphPlan`] of fused region steps and unfused glue ops.
//! * [`cost`] — analytical launch profiles for glue ops and for the
//!   fully-unfused baseline plan.
//!
//! The serving side lives in `rf-runtime`: a graph submission
//! (`Engine::submit` with `Submission::graph`) executes a [`GraphPlan`]
//! end-to-end, compiling each region through the ordinary pipeline (cached
//! in the engine's plan cache) and threading intermediate tensors between
//! steps.
//!
//! # Example: detecting and partitioning a transformer layer
//!
//! ```
//! use rf_graph::{builders, partition};
//!
//! let graph = builders::transformer_decoder_layer(8, 16, 32);
//! let plan = partition::partition(&graph);
//! // The attention core fuses into one MHA workload; projections, residual
//! // adds and the MLP stay glue.
//! assert_eq!(plan.fused_regions(), 1);
//! assert!(plan.glue_ops() > 0);
//! ```

#![forbid(unsafe_code)]

pub mod builders;
pub mod cost;
pub mod detect;
pub mod graph;
pub mod partition;

pub use cost::{glue_profile, unfused_profiles};
pub use detect::{chain_matches_spec, detect_cascades, CascadeCandidate};
pub use graph::{GraphError, MapOp, Node, NodeId, Op, OpGraph, Shape, ZipOp};
pub use partition::{partition, FusedRegion, GraphPlan, RegionKind, Step};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_compose() {
        let graph = builders::moe_block(4, 8, 4);
        let candidates = detect_cascades(&graph);
        assert!(candidates.iter().any(|c| c.is_fusable()));
        assert_eq!(partition(&graph).fused_regions(), 1);
    }
}
