//! Tile-level IR: the TileOps of Figure 10 and the tensorization pipeline.
//!
//! After ACRF produces fused expressions, RedFuser lowers them from the scalar
//! loop-nest IR to a **tile-level IR** (§4.4): buffers become tiles with an
//! explicit memory scope (global / shared / register fragment), and the body
//! becomes a sequence of TileOps — `copy`, `gemm`, `reduce`, `parallel`,
//! `fill` — grouped into per-block stages that a software pipeline can
//! overlap. This crate provides:
//!
//! * [`ops`] — the TileOp vocabulary, tile buffers and tile programs, with a
//!   pretty-printer that reproduces the style of Figures 12b/13b;
//! * [`tensorize`] — the Blockization / buffer-management / TileOp-conversion
//!   pass from scalar reduction parameters to a tile program, whose grid
//!   binds one block index per block tile (Parallelization);
//! * [`cost`] — traffic and flop accounting per tile program, the interface
//!   consumed by the analytical GPU model in `rf-gpusim`;
//! * [`exec`] — a deterministic CPU virtual machine that runs a fully-bound
//!   tile program over real tensors, honouring the tuned tile sizes, segment
//!   counts and the store → correct → reduce template.

#![forbid(unsafe_code)]

pub mod cost;
pub mod exec;
pub mod ops;
pub mod tensorize;

pub use cost::{CostSummary, MemoryScope};
pub use exec::{ExecBinding, ExecError, ExecInput, ExecOutput, ExecProfile, OpStats, Semantics};
pub use ops::{precision_for_element_bytes, StageLoop, TileBuffer, TileOp, TileProgram};
pub use tensorize::{tensorize_cascade, TensorizeConfig};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_compose() {
        let cfg = TensorizeConfig::default();
        let program = tensorize_cascade("softmax", 2, 1024, 1, &cfg);
        assert!(program.ops_per_block() > 0);
        assert!(program.cost().global_bytes > 0);
    }
}
