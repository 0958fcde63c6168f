//! Tile-level IR: the TileOps of Figure 10, their cost accounting and the VM
//! that runs them.
//!
//! After ACRF produces fused expressions, RedFuser lowers them from the scalar
//! loop-nest IR to a **tile-level IR** (§4.4): buffers become tiles with an
//! explicit memory scope (global / shared / register fragment), and the body
//! becomes a sequence of TileOps — `copy`, `gemm`, `reduce`, `parallel`,
//! `fill` — grouped into per-block stages that a software pipeline can
//! overlap. The lowerings that build these programs at a tuning point — the
//! attention kernels and the tensorization pass for row cascades — live in
//! `rf-codegen`'s `lower` module, next to their closed-form costs. This crate
//! provides:
//!
//! * [`ops`] — the TileOp vocabulary, tile buffers and tile programs, with a
//!   pretty-printer that reproduces the style of Figures 12b/13b;
//! * [`cost`] — traffic and flop accounting per tile program, the interface
//!   consumed by the analytical GPU model in `rf-gpusim`;
//! * [`exec`] — a deterministic CPU virtual machine that runs a fully-bound
//!   tile program over real tensors, honouring the tuned tile sizes, segment
//!   counts and the store → correct → reduce template.

#![forbid(unsafe_code)]

pub mod cost;
pub mod exec;
pub mod ops;

pub use cost::{CostSummary, MemoryScope};
pub use exec::{ExecBinding, ExecError, ExecInput, ExecOutput, ExecProfile, OpStats, Semantics};
pub use ops::{precision_for_element_bytes, StageLoop, TileBuffer, TileOp, TileProgram};
