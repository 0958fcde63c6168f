//! Cascaded-reduction fusion: the core contribution of RedFuser.
//!
//! This crate implements §3 and §4.2 of the paper:
//!
//! * [`cascade`] — the formal model of cascaded reductions (Eq. 1): a set of
//!   reductions `d_i = R_i_{l} F_i(X[l], D_i)` where the map function of each
//!   reduction may depend on the results of all preceding reductions.
//! * [`tree`] — reduction-tree shapes (Eq. 2–3), the chain-of-trees execution
//!   model, and the memory-access accounting behind Figure 7.
//! * [`acrf`] — the **Automatic Cascaded Reductions Fusion** algorithm
//!   (Algorithm 1): Table 1 lookup of the combine operator, fixed-point
//!   analysis (Eq. 23) for decomposability, and extraction of `G_i`/`H_i`
//!   (Eq. 24–25).
//! * [`plan`] — the resulting [`plan::FusionPlan`], including pretty-printers
//!   for the fused (Eq. 11) and incremental (Eq. 15–16) forms.
//! * [`eval`] — three numeric evaluators used as correctness oracles: the
//!   naive chain-of-trees evaluation, the fused reduction-tree evaluation and
//!   the streaming incremental evaluation.
//! * [`patterns`] — canonical cascades from the paper (safe softmax, attention,
//!   FP8 quant + GEMM, MoE routing scores, the "Sum + Sum" internal pattern)
//!   plus deliberately non-fusable examples.
//!
//! # Example: fusing safe softmax
//!
//! ```
//! use rf_fusion::{acrf::analyze_cascade, patterns};
//!
//! let cascade = patterns::safe_softmax();
//! let plan = analyze_cascade(&cascade).unwrap();
//! // The sum-of-exp reduction decomposes as G(x) = exp(x), H(m) = exp(-m).
//! let sum_exp = &plan.reductions[1];
//! assert_eq!(sum_exp.combine, rf_algebra::BinaryOp::Mul);
//! ```

#![forbid(unsafe_code)]

pub mod acrf;
pub mod cascade;
pub mod eval;
pub mod patterns;
pub mod plan;
pub mod tree;

pub use acrf::{analyze_cascade, analyze_reduction, AcrfError};
pub use cascade::{CascadeInput, CascadeSpec, ReductionSpec};
pub use eval::{FusedTreeEvaluator, IncrementalEvaluator, NaiveCascadeEvaluator};
pub use plan::{FusedReduction, FusionPlan};
pub use tree::TreeShape;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_compose() {
        let cascade = patterns::safe_softmax();
        assert_eq!(cascade.reductions.len(), 2);
        assert!(analyze_cascade(&cascade).is_ok());
    }
}
