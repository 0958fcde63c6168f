//! Scalar loop-nest IR (the TensorIR substitute) and its fusion passes.
//!
//! RedFuser's front-end (§4.1 of the paper) lowers a computational graph to a
//! scalar loop-nest IR, detects cascaded-reduction patterns in it, lifts them
//! to mathematical expressions for the ACRF analysis, and re-emits a fused
//! loop nest following the three-step reduction template of Appendix A.4
//! (store previous result → apply correction → perform reduction), with
//! dataflow-based elimination of unnecessary steps.
//!
//! Modules:
//!
//! * [`ir`] — expressions, statements, buffers and functions of the scalar IR,
//!   plus a pretty-printer that reproduces the style of Figures 11–13.
//! * [`interp`] — a reference interpreter used to validate transformations.
//! * [`builder`] — unfused loop nests: [`builder::unfused`] generates the
//!   single-row nest of any [`rf_fusion::CascadeSpec`] (one reduction loop per
//!   reduction, maps lowered exactly as the fused nest lowers them), and
//!   [`builder::figure11_attention`] is the one hand-written nest, Figure 11's
//!   two-dimensional attention with its GEMMs.
//! * [`detect`] — cascaded-reduction pattern detection: finds reductions that
//!   share a reduction axis and depend on each other, and lifts them into a
//!   [`rf_fusion::CascadeSpec`].
//! * [`fuse`] — fused-kernel generation from a [`rf_fusion::FusionPlan`]: a
//!   single loop over the shared axis applying the three-step template.

#![forbid(unsafe_code)]

pub mod builder;
pub mod detect;
pub mod fuse;
pub mod interp;
pub mod ir;

pub use detect::{detect_cascade, DetectError, DetectedCascade};
pub use fuse::generate_fused;
pub use interp::{Interpreter, RunError};
pub use ir::{BufferDecl, BufferKind, Stmt, TirExpr, TirFunction};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_softmax_pipeline() {
        let unfused = builder::unfused(&rf_fusion::patterns::safe_softmax(), 64);
        let detected = detect_cascade(&unfused).unwrap();
        assert_eq!(detected.cascade.reductions.len(), 2);
        let plan = rf_fusion::analyze_cascade(&detected.cascade).unwrap();
        let fused = generate_fused(&plan, &detected);
        assert!(fused.to_string().contains("for"));
    }
}
