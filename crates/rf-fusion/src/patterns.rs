//! Canonical cascaded-reduction patterns from the paper.
//!
//! These constructors build [`CascadeSpec`]s for the workloads evaluated in §5
//! and the case studies of §3.4 and Appendix A.2, plus a deliberately
//! non-fusable pattern used by negative tests.

use rf_algebra::ReduceOp;
use rf_expr::Expr;

use crate::cascade::{CascadeSpec, ReductionSpec};

/// The maximum representable value of the FP8 E4M3 format, used as the `MAX`
/// constant of the per-token quantization case study (§3.4).
pub const FP8_E4M3_MAX: f64 = 448.0;

/// Safe softmax (§2.2): a max reduction followed by a sum of shifted
/// exponentials.
///
/// ```text
/// m = max_l x[l]
/// t = Σ_l exp(x[l] - m)
/// ```
pub fn safe_softmax() -> CascadeSpec {
    let x = Expr::var("x");
    let m = Expr::var("m");
    CascadeSpec::new(
        "safe_softmax",
        vec!["x".to_string()],
        vec![
            ReductionSpec::new("m", ReduceOp::Max, x.clone()),
            ReductionSpec::new("t", ReduceOp::Sum, (x - m).exp()),
        ],
    )
    .expect("safe softmax is a valid cascade")
}

/// One attention output component (Appendix A.2.1, Eq. 29): softmax over the
/// score row `p` followed by a weighted sum of the value component `v`.
///
/// ```text
/// m = max_l p[l]
/// t = Σ_l exp(p[l] - m)
/// o = Σ_l exp(p[l] - m) / t * v[l]
/// ```
pub fn attention_row() -> CascadeSpec {
    let p = Expr::var("p");
    let v = Expr::var("v");
    let m = Expr::var("m");
    let t = Expr::var("t");
    CascadeSpec::new(
        "attention_row",
        vec!["p".to_string(), "v".to_string()],
        vec![
            ReductionSpec::new("m", ReduceOp::Max, p.clone()),
            ReductionSpec::new("t", ReduceOp::Sum, (p.clone() - m.clone()).exp()),
            ReductionSpec::new("o", ReduceOp::Sum, (p - m).exp() / t * v),
        ],
    )
    .expect("attention row is a valid cascade")
}

/// FP8 per-token quantization followed by one GEMM output element (§3.4,
/// Eq. 17): an abs-max reduction computing the dynamic scale, then a scaled
/// inner product with the weight column `w`.
///
/// ```text
/// m = max_l |a[l]|
/// c = Σ_l (MAX * a[l] / m) * w[l]
/// ```
pub fn fp8_quant_gemm() -> CascadeSpec {
    let a = Expr::var("a");
    let w = Expr::var("w");
    let m = Expr::var("m");
    CascadeSpec::new(
        "fp8_quant_gemm",
        vec!["a".to_string(), "w".to_string()],
        vec![
            ReductionSpec::new("m", ReduceOp::Max, a.clone().abs()),
            ReductionSpec::new("c", ReduceOp::Sum, Expr::constant(FP8_E4M3_MAX) * a / m * w),
        ],
    )
    .expect("fp8 quant + gemm is a valid cascade")
}

/// The softmax part of MoE routing (Appendix A.2.2, Eq. 34): gating scores are
/// normalised by a max + sum-of-exp cascade. The top-k selection itself is a
/// segmented max-family reduction the tile VM's routing kernel
/// (`rf_tile::exec`, `Semantics::Routing`) merges alongside the statistics.
pub fn moe_routing_scores() -> CascadeSpec {
    let x = Expr::var("score");
    let m = Expr::var("m");
    CascadeSpec::new(
        "moe_routing_scores",
        vec!["score".to_string()],
        vec![
            ReductionSpec::new("m", ReduceOp::Max, x.clone()),
            ReductionSpec::new("t", ReduceOp::Sum, (x - m).exp()),
        ],
    )
    .expect("moe routing scores is a valid cascade")
}

/// The "Sum + Sum" internal-model pattern of Appendix A.2.3 (Eq. 39):
///
/// ```text
/// m = Σ_l x1[l]^2
/// s = Σ_l x1[l] * x2[l] / sqrt(max(m - 10, eps))
/// ```
///
/// The small `eps` guard keeps the square root defined for every input, which
/// matches the paper's `max(m - 10)` clamp.
pub fn sum_sum() -> CascadeSpec {
    let x1 = Expr::var("x1");
    let x2 = Expr::var("x2");
    let m = Expr::var("m");
    let denom = (m - Expr::constant(10.0)).max(Expr::constant(1e-3)).sqrt();
    CascadeSpec::new(
        "sum_sum",
        vec!["x1".to_string(), "x2".to_string()],
        vec![
            ReductionSpec::new("m", ReduceOp::Sum, x1.clone() * x1.clone()),
            ReductionSpec::new("s", ReduceOp::Sum, x1 * x2 / denom),
        ],
    )
    .expect("sum + sum is a valid cascade")
}

/// Single-pass batched variance via the sum / sum-of-squares sufficient
/// statistics (Appendix A.6): two **independent** reductions fused for
/// locality rather than for a data dependency.
///
/// ```text
/// s = Σ_l x[l]
/// q = Σ_l x[l]^2
/// ```
///
/// The epilogue `var = q/L - (s/L)^2` is pure scalar arithmetic on the fused
/// results. This is the form the tile-program lowering and the tile VM
/// (`Semantics::Variance`) execute; the algebraically equivalent *dependent* two-pass form is the
/// canonical non-fusable pattern ([`non_decomposable_variance`]).
pub fn variance_sufficient_stats() -> CascadeSpec {
    let x = Expr::var("x");
    CascadeSpec::new(
        "variance_sufficient_stats",
        vec!["x".to_string()],
        vec![
            ReductionSpec::new("s", ReduceOp::Sum, x.clone()),
            ReductionSpec::new("q", ReduceOp::Sum, x.clone() * x),
        ],
    )
    .expect("variance sufficient statistics form a valid cascade")
}

/// Single-pass moment of inertia via the parallel-axis sufficient statistics
/// (Table 3b): total mass, first moment and second moment along one
/// representative axis.
///
/// ```text
/// mt = Σ_l mass[l]
/// s  = Σ_l mass[l] * x[l]
/// q  = Σ_l mass[l] * x[l]^2
/// ```
///
/// All three reductions are independent, so the cascade is trivially fusable;
/// the per-dimension vectorisation (`Σ m·x_d` for every axis `d`) is handled
/// by the tile VM's inertia kernel (`Semantics::Inertia`), exactly as the
/// attention output row is vectorised over head components.
pub fn inertia_sufficient_stats() -> CascadeSpec {
    let mass = Expr::var("mass");
    let x = Expr::var("x");
    CascadeSpec::new(
        "inertia_sufficient_stats",
        vec!["mass".to_string(), "x".to_string()],
        vec![
            ReductionSpec::new("mt", ReduceOp::Sum, mass.clone()),
            ReductionSpec::new("s", ReduceOp::Sum, mass.clone() * x.clone()),
            ReductionSpec::new("q", ReduceOp::Sum, mass * x.clone() * x),
        ],
    )
    .expect("inertia sufficient statistics form a valid cascade")
}

/// A cascade whose second reduction is **not** decomposable as `G(x) ⊗ H(d)`:
/// the textbook two-pass variance `Σ (x - mean)^2`, kept in its dependent form.
///
/// ACRF correctly reports this as not fusable; the variance *workload* of the
/// paper's Appendix A.6 is instead lowered to the algebraically equivalent
/// single-pass sum / sum-of-squares form the tile VM runs
/// (`Semantics::Variance`).
pub fn non_decomposable_variance() -> CascadeSpec {
    let x = Expr::var("x");
    let m = Expr::var("m");
    let centered = x.clone() - m;
    CascadeSpec::new(
        "two_pass_variance",
        vec!["x".to_string()],
        vec![
            ReductionSpec::new("m", ReduceOp::Sum, x),
            ReductionSpec::new("v", ReduceOp::Sum, centered.clone() * centered),
        ],
    )
    .expect("two-pass variance is a valid (but non-fusable) cascade")
}

/// All fusable example patterns, used by exhaustive tests and the quickstart
/// example.
pub fn all_fusable() -> Vec<CascadeSpec> {
    vec![
        safe_softmax(),
        attention_row(),
        fp8_quant_gemm(),
        moe_routing_scores(),
        sum_sum(),
        variance_sufficient_stats(),
        inertia_sufficient_stats(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acrf::analyze_cascade;

    #[test]
    fn all_patterns_validate() {
        for spec in all_fusable() {
            assert!(spec.validate().is_ok(), "{} should validate", spec.name);
        }
        assert!(non_decomposable_variance().validate().is_ok());
    }

    #[test]
    fn all_fusable_patterns_are_accepted_by_acrf() {
        for spec in all_fusable() {
            assert!(
                analyze_cascade(&spec).is_ok(),
                "{} should be fusable",
                spec.name
            );
        }
    }

    #[test]
    fn dependency_chains_are_as_documented() {
        let attn = attention_row();
        assert_eq!(attn.dependencies_of(1), vec!["m".to_string()]);
        assert_eq!(
            attn.dependencies_of(2),
            vec!["m".to_string(), "t".to_string()]
        );
        let quant = fp8_quant_gemm();
        assert_eq!(quant.dependencies_of(1), vec!["m".to_string()]);
    }

    #[test]
    fn fp8_max_constant_matches_e4m3() {
        assert_eq!(FP8_E4M3_MAX, 448.0);
    }

    #[test]
    fn sufficient_stats_patterns_are_independent_reductions() {
        let var = analyze_cascade(&variance_sufficient_stats()).unwrap();
        assert!(var.reductions.iter().all(|r| r.is_independent()));
        let inertia = analyze_cascade(&inertia_sufficient_stats()).unwrap();
        assert_eq!(inertia.len(), 3);
        assert!(inertia.reductions.iter().all(|r| r.is_independent()));
    }
}
