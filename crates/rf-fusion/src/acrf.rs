//! The Automatic Cascaded Reductions Fusion (ACRF) algorithm (§4.2, Algorithm 1).
//!
//! For each reduction `d_i = R_i_{l} F_i(X[l], D_i)` the algorithm:
//!
//! 1. determines the combine operator `⊗_i` from the reduction operator via
//!    Table 1 (`rf_algebra::compatible_combine`);
//! 2. selects a *fixed point* `(x_0, d_0)` such that `F_i(x_0, d_0)` is
//!    invertible under `⊗_i` (non-zero when `⊗_i = *`);
//! 3. checks the **fixed-point identity** (Eq. 23)
//!    `F(x, d) ⊗ F(x0, d0) = F(x, d0) ⊗ F(x0, d)` by randomized semantic
//!    equivalence (the SymPy substitute, see `rf_expr::equiv`);
//! 4. extracts `G_i(x) = F_i(x, d0)` (Eq. 24) and
//!    `H_i(d) = F_i(x0, d) ⊗ F_i(x0, d0)^{-1}` (Eq. 25);
//! 5. validates the decomposition `F = G ⊗ H` numerically, then instantiates
//!    the fused and incremental forms (handled by [`crate::plan`] and
//!    [`crate::eval`]).

use std::fmt;

use rf_algebra::{compatible_combine, BinaryOp, LawReport};
use rf_expr::{semantically_equal, simplify, Env, EquivConfig, Expr};

use crate::cascade::{CascadeError, CascadeSpec};
use crate::plan::{FusedReduction, FusionPlan};

/// Errors produced by the ACRF analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AcrfError {
    /// The cascade itself is malformed.
    Cascade(CascadeError),
    /// The `(⊕, ⊗)` pair fails the commutative-monoid or distributivity laws.
    LawViolation {
        /// Name of the offending reduction.
        reduction: String,
    },
    /// No fixed point with an invertible `F(x0, d0)` could be found.
    NoValidFixedPoint {
        /// Name of the offending reduction.
        reduction: String,
    },
    /// The fixed-point identity (Eq. 23) does not hold: `F_i` cannot be
    /// decomposed as `G_i(x) ⊗ H_i(d)`.
    NotDecomposable {
        /// Name of the offending reduction.
        reduction: String,
    },
}

impl fmt::Display for AcrfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcrfError::Cascade(e) => write!(f, "invalid cascade: {e}"),
            AcrfError::LawViolation { reduction } => {
                write!(
                    f,
                    "reduction `{reduction}`: operator pair violates fusion feasibility laws"
                )
            }
            AcrfError::NoValidFixedPoint { reduction } => {
                write!(
                    f,
                    "reduction `{reduction}`: no fixed point with invertible F(x0, d0) found"
                )
            }
            AcrfError::NotDecomposable { reduction } => {
                write!(
                    f,
                    "reduction `{reduction}`: map function is not decomposable as G(x) ⊗ H(d)"
                )
            }
        }
    }
}

impl std::error::Error for AcrfError {}

impl From<CascadeError> for AcrfError {
    fn from(value: CascadeError) -> Self {
        AcrfError::Cascade(value)
    }
}

/// Candidate constants tried (in order) for the fixed-point components.
///
/// Zero is tried first for dependency variables because it yields the most
/// readable `G_i` (e.g. `exp(x - 0) → exp(x)` for softmax); values that put
/// `F(x0, d0)` outside the invertible domain are skipped automatically.
const FIXED_POINT_CANDIDATES: [f64; 6] = [0.0, 1.0, 0.5, 2.0, -1.0, 1.7];

/// Analyzes a single reduction of the cascade and extracts its decomposition.
///
/// # Errors
///
/// See [`AcrfError`]. In particular [`AcrfError::NotDecomposable`] is returned
/// when the fixed-point identity fails for every candidate fixed point, which
/// is the paper's `NotFusable` outcome.
pub fn analyze_reduction(spec: &CascadeSpec, index: usize) -> Result<FusedReduction, AcrfError> {
    let reduction = &spec.reductions[index];
    let name = reduction.name.clone();
    let combine = compatible_combine(reduction.reduce);
    let plus = reduction.reduce.fusion_plus();

    let laws = LawReport::evaluate(plus, combine);
    if !laws.all_hold() {
        return Err(AcrfError::LawViolation { reduction: name });
    }

    let deps = spec.dependencies_of(index);
    let free = reduction.map.free_vars();
    let input_vars: Vec<String> = spec
        .inputs
        .iter()
        .filter(|v| free.contains(*v))
        .cloned()
        .collect();

    // Independent reductions need no decomposition: G = F, H = identity.
    if deps.is_empty() {
        return Ok(FusedReduction {
            index,
            name,
            reduce: reduction.reduce,
            plus,
            combine,
            map: reduction.map.clone(),
            g: simplify(&reduction.map),
            h: Expr::constant(combine.identity()),
            deps,
            input_vars,
        });
    }

    let all_vars: Vec<&str> = input_vars
        .iter()
        .map(|s| s.as_str())
        .chain(deps.iter().map(|s| s.as_str()))
        .collect();

    let mut found_fixed_point = false;
    for &x0 in &FIXED_POINT_CANDIDATES {
        for &d0 in &FIXED_POINT_CANDIDATES {
            let Some(f00) = eval_at(&reduction.map, &input_vars, x0, &deps, d0) else {
                continue;
            };
            if !f00.is_finite() || !is_invertible(combine, f00) {
                continue;
            }
            found_fixed_point = true;

            // Fixed-point identity (Eq. 23):
            //   F(x, d) ⊗ F(x0, d0) == F(x, d0) ⊗ F(x0, d).
            let f_x_d = reduction.map.clone();
            let f_x_d0 = substitute_group(&reduction.map, &deps, d0);
            let f_x0_d = substitute_group(&reduction.map, &input_vars, x0);
            let lhs = Expr::binary(combine, f_x_d.clone(), Expr::constant(f00));
            let rhs = Expr::binary(combine, f_x_d0.clone(), f_x0_d.clone());
            if !semantically_equal(&lhs, &rhs, &all_vars, &EquivConfig::default()) {
                continue;
            }

            // G_i(x) = F_i(x, d0)                         (Eq. 24)
            // H_i(d) = F_i(x0, d) ⊗ F_i(x0, d0)^{-1}       (Eq. 25)
            let g = simplify(&f_x_d0);
            let h = simplify(&apply_inverse(combine, &f_x0_d, f00));

            // Validate F == G ⊗ H before accepting the fixed point.
            let recomposed = Expr::binary(combine, g.clone(), h.clone());
            if !semantically_equal(
                &reduction.map,
                &recomposed,
                &all_vars,
                &EquivConfig::default(),
            ) {
                continue;
            }

            return Ok(FusedReduction {
                index,
                name,
                reduce: reduction.reduce,
                plus,
                combine,
                map: reduction.map.clone(),
                g,
                h,
                deps,
                input_vars,
            });
        }
    }

    if found_fixed_point {
        Err(AcrfError::NotDecomposable { reduction: name })
    } else {
        Err(AcrfError::NoValidFixedPoint { reduction: name })
    }
}

/// Runs ACRF on every reduction of the cascade.
///
/// # Errors
///
/// Fails if the cascade is invalid or any reduction is not fusable; the error
/// identifies the offending reduction so a front-end can fall back to partial
/// fusion or unfused execution for that subgraph.
pub fn analyze_cascade(spec: &CascadeSpec) -> Result<FusionPlan, AcrfError> {
    spec.validate()?;
    let reductions = (0..spec.reductions.len())
        .map(|i| analyze_reduction(spec, i))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FusionPlan {
        cascade_name: spec.name.clone(),
        inputs: spec.inputs.clone(),
        reductions,
    })
}

fn substitute_group(expr: &Expr, vars: &[String], value: f64) -> Expr {
    let constant = Expr::constant(value);
    vars.iter()
        .fold(expr.clone(), |acc, v| acc.substitute(v, &constant))
}

fn eval_at(expr: &Expr, input_vars: &[String], x0: f64, deps: &[String], d0: f64) -> Option<f64> {
    let mut env = Env::new();
    for v in input_vars {
        env.set(v.as_str(), x0);
    }
    for v in deps {
        env.set(v.as_str(), d0);
    }
    expr.eval(&env).ok()
}

fn is_invertible(combine: BinaryOp, value: f64) -> bool {
    match combine {
        BinaryOp::Add => value.is_finite(),
        BinaryOp::Mul => value.is_finite() && value != 0.0,
        // Max/Min never admit inverses; the repair mechanism would apply, but
        // Table 1 never selects them as ⊗ so this arm is unreachable in
        // practice. Treat any finite value as acceptable.
        BinaryOp::Max | BinaryOp::Min => value.is_finite(),
    }
}

fn apply_inverse(combine: BinaryOp, expr: &Expr, f00: f64) -> Expr {
    match combine {
        BinaryOp::Add => expr.clone() - Expr::constant(f00),
        BinaryOp::Mul => expr.clone() / Expr::constant(f00),
        BinaryOp::Max | BinaryOp::Min => expr.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cascade::ReductionSpec;
    use crate::patterns;
    use rf_algebra::ReduceOp;

    #[test]
    fn softmax_decomposition_matches_paper() {
        let plan = analyze_cascade(&patterns::safe_softmax()).unwrap();
        let m = &plan.reductions[0];
        assert!(m.is_independent());
        assert_eq!(m.combine, BinaryOp::Add);

        let t = &plan.reductions[1];
        assert_eq!(t.combine, BinaryOp::Mul);
        assert_eq!(t.g.to_string(), "exp(x)");
        assert_eq!(t.deps, vec!["m".to_string()]);
        // H(m) must behave as exp(-m): validate numerically.
        let env = Env::from_pairs([("m", 2.0)]);
        let h = t.h.eval(&env).unwrap();
        assert!((h - (-2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn quant_gemm_decomposition_matches_paper_case_study() {
        // §3.4: G2(a, w) = MAX * a * w is recovered up to constant placement;
        // H2(m) behaves as MAX/m up to the same constant. Validate G ⊗ H = F.
        let plan = analyze_cascade(&patterns::fp8_quant_gemm()).unwrap();
        let c = &plan.reductions[1];
        assert_eq!(c.combine, BinaryOp::Mul);
        let env = Env::from_pairs([("a", 0.5), ("w", 2.0), ("m", 4.0)]);
        let f = c.map.eval(&env).unwrap();
        let g = c.g.eval(&env).unwrap();
        let h = c.h.eval(&env).unwrap();
        assert!((f - g * h).abs() < 1e-9 * (1.0 + f.abs()));
    }

    #[test]
    fn attention_row_is_fully_fusable() {
        let plan = analyze_cascade(&patterns::attention_row()).unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(
            plan.reductions[2].deps,
            vec!["m".to_string(), "t".to_string()]
        );
    }

    #[test]
    fn sum_sum_internal_pattern_is_fusable() {
        let plan = analyze_cascade(&patterns::sum_sum()).unwrap();
        assert_eq!(plan.reductions[1].combine, BinaryOp::Mul);
    }

    #[test]
    fn variance_style_dependency_is_rejected() {
        let err = analyze_cascade(&patterns::non_decomposable_variance()).unwrap_err();
        assert!(matches!(err, AcrfError::NotDecomposable { .. }));
        assert!(err.to_string().contains("not decomposable"));
    }

    #[test]
    fn invalid_cascade_is_reported() {
        let bad = CascadeSpec {
            name: "bad".into(),
            inputs: vec![],
            reductions: vec![ReductionSpec::new("a", ReduceOp::Sum, Expr::var("x"))],
        };
        assert!(matches!(
            analyze_cascade(&bad).unwrap_err(),
            AcrfError::Cascade(_)
        ));
    }

    #[test]
    fn fixed_point_skips_singular_candidates() {
        // F = x / d: d0 = 0 gives a non-finite F(x0, d0) and must be skipped,
        // falling through to d0 = 1 which succeeds.
        let spec = CascadeSpec::new(
            "scaled_sum",
            vec!["x".to_string()],
            vec![
                ReductionSpec::new("s", ReduceOp::Sum, Expr::var("x")),
                ReductionSpec::new("q", ReduceOp::Sum, Expr::var("x") / Expr::var("s")),
            ],
        )
        .unwrap();
        let plan = analyze_cascade(&spec).unwrap();
        let q = &plan.reductions[1];
        let env = Env::from_pairs([("x", 3.0), ("s", 2.0)]);
        let f = q.map.eval(&env).unwrap();
        let gh = q.g.eval(&env).unwrap() * q.h.eval(&env).unwrap();
        assert!((f - gh).abs() < 1e-9);
    }

    #[test]
    fn error_display_variants() {
        let e = AcrfError::NoValidFixedPoint {
            reduction: "r".into(),
        };
        assert!(e.to_string().contains("fixed point"));
        let e = AcrfError::LawViolation {
            reduction: "r".into(),
        };
        assert!(e.to_string().contains("laws"));
    }
}
