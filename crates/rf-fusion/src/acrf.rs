//! The Automatic Cascaded Reductions Fusion (ACRF) algorithm (§4.2, Algorithm 1).
//!
//! For each reduction `d_i = R_i_{l} F_i(X[l], D_i)` the algorithm:
//!
//! 1. determines the combine operator `⊗_i` from the reduction operator via
//!    Table 1 (`rf_algebra::compatible_combine`);
//! 2. selects a *fixed point* `(x_0, d_0)` such that `F_i(x_0, d_0)` is
//!    invertible under `⊗_i` (non-zero when `⊗_i = *`);
//! 3. checks the **fixed-point identity** (Eq. 23)
//!    `F(x, d) ⊗ F(x0, d0) = F(x, d0) ⊗ F(x0, d)` on the seeded sample
//!    points of `rf_expr::equiv` (the SymPy substitute), evaluating the one
//!    compiled `F` with its input or dependency slots bound to the fixed point;
//! 4. extracts `G_i(x) = F_i(x, d0)` (Eq. 24) and
//!    `H_i(d) = F_i(x0, d) ⊗ F_i(x0, d0)^{-1}` (Eq. 25);
//! 5. validates the decomposition `F = G ⊗ H` numerically, then instantiates
//!    the fused and incremental forms (handled by [`crate::plan`] and
//!    [`crate::eval`]).

use std::fmt;

use rf_algebra::{compatible_combine, BinaryOp, LawReport};
use rf_expr::{agree_on_samples, semantically_equal, simplify, EquivConfig, Expr};

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
/// readable `G_i` (e.g. `exp(x - 0) → exp(x)` for softmax). All 6 × 6 pairs
/// `(x0, d0)` are tried in order: a pair whose `F(x0, d0)` is non-finite or
/// not invertible under `⊗` is skipped, and so is one whose identity or
/// recomposition check fails. If no pair was invertible the verdict is
/// [`AcrfError::NoValidFixedPoint`]; if some were but none passed the checks
/// it is [`AcrfError::NotDecomposable`].
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

    if !LawReport::of(plus, combine).all_hold() {
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

    // F compiled once over [inputs…, deps…]: a fixed point, and each of the
    // identity's partial bindings, is a slot array, not a rewritten tree.
    let all_vars: Vec<&str> = input_vars.iter().chain(&deps).map(|s| s.as_str()).collect();
    let n_inputs = input_vars.len();
    let Ok(f) = reduction.map.compile(&all_vars) else {
        // Only an unvalidated spec gets here: F has no value at any point.
        return Err(AcrfError::NoValidFixedPoint { reduction: name });
    };
    // F(x, d0) and F(x0, d) read these; the sampler's point overwrites the free half.
    let (mut x_d0, mut x0_d) = (vec![0.0; all_vars.len()], vec![0.0; all_vars.len()]);
    let config = EquivConfig::default();

    let mut found_fixed_point = false;
    for &x0 in &FIXED_POINT_CANDIDATES {
        for &d0 in &FIXED_POINT_CANDIDATES {
            x_d0[n_inputs..].fill(d0);
            x0_d[..n_inputs].fill(x0);
            x0_d[n_inputs..].fill(d0);
            let f00 = f.eval(&x0_d);
            if !f00.is_finite() || !is_invertible(combine, f00) {
                continue;
            }
            found_fixed_point = true;

            // Fixed-point identity (Eq. 23), on the sampler's points p = (x, d):
            //   F(x, d) ⊗ F(x0, d0) == F(x, d0) ⊗ F(x0, d).
            let identity_holds = agree_on_samples(all_vars.len(), &config, |p| {
                x_d0[..n_inputs].copy_from_slice(&p[..n_inputs]);
                x0_d[n_inputs..].copy_from_slice(&p[n_inputs..]);
                let rhs = combine.apply(f.eval(&x_d0), f.eval(&x0_d));
                (combine.apply(f.eval(p), f00), rhs)
            });
            if !identity_holds {
                continue;
            }

            // G_i(x) = F_i(x, d0)                         (Eq. 24)
            // H_i(d) = F_i(x0, d) ⊗ F_i(x0, d0)^{-1}       (Eq. 25)
            let g = simplify(&substitute_group(&reduction.map, &deps, d0));
            let f_x0_d = substitute_group(&reduction.map, &input_vars, x0);
            let h = simplify(&apply_inverse(combine, &f_x0_d, f00));

            // Validate F == G ⊗ H before accepting the fixed point.
            let recomposed = Expr::binary(combine, g.clone(), h.clone());
            if !semantically_equal(&reduction.map, &recomposed, &all_vars, &config) {
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
    use rf_expr::Env;

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

    /// `m = Σ x` followed by `t = Σ map`, `map` over `x` and `m`.
    fn sum_then(map: Expr) -> CascadeSpec {
        CascadeSpec::new(
            "probe",
            vec!["x".to_string()],
            vec![
                ReductionSpec::new("m", ReduceOp::Sum, Expr::var("x")),
                ReductionSpec::new("t", ReduceOp::Sum, map),
            ],
        )
        .unwrap()
    }

    #[test]
    fn fixed_point_search_reports_which_arm_failed() {
        let (x, m) = (Expr::var("x"), Expr::var("m"));
        let no_fixed_point = |spec: &CascadeSpec| {
            matches!(
                analyze_cascade(spec),
                Err(AcrfError::NoValidFixedPoint { reduction }) if reduction == "t"
            )
        };
        // F(x0, d0) = 0 at all 36 candidates: never invertible under `*`.
        assert!(no_fixed_point(&sum_then(
            x.clone() * Expr::zero() * m.clone()
        )));
        // F(x0, d0) = NaN at all 36 candidates: outside its domain everywhere.
        assert!(no_fixed_point(&sum_then(
            (x.clone() - Expr::constant(100.0)).ln() * m.clone()
        )));
        // Invertible at (0, 1), but (x + d)(x0 + d0) != (x + d0)(x0 + d).
        assert!(matches!(
            analyze_cascade(&sum_then(x + m)),
            Err(AcrfError::NotDecomposable { reduction }) if reduction == "t"
        ));
    }

    #[test]
    fn a_map_undefined_at_every_sample_point_is_not_decomposable() {
        // sqrt(-(x - 1)²) is 0 at the candidate x0 = 1 and NaN at every point
        // the sampler draws: F(1, d0) = d0 is invertible, but no sample is
        // valid, and "no valid sample" must read "identity not shown".
        let x_minus_1 = Expr::var("x") - Expr::one();
        let spike = (-(x_minus_1.clone() * x_minus_1)).sqrt() + Expr::one();
        assert!(matches!(
            analyze_cascade(&sum_then(spike * Expr::var("m"))),
            Err(AcrfError::NotDecomposable { reduction }) if reduction == "t"
        ));
    }

    #[test]
    fn unvalidated_spec_with_an_unknown_variable_does_not_panic() {
        let spec = CascadeSpec {
            name: "unvalidated".into(),
            inputs: vec!["x".into()],
            reductions: vec![
                ReductionSpec::new("m", ReduceOp::Sum, Expr::var("x")),
                ReductionSpec::new("t", ReduceOp::Sum, Expr::var("ghost") * Expr::var("m")),
            ],
        };
        assert_eq!(
            analyze_reduction(&spec, 1),
            Err(AcrfError::NoValidFixedPoint {
                reduction: "t".into()
            })
        );
    }

    #[test]
    fn a_24_input_cascade_analyses_like_a_small_one() {
        // t = Σ exp(x0 - m) * (x1 * (x2 * (… * x23))): 25 slots, and a product
        // nested deeper than the compiled form's inline operand stack.
        let inputs: Vec<String> = (0..24).map(|i| format!("x{i}")).collect();
        let product = inputs[1..]
            .iter()
            .rev()
            .map(Expr::var)
            .reduce(|nested, v| v * nested)
            .unwrap();
        let spec = CascadeSpec::new(
            "wide",
            inputs.clone(),
            vec![
                ReductionSpec::new("m", ReduceOp::Max, Expr::var("x0")),
                ReductionSpec::new(
                    "t",
                    ReduceOp::Sum,
                    (Expr::var("x0") - Expr::var("m")).exp() * product.clone(),
                ),
            ],
        )
        .unwrap();
        let plan = analyze_cascade(&spec).unwrap();
        let t = &plan.reductions[1];
        // x0 = 0 zeroes the product, so the fixed point is (1, 0).
        assert_eq!(t.g.to_string(), format!("(exp(x0) * {product})"));
        assert_eq!(t.h.to_string(), "(exp((1 - m)) / 2.718281828459045)");
        assert_eq!(t.deps, vec!["m".to_string()]);
        assert_eq!(t.input_vars, inputs);
    }

    /// Not a check: prints µs per call of `analyze_cascade` per pattern, of
    /// one `LawReport::evaluate` and of one four-variable
    /// `semantically_equal` (20 000 calls after 2 000 warm-up).
    /// `cargo test --release -p rf-fusion timing -- --ignored --nocapture`
    #[test]
    #[ignore = "prints timings"]
    fn timing_per_pattern() {
        use std::hint::black_box;
        use std::time::Instant;
        fn us_per_call(mut call: impl FnMut()) -> f64 {
            (0..2_000).for_each(|_| call());
            let start = Instant::now();
            (0..20_000).for_each(|_| call());
            start.elapsed().as_secs_f64() * 1e6 / 20_000.0
        }
        let mut specs = patterns::all_fusable();
        specs.push(patterns::non_decomposable_variance());
        for spec in &specs {
            let us = us_per_call(|| {
                black_box(analyze_cascade(black_box(spec)).is_ok());
            });
            println!("analyze_cascade {:<26} {us:7.2} us", spec.name);
        }
        let us = us_per_call(|| {
            black_box(LawReport::evaluate(
                black_box(BinaryOp::Add),
                black_box(BinaryOp::Mul),
            ));
        });
        println!("LawReport::evaluate(+, *)                  {us:7.2} us");
        let o = &patterns::attention_row().reductions[2].map;
        let same = o.clone() * Expr::one();
        let us = us_per_call(|| {
            black_box(semantically_equal(
                black_box(o),
                &same,
                &["p", "v", "m", "t"],
                &EquivConfig::default(),
            ));
        });
        println!("semantically_equal (attention o, 4 vars)   {us:7.2} us");
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
