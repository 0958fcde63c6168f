//! The cascade grammar the property and golden tests draw from: four
//! fusable map-function families (softmax-like, quant-like, attention-like,
//! sum+sum-like) with per-element selectors, weight terms, peak reduction
//! operators and constants as parameters.
//!
//! A test target includes it as a module (`mod grammar;` beside it in
//! `tests/`, or with `#[path]` from another crate's tests); it lives in a
//! subdirectory so Cargo does not build it as a test target of its own.

use rf_algebra::ReduceOp;
use rf_expr::Expr;
use rf_fusion::{CascadeSpec, ReductionSpec};

/// Constants mixed into the generated map functions. All are safe for every
/// family (no overflow under inputs in `[-2, 2]` and lengths up to 128).
const CONSTANTS: [f64; 4] = [0.25, 1.0, 3.5, 7.0];

/// Per-element selector `s(x)` applied to the reduced input variable.
fn selector(expr: &Expr, idx: usize, c: f64) -> Expr {
    match idx % 4 {
        0 => expr.clone(),
        1 => expr.clone().abs(),
        2 => expr.clone() * expr.clone(),
        _ => expr.clone() + Expr::constant(c),
    }
}

/// Weight term `w(y)` multiplied into a dependent sum.
fn weight(expr: &Expr, idx: usize) -> Expr {
    match idx % 3 {
        0 => Expr::constant(1.0),
        1 => expr.clone(),
        _ => expr.clone() * expr.clone(),
    }
}

/// Builds one cascade from the grammar. Every output is fusable by
/// construction: each dependent map is a product `G(x, y) ⊗ H(m, t)`, the
/// shape the ACRF fixed-point identity accepts.
pub fn random_cascade(family: usize, s0: usize, s1: usize, c_idx: usize) -> CascadeSpec {
    let c = CONSTANTS[c_idx % CONSTANTS.len()];
    let x = Expr::var("x");
    let y = Expr::var("y");
    let m = Expr::var("m");
    let t = Expr::var("t");
    let inputs = vec!["x".to_string(), "y".to_string()];
    let name = format!("random_f{family}_s{s0}_w{s1}_c{c_idx}");
    // Max- and Min-seeded exponentials both stay bounded for inputs in [-2, 2].
    let peak_op = if s1.is_multiple_of(2) {
        ReduceOp::Max
    } else {
        ReduceOp::Min
    };
    match family % 4 {
        // Softmax-like: peak reduction, then a weighted sum of shifted
        // exponentials.
        0 => {
            let s = selector(&x, s0, c);
            CascadeSpec::new(
                name,
                inputs,
                vec![
                    ReductionSpec::new("m", peak_op, s.clone()),
                    ReductionSpec::new("t", ReduceOp::Sum, (s - m).exp() * weight(&y, s1)),
                ],
            )
        }
        // Quant-like: abs-max scale, then a scaled weighted inner product.
        1 => {
            let s = selector(&x, s0, c).abs() + Expr::constant(0.5);
            CascadeSpec::new(
                name,
                inputs,
                vec![
                    ReductionSpec::new("m", ReduceOp::Max, s),
                    ReductionSpec::new(
                        "t",
                        ReduceOp::Sum,
                        Expr::constant(c) * x / m * weight(&y, s1),
                    ),
                ],
            )
        }
        // Attention-like: softmax statistics plus a normalised weighted sum.
        2 => {
            let s = selector(&x, s0, c);
            CascadeSpec::new(
                name,
                inputs,
                vec![
                    ReductionSpec::new("m", peak_op, s.clone()),
                    ReductionSpec::new("t", ReduceOp::Sum, (s.clone() - m.clone()).exp()),
                    ReductionSpec::new(
                        "o",
                        ReduceOp::Sum,
                        (s - m).exp() / t * weight(&y, s1.max(1)),
                    ),
                ],
            )
        }
        // Sum+sum-like: an energy sum, then a sum scaled by a guarded root of
        // the energy.
        _ => {
            let s = selector(&x, s0, c);
            let denom = (m - Expr::constant(c)).max(Expr::constant(1e-3)).sqrt();
            CascadeSpec::new(
                name,
                inputs,
                vec![
                    ReductionSpec::new("m", ReduceOp::Sum, s.clone() * s),
                    ReductionSpec::new("t", ReduceOp::Sum, x * weight(&y, s1) / denom),
                ],
            )
        }
    }
    .expect("generated cascades are structurally valid")
}

/// The grammar's full parameter grid for one family, in `s0`, `s1`, `c_idx`
/// order: 4 selectors × 6 weight/peak choices × 4 constants = 96 cascades.
pub fn family_grid(family: usize) -> impl Iterator<Item = CascadeSpec> {
    (0..4).flat_map(move |s0| {
        (0..6).flat_map(move |s1| {
            (0..CONSTANTS.len()).map(move |c_idx| random_cascade(family, s0, s1, c_idx))
        })
    })
}
