//! Cascaded-reduction pattern detection (§4.1 of the paper).
//!
//! The detector walks a scalar loop-nest function, finds the reduction loops
//! (a `for` over a shared axis whose body is a single reduction update into a
//! scalar buffer), checks that they form a dependency chain over the same
//! axis, and lifts the chain into a [`rf_fusion::CascadeSpec`] — the
//! "mathematical representation of cascaded reductions" that feeds the ACRF
//! algorithm.

use std::collections::BTreeSet;
use std::fmt;

use rf_algebra::{BinaryOp, ReduceOp};
use rf_expr::Expr;
use rf_fusion::{CascadeSpec, ReductionSpec};

use crate::ir::{BufferKind, Stmt, TirExpr, TirFunction};

/// A detected cascaded-reduction pattern, ready for fusion.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedCascade {
    /// The shared reduction axis (loop variable name).
    pub axis: String,
    /// Trip count of the reduction loops.
    pub extent: usize,
    /// The lifted mathematical cascade.
    pub cascade: CascadeSpec,
    /// Input buffers consumed along the axis, in cascade-input order.
    pub input_buffers: Vec<String>,
    /// Result buffers of the reductions, in cascade order.
    pub reduction_buffers: Vec<String>,
}

/// Errors reported by [`detect_cascade`].
#[derive(Debug, Clone, PartialEq)]
pub enum DetectError {
    /// The function contains no reduction loops of the supported shape.
    NoReductions,
    /// The reduction loops do not all iterate over the same axis and extent.
    MismatchedAxes {
        /// Expected `(axis, extent)` from the first reduction loop.
        expected: (String, usize),
        /// Found `(axis, extent)`.
        found: (String, usize),
    },
    /// A map expression contains a load the detector cannot lift (e.g. a
    /// multi-dimensional load or a load of a buffer that is neither an input
    /// indexed by the axis nor an earlier reduction result).
    UnsupportedLoad {
        /// The offending buffer.
        buffer: String,
    },
    /// A map expression uses a loop variable as a value, which has no
    /// mathematical counterpart in the cascade model.
    UnsupportedVariable(String),
    /// The lifted cascade failed validation.
    InvalidCascade(String),
}

impl fmt::Display for DetectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectError::NoReductions => {
                write!(f, "no reduction loops of the supported shape found")
            }
            DetectError::MismatchedAxes { expected, found } => write!(
                f,
                "reduction loops disagree on the shared axis: expected {}[{}], found {}[{}]",
                expected.0, expected.1, found.0, found.1
            ),
            DetectError::UnsupportedLoad { buffer } => {
                write!(
                    f,
                    "cannot lift load of buffer `{buffer}` into the cascade model"
                )
            }
            DetectError::UnsupportedVariable(v) => {
                write!(f, "loop variable `{v}` used as a value is not supported")
            }
            DetectError::InvalidCascade(msg) => write!(f, "lifted cascade is invalid: {msg}"),
        }
    }
}

impl std::error::Error for DetectError {}

fn reduce_op_of(op: BinaryOp) -> ReduceOp {
    match op {
        BinaryOp::Add => ReduceOp::Sum,
        BinaryOp::Mul => ReduceOp::Prod,
        BinaryOp::Max => ReduceOp::Max,
        BinaryOp::Min => ReduceOp::Min,
    }
}

/// Detects the cascaded-reduction pattern of a function built from scalar
/// reduction loops over a shared axis.
///
/// # Errors
///
/// Returns a [`DetectError`] if the function does not match the supported
/// shape; callers fall back to unfused execution in that case (exactly what
/// the paper's framework does for non-reduction subgraphs).
pub fn detect_cascade(function: &TirFunction) -> Result<DetectedCascade, DetectError> {
    // Collect (axis, extent, destination buffer, reduce op, map expression)
    // from every top-level loop whose body is a single scalar reduction update.
    let mut reductions: Vec<(String, usize, String, BinaryOp, TirExpr)> = Vec::new();
    for stmt in &function.body {
        if let Stmt::For {
            var,
            start: 0,
            extent,
            body,
        } = stmt
        {
            if let [Stmt::Update {
                buffer,
                indices,
                op,
                value,
            }] = body.as_slice()
            {
                if indices.is_empty() {
                    reductions.push((var.clone(), *extent, buffer.clone(), *op, value.clone()));
                }
            }
        }
    }
    if reductions.is_empty() {
        return Err(DetectError::NoReductions);
    }

    let (axis, extent) = (reductions[0].0.clone(), reductions[0].1);
    for (var, ext, ..) in &reductions {
        if *var != axis || *ext != extent {
            return Err(DetectError::MismatchedAxes {
                expected: (axis.clone(), extent),
                found: (var.clone(), *ext),
            });
        }
    }

    let input_names: BTreeSet<String> = function
        .buffers
        .iter()
        .filter(|b| b.kind == BufferKind::Input)
        .map(|b| b.name.clone())
        .collect();

    let mut result_buffers: Vec<String> = Vec::new();
    let mut used_inputs: Vec<String> = Vec::new();
    let mut specs: Vec<ReductionSpec> = Vec::new();
    for (_, _, dest, op, value) in &reductions {
        let map = lift_expr(
            value,
            &axis,
            &input_names,
            &result_buffers,
            &mut used_inputs,
        )?;
        specs.push(ReductionSpec::new(dest.clone(), reduce_op_of(*op), map));
        result_buffers.push(dest.clone());
    }

    let cascade = CascadeSpec::new(function.name.clone(), used_inputs.clone(), specs)
        .map_err(|e| DetectError::InvalidCascade(e.to_string()))?;
    Ok(DetectedCascade {
        axis,
        extent,
        cascade,
        input_buffers: used_inputs,
        reduction_buffers: result_buffers,
    })
}

fn lift_expr(
    expr: &TirExpr,
    axis: &str,
    inputs: &BTreeSet<String>,
    earlier_results: &[String],
    used_inputs: &mut Vec<String>,
) -> Result<Expr, DetectError> {
    Ok(match expr {
        TirExpr::Const(c) => Expr::constant(*c),
        TirExpr::Var(v) => return Err(DetectError::UnsupportedVariable(v.clone())),
        TirExpr::Load { buffer, indices } => {
            let is_axis_indexed = indices.len() == 1 && indices[0] == axis;
            let is_scalar = indices.is_empty();
            if is_axis_indexed && inputs.contains(buffer) {
                if !used_inputs.contains(buffer) {
                    used_inputs.push(buffer.clone());
                }
                Expr::var(buffer.clone())
            } else if is_scalar && earlier_results.contains(buffer) {
                Expr::var(buffer.clone())
            } else {
                return Err(DetectError::UnsupportedLoad {
                    buffer: buffer.clone(),
                });
            }
        }
        TirExpr::Unary(f, a) => {
            let inner = lift_expr(a, axis, inputs, earlier_results, used_inputs)?;
            match f {
                rf_expr::UnaryFn::Neg => -inner,
                rf_expr::UnaryFn::Abs => inner.abs(),
                rf_expr::UnaryFn::Exp => inner.exp(),
                rf_expr::UnaryFn::Ln => inner.ln(),
                rf_expr::UnaryFn::Sqrt => inner.sqrt(),
                rf_expr::UnaryFn::Recip => inner.recip(),
            }
        }
        TirExpr::Binary(op, a, b) => Expr::binary(
            *op,
            lift_expr(a, axis, inputs, earlier_results, used_inputs)?,
            lift_expr(b, axis, inputs, earlier_results, used_inputs)?,
        ),
        TirExpr::Sub(a, b) => {
            lift_expr(a, axis, inputs, earlier_results, used_inputs)?
                - lift_expr(b, axis, inputs, earlier_results, used_inputs)?
        }
        TirExpr::Div(a, b) => {
            lift_expr(a, axis, inputs, earlier_results, used_inputs)?
                / lift_expr(b, axis, inputs, earlier_results, used_inputs)?
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use rf_fusion::{analyze_cascade, patterns};

    #[test]
    fn detects_softmax() {
        let f = builder::unfused(&patterns::safe_softmax(), 32);
        let detected = detect_cascade(&f).unwrap();
        assert_eq!(detected.axis, "l");
        assert_eq!(detected.extent, 32);
        assert_eq!(detected.reduction_buffers, vec!["m", "t"]);
        assert_eq!(detected.input_buffers, vec!["x"]);
        assert_eq!(detected.cascade.dependencies_of(1), vec!["m".to_string()]);
        assert!(analyze_cascade(&detected.cascade).is_ok());
    }

    #[test]
    fn detects_attention_row_and_quant() {
        for f in [
            builder::unfused(&patterns::attention_row(), 16),
            builder::unfused(&patterns::fp8_quant_gemm(), 16),
        ] {
            let detected = detect_cascade(&f).unwrap();
            assert!(analyze_cascade(&detected.cascade).is_ok(), "{}", f.name);
        }
    }

    #[test]
    fn detects_sum_sum() {
        let detected = detect_cascade(&builder::unfused(&patterns::sum_sum(), 8)).unwrap();
        assert_eq!(detected.cascade.reductions[0].reduce, ReduceOp::Sum);
        assert_eq!(detected.input_buffers, vec!["x1", "x2"]);
    }

    #[test]
    fn figure11_is_not_of_the_scalar_shape() {
        // The 2-D Figure 11 loop nest needs blockization first; the scalar
        // detector reports it as unsupported rather than mis-detecting it.
        let err = detect_cascade(&builder::figure11_attention(2, 4, 2)).unwrap_err();
        assert_eq!(err, DetectError::NoReductions);
    }

    #[test]
    fn mismatched_axes_are_rejected() {
        let mut f = builder::unfused(&patterns::safe_softmax(), 8);
        if let Stmt::For { extent, .. } = &mut f.body[1] {
            *extent = 4;
        }
        let err = detect_cascade(&f).unwrap_err();
        assert!(matches!(err, DetectError::MismatchedAxes { .. }));
        assert!(err.to_string().contains("disagree"));
    }

    #[test]
    fn unsupported_load_is_reported() {
        let mut f = builder::unfused(&patterns::safe_softmax(), 8);
        // Replace the second reduction's value with a load of an undeclared,
        // non-axis-indexed buffer.
        if let Stmt::For { body, .. } = &mut f.body[1] {
            if let Stmt::Update { value, .. } = &mut body[0] {
                *value = TirExpr::load0("mystery");
            }
        }
        let err = detect_cascade(&f).unwrap_err();
        assert_eq!(
            err,
            DetectError::UnsupportedLoad {
                buffer: "mystery".into()
            }
        );
    }

    #[test]
    fn empty_function_has_no_reductions() {
        let f = TirFunction {
            name: "empty".into(),
            buffers: vec![],
            body: vec![],
        };
        assert_eq!(detect_cascade(&f).unwrap_err(), DetectError::NoReductions);
    }
}
