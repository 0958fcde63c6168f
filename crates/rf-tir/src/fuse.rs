//! Fused scalar-kernel generation (Appendix A.4's three-step template).
//!
//! Given the [`rf_fusion::FusionPlan`] produced by ACRF and the
//! [`DetectedCascade`] it came from, [`generate_fused`] emits a single loop
//! over the shared axis in which every reduction applies, per element:
//!
//! 1. **store previous result** — copy the running value into a `*_prev`
//!    buffer (omitted when no later reduction depends on it),
//! 2. **apply correction** — rescale the running value by
//!    `H(D_prev)^{-1} ⊗ H(D_cur)` (omitted for independent reductions),
//! 3. **perform reduction** — fold in the new element's `G(x) ⊗ H(D_cur)`.
//!
//! The first input element is peeled into a separate single-iteration loop so
//! the main loop never divides by (or subtracts) the reduction identities; the
//! same loop-splitting is what the tile-level lowering performs before
//! software pipelining.

use rf_algebra::BinaryOp;
use rf_expr::{Expr, ExprKind};
use rf_fusion::{FusedReduction, FusionPlan};

use crate::detect::DetectedCascade;
use crate::ir::{BufferDecl, Stmt, TirExpr, TirFunction};

/// Generates the fused single-pass scalar kernel for a detected cascade.
///
/// # Panics
///
/// Panics if the plan and the detected cascade disagree on the reduction list
/// (they always agree when the plan was produced from `detected.cascade`).
pub fn generate_fused(plan: &FusionPlan, detected: &DetectedCascade) -> TirFunction {
    assert!(
        plan.matches_spec(&detected.cascade),
        "fusion plan does not correspond to the detected cascade"
    );
    let axis = detected.axis.clone();
    let extent = detected.extent;

    let mut buffers: Vec<BufferDecl> = detected
        .input_buffers
        .iter()
        .map(|name| BufferDecl::input(name.clone(), vec![extent]))
        .collect();

    // A reduction needs a `*_prev` buffer when a later reduction's H references it.
    let needs_prev: Vec<bool> = plan
        .reductions
        .iter()
        .map(|r| {
            plan.reductions
                .iter()
                .any(|later| later.index > r.index && later.deps.contains(&r.name))
        })
        .collect();

    for (r, &prev) in plan.reductions.iter().zip(&needs_prev) {
        buffers.push(BufferDecl::output(
            r.name.clone(),
            vec![],
            r.plus.identity(),
        ));
        if prev {
            buffers.push(BufferDecl::temp(
                format!("{}_prev", r.name),
                vec![],
                r.plus.identity(),
            ));
        }
    }

    let reduction_names: Vec<String> = plan.reductions.iter().map(|r| r.name.clone()).collect();

    // Peeled first iteration: direct stores, no corrections.
    let peel_body: Vec<Stmt> = plan
        .reductions
        .iter()
        .map(|r| Stmt::Store {
            buffer: r.name.clone(),
            indices: vec![],
            value: incoming_value(r, &axis, &reduction_names),
        })
        .collect();

    // Main loop: the three-step template per reduction.
    let mut main_body: Vec<Stmt> = Vec::new();
    for (r, &prev) in plan.reductions.iter().zip(&needs_prev) {
        // Step 1: store previous result (only if later reductions need it).
        if prev {
            main_body.push(Stmt::Store {
                buffer: format!("{}_prev", r.name),
                indices: vec![],
                value: TirExpr::load0(r.name.clone()),
            });
        }
        // Step 2: apply correction (only for dependent reductions).
        if !r.is_independent() {
            let h_cur = lower_expr(&r.h, &axis, &reduction_names, &[]);
            let h_prev = lower_expr(&r.h, &axis, &reduction_names, &r.deps);
            let ratio = match r.combine {
                BinaryOp::Mul => TirExpr::Div(Box::new(h_cur), Box::new(h_prev)),
                BinaryOp::Add => TirExpr::Sub(Box::new(h_cur), Box::new(h_prev)),
                other => panic!("Table 1 never selects {other} as a combine operator"),
            };
            main_body.push(Stmt::Store {
                buffer: r.name.clone(),
                indices: vec![],
                value: TirExpr::Binary(
                    r.combine,
                    Box::new(TirExpr::load0(r.name.clone())),
                    Box::new(ratio),
                ),
            });
        }
        // Step 3: perform the reduction.
        main_body.push(Stmt::Update {
            buffer: r.name.clone(),
            indices: vec![],
            op: r.plus,
            value: incoming_value(r, &axis, &reduction_names),
        });
    }

    TirFunction {
        name: format!("fused_{}", detected.cascade.name),
        buffers,
        body: vec![
            Stmt::For {
                var: axis.clone(),
                start: 0,
                extent: 1.min(extent),
                body: peel_body,
            },
            Stmt::For {
                var: axis,
                start: 1,
                extent,
                body: main_body,
            },
        ],
    }
}

/// The per-element contribution `G(x) ⊗ H(D_cur)` (or just `G(x)` for
/// independent reductions), with dependency loads referencing the current
/// (already-updated) reduction buffers.
fn incoming_value(reduction: &FusedReduction, axis: &str, reduction_names: &[String]) -> TirExpr {
    let g = lower_expr(&reduction.g, axis, reduction_names, &[]);
    if reduction.is_independent() {
        g
    } else {
        let h = lower_expr(&reduction.h, axis, reduction_names, &[]);
        TirExpr::Binary(reduction.combine, Box::new(g), Box::new(h))
    }
}

/// Lowers a symbolic expression into the loop-nest IR, for the fused nest and
/// for the unfused one ([`crate::builder::unfused`]) alike. Variables that name
/// reduction results become scalar loads — of the `*_prev` buffer when listed
/// in `prev_deps` — while all other variables are cascade inputs streamed
/// along the axis and become 1-D loads.
pub(crate) fn lower_expr(
    expr: &Expr,
    axis: &str,
    reduction_names: &[String],
    prev_deps: &[String],
) -> TirExpr {
    match expr.kind() {
        ExprKind::Const(c) => TirExpr::Const(*c),
        ExprKind::Var(name) => {
            if prev_deps.contains(name) {
                TirExpr::load0(format!("{name}_prev"))
            } else if reduction_names.contains(name) {
                TirExpr::load0(name.clone())
            } else {
                TirExpr::load1(name.clone(), axis)
            }
        }
        ExprKind::Unary(f, a) => TirExpr::Unary(
            *f,
            Box::new(lower_expr(a, axis, reduction_names, prev_deps)),
        ),
        ExprKind::Binary(op, a, b) => TirExpr::Binary(
            *op,
            Box::new(lower_expr(a, axis, reduction_names, prev_deps)),
            Box::new(lower_expr(b, axis, reduction_names, prev_deps)),
        ),
        ExprKind::Sub(a, b) => TirExpr::Sub(
            Box::new(lower_expr(a, axis, reduction_names, prev_deps)),
            Box::new(lower_expr(b, axis, reduction_names, prev_deps)),
        ),
        ExprKind::Div(a, b) => TirExpr::Div(
            Box::new(lower_expr(a, axis, reduction_names, prev_deps)),
            Box::new(lower_expr(b, axis, reduction_names, prev_deps)),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use crate::detect::detect_cascade;
    use crate::interp::Interpreter;
    use rf_fusion::{analyze_cascade, patterns};
    use std::collections::HashMap;

    type Outputs = HashMap<String, Vec<f64>>;

    fn run_both(unfused: &TirFunction, inputs: &Outputs) -> (Outputs, Outputs, TirFunction) {
        let detected = detect_cascade(unfused).unwrap();
        let plan = analyze_cascade(&detected.cascade).unwrap();
        let fused = generate_fused(&plan, &detected);
        let interp = Interpreter::new();
        let a = interp.run(unfused, inputs).unwrap();
        let b = interp.run(&fused, inputs).unwrap();
        (a, b, fused)
    }

    fn assert_outputs_match(a: &HashMap<String, Vec<f64>>, b: &HashMap<String, Vec<f64>>) {
        for (name, expected) in a {
            let actual = &b[name];
            for (x, y) in expected.iter().zip(actual) {
                assert!(
                    (x - y).abs() <= 1e-8 * (1.0 + x.abs()),
                    "{name}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn fused_softmax_matches_unfused() {
        let unfused = builder::unfused(&patterns::safe_softmax(), 48);
        let inputs = HashMap::from([("x".to_string(), rf_workloads::random_vec(48, 5, -3.0, 3.0))]);
        let (a, b, fused) = run_both(&unfused, &inputs);
        assert_outputs_match(&a, &b);
        // The fused kernel has exactly one main loop over the axis (plus the peel).
        assert!(fused.to_string().contains("for l in range(1, 48):"));
    }

    #[test]
    fn fused_attention_row_matches_unfused() {
        let unfused = builder::unfused(&patterns::attention_row(), 64);
        let inputs = HashMap::from([
            ("p".to_string(), rf_workloads::random_vec(64, 7, -2.0, 2.0)),
            ("v".to_string(), rf_workloads::random_vec(64, 8, -2.0, 2.0)),
        ]);
        let (a, b, fused) = run_both(&unfused, &inputs);
        assert_outputs_match(&a, &b);
        // Dataflow elimination: `o` is not reused, so no `o_prev` buffer exists,
        // while `m` and `t` are reused and get one each (Appendix A.4).
        assert!(fused.buffer("m_prev").is_some());
        assert!(fused.buffer("t_prev").is_some());
        assert!(fused.buffer("o_prev").is_none());
    }

    #[test]
    fn fused_quant_row_matches_unfused() {
        let unfused = builder::unfused(&patterns::fp8_quant_gemm(), 40);
        let inputs = HashMap::from([
            ("a".to_string(), rf_workloads::random_vec(40, 11, -2.0, 2.0)),
            ("w".to_string(), rf_workloads::random_vec(40, 12, -1.0, 1.0)),
        ]);
        let (a, b, _) = run_both(&unfused, &inputs);
        assert_outputs_match(&a, &b);
    }

    #[test]
    fn fused_sum_sum_matches_unfused() {
        let unfused = builder::unfused(&patterns::sum_sum(), 32);
        let inputs = HashMap::from([
            ("x1".to_string(), rf_workloads::random_vec(32, 21, 0.5, 2.0)),
            (
                "x2".to_string(),
                rf_workloads::random_vec(32, 22, -1.0, 1.0),
            ),
        ]);
        let (a, b, _) = run_both(&unfused, &inputs);
        assert_outputs_match(&a, &b);
    }

    #[test]
    fn independent_reductions_have_no_correction_step() {
        let unfused = builder::unfused(&patterns::safe_softmax(), 16);
        let detected = detect_cascade(&unfused).unwrap();
        let plan = analyze_cascade(&detected.cascade).unwrap();
        let fused = generate_fused(&plan, &detected);
        let text = fused.to_string();
        // `m` (independent) appears only with max-updates, never with a
        // self-multiplying correction store.
        assert!(!text.contains("m[0] = (m[0] *"));
        // `t` (dependent) does get a correction.
        assert!(text.contains("t[0] = (t[0] *"));
    }

    #[test]
    #[should_panic(expected = "does not correspond")]
    fn mismatched_plan_is_rejected() {
        let softmax = detect_cascade(&builder::unfused(&patterns::safe_softmax(), 8)).unwrap();
        let other = detect_cascade(&builder::unfused(&patterns::fp8_quant_gemm(), 8)).unwrap();
        let plan = analyze_cascade(&other.cascade).unwrap();
        generate_fused(&plan, &softmax);
    }
}
