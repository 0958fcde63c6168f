//! The compiled form of an expression: a flat, slot-bound postfix program.
//!
//! [`Expr::eval`] is the definition of evaluation — a tree walk that looks
//! every variable up by name. A decision procedure that evaluates one map
//! function at hundreds of points (ACRF's fixed-point identity, the
//! equivalence checker) pays that lookup, and a pointer chase per node, at
//! every point. [`Expr::compile`] resolves each variable to a *slot index*
//! once and flattens the tree into postfix order; [`CompiledExpr::eval`] then
//! runs the program against a `&[f64]` of slot values with no string compare,
//! no hashing and no allocation (the operand stack is a local array; only a
//! program nested more than sixteen operands deep takes it from the
//! heap, so no depth or variable count overruns anything). It applies the
//! tree walk's operations to the tree walk's operands, so the two return the
//! same bits (a property test holds them equal, NaN results included).

use rf_algebra::BinaryOp;

use crate::ast::{Expr, ExprKind, UnaryFn};
use crate::eval::EvalError;

/// One postfix instruction: push a value, or replace the top operand(s) of
/// the stack with an operation's result.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Instr {
    Const(f64),
    Slot(usize),
    Unary(UnaryFn),
    Binary(BinaryOp),
    Sub,
    Div,
}

/// Operand-stack depth served from the evaluating thread's stack. A program
/// needs one entry per pending left operand — `a + (b + (c + …))` nested
/// seventeen deep would be the first to exceed it — and a deeper one takes its
/// operand stack from the heap instead.
const INLINE_STACK: usize = 16;

/// An [`Expr`] compiled against an ordered variable list.
///
/// # Examples
///
/// ```
/// use rf_expr::Expr;
///
/// let e = (Expr::var("x") - Expr::var("m")).exp();
/// let program = e.compile(&["x", "m"]).unwrap();
/// assert_eq!(program.eval(&[3.0, 1.0]), (2.0f64).exp());
/// assert!(e.compile(&["x"]).is_err()); // `m` has no slot
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledExpr {
    code: Vec<Instr>,
    /// Length of the variable list the program was compiled against.
    arity: usize,
    /// Deepest operand stack the program reaches.
    depth: usize,
}

impl Expr {
    /// Compiles the expression against `vars`: variable `vars[i]` becomes
    /// slot `i` of the array [`CompiledExpr::eval`] takes. A name listed
    /// twice resolves to its last position, the binding a by-name
    /// environment would keep.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnboundVariable`] — the error [`Expr::eval`]
    /// reports — if a free variable of the expression is not in `vars`.
    pub fn compile(&self, vars: &[&str]) -> Result<CompiledExpr, EvalError> {
        let mut code = Vec::with_capacity(self.node_count());
        let depth = emit(self, vars, &mut code)?;
        Ok(CompiledExpr {
            code,
            arity: vars.len(),
            depth,
        })
    }
}

/// Appends `expr` in postfix order (left operand first, as the tree walk
/// evaluates) and returns the operand-stack depth it needs.
fn emit(expr: &Expr, vars: &[&str], code: &mut Vec<Instr>) -> Result<usize, EvalError> {
    let (a, b, op) = match expr.kind() {
        ExprKind::Const(c) => {
            code.push(Instr::Const(*c));
            return Ok(1);
        }
        ExprKind::Var(name) => {
            let slot = vars
                .iter()
                .rposition(|v| v == name)
                .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?;
            code.push(Instr::Slot(slot));
            return Ok(1);
        }
        ExprKind::Unary(f, a) => {
            let depth = emit(a, vars, code)?;
            code.push(Instr::Unary(*f));
            return Ok(depth);
        }
        ExprKind::Binary(op, a, b) => (a, b, Instr::Binary(*op)),
        ExprKind::Sub(a, b) => (a, b, Instr::Sub),
        ExprKind::Div(a, b) => (a, b, Instr::Div),
    };
    let left = emit(a, vars, code)?;
    let right = emit(b, vars, code)?;
    code.push(op);
    // The left result stays on the stack while the right operand is computed.
    Ok(left.max(1 + right))
}

impl CompiledExpr {
    /// Evaluates the program with variable `i` of the compile-time list bound
    /// to `slots[i]`. Domain errors follow IEEE-754 exactly as in
    /// [`Expr::eval`], whose result this equals bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is not as long as the variable list the program was
    /// compiled against.
    pub fn eval(&self, slots: &[f64]) -> f64 {
        assert_eq!(slots.len(), self.arity, "one value per compiled variable");
        if self.depth <= INLINE_STACK {
            self.run(slots, &mut [0.0; INLINE_STACK])
        } else {
            self.run(slots, &mut vec![0.0; self.depth])
        }
    }

    fn run(&self, slots: &[f64], stack: &mut [f64]) -> f64 {
        let mut top = 0;
        for instr in &self.code {
            match *instr {
                Instr::Const(c) => {
                    stack[top] = c;
                    top += 1;
                }
                Instr::Slot(slot) => {
                    stack[top] = slots[slot];
                    top += 1;
                }
                Instr::Unary(f) => stack[top - 1] = f.apply(stack[top - 1]),
                Instr::Binary(op) => {
                    top -= 1;
                    stack[top - 1] = op.apply(stack[top - 1], stack[top]);
                }
                Instr::Sub => {
                    top -= 1;
                    stack[top - 1] -= stack[top];
                }
                Instr::Div => {
                    top -= 1;
                    stack[top - 1] /= stack[top];
                }
            }
        }
        stack[0]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::eval::Env;
    use proptest::prelude::*;

    /// `simplify.rs`' grammar plus `/`, `exp`, `ln`, `sqrt` and `recip`, so
    /// that every instruction — and every way to leave the reals — is drawn.
    pub(crate) fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-10.0f64..10.0).prop_map(Expr::constant),
            prop::sample::select(vec!["x", "y", "z"]).prop_map(Expr::var),
        ];
        leaf.prop_recursive(4, 32, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a / b),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
                inner.clone().prop_map(|a| -a),
                inner.clone().prop_map(|a| a.abs()),
                inner.clone().prop_map(|a| a.exp()),
                inner.clone().prop_map(|a| a.ln()),
                inner.clone().prop_map(|a| a.sqrt()),
                inner.clone().prop_map(|a| a.recip()),
            ]
        })
    }

    /// Ordinary values mixed with the ones a cascade meets on hostile input.
    fn arb_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            -10.0f64..10.0,
            -10.0f64..10.0,
            prop::sample::select(vec![0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]),
        ]
    }

    #[test]
    fn evaluates_like_the_tree_walk() {
        let e = (Expr::var("x") - Expr::var("m")).exp() / Expr::var("t") * Expr::var("v");
        let program = e.compile(&["x", "v", "m", "t"]).unwrap();
        let env = Env::from_pairs([("x", 0.7), ("v", -1.5), ("m", 2.0), ("t", 3.0)]);
        assert_eq!(
            program.eval(&[0.7, -1.5, 2.0, 3.0]).to_bits(),
            e.eval(&env).unwrap().to_bits()
        );
        assert_eq!(Expr::constant(2.5).compile(&[]).unwrap().eval(&[]), 2.5);
    }

    #[test]
    fn unbound_variable_is_the_tree_walks_error() {
        let e = Expr::var("x") + Expr::var("missing");
        assert_eq!(
            e.compile(&["x"]).unwrap_err(),
            e.eval(&Env::from_pairs([("x", 1.0)])).unwrap_err()
        );
    }

    #[test]
    fn a_name_listed_twice_reads_its_last_slot() {
        let program = Expr::var("x").compile(&["x", "y", "x"]).unwrap();
        assert_eq!(program.eval(&[1.0, 2.0, 3.0]), 3.0);
    }

    #[test]
    fn deep_and_wide_programs_outgrow_no_fixed_array() {
        // 40 variables, nested to the right: 40 pending operands.
        let names: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
        let vars: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let e = vars
            .iter()
            .rev()
            .map(|&v| Expr::var(v))
            .reduce(|nested, v| v - nested)
            .unwrap();
        let program = e.compile(&vars).unwrap();
        assert!(program.depth > INLINE_STACK);
        let values: Vec<f64> = (0..40).map(|i| 1.0 / (1.0 + f64::from(i))).collect();
        let env = Env::from_pairs(vars.iter().copied().zip(values.iter().copied()));
        assert_eq!(
            program.eval(&values).to_bits(),
            e.eval(&env).unwrap().to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "one value per compiled variable")]
    fn a_short_slot_array_is_refused() {
        Expr::var("x").compile(&["x", "y"]).unwrap().eval(&[1.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn prop_compiled_eval_has_the_tree_walks_bits(
            e in arb_expr(),
            x in arb_value(),
            y in arb_value(),
            z in arb_value(),
        ) {
            let env = Env::from_pairs([("x", x), ("y", y), ("z", z)]);
            let walked = e.eval(&env).unwrap();
            let ran = e.compile(&["x", "y", "z"]).unwrap().eval(&[x, y, z]);
            // NaN results included: same operations on the same operands.
            prop_assert_eq!(walked.to_bits(), ran.to_bits(), "walked={walked:e} ran={ran:e} expr={e}");
        }

        #[test]
        fn prop_unbound_names_are_the_same_error(e in arb_expr()) {
            // Bind `x` only: any `y` or `z` must be reported, by both, as the
            // first one the tree walk meets.
            let walked = e.eval(&Env::from_pairs([("x", 1.0)]));
            let compiled = e.compile(&["x"]);
            prop_assert_eq!(walked.is_ok(), compiled.is_ok());
            if let (Err(a), Err(b)) = (walked, compiled) {
                prop_assert_eq!(a, b);
            }
        }
    }
}
