//! Expression AST and construction helpers.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

use rf_algebra::BinaryOp;

/// Built-in unary functions.
///
/// The vocabulary intentionally covers exactly what appears in the paper's
/// workloads: safe softmax (`exp`), FP8 quantization (`abs`), normalisation /
/// moment-of-inertia style expressions (`sqrt`), products-as-log-sums (`ln`),
/// and reciprocals for the inverse terms `H_i(·)^{-1}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryFn {
    /// Arithmetic negation.
    Neg,
    /// Absolute value.
    Abs,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Square root.
    Sqrt,
    /// Multiplicative reciprocal `1/x`.
    Recip,
}

impl UnaryFn {
    /// Applies the function to a value.
    #[inline]
    pub fn apply(self, v: f64) -> f64 {
        match self {
            UnaryFn::Neg => -v,
            UnaryFn::Abs => v.abs(),
            UnaryFn::Exp => v.exp(),
            UnaryFn::Ln => v.ln(),
            UnaryFn::Sqrt => v.sqrt(),
            UnaryFn::Recip => 1.0 / v,
        }
    }

    /// The printable name of the function.
    pub fn name(self) -> &'static str {
        match self {
            UnaryFn::Neg => "neg",
            UnaryFn::Abs => "abs",
            UnaryFn::Exp => "exp",
            UnaryFn::Ln => "ln",
            UnaryFn::Sqrt => "sqrt",
            UnaryFn::Recip => "recip",
        }
    }
}

/// The node kinds of the expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// A floating-point literal.
    Const(f64),
    /// A named free variable.
    Var(String),
    /// A unary function applied to a sub-expression.
    Unary(UnaryFn, Expr),
    /// A binary combine-operator application (`+`, `*`, `max`, `min`).
    Binary(BinaryOp, Expr, Expr),
    /// Subtraction (kept distinct from `Add`+`Neg` for readable printing).
    Sub(Expr, Expr),
    /// Division (kept distinct from `Mul`+`Recip` for readable printing).
    Div(Expr, Expr),
}

/// An immutable, reference-counted symbolic expression.
///
/// `Expr` is a thin wrapper around `Arc<ExprKind>` (atomically refcounted so
/// compiled plans embedding expressions can cross the serving runtime's
/// worker threads), so cloning is O(1) and
/// sub-expressions are shared. Expressions are constructed either with the
/// named constructors ([`Expr::var`], [`Expr::constant`], [`Expr::max`], …) or
/// with the overloaded arithmetic operators.
#[derive(Clone, PartialEq)]
pub struct Expr(pub Arc<ExprKind>);

impl Expr {
    /// A named variable.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr(Arc::new(ExprKind::Var(name.into())))
    }

    /// A floating-point constant.
    pub fn constant(value: f64) -> Expr {
        Expr(Arc::new(ExprKind::Const(value)))
    }

    /// The constant zero.
    pub fn zero() -> Expr {
        Expr::constant(0.0)
    }

    /// The constant one.
    pub fn one() -> Expr {
        Expr::constant(1.0)
    }

    /// Applies a binary combine operator to two expressions.
    pub fn binary(op: BinaryOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr(Arc::new(ExprKind::Binary(op, lhs, rhs)))
    }

    /// `max(self, other)`.
    pub fn max(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Max, self, other)
    }

    /// `min(self, other)`.
    pub fn min(self, other: Expr) -> Expr {
        Expr::binary(BinaryOp::Min, self, other)
    }

    /// `exp(self)`.
    pub fn exp(self) -> Expr {
        Expr(Arc::new(ExprKind::Unary(UnaryFn::Exp, self)))
    }

    /// `ln(self)`.
    pub fn ln(self) -> Expr {
        Expr(Arc::new(ExprKind::Unary(UnaryFn::Ln, self)))
    }

    /// `abs(self)`.
    pub fn abs(self) -> Expr {
        Expr(Arc::new(ExprKind::Unary(UnaryFn::Abs, self)))
    }

    /// `sqrt(self)`.
    pub fn sqrt(self) -> Expr {
        Expr(Arc::new(ExprKind::Unary(UnaryFn::Sqrt, self)))
    }

    /// `1 / self`.
    pub fn recip(self) -> Expr {
        Expr(Arc::new(ExprKind::Unary(UnaryFn::Recip, self)))
    }

    /// The node kind of the root.
    pub fn kind(&self) -> &ExprKind {
        &self.0
    }

    /// Returns the constant value if the expression is a literal.
    pub fn as_const(&self) -> Option<f64> {
        match self.kind() {
            ExprKind::Const(c) => Some(*c),
            _ => None,
        }
    }

    /// Collects the free variables of the expression in sorted order.
    pub fn free_vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self.kind() {
            ExprKind::Const(_) => {}
            ExprKind::Var(name) => {
                out.insert(name.clone());
            }
            ExprKind::Unary(_, a) => a.collect_vars(out),
            ExprKind::Binary(_, a, b) | ExprKind::Sub(a, b) | ExprKind::Div(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Whether the expression mentions the given variable.
    pub fn depends_on(&self, name: &str) -> bool {
        match self.kind() {
            ExprKind::Const(_) => false,
            ExprKind::Var(v) => v == name,
            ExprKind::Unary(_, a) => a.depends_on(name),
            ExprKind::Binary(_, a, b) | ExprKind::Sub(a, b) | ExprKind::Div(a, b) => {
                a.depends_on(name) || b.depends_on(name)
            }
        }
    }

    /// Substitutes `replacement` for every occurrence of variable `name`.
    pub fn substitute(&self, name: &str, replacement: &Expr) -> Expr {
        match self.kind() {
            ExprKind::Const(_) => self.clone(),
            ExprKind::Var(v) => {
                if v == name {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            ExprKind::Unary(f, a) => Expr(Arc::new(ExprKind::Unary(
                *f,
                a.substitute(name, replacement),
            ))),
            ExprKind::Binary(op, a, b) => Expr(Arc::new(ExprKind::Binary(
                *op,
                a.substitute(name, replacement),
                b.substitute(name, replacement),
            ))),
            ExprKind::Sub(a, b) => Expr(Arc::new(ExprKind::Sub(
                a.substitute(name, replacement),
                b.substitute(name, replacement),
            ))),
            ExprKind::Div(a, b) => Expr(Arc::new(ExprKind::Div(
                a.substitute(name, replacement),
                b.substitute(name, replacement),
            ))),
        }
    }

    /// Substitutes many variables at once.
    pub fn substitute_all(&self, bindings: &[(&str, Expr)]) -> Expr {
        bindings
            .iter()
            .fold(self.clone(), |acc, (name, repl)| acc.substitute(name, repl))
    }

    /// Number of nodes in the expression tree (a size metric used by the
    /// auto-tuner cost heuristics and tests).
    pub fn node_count(&self) -> usize {
        match self.kind() {
            ExprKind::Const(_) | ExprKind::Var(_) => 1,
            ExprKind::Unary(_, a) => 1 + a.node_count(),
            ExprKind::Binary(_, a, b) | ExprKind::Sub(a, b) | ExprKind::Div(a, b) => {
                1 + a.node_count() + b.node_count()
            }
        }
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind() {
            ExprKind::Const(c) => write!(f, "{c}"),
            ExprKind::Var(v) => write!(f, "{v}"),
            ExprKind::Unary(func, a) => write!(f, "{}({a})", func.name()),
            ExprKind::Binary(BinaryOp::Add, a, b) => write!(f, "({a} + {b})"),
            ExprKind::Binary(BinaryOp::Mul, a, b) => write!(f, "({a} * {b})"),
            ExprKind::Binary(BinaryOp::Max, a, b) => write!(f, "max({a}, {b})"),
            ExprKind::Binary(BinaryOp::Min, a, b) => write!(f, "min({a}, {b})"),
            ExprKind::Sub(a, b) => write!(f, "({a} - {b})"),
            ExprKind::Div(a, b) => write!(f, "({a} / {b})"),
        }
    }
}

impl From<f64> for Expr {
    fn from(value: f64) -> Self {
        Expr::constant(value)
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Add, self, rhs)
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr(Arc::new(ExprKind::Sub(self, rhs)))
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Mul, self, rhs)
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr(Arc::new(ExprKind::Div(self, rhs)))
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr(Arc::new(ExprKind::Unary(UnaryFn::Neg, self)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_display() {
        let x = Expr::var("x");
        let y = Expr::var("y");
        let e = (x.clone() + y.clone()) * Expr::constant(2.0);
        assert_eq!(e.to_string(), "((x + y) * 2)");
        assert_eq!(e.node_count(), 5);
        assert_eq!(
            e.free_vars().into_iter().collect::<Vec<_>>(),
            vec!["x".to_string(), "y".to_string()]
        );
    }

    #[test]
    fn substitution_replaces_all_occurrences() {
        let x = Expr::var("x");
        let e = x.clone() * x.clone() + x.clone();
        let s = e.substitute("x", &Expr::constant(3.0));
        assert!(s.free_vars().is_empty());
        assert_eq!(s.to_string(), "((3 * 3) + 3)");
    }

    #[test]
    fn depends_on_checks_nested_expressions() {
        let e = (Expr::var("a") - Expr::var("b")).exp() / Expr::var("t");
        assert!(e.depends_on("a"));
        assert!(e.depends_on("t"));
        assert!(!e.depends_on("z"));
    }

    #[test]
    fn as_const_reads_only_a_literal() {
        assert_eq!(Expr::constant(4.0).as_const(), Some(4.0));
        assert_eq!(Expr::var("x").as_const(), None);
    }

    #[test]
    fn unary_functions_apply() {
        assert_eq!(UnaryFn::Abs.apply(-2.0), 2.0);
        assert_eq!(UnaryFn::Neg.apply(2.0), -2.0);
        assert_eq!(UnaryFn::Recip.apply(4.0), 0.25);
        assert!((UnaryFn::Sqrt.apply(9.0) - 3.0).abs() < 1e-12);
        assert!((UnaryFn::Ln.apply(UnaryFn::Exp.apply(1.5)) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn from_f64_builds_constant() {
        let e: Expr = 2.5.into();
        assert_eq!(e.as_const(), Some(2.5));
    }
}
