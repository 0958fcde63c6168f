//! Expression evaluation against a variable environment.

use std::fmt;

use crate::ast::{Expr, ExprKind};

/// Errors produced while evaluating an [`Expr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A free variable had no binding in the environment.
    UnboundVariable(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(name) => write!(f, "unbound variable `{name}`"),
        }
    }
}

impl std::error::Error for EvalError {}

/// A variable environment mapping names to `f64` values.
///
/// `Env` is for one-shot evaluation — a test, an example, a single value of
/// `H` — where naming the variables is the point. Cascades bind a handful of
/// names, so the bindings are a small vector searched linearly. Code that
/// evaluates one expression at many points (the equivalence checker, ACRF,
/// the cascade evaluators) compiles it instead: [`Expr::compile`] resolves
/// the names to slots once and [`crate::CompiledExpr::eval`] looks nothing up.
///
/// # Examples
///
/// ```
/// use rf_expr::{Expr, eval::Env};
///
/// let e = Expr::var("a") * Expr::var("b");
/// let env = Env::from_pairs([("a", 2.0), ("b", 3.0)]);
/// assert_eq!(e.eval(&env).unwrap(), 6.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// One entry per bound name (names are unique), in first-binding order.
    bindings: Vec<(String, f64)>,
}

/// Two environments are equal when they bind the same names to equal values,
/// whatever order the names were bound in.
impl PartialEq for Env {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .bindings
                .iter()
                .all(|(name, value)| other.get(name) == Some(*value))
    }
}

impl Env {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Env::default()
    }

    /// Creates an environment from `(name, value)` pairs.
    pub fn from_pairs<I, S>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String> + AsRef<str>,
    {
        let mut env = Env::new();
        for (name, value) in pairs {
            env.set(name, value);
        }
        env
    }

    /// Binds (or rebinds) a variable. Rebinding overwrites the value in
    /// place; only a name not yet bound is converted to an owned `String`.
    pub fn set(&mut self, name: impl Into<String> + AsRef<str>, value: f64) -> &mut Self {
        match self.bindings.iter_mut().find(|(n, _)| n == name.as_ref()) {
            Some(binding) => binding.1 = value,
            None => self.bindings.push((name.into(), value)),
        }
        self
    }

    /// Looks up a variable.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.bindings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, value)| *value)
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether the environment has no bindings.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

impl Expr {
    /// Evaluates the expression against `env`: the *definition* of
    /// evaluation, a tree walk. [`crate::CompiledExpr::eval`] is its fast
    /// form and returns the same bits.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::UnboundVariable`] if a free variable of the
    /// expression has no binding. Domain errors (log of a negative number,
    /// division by zero, …) follow IEEE-754 semantics and produce `NaN`/`inf`
    /// rather than errors, matching the behaviour of generated kernels.
    pub fn eval(&self, env: &Env) -> Result<f64, EvalError> {
        match self.kind() {
            ExprKind::Const(c) => Ok(*c),
            ExprKind::Var(name) => env
                .get(name)
                .ok_or_else(|| EvalError::UnboundVariable(name.clone())),
            ExprKind::Unary(f, a) => Ok(f.apply(a.eval(env)?)),
            ExprKind::Binary(op, a, b) => Ok(op.apply(a.eval(env)?, b.eval(env)?)),
            ExprKind::Sub(a, b) => Ok(a.eval(env)? - b.eval(env)?),
            ExprKind::Div(a, b) => Ok(a.eval(env)? / b.eval(env)?),
        }
    }

    /// Evaluates a closed expression (no free variables).
    ///
    /// # Panics
    ///
    /// Panics if the expression has free variables; use [`Expr::eval`] when the
    /// expression may be open.
    pub fn eval_closed(&self) -> f64 {
        self.eval(&Env::new())
            .expect("expression has free variables; use eval() with an environment")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_constants_and_vars() {
        let e = Expr::constant(2.0) * Expr::var("x") + Expr::constant(1.0);
        let env = Env::from_pairs([("x", 5.0)]);
        assert_eq!(e.eval(&env).unwrap(), 11.0);
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let e = Expr::var("missing");
        let err = e.eval(&Env::new()).unwrap_err();
        assert_eq!(err, EvalError::UnboundVariable("missing".to_string()));
        assert!(err.to_string().contains("missing"));
    }

    #[test]
    fn division_by_zero_yields_infinity() {
        let e = Expr::one() / Expr::zero();
        assert!(e.eval(&Env::new()).unwrap().is_infinite());
    }

    #[test]
    fn eval_closed_works_without_env() {
        let e = (Expr::constant(3.0) - Expr::constant(1.0)).exp();
        assert!((e.eval_closed() - (2.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "free variables")]
    fn eval_closed_panics_on_open_expression() {
        Expr::var("x").eval_closed();
    }

    #[test]
    fn env_accessors() {
        let mut env = Env::new();
        assert!(env.is_empty());
        env.set("a", 1.0).set("b", 2.0);
        assert_eq!(env.len(), 2);
        assert_eq!(env.get("a"), Some(1.0));
        assert_eq!(env.get("c"), None);
    }

    #[test]
    fn rebinding_overwrites_in_place_and_equality_ignores_order() {
        let mut env = Env::from_pairs([("a", 1.0), ("b", 2.0)]);
        env.set("a", 5.0).set(String::from("b"), 6.0);
        assert_eq!(env.len(), 2, "a re-set name must not add a binding");
        assert_eq!(env.get("a"), Some(5.0));
        assert_eq!(env.get("b"), Some(6.0));

        let reversed = Env::from_pairs([("b", 6.0), ("a", 5.0)]);
        assert_eq!(env, reversed, "binding order is not part of the value");
        assert_ne!(env, Env::from_pairs([("a", 5.0), ("b", 7.0)]));
        assert_ne!(env, Env::from_pairs([("a", 5.0)]));
        assert_ne!(env, Env::from_pairs([("a", 5.0), ("c", 6.0)]));
    }

    #[test]
    fn max_min_sub_div_evaluate() {
        let env = Env::from_pairs([("x", -4.0), ("y", 3.0)]);
        let x = Expr::var("x");
        let y = Expr::var("y");
        assert_eq!(x.clone().max(y.clone()).eval(&env).unwrap(), 3.0);
        assert_eq!(x.clone().min(y.clone()).eval(&env).unwrap(), -4.0);
        assert_eq!((x.clone() - y.clone()).eval(&env).unwrap(), -7.0);
        assert_eq!((y / x).eval(&env).unwrap(), -0.75);
    }
}
