//! Symbolic scalar expression engine.
//!
//! RedFuser's automatic fusion algorithm (ACRF, §4.2 of the paper) manipulates
//! the per-element map functions `F_i(x[l], d_i)` of cascaded reductions as
//! *symbolic expressions*: it substitutes fixed points into them, builds the
//! candidate decomposition `G_i(x) ⊗ H_i(d)` and checks the fixed-point
//! identity (Eq. 23). The original system uses SymPy for this; this crate is a
//! self-contained substitute that provides
//!
//! * an immutable, cheaply-clonable expression AST ([`Expr`]),
//! * evaluation against a variable environment ([`eval::Env`]),
//! * substitution and free-variable analysis,
//! * algebraic simplification (constant folding + identity rules),
//! * a randomized **semantic equivalence** test ([`equiv::semantically_equal`])
//!   used in place of CAS identity proving.
//!
//! # Example
//!
//! ```
//! use rf_expr::{Expr, eval::Env};
//!
//! let x = Expr::var("x");
//! let m = Expr::var("m");
//! // The softmax numerator exp(x - m).
//! let e = (x - m).exp();
//! let mut env = Env::new();
//! env.set("x", 3.0);
//! env.set("m", 1.0);
//! assert!((e.eval(&env).unwrap() - (2.0f64).exp()).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod equiv;
pub mod eval;
pub mod simplify;

pub use ast::{Expr, ExprKind, UnaryFn};
pub use equiv::{semantically_equal, EquivConfig};
pub use eval::{Env, EvalError};
pub use simplify::simplify;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_softmax_term() {
        let x = Expr::var("x");
        let m = Expr::var("m");
        let term = (x - m).exp();
        let mut env = Env::new();
        env.set("x", 2.0);
        env.set("m", 2.0);
        assert_eq!(term.eval(&env).unwrap(), 1.0);
    }
}
