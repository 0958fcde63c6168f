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
//! * evaluation against a variable environment ([`eval::Env`]) — the
//!   ten-line tree walk that *defines* what an expression means, for one-shot
//!   callers and tests,
//! * a compiled form ([`Expr::compile`] → [`CompiledExpr`]): variables
//!   resolved to slot indices once, the tree flattened to a postfix program,
//!   evaluation over a `&[f64]` with no name lookup — the same bits as the
//!   tree walk, held equal by a property test,
//! * substitution and free-variable analysis,
//! * algebraic simplification (constant folding + identity rules),
//! * a randomized **semantic equivalence** test ([`equiv::semantically_equal`])
//!   used in place of CAS identity proving.
//!
//! # The decision procedure, as built
//!
//! ACRF decides per reduction; what it runs on is in this crate.
//!
//! * **Compile once, bind slots.** `F_i` is compiled once over
//!   `[inputs…, dependencies…]`. A fixed-point candidate `F(x0, d0)` is one
//!   run on a constant slot array, and the identity of Eq. 23 is checked
//!   without building `F(x, d0)` or `F(x0, d)` as trees: the same program
//!   runs three times per sample point with the input slots or the
//!   dependency slots overwritten by the fixed point. Only the candidate that
//!   passes is substituted and simplified into `G` and `H`.
//! * **64 seeded points.** [`equiv::agree_on_samples`] is the one sampler:
//!   [`EquivConfig::default`] draws 64 points on `[-4, 4]` from seed
//!   `0x52EDF05E`, variable-major within a point, in every build profile;
//!   a point where a side is non-finite is skipped, the comparison is
//!   relative at `1e-7`, and no valid point means *not equal*.
//! * **What is a proof and what is a test.** A disagreement at a finite point
//!   (beyond the tolerance) is a counterexample, so a refuted identity is
//!   refuted. Agreement is a randomized test, not a proof — for
//!   the vocabulary of ML reductions (polynomials, `exp`/`ln`/`abs`/`sqrt`,
//!   `max`/`min`) two different functions agreeing at 64 random points within
//!   `1e-7` is overwhelmingly unlikely, and the extracted `F = G ⊗ H` is
//!   checked a second time before it is accepted. The operator laws of
//!   Table 1 are likewise checked numerically, on a fixed 9-point grid
//!   (`rf_algebra::laws`).
//! * **Nothing is remembered.** No verdict, program or sample is kept between
//!   calls; analysing the same cascade twice does the work twice. The one
//!   process-lifetime table is `rf_algebra::LawReport::of`'s sixteen
//!   `(⊕, ⊗)` law verdicts, which depend on no input.
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
pub mod compiled;
pub mod equiv;
pub mod eval;
pub mod simplify;

pub use ast::{Expr, ExprKind, UnaryFn};
pub use compiled::CompiledExpr;
pub use equiv::{agree_on_samples, semantically_equal, EquivConfig};
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
