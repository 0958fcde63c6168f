//! Randomized semantic-equivalence testing.
//!
//! The ACRF algorithm must decide whether the fixed-point identity (Eq. 23)
//!
//! ```text
//! F(x, d) ⊗ F(x0, d0) = F(x, d0) ⊗ F(x0, d)
//! ```
//!
//! holds for *all* `x, d`. A computer-algebra system would prove this
//! symbolically; we substitute the standard compiler-testing approach of
//! evaluating both sides at many random points. For the restricted expression
//! vocabulary of ML reductions (polynomials, exp/ln/abs/sqrt, max/min) a
//! disagreement manifests on random inputs with overwhelming probability, and
//! the sample count is configurable for callers that want more assurance.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ast::Expr;

/// Configuration for [`semantically_equal`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquivConfig {
    /// Number of random sample points.
    pub trials: usize,
    /// Lower bound of the sampling interval for each variable.
    pub low: f64,
    /// Upper bound of the sampling interval for each variable.
    pub high: f64,
    /// Relative comparison tolerance.
    pub tolerance: f64,
    /// RNG seed (deterministic by default so analyses are reproducible).
    pub seed: u64,
}

impl Default for EquivConfig {
    fn default() -> Self {
        EquivConfig {
            trials: 64,
            low: -4.0,
            high: 4.0,
            tolerance: 1e-7,
            seed: 0x52ED_F05E,
        }
    }
}

impl EquivConfig {
    /// A configuration sampling only strictly positive values, for expressions
    /// whose domain excludes non-positive inputs (e.g. containing `ln` or used
    /// as divisors).
    pub fn positive() -> Self {
        EquivConfig {
            low: 0.05,
            high: 6.0,
            ..EquivConfig::default()
        }
    }
}

/// The one sampler behind every randomized identity in the workspace: draws
/// `config.trials` points of `arity` values each — seeded by `config.seed`,
/// the values of one point drawn in slot order before the next point's — and
/// asks `sides` for the two values to compare at each.
///
/// A point where either side is non-finite is skipped (it is outside the
/// shared domain); the sides agree when every remaining point matches within
/// the relative tolerance **and** at least one point remained, so a pair that
/// is undefined everywhere — or `trials: 0` — is conservatively *not* equal.
/// A `true` is a randomized test, not a proof; a `false` on a finite point is
/// a counterexample.
pub fn agree_on_samples(
    arity: usize,
    config: &EquivConfig,
    mut sides: impl FnMut(&[f64]) -> (f64, f64),
) -> bool {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut point = vec![0.0; arity];
    let mut valid_samples = 0usize;
    for _ in 0..config.trials {
        for value in &mut point {
            *value = rng.gen_range(config.low..=config.high);
        }
        let (a, b) = sides(&point);
        if !a.is_finite() || !b.is_finite() {
            continue;
        }
        valid_samples += 1;
        if (a - b).abs() > config.tolerance * (1.0 + a.abs().max(b.abs())) {
            return false;
        }
    }
    valid_samples > 0
}

/// Tests whether `lhs` and `rhs` agree on random assignments to `vars`
/// ([`agree_on_samples`] over the two compiled expressions).
///
/// Both sides are compiled against `vars` first, so a variable outside `vars`
/// is rejected — the expressions are reported *not* equivalent — before any
/// sample is drawn, and a trial is two runs of a flat program over one array
/// of drawn values.
pub fn semantically_equal(lhs: &Expr, rhs: &Expr, vars: &[&str], config: &EquivConfig) -> bool {
    let (Ok(lhs), Ok(rhs)) = (lhs.compile(vars), rhs.compile(vars)) else {
        return false;
    };
    agree_on_samples(vars.len(), config, |point| {
        (lhs.eval(point), rhs.eval(point))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::tests::arb_expr;
    use crate::eval::Env;
    use crate::simplify::simplify;
    use proptest::prelude::*;

    #[test]
    fn identical_expressions_are_equal() {
        let x = Expr::var("x");
        let e1 = (x.clone() + Expr::one()) * (x.clone() + Expr::one());
        let e2 = x.clone() * x.clone() + Expr::constant(2.0) * x.clone() + Expr::one();
        assert!(semantically_equal(
            &e1,
            &e2,
            &["x"],
            &EquivConfig::default()
        ));
    }

    #[test]
    fn different_expressions_are_not_equal() {
        let x = Expr::var("x");
        let e1 = x.clone() * x.clone();
        let e2 = x.clone() * Expr::constant(2.0);
        assert!(!semantically_equal(
            &e1,
            &e2,
            &["x"],
            &EquivConfig::default()
        ));
    }

    #[test]
    fn exp_of_sum_equals_product_of_exps() {
        let a = Expr::var("a");
        let b = Expr::var("b");
        let lhs = (a.clone() + b.clone()).exp();
        let rhs = a.exp() * b.exp();
        assert!(semantically_equal(
            &lhs,
            &rhs,
            &["a", "b"],
            &EquivConfig::default()
        ));
    }

    #[test]
    fn unbound_variable_reports_not_equal() {
        let lhs = Expr::var("x");
        let rhs = Expr::var("y");
        assert!(!semantically_equal(
            &lhs,
            &rhs,
            &["x"],
            &EquivConfig::default()
        ));
    }

    #[test]
    fn positive_domain_handles_ln() {
        let x = Expr::var("x");
        let lhs = x.clone().ln().exp();
        let rhs = x.clone();
        assert!(semantically_equal(
            &lhs,
            &rhs,
            &["x"],
            &EquivConfig::positive()
        ));
    }

    #[test]
    fn all_samples_invalid_is_not_equal() {
        // ln of a negative constant is NaN for every sample.
        let lhs = Expr::constant(-1.0).ln();
        let rhs = Expr::constant(-1.0).ln();
        assert!(!semantically_equal(
            &lhs,
            &rhs,
            &[],
            &EquivConfig::default()
        ));
    }

    #[test]
    fn zero_trials_is_not_equal() {
        let x = Expr::var("x");
        let config = EquivConfig {
            trials: 0,
            ..EquivConfig::default()
        };
        assert!(!semantically_equal(&x, &x, &["x"], &config));
    }

    #[test]
    fn default_config_is_the_documented_one() {
        let config = EquivConfig::default();
        assert_eq!((config.trials, config.low, config.high), (64, -4.0, 4.0));
        assert_eq!((config.tolerance, config.seed), (1e-7, 0x52ED_F05E));
    }

    /// The checker as it was before expressions had a compiled form — a
    /// by-name [`Env`] rebound per trial and a tree walk per side — kept as
    /// the reference the sampler's verdicts are held to.
    fn reference_equal(lhs: &Expr, rhs: &Expr, vars: &[&str], config: &EquivConfig) -> bool {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut valid_samples = 0usize;
        let mut env = Env::new();
        for _ in 0..config.trials {
            for &v in vars {
                env.set(v, rng.gen_range(config.low..=config.high));
            }
            let (Ok(a), Ok(b)) = (lhs.eval(&env), rhs.eval(&env)) else {
                return false;
            };
            if !a.is_finite() || !b.is_finite() {
                continue;
            }
            valid_samples += 1;
            if (a - b).abs() > config.tolerance * (1.0 + a.abs().max(b.abs())) {
                return false;
            }
        }
        valid_samples > 0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_verdicts_match_the_reference_checker(a in arb_expr(), b in arb_expr()) {
            // Equal pairs (a rewrite of `a`, `a` itself), unequal pairs (an
            // independent draw, `a` shifted), and `y` left unbound.
            let pairs = [
                (a.clone(), simplify(&a)),
                (a.clone(), a.clone()),
                (a.clone(), b),
                (a.clone(), a.clone() + Expr::one()),
            ];
            for config in [EquivConfig::default(), EquivConfig::positive()] {
                for (lhs, rhs) in &pairs {
                    for vars in [&["x", "y", "z"][..], &["z", "x"][..]] {
                        prop_assert_eq!(
                            semantically_equal(lhs, rhs, vars, &config),
                            reference_equal(lhs, rhs, vars, &config),
                            "lhs={} rhs={} vars={:?}", lhs, rhs, vars
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let x = Expr::var("x");
        let e1 = x.clone() * Expr::constant(3.0);
        let e2 = x.clone() + x.clone() + x.clone();
        let cfg = EquivConfig::default();
        assert_eq!(
            semantically_equal(&e1, &e2, &["x"], &cfg),
            semantically_equal(&e1, &e2, &["x"], &cfg)
        );
    }
}
