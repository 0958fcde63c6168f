//! Combine operators `⊗` used to decompose reduction map functions.
//!
//! A combine operator together with the real numbers must form a commutative
//! monoid (§3.2.1 of the paper): associative, commutative, with an identity
//! element. Inverses are used by the fused-expression derivation (Eq. 8/11);
//! when an element has no inverse (e.g. `0` under `*`) the reversibility-repair
//! mechanism of Appendix A.1 substitutes the identity element instead.

use std::fmt;

/// A binary combine operator `⊗` over `f64`.
///
/// Only operators that appear in the paper's Table 1 are represented: the
/// decomposition search space is deliberately restricted to this vocabulary
/// (§4.2.1, "domain-specific decomposition feasibility").
///
/// # Examples
///
/// ```
/// use rf_algebra::BinaryOp;
///
/// assert_eq!(BinaryOp::Add.apply(2.0, 3.0), 5.0);
/// assert_eq!(BinaryOp::Mul.identity(), 1.0);
/// assert_eq!(BinaryOp::Mul.inverse(4.0), Some(0.25));
/// assert_eq!(BinaryOp::Max.inverse(4.0), None); // max has no inverses
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinaryOp {
    /// Addition; identity `0`, every element invertible (negation).
    Add,
    /// Multiplication; identity `1`, every non-zero element invertible.
    Mul,
    /// Maximum; identity `-inf`, no inverses (idempotent semilattice).
    Max,
    /// Minimum; identity `+inf`, no inverses (idempotent semilattice).
    Min,
}

impl BinaryOp {
    /// All combine operators, in a fixed order (useful for exhaustive tests).
    pub const ALL: [BinaryOp; 4] = [BinaryOp::Add, BinaryOp::Mul, BinaryOp::Max, BinaryOp::Min];

    /// Applies the operator to two operands.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Mul => a * b,
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
        }
    }

    /// The identity element `e` with `e ⊗ s = s ⊗ e = s`.
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            BinaryOp::Add => 0.0,
            BinaryOp::Mul => 1.0,
            BinaryOp::Max => f64::NEG_INFINITY,
            BinaryOp::Min => f64::INFINITY,
        }
    }

    /// Reduces an iterator of values with this operator, starting from the
    /// identity element.
    pub fn fold<I: IntoIterator<Item = f64>>(self, values: I) -> f64 {
        values
            .into_iter()
            .fold(self.identity(), |acc, v| self.apply(acc, v))
    }

    /// The inverse of `value` under this operator, if it exists.
    ///
    /// Returns `None` for non-invertible elements (`0` under `Mul`, anything
    /// under `Max`/`Min`). Callers that need totality should use
    /// [`BinaryOp::inverse_or_repair`].
    #[inline]
    pub fn inverse(self, value: f64) -> Option<f64> {
        match self {
            BinaryOp::Add => Some(-value),
            BinaryOp::Mul => {
                if value == 0.0 || !value.is_finite() {
                    None
                } else {
                    Some(1.0 / value)
                }
            }
            BinaryOp::Max | BinaryOp::Min => None,
        }
    }

    /// The reversibility-repair of Appendix A.1: the inverse when it exists,
    /// otherwise the identity element (which is always its own inverse).
    #[inline]
    pub fn inverse_or_repair(self, value: f64) -> f64 {
        self.inverse(value).unwrap_or_else(|| self.identity())
    }

    /// Whether `value` is invertible under the operator.
    #[inline]
    pub fn is_invertible(self, value: f64) -> bool {
        self.inverse(value).is_some()
    }

    /// Whether this operator is idempotent (`s ⊗ s = s`).
    #[inline]
    pub fn is_idempotent(self) -> bool {
        matches!(self, BinaryOp::Max | BinaryOp::Min)
    }

    /// A short lowercase mnemonic used by IR printers.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinaryOp::Add => "add",
            BinaryOp::Mul => "mul",
            BinaryOp::Max => "max",
            BinaryOp::Min => "min",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let symbol = match self {
            BinaryOp::Add => "+",
            BinaryOp::Mul => "*",
            BinaryOp::Max => "max",
            BinaryOp::Min => "min",
        };
        f.write_str(symbol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identities() {
        for op in BinaryOp::ALL {
            let e = op.identity();
            for v in [-3.5, 0.0, 1.0, 7.25] {
                assert_eq!(op.apply(e, v), v, "{op} identity (left)");
                assert_eq!(op.apply(v, e), v, "{op} identity (right)");
            }
        }
    }

    #[test]
    fn inverse_add() {
        assert_eq!(BinaryOp::Add.inverse(3.0), Some(-3.0));
        assert_eq!(
            BinaryOp::Add.apply(3.0, BinaryOp::Add.inverse(3.0).unwrap()),
            0.0
        );
    }

    #[test]
    fn inverse_mul_zero_is_repaired() {
        assert_eq!(BinaryOp::Mul.inverse(0.0), None);
        assert_eq!(BinaryOp::Mul.inverse_or_repair(0.0), 1.0);
    }

    #[test]
    fn max_min_have_no_inverse() {
        assert_eq!(BinaryOp::Max.inverse(1.0), None);
        assert_eq!(BinaryOp::Min.inverse(1.0), None);
        assert_eq!(BinaryOp::Max.inverse_or_repair(1.0), f64::NEG_INFINITY);
    }

    #[test]
    fn fold_matches_manual() {
        assert_eq!(BinaryOp::Add.fold([1.0, 2.0, 3.0]), 6.0);
        assert_eq!(BinaryOp::Mul.fold([2.0, 3.0, 4.0]), 24.0);
        assert_eq!(BinaryOp::Max.fold([2.0, -3.0, 4.0]), 4.0);
        assert_eq!(BinaryOp::Min.fold([2.0, -3.0, 4.0]), -3.0);
    }

    #[test]
    fn idempotency_flags() {
        assert!(BinaryOp::Max.is_idempotent());
        assert!(BinaryOp::Min.is_idempotent());
        assert!(!BinaryOp::Add.is_idempotent());
        assert!(!BinaryOp::Mul.is_idempotent());
    }

    #[test]
    fn display_and_mnemonic() {
        assert_eq!(BinaryOp::Add.to_string(), "+");
        assert_eq!(BinaryOp::Max.mnemonic(), "max");
    }

    fn finite() -> impl Strategy<Value = f64> {
        -1.0e3..1.0e3
    }

    proptest! {
        #[test]
        fn prop_associative(op in prop::sample::select(BinaryOp::ALL.to_vec()),
                            a in finite(), b in finite(), c in finite()) {
            let lhs = op.apply(op.apply(a, b), c);
            let rhs = op.apply(a, op.apply(b, c));
            prop_assert!((lhs - rhs).abs() <= 1e-6 * (1.0 + lhs.abs().max(rhs.abs())));
        }

        #[test]
        fn prop_commutative(op in prop::sample::select(BinaryOp::ALL.to_vec()),
                            a in finite(), b in finite()) {
            prop_assert_eq!(op.apply(a, b), op.apply(b, a));
        }

        #[test]
        fn prop_inverse_cancels(a in finite()) {
            prop_assume!(a != 0.0);
            let inv = BinaryOp::Mul.inverse(a).unwrap();
            prop_assert!((BinaryOp::Mul.apply(a, inv) - 1.0).abs() < 1e-9);
            let ninv = BinaryOp::Add.inverse(a).unwrap();
            prop_assert_eq!(BinaryOp::Add.apply(a, ninv), 0.0);
        }

        #[test]
        fn prop_idempotent_ops(a in finite()) {
            prop_assert_eq!(BinaryOp::Max.apply(a, a), a);
            prop_assert_eq!(BinaryOp::Min.apply(a, a), a);
        }
    }
}
