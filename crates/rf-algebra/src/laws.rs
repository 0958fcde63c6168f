//! Numeric law checking for operator pairs.
//!
//! The fusion feasibility conditions of §3.2.1 require, for each reduction,
//! that `(S, ⊗_i)` is a commutative monoid and that `⊕_i` distributes over
//! `⊗_i`. These helpers check the laws on sampled points; they back both the
//! ACRF analysis in `rf-fusion` and the property-test suites.
//!
//! The verdict depends on the operator pair alone, and the vocabulary has
//! four operators: [`LawReport::of`] reads a 4 × 4 table that
//! [`LawReport::evaluate`] fills once per process. That table is Table 1
//! closed under its own vocabulary — nothing in it is derived from a cascade,
//! a workload or any other input, so it is not a plan cache.

use std::sync::OnceLock;

use crate::op::BinaryOp;

/// Relative tolerance used when comparing floating-point law instances.
pub const LAW_TOLERANCE: f64 = 1e-7;

/// Sample points used by the deterministic law checks. They mix signs,
/// magnitudes and the two monoid identities' neighbourhoods.
pub const SAMPLE_POINTS: [f64; 9] = [-13.5, -3.0, -1.0, -0.25, 0.0, 0.25, 1.0, 4.5, 11.0];

fn close(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= LAW_TOLERANCE * (1.0 + a.abs().max(b.abs()))
}

/// Checks associativity of `op` on the sample grid.
pub fn check_associative(op: BinaryOp) -> bool {
    for &a in &SAMPLE_POINTS {
        for &b in &SAMPLE_POINTS {
            for &c in &SAMPLE_POINTS {
                if !close(op.apply(op.apply(a, b), c), op.apply(a, op.apply(b, c))) {
                    return false;
                }
            }
        }
    }
    true
}

/// Checks commutativity of `op` on the sample grid.
pub fn check_commutative(op: BinaryOp) -> bool {
    for &a in &SAMPLE_POINTS {
        for &b in &SAMPLE_POINTS {
            if !close(op.apply(a, b), op.apply(b, a)) {
                return false;
            }
        }
    }
    true
}

/// Checks that `op.identity()` really is a two-sided identity on the sample grid.
pub fn check_identity(op: BinaryOp) -> bool {
    let e = op.identity();
    SAMPLE_POINTS
        .iter()
        .all(|&s| close(op.apply(e, s), s) && close(op.apply(s, e), s))
}

/// Checks that `plus` distributes over `times`:
/// `(a ⊕ b) ⊗ c = (a ⊗ c) ⊕ (b ⊗ c)` (Eq. 5 of the paper).
pub fn check_distributes_over(plus: BinaryOp, times: BinaryOp) -> bool {
    for &a in &SAMPLE_POINTS {
        for &b in &SAMPLE_POINTS {
            for &c in &SAMPLE_POINTS {
                let lhs = times.apply(plus.apply(a, b), c);
                let rhs = plus.apply(times.apply(a, c), times.apply(b, c));
                if !close(lhs, rhs) {
                    return false;
                }
            }
        }
    }
    true
}

/// A structured report of the commutative-monoid + distributivity check for a
/// `(⊕, ⊗)` pair, as required by the fusion feasibility conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LawReport {
    /// `⊗` is associative.
    pub combine_associative: bool,
    /// `⊗` is commutative.
    pub combine_commutative: bool,
    /// `⊗` has a two-sided identity.
    pub combine_has_identity: bool,
    /// `⊕` distributes over `⊗`.
    pub distributive: bool,
}

impl LawReport {
    /// The report for the pair `(plus, times)`: [`LawReport::evaluate`]'s
    /// answer, computed once per process for all sixteen pairs.
    pub fn of(plus: BinaryOp, times: BinaryOp) -> Self {
        static TABLE: OnceLock<[[LawReport; 4]; 4]> = OnceLock::new();
        // `BinaryOp::ALL` is in declaration order, so a discriminant indexes it.
        let table = TABLE.get_or_init(|| {
            BinaryOp::ALL.map(|plus| BinaryOp::ALL.map(|times| LawReport::evaluate(plus, times)))
        });
        table[plus as usize][times as usize]
    }

    /// Evaluates all laws for the pair `(plus, times)` on the sample grid.
    pub fn evaluate(plus: BinaryOp, times: BinaryOp) -> Self {
        LawReport {
            combine_associative: check_associative(times),
            combine_commutative: check_commutative(times),
            combine_has_identity: check_identity(times),
            distributive: check_distributes_over(plus, times),
        }
    }

    /// Whether every fusion feasibility condition holds.
    pub fn all_hold(&self) -> bool {
        self.combine_associative
            && self.combine_commutative
            && self.combine_has_identity
            && self.distributive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::ReduceOp;
    use crate::table1::compatible_combine;

    #[test]
    fn every_operator_is_a_commutative_monoid() {
        for op in BinaryOp::ALL {
            assert!(check_associative(op), "{op} associative");
            assert!(check_commutative(op), "{op} commutative");
            assert!(check_identity(op), "{op} identity");
        }
    }

    #[test]
    fn table1_rows_pass_full_law_report() {
        for reduce in ReduceOp::ALL {
            let plus = reduce.fusion_plus();
            let times = compatible_combine(reduce);
            let report = LawReport::evaluate(plus, times);
            assert!(report.all_hold(), "{reduce}: {report:?}");
        }
    }

    #[test]
    fn the_table_holds_evaluate_for_every_pair() {
        for (i, plus) in BinaryOp::ALL.into_iter().enumerate() {
            assert_eq!(plus as usize, i, "`of` indexes the table by discriminant");
            for times in BinaryOp::ALL {
                assert_eq!(
                    LawReport::of(plus, times),
                    LawReport::evaluate(plus, times),
                    "({plus}, {times})"
                );
            }
        }
    }

    #[test]
    fn mismatched_pair_is_rejected() {
        // max does not distribute over * (negative scaling flips the max).
        let report = LawReport::evaluate(BinaryOp::Max, BinaryOp::Mul);
        assert!(!report.distributive);
        assert!(!report.all_hold());
    }

    #[test]
    fn close_handles_infinities() {
        assert!(close(f64::NEG_INFINITY, f64::NEG_INFINITY));
        assert!(!close(f64::NEG_INFINITY, 0.0));
    }
}
