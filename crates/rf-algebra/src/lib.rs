//! Operator algebra for cascaded reduction fusion.
//!
//! The fusion methodology of RedFuser (§3 of the paper) is parameterised by two
//! binary operators per reduction:
//!
//! * the **reduction operator** `⊕_i` underlying the reduction `R_i`
//!   (summation, product, max, min — see [`ReduceOp`]), and
//! * the **combine operator** `⊗_i` used to split the map function
//!   `F_i(x, d) = G_i(x) ⊗_i H_i(d)` (see [`BinaryOp`]).
//!
//! Fusion is only valid when `(S, ⊗_i)` forms a commutative monoid and `⊕_i`
//! distributes over `⊗_i` (§3.2.1). This crate encodes these operators, their
//! identities and inverses, numeric law-checking helpers used by the ACRF
//! analysis and by property tests, and the paper's Table 1 mapping from a
//! reduction operator to its compatible combine operator.

#![forbid(unsafe_code)]

pub mod laws;
pub mod op;
pub mod reduce;
pub mod table1;

pub use laws::{
    check_associative, check_commutative, check_distributes_over, check_identity, LawReport,
};
pub use op::BinaryOp;
pub use reduce::ReduceOp;
pub use table1::compatible_combine;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        assert_eq!(compatible_combine(ReduceOp::Sum), BinaryOp::Mul);
        assert_eq!(BinaryOp::Add.identity(), 0.0);
    }
}
