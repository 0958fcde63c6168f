//! Unfused MoE routing oracle: scoring GEMM + softmax + top-k (§2.2,
//! Appendix A.2.2).
//!
//! The routing pipeline computes expert scores `S = X W` (`[s, en]`), applies a
//! softmax over the expert axis, and selects the top-k experts per token.
//! [`route_naive`] materialises the score and probability matrices between
//! the three stages. It selects on the scores, as the fused kernel does: the
//! softmax preserves their order, and a NaN score (which makes every
//! probability of its token NaN) still ranks below every number.

use rf_workloads::Matrix;

pub use rf_workloads::moe::RoutingDecision;

use crate::softmax::softmax_rows;
use crate::topk::topk_streaming;

/// Computes the expert score matrix `X W`.
pub fn routing_scores(x: &Matrix, w: &Matrix) -> Matrix {
    x.matmul(w)
}

/// Unfused routing: GEMM → full softmax matrix → top-k per row, the
/// selected experts' probabilities read from the softmax matrix.
pub fn route_naive(x: &Matrix, w: &Matrix, topk: usize) -> Vec<RoutingDecision> {
    let scores = routing_scores(x, w);
    let probs = softmax_rows(&scores);
    (0..scores.rows())
        .map(|r| {
            let top = topk_streaming(scores.row(r), topk);
            RoutingDecision {
                experts: top.iter().map(|e| e.index).collect(),
                probs: top.iter().map(|e| probs.get(r, e.index)).collect(),
            }
        })
        .collect()
}

/// Compares two routing outputs: the expert sets must match exactly and the
/// probabilities must agree under [`crate::max_rel_diff`] within `tolerance`
/// (a NaN matches only a NaN at the same position).
pub fn decisions_equal(a: &[RoutingDecision], b: &[RoutingDecision], tolerance: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.experts == y.experts
                && x.probs.len() == y.probs.len()
                && crate::max_rel_diff(&x.probs, &y.probs) <= tolerance
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_are_sorted_and_bounded() {
        let x = Matrix::random(8, 16, 3, -1.0, 1.0);
        let w = Matrix::random(16, 32, 4, -1.0, 1.0);
        for d in route_naive(&x, &w, 4) {
            assert_eq!(d.experts.len(), 4);
            for window in d.probs.windows(2) {
                assert!(window[0] >= window[1]);
            }
            assert!(d.probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let total: f64 = d.probs.iter().sum();
            assert!(total <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn topk_one_selects_argmax() {
        let x = Matrix::random(4, 8, 11, -1.0, 1.0);
        let w = Matrix::random(8, 16, 12, -1.0, 1.0);
        let scores = routing_scores(&x, &w);
        let decisions = route_naive(&x, &w, 1);
        for (r, d) in decisions.iter().enumerate() {
            let argmax = (0..scores.cols())
                .max_by(|&a, &b| scores.get(r, a).partial_cmp(&scores.get(r, b)).unwrap())
                .unwrap();
            assert_eq!(d.experts, vec![argmax]);
        }
    }

    #[test]
    #[should_panic(expected = "k must not exceed the number of values")]
    fn oversized_topk_panics() {
        let x = Matrix::random(1, 4, 1, -1.0, 1.0);
        let w = Matrix::random(4, 2, 2, -1.0, 1.0);
        route_naive(&x, &w, 3);
    }
}
