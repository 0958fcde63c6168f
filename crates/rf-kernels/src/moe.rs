//! MoE routing kernels: scoring GEMM + softmax + top-k (§2.2, Appendix A.2.2).
//!
//! The routing pipeline computes expert scores `S = X W` (`[s, en]`), applies a
//! softmax over the expert axis, and selects the top-k experts per token. The
//! unfused pipeline materialises the score and probability matrices; the fused
//! kernel streams over the experts of each token once, maintaining the running
//! max, the running rescaled sum and the running top-k set simultaneously, and
//! normalises only the selected entries at the end (softmax preserves order, so
//! top-k can be applied to raw scores and normalised afterwards).

use rf_workloads::{exp, Matrix, MoeConfig};

use crate::softmax::softmax_rows;
use crate::topk::{topk_streaming, TopKEntry};

/// The routing decision for one token: the selected experts and their
/// normalised probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingDecision {
    /// Indices of the selected experts, in decreasing probability order.
    pub experts: Vec<usize>,
    /// Normalised probabilities of the selected experts (softmax over all
    /// experts, restricted to the selected ones).
    pub probs: Vec<f64>,
}

/// Computes the expert score matrix `X W`.
pub fn routing_scores(x: &Matrix, w: &Matrix) -> Matrix {
    x.matmul(w)
}

/// Unfused routing: GEMM → full softmax matrix → top-k per row.
pub fn route_naive(x: &Matrix, w: &Matrix, topk: usize) -> Vec<RoutingDecision> {
    let scores = routing_scores(x, w);
    let probs = softmax_rows(&scores);
    (0..scores.rows())
        .map(|r| {
            let top = topk_streaming(probs.row(r), topk);
            RoutingDecision {
                experts: top.iter().map(|e| e.index).collect(),
                probs: top.iter().map(|e| e.value).collect(),
            }
        })
        .collect()
}

/// Fused routing: for each token, a single streaming pass over the experts
/// computes the softmax statistics and the top-k set together; only the
/// selected entries are normalised at the end.
pub fn route_fused(x: &Matrix, w: &Matrix, topk: usize) -> Vec<RoutingDecision> {
    assert_eq!(
        x.cols(),
        w.rows(),
        "activation and routing weight shapes must agree"
    );
    let tokens = x.rows();
    let experts = w.cols();
    assert!(
        topk <= experts,
        "topk must not exceed the number of experts"
    );
    let mut decisions = Vec::with_capacity(tokens);
    for t in 0..tokens {
        let mut running_max = f64::NEG_INFINITY;
        let mut running_sum = 0.0;
        let mut best: Vec<TopKEntry> = Vec::with_capacity(topk + 1);
        for e in 0..experts {
            // The scoring GEMM for this (token, expert) pair is itself the
            // innermost reduction of the cascade; it streams over the hidden
            // dimension without materialising the score matrix.
            let mut score = 0.0;
            for h in 0..x.cols() {
                score += x.get(t, h) * w.get(h, e);
            }
            // Incremental softmax statistics (Eq. 37).
            let new_max = running_max.max(score);
            running_sum = running_sum * exp(running_max - new_max) + exp(score - new_max);
            running_max = new_max;
            // Streaming top-k over the raw scores (order-preserving).
            let pos = best
                .iter()
                .position(|b| score > b.value || (score == b.value && e < b.index))
                .unwrap_or(best.len());
            best.insert(
                pos,
                TopKEntry {
                    index: e,
                    value: score,
                },
            );
            if best.len() > topk {
                best.pop();
            }
        }
        let probs = best
            .iter()
            .map(|b| exp(b.value - running_max) / running_sum)
            .collect();
        decisions.push(RoutingDecision {
            experts: best.iter().map(|b| b.index).collect(),
            probs,
        });
    }
    decisions
}

/// Generates deterministic inputs for a routing configuration and runs a
/// kernel over them. Used by the benchmarks; `scale` shrinks the problem for
/// quick runs (`scale = 1` reproduces the paper configuration).
pub fn run_config<F>(config: &MoeConfig, scale: usize, seed: u64, kernel: F) -> Vec<RoutingDecision>
where
    F: Fn(&Matrix, &Matrix, usize) -> Vec<RoutingDecision>,
{
    let s = (config.s / scale.max(1)).max(1);
    let hd = (config.hd / scale.max(1)).max(config.topk.max(4));
    let x = Matrix::random(s, hd, seed, -1.0, 1.0);
    let w = Matrix::random(hd, config.en, seed + 1, -1.0, 1.0);
    kernel(&x, &w, config.topk)
}

/// Compares two routing outputs: the expert sets must match exactly and the
/// probabilities must agree within `tolerance`.
pub fn decisions_equal(a: &[RoutingDecision], b: &[RoutingDecision], tolerance: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.experts == y.experts
                && x.probs
                    .iter()
                    .zip(&y.probs)
                    .all(|(p, q)| (p - q).abs() <= tolerance * (1.0 + p.abs()))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rf_workloads::moe::moe_tiny;

    #[test]
    fn fused_matches_naive_on_tiny_config() {
        let config = moe_tiny();
        let naive = run_config(&config, 1, 7, route_naive);
        let fused = run_config(&config, 1, 7, route_fused);
        assert!(decisions_equal(&naive, &fused, 1e-9));
    }

    #[test]
    fn probabilities_are_sorted_and_bounded() {
        let x = Matrix::random(8, 16, 3, -1.0, 1.0);
        let w = Matrix::random(16, 32, 4, -1.0, 1.0);
        for d in route_fused(&x, &w, 4) {
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
        let decisions = route_fused(&x, &w, 1);
        for (r, d) in decisions.iter().enumerate() {
            let argmax = (0..scores.cols())
                .max_by(|&a, &b| scores.get(r, a).partial_cmp(&scores.get(r, b)).unwrap())
                .unwrap();
            assert_eq!(d.experts, vec![argmax]);
        }
    }

    #[test]
    #[should_panic(expected = "topk must not exceed")]
    fn oversized_topk_panics() {
        let x = Matrix::random(1, 4, 1, -1.0, 1.0);
        let w = Matrix::random(4, 2, 2, -1.0, 1.0);
        route_fused(&x, &w, 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_fused_matches_naive(
            seed in 0u64..200,
            tokens in 1usize..10,
            hidden in 1usize..12,
            experts in 2usize..24,
            topk in 1usize..6,
        ) {
            prop_assume!(topk <= experts);
            let x = Matrix::random(tokens, hidden, seed, -1.0, 1.0);
            let w = Matrix::random(hidden, experts, seed + 1, -1.0, 1.0);
            let naive = route_naive(&x, &w, topk);
            let fused = route_fused(&x, &w, topk);
            prop_assert!(decisions_equal(&naive, &fused, 1e-8));
        }
    }
}
