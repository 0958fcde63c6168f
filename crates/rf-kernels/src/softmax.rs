//! Safe softmax kernels: the canonical two-reduction cascade (§2.2).
//!
//! * [`softmax_naive`] — the unfused three-pass form: a max reduction, a
//!   sum-of-exponentials reduction, then the normalisation pass. Each pass
//!   re-reads the input, exactly like an eager framework executing three
//!   separate operators.
//! * [`softmax_online`] — the fused single-pass (incremental) form derived by
//!   RedFuser (Eq. 16 instantiated for softmax): a running maximum and a
//!   running rescaled sum are maintained while streaming over the input.
//! * [`softmax_rows`] — row-wise application over a matrix, used by the
//!   attention and MoE kernels.

use rf_workloads::{exp, Matrix};

/// The statistics produced by a softmax reduction pass: the row maximum and
/// the sum of shifted exponentials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftmaxStats {
    /// The maximum of the input.
    pub max: f64,
    /// The sum of `exp(x - max)` over the input.
    pub sum: f64,
}

/// Computes the safe-softmax statistics with two separate passes (unfused).
///
/// # Panics
///
/// Panics if the input is empty.
pub fn softmax_stats_naive(x: &[f64]) -> SoftmaxStats {
    assert!(!x.is_empty(), "softmax input must not be empty");
    let max = x.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let sum = x.iter().map(|&v| exp(v - max)).sum();
    SoftmaxStats { max, sum }
}

/// Computes the safe-softmax statistics in a single streaming pass (fused,
/// incremental form). Matches [`softmax_stats_naive`] exactly in exact
/// arithmetic; in floating point the results agree to rounding error.
///
/// # Panics
///
/// Panics if the input is empty.
pub fn softmax_stats_online(x: &[f64]) -> SoftmaxStats {
    assert!(!x.is_empty(), "softmax input must not be empty");
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &v in x {
        let new_max = max.max(v);
        // Correction step of Eq. 16: rescale the running sum when the maximum
        // moves, then add the new term under the updated maximum.
        sum = sum * exp(max - new_max) + exp(v - new_max);
        max = new_max;
    }
    SoftmaxStats { max, sum }
}

/// Full unfused safe softmax: three passes over the input.
pub fn softmax_naive(x: &[f64]) -> Vec<f64> {
    let stats = softmax_stats_naive(x);
    x.iter().map(|&v| exp(v - stats.max) / stats.sum).collect()
}

/// Safe softmax using the fused statistics pass followed by the normalisation
/// pass (two passes total; the probability vector itself cannot be emitted
/// before the statistics are known).
pub fn softmax_online(x: &[f64]) -> Vec<f64> {
    let stats = softmax_stats_online(x);
    x.iter().map(|&v| exp(v - stats.max) / stats.sum).collect()
}

/// Applies [`softmax_naive`] to every row of a matrix.
pub fn softmax_rows(scores: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(scores.rows(), scores.cols());
    for r in 0..scores.rows() {
        let probs = softmax_naive(scores.row(r));
        out.row_mut(r).copy_from_slice(&probs);
    }
    out
}

/// Merges the softmax statistics of two disjoint segments (the level-`k`
/// fused expression, Eq. 31). This is the combine step used by split-KV
/// decoding and by the multi-segment strategy.
pub fn merge_stats(a: SoftmaxStats, b: SoftmaxStats) -> SoftmaxStats {
    let max = a.max.max(b.max);
    let sum = a.sum * exp(a.max - max) + b.sum * exp(b.max - max);
    SoftmaxStats { max, sum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assert_close;
    use proptest::prelude::*;
    use rf_workloads::random_vec;

    #[test]
    fn online_matches_naive_stats() {
        let x = random_vec(257, 11, -5.0, 5.0);
        let a = softmax_stats_naive(&x);
        let b = softmax_stats_online(&x);
        assert!((a.max - b.max).abs() < 1e-12);
        assert!((a.sum - b.sum).abs() < 1e-9 * a.sum);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let x = random_vec(128, 3, -3.0, 3.0);
        let p = softmax_online(&x);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn online_matches_naive_probabilities() {
        let x = random_vec(64, 5, -4.0, 4.0);
        assert_close(&softmax_online(&x), &softmax_naive(&x), 1e-9);
    }

    #[test]
    fn large_inputs_do_not_overflow() {
        let x = vec![1000.0, 1000.5, 999.0];
        let p = softmax_online(&x);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_matches_whole_input() {
        let x = random_vec(96, 7, -2.0, 2.0);
        let whole = softmax_stats_naive(&x);
        let merged = merge_stats(
            softmax_stats_online(&x[..40]),
            softmax_stats_online(&x[40..]),
        );
        assert!((whole.max - merged.max).abs() < 1e-12);
        assert!((whole.sum - merged.sum).abs() < 1e-9 * whole.sum);
    }

    #[test]
    fn row_wise_softmax_normalises_each_row() {
        let m = rf_workloads::random_matrix(4, 16, 9, -1.0, 1.0);
        let p = softmax_rows(&m);
        for r in 0..p.rows() {
            let s: f64 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_input_panics() {
        softmax_stats_online(&[]);
    }

    proptest! {
        #[test]
        fn prop_online_equals_naive(x in prop::collection::vec(-30.0f64..30.0, 1..200)) {
            let a = softmax_naive(&x);
            let b = softmax_online(&x);
            for (p, q) in a.iter().zip(&b) {
                prop_assert!((p - q).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_merge_is_order_independent(
            x in prop::collection::vec(-10.0f64..10.0, 2..100),
            split in 1usize..99,
        ) {
            prop_assume!(split < x.len());
            let a = softmax_stats_online(&x[..split]);
            let b = softmax_stats_online(&x[split..]);
            let ab = merge_stats(a, b);
            let ba = merge_stats(b, a);
            prop_assert!((ab.max - ba.max).abs() < 1e-12);
            prop_assert!((ab.sum - ba.sum).abs() < 1e-9 * (1.0 + ab.sum.abs()));
        }
    }
}
