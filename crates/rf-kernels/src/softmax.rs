//! Unfused safe softmax: the canonical two-reduction cascade (§2.2).
//!
//! [`softmax_naive`] runs a max reduction, a sum-of-exponentials reduction,
//! then the normalisation pass. Each pass re-reads the input, exactly like an
//! eager framework executing three separate operators. [`softmax_rows`]
//! applies it row by row, for the attention and MoE oracles.

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

/// Computes the safe-softmax statistics with two separate passes.
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

/// Full unfused safe softmax: three passes over the input.
pub fn softmax_naive(x: &[f64]) -> Vec<f64> {
    let stats = softmax_stats_naive(x);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rf_workloads::random_vec;

    #[test]
    fn probabilities_sum_to_one() {
        let x = random_vec(128, 3, -3.0, 3.0);
        let p = softmax_naive(&x);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn large_inputs_do_not_overflow() {
        let x = vec![1000.0, 1000.5, 999.0];
        let p = softmax_naive(&x);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
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
        softmax_stats_naive(&[]);
    }
}
