//! Unfused attention oracle for one `(batch, head)` slice.
//!
//! A query matrix `[q_len, d]`, key and value matrices `[kv_len, d]`, output
//! `[q_len, d]`. [`attention_naive`] materialises the full score matrix,
//! applies softmax, and multiplies with `V` — three separate operators with
//! intermediate tensors, as an eager framework would execute them.

use rf_workloads::Matrix;

use crate::softmax::softmax_rows;

/// Computes the scaled score matrix `Q K^T * scale`.
pub fn attention_scores(q: &Matrix, k: &Matrix, scale: f64) -> Matrix {
    assert_eq!(
        q.cols(),
        k.cols(),
        "query and key head dimensions must agree"
    );
    let mut scores = Matrix::zeros(q.rows(), k.rows());
    for i in 0..q.rows() {
        let q_row = q.row(i);
        for (j, slot) in scores.row_mut(i).iter_mut().enumerate() {
            let dot = q_row
                .iter()
                .zip(k.row(j))
                .fold(0.0, |dot, (&a, &b)| dot + a * b);
            *slot = dot * scale;
        }
    }
    scores
}

/// Unfused attention: `softmax(Q K^T * scale) V` with all intermediates
/// materialised.
pub fn attention_naive(q: &Matrix, k: &Matrix, v: &Matrix, scale: f64) -> Matrix {
    assert_eq!(
        k.rows(),
        v.rows(),
        "key and value sequence lengths must agree"
    );
    let scores = attention_scores(q, k, scale);
    let probs = softmax_rows(&scores);
    probs.matmul(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attention_rows_are_convex_combinations() {
        // Each output row is a convex combination of value rows, so it must lie
        // within the per-column min/max of V.
        let q = Matrix::random(8, 4, 4, -1.0, 1.0);
        let k = Matrix::random(32, 4, 5, -1.0, 1.0);
        let v = Matrix::random(32, 4, 6, -1.0, 1.0);
        let out = attention_naive(&q, &k, &v, 0.5);
        for t in 0..v.cols() {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for j in 0..v.rows() {
                lo = lo.min(v.get(j, t));
                hi = hi.max(v.get(j, t));
            }
            for i in 0..out.rows() {
                assert!(out.get(i, t) >= lo - 1e-9 && out.get(i, t) <= hi + 1e-9);
            }
        }
    }
}
