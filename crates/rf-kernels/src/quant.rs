//! Unfused FP8 per-token quantization + GEMM oracle (§3.4 of the paper).
//!
//! The activation matrix `A [M, K]` is quantized row-by-row with a dynamic
//! scale derived from the row's absolute maximum, then multiplied with the
//! weight matrix `W [K, N]` and de-quantized:
//!
//! ```text
//! m_i   = max_k |A[i, k]|                      (abs-max reduction)
//! Q[i,k] = fp8(A[i, k] * MAX / m_i)            (quantize)
//! C      = (Q W) * m_i / MAX                   (GEMM + dequant)
//! ```
//!
//! [`quant_gemm_naive`] executes the three stages separately, materialising
//! the quantized matrix — what an eager framework does, and the source of the
//! redundant memory traffic the paper eliminates.
//!
//! FP8 itself is simulated: values are rounded to the E4M3 grid (4 exponent
//! bits, 3 mantissa bits, max 448) on top of `f64` storage. A fused kernel
//! that sees the whole row in one tile performs the same roundings in the
//! same order per output and matches this oracle bit for bit.

// The E4M3 grid is defined once in `rf_workloads::quant` and shared with the
// tile-program VM, so every execution path performs identical roundings.
use rf_workloads::{fp8_round, Matrix, FP8_MAX};

/// Per-row quantization scales: `m_i / MAX` where `m_i` is the row abs-max.
pub fn row_scales(a: &Matrix) -> Vec<f64> {
    (0..a.rows())
        .map(|i| {
            let amax = a.row(i).iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
            if amax == 0.0 {
                1.0 / FP8_MAX
            } else {
                amax / FP8_MAX
            }
        })
        .collect()
}

/// Quantizes the activation matrix to the FP8 grid using per-row scales.
pub fn quantize(a: &Matrix, scales: &[f64]) -> Matrix {
    assert_eq!(scales.len(), a.rows(), "one scale per row is required");
    let mut q = Matrix::zeros(a.rows(), a.cols());
    for (i, &scale) in scales.iter().enumerate() {
        for k in 0..a.cols() {
            q.set(i, k, fp8_round(a.get(i, k) / scale));
        }
    }
    q
}

/// Unfused reference: abs-max pass, quantization pass (materialised), GEMM,
/// de-quantization.
pub fn quant_gemm_naive(a: &Matrix, w: &Matrix) -> Matrix {
    assert_eq!(a.cols(), w.rows(), "inner dimensions must agree");
    let scales = row_scales(a);
    let q = quantize(a, &scales);
    let mut c = q.matmul(w);
    for (i, &scale) in scales.iter().enumerate() {
        for j in 0..c.cols() {
            let v = c.get(i, j) * scale;
            c.set(i, j, v);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp8_rounding_properties() {
        assert_eq!(fp8_round(0.0), 0.0);
        assert_eq!(fp8_round(f64::NAN), 0.0);
        assert_eq!(fp8_round(1e6), FP8_MAX);
        assert_eq!(fp8_round(-1e6), -FP8_MAX);
        assert_eq!(fp8_round(448.0), 448.0);
        // 3-bit mantissa: representable values around 1.0 step by 1/8.
        assert_eq!(fp8_round(1.0), 1.0);
        assert_eq!(fp8_round(1.06), 1.0);
        assert_eq!(fp8_round(1.07), 1.125);
        assert_eq!(fp8_round(-1.07), -1.125);
        assert_eq!(fp8_round(1e-12), 0.0);
    }

    #[test]
    fn quantization_error_is_bounded() {
        let a = Matrix::random(8, 64, 5, -3.0, 3.0);
        let scales = row_scales(&a);
        let q = quantize(&a, &scales);
        for (i, &scale) in scales.iter().enumerate() {
            for k in 0..a.cols() {
                let reconstructed = q.get(i, k) * scale;
                // E4M3 relative error is at most 2^-4 of the row maximum scale.
                assert!((reconstructed - a.get(i, k)).abs() <= scale * FP8_MAX / 16.0 + 1e-12);
            }
        }
    }

    #[test]
    fn zero_rows_produce_zero_outputs() {
        let a = Matrix::zeros(3, 16);
        let w = Matrix::random(16, 4, 2, -1.0, 1.0);
        let naive = quant_gemm_naive(&a, &w);
        assert!(naive.as_slice().iter().all(|&v| v == 0.0));
    }
}
