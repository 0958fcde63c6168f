//! Unfused CPU oracles for every evaluated workload.
//!
//! Each function computes its workload the way the definition (Eq. 1) reads
//! and an eager framework executes it: one pass over memory per reduction,
//! every intermediate materialised. The fused kernels are the ones RedFuser
//! generates — the tile programs `rf_tile::exec` runs — and these oracles are
//! what they are checked against (`rf_runtime::execute_reference`, the
//! differential suites, the `perf` benchmark's correctness gate). The
//! exponential is `rf_workloads::exp`, the one the VM uses, so a comparison
//! sets fused against unfused algebra, not two exponentials.
//!
//! Modules:
//!
//! * [`softmax`] — safe softmax: max pass, sum-of-exponentials pass,
//!   normalisation pass.
//! * [`attention`] — attention with the score and probability matrices
//!   materialised.
//! * [`moe`] — MoE routing: scoring GEMM, full softmax, top-k.
//! * [`quant`] — FP8 per-token quantization + GEMM with the quantized matrix
//!   materialised.
//! * [`nonml`] — variance and moment of inertia, one pass per reduction.
//! * [`topk`] — top-k selection, by sorting and by one streaming pass.

#![forbid(unsafe_code)]

pub mod attention;
pub mod moe;
pub mod nonml;
pub mod quant;
pub mod softmax;
pub mod topk;

/// Returns the maximum relative element-wise difference between two slices.
/// Equal elements (infinities included) and NaN facing NaN differ by 0; NaN
/// facing a number differs by `+inf`.
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let diff = (x - y).abs() / (1.0 + x.abs().max(y.abs()));
            rf_workloads::data::nan_aware_diff(x, y, diff)
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rel_diff_is_zero_for_identical() {
        assert_eq!(max_rel_diff(&[1.0, -2.0], &[1.0, -2.0]), 0.0);
        assert!(max_rel_diff(&[1.0], &[1.1]) > 0.0);
        assert_eq!(max_rel_diff(&[f64::NAN, 1.0], &[f64::NAN, 1.0]), 0.0);
        assert_eq!(max_rel_diff(&[f64::NAN], &[3.0]), f64::INFINITY);
    }
}
