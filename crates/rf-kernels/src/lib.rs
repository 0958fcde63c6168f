//! Reference and fused CPU numeric kernels for every evaluated workload.
//!
//! The paper's evaluation compares three classes of implementations:
//! unfused baselines (PyTorch Eager style, one pass over memory per operator),
//! hand-optimized fused kernels (FlashAttention / FlashDecoding style), and the
//! kernels RedFuser generates. This crate provides CPU ports of all of them so
//! that
//!
//! * the generated tile programs and fusion plans have *numeric correctness
//!   oracles* (every integration test compares against the naive kernels), and
//! * the Criterion benchmarks have a real measured-time component in addition
//!   to the analytical GPU model.
//!
//! Modules:
//!
//! * [`softmax`] — safe softmax, three-pass vs single-pass online form.
//! * [`attention`] — naive attention, FlashAttention-style tiling and
//!   FlashDecoding-style split-KV decoding.
//! * [`moe`] — MoE routing: scoring GEMM + softmax + top-k, unfused and fused.
//! * [`quant`] — FP8 per-token quantization + GEMM, unfused and fused.
//! * [`nonml`] — variance and moment of inertia, multi-pass and fused.
//! * [`topk`] — top-k selection helpers shared by the MoE kernels.

#![forbid(unsafe_code)]

pub mod attention;
pub mod moe;
pub mod nonml;
pub mod quant;
pub mod softmax;
pub mod topk;

/// Relative tolerance used by the kernel test suites when comparing fused and
/// unfused results.
pub const KERNEL_TOLERANCE: f64 = 1e-9;

/// Asserts that two slices agree element-wise within a relative tolerance.
///
/// # Panics
///
/// Panics (with the position of the first mismatch) if the slices differ in
/// length or any element pair differs by more than the tolerance.
pub fn assert_close(actual: &[f64], expected: &[f64], tolerance: f64) {
    assert_eq!(actual.len(), expected.len(), "length mismatch");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        let scale = 1.0 + e.abs().max(a.abs());
        assert!(
            (a - e).abs() <= tolerance * scale,
            "mismatch at index {i}: actual={a}, expected={e}"
        );
    }
}

/// Returns the maximum relative element-wise difference between two slices.
pub fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / (1.0 + x.abs().max(y.abs())))
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assert_close_accepts_equal_slices() {
        assert_close(&[1.0, 2.0], &[1.0, 2.0], 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatch at index 1")]
    fn assert_close_reports_position() {
        assert_close(&[1.0, 2.0], &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn max_rel_diff_is_zero_for_identical() {
        assert_eq!(max_rel_diff(&[1.0, -2.0], &[1.0, -2.0]), 0.0);
        assert!(max_rel_diff(&[1.0], &[1.1]) > 0.0);
    }
}
