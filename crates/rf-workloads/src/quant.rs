//! FP8 PerToken Quant + GEMM configurations (Table 2d of the paper), plus the
//! simulated FP8 E4M3 grid shared by every execution path of the workload.
//!
//! The workload quantizes an activation matrix `[M, K]` to FP8 with per-token
//! (per-row) dynamic scaling factors derived from an abs-max reduction, then
//! multiplies with a weight matrix `[K, N]`.

use crate::Precision;

/// Maximum representable magnitude of the simulated FP8 E4M3 grid.
pub const FP8_MAX: f64 = 448.0;

/// Smallest magnitude the simulated grid keeps: the E4M3 subnormal step 2⁻⁹.
const FP8_MIN: f64 = 1.0 / 512.0;

/// Mantissa bits an f64 has below the 3 the grid keeps.
const DROPPED_BITS: u32 = f64::MANTISSA_DIGITS - 1 - 3;

/// Rounds a value to the simulated FP8 E4M3 grid: clamp to ±448, keep a 3-bit
/// mantissa (ties away from zero), flush sub-subnormal and non-finite values
/// to `+0.0`.
///
/// The rounding runs on the f64 bit pattern: adding half a grid step to the
/// magnitude bits and clearing the bits below the step rounds the mantissa,
/// and the carry into the exponent field is the round-up to the next binade.
/// Between 2⁻⁹ and the E4M3 minimum normal 2⁻⁶ the grid stays relative to the
/// value's own exponent (real E4M3 subnormals step by 2⁻⁹ there).
///
/// This is the single definition of the rounding model; the unfused oracles
/// (`rf-kernels`) and the tile-program VM (`rf_tile::exec`) both use it, so
/// fused and unfused executions perform bit-identical roundings.
pub fn fp8_round(x: f64) -> f64 {
    let magnitude = x.abs();
    // NaN is in no range.
    if !(FP8_MIN..f64::INFINITY).contains(&magnitude) {
        return 0.0;
    }
    let bits = magnitude.min(FP8_MAX).to_bits() + (1 << (DROPPED_BITS - 1));
    f64::from_bits(bits & !((1 << DROPPED_BITS) - 1)).copysign(x)
}

/// One Quant + GEMM configuration (a row of Table 2d).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QuantGemmConfig {
    /// Row name (`Q1..Q10`).
    pub name: &'static str,
    /// Number of tokens (rows of the activation matrix).
    pub m: usize,
    /// Output dimension (columns of the weight matrix).
    pub n: usize,
    /// Reduction dimension.
    pub k: usize,
    /// The model this configuration is taken from.
    pub model: &'static str,
}

impl QuantGemmConfig {
    /// Floating-point operations: abs-max + scaling over `[M, K]`, then the GEMM.
    pub fn flops(&self) -> u64 {
        let quant = 3 * (self.m * self.k) as u64;
        let gemm = 2 * (self.m * self.n * self.k) as u64;
        quant + gemm
    }

    /// Minimal HBM traffic: activations read once (FP16), weights read once
    /// (FP8), outputs written once (FP16), scales written once (FP32).
    pub fn min_bytes(&self) -> u64 {
        let act = (self.m * self.k) as u64 * Precision::Fp16.bytes() as u64;
        let weights = (self.k * self.n) as u64 * Precision::Fp8.bytes() as u64;
        let out = (self.m * self.n) as u64 * Precision::Fp16.bytes() as u64;
        let scales = self.m as u64 * Precision::Fp32.bytes() as u64;
        act + weights + out + scales
    }
}

/// Table 2d: the ten Quant + GEMM configurations.
pub fn quant_configs() -> Vec<QuantGemmConfig> {
    vec![
        QuantGemmConfig {
            name: "Q1",
            m: 4096,
            n: 1536,
            k: 2560,
            model: "ERNIE-21B-A3B",
        },
        QuantGemmConfig {
            name: "Q2",
            m: 4096,
            n: 2560,
            k: 1536,
            model: "ERNIE-21B-A3B",
        },
        QuantGemmConfig {
            name: "Q3",
            m: 4096,
            n: 3584,
            k: 8192,
            model: "ERNIE-300B-A47B",
        },
        QuantGemmConfig {
            name: "Q4",
            m: 4096,
            n: 8192,
            k: 3584,
            model: "ERNIE-300B-A47B",
        },
        QuantGemmConfig {
            name: "Q5",
            m: 4096,
            n: 7168,
            k: 2048,
            model: "DeepSeek-R1",
        },
        QuantGemmConfig {
            name: "Q6",
            m: 4096,
            n: 2048,
            k: 7168,
            model: "DeepSeek-R1",
        },
        QuantGemmConfig {
            name: "Q7",
            m: 4096,
            n: 2048,
            k: 768,
            model: "Qwen3-30B-A3B",
        },
        QuantGemmConfig {
            name: "Q8",
            m: 4096,
            n: 768,
            k: 2048,
            model: "Qwen3-30B-A3B",
        },
        QuantGemmConfig {
            name: "Q9",
            m: 4096,
            n: 4096,
            k: 1536,
            model: "Qwen3-235B-A30B",
        },
        QuantGemmConfig {
            name: "Q10",
            m: 4096,
            n: 1536,
            k: 4096,
            model: "Qwen3-235B-A30B",
        },
    ]
}

/// A scaled-down configuration for fast tests and examples.
pub fn quant_tiny() -> QuantGemmConfig {
    QuantGemmConfig {
        name: "tiny",
        m: 8,
        n: 12,
        k: 16,
        model: "unit-test",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition `fp8_round` was rewritten from, kept as its reference.
    fn fp8_round_by_logarithm(x: f64) -> f64 {
        if !x.is_finite() || x == 0.0 {
            return 0.0;
        }
        let clamped = x.clamp(-FP8_MAX, FP8_MAX);
        let magnitude = clamped.abs();
        if magnitude < 2f64.powi(-9) {
            return 0.0;
        }
        let exponent = magnitude.log2().floor();
        let scale = 2f64.powf(exponent - 3.0);
        let rounded = (magnitude / scale).round() * scale;
        rounded.copysign(clamped)
    }

    /// Both signs of `magnitude` round to the reference's bits.
    fn assert_rounds_like_the_reference(magnitude: f64) {
        for x in [magnitude, -magnitude] {
            let (got, want) = (fp8_round(x), fp8_round_by_logarithm(x));
            assert_eq!(got.to_bits(), want.to_bits(), "{x:e}: {got:e} vs {want:e}");
        }
    }

    #[test]
    fn fp8_round_repeats_the_logarithm_formula_bit_for_bit() {
        // Every grid point and every rounding midpoint (the sixteenths of a
        // binade) from below the flush threshold to above the clamp, and the
        // two f64 neighbours on either side of each.
        for exponent in -12..=10 {
            for sixteenth in 0..=16u64 {
                let point = (1.0 + sixteenth as f64 / 16.0) * 2f64.powi(exponent);
                for ulps in -2i64..=2 {
                    let bits = point.to_bits().checked_add_signed(ulps).unwrap();
                    assert_rounds_like_the_reference(f64::from_bits(bits));
                }
            }
        }
        // A dense geometric sweep over everything a scaled activation can be.
        let mut magnitude = 1e-4;
        while magnitude < 1e3 {
            assert_rounds_like_the_reference(magnitude);
            magnitude *= 1.0 + 1e-5;
        }
        for special in [
            0.0,
            f64::NAN,
            f64::INFINITY,
            1e300,
            1e-300,
            f64::MIN_POSITIVE,
        ] {
            assert_rounds_like_the_reference(special);
        }
    }

    #[test]
    fn fp8_round_keeps_the_documented_grid() {
        assert_eq!(fp8_round(1.0), 1.0);
        assert_eq!(fp8_round(1.0625), 1.125, "ties round away from zero");
        assert_eq!(fp8_round(-1.06), -1.0);
        assert_eq!(
            fp8_round(1.97),
            2.0,
            "rounding up carries into the next binade"
        );
        assert_eq!(fp8_round(1e300), FP8_MAX);
        assert_eq!(fp8_round(-447.0), -FP8_MAX);
        assert_eq!(fp8_round(FP8_MIN), FP8_MIN);
        // Flushed inputs are `+0.0` whatever their sign.
        for flushed in [-0.0, -FP8_MIN * 0.999, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(fp8_round(flushed).to_bits(), 0.0f64.to_bits(), "{flushed}");
        }
    }

    #[test]
    fn table2d_matches_paper() {
        let configs = quant_configs();
        assert_eq!(configs.len(), 10);
        assert!(configs.iter().all(|c| c.m == 4096));
        assert_eq!(configs[4].n, 7168);
        assert_eq!(configs[5].k, 7168);
        assert_eq!(configs[9].model, "Qwen3-235B-A30B");
    }

    #[test]
    fn flops_dominated_by_gemm() {
        for c in quant_configs() {
            let gemm = 2 * (c.m * c.n * c.k) as u64;
            assert!(c.flops() >= gemm);
            assert!(c.flops() < gemm + gemm / 10);
        }
    }

    #[test]
    fn traffic_accounting() {
        let c = quant_tiny();
        assert!(c.min_bytes() > 0);
    }
}
