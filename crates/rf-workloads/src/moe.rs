//! MoE routing configurations (Table 2c of the paper).
//!
//! The routing function computes expert scores with a GEMM between the token
//! activations `[s, hd]` and the routing weights `[hd, en]`, then applies a
//! softmax + top-k over the `en` experts of every token. [`RoutingDecision`]
//! is that function's per-token result, the one type both the tile VM and
//! the unfused oracle return, and [`score_order`] the one ranking both
//! select experts by.

use std::cmp::Ordering;

use crate::Precision;

/// Routing's ranking of `(expert index, score)` pairs: the higher score
/// first, equal scores (`-0.0 == 0.0`) by the lower index, and NaN below
/// every number (NaNs among themselves by index). The order is total, so the
/// `k` best of a set do not depend on the order the candidates arrive in —
/// not on the tiling or the segments of the kernel that streams them.
pub fn score_order((a_index, a): (usize, f64), (b_index, b): (usize, f64)) -> Ordering {
    let by_score = b.partial_cmp(&a).unwrap_or(Ordering::Equal);
    (a.is_nan().cmp(&b.is_nan()))
        .then(by_score)
        .then(a_index.cmp(&b_index))
}

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

/// One MoE routing configuration (a row of Table 2c).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MoeConfig {
    /// Row name (`R1..R8`).
    pub name: &'static str,
    /// Sequence length (number of tokens routed).
    pub s: usize,
    /// Hidden dimension of the token activations.
    pub hd: usize,
    /// Number of experts.
    pub en: usize,
    /// Number of experts selected per token.
    pub topk: usize,
    /// The model this configuration is taken from.
    pub model: &'static str,
}

impl MoeConfig {
    /// Floating-point operations: the scoring GEMM dominates, plus the softmax
    /// and top-k selection over the expert axis.
    pub fn flops(&self) -> u64 {
        let gemm = 2 * (self.s * self.hd * self.en) as u64;
        let softmax = 5 * (self.s * self.en) as u64;
        let topk = (self.s * self.en * self.topk.max(1).ilog2().max(1) as usize) as u64;
        gemm + softmax + topk
    }

    /// Minimal HBM traffic: activations and routing weights read once, the
    /// selected expert indices and probabilities written once.
    pub fn min_bytes(&self, precision: Precision) -> u64 {
        let e = precision.bytes() as u64;
        let activations = (self.s * self.hd) as u64 * e;
        let weights = (self.hd * self.en) as u64 * e;
        let outputs = (self.s * self.topk) as u64 * (e + 4); // probability + index
        activations + weights + outputs
    }

    /// Bytes of the intermediate score matrix `[s, en]`, spilled by unfused
    /// execution between the GEMM, softmax and top-k stages.
    pub fn score_bytes(&self, precision: Precision) -> u64 {
        (self.s * self.en) as u64 * precision.bytes() as u64
    }
}

/// Table 2c: the eight MoE routing configurations.
pub fn moe_configs() -> Vec<MoeConfig> {
    vec![
        MoeConfig {
            name: "R1",
            s: 2048,
            hd: 768,
            en: 128,
            topk: 1,
            model: "switch-base-128",
        },
        MoeConfig {
            name: "R2",
            s: 2048,
            hd: 1024,
            en: 128,
            topk: 1,
            model: "switch-large-128",
        },
        MoeConfig {
            name: "R3",
            s: 2048,
            hd: 4096,
            en: 128,
            topk: 1,
            model: "switch-xxl-128",
        },
        MoeConfig {
            name: "R4",
            s: 2048,
            hd: 2560,
            en: 64,
            topk: 6,
            model: "ERNIE-21B-A3B",
        },
        MoeConfig {
            name: "R5",
            s: 2048,
            hd: 8192,
            en: 64,
            topk: 8,
            model: "ERNIE-300B-A47B",
        },
        MoeConfig {
            name: "R6",
            s: 2048,
            hd: 2048,
            en: 64,
            topk: 6,
            model: "DeepSeek-V2-Lite",
        },
        MoeConfig {
            name: "R7",
            s: 2048,
            hd: 2048,
            en: 128,
            topk: 8,
            model: "Qwen3-30B-A3B",
        },
        MoeConfig {
            name: "R8",
            s: 2048,
            hd: 4096,
            en: 128,
            topk: 8,
            model: "Qwen3-235B-A30B",
        },
    ]
}

/// A scaled-down configuration for fast tests and examples.
pub fn moe_tiny() -> MoeConfig {
    MoeConfig {
        name: "tiny",
        s: 16,
        hd: 32,
        en: 16,
        topk: 4,
        model: "unit-test",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2c_matches_paper() {
        let configs = moe_configs();
        assert_eq!(configs.len(), 8);
        assert!(configs.iter().all(|c| c.s == 2048));
        assert_eq!(configs[0].topk, 1);
        assert_eq!(configs[4].hd, 8192);
        assert_eq!(configs[7].model, "Qwen3-235B-A30B");
    }

    #[test]
    fn accounting_is_positive_and_monotone() {
        let configs = moe_configs();
        for c in &configs {
            assert!(c.flops() > 0);
            assert!(c.min_bytes(Precision::Fp16) > 0);
            assert!(c.score_bytes(Precision::Fp16) > 0);
        }
        // R3 has a larger hidden dim than R1 and therefore more flops.
        assert!(configs[2].flops() > configs[0].flops());
    }

    #[test]
    fn score_order_is_total_with_nan_last() {
        let mut pairs = vec![
            (3, f64::NAN),
            (0, 1.0),
            (5, f64::NEG_INFINITY),
            (1, f64::NAN),
            (4, 0.0),
            (2, -0.0),
            (6, f64::INFINITY),
            (7, 1.0),
        ];
        let expected = [6, 0, 7, 2, 4, 5, 1, 3];
        for rotation in 0..pairs.len() {
            pairs.rotate_left(1);
            let mut sorted = pairs.clone();
            sorted.sort_by(|&a, &b| score_order(a, b));
            let order: Vec<usize> = sorted.iter().map(|&(index, _)| index).collect();
            assert_eq!(order, expected, "rotation {rotation}");
            for &a in &pairs {
                assert_eq!(score_order(a, a), Ordering::Equal);
                for &b in &pairs {
                    assert_eq!(score_order(a, b), score_order(b, a).reverse());
                }
            }
        }
    }

    #[test]
    fn topk_never_exceeds_expert_count() {
        for c in moe_configs() {
            assert!(c.topk <= c.en);
        }
        assert!(moe_tiny().topk <= moe_tiny().en);
    }
}
