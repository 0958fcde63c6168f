//! Attention kernels: naive, FlashAttention-style and FlashDecoding-style.
//!
//! All kernels operate on one `(batch, head)` slice: a query matrix
//! `[q_len, d]`, key and value matrices `[kv_len, d]`, and produce the output
//! `[q_len, d]`. Batched execution simply loops over heads (see
//! [`attention_batched`]); the per-head kernels are the units the paper's
//! fusion analysis reasons about.
//!
//! * [`attention_naive`] materialises the full score matrix, applies softmax,
//!   and multiplies with `V` — three separate operators with intermediate
//!   tensors, as an eager framework would execute them.
//! * [`flash_attention`] is the tiled online-softmax kernel (the paper's
//!   Figure 12 lowered to scalar Rust): the KV sequence is processed in
//!   blocks, and the running maximum / sum / output are rescaled whenever the
//!   maximum moves. This is both the hand-optimized baseline and the kernel
//!   RedFuser's Single-Segment strategy generates (fusion level `k = 3`).
//! * [`flash_decoding`] is the split-KV variant (Figure 13): the KV sequence
//!   is partitioned into `num_splits` chunks processed independently, and the
//!   partial results are merged with the level-`k` fused expression (Eq. 31).

use rf_workloads::{exp, Matrix};

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
/// materialised. Serves as the correctness oracle for the fused kernels.
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

/// FlashAttention-style fused attention with a configurable KV block size.
///
/// # Panics
///
/// Panics if `block_kv` is zero or the K/V shapes disagree.
pub fn flash_attention(q: &Matrix, k: &Matrix, v: &Matrix, scale: f64, block_kv: usize) -> Matrix {
    assert!(block_kv > 0, "block_kv must be positive");
    assert_eq!(
        k.rows(),
        v.rows(),
        "key and value sequence lengths must agree"
    );
    assert_eq!(
        q.cols(),
        k.cols(),
        "query and key head dimensions must agree"
    );
    let (q_len, d) = (q.rows(), q.cols());
    let kv_len = k.rows();
    let head_dim = v.cols();

    let mut out = Matrix::zeros(q_len, head_dim);
    let mut row_max = vec![f64::NEG_INFINITY; q_len];
    let mut row_sum = vec![0.0f64; q_len];

    let mut start = 0;
    while start < kv_len {
        let end = (start + block_kv).min(kv_len);
        for i in 0..q_len {
            // Block-local statistics.
            let mut block_max = f64::NEG_INFINITY;
            let mut scores = Vec::with_capacity(end - start);
            for j in start..end {
                let mut dot = 0.0;
                for t in 0..d {
                    dot += q.get(i, t) * k.get(j, t);
                }
                let s = dot * scale;
                block_max = block_max.max(s);
                scores.push(s);
            }
            let new_max = row_max[i].max(block_max);
            let correction = exp(row_max[i] - new_max);

            // Correct the running sum and output (step 2 of the paper's
            // three-step reduction template), then accumulate the new block.
            row_sum[i] *= correction;
            for t in 0..head_dim {
                let cur = out.get(i, t);
                out.set(i, t, cur * correction);
            }
            for (offset, &s) in scores.iter().enumerate() {
                let p = exp(s - new_max);
                row_sum[i] += p;
                let j = start + offset;
                for t in 0..head_dim {
                    let cur = out.get(i, t);
                    out.set(i, t, cur + p * v.get(j, t));
                }
            }
            row_max[i] = new_max;
        }
        start = end;
    }

    for (i, &denom) in row_sum.iter().enumerate() {
        for t in 0..head_dim {
            let cur = out.get(i, t);
            out.set(i, t, cur / denom);
        }
    }
    out
}

/// Partial result of one KV split: unnormalised output, running max and sum.
#[derive(Debug, Clone)]
pub struct SplitPartial {
    /// Unnormalised (but max-shifted) output accumulator `[q_len, d]`.
    pub out: Matrix,
    /// Per-query-row running maximum.
    pub row_max: Vec<f64>,
    /// Per-query-row running sum of exponentials.
    pub row_sum: Vec<f64>,
}

/// Computes the FlashAttention partial result for a KV range `[start, end)`.
pub fn flash_attention_partial(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    scale: f64,
    start: usize,
    end: usize,
    block_kv: usize,
) -> SplitPartial {
    assert!(
        start < end && end <= k.rows(),
        "invalid split range [{start}, {end})"
    );
    let (q_len, d) = (q.rows(), q.cols());
    let head_dim = v.cols();
    let mut out = Matrix::zeros(q_len, head_dim);
    let mut row_max = vec![f64::NEG_INFINITY; q_len];
    let mut row_sum = vec![0.0f64; q_len];

    let mut block_start = start;
    while block_start < end {
        let block_end = (block_start + block_kv).min(end);
        for i in 0..q_len {
            let mut block_max = f64::NEG_INFINITY;
            let mut scores = Vec::with_capacity(block_end - block_start);
            for j in block_start..block_end {
                let mut dot = 0.0;
                for t in 0..d {
                    dot += q.get(i, t) * k.get(j, t);
                }
                let s = dot * scale;
                block_max = block_max.max(s);
                scores.push(s);
            }
            let new_max = row_max[i].max(block_max);
            let correction = exp(row_max[i] - new_max);
            row_sum[i] *= correction;
            for t in 0..head_dim {
                let cur = out.get(i, t);
                out.set(i, t, cur * correction);
            }
            for (offset, &s) in scores.iter().enumerate() {
                let p = exp(s - new_max);
                row_sum[i] += p;
                let j = block_start + offset;
                for t in 0..head_dim {
                    let cur = out.get(i, t);
                    out.set(i, t, cur + p * v.get(j, t));
                }
            }
            row_max[i] = new_max;
        }
        block_start = block_end;
    }
    SplitPartial {
        out,
        row_max,
        row_sum,
    }
}

/// Merges split partials into the final attention output (the combine kernel
/// of FlashDecoding / the Multi-Segment strategy).
pub fn merge_partials(partials: &[SplitPartial]) -> Matrix {
    assert!(!partials.is_empty(), "cannot merge zero partials");
    let q_len = partials[0].out.rows();
    let head_dim = partials[0].out.cols();
    let mut final_out = Matrix::zeros(q_len, head_dim);
    for i in 0..q_len {
        let global_max = partials
            .iter()
            .map(|p| p.row_max[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let mut global_sum = 0.0;
        for p in partials {
            global_sum += p.row_sum[i] * exp(p.row_max[i] - global_max);
        }
        for t in 0..head_dim {
            let mut acc = 0.0;
            for p in partials {
                acc += p.out.get(i, t) * exp(p.row_max[i] - global_max);
            }
            final_out.set(i, t, acc / global_sum);
        }
    }
    final_out
}

/// FlashDecoding-style attention: the KV sequence is split into `num_splits`
/// chunks processed independently and merged afterwards.
///
/// # Panics
///
/// Panics if `num_splits` is zero or exceeds the KV length.
pub fn flash_decoding(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    scale: f64,
    num_splits: usize,
    block_kv: usize,
) -> Matrix {
    assert!(num_splits > 0, "num_splits must be positive");
    let kv_len = k.rows();
    assert!(
        num_splits <= kv_len,
        "num_splits must not exceed the KV length"
    );
    let chunk = kv_len.div_ceil(num_splits);
    let partials: Vec<SplitPartial> = (0..num_splits)
        .filter_map(|s| {
            let start = s * chunk;
            let end = ((s + 1) * chunk).min(kv_len);
            (start < end).then(|| flash_attention_partial(q, k, v, scale, start, end, block_kv))
        })
        .collect();
    merge_partials(&partials)
}

/// Runs a per-head attention kernel over `heads` independent heads generated
/// deterministically from `seed`, returning the outputs per head. Used by the
/// benchmarks to emulate the batched workloads of Table 2.
pub fn attention_batched<F>(
    heads: usize,
    q_len: usize,
    kv_len: usize,
    head_dim: usize,
    seed: u64,
    kernel: F,
) -> Vec<Matrix>
where
    F: Fn(&Matrix, &Matrix, &Matrix, f64) -> Matrix,
{
    let scale = 1.0 / (head_dim as f64).sqrt();
    (0..heads)
        .map(|h| {
            let base = seed.wrapping_mul(1000).wrapping_add(h as u64);
            let q = Matrix::random(q_len, head_dim, base, -1.0, 1.0);
            let k = Matrix::random(kv_len, head_dim, base + 1, -1.0, 1.0);
            let v = Matrix::random(kv_len, head_dim, base + 2, -1.0, 1.0);
            kernel(&q, &k, &v, scale)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn setup(q_len: usize, kv_len: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix, f64) {
        let q = Matrix::random(q_len, d, seed, -1.0, 1.0);
        let k = Matrix::random(kv_len, d, seed + 1, -1.0, 1.0);
        let v = Matrix::random(kv_len, d, seed + 2, -1.0, 1.0);
        (q, k, v, 1.0 / (d as f64).sqrt())
    }

    #[test]
    fn flash_matches_naive() {
        let (q, k, v, scale) = setup(16, 64, 8, 1);
        let naive = attention_naive(&q, &k, &v, scale);
        for block in [1, 7, 16, 64, 128] {
            let flash = flash_attention(&q, &k, &v, scale, block);
            assert!(naive.max_abs_diff(&flash) < 1e-9, "block_kv={block}");
        }
    }

    #[test]
    fn decoding_matches_naive() {
        let (q, k, v, scale) = setup(1, 128, 16, 2);
        let naive = attention_naive(&q, &k, &v, scale);
        for splits in [1, 2, 4, 8] {
            let out = flash_decoding(&q, &k, &v, scale, splits, 16);
            assert!(naive.max_abs_diff(&out) < 1e-9, "splits={splits}");
        }
    }

    #[test]
    fn uneven_split_sizes_are_handled() {
        let (q, k, v, scale) = setup(4, 100, 8, 3);
        let naive = attention_naive(&q, &k, &v, scale);
        let out = flash_decoding(&q, &k, &v, scale, 3, 7);
        assert!(naive.max_abs_diff(&out) < 1e-9);
    }

    #[test]
    fn attention_rows_are_convex_combinations() {
        // Each output row is a convex combination of value rows, so it must lie
        // within the per-column min/max of V.
        let (q, k, v, scale) = setup(8, 32, 4, 4);
        let out = attention_naive(&q, &k, &v, scale);
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

    #[test]
    fn batched_kernel_runs_all_heads() {
        let outs = attention_batched(3, 4, 16, 8, 9, |q, k, v, s| flash_attention(q, k, v, s, 8));
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].rows(), 4);
        assert_eq!(outs[0].cols(), 8);
    }

    #[test]
    #[should_panic(expected = "num_splits must not exceed")]
    fn too_many_splits_panics() {
        let (q, k, v, scale) = setup(1, 8, 4, 5);
        flash_decoding(&q, &k, &v, scale, 9, 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_flash_and_decoding_match_naive(
            seed in 0u64..500,
            q_len in 1usize..8,
            kv_pow in 2u32..7,
            d in 1usize..9,
            block in 1usize..20,
            splits in 1usize..4,
        ) {
            let kv_len = 1usize << kv_pow;
            let (q, k, v, scale) = setup(q_len, kv_len, d, seed);
            let naive = attention_naive(&q, &k, &v, scale);
            let flash = flash_attention(&q, &k, &v, scale, block);
            prop_assert!(naive.max_abs_diff(&flash) < 1e-8);
            let dec = flash_decoding(&q, &k, &v, scale, splits.min(kv_len), block);
            prop_assert!(naive.max_abs_diff(&dec) < 1e-8);
        }
    }
}
