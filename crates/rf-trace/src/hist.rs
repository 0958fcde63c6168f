//! HDR-style log-bucketed latency histograms.
//!
//! A [`LogHistogram`] records `f64` microsecond values into geometric
//! buckets — each power-of-two octave of nanoseconds is split into
//! [`SUB_BUCKETS`] linear sub-buckets — so any quantile is recoverable with
//! bounded relative error (at most `1 / SUB_BUCKETS`, ~6%) over the full
//! lifetime of the process, using a fixed 8 KiB of atomics per histogram.
//! It is the workspace's one latency statistic: "what was p999 over the
//! whole run" needs no sample kept.
//!
//! Every percentile in `rf-trace` and `rf-runtime` follows one rank rule,
//! `rank = ⌈q·n⌉` clamped to `1..=n`: [`quantile_sorted`] applies it to
//! sorted samples, the histogram to its `(bucket, count)` pairs.
//!
//! Recording ([`LogHistogram::record_us`]) is a bucket add, a saturating sum
//! add and a maximum that is written only when raised — relaxed atomics, no
//! locks, safe from any worker thread.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave. 16 sub-buckets bound the
/// relative quantile error at 1/16 ≈ 6%.
pub const SUB_BUCKETS: usize = 16;

const SUB_SHIFT: u32 = 4; // log2(SUB_BUCKETS)
const OCTAVES: usize = 64;
const BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// A lock-free histogram of microsecond latencies with geometric buckets.
///
/// Values are quantised to nanoseconds internally; anything non-finite or
/// negative is ignored (the metrics path must never panic or skew on a
/// pathological sample).
#[derive(Debug)]
pub struct LogHistogram {
    /// Samples per bucket; their total is the sample count.
    buckets: Vec<AtomicU64>,
    /// Sum in nanoseconds.
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// The 1-based rank of quantile `q` (in `0..=1`) among `n ≥ 1` ascending
/// samples.
fn rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Quantile `q` (in `0..=1`) of an ascending-sorted slice: its
/// `⌈q·n⌉`-th smallest sample, `0.0` when the slice is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => sorted[rank(q, n as u64) as usize - 1],
    }
}

/// Quantile `q` of `total` samples held as `(bucket, count)` pairs in
/// ascending bucket order, in microseconds: the midpoint of the bucket the
/// `⌈q·total⌉`-th smallest sample fell into. `total` must be the sum of the
/// counts.
fn quantile_us(buckets: impl IntoIterator<Item = (usize, u64)>, total: u64, q: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = rank(q, total);
    let mut seen = 0u64;
    for (index, n) in buckets {
        seen += n;
        if seen >= rank {
            return bucket_mid_ns(index) / 1000.0;
        }
    }
    0.0
}

/// The bucket a microsecond value lands in and the value in nanoseconds;
/// `None` for non-finite or negative values, which no histogram records.
fn bucket_of_us(value_us: f64) -> Option<(usize, u64)> {
    if !value_us.is_finite() || value_us < 0.0 {
        return None;
    }
    let v_ns = (value_us * 1000.0).round().min(u64::MAX as f64) as u64;
    Some((bucket_index(v_ns), v_ns))
}

/// Bucket index of a nanosecond value: octave = position of the highest set
/// bit, sub-bucket = the next `SUB_SHIFT` bits below it.
fn bucket_index(v_ns: u64) -> usize {
    if v_ns < SUB_BUCKETS as u64 {
        // Values below one full octave of sub-buckets are exact.
        return v_ns as usize;
    }
    let msb = 63 - v_ns.leading_zeros();
    let sub = ((v_ns >> (msb - SUB_SHIFT)) & (SUB_BUCKETS as u64 - 1)) as usize;
    (msb as usize) * SUB_BUCKETS + sub
}

/// Midpoint (in nanoseconds) of the bucket at `index` — the representative
/// value reported for samples that landed in it.
fn bucket_mid_ns(index: usize) -> f64 {
    if index < SUB_BUCKETS {
        return index as f64;
    }
    let msb = (index / SUB_BUCKETS) as u32;
    let sub = (index % SUB_BUCKETS) as u64;
    let width = 1u64 << (msb - SUB_SHIFT);
    let lo = (SUB_BUCKETS as u64 + sub) * width;
    lo as f64 + width as f64 / 2.0
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Records one microsecond value. Non-finite or negative values are
    /// ignored; the nanosecond sum saturates.
    pub fn record_us(&self, value_us: f64) {
        let Some((bucket, v_ns)) = bucket_of_us(value_us) else {
            return;
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.add_sum_ns(v_ns);
        self.raise_max_ns(v_ns);
    }

    /// Adds to the nanosecond sum, saturating instead of wrapping: a sum
    /// that reads too low after 584 years of latency beats one that restarts.
    /// The common case is one `fetch_add`; an add that wraps pins the sum at
    /// `u64::MAX`, and so does every add after it.
    fn add_sum_ns(&self, ns: u64) {
        let before = self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        if before.checked_add(ns).is_none() {
            self.sum_ns.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Raises the maximum; a sample below it costs a load, not a write.
    fn raise_max_ns(&self, ns: u64) {
        if ns > self.max_ns.load(Ordering::Relaxed) {
            self.max_ns.fetch_max(ns, Ordering::Relaxed);
        }
    }

    /// A point-in-time summary: count, sum and the headline quantiles.
    /// Concurrent recording is fine; the snapshot is approximately
    /// consistent (bucket loads are not a single atomic cut).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        let sum_ns = self.sum_ns.load(Ordering::Relaxed);
        let max_ns = self.max_ns.load(Ordering::Relaxed);
        let quantile = |q: f64| quantile_us(counts.iter().copied().enumerate(), total, q);
        HistogramSnapshot {
            count: total,
            sum_us: sum_ns as f64 / 1000.0,
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            p999_us: quantile(0.999),
            max_us: max_ns as f64 / 1000.0,
        }
    }
}

/// A point-in-time summary of one [`LogHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of the samples, in microseconds: the nanosecond sum divided once,
    /// so it prints as the recorded sum (the mean is this over `count`).
    pub sum_us: f64,
    /// Median, in microseconds (bucket-quantised, ≤ ~6% relative error).
    pub p50_us: f64,
    /// 99th percentile, in microseconds.
    pub p99_us: f64,
    /// 99.9th percentile, in microseconds.
    pub p999_us: f64,
    /// Largest sample, in microseconds (exact).
    pub max_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogHistogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50_us, 0.0);
        assert_eq!(snap.p999_us, 0.0);
        assert_eq!(snap.sum_us, 0.0);
    }

    #[test]
    fn quantiles_are_within_bucket_error() {
        let h = LogHistogram::new();
        // 1..=1000 µs uniformly: p50 ≈ 500, p99 ≈ 990.
        for v in 1..=1000 {
            h.record_us(v as f64);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert!(
            (snap.p50_us - 500.0).abs() / 500.0 < 0.08,
            "p50 {} too far from 500",
            snap.p50_us
        );
        assert!(
            (snap.p99_us - 990.0).abs() / 990.0 < 0.08,
            "p99 {} too far from 990",
            snap.p99_us
        );
        assert!(snap.p999_us >= snap.p99_us && snap.p99_us >= snap.p50_us);
        assert_eq!(snap.sum_us, 500_500.0);
        assert!((snap.max_us - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn huge_dynamic_range_is_handled() {
        let h = LogHistogram::new();
        h.record_us(0.001); // 1 ns
        h.record_us(1.0);
        h.record_us(1e9); // 1000 s
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert!((snap.max_us - 1e9).abs() < 1.0);
        assert!((snap.p50_us - 1.0).abs() / 1.0 < 0.1);
    }

    #[test]
    fn pathological_samples_are_ignored() {
        let h = LogHistogram::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0] {
            h.record_us(bad);
        }
        assert_eq!(state(&h), state(&LogHistogram::new()));
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
        h.record_us(10.0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!((snap.p50_us - 10.0).abs() / 10.0 < 0.07);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        use std::sync::Arc;
        let h = Arc::new(LogHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record_us((t * 1000 + i) as f64 / 7.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 4000);
    }

    /// Everything a histogram holds: bucket counts, sum and maximum.
    fn state(h: &LogHistogram) -> (Vec<u64>, u64, u64) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        (
            h.buckets.iter().map(load).collect(),
            load(&h.sum_ns),
            load(&h.max_ns),
        )
    }

    #[test]
    fn the_nanosecond_sum_saturates_instead_of_wrapping() {
        let h = LogHistogram::new();
        h.record_us(1e16); // 10¹⁹ ns, just inside `u64`
        h.record_us(1e16); // the second would wrap to ~1.5·10¹⁸
        assert_eq!(h.sum_ns.load(Ordering::Relaxed), u64::MAX);
        // …and so does every add after it.
        h.record_us(5.0);
        assert_eq!(h.sum_ns.load(Ordering::Relaxed), u64::MAX);
        assert_eq!(h.snapshot().count, 3);
    }

    #[test]
    fn quantile_sorted_takes_the_ceil_rank_sample() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(quantile_sorted(&sorted, 0.25), 1.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 2.0);
        assert_eq!(quantile_sorted(&sorted, 0.51), 3.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 4.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 4.0);
        assert_eq!(quantile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
        // The bucket walk follows the same rule: ranks 1..=4 over counts 1, 3.
        let pairs = [(bucket_index(1_000), 1), (bucket_index(9_000), 3)];
        let low = bucket_mid_ns(pairs[0].0) / 1000.0;
        let high = bucket_mid_ns(pairs[1].0) / 1000.0;
        assert_eq!(quantile_us(pairs, 4, 0.25), low);
        assert_eq!(quantile_us(pairs, 4, 0.26), high);
        assert_eq!(quantile_us(pairs, 4, 1.0), high);
        assert_eq!(quantile_us([], 0, 0.5), 0.0);
    }

    mod percentile_bound {
        use super::super::*;
        use proptest::prelude::*;

        /// Adversarial sample distributions: sub-bucket-resolution values,
        /// huge values, log-uniform spreads across many octaves, tight
        /// clusters with far outliers, and constants.
        fn samples() -> impl Strategy<Value = Vec<f64>> {
            let tiny = prop::collection::vec(0.0f64..0.05, 1..200);
            let large = prop::collection::vec(1e3f64..1e7, 1..200);
            let log_uniform =
                prop::collection::vec((0u32..40, 1.0f64..2.0), 1..200).prop_map(|pairs| {
                    pairs
                        .into_iter()
                        .map(|(octave, jitter)| 2f64.powi(octave as i32) * jitter / 1000.0)
                        .collect()
                });
            let clustered = (1.0f64..100.0, prop::collection::vec(0.9f64..1.1, 1..100)).prop_map(
                |(center, factors)| {
                    let mut v: Vec<f64> = factors.iter().map(|f| center * f).collect();
                    v.push(center * 1e6); // one far outlier
                    v
                },
            );
            let constant = (0.0f64..1e6, 1usize..100).prop_map(|(value, n)| vec![value; n]);
            prop_oneof![tiny, large, log_uniform, clustered, constant]
        }

        proptest! {
            /// Every exposed quantile is within one bucket's relative width
            /// (`1/SUB_BUCKETS`) of the exact sorted-sample percentile under
            /// the same rank rule ([`quantile_sorted`]), plus the nanosecond
            /// quantisation slack.
            #[test]
            fn quantile_error_is_bounded_by_one_bucket_width(values in samples()) {
                let h = LogHistogram::new();
                for &v in &values {
                    h.record_us(v);
                }
                let mut sorted = values.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let snap = h.snapshot();
                for (estimate, q) in [
                    (snap.p50_us, 0.50),
                    (snap.p99_us, 0.99),
                    (snap.p999_us, 0.999),
                ] {
                    let exact = quantile_sorted(&sorted, q);
                    let tolerance = exact / SUB_BUCKETS as f64 + 0.002;
                    prop_assert!(
                        (estimate - exact).abs() <= tolerance,
                        "q={q}: estimate {estimate} vs exact {exact} (tolerance {tolerance})"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_index_is_monotonic_and_mid_is_inside() {
        let mut last = 0usize;
        for exp in 0..60u32 {
            for v in [1u64 << exp, (1u64 << exp) + (1u64 << exp) / 3] {
                let idx = bucket_index(v);
                assert!(idx >= last, "index must not decrease");
                last = idx;
                let mid = bucket_mid_ns(idx);
                // The representative must be within one bucket width.
                assert!(
                    (mid - v as f64).abs() / (v as f64) < 0.07,
                    "mid {mid} too far from {v}"
                );
            }
        }
    }
}
