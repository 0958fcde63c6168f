//! The one exponential under every cascade: `exp(x − m)` of the reduce step
//! and `exp(m_old − m_new)` of the correct step (Eq. 15–16, 31), for the
//! tile VM and for the unfused oracles it is compared with.
//!
//! # Numerics policy
//!
//! * **Accuracy** — at most 2 ulp from `f64::exp` (libm) everywhere; the sweep
//!   in this module's tests reads at most 1.
//! * **Specials, exactly** — `exp(±0) = 1`, `exp(−inf) = 0`, `exp(+inf) = inf`,
//!   NaN → the same NaN, `x ≤ −746 → 0`, `x ≥ 710 → inf`; results under the
//!   smallest normal underflow gradually (one rounding into the subnormals).
//! * **One set of bits** — the scalar [`exp`] and the slice forms
//!   [`exp_shifted`] / [`exp_shifted_in_place`] return identical bits on every
//!   CPU. The slice loops run at the widest vector tier this CPU offers —
//!   baseline, AVX2 or AVX-512F, picked at run time by the crate's `tier`
//!   module, with no Cargo feature, environment variable or compiler flag to
//!   set, and shared with [`add_scaled_block`](crate::add_scaled_block). Each
//!   slice form also returns the sum of its exponentials, added in the same
//!   pass in eight lanes and one fixed tree. The
//!   body is the same source at every tier and contains only IEEE
//!   multiplications, additions, comparisons-and-selects and integer shifts:
//!   **no `mul_add`**, nothing a wider unit could fuse or reorder, so vector
//!   width cannot show in a result.
//! * **Who uses it** — `rf_tile::exec` (the VM) and the unfused references the
//!   served path is checked against: `rf-kernels` softmax / attention / moe and
//!   `rf-graph`'s `MapOp::Exp`. Fused and unfused paths share the routine so
//!   the differential suites compare two *algebras*, not two exponentials.
//!   `rf-expr` and `rf-tir` — the symbolic definition, on no measured path —
//!   keep `f64::exp`.
//! * **Scalar form is for per-tile sites** — its dependent chain is about
//!   twice libm's latency. Use it for correction and combine factors (one per
//!   tile or segment); anything per element goes through a slice form, where
//!   the chain is hidden by the elements beside it.
//! * **Golden bits** — `crates/rf-tile/tests/exec_kernels.rs` records folds of
//!   the VM's output bits. They may be re-recorded only by a PR whose point is
//!   a change of this routine or of a kernel's summation order, which must
//!   list every fold it moved. The PR that introduced this module did so once
//!   (attention and routing, three tuning points each); the change that put
//!   variance's Σx and Σx² into eight lanes
//!   ([`sum_and_squares`](crate::sum_and_squares)) did so for variance (its
//!   two single-segment points; the four-segment fold kept its bits).
//!
//! # Method
//!
//! `exp(x) = 2ᵏ · exp(r)` with `k = round(x · log₂e)` and `r = x − k · ln 2`
//! in `[−ln 2 / 2, ln 2 / 2]`. `k` is rounded by adding and subtracting
//! `1.5 · 2⁵²`; `ln 2` is split into a 32-bit head, whose product with `k` is
//! exact, and a tail (Cody–Waite). `exp(r)` is the degree-13 Taylor polynomial
//! (remainder under 2⁻⁵⁷), evaluated as `1 + (r + r² · q(r))` with `q` in one
//! fixed Estrin order, so the only rounding at the scale of the result is the
//! last addition. `2ᵏ` is applied as two factors `2^⌈k/2⌋ · 2^(k − ⌈k/2⌋)`, both
//! normal, each built by shifting a biased exponent into place: the first
//! product is exact and the second rounds once, which is what makes underflow
//! gradual and overflow land on `inf`. Everything is branch-free, so the slice
//! loops vectorise; the exponent is built with a *left* shift because AVX2 has
//! no 64-bit arithmetic right shift.

use crate::rows::{lane_tree, LANES};
use crate::tier::Tier;

/// `1.5 · 2⁵²`: adding it to `|v| < 2⁵¹` rounds `v` to an integer (ties to
/// even) and leaves that integer in the low bits of the sum's mantissa.
const ROUND: f64 = 6_755_399_441_055_744.0;
/// `ln 2`, head (low 32 mantissa bits zero: `k · LN2_HI` is exact for
/// `|k| < 2¹¹`) and tail.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// Below `LOWEST` every result rounds to 0, above `HIGHEST` to `inf`; the
/// clamp also keeps `k + 1023` halves inside the normal exponent range.
const LOWEST: f64 = -746.0;
const HIGHEST: f64 = 710.0;

/// `1 / n!` for `n = 2..=13`, the coefficients of `q`.
const C: [f64; 12] = [
    1.0 / 2.0,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5_040.0,
    1.0 / 40_320.0,
    1.0 / 362_880.0,
    1.0 / 3_628_800.0,
    1.0 / 39_916_800.0,
    1.0 / 479_001_600.0,
    1.0 / 6_227_020_800.0,
];

/// `2ⁿ` for an integer-valued `n` in `[−1022, 1023]`: `n + 1023 + ROUND` holds
/// the biased exponent in its low 11 mantissa bits, and the left shift drops
/// everything above them.
#[inline(always)]
fn pow2(n: f64) -> f64 {
    f64::from_bits(((n + 1023.0) + ROUND).to_bits() << 52)
}

/// `exp(x)` under the module's numerics policy. For per-tile sites; a loop
/// over elements belongs in [`exp_shifted`] or [`exp_shifted_in_place`].
#[inline(always)]
pub fn exp(x: f64) -> f64 {
    // Selects, not `f64::clamp`: a NaN falls to `LOWEST` here and is put back
    // at the end, and each select is one `max` / `min` / blend instruction.
    let clamped = if x > LOWEST { x } else { LOWEST };
    let clamped = if clamped < HIGHEST { clamped } else { HIGHEST };
    let k = (clamped * std::f64::consts::LOG2_E + ROUND) - ROUND;
    let r = (clamped - k * LN2_HI) - k * LN2_LO;
    let r2 = r * r;
    let r4 = r2 * r2;
    let r8 = r4 * r4;
    let low = ((C[0] + C[1] * r) + (C[2] + C[3] * r) * r2)
        + ((C[4] + C[5] * r) + (C[6] + C[7] * r) * r2) * r4;
    let high = (C[8] + C[9] * r) + (C[10] + C[11] * r) * r2;
    let q = low + high * r8;
    let p = 1.0 + (r + r2 * q);
    let half = (k * 0.5 + ROUND) - ROUND;
    let result = (p * pow2(half)) * pow2(k - half);
    if x.is_nan() {
        x
    } else {
        result
    }
}

#[inline(always)]
fn shifted_body(out: &mut [f64], xs: &[f64], shift: f64) -> f64 {
    let mut sums = [0.0f64; LANES];
    let mut outs = out.chunks_exact_mut(LANES);
    let mut ins = xs.chunks_exact(LANES);
    for (out, xs) in (&mut outs).zip(&mut ins) {
        let xs: &[f64; LANES] = xs.try_into().expect("a chunk is LANES wide");
        out.copy_from_slice(&exp_into_lanes(&mut sums, xs, shift));
    }
    let rest = outs.into_remainder().iter_mut().zip(ins.remainder());
    for ((slot, &x), sum) in rest.zip(&mut sums) {
        *slot = exp(x - shift);
        *sum += *slot;
    }
    lane_tree(sums)
}

#[inline(always)]
fn in_place_body(xs: &mut [f64], shift: f64) -> f64 {
    let mut sums = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let chunk: &mut [f64; LANES] = chunk.try_into().expect("a chunk is LANES wide");
        *chunk = exp_into_lanes(&mut sums, chunk, shift);
    }
    for (x, sum) in chunks.into_remainder().iter_mut().zip(&mut sums) {
        *x = exp(*x - shift);
        *sum += *x;
    }
    lane_tree(sums)
}

/// `exp(xs[i] − shift)` of eight elements, each added to its lane of `sums`.
/// Fixed-size arrays and an index loop keep the eight in one vector; with
/// `array::map` in place of the loop the slice forms ran 4× slower at
/// AVX-512F (the ignored `timing_per_tier` test).
#[inline(always)]
fn exp_into_lanes(sums: &mut [f64; LANES], xs: &[f64; LANES], shift: f64) -> [f64; LANES] {
    let mut exps = [0.0f64; LANES];
    for i in 0..LANES {
        exps[i] = exp(xs[i] - shift);
        sums[i] += exps[i];
    }
    exps
}

/// [`exp_shifted`] compiled for `tier` (the baseline if this CPU lacks it).
/// Callers outside tests pass [`Tier::widest`].
fn exp_shifted_on(tier: Tier, out: &mut [f64], xs: &[f64], shift: f64) -> f64 {
    assert_eq!(out.len(), xs.len(), "one output per input");
    tier.run(
        #[inline(always)]
        || shifted_body(out, xs, shift),
    )
}

/// [`exp_shifted_in_place`] compiled for `tier` (the baseline if this CPU
/// lacks it). Callers outside tests pass [`Tier::widest`].
fn exp_shifted_in_place_on(tier: Tier, xs: &mut [f64], shift: f64) -> f64 {
    tier.run(
        #[inline(always)]
        || in_place_body(xs, shift),
    )
}

/// `out[i] = exp(xs[i] − shift)`: a tile's reduce step under its maximum.
/// Bit-identical to calling [`exp`] per element, on every CPU. Returns the
/// sum of the exponentials, added in the same pass: element `i` into lane
/// `i mod 8` and the eight lanes in one fixed tree,
/// `((0+1)+(2+3))+((4+5)+(6+7))`, as [`sum_and_squares`](crate::sum_and_squares)
/// adds.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn exp_shifted(out: &mut [f64], xs: &[f64], shift: f64) -> f64 {
    exp_shifted_on(Tier::widest(), out, xs, shift)
}

/// `xs[i] = exp(xs[i] − shift)`, for a tile of scores that is its own output.
/// Bit-identical to calling [`exp`] per element, on every CPU; returns their
/// sum in [`exp_shifted`]'s order.
pub fn exp_shifted_in_place(xs: &mut [f64], shift: f64) -> f64 {
    exp_shifted_in_place_on(Tier::widest(), xs, shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance in units in the last place between two finite doubles of the
    /// same sign (every result here is ≥ 0), or 0 for two equal non-finites.
    fn ulps(a: f64, b: f64) -> u64 {
        if a == b {
            return 0;
        }
        assert!(a.is_finite() && b.is_finite(), "{a:e} vs {b:e}");
        a.to_bits().abs_diff(b.to_bits())
    }

    fn worst_ulps(points: impl Iterator<Item = f64>) -> (u64, f64) {
        points.fold((0, 0.0), |worst, x| {
            let distance = ulps(exp(x), x.exp());
            if distance > worst.0 {
                (distance, x)
            } else {
                worst
            }
        })
    }

    #[test]
    fn specials_are_exact() {
        assert_eq!(exp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(-746.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(-1e300).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(f64::MIN).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(710.0), f64::INFINITY);
        assert_eq!(exp(1e300), f64::INFINITY);
        assert_eq!(exp(f64::MAX), f64::INFINITY);
        for payload in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_dead_beef)] {
            assert_eq!(exp(payload).to_bits(), payload.to_bits());
        }
    }

    #[test]
    fn results_leave_the_normal_range_the_way_libm_does() {
        // The largest finite result, the first overflow, the last normal and
        // the whole subnormal range down to the first zero.
        let ln_max = f64::MAX.ln();
        let edges = (-2000..=2000).map(|i| ln_max + f64::from(i) * 1e-13);
        let (worst, at) = worst_ulps(edges);
        assert!(worst <= 2, "{worst} ulp at {at:e}");
        assert!(exp(709.78).is_finite() && exp(709.79) == f64::INFINITY);
        let subnormals = (0..=40_000).map(|i| -708.0 - f64::from(i) * 1e-3);
        let (worst, at) = worst_ulps(subnormals);
        assert!(worst <= 2, "{worst} ulp at {at:e}");
        assert_eq!(exp(-745.13).to_bits(), 1, "the smallest subnormal");
        assert_eq!(exp(-745.14).to_bits(), 0);
    }

    /// 16 M points over the whole finite range plus dense windows around 0
    /// and ±ln 2 / 2 (the ends of the reduced interval, where `k` changes).
    /// Optimised builds only: in a debug build the sweep takes minutes.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow unoptimised; CI runs it in release")]
    fn stays_within_two_ulps_of_libm() {
        const SWEEP: u32 = 16_000_000;
        let (lo, hi) = (-745.2, 709.8);
        let sweep = (0..=SWEEP).map(|i| lo + (hi - lo) * f64::from(i) / f64::from(SWEEP));
        let half_ln2 = std::f64::consts::LN_2 / 2.0;
        let window = |centre: f64| (-200_000..=200_000).map(move |i| centre + f64::from(i) * 1e-9);
        let points = sweep
            .chain(window(0.0))
            .chain(window(half_ln2))
            .chain(window(-half_ln2))
            .chain((-1000..=1000).map(|i| f64::from(i) * f64::EPSILON));
        let (worst, at) = worst_ulps(points);
        println!("worst distance from libm: {worst} ulp at x = {at:e}");
        assert!(worst <= 2, "{worst} ulp at {at:e}");
    }

    #[test]
    fn every_tier_returns_the_bits_of_the_scalar_form() {
        // Ordinary values, both ends of the range, zeros, infinities, NaN.
        let mut values: Vec<f64> = (0..71)
            .map(|i| -20.0 + 0.577 * f64::from(i) - 0.001 * f64::from(i * i))
            .collect();
        let hostile = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -745.0,
            -720.5,
            709.7,
            711.0,
            -800.0,
        ];
        for (slot, value) in values.iter_mut().step_by(7).zip(hostile) {
            *slot = value;
        }
        let tiers = Tier::available();
        println!("compared with the scalar form: {tiers:?}");
        for shift in [0.0, 1.25, -3.5] {
            // Every vector remainder (lengths 0..=67) at every misalignment.
            for offset in 0..=3 {
                for len in 0..=67 {
                    let xs = &values[offset..offset + len];
                    let exps: Vec<f64> = xs.iter().map(|&x| exp(x - shift)).collect();
                    let expected: Vec<u64> = exps.iter().map(|e| e.to_bits()).collect();
                    let sum = canonical_bits(lane_sum_spec(&exps));
                    for &tier in &tiers {
                        let case = format!("{tier:?} len {len} offset {offset}");
                        let mut out = vec![f64::NAN; len + 2];
                        let got = exp_shifted_on(tier, &mut out[1..=len], xs, shift);
                        let bits: Vec<u64> = out[1..=len].iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits, expected, "{case}");
                        assert_eq!(canonical_bits(got), sum, "sum, {case}");
                        assert!(out[0].is_nan() && out[len + 1].is_nan(), "wrote outside");

                        let mut in_place = values.clone();
                        let range = offset..offset + len;
                        let got = exp_shifted_in_place_on(tier, &mut in_place[range], shift);
                        assert_eq!(canonical_bits(got), sum, "in-place sum, {case}");
                        let touched = &in_place[offset..offset + len];
                        let bits: Vec<u64> = touched.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(
                            bits, expected,
                            "{tier:?} in place len {len} offset {offset}"
                        );
                        let untouched = |range: std::ops::Range<usize>| {
                            let before = values[range.clone()].iter().map(|v| v.to_bits());
                            before.eq(in_place[range].iter().map(|v| v.to_bits()))
                        };
                        assert!(untouched(0..offset) && untouched(offset + len..values.len()));
                    }
                }
            }
        }
        // The public entry points are the widest tier.
        let mut out = vec![0.0; values.len()];
        let sum = exp_shifted(&mut out, &values, 0.5);
        let mut in_place = values.clone();
        let in_place_sum = exp_shifted_in_place(&mut in_place, 0.5);
        for ((&x, a), b) in values.iter().zip(&out).zip(&in_place) {
            assert_eq!(a.to_bits(), exp(x - 0.5).to_bits());
            assert_eq!(b.to_bits(), a.to_bits());
        }
        let widest = exp_shifted_on(tiers[0], &mut out, &values, 0.5);
        assert_eq!(canonical_bits(sum), canonical_bits(widest));
        assert_eq!(canonical_bits(in_place_sum), canonical_bits(widest));
    }

    /// The order the slice forms promise for their sum, one term at a time:
    /// element `i` into lane `i mod 8`, then `((0+1)+(2+3))+((4+5)+(6+7))`.
    fn lane_sum_spec(xs: &[f64]) -> f64 {
        let mut lanes = [0.0f64; 8];
        for (i, &x) in xs.iter().enumerate() {
            lanes[i % 8] += x;
        }
        let [a, b, c, d, e, f, g, h] = lanes;
        ((a + b) + (c + d)) + ((e + f) + (g + h))
    }

    /// Bits of a value, a NaN as "NaN here": which NaN an addition of two
    /// NaNs returns is left open by Rust and moves when LLVM commutes it.
    fn canonical_bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// On ragged tiles the sum is the lane spec's over the elements
        /// [`exp`] returns one at a time.
        #[test]
        fn prop_the_sum_is_the_lane_sum_of_the_exponentials(
            len in 0usize..150,
            shift in -5.0f64..5.0,
            seed in 0u64..1000,
        ) {
            let xs = crate::random_vec(len, seed, -20.0, 8.0);
            let exps: Vec<f64> = xs.iter().map(|&x| exp(x - shift)).collect();
            let mut out = vec![0.0; len];
            let sum = exp_shifted(&mut out, &xs, shift);
            proptest::prop_assert_eq!(sum.to_bits(), lane_sum_spec(&exps).to_bits());
            let mut in_place = xs.clone();
            let sum = exp_shifted_in_place(&mut in_place, shift);
            proptest::prop_assert_eq!(sum.to_bits(), lane_sum_spec(&exps).to_bits());
            proptest::prop_assert!(out.iter().zip(&in_place).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    /// Not a check: prints what `rf_tile::exec`'s `EXP_WORK`, the README and
    /// [`crate::PARALLEL_MIN_WORK`] quote — ns per element of libm, the scalar
    /// form and every tier on a 4096-element tile (with its sum), and ns per
    /// multiply-add of `add_scaled_block`'s row-by-row loop at every tier (64
    /// rows of 64 into one 64-wide accumulator).
    /// `cargo test --release -p rf-workloads timing -- --ignored --nocapture`
    #[test]
    #[ignore = "prints timings"]
    fn timing_per_tier() {
        use crate::rows::{add_scaled_block_on, sum_and_squares_on, Terms};
        use std::hint::black_box;
        use std::time::Instant;
        const LEN: usize = 4096;
        let xs: Vec<f64> = (0..LEN)
            .map(|i| -8.0 + 8.0 * i as f64 / LEN as f64)
            .collect();
        let rows: Vec<f64> = (0..LEN).map(|i| i as f64 * 1e-3).collect();
        let mut out = vec![0.0; LEN];
        // Median of 31 timings of 64 passes, per one of LEN operations.
        let mut ns_per_op = |pass: &mut dyn FnMut(&mut [f64])| {
            let mut samples: Vec<f64> = (0..31)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..64 {
                        pass(black_box(&mut out));
                    }
                    start.elapsed().as_nanos() as f64 / (64 * LEN) as f64
                })
                .collect();
            samples.sort_by(f64::total_cmp);
            samples[15]
        };
        let libm = ns_per_op(&mut |out| {
            for (slot, &x) in out.iter_mut().zip(&xs) {
                *slot = (x - 0.5).exp();
            }
        });
        println!("libm, per element        {libm:6.2} ns");
        // One element feeds the next: the scalar form's latency.
        for (name, f) in [("libm", f64::exp as fn(f64) -> f64), ("scalar form", exp)] {
            let chained = ns_per_op(&mut |out| {
                out[0] = (0..LEN).fold(out[0], |x, _| f(x * 0.25));
            });
            println!("{name}, dependent chain {chained:6.2} ns");
        }
        for tier in Tier::available() {
            let ns = ns_per_op(&mut |out| {
                black_box(exp_shifted_on(tier, out, black_box(&xs), 0.5));
            });
            let fma = ns_per_op(&mut |out| {
                let (acc, coeffs) = (&mut out[..64], &xs[..64]);
                add_scaled_block_on(tier, acc, black_box(64), coeffs, &rows, 64, Terms::All);
            });
            let sums = ns_per_op(&mut |out| {
                let (sum, sum_sq) = sum_and_squares_on(tier, black_box(&xs));
                out[0] = sum + sum_sq;
            });
            println!(
                "{tier:?}, slice form {ns:6.2} ns, one row of add_scaled_block {fma:6.3} ns per multiply-add, \
                 sum_and_squares {sums:6.3} ns per element"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one output per input")]
    fn mismatched_lengths_are_rejected() {
        exp_shifted(&mut [0.0; 3], &[0.0; 4], 0.0);
    }
}
