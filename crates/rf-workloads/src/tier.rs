//! The run-time choice of vector width, and the workspace's only `unsafe`.
//!
//! The slice loops of [`exp`](mod@crate::exp) (`exp_shifted`,
//! `exp_shifted_in_place`, each with the sum of its exponentials in eight
//! lanes, and the scalar `exp` itself), [`add_scaled_block`](crate::add_scaled_block) — every GEMM after
//! a reduction: attention's P·V and combine, routing's scores, quant + GEMM's
//! accumulate and `Matrix::matmul`, four rows by a panel of columns held in
//! registers per W tile — [`score_group`](crate::score_group) — attention's
//! Q·Kᵀ, eight query rows to a vector — [`dot_rows`](crate::dot_rows) — a
//! lone query row's scores — [`tile_max`](crate::tile_max) — a
//! tile's maximum in eight lanes — and
//! [`sum_and_squares`](crate::sum_and_squares) — variance's Σx and Σx² in
//! eight lanes — are each one `#[inline(always)]` body, compiled three
//! times: at the build's baseline (two `f64` lanes on x86-64), under
//! `avx2,fma` and under `avx512f,fma`. Where a body holds a block of accumulators in
//! registers (`add_scaled_block`'s panel, `score_group`'s keys per pass) the
//! block's shape is a constant of the source per tier, chosen by measuring
//! the widths the tier's registers allow; it moves no bits, since every
//! accumulator still adds its terms in the source's order. Every public call runs the widest
//! [`Tier`] this CPU offers, picked by `is_x86_feature_detected!` (AVX2 and
//! AVX-512F each only beside `fma`; other architectures: the baseline); the
//! others are reachable only from tests. There is no Cargo feature,
//! environment variable or compiler flag to set.
//!
//! A wider unit cannot show in a result: every multiply-add in the bodies is
//! one `mul_add`, rounded once, and nothing is reassociated, so every output
//! adds its terms in the source's order at every width. `mul_add` is a
//! hardware fused multiply-add under `fma` and libm's `fma`, exact by
//! definition, at the baseline (which is why a scalar use of it runs through
//! a tier too); each body's tests compare every available tier with the
//! baseline bit for bit, and check that the fusion happened. The one thing
//! left open is *which* NaN an operation on two NaNs returns (its sign and
//! payload): Rust does not specify it, and LLVM may commute the operands
//! differently at each width. Where a result is NaN does not move, and that
//! is what every output comparison in the workspace checks.
//!
//! At the baseline `add_scaled_block` runs its rows one at a time, through
//! its row-by-row remainder loop: no panel width measured faster there.
//! `dot_rows` runs through a tier for its `mul_add` first: its eight chains
//! are eight rows' dot products, which the wider tiers hold in one vector,
//! fed from a block of eight contiguous columns of each key and transposed
//! in registers (read a column at a time, the keys were gathered element by
//! element at every column).

#![allow(unsafe_code)]

#[cfg(target_arch = "x86_64")]
use std::arch::is_x86_feature_detected as detected;

/// One compilation of the slice loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    Baseline,
    Avx2,
    Avx512,
}

impl Tier {
    /// Widest first.
    const ALL: [Tier; 3] = [Tier::Avx512, Tier::Avx2, Tier::Baseline];

    /// Whether this CPU can run the tier. The standard library detects the
    /// features once per process and answers from a cached word afterwards.
    fn is_available(self) -> bool {
        match self {
            Tier::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => detected!("avx2") && detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => detected!("avx512f") && detected!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 | Tier::Avx512 => false,
        }
    }

    /// The widest tier this CPU offers.
    pub(crate) fn widest() -> Tier {
        let available = Tier::ALL.into_iter().find(|tier| tier.is_available());
        available.unwrap_or(Tier::Baseline)
    }

    /// Runs `body` compiled for this tier, or for the baseline if this CPU
    /// lacks it. `body` must be an `#[inline(always)]` closure that calls an
    /// `#[inline(always)]` loop: only then is the loop compiled inside the
    /// tier's trampoline, with its vector unit. (A plain closure is inlined
    /// at LLVM's discretion; the row-by-row GEMM loop's was not, and ran at
    /// the baseline under every tier.)
    #[inline(always)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if self.is_available() => {
                // SAFETY: `avx512f` and `fma` were detected on this CPU by the
                // guard above.
                unsafe { wide::avx512(body) }
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if self.is_available() => {
                // SAFETY: `avx2` and `fma` were detected on this CPU by the
                // guard above.
                unsafe { wide::avx2(body) }
            }
            _ => body(),
        }
    }
}

/// The trampolines: a loop inlined here is compiled with a wider vector unit
/// enabled. Callable only once the feature was detected.
#[cfg(target_arch = "x86_64")]
mod wide {
    /// # Safety
    ///
    /// The CPU must support `avx2` and `fma`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn avx2<R>(body: impl FnOnce() -> R) -> R {
        body()
    }

    /// # Safety
    ///
    /// The CPU must support `avx512f` and `fma`.
    #[target_feature(enable = "avx512f,fma")]
    pub(super) unsafe fn avx512<R>(body: impl FnOnce() -> R) -> R {
        body()
    }
}

#[cfg(test)]
impl Tier {
    /// The tiers this CPU can run, widest first: what the tier tests compare
    /// (they print it).
    pub(crate) fn available() -> Vec<Tier> {
        let tiers: Vec<Tier> = Tier::ALL.into_iter().filter(|t| t.is_available()).collect();
        assert!(tiers.contains(&Tier::Baseline) && tiers[0] == Tier::widest());
        tiers
    }
}
