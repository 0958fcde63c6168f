//! The run-time choice of vector width, and the workspace's only `unsafe`.
//!
//! The slice loops of [`exp`](mod@crate::exp) (`exp_shifted`,
//! `exp_shifted_in_place`) and [`add_scaled_rows`](crate::add_scaled_rows) —
//! the GEMM loop under attention's P·V, routing's scores, quant + GEMM's
//! accumulate and `Matrix::matmul` — are each one `#[inline(always)]` body,
//! compiled three times: at the build's baseline (two `f64` lanes on x86-64),
//! under `avx2` and under `avx512f`. Every public call runs the widest
//! [`Tier`] this CPU offers, picked by `is_x86_feature_detected!` (other
//! architectures: the baseline); the others are reachable only from tests.
//! There is no Cargo feature, environment variable or compiler flag to set.
//!
//! A wider unit cannot show in a result: the bodies hold no `mul_add` and no
//! reassociation, so every output adds its terms in the source's order at
//! every width, and each body's tests compare every available tier with the
//! baseline bit for bit. The one thing left open is *which* NaN an addition
//! of two NaNs returns (its sign and payload): Rust does not specify it, and
//! LLVM may commute the operands differently at each width. Where a result is
//! NaN does not move, and that is what every output comparison in the
//! workspace checks.
//!
//! `dot_rows` (in `rf_tile::exec`) is not widened: built at the wider tiers it
//! gained nothing, its four accumulation chains being sequential.

#![allow(unsafe_code)]

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
            Tier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Tier::Avx2 | Tier::Avx512 => false,
        }
    }

    /// The widest tier this CPU offers.
    pub(crate) fn widest() -> Tier {
        let available = Tier::ALL.into_iter().find(|tier| tier.is_available());
        available.unwrap_or(Tier::Baseline)
    }

    /// The tiers this CPU can run, widest first: what the tier tests compare
    /// (they print it).
    #[cfg(test)]
    pub(crate) fn available() -> Vec<Tier> {
        let tiers: Vec<Tier> = Tier::ALL.into_iter().filter(|t| t.is_available()).collect();
        assert!(tiers.contains(&Tier::Baseline) && tiers[0] == Tier::widest());
        tiers
    }

    /// Runs `body` compiled for this tier, or for the baseline if this CPU
    /// lacks it. `body` must be an `#[inline(always)]` closure that calls an
    /// `#[inline(always)]` loop: only then is the loop compiled inside the
    /// tier's trampoline, with its vector unit. (A plain closure is inlined
    /// at LLVM's discretion; `add_scaled_rows`' was not, and ran at the
    /// baseline under every tier.)
    #[inline(always)]
    pub(crate) fn run<R>(self, body: impl FnOnce() -> R) -> R {
        match self {
            #[cfg(target_arch = "x86_64")]
            Tier::Avx512 if self.is_available() => {
                // SAFETY: `avx512f` was detected on this CPU by the guard above.
                unsafe { wide::avx512(body) }
            }
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 if self.is_available() => {
                // SAFETY: `avx2` was detected on this CPU by the guard above.
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
    /// The CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn avx2<R>(body: impl FnOnce() -> R) -> R {
        body()
    }

    /// # Safety
    ///
    /// The CPU must support `avx512f`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn avx512<R>(body: impl FnOnce() -> R) -> R {
        body()
    }
}
