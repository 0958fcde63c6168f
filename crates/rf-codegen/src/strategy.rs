//! Computation modes and fusion levels (§3.3, §5.3–5.4). The §4.3 execution
//! strategy is a canonical [`crate::TuningPoint`]'s segment count:
//! Multi-Segment exactly when `segments > 1`.

use rf_gpusim::GpuArch;

/// Incremental vs non-incremental computation (§3.3, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Streaming updates with `O(1)` on-chip state and per-step corrections.
    Incremental,
    /// Stage the complete previous-level results on chip before reducing;
    /// cheaper per element but bounded by the shared-memory capacity.
    NonIncremental,
}

impl Mode {
    /// Whether a segment of `segment_len` elements of `bytes_per_element`-wide
    /// data (plus `state_bytes` of per-row state) fits the architecture's
    /// shared memory in this mode.
    ///
    /// Incremental mode always fits (its state is constant-sized); the
    /// non-incremental mode needs the whole segment resident, which is the
    /// constraint observed in §5.4 (feasible only for short sequences).
    pub fn fits(
        self,
        arch: &GpuArch,
        segment_len: usize,
        bytes_per_element: usize,
        state_bytes: usize,
    ) -> bool {
        match self {
            Mode::Incremental => true,
            Mode::NonIncremental => {
                (segment_len * bytes_per_element + state_bytes) as u64 <= arch.shared_mem_per_sm
            }
        }
    }
}

/// The level of the reduction tree at which fusion is applied (§5.3, Fig. 6a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusionLevel {
    /// Fuse at level 1: every thread corrects its private partials.
    IntraThread,
    /// Fuse at level 2: corrections happen per warp.
    IntraWarp,
    /// Fuse at level 3: corrections happen per thread block.
    IntraBlock,
    /// Fuse at level 4: no corrections, but no overlap with the dependent
    /// reduction either (it waits for the final value).
    InterBlock,
}

impl FusionLevel {
    /// All levels in the order of Figure 6a.
    pub const ALL: [FusionLevel; 4] = [
        FusionLevel::IntraThread,
        FusionLevel::IntraWarp,
        FusionLevel::IntraBlock,
        FusionLevel::InterBlock,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            FusionLevel::IntraThread => "intra-thread",
            FusionLevel::IntraWarp => "intra-warp",
            FusionLevel::IntraBlock => "intra-block",
            FusionLevel::InterBlock => "inter-block",
        }
    }

    /// Output length `L_k` of the level at which corrections are applied, for
    /// a launch of `threads` threads per block organised in warps of 32 over
    /// `blocks` blocks (the mapping of §4.3).
    pub fn correction_count(self, input_len: usize, threads: usize, blocks: usize) -> usize {
        match self {
            FusionLevel::IntraThread => input_len.min(threads * blocks).max(1),
            FusionLevel::IntraWarp => (threads / 32).max(1) * blocks,
            FusionLevel::IntraBlock => blocks.max(1),
            FusionLevel::InterBlock => 0,
        }
    }

    /// Fraction of the dependent reduction's memory latency that can be hidden
    /// behind the correction subtree at this level (§5.3: deeper subtrees give
    /// longer independent computation paths; the inter-block level has a full
    /// serial dependency and hides nothing).
    pub fn overlap(self) -> f64 {
        match self {
            FusionLevel::IntraThread => 0.35,
            FusionLevel::IntraWarp => 0.65,
            FusionLevel::IntraBlock => 0.90,
            FusionLevel::InterBlock => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_incremental_is_capacity_limited() {
        let arch = GpuArch::a10();
        assert!(Mode::Incremental.fits(&arch, 1 << 20, 2, 64));
        assert!(Mode::NonIncremental.fits(&arch, 1024, 2, 64));
        assert!(!Mode::NonIncremental.fits(&arch, 1 << 20, 2, 64));
    }

    #[test]
    fn fusion_level_corrections_decrease_with_level() {
        let (len, threads, blocks) = (8192, 256, 8);
        let counts: Vec<usize> = FusionLevel::ALL
            .iter()
            .map(|l| l.correction_count(len, threads, blocks))
            .collect();
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[3]);
        assert_eq!(counts[3], 0);
    }

    #[test]
    fn intra_block_hides_the_most_latency() {
        let best = FusionLevel::ALL
            .iter()
            .max_by(|a, b| a.overlap().partial_cmp(&b.overlap()).unwrap())
            .unwrap();
        assert_eq!(*best, FusionLevel::IntraBlock);
        assert_eq!(FusionLevel::InterBlock.overlap(), 0.0);
        assert_eq!(FusionLevel::IntraWarp.name(), "intra-warp");
    }
}
