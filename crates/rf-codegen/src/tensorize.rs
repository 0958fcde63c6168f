//! Tests of the cascade tensorization pass, [`crate::lower`]'s
//! `tensorize_cascade`: on-chip state per mode, grid coverage, precision and
//! traffic scaling of the single fused kernel.

#[cfg(test)]
mod tests {
    use crate::lower::{canonical_cascade_point, tensorize_cascade};
    use crate::strategy::Mode;
    use crate::tuner::TuningPoint;
    use proptest::prelude::*;
    use rf_tile::TileProgram;

    /// A mid-space point: 128 × 128 tiles, 256 threads, double buffering.
    const POINT: TuningPoint = TuningPoint {
        block_rows: 128,
        block_axis: 128,
        threads: 256,
        pipeline_depth: 2,
        segments: 1,
    };

    /// `tensorize_cascade` at `POINT`'s canonical point over fp16 input.
    fn tensorize(num_reductions: usize, rows: usize, axis_len: usize, mode: Mode) -> TileProgram {
        let point = canonical_cascade_point(rows, axis_len, &POINT);
        tensorize_cascade("softmax", num_reductions, rows, axis_len, 2, mode, &point)
    }

    #[test]
    fn incremental_shared_memory_is_constant_in_axis_length() {
        let small = tensorize(2, 512, 1024, Mode::Incremental);
        let large = tensorize(2, 512, 65536, Mode::Incremental);
        assert_eq!(
            small.cost().shared_mem_per_block,
            large.cost().shared_mem_per_block,
            "incremental mode keeps O(1) on-chip state"
        );
    }

    #[test]
    fn non_incremental_shared_memory_grows_with_axis_length() {
        let small = tensorize(2, 512, 1024, Mode::NonIncremental);
        let large = tensorize(2, 512, 8192, Mode::NonIncremental);
        assert!(large.cost().shared_mem_per_block > small.cost().shared_mem_per_block);
        let ratio =
            large.cost().shared_mem_per_block as f64 / small.cost().shared_mem_per_block as f64;
        assert!(
            (ratio - 8.0).abs() < 0.5,
            "shared memory should scale with the staged axis"
        );
    }

    #[test]
    fn non_incremental_avoids_per_iteration_corrections() {
        let inc = tensorize(2, 128, 4096, Mode::Incremental);
        let non = tensorize(2, 128, 4096, Mode::NonIncremental);
        // Same memory traffic (input loaded once either way), fewer flops for
        // the non-incremental variant (no per-iteration correction), which is
        // the §5.4 observation that non-incremental wins at equal parallelism.
        assert_eq!(inc.cost().global_bytes, non.cost().global_bytes);
        assert!(non.cost().flops < inc.cost().flops);
    }

    #[test]
    fn element_width_sets_the_program_precision() {
        let precision = |element_bytes| {
            tensorize_cascade("c", 1, 64, 64, element_bytes, Mode::Incremental, &POINT).precision
        };
        assert_eq!(precision(2), "fp16");
        assert_eq!(precision(1), "fp8");
        assert_eq!(precision(4), "fp32");
    }

    #[test]
    fn grid_covers_all_rows() {
        let point = TuningPoint {
            block_rows: 100,
            ..POINT
        };
        let p = tensorize_cascade("quant", 2, 250, 2048, 2, Mode::Incremental, &point);
        assert_eq!(p.grid_blocks, 3);
    }

    #[test]
    #[should_panic(expected = "at least one reduction")]
    fn zero_reductions_panics() {
        tensorize(0, 16, 16, Mode::Incremental);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_traffic_scales_linearly_with_rows(
            rows_pow in 5u32..10,
            axis_pow in 6u32..12,
        ) {
            let rows = 1usize << rows_pow;
            let axis = 1usize << axis_pow;
            let one = tensorize(2, rows, axis, Mode::Incremental);
            let two = tensorize(2, rows * 2, axis, Mode::Incremental);
            let ratio = two.cost().global_bytes as f64 / one.cost().global_bytes as f64;
            prop_assert!((ratio - 2.0).abs() < 0.25, "ratio = {ratio}");
        }

        #[test]
        fn prop_fused_program_is_single_kernel(
            reductions in 1usize..5,
            axis_pow in 4u32..12,
        ) {
            let p = tensorize(reductions, 256, 1usize << axis_pow, Mode::Incremental);
            prop_assert_eq!(p.cost().kernel_launches, 1);
        }
    }
}
