//! Reduction-tree shapes and the chain-of-trees execution model (§3.1.1–3.1.2).
//!
//! A reduction of length `L0` is organised into `K` levels with output lengths
//! `L0 > L1 > … > LK = 1`; level `k` partitions the `L_{k-1}` outputs of the
//! previous level into segments of length `L_{k-1}/L_k`. On a GPU the levels
//! map onto the execution hierarchy: `L1` = number of threads, `L2` = number
//! of warps, `L3` = number of CTAs, `L4 = 1` (§4.3).
//!
//! This module also provides the memory-access accounting used in Figure 7:
//! without fusion, the dependency result `d_K` of a preceding reduction must be
//! re-loaded `L0` times; with fusion at level `k`, only `L_k` times.

use std::fmt;

/// The shape of a reduction tree: the output length of every level, starting
/// with the input length `L0` and ending with `1`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TreeShape {
    levels: Vec<usize>,
}

/// Errors from [`TreeShape::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeShapeError {
    /// Fewer than two levels were supplied (need at least `L0` and `LK = 1`).
    TooFewLevels,
    /// The final level length is not 1.
    LastLevelNotOne,
    /// Level lengths are not strictly decreasing.
    NotStrictlyDecreasing,
    /// A level length does not divide the previous level length.
    NotDivisible {
        /// Index of the offending level.
        level: usize,
    },
}

impl fmt::Display for TreeShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeShapeError::TooFewLevels => write!(f, "a tree shape needs at least L0 and LK = 1"),
            TreeShapeError::LastLevelNotOne => write!(f, "the last level length must be 1"),
            TreeShapeError::NotStrictlyDecreasing => {
                write!(f, "level lengths must strictly decrease")
            }
            TreeShapeError::NotDivisible { level } => {
                write!(
                    f,
                    "level {level} length must divide the previous level length"
                )
            }
        }
    }
}

impl std::error::Error for TreeShapeError {}

impl TreeShape {
    /// Creates a tree shape from the level lengths `[L0, L1, …, LK]`.
    ///
    /// # Errors
    ///
    /// Returns a [`TreeShapeError`] when the lengths are not strictly
    /// decreasing, do not end in 1, or fail the divisibility requirement of
    /// Eq. 2–3.
    pub fn new(levels: Vec<usize>) -> Result<Self, TreeShapeError> {
        if levels.len() < 2 {
            return Err(TreeShapeError::TooFewLevels);
        }
        if *levels.last().unwrap() != 1 {
            return Err(TreeShapeError::LastLevelNotOne);
        }
        for k in 1..levels.len() {
            if levels[k] >= levels[k - 1] {
                return Err(TreeShapeError::NotStrictlyDecreasing);
            }
            if !levels[k - 1].is_multiple_of(levels[k]) {
                return Err(TreeShapeError::NotDivisible { level: k });
            }
        }
        Ok(TreeShape { levels })
    }

    /// A flat two-level shape `[L0, 1]`: the whole input reduced by one segment.
    pub fn flat(l0: usize) -> Self {
        TreeShape::new(vec![l0.max(2), 1]).expect("flat shape is always valid")
    }

    /// The classic GPU four-level hierarchy of §4.3: `L1` threads, `L2` warps,
    /// `L3` CTAs, `L4 = 1`. Levels equal to or larger than the previous level
    /// are dropped so short inputs still produce a valid shape.
    pub fn gpu_hierarchy(l0: usize, threads: usize, warps: usize, ctas: usize) -> Self {
        let mut levels = vec![l0];
        for candidate in [threads, warps, ctas, 1usize] {
            let prev = *levels.last().unwrap();
            if candidate < prev && prev % candidate == 0 {
                levels.push(candidate);
            }
        }
        if *levels.last().unwrap() != 1 {
            levels.push(1);
        }
        TreeShape::new(levels).expect("gpu hierarchy construction yields a valid shape")
    }

    /// The level lengths `[L0, …, LK]`.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// The input length `L0`.
    pub fn input_len(&self) -> usize {
        self.levels[0]
    }

    /// The number of reduction levels `K` (excluding the input level).
    pub fn depth(&self) -> usize {
        self.levels.len() - 1
    }

    /// The segment length at level `k` (1-based): `L_{k-1} / L_k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is 0 or exceeds [`TreeShape::depth`].
    pub fn segment_len(&self, k: usize) -> usize {
        assert!(k >= 1 && k <= self.depth(), "level {k} out of range");
        self.levels[k - 1] / self.levels[k]
    }

    /// Number of output segments at level `k` (1-based), i.e. `L_k`.
    pub fn segments(&self, k: usize) -> usize {
        assert!(k >= 1 && k <= self.depth(), "level {k} out of range");
        self.levels[k]
    }

    /// Figure 7 accounting: the number of times the *final* result `d_K` of a
    /// preceding reduction must be loaded by a dependent reduction.
    ///
    /// * Without fusion, `F_i(·)` consumes `d_K` for every one of the `L0`
    ///   input positions.
    /// * With fusion at level `k`, the dependent reduction instead consumes
    ///   same-level partial results, and only the `L_k` segment outputs touch
    ///   the preceding reduction's value.
    pub fn dependency_loads(&self, fusion_level: Option<usize>) -> usize {
        match fusion_level {
            None => self.input_len(),
            Some(k) => {
                assert!(k >= 1 && k <= self.depth(), "level {k} out of range");
                self.levels[k]
            }
        }
    }

    /// Total number of input elements loaded from memory by a cascade of
    /// `num_reductions` reductions over `num_inputs` input vectors.
    ///
    /// Unfused, every reduction re-loads the full input; fused, the input is
    /// loaded exactly once (§3.2, Figure 3).
    pub fn input_loads(&self, num_reductions: usize, num_inputs: usize, fused: bool) -> usize {
        let once = self.input_len() * num_inputs;
        if fused {
            once
        } else {
            once * num_reductions
        }
    }
}

impl fmt::Display for TreeShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.levels.iter().map(|l| l.to_string()).collect();
        write!(f, "[{}]", parts.join(" -> "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn valid_shape() {
        let shape = TreeShape::new(vec![1024, 128, 4, 1]).unwrap();
        assert_eq!(shape.input_len(), 1024);
        assert_eq!(shape.depth(), 3);
        assert_eq!(shape.segment_len(1), 8);
        assert_eq!(shape.segment_len(2), 32);
        assert_eq!(shape.segment_len(3), 4);
        assert_eq!(shape.segments(1), 128);
        assert_eq!(shape.to_string(), "[1024 -> 128 -> 4 -> 1]");
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        assert_eq!(
            TreeShape::new(vec![8]).unwrap_err(),
            TreeShapeError::TooFewLevels
        );
        assert_eq!(
            TreeShape::new(vec![8, 2]).unwrap_err(),
            TreeShapeError::LastLevelNotOne
        );
        assert_eq!(
            TreeShape::new(vec![8, 8, 1]).unwrap_err(),
            TreeShapeError::NotStrictlyDecreasing
        );
        assert_eq!(
            TreeShape::new(vec![8, 3, 1]).unwrap_err(),
            TreeShapeError::NotDivisible { level: 1 }
        );
        assert!(TreeShape::new(vec![8, 3, 1])
            .unwrap_err()
            .to_string()
            .contains("divide"));
    }

    #[test]
    fn flat_and_gpu_hierarchy_constructors() {
        assert_eq!(TreeShape::flat(512).levels(), &[512, 1]);
        let shape = TreeShape::gpu_hierarchy(4096, 256, 8, 4);
        assert_eq!(shape.levels(), &[4096, 256, 8, 4, 1]);
        // Short inputs drop unusable levels instead of failing.
        let small = TreeShape::gpu_hierarchy(16, 256, 8, 4);
        assert_eq!(small.levels(), &[16, 8, 4, 1]);
    }

    #[test]
    fn figure7_dependency_loads() {
        let shape = TreeShape::new(vec![4096, 256, 8, 1]).unwrap();
        assert_eq!(shape.dependency_loads(None), 4096);
        assert_eq!(shape.dependency_loads(Some(1)), 256);
        assert_eq!(shape.dependency_loads(Some(2)), 8);
        assert_eq!(shape.dependency_loads(Some(3)), 1);
        // Fusing always reduces dependency traffic.
        for k in 1..=shape.depth() {
            assert!(shape.dependency_loads(Some(k)) < shape.dependency_loads(None));
        }
    }

    #[test]
    fn input_loads_accounting() {
        let shape = TreeShape::flat(1024);
        assert_eq!(shape.input_loads(3, 2, false), 3 * 1024 * 2);
        assert_eq!(shape.input_loads(3, 2, true), 1024 * 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn segment_len_out_of_range_panics() {
        TreeShape::flat(64).segment_len(2);
    }

    proptest! {
        #[test]
        fn prop_gpu_hierarchy_is_always_valid(
            l0_pow in 4u32..14,
            threads_pow in 1u32..10,
            warps_pow in 0u32..6,
            ctas_pow in 0u32..4,
        ) {
            let shape = TreeShape::gpu_hierarchy(
                1usize << l0_pow,
                1usize << threads_pow,
                1usize << warps_pow,
                1usize << ctas_pow,
            );
            prop_assert_eq!(*shape.levels().last().unwrap(), 1);
            for k in 1..shape.levels().len() {
                prop_assert!(shape.levels()[k] < shape.levels()[k - 1]);
                prop_assert_eq!(shape.levels()[k - 1] % shape.levels()[k], 0);
            }
        }
    }
}
