//! Deterministic synthetic data generation and a small dense matrix type.
//!
//! The paper's experiments run on random activations; reproducibility here
//! relies on seeded RNGs so that every kernel, test and benchmark sees the same
//! data for a given `(workload, seed)` pair.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rows::{add_scaled_block, available_cores, for_row_ranges, Terms};

/// A dense row-major `f64` matrix.
///
/// This intentionally small type is shared by the reference kernels, the tile
/// interpreter and the benchmarks; it is not meant to be a general linear
/// algebra library.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must be rows * cols");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with uniformly distributed entries in `[low, high)`.
    pub fn random(rows: usize, cols: usize, seed: u64, low: f64, high: f64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..rows * cols).map(|_| rng.gen_range(low..high)).collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: f64) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.data[r * self.cols + c] = value;
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix product `self * other`, its rows split over the host's cores
    /// when the product is large enough ([`for_row_ranges`]) and each range's
    /// rows run as one [`add_scaled_block`], four rows per pass over `other`.
    /// Every output adds its `a · b` terms in ascending inner index, skipping
    /// terms whose `a` is zero, whatever the split.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions do not agree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with_threads(available_cores(), other)
    }

    /// [`Matrix::matmul`] on up to `threads` threads.
    fn matmul_with_threads(&self, threads: usize, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let cols = other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        let body = |range: Range<usize>, out: &mut [f64]| {
            let a = &self.data[range.start * self.cols..range.end * self.cols];
            add_scaled_block(out, cols, a, &other.data, cols, Terms::NonZero);
        };
        let (rows, work_per_row) = (self.rows, self.cols * cols);
        for_row_ranges(threads, rows, 1, work_per_row, &mut out.data, cols, body);
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for (c, &value) in self.row(r).iter().enumerate() {
                out.data[c * self.rows + r] = value;
            }
        }
        out
    }

    /// Maximum absolute element-wise difference to another matrix. Equal
    /// elements (infinities included) and NaN facing NaN differ by 0; NaN
    /// facing a number differs by `+inf`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| nan_aware_diff(a, b, (a - b).abs()))
            .fold(0.0, f64::max)
    }
}

/// The NaN rule every output comparison shares: `diff` (the distance between
/// `a` and `b` by some measure) when it is a number, 0 when `a == b` or both
/// are NaN, and `+inf` otherwise — so a NaN on one side only can never hide
/// behind `f64::max`, which drops NaN.
pub fn nan_aware_diff(a: f64, b: f64, diff: f64) -> f64 {
    if a == b || (a.is_nan() && b.is_nan()) {
        0.0
    } else if diff.is_nan() {
        f64::INFINITY
    } else {
        diff
    }
}

/// A uniformly-random vector in `[low, high)` with a deterministic seed.
pub fn random_vec(len: usize, seed: u64, low: f64, high: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(low..high)).collect()
}

/// A uniformly-random row-major matrix in `[low, high)` with a deterministic seed.
pub fn random_matrix(rows: usize, cols: usize, seed: u64, low: f64, high: f64) -> Matrix {
    Matrix::random(rows, cols, seed, low, high)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_accessors() {
        let mut m = Matrix::zeros(2, 3);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
        m.row_mut(0)[0] = 1.0;
        assert_eq!(m.as_slice()[0], 1.0);
    }

    #[test]
    fn matmul_small_case() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    /// The product the way it was computed before the row splitter and the
    /// four-term pass: one `a · row` term per pass, rows in order, each term
    /// one `mul_add`.
    fn matmul_one_term_per_pass(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for (k, &x) in a.row(i).iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                for (slot, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                    *slot = x.mul_add(y, *slot);
                }
            }
        }
        out
    }

    #[test]
    fn matmul_bits_do_not_depend_on_the_thread_count() {
        // Ragged row counts: 15 is 7k+1 and 2k+1, 4 is 3k+1 and fewer than 7
        // threads, and a single row cannot be split at all.
        for (rows, inner, cols) in [(15, 600, 512), (4, 1100, 1024), (1, 2100, 2048)] {
            assert!(rows * inner * cols >= crate::PARALLEL_MIN_WORK);
            let mut a = Matrix::random(rows, inner, 11, -1.0, 1.0);
            for k in (0..inner).step_by(5) {
                a.set(k % rows, k, 0.0);
            }
            let b = Matrix::random(inner, cols, 12, -1.0, 1.0);
            let bits =
                |m: Matrix| -> Vec<u64> { m.as_slice().iter().map(|v| v.to_bits()).collect() };
            let serial = bits(a.matmul_with_threads(1, &b));
            assert_eq!(serial, bits(matmul_one_term_per_pass(&a, &b)));
            for threads in [2, 3, 7] {
                assert_eq!(
                    serial,
                    bits(a.matmul_with_threads(threads, &b)),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_products_have_the_right_shape() {
        for (rows, inner, cols) in [(0, 3, 2), (3, 0, 2), (3, 2, 0)] {
            let c = Matrix::zeros(rows, inner).matmul(&Matrix::zeros(inner, cols));
            assert_eq!((c.rows(), c.cols()), (rows, cols));
            assert!(c.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn transpose_round_trips() {
        let a = Matrix::random(3, 5, 7, -1.0, 1.0);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn random_generation_is_deterministic() {
        assert_eq!(random_vec(16, 42, -1.0, 1.0), random_vec(16, 42, -1.0, 1.0));
        assert_eq!(
            random_matrix(4, 4, 42, -1.0, 1.0),
            random_matrix(4, 4, 42, -1.0, 1.0)
        );
        assert_ne!(random_vec(16, 42, -1.0, 1.0), random_vec(16, 43, -1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_matmul_transpose_identity(rows in 1usize..6, inner in 1usize..6, cols in 1usize..6, seed in 0u64..100) {
            // (A * B)^T == B^T * A^T
            let a = Matrix::random(rows, inner, seed, -2.0, 2.0);
            let b = Matrix::random(inner, cols, seed + 1, -2.0, 2.0);
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
        }

        #[test]
        fn prop_values_within_range(len in 1usize..64, seed in 0u64..100) {
            let v = random_vec(len, seed, -3.0, 3.0);
            prop_assert!(v.iter().all(|x| (-3.0..3.0).contains(x)));
        }
    }
}
