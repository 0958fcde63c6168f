//! Row-parallel execution: the one place this workspace splits a computation
//! over its independent rows, and the row-slice kernel the split bodies share.
//!
//! Every cascaded reduction here is a *grid*: output rows (row blocks on the
//! accelerator) never read each other's results. [`for_row_ranges`] runs such
//! a grid on the host's cores with scoped threads — no pool, no state beyond
//! the cached core count — and [`add_scaled_rows`] is the inner loop of every
//! row-times-matrix product in the tile VM and in [`Matrix::matmul`].
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::OnceLock;

/// Element operations (`rows × work_per_row`, in multiply-add equivalents)
/// below which [`for_row_ranges`] runs its rows inline.
///
/// Measured on the 2-vCPU benchmark host, serial → split in two, medians of
/// 12–60 runs. A scoped spawn + join of an empty body costs 18 µs. The host
/// balances load across its two cores only while a job asks for more than
/// one (it switches about 1.5 s after the demand starts); until then a new
/// thread shares its parent's core and a split only costs: 2²¹ matmul-like
/// multiply-adds 367 → 380 µs, 2²² 688 → 710 µs, a streamed sum of squares
/// over 2²⁰ elements 329 → 372 µs. With balancing on, the new thread starts
/// on the idle core: 2²⁰ multiply-adds 168 → 166 µs, 2²¹ 347 → 281 µs,
/// 2²² 690 → 477 µs, 2²³ 1417 → 896 µs; the streamed sum 2²⁰ 399 → 323 µs,
/// 2²² 1538 → 996 µs. At 2²² the gain on two cores (−31 %) is ten times the
/// cost on one (+3 %); under it a call (the memory-bound `variance 256×4096`,
/// 2²⁰ elements in 340 µs, is one) stays inline and costs what it did.
///
/// The same threshold decides when decode attention splits one row's
/// *segments* (`rf_tile::exec`, the rows being too few to fill the cores):
/// MLA 1×4096×(576→512), 4.52 M, reads 1.94–2.06 → 1.23–1.35 ms p50 split
/// in two (2.3–2.4 → 1.4–1.6 ms while the host was busy), where MHA 1×8192,
/// 1.18 M, forced to split reads 750–840 → 620–720 µs: a fifth off, below
/// the third the threshold was set by, so it stays inline.
pub const PARALLEL_MIN_WORK: usize = 1 << 22;

/// The host's core count, read once: `std::thread::available_parallelism()`
/// honours the affinity mask and cgroup quota but costs a system call.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// At most `parts` contiguous ranges that tile `0..rows`, every start a
/// multiple of `align`; the `align`-row blocks are dealt out evenly, earlier
/// ranges taking the remainder.
fn row_ranges(rows: usize, align: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    let align = align.max(1);
    let blocks = rows.div_ceil(align);
    let parts = parts.clamp(1, blocks.max(1));
    let (base, extra) = (blocks / parts, blocks % parts);
    (0..parts).map(move |i| {
        let first_block = i * base + i.min(extra);
        let end_block = first_block + base + usize::from(i < extra);
        first_block * align..(end_block * align).min(rows)
    })
}

/// Runs `body(range, out_chunk)` over contiguous row ranges that tile
/// `0..rows`, on up to `threads` threads, and returns what each range's body
/// returned, in range order.
///
/// `out` holds `out_per_row` elements per row; each range receives exactly its
/// rows' chunk of it. Range starts are multiples of `align`, so a body that
/// walks its rows in blocks of `align` sees the same blocks under every split.
/// The first range runs on the calling thread, the others on
/// [`std::thread::scope`] threads that are joined before the call returns; a
/// panic in any range panics the call. When `rows × work_per_row`
/// (multiply-add equivalents) is under a threshold measured on the benchmark
/// host, or only one range comes out, `body(0..rows, out)` runs inline: the
/// serial path is the one-range case of the same body.
///
/// Callers pass [`available_cores`] for `threads`; tests pass other counts to
/// show a body's output does not depend on the split.
///
/// # Panics
///
/// Panics if `out.len() != rows * out_per_row`, or if `body` panics.
pub fn for_row_ranges<T: Send, R: Send>(
    threads: usize,
    rows: usize,
    align: usize,
    work_per_row: usize,
    out: &mut [T],
    out_per_row: usize,
    body: impl Fn(Range<usize>, &mut [T]) -> R + Sync,
) -> Vec<R> {
    assert_eq!(out.len(), rows * out_per_row, "out must hold every row");
    let parts = if rows.saturating_mul(work_per_row) < PARALLEL_MIN_WORK {
        1
    } else {
        threads
    };
    let mut ranges = row_ranges(rows, align, parts);
    let first = ranges.next().expect("row_ranges yields at least one range");
    if first.end == rows {
        return vec![body(first, out)];
    }
    let body = &body;
    std::thread::scope(|scope| {
        let (first_chunk, mut rest) = out.split_at_mut(first.len() * out_per_row);
        let mut spawned = Vec::new();
        for range in ranges {
            let (chunk, tail) = rest.split_at_mut(range.len() * out_per_row);
            rest = tail;
            spawned.push(scope.spawn(move || body(range, chunk)));
        }
        let mut results = vec![body(first, first_chunk)];
        for range in spawned {
            results.push(range.join().unwrap_or_else(|panic| resume_unwind(panic)));
        }
        results
    })
}

/// `acc[j] += Σᵢ cᵢ · rowᵢ[j]` over the `(cᵢ, rowᵢ)` terms, every `acc[j]`
/// adding its terms in the order they arrive. Four terms share one pass over
/// `acc`, so it is loaded and stored once per four rows; the inner loop runs
/// over contiguous slices and vectorises across `j`.
///
/// # Panics
///
/// Panics if a row is shorter than `acc`.
pub fn add_scaled_rows<'a>(acc: &mut [f64], terms: impl Iterator<Item = (f64, &'a [f64])>) {
    let n = acc.len();
    let mut terms = terms.map(|(c, row)| (c, &row[..n])).fuse();
    loop {
        match [terms.next(), terms.next(), terms.next(), terms.next()] {
            [Some((c0, r0)), Some((c1, r1)), Some((c2, r2)), Some((c3, r3))] => {
                for ((((slot, &v0), &v1), &v2), &v3) in
                    acc.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3)
                {
                    *slot = (((*slot + c0 * v0) + c1 * v1) + c2 * v2) + c3 * v3;
                }
            }
            rest => {
                for (c, row) in rest.into_iter().flatten() {
                    for (slot, &a) in acc.iter_mut().zip(row) {
                        *slot += c * a;
                    }
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Mutex;

    /// Work per row that puts any non-empty call over the threshold.
    const HEAVY: usize = usize::MAX;

    #[test]
    fn small_calls_and_single_threads_run_inline_as_one_range() {
        let caller = std::thread::current().id();
        for (threads, work_per_row) in [(8, 1), (1, HEAVY)] {
            let mut out = vec![0usize; 100];
            for_row_ranges(
                threads,
                100,
                1,
                work_per_row,
                &mut out,
                1,
                |range, chunk| {
                    assert_eq!(range, 0..100);
                    assert_eq!(chunk.len(), 100);
                    assert_eq!(std::thread::current().id(), caller);
                },
            );
        }
        // The threshold is on the product: 2¹¹ rows × 2¹¹ ops reach it.
        let mut out = vec![0usize; 1 << 11];
        let calls = Mutex::new(0);
        for_row_ranges(2, 1 << 11, 1, 1 << 11, &mut out, 1, |_, _| {
            *calls.lock().unwrap() += 1;
        });
        assert_eq!(calls.into_inner().unwrap(), 2);
    }

    #[test]
    fn the_first_range_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut out = vec![0usize; 9];
        for_row_ranges(3, 9, 1, HEAVY, &mut out, 1, |range, _| {
            assert_eq!(range.start == 0, std::thread::current().id() == caller);
        });
    }

    #[test]
    fn a_panic_in_a_later_range_panics_the_call() {
        let result = std::panic::catch_unwind(|| {
            let mut out = vec![0usize; 12];
            for_row_ranges(3, 12, 1, HEAVY, &mut out, 1, |range, chunk| {
                assert!(range.start == 0, "injected failure in a spawned range");
                chunk.fill(1);
            });
            out
        });
        assert!(result.is_err(), "no output may be returned");
    }

    #[test]
    #[should_panic(expected = "out must hold every row")]
    fn a_short_output_buffer_is_rejected() {
        for_row_ranges(2, 4, 1, 1, &mut [0.0f64; 7], 2, |_, _| {});
    }

    #[test]
    fn add_scaled_rows_adds_terms_in_arrival_order() {
        // 4 + 4 + 3 terms: two full passes and the remainder.
        let rows: Vec<Vec<f64>> = (0..11)
            .map(|i| (0..5).map(|j| 0.1 + (i * 5 + j) as f64 / 7.0).collect())
            .collect();
        let coefficients: Vec<f64> = (0..11).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut acc = vec![0.25f64; 5];
        let mut expected = acc.clone();
        for (c, row) in coefficients.iter().zip(&rows) {
            for (slot, v) in expected.iter_mut().zip(row) {
                *slot += c * v;
            }
        }
        let terms = coefficients
            .iter()
            .copied()
            .zip(rows.iter().map(Vec::as_slice));
        add_scaled_rows(&mut acc, terms);
        assert_eq!(acc, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_ranges_tile_the_rows_once_on_aligned_starts(
            rows in 0usize..200,
            align in 1usize..9,
            threads in 1usize..9,
            out_per_row in 0usize..4,
        ) {
            let mut out = vec![usize::MAX; rows * out_per_row];
            let seen = Mutex::new(Vec::new());
            for_row_ranges(threads, rows, align, HEAVY, &mut out, out_per_row, |range, chunk| {
                // A chunk that lines up holds exactly its rows' elements, so
                // numbering it from its first element numbers `out` from 0.
                assert_eq!(chunk.len(), range.len() * out_per_row);
                for (offset, slot) in chunk.iter_mut().enumerate() {
                    *slot = range.start * out_per_row + offset;
                }
                seen.lock().unwrap().push(range);
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|range| range.start);
            prop_assert!(seen.len() <= threads);
            prop_assert!(seen.iter().all(|range| range.start % align == 0));
            prop_assert!(rows == 0 || seen.iter().all(|range| !range.is_empty()));
            let mut next = 0;
            for range in &seen {
                prop_assert_eq!(range.start, next);
                next = range.end;
            }
            prop_assert_eq!(next, rows);
            prop_assert!(out.iter().copied().eq(0..rows * out_per_row));
        }
    }
}
