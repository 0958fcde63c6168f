//! Row-parallel execution: the one place this workspace splits a computation
//! over its independent rows, and the row-slice kernels the split bodies
//! share.
//!
//! Every cascaded reduction here is a *grid*: output rows (row blocks on the
//! accelerator) never read each other's results. [`for_row_ranges`] runs such
//! a grid on the host's cores with scoped threads — no pool, no state beyond
//! the cached core count. [`add_scaled_block`] is every row-times-matrix
//! product the tile VM runs — attention's P·V, routing's scores, quant +
//! GEMM's accumulate — and [`Matrix::matmul`]: a block of rows against one W
//! tile, four rows' accumulators held in registers while the tile's rows
//! stream past, in one of two [`Terms`] forms (skip a zero coefficient's
//! term, or add it). [`score_group`] is attention's Q·Kᵀ tile for a group of
//! up to [`QUERY_LANES`] query rows, one vector of rows per key, and
//! [`dot_rows`] the same for a lone row; [`tile_max`] is a tile's maximum and
//! [`sum_and_squares`] the plain row sum of variance's two statistics, both in
//! eight lanes. Every multiply-add among them is one `mul_add`, rounded once,
//! and all run at the widest vector tier the CPU offers, chosen at run time
//! as [`exp`](mod@crate::exp)'s slice loops are, with the baseline's bits.
//!
//! [`Matrix::matmul`]: crate::Matrix::matmul

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::OnceLock;

use crate::tier::Tier;

/// Element operations (`rows × work_per_row`, in multiply-add equivalents)
/// below which [`for_row_ranges`] runs its rows inline.
///
/// Measured on the 2-vCPU benchmark host, serial → split in two, medians of
/// 12–60 runs. A scoped spawn + join of an empty body costs 15–16 µs while
/// the host keeps the job on one core and 21–25 µs once it balances it over
/// two (medians of 2000, re-measured with the decode split below). The host
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
/// Those multiply-adds ran at the x86-64 baseline. Since the row GEMM loop
/// runs at the widest vector tier (AVX-512F there: 0.4–0.5× the time per
/// multiply-add of the baseline), a call of the same work is shorter and
/// the split's fixed cost weighs more. Re-measured with a 256-wide
/// row-times-matrix body, medians of 5 × 41 alternating runs: balanced,
/// 2²⁰ 167 → 144 µs, 2²¹ 335 → 254 µs, 2²² 750 → 391 µs, 2²³ 1414 → 838 µs;
/// on one core, 2²¹ 389–405 → 447–456 µs, 2²² 650–776 → 684–834 µs. At 2²²
/// the gain (−48 %) is still six times the cost (+5–8 %); at 2²¹ (−24 %
/// against +10–17 %) it is not, so the threshold stays.
///
/// The same threshold decides when decode attention splits a query group's
/// *segments* (`rf_tile::exec`, the rows being too few to fill the cores),
/// the group's Q·Kᵀ charged at a whole vector of eight query rows, which is
/// what a group of one to eight rows costs. MLA 1×4096×(576→512) (21.0 M
/// so charged) read 1.94–2.06 → 1.23–1.35 ms p50 split in two. MHA 1×8192
/// (4.85 M; 1.18 M when a lone row was charged as one) splits too. In
/// process, p50 per half second, it read 400–550 µs inline and 300–380 µs
/// split once the host gave the second thread its own core, but 530–620 µs
/// split during the seconds before. A split of the same work over one vCPU
/// (`taskset -c 0`, explicit thread counts) costs 40–60 µs in most rounds,
/// 30–35 µs at an eighth of the keys and 60–100 µs at four times them: two
/// to four spawns' worth. In `perf`'s `exec_decode` the two-core state came
/// in 7 of 10 runs of 20 s in one batch (`ops_per_s` 2183 → 3230, medians,
/// 8 of 10 pairs) and in none of another (2007 → 2060, 7 of 10). Softmax
/// 4×8192 (0.52 M) stays inline: split at 2¹⁸ it read 89 → 101 µs.
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

/// Which terms [`add_scaled_block`] adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terms {
    /// Only those whose coefficient is not zero (of either sign), so an
    /// infinity or a NaN of W under a zero coefficient does not show: quant +
    /// GEMM's quantised activations and [`Matrix::matmul`].
    ///
    /// [`Matrix::matmul`]: crate::Matrix::matmul
    NonZero,
    /// Every term, so a zero coefficient times an infinity or a NaN adds NaN,
    /// as the unfused forms do: attention's P·V and routing's scores.
    All,
}

/// Rows of accumulators [`add_scaled_block`] holds in registers at once: a
/// constant of the source, like [`QUERY_LANES`], not of the CPU.
const BLOCK_ROWS: usize = 4;

/// `accs[r][j] += Σ_kk coeffs[r][kk] · w[kk][j]` for a block of rows, each
/// accumulator adding its terms one at a time in key order to the value it
/// held, every term one fused multiply-add (`mul_add`: one rounding, where a
/// product and a sum round twice). `accs` holds the rows' `n`-wide
/// accumulators back to back and `coeffs` one coefficient per row and key,
/// row-major; key `kk`'s row of W
/// is `w[kk · w_stride..][..n]`, so a tile of columns of a wider matrix is
/// read where it lies (`w` ends with the last key's row). `terms` says
/// whether a term under a zero coefficient is skipped or added.
///
/// Four rows share each pass over the keys: a panel of their accumulators
/// (4 × 32 columns at AVX-512F, sixteen of its registers; 4 × 16 under AVX2)
/// stays in vector registers while every key's row of W is added into all
/// four, so a W tile is read once per four rows and an accumulator once per
/// tile instead of once per four keys. The panels move no bits: the widest
/// vector tier this CPU offers (picked at run time, like
/// [`exp`](mod@crate::exp)'s) returns the bits of every other tier. Rows past
/// the last block of four and columns past the last panel run row by row,
/// four terms per pass over the accumulator, as every row does at the
/// baseline, where no panel measured faster.
///
/// # Panics
///
/// Panics if `n` is not zero and `accs` is not a whole number of `n`-wide
/// rows, `w_stride` is under `n`, `w` does not end with a key's row, or
/// `coeffs` does not hold one coefficient per row and key.
pub fn add_scaled_block(
    accs: &mut [f64],
    n: usize,
    coeffs: &[f64],
    w: &[f64],
    w_stride: usize,
    terms: Terms,
) {
    add_scaled_block_on(Tier::widest(), accs, n, coeffs, w, w_stride, terms);
}

/// [`add_scaled_block`] compiled for `tier` (the baseline if this CPU lacks
/// it). Callers outside tests pass [`Tier::widest`].
pub(crate) fn add_scaled_block_on(
    tier: Tier,
    accs: &mut [f64],
    n: usize,
    coeffs: &[f64],
    w: &[f64],
    w_stride: usize,
    terms: Terms,
) {
    if n == 0 {
        return;
    }
    let rows = accs.len() / n;
    let keys = if w.is_empty() {
        0
    } else {
        w.len().saturating_sub(n) / w_stride.max(1) + 1
    };
    assert!(
        w_stride >= n
            && accs.len() == rows * n
            && (keys == 0 || (keys - 1) * w_stride + n == w.len())
            && coeffs.len() == rows * keys,
        "one coefficient per row and key, and whole rows of n"
    );
    if keys == 0 {
        return;
    }
    let block = Block {
        n,
        keys,
        coeffs,
        w,
        w_stride,
    };
    match terms {
        Terms::NonZero => block_on::<false>(tier, accs, &block),
        Terms::All => block_on::<true>(tier, accs, &block),
    }
}

/// The operands of one [`add_scaled_block`] call, for positive `n` and
/// `keys`.
struct Block<'a> {
    n: usize,
    keys: usize,
    coeffs: &'a [f64],
    w: &'a [f64],
    w_stride: usize,
}

impl<'a> Block<'a> {
    /// The `(coefficient, W row from column col)` terms of one row's
    /// coefficients that `ALL` adds, in key order.
    #[inline(always)]
    fn terms<const ALL: bool>(
        &self,
        coeffs: &'a [f64],
        col: usize,
    ) -> impl Iterator<Item = (f64, &'a [f64])> + 'a {
        let w_rows = self.w.chunks(self.w_stride).map(move |w| &w[col..]);
        let terms = coeffs.iter().copied().zip(w_rows);
        terms.filter(|&(c, _)| ALL || c != 0.0)
    }
}

/// [`add_scaled_block`] for one form of its terms, at `tier`.
#[inline(always)]
fn block_on<const ALL: bool>(tier: Tier, accs: &mut [f64], block: &Block) {
    // Measured at quant's benchmark tile (the ignored `timing_scaled_block`
    // test, the width of `n` unknown to the compiler as in the VM): under
    // AVX2 4 × 16 beat 4 × 8 and the row-by-row loop; at the baseline every
    // panel from 4 to 32 columns lost to it.
    match tier {
        Tier::Avx512 => tier.run(
            #[inline(always)]
            || scaled_block_body::<32, ALL>(accs, block),
        ),
        Tier::Avx2 => tier.run(
            #[inline(always)]
            || scaled_block_body::<16, ALL>(accs, block),
        ),
        Tier::Baseline => scaled_each_row::<ALL>(accs, block.coeffs, block),
    }
}

/// [`add_scaled_block`] in blocks of four rows by panels of `COLS` columns.
#[inline(always)]
fn scaled_block_body<const COLS: usize, const ALL: bool>(accs: &mut [f64], block: &Block) {
    let (n, keys) = (block.n, block.keys);
    let panels = n - n % COLS;
    let mut acc_blocks = accs.chunks_exact_mut(BLOCK_ROWS * n);
    let mut coeff_blocks = block.coeffs.chunks_exact(BLOCK_ROWS * keys);
    for (acc, c) in (&mut acc_blocks).zip(&mut coeff_blocks) {
        // Four named rows, each panel in its own fixed-size array: an array
        // of four rows indexed by row left the panel on the stack.
        let (a0, acc) = acc.split_at_mut(n);
        let (a1, acc) = acc.split_at_mut(n);
        let (a2, a3) = acc.split_at_mut(n);
        let (c0, c) = c.split_at(keys);
        let (c1, c) = c.split_at(keys);
        let (c2, c3) = c.split_at(keys);
        for col in (0..panels).step_by(COLS) {
            let mut s0 = panel::<COLS>(a0, col);
            let mut s1 = panel::<COLS>(a1, col);
            let mut s2 = panel::<COLS>(a2, col);
            let mut s3 = panel::<COLS>(a3, col);
            let terms = c0.iter().zip(c1).zip(c2).zip(c3);
            // Key `kk`'s row of W indexed from the start of `w`: iterating
            // the rows as chunks measured a fifth slower at quant's tile.
            for (kk, (((&k0, &k1), &k2), &k3)) in terms.enumerate() {
                let w = panel::<COLS>(block.w, kk * block.w_stride + col);
                add_term::<COLS, ALL>(&mut s0, k0, &w);
                add_term::<COLS, ALL>(&mut s1, k1, &w);
                add_term::<COLS, ALL>(&mut s2, k2, &w);
                add_term::<COLS, ALL>(&mut s3, k3, &w);
            }
            a0[col..col + COLS].copy_from_slice(&s0);
            a1[col..col + COLS].copy_from_slice(&s1);
            a2[col..col + COLS].copy_from_slice(&s2);
            a3[col..col + COLS].copy_from_slice(&s3);
        }
        // Columns past the last panel; with none, walking every key's terms
        // for them cost P·V's 16-key tile about a third of its panel work.
        if panels < n {
            for (acc, c) in [(a0, c0), (a1, c1), (a2, c2), (a3, c3)] {
                add_scaled_rows(&mut acc[panels..], block.terms::<ALL>(c, panels));
            }
        }
    }
    let rest = acc_blocks.into_remainder();
    scaled_each_row::<ALL>(rest, coeff_blocks.remainder(), block);
}

/// [`add_scaled_rows`] on each row of `accs`, whose coefficients `coeffs`
/// holds, over the row's terms that `ALL` adds.
#[inline(always)]
fn scaled_each_row<const ALL: bool>(accs: &mut [f64], coeffs: &[f64], block: &Block) {
    let rows = accs.chunks_exact_mut(block.n);
    for (acc, c) in rows.zip(coeffs.chunks_exact(block.keys)) {
        add_scaled_rows(acc, block.terms::<ALL>(c, 0));
    }
}

/// `acc[j] += Σᵢ cᵢ · rowᵢ[j]` over the `(cᵢ, rowᵢ)` terms, every `acc[j]`
/// adding its terms in the order they arrive, one `mul_add` each:
/// [`add_scaled_block`]'s loop for one row. Four terms share one pass over
/// `acc`, so it is loaded and stored once per four rows; the inner loop runs
/// over contiguous slices and vectorises across `j`.
#[inline(always)]
fn add_scaled_rows<'a>(acc: &mut [f64], terms: impl Iterator<Item = (f64, &'a [f64])>) {
    let n = acc.len();
    let mut terms = terms.map(|(c, row)| (c, &row[..n])).fuse();
    loop {
        match [terms.next(), terms.next(), terms.next(), terms.next()] {
            [Some((c0, r0)), Some((c1, r1)), Some((c2, r2)), Some((c3, r3))] => {
                for ((((slot, &v0), &v1), &v2), &v3) in
                    acc.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3)
                {
                    *slot = c3.mul_add(v3, c2.mul_add(v2, c1.mul_add(v1, c0.mul_add(v0, *slot))));
                }
            }
            rest => {
                for (c, row) in rest.into_iter().flatten() {
                    for (slot, &a) in acc.iter_mut().zip(row) {
                        *slot = c.mul_add(a, *slot);
                    }
                }
                return;
            }
        }
    }
}

/// `row[col..col + COLS]` as an array.
#[inline(always)]
fn panel<const COLS: usize>(row: &[f64], col: usize) -> [f64; COLS] {
    row[col..col + COLS]
        .try_into()
        .expect("a panel is COLS wide")
}

/// `acc += c · w`, one `mul_add` per column, unless `c` is zero and `ALL` is
/// not set.
#[inline(always)]
fn add_term<const COLS: usize, const ALL: bool>(acc: &mut [f64; COLS], c: f64, w: &[f64; COLS]) {
    if ALL || c != 0.0 {
        for j in 0..COLS {
            acc[j] = c.mul_add(w[j], acc[j]);
        }
    }
}

/// `out[i] = x · rows[i]`, every dot product adding its terms from `0.0` in
/// ascending column order, each term one `mul_add` (one rounding). Eight
/// rows share one pass over `x`: a single dot product is one chain of
/// dependent multiply-adds, and a fused multiply-add has twice an addition's
/// latency on the benchmark host — four chains, which kept the unfused form
/// busy, read about a tenth slower per multiply-add than the unfused four
/// (the ignored `timing_score_gemm` test). A pass reads its eight keys in
/// blocks of eight contiguous columns, which LLVM holds as one vector of the
/// eight chains and transposes in registers; a column at a time, it gathered
/// the eight keys' elements one by one at every column. Pinned to one core,
/// five runs each, that read 0.29–0.34 → 0.27–0.31 ns per multiply-add at
/// `qk_dim` 64 and 576 (unpinned 0.33–0.48 → 0.30–0.33). It runs at the
/// widest vector tier this CPU offers, with the bits of every other tier (at
/// the x86-64 baseline a `mul_add` is a libm call). [`score_group`] runs it
/// for a group of one query row, and returns its bits row by row for a group
/// of more.
///
/// # Panics
///
/// Panics if a row is shorter than `x`, or if `rows` runs out within a pass
/// of eight.
pub fn dot_rows<'a>(x: &[f64], rows: impl Iterator<Item = &'a [f64]>, out: &mut [f64]) {
    Tier::widest().run(
        #[inline(always)]
        || dot_rows_body(x, rows, out),
    );
}

#[inline(always)]
fn dot_rows_body<'a>(x: &[f64], mut rows: impl Iterator<Item = &'a [f64]>, out: &mut [f64]) {
    let n = x.len();
    let mut passes = out.chunks_exact_mut(DOT_CHAINS);
    for pass in &mut passes {
        let keys: [&[f64]; DOT_CHAINS] =
            std::array::from_fn(|_| rows.next().expect("one row per output"));
        // Sliced to `n` first, like `score_group`'s keys: the bounds checks go.
        let keys = keys.map(|key| &key[..n]);
        let mut dots = [0.0f64; DOT_CHAINS];
        // Each key's next eight columns as one contiguous block: a column of
        // eight keys is gathered from eight rows otherwise.
        for (b, xs) in x.chunks_exact(DOT_CHAINS).enumerate() {
            let block = keys.map(|key| &key[b * DOT_CHAINS..][..DOT_CHAINS]);
            for (i, &xt) in xs.iter().enumerate() {
                for (dot, columns) in dots.iter_mut().zip(&block) {
                    *dot = xt.mul_add(columns[i], *dot);
                }
            }
        }
        for (c, &xt) in x.iter().enumerate().skip(n - n % DOT_CHAINS) {
            for (dot, key) in dots.iter_mut().zip(&keys) {
                *dot = xt.mul_add(key[c], *dot);
            }
        }
        pass.copy_from_slice(&dots);
    }
    for (slot, row) in passes.into_remainder().iter_mut().zip(rows) {
        *slot = x.iter().zip(row).fold(0.0, |s, (x, a)| x.mul_add(*a, s));
    }
}

/// Rows [`dot_rows`] scores in one pass over `x`, one chain of dependent
/// multiply-adds each.
const DOT_CHAINS: usize = 8;

/// Query rows [`score_group`] scores at once: one AVX-512 vector of `f64`. A
/// constant of the source like the lanes of [`sum_and_squares`], not of the
/// CPU, so a group is the same rows at every vector width.
pub const QUERY_LANES: usize = 8;

/// The query groups of a range of rows: the rows of each block of
/// [`QUERY_LANES`] (rows `8i..8i + 8`) that fall in the range, in order. A
/// range that starts or ends inside a block holds part of it as a group.
pub fn query_groups(rows: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let blocks = rows.start / QUERY_LANES..rows.end.div_ceil(QUERY_LANES);
    blocks.map(move |b| (b * QUERY_LANES).max(rows.start)..((b + 1) * QUERY_LANES).min(rows.end))
}

/// Up to [`QUERY_LANES`] query rows stored column-major: column `c` holds
/// element `c` of every row, one lane per row, so one vector operation
/// multiplies a key's element into all of them. Lanes past the group's rows
/// hold zeros. Loaded once per group and reused for every key tile; the first
/// row is also kept as it is, for a group of one.
#[derive(Debug, Clone, Default)]
pub struct QueryGroup {
    columns: Vec<[f64; QUERY_LANES]>,
    first: Vec<f64>,
    rows: usize,
}

impl QueryGroup {
    /// Stores the first `dim` elements of each of `rows` column-major,
    /// replacing what the group held and reusing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `rows` yields more than [`QUERY_LANES`] rows, or a row
    /// shorter than `dim`.
    pub fn load<'a>(&mut self, dim: usize, rows: impl Iterator<Item = &'a [f64]>) {
        self.columns.clear();
        self.columns.resize(dim, [0.0; QUERY_LANES]);
        self.first.clear();
        self.rows = 0;
        for row in rows {
            if self.rows == 0 {
                self.first.extend_from_slice(&row[..dim]);
            }
            assert!(
                self.rows < QUERY_LANES,
                "a group holds at most QUERY_LANES rows"
            );
            for (column, &x) in self.columns.iter_mut().zip(&row[..dim]) {
                column[self.rows] = x;
            }
            self.rows += 1;
        }
    }
}

/// `out[r·n + j] = q_r · key_j` for each row `q_r` of `group` and each of the
/// `n` keys, `out` holding `n` scores per row: row `r`'s scores are the
/// `r`-th `n`-long piece of `out`. Every dot product adds its terms from `0.0` in
/// ascending column order, so each piece holds the bits [`dot_rows`] returns
/// for its row. Eight keys (four below AVX-512) share one pass over the
/// group's columns; each column step is one fused multiply-add per key on
/// a vector of [`QUERY_LANES`] rows, at the widest vector tier this CPU
/// offers (picked at run time, like [`add_scaled_block`]), with the bits of
/// every other tier.
///
/// A group of one row is scored by [`dot_rows`] instead. On the benchmark
/// host (AVX-512F + FMA) a multiply-add costs 0.27–0.31 ns in `dot_rows`'
/// eight chains and 0.38–0.52 ns in one lane of eight; a group of two rows
/// costs 0.19–0.26 ns and a group of eight 0.047–0.068 ns (the ignored
/// `timing_score_gemm` test prints them, at `qk_dim` 576 and 64). So a key
/// and a column of Q·Kᵀ cost about the same, one vector of rows, for a group
/// of two to eight rows, and a lone row half to three quarters of that: the
/// segment split charges every group the whole vector.
///
/// # Panics
///
/// Panics if `keys` yields fewer than `n` keys or a key shorter than the
/// group's rows.
pub fn score_group<'a>(group: &QueryGroup, keys: impl Iterator<Item = &'a [f64]>, out: &mut [f64]) {
    if group.rows == 1 {
        dot_rows(&group.first, keys, out);
    } else {
        score_group_on(Tier::widest(), group, keys, out);
    }
}

/// [`score_group`]'s lane kernel, for any number of rows, compiled for `tier`
/// (the baseline if this CPU lacks it). Callers outside tests pass
/// [`Tier::widest`].
pub(crate) fn score_group_on<'a>(
    tier: Tier,
    group: &QueryGroup,
    keys: impl Iterator<Item = &'a [f64]>,
    out: &mut [f64],
) {
    // Eight keys per pass keep eight vectors of rows in flight, a quarter of
    // AVX-512's 32 registers. A vector of eight rows takes two of AVX2's
    // sixteen: there eight keys measured 0.29–0.33 ns per multiply-add, four
    // 0.08–0.14 ns.
    if tier == Tier::Avx512 {
        tier.run(
            #[inline(always)]
            || score_group_body::<8>(group, keys, out),
        );
    } else {
        tier.run(
            #[inline(always)]
            || score_group_body::<4>(group, keys, out),
        );
    }
}

#[inline(always)]
fn score_group_body<'a, const KEYS: usize>(
    group: &QueryGroup,
    keys: impl Iterator<Item = &'a [f64]>,
    out: &mut [f64],
) {
    let (columns, rows) = (&group.columns[..], group.rows);
    let (dim, n) = (columns.len(), out.len() / rows.max(1));
    let mut keys = keys.map(|key| &key[..dim]);
    for j in (0..n).step_by(KEYS) {
        // A short last pass repeats its first key and drops those scores.
        let m = KEYS.min(n - j);
        let mut pass = [&[][..]; KEYS];
        for slot in &mut pass[..m] {
            *slot = keys.next().expect("one key per score");
        }
        let first = pass[0];
        pass[m..].fill(first);
        // Slicing every key to `dim` here and indexing by column lets LLVM
        // drop the bounds checks and keep `dots` in vector registers, one per
        // key; so does transposing them through fixed-size arrays below.
        let pass = pass.map(|key| &key[..dim]);
        let mut dots = [[0.0f64; QUERY_LANES]; KEYS];
        for c in 0..dim {
            for (dot, key) in dots.iter_mut().zip(&pass) {
                *dot = add_product(*dot, &columns[c], key[c]);
            }
        }
        let by_row: [[f64; KEYS]; QUERY_LANES] = std::array::from_fn(|r| dots.map(|dot| dot[r]));
        for (scores, row) in out.chunks_exact_mut(n).zip(&by_row) {
            scores[j..j + m].copy_from_slice(&row[..m]);
        }
    }
}

/// `dot + column · k`, lane by lane, each one `mul_add`.
#[inline(always)]
fn add_product(dot: [f64; QUERY_LANES], column: &[f64; QUERY_LANES], k: f64) -> [f64; QUERY_LANES] {
    std::array::from_fn(|lane| column[lane].mul_add(k, dot[lane]))
}

/// Independent chains of [`sum_and_squares`], [`tile_max`] and the sum
/// [`exp_shifted`](crate::exp_shifted) returns: a constant of the source, not
/// of the CPU, so the order in which the terms meet is the same at every
/// vector width.
pub(crate) const LANES: usize = 8;

/// `(Σx, Σx²)` of `xs`. Element `i` goes into lane `i mod 8` of each sum
/// (its square as one `mul_add`, rounded once) and the eight lanes meet in
/// one fixed tree, `((0+1)+(2+3))+((4+5)+(6+7))` —
/// the order [`exp_shifted`](crate::exp_shifted) sums a tile's exponentials
/// in. A plain sum is one chain of dependent additions; eight lanes are one
/// vector per sum at the widest vector tier this CPU offers (picked at run
/// time, like [`add_scaled_block`]), with the bits of every other tier.
pub fn sum_and_squares(xs: &[f64]) -> (f64, f64) {
    Tier::widest().run(
        #[inline(always)]
        || sum_and_squares_body(xs),
    )
}

#[inline(always)]
fn sum_and_squares_body(xs: &[f64]) -> (f64, f64) {
    let mut sums = [0.0f64; LANES];
    let mut squares = [0.0f64; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        add_to_lanes(&mut sums, &mut squares, chunk);
    }
    add_to_lanes(&mut sums, &mut squares, chunks.remainder());
    (lane_tree(sums), lane_tree(squares))
}

/// Adds `chunk[i]` to `sums[i]` and its square to `squares[i]` (one
/// `mul_add`).
#[inline(always)]
fn add_to_lanes(sums: &mut [f64; LANES], squares: &mut [f64; LANES], chunk: &[f64]) {
    for ((sum, square), &x) in sums.iter_mut().zip(squares).zip(chunk) {
        *sum += x;
        *square = x.mul_add(x, *square);
    }
}

/// The eight lanes of one sum in their fixed tree. Out of line on purpose:
/// inlined, LLVM pairs the lanes the way the tree does and runs the loop
/// above on two-lane vectors with shuffles, about 2.5× slower per element at
/// AVX-512F than one vector per sum. Its additions are scalar, so the tier it
/// is compiled for cannot show in its bits.
#[inline(never)]
pub(crate) fn lane_tree([a, b, c, d, e, f, g, h]: [f64; LANES]) -> f64 {
    ((a + b) + (c + d)) + ((e + f) + (g + h))
}

/// The largest element of `xs`, NaN entries ignored (`-inf` when nothing
/// else is there): a tile's maximum. Element `i` goes into lane `i mod 8`
/// and the eight lanes meet in one fixed tree, `((0∨1)∨(2∨3))∨((4∨5)∨(6∨7))`,
/// where `m ∨ x` is `x` if `x > m` and `m` otherwise — so which of two equal
/// zeros is returned is fixed too. One vector of lanes at the widest vector
/// tier this CPU offers (picked at run time, like [`add_scaled_block`]), with
/// the bits of every other tier.
pub fn tile_max(xs: &[f64]) -> f64 {
    Tier::widest().run(
        #[inline(always)]
        || tile_max_body(xs),
    )
}

#[inline(always)]
fn tile_max_body(xs: &[f64]) -> f64 {
    let mut lanes = [f64::NEG_INFINITY; LANES];
    let mut chunks = xs.chunks_exact(LANES);
    for chunk in &mut chunks {
        let chunk: &[f64; LANES] = chunk.try_into().expect("a chunk is LANES wide");
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = larger(*lane, x);
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(chunks.remainder()) {
        *lane = larger(*lane, x);
    }
    max_tree(lanes)
}

/// `x` if `x > m`, else `m`: one `max` instruction, a NaN `x` ignored.
#[inline(always)]
fn larger(m: f64, x: f64) -> f64 {
    if x > m {
        x
    } else {
        m
    }
}

/// The eight lanes of [`tile_max`] in their fixed tree, out of line like
/// [`lane_tree`].
#[inline(never)]
fn max_tree([a, b, c, d, e, f, g, h]: [f64; LANES]) -> f64 {
    larger(
        larger(larger(a, b), larger(c, d)),
        larger(larger(e, f), larger(g, h)),
    )
}

/// [`sum_and_squares`] compiled for `tier` (the baseline if this CPU lacks
/// it), for the tier tests.
#[cfg(test)]
pub(crate) fn sum_and_squares_on(tier: Tier, xs: &[f64]) -> (f64, f64) {
    tier.run(
        #[inline(always)]
        || sum_and_squares_body(xs),
    )
}

/// [`tile_max`] compiled for `tier` (the baseline if this CPU lacks it).
#[cfg(test)]
fn tile_max_on(tier: Tier, xs: &[f64]) -> f64 {
    tier.run(
        #[inline(always)]
        || tile_max_body(xs),
    )
}

/// [`dot_rows`] compiled for `tier` (the baseline if this CPU lacks it).
#[cfg(test)]
fn dot_rows_on<'a>(tier: Tier, x: &[f64], rows: impl Iterator<Item = &'a [f64]>, out: &mut [f64]) {
    tier.run(
        #[inline(always)]
        || dot_rows_body(x, rows, out),
    );
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

    /// [`add_scaled_rows`] compiled for `tier`, as [`add_scaled_block`] runs
    /// it for the rows and columns its panels leave.
    fn add_scaled_rows_on<'a>(
        tier: Tier,
        acc: &mut [f64],
        terms: impl Iterator<Item = (f64, &'a [f64])>,
    ) {
        tier.run(
            #[inline(always)]
            || add_scaled_rows(acc, terms),
        );
    }

    #[test]
    fn every_tier_returns_the_bits_of_the_baseline() {
        // Hostile values through accumulators, rows and coefficients.
        let values = hostile_values;
        let rows: Vec<Vec<f64>> = (0..11).map(|i| values(i + 1, 71)).collect();
        let mut coefficients = values(3, 11);
        coefficients[2] = -0.0;
        coefficients[5] = f64::from_bits(3);
        coefficients[7] = f64::NEG_INFINITY;
        coefficients[10] = f64::NAN;
        let base = values(0, 71);
        let tiers = Tier::available();
        println!("compared with the baseline: {tiers:?}");
        let terms = |offset: usize, n_terms: usize| {
            let rows = rows.iter().map(move |row| &row[offset..]);
            coefficients.iter().copied().zip(rows).take(n_terms)
        };
        // Every vector remainder (lengths 0..=67) at every misalignment of
        // accumulator and rows, and whole four-term passes plus every
        // remainder of terms. Comparing all of `base` also shows nothing
        // outside the accumulator was written.
        for offset in 0..=3 {
            for len in 0..=67 {
                for n_terms in 0..=11 {
                    let mut expected = base.clone();
                    let acc = &mut expected[offset..offset + len];
                    add_scaled_rows_on(Tier::Baseline, acc, terms(offset, n_terms));
                    for &tier in &tiers {
                        let mut got = base.clone();
                        let acc = &mut got[offset..offset + len];
                        add_scaled_rows_on(tier, acc, terms(offset, n_terms));
                        let case = format!("{tier:?} len {len} offset {offset} terms {n_terms}");
                        assert_eq!(bits(&got), bits(&expected), "{case}");
                    }
                }
            }
        }
        // The public entry point, on one row of every term, runs it at the
        // widest tier: W is the eleven rows back to back, 71 apart.
        let mut widest = base.clone();
        add_scaled_rows_on(tiers[0], &mut widest[..67], terms(0, 11));
        let w: Vec<f64> = rows.concat();
        let mut public = base.clone();
        let w = &w[..10 * 71 + 67];
        add_scaled_block(&mut public[..67], 67, &coefficients, w, 71, Terms::All);
        assert_eq!(bits(&public), bits(&widest));
    }

    /// [`add_scaled_block`]'s promise, one term at a time: every accumulator
    /// adds its row's terms in key order, each one `mul_add`, a term under a
    /// zero coefficient only when `terms` is [`Terms::All`].
    fn scaled_block_spec(
        accs: &mut [f64],
        n: usize,
        coeffs: &[f64],
        (w, w_stride): (&[f64], usize),
        terms: Terms,
    ) {
        let keys = coeffs.len() / (accs.len() / n).max(1);
        for (acc, c) in accs
            .chunks_exact_mut(n)
            .zip(coeffs.chunks_exact(keys.max(1)))
        {
            for (kk, &c) in c.iter().enumerate() {
                if terms == Terms::All || c != 0.0 {
                    for (slot, &x) in acc.iter_mut().zip(&w[kk * w_stride..]) {
                        *slot = c.mul_add(x, *slot);
                    }
                }
            }
        }
    }

    /// Coefficients with zeros of both signs on a seeded pattern, about one in
    /// three.
    fn sparse_coefficients(len: usize, seed: u64) -> Vec<f64> {
        let mut coeffs = crate::random_vec(len, seed, -2.0, 2.0);
        for (i, c) in coeffs.iter_mut().enumerate() {
            match (i as u64 * 7 + seed) % 6 {
                0 => *c = 0.0,
                3 => *c = -0.0,
                _ => {}
            }
        }
        coeffs
    }

    #[test]
    fn add_scaled_block_skips_zero_terms_and_keeps_nan_terms() {
        // Two whole blocks of four rows and one row, two 32-column panels and
        // six columns, read from rows of W 75 apart. Key 1's row of W is all
        // infinities and NaNs.
        let (rows, n, keys, stride) = (9, 70, 3, 75);
        let mut w = crate::random_vec((keys - 1) * stride + n, 1, -1.0, 1.0);
        for (j, x) in w[stride..stride + n].iter_mut().enumerate() {
            *x = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][j % 3];
        }
        let w = (&w[..], stride);
        let accs = crate::random_vec(rows * n, 2, -1.0, 1.0);
        let run = |coeffs: &[f64], terms: Terms| {
            let mut got = accs.clone();
            add_scaled_block(&mut got, n, coeffs, w.0, w.1, terms);
            let mut expected = accs.clone();
            scaled_block_spec(&mut expected, n, coeffs, w, terms);
            assert_eq!(bits(&got), bits(&expected), "{terms:?}");
            got
        };
        // Under a zero coefficient (either sign) key 1 does not show when
        // zero terms are skipped, and makes every column NaN when every term
        // is added.
        let mut coeffs = sparse_coefficients(rows * keys, 3);
        for (r, c) in coeffs.chunks_exact_mut(keys).enumerate() {
            c[1] = if r % 2 == 0 { 0.0 } else { -0.0 };
        }
        assert!(run(&coeffs, Terms::NonZero).iter().all(|v| v.is_finite()));
        assert!(run(&coeffs, Terms::All).iter().all(|v| v.is_nan()));
        // Under a non-zero one, row 6's every column is NaN or infinite, and
        // no other row's is.
        coeffs[6 * keys + 1] = 0.5;
        let got = run(&coeffs, Terms::NonZero);
        for (r, row) in got.chunks_exact(n).enumerate() {
            assert_eq!(row.iter().all(|v| !v.is_finite()), r == 6, "row {r}");
            assert_eq!(row.iter().any(|v| !v.is_finite()), r == 6, "row {r}");
        }
    }

    #[test]
    fn every_tier_adds_a_block_with_the_bits_of_the_baseline() {
        let tiers = Tier::available();
        println!("compared with the baseline: {tiers:?}");
        // Hostile values in accumulators, coefficients and W; every row count
        // around the blocks of four, every column count around each tier's
        // panel, rows of W back to back and 3 apart, both forms of terms,
        // accumulators misaligned by one element.
        for rows in 0..=9 {
            for n in 0..=67 {
                for keys in [0, 1, 2, 5, 9] {
                    for gap in [0, 3] {
                        let stride = n + gap;
                        let w = hostile_values(rows + n, (keys * stride).saturating_sub(gap));
                        let mut coeffs = hostile_values(keys + 1, rows * keys);
                        for (i, c) in coeffs.iter_mut().enumerate().filter(|(i, _)| i % 4 == 1) {
                            *c = if i % 8 == 1 { 0.0 } else { -0.0 };
                        }
                        let base = hostile_values(n + 3, rows * n + 1);
                        for terms in [Terms::NonZero, Terms::All] {
                            let run = |tier: Tier| {
                                let mut accs = base.clone();
                                let acc = &mut accs[1..];
                                add_scaled_block_on(tier, acc, n, &coeffs, &w, stride, terms);
                                bits(&accs)
                            };
                            // The baseline runs the rows one at a time.
                            let expected = run(Tier::Baseline);
                            for &tier in &tiers {
                                let case = format!("rows {rows} n {n} keys {keys} stride {stride}");
                                assert_eq!(run(tier), expected, "{tier:?} {terms:?} {case}");
                            }
                        }
                    }
                }
            }
        }
        // The public entry point is the widest tier.
        let (n, keys, stride) = (67, 9, 70);
        let w = hostile_values(4, (keys - 1) * stride + n);
        let coeffs = sparse_coefficients(9 * keys, 5);
        let mut widest = hostile_values(6, 9 * n);
        let mut public = widest.clone();
        add_scaled_block_on(tiers[0], &mut widest, n, &coeffs, &w, stride, Terms::All);
        add_scaled_block(&mut public, n, &coeffs, &w, stride, Terms::All);
        assert_eq!(bits(&public), bits(&widest));
    }

    /// `(a, c, a · a + c)` with `a = 1 + 2⁻²⁷` and `c = −(1 + 2⁻²⁶)`: rounded
    /// once, `a · a + c` is `2⁻⁵⁴`; with the product rounded first it is 0.
    fn fma_witness() -> (f64, f64, f64) {
        let (a, c) = (1.0 + 2f64.powi(-27), -(1.0 + 2f64.powi(-26)));
        assert_eq!(a * a + c, 0.0, "two roundings");
        (a, c, 2f64.powi(-54))
    }

    #[test]
    fn every_tier_fuses_each_term_of_a_block() {
        let (a, c, fused) = fma_witness();
        // Two blocks of four rows and a fifth row; 35 columns, a 32-column
        // panel (two 16-column ones under AVX2) and three past them; the one
        // term under a non-zero coefficient at each of five keys in turn,
        // every place in the row-by-row loop's pass of four and its
        // remainder. A zero term (`Terms::All`) adds an exact ±0.
        let (rows, n, keys) = (9, 35, 5);
        let w = vec![a; keys * n];
        for tier in Tier::available() {
            for terms in [Terms::NonZero, Terms::All] {
                for kk in 0..keys {
                    let coeffs: Vec<f64> = (0..rows * keys)
                        .map(|i| if i % keys == kk { a } else { 0.0 })
                        .collect();
                    let mut accs = vec![c; rows * n];
                    add_scaled_block_on(tier, &mut accs, n, &coeffs, &w, n, terms);
                    let case = format!("{tier:?} {terms:?} key {kk}");
                    assert!(accs.iter().all(|&x| x == fused), "{case}");
                }
            }
        }
    }

    #[test]
    fn every_tier_fuses_each_term_of_a_score() {
        let (a, c, fused) = fma_witness();
        // Scores `[c, a] · [1, a]` of nine keys (whole passes of eight or of
        // four keys and a remainder): the first term is exactly `c`, so the
        // second is the witness.
        let keys = [[1.0, a]; 9];
        let keys = || keys.iter().map(|k| &k[..]);
        let mut group = QueryGroup::default();
        for tier in Tier::available() {
            for rows in [1, QUERY_LANES] {
                group.load(2, std::iter::repeat_n(&[c, a][..], rows));
                let mut scores = vec![0.0; rows * 9];
                score_group_on(tier, &group, keys(), &mut scores);
                assert!(scores.iter().all(|&x| x == fused), "{tier:?} {rows} rows");
            }
            let mut scores = [0.0; 9];
            dot_rows_on(tier, &[c, a], keys(), &mut scores);
            assert!(scores.iter().all(|&x| x == fused), "{tier:?} dot_rows");
        }
        group.load(2, std::iter::once(&[c, a][..]));
        let mut scores = [0.0; 9];
        score_group(&group, keys(), &mut scores);
        assert!(scores.iter().all(|&x| x == fused), "a public group of one");
    }

    #[test]
    fn every_tier_fuses_each_square() {
        // Each lane adds 1, then 2⁻⁵² (the square of 2⁻²⁶, exactly), then
        // a² = 1 + 2⁻²⁶ + 2⁻⁵⁴. Rounded first, a² is 1 + 2⁻²⁶ and the sum
        // 2 + 2⁻²⁶ + 2⁻⁵² a tie that rounds down to even; fused it rounds up.
        let (a, _, _) = fma_witness();
        let xs: Vec<f64> = [1.0, 2f64.powi(-26), a]
            .iter()
            .flat_map(|&x| [x; LANES])
            .collect();
        let lane = 2.0 + 2f64.powi(-26) + 2f64.powi(-51);
        for tier in Tier::available() {
            let (_, sum_sq) = sum_and_squares_on(tier, &xs);
            assert_eq!(sum_sq, 8.0 * lane, "{tier:?}");
        }
    }

    #[test]
    #[should_panic(expected = "one coefficient per row and key")]
    fn add_scaled_block_rejects_a_short_coefficient_tile() {
        add_scaled_block(&mut [0.0; 8], 4, &[1.0; 5], &[1.0; 12], 4, Terms::NonZero);
    }

    #[test]
    #[should_panic(expected = "one coefficient per row and key")]
    fn add_scaled_block_rejects_w_that_ends_inside_a_row() {
        add_scaled_block(&mut [0.0; 8], 4, &[1.0; 6], &[1.0; 14], 6, Terms::All);
    }

    /// ns per multiply-add of the block GEMMs at their benchmark tiles, the
    /// rows one at a time through `add_scaled_rows` and the block through
    /// `add_scaled_block`, at every tier: quant + GEMM's (128 rows × 128
    /// keys × 256 columns, `quant 256×1024→256`, FP8-rounded coefficients,
    /// zero terms skipped), attention's P·V (a group of 8 query rows × a tile
    /// of 16 keys × 64 columns, `mha 256×1024`) and routing's scores (8
    /// tokens × 256 hidden coordinates × a tile of 64 experts, `moe 512×64`),
    /// both adding every term.
    #[test]
    #[ignore = "prints timings"]
    fn timing_scaled_block() {
        use std::hint::black_box;
        use std::time::Instant;
        let shapes = [
            ("quant", 128, 128, 256, Terms::NonZero),
            ("P·V", 8, 16, 64, Terms::All),
            ("routing", 8, 256, 64, Terms::All),
        ];
        for (name, rows, keys, n, terms) in shapes {
            let w = crate::random_vec(keys * n, 1, -1.0, 1.0);
            let coeffs: Vec<f64> = crate::random_vec(rows * keys, 2, -2.0, 2.0)
                .into_iter()
                .map(|x| match terms {
                    Terms::NonZero => crate::fp8_round(x * crate::FP8_MAX / 2.0),
                    Terms::All => x,
                })
                .collect();
            let mut accs = vec![0.0; rows * n];
            let macs = rows * keys * n;
            // Median of 31 timings of enough calls for 2²² multiply-adds,
            // per multiply-add.
            let calls = (1 << 22) / macs + 1;
            let mut ns_per_mac = |call: &mut dyn FnMut(&mut [f64])| {
                let mut samples: Vec<f64> = (0..31)
                    .map(|_| {
                        let start = Instant::now();
                        for _ in 0..calls {
                            call(black_box(&mut accs));
                        }
                        start.elapsed().as_nanos() as f64 / (calls * macs) as f64
                    })
                    .collect();
                samples.sort_by(f64::total_cmp);
                samples[15]
            };
            // `n` through `black_box`, as in the VM: a width the compiler
            // knows gives it a different loop to schedule.
            for tier in Tier::available() {
                let by_rows = ns_per_mac(&mut |accs| {
                    let n = black_box(n);
                    let skip = terms == Terms::NonZero;
                    for (acc, c) in accs.chunks_exact_mut(n).zip(coeffs.chunks_exact(keys)) {
                        let row_terms = c.iter().copied().zip(w.chunks_exact(n));
                        let row_terms = row_terms.filter(|&(c, _)| !skip || c != 0.0);
                        add_scaled_rows_on(tier, acc, row_terms);
                    }
                });
                let block = ns_per_mac(&mut |accs| {
                    let n = black_box(n);
                    add_scaled_block_on(tier, accs, n, &coeffs, &w, n, terms);
                });
                println!(
                    "{name} {rows}×{keys}×{n}, {tier:?}: add_scaled_rows per row {by_rows:6.3}, \
                     add_scaled_block {block:6.3} ns per multiply-add"
                );
            }
        }
    }

    /// `count` rows of hostile values, each `dim + 1` long.
    fn hostile_rows(seed: usize, count: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|i| hostile_values(seed + 3 * i, dim + 1))
            .collect()
    }

    #[test]
    fn query_groups_are_the_blocks_of_eight_a_range_holds() {
        let groups = |rows: Range<usize>| -> Vec<(usize, usize)> {
            query_groups(rows).map(|g| (g.start, g.end)).collect()
        };
        assert_eq!(groups(0..19), [(0, 8), (8, 16), (16, 19)]);
        assert_eq!(groups(5..10), [(5, 8), (8, 10)]);
        assert_eq!(groups(8..16), [(8, 16)]);
        assert_eq!(groups(3..4), [(3, 4)]);
        assert!(groups(8..8).is_empty());
    }

    #[test]
    fn score_group_returns_the_bits_of_dot_rows_per_row() {
        // Every group size at every column count 0..=67 (the vector
        // remainders of the columns) and every tile length 0..=9 (whole
        // four-key passes and each remainder), hostile values in queries and
        // keys, keys misaligned by one element. Both the public entry, which
        // gives a group of one to `dot_rows`, and the lane kernel itself.
        let keys = hostile_rows(1, 9, 67);
        let queries = hostile_rows(40, QUERY_LANES, 67);
        let mut group = QueryGroup::default();
        for rows in 1..=QUERY_LANES {
            for dim in 0..=67 {
                let queries = queries[..rows].iter().map(|q| &q[1..=dim]);
                group.load(dim, queries.clone());
                for n in 0..=9 {
                    let keys = || keys[..n].iter().map(|k| &k[1..]);
                    let mut public = vec![f64::NAN; rows * n];
                    score_group(&group, keys(), &mut public);
                    let mut lanes = vec![f64::NAN; rows * n];
                    score_group_on(Tier::Baseline, &group, keys(), &mut lanes);
                    for (r, query) in queries.clone().enumerate() {
                        let mut expected = vec![0.0; n];
                        dot_rows(query, keys(), &mut expected);
                        let expected = expected.into_iter().map(canonical_bits);
                        for got in [&public, &lanes] {
                            let got = got[r * n..(r + 1) * n].iter().copied().map(canonical_bits);
                            let case = format!("rows {rows} dim {dim} keys {n} row {r}");
                            assert!(got.eq(expected.clone()), "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_tier_scores_a_group_with_the_bits_of_the_baseline() {
        let tiers = Tier::available();
        println!("compared with the baseline: {tiers:?}");
        let keys = hostile_rows(5, 9, 67);
        let queries = hostile_rows(17, QUERY_LANES, 67);
        let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().copied().map(canonical_bits).collect() };
        let mut group = QueryGroup::default();
        for rows in 1..=QUERY_LANES {
            for dim in 0..=67 {
                group.load(dim, queries[..rows].iter().map(|q| &q[..dim]));
                for n in 0..=9 {
                    let keys = || keys[..n].iter().map(|k| &k[1..]);
                    let mut expected = vec![0.0; rows * n];
                    score_group_on(Tier::Baseline, &group, keys(), &mut expected);
                    for &tier in &tiers {
                        let mut got = vec![0.0; rows * n];
                        score_group_on(tier, &group, keys(), &mut got);
                        let case = format!("{tier:?} rows {rows} dim {dim} keys {n}");
                        assert_eq!(bits(&got), bits(&expected), "{case}");
                    }
                }
            }
        }
        // The public entry point is the widest tier.
        let mut widest = vec![0.0; QUERY_LANES * 9];
        score_group_on(
            tiers[0],
            &group,
            keys.iter().map(Vec::as_slice),
            &mut widest,
        );
        let mut public = vec![0.0; QUERY_LANES * 9];
        score_group(&group, keys.iter().map(Vec::as_slice), &mut public);
        assert_eq!(bits(&public), bits(&widest));
    }

    #[test]
    fn every_tier_scores_a_lone_row_with_the_bits_of_the_baseline() {
        let tiers = Tier::available();
        println!("compared with the baseline: {tiers:?}");
        let keys = hostile_rows(7, 9, 67);
        let query = hostile_values(23, 67);
        // Every column count, every tile length (whole passes of four keys
        // and each remainder), keys misaligned by one element.
        for dim in 0..=67 {
            for n in 0..=9 {
                let keys = || keys[..n].iter().map(|k| &k[1..]);
                let mut expected = vec![0.0; n];
                dot_rows_on(Tier::Baseline, &query[..dim], keys(), &mut expected);
                for &tier in &tiers {
                    let mut got = vec![0.0; n];
                    dot_rows_on(tier, &query[..dim], keys(), &mut got);
                    let case = format!("{tier:?} dim {dim} keys {n}");
                    assert_eq!(bits(&got), bits(&expected), "{case}");
                }
            }
        }
        // The public entry point is the widest tier.
        let (mut widest, mut public) = ([0.0; 9], [0.0; 9]);
        dot_rows_on(
            tiers[0],
            &query,
            keys.iter().map(Vec::as_slice),
            &mut widest,
        );
        dot_rows(&query, keys.iter().map(Vec::as_slice), &mut public);
        assert_eq!(bits(&public), bits(&widest));
    }

    #[test]
    fn every_tier_scores_a_lone_row_as_the_plain_fold_chain() {
        // The block form reads eight columns of eight keys at a time; each
        // dot must still be one chain of `mul_add`s from 0.0 in column order.
        let tiers = Tier::available();
        let fold =
            |x: &[f64], key: &[f64]| x.iter().zip(key).fold(0.0, |s, (x, k)| x.mul_add(*k, s));
        let check = |query: &[f64], keys: &[Vec<f64>], case: &str| {
            let keys = || keys.iter().map(|key| &key[1..]);
            let expected: Vec<u64> = keys().map(|key| canonical_bits(fold(query, key))).collect();
            for &tier in &tiers {
                let mut got = vec![f64::NAN; expected.len()];
                dot_rows_on(tier, query, keys(), &mut got);
                assert_eq!(bits(&got), expected, "{tier:?} {case}");
            }
        };
        // Whole blocks of columns and every remainder of one, key counts
        // around whole passes of eight; hostile values, keys misaligned by one.
        for dim in (1..=17).chain(63..=65).chain([576]) {
            let query = hostile_values(29, dim);
            let keys = hostile_rows(31, 19, dim);
            for n in [1, 5, 8, 9, 15, 17, 19] {
                check(&query, &keys[..n], &format!("dim {dim} keys {n}"));
            }
        }
        // NaN, ±inf and -0.0 at every position of an 8 × 8 block (the second
        // block of 16 columns), in a key and in the query, among zeros and
        // ones whose sums are exact.
        let plain = |i: usize| [0.0, 1.0, -1.0][i % 3];
        let query: Vec<f64> = (0..16).map(plain).collect();
        let keys: Vec<Vec<f64>> = (0..9)
            .map(|k| (0..17).map(|c| plain(c + k)).collect())
            .collect();
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0] {
            for (key, col) in (0..8).flat_map(|key| (8..16).map(move |col| (key, col))) {
                let mut hit = keys.clone();
                hit[key][1 + col] = special;
                check(
                    &query,
                    &hit,
                    &format!("{special} in key {key} column {col}"),
                );
                let mut hit = query.clone();
                hit[col] = special;
                check(&hit, &keys, &format!("{special} in the query column {col}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most QUERY_LANES rows")]
    fn a_group_of_more_than_eight_rows_is_rejected() {
        let row = [1.0; 3];
        QueryGroup::default().load(3, std::iter::repeat_n(&row[..], QUERY_LANES + 1));
    }

    /// ns per multiply-add of the score GEMM: a tile of 64 keys against one
    /// query row (`dot_rows`) and against groups of 1, 2, 4 and 8 rows
    /// (`score_group`, every tier), at MHA's and MLA's `qk_dim`.
    #[test]
    #[ignore = "prints timings"]
    fn timing_score_gemm() {
        use std::hint::black_box;
        use std::time::Instant;
        const KEYS: usize = 64;
        // Median of 31 timings of `reps` calls, per multiply-add.
        let ns_per_mac = |macs: usize, call: &mut dyn FnMut()| {
            let reps = (1 << 22) / macs.max(1) + 1;
            let mut samples: Vec<f64> = (0..31)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..reps {
                        call();
                    }
                    start.elapsed().as_nanos() as f64 / (reps * macs) as f64
                })
                .collect();
            samples.sort_by(f64::total_cmp);
            samples[15]
        };
        for dim in [64, 576] {
            let keys: Vec<Vec<f64>> = (0..KEYS)
                .map(|j| (0..dim).map(|c| ((j * 7 + c) % 13) as f64 * 0.1).collect())
                .collect();
            let queries: Vec<Vec<f64>> = (0..QUERY_LANES)
                .map(|r| (0..dim).map(|c| ((r * 5 + c) % 11) as f64 * 0.1).collect())
                .collect();
            let mut out = vec![0.0; QUERY_LANES * KEYS];
            let dot = ns_per_mac(KEYS * dim, &mut || {
                let keys = keys.iter().map(Vec::as_slice);
                dot_rows(black_box(&queries[0]), keys, &mut out[..KEYS]);
            });
            println!("qk_dim {dim}: dot_rows, one row {dot:6.3} ns per multiply-add");
            for tier in Tier::available() {
                let mut line = format!("qk_dim {dim}: {tier:?} score_group");
                for rows in [1, 2, 4, 8] {
                    let mut group = QueryGroup::default();
                    group.load(dim, queries[..rows].iter().map(Vec::as_slice));
                    let ns = ns_per_mac(rows * KEYS * dim, &mut || {
                        let keys = keys.iter().map(Vec::as_slice);
                        score_group_on(tier, black_box(&group), keys, &mut out[..rows * KEYS]);
                    });
                    line += &format!(", {rows} rows {ns:6.3}");
                }
                println!("{line} ns per multiply-add");
            }
        }
    }

    /// Values with NaN, infinities, zeros of both signs and subnormals
    /// sprinkled through ordinary ones.
    fn hostile_values(seed: usize, len: usize) -> Vec<f64> {
        let hostile = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE / 3.0,
            1e300,
        ];
        let mut values: Vec<f64> = (0..len)
            .map(|i| ((i * 37 + seed * 11) % 101) as f64 / 7.0 - 6.5)
            .collect();
        let hostile = hostile.iter().cycle().skip(seed);
        for (slot, &value) in values.iter_mut().skip(seed % 5).step_by(6).zip(hostile) {
            *slot = value;
        }
        values
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

    /// [`canonical_bits`] of every value.
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().copied().map(canonical_bits).collect()
    }

    /// The order `sum_and_squares` promises, written out one term at a time:
    /// element `i` into lane `i mod 8` (its square fused into the lane's
    /// sum), then `((0+1)+(2+3))+((4+5)+(6+7))`.
    fn sum_and_squares_spec(xs: &[f64]) -> (f64, f64) {
        let mut sums = [0.0f64; 8];
        let mut squares = [0.0f64; 8];
        for (i, &x) in xs.iter().enumerate() {
            sums[i % 8] += x;
            squares[i % 8] = x.mul_add(x, squares[i % 8]);
        }
        let tree = |l: [f64; 8]| ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        (tree(sums), tree(squares))
    }

    #[test]
    fn sum_and_squares_adds_in_eight_lanes_and_one_tree() {
        // Lengths around whole lane sets, with terms far apart in magnitude
        // so that another order rounds differently.
        let terms = [1.0, 1e-16, -1.0, 3e-17, 1e16, 7.0, -1e16, 0.1, 0.3];
        for len in 0..=70 {
            let xs: Vec<f64> = (0..len)
                .map(|i| terms[i % terms.len()] * (1.0 + i as f64))
                .collect();
            let (sum, sum_sq) = sum_and_squares(&xs);
            let (spec_sum, spec_sum_sq) = sum_and_squares_spec(&xs);
            assert_eq!(sum.to_bits(), spec_sum.to_bits(), "sum, len {len}");
            assert_eq!(
                sum_sq.to_bits(),
                spec_sum_sq.to_bits(),
                "squares, len {len}"
            );
        }
        // One chain reads 1e16 + 1 + 1 − 1e16 = 0, each 1 lost to rounding;
        // in lanes the big terms cancel in lane 0 and the ones survive.
        let xs = [1e16, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1e16];
        assert_eq!(sum_and_squares(&xs).0, 2.0);
        assert_eq!(xs.iter().fold(0.0, |sum, x| sum + x), 0.0);
    }

    #[test]
    fn every_tier_sums_and_squares_with_the_bits_of_the_baseline() {
        let tiers = Tier::available();
        println!("compared with the baseline: {tiers:?}");
        let bits = |(sum, sum_sq): (f64, f64)| (canonical_bits(sum), canonical_bits(sum_sq));
        for seed in 0..8 {
            let values = hostile_values(seed, 71);
            // Every remainder of a lane set (lengths 0..=67) at every
            // misalignment of the slice.
            for offset in 0..=3 {
                for len in 0..=67 {
                    let xs = &values[offset..offset + len];
                    let expected = bits(sum_and_squares_on(Tier::Baseline, xs));
                    assert_eq!(bits(sum_and_squares_spec(xs)), expected);
                    for &tier in &tiers {
                        let case = format!("{tier:?} seed {seed} len {len} offset {offset}");
                        assert_eq!(bits(sum_and_squares_on(tier, xs)), expected, "{case}");
                    }
                }
            }
            // The public entry point is the widest tier.
            let widest = sum_and_squares_on(tiers[0], &values);
            assert_eq!(bits(sum_and_squares(&values)), bits(widest));
        }
    }

    /// The order [`tile_max`] promises, one element at a time: element `i`
    /// into lane `i mod 8` by `if x > lane { x } else { lane }`, then the
    /// lanes in one tree.
    fn tile_max_spec(xs: &[f64]) -> f64 {
        let larger = |m: f64, x: f64| if x > m { x } else { m };
        let mut lanes = [f64::NEG_INFINITY; 8];
        for (i, &x) in xs.iter().enumerate() {
            lanes[i % 8] = larger(lanes[i % 8], x);
        }
        let [a, b, c, d, e, f, g, h] = lanes;
        larger(
            larger(larger(a, b), larger(c, d)),
            larger(larger(e, f), larger(g, h)),
        )
    }

    #[test]
    fn tile_max_ignores_nan_and_keeps_its_lane_order_of_zeros() {
        assert_eq!(tile_max(&[]), f64::NEG_INFINITY);
        assert_eq!(tile_max(&[f64::NAN, f64::NEG_INFINITY]), f64::NEG_INFINITY);
        assert_eq!(tile_max(&[1.0, f64::NAN, 3.0, -2.0]), 3.0);
        // Lane 0 holds -0, lane 1 holds +0: the tree keeps lane 0's.
        assert_eq!(tile_max(&[-0.0, 0.0]).to_bits(), (-0.0f64).to_bits());
        assert_eq!(tile_max(&[0.0, -0.0]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn every_tier_finds_the_tile_max_with_the_bits_of_the_baseline() {
        let tiers = Tier::available();
        println!("compared with the baseline: {tiers:?}");
        for seed in 0..8 {
            let values = hostile_values(seed, 71);
            // Every remainder of a lane set at every misalignment.
            for offset in 0..=3 {
                for len in 0..=67 {
                    let xs = &values[offset..offset + len];
                    let expected = tile_max_on(Tier::Baseline, xs).to_bits();
                    assert_eq!(tile_max_spec(xs).to_bits(), expected);
                    for &tier in &tiers {
                        let case = format!("{tier:?} seed {seed} len {len} offset {offset}");
                        assert_eq!(tile_max_on(tier, xs).to_bits(), expected, "{case}");
                    }
                }
            }
            // The public entry point is the widest tier.
            let widest = tile_max_on(tiers[0], &values);
            assert_eq!(tile_max(&values).to_bits(), widest.to_bits());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Ragged blocks — rows not a multiple of four, `n` not a multiple
        /// of 32 or 16, W's rows further apart than `n` — against the spec,
        /// one term at a time, in both forms.
        #[test]
        fn prop_add_scaled_block_is_add_scaled_rows_row_by_row(
            rows in 0usize..11,
            n in 1usize..80,
            keys in 0usize..20,
            gap in 0usize..5,
            all in 0usize..2,
            seed in 0u64..1000,
        ) {
            let stride = n + gap;
            let w = crate::random_vec((keys * stride).saturating_sub(gap), seed, -1.0, 1.0);
            let coeffs = sparse_coefficients(rows * keys, seed + 1);
            let accs = crate::random_vec(rows * n, seed + 2, -1.0, 1.0);
            let terms = if all == 1 { Terms::All } else { Terms::NonZero };
            let mut got = accs.clone();
            add_scaled_block(&mut got, n, &coeffs, &w, stride, terms);
            let mut expected = accs;
            scaled_block_spec(&mut expected, n, &coeffs, (&w, stride), terms);
            let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|v| v.to_bits()).collect() };
            prop_assert_eq!(bits(&got), bits(&expected));
        }

        /// Ragged tiles of hostile values against the spec, one element at a
        /// time.
        #[test]
        fn prop_tile_max_is_the_lane_maximum(
            len in 0usize..150,
            seed in 0usize..1000,
        ) {
            let xs = hostile_values(seed, len);
            prop_assert_eq!(tile_max(&xs).to_bits(), tile_max_spec(&xs).to_bits());
        }

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
