//! Pins the numbers the `rf_tile::exec` kernels produce.
//!
//! * **Golden bits** — for seeded inputs and three tuning points per family
//!   (single-tile, multi-tile, multi-segment) a fold of the output's
//!   `f64::to_bits`. QuantGemm and Inertia were recorded at the commit
//!   before the kernels were rewritten over row slices; Attention and Routing
//!   were re-recorded once, by the change that moved every exponential to
//!   `rf_workloads::exp` and the tile maximum and sum to eight fixed lanes;
//!   the second quant case (11 rows over k 150 into 70 columns — two blocks
//!   of four rows and three rows, two 32-column panels and six columns) was
//!   recorded at the commit before quant + GEMM accumulated a block of rows
//!   per W tile instead of one row at a time, and pins that the change kept
//!   every bit;
//!   the second attention case (19 query rows — two whole groups of eight
//!   and a group of three — over 70 keys) was recorded at the commit before attention scored a group of query
//!   rows per vector instead of one row at a time, and pins that the change
//!   kept every bit;
//!   Variance was re-recorded once, by the change that moved its Σx and Σx²
//!   to eight fixed lanes (`rf_workloads::sum_and_squares`) — its two
//!   single-segment folds moved, the four-segment one kept its bits (that
//!   module's numerics policy says when a fold may move: only when the
//!   routine or a summation order is the point of the change, and the change
//!   lists each one). The second routing case (11 tokens over 70 hidden
//!   coordinates into 100 experts: tiles of 40 experts read from rows 100
//!   wide) and both softmax cases were recorded at the commit before P·V,
//!   routing's scores, the tile maximum and the sum of the exponentials ran
//!   over blocks of rows and full vectors, and pin that the change kept
//!   every bit. Every fold but inertia's and softmax's four-segment one was
//!   re-recorded once more by the change that fused every multiply-add of
//!   the vector bodies (`mul_add`, one rounding per term: the GEMMs, the
//!   score dots, the squares and the exponential's reduction and
//!   polynomial); each output moved by at most `5.2e-16` of its case's
//!   largest magnitude. Every family must reproduce the fold exactly — on every CPU:
//!   the exponential returns the same bits at every vector width. Softmax
//!   must also stay within `1e-12` relative of the elements recorded with
//!   libm's exponential, before its epilogue rescaled the stored
//!   exponentials instead of recomputing them.
//! * **`block_rows` invariance** — every family's output is bitwise
//!   independent of `block_rows`, which is what row-sharded serving relies on
//!   when it concatenates per-device row blocks.
//! * **Ragged edges** — axis lengths not divisible by 4 or by `block_axis`,
//!   `head_dim` / `n` of 1, 1-row inputs.

use proptest::prelude::*;
use rf_tile::exec::{execute, ExecBinding, ExecInput, ExecOutput, Semantics};
use rf_tile::TileProgram;
use rf_workloads::{random_matrix, random_vec, Matrix};

/// `(block_rows, block_axis, segments)`.
type Point = (usize, usize, usize);

/// Owned tensors of one execution; [`Case::input`] borrows them.
enum Tensors {
    Rows(Matrix),
    Attention { q: Matrix, k: Matrix, v: Matrix },
    Routing { x: Matrix, w: Matrix },
    QuantGemm { a: Matrix, w: Matrix },
    Inertia { masses: Vec<f64>, positions: Matrix },
}

struct Case {
    semantics: Semantics,
    tensors: Tensors,
}

impl Case {
    fn input(&self) -> ExecInput<'_> {
        match &self.tensors {
            Tensors::Rows(m) => ExecInput::Rows(m),
            Tensors::Attention { q, k, v } => ExecInput::Attention { q, k, v },
            Tensors::Routing { x, w } => ExecInput::Routing { x, w },
            Tensors::QuantGemm { a, w } => ExecInput::QuantGemm { a, w },
            Tensors::Inertia { masses, positions } => ExecInput::Inertia { masses, positions },
        }
    }

    fn run(&self, (block_rows, block_axis, segments): Point) -> ExecOutput {
        let mut program = TileProgram::new("exec-kernels", 1, 128);
        program.binding = Some(ExecBinding {
            semantics: self.semantics,
            block_rows,
            block_axis,
            segments,
        });
        execute(&program, &self.input()).expect("bound program executes")
    }
}

fn softmax(rows: usize, len: usize, seed: u64) -> Case {
    Case {
        semantics: Semantics::Softmax,
        tensors: Tensors::Rows(random_matrix(rows, len, seed, -4.0, 4.0)),
    }
}

fn variance(rows: usize, len: usize, seed: u64) -> Case {
    Case {
        semantics: Semantics::Variance,
        tensors: Tensors::Rows(random_matrix(rows, len, seed, -3.0, 3.0)),
    }
}

fn attention(q_rows: usize, kv: usize, qk_dim: usize, head_dim: usize, seed: u64) -> Case {
    Case {
        semantics: Semantics::Attention { qk_dim, head_dim },
        tensors: Tensors::Attention {
            q: random_matrix(q_rows, qk_dim, seed, -1.0, 1.0),
            k: random_matrix(kv, qk_dim, seed + 1, -1.0, 1.0),
            v: random_matrix(kv, head_dim, seed + 2, -1.0, 1.0),
        },
    }
}

fn routing(tokens: usize, hidden: usize, experts: usize, topk: usize, seed: u64) -> Case {
    Case {
        semantics: Semantics::Routing { topk, hidden },
        tensors: Tensors::Routing {
            x: random_matrix(tokens, hidden, seed, -1.0, 1.0),
            w: random_matrix(hidden, experts, seed + 1, -1.0, 1.0),
        },
    }
}

fn quant(m: usize, k: usize, n: usize, seed: u64) -> Case {
    Case {
        semantics: Semantics::QuantGemm { n },
        tensors: Tensors::QuantGemm {
            a: random_matrix(m, k, seed, -2.0, 2.0),
            w: random_matrix(k, n, seed + 1, -1.0, 1.0),
        },
    }
}

fn inertia(particles: usize, dim: usize, seed: u64) -> Case {
    Case {
        semantics: Semantics::Inertia { dim },
        tensors: Tensors::Inertia {
            masses: random_vec(particles, seed, 0.1, 2.0),
            positions: random_matrix(particles, dim, seed + 1, -2.0, 2.0),
        },
    }
}

/// The output's numbers in order (for top-k: each token's expert indices,
/// then its probabilities).
fn flat(output: &ExecOutput) -> Vec<f64> {
    match output {
        ExecOutput::Matrix(m) => m.as_slice().to_vec(),
        ExecOutput::Values(v) => v.clone(),
        ExecOutput::TopK(decisions) => decisions
            .iter()
            .flat_map(|d| {
                let experts = d.experts.iter().map(|&e| e as f64);
                experts.chain(d.probs.iter().copied())
            })
            .collect(),
    }
}

/// [`flat`] as raw bit patterns, so comparisons distinguish `-0.0` from `0.0`
/// and treat equal NaNs as equal.
fn bits(output: &ExecOutput) -> Vec<u64> {
    flat(output).into_iter().map(f64::to_bits).collect()
}

/// FNV-1a over the 64-bit words of [`bits`].
fn fold(output: &ExecOutput) -> u64 {
    bits(output)
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, word| {
            (h ^ word).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Single-tile, multi-tile and multi-segment tuning points per family, with
/// the recorded fold.
#[test]
fn bit_exact_families_reproduce_the_recorded_folds() {
    let golden = [
        (
            "attention",
            attention(5, 37, 7, 5, 100),
            [
                ((128, 128, 1), 0x0573_7a32_d125_0f67),
                ((2, 8, 1), 0xc121_3cb9_41e0_bec4),
                ((3, 5, 3), 0xf27c_f793_b746_9062),
            ],
        ),
        (
            "attention",
            attention(19, 70, 64, 64, 700),
            [
                ((128, 128, 1), 0x160b_e73c_f872_5670),
                ((4, 16, 1), 0x8e02_5c81_d02f_f284),
                ((8, 9, 3), 0x3262_c69a_94f0_30dc),
            ],
        ),
        (
            "routing",
            routing(6, 13, 21, 3, 200),
            [
                ((128, 128, 1), 0x07f3_f8ab_b5ed_d7b0),
                ((2, 4, 1), 0x990c_cb15_fe9f_450b),
                ((4, 5, 3), 0xe48b_b2d9_c7f8_0cb8),
            ],
        ),
        (
            "routing",
            routing(11, 70, 100, 5, 210),
            [
                ((128, 128, 1), 0x168e_6a9b_9ba7_a0c1),
                ((4, 40, 1), 0x00f3_e0bb_a73e_682a),
                ((8, 24, 3), 0x1f08_b749_df0b_9ccf),
            ],
        ),
        (
            "softmax",
            softmax(4, 45, 600),
            [
                ((128, 128, 1), 0x1a92_5014_747b_989f),
                ((2, 8, 1), 0x4936_4ec3_b238_1faa),
                ((3, 7, 4), 0x0e7f_1558_cfd5_2178),
            ],
        ),
        (
            "softmax",
            softmax(5, 300, 610),
            [
                ((128, 512, 1), 0x1966_f58d_1052_fe77),
                ((4, 64, 1), 0xaae6_48a1_45a7_bd4b),
                ((2, 40, 3), 0xff30_ce38_6d38_6252),
            ],
        ),
        (
            "quant-gemm",
            quant(4, 29, 6, 300),
            [
                ((128, 128, 1), 0x115b_9343_c8e5_1d46),
                ((1, 8, 1), 0x6fd7_5f70_25c4_1225),
                ((3, 4, 3), 0xde40_5e0c_58d7_9c76),
            ],
        ),
        (
            "quant-gemm",
            quant(11, 150, 70, 310),
            [
                ((128, 256, 1), 0xc5b1_cd26_f8ca_4b9f),
                ((16, 16, 1), 0xa4e1_9f4e_82f6_e425),
                ((8, 24, 3), 0xa4da_0d21_5a66_6ea2),
            ],
        ),
        (
            "variance",
            variance(6, 53, 400),
            [
                ((128, 128, 1), 0xf177_250e_02f8_6ab3),
                ((1, 7, 1), 0xf177_250e_02f8_6ab3),
                ((2, 5, 4), 0xacf6_a80d_f5f9_429c),
            ],
        ),
        (
            "inertia",
            inertia(41, 3, 500),
            [
                ((1, 128, 1), 0xb5c7_1e40_1332_63fd),
                ((1, 7, 1), 0xb5c7_1e40_1332_63fd),
                ((1, 4, 5), 0xb5c7_1b40_1332_5ee4),
            ],
        ),
    ];
    for (family, case, points) in &golden {
        for &(point, recorded) in points {
            let actual = fold(&case.run(point));
            assert_eq!(
                actual, recorded,
                "{family} at {point:?}: fold {actual:#018x} differs from the recorded one"
            );
        }
    }
}

/// Softmax outputs sampled at the parent commit: `(row, col, bits)` per
/// tuning point. The rewritten epilogue rescales stored exponentials, so the
/// bound is relative `1e-12`, not bit equality.
#[test]
fn softmax_stays_within_1e12_of_the_recorded_outputs() {
    let case = softmax(4, 45, 600);
    let golden = [
        (
            (128, 128, 1),
            [
                (0, 0, 0x3f58_734f_a062_3783),
                (1, 17, 0x3f96_cc1d_4a3a_788b),
                (2, 31, 0x3f56_1939_14f7_789f),
                (3, 44, 0x3fce_4277_76f7_0c59),
            ],
        ),
        (
            (2, 8, 1),
            [
                (0, 0, 0x3f58_734f_a062_3783),
                (1, 17, 0x3f96_cc1d_4a3a_788c),
                (2, 31, 0x3f56_1939_14f7_789f),
                (3, 44, 0x3fce_4277_76f7_0c5b),
            ],
        ),
        (
            (3, 7, 4),
            [
                (0, 0, 0x3f58_734f_a062_3781),
                (1, 17, 0x3f96_cc1d_4a3a_788d),
                (2, 31, 0x3f56_1939_14f7_78a1),
                (3, 44, 0x3fce_4277_76f7_0c59),
            ],
        ),
    ];
    for (point, samples) in golden {
        let ExecOutput::Matrix(out) = case.run(point) else {
            panic!("softmax returns a matrix");
        };
        for (row, col, recorded) in samples {
            let (actual, recorded) = (out.get(row, col), f64::from_bits(recorded));
            assert!(
                (actual - recorded).abs() <= 1e-12 * recorded,
                "{point:?} [{row}, {col}]: {actual:e} vs recorded {recorded:e} ({:#018x})",
                actual.to_bits()
            );
        }
        for r in 0..out.rows() {
            let total: f64 = out.row(r).iter().sum();
            assert!(
                (total - 1.0).abs() < 1e-12,
                "{point:?} row {r} sums to {total}"
            );
        }
    }
}

/// Shapes whose axis is not a multiple of 4 or of `block_axis`, unit output
/// widths and single rows: the remainder paths of the multi-row loops. Every
/// tiling must agree with the one-tile, one-segment run to rounding error
/// (quant: within the provisional-scale noise floor).
#[test]
fn ragged_shapes_agree_across_tilings() {
    let cases = [
        ("softmax 1x1", softmax(1, 1, 1), 1e-12),
        ("softmax 1x7", softmax(1, 7, 2), 1e-12),
        ("variance 1x1", variance(1, 1, 3), 1e-12),
        ("variance 2x13", variance(2, 13, 4), 1e-12),
        ("attention head_dim 1", attention(1, 9, 3, 1, 5), 1e-12),
        ("attention qk_dim 1", attention(3, 6, 1, 4, 6), 1e-12),
        ("attention kv 1", attention(2, 1, 5, 3, 7), 1e-12),
        ("routing 1 expert", routing(2, 5, 1, 1, 8), 1e-12),
        ("routing hidden 1", routing(1, 1, 7, 2, 9), 1e-12),
        ("routing 11 experts", routing(3, 6, 11, 11, 10), 1e-12),
        ("quant n 1", quant(1, 10, 1, 11), 0.05),
        ("quant k 1", quant(2, 1, 3, 12), 0.05),
        ("inertia 1 particle", inertia(1, 3, 13), 1e-9),
        ("inertia dim 1", inertia(6, 1, 14), 1e-9),
    ];
    let points = [(1, 1, 1), (2, 3, 1), (1, 2, 2), (4, 5, 3), (3, 4, 64)];
    for (name, case, tolerance) in &cases {
        let reference = flat(&case.run((128, 128, 1)));
        let peak = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for point in points {
            let actual = flat(&case.run(point));
            assert_eq!(actual.len(), reference.len(), "{name} at {point:?}");
            for (a, e) in actual.iter().zip(&reference) {
                assert!(
                    (a - e).abs() <= tolerance * peak.max(1.0),
                    "{name} at {point:?}: {a} vs {e}"
                );
            }
        }
    }
}

/// The attention case of `q`'s row `r` alone, over the same keys and values.
fn one_row(case: &Case, r: usize) -> Case {
    let Tensors::Attention { q, k, v } = &case.tensors else {
        panic!("an attention case");
    };
    Case {
        semantics: case.semantics,
        tensors: Tensors::Attention {
            q: Matrix::from_vec(1, q.cols(), q.row(r).to_vec()),
            k: k.clone(),
            v: v.clone(),
        },
    }
}

/// The bits of each output row of `case` at `point`, and of each row run
/// alone: a row's output must not depend on the rows it is scored with.
fn rows_and_rows_alone(case: &Case, point: Point) -> Vec<(Vec<u64>, Vec<u64>)> {
    let ExecOutput::Matrix(out) = case.run(point) else {
        panic!("attention returns a matrix");
    };
    (0..out.rows())
        .map(|r| {
            let together = out.row(r).iter().map(|x| x.to_bits()).collect();
            (together, bits(&one_row(case, r).run(point)))
        })
        .collect()
}

#[test]
fn a_masked_or_nan_query_row_leaves_its_group_mates_alone() {
    // Key coordinate 0 is positive, so a query whose coordinate 0 is -inf
    // scores -inf against every key and one that is NaN scores NaN: row 3
    // sits in the first group of eight, row 9 in the group of three after it.
    let mut case = attention(11, 23, 5, 4, 900);
    let Tensors::Attention { q, k, .. } = &mut case.tensors else {
        unreachable!();
    };
    for j in 0..k.rows() {
        k.set(j, 0, 0.5 + k.get(j, 0).abs());
    }
    q.set(3, 0, f64::NEG_INFINITY);
    q.set(9, 0, f64::NAN);
    for point in [(128, 128, 1), (4, 5, 1), (2, 4, 3)] {
        for (r, (together, alone)) in rows_and_rows_alone(&case, point).into_iter().enumerate() {
            if r == 3 || r == 9 {
                let nan = |row: &[u64]| row.iter().map(|&b| f64::from_bits(b).is_nan()).collect();
                let nan_positions: Vec<bool> = nan(&together);
                assert_eq!(nan_positions, nan(&alone), "row {r} at {point:?}");
                assert!(
                    nan_positions.iter().all(|&n| n),
                    "row {r} attends to nothing"
                );
            } else {
                assert_eq!(together, alone, "row {r} at {point:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Row `r` of an attention call has the bits of the call on row `r`
    /// alone, whatever group of rows it is scored in.
    #[test]
    fn prop_attention_rows_keep_their_one_row_bits(
        rows in 2usize..21,
        qk_dim in 1usize..71,
        kv in 1usize..41,
        block_axis in 1usize..17,
        segments in 1usize..5,
        seed in 0u64..1000,
    ) {
        let case = attention(rows, kv, qk_dim, 3, seed);
        for point in [(1, block_axis, 1), (4, block_axis, segments)] {
            for (r, (together, alone)) in rows_and_rows_alone(&case, point).into_iter().enumerate() {
                prop_assert_eq!(together, alone, "row {} of {} at {:?}", r, rows, point);
            }
        }
    }

    /// The per-output summation order is fixed by `(block_axis, segments)`
    /// alone: any `block_rows` gives the same bits as `block_rows = 1`. Quant
    /// gets outputs up to 79 wide, so a block of four rows or more runs
    /// `add_scaled_block`'s 32-column panels against the row-by-row path of
    /// `block_rows = 1`.
    #[test]
    fn prop_outputs_are_bitwise_invariant_under_block_rows(
        rows in 1usize..10,
        axis in 1usize..40,
        width in 1usize..9,
        quant_n in 1usize..80,
        block_rows in 2usize..12,
        block_axis in 1usize..17,
        segments in 1usize..5,
        seed in 0u64..1000,
    ) {
        let cases = [
            softmax(rows, axis, seed),
            variance(rows, axis, seed),
            attention(rows, axis, width, width + 1, seed),
            routing(rows, width, axis, axis.min(3), seed),
            quant(rows, axis, quant_n, seed),
            inertia(axis, width, seed),
        ];
        for case in &cases {
            let by_row = case.run((1, block_axis, segments));
            let blocked = case.run((block_rows, block_axis, segments));
            prop_assert_eq!(
                bits(&by_row),
                bits(&blocked),
                "{} differs between block_rows 1 and {}",
                case.semantics.name(),
                block_rows
            );
        }
    }
}
