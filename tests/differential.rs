//! Differential correctness harness for the tile-program VM.
//!
//! The central claim of the compile-and-execute pipeline: **tuning choices
//! change cost, never results**. For every workload family and any feasible
//! [`TuningPoint`], interpreting the fully-bound tile program on the
//! `rf_tile::exec` VM must agree with the unfused reference kernels — and
//! with itself across tuning points — within the family's numeric tolerance.
//!
//! Three layers of evidence:
//!
//! 1. a deterministic sweep of hand-picked tuning points (degenerate tiles,
//!    odd sizes, heavy segmenting) per family, checked against
//!    [`execute_reference`];
//! 2. a proptest sampling arbitrary feasible points, asserting both
//!    reference agreement and invariance against a canonical point's output;
//! 3. an `rf-tir` cross-check: the scalar loop-nest interpreter executes the
//!    unfused softmax/variance IR and must reproduce the VM's numbers.
//!
//! Tolerances are per family. Everything except quant is tight (`1e-9`
//! damped-relative): tiling only re-associates exact `f64` reductions. FP8
//! quant + GEMM quantises early tiles under a provisional scale (Eq. 21–22),
//! so across tile sizes its results move within the quantisation noise floor
//! — the same behaviour a fused kernel on hardware exhibits — and are
//! compared against an absolute bound of 5% of the output peak.

use std::collections::HashMap;

use proptest::prelude::*;
use redfuser::codegen::{compile_workload, executable_program, TuningPoint, Workload};
use redfuser::fusion::patterns;
use redfuser::gpusim::{GpuArch, KernelProfile};
use redfuser::kernels::softmax::softmax_rows;
use redfuser::runtime::{execute_reference, Request, RequestInput, RequestOutput};
use redfuser::tile::exec;
use redfuser::tir::{builder, Interpreter};
use redfuser::workloads::{
    inertia_tiny, mha_tiny, mla_tiny, moe_tiny, quant_tiny, random_matrix, random_vec,
    variance_tiny, Matrix,
};

/// Damped-relative tolerance for the exactly-reassociative families.
const TIGHT_TOL: f64 = 1e-9;

/// Absolute noise floor for FP8 quant + GEMM, as a fraction of the reference
/// output's peak magnitude.
const QUANT_NOISE: f64 = 0.05;

fn point(block_rows: usize, block_axis: usize, segments: u32) -> TuningPoint {
    TuningPoint {
        block_rows,
        block_axis,
        threads: 128,
        pipeline_depth: 2,
        segments,
    }
}

/// Hand-picked tuning points covering the degenerate corners: unit tiles,
/// non-power-of-two tiles, tile sizes past the shape (clamped), one segment
/// per element.
fn sweep_points() -> Vec<TuningPoint> {
    vec![
        point(1, 1, 1),
        point(3, 5, 2),
        point(16, 32, 4),
        point(128, 128, 1),
        point(64, 7, 8),
        point(2, 256, 16),
    ]
}

/// One request per workload family, with deterministic tensors.
fn family_requests() -> Vec<Request> {
    let mha = mha_tiny();
    let mla = mla_tiny();
    let moe = moe_tiny();
    let quant = quant_tiny();
    let var = variance_tiny();
    let inertia = inertia_tiny();
    vec![
        Request::softmax(random_matrix(6, 96, 1, -4.0, 4.0)),
        Request::new(
            Workload::Mha(mha.clone()),
            RequestInput::Attention {
                q: random_matrix(mha.q, mha.hd, 2, -1.0, 1.0),
                k: random_matrix(mha.kv, mha.hd, 3, -1.0, 1.0),
                v: random_matrix(mha.kv, mha.hd, 4, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Mla(mla.clone()),
            RequestInput::Attention {
                q: random_matrix(1, mla.qk_dim(), 5, -1.0, 1.0),
                k: random_matrix(mla.kv, mla.qk_dim(), 6, -1.0, 1.0),
                v: random_matrix(mla.kv, mla.hd, 7, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Moe(moe.clone()),
            RequestInput::Routing {
                x: random_matrix(9, moe.hd, 8, -1.0, 1.0),
                w: random_matrix(moe.hd, moe.en, 9, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Quant(quant.clone()),
            RequestInput::QuantGemm {
                a: random_matrix(5, quant.k, 10, -2.0, 2.0),
                w: random_matrix(quant.k, quant.n, 11, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Variance(var.clone()),
            RequestInput::Rows(random_matrix(4, var.l, 12, -3.0, 3.0)),
        )
        .unwrap(),
        Request::new(
            Workload::Inertia(inertia.clone()),
            RequestInput::Inertia {
                masses: random_vec(64, 13, 0.1, 2.0),
                positions: random_matrix(64, inertia.dim, 14, -2.0, 2.0),
            },
        )
        .unwrap(),
    ]
}

/// Interprets the bound program for `workload` at `point` over the request's
/// tensors, asserting the point launches feasibly on the given architecture.
fn run_at_point(request: &Request, tuning: &TuningPoint, arch: &GpuArch) -> RequestOutput {
    let program = executable_program(&request.workload, tuning);
    let profile = KernelProfile::from_tile_program(&program);
    assert!(
        profile.fits(arch),
        "{} at {tuning:?} must be launch-feasible on {}",
        request.workload.name(),
        arch.name
    );
    let output = exec::execute(&program, &request.input.as_exec())
        .expect("bound program executes over validated tensors");
    RequestOutput::from_exec(output)
}

/// Family-aware comparison: tight damped-relative everywhere except quant,
/// which is held to the FP8 provisional-scale noise floor.
fn assert_family_close(workload: &Workload, actual: &RequestOutput, expected: &RequestOutput) {
    match workload {
        Workload::Quant(_) => {
            let (RequestOutput::Matrix(a), RequestOutput::Matrix(e)) = (actual, expected) else {
                panic!("quant outputs are matrices");
            };
            let peak = e.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let diff = a.max_abs_diff(e);
            assert!(
                diff <= QUANT_NOISE * peak + 1e-9,
                "quant diff {diff} exceeds the noise floor ({peak} peak)"
            );
        }
        _ => {
            assert!(
                actual.approx_eq(expected, TIGHT_TOL),
                "{}: VM output diverged from reference",
                workload.name()
            );
        }
    }
}

#[test]
fn vm_matches_reference_for_every_family_across_tuning_points() {
    let arch = GpuArch::a10();
    for request in family_requests() {
        let reference = execute_reference(&request.workload, &request.input);
        let mut distinct_points = 0;
        for tuning in sweep_points() {
            let served = run_at_point(&request, &tuning, &arch);
            assert_family_close(&request.workload, &served, &reference);
            distinct_points += 1;
        }
        assert!(
            distinct_points >= 3,
            "each family must be proven on at least 3 tuning points"
        );
    }
}

#[test]
fn compiled_kernels_run_and_match_reference_on_every_arch() {
    // The end-to-end path the engine serves: compile (auto-tuned point),
    // interpret the kernel's own program, compare to the oracle.
    for arch in [GpuArch::a10(), GpuArch::h800()] {
        for request in family_requests() {
            let kernel = compile_workload(&request.workload, &arch);
            let program = kernel.program.as_ref().expect("every kernel has a program");
            assert!(
                program.binding.is_some(),
                "{}: program must be fully bound",
                kernel.name
            );
            let served = RequestOutput::from_exec(
                kernel
                    .run(&request.input.as_exec())
                    .expect("compiled kernel executes"),
            );
            let reference = execute_reference(&request.workload, &request.input);
            assert_family_close(&request.workload, &served, &reference);
        }
    }
}

/// Element-wise agreement at a tighter tolerance than `TIGHT_TOL`, pinning
/// *which* outputs are NaN — the rule `RequestOutput::approx_eq` applies too:
/// a NaN matches only a NaN at the same position.
fn assert_same_including_nans(actual: &[f64], expected: &[f64], context: &str) {
    assert_eq!(actual.len(), expected.len(), "{context}: length");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert_eq!(a.is_nan(), e.is_nan(), "{context} [{i}]: {a} vs {e}");
        assert!(
            a.is_nan() || (a - e).abs() <= 1e-12 * (1.0 + e.abs()),
            "{context} [{i}]: {a} vs {e}"
        );
    }
}

#[test]
fn masked_leading_tiles_contribute_nothing_instead_of_nan() {
    // While every element seen so far is `-inf` the running maximum is `-inf`
    // too, and `exp(v − max)` is `exp(-inf − -inf)` = NaN unless the tile is
    // skipped. Tuning points that put a fully masked tile (or segment) first
    // must still match the unfused reference — including the fully masked
    // row, where both sides are NaN everywhere.
    const MASK: f64 = f64::NEG_INFINITY;
    let points = [
        point(1, 8, 1),
        point(2, 4, 1),
        point(1, 2, 1),
        point(3, 8, 2),
        point(1, 1, 8),
    ];

    #[rustfmt::skip]
    let rows = Matrix::from_vec(3, 8, vec![
        MASK, MASK, MASK, MASK, MASK, 1.0, 2.0, 0.5,
        0.3, MASK, MASK, MASK, MASK, -1.0, MASK, 2.0,
        MASK, MASK, MASK, MASK, MASK, MASK, MASK, MASK,
    ]);
    let expected = softmax_rows(&rows);
    assert!(expected.row(0).iter().all(|p| p.is_finite()));
    assert!(expected.row(2).iter().all(|p| p.is_nan()));
    let workload = Workload::Softmax { rows: 3, len: 8 };
    for tuning in &points {
        let program = executable_program(&workload, tuning);
        let exec::ExecOutput::Matrix(out) =
            exec::execute(&program, &exec::ExecInput::Rows(&rows)).unwrap()
        else {
            panic!("softmax returns a matrix");
        };
        let context = format!("softmax at {tuning:?}");
        assert_same_including_nans(out.as_slice(), expected.as_slice(), &context);
    }

    // Attention and routing reach the same state through a `-inf` key or
    // weight coordinate under a positive activation: the first five keys
    // (experts) score `-inf`, the rest stay finite.
    let mask_leading = |mut m: Matrix, masked: usize, by_row: bool| {
        for i in 0..masked {
            let (r, c) = if by_row { (i, 0) } else { (0, i) };
            m.set(r, c, MASK);
        }
        m
    };
    let mha = mha_tiny();
    let moe = moe_tiny();
    let requests = [
        Request::new(
            Workload::Mha(mha.clone()),
            RequestInput::Attention {
                q: random_matrix(mha.q, mha.hd, 31, 0.1, 1.0),
                k: mask_leading(random_matrix(mha.kv, mha.hd, 32, -1.0, 1.0), 5, true),
                v: random_matrix(mha.kv, mha.hd, 33, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Moe(moe.clone()),
            RequestInput::Routing {
                x: random_matrix(7, moe.hd, 34, 0.1, 1.0),
                w: mask_leading(random_matrix(moe.hd, moe.en, 35, -1.0, 1.0), 5, false),
            },
        )
        .unwrap(),
    ];
    let arch = GpuArch::a10();
    for request in &requests {
        let reference = execute_reference(&request.workload, &request.input);
        for tuning in &points {
            let context = format!("{} at {tuning:?}", request.workload.name());
            match (run_at_point(request, tuning, &arch), &reference) {
                (RequestOutput::Matrix(a), RequestOutput::Matrix(e)) => {
                    assert!(e.as_slice().iter().all(|v| v.is_finite()));
                    assert_same_including_nans(a.as_slice(), e.as_slice(), &context);
                }
                (RequestOutput::Routing(a), RequestOutput::Routing(e)) => {
                    for (a, e) in a.iter().zip(e) {
                        assert_eq!(a.experts, e.experts, "{context}");
                        assert!(e.probs.iter().all(|p| p.is_finite()));
                        assert_same_including_nans(&a.probs, &e.probs, &context);
                    }
                }
                _ => panic!("{context}: unexpected output kinds"),
            }
        }
    }
}

/// Checks a fused one-pass result against its unfused reference. `scale` is
/// the size of the fused statistics (the mean of x² for variance, Σ m·|p|²
/// for inertia): the one-pass form's error is relative to it, not to the
/// result. `overflowed` says a fused statistic was not finite although the
/// reference's passes were; the fused form then has no finite answer and
/// must return NaN or an infinity — never a number, and never 0.
fn assert_plain_sums_agree(actual: f64, expected: f64, scale: f64, overflowed: bool, case: &str) {
    if expected.is_nan() {
        assert!(
            actual.is_nan(),
            "{case}: {actual} where the reference is NaN"
        );
    } else if overflowed {
        assert!(
            !actual.is_finite(),
            "{case}: {actual} from an overflowed statistic"
        );
    } else {
        assert!(
            (actual - expected).abs() <= TIGHT_TOL * (1.0 + scale),
            "{case}: {actual} vs {expected}"
        );
    }
}

/// The row kinds of [`hostile_value`].
const HOSTILE_KINDS: [&str; 9] = [
    "ordinary",
    "NaN",
    "+inf",
    "-inf",
    "mixed",
    "constant",
    "near 1e300",
    "1e300 constant",
    "near 1e-300",
];

/// Element `i` of a row of `len` elements of the named kind: a special in
/// the middle of ordinary values, specials throughout, one repeated value,
/// or ordinary values scaled near the ends of the exponent range.
fn hostile_value(kind: &str, i: usize, len: usize) -> f64 {
    let ordinary = ((i * 37 + 11) % 101) as f64 / 7.0 - 6.5;
    let middle = |value| if i == len / 2 { value } else { ordinary };
    match kind {
        "ordinary" => ordinary,
        "NaN" => middle(f64::NAN),
        "+inf" => middle(f64::INFINITY),
        "-inf" => middle(f64::NEG_INFINITY),
        "mixed" => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.5][i % 4],
        "constant" => 0.7,
        "near 1e300" => ordinary * 1e299,
        "1e300 constant" => 1e300,
        "near 1e-300" => ordinary * 1e-300,
        _ => unreachable!("unknown row kind {kind}"),
    }
}

#[test]
fn hostile_rows_keep_their_nans_and_overflows_in_the_plain_sums() {
    // Variance and inertia are plain sums of x and x² (of m, m·p and m·|p|²)
    // finished by a difference that rounding can push below 0. Rows of every
    // hostile kind go through a single tile, many tiles and several segments,
    // and every result is compared with the unfused reference, NaN positions
    // included.
    let points = [point(1, 1 << 20, 1), point(2, 2, 1), point(1, 2, 3)];
    let lengths = (1..=9).chain([65_536]);

    for len in lengths.clone() {
        let values = HOSTILE_KINDS
            .iter()
            .flat_map(|kind| (0..len).map(move |i| hostile_value(kind, i, len)));
        let batch = Matrix::from_vec(HOSTILE_KINDS.len(), len, values.collect());
        let expected = redfuser::kernels::nonml::variance_rows(&batch);
        let workload = Workload::Variance(redfuser::workloads::VarianceConfig {
            name: "hostile",
            bs: HOSTILE_KINDS.len(),
            l: len,
        });
        for tuning in &points {
            let program = executable_program(&workload, tuning);
            let exec::ExecOutput::Values(actual) =
                exec::execute(&program, &exec::ExecInput::Rows(&batch)).unwrap()
            else {
                panic!("variance returns values");
            };
            for (r, kind) in HOSTILE_KINDS.iter().enumerate() {
                let mean_sq = batch.row(r).iter().map(|x| x * x).sum::<f64>() / len as f64;
                let case = format!("variance of {kind} x {len} at {tuning:?}");
                let overflowed = mean_sq.is_infinite();
                assert_plain_sums_agree(actual[r], expected[r], mean_sq, overflowed, &case);
            }
        }
    }

    // Inertia: the kinds are the particles' positions (three coordinates
    // each), and once more ordinary positions under masses near 1e300.
    for len in lengths {
        let masses: Vec<f64> = (0..len).map(|i| 0.1 + (i % 19) as f64 / 10.0).collect();
        let huge_masses: Vec<f64> = masses.iter().map(|m| m * 1e300).collect();
        let systems = HOSTILE_KINDS.iter().map(|&kind| (kind, &masses));
        for (kind, masses) in systems.chain([("ordinary", &huge_masses)]) {
            let values = (0..len * 3).map(|i| hostile_value(kind, i, len * 3));
            let positions = Matrix::from_vec(len, 3, values.collect());
            let expected = redfuser::kernels::nonml::inertia_naive(masses, &positions);
            // The fused form's statistics: Σ m·|p|² and |Σ m·p|².
            let weighted_sq: f64 = (0..len)
                .map(|i| masses[i] * positions.row(i).iter().map(|p| p * p).sum::<f64>())
                .sum();
            let center_sq: f64 = (0..3)
                .map(|d| {
                    let weighted: f64 = (0..len).map(|i| masses[i] * positions.get(i, d)).sum();
                    weighted * weighted
                })
                .sum();
            let overflowed = weighted_sq.is_infinite() || center_sq.is_infinite();
            let workload = Workload::Inertia(redfuser::workloads::InertiaConfig {
                name: "hostile",
                bs: 1,
                n: len,
                dim: 3,
            });
            let input = exec::ExecInput::Inertia {
                masses,
                positions: &positions,
            };
            for tuning in &points {
                let program = executable_program(&workload, tuning);
                let exec::ExecOutput::Values(actual) = exec::execute(&program, &input).unwrap()
                else {
                    panic!("inertia returns values");
                };
                let heavy = if masses[0] > 1e299 {
                    " under masses near 1e300"
                } else {
                    ""
                };
                let case = format!("inertia of {kind}{heavy} x {len} at {tuning:?}");
                assert_plain_sums_agree(actual[0], expected, weighted_sq, overflowed, &case);
            }
        }
    }
}

#[test]
fn tir_interpreter_cross_checks_the_scalar_workloads() {
    // Softmax: the scalar loop-nest IR interpreted by rf-tir must reproduce
    // the VM's probabilities row by row.
    let rows = random_matrix(4, 48, 21, -3.0, 3.0);
    let workload = Workload::Softmax { rows: 4, len: 48 };
    let program = executable_program(&workload, &point(2, 7, 3));
    let exec::ExecOutput::Matrix(vm_probs) =
        exec::execute(&program, &exec::ExecInput::Rows(&rows)).unwrap()
    else {
        panic!("softmax returns a matrix");
    };
    let tir_softmax = builder::unfused(&patterns::safe_softmax(), 48);
    let interp = Interpreter::new();
    for r in 0..rows.rows() {
        let inputs = HashMap::from([("x".to_string(), rows.row(r).to_vec())]);
        let out = interp.run(&tir_softmax, &inputs).expect("tir softmax runs");
        let (max, sum) = (out["m"][0], out["t"][0]);
        for (j, &x) in rows.row(r).iter().enumerate() {
            let tir_prob = (x - max).exp() / sum;
            let vm_prob = vm_probs.get(r, j);
            assert!(
                (tir_prob - vm_prob).abs() <= TIGHT_TOL * (1.0 + tir_prob.abs()),
                "row {r} col {j}: tir {tir_prob} vs vm {vm_prob}"
            );
        }
    }

    // Variance: the sum / sum-of-squares loop nest generated from the
    // sufficient-statistics spec, finalised with the closed form the VM's
    // epilogue uses.
    let len = 40;
    let batch = random_matrix(3, len, 22, -2.0, 2.0);
    let tir_variance = builder::unfused(&patterns::variance_sufficient_stats(), len);
    let workload = Workload::Variance(redfuser::workloads::VarianceConfig {
        name: "xcheck",
        bs: 3,
        l: len,
    });
    let program = executable_program(&workload, &point(1, 9, 2));
    let exec::ExecOutput::Values(vm_vars) =
        exec::execute(&program, &exec::ExecInput::Rows(&batch)).unwrap()
    else {
        panic!("variance returns values");
    };
    for (r, &vm_var) in vm_vars.iter().enumerate() {
        let inputs = HashMap::from([("x".to_string(), batch.row(r).to_vec())]);
        let out = interp
            .run(&tir_variance, &inputs)
            .expect("tir variance runs");
        let n = len as f64;
        let mean = out["s"][0] / n;
        let tir_var = (out["q"][0] / n - mean * mean).max(0.0);
        assert!(
            (tir_var - vm_var).abs() <= TIGHT_TOL * (1.0 + tir_var),
            "row {r}: tir {tir_var} vs vm {vm_var}"
        );
    }
}

/// Strategy over raw tuning points. `executable_program` clamps each once to
/// its canonical point (tiles to the shape, segments to the non-empty
/// segments of the axis), so every sampled point is lowerable and the
/// program's binding runs the segments its kernel launches; the harness
/// additionally asserts launch feasibility on the A10 before trusting a
/// sample.
fn any_point() -> impl Strategy<Value = TuningPoint> {
    (
        1usize..=160,
        1usize..=300,
        prop::sample::select(vec![128u32, 256]),
        1u32..=3,
        1u32..=16,
    )
        .prop_map(
            |(block_rows, block_axis, threads, pipeline_depth, segments)| TuningPoint {
                block_rows,
                block_axis,
                threads,
                pipeline_depth,
                segments,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For each tiny workload config, `CompiledKernel::run`-equivalent
    /// execution is invariant across arbitrary feasible tuning points: the
    /// sampled point's output matches both the unfused reference and the
    /// canonical point's output within the family tolerance.
    #[test]
    fn prop_vm_output_is_invariant_across_feasible_points(tuning in any_point(), seed in 0u64..64) {
        let arch = GpuArch::a10();
        let canonical = point(128, 128, 1);
        let moe = moe_tiny();
        let var = variance_tiny();
        let requests = vec![
            Request::softmax(random_matrix(3, 64, seed, -3.0, 3.0)),
            Request::new(
                Workload::Moe(moe.clone()),
                RequestInput::Routing {
                    x: random_matrix(4, moe.hd, seed + 1, -1.0, 1.0),
                    w: random_matrix(moe.hd, moe.en, seed + 2, -1.0, 1.0),
                },
            )
            .unwrap(),
            Request::new(
                Workload::Variance(var.clone()),
                RequestInput::Rows(random_matrix(2, var.l, seed + 3, -2.0, 2.0)),
            )
            .unwrap(),
        ];
        for request in requests {
            let sampled = run_at_point(&request, &tuning, &arch);
            let reference = execute_reference(&request.workload, &request.input);
            assert_family_close(&request.workload, &sampled, &reference);
            let baseline = run_at_point(&request, &canonical, &arch);
            prop_assert!(
                sampled.approx_eq(&baseline, TIGHT_TOL),
                "{}: output moved between tuning points {tuning:?} and {canonical:?}",
                request.workload.name()
            );
        }
    }

    /// Attention specifically: arbitrary point vs the unfused oracle.
    #[test]
    fn prop_attention_vm_is_invariant(tuning in any_point(), seed in 0u64..64) {
        let arch = GpuArch::a10();
        let mha = mha_tiny();
        let request = Request::new(
            Workload::Mha(mha.clone()),
            RequestInput::Attention {
                q: random_matrix(mha.q, mha.hd, seed, -1.0, 1.0),
                k: random_matrix(mha.kv, mha.hd, seed + 1, -1.0, 1.0),
                v: random_matrix(mha.kv, mha.hd, seed + 2, -1.0, 1.0),
            },
        )
        .unwrap();
        let sampled = run_at_point(&request, &tuning, &arch);
        let reference = execute_reference(&request.workload, &request.input);
        prop_assert!(sampled.approx_eq(&reference, TIGHT_TOL));
    }

    /// Quant specifically: arbitrary point stays within the FP8 noise floor
    /// of the reference, and single-tile points match it exactly.
    #[test]
    fn prop_quant_vm_stays_within_the_noise_floor(tuning in any_point(), seed in 0u64..64) {
        let arch = GpuArch::a10();
        let quant = quant_tiny();
        let request = Request::new(
            Workload::Quant(quant.clone()),
            RequestInput::QuantGemm {
                a: random_matrix(3, quant.k, seed, -2.0, 2.0),
                w: random_matrix(quant.k, quant.n, seed + 1, -1.0, 1.0),
            },
        )
        .unwrap();
        let sampled = run_at_point(&request, &tuning, &arch);
        let reference = execute_reference(&request.workload, &request.input);
        assert_family_close(&request.workload, &sampled, &reference);
        if tuning.block_axis >= quant.k && tuning.segments <= 1 {
            // Whole row in one tile: the VM performs the identical roundings
            // as the unfused oracle and must match bit-for-bit.
            let (RequestOutput::Matrix(a), RequestOutput::Matrix(e)) = (&sampled, &reference)
            else {
                panic!("quant outputs are matrices")
            };
            prop_assert!(a.max_abs_diff(e) == 0.0);
        }
    }
}
