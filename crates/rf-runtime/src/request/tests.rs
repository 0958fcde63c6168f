use super::*;
use rf_codegen::compile_workload;
use rf_gpusim::GpuArch;
use rf_workloads::{
    inertia_tiny, mha_tiny, mla_tiny, moe_tiny, quant_tiny, random_matrix, random_vec,
    variance_tiny, MhaConfig, MlaConfig, MoeConfig, QuantGemmConfig, VarianceConfig,
};
use Verdict::{Accept, Contract, Extent, Kind};

const TOL: f64 = 1e-9;

fn mha_request() -> Request {
    let c = mha_tiny();
    Request::new(
        Workload::Mha(c.clone()),
        RequestInput::Attention {
            q: random_matrix(c.q, c.hd, 1, -1.0, 1.0),
            k: random_matrix(c.kv, c.hd, 2, -1.0, 1.0),
            v: random_matrix(c.kv, c.hd, 3, -1.0, 1.0),
        },
    )
    .unwrap()
}

#[test]
fn every_workload_family_executes_and_matches_reference() {
    let moe = moe_tiny();
    let quant = quant_tiny();
    let var = variance_tiny();
    let inertia = inertia_tiny();
    let mla = mla_tiny();
    let requests = vec![
        Request::softmax(random_matrix(4, 64, 10, -3.0, 3.0)),
        mha_request(),
        Request::new(
            Workload::Mla(mla.clone()),
            RequestInput::Attention {
                q: random_matrix(1, mla.qk_dim(), 4, -1.0, 1.0),
                k: random_matrix(mla.kv, mla.qk_dim(), 5, -1.0, 1.0),
                v: random_matrix(mla.kv, mla.hd, 6, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Moe(moe.clone()),
            RequestInput::Routing {
                x: random_matrix(6, moe.hd, 7, -1.0, 1.0),
                w: random_matrix(moe.hd, moe.en, 8, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Quant(quant.clone()),
            RequestInput::QuantGemm {
                a: random_matrix(5, quant.k, 9, -1.0, 1.0),
                w: random_matrix(quant.k, quant.n, 11, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Variance(var.clone()),
            RequestInput::Rows(random_matrix(3, var.l, 12, -2.0, 2.0)),
        )
        .unwrap(),
        Request::new(
            Workload::Inertia(inertia.clone()),
            RequestInput::Inertia {
                masses: random_vec(32, 13, 0.1, 2.0),
                positions: random_matrix(32, inertia.dim, 14, -1.0, 1.0),
            },
        )
        .unwrap(),
    ];
    let arch = GpuArch::a10();
    for req in requests {
        let plan = rf_codegen::compile_workload(&req.workload, &arch);
        assert!(
            plan.program.as_ref().is_some_and(|p| p.binding.is_some()),
            "{}: compiled kernels must carry an executable program",
            req.workload.name()
        );
        let served = execute_plan(&plan, &req).expect("plan executes");
        let reference = execute_reference(&req.workload, &req.input);
        assert!(
            served.approx_eq(&reference, TOL),
            "{}: interpreted plan and reference disagree",
            req.workload.name()
        );
    }
}

#[test]
fn plans_without_programs_fail_cleanly() {
    let req = Request::softmax(random_matrix(2, 8, 1, -1.0, 1.0));
    let mut plan = rf_codegen::compile_workload(&req.workload, &GpuArch::a10());
    plan.program = None;
    let err = execute_plan(&plan, &req).unwrap_err();
    assert!(matches!(err, RuntimeError::ExecutionFailed { .. }));
}

#[test]
fn mismatched_plan_and_input_fail_cleanly() {
    // A plan compiled for one family must reject another family's
    // tensors instead of panicking the worker.
    let softmax = Request::softmax(random_matrix(2, 8, 1, -1.0, 1.0));
    let plan = rf_codegen::compile_workload(&Workload::Variance(variance_tiny()), &GpuArch::a10());
    // Variance also consumes row-matrices, so cross-feed attention input.
    let mha = mha_request();
    let err = execute_plan(&plan, &mha).unwrap_err();
    assert!(matches!(err, RuntimeError::ExecutionFailed { .. }));
    // Same-kind input is accepted (the VM reads shapes from the tensors).
    assert!(execute_plan(&plan, &softmax).is_ok());
}

#[test]
fn outputs_of_different_kinds_never_compare_equal() {
    let a = RequestOutput::Values(vec![1.0]);
    let b = RequestOutput::Matrix(Matrix::zeros(1, 1));
    assert!(!a.approx_eq(&b, 1.0));
}

#[test]
fn a_nan_matches_only_a_nan_at_the_same_position() {
    let nan = f64::NAN;
    let matrix = |v: Vec<f64>| RequestOutput::Matrix(Matrix::from_vec(1, v.len(), v));
    let routing = |p: f64| {
        RequestOutput::Routing(vec![RoutingDecision {
            experts: vec![2],
            probs: vec![p],
        }])
    };
    let tensors = |v: f64| RequestOutput::Tensors(vec![Matrix::from_vec(1, 1, vec![v])]);
    let cases = [
        (matrix(vec![nan, 1.0]), matrix(vec![0.25, 1.0]), false),
        (matrix(vec![0.25, 1.0]), matrix(vec![nan, 1.0]), false),
        (matrix(vec![nan, 1.0]), matrix(vec![nan, 1.0]), true),
        (matrix(vec![nan, 1.0]), matrix(vec![1.0, nan]), false),
        (
            RequestOutput::Values(vec![nan]),
            RequestOutput::Values(vec![3.0]),
            false,
        ),
        (
            RequestOutput::Values(vec![nan]),
            RequestOutput::Values(vec![nan]),
            true,
        ),
        (routing(nan), routing(0.5), false),
        (routing(0.5), routing(nan), false),
        (routing(nan), routing(nan), true),
        (tensors(nan), tensors(7.0), false),
        (tensors(nan), tensors(nan), true),
        (
            matrix(vec![f64::INFINITY]),
            matrix(vec![f64::INFINITY]),
            true,
        ),
        (matrix(vec![f64::INFINITY]), matrix(vec![1.0]), false),
    ];
    for (i, (a, b, equal)) in cases.iter().enumerate() {
        assert_eq!(a.approx_eq(b, 1e-9), *equal, "case {i}: {a:?} vs {b:?}");
    }
    let (a, b) = (
        Matrix::from_vec(1, 1, vec![nan]),
        Matrix::from_vec(1, 1, vec![7.0]),
    );
    assert_eq!(a.max_abs_diff(&b), f64::INFINITY);
    assert_eq!(a.max_abs_diff(&a), 0.0);
}

#[test]
fn softmax_constructor_derives_workload_from_input() {
    let req = Request::softmax(random_matrix(3, 7, 1, -1.0, 1.0));
    assert_eq!(req.workload, Workload::Softmax { rows: 3, len: 7 });
}

/// Which layer decides a row of the contract table.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    /// The front door admits the tensors and the VM serves them.
    Accept,
    /// The input kind belongs to another family: `InputMismatch` at the
    /// front door, and the VM rejects it.
    Kind,
    /// A rule of the family's `Semantics::check` (an inner dimension, an
    /// empty axis, the `topk` range): `ShapeMismatch` at the front door, and
    /// the VM rejects it.
    Contract,
    /// A row count or axis length the workload fixes: `ShapeMismatch` at the
    /// front door; the VM reads extents from the tensors and serves them.
    Extent,
}

/// A `rows x cols` matrix of values in `[-1, 1)`.
fn m(rows: usize, cols: usize) -> Matrix {
    random_matrix(rows, cols, (rows * 31 + cols) as u64, -1.0, 1.0)
}

fn attention(q: (usize, usize), k: (usize, usize), v: (usize, usize)) -> RequestInput {
    let (q, k, v) = (m(q.0, q.1), m(k.0, k.1), m(v.0, v.1));
    RequestInput::Attention { q, k, v }
}

fn routing(x: (usize, usize), w: (usize, usize)) -> RequestInput {
    let (x, w) = (m(x.0, x.1), m(w.0, w.1));
    RequestInput::Routing { x, w }
}

fn quant_gemm(a: (usize, usize), w: (usize, usize)) -> RequestInput {
    let (a, w) = (m(a.0, a.1), m(w.0, w.1));
    RequestInput::QuantGemm { a, w }
}

fn particles(masses: usize, positions: (usize, usize)) -> RequestInput {
    let masses = random_vec(masses, 13, 0.1, 2.0);
    let positions = m(positions.0, positions.1);
    RequestInput::Inertia { masses, positions }
}

/// Every family's input contract as rows: one accepted input, then one row
/// per rule — the wrong kind, each mismatched dimension, each empty axis and
/// routing's `topk` bounds — with its verdict and a fragment of the error.
#[rustfmt::skip]
fn contract_table() -> Vec<(Workload, RequestInput, Verdict, &'static str)> {
    let softmax = |rows, len| Workload::Softmax { rows, len };
    let var = variance_tiny();
    let variance = |l| Workload::Variance(VarianceConfig { l, ..var.clone() });
    let l = var.l;
    let mha_c = mha_tiny();
    let mha = |q, kv| Workload::Mha(MhaConfig { q, kv, ..mha_c.clone() });
    let (q, kv, hd) = (mha_c.q, mha_c.kv, mha_c.hd);
    let mla_c = mla_tiny();
    let mla = |kv| Workload::Mla(MlaConfig { kv, ..mla_c.clone() });
    let (lkv, lhd, lqk) = (mla_c.kv, mla_c.hd, mla_c.qk_dim());
    let moe_c = moe_tiny();
    let moe = |en, topk| Workload::Moe(MoeConfig { en, topk, ..moe_c.clone() });
    let (rhd, en, topk) = (moe_c.hd, moe_c.en, moe_c.topk);
    let quant_c = quant_tiny();
    let quant = |k, n| Workload::Quant(QuantGemmConfig { k, n, ..quant_c.clone() });
    let (k, n) = (quant_c.k, quant_c.n);
    let inertia = Workload::Inertia(inertia_tiny());
    let dim = inertia_tiny().dim;
    let rows = |r, c| RequestInput::Rows(m(r, c));
    vec![
        (softmax(2, 4), rows(2, 4), Accept, ""),
        (softmax(2, 4), particles(1, (1, 3)), Kind, "requires row-matrix input"),
        (softmax(2, 4), rows(3, 4), Extent, "rows must be 2, got 3"),
        (softmax(2, 4), rows(2, 5), Extent, "axis length must be 4, got 5"),
        (softmax(0, 4), rows(0, 4), Contract, "rows must be non-empty"),
        (softmax(2, 0), rows(2, 0), Contract, "axis must be non-empty"),

        (variance(l), rows(3, l), Accept, ""),
        (variance(l), routing((2, 4), (4, 4)), Kind, "requires row-matrix input"),
        (variance(l), rows(3, l + 1), Extent, "axis length"),
        (variance(l), rows(0, l), Contract, "rows must be non-empty"),
        (variance(0), rows(3, 0), Contract, "axis must be non-empty"),

        (mha(q, kv), attention((q, hd), (kv, hd), (kv, hd)), Accept, ""),
        (mha(q, kv), rows(q, hd), Kind, "requires attention (q/k/v) input"),
        (mha(q, kv), attention((q, hd + 1), (kv, hd), (kv, hd)), Contract, "q width"),
        (mha(q, kv), attention((q, hd), (kv, hd + 1), (kv, hd)), Contract, "k width"),
        (mha(q, kv), attention((q, hd), (kv, hd), (kv, hd + 1)), Contract, "v width"),
        (mha(q, kv), attention((q, hd), (kv, hd), (kv + 1, hd)), Contract, "v rows"),
        (mha(q, kv), attention((q + 1, hd), (kv, hd), (kv, hd)), Extent, "rows"),
        (mha(q, kv), attention((q, hd), (kv + 1, hd), (kv + 1, hd)), Extent, "axis length"),
        (mha(0, kv), attention((0, hd), (kv, hd), (kv, hd)), Contract, "rows must be non-empty"),
        (mha(q, 0), attention((q, hd), (0, hd), (0, hd)), Contract, "axis must be non-empty"),

        (mla(lkv), attention((1, lqk), (lkv, lqk), (lkv, lhd)), Accept, ""),
        (mla(lkv), quant_gemm((1, lqk), (lqk, lhd)), Kind, "requires attention (q/k/v) input"),
        (mla(lkv), attention((1, lqk + 1), (lkv, lqk), (lkv, lhd)), Contract, "q width"),
        (mla(lkv), attention((1, lqk), (lkv, lqk + 1), (lkv, lhd)), Contract, "k width"),
        (mla(lkv), attention((1, lqk), (lkv, lqk), (lkv, lhd + 1)), Contract, "v width"),
        (mla(lkv), attention((1, lqk), (lkv, lqk), (lkv + 1, lhd)), Contract, "v rows"),
        (mla(lkv), attention((2, lqk), (lkv, lqk), (lkv, lhd)), Extent, "rows must be 1"),
        (mla(lkv), attention((1, lqk), (lkv + 1, lqk), (lkv + 1, lhd)), Extent, "axis length"),
        (mla(lkv), attention((0, lqk), (lkv, lqk), (lkv, lhd)), Contract, "rows must be non-empty"),
        (mla(0), attention((1, lqk), (0, lqk), (0, lhd)), Contract, "axis must be non-empty"),

        (moe(en, topk), routing((6, rhd), (rhd, en)), Accept, ""),
        (moe(en, topk), particles(4, (4, 3)), Kind, "requires routing (x/w) input"),
        (moe(en, topk), routing((6, rhd + 1), (rhd, en)), Contract, "x width"),
        (moe(en, topk), routing((6, rhd), (rhd + 1, en)), Contract, "w rows"),
        (moe(en, topk), routing((6, rhd), (rhd, en + 1)), Extent, "axis length"),
        (moe(en, topk), routing((0, rhd), (rhd, en)), Contract, "rows must be non-empty"),
        (moe(0, topk), routing((6, rhd), (rhd, 0)), Contract, "must be in 1..=0"),
        (moe(en, 0), routing((6, rhd), (rhd, en)), Contract, "topk (0)"),
        (moe(en, en + 1), routing((6, rhd), (rhd, en)), Contract, "topk (17) must be in 1..=16"),

        (quant(k, n), quant_gemm((5, k), (k, n)), Accept, ""),
        (quant(k, n), rows(5, k), Kind, "requires quant-gemm (a/w) input"),
        (quant(k, n), quant_gemm((5, k), (k + 1, n)), Contract, "w rows"),
        (quant(k, n), quant_gemm((5, k), (k, n + 1)), Contract, "w width"),
        (quant(k, n), quant_gemm((5, k + 1), (k + 1, n)), Extent, "axis length"),
        (quant(k, n), quant_gemm((0, k), (k, n)), Contract, "rows must be non-empty"),
        (quant(0, n), quant_gemm((5, 0), (0, n)), Contract, "axis must be non-empty"),
        (quant(k, 0), quant_gemm((5, k), (k, 0)), Contract, "w width must be non-empty"),

        (inertia.clone(), particles(32, (32, dim)), Accept, ""),
        (inertia.clone(), rows(32, dim), Kind, "requires inertia (masses/positions) input"),
        (inertia.clone(), particles(32, (40, dim)), Contract, "positions rows"),
        (inertia.clone(), particles(32, (32, dim + 1)), Contract, "positions width"),
        (inertia, particles(0, (0, dim)), Contract, "axis must be non-empty"),
    ]
}

/// Whether a row guards a kernel against an input that would panic it: an
/// empty row set or reduction axis, an empty quant output width, or routing's
/// `topk` outside `1..=experts`.
fn guards_a_kernel_panic(says: &str) -> bool {
    says.contains("non-empty") || says.contains("topk") || says.contains("1..=")
}

/// Checks the table's rows that `pick` selects, together with every family's
/// accepted row, against both layers: `Request::new`'s verdict, variant and
/// message fragment, and that the family's plan rejects exactly the kind and
/// contract rows and serves the extent-only ones.
fn one_contract_decides_the_front_door_and_the_vm(pick: impl Fn(Verdict, &str) -> bool) {
    let arch = GpuArch::a10();
    let mut plans = std::collections::HashMap::new();
    let rows = contract_table().into_iter();
    for (workload, input, verdict, says) in
        rows.filter(|(_, _, verdict, says)| matches!(verdict, Accept) || pick(*verdict, says))
    {
        let row = format!("{} ({verdict:?}: {says})", workload.name());
        match (Request::new(workload.clone(), input.clone()), verdict) {
            (Ok(_), Accept) => {}
            (Err(err @ RuntimeError::InputMismatch { .. }), Kind)
            | (Err(err @ RuntimeError::ShapeMismatch { .. }), Contract | Extent) => {
                let message = err.to_string();
                assert!(message.contains(says), "{row}: the error says `{message}`");
            }
            (other, _) => panic!("{row}: the front door answered {:?}", other.map(|_| ())),
        }
        // The VM runs the same contract on the family's plan (compiled from
        // its accepted row: a zero-size workload does not lower) bound to
        // this row's semantics, and reads extents from the tensors.
        let family = plans.entry(workload.class());
        let mut plan = family
            .or_insert_with(|| compile_workload(&workload, &arch))
            .clone();
        let program = plan.program.as_mut().expect("every plan carries a program");
        program.binding.as_mut().expect("a bound program").semantics = workload.semantics();
        let served = plan.run(&input.as_exec()).map(|_| ());
        let vm_rejects = matches!(verdict, Kind | Contract);
        assert_eq!(
            served.is_err(),
            vm_rejects,
            "{row}: the VM answered {served:?}"
        );
    }
}

#[test]
fn kind_mismatch_is_rejected() {
    one_contract_decides_the_front_door_and_the_vm(|verdict, _| matches!(verdict, Kind));
}

#[test]
fn shape_mismatch_is_rejected() {
    one_contract_decides_the_front_door_and_the_vm(|verdict, says| {
        matches!(verdict, Contract | Extent) && !guards_a_kernel_panic(says)
    });
}

#[test]
fn kernel_panicking_inputs_are_rejected_up_front() {
    one_contract_decides_the_front_door_and_the_vm(|verdict, says| {
        matches!(verdict, Contract) && guards_a_kernel_panic(says)
    });
}
