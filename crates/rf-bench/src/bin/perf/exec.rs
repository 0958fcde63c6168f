//! `exec_prefill` and `exec_decode` — the tile-VM, called directly on one
//! thread with pre-compiled plans.
//!
//! `exec_prefill` runs many rows over a moderate axis, so the row-block loop
//! of `rf_tile::exec` dominates. `exec_decode` runs 1–4 rows over a long axis
//! (the paper's Multi-Segment / split-KV case), so per-call fixed cost,
//! segment partials and the combine merge dominate instead. Compile, queue
//! and scheduler do no work in either.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rf_codegen::{CompiledKernel, Workload};
use rf_gpusim::GpuArch;
use rf_graph::{builders, partition, GraphPlan, OpGraph};
use rf_runtime::{
    execute_graph_plan, execute_plan, execute_reference, PlanCache, Request, RequestInput,
    RequestOutput,
};
use rf_workloads::{
    InertiaConfig, Matrix, MhaConfig, MlaConfig, MoeConfig, QuantGemmConfig, VarianceConfig,
};

use crate::metrics::{self, Report};
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats::{class_geomean, geomean, rel_over, Samples};
use crate::{report_repetitions, sim, timed_setup, Ctx, RepValues, Repetition, Tally, REPETITIONS};

/// Relative tolerance for every family whose tiling only re-associates exact
/// f64 reductions.
const TIGHT_TOL: f64 = 1e-9;
/// FP8 quant + GEMM moves within the quantisation noise floor across tile
/// sizes; same floor as `tests/differential.rs`.
const QUANT_NOISE: f64 = 0.05;

/// Consecutive runs of one case before the pass moves on. The decode shapes
/// stream up to 36 MB per run, so a case that runs once between the others
/// finds its tensors evicted and its time swings by 20 %; in a burst all but
/// the first run see the steady state.
const BURST: usize = 8;

/// Whether a VM output matches the unfused reference, by the family's rule.
pub fn outputs_match(
    workload: &Workload,
    actual: &RequestOutput,
    expected: &RequestOutput,
) -> bool {
    match (workload, actual, expected) {
        (Workload::Quant(_), RequestOutput::Matrix(a), RequestOutput::Matrix(e)) => {
            let peak = e.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            a.rows() == e.rows()
                && a.cols() == e.cols()
                && a.max_abs_diff(e) <= QUANT_NOISE * peak + TIGHT_TOL
        }
        _ => actual.approx_eq(expected, TIGHT_TOL),
    }
}

/// A seeded request for `workload`; `rows` is the live row count for the
/// families whose config does not fix it.
pub fn request_for(workload: &Workload, rows: usize, rng: &Rng) -> Request {
    let m = |tag: &str, r: usize, c: usize, lo: f64, hi: f64| rng.fork(tag).matrix(r, c, lo, hi);
    let input = match workload {
        Workload::Softmax { rows, len } => RequestInput::Rows(m("rows", *rows, *len, -2.0, 2.0)),
        Workload::Variance(c) => RequestInput::Rows(m("rows", rows, c.l, -2.0, 2.0)),
        Workload::Mha(c) => RequestInput::Attention {
            q: m("q", c.q, c.hd, -1.0, 1.0),
            k: m("k", c.kv, c.hd, -1.0, 1.0),
            v: m("v", c.kv, c.hd, -1.0, 1.0),
        },
        Workload::Mla(c) => RequestInput::Attention {
            q: m("q", 1, c.qk_dim(), -1.0, 1.0),
            k: m("k", c.kv, c.qk_dim(), -1.0, 1.0),
            v: m("v", c.kv, c.hd, -1.0, 1.0),
        },
        Workload::Moe(c) => RequestInput::Routing {
            x: m("x", rows, c.hd, -1.0, 1.0),
            w: m("w", c.hd, c.en, -1.0, 1.0),
        },
        Workload::Quant(c) => RequestInput::QuantGemm {
            a: m("a", rows, c.k, -1.0, 1.0),
            w: m("w", c.k, c.n, -1.0, 1.0),
        },
        Workload::Inertia(c) => RequestInput::Inertia {
            masses: rng.fork("masses").vector(c.n, 0.1, 2.0),
            positions: m("positions", c.n, c.dim, -1.0, 1.0),
        },
    };
    Request::new(workload.clone(), input).expect("generated tensors fit the workload")
}

/// A graph's named input tensors, generated from the seed.
pub fn graph_bindings(graph: &OpGraph, rng: &Rng) -> Vec<(String, Matrix)> {
    graph
        .nodes()
        .iter()
        .filter_map(|node| match &node.op {
            rf_graph::Op::Input { name } => Some((
                name.clone(),
                rng.fork(name)
                    .matrix(node.shape.rows, node.shape.cols, -0.5, 0.5),
            )),
            _ => None,
        })
        .collect()
}

fn input_tensors(input: &RequestInput) -> (usize, usize) {
    let elems = |m: &Matrix| m.rows() * m.cols();
    match input {
        RequestInput::Rows(m) => (m.rows(), elems(m)),
        RequestInput::Attention { q, k, v } => (q.rows(), elems(q) + elems(k) + elems(v)),
        RequestInput::Routing { x, w } => (x.rows(), elems(x) + elems(w)),
        RequestInput::QuantGemm { a, w } => (a.rows(), elems(a) + elems(w)),
        RequestInput::Inertia { masses, positions } => (1, masses.len() + elems(positions)),
    }
}

fn output_elems(output: &RequestOutput) -> usize {
    match output {
        RequestOutput::Matrix(m) => m.rows() * m.cols(),
        RequestOutput::Values(v) => v.len(),
        RequestOutput::Routing(d) => d.iter().map(|d| d.experts.len() * 2).sum(),
        RequestOutput::Tensors(t) => t.iter().map(|m| m.rows() * m.cols()).sum(),
    }
}

enum Body {
    Kernel {
        request: Request,
        kernel: Arc<CompiledKernel>,
    },
    Graph {
        graph: OpGraph,
        plan: GraphPlan,
        bindings: Vec<(String, Matrix)>,
    },
}

/// One shape the workload runs; several cases may share a `family`.
struct Case {
    family: &'static str,
    body: Body,
    /// Output rows one run produces.
    rows: usize,
    /// f64 elements in the input tensors (tensor sizes, not traffic).
    input_elems: usize,
}

pub struct State {
    arch: GpuArch,
    /// Warm plan cache: every kernel and graph region is compiled in set-up.
    cache: PlanCache,
    cases: Vec<Case>,
}

fn shapes(workload: metrics::Workload) -> (Vec<(&'static str, Workload, usize)>, Option<OpGraph>) {
    let mha = |q, kv| {
        Workload::Mha(MhaConfig {
            name: "bench",
            bs: 1,
            hn: 1,
            q,
            kv,
            hd: 64,
            model: "perf",
        })
    };
    let variance = |bs, l| {
        Workload::Variance(VarianceConfig {
            name: "bench",
            bs,
            l,
        })
    };
    if workload == metrics::Workload::ExecPrefill {
        let moe = MoeConfig {
            name: "bench",
            s: 512,
            hd: 256,
            en: 64,
            topk: 8,
            model: "perf",
        };
        let quant = QuantGemmConfig {
            name: "bench",
            m: 256,
            n: 256,
            k: 1024,
            model: "perf",
        };
        let inertia = InertiaConfig {
            name: "bench",
            bs: 64,
            n: 4096,
            dim: 3,
        };
        (
            vec![
                ("mha", mha(256, 1024), 256),
                (
                    "softmax",
                    Workload::Softmax {
                        rows: 512,
                        len: 4096,
                    },
                    512,
                ),
                ("quant", Workload::Quant(quant), 256),
                ("moe", Workload::Moe(moe), 512),
                ("variance", variance(256, 4096), 256),
                ("inertia", Workload::Inertia(inertia), 1),
            ],
            Some(builders::moe_block(256, 128, 8)),
        )
    } else {
        let mla = MlaConfig {
            name: "bench",
            bs: 1,
            hn: 1,
            kv: 4096,
            hd: 512,
            ped: 64,
        };
        (
            vec![
                ("mha", mha(1, 8192), 1),
                ("mla", Workload::Mla(mla), 1),
                (
                    "softmax",
                    Workload::Softmax {
                        rows: 1,
                        len: 32768,
                    },
                    1,
                ),
                ("softmax", Workload::Softmax { rows: 4, len: 8192 }, 4),
                ("variance", variance(1, 65536), 1),
            ],
            None,
        )
    }
}

fn setup(ctx: &Ctx) -> State {
    let arch = GpuArch::h800();
    let cache = PlanCache::new(arch.clone(), 64);
    let rng = Rng::new(ctx.seed);
    let (kernels, graph) = shapes(ctx.workload);
    let mut cases: Vec<Case> = kernels
        .into_iter()
        .enumerate()
        .map(|(i, (family, workload, rows))| {
            let request = request_for(&workload, rows, &rng.fork(&format!("case{i}")));
            let (rows, input_elems) = input_tensors(&request.input);
            Case {
                family,
                rows,
                input_elems,
                body: Body::Kernel {
                    kernel: cache.get_or_compile(&workload),
                    request,
                },
            }
        })
        .collect();
    if let Some(graph) = graph {
        let plan = partition(&graph);
        let bindings = graph_bindings(&graph, &rng.fork("graph"));
        cases.push(Case {
            family: "graph",
            rows: bindings[0].1.rows(),
            input_elems: bindings.iter().map(|(_, m)| m.rows() * m.cols()).sum(),
            body: Body::Graph {
                graph,
                plan,
                bindings,
            },
        });
    }
    let state = State { arch, cache, cases };
    // Warm-up: one run per case compiles the graph's regions and touches
    // every tensor before the first timed run.
    for case in &state.cases {
        run_case(&state, case).expect("warm-up run succeeds");
    }
    state
}

/// One operation: the VM over one case's tensors.
fn run_case(state: &State, case: &Case) -> Result<RequestOutput, String> {
    match &case.body {
        Body::Kernel { request, kernel } => kernel
            .run(&request.input.as_exec())
            .map(RequestOutput::from_exec)
            .map_err(|e| e.to_string()),
        Body::Graph {
            graph,
            plan,
            bindings,
        } => execute_graph_plan(&state.cache, &state.arch, None, graph, plan, bindings)
            .map(|response| RequestOutput::Tensors(response.outputs))
            .map_err(|e| e.to_string()),
    }
}

/// The unfused reference for each case, computed once outside timing.
fn references(state: &State) -> Vec<RequestOutput> {
    state
        .cases
        .iter()
        .map(|case| match &case.body {
            Body::Kernel { request, .. } => execute_reference(&request.workload, &request.input),
            Body::Graph {
                graph, bindings, ..
            } => {
                let named: Vec<(&str, Matrix)> = bindings
                    .iter()
                    .map(|(n, m)| (n.as_str(), m.clone()))
                    .collect();
                RequestOutput::Tensors(graph.evaluate(&named).expect("reference graph evaluates"))
            }
        })
        .collect()
}

/// One untimed run per case, compared with its reference. Returns
/// `(attempted, failed)`.
fn verify(state: &State, references: &[RequestOutput]) -> (u64, u64) {
    let mut failed = 0;
    for (case, expected) in state.cases.iter().zip(references) {
        let ok = run_case(state, case).is_ok_and(|actual| match &case.body {
            Body::Kernel { request, .. } => outputs_match(&request.workload, &actual, expected),
            Body::Graph { .. } => actual.approx_eq(expected, TIGHT_TOL),
        });
        if !ok {
            println!(
                "mismatch: {} output differs from its reference",
                case.family
            );
            failed += 1;
        }
    }
    (state.cases.len() as u64, failed)
}

/// Round-robin passes over the cases until `budget` has passed: every case
/// gets the same number of runs, [`BURST`] in a row per pass.
fn repetition(state: &State, budget: Duration, rec: &mut Recorder) -> Repetition {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); state.cases.len()];
    let (mut ops, mut failed) = (0, 0);
    let started = Instant::now();
    // Spans of one case share the case's index as id; the enclosing pass
    // spans get the id after the last case.
    let pass_id = state.cases.len() as u64;
    while started.elapsed() < budget {
        let root = rec.open("pass", "bench", pass_id);
        for (index, case) in state.cases.iter().enumerate() {
            let (name, layer) = match case.body {
                Body::Kernel { .. } => ("CompiledKernel::run", "rf-tile"),
                Body::Graph { .. } => ("execute_graph_plan", "rf-runtime"),
            };
            for _ in 0..BURST {
                let (output, ns) =
                    rec.call(name, layer, root, index as u64, || run_case(state, case));
                failed += u64::from(black_box(output).is_err());
                samples[index].push(ns / 1e3);
                ops += 1;
            }
        }
        rec.close(root);
    }
    Repetition {
        elapsed_s: started.elapsed().as_secs_f64(),
        per_class: samples.into_iter().map(Samples::new).collect(),
        ops,
        failed,
    }
}

fn kernel_workloads(state: &State) -> Vec<Workload> {
    state
        .cases
        .iter()
        .filter_map(|case| match &case.body {
            Body::Kernel { request, .. } => Some(request.workload.clone()),
            Body::Graph { .. } => None,
        })
        .collect()
}

pub fn run(ctx: &Ctx, report: &mut Report, tally: &mut Tally) {
    if ctx.traced {
        return run_traced(ctx, report, tally);
    }
    let state = timed_setup(report, || setup(ctx));
    let expected = references(&state);
    let budget = Duration::from_secs_f64(ctx.seconds / REPETITIONS as f64);
    let mut rec = Recorder::new(false);
    let reps: Vec<RepValues> = (0..REPETITIONS)
        .map(|i| {
            let rep = repetition(&state, budget, &mut rec);
            let (checked, mismatched) = verify(&state, &expected);
            tally.phase(
                &format!("repetition{i}"),
                rep.ops + checked,
                rep.failed + mismatched,
            );
            rep.values()
        })
        .collect();
    let speedups = sim::speedups(&kernel_workloads(&state));
    report_repetitions(report, &reps);
    report.set("sim_speedup_geomean", speedups.geomean, speedups.configs);
}

/// The four ways into one plan that the probe passes time side by side.
const ENTRIES: usize = 4;
const RUN: usize = 0;
const EXECUTE_PLAN: usize = 1;
const PROFILED: usize = 2;
const REFERENCE: usize = 3;

/// Host µs samples per entry point for one kernel case, index-aligned so
/// sample `i` of every entry comes from the same probe pass.
#[derive(Default)]
struct Probe {
    us: [Vec<f64>; ENTRIES],
    /// `(op invocations, modelled bytes)` of one profiled run — exact counts.
    profile_counts: (u64, u64),
}

impl Probe {
    /// Median over passes of `f(entry a, entry b)` taken within one pass, so
    /// slow drift of the host cancels.
    fn paired(&self, a: usize, b: usize, f: fn(f64, f64) -> f64) -> f64 {
        let pairs = self.us[a].iter().zip(&self.us[b]);
        Samples::new(pairs.map(|(&a, &b)| f(a, b)).collect()).median()
    }
}

/// One probe pass over a kernel case: `CompiledKernel::run`, `execute_plan`,
/// `run_profiled` and the unfused reference on the same tensors. The entry
/// that goes first finds the tensors cold, so the starting entry rotates
/// with `pass`. Returns the calls that failed.
fn probe_case(
    request: &Request,
    kernel: &CompiledKernel,
    (pass, id): (usize, u64),
    probe: &mut Probe,
    rec: &mut Recorder,
) -> u64 {
    let root = rec.open("layer_probe", "bench", id);
    let input = request.input.as_exec();
    let mut failed = 0;
    for k in 0..ENTRIES {
        let entry = (pass + k) % ENTRIES;
        let ns = match entry {
            RUN => {
                let (out, ns) = rec.call("CompiledKernel::run", "rf-tile", root, id, || {
                    kernel.run(&input)
                });
                failed += u64::from(black_box(out).is_err());
                ns
            }
            EXECUTE_PLAN => {
                let (out, ns) = rec.call("execute_plan", "rf-runtime", root, id, || {
                    execute_plan(kernel, request)
                });
                failed += u64::from(black_box(out).is_err());
                ns
            }
            PROFILED => {
                let (out, ns) =
                    rec.call("CompiledKernel::run_profiled", "rf-tile", root, id, || {
                        kernel.run_profiled(&input)
                    });
                match out {
                    Ok((_, profile)) => {
                        let ops = &profile.ops;
                        probe.profile_counts = (
                            ops.iter().map(|o| o.invocations).sum(),
                            ops.iter().map(|o| o.bytes_read + o.bytes_written).sum(),
                        );
                    }
                    Err(_) => failed += 1,
                }
                ns
            }
            _ => {
                let (out, ns) = rec.call("execute_reference", "rf-runtime", root, id, || {
                    execute_reference(&request.workload, &request.input)
                });
                black_box(out);
                ns
            }
        };
        probe.us[entry].push(ns / 1e3);
    }
    rec.close(root);
    failed
}

/// The traced run: one untraced repetition (the span-overhead baseline), one
/// with spans on, then passes that time `execute_plan`, `run_profiled` and
/// the unfused reference next to `CompiledKernel::run` on the same tensors.
fn run_traced(ctx: &Ctx, report: &mut Report, tally: &mut Tally) {
    let state = setup(ctx);
    let expected = references(&state);
    let slice = Duration::from_secs_f64(ctx.seconds / 4.0);
    let plain = repetition(&state, slice, &mut Recorder::new(false));
    tally.phase("untraced", plain.ops, plain.failed);
    let mut rec = Recorder::new(true);
    let traced = repetition(&state, slice, &mut rec);
    let (checked, mismatched) = verify(&state, &expected);
    tally.phase("traced", traced.ops + checked, traced.failed + mismatched);
    report.set(
        "bench.span_overhead_share",
        rel_over(
            class_geomean(&traced.per_class, 50.0),
            class_geomean(&plain.per_class, 50.0),
        ),
        (plain.ops + traced.ops) as usize,
    );

    let mut probes: Vec<Probe> = state.cases.iter().map(|_| Probe::default()).collect();
    let (mut passes, mut failed) = (0usize, 0u64);
    let started = Instant::now();
    while started.elapsed() < slice * 2 || passes == 0 {
        for (index, case) in state.cases.iter().enumerate() {
            if let Body::Kernel { request, kernel } = &case.body {
                let at = (passes, index as u64);
                failed += probe_case(request, kernel, at, &mut probes[index], &mut rec);
            }
        }
        passes += 1;
    }
    let probes: Vec<Probe> = probes
        .into_iter()
        .filter(|p| !p.us[RUN].is_empty())
        .collect();
    let calls = passes * probes.len() * ENTRIES;
    tally.phase("layer_probes", calls as u64, failed);

    // Per-family p50 from the traced repetition (several shapes of one
    // family: the geomean of their medians).
    let families = [
        "mha", "mla", "softmax", "moe", "quant", "variance", "inertia", "graph",
    ];
    for family in families {
        let medians: Vec<f64> = (state.cases.iter().zip(&traced.per_class))
            .filter(|(case, _)| case.family == family)
            .map(|(_, samples)| samples.median())
            .collect();
        if !medians.is_empty() {
            let n = traced.per_class[0].len() * medians.len();
            report.set(format!("rf-tile.{family}_us_p50"), geomean(&medians), n);
        }
    }
    // One round-robin pass runs each case once.
    let rounds = traced.per_class[0].len() as f64;
    let rows: usize = state.cases.iter().map(|c| c.rows).sum();
    let bytes: usize = (state.cases.iter().zip(&expected))
        .map(|(case, out)| 8 * (case.input_elems + output_elems(out)))
        .sum();
    let n = traced.ops as usize;
    report.set(
        "rf-tile.rows_per_s",
        rows as f64 * rounds / traced.elapsed_s,
        n,
    );
    report.set(
        "rf-tile.computed_gbytes_per_s",
        bytes as f64 * rounds / traced.elapsed_s / 1e9,
        n,
    );

    let counts = |f: fn(&Probe) -> u64| probes.iter().map(f).sum::<u64>() as f64;
    report.set(
        "rf-tile.op_invocations_per_run",
        counts(|p| p.profile_counts.0),
        probes.len(),
    );
    report.set(
        "rf-tile.model_bytes_per_run",
        counts(|p| p.profile_counts.1),
        probes.len(),
    );
    let across = |a: usize, b: usize, f: fn(f64, f64) -> f64| -> Vec<f64> {
        probes.iter().map(|p| p.paired(a, b, f)).collect()
    };
    report.set(
        "rf-tile.vm_over_reference_ratio",
        geomean(&across(RUN, REFERENCE, |vm, reference| vm / reference)),
        calls,
    );
    report.set(
        "rf-tile.profiled_overhead_share",
        geomean(&across(PROFILED, RUN, |profiled, run| profiled / run)) - 1.0,
        calls,
    );
    report.set(
        "rf-runtime.execute_plan_overhead_ns",
        Samples::new(across(EXECUTE_PLAN, RUN, |plan, run| (plan - run) * 1e3)).median(),
        calls,
    );
    crate::report_self_shares(report, &rec);
    crate::write_trace(ctx, &rec);
}
