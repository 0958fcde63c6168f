//! `compile_cold` — the compiler with nothing cached.
//!
//! One operation compiles one config on a fresh `PlanCache`/`TuningCache`:
//! `analyze_cascade` then `PlanCache::get_or_compile` (for a graph,
//! `partition` then `get_or_compile` per fused region). `rf-fusion`,
//! `rf-graph`, `rf-codegen` and `rf-gpusim` do all the work; `rf-tile` and
//! the scheduler do none.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rf_codegen::{
    compile_workload, compile_workload_with, executable_program, CompileOptions, SearchMode,
    Workload,
};
use rf_fusion::analyze_cascade;
use rf_gpusim::{estimate_latency, GpuArch};
use rf_graph::{builders, detect_cascades, partition, OpGraph};
use rf_runtime::PlanCache;

use crate::metrics::Report;
use crate::rng::Rng;
use crate::spans::Recorder;
use crate::stats::{class_geomean, rel_over, share, Samples};
use crate::{report_repetitions, sim, timed_setup, Ctx, RepValues, Repetition, Tally, REPETITIONS};

/// Calls per `… xN` span, for the layers whose single call is too short to
/// time.
const TINY_CALL_REPEATS: usize = 32;

enum Target {
    Kernel(Workload),
    Graph(OpGraph),
}

struct Item {
    target: Target,
    arch: GpuArch,
}

pub struct State {
    items: Vec<Item>,
    /// Orders the configs within each round.
    order: Rng,
}

/// The 52 Table 2/3 configs, four softmax shapes and the three
/// `rf_graph::builders` graphs.
fn kernel_set() -> Vec<Workload> {
    use rf_workloads as w;
    let mut set: Vec<Workload> = Vec::new();
    set.extend(w::mha_configs().into_iter().map(Workload::Mha));
    set.extend(w::mla_configs().into_iter().map(Workload::Mla));
    set.extend(w::moe_configs().into_iter().map(Workload::Moe));
    set.extend(w::quant_configs().into_iter().map(Workload::Quant));
    set.extend(w::variance_configs().into_iter().map(Workload::Variance));
    set.extend(w::inertia_configs().into_iter().map(Workload::Inertia));
    for (rows, len) in [(512, 4096), (64, 1024), (4, 8192), (1, 32768)] {
        set.push(Workload::Softmax { rows, len });
    }
    set
}

fn setup(seed: u64) -> State {
    let mut items: Vec<Item> = kernel_set()
        .into_iter()
        .map(|w| Item {
            arch: sim::figure_arch(&w),
            target: Target::Kernel(w),
        })
        .collect();
    for graph in [
        builders::transformer_decoder_layer(64, 64, 128),
        builders::moe_block(64, 64, 8),
        builders::quantized_mlp(32, 128, 64, 32),
    ] {
        items.push(Item {
            target: Target::Graph(graph),
            arch: GpuArch::h800(),
        });
    }
    let mut state = State {
        items,
        order: Rng::new(seed).fork("compile_cold.order"),
    };
    // One untimed round, so code pages and allocator arenas are warm before
    // the first timed compile.
    let mut rec = Recorder::new(false);
    for (id, item) in state.items.iter().enumerate() {
        compile_one(item, id as u64, &mut rec);
    }
    state.order.next_u64();
    state
}

/// One operation. Returns whether the config was proved fusable and compiled
/// to a finite-latency executable kernel, and the operation's host ns.
fn compile_one(item: &Item, id: u64, rec: &mut Recorder) -> (bool, f64) {
    let started = Instant::now();
    let root = rec.open("compile_config", "bench", id);
    let cache = PlanCache::new(item.arch.clone(), 8);
    let ok = match &item.target {
        Target::Kernel(workload) => {
            let (proof, _) = rec.call("analyze_cascade", "rf-fusion", root, id, || {
                analyze_cascade(&workload.cascade_spec())
            });
            let (kernel, _) = rec.call("PlanCache::get_or_compile", "rf-runtime", root, id, || {
                cache.get_or_compile(workload)
            });
            proof.is_ok() && kernel.latency_us.is_finite() && kernel.program.is_some()
        }
        Target::Graph(graph) => {
            let (plan, _) = rec.call("partition", "rf-graph", root, id, || partition(graph));
            let mut ok = plan.fused_regions() > 0;
            for region in plan.regions() {
                let (kernel, _) =
                    rec.call("PlanCache::get_or_compile", "rf-runtime", root, id, || {
                        cache.get_or_compile(&region.workload)
                    });
                ok &= kernel.latency_us.is_finite() && kernel.program.is_some();
            }
            ok
        }
    };
    rec.close(root);
    (ok, started.elapsed().as_nanos() as f64)
}

/// Whole rounds over the config set (in a fresh seeded order each round)
/// until `budget` has passed.
fn repetition(state: &mut State, budget: Duration, rec: &mut Recorder) -> Repetition {
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); state.items.len()];
    let mut order: Vec<usize> = (0..state.items.len()).collect();
    let (mut ops, mut failed) = (0, 0);
    let started = Instant::now();
    while started.elapsed() < budget {
        state.order.shuffle(&mut order);
        for &index in &order {
            let (ok, ns) = compile_one(&state.items[index], index as u64, rec);
            samples[index].push(ns / 1e3);
            ops += 1;
            failed += u64::from(!ok);
        }
    }
    Repetition {
        elapsed_s: started.elapsed().as_secs_f64(),
        per_class: samples.into_iter().map(Samples::new).collect(),
        ops,
        failed,
    }
}

/// The correctness gate, outside every timed section: every config proved
/// fusable, every simulated speedup at least 1, and the guided search's
/// latency equal to the exhaustive oracle's. Returns the gate's failures, the
/// speedups, and per config `(exhaustive host µs, guided == oracle)`.
fn gate(state: &State) -> (u64, sim::SimSpeedups, Vec<(f64, bool)>) {
    let kernels: Vec<&Workload> = state
        .items
        .iter()
        .filter_map(|item| match &item.target {
            Target::Kernel(w) => Some(w),
            Target::Graph(_) => None,
        })
        .collect();
    let speedups = sim::speedups(kernels.iter().copied());
    let mut failures = u64::from(speedups.min < 1.0);
    let exhaustive = CompileOptions {
        mode: SearchMode::Exhaustive,
        ..CompileOptions::default()
    };
    let oracle: Vec<(f64, bool)> = kernels
        .iter()
        .map(|w| {
            let arch = sim::figure_arch(w);
            let guided = compile_workload(w, &arch);
            let started = Instant::now();
            let oracle = compile_workload_with(w, &arch, &exhaustive);
            let us = started.elapsed().as_secs_f64() * 1e6;
            (us, guided.latency_us == oracle.latency_us)
        })
        .collect();
    failures += oracle.iter().filter(|(_, same)| !same).count() as u64;
    failures += kernels
        .iter()
        .filter(|w| analyze_cascade(&w.cascade_spec()).is_err())
        .count() as u64;
    (failures, speedups, oracle)
}

pub fn run(ctx: &Ctx, report: &mut Report, tally: &mut Tally) {
    if ctx.traced {
        return run_traced(ctx, report, tally);
    }
    let mut state = timed_setup(report, || setup(ctx.seed));
    let budget = Duration::from_secs_f64(ctx.seconds / REPETITIONS as f64);
    let mut rec = Recorder::new(false);
    let reps: Vec<RepValues> = (0..REPETITIONS)
        .map(|i| {
            let rep = repetition(&mut state, budget, &mut rec);
            tally.phase(&format!("repetition{i}"), rep.ops, rep.failed);
            rep.values()
        })
        .collect();
    let (gate_failures, speedups, _) = gate(&state);
    tally.phase("gate", 3 * speedups.configs as u64, gate_failures);

    report_repetitions(report, &reps);
    report.set("sim_speedup_geomean", speedups.geomean, speedups.configs);
}

/// The traced run: one untraced repetition (the span-overhead baseline), one
/// repetition with spans on, then rounds that call each layer separately.
fn run_traced(ctx: &Ctx, report: &mut Report, tally: &mut Tally) {
    let mut state = setup(ctx.seed);
    let slice = Duration::from_secs_f64(ctx.seconds / 4.0);
    let plain = repetition(&mut state, slice, &mut Recorder::new(false));
    tally.phase("untraced", plain.ops, plain.failed);
    let mut rec = Recorder::new(true);
    let traced = repetition(&mut state, slice, &mut rec);
    tally.phase("traced", traced.ops, traced.failed);
    report.set(
        "bench.span_overhead_share",
        rel_over(
            class_geomean(&traced.per_class, 50.0),
            class_geomean(&plain.per_class, 50.0),
        ),
        (plain.ops + traced.ops) as usize,
    );

    let mut probes = Probes::default();
    let started = Instant::now();
    while started.elapsed() < slice * 2 || probes.rounds == 0 {
        probe_round(&state, &mut rec, &mut probes);
    }
    tally.phase("layer_probes", probes.calls, probes.failed);

    let (gate_failures, speedups, oracle) = gate(&state);
    tally.phase("gate", 3 * speedups.configs as u64, gate_failures);

    let span_us = |name: &str, layer: &str| {
        Samples::new(
            rec.spans()
                .iter()
                .filter(|s| s.name == name && s.layer == layer)
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        )
    };
    let mut set_p50 = |metric: &str, samples: Samples, scale: f64| {
        report.set(metric, samples.median() * scale, samples.len());
    };
    let per_call_ns = 1e3 / TINY_CALL_REPEATS as f64;
    set_p50(
        "rf-fusion.acrf_us_p50",
        span_us("analyze_cascade", "rf-fusion"),
        1.0,
    );
    set_p50(
        "rf-graph.detect_us_p50",
        span_us("detect_cascades", "rf-graph"),
        1.0,
    );
    set_p50(
        "rf-graph.partition_us_p50",
        span_us("partition", "rf-graph"),
        1.0,
    );
    set_p50(
        "rf-codegen.compile_us_p50",
        span_us("compile_workload", "rf-codegen"),
        1.0,
    );
    set_p50(
        "rf-codegen.lower_us_p50",
        span_us("executable_program", "rf-codegen"),
        1.0,
    );
    set_p50(
        "rf-gpusim.estimate_ns_p50",
        span_us("estimate_latency xN", "rf-gpusim"),
        per_call_ns,
    );
    set_p50(
        "rf-runtime.plan_miss_us_p50",
        span_us("PlanCache::get_or_compile", "rf-runtime"),
        1.0,
    );
    set_p50(
        "rf-runtime.plan_hit_ns_p50",
        span_us("PlanCache hit xN", "rf-runtime"),
        per_call_ns,
    );
    let configs = oracle.len();
    report.set(
        "rf-codegen.exhaustive_us_p50",
        Samples::new(oracle.iter().map(|o| o.0).collect()).median(),
        configs,
    );
    report.set(
        "rf-codegen.guided_matches_oracle_share",
        share(oracle.iter().filter(|o| o.1).count() as f64, configs as f64),
        configs,
    );
    let n = probes.kernels as usize;
    report.set(
        "rf-fusion.acrf_fusable_share",
        share(probes.proved, probes.kernels),
        n,
    );
    report.set(
        "rf-graph.fused_op_share",
        share(probes.fused_ops, probes.fused_ops + probes.glue_ops),
        probes.rounds as usize * 3,
    );
    report.set(
        "rf-codegen.tuner_evals_per_config",
        share(probes.tuner_evaluated, probes.kernels),
        n,
    );
    report.set(
        "rf-codegen.tuner_evals_share",
        share(probes.tuner_evaluated, probes.tuner_space),
        n,
    );
    report.set(
        "rf-runtime.tuner_warm_start_share",
        share(probes.tuning_seeded, probes.tuning_lookups),
        probes.tuning_lookups as usize,
    );
    report.set(
        "rf-gpusim.sim_us_geomean",
        speedups.redfuser_sim_us_geomean,
        speedups.configs,
    );
    crate::report_self_shares(report, &rec);
    crate::write_trace(ctx, &rec);
}

/// Counts read from values the public calls return.
#[derive(Default)]
struct Probes {
    rounds: u64,
    calls: u64,
    failed: u64,
    kernels: f64,
    proved: f64,
    tuner_evaluated: f64,
    tuner_space: f64,
    fused_ops: f64,
    glue_ops: f64,
    tuning_seeded: f64,
    tuning_lookups: f64,
}

/// One pass over the config set calling each layer on its own, a span around
/// each call. A per-architecture `PlanCache` shared across the round lets the
/// tuner warm-start from earlier configs of the same class, and serves the
/// cache-hit probe.
fn probe_round(state: &State, rec: &mut Recorder, probes: &mut Probes) {
    let caches: Vec<PlanCache> = GpuArch::all()
        .into_iter()
        .map(|arch| PlanCache::new(arch, 128))
        .collect();
    for (index, item) in state.items.iter().enumerate() {
        let id = index as u64;
        let root = rec.open("layer_probe", "bench", id);
        match &item.target {
            Target::Kernel(w) => {
                let (proof, _) = rec.call("analyze_cascade", "rf-fusion", root, id, || {
                    analyze_cascade(&w.cascade_spec())
                });
                let (kernel, _) = rec.call("compile_workload", "rf-codegen", root, id, || {
                    compile_workload(w, &item.arch)
                });
                rec.call("executable_program", "rf-codegen", root, id, || {
                    black_box(executable_program(w, &kernel.tuning.point))
                });
                rec.call("estimate_latency xN", "rf-gpusim", root, id, || {
                    for _ in 0..TINY_CALL_REPEATS {
                        black_box(estimate_latency(&item.arch, black_box(&kernel.profile)));
                    }
                });
                let cache = caches
                    .iter()
                    .find(|c| c.arch().name == item.arch.name)
                    .expect("every figure architecture is a GpuArch preset");
                rec.call("PlanCache miss (shared)", "rf-runtime", root, id, || {
                    black_box(cache.get_or_compile(w))
                });
                rec.call("PlanCache hit xN", "rf-runtime", root, id, || {
                    for _ in 0..TINY_CALL_REPEATS {
                        black_box(cache.get_or_compile(black_box(w)));
                    }
                });
                probes.kernels += 1.0;
                probes.proved += f64::from(u8::from(proof.is_ok()));
                probes.tuner_evaluated += kernel.tuning.evaluated as f64;
                probes.tuner_space += kernel.tuning.space_size as f64;
                probes.calls += 6;
                probes.failed += u64::from(proof.is_err() || !kernel.latency_us.is_finite());
            }
            Target::Graph(graph) => {
                let (candidates, _) = rec.call("detect_cascades", "rf-graph", root, id, || {
                    detect_cascades(graph)
                });
                let (plan, _) = rec.call("partition", "rf-graph", root, id, || partition(graph));
                probes.fused_ops += plan.fused_ops() as f64;
                probes.glue_ops += plan.glue_ops() as f64;
                probes.calls += 2;
                probes.failed += u64::from(!candidates.iter().any(|c| c.is_fusable()));
            }
        }
        rec.close(root);
    }
    for cache in &caches {
        let stats = cache.tuning_stats();
        probes.tuning_seeded += stats.seeded as f64;
        probes.tuning_lookups += stats.lookups as f64;
    }
    probes.rounds += 1;
}
