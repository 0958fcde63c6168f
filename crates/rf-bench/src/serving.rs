//! Closed- and open-loop serving load harness over the `rf-runtime` engine.
//!
//! The harness drives the continuous-batching engine the way a serving
//! evaluation would:
//!
//! * **closed loop** — N client threads each keep a bounded window of
//!   requests in flight (throughput-oriented, classic replay);
//! * **open loop** — a dispatcher issues requests on a Poisson arrival
//!   process at a configured rate, independent of completions (the
//!   latency-under-load regime where admission control and shedding
//!   matter), optionally with bursty phases that multiply the arrival rate.
//!
//! The trace mixes all six workload families with a skewed, repeating shape
//! distribution (softmax-heavy, like decode-time traffic), sprinkles whole
//! operator-graph submissions through the same front door, and spreads
//! requests across the three priority lanes. Every run produces a
//! [`ServingReport`] with throughput, wall-clock and simulated latency
//! percentiles, shed rate and mean batch occupancy, serialisable to the
//! `BENCH_serving.json` schema consumed by CI.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rf_codegen::Workload;
use rf_gpusim::GpuArch;
use rf_graph::{partition, GraphPlan, OpGraph};
use rf_runtime::{
    Engine, Priority, Request, RequestInput, RuntimeConfig, RuntimeError, Submission, Ticket,
    TimeSeriesSnapshot,
};
use rf_trace::quantile_sorted;
use rf_workloads::{
    inertia_tiny, mha_tiny, mla_tiny, moe_tiny, quant_tiny, random_matrix, random_vec,
    variance_tiny, Matrix,
};

/// Builds the `i`-th trace request. The pattern is 10 slots wide and skewed:
/// four softmax of one shape, two of another, then one of each remaining
/// family — repeated shapes are what the plan cache and batcher exploit.
pub fn trace_request(i: u64) -> Request {
    let seed = i * 31;
    match i % 10 {
        0..=3 => Request::softmax(random_matrix(4, 256, seed, -2.0, 2.0)),
        4 | 5 => Request::softmax(random_matrix(2, 1024, seed, -2.0, 2.0)),
        6 => {
            let c = mha_tiny();
            Request::new(
                Workload::Mha(c.clone()),
                RequestInput::Attention {
                    q: random_matrix(c.q, c.hd, seed, -1.0, 1.0),
                    k: random_matrix(c.kv, c.hd, seed + 1, -1.0, 1.0),
                    v: random_matrix(c.kv, c.hd, seed + 2, -1.0, 1.0),
                },
            )
            .expect("tiny MHA request is valid")
        }
        7 => {
            let c = mla_tiny();
            Request::new(
                Workload::Mla(c.clone()),
                RequestInput::Attention {
                    q: random_matrix(1, c.qk_dim(), seed, -1.0, 1.0),
                    k: random_matrix(c.kv, c.qk_dim(), seed + 1, -1.0, 1.0),
                    v: random_matrix(c.kv, c.hd, seed + 2, -1.0, 1.0),
                },
            )
            .expect("tiny MLA request is valid")
        }
        8 => {
            let c = moe_tiny();
            Request::new(
                Workload::Moe(c.clone()),
                RequestInput::Routing {
                    x: random_matrix(16, c.hd, seed, -1.0, 1.0),
                    w: random_matrix(c.hd, c.en, seed + 1, -1.0, 1.0),
                },
            )
            .expect("tiny MoE request is valid")
        }
        _ => match i % 3 {
            0 => {
                let c = quant_tiny();
                Request::new(
                    Workload::Quant(c.clone()),
                    RequestInput::QuantGemm {
                        a: random_matrix(8, c.k, seed, -1.0, 1.0),
                        w: random_matrix(c.k, c.n, seed + 1, -1.0, 1.0),
                    },
                )
                .expect("tiny quant request is valid")
            }
            1 => {
                let c = variance_tiny();
                Request::new(
                    Workload::Variance(c.clone()),
                    RequestInput::Rows(random_matrix(4, c.l, seed, -2.0, 2.0)),
                )
                .expect("tiny variance request is valid")
            }
            _ => {
                let c = inertia_tiny();
                Request::new(
                    Workload::Inertia(c.clone()),
                    RequestInput::Inertia {
                        masses: random_vec(64, seed, 0.1, 2.0),
                        positions: random_matrix(64, c.dim, seed + 1, -1.0, 1.0),
                    },
                )
                .expect("tiny inertia request is valid")
            }
        },
    }
}

/// The priority lane of trace slot `i`: a 1:2:1 high/normal/low mix, so the
/// deficit-weighted lanes all see sustained traffic.
pub fn trace_priority(i: u64) -> Priority {
    match i % 4 {
        1 => Priority::High,
        3 => Priority::Low,
        _ => Priority::Normal,
    }
}

/// How clients drive the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// `clients` threads each keep at most `window` requests in flight.
    Closed {
        /// Concurrent client threads.
        clients: u64,
        /// Per-client in-flight window.
        window: usize,
    },
    /// A dispatcher issues requests on a Poisson process at `rate_rps`
    /// mean arrivals per second, independent of completions. Every
    /// `burst_period` arrivals the phase flips between the base rate and
    /// `rate_rps * burst_factor` (set `burst_factor` to 1.0 for a steady
    /// arrival rate).
    Open {
        /// Mean arrival rate, requests per second.
        rate_rps: f64,
        /// Arrivals per burst phase (0 disables phase flipping).
        burst_period: u64,
        /// Rate multiplier during the bursty phase.
        burst_factor: f64,
    },
}

impl Mode {
    fn name(&self) -> &'static str {
        match self {
            Mode::Closed { .. } => "closed",
            Mode::Open { .. } => "open",
        }
    }
}

/// One serving-harness run.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Target architecture.
    pub arch: GpuArch,
    /// Total submissions to offer (workloads + graphs).
    pub requests: u64,
    /// Load-generation mode.
    pub mode: Mode,
    /// Every `graph_every`-th slot submits a whole operator graph instead of
    /// a single workload (0 disables graph traffic).
    pub graph_every: u64,
    /// Seed of the Poisson arrival process.
    pub seed: u64,
    /// Engine tunables.
    pub runtime: RuntimeConfig,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            arch: GpuArch::h800(),
            requests: 256,
            mode: Mode::Closed {
                clients: 4,
                window: 16,
            },
            graph_every: 10,
            seed: 7,
            runtime: RuntimeConfig::builder()
                .workers(4)
                .max_batch(16)
                .cache_capacity(32)
                .build()
                .expect("default trace runtime config is valid"),
        }
    }
}

/// Per-lane traffic counts carried in a [`ServingReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneReport {
    /// Lane name (`"high"`, `"normal"`, `"low"`).
    pub lane: String,
    /// Submissions accepted onto the lane.
    pub submitted: u64,
    /// Submissions from the lane fully served.
    pub completed: u64,
    /// Submissions to the lane shed by admission control.
    pub shed: u64,
}

/// Per-pipeline-stage wall-clock summary carried in a [`ServingReport`],
/// sourced from the engine's lifetime stage histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (`"queue"`, `"compile"`, `"tune"`, `"execute"`, `"e2e"`).
    pub stage: String,
    /// Requests that contributed a sample to this stage.
    pub count: u64,
    /// Median stage wall time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile stage wall time, microseconds.
    pub p99_us: f64,
}

/// The outcome of one harness run — the numbers `BENCH_serving.json` records.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Architecture name.
    pub arch: String,
    /// `"closed"` or `"open"`.
    pub mode: String,
    /// Submissions offered to the engine.
    pub offered: u64,
    /// Submissions served successfully.
    pub completed: u64,
    /// Submissions delivered an execution error.
    pub failed: u64,
    /// Submissions shed by admission control.
    pub shed: u64,
    /// Wall-clock duration of the run, seconds.
    pub duration_s: f64,
    /// Served requests per wall-clock second.
    pub throughput_rps: f64,
    /// Median wall-clock request latency (submit → result), microseconds.
    pub wall_p50_us: f64,
    /// 99th-percentile wall-clock request latency, microseconds.
    pub wall_p99_us: f64,
    /// Median simulated (GPU-model) latency, microseconds.
    pub sim_p50_us: f64,
    /// 99th-percentile simulated latency, microseconds.
    pub sim_p99_us: f64,
    /// Served requests per second of *simulated* device time: completions
    /// over the device's simulated busy time.
    pub sim_throughput_rps: f64,
    /// `shed / offered`, in `[0, 1]`.
    pub shed_rate: f64,
    /// Mean requests per engine iteration (batch occupancy).
    pub mean_batch_occupancy: f64,
    /// Engine iterations executed.
    pub iterations: u64,
    /// Whole graphs served through the unified front door.
    pub graphs_served: u64,
    /// Per-lane traffic, highest lane first.
    pub lanes: Vec<LaneReport>,
    /// Wall-clock per-stage breakdown (queue/compile/tune/execute/e2e), in
    /// lifecycle order. Empty when the engine ran with tracing off.
    pub stages: Vec<StageReport>,
    /// Rolling time-windowed telemetry over the run. Empty when the engine
    /// ran with tracing off.
    pub timeseries: TimeSeriesSnapshot,
    /// Folded-stack tile-VM op profile (`class;region;op weight`
    /// lines, flamegraph-ready). Empty unless the run profiled
    /// ([`rf_trace::TraceConfig::profile`]).
    pub folded_profile: String,
}

fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "null".to_string()
    }
}

impl ServingReport {
    /// Serialises the report as the `BENCH_serving.json` document.
    pub fn to_json(&self) -> String {
        let lanes = self
            .lanes
            .iter()
            .map(|lane| {
                format!(
                    "{{\"lane\":\"{}\",\"submitted\":{},\"completed\":{},\"shed\":{}}}",
                    lane.lane, lane.submitted, lane.completed, lane.shed
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let stages = self
            .stages
            .iter()
            .map(|stage| {
                format!(
                    "{{\"stage\":\"{}\",\"count\":{},\"p50_us\":{},\"p99_us\":{}}}",
                    stage.stage,
                    stage.count,
                    json_num(stage.p50_us),
                    json_num(stage.p99_us)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let windows = self
            .timeseries
            .windows
            .iter()
            .map(|w| {
                format!(
                    concat!(
                        "{{\"start_ms\":{},\"submitted\":{},\"completed\":{},",
                        "\"failed\":{},\"shed\":{},\"batches\":{},",
                        "\"throughput_rps\":{},\"p99_us\":{},\"shed_rate\":{},",
                        "\"mean_batch\":{},\"busy_frac\":{}}}"
                    ),
                    w.start_ms,
                    w.submitted,
                    w.completed,
                    w.failed,
                    w.shed,
                    w.batches,
                    json_num(w.throughput_rps),
                    json_num(w.p99_us),
                    json_num(w.shed_rate),
                    json_num(w.mean_batch),
                    json_num(w.busy_frac)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\n",
                "  \"bench\": \"serving\",\n",
                "  \"arch\": \"{}\",\n",
                "  \"mode\": \"{}\",\n",
                "  \"offered\": {},\n",
                "  \"completed\": {},\n",
                "  \"failed\": {},\n",
                "  \"shed\": {},\n",
                "  \"duration_s\": {},\n",
                "  \"throughput_rps\": {},\n",
                "  \"wall_p50_us\": {},\n",
                "  \"wall_p99_us\": {},\n",
                "  \"sim_p50_us\": {},\n",
                "  \"sim_p99_us\": {},\n",
                "  \"sim_throughput_rps\": {},\n",
                "  \"shed_rate\": {},\n",
                "  \"mean_batch_occupancy\": {},\n",
                "  \"iterations\": {},\n",
                "  \"graphs_served\": {},\n",
                "  \"lanes\": [{}],\n",
                "  \"stages\": [{}],\n",
                "  \"timeseries\": {{\"window_ms\": {}, \"windows\": [{}]}}\n",
                "}}\n",
            ),
            self.arch,
            self.mode,
            self.offered,
            self.completed,
            self.failed,
            self.shed,
            json_num(self.duration_s),
            json_num(self.throughput_rps),
            json_num(self.wall_p50_us),
            json_num(self.wall_p99_us),
            json_num(self.sim_p50_us),
            json_num(self.sim_p99_us),
            json_num(self.sim_throughput_rps),
            json_num(self.shed_rate),
            json_num(self.mean_batch_occupancy),
            self.iterations,
            self.graphs_served,
            lanes,
            stages,
            self.timeseries.window_ms,
            windows
        )
    }

    /// A human-readable one-screen summary.
    pub fn summary(&self) -> String {
        let mut out = format!(
            concat!(
                "serving trace ({} loop, arch {})\n",
                "  offered {} | completed {} | failed {} | shed {} ({:.1}%)\n",
                "  wall-clock {:.3} s -> {:.1} req/s (sim {:.1} req/s)\n",
                "  latency (wall) p50 {:.1} us, p99 {:.1} us\n",
                "  latency (sim)  p50 {:.1} us, p99 {:.1} us\n",
                "  {} iterations, mean batch occupancy {:.2}, {} graphs served",
            ),
            self.mode,
            self.arch,
            self.offered,
            self.completed,
            self.failed,
            self.shed,
            self.shed_rate * 100.0,
            self.duration_s,
            self.throughput_rps,
            self.sim_throughput_rps,
            self.wall_p50_us,
            self.wall_p99_us,
            self.sim_p50_us,
            self.sim_p99_us,
            self.iterations,
            self.mean_batch_occupancy,
            self.graphs_served
        );
        for stage in &self.stages {
            if stage.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "\n  stage {:<8} n {:>6}  p50 {:>9.1} us  p99 {:>9.1} us",
                stage.stage, stage.count, stage.p50_us, stage.p99_us
            ));
        }
        if let Some(window) = self.timeseries.latest_active() {
            out.push_str(&format!(
                "\n  latest window ({} ms): {:.1} rps, p99 {:.1} us, \
                 shed {:.1}%, batch {:.2}, busy {:.0}%",
                self.timeseries.window_ms,
                window.throughput_rps,
                window.p99_us,
                window.shed_rate * 100.0,
                window.mean_batch,
                window.busy_frac * 100.0
            ));
        }
        out
    }
}

/// The shared MoE-block graph every `graph_every`-th slot submits.
fn trace_graph() -> (Arc<OpGraph>, Arc<GraphPlan>) {
    let graph = rf_graph::builders::moe_block(4, 8, 4);
    let plan = partition(&graph);
    (Arc::new(graph), Arc::new(plan))
}

fn trace_graph_bindings(seed: u64) -> Vec<(String, Matrix)> {
    rf_graph::builders::moe_block_inputs(4, 8, 4, seed)
        .into_iter()
        .map(|(name, matrix)| (name.to_string(), matrix))
        .collect()
}

/// Builds the `i`-th submission of the trace: a prioritised workload request,
/// or (every `graph_every`-th slot) the shared operator graph with its
/// pre-computed partition plan.
fn trace_submission(
    i: u64,
    graph_every: u64,
    graph: &Arc<OpGraph>,
    plan: &Arc<GraphPlan>,
) -> Submission {
    let submission = if graph_every > 0 && i % graph_every == graph_every - 1 {
        Submission::graph_plan(Arc::clone(graph), Arc::clone(plan), trace_graph_bindings(i))
    } else {
        Submission::workload(trace_request(i))
    };
    submission.with_priority(trace_priority(i))
}

/// Samples the next Poisson inter-arrival gap for mean rate `rate_rps`.
fn poisson_gap(rng: &mut StdRng, rate_rps: f64) -> Duration {
    // Inverse CDF of the exponential distribution; clamp u away from 0 so
    // ln never sees it.
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    Duration::from_secs_f64((-u.ln()) / rate_rps.max(1e-9))
}

struct RunOutcome {
    completed: u64,
    failed: u64,
    shed: u64,
    latencies_us: Vec<f64>,
}

/// Drives one trace through a fresh engine and reports the outcome.
///
/// # Panics
///
/// Panics on internal harness errors (a collector thread failing); engine
/// errors (sheds, execution failures) are counted, not propagated.
pub fn run_trace(config: &TraceConfig) -> ServingReport {
    run_traced(config).0
}

/// Like [`run_trace`], additionally returning the engine's Chrome trace-event
/// JSON when `config.runtime.trace` asked for
/// [`rf_trace::TraceLevel::Full`] span recording (`None` otherwise). The
/// JSON loads directly into Perfetto or `chrome://tracing`.
pub fn run_traced(config: &TraceConfig) -> (ServingReport, Option<String>) {
    let engine = Arc::new(Engine::with_config(config.arch.clone(), config.runtime));
    let (graph, plan) = trace_graph();
    let start = Instant::now();
    let mut outcome = match config.mode {
        Mode::Closed { clients, window } => {
            run_closed(&engine, config, &graph, &plan, clients, window)
        }
        Mode::Open {
            rate_rps,
            burst_period,
            burst_factor,
        } => run_open(
            &engine,
            config,
            &graph,
            &plan,
            rate_rps,
            burst_period,
            burst_factor,
        ),
    };
    engine.run_until_drained();
    let duration_s = start.elapsed().as_secs_f64();
    let metrics = engine.metrics();
    let trace_json = engine
        .trace_collector()
        .level()
        .spans_enabled()
        .then(|| engine.chrome_trace());
    let offered = config.requests;
    // Sort the wall-clock samples once and serve every percentile from the
    // shared sort (they were previously re-sorted per percentile call).
    outcome.latencies_us.retain(|v| v.is_finite());
    outcome.latencies_us.sort_by(f64::total_cmp);
    let report = ServingReport {
        arch: config.arch.name.to_string(),
        mode: config.mode.name().to_string(),
        offered,
        completed: outcome.completed,
        failed: outcome.failed,
        shed: outcome.shed,
        duration_s,
        throughput_rps: if duration_s > 0.0 {
            outcome.completed as f64 / duration_s
        } else {
            0.0
        },
        wall_p50_us: quantile_sorted(&outcome.latencies_us, 0.50),
        wall_p99_us: quantile_sorted(&outcome.latencies_us, 0.99),
        sim_p50_us: metrics.lifetime.p50_us,
        sim_p99_us: metrics.lifetime.p99_us,
        sim_throughput_rps: if metrics.busy_us > 0.0 {
            outcome.completed as f64 / (metrics.busy_us * 1e-6)
        } else {
            0.0
        },
        shed_rate: if offered > 0 {
            outcome.shed as f64 / offered as f64
        } else {
            0.0
        },
        mean_batch_occupancy: metrics.mean_batch_size,
        iterations: metrics.batches,
        graphs_served: metrics.graphs_served,
        lanes: metrics
            .lanes
            .iter()
            .map(|lane| LaneReport {
                lane: lane.lane.to_string(),
                submitted: lane.submitted,
                completed: lane.completed,
                shed: lane.shed,
            })
            .collect(),
        stages: metrics
            .stages
            .iter()
            .filter(|stage| stage.wall.count > 0)
            .map(|stage| StageReport {
                stage: stage.stage.to_string(),
                count: stage.wall.count,
                p50_us: stage.wall.p50_us,
                p99_us: stage.wall.p99_us,
            })
            .collect(),
        timeseries: metrics.timeseries,
        folded_profile: engine.op_profile().folded(),
    };
    (report, trace_json)
}

fn run_closed(
    engine: &Arc<Engine>,
    config: &TraceConfig,
    graph: &Arc<OpGraph>,
    plan: &Arc<GraphPlan>,
    clients: u64,
    window: usize,
) -> RunOutcome {
    let clients = clients.max(1);
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let engine = Arc::clone(engine);
            let graph = Arc::clone(graph);
            let plan = Arc::clone(plan);
            let graph_every = config.graph_every;
            let requests = config.requests;
            thread::spawn(move || {
                let mut outcome = RunOutcome {
                    completed: 0,
                    failed: 0,
                    shed: 0,
                    latencies_us: Vec::new(),
                };
                // Client c replays trace slots c, c+clients, c+2*clients, …,
                // keeping a bounded window in flight so the scheduler can
                // form batches without the client modelling infinite demand.
                let slots: Vec<u64> = (client..requests).step_by(clients as usize).collect();
                for chunk in slots.chunks(window.max(1)) {
                    let mut inflight: Vec<(Ticket, Instant)> = Vec::with_capacity(chunk.len());
                    for &i in chunk {
                        let submission = trace_submission(i, graph_every, &graph, &plan);
                        match engine.submit(submission) {
                            Ok(ticket) => inflight.push((ticket, Instant::now())),
                            Err(RuntimeError::Overloaded { .. }) => outcome.shed += 1,
                            Err(err) => panic!("trace submission rejected: {err}"),
                        }
                    }
                    for (ticket, submitted_at) in inflight {
                        match ticket.wait() {
                            Ok(_) => {
                                outcome.completed += 1;
                                outcome
                                    .latencies_us
                                    .push(submitted_at.elapsed().as_secs_f64() * 1e6);
                            }
                            Err(_) => outcome.failed += 1,
                        }
                    }
                }
                outcome
            })
        })
        .collect();
    let mut total = RunOutcome {
        completed: 0,
        failed: 0,
        shed: 0,
        latencies_us: Vec::new(),
    };
    for handle in handles {
        let outcome = handle.join().expect("closed-loop client succeeds");
        total.completed += outcome.completed;
        total.failed += outcome.failed;
        total.shed += outcome.shed;
        total.latencies_us.extend(outcome.latencies_us);
    }
    total
}

fn run_open(
    engine: &Arc<Engine>,
    config: &TraceConfig,
    graph: &Arc<OpGraph>,
    plan: &Arc<GraphPlan>,
    rate_rps: f64,
    burst_period: u64,
    burst_factor: f64,
) -> RunOutcome {
    // Collector pool: tickets are handed off so the dispatcher never blocks
    // on a completion — that is what makes the loop open.
    let (tx, rx) = mpsc::channel::<(Ticket, Instant)>();
    let rx = Arc::new(Mutex::new(rx));
    let collectors: Vec<_> = (0..4)
        .map(|_| {
            let rx = Arc::clone(&rx);
            thread::spawn(move || {
                let mut completed = 0u64;
                let mut failed = 0u64;
                let mut latencies_us = Vec::new();
                loop {
                    let next = rx.lock().expect("collector receiver poisoned").recv();
                    let Ok((ticket, submitted_at)) = next else {
                        break; // dispatcher hung up: trace is fully offered
                    };
                    match ticket.wait() {
                        Ok(_) => {
                            completed += 1;
                            latencies_us.push(submitted_at.elapsed().as_secs_f64() * 1e6);
                        }
                        Err(_) => failed += 1,
                    }
                }
                (completed, failed, latencies_us)
            })
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut shed = 0u64;
    // Arrivals follow an absolute schedule: gaps accumulate onto a virtual
    // clock and the dispatcher sleeps only until each precomputed arrival
    // time. When it falls behind (sleep granularity, a slow submit) it
    // submits immediately instead of stretching every later gap — the
    // offered rate stays the configured rate, which is what makes the loop
    // open rather than paced by the engine.
    let started = Instant::now();
    let mut next_arrival = Duration::ZERO;
    for i in 0..config.requests {
        // Bursty phases: every `burst_period` arrivals the effective rate
        // flips between the base rate and `rate_rps * burst_factor`.
        let bursty = burst_period > 0 && (i / burst_period) % 2 == 1;
        let rate = if bursty {
            rate_rps * burst_factor.max(1e-3)
        } else {
            rate_rps
        };
        next_arrival += poisson_gap(&mut rng, rate);
        let behind = started.elapsed();
        if next_arrival > behind {
            thread::sleep(next_arrival - behind);
        }
        let submission = trace_submission(i, config.graph_every, graph, plan);
        match engine.submit(submission) {
            Ok(ticket) => tx
                .send((ticket, Instant::now()))
                .expect("collector pool alive"),
            // Open-loop semantics: a shed request is lost offered load — no
            // retry, it just counts against the shed rate.
            Err(RuntimeError::Overloaded { .. }) => shed += 1,
            Err(err) => panic!("trace submission rejected: {err}"),
        }
    }
    drop(tx);
    let mut total = RunOutcome {
        completed: 0,
        failed: 0,
        shed,
        latencies_us: Vec::new(),
    };
    for collector in collectors {
        let (completed, failed, latencies_us) = collector.join().expect("collector succeeds");
        total.completed += completed;
        total.failed += failed;
        total.latencies_us.extend(latencies_us);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_runtime::WindowSnapshot;
    use std::collections::HashSet;

    #[test]
    fn trace_covers_all_six_workload_families() {
        let classes: HashSet<&'static str> =
            (0..30).map(|i| trace_request(i).workload.class()).collect();
        for family in [
            "softmax", "mha", "mla", "moe", "quant", "variance", "inertia",
        ] {
            assert!(classes.contains(family), "trace never emits {family}");
        }
    }

    #[test]
    fn trace_priorities_mix_all_three_lanes() {
        let lanes: HashSet<usize> = (0..8).map(|i| trace_priority(i).lane()).collect();
        assert_eq!(lanes.len(), 3, "all three lanes see traffic");
        // Normal dominates: half of all slots.
        let normals = (0..100)
            .filter(|&i| trace_priority(i) == Priority::Normal)
            .count();
        assert_eq!(normals, 50);
    }

    #[test]
    fn poisson_gaps_have_the_configured_mean() {
        let mut rng = StdRng::seed_from_u64(42);
        let rate = 1000.0; // 1 ms mean gap
        let n = 4000;
        let total: f64 = (0..n)
            .map(|_| poisson_gap(&mut rng, rate).as_secs_f64())
            .sum();
        let mean_ms = total / n as f64 * 1e3;
        assert!(
            (0.9..1.1).contains(&mean_ms),
            "mean gap {mean_ms:.3} ms should be ~1 ms"
        );
    }

    #[test]
    fn report_json_carries_every_headline_field() {
        let report = ServingReport {
            arch: "h800".into(),
            mode: "open".into(),
            offered: 100,
            completed: 90,
            failed: 0,
            shed: 10,
            duration_s: 1.5,
            throughput_rps: 60.0,
            wall_p50_us: 100.0,
            wall_p99_us: 900.0,
            sim_p50_us: 5.0,
            sim_p99_us: 50.0,
            sim_throughput_rps: 1200.0,
            shed_rate: 0.1,
            mean_batch_occupancy: 3.5,
            iterations: 40,
            graphs_served: 9,
            lanes: vec![LaneReport {
                lane: "high".into(),
                submitted: 25,
                completed: 25,
                shed: 0,
            }],
            stages: vec![StageReport {
                stage: "e2e".into(),
                count: 90,
                p50_us: 120.0,
                p99_us: 800.0,
            }],
            timeseries: TimeSeriesSnapshot {
                window_ms: 250,
                windows: vec![WindowSnapshot {
                    start_ms: 0,
                    submitted: 90,
                    completed: 90,
                    throughput_rps: 360.0,
                    ..WindowSnapshot::default()
                }],
            },
            folded_profile: String::new(),
        };
        let json = report.to_json();
        for key in [
            "\"bench\": \"serving\"",
            "\"throughput_rps\": 60.000",
            "\"wall_p99_us\": 900.000",
            "\"sim_p50_us\": 5.000",
            "\"sim_throughput_rps\": 1200.000",
            "\"shed_rate\": 0.100",
            "\"mean_batch_occupancy\": 3.500",
            "\"lanes\": [{\"lane\":\"high\"",
            "\"stages\": [{\"stage\":\"e2e\",\"count\":90,\"p50_us\":120.000",
            "\"timeseries\": {\"window_ms\": 250, \"windows\": [{\"start_ms\":0",
            "\"throughput_rps\":360.000",
        ] {
            assert!(json.contains(key), "missing `{key}` in:\n{json}");
        }
        assert!(report.summary().contains("90"));
        assert!(report.summary().contains("stage e2e"));
        assert!(report.summary().contains("latest window (250 ms)"));
        // Non-finite metrics must not produce invalid JSON.
        assert_eq!(json_num(f64::NAN), "null");
    }

    #[test]
    fn closed_loop_trace_accounts_for_every_offered_request() {
        let config = TraceConfig {
            requests: 40,
            mode: Mode::Closed {
                clients: 2,
                window: 8,
            },
            runtime: RuntimeConfig::builder()
                .workers(2)
                .max_batch(8)
                .cache_capacity(32)
                .build()
                .unwrap(),
            ..TraceConfig::default()
        };
        let report = run_trace(&config);
        assert_eq!(report.completed + report.failed + report.shed, 40);
        assert_eq!(report.failed, 0, "the tiny trace never fails execution");
        assert!(report.throughput_rps > 0.0);
        assert!(report.wall_p99_us >= report.wall_p50_us);
        assert!(report.graphs_served >= 1, "graph slots flow through");
        assert!(report.mean_batch_occupancy >= 1.0);
        let lane_submitted: u64 = report.lanes.iter().map(|l| l.submitted).sum();
        assert_eq!(lane_submitted + report.shed, 40);
        // The default trace level (histograms) populates the per-stage
        // breakdown: every served request contributes an e2e sample.
        let e2e = report
            .stages
            .iter()
            .find(|s| s.stage == "e2e")
            .expect("e2e stage present");
        assert_eq!(e2e.count, report.completed);
        assert!(e2e.p99_us >= e2e.p50_us);
        // …and the rolling telemetry, which the CI serving-smoke job asserts
        // is non-empty in the committed report.
        assert!(
            report.timeseries.latest_active().is_some(),
            "completions land in at least one telemetry window"
        );
        assert!(
            report.folded_profile.is_empty(),
            "profiling stays off unless asked for"
        );
    }

    #[test]
    fn profiled_trace_exports_a_valid_folded_stack() {
        let config = TraceConfig {
            requests: 20,
            mode: Mode::Closed {
                clients: 2,
                window: 8,
            },
            runtime: RuntimeConfig::builder()
                .workers(2)
                .max_batch(8)
                .cache_capacity(32)
                .trace(rf_trace::TraceConfig::default().with_profile(true))
                .build()
                .unwrap(),
            ..TraceConfig::default()
        };
        let report = run_trace(&config);
        assert!(report.completed > 0);
        let frames =
            rf_trace::validate_folded(&report.folded_profile).expect("folded profile is valid");
        assert!(frames >= 1, "profiled runs capture op frames");
        assert!(
            report
                .folded_profile
                .lines()
                .any(|line| line.starts_with("softmax;")),
            "frames carry the workload class: {}",
            report.folded_profile
        );
    }

    #[test]
    fn traced_run_returns_a_loadable_perfetto_trace() {
        let config = TraceConfig {
            requests: 30,
            mode: Mode::Closed {
                clients: 2,
                window: 8,
            },
            runtime: RuntimeConfig::builder()
                .workers(2)
                .max_batch(8)
                .trace_level(rf_trace::TraceLevel::Full)
                .build()
                .unwrap(),
            ..TraceConfig::default()
        };
        let (report, trace) = run_traced(&config);
        let json = trace.expect("full tracing yields a trace document");
        let stats = rf_trace::validate_chrome_trace(&json).expect("trace is well-formed");
        assert!(
            stats.spans as u64 >= report.completed,
            "≥1 span per request"
        );
        assert!(stats.request_tracks >= 1);
        assert!(report.to_json().contains("\"stages\": ["));
        // Below Full no trace document is produced.
        let steady = TraceConfig {
            requests: 10,
            ..TraceConfig::default()
        };
        assert!(run_traced(&steady).1.is_none());
    }

    #[test]
    fn open_loop_trace_sheds_when_the_budget_is_tiny() {
        // A 4-slot budget against a fast Poisson stream with a 16x burst:
        // admission control must shed rather than queue without bound, and
        // everything admitted must still complete.
        let config = TraceConfig {
            requests: 120,
            mode: Mode::Open {
                rate_rps: 4000.0,
                burst_period: 20,
                burst_factor: 16.0,
            },
            graph_every: 0,
            runtime: RuntimeConfig::builder()
                .workers(1)
                .max_batch(2)
                .max_in_flight(4)
                .cache_capacity(32)
                .build()
                .unwrap(),
            ..TraceConfig::default()
        };
        let report = run_trace(&config);
        assert_eq!(report.completed + report.failed + report.shed, 120);
        assert!(report.shed > 0, "a 4-slot budget must shed under this load");
        assert!(
            report.shed_rate < 1.0,
            "admission control must still admit work"
        );
        assert!(report.mode == "open");
    }
}
