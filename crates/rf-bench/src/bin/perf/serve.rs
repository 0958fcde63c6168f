//! `serve_tiny` — the serving engine on a warm plan cache with tiny shapes,
//! so queueing, batching, routing and delivery dominate.
//!
//! Load shape: one process; the load generator is this thread, the engine has
//! one worker on one tile-VM H800 device (the host has two cores). A run has
//! two parts. **Closed loop**: one client holds 128 requests in flight, for
//! saturation throughput and the latencies that go with it; the bounded
//! end-to-end numbers are these. **Open loop** at a fixed 10 000 rps and at a
//! fixed 25 000 rps (steady Poisson arrivals from the seed; every request is
//! timed from when it was *due*; tickets are collected by `try_take` polling
//! on the generator thread, so out-of-order lane completions are not
//! inflated): printed and checked, but not bounded — half of such a latency
//! is this host waking the worker's idle core.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rf_codegen::Workload;
use rf_gpusim::GpuArch;
use rf_graph::{builders, partition, GraphPlan, OpGraph};
use rf_runtime::{
    execute_reference, Engine, LaneWeights, MetricsSnapshot, Priority, QueuedWork, Request,
    RequestOutput, RequestTiming, Response, RuntimeConfig, RuntimeError, StreamScheduler,
    Submission, Ticket, TraceConfig, TraceLevel,
};
use rf_workloads::Matrix;

use crate::exec::{graph_bindings, outputs_match, request_for};
use crate::metrics::Report;
use crate::rng::{poisson_schedule, Rng};
use crate::spans::Recorder;
use crate::stats::{rel_over, share, Samples};
use crate::{report_repetitions, sim, timed_setup, Ctx, RepValues, Tally, REPETITIONS};

/// Offered rates of the two open-loop phases, ≈20 % and ≈50 % of the
/// single-worker capacity measured when the benchmark was defined.
const RATES_RPS: [f64; 2] = [10_000.0, 25_000.0];
const RATE_TAGS: [&str; 2] = ["r10k", "r25k"];
/// In-flight requests the closed-loop client holds.
const CLOSED_WINDOW: usize = 128;
/// Length of the closed loop's slot sequence (whole blocks of 20 and of 4).
const CLOSED_SLOTS: usize = 20_000;
/// Share of an untraced run's measured time the closed-loop repetitions
/// take; the open-loop phases share the rest.
const CLOSED_SHARE: f64 = 0.7;
/// Open-loop phases per rate in an untraced run.
const OPEN_REPETITIONS: usize = 3;
const MAX_BATCH: usize = 16;
/// Admission budget: 1.3 s of backlog at 25k rps before the engine sheds, so
/// a host stall of a few hundred ms lengthens latencies instead of failing
/// requests.
const MAX_IN_FLIGHT: usize = 32_768;
/// Distinct seeded inputs per slot kind.
const POOL_VARIANTS: usize = 32;
/// One response in this many is compared with its reference.
const SAMPLE_ONE_IN: usize = 64;

/// The traffic mix, as one block of 20 slots that is reshuffled from the
/// seed for every block: softmax-heavy like decode-time traffic, all six
/// tiny families present, every 10th request a whole `moe_block` graph.
const BLOCK: [usize; 20] = [0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 8];
const GRAPH_KIND: usize = 8;
/// Lanes 1:2:1 high/normal/low, reshuffled per block of four.
const LANE_BLOCK: [Priority; 4] = [
    Priority::High,
    Priority::Normal,
    Priority::Normal,
    Priority::Low,
];

/// The eight single-workload slot kinds: `(workload, live rows)`.
fn kinds() -> Vec<(Workload, usize)> {
    use rf_workloads as w;
    vec![
        (Workload::Softmax { rows: 4, len: 256 }, 4),
        (Workload::Softmax { rows: 2, len: 1024 }, 2),
        (Workload::Mha(w::mha_tiny()), 0),
        (Workload::Mla(w::mla_tiny()), 0),
        (Workload::Moe(w::moe_tiny()), 16),
        (Workload::Quant(w::quant_tiny()), 8),
        (Workload::Variance(w::variance_tiny()), 4),
        (Workload::Inertia(w::inertia_tiny()), 0),
    ]
}

/// Every input the engine will ever receive, generated from the seed.
struct Pool {
    /// `requests[kind][variant]`.
    requests: Vec<Vec<Request>>,
    graph: Arc<OpGraph>,
    plan: Arc<GraphPlan>,
    graph_bindings: Vec<Arc<Vec<(String, Matrix)>>>,
}

impl Pool {
    fn generate(seed: u64) -> Pool {
        let rng = Rng::new(seed).fork("serve_tiny.pool");
        let requests = kinds()
            .iter()
            .enumerate()
            .map(|(k, (workload, rows))| {
                (0..POOL_VARIANTS)
                    .map(|v| request_for(workload, *rows, &rng.fork(&format!("k{k}v{v}"))))
                    .collect()
            })
            .collect();
        let graph = builders::moe_block(4, 8, 4);
        let plan = partition(&graph);
        let graph_bindings = (0..POOL_VARIANTS)
            .map(|v| Arc::new(graph_bindings(&graph, &rng.fork(&format!("graph{v}")))))
            .collect();
        Pool {
            requests,
            graph: Arc::new(graph),
            plan: Arc::new(plan),
            graph_bindings,
        }
    }

    /// The submission for one slot. Workload tensors are cloned from the
    /// pool (the engine takes ownership); graphs share theirs.
    fn submission(&self, slot: Slot) -> Submission {
        if slot.kind == GRAPH_KIND {
            Submission::Graph {
                graph: Arc::clone(&self.graph),
                plan: Some(Arc::clone(&self.plan)),
                bindings: Arc::clone(&self.graph_bindings[slot.variant]),
                priority: slot.lane,
            }
        } else {
            Submission::Workload {
                request: Box::new(self.requests[slot.kind][slot.variant].clone()),
                priority: slot.lane,
            }
        }
    }

    /// The unfused reference output of every pool entry, `[kind][variant]`.
    fn references(&self) -> Vec<Vec<RequestOutput>> {
        let mut all: Vec<Vec<RequestOutput>> = self
            .requests
            .iter()
            .map(|variants| {
                variants
                    .iter()
                    .map(|r| execute_reference(&r.workload, &r.input))
                    .collect()
            })
            .collect();
        all.push(
            self.graph_bindings
                .iter()
                .map(|bindings| {
                    let named: Vec<(&str, Matrix)> = bindings
                        .iter()
                        .map(|(n, m)| (n.as_str(), m.clone()))
                        .collect();
                    RequestOutput::Tensors(self.graph.evaluate(&named).expect("graph evaluates"))
                })
                .collect(),
        );
        all
    }

    fn matches(
        &self,
        slot: Slot,
        actual: &RequestOutput,
        references: &[Vec<RequestOutput>],
    ) -> bool {
        let expected = &references[slot.kind][slot.variant];
        if slot.kind == GRAPH_KIND {
            actual.approx_eq(expected, 1e-9)
        } else {
            outputs_match(&self.requests[slot.kind][0].workload, actual, expected)
        }
    }
}

/// One request of a phase: what to send and on which lane.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Slot {
    kind: usize,
    variant: usize,
    lane: Priority,
    /// Whether the response is compared with its reference.
    sampled: bool,
}

/// `n` slots from the seed: mix, lanes, pool variants and the 1-in-64
/// correctness sample.
fn slot_sequence(rng: &mut Rng, n: usize) -> Vec<Slot> {
    let (mut block, mut lanes) = (BLOCK, LANE_BLOCK);
    (0..n)
        .map(|i| {
            if i % block.len() == 0 {
                rng.shuffle(&mut block);
            }
            if i % lanes.len() == 0 {
                rng.shuffle(&mut lanes);
            }
            Slot {
                kind: block[i % block.len()],
                variant: rng.below(POOL_VARIANTS),
                lane: lanes[i % lanes.len()],
                sampled: rng.below(SAMPLE_ONE_IN) == 0,
            }
        })
        .collect()
}

fn start_engine(trace: TraceConfig) -> Engine {
    let config = RuntimeConfig::builder()
        .workers(1)
        .max_batch(MAX_BATCH)
        .cache_capacity(32)
        .max_in_flight(MAX_IN_FLIGHT)
        .trace(trace)
        .build()
        .expect("the benchmark's engine configuration is valid");
    Engine::with_config(GpuArch::h800(), config)
}

/// Submits every pool entry once, then waits for them all, so every plan is
/// compiled and cached before a timed phase. Returns each slot with its
/// result. Everything is queued before the first wait: the worker runs
/// through it without sleeping, and set-up time does not depend on how fast
/// this host wakes a thread 288 times over.
fn warm_up(engine: &Engine, pool: &Pool) -> Vec<(Slot, Result<Response, RuntimeError>)> {
    let tickets: Vec<(Slot, Result<Ticket, RuntimeError>)> = (0..=GRAPH_KIND)
        .flat_map(|kind| (0..POOL_VARIANTS).map(move |variant| (kind, variant)))
        .map(|(kind, variant)| {
            let slot = Slot {
                kind,
                variant,
                lane: Priority::Normal,
                sampled: true,
            };
            (slot, engine.submit(pool.submission(slot)))
        })
        .collect();
    tickets
        .into_iter()
        .map(|(slot, ticket)| (slot, ticket.and_then(Ticket::wait)))
        .collect()
}

struct State {
    pool: Pool,
    engine: Engine,
    warm_up: Vec<(Slot, Result<Response, RuntimeError>)>,
    /// Keep every request's stage timings and `submit` duration (the traced
    /// run's per-layer numbers). An untraced run keeps only latencies, so its
    /// peak memory is the engine's and not the benchmark's notes.
    detail: bool,
}

fn setup(seed: u64, trace: TraceConfig, detail: bool) -> State {
    let pool = Pool::generate(seed);
    let engine = start_engine(trace);
    let warm_up = warm_up(&engine, &pool);
    State {
        pool,
        engine,
        warm_up,
        detail,
    }
}

/// Open-loop timekeeping: each request is timed from when it was *due*, so a
/// late generator lengthens the latency it reports instead of hiding it.
#[derive(Debug, Default)]
struct OpenLoopLedger {
    due_ns: Vec<u64>,
    /// How late after its due time each request was handed to `submit`.
    late_us: Vec<f64>,
    /// Due time → result observed, for each completed request.
    latency_us: Vec<f64>,
}

impl OpenLoopLedger {
    fn dispatched(&mut self, index: usize, now_ns: u64) {
        self.late_us
            .push(now_ns.saturating_sub(self.due_ns[index]) as f64 / 1e3);
    }

    fn completed(&mut self, index: usize, now_ns: u64) {
        self.latency_us
            .push(now_ns.saturating_sub(self.due_ns[index]) as f64 / 1e3);
    }
}

/// What the engine reported about the requests of one phase.
#[derive(Default)]
struct Stages {
    queue_us: Vec<f64>,
    compile_us: Vec<f64>,
    execute_us: Vec<f64>,
    unaccounted_us: Vec<f64>,
    iterations_waited: f64,
}

impl Stages {
    fn record(&mut self, timing: &RequestTiming) {
        self.queue_us.push(timing.queue_us);
        self.compile_us.push(timing.compile_us);
        self.execute_us.push(timing.execute_us);
        self.unaccounted_us
            .push(timing.total_us - timing.accounted_us());
        self.iterations_waited += timing.iterations_waited as f64;
    }
}

struct PhaseResult {
    tag: &'static str,
    offered: u64,
    succeeded: u64,
    shed: u64,
    /// Execution errors plus sampled responses that missed their reference.
    failed: u64,
    /// From due time (open) or from the submit call (closed); a shed or
    /// failed request counts as the whole phase length.
    latency_us: Samples,
    late_us: Samples,
    submit_ns: Vec<f64>,
    stages: Stages,
    /// Completions per second inside the measured window.
    throughput_rps: f64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    /// In-flight at the end of an open phase more than twice mid-phase.
    backlog_growing: bool,
}

impl PhaseResult {
    fn batch_occupancy(&self) -> f64 {
        share(
            (self.after.completed - self.before.completed) as f64,
            (self.after.batches - self.before.batches) as f64,
        )
    }

    fn shed_share(&self) -> f64 {
        share(
            (self.after.shed - self.before.shed) as f64,
            self.offered as f64,
        )
    }

    /// The engine's own ledger must agree with what the generator saw.
    fn ledger_mismatches(&self) -> u64 {
        let accepted = self.after.submitted - self.before.submitted;
        u64::from(accepted != self.offered - self.shed)
            + u64::from(self.after.shed - self.before.shed != self.shed)
    }

    fn print(&self) {
        println!(
            "phase workload=serve_tiny phase={} sent={} succeeded={} shed={} failed={} \
             lat_p10_us={:.1} lat_p50_us={:.1} lat_p95_us={:.1} throughput_rps={:.0} \
             gen_late_us_p99={:.1} gen_late_us_max={:.1} generator_valid={} backlog={} \
             (host clock)",
            self.tag,
            self.offered,
            self.succeeded,
            self.shed,
            self.failed,
            self.latency_us.percentile(10.0),
            self.latency_us.median(),
            self.latency_us.percentile(95.0),
            self.throughput_rps,
            self.late_us.percentile(99.0),
            self.late_us.max(),
            // A generator later than a tenth of the median latency is
            // shaping the load it claims to offer.
            self.late_us.percentile(99.0) <= 0.10 * self.latency_us.median(),
            if self.backlog_growing {
                "GROWING"
            } else {
                "steady"
            },
        );
    }
}

/// An accepted request the generator is still waiting for.
struct InFlight {
    ticket: Ticket,
    index: usize,
    submit_start_ns: u64,
    submit_end_ns: u64,
}

/// Everything one phase needs besides its arrival pattern.
struct PhaseRun<'a> {
    state: &'a State,
    references: &'a [Vec<RequestOutput>],
    slots: Vec<Slot>,
    rec: &'a mut Recorder,
    started: Instant,
    in_flight: Vec<InFlight>,
    /// Requests the last [`PhaseRun::poll`] saw finish: `(index, origin ns,
    /// observed ns)`.
    finished: Vec<(usize, u64, u64)>,
    stages: Stages,
    submit_ns: Vec<f64>,
    succeeded: u64,
    shed: u64,
    failed: u64,
}

/// How one phase's loop ended, for [`PhaseRun::finish`].
struct LoopSummary {
    window_s: f64,
    completed_in_window: u64,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    backlog_growing: bool,
}

impl<'a> PhaseRun<'a> {
    fn new(
        state: &'a State,
        references: &'a [Vec<RequestOutput>],
        slots: Vec<Slot>,
        rec: &'a mut Recorder,
    ) -> Self {
        PhaseRun {
            state,
            references,
            slots,
            rec,
            started: Instant::now(),
            in_flight: Vec::with_capacity(1024),
            finished: Vec::new(),
            stages: Stages::default(),
            submit_ns: Vec::new(),
            succeeded: 0,
            shed: 0,
            failed: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Hands one prepared submission to the engine, timing only the call.
    fn submit(&mut self, index: usize, submission: Submission) {
        let submit_start_ns = self.now_ns();
        let ticket = self.state.engine.submit(submission);
        let submit_end_ns = self.now_ns();
        if self.state.detail {
            self.submit_ns
                .push((submit_end_ns - submit_start_ns) as f64);
        }
        match ticket {
            Ok(ticket) => self.in_flight.push(InFlight {
                ticket,
                index,
                submit_start_ns,
                submit_end_ns,
            }),
            Err(RuntimeError::Overloaded { .. }) => self.shed += 1,
            Err(_) => self.failed += 1,
        }
    }

    /// Polls every in-flight ticket once and lists the requests that
    /// finished in `self.finished`; `origin_ns` is where a request's latency
    /// starts (its due time in an open loop, its submit call in a closed one).
    fn poll(&mut self, origin_ns: impl Fn(&InFlight) -> u64) {
        self.finished.clear();
        let mut i = 0;
        while i < self.in_flight.len() {
            let Some(result) = self.in_flight[i].ticket.try_take() else {
                i += 1;
                continue;
            };
            let now_ns = self.now_ns();
            let flight = self.in_flight.swap_remove(i);
            let slot = self.slots[flight.index];
            let Ok(response) = result else {
                self.failed += 1;
                continue;
            };
            let origin_ns = origin_ns(&flight);
            if self.state.detail {
                self.stages.record(&response.timing);
            }
            self.trace_request(&flight, origin_ns, now_ns, &response.timing);
            let pool = &self.state.pool;
            if slot.sampled && !pool.matches(slot, &response.output, self.references) {
                self.failed += 1;
            } else {
                self.succeeded += 1;
            }
            self.finished.push((flight.index, origin_ns, now_ns));
        }
    }

    /// Spans of one finished request: the root from its origin to the
    /// observed result, the `submit` call, and the stages the engine
    /// reported, laid end to end after the call returned.
    fn trace_request(
        &mut self,
        flight: &InFlight,
        origin_ns: u64,
        done_ns: u64,
        timing: &RequestTiming,
    ) {
        let id = flight.index as u64;
        let Some(root) = self
            .rec
            .push("request", "bench", None, id, origin_ns, done_ns)
        else {
            return;
        };
        let root = Some(root);
        self.rec.push(
            "Engine::submit",
            "rf-runtime",
            root,
            id,
            flight.submit_start_ns,
            flight.submit_end_ns,
        );
        let mut at = flight.submit_end_ns;
        for (name, us) in [
            ("queue", timing.queue_us),
            ("compile", timing.compile_us),
            ("execute", timing.execute_us),
        ] {
            let end = (at + (us * 1e3) as u64).min(done_ns);
            self.rec.push(name, "rf-runtime", root, id, at, end);
            at = end;
        }
    }

    fn finish(
        self,
        tag: &'static str,
        before: MetricsSnapshot,
        summary: LoopSummary,
    ) -> PhaseResult {
        let offered = self.succeeded + self.shed + self.failed;
        // A shed or failed request has no latency: it counts as the whole
        // phase, so it can never meet a latency limit.
        let mut latency_us = summary.latency_us;
        latency_us.resize(offered as usize, summary.window_s * 1e6);
        PhaseResult {
            tag,
            offered,
            succeeded: self.succeeded,
            shed: self.shed,
            failed: self.failed,
            latency_us: Samples::new(latency_us),
            late_us: Samples::new(summary.late_us),
            submit_ns: self.submit_ns,
            stages: self.stages,
            throughput_rps: summary.completed_in_window as f64 / summary.window_s,
            before,
            after: self.state.engine.metrics(),
            backlog_growing: summary.backlog_growing,
        }
    }
}

/// One open-loop phase at `rate_rps` for `duration`.
fn open_phase(
    state: &State,
    references: &[Vec<RequestOutput>],
    rng: &Rng,
    tag: &'static str,
    rate_rps: f64,
    duration: Duration,
    rec: &mut Recorder,
) -> PhaseResult {
    let duration_s = duration.as_secs_f64();
    let mut ledger = OpenLoopLedger {
        due_ns: poisson_schedule(&mut rng.fork("arrivals"), rate_rps, duration_s),
        ..OpenLoopLedger::default()
    };
    let n = ledger.due_ns.len();
    ledger.late_us.reserve_exact(n);
    ledger.latency_us.reserve_exact(n);
    let slots = slot_sequence(&mut rng.fork("slots"), n);
    let before = state.engine.metrics();
    let mut run = PhaseRun::new(state, references, slots, rec);
    // In-flight depth seen at each dispatch, for the backlog check.
    let mut depth_at_dispatch: Vec<u32> = Vec::with_capacity(n);
    let mut next = 0;
    // The next submission is built while waiting for its due time, so the
    // due → submit path holds only the `submit` call.
    let mut prepared = (n > 0).then(|| state.pool.submission(run.slots[0]));
    while next < n || !run.in_flight.is_empty() {
        while next < n && ledger.due_ns[next] <= run.now_ns() {
            ledger.dispatched(next, run.now_ns());
            depth_at_dispatch.push(run.in_flight.len() as u32);
            let submission = prepared.take().expect("prepared while waiting");
            run.submit(next, submission);
            next += 1;
            prepared = (next < n).then(|| state.pool.submission(run.slots[next]));
        }
        let due_ns = &ledger.due_ns;
        run.poll(|flight| due_ns[flight.index]);
        for &(index, _, now_ns) in &run.finished {
            ledger.completed(index, now_ns);
        }
        // Nothing finished: offer this core to whatever else is runnable, so
        // it does not preempt the engine's worker on the other core instead.
        if run.finished.is_empty() {
            std::thread::yield_now();
        }
    }
    let mean_depth = |from: usize, to: usize| {
        let window = &depth_at_dispatch[n * from / 100..n * to / 100];
        share(
            window.iter().map(|&d| f64::from(d)).sum(),
            window.len() as f64,
        )
    };
    let (mid, end) = (mean_depth(45, 55), mean_depth(90, 100));
    let backlog_growing = end > 2.0 * mid && end >= MAX_BATCH as f64;
    let summary = LoopSummary {
        window_s: duration_s,
        completed_in_window: run.succeeded,
        latency_us: ledger.latency_us,
        late_us: ledger.late_us,
        backlog_growing,
    };
    run.finish(tag, before, summary)
}

/// The closed-loop phase: one client keeps [`CLOSED_WINDOW`] requests in
/// flight for `duration`; throughput counts the completions inside it.
fn closed_phase(
    state: &State,
    references: &[Vec<RequestOutput>],
    rng: &Rng,
    duration: Duration,
    rec: &mut Recorder,
) -> PhaseResult {
    let duration_ns = duration.as_nanos() as u64;
    // The slot sequence wraps; its length does not depend on how many
    // requests the engine gets through.
    let n = CLOSED_SLOTS;
    let slots = slot_sequence(&mut rng.fork("slots"), n);
    let before = state.engine.metrics();
    let mut run = PhaseRun::new(state, references, slots, rec);
    // Room for more than any plausible throughput, so the vector never moves.
    let mut latency_us: Vec<f64> =
        Vec::with_capacity((duration.as_secs_f64() * 100_000.0) as usize + CLOSED_WINDOW);
    let (mut next, mut completed_in_window) = (0usize, 0u64);
    loop {
        let open = run.now_ns() < duration_ns;
        while open && run.in_flight.len() < CLOSED_WINDOW {
            let submission = state.pool.submission(run.slots[next % n]);
            run.submit(next % n, submission);
            next += 1;
        }
        if run.in_flight.is_empty() {
            break;
        }
        run.poll(|flight| flight.submit_start_ns);
        for &(_, submitted_ns, now_ns) in &run.finished {
            latency_us.push((now_ns - submitted_ns) as f64 / 1e3);
            completed_in_window += u64::from(now_ns <= duration_ns);
        }
        if run.finished.is_empty() {
            std::thread::yield_now();
        }
    }
    let summary = LoopSummary {
        window_s: duration.as_secs_f64(),
        completed_in_window,
        latency_us,
        late_us: Vec::new(),
        backlog_growing: false,
    };
    run.finish("closed", before, summary)
}

/// Checks every warm-up response against its reference.
fn verify_warm_up(state: &State, references: &[Vec<RequestOutput>]) -> (u64, u64) {
    let failed = state
        .warm_up
        .iter()
        .filter(|(slot, result)| {
            !result
                .as_ref()
                .is_ok_and(|r| state.pool.matches(*slot, &r.output, references))
        })
        .count();
    (state.warm_up.len() as u64, failed as u64)
}

fn tally_phase(tally: &mut Tally, phase: &PhaseResult) {
    phase.print();
    tally.phase(
        phase.tag,
        phase.offered,
        phase.shed + phase.failed + phase.ledger_mismatches(),
    );
}

fn workloads() -> Vec<Workload> {
    kinds().into_iter().map(|(w, _)| w).collect()
}

pub fn run(ctx: &Ctx, report: &mut Report, tally: &mut Tally) {
    if ctx.traced {
        return run_traced(ctx, report, tally);
    }
    let state = timed_setup(report, || setup(ctx.seed, TraceConfig::off(), false));
    let references = state.pool.references();
    let (checked, mismatched) = verify_warm_up(&state, &references);
    tally.phase("warm_up", checked, mismatched);

    let rng = Rng::new(ctx.seed).fork("serve_tiny.phases");
    let mut rec = Recorder::new(false);

    // The bounded numbers come from the closed loop. At saturation the worker
    // never sleeps, so its latencies hold the engine's queueing, batching and
    // lane order and not how long this host takes to wake an idle core —
    // which is half of an open-loop latency here and moves it by a quarter
    // between two runs of the same code.
    let closed_len = Duration::from_secs_f64(ctx.seconds * CLOSED_SHARE / REPETITIONS as f64);
    let reps: Vec<RepValues> = (0..REPETITIONS)
        .map(|rep| {
            let rng = rng.fork(&format!("rep{rep}.closed"));
            let closed = closed_phase(&state, &references, &rng, closed_len, &mut rec);
            tally_phase(tally, &closed);
            RepValues {
                p10: closed.latency_us.percentile(10.0),
                p50: closed.latency_us.median(),
                p95: closed.latency_us.percentile(95.0),
                ops_per_s: closed.throughput_rps,
                samples: closed.offered as usize,
            }
        })
        .collect();
    // Peak memory is read here, before the open loop: a host stall there
    // queues thousands of requests, and the peak would be the stall's.
    report_repetitions(report, &reps);

    // The open loop: printed, checked and counted, not bounded.
    let open_len = Duration::from_secs_f64(
        ctx.seconds * (1.0 - CLOSED_SHARE) / (OPEN_REPETITIONS * RATES_RPS.len()) as f64,
    );
    for rep in 0..OPEN_REPETITIONS {
        for (rate, tag) in RATES_RPS.into_iter().zip(RATE_TAGS) {
            let rng = rng.fork(&format!("rep{rep}.{tag}"));
            let open = open_phase(&state, &references, &rng, tag, rate, open_len, &mut rec);
            tally_phase(tally, &open);
        }
    }
    let speedups = sim::speedups(&workloads());
    report.set("sim_speedup_geomean", speedups.geomean, speedups.configs);
}

/// `StreamScheduler` alone on this thread, no backend: enqueue →
/// `next_iteration` → `fulfil` → `finish_iteration`. Returns host ns per
/// request and the requests timed.
fn scheduler_ns_per_request(pool: &Pool, budget: Duration) -> (f64, usize) {
    const BURST: usize = 64;
    let scheduler =
        StreamScheduler::new(MAX_BATCH, MAX_IN_FLIGHT, LaneWeights::default().as_array());
    let response = Response {
        id: 0,
        workload: String::new(),
        output: RequestOutput::Values(Vec::new()),
        simulated_us: 0.0,
        batch_size: 1,
        cache_hit: true,
        iteration: 0,
        priority: Priority::Normal,
        device: 0,
        graph: None,
        timing: RequestTiming::default(),
    };
    let (mut timed_ns, mut requests) = (0u128, 0usize);
    let started = Instant::now();
    while started.elapsed() < budget || requests == 0 {
        // Built outside the timed section: the work items and their replies.
        let mut tickets = Vec::with_capacity(BURST);
        let work: Vec<QueuedWork> = (0..BURST)
            .map(|i| {
                let slot = Slot {
                    kind: i % 2,
                    variant: i % POOL_VARIANTS,
                    lane: LANE_BLOCK[i % 4],
                    sampled: false,
                };
                let (work, ticket) = QueuedWork::new(i as u64, pool.submission(slot));
                tickets.push(ticket);
                work
            })
            .collect();
        let mut replies = vec![response.clone(); BURST];
        let timer = Instant::now();
        for item in work {
            scheduler
                .enqueue(item, Duration::ZERO)
                .expect("a burst fits the in-flight budget");
        }
        while scheduler.depth() > 0 {
            let iteration = scheduler.next_iteration().expect("work is queued");
            let size = iteration.work.len();
            for item in iteration.work {
                item.fulfil(Ok(replies.pop().expect("one reply per request")));
            }
            scheduler.finish_iteration(size);
        }
        timed_ns += timer.elapsed().as_nanos();
        requests += BURST;
        drop(tickets);
    }
    (timed_ns as f64 / requests as f64, requests)
}

/// The traced run, all at `TraceLevel::Off` unless said: the 10k open phase
/// without and with the benchmark's spans, the 25k open phase, the closed
/// phase, the closed phase again at `Histograms`, `Full` and `Full`+profile,
/// and the scheduler on its own.
fn run_traced(ctx: &Ctx, report: &mut Report, tally: &mut Tally) {
    let state = setup(ctx.seed, TraceConfig::off(), true);
    let references = state.pool.references();
    let (checked, mismatched) = verify_warm_up(&state, &references);
    tally.phase("warm_up", checked, mismatched);

    let phase = Duration::from_secs_f64(ctx.seconds / 7.5);

    let rng = Rng::new(ctx.seed).fork("serve_tiny.traced");
    let mut off = Recorder::new(false);
    let mut rec = Recorder::new(true);
    let open = |state: &State, tag, rate, rng: Rng, rec: &mut Recorder| {
        open_phase(state, &references, &rng, tag, rate, phase, rec)
    };
    let plain = open(&state, "r10k", RATES_RPS[0], rng.fork("r10k"), &mut off);
    tally_phase(tally, &plain);
    // Same arrivals and slots as `plain`, spans on.
    let traced = open(&state, "r10k", RATES_RPS[0], rng.fork("r10k"), &mut rec);
    tally_phase(tally, &traced);
    let r25k = open(&state, "r25k", RATES_RPS[1], rng.fork("r25k"), &mut off);
    tally_phase(tally, &r25k);
    let closed = closed_phase(&state, &references, &rng.fork("closed"), phase, &mut off);
    tally_phase(tally, &closed);

    let levels = [
        ("hist", TraceLevel::Histograms, false),
        ("full", TraceLevel::Full, false),
        ("profile", TraceLevel::Full, true),
    ];
    for (name, level, profile) in levels {
        let config = TraceConfig {
            level,
            profile,
            ..TraceConfig::default()
        };
        let leveled = setup(ctx.seed, config, false);
        // Same slots as the `Off` closed phase. At saturation every cost the
        // level adds to a request shows as lost throughput; the p50 at 10k
        // rps flips between two wake-up regimes of this host and hides it.
        let result = closed_phase(&leveled, &references, &rng.fork("closed"), phase, &mut off);
        tally_phase(tally, &result);
        report.set(
            format!("rf-trace.{name}_overhead_share"),
            rel_over(closed.throughput_rps, result.throughput_rps),
            result.offered as usize,
        );
    }
    let (sched_ns, sched_n) = scheduler_ns_per_request(&state.pool, phase / 2);
    report.set("rf-runtime.sched_ns_per_request", sched_ns, sched_n);

    report.set(
        "bench.span_overhead_share",
        rel_over(traced.latency_us.median(), plain.latency_us.median()),
        plain.latency_us.len() + traced.latency_us.len(),
    );
    crate::report_self_shares(report, &rec);
    for (result, tag) in [(&traced, "r10k"), (&r25k, "r25k")] {
        let n = result.latency_us.len();
        for (p, name) in [(50.0, "p50"), (95.0, "p95"), (99.0, "p99")] {
            report.set(
                format!("rf-runtime.lat_{name}_us_{tag}"),
                result.latency_us.percentile(p),
                n,
            );
        }
    }
    report.set(
        "rf-runtime.lat_p999_us_r25k",
        r25k.latency_us.percentile(99.9),
        r25k.latency_us.len(),
    );
    report.set(
        "rf-runtime.sat_throughput_rps",
        closed.throughput_rps,
        closed.offered as usize,
    );
    let phases = [&traced, &r25k, &closed];
    for result in phases {
        let (tag, n) = (result.tag, result.offered as usize);
        let p50 = |v: &Vec<f64>| Samples::new(v.clone()).median();
        report.set(
            format!("rf-runtime.queue_us_p50_{tag}"),
            p50(&result.stages.queue_us),
            n,
        );
        report.set(
            format!("rf-runtime.execute_us_p50_{tag}"),
            p50(&result.stages.execute_us),
            n,
        );
        report.set(
            format!("rf-runtime.batch_occupancy_mean_{tag}"),
            result.batch_occupancy(),
            n,
        );
        report.set(
            format!("rf-runtime.shed_share_{tag}"),
            result.shed_share(),
            n,
        );
    }
    let pooled = |f: fn(&PhaseResult) -> &Vec<f64>| -> Samples {
        Samples::new(phases.iter().flat_map(|p| f(p).iter().copied()).collect())
    };
    let sum = |f: &dyn Fn(&PhaseResult) -> f64| phases.iter().map(|p| f(p)).sum::<f64>();
    let offered = sum(&|p| p.offered as f64);
    let n = offered as usize;
    report.set(
        "rf-runtime.submit_ns_p50",
        pooled(|p| &p.submit_ns).median(),
        n,
    );
    report.set(
        "rf-runtime.queue_us_p95",
        pooled(|p| &p.stages.queue_us).percentile(95.0),
        n,
    );
    report.set(
        "rf-runtime.compile_us_p50",
        pooled(|p| &p.stages.compile_us).median(),
        n,
    );
    report.set(
        "rf-runtime.unaccounted_us_p50",
        pooled(|p| &p.stages.unaccounted_us).median(),
        n,
    );
    report.set(
        "rf-runtime.iterations_waited_mean",
        share(
            sum(&|p| p.stages.iterations_waited),
            sum(&|p| p.succeeded as f64),
        ),
        n,
    );
    let cache =
        |p: &PhaseResult, f: fn(&MetricsSnapshot) -> u64| (f(&p.after) - f(&p.before)) as f64;
    let hits = sum(&|p| cache(p, |m| m.cache.hits));
    let misses = sum(&|p| cache(p, |m| m.cache.misses));
    report.set("rf-runtime.plan_hit_share", share(hits, hits + misses), n);
    report.set(
        "rf-runtime.failed_share",
        share(sum(&|p| cache(p, |m| m.failed)), offered),
        n,
    );
    report.set(
        "bench.gen_late_us_p99",
        r25k.late_us.percentile(99.0),
        r25k.late_us.len(),
    );
    report.set(
        "bench.gen_late_us_max",
        r25k.late_us.max(),
        r25k.late_us.len(),
    );
    crate::write_trace(ctx, &rec);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_when_the_generator_is_late() {
        let mut ledger = OpenLoopLedger {
            due_ns: vec![1_000, 2_000, 3_000],
            ..OpenLoopLedger::default()
        };
        // Request 1 was due at 2 µs but the generator only got to it at
        // 52 µs; its result arrived at 82 µs. The reported latency is 80 µs
        // (from due), not 30 µs (from dispatch), and the lateness is 50 µs.
        ledger.dispatched(0, 1_000);
        ledger.completed(0, 31_000);
        ledger.dispatched(1, 52_000);
        ledger.completed(1, 82_000);
        assert_eq!(ledger.late_us, vec![0.0, 50.0]);
        assert_eq!(ledger.latency_us, vec![30.0, 80.0]);
        // A clock read just before the due instant never goes negative.
        ledger.dispatched(2, 2_999);
        assert_eq!(ledger.late_us[2], 0.0);
    }

    #[test]
    fn seed_alone_determines_slots_lanes_and_inputs() {
        let slots = |seed| slot_sequence(&mut Rng::new(seed).fork("slots"), 400);
        assert_eq!(slots(5), slots(5));
        assert_ne!(slots(5), slots(6));
        // Every block of 20 holds the exact mix; every block of 4 the 1:2:1
        // lanes.
        for block in slots(5).chunks(20) {
            let mut kinds: Vec<usize> = block.iter().map(|s| s.kind).collect();
            kinds.sort_unstable();
            assert_eq!(kinds, BLOCK);
        }
        for block in slots(5).chunks(4) {
            let normal = block.iter().filter(|s| s.lane == Priority::Normal).count();
            assert_eq!(normal, 2);
        }
        let sums = |seed| -> Vec<u64> {
            let pool = Pool::generate(seed);
            let first = &pool.requests[0][0];
            let rf_runtime::RequestInput::Rows(m) = &first.input else {
                panic!("softmax takes rows");
            };
            vec![
                crate::rng::checksum(m.as_slice()),
                crate::rng::checksum(pool.graph_bindings[3][0].1.as_slice()),
            ]
        };
        assert_eq!(sums(5), sums(5));
        assert_ne!(sums(5), sums(6));
    }

    #[test]
    fn a_tiny_open_and_closed_phase_serve_every_request_correctly() {
        let state = setup(11, TraceConfig::off(), true);
        let references = state.pool.references();
        assert_eq!(verify_warm_up(&state, &references).1, 0);
        let rng = Rng::new(11);
        let mut rec = Recorder::new(true);
        let phase = Duration::from_millis(40);
        let open = open_phase(&state, &references, &rng, "r10k", 5_000.0, phase, &mut rec);
        assert!(open.offered > 100);
        assert_eq!(
            (open.succeeded, open.shed, open.failed),
            (open.offered, 0, 0)
        );
        assert_eq!(open.latency_us.len() as u64, open.offered);
        assert_eq!(open.ledger_mismatches(), 0);
        // Five spans per request, all nested under a root on its own track.
        assert_eq!(rec.spans().len() as u64, 5 * open.offered);
        rf_trace::validate_chrome_trace(&rec.chrome_json()).expect("valid trace");
        let closed = closed_phase(&state, &references, &rng, phase, &mut rec);
        assert!(closed.succeeded > 0 && closed.failed == 0);
        assert!(closed.throughput_rps > 0.0);
        let (ns, n) = scheduler_ns_per_request(&state.pool, Duration::from_millis(5));
        assert!(ns > 0.0 && n >= 64);
    }
}
