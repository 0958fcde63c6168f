//! Observability integration tests: the engine's telemetry must stay
//! consistent under concurrency and overload.
//!
//! Two properties matter beyond what the unit tests cover:
//!
//! 1. **Conservation** — with many threads submitting, shedding and
//!    completing at once, every submission is accounted for exactly once:
//!    per lane, `submitted == completed + failed + shed` after a drain.
//! 2. **Mid-flight safety** — `Engine::metrics()` is a point-in-time
//!    snapshot callers poll from monitoring threads; taking one while
//!    workers are mid-iteration must never panic and never show more
//!    completions than submissions.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use redfuser::gpusim::GpuArch;
use redfuser::runtime::{
    Engine, Priority, Request, RequestOutput, RuntimeConfig, RuntimeError, Submission, TraceConfig,
    TraceLevel, LANES,
};
use redfuser::trace::validate_chrome_trace;
use redfuser::workloads::random_matrix;

fn engine(workers: usize, max_in_flight: usize, trace: TraceConfig) -> Engine {
    let config = RuntimeConfig::builder()
        .workers(workers)
        .max_batch(4)
        .cache_capacity(16)
        .max_in_flight(max_in_flight)
        .trace(trace)
        .build()
        .expect("valid config");
    Engine::with_config(GpuArch::h800(), config)
}

/// Satellite: multi-threaded submit/shed/complete stress. Six client threads
/// flood a small budget across all three lanes while a monitor thread
/// hammers `metrics()`; afterwards every lane's ledger must balance.
#[test]
fn concurrent_submissions_balance_the_per_lane_ledger() {
    let engine = Arc::new(engine(2, 16, TraceConfig::histograms()));

    // A monitor thread polls snapshots mid-flight the whole time — this is
    // the "snapshot never panics" half of the test. Invariants that must
    // hold at *any* instant are asserted on every poll.
    let stop = Arc::new(AtomicBool::new(false));
    // Polls completed so far, and whether the monitor has exited (set on
    // unwind too, so a failed invariant fails the test instead of hanging
    // the clients that wait on it).
    struct Progress {
        polls: AtomicU64,
        exited: AtomicBool,
    }
    struct ExitFlag(Arc<Progress>);
    impl Drop for ExitFlag {
        fn drop(&mut self) {
            self.0.exited.store(true, Ordering::Relaxed);
        }
    }
    let progress = Arc::new(Progress {
        polls: AtomicU64::new(0),
        exited: AtomicBool::new(false),
    });
    let monitor = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let progress = Arc::clone(&progress);
        thread::spawn(move || {
            let _exit = ExitFlag(Arc::clone(&progress));
            while !stop.load(Ordering::Relaxed) {
                let snapshot = engine.metrics();
                assert!(snapshot.completed + snapshot.failed <= snapshot.submitted);
                // The global figure is derived from the lane counters, so
                // mid-flight the lane sum can never lead it.
                let lane_submitted: u64 = snapshot.lanes.iter().map(|l| l.submitted).sum();
                assert!(lane_submitted <= snapshot.submitted);
                let _ = snapshot.prometheus();
                progress.polls.fetch_add(1, Ordering::Relaxed);
                thread::yield_now();
            }
        })
    };

    let clients: Vec<_> = (0..6u64)
        .map(|client| {
            let engine = Arc::clone(&engine);
            let progress = Arc::clone(&progress);
            thread::spawn(move || {
                let mut tickets = Vec::new();
                let mut shed = [0u64; LANES];
                for round in 0..48u64 {
                    let priority = Priority::ALL[(client + round) as usize % LANES];
                    let request =
                        Request::softmax(random_matrix(4, 64, client * 1000 + round, -1.0, 1.0));
                    match engine.submit(Submission::workload(request).with_priority(priority)) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(RuntimeError::Overloaded { retry_hint, .. }) => {
                            assert!(retry_hint > std::time::Duration::ZERO);
                            shed[priority.lane()] += 1;
                        }
                        Err(other) => panic!("unexpected submit error: {other}"),
                    }
                }
                // Hold the run open until the monitor completes one more
                // poll, so a snapshot is taken strictly mid-flight whatever
                // the scheduler does (a cold compile no longer takes long
                // enough for the monitor thread to come up on its own).
                let seen = progress.polls.load(Ordering::Relaxed);
                while progress.polls.load(Ordering::Relaxed) == seen
                    && !progress.exited.load(Ordering::Relaxed)
                {
                    thread::yield_now();
                }
                let mut completed = 0u64;
                for ticket in tickets {
                    ticket.wait().expect("admitted requests complete");
                    completed += 1;
                }
                (completed, shed)
            })
        })
        .collect();

    let mut client_completed = 0u64;
    let mut client_shed = [0u64; LANES];
    for client in clients {
        let (completed, shed) = client.join().expect("client thread succeeds");
        client_completed += completed;
        for (lane, count) in shed.iter().enumerate() {
            client_shed[lane] += count;
        }
    }
    engine.run_until_drained();
    stop.store(true, Ordering::Relaxed);
    monitor.join().expect("monitor thread succeeds");
    assert!(
        progress.polls.load(Ordering::Relaxed) > 0,
        "the monitor must observe the run mid-flight"
    );

    // The ledger: what clients saw must equal what the engine recorded,
    // globally and per lane. Arrivals conserve exactly — sheds are disjoint
    // from `submitted`, so `submitted + shed == completed + failed + shed`
    // collapses to `submitted == completed + failed` after a drain.
    let snapshot = engine.metrics();
    assert_eq!(snapshot.submitted, 6 * 48 - client_shed.iter().sum::<u64>());
    assert_eq!(snapshot.completed, client_completed);
    assert_eq!(snapshot.failed, 0);
    assert_eq!(snapshot.shed, client_shed.iter().sum::<u64>());
    for (lane, summary) in snapshot.lanes.iter().enumerate() {
        assert_eq!(
            summary.submitted + summary.shed,
            summary.completed + summary.failed + summary.shed,
            "lane {lane} arrivals must balance after a drain",
        );
        assert_eq!(summary.shed, client_shed[lane], "lane {lane} shed count");
    }
    // Histograms ran at the default level: the end-to-end stage saw every
    // completion.
    let e2e = snapshot
        .stages
        .iter()
        .find(|s| s.stage == "e2e")
        .expect("the e2e stage is always present");
    assert_eq!(e2e.wall.count, snapshot.completed);
}

/// Satellite: shed observability. A flood past a tiny budget must surface
/// retry hints and per-lane shed rates in the snapshot and the exposition.
#[test]
fn a_flood_surfaces_retry_hints_and_shed_rates() {
    let engine = engine(1, 4, TraceConfig::histograms());
    let mut admitted = Vec::new();
    let mut shed = 0u64;
    for seed in 0..96 {
        match engine.submit(Request::softmax(random_matrix(8, 256, seed, -1.0, 1.0))) {
            Ok(ticket) => admitted.push(ticket),
            Err(RuntimeError::Overloaded { retry_hint, source }) => {
                assert!(retry_hint > std::time::Duration::ZERO);
                assert!(source.in_flight >= source.budget);
                shed += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(shed > 0, "a 4-slot budget must shed under a 96-burst");
    engine.run_until_drained();
    for ticket in admitted {
        ticket.wait().expect("admitted requests complete");
    }

    let snapshot = engine.metrics();
    assert_eq!(snapshot.shed, shed);
    assert!(snapshot.shed_retry_last_us > 0.0);
    assert!(snapshot.shed_retry_sum_us > 0);
    let normal = &snapshot.lanes[Priority::Normal.lane()];
    assert_eq!(normal.shed, shed);
    assert!(normal.shed_rate() > 0.0 && normal.shed_rate() < 1.0);
    assert_eq!(snapshot.lanes[Priority::High.lane()].shed_rate(), 0.0);

    // The same counters flow into the Prometheus exposition, exactly.
    let exposition = snapshot.prometheus();
    for line in [
        format!("redfuser_requests_total{{outcome=\"shed\"}} {shed}"),
        format!("redfuser_lane_requests_total{{lane=\"normal\",outcome=\"shed\"}} {shed}"),
        format!(
            "redfuser_shed_retry_hint_us {}",
            snapshot.shed_retry_last_us
        ),
        format!(
            "redfuser_shed_retry_hint_us_total {}",
            snapshot.shed_retry_sum_us
        ),
    ] {
        assert!(
            exposition.lines().any(|l| l == line),
            "no `{line}` in:\n{exposition}"
        );
    }
}

/// Instrumentation is observational only: the same requests served with
/// tracing fully off and with everything on (full spans, the tile-VM op
/// profiler) produce bit-identical outputs. With tracing off, the profiler
/// stays empty — the off path never touches it.
#[test]
fn tracing_off_is_bit_identical_to_fully_instrumented_serving() {
    let serve = |trace: TraceConfig| -> (Engine, Vec<RequestOutput>) {
        let engine = engine(2, 256, trace);
        let tickets: Vec<_> = (0..24u64)
            .map(|seed| {
                engine
                    .submit(Request::softmax(random_matrix(4, 128, seed, -2.0, 2.0)))
                    .expect("a 256-slot budget admits 24 requests")
            })
            .collect();
        let outputs = tickets
            .into_iter()
            .map(|t| t.wait().expect("request completes").output)
            .collect();
        engine.run_until_drained();
        (engine, outputs)
    };
    let (dark, plain) = serve(TraceConfig::off());
    let (instrumented, traced) = serve(TraceConfig::full().with_profile(true));
    assert_eq!(
        plain, traced,
        "profiling and telemetry must not perturb results"
    );

    assert!(dark.op_profile().is_empty(), "off never profiles");
    let folded = instrumented.op_profile().folded();
    redfuser::trace::validate_folded(&folded).expect("profile exports valid folded stacks");
    assert!(
        folded.lines().all(|line| line.starts_with("softmax;")),
        "frames carry the class"
    );
}

/// Full tracing under concurrency: the exported Chrome trace must stay
/// well-formed (correctly nested per track) when many workers and clients
/// interleave, and the histogram counters must agree with the span buffer's
/// view of the run.
#[test]
fn concurrent_full_tracing_exports_a_well_formed_trace() {
    let engine = Arc::new(engine(3, 256, TraceConfig::full()));
    let clients: Vec<_> = (0..4u64)
        .map(|client| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                (0..16u64)
                    .map(|round| {
                        let priority = Priority::ALL[(client + round) as usize % LANES];
                        let request =
                            Request::softmax(random_matrix(4, 64, client * 100 + round, -1.0, 1.0));
                        engine
                            .submit(Submission::workload(request).with_priority(priority))
                            .expect("a 256-slot budget admits a 64-burst")
                    })
                    .map(|t| t.wait().expect("request completes"))
                    .fold(0usize, |served, _| served + 1)
            })
        })
        .collect();
    let served: usize = clients
        .into_iter()
        .map(|c| c.join().expect("client thread succeeds"))
        .sum();
    engine.run_until_drained();
    assert_eq!(served, 64);

    assert_eq!(engine.trace_collector().level(), TraceLevel::Full);
    let trace = engine.chrome_trace();
    let stats = validate_chrome_trace(&trace).expect("the trace document is well-formed");
    // Every request leaves at least queue + execute spans on its own track.
    assert_eq!(stats.request_tracks, 64);
    assert!(stats.spans >= 2 * 64);
    assert_eq!(engine.metrics().completed, 64);
}
