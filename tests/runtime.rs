//! Integration tests for the serving runtime: concurrent submission of mixed
//! workloads, single-threaded reference agreement, and plan-cache accounting.
//!
//! The central claim: with S submitter threads racing over W distinct
//! workload shapes, every request completes with the same numbers a
//! single-threaded run produces, and the compiler pipeline runs **exactly
//! once per distinct `(workload, arch)` pair** — concurrent first requests
//! for one shape are deduplicated onto a single compilation (no lock is held
//! across compilation or kernel execution, so this is also a liveness test).

use std::collections::HashSet;
use std::sync::Arc;
use std::thread;

use redfuser::codegen::Workload;
use redfuser::gpusim::GpuArch;
use redfuser::runtime::{execute_reference, Engine, Request, RequestInput, RuntimeConfig, Ticket};
use redfuser::workloads::{
    inertia_tiny, mha_tiny, mla_tiny, moe_tiny, quant_tiny, random_matrix, random_vec,
    variance_tiny,
};

/// The mixed request set one submitter thread sends: two softmax shapes, an
/// MHA slice and an MoE routing call, each with thread-specific data.
fn requests_for_thread(thread: u64) -> Vec<Request> {
    let seed = thread * 100;
    let mha = mha_tiny();
    let moe = moe_tiny();
    vec![
        Request::softmax(random_matrix(4, 64, seed, -2.0, 2.0)),
        Request::softmax(random_matrix(2, 128, seed + 1, -2.0, 2.0)),
        Request::new(
            Workload::Mha(mha.clone()),
            RequestInput::Attention {
                q: random_matrix(mha.q, mha.hd, seed + 2, -1.0, 1.0),
                k: random_matrix(mha.kv, mha.hd, seed + 3, -1.0, 1.0),
                v: random_matrix(mha.kv, mha.hd, seed + 4, -1.0, 1.0),
            },
        )
        .expect("tiny MHA request is valid"),
        Request::new(
            Workload::Moe(moe.clone()),
            RequestInput::Routing {
                x: random_matrix(8, moe.hd, seed + 5, -1.0, 1.0),
                w: random_matrix(moe.hd, moe.en, seed + 6, -1.0, 1.0),
            },
        )
        .expect("tiny MoE request is valid"),
    ]
}

#[test]
fn concurrent_mixed_workloads_complete_and_compile_once_per_shape() {
    const SUBMITTERS: u64 = 6;
    let engine = Arc::new(Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(4)
            .max_batch(8)
            .cache_capacity(32)
            .build()
            .expect("valid config"),
    ));

    // Phase 1: S threads race to submit the same workload mix (with
    // per-thread tensor data) all at once.
    let submitters: Vec<_> = (0..SUBMITTERS)
        .map(|t| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let requests = requests_for_thread(t);
                let tickets: Vec<Ticket> = requests
                    .iter()
                    .map(|r| engine.submit(r.clone()).expect("engine accepts requests"))
                    .collect();
                (requests, tickets)
            })
        })
        .collect();
    let submitted: Vec<_> = submitters.into_iter().map(|t| t.join().unwrap()).collect();
    engine.run_until_drained();

    // Phase 2: every request completed, and matches the single-threaded
    // unfused reference execution of the same tensors.
    let mut distinct: HashSet<Workload> = HashSet::new();
    let mut completed = 0u64;
    for (requests, tickets) in submitted {
        for (request, ticket) in requests.iter().zip(tickets) {
            let result = ticket.wait().expect("request must complete");
            let oracle = execute_reference(&request.workload, &request.input);
            assert!(
                result.output.approx_eq(&oracle, 1e-9),
                "{}: concurrent result diverged from single-threaded reference",
                request.workload.name()
            );
            assert!(result.timing().total_us > 0.0);
            assert!(result.batch_size >= 1);
            distinct.insert(request.workload.clone());
            completed += 1;
        }
    }
    assert_eq!(completed, SUBMITTERS * 4);
    assert_eq!(distinct.len(), 4);

    // Phase 3: cache accounting — exactly one miss (one compilation) per
    // distinct (workload, arch) pair, everything else hits.
    let metrics = engine.metrics();
    let stats = metrics.cache;
    assert_eq!(
        stats.misses,
        distinct.len() as u64,
        "each distinct (workload, arch) pair must compile exactly once"
    );
    assert_eq!(stats.entries, distinct.len());
    assert_eq!(stats.evictions, 0);
    assert_eq!(metrics.completed, completed);
    assert_eq!(metrics.queue_depth, 0);
    let e2e = metrics.stages.iter().find(|s| s.stage == "e2e").unwrap();
    assert_eq!(e2e.wall.count, completed);
    assert!(e2e.wall.p99_us >= e2e.wall.p50_us);
    // The cache is consulted once per batch: every lookup beyond the four
    // compiling ones must hit.
    assert_eq!(stats.hits, metrics.batches - distinct.len() as u64);
}

#[test]
fn engine_serves_every_workload_family_from_interpreted_plans() {
    // All six families flow through one path: the cached `CompiledKernel`'s
    // tile program interpreted on the VM. Each family's served output must
    // match the unfused reference, each distinct workload compiles exactly
    // once, and the metrics report a breakdown for every class.
    let mha = mha_tiny();
    let mla = mla_tiny();
    let moe = moe_tiny();
    let quant = quant_tiny();
    let var = variance_tiny();
    let inertia = inertia_tiny();
    let requests: Vec<Request> = vec![
        Request::softmax(random_matrix(4, 64, 30, -2.0, 2.0)),
        Request::new(
            Workload::Mha(mha.clone()),
            RequestInput::Attention {
                q: random_matrix(mha.q, mha.hd, 31, -1.0, 1.0),
                k: random_matrix(mha.kv, mha.hd, 32, -1.0, 1.0),
                v: random_matrix(mha.kv, mha.hd, 33, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Mla(mla.clone()),
            RequestInput::Attention {
                q: random_matrix(1, mla.qk_dim(), 34, -1.0, 1.0),
                k: random_matrix(mla.kv, mla.qk_dim(), 35, -1.0, 1.0),
                v: random_matrix(mla.kv, mla.hd, 36, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Moe(moe.clone()),
            RequestInput::Routing {
                x: random_matrix(6, moe.hd, 37, -1.0, 1.0),
                w: random_matrix(moe.hd, moe.en, 38, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Quant(quant.clone()),
            RequestInput::QuantGemm {
                a: random_matrix(4, quant.k, 39, -2.0, 2.0),
                w: random_matrix(quant.k, quant.n, 40, -1.0, 1.0),
            },
        )
        .unwrap(),
        Request::new(
            Workload::Variance(var.clone()),
            RequestInput::Rows(random_matrix(3, var.l, 41, -2.0, 2.0)),
        )
        .unwrap(),
        Request::new(
            Workload::Inertia(inertia.clone()),
            RequestInput::Inertia {
                masses: random_vec(48, 42, 0.1, 2.0),
                positions: random_matrix(48, inertia.dim, 43, -1.0, 1.0),
            },
        )
        .unwrap(),
    ];
    let engine = Engine::with_config(
        GpuArch::a10(),
        RuntimeConfig::builder()
            .workers(3)
            .max_batch(4)
            .cache_capacity(16)
            .build()
            .expect("valid config"),
    );
    let tickets: Vec<Ticket> = requests
        .iter()
        .map(|r| engine.submit(r.clone()).unwrap())
        .collect();
    engine.run_until_drained();
    for (request, ticket) in requests.iter().zip(tickets) {
        let result = ticket.wait().expect("request completes");
        let oracle = execute_reference(&request.workload, &request.input);
        if let Workload::Quant(_) = request.workload {
            // FP8 quantisation under provisional tile scales is only
            // noise-floor-close to the unfused oracle (see
            // tests/differential.rs); don't couple this test to the tuner
            // happening to pick a whole-row tile.
            use redfuser::runtime::RequestOutput;
            let (RequestOutput::Matrix(a), RequestOutput::Matrix(e)) = (&result.output, &oracle)
            else {
                panic!("quant outputs are matrices");
            };
            let peak = e.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(a.max_abs_diff(e) <= 0.05 * peak + 1e-9);
        } else {
            assert!(
                result.output.approx_eq(&oracle, 1e-9),
                "{}: interpreted plan diverged from reference",
                request.workload.name()
            );
        }
    }
    let metrics = engine.metrics();
    assert_eq!(metrics.cache.misses, 7, "one compile per workload");
    let classes: Vec<&str> = metrics.classes.iter().map(|c| c.class).collect();
    assert_eq!(
        classes,
        ["inertia", "mha", "mla", "moe", "quant", "softmax", "variance"]
    );
    assert!(metrics.classes.iter().all(|c| c.completed >= 1));
}

#[test]
fn resubmitting_after_drain_reuses_cached_plans() {
    let engine = Engine::with_config(
        GpuArch::h800(),
        RuntimeConfig::builder()
            .workers(2)
            .max_batch(4)
            .cache_capacity(8)
            .build()
            .expect("valid config"),
    );
    for round in 0..3u64 {
        let tickets: Vec<Ticket> = (0..4)
            .map(|i| {
                engine
                    .submit(Request::softmax(random_matrix(
                        2,
                        96,
                        round * 10 + i,
                        -1.0,
                        1.0,
                    )))
                    .unwrap()
            })
            .collect();
        engine.run_until_drained();
        for ticket in tickets {
            let result = ticket.wait().unwrap();
            // Only the very first batch of round 0 may compile.
            if round > 0 {
                assert!(result.cache_hit, "later rounds must be served from cache");
            }
        }
    }
    let metrics = engine.metrics();
    assert_eq!((metrics.cache.misses, metrics.completed), (1, 12));
}

#[test]
fn distinct_architectures_are_distinct_cache_keys() {
    let a10 = Engine::new(GpuArch::a10());
    let h800 = Engine::new(GpuArch::h800());
    for engine in [&a10, &h800] {
        engine
            .submit(Request::softmax(random_matrix(2, 48, 5, -1.0, 1.0)))
            .unwrap()
            .wait()
            .unwrap();
    }
    // Each engine compiled the shape for its own architecture.
    assert_eq!(a10.metrics().cache.misses, 1);
    assert_eq!(h800.metrics().cache.misses, 1);
}
