//! Criterion benchmark: scalar-IR interpretation of the unfused vs fused
//! attention-row kernels (the rf-tir reference pipeline). The tile-VM
//! (`rf_tile::exec`) is not measured here; its numbers come from the `perf`
//! binary's `exec_prefill` / `exec_decode` workloads.
use criterion::{criterion_group, criterion_main, Criterion};
use rf_tir::{builder, detect_cascade, generate_fused, Interpreter};
use std::collections::HashMap;

fn bench_tir_interp(c: &mut Criterion) {
    let kv = 512;
    let unfused = builder::unfused_attention_row(kv);
    let detected = detect_cascade(&unfused).unwrap();
    let plan = rf_fusion::analyze_cascade(&detected.cascade).unwrap();
    let fused = generate_fused(&plan, &detected);
    let inputs = HashMap::from([
        ("p".to_string(), rf_workloads::random_vec(kv, 5, -2.0, 2.0)),
        ("v".to_string(), rf_workloads::random_vec(kv, 6, -2.0, 2.0)),
    ]);
    let interp = Interpreter::new();
    let mut group = c.benchmark_group("tir_interpreter");
    group.bench_function("unfused_attention_row", |b| {
        b.iter(|| interp.run(&unfused, &inputs).unwrap())
    });
    group.bench_function("fused_attention_row", |b| {
        b.iter(|| interp.run(&fused, &inputs).unwrap())
    });
    group.bench_function("detect_and_fuse", |b| {
        b.iter(|| {
            let d = detect_cascade(&unfused).unwrap();
            let p = rf_fusion::analyze_cascade(&d.cascade).unwrap();
            generate_fused(&p, &d)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_tir_interp);
criterion_main!(benches);
