//! `BENCH_sim.json` at the repository root is the sim-clock ledger this tree
//! computes: regenerated here and compared line by line, every changed row
//! printed. A change that moves rows re-records the file with
//! `cargo run --release -p rf-bench --bin sim_ledger > BENCH_sim.json` and
//! names, for the rows it moved, the model term responsible.

use std::path::Path;

use rf_bench::ledger::{diff, render};

#[test]
fn bench_sim_json_matches_the_model() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json");
    let committed = std::fs::read_to_string(&path).expect("BENCH_sim.json at the repository root");
    let fresh = render();
    let changed = diff(&committed, &fresh);
    assert!(
        changed.is_empty(),
        "BENCH_sim.json differs from the model in these rows:\n{changed}\
         re-record with `cargo run --release -p rf-bench --bin sim_ledger > BENCH_sim.json` \
         if the change is meant"
    );
    for line in &fresh {
        rf_trace::json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    let count = |kind: &str| {
        let prefix = format!("{{\"kind\":\"{kind}\"");
        fresh.iter().filter(|l| l.starts_with(&prefix)).count()
    };
    // 29 tuned workloads × 4 presets × 3 modes; 52 Table 2/3 configs × 4 presets.
    assert_eq!(
        (count("tuner"), count("table"), fresh.len()),
        (348, 208, 556)
    );
}
