//! Writes the sim-clock ledger (see `rf_bench::ledger`) to stdout:
//! `cargo run --release -p rf-bench --bin sim_ledger > BENCH_sim.json`.
use std::io::Write;

fn main() {
    let mut out = std::io::stdout().lock();
    for line in rf_bench::ledger::render() {
        writeln!(out, "{line}").expect("stdout");
    }
}
