//! The sim-clock ledger: every deterministic number the paper's claims rest
//! on, one JSON object per line, committed as `BENCH_sim.json` at the
//! repository root and written by
//! `cargo run --release -p rf-bench --bin sim_ledger > BENCH_sim.json`.
//!
//! Each row starts with its key: `kind`, `workload`, `arch` (and `mode`).
//! - **`tuner`**: per (workload, preset, search mode), what the auto-tuner
//!   chose — the point, `latency_us` and its bits, how many candidates it
//!   costed, the size of the raw space and every field of the returned
//!   `KernelProfile`. The modes are guided, exhaustive, and guided with one
//!   `TuningCache` shared by a preset's compiles in row order (`guided+cache`).
//! - **`table`**: per Table 2/3 config and preset, the simulated µs of each
//!   system of `eval::sim_row`, each after Eager followed by its speedup over
//!   Eager (the rows of Figures 5, 8 and 9).
//!
//! `tests/sim_ledger.rs` regenerates the file and prints every row that
//! differs, so a change to the GPU model, the lowering or the search shows
//! up as the rows it moved.

use std::fmt::{Display, Write as _};
use std::sync::Arc;

use rf_codegen::{compile_workload_with, CompileOptions, SearchMode, TuningCache, Workload};
use rf_gpusim::GpuArch;
use rf_workloads::{mha_tiny, mla_tiny};

use crate::eval::{sim_row, table_workloads};

/// The 29 workloads of the tuner rows in compile order (which `guided+cache`
/// depends on): the 18 Table 2a/2b attention configs, the two tiny attention
/// shapes and nine softmax shapes.
pub fn tuner_workloads() -> Vec<Workload> {
    let softmax_rows = [512, 64, 4, 1, 32, 4, 256, 1, 3];
    let softmax_lens = [4096, 1024, 8192, 32768, 128, 8, 1024, 1, 7];
    let softmax = softmax_rows.into_iter().zip(softmax_lens);
    table_workloads()
        .into_iter()
        .filter(|w| matches!(w, Workload::Mha(_) | Workload::Mla(_)))
        .chain([Workload::Mha(mha_tiny()), Workload::Mla(mla_tiny())])
        .chain(softmax.map(|(rows, len)| Workload::Softmax { rows, len }))
        .collect()
}

/// One ledger line under construction: a JSON object whose fields are
/// appended in order.
struct Row {
    key: String,
    text: String,
}

impl Row {
    /// Starts the row with its key fields.
    fn new(kind: &str, workload: &str, arch: &str, mode: Option<&str>) -> Row {
        let key = [kind, workload, arch]
            .into_iter()
            .chain(mode)
            .collect::<Vec<_>>();
        let mut row = Row {
            key: key.join(" / "),
            text: String::new(),
        };
        for (name, value) in ["kind", "workload", "arch", "mode"].into_iter().zip(key) {
            row.str(name, value);
        }
        row
    }

    /// Appends a field whose JSON text is `value` as displayed.
    fn raw(&mut self, name: &str, value: impl Display) -> &mut Row {
        let sep = if self.text.is_empty() { '{' } else { ',' };
        let _ = write!(self.text, "{sep}\"{name}\":{value}");
        self
    }

    /// Appends a string field.
    fn str(&mut self, name: &str, value: &str) -> &mut Row {
        self.raw(name, format_args!("\"{}\"", rf_trace::json::escape(value)))
    }

    /// Appends a number field in its shortest round-trip form.
    ///
    /// # Panics
    ///
    /// On NaN or ±inf, naming the row: JSON has no such number, and writing
    /// one as anything else would record an infeasible choice as a feasible
    /// one.
    fn num(&mut self, name: &str, value: f64) -> &mut Row {
        assert!(value.is_finite(), "{}: `{name}` is {value}", self.key);
        self.raw(name, value)
    }

    /// Closes the object and returns the line (without a newline).
    fn finish(&mut self) -> String {
        self.text.push('}');
        std::mem::take(&mut self.text)
    }
}

fn tuner_rows(out: &mut Vec<String>) {
    let workloads = tuner_workloads();
    for mode in ["guided", "exhaustive", "guided+cache"] {
        for arch in GpuArch::all() {
            let opts = CompileOptions {
                mode: match mode {
                    "exhaustive" => SearchMode::Exhaustive,
                    _ => SearchMode::Guided,
                },
                tuning_cache: (mode == "guided+cache").then(|| Arc::new(TuningCache::new())),
            };
            for workload in &workloads {
                let choice = compile_workload_with(workload, &arch, &opts).tuning;
                let (p, k) = (&choice.point, &choice.profile);
                let bits = format!("{:#018X}", choice.latency_us.to_bits());
                let line = Row::new("tuner", &workload.name(), arch.name, Some(mode))
                    .raw("block_rows", p.block_rows)
                    .raw("block_axis", p.block_axis)
                    .raw("threads", p.threads)
                    .raw("pipeline_depth", p.pipeline_depth)
                    .raw("segments", p.segments)
                    .num("latency_us", choice.latency_us)
                    .str("latency_bits", &bits)
                    .raw("evaluated", choice.evaluated)
                    .raw("space_size", choice.space_size)
                    .str("kernel", &k.name)
                    .raw("flops", k.flops)
                    .raw("hbm_bytes", k.hbm_bytes)
                    .raw("blocks", k.blocks)
                    .raw("threads_per_block", k.threads_per_block)
                    .raw("shared_mem_per_block", k.shared_mem_per_block)
                    .str("precision", k.precision)
                    .num("compute_efficiency", k.compute_efficiency)
                    .num("overlap", k.overlap)
                    .raw("launches", k.launches)
                    .finish();
                out.push(line);
            }
        }
    }
}

fn table_rows(out: &mut Vec<String>) {
    let workloads = table_workloads();
    for arch in GpuArch::all() {
        for workload in &workloads {
            let sim = sim_row(workload, &arch);
            let mut row = Row::new("table", &workload.name(), arch.name, None);
            for (&(system, us), (_, speedup)) in sim.us.iter().zip(sim.speedups()) {
                let key = system.trim_start_matches("PyTorch ").to_lowercase();
                // A kernel other than RedFuser's that cannot launch on the
                // preset (FlashMLA's 160 KiB of shared memory on A10) is null.
                if us.is_infinite() && system != "RedFuser" {
                    row.raw(&format!("{key}_us"), "null");
                    row.raw(&format!("speedup_{key}"), "null");
                    continue;
                }
                row.num(&format!("{key}_us"), us);
                if key != "eager" {
                    row.num(&format!("speedup_{key}"), speedup);
                }
            }
            out.push(row.finish());
        }
    }
}

/// Every ledger line: the tuner rows, then the table rows.
pub fn render() -> Vec<String> {
    let mut out = Vec::new();
    tuner_rows(&mut out);
    table_rows(&mut out);
    out
}

/// The lines where `committed` and `fresh` differ, each as a `-`/`+` pair
/// under its line number; empty when they agree.
pub fn diff(committed: &str, fresh: &[String]) -> String {
    let old: Vec<&str> = committed.lines().collect();
    let mut out = String::new();
    for i in 0..old.len().max(fresh.len()) {
        let a = old.get(i).copied().unwrap_or("(no line)");
        let b = fresh.get(i).map_or("(no line)", String::as_str);
        if a != b {
            let _ = writeln!(out, "line {}:\n- {a}\n+ {b}", i + 1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "tuner / mha_H1 / NVIDIA A10 / guided: `latency_us` is inf")]
    fn a_non_finite_number_is_refused_with_its_row() {
        Row::new("tuner", "mha_H1", "NVIDIA A10", Some("guided")).num("latency_us", f64::INFINITY);
    }

    #[test]
    fn rows_are_json_and_diff_names_only_changed_lines() {
        let line = Row::new("table", "q", "a", None)
            .raw("n", 1u64 << 60)
            .num("x", 0.1)
            .finish();
        let expected =
            r#"{"kind":"table","workload":"q","arch":"a","n":1152921504606846976,"x":0.1}"#;
        assert_eq!(line, expected);
        assert!(rf_trace::json::parse(&line).is_ok());
        let fresh = ["a", "c", "d"].map(String::from);
        assert_eq!(diff("a\nb\nd\n", &fresh), "line 2:\n- b\n+ c\n");
        assert_eq!(diff("a\nc\nd\ne\n", &fresh), "line 4:\n- e\n+ (no line)\n");
    }
}
