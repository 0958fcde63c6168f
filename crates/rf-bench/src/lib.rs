//! Shared helpers for the per-figure benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | binary | paper artefact |
//! |---|---|
//! | `table1_operators` | Table 1 (reduction operators and their `⊗`) |
//! | `fig5_subgraphs` | Figure 5a–5d (MHA / MLA / MoE routing / Quant+GEMM) |
//! | `fig6a_fusion_levels` | Figure 6a (fusion level comparison) |
//! | `fig6b_incremental` | Figure 6b (incremental vs non-incremental) |
//! | `fig7_access_counts` | Figure 7 (dependency-load accounting) |
//! | `fig8_nonml` | Figure 8 (variance and moment of inertia, 4 platforms) |
//! | `fig9_multiplatform` | Figure 9 (ML workloads on A100 / H800 / MI308X) |
//! | `fig11_13_ir_dump` | Figures 11–13 (unfused TIR, fused scalar and tile IR) |
//!
//! The `perf` binary (`src/bin/perf/`, also a package of its own) is the
//! benchmark: compile, tile-VM execution and serving load, host-clock and
//! sim-clock. The Criterion benches in `benches/` time the compiler side
//! alone: the ACRF analysis and fused evaluators, the analytical GPU model,
//! and the staged auto-tuner against its exhaustive oracle.

#![forbid(unsafe_code)]

/// One row of a normalized-performance table: a workload configuration and the
/// speedup of each system relative to the first (baseline) system.
#[derive(Debug, Clone)]
pub struct NormalizedRow {
    /// Configuration name (e.g. `"H3"`).
    pub config: String,
    /// `(system name, speedup vs baseline)` pairs, baseline first.
    pub speedups: Vec<(String, f64)>,
}

/// Prints a normalized-performance table in a fixed-width layout and returns
/// the geometric-mean speedup of every system.
pub fn print_normalized_table(title: &str, rows: &[NormalizedRow]) -> Vec<(String, f64)> {
    println!("\n=== {title} ===");
    if rows.is_empty() {
        println!("(no rows)");
        return Vec::new();
    }
    let systems: Vec<String> = rows[0].speedups.iter().map(|(n, _)| n.clone()).collect();
    print!("{:<10}", "config");
    for s in &systems {
        print!("{s:>18}");
    }
    println!();
    let mut logs = vec![0.0f64; systems.len()];
    for row in rows {
        print!("{:<10}", row.config);
        for (i, (_, v)) in row.speedups.iter().enumerate() {
            print!("{v:>18.2}");
            logs[i] += v.ln();
        }
        println!();
    }
    let geo: Vec<(String, f64)> = systems
        .iter()
        .cloned()
        .zip(logs.iter().map(|l| (l / rows.len() as f64).exp()))
        .collect();
    print!("{:<10}", "geomean");
    for (_, g) in &geo {
        print!("{g:>18.2}");
    }
    println!();
    geo
}

/// Formats microseconds with a sensible unit.
pub fn format_us(us: f64) -> String {
    if us.is_infinite() {
        "infeasible".to_string()
    } else if us >= 1000.0 {
        format!("{:.2} ms", us / 1000.0)
    } else {
        format!("{us:.1} us")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_identical_rows_is_the_value() {
        let rows = vec![
            NormalizedRow {
                config: "A".into(),
                speedups: vec![("base".into(), 1.0), ("x".into(), 4.0)],
            },
            NormalizedRow {
                config: "B".into(),
                speedups: vec![("base".into(), 1.0), ("x".into(), 1.0)],
            },
        ];
        let geo = print_normalized_table("test", &rows);
        assert_eq!(geo[0].1, 1.0);
        assert!((geo[1].1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn format_us_units() {
        assert_eq!(format_us(10.0), "10.0 us");
        assert_eq!(format_us(2500.0), "2.50 ms");
        assert_eq!(format_us(f64::INFINITY), "infeasible");
    }

    #[test]
    fn empty_table_is_handled() {
        assert!(print_normalized_table("empty", &[]).is_empty());
    }
}
pub mod eval;
