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
//! | `sim_ledger` | `BENCH_sim.json`: every Table 2/3 row and tuner choice (see [`ledger`]) |
//!
//! The `perf` binary (`src/bin/perf/`, also a package of its own) is the one
//! benchmark: compile, tile-VM execution and serving load, host-clock and
//! sim-clock. The compiler side is its `compile_cold` workload, whose traced
//! run reports the ACRF analysis, the analytical GPU model and the guided
//! auto-tuner against its exhaustive oracle per layer.

#![forbid(unsafe_code)]

/// One workload on one preset: the simulated µs of each system that runs it,
/// PyTorch Eager first and RedFuser last.
#[derive(Debug, Clone)]
pub struct SimRow {
    /// Configuration name as the paper's tables print it (e.g. `"H3"`).
    pub config: String,
    /// `(system name, simulated µs)` pairs, PyTorch Eager first.
    pub us: Vec<(&'static str, f64)>,
}

impl SimRow {
    /// Every system's speedup over the first (PyTorch Eager), in row order.
    pub fn speedups(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        let eager = self.us[0].1;
        self.us.iter().map(move |&(name, us)| (name, eager / us))
    }

    /// The speedup of `system` over PyTorch Eager.
    ///
    /// # Panics
    ///
    /// If the row has no such system.
    pub fn speedup(&self, system: &str) -> f64 {
        self.speedups()
            .find(|&(name, _)| name == system)
            .unwrap_or_else(|| panic!("{}: no system {system}", self.config))
            .1
    }
}

/// One right-aligned cell of a normalized table: the speedup of a system that
/// took `us` over one that took `eager_us`, or `n/a` where `us` is not finite
/// (a hand-written kernel whose launch configuration does not fit the preset
/// cannot run there; it has no speedup, not a 0× one).
fn speedup_cell(eager_us: f64, us: f64) -> String {
    if us.is_finite() {
        format!("{:>18.2}", eager_us / us)
    } else {
        format!("{:>18}", "n/a")
    }
}

/// Prints a normalized-performance table (speedups over the first system) in
/// a fixed-width layout, closed by the geometric-mean row, and returns that
/// row. Its µs are each system's geometric-mean µs, so its speedups are the
/// geometric means of the rows' speedups (a geometric mean of ratios is the
/// ratio of the geometric means). A system that cannot run a row prints `n/a`
/// there and in the geometric-mean row.
pub fn print_normalized_table(title: &str, rows: &[SimRow]) -> SimRow {
    println!("\n=== {title} ===");
    let systems = rows.first().map_or(&[][..], |row| &row.us[..]);
    let geomean = SimRow {
        config: "geomean".into(),
        us: (systems.iter().enumerate())
            .map(|(i, &(name, _))| {
                let log_sum: f64 = rows.iter().map(|row| row.us[i].1.ln()).sum();
                (name, (log_sum / rows.len() as f64).exp())
            })
            .collect(),
    };
    if rows.is_empty() {
        println!("(no rows)");
        return geomean;
    }
    print!("{:<10}", "config");
    for (name, _) in systems {
        print!("{name:>18}");
    }
    println!();
    for row in rows.iter().chain([&geomean]) {
        print!("{:<10}", row.config);
        for &(_, us) in &row.us {
            print!("{}", speedup_cell(row.us[0].1, us));
        }
        println!();
    }
    geomean
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
            SimRow {
                config: "A".into(),
                us: vec![("base", 4.0), ("x", 1.0)],
            },
            SimRow {
                config: "B".into(),
                us: vec![("base", 2.0), ("x", 2.0)],
            },
        ];
        let geomean = print_normalized_table("test", &rows);
        assert_eq!(geomean.speedup("base"), 1.0);
        assert!((geomean.speedup("x") - 2.0).abs() < 1e-12);
    }

    #[test]
    fn a_system_that_cannot_run_prints_n_a() {
        assert_eq!(speedup_cell(4.0, 2.0), format!("{:>18}", "2.00"));
        assert_eq!(speedup_cell(4.0, f64::INFINITY), format!("{:>18}", "n/a"));
        assert_eq!(speedup_cell(4.0, f64::NAN), format!("{:>18}", "n/a"));
        // One infeasible row makes the system's geometric mean infinite too,
        // so its geomean cell reads n/a while the others keep their speedups.
        let rows = [("A", 2.0), ("B", f64::INFINITY)].map(|(config, hand)| SimRow {
            config: config.into(),
            us: vec![("base", 4.0), ("hand", hand), ("x", 1.0)],
        });
        let geomean = print_normalized_table("infeasible", &rows);
        assert!(geomean.us[1].1.is_infinite());
        assert_eq!(
            speedup_cell(geomean.us[0].1, geomean.us[2].1),
            format!("{:>18}", "4.00")
        );
    }

    #[test]
    fn format_us_units() {
        assert_eq!(format_us(10.0), "10.0 us");
        assert_eq!(format_us(2500.0), "2.50 ms");
        assert_eq!(format_us(f64::INFINITY), "infeasible");
    }

    #[test]
    fn empty_table_is_handled() {
        assert!(print_normalized_table("empty", &[]).us.is_empty());
    }
}
pub mod eval;
pub mod ledger;
