//! Regenerates Figure 8: variance and moment-of-inertia speedups on the four
//! evaluation platforms (A10, A100, H800, MI308X), relative to PyTorch Eager.
use rf_bench::{eval, print_normalized_table};
use rf_gpusim::GpuArch;

fn main() {
    for arch in GpuArch::all() {
        let variance = print_normalized_table(
            &format!(
                "Figure 8: variance on {} (speedup vs PyTorch Eager)",
                arch.name
            ),
            &eval::rows(&arch, "variance"),
        );
        let inertia = print_normalized_table(
            &format!(
                "Figure 8: moment of inertia on {} (speedup vs PyTorch Eager)",
                arch.name
            ),
            &eval::rows(&arch, "inertia"),
        );
        println!(
            "summary on {}: RedFuser vs Eager — variance {:.1}x (paper: 2.9-4.8x), inertia {:.1}x (paper: 5.5-11.6x)",
            arch.name,
            variance.speedup("RedFuser"),
            inertia.speedup("RedFuser")
        );
    }
}
