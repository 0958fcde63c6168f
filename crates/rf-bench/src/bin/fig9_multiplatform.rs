//! Regenerates Figure 9: MoE routing, MHA and FP8 Quant+GEMM on the remaining
//! platforms (A100, H800, MI308X), relative to PyTorch Eager.
use rf_bench::{eval, print_normalized_table};
use rf_gpusim::GpuArch;

fn main() {
    for name in ["a100", "h800", "mi308x"] {
        let arch = GpuArch::by_name(name).expect("known architecture");
        print_normalized_table(
            &format!(
                "Figure 9: MoE routing on {} (speedup vs PyTorch Eager)",
                arch.name
            ),
            &eval::rows(&arch, "moe"),
        );
        print_normalized_table(
            &format!("Figure 9: MHA on {} (speedup vs PyTorch Eager)", arch.name),
            &eval::rows(&arch, "mha"),
        );
    }
    let mi = GpuArch::mi308x();
    print_normalized_table(
        "Figure 9g: FP8 PerToken Quant+GEMM on AMD MI308X (speedup vs PyTorch Eager)",
        &eval::rows(&mi, "quant"),
    );
}
