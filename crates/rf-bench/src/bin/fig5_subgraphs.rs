//! Regenerates Figure 5: normalized performance of the four ML subgraphs
//! (MHA on A10, MLA on H800, MoE routing on A10, FP8 Quant+GEMM on H800),
//! relative to PyTorch Eager.
use rf_bench::{eval, print_normalized_table};
use rf_gpusim::GpuArch;

fn main() {
    let a10 = GpuArch::a10();
    let h800 = GpuArch::h800();
    let mha = print_normalized_table(
        "Figure 5a: MHA on A10 (speedup vs PyTorch Eager)",
        &eval::rows(&a10, "mha"),
    );
    let mla = print_normalized_table(
        "Figure 5b: MLA on H800 (speedup vs PyTorch Eager)",
        &eval::rows(&h800, "mla"),
    );
    let moe = print_normalized_table(
        "Figure 5c: MoE routing on A10 (speedup vs PyTorch Eager)",
        &eval::rows(&a10, "moe"),
    );
    let quant = print_normalized_table(
        "Figure 5d: FP8 PerToken Quant+GEMM on H800 (speedup vs PyTorch Eager)",
        &eval::rows(&h800, "quant"),
    );

    println!("\n=== Headline comparison with the paper (§5.2) ===");
    println!(
        "MHA: RedFuser / FlashAttention2 = {:.2} (paper: 1.09), RedFuser / Dynamo = {:.1} (paper: 2.8 on LLaMA-65B)",
        mha.speedup("RedFuser") / mha.speedup("FlashAttention2"),
        mha.speedup("RedFuser") / mha.speedup("PyTorch Dynamo"),
    );
    println!(
        "MLA: RedFuser / FlashMLA = {:.2} (paper: 1.02), RedFuser / Dynamo = {:.1} (paper: 2.4), RedFuser / TVM = {:.1} (paper: 8.7)",
        mla.speedup("RedFuser") / mla.speedup("FlashMLA"),
        mla.speedup("RedFuser") / mla.speedup("PyTorch Dynamo"),
        mla.speedup("RedFuser") / mla.speedup("TVM"),
    );
    println!(
        "MoE: RedFuser / Dynamo = {:.1} (paper: 1.7), RedFuser / TVM = {:.1} (paper: 6.6)",
        moe.speedup("RedFuser") / moe.speedup("PyTorch Dynamo"),
        moe.speedup("RedFuser") / moe.speedup("TVM"),
    );
    println!(
        "Quant+GEMM: RedFuser / Dynamo = {:.1} (paper: 3.4), RedFuser / TVM = {:.1} (paper: 12.1)",
        quant.speedup("RedFuser") / quant.speedup("PyTorch Dynamo"),
        quant.speedup("RedFuser") / quant.speedup("TVM"),
    );
}
