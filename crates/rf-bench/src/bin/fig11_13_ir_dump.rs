//! Dumps the intermediate representations of Figures 11-13: the unfused
//! attention loop nest, the fused scalar kernel generated by the three-step
//! template, and the FlashAttention / FlashDecoding tile-level programs.
use rf_codegen::{attention_program, AttentionShape, TuningPoint};
use rf_tir::{builder, detect_cascade, generate_fused};

fn main() {
    println!("===== Figure 11: unfused attention TIR =====");
    println!("{}", builder::figure11_attention(512, 512, 64));

    println!("===== Figure 12a (scalar level): fused attention row =====");
    let unfused = builder::unfused(&rf_fusion::patterns::attention_row(), 512);
    let detected = detect_cascade(&unfused).expect("attention row is detectable");
    let plan = rf_fusion::analyze_cascade(&detected.cascade).expect("attention row is fusable");
    println!("{}", generate_fused(&plan, &detected));

    let shape = AttentionShape {
        heads: 1,
        q_len: 512,
        kv_len: 512,
        head_dim: 64,
        qk_dim: 64,
    };
    let point = TuningPoint {
        block_rows: 128,
        block_axis: 128,
        threads: 256,
        pipeline_depth: 2,
        segments: 1,
    };
    println!("===== Figure 12b: FlashAttention tile-level IR (Single-Segment) =====");
    println!("{}", attention_program(&shape, &point));

    println!("===== Figure 13b: FlashDecoding tile-level IR (Multi-Segment, num_split = 2) =====");
    let split = TuningPoint {
        segments: 2,
        ..point
    };
    println!("{}", attention_program(&shape, &split));
}
