//! Golden graph analysis: the graph half of `rf-fusion`'s
//! `tests/golden_analysis.rs`.
//!
//! For the three `rf_graph::builders` graphs at the sizes `perf`'s
//! `compile_cold` workload compiles, this pins every lifted chain
//! ([`detect_cascades`]: the reduction nodes, the row space, the lifted map
//! functions, the ACRF verdict and `G` / `H` / deps / inputs per reduction)
//! and every fused region of [`partition`] (the workload it lowers to and the
//! canonical cascade's decomposition), compared line by line with
//! `tests/golden/chains.txt`.
//!
//! Recorded on the commit before ACRF moved to the compiled expression form;
//! that change kept it passing unmodified. Re-record (copy the file the
//! failure message names over the golden one) only in a PR that changes a
//! verdict or an extracted `G`/`H` on purpose, and list every line that moved.

use std::fmt::Write as _;
use std::path::Path;

use rf_fusion::FusionPlan;
use rf_graph::{builders, detect_cascades, partition, OpGraph};

fn describe_plan(out: &mut String, plan: &FusionPlan) {
    writeln!(out, "  verdict: Ok").unwrap();
    for r in &plan.reductions {
        writeln!(
            out,
            "  {} | G = {} | H = {} | deps = [{}] | inputs = [{}]",
            r.name,
            r.g,
            r.h,
            r.deps.join(", "),
            r.input_vars.join(", ")
        )
        .unwrap();
    }
}

fn describe_graph(name: &str, graph: &OpGraph) -> String {
    let mut out = format!("# {name}\n");
    for candidate in detect_cascades(graph) {
        writeln!(
            out,
            "chain {:?} rows {} axis {}",
            candidate.reductions, candidate.rows, candidate.axis_len
        )
        .unwrap();
        for line in candidate.spec.to_string().lines() {
            writeln!(out, "  {line}").unwrap();
        }
        match &candidate.proof {
            Ok(plan) => describe_plan(&mut out, plan),
            Err(err) => writeln!(out, "  verdict: {err:?}").unwrap(),
        }
    }
    for region in partition(graph).regions() {
        writeln!(
            out,
            "region {:?} -> {:?} output {}",
            region.kind, region.workload, region.output
        )
        .unwrap();
        describe_plan(&mut out, &region.fusion);
    }
    out
}

#[test]
fn builder_graphs_keep_their_chains_and_regions() {
    let mut actual = String::new();
    for (name, graph) in [
        (
            "transformer_decoder_layer(64, 64, 128)",
            builders::transformer_decoder_layer(64, 64, 128),
        ),
        ("moe_block(64, 64, 8)", builders::moe_block(64, 64, 8)),
        (
            "quantized_mlp(32, 128, 64, 32)",
            builders::quantized_mlp(32, 128, 64, 32),
        ),
    ] {
        actual.push_str(&describe_graph(name, &graph));
    }

    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chains.txt");
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join("chains.txt");
    std::fs::write(&fresh, &actual).expect("the test temp directory is writable");
    let first = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "chains.txt differs from {} at line {}; the new text is in {}",
        golden.display(),
        first + 1,
        fresh.display()
    );
}
