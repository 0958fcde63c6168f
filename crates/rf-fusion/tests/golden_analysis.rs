//! Golden ACRF analysis: "same decisions" as a test.
//!
//! For every `patterns::*` spec (the refuted two-pass variance included), the
//! `scaled_sum` cascade whose first fixed-point candidates are singular, and
//! the full parameter grid of the test grammar (`tests/grammar`, 4 families × 4
//! selectors × 6 weight/peak choices × 4 constants = 384 cascades), this pins
//! what `analyze_cascade` decided: the verdict (`Ok` or which [`AcrfError`])
//! and, per reduction, the `Display` strings of `G`, `H`, the dependency
//! variables and the input variables. The named cascades are compared line by
//! line with `tests/golden/analysis.txt`; the grid is compared as one FNV-1a
//! fold of the same lines per family (`tests/golden/grammar_folds.txt`), and a
//! mismatch leaves the grid's full text under the test's temp directory so two
//! trees can be diffed.
//!
//! Both files were recorded on the commit before ACRF moved to the compiled
//! expression form (slot-bound identity check, process-wide law table), and
//! that change kept them passing unmodified. Re-record (copy the files the
//! failure message names over the golden ones) only in a PR that changes a
//! verdict or an extracted `G`/`H` on purpose, and list every line that moved.

use std::fmt::Write as _;
use std::path::Path;

use rf_algebra::ReduceOp;
use rf_expr::Expr;
use rf_fusion::{analyze_cascade, patterns, CascadeSpec, ReductionSpec};

mod grammar;
use grammar::family_grid;

/// The verdict and decomposition of one cascade, one line per reduction.
fn describe(spec: &CascadeSpec) -> String {
    let mut out = String::new();
    match analyze_cascade(spec) {
        Err(err) => writeln!(out, "== {}: {err:?}", spec.name).unwrap(),
        Ok(plan) => {
            writeln!(out, "== {}: Ok", spec.name).unwrap();
            for r in &plan.reductions {
                writeln!(
                    out,
                    "{} | G = {} | H = {} | deps = [{}] | inputs = [{}]",
                    r.name,
                    r.g,
                    r.h,
                    r.deps.join(", "),
                    r.input_vars.join(", ")
                )
                .unwrap();
            }
        }
    }
    out
}

/// The cascade of `acrf.rs`' `fixed_point_skips_singular_candidates`.
fn scaled_sum() -> CascadeSpec {
    CascadeSpec::new(
        "scaled_sum",
        vec!["x".to_string()],
        vec![
            ReductionSpec::new("s", ReduceOp::Sum, Expr::var("x")),
            ReductionSpec::new("q", ReduceOp::Sum, Expr::var("x") / Expr::var("s")),
        ],
    )
    .expect("scaled_sum is a valid cascade")
}

/// The grid's cascades of one family, in `s0`, `s1`, `c_idx` order.
fn family_text(family: usize) -> String {
    family_grid(family).map(|spec| describe(&spec)).collect()
}

/// FNV-1a over the bytes of `text`.
fn fold(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Compares `actual` with the golden file `name`; on a difference leaves
/// `actual` (and `detail`, when given) under the test's temp directory.
fn check_golden(name: &str, actual: &str, detail: Option<(&str, &str)>) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let tmp = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::write(tmp.join(name), actual).expect("the test temp directory is writable");
    if let Some((detail_name, text)) = detail {
        std::fs::write(tmp.join(detail_name), text).expect("the test temp directory is writable");
    }
    let first = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{name} differs from {} at line {}; the new text is in {}",
        golden.display(),
        first + 1,
        tmp.display()
    );
}

#[test]
fn named_cascades_keep_their_analysis() {
    let mut text = String::new();
    for spec in patterns::all_fusable() {
        text.push_str(&describe(&spec));
    }
    text.push_str(&describe(&patterns::non_decomposable_variance()));
    text.push_str(&describe(&scaled_sum()));
    check_golden("analysis.txt", &text, None);
}

#[test]
fn grammar_grid_keeps_its_analysis() {
    let families: Vec<String> = (0..4).map(family_text).collect();
    let folds: String = families
        .iter()
        .enumerate()
        .map(|(family, text)| {
            format!(
                "family {family}: {} lines, fold {:#018x}\n",
                text.lines().count(),
                fold(text)
            )
        })
        .collect();
    check_golden(
        "grammar_folds.txt",
        &folds,
        Some(("grammar_full.txt", &families.concat())),
    );
}
