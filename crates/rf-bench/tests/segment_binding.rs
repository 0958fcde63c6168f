//! The kernel the GPU model costs is the kernel the VM runs: over every
//! tuner workload of the sim-clock ledger and every raw point of
//! `TuningSpace::PAPER`, the executable program's main kernel launches one
//! row block per segment its [`ExecBinding`] binds, and every bound segment
//! holds part of the axis.
//!
//! [`ExecBinding`]: rf_tile::exec::ExecBinding

use std::collections::BTreeMap;

use rf_bench::ledger::tuner_workloads;
use rf_codegen::{executable_program, AttentionShape, TuningSpace, Workload};
use rf_tile::TileProgram;

/// The main-kernel grid `program` must launch for `segments` segments, and
/// the axis they split. Attention launches `segments` blocks per (head, query
/// block); a cascade's main kernel tiles the `rows × segments` effective rows,
/// which its global input holds, each row a segment's share of the axis.
fn expected_grid(workload: &Workload, program: &TileProgram, segments: usize) -> (usize, usize) {
    let attention = |shape: AttentionShape, block_rows: usize| {
        let row_blocks = shape.heads * shape.q_len.div_ceil(block_rows);
        (row_blocks * segments, shape.kv_len)
    };
    let block_rows = program.binding.expect("bound").block_rows;
    match workload {
        Workload::Mha(c) => attention(AttentionShape::from_mha(c), block_rows),
        Workload::Mla(c) => attention(AttentionShape::from_mla(c), block_rows),
        Workload::Softmax { rows, len } => {
            let x = program.buffer("x").expect("the cascade's input");
            let tile = program.buffer("x_shared").expect("its staged tile");
            let effective_rows = rows * segments;
            let grid = if x.shape == [effective_rows, len.div_ceil(segments)] {
                effective_rows.div_ceil(tile.shape[0])
            } else {
                0 // the input is not split into `segments` segments
            };
            (grid, *len)
        }
        other => unreachable!("{} is not tuned", other.name()),
    }
}

#[test]
fn every_point_launches_the_segments_its_binding_runs() {
    // The first mismatch per workload.
    let mut failures: BTreeMap<String, String> = BTreeMap::new();
    for workload in tuner_workloads() {
        for point in TuningSpace::PAPER.points() {
            let program = executable_program(&workload, &point);
            let segments = program
                .binding
                .expect("an executable program is bound")
                .segments;
            let (grid, axis) = expected_grid(&workload, &program, segments);
            let combines = program.combine_kernel.is_some();
            let problem = if program.grid_blocks != grid as u64 || combines != (segments > 1) {
                format!("grid {} (combine: {combines})", program.grid_blocks)
            } else if (segments - 1) * axis.div_ceil(segments) >= axis {
                format!("an empty segment of an axis of {axis}")
            } else {
                continue;
            };
            let name = workload.name();
            failures.entry(name.clone()).or_insert(format!(
                "{name} at {point:?}: {problem} for {segments} bound segments"
            ));
        }
    }
    let failures: Vec<String> = failures.into_values().collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
