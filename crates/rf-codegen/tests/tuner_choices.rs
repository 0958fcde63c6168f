//! Golden auto-tuner choices: "same search" as a test.
//!
//! For the 18 Table 2a/2b attention configs, the two tiny attention shapes
//! and nine softmax shapes, on all four architecture presets, in Guided and
//! in Exhaustive mode, this pins what the tuner chose — the point, the bits
//! of its estimated latency, how many candidates it costed and the size of
//! the raw space — plus the kernel profile it returned. A change to the
//! tuner's bookkeeping, to how a candidate is costed, or to the lowering's
//! accounting that alters any search outcome fails here.
//!
//! The values were recorded on the commit before the tuner's bookkeeping was
//! rewritten to cost candidates in closed form; re-record them (the failure
//! message prints the new folds) only when a change of search behaviour is
//! the point of the PR.
//!
//! Beside the folds, one test states the guided search's claims over every
//! Table 2/3 config: it chooses the exhaustive oracle's point, and costs at
//! most a fifth of the raw space on each config it tunes. Another states that
//! compiling is deterministic: two compiles of one workload are equal.

use std::sync::Arc;

use rf_codegen::{
    compile_workload_with, CompileOptions, SearchMode, TuningCache, TuningChoice, TuningPoint,
    Workload,
};
use rf_gpusim::GpuArch;
use rf_workloads::{
    inertia_configs, mha_configs, mha_tiny, mla_configs, mla_tiny, moe_configs, quant_configs,
    variance_configs,
};

/// The 29 tuned workloads, in the order the folds were recorded.
fn workloads() -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    out.extend(mha_configs().into_iter().map(Workload::Mha));
    out.extend(mla_configs().into_iter().map(Workload::Mla));
    out.push(Workload::Mha(mha_tiny()));
    out.push(Workload::Mla(mla_tiny()));
    for (rows, len) in [
        (512, 4096),
        (64, 1024),
        (4, 8192),
        (1, 32768),
        (32, 128),
        (4, 8),
        (256, 1024),
        (1, 1),
        (3, 7),
    ] {
        out.push(Workload::Softmax { rows, len });
    }
    out
}

fn exhaustive() -> CompileOptions {
    CompileOptions {
        mode: SearchMode::Exhaustive,
        ..CompileOptions::default()
    }
}

/// FNV-1a over 64-bit words.
fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

fn fold_choice(mut hash: u64, choice: &TuningChoice) -> u64 {
    let p = &choice.point;
    let profile = &choice.profile;
    for word in [
        p.block_rows as u64,
        p.block_axis as u64,
        u64::from(p.threads),
        u64::from(p.pipeline_depth),
        u64::from(p.segments),
        choice.latency_us.to_bits(),
        choice.evaluated as u64,
        choice.space_size as u64,
        profile.flops,
        profile.hbm_bytes,
        profile.blocks,
        u64::from(profile.threads_per_block),
        profile.shared_mem_per_block,
        profile.compute_efficiency.to_bits(),
        profile.overlap.to_bits(),
        u64::from(profile.launches),
    ] {
        hash = fold(hash, word);
    }
    profile
        .name
        .bytes()
        .chain(profile.precision.bytes())
        .fold(hash, |h, b| fold(h, u64::from(b)))
}

/// One fold over every workload's choice on `arch` with `opts`.
fn fold_arch(arch: &GpuArch, opts: &CompileOptions) -> u64 {
    workloads()
        .iter()
        .fold(0xCBF2_9CE4_8422_2325, |hash, workload| {
            fold_choice(hash, &compile_workload_with(workload, arch, opts).tuning)
        })
}

fn check(label: &str, golden: [u64; 4], opts: impl Fn() -> CompileOptions) {
    let got: Vec<u64> = GpuArch::all()
        .iter()
        .map(|arch| fold_arch(arch, &opts()))
        .collect();
    assert_eq!(
        got, golden,
        "{label}: tuner choices moved (a10, a100, h800, mi308x); got {got:#018X?}"
    );
}

#[test]
fn guided_choices_are_pinned_on_every_arch() {
    check(
        "guided",
        [
            0x5D48_C7C1_C442_30FA,
            0x894A_188A_8FCC_8519,
            0xCA8B_0913_D503_6E30,
            0x8988_3F43_18A1_7B96,
        ],
        CompileOptions::default,
    );
}

#[test]
fn exhaustive_choices_are_pinned_on_every_arch() {
    check(
        "exhaustive",
        [
            0xDD47_8468_8B91_DF15,
            0x7C52_A24F_9CC3_84C0,
            0x455C_547F_10ED_4382,
            0xB4B3_771D_BEF2_778F,
        ],
        exhaustive,
    );
}

/// Guided with one `TuningCache` shared by the 29 compiles of an
/// architecture, so every search after the first of its class starts from
/// warm seeds: pins which cached winners are injected and in what order.
#[test]
fn warm_started_guided_choices_are_pinned_on_every_arch() {
    check(
        "guided + tuning cache",
        [
            0x115A_3B51_41D3_66B3,
            0x23A4_E691_9C3A_01F2,
            0x5CBC_752D_286A_08FD,
            0xBE37_E62A_B85E_51C1,
        ],
        || CompileOptions {
            tuning_cache: Some(Arc::new(TuningCache::new())),
            ..CompileOptions::default()
        },
    );
}

/// The 52 Table 2/3 configs: MHA, MLA, MoE, Quant, Variance, Inertia.
fn table23_workloads() -> Vec<Workload> {
    let mut out: Vec<Workload> = Vec::new();
    out.extend(mha_configs().into_iter().map(Workload::Mha));
    out.extend(mla_configs().into_iter().map(Workload::Mla));
    out.extend(moe_configs().into_iter().map(Workload::Moe));
    out.extend(quant_configs().into_iter().map(Workload::Quant));
    out.extend(variance_configs().into_iter().map(Workload::Variance));
    out.extend(inertia_configs().into_iter().map(Workload::Inertia));
    out
}

/// On every preset, the guided search picks the exhaustive oracle's point
/// on all 52 configs, and each of the 18 attention configs it tunes costs at
/// most a fifth of the 840-point raw space. (The other four families compile
/// from a one-point space.)
#[test]
fn guided_picks_the_oracle_point_at_a_fifth_of_the_space() {
    let workloads = table23_workloads();
    assert_eq!(workloads.len(), 52);
    for arch in GpuArch::all() {
        let mut tuned = 0;
        for workload in &workloads {
            let guided = compile_workload_with(workload, &arch, &CompileOptions::default()).tuning;
            let oracle = compile_workload_with(workload, &arch, &exhaustive()).tuning;
            let name = workload.name();
            assert_eq!(guided.point, oracle.point, "{name} on {}", arch.name);
            if guided.space_size > 1 {
                tuned += 1;
                assert!(
                    guided.evaluated * 5 <= guided.space_size,
                    "{name} on {}: guided costed {} of a {}-point space",
                    arch.name,
                    guided.evaluated,
                    guided.space_size
                );
            }
        }
        assert_eq!(tuned, 18, "tuned configs on {}", arch.name);
    }
}

/// Compiling is a pure function of `(workload, arch, options)`: two compiles
/// of every workload of this file, on every preset and in both modes, return
/// equal kernels.
#[test]
fn compiling_twice_gives_equal_kernels() {
    let mut workloads = workloads();
    workloads.extend(table23_workloads());
    for arch in GpuArch::all() {
        for opts in [CompileOptions::default(), exhaustive()] {
            for workload in &workloads {
                assert_eq!(
                    compile_workload_with(workload, &arch, &opts),
                    compile_workload_with(workload, &arch, &opts),
                    "{} on {} ({:?})",
                    workload.name(),
                    arch.name,
                    opts.mode
                );
            }
        }
    }
}

/// A handful of rows spelled out, so a moved fold can be read: `(workload
/// index, arch, exhaustive?, point, latency bits, evaluated, space size)`.
#[test]
fn spelled_out_rows() {
    type Row = (usize, &'static str, bool, [usize; 5], u64, usize, usize);
    #[rustfmt::skip]
    let rows: [Row; 10] = [
        (1, "a10", false, [128, 256, 128, 3, 1], 0x407D_2707_7EC8_89A6, 131, 840), // mha_H2
        (1, "a10", true, [128, 256, 128, 3, 1], 0x407D_2707_7EC8_89A6, 840, 840),
        (8, "h800", false, [1, 256, 128, 3, 16], 0x4094_5969_4D09_4FA3, 77, 840), // mha_H9
        (13, "h800", false, [128, 32, 128, 3, 8], 0x4048_0B49_075F_C018, 97, 840), // mla_L5
        (17, "a100", true, [64, 32, 128, 3, 32], 0x4042_4BCB_2922_4D28, 294, 840), // mla_L9
        (19, "mi308x", false, [4, 64, 256, 3, 1], 0x4021_5337_DD75_7E4B, 50, 840), // mla_tiny
        (22, "a10", false, [16, 128, 256, 3, 64], 0x402A_464A_44D0_4733, 111, 840), // softmax_4x8192
        (23, "h800", true, [16, 256, 256, 3, 64], 0x402A_7F6E_ADC8_AD89, 300, 840), // softmax_1x32768
        (27, "a100", false, [1, 1, 256, 3, 1], 0x4014_0457_6809_CA41, 14, 840), // softmax_1x1
        (28, "mi308x", true, [3, 7, 256, 3, 1], 0x4020_0416_C7A1_B9E2, 96, 840), // softmax_3x7
    ];
    let workloads = workloads();
    for (index, arch, oracle, point, latency_bits, evaluated, space_size) in rows {
        let arch = GpuArch::by_name(arch).expect("preset");
        let opts = if oracle {
            exhaustive()
        } else {
            CompileOptions::default()
        };
        let choice = compile_workload_with(&workloads[index], &arch, &opts).tuning;
        let [block_rows, block_axis, threads, pipeline_depth, segments] = point;
        let name = workloads[index].name();
        assert_eq!(
            choice.point,
            TuningPoint {
                block_rows,
                block_axis,
                threads: threads as u32,
                pipeline_depth: pipeline_depth as u32,
                segments: segments as u32,
            },
            "{name} on {}",
            arch.name
        );
        assert_eq!(choice.latency_us.to_bits(), latency_bits, "{name}");
        assert_eq!(choice.evaluated, evaluated, "{name}");
        assert_eq!(choice.space_size, space_size, "{name}");
    }
}
