//! The auto-tuner (§4.4): an empirical search space over block tile size,
//! threads per block, software-pipeline depth and (for the Multi-Segment
//! strategy) the number of segments, evaluated against the analytical GPU
//! model.
//!
//! Compilation is the serving hot path (the `rf-runtime` plan cache pays the
//! full tuner cost on every miss), so the search is staged instead of brute
//! force, and a candidate is *costed*, never constructed: the `build` closure
//! the compiler passes in is closed-form arithmetic over the lowering's
//! extents (`lower.rs`), ~0.06 µs per candidate with the latency estimate,
//! where lowering one to a `TileProgram` took 2.3–3.1 µs. Only the winner is
//! lowered.
//!
//! There is one path: [`AutoTuner::tune`] walks the one space,
//! [`TuningSpace::PAPER`], with the workload's two [`TuneHooks`], serially.
//!
//! 1. **Canonicalization + dedup** — [`TuneHooks::normalize`] maps every raw
//!    point to the point the lowering will actually build (`segments` to the
//!    number of non-empty segments the VM runs over the axis, `block_axis` to
//!    one segment, `block_rows` to the rows). Each distinct canonical point
//!    becomes one candidate, whose id is its position in first-occurrence
//!    order — also the tie-break between equal latencies — held in the
//!    search's one hash map, under a private multiply-xor hasher over the
//!    point's five integers.
//! 2. **Static feasibility** — [`TuneHooks::footprint`] reports the launch
//!    resources of a point; points that can never fit the target [`GpuArch`]
//!    (shared memory, per-block thread limit) are rejected by
//!    [`GpuArch::launch_feasible`] and never become candidates. Stages 1 and 2
//!    are one pass over the raw space: 12–24 ns a point, 10–20 µs for the 840
//!    points.
//! 3. **Search** — [`SearchMode::Guided`] seeds a coarse lattice and a
//!    stratified sample and refines the best seeds by coordinate descent over
//!    the coupled knobs; the exhaustive scan of the candidates is kept behind
//!    [`SearchMode::Exhaustive`] as the oracle.
//!    Latencies are memoized in a vector indexed by candidate id, so a
//!    candidate is costed once however often descent revisits it, and the
//!    winner is the minimum by `(latency, id)` in both modes.
//!
//! A compile is a pure function of the workload and the architecture: no
//! state survives a `tune` call, so the same workload chooses the same point
//! with the same `evaluated` count whatever was compiled before it.
//!
//! Measured on the 22 tuned `perf` configs (H800 preset, 2-vCPU host): a
//! guided compile takes 36–43 µs and the exhaustive oracle 55–64 µs, choosing
//! bit-identical kernels (the `tuner` rows of `BENCH_sim.json`, written by
//! `cargo run --release -p rf-bench --bin sim_ledger`). Guided stays the
//! default: a third fewer µs on average and five times fewer candidates,
//! though where the space dedups to ~200 candidates the oracle is as fast.
//! With the exhaustive scan as the default, `perf`'s `compile_cold` read 21 %
//! more `setup_s` and 8.4 % fewer `ops_per_s` over 8 alternating pairs; with
//! `block_axis` clamped to a segment, 43 % more `setup_s` at equal
//! `ops_per_s` over 10.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rf_gpusim::{estimate_latency, GpuArch, KernelProfile};

/// One point of the tuning search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuningPoint {
    /// Rows (query rows / tokens) per block tile.
    pub block_rows: usize,
    /// Reduction-axis elements per main-loop iteration.
    pub block_axis: usize,
    /// Threads per block.
    pub threads: u32,
    /// Software-pipeline depth.
    pub pipeline_depth: u32,
    /// Number of axis segments: 1 is the Single-Segment strategy, more the
    /// Multi-Segment one (§4.3). A canonical point's count is the number of
    /// non-empty segments the VM runs.
    pub segments: u32,
}

/// The search space: for each knob, the values the tuner may pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningSpace {
    /// Candidate block-row tile sizes.
    pub block_rows: &'static [usize],
    /// Candidate block-axis tile sizes.
    pub block_axis: &'static [usize],
    /// Candidate thread counts.
    pub threads: &'static [u32],
    /// Candidate pipeline depths.
    pub pipeline_depths: &'static [u32],
    /// Candidate segment counts.
    pub segments: &'static [u32],
}

impl TuningSpace {
    /// The space every compile searches, mirroring the paper's empirical
    /// space: a few power-of-two tile sizes, warp-multiple thread counts,
    /// shallow pipelines and small split factors — 840 points.
    pub const PAPER: TuningSpace = TuningSpace {
        block_rows: &[16, 32, 64, 128],
        block_axis: &[16, 32, 64, 128, 256],
        threads: &[128, 256],
        pipeline_depths: &[1, 2, 3],
        segments: &[1, 2, 4, 8, 16, 32, 64],
    };

    /// Enumerates every point of the space.
    pub fn points(&self) -> Vec<TuningPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &block_rows in self.block_rows {
            for &block_axis in self.block_axis {
                for &threads in self.threads {
                    for &pipeline_depth in self.pipeline_depths {
                        for &segments in self.segments {
                            out.push(TuningPoint {
                                block_rows,
                                block_axis,
                                threads,
                                pipeline_depth,
                                segments,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Size of the cartesian product.
    fn len(&self) -> usize {
        self.block_rows.len()
            * self.block_axis.len()
            * self.threads.len()
            * self.pipeline_depths.len()
            * self.segments.len()
    }

    /// The coordinate-descent neighborhood of `point`: every single-knob
    /// variation, plus two joint planes — `(block_rows, block_axis)` (the
    /// tile knobs trade off against the same shared-memory budget) and
    /// `(block_axis, segments)` (together they set the per-segment trip
    /// count). A better configuration often requires moving both knobs of a
    /// coupled pair at once, a diagonal step no single-knob sweep can take.
    /// Includes `point` itself.
    fn neighborhood(&self, point: &TuningPoint) -> Vec<TuningPoint> {
        let mut out = Vec::with_capacity(
            self.block_rows.len() * self.block_axis.len()
                + self.block_axis.len() * self.segments.len()
                + self.threads.len()
                + self.pipeline_depths.len(),
        );
        for &block_rows in self.block_rows {
            for &block_axis in self.block_axis {
                out.push(TuningPoint {
                    block_rows,
                    block_axis,
                    ..*point
                });
            }
        }
        for &block_axis in self.block_axis {
            for &segments in self.segments {
                out.push(TuningPoint {
                    block_axis,
                    segments,
                    ..*point
                });
            }
        }
        // The ±1 cube over all three coupled knobs at once: a 3-knob diagonal
        // ridge (seen on MLA decode shapes) is invisible to both planes but
        // always within one cube step.
        fn window<T: Copy + PartialOrd>(values: &[T], current: T) -> Vec<T> {
            let idx = values
                .iter()
                .position(|v| *v >= current)
                .unwrap_or(values.len().saturating_sub(1));
            values[idx.saturating_sub(1)..(idx + 2).min(values.len())].to_vec()
        }
        for block_rows in window(self.block_rows, point.block_rows) {
            for block_axis in window(self.block_axis, point.block_axis) {
                for segments in window(self.segments, point.segments) {
                    out.push(TuningPoint {
                        block_rows,
                        block_axis,
                        segments,
                        ..*point
                    });
                }
            }
        }
        for &threads in self.threads {
            out.push(TuningPoint { threads, ..*point });
        }
        for &pipeline_depth in self.pipeline_depths {
            out.push(TuningPoint {
                pipeline_depth,
                ..*point
            });
        }
        out
    }
}

/// Number of coordinate-descent starting points of [`SearchMode::Guided`].
const BEAM_WIDTH: usize = 2;

/// How the tuner walks the (deduplicated, statically feasible) candidate set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchMode {
    /// Evaluate every candidate: the oracle the guided mode is validated
    /// against.
    Exhaustive,
    /// Evaluate a coarse lattice and a stratified seed sample and refine the
    /// best two seeds by coordinate descent: sweep one knob at a time, move
    /// on strict improvement, stop when no knob improves.
    #[default]
    Guided,
}

/// Static launch resources of one candidate point, cheap to compute without
/// lowering the point to a tile program (see [`TuneHooks::footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointFootprint {
    /// Threads per block the point launches with.
    pub threads_per_block: u32,
    /// Shared memory per block, in bytes, the lowered kernel will request.
    pub shared_mem_per_block: u64,
}

/// The workload's hooks for the staged search; every compile passes both.
///
/// Both hooks must be *exact* with respect to the lowering they describe:
/// `normalize` must map a point to another point producing the identical
/// kernel (it is used to deduplicate), and `footprint` must report exactly
/// the launch resources the lowered program requests (an over-estimate would
/// prune feasible points and break the exhaustive-oracle equivalence). Debug
/// builds check `footprint` against every candidate the search costs.
#[derive(Clone, Copy)]
pub struct TuneHooks<'a> {
    /// Maps a raw point to the canonical point the lowering actually builds
    /// (e.g. `segments` to the number of non-empty segments of the axis,
    /// `block_axis` to one segment, `block_rows` to the rows).
    pub normalize: &'a dyn Fn(&TuningPoint) -> TuningPoint,
    /// Reports the static launch resources of a canonical point.
    pub footprint: &'a dyn Fn(&TuningPoint) -> PointFootprint,
}

/// The winning configuration and its estimated latency.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningChoice {
    /// The chosen point.
    pub point: TuningPoint,
    /// Its kernel profile.
    pub profile: KernelProfile,
    /// Estimated latency in microseconds.
    pub latency_us: f64,
    /// Number of distinct candidates run through the cost model.
    pub evaluated: usize,
    /// Size of the raw cartesian space before dedup and pruning.
    pub space_size: usize,
}

/// Hasher of the canonical-point → candidate-id map: one rotate-xor-multiply
/// round per field of a [`TuningPoint`] (its derived `Hash` writes five
/// integers) in place of SipHash. The keys are the tuner's own lattice, never
/// outside input, so SipHash's resistance to crafted collisions buys nothing
/// here.
#[derive(Default)]
struct PointHasher(u64);

impl Hasher for PointHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    fn write_u64(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn finish(&self) -> u64 {
        // Tile sizes are multiples of 16, so the low bits of the products
        // carry little; the table indexes with them, so fold the high half in.
        self.0 ^ (self.0 >> 32)
    }
}

/// The working state of one `tune` call: the deduplicated, statically
/// feasible candidates in first-raw-occurrence order (a candidate's position
/// is its id and the deterministic tie-break between equal latencies), the
/// one map from canonical point to id, and the latency memo indexed by id.
struct Search<'a, F> {
    arch: &'a GpuArch,
    build: &'a F,
    hooks: TuneHooks<'a>,
    candidates: Vec<TuningPoint>,
    index: HashMap<TuningPoint, usize, BuildHasherDefault<PointHasher>>,
    /// `None` until the candidate has been costed; each is costed once.
    latency_us: Vec<Option<f64>>,
}

impl<F: Fn(&TuningPoint) -> KernelProfile> Search<'_, F> {
    /// The candidate `point` canonicalizes to, if it survived stages 1–2.
    fn id_of(&self, point: &TuningPoint) -> Option<usize> {
        self.index.get(&(self.hooks.normalize)(point)).copied()
    }

    /// Costs every not-yet-costed candidate of `ids`.
    fn evaluate(&mut self, ids: impl IntoIterator<Item = usize>) {
        for id in ids {
            if self.latency_us[id].is_none() {
                let point = self.candidates[id];
                let profile = (self.build)(&point);
                // Guard the hand-written footprint against drifting from the
                // lowering it describes, at every costed candidate: an
                // over-estimate would silently prune feasible points from both
                // search modes, an under-estimate would defeat the prefilter.
                debug_assert_eq!(
                    (self.hooks.footprint)(&point),
                    PointFootprint {
                        threads_per_block: profile.threads_per_block,
                        shared_mem_per_block: profile.shared_mem_per_block,
                    },
                    "footprint hook (left) out of sync with the lowering (right) at {point:?}"
                );
                self.latency_us[id] = Some(estimate_latency(self.arch, &profile).total_us);
            }
        }
    }

    fn latency(&self, id: usize) -> f64 {
        self.latency_us[id].expect("candidate compared before it was costed")
    }

    /// The search's one ordering: by latency, then by candidate id.
    fn order(&self, a: usize, b: usize) -> std::cmp::Ordering {
        self.latency(a)
            .total_cmp(&self.latency(b))
            .then_with(|| a.cmp(&b))
    }
}

/// Searches [`TuningSpace::PAPER`] against one architecture, as the
/// [module docs](self) describe.
#[derive(Debug, Clone)]
pub struct AutoTuner {
    arch: GpuArch,
    mode: SearchMode,
}

impl AutoTuner {
    /// Creates a tuner for one architecture with the default (guided) search
    /// mode.
    pub fn new(arch: GpuArch) -> Self {
        AutoTuner {
            arch,
            mode: SearchMode::default(),
        }
    }

    /// Replaces the search mode.
    pub fn with_mode(mut self, mode: SearchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Returns the lowest-latency choice over the space. `build` is the cost
    /// of one candidate: it runs once per candidate the search visits and
    /// once more for the winner's profile.
    ///
    /// # Panics
    ///
    /// Panics if every point of the space is statically infeasible or the
    /// winner's latency is infinite — callers always include at least one
    /// incremental Single-Segment point, which is feasible on every supported
    /// GPU.
    pub fn tune<F>(&self, build: &F, hooks: TuneHooks<'_>) -> TuningChoice
    where
        F: Fn(&TuningPoint) -> KernelProfile,
    {
        let raw = TuningSpace::PAPER.points();
        let space_size = raw.len();

        // Stages 1 + 2, one pass: canonicalize, drop what can never launch,
        // and give each distinct survivor an id the first time it is seen.
        let mut candidates = Vec::with_capacity(raw.len());
        let mut index = HashMap::with_capacity_and_hasher(raw.len(), Default::default());
        for point in &raw {
            let canonical = (hooks.normalize)(point);
            let footprint = (hooks.footprint)(&canonical);
            if self
                .arch
                .launch_feasible(footprint.threads_per_block, footprint.shared_mem_per_block)
            {
                index.entry(canonical).or_insert_with(|| {
                    candidates.push(canonical);
                    candidates.len() - 1
                });
            }
        }
        assert!(
            !candidates.is_empty(),
            "every point of the tuning space is statically infeasible on {}",
            self.arch.name
        );
        let mut search = Search {
            arch: &self.arch,
            build,
            hooks,
            latency_us: vec![None; candidates.len()],
            candidates,
            index,
        };
        let all = 0..search.candidates.len();

        match self.mode {
            SearchMode::Exhaustive => search.evaluate(all.clone()),
            SearchMode::Guided => self.guided_search(&mut search),
        }

        let winner = all
            .filter(|&id| search.latency_us[id].is_some())
            .min_by(|&a, &b| search.order(a, b))
            .expect("at least one tuning point evaluated");
        let point = search.candidates[winner];
        let choice = TuningChoice {
            point,
            profile: build(&point),
            latency_us: search.latency(winner),
            evaluated: search.latency_us.iter().flatten().count(),
            space_size,
        };
        assert!(
            choice.latency_us.is_finite(),
            "every candidate configuration was infeasible on {}",
            self.arch.name
        );
        choice
    }

    /// Seeds + coordinate descent (stage 3).
    fn guided_search<F>(&self, search: &mut Search<'_, F>)
    where
        F: Fn(&TuningPoint) -> KernelProfile,
    {
        let count = search.candidates.len();
        let beam = BEAM_WIDTH.min(count);
        let mut seeds: Vec<usize> = Vec::new();
        // A coarse half-resolution lattice over the three coupled knobs
        // (`block_rows`, `block_axis`, `segments`): they all trade off
        // against the same shared-memory budget and grid size, so descent
        // seeded on the wrong side of that 3-D ridge stalls at a local
        // optimum no single step escapes. Sampling every other value of each
        // coupled axis (threads and pipeline depth held at their middle
        // values — they are independent and cheap for descent to fix) puts
        // one seed within one descent step of every region of the ridge.
        // Every other value of an axis, always including the extremes (the
        // boundary values are frequent winners — e.g. the largest row tile).
        fn halved<T: Copy>(values: &[T]) -> Vec<T> {
            let mut out: Vec<T> = values.iter().copied().step_by(2).collect();
            if values.len().is_multiple_of(2) {
                if let Some(last) = values.last() {
                    out.push(*last);
                }
            }
            out
        }
        let space = TuningSpace::PAPER;
        let mid = |n: usize| n / 2;
        let threads = space.threads[mid(space.threads.len())];
        let pipeline_depth = space.pipeline_depths[mid(space.pipeline_depths.len())];
        for block_rows in halved(space.block_rows) {
            for block_axis in halved(space.block_axis) {
                for segments in halved(space.segments) {
                    seeds.extend(search.id_of(&TuningPoint {
                        block_rows,
                        block_axis,
                        threads,
                        pipeline_depth,
                        segments,
                    }));
                }
            }
        }
        // Plus a stratified sample across the whole candidate list.
        seeds.extend((0..count).step_by((count / beam).max(1)));
        search.evaluate(seeds.iter().copied());

        // Keep the best `beam` distinct seeds as descent starting points
        // (equal ids are adjacent once sorted).
        seeds.sort_by(|&a, &b| search.order(a, b));
        seeds.dedup();
        seeds.truncate(beam);

        for start in seeds {
            let mut current = start;
            loop {
                let neighborhood: Vec<usize> = space
                    .neighborhood(&search.candidates[current])
                    .iter()
                    .filter_map(|point| search.id_of(point))
                    .collect();
                search.evaluate(neighborhood.iter().copied());
                let best = neighborhood
                    .into_iter()
                    .min_by(|&a, &b| search.order(a, b))
                    .unwrap_or(current);
                // Move only on strict improvement so descent terminates.
                if search.latency(best) < search.latency(current) {
                    current = best;
                } else {
                    break;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hooks that constrain nothing: every point is its own canonical point
    /// and launches with its threads and no shared memory.
    const OPEN: TuneHooks<'static> = TuneHooks {
        normalize: &|p| *p,
        footprint: &|p| PointFootprint {
            threads_per_block: p.threads,
            shared_mem_per_block: 0,
        },
    };

    #[test]
    fn space_enumerates_cartesian_product() {
        let space = TuningSpace::PAPER;
        assert_eq!(space.points().len(), 4 * 5 * 2 * 3 * 7);
        assert_eq!(space.len(), space.points().len());
    }

    fn artificial_build(p: &TuningPoint) -> KernelProfile {
        KernelProfile {
            // Smaller block_axis is artificially made cheaper here.
            flops: (p.block_axis as u64) << 22,
            hbm_bytes: 1 << 24,
            blocks: 1024,
            threads_per_block: p.threads,
            ..Default::default()
        }
    }

    #[test]
    fn exhaustive_tuner_picks_the_fastest_candidate() {
        let tuner = AutoTuner::new(GpuArch::a10()).with_mode(SearchMode::Exhaustive);
        let choice = tuner.tune(&artificial_build, OPEN);
        assert_eq!(choice.point.block_axis, 16);
        assert!(choice.latency_us.is_finite());
        assert_eq!(choice.evaluated, TuningSpace::PAPER.points().len());
        assert_eq!(choice.space_size, TuningSpace::PAPER.len());
    }

    #[test]
    fn guided_matches_exhaustive_with_far_fewer_evaluations() {
        let arch = GpuArch::a10();
        let oracle = AutoTuner::new(arch.clone())
            .with_mode(SearchMode::Exhaustive)
            .tune(&artificial_build, OPEN);
        let guided = AutoTuner::new(arch).tune(&artificial_build, OPEN);
        assert_eq!(guided.point, oracle.point);
        assert_eq!(guided.latency_us, oracle.latency_us);
        assert!(
            guided.evaluated * 5 <= oracle.evaluated,
            "guided evaluated {} of {}",
            guided.evaluated,
            oracle.evaluated
        );
    }

    #[test]
    fn exhaustive_costs_each_distinct_feasible_canonical_point_once() {
        // Hooks shaped like a real workload's: tiles clamp to a 40 x 100
        // problem, the footprint grows with the tile and the pipeline.
        let arch = GpuArch::a10();
        let normalize = |p: &TuningPoint| TuningPoint {
            block_rows: p.block_rows.min(40),
            block_axis: p.block_axis.min(100usize.div_ceil(p.segments as usize)),
            ..*p
        };
        let footprint = |p: &TuningPoint| PointFootprint {
            threads_per_block: p.threads,
            shared_mem_per_block: (p.block_rows * p.block_axis) as u64
                * 16
                * u64::from(p.pipeline_depth),
        };
        // Counted independently of the tuner's map: sort, then dedup.
        let mut expected: Vec<_> = TuningSpace::PAPER
            .points()
            .iter()
            .map(normalize)
            .filter(|p| {
                let fp = footprint(p);
                arch.launch_feasible(fp.threads_per_block, fp.shared_mem_per_block)
            })
            .map(|p| {
                (
                    p.block_rows,
                    p.block_axis,
                    p.threads,
                    p.pipeline_depth,
                    p.segments,
                )
            })
            .collect();
        let feasible_raw = expected.len();
        expected.sort_unstable();
        expected.dedup();
        assert!(expected.len() < feasible_raw, "the hook must alias points");
        assert!(feasible_raw < 840, "the hook must prune points");

        let calls = std::cell::Cell::new(0usize);
        let build = |p: &TuningPoint| {
            calls.set(calls.get() + 1);
            let fp = footprint(p);
            KernelProfile {
                shared_mem_per_block: fp.shared_mem_per_block,
                ..artificial_build(p)
            }
        };
        let hooks = TuneHooks {
            normalize: &normalize,
            footprint: &footprint,
        };
        let oracle = AutoTuner::new(arch)
            .with_mode(SearchMode::Exhaustive)
            .tune(&build, hooks);
        assert_eq!(oracle.evaluated, expected.len());
        assert_eq!(
            calls.get(),
            expected.len() + 1,
            "one costing per candidate, one more for the winner's profile"
        );
    }

    #[test]
    fn normalize_hook_deduplicates_equivalent_points() {
        // Collapse the segments knob entirely (a strategy that ignores it):
        // the tuner must stop paying the 7x multiplier for it.
        let tuner = AutoTuner::new(GpuArch::a10()).with_mode(SearchMode::Exhaustive);
        let normalize = |p: &TuningPoint| TuningPoint { segments: 1, ..*p };
        let hooks = TuneHooks {
            normalize: &normalize,
            ..OPEN
        };
        let choice = tuner.tune(&artificial_build, hooks);
        let space = TuningSpace::PAPER;
        assert_eq!(choice.evaluated, space.len() / space.segments.len());
        assert_eq!(choice.point.segments, 1);
    }

    #[test]
    fn footprint_hook_prunes_statically_infeasible_points() {
        let arch = GpuArch::a10();
        let shared = arch.shared_mem_per_sm;
        let tuner = AutoTuner::new(arch).with_mode(SearchMode::Exhaustive);
        // Pipeline depth 3 demands more shared memory than the SM has; the
        // prefilter must reject it without ever calling `build`.
        let footprint = move |p: &TuningPoint| PointFootprint {
            threads_per_block: p.threads,
            shared_mem_per_block: if p.pipeline_depth == 3 {
                shared * 2
            } else {
                32 * 1024
            },
        };
        let hooks = TuneHooks {
            footprint: &footprint,
            ..OPEN
        };
        let choice = tuner.tune(
            &|p: &TuningPoint| {
                assert_ne!(p.pipeline_depth, 3, "pruned point reached the builder");
                KernelProfile {
                    shared_mem_per_block: 32 * 1024,
                    ..artificial_build(p)
                }
            },
            hooks,
        );
        assert_ne!(choice.point.pipeline_depth, 3);
        assert_eq!(choice.evaluated, TuningSpace::PAPER.len() * 2 / 3);
    }
}
