//! A plan-cache compile is a pure function of `(workload, arch)`: whatever
//! the cache compiled before, a miss returns the kernel a lone compile does.

use rf_bench::ledger::tuner_workloads;
use rf_codegen::{compile_workload, CompiledKernel};
use rf_gpusim::GpuArch;
use rf_runtime::{PlanCache, TuningStats};

#[test]
fn a_compile_does_not_depend_on_what_the_cache_compiled_before() {
    // One plan resident at a time, so the reversed pass recompiles all but
    // its first workload after the forward pass: every plan must be the one
    // a lone compile returns, down to its `evaluated` count.
    let workloads = tuner_workloads();
    let arch = GpuArch::h800();
    let alone: Vec<CompiledKernel> = workloads
        .iter()
        .map(|w| compile_workload(w, &arch))
        .collect();
    let cache = PlanCache::new(arch, 1);
    let forward = workloads.iter().zip(&alone);
    for (w, expected) in forward.clone().chain(forward.rev()) {
        assert_eq!(*cache.get_or_compile(w), *expected, "{}", w.name());
    }
    assert_eq!(cache.stats().misses as usize, 2 * workloads.len() - 1);
    assert_eq!(cache.tuning_stats(), TuningStats::default());
}
