//! The compiled-plan cache: one tuned [`CompiledKernel`] per
//! `(workload, architecture)` pair, shared across worker threads.
//!
//! Compilation (auto-tuning, then lowering the chosen point; a workload names
//! its cascade, so no detection or ACRF runs here) costs far more than a warm
//! lookup, which is a hash-map probe. The cache therefore amortizes the
//! compile across repeated request shapes, the way DNNFusion amortizes fusion
//! analysis across repeated graphs.
//!
//! Concurrency design:
//!
//! * the map itself sits behind an [`RwLock`]; lookups take the read lock,
//!   insertions and evictions take the write lock for a few hash operations;
//! * each entry holds an `Arc<OnceLock<Arc<CompiledKernel>>>`, so the
//!   expensive compilation runs **outside** both locks. When several threads
//!   miss on the same key simultaneously, [`std::sync::OnceLock::get_or_init`]
//!   guarantees exactly one of them compiles (and exactly one miss is
//!   counted); the rest block on the slot, not on the map;
//! * recency is a global atomic clock stamped per access, which keeps the read
//!   path lock-free apart from the map's read lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use rf_codegen::{
    compile_workload_with, CompileOptions, CompiledKernel, PlanKey, TuningCache, TuningCacheStats,
    Workload,
};
use rf_gpusim::GpuArch;

/// A snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an already-compiled plan (including threads that
    /// waited for a concurrent compilation of the same key to finish).
    pub hits: u64,
    /// Lookups that triggered a compilation — exactly one per distinct key
    /// while the key stays resident.
    pub misses: u64,
    /// Entries removed by the LRU bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

struct CacheEntry {
    slot: Arc<OnceLock<Arc<CompiledKernel>>>,
    last_used: Arc<AtomicU64>,
}

/// A bounded, thread-safe LRU cache of compiled plans for one architecture.
pub struct PlanCache {
    arch: GpuArch,
    /// The arch half of every [`PlanKey`] this cache produces, computed once
    /// (the fingerprint hashes all ten architecture parameters).
    arch_fingerprint: u64,
    capacity: usize,
    /// Warm-start memory for the auto-tuner, shared by every compilation this
    /// cache triggers: a plan-cache miss for a new shape of an already-seen
    /// workload class starts its search from the class's previous winners.
    tuning: Arc<TuningCache>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: RwLock<HashMap<PlanKey, CacheEntry>>,
}

impl PlanCache {
    /// Creates a cache for `arch` holding at most `capacity` plans.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(arch: GpuArch, capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be positive");
        PlanCache {
            arch_fingerprint: arch.fingerprint(),
            arch,
            capacity,
            tuning: Arc::new(TuningCache::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: RwLock::new(HashMap::new()),
        }
    }

    /// The architecture this cache compiles for.
    pub fn arch(&self) -> &GpuArch {
        &self.arch
    }

    /// Counters of the auto-tuner warm-start cache.
    pub fn tuning_stats(&self) -> TuningCacheStats {
        self.tuning.stats()
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.entries.read().expect("plan cache lock poisoned").len()
    }

    /// Whether the cache holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the cache key for `workload` using the precomputed architecture
    /// fingerprint (the hot path runs this once per lookup).
    fn key_for(&self, workload: &Workload) -> PlanKey {
        PlanKey {
            workload: workload.clone(),
            arch: self.arch.name,
            arch_fingerprint: self.arch_fingerprint,
        }
    }

    /// Whether a compiled plan for `workload` is resident.
    pub fn contains(&self, workload: &Workload) -> bool {
        let key = self.key_for(workload);
        self.entries
            .read()
            .expect("plan cache lock poisoned")
            .get(&key)
            .is_some_and(|e| e.slot.get().is_some())
    }

    /// Returns the compiled plan for `workload`, compiling it on first use.
    pub fn get_or_compile(&self, workload: &Workload) -> Arc<CompiledKernel> {
        self.get_or_compile_traced(workload).0
    }

    /// Like [`PlanCache::get_or_compile`], additionally reporting whether the
    /// lookup was a hit (`true`) or triggered this key's compilation.
    pub fn get_or_compile_traced(&self, workload: &Workload) -> (Arc<CompiledKernel>, bool) {
        let key = self.key_for(workload);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;

        // Fast path: read lock only.
        let slot = {
            let entries = self.entries.read().expect("plan cache lock poisoned");
            entries.get(&key).map(|entry| {
                entry.last_used.store(stamp, Ordering::Relaxed);
                Arc::clone(&entry.slot)
            })
        };
        let slot = match slot {
            Some(slot) => slot,
            None => self.insert_slot(key, stamp),
        };

        // The compile itself runs outside every lock; OnceLock serialises
        // concurrent initializers so exactly one thread per key compiles.
        let mut compiled_here = false;
        let kernel = slot.get_or_init(|| {
            compiled_here = true;
            self.misses.fetch_add(1, Ordering::Relaxed);
            let opts = CompileOptions {
                tuning_cache: Some(Arc::clone(&self.tuning)),
                ..CompileOptions::default()
            };
            Arc::new(compile_workload_with(workload, &self.arch, &opts))
        });
        if !compiled_here {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        (Arc::clone(kernel), !compiled_here)
    }

    /// Takes the write lock, re-checks for a racing insert, evicts if at
    /// capacity and inserts a fresh (uninitialised) slot for `key`.
    fn insert_slot(&self, key: PlanKey, stamp: u64) -> Arc<OnceLock<Arc<CompiledKernel>>> {
        let mut entries = self.entries.write().expect("plan cache lock poisoned");
        if let Some(entry) = entries.get(&key) {
            entry.last_used.store(stamp, Ordering::Relaxed);
            return Arc::clone(&entry.slot);
        }
        if entries.len() >= self.capacity {
            // Evict the least-recently-used *completed* entry. An in-flight
            // slot (another thread still compiling it) must stay resident:
            // evicting it would make the next request for the same key insert
            // a fresh slot and compile the same plan a second time. Waiters on
            // an evicted slot keep their own Arc to it, so a completed plan
            // still serves them; only the map entry disappears. When every
            // resident entry is in flight the map temporarily exceeds
            // capacity instead of evicting.
            if let Some(victim) = entries
                .iter()
                .filter(|(_, e)| e.slot.get().is_some())
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = Arc::new(OnceLock::new());
        entries.insert(
            key,
            CacheEntry {
                slot: Arc::clone(&slot),
                last_used: Arc::new(AtomicU64::new(stamp)),
            },
        );
        slot
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("arch", &self.arch.name)
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn softmax(len: usize) -> Workload {
        Workload::Softmax { rows: 8, len }
    }

    #[test]
    fn repeated_lookups_hit_after_one_miss() {
        let cache = PlanCache::new(GpuArch::a10(), 8);
        let w = softmax(64);
        let (first, hit) = cache.get_or_compile_traced(&w);
        assert!(!hit);
        for _ in 0..5 {
            let (again, hit) = cache.get_or_compile_traced(&w);
            assert!(hit);
            assert!(Arc::ptr_eq(&first, &again), "hits must share the plan");
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (5, 1, 1));
    }

    #[test]
    fn distinct_workloads_and_arches_miss_separately() {
        let a10 = PlanCache::new(GpuArch::a10(), 8);
        let h800 = PlanCache::new(GpuArch::h800(), 8);
        a10.get_or_compile(&softmax(64));
        a10.get_or_compile(&softmax(128));
        h800.get_or_compile(&softmax(64));
        assert_eq!(a10.stats().misses, 2);
        assert_eq!(h800.stats().misses, 1);
    }

    #[test]
    fn lru_bound_evicts_least_recently_used() {
        let cache = PlanCache::new(GpuArch::a10(), 2);
        cache.get_or_compile(&softmax(32));
        cache.get_or_compile(&softmax(64));
        // Refresh 32 so 64 becomes the LRU victim.
        cache.get_or_compile(&softmax(32));
        cache.get_or_compile(&softmax(96));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!(cache.contains(&softmax(32)));
        assert!(cache.contains(&softmax(96)));
        assert!(!cache.contains(&softmax(64)));
        // Re-requesting the evicted plan recompiles (a new miss).
        cache.get_or_compile(&softmax(64));
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn concurrent_lookups_of_one_key_compile_once() {
        let cache = Arc::new(PlanCache::new(GpuArch::a10(), 8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || cache.get_or_compile(&softmax(256)))
            })
            .collect();
        let plans: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "exactly one thread compiles");
        assert_eq!(stats.hits, 7);
        assert!(plans.windows(2).all(|p| Arc::ptr_eq(&p[0], &p[1])));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        PlanCache::new(GpuArch::a10(), 0);
    }

    #[test]
    fn in_flight_entries_are_never_evicted() {
        // Regression: LRU eviction used `min_by_key` over *all* entries, so an
        // entry whose OnceLock was still being compiled by another thread
        // could be evicted, forcing a duplicate compilation of its key.
        let cache = PlanCache::new(GpuArch::a10(), 1);
        // An uninitialised slot models a compilation in flight on key A.
        let key_a = cache.key_for(&softmax(32));
        cache.insert_slot(key_a.clone(), 1);
        // Filling past capacity must not pick the in-flight entry as victim:
        // with nothing evictable the map temporarily exceeds capacity.
        cache.get_or_compile(&softmax(64));
        assert!(
            cache
                .entries
                .read()
                .unwrap()
                .get(&key_a)
                .is_some_and(|e| e.slot.get().is_none()),
            "the in-flight slot must survive eviction pressure"
        );
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.len(), 2, "over capacity rather than evicting");
        // Once more entries complete, the completed one becomes the victim.
        cache.get_or_compile(&softmax(96));
        assert!(cache.entries.read().unwrap().contains_key(&key_a));
        assert!(!cache.contains(&softmax(64)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn concurrent_eviction_churn_never_drops_an_in_flight_slot() {
        // A compilation held in flight for the whole test (an uninitialised
        // slot whose OnceLock we fill at the end) while concurrent threads
        // churn the rest of an over-subscribed cache. The old `min_by_key`
        // over all entries would evict the in-flight slot under this
        // pressure, forcing a duplicate compile of its key; with the fix it
        // must survive arbitrary interleavings.
        let cache = Arc::new(PlanCache::new(GpuArch::a10(), 2));
        let in_flight = softmax(8);
        let key = cache.key_for(&in_flight);
        let slot = cache.insert_slot(key.clone(), 1);
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let cache = Arc::clone(&cache);
                thread::spawn(move || cache.get_or_compile(&softmax(32 * (i % 4 + 1))))
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            cache
                .entries
                .read()
                .unwrap()
                .get(&key)
                .is_some_and(|e| Arc::ptr_eq(&e.slot, &slot)),
            "the in-flight slot must survive concurrent eviction churn"
        );
        // The in-flight compile finally completes; later requests for its key
        // must join the surviving slot instead of recompiling.
        let plan = Arc::new(rf_codegen::compile_workload(&in_flight, cache.arch()));
        assert!(slot.set(Arc::clone(&plan)).is_ok(), "slot still empty");
        let misses_before = cache.stats().misses;
        let (served, hit) = cache.get_or_compile_traced(&in_flight);
        assert!(hit);
        assert!(Arc::ptr_eq(&served, &plan));
        assert_eq!(cache.stats().misses, misses_before);
    }

    #[test]
    fn plan_cache_shares_one_tuning_cache_across_compiles() {
        let cache = PlanCache::new(GpuArch::a10(), 8);
        cache.get_or_compile(&softmax(64));
        let after_first = cache.tuning_stats();
        assert_eq!(after_first.lookups, 1);
        assert_eq!(after_first.insertions, 1);
        assert_eq!(after_first.seeded, 0);
        // A different shape of the same class warm-starts from the winner.
        cache.get_or_compile(&softmax(128));
        let after_second = cache.tuning_stats();
        assert_eq!(after_second.seeded, 1);
        assert_eq!(after_second.entries, 1);
        // A warm hit does not touch the tuner at all.
        cache.get_or_compile(&softmax(64));
        assert_eq!(cache.tuning_stats().lookups, 2);
    }
}
