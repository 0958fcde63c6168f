//! Traffic and flop accounting for tile programs.

/// The memory scope of a tile buffer (the GPU memory hierarchy of §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryScope {
    /// Global (HBM) memory.
    Global,
    /// Block-scoped shared memory.
    Shared,
    /// Per-thread register fragments.
    Fragment,
}

impl MemoryScope {
    /// Short name used by the pretty-printer.
    pub fn name(self) -> &'static str {
        match self {
            MemoryScope::Global => "global",
            MemoryScope::Shared => "shared",
            MemoryScope::Fragment => "fragment",
        }
    }
}

/// Aggregate cost of executing a tile program once (all blocks, all stages).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostSummary {
    /// Bytes moved between global memory and on-chip storage.
    pub global_bytes: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Number of kernel launches required (1 for a fused single-kernel
    /// program; >1 when a separate combine kernel is needed).
    pub kernel_launches: u32,
    /// Bytes of shared memory required per block (peak).
    pub shared_mem_per_block: u64,
}

impl CostSummary {
    /// Adds another summary's traffic and flops (kernel launches add too; the
    /// per-block peaks take the maximum).
    pub fn combine(&self, other: &CostSummary) -> CostSummary {
        CostSummary {
            global_bytes: self.global_bytes + other.global_bytes,
            flops: self.flops + other.flops,
            kernel_launches: self.kernel_launches + other.kernel_launches,
            shared_mem_per_block: self.shared_mem_per_block.max(other.shared_mem_per_block),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_adds_traffic_and_takes_peak_shared() {
        let a = CostSummary {
            global_bytes: 100,
            flops: 1000,
            kernel_launches: 1,
            shared_mem_per_block: 32,
        };
        let b = CostSummary {
            global_bytes: 50,
            flops: 500,
            kernel_launches: 2,
            shared_mem_per_block: 64,
        };
        let c = a.combine(&b);
        assert_eq!(c.global_bytes, 150);
        assert_eq!(c.flops, 1500);
        assert_eq!(c.kernel_launches, 3);
        assert_eq!(c.shared_mem_per_block, 64);
    }

    #[test]
    fn scope_names() {
        assert_eq!(MemoryScope::Global.name(), "global");
        assert_eq!(MemoryScope::Shared.name(), "shared");
        assert_eq!(MemoryScope::Fragment.name(), "fragment");
    }
}
