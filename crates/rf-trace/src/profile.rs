//! Op-level profile aggregation for the tile-VM interpreter.
//!
//! The `rf_tile::exec` VM reports, per executed program, one [`OpSample`]
//! for each op kind of the store → correct → reduce template that ran: how
//! often it ran and the tensor bytes it loaded and stored, counted by the
//! kernel's own loops. The runtime attributes every sample to the
//! `(workload class, region, op)` it ran under and folds it into an
//! [`OpProfiler`] — a small concurrent aggregation map shared by all workers
//! of the engine.
//!
//! The aggregate exports as **folded-stack text** (one
//! `class;region;op <weight>` line per aggregate, weighted by counted bytes),
//! the input format of `inferno`-style flamegraph tools. No time is
//! attributed to ops: the VM measures one wall time per call, not per op.
//! [`validate_folded`] is the matching well-formedness check used by tests
//! and CI.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Aggregatable counters of one op kind within one program execution, as
/// the VM's kernels counted them (`rf_tile::OpStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpSample {
    /// Times the op ran (e.g. one per main-loop tile per row).
    pub invocations: u64,
    /// Bytes of input tensors the op loaded.
    pub bytes_read: u64,
    /// Bytes of the output tensor the op stored.
    pub bytes_written: u64,
}

impl OpSample {
    fn add(&mut self, other: &OpSample) {
        self.invocations += other.invocations;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

type ProfKey = (String, String, &'static str);

/// Concurrent aggregation of tile-VM op samples, keyed by
/// `(workload class, region, op)`.
///
/// Construction fixes whether the profiler is live: a disabled profiler
/// never takes its lock and the engine's serving path never produces samples
/// for it, so the interpreter stays untouched (the `TraceConfig` gate the
/// acceptance tests pin down).
#[derive(Debug)]
pub struct OpProfiler {
    enabled: bool,
    entries: Mutex<BTreeMap<ProfKey, OpSample>>,
}

impl OpProfiler {
    /// Creates a profiler; `enabled = false` makes every record a no-op.
    pub fn new(enabled: bool) -> OpProfiler {
        OpProfiler {
            enabled,
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether callers should produce samples for this profiler.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Folds one op sample into the `(class, region, op)` aggregate.
    pub fn record(&self, class: &str, region: &str, op: &'static str, sample: &OpSample) {
        if !self.enabled {
            return;
        }
        let mut entries = self.entries.lock().expect("op profiler poisoned");
        entries
            .entry((class.to_string(), region.to_string(), op))
            .or_default()
            .add(sample);
    }

    /// A point-in-time copy of every aggregate, sorted by key.
    pub fn snapshot(&self) -> OpProfileSnapshot {
        let entries = self.entries.lock().expect("op profiler poisoned");
        OpProfileSnapshot {
            entries: entries
                .iter()
                .map(|((class, region, op), sample)| OpProfileEntry {
                    class: class.clone(),
                    region: region.clone(),
                    op: op.to_string(),
                    counters: *sample,
                })
                .collect(),
        }
    }
}

/// One `(class, region, op)` aggregate in an [`OpProfileSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpProfileEntry {
    /// Workload class served (e.g. `softmax`, `mha`, `graph`).
    pub class: String,
    /// Region: the compiled plan (tile program) name.
    pub region: String,
    /// Op kind within the tile template (`reduce`, `correct`, …).
    pub op: String,
    /// Summed counters.
    pub counters: OpSample,
}

/// Exportable aggregate of a profiling run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpProfileSnapshot {
    /// Aggregates sorted by `(class, region, op)`.
    pub entries: Vec<OpProfileEntry>,
}

impl OpProfileSnapshot {
    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folded-stack export: one `class;region;op <bytes>` line per
    /// aggregate, the input of `inferno-flamegraph` and friends. Frames never
    /// contain `;` or whitespace (offending characters are replaced by `_`),
    /// and the weight is the aggregate's counted bytes read plus written
    /// (clamped to ≥ 1 so an op that moved no tensor bytes, like `store`, is
    /// never invisible in the flamegraph).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            out.push_str(&format!(
                "{};{};{} {}\n",
                frame(&entry.class),
                frame(&entry.region),
                frame(&entry.op),
                (entry.counters.bytes_read + entry.counters.bytes_written).max(1),
            ));
        }
        out
    }
}

/// Sanitises one folded-stack frame: `;` and whitespace become `_`.
fn frame(text: &str) -> String {
    text.chars()
        .map(|c| {
            if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            }
        })
        .collect()
}

/// Validates folded-stack text: every non-empty line must be
/// `frame(;frame)* <u64 weight>` with non-empty, whitespace-free frames.
/// Returns the number of stack lines.
///
/// # Errors
///
/// A human-readable description of the first malformed line.
pub fn validate_folded(text: &str) -> Result<usize, String> {
    let mut stacks = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no weight separator: {line:?}", lineno + 1))?;
        weight
            .parse::<u64>()
            .map_err(|_| format!("line {}: weight {weight:?} is not a u64", lineno + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", lineno + 1));
        }
        for part in stack.split(';') {
            if part.is_empty() {
                return Err(format!("line {}: empty frame in {stack:?}", lineno + 1));
            }
            if part.chars().any(char::is_whitespace) {
                return Err(format!("line {}: whitespace in frame {part:?}", lineno + 1));
            }
        }
        stacks += 1;
    }
    Ok(stacks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(invocations: u64, bytes_read: u64) -> OpSample {
        OpSample {
            invocations,
            bytes_read,
            bytes_written: 0,
        }
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let profiler = OpProfiler::new(false);
        profiler.record("softmax", "softmax_4x64", "reduce", &sample(4, 100));
        assert!(!profiler.enabled());
        assert!(profiler.snapshot().is_empty());
        assert_eq!(profiler.snapshot().folded(), "");
    }

    #[test]
    fn samples_aggregate_by_class_region_and_op() {
        let profiler = OpProfiler::new(true);
        profiler.record("softmax", "softmax_4x64", "reduce", &sample(4, 100));
        profiler.record("softmax", "softmax_4x64", "reduce", &sample(2, 50));
        profiler.record("softmax", "softmax_4x64", "correct", &sample(1, 10));
        let snapshot = profiler.snapshot();
        assert_eq!(snapshot.entries.len(), 2);
        assert_eq!(snapshot.entries[1].counters.invocations, 6);
        assert_eq!(snapshot.entries[1].counters.bytes_read, 150);
        assert_eq!(snapshot.entries[0].op, "correct");
    }

    #[test]
    fn folded_export_validates_and_sanitises_frames() {
        let profiler = OpProfiler::new(true);
        profiler.record("quant gemm", "q;prog", "reduce", &sample(3, 900));
        profiler.record("quant gemm", "q;prog", "epilogue", &sample(1, 0));
        let folded = profiler.snapshot().folded();
        assert_eq!(validate_folded(&folded), Ok(2));
        assert!(folded.contains("quant_gemm;q_prog;reduce 900\n"));
        // An op that moved no bytes still produces a visible weight.
        assert!(folded.starts_with("quant_gemm;q_prog;epilogue 1\n"));
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_folded("no-weight").is_err());
        assert!(validate_folded("a;b notanum").is_err());
        assert!(validate_folded("a;;b 5").is_err());
        assert!(validate_folded(" 5").is_err());
        assert_eq!(validate_folded("a;b 5\n\nc 1\n"), Ok(2));
    }
}
