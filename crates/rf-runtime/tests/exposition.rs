//! Golden Prometheus exposition: "same numbers, same families, same order"
//! as a test.
//!
//! A scripted replay — two fixed scripts of `record_*` calls into one ledger
//! at `TraceLevel::Histograms`, snapshotted with fixed cache stats — is
//! rendered with [`MetricsSnapshot::prometheus`] and compared byte for byte
//! with `tests/golden/exposition.prom`; every counter field of the
//! [`MetricsSnapshot`] is compared with `tests/golden/counters.txt`. Both
//! files were recorded on the commit before the exposition became
//! table-driven and the sliding windows were deleted. Since then: deleting
//! the calibration ledger removed the `redfuser_calibration_*` and
//! `calibration.*` lines; deleting the multi-device fleet removed the four
//! per-device families (the scripts were then replayed into one ledger
//! instead of two merged ones, which changes no other line); deleting the
//! telemetry ring removed its counters line (its wall-clock window gauges
//! were never compared) and added the `redfuser_sim_busy_us_total` counter.
//!
//! Re-record (copy the file the failure message names over the golden one)
//! only in a PR that adds or removes a metric family, and list the lines that
//! moved.

use std::path::Path;
use std::time::Duration;

use rf_codegen::TuningCacheStats;
use rf_runtime::{
    CacheStats, MetricsSnapshot, Priority, RequestTiming, RuntimeMetrics, TraceConfig,
};

fn timing(queue_us: f64, compile_us: f64, tune_us: f64, execute_us: f64) -> RequestTiming {
    RequestTiming {
        queue_us,
        compile_us,
        tune_us,
        execute_us,
        total_us: queue_us + compile_us + execute_us,
        iterations_waited: 0,
    }
}

/// Script 0: softmax and MHA on the normal and high lanes, one failed
/// request, one infeasible (infinite) estimate, two graphs.
fn replay_script_0(m: &RuntimeMetrics) {
    for _ in 0..40 {
        m.record_submit(Priority::Normal);
    }
    for _ in 0..9 {
        m.record_submit(Priority::High);
    }
    m.record_timing(Priority::Normal, &timing(12.5, 5_000.0, 3_000.0, 400.0));
    for i in 0..8 {
        let t = timing(20.0 + f64::from(i) * 7.5, 0.0, 0.0, 150.0 + f64::from(i));
        m.record_timing(Priority::Normal, &t);
    }
    m.record_timing(Priority::High, &timing(3.25, 0.0, 0.0, 90.5));
    // Binary-fraction microseconds: every sum below is exact in `f64` and in
    // integer nanoseconds alike.
    m.record_batch("softmax", 4, 0, 12.5, false);
    for i in 0..6 {
        m.record_batch("softmax", 4, 0, 12.5 + f64::from(i) * 0.25, true);
    }
    m.record_batch("softmax", 3, 1, 48.25, true);
    m.record_batch("mha", 8, 0, 410.125, false);
    m.record_batch("mha", 1, 0, 1_900.5, true);
    m.record_batch("mha", 1, 0, f64::INFINITY, true);
    m.record_served(Priority::Normal, 36);
    m.record_served(Priority::High, 9);
    m.record_failed(Priority::Normal, 1);
    m.record_shed(Priority::Low, Duration::from_micros(750));
    m.record_graph(9, 8, 0, 2);
    m.record_graph(9, 8, 2, 2);
    m.record_batch("graph", 1, 0, 75.5, false);
    m.record_batch("graph", 1, 0, 75.5, true);
    m.record_served(Priority::Normal, 2);
}

/// Script 1: the same classes faster, on the low lane too, with two sheds.
fn replay_script_1(m: &RuntimeMetrics) {
    for _ in 0..24 {
        m.record_submit(Priority::Normal);
    }
    for _ in 0..6 {
        m.record_submit(Priority::Low);
    }
    for i in 0..6 {
        let t = timing(40.0 + f64::from(i) * 11.0, 0.0, 0.0, 60.25);
        m.record_timing(Priority::Low, &t);
    }
    m.record_timing(Priority::Normal, &timing(8.0, 900.0, 600.0, 35.0));
    for i in 0..5 {
        m.record_batch("softmax", 4, 0, 4.5 + f64::from(i) * 0.125, i > 0);
    }
    m.record_batch("mha", 4, 0, 120.75, false);
    m.record_batch("quant", 6, 0, 33.0, false);
    m.record_served(Priority::Normal, 24);
    m.record_served(Priority::Low, 6);
    m.record_shed(Priority::Low, Duration::from_micros(200));
    m.record_shed(Priority::High, Duration::from_micros(400));
}

fn cache(hits: u64, misses: u64, evictions: u64, entries: usize) -> CacheStats {
    CacheStats {
        hits,
        misses,
        evictions,
        entries,
    }
}

fn tuning(lookups: u64, seeded: u64, insertions: u64, entries: usize) -> TuningCacheStats {
    TuningCacheStats {
        lookups,
        seeded,
        insertions,
        entries,
    }
}

fn replay() -> MetricsSnapshot {
    let ledger = RuntimeMetrics::with_trace(TraceConfig::default());
    replay_script_0(&ledger);
    replay_script_1(&ledger);
    ledger.snapshot(4, cache(17, 6, 1, 5), tuning(6, 1, 6, 5))
}

/// Every counter field of the snapshot, one per line. Latency *statistics*
/// are the exposition's business; sample counts are counters and are here.
fn counters(s: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut line = |name: &str, value: String| out.push_str(&format!("{name} {value}\n"));
    line("submitted", s.submitted.to_string());
    line("completed", s.completed.to_string());
    line("failed", s.failed.to_string());
    line("shed", s.shed.to_string());
    line("batches", s.batches.to_string());
    line("queue_depth", s.queue_depth.to_string());
    line("mean_batch_size", s.mean_batch_size.to_string());
    line("busy_us", s.busy_us.to_string());
    line("lifetime.count", s.lifetime.count.to_string());
    line("lifetime.max_us", s.lifetime.max_us.to_string());
    line("shed_retry_last_us", s.shed_retry_last_us.to_string());
    line("shed_retry_mean_us", s.shed_retry_mean_us.to_string());
    line("cache", format!("{:?}", s.cache));
    line("tuning", format!("{:?}", s.tuning));
    line("graphs_served", s.graphs_served.to_string());
    line("graph_fused_ops", s.graph_fused_ops.to_string());
    line("graph_glue_ops", s.graph_glue_ops.to_string());
    line("region_lookups", s.region_lookups.to_string());
    line("region_hits", s.region_hits.to_string());
    for lane in &s.lanes {
        line(
            &format!("lane.{}", lane.lane),
            format!(
                "submitted {} completed {} failed {} shed {} wall.count {}",
                lane.submitted, lane.completed, lane.failed, lane.shed, lane.wall.count
            ),
        );
    }
    for stage in &s.stages {
        line(
            &format!("stage.{}", stage.stage),
            format!("wall.count {}", stage.wall.count),
        );
    }
    for class in &s.classes {
        line(
            &format!("class.{}", class.class),
            format!(
                "completed {} failed {} batches {} cache_hits {} lifetime.count {}",
                class.completed,
                class.failed,
                class.batches,
                class.cache_hits,
                class.lifetime.count
            ),
        );
    }
    out
}

/// Compares `actual` with the golden file `name`; on a difference leaves
/// `actual` under the test's temp directory and names both files.
fn check_golden(name: &str, actual: &str) -> Result<(), String> {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return Ok(());
    }
    let fresh = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&fresh, actual).expect("the test temp directory is writable");
    let first = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    Err(format!(
        "{name} differs from {} at line {}; the new text is in {}",
        golden.display(),
        first + 1,
        fresh.display()
    ))
}

#[test]
fn exposition_and_counters_match_the_recorded_replay() {
    let snapshot = replay();
    let differences: Vec<String> = [
        check_golden("exposition.prom", &snapshot.prometheus()),
        check_golden("counters.txt", &counters(&snapshot)),
    ]
    .into_iter()
    .filter_map(Result::err)
    .collect();
    assert!(differences.is_empty(), "{}", differences.join("\n"));
}
