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
//! were never compared) and added the `redfuser_sim_busy_us_total` counter;
//! deleting the snapshot's tuner warm-start counters removed the `tuning`
//! line; making the exposition the one rendering added the families the
//! deleted text report alone had shown (plan-cache entries, shed-hint sum,
//! per-class requests and batches, graphs, graph ops, region lookups), and
//! the summaries' `_sum` became the recorded sum instead of mean × count
//! (no value moved: every sum here is exact either way); deleting the `tune`
//! stage removed the five `redfuser_stage_wall_us{stage="tune",…}` lines
//! (three quantiles, `_sum`, `_count`) and the `stage.tune wall.count` line.
//!
//! A second test parses the exposition back and recovers every line of
//! `counters.txt` from it but `lifetime.max_us`, a statistic no family
//! exports: the exposition carries every number the snapshot holds.
//!
//! Re-record (copy the file the failure message names over the golden one)
//! only in a PR that adds or removes a metric family, and list the lines that
//! moved.

use std::fmt::Display;
use std::path::Path;
use std::time::Duration;

use rf_runtime::{
    CacheStats, MetricsSnapshot, Priority, RequestTiming, RuntimeMetrics, TraceConfig,
};

fn timing(queue_us: f64, compile_us: f64, execute_us: f64) -> RequestTiming {
    RequestTiming {
        queue_us,
        compile_us,
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
    m.record_timing(Priority::Normal, &timing(12.5, 5_000.0, 400.0));
    for i in 0..8 {
        let t = timing(20.0 + f64::from(i) * 7.5, 0.0, 150.0 + f64::from(i));
        m.record_timing(Priority::Normal, &t);
    }
    m.record_timing(Priority::High, &timing(3.25, 0.0, 90.5));
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
        let t = timing(40.0 + f64::from(i) * 11.0, 0.0, 60.25);
        m.record_timing(Priority::Low, &t);
    }
    m.record_timing(Priority::Normal, &timing(8.0, 900.0, 35.0));
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

fn replay() -> MetricsSnapshot {
    let ledger = RuntimeMetrics::with_trace(TraceConfig::default());
    replay_script_0(&ledger);
    replay_script_1(&ledger);
    ledger.snapshot(4, cache(17, 6, 1, 5))
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
    // The golden line is the mean hint: the sum over the shed count.
    let mean = s.shed_retry_sum_us as f64 / s.shed as f64;
    line("shed_retry_mean_us", mean.to_string());
    line("cache", format!("{:?}", s.cache));
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

/// An exposition's samples by series (`name{labels}` as printed), in order.
struct Exposition(Vec<(String, f64)>);

impl Exposition {
    fn parse(text: &str) -> Self {
        let samples = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| {
                let (series, value) = line.rsplit_once(' ').expect("`series value`");
                (series.to_owned(), value.parse().expect("a float value"))
            });
        Exposition(samples.collect())
    }

    /// The value of `series`, which must occur exactly once.
    fn get(&self, series: &str) -> f64 {
        let found: Vec<f64> = self
            .0
            .iter()
            .filter(|(s, _)| s == series)
            .map(|s| s.1)
            .collect();
        assert_eq!(found.len(), 1, "`{series}` must occur once");
        found[0]
    }

    /// `get` as a whole count.
    fn count(&self, series: &str) -> u64 {
        let value = self.get(series);
        assert_eq!(value.fract(), 0.0, "`{series}` is a count");
        value as u64
    }

    /// The values of the first label `key` of family `name`, in order.
    fn label_values(&self, name: &str, key: &str) -> Vec<String> {
        let prefix = format!("{name}{{{key}=\"");
        let mut values: Vec<String> = Vec::new();
        for (series, _) in &self.0 {
            if let Some(rest) = series.strip_prefix(&prefix) {
                let value = rest.split('"').next().expect("a closed label value");
                if !values.iter().any(|v| v == value) {
                    values.push(value.to_owned());
                }
            }
        }
        values
    }
}

/// `counters.txt` rebuilt from the exposition alone, but `lifetime.max_us`.
fn counters_from_exposition(text: &str) -> String {
    let e = Exposition::parse(text);
    let mut out = String::new();
    let mut line = |name: &str, value: &dyn Display| out.push_str(&format!("{name} {value}\n"));
    let requests =
        |outcome: &str| e.count(&format!("redfuser_requests_total{{outcome=\"{outcome}\"}}"));
    for outcome in ["submitted", "completed", "failed", "shed"] {
        line(outcome, &requests(outcome));
    }
    line("batches", &e.count("redfuser_batches_total"));
    line("queue_depth", &e.count("redfuser_queue_depth"));
    line("mean_batch_size", &e.get("redfuser_mean_batch_size"));
    line("busy_us", &e.get("redfuser_sim_busy_us_total"));
    line("lifetime.count", &e.count("redfuser_sim_latency_us_count"));
    line("shed_retry_last_us", &e.get("redfuser_shed_retry_hint_us"));
    let hint_sum = e.get("redfuser_shed_retry_hint_us_total");
    line("shed_retry_mean_us", &(hint_sum / requests("shed") as f64));
    let plan = |result: &str| e.count(&format!("redfuser_plan_cache_total{{result=\"{result}\"}}"));
    let cache = CacheStats {
        hits: plan("hit"),
        misses: plan("miss"),
        evictions: plan("eviction"),
        entries: e.count("redfuser_plan_cache_entries") as usize,
    };
    line("cache", &format!("{cache:?}"));
    line("graphs_served", &e.count("redfuser_graphs_total"));
    for kind in ["fused", "glue"] {
        let ops = e.count(&format!("redfuser_graph_ops_total{{kind=\"{kind}\"}}"));
        line(&format!("graph_{kind}_ops"), &ops);
    }
    let region = |result: &str| {
        e.count(&format!(
            "redfuser_region_plan_cache_total{{result=\"{result}\"}}"
        ))
    };
    line("region_lookups", &(region("hit") + region("miss")));
    line("region_hits", &region("hit"));
    for lane in e.label_values("redfuser_lane_requests_total", "lane") {
        let requests = |outcome: &str| {
            e.count(&format!(
                "redfuser_lane_requests_total{{lane=\"{lane}\",outcome=\"{outcome}\"}}"
            ))
        };
        line(
            &format!("lane.{lane}"),
            &format!(
                "submitted {} completed {} failed {} shed {} wall.count {}",
                requests("submitted"),
                requests("completed"),
                requests("failed"),
                requests("shed"),
                e.count(&format!("redfuser_lane_wall_us_count{{lane=\"{lane}\"}}"))
            ),
        );
    }
    for stage in e.label_values("redfuser_stage_wall_us", "stage") {
        let count = e.count(&format!(
            "redfuser_stage_wall_us_count{{stage=\"{stage}\"}}"
        ));
        line(&format!("stage.{stage}"), &format!("wall.count {count}"));
    }
    for class in e.label_values("redfuser_class_requests_total", "class") {
        let per_class = |family: &str, key: &str, value: &str| {
            e.count(&format!(
                "redfuser_class_{family}_total{{class=\"{class}\",{key}=\"{value}\"}}"
            ))
        };
        let hits = per_class("batches", "plan", "hit");
        line(
            &format!("class.{class}"),
            &format!(
                "completed {} failed {} batches {} cache_hits {hits} lifetime.count {}",
                per_class("requests", "outcome", "completed"),
                per_class("requests", "outcome", "failed"),
                hits + per_class("batches", "plan", "miss"),
                e.count(&format!(
                    "redfuser_class_sim_latency_us_count{{class=\"{class}\"}}"
                ))
            ),
        );
    }
    out
}

#[test]
fn the_exposition_carries_every_counter_of_the_snapshot() {
    let snapshot = replay();
    let expected: String = counters(&snapshot)
        .lines()
        .filter(|line| !line.starts_with("lifetime.max_us "))
        .map(|line| format!("{line}\n"))
        .collect();
    assert_eq!(counters_from_exposition(&snapshot.prometheus()), expected);
}
