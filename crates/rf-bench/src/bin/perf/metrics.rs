//! Every metric the benchmark prints, by name, with unit, clock, direction,
//! the workloads whose run measures it, and the end-to-end metric it should
//! move. `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step); the per-metric regression bounds live only there.

use std::collections::BTreeMap;
use std::fmt;

/// The four workloads, as bit flags so a metric can name several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileCold = 1,
    ExecPrefill = 2,
    ExecDecode = 4,
    ServeTiny = 8,
}

const CC: u8 = Workload::CompileCold as u8;
const EP: u8 = Workload::ExecPrefill as u8;
const ED: u8 = Workload::ExecDecode as u8;
const EX: u8 = EP | ED;
const ST: u8 = Workload::ServeTiny as u8;
const ALL: u8 = CC | EX | ST;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CompileCold,
        Workload::ExecPrefill,
        Workload::ExecDecode,
        Workload::ServeTiny,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile_cold",
            Workload::ExecPrefill => "exec_prefill",
            Workload::ExecDecode => "exec_decode",
            Workload::ServeTiny => "serve_tiny",
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which clock a value is on. Host = wall time of this CPU; Sim = the
/// `rf-gpusim` analytical GPU model (repeats exactly); None = a count/share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Sim,
    None,
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::None => "-",
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Workloads whose run measures this metric. Elsewhere the run calls no
    /// such layer and the metric reads 0.
    pub on: u8,
    /// The end-to-end metric (and workload) a change to this should move.
    pub moves: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    on: u8,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        clock,
        better,
        on,
        moves,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Sim};
const NC: Clock = Clock::None;

/// What a user of the system sees. Every untraced run prints all of them;
/// "operation" means one config compile (`compile_cold`), one kernel run
/// (`exec_*`) or one served request (`serve_tiny`).
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", Host, Lower, ALL, "-"),
    def("peak_rss_mb", "MB", NC, Lower, ALL, "-"),
    def("op_us_p10", "us", Host, Lower, ALL, "-"),
    def("op_us_p50", "us", Host, Lower, ALL, "-"),
    def("ops_per_s", "1/s", Host, Higher, ALL, "-"),
    def("sim_speedup_geomean", "x", Sim, Higher, ALL, "-"),
];

const P50_CC: &str = "op_us_p50@compile_cold";
/// The graphs and the tuned families are the slow classes: they weigh most in
/// the arithmetic `ops_per_s`.
const SLOW_CC: &str = "ops_per_s@compile_cold, op_us_p50@compile_cold";
const EXEC: &str = "op_us_p50@exec_prefill, op_us_p50@exec_decode";
/// The closed loop: `serve_tiny`'s bounded numbers.
const SAT: &str = "ops_per_s@serve_tiny, op_us_p50@serve_tiny";
/// The open loop, whose latencies are printed but carry no bound.
const OPEN: &str = "open-loop latency (unbounded)";
const OPEN_P50: &str = "rf-runtime.lat_p50_us_r10k, rf-runtime.lat_p50_us_r25k";
/// Pooled over the closed and the open phases.
const SERVE: &str = "op_us_p50@serve_tiny, rf-runtime.lat_p50_us_r10k";

/// Single-layer numbers; only a traced run prints them.
pub const PER_LAYER: &[MetricDef] = &[
    // The compiler, front to back.
    def("rf-fusion.acrf_us_p50", "us", Host, Lower, CC, P50_CC),
    def(
        "rf-fusion.acrf_fusable_share",
        "ratio",
        NC,
        Higher,
        CC,
        P50_CC,
    ),
    def("rf-graph.detect_us_p50", "us", Host, Lower, CC, SLOW_CC),
    def("rf-graph.partition_us_p50", "us", Host, Lower, CC, SLOW_CC),
    def("rf-graph.fused_op_share", "ratio", NC, Higher, CC, SLOW_CC),
    def("rf-codegen.compile_us_p50", "us", Host, Lower, CC, P50_CC),
    def("rf-codegen.lower_us_p50", "us", Host, Lower, CC, P50_CC),
    def(
        "rf-codegen.tuner_evals_per_config",
        "count",
        NC,
        Lower,
        CC,
        P50_CC,
    ),
    def(
        "rf-codegen.tuner_evals_share",
        "ratio",
        NC,
        Lower,
        CC,
        P50_CC,
    ),
    def(
        "rf-codegen.exhaustive_us_p50",
        "us",
        Host,
        Lower,
        CC,
        SLOW_CC,
    ),
    def(
        "rf-codegen.guided_matches_oracle_share",
        "ratio",
        NC,
        Higher,
        CC,
        "sim_speedup_geomean@compile_cold",
    ),
    def("rf-gpusim.estimate_ns_p50", "ns", Host, Lower, CC, P50_CC),
    def(
        "rf-gpusim.sim_us_geomean",
        "sim_us",
        Sim,
        Lower,
        CC,
        "sim_speedup_geomean@compile_cold",
    ),
    def("rf-runtime.plan_miss_us_p50", "us", Host, Lower, CC, P50_CC),
    def("rf-runtime.plan_hit_ns_p50", "ns", Host, Lower, CC, SERVE),
    def(
        "rf-runtime.tuner_warm_start_share",
        "ratio",
        NC,
        Higher,
        CC,
        P50_CC,
    ),
    // The tile-VM, one number per family the workload runs.
    def("rf-tile.mha_us_p50", "us", Host, Lower, EX, EXEC),
    def("rf-tile.mla_us_p50", "us", Host, Lower, ED, EXEC),
    def("rf-tile.softmax_us_p50", "us", Host, Lower, EX, EXEC),
    def("rf-tile.moe_us_p50", "us", Host, Lower, EP, EXEC),
    def("rf-tile.quant_us_p50", "us", Host, Lower, EP, EXEC),
    def("rf-tile.variance_us_p50", "us", Host, Lower, EX, EXEC),
    def("rf-tile.inertia_us_p50", "us", Host, Lower, EP, EXEC),
    def("rf-tile.graph_us_p50", "us", Host, Lower, EP, EXEC),
    def("rf-tile.rows_per_s", "rows/s", Host, Higher, EX, EXEC),
    def(
        "rf-tile.computed_gbytes_per_s",
        "GB/s",
        Host,
        Higher,
        EX,
        EXEC,
    ),
    def(
        "rf-tile.op_invocations_per_run",
        "count",
        NC,
        Lower,
        EX,
        EXEC,
    ),
    def("rf-tile.model_bytes_per_run", "bytes", NC, Lower, EX, EXEC),
    def(
        "rf-tile.vm_over_reference_ratio",
        "x",
        Host,
        Lower,
        EX,
        EXEC,
    ),
    def(
        "rf-tile.profiled_overhead_share",
        "ratio",
        Host,
        Lower,
        EX,
        EXEC,
    ),
    def(
        "rf-runtime.execute_plan_overhead_ns",
        "ns",
        Host,
        Lower,
        EX,
        "op_us_p50@exec_decode",
    ),
    // The serving engine, per phase where the phase changes the answer.
    def("rf-runtime.lat_p50_us_r10k", "us", Host, Lower, ST, OPEN),
    def("rf-runtime.lat_p95_us_r10k", "us", Host, Lower, ST, OPEN),
    def(
        "rf-runtime.lat_p99_us_r10k",
        "us",
        Host,
        Lower,
        ST,
        "informational",
    ),
    def("rf-runtime.lat_p50_us_r25k", "us", Host, Lower, ST, OPEN),
    def("rf-runtime.lat_p95_us_r25k", "us", Host, Lower, ST, OPEN),
    def(
        "rf-runtime.lat_p99_us_r25k",
        "us",
        Host,
        Lower,
        ST,
        "informational",
    ),
    def(
        "rf-runtime.lat_p999_us_r25k",
        "us",
        Host,
        Lower,
        ST,
        "informational",
    ),
    def(
        "rf-runtime.sat_throughput_rps",
        "1/s",
        Host,
        Higher,
        ST,
        SAT,
    ),
    def(
        "rf-runtime.queue_us_p50_r10k",
        "us",
        Host,
        Lower,
        ST,
        OPEN_P50,
    ),
    def(
        "rf-runtime.queue_us_p50_r25k",
        "us",
        Host,
        Lower,
        ST,
        OPEN_P50,
    ),
    def("rf-runtime.queue_us_p50_closed", "us", Host, Lower, ST, SAT),
    def(
        "rf-runtime.execute_us_p50_r10k",
        "us",
        Host,
        Lower,
        ST,
        OPEN_P50,
    ),
    def(
        "rf-runtime.execute_us_p50_r25k",
        "us",
        Host,
        Lower,
        ST,
        OPEN_P50,
    ),
    def(
        "rf-runtime.execute_us_p50_closed",
        "us",
        Host,
        Lower,
        ST,
        SAT,
    ),
    def(
        "rf-runtime.batch_occupancy_mean_r10k",
        "count",
        NC,
        Higher,
        ST,
        OPEN_P50,
    ),
    def(
        "rf-runtime.batch_occupancy_mean_r25k",
        "count",
        NC,
        Higher,
        ST,
        OPEN_P50,
    ),
    def(
        "rf-runtime.batch_occupancy_mean_closed",
        "count",
        NC,
        Higher,
        ST,
        SAT,
    ),
    def(
        "rf-runtime.shed_share_r10k",
        "ratio",
        NC,
        Lower,
        ST,
        OPEN_P50,
    ),
    def(
        "rf-runtime.shed_share_r25k",
        "ratio",
        NC,
        Lower,
        ST,
        OPEN_P50,
    ),
    def("rf-runtime.shed_share_closed", "ratio", NC, Lower, ST, SAT),
    // Pooled over the three phases.
    def("rf-runtime.submit_ns_p50", "ns", Host, Lower, ST, SERVE),
    def("rf-runtime.queue_us_p95", "us", Host, Lower, ST, SERVE),
    def("rf-runtime.compile_us_p50", "us", Host, Lower, ST, SERVE),
    def(
        "rf-runtime.unaccounted_us_p50",
        "us",
        Host,
        Lower,
        ST,
        SERVE,
    ),
    def(
        "rf-runtime.iterations_waited_mean",
        "count",
        NC,
        Lower,
        ST,
        SERVE,
    ),
    def("rf-runtime.plan_hit_share", "ratio", NC, Higher, ST, SERVE),
    def("rf-runtime.failed_share", "ratio", NC, Lower, ST, SERVE),
    def(
        "rf-runtime.sched_ns_per_request",
        "ns",
        Host,
        Lower,
        ST,
        SAT,
    ),
    // Tracing cost: the closed phase re-run at each level; throughput lost
    // against Off.
    def(
        "rf-trace.hist_overhead_share",
        "ratio",
        Host,
        Lower,
        ST,
        SAT,
    ),
    def(
        "rf-trace.full_overhead_share",
        "ratio",
        Host,
        Lower,
        ST,
        SAT,
    ),
    def(
        "rf-trace.profile_overhead_share",
        "ratio",
        Host,
        Lower,
        ST,
        SAT,
    ),
    // The benchmark's own behaviour.
    def("bench.gen_late_us_p99", "us", Host, Lower, ST, "validity"),
    def("bench.gen_late_us_max", "us", Host, Lower, ST, "validity"),
    def(
        "bench.span_overhead_share",
        "ratio",
        Host,
        Lower,
        ALL,
        "validity",
    ),
    // Span self time per layer, as a share of all root-span time.
    def("bench.self_share", "ratio", Host, Lower, ALL, "validity"),
    def("rf-fusion.self_share", "ratio", Host, Lower, CC, P50_CC),
    def("rf-graph.self_share", "ratio", Host, Lower, CC, SLOW_CC),
    def("rf-codegen.self_share", "ratio", Host, Lower, CC, P50_CC),
    def("rf-gpusim.self_share", "ratio", Host, Lower, CC, P50_CC),
    def("rf-runtime.self_share", "ratio", Host, Lower, ALL, SERVE),
    def("rf-tile.self_share", "ratio", Host, Lower, EX, EXEC),
];

pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// A metric name as `BENCHMARK.json` accepts it.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One run's values, checked against the table when the run ends.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub traced: bool,
    values: Vec<(String, f64, usize)>,
}

/// A finished metric, ready to print.
#[derive(Debug, Clone, Copy)]
pub struct Reported {
    pub def: MetricDef,
    pub value: f64,
    pub samples: usize,
}

impl Report {
    pub fn new(workload: Workload, traced: bool) -> Self {
        Report {
            workload,
            traced,
            values: Vec::new(),
        }
    }

    /// Records `name = value`, computed from `samples` measurements.
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.push((name.into(), value, samples));
    }

    /// Checks the run printed exactly the listed names — each metric this
    /// workload measures once, nothing unlisted, nothing twice, no
    /// non-finite value — and fills 0 for the layers this workload does not
    /// call. Returns the metrics in table order.
    pub fn finish(self) -> Result<Vec<Reported>, String> {
        let defs = defs(self.traced);
        let mut seen: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for (name, value, samples) in &self.values {
            if !valid_name(name) {
                return Err(format!("metric name `{name}` is not [A-Za-z0-9_.-]+"));
            }
            let Some(def) = defs.iter().find(|d| d.name == name) else {
                return Err(format!("metric `{name}` is printed but not listed"));
            };
            if def.on & self.workload as u8 == 0 {
                return Err(format!(
                    "metric `{name}` is not measured on {}",
                    self.workload.name()
                ));
            }
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            if seen.insert(def.name, (*value, *samples)).is_some() {
                return Err(format!("metric `{name}` is printed twice"));
            }
        }
        defs.iter()
            .map(|def| {
                let measured = def.on & self.workload as u8 != 0;
                match seen.get(def.name) {
                    Some(&(value, samples)) => Ok(Reported {
                        def: *def,
                        value,
                        samples,
                    }),
                    None if measured => Err(format!("metric `{}` was not printed", def.name)),
                    None => Ok(Reported {
                        def: *def,
                        value: 0.0,
                        samples: 0,
                    }),
                }
            })
            .collect()
    }
}

/// `name -> bound` of the end-to-end metrics in `BENCHMARK.json` (read from
/// the current directory, where the benchmark's command is run).
pub fn bounds_from_benchmark_json() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
    let doc = rf_trace::json::parse(&text)?;
    let list = doc
        .get("end_to_end")
        .and_then(|v| v.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(|v| v.as_str());
            let bound = m.get("bound").and_then(|v| v.as_f64());
            match (name, bound) {
                (Some(name), Some(bound)) => Ok((name.to_string(), bound)),
                _ => Err("an end_to_end entry lacks name or bound".to_string()),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn name_validator_follows_the_benchmark_json_rule() {
        for ok in ["a", "rf-tile.mha_us_p50", "9lives", "A_b.c-d"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "has space", "µs", ".dot_first", "-dash", "a/b", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    fn full_report(workload: Workload, traced: bool) -> Report {
        let mut report = Report::new(workload, traced);
        for def in defs(traced) {
            if def.on & workload as u8 != 0 {
                report.set(def.name, 1.5, 10);
            }
        }
        report
    }

    #[test]
    fn a_complete_run_prints_every_listed_name_exactly_once() {
        for workload in Workload::ALL {
            for traced in [false, true] {
                let done = full_report(workload, traced).finish().expect("complete");
                let names: Vec<&str> = done.iter().map(|r| r.def.name).collect();
                let listed: Vec<&str> = defs(traced).iter().map(|d| d.name).collect();
                assert_eq!(names, listed);
                // Layers the workload never calls read 0, measured ones don't.
                for r in &done {
                    let measured = r.def.on & workload as u8 != 0;
                    assert_eq!(r.value != 0.0, measured, "{}", r.def.name);
                }
            }
        }
    }

    #[test]
    fn unlisted_missing_duplicate_and_misplaced_names_are_rejected() {
        let mut r = full_report(Workload::ExecDecode, false);
        r.set("made_up_metric", 1.0, 1);
        assert!(r.finish().unwrap_err().contains("not listed"));

        let mut r = full_report(Workload::ExecDecode, false);
        r.set("op_us_p50", 2.0, 1);
        assert!(r.finish().unwrap_err().contains("twice"));

        let mut r = Report::new(Workload::CompileCold, false);
        r.set("setup_s", 1.0, 3);
        assert!(r.finish().unwrap_err().contains("was not printed"));

        // A per-layer name on an untraced run, and a tile metric on the
        // compiler workload.
        let mut r = full_report(Workload::ExecPrefill, false);
        r.set("rf-tile.mha_us_p50", 1.0, 1);
        assert!(r.finish().unwrap_err().contains("not listed"));
        let mut r = full_report(Workload::CompileCold, true);
        r.set("rf-tile.mha_us_p50", 1.0, 1);
        assert!(r.finish().unwrap_err().contains("not measured on"));

        let mut r = Report::new(Workload::ServeTiny, false);
        r.set("bad name", 1.0, 1);
        assert!(r.finish().unwrap_err().contains("[A-Za-z0-9_.-]+"));
        let mut r = full_report(Workload::ServeTiny, false);
        r.values[0].1 = f64::NAN;
        assert!(r.finish().unwrap_err().contains("not finite"));
    }

    /// `BENCHMARK.json` sits at the repository root, some levels above
    /// whichever manifest built this file.
    fn benchmark_json() -> rf_trace::json::JsonValue {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                return rf_trace::json::parse(&text).expect("BENCHMARK.json parses");
            }
            assert!(dir.pop(), "BENCHMARK.json not found above the manifest");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_table() {
        let doc = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                let field = |f| entry.get(f).and_then(|v| v.as_str()).unwrap_or("");
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.name(), "{}", def.name);
                if key == "end_to_end" {
                    let bound = entry.get("bound").and_then(|v| v.as_f64()).expect("bound");
                    assert!(bound > 0.0 && bound <= 0.25, "{}", def.name);
                }
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
