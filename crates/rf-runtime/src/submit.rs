//! The unified submission surface: everything the engine can serve flows
//! through one typed entry point.
//!
//! A [`Submission`] covers everything the engine serves — single workloads,
//! whole graphs ([`Submission::graph`]) and pre-partitioned plans
//! ([`Submission::graph_plan`]) — as variants of one enum, each carrying a
//! [`Priority`] lane. [`Engine::submit`](crate::Engine::submit) accepts
//! `impl Into<Submission>`, so a bare [`Request`] still submits directly.
//!
//! Every accepted submission resolves to a [`Response`] through the returned
//! [`Ticket`](crate::Ticket); graph submissions additionally carry
//! [`GraphStats`].

use std::sync::Arc;

use rf_graph::{GraphPlan, OpGraph};
use rf_workloads::Matrix;

use crate::request::{Request, RequestId, RequestOutput};

/// The scheduling lane of one submission. Lanes are served by
/// deficit-weighted round-robin (see [`crate::LaneWeights`], 4 : 2 : 1):
/// high-priority work is preferred
/// in proportion to its weight, while any backlogged lane accumulates credit
/// every iteration, so no lane starves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive interactive traffic.
    High,
    /// The default lane.
    #[default]
    Normal,
    /// Throughput traffic that tolerates waiting behind the other lanes.
    Low,
}

/// Number of priority lanes.
pub const LANES: usize = 3;

impl Priority {
    /// All lanes, highest first — index order matches [`Priority::lane`].
    pub const ALL: [Priority; LANES] = [Priority::High, Priority::Normal, Priority::Low];

    /// The lane index (0 = high, 1 = normal, 2 = low).
    pub fn lane(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Lane name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }
}

/// One unit of work submitted to the engine: a single workload, a whole
/// operator graph, or a graph with an already-computed partition plan.
///
/// Graphs and plans ride behind `Arc`s: the queue owns its work, and a
/// caller serving the same graph many times shares one allocation across all
/// in-flight submissions.
#[derive(Debug, Clone)]
pub enum Submission {
    /// A single validated workload request.
    Workload {
        /// The request (workload + input tensors).
        request: Box<Request>,
        /// The scheduling lane.
        priority: Priority,
    },
    /// A whole operator graph with named input bindings. The engine
    /// partitions it (or reuses `plan` when given) and executes the region
    /// steps through the plan cache.
    Graph {
        /// The operator graph.
        graph: Arc<OpGraph>,
        /// A pre-computed partition plan (partition once, serve many times);
        /// `None` partitions on the worker.
        plan: Option<Arc<GraphPlan>>,
        /// Named input bindings.
        bindings: Arc<Vec<(String, Matrix)>>,
        /// The scheduling lane.
        priority: Priority,
    },
}

impl Submission {
    /// Wraps one workload request at [`Priority::Normal`].
    pub fn workload(request: Request) -> Submission {
        Submission::Workload {
            request: Box::new(request),
            priority: Priority::Normal,
        }
    }

    /// Wraps a whole graph at [`Priority::Normal`]; the engine partitions it
    /// on a worker.
    pub fn graph(graph: Arc<OpGraph>, bindings: Vec<(String, Matrix)>) -> Submission {
        Submission::Graph {
            graph,
            plan: None,
            bindings: Arc::new(bindings),
            priority: Priority::Normal,
        }
    }

    /// Wraps a graph with a pre-partitioned plan at [`Priority::Normal`].
    pub fn graph_plan(
        graph: Arc<OpGraph>,
        plan: Arc<GraphPlan>,
        bindings: Vec<(String, Matrix)>,
    ) -> Submission {
        Submission::Graph {
            graph,
            plan: Some(plan),
            bindings: Arc::new(bindings),
            priority: Priority::Normal,
        }
    }

    /// Returns the submission moved onto `priority`'s lane.
    pub fn with_priority(mut self, priority: Priority) -> Submission {
        match &mut self {
            Submission::Workload { priority: p, .. } => *p = priority,
            Submission::Graph { priority: p, .. } => *p = priority,
        }
        self
    }

    /// The submission's scheduling lane.
    pub fn priority(&self) -> Priority {
        match self {
            Submission::Workload { priority, .. } => *priority,
            Submission::Graph { priority, .. } => *priority,
        }
    }

    /// The class the ledger and the spans file the submission under: the
    /// workload's family, or `graph`.
    pub(crate) fn class(&self) -> &'static str {
        match self {
            Submission::Workload { request, .. } => request.workload.class(),
            Submission::Graph { .. } => "graph",
        }
    }

    /// A display label: the workload name, or `graph[N nodes]`.
    pub fn label(&self) -> String {
        match self {
            Submission::Workload { request, .. } => request.workload.name(),
            Submission::Graph { graph, .. } => format!("graph[{} nodes]", graph.nodes().len()),
        }
    }
}

impl From<Request> for Submission {
    fn from(request: Request) -> Submission {
        Submission::workload(request)
    }
}

/// Per-graph serving counters carried in a graph submission's [`Response`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Fused region steps executed.
    pub fused_regions: usize,
    /// Graph ops covered by fused regions.
    pub fused_ops: usize,
    /// Glue ops executed unfused.
    pub glue_ops: usize,
    /// Region steps whose compiled plan came from the plan cache.
    pub region_cache_hits: usize,
}

/// Wall-clock breakdown of where one request's latency went, measured by the
/// engine regardless of trace level (a handful of monotonic-clock reads per
/// request) and returned on every [`Response`] via [`Response::timing`].
///
/// The stages never overlap: `queue_us + compile_us + execute_us ≤ total_us`
/// (plan-cache hits contribute a zero `compile_us`). The remainder is the
/// time the request waited behind the batch-mates served before it, plus
/// bookkeeping; for the first member of a batch it is bookkeeping only.
/// All times are host wall-clock microseconds, the engine's one clock; a
/// plan's modelled GPU latency is `CompiledKernel::latency_us`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestTiming {
    /// Submission accepted → the iteration that served it formed.
    pub queue_us: f64,
    /// Plan acquisition for the serving iteration: near zero on a cache hit,
    /// the full compile+tune wall time on a miss.
    pub compile_us: f64,
    /// This request's own execution: its kernel call (for a graph: the
    /// partition and every step) → its result delivered. Batch-mates served
    /// before it are not in it.
    pub execute_us: f64,
    /// Submission accepted → result delivered, end to end.
    pub total_us: f64,
    /// Engine iterations that started between this request's admission and
    /// the one that served it — how long it sat out the continuous-batching
    /// stream (0 = served by the first boundary after arrival).
    pub iterations_waited: u64,
}

impl RequestTiming {
    /// The part of `total_us` attributed to the three pipeline stages; the
    /// remainder is the wait behind earlier batch-mates plus bookkeeping.
    pub fn accounted_us(&self) -> f64 {
        self.queue_us + self.compile_us + self.execute_us
    }
}

/// The outcome of one served submission.
///
/// For graph submissions the `output` is [`RequestOutput::Tensors`] and
/// `graph` carries the region counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id assigned at submission.
    pub id: RequestId,
    /// Display name of the served work (workload name or graph label).
    pub workload: String,
    /// The numeric output.
    pub output: RequestOutput,
    /// Always 0; goes with `device` in ROADMAP item 26. The engine runs
    /// on the host clock ([`Response::timing`]); a plan's modelled GPU
    /// latency is the compiler's `CompiledKernel::latency_us`.
    pub simulated_us: f64,
    /// Number of requests in that iteration's batch (1 for graphs).
    pub batch_size: usize,
    /// Whether the compiled plan(s) came from the cache (`true`) or were
    /// compiled for this iteration. For graphs: every region hit.
    pub cache_hit: bool,
    /// The engine iteration (1-based) this submission executed in. Requests
    /// submitted while an iteration is mid-flight join a subsequent
    /// iteration — this field is how tests observe that.
    pub iteration: u64,
    /// The lane the submission was served from.
    pub priority: Priority,
    /// Always 0: the engine is one device. It stays only because `perf`'s
    /// `serve.rs`, frozen outside `[benchmark]` PRs, builds a `Response` by
    /// struct literal; ROADMAP item 26 removes it.
    pub device: usize,
    /// Graph-serving counters; `None` for workload submissions.
    pub graph: Option<GraphStats>,
    /// Wall-clock breakdown of where this request's latency went.
    pub timing: RequestTiming,
}

impl Response {
    /// Where this request's wall-clock latency went: queue wait, compile
    /// time, execute time and iterations waited. Always populated — the
    /// engine measures it at every trace level.
    pub fn timing(&self) -> &RequestTiming {
        &self.timing
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_workloads::random_matrix;

    #[test]
    fn priority_lanes_are_ordered_high_to_low() {
        assert_eq!(Priority::ALL.map(Priority::lane), [0, 1, 2]);
        assert_eq!(Priority::default(), Priority::Normal);
        assert_eq!(Priority::Low.name(), "low");
    }

    #[test]
    fn requests_convert_into_normal_priority_submissions() {
        let submission: Submission = Request::softmax(random_matrix(2, 8, 1, -1.0, 1.0)).into();
        assert_eq!(submission.priority(), Priority::Normal);
        assert_eq!(submission.label(), "softmax_2x8");
        let high = submission.with_priority(Priority::High);
        assert_eq!(high.priority(), Priority::High);
    }

    #[test]
    fn graph_submissions_share_the_graph_allocation() {
        let graph = Arc::new(rf_graph::builders::moe_block(4, 8, 4));
        let bindings: Vec<(String, Matrix)> = rf_graph::builders::moe_block_inputs(4, 8, 4, 1)
            .into_iter()
            .map(|(n, m)| (n.to_string(), m))
            .collect();
        let submission = Submission::graph(Arc::clone(&graph), bindings);
        assert_eq!(Arc::strong_count(&graph), 2);
        assert!(submission.label().starts_with("graph["));
    }
}
