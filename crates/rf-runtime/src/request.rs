//! Requests, their input tensors, outputs and the numeric execution paths.
//!
//! A [`Request`] pairs a [`Workload`] (the shape description the compiler
//! understands, and the cache key) with a [`RequestInput`] (the concrete
//! tensors to run the fused kernel over). Whether the tensors can serve the
//! workload is one contract per family, owned by the tile-VM:
//! [`validate`] runs the workload's
//! [`Semantics::check`](rf_tile::exec::Semantics::check) — input kind, inner
//! dimensions, non-empty axes, `topk` range — the very check the VM runs
//! before a kernel, and then compares the row count and axis length the
//! workload fixes ([`Workload::fixed_extents`]). A request the front door
//! admits therefore fails in the VM only on its values. Two execution paths
//! are provided:
//!
//! * [`execute_plan`] — interprets a compiled plan's tile program on the
//!   `rf_tile::exec` VM, honouring the auto-tuner's tile sizes and segment
//!   strategy. This is the path the [`crate::engine::Engine`] worker pool
//!   serves: the cached [`CompiledKernel`] *is* the executable, there is no
//!   parallel hand-rolled kernel dispatch;
//! * [`execute_reference`] — the unfused oracles from `rf-kernels`, one pass
//!   per reduction as the definition (Eq. 1) reads, used by tests and the
//!   benchmark as the correctness oracle for everything the runtime serves.

use std::fmt;
use std::time::Duration;

use rf_codegen::{CompiledKernel, Workload};
use rf_graph::GraphError;
use rf_kernels::{attention, moe, nonml, quant, softmax};
use rf_tile::exec::{ExecInput, ExecOutput, InputError};
use rf_workloads::moe::RoutingDecision;
use rf_workloads::Matrix;

/// Monotonically increasing identifier assigned to each submitted request.
pub type RequestId = u64;

/// The admission-control state behind a [`RuntimeError::Overloaded`] shed:
/// how full the engine was when the request was turned away. Implements
/// [`std::error::Error`] so it can be reached through
/// [`std::error::Error::source`] chaining.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadInfo {
    /// Requests queued or executing when the submission arrived.
    pub in_flight: usize,
    /// The engine's bounded in-flight budget
    /// ([`crate::RuntimeConfig::max_in_flight`]).
    pub budget: usize,
}

impl fmt::Display for OverloadInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "in-flight budget exhausted: {} of {} slots occupied",
            self.in_flight, self.budget
        )
    }
}

impl std::error::Error for OverloadInfo {}

/// Errors reported by the serving runtime.
///
/// The enum is `#[non_exhaustive]`: downstream matchers must carry a
/// wildcard arm, so future serving failure modes can be added without a
/// breaking release. Every variant has a stable [`RuntimeError::code`]
/// string for log scraping, and the variants that wrap a deeper failure
/// ([`RuntimeError::Graph`], [`RuntimeError::Overloaded`]) expose it through
/// [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RuntimeError {
    /// The input tensor kind does not match the workload family (e.g. routing
    /// tensors submitted with a softmax workload).
    InputMismatch {
        /// Name of the offending workload.
        workload: String,
        /// The input kind the workload requires.
        expected: &'static str,
        /// The input kind that was provided.
        got: &'static str,
    },
    /// The input tensor shapes disagree with the workload configuration.
    ShapeMismatch {
        /// Name of the offending workload.
        workload: String,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// The engine is shutting down and no longer accepts requests.
    ShuttingDown,
    /// The request was admitted but not served: the VM rejected its values
    /// (an inertia system without positive mass), the plan carries no
    /// program, or the execution panicked.
    ExecutionFailed {
        /// Name of the workload whose execution failed.
        workload: String,
        /// Why it failed.
        detail: String,
    },
    /// A graph submission could not be served (missing or misshapen input
    /// binding, or a region step whose tensors the VM rejected).
    Graph {
        /// Human-readable description of the failure.
        detail: String,
        /// The graph-level error this failure originated from, when the
        /// failure came out of `rf-graph` (binding or evaluation); reachable
        /// via [`std::error::Error::source`].
        source: Option<GraphError>,
    },
    /// The engine's bounded in-flight budget is exhausted; the submission was
    /// shed instead of queued. Graceful degradation under open-loop overload:
    /// the caller should back off for roughly `retry_hint` and resubmit.
    Overloaded {
        /// A backoff estimate derived from the current depth and the recent
        /// mean iteration latency.
        retry_hint: Duration,
        /// The admission-control state at shed time; reachable via
        /// [`std::error::Error::source`].
        source: OverloadInfo,
    },
    /// A [`crate::RuntimeConfig`] failed validation (zero worker count, zero
    /// in-flight budget, …).
    InvalidConfig {
        /// Human-readable description of the rejected configuration.
        detail: String,
    },
}

impl RuntimeError {
    /// A stable, machine-scrapable identifier for the error class. These
    /// strings are part of the API: log pipelines may key on them, so they
    /// never change even if the human-readable `Display` text does.
    pub fn code(&self) -> &'static str {
        match self {
            RuntimeError::InputMismatch { .. } => "input_mismatch",
            RuntimeError::ShapeMismatch { .. } => "shape_mismatch",
            RuntimeError::ShuttingDown => "shutting_down",
            RuntimeError::ExecutionFailed { .. } => "execution_failed",
            RuntimeError::Graph { .. } => "graph",
            RuntimeError::Overloaded { .. } => "overloaded",
            RuntimeError::InvalidConfig { .. } => "invalid_config",
        }
    }

    /// Builds a [`RuntimeError::ExecutionFailed`] carrying `detail`.
    pub(crate) fn execution_failed(workload: String, detail: impl fmt::Display) -> RuntimeError {
        RuntimeError::ExecutionFailed {
            workload,
            detail: detail.to_string(),
        }
    }

    /// Builds a [`RuntimeError::Graph`] with no deeper source.
    pub(crate) fn graph(detail: impl Into<String>) -> RuntimeError {
        RuntimeError::Graph {
            detail: detail.into(),
            source: None,
        }
    }

    /// Builds a [`RuntimeError::Graph`] from an `rf-graph` error, preserving
    /// it as the `source`.
    pub(crate) fn from_graph_error(err: GraphError) -> RuntimeError {
        RuntimeError::Graph {
            detail: err.to_string(),
            source: Some(err),
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InputMismatch {
                workload,
                expected,
                got,
            } => write!(
                f,
                "workload `{workload}` requires {expected} input, got {got}"
            ),
            RuntimeError::ShapeMismatch { workload, detail } => {
                write!(f, "workload `{workload}`: {detail}")
            }
            RuntimeError::ShuttingDown => write!(f, "engine is shutting down"),
            RuntimeError::ExecutionFailed { workload, detail } => {
                write!(f, "execution of workload `{workload}` failed: {detail}")
            }
            RuntimeError::Graph { detail, .. } => write!(f, "graph execution failed: {detail}"),
            RuntimeError::Overloaded { retry_hint, source } => write!(
                f,
                "engine overloaded ({source}); retry in ~{:.1} ms",
                retry_hint.as_secs_f64() * 1e3
            ),
            RuntimeError::InvalidConfig { detail } => {
                write!(f, "invalid runtime configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Graph {
                source: Some(inner),
                ..
            } => Some(inner),
            RuntimeError::Overloaded { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The input tensors of one request. Each variant serves one workload family.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestInput {
    /// Independent rows reduced along the row axis: softmax and variance.
    Rows(Matrix),
    /// One `(batch, head)` attention slice: `q` is `[q_len, qk_dim]`, `k` is
    /// `[kv_len, qk_dim]`, `v` is `[kv_len, head_dim]`.
    Attention {
        /// Query matrix.
        q: Matrix,
        /// Key matrix.
        k: Matrix,
        /// Value matrix.
        v: Matrix,
    },
    /// MoE routing: token activations `[tokens, hd]` and router weights
    /// `[hd, experts]`.
    Routing {
        /// Token activations.
        x: Matrix,
        /// Routing weight matrix.
        w: Matrix,
    },
    /// FP8 per-token quantization + GEMM: activations `[m, k]`, weights `[k, n]`.
    QuantGemm {
        /// Activation matrix.
        a: Matrix,
        /// Weight matrix.
        w: Matrix,
    },
    /// Moment of inertia: per-particle masses and positions `[n, dim]`.
    Inertia {
        /// Particle masses.
        masses: Vec<f64>,
        /// Particle positions.
        positions: Matrix,
    },
}

impl RequestInput {
    /// A borrowed VM view of the tensors — the form
    /// [`CompiledKernel::run`](rf_codegen::CompiledKernel::run) consumes. No
    /// tensor is copied; the serving hot path hands the VM references into
    /// the queued request.
    #[inline]
    pub fn as_exec(&self) -> ExecInput<'_> {
        match self {
            RequestInput::Rows(m) => ExecInput::Rows(m),
            RequestInput::Attention { q, k, v } => ExecInput::Attention { q, k, v },
            RequestInput::Routing { x, w } => ExecInput::Routing { x, w },
            RequestInput::QuantGemm { a, w } => ExecInput::QuantGemm { a, w },
            RequestInput::Inertia { masses, positions } => ExecInput::Inertia { masses, positions },
        }
    }
}

/// The output of one served request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutput {
    /// A dense matrix result (softmax probabilities, attention output,
    /// quant+GEMM output).
    Matrix(Matrix),
    /// One scalar per row/system (variance, moment of inertia).
    Values(Vec<f64>),
    /// Per-token expert selections (MoE routing).
    Routing(Vec<RoutingDecision>),
    /// The declared outputs of a served graph submission, in declaration
    /// order.
    Tensors(Vec<Matrix>),
}

impl RequestOutput {
    /// Converts a VM output into a request output.
    pub fn from_exec(output: ExecOutput) -> RequestOutput {
        match output {
            ExecOutput::Matrix(m) => RequestOutput::Matrix(m),
            ExecOutput::Values(v) => RequestOutput::Values(v),
            ExecOutput::TopK(decisions) => RequestOutput::Routing(decisions),
        }
    }

    /// Whether two outputs agree element-wise within a relative tolerance.
    /// A NaN matches only a NaN at the same position.
    pub fn approx_eq(&self, other: &RequestOutput, tolerance: f64) -> bool {
        match (self, other) {
            (RequestOutput::Matrix(a), RequestOutput::Matrix(b)) => {
                a.rows() == b.rows()
                    && a.cols() == b.cols()
                    && rf_kernels::max_rel_diff(a.as_slice(), b.as_slice()) <= tolerance
            }
            (RequestOutput::Values(a), RequestOutput::Values(b)) => {
                a.len() == b.len() && rf_kernels::max_rel_diff(a, b) <= tolerance
            }
            (RequestOutput::Routing(a), RequestOutput::Routing(b)) => {
                moe::decisions_equal(a, b, tolerance)
            }
            (RequestOutput::Tensors(a), RequestOutput::Tensors(b)) => {
                a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| {
                        x.rows() == y.rows()
                            && x.cols() == y.cols()
                            && rf_kernels::max_rel_diff(x.as_slice(), y.as_slice()) <= tolerance
                    })
            }
            _ => false,
        }
    }
}

/// One serving request: a compiler-visible workload plus concrete tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The workload (compilation cache key).
    pub workload: Workload,
    /// The input tensors.
    pub input: RequestInput,
}

impl Request {
    /// Creates a request after validating that the input matches the workload.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InputMismatch`] or
    /// [`RuntimeError::ShapeMismatch`] when the tensors cannot serve the
    /// workload.
    pub fn new(workload: Workload, input: RequestInput) -> Result<Self, RuntimeError> {
        validate(&workload, &input)?;
        Ok(Request { workload, input })
    }

    /// Builds a softmax request whose workload shape is derived from the
    /// input matrix (`rows × len`).
    pub fn softmax(rows: Matrix) -> Self {
        let workload = Workload::Softmax {
            rows: rows.rows(),
            len: rows.cols(),
        };
        Request {
            workload,
            input: RequestInput::Rows(rows),
        }
    }
}

/// Validates that `input`'s kind and shapes can serve `workload`: the
/// family's contract ([`Semantics::check`](rf_tile::exec::Semantics::check),
/// the check the VM runs), then the row count and axis length the workload
/// fixes. Formats and allocates nothing unless it rejects.
///
/// # Errors
///
/// See [`Request::new`].
pub fn validate(workload: &Workload, input: &RequestInput) -> Result<(), RuntimeError> {
    let (fixed_rows, fixed_axis) = workload.fixed_extents();
    let fixed = |dim, n: Option<usize>, got| n.map_or(Ok(()), |n| InputError::same(dim, n, got));
    let checked = workload
        .semantics()
        .check(&input.as_exec())
        .and_then(|(rows, axis_len)| {
            fixed("rows", fixed_rows, rows)?;
            fixed("axis length", fixed_axis, axis_len)
        });
    checked.map_err(|error| match error {
        InputError::Kind { expected, got } => RuntimeError::InputMismatch {
            workload: workload.name(),
            expected,
            got,
        },
        shape => RuntimeError::ShapeMismatch {
            workload: workload.name(),
            detail: shape.to_string(),
        },
    })
}

fn attention_scale(qk_dim: usize) -> f64 {
    1.0 / (qk_dim.max(1) as f64).sqrt()
}

/// Executes a validated request by interpreting `plan`'s tile program on the
/// `rf_tile::exec` VM — the execution path the runtime serves. The plan is
/// the cached [`CompiledKernel`], so a cache hit reuses both the tuning *and*
/// the executable; there is no workload-matching kernel dispatch here.
///
/// # Errors
///
/// Returns [`RuntimeError::ExecutionFailed`], carrying the VM's reason, when
/// the plan carries no executable program or the VM rejects the tensors. An
/// engine-submitted request has passed [`validate`], the VM's own input
/// check, so only a value-dependent rejection (an inertia system whose total
/// mass is not positive) surfaces here; the engine delivers it to the ticket
/// and counts it in the `failed` metrics instead of panicking the worker.
pub fn execute_plan(
    plan: &CompiledKernel,
    request: &Request,
) -> Result<RequestOutput, RuntimeError> {
    plan.run(&request.input.as_exec())
        .map(RequestOutput::from_exec)
        .map_err(|err| RuntimeError::execution_failed(request.workload.name(), err))
}

/// Executes a validated request with the **unfused** reference kernels (the
/// correctness oracle for [`execute_plan`]).
pub fn execute_reference(workload: &Workload, input: &RequestInput) -> RequestOutput {
    match (workload, input) {
        (Workload::Softmax { .. }, RequestInput::Rows(m)) => {
            RequestOutput::Matrix(softmax::softmax_rows(m))
        }
        (Workload::Variance(_), RequestInput::Rows(m)) => {
            RequestOutput::Values(nonml::variance_rows(m))
        }
        (Workload::Mha(_) | Workload::Mla(_), RequestInput::Attention { q, k, v }) => {
            RequestOutput::Matrix(attention::attention_naive(
                q,
                k,
                v,
                attention_scale(q.cols()),
            ))
        }
        (Workload::Moe(c), RequestInput::Routing { x, w }) => {
            RequestOutput::Routing(moe::route_naive(x, w, c.topk))
        }
        (Workload::Quant(_), RequestInput::QuantGemm { a, w }) => {
            RequestOutput::Matrix(quant::quant_gemm_naive(a, w))
        }
        (Workload::Inertia(_), RequestInput::Inertia { masses, positions }) => {
            RequestOutput::Values(vec![nonml::inertia_naive(masses, positions)])
        }
        _ => unreachable!("requests are validated before execution"),
    }
}

#[cfg(test)]
mod tests;
