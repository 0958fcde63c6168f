//! Requests, their input tensors, outputs and the numeric execution paths.
//!
//! A [`Request`] pairs a [`Workload`] (the shape description the compiler
//! understands, and the cache key) with a [`RequestInput`] (the concrete
//! tensors to run the fused kernel over). Two execution paths are provided:
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
use rf_tile::exec::{ExecInput, ExecOutput};
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
    /// A worker failed (panicked) while executing the batch this request was
    /// part of; the request was not served.
    ExecutionFailed {
        /// Name of the workload whose batch failed.
        workload: String,
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
            RuntimeError::ExecutionFailed { workload } => {
                write!(f, "execution of workload `{workload}` failed")
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
    /// Short name of the input kind, used in error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            RequestInput::Rows(_) => "row-matrix",
            RequestInput::Attention { .. } => "attention (q/k/v)",
            RequestInput::Routing { .. } => "routing (x/w)",
            RequestInput::QuantGemm { .. } => "quant-gemm (a/w)",
            RequestInput::Inertia { .. } => "inertia (masses/positions)",
        }
    }

    /// A borrowed VM view of the tensors — the form
    /// [`CompiledKernel::run`](rf_codegen::CompiledKernel::run) consumes. No
    /// tensor is copied; the serving hot path hands the VM references into
    /// the queued request.
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

fn mismatch(workload: &Workload, expected: &'static str, input: &RequestInput) -> RuntimeError {
    RuntimeError::InputMismatch {
        workload: workload.name(),
        expected,
        got: input.kind(),
    }
}

fn shape_err(workload: &Workload, detail: String) -> RuntimeError {
    RuntimeError::ShapeMismatch {
        workload: workload.name(),
        detail,
    }
}

/// Validates that `input`'s kind and shapes can serve `workload`.
///
/// # Errors
///
/// See [`Request::new`].
pub fn validate(workload: &Workload, input: &RequestInput) -> Result<(), RuntimeError> {
    match workload {
        Workload::Softmax { rows, len } => match input {
            RequestInput::Rows(m) => {
                if m.rows() != *rows || m.cols() != *len {
                    return Err(shape_err(
                        workload,
                        format!(
                            "expected a {rows}x{len} matrix, got {}x{}",
                            m.rows(),
                            m.cols()
                        ),
                    ));
                }
                if *rows == 0 || *len == 0 {
                    return Err(shape_err(
                        workload,
                        "softmax input must be non-empty".to_string(),
                    ));
                }
                Ok(())
            }
            other => Err(mismatch(workload, "row-matrix", other)),
        },
        Workload::Variance(c) => match input {
            RequestInput::Rows(m) => {
                if m.cols() != c.l || c.l == 0 {
                    return Err(shape_err(
                        workload,
                        format!(
                            "expected non-empty rows of length {}, got {}",
                            c.l,
                            m.cols()
                        ),
                    ));
                }
                if m.rows() == 0 {
                    return Err(shape_err(
                        workload,
                        "variance input must have at least one row".to_string(),
                    ));
                }
                Ok(())
            }
            other => Err(mismatch(workload, "row-matrix", other)),
        },
        Workload::Mha(c) => match input {
            RequestInput::Attention { q, k, v } => {
                let ok = q.rows() == c.q
                    && q.cols() == c.hd
                    && k.rows() == c.kv
                    && k.cols() == c.hd
                    && v.rows() == c.kv
                    && v.cols() == c.hd;
                if !ok {
                    return Err(shape_err(
                        workload,
                        format!(
                            "expected q [{}x{}], k/v [{}x{}]; got q [{}x{}], k [{}x{}], v [{}x{}]",
                            c.q,
                            c.hd,
                            c.kv,
                            c.hd,
                            q.rows(),
                            q.cols(),
                            k.rows(),
                            k.cols(),
                            v.rows(),
                            v.cols()
                        ),
                    ));
                }
                Ok(())
            }
            other => Err(mismatch(workload, "attention (q/k/v)", other)),
        },
        Workload::Mla(c) => match input {
            RequestInput::Attention { q, k, v } => {
                let ok = q.rows() == 1
                    && q.cols() == c.qk_dim()
                    && k.rows() == c.kv
                    && k.cols() == c.qk_dim()
                    && v.rows() == c.kv
                    && v.cols() == c.hd;
                if !ok {
                    return Err(shape_err(
                        workload,
                        format!(
                            "expected q [1x{}], k [{}x{}], v [{}x{}]; got q [{}x{}], k [{}x{}], v [{}x{}]",
                            c.qk_dim(),
                            c.kv,
                            c.qk_dim(),
                            c.kv,
                            c.hd,
                            q.rows(),
                            q.cols(),
                            k.rows(),
                            k.cols(),
                            v.rows(),
                            v.cols()
                        ),
                    ));
                }
                Ok(())
            }
            other => Err(mismatch(workload, "attention (q/k/v)", other)),
        },
        Workload::Moe(c) => match input {
            RequestInput::Routing { x, w } => {
                // The unfused routing oracle asserts topk <= experts and the
                // tile VM rejects it; refuse such configurations at the front
                // door instead.
                if c.topk == 0 || c.topk > c.en {
                    return Err(shape_err(
                        workload,
                        format!("topk ({}) must be in 1..={} (expert count)", c.topk, c.en),
                    ));
                }
                let ok = x.cols() == c.hd && w.rows() == c.hd && w.cols() == c.en && x.rows() > 0;
                if !ok {
                    return Err(shape_err(
                        workload,
                        format!(
                            "expected x [*x{}], w [{}x{}]; got x [{}x{}], w [{}x{}]",
                            c.hd,
                            c.hd,
                            c.en,
                            x.rows(),
                            x.cols(),
                            w.rows(),
                            w.cols()
                        ),
                    ));
                }
                Ok(())
            }
            other => Err(mismatch(workload, "routing (x/w)", other)),
        },
        Workload::Quant(c) => match input {
            RequestInput::QuantGemm { a, w } => {
                let ok = a.cols() == c.k
                    && w.rows() == c.k
                    && w.cols() == c.n
                    && a.rows() > 0
                    && c.k > 0;
                if !ok {
                    return Err(shape_err(
                        workload,
                        format!(
                            "expected a [*x{}], w [{}x{}]; got a [{}x{}], w [{}x{}]",
                            c.k,
                            c.k,
                            c.n,
                            a.rows(),
                            a.cols(),
                            w.rows(),
                            w.cols()
                        ),
                    ));
                }
                Ok(())
            }
            other => Err(mismatch(workload, "quant-gemm (a/w)", other)),
        },
        Workload::Inertia(c) => match input {
            RequestInput::Inertia { masses, positions } => {
                let ok = masses.len() == positions.rows()
                    && positions.cols() == c.dim
                    && !masses.is_empty();
                if !ok {
                    return Err(shape_err(
                        workload,
                        format!(
                            "expected {} masses and positions [*x{}]; got {} masses, positions [{}x{}]",
                            positions.rows(),
                            c.dim,
                            masses.len(),
                            positions.rows(),
                            positions.cols()
                        ),
                    ));
                }
                Ok(())
            }
            other => Err(mismatch(workload, "inertia (masses/positions)", other)),
        },
    }
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
/// Returns [`RuntimeError::ExecutionFailed`] when the plan carries no
/// executable program or the VM rejects the tensors. Front-door validation
/// catches kind and shape mismatches for engine-submitted requests, but
/// value-dependent rejections (e.g. an inertia system whose total mass is
/// not positive) surface here; the engine delivers them to the ticket and
/// counts them in the `failed` metrics instead of panicking the worker.
pub fn execute_plan(
    plan: &CompiledKernel,
    request: &Request,
) -> Result<RequestOutput, RuntimeError> {
    plan.run(&request.input.as_exec())
        .map(RequestOutput::from_exec)
        .map_err(|_| RuntimeError::ExecutionFailed {
            workload: request.workload.name(),
        })
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
mod tests {
    use super::*;
    use rf_gpusim::GpuArch;
    use rf_workloads::{
        inertia_tiny, mha_tiny, mla_tiny, moe_tiny, quant_tiny, random_matrix, random_vec,
        variance_tiny,
    };

    const TOL: f64 = 1e-9;

    fn mha_request() -> Request {
        let c = mha_tiny();
        Request::new(
            Workload::Mha(c.clone()),
            RequestInput::Attention {
                q: random_matrix(c.q, c.hd, 1, -1.0, 1.0),
                k: random_matrix(c.kv, c.hd, 2, -1.0, 1.0),
                v: random_matrix(c.kv, c.hd, 3, -1.0, 1.0),
            },
        )
        .unwrap()
    }

    #[test]
    fn every_workload_family_executes_and_matches_reference() {
        let moe = moe_tiny();
        let quant = quant_tiny();
        let var = variance_tiny();
        let inertia = inertia_tiny();
        let mla = mla_tiny();
        let requests = vec![
            Request::softmax(random_matrix(4, 64, 10, -3.0, 3.0)),
            mha_request(),
            Request::new(
                Workload::Mla(mla.clone()),
                RequestInput::Attention {
                    q: random_matrix(1, mla.qk_dim(), 4, -1.0, 1.0),
                    k: random_matrix(mla.kv, mla.qk_dim(), 5, -1.0, 1.0),
                    v: random_matrix(mla.kv, mla.hd, 6, -1.0, 1.0),
                },
            )
            .unwrap(),
            Request::new(
                Workload::Moe(moe.clone()),
                RequestInput::Routing {
                    x: random_matrix(6, moe.hd, 7, -1.0, 1.0),
                    w: random_matrix(moe.hd, moe.en, 8, -1.0, 1.0),
                },
            )
            .unwrap(),
            Request::new(
                Workload::Quant(quant.clone()),
                RequestInput::QuantGemm {
                    a: random_matrix(5, quant.k, 9, -1.0, 1.0),
                    w: random_matrix(quant.k, quant.n, 11, -1.0, 1.0),
                },
            )
            .unwrap(),
            Request::new(
                Workload::Variance(var.clone()),
                RequestInput::Rows(random_matrix(3, var.l, 12, -2.0, 2.0)),
            )
            .unwrap(),
            Request::new(
                Workload::Inertia(inertia.clone()),
                RequestInput::Inertia {
                    masses: random_vec(32, 13, 0.1, 2.0),
                    positions: random_matrix(32, inertia.dim, 14, -1.0, 1.0),
                },
            )
            .unwrap(),
        ];
        let arch = GpuArch::a10();
        for req in requests {
            let plan = rf_codegen::compile_workload(&req.workload, &arch);
            assert!(
                plan.program.as_ref().is_some_and(|p| p.binding.is_some()),
                "{}: compiled kernels must carry an executable program",
                req.workload.name()
            );
            let served = execute_plan(&plan, &req).expect("plan executes");
            let reference = execute_reference(&req.workload, &req.input);
            assert!(
                served.approx_eq(&reference, TOL),
                "{}: interpreted plan and reference disagree",
                req.workload.name()
            );
        }
    }

    #[test]
    fn plans_without_programs_fail_cleanly() {
        let req = Request::softmax(random_matrix(2, 8, 1, -1.0, 1.0));
        let mut plan = rf_codegen::compile_workload(&req.workload, &GpuArch::a10());
        plan.program = None;
        let err = execute_plan(&plan, &req).unwrap_err();
        assert!(matches!(err, RuntimeError::ExecutionFailed { .. }));
    }

    #[test]
    fn mismatched_plan_and_input_fail_cleanly() {
        // A plan compiled for one family must reject another family's
        // tensors instead of panicking the worker.
        let softmax = Request::softmax(random_matrix(2, 8, 1, -1.0, 1.0));
        let plan =
            rf_codegen::compile_workload(&Workload::Variance(variance_tiny()), &GpuArch::a10());
        // Variance also consumes row-matrices, so cross-feed attention input.
        let mha = mha_request();
        let err = execute_plan(&plan, &mha).unwrap_err();
        assert!(matches!(err, RuntimeError::ExecutionFailed { .. }));
        // Same-kind input is accepted (the VM reads shapes from the tensors).
        assert!(execute_plan(&plan, &softmax).is_ok());
    }

    #[test]
    fn kind_mismatch_is_rejected() {
        let err = Request::new(
            Workload::Softmax { rows: 2, len: 4 },
            RequestInput::Inertia {
                masses: vec![1.0],
                positions: random_matrix(1, 3, 1, 0.0, 1.0),
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::InputMismatch { .. }));
        assert!(err.to_string().contains("row-matrix"));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let err = Request::new(
            Workload::Softmax { rows: 2, len: 4 },
            RequestInput::Rows(random_matrix(2, 5, 1, 0.0, 1.0)),
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::ShapeMismatch { .. }));

        let c = moe_tiny();
        let err = Request::new(
            Workload::Moe(c.clone()),
            RequestInput::Routing {
                x: random_matrix(4, c.hd + 1, 2, 0.0, 1.0),
                w: random_matrix(c.hd, c.en, 3, 0.0, 1.0),
            },
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::ShapeMismatch { .. }));
    }

    #[test]
    fn kernel_panicking_inputs_are_rejected_up_front() {
        // Empty softmax rows would hit the non-empty assert in rf-kernels.
        let err = validate(
            &Workload::Softmax { rows: 2, len: 0 },
            &RequestInput::Rows(Matrix::zeros(2, 0)),
        )
        .unwrap_err();
        assert!(err.to_string().contains("non-empty"));

        // topk > expert count would hit the assert in the routing kernel.
        let mut c = moe_tiny();
        c.topk = c.en + 1;
        let err = validate(
            &Workload::Moe(c.clone()),
            &RequestInput::Routing {
                x: random_matrix(2, c.hd, 1, 0.0, 1.0),
                w: random_matrix(c.hd, c.en, 2, 0.0, 1.0),
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("topk"));
    }

    #[test]
    fn outputs_of_different_kinds_never_compare_equal() {
        let a = RequestOutput::Values(vec![1.0]);
        let b = RequestOutput::Matrix(Matrix::zeros(1, 1));
        assert!(!a.approx_eq(&b, 1.0));
    }

    #[test]
    fn a_nan_matches_only_a_nan_at_the_same_position() {
        let nan = f64::NAN;
        let matrix = |v: Vec<f64>| RequestOutput::Matrix(Matrix::from_vec(1, v.len(), v));
        let routing = |p: f64| {
            RequestOutput::Routing(vec![RoutingDecision {
                experts: vec![2],
                probs: vec![p],
            }])
        };
        let tensors = |v: f64| RequestOutput::Tensors(vec![Matrix::from_vec(1, 1, vec![v])]);
        let cases = [
            (matrix(vec![nan, 1.0]), matrix(vec![0.25, 1.0]), false),
            (matrix(vec![0.25, 1.0]), matrix(vec![nan, 1.0]), false),
            (matrix(vec![nan, 1.0]), matrix(vec![nan, 1.0]), true),
            (matrix(vec![nan, 1.0]), matrix(vec![1.0, nan]), false),
            (
                RequestOutput::Values(vec![nan]),
                RequestOutput::Values(vec![3.0]),
                false,
            ),
            (
                RequestOutput::Values(vec![nan]),
                RequestOutput::Values(vec![nan]),
                true,
            ),
            (routing(nan), routing(0.5), false),
            (routing(0.5), routing(nan), false),
            (routing(nan), routing(nan), true),
            (tensors(nan), tensors(7.0), false),
            (tensors(nan), tensors(nan), true),
            (
                matrix(vec![f64::INFINITY]),
                matrix(vec![f64::INFINITY]),
                true,
            ),
            (matrix(vec![f64::INFINITY]), matrix(vec![1.0]), false),
        ];
        for (i, (a, b, equal)) in cases.iter().enumerate() {
            assert_eq!(a.approx_eq(b, 1e-9), *equal, "case {i}: {a:?} vs {b:?}");
        }
        let (a, b) = (
            Matrix::from_vec(1, 1, vec![nan]),
            Matrix::from_vec(1, 1, vec![7.0]),
        );
        assert_eq!(a.max_abs_diff(&b), f64::INFINITY);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn softmax_constructor_derives_workload_from_input() {
        let req = Request::softmax(random_matrix(3, 7, 1, -1.0, 1.0));
        assert_eq!(req.workload, Workload::Softmax { rows: 3, len: 7 });
    }
}
