//! The execution-backend seam between scheduling and execution.
//!
//! Everything above this module — batching, routing, caching, metrics —
//! decides *what* to run; an [`ExecBackend`] decides *how*. The trait carries
//! the three capabilities a device needs from its executor:
//!
//! * **identity**: which [`GpuArch`] it is and a bit-exact capability
//!   [fingerprint](ExecBackend::fingerprint), so per-arch plan/tuning caches
//!   key correctly in a heterogeneous fleet;
//! * **cost**: a latency [estimate](ExecBackend::estimate_us) for a compiled
//!   profile at a batch size, driving the simulated-latency accounting;
//! * **execution**: running a compiled plan, either for a whole request
//!   ([`execute`](ExecBackend::execute)) or for one fused graph region over
//!   borrowed tensors ([`run_region`](ExecBackend::run_region)).
//!
//! Two implementations ship today. [`TileVmBackend`] interprets the compiled
//! tile program on the `rf_tile::exec` VM — the real execution path, the only
//! place [`execute_plan`] is invoked on behalf of the engine.
//! [`CostModelBackend`] runs nothing: it keeps the full compile → tune →
//! cost pipeline (the latency numbers are identical to the VM backend's,
//! since both cost on the same analytical model) but returns shape-correct
//! zero outputs, which makes fleet-scale scheduling experiments cheap —
//! thousands of simulated devices without paying for interpretation.

use std::sync::Arc;

use rf_codegen::{CompiledKernel, Workload};
use rf_gpusim::{GpuArch, KernelProfile};
use rf_kernels::moe::RoutingDecision;
use rf_tile::exec::{ExecError, ExecInput, ExecOutput, TopKDecision};
use rf_workloads::Matrix;

use crate::config::BackendKind;
use crate::request::{execute_plan, execute_plan_profiled, Request, RequestOutput, RuntimeError};
use crate::stream::batch_latency_us;

/// How a fleet device executes compiled plans. See the module docs.
///
/// Implementations must be `Send + Sync`: one backend instance is shared by
/// every worker thread of its device.
pub trait ExecBackend: Send + Sync {
    /// Short stable name of the backend kind (`"tile-vm"`, `"cost-model"`).
    fn name(&self) -> &'static str;

    /// The architecture this backend executes as. Compilation, tuning and
    /// cost estimation all key off this.
    fn arch(&self) -> &GpuArch;

    /// Bit-exact capability fingerprint of [`ExecBackend::arch`] — the value
    /// plan caches embed in their keys, so two devices report the same
    /// fingerprint exactly when their compiled plans are interchangeable.
    fn fingerprint(&self) -> u64 {
        self.arch().fingerprint()
    }

    /// Simulated latency of running `profile` as one batch-of-`batch`
    /// iteration on this backend, in microseconds.
    fn estimate_us(&self, profile: &KernelProfile, batch: usize) -> f64;

    /// Executes one validated request against its compiled plan.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ExecutionFailed`] when the plan cannot serve the
    /// request (no executable program, or a value-dependent VM rejection).
    fn execute(
        &self,
        plan: &CompiledKernel,
        request: &Request,
    ) -> Result<RequestOutput, RuntimeError>;

    /// Executes one validated request like [`ExecBackend::execute`] and, when
    /// the backend actually interprets a program, returns the tile-VM's
    /// op-level profile alongside the output. The default forwards to
    /// `execute` with no profile — accounting-only backends have no
    /// interpreter loops to attribute time to.
    ///
    /// The output must be bit-identical to [`ExecBackend::execute`]'s for the
    /// same `(plan, request)`; the engine switches between the two entry
    /// points on the `TraceConfig::profile` gate and the acceptance tests
    /// pin the equivalence down.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`ExecBackend::execute`].
    fn execute_profiled(
        &self,
        plan: &CompiledKernel,
        request: &Request,
    ) -> Result<(RequestOutput, Option<rf_tile::ExecProfile>), RuntimeError> {
        self.execute(plan, request).map(|output| (output, None))
    }

    /// Executes one fused graph region over borrowed tensors. `workload` is
    /// the region's compilation key — backends that synthesise outputs
    /// instead of running the VM derive the output shape from it.
    ///
    /// # Errors
    ///
    /// The VM's [`ExecError`] (graph serving wraps it into
    /// [`RuntimeError::Graph`] with the region name attached).
    fn run_region(
        &self,
        workload: &Workload,
        kernel: &CompiledKernel,
        input: &ExecInput<'_>,
    ) -> Result<ExecOutput, ExecError>;
}

/// Instantiates the backend a [`BackendKind`] names, bound to `arch`.
pub fn make_backend(kind: BackendKind, arch: GpuArch) -> Arc<dyn ExecBackend> {
    match kind {
        BackendKind::TileVm => Arc::new(TileVmBackend::new(arch)),
        BackendKind::CostModel => Arc::new(CostModelBackend::new(arch)),
    }
}

/// The real interpreter: compiled tile programs run on the `rf_tile::exec`
/// VM, costed on `arch`'s analytical latency model.
///
/// The VM splits a large request over the host's cores inside the call — by
/// rows, or for attention with fewer rows than cores (decode) by the
/// Multi-Segment segments of each row — so a device built with `workers(n)`
/// can run up to `n × cores` threads while its workers all hold large
/// requests, few-row long-context ones included; small requests stay on their
/// worker's thread. Every split leaves every output bit where the unsplit run
/// puts it.
#[derive(Debug)]
pub struct TileVmBackend {
    arch: GpuArch,
}

impl TileVmBackend {
    /// A VM backend executing as `arch`.
    pub fn new(arch: GpuArch) -> Self {
        TileVmBackend { arch }
    }
}

impl ExecBackend for TileVmBackend {
    fn name(&self) -> &'static str {
        "tile-vm"
    }

    fn arch(&self) -> &GpuArch {
        &self.arch
    }

    fn estimate_us(&self, profile: &KernelProfile, batch: usize) -> f64 {
        batch_latency_us(&self.arch, profile, batch)
    }

    fn execute(
        &self,
        plan: &CompiledKernel,
        request: &Request,
    ) -> Result<RequestOutput, RuntimeError> {
        execute_plan(plan, request)
    }

    fn execute_profiled(
        &self,
        plan: &CompiledKernel,
        request: &Request,
    ) -> Result<(RequestOutput, Option<rf_tile::ExecProfile>), RuntimeError> {
        execute_plan_profiled(plan, request).map(|(output, profile)| (output, Some(profile)))
    }

    fn run_region(
        &self,
        _workload: &Workload,
        kernel: &CompiledKernel,
        input: &ExecInput<'_>,
    ) -> Result<ExecOutput, ExecError> {
        kernel.run(input)
    }
}

/// The accounting-only backend: same compile/tune/cost pipeline as
/// [`TileVmBackend`], but execution synthesises shape-correct zero outputs
/// instead of interpreting the program.
#[derive(Debug)]
pub struct CostModelBackend {
    arch: GpuArch,
}

impl CostModelBackend {
    /// A cost-model backend accounting as `arch`.
    pub fn new(arch: GpuArch) -> Self {
        CostModelBackend { arch }
    }

    /// The shape-correct placeholder output for `workload` over `input`.
    /// `None` when the input kind cannot serve the workload (the caller maps
    /// that to its own mismatch error).
    fn synthesise(workload: &Workload, input: &ExecInput<'_>) -> Option<ExecOutput> {
        match (workload, input) {
            (Workload::Softmax { .. }, ExecInput::Rows(m)) => {
                Some(ExecOutput::Matrix(Matrix::zeros(m.rows(), m.cols())))
            }
            (Workload::Variance(_), ExecInput::Rows(m)) => {
                Some(ExecOutput::Values(vec![0.0; m.rows()]))
            }
            (Workload::Mha(_) | Workload::Mla(_), ExecInput::Attention { q, v, .. }) => {
                Some(ExecOutput::Matrix(Matrix::zeros(q.rows(), v.cols())))
            }
            (Workload::Moe(c), ExecInput::Routing { x, .. }) => {
                let decision = TopKDecision {
                    experts: (0..c.topk).collect(),
                    probs: vec![1.0 / c.topk.max(1) as f64; c.topk],
                };
                Some(ExecOutput::TopK(vec![decision; x.rows()]))
            }
            (Workload::Quant(_), ExecInput::QuantGemm { a, w }) => {
                Some(ExecOutput::Matrix(Matrix::zeros(a.rows(), w.cols())))
            }
            (Workload::Inertia(_), ExecInput::Inertia { .. }) => {
                Some(ExecOutput::Values(vec![0.0]))
            }
            _ => None,
        }
    }
}

impl ExecBackend for CostModelBackend {
    fn name(&self) -> &'static str {
        "cost-model"
    }

    fn arch(&self) -> &GpuArch {
        &self.arch
    }

    fn estimate_us(&self, profile: &KernelProfile, batch: usize) -> f64 {
        batch_latency_us(&self.arch, profile, batch)
    }

    fn execute(
        &self,
        _plan: &CompiledKernel,
        request: &Request,
    ) -> Result<RequestOutput, RuntimeError> {
        match CostModelBackend::synthesise(&request.workload, &request.input.as_exec()) {
            Some(output) => {
                let output = RequestOutput::from_exec(output);
                // Placeholder MoE decisions map through the same conversion
                // as VM output, so downstream consumers see one type.
                if let RequestOutput::Routing(decisions) = &output {
                    debug_assert!(decisions
                        .iter()
                        .all(|d: &RoutingDecision| !d.experts.is_empty()));
                }
                Ok(output)
            }
            None => Err(RuntimeError::ExecutionFailed {
                workload: request.workload.name(),
            }),
        }
    }

    fn run_region(
        &self,
        workload: &Workload,
        kernel: &CompiledKernel,
        input: &ExecInput<'_>,
    ) -> Result<ExecOutput, ExecError> {
        CostModelBackend::synthesise(workload, input).ok_or_else(|| ExecError::InputMismatch {
            program: kernel.name.clone(),
            expected: workload.class(),
            got: input.kind(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PlanCache;
    use crate::request::{execute_reference, RequestInput};

    fn softmax_request() -> Request {
        Request::softmax(Matrix::random(4, 16, 3, -1.0, 1.0))
    }

    #[test]
    fn tile_vm_backend_is_the_real_execution_path() {
        let arch = GpuArch::a10();
        let backend = TileVmBackend::new(arch.clone());
        assert_eq!(backend.name(), "tile-vm");
        assert_eq!(backend.fingerprint(), arch.fingerprint());
        let cache = PlanCache::new(arch, 4);
        let request = softmax_request();
        let plan = cache.get_or_compile(&request.workload);
        let served = backend.execute(&plan, &request).unwrap();
        let reference = execute_reference(&request.workload, &request.input);
        assert!(served.approx_eq(&reference, 1e-9));
        // The estimate is exactly the shared batched cost model.
        assert_eq!(
            backend.estimate_us(&plan.profile, 4),
            batch_latency_us(backend.arch(), &plan.profile, 4)
        );
    }

    #[test]
    fn cost_model_backend_costs_but_does_not_execute() {
        let arch = GpuArch::h800();
        let backend = CostModelBackend::new(arch.clone());
        assert_eq!(backend.name(), "cost-model");
        let cache = PlanCache::new(arch, 4);
        let request = softmax_request();
        let plan = cache.get_or_compile(&request.workload);
        // Same cost surface as the VM backend...
        let vm = TileVmBackend::new(GpuArch::h800());
        assert_eq!(
            backend.estimate_us(&plan.profile, 8),
            vm.estimate_us(&plan.profile, 8)
        );
        // ...but the output is a shape-correct zero tensor.
        match backend.execute(&plan, &request).unwrap() {
            RequestOutput::Matrix(m) => {
                assert_eq!((m.rows(), m.cols()), (4, 16));
                assert!(m.as_slice().iter().all(|&v| v == 0.0));
            }
            other => panic!("expected a matrix, got {other:?}"),
        }
    }

    #[test]
    fn cost_model_synthesises_every_family_shape() {
        let moe = rf_workloads::MoeConfig {
            topk: 2,
            ..rf_workloads::moe_tiny()
        };
        let x = Matrix::random(moe.s, moe.hd, 1, -1.0, 1.0);
        let w = Matrix::random(moe.hd, moe.en, 2, -1.0, 1.0);
        let request =
            Request::new(Workload::Moe(moe.clone()), RequestInput::Routing { x, w }).unwrap();
        let backend = CostModelBackend::new(GpuArch::a10());
        let cache = PlanCache::new(GpuArch::a10(), 4);
        let plan = cache.get_or_compile(&request.workload);
        match backend.execute(&plan, &request).unwrap() {
            RequestOutput::Routing(decisions) => {
                assert_eq!(decisions.len(), moe.s);
                assert!(decisions.iter().all(|d| d.experts.len() == moe.topk));
            }
            other => panic!("expected routing decisions, got {other:?}"),
        }
        // A mismatched region input is a typed VM error, not a panic.
        let rows = Matrix::zeros(2, 2);
        let err = backend
            .run_region(&request.workload, &plan, &ExecInput::Rows(&rows))
            .unwrap_err();
        assert!(matches!(err, ExecError::InputMismatch { .. }));
    }

    #[test]
    fn config_kind_selects_the_backend() {
        let vm = make_backend(BackendKind::TileVm, GpuArch::a10());
        let cost = make_backend(BackendKind::CostModel, GpuArch::a10());
        assert_eq!(vm.name(), "tile-vm");
        assert_eq!(cost.name(), "cost-model");
        assert_eq!(vm.fingerprint(), cost.fingerprint());
    }
}
