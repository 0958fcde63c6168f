//! The execution-backend seam between scheduling and execution.
//!
//! Everything above this module — batching, caching, metrics — decides
//! *what* to run; an [`ExecBackend`] decides *how*. The trait carries the
//! capabilities the device needs from its executor:
//!
//! * **identity**: which [`GpuArch`] it compiles, tunes and costs for;
//! * **cost**: a latency [estimate](ExecBackend::estimate_us) for a compiled
//!   profile at a batch size, driving the simulated-latency accounting;
//! * **execution**: running a compiled plan, either for a whole request
//!   ([`execute`](ExecBackend::execute)) or for one fused graph region over
//!   borrowed tensors ([`run_region`](ExecBackend::run_region)).
//!
//! [`TileVmBackend`] interprets the compiled tile program on the
//! `rf_tile::exec` VM — the only place [`execute_plan`] is invoked on behalf
//! of the engine. The trait stays a seam so tests can plug in a fake that
//! parks, fails or panics on cue.

use rf_codegen::CompiledKernel;
use rf_gpusim::{GpuArch, KernelProfile};
use rf_tile::exec::{ExecError, ExecInput, ExecOutput};

use crate::request::{execute_plan, execute_plan_profiled, Request, RequestOutput, RuntimeError};
use crate::stream::batch_latency_us;

/// How the device executes compiled plans. See the module docs.
///
/// Implementations must be `Send + Sync`: one backend instance is shared by
/// every worker thread.
pub trait ExecBackend: Send + Sync {
    /// The architecture this backend executes as. Compilation, tuning and
    /// cost estimation all key off this.
    fn arch(&self) -> &GpuArch;

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
    /// `execute` with no profile — a backend that interprets nothing has no
    /// loops to attribute time to.
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

    /// Executes one fused graph region over borrowed tensors.
    ///
    /// # Errors
    ///
    /// The VM's [`ExecError`] (graph serving wraps it into
    /// [`RuntimeError::Graph`] with the region name attached).
    fn run_region(
        &self,
        kernel: &CompiledKernel,
        input: &ExecInput<'_>,
    ) -> Result<ExecOutput, ExecError>;
}

/// The real interpreter: compiled tile programs run on the `rf_tile::exec`
/// VM, costed on `arch`'s analytical latency model.
///
/// The VM splits a large request over the host's cores inside the call — by
/// rows, or for attention with fewer rows than cores (decode) by the
/// Multi-Segment segments of each row — so an engine built with `workers(n)`
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
        kernel: &CompiledKernel,
        input: &ExecInput<'_>,
    ) -> Result<ExecOutput, ExecError> {
        kernel.run(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PlanCache;
    use crate::request::execute_reference;
    use rf_workloads::Matrix;

    #[test]
    fn tile_vm_backend_is_the_real_execution_path() {
        let arch = GpuArch::a10();
        let backend = TileVmBackend::new(arch.clone());
        let cache = PlanCache::new(arch, 4);
        let request = Request::softmax(Matrix::random(4, 16, 3, -1.0, 1.0));
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
}
