//! The execution-backend seam between scheduling and execution.
//!
//! Everything above this module — batching, caching, costing, metrics —
//! decides *what* to run; an [`ExecBackend`] runs one request against its
//! compiled plan ([`execute`](ExecBackend::execute)). That call is the one a
//! test fake intercepts to park or panic on cue. The engine costs a
//! batch with [`crate::stream::batch_latency_us`] on its plan cache's arch,
//! profiles through `CompiledKernel::run_profiled` and runs graph regions
//! through [`crate::execute_graph_plan`].
//!
//! [`TileVmBackend`] interprets the compiled tile program on the
//! `rf_tile::exec` VM — the only place [`execute_plan`] is invoked on behalf
//! of the engine.

use rf_codegen::CompiledKernel;

use crate::request::{execute_plan, Request, RequestOutput, RuntimeError};

/// How the engine executes compiled plans. See the module docs.
///
/// Implementations must be `Send + Sync`: one backend instance is shared by
/// every worker thread.
pub trait ExecBackend: Send + Sync {
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
}

/// The real interpreter: compiled tile programs run on the `rf_tile::exec`
/// VM.
///
/// The VM splits a large request over the host's cores inside the call — by
/// rows, or for attention with fewer rows than cores (decode) by the
/// Multi-Segment segments of each row — so an engine built with `workers(n)`
/// can run up to `n × cores` threads while its workers all hold large
/// requests, few-row long-context ones included; small requests stay on their
/// worker's thread. Every split leaves every output bit where the unsplit run
/// puts it.
#[derive(Debug)]
pub struct TileVmBackend;

impl ExecBackend for TileVmBackend {
    fn execute(
        &self,
        plan: &CompiledKernel,
        request: &Request,
    ) -> Result<RequestOutput, RuntimeError> {
        execute_plan(plan, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::PlanCache;
    use crate::request::execute_reference;
    use rf_gpusim::GpuArch;
    use rf_workloads::Matrix;

    #[test]
    fn tile_vm_backend_is_the_real_execution_path() {
        let cache = PlanCache::new(GpuArch::a10(), 4);
        let request = Request::softmax(Matrix::random(4, 16, 3, -1.0, 1.0));
        let plan = cache.get_or_compile(&request.workload);
        let served = TileVmBackend.execute(&plan, &request).unwrap();
        let reference = execute_reference(&request.workload, &request.input);
        assert!(served.approx_eq(&reference, 1e-9));
    }
}
