//! The continuous-batching stream scheduler: an open request stream served
//! in engine **iterations** instead of drained in blocking batches.
//!
//! The old `BatchScheduler` handed workers whole batches and implicitly
//! modelled a closed world: enqueue everything, drain everything. Real
//! serving traffic is an open stream, so this scheduler is built around
//! three ideas:
//!
//! * **Iteration-level batching** — workers repeatedly call
//!   [`StreamScheduler::next_iteration`]; each iteration's batch is formed
//!   *at the iteration boundary* from whatever compatible work is queued at
//!   that moment. A request submitted while an iteration is mid-flight joins
//!   a subsequent iteration immediately — there is no drain barrier.
//! * **Admission control** — a bounded in-flight budget
//!   ([`crate::RuntimeConfig::max_in_flight`]). A submission past the budget
//!   is shed with a typed [`RuntimeError::Overloaded`] carrying a retry
//!   hint, instead of queuing forever.
//! * **Priority lanes with per-class fairness** — three lanes (high /
//!   normal / low) scheduled by deficit-weighted round-robin: every
//!   backlogged lane's credit grows by its weight at each iteration
//!   boundary and the richest lane seeds the batch. A backlogged lane's
//!   credit grows without bound until it wins, so sustained high-priority
//!   load can never starve the low lane.
//!
//! The scheduler owns only queue state — never a compiled kernel and never a
//! lock across kernel execution. Workers take an iteration (briefly holding
//! the queue mutex), release the lock, then compile/execute/cost entirely
//! outside it.

use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rf_gpusim::{estimate_latency, GpuArch, KernelProfile};

use crate::request::{OverloadInfo, RequestId, RuntimeError};
use crate::submit::{Priority, Response, Submission, LANES};

/// A handle to one in-flight submission: the receiving half of a one-slot
/// channel whose sender is the submission's [`QueuedWork`]. Supports
/// blocking ([`Ticket::wait`]), bounded ([`Ticket::wait_timeout`]) and
/// non-blocking ([`Ticket::try_take`]) receipt of the one delivery.
#[derive(Debug)]
pub struct Ticket {
    id: RequestId,
    result: Receiver<Result<Response, RuntimeError>>,
}

impl Ticket {
    /// The request id this ticket tracks.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Returns the result if the submission has already completed. Taking
    /// the result consumes it: a later [`Ticket::wait`] on the same ticket
    /// panics instead of blocking forever.
    pub fn try_take(&self) -> Option<Result<Response, RuntimeError>> {
        self.result.try_recv().ok()
    }

    /// Blocks until the submission completes and returns its result.
    ///
    /// # Errors
    ///
    /// Returns the [`RuntimeError`] the worker recorded (e.g.
    /// [`RuntimeError::ShuttingDown`] when the engine was dropped before the
    /// request ran).
    ///
    /// # Panics
    ///
    /// Panics if the result was already consumed by [`Ticket::try_take`] —
    /// the delivery is one-shot, so waiting again can never succeed.
    pub fn wait(self) -> Result<Response, RuntimeError> {
        self.result.recv().unwrap_or_else(|_| already_taken())
    }

    /// Blocks for at most `timeout` waiting for the submission to complete.
    ///
    /// Returns `None` when the timeout passes without a delivery — the
    /// ticket stays live and can be waited on again, so callers can bound
    /// their exposure to a wedged worker instead of blocking forever the way
    /// [`Ticket::wait`] would. Returns `Some(result)` (consuming the
    /// delivery, like `wait`) as soon as the worker fulfils the request.
    ///
    /// # Panics
    ///
    /// Panics if the result was already consumed by [`Ticket::try_take`] —
    /// the delivery is one-shot, so waiting again can never succeed.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<Response, RuntimeError>> {
        match self.result.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => already_taken(),
        }
    }
}

/// A ticket's sender is gone only after its one delivery, so a receive that
/// finds it disconnected comes after that delivery was taken.
fn already_taken() -> ! {
    panic!("ticket result was already taken via try_take")
}

/// A submission queued for execution, together with its completion ticket.
#[derive(Debug)]
pub struct QueuedWork {
    /// The id assigned at submission.
    pub id: RequestId,
    /// The submission itself.
    pub submission: Submission,
    /// When the submission was wrapped for queueing — the start of its
    /// queue-wait stage in [`crate::RequestTiming`].
    pub submitted_at: Instant,
    /// The engine iteration count when the scheduler admitted this work
    /// (set by [`StreamScheduler::enqueue`]); lets the worker report how
    /// many iterations the request waited out.
    pub iterations_at_submit: u64,
    /// The ticket's sender; `None` once the one delivery is sent.
    reply: Option<SyncSender<Result<Response, RuntimeError>>>,
}

impl QueuedWork {
    /// Wraps a submission for queueing and returns the submitter's ticket.
    pub fn new(id: RequestId, submission: Submission) -> (Self, Ticket) {
        // One slot: exactly one message is ever sent, so `send` never blocks.
        let (reply, result) = sync_channel(1);
        (
            QueuedWork {
                id,
                submission,
                submitted_at: Instant::now(),
                iterations_at_submit: 0,
                reply: Some(reply),
            },
            Ticket { id, result },
        )
    }

    /// The submission's scheduling lane.
    pub fn priority(&self) -> Priority {
        self.submission.priority()
    }

    /// Delivers the result to the waiting ticket.
    pub fn fulfil(mut self, result: Result<Response, RuntimeError>) {
        if let Some(reply) = self.reply.take() {
            // A dropped ticket fails the send: nobody is waiting any more.
            let _ = reply.send(result);
        }
    }
}

impl Drop for QueuedWork {
    /// Never strand a waiter: if this work is dropped without being
    /// fulfilled — a worker panicked mid-iteration, or the queue was torn
    /// down abnormally — deliver an execution failure so `Ticket::wait`
    /// returns instead of blocking forever.
    fn drop(&mut self) {
        if let Some(reply) = self.reply.take() {
            let workload = self.submission.label();
            let detail = "the work was dropped before it was served";
            let _ = reply.send(Err(RuntimeError::execution_failed(workload, detail)));
        }
    }
}

/// One engine iteration's worth of work, formed at the iteration boundary:
/// either a shape-compatible batch of workload requests (all sharing one
/// compiled plan) or a single graph submission.
#[derive(Debug)]
pub struct Iteration {
    /// The 1-based iteration index.
    pub index: u64,
    /// The lane index the deficit-round-robin pick seeded the batch from.
    pub lane: usize,
    /// When the batch was formed at the iteration boundary — the end of
    /// every member's queue-wait stage.
    pub formed_at: Instant,
    /// The iteration's batch. Non-empty; all `Submission::Workload` with one
    /// workload key, or exactly one `Submission::Graph`.
    pub work: Vec<QueuedWork>,
}

#[derive(Debug, Default)]
struct StreamState {
    lanes: [VecDeque<QueuedWork>; LANES],
    credits: [u64; LANES],
    /// Number of *submissions* (not iterations) taken by workers and not yet
    /// finished, so `depth` reports true in-flight work.
    in_flight: usize,
    iterations: u64,
    shutdown: bool,
}

impl StreamState {
    fn queued(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

/// The iteration-level scheduler shared by the engine front door and the
/// workers. See the module docs for the scheduling model.
#[derive(Debug)]
pub struct StreamScheduler {
    state: Mutex<StreamState>,
    work: Condvar,
    idle: Condvar,
    max_batch: usize,
    max_in_flight: usize,
    weights: [u64; LANES],
}

impl StreamScheduler {
    /// Creates a scheduler forming at most `max_batch`-request iterations,
    /// shedding past `max_in_flight` queued-or-executing submissions, and
    /// scheduling lanes by `weights` (lane-indexed, all positive).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `max_in_flight` is zero or any weight is
    /// zero — engine construction validates the sizes via
    /// [`crate::RuntimeConfig::validate`] first and passes the
    /// [`crate::LaneWeights`] defaults.
    pub fn new(max_batch: usize, max_in_flight: usize, weights: [u64; LANES]) -> Self {
        assert!(max_batch > 0, "max_batch must be positive");
        assert!(max_in_flight > 0, "max_in_flight must be positive");
        assert!(
            weights.iter().all(|&w| w > 0),
            "lane weights must be positive"
        );
        StreamScheduler {
            state: Mutex::new(StreamState::default()),
            work: Condvar::new(),
            idle: Condvar::new(),
            max_batch,
            max_in_flight,
            weights,
        }
    }

    /// The per-iteration batch size bound.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Submissions waiting plus submissions currently executing.
    pub fn depth(&self) -> usize {
        let state = self.state.lock().expect("scheduler lock poisoned");
        state.queued() + state.in_flight
    }

    /// Iterations started so far.
    pub fn iterations(&self) -> u64 {
        self.state
            .lock()
            .expect("scheduler lock poisoned")
            .iterations
    }

    /// Enqueues a submission onto its priority lane, enforcing the in-flight
    /// budget. `retry_hint` is the backoff estimate to embed in the
    /// [`RuntimeError::Overloaded`] shed error, for a caller that has it at
    /// hand; see [`StreamScheduler::enqueue_or_shed`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShuttingDown`] after [`StreamScheduler::shutdown`];
    /// [`RuntimeError::Overloaded`] when the budget is exhausted.
    pub fn enqueue(&self, work: QueuedWork, retry_hint: Duration) -> Result<(), RuntimeError> {
        self.enqueue_or_shed(work, |_| retry_hint)
    }

    /// [`StreamScheduler::enqueue`] with the backoff estimate computed only
    /// when the submission is shed: `retry_hint` is called, outside the
    /// queue lock, with the depth and budget that refused it. An admitted
    /// submission — every one of them below saturation — pays for no estimate.
    ///
    /// # Errors
    ///
    /// As [`StreamScheduler::enqueue`].
    pub fn enqueue_or_shed(
        &self,
        mut work: QueuedWork,
        retry_hint: impl FnOnce(&OverloadInfo) -> Duration,
    ) -> Result<(), RuntimeError> {
        {
            let mut state = self.state.lock().expect("scheduler lock poisoned");
            if state.shutdown {
                return Err(RuntimeError::ShuttingDown);
            }
            let depth = state.queued() + state.in_flight;
            if depth >= self.max_in_flight {
                drop(state);
                let source = OverloadInfo {
                    in_flight: depth,
                    budget: self.max_in_flight,
                };
                return Err(RuntimeError::Overloaded {
                    retry_hint: retry_hint(&source),
                    source,
                });
            }
            work.iterations_at_submit = state.iterations;
            let lane = work.priority().lane();
            state.lanes[lane].push_back(work);
        }
        self.work.notify_one();
        Ok(())
    }

    /// Blocks until work is available and forms the next iteration at the
    /// boundary: deficit-weighted lane selection picks the seed, then (for
    /// workload seeds) up to `max_batch - 1` further requests with the same
    /// workload join from all lanes in priority order. Work that arrives
    /// while another iteration is mid-flight is eligible immediately — there
    /// is no drain barrier between iterations.
    ///
    /// Returns `None` once the scheduler is shut down and drained; the
    /// calling worker should exit. The iteration's submissions are accounted
    /// as in-flight until the worker calls
    /// [`StreamScheduler::finish_iteration`] with the batch size.
    pub fn next_iteration(&self) -> Option<Iteration> {
        let mut state = self.state.lock().expect("scheduler lock poisoned");
        loop {
            if state.lanes.iter().any(|lane| !lane.is_empty()) {
                break;
            }
            if state.shutdown {
                return None;
            }
            state = self.work.wait(state).expect("scheduler lock poisoned");
        }
        // Deficit-weighted round-robin: each backlogged lane earns its
        // weight; an idle lane's credit resets (no hoarding while empty).
        // The richest backlogged lane wins (ties to higher priority) and
        // pays its credit back to zero. A backlogged lane that keeps losing
        // keeps earning, so it wins within a bounded number of boundaries.
        for lane in 0..LANES {
            if state.lanes[lane].is_empty() {
                state.credits[lane] = 0;
            } else {
                state.credits[lane] += self.weights[lane];
            }
        }
        let chosen = (0..LANES)
            .filter(|&lane| !state.lanes[lane].is_empty())
            .max_by_key(|&lane| (state.credits[lane], std::cmp::Reverse(lane)))
            .expect("a backlogged lane exists");
        state.credits[chosen] = 0;
        let seed = state.lanes[chosen]
            .pop_front()
            .expect("chosen lane is backlogged");
        let mut work = Vec::with_capacity(self.max_batch);
        let batch_key = match &seed.submission {
            Submission::Workload { request, .. } => Some(request.workload.clone()),
            // Graphs execute as singleton iterations: their step chain is a
            // dependency sequence, not batchable data parallelism.
            Submission::Graph { .. } => None,
        };
        work.push(seed);
        if let Some(key) = batch_key {
            // Fill from all lanes in priority order, oldest first, keeping
            // non-matching work queued in arrival order.
            for lane in 0..LANES {
                if work.len() == self.max_batch {
                    break;
                }
                let queue = &mut state.lanes[lane];
                let matches = |w: &QueuedWork| {
                    matches!(
                        &w.submission,
                        Submission::Workload { request, .. } if request.workload == key
                    )
                };
                if queue.iter().any(matches) {
                    let mut rest = VecDeque::with_capacity(queue.len());
                    for queued in queue.drain(..) {
                        if work.len() < self.max_batch && matches(&queued) {
                            work.push(queued);
                        } else {
                            rest.push_back(queued);
                        }
                    }
                    *queue = rest;
                }
            }
        }
        state.in_flight += work.len();
        state.iterations += 1;
        let index = state.iterations;
        Some(Iteration {
            index,
            lane: chosen,
            formed_at: Instant::now(),
            work,
        })
    }

    /// Marks an iteration of `size` submissions taken by
    /// [`StreamScheduler::next_iteration`] as completed.
    pub fn finish_iteration(&self, size: usize) {
        let mut state = self.state.lock().expect("scheduler lock poisoned");
        state.in_flight = state
            .in_flight
            .checked_sub(size)
            .expect("finish_iteration without a matching next_iteration");
        let drained = state.queued() == 0 && state.in_flight == 0;
        drop(state);
        if drained {
            self.idle.notify_all();
        }
    }

    /// Blocks until every lane is empty and no iteration is executing.
    pub fn wait_drained(&self) {
        let mut state = self.state.lock().expect("scheduler lock poisoned");
        while !(state.queued() == 0 && state.in_flight == 0) {
            state = self.idle.wait(state).expect("scheduler lock poisoned");
        }
    }

    /// Stops accepting new submissions, wakes every worker, and fails all
    /// still-queued submissions with [`RuntimeError::ShuttingDown`].
    pub fn shutdown(&self) {
        let orphans: Vec<QueuedWork> = {
            let mut state = self.state.lock().expect("scheduler lock poisoned");
            state.shutdown = true;
            state.lanes.iter_mut().flat_map(|l| l.drain(..)).collect()
        };
        for work in orphans {
            work.fulfil(Err(RuntimeError::ShuttingDown));
        }
        self.work.notify_all();
        self.idle.notify_all();
    }
}

/// Builds the profile of one batched launch: `batch` shape-identical requests
/// fused into a single kernel launch, scaling work and traffic linearly while
/// paying the launch overhead once.
pub fn batched_profile(profile: &KernelProfile, batch: usize) -> KernelProfile {
    let n = batch.max(1) as u64;
    KernelProfile {
        name: format!("{}[batch={batch}]", profile.name),
        flops: profile.flops * n,
        hbm_bytes: profile.hbm_bytes * n,
        blocks: profile.blocks * n,
        launches: profile.launches,
        ..profile.clone()
    }
}

/// Simulated latency of one batched launch on `arch`, in microseconds.
pub fn batch_latency_us(arch: &GpuArch, profile: &KernelProfile, batch: usize) -> f64 {
    estimate_latency(arch, &batched_profile(profile, batch)).total_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Request;
    use rf_codegen::Workload;
    use rf_workloads::random_matrix;

    fn softmax_work(id: RequestId, len: usize) -> (QueuedWork, Ticket) {
        QueuedWork::new(
            id,
            Submission::workload(Request::softmax(random_matrix(2, len, id, -1.0, 1.0))),
        )
    }

    fn softmax_work_at(id: RequestId, len: usize, priority: Priority) -> (QueuedWork, Ticket) {
        QueuedWork::new(
            id,
            Submission::workload(Request::softmax(random_matrix(2, len, id, -1.0, 1.0)))
                .with_priority(priority),
        )
    }

    fn sched(max_batch: usize, max_in_flight: usize) -> StreamScheduler {
        StreamScheduler::new(max_batch, max_in_flight, [4, 2, 1])
    }

    const HINT: Duration = Duration::from_millis(1);

    fn ids(iteration: &Iteration) -> Vec<RequestId> {
        iteration.work.iter().map(|w| w.id).collect()
    }

    #[test]
    fn iterations_group_only_shape_compatible_requests() {
        let s = sched(8, 64);
        // Interleave two shapes; batching must regroup them without
        // reordering within a shape.
        for (id, len) in [(0, 16), (1, 32), (2, 16), (3, 32), (4, 16)] {
            let (work, _ticket) = softmax_work(id, len);
            s.enqueue(work, HINT).unwrap();
        }
        let first = s.next_iteration().unwrap();
        assert_eq!(first.index, 1);
        assert!(first.work.iter().all(|w| matches!(
            &w.submission,
            Submission::Workload { request, .. }
                if request.workload == Workload::Softmax { rows: 2, len: 16 }
        )));
        assert_eq!(ids(&first), [0, 2, 4]);
        // Depth counts in-flight *submissions*: 3 executing + 2 still queued.
        assert_eq!(s.depth(), 5);
        s.finish_iteration(first.work.len());
        let second = s.next_iteration().unwrap();
        assert_eq!(ids(&second), [1, 3]);
        s.finish_iteration(second.work.len());
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn requests_join_a_subsequent_iteration_while_a_batch_is_mid_flight() {
        // The continuous-batching property: iteration 1 is taken but NOT
        // finished (mid-flight), other-shaped work is still queued (the
        // stream is nowhere near drained) — and a request that arrives right
        // now is admitted and served by the very next iteration boundary.
        let s = sched(4, 64);
        for id in 0..2 {
            let (work, _t) = softmax_work(id, 16);
            s.enqueue(work, HINT).unwrap();
        }
        let (other_shape, _t2) = softmax_work(10, 32);
        s.enqueue(other_shape, HINT).unwrap();

        let mid_flight = s.next_iteration().unwrap();
        assert_eq!(ids(&mid_flight), [0, 1]);
        // Iteration 1 has NOT finished; the queue still holds id 10. A new
        // request joins the stream anyway:
        let (late, _t3) = softmax_work(11, 32);
        s.enqueue(late, HINT).unwrap();
        assert_eq!(s.depth(), 4, "2 mid-flight + 2 queued");

        // A second worker forms the next iteration while the first is still
        // mid-flight — no drain barrier — and the late request rides in it
        // (same shape as the older id-10 request).
        let second = s.next_iteration().unwrap();
        assert_eq!(second.index, 2);
        assert_eq!(ids(&second), [10, 11], "late arrival joined iteration 2");
        s.finish_iteration(mid_flight.work.len());
        s.finish_iteration(second.work.len());
        assert_eq!(s.depth(), 0);
    }

    #[test]
    fn iterations_carry_lane_and_formation_time() {
        let s = sched(4, 64);
        let (work, _t) = softmax_work_at(1, 16, Priority::Low);
        let submitted_at = work.submitted_at;
        s.enqueue(work, HINT).unwrap();
        let iteration = s.next_iteration().unwrap();
        assert_eq!(iteration.lane, Priority::Low.lane());
        assert!(iteration.formed_at >= submitted_at);
        assert_eq!(iteration.work[0].iterations_at_submit, 0);
        s.finish_iteration(1);
        // Work admitted after the first boundary records the new baseline,
        // so the worker can report iterations waited.
        let (late, _t) = softmax_work(2, 16);
        s.enqueue(late, HINT).unwrap();
        let second = s.next_iteration().unwrap();
        assert_eq!(second.work[0].iterations_at_submit, 1);
        assert_eq!(second.lane, Priority::Normal.lane());
    }

    #[test]
    fn max_batch_bounds_the_iteration() {
        let s = sched(2, 64);
        for id in 0..5 {
            let (work, _ticket) = softmax_work(id, 16);
            s.enqueue(work, HINT).unwrap();
        }
        assert_eq!(s.next_iteration().unwrap().work.len(), 2);
        assert_eq!(s.next_iteration().unwrap().work.len(), 2);
        assert_eq!(s.next_iteration().unwrap().work.len(), 1);
    }

    #[test]
    fn admission_control_sheds_past_the_budget_with_typed_errors() {
        let s = sched(2, 3);
        for id in 0..3 {
            let (work, _ticket) = softmax_work(id, 16);
            s.enqueue(work, HINT).unwrap();
        }
        // Budget exhausted: the 4th submission is shed, typed and hinted.
        let (work, _ticket) = softmax_work(3, 16);
        let err = s.enqueue(work, Duration::from_millis(7)).unwrap_err();
        assert_eq!(err.code(), "overloaded");
        let RuntimeError::Overloaded { retry_hint, source } = &err else {
            panic!("expected Overloaded, got {err:?}");
        };
        assert_eq!(*retry_hint, Duration::from_millis(7));
        assert_eq!((source.in_flight, source.budget), (3, 3));
        // The shed is observable through the source chain.
        let chained = std::error::Error::source(&err).expect("overload carries a source");
        assert!(chained.to_string().contains("3 of 3"));
        // Taking an iteration does not free budget until it finishes…
        let iteration = s.next_iteration().unwrap();
        let (work, _ticket) = softmax_work(4, 16);
        assert!(s.enqueue(work, HINT).is_err(), "mid-flight still counts");
        // …finishing does.
        s.finish_iteration(iteration.work.len());
        let (work, _ticket) = softmax_work(5, 16);
        s.enqueue(work, HINT).unwrap();
    }

    #[test]
    fn a_retry_hint_is_computed_only_for_a_shed_submission() {
        let s = sched(2, 1);
        let (work, _ticket) = softmax_work(0, 16);
        s.enqueue_or_shed(work, |_| unreachable!("admitted: nobody reads a hint"))
            .unwrap();
        // The estimator sees the depth and budget that refused the submission.
        let (work, _ticket) = softmax_work(1, 16);
        let hint = |refused: &OverloadInfo| {
            Duration::from_millis((10 * refused.in_flight + refused.budget) as u64)
        };
        let err = s.enqueue_or_shed(work, hint).unwrap_err();
        let RuntimeError::Overloaded { retry_hint, source } = &err else {
            panic!("expected Overloaded, got {err:?}");
        };
        assert_eq!(*retry_hint, Duration::from_millis(11));
        assert_eq!((source.in_flight, source.budget), (1, 1));
    }

    #[test]
    fn weighted_lanes_prefer_high_priority_but_never_starve_low() {
        // 12 high-priority and 3 low-priority requests of distinct shapes
        // (so nothing batches across lanes). With weights [4, 2, 1] the high
        // lane must be served more often, but every low request must be
        // scheduled before the high backlog is exhausted — the starvation
        // guard — rather than after it.
        let s = StreamScheduler::new(1, 64, [4, 2, 1]);
        for id in 0..12 {
            let (work, _t) = softmax_work_at(id, 16, Priority::High);
            s.enqueue(work, HINT).unwrap();
        }
        for id in 100..103 {
            let (work, _t) = softmax_work_at(id, 32, Priority::Low);
            s.enqueue(work, HINT).unwrap();
        }
        let mut order = Vec::new();
        for _ in 0..15 {
            let iteration = s.next_iteration().unwrap();
            assert_eq!(iteration.work.len(), 1);
            order.push(iteration.work[0].id);
            s.finish_iteration(1);
        }
        // Starvation-freedom: the low lane is served *while* the high lane
        // is still backlogged — every low request rides between highs
        // instead of waiting for the whole high backlog to drain. With
        // weights 4:1 a low must appear at least once per 5 iterations.
        let first_low = order.iter().position(|id| *id >= 100).unwrap();
        let last_high = order.iter().rposition(|id| *id < 12).unwrap();
        assert!(
            first_low < last_high,
            "low lane waited for the high backlog to drain: {order:?}"
        );
        assert!(
            first_low <= 5,
            "low lane starved beyond its weighted share: {order:?}"
        );
        // Preference still holds: the first served request is high-priority
        // and highs dominate the first half.
        assert!(order[0] < 12);
        let highs_early = order[..7].iter().filter(|id| **id < 12).count();
        assert!(highs_early >= 5, "high lane under-served early: {order:?}");
    }

    #[test]
    fn batches_fill_across_lanes_in_priority_order() {
        // One high seed + same-shape work parked in normal and low lanes:
        // the iteration fills from all lanes, high first.
        let s = sched(4, 64);
        let (low, _t1) = softmax_work_at(30, 16, Priority::Low);
        s.enqueue(low, HINT).unwrap();
        let (normal, _t2) = softmax_work_at(20, 16, Priority::Normal);
        s.enqueue(normal, HINT).unwrap();
        let (high, _t3) = softmax_work_at(10, 16, Priority::High);
        s.enqueue(high, HINT).unwrap();
        let iteration = s.next_iteration().unwrap();
        assert_eq!(ids(&iteration), [10, 20, 30]);
    }

    #[test]
    fn graphs_are_singleton_iterations() {
        use std::sync::Arc;
        let graph = Arc::new(rf_graph::builders::moe_block(4, 8, 4));
        let bindings: Vec<(String, rf_workloads::Matrix)> =
            rf_graph::builders::moe_block_inputs(4, 8, 4, 1)
                .into_iter()
                .map(|(n, m)| (n.to_string(), m))
                .collect();
        let s = sched(8, 64);
        let (g, _t1) = QueuedWork::new(0, Submission::graph(graph, bindings));
        s.enqueue(g, HINT).unwrap();
        let (r, _t2) = softmax_work(1, 16);
        s.enqueue(r, HINT).unwrap();
        let first = s.next_iteration().unwrap();
        assert_eq!(first.work.len(), 1, "graphs never batch");
        assert!(matches!(first.work[0].submission, Submission::Graph { .. }));
        let second = s.next_iteration().unwrap();
        assert_eq!(ids(&second), [1]);
    }

    #[test]
    fn shutdown_fails_queued_work_and_stops_workers() {
        let s = sched(4, 64);
        let (work, ticket) = softmax_work(7, 16);
        s.enqueue(work, HINT).unwrap();
        s.shutdown();
        assert_eq!(ticket.wait().unwrap_err(), RuntimeError::ShuttingDown);
        assert!(s.next_iteration().is_none());
        let (work, _ticket) = softmax_work(8, 16);
        assert_eq!(
            s.enqueue(work, HINT).unwrap_err(),
            RuntimeError::ShuttingDown
        );
    }

    #[test]
    fn batched_profile_amortises_the_launch() {
        let arch = GpuArch::a10();
        let profile = KernelProfile {
            flops: 1_000_000,
            hbm_bytes: 1_000_000,
            blocks: 64,
            ..KernelProfile::default()
        };
        let single = batch_latency_us(&arch, &profile, 1);
        let batched = batch_latency_us(&arch, &profile, 8);
        let serial = 8.0 * single;
        assert!(
            batched < serial,
            "one batched launch ({batched} us) must beat eight serial launches ({serial} us)"
        );
        let p = batched_profile(&profile, 8);
        assert_eq!(p.flops, 8_000_000);
        assert_eq!(p.launches, profile.launches);
    }

    #[test]
    #[should_panic(expected = "already taken via try_take")]
    fn waiting_after_try_take_panics_instead_of_hanging() {
        let (work, ticket) = softmax_work(11, 16);
        work.fulfil(Err(RuntimeError::ShuttingDown));
        assert!(ticket.try_take().is_some());
        let _ = ticket.wait();
    }

    #[test]
    fn dropping_unfulfilled_work_fails_its_ticket() {
        // A worker panic unwinds through the iteration Vec, dropping its
        // QueuedWork; waiters must observe an error, not block forever.
        let (work, ticket) = softmax_work(9, 16);
        drop(work);
        assert!(matches!(
            ticket.wait(),
            Err(RuntimeError::ExecutionFailed { workload, .. }) if workload == "softmax_2x16"
        ));
    }

    #[test]
    fn wait_timeout_returns_none_until_delivery_and_some_after() {
        let (work, ticket) = softmax_work(21, 16);
        // Nothing delivered yet: the bounded wait must return, not hang.
        let start = Instant::now();
        assert!(ticket.wait_timeout(Duration::from_millis(30)).is_none());
        assert!(start.elapsed() >= Duration::from_millis(30));
        // The ticket stays live: a later delivery is observed by the
        // unbounded wait whether it lands before or after the wait starts.
        let ready = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                ready.wait();
                work.fulfil(Err(RuntimeError::ShuttingDown));
            });
            ready.wait();
            // Duration::MAX must degrade to an unbounded wait, not panic on
            // deadline overflow.
            let result = ticket
                .wait_timeout(Duration::MAX)
                .expect("delivery arrives well before the timeout");
            assert_eq!(result.unwrap_err(), RuntimeError::ShuttingDown);
        });
    }

    #[test]
    #[should_panic(expected = "already taken via try_take")]
    fn wait_timeout_after_try_take_panics_instead_of_spinning() {
        let (work, ticket) = softmax_work(22, 16);
        work.fulfil(Err(RuntimeError::ShuttingDown));
        assert!(ticket.try_take().is_some());
        let _ = ticket.wait_timeout(Duration::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "already taken via try_take")]
    fn try_take_is_none_then_some_exactly_once() {
        let (work, ticket) = softmax_work(23, 16);
        assert!(ticket.try_take().is_none());
        assert!(ticket.try_take().is_none());
        work.fulfil(Err(RuntimeError::ShuttingDown));
        let taken = ticket.try_take().expect("delivered");
        assert_eq!(taken.unwrap_err(), RuntimeError::ShuttingDown);
        assert!(ticket.try_take().is_none());
        assert!(ticket.try_take().is_none());
        let _ = ticket.wait();
    }

    #[test]
    fn tickets_deliver_results_once() {
        let (work, ticket) = softmax_work(3, 8);
        assert!(ticket.try_take().is_none());
        let Submission::Workload { request, .. } = &work.submission else {
            unreachable!()
        };
        let output = crate::request::execute_reference(&request.workload, &request.input);
        let result = Response {
            id: 3,
            workload: request.workload.name(),
            output,
            simulated_us: 1.0,
            batch_size: 1,
            cache_hit: false,
            iteration: 1,
            priority: Priority::Normal,
            device: 0,
            graph: None,
            timing: crate::submit::RequestTiming::default(),
        };
        work.fulfil(Ok(result.clone()));
        assert_eq!(ticket.wait().unwrap(), result);
    }
}
