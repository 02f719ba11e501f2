//! The serving queue's vocabulary: the [`QueuePolicy`] every
//! [`ReplicaPool`] coalesces and pushes back under, the [`BatchTicket`] a
//! submission returns, and the [`QueueReply`] it resolves with. The same
//! ticket, at the pipeline's reply type, is the
//! [`PipelineTicket`](crate::pipeline::PipelineTicket).
//!
//! The paper's macro is self-synchronous and completion-driven — a token
//! is done when the DLC ripple settles, not when a clock says so — which
//! makes variable-latency, many-client serving the natural software
//! analogue. The front door is a [`ReplicaPool`]: any number of client
//! threads call [`ReplicaPool::submit`] and get back a [`BatchTicket`]
//! immediately; replica threads coalesce pending submissions into
//! micro-batches under a [`QueuePolicy`], run them on the backends they
//! own, and resolve each ticket with that request's own slice of the
//! results plus its measured queue-wait and service latency. A
//! single-backend queue is simply a one-replica pool, built like any
//! other through [`SessionBuilder::into_pool`](crate::session::SessionBuilder::into_pool)
//! or [`ReplicaPool::from_recipes`].
//!
//! Design points, in the order they matter:
//!
//! * **No executor.** Tickets are condvar-backed wait/poll handles on
//!   `std` threads — the workspace has no async runtime and the vendored
//!   dependency set stays closed.
//! * **Bounded on two axes.** The pool holds at most
//!   [`QueuePolicy::max_depth`] unresolved requests and at most
//!   [`QueuePolicy::max_pending_tokens`] queued tokens; beyond either,
//!   [`submit`](ReplicaPool::submit) answers with typed
//!   [`BackendError::QueueFull`] backpressure (naming the bound hit via
//!   [`QueueLimit`](crate::error::QueueLimit)) instead of buffering
//!   without limit.
//! * **Coalescing.** Whole requests are packed into a micro-batch of up
//!   to [`QueuePolicy::max_batch`] tokens, lingering up to
//!   [`QueuePolicy::max_linger`] past the oldest submission to let a
//!   fuller batch form; a micro-batch never splits a request.
//! * **Clean shutdown.** [`close`](ReplicaPool::close) stops intake while
//!   the replicas drain what was already accepted;
//!   [`shutdown`](ReplicaPool::shutdown) (and `Drop`) additionally joins
//!   them. Accepted tickets always resolve — no ticket is ever leaked.
//!
//! ```
//! use maddpipe_runtime::prelude::*;
//! use maddpipe_core::prelude::*;
//!
//! let cfg = MacroConfig::new(2, 2);
//! let program = MacroProgram::random(cfg.ndec, cfg.ns, 42);
//! let queue = Session::builder(cfg)
//!     .program(program.clone())
//!     .into_pool(ServePolicy::default().with_queue(QueuePolicy::default()))
//!     .unwrap();
//! std::thread::scope(|s| {
//!     for client in 0..4u64 {
//!         let queue = &queue;
//!         let program = &program;
//!         s.spawn(move || {
//!             let batch = TokenBatch::random(2, 8, client);
//!             let ticket = queue.submit(batch.clone()).expect("accepted");
//!             let reply = ticket.wait().expect("served");
//!             assert_eq!(
//!                 reply.result.tokens.get(0).unwrap().outputs,
//!                 program.reference_output(&batch.tokens()[0]),
//!             );
//!         });
//!     }
//! });
//! let stats = queue.shutdown();
//! assert_eq!(stats.tokens(), 32);
//! assert!(stats.p50_queue_wait().is_some());
//! ```

use crate::batch::BatchResult;
use crate::error::BackendError;
use crate::pipeline::{PipelineReply, TicketState};
#[cfg(doc)]
use crate::pool::ReplicaPool;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How a [`ReplicaPool`] coalesces submissions into micro-batches and when
/// it pushes back on clients.
///
/// ```
/// use maddpipe_runtime::queue::QueuePolicy;
/// use std::time::Duration;
///
/// let policy = QueuePolicy::default()
///     .with_max_batch(128)
///     .with_max_linger(Duration::from_micros(500))
///     .with_max_depth(256)
///     .with_max_pending_tokens(4096);
/// assert_eq!(policy.max_batch, 128);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Most tokens a replica packs into one micro-batch. Whole
    /// requests are never split: a single request larger than this runs
    /// alone as an oversized micro-batch.
    pub max_batch: usize,
    /// How long past the *oldest* pending submission a replica
    /// lingers for more requests before dispatching a partial
    /// micro-batch. `Duration::ZERO` dispatches immediately.
    ///
    /// A partial micro-batch never leaves before its linger has passed,
    /// and leaves within tens of µs after it: a replica's timed wait
    /// ends 60 µs short of the deadline and the replica yields its CPU
    /// between rescans from there on, because a timed wait on Linux
    /// returns about 57 µs late (50 µs of default timer slack plus the
    /// wake-up). A linger of milliseconds leaves later than one of
    /// microseconds, since a timer's lateness grows with the sleep.
    pub max_linger: Duration,
    /// Most unresolved requests (queued or executing) the queue holds;
    /// submissions beyond it are rejected with
    /// [`BackendError::QueueFull`].
    pub max_depth: usize,
    /// Most *queued* tokens (batch payload awaiting dispatch) the queue
    /// holds — the memory bound `max_depth`'s request count cannot give
    /// when clients submit huge batches. Submissions that would exceed
    /// it are rejected with [`BackendError::QueueFull`], except into an
    /// empty waiting room (mirroring the oversized `max_batch` rule, so
    /// a large request can never be starved).
    pub max_pending_tokens: usize,
}

impl Default for QueuePolicy {
    /// 64-token micro-batches, a 200 µs linger, room for 1024
    /// unresolved requests and 1 Mi queued tokens.
    fn default() -> QueuePolicy {
        QueuePolicy {
            max_batch: 64,
            max_linger: Duration::from_micros(200),
            max_depth: 1024,
            max_pending_tokens: 1 << 20,
        }
    }
}

impl QueuePolicy {
    /// Sets the micro-batch token bound (clamped to at least 1).
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> QueuePolicy {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the linger deadline for partial micro-batches: never
    /// dispatched before it, within tens of µs after it (see
    /// [`max_linger`](QueuePolicy::max_linger)).
    #[must_use]
    pub fn with_max_linger(mut self, max_linger: Duration) -> QueuePolicy {
        self.max_linger = max_linger;
        self
    }

    /// Sets the unresolved-request bound (clamped to at least 1).
    #[must_use]
    pub fn with_max_depth(mut self, max_depth: usize) -> QueuePolicy {
        self.max_depth = max_depth.max(1);
        self
    }

    /// Sets the queued-token bound (clamped to at least 1).
    #[must_use]
    pub fn with_max_pending_tokens(mut self, max_pending_tokens: usize) -> QueuePolicy {
        self.max_pending_tokens = max_pending_tokens.max(1);
        self
    }
}

/// What a resolved [`BatchTicket`] carries back to its submitter.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueReply {
    /// This request's own results: one observation per submitted token,
    /// in submission order — sliced out of the micro-batch it rode in.
    /// `makespan` is the whole micro-batch's (the backend ran the tokens
    /// together); `energy` is the sum over this request's tokens when
    /// every one was measured.
    pub result: BatchResult,
    /// Host time from submit to a replica picking the request up —
    /// the queueing delay the client paid.
    pub queue_wait: Duration,
    /// Host time the backend spent serving the micro-batch this request
    /// rode in.
    pub service: Duration,
    /// Total tokens in that micro-batch (≥ this request's own count) —
    /// how much coalescing the policy achieved.
    pub coalesced_tokens: usize,
    /// Which replica served the micro-batch — always 0 behind a
    /// one-replica pool.
    pub replica: usize,
}

/// What a cell runs in place of storing its resolution: a pipeline
/// hop's next step.
type Completion<T> = Box<dyn FnOnce(Result<T, BackendError>) + Send>;

struct CellState<T> {
    /// Where the request is; [`TicketState::Done`] once resolved.
    at: TicketState,
    /// The resolution, until a claim takes it.
    value: Option<Result<T, BackendError>>,
    /// Takes the resolution instead of `value`; `None` for a ticket.
    then: Option<Completion<T>>,
    /// Claims parked on the cell's condvar: a resolution signals only
    /// when one is.
    waiters: u32,
}

/// The shared cell a ticket and the serving threads communicate through.
pub(crate) struct TicketCell<T> {
    state: Mutex<CellState<T>>,
    done: Condvar,
}

impl<T> TicketCell<T> {
    /// A pending cell, queued at stage 0.
    pub(crate) fn new() -> Arc<TicketCell<T>> {
        TicketCell::pending(None)
    }

    /// A pending cell that no ticket waits on: its resolution goes to
    /// `then`, which runs on the resolving thread, outside every lock.
    pub(crate) fn with_completion(
        then: impl FnOnce(Result<T, BackendError>) + Send + 'static,
    ) -> Arc<TicketCell<T>> {
        TicketCell::pending(Some(Box::new(then)))
    }

    fn pending(then: Option<Completion<T>>) -> Arc<TicketCell<T>> {
        Arc::new(TicketCell {
            state: Mutex::new(CellState {
                at: TicketState::Queued { stage: 0 },
                value: None,
                then,
                waiters: 0,
            }),
            done: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, CellState<T>> {
        // Poison-robust: a resolution must reach the submitter even
        // while a serving thread is unwinding.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Updates the position probe; a no-op once resolved.
    pub(crate) fn set_position(&self, at: TicketState) {
        let mut state = self.lock();
        if state.at != TicketState::Done {
            state.at = at;
        }
    }

    /// Resolves the ticket if still pending (the first resolution wins,
    /// later ones are dropped). `on_win` runs only for the winning
    /// resolution, under the cell lock, *before* any waiter can observe
    /// it — so bookkeeping tied to it (a pipeline's in-flight count) is
    /// already settled when a wait returns. A cell with a completion
    /// runs it with the value once the lock is released.
    pub(crate) fn resolve(&self, value: Result<T, BackendError>, on_win: impl FnOnce()) {
        drop(self.store(value, on_win));
    }

    /// [`resolve`](TicketCell::resolve) in two halves: stores the
    /// resolution now and returns the wake it owes, which signals a
    /// parked claim or runs the completion when dropped. A caller
    /// resolving several cells stores them all before it drops the
    /// first wake, so no woken waiter preempts it halfway.
    pub(crate) fn store(
        &self,
        value: Result<T, BackendError>,
        on_win: impl FnOnce(),
    ) -> Wake<'_, T> {
        let mut state = self.lock();
        if state.at == TicketState::Done {
            return Wake {
                parked: None,
                then: None,
            };
        }
        state.at = TicketState::Done;
        on_win();
        match state.then.take() {
            Some(then) => Wake {
                parked: None,
                then: Some((then, value)),
            },
            None => {
                state.value = Some(value);
                Wake {
                    parked: (state.waiters > 0).then_some(&self.done),
                    then: None,
                }
            }
        }
    }
}

/// What a stored resolution still owes: a signal to the claim parked on
/// its cell, or the cell's completion to run with the value. Dropping it
/// pays, so a resolution is delivered even when the thread that stored
/// it unwinds before it wakes anyone.
#[must_use = "dropping the wake delivers the resolution"]
pub(crate) struct Wake<'a, T> {
    parked: Option<&'a Condvar>,
    then: Option<(Completion<T>, Result<T, BackendError>)>,
}

impl<T> Drop for Wake<'_, T> {
    fn drop(&mut self) {
        if let Some(done) = self.parked {
            done.notify_all();
        }
        if let Some((then, value)) = self.then.take() {
            then(value);
        }
    }
}

/// A future-like handle to one submitted request: poll it or block on it
/// from the submitting thread; the serving threads resolve it exactly
/// once, with a `T` — a [`QueueReply`] for pool submissions, a
/// [`PipelineReply`] for [`PipelineTicket`](crate::pipeline::PipelineTicket)s.
#[must_use = "a submission resolves only through wait()/poll(); dropping the ticket discards the result"]
pub struct BatchTicket<T = QueueReply> {
    cell: Arc<TicketCell<T>>,
}

impl<T> BatchTicket<T> {
    /// Wraps a freshly armed cell (the submit paths).
    pub(crate) fn from_cell(cell: Arc<TicketCell<T>>) -> BatchTicket<T> {
        BatchTicket { cell }
    }

    /// Whether the request has been resolved (successfully or not) —
    /// `wait` will not block once this returns `true`.
    pub fn is_ready(&self) -> bool {
        self.cell.lock().at == TicketState::Done
    }

    /// Takes the resolution, blocking until `deadline` (forever when
    /// `None`); `None` when the deadline passes first.
    fn claim(&self, deadline: Option<Instant>) -> Option<Result<T, BackendError>> {
        let mut state = self.cell.lock();
        loop {
            if let Some(value) = state.value.take() {
                return Some(value);
            }
            let left = match deadline {
                None => None,
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    Some(left)
                }
            };
            let done = &self.cell.done;
            state.waiters += 1;
            state = match left {
                None => done.wait(state).unwrap_or_else(|p| p.into_inner()),
                Some(left) => {
                    done.wait_timeout(state, left)
                        .unwrap_or_else(|p| p.into_inner())
                        .0
                }
            };
            state.waiters -= 1;
        }
    }

    /// Non-blocking claim: the resolution if the request is done, the
    /// ticket itself (to try again later) if it is still in flight.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` while the request is unresolved.
    pub fn poll(self) -> Result<Result<T, BackendError>, BatchTicket<T>> {
        self.claim(Some(Instant::now())).ok_or(self)
    }

    /// Blocks until the request resolves.
    ///
    /// # Errors
    ///
    /// Returns the typed [`BackendError`] the request was resolved with:
    /// the backend's error for the micro-batch it rode in, a
    /// [`BackendError::Stage`] naming the pipeline stage that failed it,
    /// or [`BackendError::QueueClosed`] when the deployment shut down
    /// before the request could be served.
    pub fn wait(self) -> Result<T, BackendError> {
        self.claim(None)
            .expect("a wait without a deadline returns only once resolved")
    }

    /// [`wait`](BatchTicket::wait) with a deadline: the resolution if it
    /// arrives within `timeout`, otherwise the ticket back. A `timeout`
    /// too large to represent as a deadline (e.g. [`Duration::MAX`])
    /// degrades to an unbounded wait.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when the timeout elapses first.
    pub fn wait_timeout(
        self,
        timeout: Duration,
    ) -> Result<Result<T, BackendError>, BatchTicket<T>> {
        self.claim(Instant::now().checked_add(timeout)).ok_or(self)
    }
}

impl BatchTicket<PipelineReply> {
    /// Where the request currently is — queued at / running in stage
    /// `k`, or done. The probe a timed-out wait uses to report "blocked
    /// at stage k".
    pub fn state(&self) -> TicketState {
        self.cell.lock().at
    }
}

impl<T> core::fmt::Debug for BatchTicket<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BatchTicket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;

    #[test]
    fn a_resolution_signals_only_a_parked_claim() {
        let cell = TicketCell::<u32>::new();
        let wake = cell.store(Ok(1), || ());
        assert!(wake.parked.is_none(), "nobody waits yet");
        drop(wake);
        let ticket = BatchTicket::from_cell(cell);
        assert!(matches!(ticket.wait(), Ok(1)), "a later claim finds it");
    }

    /// The wake a stored resolution owes reaches the parked claim even
    /// when the storing thread unwinds before it wakes anyone; a lost
    /// wake would leave the claim asleep until its deadline.
    #[test]
    fn a_stored_resolution_wakes_its_parked_claim_through_an_unwind() {
        let cell = TicketCell::<u32>::new();
        let ticket = BatchTicket::from_cell(Arc::clone(&cell));
        let patience = Duration::from_secs(30);
        let claim = thread::spawn(move || {
            let t0 = Instant::now();
            (ticket.wait_timeout(patience).ok(), t0.elapsed())
        });
        while cell.lock().waiters == 0 {
            thread::yield_now();
        }
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let _wake = cell.store(Ok(7), || ());
            panic!("the storing thread unwinds before it wakes anyone");
        }));
        assert!(unwound.is_err());
        let (value, waited) = claim.join().expect("the claim returns");
        assert!(matches!(value, Some(Ok(7))), "{value:?}");
        assert!(waited < patience, "woken, not timed out");
    }
}
