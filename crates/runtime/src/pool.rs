//! Replica-pool serving: N backend replicas behind one scheduler.
//!
//! One dispatcher feeding one backend makes host-side queueing the
//! bottleneck long before the macro is. A [`ReplicaPool`] serves *N*
//! replicas instead (a single-backend queue is the one-replica case),
//! each built on its own thread from a [`ReplicaFactory`] recipe (so
//! non-`Send` netlists replicate exactly like they serve), all pulling
//! from one shared submission queue. This is the data-parallel axis,
//! complementary to the
//! [`ShardedBackend`](crate::sharded::ShardedBackend)'s model-parallel
//! output-channel sharding: shards split one batch across macros,
//! replicas spread *different* micro-batches across whole macros. Each
//! replica is a thread, so replicas are also how a deployment uses host
//! cores; a sharded backend runs its shards on its replica's thread.
//!
//! The scheduler earns its keep beyond FIFO:
//!
//! * **Data-parallel spreading.** Every idle replica waits on the same
//!   queue; whichever wakes first takes the next micro-batch, so
//!   independent micro-batches run concurrently on different replicas.
//! * **Per-client fairness.** Under [`Fairness::RoundRobin`], requests
//!   are tagged with a submitter key
//!   ([`SubmitOptions::with_client`]) and micro-batches are filled by
//!   cycling clients — one hot client submitting a deep backlog cannot
//!   starve the others. [`Fairness::Fifo`] preserves strict arrival
//!   order (the single-queue behaviour).
//! * **Deadline-aware batching.** Each request's dispatch deadline is
//!   the smaller of the policy's [`QueuePolicy::max_linger`] and its
//!   own [`SubmitOptions::with_deadline`] latency target; a replica
//!   ships a partial micro-batch as soon as the earliest pending
//!   deadline passes instead of lingering for a fuller batch.
//! * **Typed backpressure on two axes.**
//!   [`QueuePolicy::max_depth`] bounds unresolved *requests* and
//!   [`QueuePolicy::max_pending_tokens`] bounds queued *tokens*, each
//!   rejecting with its own [`QueueLimit`] inside
//!   [`BackendError::QueueFull`].
//! * **Supervision and recovery.** Under the pool's
//!   [`RecoveryPolicy`], a micro-batch that fails transiently
//!   ([`BackendError::is_transient`]) is re-queued riders-intact and
//!   held back by an exponential backoff — per-client order preserved,
//!   no replica thread asleep — while a replica that panics is rebuilt
//!   in place from its recipe up to a restart budget. A replica that
//!   crashes through its budget is *quarantined*: the pool keeps
//!   serving at reduced capacity ([`PoolHealth`] reports the
//!   degradation) and tickets only resolve
//!   [`BackendError::QueueClosed`] once zero replicas remain. This is
//!   the serving stack's only retry loop: a
//!   [`ShardedBackend`](crate::sharded::ShardedBackend) surfaces a
//!   transient shard failure once, as a transient
//!   [`BackendError::Shard`], and the pool re-runs the micro-batch.
//!
//! The waiting-room discipline mirrors the single queue: whole requests
//! are never split across micro-batches or replicas, and tickets always
//! resolve (results, a typed backend error after the retry budget, or
//! [`BackendError::QueueClosed`] if the last replica dies first).
//!
//! ```
//! use maddpipe_runtime::prelude::*;
//! use maddpipe_core::prelude::*;
//!
//! let cfg = MacroConfig::new(2, 2);
//! let program = MacroProgram::random(cfg.ndec, cfg.ns, 42);
//! let pool = Session::builder(cfg)
//!     .program(program.clone())
//!     .into_pool(ServePolicy::default().with_replicas(2))
//!     .unwrap();
//! std::thread::scope(|s| {
//!     for client in 0..4u64 {
//!         let pool = &pool;
//!         let program = &program;
//!         s.spawn(move || {
//!             let batch = TokenBatch::random(2, 8, client);
//!             let opts = SubmitOptions::default().with_client(client);
//!             let reply = pool.submit_with(batch.clone(), opts).unwrap();
//!             let reply = reply.wait().expect("served");
//!             assert!(reply.replica < 2);
//!             assert_eq!(
//!                 reply.result.tokens.get(0).unwrap().outputs,
//!                 program.reference_output(&batch.tokens()[0]),
//!             );
//!         });
//!     }
//! });
//! assert_eq!(pool.health().healthy, 2);
//! let stats = pool.shutdown();
//! assert_eq!(stats.tokens(), 32);
//! assert_eq!(stats.replica_dispatches().len(), 2);
//! ```

use crate::backend::{MacroBackend, ReplicaFactory};
use crate::batch::{fold_all, BatchResult, Observations, TokenBatch};
use crate::error::{BackendError, QueueLimit};
use crate::queue::{BatchTicket, QueuePolicy, QueueReply, TicketCell};
use crate::session::SessionStats;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`ReplicaPool`] picks which pending requests ride the next
/// micro-batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fairness {
    /// Strict arrival order: requests are packed front-to-back, never
    /// reordered. (A request backing off after a transient failure
    /// holds only its own client's later requests; other clients keep
    /// flowing.)
    #[default]
    Fifo,
    /// Round-robin across submitter keys: micro-batches are filled by
    /// cycling clients (each contributing its oldest pending request
    /// per turn), resuming after the last client served — a hot client
    /// with a deep backlog cannot starve the rest. Requests of one
    /// client still serve in that client's submission order.
    RoundRobin,
}

/// How a [`ReplicaPool`] reacts to transient failures and replica
/// crashes — the supervision contract of the serving stack.
///
/// A micro-batch whose backend call fails with a transient error
/// ([`BackendError::is_transient`]) or a panic is taken apart into its
/// riders, each re-queued at the front of the waiting room (per-client
/// order intact) and retried after an exponential backoff — on
/// whichever replica frees up first. A rider that exhausts
/// `max_retries` resolves its ticket with the typed error. A replica
/// whose backend panicked is rebuilt in place from its
/// [`ReplicaFactory`] recipe up to `respawn` times; past that budget it
/// is quarantined and the pool serves on at reduced capacity. Either way
/// the [`PoolHealth`] counters move before the crashed micro-batch's
/// riders are re-queued, so a reply resolved after the crash always
/// finds the respawn or the quarantine counted. This is the serving
/// stack's one retry loop: nothing below the pool retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// How many times a transiently-failed rider is re-queued before
    /// its ticket resolves with the typed error. 0 fails fast.
    pub max_retries: u32,
    /// Base hold-off before a re-queued rider becomes dispatchable
    /// again; doubles with every attempt (exponential backoff).
    pub backoff: Duration,
    /// How many times each replica may be rebuilt from its recipe after
    /// a panic before it is quarantined. 0 quarantines on the first
    /// crash.
    pub respawn: u32,
}

impl Default for RecoveryPolicy {
    /// Two retries with a 200 µs base backoff and one respawn per
    /// replica — recomputation is cheap for a pure LUT program, so a
    /// little patience beats failing a whole coalesced micro-batch.
    fn default() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 2,
            backoff: Duration::from_micros(200),
            respawn: 1,
        }
    }
}

impl RecoveryPolicy {
    /// No retries, no respawns: every transient failure surfaces
    /// immediately and any replica panic quarantines — the pre-recovery
    /// behaviour, useful for tests that pin first-failure semantics.
    pub fn none() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 0,
            backoff: Duration::ZERO,
            respawn: 0,
        }
    }

    /// Sets the per-rider retry budget.
    #[must_use]
    pub fn with_max_retries(mut self, max_retries: u32) -> RecoveryPolicy {
        self.max_retries = max_retries;
        self
    }

    /// Sets the base backoff (doubled per attempt).
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> RecoveryPolicy {
        self.backoff = backoff;
        self
    }

    /// Sets the per-replica respawn budget.
    #[must_use]
    pub fn with_respawn(mut self, respawn: u32) -> RecoveryPolicy {
        self.respawn = respawn;
        self
    }

    /// The hold-off before a rider that has already failed `attempts`
    /// times may dispatch again: `backoff * 2^attempts`, saturating.
    pub(crate) fn backoff_for(&self, attempts: u32) -> Duration {
        self.backoff.saturating_mul(1u32 << attempts.min(16))
    }
}

/// A [`ReplicaPool`]'s degradation snapshot, surfaced through
/// [`ReplicaPool::health`] and in [`SessionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolHealth {
    /// Replicas currently alive and serving.
    pub healthy: usize,
    /// Replicas retired after crashing through their respawn budget.
    pub quarantined: usize,
    /// Successful in-place replica respawns so far.
    pub restarts: u64,
}

/// The full serving policy of a [`ReplicaPool`]: how many replicas,
/// the coalescing/backpressure bounds they share, the fairness
/// discipline that fills micro-batches, and the recovery contract for
/// transient failures and crashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePolicy {
    /// Backend replicas to build, one per scheduler thread (clamped to
    /// at least 1).
    pub replicas: usize,
    /// The coalescing and backpressure bounds, shared by every replica.
    pub queue: QueuePolicy,
    /// How micro-batches are filled from the pending queue.
    pub fairness: Fairness,
    /// Retry, backoff and respawn behaviour under faults.
    pub recovery: RecoveryPolicy,
}

impl Default for ServePolicy {
    /// One replica, the default [`QueuePolicy`], FIFO fairness and the
    /// default [`RecoveryPolicy`] — a plain single-backend queue, plus
    /// retries.
    fn default() -> ServePolicy {
        ServePolicy {
            replicas: 1,
            queue: QueuePolicy::default(),
            fairness: Fairness::Fifo,
            recovery: RecoveryPolicy::default(),
        }
    }
}

impl ServePolicy {
    /// Sets the replica count (clamped to at least 1).
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> ServePolicy {
        self.replicas = replicas.max(1);
        self
    }

    /// Sets the coalescing/backpressure policy shared by the replicas.
    #[must_use]
    pub fn with_queue(mut self, queue: QueuePolicy) -> ServePolicy {
        self.queue = queue;
        self
    }

    /// Sets the micro-batch fill discipline.
    #[must_use]
    pub fn with_fairness(mut self, fairness: Fairness) -> ServePolicy {
        self.fairness = fairness;
        self
    }

    /// Sets the retry/backoff/respawn behaviour.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> ServePolicy {
        self.recovery = recovery;
        self
    }

    /// The policy with every bound clamped into its valid range.
    pub(crate) fn normalised(mut self) -> ServePolicy {
        self.replicas = self.replicas.max(1);
        self.queue.max_batch = self.queue.max_batch.max(1);
        self.queue.max_depth = self.queue.max_depth.max(1);
        self.queue.max_pending_tokens = self.queue.max_pending_tokens.max(1);
        self
    }
}

/// Per-submission scheduling hints for
/// [`ReplicaPool::submit_with`]: which client the request belongs to
/// (for [`Fairness::RoundRobin`]) and an optional latency target that
/// tightens the linger deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SubmitOptions {
    /// Submitter key round-robin fairness groups by. Defaults to 0, so
    /// callers that never set it all share one fairness bucket —
    /// exactly FIFO.
    pub client: u64,
    /// Optional latency target: the pool will not linger past
    /// `min(deadline, max_linger)` after submission before dispatching
    /// this request (in a partial micro-batch if need be). It is a
    /// scheduling hint, not an admission-control guarantee — a saturated
    /// backend can still serve late.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Tags the request with a submitter key for round-robin fairness.
    #[must_use]
    pub fn with_client(mut self, client: u64) -> SubmitOptions {
        self.client = client;
        self
    }

    /// Sets the latency target that tightens this request's linger
    /// deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }
}

/// One accepted submission waiting for a replica.
struct PendingRequest {
    batch: TokenBatch,
    ticket: Arc<TicketCell<QueueReply>>,
    submitted: Instant,
    /// Fairness key ([`SubmitOptions::client`]).
    client: u64,
    /// When a replica must stop lingering and dispatch this request —
    /// `submitted + min(max_linger, deadline)`. `None` when that
    /// instant is unrepresentable (e.g. `max_linger == Duration::MAX`,
    /// "wait until the batch fills").
    dispatch_by: Option<Instant>,
    /// Failed attempts so far; compared against
    /// [`RecoveryPolicy::max_retries`] when the next one fails.
    attempts: u32,
    /// Until when this re-queued rider is held back (exponential
    /// backoff). `None` for fresh submissions: dispatch any time.
    retry_at: Option<Instant>,
}

/// The replica/submitter shared state.
struct PoolState {
    pending: VecDeque<PendingRequest>,
    /// Tokens across `pending`, maintained on push/pop so admission and
    /// batch-full checks are O(1) under the lock.
    pending_tokens: usize,
    /// Requests accepted but not yet resolved — queued *or* executing.
    /// What [`QueuePolicy::max_depth`] bounds.
    outstanding: usize,
    /// Deepest `outstanding` seen at submit time; it only grows, and
    /// [`ReplicaPool::stats`] folds it into every snapshot.
    max_depth_seen: u64,
    /// `false` once the pool stops accepting submissions.
    open: bool,
    /// Replica threads still in their serve loop (healthy capacity).
    /// Hits 0 only when every replica exited — drained out after
    /// `close()`, or quarantined.
    live: usize,
    /// Replicas retired after crashing through their respawn budget.
    quarantined: usize,
    /// Successful in-place replica respawns.
    restarts: u64,
    /// Client served last by round-robin coalescing; the next
    /// micro-batch resumes the cycle after it.
    rr_last: Option<u64>,
    /// Replica wait-loop iterations — a scheduling diagnostic that
    /// stays flat while the pool idles (the no-busy-spin invariant,
    /// pinned by a unit test for zero-linger policies).
    wakeups: u64,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled on every submission, resolution, re-queue and close.
    work: Condvar,
    stats: Mutex<SessionStats>,
    /// When the pool opened — the denominator of per-replica
    /// utilisation.
    started: Instant,
}

impl PoolShared {
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        // A poisoned lock means a replica panicked mid-update; the state
        // is still structurally sound (tickets resolve idempotently) and
        // refusing to look at it would leak every outstanding ticket.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl PoolState {
    /// The degradation snapshot of a pool of `replicas` replicas.
    fn health(&self, replicas: usize) -> PoolHealth {
        PoolHealth {
            healthy: self.live.min(replicas),
            quarantined: self.quarantined,
            restarts: self.restarts,
        }
    }
}

/// A pool of backend replicas serving one shared submission queue.
///
/// Submissions are accepted from any thread through `&self`; each
/// replica thread owns one backend (built on that thread from its
/// [`ReplicaFactory`] recipe) and pulls micro-batches coalesced under the
/// [`ServePolicy`]. See the [module docs](crate::pool) for the
/// scheduling contract and an end-to-end example.
pub struct ReplicaPool {
    shared: Arc<PoolShared>,
    policy: ServePolicy,
    ns: usize,
    replicas: Mutex<Vec<JoinHandle<()>>>,
}

impl ReplicaPool {
    /// Spawns one replica thread per recipe, builds each backend *on*
    /// its thread (so non-`Send` backends replicate like any other),
    /// and opens the pool. `policy.replicas` is overridden by
    /// `recipes.len()` — the recipes are the ground truth. `ns` is the
    /// pipeline-stage count submissions are checked against at submit
    /// time. Every replica keeps its recipe, so one whose backend
    /// panics is rebuilt in place up to the [`RecoveryPolicy::respawn`]
    /// budget (`with_respawn(0)` quarantines on the first crash).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::QueueUnavailable`] for an empty recipe
    /// list, the first recipe's own [`BackendError`] when a backend
    /// fails to construct (the already-built replicas are torn down),
    /// and [`BackendError::QueueClosed`] when a replica thread dies
    /// before reporting readiness.
    pub fn from_recipes(
        policy: ServePolicy,
        ns: usize,
        recipes: Vec<ReplicaFactory>,
    ) -> Result<ReplicaPool, BackendError> {
        if recipes.is_empty() {
            return Err(BackendError::QueueUnavailable {
                reason: "a replica pool needs at least one backend recipe".into(),
            });
        }
        let policy = ServePolicy {
            replicas: recipes.len(),
            ..policy
        }
        .normalised();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                pending: VecDeque::new(),
                pending_tokens: 0,
                outstanding: 0,
                max_depth_seen: 0,
                open: true,
                live: recipes.len(),
                quarantined: 0,
                restarts: 0,
                rr_last: None,
                wakeups: 0,
            }),
            work: Condvar::new(),
            stats: Mutex::new(SessionStats::default()),
            started: Instant::now(),
        });
        let mut replicas = Vec::with_capacity(recipes.len());
        let mut readiness = Vec::with_capacity(recipes.len());
        for (index, recipe) in recipes.into_iter().enumerate() {
            let (ready_tx, ready_rx) = mpsc::channel::<Result<(), BackendError>>();
            let shared = Arc::clone(&shared);
            let policy = policy.clone();
            let handle = std::thread::Builder::new()
                .name(format!("maddpipe-replica-{index}"))
                .spawn(move || {
                    let backend = match recipe() {
                        Ok(backend) => {
                            let _ = ready_tx.send(Ok(()));
                            backend
                        }
                        Err(e) => {
                            let _ = ready_tx.send(Err(e));
                            // Never entered the serve loop: this thread
                            // was healthy capacity until now.
                            shared.lock_state().live -= 1;
                            return;
                        }
                    };
                    replica_loop(&shared, &policy, index, backend, &recipe);
                })
                .expect("the host can spawn a replica thread");
            replicas.push(handle);
            readiness.push(ready_rx);
        }
        let mut failure = None;
        for ready_rx in readiness {
            let outcome = match ready_rx.recv() {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e),
                Err(_) => Some(BackendError::QueueClosed),
            };
            if failure.is_none() {
                failure = outcome;
            }
        }
        if let Some(error) = failure {
            // Tear the pool down: replicas that did come up drain out of
            // their loops once the queue is closed and empty.
            shared.lock_state().open = false;
            shared.work.notify_all();
            for handle in replicas {
                let _ = handle.join();
            }
            return Err(error);
        }
        Ok(ReplicaPool {
            shared,
            policy,
            ns,
            replicas: Mutex::new(replicas),
        })
    }

    /// [`submit_with`](ReplicaPool::submit_with) under default options
    /// (client key 0, no latency target).
    ///
    /// # Errors
    ///
    /// As [`submit_with`](ReplicaPool::submit_with).
    pub fn submit(&self, batch: TokenBatch) -> Result<BatchTicket, BackendError> {
        self.submit_with(batch, SubmitOptions::default())
    }

    /// Submits one request with scheduling hints; returns immediately
    /// with a ticket the caller can poll or block on.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ShapeMismatch`] for tokens that do not
    /// match the backend's stage count (checked here, so a bad request
    /// cannot fail a coalesced micro-batch for everyone else);
    /// [`BackendError::QueueFull`] with [`QueueLimit::Requests`] when
    /// [`QueuePolicy::max_depth`] requests are already unresolved, or
    /// with [`QueueLimit::Tokens`] when queued tokens would exceed
    /// [`QueuePolicy::max_pending_tokens`] (a request submitted to an
    /// *empty* waiting room is always admitted, mirroring the oversized
    /// `max_batch` rule, so a large batch can never be starved; a batch
    /// that *exactly* fills the remaining token room admits); and
    /// [`BackendError::QueueClosed`] after
    /// [`close`](ReplicaPool::close)/[`shutdown`](ReplicaPool::shutdown).
    pub fn submit_with(
        &self,
        batch: TokenBatch,
        opts: SubmitOptions,
    ) -> Result<BatchTicket, BackendError> {
        let ticket = TicketCell::new();
        self.admit(batch, opts, Arc::clone(&ticket), false)?;
        Ok(BatchTicket::from_cell(ticket))
    }

    /// A pipeline hop's submission: `ticket` carries the hop's
    /// completion. While the pool is full it blocks instead of answering
    /// [`BackendError::QueueFull`], which is how backpressure travels up
    /// a pipeline. A refusal ([`BackendError::QueueClosed`], a shape
    /// mismatch) resolves `ticket` with the error.
    pub(crate) fn enqueue(&self, batch: TokenBatch, ticket: Arc<TicketCell<QueueReply>>) {
        if let Err(error) = self.admit(batch, SubmitOptions::default(), Arc::clone(&ticket), true) {
            ticket.resolve(Err(error), || ());
        }
    }

    /// Queues one request for the replicas, or answers why not. A full
    /// pool answers [`BackendError::QueueFull`], or, when `block`, holds
    /// the caller until a resolution, a dispatch or `close` changes that.
    fn admit(
        &self,
        batch: TokenBatch,
        opts: SubmitOptions,
        ticket: Arc<TicketCell<QueueReply>>,
        block: bool,
    ) -> Result<(), BackendError> {
        batch.check_shape(self.ns)?;
        let queue = &self.policy.queue;
        let mut state = self.shared.lock_state();
        loop {
            if !state.open {
                return Err(BackendError::QueueClosed);
            }
            let limit = if state.outstanding >= queue.max_depth {
                QueueLimit::Requests {
                    max_depth: queue.max_depth,
                }
            } else if state.pending_tokens > 0
                && state.pending_tokens + batch.len() > queue.max_pending_tokens
            {
                QueueLimit::Tokens {
                    pending_tokens: state.pending_tokens,
                    max_pending_tokens: queue.max_pending_tokens,
                }
            } else {
                break;
            };
            if !block {
                return Err(BackendError::QueueFull { limit });
            }
            state = self
                .shared
                .work
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
        let submitted = Instant::now();
        let linger = match opts.deadline {
            Some(deadline) => deadline.min(queue.max_linger),
            None => queue.max_linger,
        };
        state.outstanding += 1;
        state.max_depth_seen = state.max_depth_seen.max(state.outstanding as u64);
        state.pending_tokens += batch.len();
        state.pending.push_back(PendingRequest {
            batch,
            ticket,
            submitted,
            client: opts.client,
            dispatch_by: submitted.checked_add(linger),
            attempts: 0,
            retry_at: None,
        });
        drop(state);
        self.shared.work.notify_all();
        Ok(())
    }

    /// Requests accepted but not yet resolved, right now.
    pub fn depth(&self) -> usize {
        self.shared.lock_state().outstanding
    }

    /// The serving policy this pool runs (with the replica count the
    /// pool actually built).
    pub fn policy(&self) -> &ServePolicy {
        &self.policy
    }

    /// Pipeline stages every submission must provide per token.
    pub fn ns(&self) -> usize {
        self.ns
    }

    /// The pool's current degradation snapshot: live replicas,
    /// quarantined replicas, and successful respawns so far.
    pub fn health(&self) -> PoolHealth {
        self.shared.lock_state().health(self.policy.replicas)
    }

    /// A snapshot of the aggregate statistics so far: everything a
    /// direct [`Session`](crate::session::Session) measures, plus
    /// queue-wait percentiles, coalesced micro-batch sizes, the deepest
    /// backlog observed, per-replica dispatch counts, busy time against
    /// the pool's uptime, and the [`PoolHealth`] degradation picture.
    pub fn stats(&self) -> SessionStats {
        // Fold in the backlog high-water mark (state lock strictly
        // before stats lock, the crate-wide order).
        let (depth_seen, health) = {
            let state = self.shared.lock_state();
            (state.max_depth_seen, state.health(self.policy.replicas))
        };
        let mut stats = self.shared.stats.lock().expect("stats lock").clone();
        stats.record_queue_depth(depth_seen);
        stats.note_pool(self.policy.replicas, self.shared.started.elapsed());
        stats.note_pool_health(health);
        stats
    }

    /// Stops accepting submissions (they answer
    /// [`BackendError::QueueClosed`]) while the replicas drain every
    /// request already accepted. Does not block; pair with
    /// [`shutdown`](ReplicaPool::shutdown) or ticket waits to observe
    /// the drain finishing. Idempotent and safe to call concurrently
    /// from any number of threads.
    pub fn close(&self) {
        self.shared.lock_state().open = false;
        self.shared.work.notify_all();
    }

    /// Closes the pool, waits for every replica to drain and resolve
    /// every accepted ticket, and returns the final statistics.
    /// Idempotent with respect to concurrent [`close`] calls: however
    /// many threads raced it, the drain happens once.
    ///
    /// [`close`]: ReplicaPool::close
    pub fn shutdown(self) -> SessionStats {
        self.close();
        self.join_replicas();
        self.stats()
    }

    /// Joins every replica thread exactly once, whichever of
    /// [`shutdown`](ReplicaPool::shutdown), `Drop` and a pipeline's
    /// drain gets there first.
    pub(crate) fn join_replicas(&self) {
        let handles: Vec<JoinHandle<()>> = {
            let mut replicas = self
                .replicas
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            replicas.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// Replica wait-loop iterations so far — the no-busy-spin
    /// diagnostic the unit tests pin.
    #[cfg(test)]
    fn wakeups(&self) -> u64 {
        self.shared.lock_state().wakeups
    }
}

impl Drop for ReplicaPool {
    /// Same contract as [`shutdown`](ReplicaPool::shutdown): close,
    /// drain, join — accepted tickets resolve before the pool
    /// disappears.
    fn drop(&mut self) {
        self.close();
        self.join_replicas();
    }
}

impl core::fmt::Debug for ReplicaPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ReplicaPool")
            .field("policy", &self.policy)
            .field("ns", &self.ns)
            .field("depth", &self.depth())
            .field("health", &self.health())
            .finish_non_exhaustive()
    }
}

/// A replica's per-micro-batch guard: settles the backpressure
/// accounting exactly once and, if dropped with tickets still armed (a
/// replica unwinding out of its own scheduling code), fails them with
/// [`BackendError::QueueClosed`] — so neither `outstanding` nor any
/// accepted ticket can leak, whichever way the micro-batch ends.
struct BatchInFlight<'a> {
    shared: &'a PoolShared,
    unsettled: usize,
    tickets: Vec<Arc<TicketCell<QueueReply>>>,
}

impl BatchInFlight<'_> {
    /// Frees the whole micro-batch's backpressure capacity (idempotent).
    fn settle(&mut self) {
        self.settle_n(self.unsettled);
    }

    /// Frees `n` riders' backpressure slots — the riders whose tickets
    /// are about to resolve.
    fn settle_n(&mut self, n: usize) {
        let n = n.min(self.unsettled);
        if n > 0 {
            self.shared.lock_state().outstanding -= n;
            self.unsettled -= n;
            // Wake drain-waiting replicas: `outstanding` reaching zero
            // is part of their exit condition.
            self.shared.work.notify_all();
        }
    }

    /// Hands `n` riders' slots back to the waiting room *without*
    /// freeing them: a re-queued rider is still unresolved and still
    /// counted by `max_depth`.
    fn transfer_n(&mut self, n: usize) {
        self.unsettled = self.unsettled.saturating_sub(n);
    }
}

impl Drop for BatchInFlight<'_> {
    fn drop(&mut self) {
        self.settle();
        for ticket in self.tickets.drain(..) {
            ticket.resolve(Err(BackendError::QueueClosed), || ());
        }
    }
}

/// Takes one replica out of service — the single exit path of every
/// replica thread, crash or drain, run exactly once per thread even if
/// the scheduling code itself unwinds. A normal drain exit clears
/// `quarantine` first; any other way out counts as a crash. Only when
/// the *last* live replica leaves does the pool close and fail the
/// backlog with [`BackendError::QueueClosed`]; until then the survivors
/// keep draining at reduced capacity.
struct ReplicaExit<'a> {
    shared: &'a PoolShared,
    quarantine: bool,
    /// Whether `live` and `quarantined` already count this exit.
    counted: bool,
}

impl ReplicaExit<'_> {
    /// Counts the replica out of `live` (and into `quarantined`), once.
    fn count(&mut self) {
        if !std::mem::replace(&mut self.counted, true) {
            let mut state = self.shared.lock_state();
            state.live = state.live.saturating_sub(1);
            if self.quarantine {
                state.quarantined += 1;
            }
        }
    }
}

impl Drop for ReplicaExit<'_> {
    fn drop(&mut self) {
        self.count();
        let mut state = self.shared.lock_state();
        if state.live > 0 {
            drop(state);
            self.shared.work.notify_all();
            return;
        }
        // Zero replicas remain: nothing can serve the backlog any more.
        state.open = false;
        let abandoned: Vec<PendingRequest> = state.pending.drain(..).collect();
        state.pending_tokens = 0;
        state.outstanding = state.outstanding.saturating_sub(abandoned.len());
        drop(state);
        self.shared.work.notify_all();
        for request in abandoned {
            request
                .ticket
                .resolve(Err(BackendError::QueueClosed), || ());
        }
    }
}

/// What a replica's scan of the waiting room found: how many tokens are
/// dispatchable right now, the earliest dispatch deadline among them,
/// and the earliest instant a held (backing-off) rider matures.
struct RoomScan {
    eligible_tokens: usize,
    next_deadline: Option<Instant>,
    next_retry: Option<Instant>,
}

/// Scans the waiting room at `now`. A rider still inside its backoff
/// window is *held*, and holds every later pending request of the same
/// client with it — that is what preserves per-client order across
/// retries. Requests of other clients stay eligible.
fn scan_room(state: &PoolState, now: Instant) -> RoomScan {
    let mut held_clients: Vec<u64> = Vec::new();
    let mut scan = RoomScan {
        eligible_tokens: 0,
        next_deadline: None,
        next_retry: None,
    };
    for request in &state.pending {
        if held_clients.contains(&request.client) {
            continue;
        }
        match request.retry_at {
            Some(at) if at > now => {
                held_clients.push(request.client);
                scan.next_retry = Some(scan.next_retry.map_or(at, |b| b.min(at)));
            }
            _ => {
                scan.eligible_tokens += request.batch.len();
                if let Some(deadline) = request.dispatch_by {
                    scan.next_deadline =
                        Some(scan.next_deadline.map_or(deadline, |b| b.min(deadline)));
                }
            }
        }
    }
    scan
}

/// Fills one micro-batch from the waiting room under the policy's
/// fairness discipline. Whole requests only, up to `max_batch` tokens
/// (a single oversized request rides alone); riders still backing off —
/// and their clients' later requests — are left queued. Returns the
/// picked requests and their total token count.
fn coalesce(
    state: &mut PoolState,
    policy: &ServePolicy,
    now: Instant,
) -> (Vec<PendingRequest>, usize) {
    let mut held: Vec<u64> = Vec::new();
    for request in &state.pending {
        if request.retry_at.is_some_and(|at| at > now) && !held.contains(&request.client) {
            held.push(request.client);
        }
    }
    let mut picked = Vec::new();
    let mut total = 0usize;
    match policy.fairness {
        Fairness::Fifo => {
            let mut index = 0usize;
            while index < state.pending.len() {
                let request = &state.pending[index];
                if held.contains(&request.client) {
                    index += 1;
                    continue;
                }
                let len = request.batch.len();
                if !picked.is_empty() && total + len > policy.queue.max_batch {
                    break;
                }
                let request = state.pending.remove(index).expect("index exists");
                state.pending_tokens -= len;
                total += len;
                picked.push(request);
                // The removal shifted the next candidate into `index`.
            }
        }
        Fairness::RoundRobin => {
            // Clients in order of their oldest pending request, the
            // cycle resumed just past the last client served.
            let mut clients: Vec<u64> = Vec::new();
            for request in &state.pending {
                if !held.contains(&request.client) && !clients.contains(&request.client) {
                    clients.push(request.client);
                }
            }
            if let Some(last) = state.rr_last {
                if let Some(pos) = clients.iter().position(|&c| c == last) {
                    clients.rotate_left(pos + 1);
                }
            }
            let mut progressed = true;
            'fill: while progressed {
                progressed = false;
                for &client in &clients {
                    let Some(index) = state.pending.iter().position(|r| r.client == client) else {
                        continue;
                    };
                    let len = state.pending[index].batch.len();
                    if !picked.is_empty() && total + len > policy.queue.max_batch {
                        continue;
                    }
                    let request = state.pending.remove(index).expect("index exists");
                    state.pending_tokens -= len;
                    total += len;
                    state.rr_last = Some(client);
                    picked.push(request);
                    progressed = true;
                    if total >= policy.queue.max_batch {
                        break 'fill;
                    }
                }
            }
        }
    }
    (picked, total)
}

/// A picked request's bookkeeping while its tokens ride a micro-batch.
/// It keeps its own batch, so a retry re-queues it as it came.
struct Rider {
    batch: TokenBatch,
    ticket: Arc<TicketCell<QueueReply>>,
    submitted: Instant,
    client: u64,
    dispatch_by: Option<Instant>,
    attempts: u32,
    queue_wait: Duration,
}

/// The retry path: a micro-batch failed transiently (typed transient
/// error or replica panic). Each rider with budget left is re-queued at
/// the *front* of the waiting room — original order, original ticket,
/// original deadline — held back by an exponential backoff; riders out
/// of budget resolve with the typed error.
fn retry_or_fail(
    shared: &PoolShared,
    policy: &ServePolicy,
    replica: usize,
    guard: &mut BatchInFlight<'_>,
    riders: Vec<Rider>,
    error: &BackendError,
    service: Duration,
) {
    let recovery = &policy.recovery;
    let now = Instant::now();
    let mut requeued: Vec<PendingRequest> = Vec::new();
    let mut failed: Vec<Arc<TicketCell<QueueReply>>> = Vec::new();
    let mut failed_tokens = 0usize;
    let mut failed_waits: Vec<Duration> = Vec::new();
    for rider in riders {
        if rider.attempts < recovery.max_retries {
            requeued.push(PendingRequest {
                batch: rider.batch,
                ticket: rider.ticket,
                submitted: rider.submitted,
                client: rider.client,
                dispatch_by: rider.dispatch_by,
                attempts: rider.attempts + 1,
                retry_at: now.checked_add(recovery.backoff_for(rider.attempts)),
            });
        } else {
            failed_tokens += rider.batch.len();
            failed_waits.push(rider.queue_wait);
            failed.push(rider.ticket);
        }
    }
    let retried = requeued.len() as u64;
    // Re-queued riders keep their backpressure slots (still unresolved);
    // failed riders free theirs before their tickets resolve, so a woken
    // submitter deterministically finds the room open.
    guard.transfer_n(requeued.len());
    guard.settle_n(failed.len());
    if !requeued.is_empty() {
        let mut state = shared.lock_state();
        state.pending_tokens += requeued.iter().map(|r| r.batch.len()).sum::<usize>();
        for request in requeued.into_iter().rev() {
            state.pending.push_front(request);
        }
        drop(state);
        shared.work.notify_all();
    }
    {
        let mut stats = shared.stats.lock().expect("stats lock");
        stats.record_retries(retried);
        if failed_tokens > 0 {
            // Only riders that actually resolve count queue-side here;
            // a retried rider is absorbed once, on its final attempt.
            stats.absorb_queue_side(failed_tokens, &failed_waits);
        }
        stats.record_replica_dispatch(replica, service);
    }
    for ticket in failed {
        ticket.resolve(Err(error.clone()), || ());
    }
    guard.tickets.clear();
}

/// One replica's loop: collect → coalesce → run → split → resolve,
/// retrying transient failures and surviving backend panics, until the
/// pool is closed *and* nothing unresolved remains.
fn replica_loop(
    shared: &PoolShared,
    policy: &ServePolicy,
    replica: usize,
    mut backend: Box<dyn MacroBackend>,
    recipe: &ReplicaFactory,
) {
    let mut exit = ReplicaExit {
        shared,
        quarantine: true,
        counted: false,
    };
    let mut respawns_left = policy.recovery.respawn;
    loop {
        // ── Collect: wait for work, linger for a fuller micro-batch ──
        let mut state = shared.lock_state();
        loop {
            state.wakeups += 1;
            if state.pending.is_empty() {
                if !state.open && state.outstanding == 0 {
                    // Closed and nothing unresolved anywhere — no rider
                    // mid-service on a sibling can be re-queued on us.
                    exit.quarantine = false;
                    return;
                }
                state = shared.work.wait(state).unwrap_or_else(|p| p.into_inner());
                continue;
            }
            let now = Instant::now();
            let scan = scan_room(&state, now);
            if scan.eligible_tokens > 0
                && (scan.eligible_tokens >= policy.queue.max_batch || !state.open)
            {
                break;
            }
            // Wake at the earlier of the dispatch deadline and the first
            // backing-off rider maturing; an unrepresentable deadline
            // across the whole room ("wait until the batch fills")
            // degrades to an untimed wait — work or close() wakes us.
            let wake = match (scan.next_deadline, scan.next_retry) {
                (Some(d), Some(r)) => Some(d.min(r)),
                (d, r) => d.or(r),
            };
            let Some(wake) = wake else {
                state = shared.work.wait(state).unwrap_or_else(|p| p.into_inner());
                continue;
            };
            let left = wake.saturating_duration_since(now);
            if left.is_zero() {
                if scan.eligible_tokens > 0 {
                    break;
                }
                // A held rider just matured; rescan makes it eligible.
                continue;
            }
            let (s, _) = shared
                .work
                .wait_timeout(state, left)
                .unwrap_or_else(|p| p.into_inner());
            state = s;
        }

        // ── Coalesce: whole requests per the fairness discipline ──
        let (picked, total) = coalesce(&mut state, policy, Instant::now());
        drop(state);
        if picked.is_empty() {
            // Another replica emptied the waiting room between our
            // wakeup and the coalesce; go back to waiting.
            continue;
        }
        // Let sibling replicas pick up what this micro-batch left
        // behind, instead of lingering until their own timeouts fire.
        shared.work.notify_all();

        // ── Run: one backend call for the whole micro-batch ──
        let mut guard = BatchInFlight {
            shared,
            unsettled: picked.len(),
            tickets: picked.iter().map(|p| Arc::clone(&p.ticket)).collect(),
        };
        let dispatched = Instant::now();
        let mut riders: Vec<Rider> = picked
            .into_iter()
            .map(|request| Rider {
                batch: request.batch,
                ticket: request.ticket,
                submitted: request.submitted,
                client: request.client,
                dispatch_by: request.dispatch_by,
                attempts: request.attempts,
                queue_wait: dispatched.saturating_duration_since(request.submitted),
            })
            .collect();
        // One copy of every rider into the micro-batch; a lone rider's
        // batch is shared as it is.
        let micro = TokenBatch::concat(riders.iter().map(|r| &r.batch))
            .expect("submit checked every rider against the pool's shape");
        // A panicking backend must not take the whole pool down with it:
        // catch the unwind, re-queue the riders, and respawn or retire
        // this replica. `AssertUnwindSafe` is sound here because the
        // backend is discarded (rebuilt or retired) after any panic.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| backend.run_batch(&micro)));
        let service = dispatched.elapsed();
        // A custom backend that broke the one-observation-per-token
        // contract gets a typed rejection, not mis-sliced outputs —
        // fatal, not transient: the backend would do it again.
        let outcome = outcome.map(|ran| {
            ran.and_then(|result| {
                if result.tokens.len() == micro.len() {
                    return Ok(result);
                }
                Err(BackendError::MalformedProgram {
                    reason: format!(
                        "backend returned {} observations for a {}-token micro-batch",
                        result.tokens.len(),
                        micro.len()
                    ),
                })
            })
        });
        let waits: Vec<Duration> = riders.iter().map(|r| r.queue_wait).collect();

        // Harvest this replica's cache counters after every non-panic
        // attempt — failed ones included: a transient fault still
        // counted its misses, and skipping it would understate lookups.
        // After a panic the backend is about to be discarded, so its
        // last snapshot is simply lost with it.
        if outcome.is_ok() {
            if let Some(cache) = backend.cache_stats() {
                shared
                    .stats
                    .lock()
                    .expect("stats lock")
                    .note_cache(replica, cache);
            }
        }

        // ── Split and resolve: each ticket gets its own token slice ──
        match outcome {
            Ok(Ok(result)) => {
                // Free backpressure capacity before resolving, so a
                // submitter woken by its ticket deterministically finds
                // the slot open.
                guard.settle();
                {
                    let mut stats = shared.stats.lock().expect("stats lock");
                    stats.absorb_queued(&result, service, &waits);
                    stats.record_replica_dispatch(replica, service);
                }
                // Hand each rider its rows, in one copy; a lone rider
                // takes the whole result. `absorb_queued` above has read
                // them already.
                let (backend, makespan) = (result.backend, result.makespan);
                let resolve = |rider: Rider, tokens: Observations| {
                    let energy = fold_all(tokens.iter().map(|o| o.energy), |a, b| a + b);
                    rider.ticket.resolve(
                        Ok(QueueReply {
                            result: BatchResult {
                                backend,
                                tokens,
                                makespan,
                                energy,
                            },
                            queue_wait: rider.queue_wait,
                            service,
                            coalesced_tokens: total,
                            replica,
                        }),
                        || (),
                    );
                };
                if riders.len() == 1 {
                    resolve(riders.pop().expect("one rider"), result.tokens);
                } else {
                    let mut start = 0;
                    for rider in riders {
                        let end = start + rider.batch.len();
                        let tokens = result.tokens.slice(start..end);
                        start = end;
                        resolve(rider, tokens);
                    }
                }
                guard.tickets.clear();
            }
            Ok(Err(error)) if error.is_transient() => {
                retry_or_fail(shared, policy, replica, &mut guard, riders, &error, service);
            }
            Ok(Err(error)) => {
                // Whole-batch rejection with a fatal error (a broken
                // observation count included): every rider gets it —
                // retrying would fail identically. The queue-side stats
                // still count the batch; only the served-token
                // measurements are success-only.
                guard.settle();
                {
                    let mut stats = shared.stats.lock().expect("stats lock");
                    stats.absorb_queue_side(micro.len(), &waits);
                    stats.record_replica_dispatch(replica, service);
                }
                for rider in riders {
                    rider.ticket.resolve(Err(error.clone()), || ());
                }
                guard.tickets.clear();
            }
            Err(_panic) => {
                // The panicked backend is poisoned; rebuild it from the
                // recipe while the restart budget lasts. The riders wait
                // for the rebuild, so a reply that resolves after the
                // crash always finds the respawn counted.
                let mut fresh = None;
                while fresh.is_none() && respawns_left > 0 {
                    respawns_left -= 1;
                    // A recipe that itself panics or errors burns a
                    // respawn and tries again (or falls through to
                    // quarantine).
                    if let Ok(Ok(rebuilt)) =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| recipe()))
                    {
                        fresh = Some(rebuilt);
                    }
                }
                let respawned = match fresh {
                    Some(rebuilt) => {
                        backend = rebuilt;
                        // A rebuilt backend whose store has seen no lookup
                        // has a fresh store, so retire the dead store's
                        // counters. A store shared across the respawn keeps
                        // its cumulative counts and stays in its slot.
                        if backend
                            .cache_stats()
                            .is_some_and(|c| c.hits + c.misses == 0)
                        {
                            shared
                                .stats
                                .lock()
                                .expect("stats lock")
                                .retire_cache(replica);
                        }
                        shared.lock_state().restarts += 1;
                        true
                    }
                    None => {
                        // Crash through the budget: quarantined from here
                        // on, so a survivor's reply to a re-queued rider
                        // finds it counted.
                        exit.count();
                        false
                    }
                };
                // The riders are blameless until proven otherwise:
                // re-queue them under the retry budget (another replica
                // — or this one, rebuilt — picks them up).
                retry_or_fail(
                    shared,
                    policy,
                    replica,
                    &mut guard,
                    riders,
                    &BackendError::ReplicaPanicked,
                    service,
                );
                if !respawned {
                    // The exit guard closes the pool if no replica is
                    // left to serve the re-queued riders.
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use maddpipe_core::config::MacroConfig;
    use maddpipe_core::macro_rtl::MacroProgram;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A functional-backend recipe for `program` on a tiny 2×2 macro.
    fn functional_recipe(program: &MacroProgram) -> ReplicaFactory {
        let program = program.clone();
        Arc::new(move || {
            BackendKind::Functional { workers: 1 }.build(&MacroConfig::new(2, 2), program.clone())
        })
    }

    /// A pool of `replicas` functional backends over a tiny 2×2 macro.
    fn functional_pool(replicas: usize, policy: ServePolicy) -> (ReplicaPool, MacroProgram) {
        let program = MacroProgram::random(2, 2, 11);
        let recipes = vec![functional_recipe(&program); replicas];
        let pool = ReplicaPool::from_recipes(policy, 2, recipes).expect("pool builds");
        (pool, program)
    }

    #[test]
    fn zero_linger_pools_do_not_busy_spin() {
        let policy = ServePolicy::default()
            .with_replicas(2)
            .with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO));
        let (pool, program) = functional_pool(2, policy);
        // Serve a few requests so every replica has been through its
        // loop at least once.
        for seed in 0..4 {
            let batch = TokenBatch::random(2, 2, seed);
            let reply = pool.submit(batch.clone()).unwrap().wait().unwrap();
            assert_eq!(
                reply.result.tokens.get(0).unwrap().outputs,
                program.reference_output(&batch.tokens()[0])
            );
        }
        // Idle pool: replicas must block on the condvar, not spin on a
        // zero-length linger timeout.
        std::thread::sleep(Duration::from_millis(120));
        let settled = pool.wakeups();
        std::thread::sleep(Duration::from_millis(120));
        let after_idle = pool.wakeups();
        assert_eq!(
            after_idle,
            settled,
            "idle replicas took {} wait-loop turns — the zero-linger loop is spinning",
            after_idle - settled
        );
        // Serving stays O(1) wakeups per submission, not a spin.
        for seed in 0..8 {
            pool.submit(TokenBatch::random(2, 2, seed))
                .unwrap()
                .wait()
                .unwrap();
        }
        let after_serving = pool.wakeups();
        assert!(
            after_serving - after_idle <= 8 * 2 * 8,
            "8 submissions took {} wait-loop turns across 2 replicas",
            after_serving - after_idle
        );
        pool.shutdown();
    }

    #[test]
    fn empty_factory_lists_are_rejected() {
        let err = ReplicaPool::from_recipes(ServePolicy::default(), 2, Vec::new()).unwrap_err();
        assert!(
            matches!(err, BackendError::QueueUnavailable { .. }),
            "{err}"
        );
    }

    #[test]
    fn a_failing_factory_tears_the_pool_down() {
        let good = functional_recipe(&MacroProgram::random(2, 2, 3));
        let bad: ReplicaFactory = Arc::new(|| Err(BackendError::MissingProgram));
        let err = ReplicaPool::from_recipes(ServePolicy::default(), 2, vec![good, bad])
            .expect_err("one bad factory fails the pool");
        assert_eq!(err, BackendError::MissingProgram);
    }

    #[test]
    fn round_robin_preserves_per_client_order() {
        let policy = ServePolicy::default()
            .with_fairness(Fairness::RoundRobin)
            .with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO));
        let (pool, program) = functional_pool(1, policy);
        // Interleave submissions from three clients; each client's
        // replies must come back in its own submission order with the
        // right outputs.
        std::thread::scope(|s| {
            for client in 0..3u64 {
                let pool = &pool;
                let program = &program;
                s.spawn(move || {
                    for round in 0..5u64 {
                        let batch = TokenBatch::random(2, 3, client * 100 + round);
                        let opts = SubmitOptions::default().with_client(client);
                        let reply = pool.submit_with(batch.clone(), opts).unwrap();
                        let reply = reply.wait().expect("served");
                        for (t, token) in batch.tokens().iter().enumerate() {
                            assert_eq!(
                                reply.result.tokens.get(t).unwrap().outputs,
                                program.reference_output(token)
                            );
                        }
                    }
                });
            }
        });
        let stats = pool.shutdown();
        assert_eq!(stats.tokens(), 45);
    }

    /// A backend that fails its first `flaky` calls with a transient
    /// error, then serves correctly forever.
    struct TransientlyFlaky {
        inner: Box<dyn MacroBackend>,
        failures_left: Arc<AtomicUsize>,
    }

    impl MacroBackend for TransientlyFlaky {
        fn name(&self) -> &'static str {
            "transiently-flaky"
        }

        fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
            if self
                .failures_left
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(BackendError::Transient {
                    reason: "injected flake".into(),
                });
            }
            self.inner.run_batch(batch)
        }
    }

    /// A 1-replica pool whose backend flakes transiently `failures`
    /// times before serving.
    fn flaky_pool(failures: usize, recovery: RecoveryPolicy) -> (ReplicaPool, MacroProgram) {
        let program = MacroProgram::random(2, 2, 11);
        let failures = Arc::new(AtomicUsize::new(failures));
        let recipe: ReplicaFactory = {
            let inner = functional_recipe(&program);
            Arc::new(move || {
                Ok(Box::new(TransientlyFlaky {
                    inner: inner()?,
                    failures_left: Arc::clone(&failures),
                }))
            })
        };
        let policy = ServePolicy::default()
            .with_recovery(recovery)
            .with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO));
        let pool = ReplicaPool::from_recipes(policy, 2, vec![recipe]).expect("pool builds");
        (pool, program)
    }

    #[test]
    fn transient_failures_retry_to_success_within_budget() {
        let recovery = RecoveryPolicy::default()
            .with_max_retries(3)
            .with_backoff(Duration::from_micros(50));
        let (pool, program) = flaky_pool(2, recovery);
        let batch = TokenBatch::random(2, 4, 5);
        let reply = pool
            .submit(batch.clone())
            .unwrap()
            .wait()
            .expect("retried to success");
        for (t, token) in batch.tokens().iter().enumerate() {
            assert_eq!(
                reply.result.tokens.get(t).unwrap().outputs,
                program.reference_output(token)
            );
        }
        assert_eq!(pool.health().quarantined, 0);
        let stats = pool.shutdown();
        assert_eq!(stats.retries(), 2, "two flakes, two re-queues");
        assert_eq!(stats.tokens(), 4, "the batch counts once despite retries");
    }

    #[test]
    fn exhausted_retry_budgets_surface_the_typed_transient_error() {
        // More injected failures than the budget allows: the ticket must
        // resolve with the typed transient error, not hang or close.
        let recovery = RecoveryPolicy::default()
            .with_max_retries(1)
            .with_backoff(Duration::from_micros(50));
        let (pool, _) = flaky_pool(100, recovery);
        let err = pool
            .submit(TokenBatch::random(2, 4, 5))
            .unwrap()
            .wait()
            .expect_err("budget exhausts");
        assert!(
            matches!(err, BackendError::Transient { .. }),
            "exhausted retries surface the last typed error, got {err}"
        );
        // The pool is degraded-free and still serving: transient errors
        // never quarantine a replica.
        assert_eq!(pool.health().healthy, 1);
        let stats = pool.shutdown();
        assert_eq!(stats.retries(), 1);
    }

    #[test]
    fn recovery_none_fails_fast_on_the_first_transient_error() {
        let (pool, _) = flaky_pool(1, RecoveryPolicy::none());
        let err = pool
            .submit(TokenBatch::random(2, 4, 5))
            .unwrap()
            .wait()
            .expect_err("no budget, no retry");
        assert!(matches!(err, BackendError::Transient { .. }), "{err}");
        let stats = pool.shutdown();
        assert_eq!(stats.retries(), 0);
    }

    #[test]
    fn concurrent_close_shutdown_and_drop_are_idempotent() {
        let (pool, _) = functional_pool(2, ServePolicy::default());
        // Accept a backlog, then race close() from many threads while
        // submitters are still pushing: no panic, no leaked ticket.
        let tickets: Vec<BatchTicket> = (0..8)
            .map(|seed| pool.submit(TokenBatch::random(2, 2, seed)).unwrap())
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let pool = &pool;
                s.spawn(move || pool.close());
            }
            for seed in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    // Racing submissions either get served or see the
                    // closed queue — never a panic or a hang.
                    match pool.submit(TokenBatch::random(2, 2, 100 + seed)) {
                        Ok(ticket) => {
                            let _ = ticket.wait();
                        }
                        Err(e) => assert_eq!(e, BackendError::QueueClosed),
                    }
                });
            }
        });
        pool.close(); // close-after-close is a no-op
        for ticket in tickets {
            // Everything accepted before the close drains to a result.
            ticket.wait().expect("accepted work drains");
        }
        let stats = pool.shutdown();
        assert!(stats.tokens() >= 16);
    }
}
