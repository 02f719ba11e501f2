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
//!   are tagged with a submitter key ([`SubmitOptions::with_client`])
//!   and micro-batches are filled by cycling clients, so one hot client's
//!   deep backlog cannot starve the others. [`Fairness::Fifo`] is the
//!   same loop over one key for every request: strict arrival order.
//! * **Deadline-aware batching.** Each request's dispatch deadline is
//!   the smaller of the policy's [`QueuePolicy::max_linger`] and its
//!   own [`SubmitOptions::with_deadline`] latency target; a replica
//!   ships a partial micro-batch as soon as the earliest pending
//!   deadline passes instead of lingering for a fuller batch: never
//!   before it, and within tens of µs after it (see
//!   [`QueuePolicy::max_linger`] for how the timed waits get there).
//! * **Typed backpressure on two axes.**
//!   [`QueuePolicy::max_depth`] bounds unresolved *requests* and
//!   [`QueuePolicy::max_pending_tokens`] bounds queued *tokens*, each
//!   rejecting with its own [`QueueLimit`] inside
//!   [`BackendError::QueueFull`].
//! * **Supervision and recovery.** Under the pool's
//!   [`RecoveryPolicy`], a micro-batch that fails transiently
//!   ([`BackendError::is_transient`]) goes back to the front of the room
//!   rider by rider, each held back by an exponential backoff, with no
//!   replica thread asleep; a replica that panics is rebuilt in place
//!   from its recipe up to a restart budget. A held rider holds its own
//!   client's *later* requests only, which keeps per-client order; the
//!   requests ahead of it and every other client's keep flowing. A
//!   replica that crashes through its budget is *quarantined*: the pool
//!   keeps serving at reduced capacity ([`PoolHealth`] reports the
//!   degradation) and tickets only resolve [`BackendError::QueueClosed`]
//!   once zero replicas remain. This is the serving stack's only retry
//!   loop: a [`ShardedBackend`](crate::sharded::ShardedBackend) surfaces
//!   a transient shard failure once, as a transient
//!   [`BackendError::Shard`], and the pool re-runs the micro-batch.
//!
//! A request is one record from submission to resolution, and the pool
//! has one lock. Each replica turn reads the waiting room once: the read
//! that decides to dispatch is the one the micro-batch is filled from.
//! A finished micro-batch frees or re-queues its riders, records its
//! stats and its replica's counters under that lock, then resolves its
//! tickets outside it. Whole requests are never split across
//! micro-batches or replicas, and tickets always resolve (results, a
//! typed backend error after the retry budget, or
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
    /// reordered — round-robin's loop over one key for every request,
    /// so client keys change nothing. (A request backing off after a
    /// transient failure holds only its own client's later requests;
    /// other clients keep flowing.)
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
/// the [`PoolHealth`] counters move under the lock that re-queues the
/// crashed micro-batch's riders, so a reply resolved after the crash
/// always finds the respawn or the quarantine counted. This is the
/// serving stack's one retry loop: nothing below the pool retries.
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
}

/// A [`ReplicaPool`]'s degradation snapshot, surfaced through
/// [`ReplicaPool::health`] and in [`SessionStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolHealth {
    /// Replicas not quarantined: the pool's replica count minus
    /// [`quarantined`](PoolHealth::quarantined). While the pool is open
    /// these are the replicas alive and serving; a replica that drains
    /// out after [`close`](ReplicaPool::close) stays healthy, so
    /// `healthy + quarantined` is the replica count in every snapshot,
    /// `shutdown()`'s stats included.
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
    /// this request (in a partial micro-batch if need be). A partial
    /// micro-batch leaves no earlier than that instant and, on an idle
    /// replica, within tens of µs after it (see
    /// [`QueuePolicy::max_linger`]). It is a scheduling hint, not an
    /// admission-control guarantee — a saturated backend can still serve
    /// late.
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

/// One accepted submission, from `admit` until its ticket resolves: it
/// waits in the room, rides a micro-batch, and goes back to the room as
/// it came when that micro-batch fails transiently.
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

/// The replica/submitter shared state, behind the pool's one lock.
#[derive(Default)]
struct PoolState {
    pending: VecDeque<PendingRequest>,
    /// Tokens across `pending`, maintained on push/pop so admission and
    /// batch-full checks are O(1) under the lock.
    pending_tokens: usize,
    /// Requests accepted but not yet resolved — queued *or* executing.
    /// What [`QueuePolicy::max_depth`] bounds.
    outstanding: usize,
    /// `false` once the pool stops accepting submissions.
    open: bool,
    /// Replica threads still in their serve loop. Hits 0 only when
    /// every replica exited — drained out after `close()`, or
    /// quarantined — which is what closes a pool that lost its last
    /// replica. [`PoolHealth::healthy`] does not read it: a drained
    /// replica is not a lost one.
    live: usize,
    /// Replicas retired after crashing through their respawn budget.
    quarantined: usize,
    /// Successful in-place replica respawns.
    restarts: u64,
    /// Fairness key served last by coalescing; the next micro-batch
    /// resumes the cycle after it.
    rr_last: Option<u64>,
    /// Replica wait-loop iterations — a scheduling diagnostic that
    /// stays flat while the pool idles (the no-busy-spin invariant,
    /// pinned by a unit test for zero-linger policies). Each yield turn
    /// of the last [`WAKE_EARLY`] before a wake instant counts as one:
    /// a lone request waiting out a 200 µs linger takes 13–17 turns, a
    /// 2 ms one 3–4 (its timed wait overshoots most of the window).
    wakeups: u64,
    /// What the pool measured, recorded under this lock by whoever
    /// changes what it describes: a submission its backlog depth, a
    /// micro-batch its dispatch, waits, retries and cache counters.
    stats: SessionStats,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled on every submission, resolution, re-queue and close.
    work: Condvar,
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
            healthy: replicas.saturating_sub(self.quarantined),
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
                open: true,
                live: recipes.len(),
                ..PoolState::default()
            }),
            work: Condvar::new(),
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
        // Every replica reports before the pool opens; the first failure
        // wins.
        let failure = readiness.into_iter().fold(None, |first, ready_rx| {
            let ready = ready_rx.recv().unwrap_or(Err(BackendError::QueueClosed));
            first.or(ready.err())
        });
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
        let depth = state.outstanding as u64;
        state.stats.record_queue_depth(depth);
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

    /// The pool's current degradation snapshot: healthy replicas,
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
        let (mut stats, health) = {
            let state = self.shared.lock_state();
            (state.stats.clone(), state.health(self.policy.replicas))
        };
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

/// A replica's micro-batch in flight. It owns its riders from the moment
/// they leave the waiting room until [`finish`](BatchInFlight::finish)
/// resolves or re-queues each one. Dropped with riders aboard (a replica
/// unwinding out of its own scheduling code), it frees the slots not yet
/// freed and fails those riders with [`BackendError::QueueClosed`] — so
/// neither `outstanding` nor any accepted ticket can leak, whichever way
/// the micro-batch ends.
struct BatchInFlight<'a> {
    shared: &'a PoolShared,
    riders: Vec<PendingRequest>,
    /// When the riders left the room; each one's queue wait ends here.
    dispatched: Instant,
    /// Whether `outstanding` no longer counts the riders aboard.
    settled: bool,
}

impl BatchInFlight<'_> {
    /// Ends the micro-batch with its `outcome`. Under one lock: riders
    /// that failed transiently with retry budget left go back to the
    /// front of the room, in their order, held back by an exponential
    /// backoff and keeping their slots (still unresolved, still counted
    /// by `max_depth`); every other rider frees its slot; the stats
    /// record the dispatch; and `note` moves the replica's own counters
    /// (its cache, a respawn, a quarantine). Only then, outside the lock,
    /// are the leaving riders' replies stored, every one of them before
    /// the first submitter is woken: a woken submitter finds its slot
    /// open and every counter moved, and cannot preempt this replica
    /// while a later rider's reply is still unstored. The wakes are
    /// delivered as they drop, so an unwind delivers them too.
    fn finish(
        mut self,
        policy: &ServePolicy,
        replica: usize,
        service: Duration,
        outcome: Result<BatchResult, BackendError>,
        note: impl FnOnce(&mut PoolState),
    ) {
        let budget = match &outcome {
            Err(error) if error.is_transient() => policy.recovery.max_retries,
            _ => 0,
        };
        let (requeued, leaving): (Vec<_>, Vec<_>) = std::mem::take(&mut self.riders)
            .into_iter()
            .partition(|rider| rider.attempts < budget);
        self.riders = leaving;
        let leaving_tokens: usize = self.riders.iter().map(|r| r.batch.len()).sum();
        let waits: Vec<Duration> = self
            .riders
            .iter()
            .map(|r| self.dispatched.saturating_duration_since(r.submitted))
            .collect();
        let (now, backoff) = (Instant::now(), policy.recovery.backoff);
        {
            let mut state = self.shared.lock_state();
            state.outstanding -= self.riders.len();
            self.settled = true;
            state.pending_tokens += requeued.iter().map(|r| r.batch.len()).sum::<usize>();
            state.stats.record_retries(requeued.len() as u64);
            for mut rider in requeued.into_iter().rev() {
                // `backoff * 2^attempts` after the failed attempts so far.
                rider.retry_at =
                    now.checked_add(backoff.saturating_mul(1 << rider.attempts.min(16)));
                rider.attempts += 1;
                state.pending.push_front(rider);
            }
            if let Ok(result) = &outcome {
                state.stats.absorb(result, service);
            }
            // Only riders that resolve count queue-side; a retried rider
            // is absorbed once, on its final attempt.
            if leaving_tokens > 0 {
                state.stats.absorb_queue_side(leaving_tokens, &waits);
            }
            state.stats.record_replica_dispatch(replica, service);
            note(&mut state);
        }
        self.shared.work.notify_all();
        let wakes: Vec<_> = match outcome {
            Ok(result) => {
                // Hand each rider its rows, in one copy; a lone rider
                // takes the whole result. `absorb` above has read them
                // already.
                let (backend, makespan) = (result.backend, result.makespan);
                let reply = |queue_wait: Duration, tokens: Observations| {
                    let energy = fold_all(tokens.iter().map(|o| o.energy), |a, b| a + b);
                    Ok(QueueReply {
                        result: BatchResult {
                            backend,
                            tokens,
                            makespan,
                            energy,
                        },
                        queue_wait,
                        service,
                        coalesced_tokens: leaving_tokens,
                        replica,
                    })
                };
                if let [rider] = self.riders.as_slice() {
                    vec![rider.ticket.store(reply(waits[0], result.tokens), || ())]
                } else {
                    let mut start = 0;
                    self.riders
                        .iter()
                        .zip(&waits)
                        .map(|(rider, &wait)| {
                            let rows = start..start + rider.batch.len();
                            start = rows.end;
                            rider
                                .ticket
                                .store(reply(wait, result.tokens.slice(rows)), || ())
                        })
                        .collect()
                }
            }
            Err(error) => self
                .riders
                .iter()
                .map(|rider| rider.ticket.store(Err(error.clone()), || ()))
                .collect(),
        };
        drop(wakes);
        self.riders.clear();
    }
}

impl Drop for BatchInFlight<'_> {
    fn drop(&mut self) {
        if !self.settled {
            self.shared.lock_state().outstanding -= self.riders.len();
            self.shared.work.notify_all();
        }
        for rider in self.riders.drain(..) {
            rider.ticket.resolve(Err(BackendError::QueueClosed), || ());
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
    fn count(&mut self, state: &mut PoolState) {
        if !std::mem::replace(&mut self.counted, true) {
            state.live = state.live.saturating_sub(1);
            if self.quarantine {
                state.quarantined += 1;
            }
        }
    }
}

impl Drop for ReplicaExit<'_> {
    fn drop(&mut self) {
        let mut state = self.shared.lock_state();
        self.count(&mut state);
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

/// What a replica's read of the waiting room found at one instant: the
/// requests dispatchable now and their tokens, the earliest dispatch
/// deadline among them, and the earliest instant a held (backing-off)
/// rider matures. A replica keeps one and rereads into it every turn.
#[derive(Default)]
struct RoomScan {
    /// Room indices of the dispatchable requests, in room order — all
    /// that [`coalesce`] picks from.
    eligible: Vec<usize>,
    eligible_tokens: usize,
    next_deadline: Option<Instant>,
    next_retry: Option<Instant>,
    /// Clients held behind one of their riders backing off.
    held: Vec<u64>,
}

impl RoomScan {
    /// Reads `room` at `now`. A rider still inside its backoff window is
    /// *held*, and holds every later request of its client with it —
    /// that is what keeps per-client order across retries. Requests
    /// ahead of it in the room, and every other client's, stay eligible.
    fn read(&mut self, room: &VecDeque<PendingRequest>, now: Instant) {
        self.eligible.clear();
        self.held.clear();
        self.eligible_tokens = 0;
        self.next_deadline = None;
        self.next_retry = None;
        for (index, request) in room.iter().enumerate() {
            if self.held.contains(&request.client) {
                continue;
            }
            match request.retry_at {
                Some(at) if at > now => {
                    self.held.push(request.client);
                    self.next_retry = Some(self.next_retry.map_or(at, |b| b.min(at)));
                }
                _ => {
                    self.eligible.push(index);
                    self.eligible_tokens += request.batch.len();
                    if let Some(deadline) = request.dispatch_by {
                        self.next_deadline =
                            Some(self.next_deadline.map_or(deadline, |b| b.min(deadline)));
                    }
                }
            }
        }
    }
}

/// Fills one micro-batch from the `eligible` requests of the room:
/// whole requests only, up to `max_batch` tokens (a single oversized
/// request rides alone). Both disciplines run one loop, which cycles
/// through fairness keys — each client under [`Fairness::RoundRobin`],
/// one key for every request under [`Fairness::Fifo`] — taking each
/// key's oldest eligible request per turn and resuming after the key
/// served last. A key leaves the cycle when its next request would
/// overfill the batch, so one key is strict arrival order. Returns the
/// riders in room order; at least one when `eligible` is not empty.
fn coalesce(
    state: &mut PoolState,
    policy: &ServePolicy,
    eligible: &[usize],
) -> Vec<PendingRequest> {
    let max_batch = policy.queue.max_batch;
    let room = &state.pending;
    let key = |index: usize| match policy.fairness {
        Fairness::Fifo => 0,
        Fairness::RoundRobin => room[index].client,
    };
    // Each key with a cursor into `eligible`, in order of the key's
    // oldest eligible request, the cycle resumed just past the key
    // served last.
    let mut cycle: Vec<(u64, usize)> = Vec::new();
    for (at, &index) in eligible.iter().enumerate() {
        let k = key(index);
        if cycle.iter().all(|&(c, _)| c != k) {
            cycle.push((k, at));
        }
    }
    if let Some(last) = state
        .rr_last
        .and_then(|last| cycle.iter().position(|&(k, _)| k == last))
    {
        cycle.rotate_left(last + 1);
    }
    let mut picked: Vec<usize> = Vec::new();
    let mut total = 0;
    let mut turn = 0;
    while total < max_batch && !cycle.is_empty() {
        turn %= cycle.len();
        let (k, from) = cycle[turn];
        let next = eligible[from..]
            .iter()
            .position(|&index| key(index) == k)
            .map(|p| from + p);
        match next {
            Some(at)
                if picked.is_empty() || total + room[eligible[at]].batch.len() <= max_batch =>
            {
                picked.push(eligible[at]);
                total += room[eligible[at]].batch.len();
                cycle[turn].1 = at + 1;
                state.rr_last = Some(k);
                turn += 1;
            }
            // No eligible request left, or the next no longer fits.
            _ => {
                cycle.remove(turn);
            }
        }
    }
    state.pending_tokens -= total;
    picked.sort_unstable();
    let mut riders: Vec<PendingRequest> = picked
        .iter()
        .rev()
        .map(|&index| state.pending.remove(index).expect("a scanned index"))
        .collect();
    riders.reverse();
    riders
}

/// How far ahead of a wake instant (a linger deadline or a backoff
/// maturing) a replica's timed wait ends. From there to the instant the
/// replica yields its CPU between rescans instead of sleeping, so a
/// partial micro-batch leaves within a few µs of its deadline instead of
/// the timer's lateness after it, and never before it.
///
/// Why 60 µs: on a 2-vCPU KVM host running Linux 6.18,
/// `Condvar::wait_timeout` and `thread::sleep` at 20 µs and 100 µs
/// returned 54.6–57.0 µs late at p50 and 56.4–65.9 µs late at p90 over
/// three probe runs: the default 50 µs timer slack of a normal thread
/// (`/proc/self/timerslack_ns` reads 50000) plus the wake-up; a
/// cross-thread condvar wake took 4.9 µs at p50. Lowering the slack
/// takes `prctl(PR_SET_TIMERSLACK)`, a foreign call the workspace's
/// `forbid(unsafe_code)` rules out. Lateness grows with the length of
/// the sleep: over 9 rounds of 50 lone requests, a 200 µs linger left
/// a median 60–69 µs after its deadline with a plain timed wait and
/// 0.7–1.3 µs with this window, but a 2 ms linger 66–92 µs and 9–35 µs,
/// because a 1.94 ms sleep can overshoot by more than the window: a
/// wait longer than [`LONG_WAIT`] is therefore split (see there). A
/// host whose timers run later than the window only leaves later; none
/// can make a dispatch early, because the dispatch test itself waits
/// for the deadline to pass.
const WAKE_EARLY: Duration = Duration::from_micros(60);

/// A timed wait longer than this can overshoot by more than
/// [`WAKE_EARLY`], so it is split: its first part ends [`LAST_WAIT`]
/// short of the wake instant, and a second, short timed wait from there
/// ends inside the window. Waits up to this long (every sub-millisecond
/// linger) take a single timed wait.
const LONG_WAIT: Duration = Duration::from_millis(1);

/// How far ahead of the wake instant the first part of a split wait
/// ends: the 200 µs lingers that leave 0.7–1.3 µs late with one timed
/// wait, and more than the first part's own overshoot.
const LAST_WAIT: Duration = Duration::from_micros(200);

/// One replica's loop: collect → coalesce → run → finish, retrying
/// transient failures and surviving backend panics, until the pool is
/// closed *and* nothing unresolved remains. Each turn reads the waiting
/// room once: the read that decides to dispatch is the one coalescing
/// picks from.
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
    let mut scan = RoomScan::default();
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
            scan.read(&state.pending, now);
            // Dispatch once the batch is full, a deadline has passed (only
            // eligible requests carry one) or the pool drains.
            if scan.eligible_tokens >= policy.queue.max_batch
                || scan.next_deadline.is_some_and(|deadline| deadline <= now)
                || (!state.open && !scan.eligible.is_empty())
            {
                break;
            }
            // Wake at the earlier of the dispatch deadline and the first
            // backing-off rider maturing; an unrepresentable deadline
            // across the whole room ("wait until the batch fills")
            // degrades to an untimed wait — work or close() wakes us.
            let Some(wake) = scan.next_deadline.into_iter().chain(scan.next_retry).min() else {
                state = shared.work.wait(state).unwrap_or_else(|p| p.into_inner());
                continue;
            };
            let left = wake.saturating_duration_since(now);
            if left > WAKE_EARLY {
                // Sleep until `WAKE_EARLY` short of the wake instant; the
                // timer's lateness uses up most of the rest. A long wait
                // first sleeps until `LAST_WAIT` short of it.
                let early = if left > LONG_WAIT {
                    LAST_WAIT
                } else {
                    WAKE_EARLY
                };
                let (s, _) = shared
                    .work
                    .wait_timeout(state, left - early)
                    .unwrap_or_else(|p| p.into_inner());
                state = s;
            } else {
                // A timed wait this close would overshoot the instant.
                // Yield instead of spinning (a spin would starve a
                // submitter sharing this CPU) and rescan under the lock,
                // so a batch that fills or a close() dispatches on the
                // next turn.
                drop(state);
                std::thread::yield_now();
                state = shared.lock_state();
            }
        }

        // ── Coalesce: whole requests per the fairness discipline ──
        let riders = coalesce(&mut state, policy, &scan.eligible);
        drop(state);
        // Let sibling replicas pick up what this micro-batch left
        // behind, instead of lingering until their own timeouts fire.
        shared.work.notify_all();

        // ── Run: one backend call for the whole micro-batch ──
        let guard = BatchInFlight {
            shared,
            riders,
            dispatched: Instant::now(),
            settled: false,
        };
        // One copy of every rider into the micro-batch; a lone rider's
        // batch is shared as it is.
        let micro = TokenBatch::concat(guard.riders.iter().map(|r| &r.batch))
            .expect("submit checked every rider against the pool's shape");
        // A panicking backend must not take the whole pool down with it:
        // catch the unwind, re-queue the riders, and respawn or retire
        // this replica. `AssertUnwindSafe` is sound here because the
        // backend is discarded (rebuilt or retired) after any panic.
        let ran =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| backend.run_batch(&micro)));
        let service = guard.dispatched.elapsed();
        match ran {
            Ok(ran) => {
                // A custom backend that broke the one-observation-per-token
                // contract gets a typed rejection, not mis-sliced outputs
                // — fatal, not transient: the backend would do it again.
                let outcome = ran.and_then(|result| {
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
                });
                // Harvest this replica's cache counters after every
                // attempt that returned — failed ones included: a
                // transient fault still counted its misses.
                let cache = backend.cache_stats();
                guard.finish(policy, replica, service, outcome, |state| {
                    if let Some(cache) = cache {
                        state.stats.note_cache(replica, cache);
                    }
                });
            }
            Err(_panic) => {
                // The panicked backend is poisoned: rebuild it from the
                // recipe while the restart budget lasts. A recipe that
                // itself panics or errors burns a respawn and tries again
                // (or falls through to quarantine).
                let mut rebuilt = None;
                while rebuilt.is_none() && respawns_left > 0 {
                    respawns_left -= 1;
                    rebuilt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| recipe()))
                        .ok()
                        .and_then(Result::ok);
                }
                let respawned = rebuilt.is_some();
                if let Some(rebuilt) = rebuilt {
                    backend = rebuilt;
                }
                // The riders are blameless until proven otherwise: they go
                // back to the room under the retry budget in the lock that
                // counts the respawn or the quarantine, so a reply resolved
                // after the crash always finds it counted. The dead
                // backend's cache stores die with it; retiring its slot
                // lets a rebuilt backend's stores count from zero.
                guard.finish(
                    policy,
                    replica,
                    service,
                    Err(BackendError::ReplicaPanicked),
                    |state| {
                        state.stats.retire_cache(replica);
                        if respawned {
                            state.restarts += 1;
                        } else {
                            exit.count(state);
                        }
                    },
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
    use crate::chaos::{wrap_recipe, ChaosConfig, ChaosState};
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

    /// The linger's promise from outside: a lone request's partial
    /// batch leaves no earlier than `max_linger` after submission, and
    /// within tens of µs after it. A timing bound, so it is ignored in
    /// the parallel debug run; run it alone in release:
    /// `cargo test --release -q -p maddpipe-runtime pool::tests::a_partial_batch_leaves -- --ignored --test-threads=1`.
    #[test]
    #[ignore = "timing bound: run alone in release"]
    fn a_partial_batch_leaves_within_30_us_of_its_linger() {
        assert_lone_requests_leave_within_30_us(Duration::from_micros(200));
    }

    /// Submits 50 lone one-token requests one after another to a
    /// one-replica pool lingering `linger`, and checks that none leaves
    /// before its linger and that the median leaves less than 30 µs
    /// after it.
    fn assert_lone_requests_leave_within_30_us(linger: Duration) {
        let policy =
            ServePolicy::default().with_queue(QueuePolicy::default().with_max_linger(linger));
        let (pool, program) = functional_pool(1, policy);
        let mut late: Vec<Duration> = (0..50)
            .map(|seed| {
                let batch = TokenBatch::random(2, 1, seed);
                let reply = pool.submit(batch.clone()).unwrap().wait().unwrap();
                assert_eq!(
                    reply.result.tokens.get(0).unwrap().outputs,
                    program.reference_output(&batch.tokens()[0])
                );
                reply
                    .queue_wait
                    .checked_sub(linger)
                    .expect("a partial batch never leaves before its linger")
            })
            .collect();
        late.sort();
        let median = late[late.len() / 2];
        assert!(
            median < Duration::from_micros(30),
            "partial batches left a median {median:?} after their {linger:?} linger"
        );
        pool.shutdown();
    }

    /// The same promise at a millisecond linger, whose timed wait is
    /// split so its last part ends inside the `WAKE_EARLY` window; with a
    /// single 1.94 ms wait the median lateness read 66–92 µs. Run it
    /// alone in release:
    /// `cargo test --release -q -p maddpipe-runtime pool::tests::a_partial_batch_leaves -- --ignored --test-threads=1`.
    #[test]
    #[ignore = "timing bound: run alone in release"]
    fn a_partial_batch_leaves_within_30_us_of_a_2_ms_linger() {
        assert_lone_requests_leave_within_30_us(Duration::from_millis(2));
    }

    #[test]
    fn drained_replicas_stay_healthy_in_the_shutdown_stats() {
        // The first backend call panics, on whichever replica takes it.
        let program = MacroProgram::random(2, 2, 11);
        let recipe = wrap_recipe(
            functional_recipe(&program),
            ChaosConfig::default().with_panic_on_call(0),
            ChaosState::new(),
        );
        let policy = ServePolicy::default()
            .with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO));
        let pool = ReplicaPool::from_recipes(policy, 2, vec![recipe; 2]).expect("pool builds");
        let batch = TokenBatch::random(2, 4, 5);
        let reply = pool
            .submit(batch.clone())
            .unwrap()
            .wait()
            .expect("the crashed batch is retried");
        for (t, token) in batch.tokens().iter().enumerate() {
            assert_eq!(
                reply.result.tokens.get(t).unwrap().outputs,
                program.reference_output(token)
            );
        }
        // Both replicas drained out of their loops on shutdown; neither
        // was lost.
        let stats = pool.shutdown();
        assert_eq!(
            stats.pool_health(),
            PoolHealth {
                healthy: 2,
                quarantined: 0,
                restarts: 1,
            }
        );
        let line = stats.to_string();
        assert!(line.contains("2/2 replicas healthy"), "{line}");
    }

    /// One replica turn at `now` over a room of 2-token requests, each
    /// given as its client and, for a rider re-queued once, its backoff
    /// end: the room positions the read counted eligible and those
    /// coalescing took, in room order.
    fn turn(
        room: &[(u64, Option<Instant>)],
        fairness: Fairness,
        max_batch: usize,
        now: Instant,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut state = PoolState::default();
        for &(client, retry_at) in room {
            state.pending_tokens += 2;
            state.pending.push_back(PendingRequest {
                batch: TokenBatch::random(2, 2, client),
                ticket: TicketCell::new(),
                submitted: now,
                client,
                dispatch_by: Some(now),
                attempts: u32::from(retry_at.is_some()),
                retry_at,
            });
        }
        let tickets: Vec<_> = state
            .pending
            .iter()
            .map(|r| Arc::clone(&r.ticket))
            .collect();
        let policy = ServePolicy::default()
            .with_fairness(fairness)
            .with_queue(QueuePolicy::default().with_max_batch(max_batch));
        let mut scan = RoomScan::default();
        scan.read(&state.pending, now);
        let taken = coalesce(&mut state, &policy, &scan.eligible)
            .iter()
            .map(|r| tickets.iter().position(|t| Arc::ptr_eq(t, &r.ticket)))
            .map(|at| at.expect("a rider comes from the room"))
            .collect();
        assert_eq!(state.pending_tokens, 2 * state.pending.len());
        (scan.eligible, taken)
    }

    /// `finish` stores every rider's reply before it wakes any rider:
    /// when the first rider's completion runs, the second rider's reply
    /// is already stored.
    #[test]
    fn a_micro_batch_stores_every_reply_before_waking_anyone() {
        let shared = PoolShared {
            state: Mutex::new(PoolState {
                outstanding: 2,
                ..PoolState::default()
            }),
            work: Condvar::new(),
            started: Instant::now(),
        };
        let second = TicketCell::new();
        let probe = BatchTicket::from_cell(Arc::clone(&second));
        let (seen, stored_first) = mpsc::channel();
        let first = TicketCell::with_completion(move |_| {
            seen.send(probe.is_ready()).expect("the test listens");
        });
        let rider = |ticket| PendingRequest {
            batch: TokenBatch::random(2, 1, 0),
            ticket,
            submitted: Instant::now(),
            client: 0,
            dispatch_by: None,
            attempts: 0,
            retry_at: None,
        };
        let batch = BatchInFlight {
            shared: &shared,
            riders: vec![rider(first), rider(Arc::clone(&second))],
            dispatched: Instant::now(),
            settled: false,
        };
        let result = BatchResult {
            backend: "probe",
            tokens: Observations::from_outputs(2, 1, vec![3, 4]),
            makespan: None,
            energy: None,
        };
        batch.finish(
            &ServePolicy::default(),
            0,
            Duration::ZERO,
            Ok(result),
            |_| (),
        );
        assert_eq!(stored_first.recv(), Ok(true), "the second reply came first");
        let reply = BatchTicket::from_cell(second).wait().expect("served");
        assert_eq!(
            reply.result.tokens.get(0).map(|t| t.outputs),
            Some(&[4][..])
        );
        assert_eq!(shared.lock_state().outstanding, 0);
    }

    #[test]
    fn a_turn_dispatches_what_it_counted_eligible_and_nothing_behind_a_held_rider() {
        let now = Instant::now();
        // A rider matured at `now`, one held for a minute, a fresh request.
        let (m, h, f) = (Some(now), Some(now + Duration::from_secs(60)), None);
        let (a, b) = (0, 1);
        // Each room as (client, backoff end) in room order, with the
        // positions a read counts eligible and those sitting behind (or
        // being) a held rider of their own client.
        let rooms = [
            (vec![(a, m), (a, h)], vec![0], vec![1]),
            (vec![(a, h), (a, m)], vec![], vec![0, 1]),
            (vec![(a, m), (b, f), (a, h), (b, f)], vec![0, 1, 3], vec![2]),
            (vec![(a, h), (b, f), (a, m), (b, f)], vec![1, 3], vec![0, 2]),
        ];
        for fairness in [Fairness::Fifo, Fairness::RoundRobin] {
            for (room, eligible, behind_held) in &rooms {
                // A bound every eligible request fits, and one that fits
                // a single 2-token request.
                for max_batch in [64, 2] {
                    let (counted, taken) = turn(room, fairness, max_batch, now);
                    let case = format!("{fairness:?}, max_batch {max_batch}, room {room:?}");
                    assert_eq!(&counted, eligible, "{case}");
                    let fit = eligible.len().min(max_batch / 2);
                    assert_eq!(taken, &eligible[..fit], "{case}");
                    assert!(taken.iter().all(|at| !behind_held.contains(at)), "{case}");
                }
            }
        }
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
