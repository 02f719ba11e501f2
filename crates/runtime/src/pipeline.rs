//! Multi-layer streaming dataflow serving: a whole network as one
//! deployment.
//!
//! The paper's macro is *self-synchronous pipeline accumulation* —
//! stages fire as soon as their inputs arrive, with completion detection
//! instead of a global clock. A [`PipelineGraph`] is the serving-stack
//! analogue of that fabric: a chain of stages, each on its own thread,
//! connected by **bounded** inter-stage queues. A stage fires as soon as
//! an item arrives in its input queue; a full queue blocks the producer,
//! so backpressure propagates hop by hop back to [`PipelineGraph::submit`],
//! which answers typed [`BackendError::QueueFull`] instead of buffering
//! without limit — credit-based flow control, with the queue capacity as
//! the per-hop credit.
//!
//! Two stage flavours compose freely:
//!
//! * [`MacroStage`] — a `(program, BackendKind)` recipe served by its
//!   own [`ReplicaPool`]: an `encode` closure turns the float activation
//!   into a [`TokenBatch`] (e.g. im2col patches), the pool runs it on
//!   the macro (with [`RecoveryPolicy`]-driven retry/respawn), and a
//!   `decode` closure turns the [`BatchResult`] back into floats.
//! * [`HostStage`] — a lightweight host-side closure for the layers that
//!   never touch the macro (ReLU, pooling, BN affine, the final linear).
//!
//! `crates/nn` lowers a whole network into a [`PipelineSpec`] (see
//! `Network::to_pipeline_spec`), so "serve a CNN" becomes
//! `submit(image) -> logits ticket`.
//!
//! Failure semantics mirror the rest of the serving stack, one level up:
//!
//! * an item-level failure (exhausted retries, a wrong-width payload
//!   fault) resolves *that* ticket with [`BackendError::Stage`] naming
//!   the stage, and the pipeline keeps serving everyone else
//!   bit-identically;
//! * a stage-level death (a stage's pool closed — every replica
//!   quarantined) fails the whole graph: intake closes, and **every**
//!   in-flight ticket resolves with the typed stage error. No ticket is
//!   ever leaked.
//!
//! Tickets are the pool's [`BatchTicket`] at the pipeline's reply type,
//! with one addition: a [`PipelineTicket::state`] probe reporting *where*
//! the request currently is ([`TicketState::Queued`] /
//! [`TicketState::Running`] at stage `k`), so a timed-out wait can say
//! "blocked at stage k" instead of timing out opaquely.
//!
//! ```
//! use maddpipe_runtime::prelude::*;
//! use maddpipe_core::prelude::*;
//! use maddpipe_amm::quant::QuantScale;
//!
//! let cfg = MacroConfig::new(2, 1);
//! let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
//! let spec = PipelineSpec::new()
//!     .host("halve", |x: Vec<f32>| Ok(x.into_iter().map(|v| v * 0.5).collect()))
//!     .macro_stage(
//!         MacroStage::new(
//!             "macro",
//!             &cfg,
//!             program,
//!             BackendKind::Functional { workers: 1 },
//!             |x: &[f32]| TokenBatch::from_f32_rows(&[x], 1, QuantScale::UNIT),
//!             |r: &BatchResult| Ok(r.tokens.get(0).unwrap().outputs.iter().map(|&v| v as f32).collect()),
//!         )
//!         .unwrap(),
//!     );
//! let pipe = PipelineGraph::build(spec, PipelinePolicy::default()).unwrap();
//! let reply = pipe.submit(vec![2.0; 9]).unwrap().wait().unwrap();
//! assert_eq!(reply.outputs.len(), 2); // one decoder chain output each
//! let stats = pipe.shutdown();
//! assert_eq!(stats.images(), 1);
//! assert_eq!(stats.stage_profiles().len(), 2);
//! ```

use crate::backend::BackendKind;
use crate::batch::{BatchResult, TokenBatch};
use crate::error::{BackendError, QueueLimit};
use crate::pool::{RecoveryPolicy, ReplicaFactory, ReplicaPool, ServePolicy};
use crate::queue::{BatchTicket, QueuePolicy, TicketCell};
use crate::session::SessionStats;
use maddpipe_core::config::MacroConfig;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A host-side stage function: one activation vector in, one out.
pub type HostFn = Arc<dyn Fn(Vec<f32>) -> Result<Vec<f32>, BackendError> + Send + Sync>;

/// Turns a stage's input activation into the [`TokenBatch`] its macro
/// runs (e.g. im2col patches, one token per output pixel).
pub type EncodeFn = Arc<dyn Fn(&[f32]) -> Result<TokenBatch, BackendError> + Send + Sync>;

/// Turns the macro's [`BatchResult`] back into the stage's output
/// activation.
pub type DecodeFn = Arc<dyn Fn(&BatchResult) -> Result<Vec<f32>, BackendError> + Send + Sync>;

/// A lightweight host-side pipeline stage: a pure closure on the stage
/// thread, for the layers that never touch the macro (ReLU, pooling,
/// affine/BN, linear heads).
///
/// A panicking closure costs only the item that triggered it (resolved
/// as [`BackendError::ReplicaPanicked`] wrapped in
/// [`BackendError::Stage`]); host stages are not retried — a pure
/// closure that panics once panics every time.
#[derive(Clone)]
pub struct HostStage {
    name: String,
    apply: HostFn,
}

impl HostStage {
    /// Wraps a host closure as a named stage.
    pub fn new(
        name: impl Into<String>,
        apply: impl Fn(Vec<f32>) -> Result<Vec<f32>, BackendError> + Send + Sync + 'static,
    ) -> HostStage {
        HostStage {
            name: name.into(),
            apply: Arc::new(apply),
        }
    }

    /// The stage's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl core::fmt::Debug for HostStage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HostStage")
            .field("name", &self.name)
            .finish()
    }
}

/// A macro-served pipeline stage: a rebuildable backend recipe (so the
/// stage's [`ReplicaPool`] can respawn crashed replicas), the
/// encode/decode pair that moves activations across the float/token
/// boundary, and the [`StagePolicy`] sizing the pool.
#[derive(Clone)]
pub struct MacroStage {
    name: String,
    ns: usize,
    recipe: ReplicaFactory,
    policy: StagePolicy,
    encode: EncodeFn,
    decode: DecodeFn,
}

impl MacroStage {
    /// Builds a macro stage from a `(program, kind)` recipe, validating
    /// the program against `cfg` here (fail fast, on the caller's
    /// thread). The backend itself is built later, on the stage's
    /// replica threads.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ProgramMismatch`] /
    /// [`BackendError::MalformedProgram`] when the program does not fit
    /// the configuration.
    pub fn new(
        name: impl Into<String>,
        cfg: &MacroConfig,
        program: maddpipe_core::macro_rtl::MacroProgram,
        kind: BackendKind,
        encode: impl Fn(&[f32]) -> Result<TokenBatch, BackendError> + Send + Sync + 'static,
        decode: impl Fn(&BatchResult) -> Result<Vec<f32>, BackendError> + Send + Sync + 'static,
    ) -> Result<MacroStage, BackendError> {
        crate::backend::validate_program(cfg, &program)?;
        let cfg = cfg.clone();
        let ns = cfg.ns;
        let recipe: ReplicaFactory = Arc::new(move || kind.build(&cfg, program.clone()));
        Ok(MacroStage::from_recipe(name, ns, recipe, encode, decode))
    }

    /// Builds a macro stage from an arbitrary rebuildable recipe — the
    /// hook tests use to wrap a stage's backends in
    /// [`ChaosBackend`](crate::chaos::ChaosBackend) via
    /// [`wrap_recipe`](crate::chaos::wrap_recipe).
    pub fn from_recipe(
        name: impl Into<String>,
        ns: usize,
        recipe: ReplicaFactory,
        encode: impl Fn(&[f32]) -> Result<TokenBatch, BackendError> + Send + Sync + 'static,
        decode: impl Fn(&BatchResult) -> Result<Vec<f32>, BackendError> + Send + Sync + 'static,
    ) -> MacroStage {
        MacroStage {
            name: name.into(),
            ns,
            recipe,
            policy: StagePolicy::default(),
            encode: Arc::new(encode),
            decode: Arc::new(decode),
        }
    }

    /// Replaces the stage's serving policy.
    #[must_use]
    pub fn with_policy(mut self, policy: StagePolicy) -> MacroStage {
        self.policy = policy;
        self
    }

    /// Rewrites the stage's backend recipe through `wrap` — chaos
    /// wrapping, instrumentation, or any other recipe decorator.
    #[must_use]
    pub fn map_recipe(mut self, wrap: impl FnOnce(ReplicaFactory) -> ReplicaFactory) -> MacroStage {
        self.recipe = wrap(self.recipe);
        self
    }

    /// The stage's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl core::fmt::Debug for MacroStage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MacroStage")
            .field("name", &self.name)
            .field("ns", &self.ns)
            .field("policy", &self.policy)
            .finish()
    }
}

/// One stage of a [`PipelineSpec`]: host-side closure or macro recipe.
#[derive(Debug, Clone)]
pub enum StageSpec {
    /// A host-side closure stage.
    Host(HostStage),
    /// A macro-served stage behind its own replica pool.
    Macro(MacroStage),
}

impl StageSpec {
    /// The stage's name.
    pub fn name(&self) -> &str {
        match self {
            StageSpec::Host(h) => h.name(),
            StageSpec::Macro(m) => m.name(),
        }
    }
}

/// An ordered description of a dataflow pipeline — what
/// [`PipelineGraph::build`] deploys. `crates/nn` lowers a whole network
/// into one of these.
#[derive(Debug, Clone, Default)]
pub struct PipelineSpec {
    stages: Vec<StageSpec>,
}

impl PipelineSpec {
    /// An empty spec; chain [`host`](PipelineSpec::host) /
    /// [`macro_stage`](PipelineSpec::macro_stage) onto it.
    pub fn new() -> PipelineSpec {
        PipelineSpec::default()
    }

    /// Appends a stage.
    pub fn push(&mut self, stage: StageSpec) {
        self.stages.push(stage);
    }

    /// Appends a host-side closure stage (builder style).
    #[must_use]
    pub fn host(
        mut self,
        name: impl Into<String>,
        apply: impl Fn(Vec<f32>) -> Result<Vec<f32>, BackendError> + Send + Sync + 'static,
    ) -> PipelineSpec {
        self.push(StageSpec::Host(HostStage::new(name, apply)));
        self
    }

    /// Appends a macro stage (builder style).
    #[must_use]
    pub fn macro_stage(mut self, stage: MacroStage) -> PipelineSpec {
        self.push(StageSpec::Macro(stage));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the spec has no stages yet.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage names, in order.
    pub fn stage_names(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.name().to_string()).collect()
    }

    /// The stages, in order.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Runs `input` through every stage synchronously on the calling
    /// thread — each macro stage's backend built once from its recipe —
    /// and returns every stage's output, in order. This is the golden
    /// reference the deployed graph is held bit-identical to, and the
    /// per-stage counterpart of `Network::forward_trace`.
    ///
    /// # Errors
    ///
    /// Propagates the first stage failure (backend construction,
    /// encode/run/decode, or a host closure's own error).
    pub fn reference_trace(&self, input: &[f32]) -> Result<Vec<Vec<f32>>, BackendError> {
        let mut x = input.to_vec();
        let mut trace = Vec::with_capacity(self.stages.len());
        for stage in &self.stages {
            x = match stage {
                StageSpec::Host(h) => (h.apply)(x)?,
                StageSpec::Macro(m) => {
                    let mut backend = (m.recipe)()?;
                    let batch = (m.encode)(&x)?;
                    let result = backend.run_batch(&batch)?;
                    (m.decode)(&result)?
                }
            };
            trace.push(x.clone());
        }
        Ok(trace)
    }
}

/// How one [`MacroStage`] is served: replica count, recovery budget and
/// the queue policy of its internal [`ReplicaPool`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePolicy {
    /// Data-parallel replicas serving this stage.
    pub replicas: usize,
    /// Retry/respawn budget for this stage's pool.
    pub recovery: RecoveryPolicy,
    /// The stage pool's coalescing/backpressure policy. The pipeline
    /// raises `max_depth` as needed so the *inter-stage* queues (sized
    /// by [`PipelinePolicy::capacity`]) stay the binding backpressure
    /// bound.
    pub queue: QueuePolicy,
}

impl Default for StagePolicy {
    /// One replica, the default recovery budget, zero linger (a
    /// pipeline stage's window submits items as they arrive; lingering
    /// would only add latency).
    fn default() -> StagePolicy {
        StagePolicy {
            replicas: 1,
            recovery: RecoveryPolicy::default(),
            queue: QueuePolicy::default().with_max_linger(Duration::ZERO),
        }
    }
}

impl StagePolicy {
    /// Sets the replica count (clamped to at least 1 at build time).
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize) -> StagePolicy {
        self.replicas = replicas;
        self
    }

    /// Sets the retry/respawn budget.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> StagePolicy {
        self.recovery = recovery;
        self
    }

    /// Sets the stage pool's queue policy.
    #[must_use]
    pub fn with_queue(mut self, queue: QueuePolicy) -> StagePolicy {
        self.queue = queue;
        self
    }
}

/// Graph-wide deployment knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelinePolicy {
    /// Bounded capacity of every inter-stage queue, the intake included —
    /// the per-hop credit of the backpressure scheme. A full intake
    /// rejects [`PipelineGraph::submit`] with
    /// [`BackendError::QueueFull`]; a full inter-stage queue blocks the
    /// upstream stage until the consumer catches up.
    pub capacity: usize,
}

impl Default for PipelinePolicy {
    /// 8 items of credit per hop.
    fn default() -> PipelinePolicy {
        PipelinePolicy { capacity: 8 }
    }
}

impl PipelinePolicy {
    /// Sets the per-hop queue capacity (clamped to at least 1).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> PipelinePolicy {
        self.capacity = capacity.max(1);
        self
    }
}

/// Where a submitted request currently is — the stage-position probe
/// behind [`PipelineTicket::state`]. A wait that timed out can report
/// "blocked at stage k" instead of timing out opaquely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TicketState {
    /// Waiting in stage `stage`'s input queue.
    Queued {
        /// The stage whose queue holds the request.
        stage: usize,
    },
    /// Being served by stage `stage` (in its host closure or its pool).
    Running {
        /// The stage serving the request.
        stage: usize,
    },
    /// Resolved — [`PipelineTicket::wait`]/[`poll`](PipelineTicket::poll)
    /// returns immediately.
    Done,
}

impl TicketState {
    /// The stage the request is at, `None` once resolved.
    pub fn stage(self) -> Option<usize> {
        match self {
            TicketState::Queued { stage } | TicketState::Running { stage } => Some(stage),
            TicketState::Done => None,
        }
    }
}

/// What a resolved [`PipelineTicket`] carries back: the final stage's
/// output (the logits, for a lowered network) and the end-to-end latency
/// from submit to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReply {
    /// The last stage's output activation.
    pub outputs: Vec<f32>,
    /// Host time from submit to the last stage completing.
    pub latency: Duration,
}

/// A future-like handle to one submitted pipeline request. Resolves
/// exactly once — with the final output, or with a typed
/// [`BackendError::Stage`] naming where in the dataflow it failed — and
/// reports where the request currently is through
/// [`state`](PipelineTicket::state).
pub type PipelineTicket = BatchTicket<PipelineReply>;

/// One request travelling the graph.
struct PipeItem {
    payload: Vec<f32>,
    cell: Arc<TicketCell<PipelineReply>>,
    /// When the graph accepted the request (end-to-end latency origin).
    submitted: Instant,
    /// When the item entered its current stage's queue (residence origin).
    entered: Instant,
}

/// What a stage sees when it asks its input queue for work.
enum Pop {
    /// An item to serve.
    Item(PipeItem),
    /// Nothing queued right now (non-blocking pop only).
    Empty,
    /// The queue is closed and drained: no more work will ever arrive.
    Closed,
    /// The pipeline failed: every still-queued item, for the consumer to
    /// resolve with the failure.
    Failed(Vec<PipeItem>, BackendError),
}

struct QueueInner {
    items: VecDeque<PipeItem>,
    closed: bool,
    failed: Option<BackendError>,
    high_water: u64,
}

/// One bounded inter-stage queue — the per-hop credit of the
/// backpressure scheme.
struct StageQueue {
    inner: Mutex<QueueInner>,
    /// Signalled when space frees up (producers wait on this).
    space: Condvar,
    /// Signalled when work or a terminal state arrives (consumers wait).
    ready: Condvar,
    capacity: usize,
}

impl StageQueue {
    fn new(capacity: usize) -> Arc<StageQueue> {
        Arc::new(StageQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
                failed: None,
                high_water: 0,
            }),
            space: Condvar::new(),
            ready: Condvar::new(),
            capacity,
        })
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Non-blocking admission — the intake path. Typed backpressure
    /// when full, the stored failure after a stage death.
    fn try_submit(&self, item: PipeItem) -> Result<(), BackendError> {
        let mut q = self.lock();
        if let Some(e) = &q.failed {
            return Err(e.clone());
        }
        if q.closed {
            return Err(BackendError::QueueClosed);
        }
        if q.items.len() >= self.capacity {
            return Err(BackendError::QueueFull {
                limit: QueueLimit::Requests {
                    max_depth: self.capacity,
                },
            });
        }
        q.items.push_back(item);
        q.high_water = q.high_water.max(q.items.len() as u64);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking admission — the stage-to-stage path: a full queue holds
    /// the producer until the consumer catches up (backpressure
    /// propagating upstream hop by hop).
    ///
    /// Hands the item back when the pipeline failed while waiting, so
    /// the caller can resolve its ticket with the failure.
    fn push_blocking(
        &self,
        mut item: PipeItem,
        stage: usize,
    ) -> Result<(), (PipeItem, BackendError)> {
        item.entered = Instant::now();
        item.cell.set_position(TicketState::Queued { stage });
        let mut q = self.lock();
        loop {
            if let Some(e) = &q.failed {
                let e = e.clone();
                drop(q);
                return Err((item, e));
            }
            if q.items.len() < self.capacity {
                break;
            }
            q = self.space.wait(q).unwrap_or_else(|p| p.into_inner());
        }
        q.items.push_back(item);
        q.high_water = q.high_water.max(q.items.len() as u64);
        self.ready.notify_one();
        Ok(())
    }

    fn pop(&self, block: bool) -> Pop {
        let mut q = self.lock();
        loop {
            if let Some(e) = q.failed.clone() {
                let drained = q.items.drain(..).collect();
                self.space.notify_all();
                return Pop::Failed(drained, e);
            }
            if let Some(item) = q.items.pop_front() {
                self.space.notify_one();
                return Pop::Item(item);
            }
            if q.closed {
                return Pop::Closed;
            }
            if !block {
                return Pop::Empty;
            }
            q = self.ready.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Stops admission; already-queued items still drain. Idempotent.
    fn close(&self) {
        let mut q = self.lock();
        q.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    /// Marks the pipeline failed through this queue: producers unblock
    /// with the error, the consumer drains and resolves everything
    /// queued. The first failure wins. Idempotent.
    fn fail(&self, error: &BackendError) {
        let mut q = self.lock();
        if q.failed.is_none() {
            q.failed = Some(error.clone());
        }
        q.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
    }

    fn high_water(&self) -> u64 {
        self.lock().high_water
    }
}

/// State shared by the graph handle and every stage thread.
struct PipeShared {
    queues: Vec<Arc<StageQueue>>,
    stats: Mutex<SessionStats>,
    /// Requests accepted and not yet resolved, graph-wide.
    in_flight: AtomicUsize,
    started: Instant,
    /// The first stage-death error, reported to later submitters.
    failure: Mutex<Option<BackendError>>,
}

impl PipeShared {
    fn stats(&self) -> MutexGuard<'_, SessionStats> {
        self.stats.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn failure(&self) -> Option<BackendError> {
        self.failure
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Resolves a ticket (first resolution wins) and keeps the in-flight
    /// count exact — the zero-leak invariant lives here. The decrement
    /// runs under the cell lock, so a submitter whose wait just
    /// returned already sees it reflected in [`PipelineGraph::depth`].
    fn finish(&self, cell: &TicketCell<PipelineReply>, value: Result<PipelineReply, BackendError>) {
        cell.resolve(value, || {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
        });
    }

    /// Fails the whole graph: records the error for future submitters
    /// and propagates it through every queue (unblocking producers and
    /// consumers alike).
    fn fail(&self, error: &BackendError) {
        {
            let mut failure = self.failure.lock().unwrap_or_else(|p| p.into_inner());
            if failure.is_none() {
                *failure = Some(error.clone());
            }
        }
        for queue in &self.queues {
            queue.fail(error);
        }
    }
}

/// Per-stage-thread context: where this stage sits in the graph.
struct StageCtx {
    index: usize,
    shared: Arc<PipeShared>,
    input: Arc<StageQueue>,
    /// `None` for the last stage, which resolves tickets instead.
    output: Option<Arc<StageQueue>>,
}

impl StageCtx {
    /// Wraps a stage-local failure with this stage's index.
    fn stage_err(&self, source: BackendError) -> BackendError {
        BackendError::Stage {
            stage: self.index,
            source: Box::new(source),
        }
    }

    /// Completes one item: resolve the ticket (last stage) or push the
    /// new activation downstream, resolving with the failure if the
    /// pipeline died while we were blocked on a full queue.
    fn forward(&self, mut item: PipeItem, outputs: Vec<f32>) {
        match &self.output {
            None => {
                let latency = item.submitted.elapsed();
                self.shared.stats().record_pipeline_reply(latency);
                self.shared
                    .finish(&item.cell, Ok(PipelineReply { outputs, latency }));
            }
            Some(queue) => {
                item.payload = outputs;
                if let Err((item, e)) = queue.push_blocking(item, self.index + 1) {
                    self.shared.finish(&item.cell, Err(e));
                }
            }
        }
    }

    /// Resolves a batch of drained items with the pipeline failure.
    fn drain(&self, items: Vec<PipeItem>, error: &BackendError) {
        for item in items {
            self.shared.finish(&item.cell, Err(error.clone()));
        }
    }

    /// Folds one completed item into this stage's profile.
    fn record_item(&self, busy: Duration, residence: Duration) {
        self.shared
            .stats()
            .record_stage_item(self.index, busy, residence);
    }

    /// Closes the downstream queue (last stage: nothing to close).
    fn close_downstream(&self) {
        if let Some(queue) = &self.output {
            queue.close();
        }
    }
}

/// The serve loop of a host stage: pop, apply, forward. A panicking or
/// erroring closure costs only the item that hit it.
fn host_loop(ctx: StageCtx, stage: HostStage) {
    loop {
        match ctx.input.pop(true) {
            Pop::Empty => continue,
            Pop::Closed => {
                ctx.close_downstream();
                return;
            }
            Pop::Failed(items, error) => {
                ctx.drain(items, &error);
                return;
            }
            Pop::Item(mut item) => {
                item.cell
                    .set_position(TicketState::Running { stage: ctx.index });
                let payload = std::mem::take(&mut item.payload);
                let apply = Arc::clone(&stage.apply);
                let t0 = Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(move || apply(payload)));
                let busy = t0.elapsed();
                ctx.record_item(busy, item.entered.elapsed());
                match outcome {
                    Ok(Ok(outputs)) => ctx.forward(item, outputs),
                    Ok(Err(e)) => ctx.shared.finish(&item.cell, Err(ctx.stage_err(e))),
                    Err(_) => ctx.shared.finish(
                        &item.cell,
                        Err(ctx.stage_err(BackendError::ReplicaPanicked)),
                    ),
                }
            }
        }
    }
}

/// The serve loop of a macro stage: keep up to `window` items in flight
/// in the stage's pool, complete them in FIFO order (so the global
/// stream order is preserved whatever the pool's internal scheduling),
/// forward downstream. Item-level failures (exhausted retries, payload
/// faults) resolve only that item's ticket; the pool *closing* — every
/// replica quarantined — is stage death and fails the whole graph.
fn macro_loop(
    ctx: StageCtx,
    pool: Arc<ReplicaPool>,
    encode: EncodeFn,
    decode: DecodeFn,
    window: usize,
) {
    let mut in_flight: VecDeque<(PipeItem, BatchTicket)> = VecDeque::new();
    let mut input_open = true;
    // Fails the graph and resolves everything this stage still holds.
    let stage_death = |ctx: &StageCtx,
                       in_flight: &mut VecDeque<(PipeItem, BatchTicket)>,
                       item: Option<PipeItem>| {
        let error = ctx.stage_err(BackendError::QueueClosed);
        ctx.shared.fail(&error);
        if let Some(item) = item {
            ctx.shared.finish(&item.cell, Err(error.clone()));
        }
        for (item, _ticket) in in_flight.drain(..) {
            ctx.shared.finish(&item.cell, Err(error.clone()));
        }
        // This stage's own input queue has no consumer after we return:
        // drain it here (`fail` above marked it, so pop reports Failed).
        if let Pop::Failed(items, error) = ctx.input.pop(false) {
            ctx.drain(items, &error);
        }
    };
    loop {
        // Fill the window; block only when nothing is in flight.
        while input_open && in_flight.len() < window {
            match ctx.input.pop(in_flight.is_empty()) {
                Pop::Empty => break,
                Pop::Closed => input_open = false,
                Pop::Failed(items, error) => {
                    ctx.drain(items, &error);
                    for (item, _ticket) in in_flight.drain(..) {
                        ctx.shared.finish(&item.cell, Err(error.clone()));
                    }
                    return;
                }
                Pop::Item(item) => {
                    item.cell
                        .set_position(TicketState::Running { stage: ctx.index });
                    match (encode)(&item.payload).and_then(|batch| pool.submit(batch)) {
                        Ok(ticket) => in_flight.push_back((item, ticket)),
                        Err(BackendError::QueueClosed) => {
                            stage_death(&ctx, &mut in_flight, Some(item));
                            return;
                        }
                        Err(e) => ctx.shared.finish(&item.cell, Err(ctx.stage_err(e))),
                    }
                }
            }
        }
        // Complete the oldest in-flight item, preserving stream order.
        let Some((item, ticket)) = in_flight.pop_front() else {
            if !input_open {
                ctx.close_downstream();
                return;
            }
            continue;
        };
        match ticket.wait() {
            Ok(reply) => {
                ctx.record_item(reply.service, item.entered.elapsed());
                match (decode)(&reply.result) {
                    Ok(outputs) => ctx.forward(item, outputs),
                    Err(e) => ctx.shared.finish(&item.cell, Err(ctx.stage_err(e))),
                }
            }
            Err(BackendError::QueueClosed) => {
                stage_death(&ctx, &mut in_flight, Some(item));
                return;
            }
            Err(e) => {
                ctx.record_item(Duration::ZERO, item.entered.elapsed());
                ctx.shared.finish(&item.cell, Err(ctx.stage_err(e)));
            }
        }
    }
}

/// What one stage deploys as: built before any thread spawns, so a
/// failing pool constructor aborts the whole build cleanly.
enum StageRunner {
    Host(HostStage),
    Macro {
        pool: Arc<ReplicaPool>,
        encode: EncodeFn,
        decode: DecodeFn,
        window: usize,
    },
}

/// A deployed dataflow pipeline: one thread per stage, bounded queues
/// between them, `submit(activation) -> ticket` at the front. See the
/// [module docs](crate::pipeline) for the full contract.
pub struct PipelineGraph {
    shared: Arc<PipeShared>,
    pools: Vec<Option<Arc<ReplicaPool>>>,
    handles: Vec<JoinHandle<()>>,
    names: Vec<String>,
    capacity: usize,
}

impl PipelineGraph {
    /// Deploys a spec: builds every macro stage's [`ReplicaPool`] (fail
    /// fast, before any stage thread starts), then spawns one stage
    /// thread per stage, chained by bounded queues of
    /// [`PipelinePolicy::capacity`] items.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::MalformedProgram`] for an empty spec, and
    /// any stage pool's own construction failure (already-built pools
    /// are torn down).
    pub fn build(
        spec: PipelineSpec,
        policy: PipelinePolicy,
    ) -> Result<PipelineGraph, BackendError> {
        if spec.is_empty() {
            return Err(BackendError::MalformedProgram {
                reason: "a pipeline needs at least one stage".into(),
            });
        }
        let capacity = policy.capacity.max(1);
        let names = spec.stage_names();
        // Build the fallible parts first: a failing pool constructor
        // must not leave orphan stage threads behind.
        let mut runners = Vec::with_capacity(spec.len());
        for stage in spec.stages {
            match stage {
                StageSpec::Host(host) => runners.push(StageRunner::Host(host)),
                StageSpec::Macro(m) => {
                    let replicas = m.policy.replicas.max(1);
                    let window = (replicas * 2).max(2);
                    let mut queue = m.policy.queue.clone();
                    // The inter-stage credit must stay the binding
                    // bound: the stage pool itself never rejects the
                    // window's submissions.
                    queue.max_depth = queue.max_depth.max(capacity + window + 1);
                    let serve = ServePolicy::default()
                        .with_replicas(replicas)
                        .with_recovery(m.policy.recovery)
                        .with_queue(queue);
                    let recipes = (0..replicas).map(|_| Arc::clone(&m.recipe)).collect();
                    let pool = Arc::new(ReplicaPool::from_recipes(serve, m.ns, recipes)?);
                    runners.push(StageRunner::Macro {
                        pool,
                        encode: m.encode,
                        decode: m.decode,
                        window,
                    });
                }
            }
        }
        let queues: Vec<Arc<StageQueue>> = (0..runners.len())
            .map(|_| StageQueue::new(capacity))
            .collect();
        let mut stats = SessionStats::default();
        for (i, name) in names.iter().enumerate() {
            stats.init_stage(i, name);
        }
        let shared = Arc::new(PipeShared {
            queues: queues.clone(),
            stats: Mutex::new(stats),
            in_flight: AtomicUsize::new(0),
            started: Instant::now(),
            failure: Mutex::new(None),
        });
        let mut pools = Vec::with_capacity(runners.len());
        let mut handles = Vec::with_capacity(runners.len());
        for (i, runner) in runners.into_iter().enumerate() {
            let ctx = StageCtx {
                index: i,
                shared: Arc::clone(&shared),
                input: Arc::clone(&queues[i]),
                output: queues.get(i + 1).map(Arc::clone),
            };
            let builder = std::thread::Builder::new().name(format!("maddpipe-stage-{i}"));
            let handle = match runner {
                StageRunner::Host(host) => {
                    pools.push(None);
                    builder.spawn(move || host_loop(ctx, host))
                }
                StageRunner::Macro {
                    pool,
                    encode,
                    decode,
                    window,
                } => {
                    pools.push(Some(Arc::clone(&pool)));
                    builder.spawn(move || macro_loop(ctx, pool, encode, decode, window))
                }
            }
            .expect("the host can spawn a stage thread");
            handles.push(handle);
        }
        Ok(PipelineGraph {
            shared,
            pools,
            handles,
            names,
            capacity,
        })
    }

    /// Submits one request (the first stage's input activation);
    /// returns immediately with a ticket.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::QueueFull`] when the intake queue is at
    /// [`PipelinePolicy::capacity`] (backpressure — wait on an
    /// outstanding ticket and retry), [`BackendError::QueueClosed`]
    /// after [`close`](PipelineGraph::close), and the stored
    /// [`BackendError::Stage`] after a stage death.
    pub fn submit(&self, input: Vec<f32>) -> Result<PipelineTicket, BackendError> {
        if let Some(error) = self.shared.failure() {
            return Err(error);
        }
        let cell = TicketCell::new();
        let now = Instant::now();
        let item = PipeItem {
            payload: input,
            cell: Arc::clone(&cell),
            submitted: now,
            entered: now,
        };
        // Pre-count, so a racing completion can never underflow.
        self.shared.in_flight.fetch_add(1, Ordering::SeqCst);
        match self.shared.queues[0].try_submit(item) {
            Ok(()) => {
                let depth = self.shared.in_flight.load(Ordering::SeqCst) as u64;
                self.shared.stats().record_queue_depth(depth);
                Ok(PipelineTicket::from_cell(cell))
            }
            Err(e) => {
                self.shared.in_flight.fetch_sub(1, Ordering::SeqCst);
                Err(e)
            }
        }
    }

    /// Requests accepted and not yet resolved, graph-wide, right now.
    pub fn depth(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// The stage names, in order.
    pub fn stage_names(&self) -> &[String] {
        &self.names
    }

    /// The per-hop queue capacity the graph was deployed with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the aggregate statistics: per-stage profiles
    /// (items, busy time, residence percentiles, retries/respawns,
    /// queue high-water marks), end-to-end images and latency
    /// percentiles, and the summed [`PoolHealth`](crate::pool::PoolHealth)
    /// over every stage pool.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.shared.stats().clone();
        stats.note_pipeline(self.shared.started.elapsed());
        let mut health = crate::pool::PoolHealth::default();
        for (i, pool) in self.pools.iter().enumerate() {
            if let Some(pool) = pool {
                let pool_stats = pool.stats();
                let pool_health = pool.health();
                stats.set_stage_recovery(i, pool_stats.retries(), pool_health.restarts);
                let cache = pool_stats.cache();
                if cache != crate::cache::CacheStats::default() {
                    // The stage pool's aggregate cache view, both on the
                    // stage profile and as a top-level source slot (the
                    // base snapshot never carries cache counters, so the
                    // per-call fold stays cumulative, not double-counted).
                    stats.set_stage_cache(i, cache);
                    stats.note_cache(i, cache);
                }
                health.healthy += pool_health.healthy;
                health.quarantined += pool_health.quarantined;
                health.restarts += pool_health.restarts;
            }
            stats.set_stage_queue_high_water(i, self.shared.queues[i].high_water());
        }
        stats.note_pool_health(health);
        stats
    }

    /// Stops intake (submissions answer [`BackendError::QueueClosed`])
    /// while the stages drain everything already accepted. Does not
    /// block; pair with [`shutdown`](PipelineGraph::shutdown) or ticket
    /// waits to observe the drain finishing. Idempotent.
    pub fn close(&self) {
        self.shared.queues[0].close();
    }

    /// Closes the graph, waits for every stage to drain (every accepted
    /// ticket resolves), tears the stage pools down, and returns the
    /// final statistics.
    pub fn shutdown(mut self) -> SessionStats {
        self.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        let stats = self.stats();
        // The stage threads are gone: each Arc is now unique and the
        // pool's own Drop drains its replicas.
        self.pools.clear();
        stats
    }
}

impl core::fmt::Debug for PipelineGraph {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PipelineGraph")
            .field("stages", &self.names)
            .field("capacity", &self.capacity)
            .field("depth", &self.depth())
            .finish()
    }
}

impl Drop for PipelineGraph {
    fn drop(&mut self) {
        self.close();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_spec_is_rejected() {
        let err = PipelineGraph::build(PipelineSpec::new(), PipelinePolicy::default()).unwrap_err();
        assert!(
            matches!(err, BackendError::MalformedProgram { .. }),
            "{err}"
        );
    }

    #[test]
    fn policies_clamp_and_build() {
        assert_eq!(PipelinePolicy::default().capacity, 8);
        assert_eq!(PipelinePolicy::default().with_capacity(0).capacity, 1);
        let policy = StagePolicy::default()
            .with_replicas(3)
            .with_recovery(RecoveryPolicy::none())
            .with_queue(QueuePolicy::default().with_max_batch(16));
        assert_eq!(policy.replicas, 3);
        assert_eq!(policy.queue.max_batch, 16);
        assert_eq!(
            StagePolicy::default().queue.max_linger,
            Duration::ZERO,
            "stage pools do not linger by default"
        );
    }

    #[test]
    fn a_host_only_graph_serves_in_order() {
        let spec = PipelineSpec::new()
            .host("double", |x: Vec<f32>| {
                Ok(x.into_iter().map(|v| v * 2.0).collect())
            })
            .host("sum", |x: Vec<f32>| Ok(vec![x.iter().sum()]));
        let trace = spec.reference_trace(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(trace, vec![vec![2.0, 4.0, 6.0], vec![12.0]]);
        let pipe = PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(4)).unwrap();
        assert_eq!(pipe.stage_names(), ["double", "sum"]);
        // A burst larger than the intake credit: QueueFull is the typed
        // "try again" backpressure signal, not a failure.
        let tickets: Vec<PipelineTicket> = (0..8)
            .map(|i| loop {
                match pipe.submit(vec![i as f32; 3]) {
                    Ok(ticket) => break ticket,
                    Err(BackendError::QueueFull { .. }) => std::thread::yield_now(),
                    Err(e) => panic!("unexpected intake error: {e}"),
                }
            })
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let reply = ticket.wait().unwrap();
            assert_eq!(reply.outputs, vec![i as f32 * 6.0]);
        }
        assert_eq!(pipe.depth(), 0, "every ticket resolved");
        let stats = pipe.shutdown();
        assert_eq!(stats.images(), 8);
        assert_eq!(stats.stage_profiles()[0].items(), 8);
        assert_eq!(stats.stage_profiles()[1].items(), 8);
        assert!(stats.p99_image_latency().is_some());
    }

    #[test]
    fn a_failing_host_closure_costs_only_its_own_item() {
        let spec = PipelineSpec::new().host("picky", |x: Vec<f32>| {
            if x[0] < 0.0 {
                Err(BackendError::EmptyBatch)
            } else {
                Ok(x)
            }
        });
        let pipe = PipelineGraph::build(spec, PipelinePolicy::default()).unwrap();
        let bad = pipe.submit(vec![-1.0]).unwrap();
        let good = pipe.submit(vec![1.0]).unwrap();
        let err = bad.wait().unwrap_err();
        assert!(
            matches!(
                &err,
                BackendError::Stage { stage: 0, source } if **source == BackendError::EmptyBatch
            ),
            "{err:?}"
        );
        assert_eq!(good.wait().unwrap().outputs, vec![1.0]);
        pipe.shutdown();
    }

    #[test]
    fn a_panicking_host_closure_is_typed_not_fatal() {
        let spec = PipelineSpec::new().host("explosive", |x: Vec<f32>| {
            assert!(x[0] >= 0.0, "injected panic");
            Ok(x)
        });
        let pipe = PipelineGraph::build(spec, PipelinePolicy::default()).unwrap();
        let err = pipe.submit(vec![-1.0]).unwrap().wait().unwrap_err();
        assert!(
            matches!(
                &err,
                BackendError::Stage { stage: 0, source } if **source == BackendError::ReplicaPanicked
            ),
            "{err:?}"
        );
        // The stage thread survived its item's panic.
        assert_eq!(
            pipe.submit(vec![2.0]).unwrap().wait().unwrap().outputs,
            [2.0]
        );
        pipe.shutdown();
    }

    #[test]
    fn close_rejects_new_work_but_drains_accepted_work() {
        let spec = PipelineSpec::new().host("id", Ok);
        let pipe = PipelineGraph::build(spec, PipelinePolicy::default()).unwrap();
        let accepted = pipe.submit(vec![5.0]).unwrap();
        pipe.close();
        assert_eq!(
            pipe.submit(vec![6.0]).unwrap_err(),
            BackendError::QueueClosed
        );
        assert_eq!(accepted.wait().unwrap().outputs, vec![5.0]);
        pipe.shutdown();
    }

    #[test]
    fn ticket_probes_report_position_and_poll_hands_back() {
        let spec = PipelineSpec::new().host("slow", |x: Vec<f32>| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(x)
        });
        let pipe = PipelineGraph::build(spec, PipelinePolicy::default()).unwrap();
        let first = pipe.submit(vec![1.0]).unwrap();
        let second = pipe.submit(vec![2.0]).unwrap();
        // The probe places the stuck request at a concrete stage.
        let stuck = second.wait_timeout(Duration::from_millis(1)).unwrap_err();
        assert_eq!(stuck.state().stage(), Some(0), "{:?}", stuck.state());
        let polled = match stuck.poll() {
            Err(ticket) => ticket, // still in flight — hands itself back
            Ok(reply) => panic!("resolved implausibly fast: {reply:?}"),
        };
        assert_eq!(first.wait().unwrap().outputs, vec![1.0]);
        let reply = polled.wait().unwrap();
        assert_eq!(reply.outputs, vec![2.0]);
        assert!(reply.latency >= Duration::from_millis(20));
        pipe.shutdown();
    }
}
