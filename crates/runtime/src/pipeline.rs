//! Multi-layer streaming dataflow serving: a whole network as one
//! deployment.
//!
//! The paper's macro is *self-synchronous pipeline accumulation*: a
//! stage fires the next one as soon as it completes, and no layer keeps a
//! buffer of its own. A [`PipelineGraph`] is the serving-stack analogue:
//! a chain of [`ReplicaPool`]s, one per macro stage, in which the thread
//! that finishes one hop runs the next.
//!
//! * One intake thread takes each request off a bounded channel, runs the
//!   leading host stages and the first macro stage's `encode`, and hands
//!   the batch to that stage's pool.
//! * The pool replica that ran a macro stage's kernel runs the stage's
//!   `decode`, every host stage up to the next macro stage and that
//!   stage's `encode`, then hands the batch straight to the next pool —
//!   or resolves the ticket at the end of the chain.
//!
//! A graph therefore spawns no thread per stage: the demo CNN (two conv
//! stages of 2 replicas each) runs on 1 intake thread plus 4 replica
//! threads, and an image crosses 4 threads: client → intake → first conv
//! replica → second conv replica → client. A host-only graph runs
//! entirely on its intake thread.
//!
//! **Backpressure** is credit-based, with [`PipelinePolicy::capacity`] as
//! the per-hop credit: the intake channel holds `capacity` requests and
//! each stage pool admits `capacity` unresolved ones. A full intake
//! answers [`PipelineGraph::submit`] with typed
//! [`BackendError::QueueFull`] instead of buffering without limit. A
//! thread whose next pool is full blocks until that pool drains, which
//! stalls its own pool in turn, and so on back to intake; the chain has
//! no cycle, so this cannot deadlock. [`PipelineGraph::depth`] stays
//! within `c + 1 + m·c·(1 + r)` for capacity `c` and `m` macro stages of
//! `r` replicas: the intake channel, the request the intake thread holds,
//! each pool's admitted requests and, on each replica, one micro-batch
//! whose riders have left their pool and wait to enter the next.
//!
//! **Order.** Replies resolve in completion order. A host-only graph
//! completes in submission order; with more than one replica per stage a
//! later request can overtake an earlier one. Each ticket always carries
//! its own output.
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
//!   fault, a host, `encode` or `decode` closure that errors or panics)
//!   resolves *that* ticket with [`BackendError::Stage`] naming the
//!   stage, and the pipeline keeps serving everyone else
//!   bit-identically. A closure's panic is caught by the hop, so it never
//!   counts as a replica crash: no respawn, no kernel retry;
//! * a stage-level death (a stage's pool closed — every replica
//!   quarantined) fails the whole graph: every hop queued or blocked on
//!   that pool resolves with `Stage { stage, source: QueueClosed }`, the
//!   error is stored as the graph's failure, and every later hop and
//!   submission answers with it. No ticket is ever leaked.
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

use crate::backend::{BackendKind, ReplicaFactory};
use crate::batch::{BatchResult, TokenBatch};
use crate::error::{BackendError, QueueLimit};
use crate::pool::{PoolHealth, RecoveryPolicy, ReplicaPool, ServePolicy};
use crate::queue::{BatchTicket, QueuePolicy, QueueReply, TicketCell};
use crate::session::SessionStats;
use maddpipe_core::config::MacroConfig;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
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

/// A lightweight host-side pipeline stage: a pure closure, run in line
/// by whichever thread carries the item to it (the intake thread, or the
/// replica that ran the macro stage before it), for the layers that
/// never touch the macro (ReLU, pooling, affine/BN, linear heads).
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
        Ok(MacroStage {
            name: name.into(),
            ns: cfg.ns,
            recipe: Arc::new(move || kind.build(&cfg, program.clone())),
            policy: StagePolicy::default(),
            encode: Arc::new(encode),
            decode: Arc::new(decode),
        })
    }

    /// Replaces the stage's serving policy.
    #[must_use]
    pub fn with_policy(mut self, policy: StagePolicy) -> MacroStage {
        self.policy = policy;
        self
    }

    /// Rewrites the stage's backend recipe through `wrap` — the hook
    /// that wraps a stage's backends in
    /// [`ChaosBackend`](crate::chaos::ChaosBackend) via
    /// [`wrap_recipe`](crate::chaos::wrap_recipe), instrumentation, or
    /// any other recipe decorator.
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
    /// The stage pool's coalescing and backpressure policy. The pipeline
    /// replaces its `max_depth` with [`PipelinePolicy::capacity`], the
    /// per-hop credit; its other bounds apply as given.
    pub queue: QueuePolicy,
}

impl Default for StagePolicy {
    /// One replica, the default recovery budget, and one item per
    /// micro-batch with zero linger. The replica that serves an item
    /// carries it on through the next hops, so coalescing items would run
    /// their downstream hops one after another on one replica instead of
    /// side by side on several; lingering would only add latency.
    fn default() -> StagePolicy {
        StagePolicy {
            replicas: 1,
            recovery: RecoveryPolicy::default(),
            queue: QueuePolicy::default()
                .with_max_batch(1)
                .with_max_linger(Duration::ZERO),
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
    /// The per-hop credit of the backpressure scheme: the intake channel
    /// holds this many requests, and every stage pool admits this many
    /// unresolved ones (its `max_depth`). A full intake rejects
    /// [`PipelineGraph::submit`] with [`BackendError::QueueFull`]; a full
    /// stage pool blocks the thread handing it the next batch until the
    /// pool drains.
    pub capacity: usize,
}

impl Default for PipelinePolicy {
    /// 8 items of credit per hop.
    fn default() -> PipelinePolicy {
        PipelinePolicy { capacity: 8 }
    }
}

impl PipelinePolicy {
    /// Sets the per-hop credit (clamped to at least 1).
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
    /// Accepted and waiting in the graph's intake channel, for the
    /// first stage.
    Queued {
        /// The stage the request waits for: 0.
        stage: usize,
    },
    /// Being served by stage `stage`: in its host closure, its `encode`
    /// or `decode`, or its pool (waiting there or on a replica).
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
}

/// A spec stage as the deployed graph runs it.
enum Step {
    Host(HostFn),
    Macro {
        pool: ReplicaPool,
        encode: EncodeFn,
        decode: DecodeFn,
    },
}

/// The deployed stages and the graph-wide state, shared by the graph
/// handle, the intake thread and every hop waiting in a pool.
struct Chain {
    steps: Vec<Step>,
    stats: Mutex<SessionStats>,
    /// Requests accepted and not yet resolved, graph-wide.
    in_flight: AtomicUsize,
    /// Requests sent into the intake channel, and taken out of it: their
    /// difference is the intake backlog.
    accepted: AtomicU64,
    received: AtomicU64,
    started: Instant,
    /// The first stage death, answered to every later hop and submitter.
    failure: OnceLock<BackendError>,
}

/// Runs a stage closure, turning a panic into
/// [`BackendError::ReplicaPanicked`]: it costs only its own item.
fn guarded<T>(f: impl FnOnce() -> Result<T, BackendError>) -> Result<T, BackendError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or(Err(BackendError::ReplicaPanicked))
}

/// Wraps a stage-local failure with the stage's index.
fn stage_err(stage: usize, source: BackendError) -> BackendError {
    BackendError::Stage {
        stage,
        source: Box::new(source),
    }
}

impl Chain {
    fn stats(&self) -> MutexGuard<'_, SessionStats> {
        self.stats.lock().unwrap_or_else(|p| p.into_inner())
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

    /// Runs stages `from..` on the calling thread: host stages in line,
    /// then the next macro stage's `encode`, whose batch goes to that
    /// stage's pool (blocking while it is full) with the rest of the
    /// chain as its completion. Past the last stage, resolves the ticket.
    fn advance(self: &Arc<Chain>, mut item: PipeItem, from: usize) {
        for (stage, step) in self.steps.iter().enumerate().skip(from) {
            if let Some(error) = self.failure.get() {
                return self.finish(&item.cell, Err(error.clone()));
            }
            item.cell.set_position(TicketState::Running { stage });
            let payload = std::mem::take(&mut item.payload);
            match step {
                Step::Host(apply) => {
                    let t0 = Instant::now();
                    let outcome = guarded(|| apply(payload));
                    let busy = t0.elapsed();
                    self.stats().record_stage_item(stage, busy, busy);
                    match outcome {
                        Ok(outputs) => item.payload = outputs,
                        Err(e) => return self.finish(&item.cell, Err(stage_err(stage, e))),
                    }
                }
                Step::Macro { pool, encode, .. } => {
                    let batch = match guarded(|| encode(&payload)) {
                        Ok(batch) => batch,
                        Err(e) => return self.finish(&item.cell, Err(stage_err(stage, e))),
                    };
                    let chain = Arc::clone(self);
                    let entered = Instant::now();
                    let hop = TicketCell::with_completion(move |reply| {
                        chain.complete(item, stage, entered, reply);
                    });
                    return pool.enqueue(batch, hop);
                }
            }
        }
        let latency = item.submitted.elapsed();
        self.stats().record_pipeline_reply(latency);
        let reply = PipelineReply {
            outputs: item.payload,
            latency,
        };
        self.finish(&item.cell, Ok(reply));
    }

    /// Macro stage `stage`'s pool resolved an item's hop, on the thread
    /// that resolved it: decode and run on, or fail the item — and the
    /// whole graph, when the pool has closed.
    fn complete(
        self: &Arc<Chain>,
        mut item: PipeItem,
        stage: usize,
        entered: Instant,
        reply: Result<QueueReply, BackendError>,
    ) {
        let reply = match reply {
            Ok(reply) => reply,
            Err(BackendError::QueueClosed) => {
                let error = stage_err(stage, BackendError::QueueClosed);
                let _ = self.failure.set(error.clone());
                return self.finish(&item.cell, Err(error));
            }
            Err(e) => {
                self.stats()
                    .record_stage_item(stage, Duration::ZERO, entered.elapsed());
                return self.finish(&item.cell, Err(stage_err(stage, e)));
            }
        };
        self.stats()
            .record_stage_item(stage, reply.service, entered.elapsed());
        if let Some(error) = self.failure.get() {
            return self.finish(&item.cell, Err(error.clone()));
        }
        let Step::Macro { decode, .. } = &self.steps[stage] else {
            unreachable!("only macro stages enqueue hops");
        };
        match guarded(|| decode(&reply.result)) {
            Ok(outputs) => {
                item.payload = outputs;
                self.advance(item, stage + 1);
            }
            Err(e) => self.finish(&item.cell, Err(stage_err(stage, e))),
        }
    }
}

/// The intake thread: runs each accepted request's first hop, until the
/// graph closes and the channel is drained.
fn intake_loop(chain: Arc<Chain>, requests: Receiver<PipeItem>) {
    for item in requests {
        chain.received.fetch_add(1, Ordering::SeqCst);
        chain.advance(item, 0);
    }
}

/// A deployed dataflow pipeline: an intake thread and one replica pool
/// per macro stage, `submit(activation) -> ticket` at the front. See the
/// [module docs](crate::pipeline) for the full contract.
pub struct PipelineGraph {
    chain: Arc<Chain>,
    /// The intake channel; `None` once closed.
    intake: Mutex<Option<SyncSender<PipeItem>>>,
    intake_thread: Option<JoinHandle<()>>,
    names: Vec<String>,
    capacity: usize,
}

impl PipelineGraph {
    /// Deploys a spec: builds every macro stage's [`ReplicaPool`] (fail
    /// fast, before the intake thread starts) with
    /// [`PipelinePolicy::capacity`] as its `max_depth`, then starts the
    /// intake thread behind a channel of `capacity` requests.
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
        let mut steps = Vec::with_capacity(spec.len());
        for stage in spec.stages {
            steps.push(match stage {
                StageSpec::Host(host) => Step::Host(host.apply),
                StageSpec::Macro(m) => {
                    let replicas = m.policy.replicas.max(1);
                    let serve = ServePolicy::default()
                        .with_replicas(replicas)
                        .with_recovery(m.policy.recovery)
                        .with_queue(QueuePolicy {
                            max_depth: capacity,
                            ..m.policy.queue
                        });
                    Step::Macro {
                        pool: ReplicaPool::from_recipes(serve, m.ns, vec![m.recipe; replicas])?,
                        encode: m.encode,
                        decode: m.decode,
                    }
                }
            });
        }
        let mut stats = SessionStats::default();
        for (i, name) in names.iter().enumerate() {
            stats.init_stage(i, name);
        }
        let chain = Arc::new(Chain {
            steps,
            stats: Mutex::new(stats),
            in_flight: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            received: AtomicU64::new(0),
            started: Instant::now(),
            failure: OnceLock::new(),
        });
        let (intake, requests) = mpsc::sync_channel(capacity);
        let intake_thread = {
            let chain = Arc::clone(&chain);
            std::thread::Builder::new()
                .name("maddpipe-intake".into())
                .spawn(move || intake_loop(chain, requests))
                .expect("the host can spawn the intake thread")
        };
        Ok(PipelineGraph {
            chain,
            intake: Mutex::new(Some(intake)),
            intake_thread: Some(intake_thread),
            names,
            capacity,
        })
    }

    /// Submits one request (the first stage's input activation);
    /// returns immediately with a ticket.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::QueueFull`] when the intake channel holds
    /// [`PipelinePolicy::capacity`] requests (backpressure — wait on an
    /// outstanding ticket and retry), [`BackendError::QueueClosed`]
    /// after [`close`](PipelineGraph::close), and the stored
    /// [`BackendError::Stage`] after a stage death.
    pub fn submit(&self, input: Vec<f32>) -> Result<PipelineTicket, BackendError> {
        if let Some(error) = self.chain.failure.get() {
            return Err(error.clone());
        }
        let cell = TicketCell::new();
        let item = PipeItem {
            payload: input,
            cell: Arc::clone(&cell),
            submitted: Instant::now(),
        };
        // Pre-count, so a racing completion can never underflow.
        self.chain.in_flight.fetch_add(1, Ordering::SeqCst);
        let sent = match &*self.intake.lock().unwrap_or_else(|p| p.into_inner()) {
            Some(intake) => intake
                .try_send(item)
                .map(|()| self.chain.accepted.fetch_add(1, Ordering::SeqCst) + 1),
            None => Err(TrySendError::Disconnected(item)),
        };
        match sent {
            Ok(accepted) => {
                let backlog = accepted.saturating_sub(self.chain.received.load(Ordering::SeqCst));
                let depth = self.chain.in_flight.load(Ordering::SeqCst) as u64;
                let mut stats = self.chain.stats();
                stats.record_queue_depth(depth);
                stats.set_stage_queue_high_water(0, backlog);
                Ok(PipelineTicket::from_cell(cell))
            }
            Err(refused) => {
                self.chain.in_flight.fetch_sub(1, Ordering::SeqCst);
                Err(match refused {
                    TrySendError::Full(_) => BackendError::QueueFull {
                        limit: QueueLimit::Requests {
                            max_depth: self.capacity,
                        },
                    },
                    TrySendError::Disconnected(_) => BackendError::QueueClosed,
                })
            }
        }
    }

    /// Requests accepted and not yet resolved, graph-wide, right now.
    pub fn depth(&self) -> usize {
        self.chain.in_flight.load(Ordering::SeqCst)
    }

    /// The stage names, in order.
    pub fn stage_names(&self) -> &[String] {
        &self.names
    }

    /// The per-hop credit the graph was deployed with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the aggregate statistics: per-stage profiles
    /// (items, busy time, residence percentiles, retries/respawns,
    /// queue high-water marks), end-to-end images and latency
    /// percentiles, and the summed [`PoolHealth`] over every stage pool.
    ///
    /// A host stage's busy time and residence are both its run time,
    /// and its high-water mark is 0. A macro stage's busy time is its
    /// pool's service time, its residence runs from entering the pool to
    /// the pool's reply, and its high-water mark is the pool's deepest
    /// backlog. Stage 0's high-water mark also counts the intake backlog.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.chain.stats().clone();
        stats.note_pipeline(self.chain.started.elapsed());
        let mut health = PoolHealth::default();
        for (stage, step) in self.chain.steps.iter().enumerate() {
            let Step::Macro { pool, .. } = step else {
                continue;
            };
            let pool_stats = pool.stats();
            let pool_health = pool_stats.pool_health();
            stats.set_stage_recovery(stage, pool_stats.retries(), pool_health.restarts);
            stats.set_stage_queue_high_water(stage, pool_stats.max_queue_depth());
            let cache = pool_stats.cache();
            if cache != crate::cache::CacheStats::default() {
                // The stage pool's aggregate cache view, both on the
                // stage profile and as a top-level source slot (the
                // base snapshot never carries cache counters, so the
                // per-call fold stays cumulative, not double-counted).
                stats.set_stage_cache(stage, cache);
                stats.note_cache(stage, cache);
            }
            health.healthy += pool_health.healthy;
            health.quarantined += pool_health.quarantined;
            health.restarts += pool_health.restarts;
        }
        stats.note_pool_health(health);
        stats
    }

    /// Stops intake (submissions answer [`BackendError::QueueClosed`])
    /// while the graph drains everything already accepted. Does not
    /// block; pair with [`shutdown`](PipelineGraph::shutdown) or ticket
    /// waits to observe the drain finishing. Idempotent.
    pub fn close(&self) {
        self.intake.lock().unwrap_or_else(|p| p.into_inner()).take();
    }

    /// Closes the graph, waits for every accepted ticket to resolve,
    /// tears the stage pools down, and returns the final statistics.
    pub fn shutdown(mut self) -> SessionStats {
        self.drain();
        self.stats()
    }

    /// Closes intake and drains the chain front to back: the intake
    /// thread first, then each stage pool, closed only once nothing
    /// upstream can hand it more work. Every replica is joined here,
    /// before the graph lets go of the chain: a pool whose last handle
    /// dropped on one of its own replica threads would join itself.
    fn drain(&mut self) {
        self.close();
        if let Some(intake) = self.intake_thread.take() {
            let _ = intake.join();
        }
        for step in &self.chain.steps {
            if let Step::Macro { pool, .. } = step {
                pool.close();
                pool.join_replicas();
            }
        }
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
        self.drain();
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
        // The intake thread survived its item's panic.
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
