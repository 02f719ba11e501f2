//! Batched inference sessions: one builder, one `run` call, aggregate
//! statistics — regardless of which backend executes.
//!
//! A [`Session`] is the front door of the execution API: it validates the
//! program against the configuration once, constructs the chosen backend
//! (functional, RTL, analytic, or a sharded fleet of those), and then
//! treats it purely through the [`MacroBackend`] contract — so
//! [`SessionStats`] (tokens/s, total energy, p50/p99 token latency)
//! accumulate identically whatever executes the batches, and swapping
//! [`BackendKind`]s never changes a single output bit.

use crate::backend::{validate_program, BackendKind, MacroBackend, ReplicaFactory};
use crate::batch::{BatchResult, TokenBatch};
use crate::cache::CacheStats;
use crate::error::BackendError;
use crate::pool::{PoolHealth, ReplicaPool, ServePolicy};
use core::fmt;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::{AcceleratorRtl, MacroProgram};
use maddpipe_tech::units::{Joules, Seconds};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builder for a [`Session`]; see [`Session::builder`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    cfg: MacroConfig,
    program: Option<MacroProgram>,
    kind: BackendKind,
}

impl SessionBuilder {
    /// Sets the program to load into the macro (required).
    #[must_use]
    pub fn program(mut self, program: MacroProgram) -> SessionBuilder {
        self.program = Some(program);
        self
    }

    /// Picks the executing backend (defaults to single-threaded
    /// functional).
    #[must_use]
    pub fn backend(mut self, kind: BackendKind) -> SessionBuilder {
        self.kind = kind;
        self
    }

    /// Validates the program against the configuration and constructs the
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::MissingProgram`] when no program was set,
    /// and the constructor errors of the chosen backend
    /// ([`BackendError::ProgramMismatch`],
    /// [`BackendError::MalformedProgram`]).
    pub fn build(self) -> Result<Session, BackendError> {
        let program = self.program.ok_or(BackendError::MissingProgram)?;
        let backend = self.kind.build(&self.cfg, program)?;
        Ok(Session::from_backend(self.cfg, backend))
    }

    /// Builds a [`ReplicaPool`] — the one door from a program to a
    /// pool. The program is validated here (fail fast, on the caller's
    /// thread) and the `(program, kind)` recipe is shared by
    /// [`ServePolicy::replicas`] replicas, each constructing its backend
    /// on its own replica thread. Because the recipe stays callable, the
    /// pool can respawn a replica whose backend panicked, up to the
    /// [`RecoveryPolicy`](crate::pool::RecoveryPolicy) restart budget.
    ///
    /// # Errors
    ///
    /// As [`SessionBuilder::build`], plus the pool's own construction
    /// failures ([`BackendError::QueueClosed`] when a replica dies
    /// before reporting ready).
    pub fn into_pool(self, policy: ServePolicy) -> Result<ReplicaPool, BackendError> {
        let program = self.program.ok_or(BackendError::MissingProgram)?;
        validate_program(&self.cfg, &program)?;
        let (cfg, kind) = (self.cfg, self.kind);
        let ns = cfg.ns;
        let recipe: ReplicaFactory = Arc::new(move || kind.build(&cfg, program.clone()));
        let recipes = vec![recipe; policy.replicas.max(1)];
        ReplicaPool::from_recipes(policy, ns, recipes)
    }
}

/// A long-lived inference session: owns one programmed backend, accepts
/// [`TokenBatch`]es, and accumulates [`SessionStats`] across batches.
///
/// ```
/// use maddpipe_runtime::prelude::*;
/// use maddpipe_core::prelude::*;
///
/// let cfg = MacroConfig::new(2, 2);
/// let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
/// let mut session = Session::builder(cfg)
///     .program(program.clone())
///     .backend(BackendKind::Functional { workers: 2 })
///     .build()
///     .unwrap();
/// let batch = TokenBatch::random(2, 16, 1);
/// let result = session.run(&batch).unwrap();
/// assert_eq!(result.tokens.get(0).unwrap().outputs,
///            program.reference_output(&batch.tokens()[0]));
/// assert_eq!(session.stats().tokens(), 16);
/// ```
pub struct Session {
    cfg: MacroConfig,
    backend: Box<dyn MacroBackend>,
    stats: SessionStats,
}

impl Session {
    /// Starts building a session for one macro configuration.
    pub fn builder(cfg: MacroConfig) -> SessionBuilder {
        SessionBuilder {
            cfg,
            program: None,
            kind: BackendKind::default(),
        }
    }

    /// Wraps a caller-constructed backend (downstream crates can implement
    /// [`MacroBackend`] and still get sessions and stats).
    pub fn from_backend(cfg: MacroConfig, backend: Box<dyn MacroBackend>) -> Session {
        Session {
            cfg,
            backend,
            stats: SessionStats::default(),
        }
    }

    /// Runs one batch and folds its measurements into the session stats.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`BackendError`]s; a failed batch
    /// contributes nothing to the statistics.
    pub fn run(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        let t0 = Instant::now();
        let result = self.backend.run_batch(batch)?;
        self.stats.absorb(&result, t0.elapsed());
        if let Some(cache) = self.backend.cache_stats() {
            self.stats.note_cache(0, cache);
        }
        Ok(result)
    }

    /// Aggregate statistics over every successful batch so far.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// The executing backend's name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// The session's macro configuration.
    pub fn config(&self) -> &MacroConfig {
        &self.cfg
    }

    /// The backend's netlist, when it drives one (RTL backends) — for
    /// probing violations or enabling waveform tracing from tests.
    pub fn rtl(&self) -> Option<&AcceleratorRtl> {
        self.backend.rtl()
    }

    /// Mutable netlist access, when the backend drives one — for energy
    /// resets, event caps and tracing.
    pub fn rtl_mut(&mut self) -> Option<&mut AcceleratorRtl> {
        self.backend.rtl_mut()
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("backend", &self.backend.name())
            .field("cfg", &self.cfg)
            .field("stats", &self.stats)
            .finish()
    }
}

/// Aggregate measurements across every batch a [`Session`] has run —
/// and, when the session serves through a [`ReplicaPool`], across every
/// dispatched micro-batch: queue-wait percentiles, coalesced micro-batch
/// sizes and the deepest backlog observed.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    tokens: u64,
    batches: u64,
    wall: Duration,
    energy: Joules,
    measured_energy: bool,
    /// Per-token latencies in seconds — bounded: a uniform reservoir
    /// once the cap is reached, so a long-lived session never grows
    /// without limit.
    latencies: SampleSet,
    /// Per-request queue waits in seconds, sampled like `latencies`.
    queue_waits: SampleSet,
    /// Requests resolved through a serving queue.
    queued_requests: u64,
    /// Micro-batches the pool's replicas ran.
    queued_batches: u64,
    /// Tokens that travelled through those micro-batches.
    queued_tokens: u64,
    /// Largest micro-batch (in tokens) a replica coalesced.
    max_coalesced: u64,
    /// Deepest backlog (unresolved requests) observed at submit time.
    max_queue_depth: u64,
    /// Micro-batches dispatched per replica, indexed by replica.
    replica_dispatches: Vec<u64>,
    /// Backend service time accumulated per replica, indexed likewise.
    replica_busy: Vec<Duration>,
    /// How long the pool has been open — the utilisation denominator.
    pool_uptime: Duration,
    /// Riders re-queued after a transient failure or replica panic.
    retries: u64,
    /// The pool's degradation snapshot at stats time.
    pool_health: PoolHealth,
    /// Per-stage serving profiles, populated only by a
    /// [`PipelineGraph`](crate::pipeline::PipelineGraph).
    stage_profiles: Vec<StageProfile>,
    /// Requests that travelled the whole pipeline successfully.
    images: u64,
    /// End-to-end pipeline latencies in seconds, sampled like `latencies`.
    image_latencies: SampleSet,
    /// How long the pipeline has been open — the occupancy denominator.
    pipeline_uptime: Duration,
    /// Latest cumulative cache snapshot per live source (replica index
    /// for pools/queues/sessions, stage index for pipelines). Each slot
    /// holds what the source's stores report; the aggregate sums them.
    cache_slots: Vec<CacheStats>,
    /// Counters of stores that are gone: a crashed replica's dead
    /// store, moved out of its slot by [`SessionStats::retire_cache`].
    retired_cache: CacheStats,
}

/// One pipeline stage's serving profile inside [`SessionStats`]: how many
/// items it completed, how long it was busy doing real work (host apply
/// time, or backend service time for macro stages), how long items
/// resided in the stage (queue wait + service — the per-stage latency the
/// end-to-end number decomposes into), and its recovery/backpressure
/// counters.
#[derive(Debug, Clone, Default)]
pub struct StageProfile {
    name: String,
    items: u64,
    busy: Duration,
    retries: u64,
    restarts: u64,
    queue_high_water: u64,
    /// Per-item residence times (seconds) in this stage.
    residence: SampleSet,
    /// The stage pool's aggregate result-cache snapshot, when its
    /// replicas run a cached tier.
    cache: CacheStats,
}

impl StageProfile {
    /// The stage's name (layer name for lowered networks).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Items this stage completed (forwarded or resolved).
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Time the stage spent doing real work: host apply time, or the
    /// backend service time its pool reported.
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// Riders the stage's replica pool re-queued for retry (0 for host
    /// stages — host closures are not retried).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Successful replica respawns inside this stage's pool.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Deepest backlog waiting for this stage — its pool's for a macro
    /// stage, 0 for a host stage, with the intake channel counted at
    /// stage 0 — how hard backpressure squeezed at this point of the
    /// graph.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water
    }

    /// Median per-item residence (queue wait + service) in this stage.
    pub fn p50_residence(&self) -> Option<Duration> {
        self.residence.percentile(50.0).map(Duration::from_secs_f64)
    }

    /// 99th-percentile per-item residence in this stage.
    pub fn p99_residence(&self) -> Option<Duration> {
        self.residence.percentile(99.0).map(Duration::from_secs_f64)
    }

    /// The stage's aggregate result-cache snapshot — all zeros unless
    /// its replicas run a [`CachedBackend`](crate::cache::CachedBackend)
    /// tier.
    pub fn cache(&self) -> CacheStats {
        self.cache
    }

    /// The share of `uptime` this stage spent busy — the per-stage
    /// occupancy of the acceptance criteria. 0 when the uptime is below
    /// clock resolution.
    pub fn occupancy(&self, uptime: Duration) -> f64 {
        let denom = uptime.as_secs_f64();
        if denom <= 0.0 {
            return 0.0;
        }
        self.busy.as_secs_f64() / denom
    }
}

impl SessionStats {
    /// Folds one served batch into the statistics: tokens, wall time,
    /// energy and token latencies.
    pub(crate) fn absorb(&mut self, result: &BatchResult, wall: Duration) {
        self.tokens += result.tokens.len() as u64;
        self.batches += 1;
        self.wall += wall;
        if let Some(e) = result.energy {
            self.energy += e;
            self.measured_energy = true;
        }
        // A result with neither a latency nor an energy column (a
        // functional one) has nothing per token to fold.
        if !result.tokens.is_measured() {
            return;
        }
        if result.energy.is_none() {
            let mut any = false;
            for obs in &result.tokens {
                if let Some(e) = obs.energy {
                    self.energy += e;
                    any = true;
                }
            }
            self.measured_energy |= any;
        }
        for latency in result.tokens.iter().filter_map(|t| t.latency) {
            self.latencies.push(latency.value());
        }
    }

    /// Folds one dispatched micro-batch's queue-side view — one wait
    /// sample per coalesced request and the micro-batch size — into the
    /// statistics. Called for failed micro-batches too: their requests
    /// waited and resolved like any other, so leaving them out would
    /// skew the wait percentiles optimistic under error load (only the
    /// *served*-token measurements of [`SessionStats::absorb`] are
    /// success-only).
    pub(crate) fn absorb_queue_side(&mut self, tokens: usize, waits: &[Duration]) {
        self.queued_requests += waits.len() as u64;
        self.queued_batches += 1;
        self.queued_tokens += tokens as u64;
        self.max_coalesced = self.max_coalesced.max(tokens as u64);
        for wait in waits {
            self.queue_waits.push(wait.as_secs_f64());
        }
    }

    /// Records the backlog depth seen by one submission.
    pub(crate) fn record_queue_depth(&mut self, depth: u64) {
        self.max_queue_depth = self.max_queue_depth.max(depth);
    }

    /// Records one micro-batch dispatch on a replica: bumps its
    /// dispatch count and accumulates the backend service time it was
    /// busy for.
    pub(crate) fn record_replica_dispatch(&mut self, replica: usize, busy: Duration) {
        if self.replica_dispatches.len() <= replica {
            self.replica_dispatches.resize(replica + 1, 0);
            self.replica_busy.resize(replica + 1, Duration::ZERO);
        }
        self.replica_dispatches[replica] += 1;
        self.replica_busy[replica] += busy;
    }

    /// Notes the pool shape at snapshot time: replicas that have not
    /// dispatched yet still appear (with zero counts), and the uptime
    /// denominator only ever grows.
    pub(crate) fn note_pool(&mut self, replicas: usize, uptime: Duration) {
        if self.replica_dispatches.len() < replicas {
            self.replica_dispatches.resize(replicas, 0);
            self.replica_busy.resize(replicas, Duration::ZERO);
        }
        self.pool_uptime = self.pool_uptime.max(uptime);
    }

    /// Counts riders re-queued for retry after a transient failure or a
    /// replica panic.
    pub(crate) fn record_retries(&mut self, retried: u64) {
        self.retries += retried;
    }

    /// Notes the pool's degradation snapshot at stats time.
    pub(crate) fn note_pool_health(&mut self, health: PoolHealth) {
        self.pool_health = health;
    }

    /// Grows the stage-profile table to cover `stage`, leaving untouched
    /// entries as they are.
    fn ensure_stage(&mut self, stage: usize) -> &mut StageProfile {
        if self.stage_profiles.len() <= stage {
            self.stage_profiles
                .resize_with(stage + 1, StageProfile::default);
        }
        &mut self.stage_profiles[stage]
    }

    /// Registers pipeline stage `stage` under `name` (idempotent).
    pub(crate) fn init_stage(&mut self, stage: usize, name: &str) {
        let profile = self.ensure_stage(stage);
        if profile.name.is_empty() {
            profile.name = name.to_string();
        }
    }

    /// Records one item completing pipeline stage `stage`: `busy` is the
    /// real work time, `residence` the item's whole stay in the stage.
    pub(crate) fn record_stage_item(&mut self, stage: usize, busy: Duration, residence: Duration) {
        let profile = self.ensure_stage(stage);
        profile.items += 1;
        profile.busy += busy;
        profile.residence.push(residence.as_secs_f64());
    }

    /// Folds a stage pool's recovery counters into its profile (snapshot
    /// semantics: the pool reports totals, not deltas).
    pub(crate) fn set_stage_recovery(&mut self, stage: usize, retries: u64, restarts: u64) {
        let profile = self.ensure_stage(stage);
        profile.retries = profile.retries.max(retries);
        profile.restarts = profile.restarts.max(restarts);
    }

    /// Folds a stage queue's deepest observed backlog into its profile.
    pub(crate) fn set_stage_queue_high_water(&mut self, stage: usize, high_water: u64) {
        let profile = self.ensure_stage(stage);
        profile.queue_high_water = profile.queue_high_water.max(high_water);
    }

    /// Sets a stage pool's aggregate cache snapshot on its profile.
    pub(crate) fn set_stage_cache(&mut self, stage: usize, snapshot: CacheStats) {
        self.ensure_stage(stage).cache = snapshot;
    }

    /// Replaces one source's cache slot with its latest cumulative
    /// snapshot. A source is the owner of live stores — the replica
    /// index for pools and queues (and a plain session, which is source
    /// 0), the stage index for pipelines. Nothing shares a store, so a
    /// later snapshot of a source supersedes every earlier one; distinct
    /// sources sum in [`SessionStats::cache`].
    pub(crate) fn note_cache(&mut self, source: usize, snapshot: CacheStats) {
        if self.cache_slots.len() <= source {
            self.cache_slots.resize(source + 1, CacheStats::default());
        }
        self.cache_slots[source] = snapshot;
    }

    /// Moves `source`'s counters into the retired total and empties its
    /// slot, for when its stores died with a crashed backend. The dead
    /// stores' residency is dropped: those entries are gone.
    pub(crate) fn retire_cache(&mut self, source: usize) {
        if let Some(slot) = self.cache_slots.get_mut(source) {
            let dead = std::mem::take(slot);
            self.retired_cache = self.retired_cache.merged(CacheStats {
                resident_entries: 0,
                resident_bytes: 0,
                ..dead
            });
        }
    }

    /// Notes the pipeline shape at snapshot time; the uptime denominator
    /// only ever grows.
    pub(crate) fn note_pipeline(&mut self, uptime: Duration) {
        self.pipeline_uptime = self.pipeline_uptime.max(uptime);
    }

    /// Records one request completing the whole pipeline.
    pub(crate) fn record_pipeline_reply(&mut self, latency: Duration) {
        self.images += 1;
        self.image_latencies.push(latency.as_secs_f64());
    }

    /// Tokens run so far.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Batches run so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Host wall-clock time spent inside [`Session::run`].
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// Host-side throughput: tokens per wall-clock second. `None` when
    /// the accumulated wall time is below the host clock's resolution —
    /// "too fast to measure" is not the same observation as "no
    /// throughput", and conflating them as `0.0` poisoned downstream
    /// rate math.
    pub fn tokens_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        (secs > 0.0).then(|| self.tokens as f64 / secs)
    }

    /// Total measured/modelled energy, when any backend reported it.
    pub fn total_energy(&self) -> Option<Joules> {
        self.measured_energy.then_some(self.energy)
    }

    /// Median per-token latency, when measured.
    pub fn p50_token_latency(&self) -> Option<Seconds> {
        self.percentile(50.0)
    }

    /// 99th-percentile per-token latency, when measured.
    pub fn p99_token_latency(&self) -> Option<Seconds> {
        self.percentile(99.0)
    }

    /// Arbitrary latency percentile (nearest-rank), when measured.
    pub fn percentile(&self, p: f64) -> Option<Seconds> {
        self.latencies.percentile(p).map(Seconds)
    }

    /// Requests resolved through a serving queue so far.
    pub fn queued_requests(&self) -> u64 {
        self.queued_requests
    }

    /// Micro-batches a pool's replicas have run so far.
    pub fn queued_batches(&self) -> u64 {
        self.queued_batches
    }

    /// Mean coalesced micro-batch size in tokens (0 when nothing has
    /// been served through a queue).
    pub fn mean_coalesced_batch(&self) -> f64 {
        if self.queued_batches > 0 {
            self.queued_tokens as f64 / self.queued_batches as f64
        } else {
            0.0
        }
    }

    /// Largest micro-batch (in tokens) a replica coalesced.
    pub fn max_coalesced_batch(&self) -> u64 {
        self.max_coalesced
    }

    /// Deepest backlog (unresolved requests) observed at submit time.
    pub fn max_queue_depth(&self) -> u64 {
        self.max_queue_depth
    }

    /// Median per-request queue wait, once a queue has served requests.
    pub fn p50_queue_wait(&self) -> Option<Duration> {
        self.queue_wait_percentile(50.0)
    }

    /// 99th-percentile per-request queue wait.
    pub fn p99_queue_wait(&self) -> Option<Duration> {
        self.queue_wait_percentile(99.0)
    }

    /// Arbitrary queue-wait percentile (nearest-rank), host wall time.
    pub fn queue_wait_percentile(&self, p: f64) -> Option<Duration> {
        self.queue_waits.percentile(p).map(Duration::from_secs_f64)
    }

    /// Micro-batches dispatched per replica, indexed by replica. Empty
    /// unless the stats came from a replica pool (a one-replica pool
    /// is a one-replica pool, so it reports one entry).
    pub fn replica_dispatches(&self) -> &[u64] {
        &self.replica_dispatches
    }

    /// Backend service time accumulated per replica, indexed like
    /// [`replica_dispatches`](SessionStats::replica_dispatches).
    pub fn replica_busy(&self) -> &[Duration] {
        &self.replica_busy
    }

    /// How long the pool behind these stats has been open.
    pub fn pool_uptime(&self) -> Duration {
        self.pool_uptime
    }

    /// Riders re-queued for retry after a transient failure or replica
    /// panic. A request that eventually succeeds still counts its
    /// tokens exactly once — retries measure recovery work, not served
    /// traffic.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The pool's degradation snapshot when these stats were taken:
    /// live replicas, quarantined replicas, successful respawns.
    /// Default (all zeros) when the stats did not come from a pool.
    pub fn pool_health(&self) -> PoolHealth {
        self.pool_health
    }

    /// The aggregate result-cache view: the sum of the per-source
    /// snapshots (each source — a replica, or a pipeline stage — owns
    /// distinct stores), plus the counters of stores that crashed
    /// replicas left behind. All zeros unless a
    /// [`CachedBackend`](crate::cache::CachedBackend) tier is deployed
    /// somewhere behind these stats.
    pub fn cache(&self) -> CacheStats {
        self.cache_slots
            .iter()
            .fold(self.retired_cache, |acc, s| acc.merged(*s))
    }

    /// Per-stage serving profiles, in stage order. Empty unless the
    /// stats came from a [`PipelineGraph`](crate::pipeline::PipelineGraph).
    pub fn stage_profiles(&self) -> &[StageProfile] {
        &self.stage_profiles
    }

    /// Requests that travelled the whole pipeline successfully.
    pub fn images(&self) -> u64 {
        self.images
    }

    /// How long the pipeline behind these stats has been open.
    pub fn pipeline_uptime(&self) -> Duration {
        self.pipeline_uptime
    }

    /// End-to-end pipeline throughput: completed requests per second of
    /// pipeline uptime. `None` when the uptime is below clock
    /// resolution (same discipline as
    /// [`tokens_per_sec`](SessionStats::tokens_per_sec)).
    pub fn images_per_sec(&self) -> Option<f64> {
        let secs = self.pipeline_uptime.as_secs_f64();
        (secs > 0.0 && self.images > 0).then(|| self.images as f64 / secs)
    }

    /// Median end-to-end pipeline latency, once the pipeline has served.
    pub fn p50_image_latency(&self) -> Option<Duration> {
        self.image_latencies
            .percentile(50.0)
            .map(Duration::from_secs_f64)
    }

    /// 99th-percentile end-to-end pipeline latency.
    pub fn p99_image_latency(&self) -> Option<Duration> {
        self.image_latencies
            .percentile(99.0)
            .map(Duration::from_secs_f64)
    }

    /// Per-stage occupancy against the pipeline uptime, in stage order.
    /// Empty when the uptime is below clock resolution.
    pub fn stage_occupancy(&self) -> Vec<f64> {
        if self.pipeline_uptime.as_secs_f64() <= 0.0 {
            return Vec::new();
        }
        self.stage_profiles
            .iter()
            .map(|p| p.occupancy(self.pipeline_uptime))
            .collect()
    }

    /// Per-replica utilisation: the share of the pool's uptime each
    /// replica spent inside its backend. Empty when the uptime is below
    /// clock resolution (same discipline as
    /// [`tokens_per_sec`](SessionStats::tokens_per_sec)).
    pub fn replica_utilisation(&self) -> Vec<f64> {
        let uptime = self.pool_uptime.as_secs_f64();
        if uptime <= 0.0 {
            return Vec::new();
        }
        self.replica_busy
            .iter()
            .map(|busy| busy.as_secs_f64() / uptime)
            .collect()
    }
}

/// A bounded measurement sample: exact below [`SampleSet::CAP`] values,
/// a uniform reservoir (Algorithm R on a deterministic splitmix64
/// stream) beyond it — so percentiles of an arbitrarily long-lived
/// session or replica pool stay statistically sound while memory and
/// per-sample cost stay O(CAP). Pushing is O(1); sorting happens at
/// query time, keeping the replicas' absorb path cheap.
#[derive(Debug, Clone, Default)]
struct SampleSet {
    samples: Vec<f64>,
    seen: u64,
}

impl SampleSet {
    /// 64Ki samples ≈ 512 KiB — enough for a stable p99 estimate.
    const CAP: usize = 1 << 16;

    /// Records one sample. Non-finite values (a custom backend reporting
    /// a NaN latency) are dropped: they have no rank.
    fn push(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.seen += 1;
        if self.samples.len() < SampleSet::CAP {
            self.samples.push(value);
        } else {
            // Keep each newcomer with probability CAP/seen, evicting a
            // uniform victim — the classic reservoir step, derandomised
            // with a hash of the arrival index so replays are stable.
            let slot = splitmix64(self.seen) % self.seen;
            if (slot as usize) < SampleSet::CAP {
                self.samples[slot as usize] = value;
            }
        }
    }

    /// Nearest-rank percentile: the smallest retained value with at
    /// least `p` percent of the sample at or below it. `None` on an
    /// empty sample; `p` outside `[0, 100]` clamps to the extremes.
    fn percentile(&self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }
}

/// SplitMix64: a well-mixed 64-bit hash, here turning the monotone
/// arrival index into the reservoir's deterministic random stream (and,
/// in [`crate::chaos`], a seed and call index into a fault draw).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl fmt::Display for SessionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} tokens in {} batches", self.tokens, self.batches)?;
        match self.tokens_per_sec() {
            Some(rate) => write!(f, ", {rate:.0} tokens/s")?,
            None => write!(f, ", rate unmeasured")?,
        }
        if let (Some(p50), Some(p99)) = (self.p50_token_latency(), self.p99_token_latency()) {
            write!(f, ", token latency p50 {p50} / p99 {p99}")?;
        }
        if let Some(e) = self.total_energy() {
            write!(f, ", {e} total")?;
        }
        if let (Some(p50), Some(p99)) = (self.p50_queue_wait(), self.p99_queue_wait()) {
            write!(
                f,
                ", queue wait p50 {:.1}us / p99 {:.1}us, {:.1} tokens/micro-batch (max depth {})",
                p50.as_secs_f64() * 1e6,
                p99.as_secs_f64() * 1e6,
                self.mean_coalesced_batch(),
                self.max_queue_depth,
            )?;
        }
        if !self.stage_profiles.is_empty() {
            write!(f, ", pipeline: {} images", self.images)?;
            if let Some(rate) = self.images_per_sec() {
                write!(f, " ({rate:.0} images/s)")?;
            }
            if let (Some(p50), Some(p99)) = (self.p50_image_latency(), self.p99_image_latency()) {
                write!(
                    f,
                    ", e2e p50 {:.1}us / p99 {:.1}us",
                    p50.as_secs_f64() * 1e6,
                    p99.as_secs_f64() * 1e6,
                )?;
            }
            for profile in &self.stage_profiles {
                write!(f, ", [{}] {} items", profile.name, profile.items)?;
            }
        }
        if self.retries > 0 || self.pool_health.quarantined > 0 || self.pool_health.restarts > 0 {
            write!(
                f,
                ", recovery: {} retries, {} respawns, {}/{} replicas healthy",
                self.retries,
                self.pool_health.restarts,
                self.pool_health.healthy,
                self.pool_health.healthy + self.pool_health.quarantined,
            )?;
        }
        let cache = self.cache();
        if cache.hits + cache.misses + cache.dedup > 0 {
            write!(
                f,
                ", cache: {} hits / {} misses ({:.0}% hit rate), {} deduped, {} evicted, {} resident ({} B)",
                cache.hits,
                cache.misses,
                cache.hit_rate().unwrap_or(0.0) * 100.0,
                cache.dedup,
                cache.evictions,
                cache.resident_entries,
                cache.resident_bytes,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Fidelity;

    #[test]
    fn builder_requires_a_program() {
        assert_eq!(
            Session::builder(MacroConfig::new(1, 1))
                .build()
                .unwrap_err(),
            BackendError::MissingProgram
        );
    }

    #[test]
    fn builder_rejects_mismatched_programs() {
        let err = Session::builder(MacroConfig::new(2, 2))
            .program(MacroProgram::random(2, 3, 0))
            .build()
            .unwrap_err();
        assert!(matches!(err, BackendError::ProgramMismatch { .. }), "{err}");
    }

    #[test]
    fn stats_accumulate_across_batches() {
        let cfg = MacroConfig::new(2, 2);
        let program = MacroProgram::random(2, 2, 5);
        let mut s = Session::builder(cfg)
            .program(program)
            .backend(BackendKind::Analytic)
            .build()
            .unwrap();
        s.run(&TokenBatch::random(2, 3, 1)).unwrap();
        s.run(&TokenBatch::random(2, 5, 2)).unwrap();
        let stats = s.stats();
        assert_eq!(stats.tokens(), 8);
        assert_eq!(stats.batches(), 2);
        assert!(stats.total_energy().unwrap().value() > 0.0);
        let p50 = stats.p50_token_latency().unwrap();
        let p99 = stats.p99_token_latency().unwrap();
        assert!(p50 <= p99 && p50.value() > 0.0);
        let text = stats.to_string();
        assert!(text.contains("8 tokens") && text.contains("p50"), "{text}");
    }

    #[test]
    fn failed_batches_do_not_pollute_stats() {
        let cfg = MacroConfig::new(1, 2);
        let mut s = Session::builder(cfg)
            .program(MacroProgram::random(1, 2, 5))
            .build()
            .unwrap();
        let wrong = TokenBatch::random(3, 2, 1);
        assert!(s.run(&wrong).is_err());
        assert_eq!(s.stats().tokens(), 0);
        assert_eq!(s.stats().batches(), 0);
        assert!(s.stats().p50_token_latency().is_none());
        assert!(s.stats().total_energy().is_none());
        assert!(s.rtl().is_none(), "functional backend has no netlist");
    }

    #[test]
    fn sharded_sessions_are_first_class() {
        let cfg = MacroConfig::new(6, 2);
        let program = MacroProgram::random(6, 2, 13);
        let mut s = Session::builder(cfg)
            .program(program.clone())
            .backend(BackendKind::Sharded {
                shards: 3,
                inner: Box::new(BackendKind::Analytic),
            })
            .build()
            .unwrap();
        let batch = TokenBatch::random(2, 4, 6);
        let result = s.run(&batch).unwrap();
        assert_eq!(s.backend_name(), "sharded");
        for (t, token) in batch.tokens().iter().enumerate() {
            assert_eq!(
                result.tokens.get(t).unwrap().outputs,
                program.reference_output(token)
            );
        }
        // Shard measurements flow into the session stats unchanged.
        let stats = s.stats();
        assert_eq!(stats.tokens(), 4);
        assert!(stats.total_energy().unwrap().value() > 0.0);
        assert!(stats.p50_token_latency().is_some());
        assert!(s.rtl().is_none(), "a sharded backend has no single netlist");
    }

    #[test]
    fn builder_serves_directly_without_a_local_backend() {
        let cfg = MacroConfig::new(2, 2);
        let program = MacroProgram::random(2, 2, 3);
        let queue = Session::builder(cfg)
            .program(program.clone())
            .into_pool(ServePolicy::default())
            .unwrap();
        let batch = TokenBatch::random(2, 2, 1);
        let reply = queue.submit(batch.clone()).unwrap().wait().unwrap();
        assert_eq!(
            reply.result.tokens.get(0).unwrap().outputs,
            program.reference_output(&batch.tokens()[0])
        );
        assert_eq!(queue.shutdown().tokens(), 2);
        // The direct path fails as fast as build() on bad input.
        assert_eq!(
            Session::builder(MacroConfig::new(1, 1))
                .into_pool(ServePolicy::default())
                .unwrap_err(),
            BackendError::MissingProgram
        );
        let mismatch = Session::builder(MacroConfig::new(2, 2))
            .program(MacroProgram::random(2, 3, 0))
            .into_pool(ServePolicy::default())
            .unwrap_err();
        assert!(matches!(mismatch, BackendError::ProgramMismatch { .. }));
    }

    #[test]
    fn long_lived_sample_sets_stay_bounded_and_representative() {
        let mut set = SampleSet::default();
        let total = SampleSet::CAP * 4;
        for i in 0..total {
            set.push(i as f64);
        }
        // Bounded: the reservoir never exceeds its cap however long the
        // session lives…
        assert_eq!(set.samples.len(), SampleSet::CAP);
        assert_eq!(set.seen, total as u64);
        // …and stays a uniform subset: the retained median tracks the
        // true median of the full 0..4·CAP stream.
        let p50 = set.percentile(50.0).unwrap();
        let true_median = total as f64 / 2.0;
        assert!(
            (p50 - true_median).abs() < total as f64 * 0.05,
            "reservoir p50 {p50} drifted from true median {true_median}"
        );
        // Determinism: the same pushes reproduce the same reservoir.
        let mut replay = SampleSet::default();
        for i in 0..total {
            replay.push(i as f64);
        }
        assert_eq!(set.samples, replay.samples);
    }

    /// Fabricates a `BatchResult` carrying exactly these token latencies
    /// (seconds) — the percentile math's only input.
    fn result_with_latencies(latencies: &[f64]) -> BatchResult {
        let mut tokens = crate::batch::Observations::new(1);
        for &l in latencies {
            tokens.push(&[0], Some(Seconds(l)), None);
        }
        BatchResult {
            backend: "test",
            tokens,
            makespan: None,
            energy: None,
        }
    }

    #[test]
    fn percentiles_of_nothing_are_none() {
        let stats = SessionStats::default();
        assert_eq!(stats.p50_token_latency(), None);
        assert_eq!(stats.p99_token_latency(), None);
        assert_eq!(stats.percentile(0.0), None);
        assert_eq!(stats.percentile(100.0), None);
        assert_eq!(stats.p50_queue_wait(), None);
        assert_eq!(stats.queue_wait_percentile(99.0), None);
        // Tokens without latency observations leave percentiles None.
        let mut unmeasured = SessionStats::default();
        let mut result = result_with_latencies(&[]);
        for _ in 0..2 {
            result.tokens.push(&[0], None, None);
        }
        unmeasured.absorb(&result, Duration::from_millis(1));
        assert_eq!(unmeasured.tokens(), 2);
        assert_eq!(unmeasured.p50_token_latency(), None);
    }

    #[test]
    fn a_single_sample_is_every_percentile() {
        let mut stats = SessionStats::default();
        stats.absorb(&result_with_latencies(&[4.25]), Duration::from_millis(1));
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(stats.percentile(p), Some(Seconds(4.25)), "p{p}");
        }
        assert_eq!(stats.p50_token_latency(), stats.p99_token_latency());
    }

    #[test]
    fn a_nan_latency_is_dropped_instead_of_panicking_the_stats() {
        // A custom backend may report any `Seconds`, NaN included.
        struct NanLatency;
        impl MacroBackend for NanLatency {
            fn name(&self) -> &'static str {
                "nan-latency"
            }
            fn run_batch(&mut self, _batch: &TokenBatch) -> Result<BatchResult, BackendError> {
                Ok(result_with_latencies(&[1.0, f64::NAN, 3.0]))
            }
        }
        let mut s = Session::from_backend(MacroConfig::new(1, 1), Box::new(NanLatency));
        s.run(&TokenBatch::random(1, 3, 1)).unwrap();
        let stats = s.stats();
        assert_eq!(stats.tokens(), 3);
        assert_eq!(stats.p50_token_latency(), Some(Seconds(1.0)));
        assert_eq!(stats.p99_token_latency(), Some(Seconds(3.0)));
        assert!(stats.to_string().contains("p99"));
    }

    #[test]
    fn tied_samples_keep_nearest_rank_exact() {
        let mut stats = SessionStats::default();
        stats.absorb(
            &result_with_latencies(&[1.0, 1.0, 1.0, 2.0]),
            Duration::from_millis(1),
        );
        // nearest rank over [1, 1, 1, 2]: p50 -> rank 2, p75 -> rank 3,
        // p76..p100 -> rank 4.
        assert_eq!(stats.percentile(50.0), Some(Seconds(1.0)));
        assert_eq!(stats.percentile(75.0), Some(Seconds(1.0)));
        assert_eq!(stats.percentile(76.0), Some(Seconds(2.0)));
        assert_eq!(stats.p99_token_latency(), Some(Seconds(2.0)));
    }

    #[test]
    fn unsorted_arrival_order_does_not_skew_percentiles() {
        // Three batches, descending and interleaved latencies: the
        // sorted invariant must hold across absorbs, not per batch.
        let mut stats = SessionStats::default();
        stats.absorb(&result_with_latencies(&[9.0]), Duration::from_millis(1));
        stats.absorb(
            &result_with_latencies(&[1.0, 7.0]),
            Duration::from_millis(1),
        );
        stats.absorb(
            &result_with_latencies(&[5.0, 3.0]),
            Duration::from_millis(1),
        );
        // Sorted view: [1, 3, 5, 7, 9].
        assert_eq!(stats.percentile(50.0), Some(Seconds(5.0)));
        assert_eq!(stats.percentile(20.0), Some(Seconds(1.0)));
        assert_eq!(stats.percentile(21.0), Some(Seconds(3.0)));
        assert_eq!(stats.p99_token_latency(), Some(Seconds(9.0)));
        // Out-of-range percentiles clamp to the extremes.
        assert_eq!(stats.percentile(-5.0), Some(Seconds(1.0)));
        assert_eq!(stats.percentile(250.0), Some(Seconds(9.0)));
    }

    #[test]
    fn queued_micro_batches_feed_queue_stats() {
        let mut stats = SessionStats::default();
        // A served micro-batch: the batch itself, then its queue side.
        stats.absorb(
            &result_with_latencies(&[1.0, 2.0, 3.0]),
            Duration::from_millis(2),
        );
        stats.absorb_queue_side(3, &[Duration::from_micros(10), Duration::from_micros(30)]);
        stats.absorb(&result_with_latencies(&[4.0]), Duration::from_millis(1));
        stats.absorb_queue_side(1, &[Duration::from_micros(20)]);
        stats.record_queue_depth(2);
        stats.record_queue_depth(5);
        stats.record_queue_depth(3);
        assert_eq!(stats.tokens(), 4);
        assert_eq!(stats.queued_requests(), 3);
        assert_eq!(stats.queued_batches(), 2);
        assert_eq!(stats.max_coalesced_batch(), 3);
        assert_eq!(stats.max_queue_depth(), 5);
        assert!((stats.mean_coalesced_batch() - 2.0).abs() < 1e-12);
        // Queue waits sort across absorbs: [10, 20, 30] µs.
        assert_eq!(stats.p50_queue_wait(), Some(Duration::from_micros(20)));
        assert_eq!(stats.p99_queue_wait(), Some(Duration::from_micros(30)));
        let text = stats.to_string();
        assert!(text.contains("queue wait p50"), "{text}");
        assert!(text.contains("tokens/micro-batch"), "{text}");
        // A *failed* micro-batch still counts on the queue side (its
        // requests waited and resolved), but adds no served tokens.
        stats.absorb_queue_side(5, &[Duration::from_micros(40), Duration::from_micros(50)]);
        assert_eq!(stats.queued_requests(), 5);
        assert_eq!(stats.queued_batches(), 3);
        assert_eq!(stats.max_coalesced_batch(), 5);
        assert_eq!(stats.tokens(), 4, "served tokens stay success-only");
        assert!((stats.mean_coalesced_batch() - 3.0).abs() < 1e-12);
        assert_eq!(stats.p99_queue_wait(), Some(Duration::from_micros(50)));
    }

    #[test]
    fn sub_resolution_wall_time_reports_no_rate() {
        // "Too fast to measure" must be None, not a fake 0 tokens/s.
        let mut stats = SessionStats::default();
        stats.absorb(&result_with_latencies(&[1.0]), Duration::ZERO);
        assert_eq!(stats.tokens(), 1);
        assert_eq!(stats.tokens_per_sec(), None);
        let text = stats.to_string();
        assert!(text.contains("rate unmeasured"), "{text}");
        stats.absorb(&result_with_latencies(&[1.0]), Duration::from_millis(10));
        let rate = stats.tokens_per_sec();
        assert!(rate.is_some_and(|r| r > 0.0), "{rate:?}");
        assert!(stats.to_string().contains("tokens/s"));
    }

    #[test]
    fn replica_accounting_accumulates_and_utilises() {
        let mut stats = SessionStats::default();
        stats.record_replica_dispatch(1, Duration::from_millis(30));
        stats.record_replica_dispatch(0, Duration::from_millis(10));
        stats.record_replica_dispatch(1, Duration::from_millis(20));
        stats.note_pool(4, Duration::from_millis(100));
        assert_eq!(stats.replica_dispatches(), &[1, 2, 0, 0]);
        assert_eq!(stats.replica_busy()[1], Duration::from_millis(50));
        let util = stats.replica_utilisation();
        assert_eq!(util.len(), 4);
        assert!((util[0] - 0.1).abs() < 1e-9, "{util:?}");
        assert!((util[1] - 0.5).abs() < 1e-9, "{util:?}");
        assert_eq!(util[3], 0.0);
        // The uptime denominator only ever grows across snapshots.
        stats.note_pool(4, Duration::from_millis(50));
        assert_eq!(stats.pool_uptime(), Duration::from_millis(100));
        // Stats that never saw a pool make no utilisation claims.
        assert!(SessionStats::default().replica_utilisation().is_empty());
    }

    #[test]
    fn stage_profiles_accumulate_and_report_occupancy() {
        let mut stats = SessionStats::default();
        stats.init_stage(0, "conv");
        stats.init_stage(1, "relu");
        stats.record_stage_item(0, Duration::from_millis(40), Duration::from_millis(50));
        stats.record_stage_item(0, Duration::from_millis(10), Duration::from_millis(90));
        stats.record_stage_item(1, Duration::from_millis(5), Duration::from_millis(5));
        stats.set_stage_recovery(0, 3, 1);
        stats.set_stage_queue_high_water(1, 7);
        stats.note_pipeline(Duration::from_millis(100));
        stats.record_pipeline_reply(Duration::from_millis(95));
        let profiles = stats.stage_profiles();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].name(), "conv");
        assert_eq!(profiles[0].items(), 2);
        assert_eq!(profiles[0].busy(), Duration::from_millis(50));
        assert_eq!(profiles[0].retries(), 3);
        assert_eq!(profiles[0].restarts(), 1);
        assert_eq!(profiles[1].queue_high_water(), 7);
        assert_eq!(profiles[0].p99_residence(), Some(Duration::from_millis(90)));
        let occupancy = stats.stage_occupancy();
        assert!((occupancy[0] - 0.5).abs() < 1e-9, "{occupancy:?}");
        assert!((occupancy[1] - 0.05).abs() < 1e-9, "{occupancy:?}");
        assert_eq!(stats.images(), 1);
        assert!(stats.images_per_sec().is_some_and(|r| r > 0.0));
        assert_eq!(stats.p50_image_latency(), Some(Duration::from_millis(95)));
        // Snapshot semantics: recovery counters never regress, the
        // uptime denominator only grows.
        stats.set_stage_recovery(0, 2, 0);
        assert_eq!(stats.stage_profiles()[0].retries(), 3);
        stats.note_pipeline(Duration::from_millis(60));
        assert_eq!(stats.pipeline_uptime(), Duration::from_millis(100));
        let text = stats.to_string();
        assert!(text.contains("pipeline: 1 images"), "{text}");
        assert!(text.contains("[conv] 2 items"), "{text}");
        // Stats that never saw a pipeline stay silent about one.
        assert!(SessionStats::default().stage_profiles().is_empty());
        assert_eq!(SessionStats::default().images_per_sec(), None);
    }

    #[test]
    fn rtl_sessions_expose_the_netlist() {
        let cfg = MacroConfig::new(1, 1);
        let mut s = Session::builder(cfg)
            .program(MacroProgram::random(1, 1, 2))
            .backend(BackendKind::Rtl {
                fidelity: Fidelity::Sequential,
            })
            .build()
            .unwrap();
        s.run(&TokenBatch::random(1, 2, 3)).unwrap();
        assert!(s.rtl().unwrap().simulator().violations().is_empty());
        assert_eq!(s.backend_name(), "rtl-sequential");
        let rate = s.stats().tokens_per_sec();
        assert!(rate.is_some_and(|r| r > 0.0), "{rate:?}");
    }

    #[test]
    fn cached_sessions_report_hits_and_dedup_in_stats() {
        let cfg = MacroConfig::new(2, 2);
        let program = MacroProgram::random(2, 2, 17);
        let mut s = Session::builder(cfg)
            .program(program)
            .backend(BackendKind::Cached {
                cache: crate::cache::CacheConfig::default(),
                inner: Box::new(BackendKind::Functional { workers: 1 }),
            })
            .build()
            .unwrap();
        assert_eq!(s.backend_name(), "cached");
        let repeated = TokenBatch::random(2, 1, 9).tokens()[0].to_vec();
        let batch = TokenBatch::new(vec![repeated.clone(), repeated]).unwrap();
        s.run(&batch).unwrap();
        s.run(&batch).unwrap();
        let cache = s.stats().cache();
        assert_eq!(cache.misses, 1, "one unique token computed once");
        assert_eq!(cache.dedup, 1, "in-batch duplicate elided");
        assert_eq!(cache.hits, 2, "second batch fully served");
        assert!(cache.hit_rate().unwrap() > 0.5);
        assert!(cache.resident_entries == 1 && cache.resident_bytes > 0);
        let text = s.stats().to_string();
        assert!(text.contains("cache: 2 hits"), "{text}");
        // Uncached sessions stay silent about a cache.
        assert!(!SessionStats::default().to_string().contains("cache:"));
    }
}
