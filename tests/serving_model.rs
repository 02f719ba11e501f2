//! Model-based tests of the two serving front doors.
//!
//! Proptest generates sequences of operations: submit a request of 1–8
//! tokens under one of three client keys, optionally with a deadline;
//! claim an outstanding ticket through `poll`, `wait_timeout` or `wait`;
//! crash the replica that takes the next backend call; and `close`. Each
//! sequence runs against two deployments whose backends are
//! chaos-wrapped with `wrap_recipe` (15% transient faults plus one forced
//! panic, seeded from `MADDPIPE_CHAOS_SEED`, 7 when unset):
//!
//! * a 2-replica `ReplicaPool`, and
//! * a `PipelineGraph` with one host stage and one macro stage.
//!
//! A sequential model predicts every observable outcome. Every accepted
//! ticket resolves exactly once: with the spec outputs
//! (`reference_output` for the pool, `reference_trace` for the pipeline)
//! or with a typed transient error. Submits after `close` answer
//! `QueueClosed`, submits before it are accepted. Once every ticket is
//! claimed `depth()` is 0, and the final stats count exactly the
//! successful requests: tokens for the pool, images for the pipeline.
//!
//! The model also pins `PoolHealth`. Whenever it holds no open ticket
//! and `depth()` is 0, and after the final drain, every panic that fired
//! (the chaos schedule's, plus each crash step's) is counted once, as a
//! restart or a quarantine, and every replica is either healthy or
//! quarantined, before `close` and after it.

use maddpipe::prelude::*;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Decoder chains and stages of the macro both deployments serve.
const NDEC: usize = 3;
const NS: usize = 2;
/// Longest generated operation sequence — below the pipeline's intake
/// capacity, so a submit before `close` can never meet backpressure.
const MAX_OPS: usize = 32;
/// Replicas of the pool, and of the pipeline's macro stage.
const REPLICAS: usize = 2;
/// Crash steps the model honours per sequence. With the default budget
/// of one respawn per replica, these plus the chaos schedule's panic
/// quarantine at most one replica, so crashes never close a deployment.
const MAX_CRASHES: usize = 2;

/// The chaos seed under test: `MADDPIPE_CHAOS_SEED` when set (the CI
/// stress job sweeps a few), 7 otherwise.
fn chaos_seed() -> u64 {
    std::env::var("MADDPIPE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// 15% transient faults and a panic on global backend call `panic_call`.
fn chaos(panic_call: u64) -> ChaosConfig {
    ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_transient_rate(0.15)
        .with_panic_on_call(panic_call)
}

fn program() -> MacroProgram {
    MacroProgram::random(NDEC, NS, 91)
}

/// A rebuildable functional recipe for the model's program.
fn recipe(cfg: &MacroConfig, program: &MacroProgram) -> ReplicaFactory {
    let cfg = cfg.clone();
    let program = program.clone();
    Arc::new(move || BackendKind::Functional { workers: 1 }.build(&cfg, program.clone()))
}

/// The crash steps' trigger, shared by every replica of a deployment.
#[derive(Debug, Default)]
struct Crashes {
    /// Set by a crash step; the next backend call to see it panics.
    armed: AtomicBool,
    /// Panics fired so far.
    fired: AtomicU64,
}

/// A backend that panics on its next call once [`Crashes::armed`] is set.
struct Crashing {
    inner: Box<dyn MacroBackend>,
    crashes: Arc<Crashes>,
}

impl MacroBackend for Crashing {
    fn name(&self) -> &'static str {
        "crashing"
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        if self.crashes.armed.swap(false, Ordering::SeqCst) {
            self.crashes.fired.fetch_add(1, Ordering::SeqCst);
            panic!("model: injected crash");
        }
        self.inner.run_batch(batch)
    }
}

/// The faults every replica of a deployment draws: the chaos schedule
/// outside, the crash steps inside. A call the chaos layer fails or
/// panics never reaches the crash layer, so an armed crash waits for a
/// call that does.
struct Faults {
    chaos: Arc<ChaosState>,
    panic_call: u64,
    crashes: Arc<Crashes>,
}

impl Faults {
    fn new(panic_call: u64) -> Faults {
        Faults {
            chaos: ChaosState::new(),
            panic_call,
            crashes: Arc::default(),
        }
    }

    fn wrap(&self, recipe: ReplicaFactory) -> ReplicaFactory {
        let crashes = Arc::clone(&self.crashes);
        let crashing: ReplicaFactory = Arc::new(move || {
            Ok(Box::new(Crashing {
                inner: recipe()?,
                crashes: Arc::clone(&crashes),
            }) as Box<dyn MacroBackend>)
        });
        wrap_recipe(crashing, chaos(self.panic_call), Arc::clone(&self.chaos))
    }

    /// Panics fired so far: the crash steps', plus the chaos schedule's
    /// once its call index has been drawn.
    fn fired(&self) -> u64 {
        self.crashes.fired.load(Ordering::SeqCst) + u64::from(self.chaos.calls() > self.panic_call)
    }

    /// Checks `health` against the panics that fired. Call it only with
    /// nothing in flight, so every panic's respawn or quarantine is
    /// counted. Open or closed, every replica is healthy or quarantined:
    /// a replica that drained out after `close` stays healthy.
    fn check(&self, health: PoolHealth) {
        assert_eq!(health.healthy + health.quarantined, REPLICAS, "{health:?}");
        assert_eq!(
            health.restarts + health.quarantined as u64,
            self.fired(),
            "every panic respawns or quarantines once: {health:?}"
        );
    }
}

/// One generated request.
#[derive(Debug, Clone)]
struct Request {
    tokens: usize,
    client: u64,
    deadline: Option<Duration>,
    seed: u64,
}

impl Request {
    fn batch(&self) -> TokenBatch {
        TokenBatch::random(NS, self.tokens, self.seed)
    }

    /// The pipeline input: the batch's values, halved so the host
    /// stage's second halving keeps them well inside the `i8` range.
    fn image(&self) -> Vec<f32> {
        let batch = self.batch();
        batch
            .tokens()
            .iter()
            .flat_map(|t| {
                t.iter()
                    .flat_map(|sub| sub.iter().map(|&v| f32::from(v / 2)))
            })
            .collect()
    }
}

/// How a claim step takes a ticket.
#[derive(Debug, Clone, Copy)]
enum Claim {
    Poll,
    WaitTimeout,
    Wait,
}

#[derive(Debug, Clone)]
enum Op {
    Submit(Request),
    Claim { pick: usize, how: Claim },
    Crash,
    Close,
}

/// Submits dominate, claims come second, and `crash` and `close` are
/// rare enough that most sequences serve a while before them.
fn op() -> impl Strategy<Value = Op> {
    (
        0u32..21,
        (1usize..9, 0u64..3, 0u64..4),
        any::<u64>(),
        0usize..16,
    )
        .prop_map(
            |(kind, (tokens, client, deadline), seed, pick)| match kind {
                0..=10 => Op::Submit(Request {
                    tokens,
                    client,
                    deadline: (deadline > 0).then(|| Duration::from_micros(50 * deadline)),
                    seed,
                }),
                11..=13 => Op::Claim {
                    pick,
                    how: Claim::Poll,
                },
                14..=16 => Op::Claim {
                    pick,
                    how: Claim::WaitTimeout,
                },
                17..=18 => Op::Claim {
                    pick,
                    how: Claim::Wait,
                },
                19 => Op::Crash,
                _ => Op::Close,
            },
        )
}

/// One deployment, seen through the operations the model drives.
trait Deployment {
    type Ticket;

    fn submit(&self, request: &Request) -> Result<Self::Ticket, BackendError>;

    /// The spec outputs `request` must resolve with, flattened.
    fn expected(&self, request: &Request) -> Vec<f32>;

    /// Claims `ticket` the way `how` says: the resolution (outputs
    /// flattened like [`Deployment::expected`]), or the ticket back
    /// while it is still in flight.
    fn claim(
        ticket: Self::Ticket,
        how: Claim,
    ) -> Result<Result<Vec<f32>, BackendError>, Self::Ticket>;

    fn close(&self);

    fn depth(&self) -> usize;

    /// The faults the deployment's replicas draw.
    fn faults(&self) -> &Faults;

    /// The replica-health counters now.
    fn health(&self) -> PoolHealth;

    /// Shuts the deployment down and returns what its stats count as
    /// served: tokens for a pool, images for a pipeline.
    fn shutdown(self) -> u64;

    /// What one successful `request` adds to that count.
    fn units(request: &Request) -> u64;

    /// Whether `error` is a typed resolution an accepted request may
    /// get under the chaos schedule.
    fn allowed(error: &BackendError) -> bool;
}

/// The short wait a `WaitTimeout` claim gives a ticket.
const CLAIM_TIMEOUT: Duration = Duration::from_micros(100);

struct Pool {
    pool: ReplicaPool,
    program: MacroProgram,
    faults: Faults,
}

impl Pool {
    fn new(panic_call: u64) -> Pool {
        let cfg = MacroConfig::new(NDEC, NS);
        let program = program();
        let faults = Faults::new(panic_call);
        let recipes = (0..REPLICAS)
            .map(|_| faults.wrap(recipe(&cfg, &program)))
            .collect();
        let policy = ServePolicy::default()
            .with_fairness(Fairness::RoundRobin)
            .with_queue(QueuePolicy::default().with_max_batch(16));
        let pool = ReplicaPool::from_recipes(policy, NS, recipes).expect("the pool comes up");
        Pool {
            pool,
            program,
            faults,
        }
    }
}

impl Deployment for Pool {
    type Ticket = BatchTicket;

    fn submit(&self, request: &Request) -> Result<BatchTicket, BackendError> {
        let mut opts = SubmitOptions::default().with_client(request.client);
        if let Some(deadline) = request.deadline {
            opts = opts.with_deadline(deadline);
        }
        self.pool.submit_with(request.batch(), opts)
    }

    fn expected(&self, request: &Request) -> Vec<f32> {
        request
            .batch()
            .tokens()
            .iter()
            .flat_map(|t| self.program.reference_output(t))
            .map(f32::from)
            .collect()
    }

    fn claim(
        ticket: BatchTicket,
        how: Claim,
    ) -> Result<Result<Vec<f32>, BackendError>, BatchTicket> {
        let outcome = match how {
            Claim::Poll => ticket.poll()?,
            Claim::WaitTimeout => ticket.wait_timeout(CLAIM_TIMEOUT)?,
            Claim::Wait => ticket.wait(),
        };
        Ok(outcome.map(|reply| {
            reply
                .result
                .tokens
                .iter()
                .flat_map(|o| o.outputs.iter().map(|&v| f32::from(v)))
                .collect()
        }))
    }

    fn close(&self) {
        self.pool.close();
    }

    fn depth(&self) -> usize {
        self.pool.depth()
    }

    fn faults(&self) -> &Faults {
        &self.faults
    }

    fn health(&self) -> PoolHealth {
        self.pool.health()
    }

    fn shutdown(self) -> u64 {
        self.pool.shutdown().tokens()
    }

    fn units(request: &Request) -> u64 {
        request.tokens as u64
    }

    fn allowed(error: &BackendError) -> bool {
        matches!(
            error,
            BackendError::Transient { .. } | BackendError::ReplicaPanicked
        )
    }
}

struct Pipeline {
    graph: PipelineGraph,
    /// The same stages without chaos: the golden `reference_trace`.
    reference: PipelineSpec,
    faults: Faults,
}

impl Pipeline {
    /// Host stage 0 halves the activation; macro stage 1 encodes it one
    /// token per `NS * SUBVECTOR_LEN` values and flattens the outputs.
    fn spec(wrap: impl FnOnce(ReplicaFactory) -> ReplicaFactory) -> PipelineSpec {
        let cfg = MacroConfig::new(NDEC, NS);
        let stage = MacroStage::new(
            "macro",
            &cfg,
            program(),
            BackendKind::Functional { workers: 1 },
            |x: &[f32]| {
                let rows: Vec<&[f32]> = x.chunks(NS * SUBVECTOR_LEN).collect();
                TokenBatch::from_f32_rows(&rows, NS, QuantScale::UNIT)
            },
            |r: &BatchResult| {
                Ok(r.tokens
                    .iter()
                    .flat_map(|t| t.outputs.iter().map(|&v| f32::from(v)))
                    .collect())
            },
        )
        .expect("the program fits")
        .with_policy(StagePolicy::default().with_replicas(REPLICAS))
        .map_recipe(wrap);
        PipelineSpec::new()
            .host("halve", |x: Vec<f32>| {
                Ok(x.into_iter().map(|v| v * 0.5).collect())
            })
            .macro_stage(stage)
    }

    fn new(panic_call: u64) -> Pipeline {
        let faults = Faults::new(panic_call);
        let chaotic = Pipeline::spec(|recipe| faults.wrap(recipe));
        let graph = PipelineGraph::build(chaotic, PipelinePolicy::default().with_capacity(64))
            .expect("the pipeline comes up");
        Pipeline {
            graph,
            reference: Pipeline::spec(|recipe| recipe),
            faults,
        }
    }
}

impl Deployment for Pipeline {
    type Ticket = PipelineTicket;

    fn submit(&self, request: &Request) -> Result<PipelineTicket, BackendError> {
        self.graph.submit(request.image())
    }

    fn expected(&self, request: &Request) -> Vec<f32> {
        let mut trace = self
            .reference
            .reference_trace(&request.image())
            .expect("the reference runs");
        trace.pop().expect("one output per stage")
    }

    fn claim(
        ticket: PipelineTicket,
        how: Claim,
    ) -> Result<Result<Vec<f32>, BackendError>, PipelineTicket> {
        let outcome = match how {
            Claim::Poll => ticket.poll()?,
            Claim::WaitTimeout => ticket.wait_timeout(CLAIM_TIMEOUT)?,
            Claim::Wait => ticket.wait(),
        };
        Ok(outcome.map(|reply| reply.outputs))
    }

    fn close(&self) {
        self.graph.close();
    }

    fn depth(&self) -> usize {
        self.graph.depth()
    }

    fn faults(&self) -> &Faults {
        &self.faults
    }

    fn health(&self) -> PoolHealth {
        self.graph.stats().pool_health()
    }

    fn shutdown(self) -> u64 {
        self.graph.shutdown().images()
    }

    fn units(_request: &Request) -> u64 {
        1
    }

    fn allowed(error: &BackendError) -> bool {
        matches!(
            error,
            BackendError::Stage { stage: 1, source } if Pool::allowed(source)
        )
    }
}

/// The sequential model: runs `ops` against `deployment` and checks
/// every outcome it can predict.
fn check_against_model<D: Deployment>(deployment: D, ops: &[Op]) {
    let mut closed = false;
    let mut crashes = 0;
    // Accepted, unclaimed tickets with their spec outputs and units.
    let mut open: Vec<(D::Ticket, Vec<f32>, u64)> = Vec::new();
    let mut accepted = 0u64;
    let mut resolved = 0u64;
    let mut served = 0u64;
    let mut settle = |outcome: Result<Vec<f32>, BackendError>, expected: &[f32], units: u64| {
        resolved += 1;
        match outcome {
            Ok(outputs) => {
                assert_eq!(outputs, expected, "a resolution differs from the spec");
                served += units;
            }
            Err(error) => assert!(D::allowed(&error), "untyped resolution: {error:?}"),
        }
    };
    for op in ops {
        match op {
            Op::Submit(request) => match deployment.submit(request) {
                Ok(ticket) => {
                    assert!(!closed, "a submit after close was accepted");
                    accepted += 1;
                    open.push((ticket, deployment.expected(request), D::units(request)));
                }
                Err(error) => {
                    assert!(closed, "a submit before close was refused: {error:?}");
                    assert_eq!(error, BackendError::QueueClosed);
                }
            },
            Op::Claim { pick, how } => {
                if open.is_empty() {
                    continue;
                }
                let (ticket, expected, units) = open.swap_remove(pick % open.len());
                match D::claim(ticket, *how) {
                    Ok(outcome) => settle(outcome, &expected, units),
                    Err(ticket) => open.push((ticket, expected, units)),
                }
            }
            Op::Crash => {
                if crashes < MAX_CRASHES {
                    crashes += 1;
                    deployment
                        .faults()
                        .crashes
                        .armed
                        .store(true, Ordering::SeqCst);
                }
            }
            Op::Close => {
                deployment.close();
                closed = true;
            }
        }
        if open.is_empty() && deployment.depth() == 0 {
            deployment.faults().check(deployment.health());
        }
    }
    deployment.close();
    for (ticket, expected, units) in open {
        match D::claim(ticket, Claim::Wait) {
            Ok(outcome) => settle(outcome, &expected, units),
            Err(_) => unreachable!("wait always resolves"),
        }
    }
    assert_eq!(resolved, accepted, "every accepted ticket resolves once");
    assert_eq!(deployment.depth(), 0, "nothing unresolved after the drain");
    deployment.faults().check(deployment.health());
    assert_eq!(
        deployment.shutdown(),
        served,
        "the stats count exactly the successful requests"
    );
}

proptest! {
    #[test]
    fn a_chaotic_two_replica_pool_follows_the_sequential_model(
        ops in proptest::collection::vec(op(), 1..MAX_OPS),
        panic_call in 0u64..6,
    ) {
        check_against_model(Pool::new(panic_call), &ops);
    }

    #[test]
    fn a_chaotic_host_and_macro_pipeline_follows_the_sequential_model(
        ops in proptest::collection::vec(op(), 1..MAX_OPS),
        panic_call in 0u64..6,
    ) {
        check_against_model(Pipeline::new(panic_call), &ops);
    }
}
