//! Fault-injection tests for the self-healing serving stack.
//!
//! The recovery contract under test: with a `ChaosBackend` injecting
//! seeded transient failures and a forced replica crash, a multi-client
//! workload through a `ReplicaPool` still completes **bit-identical** to
//! direct `run_batch` — retries, requeues and respawns must be invisible
//! in every request's own results. No ticket is ever leaked, the pool
//! never closes while at least one replica is healthy, and `PoolHealth`
//! accounts for every crash (respawned or quarantined).
//!
//! The chaos seed is `MADDPIPE_CHAOS_SEED` when set (CI sweeps several),
//! 7 otherwise; every fault schedule is a pure function of it.

use maddpipe::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;
const TOKENS_PER_REQUEST: usize = 4;

/// The chaos seed under test: `MADDPIPE_CHAOS_SEED` when set (the CI
/// stress job sweeps a few), 7 otherwise.
fn chaos_seed() -> u64 {
    std::env::var("MADDPIPE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// Tokens in client `c`'s `r`-th request: 1 to 6, so one micro-batch
/// mixes rider lengths and a retry re-queues riders of several sizes.
fn request_len(c: usize, r: usize) -> usize {
    1 + (3 * c + r) % 6
}

/// The deterministic batch client `c` submits as its `r`-th request.
fn client_batch(ns: usize, c: usize, r: usize) -> TokenBatch {
    TokenBatch::random(ns, request_len(c, r), 1 + (c as u64) * 1000 + r as u64)
}

/// A rebuildable functional-replica recipe for `program` — what a
/// respawning pool rebuilds crashed replicas from.
fn functional_recipe(cfg: &MacroConfig, program: &MacroProgram) -> ReplicaFactory {
    let cfg = cfg.clone();
    let program = program.clone();
    Arc::new(move || BackendKind::Functional { workers: 1 }.build(&cfg, program.clone()))
}

#[test]
fn an_eight_client_workload_survives_faults_bit_identical() {
    let cfg = MacroConfig::new(3, 2);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 77);
    let ns = cfg.ns;

    // Golden: one direct session, batches run one at a time.
    let mut direct = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(BackendKind::Functional { workers: 1 })
        .build()
        .expect("program fits");
    let mut expected: Vec<Vec<Vec<Vec<i16>>>> = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let mut per_client = Vec::with_capacity(REQUESTS_PER_CLIENT);
        for r in 0..REQUESTS_PER_CLIENT {
            let result = direct.run(&client_batch(ns, c, r)).expect("direct run");
            per_client.push(result.tokens.iter().map(|t| t.outputs.to_vec()).collect());
        }
        expected.push(per_client);
    }

    // Chaos pool: three respawnable replicas drawing ≥10% transient
    // failures and one forced crash from a single seeded schedule.
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_transient_rate(0.15)
        .with_panic_on_call(6);
    let recipes = (0..3)
        .map(|_| wrap_recipe(functional_recipe(&cfg, &program), chaos, Arc::clone(&state)))
        .collect();
    let pool = ReplicaPool::from_recipes(
        ServePolicy::default()
            .with_fairness(Fairness::RoundRobin)
            .with_queue(
                QueuePolicy::default()
                    .with_max_batch(32)
                    .with_max_linger(Duration::from_micros(200))
                    .with_max_depth(4096),
            )
            .with_recovery(
                RecoveryPolicy::default()
                    .with_max_retries(8)
                    .with_backoff(Duration::from_micros(50))
                    .with_respawn(2),
            ),
        ns,
        recipes,
    )
    .expect("pool comes up");

    std::thread::scope(|scope| {
        for (c, expected) in expected.iter().enumerate() {
            let pool = &pool;
            scope.spawn(move || {
                let opts = SubmitOptions::default().with_client(c as u64);
                // Submit everything first, then wait — all clients'
                // requests really are in flight while faults land.
                let tickets: Vec<BatchTicket> = (0..REQUESTS_PER_CLIENT)
                    .map(|r| {
                        pool.submit_with(client_batch(ns, c, r), opts)
                            .expect("accepted")
                    })
                    .collect();
                // Zero leaked tickets: every single one resolves, and
                // with results — the recovery machinery absorbed every
                // injected fault before any client saw it.
                for (r, ticket) in tickets.into_iter().enumerate() {
                    let reply = ticket.wait().expect("served through faults");
                    assert!(reply.coalesced_tokens >= request_len(c, r));
                    let got: Vec<Vec<i16>> = reply
                        .result
                        .tokens
                        .iter()
                        .map(|t| t.outputs.to_vec())
                        .collect();
                    assert_eq!(got, expected[r], "client {c} request {r}");
                }
            });
        }
    });

    // The workload outran the chaos: faults actually fired (the 15%
    // rate over dozens of calls cannot silently round to zero) and the
    // forced crash was respawned, not quarantined.
    let health = pool.health();
    assert_eq!(health.healthy, 3, "the crashed replica is back");
    assert_eq!(health.quarantined, 0);
    assert!(
        health.restarts >= 1,
        "the forced crash respawned: {health:?}"
    );

    // The pool never closed: it still serves after the storm.
    let after = pool
        .submit(client_batch(ns, 0, 0))
        .expect("a healthy pool keeps accepting")
        .wait()
        .expect("and keeps serving");
    assert_eq!(
        after.result.tokens.get(0).unwrap().outputs,
        program.reference_output(&client_batch(ns, 0, 0).tokens()[0]),
    );

    let total: usize = (0..CLIENTS)
        .flat_map(|c| (0..REQUESTS_PER_CLIENT).map(move |r| request_len(c, r)))
        .sum::<usize>()
        + request_len(0, 0);
    let total = total as u64;
    let stats = pool.shutdown();
    assert_eq!(stats.tokens(), total, "every token served exactly once");
    assert!(stats.retries() >= 1, "transient faults were retried");
    assert_eq!(stats.pool_health().quarantined, 0);
    assert!(stats.pool_health().restarts >= 1);
}

#[test]
fn a_mid_service_panic_leaves_survivors_draining_the_backlog() {
    // A replica crashes *mid-service* while other riders are queued
    // behind it. The crash must cost nothing but a retry — the
    // surviving replica drains the whole backlog, the dead one is
    // quarantined (no respawn budget), and the pool stays open on the
    // survivor.
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 31);
    let ns = cfg.ns;
    let state = ChaosState::new();
    // The very first backend call panics — deterministically exactly
    // one crash, on whichever replica dispatches first.
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_panic_on_call(0);
    let recipes = (0..2)
        .map(|_| wrap_recipe(functional_recipe(&cfg, &program), chaos, Arc::clone(&state)))
        .collect();
    let pool = ReplicaPool::from_recipes(
        ServePolicy::default()
            .with_replicas(2)
            .with_queue(
                QueuePolicy::default()
                    .with_max_batch(8)
                    .with_max_linger(Duration::from_micros(100))
                    .with_max_depth(1024),
            )
            .with_recovery(
                RecoveryPolicy::default()
                    .with_max_retries(3)
                    .with_backoff(Duration::from_micros(50))
                    .with_respawn(0),
            ),
        ns,
        recipes,
    )
    .expect("pool comes up");

    // A backlog of 12 requests, submitted before any wait: the panicked
    // micro-batch's riders requeue and everything behind them drains.
    let batches: Vec<TokenBatch> = (0..12).map(|r| client_batch(ns, 1, r)).collect();
    let tickets: Vec<BatchTicket> = batches
        .iter()
        .map(|b| pool.submit(b.clone()).expect("accepted"))
        .collect();
    for (ticket, batch) in tickets.into_iter().zip(&batches) {
        let reply = ticket.wait().expect("the survivor drains the backlog");
        for (t, token) in batch.tokens().iter().enumerate() {
            assert_eq!(
                reply.result.tokens.get(t).unwrap().outputs,
                program.reference_output(token),
                "bit-identical through the crash"
            );
        }
    }

    // Exactly one replica died and was quarantined; the pool degrades
    // to the survivor instead of closing.
    let health = pool.health();
    assert_eq!(health.healthy, 1, "{health:?}");
    assert_eq!(health.quarantined, 1, "{health:?}");
    assert_eq!(health.restarts, 0, "a zero respawn budget never rebuilds");
    pool.submit(client_batch(ns, 1, 99))
        .expect("one healthy replica keeps the pool open")
        .wait()
        .expect("and serving");
    let stats = pool.shutdown();
    assert!(stats.retries() >= 1, "the crashed micro-batch was retried");
    assert_eq!(stats.pool_health().quarantined, 1);
}

#[test]
fn a_reply_after_a_crash_finds_the_respawn_counted() {
    // A crashed replica is rebuilt before its riders are re-queued, so
    // the reply to a request that rode the crash resolves only after
    // `restarts` counts the rebuild. Every rebuild here takes 200 ms:
    // riders re-queued first would be served by the sibling replica
    // long before the rebuild finishes.
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 19);
    let builds = Arc::new(AtomicUsize::new(0));
    let slow_rebuilds: ReplicaFactory = {
        let inner = functional_recipe(&cfg, &program);
        Arc::new(move || {
            // The first two builds bring the pool up; later ones respawn.
            if builds.fetch_add(1, Ordering::SeqCst) >= 2 {
                std::thread::sleep(Duration::from_millis(200));
            }
            inner()
        })
    };
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_panic_on_call(0);
    let recipes = (0..2)
        .map(|_| wrap_recipe(Arc::clone(&slow_rebuilds), chaos, Arc::clone(&state)))
        .collect();
    let pool = ReplicaPool::from_recipes(
        ServePolicy::default().with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO)),
        cfg.ns,
        recipes,
    )
    .expect("pool comes up");
    let batch = TokenBatch::random(cfg.ns, TOKENS_PER_REQUEST, 3);
    let reply = pool
        .submit(batch.clone())
        .expect("accepted")
        .wait()
        .expect("served through the crash");
    assert_eq!(
        pool.health().restarts,
        1,
        "the reply resolved before the respawn was counted"
    );
    for (obs, token) in reply.result.tokens.iter().zip(batch.tokens()) {
        assert_eq!(obs.outputs, program.reference_output(token));
    }
    pool.shutdown();
}

#[test]
fn wrong_width_outputs_are_a_typed_fatal_error_not_corruption() {
    // A chaos fault that breaks the one-observation-per-token contract
    // must surface as a typed fatal error to exactly the riders of the
    // broken micro-batch — never as silently mis-sliced outputs, and
    // never as a retry loop (the fault is in the payload, not timing).
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 13);
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_wrong_width_rate(1.0);
    let recipes = vec![wrap_recipe(
        functional_recipe(&cfg, &program),
        chaos,
        Arc::clone(&state),
    )];
    let pool = ReplicaPool::from_recipes(
        ServePolicy::default().with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO)),
        cfg.ns,
        recipes,
    )
    .expect("pool comes up");
    let err = pool
        .submit(TokenBatch::random(2, 3, 1))
        .expect("accepted")
        .wait()
        .expect_err("a truncated result is an error, not data");
    assert!(
        matches!(err, BackendError::MalformedProgram { .. }),
        "{err:?}"
    );
    assert!(!err.is_transient(), "payload corruption must not retry");
    // The replica survives its backend's bad answer: the pool is still
    // open and healthy (the next batch fails the same way — the rate is
    // 1.0 — but it is *served* and typed, not dropped).
    assert_eq!(pool.health().healthy, 1);
    let again = pool
        .submit(TokenBatch::random(2, 2, 2))
        .expect("still accepting")
        .wait();
    assert!(again.is_err());
    pool.shutdown();
}

#[test]
fn transient_inner_faults_never_poison_the_cached_tier() {
    // Cache *outside* chaos: the cached tier watches its own inner
    // backend fail transiently mid-miss. The pinned purity semantic: a
    // failed micro-batch inserts nothing (no negative caching), the
    // pool's retry re-executes the misses, and once a token is finally
    // computed the cached bytes are the true ones — every later hit is
    // bit-identical, under every CI chaos seed.
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 53);
    let ns = cfg.ns;
    let alphabet: Vec<Token> = TokenBatch::random(ns, 6, 4242)
        .tokens()
        .iter()
        .map(<[_]>::to_vec)
        .collect();
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_transient_rate(0.3);
    let recipe: ReplicaFactory = {
        let cfg = cfg.clone();
        let program = program.clone();
        let state = Arc::clone(&state);
        Arc::new(move || {
            let inner = BackendKind::Functional { workers: 1 }.build(&cfg, program.clone())?;
            let flaky = Box::new(ChaosBackend::with_state(inner, chaos, Arc::clone(&state)));
            // max_entries = 3 against a 6-token alphabet: constant churn
            // keeps the flaky inner in play instead of everything
            // hitting warm.
            Ok(Box::new(CachedBackend::new(
                flaky,
                &program,
                CacheConfig::default().with_max_entries(3),
            )) as Box<dyn MacroBackend>)
        })
    };
    let pool = ReplicaPool::from_recipes(
        ServePolicy::default()
            .with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO))
            .with_recovery(
                RecoveryPolicy::default()
                    .with_max_retries(8)
                    .with_backoff(Duration::from_micros(50)),
            ),
        ns,
        vec![recipe],
    )
    .expect("pool comes up");

    // Sequential submit/wait: each request is its own micro-batch, and
    // each holds 4 distinct tokens against a 3-entry store — every
    // single one reaches the flaky inner, so the 30% rate draws dozens
    // of times under every CI seed.
    for r in 0..24 {
        let tokens: Vec<Token> = (0..TOKENS_PER_REQUEST)
            .map(|t| alphabet[(r * 5 + t) % alphabet.len()].clone())
            .collect();
        let batch = TokenBatch::new(tokens).expect("non-empty");
        let reply = pool
            .submit(batch.clone())
            .expect("accepted")
            .wait()
            .expect("served through the flaky inner");
        for (obs, token) in reply.result.tokens.iter().zip(batch.tokens()) {
            assert_eq!(
                obs.outputs,
                program.reference_output(token),
                "a retried miss must land the true bytes"
            );
        }
    }

    // Scrub pass: one final request sweeps the whole alphabet through
    // the pool. Every entry that survived the storm resident answers it
    // as a hit, so each must serve the true bytes.
    assert!(
        pool.stats().cache().resident_entries > 0,
        "nothing to scrub"
    );
    let sweep = TokenBatch::new(alphabet.clone()).expect("non-empty");
    let reply = pool
        .submit(sweep)
        .expect("accepted")
        .wait()
        .expect("served through the flaky inner");
    for (obs, token) in reply.result.tokens.iter().zip(&alphabet) {
        assert_eq!(
            obs.outputs,
            program.reference_output(token),
            "no poisoned entry survived the storm"
        );
    }

    let stats = pool.shutdown();
    assert!(stats.retries() >= 1, "the 30% transient rate fired");
    let cache = stats.cache();
    assert!(cache.misses > 0 && cache.hits > 0, "{stats}");
    // The store itself stayed coherent through every aborted insert.
    assert_eq!(
        cache.insertions,
        cache.evictions + cache.resident_entries as u64,
        "aborted micro-batches never leaked a phantom entry"
    );
    assert!(cache.resident_entries <= 3);
}

#[test]
fn a_forced_crash_respawns_onto_the_same_warm_store() {
    // Chaos *outside* the cache this time: a seeded panic kills a
    // replica mid-service, and the pool respawns it from the same
    // recipe, which builds the replica a fresh store. The crash must
    // cost a retry, never the cache — post-recovery replies stay
    // bit-identical, the warm entries keep hitting, and the stores'
    // accounting balances.
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 61);
    let ns = cfg.ns;
    let alphabet: Vec<Token> = TokenBatch::random(ns, 5, 777)
        .tokens()
        .iter()
        .map(<[_]>::to_vec)
        .collect();
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_panic_on_call(5);
    let cached_recipe: ReplicaFactory = {
        let cfg = cfg.clone();
        let program = program.clone();
        let kind = BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        };
        Arc::new(move || kind.build(&cfg, program.clone()))
    };
    let recipes = (0..2)
        .map(|_| wrap_recipe(Arc::clone(&cached_recipe), chaos, Arc::clone(&state)))
        .collect();
    let pool = ReplicaPool::from_recipes(
        ServePolicy::default()
            .with_fairness(Fairness::RoundRobin)
            .with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO))
            .with_recovery(
                RecoveryPolicy::default()
                    .with_max_retries(8)
                    .with_backoff(Duration::from_micros(50))
                    .with_respawn(2),
            ),
        ns,
        recipes,
    )
    .expect("pool comes up");

    // Sequential submit/wait: every request is its own micro-batch, so
    // the shared call counter deterministically reaches the seeded
    // crash at call 5 — mid-stream, with warm entries already resident.
    for r in 0..20 {
        let tokens: Vec<Token> = (0..TOKENS_PER_REQUEST)
            .map(|t| alphabet[(r * 3 + t) % alphabet.len()].clone())
            .collect();
        let batch = TokenBatch::new(tokens).expect("non-empty");
        let reply = pool
            .submit(batch.clone())
            .expect("accepted")
            .wait()
            .expect("served through the crash");
        for (obs, token) in reply.result.tokens.iter().zip(batch.tokens()) {
            assert_eq!(
                obs.outputs,
                program.reference_output(token),
                "bit-identical across the respawn"
            );
        }
    }

    // The crashed replica's riders were already re-served, but the
    // respawn itself may still be in flight — give it a bounded moment.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut health = pool.health();
    while (health.healthy < 2 || health.restarts < 1) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
        health = pool.health();
    }
    assert_eq!(health.healthy, 2, "the crashed replica is back: {health:?}");
    assert_eq!(health.quarantined, 0);
    assert!(health.restarts >= 1, "the forced crash respawned");

    let stats = pool.shutdown();
    assert!(stats.pool_health().restarts >= 1);
    let cache = stats.cache();
    assert!(
        cache.hits > 0 && cache.misses > 0,
        "the stores stayed warm across the respawn: {stats}"
    );
    // The crash panics above the cache, so every served request made
    // its 4 lookups in some store, the dead one's included.
    assert_eq!(cache.hits + cache.misses, 80, "{cache:?}");
    // With 5 distinct tokens ever submitted, each live store computed
    // each at most once — it never ballooned past the alphabet, crash
    // or not. The dead store's entries left without being evicted.
    assert!(cache.resident_entries <= 2 * alphabet.len(), "{cache:?}");
    assert!(cache.insertions >= cache.evictions + cache.resident_entries as u64);
}

#[test]
fn latency_spikes_delay_but_never_change_results() {
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 5);
    let spike = Duration::from_millis(2);
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_latency_spikes(1.0, spike);
    let recipes = vec![wrap_recipe(
        functional_recipe(&cfg, &program),
        chaos,
        Arc::clone(&state),
    )];
    let pool = ReplicaPool::from_recipes(
        ServePolicy::default().with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO)),
        cfg.ns,
        recipes,
    )
    .expect("pool comes up");
    let batch = TokenBatch::random(2, 4, 9);
    let reply = pool
        .submit(batch.clone())
        .expect("accepted")
        .wait()
        .expect("served, just late");
    assert!(
        reply.service >= spike,
        "the spike shows up in the measured service time: {:?}",
        reply.service
    );
    for (t, token) in batch.tokens().iter().enumerate() {
        assert_eq!(
            reply.result.tokens.get(t).unwrap().outputs,
            program.reference_output(token)
        );
    }
    let stats = pool.shutdown();
    assert_eq!(stats.retries(), 0, "latency is not an error");
    assert_eq!(
        stats.pool_health(),
        PoolHealth {
            healthy: 1, // drained by shutdown, not lost
            quarantined: 0,
            restarts: 0,
        }
    );
}

/// A shard backend whose next `failures_left` batches fail transiently,
/// then recovers for good — the flaky-but-alive shard. `calls` counts
/// every batch it is asked to run.
struct RecoveringBackend {
    inner: FunctionalBackend,
    failures_left: usize,
    calls: Arc<AtomicUsize>,
}

impl MacroBackend for RecoveringBackend {
    fn name(&self) -> &'static str {
        "recovering"
    }
    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        let attempt = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if self.failures_left > 0 {
            self.failures_left -= 1;
            return Err(BackendError::Transient {
                reason: format!("flaky shard, failure {attempt}"),
            });
        }
        self.inner.run_batch(batch)
    }
}

/// A one-replica pool whose backend shards a 4-chain program over two
/// shards, shard `s` being `build(s, its sub-program)` — built afresh
/// whenever the pool builds or respawns the replica. Returns the pool and
/// the wide program.
fn sharded_pool(
    recovery: RecoveryPolicy,
    build: impl Fn(usize, MacroProgram) -> Box<dyn MacroBackend> + Send + Sync + 'static,
) -> (ReplicaPool, MacroProgram) {
    let program = MacroProgram::random(4, 2, 31);
    let plan = ShardPlan::even(4, 2).expect("4 chains over 2 shards");
    let subs = plan.split(&program).expect("the plan covers the program");
    let recipe: ReplicaFactory = Arc::new(move || {
        let shards = subs
            .iter()
            .enumerate()
            .map(|(s, sub)| build(s, sub.clone()))
            .collect();
        Ok(Box::new(ShardedBackend::from_backends(
            plan.clone(),
            2,
            shards,
        )?))
    });
    let pool = ReplicaPool::from_recipes(
        ServePolicy::default()
            .with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO))
            .with_recovery(recovery),
        2,
        vec![recipe],
    )
    .expect("pool comes up");
    (pool, program)
}

/// [`sharded_pool`] with shard `flaky` a `RecoveringBackend` that fails
/// its first `failures` batches and the other a healthy one. Returns the
/// pool, the wide program, and the per-shard call counters.
fn pool_with_a_flaky_shard(
    flaky: usize,
    failures: usize,
    recovery: RecoveryPolicy,
) -> (ReplicaPool, MacroProgram, [Arc<AtomicUsize>; 2]) {
    let calls = [Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0))];
    let counters = calls.clone();
    let (pool, program) = sharded_pool(recovery, move |s, sub| {
        Box::new(RecoveringBackend {
            inner: FunctionalBackend::new(sub),
            failures_left: if s == flaky { failures } else { 0 },
            calls: Arc::clone(&counters[s]),
        })
    });
    (pool, program, calls)
}

/// The pool's retry budget at 2, with a short backoff.
fn two_retries() -> RecoveryPolicy {
    RecoveryPolicy::default()
        .with_max_retries(2)
        .with_backoff(Duration::from_micros(50))
}

#[test]
fn a_transiently_failing_shard_is_retried_by_the_pool_and_the_request_succeeds() {
    // Shard 1 fails twice and succeeds on its third attempt. The
    // sharded backend surfaces each failure once; the pool re-runs the
    // micro-batch inside its budget, so the reply is bit-identical to
    // the wide macro with no caller-visible error.
    let (pool, program, _) = pool_with_a_flaky_shard(1, 2, two_retries());
    let batch = TokenBatch::random(2, 5, 17);
    let wide = FunctionalBackend::new(program)
        .run_batch(&batch)
        .expect("the wide macro serves");
    let reply = pool.submit(batch.clone()).expect("accepted").wait();
    assert_eq!(
        reply.expect("retried to success").result.outputs(),
        wide.outputs()
    );
    // A second request serves first-try: the shard has recovered.
    let again = pool.submit(batch).expect("accepted").wait();
    assert_eq!(again.expect("served").result.outputs(), wide.outputs());
    let stats = pool.shutdown();
    assert_eq!(stats.retries(), 2, "two shard failures, two pool retries");
}

#[test]
fn an_exhausted_pool_retry_budget_surfaces_the_typed_shard_error() {
    // Shard 0 fails 5 times, more than 1 + 2 attempts: the ticket
    // resolves with the third attempt's error, wrapped once.
    let (pool, program, calls) = pool_with_a_flaky_shard(0, 5, two_retries());
    let batch = TokenBatch::random(2, 5, 17);
    let err = pool
        .submit(batch.clone())
        .expect("accepted")
        .wait()
        .expect_err("the budget exhausts");
    assert_eq!(
        err,
        BackendError::Shard {
            shard: 0,
            source: Box::new(BackendError::Transient {
                reason: "flaky shard, failure 3".into()
            }),
        }
    );
    // Two failures are left: the next request burns both (first try and
    // first retry) and lands on attempt 6, inside its own budget.
    let wide = FunctionalBackend::new(program)
        .run_batch(&batch)
        .expect("the wide macro serves");
    let reply = pool.submit(batch).expect("accepted").wait();
    assert_eq!(reply.expect("recovered").result.outputs(), wide.outputs());
    // A failing shard stops the batch: shard 1 ran only on attempt 6.
    assert_eq!(calls[0].load(Ordering::SeqCst), 6, "failing shard");
    assert_eq!(calls[1].load(Ordering::SeqCst), 1, "healthy shard");
    pool.shutdown();
}

#[test]
fn an_always_failing_shard_runs_once_per_pool_attempt() {
    // One retry loop: under the default policy (2 retries) a shard that
    // always fails transiently runs exactly 1 + 2 times per request —
    // the sharded backend never retries underneath the pool.
    let (pool, _, calls) = pool_with_a_flaky_shard(1, usize::MAX, RecoveryPolicy::default());
    for request in 1..=2 {
        let err = pool
            .submit(TokenBatch::random(2, 3, request as u64))
            .expect("accepted")
            .wait()
            .expect_err("the shard never recovers");
        assert!(
            matches!(err, BackendError::Shard { shard: 1, .. }),
            "{err:?}"
        );
        assert!(err.is_transient());
        assert_eq!(
            calls[1].load(Ordering::SeqCst),
            3 * request,
            "failing shard"
        );
        assert_eq!(
            calls[0].load(Ordering::SeqCst),
            3 * request,
            "healthy shard"
        );
    }
    let stats = pool.shutdown();
    assert_eq!(stats.retries(), 4, "two pool retries per request");
}

/// A shard backend that panics on its first call across every instance
/// sharing `armed`, then serves.
struct PanicOnceBackend {
    inner: FunctionalBackend,
    armed: Arc<AtomicBool>,
}

impl MacroBackend for PanicOnceBackend {
    fn name(&self) -> &'static str {
        "panic-once"
    }
    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected shard panic");
        }
        self.inner.run_batch(batch)
    }
}

#[test]
fn a_shard_that_panics_once_is_recovered_by_the_pool() {
    // Shard 1 panics on its first call. The panic unwinds out of the
    // sharded backend into the pool, which re-queues the riders and
    // respawns the replica with fresh shards; the shared flag keeps the
    // rebuilt shard 1 healthy.
    let armed = Arc::new(AtomicBool::new(true));
    let (pool, program) = sharded_pool(RecoveryPolicy::default(), move |s, sub| {
        let inner = FunctionalBackend::new(sub);
        if s == 1 {
            Box::new(PanicOnceBackend {
                inner,
                armed: Arc::clone(&armed),
            })
        } else {
            Box::new(inner)
        }
    });
    let mut wide = FunctionalBackend::new(program);
    for seed in [17, 18] {
        let batch = TokenBatch::random(2, 5, seed);
        let reply = pool
            .submit(batch.clone())
            .expect("accepted")
            .wait()
            .expect("served through the shard panic");
        assert_eq!(
            reply.result.outputs(),
            wide.run_batch(&batch)
                .expect("the wide macro serves")
                .outputs()
        );
    }
    let stats = pool.shutdown();
    assert_eq!(stats.pool_health().restarts, 1, "one respawn, fresh shards");
}

#[test]
fn a_respawned_replicas_fresh_store_adds_to_the_cache_counts() {
    // A `Cached` recipe builds a new store on every respawn, whose
    // counters start again at zero. They must add to the dead store's,
    // not hide under them: five sequential 4-token requests are 20
    // lookups, whichever store answered them.
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 31);
    let recipe: ReplicaFactory = {
        let cfg = cfg.clone();
        let program = program.clone();
        let kind = BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        };
        Arc::new(move || kind.build(&cfg, program.clone()))
    };
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_panic_on_call(3);
    let pool = ReplicaPool::from_recipes(
        ServePolicy::default().with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO)),
        cfg.ns,
        vec![wrap_recipe(recipe, chaos, ChaosState::new())],
    )
    .expect("pool comes up");
    let batch = TokenBatch::random(cfg.ns, TOKENS_PER_REQUEST, 5);
    for _ in 0..5 {
        let reply = pool
            .submit(batch.clone())
            .expect("accepted")
            .wait()
            .expect("served through the crash");
        for (obs, token) in reply.result.tokens.iter().zip(batch.tokens()) {
            assert_eq!(obs.outputs, program.reference_output(token));
        }
    }
    let stats = pool.shutdown();
    assert_eq!(stats.pool_health().restarts, 1);
    let cache = stats.cache();
    assert_eq!(cache.hits + cache.misses, 20, "{cache:?}");
    // Each store computed the 4 tokens once: before and after the crash.
    assert_eq!(cache.insertions, 8, "{cache:?}");
}
