//! Stress and scheduling-contract tests for the replica pool.
//!
//! The serving contract: any number of concurrent submitters pushing
//! through a `ReplicaPool` receive outputs **bit-identical** to running
//! their batches directly through `run_batch` on the same backend kind —
//! replica spreading, coalescing and fairness reordering must be
//! invisible in each request's own results. On top of that the
//! scheduling policies are exercised deterministically with a gated
//! backend: round-robin interleaves clients instead of serving a hot
//! client's backlog first, and a per-request deadline ships a partial
//! micro-batch instead of waiting out the policy linger.

use maddpipe::prelude::*;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 10;

/// Tokens in client `c`'s `r`-th request: 1 to 6, so one micro-batch
/// mixes rider lengths and splits off-grid.
fn request_len(c: usize, r: usize) -> usize {
    1 + (3 * c + r) % 6
}

/// The deterministic batch client `c` submits as its `r`-th request.
fn client_batch(ns: usize, c: usize, r: usize) -> TokenBatch {
    TokenBatch::random(ns, request_len(c, r), 1 + (c as u64) * 1000 + r as u64)
}

/// Runs the multi-client stress against a two-replica pool of one
/// backend kind: 8 submitter threads × 10 requests of 1–6 tokens, every
/// reply pinned bit-identical to a direct `Session::run` of the same
/// batch, under round-robin fairness and per-request deadlines.
fn stress_bit_identical(kind: BackendKind, ndec: usize, ns: usize) {
    let cfg = MacroConfig::new(ndec, ns).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let program = MacroProgram::random(ndec, ns, 77);

    // Golden: one direct session, batches run one at a time.
    let mut direct = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(kind.clone())
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

    // Pool: same program, same kind, two replicas, 8 concurrent
    // submitters with distinct client keys (odd clients also carry a
    // latency target, so the deadline path is exercised under load).
    let replicas = 2;
    let pool = Session::builder(cfg)
        .program(program)
        .backend(kind)
        .into_pool(
            ServePolicy::default()
                .with_replicas(replicas)
                .with_fairness(Fairness::RoundRobin)
                .with_queue(
                    QueuePolicy::default()
                        .with_max_batch(32)
                        .with_max_linger(Duration::from_micros(500))
                        .with_max_depth(4096),
                ),
        )
        .expect("pool comes up");
    std::thread::scope(|scope| {
        for (c, expected) in expected.iter().enumerate() {
            let pool = &pool;
            scope.spawn(move || {
                let opts = if c % 2 == 1 {
                    SubmitOptions::default()
                        .with_client(c as u64)
                        .with_deadline(Duration::from_micros(100))
                } else {
                    SubmitOptions::default().with_client(c as u64)
                };
                // Submit everything first, then wait — so requests from
                // all clients really are in flight together.
                let tickets: Vec<BatchTicket> = (0..REQUESTS_PER_CLIENT)
                    .map(|r| {
                        pool.submit_with(client_batch(ns, c, r), opts)
                            .expect("accepted")
                    })
                    .collect();
                for (r, ticket) in tickets.into_iter().enumerate() {
                    let reply = ticket.wait().expect("served");
                    let len = request_len(c, r);
                    let got: Vec<Vec<i16>> = reply
                        .result
                        .tokens
                        .iter()
                        .map(|t| t.outputs.to_vec())
                        .collect();
                    assert_eq!(got, expected[r], "client {c} request {r}");
                    assert!(reply.replica < replicas, "replica index in range");
                    assert_eq!(reply.result.tokens.len(), len, "client {c} request {r}");
                    assert!(reply.coalesced_tokens >= len);
                    assert!(reply.service > Duration::ZERO);
                }
            });
        }
    });

    let total: usize = (0..CLIENTS)
        .flat_map(|c| (0..REQUESTS_PER_CLIENT).map(move |r| request_len(c, r)))
        .sum();
    let total = total as u64;
    let stats = pool.shutdown();
    assert_eq!(stats.tokens(), total, "every token served exactly once");
    assert_eq!(
        stats.queued_requests(),
        (CLIENTS * REQUESTS_PER_CLIENT) as u64
    );
    assert!(stats.p50_queue_wait().is_some() && stats.p99_queue_wait().is_some());
    // Per-replica accounting: one entry per replica, dispatches summing
    // to the micro-batch count, busy time only where dispatches landed.
    assert_eq!(stats.replica_dispatches().len(), replicas);
    assert_eq!(stats.replica_busy().len(), replicas);
    assert_eq!(
        stats.replica_dispatches().iter().sum::<u64>(),
        stats.queued_batches(),
        "every micro-batch is attributed to exactly one replica"
    );
    for r in 0..replicas {
        assert_eq!(
            stats.replica_dispatches()[r] > 0,
            stats.replica_busy()[r] > Duration::ZERO,
            "busy time and dispatch counts must agree for replica {r}"
        );
    }
    assert!(stats.pool_uptime() > Duration::ZERO);
    assert_eq!(stats.replica_utilisation().len(), replicas);
}

#[test]
fn eight_clients_match_direct_runs_on_functional_replicas() {
    stress_bit_identical(BackendKind::Functional { workers: 2 }, 3, 2);
}

#[test]
fn eight_clients_match_direct_runs_on_rtl_replicas() {
    stress_bit_identical(
        BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        },
        2,
        2,
    );
}

#[test]
fn eight_clients_match_direct_runs_on_sharded_replicas() {
    stress_bit_identical(
        BackendKind::Sharded {
            shards: 2,
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        },
        4,
        2,
    );
}

/// A backend gated on a channel: each `run_batch` announces its token
/// count on `started`, then waits for one release token — the pool
/// scheduling tests' determinism lever (no assertion below depends on
/// winning a race against the replica thread).
struct GatedBackend {
    inner: FunctionalBackend,
    started: mpsc::Sender<usize>,
    gate: mpsc::Receiver<()>,
}

impl MacroBackend for GatedBackend {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        let _ = self.started.send(batch.len());
        // A closed gate (sender dropped) releases immediately so pool
        // shutdown can always drain.
        let _ = self.gate.recv();
        self.inner.run_batch(batch)
    }
}

/// A single-replica gated pool plus its control channels.
fn gated_pool(
    ns: usize,
    policy: ServePolicy,
) -> (ReplicaPool, mpsc::Receiver<usize>, mpsc::Sender<()>) {
    let program = MacroProgram::random(2, ns, 5);
    let (started_tx, started_rx) = mpsc::channel();
    let (gate_tx, gate_rx) = mpsc::channel();
    // The channels are taken once: the one replica never panics, so
    // its recipe is never called again.
    let channels = Mutex::new(Some((started_tx, gate_rx)));
    let recipe: ReplicaFactory = Arc::new(move || {
        let (started, gate) = channels.lock().unwrap().take().expect("built once");
        Ok(Box::new(GatedBackend {
            inner: FunctionalBackend::new(program.clone()),
            started,
            gate,
        }))
    });
    let pool = ReplicaPool::from_recipes(policy, ns, vec![recipe]).expect("pool comes up");
    (pool, started_rx, gate_tx)
}

#[test]
fn round_robin_interleaves_clients_instead_of_draining_the_hot_one() {
    // One replica, 4-token micro-batches, zero linger: micro-batch
    // composition is fully determined by the fairness discipline.
    let policy = ServePolicy::default()
        .with_fairness(Fairness::RoundRobin)
        .with_queue(
            QueuePolicy::default()
                .with_max_batch(4)
                .with_max_linger(Duration::ZERO),
        );
    let (pool, started, gate) = gated_pool(2, policy);

    // Park the replica on a warm-up so the backlog below queues whole.
    let warmup = pool
        .submit_with(
            TokenBatch::random(2, 1, 9),
            SubmitOptions::default().with_client(9),
        )
        .expect("accepted");
    assert_eq!(started.recv().expect("replica alive"), 1);

    // Hot client A queues three requests before B and C queue one each.
    let submit = |client: u64, seed: u64| {
        pool.submit_with(
            TokenBatch::random(2, 2, seed),
            SubmitOptions::default().with_client(client),
        )
        .expect("accepted")
    };
    let a1 = submit(0, 100);
    let a2 = submit(0, 101);
    let a3 = submit(0, 102);
    let b1 = submit(1, 200);
    let c1 = submit(2, 300);

    gate.send(()).expect("release warm-up");
    warmup.wait().expect("served");

    // Micro-batch 1: A's oldest + B's — NOT A's first two. Under FIFO
    // the hot client would fill the whole batch.
    assert_eq!(started.recv().expect("replica alive"), 4);
    gate.send(()).expect("release");
    let reply = a1.wait().expect("served");
    assert_eq!(reply.coalesced_tokens, 4);
    assert_eq!(reply.replica, 0);
    b1.wait().expect("B rides the first coalition");
    assert!(
        !a2.is_ready(),
        "A's backlog must not displace other clients"
    );
    assert!(!c1.is_ready(), "C waits for the next cycle");

    // Micro-batch 2: the cycle resumes past B — A's next + C's.
    assert_eq!(started.recv().expect("replica alive"), 4);
    gate.send(()).expect("release");
    a2.wait().expect("served");
    c1.wait().expect("C rides the second coalition");
    assert!(!a3.is_ready(), "A's tail is still queued");

    // Micro-batch 3: only A's tail is left; it ships partial.
    assert_eq!(started.recv().expect("replica alive"), 2);
    gate.send(()).expect("release");
    a3.wait().expect("served");
    pool.shutdown();
}

#[test]
fn a_deadline_ships_a_partial_micro_batch_before_the_policy_linger() {
    // A 10 s linger and a huge batch bound: without a deadline nothing
    // below would dispatch inside this test's lifetime.
    let policy = ServePolicy::default().with_queue(
        QueuePolicy::default()
            .with_max_batch(1024)
            .with_max_linger(Duration::from_secs(10)),
    );
    let (pool, started, gate) = gated_pool(2, policy);

    // A deadline-less request lingers (robust check: nothing dispatches
    // within a window far shorter than the linger)...
    let patient = pool.submit(TokenBatch::random(2, 1, 1)).expect("accepted");
    assert!(
        started.recv_timeout(Duration::from_millis(300)).is_err(),
        "a lone request below max_batch must linger, not dispatch"
    );

    // ...until a deadline-zero request arrives: its dispatch deadline is
    // already due, so the replica ships a partial micro-batch at once —
    // carrying the patient rider along.
    let urgent = pool
        .submit_with(
            TokenBatch::random(2, 1, 2),
            SubmitOptions::default().with_deadline(Duration::ZERO),
        )
        .expect("accepted");
    assert_eq!(
        started
            .recv_timeout(Duration::from_secs(30))
            .expect("the deadline must cut the linger short"),
        2,
        "both pending requests ride the deadline-triggered micro-batch"
    );
    gate.send(()).expect("release");
    assert_eq!(patient.wait().expect("served").coalesced_tokens, 2);
    assert_eq!(urgent.wait().expect("served").coalesced_tokens, 2);
    pool.shutdown();
}

#[test]
fn a_pool_whose_every_replica_panics_closes_with_typed_errors() {
    struct PanickingBackend;
    impl MacroBackend for PanickingBackend {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn run_batch(&mut self, _batch: &TokenBatch) -> Result<BatchResult, BackendError> {
            panic!("backend bug");
        }
    }
    let recipe: ReplicaFactory = Arc::new(|| Ok(Box::new(PanickingBackend)));
    // No respawn budget, so each panic quarantines for good.
    let policy = ServePolicy::default().with_recovery(RecoveryPolicy::default().with_respawn(0));
    let pool = ReplicaPool::from_recipes(policy, 2, vec![recipe; 2]).expect("comes up");
    let ticket = pool.submit(TokenBatch::random(2, 2, 1)).expect("accepted");
    // When *both* replicas are gone the pool closes and every
    // unresolved ticket answers typed — never hangs. (A single panic
    // among healthy siblings closes nothing; that path is pinned in
    // tests/serving_faults.rs.)
    assert_eq!(ticket.wait().unwrap_err(), BackendError::QueueClosed);
    let err = loop {
        match pool.submit(TokenBatch::random(2, 2, 2)) {
            Err(e) => break e,
            // A ticket accepted before the close propagates still
            // resolves to QueueClosed.
            Ok(ticket) => assert_eq!(ticket.wait().unwrap_err(), BackendError::QueueClosed),
        }
    };
    assert_eq!(err, BackendError::QueueClosed);
}

#[test]
fn pools_build_from_the_session_builder_and_reject_empty_recipe_lists() {
    let program = MacroProgram::random(2, 2, 4);
    // The builder is the one door from a program to a pool: every
    // replica builds its backend from the same recipe, and the pool's
    // stats count its own traffic only.
    let pool = Session::builder(MacroConfig::new(2, 2))
        .program(program)
        .into_pool(ServePolicy::default().with_replicas(2))
        .expect("pool comes up");
    assert_eq!(pool.policy().replicas, 2);
    assert_eq!(pool.health().healthy, 2);
    assert_eq!(pool.stats().tokens(), 0);
    pool.submit(TokenBatch::random(2, 3, 2))
        .expect("accepted")
        .wait()
        .expect("served");
    let stats = pool.shutdown();
    assert_eq!(stats.tokens(), 3);
    assert_eq!(stats.queued_requests(), 1);

    // With no recipe there is no replica to serve on: typed error, not
    // a panic.
    match ReplicaPool::from_recipes(ServePolicy::default(), 2, Vec::new()) {
        Err(BackendError::QueueUnavailable { reason }) => {
            assert!(reason.contains("recipe"), "{reason}");
        }
        other => panic!("expected QueueUnavailable, got {other:?}"),
    }
}
