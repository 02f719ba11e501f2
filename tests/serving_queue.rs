//! Stress and contract tests for the async serving queue: a one-replica
//! `ReplicaPool`.
//!
//! The serving contract under test: any number of concurrent submitters
//! pushing through one queue receive outputs **bit-identical** to
//! running their batches directly through `run_batch` on the same
//! backend kind — coalescing, micro-batch splitting and FIFO dispatch
//! must be invisible in the results. On top of that, every failure mode
//! is a typed `BackendError` delivered to exactly the affected tickets:
//! `QueueFull` backpressure at the submitting call site, backend
//! failures to every rider of the failed micro-batch, `QueueClosed` to
//! anything the dispatcher could no longer serve — and a shutdown
//! resolves every accepted ticket instead of leaking it.
//!
//! These tests are timing-*robust* (no assertion depends on the
//! dispatcher winning a race) but timing-*sensitive* in wall time: CI
//! runs them in release as well, where the linger windows dwarf the
//! per-token cost.

use maddpipe::prelude::*;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 12;
const TOKENS_PER_REQUEST: usize = 4;

/// The deterministic batch client `c` submits as its `r`-th request.
fn client_batch(ns: usize, c: usize, r: usize) -> TokenBatch {
    TokenBatch::random(ns, TOKENS_PER_REQUEST, 1 + (c as u64) * 1000 + r as u64)
}

/// Runs the multi-client stress against one backend kind: 8 submitter
/// threads × 12 requests × 4 tokens (384 tokens total), every reply
/// pinned bit-identical to a direct `Session::run` of the same batch on
/// the same backend kind.
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

    // Queue: same program, same kind, 8 concurrent submitters.
    let queue = Session::builder(cfg)
        .program(program)
        .backend(kind)
        .into_pool(
            ServePolicy::default().with_queue(
                QueuePolicy::default()
                    .with_max_batch(32)
                    .with_max_linger(Duration::from_micros(500))
                    .with_max_depth(4096),
            ),
        )
        .expect("queue comes up");
    std::thread::scope(|scope| {
        for (c, expected) in expected.iter().enumerate() {
            let queue = &queue;
            scope.spawn(move || {
                // Submit everything first, then wait — so requests from
                // all clients really are in flight together.
                let tickets: Vec<BatchTicket> = (0..REQUESTS_PER_CLIENT)
                    .map(|r| queue.submit(client_batch(ns, c, r)).expect("accepted"))
                    .collect();
                for (r, ticket) in tickets.into_iter().enumerate() {
                    let reply = ticket.wait().expect("served");
                    let got: Vec<Vec<i16>> = reply
                        .result
                        .tokens
                        .iter()
                        .map(|t| t.outputs.to_vec())
                        .collect();
                    assert_eq!(got, expected[r], "client {c} request {r}");
                    assert!(reply.coalesced_tokens >= TOKENS_PER_REQUEST);
                    assert!(reply.service > Duration::ZERO);
                }
            });
        }
    });

    let total = (CLIENTS * REQUESTS_PER_CLIENT * TOKENS_PER_REQUEST) as u64;
    let stats = queue.shutdown();
    assert_eq!(stats.tokens(), total, "every token served exactly once");
    assert_eq!(
        stats.queued_requests(),
        (CLIENTS * REQUESTS_PER_CLIENT) as u64
    );
    assert!(stats.queued_batches() >= 1 && stats.queued_batches() <= stats.queued_requests());
    assert!(stats.p50_queue_wait().is_some() && stats.p99_queue_wait().is_some());
    assert!(stats.p50_queue_wait() <= stats.p99_queue_wait());
    assert!(stats.mean_coalesced_batch() >= TOKENS_PER_REQUEST as f64);
    assert!(stats.max_queue_depth() >= 1);
}

#[test]
fn eight_clients_match_direct_runs_on_the_functional_backend() {
    stress_bit_identical(BackendKind::Functional { workers: 2 }, 3, 2);
}

#[test]
fn eight_clients_match_direct_runs_on_the_rtl_backend() {
    stress_bit_identical(
        BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        },
        2,
        2,
    );
}

#[test]
fn eight_clients_match_direct_runs_on_the_sharded_backend() {
    stress_bit_identical(
        BackendKind::Sharded {
            shards: 2,
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        },
        4,
        2,
    );
}

/// A backend gated on a channel: each `run_batch` announces itself on
/// `started`, then waits for one release token; from micro-batch
/// `fail_from` on it answers a typed error instead of results. Lets the
/// tests park the dispatcher mid-batch and make coalescing and
/// backpressure windows deterministic instead of timing-dependent.
struct GatedBackend {
    inner: FunctionalBackend,
    started: mpsc::Sender<usize>,
    gate: mpsc::Receiver<()>,
    served: usize,
    fail_from: usize,
}

impl MacroBackend for GatedBackend {
    fn name(&self) -> &'static str {
        "gated"
    }
    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        let _ = self.started.send(batch.len());
        // A closed gate (sender dropped) releases immediately so queue
        // shutdown can always drain.
        let _ = self.gate.recv();
        let index = self.served;
        self.served += 1;
        if index >= self.fail_from {
            return Err(BackendError::MalformedProgram {
                reason: format!("injected failure on micro-batch {index}"),
            });
        }
        self.inner.run_batch(batch)
    }
}

/// The gated queue plus its control channels: `started` reports each
/// micro-batch's token count the moment the backend picks it up, `gate`
/// releases it.
fn gated_queue(
    ns: usize,
    policy: QueuePolicy,
    fail_from: usize,
) -> (
    ReplicaPool,
    mpsc::Receiver<usize>,
    mpsc::Sender<()>,
    MacroProgram,
) {
    let program = MacroProgram::random(2, ns, 5);
    let (started_tx, started_rx) = mpsc::channel();
    let (gate_tx, gate_rx) = mpsc::channel();
    let inner = program.clone();
    // The channels are taken once: the backend never panics, so its
    // recipe is never called again.
    let channels = Mutex::new(Some((started_tx, gate_rx)));
    let recipe: ReplicaFactory = Arc::new(move || {
        let (started, gate) = channels.lock().unwrap().take().expect("built once");
        Ok(Box::new(GatedBackend {
            inner: FunctionalBackend::new(inner.clone()),
            started,
            gate,
            served: 0,
            fail_from,
        }))
    });
    let queue =
        ReplicaPool::from_recipes(ServePolicy::default().with_queue(policy), ns, vec![recipe])
            .expect("queue comes up");
    (queue, started_rx, gate_tx, program)
}

#[test]
fn a_depth_one_policy_rejects_with_typed_queue_full() {
    let policy = QueuePolicy::default()
        .with_max_depth(1)
        .with_max_linger(Duration::ZERO);
    let (queue, _started, gate, program) = gated_queue(2, policy, usize::MAX);

    // Request 1 occupies the queue's single slot until it *resolves* —
    // wherever it is (pending or executing), depth stays 1.
    let first = queue.submit(TokenBatch::random(2, 2, 1)).expect("accepted");
    assert_eq!(queue.depth(), 1);
    let err = queue.submit(TokenBatch::random(2, 2, 2)).unwrap_err();
    assert_eq!(
        err,
        BackendError::QueueFull {
            limit: QueueLimit::Requests { max_depth: 1 }
        }
    );

    // Resolving the outstanding ticket frees the slot deterministically.
    gate.send(()).expect("dispatcher alive");
    let reply = first.wait().expect("served");
    assert_eq!(reply.result.tokens.len(), 2);
    assert_eq!(
        reply.result.tokens.get(0).unwrap().outputs,
        program.reference_output(&TokenBatch::random(2, 2, 1).tokens()[0])
    );
    let third = queue
        .submit(TokenBatch::random(2, 2, 3))
        .expect("slot freed");
    gate.send(()).expect("dispatcher alive");
    third.wait().expect("served");

    // Malformed submissions are rejected at their own call site, before
    // they could ride along and fail a coalesced micro-batch.
    let wrong_shape = TokenBatch::random(3, 1, 9);
    assert_eq!(
        queue.submit(wrong_shape).unwrap_err(),
        BackendError::ShapeMismatch {
            token: 0,
            expected: 2,
            got: 3,
        }
    );
}

#[test]
fn a_token_bound_rejects_before_request_count_backpressure_kicks_in() {
    // Regression: `pending_tokens` used to be tracked but never
    // enforced, so one client submitting huge batches could buffer
    // unbounded payload while staying under `max_depth`'s request
    // count. The token bound must reject with its own typed limit.
    let policy = QueuePolicy::default()
        .with_max_linger(Duration::ZERO)
        .with_max_depth(1024)
        .with_max_pending_tokens(4);
    let (queue, started, gate, _) = gated_queue(2, policy, usize::MAX);

    // Park the dispatcher on a warm-up so later submissions stay queued.
    let warmup = queue.submit(TokenBatch::random(2, 1, 1)).expect("accepted");
    assert_eq!(started.recv().expect("backend alive"), 1);

    // 2 + 2 queued tokens fill the bound exactly...
    let a = queue.submit(TokenBatch::random(2, 2, 2)).expect("accepted");
    let b = queue.submit(TokenBatch::random(2, 2, 3)).expect("accepted");
    // ...and the next submission is rejected by the *token* limit, far
    // below the 1024-request depth bound.
    let err = queue.submit(TokenBatch::random(2, 2, 4)).unwrap_err();
    assert_eq!(
        err,
        BackendError::QueueFull {
            limit: QueueLimit::Tokens {
                pending_tokens: 4,
                max_pending_tokens: 4,
            }
        }
    );

    // Draining the backlog re-opens admission.
    gate.send(()).expect("release warm-up");
    warmup.wait().expect("served");
    assert_eq!(started.recv().expect("backend alive"), 4);
    gate.send(()).expect("release the queued pair");
    a.wait().expect("served");
    b.wait().expect("served");
    let c = queue
        .submit(TokenBatch::random(2, 2, 5))
        .expect("tokens freed");
    assert_eq!(started.recv().expect("backend alive"), 2);
    gate.send(()).expect("release");
    c.wait().expect("served");

    // A batch bigger than the whole token bound is still admitted into
    // an *empty* waiting room (mirroring the oversized `max_batch`
    // rule) — the bound caps buffering, it must not starve big batches.
    let big = queue
        .submit(TokenBatch::random(2, 9, 6))
        .expect("an empty waiting room admits an oversized batch");
    assert_eq!(started.recv().expect("backend alive"), 9);
    gate.send(()).expect("release");
    assert_eq!(big.wait().expect("served").result.tokens.len(), 9);
}

#[test]
fn a_batch_exactly_filling_the_token_bound_admits() {
    // Off-by-one regression for the `QueueFull { limit: Tokens }`
    // boundary: admission must compare `pending + batch > bound`, not
    // `>=` — a batch whose token count exactly equals the *remaining*
    // token budget is within bounds and must be accepted.
    let policy = QueuePolicy::default()
        .with_max_linger(Duration::ZERO)
        .with_max_depth(1024)
        .with_max_pending_tokens(6);
    let (queue, started, gate, _) = gated_queue(2, policy, usize::MAX);

    // Park the dispatcher so subsequent submissions stay queued.
    let warmup = queue.submit(TokenBatch::random(2, 1, 1)).expect("accepted");
    assert_eq!(started.recv().expect("backend alive"), 1);

    // 2 of 6 tokens queued; a 4-token batch exactly fills the rest.
    let a = queue.submit(TokenBatch::random(2, 2, 2)).expect("accepted");
    let exact = queue
        .submit(TokenBatch::random(2, 4, 3))
        .expect("a batch exactly filling the remaining token budget admits");
    // The bound is now saturated: one more token is over, and the typed
    // limit reports the exact saturation point.
    assert_eq!(
        queue.submit(TokenBatch::random(2, 1, 4)).unwrap_err(),
        BackendError::QueueFull {
            limit: QueueLimit::Tokens {
                pending_tokens: 6,
                max_pending_tokens: 6,
            }
        }
    );

    // Into an *empty* waiting room the same exact-fill rule holds from
    // zero: a bound-sized batch admits.
    gate.send(()).expect("release warm-up");
    warmup.wait().expect("served");
    assert_eq!(started.recv().expect("backend alive"), 6);
    gate.send(()).expect("release the queued pair");
    a.wait().expect("served");
    exact.wait().expect("served");
    let full = queue
        .submit(TokenBatch::random(2, 6, 5))
        .expect("a bound-sized batch admits into an empty room");
    assert_eq!(started.recv().expect("backend alive"), 6);
    gate.send(()).expect("release");
    assert_eq!(full.wait().expect("served").result.tokens.len(), 6);
}

#[test]
fn an_oversized_request_dispatches_alone_instead_of_stalling() {
    // A single request larger than `max_batch` can never fill a
    // micro-batch; it must ride alone, not park forever behind an
    // unreachable "batch full" condition.
    let policy = QueuePolicy::default()
        .with_max_batch(4)
        .with_max_linger(Duration::from_secs(3600));
    let (queue, started, gate, program) = gated_queue(2, policy, usize::MAX);
    let big_batch = TokenBatch::random(2, 11, 7);
    let big = queue.submit(big_batch.clone()).expect("accepted");
    // The dispatcher picks it up despite the hour-long linger: an
    // oversized request counts as a full batch.
    assert_eq!(
        started
            .recv_timeout(Duration::from_secs(30))
            .expect("dispatched"),
        11,
        "the oversized request must dispatch whole, alone"
    );
    gate.send(()).expect("release");
    let reply = big.wait().expect("served");
    assert_eq!(reply.result.tokens.len(), 11);
    assert_eq!(reply.coalesced_tokens, 11);
    assert_eq!(
        reply.result.tokens.get(0).unwrap().outputs,
        program.reference_output(&big_batch.tokens()[0])
    );
}

#[test]
fn zero_linger_dispatches_partial_batches_immediately() {
    // `max_linger == 0` must mean "dispatch what's there right away" —
    // a lone one-token request, far below `max_batch`, may not wait for
    // company.
    let policy = QueuePolicy::default()
        .with_max_batch(1024)
        .with_max_linger(Duration::ZERO);
    let (queue, started, gate, _) = gated_queue(2, policy, usize::MAX);
    let lone = queue.submit(TokenBatch::random(2, 1, 8)).expect("accepted");
    assert_eq!(
        started
            .recv_timeout(Duration::from_secs(30))
            .expect("dispatched"),
        1,
        "a partial batch must dispatch without lingering"
    );
    gate.send(()).expect("release");
    assert_eq!(lone.wait().expect("served").result.tokens.len(), 1);
}

#[test]
fn a_backend_failure_resolves_every_coalesced_ticket_with_the_error() {
    // Gate parked: requests pile up behind the in-flight micro-batch, so
    // the coalescing below is deterministic, not linger-window luck.
    let policy = QueuePolicy::default()
        .with_max_batch(1024)
        .with_max_linger(Duration::ZERO);
    // Micro-batches 0–2 (warm-up, coalesced riders, second warm-up)
    // succeed; micro-batch 3 (the second rider coalition) fails.
    let (queue, started, gate, program) = gated_queue(2, policy, 3);

    // Warm-up request: wait until the dispatcher has picked it up (and
    // parked on the gate) before submitting the riders — so the riders
    // are guaranteed to coalesce with each other, not with the warm-up.
    let warmup = queue
        .submit(TokenBatch::random(2, 1, 10))
        .expect("accepted");
    assert_eq!(started.recv().expect("backend alive"), 1);
    let riders: Vec<BatchTicket> = (0..3)
        .map(|i| {
            queue
                .submit(TokenBatch::random(2, 2, 20 + i))
                .expect("accepted")
        })
        .collect();
    gate.send(()).expect("release warm-up");
    warmup.wait().expect("warm-up serves alone");
    assert_eq!(
        started.recv().expect("backend alive"),
        6,
        "the three riders must coalesce into one six-token micro-batch"
    );
    gate.send(()).expect("release riders");
    for (i, ticket) in riders.into_iter().enumerate() {
        let reply = ticket.wait().expect("coalesced batch succeeds");
        assert_eq!(
            reply.coalesced_tokens, 6,
            "rider {i} must see all three requests in its micro-batch"
        );
        assert_eq!(
            reply.result.tokens.get(0).unwrap().outputs,
            program.reference_output(&TokenBatch::random(2, 2, 20 + i as u64).tokens()[0]),
            "coalescing must not leak other requests' outputs"
        );
        assert_eq!(reply.result.tokens.len(), 2, "own tokens only");
    }

    // Same set-up again, but this micro-batch fails: every rider gets
    // the backend's typed error, none hangs, none gets partial output.
    let warmup = queue
        .submit(TokenBatch::random(2, 1, 30))
        .expect("accepted");
    assert_eq!(started.recv().expect("backend alive"), 1);
    let riders: Vec<BatchTicket> = (0..3)
        .map(|i| {
            queue
                .submit(TokenBatch::random(2, 2, 40 + i))
                .expect("accepted")
        })
        .collect();
    gate.send(()).expect("release warm-up");
    warmup.wait().expect("micro-batch 1 still succeeds");
    assert_eq!(started.recv().expect("backend alive"), 6);
    gate.send(()).expect("release riders");
    for ticket in riders {
        match ticket.wait() {
            Err(BackendError::MalformedProgram { reason }) => {
                assert!(reason.contains("injected failure"), "{reason}");
            }
            other => panic!("every coalesced ticket must carry the typed error, got {other:?}"),
        }
    }

    // The queue survives the failed batch and keeps dispatching.
    let after = queue
        .submit(TokenBatch::random(2, 1, 50))
        .expect("accepted");
    assert_eq!(started.recv().expect("backend alive"), 1);
    gate.send(()).expect("release");
    match after.wait() {
        Err(BackendError::MalformedProgram { .. }) => {} // still failing by design
        other => panic!("expected the injected failure, got {other:?}"),
    }
    // Queue-side stats count failed micro-batches too — their requests
    // waited and resolved; only served tokens are success-only.
    let stats = queue.stats();
    assert_eq!(
        stats.queued_requests(),
        9,
        "2 warm-ups + 2×3 riders + the probe, failures included"
    );
    assert_eq!(stats.queued_batches(), 5);
    assert_eq!(stats.tokens(), 8, "warm-ups + the one successful coalition");
}

#[test]
fn shutdown_resolves_in_flight_tickets_instead_of_leaking_them() {
    // Zero linger, tiny batches: the dispatcher is mid-drain while we
    // shut down. Every accepted ticket must still resolve successfully.
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(2, 2, 9);
    let queue = Session::builder(cfg)
        .program(program.clone())
        .into_pool(
            ServePolicy::default().with_queue(
                QueuePolicy::default()
                    .with_max_batch(2)
                    .with_max_linger(Duration::ZERO),
            ),
        )
        .expect("queue comes up");
    let tickets: Vec<(u64, BatchTicket)> = (0..16)
        .map(|i| {
            (
                i,
                queue
                    .submit(TokenBatch::random(2, 2, 100 + i))
                    .expect("accepted"),
            )
        })
        .collect();
    // `close` stops intake immediately; already-accepted work drains.
    queue.close();
    assert_eq!(
        queue.submit(TokenBatch::random(2, 1, 0)).unwrap_err(),
        BackendError::QueueClosed
    );
    let stats = queue.shutdown();
    for (i, ticket) in tickets {
        assert!(
            ticket.is_ready(),
            "ticket {i} resolved before shutdown returned"
        );
        let reply = ticket.wait().expect("drained, not leaked");
        assert_eq!(
            reply.result.tokens.get(0).unwrap().outputs,
            program.reference_output(&TokenBatch::random(2, 2, 100 + i).tokens()[0])
        );
    }
    assert_eq!(
        stats.tokens(),
        32,
        "all 16 × 2 tokens served during the drain"
    );
}

#[test]
fn a_panicking_backend_closes_the_queue_and_fails_tickets_typed() {
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
    // No respawn budget: the first panic quarantines the one replica.
    let policy = ServePolicy::default().with_recovery(RecoveryPolicy::default().with_respawn(0));
    let queue = ReplicaPool::from_recipes(policy, 2, vec![recipe]).expect("comes up");
    let ticket = queue.submit(TokenBatch::random(2, 2, 1)).expect("accepted");
    // The dispatcher unwinds; the ticket must resolve (typed), never hang.
    assert_eq!(ticket.wait().unwrap_err(), BackendError::QueueClosed);
    // And the queue reports itself closed from then on.
    let err = loop {
        match queue.submit(TokenBatch::random(2, 2, 2)) {
            Err(e) => break e,
            // The dispatcher may not have unwound yet; a ticket accepted
            // in that window still resolves to QueueClosed.
            Ok(ticket) => assert_eq!(ticket.wait().unwrap_err(), BackendError::QueueClosed),
        }
    };
    assert_eq!(err, BackendError::QueueClosed);
}

#[test]
fn tickets_support_poll_and_timeouts() {
    let policy = QueuePolicy::default().with_max_linger(Duration::ZERO);
    let (queue, _started, gate, _) = gated_queue(2, policy, usize::MAX);
    let ticket = queue.submit(TokenBatch::random(2, 1, 3)).expect("accepted");
    // Unresolved: poll hands the ticket back, a short wait times out.
    let ticket = ticket.poll().expect_err("gate is closed, not resolved yet");
    assert!(!ticket.is_ready());
    let ticket = ticket
        .wait_timeout(Duration::from_millis(10))
        .expect_err("still gated");
    gate.send(()).expect("dispatcher alive");
    let reply = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("resolves");
    assert_eq!(reply.expect("served").result.tokens.len(), 1);
}

#[test]
fn an_unbounded_linger_dispatches_on_full_batches_and_on_close() {
    // `Duration::MAX` is the natural spelling of "wait until the batch
    // fills" — it must not overflow the dispatcher's deadline math.
    let cfg = MacroConfig::new(2, 2);
    let program = MacroProgram::random(2, 2, 6);
    let queue = Session::builder(cfg)
        .program(program)
        .into_pool(
            ServePolicy::default().with_queue(
                QueuePolicy::default()
                    .with_max_batch(2)
                    .with_max_linger(Duration::MAX),
            ),
        )
        .expect("queue comes up");
    // A full batch dispatches despite the infinite linger.
    let full = queue.submit(TokenBatch::random(2, 2, 1)).expect("accepted");
    let reply = full
        .wait_timeout(Duration::from_secs(60))
        .expect("a full batch must dispatch without waiting out the linger")
        .expect("served");
    assert_eq!(reply.result.tokens.len(), 2);
    // A partial batch parks until close() flushes the drain.
    let partial = queue.submit(TokenBatch::random(2, 1, 2)).expect("accepted");
    queue.close();
    assert_eq!(
        partial
            .wait()
            .expect("flushed by close")
            .result
            .tokens
            .len(),
        1
    );
    assert_eq!(queue.shutdown().tokens(), 3);
}

#[test]
fn queues_build_from_the_session_builder_and_reject_empty_recipe_lists() {
    let program = MacroProgram::random(2, 2, 4);
    // A queue is a one-replica pool out of the same builder door; its
    // stats count its own traffic only.
    let queue = Session::builder(MacroConfig::new(2, 2))
        .program(program)
        .into_pool(ServePolicy::default().with_queue(QueuePolicy::default()))
        .expect("queue comes up");
    assert_eq!(queue.policy().replicas, 1);
    assert_eq!(queue.stats().tokens(), 0);
    queue
        .submit(TokenBatch::random(2, 3, 2))
        .expect("accepted")
        .wait()
        .expect("served");
    let stats = queue.shutdown();
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
