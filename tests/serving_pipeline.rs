//! End-to-end tests for `PipelineGraph` streaming dataflow serving: a
//! whole multi-layer `Network` deployed as one chained pipeline of host
//! and macro stages.
//!
//! The contract under test:
//!
//! - **Bit-identicality** — the deployed pipeline's logits equal
//!   `Network::forward` bit for bit, for any image, under any number of
//!   concurrent submitters, through transient chaos faults and replica
//!   crashes (the recovery machinery must be invisible in the data).
//! - **Backpressure** — a bounded credit per hop: a slow stage makes
//!   intake answer typed `QueueFull`, never unbounded memory.
//! - **Zero leaked tickets** — every accepted submission resolves, with
//!   a reply or a typed `BackendError::Stage` naming the failing stage,
//!   including when a whole stage dies and in-flight work is drained.
//!
//! The chaos seed is `MADDPIPE_CHAOS_SEED` when set (CI sweeps several),
//! 7 otherwise; every fault schedule is a pure function of it.

use maddpipe::prelude::*;
use proptest::prelude::*;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The chaos seed under test: `MADDPIPE_CHAOS_SEED` when set (the CI
/// stress job sweeps a few), 7 otherwise.
fn chaos_seed() -> u64 {
    std::env::var("MADDPIPE_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// The demo CNN every test deploys: `(2, 8, 8)` images → two macro conv
/// stages interleaved with host ReLU/pool/affine → 10 logits.
fn demo_network() -> Network {
    Network::demo(42)
}

/// Lowers `net` onto functional backends with `replicas` replicas per
/// conv stage and a generous retry budget.
fn demo_spec(net: &Network, replicas: usize) -> PipelineSpec {
    net.to_pipeline_spec(
        BackendKind::Functional { workers: 1 },
        &StagePolicy::default()
            .with_replicas(replicas)
            .with_recovery(
                RecoveryPolicy::default()
                    .with_max_retries(8)
                    .with_backoff(Duration::from_micros(50))
                    .with_respawn(2),
            ),
    )
    .expect("the demo network lowers")
}

/// Submits through intake backpressure: a full queue is a retry, not a
/// failure — exactly what a well-behaved client does with `QueueFull`.
fn submit_retrying(graph: &PipelineGraph, img: &[f32]) -> PipelineTicket {
    loop {
        match graph.submit(img.to_vec()) {
            Ok(t) => return t,
            Err(BackendError::QueueFull { .. }) => std::thread::yield_now(),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
}

/// Rewrites conv stage `target` (index into the spec) through `wrap` —
/// the hook that injects a `ChaosBackend` into the middle of a deployed
/// pipeline while every other stage stays pristine.
fn wrap_stage(
    spec: &PipelineSpec,
    target: usize,
    wrap: impl Fn(ReplicaFactory) -> ReplicaFactory,
) -> PipelineSpec {
    let mut out = PipelineSpec::new();
    for (i, stage) in spec.stages().iter().enumerate() {
        match stage {
            StageSpec::Macro(m) if i == target => {
                out.push(StageSpec::Macro(m.clone().map_recipe(&wrap)));
            }
            other => out.push(other.clone()),
        }
    }
    out
}

#[test]
fn concurrent_submitters_get_logits_bit_identical_to_forward() {
    const CLIENTS: usize = 6;
    const IMAGES_PER_CLIENT: usize = 8;

    let net = demo_network();
    let graph = PipelineGraph::build(
        demo_spec(&net, 2),
        PipelinePolicy::default().with_capacity(16),
    )
    .expect("graph deploys");

    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let graph = &graph;
            let net = &net;
            scope.spawn(move || {
                // Submit everything first, then wait — all clients'
                // images really stream through the stages together.
                let images: Vec<Vec<f32>> = (0..IMAGES_PER_CLIENT)
                    .map(|r| Network::demo_image(1 + (c as u64) * 1000 + r as u64, net.input_len()))
                    .collect();
                let tickets: Vec<PipelineTicket> = images
                    .iter()
                    .map(|img| submit_retrying(graph, img))
                    .collect();
                for (img, ticket) in images.iter().zip(tickets) {
                    let reply = ticket.wait().expect("served");
                    let expected = net.forward(img).expect("host forward");
                    assert_eq!(reply.outputs, expected, "bit-identical logits");
                }
            });
        }
    });

    // Per-stage accounting: every image passed through every stage.
    let total = (CLIENTS * IMAGES_PER_CLIENT) as u64;
    let stats = graph.shutdown();
    assert_eq!(stats.images(), total);
    assert_eq!(stats.stage_profiles().len(), net.len());
    assert_eq!(stats.stage_occupancy().len(), net.len());
    for (profile, name) in stats.stage_profiles().iter().zip(net.layer_names()) {
        assert_eq!(profile.name(), name);
        assert_eq!(profile.items(), total, "stage {name} saw every image");
        assert!(profile.p99_residence().is_some(), "stage {name} measured");
    }
    assert!(stats.images_per_sec().is_some());
    assert!(stats.p99_image_latency().is_some());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// The tentpole acceptance property: for random images, a deployed
    /// pipeline is bit-identical to the host `Network::forward`, with
    /// several images in flight at once.
    #[test]
    fn prop_pipeline_logits_match_forward(
        images in proptest::collection::vec(
            proptest::collection::vec(-1.0f32..1.0, 2 * 8 * 8),
            1..5,
        )
    ) {
        let net = demo_network();
        let graph = PipelineGraph::build(demo_spec(&net, 1), PipelinePolicy::default())
            .expect("graph deploys");
        let tickets: Vec<PipelineTicket> = images
            .iter()
            .map(|img| graph.submit(img.clone()).expect("capacity covers the burst"))
            .collect();
        for (img, ticket) in images.iter().zip(tickets) {
            let reply = ticket.wait().expect("served");
            let expected = net.forward(img).expect("host forward");
            prop_assert_eq!(&reply.outputs, &expected);
        }
        graph.shutdown();
    }
}

#[test]
fn a_slow_stage_exerts_backpressure_at_intake_with_bounded_memory() {
    // A two-stage pipeline whose first stage is deliberately slow:
    // submissions beyond the bounded queues must answer QueueFull at
    // intake — backpressure as a typed signal, not unbounded buffering.
    let spec = PipelineSpec::new()
        .host("slow", |x: Vec<f32>| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(x)
        })
        .host("identity", Ok);
    let capacity = 2;
    let graph = PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(capacity))
        .expect("graph deploys");

    // Hammer the intake: far more submissions than the queues hold.
    let mut accepted = Vec::new();
    let mut rejected = 0u32;
    for i in 0..64 {
        match graph.submit(vec![i as f32]) {
            Ok(t) => accepted.push(t),
            Err(BackendError::QueueFull { limit }) => {
                assert!(
                    matches!(limit, QueueLimit::Requests { max_depth } if max_depth == capacity),
                    "the refusal names the intake bound: {limit:?}"
                );
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        // In-flight work is bounded by the queues plus the stages'
        // own hands — never proportional to the submission count.
        assert!(
            graph.depth() <= 2 * capacity + 2,
            "depth {} outgrew the bounded queues",
            graph.depth()
        );
    }
    assert!(rejected > 0, "the slow stage never pushed back");
    assert!(!accepted.is_empty(), "some of the burst was admitted");

    // Backpressure is flow control, not loss: everything accepted is
    // served, in submission order.
    let mut last = f32::NEG_INFINITY;
    for ticket in accepted {
        let reply = ticket.wait().expect("accepted work is served");
        assert!(reply.outputs[0] > last, "FIFO across the pipeline");
        last = reply.outputs[0];
    }
    assert_eq!(graph.depth(), 0, "zero leaked tickets");
    graph.shutdown();
}

#[test]
fn chaos_transient_faults_are_invisible_in_the_logits() {
    // A ChaosBackend wrapped around the *second* conv stage injects
    // seeded transient failures mid-pipeline; the stage's pool retries
    // them invisibly — every reply stays bit-identical to forward.
    let net = demo_network();
    let target = 3; // "3-conv", the middle macro stage
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_transient_rate(0.25);
    let spec = wrap_stage(&demo_spec(&net, 2), target, |recipe| {
        wrap_recipe(recipe, chaos, Arc::clone(&state))
    });
    let graph =
        PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(16)).expect("deploys");

    let images: Vec<Vec<f32>> = (0..24)
        .map(|r| Network::demo_image(9000 + r as u64, net.input_len()))
        .collect();
    let tickets: Vec<PipelineTicket> = images
        .iter()
        .map(|img| submit_retrying(&graph, img))
        .collect();
    for (img, ticket) in images.iter().zip(tickets) {
        let reply = ticket.wait().expect("served through transient chaos");
        assert_eq!(
            reply.outputs,
            net.forward(img).expect("host forward"),
            "retries are invisible in the data"
        );
    }

    let stats = graph.shutdown();
    assert_eq!(stats.images(), 24);
    assert!(
        stats.stage_profiles()[target].retries() >= 1,
        "a 25% transient rate over 24 images cannot round to zero retries"
    );
}

#[test]
fn a_forced_replica_crash_respawns_and_the_stream_survives() {
    // The middle conv stage's only replica panics mid-stream; the
    // stage's RecoveryPolicy respawns it from the recipe and the
    // survivors' replies stay bit-identical. Zero leaked tickets.
    let net = demo_network();
    let target = 3;
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_panic_on_call(5);
    let spec = wrap_stage(&demo_spec(&net, 1), target, |recipe| {
        wrap_recipe(recipe, chaos, Arc::clone(&state))
    });
    let graph =
        PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(16)).expect("deploys");

    let images: Vec<Vec<f32>> = (0..16)
        .map(|r| Network::demo_image(7000 + r as u64, net.input_len()))
        .collect();
    let tickets: Vec<PipelineTicket> = images
        .iter()
        .map(|img| submit_retrying(&graph, img))
        .collect();
    for (img, ticket) in images.iter().zip(tickets) {
        let reply = ticket.wait().expect("served through the crash");
        assert_eq!(
            reply.outputs,
            net.forward(img).expect("host forward"),
            "the respawn is invisible in the data"
        );
    }
    assert_eq!(graph.depth(), 0, "zero leaked tickets");

    let stats = graph.shutdown();
    assert_eq!(stats.images(), 16);
    assert!(
        stats.stage_profiles()[target].restarts() >= 1,
        "the forced crash respawned: {:?}",
        stats.stage_profiles()[target]
    );
    assert_eq!(stats.pool_health().quarantined, 0);
}

#[test]
fn wrong_width_replies_are_typed_stage_errors_and_the_pipeline_survives() {
    // A chaos fault breaking the one-observation-per-token contract in
    // the middle stage must cost exactly the affected submissions — as
    // a typed Stage error naming stage and cause — while the pipeline
    // itself stays up and later, clean work still serves.
    let net = demo_network();
    let target = 3;
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_wrong_width_rate(1.0);
    let spec = wrap_stage(&demo_spec(&net, 1), target, |recipe| {
        wrap_recipe(recipe, chaos, Arc::clone(&state))
    });
    let graph =
        PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(8)).expect("deploys");

    let image = Network::demo_image(1, net.input_len());
    let tickets: Vec<PipelineTicket> = (0..4)
        .map(|_| graph.submit(image.clone()).expect("accepted"))
        .collect();
    for ticket in tickets {
        let err = ticket.wait().expect_err("truncated data is an error");
        assert!(!err.is_transient(), "a payload fault is fatal, not a retry");
        match err {
            BackendError::Stage { stage, source } => {
                assert_eq!(stage, target, "the error names the broken stage");
                assert!(
                    matches!(*source, BackendError::MalformedProgram { .. }),
                    "and the payload fault: {source:?}"
                );
            }
            other => panic!("expected a Stage error, got {other:?}"),
        }
    }
    assert_eq!(graph.depth(), 0, "zero leaked tickets");

    // The stage itself survived (the fault is per-payload, not fatal to
    // the replica): the pipeline still *accepts* work — intake after a
    // stage death would be refused with the stored failure instead.
    let ticket = graph.submit(image).expect("the pipeline is still open");
    let err = ticket.wait().expect_err("the chaos is still armed");
    assert!(matches!(err, BackendError::Stage { .. }), "{err:?}");
    // The pool coalesces riders into micro-batches, so 5 submissions
    // can be fewer backend calls — but never zero.
    assert!(state.calls() >= 1, "the chaos schedule really fired");
    graph.shutdown();
}

#[test]
fn a_dead_stage_drains_in_flight_work_with_typed_errors_no_leaks() {
    // Exhaust a stage's recovery budget (single replica, a forced
    // crash, zero respawns): the stage dies. Every in-flight ticket
    // must resolve with a typed Stage error — drained, not leaked — and
    // subsequent submissions are refused with the same stored error.
    let net = demo_network();
    let target = 0; // kill the *first* conv so everything in flight drains
    let state = ChaosState::new();
    let chaos = ChaosConfig::default()
        .with_seed(chaos_seed())
        .with_panic_on_call(0); // the stage's only replica dies immediately
    let spec = net
        .to_pipeline_spec(
            BackendKind::Functional { workers: 1 },
            &StagePolicy::default().with_recovery(
                RecoveryPolicy::default()
                    .with_max_retries(1)
                    .with_backoff(Duration::from_micros(10))
                    .with_respawn(0), // quarantine kills the one-replica pool
            ),
        )
        .expect("lowers");
    let spec = wrap_stage(&spec, target, |recipe| {
        wrap_recipe(recipe, chaos, Arc::clone(&state))
    });
    let graph =
        PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(8)).expect("deploys");

    let image = Network::demo_image(2, net.input_len());
    let tickets: Vec<PipelineTicket> = (0..6)
        .map(|_| graph.submit(image.clone()).expect("accepted while alive"))
        .collect();
    let mut stage_errors = 0;
    for ticket in tickets {
        // Every ticket resolves — the zero-leak invariant under stage
        // death — each with a typed error naming a stage.
        let err = ticket.wait().expect_err("the stage is beyond recovery");
        match err {
            BackendError::Stage { .. } => stage_errors += 1,
            other => panic!("expected a typed Stage error, got {other:?}"),
        }
    }
    assert_eq!(stage_errors, 6);
    assert_eq!(graph.depth(), 0, "zero leaked tickets after stage death");

    // New work is refused with the stored failure, not silently queued.
    let err = graph
        .submit(image)
        .expect_err("a dead pipeline refuses intake");
    assert!(matches!(err, BackendError::Stage { .. }), "{err:?}");
    graph.shutdown();
}

#[test]
fn a_timed_out_wait_names_the_stage_the_request_is_blocked_at() {
    // The stage-position probe: when a wait times out, the ticket can
    // say *where* the request is stuck instead of timing out opaquely.
    let spec = PipelineSpec::new()
        .host("fast", Ok)
        .host("glacial", |x: Vec<f32>| {
            std::thread::sleep(Duration::from_millis(150));
            Ok(x)
        });
    let graph = PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(4))
        .expect("graph deploys");

    let tickets: Vec<PipelineTicket> = (0..3)
        .map(|i| graph.submit(vec![i as f32]).expect("accepted"))
        .collect();
    let mut blocked_at = Vec::new();
    for ticket in tickets {
        match ticket.wait_timeout(Duration::from_millis(5)) {
            Ok(resolved) => {
                resolved.expect("a resolved ticket carries its reply");
            }
            Err(ticket) => {
                // The probe names the blocking stage.
                let state = ticket.state();
                let stage = state.stage().expect("unresolved means positioned");
                assert!(stage < graph.stage_names().len());
                blocked_at.push(graph.stage_names()[stage].clone());
                // And the handed-back ticket still resolves normally.
                let reply = ticket.wait().expect("served after the wait resumes");
                assert!(!reply.outputs.is_empty());
            }
        }
    }
    assert!(
        blocked_at
            .iter()
            .any(|name| name == "glacial" || name == "fast"),
        "at least one wait timed out against the glacial stage: {blocked_at:?}"
    );
    assert_eq!(graph.depth(), 0);
    graph.shutdown();
}

#[test]
fn forward_trace_matches_the_lowered_specs_reference_trace() {
    // The per-layer golden contract: the network's host-side activation
    // trace and the lowered spec's synchronous reference trace agree
    // bit for bit, layer by layer — the foundation the streaming
    // bit-identicality tests stand on.
    let net = demo_network();
    let spec = demo_spec(&net, 1);
    assert_eq!(spec.stage_names(), net.layer_names());
    for seed in [1u64, 2, 3] {
        let image = Network::demo_image(seed, net.input_len());
        let host = net.forward_trace(&image).expect("host trace");
        let lowered = spec.reference_trace(&image).expect("lowered trace");
        assert_eq!(host.len(), lowered.len());
        for (h, l) in host.iter().zip(&lowered) {
            assert_eq!(&h.output, l, "layer {} diverged", h.name);
        }
        assert_eq!(
            host.last().expect("nonempty").output,
            net.forward(&image).expect("forward"),
            "the trace ends at the logits"
        );
    }
}

/// Decoder chains and stages of the float-activation macro stages below.
const NDEC: usize = 3;
const NS: usize = 2;

/// A macro stage whose activations travel as floats: `encode` packs
/// each `NS * SUBVECTOR_LEN` values into one token and `decode` flattens
/// every token's outputs. `before_encode` and `before_decode` run first
/// inside each closure: the fault hooks.
fn float_stage(
    name: &str,
    seed: u64,
    before_encode: impl Fn() + Send + Sync + 'static,
    before_decode: impl Fn() + Send + Sync + 'static,
) -> MacroStage {
    let cfg = MacroConfig::new(NDEC, NS);
    MacroStage::new(
        name,
        &cfg,
        MacroProgram::random(NDEC, NS, seed),
        BackendKind::Functional { workers: 1 },
        move |x: &[f32]| {
            before_encode();
            let rows: Vec<&[f32]> = x.chunks(NS * SUBVECTOR_LEN).collect();
            TokenBatch::from_f32_rows(&rows, NS, QuantScale::UNIT)
        },
        move |r: &BatchResult| {
            before_decode();
            Ok(r.tokens
                .iter()
                .flat_map(|t| t.outputs.iter().map(|&v| f32::from(v)))
                .collect())
        },
    )
    .expect("the program fits")
}

/// Three tokens' worth of activation values in the `i8` range.
fn float_image(seed: usize) -> Vec<f32> {
    (0..3 * NS * SUBVECTOR_LEN)
        .map(|i| ((i * 7 + seed * 13) % 61) as f32 - 30.0)
        .collect()
}

/// A hook that panics on its first call when `armed`.
fn panics_once(armed: bool) -> impl Fn() + Send + Sync + 'static {
    let armed = AtomicBool::new(armed);
    move || assert!(!armed.swap(false, Ordering::SeqCst), "injected panic")
}

#[test]
fn a_panicking_encode_or_decode_costs_only_its_own_item() {
    // A one-macro-stage graph with a host stage after it, whose encode
    // or decode closure panics on its first call. The panic costs that
    // item alone, as a typed error naming the macro stage; it is no
    // replica crash, so nothing is respawned or retried.
    let spec = |encode_panics: bool, decode_panics: bool| {
        PipelineSpec::new()
            .macro_stage(float_stage(
                "macro",
                41,
                panics_once(encode_panics),
                panics_once(decode_panics),
            ))
            .host("halve", |x: Vec<f32>| {
                Ok(x.into_iter().map(|v| v * 0.5).collect())
            })
    };
    let image = float_image(1);
    let expected = spec(false, false)
        .reference_trace(&image)
        .expect("the reference runs")
        .pop()
        .expect("one output per stage");
    let resolved = |ticket: PipelineTicket| match ticket.wait_timeout(Duration::from_secs(2)) {
        Ok(outcome) => outcome,
        Err(ticket) => panic!("unresolved after 2 s, at {:?}", ticket.state()),
    };
    for encode_panics in [true, false] {
        // No destructor until the checked shutdown below: a graph that
        // lost a thread to the panic could hang in its drop.
        let graph = ManuallyDrop::new(
            PipelineGraph::build(
                spec(encode_panics, !encode_panics),
                PipelinePolicy::default(),
            )
            .expect("graph deploys"),
        );
        let err = resolved(graph.submit(image.clone()).expect("accepted"))
            .expect_err("the closure panicked");
        assert!(
            matches!(
                &err,
                BackendError::Stage { stage: 0, source } if **source == BackendError::ReplicaPanicked
            ),
            "encode panics: {encode_panics}, got {err:?}"
        );
        let reply = resolved(graph.submit(image.clone()).expect("accepted"))
            .expect("the next item is served");
        assert_eq!(reply.outputs, expected, "bit-identical after the panic");

        let graph = ManuallyDrop::into_inner(graph);
        let (done, stats) = mpsc::channel();
        let shutdown = std::thread::spawn(move || {
            let _ = done.send(graph.shutdown());
        });
        let stats = stats
            .recv_timeout(Duration::from_secs(5))
            .expect("the graph shuts down");
        shutdown.join().expect("the shutdown thread returns");
        assert_eq!(stats.images(), 1);
        assert_eq!(stats.stage_profiles()[0].restarts(), 0, "no respawn");
        assert_eq!(stats.stage_profiles()[0].retries(), 0, "no kernel retry");
    }
}

#[test]
fn backpressure_crosses_hops_and_a_blocked_graph_still_drops() {
    // Two macro stages, then a host stage that sleeps 5 ms per item on
    // the second stage's replica. The second pool fills, the first
    // stage's replica blocks handing it the next item, the first pool
    // fills behind it, and intake answers QueueFull.
    const CAPACITY: usize = 2;
    const MACRO_STAGES: usize = 2;
    const REPLICAS: usize = 1;
    let spec = || {
        PipelineSpec::new()
            .macro_stage(float_stage("first", 51, || (), || ()))
            .macro_stage(float_stage("second", 52, || (), || ()))
            .host("slow", |x: Vec<f32>| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(x)
            })
    };
    let reference = spec();
    let expected = |image: &[f32]| {
        reference
            .reference_trace(image)
            .expect("the reference runs")
            .pop()
            .expect("one output per stage")
    };
    // The intake channel, the item the intake thread holds, and per
    // macro stage its pool's admitted items plus one micro-batch of at
    // most CAPACITY riders in each replica's hands.
    let bound = CAPACITY + 1 + MACRO_STAGES * CAPACITY * (1 + REPLICAS);
    let graph = PipelineGraph::build(spec(), PipelinePolicy::default().with_capacity(CAPACITY))
        .expect("graph deploys");

    let images: Vec<Vec<f32>> = (0..64).map(float_image).collect();
    let mut accepted = Vec::new();
    let mut rejected = 0u32;
    for image in &images {
        match graph.submit(image.clone()) {
            Ok(ticket) => accepted.push((image, ticket)),
            Err(BackendError::QueueFull { limit }) => {
                assert!(
                    matches!(limit, QueueLimit::Requests { max_depth } if max_depth == CAPACITY),
                    "the refusal names the intake bound: {limit:?}"
                );
                rejected += 1;
            }
            Err(e) => panic!("unexpected submit error: {e}"),
        }
        assert!(graph.depth() <= bound, "depth {} > {bound}", graph.depth());
    }
    assert!(rejected > 0, "the slow stage never pushed back");
    for (image, ticket) in accepted {
        let reply = ticket.wait().expect("accepted work is served");
        assert_eq!(reply.outputs, expected(image), "bit-identical");
    }
    assert_eq!(graph.depth(), 0, "zero leaked tickets");

    // Fill every slot again: intake, the intake thread's hand, both
    // pools and both replicas' hands. The first replica then holds an
    // item it cannot hand to the full second pool. Dropping the graph
    // there drains everything accepted and returns.
    let saturated = CAPACITY + 1 + MACRO_STAGES * (CAPACITY + REPLICAS);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut refill = Vec::new();
    while graph.depth() < saturated {
        assert!(Instant::now() < deadline, "depth {}", graph.depth());
        match graph.submit(images[refill.len() % images.len()].clone()) {
            Ok(ticket) => refill.push(ticket),
            Err(BackendError::QueueFull { .. }) => std::thread::sleep(Duration::from_micros(100)),
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    let (dropped, done) = mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(graph);
        let _ = dropped.send(());
    });
    done.recv_timeout(Duration::from_secs(10))
        .expect("dropping a blocked graph returns");
    dropper.join().expect("the dropping thread returns");
    for (i, ticket) in refill.into_iter().enumerate() {
        let image = &images[i % images.len()];
        let reply = ticket.wait().expect("the drop drains accepted work");
        assert_eq!(reply.outputs, expected(image), "bit-identical");
    }
}
