//! Pipeline serving: a whole CNN as one streaming deployment.
//!
//! Earlier examples serve a *single* macro — one program behind a queue
//! or a replica pool. Real inference is a chain: conv → ReLU → pool →
//! conv → … → logits. `PipelineGraph` deploys that whole chain as one
//! dataflow: a chain of replica pools, one per macro conv stage, with no
//! thread per stage. An intake thread runs the first hop, and the
//! replica that ran a conv kernel carries the image through the host
//! layers after it into the next pool. Every pool admits a bounded
//! number of images, a replica blocks on a full downstream pool, and
//! `submit(image)` returns a ticket that resolves with the logits, in
//! completion order. This example walks:
//!
//! 1. lowering a multi-layer `Network` into a `PipelineSpec` and
//!    deploying it with `PipelineGraph::build`,
//! 2. streaming a batch of images through while verifying every reply
//!    is bit-identical to the host-side `Network::forward`,
//! 3. the stage-position probe: what a timed-out wait can say about
//!    *where* a request currently is,
//! 4. end-to-end backpressure: a tiny intake capacity answering typed
//!    `QueueFull` while in-flight work stays bounded, and
//! 5. the per-stage profile in `SessionStats` — items, occupancy,
//!    residence percentiles — after shutdown.
//!
//! Run with: `cargo run --example pipeline_serving --release`

use maddpipe::prelude::*;
use std::time::Duration;

const IMAGES: usize = 48;

fn main() {
    // ── 1. Lower a network and deploy it ───────────────────────────────
    // `Network::demo` is a deterministic two-conv CNN: (2, 8, 8) images
    // through conv(2→4) → ReLU → pool → conv(4→8) → ReLU → pool →
    // affine → linear to 10 logits. Each conv lowers to a macro stage
    // with 2 functional replicas; host math stays on the host.
    let net = Network::demo(42);
    let spec = net
        .to_pipeline_spec(
            BackendKind::Functional { workers: 1 },
            &StagePolicy::default().with_replicas(2),
        )
        .expect("the demo network lowers");
    println!("stages: {}", spec.stage_names().join(" -> "));
    let graph = PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(16))
        .expect("graph deploys");

    // ── 2. Stream images through, checking bit-identicality ────────────
    let images: Vec<Vec<f32>> = (0..IMAGES)
        .map(|i| Network::demo_image(i as u64, net.input_len()))
        .collect();
    let tickets: Vec<PipelineTicket> = images
        .iter()
        .map(|img| loop {
            match graph.submit(img.clone()) {
                Ok(ticket) => break ticket,
                // Intake backpressure: a full queue is a retry signal.
                Err(BackendError::QueueFull { .. }) => std::thread::yield_now(),
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        })
        .collect();
    let mut worst = Duration::ZERO;
    for (img, ticket) in images.iter().zip(tickets) {
        let reply = ticket.wait().expect("served");
        assert_eq!(
            reply.outputs,
            net.forward(img).expect("host forward"),
            "the streaming deployment is bit-identical to Network::forward"
        );
        worst = worst.max(reply.latency);
    }
    println!(
        "{IMAGES} images served bit-identical to the host forward (worst e2e {:.1} ms)",
        worst.as_secs_f64() * 1e3
    );

    // ── 3. The stage-position probe ────────────────────────────────────
    // A wait that times out can name the stage the request is stuck at
    // instead of failing opaquely.
    let ticket = graph.submit(images[0].clone()).expect("accepted");
    match ticket.wait_timeout(Duration::ZERO) {
        Ok(reply) => {
            let reply = reply.expect("served");
            println!("probe: already done ({} logits)", reply.outputs.len());
        }
        Err(ticket) => {
            if let Some(stage) = ticket.state().stage() {
                println!(
                    "probe: currently at stage {stage} ({})",
                    graph.stage_names()[stage]
                );
            }
            ticket.wait().expect("served after the probe");
        }
    }

    // ── 4. Backpressure under a deliberately slow stage ────────────────
    // A 3-stage host pipeline whose middle stage sleeps. A host-only
    // graph runs on its intake thread, so with capacity 2 intake refuses
    // once its channel holds 2 requests — typed flow control, not
    // unbounded buffering.
    let slow_spec = PipelineSpec::new()
        .host("scale", |x: Vec<f32>| {
            Ok(x.iter().map(|v| v * 2.0).collect())
        })
        .host("slow", |x: Vec<f32>| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(x)
        })
        .host("bias", |x: Vec<f32>| {
            Ok(x.iter().map(|v| v + 1.0).collect())
        });
    let slow = PipelineGraph::build(slow_spec, PipelinePolicy::default().with_capacity(2))
        .expect("graph deploys");
    let mut accepted = Vec::new();
    let mut refused = 0u32;
    for i in 0..32 {
        match slow.submit(vec![i as f32]) {
            Ok(t) => accepted.push(t),
            Err(BackendError::QueueFull { .. }) => refused += 1,
            Err(e) => panic!("unexpected submit error: {e}"),
        }
    }
    println!(
        "\nbackpressure: {} admitted, {refused} refused with QueueFull, depth {} (bounded)",
        accepted.len(),
        slow.depth()
    );
    for ticket in accepted {
        // Flow control is not loss: everything admitted is served.
        ticket.wait().expect("admitted work drains");
    }
    slow.shutdown();

    // ── 5. Per-stage accounting after shutdown ─────────────────────────
    let stats = graph.shutdown();
    println!(
        "\npipeline: {} images, {:.0} images/s, e2e p99 {:.1} ms",
        stats.images(),
        stats.images_per_sec().unwrap_or(0.0),
        stats
            .p99_image_latency()
            .map_or(0.0, |d| d.as_secs_f64() * 1e3)
    );
    let occupancy = stats.stage_occupancy();
    for (profile, occ) in stats.stage_profiles().iter().zip(occupancy) {
        println!(
            "  [{:>9}] {:>3} items, {:>5.1}% occupied, p99 residence {:>7.1} us",
            profile.name(),
            profile.items(),
            occ * 100.0,
            profile
                .p99_residence()
                .map_or(0.0, |d| d.as_secs_f64() * 1e6)
        );
    }
}
