//! Async serving: many clients, one queue, micro-batched execution.
//!
//! The paper's macro is completion-driven — a token finishes when the
//! DLC ripple settles, not on a clock edge — so the natural serving
//! model is asynchronous too: clients submit whenever they like, a
//! replica coalesces whatever is pending into micro-batches, and every
//! request resolves through its own ticket. This example walks that
//! path end to end:
//!
//! 1. build a flagship-shaped `Session` and convert it into a
//!    one-replica `ReplicaPool` — a serving queue — with `into_pool`,
//! 2. hammer it from several client threads and read the queue-side
//!    statistics (wait percentiles, coalesced micro-batch sizes, peak
//!    backlog) off the shared `SessionStats`,
//! 3. watch typed `QueueFull` backpressure on a depth-bounded queue in
//!    front of a slow event-driven netlist, and
//! 4. shut down cleanly: every accepted ticket resolves first.
//!
//! Run with: `cargo run --example async_serving --release`

use maddpipe::prelude::*;
use std::time::Duration;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 32;
const TOKENS_PER_REQUEST: usize = 16;

fn main() {
    // ── 1. A session builder becomes a serving queue ───────────────────
    // The pool's replica thread builds the backend from the SessionBuilder's
    // (program, kind) recipe, so even non-Send backends (netlists) can
    // serve. (A running `Session` converts too, with
    // `Session::into_pool`, carrying its stats along.) The policy
    // bounds micro-batches at 128 tokens, lingers up to 200 µs to let
    // them fill, and holds at most 256 unresolved requests before
    // pushing back.
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 42);
    let policy = QueuePolicy::default()
        .with_max_batch(128)
        .with_max_linger(Duration::from_micros(200))
        .with_max_depth(256);
    let queue = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(BackendKind::Functional { workers: 1 })
        .into_pool(ServePolicy::default().with_queue(policy))
        .expect("queue comes up");

    // ── 2. Concurrent clients share the backend ────────────────────────
    let ns = cfg.ns;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let queue = &queue;
            let program = &program;
            scope.spawn(move || {
                // Submit a burst, then wait on the tickets — requests
                // from all clients interleave in the queue's FIFO.
                let tickets: Vec<BatchTicket> = (0..REQUESTS_PER_CLIENT)
                    .map(|r| {
                        let seed = (client * 1000 + r) as u64;
                        let batch = TokenBatch::random(ns, TOKENS_PER_REQUEST, seed);
                        queue.submit(batch).expect("within the depth bound")
                    })
                    .collect();
                for (r, ticket) in tickets.into_iter().enumerate() {
                    let reply = ticket.wait().expect("served");
                    // Outputs are bit-identical to the LUT reference,
                    // however the request was coalesced.
                    let seed = (client * 1000 + r) as u64;
                    let batch = TokenBatch::random(ns, TOKENS_PER_REQUEST, seed);
                    assert_eq!(
                        reply.result.tokens.get(0).unwrap().outputs,
                        program.reference_output(&batch.tokens()[0]),
                    );
                }
            });
        }
    });
    let stats = queue.stats();
    println!(
        "{} clients x {} requests x {} tokens through one queue:",
        CLIENTS, REQUESTS_PER_CLIENT, TOKENS_PER_REQUEST
    );
    println!("  {stats}");
    println!(
        "  {} micro-batches, mean {:.1} tokens each (max {}), peak backlog {} requests",
        stats.queued_batches(),
        stats.mean_coalesced_batch(),
        stats.max_coalesced_batch(),
        stats.max_queue_depth(),
    );

    // ── 3. Typed backpressure on a depth-bounded queue ─────────────────
    // A slow backend (the event-driven netlist) behind a depth-2 queue:
    // submissions beyond the bound answer BackendError::QueueFull
    // instead of buffering without limit.
    let rtl_cfg = MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let rtl_program = MacroProgram::random(rtl_cfg.ndec, rtl_cfg.ns, 9);
    let slow = Session::builder(rtl_cfg)
        .program(rtl_program)
        .backend(BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        })
        .into_pool(ServePolicy::default().with_queue(QueuePolicy::default().with_max_depth(2)))
        .expect("queue comes up");
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for seed in 0..32u64 {
        match slow.submit(TokenBatch::random(2, 64, seed)) {
            Ok(ticket) => accepted.push(ticket),
            Err(BackendError::QueueFull { limit }) => {
                rejected += 1;
                assert_eq!(limit, QueueLimit::Requests { max_depth: 2 });
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    println!(
        "\ndepth-2 RTL queue: {} bursts accepted, {} rejected with QueueFull",
        accepted.len(),
        rejected
    );
    for ticket in accepted {
        ticket.wait().expect("accepted bursts still serve");
    }

    // ── 4. Clean shutdown ──────────────────────────────────────────────
    // shutdown() closes intake, drains every accepted ticket, joins the
    // replica and hands back the final statistics.
    let final_stats = slow.shutdown();
    println!("RTL queue after shutdown: {final_stats}");
    let final_stats = queue.shutdown();
    println!("functional queue after shutdown: {final_stats}");
}
