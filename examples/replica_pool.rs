//! Replica-pool serving: N backend replicas, one deadline-aware queue.
//!
//! A one-replica pool serialises every micro-batch through one
//! backend. When the host has cores to spare, a `ReplicaPool` builds N
//! replicas of the *same* macro — each on its own thread, from the same
//! `(program, backend)` recipe — and spreads pending micro-batches
//! across whichever replicas are idle. Outputs stay bit-identical to a
//! direct `Session::run`; only the scheduling changes. This example
//! walks the knobs:
//!
//! 1. build a flagship-shaped pool with `SessionBuilder::into_pool`
//!    and compare 1-replica vs 4-replica wall time under 8 clients,
//! 2. tag submissions with client keys (`SubmitOptions::with_client`)
//!    under round-robin fairness, so one greedy client cannot starve
//!    the others,
//! 3. attach a per-request deadline (`SubmitOptions::with_deadline`)
//!    that ships a partial micro-batch early instead of lingering, and
//! 4. read the per-replica dispatch/utilisation split off the shared
//!    `SessionStats` after shutdown.
//!
//! Run with: `cargo run --example replica_pool --release`

use maddpipe::prelude::*;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const REQUESTS_PER_CLIENT: usize = 24;
const TOKENS_PER_REQUEST: usize = 32;

/// Serve the standard multi-client workload through a pool with the
/// given replica count; returns (wall time, final stats).
fn drive(replicas: usize) -> (Duration, SessionStats) {
    let cfg = MacroConfig::paper_flagship();
    let ns = cfg.ns;
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 42);
    let pool = Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Functional { workers: 1 })
        .into_pool(
            ServePolicy::default()
                .with_replicas(replicas)
                .with_fairness(Fairness::RoundRobin)
                .with_queue(
                    QueuePolicy::default()
                        .with_max_batch(64)
                        .with_max_linger(Duration::from_micros(100))
                        .with_max_depth(4096),
                ),
        )
        .expect("pool comes up");
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let pool = &pool;
            scope.spawn(move || {
                let opts = SubmitOptions::default().with_client(client as u64);
                let tickets: Vec<BatchTicket> = (0..REQUESTS_PER_CLIENT)
                    .map(|r| {
                        let seed = (client * 1000 + r) as u64;
                        let batch = TokenBatch::random(ns, TOKENS_PER_REQUEST, seed);
                        pool.submit_with(batch, opts).expect("within the bounds")
                    })
                    .collect();
                for ticket in tickets {
                    let reply = ticket.wait().expect("served");
                    assert!(reply.replica < replicas);
                }
            });
        }
    });
    (t0.elapsed(), pool.shutdown())
}

fn main() {
    // ── 1. Data-parallel scaling: same workload, more replicas ─────────
    let (wall_r1, _) = drive(1);
    let (wall_r4, stats) = drive(4);
    let tokens = CLIENTS * REQUESTS_PER_CLIENT * TOKENS_PER_REQUEST;
    println!("{CLIENTS} clients x {REQUESTS_PER_CLIENT} requests x {TOKENS_PER_REQUEST} tokens ({tokens} total):");
    println!("  1 replica : {:>8.1} ms wall", wall_r1.as_secs_f64() * 1e3);
    println!("  4 replicas: {:>8.1} ms wall", wall_r4.as_secs_f64() * 1e3);

    // ── 4. Per-replica accounting from the shared stats ────────────────
    // Every dispatch records which replica served it and for how long;
    // utilisation is busy-time over pool uptime, per replica.
    println!("  per-replica split of the 4-replica run:");
    let util = stats.replica_utilisation();
    for (replica, dispatches) in stats.replica_dispatches().iter().enumerate() {
        println!(
            "    replica {replica}: {dispatches:>3} micro-batches, {:>5.1}% busy",
            util[replica] * 100.0
        );
    }
    println!("  {stats}");

    // ── 2 & 3. Fairness and deadlines on a slow backend ────────────────
    // The event-driven netlist is slow enough to watch scheduling
    // decisions. Round-robin fairness interleaves client keys instead
    // of draining the hottest submitter; a zero deadline ships the
    // pending micro-batch immediately even though the policy would
    // happily linger for 10 ms.
    let rtl_cfg = MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let rtl_program = MacroProgram::random(rtl_cfg.ndec, rtl_cfg.ns, 9);
    let pool = Session::builder(rtl_cfg)
        .program(rtl_program)
        .backend(BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        })
        .into_pool(
            ServePolicy::default()
                .with_replicas(2)
                .with_fairness(Fairness::RoundRobin)
                .with_queue(
                    QueuePolicy::default()
                        .with_max_batch(16)
                        .with_max_linger(Duration::from_millis(10)),
                ),
        )
        .expect("pool comes up");
    let urgent = SubmitOptions::default()
        .with_client(7)
        .with_deadline(Duration::ZERO);
    let ticket = pool
        .submit_with(TokenBatch::random(2, 4, 123), urgent)
        .expect("within the bounds");
    let reply = ticket.wait().expect("served");
    println!(
        "\nurgent RTL request: waited {:.1} µs (policy linger is 10 ms), served by replica {}",
        reply.queue_wait.as_secs_f64() * 1e6,
        reply.replica
    );
    let final_stats = pool.shutdown();
    println!("RTL pool after shutdown: {final_stats}");
}
