//! `rtl_flagship`: the flagship netlist on the pipelined RTL backend,
//! driven through `Session::run`.
//!
//! The program is fixed and the input is a fixed sequence of seeded
//! tokens in 16-token batches. The first pass over it, on a freshly built
//! netlist, gives the simulated statistics, which repeat exactly for a
//! seed; further passes over the same sequence add host-time samples
//! until the run's time is spent. Each batch's host time is divided by a
//! reading of the host's speed taken just before it.

use crate::common::{
    matches, median, percentile, reference_outputs, slowdown, subseed, timed_builds, tokens,
    HwCost, Metrics, Outcome, SplitMix, Tally, PROGRAM_SEED,
};
use crate::trace::{Tracer, NO_REQUEST};
use maddpipe_core::prelude::{MacroConfig, MacroProgram};
use maddpipe_runtime::prelude::*;
use maddpipe_sim::engine::SimStats;
use std::sync::Arc;
use std::time::Instant;

/// Tokens in the fixed sequence.
const TOKENS: usize = 256;
const BATCH: usize = 16;
const MIN_PASSES: usize = 2;
/// Netlist builds timed at the start of a run; one more is timed after
/// every pass.
const SETUP_REPS: usize = 3;
/// The netlist's energy domains.
const DOMAINS: [&str; 4] = ["top", "ctrl", "encoder", "decoder"];

fn sim_stats(session: &Session) -> SimStats {
    session.rtl().expect("an RTL session").simulator().stats()
}

fn domain_energy(session: &Session) -> [f64; 4] {
    let report = session
        .rtl()
        .expect("an RTL session")
        .simulator()
        .energy_report();
    DOMAINS.map(|d| report.energy_of(d).value())
}

/// One run: passes over the fixed sequence until `seconds` is spent.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, PROGRAM_SEED);
    let mut rng = SplitMix::new(subseed(seed, 3));
    let batches: Vec<TokenBatch> = (0..TOKENS / BATCH)
        .map(|_| TokenBatch::new(tokens(&mut rng, cfg.ns, BATCH)).expect("non-empty"))
        .collect();
    let expected: Vec<Vec<i16>> = batches
        .iter()
        .map(|b| reference_outputs(&program, b))
        .collect();
    let build = || {
        Session::builder(cfg.clone())
            .program(program.clone())
            .backend(BackendKind::Rtl {
                fidelity: Fidelity::Pipelined,
            })
            .build()
            .expect("the flagship program fits its configuration")
    };
    let mut setup = Vec::new();
    let mut session = timed_builds(&mut setup, SETUP_REPS, build);

    let mut spans = tracer.map(Tracer::buffer);
    let mut tally = Tally::default();
    let mut cost = HwCost::default();
    let (stats0, energy0) = (sim_stats(&session), domain_energy(&session));
    let (mut first_stats, mut first_energy) = (stats0, energy0);
    // Per pass: tokens/s, median and p99 batch time, host-normalised.
    let mut passes: Vec<(f64, f64, f64)> = Vec::new();
    let start = Instant::now();
    // Host-normalised time of all passes, and wall time of the last one.
    let (mut host_s, mut last_pass_s) = (0.0, 0.0);
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() + last_pass_s <= seconds {
        let p = passes.len();
        if let Some(t) = tracer {
            t.set_enabled(p % 2 == 1);
        }
        let mut batch_us = Vec::with_capacity(batches.len());
        let pass_start = Instant::now();
        for (b, (batch, expected)) in batches.iter().zip(&expected).enumerate() {
            let slow = slowdown();
            let t0 = Instant::now();
            let result = session.run(batch);
            let t1 = Instant::now();
            if let Some(s) = &mut spans {
                s.record("session.run", t0, t1, None, (p * batches.len() + b) as u64);
            }
            batch_us.push((t1 - t0).as_secs_f64() * 1e6 / slow);
            match result {
                Ok(r) if matches(&r, expected) => {
                    tally.ok();
                    if p == 0 {
                        cost.absorb(&r);
                    }
                }
                Ok(_) => tally.wrong(),
                Err(_) => tally.fail(),
            }
        }
        let pass_end = Instant::now();
        if let Some(s) = &mut spans {
            s.record("pass", pass_start, pass_end, None, NO_REQUEST);
        }
        last_pass_s = (pass_end - pass_start).as_secs_f64();
        let pass_s = batch_us.iter().sum::<f64>() / 1e6;
        host_s += pass_s;
        if p == 0 {
            first_stats = sim_stats(&session);
            first_energy = domain_energy(&session);
        }
        passes.push((
            TOKENS as f64 / pass_s,
            median(&batch_us),
            percentile(&batch_us, 99.0),
        ));
        drop(timed_builds(&mut setup, 1, build));
    }
    if let Some(t) = tracer {
        t.set_enabled(true);
    }
    let last_stats = sim_stats(&session);

    // Column `i` of the per-pass rows, optionally only traced (odd) or
    // untraced (even) passes.
    let col = |i: usize, traced: Option<bool>| -> Vec<f64> {
        passes
            .iter()
            .enumerate()
            .filter(|(p, _)| traced.is_none_or(|on| (p % 2 == 1) == on))
            .map(|(_, r)| [r.0, r.1, r.2][i])
            .collect()
    };
    let mut m = Metrics::default();
    m.set("setup_s", median(&setup), "s");
    m.set("request_p50_us", median(&col(1, None)), "us");
    m.set("request_p99_us", median(&col(2, None)), "us");
    cost.report(&mut m);
    if tracer.is_some() {
        let (off, on) = (median(&col(0, Some(false))), median(&col(0, Some(true))));
        m.set("tokens_per_s", off, "1/s");
        m.set("trace.tokens_per_s", on, "1/s");
        m.set("trace.overhead_share", 1.0 - on / off, "share");
        let n = TOKENS as f64;
        let (s1, s0) = (&first_stats, &stats0);
        let popped = (s1.events_popped - s0.events_popped) as f64;
        m.set("engine.events_per_token", popped / n, "count");
        m.set(
            "engine.evals_per_token",
            (s1.evals - s0.evals) as f64 / n,
            "count",
        );
        m.set(
            "engine.transitions_per_token",
            (s1.transitions - s0.transitions) as f64 / n,
            "count",
        );
        m.set(
            "engine.delta_cycles_per_token",
            (s1.delta_cycles - s0.delta_cycles) as f64 / n,
            "count",
        );
        m.set("engine.max_queue", s1.max_queue as f64, "count");
        m.set(
            "engine.stale_share",
            (s1.events_stale - s0.events_stale) as f64 / popped,
            "share",
        );
        m.set(
            "engine.events_per_s",
            (last_stats.events_popped - s0.events_popped) as f64 / host_s,
            "1/s",
        );
        for ((domain, e1), e0) in DOMAINS.iter().zip(first_energy).zip(energy0) {
            m.set(
                format!("energy.{domain}_fj_per_token"),
                (e1 - e0) / n * 1e15,
                "fJ",
            );
        }
        m.set("process.threads", crate::common::threads(), "count");
    } else {
        m.set("tokens_per_s", median(&col(0, None)), "1/s");
    }
    Outcome { tally, metrics: m }
}
