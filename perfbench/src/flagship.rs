//! `flagship_serving`: the paper-flagship program (Ndec=16, NS=32) served
//! by a 2-replica `ReplicaPool` of single-worker functional replicas.
//!
//! Closed-loop segments (2 submitters, 8 requests in flight each) measure
//! throughput; open-loop segments (one generator on a fixed schedule,
//! well under capacity) measure request latency from each due time.

use crate::common::{
    closed_rate, matches, median, micros, pairs, percentile, reference_outputs, subseed, threads,
    timed_builds, tokens, HwCost, Metrics, Outcome, SplitMix, Tally, PROGRAM_SEED, SEGMENT,
};
use crate::trace::{Tap, TapCounters, Tracer};
use maddpipe_core::prelude::{MacroConfig, MacroProgram};
use maddpipe_runtime::prelude::*;
use std::collections::VecDeque;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

pub const TOKENS_PER_REQUEST: usize = 64;
/// Distinct requests generated per run; both phases cycle through them.
const UNIQUE_REQUESTS: usize = 2048;
const REPLICAS: usize = 2;
const SUBMITTERS: usize = 2;
const IN_FLIGHT: usize = 8;
/// Open-loop arrivals per second: about an eighth of the pool's capacity.
const OPEN_RATE: f64 = 5000.0;
/// Requests whose modelled hardware cost is reported.
const MODELLED_REQUESTS: usize = 64;
/// Pool builds timed at the start of a run and after each segment pair.
const SETUP_REPS: usize = 3;

/// The program and every request of a run, with their expected outputs.
pub struct Inputs {
    pub cfg: MacroConfig,
    pub program: MacroProgram,
    pub requests: Vec<TokenBatch>,
    pub expected: Vec<Vec<i16>>,
}

impl Inputs {
    pub fn generate(seed: u64, count: usize) -> Inputs {
        let cfg = MacroConfig::paper_flagship();
        let program = MacroProgram::random(cfg.ndec, cfg.ns, PROGRAM_SEED);
        let mut rng = SplitMix::new(subseed(seed, 2));
        let requests: Vec<TokenBatch> = (0..count)
            .map(|_| {
                TokenBatch::new(tokens(&mut rng, cfg.ns, TOKENS_PER_REQUEST))
                    .expect("requests are non-empty")
            })
            .collect();
        let expected = requests
            .iter()
            .map(|r| reference_outputs(&program, r))
            .collect();
        Inputs {
            cfg,
            program,
            requests,
            expected,
        }
    }
}

/// The serving policy of the flagship pool: ~4-request micro-batches
/// under load, a 100 µs linger, room for every in-flight request.
fn serve_policy() -> ServePolicy {
    ServePolicy::default()
        .with_fairness(Fairness::RoundRobin)
        .with_queue(
            QueuePolicy::default()
                .with_max_batch(256)
                .with_max_linger(Duration::from_micros(100))
                .with_max_depth(4096),
        )
}

/// A pool of single-worker functional replicas of `program`; with `tap`,
/// each replica's backend is wrapped in a counting [`Tap`].
pub fn build_pool(
    cfg: &MacroConfig,
    program: &MacroProgram,
    replicas: usize,
    policy: ServePolicy,
    tap: Option<(&Arc<TapCounters>, Option<&Arc<Tracer>>)>,
) -> ReplicaPool {
    let recipes = (0..replicas)
        .map(|_| {
            let cfg = cfg.clone();
            let program = program.clone();
            let tap = tap.map(|(c, t)| (Arc::clone(c), t.cloned()));
            let recipe: ReplicaFactory = Arc::new(move || {
                let backend =
                    BackendKind::Functional { workers: 1 }.build(&cfg, program.clone())?;
                Ok(match &tap {
                    Some((counters, tracer)) => {
                        Box::new(Tap::new(backend, Arc::clone(counters), tracer.as_ref()))
                            as Box<dyn MacroBackend>
                    }
                    None => backend,
                })
            });
            recipe
        })
        .collect();
    ReplicaPool::from_recipes(policy, cfg.ns, recipes).expect("the flagship pool comes up")
}

/// Completions of the closed-loop phase.
struct Closed {
    done: Vec<(Duration, u64)>,
    tally: Tally,
    threads: f64,
}

fn submitter(
    pool: &ReplicaPool,
    inputs: &Inputs,
    k: usize,
    start: Instant,
    end: Instant,
    tracer: Option<&Arc<Tracer>>,
) -> (Vec<(Duration, u64)>, Tally) {
    let mut spans = tracer.map(Tracer::buffer);
    let mut done = Vec::new();
    let mut tally = Tally::default();
    let mut inflight = VecDeque::with_capacity(IN_FLIGHT);
    let mut next = k;
    let mut seq = 0u64;
    loop {
        while inflight.len() < IN_FLIGHT && Instant::now() < end {
            let idx = next % inputs.requests.len();
            next += SUBMITTERS;
            let id = seq * SUBMITTERS as u64 + k as u64;
            seq += 1;
            let batch = inputs.requests[idx].clone();
            let t0 = Instant::now();
            let ticket = pool.submit_with(batch, SubmitOptions::default().with_client(k as u64));
            let t1 = Instant::now();
            let root = spans.as_ref().map(|s| s.reserve());
            if let Some(s) = &mut spans {
                s.record("pool.submit", t0, t1, root, id);
            }
            match ticket {
                Ok(ticket) => inflight.push_back((idx, id, root, t0, ticket)),
                Err(_) => {
                    tally.fail();
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
        let Some((idx, id, root, t0, ticket)) = inflight.pop_front() else {
            break;
        };
        let w0 = Instant::now();
        let reply = ticket.wait();
        let t1 = Instant::now();
        if let Some(s) = &mut spans {
            s.record("pool.wait", w0, t1, root, id);
            s.record_as(root.expect("reserved"), "request", t0, t1, id);
        }
        match reply {
            Ok(r) if matches(&r.result, &inputs.expected[idx]) => {
                tally.ok();
                done.push((t1 - start, TOKENS_PER_REQUEST as u64));
            }
            Ok(_) => tally.wrong(),
            Err(_) => tally.fail(),
        }
    }
    (done, tally)
}

/// Closed loop: each submitter keeps `IN_FLIGHT` requests outstanding for
/// `duration`; the thread count is sampled midway.
fn closed_phase(
    pool: &ReplicaPool,
    inputs: &Inputs,
    duration: Duration,
    tracer: Option<&Arc<Tracer>>,
) -> Closed {
    let start = Instant::now();
    let end = start + duration;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|k| s.spawn(move || submitter(pool, inputs, k, start, end, tracer)))
            .collect();
        std::thread::sleep(duration / 2);
        let mut closed = Closed {
            done: Vec::new(),
            tally: Tally::default(),
            threads: threads(),
        };
        for h in handles {
            let (done, tally) = h.join().expect("submitter thread");
            closed.done.extend(done);
            closed.tally.add(tally);
        }
        closed
    })
}

/// What the open-loop phase observed.
#[derive(Default)]
struct Open {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    submit_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    service_us: Vec<f64>,
    handoff_us: Vec<f64>,
    tally: Tally,
}

impl Open {
    fn absorb(&mut self, other: Open) {
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.submit_us.extend(other.submit_us);
        self.queue_wait_us.extend(other.queue_wait_us);
        self.service_us.extend(other.service_us);
        self.handoff_us.extend(other.handoff_us);
        self.tally.add(other.tally);
    }
}

/// Open loop: one generator submits on a fixed schedule; this thread
/// collects replies in order and times each from its due time.
fn open_phase(
    pool: &ReplicaPool,
    inputs: &Inputs,
    duration: Duration,
    tracer: Option<&Arc<Tracer>>,
) -> Open {
    let n = (duration.as_secs_f64() * OPEN_RATE) as usize;
    let start = Instant::now() + Duration::from_millis(1);
    let mut open = Open::default();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel();
        let generator = s.spawn(move || {
            let mut late = Vec::with_capacity(n);
            for i in 0..n {
                let idx = i % inputs.requests.len();
                let batch = inputs.requests[idx].clone();
                let due = start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let t0 = Instant::now();
                let ticket = pool.submit(batch);
                let t1 = Instant::now();
                late.push(micros(t0 - due));
                if tx.send((i as u64, idx, due, t0, t1, ticket)).is_err() {
                    break;
                }
            }
            late
        });
        let mut spans = tracer.map(Tracer::buffer);
        for (id, idx, due, t0, t1, ticket) in rx {
            open.submit_us.push(micros(t1 - t0));
            let root = spans.as_ref().map(|s| s.reserve());
            let Ok(ticket) = ticket else {
                open.tally.fail();
                continue;
            };
            let reply = ticket.wait();
            let done = Instant::now();
            if let Some(s) = &mut spans {
                s.record("pool.submit", t0, t1, root, id);
                s.record("pool.wait", t1, done, root, id);
                s.record_as(root.expect("reserved"), "request", due, done, id);
            }
            match reply {
                Ok(r) if matches(&r.result, &inputs.expected[idx]) => {
                    open.tally.ok();
                    open.latency_us.push(micros(done - due));
                    open.queue_wait_us.push(micros(r.queue_wait));
                    open.service_us.push(micros(r.service));
                    open.handoff_us
                        .push(micros(done - t0) - micros(r.queue_wait) - micros(r.service));
                }
                Ok(_) => open.tally.wrong(),
                Err(_) => open.tally.fail(),
            }
        }
        open.late_us = generator.join().expect("generator thread");
    });
    open
}

/// Modelled hardware cost of the first requests, from the analytic PPA
/// model of the same program.
fn modelled(inputs: &Inputs) -> HwCost {
    let mut backend = AnalyticBackend::new(&inputs.cfg, inputs.program.clone())
        .expect("the flagship program fits its configuration");
    let mut cost = HwCost::default();
    for r in inputs.requests.iter().take(MODELLED_REQUESTS) {
        cost.absorb(&backend.run_batch(r).expect("the model runs"));
    }
    cost
}

/// One run of `seconds`, alternating 1 s closed-loop and open-loop
/// segments; the rate and the latency percentiles are medians over
/// segments. Set-up is timed at the start and again after every segment
/// pair. A traced run records spans in odd pairs only, so even pairs give
/// its untraced figures.
pub fn run(seed: u64, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let inputs = Inputs::generate(seed, UNIQUE_REQUESTS);
    let counters = Arc::new(TapCounters::default());
    let tap = tracer.map(|t| (&counters, Some(t)));
    let build = || build_pool(&inputs.cfg, &inputs.program, REPLICAS, serve_policy(), tap);
    let mut setup = Vec::new();
    let pool = timed_builds(&mut setup, SETUP_REPS, build);
    let pairs = pairs(seconds);

    let mut tally = Tally::default();
    // One figure per segment: closed-loop rates of untraced and traced
    // pairs, and open-loop latency percentiles.
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    let mut threads = f64::NAN;
    let (mut tap_delta, mut busy) = ((0, 0, 0), Duration::ZERO);
    let mut open = Open::default();
    for i in 0..pairs {
        let traced = tracer.is_some() && i % 2 == 1;
        if let Some(t) = tracer {
            t.set_enabled(traced);
        }
        let busy0: Duration = pool.stats().replica_busy().iter().sum();
        let tap0 = counters.snapshot();
        let closed = closed_phase(&pool, &inputs, SEGMENT, tracer);
        let tap1 = counters.snapshot();
        busy += pool.stats().replica_busy().iter().sum::<Duration>() - busy0;
        tap_delta.0 += tap1.0 - tap0.0;
        tap_delta.1 += tap1.1 - tap0.1;
        tap_delta.2 += tap1.2 - tap0.2;
        let rate = closed_rate(&closed.done, SEGMENT);
        if traced {
            traced_rates.push(rate);
        } else {
            rates.push(rate);
        }
        tally.add(closed.tally);
        if threads.is_nan() {
            threads = closed.threads;
        }
        let segment = open_phase(&pool, &inputs, SEGMENT, tracer);
        if !traced {
            p50.push(percentile(&segment.latency_us, 50.0));
            p99.push(percentile(&segment.latency_us, 99.0));
        }
        open.absorb(segment);
        drop(timed_builds(&mut setup, SETUP_REPS, build));
    }
    if let Some(t) = tracer {
        t.set_enabled(true);
    }
    pool.shutdown();
    tally.add(open.tally);

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup), "s");
    m.set("tokens_per_s", median(&rates), "1/s");
    m.set("request_p50_us", median(&p50), "us");
    m.set("request_p99_us", median(&p99), "us");
    modelled(&inputs).report(&mut m);
    if tracer.is_some() {
        let on = median(&traced_rates);
        m.set("trace.tokens_per_s", on, "1/s");
        m.set("trace.overhead_share", 1.0 - on / median(&rates), "share");
        let (calls, tokens, busy_ns) = tap_delta;
        m.set("functional.calls", calls as f64, "count");
        m.set(
            "functional.busy_us_per_token",
            busy_ns as f64 / 1e3 / tokens.max(1) as f64,
            "us",
        );
        m.set(
            "pool.coalesced_tokens_mean",
            tokens as f64 / calls.max(1) as f64,
            "tokens",
        );
        m.set(
            "pool.replica_utilisation",
            busy.as_secs_f64() / (SEGMENT.as_secs_f64() * (pairs * REPLICAS) as f64),
            "share",
        );
        m.set("pool.submit_us_p50", median(&open.submit_us), "us");
        m.set("pool.handoff_us_p50", median(&open.handoff_us), "us");
        m.set("pool.queue_wait_us_p50", median(&open.queue_wait_us), "us");
        m.set(
            "pool.queue_wait_us_p99",
            percentile(&open.queue_wait_us, 99.0),
            "us",
        );
        m.set("pool.service_us_p50", median(&open.service_us), "us");
        m.set("loadgen.late_p99_us", percentile(&open.late_us, 99.0), "us");
        m.set("process.threads", threads, "count");
    }
    Outcome { tally, metrics: m }
}
