//! Machine-readable event-kernel and backend performance snapshot.
//!
//! Times the same workloads as the `sim_kernel` Criterion group with a
//! plain `Instant` loop — plus the execution backends of the unified
//! session API — and writes `results/BENCH_sim.json` (events/sec and
//! tokens/sec), so the performance trajectory can be tracked across PRs
//! with `git diff` instead of eyeballing bench logs.
//!
//! Run with `cargo run -p maddpipe-bench --bin bench_sim --release`.
//! With `--smoke` it runs only a tiny replica-pool load-generator
//! scenario (seconds, no file write) — the CI sanity check that the
//! serving path still moves tokens.

use maddpipe_bench::kernel_workloads::{
    bus_fanout_sim, completion_tree_sim, flagship_testbench, inverter_chain, macro_testbench,
};
use maddpipe_bench::load_gen::{drive, LoadMode, LoadReport, LoadScenario};
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::MacroProgram;
use maddpipe_nn::network::Network;
use maddpipe_runtime::prelude::*;
use maddpipe_sim::prelude::*;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Median of repeated timed runs of `f`, where each run reports how many
/// *units* (events, tokens) it processed. Returns units per second.
fn median_rate(runs: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut rates: Vec<f64> = (0..runs)
        .map(|_| {
            let t0 = Instant::now();
            let units = f();
            units as f64 / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[rates.len() / 2]
}

fn chain_events_per_sec(n: usize, toggles: u64) -> f64 {
    let (mut sim, input, _) = inverter_chain(n);
    sim.poke(input, Logic::Low);
    sim.run_to_quiescence().expect("settle");
    let mut level = Logic::High;
    median_rate(7, || {
        let e0 = sim.stats().events_popped;
        for _ in 0..toggles {
            sim.poke(input, level);
            level = !level;
            sim.run_to_quiescence().expect("propagate");
        }
        sim.stats().events_popped - e0
    })
}

fn tree_events_per_sec() -> f64 {
    let (mut sim, inputs) = completion_tree_sim();
    for &i in &inputs {
        sim.poke(i, Logic::Low);
    }
    sim.run_to_quiescence().expect("settle");
    let mut high = true;
    median_rate(7, || {
        let e0 = sim.stats().events_popped;
        for _ in 0..2_000 {
            for &i in &inputs {
                sim.poke(i, Logic::from_bool(high));
            }
            high = !high;
            sim.run_to_quiescence().expect("propagate");
        }
        sim.stats().events_popped - e0
    })
}

fn bus_fanout_events_per_sec() -> f64 {
    let (mut sim, bus) = bus_fanout_sim();
    sim.poke_bus(&bus, 0);
    sim.run_to_quiescence().expect("settle");
    let mut pattern: u64 = 0xA5A5;
    median_rate(7, || {
        let e0 = sim.stats().events_popped;
        for _ in 0..20_000 {
            sim.poke_bus(&bus, pattern & 0xFFFF);
            pattern = !pattern;
            sim.run_to_quiescence().expect("propagate");
        }
        sim.stats().events_popped - e0
    })
}

fn macro_tokens_per_sec() -> (f64, f64) {
    let (mut rtl, tokens) = macro_testbench();
    let mut k = 0usize;
    let tokens_rate = median_rate(5, || {
        let n = 64u64;
        for _ in 0..n {
            let token = &tokens[k % tokens.len()];
            k += 1;
            rtl.run_token(token).expect("token completes");
        }
        n
    });
    // Events per second while running the macro — the kernel-level view
    // of the same workload.
    let e0 = rtl.simulator().stats().events_popped;
    let t0 = Instant::now();
    for _ in 0..64 {
        let token = &tokens[k % tokens.len()];
        k += 1;
        rtl.run_token(token).expect("token completes");
    }
    let events = rtl.simulator().stats().events_popped - e0;
    let events_rate = events as f64 / t0.elapsed().as_secs_f64();
    (tokens_rate, events_rate)
}

/// Tokens and events per second through the paper-flagship netlist: 32
/// tokens streamed through `run_pipelined` per timed run, median of 3,
/// after one untimed warm-up stream — the cache-heavy case of the event
/// kernel.
fn macro_flagship_rates() -> (f64, f64) {
    let (mut rtl, tokens) = flagship_testbench();
    rtl.run_pipelined(&tokens).expect("stream completes");
    let tokens_rate = median_rate(3, || {
        rtl.run_pipelined(&tokens).expect("stream completes");
        tokens.len() as u64
    });
    let events_rate = median_rate(3, || {
        let e0 = rtl.simulator().stats().events_popped;
        rtl.run_pipelined(&tokens).expect("stream completes");
        rtl.simulator().stats().events_popped - e0
    });
    (tokens_rate, events_rate)
}

/// Scalar-spec throughput at the paper's flagship shape: the batch cut
/// into `workers` contiguous chunks, each walked one token at a time
/// through [`MacroProgram::reference_output`] on its own thread (on the
/// calling thread for one worker) — the thread-scaling rows of the
/// snapshot, keeping the historical `backend_tokens_per_sec` baseline
/// comparable across PRs. The batched LUT kernel is reported in the
/// `functional_simd` section against it.
fn scalar_tokens_per_sec(workers: usize) -> f64 {
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    let batch = TokenBatch::random(cfg.ns, 1024, 11);
    let walk = |tokens: Tokens<'_>| -> Vec<Vec<i16>> {
        tokens.iter().map(|t| program.reference_output(t)).collect()
    };
    median_rate(7, || {
        if workers == 1 {
            std::hint::black_box(walk(batch.tokens()));
        } else {
            let chunk = batch.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for start in (0..batch.len()).step_by(chunk) {
                    let part = batch.slice(start..(start + chunk).min(batch.len()));
                    scope.spawn(move || std::hint::black_box(walk(part.tokens())));
                }
            });
        }
        batch.len() as u64
    })
}

/// Functional-backend throughput at the paper's flagship shape on
/// `workers` threads — the batched LUT kernel behind the
/// `functional_simd` rows.
fn functional_tokens_per_sec(workers: usize) -> f64 {
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    let batch = TokenBatch::random(cfg.ns, 1024, 11);
    let mut backend = FunctionalBackend::with_workers(program, workers);
    median_rate(7, || {
        backend.run_batch(&batch).expect("batch completes");
        batch.len() as u64
    })
}

/// Sharded-backend throughput on a wide layer (64 decoder chains = 4×
/// the flagship macro width) split across `shards` functional macro
/// instances. The shards run one after another on the calling thread,
/// so the row measures the cost of splitting and reassembling, not
/// parallel speedup: more shards never use more cores.
fn sharded_tokens_per_sec(shards: usize) -> f64 {
    let cfg = MacroConfig::new(64, MacroConfig::paper_flagship().ns);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    let batch = TokenBatch::random(cfg.ns, 512, 11);
    let mut session = Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Sharded {
            shards,
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        })
        .build()
        .expect("random program fits its own shape");
    median_rate(7, || {
        session.run(&batch).expect("batch completes");
        batch.len() as u64
    })
}

/// The content-addressed result cache on a repeated-patch workload: a
/// 1024-token batch drawn from a 32-token alphabet (flat image regions
/// re-emitting the same im2col windows) at the flagship shape. Cold is
/// the plain functional backend on that batch; warm is a `CachedBackend`
/// replaying it after one fill pass. Returns the cold and warm median
/// rates plus the measured hit-rate and intra-batch dedup count — the
/// proof the warm number comes from real cache traffic.
fn cache_snapshot() -> (f64, f64, f64, u64) {
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    let alphabet: Vec<Token> = TokenBatch::random(cfg.ns, 32, 11)
        .tokens()
        .iter()
        .map(<[_]>::to_vec)
        .collect();
    let tokens: Vec<Token> = (0..1024)
        .map(|i| alphabet[(i * 7) % alphabet.len()].clone())
        .collect();
    let batch = TokenBatch::new(tokens).expect("non-empty");
    let mut cold = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(BackendKind::Functional { workers: 1 })
        .build()
        .expect("random program fits its own shape");
    let cold_rate = median_rate(7, || {
        cold.run(&batch).expect("batch completes");
        batch.len() as u64
    });
    let mut cached = Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        })
        .build()
        .expect("random program fits its own shape");
    cached.run(&batch).expect("fill pass completes");
    let warm_rate = median_rate(7, || {
        cached.run(&batch).expect("batch completes");
        batch.len() as u64
    });
    let cache = cached.stats().cache();
    (
        cold_rate,
        warm_rate,
        cache.hit_rate().unwrap_or(0.0),
        cache.dedup,
    )
}

/// Serving-queue throughput and latency at the flagship shape:
/// `clients` submitter threads push bursts through a one-replica pool
/// over a single-worker functional backend. Returns the median tokens/s plus
/// the queue-wait p50/p99 (µs) and mean coalesced micro-batch size
/// accumulated over *all* timed repetitions (the queue is long-lived,
/// like the sessions of the sibling benches) — the queue-side view
/// `SessionStats` adds on top of the backend rates above. Like the
/// thread/shard scaling, interpret against `host_cpus`.
fn serving_queue_snapshot(clients: usize) -> (f64, f64, f64, f64) {
    let cfg = MacroConfig::paper_flagship();
    let ns = cfg.ns;
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    let requests_per_client = 16usize;
    let tokens_per_request = 64usize;
    // One long-lived queue, like the sessions of the sibling benches:
    // construction and shutdown stay outside the timed serve spans.
    let queue = Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Functional { workers: 1 })
        .into_pool(
            ServePolicy::default().with_queue(
                QueuePolicy::default()
                    .with_max_batch(256)
                    .with_max_linger(Duration::from_micros(100)),
            ),
        )
        .expect("queue comes up");
    // Pre-generate every client's bursts, mirroring the pre-built batch
    // of the sibling benches; the timed span clones and serves them.
    let bursts: Vec<Vec<TokenBatch>> = (0..clients)
        .map(|c| {
            (0..requests_per_client)
                .map(|r| TokenBatch::random(ns, tokens_per_request, (c * 1000 + r) as u64))
                .collect()
        })
        .collect();
    let rate = median_rate(5, || {
        std::thread::scope(|scope| {
            for burst in &bursts {
                let queue = &queue;
                scope.spawn(move || {
                    let tickets: Vec<_> = burst
                        .iter()
                        .map(|batch| queue.submit(batch.clone()).expect("within the depth bound"))
                        .collect();
                    for ticket in tickets {
                        ticket.wait().expect("served");
                    }
                });
            }
        });
        (clients * requests_per_client * tokens_per_request) as u64
    });
    let stats = queue.shutdown();
    let wait_us = |p: Option<Duration>| p.map_or(0.0, |d| d.as_secs_f64() * 1e6);
    (
        rate,
        wait_us(stats.p50_queue_wait()),
        wait_us(stats.p99_queue_wait()),
        stats.mean_coalesced_batch(),
    )
}

/// A flagship-shaped replica pool over single-worker functional
/// replicas, round-robin fairness, serving-bench queue bounds.
fn flagship_pool(replicas: usize, max_depth: usize) -> ReplicaPool {
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Functional { workers: 1 })
        .into_pool(
            ServePolicy::default()
                .with_replicas(replicas)
                .with_fairness(Fairness::RoundRobin)
                .with_queue(
                    QueuePolicy::default()
                        .with_max_batch(256)
                        .with_max_linger(Duration::from_micros(100))
                        .with_max_depth(max_depth),
                ),
        )
        .expect("pool comes up")
}

/// Closed-loop replica scaling at the flagship shape: 8 clients keep
/// the pool saturated; returns the median goodput (tokens/s) over 5
/// samples against one long-lived pool. Each sample repeats the closed
/// loop until at least 200 ms have passed and counts every served
/// token: one loop is only about 8K tokens, and samples that short
/// spread up to 2× between runs of the same code.
fn replica_pool_tokens_per_sec(replicas: usize) -> f64 {
    let pool = flagship_pool(replicas, 4096);
    let scenario = LoadScenario {
        clients: 8,
        tokens_per_request: 64,
        mode: LoadMode::Closed {
            requests_per_client: 16,
        },
        seed: 11,
    };
    let rate = median_rate(5, || {
        let start = Instant::now();
        let mut served = 0;
        while start.elapsed() < Duration::from_millis(200) {
            let report = drive(&pool, &scenario);
            assert_eq!(report.rejected_requests, 0, "closed loop never rejects");
            served += report.served_tokens;
        }
        served
    });
    pool.shutdown();
    rate
}

/// A flagship-shaped pool of chaos-wrapped functional replicas: every
/// replica draws deterministic faults — seeded transient errors plus
/// one forced crash — from one shared schedule, and the recovery
/// policy retries and respawns through them.
fn chaos_pool(replicas: usize, chaos: ChaosConfig, max_depth: usize) -> ReplicaPool {
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    let state = ChaosState::new();
    let recipes = (0..replicas)
        .map(|_| {
            let cfg = cfg.clone();
            let program = program.clone();
            let recipe: ReplicaFactory = std::sync::Arc::new(move || {
                BackendKind::Functional { workers: 1 }.build(&cfg, program.clone())
            });
            wrap_recipe(recipe, chaos, std::sync::Arc::clone(&state))
        })
        .collect();
    ReplicaPool::from_recipes(
        ServePolicy::default()
            .with_fairness(Fairness::RoundRobin)
            .with_queue(
                QueuePolicy::default()
                    .with_max_batch(256)
                    .with_max_linger(Duration::from_micros(100))
                    .with_max_depth(max_depth),
            )
            .with_recovery(
                RecoveryPolicy::default()
                    .with_max_retries(8)
                    .with_backoff(Duration::from_micros(50))
                    .with_respawn(2),
            ),
        cfg.ns,
        recipes,
    )
    .expect("chaos pool comes up")
}

/// Closed-loop goodput through a 2-replica pool under injected faults —
/// the same scenario as the fault-free `flagship_r2` row, so the delta
/// between the two IS the price of ~15% transient failures plus one
/// replica crash. Returns (goodput tokens/s, failed share, retries,
/// respawns).
fn chaos_goodput(seed: u64) -> (f64, f64, u64, u64) {
    let chaos = ChaosConfig::default()
        .with_seed(seed)
        .with_transient_rate(0.15)
        .with_panic_on_call(5);
    let pool = chaos_pool(2, chaos, 4096);
    let report = drive(
        &pool,
        &LoadScenario {
            clients: 8,
            tokens_per_request: 64,
            mode: LoadMode::Closed {
                requests_per_client: 16,
            },
            seed: 11,
        },
    );
    let stats = pool.shutdown();
    (
        report.goodput_tokens_per_sec().unwrap_or(0.0),
        report.failed_share(),
        stats.retries(),
        stats.pool_health().restarts,
    )
}

/// Open-loop saturation probe: offer ~2x the measured closed-loop
/// capacity into a depth-bounded 2-replica pool and report what comes
/// out the other side — (offered rps, goodput tokens/s, p99 wait µs,
/// rejected share). Five 200 ms drives run against one pool at the same
/// offered rate and each figure is their median, since one drive's
/// goodput swings by up to 2× between runs of the same code.
fn replica_pool_saturation(capacity_tokens_per_sec: f64) -> (f64, f64, f64, f64) {
    let tokens_per_request = 64usize;
    let offered_rps = (2.0 * capacity_tokens_per_sec / tokens_per_request as f64).max(50.0);
    let pool = flagship_pool(2, 64);
    let reports: Vec<_> = (0..5)
        .map(|_| {
            drive(
                &pool,
                &LoadScenario {
                    clients: 8,
                    tokens_per_request,
                    mode: LoadMode::Open {
                        offered_rps,
                        duration: Duration::from_millis(200),
                    },
                    seed: 13,
                },
            )
        })
        .collect();
    pool.shutdown();
    let median = |figure: fn(&LoadReport) -> f64| {
        let mut values: Vec<f64> = reports.iter().map(figure).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("figures are finite"));
        values[values.len() / 2]
    };
    (
        offered_rps,
        median(|r| r.goodput_tokens_per_sec().unwrap_or(0.0)),
        median(|r| r.p99_wait().map_or(0.0, |d| d.as_secs_f64() * 1e6)),
        median(LoadReport::rejected_share),
    )
}

/// One full demo-CNN pipeline run: `images` submissions streamed
/// through the lowered `Network::demo` graph (functional conv stages,
/// 2 replicas each), returning end-to-end images/s plus each stage's
/// `(name, occupancy, p99 residence µs)` from the final stats.
fn pipeline_snapshot(images: usize) -> (f64, Vec<(String, f64, f64)>) {
    let net = Network::demo(42);
    let spec = net
        .to_pipeline_spec(
            BackendKind::Functional { workers: 1 },
            &StagePolicy::default().with_replicas(2),
        )
        .expect("the demo network lowers");
    let graph = PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(32))
        .expect("graph deploys");
    let inputs: Vec<Vec<f32>> = (0..images)
        .map(|i| Network::demo_image(i as u64, net.input_len()))
        .collect();
    let mut pending = Vec::with_capacity(images);
    for img in &inputs {
        loop {
            match graph.submit(img.clone()) {
                Ok(t) => break pending.push(t),
                Err(BackendError::QueueFull { .. }) => {
                    // Closed-ish loop: drain the oldest under backpressure.
                    let _ = pending.remove(0).wait();
                }
                Err(e) => panic!("pipeline submit failed: {e}"),
            }
        }
    }
    for ticket in pending {
        ticket.wait().expect("pipeline serves");
    }
    let stats = graph.shutdown();
    let occupancy = stats.stage_occupancy();
    let profiles = stats
        .stage_profiles()
        .iter()
        .zip(occupancy)
        .map(|(p, occ)| {
            let p99 = p.p99_residence().map_or(0.0, |d| d.as_secs_f64() * 1e6);
            (p.name().to_string(), occ, p99)
        })
        .collect();
    (stats.images_per_sec().unwrap_or(0.0), profiles)
}

/// The `--smoke` path: a tiny closed-loop and open-loop run through a
/// 2-replica pool, printed but never written to `results/` — enough
/// for CI to prove the serving path moves tokens.
fn smoke() {
    // Batched-kernel pass: the batched kernel bit-identical to the scalar
    // spec on a ragged (non-lane-multiple) flagship batch — the contract
    // behind the `functional_simd` rows of the full snapshot.
    {
        let cfg = MacroConfig::paper_flagship();
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
        let batch = TokenBatch::random(cfg.ns, 130, 3);
        let golden: Vec<Vec<i16>> = batch
            .tokens()
            .iter()
            .map(|t| program.reference_output(t))
            .collect();
        assert_eq!(
            program.batched().evaluate(batch.tokens()),
            golden,
            "the batched kernel diverged from the scalar spec"
        );
        println!(
            "smoke batched: the batched kernel is bit-identical to the scalar spec on {} tokens",
            batch.len()
        );
    }
    let pool = flagship_pool(2, 64);
    let closed = drive(
        &pool,
        &LoadScenario {
            clients: 4,
            tokens_per_request: 16,
            mode: LoadMode::Closed {
                requests_per_client: 4,
            },
            seed: 11,
        },
    );
    let open = drive(
        &pool,
        &LoadScenario {
            clients: 4,
            tokens_per_request: 16,
            mode: LoadMode::Open {
                offered_rps: 200.0,
                duration: Duration::from_millis(100),
            },
            seed: 13,
        },
    );
    let stats = pool.shutdown();
    assert_eq!(closed.served_requests, closed.offered_requests);
    assert_eq!(
        open.served_requests + open.rejected_requests + open.failed_requests,
        open.offered_requests
    );
    println!(
        "smoke closed: {}/{} requests served, {} tokens",
        closed.served_requests, closed.offered_requests, closed.served_tokens
    );
    println!(
        "smoke open:   {}/{} requests served, {} rejected",
        open.served_requests, open.offered_requests, open.rejected_requests
    );
    println!("smoke pool:   {stats}");
    // Chaos pass: the same closed loop through replicas injecting
    // seeded transient faults and one forced crash — every offered
    // request must still be accounted for, and the pool must have
    // actually recovered (retried or respawned), not merely survived.
    // Panicking on call 0 keeps the crash deterministic however far
    // the closed burst coalesces; a 30% transient rate rides along.
    let chaotic = chaos_pool(
        2,
        ChaosConfig::default()
            .with_seed(7)
            .with_transient_rate(0.3)
            .with_panic_on_call(0),
        64,
    );
    let faulted = drive(
        &chaotic,
        &LoadScenario {
            clients: 4,
            tokens_per_request: 16,
            mode: LoadMode::Closed {
                requests_per_client: 4,
            },
            seed: 11,
        },
    );
    let chaos_stats = chaotic.shutdown();
    assert_eq!(
        faulted.served_requests + faulted.failed_requests,
        faulted.offered_requests,
        "a closed loop never rejects; everything serves or fails"
    );
    assert!(
        faulted.served_requests > 0,
        "faults must not starve goodput"
    );
    assert!(
        chaos_stats.retries() + chaos_stats.pool_health().restarts > 0,
        "the chaos schedule injected nothing — seed or rates regressed"
    );
    println!(
        "smoke chaos:  {}/{} requests served through faults, {} retries, {} respawns",
        faulted.served_requests,
        faulted.offered_requests,
        chaos_stats.retries(),
        chaos_stats.pool_health().restarts
    );
    // Cache pass: a duplicate-heavy batch twice through a cached
    // 2-replica pool — the counters must show real hits and dedup, or
    // the cache tier stopped doing anything while staying correct.
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    let alphabet: Vec<Token> = TokenBatch::random(cfg.ns, 8, 11)
        .tokens()
        .iter()
        .map(<[_]>::to_vec)
        .collect();
    let dup_batch = TokenBatch::new(
        (0..64)
            .map(|i| alphabet[(i * 3) % alphabet.len()].clone())
            .collect(),
    )
    .expect("non-empty");
    let cached_pool = Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Cached {
            cache: CacheConfig::default(),
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        })
        .into_pool(ServePolicy::default().with_replicas(2))
        .expect("cached pool comes up");
    // Four rounds: every replica's private store sees the batch at
    // least twice, so warm hits show up alongside the dedup.
    for _ in 0..4 {
        cached_pool
            .submit(dup_batch.clone())
            .expect("accepted")
            .wait()
            .expect("served");
    }
    let pool_stats = cached_pool.shutdown();
    let cache = pool_stats.cache();
    assert!(
        cache.hits + cache.dedup > 0,
        "a duplicate-heavy batch produced no cache traffic"
    );
    assert!(cache.misses > 0);
    println!(
        "smoke cache:  {} hits, {} misses, {} deduped over {} tokens",
        cache.hits,
        cache.misses,
        cache.dedup,
        pool_stats.tokens()
    );
    // Pipeline pass: a handful of images through the lowered demo CNN,
    // checked bit-identical to the host forward — proof the dataflow
    // serving path moves whole images, not just tokens.
    let net = Network::demo(42);
    let spec = net
        .to_pipeline_spec(
            BackendKind::Functional { workers: 1 },
            &StagePolicy::default(),
        )
        .expect("the demo network lowers");
    let stages = spec.len();
    let graph = PipelineGraph::build(spec, PipelinePolicy::default().with_capacity(16))
        .expect("graph deploys");
    let smoke_images: Vec<Vec<f32>> = (0..8)
        .map(|i| Network::demo_image(i as u64, net.input_len()))
        .collect();
    let tickets: Vec<PipelineTicket> = smoke_images
        .iter()
        .map(|img| graph.submit(img.clone()).expect("within capacity"))
        .collect();
    for (img, ticket) in smoke_images.iter().zip(tickets) {
        let reply = ticket.wait().expect("pipeline serves");
        assert_eq!(
            reply.outputs,
            net.forward(img).expect("host forward"),
            "pipeline logits must be bit-identical to Network::forward"
        );
    }
    let pipe_stats = graph.shutdown();
    assert_eq!(pipe_stats.images(), 8);
    assert_eq!(pipe_stats.stage_profiles().len(), stages);
    println!(
        "smoke pipeline: {} images through {} stages, bit-identical logits",
        pipe_stats.images(),
        stages
    );
}

/// RTL-backend throughput on the small reference macro, per fidelity.
fn rtl_tokens_per_sec(fidelity: Fidelity) -> f64 {
    let cfg = MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 17);
    let batch = TokenBatch::random(cfg.ns, 64, 99);
    let mut session = Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Rtl { fidelity })
        .build()
        .expect("random program fits its own shape");
    median_rate(5, || {
        session.run(&batch).expect("batch completes");
        batch.len() as u64
    })
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let chain64 = chain_events_per_sec(64, 20_000);
    let chain512 = chain_events_per_sec(512, 4_000);
    let tree = tree_events_per_sec();
    let bus = bus_fanout_events_per_sec();
    let (macro_tokens, macro_events) = macro_tokens_per_sec();
    let (flagship_tokens, flagship_events) = macro_flagship_rates();
    // Functional-backend thread scaling is only meaningful relative to
    // the host's core count, so record it alongside the rates.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fun_w1 = scalar_tokens_per_sec(1);
    let fun_w2 = scalar_tokens_per_sec(2);
    let fun_w4 = scalar_tokens_per_sec(4);
    let simd_w1 = functional_tokens_per_sec(1);
    let simd_host = functional_tokens_per_sec(cpus);
    let shd_s1 = sharded_tokens_per_sec(1);
    let shd_s2 = sharded_tokens_per_sec(2);
    let shd_s4 = sharded_tokens_per_sec(4);
    let rtl_seq = rtl_tokens_per_sec(Fidelity::Sequential);
    let rtl_pip = rtl_tokens_per_sec(Fidelity::Pipelined);
    let (cache_cold, cache_warm, cache_hit_rate, cache_dedup) = cache_snapshot();
    let (sq_c1, _, _, _) = serving_queue_snapshot(1);
    let (sq_c4, sq_p50, sq_p99, sq_coalesced) = serving_queue_snapshot(4);
    let rp_r1 = replica_pool_tokens_per_sec(1);
    let rp_r2 = replica_pool_tokens_per_sec(2);
    let rp_r4 = replica_pool_tokens_per_sec(4);
    let (rp_offered, rp_goodput, rp_p99, rp_rejected) = replica_pool_saturation(rp_r2);
    let (ch_goodput, ch_failed, ch_retries, ch_restarts) = chaos_goodput(42);
    let (pipe_rate, pipe_stages) = pipeline_snapshot(2048);

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"maddpipe-bench-sim/v1\",");
    let _ = writeln!(
        json,
        "  \"note\": \"median rates from cargo run -p maddpipe-bench --bin bench_sim --release\","
    );
    let _ = writeln!(json, "  \"host_cpus\": {cpus},");
    let _ = writeln!(json, "  \"events_per_sec\": {{");
    let _ = writeln!(json, "    \"inverter_chain_64\": {chain64:.0},");
    let _ = writeln!(json, "    \"inverter_chain_512\": {chain512:.0},");
    let _ = writeln!(json, "    \"completion_tree_128\": {tree:.0},");
    let _ = writeln!(json, "    \"bus_fanout_16\": {bus:.0},");
    let _ = writeln!(json, "    \"macro_ndec2_ns2\": {macro_events:.0},");
    let _ = writeln!(json, "    \"macro_flagship\": {flagship_events:.0}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"tokens_per_sec\": {{");
    let _ = writeln!(json, "    \"macro_ndec2_ns2\": {macro_tokens:.1},");
    let _ = writeln!(json, "    \"macro_flagship\": {flagship_tokens:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"backend_tokens_per_sec\": {{");
    let _ = writeln!(json, "    \"functional_flagship_w1\": {fun_w1:.0},");
    let _ = writeln!(json, "    \"functional_flagship_w2\": {fun_w2:.0},");
    let _ = writeln!(json, "    \"functional_flagship_w4\": {fun_w4:.0},");
    let _ = writeln!(json, "    \"sharded_wide64_s1\": {shd_s1:.0},");
    let _ = writeln!(json, "    \"sharded_wide64_s2\": {shd_s2:.0},");
    let _ = writeln!(json, "    \"sharded_wide64_s4\": {shd_s4:.0},");
    let _ = writeln!(json, "    \"rtl_ndec2_ns2_sequential\": {rtl_seq:.1},");
    let _ = writeln!(json, "    \"rtl_ndec2_ns2_pipelined\": {rtl_pip:.1}");
    let _ = writeln!(json, "  }},");
    // The batched LUT kernel of the functional backend, against the
    // scalar `functional_flagship_w1` baseline above (which deliberately
    // still measures the one-token-at-a-time executable spec).
    let _ = writeln!(json, "  \"functional_simd\": {{");
    let _ = writeln!(json, "    \"portable_w1_tokens_per_sec\": {simd_w1:.0},");
    let _ = writeln!(json, "    \"host_cpus_tokens_per_sec\": {simd_host:.0},");
    let _ = writeln!(
        json,
        "    \"speedup_w1_vs_scalar\": {:.2}",
        simd_w1 / fun_w1
    );
    let _ = writeln!(json, "  }},");
    // The result cache tier on the repeated-patch workload: warm replay
    // rate against the uncached cold rate, with the measured hit-rate
    // and intra-batch dedup count proving the speedup is cache traffic.
    let _ = writeln!(json, "  \"cache\": {{");
    let _ = writeln!(
        json,
        "    \"repeated_patch_cold_tokens_per_sec\": {cache_cold:.0},"
    );
    let _ = writeln!(
        json,
        "    \"repeated_patch_warm_tokens_per_sec\": {cache_warm:.0},"
    );
    let _ = writeln!(json, "    \"warm_hit_rate\": {cache_hit_rate:.4},");
    let _ = writeln!(json, "    \"intra_batch_dedup_tokens\": {cache_dedup}");
    let _ = writeln!(json, "  }},");
    // The async serving queue in front of the flagship functional
    // backend: throughput at 1/4 submitter threads plus the queue-side
    // latency picture of the 4-client run.
    let _ = writeln!(json, "  \"serving_queue\": {{");
    let _ = writeln!(json, "    \"flagship_c1_tokens_per_sec\": {sq_c1:.0},");
    let _ = writeln!(json, "    \"flagship_c4_tokens_per_sec\": {sq_c4:.0},");
    let _ = writeln!(json, "    \"flagship_c4_queue_wait_p50_us\": {sq_p50:.1},");
    let _ = writeln!(json, "    \"flagship_c4_queue_wait_p99_us\": {sq_p99:.1},");
    let _ = writeln!(
        json,
        "    \"flagship_c4_mean_coalesced_tokens\": {sq_coalesced:.1}"
    );
    let _ = writeln!(json, "  }},");
    // The replica pool behind the same flagship shape: closed-loop
    // goodput as the replica count scales (8 clients, round-robin),
    // plus an open-loop probe at ~2x capacity showing saturation
    // behaviour — goodput, tail wait and the rejected share.
    let _ = writeln!(json, "  \"replica_pool\": {{");
    let _ = writeln!(json, "    \"flagship_r1_tokens_per_sec\": {rp_r1:.0},");
    let _ = writeln!(json, "    \"flagship_r2_tokens_per_sec\": {rp_r2:.0},");
    let _ = writeln!(json, "    \"flagship_r4_tokens_per_sec\": {rp_r4:.0},");
    let _ = writeln!(json, "    \"saturation_offered_rps\": {rp_offered:.0},");
    let _ = writeln!(
        json,
        "    \"saturation_goodput_tokens_per_sec\": {rp_goodput:.0},"
    );
    let _ = writeln!(json, "    \"saturation_queue_wait_p99_us\": {rp_p99:.1},");
    let _ = writeln!(json, "    \"saturation_rejected_share\": {rp_rejected:.3}");
    let _ = writeln!(json, "  }},");
    // Goodput under injected faults: the fault-free flagship_r2 row
    // re-run with ~15% seeded transient failures and one forced replica
    // crash — the gap between the two is what the recovery machinery
    // (retry + respawn) costs, and the retry/restart counts prove the
    // faults actually fired.
    let _ = writeln!(json, "  \"chaos\": {{");
    let _ = writeln!(
        json,
        "    \"flagship_r2_goodput_tokens_per_sec\": {ch_goodput:.0},"
    );
    let _ = writeln!(json, "    \"failed_share\": {ch_failed:.3},");
    let _ = writeln!(json, "    \"retries\": {ch_retries},");
    let _ = writeln!(json, "    \"respawns\": {ch_restarts}");
    let _ = writeln!(json, "  }},");
    // The demo CNN served end to end through a PipelineGraph (functional
    // conv stages, 2 replicas each): whole-image throughput plus each
    // stage's occupancy and p99 residence — where the dataflow's time
    // actually goes.
    let _ = writeln!(json, "  \"pipeline\": {{");
    let _ = writeln!(json, "    \"demo_cnn_images_per_sec\": {pipe_rate:.0},");
    let _ = writeln!(json, "    \"stages\": {{");
    let last = pipe_stages.len().saturating_sub(1);
    for (i, (name, occupancy, p99_us)) in pipe_stages.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        let _ = writeln!(
            json,
            "      \"{name}\": {{ \"occupancy\": {occupancy:.3}, \"p99_residence_us\": {p99_us:.1} }}{comma}"
        );
    }
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    println!("{json}");
    let dir = maddpipe_bench::results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("BENCH_sim.json");
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}
