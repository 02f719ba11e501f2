//! Machine-readable performance ledger: event-kernel and macro rates,
//! MADDNESS against exact GEMM, the analytic model, plus the backend and
//! serving rows the repository benchmark (`perfbench/`) does not run,
//! written to `results/BENCH_sim.json`. It is the workspace's one
//! harness for host timings.
//!
//! Every row is the nearest-rank median and quartiles of `n` samples
//! taken in one run, so a row is read against the spread of its own
//! run and against a baseline row of the same run, never against a
//! single figure of an earlier snapshot. The serving tiers `perfbench`
//! already measures (its ladder's `pool` and `pipeline` rungs,
//! `flagship_serving`, the traced `cnn_stream`) have no rows here.
//!
//! Run with `cargo run -p maddpipe-bench --bin bench_sim --release`.
//! With `--smoke` it runs only tiny correctness passes over the serving
//! path (batched kernel, closed and open loop, chaos, cache, pipeline)
//! and one flagship netlist build, and prints their counts (the build's
//! as its minor page faults) as a document of the same schema, writing
//! nothing — the CI sanity check that the serving path still moves
//! tokens.

use maddpipe_amm::prelude::{
    AmmOperator, BdtEncoder, ExactMatmul, MaddnessMatmul, MaddnessParams, Mat,
};
use maddpipe_bench::kernel_workloads::{
    bus_fanout_sim, completion_tree_sim, flagship_testbench, inverter_chain, macro_testbench,
};
use maddpipe_bench::load_gen::{drive, LoadMode, LoadScenario};
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::{AcceleratorRtl, MacroProgram};
use maddpipe_core::model::MacroModel;
use maddpipe_nn::network::Network;
use maddpipe_runtime::prelude::*;
use maddpipe_sim::prelude::*;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SCHEMA: &str = "maddpipe-bench-sim/v2";

/// One row of the ledger: the nearest-rank median and quartiles of `n`
/// samples, taken as `SessionStats` percentiles are, so every figure is
/// one of the samples.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Spread {
    median: f64,
    q1: f64,
    q3: f64,
    n: usize,
}

impl Spread {
    /// Summarises `samples`. `f64::total_cmp` also orders non-finite
    /// samples (a zero-length timing), so they cannot panic the sort.
    fn of(mut samples: Vec<f64>) -> Spread {
        assert!(!samples.is_empty(), "a row needs at least one sample");
        samples.sort_unstable_by(f64::total_cmp);
        let n = samples.len();
        let rank = |p: f64| samples[((p * n as f64).ceil() as usize).clamp(1, n) - 1];
        Spread {
            median: rank(0.5),
            q1: rank(0.25),
            q3: rank(0.75),
            n,
        }
    }

    /// A figure read once, such as a count from the final stats.
    fn once(value: f64) -> Spread {
        Spread::of(vec![value])
    }
}

/// Runs `f` `n` times and summarises each of the `K` figures it returns
/// into its own row.
fn sample<const K: usize>(n: usize, mut f: impl FnMut() -> [f64; K]) -> [Spread; K] {
    let runs: Vec<[f64; K]> = (0..n).map(|_| f()).collect();
    std::array::from_fn(|k| Spread::of(runs.iter().map(|run| run[k]).collect()))
}

/// Units per second of one call of `f`, which returns how many units
/// (events, tokens) it processed.
fn rate(f: impl FnOnce() -> u64) -> f64 {
    let t0 = Instant::now();
    let units = f();
    units as f64 / t0.elapsed().as_secs_f64()
}

/// Units per second over `n` timed calls of `f`.
fn rates(n: usize, mut f: impl FnMut() -> u64) -> Spread {
    let [row] = sample(n, || [rate(&mut f)]);
    row
}

/// Tokens per second of each of `sessions` on `batch`. Every sample
/// times one run of each session in turn, so host-speed drift during a
/// run falls on the rows alike and their ratios stay comparable.
fn session_rates<const K: usize>(
    n: usize,
    sessions: &mut [Session; K],
    batch: &TokenBatch,
) -> [Spread; K] {
    sample(n, || {
        sessions.each_mut().map(|session| {
            rate(|| {
                session.run(batch).expect("batch completes");
                batch.len() as u64
            })
        })
    })
}

/// Named rows, in the order they are written.
type Rows = Vec<(&'static str, Spread)>;

/// One section of a document: its name and its rows.
type Section = (&'static str, Rows);

/// Renders a `maddpipe-bench-sim/v2` document: the schema, `note` and
/// `host_cpus`, then every section's rows as `{ median, q1, q3, n }`.
fn render(note: &str, host_cpus: usize, sections: &[Section]) -> String {
    let mut out = format!(
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"note\": \"{note}\",\n  \"host_cpus\": {host_cpus}"
    );
    for (name, rows) in sections {
        let _ = write!(out, ",\n  \"{name}\": {{");
        for (i, (key, row)) in rows.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{key}\": {{ \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {} }}",
                if i == 0 { "" } else { "," },
                number(row.median),
                number(row.q1),
                number(row.q3),
                row.n
            );
        }
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// A JSON number: whole numbers and figures of at least 100 (rates,
/// microseconds) keep no decimals, smaller ones (shares) keep three.
/// JSON has no infinity or NaN, so a non-finite figure is `null`.
fn number(value: f64) -> String {
    if !value.is_finite() {
        "null".into()
    } else if value.fract() == 0.0 || value.abs() >= 100.0 {
        format!("{value:.0}")
    } else {
        format!("{value:.3}")
    }
}

fn chain_events_per_sec(n: usize, toggles: u64) -> Spread {
    let (mut sim, input, _) = inverter_chain(n);
    sim.poke(input, Logic::Low);
    sim.run_to_quiescence().expect("settle");
    let mut level = Logic::High;
    rates(7, || {
        let e0 = sim.stats().events_popped;
        for _ in 0..toggles {
            sim.poke(input, level);
            level = !level;
            sim.run_to_quiescence().expect("propagate");
        }
        sim.stats().events_popped - e0
    })
}

fn tree_events_per_sec() -> Spread {
    let (mut sim, inputs) = completion_tree_sim();
    for &i in &inputs {
        sim.poke(i, Logic::Low);
    }
    sim.run_to_quiescence().expect("settle");
    let mut high = true;
    rates(7, || {
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

fn bus_fanout_events_per_sec() -> Spread {
    let (mut sim, bus) = bus_fanout_sim();
    sim.poke_bus(&bus, 0);
    sim.run_to_quiescence().expect("settle");
    let mut pattern: u64 = 0xA5A5;
    rates(7, || {
        let e0 = sim.stats().events_popped;
        for _ in 0..20_000 {
            sim.poke_bus(&bus, pattern & 0xFFFF);
            pattern = !pattern;
            sim.run_to_quiescence().expect("propagate");
        }
        sim.stats().events_popped - e0
    })
}

/// Tokens and events per second through an `ndec` × `ns` macro at
/// 0.8 V TTG, 64 tokens one at a time through `run_token` per sample.
fn macro_rates(ndec: usize, ns: usize) -> [Spread; 2] {
    let (mut rtl, tokens) = macro_testbench(ndec, ns);
    let mut k = 0usize;
    sample(5, || {
        let e0 = rtl.simulator().stats().events_popped;
        let t0 = Instant::now();
        for _ in 0..64 {
            rtl.run_token(&tokens[k % tokens.len()])
                .expect("token completes");
            k += 1;
        }
        let secs = t0.elapsed().as_secs_f64();
        let events = rtl.simulator().stats().events_popped - e0;
        [64.0 / secs, events as f64 / secs]
    })
}

/// Tokens and events per second through the paper-flagship netlist, the
/// cache-heavy case of the event kernel: 32 tokens streamed through
/// `run_pipelined` per sample, after one untimed warm-up stream.
fn flagship_rates() -> [Spread; 2] {
    let (mut rtl, tokens) = flagship_testbench();
    rtl.run_pipelined(&tokens).expect("stream completes");
    sample(5, || {
        let e0 = rtl.simulator().stats().events_popped;
        let t0 = Instant::now();
        rtl.run_pipelined(&tokens).expect("stream completes");
        let secs = t0.elapsed().as_secs_f64();
        let events = rtl.simulator().stats().events_popped - e0;
        [tokens.len() as f64 / secs, events as f64 / secs]
    })
}

/// Minor page faults this process has taken so far: `minflt`, the
/// tenth field of `/proc/self/stat`. NaN (written `null`) where that
/// file cannot be read.
fn minor_faults() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesised command name start at the
            // third, the state; `minflt` is the eighth of them.
            let (_, fields) = stat.rsplit_once(')')?;
            fields.split_whitespace().nth(7)?.parse::<u64>().ok()
        })
        .map_or(f64::NAN, |faults| faults as f64)
}

/// Builds one netlist and drops it: the build's milliseconds and the
/// minor page faults it took (the OS mapping fresh pages for its tables).
/// Dropping the netlist is not counted.
fn build_cost(cfg: &MacroConfig, program: &MacroProgram) -> [f64; 2] {
    let faults = minor_faults();
    let t0 = Instant::now();
    let rtl = AcceleratorRtl::build(cfg, program);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let faults = minor_faults() - faults;
    drop(rtl);
    [ms, faults]
}

/// Milliseconds to build a netlist (construct, seal, compile and the
/// power-up settle), for the flagship, the small reference macro and a
/// 4 × 8 macro, sampled in turn, and the minor page faults of each
/// flagship build. A build is what every corner, mismatch sample, RTL
/// session and replica respawn pays.
fn netlist_build_rows() -> Rows {
    let (cfg, program) = flagship();
    let nominal =
        |ndec, ns| MacroConfig::new(ndec, ns).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let (small_cfg, small_program) = (nominal(2, 2), MacroProgram::random(2, 2, 7));
    let (mid_cfg, mid_program) = (nominal(4, 8), MacroProgram::random(4, 8, 3));
    let [flagship, flagship_faults, small, mid] = sample(7, || {
        let [flagship_ms, flagship_faults] = build_cost(&cfg, &program);
        [
            flagship_ms,
            flagship_faults,
            build_cost(&small_cfg, &small_program)[0],
            build_cost(&mid_cfg, &mid_program)[0],
        ]
    });
    vec![
        ("flagship_ms", flagship),
        ("flagship_minor_faults", flagship_faults),
        ("macro_ndec2_ns2_ms", small),
        ("macro_ndec4_ns8_ms", mid),
    ]
}

/// A deterministic `n` × `d` calibration matrix with entries in [−1, 1].
fn calibration(n: usize, d: usize) -> Mat {
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| (((i * 31 + j * 17) % 23) as f32 - 11.0) / 11.0)
                .collect()
        })
        .collect();
    let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    Mat::from_rows(&refs)
}

/// MADDNESS against exact GEMM on the host, the software view of the
/// paper's premise that table lookups replace multiplications: at the
/// flagship macro's shape (d = 32 channels × 9 = 288 inputs, 16 outputs)
/// the int8 LUT matmul, its encode step alone and the exact product, in
/// rows per second over 8 calls on 512 rows, sampled in turn; then the
/// milliseconds to train a 4-level BDT encoder on 256 and on 1,024 rows
/// of 9 features, sampled in turn.
fn amm_rows() -> Rows {
    let d = 32 * 9;
    let x = calibration(512, d);
    let mut w = Mat::zeros(d, 16);
    for r in 0..d {
        for c in 0..16 {
            w[(r, c)] = (((r * 7 + c * 13) % 19) as f32 - 9.0) / 9.0;
        }
    }
    let op = MaddnessMatmul::train(&x, &w, MaddnessParams::default()).expect("MADDNESS trains");
    let exact = ExactMatmul::new(w);
    let rows_per_sec = |f: &dyn Fn()| {
        rate(|| {
            for _ in 0..8 {
                f();
            }
            8 * x.rows() as u64
        })
    };
    let [int8, encode, gemm] = sample(7, || {
        [
            rows_per_sec(&|| {
                black_box(op.matmul(&x));
            }),
            rows_per_sec(&|| {
                black_box(op.encode_quantized(&x));
            }),
            rows_per_sec(&|| {
                black_box(exact.apply(&x));
            }),
        ]
    });
    let data = [calibration(256, 9), calibration(1024, 9)];
    let [bdt256, bdt1024] = sample(7, || {
        data.each_ref().map(|data| {
            let t0 = Instant::now();
            black_box(BdtEncoder::train(data, 4).expect("the BDT trains"));
            t0.elapsed().as_secs_f64() * 1e3
        })
    });
    vec![
        ("maddness_int8_rows_per_sec", int8),
        ("maddness_encode_only_rows_per_sec", encode),
        ("exact_gemm_rows_per_sec", gemm),
        ("bdt_train_rows256_ms", bdt256),
        ("bdt_train_rows1024_ms", bdt1024),
    ]
}

/// Microseconds per flagship `MacroModel` evaluation (construction
/// included), the fast path every sweep takes, over 1,000 calls per
/// sample.
fn analytic_model_rows() -> Rows {
    let cfg = MacroConfig::paper_flagship();
    let [evaluate] = sample(7, || {
        let t0 = Instant::now();
        for _ in 0..1000 {
            black_box(MacroModel::new(cfg.clone()).evaluate());
        }
        [t0.elapsed().as_secs_f64() * 1e6 / 1000.0]
    });
    vec![("flagship_evaluate_us", evaluate)]
}

/// The flagship shape and the random program every flagship row serves.
fn flagship() -> (MacroConfig, MacroProgram) {
    let cfg = MacroConfig::paper_flagship();
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    (cfg, program)
}

/// Functional-backend throughput at the flagship shape on one worker
/// and on `host_cpus` workers, sampled in turn. Beside `replica_pool`'s
/// r1/r2 rows this is the other way to use cores, so the two scaling
/// axes are compared in one run.
fn functional_workers_rows(host_cpus: usize) -> Rows {
    let (cfg, program) = flagship();
    let batch = TokenBatch::random(cfg.ns, 1024, 11);
    let mut backends =
        [1, host_cpus].map(|workers| FunctionalBackend::with_workers(program.clone(), workers));
    let [w1, host] = sample(7, || {
        backends.each_mut().map(|backend| {
            rate(|| {
                backend.run_batch(&batch).expect("batch completes");
                batch.len() as u64
            })
        })
    });
    vec![
        ("w1_tokens_per_sec", w1),
        ("host_cpus_tokens_per_sec", host),
    ]
}

/// Sharded-backend throughput on a wide layer (64 decoder chains = 4×
/// the flagship macro width) split across 1, 2 and 4 functional macro
/// instances, then RTL-backend throughput on the small reference macro
/// at both fidelities, each group sampled in turn. The shards run one
/// after another on the calling thread, so the sharded rows measure the
/// cost of splitting and reassembling, not parallel speedup: more
/// shards never use more cores.
fn backend_rows() -> Rows {
    let cfg = MacroConfig::new(64, MacroConfig::paper_flagship().ns);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
    let mut sharded = [1, 2, 4].map(|shards| {
        Session::builder(cfg.clone())
            .program(program.clone())
            .backend(BackendKind::Sharded {
                shards,
                inner: Box::new(BackendKind::Functional { workers: 1 }),
            })
            .build()
            .expect("random program fits its own shape")
    });
    let [s1, s2, s4] = session_rates(7, &mut sharded, &TokenBatch::random(cfg.ns, 512, 11));
    let cfg = MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 17);
    let mut rtl = [Fidelity::Sequential, Fidelity::Pipelined].map(|fidelity| {
        Session::builder(cfg.clone())
            .program(program.clone())
            .backend(BackendKind::Rtl { fidelity })
            .build()
            .expect("random program fits its own shape")
    });
    let [sequential, pipelined] = session_rates(5, &mut rtl, &TokenBatch::random(cfg.ns, 64, 99));
    vec![
        ("sharded_wide64_s1", s1),
        ("sharded_wide64_s2", s2),
        ("sharded_wide64_s4", s4),
        ("rtl_ndec2_ns2_sequential", sequential),
        ("rtl_ndec2_ns2_pipelined", pipelined),
    ]
}

/// The content-addressed result cache on a repeated-patch workload: a
/// 1024-token batch drawn from a 32-token alphabet (flat image regions
/// re-emitting the same im2col windows) at the flagship shape. Cold is
/// the plain functional backend on that batch; warm is a `CachedBackend`
/// replaying it after one fill pass; the two are sampled in turn. The
/// final hit-rate and intra-batch dedup count prove the warm rate comes
/// from real cache traffic.
fn cache_rows() -> Rows {
    let (cfg, program) = flagship();
    let alphabet: Vec<Token> = TokenBatch::random(cfg.ns, 32, 11)
        .tokens()
        .iter()
        .map(<[_]>::to_vec)
        .collect();
    let tokens: Vec<Token> = (0..1024)
        .map(|i| alphabet[(i * 7) % alphabet.len()].clone())
        .collect();
    let batch = TokenBatch::new(tokens).expect("non-empty");
    let functional = BackendKind::Functional { workers: 1 };
    let cached = BackendKind::Cached {
        cache: CacheConfig::default(),
        inner: Box::new(functional.clone()),
    };
    let mut sessions = [functional, cached].map(|kind| {
        Session::builder(cfg.clone())
            .program(program.clone())
            .backend(kind)
            .build()
            .expect("random program fits its own shape")
    });
    sessions[1].run(&batch).expect("fill pass completes");
    let [cold, warm] = session_rates(7, &mut sessions, &batch);
    let cache = sessions[1].stats().cache();
    vec![
        ("repeated_patch_cold_tokens_per_sec", cold),
        ("repeated_patch_warm_tokens_per_sec", warm),
        (
            "warm_hit_rate",
            Spread::once(cache.hit_rate().unwrap_or(0.0)),
        ),
        ("intra_batch_dedup_tokens", Spread::once(cache.dedup as f64)),
    ]
}

/// Round-robin fairness and the serving rows' queue bounds (256-token
/// micro-batches, 100 µs linger), shared by the fault-free and the chaos
/// pools so that the chaos row prices the faults alone.
fn serve_policy(replicas: usize, max_depth: usize) -> ServePolicy {
    ServePolicy::default()
        .with_replicas(replicas)
        .with_fairness(Fairness::RoundRobin)
        .with_queue(
            QueuePolicy::default()
                .with_max_batch(256)
                .with_max_linger(Duration::from_micros(100))
                .with_max_depth(max_depth),
        )
}

/// A flagship-shaped replica pool over single-worker functional
/// replicas.
fn flagship_pool(replicas: usize, max_depth: usize) -> ReplicaPool {
    let (cfg, program) = flagship();
    Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Functional { workers: 1 })
        .into_pool(serve_policy(replicas, max_depth))
        .expect("pool comes up")
}

/// A flagship-shaped 2-replica pool of chaos-wrapped functional
/// replicas: both draw deterministic faults — seeded transient errors
/// plus one forced crash — from one shared schedule, and the recovery
/// policy retries and respawns through them.
fn chaos_pool(chaos: ChaosConfig, max_depth: usize) -> ReplicaPool {
    let (cfg, program) = flagship();
    let state = ChaosState::new();
    let recipes = (0..2)
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
        serve_policy(2, max_depth).with_recovery(
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

/// A closed loop of `clients` clients, each with `requests` requests of
/// `tokens` tokens in flight.
fn closed_loop(clients: usize, requests: usize, tokens: usize) -> LoadScenario {
    LoadScenario {
        clients,
        tokens_per_request: tokens,
        mode: LoadMode::Closed {
            requests_per_client: requests,
        },
        seed: 11,
    }
}

/// One sample of the replica-scaling and chaos rows: a closed loop of 8
/// clients with 16 requests of 64 tokens each, re-driven on `pool` until
/// at least 200 ms have passed, since one loop is only about 8K tokens
/// and samples that short spread up to 2× between runs of the same code.
/// The requests are built once, before the clock starts. Returns the
/// goodput (tokens/s) and the failed share of requests.
fn closed_loop_sample(pool: &ReplicaPool) -> [f64; 2] {
    let load = closed_loop(8, 16, 64).load(pool.ns());
    let start = Instant::now();
    let (mut served, mut offered, mut failed) = (0, 0, 0);
    while start.elapsed() < Duration::from_millis(200) {
        let report = drive(pool, &load);
        assert_eq!(report.rejected_requests, 0, "a closed loop never rejects");
        served += report.served_tokens;
        offered += report.offered_requests;
        failed += report.failed_requests;
    }
    [
        served as f64 / start.elapsed().as_secs_f64(),
        failed as f64 / offered as f64,
    ]
}

/// Closed-loop goodput of a fault-free 1- and 2-replica flagship pool,
/// sampled in turn against two long-lived pools; then an open-loop
/// saturation probe that offers ~2× the 2-replica goodput into a
/// depth-bounded 2-replica pool (five 200 ms drives against one pool):
/// the offered rate, goodput, p99 queue wait and rejected share.
fn replica_pool_rows() -> Rows {
    let pools = [1, 2].map(|replicas| flagship_pool(replicas, 4096));
    let [r1, r2] = sample(5, || {
        pools.each_ref().map(|pool| closed_loop_sample(pool)[0])
    });
    for pool in pools {
        pool.shutdown();
    }
    let offered_rps = (2.0 * r2.median / 64.0).max(50.0);
    let pool = flagship_pool(2, 64);
    let load = LoadScenario {
        clients: 8,
        tokens_per_request: 64,
        mode: LoadMode::Open {
            offered_rps,
            duration: Duration::from_millis(200),
        },
        seed: 13,
    }
    .load(pool.ns());
    let [goodput, p99_wait_us, rejected] = sample(5, || {
        let report = drive(&pool, &load);
        [
            report.goodput_tokens_per_sec().unwrap_or(0.0),
            report.p99_wait().map_or(0.0, |d| d.as_secs_f64() * 1e6),
            report.rejected_share(),
        ]
    });
    pool.shutdown();
    vec![
        ("flagship_r1_tokens_per_sec", r1),
        ("flagship_r2_tokens_per_sec", r2),
        ("saturation_offered_rps", Spread::once(offered_rps)),
        ("saturation_goodput_tokens_per_sec", goodput),
        ("saturation_queue_wait_p99_us", p99_wait_us),
        ("saturation_rejected_share", rejected),
    ]
}

/// The `flagship_r2` closed loop under ~15% seeded transient failures
/// and one forced replica crash, so its gap to that row is what retry
/// and respawn cost. Each of the 5 samples runs a fresh pool, so every
/// sample pays the crash.
fn chaos_rows() -> Rows {
    let chaos = ChaosConfig::default()
        .with_seed(42)
        .with_transient_rate(0.15)
        .with_panic_on_call(5);
    let [goodput, failed, retries, respawns] = sample(5, || {
        let pool = chaos_pool(chaos, 4096);
        let [goodput, failed] = closed_loop_sample(&pool);
        let stats = pool.shutdown();
        [
            goodput,
            failed,
            stats.retries() as f64,
            stats.pool_health().restarts as f64,
        ]
    });
    vec![
        ("flagship_r2_goodput_tokens_per_sec", goodput),
        ("failed_share", failed),
        ("retries", retries),
        ("respawns", respawns),
    ]
}

/// The full ledger, in the order it is measured and written.
fn ledger(host_cpus: usize) -> Vec<Section> {
    let [macro_tokens, macro_events] = macro_rates(2, 2);
    let [mid_tokens, mid_events] = macro_rates(4, 8);
    let [flagship_tokens, flagship_events] = flagship_rates();
    vec![
        (
            "events_per_sec",
            vec![
                ("inverter_chain_64", chain_events_per_sec(64, 20_000)),
                ("inverter_chain_512", chain_events_per_sec(512, 4_000)),
                ("completion_tree_128", tree_events_per_sec()),
                ("bus_fanout_16", bus_fanout_events_per_sec()),
                ("macro_ndec2_ns2", macro_events),
                ("macro_ndec4_ns8", mid_events),
                ("macro_flagship", flagship_events),
            ],
        ),
        (
            "tokens_per_sec",
            vec![
                ("macro_ndec2_ns2", macro_tokens),
                ("macro_ndec4_ns8", mid_tokens),
                ("macro_flagship", flagship_tokens),
            ],
        ),
        ("netlist_build", netlist_build_rows()),
        ("amm", amm_rows()),
        ("analytic_model", analytic_model_rows()),
        ("backend_tokens_per_sec", backend_rows()),
        ("functional_workers", functional_workers_rows(host_cpus)),
        ("cache", cache_rows()),
        ("replica_pool", replica_pool_rows()),
        ("chaos", chaos_rows()),
    ]
}

/// The `--smoke` passes, each checked and reported as counts read once:
/// enough for CI to prove the serving path moves tokens.
fn smoke() -> Vec<Section> {
    let count = |value: u64| Spread::once(value as f64);
    // Batched-kernel pass: the batched kernel bit-identical to the scalar
    // spec on a ragged (non-lane-multiple) flagship batch.
    let (cfg, program) = flagship();
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
    // Netlist pass: the page faults of one flagship build.
    let [_, flagship_faults] = build_cost(&cfg, &program);
    // A tiny closed loop and open loop through a 2-replica pool.
    let pool = flagship_pool(2, 64);
    let closed = drive(&pool, &closed_loop(4, 4, 16).load(pool.ns()));
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
        }
        .load(pool.ns()),
    );
    pool.shutdown();
    assert_eq!(closed.served_requests, closed.offered_requests);
    assert_eq!(
        open.served_requests + open.rejected_requests + open.failed_requests,
        open.offered_requests
    );
    // Chaos pass: the same closed loop through replicas injecting
    // seeded transient faults and one forced crash — every offered
    // request must still be accounted for, and the pool must have
    // actually recovered (retried or respawned), not merely survived.
    // Panicking on call 0 keeps the crash deterministic however far
    // the closed burst coalesces; a 30% transient rate rides along.
    let chaotic = chaos_pool(
        ChaosConfig::default()
            .with_seed(7)
            .with_transient_rate(0.3)
            .with_panic_on_call(0),
        64,
    );
    let faulted = drive(&chaotic, &closed_loop(4, 4, 16).load(chaotic.ns()));
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
    // Cache pass: a duplicate-heavy batch twice through a cached
    // 2-replica pool — the counters must show real hits and dedup, or
    // the cache tier stopped doing anything while staying correct.
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
    vec![
        (
            "batched",
            vec![("bit_identical_tokens", count(batch.len() as u64))],
        ),
        (
            "closed_loop",
            vec![
                ("offered_requests", count(closed.offered_requests)),
                ("served_requests", count(closed.served_requests)),
                ("served_tokens", count(closed.served_tokens)),
            ],
        ),
        (
            "open_loop",
            vec![
                ("offered_requests", count(open.offered_requests)),
                ("served_requests", count(open.served_requests)),
                ("rejected_requests", count(open.rejected_requests)),
            ],
        ),
        (
            "chaos",
            vec![
                ("offered_requests", count(faulted.offered_requests)),
                ("served_requests", count(faulted.served_requests)),
                ("retries", count(chaos_stats.retries())),
                ("respawns", count(chaos_stats.pool_health().restarts)),
            ],
        ),
        (
            "cache",
            vec![
                ("tokens", count(pool_stats.tokens())),
                ("hits", count(cache.hits)),
                ("misses", count(cache.misses)),
                ("dedup", count(cache.dedup)),
            ],
        ),
        (
            "pipeline",
            vec![
                ("images", count(pipe_stats.images())),
                ("stages", count(stages as u64)),
            ],
        ),
        (
            "netlist_build",
            vec![("flagship_minor_faults", Spread::once(flagship_faults))],
        ),
    ]
}

fn main() {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if std::env::args().any(|a| a == "--smoke") {
        let note = "bench_sim --smoke: counts of one pass each; writes nothing";
        print!("{}", render(note, host_cpus, &smoke()));
        return;
    }
    let note = "nearest-rank median and quartiles of n samples per row, \
                from cargo run -p maddpipe-bench --bin bench_sim --release";
    let json = render(note, host_cpus, &ledger(host_cpus));
    print!("{json}");
    let dir = maddpipe_bench::results_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("BENCH_sim.json");
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(median: f64, q1: f64, q3: f64, n: usize) -> Spread {
        Spread { median, q1, q3, n }
    }

    #[test]
    fn rows_take_nearest_ranks() {
        // Odd n = 5: ranks 2, 3 and 4.
        assert_eq!(
            Spread::of(vec![5.0, 1.0, 4.0, 2.0, 3.0]),
            spread(3.0, 2.0, 4.0, 5)
        );
        // Even n = 4: ranks 1, 2 and 3, so the median is the lower middle.
        assert_eq!(
            Spread::of(vec![40.0, 30.0, 10.0, 20.0]),
            spread(20.0, 10.0, 30.0, 4)
        );
        // Odd n = 7: ranks 2, 4 and 6.
        assert_eq!(
            Spread::of((1..=7).rev().map(f64::from).collect()),
            spread(4.0, 2.0, 6.0, 7)
        );
        assert_eq!(Spread::of(vec![9.5]), spread(9.5, 9.5, 9.5, 1));
        assert_eq!(Spread::once(9.5), spread(9.5, 9.5, 9.5, 1));
    }

    #[test]
    fn the_sampler_summarises_each_figure_on_its_own() {
        let mut k = 0.0;
        let [up, down] = sample(3, || {
            k += 1.0;
            [k, -k]
        });
        assert_eq!(up, spread(2.0, 1.0, 3.0, 3));
        assert_eq!(down, spread(-2.0, -3.0, -1.0, 3));
        let mut calls = 0;
        let rate = rates(5, || {
            calls += 1;
            1
        });
        assert_eq!((calls, rate.n), (5, 5));
        assert!(rate.q1 <= rate.median && rate.median <= rate.q3);
    }

    #[test]
    fn a_zero_length_timing_does_not_panic() {
        // Units over a zero-length timing are infinite, and none over it
        // NaN, of either sign: x86 produces a negative one.
        let row = Spread::of(vec![f64::INFINITY, 2.0, f64::NAN, -f64::NAN, 3.0]);
        assert_eq!((row.q1, row.median, row.n), (2.0, 3.0, 5));
        assert_eq!(row.q3, f64::INFINITY);
        let doc = render("t", 1, &[("s", vec![("r", row)])]);
        assert!(
            doc.contains("\"r\": { \"median\": 3, \"q1\": 2, \"q3\": null, \"n\": 5 }"),
            "{doc}"
        );
    }

    #[test]
    fn a_document_keeps_insertion_order_and_no_trailing_comma() {
        let doc = render(
            "fixture",
            2,
            &[
                (
                    "zeta",
                    vec![
                        ("rate", Spread::of(vec![1_234_567.8, 1_000_000.0, 2e6])),
                        ("share", Spread::once(0.6621)),
                    ],
                ),
                ("alpha", vec![("count", Spread::once(32.0))]),
            ],
        );
        assert_eq!(
            doc,
            "{\n  \"schema\": \"maddpipe-bench-sim/v2\",\n  \"note\": \"fixture\",\n  \
             \"host_cpus\": 2,\n  \"zeta\": {\n    \
             \"rate\": { \"median\": 1234568, \"q1\": 1000000, \"q3\": 2000000, \"n\": 3 },\n    \
             \"share\": { \"median\": 0.662, \"q1\": 0.662, \"q3\": 0.662, \"n\": 1 }\n  },\n  \
             \"alpha\": {\n    \
             \"count\": { \"median\": 32, \"q1\": 32, \"q3\": 32, \"n\": 1 }\n  }\n}\n"
        );
    }
}
