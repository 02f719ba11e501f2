//! The serving-stack ladder: one 64-token flagship request pushed alone
//! through each layer's public entry point, rung by rung. A layer's tax
//! is its rung minus the rung below.
//!
//! 1. `batched`: `BatchedProgram::evaluate_into`
//! 2. `functional`: `FunctionalBackend::run_batch`
//! 3. `session`: `Session::run`
//! 4. `pool`: `submit` + `wait` on a 1-replica pool
//! 5. `pipeline`: `submit` + `wait` on a one-macro-stage `PipelineGraph`

use crate::common::{matches, median, Metrics, Outcome, Tally};
use crate::flagship::{build_pool, Inputs, TOKENS_PER_REQUEST};
use maddpipe_amm::quant::QuantScale;
use maddpipe_core::prelude::SUBVECTOR_LEN;
use maddpipe_runtime::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time each rung is timed for.
const RUNG_TIME: Duration = Duration::from_millis(300);
/// Inputs prepared per round, outside the timed calls.
const ROUND: usize = 32;

/// Median host time of one call, in ns per token. `make` prepares each
/// call's input outside the timing; `call` returns whether the output
/// was right.
fn rung<T>(tally: &mut Tally, mut make: impl FnMut() -> T, mut call: impl FnMut(T) -> bool) -> f64 {
    for _ in 0..ROUND {
        call(make());
    }
    let mut times = Vec::new();
    let start = Instant::now();
    while start.elapsed() < RUNG_TIME {
        let inputs: Vec<T> = (0..ROUND).map(|_| make()).collect();
        for input in inputs {
            let t0 = Instant::now();
            let ok = call(black_box(input));
            times.push(t0.elapsed().as_secs_f64());
            if ok {
                tally.ok();
            } else {
                tally.wrong();
            }
        }
    }
    median(&times) * 1e9 / TOKENS_PER_REQUEST as f64
}

pub fn run(seed: u64) -> Outcome {
    let inputs = Inputs::generate(seed, 1);
    let (cfg, program) = (&inputs.cfg, &inputs.program);
    let (batch, expected) = (&inputs.requests[0], &inputs.expected[0]);
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    let batched = program.batched();
    let mut out = vec![0i16; expected.len()];
    let ns = rung(
        &mut tally,
        || (),
        |()| {
            batched.evaluate_into(batch.tokens(), &mut out);
            out == *expected
        },
    );
    m.set("batched.ns_per_token", ns, "ns");

    let mut functional = FunctionalBackend::new(program.clone());
    let ns = rung(
        &mut tally,
        || (),
        |()| {
            functional
                .run_batch(batch)
                .is_ok_and(|r| matches(&r, expected))
        },
    );
    m.set("functional.ns_per_token", ns, "ns");

    let mut session = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(BackendKind::Functional { workers: 1 })
        .build()
        .expect("the flagship program fits its configuration");
    let ns = rung(
        &mut tally,
        || (),
        |()| session.run(batch).is_ok_and(|r| matches(&r, expected)),
    );
    m.set("session.ns_per_token", ns, "ns");

    // A lone request never fills a micro-batch, so the pool must not
    // linger for company.
    let policy =
        ServePolicy::default().with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO));
    let pool = build_pool(cfg, program, 1, policy, None);
    let ns = rung(
        &mut tally,
        || batch.clone(),
        |b| {
            pool.submit(b)
                .and_then(|t| t.wait())
                .is_ok_and(|r| matches(&r.result, expected))
        },
    );
    pool.shutdown();
    m.set("pool.ns_per_token", ns, "ns");

    // The request travels as floats: unit-scale quantisation restores
    // the same tokens, and the decode hands back the raw outputs.
    let width = cfg.ns * SUBVECTOR_LEN;
    let stage_ns = cfg.ns;
    let stage = MacroStage::new(
        "flagship",
        cfg,
        program.clone(),
        BackendKind::Functional { workers: 1 },
        move |x: &[f32]| {
            let rows: Vec<&[f32]> = x.chunks(width).collect();
            TokenBatch::from_f32_rows(&rows, stage_ns, QuantScale::UNIT)
        },
        |r: &BatchResult| {
            Ok(r.tokens
                .iter()
                .flat_map(|t| t.outputs.iter().map(|&v| f32::from(v)))
                .collect())
        },
    )
    .expect("the flagship program fits its configuration");
    let graph = PipelineGraph::build(
        PipelineSpec::new().macro_stage(stage),
        PipelinePolicy::default(),
    )
    .expect("the one-stage graph deploys");
    let image: Vec<f32> = batch
        .tokens()
        .iter()
        .flat_map(|t| t.iter().flatten().map(|&v| f32::from(v)))
        .collect();
    let logits: Vec<f32> = expected.iter().map(|&v| f32::from(v)).collect();
    let ns = rung(
        &mut tally,
        || image.clone(),
        |x| {
            graph
                .submit(x)
                .and_then(|t| t.wait())
                .is_ok_and(|r| r.outputs == logits)
        },
    );
    graph.shutdown();
    m.set("pipeline.ns_per_token", ns, "ns");

    Outcome { tally, metrics: m }
}
