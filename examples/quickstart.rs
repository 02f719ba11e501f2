//! Quickstart: train a MADDNESS operator, program the accelerator, and run
//! the same token batch through two execution backends of the unified
//! `Session` API — the event-driven netlist and the threaded functional
//! evaluator — confirming the silicon-level result is bit-identical to
//! the algorithm.
//!
//! Run with: `cargo run --example quickstart --release`

use maddpipe::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // ── 1. A matrix-multiplication workload ────────────────────────────
    // 2 subspaces × 9 dims = 18 input features, 4 output features. The
    // rows carry cluster structure (as real activations do) — product
    // quantisation exploits exactly that.
    let mut rng = StdRng::seed_from_u64(7);
    let centers: Vec<Vec<f32>> = (0..12)
        .map(|_| (0..18).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect();
    let rows: Vec<Vec<f32>> = (0..400)
        .map(|i| {
            let c = &centers[i % centers.len()];
            c.iter().map(|&v| v + rng.gen_range(-0.3f32..0.3)).collect()
        })
        .collect();
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    let x = Mat::from_rows(&refs);
    let mut w = Mat::zeros(18, 4);
    for r in 0..18 {
        for c in 0..4 {
            w[(r, c)] = ((r * 3 + c * 5) % 11) as f32 / 11.0 - 0.5;
        }
    }

    // ── 2. Train the MADDNESS operator (hash trees + INT8 LUTs) ────────
    let op = MaddnessMatmul::train(&x, &w, MaddnessParams::default()).expect("training");
    let exact = x.matmul(&w);
    let approx = op.matmul(&x);
    println!(
        "MADDNESS approximation: NMSE {:.4} over {} rows ({} subspaces × {} prototypes)",
        nmse(&exact, &approx),
        x.rows(),
        op.num_subspaces(),
        op.num_prototypes()
    );

    // ── 3. Program the accelerator and open an inference session ───────
    let cfg = MacroConfig::new(op.out_features(), op.num_subspaces())
        .with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let program = MacroProgram::from_maddness(&op);
    let mut rtl_session = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(BackendKind::Rtl {
            fidelity: Fidelity::Pipelined,
        })
        .build()
        .expect("program fits the configuration");
    println!(
        "built macro: {} (cells: {}, nets: {})",
        cfg,
        rtl_session
            .rtl()
            .expect("rtl backend")
            .simulator()
            .circuit()
            .cell_count(),
        rtl_session
            .rtl()
            .expect("rtl backend")
            .simulator()
            .circuit()
            .net_count()
    );

    // Quantise ten calibration rows into one token batch and stream them
    // through the self-synchronous pipeline with overlap.
    let n_tokens = 10;
    let rows10: Vec<&[f32]> = (0..n_tokens).map(|t| x.row(t)).collect();
    let batch = TokenBatch::from_f32_rows(&rows10, op.num_subspaces(), op.input_scale())
        .expect("non-empty batch");
    let result = rtl_session.run(&batch).expect("batch completes");
    let mut exact_matches = 0;
    for (t, obs) in result.tokens.iter().enumerate() {
        let reference = op.decode_i16_wrapping(&op.encode_quantized(&Mat::from_rows(&[x.row(t)])));
        if obs.outputs == reference[0] {
            exact_matches += 1;
        }
    }
    let first = result.tokens.get(0).expect("one observation per token");
    println!(
        "token 0: outputs {:?}, latency {}",
        first.outputs,
        first.latency.expect("RTL measures latency"),
    );
    println!(
        "pipelined batch: makespan {}, energy {}",
        result.makespan.expect("RTL measures time"),
        result.energy.expect("RTL measures energy"),
    );
    println!("{exact_matches}/{n_tokens} tokens bit-identical between netlist and algorithm");
    assert_eq!(exact_matches, n_tokens);

    // The same batch through the threaded functional backend — same API,
    // same bits, no netlist.
    let mut fun_session = Session::builder(cfg.clone())
        .program(program)
        .backend(BackendKind::Functional { workers: 2 })
        .build()
        .expect("program fits the configuration");
    let fun = fun_session.run(&batch).expect("batch completes");
    assert_eq!(
        fun.outputs(),
        result.outputs(),
        "backends agree bit for bit"
    );
    println!(
        "functional backend agrees on all {n_tokens} tokens; session stats: {}",
        rtl_session.stats()
    );

    // ── 4. The paper's flagship PPA ─────────────────────────────────────
    let report = MacroModel::new(
        MacroConfig::paper_flagship().with_op(OperatingPoint::new(Volts(0.5), Corner::Ttg)),
    )
    .evaluate();
    println!("\nflagship macro at 0.5 V / TTG:\n{report}");
}
