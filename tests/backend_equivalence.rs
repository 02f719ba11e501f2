//! Cross-backend golden tests: whatever executes a batch — pure math on
//! one thread or many, the event-driven netlist driven sequentially or
//! with pipelined overlap, or the analytic model — the outputs must be
//! bit-identical for arbitrary programs and tokens. This is the contract
//! that makes the backends interchangeable inside a `Session`.

use maddpipe::prelude::*;
use proptest::prelude::*;

/// Runs `batch` through one backend kind and returns the per-token output
/// vectors.
fn outputs_of(
    cfg: &MacroConfig,
    program: &MacroProgram,
    kind: BackendKind,
    batch: &TokenBatch,
) -> Vec<Vec<i16>> {
    let mut session = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(kind)
        .build()
        .expect("program fits the configuration");
    let result = session.run(batch).expect("batch completes");
    assert_eq!(
        result.tokens.len(),
        batch.len(),
        "one observation per token"
    );
    result.tokens.into_iter().map(|t| t.outputs).collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 5,
        ..ProptestConfig::default()
    })]

    /// The golden equivalence: random programs + token batches produce
    /// identical outputs from every backend, including per-token outputs
    /// of the pipelined RTL stream (not just the final token).
    #[test]
    fn all_backends_agree_bit_for_bit(
        ndec in 1usize..=2,
        ns in 1usize..=3,
        program_seed in 0u64..1000,
        token_seed in 0u64..1000,
    ) {
        let cfg = MacroConfig::new(ndec, ns)
            .with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
        let program = MacroProgram::random(ndec, ns, program_seed);
        let batch = TokenBatch::random(ns, 4, token_seed);
        let golden: Vec<Vec<i16>> = batch
            .tokens()
            .iter()
            .map(|t| program.reference_output(t))
            .collect();
        for kind in [
            BackendKind::Functional { workers: 1 },
            BackendKind::Functional { workers: 3 },
            BackendKind::Rtl { fidelity: Fidelity::Sequential },
            BackendKind::Rtl { fidelity: Fidelity::Pipelined },
            BackendKind::Analytic,
            // One macro per decoder chain, RTL netlists on the workers —
            // the finest partition still matches the wide reference.
            BackendKind::Sharded {
                shards: ndec,
                inner: Box::new(BackendKind::Rtl { fidelity: Fidelity::Sequential }),
            },
        ] {
            let got = outputs_of(&cfg, &program, kind.clone(), &batch);
            prop_assert_eq!(&got, &golden, "{:?}", kind);
        }
    }

    /// The sharded serving contract: a wide program split across ≥2 macro
    /// shards (including widths that do not divide evenly) is pinned
    /// bit-identical, token by token, to the single-macro functional
    /// backend running the unsplit program on the same batch.
    #[test]
    fn sharded_serving_matches_the_single_macro(
        ndec in 2usize..=9,
        ns in 1usize..=3,
        shards in 2usize..=4,
        program_seed in 0u64..1000,
        token_seed in 0u64..1000,
    ) {
        let shards = shards.min(ndec); // never an empty shard; stays ≥ 2
        let cfg = MacroConfig::new(ndec, ns);
        let program = MacroProgram::random(ndec, ns, program_seed);
        let batch = TokenBatch::random(ns, 5, token_seed);
        let single = outputs_of(
            &cfg,
            &program,
            BackendKind::Functional { workers: 1 },
            &batch,
        );
        let sharded = outputs_of(
            &cfg,
            &program,
            BackendKind::Sharded {
                shards,
                inner: Box::new(BackendKind::Functional { workers: 1 }),
            },
            &batch,
        );
        prop_assert_eq!(&sharded, &single, "{} shards over {} chains", shards, ndec);
    }

    /// The batched-kernel contract: the lane kernel, at every worker
    /// count, is bit-identical to the scalar executable spec — across
    /// token counts that are not a multiple of
    /// the 64-token lane width, single tokens, and full-range `i8` inputs
    /// whose accumulations wrap the `i16` extremes.
    #[test]
    fn batched_kernels_match_the_scalar_spec(
        ndec in 1usize..=17,
        ns in 1usize..=4,
        count in 1usize..=130,
        program_seed in 0u64..1000,
        token_seed in 0u64..1000,
    ) {
        let program = MacroProgram::random(ndec, ns, program_seed);
        let batch = TokenBatch::random(ns, count, token_seed);
        let golden: Vec<Vec<i16>> = batch
            .tokens()
            .iter()
            .map(|t| program.reference_output(t))
            .collect();
        // Straight through the struct-of-arrays view…
        prop_assert_eq!(
            &program.batched().evaluate(batch.tokens()),
            &golden,
            "core with {} tokens",
            count
        );
        prop_assert_eq!(&program.reference_output_batch(batch.tokens()), &golden);
        // …and through the threaded backend, which shards lane blocks.
        for workers in [1usize, 3] {
            let mut backend = FunctionalBackend::with_workers(program.clone(), workers);
            let got = backend.run_batch(&batch).expect("batch completes");
            let got: Vec<Vec<i16>> = got.tokens.into_iter().map(|t| t.outputs).collect();
            prop_assert_eq!(
                &got,
                &golden,
                "backend with {} workers, {} tokens",
                workers,
                count
            );
        }
    }
}

/// Batched evaluation handles the degenerate shapes the serving stack can
/// produce: an empty token list (a `TokenBatch` cannot even be built
/// empty, but the core view must not mind), a single token, and wrapping
/// past both `i16` extremes on a deep hand-built program.
#[test]
fn batched_edge_cases_match_the_scalar_spec() {
    let program = MacroProgram::random(3, 2, 5);
    let view = program.batched();
    // Empty input: no outputs, no panic.
    let empty: Vec<Token> = Vec::new();
    assert!(view.evaluate(&empty).is_empty());
    // One token is a 1-wide lane.
    let one = TokenBatch::random(2, 1, 8);
    let golden = program.reference_output(&one.tokens()[0]);
    assert_eq!(view.evaluate(one.tokens()), vec![golden]);
    // Max-magnitude accumulation: 600 stages of ±extreme LUT bytes wrap
    // the 16-bit accumulators several times over; the batched kernel
    // must wrap identically to the scalar walk.
    let ns = 600;
    let tree = maddpipe::amm::bdt::BdtEncoder::from_parts(vec![0, 1, 2, 3], vec![0.0; 15])
        .expect("valid tree shape")
        .quantize(maddpipe::amm::quant::QuantScale::UNIT);
    let deep = MacroProgram {
        trees: vec![tree; ns],
        luts: vec![vec![[-128i8; K], [127i8; K]]; ns],
    };
    let batch = TokenBatch::random(ns, 70, 21);
    let golden: Vec<Vec<i16>> = batch
        .tokens()
        .iter()
        .map(|t| deep.reference_output(t))
        .collect();
    assert_eq!(golden[0][0], (-128i32 * ns as i32) as i16); // wrapped
    assert_eq!(deep.batched().evaluate(batch.tokens()), golden);
}

/// Latency observations are backend-appropriate: absent on functional,
/// measured on RTL (pipelined included), modelled on analytic — and the
/// pipelined stream reports a shorter makespan than the sequential one.
#[test]
fn observation_coverage_matches_backend_capabilities() {
    let cfg = MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let program = MacroProgram::random(2, 2, 9);
    let batch = TokenBatch::random(2, 5, 4);
    let run = |kind| {
        let mut s = Session::builder(cfg.clone())
            .program(program.clone())
            .backend(kind)
            .build()
            .expect("program fits");
        s.run(&batch).expect("batch completes")
    };
    let fun = run(BackendKind::Functional { workers: 2 });
    assert!(fun
        .tokens
        .iter()
        .all(|t| t.latency.is_none() && t.energy.is_none()));
    assert!(fun.makespan.is_none() && fun.energy.is_none());

    let seq = run(BackendKind::Rtl {
        fidelity: Fidelity::Sequential,
    });
    assert!(seq
        .tokens
        .iter()
        .all(|t| t.latency.is_some() && t.energy.is_some()));

    let pip = run(BackendKind::Rtl {
        fidelity: Fidelity::Pipelined,
    });
    assert!(pip.tokens.iter().all(|t| t.latency.is_some()));
    assert!(pip.energy.expect("batch energy").value() > 0.0);
    assert!(
        pip.makespan.expect("measured") < seq.makespan.expect("measured"),
        "pipelining must overlap stages"
    );

    let ana = run(BackendKind::Analytic);
    assert!(ana
        .tokens
        .iter()
        .all(|t| t.latency.is_some() && t.energy.is_some()));

    // Sharded over measuring shards: per-token latency is the max over
    // shard slices, energy the sum — both present, like its inners.
    let shd = run(BackendKind::Sharded {
        shards: 2,
        inner: Box::new(BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        }),
    });
    assert!(shd
        .tokens
        .iter()
        .all(|t| t.latency.is_some() && t.energy.is_some()));
    assert!(shd.makespan.is_some());
    assert!(shd.energy.expect("summed over shards").value() > 0.0);
    // The modelled forward latency tracks the measured token latency
    // within the model-vs-RTL contract's tolerance band.
    for (a, m) in ana.tokens.iter().zip(&seq.tokens) {
        let ratio = m.latency.expect("measured") / a.latency.expect("modelled");
        assert!(
            (0.5..=2.0).contains(&ratio),
            "analytic vs RTL token latency ratio {ratio:.2}"
        );
    }
}

/// Malformed batches surface as typed errors through the whole stack — the
/// session API, every backend, and the low-level testbench — instead of
/// the historical `assert!` panics.
#[test]
fn shape_errors_are_typed_everywhere() {
    let cfg = MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let program = MacroProgram::random(2, 2, 1);
    let wrong = TokenBatch::random(3, 2, 2); // 3 stages offered, 2 built
    for kind in [
        BackendKind::Functional { workers: 2 },
        BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        },
        BackendKind::Rtl {
            fidelity: Fidelity::Pipelined,
        },
        BackendKind::Analytic,
        BackendKind::Sharded {
            shards: 2,
            inner: Box::new(BackendKind::Functional { workers: 1 }),
        },
    ] {
        let mut session = Session::builder(cfg.clone())
            .program(program.clone())
            .backend(kind.clone())
            .build()
            .expect("program fits");
        assert_eq!(
            session.run(&wrong).unwrap_err(),
            BackendError::ShapeMismatch {
                token: 0,
                expected: 2,
                got: 3,
            },
            "{kind:?}"
        );
        // The session survives the rejection and still runs good batches.
        let good = TokenBatch::random(2, 1, 3);
        let result = session.run(&good).expect("recovers");
        assert_eq!(
            result.tokens[0].outputs,
            program.reference_output(&good.tokens()[0])
        );
    }
    // Empty batches cannot even be constructed.
    assert_eq!(TokenBatch::new(vec![]), Err(BackendError::EmptyBatch));
}
