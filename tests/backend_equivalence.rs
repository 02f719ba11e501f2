//! Cross-backend golden tests: whatever executes a batch — pure math on
//! one thread or many, the event-driven netlist driven sequentially or
//! with pipelined overlap, or the analytic model — the outputs must be
//! bit-identical for arbitrary programs and tokens. This is the contract
//! that makes the backends interchangeable inside a `Session`.

use maddpipe::amm::bdt::BdtEncoder;
use maddpipe::amm::quant::QuantScale;
use maddpipe::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::catch_unwind;

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
    result.tokens.iter().map(|t| t.outputs.to_vec()).collect()
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
}

/// A program whose stages have trees of 1–6 levels, with random split
/// dimensions, thresholds and LUT bytes. The kernel pads the shallower
/// trees to the hardware's 4 levels and runs the deeper ones behind a
/// left-spine guard. Half the deep trees get spine thresholds of 127,
/// which only an input of 127 meets, so their batches often stay inside
/// the 16-entry LUT instead of almost always leaving it.
fn program_of_any_depth(ndec: usize, ns: usize, seed: u64) -> MacroProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let trees = (0..ns)
        .map(|_| {
            let levels = rng.gen_range(1usize..=6);
            let dims = (0..levels)
                .map(|_| rng.gen_range(0..SUBVECTOR_LEN))
                .collect();
            let mut thresholds: Vec<f32> = (0..(1usize << levels) - 1)
                .map(|_| rng.gen_range(-128i32..=127) as f32)
                .collect();
            if rng.gen_bool(0.5) {
                for level in 0..levels.saturating_sub(LEVELS) {
                    thresholds[(1 << level) - 1] = 127.0;
                }
            }
            BdtEncoder::from_parts(dims, thresholds)
                .expect("valid tree shape")
                .quantize(QuantScale::UNIT)
        })
        .collect();
    let luts = (0..ns)
        .map(|_| {
            (0..ndec)
                .map(|_| {
                    let mut entries = [0i8; K];
                    for e in entries.iter_mut() {
                        *e = rng.gen_range(-128i32..=127) as i8;
                    }
                    entries
                })
                .collect()
        })
        .collect();
    MacroProgram { trees, luts }
}

proptest! {
    /// The batched-kernel contract: the kernel, at every entry point and
    /// worker count, is bit-identical to the scalar executable spec —
    /// for trees of any depth from 1 to 6 levels, up to three 16-lane
    /// output groups, single tokens, and full-range `i8` inputs whose
    /// accumulations wrap the `i16` extremes. A batch that makes the spec
    /// panic (a tree walk leaving the 16-entry LUT) makes the kernel
    /// panic too, and the backend return an error.
    #[test]
    fn batched_kernels_match_the_scalar_spec(
        ndec in 1usize..=33,
        ns in 1usize..=4,
        count in 1usize..=130,
        program_seed in 0u64..1_000_000,
        token_seed in 0u64..1000,
    ) {
        let program = program_of_any_depth(ndec, ns, program_seed);
        let batch = TokenBatch::random(ns, count, token_seed);
        let tokens = batch.tokens();
        // `None` when the call panicked.
        let golden: Option<Vec<Vec<i16>>> = catch_unwind(|| {
            tokens.iter().map(|t| program.reference_output(t)).collect()
        })
        .ok();
        let view = program.batched();
        prop_assert_eq!(
            &catch_unwind(|| view.evaluate(tokens)).ok(),
            &golden,
            "core with {} tokens",
            count
        );
        // The kernel reads a list of owned tokens, a batch's flat view,
        // and a view that starts mid-buffer alike.
        let list: Vec<Token> = tokens.iter().map(<[_]>::to_vec).collect();
        let flat = catch_unwind(|| {
            let mut out = vec![0i16; count * ndec];
            view.evaluate_into(&list, &mut out);
            out
        })
        .ok();
        prop_assert_eq!(flat, golden.as_ref().map(|g| g.concat()));
        let flat = catch_unwind(|| {
            let mut out = vec![0i16; count * ndec];
            view.evaluate_into(tokens, &mut out);
            out
        })
        .ok();
        prop_assert_eq!(flat, golden.as_ref().map(|g| g.concat()));
        let part = batch.slice(count / 2..count);
        let part_golden: Option<Vec<Vec<i16>>> = catch_unwind(|| {
            part.tokens().iter().map(|t| program.reference_output(t)).collect()
        })
        .ok();
        let flat = catch_unwind(|| {
            let mut out = vec![0i16; part.len() * ndec];
            view.evaluate_into(part.tokens(), &mut out);
            out
        })
        .ok();
        prop_assert_eq!(flat, part_golden.as_ref().map(|g| g.concat()));
        prop_assert_eq!(
            &catch_unwind(|| program.reference_output_batch(tokens)).ok(),
            &golden
        );
        // The threaded backend shards token ranges and turns a worker's
        // panic into a typed error.
        for workers in [1usize, 3] {
            let mut backend = FunctionalBackend::with_workers(program.clone(), workers);
            let got = backend
                .run_batch(&batch)
                .map(|r| r.tokens.iter().map(|t| t.outputs.to_vec()).collect::<Vec<_>>());
            prop_assert!(
                got.as_ref().map_or_else(BackendError::is_transient, |_| true),
                "a panicking shard resolves as a transient error: {:?}",
                got
            );
            prop_assert_eq!(
                &got.ok(),
                &golden,
                "backend with {} workers, {} tokens",
                workers,
                count
            );
            let got = backend
                .run_batch(&part)
                .map(|r| r.tokens.iter().map(|t| t.outputs.to_vec()).collect::<Vec<_>>());
            prop_assert_eq!(
                &got.ok(),
                &part_golden,
                "backend with {} workers on tokens {}..{}",
                workers,
                count / 2,
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
            result.tokens.get(0).unwrap().outputs,
            program.reference_output(&good.tokens()[0])
        );
    }
    // Empty batches cannot even be constructed.
    assert_eq!(TokenBatch::new(vec![]), Err(BackendError::EmptyBatch));
}
