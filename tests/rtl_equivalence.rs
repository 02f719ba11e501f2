//! Cross-crate integration: the event-driven netlist must be functionally
//! identical to the MADDNESS algorithm — for arbitrary programs, arbitrary
//! inputs, and operators trained on real data. All flows drive the macro
//! through the unified `Session` API.

use maddpipe::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// For random macro shapes, programs and token streams, the netlist
    /// output equals the algorithmic reference bit for bit.
    #[test]
    fn netlist_equals_algorithm(
        ndec in 1usize..=2,
        ns in 1usize..=3,
        program_seed in 0u64..1000,
        token_seed in 0u64..1000,
    ) {
        let cfg = MacroConfig::new(ndec, ns)
            .with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
        let program = MacroProgram::random(ndec, ns, program_seed);
        let mut session = Session::builder(cfg)
            .program(program.clone())
            .backend(BackendKind::Rtl { fidelity: Fidelity::Sequential })
            .build()
            .expect("program fits");
        let batch = TokenBatch::random(ns, 3, token_seed);
        let result = session.run(&batch).expect("batch completes");
        for (t, token) in batch.tokens().iter().enumerate() {
            prop_assert_eq!(&result.tokens.get(t).unwrap().outputs, &program.reference_output(token));
        }
        let rtl = session.rtl().expect("rtl backend");
        prop_assert!(rtl.simulator().violations().is_empty(),
            "violations: {:?}", rtl.simulator().violations());
    }
}

/// An operator trained on structured data drives the netlist to the exact
/// integer results of its deployed (INT8, wrapping-i16) decode path.
#[test]
fn trained_operator_matches_netlist_on_real_rows() {
    let mut rng = StdRng::seed_from_u64(31);
    let centers: Vec<Vec<f32>> = (0..8)
        .map(|_| (0..18).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    let rows: Vec<Vec<f32>> = (0..200)
        .map(|i| {
            centers[i % centers.len()]
                .iter()
                .map(|&v| v + rng.gen_range(-0.2f32..0.2))
                .collect()
        })
        .collect();
    let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
    let x = Mat::from_rows(&refs);
    let mut w = Mat::zeros(18, 3);
    for r in 0..18 {
        for c in 0..3 {
            w[(r, c)] = ((r + c * 7) % 13) as f32 / 13.0 - 0.5;
        }
    }
    let op = MaddnessMatmul::train(&x, &w, MaddnessParams::default()).expect("train");
    let program = MacroProgram::from_maddness(&op);
    let cfg = MacroConfig::new(op.out_features(), op.num_subspaces())
        .with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let mut session = Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        })
        .build()
        .expect("trained program fits");
    let picked: Vec<usize> = (0..x.rows()).step_by(37).collect();
    let picked_rows: Vec<&[f32]> = picked.iter().map(|&r| x.row(r)).collect();
    let batch = TokenBatch::from_f32_rows(&picked_rows, op.num_subspaces(), op.input_scale())
        .expect("non-empty batch");
    let result = session.run(&batch).expect("batch completes");
    for ((obs, &r), row) in result.tokens.iter().zip(&picked).zip(&picked_rows) {
        let expected = op.decode_i16_wrapping(&op.encode_quantized(&Mat::from_rows(&[row])));
        assert_eq!(obs.outputs, expected[0], "row {r}");
    }
}

/// Accumulation saturates the architectural corner: LUTs full of +127
/// through several stages still match (wrap-around semantics end to end).
#[test]
fn extreme_lut_values_wrap_identically() {
    let cfg = MacroConfig::new(1, 3).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let tree = BdtEncoder::from_parts(vec![0, 1, 2, 3], vec![0.0; 15])
        .expect("tree")
        .quantize(QuantScale::UNIT);
    for fill in [127i8, -128, -1] {
        let program = MacroProgram {
            trees: vec![tree.clone(); 3],
            luts: vec![vec![[fill; 16]]; 3],
        };
        let mut session = Session::builder(cfg.clone())
            .program(program.clone())
            .backend(BackendKind::Rtl {
                fidelity: Fidelity::Sequential,
            })
            .build()
            .expect("program fits");
        let batch = TokenBatch::random(3, 1, 5);
        let result = session.run(&batch).expect("batch completes");
        assert_eq!(
            result.tokens.get(0).unwrap().outputs,
            program.reference_output(&batch.tokens()[0]),
            "fill {fill}"
        );
        assert_eq!(
            result.tokens.get(0).unwrap().outputs[0],
            (fill as i16).wrapping_mul(3)
        );
    }
}
