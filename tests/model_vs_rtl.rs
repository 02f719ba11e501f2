//! Consistency between the views of the machine: the closed-form PPA
//! model (which regenerates the paper's tables) and the event-driven
//! netlist (which actually computes). They share the same calibration
//! constants, so their timing must agree — this is the guard that keeps
//! the fast model honest. Both sides are driven through the unified
//! `Session` API, which also lets the analytic backend's data-dependent
//! token latencies be checked against RTL measurements directly.

use maddpipe::prelude::*;

/// A one-token batch session on the given backend; returns the token's
/// latency.
fn run_one(
    cfg: &MacroConfig,
    program: &MacroProgram,
    kind: BackendKind,
    token: Token,
) -> Option<Seconds> {
    let mut session = Session::builder(cfg.clone())
        .program(program.clone())
        .backend(kind)
        .build()
        .expect("program fits");
    let result = session
        .run(&TokenBatch::single(token))
        .expect("batch completes");
    result.tokens.get(0).expect("one token").latency
}

/// Single-block latency: analytic vs measured on the netlist, across
/// supplies and corners. The RTL carries extra gate stages (inter-level
/// inverters, strobe margins) the analytic model folds into its control
/// constant, so agreement within 25 % is the contract.
#[test]
fn block_latency_agreement_across_operating_points() {
    for (vdd, corner) in [
        (0.8, Corner::Ttg),
        (0.5, Corner::Ttg),
        (0.8, Corner::Ssg),
        (0.8, Corner::Ffg),
    ] {
        let cfg = MacroConfig::new(2, 1).with_op(OperatingPoint::new(Volts(vdd), corner));
        let model = MacroModel::new(cfg.clone());
        // Worst case: every comparator walks all 8 bits (x == thresholds).
        let tree = BdtEncoder::from_parts(vec![0, 1, 2, 3], vec![0.0; 15])
            .expect("tree")
            .quantize(QuantScale::UNIT);
        let program = MacroProgram {
            trees: vec![tree],
            luts: vec![vec![[9i8; 16], [-9i8; 16]]],
        };
        let worst = run_one(
            &cfg,
            &program,
            BackendKind::Rtl {
                fidelity: Fidelity::Sequential,
            },
            vec![[0i8; SUBVECTOR_LEN]],
        );
        // The RTL token latency includes the output-register strobe and
        // the full return-to-idle; compare against the model's block
        // forward latency plus its RCA settle allowance.
        let predicted = model.block_latency_worst().total()
            + cfg.calibration.rca_settle
                * maddpipe::tech::Technology::n22()
                    .delay_scale(cfg.op, maddpipe::tech::DriveKind::Complementary);
        let measured = worst.expect("RTL measures latency");
        let ratio = measured / predicted;
        assert!(
            (0.75..=1.60).contains(&ratio),
            "{vdd} V {corner}: RTL {measured} vs model {predicted} (ratio {ratio:.2})"
        );
    }
}

/// Data dependence: the RTL latency spread between decisive and boundary
/// inputs must match the model's best/worst encoder delta within 30 % —
/// and the analytic *backend*, which derives per-token ripple depths from
/// the same inputs, must land its spread in the same window.
#[test]
fn data_dependent_spread_agreement() {
    let cfg = MacroConfig::new(1, 1).with_op(OperatingPoint::new(Volts(0.5), Corner::Ttg));
    let model = MacroModel::new(cfg.clone());
    let tree = BdtEncoder::from_parts(vec![0, 1, 2, 3], vec![0.0; 15])
        .expect("tree")
        .quantize(QuantScale::UNIT);
    let program = MacroProgram {
        trees: vec![tree],
        luts: vec![vec![[1i8; 16]]],
    };
    let rtl_kind = BackendKind::Rtl {
        fidelity: Fidelity::Sequential,
    };
    let fast_tok: Token = vec![[100i8; SUBVECTOR_LEN]];
    let slow_tok: Token = vec![[0i8; SUBVECTOR_LEN]];
    let fast = run_one(&cfg, &program, rtl_kind.clone(), fast_tok);
    let slow = run_one(&cfg, &program, rtl_kind, slow_tok.clone());
    let measured_delta = slow.expect("measured") - fast.expect("measured");
    let predicted_delta = model.block_latency_worst().encoder - model.block_latency_best().encoder;
    let ratio = measured_delta / predicted_delta;
    assert!(
        (0.7..=1.3).contains(&ratio),
        "spread: RTL {:.2} ns vs model {:.2} ns",
        measured_delta.as_nanos(),
        predicted_delta.as_nanos()
    );
    // The analytic backend reproduces the envelope exactly: its per-token
    // latencies are built from each token's actual ripple depths. A
    // negative input differs from the zero thresholds at the offset-binary
    // MSB, so every comparator decides at depth 1 (the true best case);
    // the boundary input walks all 8 bits.
    let a_fast = run_one(
        &cfg,
        &program,
        BackendKind::Analytic,
        vec![[-100i8; SUBVECTOR_LEN]],
    );
    let a_slow = run_one(&cfg, &program, BackendKind::Analytic, slow_tok);
    let analytic_delta = a_slow.expect("modelled") - a_fast.expect("modelled");
    assert_eq!(
        analytic_delta, predicted_delta,
        "decisive vs boundary inputs span the full encoder envelope"
    );
}

/// Both views agree that the decoder dominates energy (Fig. 7 A).
#[test]
fn decoder_energy_dominance_in_both_views() {
    let cfg = MacroConfig::new(4, 2).with_op(OperatingPoint::new(Volts(0.5), Corner::Ttg));
    let analytic = MacroModel::new(cfg.clone()).block_energy();
    assert!(analytic.decoder_fraction() > 0.9);
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 12);
    let mut session = Session::builder(cfg)
        .program(program)
        .backend(BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        })
        .build()
        .expect("program fits");
    // Meter the tokens alone, not the power-up transient.
    session
        .rtl_mut()
        .expect("rtl backend")
        .simulator_mut()
        .reset_energy();
    session
        .run(&TokenBatch::random(2, 4, 0))
        .expect("batch completes");
    let report = session
        .rtl()
        .expect("rtl backend")
        .simulator()
        .energy_report();
    let decoder = report.fraction("decoder");
    let encoder = report.fraction("encoder");
    assert!(
        decoder > 0.5 && decoder > 5.0 * encoder,
        "RTL decoder {decoder:.2} vs encoder {encoder:.2}\n{report}"
    );
}

/// The model's corner behaviour matches the RTL's: slow silicon slows the
/// measured token, fast silicon speeds it up, in the predicted direction.
#[test]
fn corner_ordering_agreement() {
    let mut latencies = Vec::new();
    for corner in [Corner::Ssg, Corner::Ttg, Corner::Ffg] {
        let cfg = MacroConfig::new(1, 1).with_op(OperatingPoint::new(Volts(0.8), corner));
        let program = MacroProgram::random(1, 1, 3);
        let obs = run_one(
            &cfg,
            &program,
            BackendKind::Rtl {
                fidelity: Fidelity::Sequential,
            },
            vec![[5i8; SUBVECTOR_LEN]],
        );
        latencies.push(obs.expect("RTL measures latency"));
    }
    assert!(
        latencies[0] > latencies[1] && latencies[1] > latencies[2],
        "SSG {} > TTG {} > FFG {}",
        latencies[0],
        latencies[1],
        latencies[2]
    );
}
