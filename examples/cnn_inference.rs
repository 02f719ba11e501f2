//! CNN inference end to end: train a ResNet9 on the synthetic CIFAR task,
//! convert it to the accelerator's MADDNESS arithmetic, check accuracy,
//! and map one convolution layer onto the macro — including running real
//! patches through the event-driven netlist.
//!
//! Run with: `cargo run --example cnn_inference --release`

use maddpipe::core::mapping::{ConvMapping, ConvShape};
use maddpipe::nn::layers::ConvExec;
use maddpipe::prelude::*;

fn main() {
    // ── 1. Train the float network ──────────────────────────────────────
    let (train_set, test_set) = synthetic_cifar(24, 12, 16, 99);
    let mut net = ResNet9::new(8, 16, 10, 11);
    let cfg = TrainConfig {
        epochs: 6,
        batch_size: 40,
        lr: 0.08,
        momentum: 0.9,
    };
    println!(
        "training ResNet9 (width 8) on {} synthetic images…",
        train_set.len()
    );
    let stats = train(&mut net, &train_set, &cfg);
    println!("{stats}");
    let float_acc = evaluate(&mut net, &test_set, 40);
    println!("float accuracy: {:.1}%", float_acc * 100.0);

    // ── 2. Substitute MADDNESS (the accelerator's arithmetic) ──────────
    let (calib, _) = train_set.batch(0, 120);
    let mut amm_net = net.clone();
    let replaced = substitute_digital(&mut amm_net, &calib, true).expect("substitution");
    let amm_acc = evaluate(&mut amm_net, &test_set, 40);
    println!(
        "digital MADDNESS accuracy: {:.1}% ({replaced} conv layers on LUTs)",
        amm_acc * 100.0
    );

    // ── 3. Map one layer onto the macro and run real patches ───────────
    // layer1 of the width-8 net: 8 → 16 channels on a 16×16 map.
    let shape = ConvShape::new(8, 16, 16, 16);
    let macro_cfg = MacroConfig::new(16, 8).with_op(OperatingPoint::new(Volts(0.5), Corner::Ttg));
    let mapping = ConvMapping::new(shape, &macro_cfg);
    let model = MacroModel::new(macro_cfg.clone());
    println!("\nmapping {shape} onto {macro_cfg}:");
    println!("  {mapping}");
    println!(
        "  per image: {} tokens, ≈{} at the average beat",
        mapping.tokens,
        mapping.image_latency(&model)
    );

    // Extract the trained layer-1 operator and open an RTL session on it.
    let op = {
        let conv = &mut amm_net.layer1.conv;
        match &conv.exec {
            ConvExec::Digital(op) => op.clone(),
            _ => unreachable!("layer1 was substituted"),
        }
    };
    let program = MacroProgram::from_maddness(&op);
    let rtl_cfg = MacroConfig::new(op.out_features(), op.num_subspaces())
        .with_op(OperatingPoint::new(Volts(0.5), Corner::Ttg));
    let mut session = Session::builder(rtl_cfg)
        .program(program)
        .backend(BackendKind::Rtl {
            fidelity: Fidelity::Sequential,
        })
        .build()
        .expect("layer program fits the macro");
    // A few output pixels of one test image = one token batch.
    let (img, _) = test_set.batch(0, 1);
    let patches = maddpipe::nn::layers::im2col3x3(&{
        // layer1 input = prep block output.
        let mut prep = net.prep.clone();
        prep.forward(&img, false)
    });
    let pixel_rows: Vec<&[f32]> = (0..4).map(|p| patches.row(p * 64)).collect();
    let batch = TokenBatch::from_f32_rows(&pixel_rows, op.num_subspaces(), op.input_scale())
        .expect("non-empty batch");
    let result = session.run(&batch).expect("batch completes");
    for (p, (obs, row)) in result.tokens.iter().zip(&pixel_rows).enumerate() {
        let reference = op.decode_i16_wrapping(&op.encode_quantized(&Mat::from_rows(&[row])));
        assert_eq!(obs.outputs, reference[0], "pixel {p}: netlist ≡ algorithm");
    }
    println!(
        "\n{} output pixels through the netlist: {} kernels each, {} \
         (bit-identical to the algorithm; p50 token latency {})",
        result.tokens.len(),
        result.tokens.width(),
        result.energy.expect("RTL measures energy"),
        session
            .stats()
            .p50_token_latency()
            .expect("RTL measures latency"),
    );
    let report = model.evaluate();
    println!(
        "macro PPA at this configuration: {:.1} TOPS/W, {:.2} TOPS/mm²",
        report.tops_per_watt, report.tops_per_mm2
    );
}
