//! Waveform capture: runs one token through a small macro with tracing
//! enabled on the handshake and completion nets, prints the event
//! sequence (the reproduction of the paper's Fig. 5 B timing chart), and
//! writes a GTKWave-compatible VCD to `results/waveform.vcd`; then streams
//! four overlapped tokens through a second instance traced the same way
//! and writes that stream's VCD to `results/waveform_pipelined.vcd`.
//!
//! Run with: `cargo run --example waveform --release`

use maddpipe::prelude::*;
use maddpipe::sim::{Logic, NetId};

/// Traces the self-synchronous control signals plus the per-decoder
/// completion/strobe chain of block 0 (the Fig. 5 B cast), returning
/// each traced net with its display name.
fn trace_fig5b(rtl: &mut AcceleratorRtl) -> Vec<(String, NetId)> {
    let mut interesting: Vec<(String, NetId)> = Vec::new();
    {
        let circuit = rtl.simulator().circuit();
        for name in [
            "req[0]",
            "ack[0]",
            "req[1]",
            "ack[1]",
            "req[2]",
            "blk0.pche",
            "blk0.calce",
            "blk0.ibe",
        ] {
            if let Some(id) = circuit.find_net(name) {
                interesting.push((name.to_string(), id));
            }
        }
    }
    interesting.push(("blk0 RCD_LUT".into(), rtl.blocks()[0].decoders[0].rcd_lut));
    interesting.push(("blk0 GE strobe".into(), rtl.blocks()[0].decoders[0].ge));
    interesting.push(("blk0 block-RCD".into(), rtl.blocks()[0].rcd));
    interesting.push(("output strobe".into(), rtl.output_strobe()));
    for (_, id) in &interesting {
        rtl.simulator_mut().trace_net(*id);
    }
    interesting
}

/// Writes the recorded waveform of `rtl` to `results/<file>`.
fn write_vcd(rtl: &AcceleratorRtl, file: &str) {
    let vcd = rtl.simulator().write_vcd();
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(file);
    if std::fs::create_dir_all(path.parent().expect("has parent")).is_ok()
        && std::fs::write(&path, &vcd).is_ok()
    {
        println!("VCD written to {}", path.display());
    }
}

fn main() {
    let cfg = MacroConfig::new(1, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let program = MacroProgram::random(cfg.ndec, cfg.ns, 3);
    let mut rtl = AcceleratorRtl::build(&cfg, &program);
    let interesting = trace_fig5b(&mut rtl);

    let token = vec![[42i8; SUBVECTOR_LEN]; cfg.ns];
    let result = rtl.run_token(&token).expect("token completes");
    println!(
        "token outputs {:?} in {} using {}",
        result.outputs, result.latency, result.energy
    );

    // Console replay: the Fig. 5 B ordering — wordline select, bitline
    // split, RCD_col rise, GE pulse, latch — appears as the rising-edge
    // order of the traced nets.
    let names: std::collections::HashMap<NetId, String> =
        interesting.iter().map(|(n, id)| (*id, n.clone())).collect();
    println!("\nfirst 24 traced edges:");
    for e in rtl.simulator().trace_entries().iter().take(24) {
        if let Some(name) = names.get(&e.net) {
            println!(
                "  {:>14}  {:<14} → {}",
                e.time.to_string(),
                name,
                if e.value == Logic::High { "1" } else { "0" }
            );
        }
    }

    // Full dump for GTKWave.
    println!();
    write_vcd(&rtl, "waveform.vcd");

    // A pipelined stream: each output-strobe pulse latches one token's
    // result while the next token is already in flight.
    let mut pipelined = AcceleratorRtl::build(&cfg, &program);
    trace_fig5b(&mut pipelined);
    let tokens: Vec<Vec<[i8; SUBVECTOR_LEN]>> = [-90i8, -30, 30, 90]
        .map(|v| vec![[v; SUBVECTOR_LEN]; cfg.ns])
        .into();
    let run = pipelined.run_pipelined(&tokens).expect("stream completes");
    println!(
        "\npipelined stream of {} tokens in {}:",
        tokens.len(),
        run.makespan
    );
    for (t, (outputs, done)) in run.outputs.iter().zip(&run.completions).enumerate() {
        println!("  token {t} outputs {outputs:?} captured at +{done}");
    }
    write_vcd(&pipelined, "waveform_pipelined.vcd");
}
