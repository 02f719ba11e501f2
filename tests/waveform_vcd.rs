//! The VCD export is what a waveform viewer reads, names included. This
//! pin traces every net of a 1 × 2 macro over a two-token pipelined
//! stream and holds the whole document, declarations and value changes,
//! byte for byte against `tests/golden/waveform_1x2.vcd`. A change that
//! renames a net, reorders the declarations or moves an edge fails it.

use maddpipe::prelude::*;

/// Token `t` of the stream: a fixed, varied pattern of elements.
fn token(ns: usize, t: usize) -> Vec<[i8; SUBVECTOR_LEN]> {
    (0..ns)
        .map(|s| std::array::from_fn(|e| ((t * 71 + s * 29 + e * 13) % 256) as u8 as i8))
        .collect()
}

#[test]
fn a_traced_pipelined_stream_exports_the_golden_vcd() {
    let cfg = MacroConfig::new(1, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
    let mut rtl = AcceleratorRtl::build(&cfg, &MacroProgram::random(cfg.ndec, cfg.ns, 2));
    let nets: Vec<_> = rtl.simulator().circuit().net_ids().collect();
    for net in nets {
        rtl.simulator_mut().trace_net(net);
    }
    let tokens = [token(cfg.ns, 0), token(cfg.ns, 1)];
    rtl.run_pipelined(&tokens).expect("stream completes");
    let vcd = rtl.simulator().write_vcd();
    assert!(
        vcd == include_str!("golden/waveform_1x2.vcd"),
        "the VCD export differs from tests/golden/waveform_1x2.vcd"
    );
}
