//! What the name table costs and what it feeds. A netlist build records
//! every name as a scope plus a leaf and renders it only when it is
//! read, so building the flagship formats no name text at all, and its
//! table stays within the bytes the text it replaced took (973,640 bytes
//! of text plus 233,496 of offsets). A violation record still carries the
//! full rendered name of its cell, on the generic evaluation path and on
//! a compiled latch alike.

use maddpipe::prelude::*;
use maddpipe::sim::leaf;
use maddpipe::sim::prelude::{Cell, CellLibrary, CircuitBuilder, EvalCtx, Logic, SimTime};
use maddpipe::sim::{Simulator, ViolationKind};

#[test]
fn a_flagship_build_formats_no_name_text() {
    let cfg = MacroConfig::paper_flagship();
    let rtl = AcceleratorRtl::build(&cfg, &MacroProgram::random(cfg.ndec, cfg.ns, 1));
    let circuit = rtl.simulator().circuit();
    assert_eq!(circuit.name_text_bytes(), 0, "no name was formatted");
    let bytes = circuit.name_table_bytes();
    assert!(bytes <= 973_640 + 233_496, "the name table holds {bytes} B");
}

/// A cell on the generic path that reports a protocol violation whenever
/// its input rises.
#[derive(Debug)]
struct RiseAlarm;

impl Cell for RiseAlarm {
    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        0
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        if ctx.is_edge(0, Logic::High) {
            ctx.report(ViolationKind::Protocol, "input rose");
        }
    }
}

#[test]
fn violations_name_their_cell_in_full_on_both_paths() {
    let lib = CellLibrary::new(
        Technology::n22(),
        OperatingPoint::new(Volts(0.8), Corner::Ttg),
    );
    let mut b = CircuitBuilder::new(lib);
    let d = b.input("d");
    let g = b.input("g");
    let blk = b.enter_scope(leaf!("blk{}", 7));
    let dec = b.enter_scope(leaf!("dec{}", 3));
    b.add_cell(leaf!("alarm{}_{}", 2, 5), Box::new(RiseAlarm), &[d], &[]);
    b.restore_scope(dec);
    let q = b.latch(leaf!("ls{}", 11), d, g);
    b.restore_scope(blk);
    let mut sim = Simulator::new(b.build());
    assert_eq!(sim.circuit().net_name(q), "blk7.ls11.q");

    // Open the latch, then move D just before G falls: inside the setup
    // window, so the compiled latch reports a setup violation.
    sim.poke(d, Logic::Low);
    sim.poke(g, Logic::High);
    sim.run_to_quiescence().unwrap();
    sim.poke(d, Logic::High);
    sim.poke_after(g, Logic::Low, SimTime::from_femtos(1));
    sim.run_to_quiescence().unwrap();

    let named: Vec<(ViolationKind, &str)> = sim
        .violations()
        .iter()
        .map(|v| (v.kind, v.cell.as_str()))
        .collect();
    assert_eq!(
        named,
        [
            (ViolationKind::Protocol, "blk7.dec3.alarm2_5"),
            (ViolationKind::Setup, "blk7.ls11"),
        ]
    );
}
