//! Waveform recording and VCD export.
//!
//! Tracing is opt-in per net: enable the handful of nets you care about
//! (handshake wires, RCD signals, latch enables) and export a Value Change
//! Dump viewable in GTKWave — the event-level stand-in for the paper's
//! HSPICE waveforms (Fig. 5 B timing chart). The recording belongs to
//! whoever enabled it: entries accumulate across runs and a net stays
//! recorded once enabled.

use crate::circuit::{Circuit, NetId};
use crate::logic::Logic;
use crate::time::SimTime;

/// One recorded value change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the change happened.
    pub time: SimTime,
    /// Which net changed.
    pub net: NetId,
    /// The new value.
    pub value: Logic,
}

/// Sparse waveform recorder.
#[derive(Debug, Clone)]
pub struct Trace {
    enabled: Vec<bool>,
    /// `true` once any net is enabled.
    any: bool,
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates a recorder for a circuit with `net_count` nets; nothing is
    /// traced until [`Trace::enable`] is called.
    pub fn new(net_count: usize) -> Trace {
        Trace {
            enabled: vec![false; net_count],
            any: false,
            entries: Vec::new(),
        }
    }

    /// Starts recording a net.
    pub fn enable(&mut self, net: NetId) {
        self.enabled[net.index()] = true;
        self.any = true;
    }

    /// `true` once any net is enabled. The kernel reads this single flag
    /// per transition so fully-untraced simulations — the common bench
    /// configuration — skip the recording path entirely.
    #[inline]
    pub fn any_enabled(&self) -> bool {
        self.any
    }

    /// Records a change if the net is enabled (called by the kernel).
    #[inline]
    pub fn record(&mut self, time: SimTime, net: NetId, value: Logic) {
        if self.enabled[net.index()] {
            self.entries.push(TraceEntry { time, net, value });
        }
    }

    /// All recorded entries in time order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Renders a VCD document (timescale 1 fs) for all enabled nets.
    pub fn to_vcd(&self, circuit: &Circuit) -> String {
        let mut out = String::new();
        out.push_str("$date maddpipe simulation $end\n");
        out.push_str("$version maddpipe-sim $end\n");
        out.push_str("$timescale 1fs $end\n");
        out.push_str("$scope module top $end\n");
        let mut ids: Vec<Option<String>> = vec![None; self.enabled.len()];
        for (i, &on) in self.enabled.iter().enumerate() {
            if on {
                let id = vcd_identifier(i);
                let name = sanitize(&circuit.net_name(NetId(i as u32)));
                out.push_str(&format!("$var wire 1 {id} {name} $end\n"));
                ids[i] = Some(id);
            }
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        // Initial values: everything starts X.
        out.push_str("$dumpvars\n");
        for id in ids.iter().flatten() {
            out.push_str(&format!("x{id}\n"));
        }
        out.push_str("$end\n");
        let mut last_time: Option<SimTime> = None;
        for e in &self.entries {
            if last_time != Some(e.time) {
                out.push_str(&format!("#{}\n", e.time.as_femtos()));
                last_time = Some(e.time);
            }
            if let Some(id) = &ids[e.net.index()] {
                out.push(e.value.vcd_char());
                out.push_str(id);
                out.push('\n');
            }
        }
        out
    }
}

/// Maps a net index to a compact printable VCD identifier (base-94 over the
/// printable ASCII range `!`..`~`).
fn vcd_identifier(mut index: usize) -> String {
    let mut s = String::new();
    loop {
        s.push((33 + (index % 94)) as u8 as char);
        index /= 94;
        if index == 0 {
            break;
        }
        index -= 1;
    }
    s
}

/// VCD identifiers may not contain whitespace; net names with brackets are
/// fine, but replace any stray spaces.
fn sanitize(name: &str) -> String {
    name.replace(' ', "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::engine::Simulator;
    use crate::library::CellLibrary;
    use crate::logic::Logic;
    use maddpipe_tech::prelude::*;

    #[test]
    fn identifiers_are_unique_and_printable() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            let id = vcd_identifier(i);
            assert!(id.chars().all(|c| ('!'..='~').contains(&c)), "{id:?}");
            assert!(seen.insert(id), "duplicate identifier at {i}");
        }
    }

    #[test]
    fn any_enabled_flips_on_first_enable() {
        let mut t = Trace::new(3);
        assert!(!t.any_enabled(), "fresh trace records nothing");
        t.enable(NetId(2));
        assert!(t.any_enabled());
    }

    #[test]
    fn disabled_nets_record_nothing() {
        let mut t = Trace::new(2);
        t.enable(NetId(1));
        t.record(SimTime::ZERO, NetId(0), Logic::High);
        t.record(SimTime::ZERO, NetId(1), Logic::High);
        assert_eq!(t.entries().len(), 1);
        assert_eq!(t.entries()[0].net, NetId(1));
    }

    #[test]
    fn vcd_export_contains_header_and_changes() {
        let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
        let mut b = CircuitBuilder::new(lib);
        let a = b.input("a");
        let y = b.inv("u0", a);
        let mut sim = Simulator::new(b.build());
        sim.trace_net(a);
        sim.trace_net(y);
        sim.poke(a, Logic::Low);
        sim.run_to_quiescence().unwrap();
        sim.poke(a, Logic::High);
        sim.run_to_quiescence().unwrap();
        let vcd = sim.write_vcd();
        assert!(vcd.contains("$timescale 1fs $end"));
        assert!(vcd.contains("$var wire 1"));
        assert!(vcd.contains("u0.y"), "{vcd}");
        assert!(vcd.lines().any(|l| l.starts_with('#')), "has timestamps");
    }
}
