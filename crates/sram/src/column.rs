//! Event-driven model of one two-port 10T-SRAM column.
//!
//! One column owns a differential read-bitline pair. The read sequence
//! (paper Fig. 5 A/B) is:
//!
//! 1. precharge: `PCHE` high pulls both RBL and RBLB to VDD;
//! 2. evaluate: one `RWL[i]` is asserted; the selected cell *fully
//!    discharges* either RBL (stored 0) or RBLB (stored 1) — full-swing,
//!    no sense amplifier;
//! 3. the column's RCD NAND sees one rail fall and raises `RCD_col`.
//!
//! The column is one behavioural cell rather than 10 transistors × 16 rows:
//! the shared dynamic bitline is exactly the kind of multi-driver analog
//! node an event simulator models best as one unit. The cell is the
//! simulator's [`ReadColumn`], which the event kernel compiles into its
//! cell table; the stored bits live there, and a LUT is reprogrammed with
//! [`Simulator::program_column`](maddpipe_sim::engine::Simulator::program_column)
//! on the [`ColumnPorts::cell`] id. Discharge delay is NMOS-limited and
//! carries *per-column* mismatch — the variability that motivates the
//! paper's per-column RCD over a shared replica column.

use crate::model::ROWS;
use maddpipe_sim::cells::ReadColumn;
use maddpipe_sim::circuit::{CellId, CircuitBuilder, NameArg, NetId};
use maddpipe_sim::leaf;
use maddpipe_tech::process::DriveKind;
use maddpipe_tech::units::{Farads, Seconds};

/// Nominal (0.8 V / TTG) read-bitline discharge delay of a 16-row column.
pub const NOMINAL_DISCHARGE_PS: f64 = 380.0;

/// Nominal (0.8 V / TTG) precharge delay of the bitline pair.
pub const NOMINAL_PRECHARGE_PS: f64 = 220.0;

/// The circuit-side ports of a built column.
#[derive(Debug, Clone)]
pub struct ColumnPorts {
    /// Read bitline (discharges for a stored 0).
    pub rbl: NetId,
    /// Complement read bitline (discharges for a stored 1).
    pub rblb: NetId,
    /// Column-local read-completion signal (high once either rail fell).
    pub rcd_col: NetId,
    /// The column cell, for reprogramming its stored bits.
    pub cell: CellId,
}

/// Instantiates one SRAM column storing `word` (bit `r` is row `r`) plus
/// its RCD NAND in the builder's current domain, inside a scope `name`, with explicit nominal
/// (0.8 V / TTG) discharge and precharge delays — [`NOMINAL_DISCHARGE_PS`]
/// and [`NOMINAL_PRECHARGE_PS`] unless the caller carries its own
/// calibration.
///
/// `rwl` must contain the 16 shared read wordlines; `pche` is the precharge
/// input.
///
/// # Panics
///
/// Panics if `rwl.len() != 16`.
pub fn build_column_with_timing(
    b: &mut CircuitBuilder,
    name: impl NameArg,
    rwl: &[NetId],
    pche: NetId,
    word: u16,
    discharge_nominal: Seconds,
    precharge_nominal: Seconds,
) -> ColumnPorts {
    assert_eq!(rwl.len(), ROWS, "expected {ROWS} read wordlines");
    let tech = b.library().technology().clone();
    let t_discharge = b
        .library_mut()
        .delay(discharge_nominal, DriveKind::PullDown);
    let t_precharge = b.library_mut().delay(precharge_nominal, DriveKind::PullUp);
    let outer = b.enter_scope(name);
    let rbl = b.net(leaf!("rbl"));
    let rblb = b.net(leaf!("rblb"));
    // Bitline load: 16 cell junctions plus the vertical wire.
    let bl_cap = Farads(tech.cap_bitcell_bl.0 * ROWS as f64) + tech.wire_cap(8.0);
    b.add_wire_cap(rbl, bl_cap);
    b.add_wire_cap(rblb, bl_cap);
    let mut inputs = Vec::with_capacity(1 + ROWS);
    inputs.push(pche);
    inputs.extend_from_slice(rwl);
    let cell = b.add_cell_kind(
        leaf!("col"),
        ReadColumn::new(word, t_discharge, t_precharge),
        &inputs,
        &[rbl, rblb],
    );
    // RCD: NAND(RBL, RBLB) rises as soon as either precharged rail falls
    // (Fig. 5 A): both high (precharged) → 0; one low (read done) → 1.
    let rcd_col = b.nand2(leaf!("rcd"), [rbl, rblb]);
    b.restore_scope(outer);
    ColumnPorts {
        rbl,
        rblb,
        rcd_col,
        cell,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_sim::cell::ViolationKind;
    use maddpipe_sim::engine::Simulator;
    use maddpipe_sim::library::CellLibrary;
    use maddpipe_sim::logic::Logic;
    use maddpipe_sim::time::SimTime;
    use maddpipe_tech::corner::{Corner, OperatingPoint};
    use maddpipe_tech::process::Technology;
    use maddpipe_tech::units::Volts;

    struct Harness {
        sim: Simulator,
        pche: NetId,
        rwl: Vec<NetId>,
        ports: ColumnPorts,
    }

    fn harness(bits: [bool; ROWS], vdd: f64) -> Harness {
        let lib = CellLibrary::new(
            Technology::n22(),
            OperatingPoint::new(Volts(vdd), Corner::Ttg),
        );
        let mut b = CircuitBuilder::new(lib);
        let pche = b.input("pche");
        let rwl: Vec<NetId> = (0..ROWS)
            .map(|i| b.input(format_args!("rwl[{i}]")))
            .collect();
        let word = bits
            .iter()
            .enumerate()
            .fold(0, |w, (r, &bit)| w | u16::from(bit) << r);
        let ports = build_column_with_timing(
            &mut b,
            "c0",
            &rwl,
            pche,
            word,
            Seconds::from_picos(NOMINAL_DISCHARGE_PS),
            Seconds::from_picos(NOMINAL_PRECHARGE_PS),
        );
        let mut sim = Simulator::new(b.build());
        // Precharge once so the rails are in a known state.
        sim.poke(pche, Logic::High);
        for &w in &rwl {
            sim.poke(w, Logic::Low);
        }
        sim.run_to_quiescence().unwrap();
        sim.poke(pche, Logic::Low);
        sim.run_to_quiescence().unwrap();
        Harness {
            sim,
            pche,
            rwl,
            ports,
        }
    }

    fn read_row(h: &mut Harness, row: usize) -> (Logic, Logic, SimTime) {
        // Precharge.
        h.sim.poke(h.pche, Logic::High);
        h.sim.run_to_quiescence().unwrap();
        h.sim.poke(h.pche, Logic::Low);
        h.sim.run_to_quiescence().unwrap();
        let t0 = h.sim.now();
        h.sim.poke(h.rwl[row], Logic::High);
        let done = h
            .sim
            .run_until_net(h.ports.rcd_col, Logic::High)
            .unwrap()
            .expect("read must complete");
        let latency = done.since(t0);
        let result = (h.sim.value(h.ports.rbl), h.sim.value(h.ports.rblb));
        h.sim.poke(h.rwl[row], Logic::Low);
        h.sim.run_to_quiescence().unwrap();
        (result.0, result.1, latency)
    }

    #[test]
    fn stored_one_discharges_rblb() {
        let mut bits = [false; ROWS];
        bits[4] = true;
        let mut h = harness(bits, 0.8);
        let (rbl, rblb, _) = read_row(&mut h, 4);
        assert_eq!(rbl, Logic::High);
        assert_eq!(rblb, Logic::Low);
    }

    #[test]
    fn stored_zero_discharges_rbl() {
        let bits = [false; ROWS];
        let mut h = harness(bits, 0.8);
        let (rbl, rblb, _) = read_row(&mut h, 7);
        assert_eq!(rbl, Logic::Low);
        assert_eq!(rblb, Logic::High);
    }

    #[test]
    fn every_row_reads_its_own_bit() {
        let mut bits = [false; ROWS];
        for (i, b) in bits.iter_mut().enumerate() {
            *b = i % 3 == 0;
        }
        let mut h = harness(bits, 0.8);
        #[allow(clippy::needless_range_loop)] // row doubles as the address under test
        for row in 0..ROWS {
            let (rbl, rblb, _) = read_row(&mut h, row);
            if bits[row] {
                assert_eq!((rbl, rblb), (Logic::High, Logic::Low), "row {row}");
            } else {
                assert_eq!((rbl, rblb), (Logic::Low, Logic::High), "row {row}");
            }
        }
    }

    #[test]
    fn low_supply_slows_the_read() {
        let bits = [true; ROWS];
        let mut fast = harness(bits, 0.8);
        let (.., t_fast) = read_row(&mut fast, 0);
        let mut slow = harness(bits, 0.5);
        let (.., t_slow) = read_row(&mut slow, 0);
        let ratio = t_slow.as_picos() / t_fast.as_picos();
        assert!(
            (3.0..9.0).contains(&ratio),
            "0.5 V read {t_slow} vs 0.8 V {t_fast} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn reprogramming_through_the_simulator_changes_reads() {
        let bits = [false; ROWS];
        let mut h = harness(bits, 0.8);
        let (rbl, _, _) = read_row(&mut h, 2);
        assert_eq!(rbl, Logic::Low);
        h.sim.program_column(h.ports.cell, 1 << 2);
        let (rbl, rblb, _) = read_row(&mut h, 2);
        assert_eq!((rbl, rblb), (Logic::High, Logic::Low));
    }

    #[test]
    fn double_wordline_assertion_is_a_protocol_violation() {
        let bits = [false; ROWS];
        let mut h = harness(bits, 0.8);
        h.sim.poke(h.pche, Logic::High);
        h.sim.run_to_quiescence().unwrap();
        h.sim.poke(h.pche, Logic::Low);
        h.sim.run_to_quiescence().unwrap();
        h.sim.poke(h.rwl[0], Logic::High);
        h.sim.poke(h.rwl[5], Logic::High);
        h.sim.run_to_quiescence().unwrap();
        assert!(h
            .sim
            .violations()
            .iter()
            .any(|v| v.kind == ViolationKind::Protocol));
    }

    #[test]
    fn energy_is_burned_per_read_cycle() {
        let bits = [true; ROWS];
        let mut h = harness(bits, 0.5);
        h.sim.reset_energy();
        // A full cycle: read (discharge) then precharge back up — the
        // recharge is where the supply energy is actually drawn.
        let _ = read_row(&mut h, 3);
        h.sim.poke(h.pche, Logic::High);
        h.sim.run_to_quiescence().unwrap();
        let e = h.sim.total_energy();
        assert!(
            e.as_femtos() > 1.0,
            "a full precharge+discharge cycle must cost real energy, got {e}"
        );
    }
}
