//! The LUT decoder: 16×8 10T-SRAM array, carry-save accumulate slice,
//! output latches, and per-decoder read-completion detection (Fig. 5 A).
//!
//! Read flow: one RWL asserts → the selected row's cells discharge one rail
//! of each column pair → each column's RCD NAND rises → the NAND–NOR tree
//! reports `RCD_LUT` → a pulse generator issues the latch-enable `GE`
//! "after a brief delay" (long enough for the full adders to settle) → the
//! carry-save outputs are captured for the next pipeline stage.

use crate::adder::build_csa_stage;
use crate::calib::Calibration;
use maddpipe_sim::circuit::{CellId, CircuitBuilder, NameArg, NetId};
use maddpipe_sim::leaf;
use maddpipe_sram::column::build_column_with_timing;
use maddpipe_sram::model::{SramModel, COLS};
use maddpipe_sram::rcd::build_completion_tree;
use maddpipe_tech::process::DriveKind;

/// Nets and cells exposed by a built decoder.
#[derive(Debug, Clone)]
pub struct DecoderPorts {
    /// Decoder-level read-completion signal (`RCD_LUT`).
    pub rcd_lut: NetId,
    /// The latch-enable pulse derived from `RCD_LUT`.
    pub ge: NetId,
    /// Latched carry-save sum bits (16, LSB first).
    pub s_out: Vec<NetId>,
    /// Latched carry-save carry bits (16, LSB first).
    pub c_out: Vec<NetId>,
    /// The 8 SRAM column cells, LSB first: reprogram the LUT by storing
    /// [`SramModel::column_word`] `c` in column `c` with
    /// [`Simulator::program_column`](maddpipe_sim::engine::Simulator::program_column).
    pub columns: Vec<CellId>,
}

/// Builds one decoder, its names inside a scope `name`.
///
/// * `rwl` — the 16 one-hot read wordlines from the block's encoder.
/// * `pche` — precharge control from the block controller.
/// * `s_prev`/`c_prev` — the upstream pipeline stage's latched carry-save
///   outputs (tie-low buses for the first block).
/// * `lut` — the initial LUT image (reprogrammable through the returned
///   column cells).
///
/// # Panics
///
/// Panics if bus widths are wrong (checked by the callees).
#[allow(clippy::too_many_arguments)]
pub fn build_decoder(
    b: &mut CircuitBuilder,
    name: impl NameArg,
    rwl: &[NetId],
    pche: NetId,
    s_prev: &[NetId],
    c_prev: &[NetId],
    lut: &SramModel,
    cal: &Calibration,
    tie_low: NetId,
) -> DecoderPorts {
    let outer = b.enter_scope(name);
    let prev_domain = b.set_domain("decoder");
    let mut columns = Vec::with_capacity(COLS);
    let mut data_bits = Vec::with_capacity(COLS);
    let mut rcd_cols = Vec::with_capacity(COLS);
    for c in 0..COLS {
        let ports = build_column_with_timing(
            b,
            leaf!("c{}", c),
            rwl,
            pche,
            lut.column_word(c),
            cal.bl_discharge,
            cal.bl_precharge,
        );
        columns.push(ports.cell);
        // Differential read: RBLB discharges for a stored 1, so the data
        // bit is the inverted RBLB rail.
        data_bits.push(b.inv(leaf!("d{}", c), ports.rblb));
        rcd_cols.push(ports.rcd_col);
    }
    let rcd_lut = build_completion_tree(b, leaf!("rcd"), &rcd_cols);
    let ge_delay = b
        .library_mut()
        .delay(cal.ge_pulse_delay, DriveKind::Complementary);
    let ge_width = b
        .library_mut()
        .delay(cal.ge_pulse_width, DriveKind::Complementary);
    let ge = b.pulse_gen(leaf!("gegen"), rcd_lut, ge_delay, ge_width);
    let (s_out, c_out) = build_csa_stage(b, leaf!("csa"), &data_bits, s_prev, c_prev, ge, tie_low);
    b.restore_domain(prev_domain);
    b.restore_scope(outer);
    DecoderPorts {
        rcd_lut,
        ge,
        s_out,
        c_out,
        columns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adder::tie_low;
    use crate::config::ACC_BITS;
    use maddpipe_sim::engine::Simulator;
    use maddpipe_sim::library::CellLibrary;
    use maddpipe_sim::logic::Logic;
    use maddpipe_tech::corner::{Corner, OperatingPoint};
    use maddpipe_tech::process::Technology;
    use maddpipe_tech::units::Volts;

    struct Dut {
        sim: Simulator,
        rwl: Vec<NetId>,
        pche: NetId,
        ports: DecoderPorts,
    }

    fn dut(lut: SramModel, vdd: f64, corner: Corner) -> Dut {
        let lib = CellLibrary::new(Technology::n22(), OperatingPoint::new(Volts(vdd), corner));
        let mut b = CircuitBuilder::new(lib);
        let rwl: Vec<NetId> = (0..16).map(|i| b.input(format_args!("rwl{i}"))).collect();
        let pche = b.input("pche");
        let tie = tie_low(&mut b, "tie");
        let zeros: Vec<NetId> = (0..ACC_BITS).map(|_| tie).collect();
        let ports = build_decoder(
            &mut b,
            "dec",
            &rwl,
            pche,
            &zeros,
            &zeros,
            &lut,
            &Calibration::paper(),
            tie,
        );
        let mut sim = Simulator::new(b.build());
        for &w in &rwl {
            sim.poke(w, Logic::Low);
        }
        sim.poke(pche, Logic::High);
        sim.run_to_quiescence().unwrap();
        sim.poke(pche, Logic::Low);
        sim.run_to_quiescence().unwrap();
        Dut {
            sim,
            rwl,
            pche,
            ports,
        }
    }

    /// Performs one complete read cycle of `row`; returns the latched
    /// carry-save value (S + C<<1).
    fn read(d: &mut Dut, row: usize) -> i16 {
        d.sim.poke(d.pche, Logic::High);
        d.sim.run_to_quiescence().unwrap();
        d.sim.poke(d.pche, Logic::Low);
        d.sim.run_to_quiescence().unwrap();
        d.sim.poke(d.rwl[row], Logic::High);
        d.sim.run_to_quiescence().unwrap();
        let s = d.sim.bus_value(&d.ports.s_out).expect("S latched") as u16;
        let c = d.sim.bus_value(&d.ports.c_out).expect("C latched") as u16;
        d.sim.poke(d.rwl[row], Logic::Low);
        d.sim.run_to_quiescence().unwrap();
        (s as i16).wrapping_add((c << 1) as i16)
    }

    #[test]
    fn reads_every_row_with_zero_partial_sum() {
        let mut lut = SramModel::new();
        let values: Vec<i8> = (0..16).map(|i| (i * 17 - 120) as i8).collect();
        for (r, &v) in values.iter().enumerate() {
            lut.write(r, v as u8);
        }
        let mut d = dut(lut, 0.8, Corner::Ttg);
        for (r, &v) in values.iter().enumerate() {
            assert_eq!(read(&mut d, r), v as i16, "row {r}");
        }
    }

    #[test]
    fn rcd_lut_rises_only_after_all_columns() {
        let mut lut = SramModel::new();
        lut.write(0, 0x5A);
        let mut d = dut(lut, 0.8, Corner::Ttg);
        d.sim.poke(d.pche, Logic::High);
        d.sim.run_to_quiescence().unwrap();
        assert_eq!(d.sim.value(d.ports.rcd_lut), Logic::Low, "precharged");
        d.sim.poke(d.pche, Logic::Low);
        d.sim.run_to_quiescence().unwrap();
        d.sim.poke(d.rwl[0], Logic::High);
        let t = d
            .sim
            .run_until_net(d.ports.rcd_lut, Logic::High)
            .unwrap()
            .expect("completion must arrive");
        assert!(t > maddpipe_sim::SimTime::ZERO);
    }

    #[test]
    fn ge_strobe_cleanly_latches_without_setup_violations() {
        let mut lut = SramModel::new();
        for r in 0..16 {
            lut.write(r, (r as u8) << 3);
        }
        // The §III-C claim: RCD-derived latch timing avoids setup
        // violations across PVT. Check the slowest and fastest corners.
        for (vdd, corner) in [(0.5, Corner::Ssg), (1.0, Corner::Ffg), (0.8, Corner::Ttg)] {
            let mut d = dut(lut.clone(), vdd, corner);
            for row in [0usize, 7, 15] {
                let _ = read(&mut d, row);
            }
            let setups: Vec<_> = d
                .sim
                .violations()
                .iter()
                .filter(|v| v.kind == maddpipe_sim::ViolationKind::Setup)
                .collect();
            assert!(
                setups.is_empty(),
                "{vdd} V / {corner}: setup violations: {setups:?}"
            );
        }
    }

    #[test]
    fn reprogramming_changes_decode() {
        let mut lut = SramModel::new();
        lut.write(2, 10);
        let mut d = dut(lut, 0.8, Corner::Ttg);
        assert_eq!(read(&mut d, 2), 10);
        // Rewrite through the simulator (global write driver path).
        let new = SramModel::from_words({
            let mut w = [0u8; 16];
            w[2] = (-77i8) as u8;
            w
        });
        for (c, &col) in d.ports.columns.iter().enumerate() {
            d.sim.program_column(col, new.column_word(c));
        }
        assert_eq!(read(&mut d, 2), -77);
    }

    #[test]
    fn decoder_energy_dominates_its_own_gates() {
        let mut lut = SramModel::new();
        for r in 0..16 {
            lut.write(r, 0xFF);
        }
        let mut d = dut(lut, 0.5, Corner::Ttg);
        d.sim.reset_energy();
        let _ = read(&mut d, 5);
        let report = d.sim.energy_report();
        let dec = report.energy_of("decoder");
        assert!(dec.value() > 0.0);
        // Exclude the testbench's own stimulus nets ("top" domain): within
        // the circuit, the decoder is the only consumer here.
        let circuit_total = report.total() - report.energy_of("top");
        assert!(dec / circuit_total > 0.99, "{report}");
    }
}
