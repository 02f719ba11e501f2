//! Accumulation arithmetic: the per-decoder carry-save stage and the final
//! ripple-carry adder (Fig. 2 / Fig. 5 A).
//!
//! The partial sum travels between pipeline stages in **carry-save form**
//! `(S, C)` with value `S + (C << 1)`: adding the next stage's LUT byte is
//! then a single full-adder delay per bit with *no carry propagation* —
//! this is what lets every compute block finish its accumulate in O(1)
//! rather than O(16), and why only one 16-bit RCA per chain is needed at
//! the very end.

use crate::calib::Calibration;
use crate::config::ACC_BITS;
use maddpipe_sim::circuit::{CircuitBuilder, NameArg, NetId};
use maddpipe_sim::leaf;
use maddpipe_sim::logic::Logic;

/// One carry-save accumulate stage: adds the sign-extended LUT data bits
/// onto the incoming `(s_prev, c_prev)` pair, then latches the result on
/// `ge` (the RCD-derived strobe). Its cells are named inside a scope
/// `name`.
///
/// `data` supplies the low bits (LSB first); the top bit is sign-extended
/// across the remaining accumulator width. Returns the latched
/// `(s_out, c_out)` buses, each [`ACC_BITS`] wide.
///
/// # Panics
///
/// Panics if `data` is empty or wider than the accumulator, or if the
/// incoming buses are not [`ACC_BITS`] wide.
pub fn build_csa_stage(
    b: &mut CircuitBuilder,
    name: impl NameArg,
    data: &[NetId],
    s_prev: &[NetId],
    c_prev: &[NetId],
    ge: NetId,
    tie_low: NetId,
) -> (Vec<NetId>, Vec<NetId>) {
    assert!(
        !data.is_empty() && data.len() <= ACC_BITS,
        "data width {} out of range",
        data.len()
    );
    assert_eq!(s_prev.len(), ACC_BITS, "s_prev must be {ACC_BITS} bits");
    assert_eq!(c_prev.len(), ACC_BITS, "c_prev must be {ACC_BITS} bits");
    let sign = *data.last().expect("data checked non-empty");
    let outer = b.enter_scope(name);
    let mut s_out = Vec::with_capacity(ACC_BITS);
    let mut c_out = Vec::with_capacity(ACC_BITS);
    for i in 0..ACC_BITS {
        let d_i = if i < data.len() { data[i] } else { sign };
        // The carry input at bit i is the previous stage's carry generated
        // at bit i−1 (weight i); bit 0 has no incoming carry.
        let c_in = if i == 0 { tie_low } else { c_prev[i - 1] };
        let (s, c) = b.full_adder(leaf!("fa{}", i), d_i, s_prev[i], c_in);
        s_out.push(b.latch(leaf!("ls{}", i), s, ge));
        c_out.push(b.latch(leaf!("lc{}", i), c, ge));
    }
    b.restore_scope(outer);
    (s_out, c_out)
}

/// The final 16-bit ripple-carry adder: collapses a carry-save pair into a
/// plain two's-complement word, `sum = S + (C << 1) mod 2^16`. Its full
/// adders are named inside a scope `name`.
///
/// Returns the sum bits (LSB first). The carry out of the top bit is
/// dropped — 16-bit wrap-around, matching
/// [`MaddnessMatmul::decode_i16_wrapping`](maddpipe_amm::MaddnessMatmul::decode_i16_wrapping).
///
/// # Panics
///
/// Panics if the buses are not [`ACC_BITS`] wide.
pub fn build_rca(
    b: &mut CircuitBuilder,
    name: impl NameArg,
    s: &[NetId],
    c: &[NetId],
    tie_low: NetId,
) -> Vec<NetId> {
    assert_eq!(s.len(), ACC_BITS, "s must be {ACC_BITS} bits");
    assert_eq!(c.len(), ACC_BITS, "c must be {ACC_BITS} bits");
    let outer = b.enter_scope(name);
    let mut sum = Vec::with_capacity(ACC_BITS);
    let mut carry = tie_low;
    for i in 0..ACC_BITS {
        // C is shifted left by one: bit i adds c[i−1].
        let c_i = if i == 0 { tie_low } else { c[i - 1] };
        let (s_i, c_next) = b.full_adder(leaf!("fa{}", i), s[i], c_i, carry);
        sum.push(s_i);
        carry = c_next;
    }
    b.restore_scope(outer);
    sum
}

/// Builds a tie-low constant net (shared by CSA/RCA carry inputs).
pub fn tie_low(b: &mut CircuitBuilder, name: impl NameArg) -> NetId {
    b.tie(name, Logic::Low)
}

/// Reference semantics of the full carry-save pipeline, used by tests and
/// the functional model: accumulates sign-extended bytes with 16-bit
/// wrap-around, mirroring what the CSA chain + RCA compute.
///
/// ```
/// use maddpipe_core::adder::accumulate_wrapping;
/// assert_eq!(accumulate_wrapping(&[100, 100, 100]), 300);
/// assert_eq!(accumulate_wrapping(&[-128; 256]), (-128i32 * 256) as i16);
/// ```
pub fn accumulate_wrapping(bytes: &[i8]) -> i16 {
    bytes
        .iter()
        .fold(0i16, |acc, &b| acc.wrapping_add(b as i16))
}

/// The `Calibration` hook for the RCA settle time (how long the output
/// strobe must wait after the final request).
pub fn rca_settle(cal: &Calibration) -> maddpipe_tech::units::Seconds {
    cal.rca_settle
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_sim::engine::Simulator;
    use maddpipe_sim::library::CellLibrary;
    use maddpipe_tech::corner::OperatingPoint;
    use maddpipe_tech::process::Technology;

    fn builder() -> CircuitBuilder {
        CircuitBuilder::new(CellLibrary::new(
            Technology::n22(),
            OperatingPoint::default(),
        ))
    }

    /// Drives one CSA stage directly and checks `S + (C<<1)` arithmetic.
    #[test]
    fn csa_stage_preserves_carry_save_invariant() {
        let mut b = builder();
        let data = b.bus("d", 8);
        let s_prev = b.bus("sp", ACC_BITS);
        let c_prev = b.bus("cp", ACC_BITS);
        let ge = b.input("ge");
        let tie = tie_low(&mut b, "tie");
        let (s_out, c_out) = build_csa_stage(&mut b, "csa", &data, &s_prev, &c_prev, ge, tie);
        let mut sim = Simulator::new(b.build());
        let cases: Vec<(i8, i16, i16)> = vec![
            (0, 0, 0),
            (5, 10, 3),
            (-7, 100, -20),
            (127, 32000, 500),
            (-128, -32768, 0),
            (-1, -1, -1),
        ];
        for (d_val, s_val, c_val) in cases {
            sim.poke(ge, Logic::High); // transparent latches for this test
            sim.poke_bus(&data, d_val as u8 as u64);
            sim.poke_bus(&s_prev, s_val as u16 as u64);
            sim.poke_bus(&c_prev, c_val as u16 as u64);
            sim.run_to_quiescence().unwrap();
            let s = sim.bus_value(&s_out).expect("S known") as u16;
            let c = sim.bus_value(&c_out).expect("C known") as u16;
            let got = (s as i16).wrapping_add((c << 1) as i16);
            let expected = (s_val)
                .wrapping_add((c_val as u16).wrapping_shl(1) as i16)
                .wrapping_add(d_val as i16);
            assert_eq!(got, expected, "d={d_val} s={s_val} c={c_val}");
        }
    }

    #[test]
    fn rca_collapses_carry_save_pairs() {
        let mut b = builder();
        let s = b.bus("s", ACC_BITS);
        let c = b.bus("c", ACC_BITS);
        let tie = tie_low(&mut b, "tie");
        let sum = build_rca(&mut b, "rca", &s, &c, tie);
        let mut sim = Simulator::new(b.build());
        for (s_val, c_val) in [
            (0u16, 0u16),
            (1, 0),
            (0, 1),
            (0x7FFF, 0x4000),
            (0xFFFF, 0xFFFF),
            (0x1234, 0x0ABC),
        ] {
            sim.poke_bus(&s, s_val as u64);
            sim.poke_bus(&c, c_val as u64);
            sim.run_to_quiescence().unwrap();
            let got = sim.bus_value(&sum).expect("sum known") as u16;
            let expected = s_val.wrapping_add(c_val.wrapping_shl(1));
            assert_eq!(got, expected, "s={s_val:#x} c={c_val:#x}");
        }
    }

    /// Chains two CSA stages and an RCA end to end: the result must equal
    /// the wrapping sum of two sign-extended bytes.
    #[test]
    fn two_stage_chain_sums_bytes() {
        let mut b = builder();
        let d0 = b.bus("d0", 8);
        let d1 = b.bus("d1", 8);
        let ge = b.input("ge");
        let tie = tie_low(&mut b, "tie");
        let zeros: Vec<NetId> = (0..ACC_BITS).map(|_| tie).collect();
        let (s0, c0) = build_csa_stage(&mut b, "st0", &d0, &zeros, &zeros, ge, tie);
        let (s1, c1) = build_csa_stage(&mut b, "st1", &d1, &s0, &c0, ge, tie);
        let sum = build_rca(&mut b, "rca", &s1, &c1, tie);
        let mut sim = Simulator::new(b.build());
        sim.poke(ge, Logic::High);
        for (a, v) in [(5i8, -3i8), (127, 127), (-128, -128), (-1, 1), (100, 27)] {
            sim.poke_bus(&d0, a as u8 as u64);
            sim.poke_bus(&d1, v as u8 as u64);
            sim.run_to_quiescence().unwrap();
            let got = sim.bus_value(&sum).expect("sum known") as u16 as i16;
            assert_eq!(got, accumulate_wrapping(&[a, v]), "{a} + {v}");
        }
    }

    #[test]
    fn latches_hold_when_ge_low() {
        let mut b = builder();
        let data = b.bus("d", 8);
        let tie = tie_low(&mut b, "tie");
        let zeros: Vec<NetId> = (0..ACC_BITS).map(|_| tie).collect();
        let ge = b.input("ge");
        let (s_out, _) = build_csa_stage(&mut b, "csa", &data, &zeros, &zeros, ge, tie);
        let mut sim = Simulator::new(b.build());
        sim.poke(ge, Logic::High);
        sim.poke_bus(&data, 42);
        sim.run_to_quiescence().unwrap();
        sim.poke(ge, Logic::Low);
        sim.run_to_quiescence().unwrap();
        sim.poke_bus(&data, 99);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.bus_value(&s_out), Some(42), "latched S must hold");
    }

    #[test]
    fn accumulate_wrapping_reference() {
        assert_eq!(accumulate_wrapping(&[]), 0);
        assert_eq!(accumulate_wrapping(&[1, 2, 3]), 6);
        assert_eq!(accumulate_wrapping(&[127; 300]), (127i32 * 300) as i16);
    }

    #[test]
    #[should_panic(expected = "data width")]
    fn empty_data_rejected() {
        let mut b = builder();
        let tie = tie_low(&mut b, "tie");
        let zeros: Vec<NetId> = (0..ACC_BITS).map(|_| tie).collect();
        let ge = b.input("ge");
        let _ = build_csa_stage(&mut b, "csa", &[], &zeros, &zeros, ge, tie);
    }
}
