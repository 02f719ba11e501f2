//! Timing/energy characterisation of the standard-cell set.
//!
//! A [`CellLibrary`] binds the technology model to an operating point and
//! hands out *sampled* per-instance delays: every query scales a nominal
//! (0.8 V / TTG / 25 °C) arc delay by the alpha-power-law corner factor and
//! by one draw of the local-mismatch distribution. Building the same netlist
//! with the same mismatch seed therefore reproduces the same silicon
//! instance, while different seeds give Monte-Carlo samples — exactly the
//! methodology of a transistor-level corner/mismatch simulation, at event
//! granularity.

use crate::time::SimTime;
use maddpipe_tech::prelude::*;
use maddpipe_tech::units::Seconds;

/// Identifies a characterised standard cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// Inverter.
    Inv,
    /// Buffer (two inverters).
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2:1 multiplexer.
    Mux2,
    /// Mirror-adder full adder (sum arc; the carry arc is faster).
    FullAdder,
    /// Level-sensitive D-latch.
    Latch,
    /// Muller C-element (2-input).
    CElement,
}

impl CellClass {
    /// Nominal propagation delay in picoseconds at 0.8 V / TTG / 25 °C.
    ///
    /// Representative of a placed-and-routed 22 nm standard cell driving a
    /// fanout-of-2 load.
    pub fn nominal_delay_ps(self) -> f64 {
        match self {
            CellClass::Inv => 9.0,
            CellClass::Buf => 16.0,
            CellClass::Nand2 => 13.0,
            CellClass::Nand3 => 17.0,
            CellClass::Nand4 => 21.0,
            CellClass::Nor2 => 15.0,
            CellClass::Nor3 => 20.0,
            CellClass::And2 => 20.0,
            CellClass::Or2 => 22.0,
            CellClass::Xor2 => 28.0,
            CellClass::Mux2 => 24.0,
            CellClass::FullAdder => 55.0,
            CellClass::Latch => 26.0,
            CellClass::CElement => 22.0,
        }
    }

    /// Input capacitance of one pin.
    pub fn input_cap(self) -> Farads {
        let gates = match self {
            CellClass::Inv | CellClass::Buf => 1.0,
            CellClass::Nand2 | CellClass::Nor2 | CellClass::And2 | CellClass::Or2 => 1.2,
            CellClass::Nand3 | CellClass::Nor3 => 1.4,
            CellClass::Nand4 => 1.6,
            CellClass::Xor2 | CellClass::Mux2 => 2.2,
            CellClass::FullAdder => 2.6,
            CellClass::Latch => 1.8,
            CellClass::CElement => 1.6,
        };
        Farads(Technology::n22().cap_gate_unit.0 * gates)
    }

    /// Parasitic output (self) capacitance.
    pub fn output_cap(self) -> Farads {
        Farads(self.input_cap().0 * 0.6)
    }

    /// Transistor count, used by the area model.
    pub fn transistors(self) -> f64 {
        match self {
            CellClass::Inv => 2.0,
            CellClass::Buf => 4.0,
            CellClass::Nand2 | CellClass::Nor2 => 4.0,
            CellClass::Nand3 | CellClass::Nor3 => 6.0,
            CellClass::Nand4 => 8.0,
            CellClass::And2 | CellClass::Or2 => 6.0,
            CellClass::Xor2 => 10.0,
            CellClass::Mux2 => 12.0,
            CellClass::FullAdder => 28.0,
            CellClass::Latch => 16.0,
            CellClass::CElement => 12.0,
        }
    }
}

/// Per-instance timing arcs sampled from a [`CellLibrary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledTiming {
    /// Output rise delay (PMOS-limited).
    pub rise: SimTime,
    /// Output fall delay (NMOS-limited).
    pub fall: SimTime,
}

impl SampledTiming {
    /// Delay for a transition to `value_is_high`.
    #[inline]
    pub fn for_edge(self, value_is_high: bool) -> SimTime {
        if value_is_high {
            self.rise
        } else {
            self.fall
        }
    }

    /// The slower of the two arcs (used when driving `X`).
    #[inline]
    pub fn worst(self) -> SimTime {
        self.rise.max(self.fall)
    }

    /// The arc a transition to `value` uses: rise for `High`, fall for
    /// `Low`, the worst arc for `X`. This is the single delay-selection
    /// rule of every combinational standard cell, shared so the
    /// enum-dispatched kernel fast path and the boxed escape hatch cannot
    /// drift apart. The arc is indexed by the level's discriminant, so
    /// the choice takes no branch.
    #[inline]
    pub fn for_value(self, value: crate::logic::Logic) -> SimTime {
        [self.fall, self.rise, self.worst()][value as usize]
    }
}

/// A characterised, operating-point-bound cell library.
///
/// ```
/// use maddpipe_sim::library::{CellClass, CellLibrary};
/// use maddpipe_tech::prelude::*;
///
/// let mut lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
/// let t = lib.timing(CellClass::Nand2);
/// assert!(t.rise.as_picos() > 0.0 && t.fall.as_picos() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct CellLibrary {
    tech: Technology,
    op: OperatingPoint,
    mismatch: MismatchSampler,
}

impl CellLibrary {
    /// Creates a library at `op` with no local mismatch.
    pub fn new(tech: Technology, op: OperatingPoint) -> CellLibrary {
        CellLibrary {
            tech,
            op,
            mismatch: Mismatch::none().sampler(),
        }
    }

    /// Creates a library whose per-instance delays are drawn with local
    /// mismatch `mm`.
    pub fn with_mismatch(tech: Technology, op: OperatingPoint, mm: &Mismatch) -> CellLibrary {
        CellLibrary {
            tech,
            op,
            mismatch: mm.sampler(),
        }
    }

    /// The operating point this library was characterised at.
    pub fn operating_point(&self) -> OperatingPoint {
        self.op
    }

    /// The underlying technology.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// Samples the timing arcs of one new instance of `class`.
    ///
    /// Each call draws fresh mismatch, so two instances of the same class
    /// generally differ slightly — as they do on silicon.
    pub fn timing(&mut self, class: CellClass) -> SampledTiming {
        self.timing_scaled(class, 1.0)
    }

    /// Samples timing arcs with an extra deterministic multiplier (used for
    /// derated or up-sized instances, e.g. long-wire drivers).
    pub fn timing_scaled(&mut self, class: CellClass, multiplier: f64) -> SampledTiming {
        assert!(
            multiplier.is_finite() && multiplier > 0.0,
            "delay multiplier must be positive, got {multiplier}"
        );
        let nominal = Seconds::from_picos(class.nominal_delay_ps() * multiplier);
        let mm = self.mismatch.sample();
        let rise = self.tech.scale_delay(nominal, self.op, DriveKind::PullUp) * mm;
        let fall = self.tech.scale_delay(nominal, self.op, DriveKind::PullDown) * mm;
        SampledTiming {
            rise: SimTime::from_seconds(rise),
            fall: SimTime::from_seconds(fall),
        }
    }

    /// Samples a raw delay from a nominal value limited by `kind` devices.
    pub fn delay(&mut self, nominal: Seconds, kind: DriveKind) -> SimTime {
        let mm = self.mismatch.sample();
        SimTime::from_seconds(self.tech.scale_delay(nominal, self.op, kind) * mm)
    }

    /// Per-edge supply energy of a full transition pair on `cap`, split as
    /// (rise-edge, fall-edge).
    ///
    /// The rising edge draws the full `C·V²` from the supply; the
    /// short-circuit charge is split evenly across both edges.
    pub fn edge_energy(&self, cap: Farads) -> (Joules, Joules) {
        let total = self.tech.switching_energy(cap, self.op);
        let dynamic = cap.switching_energy(self.op.vdd);
        let sc_half = (total - dynamic) * 0.5;
        (dynamic + sc_half, sc_half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_at(vdd: f64, corner: Corner) -> CellLibrary {
        CellLibrary::new(Technology::n22(), OperatingPoint::new(Volts(vdd), corner))
    }

    #[test]
    fn lower_supply_slows_cells() {
        let mut nominal = lib_at(0.8, Corner::Ttg);
        let mut low = lib_at(0.5, Corner::Ttg);
        let tn = nominal.timing(CellClass::Nand2);
        let tl = low.timing(CellClass::Nand2);
        assert!(tl.fall > tn.fall);
        let ratio = tl.fall.as_picos() / tn.fall.as_picos();
        assert!(
            (4.0..8.0).contains(&ratio),
            "0.5 V / 0.8 V delay ratio {ratio}, expected ≈5.6 (alpha-power)"
        );
    }

    #[test]
    fn mixed_corner_splits_rise_and_fall() {
        // SFG: slow NMOS (fall slower), fast PMOS (rise faster).
        let mut sfg = lib_at(0.8, Corner::Sfg);
        let mut ttg = lib_at(0.8, Corner::Ttg);
        let ts = sfg.timing(CellClass::Inv);
        let tt = ttg.timing(CellClass::Inv);
        assert!(ts.fall > tt.fall, "slow NMOS ⇒ slower fall");
        assert!(ts.rise < tt.rise, "fast PMOS ⇒ faster rise");
    }

    #[test]
    fn mismatch_spreads_instances() {
        let mm = Mismatch::new(0.05, 11);
        let mut lib = CellLibrary::with_mismatch(Technology::n22(), OperatingPoint::default(), &mm);
        let samples: Vec<u64> = (0..32)
            .map(|_| lib.timing(CellClass::Inv).fall.as_femtos())
            .collect();
        let distinct = {
            let mut s = samples.clone();
            s.sort_unstable();
            s.dedup();
            s.len()
        };
        assert!(
            distinct > 20,
            "expected spread, got {distinct} distinct values"
        );
    }

    #[test]
    fn no_mismatch_is_deterministic() {
        let mut a = lib_at(0.8, Corner::Ttg);
        let mut b = lib_at(0.8, Corner::Ttg);
        for _ in 0..8 {
            assert_eq!(a.timing(CellClass::Xor2), b.timing(CellClass::Xor2));
        }
    }

    #[test]
    fn edge_energy_sums_to_pair_energy() {
        let lib = lib_at(0.5, Corner::Ttg);
        let cap = Farads::from_femtos(2.0);
        let (r, f) = lib.edge_energy(cap);
        let total = lib
            .technology()
            .switching_energy(cap, lib.operating_point());
        assert!(((r + f).as_femtos() - total.as_femtos()).abs() < 1e-9);
        assert!(r.as_femtos() > f.as_femtos(), "rise edge carries C·V²");
    }

    #[test]
    fn complex_cells_are_slower_and_bigger() {
        assert!(CellClass::FullAdder.nominal_delay_ps() > CellClass::Nand2.nominal_delay_ps());
        assert!(CellClass::FullAdder.transistors() > CellClass::Inv.transistors());
        assert!(CellClass::Xor2.input_cap().0 > CellClass::Inv.input_cap().0);
    }

    #[test]
    fn for_edge_selects_arc() {
        let t = SampledTiming {
            rise: SimTime::from_picos(10.0),
            fall: SimTime::from_picos(7.0),
        };
        assert_eq!(t.for_edge(true), t.rise);
        assert_eq!(t.for_edge(false), t.fall);
        assert_eq!(t.worst(), t.rise);
        assert_eq!(t.for_value(crate::logic::Logic::High), t.rise);
        assert_eq!(t.for_value(crate::logic::Logic::Low), t.fall);
        assert_eq!(t.for_value(crate::logic::Logic::X), t.worst());
    }

    #[test]
    fn for_value_picks_the_arc_of_each_level() {
        use crate::logic::Logic;
        let fs = SimTime::from_femtos;
        let levels = [Logic::Low, Logic::High, Logic::X];
        let slow_rise = SampledTiming {
            rise: fs(700),
            fall: fs(500),
        };
        assert_eq!(
            levels.map(|v| slow_rise.for_value(v)),
            [fs(500), fs(700), fs(700)]
        );
        let slow_fall = SampledTiming {
            rise: fs(300),
            fall: fs(900),
        };
        assert_eq!(
            levels.map(|v| slow_fall.for_value(v)),
            [fs(900), fs(300), fs(900)]
        );
    }

    #[test]
    #[should_panic(expected = "multiplier must be positive")]
    fn zero_multiplier_rejected() {
        let mut lib = lib_at(0.8, Corner::Ttg);
        let _ = lib.timing_scaled(CellClass::Inv, 0.0);
    }
}
