//! A deliberately naive event kernel — the executable specification the
//! optimized [`crate::engine::Simulator`] is tested against.
//!
//! The production kernel earns its throughput with a bucketed event queue,
//! an epoch-stamped dirty set, compiled fanout tables and a reusable
//! scratch arena. Every one of those is an *implementation* trick; none is
//! allowed to change semantics. This module implements the same
//! delta-cycle semantics in the most transparent way available — an
//! unordered event list scanned for its minimum, freshly allocated
//! buffers, linear-searched dirty tracking — so a golden-equivalence
//! property test (`tests/kernel_equivalence.rs`) can replay random
//! netlists on both kernels and demand identical final net values,
//! quiescence times, switching energy (femtojoule for femtojoule) and
//! edge counts, per energy domain.
//!
//! The shared pieces are deliberate: both kernels evaluate the *same*
//! [`CellKind`](crate::cells::CellKind) behaviours over the *same*
//! [`Circuit`]. What this module independently re-implements — and what
//! the property test therefore actually checks — is the event scheduling
//! machinery: `(time, seq)` ordering, inertial generation cancellation,
//! delta batching, per-delta cell-evaluation dedup, trigger-pin
//! collection, and the attribution of energy and edges to domains, in
//! transition order.

use crate::cell::{CellName, Drive, DriveMode, EvalCtx, Violation};
use crate::circuit::{CellId, Circuit, NetId};
use crate::energy::{EnergyReport, EnergyRow};
use crate::engine::OscillationError;
use crate::logic::Logic;
use crate::time::SimTime;
use maddpipe_tech::units::Joules;

#[derive(Debug, Clone, Copy)]
struct RefEvent {
    time: SimTime,
    seq: u64,
    net: NetId,
    value: Logic,
    gen: u32,
}

/// The naive reference simulator. Mirrors the subset of the
/// [`Simulator`](crate::engine::Simulator) API the equivalence test needs.
#[derive(Debug)]
pub struct ReferenceSimulator {
    circuit: Circuit,
    values: Vec<Logic>,
    gens: Vec<u32>,
    /// Pending events, deliberately unordered; every delta cycle scans for
    /// the minimum `(time, seq)`.
    events: Vec<RefEvent>,
    now: SimTime,
    seq: u64,
    /// Switching energy per domain, accumulated in transition order.
    energy_by_domain: Vec<Joules>,
    /// Rising and falling edges per domain; a transition to `X` is none.
    edges_by_domain: Vec<u64>,
    edge_energy: Vec<(Joules, Joules)>,
    violations: Vec<Violation>,
    event_cap: u64,
}

impl ReferenceSimulator {
    /// Creates the reference simulator and performs the power-up
    /// evaluation of every cell at time zero.
    pub fn new(circuit: Circuit) -> ReferenceSimulator {
        let n_nets = circuit.nets.len();
        let edge_energy = circuit
            .nets
            .iter()
            .map(|net| circuit.library.edge_energy(net.cap))
            .collect();
        let mut sim = ReferenceSimulator {
            values: vec![Logic::X; n_nets],
            gens: vec![0; n_nets],
            events: Vec::new(),
            now: SimTime::ZERO,
            seq: 0,
            energy_by_domain: vec![Joules::ZERO; circuit.domains.len()],
            edges_by_domain: vec![0; circuit.domains.len()],
            edge_energy,
            violations: Vec::new(),
            event_cap: 50_000_000,
            circuit,
        };
        for i in 0..sim.circuit.cells.len() {
            sim.eval_cell(CellId(i as u32), &[]);
        }
        sim
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Present value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Total switching energy so far.
    pub fn total_energy(&self) -> Joules {
        self.energy_by_domain.iter().copied().sum()
    }

    /// Per-domain energy and edge counts so far, in the shape of
    /// [`Simulator::energy_report`](crate::engine::Simulator::energy_report).
    pub fn energy_report(&self) -> EnergyReport {
        EnergyReport {
            rows: self
                .circuit
                .domains
                .iter()
                .zip(&self.energy_by_domain)
                .zip(&self.edges_by_domain)
                .map(|((domain, &energy), &edges)| EnergyRow {
                    domain: domain.clone(),
                    energy,
                    edges,
                })
                .collect(),
        }
    }

    /// Timing/protocol violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Replaces the runaway-protection event budget.
    pub fn set_event_cap(&mut self, cap: u64) {
        self.event_cap = cap;
    }

    /// Drives a primary input to `value` at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the net has a driver.
    pub fn poke(&mut self, net: NetId, value: Logic) {
        assert!(
            self.circuit.is_primary_input(net),
            "cannot poke net `{}`: it is driven by a cell",
            self.circuit.net_name(net)
        );
        self.schedule(net, value, SimTime::ZERO, DriveMode::Inertial);
    }

    /// Runs until the queue drains, returning the time of the last event.
    ///
    /// # Errors
    ///
    /// Returns [`OscillationError`] if the event budget is exhausted.
    pub fn run_to_quiescence(&mut self) -> Result<SimTime, OscillationError> {
        let mut consumed: u64 = 0;
        while !self.events.is_empty() {
            if consumed >= self.event_cap {
                let t = self.events.iter().map(|e| e.time).min().expect("non-empty");
                return Err(OscillationError {
                    events: consumed,
                    time: t,
                });
            }
            consumed += self.delta_cycle();
        }
        Ok(self.now)
    }

    /// One delta cycle, spelled out: take every event at the earliest
    /// pending timestamp in seq order, apply the survivors, then evaluate
    /// each affected cell once with its ascending changed-pin set.
    fn delta_cycle(&mut self) -> u64 {
        let t = self
            .events
            .iter()
            .map(|e| e.time)
            .min()
            .expect("delta_cycle on empty queue");
        let mut batch: Vec<RefEvent> = Vec::new();
        let mut rest: Vec<RefEvent> = Vec::new();
        for ev in self.events.drain(..) {
            if ev.time == t {
                batch.push(ev);
            } else {
                rest.push(ev);
            }
        }
        self.events = rest;
        batch.sort_by_key(|e| e.seq);
        // Phase A: apply in seq order, collecting (cell, changed pins) in
        // first-marking order.
        let mut dirty: Vec<(CellId, Vec<usize>)> = Vec::new();
        for ev in &batch {
            let ni = ev.net.index();
            if ev.gen != self.gens[ni] {
                continue; // stale: superseded by a later inertial drive
            }
            self.now = t;
            if self.values[ni] == ev.value {
                continue;
            }
            self.values[ni] = ev.value;
            let (rise, fall) = self.edge_energy[ni];
            let domain = self.circuit.nets[ni].domain.0 as usize;
            let edge = match ev.value {
                Logic::High => Some(rise),
                Logic::Low => Some(fall),
                Logic::X => None,
            };
            if let Some(energy) = edge {
                self.energy_by_domain[domain] += energy;
                self.edges_by_domain[domain] += 1;
            }
            for &f in self.circuit.fanout(ni) {
                let (cell, pin) = (f.cell, self.circuit.pin_of(f));
                match dirty.iter_mut().find(|(c, _)| *c == cell) {
                    Some((_, pins)) => pins.push(pin),
                    None => dirty.push((cell, vec![pin])),
                }
            }
        }
        // Phase B: one evaluation per dirty cell, ascending pin order, each
        // changed pin listed once (a net may transition twice in one
        // delta cycle).
        for (cell, mut pins) in dirty {
            pins.sort_unstable();
            pins.dedup();
            self.eval_cell(cell, &pins);
        }
        batch.len() as u64
    }

    fn eval_cell(&mut self, cell: CellId, triggers: &[usize]) {
        let mut drives: Vec<Drive> = Vec::new();
        {
            let input_values: Vec<Logic> = self
                .circuit
                .cell_inputs(cell.index())
                .iter()
                .map(|n| self.values[n.index()])
                .collect();
            let inst = &mut self.circuit.cells[cell.index()];
            let mut ctx = EvalCtx {
                now: self.now,
                input_values: &input_values,
                triggers,
                drives: &mut drives,
                violations: &mut self.violations,
                cell_name: CellName::Recorded(&self.circuit.names, inst.name),
            };
            inst.cell.eval(&mut ctx);
        }
        for d in drives {
            let net = self.circuit.cell_outputs(cell.index())[d.out_pin];
            self.schedule(net, d.value, d.delay, d.mode);
        }
    }

    fn schedule(&mut self, net: NetId, value: Logic, delay: SimTime, mode: DriveMode) {
        let gen = match mode {
            DriveMode::Inertial => {
                let g = &mut self.gens[net.index()];
                *g = g.wrapping_add(1);
                *g
            }
            DriveMode::Transport => self.gens[net.index()],
        };
        self.seq += 1;
        self.events.push(RefEvent {
            time: self.now + delay,
            seq: self.seq,
            net,
            value,
            gen,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitBuilder;
    use crate::library::CellLibrary;
    use maddpipe_tech::prelude::*;

    fn builder() -> CircuitBuilder {
        CircuitBuilder::new(CellLibrary::new(
            Technology::n22(),
            OperatingPoint::default(),
        ))
    }

    #[test]
    fn reference_inverter_chain_behaves() {
        let mut b = builder();
        let a = b.input("a");
        let n1 = b.inv("u0", a);
        let n2 = b.inv("u1", n1);
        let mut sim = ReferenceSimulator::new(b.build());
        sim.poke(a, Logic::Low);
        let t = sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(n2), Logic::Low);
        assert!(t > SimTime::ZERO);
        assert!(sim.total_energy().value() > 0.0);
    }

    #[test]
    fn reference_detects_oscillation() {
        let mut b = builder();
        let enable = b.input("enable");
        let loop_net = b.net("ring");
        let n0 = b.nand2("u0", [enable, loop_net]);
        let n1 = b.inv("u1", n0);
        let t = b.library_mut().timing(crate::library::CellClass::Inv);
        b.add_cell(
            "u2",
            Box::new(crate::cells::Inverter::new(t)),
            &[n1],
            &[loop_net],
        );
        let mut sim = ReferenceSimulator::new(b.build());
        sim.poke(enable, Logic::Low);
        sim.run_to_quiescence().unwrap();
        sim.set_event_cap(5_000);
        sim.poke(enable, Logic::High);
        assert!(sim.run_to_quiescence().is_err());
    }
}
