//! The [`Cell`] trait — the unit of behaviour in a netlist.
//!
//! A cell is anything with input pins, output pins and (possibly stateful)
//! behaviour: a NAND gate, a latch, a pulse generator, or a user-defined
//! macro-cell such as the paper's dual-rail dynamic-logic comparator. Cells
//! are deliberately *open for implementation* by downstream crates
//! (`maddpipe-core` models the DLC and the handshake controller as one
//! cell each), so the trait and its evaluation context are public.

use crate::logic::Logic;
use crate::time::SimTime;
use core::fmt;

/// How a scheduled output transition interacts with ones already in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveMode {
    /// Inertial delay: this drive supersedes (cancels) every pending
    /// transition on the same output. Standard-cell behaviour — pulses
    /// shorter than the gate delay are swallowed.
    Inertial,
    /// Transport delay: queue behind pending transitions without cancelling
    /// them. Needed by cells that emit multi-edge waveforms from a single
    /// trigger (e.g. a pulse generator schedules both its rising and falling
    /// edge at once).
    Transport,
}

/// One output transition requested by a cell during evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Drive {
    /// Index of the output pin being driven.
    pub out_pin: usize,
    /// Level the pin will take.
    pub value: Logic,
    /// Delay from *now* until the transition.
    pub delay: SimTime,
    /// Scheduling semantics.
    pub mode: DriveMode,
}

/// Category of a recorded timing violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Data changed inside the setup window of a sequential cell.
    Setup,
    /// Data changed inside the hold window of a sequential cell.
    Hold,
    /// Cell-specific illegal stimulus (e.g. write and read asserted at once).
    Protocol,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ViolationKind::Setup => "setup",
            ViolationKind::Hold => "hold",
            ViolationKind::Protocol => "protocol",
        })
    }
}

/// A timing/protocol violation recorded during simulation.
///
/// Violations do not stop the simulation — they are collected so tests and
/// experiments (e.g. the replica-RCD ablation) can assert on their presence
/// or absence.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// When the violation was detected.
    pub time: SimTime,
    /// Instance name of the offending cell.
    pub cell: String,
    /// Violation category.
    pub kind: ViolationKind,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} violation in `{}`: {}",
            self.time, self.kind, self.cell, self.detail
        )
    }
}

/// Evaluation context handed to [`Cell::eval`].
///
/// Provides the current time, resolved input-pin values, which pins
/// triggered the evaluation, and sinks for output drives and violation
/// reports.
///
/// The kernel batches all events of one timestamp into a *delta cycle* and
/// evaluates each affected cell once per delta, so several input pins may
/// have changed together: `triggers` lists every changed pin (ascending pin
/// order, each pin once). An empty list marks the power-up evaluation at
/// time zero.
pub struct EvalCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) input_values: &'a [Logic],
    pub(crate) triggers: &'a [usize],
    pub(crate) drives: &'a mut Vec<Drive>,
    pub(crate) violations: &'a mut Vec<Violation>,
    pub(crate) cell_name: &'a str,
}

impl<'a> EvalCtx<'a> {
    /// Builds a standalone context for unit-testing a [`Cell`]
    /// implementation outside a simulator. Drives and violations are
    /// appended to the provided buffers; `triggers` lists the input pins
    /// that changed this delta (empty = power-up).
    pub fn for_test(
        now: SimTime,
        input_values: &'a [Logic],
        triggers: &'a [usize],
        drives: &'a mut Vec<Drive>,
        violations: &'a mut Vec<Violation>,
        cell_name: &'a str,
    ) -> EvalCtx<'a> {
        EvalCtx {
            now,
            input_values,
            triggers,
            drives,
            violations,
            cell_name,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Value currently on input pin `pin`.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for this cell.
    #[inline]
    pub fn input(&self, pin: usize) -> Logic {
        self.input_values[pin]
    }

    /// All input values, in pin order.
    #[inline]
    pub fn inputs(&self) -> &[Logic] {
        self.input_values
    }

    /// The lowest-numbered input pin whose transition caused this
    /// evaluation, or `None` for the power-up evaluation at time zero.
    ///
    /// When several pins changed in the same delta cycle, prefer
    /// [`EvalCtx::changed`] / [`EvalCtx::is_edge`], which see every
    /// triggering pin rather than just the first.
    #[inline]
    pub fn trigger(&self) -> Option<usize> {
        self.triggers.first().copied()
    }

    /// Every input pin that changed this delta cycle, in ascending pin
    /// order. Each pin appears once, even when its net transitioned more
    /// than once in the delta cycle. Empty for the power-up evaluation.
    #[inline]
    pub fn triggers(&self) -> &[usize] {
        self.triggers
    }

    /// `true` when input `pin` changed value this delta cycle.
    #[inline]
    pub fn changed(&self, pin: usize) -> bool {
        self.triggers.contains(&pin)
    }

    /// `true` when `pin` just transitioned to `level` (edge detection).
    #[inline]
    pub fn is_edge(&self, pin: usize, level: Logic) -> bool {
        self.changed(pin) && self.input(pin) == level
    }

    /// Schedules an inertial transition on output `out_pin` after `delay`.
    #[inline]
    pub fn drive(&mut self, out_pin: usize, value: Logic, delay: SimTime) {
        self.drives.push(Drive {
            out_pin,
            value,
            delay,
            mode: DriveMode::Inertial,
        });
    }

    /// Schedules a transport-delay transition (queues behind pending edges).
    #[inline]
    pub fn drive_transport(&mut self, out_pin: usize, value: Logic, delay: SimTime) {
        self.drives.push(Drive {
            out_pin,
            value,
            delay,
            mode: DriveMode::Transport,
        });
    }

    /// Records a timing/protocol violation against this cell.
    pub fn report(&mut self, kind: ViolationKind, detail: impl Into<String>) {
        self.violations.push(Violation {
            time: self.now,
            cell: self.cell_name.to_owned(),
            kind,
            detail: detail.into(),
        });
    }
}

impl fmt::Debug for EvalCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalCtx")
            .field("now", &self.now)
            .field("cell", &self.cell_name)
            .field("inputs", &self.input_values)
            .field("triggers", &self.triggers)
            .finish()
    }
}

/// Behaviour of a netlist cell.
///
/// Implementations may keep internal state (latches, dynamic nodes, FSMs).
/// [`Cell::eval`] is called once at time zero with `trigger == None`, and
/// then whenever any connected input net changes value.
///
/// # Example
///
/// A two-input majority-with-memory cell (a Muller C-element) is about ten
/// lines; see [`crate::cells::CElement`] for the shipped implementation.
pub trait Cell: fmt::Debug {
    /// Number of input pins. Pin indices `0..num_inputs()` are valid.
    fn num_inputs(&self) -> usize;

    /// Number of output pins.
    fn num_outputs(&self) -> usize;

    /// Reacts to an input change (or to power-up when
    /// [`EvalCtx::trigger`] is `None`) by scheduling output drives.
    fn eval(&mut self, ctx: &mut EvalCtx<'_>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_display_contains_everything() {
        let v = Violation {
            time: SimTime::from_picos(10.0),
            cell: "lat0".into(),
            kind: ViolationKind::Setup,
            detail: "D moved 3 ps before G fell".into(),
        };
        let s = v.to_string();
        assert!(
            s.contains("setup") && s.contains("lat0") && s.contains("3 ps"),
            "{s}"
        );
    }

    #[test]
    fn ctx_edge_detection() {
        let mut drives = Vec::new();
        let mut violations = Vec::new();
        let inputs = [Logic::High, Logic::Low];
        let ctx = EvalCtx {
            now: SimTime::ZERO,
            input_values: &inputs,
            triggers: &[0],
            drives: &mut drives,
            violations: &mut violations,
            cell_name: "t",
        };
        assert!(ctx.is_edge(0, Logic::High));
        assert!(!ctx.is_edge(0, Logic::Low));
        assert!(!ctx.is_edge(1, Logic::Low), "pin 1 did not trigger");
        assert_eq!(ctx.trigger(), Some(0));
        assert!(ctx.changed(0) && !ctx.changed(1));
    }

    #[test]
    fn ctx_multi_pin_delta_triggers() {
        let mut drives = Vec::new();
        let mut violations = Vec::new();
        let inputs = [Logic::High, Logic::Low, Logic::High];
        let ctx = EvalCtx {
            now: SimTime::ZERO,
            input_values: &inputs,
            triggers: &[0, 2],
            drives: &mut drives,
            violations: &mut violations,
            cell_name: "t",
        };
        assert_eq!(ctx.trigger(), Some(0), "first changed pin");
        assert_eq!(ctx.triggers(), &[0, 2]);
        assert!(ctx.is_edge(0, Logic::High) && ctx.is_edge(2, Logic::High));
        assert!(!ctx.is_edge(1, Logic::Low), "pin 1 held its value");
    }

    #[test]
    fn ctx_drive_accumulates_in_order() {
        let mut drives = Vec::new();
        let mut violations = Vec::new();
        let inputs = [Logic::Low];
        let mut ctx = EvalCtx {
            now: SimTime::ZERO,
            input_values: &inputs,
            triggers: &[],
            drives: &mut drives,
            violations: &mut violations,
            cell_name: "t",
        };
        ctx.drive(0, Logic::High, SimTime::from_picos(5.0));
        ctx.drive_transport(0, Logic::Low, SimTime::from_picos(9.0));
        assert_eq!(drives.len(), 2);
        assert_eq!(drives[0].mode, DriveMode::Inertial);
        assert_eq!(drives[1].mode, DriveMode::Transport);
    }
}
