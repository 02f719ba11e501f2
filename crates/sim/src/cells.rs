//! Standard-cell implementations and builder sugar.
//!
//! Combinational gates use inertial drives (glitches shorter than the gate
//! delay vanish, as on silicon). Sequential/stateful cells — the D-latch
//! with setup checking, the Muller C-element, and the pulse generator that
//! models the paper's `GE` latch-enable generator (Fig. 5) — keep internal
//! state across evaluations. The one-hot SRAM [`ReadColumn`] of the
//! paper's decoder (Fig. 5 A/B) is a shipped cell too, so the kernel can
//! compile it like the gates, adders and latches.
//!
//! The logic functions the kernel's compiled tables share with these
//! cells are lookups indexed by the input levels: the buffer or inverter
//! (`unary`), the two-input gates (`Gate2::apply`) and the full adder
//! each read one table, built from [`logic`](crate::logic)'s operator
//! tables. The latch step takes its two changed-pin flags as plain
//! booleans, so the kernel reads them as two bits instead of searching a
//! trigger list.

use crate::cell::{Cell, EvalCtx, ViolationKind};
use crate::circuit::{CircuitBuilder, NetId, OutputSuffix};
use crate::library::{CellClass, SampledTiming};
use crate::logic::{Logic, AND, NOT, OR, XOR};
use crate::time::SimTime;
use std::fmt;

/// Drives the output according to the cell's sampled arcs: known values use
/// the matching edge arc, `X` uses the worst arc.
fn drive_resolved(ctx: &mut EvalCtx<'_>, pin: usize, value: Logic, t: SampledTiming) {
    ctx.drive(pin, value, t.for_value(value));
}

macro_rules! simple_gate {
    ($(#[$meta:meta])* $name:ident, $inputs:expr, |$vals:ident| $f:expr) => {
        $(#[$meta])*
        #[derive(Debug)]
        pub struct $name {
            timing: SampledTiming,
        }

        impl $name {
            /// Creates the gate with pre-sampled timing arcs.
            pub fn new(timing: SampledTiming) -> $name {
                $name { timing }
            }

            /// The pure logic function of this gate.
            #[inline]
            pub(crate) fn logic(v: &[Logic]) -> Logic {
                let $vals = v;
                $f
            }

            /// The sampled timing arcs of this instance.
            #[inline]
            pub(crate) fn timing(&self) -> SampledTiming {
                self.timing
            }
        }

        impl Cell for $name {
            fn num_inputs(&self) -> usize {
                $inputs
            }

            fn num_outputs(&self) -> usize {
                1
            }

            fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
                let out = Self::logic(ctx.inputs());
                drive_resolved(ctx, 0, out, self.timing);
            }
        }
    };
}

simple_gate!(
    /// Inverter.
    Inverter,
    1,
    |v| !v[0]
);

simple_gate!(
    /// Non-inverting buffer.
    Buffer,
    1,
    |v| v[0]
);

simple_gate!(
    /// 2-input NAND.
    Nand2,
    2,
    |v| !(v[0] & v[1])
);

simple_gate!(
    /// 3-input NAND.
    Nand3,
    3,
    |v| !(v[0] & v[1] & v[2])
);

simple_gate!(
    /// 4-input NAND.
    Nand4,
    4,
    |v| !(v[0] & v[1] & v[2] & v[3])
);

simple_gate!(
    /// 2-input NOR.
    Nor2,
    2,
    |v| !(v[0] | v[1])
);

simple_gate!(
    /// 3-input NOR.
    Nor3,
    3,
    |v| !(v[0] | v[1] | v[2])
);

simple_gate!(
    /// 2-input AND.
    And2,
    2,
    |v| v[0] & v[1]
);

simple_gate!(
    /// 2-input OR.
    Or2,
    2,
    |v| v[0] | v[1]
);

simple_gate!(
    /// 2-input XOR.
    Xor2,
    2,
    |v| v[0] ^ v[1]
);

simple_gate!(
    /// 2:1 multiplexer: output = `sel ? b : a` (inputs `[a, b, sel]`).
    Mux2,
    3,
    |v| match v[2].to_bool() {
        Some(false) => v[0],
        Some(true) => v[1],
        // Unknown select: output known only if both data inputs agree.
        None =>
            if v[0] == v[1] {
                v[0]
            } else {
                Logic::X
            },
    }
);

/// Constant driver (tie-high / tie-low).
#[derive(Debug)]
pub struct Tie {
    level: Logic,
}

impl Tie {
    /// Creates a constant driver of `level`.
    pub fn new(level: Logic) -> Tie {
        Tie { level }
    }
}

impl Cell for Tie {
    fn num_inputs(&self) -> usize {
        0
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        ctx.drive(0, self.level, SimTime::ZERO);
    }
}

/// Pure delay element with transport semantics — models a wire segment or a
/// sized repeater chain whose delay was computed externally (e.g. from the
/// Elmore model).
#[derive(Debug)]
pub struct DelayLine {
    delay: SimTime,
}

impl DelayLine {
    /// Creates a delay line with the given propagation delay.
    pub fn new(delay: SimTime) -> DelayLine {
        DelayLine { delay }
    }
}

impl Cell for DelayLine {
    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        let v = ctx.input(0);
        ctx.drive_transport(0, v, self.delay);
    }
}

/// `(a ^ b ^ cin, (a & b) | (cin & (a ^ b)))` for every input triple,
/// indexed by `[a][b][cin]` and built at compile time from the operator
/// tables.
const FULL_ADDER: [[[(Logic, Logic); 3]; 3]; 3] = {
    let mut table = [[[(Logic::X, Logic::X); 3]; 3]; 3];
    let mut i = 0;
    while i < 27 {
        let (a, b, cin) = (i / 9, i / 3 % 3, i % 3);
        let half = XOR[a][b] as usize;
        let carry = OR[AND[a][b] as usize][AND[cin][half] as usize];
        table[a][b][cin] = (XOR[half][cin], carry);
        i += 1;
    }
    table
};

/// The full-adder logic function: `(sum, carry)` of `a + b + cin`.
#[inline]
pub(crate) fn full_adder(a: Logic, b: Logic, cin: Logic) -> (Logic, Logic) {
    FULL_ADDER[a as usize][b as usize][cin as usize]
}

/// A buffer's output (`invert` false) or an inverter's (`invert` true)
/// for input `v`, looked up instead of branched on.
#[inline]
pub(crate) fn unary(invert: bool, v: Logic) -> Logic {
    const TABLE: [[Logic; 3]; 2] = [[Logic::Low, Logic::High, Logic::X], NOT];
    TABLE[usize::from(invert)][v as usize]
}

/// Mirror-adder full adder: inputs `[a, b, cin]`, outputs `[sum, carry]`.
///
/// The carry arc of a mirror adder is roughly half the sum arc — this
/// matters for the carry-save accumulate path, whose critical arc is the
/// *sum* output feeding the next pipeline stage.
#[derive(Debug)]
pub struct FullAdderCell {
    sum_timing: SampledTiming,
    carry_timing: SampledTiming,
}

impl FullAdderCell {
    /// Creates a full adder from the sum-arc timing; the carry arc is
    /// derived (0.55×).
    pub fn new(sum_timing: SampledTiming) -> FullAdderCell {
        let carry_timing = SampledTiming {
            rise: SimTime::from_femtos((sum_timing.rise.as_femtos() as f64 * 0.55) as u64),
            fall: SimTime::from_femtos((sum_timing.fall.as_femtos() as f64 * 0.55) as u64),
        };
        FullAdderCell {
            sum_timing,
            carry_timing,
        }
    }
}

impl Cell for FullAdderCell {
    fn num_inputs(&self) -> usize {
        3
    }

    fn num_outputs(&self) -> usize {
        2
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        let (sum, carry) = full_adder(ctx.input(0), ctx.input(1), ctx.input(2));
        drive_resolved(ctx, 0, sum, self.sum_timing);
        drive_resolved(ctx, 1, carry, self.carry_timing);
    }
}

/// The evolving state of a [`DLatch`]: its setup window and when D last
/// changed. `Copy`, so the kernel's compiled cell table holds it inline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LatchState {
    setup: SimTime,
    last_d_change: Option<SimTime>,
}

/// What one latch evaluation asks of its Q output.
#[derive(Debug)]
pub(crate) enum LatchStep {
    /// Opaque: Q holds, nothing is driven.
    Hold,
    /// Drive Q to this value.
    Drive(Logic),
    /// D moved inside the setup window before G fell: report a
    /// [`ViolationKind::Setup`] with this detail and drive Q to `X`.
    SetupViolation(String),
}

impl LatchState {
    /// One evaluation at `now` with inputs `d`, `g`; `d_changed` and
    /// `g_changed` say which pins changed this delta cycle.
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        d: Logic,
        g: Logic,
        d_changed: bool,
        g_changed: bool,
    ) -> LatchStep {
        if d_changed {
            self.last_d_change = Some(now);
        }
        match g {
            // Transparent: follow D.
            Logic::High => LatchStep::Drive(d),
            // Capture on the falling enable edge.
            Logic::Low if g_changed => match self.last_d_change.map(|t| now.since(t)) {
                Some(stable_for) if stable_for < self.setup => LatchStep::SetupViolation(format!(
                    "D stable for only {stable_for} before G fell (setup window {})",
                    self.setup
                )),
                _ => LatchStep::Drive(d),
            },
            // Opaque: D changes are ignored.
            Logic::Low => LatchStep::Hold,
            Logic::X => LatchStep::Drive(Logic::X),
        }
    }
}

/// Level-sensitive D-latch with setup checking: inputs `[d, g]`, output `q`.
///
/// Transparent while `g` is high. When `g` falls, the cell checks that `d`
/// has been stable for at least the setup window and records a
/// [`ViolationKind::Setup`] violation otherwise — the failure mode the
/// paper's per-column RCD timing is designed to prevent "over a wide range
/// of PVT conditions" (§III-C).
#[derive(Debug)]
pub struct DLatch {
    timing: SampledTiming,
    state: LatchState,
}

impl DLatch {
    /// Creates a latch with the given D→Q timing and setup window.
    pub fn new(timing: SampledTiming, setup: SimTime) -> DLatch {
        DLatch {
            timing,
            state: LatchState {
                setup,
                last_d_change: None,
            },
        }
    }
}

impl Cell for DLatch {
    fn num_inputs(&self) -> usize {
        2
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        let (d, g) = (ctx.input(0), ctx.input(1));
        match self
            .state
            .step(ctx.now(), d, g, ctx.changed(0), ctx.changed(1))
        {
            LatchStep::Hold => {}
            LatchStep::Drive(q) => drive_resolved(ctx, 0, q, self.timing),
            LatchStep::SetupViolation(detail) => {
                ctx.report(ViolationKind::Setup, detail);
                drive_resolved(ctx, 0, Logic::X, self.timing);
            }
        }
    }
}

/// Two-input Muller C-element: output goes high when *both* inputs are high,
/// low when both are low, and holds otherwise. The fundamental state-holding
/// primitive of asynchronous handshake circuits.
#[derive(Debug)]
pub struct CElement {
    timing: SampledTiming,
    state: Logic,
}

impl CElement {
    /// Creates a C-element initialised to `reset_state`.
    pub fn new(timing: SampledTiming, reset_state: Logic) -> CElement {
        CElement {
            timing,
            state: reset_state,
        }
    }
}

impl Cell for CElement {
    fn num_inputs(&self) -> usize {
        2
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        let (a, b) = (ctx.input(0), ctx.input(1));
        let next = if a == Logic::High && b == Logic::High {
            Logic::High
        } else if a == Logic::Low && b == Logic::Low {
            Logic::Low
        } else {
            self.state
        };
        self.state = next;
        drive_resolved(ctx, 0, next, self.timing);
    }
}

/// Edge-triggered pulse generator: on each rising edge of the trigger input
/// it emits a single high pulse of fixed width after a fixed delay.
///
/// Models the delay-gate + latch-enable (`GE`) generator of the paper's
/// decoder column (Fig. 5): the RCD transition fires this cell, which then
/// strobes the CSA output latches.
#[derive(Debug)]
pub struct PulseGen {
    delay: SimTime,
    width: SimTime,
}

impl PulseGen {
    /// Creates a pulse generator.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero — a zero-width pulse would be a no-op and
    /// always indicates a construction bug.
    pub fn new(delay: SimTime, width: SimTime) -> PulseGen {
        assert!(width > SimTime::ZERO, "pulse width must be positive");
        PulseGen { delay, width }
    }
}

impl Cell for PulseGen {
    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        if ctx.trigger().is_none() {
            // Power-up: establish a low output.
            ctx.drive(0, Logic::Low, SimTime::ZERO);
            return;
        }
        if ctx.is_edge(0, Logic::High) {
            ctx.drive_transport(0, Logic::High, self.delay);
            ctx.drive_transport(0, Logic::Low, self.delay + self.width);
        }
    }
}

/// Read wordlines (stored bits) of a [`ReadColumn`].
pub const READ_COLUMN_ROWS: usize = 16;

/// One column of a lookup-table SRAM with a one-hot, full-swing read port
/// (paper Fig. 5 A/B): a precharged differential read-bitline pair over
/// [`READ_COLUMN_ROWS`] stored bits.
///
/// * Inputs: pin 0 = `PCHE` (active-high precharge), pins `1..=16` =
///   `RWL[0..16]` (one-hot read wordlines).
/// * Outputs: pin 0 = `RBL`, pin 1 = `RBLB`.
///
/// With `PCHE` high both rails precharge high; a wordline asserted at the
/// same time is reported as a crowbar [`ViolationKind::Protocol`]. With
/// `PCHE` low, the one asserted wordline fully discharges one rail, `RBLB`
/// for a stored 1 and `RBL` for a stored 0; several asserted wordlines are
/// a protocol violation and drive nothing, and none leaves the rails at
/// their precharged level. An unknown `PCHE` drives both rails to `X`.
///
/// The kernel compiles the column into its cell table, so the stored word
/// lives there once the simulator is built; reprogram it with
/// [`Simulator::program_column`](crate::engine::Simulator::program_column).
#[derive(Debug, Clone, Copy)]
pub struct ReadColumn {
    word: u16,
    t_discharge: SimTime,
    t_precharge: SimTime,
}

/// What one read-column evaluation asks of its rails.
#[derive(Debug)]
pub(crate) enum ColumnStep {
    /// Both rails go to this level after this delay, `RBL` first.
    Precharge(Logic, SimTime),
    /// Output pin `0` (`RBL`) or `1` (`RBLB`) falls after this delay.
    Discharge(usize, SimTime),
    /// Nothing is driven.
    Hold,
}

impl ReadColumn {
    /// Creates a column storing `word` (bit `r` is row `r`) with sampled
    /// discharge and precharge delays.
    pub fn new(word: u16, t_discharge: SimTime, t_precharge: SimTime) -> ReadColumn {
        ReadColumn {
            word,
            t_discharge,
            t_precharge,
        }
    }

    /// Replaces the stored word.
    pub(crate) fn set_word(&mut self, word: u16) {
        self.word = word;
    }

    /// The asserted wordlines as a mask (bit `r` set when `RWL[r]` is
    /// high; `X` counts as not asserted).
    #[inline]
    pub(crate) fn asserted_rows(rwl: impl Iterator<Item = Logic>) -> u16 {
        rwl.enumerate()
            .fold(0, |mask, (r, v)| mask | u16::from(v.is_high()) << r)
    }

    /// One evaluation with precharge level `pche` and asserted-row mask
    /// `rows`, plus the detail of the protocol violation it reports, if
    /// any. The violation text is only built on those (cold) paths.
    #[inline]
    pub(crate) fn step(&self, pche: Logic, rows: u16) -> (ColumnStep, Option<String>) {
        let row_list = || {
            (0..READ_COLUMN_ROWS)
                .filter(|r| rows >> r & 1 == 1)
                .collect::<Vec<_>>()
        };
        match pche {
            Logic::High => {
                let crowbar = (rows != 0).then(|| {
                    format!(
                        "precharge asserted while RWL{:?} active — crowbar current",
                        row_list()
                    )
                });
                (
                    ColumnStep::Precharge(Logic::High, self.t_precharge),
                    crowbar,
                )
            }
            Logic::Low => match rows.count_ones() {
                0 => (ColumnStep::Hold, None),
                // Stored 1 discharges RBLB, stored 0 discharges RBL
                // (differential read: exactly one rail falls).
                1 => {
                    let stored = self.word >> rows.trailing_zeros() & 1 == 1;
                    (
                        ColumnStep::Discharge(usize::from(stored), self.t_discharge),
                        None,
                    )
                }
                _ => (
                    ColumnStep::Hold,
                    Some(format!(
                        "multiple read wordlines asserted: {:?}",
                        row_list()
                    )),
                ),
            },
            Logic::X => (ColumnStep::Precharge(Logic::X, self.t_precharge), None),
        }
    }
}

impl Cell for ReadColumn {
    fn num_inputs(&self) -> usize {
        1 + READ_COLUMN_ROWS
    }

    fn num_outputs(&self) -> usize {
        2
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        let rows = Self::asserted_rows(ctx.inputs()[1..].iter().copied());
        let (step, violation) = self.step(ctx.input(0), rows);
        if let Some(detail) = violation {
            ctx.report(ViolationKind::Protocol, detail);
        }
        match step {
            ColumnStep::Precharge(v, delay) => {
                ctx.drive(0, v, delay);
                ctx.drive(1, v, delay);
            }
            ColumnStep::Discharge(pin, delay) => ctx.drive(pin, Logic::Low, delay),
            ColumnStep::Hold => {}
        }
    }
}

macro_rules! cell_kind {
    ($($(#[$meta:meta])* $variant:ident($inner:ty)),+ $(,)?) => {
        /// Statically-dispatched behaviour of a netlist cell.
        ///
        /// The event kernel spends most of its time in [`CellKind::eval`],
        /// so the shipped standard cells are enum variants the compiler can
        /// dispatch with a jump table and inline — no vtable, no heap
        /// indirection. Cells defined outside this crate (dual-rail
        /// comparators, handshake controllers) ride in through the
        /// [`CellKind::Dynamic`] escape hatch, which preserves the open
        /// [`Cell`] trait at the cost of one virtual call per evaluation.
        #[derive(Debug)]
        pub enum CellKind {
            $($(#[$meta])* $variant($inner),)+
            /// Escape hatch: any boxed [`Cell`] implementation.
            Dynamic(Box<dyn Cell>),
        }

        impl CellKind {
            /// Number of input pins.
            pub fn num_inputs(&self) -> usize {
                match self {
                    $(CellKind::$variant(c) => c.num_inputs(),)+
                    CellKind::Dynamic(c) => c.num_inputs(),
                }
            }

            /// Number of output pins.
            pub fn num_outputs(&self) -> usize {
                match self {
                    $(CellKind::$variant(c) => c.num_outputs(),)+
                    CellKind::Dynamic(c) => c.num_outputs(),
                }
            }

            /// Reacts to input changes (or power-up) by scheduling drives —
            /// see [`Cell::eval`].
            #[inline]
            pub fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
                match self {
                    $(CellKind::$variant(c) => c.eval(ctx),)+
                    CellKind::Dynamic(c) => c.eval(ctx),
                }
            }

            /// The shape of this cell as seen by the kernel's compiled
            /// tables: a 1-input gate, a commutative 2-input gate, a full
            /// adder, a latch, a read column, or anything else.
            pub(crate) fn shape(&self) -> GateShape {
                match self {
                    CellKind::Inverter(g) => GateShape::Unary {
                        invert: true,
                        timing: g.timing(),
                    },
                    CellKind::Buffer(g) => GateShape::Unary {
                        invert: false,
                        timing: g.timing(),
                    },
                    CellKind::Nand2(g) => GateShape::Binary {
                        op: Gate2::Nand,
                        timing: g.timing(),
                    },
                    CellKind::Nor2(g) => GateShape::Binary {
                        op: Gate2::Nor,
                        timing: g.timing(),
                    },
                    CellKind::And2(g) => GateShape::Binary {
                        op: Gate2::And,
                        timing: g.timing(),
                    },
                    CellKind::Or2(g) => GateShape::Binary {
                        op: Gate2::Or,
                        timing: g.timing(),
                    },
                    CellKind::Xor2(g) => GateShape::Binary {
                        op: Gate2::Xor,
                        timing: g.timing(),
                    },
                    CellKind::FullAdder(fa) => GateShape::FullAdder {
                        sum_timing: fa.sum_timing,
                        carry_timing: fa.carry_timing,
                    },
                    CellKind::DLatch(l) => GateShape::Latch {
                        timing: l.timing,
                        state: l.state,
                    },
                    CellKind::ReadColumn(col) => GateShape::Column(*col),
                    _ => GateShape::Other,
                }
            }

            /// For the stateless single-output combinational gates that the
            /// kernel's compiled [`GateShape`] tables do *not* cover (the
            /// wider NAND/NOR gates and the mux), the output value and
            /// inertial delay implied by `inputs` — the kernel schedules it
            /// directly, skipping the evaluation-context and drive-buffer
            /// round trip. `None` for every other cell; the 1- and 2-input
            /// gates never reach this because `CellFast` dispatches them
            /// first.
            #[inline]
            pub(crate) fn gate_response(&self, inputs: &[Logic]) -> Option<(Logic, SimTime)> {
                macro_rules! arm {
                    ($g:expr, $gate:ident) => {{
                        let v = $gate::logic(inputs);
                        Some((v, $g.timing().for_value(v)))
                    }};
                }
                match self {
                    CellKind::Nand3(g) => arm!(g, Nand3),
                    CellKind::Nand4(g) => arm!(g, Nand4),
                    CellKind::Nor3(g) => arm!(g, Nor3),
                    CellKind::Mux2(g) => arm!(g, Mux2),
                    _ => None,
                }
            }
        }

        $(impl From<$inner> for CellKind {
            fn from(cell: $inner) -> CellKind {
                CellKind::$variant(cell)
            }
        })+

        impl From<Box<dyn Cell>> for CellKind {
            fn from(cell: Box<dyn Cell>) -> CellKind {
                CellKind::Dynamic(cell)
            }
        }
    };
}

cell_kind!(
    /// Inverter.
    Inverter(Inverter),
    /// Buffer.
    Buffer(Buffer),
    /// 2-input NAND.
    Nand2(Nand2),
    /// 3-input NAND.
    Nand3(Nand3),
    /// 4-input NAND.
    Nand4(Nand4),
    /// 2-input NOR.
    Nor2(Nor2),
    /// 3-input NOR.
    Nor3(Nor3),
    /// 2-input AND.
    And2(And2),
    /// 2-input OR.
    Or2(Or2),
    /// 2-input XOR.
    Xor2(Xor2),
    /// 2:1 multiplexer.
    Mux2(Mux2),
    /// Mirror-adder full adder.
    FullAdder(FullAdderCell),
    /// Level-sensitive D-latch.
    DLatch(DLatch),
    /// Muller C-element.
    CElement(CElement),
    /// Edge-triggered pulse generator.
    PulseGen(PulseGen),
    /// Transport delay line.
    DelayLine(DelayLine),
    /// Constant tie cell.
    Tie(Tie),
    /// One-hot SRAM read column.
    ReadColumn(ReadColumn),
);

/// A commutative two-input gate function, for the kernel's compiled
/// fanout table. The discriminant indexes [`Gate2::TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Gate2 {
    /// NAND.
    Nand = 0,
    /// NOR.
    Nor = 1,
    /// AND.
    And = 2,
    /// OR.
    Or = 3,
    /// XOR.
    Xor = 4,
}

impl Gate2 {
    /// Each gate's truth table, indexed by `[op][a][b]`; NAND and NOR are
    /// the complements of the AND and OR tables.
    const TABLE: [[[Logic; 3]; 3]; 5] = {
        use Logic::{High as H, Low as L, X};
        [
            [[H, H, H], [H, L, X], [H, X, X]],
            [[H, L, X], [L, L, L], [X, L, X]],
            AND,
            OR,
            XOR,
        ]
    };

    /// Applies the gate function (operand order is irrelevant — every
    /// variant is commutative).
    #[inline]
    pub(crate) fn apply(self, a: Logic, b: Logic) -> Logic {
        Self::TABLE[self as usize][a as usize][b as usize]
    }
}

/// How a cell looks to the kernel's compiled tables.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GateShape {
    /// A 1-input, 1-output stateless gate (inverter or buffer).
    Unary {
        /// `true` for an inverter.
        invert: bool,
        /// Sampled timing arcs.
        timing: SampledTiming,
    },
    /// A commutative 2-input, 1-output stateless gate.
    Binary {
        /// The gate function.
        op: Gate2,
        /// Sampled timing arcs.
        timing: SampledTiming,
    },
    /// A full adder (inputs `[a, b, cin]`, outputs `[sum, carry]`).
    FullAdder {
        /// Sum-arc timing.
        sum_timing: SampledTiming,
        /// Carry-arc timing.
        carry_timing: SampledTiming,
    },
    /// A D-latch (inputs `[d, g]`, output `q`).
    Latch {
        /// D→Q timing.
        timing: SampledTiming,
        /// The latch's state when the table was compiled.
        state: LatchState,
    },
    /// A read column (inputs `[pche, rwl0..rwl15]`, outputs
    /// `[rbl, rblb]`), with its word when the table was compiled.
    Column(ReadColumn),
    /// Anything else — evaluated through the generic path.
    Other,
}

impl GateShape {
    /// `true` when the cell's evaluation may read its trigger list: the
    /// latch and every cell on the generic path. The kernel keeps
    /// changed-pin bits only for these; the compiled gates, full adders
    /// and read columns are functions of their input values alone.
    pub(crate) fn reads_triggers(&self) -> bool {
        matches!(self, GateShape::Latch { .. } | GateShape::Other)
    }
}

macro_rules! builder_gate {
    ($(#[$meta:meta])* $fn_name:ident, $cell:ident, $class:ident, $n:expr) => {
        $(#[$meta])*
        pub fn $fn_name(&mut self, name: impl fmt::Display, inputs: [NetId; $n]) -> NetId {
            let t = self.library_mut().timing(CellClass::$class);
            let y = self.output_net(OutputSuffix::Y);
            self.add_cell_kind(name, $cell::new(t), &inputs, &[y]);
            y
        }
    };
}

/// Convenience constructors: each instantiates a standard cell with timing
/// sampled from the builder's library and returns the created output net,
/// which is named after the cell plus its pin suffix (`name.y`, `name.q`,
/// `name.s` / `name.c`, `name.p`) without storing that name.
impl CircuitBuilder {
    builder_gate!(
        /// Adds an inverter; returns its output net.
        inv_gate, Inverter, Inv, 1
    );
    builder_gate!(
        /// Adds a buffer; returns its output net.
        buf_gate, Buffer, Buf, 1
    );
    builder_gate!(
        /// Adds a 2-input NAND; returns its output net.
        nand2, Nand2, Nand2, 2
    );
    builder_gate!(
        /// Adds a 3-input NAND; returns its output net.
        nand3, Nand3, Nand3, 3
    );
    builder_gate!(
        /// Adds a 4-input NAND; returns its output net.
        nand4, Nand4, Nand4, 4
    );
    builder_gate!(
        /// Adds a 2-input NOR; returns its output net.
        nor2, Nor2, Nor2, 2
    );
    builder_gate!(
        /// Adds a 3-input NOR; returns its output net.
        nor3, Nor3, Nor3, 3
    );
    builder_gate!(
        /// Adds a 2-input AND; returns its output net.
        and2, And2, And2, 2
    );
    builder_gate!(
        /// Adds a 2-input OR; returns its output net.
        or2, Or2, Or2, 2
    );
    builder_gate!(
        /// Adds a 2-input XOR; returns its output net.
        xor2, Xor2, Xor2, 2
    );

    /// Adds an inverter (short alias for [`CircuitBuilder::inv_gate`]).
    pub fn inv(&mut self, name: impl fmt::Display, a: NetId) -> NetId {
        self.inv_gate(name, [a])
    }

    /// Adds a 2:1 mux (`sel ? b : a`); returns its output net.
    pub fn mux2(&mut self, name: impl fmt::Display, a: NetId, b: NetId, sel: NetId) -> NetId {
        let t = self.library_mut().timing(CellClass::Mux2);
        let y = self.output_net(OutputSuffix::Y);
        self.add_cell_kind(name, Mux2::new(t), &[a, b, sel], &[y]);
        y
    }

    /// Adds a full adder; returns `(sum, carry)` nets.
    pub fn full_adder(
        &mut self,
        name: impl fmt::Display,
        a: NetId,
        b: NetId,
        cin: NetId,
    ) -> (NetId, NetId) {
        let t = self.library_mut().timing(CellClass::FullAdder);
        let s = self.output_net(OutputSuffix::S);
        let c = self.output_net(OutputSuffix::C);
        self.add_cell_kind(name, FullAdderCell::new(t), &[a, b, cin], &[s, c]);
        (s, c)
    }

    /// Adds a level-sensitive D-latch with the library's default setup
    /// window (one latch delay); returns the Q net.
    pub fn latch(&mut self, name: impl fmt::Display, d: NetId, g: NetId) -> NetId {
        let t = self.library_mut().timing(CellClass::Latch);
        let setup = t.worst();
        let q = self.output_net(OutputSuffix::Q);
        self.add_cell_kind(name, DLatch::new(t, setup), &[d, g], &[q]);
        q
    }

    /// Adds a Muller C-element reset to `reset_state`; returns its output.
    pub fn c_element(
        &mut self,
        name: impl fmt::Display,
        a: NetId,
        b: NetId,
        reset_state: Logic,
    ) -> NetId {
        let t = self.library_mut().timing(CellClass::CElement);
        let q = self.output_net(OutputSuffix::Q);
        self.add_cell_kind(name, CElement::new(t, reset_state), &[a, b], &[q]);
        q
    }

    /// Adds a pulse generator; returns the pulse net.
    pub fn pulse_gen(
        &mut self,
        name: impl fmt::Display,
        trigger: NetId,
        delay: SimTime,
        width: SimTime,
    ) -> NetId {
        let p = self.output_net(OutputSuffix::P);
        self.add_cell_kind(name, PulseGen::new(delay, width), &[trigger], &[p]);
        p
    }

    /// Adds a transport delay line; returns the delayed net.
    pub fn delay_line(&mut self, name: impl fmt::Display, input: NetId, delay: SimTime) -> NetId {
        let y = self.output_net(OutputSuffix::Y);
        self.add_cell_kind(name, DelayLine::new(delay), &[input], &[y]);
        y
    }

    /// Adds a constant tie cell; returns the constant net.
    pub fn tie(&mut self, name: impl fmt::Display, level: Logic) -> NetId {
        let y = self.output_net(OutputSuffix::Y);
        self.add_cell_kind(name, Tie::new(level), &[], &[y]);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_timing() -> SampledTiming {
        SampledTiming {
            rise: SimTime::from_picos(10.0),
            fall: SimTime::from_picos(8.0),
        }
    }

    fn eval_once(
        cell: &mut dyn Cell,
        inputs: &[Logic],
        triggers: &[usize],
    ) -> Vec<crate::cell::Drive> {
        let mut drives = Vec::new();
        let mut violations = Vec::new();
        let mut ctx = EvalCtx {
            now: SimTime::from_picos(100.0),
            input_values: inputs,
            triggers,
            drives: &mut drives,
            violations: &mut violations,
            cell_name: "dut",
        };
        cell.eval(&mut ctx);
        drives
    }

    #[test]
    fn gate_truth_tables() {
        let t = sample_timing();
        let cases: Vec<(Box<dyn Cell>, Vec<Logic>, Logic)> = vec![
            (Box::new(Inverter::new(t)), vec![Logic::High], Logic::Low),
            (
                Box::new(Nand2::new(t)),
                vec![Logic::High, Logic::High],
                Logic::Low,
            ),
            (
                Box::new(Nand2::new(t)),
                vec![Logic::Low, Logic::X],
                Logic::High,
            ),
            (
                Box::new(Nor2::new(t)),
                vec![Logic::Low, Logic::Low],
                Logic::High,
            ),
            (
                Box::new(Xor2::new(t)),
                vec![Logic::High, Logic::Low],
                Logic::High,
            ),
            (
                Box::new(Nand4::new(t)),
                vec![Logic::High, Logic::High, Logic::High, Logic::Low],
                Logic::High,
            ),
        ];
        for (mut cell, inputs, expected) in cases {
            let drives = eval_once(cell.as_mut(), &inputs, &[0]);
            assert_eq!(drives.len(), 1);
            assert_eq!(drives[0].value, expected, "inputs {inputs:?}");
        }
    }

    #[test]
    fn rise_and_fall_use_their_arcs() {
        let t = sample_timing();
        let mut inv = Inverter::new(t);
        let high = eval_once(&mut inv, &[Logic::Low], &[0]);
        assert_eq!(high[0].delay, t.rise);
        let low = eval_once(&mut inv, &[Logic::High], &[0]);
        assert_eq!(low[0].delay, t.fall);
    }

    #[test]
    fn mux_handles_unknown_select() {
        let t = sample_timing();
        let mut mux = Mux2::new(t);
        let same = eval_once(&mut mux, &[Logic::High, Logic::High, Logic::X], &[2]);
        assert_eq!(same[0].value, Logic::High, "agreeing data defeats X select");
        let diff = eval_once(&mut mux, &[Logic::High, Logic::Low, Logic::X], &[2]);
        assert_eq!(diff[0].value, Logic::X);
    }

    #[test]
    fn full_adder_is_exact_and_carry_is_faster() {
        let t = sample_timing();
        for a in 0..2u8 {
            for b in 0..2u8 {
                for c in 0..2u8 {
                    let mut fa = FullAdderCell::new(t);
                    let inputs = [
                        Logic::from_bool(a == 1),
                        Logic::from_bool(b == 1),
                        Logic::from_bool(c == 1),
                    ];
                    let drives = eval_once(&mut fa, &inputs, &[0]);
                    let sum = drives.iter().find(|d| d.out_pin == 0).unwrap();
                    let carry = drives.iter().find(|d| d.out_pin == 1).unwrap();
                    let total = a + b + c;
                    assert_eq!(sum.value, Logic::from_bool(total & 1 == 1));
                    assert_eq!(carry.value, Logic::from_bool(total >= 2));
                    assert!(carry.delay < sum.delay);
                }
            }
        }
    }

    const ALL: [Logic; 3] = [Logic::Low, Logic::High, Logic::X];

    /// The buffer and inverter over every level, and each two-input gate
    /// over every input pair: rows are `a` and columns `b`, both in `ALL`
    /// order.
    #[test]
    fn gate2_ops_match_their_truth_tables() {
        use Logic::{High as H, Low as L, X};
        assert_eq!(ALL.map(|v| unary(false, v)), ALL);
        assert_eq!(ALL.map(|v| unary(true, v)), [H, L, X]);
        let table = |op: Gate2| ALL.map(|a| ALL.map(|b| op.apply(a, b)));
        assert_eq!(table(Gate2::Nand), [[H, H, H], [H, L, X], [H, X, X]]);
        assert_eq!(table(Gate2::Nor), [[H, L, X], [L, L, L], [X, L, X]]);
        assert_eq!(table(Gate2::And), [[L, L, L], [L, H, X], [L, X, X]]);
        assert_eq!(table(Gate2::Or), [[L, H, X], [H, H, H], [X, H, X]]);
        assert_eq!(table(Gate2::Xor), [[L, H, X], [H, L, X], [X, X, X]]);
    }

    /// `full_adder` over all 27 input triples, as VCD characters: one
    /// group per `a`, `b` then `cin` in `ALL` order inside it. The carry
    /// is pessimistic about `X` (`1 + X + 1` carries `x`, not `1`).
    #[test]
    fn full_adder_matches_its_truth_table() {
        let (mut sum, mut carry) = (String::new(), String::new());
        for a in ALL {
            for b in ALL {
                for cin in ALL {
                    let (s, c) = full_adder(a, b, cin);
                    sum.push(s.vcd_char());
                    carry.push(c.vcd_char());
                }
            }
            sum.push(' ');
            carry.push(' ');
        }
        assert_eq!(sum.trim_end(), "01x10xxxx 10x01xxxx xxxxxxxxx");
        assert_eq!(carry.trim_end(), "00001x0xx 01x111xxx 0xxxxxxxx");
    }

    /// `LatchState::step` over every `g` × `d` × `d_changed` ×
    /// `g_changed`, with D last changed never, inside and outside the
    /// setup window. One group per `g`; inside it `d` in `ALL` order, then
    /// `d_changed`, then `g_changed` (`false` first). `.` is a hold, a
    /// level a drive, `V` a setup violation.
    #[test]
    fn latch_step_matches_its_table() {
        let ps = SimTime::from_picos;
        let (setup, now) = (ps(50.0), ps(1000.0));
        let cases = [
            (None, ".0.V.1.V.x.V 00001111xxxx xxxxxxxxxxxx"),
            (Some(ps(990.0)), ".V.V.V.V.V.V 00001111xxxx xxxxxxxxxxxx"),
            (Some(ps(900.0)), ".0.V.1.V.x.V 00001111xxxx xxxxxxxxxxxx"),
        ];
        for (last, expected) in cases {
            let mut got = String::new();
            for g in ALL {
                for d in ALL {
                    for d_changed in [false, true] {
                        for g_changed in [false, true] {
                            let mut state = LatchState {
                                setup,
                                last_d_change: last,
                            };
                            got.push(match state.step(now, d, g, d_changed, g_changed) {
                                LatchStep::Hold => '.',
                                LatchStep::Drive(q) => q.vcd_char(),
                                LatchStep::SetupViolation(_) => 'V',
                            });
                            let moved = if d_changed { Some(now) } else { last };
                            assert_eq!(state.last_d_change, moved, "D change time");
                        }
                    }
                }
                got.push(' ');
            }
            assert_eq!(got.trim_end(), expected, "D last changed at {last:?}");
        }
        let mut state = LatchState {
            setup,
            last_d_change: Some(ps(990.0)),
        };
        let LatchStep::SetupViolation(detail) =
            state.step(now, Logic::High, Logic::Low, false, true)
        else {
            panic!("a falling G 10 ps after D moved violates a 50 ps window");
        };
        assert_eq!(
            detail,
            "D stable for only 10.000 ps before G fell (setup window 50.000 ps)"
        );
    }

    #[test]
    fn latch_is_transparent_then_opaque() {
        let t = sample_timing();
        let mut latch = DLatch::new(t, SimTime::from_picos(5.0));
        // Transparent: G high, D high → Q high.
        let d = eval_once(&mut latch, &[Logic::High, Logic::High], &[0]);
        assert_eq!(d[0].value, Logic::High);
        // Opaque: D change with G low produces no drive.
        let none = eval_once(&mut latch, &[Logic::Low, Logic::Low], &[0]);
        assert!(none.is_empty(), "latch must ignore D while opaque");
    }

    #[test]
    fn latch_setup_violation_reported() {
        let t = sample_timing();
        let mut latch = DLatch::new(t, SimTime::from_picos(50.0));
        let mut drives = Vec::new();
        let mut violations = Vec::new();
        // D changes at t=100 ps...
        {
            let mut ctx = EvalCtx {
                now: SimTime::from_picos(100.0),
                input_values: &[Logic::High, Logic::High],
                triggers: &[0],
                drives: &mut drives,
                violations: &mut violations,
                cell_name: "lat",
            };
            latch.eval(&mut ctx);
        }
        // ...and G falls at t=110 ps — only 10 ps of stability, needs 50.
        {
            let mut ctx = EvalCtx {
                now: SimTime::from_picos(110.0),
                input_values: &[Logic::High, Logic::Low],
                triggers: &[1],
                drives: &mut drives,
                violations: &mut violations,
                cell_name: "lat",
            };
            latch.eval(&mut ctx);
        }
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::Setup);
    }

    #[test]
    fn c_element_holds_state() {
        let t = sample_timing();
        let mut c = CElement::new(t, Logic::Low);
        let up = eval_once(&mut c, &[Logic::High, Logic::High], &[0]);
        assert_eq!(up[0].value, Logic::High);
        // Disagreeing inputs: hold previous state (High).
        let hold = eval_once(&mut c, &[Logic::Low, Logic::High], &[0]);
        assert_eq!(hold[0].value, Logic::High);
        let down = eval_once(&mut c, &[Logic::Low, Logic::Low], &[1]);
        assert_eq!(down[0].value, Logic::Low);
    }

    #[test]
    fn pulse_gen_emits_both_edges() {
        let mut p = PulseGen::new(SimTime::from_picos(5.0), SimTime::from_picos(20.0));
        let drives = eval_once(&mut p, &[Logic::High], &[0]);
        assert_eq!(drives.len(), 2);
        assert_eq!(drives[0].value, Logic::High);
        assert_eq!(drives[0].delay, SimTime::from_picos(5.0));
        assert_eq!(drives[1].value, Logic::Low);
        assert_eq!(drives[1].delay, SimTime::from_picos(25.0));
        // Falling trigger edge: nothing.
        let none = eval_once(&mut p, &[Logic::Low], &[0]);
        assert!(none.is_empty());
    }

    #[test]
    #[should_panic(expected = "pulse width must be positive")]
    fn zero_width_pulse_rejected() {
        let _ = PulseGen::new(SimTime::ZERO, SimTime::ZERO);
    }

    #[test]
    fn delay_line_uses_transport_mode() {
        let mut dl = DelayLine::new(SimTime::from_picos(7.0));
        let drives = eval_once(&mut dl, &[Logic::High], &[0]);
        assert_eq!(drives[0].mode, crate::cell::DriveMode::Transport);
        assert_eq!(drives[0].delay, SimTime::from_picos(7.0));
    }
}
