//! # maddpipe-sim
//!
//! A deterministic event-driven digital-logic simulator with per-cell timing
//! annotation, per-domain energy metering, latch setup checking and VCD
//! export — the discrete-event stand-in for the HSPICE post-layout flow the
//! paper's evaluation is built on.
//!
//! The simulator is deliberately small but complete:
//!
//! * [`logic`] — three-valued logic (`0`, `1`, `X`).
//! * [`time`] — integral femtosecond timestamps (exact event ordering).
//! * [`cell`] — the open [`cell::Cell`] trait; downstream crates implement
//!   macro-cells such as dual-rail dynamic comparators.
//! * [`cells`] — timing-annotated standard cells: gates, full adder,
//!   D-latch with setup checking, Muller C-element, pulse generator, and
//!   the one-hot SRAM read column of the LUT decoder.
//! * [`library`] — alpha-power-law characterisation of cells at an
//!   operating point, with optional local mismatch sampling.
//! * [`circuit`] — netlist construction with energy domains; a name is
//!   recorded as a scope plus a leaf (a static pattern and its integers,
//!   see [`leaf!`]) and rendered only when read, and a gate's output net
//!   renders as its cell's name plus a pin suffix.
//! * [`engine`] — the event kernel: inertial/transport delays, oscillation
//!   detection, deterministic replay; delta-cycle batched, allocation-free
//!   on the hot path.
//! * [`reference`](mod@reference) — a deliberately naive kernel with identical semantics,
//!   kept as the executable specification for golden-equivalence tests.
//! * [`energy`] — per-domain switched-energy accounting (regenerates the
//!   paper's Fig. 7 energy breakdown).
//! * [`trace`] — waveform capture and VCD export.
//!
//! ## Example: a C-element half of a handshake
//!
//! ```
//! use maddpipe_sim::prelude::*;
//!
//! let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
//! let mut b = CircuitBuilder::new(lib);
//! let req = b.input("req");
//! let ack_in = b.input("ack_in");
//! let grant = b.c_element("c0", req, ack_in, Logic::Low);
//!
//! let mut sim = Simulator::new(b.build());
//! sim.poke(req, Logic::High);
//! sim.poke(ack_in, Logic::High);
//! sim.run_to_quiescence()?;
//! assert_eq!(sim.value(grant), Logic::High);
//! # Ok::<(), maddpipe_sim::engine::OscillationError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod cells;
pub mod circuit;
pub mod energy;
pub mod engine;
pub mod library;
pub mod logic;
pub mod reference;
pub mod time;
pub mod trace;

pub use cell::{Cell, Drive, DriveMode, EvalCtx, Violation, ViolationKind};
pub use cells::CellKind;
pub use circuit::{Circuit, CircuitBuilder, DomainId, NetId};
pub use engine::{EdgeWaitOutcome, SimStats, Simulator};
pub use library::{CellClass, CellLibrary, SampledTiming};
pub use logic::Logic;
pub use time::SimTime;

/// Common imports for building and simulating netlists.
pub mod prelude {
    pub use crate::cell::{Cell, EvalCtx, ViolationKind};
    pub use crate::cells::CellKind;
    pub use crate::circuit::{Circuit, CircuitBuilder, DomainId, NetId};
    pub use crate::engine::{EdgeWaitOutcome, Simulator};
    pub use crate::library::{CellClass, CellLibrary, SampledTiming};
    pub use crate::logic::Logic;
    pub use crate::time::SimTime;
    pub use maddpipe_tech::prelude::*;
}
