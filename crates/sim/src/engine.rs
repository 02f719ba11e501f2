//! The deterministic event-driven simulation kernel.
//!
//! Events are ordered by `(time, push order)`, so two simulations of the
//! same netlist with the same stimulus are bit-identical — a property the
//! regression tests rely on. Inertial cancellation is implemented with
//! per-net generation counters: an inertial drive bumps the net's
//! generation, and any queued event carrying a stale generation is dropped
//! when popped (cheaper than surgically removing queue entries).
//!
//! # Hot-path architecture
//!
//! The kernel advances in **delta cycles**: it drains every queued event
//! that shares the earliest pending timestamp, applies the net updates,
//! and only then evaluates each affected cell — exactly once per delta,
//! however many of its input pins changed (a 16-bit bus landing on one
//! listener used to cost 16 evaluations; it now costs one). The pending
//! queue is a short list of time buckets; a queued event is 12 bytes and
//! carries neither its timestamp, which is its bucket's, nor a sequence
//! number, because push order within a bucket already is event order.
//!
//! The netlist is read from flat, index-addressed tables: the
//! [`Circuit`] packs every net's fanout list and every cell's input and
//! output nets into one array each, with an offset table
//! (CSR layout). Dirty cells are tracked with an epoch-stamped mark
//! vector. Only the cells that read which of their pins changed —
//! latches and the cells on the generic path — also track them, with one
//! bit per flat input pin; each fanout entry carries the bit to set, or
//! none for every other cell. The cell's own evaluation reads and clears
//! its bits: a latch reads exactly two, D's and G's, and passes them to
//! the latch step as two flags, and a generic cell drains its bits in
//! ascending order into one reusable trigger buffer, so each changed pin
//! is listed once and nothing is sorted or allocated per cycle. The
//! single-event path sets the one bit its event changed and evaluates at
//! once. Compiled gates, adders and read columns skip the bit work
//! altogether.
//!
//! Evaluation avoids the cell instance wherever it can. Inverters,
//! buffers, 2-input gates, full adders, D-latches and SRAM read columns
//! are *compiled* at [`Simulator::new`] into per-cell table entries that
//! evaluate straight off the value table (a latch keeps its state in its
//! entry and a column its stored word, which
//! [`Simulator::program_column`] rewrites; the logic is shared with
//! [`cells`](crate::cells), so both paths compute the same function);
//! nets that feed exactly one simple gate are compiled one step further,
//! into per-net entries. A read column whose 16 wordline nets are
//! consecutive, as the decoder builds them, reads them as one 16-byte
//! slice of the value table instead of through the input table. Every
//! other cell snapshots its
//! inputs into a reusable scratch arena and is dispatched through the
//! [`CellKind`](crate::cells::CellKind) enum (boxed trait objects remain
//! as an escape hatch for downstream macro-cells). Testbenches that need
//! to observe handshake edges register them with
//! [`Simulator::run_until_edges`], which checks watched nets only when
//! they actually transition instead of polling after every step; those
//! that read a latch bank at each closing of its enable arm the strobe
//! sampler ([`Simulator::arm_sampler`]), which compares each transition's
//! net with the strobe and builds a sample out of line.
//!
//! The per-event path takes no branch on a net's level, a gate's
//! function or an inverter flag: the [`Logic`] operators, the compiled
//! gates and full adder, the delay arc
//! ([`SampledTiming::for_value`]) and the rise or fall energy of an edge
//! are tables indexed by the level (a transition to `X` still returns
//! early from energy metering, since it is no edge). A net's edge
//! energies, domain and fanout flag live in its *energy class*: nets of
//! equal capacitance, domain and flag share one record, so each net keeps
//! only a `u32` class index (the flagship's 62,212 nets have 32 classes).
//! Nor does a push
//! update the queue's high-water mark: the mark is folded once after
//! each delta cycle's evaluations, after each poke and after the
//! power-up evaluation. Pops happen only at the start of a delta cycle,
//! so the queue only grows between those points and
//! [`SimStats::max_queue`] is the mark a per-push update would keep.
//!
//! A deliberately naive implementation of the same semantics lives in
//! [`crate::reference`]; a property test keeps the two in agreement.

use crate::cell::{Drive, DriveMode, EvalCtx, Violation, ViolationKind};
use crate::cells::{
    full_adder, unary, ColumnStep, Gate2, GateShape, LatchState, LatchStep, ReadColumn,
    READ_COLUMN_ROWS,
};
use crate::circuit::{CellId, Circuit, DomainId, NetId};
use crate::energy::{EnergyMeter, EnergyReport};
use crate::library::SampledTiming;
use crate::logic::{bits_to_u64, Logic};
use crate::time::SimTime;
use crate::trace::Trace;
use maddpipe_tech::units::Joules;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

/// A pending net update: 12 bytes. It carries no timestamp, since every
/// event in a bucket shares the bucket's time, and no sequence number,
/// since events at one timestamp are ordered by when they were pushed.
#[derive(Debug, Clone, Copy)]
struct Event {
    net: NetId,
    gen: u32,
    value: Logic,
}

/// The pending-event priority queue, organised as *time buckets*, plus the
/// per-net generation counters that implement inertial cancellation.
///
/// Events only need priority ordering **across** timestamps — within one
/// timestamp they are consumed in the order they were pushed. The queue
/// therefore keeps a short list of distinct pending timestamps (sorted
/// descending, earliest last) with one event bucket each:
///
/// * pushing onto an existing timestamp is a short scan from the earliest
///   end plus a `Vec` push — no sift, no per-event comparisons;
/// * a delta cycle takes the earliest bucket *wholesale* (a 24-byte `Vec`
///   header move), which makes wide same-time fronts (a 128-bit bus poke,
///   a precharge broadcast) nearly free;
/// * drained buckets are recycled through a pool, so a warmed-up queue
///   never allocates.
///
/// Netlists keep only a handful of distinct timestamps in flight (a
/// wavefront plus a few stragglers), so the linear scan beats a binary
/// heap's `O(log n)` sift by a wide margin; determinism is untouched
/// because `(time, push order)` order is preserved exactly.
#[derive(Debug)]
struct EventQueue {
    /// Single-event fast lane, only ever filled by a push into a
    /// completely empty queue. That restriction makes its ordering free:
    /// every event pushed later comes after it, so when timestamps tie,
    /// the front event is the correct first pop. The dominant wavefront
    /// workload (pop one event, schedule its successor) lives entirely in
    /// this slot and never touches a `Vec`. It keeps its event's time,
    /// as a bucket does.
    front: Option<(SimTime, Event)>,
    /// `(timestamp, bucket)` pairs sorted strictly descending by time —
    /// the earliest timestamp is `entries.last()`. Each bucket holds that
    /// timestamp's events in push order.
    entries: Vec<(SimTime, Vec<Event>)>,
    /// Drained buckets awaiting reuse.
    pool: Vec<Vec<Event>>,
    /// Total queued events.
    len: usize,
    /// High-water mark of `len`. `push` leaves it alone: the owner folds
    /// `len` in with [`EventQueue::fold_high_water`] after each burst of
    /// pushes, which sees the same maximum because pops happen only at
    /// the start of a delta cycle.
    max_len: usize,
    /// Per-net generation counters: an inertial drive bumps its net's
    /// generation, and a popped event carrying an older one is stale.
    gens: Vec<u32>,
}

impl EventQueue {
    fn new(n_nets: usize) -> EventQueue {
        EventQueue {
            front: None,
            entries: Vec::new(),
            pool: Vec::new(),
            len: 0,
            max_len: 0,
            gens: vec![0; n_nets],
        }
    }

    /// Schedules `net` to take `value` at `now + delay`. An inertial drive
    /// supersedes every event already pending on `net`.
    #[inline]
    fn schedule(
        &mut self,
        now: SimTime,
        net: NetId,
        value: Logic,
        delay: SimTime,
        mode: DriveMode,
    ) {
        let g = &mut self.gens[net.index()];
        if mode == DriveMode::Inertial {
            *g = g.wrapping_add(1);
        }
        let gen = *g;
        self.push(now + delay, Event { net, gen, value });
    }

    /// `false` when a later inertial drive superseded `ev`.
    #[inline]
    fn is_current(&self, ev: &Event) -> bool {
        ev.gen == self.gens[ev.net.index()]
    }

    /// Queues `ev` at `time`.
    #[inline]
    fn push(&mut self, time: SimTime, ev: Event) {
        self.len += 1;
        if self.front.is_none() && self.entries.is_empty() {
            self.front = Some((time, ev));
            return;
        }
        // Hot arms first: joining the earliest pending timestamp (wide
        // same-time fronts) or becoming the new earliest (a wavefront
        // scheduling its successor past a straggler).
        match self.entries.last_mut() {
            Some((t, bucket)) if *t == time => {
                bucket.push(ev);
                return;
            }
            Some((t, _)) if *t < time => {}
            _ => {
                // No buckets yet, or `time` is the new earliest bucket time.
                let mut bucket = self.pool.pop().unwrap_or_default();
                bucket.push(ev);
                self.entries.push((time, bucket));
                return;
            }
        }
        // Cold arm: `time` lies beyond the earliest pending timestamp.
        // Scan from the earliest end — in-flight timestamp counts are
        // small, so a linear scan beats heap sifting.
        let mut j = self.entries.len() - 1;
        while j > 0 && self.entries[j - 1].0 < time {
            j -= 1;
        }
        if j > 0 && self.entries[j - 1].0 == time {
            self.entries[j - 1].1.push(ev);
            return;
        }
        let mut bucket = self.pool.pop().unwrap_or_default();
        bucket.push(ev);
        self.entries.insert(j, (time, bucket));
    }

    /// The earliest pending timestamp, without touching bucket contents.
    #[inline]
    fn earliest_time(&self) -> Option<SimTime> {
        match (&self.front, self.entries.last()) {
            (Some((f, _)), Some((t, _))) => Some((*f).min(*t)),
            (Some((f, _)), None) => Some(*f),
            (None, Some((t, _))) => Some(*t),
            (None, None) => None,
        }
    }

    /// Takes the front-lane event if it is scheduled at `t`.
    #[inline]
    fn take_front_at(&mut self, t: SimTime) -> Option<Event> {
        match self.front {
            Some((f, ev)) if f == t => {
                self.len -= 1;
                self.front = None;
                Some(ev)
            }
            _ => None,
        }
    }

    /// Removes and returns the bucket at timestamp `t` if one exists, in
    /// push order. Return the bucket via [`EventQueue::recycle`] when done.
    #[inline]
    fn pop_bucket_at(&mut self, t: SimTime) -> Option<Vec<Event>> {
        match self.entries.last() {
            Some((bt, _)) if *bt == t => {
                let (_, bucket) = self.entries.pop().expect("peeked above");
                self.len -= bucket.len();
                Some(bucket)
            }
            _ => None,
        }
    }

    /// Folds the current length into the high-water mark. Call it after
    /// every burst of pushes: `len` only grows between two calls, so the
    /// mark is the one a per-push update would have kept.
    #[inline]
    fn fold_high_water(&mut self) {
        self.max_len = self.max_len.max(self.len);
    }

    /// Returns a drained bucket to the pool.
    #[inline]
    fn recycle(&mut self, mut bucket: Vec<Event>) {
        bucket.clear();
        self.pool.push(bucket);
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.front.is_none() && self.entries.is_empty()
    }
}

/// Error signalling a circuit that would not settle (combinational loop or
/// free-running oscillator) within the configured event budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OscillationError {
    /// Events processed before giving up.
    pub events: u64,
    /// Simulation time reached.
    pub time: SimTime,
}

impl fmt::Display for OscillationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "circuit did not reach quiescence within {} events (stopped at {})",
            self.events, self.time
        )
    }
}

impl std::error::Error for OscillationError {}

/// Kernel statistics, useful for performance analysis and sanity checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Events popped from the queue (including stale and no-change ones).
    pub events_popped: u64,
    /// Events dropped because a later inertial drive superseded them.
    pub events_stale: u64,
    /// Actual net value changes applied.
    pub transitions: u64,
    /// Cell evaluations performed.
    pub evals: u64,
    /// Delta cycles executed (one per distinct timestamp *round*; a
    /// timestamp with zero-delay feedback takes several).
    pub delta_cycles: u64,
    /// High-water mark of the event queue.
    pub max_queue: usize,
}

/// How a [`Simulator::run_until_edges`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeWaitOutcome {
    /// Every watched `(net, value)` edge was observed; the time of the
    /// delta cycle that completed the set.
    Seen(SimTime),
    /// The event queue drained before every edge arrived (the circuit is
    /// quiescent at the given time, so the missing edges can never come).
    Quiescent(SimTime),
}

#[derive(Debug, Clone, Copy)]
struct Watch {
    net: NetId,
    value: Logic,
    seen: bool,
}

/// The values of a sampler's nets at one high→low edge of its strobe
/// (see [`Simulator::arm_sampler`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrobeSample {
    /// When the strobe fell.
    pub time: SimTime,
    /// The sampled nets' values at that instant, in the order they were
    /// armed.
    pub values: Vec<Logic>,
}

/// An armed strobe sampler.
#[derive(Debug)]
struct Sampler {
    strobe: NetId,
    /// The strobe's level, followed across its transitions.
    level: Logic,
    nets: Vec<NetId>,
    samples: Vec<StrobeSample>,
}

/// A net's energy class: everything a surviving transition needs besides
/// the value, shared by every net of equal capacitance, domain and fanout
/// flag. Each net keeps a `u32` index into the class table, which
/// [`energy_classes`] interns.
#[derive(Debug, Clone, Copy)]
struct NetClass {
    /// Supply energy of an edge to each known level, indexed by the
    /// level: `[falling, rising]`.
    edge: [Joules; 2],
    /// Energy-accounting domain.
    domain: DomainId,
    /// Same cell listed on several fanout pins — see `Net::fanout_dup`.
    fanout_dup: bool,
}

/// Interns the circuit's energy classes: each net's class index, and the
/// class table. A class is keyed on its nets' capacitance bits, domain
/// and fanout flag, so it meters exactly the energies `edge_energy(cap)`
/// gives each of its nets, and the energy is computed once per class.
fn energy_classes(circuit: &Circuit) -> (Vec<u32>, Vec<NetClass>) {
    let mut classes = Vec::new();
    let mut index: HashMap<(u64, u64), u32, BuildHasherDefault<KeyHasher>> = HashMap::default();
    let net_class = circuit
        .nets
        .iter()
        .map(|net| {
            let key = (
                net.cap.0.to_bits(),
                u64::from(net.domain.0) << 1 | u64::from(net.fanout_dup),
            );
            *index.entry(key).or_insert_with(|| {
                let (rise, fall) = circuit.library.edge_energy(net.cap);
                classes.push(NetClass {
                    edge: [fall, rise],
                    domain: net.domain,
                    fanout_dup: net.fanout_dup,
                });
                u32::try_from(classes.len() - 1).expect("a class per net at most")
            })
        })
        .collect();
    (net_class, classes)
}

/// A multiply-rotate hash for the class interner's two-word keys, one
/// multiply per word where the default SipHash runs several rounds; the
/// interner looks up every net of the circuit.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A compiled cell's delay arcs in `u32` femtoseconds (up to 4.29 µs),
/// `[fall, rise]`: half a [`SampledTiming`]. Full adders and latches hold
/// theirs this way, which keeps a [`CellFast`] at 48 bytes (56 with
/// `SampledTiming`); a cell with a longer arc is not compiled and takes
/// the generic path.
#[derive(Debug, Clone, Copy)]
struct ShortTiming([u32; 2]);

impl ShortTiming {
    /// `timing` narrowed, or `None` if an arc does not fit.
    fn new(timing: SampledTiming) -> Option<ShortTiming> {
        let fs = |t: SimTime| u32::try_from(t.as_femtos()).ok();
        Some(ShortTiming([fs(timing.fall)?, fs(timing.rise)?]))
    }

    /// The arc a transition to `value` uses, picked as
    /// [`SampledTiming::for_value`] picks it.
    #[inline]
    fn for_value(self, value: Logic) -> SimTime {
        let [fall, rise] = self.0;
        SimTime::from_femtos(u64::from([fall, rise, rise.max(fall)][value as usize]))
    }
}

/// Compiled form of a cell, precomputed at [`Simulator::new`] and indexed
/// by `CellId` — the batched evaluation path's counterpart of
/// [`FanoutFast`]. Simple gates, full adders, latches and read columns
/// evaluate straight off the value table (a latch keeps its state here, a
/// column its stored word); all other cells take the generic `EvalCtx`
/// path.
#[derive(Debug)]
enum CellFast {
    Generic,
    Unary {
        input: NetId,
        out: NetId,
        timing: SampledTiming,
        invert: bool,
    },
    Binary {
        a: NetId,
        b: NetId,
        out: NetId,
        timing: SampledTiming,
        op: Gate2,
    },
    FullAdder {
        a: NetId,
        b: NetId,
        cin: NetId,
        sum: NetId,
        carry: NetId,
        sum_timing: ShortTiming,
        carry_timing: ShortTiming,
    },
    Latch {
        d: NetId,
        g: NetId,
        q: NetId,
        timing: ShortTiming,
        state: LatchState,
    },
    Column {
        /// `[rbl, rblb]`.
        rails: [NetId; 2],
        pche: NetId,
        /// The first of the wordline nets when the 16 are consecutive, as
        /// the decoder builds them, so they are read as one slice of the
        /// value table; `None` reads them through the circuit's input
        /// table.
        rows: Option<NetId>,
        col: ReadColumn,
    },
}

/// Compiled fanout of a net, precomputed at [`Simulator::new`].
///
/// Most nets drive exactly one simple gate; for those the evaluation is
/// folded into a table entry the kernel can execute without touching the
/// cell instance at all: no input gathering, no dispatch, no drive buffer.
/// The result is bit-identical to the generic path — same logic function,
/// same `SampledTiming::for_value` delay, same inertial scheduling.
#[derive(Debug, Clone, Copy)]
enum FanoutFast {
    /// Evaluate each fanout cell through its [`CellFast`] entry.
    Generic,
    /// One fanout: a 1-input gate (inverter/buffer) driving `out`.
    Unary {
        out: NetId,
        timing: SampledTiming,
        invert: bool,
    },
    /// One fanout: a commutative 2-input gate whose other input is
    /// `other`, driving `out`.
    Binary {
        out: NetId,
        timing: SampledTiming,
        op: Gate2,
        other: NetId,
    },
}

/// The event-driven simulator.
///
/// ```
/// use maddpipe_sim::prelude::*;
///
/// let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
/// let mut b = CircuitBuilder::new(lib);
/// let a = b.input("a");
/// let y = b.inv("u0", a);
/// let mut sim = Simulator::new(b.build());
/// sim.poke(a, Logic::Low);
/// sim.run_to_quiescence().unwrap();
/// assert_eq!(sim.value(y), Logic::High);
/// ```
#[derive(Debug)]
pub struct Simulator {
    circuit: Circuit,
    values: Vec<Logic>,
    queue: EventQueue,
    now: SimTime,
    energy: EnergyMeter,
    /// Per net: the index of its energy class in `classes`.
    net_class: Vec<u32>,
    classes: Vec<NetClass>,
    fanout_fast: Vec<FanoutFast>,
    cell_fast: Vec<CellFast>,
    violations: Vec<Violation>,
    trace: Trace,
    /// Kernel counters; `max_queue` is read from the queue instead.
    stats: SimStats,
    event_cap: u64,
    /// `true` while anything wants per-transition callbacks (waveform
    /// tracing, the strobe sampler or edge watches) — one branch guards
    /// them all on the hot path.
    observers: bool,
    sampler: Option<Sampler>,
    // Reusable hot-path scratch state — nothing below is allocated per
    // event once the simulator has warmed up.
    drive_buf: Vec<Drive>,
    input_buf: Vec<Logic>,
    trigger_buf: Vec<usize>,
    dirty: Vec<CellId>,
    dirty_mark: Vec<u64>,
    /// One bit per flat input pin ([`Circuit::input_pins`]): set when the
    /// pin's net changed in the current delta cycle, for latches and the
    /// cells on the generic path (the others' bits stay clear). The
    /// cell's evaluation reads and clears its own bits.
    changed_pins: Vec<u64>,
    epoch: u64,
    watches: Vec<Watch>,
}

impl Simulator {
    /// Creates a simulator and performs the power-up evaluation of every
    /// cell at time zero.
    pub fn new(circuit: Circuit) -> Simulator {
        let n_nets = circuit.nets.len();
        let n_cells = circuit.cells.len();
        let n_domains = circuit.domains.len();
        let (net_class, classes) = energy_classes(&circuit);
        // Compile the simple gates, full adders, latches and read columns
        // into direct per-cell entries (see [`CellFast`]).
        let cell_fast = circuit
            .cells
            .iter()
            .enumerate()
            .map(|(ci, inst)| {
                let (ins, outs) = (circuit.cell_inputs(ci), circuit.cell_outputs(ci));
                let compiled = match inst.cell.shape() {
                    GateShape::Unary { invert, timing } => Some(CellFast::Unary {
                        input: ins[0],
                        out: outs[0],
                        timing,
                        invert,
                    }),
                    GateShape::Binary { op, timing } => Some(CellFast::Binary {
                        a: ins[0],
                        b: ins[1],
                        out: outs[0],
                        timing,
                        op,
                    }),
                    GateShape::FullAdder {
                        sum_timing,
                        carry_timing,
                    } => ShortTiming::new(sum_timing)
                        .zip(ShortTiming::new(carry_timing))
                        .map(|(sum_timing, carry_timing)| CellFast::FullAdder {
                            a: ins[0],
                            b: ins[1],
                            cin: ins[2],
                            sum: outs[0],
                            carry: outs[1],
                            sum_timing,
                            carry_timing,
                        }),
                    GateShape::Latch { timing, state } => {
                        ShortTiming::new(timing).map(|timing| CellFast::Latch {
                            d: ins[0],
                            g: ins[1],
                            q: outs[0],
                            timing,
                            state,
                        })
                    }
                    GateShape::Column(col) => Some(CellFast::Column {
                        rails: [outs[0], outs[1]],
                        pche: ins[0],
                        rows: ins[1..]
                            .iter()
                            .zip(ins[1].0..)
                            .all(|(n, i)| n.0 == i)
                            .then_some(ins[1]),
                        col,
                    }),
                    GateShape::Other => None,
                };
                compiled.unwrap_or(CellFast::Generic)
            })
            .collect();
        // Compile the single-fanout simple-gate nets into direct table
        // entries (see [`FanoutFast`]).
        let fanout_fast = (0..n_nets)
            .map(|ni| {
                let &[f] = circuit.fanout(ni) else {
                    return FanoutFast::Generic;
                };
                let ci = f.cell.index();
                let outs = circuit.cell_outputs(ci);
                match circuit.cells[ci].cell.shape() {
                    GateShape::Unary { invert, timing } => FanoutFast::Unary {
                        out: outs[0],
                        timing,
                        invert,
                    },
                    GateShape::Binary { op, timing } => FanoutFast::Binary {
                        out: outs[0],
                        timing,
                        op,
                        other: circuit.cell_inputs(ci)[1 - circuit.pin_of(f)],
                    },
                    _ => FanoutFast::Generic,
                }
            })
            .collect();
        let mut sim = Simulator {
            values: vec![Logic::X; n_nets],
            queue: EventQueue::new(n_nets),
            now: SimTime::ZERO,
            energy: EnergyMeter::new(n_domains),
            net_class,
            classes,
            fanout_fast,
            cell_fast,
            violations: Vec::new(),
            trace: Trace::new(n_nets),
            stats: SimStats::default(),
            event_cap: 50_000_000,
            observers: false,
            sampler: None,
            drive_buf: Vec::new(),
            input_buf: Vec::new(),
            trigger_buf: Vec::new(),
            dirty: Vec::new(),
            dirty_mark: vec![0; n_cells],
            changed_pins: vec![0; circuit.input_pin_count().div_ceil(64)],
            epoch: 0,
            watches: Vec::new(),
            circuit,
        };
        for i in 0..n_cells {
            sim.eval_cell(CellId(i as u32));
        }
        sim.queue.fold_high_water();
        sim
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The netlist being simulated.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Present value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Packs an LSB-first bus into an integer; `None` if any bit is `X`.
    pub fn bus_value(&self, bus: &[NetId]) -> Option<u64> {
        let bits: Vec<Logic> = bus.iter().map(|&n| self.value(n)).collect();
        bits_to_u64(&bits)
    }

    /// Drives a primary input to `value` at the current time.
    ///
    /// # Panics
    ///
    /// Panics if the net has a driver — forcing driven nets hides real
    /// contention bugs, so it is not allowed.
    pub fn poke(&mut self, net: NetId, value: Logic) {
        self.poke_after(net, value, SimTime::ZERO);
    }

    /// Drives a primary input to `value` after `delay`.
    ///
    /// # Panics
    ///
    /// Panics if the net has a driver.
    pub fn poke_after(&mut self, net: NetId, value: Logic, delay: SimTime) {
        assert!(
            self.circuit.is_primary_input(net),
            "cannot poke net `{}`: it is driven by a cell",
            self.circuit.net_name(net)
        );
        self.queue
            .schedule(self.now, net, value, delay, DriveMode::Inertial);
        self.queue.fold_high_water();
    }

    /// Drives each bit of an LSB-first bus from an integer (inputs only).
    pub fn poke_bus(&mut self, bus: &[NetId], value: u64) {
        for (i, &net) in bus.iter().enumerate() {
            self.poke(net, Logic::from_bool(value >> i & 1 == 1));
        }
    }

    /// Enables waveform recording on a net. The recording belongs to the
    /// caller: nothing in the kernel clears it or stops it.
    pub fn trace_net(&mut self, net: NetId) {
        self.trace.enable(net);
        self.observers = true;
    }

    /// Arms the strobe sampler: until [`Simulator::take_samples`], each
    /// high→low edge of `strobe` records the values of `nets` at that
    /// instant, after every transition applied before it — what a bank
    /// of latches enabled by `strobe` holds as it closes. The strobe's
    /// level is followed from its present value. Arming again discards
    /// the samples not yet taken.
    pub fn arm_sampler(&mut self, strobe: NetId, nets: &[NetId]) {
        self.sampler = Some(Sampler {
            strobe,
            level: self.value(strobe),
            nets: nets.to_vec(),
            samples: Vec::new(),
        });
        self.observers = true;
    }

    /// Disarms the strobe sampler and returns its samples in time order
    /// (none if it was not armed).
    pub fn take_samples(&mut self) -> Vec<StrobeSample> {
        let samples = self.sampler.take().map_or_else(Vec::new, |s| s.samples);
        self.observers = self.trace.any_enabled();
        samples
    }

    /// Timing/protocol violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Kernel statistics.
    pub fn stats(&self) -> SimStats {
        SimStats {
            max_queue: self.queue.max_len,
            ..self.stats
        }
    }

    /// Per-domain energy snapshot.
    pub fn energy_report(&self) -> EnergyReport {
        self.energy.report(&self.circuit.domains)
    }

    /// Total switching energy so far.
    pub fn total_energy(&self) -> Joules {
        self.energy.total()
    }

    /// Clears the energy counters (not the waveform or violations).
    pub fn reset_energy(&mut self) {
        self.energy.reset();
    }

    /// Replaces the runaway-protection event budget used by
    /// [`Simulator::run_to_quiescence`] and the other bounded run methods.
    pub fn set_event_cap(&mut self, cap: u64) {
        self.event_cap = cap;
    }

    /// The configured runaway-protection event budget.
    pub fn event_cap(&self) -> u64 {
        self.event_cap
    }

    /// Stores `word` in the read column `cell` (bit `r` is row `r`) — the
    /// global write-driver path that loads a LUT. The word takes effect at
    /// the column's next evaluation; rails already driven keep their level.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not a [`ReadColumn`].
    pub fn program_column(&mut self, cell: CellId, word: u16) {
        match &mut self.cell_fast[cell.index()] {
            CellFast::Column { col, .. } => col.set_word(word),
            _ => panic!(
                "cell `{}` is not a read column",
                self.circuit.cell_name(cell)
            ),
        }
    }

    /// Runs until the queue drains, returning the time of the last event.
    ///
    /// # Errors
    ///
    /// Returns [`OscillationError`] if the event budget is exhausted first,
    /// which indicates a combinational loop or unstable handshake.
    pub fn run_to_quiescence(&mut self) -> Result<SimTime, OscillationError> {
        let mut consumed: u64 = 0;
        while !self.queue.is_empty() {
            if consumed >= self.event_cap {
                return Err(OscillationError {
                    events: consumed,
                    time: self.queue.earliest_time().expect("queue is non-empty"),
                });
            }
            consumed += self.delta_cycle();
        }
        Ok(self.now)
    }

    /// Runs until `net` takes `value` or the event queue drains.
    ///
    /// Returns the time of the transition, or `None` if the circuit went
    /// quiescent without it (callers decide whether that is a failure).
    ///
    /// # Errors
    ///
    /// Returns [`OscillationError`] if the event budget is exhausted.
    pub fn run_until_net(
        &mut self,
        net: NetId,
        value: Logic,
    ) -> Result<Option<SimTime>, OscillationError> {
        if self.value(net) == value {
            return Ok(Some(self.now));
        }
        match self.run_until_edges(&[(net, value)])? {
            EdgeWaitOutcome::Seen(t) => Ok(Some(t)),
            EdgeWaitOutcome::Quiescent(_) => Ok(None),
        }
    }

    /// Runs until every `(net, value)` pair has been observed
    /// *transitioning to* its value, in any order. A net already sitting
    /// at its target level does **not** count — an actual edge must be
    /// seen, which is what four-phase handshake testbenches need (level
    /// polling races with the previous token's identical levels).
    ///
    /// Watched nets are checked only when they actually transition, so
    /// this costs nothing per event — unlike stepping the simulator and
    /// re-reading every watched net after each step.
    ///
    /// # Errors
    ///
    /// Returns [`OscillationError`] if the event budget is exhausted with
    /// edges still missing; `events` reports the events actually consumed
    /// by this call.
    pub fn run_until_edges(
        &mut self,
        conds: &[(NetId, Logic)],
    ) -> Result<EdgeWaitOutcome, OscillationError> {
        if conds.is_empty() {
            return Ok(EdgeWaitOutcome::Seen(self.now));
        }
        debug_assert!(self.watches.is_empty(), "run_until_edges re-entered");
        self.watches.extend(conds.iter().map(|&(net, value)| Watch {
            net,
            value,
            seen: false,
        }));
        self.observers = true;
        let mut consumed: u64 = 0;
        let outcome = loop {
            if self.watches.iter().all(|w| w.seen) {
                break Ok(EdgeWaitOutcome::Seen(self.now));
            }
            let Some(head_time) = self.queue.earliest_time() else {
                break Ok(EdgeWaitOutcome::Quiescent(self.now));
            };
            if consumed >= self.event_cap {
                break Err(OscillationError {
                    events: consumed,
                    time: head_time,
                });
            }
            consumed += self.delta_cycle();
        };
        self.watches.clear();
        self.observers = self.trace.any_enabled() || self.sampler.is_some();
        outcome
    }

    /// Renders the recorded waveform as a VCD document.
    pub fn write_vcd(&self) -> String {
        self.trace.to_vcd(&self.circuit)
    }

    /// The recorded waveform entries, in time order.
    pub fn trace_entries(&self) -> &[crate::trace::TraceEntry] {
        self.trace.entries()
    }

    /// Executes one delta cycle: drains every event at the earliest queued
    /// timestamp, applies the surviving net updates, then evaluates each
    /// dirty cell exactly once with the full set of changed pins. Returns
    /// the number of events popped (for budget accounting).
    ///
    /// Zero-delay drives issued during the evaluation phase land at the
    /// same timestamp and are processed by the *next* delta cycle, so a
    /// caller looping on this method regains control between rounds even
    /// inside a zero-delay feedback knot.
    fn delta_cycle(&mut self) -> u64 {
        self.stats.delta_cycles += 1;
        let t = self
            .queue
            .earliest_time()
            .expect("delta_cycle on empty queue");
        debug_assert!(t >= self.now, "event time went backwards");
        // Everything scheduled at `t`: the front-lane event (always the
        // first pushed at its timestamp) and/or the bucket.
        let front_ev = self.queue.take_front_at(t);
        let bucket = self.queue.pop_bucket_at(t);
        let popped = u64::from(front_ev.is_some()) + bucket.as_ref().map_or(0, |b| b.len() as u64);
        self.stats.events_popped += popped;
        match (front_ev, bucket) {
            (Some(ev), None) => self.singleton_cycle(t, ev),
            (None, Some(bucket)) if bucket.len() == 1 => {
                let ev = bucket[0];
                self.queue.recycle(bucket);
                self.singleton_cycle(t, ev);
            }
            (front_ev, bucket) => {
                // Batched path — phase A: apply every event scheduled at
                // `t` in push order, marking the fanout cells of each
                // changed net dirty. Events pushed during phase B land in
                // a fresh bucket at the same timestamp and are processed
                // by the next delta cycle.
                self.epoch += 1;
                if let Some(ev) = front_ev {
                    self.apply_batched(t, &ev);
                }
                if let Some(bucket) = bucket {
                    for ev in bucket.iter() {
                        self.apply_batched(t, ev);
                    }
                    self.queue.recycle(bucket);
                }
                // Phase B.
                self.eval_dirty();
            }
        }
        // Every push of this cycle came after its pops.
        self.queue.fold_high_water();
        popped
    }

    /// The delta cycle of exactly one event — the dominant wavefront case.
    /// Bit-identical to the batched path, but with no dirty-set
    /// bookkeeping: each fanout cell is evaluated directly with its single
    /// changed pin.
    #[inline]
    fn singleton_cycle(&mut self, t: SimTime, ev: Event) {
        if !self.queue.is_current(&ev) {
            self.stats.events_stale += 1;
            return;
        }
        self.now = t;
        let ni = ev.net.index();
        if self.values[ni] == ev.value {
            return;
        }
        self.apply_transition(t, &ev);
        match self.fanout_fast[ni] {
            // Compiled fanout: the whole evaluation of a single listening
            // simple gate, without touching the cell instance.
            FanoutFast::Unary {
                out,
                timing,
                invert,
            } => {
                self.stats.evals += 1;
                let v = unary(invert, ev.value);
                self.queue
                    .schedule(t, out, v, timing.for_value(v), DriveMode::Inertial);
            }
            FanoutFast::Binary {
                out,
                timing,
                op,
                other,
            } => {
                self.stats.evals += 1;
                let v = op.apply(ev.value, self.values[other.index()]);
                self.queue
                    .schedule(t, out, v, timing.for_value(v), DriveMode::Inertial);
            }
            FanoutFast::Generic => {
                if self.class_of(ni).fanout_dup {
                    // Rare: one cell listens on several pins of this net,
                    // so the dedup machinery must coalesce its
                    // evaluations.
                    self.epoch += 1;
                    self.mark_fanout_dirty(ni);
                    self.eval_dirty();
                } else {
                    for k in 0..self.circuit.fanout(ni).len() {
                        let f = self.circuit.fanout(ni)[k];
                        // Only a cell that reads its changed pins has a
                        // bit; its evaluation clears it again.
                        if let Some(bit) = f.changed_bit() {
                            set_bit(&mut self.changed_pins, bit);
                        }
                        self.eval_cell(f.cell);
                    }
                }
            }
        }
    }

    /// Phase-A handling of one event on the batched path: apply the
    /// surviving change and stamp its fanout dirty.
    #[inline]
    fn apply_batched(&mut self, t: SimTime, ev: &Event) {
        if !self.queue.is_current(ev) {
            self.stats.events_stale += 1;
            return;
        }
        self.now = t;
        let ni = ev.net.index();
        if self.values[ni] == ev.value {
            return;
        }
        self.apply_transition(t, ev);
        self.mark_fanout_dirty(ni);
    }

    /// Commits a surviving net change at the cycle's time `t`: value
    /// store, transition statistics, energy attribution, optional
    /// waveform capture, strobe sampling and edge watches.
    #[inline]
    fn apply_transition(&mut self, t: SimTime, ev: &Event) {
        self.values[ev.net.index()] = ev.value;
        self.stats.transitions += 1;
        self.record_edge(ev.net, ev.value);
        if self.observers {
            if self.trace.any_enabled() {
                self.trace.record(t, ev.net, ev.value);
            }
            if self.sampler.as_ref().is_some_and(|s| s.strobe == ev.net) {
                self.follow_strobe(t, ev.value);
            }
            for w in &mut self.watches {
                if !w.seen && w.net == ev.net && w.value == ev.value {
                    w.seen = true;
                }
            }
        }
    }

    /// Moves the sampler's strobe to `value` and, on a high→low edge,
    /// samples its nets. Out of line: the strobe moves twice per token
    /// against tens of thousands of other transitions.
    #[cold]
    #[inline(never)]
    fn follow_strobe(&mut self, time: SimTime, value: Logic) {
        let s = self.sampler.as_mut().expect("the sampler is armed");
        if std::mem::replace(&mut s.level, value) == Logic::High && value == Logic::Low {
            let values = s.nets.iter().map(|n| self.values[n.index()]).collect();
            s.samples.push(StrobeSample { time, values });
        }
    }

    /// Stamps every fanout cell of net `ni` dirty in the current epoch and,
    /// for a cell that reads its trigger list, sets the changed bit of the
    /// pin it listens on.
    fn mark_fanout_dirty(&mut self, ni: usize) {
        let epoch = self.epoch;
        for &f in self.circuit.fanout(ni) {
            let ci = f.cell.index();
            if self.dirty_mark[ci] != epoch {
                self.dirty_mark[ci] = epoch;
                self.dirty.push(f.cell);
            }
            if let Some(bit) = f.changed_bit() {
                set_bit(&mut self.changed_pins, bit);
            }
        }
    }

    /// Evaluates each dirty cell once; each reads its changed pins from
    /// the bits phase A set (a pin is set once, whatever the order and
    /// number of the transitions on its net). Evaluations only schedule
    /// future events, so the dirty list cannot grow while we walk it.
    fn eval_dirty(&mut self) {
        for k in 0..self.dirty.len() {
            self.eval_cell(self.dirty[k]);
        }
        self.dirty.clear();
    }

    /// The energy class of net `ni`.
    #[inline]
    fn class_of(&self, ni: usize) -> &NetClass {
        &self.classes[self.net_class[ni] as usize]
    }

    /// Meters an edge of `net` to `new_value`: its class's rise or fall
    /// energy, indexed by the level. A transition to `X` is no edge.
    #[inline]
    fn record_edge(&mut self, net: NetId, new_value: Logic) {
        if new_value == Logic::X {
            return;
        }
        let class = *self.class_of(net.index());
        self.energy
            .record(class.domain, class.edge[new_value as usize]);
    }

    /// Evaluates `cell` against the current values. A latch or a cell on
    /// the generic path reads and clears its changed-pin bits; every other
    /// cell is a function of its input values alone.
    fn eval_cell(&mut self, cell: CellId) {
        self.stats.evals += 1;
        let ci = cell.index();
        let now = self.now;
        // Compiled cells evaluate straight off the value table.
        match &mut self.cell_fast[ci] {
            CellFast::Unary {
                input,
                out,
                timing,
                invert,
            } => {
                let v = unary(*invert, self.values[input.index()]);
                self.queue
                    .schedule(now, *out, v, timing.for_value(v), DriveMode::Inertial);
                return;
            }
            CellFast::Binary {
                a,
                b,
                out,
                timing,
                op,
            } => {
                let v = op.apply(self.values[a.index()], self.values[b.index()]);
                self.queue
                    .schedule(now, *out, v, timing.for_value(v), DriveMode::Inertial);
                return;
            }
            CellFast::FullAdder {
                a,
                b,
                cin,
                sum,
                carry,
                sum_timing,
                carry_timing,
            } => {
                let (s, c) = full_adder(
                    self.values[a.index()],
                    self.values[b.index()],
                    self.values[cin.index()],
                );
                // Sum before carry, the order `FullAdderCell` drives them.
                self.queue
                    .schedule(now, *sum, s, sum_timing.for_value(s), DriveMode::Inertial);
                self.queue.schedule(
                    now,
                    *carry,
                    c,
                    carry_timing.for_value(c),
                    DriveMode::Inertial,
                );
                return;
            }
            CellFast::Latch {
                d,
                g,
                q,
                timing,
                state,
            } => {
                // D and G are the cell's first two flat pins.
                let pin = self.circuit.input_pins(ci).start;
                let d_changed = take_bit(&mut self.changed_pins, pin);
                let g_changed = take_bit(&mut self.changed_pins, pin + 1);
                let step = state.step(
                    now,
                    self.values[d.index()],
                    self.values[g.index()],
                    d_changed,
                    g_changed,
                );
                let v = match step {
                    LatchStep::Hold => return,
                    LatchStep::Drive(v) => v,
                    LatchStep::SetupViolation(detail) => {
                        self.violations.push(Violation {
                            time: now,
                            cell: self.circuit.cell_name(CellId(ci as u32)).to_owned(),
                            kind: ViolationKind::Setup,
                            detail,
                        });
                        Logic::X
                    }
                };
                self.queue
                    .schedule(now, *q, v, timing.for_value(v), DriveMode::Inertial);
                return;
            }
            CellFast::Column {
                rails,
                pche,
                rows,
                col,
            } => {
                let rows = match *rows {
                    Some(first) => {
                        let r = first.index();
                        let lines: &[Logic; READ_COLUMN_ROWS] = self.values
                            [r..r + READ_COLUMN_ROWS]
                            .try_into()
                            .expect("a column has 16 rows");
                        ReadColumn::asserted_rows(lines.iter().copied())
                    }
                    None => ReadColumn::asserted_rows(
                        self.circuit.cell_inputs(ci)[1..]
                            .iter()
                            .map(|n| self.values[n.index()]),
                    ),
                };
                let (step, violation) = col.step(self.values[pche.index()], rows);
                if let Some(detail) = violation {
                    self.violations.push(Violation {
                        time: now,
                        cell: self.circuit.cell_name(CellId(ci as u32)).to_owned(),
                        kind: ViolationKind::Protocol,
                        detail,
                    });
                }
                // The rail order `ReadColumn`'s `Cell` impl drives them in.
                match step {
                    ColumnStep::Precharge(v, delay) => {
                        for &rail in rails.iter() {
                            self.queue
                                .schedule(now, rail, v, delay, DriveMode::Inertial);
                        }
                    }
                    ColumnStep::Discharge(pin, delay) => {
                        self.queue.schedule(
                            now,
                            rails[pin],
                            Logic::Low,
                            delay,
                            DriveMode::Inertial,
                        );
                    }
                    ColumnStep::Hold => {}
                }
                return;
            }
            CellFast::Generic => {}
        }
        // The changed pins, ascending and each listed once, into the
        // reusable trigger buffer; the drain clears the bits even for a
        // cell that never reads them.
        self.trigger_buf.clear();
        drain_bits(
            &mut self.changed_pins,
            self.circuit.input_pins(ci),
            &mut self.trigger_buf,
        );
        // Snapshot the input values into the reusable scratch arena; the
        // borrows below are all of disjoint `Simulator` fields, so the
        // whole evaluation is allocation-free.
        self.input_buf.clear();
        self.input_buf.extend(
            self.circuit
                .cell_inputs(ci)
                .iter()
                .map(|n| self.values[n.index()]),
        );
        let inst = &mut self.circuit.cells[ci];
        // Combinational single-output gates that are not table-compiled
        // (3- and 4-input NAND/NOR, muxes) still short-circuit past the
        // evaluation context.
        if let Some((value, delay)) = inst.cell.gate_response(&self.input_buf) {
            let net = self.circuit.cell_outputs(ci)[0];
            self.queue
                .schedule(now, net, value, delay, DriveMode::Inertial);
            return;
        }
        let mut ctx = EvalCtx {
            now,
            input_values: &self.input_buf,
            triggers: &self.trigger_buf,
            drives: &mut self.drive_buf,
            violations: &mut self.violations,
            cell_name: self.circuit.names.get(inst.name),
        };
        inst.cell.eval(&mut ctx);
        // Drain the requested drives. `add_cell` validated the pin counts
        // when the netlist was built; a cell driving a pin it does not
        // have is a bug in the cell itself, caught by the indexing below
        // (and by this check in debug builds).
        let outputs = self.circuit.cell_outputs(ci);
        for d in self.drive_buf.iter() {
            debug_assert!(
                d.out_pin < outputs.len(),
                "cell `{}` drove pin {} but has only {} outputs",
                self.circuit.cell_name(CellId(ci as u32)),
                d.out_pin,
                outputs.len()
            );
            self.queue
                .schedule(now, outputs[d.out_pin], d.value, d.delay, d.mode);
        }
        self.drive_buf.clear();
    }
}

/// Sets bit `i` of `bits`.
#[inline]
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Reads and clears bit `i` of `bits`.
#[inline]
fn take_bit(bits: &mut [u64], i: usize) -> bool {
    let (word, mask) = (&mut bits[i / 64], 1 << (i % 64));
    let hit = *word & mask != 0;
    *word &= !mask;
    hit
}

/// Moves the set bits of `bits` inside the bit range `range` into `out`,
/// ascending, as offsets from `range.start`, and clears them.
#[inline]
fn drain_bits(bits: &mut [u64], range: Range<usize>, out: &mut Vec<usize>) {
    if range.is_empty() {
        return;
    }
    let (first, last) = (range.start / 64, (range.end - 1) / 64);
    for (w, word) in (first..).zip(&mut bits[first..=last]) {
        let base = w * 64;
        // This word's bits inside `range`: `lo..hi`.
        let lo = range.start.saturating_sub(base);
        let hi = (range.end - base).min(64);
        let mask = (u64::MAX << lo) & (u64::MAX >> (64 - hi));
        let mut hit = *word & mask;
        *word &= !mask;
        while hit != 0 {
            out.push(base + hit.trailing_zeros() as usize - range.start);
            hit &= hit - 1;
        }
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
    fn inverter_chain_propagates_with_delay() {
        let mut b = builder();
        let a = b.input("a");
        let n1 = b.inv("u0", a);
        let n2 = b.inv("u1", n1);
        let n3 = b.inv("u2", n2);
        let mut sim = Simulator::new(b.build());
        sim.poke(a, Logic::Low);
        let t = sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(n3), Logic::High);
        assert!(t > SimTime::ZERO, "three gate delays take nonzero time");
        // Flip the input; output follows after roughly 3 inverter delays.
        let before = sim.now();
        sim.poke(a, Logic::High);
        let t2 = sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(n3), Logic::Low);
        assert!(t2 > before);
    }

    #[test]
    fn determinism_bit_for_bit() {
        let run = || {
            let mut b = builder();
            let a = b.input("a");
            let x = b.inv("u0", a);
            let y = b.nand2("u1", [x, a]);
            let z = b.xor2("u2", [y, x]);
            let mut sim = Simulator::new(b.build());
            sim.poke(a, Logic::Low);
            sim.run_to_quiescence().unwrap();
            sim.poke(a, Logic::High);
            sim.run_to_quiescence().unwrap();
            (sim.now(), sim.value(z), sim.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ring_oscillator_reports_oscillation() {
        let mut b = builder();
        // Enable-gated ring oscillator. With three-valued logic a plain
        // inverter ring just sits at X, so the ring is kicked through a NAND:
        // while `enable` is low the loop holds at a known value, and raising
        // `enable` starts free oscillation.
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
        let mut sim = Simulator::new(b.build());
        sim.poke(enable, Logic::Low);
        sim.run_to_quiescence().unwrap(); // stable while disabled
        sim.set_event_cap(10_000);
        sim.poke(enable, Logic::High);
        let err = sim.run_to_quiescence().unwrap_err();
        assert!(err.to_string().contains("did not reach quiescence"));
    }

    #[test]
    fn run_until_net_finds_transition_time() {
        let mut b = builder();
        let a = b.input("a");
        let d = b.delay_line("wire", a, SimTime::from_nanos(2.0));
        let mut sim = Simulator::new(b.build());
        sim.poke(a, Logic::High);
        let t = sim.run_until_net(d, Logic::High).unwrap().unwrap();
        assert_eq!(t, SimTime::from_nanos(2.0));
    }

    #[test]
    fn run_until_net_none_when_quiescent_without_match() {
        let mut b = builder();
        let a = b.input("a");
        let y = b.inv("u0", a);
        let mut sim = Simulator::new(b.build());
        sim.poke(a, Logic::Low);
        // y will go High; asking for Low-after-quiescence yields None.
        let got = sim.run_until_net(y, Logic::Low).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn glitch_shorter_than_gate_delay_is_filtered() {
        let mut b = builder();
        let a = b.input("a");
        let y = b.inv("u0", a);
        let mut sim = Simulator::new(b.build());
        sim.poke(a, Logic::Low);
        sim.run_to_quiescence().unwrap();
        let transitions_before = sim.stats().transitions;
        // Pulse far narrower than the inverter delay: schedule H then L 1 fs
        // apart. The second inertial drive supersedes the first.
        sim.poke(a, Logic::High);
        sim.poke_after(a, Logic::Low, SimTime::from_femtos(1));
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(y), Logic::High, "output never saw the glitch");
        let delta = sim.stats().transitions - transitions_before;
        // Only the input wiggle itself may register; the inverter output
        // must not double-toggle.
        assert!(delta <= 2, "saw {delta} transitions");
    }

    #[test]
    fn poke_driven_net_panics() {
        let mut b = builder();
        let a = b.input("a");
        let y = b.inv("u0", a);
        let mut sim = Simulator::new(b.build());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sim.poke(y, Logic::Low);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn bus_helpers_round_trip() {
        let mut b = builder();
        let bus = b.bus("d", 8);
        let outs: Vec<NetId> = bus
            .iter()
            .enumerate()
            .map(|(i, &n)| b.inv(format_args!("u{i}"), n))
            .collect();
        let mut sim = Simulator::new(b.build());
        sim.poke_bus(&bus, 0xA5);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.bus_value(&bus), Some(0xA5));
        assert_eq!(sim.bus_value(&outs), Some(0x5A));
    }

    #[test]
    fn energy_accrues_on_transitions_only() {
        let mut b = builder();
        let a = b.input("a");
        let _y = b.inv("u0", a);
        let mut sim = Simulator::new(b.build());
        sim.poke(a, Logic::Low);
        sim.run_to_quiescence().unwrap();
        let e1 = sim.total_energy();
        // No stimulus, no energy.
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.total_energy(), e1);
        sim.poke(a, Logic::High);
        sim.run_to_quiescence().unwrap();
        assert!(sim.total_energy() > e1);
    }

    #[test]
    fn energy_lands_in_the_right_domain() {
        let mut b = builder();
        let a = b.input("a");
        b.set_domain("enc");
        let y = b.inv("u0", a);
        b.set_domain("dec");
        let _z = b.inv("u1", y);
        let mut sim = Simulator::new(b.build());
        sim.poke(a, Logic::Low);
        sim.run_to_quiescence().unwrap();
        sim.reset_energy();
        sim.poke(a, Logic::High);
        sim.run_to_quiescence().unwrap();
        let report = sim.energy_report();
        assert!(report.energy_of("enc").value() > 0.0);
        assert!(report.energy_of("dec").value() > 0.0);
        // The input net `a` lives in the default domain.
        assert!(report.energy_of("top").value() > 0.0);
    }

    #[test]
    fn latch_in_circuit_captures_on_falling_enable() {
        let mut b = builder();
        let d = b.input("d");
        let g = b.input("g");
        let q = b.latch("lat", d, g);
        let mut sim = Simulator::new(b.build());
        sim.poke(d, Logic::High);
        sim.poke(g, Logic::High);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(q), Logic::High);
        // Close the latch, then change D: Q must hold.
        sim.poke(g, Logic::Low);
        sim.run_to_quiescence().unwrap();
        sim.poke(d, Logic::Low);
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(q), Logic::High, "latch holds captured value");
        assert!(sim.violations().is_empty(), "{:?}", sim.violations());
    }

    #[test]
    fn the_sampler_reads_its_nets_at_each_strobe_fall() {
        let mut b = builder();
        let d = b.input("d");
        let g = b.input("g");
        let q = b.latch("lat", d, g);
        let mut sim = Simulator::new(b.build());
        sim.arm_sampler(g, &[q, d]);
        let mut step = |net, level| {
            let t = sim.now();
            sim.poke(net, level);
            sim.run_to_quiescence().unwrap();
            t
        };
        step(d, Logic::High);
        step(g, Logic::Low); // X → low is no fall
        step(g, Logic::High);
        let t1 = step(g, Logic::Low);
        step(d, Logic::Low);
        step(g, Logic::High);
        let t2 = step(g, Logic::Low);
        let sample = |time, values: [Logic; 2]| StrobeSample {
            time,
            values: values.to_vec(),
        };
        assert_eq!(
            sim.take_samples(),
            [
                sample(t1, [Logic::High, Logic::High]),
                sample(t2, [Logic::Low, Logic::Low])
            ]
        );
        assert!(sim.take_samples().is_empty(), "taking disarms the sampler");
    }

    #[test]
    fn events_fit_in_12_bytes() {
        assert!(std::mem::size_of::<Event>() <= 12);
    }

    #[test]
    fn per_net_and_per_cell_tables_stay_narrow() {
        let mut b = builder();
        let a = b.input("a");
        let _ = b.inv("u0", a);
        let sim = Simulator::new(b.build());
        assert!(
            std::mem::size_of_val(sim.net_class.as_slice()) <= 4 * sim.values.len(),
            "a net's energy class index is at most 4 bytes"
        );
        assert!(std::mem::size_of::<CellFast>() <= 48);
    }

    /// Every net's class meters what its own capacitance does, bit for
    /// bit, in its own domain and with its own fanout flag, on a netlist
    /// of several domains, wire caps, fanouts and undriven nets.
    #[test]
    fn each_net_class_reproduces_its_nets_edge_energy() {
        let mut b = builder();
        let a = b.input("a");
        let c = b.input("c");
        b.set_domain("enc");
        let x = b.inv("u0", a);
        let y = b.nand2("u1", [x, x]);
        b.add_wire_cap(y, Farads::from_femtos(0.7));
        b.set_domain("dec");
        let z = b.xor2("u2", [y, c]);
        let w = b.inv("u3", z);
        b.add_wire_cap(w, Farads::from_femtos(2.5));
        b.add_wire_cap(a, Farads::from_femtos(0.7));
        let q = b.latch("u4", w, y);
        let _ = b.inv("u5", q);
        let sim = Simulator::new(b.build());
        let circuit = sim.circuit();
        let mut seen = std::collections::HashSet::new();
        for net in circuit.net_ids() {
            let record = &circuit.nets[net.index()];
            let class = sim.class_of(net.index());
            let (rise, fall) = circuit.library.edge_energy(circuit.net_cap(net));
            assert_eq!(
                class.edge.map(|e| e.0.to_bits()),
                [fall.0.to_bits(), rise.0.to_bits()],
                "{}",
                circuit.net_name(net)
            );
            assert_eq!(class.domain, record.domain);
            assert_eq!(class.fanout_dup, record.fanout_dup);
            seen.insert(sim.net_class[net.index()]);
        }
        assert!(
            sim.classes.len() < circuit.net_count(),
            "nets share classes"
        );
        assert_eq!(seen.len(), sim.classes.len(), "every class has a net");
        assert!(circuit.nets[x.index()].fanout_dup, "u1 listens twice on x");
        assert_eq!(circuit.domain_names().len(), 3);
    }

    /// A full adder or latch whose arc does not fit `u32` femtoseconds is
    /// not compiled: it takes the generic path, at its full delay.
    #[test]
    fn a_cell_with_an_arc_past_u32_femtoseconds_takes_the_generic_path() {
        let mut b = builder();
        let d = b.input("d");
        let g = b.input("g");
        let q = b.net("q");
        let slow = b
            .library_mut()
            .timing_scaled(crate::library::CellClass::Latch, 1e6);
        assert!(slow.fall.as_femtos() > u64::from(u32::MAX));
        let latch = crate::cells::DLatch::new(slow, slow.worst());
        b.add_cell_kind("lat", latch, &[d, g], &[q]);
        let mut sim = Simulator::new(b.build());
        assert!(matches!(sim.cell_fast[0], CellFast::Generic));
        sim.poke(d, Logic::Low);
        sim.poke(g, Logic::High);
        let t = sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(q), Logic::Low);
        assert_eq!(
            t, slow.fall,
            "the transparent latch passes D after its fall arc"
        );
    }

    #[test]
    fn drain_bits_takes_only_its_range_across_words() {
        let mut bits = vec![0u64; 3];
        for b in [3, 60, 61, 64, 127, 128, 130] {
            set_bit(&mut bits, b);
        }
        let mut out = Vec::new();
        drain_bits(&mut bits, 61..129, &mut out);
        assert_eq!(out, [0, 3, 66, 67]);
        assert_eq!(bits, [1 << 3 | 1 << 60, 0, 1 << 2], "bits outside kept");
        drain_bits(&mut bits, 3..3, &mut out);
        assert_eq!(
            out.len(),
            4,
            "an empty range (a cell with no inputs) takes nothing"
        );
        assert!(take_bit(&mut bits, 130) && !take_bit(&mut bits, 130));
        assert_eq!(bits, [1 << 3 | 1 << 60, 0, 0]);
    }

    #[test]
    fn queue_high_water_is_folded_after_each_burst_of_pushes() {
        let mut q = EventQueue::new(1);
        let push = |q: &mut EventQueue, fs: u64| {
            q.push(
                SimTime::from_femtos(fs),
                Event {
                    net: NetId(0),
                    gen: 0,
                    value: Logic::High,
                },
            )
        };
        for fs in [5, 3, 5, 9] {
            push(&mut q, fs);
        }
        assert_eq!(q.max_len, 0, "a push leaves the mark alone");
        q.fold_high_water();
        assert_eq!(q.max_len, 4);
        // A delta cycle pops the earliest bucket first, then pushes.
        let t = q.earliest_time().expect("queued");
        let bucket = q.pop_bucket_at(t).expect("one event at 3 fs");
        q.recycle(bucket);
        push(&mut q, 7);
        q.fold_high_water();
        assert_eq!((q.len, q.max_len), (4, 4));
        push(&mut q, 7);
        push(&mut q, 8);
        q.fold_high_water();
        assert_eq!((q.len, q.max_len), (6, 6));
    }

    /// The high-water mark counts events that are popped before anything
    /// is pushed again: a burst of pokes nothing listens to, and a lone
    /// power-up drive.
    #[test]
    fn max_queue_counts_pokes_and_power_up_drives_that_are_never_followed() {
        let mut b = builder();
        let ins: Vec<NetId> = (0..3).map(|i| b.input(format_args!("in{i}"))).collect();
        let mut sim = Simulator::new(b.build());
        for &net in &ins {
            sim.poke(net, Logic::High);
        }
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.stats().max_queue, 3, "the pokes");
        let mut b = builder();
        b.tie("t", Logic::Low);
        let mut sim = Simulator::new(b.build());
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.stats().max_queue, 1, "the tie's power-up drive");
    }

    #[test]
    fn stats_are_populated() {
        let mut b = builder();
        let a = b.input("a");
        let _ = b.inv("u0", a);
        let mut sim = Simulator::new(b.build());
        sim.poke(a, Logic::Low);
        sim.run_to_quiescence().unwrap();
        let s = sim.stats();
        assert!(s.events_popped > 0 && s.transitions > 0 && s.evals > 0);
        assert!(s.max_queue >= 1);
    }
}
