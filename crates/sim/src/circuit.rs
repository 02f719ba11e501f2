//! Netlist construction: nets, cell instances, energy domains.
//!
//! A [`CircuitBuilder`] accumulates nets and cells, tracks which *energy
//! domain* each net belongs to (encoder / decoder / control / …, mirroring
//! the component groups of the paper's Fig. 7 breakdown), computes the
//! switched capacitance of every net from the connected pins plus explicit
//! wire loading, and finally seals everything into an immutable [`Circuit`]
//! ready for simulation: each net's fanout and each cell's input and output
//! nets live in flat, index-addressed tables rather than per-net and
//! per-cell lists.
//!
//! Names live in one text buffer per circuit, the *name arena*: a cell or
//! a named net holds a `u32` index into it, and the builder writes each
//! name (any [`fmt::Display`], typically a `format_args!`) straight into
//! the buffer, so building a netlist allocates no string per name. The
//! output net of a gate made by the builder's gate sugar (`inv`, `latch`,
//! `full_adder`, …) stores no text at all: it renders as its driver
//! cell's name plus the pin suffix (`.y`, `.q`, `.s`, `.c` or `.p`), so
//! [`Circuit::net_name`] may return an owned string.

use crate::cell::Cell;
use crate::cells::CellKind;
use crate::library::CellLibrary;
use maddpipe_tech::units::Farads;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// Identifier of a net within one circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Index into the circuit's net table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a cell instance within one circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellId(pub(crate) u32);

impl CellId {
    /// Index into the circuit's cell table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an energy-accounting domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DomainId(pub(crate) u16);

impl DomainId {
    /// The default domain every circuit starts with.
    pub const TOP: DomainId = DomainId(0);
}

/// Where a net's name comes from.
#[derive(Debug, Clone, Copy)]
pub(crate) enum NetName {
    /// Name `k` of the circuit's [`Names`] arena.
    Stored(u32),
    /// The driving cell's name followed by this suffix: the output of a
    /// gate made by the builder's gate sugar.
    Output(OutputSuffix),
}

/// The output pin suffix a gate-sugar net renders with.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OutputSuffix {
    /// `.y`: a combinational gate, delay line or tie cell.
    Y,
    /// `.q`: a latch or C-element.
    Q,
    /// `.s`: a full adder's sum.
    S,
    /// `.c`: a full adder's carry.
    C,
    /// `.p`: a pulse generator.
    P,
}

impl OutputSuffix {
    fn as_str(self) -> &'static str {
        match self {
            OutputSuffix::Y => ".y",
            OutputSuffix::Q => ".q",
            OutputSuffix::S => ".s",
            OutputSuffix::C => ".c",
            OutputSuffix::P => ".p",
        }
    }
}

/// The name arena: every stored name of a circuit in one text buffer,
/// name `k` being `text[start[k]..start[k + 1]]`.
#[derive(Debug)]
pub(crate) struct Names {
    text: String,
    start: Vec<u32>,
}

impl Names {
    fn new() -> Names {
        Names {
            text: String::new(),
            start: vec![0],
        }
    }

    /// Writes `name` at the end of the buffer and returns its index.
    fn push(&mut self, name: impl fmt::Display) -> u32 {
        let k = u32::try_from(self.start.len() - 1).expect("more than u32::MAX names");
        write!(self.text, "{name}").expect("writing to a String cannot fail");
        self.start
            .push(u32::try_from(self.text.len()).expect("more than 4 GiB of names"));
        k
    }

    /// Name `k`.
    #[inline]
    pub(crate) fn get(&self, k: u32) -> &str {
        let k = k as usize;
        &self.text[self.start[k] as usize..self.start[k + 1] as usize]
    }

    /// A net's name as a stem plus a suffix: a stored name is all stem; a
    /// gate-sugar output is its driver's name plus the pin suffix.
    fn parts<'a>(&'a self, net: &Net, cells: &[CellInstance]) -> (&'a str, &'static str) {
        match net.name {
            NetName::Stored(k) => (self.get(k), ""),
            NetName::Output(suffix) => {
                let driver = net
                    .driver()
                    .expect("a gate-sugar output net has its driver");
                (self.get(cells[driver.index()].name), suffix.as_str())
            }
        }
    }

    /// The rendered name of `net`.
    fn render<'a>(&'a self, net: &Net, cells: &[CellInstance]) -> Cow<'a, str> {
        match self.parts(net, cells) {
            (stem, "") => Cow::Borrowed(stem),
            (stem, suffix) => Cow::Owned([stem, suffix].concat()),
        }
    }
}

/// One net: 24 bytes.
#[derive(Debug)]
pub(crate) struct Net {
    pub(crate) name: NetName,
    /// Total switched capacitance once sealed. Until
    /// [`CircuitBuilder::build`] it holds only the explicit wire cap, to
    /// which the seal adds the pin and driver loads.
    pub(crate) cap: Farads,
    /// The driving cell's index, or [`Net::UNDRIVEN`].
    driver: u32,
    pub(crate) domain: DomainId,
    /// `true` when the same cell appears more than once in this net's
    /// fanout (it listens on several pins of this net) — the kernel's
    /// singleton-event fast path must then fall back to the dedup
    /// machinery. Sealed by [`CircuitBuilder::build`].
    pub(crate) fanout_dup: bool,
}

impl Net {
    /// The `driver` of a net no cell drives; no cell takes this index.
    const UNDRIVEN: u32 = u32::MAX;

    /// The cell driving this net, if any.
    #[inline]
    pub(crate) fn driver(&self) -> Option<CellId> {
        (self.driver != Net::UNDRIVEN).then_some(CellId(self.driver))
    }
}

pub(crate) struct CellInstance {
    /// Index into the circuit's [`Names`] arena.
    pub(crate) name: u32,
    pub(crate) cell: CellKind,
}

impl fmt::Debug for CellInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellInstance")
            .field("name", &self.name)
            .finish()
    }
}

/// One entry of a net's fanout: a cell input pin the net feeds, named by
/// its flat pin ([`Circuit::input_pins`]). The top bit marks the pins of
/// cells that never read their trigger list (see
/// `GateShape::reads_triggers`): the kernel keeps no changed-pin bit for
/// those, so the entry carries the bit to set, or none, in its 8 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FanoutPin {
    /// The listening cell.
    pub(crate) cell: CellId,
    flat: u32,
}

impl FanoutPin {
    /// Set on the flat pins of cells that keep no changed-pin bits.
    const UNTRACKED: u32 = 1 << 31;

    /// The flat pin.
    #[inline]
    pub(crate) fn flat_pin(self) -> usize {
        (self.flat & !Self::UNTRACKED) as usize
    }

    /// The changed-pin bit the kernel sets when the net transitions, or
    /// `None` when the cell does not read its trigger list.
    #[inline]
    pub(crate) fn changed_bit(self) -> Option<usize> {
        (self.flat & Self::UNTRACKED == 0).then_some(self.flat as usize)
    }
}

/// A list of lists packed into one array plus an offset table (CSR
/// layout): row `i` is `items[start[i]..start[i + 1]]`. One allocation
/// per table instead of one per row, and rows that are walked together
/// sit next to each other in memory.
#[derive(Debug)]
struct Csr<T> {
    items: Vec<T>,
    start: Vec<u32>,
}

impl<T: Copy> Csr<T> {
    fn new() -> Csr<T> {
        Csr {
            items: Vec::new(),
            start: vec![0],
        }
    }

    fn push_row(&mut self, row: &[T]) {
        self.items.extend_from_slice(row);
        self.start
            .push(u32::try_from(self.items.len()).expect("more than u32::MAX table entries"));
    }

    /// The flat index range of row `i`.
    #[inline]
    fn range(&self, i: usize) -> Range<usize> {
        self.start[i] as usize..self.start[i + 1] as usize
    }

    #[inline]
    fn row(&self, i: usize) -> &[T] {
        &self.items[self.range(i)]
    }
}

/// A sealed netlist, ready to be handed to
/// [`Simulator::new`](crate::engine::Simulator::new).
#[derive(Debug)]
pub struct Circuit {
    pub(crate) nets: Vec<Net>,
    pub(crate) cells: Vec<CellInstance>,
    /// Per net: the input pins it feeds, in ascending cell then pin order.
    fanout: Csr<FanoutPin>,
    /// Per cell: its input nets in pin order. The flat index of an entry
    /// is the cell's *flat pin* (see [`Circuit::input_pins`]).
    inputs: Csr<NetId>,
    /// Per cell: its output nets in pin order.
    outputs: Csr<NetId>,
    pub(crate) names: Names,
    pub(crate) domains: Vec<String>,
    pub(crate) library: CellLibrary,
}

impl Circuit {
    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of cell instances.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Every net, in id order.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Every cell instance, in id order.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Name of a net. Borrowed from the name arena, except for a gate's
    /// output net made by the builder's gate sugar, which is rendered
    /// from its driver's name.
    pub fn net_name(&self, id: NetId) -> Cow<'_, str> {
        self.names.render(&self.nets[id.index()], &self.cells)
    }

    /// Name of a cell instance.
    pub fn cell_name(&self, id: CellId) -> &str {
        self.names.get(self.cells[id.index()].name)
    }

    /// Looks a net up by exact name, returning the first net that carries
    /// it. Linear scan — intended for tests and debugging, not hot paths.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|net| {
                let (stem, suffix) = self.names.parts(net, &self.cells);
                name.len() == stem.len() + suffix.len()
                    && name.starts_with(stem)
                    && name.ends_with(suffix)
            })
            .map(|i| NetId(i as u32))
    }

    /// Names of all registered energy domains, indexed by [`DomainId`].
    pub fn domain_names(&self) -> &[String] {
        &self.domains
    }

    /// Total switched capacitance hanging on `net` (pins + wire).
    pub fn net_cap(&self, id: NetId) -> Farads {
        self.nets[id.index()].cap
    }

    /// `true` if nothing drives `net` (it is a primary input).
    pub fn is_primary_input(&self, id: NetId) -> bool {
        self.nets[id.index()].driver().is_none()
    }

    /// The input pins net `net` feeds, ascending by cell and then pin.
    #[inline]
    pub(crate) fn fanout(&self, net: usize) -> &[FanoutPin] {
        self.fanout.row(net)
    }

    /// The input pin of `f.cell` that fanout entry `f` names.
    #[inline]
    pub(crate) fn pin_of(&self, f: FanoutPin) -> usize {
        f.flat_pin() - self.input_pins(f.cell.index()).start
    }

    /// Input nets of cell `cell`, in pin order.
    #[inline]
    pub(crate) fn cell_inputs(&self, cell: usize) -> &[NetId] {
        self.inputs.row(cell)
    }

    /// Output nets of cell `cell`, in pin order.
    #[inline]
    pub(crate) fn cell_outputs(&self, cell: usize) -> &[NetId] {
        self.outputs.row(cell)
    }

    /// The flat pins of cell `cell`: input pin `p` of the cell is flat pin
    /// `input_pins(cell).start + p`. Flat pins number every input pin of
    /// the circuit `0..input_pin_count()`.
    #[inline]
    pub(crate) fn input_pins(&self, cell: usize) -> Range<usize> {
        self.inputs.range(cell)
    }

    /// Total input pins over all cells.
    pub(crate) fn input_pin_count(&self) -> usize {
        self.inputs.items.len()
    }
}

/// Incremental netlist builder.
///
/// ```
/// use maddpipe_sim::prelude::*;
///
/// let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
/// let mut b = CircuitBuilder::new(lib);
/// let a = b.input("a");
/// let y = b.inv("u0", a);
/// let c = b.build();
/// assert_eq!(c.cell_count(), 1);
/// assert!(c.is_primary_input(a) && !c.is_primary_input(y));
/// ```
#[derive(Debug)]
pub struct CircuitBuilder {
    nets: Vec<Net>,
    cells: Vec<CellInstance>,
    names: Names,
    inputs: Csr<NetId>,
    outputs: Csr<NetId>,
    domains: Vec<String>,
    domain_index: HashMap<String, DomainId>,
    current_domain: DomainId,
    pub(crate) library: CellLibrary,
}

impl CircuitBuilder {
    /// Starts a new netlist characterised by `library`.
    pub fn new(library: CellLibrary) -> CircuitBuilder {
        let mut domain_index = HashMap::new();
        domain_index.insert("top".to_owned(), DomainId::TOP);
        CircuitBuilder {
            nets: Vec::new(),
            cells: Vec::new(),
            names: Names::new(),
            inputs: Csr::new(),
            outputs: Csr::new(),
            domains: vec!["top".to_owned()],
            domain_index,
            current_domain: DomainId::TOP,
            library,
        }
    }

    /// Mutable access to the library (e.g. to sample custom delays while
    /// constructing macro-cells).
    pub fn library_mut(&mut self) -> &mut CellLibrary {
        &mut self.library
    }

    /// Shared access to the library.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// Switches the *current energy domain*; nets created afterwards are
    /// attributed to it. Returns the previous domain so callers can restore
    /// scope.
    pub fn set_domain(&mut self, name: &str) -> DomainId {
        let prev = self.current_domain;
        if let Some(&id) = self.domain_index.get(name) {
            self.current_domain = id;
        } else {
            let id = DomainId(
                u16::try_from(self.domains.len()).expect("more than 65535 energy domains"),
            );
            self.domains.push(name.to_owned());
            self.domain_index.insert(name.to_owned(), id);
            self.current_domain = id;
        }
        prev
    }

    /// Restores a domain previously returned by [`CircuitBuilder::set_domain`].
    pub fn restore_domain(&mut self, id: DomainId) {
        assert!(
            (id.0 as usize) < self.domains.len(),
            "unknown domain {id:?}"
        );
        self.current_domain = id;
    }

    /// Creates a fresh undriven net named `name`.
    pub fn net(&mut self, name: impl fmt::Display) -> NetId {
        let name = NetName::Stored(self.names.push(name));
        self.push_net(name)
    }

    /// Creates the output net of a gate the gate sugar is about to add:
    /// it stores no name and renders as its driver's name plus `suffix`.
    pub(crate) fn output_net(&mut self, suffix: OutputSuffix) -> NetId {
        self.push_net(NetName::Output(suffix))
    }

    fn push_net(&mut self, name: NetName) -> NetId {
        let id = NetId(u32::try_from(self.nets.len()).expect("more than u32::MAX nets"));
        self.nets.push(Net {
            name,
            cap: Farads::ZERO,
            driver: Net::UNDRIVEN,
            domain: self.current_domain,
            fanout_dup: false,
        });
        id
    }

    /// Creates a named primary input (alias of [`CircuitBuilder::net`],
    /// kept for intent).
    pub fn input(&mut self, name: impl fmt::Display) -> NetId {
        self.net(name)
    }

    /// Creates a bus of `width` nets named `name[0..width]`, LSB first.
    pub fn bus(&mut self, name: impl fmt::Display, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.net(format_args!("{name}[{i}]")))
            .collect()
    }

    /// Adds explicit wire capacitance to a net (long routes, bitlines).
    pub fn add_wire_cap(&mut self, net: NetId, cap: Farads) {
        assert!(cap.0 >= 0.0, "wire capacitance must be non-negative");
        self.nets[net.index()].cap += cap;
    }

    /// Instantiates an arbitrary boxed [`Cell`] through the
    /// [`CellKind::Dynamic`] escape hatch. Downstream crates modelling
    /// macro-cells (dual-rail comparators, handshake controllers) use
    /// this; the shipped standard cells go through
    /// [`CircuitBuilder::add_cell_kind`] (or the gate sugar), which the
    /// kernel dispatches without a virtual call.
    ///
    /// # Panics
    ///
    /// Panics if pin counts disagree with the cell, or if any output net
    /// already has a driver (multi-driver nets are not supported; model
    /// shared dynamic nodes as a single behavioural cell instead).
    pub fn add_cell(
        &mut self,
        name: impl fmt::Display,
        cell: Box<dyn Cell>,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> CellId {
        self.add_cell_kind(name, cell, inputs, outputs)
    }

    /// Instantiates a cell by behaviour [`CellKind`] (any shipped cell
    /// struct converts via `Into`); this is the statically-dispatched fast
    /// path of the event kernel.
    ///
    /// # Panics
    ///
    /// Panics if pin counts disagree with the cell, or if any output net
    /// already has a driver.
    pub fn add_cell_kind(
        &mut self,
        name: impl fmt::Display,
        cell: impl Into<CellKind>,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> CellId {
        let k = self.names.push(name);
        let name = self.names.get(k);
        let cell = cell.into();
        assert_eq!(
            cell.num_inputs(),
            inputs.len(),
            "cell `{name}` expects {} inputs, got {}",
            cell.num_inputs(),
            inputs.len()
        );
        assert_eq!(
            cell.num_outputs(),
            outputs.len(),
            "cell `{name}` expects {} outputs, got {}",
            cell.num_outputs(),
            outputs.len()
        );
        let id = u32::try_from(self.cells.len())
            .ok()
            .filter(|&i| i != Net::UNDRIVEN)
            .expect("more than u32::MAX - 1 cells");
        for &net in outputs {
            let existing = self.nets[net.index()].driver();
            assert!(
                existing.is_none(),
                "net `{}` already driven by cell {existing:?}; cell `{name}` would double-drive it",
                self.names.render(&self.nets[net.index()], &self.cells),
            );
            self.nets[net.index()].driver = id;
        }
        self.cells.push(CellInstance { name: k, cell });
        self.inputs.push_row(inputs);
        self.outputs.push_row(outputs);
        CellId(id)
    }

    /// Seals the netlist: packs every net's fanout into one flat table,
    /// resolves per-net capacitance (driver self-cap + fanout pin caps +
    /// explicit wire cap) and returns the [`Circuit`].
    ///
    /// # Panics
    ///
    /// Panics if the cells have more than 2³¹ input pins in total.
    pub fn build(mut self) -> Circuit {
        assert!(
            self.inputs.items.len() <= FanoutPin::UNTRACKED as usize,
            "more than 2^31 input pins"
        );
        // Transpose the per-cell input lists into per-net fanout lists
        // (a counting sort): walking cells and pins in ascending order
        // leaves every net's fanout sorted by cell, then pin.
        let mut fanout_start = vec![0u32; self.nets.len() + 1];
        for net in &self.inputs.items {
            fanout_start[net.index() + 1] += 1;
        }
        for i in 1..fanout_start.len() {
            fanout_start[i] += fanout_start[i - 1];
        }
        let mut fill = fanout_start.clone();
        let mut fanout_items = vec![
            FanoutPin {
                cell: CellId(0),
                flat: 0
            };
            self.inputs.items.len()
        ];
        for ci in 0..self.cells.len() {
            let untracked = if self.cells[ci].cell.shape().reads_triggers() {
                0
            } else {
                FanoutPin::UNTRACKED
            };
            for flat in self.inputs.range(ci) {
                let slot = &mut fill[self.inputs.items[flat].index()];
                fanout_items[*slot as usize] = FanoutPin {
                    cell: CellId(ci as u32),
                    flat: flat as u32 | untracked,
                };
                *slot += 1;
            }
        }
        let fanout = Csr {
            items: fanout_items,
            start: fanout_start,
        };
        // Pin capacitance estimate: every fanout pin contributes a gate-unit
        // load; drivers contribute self-capacitance. Custom macro-cells get
        // the same default treatment, which callers refine with
        // `add_wire_cap` where it matters (bitlines, wordlines).
        let unit = self.library.technology().cap_gate_unit;
        for (ni, net) in self.nets.iter_mut().enumerate() {
            let fanout = fanout.row(ni);
            let pin_cap = Farads(unit.0 * 1.2 * fanout.len() as f64);
            let self_cap = if net.driver().is_some() {
                Farads(unit.0 * 0.6)
            } else {
                Farads::ZERO
            };
            // `cap` holds the wire cap until here. It is added last, after
            // the pin and driver loads: float addition depends on order.
            net.cap = pin_cap + self_cap + net.cap;
            // Flag nets whose fanout lists the same cell on several pins
            // (adjacent entries, as the fanout is sorted by cell); the
            // kernel's singleton-event fast path keys off this.
            net.fanout_dup = fanout.windows(2).any(|w| w[0].cell == w[1].cell);
        }
        Circuit {
            nets: self.nets,
            cells: self.cells,
            fanout,
            inputs: self.inputs,
            outputs: self.outputs,
            names: self.names,
            domains: self.domains,
            library: self.library,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Inverter;
    use maddpipe_tech::prelude::*;

    fn builder() -> CircuitBuilder {
        CircuitBuilder::new(CellLibrary::new(
            Technology::n22(),
            OperatingPoint::default(),
        ))
    }

    #[test]
    fn nets_and_buses_get_names() {
        let mut b = builder();
        let n = b.net("clk");
        let bus = b.bus("data", 4);
        // A gate's output renders from its cell's name; a stored net may
        // carry the same text, and `find_net` returns the first.
        let y = b.inv("u0", n);
        let twin = b.net("u0.y");
        let c = b.build();
        assert_eq!(c.net_name(n), "clk");
        assert_eq!(c.net_name(bus[3]), "data[3]");
        assert_eq!(c.find_net("data[2]"), Some(bus[2]));
        assert_eq!(c.find_net("nope"), None);
        assert_eq!(c.cell_name(CellId(0)), "u0");
        assert_eq!(
            (c.net_name(y), c.net_name(twin)),
            ("u0.y".into(), "u0.y".into())
        );
        assert_eq!(c.find_net("u0.y"), Some(y));
        assert_eq!(c.find_net("u0"), None, "a cell's name names no net");
        assert_eq!(c.find_net("u0.yy"), None);
    }

    #[test]
    fn domains_are_interned() {
        let mut b = builder();
        let top = b.set_domain("encoder");
        assert_eq!(top, DomainId::TOP);
        let enc = b.set_domain("decoder"); // previous was "encoder"
        let dec = b.set_domain("encoder"); // previous was "decoder"
        assert_ne!(enc, dec);
        b.restore_domain(enc);
        let dec_again = b.set_domain("decoder");
        assert_eq!(dec_again, enc, "restore_domain put us back in `encoder`");
        let c = b.build();
        // Re-entering existing names must not create duplicates.
        assert_eq!(c.domain_names(), &["top", "encoder", "decoder"]);
    }

    #[test]
    fn capacitance_accumulates_from_fanout() {
        let mut b = builder();
        let a = b.input("a");
        let mid = {
            let t = b.library_mut().timing(crate::library::CellClass::Inv);
            let y = b.net("y");
            b.add_cell("u0", Box::new(Inverter::new(t)), &[a], &[y]);
            y
        };
        // Two more loads on `mid`.
        for i in 0..2 {
            let t = b.library_mut().timing(crate::library::CellClass::Inv);
            let o = b.net(format_args!("o{i}"));
            b.add_cell(
                format_args!("u{}", i + 1),
                Box::new(Inverter::new(t)),
                &[mid],
                &[o],
            );
        }
        b.add_wire_cap(mid, Farads::from_femtos(1.0));
        let c = b.build();
        let loaded = c.net_cap(mid);
        let unloaded = c.net_cap(a);
        assert!(loaded.0 > unloaded.0);
        assert!(loaded.as_femtos() > 1.0, "includes explicit wire cap");
    }

    #[test]
    fn nets_fit_in_24_bytes() {
        assert!(std::mem::size_of::<Net>() <= 24);
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_driving_panics() {
        let mut b = builder();
        let a = b.input("a");
        let y = b.net("y");
        let t1 = b.library_mut().timing(crate::library::CellClass::Inv);
        let t2 = b.library_mut().timing(crate::library::CellClass::Inv);
        b.add_cell("u0", Box::new(Inverter::new(t1)), &[a], &[y]);
        b.add_cell("u1", Box::new(Inverter::new(t2)), &[a], &[y]);
    }

    #[test]
    #[should_panic(expected = "expects 1 inputs")]
    fn wrong_pin_count_panics() {
        let mut b = builder();
        let a = b.input("a");
        let bnet = b.input("b");
        let y = b.net("y");
        let t = b.library_mut().timing(crate::library::CellClass::Inv);
        b.add_cell("u0", Box::new(Inverter::new(t)), &[a, bnet], &[y]);
    }
}
