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
//! A name is a *scope* plus a *leaf*, and the builder records it without
//! rendering it: [`CircuitBuilder::enter_scope`] opens a scope once (say
//! `blk3`, then `blk3.dec5` inside it), and each cell or net inside is
//! named by a [`Leaf`], a static pattern plus its integers such as
//! `fa{}` with 5. Scopes and names are nodes of one table per circuit,
//! 16 bytes each, and a name renders only when it is read
//! ([`Circuit::net_name`], [`Circuit::cell_name`], [`Circuit::find_net`],
//! VCD export and violation records). A name given as any other
//! [`fmt::Display`] value is formatted into the table's one text buffer
//! instead. The output net of a gate made by the builder's gate sugar
//! (`inv`, `latch`, `full_adder`, …) has no node at all: it renders as
//! its driver cell's name plus the pin suffix (`.y`, `.q`, `.s`, `.c` or
//! `.p`).

use crate::cell::Cell;
use crate::cells::CellKind;
use crate::library::CellLibrary;
use maddpipe_tech::units::Farads;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hasher};
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
    /// Node `k` of the circuit's [`Names`] table.
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

/// One segment of a netlist name: a static pattern whose `{}` holes take
/// the leaf's integers in order, so `fa{}` with 5 reads `fa5`. The
/// builder records the pattern and the integers, not the text. Make one
/// with [`leaf!`](crate::leaf).
#[derive(Debug, Clone, Copy)]
pub struct Leaf {
    pattern: &'static str,
    ints: [u32; 2],
    holes: u8,
}

impl Leaf {
    /// `pattern` with its `{}` holes filled by `ints`, in order. A leaf
    /// takes at most two integers.
    ///
    /// # Panics
    ///
    /// Panics if an integer exceeds `u32::MAX`. Recording the leaf panics
    /// if the pattern's holes do not match the integers.
    #[inline]
    pub fn new<const N: usize>(pattern: &'static str, ints: [usize; N]) -> Leaf {
        const { assert!(N <= 2, "a leaf takes at most two integers") };
        let mut packed = [0; 2];
        for (slot, int) in packed.iter_mut().zip(ints) {
            *slot = u32::try_from(int).expect("a name's integer fits u32");
        }
        Leaf {
            pattern,
            ints: packed,
            holes: N as u8,
        }
    }
}

/// Builds a [`Leaf`], taking its integers as `format_args!` takes its
/// arguments: `leaf!("ib{}_{}", e, i)` reads `ib2_7` for `e = 2`,
/// `i = 7`, and `leaf!("pche")` has no holes.
#[macro_export]
macro_rules! leaf {
    ($pattern:literal $(, $int:expr)* $(,)?) => {
        $crate::circuit::Leaf::new($pattern, [$($int),*])
    };
}

/// A naming scope of a [`CircuitBuilder`]: the names recorded inside it
/// render as the scope's name, a dot and their leaf (see
/// [`CircuitBuilder::enter_scope`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope(u32);

impl Scope {
    /// The outermost scope, where a name renders as its leaf alone.
    pub const ROOT: Scope = Scope(u32::MAX);
}

/// A name as the builder takes it. A [`Leaf`] is recorded as its pattern
/// and integers; any other [`fmt::Display`] value is formatted into the
/// name table's text.
pub trait NameArg {
    /// Records this name inside `scope` and returns its node.
    #[doc(hidden)]
    fn record(self, names: &mut Names, scope: Scope) -> u32;
}

impl NameArg for Leaf {
    #[inline]
    fn record(self, names: &mut Names, scope: Scope) -> u32 {
        let pattern = names.intern(self.pattern, self.holes);
        names.push(Node {
            scope,
            pattern,
            ints: self.ints,
        })
    }
}

impl<T: fmt::Display> NameArg for T {
    fn record(self, names: &mut Names, scope: Scope) -> u32 {
        let start = names.text_len();
        write!(names.text, "{self}").expect("writing to a String cannot fail");
        let end = names.text_len();
        names.push(Node {
            scope,
            pattern: Node::TEXT,
            ints: [start, end],
        })
    }
}

/// One node of the name table: a scope, or the name of a cell or net,
/// each a leaf inside its enclosing scope.
#[derive(Debug, Clone, Copy)]
struct Node {
    scope: Scope,
    /// Index of the leaf's pattern in [`Names::patterns`], or
    /// [`Node::TEXT`] for a formatted leaf, whose `ints` are then its
    /// byte range in [`Names::text`].
    pattern: u32,
    ints: [u32; 2],
}

impl Node {
    /// The `pattern` of a formatted leaf.
    const TEXT: u32 = u32::MAX;
}

/// A leaf pattern of the name table, and the number of its holes.
#[derive(Debug)]
struct Pattern {
    text: &'static str,
    holes: u8,
}

/// A leaf as the table holds it: formatted text, or a pattern and its
/// integers.
enum LeafParts<'a> {
    Text(&'a str),
    Pattern(&'static str, &'a [u32]),
}

/// A circuit's name table: every scope and every recorded cell and net
/// name as a node, rendered only when it is read.
#[derive(Debug)]
pub struct Names {
    nodes: Vec<Node>,
    /// Every pattern the nodes use.
    patterns: Vec<Pattern>,
    /// A pattern's index by its address, length and holes.
    pattern_index: HashMap<(usize, usize, u8), u32, BuildHasherDefault<KeyHasher>>,
    /// The text of every formatted leaf.
    text: String,
}

impl Names {
    fn new() -> Names {
        Names {
            nodes: Vec::new(),
            patterns: Vec::new(),
            pattern_index: HashMap::default(),
            text: String::new(),
        }
    }

    /// Appends `node` and returns its index.
    #[inline]
    fn push(&mut self, node: Node) -> u32 {
        let k = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&k| k != Scope::ROOT.0)
            .expect("more than u32::MAX - 1 names");
        self.nodes.push(node);
        k
    }

    fn text_len(&self) -> u32 {
        u32::try_from(self.text.len()).expect("more than 4 GiB of names")
    }

    /// The index of `pattern`, added on its first use.
    #[inline]
    fn intern(&mut self, pattern: &'static str, holes: u8) -> u32 {
        let key = (pattern.as_ptr() as usize, pattern.len(), holes);
        if let Some(&k) = self.pattern_index.get(&key) {
            return k;
        }
        assert_eq!(
            pattern.matches("{}").count(),
            usize::from(holes),
            "leaf pattern `{pattern}` given {holes} integers"
        );
        let k = u32::try_from(self.patterns.len()).expect("fewer patterns than names");
        self.patterns.push(Pattern {
            text: pattern,
            holes,
        });
        self.pattern_index.insert(key, k);
        k
    }

    fn leaf<'a>(&'a self, node: &'a Node) -> LeafParts<'a> {
        let [start, end] = node.ints;
        match self.patterns.get(node.pattern as usize) {
            Some(p) => LeafParts::Pattern(p.text, &node.ints[..usize::from(p.holes)]),
            None => LeafParts::Text(&self.text[start as usize..end as usize]),
        }
    }

    /// `true` when `node`'s leaf joins its scope without a dot: it opens
    /// with `[`, as a bus index does.
    fn joins(&self, node: &Node) -> bool {
        match self.leaf(node) {
            LeafParts::Text(text) | LeafParts::Pattern(text, _) => text.starts_with('['),
        }
    }

    /// Appends the full name of node `k` to `out`: the leaves of its
    /// scopes, outermost first, then its own, joined by dots.
    fn write(&self, k: u32, out: &mut String) {
        let node = &self.nodes[k as usize];
        if node.scope != Scope::ROOT {
            self.write(node.scope.0, out);
            if !self.joins(node) {
                out.push('.');
            }
        }
        match self.leaf(node) {
            LeafParts::Text(text) => out.push_str(text),
            LeafParts::Pattern(pattern, ints) => {
                let mut pieces = pattern.split("{}");
                out.push_str(pieces.next().unwrap_or_default());
                for (int, piece) in ints.iter().zip(pieces) {
                    write!(out, "{int}{piece}").expect("writing to a String cannot fail");
                }
            }
        }
    }

    /// The full name of node `k`, borrowed when it is one formatted leaf
    /// in the outermost scope.
    pub(crate) fn render(&self, k: u32) -> Cow<'_, str> {
        let node = &self.nodes[k as usize];
        match self.leaf(node) {
            LeafParts::Text(text) if node.scope == Scope::ROOT => Cow::Borrowed(text),
            _ => {
                let mut out = String::new();
                self.write(k, &mut out);
                Cow::Owned(out)
            }
        }
    }

    /// A net's name as a node plus a suffix: a recorded name is its node
    /// alone; a gate-sugar output is its driver's node plus the pin
    /// suffix.
    fn net_parts(net: &Net, cells: &[CellInstance]) -> (u32, &'static str) {
        match net.name {
            NetName::Stored(k) => (k, ""),
            NetName::Output(suffix) => {
                let driver = net
                    .driver()
                    .expect("a gate-sugar output net has its driver");
                (cells[driver.index()].name, suffix.as_str())
            }
        }
    }

    /// The full name of `net`.
    fn net_name(&self, net: &Net, cells: &[CellInstance]) -> Cow<'_, str> {
        match Names::net_parts(net, cells) {
            (k, "") => self.render(k),
            (k, suffix) => Cow::Owned(self.render(k).into_owned() + suffix),
        }
    }

    /// `name` without the full name of node `k` at its end, if it ends
    /// with it; nothing is rendered.
    fn strip<'n>(&self, k: u32, name: &'n str) -> Option<&'n str> {
        let node = &self.nodes[k as usize];
        let rest = match self.leaf(node) {
            LeafParts::Text(text) => name.strip_suffix(text)?,
            LeafParts::Pattern(pattern, ints) => {
                let mut rest = name;
                let mut ints = ints.iter().rev();
                for (i, piece) in pattern.rsplit("{}").enumerate() {
                    if i > 0 {
                        rest = strip_decimal(rest, *ints.next()?)?;
                    }
                    rest = rest.strip_suffix(piece)?;
                }
                rest
            }
        };
        if node.scope == Scope::ROOT {
            return Some(rest);
        }
        let rest = if self.joins(node) {
            rest
        } else {
            rest.strip_suffix('.')?
        };
        self.strip(node.scope.0, rest)
    }

    /// `true` when node `k`'s full name followed by `suffix` is `name`.
    fn matches(&self, k: u32, suffix: &str, name: &str) -> bool {
        name.strip_suffix(suffix)
            .and_then(|rest| self.strip(k, rest))
            .is_some_and(str::is_empty)
    }

    /// Bytes the table holds: its node and pattern records, its index and
    /// its text, as allocated.
    fn bytes(&self) -> usize {
        let index_entry = std::mem::size_of::<((usize, usize, u8), u32)>() + 1;
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.patterns.capacity() * std::mem::size_of::<Pattern>()
            + self.pattern_index.capacity() * index_entry
            + self.text.capacity()
    }
}

/// `s` without the decimal digits of `n` at its end, if it ends with them.
fn strip_decimal(s: &str, mut n: u32) -> Option<&str> {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    s.strip_suffix(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

/// A multiply-rotate hash for small keys of whole words, one multiply per
/// word where the default SipHash runs several rounds: the name table
/// looks up the pattern of every leaf it records, and the kernel's class
/// interner every net.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.write_u64(u64::from(byte));
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
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
    /// Node of the circuit's [`Names`] table.
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

    /// Name of a net, rendered from the name table. A gate's output net
    /// made by the builder's gate sugar renders as its driver's name plus
    /// the pin suffix.
    pub fn net_name(&self, id: NetId) -> Cow<'_, str> {
        self.names.net_name(&self.nets[id.index()], &self.cells)
    }

    /// Name of a cell instance, rendered from the name table.
    pub fn cell_name(&self, id: CellId) -> Cow<'_, str> {
        self.names.render(self.cells[id.index()].name)
    }

    /// Looks a net up by exact name, returning the first net that carries
    /// it. A linear scan that matches each name from its end without
    /// rendering it — intended for tests and debugging, not hot paths.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|net| {
                let (k, suffix) = Names::net_parts(net, &self.cells);
                self.names.matches(k, suffix, name)
            })
            .map(|i| NetId(i as u32))
    }

    /// Bytes of name text the circuit holds: the formatted leaves. A
    /// netlist named by [`Leaf`]s alone holds none.
    pub fn name_text_bytes(&self) -> usize {
        self.names.text.len()
    }

    /// Bytes the name table holds, as allocated: its node and pattern
    /// records, its pattern index and its text.
    pub fn name_table_bytes(&self) -> usize {
        self.names.bytes()
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
/// use maddpipe_sim::leaf;
/// use maddpipe_sim::prelude::*;
///
/// let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
/// let mut b = CircuitBuilder::new(lib);
/// let a = b.input("a");
/// let outer = b.enter_scope(leaf!("blk{}", 3));
/// let y = b.inv(leaf!("u{}", 0), a);
/// b.restore_scope(outer);
/// let c = b.build();
/// assert_eq!(c.cell_count(), 1);
/// assert!(c.is_primary_input(a) && !c.is_primary_input(y));
/// assert_eq!(c.net_name(y), "blk3.u0.y");
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
    scope: Scope,
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
            scope: Scope::ROOT,
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

    /// Opens a scope named `name` inside the current one: until
    /// [`CircuitBuilder::restore_scope`], every name recorded renders as
    /// the scope's full name, a dot and its own leaf. Returns the
    /// enclosing scope, to restore.
    pub fn enter_scope(&mut self, name: impl NameArg) -> Scope {
        let scope = Scope(name.record(&mut self.names, self.scope));
        std::mem::replace(&mut self.scope, scope)
    }

    /// Restores a scope previously returned by
    /// [`CircuitBuilder::enter_scope`].
    pub fn restore_scope(&mut self, scope: Scope) {
        assert!(
            scope == Scope::ROOT || (scope.0 as usize) < self.names.nodes.len(),
            "unknown scope {scope:?}"
        );
        self.scope = scope;
    }

    /// Records `name` in the current scope and returns its node.
    fn record(&mut self, name: impl NameArg) -> u32 {
        name.record(&mut self.names, self.scope)
    }

    /// Creates a fresh undriven net named `name`.
    pub fn net(&mut self, name: impl NameArg) -> NetId {
        let name = NetName::Stored(self.record(name));
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
    pub fn input(&mut self, name: impl NameArg) -> NetId {
        self.net(name)
    }

    /// Creates a bus of `width` nets named `name[0..width]`, LSB first.
    pub fn bus(&mut self, name: impl NameArg, width: usize) -> Vec<NetId> {
        let bus = Scope(self.record(name));
        (0..width)
            .map(|i| {
                let name = NetName::Stored(crate::leaf!("[{}]", i).record(&mut self.names, bus));
                self.push_net(name)
            })
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
        name: impl NameArg,
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
        name: impl NameArg,
        cell: impl Into<CellKind>,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> CellId {
        let k = self.record(name);
        let cell = cell.into();
        assert_eq!(
            cell.num_inputs(),
            inputs.len(),
            "cell `{}` expects {} inputs, got {}",
            self.names.render(k),
            cell.num_inputs(),
            inputs.len()
        );
        assert_eq!(
            cell.num_outputs(),
            outputs.len(),
            "cell `{}` expects {} outputs, got {}",
            self.names.render(k),
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
                "net `{}` already driven by cell {existing:?}; cell `{}` would double-drive it",
                self.names.net_name(&self.nets[net.index()], &self.cells),
                self.names.render(k),
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

    /// Names recorded inside scopes render as the scopes' leaves and their
    /// own, joined by dots, a bus index without one; `find_net` matches
    /// them from their end without rendering.
    #[test]
    fn scoped_names_render_in_full_and_are_found() {
        let mut b = builder();
        let blk = b.enter_scope(crate::leaf!("blk{}", 12));
        let x = b.bus(crate::leaf!("x{}_{}", 3, 4), 2);
        let dec = b.enter_scope("dec");
        let out = b.net(crate::leaf!("t{}_out", 1));
        let y = b.inv(crate::leaf!("u{}", 7), out);
        let text = b.net(format_args!("n{}", 40));
        b.restore_scope(dec);
        let data = b.bus("data", 1);
        b.restore_scope(blk);
        let top = b.net("top");
        let c = b.build();
        let nets = [
            (x[1], "blk12.x3_4[1]"),
            (out, "blk12.dec.t1_out"),
            (y, "blk12.dec.u7.y"),
            (text, "blk12.dec.n40"),
            (data[0], "blk12.data[0]"),
            (top, "top"),
        ];
        for (net, name) in nets {
            assert_eq!(c.net_name(net), name);
            assert_eq!(c.find_net(name), Some(net), "{name}");
        }
        assert_eq!(c.cell_name(CellId(0)), "blk12.dec.u7");
        assert!(matches!(c.net_name(top), Cow::Borrowed(_)));
        for miss in [
            "blk12.x3_4[2]",
            "blk12.x3_4.[1]",
            "x3_4[1]",
            "blk1.dec.t1_out",
            "blk12.dect1_out",
            "blk12.dec.t1_outs",
            "2.dec.t1_out",
            "blk12.dec.u7",
            "blk12.dec.u7.q",
            "blk12.dec",
        ] {
            assert_eq!(c.find_net(miss), None, "{miss}");
        }
        assert_eq!(c.name_text_bytes(), "decn40datatop".len());
    }

    #[test]
    #[should_panic(expected = "given 2 integers")]
    fn a_leaf_fills_exactly_its_holes() {
        builder().net(crate::leaf!("x{}", 1, 2));
    }

    #[test]
    fn name_nodes_fit_in_16_bytes() {
        assert!(std::mem::size_of::<Node>() <= 16);
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
