//! Golden equivalence of the optimized event kernel against the naive
//! reference kernel.
//!
//! The production `Simulator` earns its throughput with a bucketed event
//! queue, delta batching with an epoch-stamped dirty set and changed-pin
//! bit sets (kept only for the cells that read their triggers), compiled
//! gate, full-adder, latch and SRAM read-column tables and an
//! allocation-free evaluation path. The `ReferenceSimulator` implements
//! the same delta-cycle semantics with none of those tricks. For random
//! netlists and random stimulus, the two must agree on every final net
//! value, the quiescence time, each energy domain's switching energy and
//! edge count, and every recorded violation — bit for bit.
//!
//! `PROPTEST_CASES` sets the number of random cases (default 48).

use maddpipe::sim::cells::{CElement, DLatch, PulseGen, ReadColumn};
use maddpipe::sim::prelude::*;
use maddpipe::sim::reference::ReferenceSimulator;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// A test-defined cell wider than one 64-bit word of changed-pin bits.
/// Its output depends on exactly which pins are listed as triggers: the
/// XOR of each changed pin's value and pin parity, flipped once more when
/// an odd number of pins changed.
#[derive(Debug)]
struct WideCell {
    width: usize,
    delay: SimTime,
}

impl Cell for WideCell {
    fn num_inputs(&self) -> usize {
        self.width
    }

    fn num_outputs(&self) -> usize {
        1
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        let mut acc = Logic::from_bool(ctx.triggers().len() % 2 == 1);
        for &pin in ctx.triggers() {
            acc = acc ^ ctx.input(pin) ^ Logic::from_bool(pin % 2 == 1);
        }
        ctx.drive(0, acc, self.delay);
    }
}

/// One step of the netlist-growing recipe. Indices are taken modulo the
/// current net-pool size, so any `usize` is valid.
#[derive(Debug, Clone)]
enum GateOp {
    Inv(usize),
    Buf(usize),
    Nand2(usize, usize),
    Nor2(usize, usize),
    And2(usize, usize),
    Or2(usize, usize),
    Xor2(usize, usize),
    Nand3(usize, usize, usize),
    Mux2(usize, usize, usize),
    FullAdder(usize, usize, usize),
    Latch(usize, usize),
    CElement(usize, usize),
    DelayLine(usize, u16),
    PulseGen(usize, u16, u16),
    /// A [`WideCell`] of `65 + width % 64` inputs, pin `i` on pool net
    /// `start + i * stride`, so one net often lands on several pins.
    Wide {
        start: usize,
        stride: usize,
        width: u8,
        delay: u16,
    },
    /// A [`ReadColumn`] storing `word`, precharged by pool net `pche`,
    /// with its 16 wordlines on the pool nets `rows`. Random rows often
    /// assert several wordlines at once, and pool nets start at `X`, so
    /// both protocol violations and the `X` precharge are reached. With
    /// `inverted`, each wordline first passes through a fresh inverter,
    /// so the 16 row nets are consecutive, as the decoder builds them.
    Column {
        pche: usize,
        rows: Vec<usize>,
        word: u16,
        inverted: bool,
    },
}

fn gate_op() -> impl Strategy<Value = GateOp> {
    prop_oneof![
        any::<usize>().prop_map(GateOp::Inv),
        any::<usize>().prop_map(GateOp::Buf),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateOp::Nand2(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateOp::Nor2(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateOp::And2(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateOp::Or2(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateOp::Xor2(a, b)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(a, b, c)| GateOp::Nand3(a, b, c)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(a, b, c)| GateOp::Mux2(a, b, c)),
        (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(a, b, c)| GateOp::FullAdder(a, b, c)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateOp::Latch(a, b)),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| GateOp::CElement(a, b)),
        (any::<usize>(), 1u16..2000).prop_map(|(a, d)| GateOp::DelayLine(a, d)),
        (any::<usize>(), 1u16..500, 1u16..500).prop_map(|(a, d, w)| GateOp::PulseGen(a, d, w)),
        (any::<usize>(), any::<usize>(), any::<u8>(), 1u16..500).prop_map(
            |(start, stride, width, delay)| GateOp::Wide {
                start,
                stride,
                width,
                delay,
            }
        ),
        (
            any::<usize>(),
            proptest::collection::vec(any::<usize>(), 16..17),
            any::<u16>(),
            any::<bool>(),
        )
            .prop_map(|(pche, rows, word, inverted)| GateOp::Column {
                pche,
                rows,
                word,
                inverted,
            }),
    ]
}

/// The energy domains a recipe step's output nets are drawn from; the
/// primary inputs stay in `top`.
const DOMAINS: [&str; 3] = ["top", "enc", "dec"];

/// Builds the same netlist twice (cells are stateful, so each kernel
/// needs its own instance) and returns the primary inputs plus every net
/// created by the recipe (inputs and gate outputs alike). Each step puts
/// its output nets in the energy domain `DOMAINS[domain % 3]`.
fn build(n_inputs: usize, ops: &[(GateOp, usize)]) -> (Circuit, Vec<NetId>, Vec<NetId>) {
    let mut b = builder();
    let inputs: Vec<NetId> = (0..n_inputs).map(|i| b.input(format!("in{i}"))).collect();
    let mut pool = inputs.clone();
    let pick = |pool: &[NetId], i: usize| pool[i % pool.len()];
    for (k, (op, domain)) in ops.iter().enumerate() {
        b.set_domain(DOMAINS[domain % DOMAINS.len()]);
        let out = match *op {
            GateOp::Inv(a) => b.inv(&format!("g{k}"), pick(&pool, a)),
            GateOp::Buf(a) => b.buf_gate(&format!("g{k}"), [pick(&pool, a)]),
            GateOp::Nand2(a, c) => b.nand2(&format!("g{k}"), [pick(&pool, a), pick(&pool, c)]),
            GateOp::Nor2(a, c) => b.nor2(&format!("g{k}"), [pick(&pool, a), pick(&pool, c)]),
            GateOp::And2(a, c) => b.and2(&format!("g{k}"), [pick(&pool, a), pick(&pool, c)]),
            GateOp::Or2(a, c) => b.or2(&format!("g{k}"), [pick(&pool, a), pick(&pool, c)]),
            GateOp::Xor2(a, c) => b.xor2(&format!("g{k}"), [pick(&pool, a), pick(&pool, c)]),
            GateOp::Nand3(a, c, d) => b.nand3(
                &format!("g{k}"),
                [pick(&pool, a), pick(&pool, c), pick(&pool, d)],
            ),
            GateOp::Mux2(a, c, s) => b.mux2(
                &format!("g{k}"),
                pick(&pool, a),
                pick(&pool, c),
                pick(&pool, s),
            ),
            GateOp::FullAdder(a, c, d) => {
                let (s, carry) = b.full_adder(
                    &format!("g{k}"),
                    pick(&pool, a),
                    pick(&pool, c),
                    pick(&pool, d),
                );
                pool.push(s);
                carry
            }
            GateOp::Latch(d, g) => b.latch(&format!("g{k}"), pick(&pool, d), pick(&pool, g)),
            GateOp::CElement(a, c) => {
                let t = b.library_mut().timing(CellClass::CElement);
                let q = b.net(format!("g{k}.q"));
                let (a, c) = (pick(&pool, a), pick(&pool, c));
                b.add_cell_kind(format!("g{k}"), CElement::new(t, Logic::Low), &[a, c], &[q]);
                q
            }
            GateOp::DelayLine(a, d) => b.delay_line(
                &format!("g{k}"),
                pick(&pool, a),
                SimTime::from_femtos(d as u64 * 10),
            ),
            GateOp::PulseGen(a, d, w) => {
                let p = b.net(format!("g{k}.p"));
                let trigger = pick(&pool, a);
                b.add_cell_kind(
                    format!("g{k}"),
                    PulseGen::new(
                        SimTime::from_femtos(d as u64 * 10),
                        SimTime::from_femtos(w as u64 * 10),
                    ),
                    &[trigger],
                    &[p],
                );
                p
            }
            GateOp::Wide {
                start,
                stride,
                width,
                delay,
            } => {
                let width = 65 + usize::from(width) % 64;
                let ins: Vec<NetId> = (0..width)
                    .map(|i| pick(&pool, start.wrapping_add(i.wrapping_mul(stride))))
                    .collect();
                let y = b.net(format!("g{k}.y"));
                let cell = WideCell {
                    width,
                    delay: SimTime::from_femtos(u64::from(delay) * 10),
                };
                b.add_cell(format!("g{k}"), Box::new(cell), &ins, &[y]);
                y
            }
            GateOp::Column {
                pche,
                ref rows,
                word,
                inverted,
            } => {
                let mut ins = vec![pick(&pool, pche)];
                for (i, &r) in rows.iter().enumerate() {
                    let row = pick(&pool, r);
                    ins.push(if inverted {
                        b.inv(&format!("g{k}.rwl{i}"), row)
                    } else {
                        row
                    });
                }
                let (rbl, rblb) = (b.net(format!("g{k}.rbl")), b.net(format!("g{k}.rblb")));
                let col = ReadColumn::new(
                    word,
                    SimTime::from_femtos(380_000),
                    SimTime::from_femtos(220_000),
                );
                b.add_cell_kind(format!("g{k}.col"), col, &ins, &[rbl, rblb]);
                pool.push(rbl);
                rblb
            }
        };
        pool.push(out);
    }
    (b.build(), inputs, pool)
}

fn builder() -> CircuitBuilder {
    CircuitBuilder::new(CellLibrary::new(
        Technology::n22(),
        OperatingPoint::default(),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(48),
        ..ProptestConfig::default()
    })]

    /// For random DAG-ish netlists (mixing stateless gates, full adders,
    /// stateful latches/C-elements, transport delay lines, multi-edge
    /// pulse generators, SRAM read columns and cells wider than 64 pins)
    /// spread over three energy domains, and random multi-phase stimulus,
    /// the optimized kernel and the naive reference agree on final net
    /// values, quiescence time, each domain's cumulative switching energy
    /// and edge count, and the recorded violations.
    #[test]
    fn optimized_kernel_matches_naive_reference(
        n_inputs in 1usize..5,
        ops in proptest::collection::vec((gate_op(), 0usize..3), 1..24),
        stimulus in proptest::collection::vec(
            proptest::collection::vec((any::<usize>(), any::<bool>()), 1..6),
            1..5,
        ),
    ) {
        let (circuit_a, inputs, nets) = build(n_inputs, &ops);
        let (circuit_b, _, _) = build(n_inputs, &ops);
        let mut fast = Simulator::new(circuit_a);
        let mut naive = ReferenceSimulator::new(circuit_b);
        // Bound runaway oscillators identically on both kernels.
        fast.set_event_cap(200_000);
        naive.set_event_cap(200_000);
        let mut oscillated = false;
        for phase in &stimulus {
            for &(which, high) in phase {
                let net = inputs[which % inputs.len()];
                let v = Logic::from_bool(high);
                fast.poke(net, v);
                naive.poke(net, v);
            }
            let ra = fast.run_to_quiescence();
            let rb = naive.run_to_quiescence();
            prop_assert_eq!(ra.is_ok(), rb.is_ok(), "settling outcome differs");
            if ra.is_err() {
                // Both kernels agree the recipe oscillates; mid-flight
                // state is cut off at an arbitrary event count, so there
                // is nothing further to compare.
                oscillated = true;
                break;
            }
            prop_assert_eq!(ra.unwrap(), rb.unwrap(), "quiescence time");
        }
        if !oscillated {
            // Every net, not just outputs: intermediate state must match.
            for (i, &net) in nets.iter().enumerate() {
                prop_assert_eq!(fast.value(net), naive.value(net), "net {}", i);
            }
            prop_assert_eq!(fast.now(), naive.now(), "final clocks");
            prop_assert!(
                (fast.total_energy().value() - naive.total_energy().value()).abs() == 0.0,
                "energy: fast {} vs naive {}",
                fast.total_energy(),
                naive.total_energy()
            );
            let (fast_rows, naive_rows) = (fast.energy_report().rows, naive.energy_report().rows);
            prop_assert_eq!(fast_rows.len(), naive_rows.len(), "domain count");
            for (f, n) in fast_rows.iter().zip(&naive_rows) {
                prop_assert_eq!(&f.domain, &n.domain);
                prop_assert_eq!(
                    f.energy.value().to_bits(),
                    n.energy.value().to_bits(),
                    "energy of {}: fast {} vs naive {}",
                    f.domain,
                    f.energy,
                    n.energy
                );
                prop_assert_eq!(f.edges, n.edges, "edges of {}", f.domain);
            }
            prop_assert_eq!(fast.violations(), naive.violations(), "violations");
        }
    }
}

/// A latch whose D changes inside its setup window before G falls: the
/// compiled latch reports the same violation as the reference (time,
/// cell, kind and detail) and drives Q to `X`.
#[test]
fn latch_setup_violation_matches_the_reference() {
    let build = || {
        let mut b = builder();
        let d = b.input("d");
        let g_in = b.input("g_in");
        let g = b.delay_line("g_delay", g_in, SimTime::from_picos(10.0));
        let t = b.library_mut().timing(CellClass::Latch);
        let q = b.net("lat.q");
        b.add_cell_kind(
            "lat",
            DLatch::new(t, SimTime::from_picos(50.0)),
            &[d, g],
            &[q],
        );
        (b.build(), d, g_in, q)
    };
    let (circuit, d, g_in, q) = build();
    let mut fast = Simulator::new(circuit);
    let mut naive = ReferenceSimulator::new(build().0);
    // Transparent with D high, then D falls 10 ps before G does.
    for level in [Logic::High, Logic::Low] {
        fast.poke(d, level);
        fast.poke(g_in, level);
        naive.poke(d, level);
        naive.poke(g_in, level);
        assert_eq!(
            fast.run_to_quiescence().unwrap(),
            naive.run_to_quiescence().unwrap()
        );
    }
    let violations = fast.violations();
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind, ViolationKind::Setup);
    assert_eq!(violations[0].cell, "lat");
    assert_eq!(violations, naive.violations());
    assert_eq!(fast.value(q), Logic::X);
    assert_eq!(naive.value(q), Logic::X);
}

/// The trigger list of every evaluation, with its time.
type TriggerLog = Rc<RefCell<Vec<(SimTime, Vec<usize>)>>>;

/// A one-input cell that records each evaluation's trigger list.
#[derive(Debug)]
struct TriggerRecorder(TriggerLog);

impl Cell for TriggerRecorder {
    fn num_inputs(&self) -> usize {
        1
    }

    fn num_outputs(&self) -> usize {
        0
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        self.0
            .borrow_mut()
            .push((ctx.now(), ctx.triggers().to_vec()));
    }
}

/// A net that falls and rises again within one delta cycle, watched by a
/// [`TriggerRecorder`]. Two pulse generators, ORed, give rising edges
/// exactly `w` apart; they fire a third generator of width `w`, whose
/// falling edge from the first trigger and rising edge from the second
/// land at the same femtosecond. Returns the circuit, its input and the
/// double-edged net.
fn double_edge_circuit(log: TriggerLog) -> (Circuit, NetId, NetId) {
    let mut b = builder();
    let a = b.input("a");
    let (delay, width, w) = (
        SimTime::from_picos(100.0),
        SimTime::from_picos(200.0),
        SimTime::from_picos(500.0),
    );
    let p1 = b.pulse_gen("p1", a, delay, width);
    let p2 = b.pulse_gen("p2", a, delay + w, width);
    let either = b.or2("or", [p1, p2]);
    let p3 = b.pulse_gen("p3", either, SimTime::from_picos(50.0), w);
    b.add_cell("log", Box::new(TriggerRecorder(log)), &[p3], &[]);
    (b.build(), a, p3)
}

/// A pin whose net transitions twice in one delta cycle is listed once in
/// `EvalCtx::triggers`, on both kernels.
#[test]
fn each_changed_pin_appears_once_in_triggers() {
    let (fast_log, naive_log) = (TriggerLog::default(), TriggerLog::default());
    let (circuit, a, p3) = double_edge_circuit(Rc::clone(&fast_log));
    let mut fast = Simulator::new(circuit);
    fast.trace_net(p3);
    let mut naive = ReferenceSimulator::new(double_edge_circuit(Rc::clone(&naive_log)).0);
    for level in [Logic::Low, Logic::High] {
        fast.poke(a, level);
        naive.poke(a, level);
        assert_eq!(
            fast.run_to_quiescence().unwrap(),
            naive.run_to_quiescence().unwrap()
        );
    }
    let both_edges = fast
        .trace_entries()
        .windows(2)
        .find(|e| e[0].time == e[1].time)
        .expect("p3 falls and rises at the same femtosecond")[0]
        .time;
    let fast_log = fast_log.borrow();
    assert!(
        fast_log.contains(&(both_edges, vec![0])),
        "at {both_edges}: {fast_log:?}"
    );
    assert_eq!(*fast_log, *naive_log.borrow());
}
