//! Read-completion-detection (RCD) trees.
//!
//! Per paper Fig. 5 C, the per-column `RCD_col` signals are merged with a
//! NAND–NOR tournament into one `RCD_LUT` signal per decoder, and the
//! per-decoder signals are merged again into the block-level `RCD` used by
//! the handshake controller. The alternating NAND/NOR levels implement a
//! wide AND with two-input standard cells (cheaper and faster than a single
//! wide gate).

use maddpipe_sim::circuit::{CircuitBuilder, NetId};
use std::fmt;

/// Builds an active-high completion tree: the output rises only after
/// *every* input is high.
///
/// Levels alternate NAND and NOR; a final inverter is inserted when the
/// depth leaves the result active-low. Odd leftover signals at a level are
/// carried to the next level unchanged (with their polarity tracked).
///
/// Returns the completion net.
///
/// # Panics
///
/// Panics if `inputs` is empty.
pub fn build_completion_tree(
    b: &mut CircuitBuilder,
    name: impl fmt::Display,
    inputs: &[NetId],
) -> NetId {
    assert!(
        !inputs.is_empty(),
        "completion tree needs at least one input"
    );
    // Track (net, active_high) pairs per level.
    let mut level: Vec<(NetId, bool)> = inputs.iter().map(|&n| (n, true)).collect();
    let mut stage = 0usize;
    while level.len() > 1 || !level[0].1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut i = 0;
        while i + 1 < level.len() {
            let (a, pa) = level[i];
            let (c, pc) = level[i + 1];
            let gate_name = format_args!("{name}.t{stage}_{}", i / 2);
            let merged = match (pa, pc) {
                (true, true) => {
                    // AND of two active-high → NAND, result active-low.
                    (b.nand2(gate_name, [a, c]), false)
                }
                (false, false) => {
                    // AND of two active-low  → NOR, result active-high.
                    (b.nor2(gate_name, [a, c]), true)
                }
                (true, false) | (false, true) => {
                    // Mixed polarity: invert the active-low one first.
                    let (lo, hi) = if pa { (c, a) } else { (a, c) };
                    let fixed = b.inv(format_args!("{gate_name}.fix"), lo);
                    (b.nand2(gate_name, [fixed, hi]), false)
                }
            };
            next.push(merged);
            i += 2;
        }
        if i < level.len() {
            next.push(level[i]);
        }
        // A single active-low survivor needs a final inverter.
        if next.len() == 1 && !next[0].1 {
            let inv = b.inv(format_args!("{name}.t{stage}_out"), next[0].0);
            next[0] = (inv, true);
        }
        level = next;
        stage += 1;
        assert!(stage < 64, "completion tree failed to converge");
    }
    level[0].0
}

/// Gate depth of a completion tree over `n` inputs (log₂, rounded up) —
/// used by the analytic latency model: deeper RCD trees are why larger
/// `Ndec` slightly increases decoder latency (paper §IV, Fig. 7 discussion).
pub fn completion_tree_depth(n: usize) -> usize {
    assert!(n > 0, "completion tree needs at least one input");
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_sim::engine::Simulator;
    use maddpipe_sim::library::CellLibrary;
    use maddpipe_sim::logic::Logic;
    use maddpipe_tech::corner::OperatingPoint;
    use maddpipe_tech::process::Technology;

    fn tree_sim(n: usize) -> (Simulator, Vec<NetId>, NetId) {
        let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
        let mut b = CircuitBuilder::new(lib);
        let inputs: Vec<NetId> = (0..n).map(|i| b.input(format_args!("in{i}"))).collect();
        let out = build_completion_tree(&mut b, "rcd", &inputs);
        let sim = Simulator::new(b.build());
        (sim, inputs, out)
    }

    #[test]
    fn output_high_only_when_all_inputs_high() {
        for n in [1usize, 2, 3, 4, 5, 8, 16] {
            let (mut sim, inputs, out) = tree_sim(n);
            for &i in &inputs {
                sim.poke(i, Logic::Low);
            }
            sim.run_to_quiescence().unwrap();
            assert_eq!(sim.value(out), Logic::Low, "n={n}, all low");
            // Raise all but one.
            for &i in &inputs[1..] {
                sim.poke(i, Logic::High);
            }
            sim.run_to_quiescence().unwrap();
            if n > 1 {
                assert_eq!(sim.value(out), Logic::Low, "n={n}, one low");
            }
            sim.poke(inputs[0], Logic::High);
            sim.run_to_quiescence().unwrap();
            assert_eq!(sim.value(out), Logic::High, "n={n}, all high");
        }
    }

    #[test]
    fn exhaustive_four_input_truth() {
        for pattern in 0u8..16 {
            let (mut sim, inputs, out) = tree_sim(4);
            for (i, &net) in inputs.iter().enumerate() {
                sim.poke(net, Logic::from_bool(pattern >> i & 1 == 1));
            }
            sim.run_to_quiescence().unwrap();
            let expected = Logic::from_bool(pattern == 0b1111);
            assert_eq!(sim.value(out), expected, "pattern {pattern:04b}");
        }
    }

    #[test]
    fn completion_is_last_arriving_input() {
        let (mut sim, inputs, out) = tree_sim(8);
        for &i in &inputs {
            sim.poke(i, Logic::Low);
        }
        sim.run_to_quiescence().unwrap();
        // Raise 7 inputs now, the 8th later; completion must track the 8th.
        for &i in &inputs[..7] {
            sim.poke(i, Logic::High);
        }
        sim.run_to_quiescence().unwrap();
        assert_eq!(sim.value(out), Logic::Low);
        let t_before = sim.now();
        sim.poke(inputs[7], Logic::High);
        let t_done = sim.run_until_net(out, Logic::High).unwrap().unwrap();
        assert!(t_done > t_before);
    }

    #[test]
    fn depth_is_logarithmic() {
        assert_eq!(completion_tree_depth(1), 0);
        assert_eq!(completion_tree_depth(2), 1);
        assert_eq!(completion_tree_depth(8), 3);
        assert_eq!(completion_tree_depth(9), 4);
        assert_eq!(completion_tree_depth(16), 4);
        assert_eq!(completion_tree_depth(128), 7);
    }
}
