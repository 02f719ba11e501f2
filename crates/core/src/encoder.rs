//! The self-synchronous BDT encoder — 15 DLCs in a tournament (Fig. 4 A).
//!
//! The root comparator evaluates when the controller raises `CALCE`; each
//! rail discharge enables exactly one child through an inverter, so only
//! the four comparators on the decision path ever evaluate — the property
//! that gives the encoder its 95 % energy reduction over the clocked
//! design of Stella Nera (§IV). The eight leaf comparators' rails, through
//! the RWL driver inverters, form the 16 one-hot read wordlines.

use crate::calib::Calibration;
use crate::config::LEVELS;
use crate::dlc::{to_offset_binary, DlcCell};
use maddpipe_amm::bdt::QuantizedBdt;
use maddpipe_sim::circuit::{CircuitBuilder, NetId};
use maddpipe_tech::process::DriveKind;
use std::fmt;

/// Nets exposed by a built encoder.
#[derive(Debug, Clone)]
pub struct EncoderPorts {
    /// The 16 active-high one-hot read wordlines, leaf order (RWL\[k\]
    /// asserts for prototype `k`).
    pub rwl: Vec<NetId>,
    /// The dual rails of every DLC node, heap order, for waveform probing:
    /// `rails[i] = (yp, yn)`.
    pub rails: Vec<(NetId, NetId)>,
}

/// Builds the 4-level encoder for one compute block.
///
/// * `tree` — the trained, quantised hash function (must be 4 levels).
/// * `x_bits` — per subvector element, the 8 offset-binary bit nets (LSB
///   first); elements are indexed by the tree's split dimensions.
/// * `calce` — the controller's compute-enable (low = precharge).
///
/// # Panics
///
/// Panics if the tree is not 4 levels deep, if a split dimension has no
/// corresponding element, or if an element has a width other than 8 bits.
pub fn build_encoder(
    b: &mut CircuitBuilder,
    name: impl fmt::Display,
    tree: &QuantizedBdt,
    x_bits: &[Vec<NetId>],
    calce: NetId,
    cal: &Calibration,
) -> EncoderPorts {
    assert_eq!(
        tree.levels(),
        LEVELS,
        "the hardware encoder is fixed at {LEVELS} levels"
    );
    for (dim, bits) in x_bits.iter().enumerate() {
        assert_eq!(bits.len(), 8, "element {dim} must be 8 bits");
    }
    for &dim in tree.split_dims() {
        assert!(
            dim < x_bits.len(),
            "split dimension {dim} exceeds the {}-element subvector",
            x_bits.len()
        );
    }
    let prev_domain = b.set_domain("encoder");
    let n_internal = (1usize << LEVELS) - 1;
    let thresholds = tree.thresholds();
    let mut rails: Vec<(NetId, NetId)> = Vec::with_capacity(n_internal);
    let mut clks: Vec<NetId> = vec![calce];
    for node in 0..n_internal {
        let level = (usize::BITS - (node + 1).leading_zeros() - 1) as usize;
        let dim = tree.split_dims()[level];
        let t_base = b.library_mut().delay(cal.dlc_base, DriveKind::PullDown);
        let t_bit = b.library_mut().delay(cal.dlc_per_bit, DriveKind::PullDown);
        let t_pchg = b.library_mut().delay(cal.dlc_precharge, DriveKind::PullUp);
        let cell = DlcCell::new(to_offset_binary(thresholds[node]), t_base, t_bit, t_pchg);
        let yp = b.net(format_args!("{name}.n{node}.yp"));
        let yn = b.net(format_args!("{name}.n{node}.yn"));
        // Dual-rail dynamic nodes carry the 8-stage comparator chain's
        // internal diffusion load.
        let rail_cap = maddpipe_tech::units::Farads::from_femtos(2.5);
        b.add_wire_cap(yp, rail_cap);
        b.add_wire_cap(yn, rail_cap);
        let mut inputs = vec![clks[node]];
        inputs.extend(&x_bits[dim]);
        b.add_cell(
            format_args!("{name}.dlc{node}"),
            Box::new(cell),
            &inputs,
            &[yp, yn],
        );
        rails.push((yp, yn));
        // Children (if any) evaluate when a rail discharges: the inverter
        // turns the active-low rail into an active-high clock.
        if 2 * node + 2 < n_internal + (1 << LEVELS) {
            let clk_left = b.inv(format_args!("{name}.en{}", 2 * node + 1), yp);
            let clk_right = b.inv(format_args!("{name}.en{}", 2 * node + 2), yn);
            // Heap order: children of `node` are 2n+1 and 2n+2.
            debug_assert_eq!(clks.len(), 2 * node + 1);
            clks.push(clk_left);
            clks.push(clk_right);
        }
    }
    // Leaf rails → RWL drivers. Level-3 node j (heap index 7 + j) owns
    // leaves 2j (via YP, the "<" side) and 2j + 1 (via YN, the "≥" side).
    let first_leaf_node = (1usize << (LEVELS - 1)) - 1;
    let mut rwl = Vec::with_capacity(1 << LEVELS);
    for j in 0..(1usize << (LEVELS - 1)) {
        let (yp, yn) = rails[first_leaf_node + j];
        rwl.push(b.inv(format_args!("{name}.rwl{}", 2 * j), yp));
        rwl.push(b.inv(format_args!("{name}.rwl{}", 2 * j + 1), yn));
    }
    b.restore_domain(prev_domain);
    EncoderPorts { rwl, rails }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_amm::bdt::BdtEncoder;
    use maddpipe_amm::quant::QuantScale;
    use maddpipe_sim::engine::Simulator;
    use maddpipe_sim::library::CellLibrary;
    use maddpipe_sim::logic::{u64_to_bits, Logic};
    use maddpipe_tech::corner::OperatingPoint;
    use maddpipe_tech::process::Technology;

    struct Dut {
        sim: Simulator,
        calce: NetId,
        x_bits: Vec<Vec<NetId>>,
        ports: EncoderPorts,
    }

    fn tree_from(split_dims: Vec<usize>, thresholds: Vec<f32>) -> QuantizedBdt {
        BdtEncoder::from_parts(split_dims, thresholds)
            .unwrap()
            .quantize(QuantScale::UNIT)
    }

    fn dut(tree: QuantizedBdt, elems: usize) -> Dut {
        let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
        let mut b = CircuitBuilder::new(lib);
        let calce = b.input("calce");
        let x_bits: Vec<Vec<NetId>> = (0..elems).map(|i| b.bus(format_args!("x{i}"), 8)).collect();
        let ports = build_encoder(&mut b, "enc", &tree, &x_bits, calce, &Calibration::paper());
        Dut {
            sim: Simulator::new(b.build()),
            calce,
            x_bits,
            ports,
        }
    }

    fn classify(d: &mut Dut, x: &[i8]) -> usize {
        d.sim.poke(d.calce, Logic::Low);
        for (elem, bits) in d.x_bits.iter().enumerate() {
            let code = to_offset_binary(x[elem]);
            for (net, bit) in bits.iter().zip(u64_to_bits(code as u64, 8)) {
                d.sim.poke(*net, bit);
            }
        }
        d.sim.run_to_quiescence().unwrap();
        d.sim.poke(d.calce, Logic::High);
        d.sim.run_to_quiescence().unwrap();
        let hot: Vec<usize> = d
            .ports
            .rwl
            .iter()
            .enumerate()
            .filter(|(_, &n)| d.sim.value(n) == Logic::High)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(hot.len(), 1, "RWL must be one-hot, got {hot:?}");
        hot[0]
    }

    #[test]
    fn rtl_matches_algorithmic_encoder_exhaustively() {
        // A 4-level tree over a 9-element subvector with varied thresholds.
        let tree = tree_from(
            vec![0, 3, 6, 7],
            vec![
                0.0, -40.0, 40.0, -80.0, -10.0, 10.0, 80.0, -100.0, -60.0, -20.0, 5.0, 25.0, 60.0,
                90.0, 120.0,
            ],
        );
        let mut d = dut(tree.clone(), 9);
        // Probe a grid of inputs on the compared dimensions.
        let probe = [-128i8, -100, -64, -21, -20, 0, 4, 5, 39, 40, 100, 127];
        for &a in &probe {
            for &c in &probe[..6] {
                let mut x = [0i8; 9];
                x[0] = a;
                x[3] = c;
                x[6] = a.wrapping_add(c);
                x[7] = c;
                let expected = {
                    let q: Vec<i8> = x.to_vec();
                    tree.encode_one(&q)
                };
                let got = classify(&mut d, &x);
                assert_eq!(got, expected, "x = {x:?}");
            }
        }
    }

    #[test]
    fn only_the_path_comparators_fire() {
        let tree = tree_from(vec![0, 1, 2, 3], vec![0.0; 15]);
        let mut d = dut(tree, 4);
        let _ = classify(&mut d, &[100, 100, 100, 100]);
        // Count discharged rails: exactly one rail per level fired (4 of
        // 30 rails low).
        let low_rails = d
            .ports
            .rails
            .iter()
            .flat_map(|&(p, n)| [p, n])
            .filter(|&r| d.sim.value(r) == Logic::Low)
            .count();
        assert_eq!(low_rails, LEVELS, "exactly one rail per level discharges");
    }

    #[test]
    fn precharge_clears_all_wordlines() {
        let tree = tree_from(vec![0, 1, 2, 3], vec![0.0; 15]);
        let mut d = dut(tree, 4);
        let _ = classify(&mut d, &[-5, 5, -5, 5]);
        d.sim.poke(d.calce, Logic::Low);
        d.sim.run_to_quiescence().unwrap();
        for &w in &d.ports.rwl {
            assert_eq!(d.sim.value(w), Logic::Low, "RWL must drop after precharge");
        }
        for &(yp, yn) in &d.ports.rails {
            assert_eq!(d.sim.value(yp), Logic::High);
            assert_eq!(d.sim.value(yn), Logic::High);
        }
    }

    #[test]
    fn boundary_inputs_take_longer_than_decisive_ones() {
        // All thresholds 0 on dim 0..3. x far from threshold → MSB decides;
        // x equal to threshold → full ripple.
        let tree = tree_from(vec![0, 1, 2, 3], vec![0.0; 15]);
        let mut d = dut(tree.clone(), 4);
        // Decisive: large positive values (MSB of offset-binary differs).
        d.sim.poke(d.calce, Logic::Low);
        d.sim.run_to_quiescence().unwrap();
        let t0 = d.sim.now();
        let _ = classify(&mut d, &[100, 100, 100, 100]);
        let fast = d.sim.now().since(t0);
        // Equal: x == t everywhere → every DLC walks all 8 stages.
        let t1 = d.sim.now();
        let _ = classify(&mut d, &[0, 0, 0, 0]);
        let slow = d.sim.now().since(t1);
        assert!(
            slow.as_picos() > fast.as_picos() + 4.0 * 6.0 * 91.0 * 0.8,
            "worst-case walk must be slower: fast {fast}, slow {slow}"
        );
    }

    #[test]
    fn second_classification_after_precharge_is_clean() {
        let tree = tree_from(
            vec![0, 1, 2, 3],
            vec![
                0.0, -30.0, 30.0, -60.0, -15.0, 15.0, 60.0, -90.0, -45.0, -7.0, 7.0, 45.0, 75.0,
                100.0, 120.0,
            ],
        );
        let mut d = dut(tree.clone(), 4);
        for x in [
            [-100i8, -100, -100, -100],
            [100, 100, 100, 100],
            [0, 0, 0, 0],
        ] {
            let expected = tree.encode_one(&x);
            assert_eq!(classify(&mut d, &x), expected, "{x:?}");
        }
    }
}
