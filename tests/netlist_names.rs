//! Netlist names are part of what the simulator reports: violation
//! records name cells, and waveform exports and `find_net` lookups name
//! nets. These pins hold every name of two small macros, in id order,
//! against the files under `tests/golden/` (captured from the netlist
//! builder before names moved into the per-circuit name arena), and an
//! FNV-1a digest over all 108,967 names of the flagship.

use maddpipe::prelude::*;
use maddpipe::sim::{Circuit, NetId};
use std::collections::HashMap;

/// Every net name, then every cell name, each in id order.
fn names(circuit: &Circuit) -> (Vec<String>, Vec<String>) {
    let nets = circuit
        .net_ids()
        .map(|n| circuit.net_name(n).into_owned())
        .collect();
    let cells = circuit
        .cell_ids()
        .map(|c| circuit.cell_name(c).to_owned())
        .collect();
    (nets, cells)
}

fn check_small_macro(ndec: usize, ns: usize, seed: u64, golden_nets: &str, golden_cells: &str) {
    let cfg = MacroConfig::new(ndec, ns);
    let rtl = AcceleratorRtl::build(&cfg, &MacroProgram::random(ndec, ns, seed));
    let circuit = rtl.simulator().circuit();
    let (nets, cells) = names(circuit);
    assert_eq!(nets, golden_nets.lines().collect::<Vec<_>>(), "net names");
    assert_eq!(
        cells,
        golden_cells.lines().collect::<Vec<_>>(),
        "cell names"
    );

    // `find_net` maps each net name back to the first net carrying it.
    let mut first: HashMap<&str, NetId> = HashMap::new();
    for (id, name) in circuit.net_ids().zip(&nets) {
        first.entry(name.as_str()).or_insert(id);
    }
    for name in &nets {
        assert_eq!(circuit.find_net(name), Some(first[name.as_str()]), "{name}");
    }
    // A gate's output renders as its cell's name plus a pin suffix; the
    // cell's name alone names no net.
    for name in &cells {
        if !first.contains_key(name.as_str()) {
            assert_eq!(circuit.find_net(name), None, "{name}");
        }
    }
}

#[test]
fn small_macro_names_match_the_golden_files() {
    check_small_macro(
        2,
        2,
        1,
        include_str!("golden/netlist_names_2x2.nets"),
        include_str!("golden/netlist_names_2x2.cells"),
    );
    check_small_macro(
        1,
        2,
        2,
        include_str!("golden/netlist_names_1x2.nets"),
        include_str!("golden/netlist_names_1x2.cells"),
    );
}

/// 64-bit FNV-1a over every net name and then every cell name, each
/// followed by a newline.
#[test]
fn flagship_names_digest_is_pinned() {
    let cfg = MacroConfig::paper_flagship();
    let rtl = AcceleratorRtl::build(&cfg, &MacroProgram::random(cfg.ndec, cfg.ns, 1));
    let (nets, cells) = names(rtl.simulator().circuit());
    assert_eq!((nets.len(), cells.len()), (62_212, 46_755));
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for name in nets.iter().chain(&cells) {
        for &byte in name.as_bytes().iter().chain(b"\n") {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(hash, 0x9b53_4cd9_fb99_26b8, "flagship name digest");
}
