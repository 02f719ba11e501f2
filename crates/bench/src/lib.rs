//! # maddpipe-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (run them with `cargo run -p maddpipe-bench --bin <name>
//! --release`) and the `bench_sim` performance ledger, the one harness
//! for host timings.
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig6` | energy vs area efficiency across VDD × corner |
//! | `fig7` | energy / latency / area breakdowns, Ndec = 4 vs 16 |
//! | `table1` | Ndec sweep of both efficiencies at 0.5 V and 0.8 V |
//! | `table2` | comparison against \[21\] and \[22\] |
//! | `accuracy` | the ResNet9 accuracy row of Table II |
//! | `dlc_latency` | Fig. 4 D/E data-dependent comparator delay |
//! | `ablation_async` | self-synchronous vs clocked pipeline (§III-A) |
//! | `ablation_rcd` | per-column RCD vs replica timing (§III-C) |
//! | `encoders` | encoding-function comparison (BDT vs LUT-NN vs PECAN) |
//! | `sweep_temp` | temperature sweep of the operating point |
//!
//! Every binary prints its table and writes it to `results/<name>.txt`.
//! `bench_sim` writes `results/BENCH_sim.json` instead: each row is the
//! median and quartiles of repeated samples taken in one run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod load_gen;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Renders an aligned text table.
///
/// ```
/// let s = maddpipe_bench::render_table(
///     "demo",
///     &["a", "b"],
///     &[vec!["1".into(), "2".into()]],
/// );
/// assert!(s.contains("demo") && s.contains('1'));
/// ```
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let mut line = String::new();
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(line, "{h:>w$}  ", w = w);
    }
    let _ = writeln!(out, "{}", line.trim_end());
    let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
    for row in rows {
        let mut line = String::new();
        for (cell, w) in row.iter().zip(&widths) {
            let _ = write!(line, "{cell:>w$}  ", w = w);
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

/// Prints a report section and records it under `results/<name>.txt`
/// (best-effort: printing always succeeds even if the filesystem write
/// does not).
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join(format!("{name}.txt")), content);
    }
}

/// The `results/` directory at the workspace root (falls back to the
/// current directory when the workspace root cannot be located).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up. The
    // run-time value, which `cargo run` sets, comes first: a copied tree
    // that reuses its copied `target/` is not rebuilt, so the compile-time
    // value still names the tree the binary was built in.
    let base = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
    base.parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// The event-kernel and macro workloads that the `bench_sim` binary
/// times for the `events_per_sec` and `tokens_per_sec` rows of
/// `results/BENCH_sim.json`.
pub mod kernel_workloads {
    use maddpipe_core::config::{MacroConfig, SUBVECTOR_LEN};
    use maddpipe_core::macro_rtl::{AcceleratorRtl, MacroProgram};
    use maddpipe_sim::cell::{Cell, EvalCtx};
    use maddpipe_sim::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Width of the bus in the bus-fanout workload.
    pub const BUS_WIDTH: usize = 16;

    /// A 16-input parity reducer as one behavioural cell — every bit of a
    /// bus lands on the same listener, the worst case for per-fanout-edge
    /// evaluation and the best case for delta-cycle batching.
    #[derive(Debug)]
    pub struct WideParity {
        delay: SimTime,
    }

    impl Cell for WideParity {
        fn num_inputs(&self) -> usize {
            BUS_WIDTH
        }

        fn num_outputs(&self) -> usize {
            1
        }

        fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
            let mut acc = Logic::Low;
            for pin in 0..BUS_WIDTH {
                acc = acc ^ ctx.input(pin);
            }
            ctx.drive(0, acc, self.delay);
        }
    }

    /// An `n`-stage inverter chain; returns the simulator, the chain
    /// input and the chain output.
    pub fn inverter_chain(n: usize) -> (Simulator, NetId, NetId) {
        let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
        let mut b = CircuitBuilder::new(lib);
        let input = b.input("in");
        let mut node = input;
        for i in 0..n {
            node = b.inv(format_args!("u{i}"), node);
        }
        (Simulator::new(b.build()), input, node)
    }

    /// A 128-input read-completion tree (the paper's per-column RCD
    /// reduction); returns the simulator and the tree's input nets.
    pub fn completion_tree_sim() -> (Simulator, Vec<NetId>) {
        use maddpipe_sram::rcd::build_completion_tree;
        let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
        let mut b = CircuitBuilder::new(lib);
        let inputs: Vec<NetId> = (0..128).map(|i| b.input(format!("i{i}"))).collect();
        let _out = build_completion_tree(&mut b, "rcd", &inputs);
        (Simulator::new(b.build()), inputs)
    }

    /// A 16-bit bus fully fanned into one [`WideParity`] listener.
    pub fn bus_fanout_sim() -> (Simulator, Vec<NetId>) {
        let lib = CellLibrary::new(Technology::n22(), OperatingPoint::default());
        let mut b = CircuitBuilder::new(lib);
        let bus = b.bus("d", BUS_WIDTH);
        let y = b.net("parity");
        b.add_cell(
            "wp0",
            Box::new(WideParity {
                delay: SimTime::from_picos(40.0),
            }),
            &bus,
            &[y],
        );
        (Simulator::new(b.build()), bus)
    }

    /// A small but complete macro (`ndec` decoders × `ns` stages at
    /// 0.8 V TTG) plus a bag of 16 random tokens to stream through it.
    #[allow(clippy::type_complexity)]
    pub fn macro_testbench(
        ndec: usize,
        ns: usize,
    ) -> (AcceleratorRtl, Vec<Vec<[i8; SUBVECTOR_LEN]>>) {
        let cfg = MacroConfig::new(ndec, ns).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
        testbench(&cfg, 16)
    }

    /// The paper-flagship macro (16 decoders × 32 stages, 46,755 cells)
    /// plus 32 random tokens to stream through it.
    #[allow(clippy::type_complexity)]
    pub fn flagship_testbench() -> (AcceleratorRtl, Vec<Vec<[i8; SUBVECTOR_LEN]>>) {
        testbench(&MacroConfig::paper_flagship(), 32)
    }

    #[allow(clippy::type_complexity)]
    fn testbench(
        cfg: &MacroConfig,
        n_tokens: usize,
    ) -> (AcceleratorRtl, Vec<Vec<[i8; SUBVECTOR_LEN]>>) {
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 17);
        let rtl = AcceleratorRtl::build(cfg, &program);
        let mut rng = StdRng::seed_from_u64(99);
        let tokens = (0..n_tokens)
            .map(|_| {
                (0..cfg.ns)
                    .map(|_| {
                        let mut x = [0i8; SUBVECTOR_LEN];
                        for v in x.iter_mut() {
                            *v = rng.gen_range(-128i32..=127) as i8;
                        }
                        x
                    })
                    .collect()
            })
            .collect();
        (rtl, tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let s = render_table(
            "t",
            &["col", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["longer".into(), "2".into()],
            ],
        );
        assert!(s.contains("== t =="));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].contains("col") && lines[1].contains("value"));
    }

    #[test]
    fn results_dir_points_at_workspace() {
        let d = results_dir();
        assert!(d.ends_with("results"), "{d:?}");
    }
}
