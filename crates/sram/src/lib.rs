//! # maddpipe-sram
//!
//! The two-port 10T-SRAM lookup-table substrate of the accelerator
//! (paper §III-C): a functional 16×8 array model, event-driven columns
//! with differential read-bitline dynamics, per-column read-completion
//! detection (RCD), the NAND–NOR completion tree, and a Monte-Carlo study
//! of the replica-column timing scheme the paper's RCD replaces.
//!
//! A column is the simulator's one-hot
//! [`ReadColumn`](maddpipe_sim::cells::ReadColumn) cell, which the event
//! kernel compiles into its cell table like its gates, adders and
//! latches: the stored bits live in that table, and a LUT is reprogrammed
//! through
//! [`Simulator::program_column`](maddpipe_sim::engine::Simulator::program_column)
//! on each column's cell id ([`ColumnPorts::cell`]). The kernel keeps no
//! changed-pin bits for the column, whose read is a function of its input
//! levels alone.
//!
//! ```
//! use maddpipe_sram::model::SramModel;
//!
//! let mut lut = SramModel::new();
//! for row in 0..16 { lut.write(row, (row as u8) * 7); }
//! assert_eq!(lut.read(5), 35);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod model;
pub mod rcd;
pub mod replica;

pub use column::{build_column_with_timing, ColumnPorts};
pub use model::{SramModel, COLS, ROWS};
pub use rcd::{build_completion_tree, completion_tree_depth};
pub use replica::{ReplicaOutcome, ReplicaStudy};
