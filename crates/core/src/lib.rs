//! # maddpipe-core
//!
//! The paper's contribution: the LUT-based multiplication-free all-digital
//! DNN accelerator with self-synchronous pipeline accumulation
//! (DAC 2025, arXiv:2506.16800).
//!
//! Two consistent views of the same machine:
//!
//! * [`model`] — a closed-form PPA model, structurally mirroring Fig. 2
//!   and calibrated against the paper's published sweeps ([`calib`]);
//!   drives the Fig. 6 / Fig. 7 / Table I / Table II experiments.
//! * [`macro_rtl`] — the complete event-driven netlist: [`dlc`] dual-rail
//!   comparators in a 15-node tournament ([`encoder`]), 10T-SRAM decoders
//!   with carry-save accumulation ([`decoder`], [`adder`]), four-phase
//!   handshake controllers ([`block`]), final ripple-carry adders and the
//!   output register. Functionally bit-exact against
//!   [`maddpipe_amm::MaddnessMatmul::decode_i16_wrapping`].
//!
//! ```
//! use maddpipe_core::prelude::*;
//!
//! let report = MacroModel::new(MacroConfig::paper_flagship()).evaluate();
//! assert!(report.tops_per_watt > 150.0); // the paper's 174 TOPS/W regime
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adder;
pub mod batched;
pub mod block;
pub mod calib;
pub mod config;
pub mod decoder;
pub mod dlc;
pub mod encoder;
pub mod macro_rtl;
pub mod mapping;
pub mod model;
pub mod sync_baseline;

pub use batched::BatchedProgram;
pub use calib::Calibration;
pub use config::{MacroConfig, ACC_BITS, K, LEVELS, OPS_PER_LOOKUP, SUBVECTOR_LEN};
pub use macro_rtl::{AcceleratorRtl, MacroProgram, PipelinedRun, TokenError, TokenResult};
pub use mapping::{ConvMapping, ConvShape};
pub use model::{MacroModel, PpaReport};
pub use sync_baseline::{SyncPipelineModel, SyncReport};

/// Common imports.
pub mod prelude {
    pub use crate::batched::BatchedProgram;
    pub use crate::calib::Calibration;
    pub use crate::config::{MacroConfig, K, LEVELS, SUBVECTOR_LEN};
    pub use crate::dlc::{ripple_depth, to_offset_binary};
    pub use crate::macro_rtl::{
        AcceleratorRtl, MacroProgram, PipelinedRun, TokenError, TokenResult,
    };
    pub use crate::mapping::{ConvMapping, ConvShape};
    pub use crate::model::{
        AreaBreakdown, EnergyBreakdown, LatencyBreakdown, MacroModel, PpaReport,
    };
    pub use crate::sync_baseline::{SyncPipelineModel, SyncReport};
    pub use maddpipe_tech::prelude::*;
}
