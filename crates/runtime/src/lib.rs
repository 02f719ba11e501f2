//! # maddpipe-runtime
//!
//! The workspace's execution API: one way to run the paper's LUT macro,
//! whatever the level of modelling detail.
//!
//! Historically every test, example and bench hand-rolled its own glue
//! around three disjoint entry points — the event-driven netlist
//! ([`maddpipe_core::macro_rtl::AcceleratorRtl`]), the pure LUT math
//! ([`maddpipe_core::macro_rtl::MacroProgram::reference_output`]) and the
//! closed-form PPA model ([`maddpipe_core::model::MacroModel`]). This
//! crate unifies them behind one [`MacroBackend`] trait consuming
//! [`TokenBatch`]es and producing [`BatchResult`]s. Both are flat (see
//! [`batch`]): a batch is one shared token buffer that clones and slices
//! without copying, and a result is one output matrix read through
//! [`TokenObservation`] views.
//!
//! | backend | outputs | latency | energy | use it for |
//! |---|---|---|---|---|
//! | [`FunctionalBackend`] | bit-exact | — | — | throughput, golden refs |
//! | [`RtlBackend`] | bit-exact | measured | measured | fidelity, timing |
//! | [`AnalyticBackend`] | bit-exact | modelled (data-dependent) | modelled | planning, sweeps |
//! | [`ShardedBackend`] | bit-exact | max over shards (all measuring, else `None`) | sum over shards (likewise) | serving wide layers on many macros |
//!
//! The first three run one macro; the [`ShardedBackend`] composes them: a
//! [`ShardPlan`] partitions a wide program's decoder chains into
//! contiguous slices, one worker thread per shard owns an inner backend
//! of any kind, and every batch is fanned out and reassembled in order.
//!
//! On top sits the [`Session`] builder, which owns batching and aggregate
//! [`SessionStats`] (tokens/s, total energy, p50/p99 token latency) —
//! and, for many-client serving, builds a [`ReplicaPool`] instead
//! ([`SessionBuilder::into_pool`]): submissions from any number of
//! threads are coalesced into micro-batches under a [`QueuePolicy`] and
//! resolved through [`BatchTicket`] handles, with typed
//! [`BackendError::QueueFull`] backpressure. Every replica, shard worker
//! and pipeline stage builds its backend from one recipe type
//! ([`ReplicaFactory`]), and the pool's [`RecoveryPolicy`] is the one
//! place transient failures are retried:
//!
//! ```
//! use maddpipe_runtime::prelude::*;
//! use maddpipe_core::prelude::*;
//!
//! let cfg = MacroConfig::new(2, 2);
//! let program = MacroProgram::random(cfg.ndec, cfg.ns, 42);
//! let mut session = Session::builder(cfg)
//!     .program(program)
//!     .backend(BackendKind::Rtl { fidelity: Fidelity::Pipelined })
//!     .build()
//!     .expect("program fits the configuration");
//! let result = session.run(&TokenBatch::random(2, 4, 7)).expect("runs");
//! assert_eq!(result.tokens.len(), 4); // per-token outputs, even pipelined
//! println!("{}", session.stats());
//! ```
//!
//! Every failure mode is a typed [`BackendError`] — malformed tokens and
//! empty batches included, where the low-level testbench used to panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod backend;
pub mod batch;
pub mod cache;
pub mod chaos;
pub mod error;
pub mod functional;
pub mod pipeline;
pub mod plan;
pub mod pool;
pub mod queue;
pub mod rtl;
pub mod session;
pub mod sharded;

pub use analytic::AnalyticBackend;
pub use backend::{validate_program, BackendKind, Fidelity, MacroBackend, ReplicaFactory};
pub use batch::{BatchResult, Observations, Token, TokenBatch, TokenObservation, Tokens};
pub use cache::{
    CacheConfig, CacheKey, CacheStats, CacheStore, CachedBackend, ProgramFingerprint,
    SharedCacheStore,
};
pub use chaos::{wrap_recipe, ChaosBackend, ChaosConfig, ChaosState};
pub use error::{BackendError, QueueLimit};
pub use functional::FunctionalBackend;
pub use pipeline::{
    HostStage, MacroStage, PipelineGraph, PipelinePolicy, PipelineReply, PipelineSpec,
    PipelineTicket, StagePolicy, StageSpec, TicketState,
};
pub use plan::ShardPlan;
pub use pool::{Fairness, PoolHealth, RecoveryPolicy, ReplicaPool, ServePolicy, SubmitOptions};
pub use queue::{BatchTicket, QueuePolicy, QueueReply};
pub use rtl::RtlBackend;
pub use session::{Session, SessionBuilder, SessionStats, StageProfile};
pub use sharded::ShardedBackend;

/// Common imports.
pub mod prelude {
    pub use crate::analytic::AnalyticBackend;
    pub use crate::backend::{BackendKind, Fidelity, MacroBackend, ReplicaFactory};
    pub use crate::batch::{
        BatchResult, Observations, Token, TokenBatch, TokenObservation, Tokens,
    };
    pub use crate::cache::{
        CacheConfig, CacheKey, CacheStats, CacheStore, CachedBackend, ProgramFingerprint,
        SharedCacheStore,
    };
    pub use crate::chaos::{wrap_recipe, ChaosBackend, ChaosConfig, ChaosState};
    pub use crate::error::{BackendError, QueueLimit};
    pub use crate::functional::FunctionalBackend;
    pub use crate::pipeline::{
        HostStage, MacroStage, PipelineGraph, PipelinePolicy, PipelineReply, PipelineSpec,
        PipelineTicket, StagePolicy, StageSpec, TicketState,
    };
    pub use crate::plan::ShardPlan;
    pub use crate::pool::{
        Fairness, PoolHealth, RecoveryPolicy, ReplicaPool, ServePolicy, SubmitOptions,
    };
    pub use crate::queue::{BatchTicket, QueuePolicy, QueueReply};
    pub use crate::rtl::RtlBackend;
    pub use crate::session::{Session, SessionBuilder, SessionStats, StageProfile};
    pub use crate::sharded::ShardedBackend;
}
