//! The backend abstraction: one trait ([`MacroBackend`]), its
//! implementations, and one recursive recipe ([`BackendKind`]) that
//! builds any of them.
//!
//! The contract that makes the implementations interchangeable inside a
//! [`Session`](crate::session::Session): **every backend produces
//! bit-identical `outputs` for the same program and batch**. Latency and
//! energy differ by design — measured on RTL, modelled analytically,
//! absent functionally — but the 16-bit result of each decoder chain is
//! the wrapping LUT sum of the silicon, whoever computes it. The golden
//! proptest in `tests/backend_equivalence.rs` holds every kind (the
//! sharded composition included) to that contract.

use crate::batch::{BatchResult, TokenBatch};
use crate::error::BackendError;
use maddpipe_core::config::{MacroConfig, LEVELS};
use maddpipe_core::macro_rtl::{AcceleratorRtl, MacroProgram};
use std::sync::Arc;

/// The one backend-constructor type: a rebuildable recipe that shard
/// workers, pool replicas and pipeline stages call on the thread that
/// will own the backend — which is what lets non-`Send` backends (the
/// event-driven netlist) serve anywhere. A pool calls it again to
/// respawn a replica whose backend panicked.
pub type ReplicaFactory =
    Arc<dyn Fn() -> Result<Box<dyn MacroBackend>, BackendError> + Send + Sync>;

/// How faithfully the RTL backend drives the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// One token at a time, fully drained: exact per-token latency and
    /// energy, no overlap.
    #[default]
    Sequential,
    /// Self-synchronous streaming: token `t+1` enters while `t` is still
    /// in flight. Per-token outputs are captured at each output-register
    /// strobe; energy is reported per batch.
    Pipelined,
}

/// Which backend a [`Session`](crate::session::Session) should execute on:
/// a recursive recipe of three leaf executors and two layers — sharding
/// and result caching — that wrap any other recipe, to any depth.
///
/// ```
/// use maddpipe_runtime::prelude::*;
/// use maddpipe_core::prelude::*;
///
/// // Two shards, each fronting its own analytic macro with a cache.
/// let kind = BackendKind::Sharded {
///     shards: 2,
///     inner: Box::new(BackendKind::Cached {
///         cache: CacheConfig::default(),
///         inner: Box::new(BackendKind::Analytic),
///     }),
/// };
/// let cfg = MacroConfig::new(4, 2);
/// let program = MacroProgram::random(cfg.ndec, cfg.ns, 5);
/// let mut backend = kind.build(&cfg, program.clone()).unwrap();
/// let batch = TokenBatch::random(cfg.ns, 3, 1);
/// let result = backend.run_batch(&batch).unwrap();
/// assert_eq!(result.tokens.get(0).unwrap().outputs, program.reference_output(&batch.tokens()[0]));
/// assert_eq!(backend.cache_stats().unwrap().misses, 6); // 3 tokens × 2 shards
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendKind {
    /// Pure LUT math ([`MacroProgram::reference_output`]) sharded across
    /// `workers` OS threads — the throughput backend.
    Functional {
        /// Worker threads (1 = run on the calling thread).
        workers: usize,
    },
    /// The event-driven netlist — the fidelity backend.
    Rtl {
        /// Sequential handshaking or pipelined streaming.
        fidelity: Fidelity,
    },
    /// The closed-form PPA model with data-dependent encoder timing — the
    /// planning backend.
    Analytic,
    /// `shards` macro instances serving one wide program in parallel, each
    /// owning a contiguous slice of the decoder chains (an even
    /// [`ShardPlan`](crate::plan::ShardPlan) over `cfg.ndec`) and running
    /// `inner` on its own worker thread — the serving-scale backend.
    Sharded {
        /// Macro instances the decoder chains are partitioned across.
        shards: usize,
        /// The recipe every shard builds for its slice of the program.
        inner: Box<BackendKind>,
    },
    /// `inner` behind a content-addressed
    /// [`CachedBackend`](crate::cache::CachedBackend) result tier:
    /// repeated tokens are served from a bounded store instead of
    /// recomputed, and identical tokens within one batch are computed
    /// once (see [`crate::cache`] for the purity contract).
    Cached {
        /// Capacity bounds of the result store.
        cache: crate::cache::CacheConfig,
        /// The recipe the cache fronts on a miss.
        inner: Box<BackendKind>,
    },
}

impl Default for BackendKind {
    fn default() -> BackendKind {
        BackendKind::Functional { workers: 1 }
    }
}

impl BackendKind {
    /// Validates `program` against `cfg` and constructs the backend this
    /// recipe describes — the one construction path shared by sessions,
    /// shard workers, pool replicas and pipeline stages (the last three
    /// reach it through a [`ReplicaFactory`]).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ProgramMismatch`] /
    /// [`BackendError::MalformedProgram`] when the program does not fit
    /// the configuration, plus the chosen backend's own constructor
    /// errors (e.g. [`BackendError::InvalidShardPlan`] for sharded
    /// kinds).
    pub fn build(
        &self,
        cfg: &MacroConfig,
        program: MacroProgram,
    ) -> Result<Box<dyn MacroBackend>, BackendError> {
        validate_program(cfg, &program)?;
        Ok(match self {
            BackendKind::Functional { workers } => Box::new(
                crate::functional::FunctionalBackend::with_workers(program, *workers),
            ),
            BackendKind::Rtl { fidelity } => {
                Box::new(crate::rtl::RtlBackend::new(cfg, &program, *fidelity)?)
            }
            BackendKind::Analytic => Box::new(crate::analytic::AnalyticBackend::new(cfg, program)?),
            BackendKind::Sharded { shards, inner } => Box::new(
                crate::sharded::ShardedBackend::uniform(cfg, &program, *shards, (**inner).clone())?,
            ),
            BackendKind::Cached { cache, inner } => {
                let inner_backend = inner.build(cfg, program.clone())?;
                Box::new(crate::cache::CachedBackend::new(
                    inner_backend,
                    &program,
                    *cache,
                ))
            }
        })
    }
}

/// A uniform executor of [`TokenBatch`]es against one programmed macro.
///
/// Implementations must produce bit-identical `outputs` for the same
/// program and batch — that contract is enforced by the cross-backend
/// golden tests (`tests/backend_equivalence.rs`).
pub trait MacroBackend {
    /// Short stable name for logs, stats and results files.
    fn name(&self) -> &'static str;

    /// Runs every token of the batch, in order. A successful result
    /// carries exactly one [`TokenObservation`](crate::batch::TokenObservation)
    /// per input token, in submission order — compositions such as the
    /// sharded backend rely on that alignment when they reassemble
    /// outputs.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ShapeMismatch`] for malformed tokens (the
    /// batch is rejected before any work starts) and backend-specific
    /// failures such as [`BackendError::Oscillation`].
    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError>;

    /// The underlying netlist, when this backend drives one — lets tests
    /// probe violations and enable waveform tracing without leaving the
    /// session API. Non-RTL backends return `None`.
    fn rtl(&self) -> Option<&AcceleratorRtl> {
        None
    }

    /// Mutable access to the underlying netlist, when this backend drives
    /// one (energy-counter resets, waveform tracing, event caps).
    fn rtl_mut(&mut self) -> Option<&mut AcceleratorRtl> {
        None
    }

    /// A cumulative [`CacheStats`](crate::cache::CacheStats) snapshot,
    /// when this backend carries a result-cache tier (a
    /// [`CachedBackend`](crate::cache::CachedBackend) directly, or a
    /// composition aggregating one — sharded backends sum their shard
    /// stores, wrappers delegate). Uncached backends return `None`, and
    /// serving layers skip the harvest entirely.
    fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        None
    }
}

/// Checks a program against a configuration: matching shape and hardware
/// tree depth. Shared by the session builder and the backend constructors.
///
/// # Errors
///
/// Returns [`BackendError::ProgramMismatch`] on a shape disagreement and
/// [`BackendError::MalformedProgram`] when a hash tree does not have the
/// hardware's fixed depth.
pub fn validate_program(cfg: &MacroConfig, program: &MacroProgram) -> Result<(), BackendError> {
    if program.ndec() != cfg.ndec || program.ns() != cfg.ns {
        return Err(BackendError::ProgramMismatch {
            cfg_ndec: cfg.ndec,
            cfg_ns: cfg.ns,
            program_ndec: program.ndec(),
            program_ns: program.ns(),
        });
    }
    for (s, tree) in program.trees.iter().enumerate() {
        if tree.levels() != LEVELS {
            return Err(BackendError::MalformedProgram {
                reason: format!(
                    "stage {s} tree has {} levels, hardware encoder is {LEVELS}-level",
                    tree.levels()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_core::macro_rtl::MacroProgram;

    #[test]
    fn program_shape_is_validated() {
        let cfg = MacroConfig::new(2, 2);
        let good = MacroProgram::random(2, 2, 1);
        assert!(validate_program(&cfg, &good).is_ok());
        let wrong = MacroProgram::random(3, 2, 1);
        assert_eq!(
            validate_program(&cfg, &wrong),
            Err(BackendError::ProgramMismatch {
                cfg_ndec: 2,
                cfg_ns: 2,
                program_ndec: 3,
                program_ns: 2,
            })
        );
    }

    #[test]
    fn recipes_nest_to_any_depth() {
        // A cache in front of a cache, and shards whose every shard is
        // itself sharded and cached: each serves the spec bit for bit,
        // and the innermost caches' counters reach the top.
        let cfg = MacroConfig::new(4, 2);
        let program = MacroProgram::random(4, 2, 9);
        let batch = crate::batch::TokenBatch::random(2, 6, 3);
        let cache = crate::cache::CacheConfig::default();
        let cached = |inner| BackendKind::Cached {
            cache,
            inner: Box::new(inner),
        };
        let sharded = |inner| BackendKind::Sharded {
            shards: 2,
            inner: Box::new(inner),
        };
        for kind in [
            cached(cached(BackendKind::default())),
            sharded(sharded(cached(BackendKind::Analytic))),
        ] {
            let mut backend = kind.build(&cfg, program.clone()).unwrap();
            let result = backend.run_batch(&batch).unwrap();
            for (obs, token) in result.tokens.iter().zip(batch.tokens()) {
                assert_eq!(obs.outputs, program.reference_output(token), "{kind:?}");
            }
            let stats = backend.cache_stats().expect("a cached recipe");
            assert!(stats.misses > 0, "{kind:?}");
        }
    }

    #[test]
    fn default_kind_is_single_threaded_functional() {
        assert_eq!(
            BackendKind::default(),
            BackendKind::Functional { workers: 1 }
        );
        assert_eq!(Fidelity::default(), Fidelity::Sequential);
    }
}
