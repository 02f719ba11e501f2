//! Deterministic fault injection for the serving stack.
//!
//! [`ChaosBackend`] wraps any [`MacroBackend`] and injects seeded,
//! reproducible faults — exactly the failure modes the supervision
//! layer ([`RecoveryPolicy`](crate::pool::RecoveryPolicy)) claims to
//! absorb:
//!
//! * **transient errors** ([`BackendError::Transient`]) that should be
//!   retried away,
//! * **panics** on one chosen call, exercising catch-unwind, respawn
//!   and quarantine,
//! * **latency spikes** that stress deadline-aware batching, and
//! * **wrong-width results** (one observation short of the
//!   one-per-token contract), which must surface as a *fatal*
//!   [`BackendError::MalformedProgram`], never as silently mis-sliced
//!   outputs.
//!
//! All randomness is a pure function of `(seed, call index, fault
//! lane)` via splitmix64, and the call index lives in a shared
//! [`ChaosState`] — so a fleet of chaos replicas draws from *one*
//! global schedule regardless of which replica takes which micro-batch.
//! That is what makes "the 7th backend call panics" a deterministic,
//! replica-scheduling-independent event, and it is why the fault tests
//! can pin exact recovery behaviour across seeds.
//!
//! Chaos enters a deployment the way every backend does, through a
//! [`ReplicaFactory`]: [`wrap_recipe`] wraps a pool replica's recipe,
//! and [`MacroStage::map_recipe`](crate::pipeline::MacroStage::map_recipe)
//! applies it to a pipeline stage. A shard has no recipe of its own: to
//! fault one, wrap its built backend in a [`ChaosBackend`] and hand it to
//! [`ShardedBackend::from_backends`](crate::sharded::ShardedBackend::from_backends).
//! Whatever layer a fault is injected at, it is absorbed in one place —
//! the pool's [`RecoveryPolicy`](crate::pool::RecoveryPolicy); a faulty
//! shard surfaces its error once, wrapped in [`BackendError::Shard`].
//!
//! ```
//! use maddpipe_runtime::prelude::*;
//! use maddpipe_core::prelude::*;
//!
//! let cfg = MacroConfig::new(2, 2);
//! let program = MacroProgram::random(2, 2, 7);
//! let inner = BackendKind::Functional { workers: 1 }
//!     .build(&cfg, program.clone())
//!     .unwrap();
//! // Fail roughly every fifth call, deterministically for seed 42.
//! let config = ChaosConfig::default().with_seed(42).with_transient_rate(0.2);
//! let mut chaotic = ChaosBackend::new(inner, config);
//! let batch = TokenBatch::random(2, 4, 1);
//! let mut served = 0;
//! for _ in 0..32 {
//!     if let Ok(result) = chaotic.run_batch(&batch) {
//!         // Whenever a call survives, outputs are bit-identical.
//!         assert_eq!(
//!             result.tokens.get(0).unwrap().outputs,
//!             program.reference_output(&batch.tokens()[0]),
//!         );
//!         served += 1;
//!     }
//! }
//! assert!(served > 0 && served < 32, "some calls fail, most succeed");
//! ```

use crate::backend::{MacroBackend, ReplicaFactory};
use crate::batch::{BatchResult, TokenBatch};
use crate::error::BackendError;
use crate::session::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which faults a [`ChaosBackend`] injects, and how often.
///
/// Rates are per-call probabilities in `[0, 1]`, each drawn from its
/// own independent lane of the seeded stream, so enabling one fault
/// never perturbs the schedule of another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// Probability a call fails with [`BackendError::Transient`].
    pub transient_rate: f64,
    /// Probability a call sleeps for [`ChaosConfig::latency_spike`]
    /// before serving.
    pub latency_spike_rate: f64,
    /// How long a latency-spiked call stalls.
    pub latency_spike: Duration,
    /// Probability a call returns a result one observation short —
    /// breaking the one-observation-per-token contract ("wrong-width"
    /// output), which serving layers must reject as fatal.
    pub wrong_width_rate: f64,
    /// Panic on exactly this (zero-based) global call index, once.
    /// `None` never panics. The index counts calls across *every*
    /// replica sharing the [`ChaosState`], which makes the crash
    /// deterministic under any replica scheduling.
    pub panic_on_call: Option<u64>,
}

impl Default for ChaosConfig {
    /// No faults: seed 0, every rate 0, a 1 ms spike duration (unused
    /// until a rate enables it), no panic.
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            transient_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: Duration::from_millis(1),
            wrong_width_rate: 0.0,
            panic_on_call: None,
        }
    }
}

impl ChaosConfig {
    /// Sets the seed of the fault stream.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> ChaosConfig {
        self.seed = seed;
        self
    }

    /// Sets the per-call transient-failure probability (clamped to
    /// `[0, 1]`).
    #[must_use]
    pub fn with_transient_rate(mut self, rate: f64) -> ChaosConfig {
        self.transient_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-call latency-spike probability and the spike
    /// duration.
    #[must_use]
    pub fn with_latency_spikes(mut self, rate: f64, spike: Duration) -> ChaosConfig {
        self.latency_spike_rate = rate.clamp(0.0, 1.0);
        self.latency_spike = spike;
        self
    }

    /// Sets the per-call wrong-width-output probability (clamped to
    /// `[0, 1]`).
    #[must_use]
    pub fn with_wrong_width_rate(mut self, rate: f64) -> ChaosConfig {
        self.wrong_width_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Panics on exactly this global call index (see
    /// [`ChaosConfig::panic_on_call`]).
    #[must_use]
    pub fn with_panic_on_call(mut self, call: u64) -> ChaosConfig {
        self.panic_on_call = Some(call);
        self
    }
}

/// The call counter a fleet of [`ChaosBackend`] replicas shares: one
/// global, monotone call index, so the fault schedule is a property of
/// the *workload*, not of which replica happened to serve which call.
#[derive(Debug, Default)]
pub struct ChaosState {
    calls: AtomicU64,
}

impl ChaosState {
    /// A fresh shared counter, ready to hand to
    /// [`ChaosBackend::with_state`] / [`wrap_recipe`].
    pub fn new() -> Arc<ChaosState> {
        Arc::new(ChaosState::default())
    }

    /// Backend calls drawn from the schedule so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }
}

/// A [`MacroBackend`] wrapper injecting the deterministic faults of a
/// [`ChaosConfig`]; see the [module docs](crate::chaos).
pub struct ChaosBackend {
    inner: Box<dyn MacroBackend>,
    config: ChaosConfig,
    state: Arc<ChaosState>,
}

impl ChaosBackend {
    /// Wraps `inner` with its own private call counter — for
    /// single-backend use. Replicated serving should share one counter
    /// via [`ChaosBackend::with_state`] (or [`wrap_recipe`]).
    pub fn new(inner: Box<dyn MacroBackend>, config: ChaosConfig) -> ChaosBackend {
        ChaosBackend::with_state(inner, config, ChaosState::new())
    }

    /// Wraps `inner`, drawing call indices from the shared `state`.
    pub fn with_state(
        inner: Box<dyn MacroBackend>,
        config: ChaosConfig,
        state: Arc<ChaosState>,
    ) -> ChaosBackend {
        ChaosBackend {
            inner,
            config,
            state,
        }
    }

    /// `true` when the fault in `lane` fires on `call` — a pure
    /// function of `(seed, call, lane)`.
    fn draw(&self, call: u64, lane: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let bits = splitmix64(
            self.config
                .seed
                .wrapping_add(splitmix64(call.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane)),
        );
        // 53 mantissa bits -> a uniform draw in [0, 1).
        let uniform = (bits >> 11) as f64 / (1u64 << 53) as f64;
        uniform < rate
    }
}

impl MacroBackend for ChaosBackend {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        let call = self.state.calls.fetch_add(1, Ordering::SeqCst);
        if self.config.panic_on_call == Some(call) {
            panic!("chaos: injected replica crash at call {call}");
        }
        if self.draw(call, 1, self.config.transient_rate) {
            return Err(BackendError::Transient {
                reason: format!("chaos: injected transient fault at call {call}"),
            });
        }
        if self.draw(call, 2, self.config.latency_spike_rate) {
            std::thread::sleep(self.config.latency_spike);
        }
        let mut result = self.inner.run_batch(batch)?;
        if self.draw(call, 3, self.config.wrong_width_rate) {
            // Return one observation short: the wrong width for this
            // micro-batch. Serving layers must catch the broken
            // contract and reject the batch as fatal.
            let short = result.tokens.len().saturating_sub(1);
            result.tokens.truncate(short);
        }
        Ok(result)
    }

    /// Chaos is transparent to cache accounting: a wrapped cached tier
    /// keeps reporting its counters through the faults.
    fn cache_stats(&self) -> Option<crate::cache::CacheStats> {
        self.inner.cache_stats()
    }
}

/// Wraps a [`ReplicaFactory`] so every backend it builds comes up
/// inside a [`ChaosBackend`] drawing from the shared `state` — respawns
/// included, so a rebuilt replica keeps the same global schedule.
pub fn wrap_recipe(
    recipe: ReplicaFactory,
    config: ChaosConfig,
    state: Arc<ChaosState>,
) -> ReplicaFactory {
    Arc::new(move || {
        let inner = recipe()?;
        Ok(Box::new(ChaosBackend::with_state(
            inner,
            config,
            Arc::clone(&state),
        )))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use maddpipe_core::config::MacroConfig;
    use maddpipe_core::macro_rtl::MacroProgram;

    fn functional(seed: u64) -> (Box<dyn MacroBackend>, MacroProgram, MacroConfig) {
        let cfg = MacroConfig::new(2, 2);
        let program = MacroProgram::random(2, 2, seed);
        let backend = BackendKind::Functional { workers: 1 }
            .build(&cfg, program.clone())
            .expect("program fits");
        (backend, program, cfg)
    }

    #[test]
    fn fault_schedules_are_deterministic_per_seed() {
        let batch = TokenBatch::random(2, 2, 1);
        let run = |seed: u64| -> Vec<bool> {
            let (inner, _, _) = functional(3);
            let mut chaos = ChaosBackend::new(
                inner,
                ChaosConfig::default()
                    .with_seed(seed)
                    .with_transient_rate(0.3),
            );
            (0..64).map(|_| chaos.run_batch(&batch).is_ok()).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "different seed, different schedule");
        let failures = a.iter().filter(|ok| !**ok).count();
        assert!(
            (8..=32).contains(&failures),
            "a 30% rate lands near 30% over 64 calls, got {failures}"
        );
    }

    #[test]
    fn surviving_calls_stay_bit_identical() {
        let (inner, program, _) = functional(5);
        let mut chaos = ChaosBackend::new(
            inner,
            ChaosConfig::default()
                .with_seed(11)
                .with_transient_rate(0.5),
        );
        let batch = TokenBatch::random(2, 3, 2);
        let mut served = 0;
        for _ in 0..32 {
            if let Ok(result) = chaos.run_batch(&batch) {
                served += 1;
                for (t, token) in batch.tokens().iter().enumerate() {
                    assert_eq!(
                        result.tokens.get(t).unwrap().outputs,
                        program.reference_output(token)
                    );
                }
            }
        }
        assert!(served > 0, "half the calls survive a 50% rate");
        assert_eq!(chaos.state.calls(), 32);
    }

    #[test]
    fn wrong_width_faults_break_the_observation_contract() {
        let (inner, _, _) = functional(9);
        let mut chaos = ChaosBackend::new(
            inner,
            ChaosConfig::default()
                .with_seed(13)
                .with_wrong_width_rate(1.0),
        );
        let batch = TokenBatch::random(2, 4, 3);
        let result = chaos.run_batch(&batch).expect("fault is in the payload");
        assert_eq!(
            result.tokens.len(),
            batch.len() - 1,
            "one observation short of the contract"
        );
    }

    #[test]
    fn the_panic_call_is_a_global_index_across_wrappers() {
        // Two wrappers over one shared state: whichever takes call 3
        // panics; the other never does.
        let state = ChaosState::new();
        let config = ChaosConfig::default().with_panic_on_call(3);
        let (a, _, _) = functional(1);
        let (b, _, _) = functional(1);
        let mut a = ChaosBackend::with_state(a, config, Arc::clone(&state));
        let mut b = ChaosBackend::with_state(b, config, Arc::clone(&state));
        let batch = TokenBatch::random(2, 2, 1);
        a.run_batch(&batch).unwrap(); // call 0
        b.run_batch(&batch).unwrap(); // call 1
        a.run_batch(&batch).unwrap(); // call 2
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.run_batch(&batch) // call 3
        }));
        assert!(crash.is_err(), "call 3 panics whoever takes it");
        assert!(a.run_batch(&batch).is_ok(), "call 4 serves again");
        assert_eq!(state.calls(), 5);
    }

    #[test]
    fn zero_rate_configs_are_transparent() {
        let (inner, program, _) = functional(2);
        let mut chaos = ChaosBackend::new(inner, ChaosConfig::default());
        let batch = TokenBatch::random(2, 4, 9);
        for _ in 0..16 {
            let result = chaos.run_batch(&batch).expect("no faults configured");
            assert_eq!(result.tokens.len(), batch.len());
            for (t, token) in batch.tokens().iter().enumerate() {
                assert_eq!(
                    result.tokens.get(t).unwrap().outputs,
                    program.reference_output(token)
                );
            }
        }
    }
}
