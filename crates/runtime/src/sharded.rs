//! Sharded multi-macro serving: one wide program, many macro instances.
//!
//! The paper's macro is a fixed-width tile (`ndec` decoder chains); a
//! wide CNN layer maps onto it as `tiles_out` serial passes
//! ([`ConvMapping`](maddpipe_core::mapping::ConvMapping)). The
//! [`ShardedBackend`] models those passes as parallel macros: a
//! [`ShardPlan`] slices the program's decoder chains into contiguous
//! ranges, each shard owns the [`MacroBackend`] of its own
//! [`BackendKind`] recipe (any mix, nested recipes included), every
//! [`TokenBatch`] runs on each shard in plan order, and per-token
//! outputs are reassembled in plan order — bit-identical to the single
//! wide macro, with latency aggregated as the max over shards and energy
//! as the sum when *every* shard measured (an unmeasured shard in a
//! mixed set makes the aggregate `None` — a partial sum is not a total).
//!
//! The shards run on the thread that owns the sharded backend, one after
//! another: the max/sum fold models the parallel macros, so no host
//! thread is needed per modelled macro, and non-`Send` backends (the
//! event-driven netlist) shard exactly like the pure-math ones. A
//! deployment uses host cores through
//! [`ReplicaPool`](crate::pool::ReplicaPool) replicas instead.
//!
//! The first shard failure rejects the whole batch once, as a typed
//! [`BackendError::Shard`], and the shards after it do not run — no
//! partial output ever escapes, and this backend never retries. The
//! wrapper is as transient as the shard's own error
//! ([`BackendError::is_transient`]), so behind a pool a flaky shard
//! costs a re-run of the micro-batch under the pool's
//! [`RecoveryPolicy`](crate::pool::RecoveryPolicy) — the serving stack's
//! one retry loop. A shard that panics unwinds out of
//! [`MacroBackend::run_batch`] like any backend's panic, so the pool
//! re-queues its riders and rebuilds the replica, shards and all.

use crate::backend::{validate_program, BackendKind, MacroBackend};
use crate::batch::{fold_all, BatchResult, Observations, TokenBatch};
use crate::cache::CacheStats;
use crate::error::BackendError;
use crate::plan::ShardPlan;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::MacroProgram;
use maddpipe_tech::units::Seconds;

/// N macro instances serving one wide program behind the ordinary
/// [`MacroBackend`] interface.
///
/// ```
/// use maddpipe_runtime::prelude::*;
/// use maddpipe_core::prelude::*;
///
/// let cfg = MacroConfig::new(6, 2); // 6 decoder chains, 2 stages
/// let program = MacroProgram::random(cfg.ndec, cfg.ns, 3);
/// let mut wide = FunctionalBackend::new(program.clone());
/// let mut sharded = ShardedBackend::uniform(
///     &cfg,
///     &program,
///     3,
///     BackendKind::Functional { workers: 1 },
/// )
/// .unwrap();
/// let batch = TokenBatch::random(cfg.ns, 4, 8);
/// assert_eq!(
///     sharded.run_batch(&batch).unwrap().outputs(),
///     wide.run_batch(&batch).unwrap().outputs(),
/// );
/// ```
pub struct ShardedBackend {
    plan: ShardPlan,
    ns: usize,
    /// One backend per shard, in plan order.
    shards: Vec<Box<dyn MacroBackend>>,
}

impl ShardedBackend {
    /// Partitions `program` across `plan.shards()` macro instances, shard
    /// `s` building `kinds[s]` for the sub-program of `plan.range(s)`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ProgramMismatch`] /
    /// [`BackendError::MalformedProgram`] when the wide program does not
    /// fit `cfg`, [`BackendError::InvalidShardPlan`] when the plan does
    /// not cover the program's decoder chains or `kinds` does not provide
    /// one kind per shard, and [`BackendError::Shard`] when a shard's own
    /// backend fails to construct.
    pub fn new(
        cfg: &MacroConfig,
        program: &MacroProgram,
        plan: ShardPlan,
        kinds: &[BackendKind],
    ) -> Result<ShardedBackend, BackendError> {
        validate_program(cfg, program)?;
        if kinds.len() != plan.shards() {
            return Err(BackendError::InvalidShardPlan {
                reason: format!("{} backend kinds for {} shards", kinds.len(), plan.shards()),
            });
        }
        let subs = plan.split(program)?;
        let ns = program.ns();
        let shards = subs
            .into_iter()
            .zip(kinds)
            .enumerate()
            .map(|(shard, (sub, kind))| {
                let mut shard_cfg = cfg.clone();
                shard_cfg.ndec = sub.ndec();
                kind.build(&shard_cfg, sub)
                    .map_err(|e| BackendError::Shard {
                        shard,
                        source: Box::new(e),
                    })
            })
            .collect::<Result<_, _>>()?;
        ShardedBackend::from_backends(plan, ns, shards)
    }

    /// [`ShardedBackend::new`] with an even [`ShardPlan`] over `cfg.ndec`
    /// and the same `kind` on every shard — what [`BackendKind::Sharded`]
    /// builds.
    ///
    /// # Errors
    ///
    /// As [`ShardedBackend::new`], plus
    /// [`BackendError::InvalidShardPlan`] when `shards` is zero or
    /// exceeds `cfg.ndec`.
    pub fn uniform(
        cfg: &MacroConfig,
        program: &MacroProgram,
        shards: usize,
        kind: BackendKind,
    ) -> Result<ShardedBackend, BackendError> {
        let plan = ShardPlan::even(cfg.ndec, shards)?;
        let kinds = vec![kind; shards];
        ShardedBackend::new(cfg, program, plan, &kinds)
    }

    /// Serves `plan` with already-built shard backends, shard `s` being
    /// `shards[s]`. Each must produce outputs as wide as its plan range
    /// and take `ns` stages per token; [`MacroBackend::run_batch`]
    /// rejects a batch whose shard breaks that contract.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidShardPlan`] when the backend count
    /// disagrees with the plan.
    pub fn from_backends(
        plan: ShardPlan,
        ns: usize,
        shards: Vec<Box<dyn MacroBackend>>,
    ) -> Result<ShardedBackend, BackendError> {
        if shards.len() != plan.shards() {
            return Err(BackendError::InvalidShardPlan {
                reason: format!(
                    "{} shard backends for {} shards",
                    shards.len(),
                    plan.shards()
                ),
            });
        }
        Ok(ShardedBackend { plan, ns, shards })
    }

    /// The partition this backend serves.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Pipeline stages every shard expects per token.
    pub fn ns(&self) -> usize {
        self.ns
    }

    /// Runs `batch` on every shard in plan order, enforcing each shard's
    /// slice of the contract: one observation per token, each
    /// `plan.widths()[shard]` wide. The first failure fails the batch,
    /// and the shards after it do not run.
    fn run_shards(&mut self, batch: &TokenBatch) -> Result<Vec<BatchResult>, BackendError> {
        let widths = self.plan.widths();
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(shard, backend)| {
                let wrap = |e| BackendError::Shard {
                    shard,
                    source: Box::new(e),
                };
                let result = backend.run_batch(batch).map_err(wrap)?;
                if result.tokens.len() != batch.len() {
                    return Err(wrap(BackendError::InvalidShardPlan {
                        reason: format!(
                            "shard returned {} observations for a {}-token batch",
                            result.tokens.len(),
                            batch.len()
                        ),
                    }));
                }
                if result.tokens.width() != widths[shard] {
                    return Err(wrap(BackendError::InvalidShardPlan {
                        reason: format!(
                            "shard produced {}-wide outputs but its plan range is {} chains",
                            result.tokens.width(),
                            widths[shard]
                        ),
                    }));
                }
                Ok(result)
            })
            .collect()
    }
}

/// The later of two times: a token is done when its slowest slice is.
fn later(a: Seconds, b: Seconds) -> Seconds {
    if b > a {
        b
    } else {
        a
    }
}

impl MacroBackend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    /// Runs the batch on every shard, in plan order. Per token, `outputs`
    /// is the concatenation of the shard slices in plan order, `latency`
    /// the **max** over shards (the token is done when its slowest slice
    /// is) and `energy` the **sum** — but only when *every* shard
    /// measured: with a mixed shard set (say functional next to
    /// analytic) a partial max understates the token and a partial sum
    /// masquerades as the batch total, so an unmeasured shard makes the
    /// aggregate `None`. The batch `makespan` and `energy` follow the
    /// same all-or-none rule.
    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        batch.check_shape(self.ns)?;
        let shard_results = self.run_shards(batch)?;
        let width = self.plan.out_channels();
        // Each shard's rows land straight in their columns of the output
        // matrix.
        let mut outputs = vec![0i16; batch.len() * width];
        let mut offset = 0;
        for result in &shard_results {
            let w = result.tokens.width();
            for (row, obs) in outputs.chunks_exact_mut(width).zip(&result.tokens) {
                row[offset..offset + w].copy_from_slice(obs.outputs);
            }
            offset += w;
        }
        let mut tokens = Observations::from_outputs(batch.len(), width, outputs);
        for t in 0..batch.len() {
            let token = || shard_results.iter().map(|r| r.tokens.get(t));
            let latency = fold_all(token().map(|o| o.and_then(|o| o.latency)), later);
            let energy = fold_all(token().map(|o| o.and_then(|o| o.energy)), |a, b| a + b);
            tokens.measure(t, latency, energy);
        }
        let makespan = fold_all(shard_results.iter().map(|r| r.makespan), later);
        let energy = fold_all(shard_results.iter().map(|r| r.energy), |a, b| a + b);
        Ok(BatchResult {
            backend: self.name(),
            tokens,
            makespan,
            energy,
        })
    }

    /// The field-wise sum of the cached shards' own counters; `None`
    /// when no shard carries a cache tier.
    fn cache_stats(&self) -> Option<CacheStats> {
        self.shards
            .iter()
            .filter_map(|shard| shard.cache_stats())
            .reduce(CacheStats::merged)
    }
}

impl core::fmt::Debug for ShardedBackend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ShardedBackend")
            .field("plan", &self.plan)
            .field("ns", &self.ns)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Fidelity;
    use crate::functional::FunctionalBackend;
    use maddpipe_sim::engine::OscillationError;
    use maddpipe_sim::time::SimTime;
    use maddpipe_tech::corner::{Corner, OperatingPoint};
    use maddpipe_tech::units::Volts;

    fn wide_setup(ndec: usize, ns: usize) -> (MacroConfig, MacroProgram, TokenBatch) {
        let cfg = MacroConfig::new(ndec, ns).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
        let program = MacroProgram::random(ndec, ns, 31);
        let batch = TokenBatch::random(ns, 5, 17);
        (cfg, program, batch)
    }

    #[test]
    fn sharded_matches_the_wide_macro_even_when_ragged() {
        // 7 chains over 3 shards: widths [3, 2, 2] — not divisible.
        let (cfg, program, batch) = wide_setup(7, 2);
        let mut wide = FunctionalBackend::new(program.clone());
        let mut sharded =
            ShardedBackend::uniform(&cfg, &program, 3, BackendKind::Functional { workers: 1 })
                .unwrap();
        let expect = wide.run_batch(&batch).unwrap();
        let got = sharded.run_batch(&batch).unwrap();
        assert_eq!(got.outputs(), expect.outputs());
        assert_eq!(sharded.plan().widths(), &[3, 2, 2]);
        assert_eq!(got.backend, "sharded");
        // Functional shards measure nothing, so neither does the whole.
        assert!(got
            .tokens
            .iter()
            .all(|t| t.latency.is_none() && t.energy.is_none()));
        assert!(got.makespan.is_none() && got.energy.is_none());
    }

    #[test]
    fn single_shard_plan_is_the_identity() {
        let (cfg, program, batch) = wide_setup(4, 2);
        let mut wide = FunctionalBackend::new(program.clone());
        let mut one =
            ShardedBackend::uniform(&cfg, &program, 1, BackendKind::Functional { workers: 2 })
                .unwrap();
        assert_eq!(
            one.run_batch(&batch).unwrap().outputs(),
            wide.run_batch(&batch).unwrap().outputs()
        );
        assert_eq!(one.plan().shards(), 1);
        assert_eq!(one.ns(), 2);
    }

    #[test]
    fn mixed_shard_kinds_agree_and_suppress_partial_measurements() {
        let (cfg, program, batch) = wide_setup(3, 2);
        let plan = ShardPlan::even(3, 3).unwrap();
        let kinds = [
            BackendKind::Rtl {
                fidelity: Fidelity::Sequential,
            },
            BackendKind::Analytic,
            BackendKind::Functional { workers: 1 },
        ];
        let mut sharded = ShardedBackend::new(&cfg, &program, plan, &kinds).unwrap();
        let got = sharded.run_batch(&batch).unwrap();
        for (t, token) in batch.tokens().iter().enumerate() {
            assert_eq!(
                got.tokens.get(t).unwrap().outputs,
                program.reference_output(token)
            );
            // The functional shard measures nothing, so a max over the
            // RTL/analytic shards alone would understate the token and a
            // partial energy sum would pose as the batch total:
            // aggregation is all-or-none, one unmeasured shard → None.
            assert_eq!(got.tokens.get(t).unwrap().latency, None);
            assert_eq!(got.tokens.get(t).unwrap().energy, None);
        }
        assert_eq!(got.makespan, None);
        assert_eq!(got.energy, None);
    }

    #[test]
    fn all_measuring_mixed_shards_aggregate_measurements() {
        let (cfg, program, batch) = wide_setup(2, 2);
        let plan = ShardPlan::even(2, 2).unwrap();
        let kinds = [
            BackendKind::Rtl {
                fidelity: Fidelity::Sequential,
            },
            BackendKind::Analytic,
        ];
        let mut sharded = ShardedBackend::new(&cfg, &program, plan, &kinds).unwrap();
        let got = sharded.run_batch(&batch).unwrap();
        for (t, token) in batch.tokens().iter().enumerate() {
            assert_eq!(
                got.tokens.get(t).unwrap().outputs,
                program.reference_output(token)
            );
            // RTL and analytic shards both measure: max / sum are present.
            assert!(got.tokens.get(t).unwrap().latency.is_some());
            assert!(got.tokens.get(t).unwrap().energy.is_some());
        }
        assert!(got.makespan.is_some());
        assert!(got.energy.unwrap().value() > 0.0);
    }

    #[test]
    fn latency_is_max_and_energy_is_sum_over_shards() {
        let (cfg, program, batch) = wide_setup(4, 2);
        let plan = ShardPlan::even(4, 2).unwrap();
        let kinds = [BackendKind::Analytic, BackendKind::Analytic];
        // The same batch on the two analytic half-macros, run directly.
        let subs = plan.split(&program).unwrap();
        let halves: Vec<BatchResult> = subs
            .into_iter()
            .map(|sub| {
                let mut half_cfg = cfg.clone();
                half_cfg.ndec = sub.ndec();
                crate::analytic::AnalyticBackend::new(&half_cfg, sub)
                    .unwrap()
                    .run_batch(&batch)
                    .unwrap()
            })
            .collect();
        let mut sharded = ShardedBackend::new(&cfg, &program, plan, &kinds).unwrap();
        let got = sharded.run_batch(&batch).unwrap();
        for t in 0..batch.len() {
            let max_latency = halves
                .iter()
                .map(|h| h.tokens.get(t).unwrap().latency.unwrap())
                .reduce(|a, b| if a > b { a } else { b })
                .unwrap();
            let sum_energy: f64 = halves
                .iter()
                .map(|h| h.tokens.get(t).unwrap().energy.unwrap().value())
                .sum();
            assert_eq!(got.tokens.get(t).unwrap().latency.unwrap(), max_latency);
            assert!(
                (got.tokens.get(t).unwrap().energy.unwrap().value() - sum_energy).abs() < 1e-24
            );
        }
    }

    /// One backend per shard of `plan`, shard `s` being
    /// `build(s, its sub-program)`.
    fn shard_backends(
        program: &MacroProgram,
        plan: &ShardPlan,
        build: impl Fn(usize, MacroProgram) -> Box<dyn MacroBackend>,
    ) -> Vec<Box<dyn MacroBackend>> {
        let subs = plan.split(program).unwrap();
        subs.into_iter()
            .enumerate()
            .map(|(s, sub)| build(s, sub))
            .collect()
    }

    /// An inner backend that serves `ok_batches` batches, then fails with
    /// a typed error — the "one macro went down mid-serving" case.
    struct FlakyBackend {
        inner: FunctionalBackend,
        ok_batches: usize,
        served: usize,
    }

    impl MacroBackend for FlakyBackend {
        fn name(&self) -> &'static str {
            "flaky"
        }
        fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
            if self.served >= self.ok_batches {
                return Err(BackendError::Oscillation(OscillationError {
                    events: 1,
                    time: SimTime::ZERO,
                }));
            }
            self.served += 1;
            self.inner.run_batch(batch)
        }
    }

    #[test]
    fn a_failing_shard_rejects_the_batch_without_partial_output() {
        let (_, program, batch) = wide_setup(4, 2);
        let plan = ShardPlan::even(4, 2).unwrap();
        let shards = shard_backends(&program, &plan, |s, sub| {
            if s == 1 {
                Box::new(FlakyBackend {
                    inner: FunctionalBackend::new(sub),
                    ok_batches: 1,
                    served: 0,
                })
            } else {
                Box::new(FunctionalBackend::new(sub))
            }
        });
        let mut sharded = ShardedBackend::from_backends(plan, 2, shards).unwrap();
        // First batch: both shards healthy.
        let first = sharded.run_batch(&batch).unwrap();
        assert_eq!(first.tokens.len(), batch.len());
        // Second batch: shard 1 fails mid-serving — the whole batch is
        // rejected once, as a typed error naming the shard, with no
        // partial result and no retry inside the backend.
        let err = sharded.run_batch(&batch).unwrap_err();
        match err {
            BackendError::Shard { shard, source } => {
                assert_eq!(shard, 1);
                assert!(matches!(*source, BackendError::Oscillation(_)));
            }
            other => panic!("expected a Shard error, got {other:?}"),
        }
        // The healthy shard keeps serving; the sharded backend keeps
        // rejecting whole batches while shard 1 stays down.
        assert!(sharded.run_batch(&batch).is_err());
    }

    #[test]
    fn wrong_width_shards_are_a_typed_error_not_wrong_outputs() {
        let (_, program, batch) = wide_setup(4, 2);
        let plan = ShardPlan::even(4, 2).unwrap();
        // Shard 1 mistakenly runs the *wide* program: right token count,
        // wrong output width. The contract check must catch it instead of
        // stitching a 6-wide result.
        let shards = shard_backends(&program, &plan, |s, sub| {
            let program = if s == 1 { program.clone() } else { sub };
            Box::new(FunctionalBackend::new(program))
        });
        let mut sharded = ShardedBackend::from_backends(plan, 2, shards).unwrap();
        match sharded.run_batch(&batch).unwrap_err() {
            BackendError::Shard { shard, source } => {
                assert_eq!(shard, 1);
                assert!(matches!(*source, BackendError::InvalidShardPlan { .. }));
            }
            other => panic!("expected a Shard error, got {other:?}"),
        }
    }

    #[test]
    fn construction_errors_are_typed() {
        let (cfg, program, _) = wide_setup(4, 2);
        // More shards than chains.
        assert!(matches!(
            ShardedBackend::uniform(&cfg, &program, 5, BackendKind::default()),
            Err(BackendError::InvalidShardPlan { .. })
        ));
        // Kind list does not match the plan.
        let plan = ShardPlan::even(4, 2).unwrap();
        assert!(matches!(
            ShardedBackend::new(&cfg, &program, plan.clone(), &[BackendKind::default()]),
            Err(BackendError::InvalidShardPlan { .. })
        ));
        // Program too narrow for the configuration.
        let narrow = MacroProgram::random(3, 2, 1);
        assert!(matches!(
            ShardedBackend::new(
                &cfg,
                &narrow,
                plan.clone(),
                &[BackendKind::default(), BackendKind::default()]
            ),
            Err(BackendError::ProgramMismatch { .. })
        ));
        // A shard whose own kind fails to build names the shard: a
        // 2-chain slice cannot be split 3 ways.
        let unbuildable = BackendKind::Sharded {
            shards: 3,
            inner: Box::new(BackendKind::default()),
        };
        match ShardedBackend::new(
            &cfg,
            &program,
            plan.clone(),
            &[BackendKind::default(), unbuildable],
        )
        .unwrap_err()
        {
            BackendError::Shard { shard, source } => {
                assert_eq!(shard, 1);
                assert!(matches!(*source, BackendError::InvalidShardPlan { .. }));
            }
            other => panic!("expected a Shard error, got {other:?}"),
        }
        // Backend list does not match the plan.
        let one = shard_backends(&program, &ShardPlan::even(4, 1).unwrap(), |_, sub| {
            Box::new(FunctionalBackend::new(sub))
        });
        assert!(matches!(
            ShardedBackend::from_backends(plan, 2, one),
            Err(BackendError::InvalidShardPlan { .. })
        ));
    }

    #[test]
    fn shape_mismatches_are_rejected_before_fanout() {
        let (cfg, program, _) = wide_setup(4, 2);
        let mut sharded =
            ShardedBackend::uniform(&cfg, &program, 2, BackendKind::default()).unwrap();
        let wrong = TokenBatch::random(3, 2, 1);
        assert_eq!(
            sharded.run_batch(&wrong).unwrap_err(),
            BackendError::ShapeMismatch {
                token: 0,
                expected: 2,
                got: 3,
            }
        );
    }
}
