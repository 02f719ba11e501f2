//! Sharded multi-macro serving: one wide program, many macro instances.
//!
//! The paper's macro is a fixed-width tile (`ndec` decoder chains); a
//! wide CNN layer maps onto it as `tiles_out` serial passes
//! ([`ConvMapping`](maddpipe_core::mapping::ConvMapping)). The
//! [`ShardedBackend`] turns those serial passes into parallel macros: a
//! [`ShardPlan`] slices the program's decoder chains into contiguous
//! ranges, one long-lived worker thread per shard builds and owns the
//! [`MacroBackend`] of its own [`BackendKind`] recipe (any mix, nested
//! recipes included), every [`TokenBatch`] fans out to all shards, and
//! per-token outputs are reassembled in plan order — bit-identical to
//! the single wide macro, with latency aggregated as the max over shards
//! and energy as the sum when *every* shard measured (an unmeasured
//! shard in a mixed set makes the aggregate `None` — a partial sum is
//! not a total).
//!
//! Inner backends never cross threads: each is constructed *on* its
//! worker, so backends that are not `Send` (the event-driven netlist)
//! shard exactly like the pure-math ones. A *transient* shard failure
//! (see [`BackendError::is_transient`]) is retried on that shard alone
//! under the backend's [`RecoveryPolicy`] — the other shards' results
//! are kept, not recomputed; only a fatal error, a dead worker, or an
//! exhausted retry budget rejects the whole batch with a typed
//! [`BackendError::Shard`]. No partial output ever escapes.

use crate::backend::{validate_program, BackendFactory, BackendKind, MacroBackend};
use crate::batch::{BatchResult, TokenBatch, TokenObservation};
use crate::cache::CacheStats;
use crate::error::BackendError;
use crate::plan::ShardPlan;
use crate::pool::RecoveryPolicy;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::MacroProgram;
use maddpipe_tech::units::{Joules, Seconds};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// What a shard worker sends back for one batch: its result, plus the
/// shard backend's cumulative cache counters taken right after the call.
type Reply = (Result<BatchResult, BackendError>, Option<CacheStats>);

/// One batch travelling to a shard worker, with the channel its reply
/// comes back on. The batch is shared, not copied: every shard reads
/// the same `Arc`'d tokens.
struct Job {
    batch: Arc<TokenBatch>,
    reply: mpsc::Sender<Reply>,
}

/// A shard worker: the sending half of its job queue plus its thread
/// handle. Dropping the sender is the shutdown signal; `Drop` then joins
/// the thread so no worker outlives the backend.
struct Worker {
    jobs: Option<mpsc::Sender<Job>>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for Worker {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

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
    workers: Vec<Worker>,
    recovery: RecoveryPolicy,
    /// Each shard's latest cache counters, as its worker last replied.
    cache: Vec<Option<CacheStats>>,
}

impl ShardedBackend {
    /// Partitions `program` across `plan.shards()` macro instances, shard
    /// `s` building `kinds[s]` for the sub-program of `plan.range(s)` on
    /// its own worker thread.
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
        let factories = subs
            .into_iter()
            .zip(kinds)
            .map(|(sub, kind)| {
                let mut shard_cfg = cfg.clone();
                shard_cfg.ndec = sub.ndec();
                let kind = kind.clone();
                let factory: BackendFactory = Box::new(move || kind.build(&shard_cfg, sub));
                factory
            })
            .collect();
        ShardedBackend::from_factories(plan, ns, factories)
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

    /// Spawns one worker per factory and waits until every shard's
    /// backend is built. The factories run on their worker threads, so
    /// they may build non-`Send` backends; each must produce a backend
    /// whose outputs-per-token width matches its plan range and whose
    /// stage count is `ns`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::InvalidShardPlan`] when the factory count
    /// disagrees with the plan, [`BackendError::Shard`] when a factory
    /// fails, and [`BackendError::ShardLost`] when a worker dies while
    /// constructing.
    pub fn from_factories(
        plan: ShardPlan,
        ns: usize,
        factories: Vec<BackendFactory>,
    ) -> Result<ShardedBackend, BackendError> {
        if factories.len() != plan.shards() {
            return Err(BackendError::InvalidShardPlan {
                reason: format!(
                    "{} shard factories for {} shards",
                    factories.len(),
                    plan.shards()
                ),
            });
        }
        let mut workers = Vec::with_capacity(factories.len());
        let mut readiness = Vec::with_capacity(factories.len());
        for (shard, factory) in factories.into_iter().enumerate() {
            let (job_tx, job_rx) = mpsc::channel::<Job>();
            let (ready_tx, ready_rx) = mpsc::channel::<Result<(), BackendError>>();
            let handle = std::thread::Builder::new()
                .name(format!("maddpipe-shard-{shard}"))
                .spawn(move || {
                    let mut backend = match factory() {
                        Ok(backend) => {
                            let _ = ready_tx.send(Ok(()));
                            backend
                        }
                        Err(e) => {
                            let _ = ready_tx.send(Err(e));
                            return;
                        }
                    };
                    while let Ok(job) = job_rx.recv() {
                        let result = backend.run_batch(&job.batch);
                        let _ = job.reply.send((result, backend.cache_stats()));
                    }
                })
                .expect("the host can spawn a shard worker thread");
            workers.push(Worker {
                jobs: Some(job_tx),
                handle: Some(handle),
            });
            readiness.push(ready_rx);
        }
        for (shard, ready) in readiness.into_iter().enumerate() {
            match ready.recv() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    return Err(BackendError::Shard {
                        shard,
                        source: Box::new(e),
                    })
                }
                Err(_) => return Err(BackendError::ShardLost { shard }),
            }
        }
        Ok(ShardedBackend {
            cache: vec![None; workers.len()],
            plan,
            ns,
            workers,
            recovery: RecoveryPolicy::default(),
        })
    }

    /// Sets the per-shard retry policy: a shard whose batch fails with a
    /// transient error is re-asked up to `recovery.max_retries` times
    /// with exponential backoff before the whole batch is rejected. The
    /// `respawn` budget is not used here — shard workers own non-`Send`
    /// backends built from one-shot factories, so a dead worker cannot
    /// be rebuilt; replica-level respawn lives in
    /// [`ReplicaPool`](crate::pool::ReplicaPool).
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> ShardedBackend {
        self.recovery = recovery;
        self
    }

    /// The partition this backend serves.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Pipeline stages every shard expects per token.
    pub fn ns(&self) -> usize {
        self.ns
    }

    /// Sends `shared` to shard `shard` and returns the reply channel.
    fn dispatch(
        &self,
        shard: usize,
        shared: &Arc<TokenBatch>,
    ) -> Result<mpsc::Receiver<Reply>, BackendError> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let jobs = self.workers[shard]
            .jobs
            .as_ref()
            .expect("sender lives as long as self");
        jobs.send(Job {
            batch: Arc::clone(shared),
            reply: reply_tx,
        })
        .map_err(|_| BackendError::ShardLost { shard })?;
        Ok(reply_rx)
    }

    /// Receives shard `shard`'s reply, keeps its cache counters, and
    /// enforces its slice of the contract: one observation per token,
    /// each `plan.widths()[shard]` wide.
    fn collect(
        &mut self,
        shard: usize,
        reply: mpsc::Receiver<Reply>,
        batch: &TokenBatch,
    ) -> Result<BatchResult, BackendError> {
        let (result, cache) = reply
            .recv()
            .map_err(|_| BackendError::ShardLost { shard })?;
        self.cache[shard] = cache;
        let result = result.map_err(|e| BackendError::Shard {
            shard,
            source: Box::new(e),
        })?;
        if result.tokens.len() != batch.len() {
            return Err(BackendError::Shard {
                shard,
                source: Box::new(BackendError::InvalidShardPlan {
                    reason: format!(
                        "shard returned {} observations for a {}-token batch",
                        result.tokens.len(),
                        batch.len()
                    ),
                }),
            });
        }
        let width = self.plan.widths()[shard];
        if let Some(obs) = result.tokens.iter().find(|o| o.outputs.len() != width) {
            return Err(BackendError::Shard {
                shard,
                source: Box::new(BackendError::InvalidShardPlan {
                    reason: format!(
                        "shard produced {}-wide outputs but its plan range is {} chains",
                        obs.outputs.len(),
                        width
                    ),
                }),
            });
        }
        Ok(result)
    }

    /// Fans `batch` out to every shard and collects the per-shard results
    /// in plan order. A shard that fails *transiently* is re-asked under
    /// the [`RecoveryPolicy`] — on its own, while its siblings' results
    /// are kept — so one flaky shard no longer rejects work the others
    /// finished. Fatal errors and dead workers ([`BackendError::ShardLost`]
    /// — the job channel is gone, a resend cannot land) fail the batch;
    /// first such failure wins (lowest shard index) and the rest are
    /// discarded. The batch is cloned once and shared by `Arc` — the
    /// fan-out itself copies no token data.
    fn scatter_gather(&mut self, batch: &TokenBatch) -> Result<Vec<BatchResult>, BackendError> {
        let shared = Arc::new(batch.clone());
        let mut replies = Vec::with_capacity(self.workers.len());
        for shard in 0..self.workers.len() {
            replies.push(self.dispatch(shard, &shared)?);
        }
        let mut results = Vec::with_capacity(replies.len());
        for (shard, reply) in replies.into_iter().enumerate() {
            let mut attempts = 0u32;
            let mut outcome = self.collect(shard, reply, batch);
            while let Err(error) = &outcome {
                let retryable =
                    error.is_transient() && !matches!(error, BackendError::ShardLost { .. });
                if !retryable || attempts >= self.recovery.max_retries {
                    break;
                }
                std::thread::sleep(self.recovery.backoff_for(attempts));
                attempts += 1;
                outcome = self
                    .dispatch(shard, &shared)
                    .and_then(|retry| self.collect(shard, retry, batch));
            }
            results.push(outcome?);
        }
        Ok(results)
    }
}

impl MacroBackend for ShardedBackend {
    fn name(&self) -> &'static str {
        "sharded"
    }

    /// Runs the batch on every shard concurrently. Per token, `outputs`
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
        let shard_results = self.scatter_gather(batch)?;
        let mut tokens = Vec::with_capacity(batch.len());
        for t in 0..batch.len() {
            let mut outputs = Vec::with_capacity(self.plan.out_channels());
            for result in &shard_results {
                outputs.extend_from_slice(&result.tokens[t].outputs);
            }
            let latency: Option<Seconds> = shard_results
                .iter()
                .map(|r| r.tokens[t].latency)
                .collect::<Option<Vec<_>>>()
                .and_then(|ls| ls.into_iter().reduce(|a, b| if b > a { b } else { a }));
            let energy: Option<Joules> = shard_results
                .iter()
                .map(|r| r.tokens[t].energy)
                .collect::<Option<Vec<_>>>()
                .and_then(|es| es.into_iter().reduce(|a, b| a + b));
            tokens.push(TokenObservation {
                outputs,
                latency,
                energy,
            });
        }
        let makespan = shard_results
            .iter()
            .map(|r| r.makespan)
            .collect::<Option<Vec<_>>>()
            .and_then(|ms| ms.into_iter().reduce(|a, b| if b > a { b } else { a }));
        let energy = shard_results
            .iter()
            .map(|r| r.energy)
            .collect::<Option<Vec<_>>>()
            .and_then(|es| es.into_iter().reduce(|a, b| a + b));
        Ok(BatchResult {
            backend: self.name(),
            tokens,
            makespan,
            energy,
        })
    }

    /// The field-wise sum of the counters each cached shard sent with its
    /// latest reply; `None` until a shard backend has reported any.
    fn cache_stats(&self) -> Option<CacheStats> {
        self.cache
            .iter()
            .flatten()
            .copied()
            .reduce(CacheStats::merged)
    }
}

impl Drop for ShardedBackend {
    /// Signals *every* worker before any join: each `Worker`'s job
    /// sender drops here first, so all shards see the shutdown at once
    /// and wind down in parallel — a slow shard mid-batch delays the
    /// join by its own remaining work only, never serially behind its
    /// neighbours. (The per-`Worker` `Drop` then joins the thread; a
    /// worker that panicked is absorbed by the ignored join result.)
    fn drop(&mut self) {
        for worker in &mut self.workers {
            drop(worker.jobs.take());
        }
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
            assert_eq!(got.tokens[t].outputs, program.reference_output(token));
            // The functional shard measures nothing, so a max over the
            // RTL/analytic shards alone would understate the token and a
            // partial energy sum would pose as the batch total:
            // aggregation is all-or-none, one unmeasured shard → None.
            assert_eq!(got.tokens[t].latency, None);
            assert_eq!(got.tokens[t].energy, None);
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
            assert_eq!(got.tokens[t].outputs, program.reference_output(token));
            // RTL and analytic shards both measure: max / sum are present.
            assert!(got.tokens[t].latency.is_some());
            assert!(got.tokens[t].energy.is_some());
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
                .map(|h| h.tokens[t].latency.unwrap())
                .reduce(|a, b| if a > b { a } else { b })
                .unwrap();
            let sum_energy: f64 = halves
                .iter()
                .map(|h| h.tokens[t].energy.unwrap().value())
                .sum();
            assert_eq!(got.tokens[t].latency.unwrap(), max_latency);
            assert!((got.tokens[t].energy.unwrap().value() - sum_energy).abs() < 1e-24);
        }
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

    /// An inner backend whose next `failures_left` batches fail
    /// transiently, then recovers for good — the flaky-but-alive shard.
    struct RecoveringBackend {
        inner: FunctionalBackend,
        failures_left: usize,
        attempts: usize,
    }

    impl MacroBackend for RecoveringBackend {
        fn name(&self) -> &'static str {
            "recovering"
        }
        fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
            self.attempts += 1;
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(BackendError::Transient {
                    reason: format!("flaky shard, failure {}", self.attempts),
                });
            }
            self.inner.run_batch(batch)
        }
    }

    #[test]
    fn a_transiently_failing_shard_is_retried_alone_and_the_batch_succeeds() {
        let (_, program, batch) = wide_setup(4, 2);
        let plan = ShardPlan::even(4, 2).unwrap();
        let subs = plan.split(&program).unwrap();
        let wide_expect = FunctionalBackend::new(program.clone())
            .run_batch(&batch)
            .unwrap();
        let mut factories: Vec<BackendFactory> = Vec::new();
        for (s, sub) in subs.into_iter().enumerate() {
            factories.push(Box::new(move || {
                Ok(if s == 1 {
                    Box::new(RecoveringBackend {
                        inner: FunctionalBackend::new(sub),
                        failures_left: 2,
                        attempts: 0,
                    })
                } else {
                    Box::new(FunctionalBackend::new(sub)) as Box<dyn MacroBackend>
                })
            }));
        }
        let mut sharded = ShardedBackend::from_factories(plan, 2, factories)
            .unwrap()
            .with_recovery(
                RecoveryPolicy::default()
                    .with_max_retries(2)
                    .with_backoff(std::time::Duration::from_micros(50)),
            );
        // Shard 1 fails twice and succeeds on its third attempt — inside
        // the budget, so the whole batch comes back bit-identical to the
        // wide macro with no caller-visible error.
        let got = sharded.run_batch(&batch).unwrap();
        assert_eq!(got.outputs(), wide_expect.outputs());
        // A second batch serves first-try: the shard has recovered.
        assert_eq!(
            sharded.run_batch(&batch).unwrap().outputs(),
            wide_expect.outputs()
        );
    }

    #[test]
    fn an_exhausted_shard_retry_budget_surfaces_the_typed_error() {
        let (_, program, batch) = wide_setup(4, 2);
        let plan = ShardPlan::even(4, 2).unwrap();
        let subs = plan.split(&program).unwrap();
        let mut factories: Vec<BackendFactory> = Vec::new();
        for (s, sub) in subs.into_iter().enumerate() {
            factories.push(Box::new(move || {
                Ok(if s == 0 {
                    Box::new(RecoveringBackend {
                        inner: FunctionalBackend::new(sub),
                        failures_left: 5, // more than 1 + 2 retries
                        attempts: 0,
                    })
                } else {
                    Box::new(FunctionalBackend::new(sub)) as Box<dyn MacroBackend>
                })
            }));
        }
        let mut sharded = ShardedBackend::from_factories(plan, 2, factories)
            .unwrap()
            .with_recovery(
                RecoveryPolicy::default()
                    .with_max_retries(2)
                    .with_backoff(std::time::Duration::from_micros(50)),
            );
        match sharded.run_batch(&batch).unwrap_err() {
            BackendError::Shard { shard, source } => {
                assert_eq!(shard, 0);
                // The third and final attempt's error is the one surfaced.
                assert_eq!(
                    *source,
                    BackendError::Transient {
                        reason: "flaky shard, failure 3".into()
                    }
                );
            }
            other => panic!("expected a Shard error, got {other:?}"),
        }
        // Two more failures were budgeted away above; the shard now
        // recovers and the next batch succeeds end to end.
        let wide_expect = FunctionalBackend::new(program).run_batch(&batch).unwrap();
        // 5 failures - 3 attempts = 2 left; one more run burns both
        // (first try + first retry) and lands on attempt 6: success.
        assert_eq!(
            sharded.run_batch(&batch).unwrap().outputs(),
            wide_expect.outputs()
        );
    }

    #[test]
    fn a_failing_shard_rejects_the_batch_without_partial_output() {
        let (_, program, batch) = wide_setup(4, 2);
        let plan = ShardPlan::even(4, 2).unwrap();
        let subs = plan.split(&program).unwrap();
        let mut factories: Vec<BackendFactory> = Vec::new();
        for (s, sub) in subs.into_iter().enumerate() {
            factories.push(Box::new(move || {
                Ok(if s == 1 {
                    Box::new(FlakyBackend {
                        inner: FunctionalBackend::new(sub),
                        ok_batches: 1,
                        served: 0,
                    })
                } else {
                    Box::new(FunctionalBackend::new(sub)) as Box<dyn MacroBackend>
                })
            }));
        }
        let mut sharded = ShardedBackend::from_factories(plan, 2, factories).unwrap();
        // First batch: both shards healthy.
        let first = sharded.run_batch(&batch).unwrap();
        assert_eq!(first.tokens.len(), batch.len());
        // Second batch: shard 1 fails mid-serving — the whole batch is
        // rejected as a typed error naming the shard, no partial result.
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

    /// A backend that takes `delay` per batch — long enough for the test
    /// to act while the shard is still mid-flight.
    struct SlowBackend {
        inner: FunctionalBackend,
        delay: std::time::Duration,
    }

    impl MacroBackend for SlowBackend {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
            std::thread::sleep(self.delay);
            self.inner.run_batch(batch)
        }
    }

    #[test]
    fn dropping_with_a_batch_mid_flight_joins_workers_cleanly() {
        // Shard 0 fails instantly, so `run_batch` returns its error while
        // shard 1 is still asleep inside its own copy of the batch — the
        // exact state a serving-queue teardown can leave a fleet in.
        // Dropping the backend then must join both workers: no deadlock,
        // no panic, no leaked thread still owning a netlist.
        let (_, program, batch) = wide_setup(4, 2);
        let plan = ShardPlan::even(4, 2).unwrap();
        let subs = plan.split(&program).unwrap();
        let mut factories: Vec<BackendFactory> = Vec::new();
        for (s, sub) in subs.into_iter().enumerate() {
            factories.push(Box::new(move || {
                Ok(if s == 0 {
                    Box::new(FlakyBackend {
                        inner: FunctionalBackend::new(sub),
                        ok_batches: 0,
                        served: 0,
                    })
                } else {
                    Box::new(SlowBackend {
                        inner: FunctionalBackend::new(sub),
                        delay: std::time::Duration::from_millis(150),
                    }) as Box<dyn MacroBackend>
                })
            }));
        }
        let mut sharded = ShardedBackend::from_factories(plan, 2, factories).unwrap();
        let err = sharded.run_batch(&batch).unwrap_err();
        assert!(
            matches!(err, BackendError::Shard { shard: 0, .. }),
            "{err:?}"
        );
        // Drop on a watchdog thread so a deadlocked join fails the test
        // instead of hanging it.
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(sharded);
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("dropping a mid-flight sharded backend must join, not deadlock");
    }

    #[test]
    fn wrong_width_shards_are_a_typed_error_not_wrong_outputs() {
        let (_, program, batch) = wide_setup(4, 2);
        let plan = ShardPlan::even(4, 2).unwrap();
        let subs = plan.split(&program).unwrap();
        // Shard 1 mistakenly runs the *wide* program: right token count,
        // wrong output width. The contract check must catch it instead of
        // stitching a 6-wide result.
        let wide_program = program.clone();
        let factories: Vec<BackendFactory> = vec![
            Box::new({
                let sub = subs[0].clone();
                move || Ok(Box::new(FunctionalBackend::new(sub)) as Box<dyn MacroBackend>)
            }),
            Box::new(move || {
                Ok(Box::new(FunctionalBackend::new(wide_program)) as Box<dyn MacroBackend>)
            }),
        ];
        let mut sharded = ShardedBackend::from_factories(plan, 2, factories).unwrap();
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
        // A factory that fails reports which shard could not come up.
        let failing: Vec<BackendFactory> = vec![
            Box::new(|| Err(BackendError::MissingProgram)),
            Box::new(|| Err(BackendError::MissingProgram)),
        ];
        match ShardedBackend::from_factories(plan, 2, failing).unwrap_err() {
            BackendError::Shard { shard, source } => {
                assert_eq!(shard, 0);
                assert_eq!(*source, BackendError::MissingProgram);
            }
            other => panic!("expected a Shard error, got {other:?}"),
        }
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
