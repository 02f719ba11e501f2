//! Multi-client load generator for replica-pool serving.
//!
//! The serving benches need two complementary views of a
//! [`ReplicaPool`]:
//!
//! - **closed loop** — every client keeps a fixed burst in flight and
//!   waits for it to drain; the pool runs flat out, so the interesting
//!   number is throughput (how replica count scales tokens/s), and
//! - **open loop** — requests arrive at a fixed *offered* rate whether
//!   or not earlier ones finished; past saturation the queue fills, the
//!   depth bound pushes back, and the interesting numbers are goodput,
//!   the rejected share and the p99 queue wait.
//!
//! [`drive`] runs either mode from a [`LoadScenario`] and folds every
//! client's replies into one [`LoadReport`]. The generator only uses
//! the public pool API (`submit_with` + ticket waits), so what it
//! measures is exactly what a real multi-threaded client would see.
//!
//! The generator is also fault-tolerant enough to drive a pool wrapped
//! in a [`ChaosBackend`]: accepted tickets that resolve with an error
//! and submissions refused by a dying pool count as
//! [`LoadReport::failed_requests`] — lost goodput, not a generator
//! panic — which is what lets `bench_sim` report goodput *under
//! injected faults* next to the fault-free baseline.

use maddpipe_runtime::prelude::*;
use std::time::{Duration, Instant};

/// How the generator paces its submissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Closed loop: each client submits `requests_per_client` up front
    /// and then waits for all of them — measures capacity.
    Closed {
        /// Requests each client keeps in flight.
        requests_per_client: usize,
    },
    /// Open loop: clients collectively offer `offered_rps` requests per
    /// second for `duration`, regardless of completions — measures
    /// behaviour at and past saturation.
    Open {
        /// Aggregate offered arrival rate, requests per second.
        offered_rps: f64,
        /// How long the arrival process runs.
        duration: Duration,
    },
}

/// A complete load-generation scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadScenario {
    /// Concurrent submitter threads, each with its own client key.
    pub clients: usize,
    /// Tokens in every submitted batch.
    pub tokens_per_request: usize,
    /// Closed- or open-loop pacing.
    pub mode: LoadMode,
    /// Base seed for the generated token batches.
    pub seed: u64,
}

/// What a [`drive`] run observed, folded over every client.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests the generator attempted to submit.
    pub offered_requests: u64,
    /// Requests that resolved with a result.
    pub served_requests: u64,
    /// Requests refused at the door with
    /// [`BackendError::QueueFull`].
    pub rejected_requests: u64,
    /// Requests that were accepted but whose ticket resolved with an
    /// error (retry budget exhausted, replica lost, pool closed
    /// mid-flight), plus submissions refused by an already-dying pool —
    /// the goodput a fault actually cost.
    pub failed_requests: u64,
    /// Tokens across all served requests.
    pub served_tokens: u64,
    /// Wall time of the whole run (submission through last reply).
    pub elapsed: Duration,
    /// Queue waits of every served request, sorted ascending.
    waits: Vec<Duration>,
}

impl LoadReport {
    /// Served tokens per second of wall time; `None` when the run was
    /// too short to measure.
    pub fn goodput_tokens_per_sec(&self) -> Option<f64> {
        let secs = self.elapsed.as_secs_f64();
        (secs > 0.0).then(|| self.served_tokens as f64 / secs)
    }

    /// Fraction of offered requests that were rejected.
    pub fn rejected_share(&self) -> f64 {
        if self.offered_requests == 0 {
            return 0.0;
        }
        self.rejected_requests as f64 / self.offered_requests as f64
    }

    /// Fraction of offered requests that failed after acceptance.
    pub fn failed_share(&self) -> f64 {
        if self.offered_requests == 0 {
            return 0.0;
        }
        self.failed_requests as f64 / self.offered_requests as f64
    }

    /// The `q`-quantile queue wait over served requests (`q` in 0..=1).
    pub fn wait_quantile(&self, q: f64) -> Option<Duration> {
        if self.waits.is_empty() {
            return None;
        }
        let idx = ((self.waits.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(self.waits[idx])
    }

    /// Median queue wait.
    pub fn p50_wait(&self) -> Option<Duration> {
        self.wait_quantile(0.50)
    }

    /// 99th-percentile queue wait.
    pub fn p99_wait(&self) -> Option<Duration> {
        self.wait_quantile(0.99)
    }
}

/// What one client thread brings home.
struct ClientTally {
    offered: u64,
    rejected: u64,
    failed: u64,
    served_tokens: u64,
    waits: Vec<Duration>,
}

/// Waits out a burst of tickets, recording served waits/tokens. A
/// ticket that resolves with an error — a fault that outran its retry
/// budget, or QueueClosed on a shutdown race — is lost goodput, not a
/// generator bug: it counts as failed and the run carries on.
fn drain(tickets: Vec<BatchTicket>, tally: &mut ClientTally) {
    for ticket in tickets {
        match ticket.wait() {
            Ok(reply) => {
                tally.served_tokens += reply.result.tokens.len() as u64;
                tally.waits.push(reply.queue_wait);
            }
            Err(_) => tally.failed += 1,
        }
    }
}

/// Runs `scenario` against `pool` and reports what every client saw.
///
/// Closed loop: each client submits its whole burst, then waits.
/// Open loop: each client offers its share of `offered_rps` on a fixed
/// arrival schedule (submissions never block on completions); rejected
/// arrivals count toward [`LoadReport::rejected_requests`].
pub fn drive(pool: &ReplicaPool, scenario: &LoadScenario) -> LoadReport {
    let ns = pool.ns();
    let clients = scenario.clients.max(1);
    let t0 = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let pool = &pool;
                scope.spawn(move || {
                    let opts = SubmitOptions::default().with_client(client as u64);
                    let mut tally = ClientTally {
                        offered: 0,
                        rejected: 0,
                        failed: 0,
                        served_tokens: 0,
                        waits: Vec::new(),
                    };
                    let mut tickets = Vec::new();
                    let mut submit = |k: usize, tally: &mut ClientTally| {
                        let seed = scenario.seed.wrapping_add((client * 1_000_000 + k) as u64);
                        let batch = TokenBatch::random(ns, scenario.tokens_per_request, seed);
                        tally.offered += 1;
                        match pool.submit_with(batch, opts) {
                            Ok(ticket) => tickets.push(ticket),
                            Err(BackendError::QueueFull { .. }) => tally.rejected += 1,
                            // A chaos run can kill the last replica while
                            // arrivals are still due: being refused by a
                            // dying pool is lost goodput, not a bug.
                            Err(BackendError::QueueClosed) => tally.failed += 1,
                            Err(other) => panic!("load generator hit {other}"),
                        }
                    };
                    match scenario.mode {
                        LoadMode::Closed {
                            requests_per_client,
                        } => {
                            for k in 0..requests_per_client {
                                submit(k, &mut tally);
                            }
                        }
                        LoadMode::Open {
                            offered_rps,
                            duration,
                        } => {
                            // Each client owns an even share of the
                            // aggregate arrival process.
                            let gap = Duration::from_secs_f64(
                                clients as f64 / offered_rps.max(f64::MIN_POSITIVE),
                            );
                            let start = Instant::now();
                            let mut k = 0usize;
                            loop {
                                let due = start + gap.saturating_mul(k as u32);
                                if due.duration_since(start) >= duration {
                                    break;
                                }
                                if let Some(sleep) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(sleep);
                                }
                                submit(k, &mut tally);
                                k += 1;
                            }
                        }
                    }
                    drain(tickets, &mut tally);
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut report = LoadReport {
        elapsed: t0.elapsed(),
        ..LoadReport::default()
    };
    for tally in tallies {
        report.offered_requests += tally.offered;
        report.rejected_requests += tally.rejected;
        report.failed_requests += tally.failed;
        report.served_tokens += tally.served_tokens;
        report.served_requests += tally.waits.len() as u64;
        report.waits.extend(tally.waits);
    }
    report.waits.sort_unstable();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_core::config::MacroConfig;
    use maddpipe_core::macro_rtl::MacroProgram;
    use std::sync::Arc;

    fn small_pool(replicas: usize, max_depth: usize) -> ReplicaPool {
        let cfg = MacroConfig::new(2, 2);
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
        Session::builder(cfg)
            .program(program)
            .backend(BackendKind::Functional { workers: 1 })
            .into_pool(
                ServePolicy::default()
                    .with_replicas(replicas)
                    .with_fairness(Fairness::RoundRobin)
                    .with_queue(
                        QueuePolicy::default()
                            .with_max_batch(16)
                            .with_max_linger(Duration::from_micros(50))
                            .with_max_depth(max_depth),
                    ),
            )
            .expect("pool comes up")
    }

    #[test]
    fn closed_loop_serves_every_offered_request() {
        let pool = small_pool(2, 4096);
        let report = drive(
            &pool,
            &LoadScenario {
                clients: 4,
                tokens_per_request: 3,
                mode: LoadMode::Closed {
                    requests_per_client: 8,
                },
                seed: 1,
            },
        );
        assert_eq!(report.offered_requests, 32);
        assert_eq!(report.served_requests, 32);
        assert_eq!(report.rejected_requests, 0);
        assert_eq!(report.served_tokens, 96);
        assert_eq!(report.rejected_share(), 0.0);
        assert!(report.p50_wait() <= report.p99_wait());
        let goodput = report.goodput_tokens_per_sec();
        assert!(goodput.is_some_and(|g| g > 0.0), "{goodput:?}");
        pool.shutdown();
    }

    #[test]
    fn open_loop_counts_rejections_against_a_tight_depth_bound() {
        // Depth 1 under a multi-client arrival process: some arrivals
        // must bounce, and every bounce is accounted for.
        let pool = small_pool(1, 1);
        let report = drive(
            &pool,
            &LoadScenario {
                clients: 4,
                tokens_per_request: 2,
                mode: LoadMode::Open {
                    offered_rps: 2_000.0,
                    duration: Duration::from_millis(50),
                },
                seed: 2,
            },
        );
        assert!(report.offered_requests > 0);
        assert_eq!(
            report.served_requests + report.rejected_requests + report.failed_requests,
            report.offered_requests
        );
        assert_eq!(report.served_tokens, report.served_requests * 2);
        pool.shutdown();
    }

    #[test]
    fn chaos_runs_count_faults_as_failures_not_panics() {
        // A 1-replica pool with no respawn whose backend panics on its
        // very first call: the replica quarantines, the pool closes,
        // and everything the generator offered comes back as failed —
        // the generator itself must survive to say so.
        let cfg = MacroConfig::new(2, 2);
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
        let state = ChaosState::new();
        let chaos = ChaosConfig::default().with_panic_on_call(0);
        let recipe: ReplicaFactory = {
            let cfg = cfg.clone();
            Arc::new(move || BackendKind::Functional { workers: 1 }.build(&cfg, program.clone()))
        };
        let pool = ReplicaPool::from_recipes(
            ServePolicy::default()
                .with_queue(QueuePolicy::default().with_max_linger(Duration::ZERO))
                .with_recovery(RecoveryPolicy::none()),
            cfg.ns,
            vec![wrap_recipe(recipe, chaos, state)],
        )
        .expect("pool comes up");
        let report = drive(
            &pool,
            &LoadScenario {
                clients: 2,
                tokens_per_request: 2,
                mode: LoadMode::Closed {
                    requests_per_client: 4,
                },
                seed: 3,
            },
        );
        assert_eq!(report.offered_requests, 8);
        assert_eq!(
            report.served_requests + report.rejected_requests + report.failed_requests,
            report.offered_requests
        );
        assert!(report.failed_requests > 0, "{report:?}");
        assert!(report.failed_share() > 0.0);
        pool.shutdown();
    }
}
