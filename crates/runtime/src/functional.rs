//! The pure-math throughput backend.

use crate::backend::MacroBackend;
use crate::batch::{BatchResult, Token, TokenBatch, TokenObservation};
use crate::error::BackendError;
use maddpipe_core::batched::{BatchedProgram, LANE};
use maddpipe_core::macro_rtl::MacroProgram;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Executes batches with the exact wrapping-i16 LUT semantics of the
/// silicon — no timing model — through the struct-of-arrays
/// [`BatchedProgram`] lane kernel, sharding [`LANE`]-aligned token blocks
/// across OS threads for throughput.
///
/// [`MacroProgram::reference_output`] remains the executable spec; the
/// lane kernel is pinned bit-identical to it by proptest.
///
/// A panic on a worker thread (e.g. a malformed hand-built program whose
/// tree walk escapes the 16-entry LUT) is caught and surfaced as a typed
/// transient [`BackendError`] instead of aborting the process, matching
/// the replica-pool discipline.
///
/// Observations carry outputs only: a functional evaluation measures
/// neither latency nor energy.
#[derive(Debug, Clone)]
pub struct FunctionalBackend {
    program: MacroProgram,
    batched: BatchedProgram,
    workers: usize,
}

impl FunctionalBackend {
    /// Single-threaded backend for `program`.
    pub fn new(program: MacroProgram) -> FunctionalBackend {
        FunctionalBackend::with_workers(program, 1)
    }

    /// Backend sharding each batch across `workers` threads (clamped to at
    /// least 1).
    pub fn with_workers(program: MacroProgram, workers: usize) -> FunctionalBackend {
        let batched = program.batched();
        FunctionalBackend {
            program,
            batched,
            workers: workers.max(1),
        }
    }

    /// The loaded program.
    pub fn program(&self) -> &MacroProgram {
        &self.program
    }

    /// Worker threads used per batch.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates one contiguous shard of tokens, converting any panic in
    /// the LUT math into a typed transient error.
    fn eval_shard(&self, shard: &[Token]) -> Result<Vec<Vec<i16>>, BackendError> {
        catch_unwind(AssertUnwindSafe(|| self.batched.evaluate(shard))).map_err(|payload| {
            BackendError::Transient {
                reason: format!("functional worker panicked: {}", panic_reason(&payload)),
            }
        })
    }
}

/// Best-effort text of a panic payload (the common `&str` / `String`
/// forms; anything else is reported as opaque).
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Balanced contiguous partition of `n` tokens across up to `workers`
/// shards (empty for `n == 0`; never more than `n` shards).
///
/// When the batch is large enough, whole [`LANE`] blocks are distributed
/// so every worker runs full 64-token lanes (sizes differ by at most one
/// block, largest first; only the final shard carries the ragged tail).
/// Smaller batches fall back to balancing token counts so no requested
/// worker idles — the old `div_ceil` chunking could leave trailing
/// workers without a shard (5 tokens / 4 workers → 2/2/1 and one worker
/// unused).
fn shard_sizes(n: usize, workers: usize) -> Vec<usize> {
    let w = workers.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    if w == 1 {
        return vec![n];
    }
    let blocks = n.div_ceil(LANE);
    if blocks >= w {
        // Lane-aligned regime: hand out whole blocks, remainder first.
        let base = blocks / w;
        let rem = blocks % w;
        let mut sizes = Vec::with_capacity(w);
        let mut start = 0usize;
        for i in 0..w {
            let end = (start + (base + usize::from(i < rem)) * LANE).min(n);
            sizes.push(end - start);
            start = end;
        }
        sizes
    } else {
        // Fewer blocks than workers: balance raw token counts instead so
        // every worker still gets a shard.
        let base = n / w;
        let rem = n % w;
        (0..w).map(|i| base + usize::from(i < rem)).collect()
    }
}

impl MacroBackend for FunctionalBackend {
    fn name(&self) -> &'static str {
        "functional"
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        batch.check_shape(self.program.ns())?;
        let tokens = batch.tokens();
        let sizes = shard_sizes(tokens.len(), self.workers);
        let outputs: Vec<Vec<i16>> = if sizes.len() <= 1 {
            self.eval_shard(tokens)?
        } else {
            // Contiguous shards, one per worker; joining in spawn order
            // restores submission order. Every handle is joined before
            // any error is surfaced, so no worker outlives the batch.
            let this = &*self;
            std::thread::scope(|scope| {
                let mut start = 0usize;
                let handles: Vec<_> = sizes
                    .iter()
                    .map(|&len| {
                        let shard = &tokens[start..start + len];
                        start += len;
                        scope.spawn(move || this.eval_shard(shard))
                    })
                    .collect();
                let mut all = Vec::with_capacity(tokens.len());
                let mut failure: Option<BackendError> = None;
                for handle in handles {
                    match handle.join() {
                        Ok(Ok(mut outs)) => all.append(&mut outs),
                        Ok(Err(e)) => failure = failure.or(Some(e)),
                        // eval_shard already catches panics in the LUT
                        // math, so a join error means the thread died
                        // some other way — still a typed error, never an
                        // abort of the whole process.
                        Err(_) => {
                            failure = failure.or(Some(BackendError::Transient {
                                reason: "functional worker thread terminated abnormally".into(),
                            }));
                        }
                    }
                }
                match failure {
                    Some(e) => Err(e),
                    None => Ok(all),
                }
            })?
        };
        Ok(BatchResult {
            backend: self.name(),
            tokens: outputs
                .into_iter()
                .map(|outputs| TokenObservation {
                    outputs,
                    latency: None,
                    energy: None,
                })
                .collect(),
            makespan: None,
            energy: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_core::config::K;

    #[test]
    fn sharded_and_serial_agree() {
        let program = MacroProgram::random(3, 4, 77);
        let batch = TokenBatch::random(4, 23, 5);
        let mut serial = FunctionalBackend::new(program.clone());
        let mut sharded = FunctionalBackend::with_workers(program, 4);
        let a = serial.run_batch(&batch).unwrap();
        let b = sharded.run_batch(&batch).unwrap();
        assert_eq!(a.outputs(), b.outputs());
        assert_eq!(a.tokens.len(), 23);
        assert!(a.tokens[0].latency.is_none() && a.tokens[0].energy.is_none());
    }

    #[test]
    fn the_kernel_matches_the_scalar_spec_through_the_backend() {
        let program = MacroProgram::random(4, 3, 31);
        let batch = TokenBatch::random(3, 130, 12);
        let golden: Vec<Vec<i16>> = batch
            .tokens()
            .iter()
            .map(|t| program.reference_output(t))
            .collect();
        for workers in [1usize, 3] {
            let mut backend = FunctionalBackend::with_workers(program.clone(), workers);
            let got = backend.run_batch(&batch).unwrap();
            assert_eq!(got.outputs(), golden, "{workers} workers");
        }
    }

    #[test]
    fn zero_workers_clamp_to_one() {
        let program = MacroProgram::random(1, 1, 0);
        assert_eq!(FunctionalBackend::with_workers(program, 0).workers(), 1);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let program = MacroProgram::random(2, 2, 1);
        let mut backend = FunctionalBackend::new(program);
        let batch = TokenBatch::random(3, 2, 9);
        assert_eq!(
            backend.run_batch(&batch),
            Err(BackendError::ShapeMismatch {
                token: 0,
                expected: 2,
                got: 3,
            })
        );
    }

    /// A well-formed-looking program whose 5-level tree walks every token
    /// to leaf 31 — off the end of the 16-entry LUT — so any kernel
    /// panics mid-evaluation, like a corrupted hand-built program would.
    fn panicking_program() -> MacroProgram {
        let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(vec![0; 5], vec![-128.0; 31])
            .unwrap()
            .quantize(maddpipe_amm::quant::QuantScale::UNIT);
        MacroProgram {
            trees: vec![tree],
            luts: vec![vec![[0i8; K]; 2]],
        }
    }

    #[test]
    fn worker_panic_resolves_as_typed_transient_error() {
        // Regression: this used to `.expect` on the join handle, turning
        // any worker panic into a process abort.
        for workers in [1usize, 4] {
            let mut backend = FunctionalBackend::with_workers(panicking_program(), workers);
            let batch = TokenBatch::random(1, 8, 3);
            let err = backend.run_batch(&batch).unwrap_err();
            match &err {
                BackendError::Transient { reason } => {
                    assert!(
                        reason.contains("functional worker panicked"),
                        "{workers} workers: {reason}"
                    );
                }
                other => panic!("{workers} workers: expected Transient, got {other:?}"),
            }
            assert!(err.is_transient());
        }
    }

    #[test]
    fn backend_survives_a_panicking_batch() {
        // The same instance must keep serving well-formed programs after
        // a panic was caught (no poisoned state).
        let good = MacroProgram::random(2, 1, 6);
        let batch = TokenBatch::random(1, 10, 4);
        let golden: Vec<Vec<i16>> = batch
            .tokens()
            .iter()
            .map(|t| good.reference_output(t))
            .collect();
        let mut backend = FunctionalBackend::with_workers(good, 2);
        assert_eq!(backend.run_batch(&batch).unwrap().outputs(), golden);
        let mut bad = FunctionalBackend::with_workers(panicking_program(), 2);
        assert!(bad.run_batch(&batch).is_err());
        assert_eq!(backend.run_batch(&batch).unwrap().outputs(), golden);
    }

    #[test]
    fn shard_partition_is_balanced() {
        // The old `div_ceil` chunking gave 5/4 → [2, 2, 1] with a fourth
        // worker idle; the balanced partition uses all requested workers.
        assert_eq!(shard_sizes(5, 4), vec![2, 1, 1, 1]);
        assert_eq!(shard_sizes(7, 3), vec![3, 2, 2]);
        // Large batches shard whole 64-token lane blocks (5 blocks over 4
        // workers → 2/1/1/1 blocks), the final shard taking the ragged
        // tail.
        assert_eq!(shard_sizes(320, 4), vec![128, 64, 64, 64]);
        assert_eq!(shard_sizes(259, 4), vec![128, 64, 64, 3]);
        // Fewer blocks than workers falls back to token balancing.
        assert_eq!(shard_sizes(64, 4), vec![16, 16, 16, 16]);
        // Never more shards than tokens; zero tokens means zero shards.
        assert_eq!(shard_sizes(1, 4), vec![1]);
        assert_eq!(shard_sizes(0, 4), Vec::<usize>::new());
        for n in 0..200usize {
            for w in 1..6usize {
                let sizes = shard_sizes(n, w);
                assert_eq!(sizes.iter().sum::<usize>(), n, "n={n} w={w}");
                assert!(sizes.iter().all(|&s| s > 0), "n={n} w={w}: {sizes:?}");
                assert_eq!(sizes.len(), w.min(n), "n={n} w={w}");
            }
        }
    }
}
