//! The closed-form planning backend.

use crate::backend::{validate_program, MacroBackend};
use crate::batch::{BatchResult, Observations, TokenBatch};
use crate::error::BackendError;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::dlc::{ripple_depth, to_offset_binary};
use maddpipe_core::macro_rtl::MacroProgram;
use maddpipe_core::model::MacroModel;
use maddpipe_tech::units::{Joules, Seconds};

/// Executes batches against the analytic PPA model ([`MacroModel`]):
/// outputs come from the exact LUT math, while latency and energy are
/// closed-form estimates — **data-dependent** for latency, because each
/// stage's encoder delay is derived from the actual comparator ripple
/// depths of that token's decision path (the Fig. 4 E effect), not the
/// best/worst envelope.
#[derive(Debug, Clone)]
pub struct AnalyticBackend {
    program: MacroProgram,
    model: MacroModel,
}

impl AnalyticBackend {
    /// Binds `program` to the model of `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ProgramMismatch`] /
    /// [`BackendError::MalformedProgram`] when the program does not fit
    /// the configuration.
    pub fn new(cfg: &MacroConfig, program: MacroProgram) -> Result<AnalyticBackend, BackendError> {
        validate_program(cfg, &program)?;
        Ok(AnalyticBackend {
            program,
            model: MacroModel::new(cfg.clone()),
        })
    }

    /// The bound model.
    pub fn model(&self) -> &MacroModel {
        &self.model
    }

    /// Modelled forward latency of one token: the sum over stages of the
    /// block latency with that stage's actual comparator ripple depths.
    fn token_latency(&self, token: &[[i8; maddpipe_core::config::SUBVECTOR_LEN]]) -> Seconds {
        let mut total = Seconds::ZERO;
        for (s, sub) in token.iter().enumerate() {
            let ripples: Vec<usize> = self.program.trees[s]
                .decision_path(sub)
                .iter()
                .map(|&(dim, t, _)| ripple_depth(to_offset_binary(sub[dim]), to_offset_binary(t)))
                .collect();
            total += self.model.block_latency(&ripples).total();
        }
        total
    }
}

impl MacroBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "analytic"
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        batch.check_shape(self.program.ns())?;
        let per_block = self.model.block_energy().total();
        let token_energy = per_block * self.program.ns() as f64;
        let mut makespan = Seconds::ZERO;
        let mut total_energy = Joules(0.0);
        let mut tokens = Observations::with_capacity(self.program.ndec(), batch.len());
        for token in batch.tokens() {
            let latency = self.token_latency(token);
            makespan += latency;
            total_energy += token_energy;
            tokens.push(
                &self.program.reference_output(token),
                Some(latency),
                Some(token_energy),
            );
        }
        Ok(BatchResult {
            backend: self.name(),
            tokens,
            // Sequential (non-overlapped) estimate: the sum of per-token
            // forward latencies.
            makespan: Some(makespan),
            energy: Some(total_energy),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_amm::bdt::BdtEncoder;
    use maddpipe_amm::quant::QuantScale;
    use maddpipe_core::config::K;
    use maddpipe_core::config::{LEVELS, SUBVECTOR_LEN};

    #[test]
    fn latency_is_data_dependent_and_bounded() {
        let cfg = MacroConfig::new(1, 1);
        // All thresholds at 0: a 0 input walks all 8 comparator bits per
        // level, a large input decides at the MSB.
        let tree = BdtEncoder::from_parts(vec![0, 1, 2, 3], vec![0.0; (1 << LEVELS) - 1])
            .unwrap()
            .quantize(QuantScale::UNIT);
        let program = MacroProgram {
            trees: vec![tree],
            luts: vec![vec![[1i8; K]]],
        };
        let mut backend = AnalyticBackend::new(&cfg, program).unwrap();
        let fast = TokenBatch::single(vec![[100i8; SUBVECTOR_LEN]]);
        let slow = TokenBatch::single(vec![[0i8; SUBVECTOR_LEN]]);
        let mut latency = |batch| {
            let result = backend.run_batch(batch).unwrap();
            result.tokens.get(0).unwrap().latency.unwrap()
        };
        let lf = latency(&fast);
        let ls = latency(&slow);
        assert!(ls > lf, "boundary input {ls} must model slower than {lf}");
        let model = backend.model().clone();
        assert!(lf >= model.block_latency_best().total());
        assert!(ls <= model.block_latency_worst().total());
        // The all-equal input is exactly the worst case.
        assert_eq!(ls, model.block_latency_worst().total());
    }

    #[test]
    fn outputs_match_the_reference_and_energy_accumulates() {
        let cfg = MacroConfig::new(3, 2);
        let program = MacroProgram::random(3, 2, 11);
        let mut backend = AnalyticBackend::new(&cfg, program.clone()).unwrap();
        let batch = TokenBatch::random(2, 5, 21);
        let r = backend.run_batch(&batch).unwrap();
        for (t, token) in batch.tokens().iter().enumerate() {
            assert_eq!(
                r.tokens.get(t).unwrap().outputs,
                program.reference_output(token)
            );
        }
        let per_token = r.tokens.get(0).unwrap().energy.unwrap();
        assert!((r.energy.unwrap().value() - per_token.value() * 5.0).abs() < 1e-24);
        assert!(r.makespan.unwrap().value() > 0.0);
    }
}
