//! The event-driven-netlist fidelity backend.

use crate::backend::{validate_program, Fidelity, MacroBackend};
use crate::batch::{BatchResult, Observations, TokenBatch};
use crate::error::BackendError;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::{AcceleratorRtl, MacroProgram};

/// Executes batches on the full event-driven netlist.
///
/// * [`Fidelity::Sequential`] drains each token completely before the
///   next: per-token observations carry exact latency *and* energy.
/// * [`Fidelity::Pipelined`] streams tokens with self-synchronous overlap:
///   per-token outputs are captured at each output-register strobe
///   (via [`AcceleratorRtl::run_pipelined_observed`]), latency covers
///   offer-to-capture, and energy is reported as a batch aggregate.
#[derive(Debug)]
pub struct RtlBackend {
    rtl: AcceleratorRtl,
    fidelity: Fidelity,
}

impl RtlBackend {
    /// Builds the netlist for `cfg`, programs it, and wraps it.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ProgramMismatch`] /
    /// [`BackendError::MalformedProgram`] when the program cannot be
    /// loaded into this configuration.
    pub fn new(
        cfg: &MacroConfig,
        program: &MacroProgram,
        fidelity: Fidelity,
    ) -> Result<RtlBackend, BackendError> {
        validate_program(cfg, program)?;
        Ok(RtlBackend {
            rtl: AcceleratorRtl::build(cfg, program),
            fidelity,
        })
    }

    /// Wraps an already-built netlist (e.g. one with waveform tracing or
    /// a custom event cap already configured).
    pub fn from_rtl(rtl: AcceleratorRtl, fidelity: Fidelity) -> RtlBackend {
        RtlBackend { rtl, fidelity }
    }

    /// The driving mode.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// Mutable netlist access (tracing, event caps, probes).
    pub fn rtl_mut(&mut self) -> &mut AcceleratorRtl {
        &mut self.rtl
    }
}

impl MacroBackend for RtlBackend {
    fn name(&self) -> &'static str {
        match self.fidelity {
            Fidelity::Sequential => "rtl-sequential",
            Fidelity::Pipelined => "rtl-pipelined",
        }
    }

    fn run_batch(&mut self, batch: &TokenBatch) -> Result<BatchResult, BackendError> {
        batch.check_shape(self.rtl.program().ns())?;
        match self.fidelity {
            Fidelity::Sequential => {
                let t0 = self.rtl.simulator().now();
                let mut tokens =
                    Observations::with_capacity(self.rtl.program().ndec(), batch.len());
                let mut total_energy = maddpipe_tech::units::Joules(0.0);
                for token in batch.tokens() {
                    let r = self.rtl.run_token(token)?;
                    total_energy += r.energy;
                    tokens.push(&r.outputs, Some(r.latency.to_seconds()), Some(r.energy));
                }
                let makespan = self.rtl.simulator().now().since(t0);
                Ok(BatchResult {
                    backend: self.name(),
                    tokens,
                    makespan: Some(makespan.to_seconds()),
                    energy: Some(total_energy),
                })
            }
            Fidelity::Pipelined => {
                let stream: Vec<_> = batch.tokens().iter().collect();
                let run = self.rtl.run_pipelined_observed(&stream)?;
                let mut tokens =
                    Observations::with_capacity(self.rtl.program().ndec(), batch.len());
                for (outputs, latency) in run.outputs.iter().zip(&run.latencies) {
                    tokens.push(outputs, Some(latency.to_seconds()), None);
                }
                Ok(BatchResult {
                    backend: self.name(),
                    tokens,
                    makespan: Some(run.makespan.to_seconds()),
                    energy: Some(run.energy),
                })
            }
        }
    }

    fn rtl(&self) -> Option<&AcceleratorRtl> {
        Some(&self.rtl)
    }

    fn rtl_mut(&mut self) -> Option<&mut AcceleratorRtl> {
        Some(&mut self.rtl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_tech::corner::{Corner, OperatingPoint};
    use maddpipe_tech::units::Volts;

    fn cfg() -> MacroConfig {
        MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg))
    }

    #[test]
    fn sequential_and_pipelined_match_the_reference() {
        let cfg = cfg();
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 3);
        let batch = TokenBatch::random(cfg.ns, 4, 8);
        let mut seq = RtlBackend::new(&cfg, &program, Fidelity::Sequential).unwrap();
        let mut pip = RtlBackend::new(&cfg, &program, Fidelity::Pipelined).unwrap();
        let rs = seq.run_batch(&batch).unwrap();
        let rp = pip.run_batch(&batch).unwrap();
        for (t, token) in batch.tokens().iter().enumerate() {
            let expected = program.reference_output(token);
            assert_eq!(
                rs.tokens.get(t).unwrap().outputs,
                expected,
                "sequential token {t}"
            );
            assert_eq!(
                rp.tokens.get(t).unwrap().outputs,
                expected,
                "pipelined token {t}"
            );
        }
        // Sequential measures per-token energy; pipelined aggregates it.
        assert!(rs.tokens.iter().all(|t| t.energy.is_some()));
        assert!(rp.tokens.iter().all(|t| t.energy.is_none()));
        assert!(rp.energy.unwrap().value() > 0.0);
        // Overlap: the pipelined makespan beats the sequential one.
        assert!(rp.makespan.unwrap() < rs.makespan.unwrap());
        assert!(seq.rtl().is_some());
    }

    #[test]
    fn mismatched_program_is_rejected() {
        let cfg = cfg();
        let program = MacroProgram::random(1, 2, 3);
        assert!(matches!(
            RtlBackend::new(&cfg, &program, Fidelity::Sequential),
            Err(BackendError::ProgramMismatch { .. })
        ));
    }
}
