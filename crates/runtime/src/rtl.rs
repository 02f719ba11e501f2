//! The event-driven-netlist fidelity backend.

use crate::backend::{validate_program, Fidelity, MacroBackend};
use crate::batch::{BatchResult, Observations, TokenBatch};
use crate::error::BackendError;
use maddpipe_core::config::MacroConfig;
use maddpipe_core::macro_rtl::{AcceleratorRtl, MacroProgram, TokenError};

/// Executes batches on the full event-driven netlist.
///
/// * [`Fidelity::Sequential`] drains each token completely before the
///   next: per-token observations carry exact latency *and* energy.
/// * [`Fidelity::Pipelined`] streams tokens with self-synchronous overlap
///   through [`AcceleratorRtl::run_pipelined`]: per-token outputs are
///   sampled at each output-register strobe, latency covers
///   offer-to-capture, and energy is reported as a batch aggregate.
///
/// Neither mode touches the waveform recorder: nets traced through
/// [`RtlBackend::rtl_mut`] keep recording across batches of either.
///
/// A batch that breaks the handshake protocol fails with
/// [`BackendError::Protocol`] and leaves the netlist mid-handshake, so
/// the backend then rebuilds it from its configuration and program
/// (keeping the event cap; traced nets and the accumulated statistics
/// and energy start afresh): the next batch runs on a netlist in its
/// power-up state, exactly as on a newly built backend.
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
        self.run_on_netlist(batch).map_err(|e| {
            if e.is_protocol() {
                self.rebuild();
            }
            e.into()
        })
    }

    fn rtl(&self) -> Option<&AcceleratorRtl> {
        Some(&self.rtl)
    }

    fn rtl_mut(&mut self) -> Option<&mut AcceleratorRtl> {
        Some(&mut self.rtl)
    }
}

impl RtlBackend {
    fn run_on_netlist(&mut self, batch: &TokenBatch) -> Result<BatchResult, TokenError> {
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
                let run = self.rtl.run_pipelined(&stream)?;
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

    /// Replaces a netlist left mid-handshake with a freshly built one.
    fn rebuild(&mut self) {
        let event_cap = self.rtl.simulator().event_cap();
        self.rtl = AcceleratorRtl::build(self.rtl.config(), self.rtl.program());
        self.rtl.simulator_mut().set_event_cap(event_cap);
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

    /// At σ = 0.20 local mismatch some seeded netlists break the
    /// handshake protocol: `Session::run` returns the typed failure, not
    /// a panic, and the next batch runs on a rebuilt netlist, replying
    /// exactly as a newly built session does.
    #[test]
    fn a_protocol_failure_is_typed_and_the_next_batch_gets_a_fresh_netlist() {
        use crate::backend::BackendKind;
        use crate::session::Session;
        use maddpipe_tech::variation::Mismatch;
        for (seed, op, failure) in [
            (188, OperatingPoint::new(Volts(0.6), Corner::Ssg), "X bit"),
            (
                3320,
                OperatingPoint::new(Volts(0.6), Corner::Fsg),
                "stalled",
            ),
        ] {
            let cfg = MacroConfig::new(3, 3)
                .with_op(op)
                .with_mismatch(Mismatch::new(0.20, seed));
            let session = || {
                Session::builder(cfg.clone())
                    .program(MacroProgram::random(3, 3, seed))
                    .backend(BackendKind::Rtl {
                        fidelity: Fidelity::Pipelined,
                    })
                    .build()
                    .expect("the program fits")
            };
            let mut served = session();
            let err = served
                .run(&TokenBatch::random(3, 4, seed))
                .expect_err("this netlist breaks the protocol on this batch");
            assert!(
                matches!(&err, BackendError::Protocol(e) if e.is_protocol()),
                "seed {seed}: {err}"
            );
            assert!(err.to_string().contains(failure), "seed {seed}: {err}");
            assert!(!err.is_transient(), "seed {seed}");
            let next = TokenBatch::random(3, 4, 10_000);
            assert_eq!(
                served.run(&next).expect("the rebuilt netlist serves"),
                session().run(&next).expect("a fresh netlist serves"),
                "seed {seed}"
            );
        }
    }

    /// A traced pipelined session keeps its waveform across batches: the
    /// output strobe's recorded falls count every token of both batches.
    #[test]
    fn a_traced_pipelined_session_keeps_its_waveform() {
        use crate::backend::BackendKind;
        use crate::session::Session;
        use maddpipe_sim::logic::Logic;
        let cfg = cfg();
        let mut session = Session::builder(cfg.clone())
            .program(MacroProgram::random(cfg.ndec, cfg.ns, 3))
            .backend(BackendKind::Rtl {
                fidelity: Fidelity::Pipelined,
            })
            .build()
            .expect("the program fits");
        let rtl = session.rtl_mut().expect("an RTL session");
        let strobe = rtl.output_strobe();
        rtl.simulator_mut().trace_net(strobe);
        for batches in 1..=2 {
            session
                .run(&TokenBatch::random(cfg.ns, 4, batches as u64))
                .expect("the batch completes");
            let sim = session.rtl().expect("an RTL session").simulator();
            let falls = sim
                .trace_entries()
                .iter()
                .filter(|e| e.net == strobe && e.value == Logic::Low)
                .count();
            assert_eq!(falls, 4 * batches, "after batch {batches}");
        }
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
