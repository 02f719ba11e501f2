//! The complete accelerator macro at the event-driven netlist level, plus
//! a testbench that drives tokens through it.
//!
//! `NS` compute blocks are chained: block `s` receives its own subvector
//! (input channel `s` of the CNN mapping, Fig. 3) and the carry-save
//! partial sums of block `s−1`; four-phase request/acknowledge wires run
//! alongside. After the last block, one 16-bit ripple-carry adder per
//! decoder chain collapses the carry-save pair and an output register
//! captures the result (Fig. 2).
//!
//! The testbench measures, per token: functional outputs (checked against
//! the algorithmic reference elsewhere), latency, and per-domain energy.

use crate::adder::{build_rca, tie_low};
use crate::block::{build_block, BlockPorts};
use crate::config::{MacroConfig, ACC_BITS, K, LEVELS, SUBVECTOR_LEN};
use crate::dlc::to_offset_binary;
use core::fmt;
use maddpipe_amm::bdt::QuantizedBdt;
use maddpipe_amm::maddness::MaddnessMatmul;
use maddpipe_sim::cells::DelayLine;
use maddpipe_sim::circuit::{CircuitBuilder, NetId};
use maddpipe_sim::engine::{EdgeWaitOutcome, OscillationError, Simulator};
use maddpipe_sim::library::CellLibrary;
use maddpipe_sim::logic::{u64_to_bits, Logic};
use maddpipe_sim::time::SimTime;
use maddpipe_sram::model::SramModel;
use maddpipe_tech::process::DriveKind;
use maddpipe_tech::units::Joules;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything that must be programmed into a macro before inference: one
/// hash tree per pipeline stage and one 16-entry LUT per (stage, decoder).
#[derive(Debug, Clone)]
pub struct MacroProgram {
    /// One quantised BDT per compute block (pipeline stage / subspace).
    pub trees: Vec<QuantizedBdt>,
    /// `luts[s][j]` = the 16 signed bytes of stage `s`, decoder `j`.
    pub luts: Vec<Vec<[i8; K]>>,
}

impl MacroProgram {
    /// Number of pipeline stages.
    pub fn ns(&self) -> usize {
        self.trees.len()
    }

    /// Decoders per block.
    pub fn ndec(&self) -> usize {
        self.luts.first().map_or(0, Vec::len)
    }

    /// Extracts the program of a trained [`MaddnessMatmul`] operator: one
    /// stage per subspace, one decoder per output feature.
    ///
    /// # Panics
    ///
    /// Panics if the operator was not trained with the hardware shape
    /// (4 levels, subvectors of at most 9 dimensions).
    pub fn from_maddness(op: &MaddnessMatmul) -> MacroProgram {
        assert_eq!(
            op.params().levels,
            LEVELS,
            "hardware encoder is {LEVELS}-level"
        );
        assert!(
            op.params().subspace_len <= SUBVECTOR_LEN,
            "hardware input buffer holds {SUBVECTOR_LEN} elements"
        );
        let trees = op.quantized_encoders().to_vec();
        let lut = op.lut_i8();
        let luts = (0..lut.num_subspaces())
            .map(|s| {
                (0..lut.out_features())
                    .map(|j| {
                        let mut entries = [0i8; K];
                        for (k, e) in entries.iter_mut().enumerate() {
                            *e = lut.entry(s, k, j);
                        }
                        entries
                    })
                    .collect()
            })
            .collect();
        MacroProgram { trees, luts }
    }

    /// Generates a random but well-formed program (for property tests):
    /// random split dimensions, sorted-ish random thresholds, random LUT
    /// bytes.
    pub fn random(ndec: usize, ns: usize, seed: u64) -> MacroProgram {
        let mut rng = StdRng::seed_from_u64(seed);
        let trees = (0..ns)
            .map(|_| {
                let dims: Vec<usize> = (0..LEVELS)
                    .map(|_| rng.gen_range(0..SUBVECTOR_LEN))
                    .collect();
                let thresholds: Vec<f32> = (0..(1 << LEVELS) - 1)
                    .map(|_| rng.gen_range(-100.0..100.0))
                    .collect();
                maddpipe_amm::bdt::BdtEncoder::from_parts(dims, thresholds)
                    .expect("shape is valid by construction")
                    .quantize(maddpipe_amm::quant::QuantScale::UNIT)
            })
            .collect();
        let luts = (0..ns)
            .map(|_| {
                (0..ndec)
                    .map(|_| {
                        let mut entries = [0i8; K];
                        for e in entries.iter_mut() {
                            *e = rng.gen_range(-128i32..=127) as i8;
                        }
                        entries
                    })
                    .collect()
            })
            .collect();
        MacroProgram { trees, luts }
    }

    /// The algorithmic reference output for one token: per decoder chain,
    /// the wrapping 16-bit sum of the selected LUT bytes — exactly what
    /// the CSA chain + RCA compute.
    ///
    /// # Panics
    ///
    /// Panics if the token does not provide one subvector per stage.
    pub fn reference_output(&self, token: &[[i8; SUBVECTOR_LEN]]) -> Vec<i16> {
        assert_eq!(token.len(), self.ns(), "one subvector per stage");
        let ndec = self.ndec();
        let mut out = vec![0i16; ndec];
        for (s, x) in token.iter().enumerate() {
            let code = self.trees[s].encode_one(x);
            for (j, o) in out.iter_mut().enumerate() {
                *o = o.wrapping_add(self.luts[s][j][code] as i16);
            }
        }
        out
    }

    /// Compiles this program for the batched kernel (see
    /// [`crate::batched::BatchedProgram`]). Build it once and reuse it:
    /// compiling fixes every tree at 4 levels and widens the LUTs into the
    /// 16-lane `i16` rows the kernel adds from.
    pub fn batched(&self) -> crate::batched::BatchedProgram {
        crate::batched::BatchedProgram::new(self)
    }

    /// Batched counterpart of [`MacroProgram::reference_output`]: one
    /// output vector per token, bit-identical to mapping the scalar
    /// reference over `tokens`, evaluated through the batched kernel.
    ///
    /// Callers with a long-lived program should prefer building
    /// [`MacroProgram::batched`] once and calling
    /// [`crate::batched::BatchedProgram::evaluate`]; this convenience
    /// rebuilds the view per call.
    ///
    /// # Panics
    ///
    /// Panics if a token does not provide one subvector per stage.
    pub fn reference_output_batch<I>(&self, tokens: I) -> Vec<Vec<i16>>
    where
        I: IntoIterator,
        I::Item: AsRef<[[i8; SUBVECTOR_LEN]]>,
    {
        self.batched().evaluate(tokens)
    }
}

/// Per-token measurement from the RTL testbench.
#[derive(Debug, Clone, PartialEq)]
pub struct TokenResult {
    /// One 16-bit result per decoder chain.
    pub outputs: Vec<i16>,
    /// Time from request to output-register capture.
    pub latency: SimTime,
    /// Switching energy spent during this token (all domains).
    pub energy: Joules,
}

/// Typed error for driving tokens through [`AcceleratorRtl`] — malformed
/// stimulus and netlist-settling failures, previously a mix of `assert!`
/// panics and raw [`OscillationError`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenError {
    /// A token does not provide one subvector per pipeline stage.
    ShapeMismatch {
        /// Index of the offending token within the offered stream.
        token: usize,
        /// Pipeline stages the macro was built with.
        expected: usize,
        /// Subvectors the token actually carries.
        got: usize,
    },
    /// An empty token stream was offered to the pipeline.
    EmptyStream,
    /// The netlist failed to settle, which indicates a handshake bug or a
    /// combinational loop.
    Oscillation(OscillationError),
}

impl fmt::Display for TokenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenError::ShapeMismatch {
                token,
                expected,
                got,
            } => write!(
                f,
                "token {token} carries {got} subvectors but the macro has {expected} stages"
            ),
            TokenError::EmptyStream => write!(f, "empty token stream"),
            TokenError::Oscillation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TokenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TokenError::Oscillation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OscillationError> for TokenError {
    fn from(e: OscillationError) -> TokenError {
        TokenError::Oscillation(e)
    }
}

/// Per-token observations from one pipelined streaming run
/// ([`AcceleratorRtl::run_pipelined_observed`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelinedRun {
    /// One output vector per input token, sampled at that token's
    /// output-register strobe — not just the final token's.
    pub outputs: Vec<Vec<i16>>,
    /// Per-token latency: offer (request raised) to output-register
    /// capture, including any time spent queued behind earlier tokens.
    pub latencies: Vec<SimTime>,
    /// When each token's outputs were captured, relative to the start of
    /// the stream (consecutive differences are the achieved pipeline beat).
    pub completions: Vec<SimTime>,
    /// Total makespan of the stream, first offer to final drain.
    pub makespan: SimTime,
    /// Switching energy spent by the whole stream (all domains).
    pub energy: Joules,
}

/// The macro netlist plus testbench state.
#[derive(Debug)]
pub struct AcceleratorRtl {
    sim: Simulator,
    program: MacroProgram,
    req0: NetId,
    ack0: NetId,
    x_inputs: Vec<Vec<Vec<NetId>>>,
    out_bus: Vec<Vec<NetId>>,
    out_strobe: NetId,
    blocks: Vec<BlockPorts>,
}

impl AcceleratorRtl {
    /// Builds the netlist for `cfg` and programs it with `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program shape disagrees with the configuration.
    pub fn build(cfg: &MacroConfig, program: &MacroProgram) -> AcceleratorRtl {
        assert_eq!(program.ns(), cfg.ns, "program stages vs config NS");
        assert_eq!(program.ndec(), cfg.ndec, "program decoders vs config Ndec");
        let cal = &cfg.calibration;
        let lib =
            CellLibrary::with_mismatch(maddpipe_tech::Technology::n22(), cfg.op, &cfg.mismatch);
        let mut b = CircuitBuilder::new(lib);
        let tie = tie_low(&mut b, "tie0");

        // Handshake wiring, pre-created so blocks can cross-reference.
        let req0 = b.input("req[0]");
        let mut req_nets = vec![req0];
        for s in 1..=cfg.ns {
            let n = b.net(format!("req[{s}]"));
            req_nets.push(n);
        }
        let ack_nets: Vec<NetId> = (0..cfg.ns).map(|s| b.net(format!("ack[{s}]"))).collect();
        let ack_sink = b.net("ack_sink");

        // Per-block raw inputs.
        let x_inputs: Vec<Vec<Vec<NetId>>> = (0..cfg.ns)
            .map(|s| {
                (0..SUBVECTOR_LEN)
                    .map(|e| b.bus(&format!("x{s}_{e}"), 8))
                    .collect()
            })
            .collect();

        // First stage accumulates from zero.
        let zeros: Vec<NetId> = (0..ACC_BITS).map(|_| tie).collect();
        let mut s_prev: Vec<Vec<NetId>> = vec![zeros.clone(); cfg.ndec];
        let mut c_prev: Vec<Vec<NetId>> = vec![zeros; cfg.ndec];

        let mut blocks = Vec::with_capacity(cfg.ns);
        for s in 0..cfg.ns {
            let luts: Vec<SramModel> = program.luts[s]
                .iter()
                .map(|entries| {
                    let mut words = [0u8; K];
                    for (w, &e) in words.iter_mut().zip(entries) {
                        *w = e as u8;
                    }
                    SramModel::from_words(words)
                })
                .collect();
            let ack_down = if s + 1 < cfg.ns {
                ack_nets[s + 1]
            } else {
                ack_sink
            };
            let ports = build_block(
                &mut b,
                &format!("blk{s}"),
                &program.trees[s],
                &luts,
                &x_inputs[s],
                &s_prev,
                &c_prev,
                req_nets[s],
                ack_down,
                ack_nets[s],
                req_nets[s + 1],
                cal,
                tie,
            );
            s_prev = ports.decoders.iter().map(|d| d.s_out.clone()).collect();
            c_prev = ports.decoders.iter().map(|d| d.c_out.clone()).collect();
            blocks.push(ports);
        }

        // Tail: auto-acknowledge the last request (the environment always
        // accepts), final RCAs, output registers.
        let t_sink = b
            .library_mut()
            .delay(cal.ctrl_overhead * 0.25, DriveKind::Complementary);
        b.add_cell(
            "ack_sink_dl",
            Box::new(DelayLine::new(t_sink)),
            &[req_nets[cfg.ns]],
            &[ack_sink],
        );
        let prev_domain = b.set_domain("ctrl");
        let t_out = b
            .library_mut()
            .delay(cal.rca_settle, DriveKind::Complementary);
        let t_out_w = b
            .library_mut()
            .delay(cal.ge_pulse_width, DriveKind::Complementary);
        let out_strobe = b.pulse_gen("out_strobe", req_nets[cfg.ns], t_out, t_out_w);
        let last = blocks.last().expect("ns >= 1");
        let out_bus: Vec<Vec<NetId>> = (0..cfg.ndec)
            .map(|j| {
                let sum = build_rca(
                    &mut b,
                    &format!("rca{j}"),
                    &last.decoders[j].s_out,
                    &last.decoders[j].c_out,
                    tie,
                );
                sum.iter()
                    .enumerate()
                    .map(|(i, &bit)| b.latch(&format!("oreg{j}_{i}"), bit, out_strobe))
                    .collect()
            })
            .collect();
        b.restore_domain(prev_domain);

        let mut sim = Simulator::new(b.build());
        sim.poke(req0, Logic::Low);
        // Settle power-up state.
        sim.run_to_quiescence().expect("power-up must settle");
        AcceleratorRtl {
            sim,
            program: program.clone(),
            req0,
            ack0: ack_nets[0],
            x_inputs,
            out_bus,
            out_strobe,
            blocks,
        }
    }

    /// The underlying simulator (for tracing, violations, statistics).
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// Mutable simulator access (e.g. to enable tracing before a run).
    pub fn simulator_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// The loaded program.
    pub fn program(&self) -> &MacroProgram {
        &self.program
    }

    /// Block-level ports (for probing handshake wires in tests).
    pub fn blocks(&self) -> &[BlockPorts] {
        &self.blocks
    }

    /// The output-register strobe net (for waveform tracing).
    pub fn output_strobe(&self) -> NetId {
        self.out_strobe
    }

    /// Validates a token's shape against the macro, reporting the typed
    /// [`TokenError::ShapeMismatch`] instead of panicking.
    fn check_token_shape(
        &self,
        index: usize,
        token: &[[i8; SUBVECTOR_LEN]],
    ) -> Result<(), TokenError> {
        if token.len() != self.x_inputs.len() {
            return Err(TokenError::ShapeMismatch {
                token: index,
                expected: self.x_inputs.len(),
                got: token.len(),
            });
        }
        Ok(())
    }

    fn poke_token_inputs(
        &mut self,
        index: usize,
        token: &[[i8; SUBVECTOR_LEN]],
    ) -> Result<(), TokenError> {
        self.check_token_shape(index, token)?;
        for (s, x) in token.iter().enumerate() {
            for (e, &v) in x.iter().enumerate() {
                let code = to_offset_binary(v);
                let bits = u64_to_bits(code as u64, 8);
                for (net, bit) in self.x_inputs[s][e].iter().zip(bits) {
                    self.sim.poke(*net, bit);
                }
            }
        }
        Ok(())
    }

    fn read_outputs(&self) -> Vec<i16> {
        self.out_bus
            .iter()
            .map(|bus| {
                self.sim
                    .bus_value(bus)
                    .expect("output register must hold known bits") as u16 as i16
            })
            .collect()
    }

    /// Pushes one token through the idle pipeline and waits for it to
    /// drain completely (sequential mode: no token overlap, exact
    /// per-token latency and energy).
    ///
    /// # Errors
    ///
    /// Returns [`TokenError::ShapeMismatch`] when the token does not carry
    /// one subvector per stage, and [`TokenError::Oscillation`] if the
    /// netlist fails to settle, which indicates a handshake bug.
    pub fn run_token(&mut self, token: &[[i8; SUBVECTOR_LEN]]) -> Result<TokenResult, TokenError> {
        self.poke_token_inputs(0, token)?;
        self.sim.run_to_quiescence()?;
        let e0 = self.sim.total_energy();
        let t0 = self.sim.now();
        self.sim.poke(self.req0, Logic::High);
        // Four-phase: wait for the accept, then withdraw the request.
        self.sim
            .run_until_net(self.ack0, Logic::High)?
            .expect("block 0 must acknowledge");
        self.sim.poke(self.req0, Logic::Low);
        // Let the token flow to the end and the whole pipeline return to
        // idle (output strobe included).
        self.sim.run_to_quiescence()?;
        let latency = self.sim.now().since(t0);
        let energy = self.sim.total_energy() - e0;
        Ok(TokenResult {
            outputs: self.read_outputs(),
            latency,
            energy,
        })
    }

    /// Streams several tokens with pipelining: token `t+1` is offered as
    /// soon as block 0 reopens its input buffer, while token `t` is still
    /// in flight downstream. Returns the *final* token's outputs (earlier
    /// results are overwritten in the shared output register — use
    /// [`AcceleratorRtl::run_token`] for per-token verification) and the
    /// total makespan.
    ///
    /// Data hazards are impossible by construction: block `s` freezes its
    /// input buffer (`IBE` low) the moment it accepts token `t`, so the
    /// testbench may change the raw inputs for token `t+1` as soon as
    /// block 0 re-opens; downstream blocks still see their frozen copy.
    ///
    /// # Errors
    ///
    /// Returns [`TokenError::EmptyStream`] for an empty stream,
    /// [`TokenError::ShapeMismatch`] for a malformed token, and
    /// [`TokenError::Oscillation`] if the netlist fails to settle.
    pub fn run_pipelined<T: AsRef<[[i8; SUBVECTOR_LEN]]>>(
        &mut self,
        tokens: &[T],
    ) -> Result<(Vec<i16>, SimTime), TokenError> {
        let (_, makespan) = self.stream_tokens(tokens)?;
        Ok((self.read_outputs(), makespan))
    }

    /// The shared pipelined driving loop: offers every token with overlap.
    /// Returns the absolute offer times and the stream makespan.
    fn stream_tokens<T: AsRef<[[i8; SUBVECTOR_LEN]]>>(
        &mut self,
        tokens: &[T],
    ) -> Result<(Vec<SimTime>, SimTime), TokenError> {
        if tokens.is_empty() {
            return Err(TokenError::EmptyStream);
        }
        // Reject malformed streams before any stimulus is applied, so a
        // shape error cannot leave a token half-way in the pipeline.
        for (idx, token) in tokens.iter().enumerate() {
            self.check_token_shape(idx, token.as_ref())?;
        }
        let t_start = self.sim.now();
        let mut offers = Vec::with_capacity(tokens.len());
        let ibe0 = self.blocks[0].ibe;
        let last_ibe = self.blocks.last().expect("ns >= 1").ibe;
        for (idx, token) in tokens.iter().enumerate() {
            self.poke_token_inputs(idx, token.as_ref())?;
            offers.push(self.sim.now());
            self.sim.poke(self.req0, Logic::High);
            self.wait_edges(&[(self.ack0, Logic::High)])?;
            self.sim.poke(self.req0, Logic::Low);
            if idx + 1 == tokens.len() {
                self.sim.run_to_quiescence()?;
            } else {
                // Before presenting token t+1 on the shared raw inputs,
                // every stage must have frozen its copy of token t — the
                // last stage freezes last (its IBE falling edge) — and
                // block 0 must be ready for new data (its IBE rising
                // edge). The edges can land in either order relative to
                // the acknowledge return, so all are watched together;
                // level polling would race with the previous token's
                // states.
                let mut conds = vec![(self.ack0, Logic::Low), (ibe0, Logic::High)];
                if self.blocks.len() > 1 {
                    conds.push((last_ibe, Logic::Low));
                }
                self.wait_edges(&conds)?;
            }
        }
        Ok((offers, self.sim.now().since(t_start)))
    }

    /// Streams tokens with pipelining like [`AcceleratorRtl::run_pipelined`],
    /// but captures **every** token's outputs — not just the final one — by
    /// watching the output-register strobe: the shared register is sampled
    /// at each strobe falling edge (the latch capture instant), one strobe
    /// pulse per token.
    ///
    /// The capture rides on the waveform recorder, so this method clears
    /// any previously recorded trace entries (traced-net selections are
    /// kept). Enable tracing *after* an observed run when exporting VCDs.
    ///
    /// # Errors
    ///
    /// Returns [`TokenError::EmptyStream`] for an empty stream,
    /// [`TokenError::ShapeMismatch`] for a malformed token, and
    /// [`TokenError::Oscillation`] if the netlist fails to settle.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not produce exactly one strobe pulse per
    /// token or the register holds unknown bits at a capture — protocol
    /// bugs, like the quiescent-handshake panic of the wait helpers.
    pub fn run_pipelined_observed<T: AsRef<[[i8; SUBVECTOR_LEN]]>>(
        &mut self,
        tokens: &[T],
    ) -> Result<PipelinedRun, TokenError> {
        // Arm the observers: the strobe plus every output-register bit.
        // Remember which nets this call armed so they can be disarmed
        // afterwards — a long-lived instance must not keep paying the
        // recording cost on runs that no longer need it.
        self.sim.clear_trace();
        let mut armed = Vec::new();
        let mut arm = |sim: &mut Simulator, net: NetId| {
            if !sim.is_traced(net) {
                sim.trace_net(net);
                armed.push(net);
            }
        };
        arm(&mut self.sim, self.out_strobe);
        for bus in &self.out_bus {
            for &net in bus {
                arm(&mut self.sim, net);
            }
        }
        // Snapshot the register state *before* the stream so the trace
        // replay below starts from the correct values (the recorder only
        // logs changes).
        let mut bit_values: Vec<Vec<Logic>> = self
            .out_bus
            .iter()
            .map(|bus| bus.iter().map(|&n| self.sim.value(n)).collect())
            .collect();
        let e0 = self.sim.total_energy();
        let t_start = self.sim.now();
        let streamed = self.stream_tokens(tokens);
        // Disarm before error propagation so a rejected stream leaves the
        // recorder exactly as it was found.
        for net in armed {
            self.sim.untrace_net(net);
        }
        let (offers, makespan) = streamed?;
        let energy = self.sim.total_energy() - e0;

        // Replay the recording: maintain the register image and sample it
        // at each strobe falling edge. Latch outputs settle strictly
        // between the strobe's rising and falling edges (the pulse width
        // covers the latch D→Q delay), so in-order replay is exact.
        let net_slot: std::collections::HashMap<NetId, (usize, usize)> = self
            .out_bus
            .iter()
            .enumerate()
            .flat_map(|(j, bus)| bus.iter().enumerate().map(move |(i, &n)| (n, (j, i))))
            .collect();
        let mut outputs = Vec::with_capacity(tokens.len());
        let mut completions = Vec::with_capacity(tokens.len());
        let mut strobe_level = Logic::Low;
        for entry in self.sim.trace_entries() {
            if entry.net == self.out_strobe {
                let was_high = strobe_level == Logic::High;
                strobe_level = entry.value;
                if was_high && entry.value == Logic::Low {
                    let sample: Vec<i16> = bit_values
                        .iter()
                        .map(|bits| {
                            let mut word = 0u16;
                            for (i, &bit) in bits.iter().enumerate() {
                                match bit {
                                    Logic::High => word |= 1 << i,
                                    Logic::Low => {}
                                    Logic::X => {
                                        panic!("output register holds X at strobe capture")
                                    }
                                }
                            }
                            word as i16
                        })
                        .collect();
                    outputs.push(sample);
                    completions.push(entry.time.since(t_start));
                }
            } else if let Some(&(j, i)) = net_slot.get(&entry.net) {
                bit_values[j][i] = entry.value;
            }
        }
        assert_eq!(
            outputs.len(),
            tokens.len(),
            "expected one output strobe per token"
        );
        let latencies = completions
            .iter()
            .zip(&offers)
            .map(|(&c, &o)| (t_start + c).since(o))
            .collect();
        // The capture is complete; drop the recording so the next run (or
        // a user-enabled waveform) starts clean.
        self.sim.clear_trace();
        Ok(PipelinedRun {
            outputs,
            latencies,
            completions,
            makespan,
            energy,
        })
    }

    /// Runs the simulation until every `(net, value)` pair has been
    /// observed *transitioning to* its value (edges seen in any order).
    ///
    /// Delegates to the kernel's [`Simulator::run_until_edges`], which
    /// checks watched nets only when they actually transition — the
    /// testbench no longer re-reads every watched net after every step.
    /// The runaway budget is the simulator's configured event cap (see
    /// [`Simulator::set_event_cap`]), not a constant of its own.
    ///
    /// # Panics
    ///
    /// Panics if the circuit goes quiescent first — that means the
    /// expected handshake edge can never arrive, i.e. a protocol bug.
    ///
    /// # Errors
    ///
    /// Returns [`OscillationError`] when the event budget is exhausted;
    /// its `events` field reports the events actually consumed.
    fn wait_edges(&mut self, conds: &[(NetId, Logic)]) -> Result<(), OscillationError> {
        match self.sim.run_until_edges(conds)? {
            EdgeWaitOutcome::Seen(_) => Ok(()),
            EdgeWaitOutcome::Quiescent(_) => {
                panic!("circuit went quiescent while waiting for handshake edges {conds:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maddpipe_tech::corner::{Corner, OperatingPoint};
    use maddpipe_tech::units::Volts;

    fn random_token(ns: usize, seed: u64) -> Vec<[i8; SUBVECTOR_LEN]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..ns)
            .map(|_| {
                let mut x = [0i8; SUBVECTOR_LEN];
                for v in x.iter_mut() {
                    *v = rng.gen_range(-128i32..=127) as i8;
                }
                x
            })
            .collect()
    }

    fn small_cfg() -> MacroConfig {
        MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg))
    }

    #[test]
    fn single_token_matches_reference() {
        let cfg = small_cfg();
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 42);
        let mut rtl = AcceleratorRtl::build(&cfg, &program);
        for seed in 0..5 {
            let token = random_token(cfg.ns, seed);
            let result = rtl.run_token(&token).unwrap();
            let expected = program.reference_output(&token);
            assert_eq!(result.outputs, expected, "seed {seed}");
            assert!(result.latency > SimTime::ZERO);
            assert!(result.energy.value() > 0.0);
        }
    }

    #[test]
    fn three_stage_accumulation_is_exact() {
        let cfg = MacroConfig::new(1, 3).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 7);
        let mut rtl = AcceleratorRtl::build(&cfg, &program);
        for seed in 10..14 {
            let token = random_token(cfg.ns, seed);
            let result = rtl.run_token(&token).unwrap();
            assert_eq!(result.outputs, program.reference_output(&token));
        }
    }

    #[test]
    fn latency_depends_on_input_data() {
        let cfg = MacroConfig::new(1, 1).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
        // All thresholds at 0 → an input equal to 0 everywhere walks every
        // comparator to the last bit (worst case); a large input decides
        // at the MSB (best case).
        let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(vec![0, 1, 2, 3], vec![0.0; 15])
            .unwrap()
            .quantize(maddpipe_amm::quant::QuantScale::UNIT);
        let program = MacroProgram {
            trees: vec![tree],
            luts: vec![vec![[1i8; K]]],
        };
        let mut rtl = AcceleratorRtl::build(&cfg, &program);
        let fast = rtl.run_token(&[[100i8; SUBVECTOR_LEN]]).unwrap();
        let slow = rtl.run_token(&[[0i8; SUBVECTOR_LEN]]).unwrap();
        assert!(
            slow.latency > fast.latency,
            "boundary input {} must be slower than decisive input {}",
            slow.latency,
            fast.latency
        );
    }

    #[test]
    fn no_timing_violations_across_corners() {
        for (vdd, corner) in [(0.5, Corner::Ssg), (0.8, Corner::Ttg), (1.0, Corner::Ffg)] {
            let cfg = MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(vdd), corner));
            let program = MacroProgram::random(cfg.ndec, cfg.ns, 3);
            let mut rtl = AcceleratorRtl::build(&cfg, &program);
            let token = random_token(cfg.ns, 1);
            let result = rtl.run_token(&token).unwrap();
            assert_eq!(result.outputs, program.reference_output(&token));
            assert!(
                rtl.simulator().violations().is_empty(),
                "{vdd} V {corner}: {:?}",
                rtl.simulator().violations()
            );
        }
    }

    #[test]
    fn pipelining_overlaps_stages() {
        let cfg = MacroConfig::new(1, 4).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 11);
        // Sequential: three tokens, each fully drained.
        let mut seq = AcceleratorRtl::build(&cfg, &program);
        let tokens: Vec<Vec<[i8; SUBVECTOR_LEN]>> =
            (0..3).map(|s| random_token(cfg.ns, 20 + s)).collect();
        let mut t_seq = SimTime::ZERO;
        for t in &tokens {
            t_seq += seq.run_token(t).unwrap().latency;
        }
        // Pipelined: same tokens with overlap.
        let mut pip = AcceleratorRtl::build(&cfg, &program);
        let (final_out, makespan) = pip.run_pipelined(&tokens).unwrap();
        assert!(
            makespan < t_seq,
            "pipelined makespan {makespan} must beat sequential {t_seq}"
        );
        // The last token's outputs are read after the full drain.
        assert_eq!(final_out, program.reference_output(&tokens[2]));
    }

    #[test]
    fn pipelined_observed_reports_every_token() {
        let cfg = MacroConfig::new(2, 3).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 23);
        let mut rtl = AcceleratorRtl::build(&cfg, &program);
        let tokens: Vec<Vec<[i8; SUBVECTOR_LEN]>> =
            (0..5).map(|s| random_token(cfg.ns, 40 + s)).collect();
        let run = rtl.run_pipelined_observed(&tokens).unwrap();
        assert_eq!(run.outputs.len(), tokens.len());
        for (t, token) in tokens.iter().enumerate() {
            assert_eq!(run.outputs[t], program.reference_output(token), "token {t}");
        }
        // Completions are strictly ordered and latencies are positive.
        for w in run.completions.windows(2) {
            assert!(w[0] < w[1], "completions must be strictly increasing");
        }
        assert_eq!(run.latencies.len(), tokens.len());
        for (t, &l) in run.latencies.iter().enumerate() {
            assert!(l > SimTime::ZERO, "token {t} latency");
        }
        assert!(run.makespan >= *run.completions.last().unwrap());
        assert!(run.energy.value() > 0.0);
        // A second observed stream on the same instance starts clean.
        let again = rtl.run_pipelined_observed(&tokens[..2]).unwrap();
        assert_eq!(again.outputs[0], program.reference_output(&tokens[0]));
        assert_eq!(again.outputs[1], program.reference_output(&tokens[1]));
        // The observers are disarmed afterwards — later runs must not keep
        // paying the recording cost.
        let strobe = rtl.output_strobe();
        assert!(!rtl.simulator().is_traced(strobe));
        assert!(rtl.simulator().trace_entries().is_empty());
        // A net the caller traced *before* an observed run stays traced.
        rtl.simulator_mut().trace_net(strobe);
        let _ = rtl.run_pipelined_observed(&tokens[..2]).unwrap();
        assert!(rtl.simulator().is_traced(strobe));
    }

    #[test]
    fn shape_mismatch_is_a_typed_error_not_a_panic() {
        let cfg = small_cfg();
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 1);
        let mut rtl = AcceleratorRtl::build(&cfg, &program);
        let short = random_token(cfg.ns - 1, 3);
        assert_eq!(
            rtl.run_token(&short),
            Err(TokenError::ShapeMismatch {
                token: 0,
                expected: cfg.ns,
                got: cfg.ns - 1,
            })
        );
        // Streams report the offending token's index and reject the whole
        // stream before any stimulus is applied.
        let good = random_token(cfg.ns, 4);
        let err = rtl
            .run_pipelined(&[good.clone(), short.clone()])
            .unwrap_err();
        assert_eq!(
            err,
            TokenError::ShapeMismatch {
                token: 1,
                expected: cfg.ns,
                got: cfg.ns - 1,
            }
        );
        let empty: &[Vec<[i8; SUBVECTOR_LEN]>] = &[];
        assert_eq!(
            rtl.run_pipelined(empty).unwrap_err(),
            TokenError::EmptyStream
        );
        // The instance is still usable after a rejected stream.
        let ok = rtl.run_token(&good).unwrap();
        assert_eq!(ok.outputs, program.reference_output(&good));
    }

    #[test]
    fn energy_fractions_are_decoder_dominated() {
        let cfg = MacroConfig::new(4, 2).with_op(OperatingPoint::new(Volts(0.5), Corner::Ttg));
        let program = MacroProgram::random(cfg.ndec, cfg.ns, 9);
        let mut rtl = AcceleratorRtl::build(&cfg, &program);
        rtl.simulator_mut().reset_energy();
        for seed in 0..4 {
            let token = random_token(cfg.ns, 30 + seed);
            let _ = rtl.run_token(&token).unwrap();
        }
        let report = rtl.simulator().energy_report();
        let dec = report.fraction("decoder");
        let enc = report.fraction("encoder");
        assert!(
            dec > 0.5 && dec > enc,
            "decoder must dominate: decoder {dec:.2}, encoder {enc:.2}\n{report}"
        );
    }

    #[test]
    fn program_from_trained_operator_runs() {
        use maddpipe_amm::linalg::Mat;
        use maddpipe_amm::maddness::{MaddnessMatmul, MaddnessParams};
        // 2 subspaces × 9 dims = 18 input features, 2 outputs.
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<Vec<f32>> = (0..160)
            .map(|_| (0..18).map(|_| rng.gen_range(-4.0..4.0)).collect())
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let x = Mat::from_rows(&refs);
        let mut w = Mat::zeros(18, 2);
        for r in 0..18 {
            for c in 0..2 {
                w[(r, c)] = ((r + c) % 5) as f32 / 5.0 - 0.4;
            }
        }
        let op = MaddnessMatmul::train(&x, &w, MaddnessParams::default()).unwrap();
        let program = MacroProgram::from_maddness(&op);
        assert_eq!(program.ns(), 2);
        assert_eq!(program.ndec(), 2);
        let cfg = MacroConfig::new(2, 2).with_op(OperatingPoint::new(Volts(0.8), Corner::Ttg));
        let mut rtl = AcceleratorRtl::build(&cfg, &program);
        // Run one calibration row through the macro and compare with the
        // operator's own integer decode.
        let row = x.row(0);
        let scale = op.input_scale();
        let mut token = vec![[0i8; SUBVECTOR_LEN]; 2];
        for (s, chunk) in row.chunks(9).enumerate() {
            for (e, &v) in chunk.iter().enumerate() {
                token[s][e] = scale.quantize(v);
            }
        }
        let result = rtl.run_token(&token).unwrap();
        let enc = op.encode_quantized(&Mat::from_rows(&[row]));
        let expected = op.decode_i16_wrapping(&enc);
        assert_eq!(result.outputs, expected[0]);
    }
}
