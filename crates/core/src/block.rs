//! The compute block: input buffer, encoder, `Ndec` decoders, block-level
//! completion, and the four-phase self-synchronous controller (Fig. 2).
//!
//! The controller is the heart of the "self-synchronous pipeline": no
//! global clock exists anywhere in the macro. A block's life cycle is
//!
//! ```text
//! Idle ──req_in↑──▶ Eval ──rcd↑──▶ Hold ──req_in↓ ∧ ack_down↑──▶ Return ──rcd↓──▶ Idle
//!  (precharged)   (CALCE high)   (REQ/ACK out)   (precharge again)
//! ```
//!
//! The forward request to the next stage is issued only after this block's
//! own read-completion tree has reported and the latch-enable pulse has
//! closed — timing is derived from the data path itself, which is what
//! makes the pipeline PVT-invariant.

use crate::calib::Calibration;
use crate::config::SUBVECTOR_LEN;
use crate::decoder::{build_decoder, DecoderPorts};
use crate::encoder::{build_encoder, EncoderPorts};
use maddpipe_amm::bdt::QuantizedBdt;
use maddpipe_sim::cell::{Cell, EvalCtx};
use maddpipe_sim::circuit::{CircuitBuilder, NameArg, NetId};
use maddpipe_sim::leaf;
use maddpipe_sim::logic::Logic;
use maddpipe_sim::time::SimTime;
use maddpipe_sram::model::SramModel;
use maddpipe_sram::rcd::build_completion_tree;
use maddpipe_tech::process::DriveKind;

/// Controller state (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtrlState {
    Idle,
    Eval,
    Hold,
    Return,
}

/// The four-phase handshake controller as a behavioural cell.
///
/// * Inputs: 0 = `req_in`, 1 = `ack_down`, 2 = `rcd` (block completion).
/// * Outputs: 0 = `ack_up`, 1 = `req_out`, 2 = `pche`, 3 = `calce`,
///   4 = `ibe` (input-buffer enable; transparent while idle).
#[derive(Debug)]
pub struct HandshakeCtrl {
    state: CtrlState,
    upstream_done: bool,
    downstream_done: bool,
    /// Sequencing delay of one control transition.
    t_seq: SimTime,
    /// Completion-to-request delay: covers the GE pulse (delay + width) so
    /// the forward request is issued only after the CSA latches closed.
    t_req: SimTime,
    /// CALCE-low to PCHE-high gap: covers the DLC tree's cascade precharge
    /// so the wordlines are guaranteed low before the bitlines precharge.
    t_pchg_gap: SimTime,
}

impl HandshakeCtrl {
    /// Creates a controller with sampled timing.
    pub fn new(t_seq: SimTime, t_req: SimTime, t_pchg_gap: SimTime) -> HandshakeCtrl {
        HandshakeCtrl {
            state: CtrlState::Idle,
            upstream_done: false,
            downstream_done: false,
            t_seq,
            t_req,
            t_pchg_gap,
        }
    }

    fn start_token(&mut self, ctx: &mut EvalCtx<'_>) {
        // Freeze the input buffer, release precharge, then fire the
        // encoder.
        ctx.drive(4, Logic::Low, self.t_seq);
        ctx.drive(2, Logic::Low, self.t_seq);
        let t2 = self.t_seq + self.t_seq;
        ctx.drive(3, Logic::High, t2);
        self.state = CtrlState::Eval;
    }
}

impl Cell for HandshakeCtrl {
    fn num_inputs(&self) -> usize {
        3
    }

    fn num_outputs(&self) -> usize {
        5
    }

    fn eval(&mut self, ctx: &mut EvalCtx<'_>) {
        if ctx.trigger().is_none() {
            // Power-up: precharged and idle.
            ctx.drive(0, Logic::Low, SimTime::ZERO);
            ctx.drive(1, Logic::Low, SimTime::ZERO);
            ctx.drive(2, Logic::High, SimTime::ZERO);
            ctx.drive(3, Logic::Low, SimTime::ZERO);
            ctx.drive(4, Logic::High, SimTime::ZERO);
            self.state = CtrlState::Idle;
            return;
        }
        // Edge checks rather than a single-trigger match: the kernel
        // batches same-timestamp events into one delta cycle, so e.g. the
        // upstream request withdrawal and the downstream acknowledge can
        // land in one evaluation and both must be honoured.
        match self.state {
            CtrlState::Idle => {
                if ctx.is_edge(0, Logic::High) {
                    self.start_token(ctx);
                }
            }
            CtrlState::Eval => {
                if ctx.is_edge(2, Logic::High) {
                    // Data latched after the GE pulse: hand it forward and
                    // acknowledge upstream.
                    ctx.drive(1, Logic::High, self.t_req);
                    ctx.drive(0, Logic::High, self.t_req);
                    self.upstream_done = false;
                    self.downstream_done = false;
                    self.state = CtrlState::Hold;
                }
            }
            CtrlState::Hold => {
                if ctx.is_edge(0, Logic::Low) {
                    ctx.drive(0, Logic::Low, self.t_seq);
                    self.upstream_done = true;
                }
                if ctx.is_edge(1, Logic::High) {
                    ctx.drive(1, Logic::Low, self.t_seq);
                    self.downstream_done = true;
                }
                if self.upstream_done && self.downstream_done {
                    // Return to zero: stop the encoder, then precharge
                    // after the DLC cascade has released the wordlines.
                    ctx.drive(3, Logic::Low, self.t_seq);
                    ctx.drive(2, Logic::High, self.t_seq + self.t_pchg_gap);
                    self.state = CtrlState::Return;
                }
            }
            CtrlState::Return => {
                if ctx.is_edge(2, Logic::Low) {
                    ctx.drive(4, Logic::High, self.t_seq);
                    self.state = CtrlState::Idle;
                    if ctx.input(0) == Logic::High {
                        // Upstream already queued the next token.
                        self.start_token(ctx);
                    }
                }
            }
        }
    }
}

/// Nets exposed by one built compute block.
#[derive(Debug, Clone)]
pub struct BlockPorts {
    /// Buffered (post-input-latch) subvector element nets, for debugging.
    pub x_buffered: Vec<Vec<NetId>>,
    /// Acknowledge to the upstream stage.
    pub ack_up: NetId,
    /// Request to the downstream stage.
    pub req_out: NetId,
    /// Block-level completion.
    pub rcd: NetId,
    /// Input-buffer enable (high = block idle and accepting data).
    pub ibe: NetId,
    /// The encoder's nets.
    pub encoder: EncoderPorts,
    /// Per-decoder ports (carry-save outputs feed the next stage).
    pub decoders: Vec<DecoderPorts>,
}

/// Builds one compute block, its names inside a scope `name`.
///
/// `x_elems` are the raw (pre-buffer) offset-binary element buses;
/// `s_prev`/`c_prev` are the upstream carry-save buses per decoder;
/// `ack_up`/`req_out` must be pre-created nets (they participate in the
/// neighbour's wiring).
///
/// # Panics
///
/// Panics on inconsistent bus shapes.
#[allow(clippy::too_many_arguments)]
pub fn build_block(
    b: &mut CircuitBuilder,
    name: impl NameArg,
    tree: &QuantizedBdt,
    luts: &[SramModel],
    x_elems: &[Vec<NetId>],
    s_prev: &[Vec<NetId>],
    c_prev: &[Vec<NetId>],
    req_in: NetId,
    ack_down: NetId,
    ack_up: NetId,
    req_out: NetId,
    cal: &Calibration,
    tie_low: NetId,
) -> BlockPorts {
    let ndec = luts.len();
    assert!(ndec > 0, "a block needs at least one decoder");
    assert_eq!(s_prev.len(), ndec, "one s_prev bus per decoder");
    assert_eq!(c_prev.len(), ndec, "one c_prev bus per decoder");
    assert_eq!(
        x_elems.len(),
        SUBVECTOR_LEN,
        "the input buffer holds {SUBVECTOR_LEN} elements"
    );

    let outer = b.enter_scope(name);
    let prev_domain = b.set_domain("ctrl");
    let pche = b.net(leaf!("pche"));
    let calce = b.net(leaf!("calce"));
    let ibe = b.net(leaf!("ibe"));

    // Input buffer: one latch per bit, transparent while idle.
    let x_buffered: Vec<Vec<NetId>> = x_elems
        .iter()
        .enumerate()
        .map(|(e, bits)| {
            bits.iter()
                .enumerate()
                .map(|(i, &bit)| b.latch(leaf!("ib{}_{}", e, i), bit, ibe))
                .collect()
        })
        .collect();
    b.restore_domain(prev_domain);

    let encoder = build_encoder(b, leaf!("enc"), tree, &x_buffered, calce, cal);

    let decoders: Vec<DecoderPorts> = (0..ndec)
        .map(|j| {
            build_decoder(
                b,
                leaf!("dec{}", j),
                &encoder.rwl,
                pche,
                &s_prev[j],
                &c_prev[j],
                &luts[j],
                cal,
                tie_low,
            )
        })
        .collect();

    let prev_domain = b.set_domain("ctrl");
    let rcd_inputs: Vec<NetId> = decoders.iter().map(|d| d.rcd_lut).collect();
    let rcd = build_completion_tree(b, leaf!("rcd"), &rcd_inputs);

    let quarter = cal.ctrl_overhead * 0.25;
    let t_seq = b.library_mut().delay(quarter, DriveKind::Complementary);
    let t_req = b.library_mut().delay(
        cal.ge_pulse_delay + cal.ge_pulse_width,
        DriveKind::Complementary,
    );
    let t_gap = b
        .library_mut()
        .delay(cal.dlc_precharge * 6.0, DriveKind::PullUp);
    b.add_cell(
        leaf!("ctrl"),
        Box::new(HandshakeCtrl::new(t_seq, t_req, t_gap)),
        &[req_in, ack_down, rcd],
        &[ack_up, req_out, pche, calce, ibe],
    );
    b.restore_domain(prev_domain);
    b.restore_scope(outer);

    BlockPorts {
        x_buffered,
        ack_up,
        req_out,
        rcd,
        ibe,
        encoder,
        decoders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(
        cell: &mut HandshakeCtrl,
        inputs: [Logic; 3],
        triggers: &[usize],
    ) -> Vec<maddpipe_sim::Drive> {
        let mut drives = Vec::new();
        let mut violations = Vec::new();
        let mut ctx = EvalCtx::for_test(
            SimTime::from_picos(1000.0),
            &inputs,
            triggers,
            &mut drives,
            &mut violations,
            "ctrl",
        );
        cell.eval(&mut ctx);
        drives
    }

    fn fresh() -> HandshakeCtrl {
        HandshakeCtrl::new(
            SimTime::from_picos(80.0),
            SimTime::from_picos(400.0),
            SimTime::from_picos(700.0),
        )
    }

    #[test]
    fn powers_up_precharged_and_idle() {
        let mut c = fresh();
        let drives = eval(&mut c, [Logic::X; 3], &[]);
        // pche high, calce low, ack low, req low, ibe high.
        let find = |pin: usize| drives.iter().find(|d| d.out_pin == pin).unwrap().value;
        assert_eq!(find(2), Logic::High, "pche");
        assert_eq!(find(3), Logic::Low, "calce");
        assert_eq!(find(0), Logic::Low, "ack");
        assert_eq!(find(1), Logic::Low, "req_out");
        assert_eq!(find(4), Logic::High, "ibe");
    }

    #[test]
    fn request_starts_evaluation() {
        let mut c = fresh();
        let _ = eval(&mut c, [Logic::X; 3], &[]);
        let drives = eval(&mut c, [Logic::High, Logic::Low, Logic::Low], &[0]);
        // ibe low, pche low, calce high — in that causal order.
        let ibe = drives.iter().find(|d| d.out_pin == 4).unwrap();
        let pche = drives.iter().find(|d| d.out_pin == 2).unwrap();
        let calce = drives.iter().find(|d| d.out_pin == 3).unwrap();
        assert_eq!(ibe.value, Logic::Low);
        assert_eq!(pche.value, Logic::Low);
        assert_eq!(calce.value, Logic::High);
        assert!(
            calce.delay > pche.delay,
            "CALCE must trail precharge release"
        );
    }

    #[test]
    fn completion_raises_req_and_ack_together() {
        let mut c = fresh();
        let _ = eval(&mut c, [Logic::X; 3], &[]);
        let _ = eval(&mut c, [Logic::High, Logic::Low, Logic::Low], &[0]);
        let drives = eval(&mut c, [Logic::High, Logic::Low, Logic::High], &[2]);
        let req = drives.iter().find(|d| d.out_pin == 1).unwrap();
        let ack = drives.iter().find(|d| d.out_pin == 0).unwrap();
        assert_eq!(req.value, Logic::High);
        assert_eq!(ack.value, Logic::High);
        assert_eq!(req.delay, ack.delay);
        assert_eq!(req.delay, SimTime::from_picos(400.0), "covers GE pulse");
    }

    #[test]
    fn return_to_zero_requires_both_neighbours() {
        let mut c = fresh();
        let _ = eval(&mut c, [Logic::X; 3], &[]);
        let _ = eval(&mut c, [Logic::High, Logic::Low, Logic::Low], &[0]);
        let _ = eval(&mut c, [Logic::High, Logic::Low, Logic::High], &[2]);
        // Upstream drops first — no precharge yet.
        let d1 = eval(&mut c, [Logic::Low, Logic::Low, Logic::High], &[0]);
        assert!(
            !d1.iter().any(|d| d.out_pin == 2 && d.value == Logic::High),
            "must not precharge before downstream acks"
        );
        // Downstream acks — now the return sequence fires.
        let d2 = eval(&mut c, [Logic::Low, Logic::High, Logic::High], &[1]);
        let pche = d2.iter().find(|d| d.out_pin == 2).unwrap();
        let calce = d2.iter().find(|d| d.out_pin == 3).unwrap();
        assert_eq!(pche.value, Logic::High);
        assert_eq!(calce.value, Logic::Low);
        assert!(
            pche.delay > calce.delay,
            "precharge must wait for the DLC cascade gap"
        );
    }

    #[test]
    fn queued_request_restarts_immediately_after_return() {
        let mut c = fresh();
        let _ = eval(&mut c, [Logic::X; 3], &[]);
        let _ = eval(&mut c, [Logic::High, Logic::Low, Logic::Low], &[0]);
        let _ = eval(&mut c, [Logic::High, Logic::Low, Logic::High], &[2]);
        let _ = eval(&mut c, [Logic::Low, Logic::Low, Logic::High], &[0]);
        let _ = eval(&mut c, [Logic::Low, Logic::High, Logic::High], &[1]);
        // Next token already waiting (req high) when RCD falls:
        let drives = eval(&mut c, [Logic::High, Logic::Low, Logic::Low], &[2]);
        assert!(
            drives
                .iter()
                .any(|d| d.out_pin == 3 && d.value == Logic::High),
            "CALCE must rise again for the queued token"
        );
    }
}
