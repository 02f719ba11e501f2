//! A pipelined stream's per-token outputs are what the output register
//! holds at each falling edge of its strobe. `AcceleratorRtl::run_pipelined`
//! reads them from the kernel's strobe sampler; this property checks that
//! capture against a replay of the recorded waveform — the strobe and
//! register edges applied in order to the register image taken before the
//! stream — whatever the netlist computes, wrong tokens, stalls and `X`
//! captures included.

use maddpipe_core::prelude::*;
use maddpipe_core::ACC_BITS;
use maddpipe_sim::logic::{bits_to_u64, Logic};
use maddpipe_sim::time::SimTime;
use maddpipe_sim::trace::TraceEntry;
use maddpipe_sim::NetId;
use maddpipe_tech::variation::Mismatch;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Each capture's absolute time and outputs, replayed from `entries`: the
/// register bits start from `image` and the strobe from `level`, and the
/// register is read at each high→low edge of the strobe.
fn replay(
    strobe: NetId,
    bits: &[NetId],
    mut level: Logic,
    mut image: Vec<Logic>,
    entries: &[TraceEntry],
) -> Result<Vec<(SimTime, Vec<i16>)>, TokenError> {
    let slot: HashMap<NetId, usize> = bits.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let mut captures = Vec::new();
    for e in entries {
        if e.net == strobe {
            let fell = level == Logic::High && e.value == Logic::Low;
            level = e.value;
            if fell {
                let words = image
                    .chunks(ACC_BITS)
                    .map(|w| {
                        bits_to_u64(w)
                            .map(|w| w as u16 as i16)
                            .ok_or(TokenError::UnknownOutput { time: e.time })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                captures.push((e.time, words));
            }
        } else if let Some(&i) = slot.get(&e.net) {
            image[i] = e.value;
        }
    }
    Ok(captures)
}

fn tokens(ns: usize, len: usize, seed: u64) -> Vec<Vec<[i8; SUBVECTOR_LEN]>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            (0..ns)
                .map(|_| std::array::from_fn(|_| rng.gen_range(-128i32..=127) as i8))
                .collect()
        })
        .collect()
}

/// Streams `lens` tokens twice through one instance of a random `ndec` ×
/// `ns` program at `op` with mismatch `sigma`, tracing the strobe and the
/// register, and checks each stream against the replay of its waveform:
/// equal outputs and capture times, or the same `UnknownOutput` or
/// `StrobeCount`. A stream that stalls or fails to settle fails before
/// any capture is read, so it has nothing to compare. Returns each
/// stream's outcome.
fn check_streams(
    ndec: usize,
    ns: usize,
    op: OperatingPoint,
    sigma: f64,
    seed: u64,
    lens: [usize; 2],
) -> Vec<Result<PipelinedRun, TokenError>> {
    let cfg = MacroConfig::new(ndec, ns)
        .with_op(op)
        .with_mismatch(Mismatch::new(sigma, seed));
    let mut rtl = AcceleratorRtl::build(&cfg, &MacroProgram::random(ndec, ns, seed));
    let (strobe, bits) = (rtl.output_strobe(), rtl.output_bits().to_vec());
    for &net in bits.iter().chain([&strobe]) {
        rtl.simulator_mut().trace_net(net);
    }
    let mut outcomes = Vec::new();
    for (k, len) in lens.into_iter().enumerate() {
        let stream = tokens(ns, len, seed ^ k as u64);
        let sim = rtl.simulator();
        let (from, t_start) = (sim.trace_entries().len(), sim.now());
        let level = sim.value(strobe);
        let image = bits.iter().map(|&n| sim.value(n)).collect();
        let got = rtl.run_pipelined(&stream);
        if !matches!(
            got,
            Err(TokenError::Oscillation(_) | TokenError::HandshakeStall { .. })
        ) {
            let entries = &rtl.simulator().trace_entries()[from..];
            let want = replay(strobe, &bits, level, image, entries).and_then(|captures| {
                if captures.len() == len {
                    Ok(captures)
                } else {
                    Err(TokenError::StrobeCount {
                        tokens: len,
                        strobes: captures.len(),
                    })
                }
            });
            let captured = got.clone().map(|run| {
                run.completions
                    .iter()
                    .map(|&c| t_start + c)
                    .zip(run.outputs)
                    .collect::<Vec<_>>()
            });
            assert_eq!(captured, want, "stream {k}");
        }
        outcomes.push(got);
    }
    outcomes
}

proptest! {
    /// Random shapes, corners, supplies from 0.5 to 1.0 V and mismatch
    /// up to σ 0.20; the streams' tokens may differ from the spec.
    #[test]
    fn strobe_samples_match_a_replay_of_the_waveform(
        ndec in 1usize..=4,
        ns in 1usize..=8,
        corner in 0usize..5,
        vdd in 0.5f64..=1.0,
        sigma in 0.0f64..=0.20,
        seed in any::<u64>(),
        lens in (1usize..=6, 1usize..=6),
    ) {
        let op = OperatingPoint::new(Volts(vdd), Corner::ALL[corner]);
        check_streams(ndec, ns, op, sigma, seed, [lens.0, lens.1]);
    }
}

/// A seeded 4 × 4 netlist at 0.67 V FSG and σ 0.20 whose first stream
/// captures an `X` bit: both sides report it at the same strobe, and the
/// second stream on the same instance still matches.
#[test]
fn an_x_capture_is_reported_like_the_replay() {
    let op = OperatingPoint::new(Volts(0.665_121_540_562_143_3), Corner::Fsg);
    let outcomes = check_streams(4, 4, op, 0.20, 12_378_708_457_673_677_275, [4, 4]);
    assert!(
        matches!(outcomes[0], Err(TokenError::UnknownOutput { .. })),
        "{:?}",
        outcomes[0]
    );
}
