//! Batched evaluation of a [`MacroProgram`] — the fast path behind
//! [`MacroProgram::reference_output_batch`].
//!
//! [`MacroProgram::reference_output`] walks one token at a time: a 4-level
//! BDT per stage, then one LUT byte per decoder chain, accumulated with
//! wrapping 16-bit adds. That scalar walk is the executable spec — this
//! module never changes its semantics, it only restructures the data so
//! each (token, stage) step is cheap:
//!
//! * [`BatchedProgram`] is a struct-of-arrays view of the program: per
//!   stage, the split dimensions and heap-ordered thresholds of the tree
//!   sit in flat arrays, and the LUT bytes are widened to `i16` and
//!   transposed **code-major** — one contiguous `ndec`-wide row per leaf
//!   code — so accumulating a token is a single dense vector add over
//!   all its decoder chains instead of `ndec` scattered byte gathers.
//! * The lane kernel walks each token's tree on those flat arrays and
//!   adds the selected LUT row into the token's output slot — a
//!   contiguous `i16` loop the autovectoriser lifts to SIMD, vectorising
//!   across decoder chains.
//!
//! The kernel is pinned bit-identical to the scalar spec by proptest
//! (`tests/backend_equivalence.rs`), including wrapping at the `i16`
//! boundaries.

use crate::config::{K, SUBVECTOR_LEN};
use crate::macro_rtl::MacroProgram;

/// The token block the functional backend aligns its worker shards to.
pub const LANE: usize = 64;

/// One pipeline stage in struct-of-arrays form.
#[derive(Debug, Clone)]
struct StageSoa {
    /// Tree depth (4 for hardware-shaped programs).
    levels: usize,
    /// One split dimension per level.
    split_dims: Vec<usize>,
    /// Heap-ordered thresholds (node 0 = root, children `2i+1`/`2i+2`).
    thresholds: Vec<i8>,
    /// LUT bytes widened to `i16` and transposed code-major: row `k`
    /// (`luts_code_major[k*ndec..]`) holds every decoder's entry for leaf
    /// `k`, so one token's accumulate is one contiguous vector add.
    luts_code_major: Vec<i16>,
}

/// Struct-of-arrays view of a [`MacroProgram`], precomputed once and
/// reused across batches.
///
/// Build it with [`MacroProgram::batched`] (or [`BatchedProgram::new`]);
/// evaluate with [`BatchedProgram::evaluate`] or the allocation-free
/// [`BatchedProgram::evaluate_into`].
#[derive(Debug, Clone)]
pub struct BatchedProgram {
    ns: usize,
    ndec: usize,
    stages: Vec<StageSoa>,
}

impl BatchedProgram {
    /// Builds the struct-of-arrays view of `program`.
    pub fn new(program: &MacroProgram) -> BatchedProgram {
        let ns = program.ns();
        let ndec = program.ndec();
        let stages = (0..ns)
            .map(|s| {
                let tree = &program.trees[s];
                let mut luts_code_major = vec![0i16; K * ndec];
                for (j, entries) in program.luts[s].iter().enumerate() {
                    for (k, &e) in entries.iter().enumerate() {
                        luts_code_major[k * ndec + j] = e as i16;
                    }
                }
                StageSoa {
                    levels: tree.levels(),
                    split_dims: tree.split_dims().to_vec(),
                    thresholds: tree.thresholds().to_vec(),
                    luts_code_major,
                }
            })
            .collect();
        BatchedProgram { ns, ndec, stages }
    }

    /// Pipeline stages of the underlying program.
    pub fn ns(&self) -> usize {
        self.ns
    }

    /// Decoder chains per stage.
    pub fn ndec(&self) -> usize {
        self.ndec
    }

    /// Evaluates `tokens`, one output vector per token. Matches
    /// `tokens.iter().map(|t| program.reference_output(t))` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the scalar spec: a token that
    /// does not carry one subvector per stage, or a malformed program
    /// whose tree walk selects a leaf outside the 16-entry LUT.
    pub fn evaluate<T: AsRef<[[i8; SUBVECTOR_LEN]]>>(&self, tokens: &[T]) -> Vec<Vec<i16>> {
        let mut flat = vec![0i16; tokens.len() * self.ndec];
        self.evaluate_into(tokens, &mut flat);
        if self.ndec == 0 {
            // Decoder-less programs still produce one (empty) output
            // vector per token, like the scalar spec.
            return vec![Vec::new(); tokens.len()];
        }
        flat.chunks(self.ndec).map(<[i16]>::to_vec).collect()
    }

    /// Evaluates `tokens` into a caller-provided token-major buffer
    /// (`out[i * ndec + j]` = token `i`, decoder `j`).
    ///
    /// Per token and stage, the tree walk runs on the flat SoA arrays
    /// (same comparison count as the scalar spec), and the accumulate is
    /// one dense `i16` vector add over the code-major LUT row — a
    /// contiguous `ndec`-wide `+=` the autovectoriser lifts to SIMD,
    /// replacing `ndec` scattered byte gathers per (token, stage).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != tokens.len() * ndec`, plus the conditions
    /// of [`BatchedProgram::evaluate`].
    pub fn evaluate_into<T: AsRef<[[i8; SUBVECTOR_LEN]]>>(&self, tokens: &[T], out: &mut [i16]) {
        assert_eq!(
            out.len(),
            tokens.len() * self.ndec,
            "output buffer must hold ndec values per token"
        );
        for token in tokens {
            assert_eq!(token.as_ref().len(), self.ns, "one subvector per stage");
        }
        out.fill(0);
        let ndec = self.ndec;
        for (token, slot) in tokens.iter().zip(out.chunks_mut(ndec.max(1))) {
            for (sub, stage) in token.as_ref().iter().zip(&self.stages) {
                let mut node = 0usize;
                for &dim in &stage.split_dims {
                    node = 2 * node + 1 + usize::from(sub[dim] >= stage.thresholds[node]);
                }
                let k = node - ((1 << stage.levels) - 1);
                // Out-of-range codes (trees deeper than 4 levels) panic
                // on this slice, like the scalar spec's LUT index does.
                let lut_row = &stage.luts_code_major[k * ndec..(k + 1) * ndec];
                for (a, &v) in slot.iter_mut().zip(lut_row) {
                    *a = a.wrapping_add(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tokens(ns: usize, count: usize, seed: u64) -> Vec<Vec<[i8; SUBVECTOR_LEN]>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (0..ns)
                    .map(|_| {
                        let mut x = [0i8; SUBVECTOR_LEN];
                        for v in x.iter_mut() {
                            *v = rng.gen_range(-128i32..=127) as i8;
                        }
                        x
                    })
                    .collect()
            })
            .collect()
    }

    fn scalar_golden(program: &MacroProgram, tokens: &[Vec<[i8; SUBVECTOR_LEN]>]) -> Vec<Vec<i16>> {
        tokens.iter().map(|t| program.reference_output(t)).collect()
    }

    #[test]
    fn the_kernel_matches_the_scalar_spec_across_lane_boundaries() {
        let program = MacroProgram::random(5, 3, 11);
        let view = program.batched();
        for count in [1usize, 2, 63, 64, 65, 127, 128, 130] {
            let tokens = random_tokens(3, count, count as u64);
            let golden = scalar_golden(&program, &tokens);
            assert_eq!(view.evaluate(&tokens), golden, "{count} tokens");
        }
    }

    #[test]
    fn empty_batch_evaluates_to_no_outputs() {
        let program = MacroProgram::random(2, 2, 3);
        let view = program.batched();
        let empty: Vec<Vec<[i8; SUBVECTOR_LEN]>> = Vec::new();
        assert!(view.evaluate(&empty).is_empty());
    }

    #[test]
    fn wrapping_at_i16_extremes_is_bit_identical() {
        // Every LUT entry of decoder 0 holds -128 and of decoder 1 holds
        // +127, so whatever leaf each token walks to, 300 stages
        // accumulate -38400 / +38100 — both wrap past the i16 extremes.
        let ns = 300;
        let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(vec![0, 1, 2, 3], vec![0.0; 15])
            .unwrap()
            .quantize(maddpipe_amm::quant::QuantScale::UNIT);
        let program = MacroProgram {
            trees: vec![tree; ns],
            luts: vec![vec![[-128; K], [127; K]]; ns],
        };
        let tokens = random_tokens(ns, 70, 9);
        let golden = scalar_golden(&program, &tokens);
        assert_eq!(golden[0][0], (-128i32 * ns as i32) as i16);
        assert_eq!(golden[0][1], (127i32 * ns as i32) as i16);
        assert_eq!(program.batched().evaluate(&tokens), golden);
    }

    #[test]
    fn shallow_and_deep_trees_agree_with_scalar() {
        // The batched walk must not assume 4 levels: 1..=8 are legal for
        // hand-built programs (8 needs a wider LUT, so stop at 4 plus a
        // shallow case here; deeper trees are the panic test below).
        for levels in [1usize, 2, 3] {
            let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(
                (0..levels).map(|l| l % SUBVECTOR_LEN).collect(),
                vec![0.0; (1 << levels) - 1],
            )
            .unwrap()
            .quantize(maddpipe_amm::quant::QuantScale::UNIT);
            let mut lut = [0i8; K];
            for (k, e) in lut.iter_mut().enumerate() {
                *e = (k as i8).wrapping_mul(17);
            }
            let program = MacroProgram {
                trees: vec![tree],
                luts: vec![vec![lut; 3]],
            };
            let tokens = random_tokens(1, 67, levels as u64);
            let golden = scalar_golden(&program, &tokens);
            assert_eq!(
                program.batched().evaluate(&tokens),
                golden,
                "{levels} levels"
            );
        }
    }

    #[test]
    fn out_of_lut_leaf_panics_like_the_scalar_spec() {
        // A 5-level tree reaches leaf 31 — off the end of the 16-entry
        // LUT. The scalar spec panics on the LUT index; the batched
        // kernel must panic too, not return garbage.
        let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(vec![0; 5], vec![-128.0; 31])
            .unwrap()
            .quantize(maddpipe_amm::quant::QuantScale::UNIT);
        let program = MacroProgram {
            trees: vec![tree],
            luts: vec![vec![[0i8; K]]],
        };
        let tokens = random_tokens(1, 3, 1);
        assert!(std::panic::catch_unwind(|| program.reference_output(&tokens[0])).is_err());
        let view = program.batched();
        assert!(
            std::panic::catch_unwind(|| view.evaluate(&tokens)).is_err(),
            "the kernel must reject leaves beyond the LUT"
        );
    }

    #[test]
    fn evaluate_into_fills_a_token_major_buffer() {
        let program = MacroProgram::random(4, 2, 21);
        let tokens = random_tokens(2, 66, 8);
        let golden = scalar_golden(&program, &tokens);
        let view = program.batched();
        let mut flat = vec![0i16; tokens.len() * view.ndec()];
        view.evaluate_into(&tokens, &mut flat);
        for (i, g) in golden.iter().enumerate() {
            assert_eq!(&flat[i * 4..(i + 1) * 4], g.as_slice(), "token {i}");
        }
    }

    #[test]
    #[ignore = "manual throughput probe: cargo test --release -p maddpipe-core batched::tests::throughput_probe -- --ignored --nocapture"]
    fn throughput_probe() {
        let program = MacroProgram::random(16, 32, 7);
        let tokens = random_tokens(32, 1024, 11);
        let view = program.batched();
        let rate = |name: &str, f: &mut dyn FnMut() -> Vec<Vec<i16>>| {
            let mut best = f64::MAX;
            for _ in 0..7 {
                let t0 = std::time::Instant::now();
                let out = f();
                let dt = t0.elapsed().as_secs_f64();
                std::hint::black_box(out);
                best = best.min(dt);
            }
            println!("{name:>10}: {:>12.0} tokens/s", tokens.len() as f64 / best);
        };
        rate("scalar", &mut || {
            tokens.iter().map(|t| program.reference_output(t)).collect()
        });
        rate("batched", &mut || view.evaluate(&tokens));
    }
}
