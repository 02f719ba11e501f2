//! Batched evaluation of a [`MacroProgram`] — the fast path behind
//! [`MacroProgram::reference_output_batch`].
//!
//! [`MacroProgram::reference_output`] walks one token at a time: a BDT
//! per stage, then one LUT byte per decoder chain, accumulated with
//! wrapping 16-bit adds. That scalar walk is the executable spec — this
//! module never changes its semantics, it only compiles the program to
//! the macro's fixed shape (Fig. 2, Fig. 5) so each (token, stage) step
//! is a fixed amount of work — four compares and one 16-lane add per
//! output group:
//!
//! * Every stage becomes a **4-level tree**: four split dimensions and a
//!   16-slot heap of thresholds. A shallower tree is padded with
//!   always-right levels (threshold `i8::MIN`, which every input meets)
//!   and its LUT rows move to the codes those levels lead to. A deeper
//!   tree keeps its leftmost 4-level subtree — the only one whose leaves
//!   fall inside the 16-entry LUT — plus a *left-spine guard*: going
//!   right on any level above that subtree is exactly where the scalar
//!   spec's LUT index panics, so the guard panics there too.
//! * Every LUT row is widened to `i16` and split into **16-lane groups**
//!   (`ndec` padded to a multiple of 16 with zero lanes), one
//!   `[i16; 16]` per (stage, leaf code, group). A token's accumulate is
//!   then one register-held `[i16; 16]` per group, summed over its
//!   stages' selected rows.
//!
//! The kernel is pinned bit-identical to the scalar spec — outputs,
//! `i16` wrapping and panics — by proptest
//! (`tests/backend_equivalence.rs`) over trees of 1–6 levels.

use crate::config::{K, LEVELS, SUBVECTOR_LEN};
use crate::macro_rtl::MacroProgram;

/// Decoder chains summed per accumulator group.
const LANES: usize = 16;

/// One stage's tree in the hardware shape.
#[derive(Debug, Clone)]
struct Tree {
    /// The element compared at each level.
    dims: [usize; LEVELS],
    /// Heap-ordered thresholds (node 0 = root, children `2i+1`/`2i+2`;
    /// slot 15 is unused).
    thresholds: [i8; K],
}

impl Tree {
    /// The leaf code `sub` walks to: four compares, no early exit.
    fn code(&self, sub: &[i8; SUBVECTOR_LEN]) -> usize {
        let mut node = 0usize;
        for &dim in &self.dims {
            node = 2 * node + 1 + usize::from(sub[dim] >= self.thresholds[node]);
        }
        node - (K - 1)
    }
}

/// One left-spine level of a tree deeper than [`LEVELS`]: a token that
/// goes right here walks past the 16-entry LUT.
#[derive(Debug, Clone)]
struct Guard {
    stage: usize,
    dim: usize,
    threshold: i8,
}

/// A [`MacroProgram`] compiled to the macro's fixed shape, precomputed
/// once and reused across batches.
///
/// Build it with [`MacroProgram::batched`] (or [`BatchedProgram::new`]);
/// evaluate with [`BatchedProgram::evaluate`] or the allocation-free
/// [`BatchedProgram::evaluate_into`].
#[derive(Debug, Clone)]
pub struct BatchedProgram {
    ndec: usize,
    /// 16-lane groups per LUT row (`ndec / 16` rounded up), at least one so
    /// every stage has a row to select even without decoder chains.
    groups: usize,
    trees: Vec<Tree>,
    /// Widened LUT rows: `rows[(s * K + code) * groups + g]` holds decoders
    /// `16g..16g + 16` of stage `s`, leaf `code`; lanes past `ndec` are 0.
    rows: Vec<[i16; LANES]>,
    /// Left-spine checks of the trees deeper than [`LEVELS`], in stage
    /// order; empty for hardware-shaped programs.
    guards: Vec<Guard>,
}

impl BatchedProgram {
    /// Compiles `program` to the hardware shape.
    ///
    /// # Panics
    ///
    /// Panics if a stage lacks a LUT for one of its `ndec` decoder chains
    /// (a malformed hand-built program).
    pub fn new(program: &MacroProgram) -> BatchedProgram {
        let ndec = program.ndec();
        let groups = ndec.div_ceil(LANES).max(1);
        let mut trees = Vec::with_capacity(program.ns());
        let mut rows = vec![[0i16; LANES]; program.ns() * K * groups];
        let mut guards = Vec::new();
        let stages = program.trees.iter().zip(rows.chunks_exact_mut(K * groups));
        for (s, (tree, stage_rows)) in stages.enumerate() {
            let (dims, thresholds) = (tree.split_dims(), tree.thresholds());
            // Levels above the kept 4-level subtree, and levels of
            // always-right padding below a shallower tree.
            let spine = tree.levels().saturating_sub(LEVELS);
            let kept = tree.levels() - spine;
            let pad = LEVELS - kept;
            guards.extend((0..spine).map(|level| Guard {
                stage: s,
                dim: dims[level],
                threshold: thresholds[(1 << level) - 1],
            }));
            let mut compiled = Tree {
                dims: [0; LEVELS],
                thresholds: [i8::MIN; K],
            };
            for level in 0..kept {
                compiled.dims[level] = dims[spine + level];
                // At every level, the leftmost subtree's nodes come first
                // in heap order.
                let first = (1 << (spine + level)) - 1;
                for i in 0..1 << level {
                    compiled.thresholds[(1 << level) - 1 + i] = thresholds[first + i];
                }
            }
            trees.push(compiled);
            let luts = &program.luts[s][..ndec];
            for leaf in 0..1 << kept {
                // The padding levels append `pad` right turns (1 bits).
                let code = (leaf << pad) | ((1 << pad) - 1);
                let code_rows = &mut stage_rows[code * groups..(code + 1) * groups];
                for (row, luts) in code_rows.iter_mut().zip(luts.chunks(LANES)) {
                    for (lane, lut) in row.iter_mut().zip(luts) {
                        *lane = i16::from(lut[leaf]);
                    }
                }
            }
        }
        BatchedProgram {
            ndec,
            groups,
            trees,
            rows,
            guards,
        }
    }

    /// Pipeline stages of the underlying program.
    pub fn ns(&self) -> usize {
        self.trees.len()
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
    pub fn evaluate<I>(&self, tokens: I) -> Vec<Vec<i16>>
    where
        I: IntoIterator,
        I::Item: AsRef<[[i8; SUBVECTOR_LEN]]>,
    {
        let mut at = vec![0usize; self.ns()];
        tokens
            .into_iter()
            .map(|token| {
                let mut out = vec![0i16; self.ndec];
                self.evaluate_token(token.as_ref(), &mut at, &mut out);
                out
            })
            .collect()
    }

    /// Evaluates `tokens` into a caller-provided token-major buffer
    /// (`out[i * ndec + j]` = token `i`, decoder `j`).
    ///
    /// Per token, each stage's tree is one unrolled 4-level compare, and
    /// each 16-lane group of outputs is summed over the stages' selected
    /// rows in one register-held `[i16; 16]`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not `ndec` times the number of tokens —
    /// at the first token that does not fit, or after the last token when
    /// `out` is longer — plus the conditions of
    /// [`BatchedProgram::evaluate`].
    pub fn evaluate_into<I>(&self, tokens: I, out: &mut [i16])
    where
        I: IntoIterator,
        I::Item: AsRef<[[i8; SUBVECTOR_LEN]]>,
    {
        const MSG: &str = "output buffer must hold ndec values per token";
        let mut at = vec![0usize; self.ns()];
        let mut filled = 0;
        for token in tokens {
            let slot = out.get_mut(filled..filled + self.ndec).expect(MSG);
            self.evaluate_token(token.as_ref(), &mut at, slot);
            filled += self.ndec;
        }
        assert_eq!(out.len(), filled, "{MSG}");
    }

    /// Evaluates one token into `out` (`ndec` values), using `at` (one
    /// slot per stage) for the row each stage selects.
    fn evaluate_token(&self, token: &[[i8; SUBVECTOR_LEN]], at: &mut [usize], out: &mut [i16]) {
        assert_eq!(token.len(), self.ns(), "one subvector per stage");
        for guard in &self.guards {
            let escapes = token[guard.stage][guard.dim] >= guard.threshold;
            // Without decoder chains the scalar spec never indexes a LUT.
            assert!(
                !escapes || self.ndec == 0,
                "stage {}: the tree walk leaves the 16-entry LUT",
                guard.stage
            );
        }
        // The tree walks sum group 0 as they go; later groups re-read the
        // rows the walks selected.
        let mut acc = [0i16; LANES];
        for (s, ((at, sub), tree)) in at.iter_mut().zip(token).zip(&self.trees).enumerate() {
            *at = (s * K + tree.code(sub)) * self.groups;
            add(&mut acc, &self.rows[*at]);
        }
        for (g, lanes) in out.chunks_mut(LANES).enumerate() {
            if g > 0 {
                acc = [0; LANES];
                for &row in at.iter() {
                    add(&mut acc, &self.rows[row + g]);
                }
            }
            lanes.copy_from_slice(&acc[..lanes.len()]);
        }
    }
}

/// `acc += row`, lane by lane, wrapping like the 16-bit accumulators.
fn add(acc: &mut [i16; LANES], row: &[i16; LANES]) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a = a.wrapping_add(v);
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
        // 5, 16, 17 and 33 decoders: a partial group, one full group, and
        // one or two full groups plus a 1-lane tail.
        for ndec in [5usize, 16, 17, 33] {
            let program = MacroProgram::random(ndec, 3, 11);
            let view = program.batched();
            for count in [1usize, 2, 63, 64, 65, 127, 128, 130] {
                let tokens = random_tokens(3, count, count as u64);
                let golden = scalar_golden(&program, &tokens);
                assert_eq!(
                    view.evaluate(&tokens),
                    golden,
                    "{ndec} decoders, {count} tokens"
                );
            }
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
        // Shallow trees run padded to 4 levels; deep ones run their
        // leftmost 4-level subtree behind the spine guard. Spine
        // thresholds of 127 over inputs of at most 126 send every token
        // left, so the deep trees stay inside the LUT here (escapes are
        // the panic test below).
        for levels in [1usize, 2, 3, 5, 6] {
            let mut rng = StdRng::seed_from_u64(levels as u64);
            let mut thresholds: Vec<f32> = (0..(1usize << levels) - 1)
                .map(|_| rng.gen_range(-100.0..100.0))
                .collect();
            for level in 0..levels.saturating_sub(LEVELS) {
                thresholds[(1 << level) - 1] = 127.0;
            }
            let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(
                (0..levels).map(|l| (l * 5) % SUBVECTOR_LEN).collect(),
                thresholds,
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
            let mut tokens = random_tokens(1, 67, levels as u64);
            for x in tokens.iter_mut().flatten().flatten() {
                *x = (*x).min(126);
            }
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
        // Without decoder chains the spec never indexes a LUT, so the same
        // tree walks off it without a panic on either side.
        let chainless = MacroProgram {
            trees: program.trees.clone(),
            luts: vec![Vec::new()],
        };
        assert_eq!(
            chainless.batched().evaluate(&tokens),
            scalar_golden(&chainless, &tokens)
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
    #[should_panic(expected = "output buffer must hold ndec values per token")]
    fn evaluate_into_rejects_a_short_buffer() {
        let program = MacroProgram::random(4, 2, 21);
        let tokens = random_tokens(2, 5, 8);
        let mut out = vec![0i16; 4 * 5 - 1];
        program.batched().evaluate_into(tokens.iter(), &mut out);
    }

    #[test]
    #[should_panic(expected = "output buffer must hold ndec values per token")]
    fn evaluate_into_rejects_a_long_buffer() {
        let program = MacroProgram::random(4, 2, 21);
        let tokens = random_tokens(2, 5, 8);
        let mut out = vec![0i16; 4 * 5 + 1];
        program.batched().evaluate_into(tokens.iter(), &mut out);
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
