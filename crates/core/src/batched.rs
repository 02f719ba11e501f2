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
//!   `[i16; 16]` per (stage, leaf code, group).
//!
//! The kernel then runs as the macro does, encoder first and decoders
//! second, over blocks of up to 64 tokens:
//!
//! * **Encode.** Per stage, the four split elements of every token in the
//!   block are gathered into one byte column per tree level, and all the
//!   block's 4-bit leaf codes are computed at once. Each level's threshold
//!   is *selected* by the decisions above it with mask arithmetic instead
//!   of loaded from the node the walk reached, so no lane waits on a
//!   data-dependent load and the lane loop compiles to 16-byte vector
//!   compares on the baseline x86-64 target.
//! * **Decode.** Each token sums its stages' selected rows from the codes,
//!   one register-held `[i16; 16]` per output group.
//!
//! This is not the bit-sliced kernel an earlier version carried (and
//! deleted as slower than a per-token walk): that one packed the tree
//! decisions of 64 tokens into `u64` masks and summed the LUTs in
//! bit-planes. Here the compares run in byte lanes, and each token keeps
//! its 16-lane `i16` row sums.
//!
//! The kernel is pinned bit-identical to the scalar spec — outputs,
//! `i16` wrapping and panics — by proptest
//! (`tests/backend_equivalence.rs`) over trees of 1–6 levels.

use crate::config::{K, LEVELS, SUBVECTOR_LEN};
use crate::macro_rtl::MacroProgram;

/// Decoder chains summed per accumulator group.
const LANES: usize = 16;

/// Tokens encoded per block: the most the lane loop covers at once.
const BLOCK: usize = 64;

/// Tokens per vector compare: 16 byte lanes fill one 128-bit register.
const CHUNK: usize = 16;

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
    /// The leaf codes of 16 tokens from their split elements
    /// (`x[level][lane]`). At level `l` a lane compares against heap node
    /// `2^l - 1 + b`, where `b` reads its decisions above as a binary
    /// number; that node's threshold is picked from the level's
    /// candidates by one select per decision, so every lane runs the same
    /// four compares and eleven selects.
    fn encode(&self, x: &[[i8; CHUNK]; LEVELS], codes: &mut [u8; CHUNK]) {
        let t = self.thresholds.map(|t| t as u8);
        for (lane, code) in codes.iter_mut().enumerate() {
            let m0 = ge(x[0][lane], t[0]);
            let m1 = ge(x[1][lane], select(m0, t[2], t[1]));
            let m2 = ge(
                x[2][lane],
                select(m1, select(m0, t[6], t[4]), select(m0, t[5], t[3])),
            );
            let t3 = select(
                m2,
                select(m1, select(m0, t[14], t[10]), select(m0, t[12], t[8])),
                select(m1, select(m0, t[13], t[9]), select(m0, t[11], t[7])),
            );
            let m3 = ge(x[3][lane], t3);
            *code = (m0 & 8) | (m1 & 4) | (m2 & 2) | (m3 & 1);
        }
    }
}

/// All ones where `x >= t` (compared as `i8`), else zero.
fn ge(x: i8, t: u8) -> u8 {
    0u8.wrapping_sub(u8::from(x >= t as i8))
}

/// `a` in the bits where `m` is set, `b` elsewhere.
fn select(m: u8, a: u8, b: u8) -> u8 {
    (m & a) | (!m & b)
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
        let tokens: Vec<I::Item> = tokens.into_iter().collect();
        let mut flat = vec![0i16; tokens.len() * self.ndec];
        self.evaluate_into(&tokens, &mut flat);
        (0..tokens.len())
            .map(|i| flat[i * self.ndec..][..self.ndec].to_vec())
            .collect()
    }

    /// Evaluates `tokens` into a caller-provided token-major buffer
    /// (`out[i * ndec + j]` = token `i`, decoder `j`).
    ///
    /// Tokens run in blocks of up to 64: per stage, the block's leaf codes
    /// are computed together, 16 tokens per vector compare, and then each
    /// token sums its stages' selected rows, one register-held
    /// `[i16; 16]` per 16-lane group of outputs.
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
        let mut tokens = tokens.into_iter().fuse();
        let mut block = Vec::with_capacity(BLOCK);
        let mut codes = vec![[0u8; BLOCK]; self.ns()];
        let mut filled = 0;
        loop {
            block.extend(tokens.by_ref().take(BLOCK));
            if block.is_empty() {
                break;
            }
            // Every check runs in token order before the block is
            // evaluated, so the first token that fails is the one reported.
            for (i, token) in block.iter().enumerate() {
                assert!(filled + (i + 1) * self.ndec <= out.len(), "{MSG}");
                self.check(token.as_ref());
            }
            let end = filled + block.len() * self.ndec;
            self.evaluate_block(&block, &mut codes, &mut out[filled..end]);
            filled = end;
            block.clear();
        }
        assert_eq!(out.len(), filled, "{MSG}");
    }

    /// The scalar spec's panics for one token: its shape, and the spine
    /// guards of trees deeper than the LUT.
    fn check(&self, token: &[[i8; SUBVECTOR_LEN]]) {
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
    }

    /// Evaluates a block of checked tokens into `out` (`ndec` values per
    /// token), using `codes` for each stage's leaf codes.
    fn evaluate_block<T>(&self, block: &[T], codes: &mut [[u8; BLOCK]], out: &mut [i16])
    where
        T: AsRef<[[i8; SUBVECTOR_LEN]]>,
    {
        // Split elements per 16-token chunk, per level; lanes past the
        // block's end keep stale values whose codes nobody reads.
        let mut x = [[[0i8; CHUNK]; LEVELS]; BLOCK / CHUNK];
        let chunks = block.len().div_ceil(CHUNK);
        for (s, (tree, codes)) in self.trees.iter().zip(codes.iter_mut()).enumerate() {
            // In locals, the four dims are bounds-checked once per stage
            // instead of once per token.
            let [d0, d1, d2, d3] = tree.dims;
            for (x, tokens) in x.iter_mut().zip(block.chunks(CHUNK)) {
                for (lane, token) in tokens.iter().enumerate() {
                    let sub = &token.as_ref()[s];
                    x[0][lane] = sub[d0];
                    x[1][lane] = sub[d1];
                    x[2][lane] = sub[d2];
                    x[3][lane] = sub[d3];
                }
            }
            for (x, codes) in x[..chunks].iter().zip(codes.as_chunks_mut().0) {
                tree.encode(x, codes);
            }
        }
        let (ndec, groups) = (self.ndec, self.groups);
        for i in 0..block.len() {
            for (g, lanes) in out[i * ndec..][..ndec].chunks_mut(LANES).enumerate() {
                let mut acc = [0i16; LANES];
                for (s, codes) in codes.iter().enumerate() {
                    add(
                        &mut acc,
                        &self.rows[(s * K + usize::from(codes[i])) * groups + g],
                    );
                }
                lanes.copy_from_slice(&acc[..lanes.len()]);
            }
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

    /// The message of the panic `f` raises.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("the call must panic");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload.downcast_ref::<&str>().map_or("", |s| s).to_string(),
        }
    }

    #[test]
    fn the_kernel_matches_the_scalar_spec_across_lane_boundaries() {
        // No decoders, then 5, 16, 17 and 33: a partial group, one full
        // group, and one or two full groups plus a 1-lane tail.
        for ndec in [0usize, 5, 16, 17, 33] {
            let program = MacroProgram::random(ndec, 3, 11);
            let view = program.batched();
            // Both sides of every 16-token compare edge in the first
            // block, and of the 64-token block edges after it.
            let counts = [1usize, 2, 15, 16, 17, 63, 64, 65, 127, 128, 129, 130];
            for count in counts.into_iter().chain([191, 192, 193, 257]) {
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
    fn owned_tokens_pass_by_value_across_blocks() {
        let program = MacroProgram::random(6, 4, 17);
        let view = program.batched();
        let tokens = random_tokens(4, 100, 3);
        let golden = scalar_golden(&program, &tokens);
        assert_eq!(view.evaluate(tokens.clone()), golden);
        let mut flat = vec![0i16; 100 * 6];
        view.evaluate_into(tokens, &mut flat);
        assert_eq!(flat, golden.concat());
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
    fn an_escape_in_the_second_block_panics_like_the_scalar_spec() {
        // A 5-level tree whose root threshold of 127 sends every input of
        // at most 126 left, into the kept subtree. Only token 70 of 100,
        // in the second block, reaches 127 and walks off the LUT.
        let mut rng = StdRng::seed_from_u64(70);
        let mut thresholds: Vec<f32> = (0..31).map(|_| rng.gen_range(-100.0..100.0)).collect();
        thresholds[0] = 127.0;
        let tree = maddpipe_amm::bdt::BdtEncoder::from_parts(vec![2, 0, 4, 6, 8], thresholds)
            .unwrap()
            .quantize(maddpipe_amm::quant::QuantScale::UNIT);
        let program = MacroProgram {
            trees: vec![tree],
            luts: vec![vec![[3i8; K]; 2]],
        };
        let mut tokens = random_tokens(1, 100, 5);
        for x in tokens.iter_mut().flatten().flatten() {
            *x = (*x).min(126);
        }
        tokens[70][0][2] = 127;
        let view = program.batched();
        assert_eq!(
            view.evaluate(&tokens[..70]),
            scalar_golden(&program, &tokens[..70])
        );
        assert!(std::panic::catch_unwind(|| program.reference_output(&tokens[70])).is_err());
        let message = panic_message(|| {
            view.evaluate(&tokens);
        });
        assert!(
            message.contains("stage 0: the tree walk leaves"),
            "{message}"
        );
        let mut out = vec![0i16; 2 * 100];
        let message = panic_message(|| view.evaluate_into(&tokens, &mut out));
        assert!(
            message.contains("stage 0: the tree walk leaves"),
            "{message}"
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
        const MSG: &str = "output buffer must hold ndec values per token";
        let program = MacroProgram::random(4, 2, 21);
        let view = program.batched();
        let tokens = random_tokens(2, 5, 8);
        // The test expects MSG, so no failed check below may echo it.
        let message = panic_message(|| view.evaluate_into(tokens.iter(), &mut [0i16; 4 * 5 - 1]));
        assert!(message.contains(MSG), "5 tokens: another panic");
        // Token 80 of 100, in the second block, is malformed. With room
        // for every token it is the first failure; a buffer that ends
        // inside token 70 is reported first, though both sit in one block.
        let mut tokens = random_tokens(2, 100, 8);
        tokens[80].pop();
        let message = panic_message(|| view.evaluate_into(&tokens, &mut [0i16; 4 * 100]));
        assert!(message.contains("one subvector per stage"), "token 80");
        view.evaluate_into(&tokens, &mut [0i16; 4 * 70 + 2]);
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
        // The flagship shape and the demo CNN's two conv shapes, from one
        // token to four blocks per call.
        for (ndec, ns) in [(16usize, 32usize), (4, 2), (8, 4)] {
            let program = MacroProgram::random(ndec, ns, 7);
            let view = program.batched();
            for count in [1usize, 4, 16, 64, 256] {
                let tokens = random_tokens(ns, count, 11);
                let mut out = vec![0i16; count * ndec];
                // Each sample repeats the call over about 16K tokens.
                let calls = (1 << 14) / count;
                let mut rate = |f: &mut dyn FnMut(&mut [i16])| {
                    let mut best = f64::MAX;
                    for _ in 0..7 {
                        let t0 = std::time::Instant::now();
                        for _ in 0..calls {
                            f(&mut out);
                            std::hint::black_box(&mut out);
                        }
                        best = best.min(t0.elapsed().as_secs_f64());
                    }
                    (calls * count) as f64 / best
                };
                let scalar = rate(&mut |out| {
                    for (t, out) in tokens.iter().zip(out.chunks_exact_mut(ndec)) {
                        out.copy_from_slice(&program.reference_output(t));
                    }
                });
                let batched = rate(&mut |out| view.evaluate_into(&tokens, out));
                println!(
                    "ndec {ndec:>2} ns {ns:>2} {count:>3} tokens: scalar {scalar:>11.0}, batched {batched:>11.0} tokens/s"
                );
            }
        }
    }
}
