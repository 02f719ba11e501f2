//! Uniform input/output containers shared by every backend.
//!
//! A [`TokenBatch`] is the unit of work: a non-empty, ordered list of
//! tokens, each one INT8 subvector per pipeline stage. It is stored the
//! way the macro reads it — one `Arc`-shared buffer of subvectors, `ns`
//! per token, plus the token range this batch covers — so a clone or a
//! [`slice`](TokenBatch::slice) shares the buffer instead of copying
//! it, and the only copies a serving request pays are the one that
//! builds it and the one that coalesces it with other requests.
//!
//! A [`BatchResult`] mirrors the batch one observation per token, in
//! submission order — the alignment every composition (sessions
//! accumulating statistics, the sharded backend stitching output
//! slices) relies on. Its [`Observations`] are one token-major `i16`
//! matrix, `width` outputs per token, read through borrowed
//! [`TokenObservation`] views. Outputs are always present and
//! bit-identical across backends; latency and energy are `Option`s
//! because only backends that measure or model them report them, and
//! their columns are stored only once some token carries a value.
//! Batches never imply a macro shape: backends check the batch against
//! their own program and answer with typed [`BackendError`] values.

use crate::error::BackendError;
use maddpipe_amm::quant::QuantScale;
use maddpipe_core::config::SUBVECTOR_LEN;
use maddpipe_tech::units::{Joules, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::ops::{Index, Range};
use std::sync::Arc;

/// One inference token: one INT8 subvector per pipeline stage.
pub type Token = Vec<[i8; SUBVECTOR_LEN]>;

/// A non-empty batch of tokens, the unit of work every
/// [`MacroBackend`](crate::backend::MacroBackend) accepts.
///
/// Every token carries the same number of subvectors (`ns`); the batch
/// does not know whether that matches a macro, so backends check it
/// against their program ([`TokenBatch::check_shape`]) and report
/// [`BackendError::ShapeMismatch`]. Cloning and slicing share the token
/// buffer. A token of zero subvectors is allowed: the batch still holds
/// `len` (empty) tokens, and every backend rejects them by shape.
#[derive(Clone)]
pub struct TokenBatch {
    /// Subvectors of every token of the buffer, token-major, `ns` each.
    data: Arc<Vec<[i8; SUBVECTOR_LEN]>>,
    ns: usize,
    /// The tokens of `data` this batch covers; never empty.
    range: Range<usize>,
}

impl TokenBatch {
    /// Flattens a non-empty token list into one buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::EmptyBatch`] for an empty list, and
    /// [`BackendError::ShapeMismatch`] naming the first token whose
    /// subvector count differs from the first token's.
    pub fn new(tokens: Vec<Token>) -> Result<TokenBatch, BackendError> {
        let ns = tokens.first().ok_or(BackendError::EmptyBatch)?.len();
        if let Some((i, token)) = tokens.iter().enumerate().find(|(_, t)| t.len() != ns) {
            return Err(BackendError::ShapeMismatch {
                token: i,
                expected: ns,
                got: token.len(),
            });
        }
        Ok(TokenBatch::from_flat(ns, tokens.len(), tokens.concat()))
    }

    /// Wraps `len` tokens of `ns` subvectors each, laid out token-major
    /// in `flat`.
    pub(crate) fn from_flat(ns: usize, len: usize, flat: Vec<[i8; SUBVECTOR_LEN]>) -> TokenBatch {
        assert!(len > 0, "a batch needs at least one token");
        assert_eq!(flat.len(), len * ns, "ns subvectors per token");
        TokenBatch {
            data: Arc::new(flat),
            ns,
            range: 0..len,
        }
    }

    /// A batch of one token.
    pub fn single(token: Token) -> TokenBatch {
        TokenBatch::from_flat(token.len(), 1, token)
    }

    /// `count` random tokens for an `ns`-stage macro (property tests and
    /// benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn random(ns: usize, count: usize, seed: u64) -> TokenBatch {
        assert!(count > 0, "a batch needs at least one token");
        let mut rng = StdRng::seed_from_u64(seed);
        let flat = (0..count * ns)
            .map(|_| {
                let mut x = [0i8; SUBVECTOR_LEN];
                for v in x.iter_mut() {
                    *v = rng.gen_range(-128i32..=127) as i8;
                }
                x
            })
            .collect();
        TokenBatch::from_flat(ns, count, flat)
    }

    /// Quantises float feature rows into tokens: each row is split into
    /// `ns` consecutive subvectors of up to [`SUBVECTOR_LEN`] elements
    /// (shorter tails zero-padded) and quantised with `scale` — the glue
    /// every caller of the macro used to hand-roll.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::EmptyBatch`] when `rows` is empty, and
    /// [`BackendError::ShapeMismatch`] when a row carries more features
    /// than `ns` subvectors can hold — truncating silently would compute
    /// outputs on a prefix of the row.
    pub fn from_f32_rows(
        rows: &[&[f32]],
        ns: usize,
        scale: QuantScale,
    ) -> Result<TokenBatch, BackendError> {
        if rows.is_empty() {
            return Err(BackendError::EmptyBatch);
        }
        let mut flat = vec![[0i8; SUBVECTOR_LEN]; rows.len() * ns];
        for (i, row) in rows.iter().enumerate() {
            let needed = row.len().div_ceil(SUBVECTOR_LEN);
            if needed > ns {
                return Err(BackendError::ShapeMismatch {
                    token: i,
                    expected: ns,
                    got: needed,
                });
            }
            let token = &mut flat[i * ns..(i + 1) * ns];
            for (sub, chunk) in token.iter_mut().zip(row.chunks(SUBVECTOR_LEN)) {
                for (e, &v) in sub.iter_mut().zip(chunk) {
                    *e = scale.quantize(v);
                }
            }
        }
        Ok(TokenBatch::from_flat(ns, rows.len(), flat))
    }

    /// Copies `batches` into one batch, in order. A single batch is
    /// returned as a clone, sharing its buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::EmptyBatch`] for no batches, and
    /// [`BackendError::ShapeMismatch`] naming the first token (counted
    /// across the concatenation) of a batch whose subvector count
    /// differs from the first batch's.
    pub fn concat<'a, I>(batches: I) -> Result<TokenBatch, BackendError>
    where
        I: IntoIterator<Item = &'a TokenBatch>,
        I::IntoIter: Clone,
    {
        let batches = batches.into_iter();
        let mut rest = batches.clone();
        let first = rest.next().ok_or(BackendError::EmptyBatch)?;
        if rest.next().is_none() {
            return Ok(first.clone());
        }
        let len: usize = batches.clone().map(TokenBatch::len).sum();
        let mut flat = Vec::with_capacity(len * first.ns);
        let mut offset = 0;
        for batch in batches {
            if batch.ns != first.ns {
                return Err(BackendError::ShapeMismatch {
                    token: offset,
                    expected: first.ns,
                    got: batch.ns,
                });
            }
            flat.extend_from_slice(batch.tokens().flat);
            offset += batch.len();
        }
        Ok(TokenBatch::from_flat(first.ns, len, flat))
    }

    /// The tokens `range` of this batch, sharing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty or reaches past the last token.
    pub fn slice(&self, range: Range<usize>) -> TokenBatch {
        assert!(
            range.start < range.end && range.end <= self.len(),
            "slice {range:?} of a {}-token batch",
            self.len()
        );
        TokenBatch {
            data: Arc::clone(&self.data),
            ns: self.ns,
            range: self.range.start + range.start..self.range.start + range.end,
        }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Always `false` — the constructors reject empty batches.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The tokens, in submission order.
    pub fn tokens(&self) -> Tokens<'_> {
        Tokens {
            flat: &self.data[self.range.start * self.ns..self.range.end * self.ns],
            ns: self.ns,
            len: self.len(),
        }
    }

    /// Checks that every token provides one subvector per stage.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::ShapeMismatch`] naming token 0: every
    /// token of a batch has the same subvector count.
    pub fn check_shape(&self, expected_ns: usize) -> Result<(), BackendError> {
        if self.ns != expected_ns {
            return Err(BackendError::ShapeMismatch {
                token: 0,
                expected: expected_ns,
                got: self.ns,
            });
        }
        Ok(())
    }
}

impl PartialEq for TokenBatch {
    fn eq(&self, other: &TokenBatch) -> bool {
        self.ns == other.ns
            && self.len() == other.len()
            && self.tokens().flat == other.tokens().flat
    }
}

impl Eq for TokenBatch {}

impl fmt::Debug for TokenBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TokenBatch")
            .field("ns", &self.ns)
            .field("tokens", &self.tokens())
            .finish()
    }
}

/// A borrowed view of a batch's tokens: `len` rows of `ns` subvectors.
#[derive(Clone, Copy)]
pub struct Tokens<'a> {
    flat: &'a [[i8; SUBVECTOR_LEN]],
    ns: usize,
    len: usize,
}

impl<'a> Tokens<'a> {
    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view holds no tokens (never, for a batch's view).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Token `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&'a [[i8; SUBVECTOR_LEN]]> {
        (i < self.len).then(|| &self.flat[i * self.ns..(i + 1) * self.ns])
    }

    /// The tokens, in order.
    pub fn iter(&self) -> TokenIter<'a> {
        TokenIter {
            tokens: *self,
            next: 0,
        }
    }
}

impl<'a> Index<usize> for Tokens<'a> {
    type Output = [[i8; SUBVECTOR_LEN]];

    fn index(&self, i: usize) -> &[[i8; SUBVECTOR_LEN]] {
        self.get(i)
            .unwrap_or_else(|| panic!("token {i} of a {}-token batch", self.len))
    }
}

impl<'a> IntoIterator for Tokens<'a> {
    type Item = &'a [[i8; SUBVECTOR_LEN]];
    type IntoIter = TokenIter<'a>;

    fn into_iter(self) -> TokenIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for Tokens<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over the tokens of a [`Tokens`] view.
#[derive(Debug, Clone)]
pub struct TokenIter<'a> {
    tokens: Tokens<'a>,
    next: usize,
}

impl<'a> Iterator for TokenIter<'a> {
    type Item = &'a [[i8; SUBVECTOR_LEN]];

    fn next(&mut self) -> Option<&'a [[i8; SUBVECTOR_LEN]]> {
        let token = self.tokens.get(self.next)?;
        self.next += 1;
        Some(token)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.tokens.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TokenIter<'_> {}

/// What one backend observed about one token: a view into a
/// [`BatchResult`]. Outputs are always present; latency and energy only
/// when the backend actually measures or models them (the functional
/// backend reports neither).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenObservation<'a> {
    /// One 16-bit result per decoder chain — bit-exact across backends.
    pub outputs: &'a [i16],
    /// Request-to-capture latency in physical time, when measured. In
    /// pipelined RTL mode this includes time queued behind earlier tokens.
    pub latency: Option<Seconds>,
    /// Switching energy attributed to this token, when measured. Pipelined
    /// RTL streams only report the batch aggregate.
    pub energy: Option<Joules>,
}

/// The per-token observations of a [`BatchResult`]: a token-major `i16`
/// matrix, `width` outputs per token, plus latency and energy columns
/// that exist only once some token carries a value.
#[derive(Debug, Clone)]
pub struct Observations {
    width: usize,
    len: usize,
    outputs: Vec<i16>,
    latency: Option<Vec<Option<Seconds>>>,
    energy: Option<Vec<Option<Joules>>>,
}

impl Observations {
    /// No tokens yet, `width` outputs per token.
    pub fn new(width: usize) -> Observations {
        Observations::with_capacity(width, 0)
    }

    /// No tokens yet, with room for `tokens` of `width` outputs.
    pub fn with_capacity(width: usize, tokens: usize) -> Observations {
        Observations {
            width,
            len: 0,
            outputs: Vec::with_capacity(width * tokens),
            latency: None,
            energy: None,
        }
    }

    /// `len` unmeasured tokens whose outputs are the rows of `outputs`,
    /// `width` per token.
    ///
    /// # Panics
    ///
    /// Panics if `outputs.len() != len * width`.
    pub fn from_outputs(len: usize, width: usize, outputs: Vec<i16>) -> Observations {
        assert_eq!(outputs.len(), len * width, "width outputs per token");
        Observations {
            width,
            len,
            outputs,
            latency: None,
            energy: None,
        }
    }

    /// Appends one token's observation.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is not `width` long.
    pub fn push(&mut self, outputs: &[i16], latency: Option<Seconds>, energy: Option<Joules>) {
        assert_eq!(outputs.len(), self.width, "width outputs per token");
        self.outputs.extend_from_slice(outputs);
        self.len += 1;
        self.measure(self.len - 1, latency, energy);
    }

    /// Sets token `i`'s latency and energy, creating a column on its
    /// first value.
    pub(crate) fn measure(&mut self, i: usize, latency: Option<Seconds>, energy: Option<Joules>) {
        set(&mut self.latency, self.len, i, latency);
        set(&mut self.energy, self.len, i, energy);
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether a latency or an energy column exists; without one, no
    /// token carries either.
    pub(crate) fn is_measured(&self) -> bool {
        self.latency.is_some() || self.energy.is_some()
    }

    /// Whether no token has been observed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Outputs per token.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Token `i`'s observation, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<TokenObservation<'_>> {
        (i < self.len).then(|| TokenObservation {
            outputs: &self.outputs[i * self.width..(i + 1) * self.width],
            latency: self.latency.as_ref().and_then(|c| c[i]),
            energy: self.energy.as_ref().and_then(|c| c[i]),
        })
    }

    /// The observations, in token order.
    pub fn iter(&self) -> ObservationIter<'_> {
        ObservationIter {
            observations: self,
            next: 0,
        }
    }

    /// A copy of the observations of tokens `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the last token.
    pub fn slice(&self, range: Range<usize>) -> Observations {
        fn column<T: Copy>(
            c: &Option<Vec<Option<T>>>,
            range: &Range<usize>,
        ) -> Option<Vec<Option<T>>> {
            c.as_ref()
                .map(|c| &c[range.clone()])
                .filter(|c| c.iter().any(Option::is_some))
                .map(<[_]>::to_vec)
        }
        assert!(
            range.end <= self.len,
            "slice {range:?} of {} tokens",
            self.len
        );
        Observations {
            width: self.width,
            len: range.len(),
            outputs: self.outputs[range.start * self.width..range.end * self.width].to_vec(),
            latency: column(&self.latency, &range),
            energy: column(&self.energy, &range),
        }
    }

    /// Keeps the first `len` tokens and drops the rest.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
        self.outputs.truncate(self.len * self.width);
        if let Some(c) = &mut self.latency {
            c.truncate(self.len);
        }
        if let Some(c) = &mut self.energy {
            c.truncate(self.len);
        }
    }
}

/// Sets entry `i` of a `len`-token column that is stored only once some
/// token carries a value.
fn set<T: Copy>(column: &mut Option<Vec<Option<T>>>, len: usize, i: usize, value: Option<T>) {
    if value.is_none() && column.is_none() {
        return;
    }
    let column = column.get_or_insert_with(Vec::new);
    column.resize(len, None);
    column[i] = value;
}

impl PartialEq for Observations {
    fn eq(&self, other: &Observations) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<'a> IntoIterator for &'a Observations {
    type Item = TokenObservation<'a>;
    type IntoIter = ObservationIter<'a>;

    fn into_iter(self) -> ObservationIter<'a> {
        self.iter()
    }
}

/// Iterator over the tokens of an [`Observations`] matrix.
#[derive(Debug, Clone)]
pub struct ObservationIter<'a> {
    observations: &'a Observations,
    next: usize,
}

impl<'a> Iterator for ObservationIter<'a> {
    type Item = TokenObservation<'a>;

    fn next(&mut self) -> Option<TokenObservation<'a>> {
        let observation = self.observations.get(self.next)?;
        self.next += 1;
        Some(observation)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.observations.len - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ObservationIter<'_> {}

/// The result of running one [`TokenBatch`] through one backend.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Which backend produced this result (for logs and reports).
    pub backend: &'static str,
    /// One observation per input token, in submission order.
    pub tokens: Observations,
    /// Simulated/modelled wall time for the whole batch, when available.
    pub makespan: Option<Seconds>,
    /// Total switching energy of the batch, when measured.
    pub energy: Option<Joules>,
}

impl BatchResult {
    /// The per-token output vectors, in submission order.
    pub fn outputs(&self) -> Vec<&[i16]> {
        self.tokens.iter().map(|t| t.outputs).collect()
    }
}

/// Folds `values` with `f` when every one is present; `None` when any
/// is missing or there are none — a partial total is not a total.
pub(crate) fn fold_all<T>(
    values: impl IntoIterator<Item = Option<T>>,
    f: impl Fn(T, T) -> T,
) -> Option<T> {
    let mut acc = None;
    for value in values {
        let value = value?;
        acc = Some(match acc {
            Some(a) => f(a, value),
            None => value,
        });
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batches_are_rejected() {
        assert_eq!(TokenBatch::new(vec![]), Err(BackendError::EmptyBatch));
        assert_eq!(
            TokenBatch::from_f32_rows(&[], 2, QuantScale::UNIT),
            Err(BackendError::EmptyBatch)
        );
        assert_eq!(
            TokenBatch::concat(&[] as &[TokenBatch]),
            Err(BackendError::EmptyBatch)
        );
    }

    #[test]
    fn shape_check_names_the_offender() {
        // A ragged list is rejected where the batch is built.
        assert_eq!(
            TokenBatch::new(vec![
                vec![[0i8; SUBVECTOR_LEN]; 2],
                vec![[0i8; SUBVECTOR_LEN]; 3],
            ]),
            Err(BackendError::ShapeMismatch {
                token: 1,
                expected: 2,
                got: 3,
            })
        );
        let batch = TokenBatch::random(3, 2, 1);
        assert_eq!(
            batch.check_shape(2),
            Err(BackendError::ShapeMismatch {
                token: 0,
                expected: 2,
                got: 3,
            })
        );
        assert!(batch.check_shape(3).is_ok());
    }

    #[test]
    fn f32_rows_quantize_like_the_hand_rolled_glue() {
        let row: Vec<f32> = (0..18).map(|i| i as f32 - 9.0).collect();
        let scale = QuantScale::UNIT;
        let batch = TokenBatch::from_f32_rows(&[&row], 2, scale).unwrap();
        let token = &batch.tokens()[0];
        assert_eq!(token.len(), 2);
        for (s, chunk) in row.chunks(SUBVECTOR_LEN).enumerate() {
            for (e, &v) in chunk.iter().enumerate() {
                assert_eq!(token[s][e], scale.quantize(v));
            }
        }
    }

    #[test]
    fn oversized_rows_are_rejected_not_truncated() {
        let row: Vec<f32> = vec![1.0; 3 * SUBVECTOR_LEN];
        assert_eq!(
            TokenBatch::from_f32_rows(&[&row], 2, QuantScale::UNIT),
            Err(BackendError::ShapeMismatch {
                token: 0,
                expected: 2,
                got: 3,
            })
        );
        // A row that exactly fills, or underfills, its subvectors is fine.
        assert!(TokenBatch::from_f32_rows(&[&row], 3, QuantScale::UNIT).is_ok());
        assert!(TokenBatch::from_f32_rows(&[&row[..5]], 3, QuantScale::UNIT).is_ok());
    }

    #[test]
    fn random_batches_are_deterministic() {
        let a = TokenBatch::random(3, 4, 7);
        let b = TokenBatch::random(3, 4, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert_eq!(a.tokens()[0].len(), 3);
    }

    fn owned(batch: &TokenBatch) -> Vec<Token> {
        batch.tokens().iter().map(<[_]>::to_vec).collect()
    }

    #[test]
    fn slices_and_concatenations_round_trip_the_token_list() {
        let list = owned(&TokenBatch::random(2, 7, 5));
        let batch = TokenBatch::new(list.clone()).unwrap();
        assert_eq!(owned(&batch), list);
        assert_eq!(batch.tokens().len(), 7);
        assert_eq!(batch.tokens().get(7), None);
        for (start, end) in [(0, 7), (0, 1), (2, 5), (6, 7)] {
            let part = batch.slice(start..end);
            assert_eq!(owned(&part), list[start..end], "{start}..{end}");
            assert_eq!(part, TokenBatch::new(list[start..end].to_vec()).unwrap());
            // A slice of a slice indexes from its own start.
            assert_eq!(owned(&part.slice(0..part.len())), list[start..end]);
        }
        let inner = batch.slice(1..6).slice(1..3);
        assert_eq!(owned(&inner), list[2..4]);
        let parts = [batch.slice(0..3), batch.slice(3..4), batch.slice(4..7)];
        assert_eq!(TokenBatch::concat(&parts).unwrap(), batch);
        assert_eq!(TokenBatch::concat(&parts[1..2]).unwrap(), parts[1]);
        // Mixed subvector counts name the first token of the odd batch.
        let odd = TokenBatch::random(3, 2, 1);
        assert_eq!(
            TokenBatch::concat([&parts[0], &odd]),
            Err(BackendError::ShapeMismatch {
                token: 3,
                expected: 2,
                got: 3,
            })
        );
    }

    #[test]
    #[should_panic(expected = "slice")]
    fn empty_slices_are_rejected() {
        let _ = TokenBatch::random(2, 4, 1).slice(2..2);
    }

    #[test]
    fn zero_subvector_tokens_are_counted_and_rejected_by_shape() {
        let batch = TokenBatch::new(vec![Vec::new(); 3]).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.tokens().iter().count(), 3);
        assert!(batch.tokens().iter().all(<[_]>::is_empty));
        assert_eq!(batch.slice(1..3).tokens().len(), 2);
        assert_eq!(
            batch.check_shape(2),
            Err(BackendError::ShapeMismatch {
                token: 0,
                expected: 2,
                got: 0,
            })
        );
    }

    #[test]
    fn only_measured_tokens_carry_latency_and_energy() {
        // The cached tier's mix: a replayed hit between two measured
        // misses.
        let mut obs = Observations::new(2);
        obs.push(&[1, 2], None, None);
        obs.push(&[3, 4], Some(Seconds(1e-9)), Some(Joules(2e-12)));
        obs.push(&[5, 6], None, None);
        obs.push(&[7, 8], Some(Seconds(3e-9)), None);
        let latencies: Vec<_> = obs.iter().map(|t| t.latency).collect();
        assert_eq!(
            latencies,
            [None, Some(Seconds(1e-9)), None, Some(Seconds(3e-9))]
        );
        let energies: Vec<_> = obs.iter().map(|t| t.energy).collect();
        assert_eq!(energies, [None, Some(Joules(2e-12)), None, None]);
        assert_eq!(obs.get(2).unwrap().outputs, [5, 6]);
        // A slice of only unmeasured tokens stores no columns, and still
        // equals the same tokens pushed afresh.
        let hit = obs.slice(2..3);
        assert_eq!(hit.latency, None);
        assert_eq!(hit, Observations::from_outputs(1, 2, vec![5, 6]));
        assert_eq!(obs.slice(1..3).get(0).unwrap().latency, Some(Seconds(1e-9)));
        let mut short = obs.clone();
        short.truncate(1);
        assert_eq!(short.len(), 1);
        assert_eq!(short.iter().next().unwrap().latency, None);
        // A functional result never allocates the columns.
        let plain = Observations::from_outputs(3, 1, vec![1, 2, 3]);
        assert!(plain.latency.is_none() && plain.energy.is_none());
        assert_eq!(plain.iter().len(), 3);
    }

    #[test]
    fn folds_need_every_value() {
        assert_eq!(fold_all([Some(1), Some(2), Some(3)], |a, b| a + b), Some(6));
        assert_eq!(fold_all([Some(1), None, Some(3)], |a, b| a + b), None);
        assert_eq!(fold_all(Vec::<Option<i32>>::new(), |a, b| a + b), None);
    }
}
