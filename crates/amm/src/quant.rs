//! Symmetric INT8 quantisation.
//!
//! The accelerator stores LUT entries and compares activations at 8-bit
//! integer precision ("we employed an 8-bit integer precision", §III-A), so
//! the algorithm side provides a faithful symmetric-linear quantiser:
//! `q = clamp(round(x / scale), -127, 127)`, rounding halves away from zero
//! as [`f32::round`] does (NaN quantises to 0).

use core::fmt;

/// A symmetric linear quantisation scale (`x ≈ q · scale`).
///
/// ```
/// use maddpipe_amm::quant::QuantScale;
///
/// let s = QuantScale::fit(&[0.5, -2.0, 1.0]);
/// let q = s.quantize(-2.0);
/// assert_eq!(q, -127);
/// assert!((s.dequantize(q) + 2.0).abs() < 0.02);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantScale {
    scale: f32,
}

impl QuantScale {
    /// Identity-ish scale for already-integer data.
    pub const UNIT: QuantScale = QuantScale { scale: 1.0 };

    /// Creates a scale directly.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is positive and finite.
    pub fn new(scale: f32) -> QuantScale {
        assert!(
            scale.is_finite() && scale > 0.0,
            "quantisation scale must be positive and finite, got {scale}"
        );
        QuantScale { scale }
    }

    /// Fits the scale that maps the largest magnitude in `values` to ±127.
    ///
    /// All-zero (or empty) input yields a unit scale so that quantisation
    /// stays well-defined.
    pub fn fit(values: &[f32]) -> QuantScale {
        let max = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if max == 0.0 || !max.is_finite() {
            QuantScale::UNIT
        } else {
            QuantScale { scale: max / 127.0 }
        }
    }

    /// Fits the MSE-optimal *clipping* scale: sweeps clipping factors below
    /// the max-abs scale and keeps the one minimising quantisation MSE.
    ///
    /// Activation tensors routinely carry a handful of outliers; a plain
    /// max-abs fit lets them coarsen every other value (and, in the MADDNESS
    /// pipeline, flip comparator decisions whose thresholds sit closer
    /// together than one quantisation step). Saturating the outliers is the
    /// standard remedy.
    pub fn fit_clipped(values: &[f32]) -> QuantScale {
        let max = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        if max == 0.0 || !max.is_finite() {
            return QuantScale::UNIT;
        }
        let base = max / 127.0;
        let mut best = (base, f64::INFINITY);
        for factor in [1.0f32, 0.8, 0.6, 0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.1] {
            let scale = base * factor;
            let mse: f64 = values
                .iter()
                .map(|&v| {
                    let q = (v / scale).round().clamp(-127.0, 127.0);
                    let e = (v - q * scale) as f64;
                    e * e
                })
                .sum();
            if mse < best.1 {
                best = (scale, mse);
            }
        }
        QuantScale { scale: best.0 }
    }

    /// The multiplicative step size.
    pub fn scale(self) -> f32 {
        self.scale
    }

    /// Quantises one value: `clamp(round(x / scale), -127, 127)`, bit for
    /// bit.
    ///
    /// The rounding is done by hand because [`f32::round`] is an
    /// out-of-line `roundf` call on the baseline x86-64 target: the clamped
    /// quotient is truncated, then stepped away from zero when the
    /// remainder is at least one half. The remainder `q - t` is exact, since
    /// `|q| <= 127` leaves its fraction bits inside the mantissa.
    #[inline]
    pub fn quantize(self, x: f32) -> i8 {
        let q = (x / self.scale).clamp(-127.0, 127.0);
        // Saturating cast: NaN truncates to 0 and stays there.
        let t = q as i32;
        let r = q - t as f32;
        (t + i32::from(r >= 0.5) - i32::from(r <= -0.5)) as i8
    }

    /// Quantises a *comparison threshold* with ceiling semantics.
    ///
    /// For any value `x` lying on the quantisation lattice (`x = k·scale`),
    /// `x ≥ t ⇔ k ≥ ⌈t/scale⌉` holds exactly — so decision boundaries
    /// survive quantisation for lattice-valued data. This matters enormously
    /// for post-ReLU activations, which carry a large probability atom at
    /// exactly 0: a threshold in `(0, scale/2)` would *round* to 0 and flip
    /// every zero-valued comparison to the "≥" side.
    #[inline]
    pub fn quantize_threshold(self, t: f32) -> i8 {
        let q = (t / self.scale).ceil();
        q.clamp(-127.0, 127.0) as i8
    }

    /// Dequantises one value.
    #[inline]
    pub fn dequantize(self, q: i8) -> f32 {
        q as f32 * self.scale
    }

    /// Quantises a slice.
    pub fn quantize_all(self, xs: &[f32]) -> Vec<i8> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }

    /// Dequantises a slice.
    pub fn dequantize_all(self, qs: &[i8]) -> Vec<f32> {
        qs.iter().map(|&q| self.dequantize(q)).collect()
    }
}

impl Default for QuantScale {
    fn default() -> QuantScale {
        QuantScale::UNIT
    }
}

impl fmt::Display for QuantScale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "int8 scale {:.6}", self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_maps_extreme_to_127() {
        let s = QuantScale::fit(&[3.0, -6.0, 1.5]);
        assert_eq!(s.quantize(-6.0), -127);
        assert_eq!(s.quantize(6.0), 127);
        assert_eq!(s.quantize(0.0), 0);
    }

    #[test]
    fn round_trip_error_is_bounded_by_half_step() {
        let s = QuantScale::fit(&[1.0]);
        for i in -100..=100 {
            let x = i as f32 / 100.0;
            let err = (s.dequantize(s.quantize(x)) - x).abs();
            assert!(err <= s.scale() / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let s = QuantScale::new(0.01);
        assert_eq!(s.quantize(100.0), 127);
        assert_eq!(s.quantize(-100.0), -127);
    }

    #[test]
    fn zero_input_degenerates_gracefully() {
        let s = QuantScale::fit(&[0.0, 0.0]);
        assert_eq!(s.quantize(0.0), 0);
        assert_eq!(s, QuantScale::UNIT);
        let empty = QuantScale::fit(&[]);
        assert_eq!(empty, QuantScale::UNIT);
    }

    #[test]
    fn slice_helpers_round_trip() {
        let xs = [0.5f32, -0.25, 0.125];
        let s = QuantScale::fit(&xs);
        let qs = s.quantize_all(&xs);
        let back = s.dequantize_all(&qs);
        for (x, b) in xs.iter().zip(&back) {
            assert!((x - b).abs() <= s.scale() / 2.0 + 1e-6);
        }
    }

    /// The formula `quantize` replaces.
    fn rounded(x: f32, s: QuantScale) -> i8 {
        (x / s.scale()).round().clamp(-127.0, 127.0) as i8
    }

    #[test]
    fn quantize_rounds_edge_values_like_f32_round() {
        let edges = [
            0.5f32,
            0.49999997,
            1.5,
            2.5,
            126.5,
            127.5,
            0.0,
            f32::from_bits(1),
            2147483648.0,
            f32::INFINITY,
        ];
        for s in [QuantScale::UNIT, QuantScale::new(1.0 / 64.0)] {
            for v in edges.into_iter().flat_map(|v| [v, -v]).chain([f32::NAN]) {
                // Each edge as the input, and as the quotient.
                for x in [v, v * s.scale()] {
                    assert_eq!(s.quantize(x), rounded(x, s), "{x:e} at {s}");
                }
            }
        }
    }

    #[test]
    #[ignore = "exhaustive, about 30 s in release: cargo test --release -p maddpipe-amm quant::tests::quantize_matches_f32_round_on_every_f32 -- --ignored"]
    fn quantize_matches_f32_round_on_every_f32() {
        let s = QuantScale::UNIT;
        let mismatches = (0..=u32::MAX)
            .map(f32::from_bits)
            .filter(|&x| s.quantize(x) != rounded(x, s))
            .count();
        assert_eq!(mismatches, 0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn bad_scale_rejected() {
        let _ = QuantScale::new(-1.0);
    }
}
