//! Local (within-die) random variation sampling.
//!
//! Global corners shift every device on the die together; *local* variation
//! is the per-instance random mismatch that the paper's per-column
//! read-completion detection is designed to tolerate ("the proposed design
//! features an independent RCD circuit for each column, enabling accurate
//! detection even under high variability conditions", §III-C).
//!
//! To keep `maddpipe-tech` dependency-free, sampling uses a small embedded
//! SplitMix64 generator rather than the `rand` crate; it is deterministic for
//! a given seed, which makes Monte-Carlo experiments reproducible.

use core::fmt;

/// Deterministic SplitMix64 pseudo-random generator.
///
/// SplitMix64 passes BigCrush, needs only 64 bits of state, and is the
/// standard choice for seeding; its statistical quality is more than
/// sufficient for Monte-Carlo mismatch sampling.
///
/// ```
/// use maddpipe_tech::variation::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard-normal sample (Box–Muller; one value per call, the pair's
    /// second member is discarded for simplicity).
    pub fn next_standard_normal(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 > 1e-300 {
                let u2 = self.next_f64();
                let r = (-2.0 * u1.ln()).sqrt();
                return r * (core::f64::consts::TAU * u2).cos();
            }
        }
    }
}

/// A per-instance multiplicative mismatch model: each sampled instance gets a
/// delay multiplier `max(ε, 1 + σ·N(0,1))`.
///
/// ```
/// use maddpipe_tech::variation::Mismatch;
///
/// let mm = Mismatch::new(0.05, 42);
/// let mut m = mm.sampler();
/// let x = m.sample();
/// assert!(x > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    sigma: f64,
    seed: u64,
}

impl Mismatch {
    /// Creates a mismatch model with relative 1σ `sigma` and a seed for
    /// reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64, seed: u64) -> Mismatch {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "mismatch sigma must be a non-negative finite number, got {sigma}"
        );
        Mismatch { sigma, seed }
    }

    /// A zero-variation model: every sample is exactly 1.
    pub fn none() -> Mismatch {
        Mismatch::new(0.0, 0)
    }

    /// Relative 1σ of this model.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Creates a fresh deterministic sampler over this distribution.
    pub fn sampler(&self) -> MismatchSampler {
        MismatchSampler {
            rng: SplitMix64::new(self.seed),
            sigma: self.sigma,
        }
    }
}

impl Default for Mismatch {
    fn default() -> Mismatch {
        Mismatch::none()
    }
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "mismatch σ = {:.1} % (seed {})",
            self.sigma * 100.0,
            self.seed
        )
    }
}

/// Stream of per-instance delay multipliers produced by [`Mismatch::sampler`].
#[derive(Debug, Clone)]
pub struct MismatchSampler {
    rng: SplitMix64,
    sigma: f64,
}

impl MismatchSampler {
    /// Next delay multiplier. Clamped below at 0.05 so a pathological tail
    /// sample can never produce a non-physical negative delay. Without
    /// mismatch every multiplier is exactly 1, so no normal is drawn.
    pub fn sample(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        (1.0 + self.sigma * self.rng.next_standard_normal()).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_not_constant() {
        let mut a = SplitMix64::new(123);
        let mut b = SplitMix64::new(123);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SplitMix64::new(5);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = SplitMix64::new(99);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.next_standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn zero_sigma_always_yields_one() {
        let mut s = Mismatch::none().sampler();
        for _ in 0..100 {
            assert_eq!(s.sample(), 1.0);
        }
    }

    #[test]
    fn sampler_spread_tracks_sigma() {
        let mut s = Mismatch::new(0.10, 7).sampler();
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|_| s.sample()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let sd = (xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((sd - 0.10).abs() < 0.01, "sd {sd}");
    }

    #[test]
    fn samples_never_non_positive() {
        let mut s = Mismatch::new(2.0, 3).sampler(); // absurd sigma
        for _ in 0..10_000 {
            assert!(s.sample() > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_rejected() {
        let _ = Mismatch::new(-0.1, 0);
    }
}
