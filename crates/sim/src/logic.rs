//! Three-valued digital logic.
//!
//! Nets carry [`Logic::Low`], [`Logic::High`] or [`Logic::X`] (unknown).
//! `X` models uninitialised state and un-precharged dynamic nodes; it
//! propagates pessimistically through the standard-cell operators defined
//! here (e.g. `NAND(X, Low) = High` because one controlling input decides the
//! output, but `NAND(X, High) = X`).
//!
//! The operators are truth tables indexed by the levels' fixed
//! discriminants (`Low = 0`, `High = 1`, `X = 2`), not chains of
//! comparisons: the event kernel evaluates a gate with one load and no
//! branch on its inputs' levels. The kernel's other level-dependent
//! choices (the gate tables of [`cells`](crate::cells), the delay arc of
//! [`SampledTiming::for_value`](crate::library::SampledTiming::for_value),
//! the rise or fall energy of an edge) index by the same discriminants.

use core::fmt;
use core::ops::Not;

/// A three-valued logic level. The discriminants are fixed, because
/// tables throughout the crate are indexed by them.
///
/// ```
/// use maddpipe_sim::logic::Logic;
///
/// assert_eq!(Logic::High & Logic::X, Logic::X);   // unknown dominates
/// assert_eq!(Logic::Low & Logic::X, Logic::Low);  // controlling value wins
/// assert_eq!(!Logic::Low, Logic::High);
/// assert_eq!(Logic::X as u8, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[repr(u8)]
pub enum Logic {
    /// Logic 0 / VSS.
    Low = 0,
    /// Logic 1 / VDD.
    High = 1,
    /// Unknown or uninitialised.
    #[default]
    X = 2,
}

use Logic::{High as H, Low as L, X};

/// `!a`, indexed by `a`.
pub(crate) const NOT: [Logic; 3] = [H, L, X];
/// `a & b`, indexed by `[a][b]`: a `Low` input decides the output.
pub(crate) const AND: [[Logic; 3]; 3] = [[L, L, L], [L, H, X], [L, X, X]];
/// `a | b`, indexed by `[a][b]`: a `High` input decides the output.
pub(crate) const OR: [[Logic; 3]; 3] = [[L, H, X], [H, H, H], [X, H, X]];
/// `a ^ b`, indexed by `[a][b]`: any `X` input gives `X`.
pub(crate) const XOR: [[Logic; 3]; 3] = [[L, H, X], [H, L, X], [X, X, X]];

impl Logic {
    /// Converts a `bool` to a logic level.
    #[inline]
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::High
        } else {
            Logic::Low
        }
    }

    /// `Some(bool)` when the level is known, `None` for `X`.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Low => Some(false),
            Logic::High => Some(true),
            Logic::X => None,
        }
    }

    /// `true` only for [`Logic::High`].
    #[inline]
    pub fn is_high(self) -> bool {
        self == Logic::High
    }

    /// `true` only for [`Logic::Low`].
    #[inline]
    pub fn is_low(self) -> bool {
        self == Logic::Low
    }

    /// `true` for [`Logic::X`].
    #[inline]
    pub fn is_unknown(self) -> bool {
        self == Logic::X
    }

    /// Three-valued AND over an iterator (identity [`Logic::High`]).
    pub fn and_all<I: IntoIterator<Item = Logic>>(levels: I) -> Logic {
        levels.into_iter().fold(Logic::High, |a, b| a & b)
    }

    /// Three-valued OR over an iterator (identity [`Logic::Low`]).
    pub fn or_all<I: IntoIterator<Item = Logic>>(levels: I) -> Logic {
        levels.into_iter().fold(Logic::Low, |a, b| a | b)
    }

    /// The single character VCD uses for this level.
    #[inline]
    pub fn vcd_char(self) -> char {
        match self {
            Logic::Low => '0',
            Logic::High => '1',
            Logic::X => 'x',
        }
    }
}

impl Not for Logic {
    type Output = Logic;
    #[inline]
    fn not(self) -> Logic {
        NOT[self as usize]
    }
}

impl core::ops::BitAnd for Logic {
    type Output = Logic;
    #[inline]
    fn bitand(self, rhs: Logic) -> Logic {
        AND[self as usize][rhs as usize]
    }
}

impl core::ops::BitOr for Logic {
    type Output = Logic;
    #[inline]
    fn bitor(self, rhs: Logic) -> Logic {
        OR[self as usize][rhs as usize]
    }
}

impl core::ops::BitXor for Logic {
    type Output = Logic;
    #[inline]
    fn bitxor(self, rhs: Logic) -> Logic {
        XOR[self as usize][rhs as usize]
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Logic {
        Logic::from_bool(b)
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Logic::Low => "0",
            Logic::High => "1",
            Logic::X => "x",
        })
    }
}

/// Packs a little-endian slice of logic levels into an integer.
///
/// Returns `None` if any bit is `X`.
///
/// ```
/// use maddpipe_sim::logic::{bits_to_u64, Logic};
/// let bits = [Logic::High, Logic::Low, Logic::High]; // LSB first: 0b101
/// assert_eq!(bits_to_u64(&bits), Some(5));
/// ```
pub fn bits_to_u64(bits: &[Logic]) -> Option<u64> {
    assert!(bits.len() <= 64, "too many bits for u64: {}", bits.len());
    let mut acc = 0u64;
    for (i, b) in bits.iter().enumerate() {
        match b.to_bool() {
            Some(true) => acc |= 1 << i,
            Some(false) => {}
            None => return None,
        }
    }
    Some(acc)
}

/// Unpacks the low `n` bits of `value` into little-endian logic levels.
///
/// ```
/// use maddpipe_sim::logic::{u64_to_bits, Logic};
/// assert_eq!(u64_to_bits(5, 3), vec![Logic::High, Logic::Low, Logic::High]);
/// ```
pub fn u64_to_bits(value: u64, n: usize) -> Vec<Logic> {
    assert!(n <= 64, "too many bits for u64: {n}");
    (0..n)
        .map(|i| Logic::from_bool(value >> i & 1 == 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Logic; 3] = [Logic::Low, Logic::High, Logic::X];

    #[test]
    fn not_truth_table() {
        assert_eq!(!Logic::Low, Logic::High);
        assert_eq!(!Logic::High, Logic::Low);
        assert_eq!(!Logic::X, Logic::X);
    }

    #[test]
    fn and_controlling_low_wins_over_x() {
        assert_eq!(Logic::Low & Logic::X, Logic::Low);
        assert_eq!(Logic::X & Logic::Low, Logic::Low);
        assert_eq!(Logic::High & Logic::X, Logic::X);
        assert_eq!(Logic::High & Logic::High, Logic::High);
    }

    #[test]
    fn or_controlling_high_wins_over_x() {
        assert_eq!(Logic::High | Logic::X, Logic::High);
        assert_eq!(Logic::X | Logic::High, Logic::High);
        assert_eq!(Logic::Low | Logic::X, Logic::X);
        assert_eq!(Logic::Low | Logic::Low, Logic::Low);
    }

    #[test]
    fn xor_is_strict_about_x() {
        assert_eq!(Logic::High ^ Logic::Low, Logic::High);
        assert_eq!(Logic::High ^ Logic::High, Logic::Low);
        assert_eq!(Logic::High ^ Logic::X, Logic::X);
    }

    /// Every operator over every input, against literal tables: rows are
    /// the left operand and columns the right, both in `ALL` order. The
    /// tables are indexed by the discriminants, so those are pinned too.
    #[test]
    fn operators_match_their_truth_tables() {
        use Logic::{High as H, Low as L, X};
        assert_eq!(ALL.map(|v| v as u8), [0, 1, 2]);
        let table = |op: fn(Logic, Logic) -> Logic| ALL.map(|a| ALL.map(|b| op(a, b)));
        assert_eq!(ALL.map(|a| !a), [H, L, X]);
        assert_eq!(table(|a, b| a & b), [[L, L, L], [L, H, X], [L, X, X]]);
        assert_eq!(table(|a, b| a | b), [[L, H, X], [H, H, H], [X, H, X]]);
        assert_eq!(table(|a, b| a ^ b), [[L, H, X], [H, L, X], [X, X, X]]);
    }

    #[test]
    fn demorgan_holds_in_three_valued_logic() {
        for a in ALL {
            for b in ALL {
                assert_eq!(!(a & b), !a | !b);
                assert_eq!(!(a | b), !a & !b);
            }
        }
    }

    #[test]
    fn reductions() {
        assert_eq!(
            Logic::and_all([Logic::High, Logic::High, Logic::High]),
            Logic::High
        );
        assert_eq!(
            Logic::and_all([Logic::High, Logic::Low, Logic::X]),
            Logic::Low
        );
        assert_eq!(Logic::or_all([Logic::Low, Logic::X]), Logic::X);
        assert_eq!(Logic::and_all([]), Logic::High);
        assert_eq!(Logic::or_all([]), Logic::Low);
    }

    #[test]
    fn bool_round_trip() {
        assert_eq!(Logic::from_bool(true).to_bool(), Some(true));
        assert_eq!(Logic::from_bool(false).to_bool(), Some(false));
        assert_eq!(Logic::X.to_bool(), None);
        assert_eq!(Logic::from(true), Logic::High);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for v in [0u64, 1, 5, 0xAB, 0xFFFF] {
            assert_eq!(bits_to_u64(&u64_to_bits(v, 16)), Some(v & 0xFFFF));
        }
        assert_eq!(bits_to_u64(&[Logic::X]), None);
    }
}
