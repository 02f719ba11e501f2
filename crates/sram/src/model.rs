//! Behavioural model of the paper's two-port 10T-SRAM LUT array.
//!
//! The decoder LUT is a 16-row × 8-column array (§III-C): 16 rows because
//! the 4-level BDT encoder produces 16 prototypes, 8 columns because LUT
//! entries are INT8. The *10T* cell is a standard 6T storage core plus a
//! 4-transistor differential read port (read wordline + RBL/RBLB pull-down
//! pair), giving an independent read port that never disturbs the cell —
//! which is what lets the macro read at full speed without sense
//! amplifiers.
//!
//! [`SramModel`] is the functional view (used by the analytic PPA model and
//! by tests); the event-driven circuit view lives in [`crate::column`].
//! [`SramModel::column_word`] splits the array into the per-column words
//! the circuit's columns store, both at build time and when a LUT is
//! reprogrammed, mirroring the paper's "prior to the inference, the
//! precomputed dot products ... are loaded" flow.

use core::fmt;
use maddpipe_sim::cells::READ_COLUMN_ROWS;

/// Rows in a decoder LUT (one per prototype).
pub const ROWS: usize = READ_COLUMN_ROWS;

/// Columns in a decoder LUT (one per INT8 bit).
pub const COLS: usize = 8;

/// A functional 16×8 two-port SRAM array storing 16 INT8 LUT entries.
///
/// ```
/// use maddpipe_sram::model::SramModel;
///
/// let mut lut = SramModel::new();
/// lut.write(3, -42i8 as u8);
/// assert_eq!(lut.read(3) as i8, -42);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SramModel {
    words: [u8; ROWS],
}

impl SramModel {
    /// Creates a zeroed array.
    pub fn new() -> SramModel {
        SramModel::default()
    }

    /// Creates an array pre-loaded with a LUT image.
    pub fn from_words(words: [u8; ROWS]) -> SramModel {
        SramModel { words }
    }

    /// Writes one row (the global write driver path of Fig. 2).
    ///
    /// # Panics
    ///
    /// Panics if `row ≥ 16`.
    pub fn write(&mut self, row: usize, word: u8) {
        assert!(row < ROWS, "row {row} out of range");
        self.words[row] = word;
    }

    /// Reads one row through the independent read port.
    ///
    /// # Panics
    ///
    /// Panics if `row ≥ 16`.
    pub fn read(&self, row: usize) -> u8 {
        assert!(row < ROWS, "row {row} out of range");
        self.words[row]
    }

    /// Reads one row as the signed LUT entry it encodes.
    pub fn read_i8(&self, row: usize) -> i8 {
        self.read(row) as i8
    }

    /// All stored words.
    pub fn words(&self) -> &[u8; ROWS] {
        &self.words
    }

    /// The bit of (`row`, `col`), LSB-first — what one physical column
    /// stores at one row.
    pub fn bit(&self, row: usize, col: usize) -> bool {
        assert!(col < COLS, "column {col} out of range");
        self.read(row) >> col & 1 == 1
    }

    /// The bits physical column `col` stores, as one word: bit `r` is
    /// row `r` (what a circuit column is built or reprogrammed with).
    ///
    /// # Panics
    ///
    /// Panics if `col ≥ 8`.
    pub fn column_word(&self, col: usize) -> u16 {
        (0..ROWS).fold(0, |w, r| w | u16::from(self.bit(r, col)) << r)
    }
}

impl fmt::Display for SramModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SramModel[")?;
        for (i, w) in self.words.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{:02x}", w)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip_all_rows() {
        let mut m = SramModel::new();
        for r in 0..ROWS {
            m.write(r, (r as u8).wrapping_mul(17).wrapping_add(3));
        }
        for r in 0..ROWS {
            assert_eq!(m.read(r), (r as u8).wrapping_mul(17).wrapping_add(3));
        }
    }

    #[test]
    fn signed_view_is_twos_complement() {
        let mut m = SramModel::new();
        m.write(0, 0xFF);
        assert_eq!(m.read_i8(0), -1);
        m.write(1, 0x80);
        assert_eq!(m.read_i8(1), -128);
    }

    #[test]
    fn bits_are_lsb_first() {
        let mut m = SramModel::new();
        m.write(5, 0b0000_0101);
        assert!(m.bit(5, 0));
        assert!(!m.bit(5, 1));
        assert!(m.bit(5, 2));
    }

    #[test]
    fn column_words_round_trip() {
        let mut m = SramModel::new();
        for r in 0..ROWS {
            m.write(r, (r * 13 % 256) as u8);
        }
        // Reassembling the rows from the column words gives the array back.
        let back = SramModel::from_words(std::array::from_fn(|r| {
            (0..COLS).fold(0, |w, c| w | ((m.column_word(c) >> r & 1) as u8) << c)
        }));
        assert_eq!(back, m);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_bounds_checked() {
        let m = SramModel::new();
        let _ = m.read(16);
    }

    #[test]
    fn display_shows_contents() {
        let mut m = SramModel::new();
        m.write(0, 0xAB);
        assert!(m.to_string().starts_with("SramModel[ab"));
    }
}
