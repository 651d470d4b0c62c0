//! The sine/cosine stage of the WINE-2 pipeline.
//!
//! Figure 7 of the paper shows a dedicated `sin`/`cos` unit after the
//! inner-product stage. A special-purpose chip implements this as a ROM
//! lookup table plus linear interpolation on the low phase bits. With a
//! 4096-entry table the interpolation error of the sine function is
//! `≤ (2π/4096)²/8 ≈ 2.9×10⁻⁷`, and the Q30 quantisation adds `~10⁻⁹`;
//! combined with the rest of the datapath this yields the ~10⁻⁴·⁵
//! relative force accuracy the paper quotes for `F⃗ᵢ(wn)` (§3.4.4).

use crate::fx::Fx;
use crate::phase::Phase32;

type Q30 = Fx<32, 30>;

/// A lookup-table sine/cosine unit with linear interpolation, all in
/// fixed point.
///
/// The table stores `2^index_bits` samples of one full turn of the sine
/// function in Q30. Cosine is evaluated through the same table with a
/// quarter-turn phase offset, exactly as shared-ROM hardware does.
#[derive(Clone, Debug)]
pub struct SinCosTable {
    /// `sin(2π i / len)` in Q30 for `i in 0..len`, plus a wrap-around
    /// entry at the end so interpolation never branches.
    table: Vec<Q30>,
    /// The same ROM as packed 32-bit words (every Q30 entry fits an
    /// `i32`): what a vectorised sweep builds its own lookup image from.
    words: Vec<i32>,
    index_bits: u32,
}

impl SinCosTable {
    /// Build a table with `2^index_bits` entries (the WINE-2 emulator
    /// default is 12 bits → 4096 entries).
    pub fn new(index_bits: u32) -> Self {
        assert!(
            (4..=20).contains(&index_bits),
            "index_bits must be in 4..=20"
        );
        let len = 1usize << index_bits;
        let mut table = Vec::with_capacity(len + 1);
        for i in 0..=len {
            let angle = std::f64::consts::TAU * i as f64 / len as f64;
            table.push(Q30::from_f64_saturating(angle.sin()));
        }
        let words = table.iter().map(|q| q.raw() as i32).collect();
        Self { table, words, index_bits }
    }

    /// Number of table entries (excluding the wrap-around duplicate).
    pub fn len(&self) -> usize {
        self.table.len() - 1
    }

    /// True if the table is empty (never: kept for API completeness).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// ROM size in bytes (4 bytes per Q30 entry), for hardware inventory
    /// accounting.
    pub fn rom_bytes(&self) -> usize {
        self.len() * 4
    }

    /// The table's index width in bits.
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// The ROM contents as raw Q30 words, wrap-around entry included —
    /// `words()[i]` is `sin(2π·i/len)` as its 32-bit register value, so
    /// `words()[i]` and `words()[i + 1]` are the interpolation endpoints
    /// of index `i`.
    pub fn words(&self) -> &[i32] {
        &self.words
    }

    /// `sin(2π·phase)` evaluated as the hardware does: table lookup on the
    /// high phase bits, linear interpolation on the low bits, all in Q30.
    #[inline]
    pub fn sin(&self, phase: Phase32) -> Q30 {
        let (idx, frac) = phase.split_index(self.index_bits);
        let a = self.table[idx];
        let b = self.table[idx + 1];
        // a + (b - a) * frac, with the hardware's truncating multiply.
        a + (b - a).mul_trunc(frac)
    }

    /// `cos(2π·phase)` via the shared sine ROM with a quarter-turn offset.
    #[inline]
    pub fn cos(&self, phase: Phase32) -> Q30 {
        self.sin(phase.wrapping_add(Phase32::QUARTER_TURN))
    }

    /// Both values with a single address decode, as the paired pipeline
    /// stage produces them.
    #[inline]
    pub fn sin_cos(&self, phase: Phase32) -> (Q30, Q30) {
        (self.sin(phase), self.cos(phase))
    }

    /// Maximum absolute error of the unit against `f64` sine, measured by
    /// dense sampling. Used by accuracy tests and reported in docs.
    pub fn measured_max_error(&self, samples: usize) -> f64 {
        let mut max_err = 0f64;
        for i in 0..samples {
            let turns = i as f64 / samples as f64;
            let p = Phase32::from_turns(turns);
            let approx = self.sin(p).to_f64();
            // Compare against the exact sine of the *quantised* phase: the
            // phase quantisation error belongs to the input, not the unit.
            let exact = (p.to_turns() * std::f64::consts::TAU).sin();
            max_err = max_err.max((approx - exact).abs());
        }
        max_err
    }
}

impl Default for SinCosTable {
    /// The WINE-2 emulator default: 4096-entry ROM.
    fn default() -> Self {
        Self::new(12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinal_points_are_exact() {
        let t = SinCosTable::default();
        assert_eq!(t.sin(Phase32::ZERO).to_f64(), 0.0);
        assert!((t.sin(Phase32::QUARTER_TURN).to_f64() - 1.0).abs() < 2e-9);
        assert!(t.sin(Phase32::HALF_TURN).to_f64().abs() < 2e-9);
        assert!((t.cos(Phase32::ZERO).to_f64() - 1.0).abs() < 2e-9);
        assert!(t.cos(Phase32::QUARTER_TURN).to_f64().abs() < 2e-9);
    }

    #[test]
    fn max_error_within_linear_interp_bound() {
        let t = SinCosTable::default();
        // Theoretical bound: h²/8 · max|sin''| = (2π/4096)²/8 ≈ 2.94e-7,
        // plus quantisation slack.
        let bound = (std::f64::consts::TAU / 4096.0).powi(2) / 8.0 + 4e-9;
        let err = t.measured_max_error(100_000);
        assert!(err <= bound, "err={err} bound={bound}");
    }

    #[test]
    fn pythagorean_identity_approximate() {
        let t = SinCosTable::default();
        for i in 0..1000 {
            let p = Phase32::from_turns(i as f64 / 1000.0 + 0.000_3);
            let (s, c) = t.sin_cos(p);
            let norm = s.to_f64().powi(2) + c.to_f64().powi(2);
            assert!((norm - 1.0).abs() < 2e-6, "phase {i}: norm={norm}");
        }
    }

    #[test]
    fn odd_symmetry() {
        let t = SinCosTable::default();
        for i in 1..100 {
            let p = Phase32::from_turns(i as f64 / 101.0);
            let s1 = t.sin(p).to_f64();
            let s2 = t.sin(p.wrapping_neg()).to_f64();
            assert!((s1 + s2).abs() < 1e-6);
        }
    }

    #[test]
    fn bigger_table_is_more_accurate() {
        let small = SinCosTable::new(8);
        let big = SinCosTable::new(14);
        assert!(big.measured_max_error(20_000) < small.measured_max_error(20_000) / 10.0);
    }

    #[test]
    fn rom_size_accounting() {
        assert_eq!(SinCosTable::default().rom_bytes(), 4096 * 4);
    }
}
