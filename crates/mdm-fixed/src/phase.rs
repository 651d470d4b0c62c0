//! The phase register of the WINE-2 DFT pipeline.
//!
//! The pipeline forms `θ = 2π k⃗·r⃗` (paper eqs. 9–11). With fractional
//! particle coordinates `s⃗ = r⃗/L ∈ [0,1)` and integer wave vectors `n⃗`
//! (`k⃗ = n⃗/L`), the phase *in turns* is `n⃗·s⃗`, and only its fractional
//! part matters. Storing the turn count in a 32-bit register makes the
//! `mod 1` reduction free: two's-complement wrap-around on add and
//! multiply **is** the phase reduction. This is the key trick that lets a
//! fixed-point pipeline evaluate `sin(2π k⃗·r⃗)` for arbitrarily large
//! `k⃗·r⃗` without any range-reduction hardware.

use crate::fx::Fx;

/// A phase angle stored as a 32-bit unsigned fraction of a full turn:
/// `raw / 2³²` turns, i.e. `θ = 2π · raw / 2³²` radians.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Phase32 {
    raw: u32,
}

impl Phase32 {
    /// Phase zero.
    pub const ZERO: Self = Self { raw: 0 };
    /// Half a turn (π radians).
    pub const HALF_TURN: Self = Self { raw: 1 << 31 };
    /// A quarter turn (π/2 radians).
    pub const QUARTER_TURN: Self = Self { raw: 1 << 30 };

    /// Construct from the raw 32-bit turn fraction.
    #[inline]
    pub const fn from_raw(raw: u32) -> Self {
        Self { raw }
    }

    /// The raw 32-bit turn fraction.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.raw
    }

    /// Quantise a phase given in turns (`1.0` = full circle). Any integer
    /// part is discarded by the wrap, which is exact.
    #[inline]
    pub fn from_turns(turns: f64) -> Self {
        // rem_euclid keeps the fractional part in [0,1) even for negative
        // input before quantisation, so the cast below cannot overflow.
        let frac = turns.rem_euclid(1.0);
        let raw = (frac * 4_294_967_296.0).round();
        // frac < 1.0 but rounding can hit exactly 2^32; that is phase 0.
        Self {
            raw: if raw >= 4_294_967_296.0 { 0 } else { raw as u32 },
        }
    }

    /// Quantise a phase given in radians.
    #[inline]
    pub fn from_radians(radians: f64) -> Self {
        Self::from_turns(radians / std::f64::consts::TAU)
    }

    /// The phase in turns, in `[0, 1)`.
    #[inline]
    pub fn to_turns(self) -> f64 {
        self.raw as f64 / 4_294_967_296.0
    }

    /// The phase in radians, in `[0, 2π)`.
    #[inline]
    pub fn to_radians(self) -> f64 {
        self.to_turns() * std::f64::consts::TAU
    }

    /// Wrapping phase addition (hardware adder).
    #[inline]
    pub fn wrapping_add(self, rhs: Self) -> Self {
        Self {
            raw: self.raw.wrapping_add(rhs.raw),
        }
    }

    /// Wrapping phase negation (conjugate wave).
    #[inline]
    pub fn wrapping_neg(self) -> Self {
        Self {
            raw: self.raw.wrapping_neg(),
        }
    }

    /// Multiply this phase by a (signed) integer, wrapping. This is how
    /// the inner product `n⃗·s⃗` is accumulated: each coordinate `sₓ` is a
    /// turn fraction, multiplied by the integer wave component `nₓ`.
    #[inline]
    pub fn wrapping_mul_int(self, n: i32) -> Self {
        Self {
            raw: self.raw.wrapping_mul(n as u32),
        }
    }

    /// The inner-product stage of the DFT pipeline: `θ = Σₓ nₓ sₓ` in
    /// turns, with every add and multiply wrapping. `coords` are the
    /// fractional particle coordinates as phases.
    #[inline]
    pub fn dot(n: [i32; 3], coords: [Phase32; 3]) -> Self {
        coords[0]
            .wrapping_mul_int(n[0])
            .wrapping_add(coords[1].wrapping_mul_int(n[1]))
            .wrapping_add(coords[2].wrapping_mul_int(n[2]))
    }

    /// Take the top `bits` bits as a table index, and return the remaining
    /// low bits as the interpolation fraction in `[0,1)` quantised to a
    /// `Fx<32,30>`. This is the address split the sine-table stage uses.
    #[inline]
    pub fn split_index(self, bits: u32) -> (usize, Fx<32, 30>) {
        debug_assert!(bits > 0 && bits < 32);
        let index = (self.raw >> (32 - bits)) as usize;
        let low = self.raw & ((1u32 << (32 - bits)) - 1);
        // Scale low bits to a [0,1) fraction in Q30.
        let frac_raw = if 32 - bits >= 30 {
            (low >> (32 - bits - 30)) as i64
        } else {
            (low as i64) << (30 - (32 - bits))
        };
        (index, Fx::<32, 30>::wrap(frac_raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_turns_wraps_integer_part_exactly() {
        let a = Phase32::from_turns(0.25);
        let b = Phase32::from_turns(7.25);
        let c = Phase32::from_turns(-0.75);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn from_turns_lands_within_half_a_step() {
        // The wrapped residual against the input's fractional part is at
        // most half of the 2⁻³² turn step, 2⁻³³, including the inputs
        // that round up to a full turn, i.e. to phase 0.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let check = |turns: f64| {
            let d = (turns.rem_euclid(1.0) - Phase32::from_turns(turns).to_turns()).abs();
            let residual = d.min(1.0 - d);
            assert!(residual <= 2f64.powi(-33), "{turns:e}: residual {residual:e}");
        };
        for _ in 0..1_000_000 {
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            check(unit);
            check(16.0 * unit - 8.0);
            check((unit - 0.5) * 2f64.powi((next() % 80) as i32 - 60));
        }
        let step = 2f64.powi(-32);
        let (half, full) = (1i64 << 31, 1i64 << 32);
        for k in (0..4096).chain(half - 4096..half + 4096).chain(full - 4096..full) {
            let tie = (k as f64 + 0.5) * step;
            for t in [tie, tie.next_up(), tie.next_down()] {
                check(t);
            }
        }
    }

    #[test]
    fn radians_round_trip() {
        let p = Phase32::from_radians(1.0);
        assert!((p.to_radians() - 1.0).abs() < 1e-8);
    }

    #[test]
    fn add_wraps_mod_one_turn() {
        let a = Phase32::from_turns(0.75);
        let b = Phase32::from_turns(0.5);
        let c = a.wrapping_add(b);
        assert!((c.to_turns() - 0.25).abs() < 1e-8);
    }

    #[test]
    fn mul_int_matches_float_mod() {
        let s = Phase32::from_turns(0.123_456_789);
        let p = s.wrapping_mul_int(37);
        let expect = (0.123_456_789f64 * 37.0).rem_euclid(1.0);
        assert!((p.to_turns() - expect).abs() < 1e-7);
        let pn = s.wrapping_mul_int(-37);
        let expect_n = (-0.123_456_789f64 * 37.0).rem_euclid(1.0);
        assert!((pn.to_turns() - expect_n).abs() < 1e-7);
    }

    #[test]
    fn dot_matches_float() {
        let s = [
            Phase32::from_turns(0.1),
            Phase32::from_turns(0.77),
            Phase32::from_turns(0.345),
        ];
        let n = [3, -5, 12];
        let theta = Phase32::dot(n, s);
        let expect = (3.0 * 0.1 - 5.0 * 0.77 + 12.0 * 0.345f64).rem_euclid(1.0);
        assert!((theta.to_turns() - expect).abs() < 1e-7);
    }

    #[test]
    fn split_index_partitions_the_word() {
        let p = Phase32::from_turns(0.5 + 1.0 / 4096.0 * 0.5); // index 2048, frac 0.5 for 12-bit split
        let (idx, frac) = p.split_index(12);
        assert_eq!(idx, 2048);
        assert!((frac.to_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn split_index_zero_frac() {
        let p = Phase32::from_turns(0.25);
        let (idx, frac) = p.split_index(12);
        assert_eq!(idx, 1024);
        assert_eq!(frac.to_f64(), 0.0);
    }
}
