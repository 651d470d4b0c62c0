//! Width/fraction-parameterised two's-complement fixed-point numbers.
//!
//! `Fx<WIDTH, FRAC>` models a hardware register of `WIDTH` bits holding a
//! signed two's-complement value with `FRAC` fractional bits. Arithmetic
//! follows the conventions of a fixed-point ASIC datapath:
//!
//! * **add/sub wrap** (two's-complement overflow, no saturation, no trap) —
//!   exactly what a ripple of full adders does;
//! * **multiply truncates** toward negative infinity (an arithmetic right
//!   shift of the double-width product), which is what dropping the low
//!   product bits does in hardware;
//! * conversions to/from `f64` round to nearest.
//!
//! `WIDTH` must be in `1..=63` so the raw value always fits an `i64` with
//! room for the sign.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A `WIDTH`-bit two's-complement fixed-point number with `FRAC`
/// fractional bits, stored sign-extended in an `i64`.
///
/// The representable range is `[-2^(WIDTH-1-FRAC), 2^(WIDTH-1-FRAC))` with
/// resolution `2^-FRAC`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx<const WIDTH: u32, const FRAC: u32> {
    raw: i64,
}

impl<const WIDTH: u32, const FRAC: u32> Fx<WIDTH, FRAC> {
    /// Number of bits in the register.
    pub const WIDTH: u32 = WIDTH;
    /// Number of fractional bits.
    pub const FRAC: u32 = FRAC;
    /// Zero.
    pub const ZERO: Self = Self { raw: 0 };
    /// One unit in the last place (the resolution of the format).
    pub const EPSILON: Self = Self { raw: 1 };

    const fn assert_params() {
        assert!(WIDTH >= 1 && WIDTH <= 63, "Fx WIDTH must be in 1..=63");
        assert!(FRAC <= WIDTH, "Fx FRAC must be <= WIDTH");
    }

    /// Largest representable value, `2^(WIDTH-1) - 1` raw.
    #[inline]
    pub const fn max_value() -> Self {
        Self::assert_params();
        Self {
            raw: (1i64 << (WIDTH - 1)) - 1,
        }
    }

    /// Most negative representable value, `-2^(WIDTH-1)` raw.
    #[inline]
    pub const fn min_value() -> Self {
        Self::assert_params();
        Self {
            raw: -(1i64 << (WIDTH - 1)),
        }
    }

    /// Wrap an arbitrary `i64` into the `WIDTH`-bit two's-complement range
    /// by discarding high bits and sign-extending — the bit pattern a
    /// `WIDTH`-bit register would actually hold.
    #[inline]
    pub const fn wrap(raw: i64) -> Self {
        Self::assert_params();
        let shift = 64 - WIDTH;
        Self {
            raw: (raw << shift) >> shift,
        }
    }

    /// Construct from a raw register value that is already in range.
    ///
    /// # Panics
    /// Panics in debug builds if `raw` is outside the `WIDTH`-bit range.
    #[inline]
    pub fn from_raw(raw: i64) -> Self {
        debug_assert!(
            raw >= Self::min_value().raw && raw <= Self::max_value().raw,
            "raw value {raw} out of range for Fx<{WIDTH},{FRAC}>"
        );
        Self { raw }
    }

    /// The raw two's-complement register contents.
    #[inline]
    pub const fn raw(self) -> i64 {
        self.raw
    }

    /// Quantise an `f64` to this format, rounding to nearest and
    /// **wrapping** on overflow (as a hardware conversion that only keeps
    /// the low bits would).
    #[inline]
    pub fn from_f64(value: f64) -> Self {
        let scaled = value * (1i64 << FRAC) as f64;
        // Round to nearest, ties away from zero (matches `f64::round`).
        Self::wrap(scaled.round() as i64)
    }

    /// Quantise an `f64`, saturating at the format limits instead of
    /// wrapping. Hosts preparing coefficients for the boards used
    /// saturation to avoid catastrophic wrap-around.
    #[inline]
    pub fn from_f64_saturating(value: f64) -> Self {
        let scaled = (value * (1i64 << FRAC) as f64).round();
        let max = Self::max_value().raw as f64;
        let min = Self::min_value().raw as f64;
        Self {
            raw: scaled.clamp(min, max) as i64,
        }
    }

    /// Whether [`Self::from_f64_saturating`] would clamp `value` — the
    /// hook for numeric-health counters: saturation is silent at the
    /// datapath level (that is the hardware behaviour), but telemetry
    /// wants to know it happened. Non-finite inputs count as
    /// saturating.
    #[inline]
    pub fn saturates(value: f64) -> bool {
        if !value.is_finite() {
            return true;
        }
        let scaled = (value * (1i64 << FRAC) as f64).round();
        scaled > Self::max_value().raw as f64 || scaled < Self::min_value().raw as f64
    }

    /// [`Self::from_f64_saturating`] and [`Self::saturates`] of one value
    /// in one rounding, bit for bit: the register and whether it clamped.
    ///
    /// Below 2⁴⁰ in register units the scaled value is truncated to an
    /// integer and the exact remainder rounds it half away from zero, as
    /// `f64::round` does, with no libm call; larger and non-finite inputs
    /// take the two functions themselves.
    #[inline]
    pub fn quantize(value: f64) -> (Self, bool) {
        let scaled = value * (1i64 << FRAC) as f64;
        if scaled.abs() < (1u64 << 40) as f64 {
            // Both conversions are exact: |scaled| < 2⁴⁰ < 2⁵³.
            let truncated = scaled as i64;
            let remainder = scaled - truncated as f64;
            let rounded = truncated + i64::from(remainder >= 0.5) - i64::from(remainder <= -0.5);
            let (min, max) = (Self::min_value().raw, Self::max_value().raw);
            (Self { raw: rounded.clamp(min, max) }, rounded < min || rounded > max)
        } else {
            // NaN lands here too.
            (Self::from_f64_saturating(value), Self::saturates(value))
        }
    }

    /// Exact conversion back to `f64` (always exact: `WIDTH <= 63 <= 53`?
    /// No — values wider than 53 bits may round, but the default 32-bit
    /// datapath converts exactly).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.raw as f64 / (1i64 << FRAC) as f64
    }

    /// Wrapping negation (note `-min_value()` wraps back to `min_value()`,
    /// the classic two's-complement edge case).
    #[inline]
    pub fn wrapping_neg(self) -> Self {
        Self::wrap(self.raw.wrapping_neg())
    }

    /// Absolute value with two's-complement wrap on `min_value()`.
    #[inline]
    pub fn wrapping_abs(self) -> Self {
        Self::wrap(self.raw.wrapping_abs())
    }

    /// Full-precision multiply of two registers of *this* format,
    /// truncating the product back to `FRAC` fractional bits (arithmetic
    /// shift — rounds toward −∞ like hardware bit-dropping).
    #[inline]
    pub fn mul_trunc(self, rhs: Self) -> Self {
        if WIDTH * 2 <= 64 {
            // Both factors fit WIDTH bits, so the double-width product
            // fits an i64 and the wide multiply can stay in one word.
            // The branch is on a const generic and folds at compile time.
            Self::wrap((self.raw * rhs.raw) >> FRAC)
        } else {
            let prod = (self.raw as i128) * (rhs.raw as i128);
            Self::wrap((prod >> FRAC) as i64)
        }
    }

    /// Multiply by a register of a *different* format, truncating to this
    /// format. Used when the pipeline multiplies a datapath value by a
    /// coefficient stored at a different precision.
    #[inline]
    pub fn mul_trunc_other<const W2: u32, const F2: u32>(self, rhs: Fx<W2, F2>) -> Self {
        if WIDTH + W2 <= 64 {
            Self::wrap((self.raw * rhs.raw) >> F2)
        } else {
            let prod = (self.raw as i128) * (rhs.raw as i128);
            Self::wrap((prod >> F2) as i64)
        }
    }

    /// Arithmetic shift right (divide by a power of two, rounding toward −∞).
    ///
    /// Deliberately an inherent method, not `std::ops::Shr`: the name
    /// mirrors the hardware barrel-shifter stage it emulates.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn shr(self, bits: u32) -> Self {
        Self { raw: self.raw >> bits }
    }

    /// Arithmetic shift left with wrap.
    ///
    /// Inherent for the same reason as [`Fx::shr`].
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn shl(self, bits: u32) -> Self {
        Self::wrap(self.raw << bits)
    }

    /// Requantise into another width/fraction format (shift + wrap), as a
    /// hardware stage boundary does.
    #[inline]
    pub fn convert<const W2: u32, const F2: u32>(self) -> Fx<W2, F2> {
        let raw = if F2 >= FRAC {
            self.raw << (F2 - FRAC)
        } else {
            self.raw >> (FRAC - F2)
        };
        Fx::<W2, F2>::wrap(raw)
    }
}

impl<const W: u32, const F: u32> Add for Fx<W, F> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::wrap(self.raw.wrapping_add(rhs.raw))
    }
}

impl<const W: u32, const F: u32> AddAssign for Fx<W, F> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const W: u32, const F: u32> Sub for Fx<W, F> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::wrap(self.raw.wrapping_sub(rhs.raw))
    }
}

impl<const W: u32, const F: u32> SubAssign for Fx<W, F> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const W: u32, const F: u32> Mul for Fx<W, F> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        self.mul_trunc(rhs)
    }
}

impl<const W: u32, const F: u32> Neg for Fx<W, F> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        self.wrapping_neg()
    }
}

impl<const W: u32, const F: u32> fmt::Debug for Fx<W, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fx<{W},{F}>({} = {})", self.raw, self.to_f64())
    }
}

impl<const W: u32, const F: u32> fmt::Display for Fx<W, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Q30 = Fx<32, 30>;
    type Q16 = Fx<16, 12>;

    #[test]
    fn zero_and_epsilon() {
        assert_eq!(Q30::ZERO.to_f64(), 0.0);
        assert_eq!(Q30::EPSILON.to_f64(), (2f64).powi(-30));
    }

    #[test]
    fn round_trip_exact_values() {
        for v in [-1.5, -1.0, -0.25, 0.0, 0.25, 0.5, 1.0, 1.999_999_999] {
            let q = Q30::from_f64(v);
            assert!((q.to_f64() - v).abs() <= (2f64).powi(-31), "{v}");
        }
    }

    #[test]
    fn range_limits() {
        assert_eq!(Q30::max_value().to_f64(), 2.0 - (2f64).powi(-30));
        assert_eq!(Q30::min_value().to_f64(), -2.0);
    }

    #[test]
    fn add_wraps_like_two_complement() {
        let max = Q30::max_value();
        let one = Q30::EPSILON;
        // max + 1 ulp wraps to min, the defining two's-complement behaviour.
        assert_eq!(max + one, Q30::min_value());
    }

    #[test]
    fn sub_wraps() {
        let min = Q30::min_value();
        assert_eq!(min - Q30::EPSILON, Q30::max_value());
    }

    #[test]
    fn neg_min_value_wraps_to_itself() {
        assert_eq!(-Q30::min_value(), Q30::min_value());
    }

    #[test]
    fn mul_truncates_toward_neg_inf() {
        // (-1 ulp) * (0.5) = -0.5 ulp, which truncates to -1 ulp (toward -inf).
        let tiny = -Q30::EPSILON;
        let half = Q30::from_f64(0.5);
        assert_eq!(tiny.mul_trunc(half).raw(), -1);
        // Positive case truncates to zero.
        assert_eq!(Q30::EPSILON.mul_trunc(half).raw(), 0);
    }

    #[test]
    fn mul_basic_accuracy() {
        let a = Q30::from_f64(1.25);
        let b = Q30::from_f64(-0.75);
        let p = a * b;
        assert!((p.to_f64() - (-0.9375)).abs() < 2e-9);
    }

    #[test]
    fn saturating_conversion_clamps() {
        assert_eq!(Q30::from_f64_saturating(100.0), Q30::max_value());
        assert_eq!(Q30::from_f64_saturating(-100.0), Q30::min_value());
        // but wrapping conversion wraps
        assert_ne!(Q30::from_f64(100.0), Q30::max_value());
    }

    #[test]
    fn saturates_predicts_clamping() {
        // In-range values do not saturate.
        assert!(!Q30::saturates(0.0));
        assert!(!Q30::saturates(1.5));
        assert!(!Q30::saturates(-2.0)); // exactly min_value
        assert!(!Q30::saturates(Q30::max_value().to_f64()));
        // Out-of-range and non-finite values do.
        assert!(Q30::saturates(2.0)); // one ulp past max
        assert!(Q30::saturates(100.0));
        assert!(Q30::saturates(-2.001));
        assert!(Q30::saturates(f64::INFINITY));
        assert!(Q30::saturates(f64::NAN));
        // Agreement with the conversion itself at the boundary.
        for v in [1.999999999, 2.0, -2.0, -2.0000001] {
            let clamped = Q30::from_f64_saturating(v) != Q30::from_f64(v);
            assert_eq!(Q30::saturates(v), clamped, "{v}");
        }
    }

    #[test]
    fn quantize_is_the_saturating_conversion_and_its_flag() {
        fn check(v: f64) {
            let got = Q30::quantize(v);
            let want = (Q30::from_f64_saturating(v), Q30::saturates(v));
            assert_eq!(got, want, "{v:e} ({:016x})", v.to_bits());
            // Unsaturated, the register is within half an LSB (2⁻³¹):
            // a saturation is the only way quantisation misses it.
            if !got.1 {
                let residual = (v - got.0.to_f64()).abs();
                assert!(residual <= 2f64.powi(-31), "{v:e}: residual {residual:e}");
            }
        }
        // 3 M values: random bit patterns (every exponent, NaNs and
        // infinities included) and random values in and around the range.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..1_000_000 {
            check(f64::from_bits(next()));
            let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
            check(8.0 * unit - 4.0);
            check((unit - 0.5) * 2f64.powi((next() % 80) as i32 - 40));
        }
        // Exact ties (k + ½) · 2⁻³⁰ across ±2³³ ulps, and the f64 either side.
        let ulp = 2f64.powi(-30);
        let span = 1i64 << 33;
        let ties = (-span..span)
            .step_by(8191)
            .chain(-4096..4096)
            .chain((1i64 << 31) - 4096..(1i64 << 31) + 4096)
            .chain(-(1i64 << 31) - 4096..-(1i64 << 31) + 4096);
        for k in ties {
            let tie = (k as f64 + 0.5) * ulp;
            for v in [tie, tie.next_up(), tie.next_down()] {
                check(v);
            }
        }
        for v in [2.0, -2.0, 1e300, -1e300, 0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            check(v);
        }
        for v in [2.0, -2.0, 1.0, -1.0, 2f64.powi(10), -(2f64.powi(10))] {
            for w in [v, v.next_up(), v.next_down()] {
                check(w);
            }
        }
    }

    #[test]
    fn convert_between_formats() {
        let a = Q30::from_f64(0.4375);
        let b: Q16 = a.convert();
        assert!((b.to_f64() - 0.4375).abs() < 1.0 / 4096.0);
        let c: Q30 = b.convert();
        assert!((c.to_f64() - 0.4375).abs() < 1.0 / 4096.0);
    }

    #[test]
    fn narrow_format_wraps_in_its_own_width() {
        // Q16 range is [-8, 8); 7.9 + 0.2 wraps to ~ -7.9.
        let a = Q16::from_f64(7.9);
        let b = Q16::from_f64(0.2);
        assert!((a + b).to_f64() < 0.0);
    }

    #[test]
    fn mul_other_format() {
        let a = Q30::from_f64(0.5);
        let coeff = Q16::from_f64(3.0);
        let p = a.mul_trunc_other(coeff);
        assert!((p.to_f64() - 1.5).abs() < 1e-3);
    }

    #[test]
    fn shifts() {
        let a = Q30::from_f64(0.5);
        assert!((a.shr(1).to_f64() - 0.25).abs() < 1e-9);
        assert!((a.shl(1).to_f64() - 1.0).abs() < 1e-9);
    }
}
