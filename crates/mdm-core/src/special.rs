//! Special functions implemented from scratch.
//!
//! The Ewald real-space kernel needs the complementary error function
//! `erfc(x)` (paper eq. 2). Rust's standard library has neither `erf`
//! nor `erfc`, and no external math crate is on the approved list, so
//! both are built here from two defining expansions:
//!
//! * the Maclaurin series of `erf` — alternating, every term exact;
//! * the classical continued fraction
//!   `erfc(x)·√π·eˣ² = 1/(x + ½/(x + 1/(x + ³⁄₂/(x + …))))`, evaluated
//!   with the modified Lentz algorithm.
//!
//! Neither is what a pair pays for. `erfc` is evaluated in the scaled
//! form `erfc(x) = e^(−x²)·erfcx(x)`, in three regimes:
//!
//! * `0 ≤ x < 6.125`: `erfcx` is a piecewise polynomial — 25 pieces a
//!   quarter wide, twelve coefficients each, two interleaved Horner
//!   chains. The cost is one `exp` and the same two dozen flops for
//!   every `x`: no loop whose trip count depends on the argument.
//! * `x ≥ 6.125`: the continued fraction, which gives `erfcx` directly
//!   and stops within twenty terms there.
//! * `x < 0`: the reflection `erfc(x) = 2 − erfc(−x)`.
//!
//! The polynomial coefficients are not committed constants. The first
//! call fits them (≈ 120 µs, once per process) by Chebyshev
//! interpolation of the two expansions above — the series below `x = 1`,
//! the fraction from there on, each where it is accurate to a few 10⁻¹⁵
//! — the same "fit the table from the exact function at start-up"
//! MDGRAPE-2's function tables and WINE-2's sine ROM use. The expansions
//! therefore remain the generator, the large-`x` regime and, in the
//! tests, the oracle. `erf` keeps its series below 1, where `1 − erfc`
//! would cancel. The fitter is generic ([`ChebyshevFitter`], evaluated
//! by [`eval_piece`]): the host's real-space virial fits its pair terms
//! with it too, from `real_kernel` and the short-range force.
//!
//! Against a 40-digit reference the relative error of `erfc` is below
//! 3·10⁻¹⁵ up to `x = 3.5` (the paper's operating point is
//! `erfc(2.64) ≈ 1.9e-4`) and below 5·10⁻¹⁵ up to 6; the floor is the
//! `x²·2⁻⁵³` that rounding `x²` costs the Gaussian, which the
//! continued-fraction form pays as well. The tests hold the evaluation
//! to 2·10⁻¹⁴ of the expansions and to 5·10⁻¹⁴ of libm reference values.
//!
//! [`erfc_expansion`] is the evaluation `erfc` had before the pieces —
//! series below 1.75 (where its `1 − erf` is already 4·10⁻¹⁴ off),
//! fraction above — kept for one caller: the MDGRAPE-2 table fit, whose
//! `f32` coefficient images are pinned bit for bit and whose
//! fourth-order coefficients turn a 10⁻¹⁵ change of the fitted function
//! into an `f32` ulp.

use std::f64::consts::{FRAC_2_SQRT_PI, PI};
use std::sync::OnceLock;

/// `1/√π`.
const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_3;

/// Crossover between the two expansions: below it the series' `1 − erf`
/// has not started to cancel, above it the fraction needs < 200 terms.
const SERIES_LIMIT: f64 = 1.0;
/// The crossover [`erfc_expansion`] keeps.
const EXPANSION_SERIES_LIMIT: f64 = 1.75;

/// Width of one polynomial piece; piece `k` is centred on `k·WIDTH`.
const PIECE_WIDTH: f64 = 0.25;
/// Number of pieces.
const PIECES: usize = 25;
/// Coefficients per piece (degree 11: interpolation error < 10⁻¹⁷).
const TERMS: usize = 12;
/// Upper end of the last piece; from here on the fraction is short.
const X_HI: f64 = (PIECES as f64 - 0.5) * PIECE_WIDTH;
/// Beyond this `e^(−x²)` underflows: `erfc(26.7) < 5e-312`.
const X_UNDERFLOW: f64 = 26.7;

/// The error function `erf(x) = 2/√π ∫₀ˣ e^(−t²) dt`.
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax < SERIES_LIMIT {
        erf_series(x)
    } else {
        let tail = erfc(ax);
        if x > 0.0 {
            1.0 - tail
        } else {
            tail - 1.0
        }
    }
}

/// The complementary error function `erfc(x) = 1 − erf(x)`.
///
/// For positive `x` this is the product `e^(−x²)·erfcx(x)` of two
/// well-conditioned factors, so the relative accuracy does **not**
/// degrade the way `1 - erf(x)` would (important: the Ewald accuracy
/// analysis works at `erfc ≈ 1e-4` where cancellation would cost ~12
/// digits). The cost does not depend on `x` below 6.125.
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        2.0 - erfc(-x)
    } else if x > X_UNDERFLOW {
        0.0
    } else {
        (-x * x).exp() * erfcx(x)
    }
}

/// The scaled complement `erfcx(x) = e^(x²)·erfc(x)` for `x ≥ 0` — the
/// factor of `erfc` that is left once the Gaussian is taken out, for
/// callers ([`crate::ewald::real::real_kernel`]) that need the Gaussian
/// anyway.
#[inline]
pub(crate) fn erfcx(x: f64) -> f64 {
    debug_assert!(
        x >= 0.0 || x.is_nan(),
        "erfcx({x}): reflect negative arguments first"
    );
    if x < X_HI {
        let k = (x * (1.0 / PIECE_WIDTH) + 0.5) as usize;
        let t = (x - k as f64 * PIECE_WIDTH) * (2.0 / PIECE_WIDTH);
        eval_piece(&pieces()[k], t)
    } else if x.is_nan() {
        // Not the fraction: it would run all its terms on a NaN.
        x
    } else {
        erfcx_fraction(x)
    }
}

/// `erfc` from the defining expansions alone: the series below 1.75,
/// the continued fraction above, a few hundred ns per call. Bit for bit
/// what [`erfc`] returned before it was fitted; only table generation
/// that is pinned to those bits should call it.
pub fn erfc_expansion(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x <= -EXPANSION_SERIES_LIMIT {
        2.0 - erfc_expansion(-x)
    } else if x < EXPANSION_SERIES_LIMIT {
        1.0 - erf_series(x)
    } else if x > X_UNDERFLOW {
        0.0
    } else {
        (-x * x).exp() * FRAC_1_SQRT_PI / continued_fraction(x).0
    }
}

/// The fitted pieces: `pieces()[k][j]` multiplies `tʲ`,
/// `t = (x − k·WIDTH)·2/WIDTH ∈ [−1, 1)`.
fn pieces() -> &'static [[f64; TERMS]; PIECES] {
    static FITTED: OnceLock<[[f64; TERMS]; PIECES]> = OnceLock::new();
    FITTED.get_or_init(fit_pieces)
}

/// Interpolate [`erfcx_expansion`] on every piece (the constant term
/// from the generator makes `erfcx(0) = erfc(0) = 1` exact).
fn fit_pieces() -> [[f64; TERMS]; PIECES] {
    let fitter = ChebyshevFitter::<TERMS>::new();
    std::array::from_fn(|k| {
        fitter.piece(k as f64 * PIECE_WIDTH, 0.5 * PIECE_WIDTH, erfcx_expansion)
    })
}

/// The piece fitter behind [`erfc`]'s table, for any smooth function:
/// interpolate it at the `TERMS` Chebyshev nodes of a piece and
/// re-expand the interpolant in powers of the piece's own variable
/// `t = (x − centre)/half_width ∈ [−1, 1]`. The host virial's pair
/// table (`mdm-host`) is fitted by it too. The cosines are tabulated
/// once per fitter, so a table of many pieces pays for them once.
pub struct ChebyshevFitter<const TERMS: usize> {
    /// `cos(j·θᵢ)` at the nodes `θᵢ = (2i + 1)·π/2n`; row 1 is the
    /// nodes `tᵢ`.
    cos_j_theta: [[f64; TERMS]; TERMS],
}

impl<const TERMS: usize> Default for ChebyshevFitter<TERMS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const TERMS: usize> ChebyshevFitter<TERMS> {
    /// Tabulate the cosines at the `TERMS` nodes.
    pub fn new() -> Self {
        Self {
            cos_j_theta: std::array::from_fn(|j| {
                std::array::from_fn(|i| cos_half_turns(j * (2 * i + 1), TERMS))
            }),
        }
    }

    /// The piece `[centre − half_width, centre + half_width]` of `f`:
    /// `piece[j]` multiplies `tʲ` (evaluate it with [`eval_piece`]).
    /// The interpolant misses `f` at `t = 0` by an ulp or two; the
    /// constant term is `f(centre)` itself, which costs nothing and
    /// makes the piece exact at its centre.
    pub fn piece(&self, centre: f64, half_width: f64, f: impl Fn(f64) -> f64) -> [f64; TERMS] {
        let samples = self.cos_j_theta[1].map(|t| f(centre + half_width * t));
        // Chebyshev coefficients: cⱼ = 2/n·Σᵢ f(tᵢ)·cos(jθᵢ), c₀ halved.
        let mut cheb = self.cos_j_theta.map(|row| {
            let sum: f64 = samples.iter().zip(row).map(|(f, cos)| f * cos).sum();
            sum * 2.0 / TERMS as f64
        });
        cheb[0] *= 0.5;
        // Σ cⱼ·Tⱼ(t) in powers of t, the Tⱼ by T₍ⱼ₊₁₎ = 2t·Tⱼ − T₍ⱼ₋₁₎;
        // starting from T₋₁ = T₁ = t makes the first step yield T₁ too.
        let mut powers = [0.0; TERMS];
        let (mut t_prev, mut t_cur) = ([0.0; TERMS], [0.0; TERMS]);
        t_prev[1] = 1.0;
        t_cur[0] = 1.0;
        for c in cheb {
            let mut t_next = [0.0; TERMS];
            for i in 0..TERMS {
                powers[i] += c * t_cur[i];
                let shifted = if i > 0 { 2.0 * t_cur[i - 1] } else { 0.0 };
                t_next[i] = shifted - t_prev[i];
            }
            (t_prev, t_cur) = (t_cur, t_next);
        }
        powers[0] = f(centre);
        powers
    }
}

/// A piece from [`ChebyshevFitter::piece`] at `t ∈ [−1, 1]`: even and
/// odd powers as two Horner chains in `t²`, half the dependent
/// multiply-adds of one chain in `t`. `TERMS` must be even.
#[inline]
pub fn eval_piece<const TERMS: usize>(c: &[f64; TERMS], t: f64) -> f64 {
    const { assert!(TERMS >= 2 && TERMS.is_multiple_of(2)) };
    let t_sq = t * t;
    let (mut even, mut odd) = (c[TERMS - 2], c[TERMS - 1]);
    for j in (0..TERMS / 2 - 1).rev() {
        even = even * t_sq + c[2 * j];
        odd = odd * t_sq + c[2 * j + 1];
    }
    even + t * odd
}

/// `cos(m·π/(2·quarter))`, the angle folded into the first quadrant so
/// that its rounding stays below an ulp however large `m` is (the
/// argument of a plain `cos(j·θ)` is off by up to `j·θ·2⁻⁵³`, which a
/// twelve-term sum turns into 10⁻¹⁵ at a piece's ends).
fn cos_half_turns(m: usize, quarter: usize) -> f64 {
    let m = m % (4 * quarter);
    let m = if m > 2 * quarter { 4 * quarter - m } else { m };
    let first_quadrant = |m: usize| (PI * m as f64 / (2 * quarter) as f64).cos();
    if m > quarter {
        -first_quadrant(2 * quarter - m)
    } else {
        first_quadrant(m)
    }
}

/// `erfcx` from the defining expansions, each in its accurate range
/// (the series also covers the `x < 0` half of the piece centred on 0).
fn erfcx_expansion(x: f64) -> f64 {
    if x < SERIES_LIMIT {
        (x * x).exp() * (1.0 - erf_series(x))
    } else {
        erfcx_fraction(x)
    }
}

/// Maclaurin series: `erf(x) = 2/√π Σₙ (−1)ⁿ x^(2n+1) / (n! (2n+1))`.
/// The terms shrink by at least `x²/n` per step, so at `|x| < 1.75`
/// ~40 of them reach f64 round-off.
fn erf_series(x: f64) -> f64 {
    let x2 = x * x;
    let mut term = x; // x^(2n+1)/n! without the 1/(2n+1)
    let mut sum = x;
    for n in 1..200 {
        term *= -x2 / n as f64;
        let contrib = term / (2 * n + 1) as f64;
        let next = sum + contrib;
        if next == sum {
            break;
        }
        sum = next;
    }
    FRAC_2_SQRT_PI * sum
}

/// `erfcx(x) = 1/(√π·K)` for `x ≥ 1`, `K` the continued fraction.
fn erfcx_fraction(x: f64) -> f64 {
    FRAC_1_SQRT_PI / continued_fraction(x).0
}

/// The continued fraction `K = x + a₁/(x + a₂/(x + …))`, `aₙ = n/2`, of
/// `erfcx(x) = 1/(√π·K)` for `x ≥ 1`, via modified Lentz. Returns `K`
/// and the number of terms taken: 200 at `x = 1`, under twenty from
/// [`X_HI`] on.
fn continued_fraction(x: f64) -> (f64, u32) {
    debug_assert!(x >= SERIES_LIMIT);
    const TINY: f64 = 1e-300;
    let mut f = x; // b₀ = x
    let mut c = f;
    let mut d = 0.0f64;
    let mut terms = 0;
    for n in 1..500 {
        terms = n;
        let a = n as f64 / 2.0;
        let b = x;
        d = b + a * d;
        if d == 0.0 {
            d = TINY;
        }
        c = b + a / c;
        if c == 0.0 {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = c * d;
        f *= delta;
        // Converged once the factor is 1 to within the unit roundoff —
        // the tightest test that can fire, and the one the pinned table
        // images were generated with.
        if (delta - 1.0).abs() < 0.5 * f64::EPSILON {
            break;
        }
    }
    (f, terms)
}

/// `2/√π · e^(−x²)`, the derivative of `erf` — appears directly in the
/// Ewald real-space force kernel (paper eq. 2).
#[inline]
pub fn erf_derivative(x: f64) -> f64 {
    FRAC_2_SQRT_PI * (-x * x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from a correctly rounded libm (glibc `erfc`).
    const REFERENCE: &[(f64, f64)] = &[
        (0.0, 1.0),
        (0.1, 0.887_537_083_981_715_2),
        (0.25, 0.723_673_609_831_763_1),
        (0.5, 0.479_500_122_186_953_5),
        (1.0, 0.157_299_207_050_285_13),
        (1.5, 0.033_894_853_524_689_274),
        (2.0, 0.004_677_734_981_047_265),
        (2.64, 0.000_188_819_338_731_527_16),
        (3.0, 2.209_049_699_858_543_8e-5),
        (4.0, 1.541_725_790_028_002e-8),
        (5.0, 1.537_459_794_428_035_1e-12),
        (6.0, 2.151_973_671_249_891_6e-17),
        (10.0, 2.088_487_583_762_545e-45),
        (26.0, 5.663_192_408_856_143e-296),
    ];

    #[test]
    fn erfc_matches_reference_values() {
        for &(x, expect) in REFERENCE {
            let got = erfc(x);
            let rel = if expect != 0.0 {
                ((got - expect) / expect).abs()
            } else {
                got.abs()
            };
            assert!(rel < 5e-14, "erfc({x}) = {got}, expected {expect}, rel {rel}");
        }
    }

    #[test]
    fn erfc_negative_arguments() {
        for &(x, expect) in REFERENCE {
            if x == 0.0 || x > 8.0 {
                continue;
            }
            let got = erfc(-x);
            let want = 2.0 - expect;
            assert!(
                ((got - want) / want).abs() < 1e-14,
                "erfc({}) = {got}, expected {want}",
                -x
            );
        }
    }

    #[test]
    fn erf_plus_erfc_is_one() {
        for i in -60..=60 {
            let x = i as f64 * 0.1;
            let s = erf(x) + erfc(x);
            assert!((s - 1.0).abs() < 2e-15, "x={x}: erf+erfc={s}");
        }
    }

    #[test]
    fn series_and_cf_agree_in_overlap() {
        // Both representations are valid on [1, 2.2]; they were derived
        // independently, so agreement validates both. Each is good to a
        // few ulps of 1 — which is all `1 − erf` can be: 2e-15 absolute
        // is 1.5e-13 of erfc(1.75) and 1.1e-12 of erfc(2.2), the reason
        // the series hands over at 1.
        for i in 0..=120 {
            let x = 1.0 + i as f64 * 0.01;
            let from_series = 1.0 - erf_series(x);
            let from_cf = (-x * x).exp() * erfcx_fraction(x);
            assert!(
                (from_series - from_cf).abs() < 2e-15,
                "x={x}: series {from_series} vs cf {from_cf}"
            );
        }
    }

    /// `erfc` from the defining expansions, each in its accurate range
    /// — what the fitted pieces are held to.
    fn erfc_oracle(x: f64) -> f64 {
        if x < SERIES_LIMIT {
            1.0 - erf_series(x)
        } else {
            (-x * x).exp() * erfcx_fraction(x)
        }
    }

    fn assert_close_to_expansion(x: f64) {
        let (got, want) = (erfc(x), erfc_oracle(x));
        let rel = ((got - want) / want).abs();
        assert!(
            rel <= 2e-14,
            "erfc({x:e}) = {got:e}, expansions {want:e}, rel {rel:e}"
        );
    }

    #[test]
    fn fitted_pieces_match_the_expansions() {
        for i in 0..=61_250 {
            assert_close_to_expansion(i as f64 * 1e-4);
        }
        // Every piece boundary, the old series/fraction crossover and
        // the hand-over to the fraction, an ulp either side.
        let boundaries = (0..PIECES).map(|k| (k as f64 + 0.5) * PIECE_WIDTH);
        for x in boundaries.chain([SERIES_LIMIT, 1.75, X_HI]) {
            for x in [x.next_down(), x, x.next_up()] {
                assert_close_to_expansion(x);
            }
        }
        assert_eq!(erfc(0.0), 1.0);
        assert_eq!(erfc(-0.0), 1.0);
        assert_eq!(erfc(f64::MIN_POSITIVE), 1.0);
    }

    #[test]
    fn fraction_is_short_where_it_still_runs() {
        // The fraction is the evaluation only from X_HI on: bound its
        // trip count there, and check that the regime boundary is
        // invisible — the last piece and the fraction agree on both
        // sides of it (the piece extrapolated a little past its end).
        let (_, terms) = continued_fraction(X_HI);
        assert!(terms <= 20, "{terms} terms at X_HI");
        assert!(
            continued_fraction(SERIES_LIMIT).1 < 250,
            "the generator's longest run"
        );
        for i in -8..8 {
            let x = X_HI + i as f64 * 0.0025;
            let last_piece = {
                let c = &pieces()[PIECES - 1];
                let t = (x - (PIECES - 1) as f64 * PIECE_WIDTH) * (2.0 / PIECE_WIDTH);
                c.iter().rev().fold(0.0, |p, &a| p * t + a)
            };
            let fraction = erfcx_fraction(x);
            let rel = ((last_piece - fraction) / fraction).abs();
            assert!(
                rel <= 2e-14,
                "x={x}: piece {last_piece:e} vs fraction {fraction:e}"
            );
        }
    }

    #[test]
    fn erfc_reflects_and_strictly_decreases() {
        let mut prev = f64::INFINITY;
        for i in 0..=11_000 {
            let x = -5.0 + i as f64 * 1e-3;
            let v = erfc(x);
            assert!(
                v < prev,
                "erfc not decreasing at x={x}: {prev:e} then {v:e}"
            );
            if x >= 0.0 {
                assert_eq!(erfc(-x), 2.0 - v, "x={x}");
            }
            assert!((erf(x) + v - 1.0).abs() < 2e-15, "x={x}");
            prev = v;
        }
        assert_eq!(erfc(f64::INFINITY), 0.0);
        assert_eq!(erfc(f64::NEG_INFINITY), 2.0);
        assert_eq!(erf(f64::INFINITY), 1.0);
        assert_eq!(erf(f64::NEG_INFINITY), -1.0);
    }

    #[test]
    fn racing_first_calls_and_a_second_fit_see_the_same_table() {
        // Eight threads released together into what may be the
        // process's first `erfc` call, inside a 4-thread rayon region
        // as the virial walk would be.
        let xs = [0.0, 0.3, 1.0, 1.75, 2.64, 3.2, 6.0, 6.2];
        let barrier = std::sync::Barrier::new(8);
        let seen: Vec<[u64; 8]> = rayon::with_num_threads(4, || {
            std::thread::scope(|scope| {
                let racers: Vec<_> = (0..8)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            xs.map(|x| erfc(x).to_bits())
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            })
        });
        assert!(seen.iter().all(|bits| *bits == seen[0]));
        let bits = |table: &[[f64; TERMS]; PIECES]| table.map(|piece| piece.map(f64::to_bits));
        assert_eq!(bits(&fit_pieces()), bits(pieces()));
    }

    #[test]
    fn erf_is_odd() {
        for i in 1..=50 {
            let x = i as f64 * 0.07;
            assert!((erf(x) + erf(-x)).abs() < 1e-15, "x={x}");
        }
    }

    #[test]
    fn erf_limits() {
        assert_eq!(erf(0.0), 0.0);
        assert!((erf(6.0) - 1.0).abs() < 1e-15);
        assert!((erf(-6.0) + 1.0).abs() < 1e-15);
        assert_eq!(erfc(30.0), 0.0);
        assert!((erfc(-30.0) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn nan_propagates() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-6;
        for &x in &[0.0, 0.3, 1.0, 2.5] {
            let fd = (erf(x + h) - erf(x - h)) / (2.0 * h);
            assert!(
                (erf_derivative(x) - fd).abs() < 1e-9,
                "x={x}: {} vs {fd}",
                erf_derivative(x)
            );
        }
    }

    #[test]
    fn monotonically_decreasing() {
        let mut prev = erfc(-5.0);
        for i in 1..=200 {
            let x = -5.0 + i as f64 * 0.05;
            let v = erfc(x);
            assert!(v < prev, "erfc not decreasing at x={x}");
            prev = v;
        }
    }
}
