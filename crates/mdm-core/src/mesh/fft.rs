//! The transform under the mesh engine: a planned radix-2 complex FFT
//! and the pruned, real-input 3-D transform built on it. No external
//! FFT crate: the point of this repository is that every substrate is
//! built here.
//!
//! A mesh-Ewald charge grid is *real*, and its influence function is
//! non-zero only on a band `|n| ≤ band` per axis (a sphere, for the
//! PSWF window). [`PrunedFft3`] exploits both:
//!
//! * the x pass transforms two real lines per complex FFT and keeps
//!   only the Hermitian half `0 ≤ kx ≤ band`;
//! * the y pass runs only on those columns and keeps only the
//!   `(kx, ky)` **pencils** the caller listed;
//! * the z pass runs only on those pencils, hands each transformed
//!   pencil to the caller (the convolution), and transforms it back;
//! * the inverse mirrors the y and x passes onto the real grid.
//!
//! Each pass reads the previous pass's buffer shared and writes its own
//! chunk (one z-plane, one pencil), so every pass is a `par_chunks_mut`
//! over a fixed decomposition and the output does not depend on the
//! thread count.

use rayon::prelude::*;

/// A complex number as a bare pair — all we need, no operator sugar in
/// the hot loops.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Construct.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Zero.
    pub const ZERO: Self = Self::new(0.0, 0.0);

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// `e^(iθ)`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Self::new(c, s)
    }
}

impl std::ops::Mul for Complex {
    type Output = Self;

    /// Complex multiply.
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Add for Complex {
    type Output = Self;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Self;

    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

/// A length-`n` radix-2 FFT with everything that depends only on `n`
/// tabulated once: the bit-reversal permutation and the twiddles of
/// every stage (each by its own `sin_cos`, not by recurrence).
/// Transforms are un-normalised; the inverse uses the conjugate
/// twiddles.
pub struct FftPlan {
    n: usize,
    /// `slot[i]`: where input element `i` sits before the butterflies.
    slot: Vec<u32>,
    /// Forward twiddles `e^(−2πi·j/len)`, `j < len/2`, stage after
    /// stage for `len = 8, 16, …, n` (the `len = 2, 4` stages multiply
    /// by ±1 and ∓i only and carry none).
    twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Plan a transform of length `n` (a power of two, at least 4).
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "FFT length must be a power of two >= 4, got {n}"
        );
        let bits = n.trailing_zeros();
        let slot = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        let mut twiddles = Vec::with_capacity(n);
        let mut len = 8;
        while len <= n {
            twiddles.extend(
                (0..len / 2).map(|j| Complex::cis(-std::f64::consts::TAU * j as f64 / len as f64)),
            );
            len <<= 1;
        }
        Self { n, slot, twiddles }
    }

    /// The slot input element `i` must occupy before
    /// [`Self::butterflies`] — a caller that assembles its line anyway
    /// (from two real rows, from a strided pencil) writes straight into
    /// place and skips the permutation pass.
    #[inline]
    pub fn slot(&self, i: usize) -> usize {
        self.slot[i] as usize
    }

    /// In-place FFT of a line in natural order.
    pub fn transform(&self, data: &mut [Complex], inverse: bool) {
        assert_eq!(data.len(), self.n);
        for (i, &j) in self.slot.iter().enumerate() {
            if i < j as usize {
                data.swap(i, j as usize);
            }
        }
        self.butterflies(data, inverse);
    }

    /// The butterfly stages alone, on a line already in [`Self::slot`]
    /// order; the output is in natural order.
    pub fn butterflies(&self, data: &mut [Complex], inverse: bool) {
        assert_eq!(data.len(), self.n);
        if inverse {
            self.stages::<true>(data);
        } else {
            self.stages::<false>(data);
        }
    }

    fn stages<const INVERSE: bool>(&self, data: &mut [Complex]) {
        // len = 2 and len = 4 fused: their twiddles are 1 and ∓i.
        for quad in data.chunks_exact_mut(4) {
            let (s0, d0) = (quad[0] + quad[1], quad[0] - quad[1]);
            let (s1, d1) = (quad[2] + quad[3], quad[2] - quad[3]);
            let rot = if INVERSE {
                Complex::new(-d1.im, d1.re)
            } else {
                Complex::new(d1.im, -d1.re)
            };
            quad[0] = s0 + s1;
            quad[1] = d0 + rot;
            quad[2] = s0 - s1;
            quad[3] = d0 - rot;
        }
        let mut twiddles = &self.twiddles[..];
        let mut half = 4;
        while half < self.n {
            let (stage, rest) = twiddles.split_at(half);
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), w) in lo.iter_mut().zip(hi).zip(stage) {
                    let v = *b * if INVERSE { w.conj() } else { *w };
                    let u = *a;
                    *a = u + v;
                    *b = u - v;
                }
            }
            twiddles = rest;
            half <<= 1;
        }
    }
}

/// The kept indices of one axis at half-width `band`: `0..=band`, then
/// the negative frequencies `k−band..k` — or every index once when the
/// band reaches Nyquist.
pub fn band_indices(k: usize, band: usize) -> impl Iterator<Item = usize> {
    let (pos, neg) = if 2 * band + 1 >= k {
        (0..k, k..k)
    } else {
        (0..band + 1, k - band..k)
    };
    pos.chain(neg)
}

/// The pruned real-input 3-D transform of a `k³` grid in row-major
/// `[z][y][x]` order. See the module docs.
pub struct PrunedFft3 {
    k: usize,
    plan: FftPlan,
    /// Kept `(kx, ky)` pairs, `kx ≤ k/2` (Hermitian half), in the order
    /// the caller listed them.
    pencils: Vec<(usize, usize)>,
    /// `1 + max kx` over the pencils: columns the y pass runs on.
    nx: usize,
}

impl PrunedFft3 {
    /// Plan for mesh size `k` keeping the listed `(kx, ky)` pencils;
    /// every `kx` must lie in the Hermitian half `0..=k/2`.
    pub fn new(k: usize, pencils: Vec<(usize, usize)>) -> Self {
        let nx = pencils.iter().map(|p| p.0 + 1).max().unwrap_or(0);
        assert!(nx <= k / 2 + 1, "kx beyond the Hermitian half");
        assert!(pencils.iter().all(|p| p.1 < k));
        Self {
            k,
            plan: FftPlan::new(k),
            pencils,
            nx,
        }
    }

    /// Length of the plane-major spectrum buffer of
    /// [`Self::forward_planes`] (`k` planes × pencils) — and of the
    /// pencil-major buffer of [`Self::pencil_pass`] (pencils × `k`).
    pub fn spectrum_len(&self) -> usize {
        self.k * self.pencils.len()
    }

    /// x and y passes, one task per z-plane: `planes[z·P + p]` becomes
    /// the `(kx, ky)` coefficient of pencil `p` in plane `z`.
    pub fn forward_planes(&self, grid: &[f64], planes: &mut [Complex]) {
        let (kk, p) = (self.k * self.k, self.pencils.len());
        assert_eq!(grid.len(), kk * self.k);
        assert_eq!(planes.len(), self.spectrum_len());
        if p == 0 {
            return;
        }
        planes
            .par_chunks_mut(p)
            .zip(grid.par_chunks(kk))
            .for_each(|(out, plane)| self.forward_plane(plane, out));
    }

    /// z pass, one task per pencil: gather pencil `p` from `planes`,
    /// transform it, let `convolve(p, line)` act on the `k` modes along
    /// z (natural order), transform back into `pencils[p·k..][z]`.
    /// Returns what `convolve` returned, in pencil order.
    pub fn pencil_pass<R, F>(
        &self,
        planes: &[Complex],
        pencils: &mut [Complex],
        convolve: F,
    ) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &mut [Complex]) -> R + Sync,
    {
        let (k, np) = (self.k, self.pencils.len());
        assert_eq!(planes.len(), self.spectrum_len());
        assert_eq!(pencils.len(), self.spectrum_len());
        let one = |(p, line): (usize, &mut [Complex])| -> R {
            for (z, c) in line.iter_mut().enumerate() {
                *c = planes[z * np + p];
            }
            self.plan.transform(line, false);
            let r = convolve(p, line);
            self.plan.transform(line, true);
            r
        };
        pencils.par_chunks_mut(k).enumerate().map(one).collect()
    }

    /// Inverse y and x passes, one task per z-plane, from the
    /// pencil-major buffer back onto the real grid. Modes outside the
    /// kept pencils are zero; the x pass completes the Hermitian half
    /// (`X[k−kx] = conj X[kx]`), which is what taking the real part of
    /// a full complex inverse does.
    pub fn inverse_planes(&self, pencils: &[Complex], grid: &mut [f64]) {
        let kk = self.k * self.k;
        assert_eq!(grid.len(), kk * self.k);
        assert_eq!(pencils.len(), self.spectrum_len());
        grid.par_chunks_mut(kk)
            .enumerate()
            .for_each(|(z, plane)| self.inverse_plane(z, pencils, plane));
    }

    fn forward_plane(&self, plane: &[f64], out: &mut [Complex]) {
        let k = self.k;
        // `half[kx·k + y]`: the plane after the x pass, transposed so
        // the y pass walks contiguous lines.
        let mut half = vec![Complex::ZERO; self.nx * k];
        let mut line = vec![Complex::ZERO; k];
        for (pair, rows) in plane.chunks_exact(2 * k).enumerate() {
            // Two real rows as one complex line z = a + i·b; then
            // A[kx] = (Z[kx] + conj Z[−kx])/2, B[kx] = (Z[kx] − conj Z[−kx])/2i.
            let (row_a, row_b) = rows.split_at(k);
            for (x, (&a, &b)) in row_a.iter().zip(row_b).enumerate() {
                line[self.plan.slot(x)] = Complex::new(a, b);
            }
            self.plan.butterflies(&mut line, false);
            let y = 2 * pair;
            for kx in 0..self.nx {
                let zp = line[kx];
                let zm = line[(k - kx) % k].conj();
                let (s, d) = (zp + zm, zp - zm);
                half[kx * k + y] = Complex::new(0.5 * s.re, 0.5 * s.im);
                half[kx * k + y + 1] = Complex::new(0.5 * d.im, -0.5 * d.re);
            }
        }
        for column in half.chunks_exact_mut(k) {
            self.plan.transform(column, false);
        }
        for (o, &(kx, ky)) in out.iter_mut().zip(&self.pencils) {
            *o = half[kx * k + ky];
        }
    }

    fn inverse_plane(&self, z: usize, pencils: &[Complex], plane: &mut [f64]) {
        let k = self.k;
        let mut half = vec![Complex::ZERO; self.nx * k];
        for (p, &(kx, ky)) in self.pencils.iter().enumerate() {
            half[kx * k + ky] = pencils[p * k + z];
        }
        for column in half.chunks_exact_mut(k) {
            self.plan.transform(column, true);
        }
        let mut line = vec![Complex::ZERO; k];
        for (pair, rows) in plane.chunks_exact_mut(2 * k).enumerate() {
            // Z = A + i·B over the full line, A and B Hermitian-
            // completed; the self-conjugate modes contribute their real
            // parts only.
            let y = 2 * pair;
            line.fill(Complex::ZERO);
            for kx in 0..self.nx {
                let a = half[kx * k + y];
                let b = half[kx * k + y + 1];
                if kx == 0 || 2 * kx == k {
                    line[self.plan.slot(kx)] = Complex::new(a.re, b.re);
                } else {
                    line[self.plan.slot(kx)] = Complex::new(a.re - b.im, a.im + b.re);
                    line[self.plan.slot(k - kx)] = Complex::new(a.re + b.im, b.re - a.im);
                }
            }
            self.plan.butterflies(&mut line, true);
            let (row_a, row_b) = rows.split_at_mut(k);
            for ((a, b), c) in row_a.iter_mut().zip(row_b).zip(&line) {
                *a = c.re;
                *b = c.im;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The transform this module replaced, kept as the oracle: the
    /// textbook in-place radix-2 FFT with twiddles by recurrence, and
    /// the full complex 3-D transform as three strided axis passes.
    fn oracle_fft(data: &mut [Complex], inverse: bool) {
        let n = data.len();
        assert!(n.is_power_of_two());
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let w_len = Complex::cis(sign * std::f64::consts::TAU / len as f64);
            for start in (0..n).step_by(len) {
                let mut w = Complex::new(1.0, 0.0);
                for i in 0..len / 2 {
                    let u = data[start + i];
                    let v = data[start + i + len / 2] * w;
                    data[start + i] = u + v;
                    data[start + i + len / 2] = u - v;
                    w = w * w_len;
                }
            }
            len <<= 1;
        }
    }

    fn oracle_fft3(k: usize, data: &mut [Complex], inverse: bool) {
        let mut scratch = vec![Complex::ZERO; k];
        // (stride along the line, strides of the two axes across it)
        for (along, across_a, across_b) in [(1, k, k * k), (k, 1, k * k), (k * k, 1, k)] {
            for a in 0..k {
                for b in 0..k {
                    let origin = a * across_a + b * across_b;
                    for (i, s) in scratch.iter_mut().enumerate() {
                        *s = data[origin + i * along];
                    }
                    oracle_fft(&mut scratch, inverse);
                    for (i, s) in scratch.iter().enumerate() {
                        data[origin + i * along] = *s;
                    }
                }
            }
        }
    }

    fn signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect()
    }

    #[test]
    fn planned_fft_matches_naive_dft() {
        for n in [4usize, 8, 32] {
            let plan = FftPlan::new(n);
            let x = signal(n);
            for inverse in [false, true] {
                let mut fast = x.clone();
                plan.transform(&mut fast, inverse);
                let sign = if inverse { 1.0 } else { -1.0 };
                for (f, got) in fast.iter().enumerate() {
                    let mut acc = Complex::ZERO;
                    for (t, s) in x.iter().enumerate() {
                        let w =
                            Complex::cis(sign * std::f64::consts::TAU * (f * t) as f64 / n as f64);
                        acc = acc + *s * w;
                    }
                    assert!((acc.re - got.re).abs() < 1e-12, "n {n} bin {f}");
                    assert!((acc.im - got.im).abs() < 1e-12, "n {n} bin {f}");
                }
            }
        }
    }

    #[test]
    fn planned_fft_matches_the_recurrence_oracle_and_round_trips() {
        for n in [4usize, 16, 64, 128, 256] {
            let plan = FftPlan::new(n);
            let x = signal(n);
            let mut fast = x.clone();
            let mut slow = x.clone();
            plan.transform(&mut fast, false);
            oracle_fft(&mut slow, false);
            for (a, b) in fast.iter().zip(&slow) {
                assert!((a.re - b.re).abs() < 1e-11 && (a.im - b.im).abs() < 1e-11);
            }
            plan.transform(&mut fast, true);
            for (a, b) in fast.iter().zip(&x) {
                assert!((a.re / n as f64 - b.re).abs() < 1e-13);
                assert!((a.im / n as f64 - b.im).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn slot_order_lets_callers_skip_the_permutation() {
        let plan = FftPlan::new(64);
        let x = signal(64);
        let mut natural = x.clone();
        plan.transform(&mut natural, false);
        let mut placed = vec![Complex::ZERO; 64];
        for (i, &c) in x.iter().enumerate() {
            placed[plan.slot(i)] = c;
        }
        plan.butterflies(&mut placed, false);
        assert_eq!(natural, placed);
    }

    #[test]
    fn parseval_holds() {
        let n = 128;
        let x = signal(n);
        let time: f64 = x.iter().map(|c| c.norm_sq()).sum();
        let mut d = x;
        FftPlan::new(n).transform(&mut d, false);
        let freq = d.iter().map(|c| c.norm_sq()).sum::<f64>() / n as f64;
        assert!((time - freq).abs() / time < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        FftPlan::new(12);
    }

    #[test]
    fn band_indices_cover_each_kept_mode_once() {
        assert_eq!(
            band_indices(16, 3).collect::<Vec<_>>(),
            [0, 1, 2, 3, 13, 14, 15]
        );
        assert_eq!(
            band_indices(8, 4).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        assert_eq!(band_indices(8, 0).collect::<Vec<_>>(), [0]);
    }

    /// A real grid with no symmetry to hide behind.
    fn real_grid(k: usize) -> Vec<f64> {
        (0..k * k * k)
            .map(|i| {
                let (x, y, z) = (i % k, (i / k) % k, i / (k * k));
                (0.31 * x as f64 + 0.7).sin() * (0.17 * y as f64).cos() + 0.01 * z as f64
                    - ((x * y + 3 * z) % 7) as f64 * 0.05
            })
            .collect()
    }

    /// The pruned real-input transform against the full complex oracle
    /// at K = 16, 32, 64 and bands 3, K/4, K/2 — forward on every kept
    /// mode, then the inverse of the band-limited spectrum on every
    /// grid point, both to 1e-12 of the largest value, one and four
    /// threads bitwise equal.
    #[test]
    fn pruned_transform_matches_full_complex_oracle() {
        for k in [16usize, 32, 64] {
            let grid = real_grid(k);
            let mut full: Vec<Complex> = grid.iter().map(|&g| Complex::new(g, 0.0)).collect();
            oracle_fft3(k, &mut full, false);
            let scale = full
                .iter()
                .map(|c| c.norm_sq())
                .fold(0.0f64, f64::max)
                .sqrt();

            for band in [3usize, k / 4, k / 2] {
                let kept: Vec<usize> = band_indices(k, band).collect();
                let pencils: Vec<(usize, usize)> = (0..=band)
                    .flat_map(|kx| kept.iter().map(move |&ky| (kx, ky)))
                    .collect();
                let fft = PrunedFft3::new(k, pencils.clone());
                // Forward, keep |kz| ≤ band (zero the rest, hand the kept
                // spectrum out for the forward comparison), inverse.
                let run = |threads| {
                    rayon::with_num_threads(threads, || {
                        let mut planes = vec![Complex::ZERO; fft.spectrum_len()];
                        let mut lines = vec![Complex::ZERO; fft.spectrum_len()];
                        let mut back = vec![0.0f64; k * k * k];
                        fft.forward_planes(&grid, &mut planes);
                        let spectra = fft.pencil_pass(&planes, &mut lines, |_, line| {
                            let before = line.to_vec();
                            if 2 * band + 1 < k {
                                line[band + 1..k - band].fill(Complex::ZERO);
                            }
                            before
                        });
                        fft.inverse_planes(&lines, &mut back);
                        (planes, lines, back, spectra)
                    })
                };
                let four = run(4);
                let (_, _, back, spectra) = &four;
                for (&(kx, ky), spectrum) in pencils.iter().zip(spectra) {
                    for (kz, got) in spectrum.iter().enumerate() {
                        let want = full[(kz * k + ky) * k + kx];
                        assert!(
                            (got.re - want.re).abs() < 1e-12 * scale
                                && (got.im - want.im).abs() < 1e-12 * scale,
                            "K {k} band {band} mode ({kx},{ky},{kz}): {got:?} vs {want:?}"
                        );
                    }
                }

                // Inverse: the oracle inverts the full spectrum with
                // every mode outside the band zeroed.
                let in_band = |m: usize| m.min(k - m) <= band;
                let mut limited = full.clone();
                for (i, c) in limited.iter_mut().enumerate() {
                    let (x, y, z) = (i % k, (i / k) % k, i / (k * k));
                    if !(in_band(x) && in_band(y) && in_band(z)) {
                        *c = Complex::ZERO;
                    }
                }
                oracle_fft3(k, &mut limited, true);
                let back_scale = limited.iter().map(|c| c.re.abs()).fold(0.0f64, f64::max);
                for (i, (got, want)) in back.iter().zip(&limited).enumerate() {
                    assert!(
                        (got - want.re).abs() < 1e-12 * back_scale,
                        "K {k} band {band} point {i}: {got} vs {}",
                        want.re
                    );
                }

                // One thread is the same arithmetic.
                assert!(run(1) == four);
            }
        }
    }
}
