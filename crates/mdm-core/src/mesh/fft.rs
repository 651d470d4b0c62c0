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
//! * the inverse mirrors the y and x passes, one real plane at a time.
//!
//! Neither plane pass touches a grid. The forward pass asks the caller
//! to `fill(z, plane)` one real plane into a scratch plane and runs the
//! x and y passes on it while it is still in cache, so the mesh engine
//! spreads its charges there and no charge grid is ever written. The
//! inverse pass keeps each region item's last `support` planes in a
//! ring and hands the ring to the caller's `visit(b, ring, out)` as soon
//! as it holds planes `b … b + support − 1`, so the mesh engine gathers
//! there and no potential grid is ever written either.
//!
//! Each pass writes its own chunk (one z-plane, one pencil, one run of
//! planes) from what the previous pass left shared, over a fixed
//! decomposition, so the output does not depend on the thread count.
//! The plane passes run one region item per thread — the inverse at most
//! `k / support`, so no run is shorter than the ring — each on its own
//! `PlaneScratch` held in the transform; forward items take the next
//! plane from a shared queue, so a stalled thread delays one plane. A
//! warm call allocates nothing.
//!
//! **Two butterfly kernels.** [`FftPlan`] picks one once, at
//! construction, by CPU: `Kernel::Portable` is plain Rust, one butterfly
//! at a time; `Kernel::Avx512` runs every stage with `half ≥ 4` four
//! butterflies per 512-bit register, complex values kept interleaved
//! (the fused `len = 2, 4` stage is the same code in both). Both form
//! `v = b·w` from the same products and the same differences in the
//! same operand order — `v.re = b.re·w.re − b.im·w.im`,
//! `v.im = b.re·w.im − b.im·(−w.re)` with `−w.re` tabulated (see
//! `Twiddles`) — then `u + v` and `u − v`, so the two are bitwise equal
//! on every input, signed zeros and NaN payloads included, with FTZ/DAZ
//! off and on (`butterfly_kernels_agree_bit_for_bit`).

use rayon::prelude::*;
use std::sync::Mutex;

/// A complex number as a bare pair — all we need, no operator sugar in
/// the hot loops. `repr(C)`: the AVX-512 kernel reads a line as
/// interleaved `re, im` words.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
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

/// Which form of the butterfly stages a plan runs (see the module
/// docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Plain Rust, every host.
    Portable,
    /// Four butterflies per register: AVX-512 F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The kernel for this CPU — the only selection there is.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            return Self::Avx512;
        }
        Self::Portable
    }
}

/// One direction's twiddles, stage after stage for `len = 8, 16, …, n`
/// (the `len = 2, 4` stages multiply by ±1 and ∓i only and carry
/// none), with each one's quarter turn beside it.
///
/// A butterfly forms `v = b·w` as `v.re = b.re·w.re − b.im·w.im` and
/// `v.im = b.re·w.im − b.im·rot.im`, with `rot = −i·w = (w.im, −w.re)`:
/// the imaginary part is a difference, not the sum
/// `b.re·w.im + b.im·w.re`. The two are the same number for every
/// non-NaN input (`x − (−y)` is `x + y` in IEEE arithmetic, signed zeros
/// included), but a compiler may put a sum's operands either way round
/// — and with two NaN operands that picks the payload — while a
/// difference has one order. Tabulating `−w.re` keeps the negation out
/// of the loop, where it would be folded back into a sum.
struct Twiddles {
    w: Vec<Complex>,
    rot: Vec<Complex>,
}

impl Twiddles {
    fn new(w: Vec<Complex>) -> Self {
        let rot = w.iter().map(|w| Complex::new(w.im, -w.re)).collect();
        Self { w, rot }
    }
}

/// A length-`n` radix-2 FFT with everything that depends only on `n`
/// tabulated once: the bit-reversal permutation and the twiddles of
/// every stage (each by its own `sin_cos`, not by recurrence), and the
/// butterfly kernel. Transforms are un-normalised; the inverse uses the
/// conjugate twiddles.
pub struct FftPlan {
    n: usize,
    kernel: Kernel,
    /// `slot[i]`: where input element `i` sits before the butterflies.
    slot: Vec<u32>,
    /// `e^(−2πi·j/len)`, `j < len/2`, per stage.
    forward: Twiddles,
    /// Their conjugates.
    inverse: Twiddles,
}

impl FftPlan {
    /// Plan a transform of length `n` (a power of two, at least 4).
    pub fn new(n: usize) -> Self {
        Self::with_kernel(n, Kernel::detect())
    }

    /// Plan with a given kernel, which the CPU must run.
    pub(crate) fn with_kernel(n: usize, kernel: Kernel) -> Self {
        assert!(
            n.is_power_of_two() && n >= 4,
            "FFT length must be a power of two >= 4, got {n}"
        );
        #[cfg(target_arch = "x86_64")]
        assert!(
            kernel != Kernel::Avx512 || avx512::available(),
            "AVX-512 F absent"
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
        let conjugates = twiddles.iter().map(|w| w.conj()).collect();
        Self {
            n,
            kernel,
            slot,
            forward: Twiddles::new(twiddles),
            inverse: Twiddles::new(conjugates),
        }
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
        let twiddles = if INVERSE {
            &self.inverse
        } else {
            &self.forward
        };
        match self.kernel {
            Kernel::Portable => wide_stages(data, twiddles),
            // SAFETY: `with_kernel` checked that the CPU runs AVX-512 F;
            // the tables hold `half` entries for each stage
            // `half = 4, 8, …, n/2`, as the kernel reads.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe { avx512::wide_stages(data, twiddles) },
        }
    }
}

/// The stages `half = 4, 8, …, n/2`, one butterfly at a time, with
/// the forward or the inverse twiddles.
fn wide_stages(data: &mut [Complex], twiddles: &Twiddles) {
    let (mut ws, mut rots) = (&twiddles.w[..], &twiddles.rot[..]);
    let mut half = 4;
    while half < data.len() {
        let ((w_stage, w_rest), (rot_stage, rot_rest)) = (ws.split_at(half), rots.split_at(half));
        for block in data.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (((a, b), w), rot) in lo.iter_mut().zip(hi).zip(w_stage).zip(rot_stage) {
                let v = Complex::new(b.re * w.re - b.im * w.im, b.re * w.im - b.im * rot.im);
                let u = *a;
                *a = u + v;
                *b = u - v;
            }
        }
        (ws, rots) = (w_rest, rot_rest);
        half <<= 1;
    }
}

/// The AVX-512 form of [`wide_stages`].
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Complex, Twiddles};
    use std::arch::x86_64::*;

    /// Runtime gate for the kernel.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// [`super::wide_stages`], four butterflies per register, complex
    /// values interleaved `re, im`. Per lane, `t1 = b.re·w` (the real
    /// part duplicated) and `t2 = b.im·rot` (the imaginary part
    /// duplicated) are the two products the portable form takes for
    /// that component, and `v = t1 − t2` is its difference, on every
    /// lane; `u + v` and `u − v` follow in its order.
    ///
    /// # Safety
    /// The CPU must run AVX-512 F, and `twiddles` must hold `half`
    /// entries for each stage `half = 4, 8, …, data.len()/2`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn wide_stages(data: &mut [Complex], twiddles: &Twiddles) {
        let n = data.len();
        assert!(twiddles.w.len() == n - 4 && twiddles.rot.len() == n - 4);
        let words = data.as_mut_ptr().cast::<f64>();
        let (mut ws, mut rots) = (
            twiddles.w.as_ptr().cast::<f64>(),
            twiddles.rot.as_ptr().cast::<f64>(),
        );
        let mut half = 4;
        while half < n {
            for block in (0..n).step_by(2 * half) {
                for j in (0..half).step_by(4) {
                    let lo = words.add(2 * (block + j));
                    let hi = lo.add(2 * half);
                    let (w, rot) = (
                        _mm512_loadu_pd(ws.add(2 * j)),
                        _mm512_loadu_pd(rots.add(2 * j)),
                    );
                    let (u, b) = (_mm512_loadu_pd(lo), _mm512_loadu_pd(hi));
                    let t1 = _mm512_mul_pd(_mm512_movedup_pd(b), w);
                    let t2 = _mm512_mul_pd(_mm512_permute_pd::<0xff>(b), rot);
                    let v = _mm512_sub_pd(t1, t2);
                    _mm512_storeu_pd(lo, _mm512_add_pd(u, v));
                    _mm512_storeu_pd(hi, _mm512_sub_pd(u, v));
                }
            }
            (ws, rots) = (ws.add(2 * half), rots.add(2 * half));
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

/// One region item's buffers for the plane passes, sized on first use
/// and kept by the transform.
#[derive(Default)]
pub(crate) struct PlaneScratch {
    /// Real planes, `[y][x]` each: `fill` writes the first, and the
    /// inverse pass keeps its ring of the last `support` planes it
    /// inverted in the first `support`, plane `u` of its run in
    /// `planes[u % support]`.
    pub(crate) planes: Vec<Vec<f64>>,
    /// `half[kx·k + y]`: a plane after the x pass, transposed so the y
    /// pass walks contiguous lines.
    pub(crate) half: Vec<Complex>,
    /// One x line.
    pub(crate) line: Vec<Complex>,
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
    /// One set per region item of the widest plane pass so far.
    pub(crate) scratch: Vec<PlaneScratch>,
}

impl PrunedFft3 {
    /// Plan for mesh size `k` keeping the listed `(kx, ky)` pencils;
    /// every `kx` must lie in the Hermitian half `0..=k/2`.
    pub fn new(k: usize, pencils: Vec<(usize, usize)>) -> Self {
        Self::with_kernel(k, pencils, Kernel::detect())
    }

    /// [`Self::new`] with a given butterfly kernel.
    pub(crate) fn with_kernel(k: usize, pencils: Vec<(usize, usize)>, kernel: Kernel) -> Self {
        let nx = pencils.iter().map(|p| p.0 + 1).max().unwrap_or(0);
        assert!(nx <= k / 2 + 1, "kx beyond the Hermitian half");
        assert!(pencils.iter().all(|p| p.1 < k));
        Self {
            k,
            plan: FftPlan::with_kernel(k, kernel),
            pencils,
            nx,
            scratch: Vec::new(),
        }
    }

    /// Length of the plane-major spectrum buffer of
    /// [`Self::forward_planes`] (`k` planes × pencils) — and of the
    /// pencil-major buffer of [`Self::pencil_pass`] (pencils × `k`).
    pub fn spectrum_len(&self) -> usize {
        self.k * self.pencils.len()
    }

    /// `task(self, i, chunk, scratch)` for the `i`-th of `chunks`, in
    /// one region of `items` items (`scratch` is the item's own, with at
    /// least `planes` real planes); items take the next chunk from a
    /// shared queue, so a stalled thread holds up one chunk, not a fixed
    /// run of them. Every chunk gets the same arithmetic whichever item
    /// takes it.
    fn for_each_chunk<T, F>(
        &mut self,
        items: usize,
        planes: usize,
        chunks: impl Iterator<Item = T> + Send,
        task: F,
    ) where
        T: Send,
        F: Fn(&Self, usize, T, &mut PlaneScratch) + Sync,
    {
        let k = self.k;
        let n = self.scratch.len().max(items);
        self.scratch.resize_with(n, PlaneScratch::default);
        for s in &mut self.scratch[..items] {
            s.planes.resize_with(s.planes.len().max(planes), Vec::new);
            for plane in &mut s.planes[..planes] {
                plane.resize(k * k, 0.0);
            }
            s.half.resize(self.nx * k, Complex::ZERO);
            s.line.resize(k, Complex::ZERO);
        }
        // Out of `self` for the region, so the region can share `self`.
        let mut scratch = std::mem::take(&mut self.scratch);
        let queue = Mutex::new(chunks.enumerate());
        let this = &*self;
        scratch[..items].par_iter_mut().for_each(|scratch| loop {
            let next = queue
                .lock()
                .expect("no task runs while the queue is locked")
                .next();
            let Some((i, chunk)) = next else { break };
            task(this, i, chunk, scratch);
        });
        self.scratch = scratch;
    }

    /// x and y passes, plane by plane, one region item per thread taking
    /// planes from a shared queue: `fill(z, plane)` writes real plane `z`
    /// (`[y][x]`, every point) into the item's scratch plane, then
    /// `planes[z·P + p]` becomes the `(kx, ky)` coefficient of pencil `p`
    /// in plane `z`.
    pub fn forward_planes<F>(&mut self, fill: F, planes: &mut [Complex])
    where
        F: Fn(usize, &mut [f64]) + Sync,
    {
        let p = self.pencils.len();
        assert_eq!(planes.len(), self.spectrum_len());
        if p == 0 {
            return;
        }
        let items = rayon::current_num_threads().min(self.k);
        let chunks = planes.chunks_exact_mut(p);
        self.for_each_chunk(items, 1, chunks, |this, z, out, scratch| {
            fill(z, &mut scratch.planes[0]);
            this.forward_plane(scratch, out);
        });
    }

    /// z pass, one task per pencil: gather pencil `p` from `planes`,
    /// transform it, let `convolve(p, line)` act on the `k` modes along
    /// z (natural order), transform back into `pencils[p·k..][z]`.
    /// `out[p]` receives what `convolve` returned.
    pub fn pencil_pass<R, F>(
        &self,
        planes: &[Complex],
        pencils: &mut [Complex],
        out: &mut [R],
        convolve: F,
    ) where
        R: Send,
        F: Fn(usize, &mut [Complex]) -> R + Sync,
    {
        let (k, np) = (self.k, self.pencils.len());
        assert_eq!(planes.len(), self.spectrum_len());
        assert_eq!(pencils.len(), self.spectrum_len());
        assert_eq!(out.len(), np);
        let one = |(p, (line, r)): (usize, (&mut [Complex], &mut R))| {
            for (z, c) in line.iter_mut().enumerate() {
                *c = planes[z * np + p];
            }
            self.plan.transform(line, false);
            *r = convolve(p, line);
            self.plan.transform(line, true);
        };
        pencils
            .par_chunks_mut(k)
            .zip(out.par_iter_mut())
            .enumerate()
            .for_each(one);
    }

    /// Inverse y and x passes from the pencil-major buffer, plane by
    /// plane, into a ring of `support` real planes per region item — no
    /// grid. There are `n = min(threads, k / support)` items, at least
    /// one; item `t` owns the planes `[z₀, z₁) = [t·k/n, (t + 1)·k/n)`
    /// and inverts planes `z₀ … z₁ + support − 2` (mod `k`) in turn, run
    /// position `u` into `ring[u % support]`. Once planes `b … b +
    /// support − 1` are in the ring it calls `visit(b, ring, out_b)`,
    /// plane `b + j` in `ring[(b + j) % support]` and `out_b` the chunk
    /// `out[bounds[b]..bounds[b + 1]]` (`bounds` runs from 0 to
    /// `out.len()`, non-decreasing). The `support − 1` planes past a run
    /// are also the first of the next, so they are inverted twice, by the
    /// same arithmetic.
    ///
    /// Modes outside the kept pencils are zero; the x pass completes the
    /// Hermitian half (`X[k−kx] = conj X[kx]`), which is what taking the
    /// real part of a full complex inverse does.
    pub fn inverse_planes<T, F>(
        &mut self,
        pencils: &[Complex],
        support: usize,
        out: &mut [T],
        bounds: &[u32],
        visit: F,
    ) where
        T: Send,
        F: Fn(usize, &[Vec<f64>], &mut [T]) + Sync,
    {
        let k = self.k;
        assert!((1..=k).contains(&support));
        assert_eq!(pencils.len(), self.spectrum_len());
        assert_eq!(bounds.len(), k + 1);
        assert!(bounds[0] == 0 && bounds[k] as usize == out.len());
        let items = rayon::current_num_threads().min(k / support).max(1);
        let runs = (0..items).scan(out, |rest, t| {
            let (z0, z1) = (t * k / items, (t + 1) * k / items);
            let len = (bounds[z1] - bounds[z0]) as usize;
            let (run, tail) = std::mem::take(rest).split_at_mut(len);
            *rest = tail;
            Some((z0, z1, run))
        });
        self.for_each_chunk(items, support, runs, |this, _, (z0, z1, run), scratch| {
            for u in z0..z1 + support - 1 {
                this.inverse_plane(u % k, pencils, scratch, u % support);
                if u + 1 >= z0 + support {
                    let b = u + 1 - support;
                    let [lo, hi] = [b, b + 1].map(|z| (bounds[z] - bounds[z0]) as usize);
                    visit(b, &scratch.planes[..support], &mut run[lo..hi]);
                }
            }
        });
    }

    fn forward_plane(&self, scratch: &mut PlaneScratch, out: &mut [Complex]) {
        let k = self.k;
        let PlaneScratch { planes, half, line } = scratch;
        for (pair, rows) in planes[0].chunks_exact(2 * k).enumerate() {
            // Two real rows as one complex line z = a + i·b; then
            // A[kx] = (Z[kx] + conj Z[−kx])/2, B[kx] = (Z[kx] − conj Z[−kx])/2i.
            let (row_a, row_b) = rows.split_at(k);
            for (x, (&a, &b)) in row_a.iter().zip(row_b).enumerate() {
                line[self.plan.slot(x)] = Complex::new(a, b);
            }
            self.plan.butterflies(line, false);
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

    /// Real plane `z` of the inverse into the item's ring plane `slot`.
    fn inverse_plane(
        &self,
        z: usize,
        pencils: &[Complex],
        scratch: &mut PlaneScratch,
        slot: usize,
    ) {
        let k = self.k;
        let PlaneScratch { planes, half, line } = scratch;
        half.fill(Complex::ZERO);
        for (p, &(kx, ky)) in self.pencils.iter().enumerate() {
            half[kx * k + ky] = pencils[p * k + z];
        }
        for column in half.chunks_exact_mut(k) {
            self.plan.transform(column, true);
        }
        for (pair, rows) in planes[slot].chunks_exact_mut(2 * k).enumerate() {
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
            self.plan.butterflies(line, true);
            let (row_a, row_b) = rows.split_at_mut(k);
            for ((a, b), c) in row_a.iter_mut().zip(row_b).zip(line.iter()) {
                *a = c.re;
                *b = c.im;
            }
        }
    }
}

/// The whole real inverse, for checks against an oracle:
/// [`PrunedFft3::inverse_planes`] at support 1 with a `visit` that
/// copies each plane into a `[z][y][x]` grid.
#[cfg(test)]
pub(crate) fn inverse_grid(fft: &mut PrunedFft3, pencils: &[Complex]) -> Vec<f64> {
    let kk = fft.k * fft.k;
    let mut grid = vec![0.0; kk * fft.k];
    let bounds: Vec<u32> = (0..=fft.k).map(|z| (z * kk) as u32).collect();
    fft.inverse_planes(pencils, 1, &mut grid, &bounds, |_, ring, plane| {
        plane.copy_from_slice(&ring[0]);
    });
    grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Every kernel this host runs; the AVX-512 one is skipped, loudly,
    /// without `avx512f`.
    fn kernels() -> Vec<Kernel> {
        #[allow(unused_mut)]
        let mut kernels = vec![Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        if avx512::available() {
            kernels.push(Kernel::Avx512);
        } else {
            eprintln!("avx512f absent: skipping the AVX-512 butterfly kernel");
        }
        kernels
    }

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
        for (n, kernel) in [4usize, 8, 32]
            .into_iter()
            .flat_map(|n| kernels().into_iter().map(move |k| (n, k)))
        {
            let plan = FftPlan::with_kernel(n, kernel);
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
        for (n, kernel) in [4usize, 16, 64, 128, 256]
            .into_iter()
            .flat_map(|n| kernels().into_iter().map(move |k| (n, k)))
        {
            let plan = FftPlan::with_kernel(n, kernel);
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
        for kernel in kernels() {
            let plan = FftPlan::with_kernel(64, kernel);
            let x = signal(64);
            let mut natural = x.clone();
            plan.transform(&mut natural, false);
            let mut placed = vec![Complex::ZERO; 64];
            for (i, &c) in x.iter().enumerate() {
                placed[plan.slot(i)] = c;
            }
            plan.butterflies(&mut placed, false);
            assert_eq!(natural, placed, "{kernel:?}");
        }
    }

    /// Run `f` with the MXCSR flush-to-zero and denormals-are-zero
    /// flags set (`on`) or clear, restoring the caller's control word.
    #[cfg(target_arch = "x86_64")]
    fn with_ftz_daz<R>(on: bool, f: impl FnOnce() -> R) -> R {
        const FTZ_DAZ: u32 = (1 << 15) | (1 << 6);
        struct Restore(u32);
        impl Drop for Restore {
            fn drop(&mut self) {
                // SAFETY: reloads the control word read below.
                unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &self.0, options(nostack)) };
            }
        }
        let mut saved = 0u32;
        // SAFETY: stmxcsr/ldmxcsr only read and write the SSE control
        // register through a valid, aligned u32.
        unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut saved, options(nostack)) };
        let _restore = Restore(saved);
        let set = if on {
            saved | FTZ_DAZ
        } else {
            saved & !FTZ_DAZ
        };
        // SAFETY: as above; the word differs from the caller's in the
        // two flush flags only, which `Restore` puts back.
        unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &set, options(nostack)) };
        f()
    }

    /// Every kernel leaves the same bits as the portable one, at every
    /// length, forward and inverse, with FTZ/DAZ off and on: on random
    /// lines, and on lines seeded with ±0, subnormals, ±∞, and NaNs of
    /// both signs with distinct payloads — alone, and as `re, im` pairs
    /// of two different NaNs, whose products meet in one difference.
    #[test]
    fn butterfly_kernels_agree_bit_for_bit() {
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE * 0.75,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_0000_00a5),
            f64::from_bits(0xfff8_0000_0000_0b0c),
            f64::from_bits(0x7ff0_0000_0000_0003),
            f64::from_bits(0xfff4_0000_0000_0042),
            1e300,
            -1e-300,
        ];
        let nan_pairs = [
            (0x7ff8_0000_0000_0011u64, 0xfff8_0000_0000_0022u64),
            (0xfff8_0000_0000_0033, 0x7ff8_0000_0000_0044),
            (0x7ff0_0000_0000_0055, 0x7ff8_0000_0000_0066),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let random = |rng: &mut ChaCha8Rng| rng.gen::<f64>() * 2.0 - 1.0;
        let mut lines = Vec::new();
        for n in (2..=10).map(|b| 1usize << b) {
            let plain: Vec<Complex> = (0..n)
                .map(|_| Complex::new(random(&mut rng), random(&mut rng)))
                .collect();
            let tiny: Vec<Complex> = plain
                .iter()
                .map(|c| Complex::new(c.re * 1e-306, c.im * 3e-308))
                .collect();
            let mut sparse = plain.clone();
            let mut dense = plain.clone();
            let mut paired = plain.clone();
            for i in 0..n {
                let pick = |rng: &mut ChaCha8Rng| specials[rng.gen_range(0..specials.len())];
                if rng.gen_range(0..n) < 2 {
                    sparse[i] = Complex::new(pick(&mut rng), sparse[i].im);
                }
                if rng.gen_range(0..3) == 0 {
                    dense[i] = Complex::new(pick(&mut rng), pick(&mut rng));
                }
                if rng.gen_range(0..n) < 1 {
                    let (a, b) = nan_pairs[rng.gen_range(0..nan_pairs.len())];
                    paired[i] = Complex::new(f64::from_bits(a), f64::from_bits(b));
                }
            }
            lines.extend([plain, tiny, sparse, dense, paired]);
        }
        let bits = |line: &[Complex]| -> Vec<[u64; 2]> {
            line.iter()
                .map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect()
        };
        let check = || {
            for line in &lines {
                let n = line.len();
                for inverse in [false, true] {
                    let mut want = line.clone();
                    FftPlan::with_kernel(n, Kernel::Portable).butterflies(&mut want, inverse);
                    for kernel in kernels() {
                        let mut got = line.clone();
                        FftPlan::with_kernel(n, kernel).butterflies(&mut got, inverse);
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "{kernel:?}, n {n}, inverse {inverse}"
                        );
                    }
                }
            }
        };
        #[cfg(target_arch = "x86_64")]
        for on in [false, true] {
            with_ftz_daz(on, || {
                let tiny = std::hint::black_box(f64::MIN_POSITIVE) * 0.5;
                assert_eq!(tiny == 0.0, on, "FTZ {on} did not take effect");
                check();
            });
        }
        #[cfg(not(target_arch = "x86_64"))]
        check();
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
                // Forward, keep |kz| ≤ band (zero the rest, hand the kept
                // spectrum out for the forward comparison), inverse.
                let run = |kernel, threads| {
                    rayon::with_num_threads(threads, || {
                        let mut fft = PrunedFft3::with_kernel(k, pencils.clone(), kernel);
                        let mut planes = vec![Complex::ZERO; fft.spectrum_len()];
                        let mut lines = vec![Complex::ZERO; fft.spectrum_len()];
                        let mut spectra = vec![Vec::new(); pencils.len()];
                        let fill = |z: usize, plane: &mut [f64]| {
                            plane.copy_from_slice(&grid[z * k * k..(z + 1) * k * k]);
                        };
                        fft.forward_planes(fill, &mut planes);
                        fft.pencil_pass(&planes, &mut lines, &mut spectra, |_, line| {
                            let before = line.to_vec();
                            if 2 * band + 1 < k {
                                line[band + 1..k - band].fill(Complex::ZERO);
                            }
                            before
                        });
                        let back = inverse_grid(&mut fft, &lines);
                        (planes, lines, back, spectra)
                    })
                };
                let four = run(Kernel::Portable, 4);
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

                // One thread is the same arithmetic, and so is every
                // kernel.
                for kernel in kernels() {
                    for threads in [1, 4] {
                        assert!(
                            run(kernel, threads) == four,
                            "{kernel:?}, {threads} threads"
                        );
                    }
                }
            }
        }
    }
}
