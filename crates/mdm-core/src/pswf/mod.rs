//! PSWF-accelerated Ewald reciprocal space — the "fast Ewald summation
//! based on prolate spheroidal wave functions" of Liang, Shi & Xu
//! (arXiv:2505.09727), on the same [`crate::mesh::MeshEngine`] as
//! [`crate::pme`].
//!
//! The algorithm is structurally SPME: spread charges onto a uniform
//! K³ grid through a compact window, convolve with a spectral influence
//! function via FFT, gather energy and forces back through the window.
//! The difference is the window itself. SPME uses order-n cardinal
//! B-splines; here the window is the zeroth prolate spheroidal wave
//! function ψ₀(c; ·) ([`prolate`]), the *optimally* band-concentrated
//! function on a finite support. At matched aliasing error the PSWF
//! window needs a smaller support width `w` than a B-spline needs
//! order, which shrinks the O(N·w³) spread/gather stencils; and because
//! the window is chosen so that only the modes inside the sphere
//! `n ≤ n_max` matter, the engine prunes its transform to that band.
//!
//! Deconvolution uses the continuous Fourier transform of the window
//! (the gridding/NUFFT convention, computed once by Simpson quadrature
//! on the window table's own nodes), and the bandwidth parameter
//! follows the alias-minimising rule `c = π·w·(1 − n_cut/K)`: the
//! window's spectral band edge is pushed to `K − n_cut`, exactly where
//! the nearest alias image of the highest kept mode lands.

pub mod prolate;

use crate::ewald::EwaldParams;
use crate::mesh::{default_mesh, MeshEngine, Window};
use prolate::Prolate;
use rayon::prelude::*;

/// Samples of ψ₀ and ψ₀′ on [0, 1] (even/odd symmetry covers [−1, 0]).
const TABLE: usize = 8192;

/// Largest supported window support width, in grid points.
const MAX_WIDTH: usize = 16;

/// Simpson intervals for the window-transform quadrature (built once):
/// its nodes are every `TABLE / QUAD`-th node of the window table.
const QUAD: usize = 2048;
const _: () = assert!(TABLE.is_multiple_of(QUAD), "QUAD must divide TABLE");

/// The zeroth prolate spheroidal wave function ψ₀(c; ·) as a mesh
/// window of `width` grid points: a particle at mesh coordinate `u`
/// touches `p = i0..i0+w−1` with `i0 = ⌈u − w/2⌉`, so the normalised
/// offset `t = 2(u − p)/w` spans (−1, 1].
pub struct PswfWindow {
    width: usize,
    n_max: f64,
    c: f64,
    /// ψ₀ sampled on t ∈ [0, 1] (TABLE+1 points, linear interpolation).
    win: Vec<f64>,
    /// dψ₀/dt on the same nodes.
    dwin: Vec<f64>,
}

impl PswfWindow {
    /// ψ₀(c; ·) for support `width` on a mesh of `mesh` points, with the
    /// bandwidth `c` of the alias-minimising rule for cutoff `n_max`.
    fn new(width: usize, mesh: usize, n_max: f64) -> Self {
        let c = std::f64::consts::PI * width as f64 * (1.0 - n_max / mesh as f64);
        let psi = Prolate::new(c);
        // Window + derivative lookup tables, filled in place: a collected
        // (ψ₀, ψ₀′) vector would be a 128 KiB temporary, past glibc's
        // mmap threshold, and freeing it raises that threshold: the
        // engine's later buffers land elsewhere and its K = 128 calls
        // read ×1.3 slower.
        let mut win = vec![0.0; TABLE + 1];
        let mut dwin = vec![0.0; TABLE + 1];
        win.par_iter_mut()
            .zip(dwin.par_iter_mut())
            .enumerate()
            .for_each(|(i, (v, d))| (*v, *d) = psi.eval_both(i as f64 / TABLE as f64));
        Self {
            width,
            n_max,
            c,
            win,
            dwin,
        }
    }

    /// ψ₀(t) and ψ₀′(t) by table lookup with linear interpolation
    /// (odd-extended derivative), `t` in window-normalised units.
    #[inline]
    fn eval(&self, t: f64) -> (f64, f64) {
        let a = t.abs();
        if a >= 1.0 {
            return (0.0, 0.0);
        }
        let x = a * TABLE as f64;
        let i = x as usize; // < TABLE since a < 1
        let frac = x - i as f64;
        let v = self.win[i] + (self.win[i + 1] - self.win[i]) * frac;
        let d = self.dwin[i] + (self.dwin[i + 1] - self.dwin[i]) * frac;
        (v, if t < 0.0 { -d } else { d })
    }
}

impl Window for PswfWindow {
    const NAME: &'static str = "pswf";
    const CONVOLVE_FLOPS: f64 = 11.0;

    fn support(&self) -> usize {
        self.width
    }

    fn weights(&self, u: f64, w: &mut [f64], dw: &mut [f64]) -> i64 {
        let wf = self.width as f64;
        let first = (u - 0.5 * wf).ceil() as i64;
        for (j, (w, dw)) in w.iter_mut().zip(dw).enumerate() {
            let (v, d) = self.eval(2.0 * (u - (first + j as i64) as f64) / wf);
            *w = v;
            *dw = d * (2.0 / wf); // dψ/du = ψ′·dt/du
        }
        first
    }

    fn describe(&self, alpha: f64, mesh: usize) -> String {
        format!(
            "PSWF fast Ewald (alpha={alpha}, mesh={mesh}, width={}, c={:.2})",
            self.width, self.c
        )
    }
}

/// The per-axis deconvolution factors 1/φ̂(m)², `m = 0..=mesh/2`, of
/// the continuous window transform φ̂(m) = w·∫₀¹ ψ₀(t)·cos(π·m·w·t/K) dt
/// (the even-symmetry halved form; `w` grid units of support), by
/// Simpson quadrature on `QUAD` intervals. The gridding/NUFFT
/// convention deconvolves by 1/φ̂² per axis.
///
/// Node `t = j/QUAD` is the same binary fraction as the window table's
/// node `j·STRIDE/TABLE`, so ψ₀ there is read off the table, and the
/// factors carry the same bits as a quadrature that calls
/// [`Prolate::eval`] at every node.
fn window_transform(window: &PswfWindow, mesh: usize) -> Vec<f64> {
    const STRIDE: usize = TABLE / QUAD;
    let (pi, kf) = (std::f64::consts::PI, mesh as f64);
    let wf = window.width as f64;
    let h = 1.0 / QUAD as f64;
    let mut factors = vec![0.0; mesh / 2 + 1];
    factors.par_iter_mut().enumerate().for_each(|(m, factor)| {
        let omega = pi * m as f64 * wf / kf;
        let f = |j: usize| window.win[j * STRIDE] * (omega * (j as f64 * h)).cos();
        let mut sum = f(0) + f(QUAD);
        for j in 1..QUAD {
            sum += f(j) * if j % 2 == 1 { 4.0 } else { 2.0 };
        }
        let phi_hat = wf * sum * h / 3.0;
        // A sign change or collapse in band would mean the
        // band edge rule and n_max < K/2 were violated upstream.
        assert!(
            phi_hat > 0.0 || m as f64 > window.n_max,
            "window transform collapsed at mode {m}"
        );
        *factor = 1.0 / (phi_hat * phi_hat);
    });
    factors
}

/// A configured PSWF fast-Ewald reciprocal engine: the mesh engine on
/// a prolate window, summing the modes inside the sphere `n² ≤ n_max²`
/// (the same truncation as the exact half-space wave table, so accuracy
/// parameters map 1:1).
pub type PswfRecip = MeshEngine<PswfWindow>;

impl PswfRecip {
    /// Build for a cubic box of side `l`, dimensionless splitting
    /// parameter `alpha` (κ = α/L), wavenumber cutoff `n_max` (the same
    /// quantity as [`EwaldParams::n_max`]), mesh points per side `mesh`
    /// (power of two) and window support `width` in grid points.
    pub fn new(l: f64, alpha: f64, n_max: f64, mesh: usize, width: usize) -> Self {
        assert!(mesh.is_power_of_two() && mesh >= 8);
        assert!((3..=MAX_WIDTH).contains(&width));
        assert!(width < mesh, "window support must fit the mesh");
        assert!(
            n_max >= 1.0 && 2.0 * n_max < mesh as f64,
            "need n_max < K/2 (Nyquist): n_max = {n_max}, K = {mesh}"
        );
        let window = PswfWindow::new(width, mesh, n_max);
        let deconvolution = window_transform(&window, mesh);
        Self::with_window(l, alpha, mesh, window, n_max, &deconvolution)
    }

    /// Build with the crate's default sizing for a given accuracy
    /// parameterisation: [`default_mesh`] and support width 6.
    pub fn for_params(params: &EwaldParams, l: f64) -> Self {
        Self::new(l, params.alpha, params.n_max, default_mesh(params.n_max), 6)
    }

    /// Window support width in grid points.
    pub fn width(&self) -> usize {
        self.window().width
    }

    /// The wavenumber cutoff (sphere radius in integer wavenumbers).
    pub fn n_max(&self) -> f64 {
        self.window().n_max
    }

    /// The prolate bandwidth parameter in use.
    pub fn bandwidth(&self) -> f64 {
        self.window().c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::recip::recip_space;
    use crate::kvectors::half_space_vectors;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use crate::vec3::Vec3;

    fn perturbed() -> crate::system::System {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.4, -0.3, 0.2));
        s.displace(9, Vec3::new(-0.2, 0.1, 0.35));
        s
    }

    /// Engine sized the way the backend factory sizes it, α = 7.
    fn engine(l: f64) -> PswfRecip {
        let alpha = 7.0;
        let n_max = 3.2 * alpha / std::f64::consts::PI;
        PswfRecip::new(l, alpha, n_max, 32, 6)
    }

    /// Converged exact reference at the same α (all significant waves).
    fn exact_reference(s: &crate::system::System) -> crate::ewald::recip::RecipResult {
        let waves = half_space_vectors(2.2 * 7.0);
        recip_space(s.simbox(), s.positions(), s.charges(), 7.0, &waves)
    }

    /// FNV-1a over the bits of a window's deconvolution factors.
    fn factor_digest(window: &PswfWindow, mesh: usize) -> u64 {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for factor in window_transform(window, mesh) {
            for byte in factor.to_bits().to_le_bytes() {
                digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        digest
    }

    /// The direct form of [`window_transform`]: ψ₀ by its Legendre
    /// recurrence at every Simpson node, one mode after another.
    fn direct_window_transform(window: &PswfWindow, mesh: usize) -> Vec<f64> {
        let psi = Prolate::new(window.c);
        let (pi, kf) = (std::f64::consts::PI, mesh as f64);
        let wf = window.width as f64;
        (0..=mesh / 2)
            .map(|m| {
                let omega = pi * m as f64 * wf / kf;
                let h = 1.0 / QUAD as f64;
                let f = |t: f64| psi.eval(t) * (omega * t).cos();
                let mut sum = f(0.0) + f(1.0);
                for j in 1..QUAD {
                    sum += f(j as f64 * h) * if j % 2 == 1 { 4.0 } else { 2.0 };
                }
                let phi_hat = wf * sum * h / 3.0;
                1.0 / (phi_hat * phi_hat)
            })
            .collect()
    }

    /// The table-read transform, built at 1 and at 4 threads, equals
    /// the direct quadrature bit for bit, and the window tables equal
    /// ψ₀ and ψ₀′ evaluated node by node on one thread.
    #[test]
    fn table_read_transform_equals_the_direct_quadrature() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for mesh in [16, 32, 64, 128] {
            // n_max/K as at the benchmark mesh point (18.517/128).
            let n_max = 0.145 * mesh as f64;
            for width in [4, 6, 8] {
                let case = format!("K = {mesh}, w = {width}");
                let oracle = direct_window_transform(&PswfWindow::new(width, mesh, n_max), mesh);
                for threads in [1, 4] {
                    let window =
                        rayon::with_num_threads(threads, || PswfWindow::new(width, mesh, n_max));
                    let psi = Prolate::new(window.c);
                    for (i, (&v, &d)) in window.win.iter().zip(&window.dwin).enumerate() {
                        let (pv, pd) = psi.eval_both(i as f64 / TABLE as f64);
                        assert_eq!(
                            (v.to_bits(), d.to_bits()),
                            (pv.to_bits(), pd.to_bits()),
                            "{case}, {threads} threads: table node {i}"
                        );
                    }
                    let factors =
                        rayon::with_num_threads(threads, || window_transform(&window, mesh));
                    assert_eq!(bits(&factors), bits(&oracle), "{case}, {threads} threads");
                }
            }
        }
    }

    /// The deconvolution factors' bits at the benchmark's mesh point —
    /// `mesh_pswf_4k`: N = 4,096 at the paper's density, r_cut 9 Å,
    /// s = 3.2, so K = 128, w = 6 and n_max ≈ 18.517 — and at the α = 7,
    /// K = 32 engine of the tests below. A faster quadrature must
    /// reproduce every bit.
    #[test]
    fn window_transform_pinned() {
        let l = crate::lattice::rocksalt_nacl_at_density(8, crate::lattice::PAPER_DENSITY)
            .simbox()
            .l();
        let params = EwaldParams::from_alpha_accuracy(3.2 * l / 9.0, 3.2, 3.2, l);
        assert_eq!(default_mesh(params.n_max), 128);
        assert!((params.n_max - 18.517).abs() < 1e-3, "n_max {}", params.n_max);
        let benchmark = factor_digest(&PswfWindow::new(6, 128, params.n_max), 128);
        let n_max = 3.2 * 7.0 / std::f64::consts::PI;
        let small = factor_digest(&PswfWindow::new(6, 32, n_max), 32);
        assert_eq!(
            (benchmark, small),
            (0xc89a_1018_07fc_b11a, 0x045d_0e06_6f00_3cc0),
            "digests {benchmark:#018x}, {small:#018x}"
        );
    }

    #[test]
    fn energy_matches_exact_recip() {
        let s = perturbed();
        let exact = exact_reference(&s);
        let mut pswf = engine(s.simbox().l());
        let got = pswf.compute(s.simbox(), s.positions(), s.charges());
        let rel = ((got.energy - exact.energy) / exact.energy).abs();
        assert!(
            rel < 1e-3,
            "PSWF energy {} vs exact {} (rel {rel})",
            got.energy,
            exact.energy
        );
    }

    #[test]
    fn forces_match_exact_recip() {
        let s = perturbed();
        let exact = exact_reference(&s);
        let mut pswf = engine(s.simbox().l());
        let got = pswf.compute(s.simbox(), s.positions(), s.charges());
        let scale = exact
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(1e-300f64, f64::max);
        for (i, (a, b)) in got.forces.iter().zip(&exact.forces).enumerate() {
            let rel = (*a - *b).norm() / scale;
            assert!(rel < 2e-3, "particle {i}: rel {rel}");
        }
    }

    #[test]
    fn virial_matches_exact_recip() {
        let s = perturbed();
        let exact = exact_reference(&s);
        let mut pswf = engine(s.simbox().l());
        let got = pswf.compute(s.simbox(), s.positions(), s.charges());
        let rel = ((got.virial - exact.virial) / exact.virial).abs();
        assert!(
            rel < 5e-3,
            "PSWF virial {} vs exact {} (rel {rel})",
            got.virial,
            exact.virial
        );
    }

    #[test]
    fn forces_sum_to_zero() {
        let s = perturbed();
        let mut pswf = engine(s.simbox().l());
        let got = pswf.compute(s.simbox(), s.positions(), s.charges());
        let net: Vec3 = got.forces.iter().copied().sum();
        assert!(net.norm() < 1e-12, "net {net:?}");
    }

    #[test]
    fn energy_is_translation_invariant() {
        let s = perturbed();
        let mut pswf = engine(s.simbox().l());
        let e0 = pswf.compute(s.simbox(), s.positions(), s.charges()).energy;
        let shifted: Vec<Vec3> = s
            .positions()
            .iter()
            .map(|&r| s.simbox().wrap(r + Vec3::new(1.234, -0.77, 2.1)))
            .collect();
        let e1 = pswf.compute(s.simbox(), &shifted, s.charges()).energy;
        assert!(((e0 - e1) / e0).abs() < 1e-3, "{e0} vs {e1}");
    }

    /// Worst relative gridding (aliasing) error over the in-band modes
    /// `m = 1..=m_cut` for a window `win` of support `width` on a mesh
    /// of `k` points, with spectrum `win_hat(m)`: sample off-grid
    /// positions `u`, spread through the window, and compare the
    /// windowed trigonometric sum against the ideal
    /// `win_hat(m)·e^(−2πimu/K)`.
    fn worst_in_band_error(
        k: usize,
        width: usize,
        m_cut: usize,
        win: &dyn Fn(f64) -> f64,
        win_hat: &dyn Fn(f64) -> f64,
    ) -> f64 {
        let kf = k as f64;
        let wf = width as f64;
        let tau = 2.0 * std::f64::consts::PI;
        let mut worst = 0.0f64;
        for m in 1..=m_cut {
            let ideal = win_hat(m as f64);
            for iu in 0..57 {
                let u = iu as f64 * 0.817; // irrational-ish stride of off-grid points
                let i0 = (u - 0.5 * wf).ceil() as i64;
                let (mut re, mut im) = (0.0f64, 0.0f64);
                for j in 0..width as i64 {
                    let point = i0 + j;
                    let v = win(u - point as f64);
                    let th = -tau * m as f64 * point as f64 / kf;
                    re += v * th.cos();
                    im += v * th.sin();
                }
                let th0 = -tau * m as f64 * u / kf;
                let err = ((re - ideal * th0.cos()).powi(2) + (im - ideal * th0.sin()).powi(2))
                    .sqrt()
                    / ideal.abs();
                worst = worst.max(err);
            }
        }
        worst
    }

    /// The headline claim (Liang et al. §4): at equal support width the
    /// PSWF window's worst-case in-band aliasing error beats the
    /// B-spline's, i.e. a smaller support suffices at equal guaranteed
    /// accuracy. The comparison is per-mode and worst-case because that
    /// is what "equal accuracy" means for a window bound — a total
    /// force-RMS comparison instead weights the low modes, where the
    /// B-spline's sinc^n zeros happen to sit exactly on the alias
    /// images and mask its poor band-edge behaviour.
    #[test]
    fn pswf_window_beats_bspline_at_equal_support() {
        let k = 32usize;
        let m_cut = 7usize; // ⌊3.2·α/π⌋ at α = 7, the engine's band edge

        // Cardinal B-spline M_w centred at 0 (support [−w/2, w/2]),
        // by the Cox–de Boor recursion, and its spectrum sinc^w.
        let bspline = |order: usize, x: f64| -> f64 {
            let u = x + order as f64 / 2.0;
            if u <= 0.0 || u >= order as f64 {
                return 0.0;
            }
            let mut m = vec![0.0f64; order];
            for (j, mj) in m.iter_mut().enumerate() {
                let t = u - j as f64;
                *mj = if (0.0..1.0).contains(&t) { 1.0 } else { 0.0 };
            }
            for p in 2..=order {
                for j in 0..=(order - p) {
                    let t = u - j as f64;
                    m[j] = (t * m[j] + (p as f64 - t) * m[j + 1]) / (p as f64 - 1.0);
                }
            }
            m[0]
        };

        for (width, factor) in [(4usize, 4.0f64), (6, 10.0)] {
            let wf = width as f64;
            let kf = k as f64;
            let c = std::f64::consts::PI * wf * (1.0 - m_cut as f64 / kf);
            let prolate = crate::pswf::prolate::Prolate::new(c);
            let pswf_hat = |mf: f64| -> f64 {
                // w·∫₀¹ ψ₀(t)·cos(πmwt/K) dt by Simpson.
                let nq = 1024;
                let h = 1.0 / nq as f64;
                let om = std::f64::consts::PI * mf * wf / kf;
                let f = |t: f64| prolate.eval(t) * (om * t).cos();
                let mut s = f(0.0) + f(1.0);
                for j in 1..nq {
                    s += f(j as f64 * h) * if j % 2 == 1 { 4.0 } else { 2.0 };
                }
                wf * s * h / 3.0
            };
            let e_pswf = worst_in_band_error(
                k,
                width,
                m_cut,
                &|x| prolate.eval(2.0 * x / wf),
                &pswf_hat,
            );
            let e_bspl = worst_in_band_error(
                k,
                width,
                m_cut,
                &|x| bspline(width, x),
                &|mf| {
                    let x = std::f64::consts::PI * mf / kf;
                    (x.sin() / x).powi(width as i32)
                },
            );
            assert!(
                e_pswf * factor < e_bspl,
                "width {width}: PSWF worst in-band error {e_pswf:.3e} should beat \
                 B-spline {e_bspl:.3e} by ≥{factor}×"
            );
        }
    }

    #[test]
    fn wider_window_reduces_error() {
        let s = perturbed();
        let exact = exact_reference(&s);
        let l = s.simbox().l();
        let n_max = 3.2 * 7.0 / std::f64::consts::PI;
        let err_of = |width: usize| {
            let mut p = PswfRecip::new(l, 7.0, n_max, 32, width);
            let got = p.compute(s.simbox(), s.positions(), s.charges());
            ((got.energy - exact.energy) / exact.energy).abs()
        };
        let narrow = err_of(4);
        let wide = err_of(8);
        assert!(wide < narrow, "width 4: {narrow}, width 8: {wide}");
    }
}

