//! The mesh-Ewald engine: spread → pruned real FFT → convolve → gather,
//! once, for every window.
//!
//! Smooth PME ([`crate::pme`]) and the PSWF fast Ewald
//! ([`crate::pswf`]) are the same pipeline with a different
//! [`Window`]: charges are spread onto a uniform real `K³` grid through
//! a compact separable window, the grid is convolved with the Ewald
//! reciprocal Green's function (divided by the window's spectrum) in
//! Fourier space, and forces are gathered back through the window's
//! derivative. [`MeshEngine`] is that pipeline; a backend supplies the
//! window, its per-axis deconvolution factors and the wavenumber
//! cutoff, nothing else.
//!
//! Every stage is a loop over a fixed decomposition — particles,
//! z-planes, `(kx, ky)` pencils — whose tasks write disjoint outputs in
//! a fixed order, so the result is bitwise identical at any Rayon
//! thread count (`rayon::with_num_threads(1, …)` is the serial run):
//!
//! * **weights**: one task per particle computes its 3·support window
//!   weights and derivatives once; spread and gather both read them.
//! * **spread**: particles are counting-sorted by the first z-plane of
//!   their stencil; the task that owns plane `z` accumulates, for
//!   `j = 0..support`, bucket `z − j`'s particles in index order. No
//!   atomics, no per-thread grid replicas.
//! * **transform + convolve**: [`fft::PrunedFft3`] over the Hermitian
//!   half-band the influence table is non-zero on; the table is stored
//!   compactly per pencil, and energy and virial are reduced from
//!   per-pencil partials in pencil order.
//! * **gather**: an ordered per-particle map.

pub mod fft;

use crate::boxsim::SimBox;
use crate::units::COULOMB_EV_A;
use crate::vec3::Vec3;
use fft::{band_indices, Complex, PrunedFft3};
use rayon::prelude::*;

/// A compact separable charge-assignment window: what distinguishes
/// one mesh backend from another.
pub trait Window: Send + Sync {
    /// Backend identifier of an engine built on this window (`"pme"`,
    /// `"pswf"`); also its profile span.
    const NAME: &'static str;

    /// Flops per mesh point the convolve pass is priced at in
    /// [`MeshEngine::estimated_flops`].
    const CONVOLVE_FLOPS: f64;

    /// Grid points per axis the window touches.
    fn support(&self) -> usize;

    /// Window weights and their derivatives with respect to `u` at
    /// mesh coordinate `u`, for the `support()` consecutive grid points
    /// starting at the returned index (which may lie outside `0..K`;
    /// the engine wraps it).
    fn weights(&self, u: f64, w: &mut [f64], dw: &mut [f64]) -> i64;

    /// Human-readable summary of an engine built on this window.
    fn describe(&self, alpha: f64, mesh: usize) -> String;
}

/// The default mesh for a wavenumber cutoff `n_max`, both windows:
/// `K = 2^⌈log₂(3.5·n_max)⌉`, at least 16 (oversampling
/// σ = K/(2·n_max) ≥ 1.75). The 3.5 factor keeps σ off the 1.6 floor
/// that `3.2·n_max` lands on exactly when it is itself a power of two —
/// at σ = 1.6, support-6 aliasing is ~10⁻³ and fails the 10⁻³
/// force-error gate; at σ ≥ 1.75 it is comfortably below 10⁻⁴.
pub fn default_mesh(n_max: f64) -> usize {
    ((3.5 * n_max).ceil() as usize).next_power_of_two().max(16)
}

/// The next grid index along a periodic axis of `k` points.
#[inline]
fn next_wrapped(p: usize, k: usize) -> usize {
    if p + 1 == k {
        0
    } else {
        p + 1
    }
}

/// Result of a mesh reciprocal-space evaluation.
#[derive(Clone, Debug)]
pub struct MeshResult {
    /// Reciprocal-space energy (eV), tin-foil convention — directly
    /// comparable to [`crate::ewald::recip::RecipResult::energy`].
    /// Accumulated in Fourier space as `½ Σₘ θ̂|Q̂|²`, which equals the
    /// gather energy `½ Σ Q·φ` identically.
    pub energy: f64,
    /// Per-particle reciprocal forces (eV/Å).
    pub forces: Vec<Vec3>,
    /// Reciprocal-space virial (eV), `Σₘ Eₘ·(1 − 2π²n²/α²)` — the same
    /// per-mode factor the exact recip sum uses.
    pub virial: f64,
}

/// The kept modes of one `(kx, ky)` pencil in the compact influence
/// table: `|kz| ≤ band`, stored at `offset..` in
/// [`fft::band_indices`] order.
#[derive(Clone, Copy)]
struct PencilBand {
    band: usize,
    offset: usize,
    /// 1 on the self-conjugate planes `kx = 0` and `kx = K/2`, else 2:
    /// how many full-spectrum modes a half-spectrum mode stands for.
    multiplicity: f64,
}

/// A configured mesh engine: window, compact influence table, and the
/// grid / stencil scratch reused across steps.
pub struct MeshEngine<W> {
    window: W,
    mesh: usize,
    alpha: f64,
    l: f64,
    /// Set by the first call through the backend interface (see
    /// `longrange::note_scratch_reuse`).
    pub(crate) warm: bool,
    fft: PrunedFft3,
    bands: Vec<PencilBand>,
    /// `θ̂(n) = (C/(πL))·e^(−π²n²/α²)/n²·d(nx)·d(ny)·d(nz)` over the
    /// kept half-spectrum modes; zero at `n = 0` and beyond the cutoff.
    theta: Vec<f64>,
    /// Per-mode virial factor `1 − 2π²n²/α²`, same indexing.
    virial_factor: Vec<f64>,
    // --- scratch, sized on first use ---
    /// Real charge grid, then potential grid, `[z][y][x]`.
    grid: Vec<f64>,
    planes: Vec<Complex>,
    lines: Vec<Complex>,
    /// Wrapped first grid index of each particle's stencil, per axis.
    base: Vec<[u32; 3]>,
    /// Per particle `6·support` values: `wx, wy, wz, dwx, dwy, dwz`.
    weights: Vec<f64>,
    /// Particle indices sorted by `base[i][2]`, and the `K + 1` bucket
    /// boundaries into them.
    order: Vec<u32>,
    bucket: Vec<u32>,
}

impl<W: Window> MeshEngine<W> {
    /// Build for a cubic box of side `l`, splitting parameter `alpha`
    /// (κ = α/L) and `mesh` points per side (a power of two).
    ///
    /// The influence function is the Ewald reciprocal Green's function
    /// on the sphere `0 < n² ≤ n_cut²` (`f64::INFINITY`: every mode the
    /// mesh resolves) times `deconvolution[|nx|]·[|ny|]·[|nz|]`, the
    /// per-axis inverse squared window spectrum for `|n| = 0..=mesh/2`.
    /// The transform is pruned to the band that sphere occupies.
    pub fn with_window(
        l: f64,
        alpha: f64,
        mesh: usize,
        window: W,
        n_cut: f64,
        deconvolution: &[f64],
    ) -> Self {
        let k = mesh;
        let half = k / 2;
        assert!(
            k.is_power_of_two() && k >= 4,
            "mesh must be a power of two >= 4"
        );
        assert!(window.support() < k, "window support must fit the mesh");
        assert_eq!(deconvolution.len(), half + 1);
        let pi = std::f64::consts::PI;
        let fold = |m: usize| if m > half { k - m } else { m };
        let in_sphere = |n_sq: usize| n_sq as f64 <= n_cut * n_cut;

        let band = (0..=half).take_while(|&n| in_sphere(n * n)).count() - 1;
        let mut pencils = Vec::new();
        let mut bands = Vec::new();
        let mut theta = Vec::new();
        let mut virial_factor = Vec::new();
        for kx in 0..=band {
            for ky in band_indices(k, band) {
                let ny = fold(ky);
                let Some(kz_band) = (0..=half)
                    .take_while(|&nz| in_sphere(kx * kx + ny * ny + nz * nz))
                    .last()
                else {
                    continue;
                };
                pencils.push((kx, ky));
                bands.push(PencilBand {
                    band: kz_band,
                    offset: theta.len(),
                    multiplicity: if kx == 0 || 2 * kx == k { 1.0 } else { 2.0 },
                });
                for kz in band_indices(k, kz_band) {
                    let nz = fold(kz);
                    let n_sq = (kx * kx + ny * ny + nz * nz) as f64;
                    if n_sq == 0.0 {
                        theta.push(0.0);
                        virial_factor.push(0.0);
                        continue;
                    }
                    let f = (-pi * pi * n_sq / (alpha * alpha)).exp() / n_sq;
                    let d = deconvolution[kx] * deconvolution[ny] * deconvolution[nz];
                    theta.push(COULOMB_EV_A / (pi * l) * f * d);
                    virial_factor.push(1.0 - 2.0 * pi * pi * n_sq / (alpha * alpha));
                }
            }
        }

        Self {
            window,
            mesh,
            alpha,
            l,
            warm: false,
            fft: PrunedFft3::new(k, pencils),
            bands,
            theta,
            virial_factor,
            grid: Vec::new(),
            planes: Vec::new(),
            lines: Vec::new(),
            base: Vec::new(),
            weights: Vec::new(),
            order: Vec::new(),
            bucket: Vec::new(),
        }
    }

    /// Mesh points per side.
    pub fn mesh(&self) -> usize {
        self.mesh
    }

    /// The α this engine was built for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The window in use.
    pub fn window(&self) -> &W {
        &self.window
    }

    /// Evaluate reciprocal energy, forces, and virial. `&mut self`
    /// because the grid and stencil scratch live in the engine and are
    /// reused across steps.
    ///
    /// # Panics
    /// Panics if the box side differs from the constructed one (the
    /// influence function is box-specific).
    pub fn compute(&mut self, simbox: SimBox, positions: &[Vec3], charges: &[f64]) -> MeshResult {
        assert_eq!(positions.len(), charges.len());
        assert!(
            (simbox.l() - self.l).abs() < 1e-9,
            "box changed; rebuild the {} engine",
            W::NAME
        );
        let _span = mdm_profile::span(W::NAME);
        {
            let _span = mdm_profile::span("spread");
            self.fill_stencils(simbox, positions);
            self.sort_by_first_plane();
            self.spread(charges);
        }
        let (energy, virial) = {
            let _span = mdm_profile::span("fft");
            self.convolve()
        };
        let _span = mdm_profile::span("gather");
        let mut forces = self.gather(charges);
        // Window interpolation breaks Newton's third law at the
        // interpolation-error level (a classic PME artifact); subtract
        // the mean force so the integrator conserves momentum exactly,
        // as production PME codes do.
        let net: Vec3 = forces.iter().copied().sum();
        let correction = net / positions.len().max(1) as f64;
        for f in &mut forces {
            *f -= correction;
        }
        MeshResult {
            energy,
            forces,
            virial,
        }
    }

    /// Estimated floating-point work of one [`Self::compute`] call for
    /// `n_particles`, by the conventional cost model — two full complex
    /// K³ FFTs at `5·K³·log₂K³`, the convolve pass over K³ points, and
    /// the O(N·support³) spread/gather stencils — the way the paper
    /// quotes *effective* flops: the work a textbook implementation
    /// would do, not the pruned work done here. Used by the long-range
    /// flop counters (the mesh path has no paper-credited DFT/IDFT ops
    /// to price).
    pub fn estimated_flops(&self, n_particles: usize) -> f64 {
        let k3 = (self.mesh * self.mesh * self.mesh) as f64;
        let support = self.window.support();
        let fft = 2.0 * 5.0 * k3 * k3.log2();
        let convolve = W::CONVOLVE_FLOPS * k3;
        let stencil = (n_particles * support * support * support) as f64 * 20.0;
        fft + convolve + stencil
    }

    /// Per-particle window weights and wrapped stencil origin.
    fn fill_stencils(&mut self, simbox: SimBox, positions: &[Vec3]) {
        let (k, s) = (self.mesh, self.window.support());
        let kf = k as f64;
        self.base.resize(positions.len(), [0; 3]);
        self.weights.resize(positions.len() * 6 * s, 0.0);
        let window = &self.window;
        let one = |((out, base), r): ((&mut [f64], &mut [u32; 3]), &Vec3)| {
            let f = simbox.fractional(*r);
            let (w, dw) = out.split_at_mut(3 * s);
            for (axis, u) in [f.x * kf, f.y * kf, f.z * kf].into_iter().enumerate() {
                let span = axis * s..(axis + 1) * s;
                let first = window.weights(u, &mut w[span.clone()], &mut dw[span]);
                base[axis] = first.rem_euclid(k as i64) as u32;
            }
        };
        self.weights
            .par_chunks_mut(6 * s)
            .zip(self.base.par_iter_mut())
            .zip(positions.par_iter())
            .for_each(one);
    }

    /// Stable counting sort of the particles by `base[i][2]`.
    fn sort_by_first_plane(&mut self) {
        let k = self.mesh;
        self.bucket.clear();
        self.bucket.resize(k + 1, 0);
        for b in &self.base {
            self.bucket[b[2] as usize + 1] += 1;
        }
        for z in 0..k {
            self.bucket[z + 1] += self.bucket[z];
        }
        let mut cursor = self.bucket[..k].to_vec();
        self.order.resize(self.base.len(), 0);
        for (i, b) in self.base.iter().enumerate() {
            let slot = &mut cursor[b[2] as usize];
            self.order[*slot as usize] = i as u32;
            *slot += 1;
        }
    }

    /// Charge grid: plane `z` is written by one task, from the
    /// particles whose stencil reaches it, in (bucket, particle) order.
    fn spread(&mut self, charges: &[f64]) {
        let (k, s) = (self.mesh, self.window.support());
        self.grid.resize(k * k * k, 0.0);
        let (base, weights, order, bucket) = (&self.base, &self.weights, &self.order, &self.bucket);
        let one = |(z, plane): (usize, &mut [f64])| {
            plane.fill(0.0);
            for j in 0..s {
                let b = (z + k - j) % k;
                for &i in &order[bucket[b] as usize..bucket[b + 1] as usize] {
                    let i = i as usize;
                    let w = &weights[i * 6 * s..(i + 1) * 6 * s];
                    let qz = charges[i] * w[2 * s + j];
                    let mut py = base[i][1] as usize;
                    for wy in &w[s..2 * s] {
                        let row = &mut plane[py * k..(py + 1) * k];
                        let qzy = qz * wy;
                        let mut px = base[i][0] as usize;
                        for wx in &w[..s] {
                            row[px] += qzy * wx;
                            px = next_wrapped(px, k);
                        }
                        py = next_wrapped(py, k);
                    }
                }
            }
        };
        self.grid.par_chunks_mut(k * k).enumerate().for_each(one);
    }

    /// Charge grid → potential grid: forward transform, multiply by the
    /// influence table (un-normalised inverse: matches `E = ½ Σ Q·φ`),
    /// inverse transform. Returns `(energy, virial)`, accumulated from
    /// `|Q̂|²` before the multiply.
    fn convolve(&mut self) -> (f64, f64) {
        let k = self.mesh;
        self.planes.resize(self.fft.spectrum_len(), Complex::ZERO);
        self.lines.resize(self.fft.spectrum_len(), Complex::ZERO);
        self.fft.forward_planes(&self.grid, &mut self.planes);
        let (bands, theta, virial_factor) = (&self.bands, &self.theta, &self.virial_factor);
        let partials = self.fft.pencil_pass(
            &self.planes,
            &mut self.lines,
            |p, line: &mut [Complex]| {
                let PencilBand {
                    band,
                    offset,
                    multiplicity,
                } = bands[p];
                let (mut energy, mut virial) = (0.0, 0.0);
                for (i, kz) in band_indices(k, band).enumerate() {
                    let (t, c) = (theta[offset + i], line[kz]);
                    let e_m = 0.5 * t * c.norm_sq();
                    energy += e_m;
                    virial += e_m * virial_factor[offset + i];
                    line[kz] = Complex::new(c.re * t, c.im * t);
                }
                if 2 * band + 1 < k {
                    line[band + 1..k - band].fill(Complex::ZERO);
                }
                (multiplicity * energy, multiplicity * virial)
            },
        );
        self.fft.inverse_planes(&self.lines, &mut self.grid);
        partials
            .iter()
            .fold((0.0, 0.0), |(e, v), p| (e + p.0, v + p.1))
    }

    /// Forces from the potential grid through the window derivative:
    /// `F = −q·∇W·φ`, `du/dr = K/L` per axis.
    fn gather(&self, charges: &[f64]) -> Vec<Vec3> {
        let (k, s) = (self.mesh, self.window.support());
        let du_dr = k as f64 / self.l;
        let one = |i: usize| -> Vec3 {
            let (w, dw) = self.weights[i * 6 * s..(i + 1) * 6 * s].split_at(3 * s);
            let [bx, by, bz] = self.base[i].map(|b| b as usize);
            let mut grad = Vec3::ZERO;
            let mut pz = bz;
            for jz in 0..s {
                let mut py = by;
                for jy in 0..s {
                    let row = &self.grid[(pz * k + py) * k..(pz * k + py + 1) * k];
                    let (mut sum, mut sum_dx) = (0.0, 0.0);
                    let mut px = bx;
                    for jx in 0..s {
                        sum += w[jx] * row[px];
                        sum_dx += dw[jx] * row[px];
                        px = next_wrapped(px, k);
                    }
                    grad.x += sum_dx * w[s + jy] * w[2 * s + jz];
                    grad.y += sum * dw[s + jy] * w[2 * s + jz];
                    grad.z += sum * w[s + jy] * dw[2 * s + jz];
                    py = next_wrapped(py, k);
                }
                pz = next_wrapped(pz, k);
            }
            grad * (-charges[i] * du_dr)
        };
        (0..charges.len()).into_par_iter().map(one).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use crate::pme::SpmeRecip;
    use crate::pswf::PswfRecip;

    fn perturbed() -> crate::system::System {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.4, -0.3, 0.2));
        s.displace(9, Vec3::new(-0.2, 0.1, 0.35));
        s
    }

    /// `½ Σᵢ qᵢ Σ W·φ` from the potential grid and stencils the last
    /// `compute` left behind.
    fn gather_energy<W: Window>(engine: &MeshEngine<W>, charges: &[f64]) -> f64 {
        let (k, s) = (engine.mesh, engine.window.support());
        let mut energy = 0.0;
        for (i, q) in charges.iter().enumerate() {
            let w = &engine.weights[i * 6 * s..i * 6 * s + 3 * s];
            let [bx, by, bz] = engine.base[i].map(|b| b as usize);
            for jz in 0..s {
                for jy in 0..s {
                    for jx in 0..s {
                        let (px, py, pz) = ((bx + jx) % k, (by + jy) % k, (bz + jz) % k);
                        let phi = engine.grid[(pz * k + py) * k + px];
                        energy += 0.5 * q * w[jx] * w[s + jy] * w[2 * s + jz] * phi;
                    }
                }
            }
        }
        energy
    }

    /// The Fourier-space energy `½ Σₘ θ̂|Q̂|²` over the compact
    /// half-spectrum table is the gather energy `½ Σ Q·φ` — which pins
    /// the Hermitian multiplicities, the pruning and the un-normalised
    /// inverse all at once.
    #[test]
    fn spectral_energy_equals_gather_energy() {
        let s = perturbed();
        let l = s.simbox().l();
        let mut pswf = PswfRecip::new(l, 7.0, 3.2 * 7.0 / std::f64::consts::PI, 32, 6);
        let spectral = pswf.compute(s.simbox(), s.positions(), s.charges()).energy;
        let gathered = gather_energy(&pswf, s.charges());
        assert!(
            ((spectral - gathered) / spectral).abs() < 1e-10,
            "pswf: spectral {spectral} vs gather {gathered}"
        );
        // Even and odd spline orders: the odd one zeroes the Nyquist
        // planes, the even one keeps them at multiplicity 1.
        for order in [4usize, 5] {
            let mut spme = SpmeRecip::new(l, 7.0, 16, order);
            let spectral = spme.compute(s.simbox(), s.positions(), s.charges()).energy;
            let gathered = gather_energy(&spme, s.charges());
            assert!(
                ((spectral - gathered) / spectral).abs() < 1e-10,
                "pme order {order}: spectral {spectral} vs gather {gathered}"
            );
        }
    }

    #[test]
    fn influence_table_is_compact_and_pme_prunes_nothing() {
        // n_max = 18.5 on K = 128, the mesh_pswf_4k operating point:
        // half the modes of the sphere (plus the kx = 0 plane's other
        // half), not 2 × 128³.
        let pswf = PswfRecip::new(50.0, 18.18, 18.5, 128, 6);
        let sphere = 4.0 / 3.0 * std::f64::consts::PI * 18.5f64.powi(3);
        assert!(
            (pswf.theta.len() as f64) < 0.6 * sphere && (pswf.theta.len() as f64) > 0.5 * sphere,
            "{} kept modes vs a {sphere:.0}-mode sphere",
            pswf.theta.len()
        );
        let spme = SpmeRecip::new(50.0, 7.0, 16, 4);
        assert_eq!(
            spme.theta.len(),
            9 * 16 * 16,
            "Hermitian half of every mode"
        );
    }

    #[test]
    fn counting_sort_is_stable_and_complete() {
        let s = perturbed();
        let mut spme = SpmeRecip::new(s.simbox().l(), 7.0, 16, 4);
        spme.compute(s.simbox(), s.positions(), s.charges());
        assert_eq!(spme.bucket[16] as usize, s.len());
        for z in 0..16 {
            let members = &spme.order[spme.bucket[z] as usize..spme.bucket[z + 1] as usize];
            assert!(
                members.windows(2).all(|w| w[0] < w[1]),
                "plane {z}: {members:?}"
            );
            assert!(members
                .iter()
                .all(|&i| spme.base[i as usize][2] as usize == z));
        }
    }
}
