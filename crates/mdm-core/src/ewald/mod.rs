//! The Ewald summation in the paper's parameterisation (§2).
//!
//! The Coulomb force is split as `F⃗(Clb) = F⃗(re) + F⃗(wn)` (eq. 1):
//!
//! * [`real`] — the short-range part, eq. 2: an `erfc`-damped pair sum
//!   cut off at `r_cut`;
//! * [`recip`] — the wavenumber part, eqs. 3 & 9–13: structure factors
//!   `Sₙ, Cₙ` (the DFT the WINE-2 hardware performs) followed by the
//!   force synthesis (the IDFT);
//! * the self-energy `−C·κ/√π·Σqᵢ²` that removes each charge's
//!   interaction with its own screening cloud.
//!
//! Dimensionless knobs, exactly as in the paper: the splitting parameter
//! `α` (so `κ = α/L` is the Gaussian width), the real cutoff `r_cut`,
//! and the wave cutoff `n_max = L·k_cut`. The three rows of Table 4 are
//! `(α, r_cut, L·k_cut) = (85.0, 26.4, 63.9)`, `(30.1, 74.4, 22.7)`,
//! `(50.3, 44.5, 37.9)` — all at the same accuracy
//! (`α·r_cut/L ≈ 2.64`, `π·L·k_cut/α ≈ 2.36`).

pub mod real;
pub mod recip;

use crate::boxsim::SimBox;
use crate::kvectors::{half_space_vectors, KVector};
use crate::special::erfc;
use crate::units::COULOMB_EV_A;
use crate::vec3::Vec3;

/// Ewald parameters in the paper's convention.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EwaldParams {
    /// Dimensionless splitting parameter (`κ = α/L`).
    pub alpha: f64,
    /// Real-space cutoff, Å.
    pub r_cut: f64,
    /// Dimensionless wave cutoff `n_max = L·k_cut`.
    pub n_max: f64,
}

impl EwaldParams {
    /// Construct and sanity-check.
    pub fn new(alpha: f64, r_cut: f64, n_max: f64) -> Self {
        assert!(alpha > 0.0 && r_cut > 0.0 && n_max >= 1.0);
        Self {
            alpha,
            r_cut,
            n_max,
        }
    }

    /// The paper's accuracy parameters: `s_r = α·r_cut/L` controls the
    /// real-space truncation error (`~erfc(s_r)`), `s_k = π·n_max/α` the
    /// wavenumber truncation (`~erfc(s_k)`-like). Both ≈ 2.4–2.6 in
    /// Table 4.
    pub fn accuracy_parameters(&self, l: f64) -> (f64, f64) {
        (self.alpha * self.r_cut / l, std::f64::consts::PI * self.n_max / self.alpha)
    }

    /// Derive balanced parameters from `(α, s_r, s_k)` for a box of side
    /// `l`: `r_cut = s_r·L/α`, `n_max = s_k·α/π`. This is how every
    /// column of Table 4 is generated from its α.
    pub fn from_alpha_accuracy(alpha: f64, s_r: f64, s_k: f64, l: f64) -> Self {
        Self::new(alpha, s_r * l / alpha, (s_k * alpha / std::f64::consts::PI).max(1.0))
    }

    /// The Gaussian screening width `κ = α/L` (Å⁻¹).
    pub fn kappa(&self, l: f64) -> f64 {
        self.alpha / l
    }

    /// Estimated relative truncation error of the real-space sum,
    /// `≈ erfc(s_r)`.
    pub fn real_truncation_error(&self, l: f64) -> f64 {
        erfc(self.accuracy_parameters(l).0)
    }

    /// Estimated relative truncation error of the wavenumber sum,
    /// `≈ erfc(s_k)`.
    pub fn recip_truncation_error(&self, l: f64) -> f64 {
        erfc(self.accuracy_parameters(l).1)
    }
}

/// The self-energy `−C·κ/√π·Σqᵢ²`: each charge's interaction with its
/// own screening cloud (eV).
pub fn self_energy(kappa: f64, charges: &[f64]) -> f64 {
    let q_sq: f64 = charges.iter().map(|q| q * q).sum();
    -COULOMB_EV_A * kappa / std::f64::consts::PI.sqrt() * q_sq
}

/// Energy breakdown and forces from a full Ewald evaluation.
#[derive(Clone, Debug)]
pub struct EwaldResult {
    /// Real-space Coulomb energy (eV).
    pub energy_real: f64,
    /// Wavenumber-space Coulomb energy (eV).
    pub energy_recip: f64,
    /// Self-energy correction (eV, negative).
    pub energy_self: f64,
    /// Neutralising-background correction for net-charged cells (eV,
    /// zero for neutral systems).
    pub energy_background: f64,
    /// Per-particle Coulomb forces (eV/Å).
    pub forces: Vec<Vec3>,
    /// Pair virial `Σ f⃗·r⃗` of the real part plus the reciprocal-space
    /// virial (for the pressure).
    pub virial: f64,
    /// Number of real-space pair interactions actually evaluated
    /// (unique pairs — the paper's `N·N_int`).
    pub real_pairs: u64,
    /// Number of wave vectors used (the paper's `N_wv`).
    pub n_waves: u64,
}

impl EwaldResult {
    /// Total Coulomb energy (eV).
    pub fn energy(&self) -> f64 {
        self.energy_real + self.energy_recip + self.energy_self + self.energy_background
    }
}

/// A configured Ewald summation: parameters plus the precomputed wave
/// table (shared across steps; the k-vectors depend only on `n_max`).
#[derive(Clone, Debug)]
pub struct EwaldSum {
    params: EwaldParams,
    waves: Vec<KVector>,
}

impl EwaldSum {
    /// Precompute the wave table for `params`.
    pub fn new(params: EwaldParams) -> Self {
        let waves = half_space_vectors(params.n_max);
        Self { params, waves }
    }

    /// The parameters.
    pub fn params(&self) -> &EwaldParams {
        &self.params
    }

    /// The half-space wave table (paper's `N_wv` entries).
    pub fn waves(&self) -> &[KVector] {
        &self.waves
    }

    /// Full Ewald evaluation: the real-space pass, the wavenumber sum and
    /// the self and background terms.
    pub fn compute(&self, simbox: SimBox, positions: &[Vec3], charges: &[f64]) -> EwaldResult {
        assert_eq!(positions.len(), charges.len());
        let kappa = self.params.kappa(simbox.l());
        let real = real::real_space(simbox, positions, charges, kappa, self.params.r_cut, None);
        let recip_out =
            recip::recip_space(simbox, positions, charges, self.params.alpha, &self.waves);
        let mut forces = real.forces;
        for (f, df) in forces.iter_mut().zip(&recip_out.forces) {
            *f += *df;
        }

        // Neutralising background for net charge: −C·π/(2κ²V)·(Σq)².
        let q_tot: f64 = charges.iter().sum();
        let energy_background =
            -COULOMB_EV_A * std::f64::consts::PI / (2.0 * kappa * kappa * simbox.volume())
                * q_tot
                * q_tot;

        EwaldResult {
            energy_real: real.coulomb,
            energy_recip: recip_out.energy,
            energy_self: self_energy(kappa, charges),
            energy_background,
            forces,
            virial: real.virial + recip_out.virial,
            real_pairs: real.pairs,
            n_waves: self.waves.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};

    /// High-accuracy Ewald on a rock-salt crystal: s_r = s_k = 4.2 keeps
    /// both truncation errors ~1e-8 (α must exceed 2·4.2 = 8.4 so that
    /// r_cut = s·L/α stays below L/2).
    fn nacl_ewald(cells: usize, alpha: f64) -> (crate::system::System, EwaldResult) {
        assert!(alpha > 8.4);
        let s = rocksalt_nacl(cells, NACL_LATTICE_A);
        let l = s.simbox().l();
        let params = EwaldParams::from_alpha_accuracy(alpha, 4.2, 4.2, l);
        let sum = EwaldSum::new(params);
        let r = sum.compute(s.simbox(), s.positions(), s.charges());
        (s, r)
    }

    #[test]
    fn madelung_constant_of_rock_salt() {
        // The total Ewald energy of a perfect rock-salt crystal is
        // −M·C·e²/a₀ per ion pair with M = 1.7475645946331822. This
        // validates real+recip+self together, non-circularly.
        let s = rocksalt_nacl(2, NACL_LATTICE_A);
        let l = s.simbox().l();
        // High-accuracy parameters: s_r = s_k = 3.6 → truncation ~4e-7.
        let sum = EwaldSum::new(EwaldParams::from_alpha_accuracy(8.0, 3.6, 3.6, l));
        let r = sum.compute(s.simbox(), s.positions(), s.charges());
        let pairs = s.len() as f64 / 2.0;
        let a0 = NACL_LATTICE_A / 2.0;
        let per_pair = r.energy() / pairs;
        let madelung = -per_pair * a0 / COULOMB_EV_A;
        assert!(
            (madelung - 1.747_564_594_633_182_2).abs() < 1e-6,
            "Madelung = {madelung}"
        );
    }

    #[test]
    fn energy_is_alpha_invariant() {
        // The physical energy must not depend on the splitting parameter.
        // Both α keep r_cut = s·L/α below L/2 (α > 2s).
        let (_, r1) = nacl_ewald(2, 8.6);
        let (_, r2) = nacl_ewald(2, 10.5);
        let rel = ((r1.energy() - r2.energy()) / r1.energy()).abs();
        assert!(rel < 1e-7, "alpha dependence: {rel}");
        // ... but the split itself moves between the parts.
        assert!((r1.energy_real - r2.energy_real).abs() > 1e-3);
    }

    #[test]
    fn forces_vanish_on_perfect_lattice() {
        let (_, r) = nacl_ewald(2, 9.0);
        for (i, f) in r.forces.iter().enumerate() {
            assert!(f.norm() < 1e-8, "force on lattice site {i}: {f:?}");
        }
    }

    #[test]
    fn forces_are_alpha_invariant_off_lattice() {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        // Perturb a particle so forces are non-trivial.
        s.displace(0, Vec3::new(0.3, -0.2, 0.15));
        s.displace(5, Vec3::new(-0.1, 0.4, 0.05));
        let l = s.simbox().l();
        let f = |alpha: f64| {
            let sum = EwaldSum::new(EwaldParams::from_alpha_accuracy(alpha, 4.2, 4.2, l));
            sum.compute(s.simbox(), s.positions(), s.charges()).forces
        };
        let f1 = f(8.6);
        let f2 = f(10.5);
        let scale = f1[0].norm().max(1e-12);
        for (a, b) in f1.iter().zip(&f2) {
            assert!((*a - *b).norm() / scale < 1e-5, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn net_force_is_zero() {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(3, Vec3::new(0.4, 0.1, -0.3));
        let l = s.simbox().l();
        let sum = EwaldSum::new(EwaldParams::from_alpha_accuracy(7.0, 3.2, 3.2, l));
        let r = sum.compute(s.simbox(), s.positions(), s.charges());
        let total: Vec3 = r.forces.iter().copied().sum();
        assert!(total.norm() < 1e-9, "net force {total:?}");
    }

    #[test]
    fn parallel_matches_serial() {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.25, 0.0, -0.1));
        let l = s.simbox().l();
        let sum = EwaldSum::new(EwaldParams::from_alpha_accuracy(7.0, 3.2, 3.2, l));
        let run = |threads| {
            rayon::with_num_threads(threads, || {
                sum.compute(s.simbox(), s.positions(), s.charges())
            })
        };
        let (a, b) = (run(1), run(4));
        assert_eq!(a.energy().to_bits(), b.energy().to_bits());
        assert_eq!(a.virial.to_bits(), b.virial.to_bits());
        assert_eq!(a.forces, b.forces);
    }

    #[test]
    fn background_term_zero_for_neutral() {
        let (_, r) = nacl_ewald(1, 9.0);
        assert_eq!(r.energy_background, 0.0);
    }

    #[test]
    fn charged_system_gets_background_correction() {
        use crate::system::{Species, System};
        let mut s = System::new(
            SimBox::cubic(10.0),
            vec![Species {
                name: "X+".into(),
                mass: 1.0,
                charge: 1.0,
            }],
        );
        s.push_particle(0, Vec3::new(1.0, 1.0, 1.0));
        s.push_particle(0, Vec3::new(6.0, 6.0, 6.0));
        let sum = EwaldSum::new(EwaldParams::from_alpha_accuracy(6.0, 3.2, 3.2, 10.0));
        let r = sum.compute(s.simbox(), s.positions(), s.charges());
        assert!(r.energy_background < 0.0);
    }

    #[test]
    fn accuracy_parameters_reproduce_table4_triples() {
        // Every column of Table 4 sits at (s_r, s_k) ≈ (2.64, 2.36).
        let l = 850.0;
        for (alpha, r_cut, n_max) in [(85.0, 26.4, 63.9), (30.1, 74.4, 22.7), (50.3, 44.5, 37.9)]
        {
            let p = EwaldParams::new(alpha, r_cut, n_max);
            let (s_r, s_k) = p.accuracy_parameters(l);
            assert!((s_r - 2.64).abs() < 0.01, "alpha={alpha}: s_r={s_r}");
            assert!((s_k - 2.365).abs() < 0.015, "alpha={alpha}: s_k={s_k}");
        }
    }

    #[test]
    fn truncation_error_estimates_scale() {
        let p = EwaldParams::new(85.0, 26.4, 63.9);
        let e_r = p.real_truncation_error(850.0);
        let e_k = p.recip_truncation_error(850.0);
        // erfc(2.64) ≈ 1.9e-4, erfc(2.36) ≈ 8.5e-4.
        assert!((1e-5..1e-3).contains(&e_r), "{e_r}");
        assert!((1e-4..1e-2).contains(&e_k), "{e_k}");
    }
}
