//! The force-provider abstraction and the software reference force
//! field.
//!
//! [`ForceField`] is the seam between the MD integrator and whatever
//! computes forces — the pure-software reference here, or the emulated
//! MDM machine in the `mdm-host` crate. The paper's architecture is the
//! same seam: "The difference of the program when we use MDM is that we
//! call library routines to calculate real-space and wavenumber-space
//! forces instead of calling internal force subroutines" (§4).

use crate::ewald::real::{real_space, ShortRange};
use crate::ewald::{self_energy, EwaldParams, EwaldSum};
use crate::longrange::{ExactEwald, LongRangeBackend};
use crate::potentials::TosiFumi;
use crate::system::System;
use crate::vec3::Vec3;

/// Everything one force evaluation produces.
#[derive(Clone, Debug)]
pub struct ForceResult {
    /// Per-particle forces (eV/Å).
    pub forces: Vec<Vec3>,
    /// Total potential energy (eV).
    pub potential: f64,
    /// Coulomb part of the potential (real + recip + self), eV.
    pub coulomb: f64,
    /// Short-range (non-Coulomb) part, eV.
    pub short_range: f64,
    /// Total virial `Σ f⃗·r⃗` (eV) for the pressure.
    pub virial: f64,
}

/// A provider of forces for a [`System`].
pub trait ForceField {
    /// Evaluate forces and energies for the current configuration.
    fn compute(&mut self, system: &System) -> ForceResult;

    /// A short human-readable description (for logs and reports).
    fn describe(&self) -> String {
        "unnamed force field".to_owned()
    }
}

/// The software reference implementation of the paper's NaCl physics:
/// Ewald Coulomb (real + wavenumber + self) plus the Tosi–Fumi
/// short-range terms, all in `f64`.
///
/// The real-space Coulomb and the short-range terms share one pass,
/// [`real_space`] (they share `r_cut` in the paper too). The wavenumber phase is
/// a pluggable [`LongRangeBackend`] — exact Ewald by default, swappable
/// for PME or PSWF fast Ewald at construction time.
pub struct EwaldTosiFumi {
    ewald: EwaldSum,
    short: TosiFumi,
    longrange: Box<dyn LongRangeBackend>,
}

impl EwaldTosiFumi {
    /// Build with explicit Ewald parameters and the exact-Ewald
    /// wavenumber backend (bitwise the historical behaviour).
    pub fn new(params: EwaldParams, short: TosiFumi) -> Self {
        let ewald = EwaldSum::new(params);
        let longrange = Box::new(ExactEwald::with_waves(
            params.alpha,
            ewald.waves().to_vec(),
        ));
        Self {
            ewald,
            short,
            longrange,
        }
    }

    /// Build with an explicit wavenumber backend. The backend's α must
    /// match `params.alpha` — the real-space pass and self-energy use
    /// `params`, and the Ewald identity only holds if both phases split
    /// at the same κ.
    pub fn with_longrange(
        params: EwaldParams,
        short: TosiFumi,
        longrange: Box<dyn LongRangeBackend>,
    ) -> Self {
        assert!(
            (longrange.alpha() - params.alpha).abs() < 1e-12,
            "backend alpha {} != params alpha {}",
            longrange.alpha(),
            params.alpha
        );
        Self {
            ewald: EwaldSum::new(params),
            short,
            longrange,
        }
    }

    /// Swap the wavenumber backend (same α contract as
    /// [`Self::with_longrange`]).
    pub fn set_longrange(&mut self, longrange: Box<dyn LongRangeBackend>) {
        assert!(
            (longrange.alpha() - self.ewald.params().alpha).abs() < 1e-12,
            "backend alpha {} != params alpha {}",
            longrange.alpha(),
            self.ewald.params().alpha
        );
        self.longrange = longrange;
    }

    /// The active wavenumber backend.
    pub fn longrange(&self) -> &dyn LongRangeBackend {
        self.longrange.as_ref()
    }

    /// The NaCl default for a given box side: `α` chosen so the
    /// real-space cutoff is modest for small test boxes, at accuracy
    /// `s_r = s_k = 3.2`.
    pub fn nacl_default(l: f64) -> Self {
        // α ≈ 2·s_r keeps r_cut = L/2 valid for any box.
        let s = 3.2;
        let alpha = 2.0 * s * 1.05;
        Self::new(
            EwaldParams::from_alpha_accuracy(alpha, s, s, l),
            TosiFumi::nacl(),
        )
    }

    /// The NaCl field with `α` at the conventional balance point for a
    /// system of `n` particles (the paper's Table-4 logic:
    /// `59·N·N_int = 64·N·N_wv` ⟺ `α⁶ = 59·N·s_r³·π³/(64·s_k³)`).
    /// Keeps larger runs O(N^{3/2}) instead of the fixed-α default's
    /// O(N²) real-space blow-up.
    pub fn nacl_balanced(l: f64, n: usize) -> Self {
        let s = 3.2f64;
        let pi = std::f64::consts::PI;
        let alpha_balance = (59.0 * n as f64 * pi.powi(3) / 64.0).powf(1.0 / 6.0);
        // Keep r_cut = s·L/α at or below L/3 so the cell grid always has
        // ≥ 3 cells per side — below that the pair search degrades to
        // the O(N²) fallback, which dwarfs any α-balance gain.
        let alpha = alpha_balance.max(3.0 * s * 1.02);
        Self::new(
            EwaldParams::from_alpha_accuracy(alpha, s, s, l),
            TosiFumi::nacl(),
        )
    }

    /// Access the Ewald configuration.
    pub fn ewald(&self) -> &EwaldSum {
        &self.ewald
    }

    /// Access the short-range potential.
    pub fn short_range(&self) -> &TosiFumi {
        &self.short
    }
}

impl ForceField for EwaldTosiFumi {
    fn compute(&mut self, system: &System) -> ForceResult {
        let simbox = system.simbox();
        let positions = system.positions();
        let charges = system.charges();
        let params = *self.ewald.params();
        let kappa = params.kappa(simbox.l());

        let short = ShortRange {
            potential: &self.short,
            types: system.types(),
        };
        let real = real_space(simbox, positions, charges, kappa, params.r_cut, Some(short));

        let recip_out = self.longrange.compute(simbox, positions, charges);
        let mut forces = real.forces;
        for (f, df) in forces.iter_mut().zip(&recip_out.forces) {
            *f += *df;
        }

        let coulomb = real.coulomb + recip_out.energy + self_energy(kappa, charges);
        ForceResult {
            forces,
            potential: coulomb + real.short,
            coulomb,
            short_range: real.short,
            virial: real.virial + recip_out.virial,
        }
    }

    fn describe(&self) -> String {
        let p = self.ewald.params();
        format!(
            "software Ewald+TosiFumi (alpha={}, r_cut={} A, n_max={}, longrange={})",
            p.alpha,
            p.r_cut,
            p.n_max,
            self.longrange.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};

    #[test]
    fn crystal_binding_energy_reasonable() {
        let s = rocksalt_nacl(2, NACL_LATTICE_A);
        let mut ff = EwaldTosiFumi::nacl_default(s.simbox().l());
        let r = ff.compute(&s);
        let per_pair = r.potential / (s.len() as f64 / 2.0);
        // Tosi-Fumi NaCl lattice energy ≈ −7.9 eV/pair.
        assert!(
            (-8.4..-7.4).contains(&per_pair),
            "binding energy {per_pair} eV/pair"
        );
        // Coulomb dominates, short-range is net positive at equilibrium
        // compression... actually dispersion can make it slightly
        // negative; just check the split is sane.
        assert!(r.coulomb < 0.0);
        assert!(r.short_range.abs() < r.coulomb.abs());
    }

    #[test]
    fn forces_zero_on_perfect_crystal() {
        let s = rocksalt_nacl(2, NACL_LATTICE_A);
        let mut ff = EwaldTosiFumi::nacl_default(s.simbox().l());
        let r = ff.compute(&s);
        for f in &r.forces {
            assert!(f.norm() < 1e-7, "{f:?}");
        }
    }

    /// Two cells per side: the minimum-image branch of the real-space
    /// pass, at one and four threads.
    #[test]
    fn serial_and_parallel_paths_agree() {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.3, -0.1, 0.2));
        s.displace(9, Vec3::new(-0.2, 0.2, 0.0));
        let eval = |threads| {
            rayon::with_num_threads(threads, || {
                EwaldTosiFumi::nacl_default(s.simbox().l()).compute(&s)
            })
        };
        let (one, four) = (eval(1), eval(4));
        assert_eq!(one.forces, four.forces);
        assert_eq!(one.potential.to_bits(), four.potential.to_bits());
        assert_eq!(one.virial.to_bits(), four.virial.to_bits());
    }

    #[test]
    fn forces_are_gradient_of_potential() {
        let mut s = rocksalt_nacl(1, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.2, 0.1, -0.15));
        let mut ff = EwaldTosiFumi::nacl_default(s.simbox().l());
        let base = ff.compute(&s);
        let h = 1e-5;
        for axis in 0..3 {
            let mut sp = s.clone();
            let mut dr = Vec3::ZERO;
            match axis {
                0 => dr.x = h,
                1 => dr.y = h,
                _ => dr.z = h,
            }
            sp.displace(2, dr);
            let ep = ff.compute(&sp).potential;
            let mut sm = s.clone();
            sm.displace(2, -dr);
            let em = ff.compute(&sm).potential;
            let fd = -(ep - em) / (2.0 * h);
            let analytic = base.forces[2][axis];
            assert!(
                ((analytic - fd) / fd.abs().max(1e-6)).abs() < 2e-4,
                "axis {axis}: analytic {analytic} vs fd {fd}"
            );
        }
    }

    #[test]
    fn displaced_ion_is_pulled_back() {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.5, 0.0, 0.0));
        let mut ff = EwaldTosiFumi::nacl_default(s.simbox().l());
        let r = ff.compute(&s);
        // Restoring force points back along −x.
        assert!(r.forces[0].x < 0.0, "force {:?}", r.forces[0]);
    }
}
