//! The force-provider abstraction and the one Ewald force field.
//!
//! [`ForceField`] is the seam between the MD integrator and whatever
//! computes forces, as in the paper: "we call library routines to
//! calculate real-space and wavenumber-space forces instead of calling
//! internal force subroutines" (§4). Behind it, [`ForceAssembly`] is the
//! MDM's three parts (§2, Fig. 1) — a [`RealSpaceEngine`], a
//! [`LongRangeBackend`] and the host that adds their results — written
//! once: [`EwaldTosiFumi`] over the software engine, and
//! `mdm_host::MdmForceField` over the emulated MDGRAPE-2.

use crate::ewald::real::{real_space, RealSpace, ShortRange};
use crate::ewald::{self_energy, EwaldParams};
use crate::longrange::{ExactEwald, LongRangeBackend, LongRangeCounters};
use crate::potentials::TosiFumi;
use crate::system::System;
use crate::units::COULOMB_EV_A;
use crate::vec3::Vec3;
use std::f64::consts::PI;

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

/// The real half of the Ewald sum: the real-space Coulomb terms (eq. 2)
/// and the short-range terms that share their cutoff.
pub trait RealSpaceEngine {
    /// The real-space forces, energies and virial of `system` at
    /// `params` (`pairs` is the engine's own pair count).
    fn compute(&mut self, system: &System, params: &EwaldParams) -> RealSpace;

    /// Take note of this step's wavenumber counters, once the backend
    /// has run (an engine that meters the whole machine keeps them).
    fn note_wave(&mut self, _system: &System, _counters: &LongRangeCounters) {}

    /// The force field's description, given its parameters and backend.
    fn describe(&self, params: &EwaldParams, longrange: &dyn LongRangeBackend) -> String;
}

/// The Ewald force field: a real-space engine and a wavenumber backend
/// that split at the same α. Per evaluation, the engine's real terms;
/// the backend under the `wave` span, its forces added to the real
/// ones; then [`host_sum`] under the `host` span.
pub struct ForceAssembly<R> {
    real: R,
    longrange: Box<dyn LongRangeBackend>,
    params: EwaldParams,
}

impl<R: RealSpaceEngine> ForceAssembly<R> {
    /// Assemble `real` and `longrange` at `params`. The backend's α must
    /// be `params.alpha`: the real part and the self energy split at
    /// `params`, and the Ewald identity only holds if both phases split
    /// at the same κ.
    pub fn from_parts(real: R, longrange: Box<dyn LongRangeBackend>, params: EwaldParams) -> Self {
        check_alpha(&params, longrange.as_ref());
        Self { real, longrange, params }
    }

    /// Swap the wavenumber backend (same α contract as
    /// [`Self::from_parts`]).
    pub fn set_longrange(&mut self, longrange: Box<dyn LongRangeBackend>) {
        check_alpha(&self.params, longrange.as_ref());
        self.longrange = longrange;
    }

    /// The active wavenumber backend.
    pub fn longrange(&self) -> &dyn LongRangeBackend {
        self.longrange.as_ref()
    }

    /// The Ewald parameters.
    pub fn params(&self) -> &EwaldParams {
        &self.params
    }

    /// The real-space engine.
    pub fn real(&self) -> &R {
        &self.real
    }

    /// The real-space engine, mutably.
    pub fn real_mut(&mut self) -> &mut R {
        &mut self.real
    }
}

/// The α contract: `longrange` splits at `params.alpha`.
fn check_alpha(params: &EwaldParams, longrange: &dyn LongRangeBackend) {
    assert!(
        (longrange.alpha() - params.alpha).abs() < 1e-12,
        "backend alpha {} != params alpha {}",
        longrange.alpha(),
        params.alpha
    );
}

/// The host's step, the last of every Ewald evaluation: from the summed
/// forces and the `[real + wave Coulomb, short-range, virial]` terms,
/// `coulomb = (real + wave) + self + background` and
/// `potential = coulomb + short`. The neutralising background
/// `−C·π/(2κ²V)·(Σq)²` is `−0.0` for a neutral system: no bit moves.
pub fn host_sum(
    system: &System,
    params: &EwaldParams,
    forces: Vec<Vec3>,
    [real_and_wave, short, virial]: [f64; 3],
) -> ForceResult {
    let (simbox, charges) = (system.simbox(), system.charges());
    let kappa = params.kappa(simbox.l());
    let q_tot: f64 = charges.iter().sum();
    let background = -COULOMB_EV_A * PI / (2.0 * kappa * kappa * simbox.volume()) * q_tot * q_tot;
    let coulomb = real_and_wave + self_energy(kappa, charges) + background;
    ForceResult {
        forces,
        potential: coulomb + short,
        coulomb,
        short_range: short,
        virial,
    }
}

impl<R: RealSpaceEngine> ForceField for ForceAssembly<R> {
    fn compute(&mut self, system: &System) -> ForceResult {
        let real = self.real.compute(system, &self.params);
        let wave = {
            let _wave = mdm_profile::span(mdm_profile::phase::WAVE);
            self.longrange
                .compute(system.simbox(), system.positions(), system.charges())
        };
        self.real.note_wave(system, &wave.counters);
        let mut forces = real.forces;
        for (f, df) in forces.iter_mut().zip(&wave.forces) {
            *f += *df;
        }
        let _host = mdm_profile::span(mdm_profile::phase::HOST);
        host_sum(
            system,
            &self.params,
            forces,
            [real.coulomb + wave.energy, real.short, real.virial + wave.virial],
        )
    }

    fn describe(&self) -> String {
        self.real.describe(&self.params, self.longrange.as_ref())
    }
}

/// The software real-space engine: [`real_space`] in `f64` under the
/// `real` span, the Coulomb terms plus the short-range potential it
/// holds, if any.
pub struct SoftwareReal {
    /// The short-range potential; `None` sums the Coulomb terms alone.
    short: Option<TosiFumi>,
}

impl RealSpaceEngine for SoftwareReal {
    fn compute(&mut self, system: &System, params: &EwaldParams) -> RealSpace {
        let _real = mdm_profile::span(mdm_profile::phase::REAL);
        let (simbox, types) = (system.simbox(), system.types());
        let short = self.short.as_ref().map(|potential| ShortRange { potential, types });
        let kappa = params.kappa(simbox.l());
        real_space(simbox, system.positions(), system.charges(), kappa, params.r_cut, short)
    }

    fn describe(&self, params: &EwaldParams, longrange: &dyn LongRangeBackend) -> String {
        format!(
            "software Ewald+TosiFumi (alpha={}, r_cut={} A, n_max={}, longrange={})",
            params.alpha,
            params.r_cut,
            params.n_max,
            longrange.name()
        )
    }
}

/// The software reference implementation of the paper's NaCl physics:
/// Ewald Coulomb (real + wavenumber + self) plus the Tosi–Fumi
/// short-range terms, all in `f64` — the "conventional computer" of
/// Table 4. The wavenumber part is exact Ewald by default, swappable
/// for any [`LongRangeBackend`].
pub type EwaldTosiFumi = ForceAssembly<SoftwareReal>;

impl EwaldTosiFumi {
    /// Build with explicit Ewald parameters and the exact-Ewald
    /// wavenumber backend.
    pub fn new(params: EwaldParams, short: TosiFumi) -> Self {
        Self::with_longrange(params, short, Box::new(ExactEwald::new(params.alpha, params.n_max)))
    }

    /// Build with an explicit wavenumber backend (α contract of
    /// [`ForceAssembly::from_parts`]).
    pub fn with_longrange(
        params: EwaldParams,
        short: TosiFumi,
        longrange: Box<dyn LongRangeBackend>,
    ) -> Self {
        Self::from_parts(SoftwareReal { short: Some(short) }, longrange, params)
    }

    /// The bare Ewald Coulomb sum — real, exact wavenumber, self and
    /// background terms, no short-range potential: what the Madelung
    /// constant and the direct image sum check.
    pub fn coulomb(params: EwaldParams) -> Self {
        let exact = ExactEwald::new(params.alpha, params.n_max);
        Self::from_parts(SoftwareReal { short: None }, Box::new(exact), params)
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
