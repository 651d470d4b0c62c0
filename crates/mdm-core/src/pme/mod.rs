//! Smooth particle-mesh Ewald — the paper's ref. \[4\], one of the
//! "faster methods which scale as O(N) or O(N log N)" whose accuracy
//! the paper says "has not been well discussed" (§1). This module makes
//! that discussion executable: the same reciprocal-space sum the
//! brute-force DFT (and WINE-2) computes exactly, approximated by
//! B-spline charge spreading + FFT, with a measurable, mesh-controlled
//! error against the exact [`crate::ewald::recip`] reference.
//!
//! What is SPME-specific lives here — the cardinal B-splines
//! ([`bspline`]), the window they make ([`BSplineWindow`]) and the
//! Euler exponential-spline deconvolution; the spread → FFT → gather
//! pipeline is the shared [`crate::mesh::MeshEngine`].

pub mod bspline;

use crate::ewald::EwaldParams;
use crate::mesh::{default_mesh, MeshEngine, Window};
use bspline::{b_mod_sq, m_spline, m_spline_deriv};

/// Largest supported B-spline order.
const MAX_ORDER: usize = 8;

/// The order-`n` cardinal B-spline as a mesh window: a particle at
/// mesh coordinate `u` touches the grid points
/// `p = ⌊u⌋−n+1 ..= ⌊u⌋` with weight `M_n(u − p)`.
pub struct BSplineWindow {
    order: usize,
}

impl Window for BSplineWindow {
    const NAME: &'static str = "pme";
    const CONVOLVE_FLOPS: f64 = 9.0;

    fn support(&self) -> usize {
        self.order
    }

    fn weights(&self, u: f64, w: &mut [f64], dw: &mut [f64]) -> i64 {
        let first = u.floor() as i64 - self.order as i64 + 1;
        for (j, (w, dw)) in w.iter_mut().zip(dw).enumerate() {
            let x = u - (first + j as i64) as f64;
            *w = m_spline(self.order, x);
            *dw = m_spline_deriv(self.order, x);
        }
        first
    }

    fn describe(&self, alpha: f64, mesh: usize) -> String {
        format!("SPME (alpha={alpha}, mesh={mesh}, order={})", self.order)
    }
}

/// A configured SPME reciprocal-space engine: the mesh engine on a
/// B-spline window, summing every mode the mesh resolves.
pub type SpmeRecip = MeshEngine<BSplineWindow>;

impl SpmeRecip {
    /// Build for a cubic box of side `l`, the paper's dimensionless
    /// splitting parameter `alpha` (κ = α/L), mesh points per side
    /// `mesh` (power of two) and B-spline `order` (≥ 3; 4 is the
    /// classic choice).
    pub fn new(l: f64, alpha: f64, mesh: usize, order: usize) -> Self {
        assert!((3..=MAX_ORDER).contains(&order));
        assert!(order < mesh, "spline support must fit the mesh");
        let deconvolution: Vec<f64> = (0..=mesh / 2).map(|m| b_mod_sq(order, mesh, m)).collect();
        Self::with_window(
            l,
            alpha,
            mesh,
            BSplineWindow { order },
            f64::INFINITY,
            &deconvolution,
        )
    }

    /// Default sizing for an accuracy parameterisation:
    /// [`default_mesh`] at spline order 6.
    pub fn for_params(params: &EwaldParams, l: f64) -> Self {
        Self::new(l, params.alpha, default_mesh(params.n_max), 6)
    }

    /// Spline order.
    pub fn order(&self) -> usize {
        self.window().order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::recip::recip_space;
    use crate::forcefield::{EwaldTosiFumi, ForceField};
    use crate::kvectors::half_space_vectors;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use crate::potentials::TosiFumi;
    use crate::vec3::Vec3;

    fn perturbed() -> crate::system::System {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.4, -0.3, 0.2));
        s.displace(9, Vec3::new(-0.2, 0.1, 0.35));
        s
    }

    #[test]
    fn energy_matches_exact_recip() {
        let s = perturbed();
        let l = s.simbox().l();
        let alpha = 7.0;
        // Exact reference needs all significant waves: n_max ~ 2α.
        let waves = half_space_vectors(2.2 * alpha);
        let exact = recip_space(s.simbox(), s.positions(), s.charges(), alpha, &waves);
        let mut spme = SpmeRecip::new(l, alpha, 32, 4);
        let got = spme.compute(s.simbox(), s.positions(), s.charges());
        let rel = ((got.energy - exact.energy) / exact.energy).abs();
        assert!(rel < 2e-3, "SPME energy {} vs exact {} (rel {rel})", got.energy, exact.energy);
    }

    #[test]
    fn forces_match_exact_recip() {
        let s = perturbed();
        let l = s.simbox().l();
        let alpha = 7.0;
        let waves = half_space_vectors(2.2 * alpha);
        let exact = recip_space(s.simbox(), s.positions(), s.charges(), alpha, &waves);
        let mut spme = SpmeRecip::new(l, alpha, 32, 4);
        let got = spme.compute(s.simbox(), s.positions(), s.charges());
        let scale = exact.forces.iter().map(|f| f.norm()).fold(1e-300f64, f64::max);
        for (i, (a, b)) in got.forces.iter().zip(&exact.forces).enumerate() {
            let rel = (*a - *b).norm() / scale;
            assert!(rel < 5e-3, "particle {i}: rel {rel}");
        }
    }

    #[test]
    fn finer_mesh_and_higher_order_reduce_error() {
        let s = perturbed();
        let l = s.simbox().l();
        let alpha = 7.0;
        let waves = half_space_vectors(2.2 * alpha);
        let exact = recip_space(s.simbox(), s.positions(), s.charges(), alpha, &waves);
        let err_of = |mesh: usize, order: usize| {
            let mut spme = SpmeRecip::new(l, alpha, mesh, order);
            let got = spme.compute(s.simbox(), s.positions(), s.charges());
            ((got.energy - exact.energy) / exact.energy).abs()
        };
        let coarse = err_of(16, 4);
        let fine = err_of(64, 4);
        assert!(fine < coarse, "mesh refinement: {coarse} -> {fine}");
        let low_order = err_of(32, 3);
        let high_order = err_of(32, 6);
        assert!(high_order < low_order, "order: {low_order} -> {high_order}");
    }

    #[test]
    fn forces_sum_to_zero() {
        let s = perturbed();
        let mut spme = SpmeRecip::new(s.simbox().l(), 7.0, 32, 4);
        let got = spme.compute(s.simbox(), s.positions(), s.charges());
        let net: Vec3 = got.forces.iter().copied().sum();
        // The raw SPME forces violate Newton's third law at the
        // interpolation-error level; compute() subtracts the mean force,
        // so the returned set is momentum-conserving to round-off.
        assert!(net.norm() < 1e-12, "net {net:?}");
    }

    /// The O(N·log N) NaCl field: the exact field's balanced parameters
    /// with SPME for the wavenumber part, on a mesh of ⌈2α⌉ rounded up
    /// to a power of two (at least 16), order 6.
    fn pme_field(l: f64, n: usize) -> EwaldTosiFumi {
        let params = *EwaldTosiFumi::nacl_balanced(l, n).ewald().params();
        let mesh = ((2.0 * params.alpha).ceil() as usize)
            .next_power_of_two()
            .max(16);
        let spme = SpmeRecip::new(l, params.alpha, mesh, 6);
        EwaldTosiFumi::with_longrange(params, TosiFumi::nacl(), Box::new(spme))
    }

    #[test]
    fn pme_force_field_matches_exact_field() {
        let mut s = perturbed();
        s.displace(3, Vec3::new(0.1, 0.3, -0.2));
        let l = s.simbox().l();
        let mut pme = pme_field(l, s.len());
        let mut exact = EwaldTosiFumi::new(*pme.ewald().params(), TosiFumi::nacl());
        let rp = pme.compute(&s);
        let re = exact.compute(&s);
        assert!(
            ((rp.potential - re.potential) / re.potential).abs() < 1e-4,
            "{} vs {}",
            rp.potential,
            re.potential
        );
        let scale = re.forces.iter().map(|f| f.norm()).fold(1e-300f64, f64::max);
        for (a, b) in rp.forces.iter().zip(&re.forces) {
            assert!((*a - *b).norm() / scale < 1e-3, "{a:?} vs {b:?}");
        }
        // The mesh engine assembles a virial, so the pressure is usable:
        // finite, and off the exact field's by the mesh error (the
        // forces' 1e-3, on the scale of the Coulomb energy).
        assert!(rp.virial.is_finite(), "virial {}", rp.virial);
        assert!(
            (rp.virial - re.virial).abs() < 1e-3 * re.coulomb.abs(),
            "virial {} vs {}",
            rp.virial,
            re.virial
        );
    }

    #[test]
    fn pme_md_conserves_energy() {
        use crate::integrate::Simulation;
        use crate::velocities::maxwell_boltzmann;
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        maxwell_boltzmann(&mut s, 300.0, 21);
        let pme = pme_field(s.simbox().l(), s.len());
        let mut sim = Simulation::new(s, pme, 1.0);
        let e0 = sim.record().total;
        let rec = sim.run(30);
        let drift = ((rec.last().unwrap().total - e0) / e0).abs();
        // PME forces are approximate but smooth: conservation within the
        // interpolation-error budget.
        assert!(drift < 5e-4, "drift {drift}");
    }

    #[test]
    fn energy_is_translation_invariant() {
        let s = perturbed();
        let l = s.simbox().l();
        let mut spme = SpmeRecip::new(l, 7.0, 32, 4);
        let e0 = spme.compute(s.simbox(), s.positions(), s.charges()).energy;
        let shifted: Vec<Vec3> = s
            .positions()
            .iter()
            .map(|&r| s.simbox().wrap(r + Vec3::new(1.234, -0.77, 2.1)))
            .collect();
        let e1 = spme.compute(s.simbox(), &shifted, s.charges()).energy;
        // Translation moves charges across mesh cells: agreement is at
        // the interpolation-error level, not exact.
        assert!(((e0 - e1) / e0).abs() < 1e-3, "{e0} vs {e1}");
    }
}
