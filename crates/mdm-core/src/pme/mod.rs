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
use crate::units::COULOMB_EV_A;
use crate::vec3::Vec3;
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

/// A complete O(N·log N) force field: cell-list real space (shared with
/// the conventional engine) + SPME reciprocal space + self-energy, for
/// the NaCl system — the force field a GROMACS-lineage code would use
/// where the MDM used brute force.
pub struct PmeTosiFumi {
    params: EwaldParams,
    short: crate::potentials::TosiFumi,
    spme: SpmeRecip,
}

impl PmeTosiFumi {
    /// Build for a box of side `l` with the given Ewald parameters and
    /// SPME discretisation.
    pub fn new(params: EwaldParams, l: f64, mesh: usize, order: usize) -> Self {
        Self {
            params,
            short: crate::potentials::TosiFumi::nacl(),
            spme: SpmeRecip::new(l, params.alpha, mesh, order),
        }
    }

    /// NaCl default: balanced α for `n` particles, mesh sized to keep
    /// the SPME error at the WINE-2-hardware level (~2 points per α).
    pub fn nacl_default(l: f64, n: usize) -> Self {
        let reference = crate::forcefield::EwaldTosiFumi::nacl_balanced(l, n);
        let params = *reference.ewald().params();
        let mesh = (2.0 * params.alpha).ceil() as usize;
        let mesh = mesh.next_power_of_two().max(16);
        Self::new(params, l, mesh, 6)
    }

    /// The Ewald parameters in use.
    pub fn params(&self) -> &EwaldParams {
        &self.params
    }

    /// The SPME engine (mesh/order inspection).
    pub fn spme(&self) -> &SpmeRecip {
        &self.spme
    }
}

impl crate::forcefield::ForceField for PmeTosiFumi {
    fn compute(&mut self, system: &crate::system::System) -> crate::forcefield::ForceResult {
        use crate::celllist::CellList;
        use crate::potentials::ShortRangePotential;
        let simbox = system.simbox();
        let positions = system.positions();
        let charges = system.charges();
        let types = system.types();
        let kappa = self.params.kappa(simbox.l());
        let r_cut = self.params.r_cut.min(simbox.max_cutoff());

        // Real space: shared pass for Ewald-real Coulomb + Tosi-Fumi.
        let cl = CellList::build(simbox, positions, r_cut);
        let mut forces = vec![Vec3::ZERO; positions.len()];
        let (mut e_c, mut e_s, mut virial) = (0.0, 0.0, 0.0);
        cl.for_each_half_pair(positions, r_cut, |i, j, d, r_sq| {
            let r = r_sq.sqrt();
            let (e, f_over_r) = crate::ewald::real::real_kernel(kappa, r_sq);
            let qq = COULOMB_EV_A * charges[i] * charges[j];
            let (ti, tj) = (types[i] as usize, types[j] as usize);
            let fs = self.short.force_over_r(ti, tj, r);
            let f = d * (qq * f_over_r + fs);
            forces[i] += f;
            forces[j] -= f;
            e_c += qq * e;
            e_s += self.short.energy(ti, tj, r);
            virial += f.dot(d);
        });

        // Reciprocal space via the mesh.
        let recip = self.spme.compute(simbox, positions, charges);
        for (f, df) in forces.iter_mut().zip(&recip.forces) {
            *f += *df;
        }

        let q_sq: f64 = charges.iter().map(|q| q * q).sum();
        let e_self = -COULOMB_EV_A * kappa / std::f64::consts::PI.sqrt() * q_sq;
        let coulomb = e_c + recip.energy + e_self;
        crate::forcefield::ForceResult {
            forces,
            potential: coulomb + e_s,
            coulomb,
            short_range: e_s,
            // The mesh virial is not assembled here; pressure users
            // should take the exact-recip field.
            virial: f64::NAN,
        }
    }

    fn describe(&self) -> String {
        format!(
            "PME Ewald+TosiFumi (alpha={}, mesh={}, order={})",
            self.params.alpha,
            self.spme.mesh(),
            self.spme.order()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::recip::recip_space;
    use crate::kvectors::half_space_vectors;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};

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

    #[test]
    fn pme_force_field_matches_exact_field() {
        use crate::forcefield::{EwaldTosiFumi, ForceField};
        let mut s = perturbed();
        s.displace(3, Vec3::new(0.1, 0.3, -0.2));
        let l = s.simbox().l();
        let mut pme = PmeTosiFumi::nacl_default(l, s.len());
        let mut exact = EwaldTosiFumi::new(*pme.params(), crate::potentials::TosiFumi::nacl());
        exact.set_parallel(false);
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
    }

    #[test]
    fn pme_md_conserves_energy() {
        use crate::integrate::Simulation;
        use crate::velocities::maxwell_boltzmann;
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        maxwell_boltzmann(&mut s, 300.0, 21);
        let pme = PmeTosiFumi::nacl_default(s.simbox().l(), s.len());
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
