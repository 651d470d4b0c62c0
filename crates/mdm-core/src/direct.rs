//! Direct (non-Ewald) periodic Coulomb sums, used **only** to validate
//! the Ewald machinery against an independent method.
//!
//! * [`madelung_rocksalt`] — the rock-salt Madelung constant by Evjen's
//!   charge-weighted cube summation: the bare lattice sum is only
//!   conditionally convergent, but weighting boundary sites by the
//!   fraction of the cube that contains them restores fast absolute
//!   convergence.
//! * [`direct_coulomb_forces`] — brute-force image summation of the
//!   *forces* over an expanding cube of periodic images. Forces of a
//!   charge-neutral cell decay like a dipole field (∝ R⁻³ per shell of
//!   cells), so the force sum converges absolutely even though the
//!   energy does not — making it a legitimate Ewald cross-check.

use crate::boxsim::SimBox;
use crate::units::COULOMB_EV_A;
use crate::vec3::Vec3;

/// Rock-salt Madelung constant via Evjen summation over a
/// `(2·shells+1)³` cube of ions. `shells = 8` already gives ~7 digits of
/// `M = 1.7475645946331822`.
pub fn madelung_rocksalt(shells: i32) -> f64 {
    assert!(shells >= 1);
    let mut m = 0.0;
    let s = shells;
    for i in -s..=s {
        for j in -s..=s {
            for k in -s..=s {
                if i == 0 && j == 0 && k == 0 {
                    continue;
                }
                let sign = if (i + j + k).rem_euclid(2) == 0 { 1.0 } else { -1.0 };
                // Evjen weight: 1/2 per coordinate on the cube surface.
                let mut w = 1.0;
                if i.abs() == s {
                    w *= 0.5;
                }
                if j.abs() == s {
                    w *= 0.5;
                }
                if k.abs() == s {
                    w *= 0.5;
                }
                let r = ((i * i + j * j + k * k) as f64).sqrt();
                m -= sign * w / r;
            }
        }
    }
    m
}

/// The surface (dipole) force term that converts a vacuum-boundary
/// direct sum into the tin-foil-boundary result the Ewald sum gives:
/// an expanding-cube image sum converges to the Ewald energy **plus**
/// `E_dip = 2πC/(3V)·|M⃗|²` with `M⃗ = Σ qᵢr⃗ᵢ`, so
/// `F⃗ᵢ(tin-foil) = F⃗ᵢ(direct) + (4πC/(3V))·qᵢ·M⃗`.
pub fn tin_foil_force_correction(simbox: SimBox, positions: &[Vec3], charges: &[f64]) -> Vec<Vec3> {
    let dipole: Vec3 = positions
        .iter()
        .zip(charges)
        .map(|(r, &q)| *r * q)
        .sum();
    let factor = 4.0 * std::f64::consts::PI * COULOMB_EV_A / (3.0 * simbox.volume());
    charges.iter().map(|&q| dipole * (factor * q)).collect()
}

/// Coulomb forces by direct summation over all periodic images within
/// `shells` boxes in each direction (plus the home box). Returns forces
/// in eV/Å, under **vacuum** boundary conditions (add
/// [`tin_foil_force_correction`] to compare against Ewald). Cost is
/// `O(N²·(2·shells+1)³)` — test-sized systems only.
pub fn direct_coulomb_forces(
    simbox: SimBox,
    positions: &[Vec3],
    charges: &[f64],
    shells: i32,
) -> Vec<Vec3> {
    assert!(shells >= 0);
    let l = simbox.l();
    let n = positions.len();
    let mut forces = vec![Vec3::ZERO; n];
    for i in 0..n {
        let mut f = Vec3::ZERO;
        for j in 0..n {
            for sx in -shells..=shells {
                for sy in -shells..=shells {
                    for sz in -shells..=shells {
                        if i == j && sx == 0 && sy == 0 && sz == 0 {
                            continue;
                        }
                        let image = positions[j]
                            + Vec3::new(sx as f64 * l, sy as f64 * l, sz as f64 * l);
                        let d = positions[i] - image;
                        let r_sq = d.norm_sq();
                        let r = r_sq.sqrt();
                        f += d * (COULOMB_EV_A * charges[i] * charges[j] / (r_sq * r));
                    }
                }
            }
        }
        forces[i] = f;
    }
    forces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::EwaldParams;
    use crate::forcefield::{EwaldTosiFumi, ForceField};
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};

    #[test]
    fn evjen_madelung_converges() {
        let m8 = madelung_rocksalt(8);
        let m12 = madelung_rocksalt(12);
        let exact = 1.747_564_594_633_182_2;
        assert!((m8 - exact).abs() < 2e-5, "m8 = {m8}");
        assert!((m12 - exact).abs() < 5e-6, "m12 = {m12}");
        assert!((m12 - exact).abs() <= (m8 - exact).abs());
    }

    #[test]
    fn direct_forces_match_ewald_on_perturbed_crystal() {
        // Independent cross-validation of the whole Ewald pipeline: the
        // direct image sum knows nothing about erfc, k-vectors, or
        // splitting parameters.
        let mut s = rocksalt_nacl(1, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.4, -0.25, 0.1));
        s.displace(3, Vec3::new(-0.2, 0.3, 0.2));
        let l = s.simbox().l();
        let ewald =
            EwaldTosiFumi::coulomb(EwaldParams::from_alpha_accuracy(7.5, 3.4, 3.4, l)).compute(&s);
        // Cube sums converge ~1/shells² to the (dipole-corrected) Ewald
        // limit; 16 shells reaches ~1% of the force scale.
        let mut direct = direct_coulomb_forces(s.simbox(), s.positions(), s.charges(), 16);
        // Ewald implies tin-foil boundary conditions; the cube sum gives
        // the vacuum-boundary result — convert before comparing.
        let corr = tin_foil_force_correction(s.simbox(), s.positions(), s.charges());
        for (f, c) in direct.iter_mut().zip(&corr) {
            *f += *c;
        }
        let scale = ewald.forces[0].norm();
        for (i, (fe, fd)) in ewald.forces.iter().zip(&direct).enumerate() {
            assert!(
                (*fe - *fd).norm() / scale < 1.5e-2,
                "particle {i}: ewald {fe:?} vs direct {fd:?}"
            );
        }
    }

    #[test]
    fn direct_forces_converge_with_shells() {
        let mut s = rocksalt_nacl(1, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.3, 0.0, 0.0));
        let f3 = direct_coulomb_forces(s.simbox(), s.positions(), s.charges(), 3);
        let f6 = direct_coulomb_forces(s.simbox(), s.positions(), s.charges(), 6);
        let f9 = direct_coulomb_forces(s.simbox(), s.positions(), s.charges(), 9);
        let d36: f64 = f3.iter().zip(&f6).map(|(a, b)| (*a - *b).norm()).sum();
        let d69: f64 = f6.iter().zip(&f9).map(|(a, b)| (*a - *b).norm()).sum();
        // Successive refinements shrink (absolute convergence of the
        // force sum for a neutral cell).
        assert!(d69 < d36, "not converging: {d36} -> {d69}");
        assert!(d69 / f9[0].norm() < 0.05, "tail too large: {d69}");
    }
}
