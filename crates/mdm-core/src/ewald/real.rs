//! Real-space part of the Ewald sum (paper eq. 2).
//!
//! Pair kernel, with `κ = α/L`:
//!
//! * energy: `C·qᵢqⱼ·erfc(κr)/r`
//! * force on `i`: `C·qᵢqⱼ·[erfc(κr)/r + 2κ/√π·e^(−κ²r²)]·r⃗ᵢⱼ/r²`
//!
//! Two implementations:
//! * [`real_space`] — serial, unique pairs, Newton's third law: the
//!   "conventional computer" kernel whose op count is `59·N·N_int`;
//! * [`real_space_parallel`] — Rayon over particles, each scanning its
//!   27-cell neighbourhood (ordered pairs, like the hardware dataflow,
//!   but with cutoff skipping since software can afford the branch).

use crate::boxsim::SimBox;
use crate::celllist::CellList;
use crate::special::erfcx;
use crate::units::COULOMB_EV_A;
use crate::vec3::Vec3;
use rayon::prelude::*;
use std::f64::consts::FRAC_2_SQRT_PI;

/// The scalar kernel: given `r²`, returns `(pair_energy/qᵢqⱼ,
/// force_over_r/qᵢqⱼ)` — caller multiplies by `C·qᵢqⱼ`.
///
/// One Gaussian, two uses: `e^(−κ²r²)` is both the factor that turns
/// the fixed-cost `erfcx` into `erfc(κr)` and the force's own
/// `2κ/√π·e^(−κ²r²)` term, so a pair costs a square root, one `exp`, a
/// twelve-coefficient polynomial and two divisions whatever its `κr`.
#[inline]
pub fn real_kernel(kappa: f64, r_sq: f64) -> (f64, f64) {
    let r = r_sq.sqrt();
    let x = kappa * r;
    let gaussian = (-x * x).exp();
    let e = gaussian * erfcx(x) / r;
    // force_over_r = (erfc(κr)/r + 2κ/√π·e^(−κ²r²))/r².
    let f_over_r = (e + kappa * (FRAC_2_SQRT_PI * gaussian)) / r_sq;
    (e, f_over_r)
}

/// Serial unique-pair evaluation. Returns
/// `(energy, forces, virial, pair_count)`.
pub fn real_space(
    simbox: SimBox,
    positions: &[Vec3],
    charges: &[f64],
    kappa: f64,
    r_cut: f64,
) -> (f64, Vec<Vec3>, f64, u64) {
    let _span = mdm_profile::span("ewald_real");
    let cl = CellList::build(simbox, positions, r_cut);
    let mut energy = 0.0;
    let mut virial = 0.0;
    let mut forces = vec![Vec3::ZERO; positions.len()];
    let mut pairs = 0u64;
    cl.for_each_half_pair(positions, r_cut, |i, j, d, r_sq| {
        let (e, f_over_r) = real_kernel(kappa, r_sq);
        let qq = COULOMB_EV_A * charges[i] * charges[j];
        energy += qq * e;
        let f = d * (qq * f_over_r);
        forces[i] += f;
        forces[j] -= f;
        virial += f.dot(d);
        pairs += 1;
    });
    (energy, forces, virial, pairs)
}

/// Rayon-parallel per-particle evaluation (ordered pairs, halved for the
/// energy/virial). Deterministic: each particle's accumulation order is
/// fixed by the cell traversal.
pub fn real_space_parallel(
    simbox: SimBox,
    positions: &[Vec3],
    charges: &[f64],
    kappa: f64,
    r_cut: f64,
) -> (f64, Vec<Vec3>, f64, u64) {
    let _span = mdm_profile::span("ewald_real");
    let cl = CellList::build(simbox, positions, r_cut);
    if !cl.supports_cutoff(r_cut) {
        // Grid too coarse for the 27-cell scan; the serial path has the
        // brute-force fallback.
        return real_space(simbox, positions, charges, kappa, r_cut);
    }
    let r_cut_sq = r_cut * r_cut;
    // Per-particle: force, energy share (half of ordered-pair energy),
    // virial share, pair count.
    let per_particle: Vec<(Vec3, f64, f64, u64)> = (0..positions.len())
        .into_par_iter()
        .map(|i| {
            let ri = positions[i];
            let qi = charges[i];
            let c = cl.cell_of(i);
            let mut force = Vec3::ZERO;
            let mut energy = 0.0;
            let mut virial = 0.0;
            let mut pairs = 0u64;
            for (neighbor, shift) in cl.neighbors27(c) {
                for &ju in cl.particles_in(neighbor) {
                    let j = ju as usize;
                    if j == i && shift == Vec3::ZERO {
                        continue;
                    }
                    let d = ri - (positions[j] + shift);
                    let r_sq = d.norm_sq();
                    if r_sq > r_cut_sq {
                        continue;
                    }
                    let (e, f_over_r) = real_kernel(kappa, r_sq);
                    let qq = COULOMB_EV_A * qi * charges[j];
                    let f = d * (qq * f_over_r);
                    force += f;
                    energy += 0.5 * qq * e;
                    virial += 0.5 * f.dot(d);
                    pairs += 1;
                }
            }
            (force, energy, virial, pairs)
        })
        .collect();
    let mut forces = Vec::with_capacity(positions.len());
    let mut energy = 0.0;
    let mut virial = 0.0;
    let mut pairs = 0u64;
    for (f, e, v, p) in per_particle {
        forces.push(f);
        energy += e;
        virial += v;
        pairs += p;
    }
    // Ordered pairs counted twice.
    (energy, forces, virial, pairs / 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_charged(n: usize, l: f64, seed: u64) -> (SimBox, Vec<Vec3>, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let b = SimBox::cubic(l);
        let pos = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let q = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        (b, pos, q)
    }

    #[test]
    fn kernel_reduces_to_bare_coulomb_at_small_kappa() {
        // κ → 0: erfc → 1, Gaussian term → 2κ/√π → 0.
        let (e, f) = real_kernel(1e-9, 4.0);
        assert!((e - 0.5).abs() < 1e-8);
        assert!((f - 0.125).abs() < 1e-7); // 1/r³ = 1/8
    }

    #[test]
    fn kernel_matches_the_textbook_formula() {
        // Eq. 2 written out, its erfc from the defining expansions and
        // its Gaussian evaluated a second time: from the 1e-3 Å pair of
        // the driver's `clustered` configuration out to 20 Å, through
        // every regime of the fitted erfc (κr up to 20).
        use crate::special::erfc_expansion;
        for kappa in [0.1, 0.43, 1.0] {
            let mut r = 1e-3;
            while r <= 20.0 {
                let (e, f_over_r) = real_kernel(kappa, r * r);
                let e_want = erfc_expansion(kappa * r) / r;
                let gaussian = (-kappa * kappa * r * r).exp();
                let f_want = (e_want + kappa * FRAC_2_SQRT_PI * gaussian) / (r * r);
                assert!(
                    ((e - e_want) / e_want).abs() <= 1e-13,
                    "κ={kappa} r={r}: e {e:e} vs {e_want:e}"
                );
                assert!(
                    ((f_over_r - f_want) / f_want).abs() <= 1e-13,
                    "κ={kappa} r={r}: f/r {f_over_r:e} vs {f_want:e}"
                );
                r *= 1.01;
            }
        }
    }

    #[test]
    fn kernel_force_is_energy_gradient() {
        let kappa = 0.35;
        let h = 1e-6;
        for &r in &[1.5f64, 3.0, 5.5] {
            let (ep, _) = real_kernel(kappa, (r + h) * (r + h));
            let (em, _) = real_kernel(kappa, (r - h) * (r - h));
            let fd = -(ep - em) / (2.0 * h);
            let (_, f_over_r) = real_kernel(kappa, r * r);
            assert!(
                ((f_over_r * r - fd) / fd).abs() < 1e-6,
                "r={r}: {} vs {fd}",
                f_over_r * r
            );
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let (b, pos, q) = random_charged(400, 20.0, 21);
        let (e1, f1, v1, p1) = real_space(b, &pos, &q, 0.3, 5.0);
        let (e2, f2, v2, p2) = real_space_parallel(b, &pos, &q, 0.3, 5.0);
        assert_eq!(p1, p2);
        assert!(((e1 - e2) / e1).abs() < 1e-12, "{e1} vs {e2}");
        assert!(((v1 - v2) / v1).abs() < 1e-11);
        for (a, b) in f1.iter().zip(&f2) {
            assert!((*a - *b).norm() < 1e-10);
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        let (b, pos, q) = random_charged(200, 15.0, 22);
        let (_, forces, _, _) = real_space(b, &pos, &q, 0.4, 4.5);
        let net: Vec3 = forces.iter().copied().sum();
        assert!(net.norm() < 1e-10);
    }

    #[test]
    fn opposite_charges_attract() {
        let b = SimBox::cubic(20.0);
        let pos = vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(8.0, 5.0, 5.0)];
        let q = vec![1.0, -1.0];
        let (e, f, _, pairs) = real_space(b, &pos, &q, 0.2, 6.0);
        assert_eq!(pairs, 1);
        assert!(e < 0.0);
        // Force on particle 0 points toward particle 1 (+x).
        assert!(f[0].x > 0.0);
        assert!((f[0] + f[1]).norm() < 1e-14);
    }

    #[test]
    fn energy_decays_with_kappa() {
        // Larger κ screens harder: |E_real| shrinks.
        let (b, pos, q) = random_charged(100, 12.0, 23);
        let (e1, _, _, _) = real_space(b, &pos, &q, 0.2, 5.0);
        let (e2, _, _, _) = real_space(b, &pos, &q, 0.8, 5.0);
        assert!(e2.abs() < e1.abs());
    }
}
