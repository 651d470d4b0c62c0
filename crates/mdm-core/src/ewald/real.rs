//! Real-space part of the Ewald sum (paper eq. 2).
//!
//! Pair kernel, with `κ = α/L`:
//!
//! * energy: `C·qᵢqⱼ·erfc(κr)/r`
//! * force on `i`: `C·qᵢqⱼ·[erfc(κr)/r + 2κ/√π·e^(−κ²r²)]·r⃗ᵢⱼ/r²`
//!
//! One pass, [`real_space`]: a Rayon map over particles, collected and
//! reduced in index order, so the result is bitwise the same at every
//! thread count. Each particle's share is `particle_sum` over its
//! candidate list — the 27-cell block on a grid of at least 3 cells per
//! side, every minimum-image `j` on a coarser one — with ordered pairs
//! (like the hardware dataflow), half-weighted energy and virial, and
//! cutoff skipping (software can afford the branch). Given a short-range
//! potential, the same pass adds the Tosi–Fumi terms (they share `r_cut`
//! in the paper too). [`real_space_of`] runs the same shares over a
//! subset of the particles — one domain of the §4 parallel program.

use crate::boxsim::SimBox;
use crate::celllist::CellList;
use crate::potentials::{ShortRangePotential, TosiFumi};
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

/// The short-range terms a pass adds: the potential and the species
/// index of every particle the charges cover.
#[derive(Clone, Copy)]
pub struct ShortRange<'a> {
    /// The pair potential.
    pub potential: &'a TosiFumi,
    /// Species per particle, indexed like the charges.
    pub types: &'a [u8],
}

/// One particle's half-weighted share of the real-space sum.
#[derive(Clone, Copy, Debug, Default)]
struct ParticleSum {
    /// Force on the particle (eV/Å).
    force: Vec3,
    /// Half the Ewald-real Coulomb energy of its pairs (eV).
    coulomb: f64,
    /// Half the short-range energy of its pairs (eV; zero without a
    /// short-range potential).
    short: f64,
    /// Half the pair virial `Σ f⃗·r⃗` (eV).
    virial: f64,
    /// Ordered pairs within the cutoff.
    pairs: u64,
}

/// Output of one [`real_space`] pass.
#[derive(Clone, Debug)]
pub struct RealSpace {
    /// Per-particle forces (eV/Å).
    pub forces: Vec<Vec3>,
    /// Ewald-real Coulomb energy (eV).
    pub coulomb: f64,
    /// Short-range energy (eV).
    pub short: f64,
    /// Pair virial `Σ f⃗·r⃗` (eV).
    pub virial: f64,
    /// Pairs within the cutoff: unique ones (the paper's `N·N_int`)
    /// from [`real_space`], ordered ones from [`real_space_of`].
    pub pairs: u64,
}

/// Particle `i`'s share: every candidate `(j, r⃗ᵢ − r⃗ⱼ)` (the image of
/// `j` already chosen) within `r_cut`, Coulomb from `charges` and, with
/// `short`, the short-range terms.
fn particle_sum(
    kappa: f64,
    r_cut: f64,
    i: usize,
    charges: &[f64],
    short: Option<ShortRange>,
    candidates: impl IntoIterator<Item = (usize, Vec3)>,
) -> ParticleSum {
    let r_cut_sq = r_cut * r_cut;
    let qi = charges[i];
    let mut sum = ParticleSum::default();
    for (j, d) in candidates {
        let r_sq = d.norm_sq();
        if r_sq > r_cut_sq {
            continue;
        }
        let (e, f_over_r) = real_kernel(kappa, r_sq);
        let qq = COULOMB_EV_A * qi * charges[j];
        let mut scale = qq * f_over_r;
        if let Some(ShortRange { potential, types }) = short {
            let (ti, tj, r) = (types[i] as usize, types[j] as usize, r_sq.sqrt());
            scale += potential.force_over_r(ti, tj, r);
            sum.short += 0.5 * potential.energy(ti, tj, r);
        }
        let f = d * scale;
        sum.force += f;
        sum.coulomb += 0.5 * qq * e;
        sum.virial += 0.5 * f.dot(d);
        sum.pairs += 1;
    }
    sum
}

/// The real-space pass over every particle. `r_cut` is clamped to the
/// minimum-image bound `L/2` (for small test boxes a nominal cutoff
/// beyond it truncates a tail of at most `erfc(α/2)` per pair).
pub fn real_space(
    simbox: SimBox,
    positions: &[Vec3],
    charges: &[f64],
    kappa: f64,
    r_cut: f64,
    short: Option<ShortRange>,
) -> RealSpace {
    let _span = mdm_profile::span("ewald_real");
    let r_cut = r_cut.min(simbox.max_cutoff());
    let cl = CellList::build(simbox, positions, r_cut);
    let everyone: Vec<u32> = (0..positions.len() as u32).collect();
    let mut out = real_space_of(&cl, positions, charges, kappa, r_cut, short, &everyone);
    // Every pair was visited from both ends.
    out.pairs /= 2;
    out
}

/// The same pass over the `targets` only, on a cell list `cl` built
/// over all of `positions` at `r_cut` (already at most `L/2`): their
/// forces in target order, the half-weighted energies and virial of
/// their pairs, and their **ordered** pair count. Over a partition of
/// the particles the forces are [`real_space`]'s bit for bit and the
/// sums add up to its sums.
pub fn real_space_of(
    cl: &CellList,
    positions: &[Vec3],
    charges: &[f64],
    kappa: f64,
    r_cut: f64,
    short: Option<ShortRange>,
    targets: &[u32],
) -> RealSpace {
    let per_particle: Vec<ParticleSum> = targets
        .par_iter()
        .map(|&i| share(cl, positions, charges, kappa, r_cut, short, i as usize))
        .collect();
    // Add the shares up in order.
    let mut out = RealSpace {
        forces: Vec::with_capacity(per_particle.len()),
        coulomb: 0.0,
        short: 0.0,
        virial: 0.0,
        pairs: 0,
    };
    for p in per_particle {
        out.forces.push(p.force);
        out.coulomb += p.coulomb;
        out.short += p.short;
        out.virial += p.virial;
        out.pairs += p.pairs;
    }
    out
}

/// Particle `i`'s candidates, then its [`particle_sum`]: the 27-cell
/// block when the grid supports `r_cut`, every minimum-image `j`
/// otherwise.
fn share(
    cl: &CellList,
    positions: &[Vec3],
    charges: &[f64],
    kappa: f64,
    r_cut: f64,
    short: Option<ShortRange>,
    i: usize,
) -> ParticleSum {
    let ri = positions[i];
    if cl.supports_cutoff(r_cut) {
        let neighbors = cl.neighbors27(cl.cell_of(i));
        let candidates = neighbors.into_iter().flat_map(|(c, shift)| {
            cl.particles_in(c).iter().filter_map(move |&j| {
                let j = j as usize;
                let image = ri - (positions[j] + shift);
                (j != i || shift != Vec3::ZERO).then_some((j, image))
            })
        });
        particle_sum(kappa, r_cut, i, charges, short, candidates)
    } else {
        let simbox = cl.simbox();
        let candidates = positions
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(j, &rj)| (j, simbox.min_image(ri, rj)));
        particle_sum(kappa, r_cut, i, charges, short, candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use rayon::with_num_threads;

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

    fn assert_bitwise(a: &RealSpace, b: &RealSpace, what: &str) {
        assert_eq!(a.forces, b.forces, "{what}: forces");
        assert_eq!(a.coulomb.to_bits(), b.coulomb.to_bits(), "{what}: coulomb");
        assert_eq!(a.short.to_bits(), b.short.to_bits(), "{what}: short");
        assert_eq!(a.virial.to_bits(), b.virial.to_bits(), "{what}: virial");
        assert_eq!(a.pairs, b.pairs, "{what}: pairs");
    }

    /// The 27-cell block (four cells per side) at one and four threads.
    #[test]
    fn serial_and_parallel_agree() {
        let (b, pos, q) = random_charged(400, 20.0, 21);
        let run = |threads| with_num_threads(threads, || real_space(b, &pos, &q, 0.3, 5.0, None));
        let one = run(1);
        assert!(one.pairs > 0);
        assert_bitwise(&one, &run(4), "4 threads");
    }

    /// Coarse grids take the minimum-image branch, fine ones the 27-cell
    /// block; both must be the textbook O(N²) minimum-image double loop,
    /// at any thread count. Nominal cutoffs of 0.8·L (one cell per side)
    /// and 0.5·L both clamp to L/2.
    #[test]
    fn every_grid_matches_the_minimum_image_double_loop() {
        let l = 12.0;
        let (b, pos, q) = random_charged(90, l, 24);
        let kappa = 0.45;
        for nominal in [0.8 * l, 0.5 * l, 0.45 * l, 0.32 * l] {
            let r_cut = nominal.min(l / 2.0);
            let (mut coulomb, mut virial, mut pairs) = (0.0, 0.0, 0u64);
            let mut forces = vec![Vec3::ZERO; pos.len()];
            for i in 0..pos.len() {
                for j in i + 1..pos.len() {
                    let d = b.min_image(pos[i], pos[j]);
                    let r_sq = d.norm_sq();
                    if r_sq > r_cut * r_cut {
                        continue;
                    }
                    let (e, f_over_r) = real_kernel(kappa, r_sq);
                    let qq = COULOMB_EV_A * q[i] * q[j];
                    let f = d * (qq * f_over_r);
                    forces[i] += f;
                    forces[j] -= f;
                    coulomb += qq * e;
                    virial += f.dot(d);
                    pairs += 1;
                }
            }
            let run =
                |threads| with_num_threads(threads, || real_space(b, &pos, &q, kappa, nominal, None));
            let got = run(1);
            assert_bitwise(&got, &run(4), &format!("r_cut {nominal}: 4 threads"));
            assert_eq!(got.pairs, pairs, "r_cut {nominal}");
            assert!(((got.coulomb - coulomb) / coulomb).abs() < 1e-12, "r_cut {nominal}");
            assert!(((got.virial - virial) / virial).abs() < 1e-12, "r_cut {nominal}");
            let scale = forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
            for (i, (a, w)) in got.forces.iter().zip(&forces).enumerate() {
                assert!((*a - *w).norm() / scale < 1e-10, "r_cut {nominal}, particle {i}");
            }
        }
    }

    /// Over a partition of the particles (strided, so each part spans
    /// the box), `real_space_of` scatters back to `real_space`'s forces
    /// bit for bit, and its sums add up to `real_space`'s: on the 27-cell
    /// block (four cells per side) and on the minimum-image fallback
    /// (two).
    #[test]
    fn a_partition_of_targets_is_the_whole_pass() {
        let l = 16.0;
        let (b, pos, q) = random_charged(160, l, 25);
        let kappa = 0.4;
        for (r_cut, block) in [(4.0, true), (l / 2.0, false)] {
            let whole = real_space(b, &pos, &q, kappa, r_cut, None);
            let cl = CellList::build(b, &pos, r_cut);
            assert_eq!(cl.supports_cutoff(r_cut), block);
            let mut forces = vec![Vec3::ZERO; pos.len()];
            let (mut coulomb, mut virial, mut pairs) = (0.0, 0.0, 0);
            for part in 0..3u32 {
                let targets: Vec<u32> = (part..pos.len() as u32).step_by(3).collect();
                let got = real_space_of(&cl, &pos, &q, kappa, r_cut, None, &targets);
                assert_eq!(got.forces.len(), targets.len());
                for (&i, &f) in targets.iter().zip(&got.forces) {
                    forces[i as usize] = f;
                }
                coulomb += got.coulomb;
                virial += got.virial;
                pairs += got.pairs;
            }
            assert_eq!(forces, whole.forces, "r_cut {r_cut}");
            assert_eq!(pairs, 2 * whole.pairs, "r_cut {r_cut}");
            let relative = |a: f64, w: f64| ((a - w) / w).abs();
            assert!(relative(coulomb, whole.coulomb) < 1e-12, "r_cut {r_cut}");
            assert!(relative(virial, whole.virial) < 1e-12, "r_cut {r_cut}");
        }
    }

    /// Two charges exactly L/2 apart with r_cut clamped to L/2: each sees
    /// the other once, through one image, so the pair counts once.
    #[test]
    fn a_pair_half_a_box_apart_counts_once() {
        let b = SimBox::cubic(10.0);
        let pos = [Vec3::new(1.0, 2.0, 3.0), Vec3::new(6.0, 2.0, 3.0)];
        let q = [1.0, -1.0];
        let kappa = 0.4;
        let got = real_space(b, &pos, &q, kappa, 7.0, None);
        let (e, f_over_r) = real_kernel(kappa, 25.0);
        let (e_want, virial_want) = (-COULOMB_EV_A * e, -COULOMB_EV_A * f_over_r * 25.0);
        assert_eq!(got.pairs, 1);
        assert!(((got.coulomb - e_want) / e_want).abs() < 1e-14);
        assert!(((got.virial - virial_want) / virial_want).abs() < 1e-14);
        assert_eq!(got.forces[0], -got.forces[1]);
        assert!(((got.forces[0].norm() * 5.0 - virial_want.abs()) / virial_want).abs() < 1e-14);
    }

    #[test]
    fn forces_sum_to_zero() {
        let (b, pos, q) = random_charged(200, 15.0, 22);
        let forces = real_space(b, &pos, &q, 0.4, 4.5, None).forces;
        let net: Vec3 = forces.iter().copied().sum();
        assert!(net.norm() < 1e-10);
    }

    #[test]
    fn opposite_charges_attract() {
        let b = SimBox::cubic(20.0);
        let pos = vec![Vec3::new(5.0, 5.0, 5.0), Vec3::new(8.0, 5.0, 5.0)];
        let q = vec![1.0, -1.0];
        let got = real_space(b, &pos, &q, 0.2, 6.0, None);
        assert_eq!(got.pairs, 1);
        assert!(got.coulomb < 0.0);
        // Force on particle 0 points toward particle 1 (+x).
        assert!(got.forces[0].x > 0.0);
        assert!((got.forces[0] + got.forces[1]).norm() < 1e-14);
    }

    #[test]
    fn energy_decays_with_kappa() {
        // Larger κ screens harder: |E_real| shrinks.
        let (b, pos, q) = random_charged(100, 12.0, 23);
        let e1 = real_space(b, &pos, &q, 0.2, 5.0, None).coulomb;
        let e2 = real_space(b, &pos, &q, 0.8, 5.0, None).coulomb;
        assert!(e2.abs() < e1.abs());
    }
}
