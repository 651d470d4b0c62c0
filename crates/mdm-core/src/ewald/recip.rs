//! Wavenumber-space part of the Ewald sum (paper eqs. 3, 9–13) — the
//! computation WINE-2 exists to accelerate.
//!
//! Two phases, exactly the hardware's DFT/IDFT split:
//!
//! 1. **DFT** (eqs. 9–10): structure factors over the half-space wave
//!    table, `Sₙ = Σⱼ qⱼ sin(2π n⃗·s⃗ⱼ)`, `Cₙ = Σⱼ qⱼ cos(2π n⃗·s⃗ⱼ)`
//!    with `s⃗ = r⃗/L`.
//! 2. **IDFT** (eq. 11): per-particle force synthesis
//!    `F⃗ᵢ = 4C·qᵢ/L² Σₙ aₙ'·n⃗·[Cₙ sinθᵢ − Sₙ cosθᵢ]` with
//!    `aₙ' = e^(−π²n²/α²)/n²`.
//!
//! The energy is `E = C/(πL) Σₙ aₙ'·(Cₙ² + Sₙ²)` over the half space.
//!
//! [`structure_factors`] is phase 1 and [`synthesise`] phase 2 with the
//! energy and virial; [`recip_space`] runs one after the other. A
//! caller that splits the particles into blocks sums the blocks'
//! structure factors between the two, as the §4 program's wavenumber
//! ranks do (`mdm-host::parallel`).

use crate::boxsim::SimBox;
use crate::kvectors::KVector;
use crate::units::COULOMB_EV_A;
use crate::vec3::Vec3;
use rayon::prelude::*;

/// Output of the wavenumber-space evaluation.
#[derive(Clone, Debug)]
pub struct RecipResult {
    /// Reciprocal-space energy (eV).
    pub energy: f64,
    /// Per-particle forces (eV/Å).
    pub forces: Vec<Vec3>,
    /// Reciprocal-space virial `Σₙ Eₙ(1 − n²π²/ (2α²)·2)`… computed as
    /// `Σₙ Eₙ·(1 − k²/(2κ²))` for the isotropic pressure.
    pub virial: f64,
    /// The structure factors `(Sₙ, Cₙ)` per wave — exposed because the
    /// WINE-2 emulator validation compares against them directly.
    pub structure_factors: Vec<(f64, f64)>,
}

/// Result of [`synthesise`] and of the scratch-reusing path: no
/// structure-factor handoff, so the buffers stay inside
/// [`RecipScratch`] across steps.
#[derive(Clone, Debug)]
pub struct RecipEval {
    /// Reciprocal-space energy (eV).
    pub energy: f64,
    /// Forces on the synthesised block's particles (eV/Å).
    pub forces: Vec<Vec3>,
    /// Reciprocal-space virial (eV).
    pub virial: f64,
}

/// Reusable intermediate buffers for [`recip_space_cached`]. A backend
/// holds one of these across steps so the per-call `Vec` churn of the
/// original `recip_space` (fractional coordinates, structure factors,
/// weighted IDFT coefficients — three allocations per step) disappears
/// after the first call: every later step reuses the grown capacity.
#[derive(Default)]
pub struct RecipScratch {
    fractional: Vec<Vec3>,
    sf: Vec<(f64, f64)>,
    coeffs: Vec<(Vec3, f64, f64)>,
}

impl RecipScratch {
    /// The structure factors `(Sₙ, Cₙ)` from the most recent evaluation.
    pub fn structure_factors(&self) -> &[(f64, f64)] {
        &self.sf
    }
}

/// The Gaussian spectral coefficient `aₙ' = e^(−π²n²/α²)/n²` (the
/// paper's `aₙ` of eq. 12, nondimensionalised by `L²`).
#[inline]
pub fn spectral_coefficient(alpha: f64, n_sq: f64) -> f64 {
    let pi = std::f64::consts::PI;
    (-pi * pi * n_sq / (alpha * alpha)).exp() / n_sq
}

/// Compute structure factors for every wave (the DFT phase, eqs. 9–10).
pub fn structure_factors(
    simbox: SimBox,
    positions: &[Vec3],
    charges: &[f64],
    waves: &[KVector],
) -> Vec<(f64, f64)> {
    let mut scratch = RecipScratch::default();
    fill_fractional(simbox, positions, &mut scratch.fractional);
    fill_structure_factors(&scratch.fractional, charges, waves, &mut scratch.sf);
    scratch.sf
}

fn fill_fractional(simbox: SimBox, positions: &[Vec3], out: &mut Vec<Vec3>) {
    out.clear();
    out.extend(positions.iter().map(|&r| simbox.fractional(r)));
}

/// Fill `sf` in place, one Rayon task per wave. Each wave's particle sum
/// is serial and each slot is written exactly once, so the result is
/// bitwise identical at every thread count.
fn fill_structure_factors(
    fractional: &[Vec3],
    charges: &[f64],
    waves: &[KVector],
    sf: &mut Vec<(f64, f64)>,
) {
    let _span = mdm_profile::span("dft");
    sf.clear();
    sf.resize(waves.len(), (0.0, 0.0));
    sf.par_iter_mut()
        .zip(waves)
        .for_each(|(slot, k)| *slot = dft_one_wave(k, fractional, charges));
}

#[inline]
fn dft_one_wave(k: &KVector, fractional: &[Vec3], charges: &[f64]) -> (f64, f64) {
    let tau = std::f64::consts::TAU;
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for (r, &q) in fractional.iter().zip(charges) {
        let theta = tau * (k.n[0] as f64 * r.x + k.n[1] as f64 * r.y + k.n[2] as f64 * r.z);
        let (sin, cos) = theta.sin_cos();
        s += q * sin;
        c += q * cos;
    }
    (s, c)
}

/// Full wavenumber-space evaluation, Rayon-parallel in both phases and
/// bitwise the same at every thread count.
pub fn recip_space(
    simbox: SimBox,
    positions: &[Vec3],
    charges: &[f64],
    alpha: f64,
    waves: &[KVector],
) -> RecipResult {
    let mut scratch = RecipScratch::default();
    let eval = recip_space_cached(simbox, positions, charges, alpha, waves, &mut scratch);
    RecipResult {
        energy: eval.energy,
        forces: eval.forces,
        virial: eval.virial,
        structure_factors: scratch.sf,
    }
}

/// Full wavenumber-space evaluation against caller-held scratch — the
/// per-step entry point used by the `ExactEwald` long-range backend.
/// Arithmetic and iteration order are identical to [`recip_space`] (a
/// thin wrapper over this), so the results are bitwise the same; only
/// the buffer provenance differs.
pub fn recip_space_cached(
    simbox: SimBox,
    positions: &[Vec3],
    charges: &[f64],
    alpha: f64,
    waves: &[KVector],
    scratch: &mut RecipScratch,
) -> RecipEval {
    let _span = mdm_profile::span("ewald_recip");
    fill_fractional(simbox, positions, &mut scratch.fractional);
    fill_structure_factors(&scratch.fractional, charges, waves, &mut scratch.sf);
    synthesise_scratch(scratch, simbox.l(), charges, alpha, waves)
}

/// The synthesis half of the evaluation, from structure factors `sf`
/// summed over the whole system: its energy and virial, and the IDFT
/// forces (eq. 11) on the block of particles given by `positions` and
/// `charges`. The block may be the whole system ([`recip_space`] is
/// [`structure_factors`] then this) or one rank's share of it, with
/// `sf` the sum of every block's [`structure_factors`].
pub fn synthesise(
    simbox: SimBox,
    positions: &[Vec3],
    charges: &[f64],
    alpha: f64,
    waves: &[KVector],
    sf: &[(f64, f64)],
) -> RecipEval {
    let mut scratch = RecipScratch {
        sf: sf.to_vec(),
        ..RecipScratch::default()
    };
    fill_fractional(simbox, positions, &mut scratch.fractional);
    synthesise_scratch(&mut scratch, simbox.l(), charges, alpha, waves)
}

/// [`synthesise`] over `scratch`'s fractional coordinates and structure
/// factors, reusing its coefficient buffer.
fn synthesise_scratch(
    scratch: &mut RecipScratch,
    l: f64,
    charges: &[f64],
    alpha: f64,
    waves: &[KVector],
) -> RecipEval {
    let pi = std::f64::consts::PI;

    // Energy and virial from the structure factors.
    let mut energy = 0.0;
    let mut virial = 0.0;
    for (k, &(s, c)) in waves.iter().zip(&scratch.sf) {
        let n_sq = k.n_sq as f64;
        let a = spectral_coefficient(alpha, n_sq);
        let e_k = COULOMB_EV_A / (pi * l) * a * (c * c + s * s);
        energy += e_k;
        // k² / (2κ²) with k = 2π n / L (physical wavenumber) and κ = α/L:
        // k²/(2κ²) = 2π²n²/α².
        virial += e_k * (1.0 - 2.0 * pi * pi * n_sq / (alpha * alpha));
    }

    // IDFT phase: per-particle force synthesis. Precompute aₙ'·n⃗ and the
    // (aₙ'-weighted) structure factors once.
    scratch.coeffs.clear();
    scratch
        .coeffs
        .extend(waves.iter().zip(&scratch.sf).map(|(k, &(s, c))| {
            let a = spectral_coefficient(alpha, k.n_sq as f64);
            (
                Vec3::new(k.n[0] as f64, k.n[1] as f64, k.n[2] as f64),
                a * s,
                a * c,
            )
        }));
    let prefactor = 4.0 * COULOMB_EV_A / (l * l);
    let tau = std::f64::consts::TAU;
    let coeffs = &scratch.coeffs;
    let fractional = &scratch.fractional;

    let idft = |i: usize| -> Vec3 {
        let r = fractional[i];
        let mut f = Vec3::ZERO;
        for (n, a_s, a_c) in coeffs {
            let theta = tau * n.dot(r);
            let (sin, cos) = theta.sin_cos();
            // aₙ'·(Cₙ sinθ − Sₙ cosθ)·n⃗
            f += *n * (a_c * sin - a_s * cos);
        }
        f * (prefactor * charges[i])
    };

    let forces: Vec<Vec3> = {
        let _span = mdm_profile::span("idft");
        (0..fractional.len()).into_par_iter().map(idft).collect()
    };

    RecipEval {
        energy,
        forces,
        virial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvectors::half_space_vectors;
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
    fn structure_factors_single_particle() {
        // One unit charge at the origin: Sₙ = 0, Cₙ = 1 for every wave.
        let b = SimBox::cubic(10.0);
        let waves = half_space_vectors(3.0);
        let sf = structure_factors(b, &[Vec3::ZERO], &[1.0], &waves);
        for (s, c) in sf {
            assert!(s.abs() < 1e-12);
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn structure_factors_translation_phase() {
        // Translating a particle by L/2 along x flips the sign of Cₙ for
        // odd n_x and leaves even n_x unchanged.
        let b = SimBox::cubic(10.0);
        let waves = half_space_vectors(3.0);
        let sf = structure_factors(b, &[Vec3::new(5.0, 0.0, 0.0)], &[1.0], &waves);
        for (k, (s, c)) in waves.iter().zip(sf) {
            let expect = if k.n[0].rem_euclid(2) == 0 { 1.0 } else { -1.0 };
            assert!((c - expect).abs() < 1e-12, "n={:?}", k.n);
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let (b, pos, q) = random_charged(60, 12.0, 31);
        let waves = half_space_vectors(6.0);
        let run = |threads| {
            rayon::with_num_threads(threads, || recip_space(b, &pos, &q, 6.0, &waves))
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.structure_factors, four.structure_factors);
        assert_eq!(one.forces, four.forces);
        assert_eq!(one.energy.to_bits(), four.energy.to_bits());
        assert_eq!(one.virial.to_bits(), four.virial.to_bits());
    }

    #[test]
    fn block_synthesis_is_bitwise_the_whole_evaluation() {
        let (b, pos, q) = random_charged(37, 11.0, 33);
        let waves = half_space_vectors(6.0);
        let whole = recip_space(b, &pos, &q, 6.0, &waves);
        let sf = structure_factors(b, &pos, &q, &waves);
        let split = 15;
        let head = synthesise(b, &pos[..split], &q[..split], 6.0, &waves, &sf);
        let tail = synthesise(b, &pos[split..], &q[split..], 6.0, &waves, &sf);
        let forces: Vec<Vec3> = head.forces.into_iter().chain(tail.forces).collect();
        assert_eq!(forces, whole.forces);
        for block in [head.energy, tail.energy] {
            assert_eq!(block.to_bits(), whole.energy.to_bits());
        }
        for block in [head.virial, tail.virial] {
            assert_eq!(block.to_bits(), whole.virial.to_bits());
        }
    }

    #[test]
    fn energy_is_positive_definite() {
        // E_recip = Σ aₙ'(Cₙ²+Sₙ²) ≥ 0 for any configuration.
        for seed in 0..5 {
            let (b, pos, q) = random_charged(30, 9.0, 40 + seed);
            let waves = half_space_vectors(5.0);
            let r = recip_space(b, &pos, &q, 5.0, &waves);
            assert!(r.energy >= 0.0);
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        let (b, pos, q) = random_charged(40, 11.0, 50);
        let waves = half_space_vectors(6.0);
        let r = recip_space(b, &pos, &q, 6.0, &waves);
        let net: Vec3 = r.forces.iter().copied().sum();
        // Momentum conservation holds exactly in exact arithmetic (total
        // force per wave ∝ Σᵢ qᵢ e^{ik·rᵢ} × conj-pair symmetry).
        assert!(net.norm() < 1e-10, "{net:?}");
    }

    #[test]
    fn force_is_gradient_of_energy() {
        // Finite-difference the recip energy along x for one particle.
        let (b, mut pos, q) = random_charged(20, 10.0, 60);
        let waves = half_space_vectors(7.0);
        let alpha = 6.0;
        let h = 1e-5;
        let r0 = recip_space(b, &pos, &q, alpha, &waves);
        let x0 = pos[3].x;
        pos[3].x = x0 + h;
        let ep = recip_space(b, &pos, &q, alpha, &waves).energy;
        pos[3].x = x0 - h;
        let em = recip_space(b, &pos, &q, alpha, &waves).energy;
        pos[3].x = x0;
        let fd = -(ep - em) / (2.0 * h);
        assert!(
            ((r0.forces[3].x - fd) / fd.abs().max(1e-8)).abs() < 1e-5,
            "analytic {} vs fd {fd}",
            r0.forces[3].x
        );
    }

    #[test]
    fn spectral_coefficient_decays() {
        let a1 = spectral_coefficient(10.0, 1.0);
        let a2 = spectral_coefficient(10.0, 25.0);
        assert!(a2 < a1);
        // At n ≈ α the coefficient is down by ~e^(−π²) ≈ 5e-5 from n=1.
        let cutoff = spectral_coefficient(10.0, 100.0);
        assert!(cutoff / a1 < 1e-4);
    }
}
