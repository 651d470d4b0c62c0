//! On-line force-error probing (the measurement behind Figure 5).
//!
//! The paper validates the machine's precision seams — Q30 fixed-point
//! in WINE-2, f32 quartic tables in MDGRAPE-2's function evaluator —
//! by comparing hardware forces against a well-converged double-
//! precision Ewald sum and quoting the RMS force error relative to the
//! RMS force (≈ 10⁻⁴·⁵ at the production parameters). This module
//! makes that measurement a *runtime* observable: every K steps the
//! [`ForceErrorProbe`] samples M particles, recomputes their forces
//! with a reference Ewald at tightened accuracy parameters, and
//! returns a [`ForceErrorSample`] that the telemetry layer emits as a
//! step observable and feeds to the force-error watchdog.
//!
//! Cost: one reference reciprocal sum `O(N·N_wv_ref)` plus `O(M·N)`
//! direct real-space work per firing — the sampling only buys down the
//! real-space part, which dominates at the probe's large reference
//! cutoff. At the default cadence (every 10 steps, 32 samples) this
//! stays a few percent of a step.

use crate::celllist::CellList;
use crate::ewald::real::real_kernel;
use crate::ewald::recip::recip_space;
use crate::ewald::EwaldParams;
use crate::kvectors::{half_space_vectors, KVector};
use crate::potentials::{ShortRangePotential, TosiFumi};
use crate::system::System;
use crate::units::COULOMB_EV_A;
use crate::vec3::Vec3;
pub use mdm_profile::accuracy::ForceErrorSample;

/// Recomputes sampled forces with a converged f64 reference Ewald and
/// reports the RMS error of the production forces against it.
///
/// The measured error includes *everything* between the production
/// path and converged double precision: fixed-point quantization,
/// table-fit error, and the run's own `r_cut`/`n_max` truncation —
/// the same total error Figure 5 plots.
pub struct ForceErrorProbe {
    every: u64,
    max_samples: usize,
    params: EwaldParams,
    short: ShortReference,
    waves: Vec<KVector>,
}

/// How the reference evaluates the short-range (Tosi–Fumi) terms.
///
/// The short-range sum is a modeling choice *shared* by production and
/// reference — the probe exists to measure Coulomb convergence error
/// (Figure 5), so the reference must mirror the production engine's
/// short-range pair pattern exactly or the difference pollutes the
/// measurement.
enum ShortReference {
    /// Production forces are Coulomb-only.
    None,
    /// Conventional engine: min-image pairs within the run's cutoff
    /// (pairs beyond `r_cut` are skipped).
    MinImage { potential: TosiFumi, r_cut: f64 },
    /// MDGRAPE-2 pattern: every pair of the 27-cell block built at
    /// cell size `cell`, no cutoff skip, cell-offset images (the
    /// hardware "does not skip the force calculation even if the
    /// distance between two particles is larger than r_cut", §2.2).
    BlockPairs { potential: TosiFumi, cell: f64 },
}

impl ForceErrorProbe {
    /// Accuracy parameter `s = α·r_cut/L = π·n_max/α` of the reference
    /// sum: `erfc(4) ≈ 1.5·10⁻⁸`, three decades below the errors being
    /// measured.
    pub const REFERENCE_S: f64 = 4.0;

    /// Build a probe with explicit reference parameters. `short` adds
    /// the Tosi–Fumi pair terms to the reference, evaluated at the
    /// given cutoff — pass the *production* cutoff so the probe
    /// measures Coulomb convergence, not the shared dispersion
    /// truncation (or `None` when the production forces are
    /// Coulomb-only).
    pub fn new(
        reference: EwaldParams,
        short: Option<(TosiFumi, f64)>,
        every: u64,
        max_samples: usize,
    ) -> Self {
        let short = match short {
            Some((potential, r_cut)) => ShortReference::MinImage { potential, r_cut },
            None => ShortReference::None,
        };
        Self::with_short(reference, short, every, max_samples)
    }

    fn with_short(
        reference: EwaldParams,
        short: ShortReference,
        every: u64,
        max_samples: usize,
    ) -> Self {
        assert!(every > 0, "probe cadence must be at least every step");
        assert!(max_samples > 0, "probe needs at least one sample");
        Self {
            every,
            max_samples,
            waves: half_space_vectors(reference.n_max),
            params: reference,
            short,
        }
    }

    /// Build the converged reference for a production run: same `α` as
    /// `run_params` (so the real/recip split matches and each part's
    /// truncation shrinks independently), accuracy tightened to
    /// [`Self::REFERENCE_S`], reference cutoff clamped to the
    /// minimum-image limit `L/2`.
    pub fn converged_for(
        run_params: &EwaldParams,
        l: f64,
        short: Option<TosiFumi>,
        every: u64,
        max_samples: usize,
    ) -> Self {
        let s = Self::REFERENCE_S;
        let mut reference = EwaldParams::from_alpha_accuracy(run_params.alpha, s, s, l);
        reference.r_cut = reference.r_cut.min(l / 2.0);
        let run_r_cut = run_params.r_cut.min(l / 2.0);
        Self::new(
            reference,
            short.map(|potential| (potential, run_r_cut)),
            every,
            max_samples,
        )
    }

    /// [`Self::converged_for`] for the emulated-MDM NaCl path:
    /// MDGRAPE-2 computes every pair of its 27-cell block with no
    /// cutoff skipping and cell-offset images, so the reference
    /// evaluates the Tosi–Fumi terms over *that same pair pattern*
    /// (cells built at the run's `r_cut`) — otherwise the kernel tails
    /// and far images the hardware computes would be misread as force
    /// error.
    pub fn converged_for_mdm(
        run_params: &EwaldParams,
        l: f64,
        every: u64,
        max_samples: usize,
    ) -> Self {
        let s = Self::REFERENCE_S;
        let mut reference = EwaldParams::from_alpha_accuracy(run_params.alpha, s, s, l);
        reference.r_cut = reference.r_cut.min(l / 2.0);
        Self::with_short(
            reference,
            ShortReference::BlockPairs {
                potential: TosiFumi::nacl(),
                cell: run_params.r_cut,
            },
            every,
            max_samples,
        )
    }

    /// Probe cadence in steps.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Particles sampled per firing (at most; small systems sample all).
    pub fn max_samples(&self) -> usize {
        self.max_samples
    }

    /// The reference Ewald parameters.
    pub fn reference_params(&self) -> &EwaldParams {
        &self.params
    }

    /// Whether the probe fires at this step index.
    pub fn should_fire(&self, step: u64) -> bool {
        step.is_multiple_of(self.every)
    }

    /// Deterministic sample indices: an even stride over the particle
    /// array (no RNG — reruns probe the same particles).
    fn sample_indices(&self, n: usize) -> Vec<usize> {
        let stride = n.div_ceil(self.max_samples).max(1);
        (0..n).step_by(stride).take(self.max_samples).collect()
    }

    /// Measure the RMS error of `forces` (the production forces for
    /// `system`'s current configuration) against the reference sum.
    pub fn measure(&self, step: u64, system: &System, forces: &[Vec3]) -> ForceErrorSample {
        let _span = mdm_profile::span("probe");
        let positions = system.positions();
        let charges = system.charges();
        let types = system.types();
        let simbox = system.simbox();
        assert_eq!(forces.len(), positions.len());

        // The reciprocal reference is computed for all particles — the
        // structure factors already cost O(N·N_wv), so per-particle
        // synthesis for everyone adds nothing asymptotically.
        let recip = recip_space(simbox, positions, charges, self.params.alpha, &self.waves);

        let kappa = self.params.kappa(simbox.l());
        let r_cut = self.params.r_cut.min(simbox.max_cutoff());
        let indices = self.sample_indices(positions.len());

        // Short-range reference forces for the sampled particles, with
        // the production engine's own pair pattern (see
        // [`ShortReference`]).
        let mut f_short = vec![Vec3::ZERO; positions.len()];
        match &self.short {
            ShortReference::None => {}
            ShortReference::MinImage { potential, r_cut: rc } => {
                let rc_sq = rc.min(simbox.max_cutoff()).powi(2);
                for &i in &indices {
                    let (ri, ti) = (positions[i], types[i] as usize);
                    for (j, &rj) in positions.iter().enumerate() {
                        if j == i {
                            continue;
                        }
                        let d = simbox.min_image(ri, rj);
                        let r_sq = d.norm_sq();
                        if r_sq <= rc_sq {
                            let f = potential.force_over_r(ti, types[j] as usize, r_sq.sqrt());
                            f_short[i] += d * f;
                        }
                    }
                }
            }
            ShortReference::BlockPairs { potential, cell } => {
                let mut sampled = vec![false; positions.len()];
                for &i in &indices {
                    sampled[i] = true;
                }
                let cells = CellList::build(simbox, positions, *cell);
                cells.for_each_block_pair(positions, |i, j, d, r_sq| {
                    if sampled[i] {
                        let f =
                            potential.force_over_r(types[i] as usize, types[j] as usize, r_sq.sqrt());
                        f_short[i] += d * f;
                    }
                });
            }
        }

        let (mut err_sq, mut ref_sq) = (0.0f64, 0.0f64);
        for &i in &indices {
            let mut f_ref = recip.forces[i] + f_short[i];
            let (ri, qi) = (positions[i], charges[i]);
            for (j, (&rj, &qj)) in positions.iter().zip(charges).enumerate() {
                if j == i {
                    continue;
                }
                let d = simbox.min_image(ri, rj);
                let r_sq = d.norm_sq();
                if r_sq <= r_cut * r_cut {
                    let (_, f_over_r) = real_kernel(kappa, r_sq);
                    f_ref += d * (COULOMB_EV_A * qi * qj * f_over_r);
                }
            }
            err_sq += (forces[i] - f_ref).norm_sq();
            ref_sq += f_ref.norm_sq();
        }
        let m = indices.len() as f64;
        ForceErrorSample {
            step,
            sampled: indices.len() as u64,
            rms_force: (ref_sq / m).sqrt(),
            rms_error: (err_sq / m).sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::{EwaldTosiFumi, ForceField};
    use crate::lattice::rocksalt_nacl;

    fn small_system() -> System {
        let mut s = rocksalt_nacl(2, 5.64);
        // Break lattice symmetry so forces are non-zero.
        let n = s.len();
        for i in 0..n {
            let shift = 0.12 * ((i * 2654435761) % 97) as f64 / 97.0;
            s.displace(i, Vec3::new(shift, -0.5 * shift, 0.3 * shift));
        }
        s
    }

    #[test]
    fn healthy_forces_measure_small_error() {
        let s = small_system();
        let l = s.simbox().l();
        let mut ff = EwaldTosiFumi::nacl_default(l);
        let out = ff.compute(&s);
        let probe = ForceErrorProbe::converged_for(
            ff.params(),
            l,
            Some(TosiFumi::nacl()),
            10,
            16,
        );
        let sample = probe.measure(0, &s, &out.forces);
        assert_eq!(sample.sampled, 16);
        assert!(sample.rms_force > 0.0);
        // s = 3.2 production run: total truncation error well under the
        // CI gate of 1e-3.
        assert!(
            sample.relative() < 1e-3,
            "healthy run should probe clean: {}",
            sample.relative()
        );
    }

    #[test]
    fn degraded_forces_measure_large_error() {
        let s = small_system();
        let l = s.simbox().l();
        let good = EwaldTosiFumi::nacl_default(l);
        let alpha = good.params().alpha;
        // Same α, slashed cutoffs: erfc(1.2) ≈ 0.09 truncation.
        let mut bad = EwaldTosiFumi::new(
            EwaldParams::from_alpha_accuracy(alpha, 1.2, 1.2, l),
            TosiFumi::nacl(),
        );
        let out = bad.compute(&s);
        let probe =
            ForceErrorProbe::converged_for(bad.params(), l, Some(TosiFumi::nacl()), 10, 16);
        let sample = probe.measure(0, &s, &out.forces);
        assert!(
            sample.relative() > 1e-3,
            "degraded run must exceed the error band: {}",
            sample.relative()
        );
    }

    #[test]
    fn probe_is_deterministic_and_strided() {
        let probe = ForceErrorProbe::converged_for(
            &EwaldParams::from_alpha_accuracy(6.4, 3.2, 3.2, 11.28),
            11.28,
            None,
            5,
            4,
        );
        assert_eq!(probe.sample_indices(10), vec![0, 3, 6, 9]);
        assert_eq!(probe.sample_indices(3), vec![0, 1, 2]);
        assert!(probe.should_fire(0));
        assert!(!probe.should_fire(3));
        assert!(probe.should_fire(5));
        // Reference stays minimum-image valid.
        assert!(probe.reference_params().r_cut <= 11.28 / 2.0);
    }
}
