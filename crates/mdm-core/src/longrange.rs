//! The pluggable long-range (wavenumber-space) solver interface.
//!
//! The paper's architectural bet is that the reciprocal-space sum is a
//! *swappable resource*: the MDM pushes α to 85 because WINE-2 makes
//! wavenumber work disproportionately cheap, while a software code
//! would pick a mesh method and a small α. This module makes that
//! swap a first-class runtime choice — every wavenumber engine in the
//! workspace sits behind [`LongRangeBackend`]:
//!
//! | name      | engine                               | scaling      |
//! |-----------|--------------------------------------|--------------|
//! | `ewald`   | exact DFT/IDFT ([`crate::ewald::recip`]), Rayon-parallel | O(N·N_wave) |
//! | `pme`     | smooth particle-mesh Ewald ([`crate::pme`]), Rayon-parallel | O(N log N) |
//! | `pswf`    | PSWF fast Ewald ([`crate::pswf`]), Rayon-parallel | O(N log N) |
//! | `wine2`   | WINE-2 board emulator (adapter in `mdm-host`) | O(N·N_wave) |
//!
//! Contract:
//! * `compute` takes the box, SoA positions and charges, and returns
//!   forces, tin-foil reciprocal energy, virial (every in-tree engine
//!   assembles one; `NaN` is reserved for a future backend that
//!   cannot), and per-step op/flop counters.
//! * Charge neutrality is **not** required — the reciprocal sum
//!   excludes m = 0, so a net charge simply means the caller must add
//!   the usual uniform-background correction (as
//!   [`crate::forcefield::host_sum`] does); the backend itself stays finite.
//! * Backends own their scratch (grids, tables, structure-factor
//!   buffers) and reuse it across steps; each steady-state call bumps
//!   the `longrange_scratch_reuses` profile counter, and every call
//!   stamps `longrange_flops` with the step's estimated flop cost so
//!   the telemetry layer can price mesh backends that have no
//!   paper-credited DFT/IDFT ops.
//! * Determinism: for a fixed input, results are bitwise identical at
//!   any Rayon thread count (per-particle and per-wave maps are ordered;
//!   the mesh engine's plane and pencil tasks each own their output and
//!   reduce in index order — see [`crate::mesh`]). The thread count is
//!   the only parallelism control: `rayon::with_num_threads(1, …)` is
//!   the serial run.

use crate::boxsim::SimBox;
use crate::ewald::recip::{recip_space_cached, RecipScratch};
use crate::ewald::EwaldParams;
use crate::flops::{FLOPS_PER_WAVE_DFT, FLOPS_PER_WAVE_IDFT};
use crate::kvectors::{half_space_vectors, KVector};
use crate::mesh::{MeshEngine, Window};
use crate::pme::SpmeRecip;
use crate::pswf::PswfRecip;
use crate::vec3::Vec3;

/// Per-step operation/flop counters reported by a backend.
///
/// `dft_ops`/`idft_ops` are paper-credited wave operations (one
/// particle × one wave each) and are non-zero only for backends that
/// actually evaluate the discrete sums (`ewald`, `wine2`); mesh
/// backends report their work through `flops` alone.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LongRangeCounters {
    /// Structure-factor accumulations (particle × wave).
    pub dft_ops: u64,
    /// Force-synthesis accumulations (particle × wave).
    pub idft_ops: u64,
    /// Waves in the active table (0 for mesh backends).
    pub waves: u64,
    /// Estimated floating-point operations this step.
    pub flops: f64,
    /// Emulated hardware cycles (0 for software backends).
    pub cycles: u64,
    /// Emulated bus traffic in bytes (0 for software backends).
    pub bus_bytes: u64,
}

/// Output of one long-range evaluation.
#[derive(Clone, Debug)]
pub struct LongRangeResult {
    /// Reciprocal-space energy (eV), tin-foil convention.
    pub energy: f64,
    /// Per-particle reciprocal forces (eV/Å).
    pub forces: Vec<Vec3>,
    /// Reciprocal-space virial (eV); every in-tree backend assembles
    /// one (`NaN` only for a hypothetical backend that cannot).
    pub virial: f64,
    /// Per-step op/flop counters.
    pub counters: LongRangeCounters,
}

/// A runtime-selectable wavenumber-space solver. See the module docs
/// for the contract. (`Sync` because force fields holding a backend
/// are themselves borrowed across Rayon worker threads; `compute`
/// still takes `&mut self`, so there is no shared mutation.)
pub trait LongRangeBackend: Send + Sync {
    /// Stable identifier (`"ewald"`, `"pme"`, `"pswf"`, `"wine2"`).
    fn name(&self) -> &'static str;

    /// The dimensionless splitting parameter α this backend was built
    /// for (κ = α/L).
    fn alpha(&self) -> f64;

    /// Evaluate the reciprocal sum for one configuration.
    fn compute(&mut self, simbox: SimBox, positions: &[Vec3], charges: &[f64])
        -> LongRangeResult;

    /// Human-readable parameter summary.
    fn describe(&self) -> String {
        format!("{} (alpha={})", self.name(), self.alpha())
    }
}

/// Bump the steady-state scratch-reuse counter (first call is the
/// warm-up that allocates; every later call proves the reuse).
pub fn note_scratch_reuse(warm: &mut bool) {
    if *warm {
        mdm_profile::counter("longrange_scratch_reuses", 1);
    } else {
        *warm = true;
    }
}

/// The exact software Ewald reciprocal sum — the brute-force DFT/IDFT
/// pair WINE-2 implements in hardware, with the wave table and all
/// intermediate buffers held across steps.
pub struct ExactEwald {
    alpha: f64,
    waves: Vec<KVector>,
    scratch: RecipScratch,
    warm: bool,
}

impl ExactEwald {
    /// Build with the half-space wave table for `n_max` (same
    /// truncation sphere as [`EwaldParams`]).
    pub fn new(alpha: f64, n_max: f64) -> Self {
        Self {
            alpha,
            waves: half_space_vectors(n_max),
            scratch: RecipScratch::default(),
            warm: false,
        }
    }
}

impl LongRangeBackend for ExactEwald {
    fn name(&self) -> &'static str {
        "ewald"
    }

    fn alpha(&self) -> f64 {
        self.alpha
    }

    fn compute(
        &mut self,
        simbox: SimBox,
        positions: &[Vec3],
        charges: &[f64],
    ) -> LongRangeResult {
        note_scratch_reuse(&mut self.warm);
        let eval = recip_space_cached(
            simbox,
            positions,
            charges,
            self.alpha,
            &self.waves,
            &mut self.scratch,
        );
        let ops = (positions.len() * self.waves.len()) as u64;
        let flops = FLOPS_PER_WAVE_DFT * ops as f64 + FLOPS_PER_WAVE_IDFT * ops as f64;
        mdm_profile::counter("longrange_flops", flops as u64);
        LongRangeResult {
            energy: eval.energy,
            forces: eval.forces,
            virial: eval.virial,
            counters: LongRangeCounters {
                dft_ops: ops,
                idft_ops: ops,
                waves: self.waves.len() as u64,
                flops,
                cycles: 0,
                bus_bytes: 0,
            },
        }
    }

    fn describe(&self) -> String {
        format!(
            "exact Ewald recip (alpha={}, {} waves)",
            self.alpha,
            self.waves.len()
        )
    }
}

/// Every mesh engine is a backend: `pme` and `pswf` differ only in the
/// [`Window`] the engine was built on, so name, cost model and summary
/// come from the window and the accounting below is shared.
impl<W: Window> LongRangeBackend for MeshEngine<W> {
    fn name(&self) -> &'static str {
        W::NAME
    }

    fn alpha(&self) -> f64 {
        MeshEngine::alpha(self)
    }

    fn compute(
        &mut self,
        simbox: SimBox,
        positions: &[Vec3],
        charges: &[f64],
    ) -> LongRangeResult {
        // The engine sizes its plane and stencil scratch on the first
        // call and reuses it from then on.
        note_scratch_reuse(&mut self.warm);
        let out = MeshEngine::compute(self, simbox, positions, charges);
        let flops = self.estimated_flops(positions.len());
        mdm_profile::counter("longrange_flops", flops as u64);
        LongRangeResult {
            energy: out.energy,
            forces: out.forces,
            virial: out.virial,
            counters: LongRangeCounters {
                flops,
                ..LongRangeCounters::default()
            },
        }
    }

    fn describe(&self) -> String {
        self.window().describe(MeshEngine::alpha(self), self.mesh())
    }
}

/// The software backends this crate can build by name (the `wine2`
/// adapter lives in `mdm-host`, which layers its own factory on top).
pub const SOFTWARE_BACKENDS: &[&str] = &["ewald", "pme", "pswf"];

/// Build a software backend by name for the given accuracy
/// parameterisation; `None` for an unknown name.
pub fn by_name(name: &str, params: &EwaldParams, l: f64) -> Option<Box<dyn LongRangeBackend>> {
    match name {
        "ewald" => Some(Box::new(ExactEwald::new(params.alpha, params.n_max))),
        "pme" => Some(Box::new(SpmeRecip::for_params(params, l))),
        "pswf" => Some(Box::new(PswfRecip::for_params(params, l))),
        _ => None,
    }
}

/// Per-backend default operating point, for backends whose economy
/// differs from the machine-balance point the emulated board uses.
///
/// The `wine2` board (and the exact-Ewald references that mirror it)
/// balances α against the *machine*: wave time grows slowly there, so
/// the balance pushes α up with N and drags `r_cut` down. Mesh
/// backends (`pme`, `pswf`) pay for α directly — the mesh scales with
/// `n_max = s_k·α/π` — so inheriting the board's balance α forces an
/// oversized mesh and pushes the interpolation error toward the 10⁻³
/// gate. Their natural point is the particle-mesh community default: a
/// fixed real-space cutoff (9 Å, capped at `L/3` for small boxes — the
/// cell-index real-space engine needs ≥ 3 cells per side, §2.2), α
/// following from the accuracy parameter `s = 3.2`, and the mesh from
/// `n_max` (the mesh engines sum *every* mode their grid resolves, so
/// `n_max` only sizes the grid). Returns `None` for backends that
/// should use the caller's machine-balance point.
pub fn default_operating_point(name: &str, l: f64) -> Option<EwaldParams> {
    const S: f64 = 3.2;
    const MESH_R_CUT_A: f64 = 9.0;
    match name {
        "pme" | "pswf" => {
            let r_cut = MESH_R_CUT_A.min(l / 3.0);
            Some(EwaldParams::from_alpha_accuracy(S * l / r_cut, S, S, l))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ewald::recip::recip_space;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use crate::system::System;

    fn perturbed() -> System {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.4, -0.3, 0.2));
        s.displace(9, Vec3::new(-0.2, 0.1, 0.35));
        s
    }

    fn params_for(l: f64) -> EwaldParams {
        EwaldParams::from_alpha_accuracy(7.0, 3.2, 3.2, l)
    }

    #[test]
    fn exact_backend_is_bitwise_the_library_recip() {
        let s = perturbed();
        let l = s.simbox().l();
        let p = params_for(l);
        let mut backend = ExactEwald::new(p.alpha, p.n_max);
        let waves = half_space_vectors(p.n_max);
        let reference =
            recip_space(s.simbox(), s.positions(), s.charges(), p.alpha, &waves);
        for step in 0..3 {
            let got = backend.compute(s.simbox(), s.positions(), s.charges());
            assert_eq!(got.forces, reference.forces, "step {step}");
            assert_eq!(got.energy.to_bits(), reference.energy.to_bits());
            assert_eq!(got.virial.to_bits(), reference.virial.to_bits());
            assert_eq!(
                got.counters.dft_ops,
                (s.len() * waves.len()) as u64,
                "paper accounting: one DFT op per particle per wave"
            );
        }
    }

    /// Satellite: PME pinned against the exact software recip at
    /// matched accuracy parameters, through the trait.
    #[test]
    fn pme_backend_matches_exact_backend() {
        let s = perturbed();
        let l = s.simbox().l();
        let p = params_for(l);
        let mut exact = ExactEwald::new(p.alpha, p.n_max);
        let mut pme = SpmeRecip::for_params(&p, l);
        let a = exact.compute(s.simbox(), s.positions(), s.charges());
        let b = pme.compute(s.simbox(), s.positions(), s.charges());
        let rel = ((a.energy - b.energy) / a.energy).abs();
        assert!(rel < 2e-3, "energy {} vs {} (rel {rel})", a.energy, b.energy);
        let scale = a.forces.iter().map(|f| f.norm()).fold(1e-300f64, f64::max);
        for (i, (fa, fb)) in a.forces.iter().zip(&b.forces).enumerate() {
            let rel = (*fa - *fb).norm() / scale;
            assert!(rel < 5e-3, "particle {i}: rel {rel}");
        }
    }

    #[test]
    fn pswf_backend_matches_exact_backend() {
        let s = perturbed();
        let l = s.simbox().l();
        let p = params_for(l);
        let mut exact = ExactEwald::new(p.alpha, p.n_max);
        let mut pswf = by_name("pswf", &p, l).unwrap();
        let a = exact.compute(s.simbox(), s.positions(), s.charges());
        let b = pswf.compute(s.simbox(), s.positions(), s.charges());
        let rel = ((a.energy - b.energy) / a.energy).abs();
        assert!(rel < 1e-3, "energy {} vs {} (rel {rel})", a.energy, b.energy);
        let scale = a.forces.iter().map(|f| f.norm()).fold(1e-300f64, f64::max);
        for (i, (fa, fb)) in a.forces.iter().zip(&b.forces).enumerate() {
            let rel = (*fa - *fb).norm() / scale;
            assert!(rel < 2e-3, "particle {i}: rel {rel}");
        }
    }

    /// Satellite: at their own default operating point — not the
    /// board's balance α — the mesh backends stay within the 10⁻³
    /// force-error gate against the exact recip at matched parameters.
    #[test]
    fn mesh_backends_hold_the_gate_at_their_default_operating_point() {
        let s = perturbed();
        let l = s.simbox().l();
        for name in ["pme", "pswf"] {
            let p = default_operating_point(name, l).expect("mesh backends have a default point");
            // Small box: the cutoff caps at L/3 (the cell-index
            // engine's floor) and α follows.
            assert!((p.r_cut - l / 3.0).abs() < 1e-9, "{name}: r_cut {}", p.r_cut);
            assert!(p.real_truncation_error(l) <= 1e-3);
            assert!(p.recip_truncation_error(l) <= 1e-3);
            // The mesh engines sum every mode their grid resolves, so
            // the reference must be *converged*, not truncated at the
            // same n_max — doubling it puts its truncation error
            // (erfc(2·s_k)) far below the gate.
            let mut exact = ExactEwald::new(p.alpha, 2.0 * p.n_max);
            let mut backend = by_name(name, &p, l).unwrap();
            let a = exact.compute(s.simbox(), s.positions(), s.charges());
            let b = backend.compute(s.simbox(), s.positions(), s.charges());
            // The same metric the accuracy_report probe gates on:
            // relative RMS force error (Figure 5's y-axis).
            let scale = a.forces.iter().map(|f| f.norm()).fold(1e-300f64, f64::max);
            let rms = (a
                .forces
                .iter()
                .zip(&b.forces)
                .map(|(fa, fb)| ((*fa - *fb).norm() / scale).powi(2))
                .sum::<f64>()
                / a.forces.len() as f64)
                .sqrt();
            assert!(rms <= 1e-3, "{name}: rms rel force error {rms:.3e}");
        }
        // Larger box: the fixed 9 Å cutoff takes over — unlike the
        // machine-balance point, whose r_cut shrinks as N grows.
        let l_big = 3.0 * l;
        let p = default_operating_point("pme", l_big).unwrap();
        assert!((p.r_cut - 9.0).abs() < 1e-9, "r_cut {}", p.r_cut);
        assert!(default_operating_point("ewald", l).is_none());
        assert!(default_operating_point("wine2", l).is_none());
    }

    #[test]
    fn factory_rejects_unknown_names() {
        let p = params_for(10.0);
        assert!(by_name("fft-of-destiny", &p, 10.0).is_none());
        for name in SOFTWARE_BACKENDS {
            assert!(by_name(name, &p, 10.0).is_some(), "{name} must resolve");
        }
    }

    // --- Out-of-band contract tests ---

    #[test]
    fn non_neutral_charges_stay_finite_with_zero_net_force() {
        let s = perturbed();
        let l = s.simbox().l();
        let p = params_for(l);
        // All charges positive: grossly non-neutral.
        let charges: Vec<f64> = s.charges().iter().map(|q| q.abs()).collect();
        for name in SOFTWARE_BACKENDS {
            let mut backend = by_name(name, &p, l).unwrap();
            let out = backend.compute(s.simbox(), s.positions(), &charges);
            assert!(
                out.energy.is_finite() && out.energy > 0.0,
                "{name}: m = 0 is excluded, so a net charge must not blow up (energy {})",
                out.energy
            );
            let net: Vec3 = out.forces.iter().copied().sum();
            assert!(
                net.norm() < 1e-9,
                "{name}: net force {net:?} on a non-neutral set"
            );
        }
    }

    #[test]
    fn single_particle_feels_no_force() {
        let simbox = crate::boxsim::SimBox::cubic(10.0);
        let positions = [Vec3::new(1.3, 7.2, 4.4)];
        let charges = [1.0];
        let p = params_for(10.0);
        for name in SOFTWARE_BACKENDS {
            let mut backend = by_name(name, &p, 10.0).unwrap();
            let out = backend.compute(simbox, &positions, &charges);
            assert!(out.energy.is_finite() && out.energy >= 0.0, "{name}");
            // One particle interacts only with its own periodic images,
            // symmetrically: zero force (exactly, after the mesh
            // backends' mean-force subtraction).
            assert!(
                out.forces[0].norm() < 1e-9,
                "{name}: self-force {:?}",
                out.forces[0]
            );
        }
    }
}
