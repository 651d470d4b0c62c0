//! Thermodynamic and structural observables.
//!
//! Figure 2 of the paper is a temperature-vs-time trace whose point is
//! the `1/√N` shrinkage of fluctuations; [`FluctuationStats`] measures
//! exactly that. The radial distribution function and mean-squared
//! displacement serve the examples (molten-salt structure, diffusion).

use crate::boxsim::SimBox;
use crate::celllist::CellList;
use crate::system::System;
use crate::units::KB_EV_K;
use crate::vec3::Vec3;

/// Running mean/variance accumulator (Welford) for scalar series such as
/// the temperature trace of Figure 2.
#[derive(Clone, Copy, Debug, Default)]
pub struct FluctuationStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl FluctuationStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / self.n as f64).sqrt()
        }
    }

    /// Relative fluctuation `σ/μ` — the quantity whose `1/√N` scaling
    /// Figure 2 demonstrates.
    pub fn relative_fluctuation(&self) -> f64 {
        if self.mean.abs() < 1e-300 {
            0.0
        } else {
            self.std_dev() / self.mean.abs()
        }
    }
}

/// Instantaneous pressure from the virial theorem:
/// `P·V = N·kB·T + W/3` with `W = Σ f⃗·r⃗` (eV). Returns GPa.
pub fn pressure_gpa(system: &System, virial: f64) -> f64 {
    let v = system.simbox().volume();
    let t = crate::velocities::temperature(system);
    let p_ev_a3 = (system.len() as f64 * KB_EV_K * t + virial / 3.0) / v;
    p_ev_a3 * crate::units::EV_A3_IN_GPA
}

/// A radial distribution function accumulated over snapshots.
#[derive(Clone, Debug)]
pub struct Rdf {
    r_max: f64,
    bins: Vec<f64>,
    /// Restrict to pairs of these species (`None` = all pairs).
    species_pair: Option<(u8, u8)>,
    snapshots: u64,
    /// Number of (ordered) particles of the first/second species seen
    /// per snapshot, for normalisation.
    n_a: f64,
    n_b: f64,
    density_b: f64,
}

impl Rdf {
    /// RDF up to `r_max` with `bins` bins, for all pairs.
    pub fn new(r_max: f64, bins: usize) -> Self {
        assert!(r_max > 0.0 && bins > 0);
        Self {
            r_max,
            bins: vec![0.0; bins],
            species_pair: None,
            snapshots: 0,
            n_a: 0.0,
            n_b: 0.0,
            density_b: 0.0,
        }
    }

    /// RDF restricted to (a, b) species pairs, e.g. Na–Cl.
    pub fn for_species(r_max: f64, bins: usize, a: u8, b: u8) -> Self {
        let mut s = Self::new(r_max, bins);
        s.species_pair = Some((a, b));
        s
    }

    /// Accumulate one configuration.
    pub fn sample(&mut self, system: &System) {
        let _span = mdm_profile::span("observables");
        let simbox = system.simbox();
        assert!(
            self.r_max <= simbox.max_cutoff() + 1e-9,
            "RDF range exceeds minimum-image validity"
        );
        let positions = system.positions();
        let types = system.types();
        let nbins = self.bins.len();
        let dr = self.r_max / nbins as f64;
        let cl = CellList::build(simbox, positions, self.r_max);
        cl.for_each_half_pair(positions, self.r_max, |i, j, _d, r2| {
            if let Some((a, b)) = self.species_pair {
                let (ti, tj) = (types[i], types[j]);
                if !((ti == a && tj == b) || (ti == b && tj == a)) {
                    return;
                }
            }
            let bin = ((r2.sqrt() / dr) as usize).min(nbins - 1);
            self.bins[bin] += 2.0; // both orderings
        });
        self.snapshots += 1;
        let (na, nb) = match self.species_pair {
            None => (system.len() as f64, system.len() as f64),
            Some((a, b)) => (
                types.iter().filter(|&&t| t == a).count() as f64,
                types.iter().filter(|&&t| t == b).count() as f64,
            ),
        };
        self.n_a = na;
        self.n_b = nb;
        self.density_b = nb / simbox.volume();
    }

    /// The normalised `g(r)` as `(r_mid, g)` pairs.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let nbins = self.bins.len();
        let dr = self.r_max / nbins as f64;
        let mut out = Vec::with_capacity(nbins);
        if self.snapshots == 0 {
            return out;
        }
        for (k, &count) in self.bins.iter().enumerate() {
            let r_lo = k as f64 * dr;
            let r_hi = r_lo + dr;
            let shell = 4.0 / 3.0 * std::f64::consts::PI * (r_hi.powi(3) - r_lo.powi(3));
            let ideal = self.n_a * self.density_b * shell * self.snapshots as f64;
            let same = match self.species_pair {
                None => true,
                Some((a, b)) => a == b,
            };
            // For (a,b) with a≠b, each cross pair was counted twice
            // (both orderings) against n_a·ρ_b which counts ordered
            // pairs once per a — consistent. For a==b ordered pairs
            // include i==j never, fine.
            let _ = same;
            let g = if ideal > 0.0 { count / ideal } else { 0.0 };
            out.push((0.5 * (r_lo + r_hi), g));
        }
        out
    }
}

/// The charge–charge structure factor
/// `S_zz(k) = |Σᵢ qᵢ e^(i k⃗·r⃗ᵢ)|² / N`, shell-averaged over wave
/// vectors of equal `|n⃗|²` — computed from the very structure factors
/// the Ewald reciprocal sum (and WINE-2) already produce. The
/// first sharp peak of molten NaCl's `S_zz` is the charge-ordering
/// signature; a crystal shows Bragg peaks instead.
///
/// Returns `(k, S_zz)` pairs, `k = 2π·|n⃗|/L` in Å⁻¹, sorted by `k`.
pub fn charge_structure_factor(system: &System, n_max: f64) -> Vec<(f64, f64)> {
    use crate::ewald::recip::structure_factors;
    use crate::kvectors::half_space_vectors;
    use std::collections::BTreeMap;
    let _span = mdm_profile::span("observables");
    let waves = half_space_vectors(n_max);
    let sf = structure_factors(
        system.simbox(),
        system.positions(),
        system.charges(),
        &waves,
    );
    let mut shells: BTreeMap<i32, (f64, u32)> = BTreeMap::new();
    for (k, (s, c)) in waves.iter().zip(sf) {
        let entry = shells.entry(k.n_sq).or_insert((0.0, 0));
        entry.0 += (s * s + c * c) / system.len() as f64;
        entry.1 += 1;
    }
    let l = system.simbox().l();
    shells
        .into_iter()
        .map(|(n_sq, (sum, count))| {
            (
                std::f64::consts::TAU * (n_sq as f64).sqrt() / l,
                sum / count as f64,
            )
        })
        .collect()
}

/// Mean-squared displacement tracker with unwrapped trajectories.
#[derive(Clone, Debug)]
pub struct Msd {
    origin: Vec<Vec3>,
    unwrapped: Vec<Vec3>,
    previous: Vec<Vec3>,
    simbox: SimBox,
}

impl Msd {
    /// Start tracking from the current configuration.
    pub fn new(system: &System) -> Self {
        let p = system.positions().to_vec();
        Self {
            origin: p.clone(),
            unwrapped: p.clone(),
            previous: p,
            simbox: system.simbox(),
        }
    }

    /// Update with the next configuration (must be the same particles,
    /// moved by less than L/2 per step for correct unwrapping).
    pub fn update(&mut self, system: &System) {
        for ((u, prev), &now) in self
            .unwrapped
            .iter_mut()
            .zip(self.previous.iter_mut())
            .zip(system.positions())
        {
            let step = self.simbox.min_image(now, *prev);
            *u += step;
            *prev = now;
        }
    }

    /// Current mean-squared displacement (Å²).
    pub fn value(&self) -> f64 {
        let n = self.origin.len().max(1) as f64;
        self.unwrapped
            .iter()
            .zip(&self.origin)
            .map(|(u, o)| (*u - *o).norm_sq())
            .sum::<f64>()
            / n
    }
}

/// The standard NVE health monitors, composed for the flight recorder:
/// total-energy drift against step 0 and net-momentum magnitude, plus an
/// optional force-error band. Feed every [`StepRecord`] through
/// [`PhysicsWatchdogs::check`]; the returned [`Violation`]s go onto the
/// step's flight-recorder event (see `mdm-host::telemetry`) instead of
/// the run failing silently.
///
/// [`StepRecord`]: crate::integrate::StepRecord
/// [`Violation`]: mdm_profile::watchdog::Violation
#[derive(Clone, Debug)]
pub struct PhysicsWatchdogs {
    energy: mdm_profile::watchdog::DriftMonitor,
    momentum: mdm_profile::watchdog::BoundMonitor,
    force_error: Option<mdm_profile::watchdog::BoundMonitor>,
}

impl PhysicsWatchdogs {
    /// NVE monitors: energy drift beyond `energy_rel_tol` (relative to
    /// the first checked step), net momentum magnitude beyond
    /// `momentum_tol` (amu·Å/fs; Verlet conserves it to rounding).
    ///
    /// The paper's own NVE criterion (§5: total energy conserved to
    /// < 5×10⁻⁵ % over 1,000 steps) corresponds to
    /// `energy_rel_tol = 5e-7`.
    pub fn nve(energy_rel_tol: f64, momentum_tol: f64) -> Self {
        Self {
            energy: mdm_profile::watchdog::DriftMonitor::new("energy_drift", energy_rel_tol),
            momentum: mdm_profile::watchdog::BoundMonitor::new(
                "momentum",
                0.0,
                momentum_tol,
            ),
            force_error: None,
        }
    }

    /// Add a force-error watchdog: the relative RMS force error from
    /// the [`crate::accuracy::ForceErrorProbe`] must stay at or below
    /// `rel_tol`. The paper's Figure 5 value is ≈ 10⁻⁴·⁵; the repo's CI
    /// gate uses 10⁻³ (an order of magnitude of headroom). A NaN
    /// measurement fires, like every other monitor.
    pub fn with_force_error_band(mut self, rel_tol: f64) -> Self {
        self.force_error = Some(mdm_profile::watchdog::BoundMonitor::new(
            "force_error",
            0.0,
            rel_tol,
        ));
        self
    }

    /// Check one completed step; returns every violation it triggered
    /// (empty for a healthy step).
    pub fn check(
        &mut self,
        system: &System,
        record: &crate::integrate::StepRecord,
    ) -> Vec<mdm_profile::watchdog::Violation> {
        let mut violations = Vec::new();
        violations.extend(self.energy.check(record.step, record.total));
        violations.extend(
            self.momentum
                .check(record.step, system.total_momentum().norm()),
        );
        violations
    }

    /// Check a force-error probe measurement (the probe fires on its
    /// own cadence, not every step, so this is separate from
    /// [`PhysicsWatchdogs::check`]). `rel_error` is
    /// [`ForceErrorSample::relative`]; returns a violation when it
    /// leaves the band set by
    /// [`PhysicsWatchdogs::with_force_error_band`], `None` when inside
    /// it or when no band was configured.
    ///
    /// [`ForceErrorSample::relative`]: mdm_profile::accuracy::ForceErrorSample::relative
    pub fn check_force_error(
        &mut self,
        step: u64,
        rel_error: f64,
    ) -> Option<mdm_profile::watchdog::Violation> {
        self.force_error
            .as_ref()
            .and_then(|monitor| monitor.check(step, rel_error))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};

    #[test]
    fn welford_matches_two_pass() {
        let data = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut st = FluctuationStats::new();
        for &x in &data {
            st.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((st.mean() - mean).abs() < 1e-12);
        assert!((st.std_dev() - var.sqrt()).abs() < 1e-12);
        assert_eq!(st.count(), 8);
    }

    #[test]
    fn fluctuation_of_constant_series_is_zero() {
        let mut st = FluctuationStats::new();
        for _ in 0..10 {
            st.push(42.0);
        }
        assert_eq!(st.relative_fluctuation(), 0.0);
    }

    #[test]
    fn rdf_of_crystal_peaks_at_neighbour_shells() {
        let s = rocksalt_nacl(3, NACL_LATTICE_A);
        let a0 = NACL_LATTICE_A / 2.0;
        let mut rdf = Rdf::new(2.2 * a0, 200);
        rdf.sample(&s);
        let g = rdf.normalized();
        let value_at = |r: f64| -> f64 {
            let dr = 2.2 * a0 / 200.0;
            let idx = ((r / dr) as usize).min(199);
            g[idx].1.max(g[idx.saturating_sub(1)].1).max(g[(idx + 1).min(199)].1)
        };
        // Sharp peaks at a₀ (6 unlike neighbours) and a₀√2 (12 like).
        assert!(value_at(a0) > 5.0, "no first peak: {}", value_at(a0));
        assert!(value_at(a0 * 1.414) > 5.0, "no second peak");
        // Deep gap in between.
        assert!(value_at(a0 * 1.2) < 0.5, "no gap: {}", value_at(a0 * 1.2));
    }

    #[test]
    fn cross_species_rdf_first_shell_is_unlike_only() {
        let s = rocksalt_nacl(3, NACL_LATTICE_A);
        let a0 = NACL_LATTICE_A / 2.0;
        let mut rdf_nacl = Rdf::for_species(1.3 * a0, 100, 0, 1);
        let mut rdf_nana = Rdf::for_species(1.3 * a0, 100, 0, 0);
        rdf_nacl.sample(&s);
        rdf_nana.sample(&s);
        let peak = |g: &[(f64, f64)]| g.iter().map(|p| p.1).fold(0.0f64, f64::max);
        assert!(peak(&rdf_nacl.normalized()) > 5.0);
        // No like-species neighbours below 1.3·a₀ (first Na-Na shell is
        // at a₀√2 ≈ 1.414·a₀).
        assert!(peak(&rdf_nana.normalized()) < 0.1);
    }

    #[test]
    fn structure_factor_bragg_peak_of_rocksalt() {
        // The alternating-charge rock-salt lattice has its charge-density
        // wave at k = π/a₀ per axis: for L = 2·cells·a₀ that is the
        // n⃗ = (cells, cells, cells) shell, |n⃗|² = 3·cells². All charge
        // weight concentrates there: S_zz = N at the Bragg peak, ~0
        // elsewhere.
        let cells = 2usize;
        let s = rocksalt_nacl(cells, NACL_LATTICE_A);
        let spectrum = charge_structure_factor(&s, (3.5 * (cells * cells) as f64).sqrt() + 1.0);
        let l = s.simbox().l();
        let bragg_k = std::f64::consts::TAU * (3.0 * (cells * cells) as f64).sqrt() / l;
        let mut peak_value = 0.0;
        let mut off_peak_max: f64 = 0.0;
        for (k, v) in spectrum {
            if (k - bragg_k).abs() < 1e-9 {
                peak_value = v;
            } else {
                off_peak_max = off_peak_max.max(v);
            }
        }
        assert!(
            (peak_value - s.len() as f64).abs() < 1e-6,
            "Bragg peak {peak_value} (expect N = {})",
            s.len()
        );
        assert!(off_peak_max < 1e-9, "off-peak leakage {off_peak_max}");
    }

    #[test]
    fn structure_factor_is_nonnegative_and_finite() {
        use rand::{Rng, SeedableRng};
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for i in 0..s.len() {
            let dr = Vec3::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5);
            s.displace(i, dr);
        }
        for (k, v) in charge_structure_factor(&s, 5.0) {
            assert!(k > 0.0 && v.is_finite() && v >= 0.0);
        }
    }

    #[test]
    fn msd_zero_without_motion() {
        let s = rocksalt_nacl(2, NACL_LATTICE_A);
        let mut msd = Msd::new(&s);
        msd.update(&s);
        assert_eq!(msd.value(), 0.0);
    }

    #[test]
    fn msd_tracks_through_boundary() {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        let mut msd = Msd::new(&s);
        let l = s.simbox().l();
        // Walk one particle across the whole box in small steps.
        let steps = 40;
        for _ in 0..steps {
            s.displace(0, Vec3::new(l / steps as f64, 0.0, 0.0));
            msd.update(&s);
        }
        // Wrapped position returned to start, but MSD sees L².
        let expect = l * l / s.len() as f64;
        assert!(
            (msd.value() - expect).abs() / expect < 1e-9,
            "msd {} vs {expect}",
            msd.value()
        );
    }

    #[test]
    fn pressure_of_cold_crystal_is_negative_tension_free() {
        // At the equilibrium lattice constant with zero velocities the
        // pressure should be small (Tosi-Fumi equilibrium ≈ ambient).
        use crate::forcefield::{EwaldTosiFumi, ForceField};
        let s = rocksalt_nacl(2, NACL_LATTICE_A);
        let mut ff = EwaldTosiFumi::nacl_default(s.simbox().l());
        let r = ff.compute(&s);
        let p = pressure_gpa(&s, r.virial);
        assert!(p.abs() < 2.0, "pressure {p} GPa");
    }

    fn watchdog_sim(t: f64, dt: f64) -> crate::integrate::Simulation<crate::forcefield::EwaldTosiFumi> {
        use crate::velocities::maxwell_boltzmann;
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        maxwell_boltzmann(&mut s, t, 7);
        let ff = crate::forcefield::EwaldTosiFumi::nacl_default(s.simbox().l());
        crate::integrate::Simulation::new(s, ff, dt)
    }

    #[test]
    fn healthy_nve_run_triggers_no_watchdogs() {
        let mut sim = watchdog_sim(300.0, 1.0);
        // Loose-but-physical thresholds: 1e-3 relative energy, tiny
        // momentum.
        let mut dogs = PhysicsWatchdogs::nve(1e-3, 1e-6);
        for _ in 0..20 {
            let record = sim.step();
            let violations = dogs.check(sim.system(), &record);
            assert!(violations.is_empty(), "step {}: {violations:?}", record.step);
        }
    }

    #[test]
    fn oversized_timestep_fires_energy_watchdog_within_k_steps() {
        // Δt = 40 fs is 20x the paper's 2 fs and past the Verlet
        // stability limit for this stiff ionic crystal (ω·Δt > 2 for
        // the ~200 fs optical-phonon period): the energy explodes by
        // ~14 orders of magnitude within a handful of steps. The
        // energy-drift watchdog must catch it quickly. (25 fs is NOT
        // enough — the integrator is still marginally stable there.)
        let mut sim = watchdog_sim(300.0, 40.0);
        let mut dogs = PhysicsWatchdogs::nve(1e-3, 1e9);
        let k = 30;
        let mut fired_at = None;
        for _ in 0..k {
            let record = sim.step();
            let violations = dogs.check(sim.system(), &record);
            if let Some(v) = violations.iter().find(|v| v.monitor == "energy_drift") {
                assert!(v.value > 1e-3);
                assert!(!v.message.is_empty());
                fired_at = Some(record.step);
                break;
            }
        }
        let step = fired_at.expect("energy-drift watchdog never fired within the step budget");
        assert!(step <= k as u64);
    }

    #[test]
    fn force_error_band_fires_only_outside_band() {
        let mut dogs = PhysicsWatchdogs::nve(1e30, 1e30).with_force_error_band(1e-3);
        // Healthy probe readings stay silent.
        assert!(dogs.check_force_error(0, 3e-5).is_none());
        assert!(dogs.check_force_error(10, 9.9e-4).is_none());
        // Past the band (or non-finite) fires.
        let v = dogs.check_force_error(20, 2e-2).expect("must fire");
        assert_eq!(v.monitor, "force_error");
        assert_eq!(v.step, 20);
        assert!(dogs.check_force_error(30, f64::NAN).is_some());
        // Without a configured band, nothing ever fires.
        let mut plain = PhysicsWatchdogs::nve(1e30, 1e30);
        assert!(plain.check_force_error(0, 1.0).is_none());
    }
}
