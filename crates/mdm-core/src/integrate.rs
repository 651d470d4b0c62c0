//! Time integration: velocity Verlet, and the simulation driver that
//! strings force provider + integrator + thermostat together.
//!
//! The paper's protocol (§5): Δt = 2 fs; the first 2,000 steps are NVT
//! by velocity scaling, the final 1,000 steps NVE; total energy in the
//! NVE phase conserved to < 5×10⁻⁵ %.

use crate::forcefield::{ForceField, ForceResult};
use crate::system::System;
use crate::thermostat::Thermostat;
use crate::units::ACCEL_CONV;
use crate::vec3::Vec3;
use crate::velocities::{kinetic_energy, temperature};

/// Velocity-Verlet integrator with time step `dt` (fs).
#[derive(Clone, Copy, Debug)]
pub struct VelocityVerlet {
    dt: f64,
}

impl VelocityVerlet {
    /// Create with time step `dt` in femtoseconds.
    pub fn new(dt: f64) -> Self {
        assert!(dt > 0.0 && dt.is_finite());
        Self { dt }
    }

    /// The time step (fs).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advance one step given the forces at the current time; returns
    /// the forces at the new time.
    ///
    /// Standard velocity Verlet:
    /// `v(t+Δt/2) = v(t) + Δt/2·a(t)`;
    /// `r(t+Δt) = r(t) + Δt·v(t+Δt/2)`;
    /// `v(t+Δt) = v(t+Δt/2) + Δt/2·a(t+Δt)`.
    pub fn step(
        &self,
        system: &mut System,
        ff: &mut dyn ForceField,
        current: &ForceResult,
    ) -> ForceResult {
        let n = system.len();
        assert_eq!(current.forces.len(), n);
        let dt = self.dt;
        let half = 0.5 * dt * ACCEL_CONV;

        // Half kick + drift.
        let masses = system.masses().to_vec();
        {
            let _span = mdm_profile::span("integrate");
            let velocities = system.velocities_mut();
            for i in 0..n {
                velocities[i] += current.forces[i] * (half / masses[i]);
            }
            let velocities_snapshot: Vec<Vec3> = system.velocities().to_vec();
            system.displace_all(|i| velocities_snapshot[i] * dt);
        }

        // New forces, second half kick.
        let next = ff.compute(system);
        {
            let _span = mdm_profile::span("integrate");
            let velocities = system.velocities_mut();
            for i in 0..n {
                velocities[i] += next.forces[i] * (half / masses[i]);
            }
        }
        next
    }
}

/// Per-step record of the thermodynamic state.
#[derive(Clone, Copy, Debug)]
pub struct StepRecord {
    /// Step index (0-based, counts completed steps).
    pub step: u64,
    /// Simulated time (fs).
    pub time: f64,
    /// Instantaneous temperature (K).
    pub temperature: f64,
    /// Kinetic energy (eV).
    pub kinetic: f64,
    /// Potential energy (eV).
    pub potential: f64,
    /// Total energy (eV).
    pub total: f64,
}

/// A runnable MD simulation: system + force field + integrator +
/// optional thermostat.
pub struct Simulation<F: ForceField> {
    system: System,
    ff: F,
    integrator: VelocityVerlet,
    thermostat: Option<Thermostat>,
    current: ForceResult,
    step_count: u64,
}

impl<F: ForceField> Simulation<F> {
    /// Create and evaluate the initial forces.
    pub fn new(system: System, mut ff: F, dt: f64) -> Self {
        let current = ff.compute(&system);
        Self {
            system,
            ff,
            integrator: VelocityVerlet::new(dt),
            thermostat: None,
            current,
            step_count: 0,
        }
    }

    /// Rebuild a simulation mid-trajectory from checkpointed state,
    /// installing the captured force evaluation verbatim instead of
    /// recomputing it. Recomputing would be bitwise identical for
    /// stateless force fields but would advance the evaluation cadence
    /// of stale-carrying ones (the MDM driver), desynchronising a
    /// resumed run from its uninterrupted twin — so resume never calls
    /// `compute`.
    pub fn resume(
        system: System,
        ff: F,
        dt: f64,
        step_count: u64,
        current: ForceResult,
    ) -> Self {
        assert_eq!(
            current.forces.len(),
            system.len(),
            "checkpointed forces disagree with the particle count"
        );
        Self {
            system,
            ff,
            integrator: VelocityVerlet::new(dt),
            thermostat: None,
            current,
            step_count,
        }
    }

    /// Attach a thermostat (NVT); `None` runs NVE.
    pub fn set_thermostat(&mut self, thermostat: Option<Thermostat>) {
        self.thermostat = thermostat;
    }

    /// The system state.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable system access (e.g. for re-initialising velocities).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// The force field.
    pub fn force_field(&self) -> &F {
        &self.ff
    }

    /// Mutable force-field access (e.g. retuning the potential cadence
    /// between measurement phases).
    pub fn force_field_mut(&mut self) -> &mut F {
        &mut self.ff
    }

    /// End the run and hand back its force field, so a host that runs
    /// many jobs can load the next one onto the same machine.
    pub fn into_force_field(self) -> F {
        self.ff
    }

    /// Re-evaluate the forces at the current positions and replace the
    /// cached [`Self::current_forces`]. Needed after mutating the
    /// system or force field out-of-band (checkpoint restore, cadence
    /// changes) so the next `step` starts from consistent forces.
    pub fn refresh_forces(&mut self) -> &ForceResult {
        self.current = self.ff.compute(&self.system);
        &self.current
    }

    /// Latest force evaluation.
    pub fn current_forces(&self) -> &ForceResult {
        &self.current
    }

    /// Completed steps.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// The integration time step (fs).
    pub fn dt(&self) -> f64 {
        self.integrator.dt()
    }

    /// Advance one step; returns the record of the *new* state.
    pub fn step(&mut self) -> StepRecord {
        let next = self
            .integrator
            .step(&mut self.system, &mut self.ff, &self.current);
        self.current = next;
        if let Some(t) = &mut self.thermostat {
            t.apply(&mut self.system);
        }
        self.step_count += 1;
        self.record()
    }

    /// Advance `n` steps, returning one record per step.
    pub fn run(&mut self, n: usize) -> Vec<StepRecord> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Snapshot of the current thermodynamic state.
    pub fn record(&self) -> StepRecord {
        let ke = kinetic_energy(&self.system);
        StepRecord {
            step: self.step_count,
            time: self.step_count as f64 * self.integrator.dt(),
            temperature: temperature(&self.system),
            kinetic: ke,
            potential: self.current.potential,
            total: ke + self.current.potential,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forcefield::EwaldTosiFumi;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use crate::thermostat::Thermostat;
    use crate::velocities::maxwell_boltzmann;

    fn small_sim(t: f64, dt: f64) -> Simulation<EwaldTosiFumi> {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        maxwell_boltzmann(&mut s, t, 7);
        let ff = EwaldTosiFumi::nacl_default(s.simbox().l());
        Simulation::new(s, ff, dt)
    }

    #[test]
    fn nve_conserves_energy() {
        let mut sim = small_sim(300.0, 1.0);
        let e0 = sim.record().total;
        let records = sim.run(50);
        let e_end = records.last().unwrap().total;
        let drift = ((e_end - e0) / e0).abs();
        // Verlet conserves a shadow Hamiltonian; the bounded oscillation
        // of the true energy at Δt = 1 fs on this stiff ionic system is
        // a few × 1e-5 relative.
        assert!(drift < 1e-4, "energy drift {drift}");
        for r in &records {
            assert!(((r.total - e0) / e0).abs() < 2e-4, "step {}: {}", r.step, r.total);
        }
    }

    #[test]
    fn energy_error_scales_as_dt_squared_locally() {
        // Velocity Verlet is 2nd order: halving dt should cut the
        // short-horizon energy error by roughly 4x.
        let horizon_fs = 16.0;
        let drift = |dt: f64| {
            let mut sim = small_sim(600.0, dt);
            let e0 = sim.record().total;
            let n = (horizon_fs / dt) as usize;
            let rec = sim.run(n);
            (rec.last().unwrap().total - e0).abs()
        };
        let d2 = drift(2.0);
        let d1 = drift(1.0);
        let ratio = d2 / d1.max(1e-12);
        assert!(ratio > 2.0, "expected ~4x, got {ratio} (d2={d2}, d1={d1})");
    }

    #[test]
    fn momentum_conserved_in_nve() {
        let mut sim = small_sim(500.0, 1.0);
        let p0 = sim.system().total_momentum();
        sim.run(30);
        let p1 = sim.system().total_momentum();
        assert!((p1 - p0).norm() < 1e-9, "momentum drift {:?}", p1 - p0);
    }

    #[test]
    fn thermostat_holds_temperature() {
        let mut sim = small_sim(300.0, 1.0);
        sim.set_thermostat(Some(Thermostat::velocity_scaling(900.0)));
        let records = sim.run(25);
        // Velocity scaling pins the instantaneous T exactly each step.
        let last = records.last().unwrap();
        assert!((last.temperature - 900.0).abs() < 1e-6, "{}", last.temperature);
    }

    #[test]
    fn crystal_at_rest_stays_at_rest() {
        let s = rocksalt_nacl(2, NACL_LATTICE_A);
        let ff = EwaldTosiFumi::nacl_default(s.simbox().l());
        let mut sim = Simulation::new(s, ff, 1.0);
        let rec = sim.run(5);
        assert!(rec.last().unwrap().temperature < 1e-6);
    }

    #[test]
    fn step_records_are_consistent() {
        let mut sim = small_sim(400.0, 2.0);
        let r = sim.step();
        assert_eq!(r.step, 1);
        assert!((r.time - 2.0).abs() < 1e-12);
        assert!((r.total - (r.kinetic + r.potential)).abs() < 1e-12);
    }
}
