//! Temperature control.
//!
//! The paper's NVT phase is plain velocity scaling ("NVT constant
//! ensemble by scaling the velocity", §5) — every step, all velocities
//! are rescaled so the instantaneous temperature equals the target.

use crate::system::System;
use crate::velocities::rescale_to_temperature;

/// The paper's velocity-scaling thermostat, applied after each
/// integration step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thermostat {
    target: f64,
}

impl Thermostat {
    /// The paper's velocity-scaling thermostat at `target` K.
    pub fn velocity_scaling(target: f64) -> Self {
        assert!(target >= 0.0);
        Self { target }
    }

    /// Rescale the system's velocities to the target temperature.
    pub fn apply(&self, system: &mut System) {
        rescale_to_temperature(system, self.target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use crate::velocities::{maxwell_boltzmann, temperature};

    #[test]
    fn velocity_scaling_is_exact() {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        maxwell_boltzmann(&mut s, 400.0, 1);
        let th = Thermostat::velocity_scaling(1200.0);
        th.apply(&mut s);
        assert!((temperature(&s) - 1200.0).abs() < 1e-9);
    }

    #[test]
    fn zero_velocity_system_is_untouched() {
        let mut s = rocksalt_nacl(1, NACL_LATTICE_A);
        let a = Thermostat::velocity_scaling(500.0);
        a.apply(&mut s);
        assert_eq!(temperature(&s), 0.0);
    }
}
