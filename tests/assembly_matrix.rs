//! The Ewald assembly's claim matrix: each real-space engine (the
//! software pass, the emulated MDGRAPE-2) × each wavenumber backend
//! (`ewald`, `wine2`, `pswf`, `pme`) × N ∈ {64, 512}, all at
//! `MdmForceField::nacl_default_params`. Every cell holds two claims
//! bit for bit, on every step's positions, velocities, observables and
//! force-field result:
//!
//! * a run checkpointed at step 4 of 10 (through `to_line`/`parse`,
//!   with the MDGRAPE-2 engine's potential carry at cadence 3) and
//!   resumed on a new force field streams the uninterrupted run;
//! * the uninterrupted run at 1 worker thread is the run at 7.

use mdm::core::checkpoint::Checkpoint;
use mdm::core::forcefield::{EwaldTosiFumi, ForceField};
use mdm::core::integrate::{Simulation, StepRecord};
use mdm::core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm::core::potentials::TosiFumi;
use mdm::core::velocities::maxwell_boltzmann;
use mdm::host::driver::{longrange_by_name, MdmForceField, MdmTables, PotentialCarry};
use std::collections::BTreeMap;
use std::sync::LazyLock;

/// One set of function tables for every MDGRAPE-2 cell.
static TABLES: LazyLock<MdmTables> = LazyLock::new(|| MdmTables::build().expect("tables build"));

/// A real-space engine of the matrix: its force field over a backend,
/// and the engine state a checkpoint carries.
trait Engine: ForceField + Sized {
    fn build(l: f64, backend: &str) -> Self;
    fn save(&self, _extras: &mut BTreeMap<String, f64>) {}
    fn load(&mut self, _extras: &BTreeMap<String, f64>) {}
}

impl Engine for EwaldTosiFumi {
    fn build(l: f64, backend: &str) -> Self {
        let params = MdmForceField::nacl_default_params(l);
        let longrange = longrange_by_name(backend, &params, l, 2).expect("known backend");
        EwaldTosiFumi::with_longrange(params, TosiFumi::nacl(), longrange)
    }
}

impl Engine for MdmForceField {
    fn build(l: f64, backend: &str) -> Self {
        let mut ff = MdmForceField::nacl_default_with_tables(l, TABLES.clone());
        let params = *ff.params();
        ff.set_longrange(longrange_by_name(backend, &params, l, 2).expect("known backend"));
        ff.set_potential_interval(3);
        ff
    }

    fn save(&self, extras: &mut BTreeMap<String, f64>) {
        self.potential_carry()
            .expect("potential evaluated at least once")
            .to_extras(extras);
    }

    fn load(&mut self, extras: &BTreeMap<String, f64>) {
        self.restore_potential_carry(PotentialCarry::from_extras(extras).expect("carry keys"));
    }
}

/// A hot rock-salt run of `cells³` unit cells on `F` over `backend`.
fn start<F: Engine>(cells: usize, backend: &str) -> Simulation<F> {
    let mut system = rocksalt_nacl(cells, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 1200.0, 7);
    let ff = F::build(system.simbox().l(), backend);
    Simulation::new(system, ff, 2.0)
}

/// Every bit a step leaves: its record, the positions and velocities,
/// and the force field's result.
fn step_bits<F: ForceField>(sim: &Simulation<F>, record: &StepRecord) -> Vec<u64> {
    let system = sim.system();
    let result = sim.current_forces();
    let mut bits = vec![record.step];
    let scalars = [
        record.time,
        record.temperature,
        record.kinetic,
        record.potential,
        record.total,
    ];
    let energies = [
        result.potential,
        result.coulomb,
        result.short_range,
        result.virial,
    ];
    bits.extend(scalars.iter().chain(&energies).map(|x| x.to_bits()));
    for v in [system.positions(), system.velocities(), &result.forces] {
        bits.extend(v.iter().flat_map(|p| [p.x, p.y, p.z]).map(f64::to_bits));
    }
    bits
}

/// The bits of `steps` steps of `sim`.
fn run<F: ForceField>(sim: &mut Simulation<F>, steps: usize) -> Vec<Vec<u64>> {
    (0..steps)
        .map(|_| {
            let record = sim.step();
            step_bits(sim, &record)
        })
        .collect()
}

fn claims<F: Engine>(cells: usize, backend: &str) {
    let whole =
        |threads| rayon::with_num_threads(threads, || run(&mut start::<F>(cells, backend), 10));
    let one = whole(1);
    let seven = whole(7);
    for (step, (a, b)) in one.iter().zip(&seven).enumerate() {
        assert!(
            a == b,
            "{backend}, {cells} cells: step {} differs at 1 and 7 threads",
            step + 1
        );
    }

    let mut first = start::<F>(cells, backend);
    first.run(4);
    let mut cp = Checkpoint::capture(&first, "matrix", 7);
    first.force_field().save(&mut cp.extras);
    let cp = Checkpoint::parse(&cp.to_line()).expect("round-trip");
    drop(first);
    let mut ff = F::build(cp.l, backend);
    ff.load(&cp.extras);
    let resumed = run(&mut cp.resume(ff), 6);
    for (step, (a, b)) in resumed.iter().zip(&one[4..]).enumerate() {
        assert!(
            a == b,
            "{backend}, {cells} cells: resumed step {} differs",
            step + 5
        );
    }
}

/// One test a cell: `name: (engine, backend, unit cells a side)`.
macro_rules! matrix {
    ($($name:ident: ($engine:ty, $backend:literal, $cells:literal),)*) => {
        $(
            #[test]
            fn $name() {
                claims::<$engine>($cells, $backend);
            }
        )*
    };
}

matrix! {
    software_ewald_n64: (EwaldTosiFumi, "ewald", 2),
    software_wine2_n64: (EwaldTosiFumi, "wine2", 2),
    software_pswf_n64: (EwaldTosiFumi, "pswf", 2),
    software_pme_n64: (EwaldTosiFumi, "pme", 2),
    software_ewald_n512: (EwaldTosiFumi, "ewald", 4),
    software_wine2_n512: (EwaldTosiFumi, "wine2", 4),
    software_pswf_n512: (EwaldTosiFumi, "pswf", 4),
    software_pme_n512: (EwaldTosiFumi, "pme", 4),
    mdgrape2_ewald_n64: (MdmForceField, "ewald", 2),
    mdgrape2_wine2_n64: (MdmForceField, "wine2", 2),
    mdgrape2_pswf_n64: (MdmForceField, "pswf", 2),
    mdgrape2_pme_n64: (MdmForceField, "pme", 2),
    mdgrape2_ewald_n512: (MdmForceField, "ewald", 4),
    mdgrape2_wine2_n512: (MdmForceField, "wine2", 4),
    mdgrape2_pswf_n512: (MdmForceField, "pswf", 4),
    mdgrape2_pme_n512: (MdmForceField, "pme", 4),
}
