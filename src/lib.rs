//! # mdm — a software reproduction of the Molecular Dynamics Machine
//!
//! This is the umbrella crate of a full reproduction of
//!
//! > Narumi, Susukita, Koishi, Yasuoka, Furusawa, Kawai, Ebisuzaki,
//! > *"1.34 Tflops Molecular Dynamics Simulation for NaCl with a
//! > Special-Purpose Computer: MDM"*, SC 2000.
//!
//! It re-exports the workspace crates:
//!
//! * [`core`] (`mdm-core`) — the MD engine: Ewald summation in the
//!   paper's parameterisation, Tosi–Fumi NaCl force field, cell-index
//!   method, velocity-Verlet NVT/NVE, observables, flop accounting;
//! * [`fixed`] (`mdm-fixed`) — the two's-complement fixed-point
//!   substrate of the WINE-2 pipelines;
//! * [`funceval`] (`mdm-funceval`) — the MDGRAPE-2 function evaluator
//!   (4th-order interpolation, 1,024 segments);
//! * [`wine2`] — the WINE-2 emulator (DFT/IDFT pipelines → chips →
//!   boards → clusters → 45 Tflops system) with the Table 2 host API;
//! * [`mdgrape2`] — the MDGRAPE-2 emulator (f32 pair pipelines,
//!   cell-index hardware, 32-type coefficient RAM) with the Table 3
//!   host API;
//! * [`host`] (`mdm-host`) — machine topology, the assembled
//!   [`host::MdmForceField`], the simulated-MPI parallel program of §4,
//!   and the performance model that regenerates Tables 4–5;
//! * [`profile`] (`mdm-profile`) — spans, counters, gauges, the JSONL
//!   flight recorder, and the accuracy /
//!   effective-speed sample types behind `accuracy_report`.
//!
//! ## Quickstart
//!
//! ```
//! use mdm::core::integrate::Simulation;
//! use mdm::core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
//! use mdm::core::thermostat::Thermostat;
//! use mdm::core::velocities::maxwell_boltzmann;
//! use mdm::host::MdmForceField;
//!
//! // A small rock-salt NaCl crystal...
//! let mut system = rocksalt_nacl(3, NACL_LATTICE_A);
//! maxwell_boltzmann(&mut system, 1200.0, 42);
//! // ...simulated on the emulated MDM hardware.
//! let machine = MdmForceField::nacl_default(system.simbox().l()).unwrap();
//! let mut sim = Simulation::new(system, machine, 2.0);
//! sim.set_thermostat(Some(Thermostat::velocity_scaling(1200.0)));
//! let record = sim.step();
//! assert!((record.temperature - 1200.0).abs() < 1.0);
//! ```

pub use mdm_core as core;
pub use mdm_fixed as fixed;
pub use mdm_funceval as funceval;
pub use mdm_host as host;
pub use mdm_profile as profile;
pub use mdm_tree as tree;
pub use {mdgrape2, wine2};
