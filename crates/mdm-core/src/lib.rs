//! # mdm-core — the molecular-dynamics engine of the MDM reproduction
//!
//! Everything the MDM paper (Narumi et al., SC 2000) *computes* — as
//! opposed to the special-purpose hardware it computes it *on* — lives
//! here:
//!
//! * the **Ewald summation** in the paper's exact parameterisation
//!   (eqs. 2–13): real-space `erfc` kernel, wavenumber-space DFT/IDFT,
//!   self-energy, with the dimensionless splitting parameter `α` and the
//!   cutoffs `r_cut`, `L·k_cut`;
//! * the **Tosi–Fumi** (Born–Mayer–Huggins) force field for NaCl
//!   (eq. 15) and the Lennard-Jones form of eq. 4;
//! * the **cell-index method** (Hockney & Eastwood): the 27-cell scan
//!   MDGRAPE-2 runs (no Newton's third law, no cutoff skipping), and the
//!   same scan with cutoff skipping in the one software real-space pass
//!   ([`ewald::real::real_space`]);
//! * the one **dealing** of particles to parts ([`deal`]), shared by
//!   the emulators' boards and the §4 program's processes;
//! * velocity-Verlet **integration**, velocity-scaling **NVT** and plain
//!   **NVE** (the paper's 2,000-step NVT + 1,000-step NVE protocol);
//! * **observables**: temperature, pressure, energies, RDF, MSD,
//!   temperature-fluctuation statistics (Figure 2);
//! * the paper's §2 **flop accounting** (59 flops per real-space pair,
//!   29+35 per particle–wave) used by the performance model.
//!
//! Units: Å, fs, amu, eV, Kelvin, elementary charges ([`units`]).

pub mod accuracy;
pub mod boxsim;
pub mod celllist;
pub mod checkpoint;
pub mod deal;
pub mod direct;
pub mod ewald;
pub mod flops;
pub mod forcefield;
pub mod integrate;
pub mod io;
pub mod kvectors;
pub mod lattice;
pub mod longrange;
pub mod mesh;
pub mod observables;
pub mod pme;
pub mod potentials;
pub mod pswf;
pub mod special;
pub mod system;
pub mod thermostat;
pub mod units;
pub mod vec3;
pub mod velocities;

pub use boxsim::SimBox;
pub use forcefield::{ForceField, ForceResult};
pub use longrange::{LongRangeBackend, LongRangeCounters, LongRangeResult};
pub use system::{Species, System};
pub use vec3::Vec3;
