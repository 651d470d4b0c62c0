//! # mdm-host — the host computer and the assembled MDM machine
//!
//! The third box of the paper's Fig. 1: everything the Sun E4500 nodes
//! did, plus the glue that makes WINE-2 + MDGRAPE-2 + host into one MD
//! machine.
//!
//! * [`topology`] — the machine description of Fig. 3 / Table 1 (nodes,
//!   links, clusters, boards, chips) with peak-performance roll-ups;
//! * [`machines`] — the three configurations of Table 4: MDM-current,
//!   the conventional general-purpose computer, MDM-future;
//! * [`driver`] — [`driver::MdmForceField`], a
//!   [`mdm_core::ForceField`] that computes the paper's NaCl force
//!   field entirely through the emulated hardware: four MDGRAPE-2
//!   passes (Ewald-real Coulomb, Born–Mayer, r⁻⁶, r⁻⁸) plus the WINE-2
//!   wavenumber part plus host-side self-energy;
//! * [`mpi`] — the simulated message-passing fabric (crossbeam
//!   channels) standing in for MPI over Myrinet;
//! * [`parallel`] — the §4 parallel program as threads over [`mpi`]:
//!   16 real-space processes, each running the library real-space pass
//!   on one cell-block domain, + 8 wavenumber processes running the
//!   library DFT/IDFT;
//! * [`telemetry`] — the instrumented run loop: per-step flight
//!   recording (JSONL), physics watchdogs, run manifests;
//! * [`perfmodel`] — the analytic performance model that regenerates
//!   Tables 4 and 5 (α optimisation, flop accounting, component times,
//!   calculation vs *effective* speed).

pub mod driver;
pub mod machines;
pub mod mpi;
pub mod parallel;
pub mod perfmodel;
pub mod telemetry;
pub mod topology;
mod virial;

pub use driver::{longrange_by_name, MdmForceField, Wine2Backend, LONGRANGE_BACKENDS};
pub use machines::MachineModel;
pub use perfmodel::{PerformanceModel, Table4Column};
