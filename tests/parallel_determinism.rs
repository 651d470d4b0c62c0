//! Cross-thread-count determinism: the threaded rayon backend must not
//! change the physics.
//!
//! The backend's contract (see `vendor/rayon`) is that `collect`
//! reassembles chunk results in index order, so any *per-particle map*
//! — forces from the Ewald real-space pass (with or without the
//! Tosi–Fumi terms), the IDFT force synthesis, the whole emulated-hardware step —
//! is **bitwise identical** at every thread count: each particle's
//! accumulation order is fixed by the cell/wave traversal, and only the
//! chunk boundaries move. Scalar *reductions* that go through a
//! parallel `sum()` reassociate across chunk boundaries and are only
//! guaranteed to tolerance; the force-field code reduces serially over
//! the ordered collect, so its energies stay exact too — these tests
//! pin both halves of that policy.
//!
//! Everything runs at `with_num_threads(1)` vs `with_num_threads(4)` so
//! the comparison is real even on a single-core host (the backend still
//! spawns four workers).

use mdm::core::ewald::real::real_space;
use mdm::core::ewald::recip::recip_space;
use mdm::core::forcefield::{EwaldTosiFumi, ForceField, ForceResult};
use mdm::core::integrate::Simulation;
use mdm::core::kvectors::half_space_vectors;
use mdm::core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm::core::system::System;
use mdm::core::velocities::maxwell_boltzmann;
use mdm::host::driver::MdmForceField;
use rayon::with_num_threads;

/// A de-symmetrised NaCl configuration: perfect-lattice forces cancel
/// by symmetry, so integrate a few hot steps first to get positions
/// where every per-particle force is non-trivial.
fn molten_snapshot(cells: usize) -> System {
    let mut system = rocksalt_nacl(cells, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 1800.0, 42);
    let ff = EwaldTosiFumi::nacl_default(system.simbox().l());
    let mut sim = Simulation::new(system, ff, 2.0);
    sim.run(3);
    sim.system().clone()
}

#[test]
fn real_space_forces_bitwise_identical_across_thread_counts() {
    let system = molten_snapshot(3);
    let (simbox, l) = (system.simbox(), system.simbox().l());
    let kappa = 6.4 / l;
    // r_cut small enough that the cell grid supports the 27-cell scan
    // (the minimum-image branch of coarser grids has its own tests in
    // `ewald::real`).
    let r_cut = l / 3.1;

    let run = |threads| {
        with_num_threads(threads, || {
            real_space(simbox, system.positions(), system.charges(), kappa, r_cut, None)
        })
    };
    let (serial, threaded) = (run(1), run(4));

    assert!(serial.pairs > 0, "cutoff too small: no pairs evaluated");
    // Per-particle force map: bitwise.
    assert_eq!(serial.forces, threaded.forces, "real-space forces diverged");
    // Energy/virial/pair-count reduce serially over the ordered collect,
    // so they are exact as well — not just within tolerance.
    assert_eq!(serial.coulomb.to_bits(), threaded.coulomb.to_bits(), "energy");
    assert_eq!(serial.virial.to_bits(), threaded.virial.to_bits(), "virial");
    assert_eq!(serial.pairs, threaded.pairs, "pair count");
}

#[test]
fn recip_space_forces_bitwise_identical_across_thread_counts() {
    let system = molten_snapshot(3);
    let simbox = system.simbox();
    let alpha = 6.4;
    let waves = half_space_vectors(5.0);

    let serial = with_num_threads(1, || {
        recip_space(simbox, system.positions(), system.charges(), alpha, &waves)
    });
    let threaded = with_num_threads(4, || {
        recip_space(simbox, system.positions(), system.charges(), alpha, &waves)
    });

    // Both the DFT (per-wave structure factors) and the IDFT (per-
    // particle forces) are ordered maps: bitwise.
    assert_eq!(serial.structure_factors, threaded.structure_factors);
    assert_eq!(serial.forces, threaded.forces);
    assert_eq!(serial.energy.to_bits(), threaded.energy.to_bits());
    assert_eq!(serial.virial.to_bits(), threaded.virial.to_bits());
}

/// The software reference force field end to end (real-space pass with
/// the Tosi–Fumi terms + recip + self terms).
#[test]
fn software_forcefield_identical_across_thread_counts() {
    let system = molten_snapshot(3);
    let l = system.simbox().l();

    let eval = |threads: usize| -> ForceResult {
        with_num_threads(threads, || {
            let mut ff = EwaldTosiFumi::nacl_default(l);
            ff.compute(&system)
        })
    };
    let serial = eval(1);
    let threaded = eval(4);

    assert_eq!(serial.forces, threaded.forces, "forces diverged");
    assert_eq!(serial.potential.to_bits(), threaded.potential.to_bits());
    assert_eq!(serial.coulomb.to_bits(), threaded.coulomb.to_bits());
    assert_eq!(serial.short_range.to_bits(), threaded.short_range.to_bits());
    assert_eq!(serial.virial.to_bits(), threaded.virial.to_bits());
}

/// The emulated hardware path (MDGRAPE-2 + WINE-2 pipelines, which have
/// their own `par_iter` kernels) through `MdmForceField`.
#[test]
fn emulated_hardware_forcefield_identical_across_thread_counts() {
    let system = molten_snapshot(2);
    let l = system.simbox().l();

    let eval = |threads: usize| -> ForceResult {
        with_num_threads(threads, || {
            let mut ff = MdmForceField::nacl_default(l).expect("tables build");
            ff.compute(&system)
        })
    };
    let serial = eval(1);
    let threaded = eval(4);

    assert_eq!(serial.forces, threaded.forces, "hardware forces diverged");
    assert_eq!(serial.potential.to_bits(), threaded.potential.to_bits());
    assert_eq!(serial.virial.to_bits(), threaded.virial.to_bits());
}

/// The other half of the policy: a reduction that goes through the
/// parallel `sum()` reassociates across chunk boundaries, so it is
/// only guaranteed to floating-point tolerance — and the tolerance is
/// tiny for well-conditioned sums.
#[test]
fn parallel_sum_reduction_agrees_to_tolerance() {
    let values: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.37).sin()).collect();
    use rayon::prelude::*;

    let serial: f64 = with_num_threads(1, || values.par_iter().map(|&v| v * v).sum());
    let threaded: f64 = with_num_threads(4, || values.par_iter().map(|&v| v * v).sum());

    let rel = ((serial - threaded) / serial).abs();
    assert!(rel < 1e-12, "sum reassociation error too large: {rel}");
}

/// Every selectable long-range backend — the emulated WINE-2 board, the
/// exact software recip, SPME, and the PSWF fast
/// Ewald — through the full `MdmForceField` step. The wine2/ewald paths
/// have their own `par_iter` kernels (ordered maps → bitwise); the mesh
/// backends run every stage of the shared mesh engine as plane, pencil
/// and particle tasks that each own their output and reduce in index
/// order (→ bitwise; `tests/mesh_engine.rs` repeats this at N = 512,
/// K = 64 and at 2 and 3 threads). This also pins that the shared
/// real-space pass around them stays bitwise under threading.
#[test]
fn every_longrange_backend_identical_across_thread_counts() {
    let system = molten_snapshot(2);
    let l = system.simbox().l();

    for &backend in mdm::host::LONGRANGE_BACKENDS {
        let eval = |threads: usize| -> ForceResult {
            with_num_threads(threads, || {
                let mut ff = MdmForceField::nacl_default(l).expect("tables build");
                let params = *ff.params();
                ff.set_longrange(
                    mdm::host::longrange_by_name(backend, &params, l, 2)
                        .expect("known backend"),
                );
                ff.compute(&system)
            })
        };
        let serial = eval(1);
        let threaded = eval(4);

        assert_eq!(serial.forces, threaded.forces, "{backend}: forces diverged");
        assert_eq!(
            serial.potential.to_bits(),
            threaded.potential.to_bits(),
            "{backend}: potential"
        );
        assert_eq!(
            serial.virial.to_bits(),
            threaded.virial.to_bits(),
            "{backend}: virial"
        );
    }
}
