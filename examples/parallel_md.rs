//! The §4 parallel program: 16 real-space processes + 8 wavenumber
//! processes over the simulated MPI fabric, force-for-force identical
//! to the serial reference, potential and virial included.
//!
//! Run with: `cargo run --release --example parallel_md [cells]`

use mdm::core::celllist::CellList;
use mdm::core::deal;
use mdm::core::ewald::EwaldParams;
use mdm::core::forcefield::{EwaldTosiFumi, ForceField};
use mdm::core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm::core::potentials::TosiFumi;
use mdm::core::vec3::Vec3;
use mdm::host::parallel::{parallel_forces, ParallelConfig};

fn main() {
    let cells: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let mut system = rocksalt_nacl(cells, NACL_LATTICE_A);
    // Perturb so the forces are non-trivial.
    system.displace(0, Vec3::new(0.35, -0.2, 0.12));
    system.displace(11, Vec3::new(-0.15, 0.3, 0.22));
    let l = system.simbox().l();
    let params = EwaldParams::from_alpha_accuracy(7.0, 3.2, 3.2, l);

    println!("== the paper's Section 4 parallel layout ==");
    let config = ParallelConfig::paper();
    // The real ranks' dealing, at the cell list `parallel_forces` builds.
    let r_cut = params.r_cut.min(system.simbox().max_cutoff());
    let cells = CellList::build(system.simbox(), system.positions(), r_cut);
    let shares: Vec<usize> = deal::cell_runs(&cells, config.real_processes)
        .into_iter()
        .map(|run| run.len())
        .collect();
    println!(
        "{} real-space processes (cell runs, {}-{} particles each) + {} wavenumber processes",
        config.real_processes,
        shares.iter().min().unwrap(),
        shares.iter().max().unwrap(),
        config.wave_processes
    );

    let t0 = std::time::Instant::now();
    let par = parallel_forces(&system, &params, config);
    let t_par = t0.elapsed();

    let mut serial = EwaldTosiFumi::new(params, TosiFumi::nacl());
    let t1 = std::time::Instant::now();
    let ser = rayon::with_num_threads(1, || serial.compute(&system));
    let t_ser = t1.elapsed();

    let scale = ser.forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
    let max_dev = par
        .forces
        .iter()
        .zip(&ser.forces)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0f64, f64::max);

    println!("\nresults (N = {}):", system.len());
    println!("  potential (parallel): {:.10} eV", par.potential);
    println!("  potential (serial)  : {:.10} eV", ser.potential);
    println!("  virial (parallel)   : {:.10} eV", par.virial);
    println!("  virial (serial)     : {:.10} eV", ser.virial);
    println!("  max force deviation : {:.2e} of the force scale", max_dev / scale);
    println!(
        "  wall time           : {:.1} ms parallel ({} threads) vs {:.1} ms serial",
        t_par.as_secs_f64() * 1e3,
        config.real_processes + config.wave_processes,
        t_ser.as_secs_f64() * 1e3
    );
    assert!(max_dev / scale < 1e-9, "parallel and serial must agree");
    let relative = |a: f64, b: f64| ((a - b) / b).abs();
    assert!(
        relative(par.potential, ser.potential) < 1e-10,
        "parallel and serial potentials must agree"
    );
    assert!(
        relative(par.virial, ser.virial) < 1e-9,
        "parallel and serial virials must agree"
    );
    println!("\nparallel == serial: the Section 4 decomposition is exact.");
}
