//! What the emulated machine's shape costs the host: the median wall of
//! one `MdmForceField::compute` on the 2 + 2-cluster machine every
//! workload builds and on the paper's 20 WINE-2 + 16 MDGRAPE-2 clusters
//! (Table 1), for a force step (the potential carried) and an energy
//! step (four potential passes and the host virial beside the force
//! passes), at N = 64 and 512 on thermally kicked rock salt with the
//! serve workloads' Ewald parameters; and of one machine build,
//! `MdmForceField::with_tables` with its tables cloned in, as a serve
//! board pays when a job's parameters change. The two shapes must
//! compute the same force bits; only the billing differs, so the ratio
//! column is what the paper's shape costs over the small one.
//!
//! Run with: `cargo run --release -p mdm-host --example machine_shape`
//! (`RAYON_NUM_THREADS` sets the thread count). The file uses only
//! public API, so copying it into an older checkout compares the two.

use mdm_core::forcefield::ForceField;
use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm_core::system::System;
use mdm_core::velocities::maxwell_boltzmann;
use mdm_host::driver::{MdmForceField, MdmTables};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `(WINE-2 clusters, MDGRAPE-2 clusters)`: the workloads' and the paper's.
const SHAPES: [(usize, usize); 2] = [(2, 2), (20, 16)];

/// Rock salt of `cells` unit cells a side, every ion displaced by 10 fs
/// of a 1,200 K Maxwell–Boltzmann velocity.
fn kicked(cells: usize) -> System {
    let mut system = rocksalt_nacl(cells, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 1200.0, 7);
    let moves: Vec<_> = system.velocities().iter().map(|v| *v * 10.0).collect();
    for (i, d) in moves.into_iter().enumerate() {
        system.displace(i, d);
    }
    system
}

/// A warm machine of `shape` for `system`: every `compute` after this
/// one is an energy step if `energy`, else a force step.
fn machine(system: &System, shape: (usize, usize), energy: bool, tables: &MdmTables) -> MdmForceField {
    let params = MdmForceField::nacl_default_params(system.simbox().l());
    let mut ff = MdmForceField::with_tables(params, shape.0, shape.1, tables.clone());
    // The first call builds the j-store, plans and scratch, and runs
    // the energy passes whatever the interval.
    ff.compute(system);
    if !energy {
        ff.set_potential_interval(u64::MAX);
    }
    ff
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn row(n: &str, kind: &str, [small, paper]: [Duration; 2]) {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    println!(
        "{n:>5}  {kind:<6}  {:>8.1}  {:>10.1}  {:>11.3}",
        us(small),
        us(paper),
        paper.as_secs_f64() / small.as_secs_f64()
    );
}

fn main() {
    let tables = MdmTables::build().expect("the §4 tables fit");
    println!("    N  step    2+2 (µs)  20+16 (µs)  20+16 / 2+2");
    let params = MdmForceField::nacl_default_params(kicked(2).simbox().l());
    let mut builds = [Vec::new(), Vec::new()];
    for _ in 0..400 {
        for (&(wine, mdg), column) in SHAPES.iter().zip(&mut builds) {
            let start = Instant::now();
            black_box(MdmForceField::with_tables(params, wine, mdg, tables.clone()));
            column.push(start.elapsed());
        }
    }
    row("-", "build", builds.map(median));
    for (cells, reps) in [(2usize, 1500usize), (4, 200)] {
        let system = kicked(cells);
        for (kind, energy) in [("force", false), ("energy", true)] {
            let mut machines: Vec<MdmForceField> =
                SHAPES.iter().map(|&shape| machine(&system, shape, energy, &tables)).collect();
            let bits: Vec<Vec<[u64; 3]>> = machines
                .iter_mut()
                .map(|ff| ff.compute(&system).forces.iter().map(|f| [f.x, f.y, f.z].map(f64::to_bits)).collect())
                .collect();
            assert_eq!(bits[0], bits[1], "N = {}, {kind} step: the shapes' forces differ", system.len());
            // Alternate the shapes call by call, so drift in the host's
            // speed lands on both columns.
            let mut samples = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
            for _ in 0..reps {
                for (ff, column) in machines.iter_mut().zip(&mut samples) {
                    let start = Instant::now();
                    black_box(ff.compute(&system));
                    column.push(start.elapsed());
                }
            }
            row(&system.len().to_string(), kind, samples.map(median));
        }
    }
}
