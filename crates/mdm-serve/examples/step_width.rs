//! How wide a served step should be: the median wall of one MD step
//! of `MdmForceField` at one thread and at the host's full width, for
//! the serve job sizes `cells` 2–5 (N = 64 to 1,000) at potential
//! interval 1. The daemon steps a job on one core when a second thread
//! buys less than a second board stepping beside it
//! (`NARROW_MAX_CELLS` in `server.rs` is read off this table).
//!
//! ```text
//! cargo run --release -p mdm-serve --example step_width
//! ```
//!
//! One and full width alternate in blocks of five steps on the same
//! simulation, so a drift in the host's speed lands on both columns.
//! Public API and std only: copy the file into another checkout to
//! compare the two.

use mdm_core::integrate::Simulation;
use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm_core::velocities::maxwell_boltzmann;
use mdm_host::driver::MdmForceField;
use std::time::{Duration, Instant};

const BLOCK: usize = 5;
const MIN_BLOCKS: usize = 10;
const BUDGET: Duration = Duration::from_millis(1500);

fn median(mut walls: Vec<f64>) -> f64 {
    walls.sort_by(f64::total_cmp);
    walls[walls.len() / 2]
}

fn main() {
    let full = rayon::current_num_threads();
    println!("median step wall at potential interval 1, 1 thread vs {full}");
    let (wide_head, ratio_head) = (format!("{full}t (ms)"), format!("1t / {full}t"));
    println!(
        "{:>6} {:>7} {:>10} {:>10} {:>8}",
        "cells", "N", "1t (ms)", wide_head, ratio_head
    );
    for cells in 2..=5usize {
        let mut system = rocksalt_nacl(cells, NACL_LATTICE_A);
        maxwell_boltzmann(&mut system, 1200.0, 7);
        let n = system.len();
        let mut ff = MdmForceField::nacl_default(system.simbox().l()).expect("tables");
        ff.set_potential_interval(1);
        let mut sim = Simulation::new(system, ff, 2.0);
        sim.run(BLOCK);
        let (mut narrow, mut wide) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut blocks = 0;
        while blocks < MIN_BLOCKS || start.elapsed() < BUDGET {
            for (threads, walls) in [(1, &mut narrow), (full, &mut wide)] {
                rayon::with_num_threads(threads, || {
                    for _ in 0..BLOCK {
                        let t = Instant::now();
                        sim.step();
                        walls.push(t.elapsed().as_secs_f64());
                    }
                });
            }
            blocks += 1;
        }
        let (one, all) = (median(narrow), median(wide));
        println!(
            "{cells:>6} {n:>7} {:>10.3} {:>10.3} {:>8.2}",
            one * 1e3,
            all * 1e3,
            one / all
        );
    }
}
