//! What one MDGRAPE-2 real-space call costs, and what its tiles stream:
//! the median wall of `Mdgrape2System::calc_passes_with_jstore` with the
//! four §4 tables (`P` = 4, force and potential mode) on 2 clusters, at
//! the particles per cell of each benchmark size — N = 64 (`serve_small`,
//! ≈ 2.4 a cell), 512 (`serve_long`, ≈ 19), 4,096 (33) and 8,000 (125,
//! `faithful_8k`) — at 1 and 2 threads; then the tiles and j-particles
//! one pass streams against one-home-cell tiles, and the median time to
//! build the tile plan.
//!
//! Positions are a rock-salt lattice with every ion displaced by up to
//! ±1 Å a component (a fixed seed), so cells fill unevenly, as in a melt.
//!
//! Run with: `cargo run --release -p mdgrape2 --example tile_cost`

use mdgrape2::chip::AtomCoefficients;
use mdgrape2::pipeline::PipelineMode;
use mdgrape2::system::TablePass;
use mdgrape2::{GFunction, JStore, Mdgrape2Config, Mdgrape2System, TilePlan};
use mdm_core::lattice::{rocksalt_nacl, rocksalt_nacl_at_density, NACL_LATTICE_A, PAPER_DENSITY};
use mdm_core::system::System;
use mdm_core::vec3::Vec3;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Tiles hold this many i-particles.
const LANES: usize = 16;

/// The lattice, each ion displaced by up to ±1 Å a component.
fn melt(mut system: System) -> System {
    let mut rng = ChaCha8Rng::seed_from_u64(28);
    let mut jitter = || 2.0 * rng.gen::<f64>() - 1.0;
    system.displace_all(|_| Vec3::new(jitter(), jitter(), jitter()));
    system
}

/// Two-species coefficient RAMs for the four force or energy tables,
/// with the magnitudes of the NaCl force field at `κ = alpha / l`.
fn coefficients(kappa: f64, energy: bool) -> [AtomCoefficients; 4] {
    let charge = [1.0, -1.0];
    let matrix = |f: &dyn Fn(usize, usize) -> f64| -> Vec<Vec<f64>> {
        (0..2).map(|i| (0..2).map(|j| f(i, j)).collect()).collect()
    };
    let coulomb = 14.4 * if energy { kappa } else { kappa.powi(3) };
    let rho = 0.317;
    let short = |scale: f64| if energy { scale } else { scale * 6.0 };
    [
        AtomCoefficients::new(
            &matrix(&|_, _| kappa * kappa),
            &matrix(&|i, j| coulomb * charge[i] * charge[j]),
        ),
        AtomCoefficients::new(
            &matrix(&|_, _| 1.0 / (rho * rho)),
            &matrix(&|i, j| 0.2 + 0.1 * (i + j) as f64),
        ),
        AtomCoefficients::new(
            &matrix(&|_, _| 1.0),
            &matrix(&|i, j| -short(1.7 + 10.0 * (i * j) as f64)),
        ),
        AtomCoefficients::new(
            &matrix(&|_, _| 1.0),
            &matrix(&|i, j| -short(2.0 + 20.0 * (i * j) as f64)),
        ),
    ]
}

/// Median wall of one four-pass call in `mode`, over `reps` warm calls.
fn measure(
    system: &System,
    jstore: &JStore,
    kappa: f64,
    mode: PipelineMode,
    reps: usize,
) -> Duration {
    let energy = mode == PipelineMode::Potential;
    let kernels = if energy {
        [
            GFunction::CoulombRealEnergy,
            GFunction::BornMayerEnergy,
            GFunction::Dispersion6Energy,
            GFunction::Dispersion8Energy,
        ]
    } else {
        [
            GFunction::CoulombRealForce,
            GFunction::BornMayerForce,
            GFunction::Dispersion6Force,
            GFunction::Dispersion8Force,
        ]
    };
    let tables = kernels.map(|g| g.build_evaluator().expect("the §4 tables fit"));
    let ram = coefficients(kappa, energy);
    let passes: [TablePass<'_>; 4] = std::array::from_fn(|p| TablePass {
        table: &tables[p],
        coefficients: &ram[p],
    });
    let mut mdg = Mdgrape2System::new(
        Mdgrape2Config { clusters: 2 },
        tables[0].clone(),
        ram[0].clone(),
    );
    let mut call = || {
        let out =
            mdg.calc_passes_with_jstore(mode, &passes, system.positions(), system.types(), jstore);
        black_box(out.expect("the j-store fits the boards"));
    };
    // The first call sizes every buffer the later ones reuse.
    call();
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            call();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[reps / 2]
}

/// What one pass streams with one-home-cell tiles: every cell's
/// `⌈len / 16⌉` tiles each stream its 27-cell block.
fn per_cell_streamed(jstore: &JStore) -> (usize, u64) {
    let len = |c: usize| jstore.cell_range(c).len();
    (0..jstore.n_cells()).fold((0, 0), |(tiles, streamed), c| {
        let block: usize = jstore
            .neighbors27(c)
            .iter()
            .map(|&(nc, _)| len(nc as usize))
            .sum();
        let cell_tiles = len(c).div_ceil(LANES);
        (tiles + cell_tiles, streamed + (cell_tiles * block) as u64)
    })
}

/// Median time to build the plan, over `reps` builds.
fn plan_build(jstore: &JStore, reps: usize) -> Duration {
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(TilePlan::new(jstore));
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[reps / 2]
}

fn main() {
    // (name, system, cells per side, calls per measurement)
    let cases = [
        ("serve_small", rocksalt_nacl(2, NACL_LATTICE_A), 3, 2000),
        ("serve_long", rocksalt_nacl(4, NACL_LATTICE_A), 3, 300),
        ("33 a cell", rocksalt_nacl(8, NACL_LATTICE_A), 5, 20),
        (
            "faithful_8k",
            rocksalt_nacl_at_density(10, PAPER_DENSITY),
            4,
            10,
        ),
    ];
    println!("case            N  threads  force (ms)  potential (ms)");
    let mut plans = Vec::new();
    for (name, system, cells, reps) in cases {
        let system = melt(system);
        let l = system.simbox().l();
        // Cells a little over `l / cells`, as `r_cut` sizes them.
        let jstore = JStore::build(
            system.simbox(),
            system.positions(),
            system.types(),
            l / (cells as f64 + 0.01),
        );
        assert_eq!(jstore.cells().cells_per_side(), cells);
        let kappa = 3.2 * 1.02 * cells as f64 / l;
        for threads in [1, 2] {
            let [force, potential] = [PipelineMode::Force, PipelineMode::Potential].map(|mode| {
                rayon::with_num_threads(threads, || measure(&system, &jstore, kappa, mode, reps))
            });
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            println!(
                "{name:<11} {:>5}  {threads:>7}  {:>10.3}  {:>14.3}",
                system.len(),
                ms(force),
                ms(potential)
            );
        }
        plans.push((name, system.len(), jstore));
    }
    println!();
    println!("case            N  per cell  tiles (one cell → plan)  j streamed / pass            plan build (µs)");
    for (name, n, jstore) in &plans {
        let plan = TilePlan::new(jstore);
        let (cell_tiles, cell_streamed) = per_cell_streamed(jstore);
        let build = plan_build(jstore, 200);
        println!(
            "{name:<11} {n:>5}  {:>8.1}  {cell_tiles:>6} → {:<6}          {cell_streamed:>7} → {:<7} (×{:.2})  {:>14.1}",
            jstore.mean_cell_occupancy(),
            plan.tiles(),
            plan.streamed(),
            plan.streamed() as f64 / cell_streamed as f64,
            build.as_secs_f64() * 1e6
        );
    }
}
