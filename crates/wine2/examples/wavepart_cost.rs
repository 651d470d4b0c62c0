//! What one WINE-2 wavenumber call costs: the median wall of
//! `Wine2System::compute_wavepart_with_waves`, and the medians of its
//! `quantize`, `dft` and `idft` spans, at the size and Ewald parameters
//! of each benchmark workload that runs WINE-2 (`serve_small` N = 64,
//! `serve_long` N = 512, `faithful_8k` N = 8,000), at 1 and 2 threads,
//! on the workloads' 2 clusters and on the paper's 20
//! (`Wine2Config::default()`).
//!
//! Run with: `cargo run --release -p wine2 --example wavepart_cost`

use mdm_core::ewald::EwaldParams;
use mdm_core::kvectors::half_space_vectors;
use mdm_core::lattice::{rocksalt_nacl, rocksalt_nacl_at_density, NACL_LATTICE_A, PAPER_DENSITY};
use mdm_core::system::System;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wine2::{Wine2Config, Wine2System};

/// The accuracy parameter `s` of every workload (real and wave side).
const ACCURACY_S: f64 = 3.2;

/// Medians over `reps` warm calls: the call's wall, then its
/// `quantize`, `dft` and `idft` spans.
fn measure(system: &System, alpha: f64, clusters: usize, reps: usize) -> [Duration; 4] {
    let l = system.simbox().l();
    let params = EwaldParams::from_alpha_accuracy(alpha, ACCURACY_S, ACCURACY_S, l);
    let waves = half_space_vectors(params.n_max);
    let mut wine = Wine2System::new(Wine2Config { clusters });
    let mut call = || {
        let out = wine.compute_wavepart_with_waves(
            system.simbox(),
            system.positions(),
            system.charges(),
            alpha,
            &waves,
        );
        black_box(out.expect("the workload fits the boards"));
    };
    // The first call sizes every buffer the later ones reuse.
    call();
    let mut samples: [Vec<Duration>; 4] = Default::default();
    for _ in 0..reps {
        let _scope = mdm_profile::scope();
        let start = Instant::now();
        call();
        let wall = start.elapsed();
        let profile = mdm_profile::take();
        let span = |name: &str| profile.spans.get(name).map_or(Duration::ZERO, |s| s.total);
        let split = [wall, span("quantize"), span("dft"), span("idft")];
        for (column, value) in samples.iter_mut().zip(split) {
            column.push(value);
        }
    }
    samples.map(|mut column| {
        column.sort();
        column[reps / 2]
    })
}

fn main() {
    // α = 1.02·s·(cells per side of the cutoff grid): 3 for the serve
    // jobs (`MdmForceField::nacl_default`), 4 for `faithful_8k`.
    let (serve_alpha, faithful_alpha) = (1.02 * ACCURACY_S * 3.0, 1.02 * ACCURACY_S * 4.0);
    // (workload, system, α, calls per thread count)
    let cases = [
        ("serve_small", rocksalt_nacl(2, NACL_LATTICE_A), serve_alpha, 2000),
        ("serve_long", rocksalt_nacl(4, NACL_LATTICE_A), serve_alpha, 300),
        ("faithful_8k", rocksalt_nacl_at_density(10, PAPER_DENSITY), faithful_alpha, 30),
    ];
    println!("workload          N  clusters  threads  call (ms)  quantize  dft (ms)  idft (ms)");
    for (name, system, alpha, reps) in &cases {
        for (clusters, threads) in [(2, 1), (2, 2), (20, 1), (20, 2)] {
            let [wall, quantize, dft, idft] =
                rayon::with_num_threads(threads, || measure(system, *alpha, clusters, *reps));
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            println!(
                "{name:<11} {:>7}  {clusters:>8}  {threads:>7}  {:>9.3}  {:>8.3}  {:>8.3}  {:>9.3}",
                system.len(),
                ms(wall),
                ms(quantize),
                ms(dft),
                ms(idft)
            );
        }
    }
}
