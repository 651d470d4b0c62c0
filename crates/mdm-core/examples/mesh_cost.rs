//! What one mesh-Ewald call costs: the median wall of
//! `PswfRecip::compute` and the medians of its stencil, transform and
//! gather spans, and what building the engine costs — the median wall of
//! `PswfRecip::new` (window tables, window transform, influence
//! function) — for the `pswf` engine at `mesh_pswf_4k`'s operating
//! point (r_cut 9 Å, s = 3.2, the paper's density) — N = 4,096 on its
//! default K = 128 mesh, N = 512 on its default K = 64 and on K = 32 —
//! at 1 and 2 threads.
//!
//! The engine names its spans `stencils`, `transform` (the plane pass
//! that spreads and runs the x/y transforms, and the pencil pass) and
//! `gather` (the inverse plane pass, which gathers from its ring of
//! planes as it goes). Trees that still wrote a potential grid ran the
//! inverse plane pass inside `transform`, so there the sum `transform` +
//! `gather` is the comparable figure. Older trees still spread in a
//! stage of its own and named the first two spans `spread` (stencils and
//! spread) and `fft`; the harness reads those when the new names are
//! absent, so the file runs unchanged on either side of those changes.
//!
//! Run with: `cargo run --release -p mdm-core --example mesh_cost`

use mdm_core::ewald::EwaldParams;
use mdm_core::lattice::{rocksalt_nacl_at_density, PAPER_DENSITY};
use mdm_core::pswf::PswfRecip;
use mdm_core::system::System;
use mdm_core::Vec3;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The benchmark's accuracy parameter and real-space cutoff.
const ACCURACY_S: f64 = 3.2;
const R_CUT: f64 = 9.0;

/// Rock salt at the paper's density, every ion pushed off its site by a
/// deterministic displacement of up to ~0.4 Å.
fn jittered(cells: usize) -> System {
    let mut s = rocksalt_nacl_at_density(cells, PAPER_DENSITY);
    for i in 0..s.len() {
        let t = i as f64;
        let d = Vec3::new((t * 0.731).sin(), (t * 1.377).cos(), (t * 2.113).sin());
        s.displace(i, d * 0.4);
    }
    s
}

/// Engine constructions timed per row.
const BUILDS: usize = 9;

/// The median wall of `PswfRecip::new` over [`BUILDS`] constructions,
/// then medians over `reps` warm calls: the call's wall, then its
/// stencil, transform and gather spans.
fn measure(system: &System, mesh: usize, reps: usize) -> [Duration; 5] {
    let l = system.simbox().l();
    let params =
        EwaldParams::from_alpha_accuracy(ACCURACY_S * l / R_CUT, ACCURACY_S, ACCURACY_S, l);
    let mut builds: Vec<Duration> = (0..BUILDS)
        .map(|_| {
            let start = Instant::now();
            black_box(PswfRecip::new(l, params.alpha, params.n_max, mesh, 6));
            start.elapsed()
        })
        .collect();
    builds.sort();
    let build = builds[BUILDS / 2];
    let mut pswf = PswfRecip::new(l, params.alpha, params.n_max, mesh, 6);
    let mut call = || {
        black_box(pswf.compute(system.simbox(), system.positions(), system.charges()));
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
        let span = |names: &[&str]| {
            names
                .iter()
                .find_map(|name| profile.spans.get(&format!("pswf.{name}")))
                .map_or(Duration::ZERO, |s| s.total)
        };
        let split = [
            wall,
            span(&["stencils", "spread"]),
            span(&["transform", "fft"]),
            span(&["gather"]),
        ];
        for (column, value) in samples.iter_mut().zip(split) {
            column.push(value);
        }
    }
    let [wall, stencils, transform, gather] = samples.map(|mut column| {
        column.sort();
        column[reps / 2]
    });
    [build, wall, stencils, transform, gather]
}

fn main() {
    // (rock-salt cells per side, mesh, calls per thread count)
    let cases = [(4, 32, 200), (4, 64, 100), (8, 128, 30)];
    println!("    N    K  threads  new (ms)  call (ms)  stencils  transform  gather (ms)");
    for (cells, mesh, reps) in cases {
        let system = jittered(cells);
        for threads in [1, 2] {
            let [build, wall, stencils, transform, gather] =
                rayon::with_num_threads(threads, || measure(&system, mesh, reps));
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            println!(
                "{:>5}  {mesh:>3}  {threads:>7}  {:>8.3}  {:>9.3}  {:>8.3}  {:>9.3}  {:>11.3}",
                system.len(),
                ms(build),
                ms(wall),
                ms(stencils),
                ms(transform),
                ms(gather)
            );
        }
    }
}
