//! The §4 parallel MD program: "We used 16 processes for real-space
//! part, and 8 processes for wavenumber-part."
//!
//! Rank layout in one world of `R + W` ranks:
//!
//! * ranks `0..R` — real-space processes. One [`CellList`] of the
//!   snapshot at `r_cut` is cut into `R` runs of whole cells in the
//!   list's own cell order ([`deal::cell_runs`]: each cut where the
//!   particle count reaches a multiple of `N/R`), so each rank owns one
//!   slice of the sorted order, at most `N/R` particles plus one cell's.
//!   Each runs the library real-space pass ([`real::real_space_of`],
//!   Coulomb + Tosi–Fumi) on its own particles; their partners are
//!   read from the shared snapshot, and the halo is the 27-cell
//!   neighbourhood of the rank's cells — one cell layer;
//! * ranks `R..R+W` — wavenumber processes. Each holds a contiguous
//!   `⌈N/W⌉` block of particles ([`deal::contiguous`]: "each of them
//!   has about N/8 particle positions"), runs the library DFT
//!   ([`recip::structure_factors`]) on it, **all-reduces** the
//!   structure factors across the wave group ("the
//!   library routine for force calculation is already parallelized
//!   with MPI"), and runs the library synthesis ([`recip::synthesise`])
//!   for the energy, the virial and its own block's IDFT forces;
//! * every rank ends the same way: one gather over the whole world
//!   sends its particles' indices and forces and its
//!   `[coulomb, short, virial]` terms to rank 0, which adds them up in
//!   rank order into the [`ForceResult`].
//!
//! The point of this module is agreement with the serial reference up
//! to floating-point reassociation, verified in tests.

use crate::mpi::{run_world, Comm};
use mdm_core::celllist::CellList;
use mdm_core::deal;
use mdm_core::ewald::real::{self, ShortRange};
use mdm_core::ewald::recip;
use mdm_core::ewald::{self_energy, EwaldParams};
use mdm_core::forcefield::ForceResult;
use mdm_core::kvectors::half_space_vectors;
use mdm_core::potentials::TosiFumi;
use mdm_core::system::System;
use mdm_core::vec3::Vec3;

/// Message tags.
mod tag {
    pub const SF_ALLREDUCE: u64 = 1;
    pub const FORCE_GATHER: u64 = 2;
    pub const TERM_GATHER: u64 = 3;
}

/// Configuration of the parallel run.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Real-space processes, each owning one run of whole cells.
    pub real_processes: usize,
    /// Wavenumber processes.
    pub wave_processes: usize,
}

impl ParallelConfig {
    /// The paper's configuration: 16 real-space processes (4 nodes × 4
    /// processes) + 8 wavenumber processes.
    pub fn paper() -> Self {
        Self {
            real_processes: 16,
            wave_processes: 8,
        }
    }
}

/// Compute the full NaCl force field (software kernels) with the
/// paper's process layout. Returns the same quantities as the serial
/// [`mdm_core::forcefield::EwaldTosiFumi`].
pub fn parallel_forces(
    system: &System,
    params: &EwaldParams,
    config: ParallelConfig,
) -> ForceResult {
    let n_real = config.real_processes;
    let n_wave = config.wave_processes;
    assert!(n_real >= 1 && n_wave >= 1);
    let world = n_real + n_wave;

    let simbox = system.simbox();
    let positions = system.positions();
    let charges = system.charges();
    let n = system.len();
    let waves = half_space_vectors(params.n_max);
    let tosi_fumi = TosiFumi::nacl();
    let short = ShortRange {
        potential: &tosi_fumi,
        types: system.types(),
    };
    let r_cut = params.r_cut.min(simbox.max_cutoff());
    let kappa = params.kappa(simbox.l());
    let cells = CellList::build(simbox, positions, r_cut);
    let runs = deal::cell_runs(&cells, n_real);

    let outputs: Vec<Option<ForceResult>> = run_world(world, |mut comm: Comm| {
        let rank = comm.rank();
        let (rows, terms) = if rank < n_real {
            // ---- real-space process ----
            let mine = &cells.sorted_order()[runs[rank].clone()];
            let sum = {
                let _real = mdm_profile::span(mdm_profile::phase::REAL);
                real::real_space_of(&cells, positions, charges, kappa, r_cut, Some(short), mine)
            };
            let rows = force_rows(mine.iter().map(|&i| i as usize), &sum.forces);
            (rows, [sum.coulomb, sum.short, sum.virial])
        } else {
            // ---- wavenumber process ----
            let w = rank - n_real;
            let block = deal::contiguous(n, n_wave, w);
            let (pos, q) = (&positions[block.clone()], &charges[block.clone()]);
            let partial = {
                let _wave = mdm_profile::span(mdm_profile::phase::WAVE);
                recip::structure_factors(simbox, pos, q, &waves)
            };
            let flat: Vec<f64> = partial.iter().flat_map(|&(s, c)| [s, c]).collect();
            let summed = {
                let _comm = mdm_profile::span(mdm_profile::phase::COMM);
                let _allreduce = mdm_profile::span("allreduce");
                comm.allreduce_sum(n_real..world, tag::SF_ALLREDUCE, &flat)
            };
            let sf: Vec<(f64, f64)> = summed.chunks_exact(2).map(|p| (p[0], p[1])).collect();
            let eval = {
                let _wave = mdm_profile::span(mdm_profile::phase::WAVE);
                recip::synthesise(simbox, pos, q, params.alpha, &waves, &sf)
            };
            // Every wave rank holds the whole energy and virial; the
            // wave-root reports them.
            let terms = if w == 0 {
                [eval.energy, 0.0, eval.virial]
            } else {
                [0.0; 3]
            };
            (force_rows(block, &eval.forces), terms)
        };
        // ---- every rank: one gather to rank 0 ----
        let _comm = mdm_profile::span(mdm_profile::phase::COMM);
        let _gather = mdm_profile::span("gather");
        let rows = comm.gather_to_root(0..world, tag::FORCE_GATHER, &rows);
        let terms = comm.gather_to_root(0..world, tag::TERM_GATHER, &terms);
        (rank == 0).then(|| assemble(n, &rows, &terms, kappa, charges))
    });

    outputs
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 produces the result")
}

/// One `[index, fx, fy, fz]` row per particle: what a rank gathers to
/// rank 0 beside its `[coulomb, short, virial]` terms.
fn force_rows(indices: impl Iterator<Item = usize>, forces: &[Vec3]) -> Vec<f64> {
    indices
        .zip(forces)
        .flat_map(|(i, f)| [i as f64, f.x, f.y, f.z])
        .collect()
}

/// Rank-0 assembly: add every gathered `[index, fx, fy, fz]` row into
/// its particle's force and every rank's `[coulomb, short, virial]`
/// into the totals, in rank order.
fn assemble(n: usize, rows: &[f64], terms: &[f64], kappa: f64, charges: &[f64]) -> ForceResult {
    let mut forces = vec![Vec3::ZERO; n];
    for row in rows.chunks_exact(4) {
        forces[row[0] as usize] += Vec3::new(row[1], row[2], row[3]);
    }
    let mut sum = [0.0; 3];
    for rank_terms in terms.chunks_exact(3) {
        for (total, term) in sum.iter_mut().zip(rank_terms) {
            *total += term;
        }
    }
    let [e_coulomb, short_range, virial] = sum;
    let coulomb = e_coulomb + self_energy(kappa, charges);
    ForceResult {
        potential: coulomb + short_range,
        coulomb,
        short_range,
        forces,
        virial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_core::forcefield::{EwaldTosiFumi, ForceField};
    use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};

    impl ParallelConfig {
        /// A small configuration: 2 real-space + 3 wavenumber ranks.
        fn small() -> Self {
            Self {
                real_processes: 2,
                wave_processes: 3,
            }
        }
    }

    fn perturbed() -> System {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.3, -0.2, 0.1));
        s.displace(9, Vec3::new(-0.1, 0.15, 0.25));
        s
    }

    fn params_for(l: f64) -> EwaldParams {
        // r_cut comfortably below L/2 for the 2-cell test box.
        EwaldParams::from_alpha_accuracy(7.0, 3.2, 3.2, l)
    }

    /// A 4-cell box (N = 512) whose `r_cut` leaves 3 cells per side, so
    /// the real ranks take the 27-cell path, not the coarse fallback.
    fn on_the_cell_path() -> (System, EwaldParams) {
        let mut s = rocksalt_nacl(4, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.3, -0.2, 0.1));
        s.displace(77, Vec3::new(-0.1, 0.15, 0.25));
        let l = s.simbox().l();
        let params = EwaldParams::from_alpha_accuracy(3.0 * 3.2 * 1.02, 3.2, 3.2, l);
        (s, params)
    }

    /// `|a − b| / |b|`.
    fn relative(a: f64, b: f64) -> f64 {
        ((a - b) / b).abs()
    }

    /// The 2-cell box (2 cells per side, the fallback path) and the
    /// 4-cell one (3 per side, the 27-cell path), each on the small and
    /// the paper layout.
    #[test]
    fn matches_serial_reference() {
        let (cell_path, cell_params) = on_the_cell_path();
        let cl = CellList::build(cell_path.simbox(), cell_path.positions(), cell_params.r_cut);
        assert!(cl.supports_cutoff(cell_params.r_cut));
        let coarse = perturbed();
        let coarse_params = params_for(coarse.simbox().l());
        for (s, params) in [(coarse, coarse_params), (cell_path, cell_params)] {
            let mut serial = EwaldTosiFumi::new(params, TosiFumi::nacl());
            let reference = serial.compute(&s);
            let scale = reference
                .forces
                .iter()
                .map(|f| f.norm())
                .fold(0.0f64, f64::max);
            let n = s.len();
            for config in [ParallelConfig::small(), ParallelConfig::paper()] {
                let parallel = parallel_forces(&s, &params, config);
                assert!(
                    relative(parallel.potential, reference.potential) < 1e-10,
                    "N = {n}, {config:?}: potential {} vs {}",
                    parallel.potential,
                    reference.potential
                );
                assert!(
                    relative(parallel.virial, reference.virial) < 1e-9,
                    "N = {n}, {config:?}: virial {} vs {}",
                    parallel.virial,
                    reference.virial
                );
                for (i, (p, r)) in parallel.forces.iter().zip(&reference.forces).enumerate() {
                    assert!(
                        (*p - *r).norm() / scale < 1e-10,
                        "N = {n}, {config:?}: particle {i}: {p:?} vs {r:?}"
                    );
                }
            }
        }
    }

    /// On the 4-cell box (27 cells, N = 512) the paper's 16 real ranks
    /// each own a particle, none more than N/16 plus the largest cell's
    /// occupancy, and every particle is owned exactly once.
    #[test]
    fn real_ranks_share_the_particles_fairly() {
        let (s, params) = on_the_cell_path();
        let cells = CellList::build(s.simbox(), s.positions(), params.r_cut);
        let (n, ranks) = (s.len(), ParallelConfig::paper().real_processes);
        let largest = (0..cells.n_cells()).map(|c| cells.particles_in(c).len()).max().unwrap();
        let mut seen = vec![0; n];
        for (rank, run) in deal::cell_runs(&cells, ranks).into_iter().enumerate() {
            let mine = &cells.sorted_order()[run];
            assert!(!mine.is_empty(), "rank {rank} owns no particle");
            assert!(mine.len() * ranks <= n + largest * ranks, "rank {rank} owns {}", mine.len());
            for &i in mine {
                seen[i as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&k| k == 1), "not a partition");
    }

    #[test]
    fn process_count_invariance() {
        let s = perturbed();
        let params = params_for(s.simbox().l());
        let a = parallel_forces(&s, &params, ParallelConfig::small());
        let b = parallel_forces(
            &s,
            &params,
            ParallelConfig {
                real_processes: 4,
                wave_processes: 5,
            },
        );
        for (fa, fb) in a.forces.iter().zip(&b.forces) {
            assert!((*fa - *fb).norm() < 1e-9);
        }
        assert!((a.potential - b.potential).abs() < 1e-9);
        let (va, vb) = (a.virial, b.virial);
        assert!(relative(va, vb) < 1e-9, "virial {va} vs {vb}");
    }

    #[test]
    fn paper_layout_runs() {
        let s = perturbed();
        let params = params_for(s.simbox().l());
        let _scope = mdm_profile::scope();
        parallel_forces(&s, &params, ParallelConfig::paper());
        let out = parallel_forces(&s, &params, ParallelConfig::paper());
        assert_eq!(out.forces.len(), s.len());
        assert!(out.potential.is_finite());
        // Every rank recorded into the scope of the thread that called
        // `run_world`, twice: the 16 real-space ranks open `real` once
        // per evaluation, the 8 wavenumber ranks `wave` twice (DFT,
        // IDFT), all 24 open a `comm` section for the gather, and the 8
        // wavenumber ranks one more for their all-reduce.
        let profile = mdm_profile::take();
        let calls = |path: &str| profile.spans[path].calls;
        assert_eq!((calls("real"), calls("wave")), (2 * 16, 2 * 2 * 8));
        assert_eq!((calls("comm"), calls("comm.gather")), (2 * (24 + 8), 2 * 24));
    }
}
