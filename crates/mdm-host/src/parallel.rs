//! The §4 parallel MD program: "We used 16 processes for real-space
//! part, and 8 processes for wavenumber-part."
//!
//! Rank layout in one world of `R + W` ranks:
//!
//! * ranks `0..R` — real-space processes. Each owns a spatial domain,
//!   receives its halo (here read directly from the shared snapshot —
//!   the communication pattern is exercised by the force gather), and
//!   computes the real-space Coulomb + Tosi–Fumi forces for its
//!   particles;
//! * ranks `R..R+W` — wavenumber processes. Each holds an `N/W` block
//!   of particles ("each of them has about N/8 particle positions"),
//!   computes partial structure factors, **all-reduces** them across
//!   the wave group ("the library routine for force calculation is
//!   already parallelized with MPI"), and synthesises the wavenumber
//!   forces for its own block;
//! * rank 0 gathers everything and assembles the [`ForceResult`].
//!
//! The point of this module is bit-level agreement with the serial
//! reference (up to floating-point reassociation), verified in tests.

use crate::domain::CartesianDecomposition;
use crate::mpi::{run_world, Comm};
use mdm_core::ewald::real::{particle_sum, ShortRange};
use mdm_core::ewald::recip::spectral_coefficient;
use mdm_core::ewald::{self_energy, EwaldParams};
use mdm_core::forcefield::ForceResult;
use mdm_core::kvectors::half_space_vectors;
use mdm_core::potentials::TosiFumi;
use mdm_core::system::System;
use mdm_core::units::COULOMB_EV_A;
use mdm_core::vec3::Vec3;

/// Message tags.
mod tag {
    pub const SC_ALLREDUCE: u64 = 1;
    pub const FORCE_GATHER: u64 = 2;
    pub const INDEX_GATHER: u64 = 3;
    pub const ENERGY: u64 = 4;
}

/// Configuration of the parallel run.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Real-space domain grid (product = number of real processes).
    pub real_dims: [usize; 3],
    /// Wavenumber processes.
    pub wave_processes: usize,
}

impl ParallelConfig {
    /// The paper's configuration: 16 real-space + 8 wavenumber
    /// processes.
    pub fn paper() -> Self {
        Self {
            real_dims: [4, 2, 2],
            wave_processes: 8,
        }
    }

    /// A small configuration for tests.
    pub fn small() -> Self {
        Self {
            real_dims: [2, 1, 1],
            wave_processes: 3,
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
    let n_real = config.real_dims.iter().product::<usize>();
    let n_wave = config.wave_processes;
    assert!(n_real >= 1 && n_wave >= 1);
    let world = n_real + n_wave;

    let simbox = system.simbox();
    let positions = system.positions();
    let charges = system.charges();
    let types = system.types();
    let n = system.len();
    let decomp = CartesianDecomposition::new(simbox, config.real_dims);
    let owned = decomp.assign(positions);
    let waves = half_space_vectors(params.n_max);
    let short = TosiFumi::nacl();
    let r_cut = params.r_cut.min(simbox.max_cutoff());
    let kappa = params.kappa(simbox.l());

    let outputs: Vec<Option<ForceResult>> = run_world(world, |mut comm: Comm| {
        let rank = comm.rank();
        if rank < n_real {
            // ---- real-space process ----
            let mine = &owned[rank];
            let halo = {
                let _comm = mdm_profile::span(mdm_profile::phase::COMM);
                let _halo = mdm_profile::span("halo");
                decomp.halo(rank, positions, r_cut)
            };
            // Local index space: owned then halo (canonical positions;
            // image resolution happens per pair via minimum image).
            let mut local_pos: Vec<Vec3> =
                mine.iter().map(|&i| positions[i as usize]).collect();
            let mut local_q: Vec<f64> = mine.iter().map(|&i| charges[i as usize]).collect();
            let mut local_t: Vec<u8> = mine.iter().map(|&i| types[i as usize]).collect();
            for (j, wrapped) in &halo {
                local_pos.push(*wrapped);
                local_q.push(charges[*j as usize]);
                local_t.push(types[*j as usize]);
            }
            let n_own = mine.len();
            // Ordered pairs (i owned, any j), half-weighted energy. An
            // all-pairs scan over owned+halo is exact; domains are small.
            let real_span = mdm_profile::span(mdm_profile::phase::REAL);
            let local_short = ShortRange {
                potential: &short,
                types: &local_t,
            };
            let mut forces = Vec::with_capacity(n_own);
            let (mut e_real, mut e_short, mut virial) = (0.0, 0.0, 0.0);
            for a in 0..n_own {
                let candidates = (0..local_pos.len())
                    .filter(|&b| b != a)
                    .map(|b| (b, simbox.min_image(local_pos[a], local_pos[b])));
                let sum = particle_sum(kappa, r_cut, a, &local_q, Some(local_short), candidates);
                forces.push(sum.force);
                e_real += sum.coulomb;
                e_short += sum.short;
                virial += sum.virial;
            }
            drop(real_span);
            // Gather to rank 0 — within the real-space sub-group only
            // (rank 0 must not wait on the wave ranks for these tags).
            let _comm = mdm_profile::span(mdm_profile::phase::COMM);
            let _gather = mdm_profile::span("gather");
            let idx: Vec<f64> = mine.iter().map(|&i| i as f64).collect();
            let flat: Vec<f64> = forces
                .iter()
                .flat_map(|f| [f.x, f.y, f.z])
                .collect();
            let all_idx = real_group_gather(&mut comm, n_real, tag::INDEX_GATHER, &idx);
            let all_forces = real_group_gather(&mut comm, n_real, tag::FORCE_GATHER, &flat);
            let energies =
                real_group_gather(&mut comm, n_real, tag::ENERGY, &[e_real, e_short, virial]);
            if rank == 0 {
                Some(assemble(
                    n, &mut comm, all_idx, all_forces, energies, n_real, n_wave, kappa, charges,
                ))
            } else {
                None
            }
        } else {
            // ---- wavenumber process ----
            let w = rank - n_real;
            let block = n.div_ceil(n_wave);
            let lo = (w * block).min(n);
            let hi = ((w + 1) * block).min(n);
            let tau = std::f64::consts::TAU;
            let frac: Vec<Vec3> = positions[lo..hi]
                .iter()
                .map(|&r| simbox.fractional(r))
                .collect();
            // Partial DFT over my block, for every wave.
            let dft_span = mdm_profile::span(mdm_profile::phase::WAVE);
            let mut partial = Vec::with_capacity(waves.len() * 2);
            for k in &waves {
                let (mut s_sum, mut c_sum) = (0.0f64, 0.0f64);
                for (f, &q) in frac.iter().zip(&charges[lo..hi]) {
                    let theta =
                        tau * (k.n[0] as f64 * f.x + k.n[1] as f64 * f.y + k.n[2] as f64 * f.z);
                    let (s, c) = theta.sin_cos();
                    s_sum += q * s;
                    c_sum += q * c;
                }
                partial.push(s_sum);
                partial.push(c_sum);
            }
            drop(dft_span);
            // All-reduce within the wave group: emulate a
            // sub-communicator by staging through the wave-root
            // (rank n_real), then forwarding.
            let sc = {
                let _comm = mdm_profile::span(mdm_profile::phase::COMM);
                let _allreduce = mdm_profile::span("allreduce");
                wave_group_allreduce(&mut comm, n_real, n_wave, &partial)
            };
            // Energy (computed redundantly on every wave rank; the
            // wave-root reports it).
            let l = simbox.l();
            let mut e_recip = 0.0;
            for (k, sc_pair) in waves.iter().zip(sc.chunks_exact(2)) {
                let a = spectral_coefficient(params.alpha, k.n_sq as f64);
                e_recip += COULOMB_EV_A / (std::f64::consts::PI * l) * a
                    * (sc_pair[0] * sc_pair[0] + sc_pair[1] * sc_pair[1]);
            }
            // IDFT for my block.
            let idft_span = mdm_profile::span(mdm_profile::phase::WAVE);
            let prefactor = 4.0 * COULOMB_EV_A / (l * l);
            let mut flat = Vec::with_capacity((hi - lo) * 3);
            for (f, &q) in frac.iter().zip(&charges[lo..hi]) {
                let mut force = Vec3::ZERO;
                for (k, sc_pair) in waves.iter().zip(sc.chunks_exact(2)) {
                    let a = spectral_coefficient(params.alpha, k.n_sq as f64);
                    let theta =
                        tau * (k.n[0] as f64 * f.x + k.n[1] as f64 * f.y + k.n[2] as f64 * f.z);
                    let (s, c) = theta.sin_cos();
                    let nvec = Vec3::new(k.n[0] as f64, k.n[1] as f64, k.n[2] as f64);
                    force += nvec * (a * (sc_pair[1] * s - sc_pair[0] * c));
                }
                force *= prefactor * q;
                flat.extend([force.x, force.y, force.z]);
            }
            drop(idft_span);
            // Ship block forces (+ energy from the wave-root) to rank 0.
            let _comm = mdm_profile::span(mdm_profile::phase::COMM);
            let _gather = mdm_profile::span("gather");
            comm.send(0, tag::FORCE_GATHER + 100 + w as u64, &flat);
            if w == 0 {
                comm.send(0, tag::ENERGY + 100, &[e_recip]);
            }
            None
        }
    });

    outputs
        .into_iter()
        .flatten()
        .next()
        .expect("rank 0 produces the result")
}

/// Gather within the real-space sub-group `[0, n_real)`: rank 0 gets
/// the concatenation in rank order, others their own data back.
fn real_group_gather(comm: &mut Comm, n_real: usize, tag: u64, data: &[f64]) -> Vec<f64> {
    if comm.rank() == 0 {
        let mut all = data.to_vec();
        for from in 1..n_real {
            all.extend(comm.recv(from, tag));
        }
        all
    } else {
        comm.send(0, tag, data);
        Vec::new()
    }
}

/// All-reduce within the wave sub-group `[n_real, n_real + n_wave)`.
fn wave_group_allreduce(comm: &mut Comm, n_real: usize, n_wave: usize, data: &[f64]) -> Vec<f64> {
    let root = n_real;
    if comm.rank() == root {
        let mut acc = data.to_vec();
        for peer in 1..n_wave {
            let part = comm.recv(root + peer, tag::SC_ALLREDUCE);
            for (a, p) in acc.iter_mut().zip(&part) {
                *a += p;
            }
        }
        for peer in 1..n_wave {
            comm.send(root + peer, tag::SC_ALLREDUCE, &acc);
        }
        acc
    } else {
        comm.send(root, tag::SC_ALLREDUCE, data);
        comm.recv(root, tag::SC_ALLREDUCE)
    }
}

/// Rank-0 assembly: scatter gathered real forces back to original
/// indices, add the wave blocks, total the energies.
#[allow(clippy::too_many_arguments)]
fn assemble(
    n: usize,
    comm: &mut Comm,
    all_idx: Vec<f64>,
    all_forces: Vec<f64>,
    energies: Vec<f64>,
    n_real: usize,
    n_wave: usize,
    kappa: f64,
    charges: &[f64],
) -> ForceResult {
    let mut forces = vec![Vec3::ZERO; n];
    for (k, &idx) in all_idx.iter().enumerate() {
        forces[idx as usize] = Vec3::new(
            all_forces[3 * k],
            all_forces[3 * k + 1],
            all_forces[3 * k + 2],
        );
    }
    let (mut e_real, mut e_short, mut virial) = (0.0, 0.0, 0.0);
    for chunk in energies.chunks_exact(3) {
        e_real += chunk[0];
        e_short += chunk[1];
        virial += chunk[2];
    }
    // Wave blocks arrive tagged per wave rank.
    let block = n.div_ceil(n_wave);
    for w in 0..n_wave {
        let lo = (w * block).min(n);
        let flat = comm.recv(n_real + w, tag::FORCE_GATHER + 100 + w as u64);
        for (k, f) in flat.chunks_exact(3).enumerate() {
            forces[lo + k] += Vec3::new(f[0], f[1], f[2]);
        }
    }
    let e_recip = comm.recv(n_real, tag::ENERGY + 100)[0];
    let coulomb = e_real + e_recip + self_energy(kappa, charges);
    ForceResult {
        potential: coulomb + e_short,
        coulomb,
        short_range: e_short,
        forces,
        virial,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_core::forcefield::{EwaldTosiFumi, ForceField};
    use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};

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

    #[test]
    fn matches_serial_reference() {
        let s = perturbed();
        let params = params_for(s.simbox().l());
        let parallel = parallel_forces(&s, &params, ParallelConfig::small());
        let mut serial = EwaldTosiFumi::new(params, TosiFumi::nacl());
        let reference = serial.compute(&s);
        assert!(
            ((parallel.potential - reference.potential) / reference.potential).abs() < 1e-10,
            "{} vs {}",
            parallel.potential,
            reference.potential
        );
        let scale = reference
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(0.0f64, f64::max);
        for (i, (p, r)) in parallel.forces.iter().zip(&reference.forces).enumerate() {
            assert!(
                (*p - *r).norm() / scale < 1e-10,
                "particle {i}: {p:?} vs {r:?}"
            );
        }
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
                real_dims: [2, 2, 1],
                wave_processes: 5,
            },
        );
        for (fa, fb) in a.forces.iter().zip(&b.forces) {
            assert!((*fa - *fb).norm() < 1e-9);
        }
        assert!((a.potential - b.potential).abs() < 1e-9);
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
        // IDFT), and all 24 open two `comm` sections, the last a gather.
        let profile = mdm_profile::take();
        let calls = |path: &str| profile.spans[path].calls;
        assert_eq!((calls("real"), calls("wave")), (2 * 16, 2 * 2 * 8));
        assert_eq!((calls("comm"), calls("comm.gather")), (2 * 2 * 24, 2 * 24));
    }
}
