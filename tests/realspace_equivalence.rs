//! Equivalence guarantees of the real-space fast paths, pinned at the
//! integration level: the batched SoA pipeline against the per-pair
//! reference (bitwise), the Newton's-third-law software mode of
//! `Mdgrape2System` against the driver's hardware-faithful streaming
//! pattern (f64 tolerance), and the driver's incremental j-store
//! refresh against a scratch build every step (bitwise trajectories),
//! each at both CI thread counts.

use mdgrape2::board::{IBatch, IParticle, MdgBoard};
use mdgrape2::chip::AtomCoefficients;
use mdgrape2::jstore::JStore;
use mdgrape2::pipeline::PipelineMode;
use mdgrape2::system::{MdgPassResult, Mdgrape2Config, Mdgrape2System, RealSpaceMode, TablePass};
use mdgrape2::tables::GFunction;
use mdgrape2::timing::{board_bill, BoardBill, MdgCounters};
use mdgrape2::TilePlan;
use mdm::core::boxsim::SimBox;
use mdm::core::forcefield::{ForceField, ForceResult};
use mdm::core::integrate::Simulation;
use mdm::core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm::core::system::System;
use mdm::core::vec3::Vec3;
use mdm::core::velocities::maxwell_boltzmann;
use mdm::core::ewald::EwaldParams;
use mdm::core::longrange::LongRangeBackend;
use mdm::core::potentials::TosiFumi;
use mdm::core::units::COULOMB_EV_A;
use mdm::funceval::FunctionEvaluator;
use mdm::host::driver::{MdmForceField, Wine2Backend};
use rayon::with_num_threads;

/// A short hot run so every per-particle force is non-trivial (perfect
/// lattice forces cancel by symmetry).
fn molten_snapshot(cells: usize, temp: f64, seed: u64) -> System {
    let mut system = rocksalt_nacl(cells, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, temp, seed);
    let ff = MdmForceField::nacl_default(system.simbox().l()).unwrap();
    let mut sim = Simulation::new(system, ff, 2.0);
    sim.run(3);
    sim.system().clone()
}

/// A configuration engineered to hit every function-evaluator argument
/// class: generic mid-range pairs, a near-coincident pair whose `r²`
/// falls below the table's lower segment boundary, and well-separated
/// particles whose block pairs exceed the upper boundary.
fn stress_config() -> (SimBox, Vec<Vec3>, Vec<u8>) {
    let l = 24.0;
    let sb = SimBox::cubic(l);
    let mut pos = Vec::new();
    // Generic cloud (deterministic low-discrepancy fill).
    for i in 0..96u32 {
        let t = i as f64;
        pos.push(Vec3::new(
            (t * 0.754_877_666).fract() * l,
            (t * 0.569_840_291).fract() * l,
            (t * 0.362_912_223).fract() * l,
        ));
    }
    // Near-coincident pair: r ≈ 1e-3 Å, r² far below any table start.
    pos.push(Vec3::new(3.0, 3.0, 3.0));
    pos.push(Vec3::new(3.0 + 1e-3, 3.0, 3.0));
    // An isolated corner particle: its same-cell pairs are empty and its
    // far diagonal pairs land beyond the table's upper range.
    pos.push(Vec3::new(l - 0.1, l - 0.1, l - 0.1));
    let ty = (0..pos.len()).map(|i| (i % 2) as u8).collect();
    (sb, pos, ty)
}

fn i_particles(pos: &[Vec3], ty: &[u8], js: &JStore) -> Vec<IParticle> {
    pos.iter()
        .enumerate()
        .map(|(i, p)| IParticle {
            pos: [p.x as f32, p.y as f32, p.z as f32],
            ty: ty[i],
            cell: js.cell_of(i) as u32,
            original: i as u32,
        })
        .collect()
}

/// The batched j-cell pipeline must reproduce the per-pair reference
/// bit for bit — for all four production force kernels, both pipeline
/// modes, and inputs that exercise the evaluator's out-of-range
/// classes (arguments below the first and beyond the last table
/// segment), at both CI thread counts.
#[test]
fn batched_block2_bitwise_matches_per_pair_including_out_of_range() {
    let (sb, pos, ty) = stress_config();
    let js = JStore::build(sb, &pos, &ty, 6.0);
    let coeffs = AtomCoefficients::new(
        &[vec![1.0, 0.8], vec![0.8, 0.6]],
        &[vec![-2.0, -1.5], vec![-1.5, -1.0]],
    );
    for threads in [1usize, 4] {
        with_num_threads(threads, || {
            for g in [
                GFunction::CoulombRealForce,
                GFunction::BornMayerForce,
                GFunction::Dispersion6Force,
                GFunction::Dispersion8Force,
            ] {
                let mut batched_board =
                    MdgBoard::new(g.build_evaluator().unwrap(), coeffs.clone());
                let mut per_pair_board =
                    MdgBoard::new(g.build_evaluator().unwrap(), coeffs.clone());
                for mode in [PipelineMode::Force, PipelineMode::Potential] {
                    let batch = IBatch::stage(&pos, &ty, &js);
                    let batched =
                        batched_board.calc_block2(mode, &batch, 0..batch.len(), &js);
                    let reference = per_pair_board.calc_block2_per_pair(
                        mode,
                        &i_particles(&pos, &ty, &js),
                        &js,
                    );
                    for (i, (a, b)) in batched.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            a.acc, b.acc,
                            "{g:?} {mode:?} particle {i} ({threads} threads)"
                        );
                        assert_eq!(a.ops, b.ops, "{g:?} {mode:?} particle {i} op count");
                    }
                }
            }
        });
    }
}

/// The Newton's-third-law software mode evaluates each pair's f32
/// kernel once and applies ±f⃗, while the hardware-faithful pattern
/// evaluates both directions — whose f32 roundings differ (r⃗ seen from
/// i vs from j through the periodic shift). Agreement is therefore at
/// f32 pair precision accumulated in f64 (~10⁻⁷ relative per pair), not
/// bitwise; the f64 accumulation itself adds nothing beyond that. The
/// N3L side is the four-round reference with its `Mdgrape2System` set
/// to `SoftwareN3l`; the faithful side is the driver itself.
#[test]
fn n3l_fast_path_forces_agree_to_pair_precision() {
    let system = molten_snapshot(3, 1500.0, 17);
    let l = system.simbox().l();

    for threads in [1usize, 4] {
        let (faithful, n3l) = with_num_threads(threads, || {
            let mut ff = MdmForceField::nacl_default(l).unwrap();
            let mut reference = FourPassReference::new(*ff.params());
            reference.mdg.set_real_space_mode(RealSpaceMode::SoftwareN3l);
            (ff.compute(&system), reference.compute(&system))
        });
        let scale = faithful
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(0.0f64, f64::max);
        assert!(scale > 0.0, "degenerate snapshot: all forces vanish");
        assert_ne!(faithful.forces, n3l.forces, "the N3L mode did not run");
        for (i, (a, b)) in faithful.forces.iter().zip(&n3l.forces).enumerate() {
            let rel = (*a - *b).norm() / scale;
            assert!(
                rel < 1e-5,
                "particle {i}: rel {rel:.3e} ({threads} threads)"
            );
        }
        let pot_rel = ((faithful.potential - n3l.potential) / faithful.potential).abs();
        assert!(pot_rel < 1e-6, "potential rel {pot_rel:.3e}");
    }
}

/// Incremental j-store refresh vs a scratch build every step, over a
/// 100-step NaCl trajectory: the refresh path must leave no trace in
/// the physics — positions stay bitwise identical — at both CI thread
/// counts. The scratch side calls `forget_job` before every step, which
/// drops the kept j-store, so `compute` builds one from nothing. Hot
/// enough that particles cross cell boundaries and the refresh takes
/// its re-sort branch, not just the in-place one.
#[test]
fn incremental_jstore_trajectory_bitwise_matches_scratch_rebuild() {
    let run = |scratch: bool, threads: usize| -> Vec<Vec3> {
        with_num_threads(threads, || {
            let mut system = rocksalt_nacl(2, NACL_LATTICE_A);
            maxwell_boltzmann(&mut system, 1800.0, 7);
            let ff = MdmForceField::nacl_default(system.simbox().l()).unwrap();
            let mut sim = Simulation::new(system, ff, 2.0);
            for _ in 0..100 {
                if scratch {
                    sim.force_field_mut().forget_job();
                }
                sim.step();
            }
            sim.system().positions().to_vec()
        })
    };

    let scratch = run(true, 1);
    for threads in [1usize, 4] {
        let incremental = run(false, threads);
        assert_eq!(
            scratch, incremental,
            "incremental refresh changed the trajectory ({threads} threads)"
        );
    }
}

const FORCE_KERNELS: [GFunction; 4] = [
    GFunction::CoulombRealForce,
    GFunction::BornMayerForce,
    GFunction::Dispersion6Force,
    GFunction::Dispersion8Force,
];
const ENERGY_KERNELS: [GFunction; 4] = [
    GFunction::CoulombRealEnergy,
    GFunction::BornMayerEnergy,
    GFunction::Dispersion6Energy,
    GFunction::Dispersion8Energy,
];

fn evaluators(kernels: [GFunction; 4]) -> [FunctionEvaluator; 4] {
    kernels.map(|g| g.build_evaluator().unwrap())
}

fn kernels_for(mode: PipelineMode) -> [FunctionEvaluator; 4] {
    evaluators(match mode {
        PipelineMode::Force => FORCE_KERNELS,
        PipelineMode::Potential => ENERGY_KERNELS,
    })
}

/// Four different two-species coefficient sets, one per pass, so no two
/// passes can be mistaken for each other.
fn per_pass_coefficients() -> [AtomCoefficients; 4] {
    std::array::from_fn(|p| {
        let (a, b) = (0.35 + 0.2 * p as f64, -2.0 + 0.75 * p as f64);
        AtomCoefficients::new(
            &[vec![a, 0.8 * a], vec![0.8 * a, 0.6 * a]],
            &[vec![b, -0.75 * b], vec![-0.75 * b, 0.5 * b]],
        )
    })
}

/// `(name, box, positions, types, cell edge)`.
type SweepConfig = (&'static str, SimBox, Vec<Vec3>, Vec<u8>, f64);

/// The two configurations the fused sweep is pinned on: the molten
/// N = 512 snapshot at the driver's own cell size, and `stress_config`
/// with its out-of-range pairs.
fn fused_sweep_configs() -> Vec<SweepConfig> {
    let molten = molten_snapshot(4, 1500.0, 23);
    let r_cut = MdmForceField::nacl_default(molten.simbox().l())
        .unwrap()
        .params()
        .r_cut;
    let (sb, pos, ty) = stress_config();
    vec![
        (
            "molten",
            molten.simbox(),
            molten.positions().to_vec(),
            molten.types().to_vec(),
            r_cut,
        ),
        ("stress", sb, pos, ty, 6.0),
    ]
}

fn assert_pass_bits_eq(fused: &MdgPassResult, sequential: &MdgPassResult, what: &str) {
    assert_eq!(fused.counters, sequential.counters, "{what}: counters");
    assert_eq!(fused.values.len(), sequential.values.len(), "{what}");
    for (i, (a, b)) in fused.values.iter().zip(&sequential.values).enumerate() {
        assert_eq!(
            a.map(f64::to_bits),
            b.map(f64::to_bits),
            "{what}: particle {i}: {a:?} vs {b:?}"
        );
    }
}

/// One fused `P = 4` sweep must be indistinguishable from the four
/// `MR1SetTable` + `MR1calcvdw_block2` rounds it stands for: per-pass
/// values bit for bit and all four `MdgCounters`, in force and
/// potential mode, at 1 and 4 rayon threads.
#[test]
fn fused_four_pass_sweep_bitwise_matches_four_sequential_passes() {
    let coeffs = per_pass_coefficients();
    for (name, sb, pos, ty, min_cell) in fused_sweep_configs() {
        let js = JStore::build(sb, &pos, &ty, min_cell);
        for mode in [PipelineMode::Force, PipelineMode::Potential] {
            let tables = kernels_for(mode);
            let new_system = || {
                Mdgrape2System::new(
                    Mdgrape2Config { clusters: 2 },
                    tables[0].clone(),
                    coeffs[0].clone(),
                )
            };
            let sequential: Vec<MdgPassResult> = with_num_threads(1, || {
                let mut mdg = new_system();
                (0..4)
                    .map(|p| {
                        mdg.load_table(&tables[p]);
                        mdg.load_coefficients(&coeffs[p]);
                        mdg.calc_pass_with_jstore(mode, &pos, &ty, &js).unwrap()
                    })
                    .collect()
            });
            assert!(
                sequential[0].values != sequential[1].values,
                "{name} {mode:?}: degenerate passes"
            );
            for threads in [1usize, 4] {
                let fused = with_num_threads(threads, || {
                    let passes: [TablePass<'_>; 4] = std::array::from_fn(|p| TablePass {
                        table: &tables[p],
                        coefficients: &coeffs[p],
                    });
                    new_system()
                        .calc_passes_with_jstore(mode, &passes, &pos, &ty, &js)
                        .unwrap()
                });
                for (p, (f, s)) in fused.iter().zip(&sequential).enumerate() {
                    let what = format!("{name} {mode:?} pass {p} ({threads} threads)");
                    assert_pass_bits_eq(f, s, &what);
                }
            }
        }
    }
}

/// The system's sweep (sixteen i-particles to a tile, boards billed by
/// arithmetic) against the hierarchy doing the work itself: every board dealt its chunk of
/// original indices, accepting the j-store and running
/// `MdgBoard::calc_block2` one i-particle at a time. Values bit for bit
/// and all four `MdgCounters` fields read off those boards' own meters,
/// per pass, force and potential, 1 and 4 threads, on 1 / 2 / 3 clusters;
/// and each board's meters against its closed-form bill.
#[test]
fn system_sweep_matches_boards_running_calc_block2_on_their_chunks() {
    let coeffs = per_pass_coefficients();
    for (name, sb, pos, ty, min_cell) in fused_sweep_configs() {
        let js = JStore::build(sb, &pos, &ty, min_cell);
        let plan = TilePlan::new(&js);
        let batch = IBatch::stage(&pos, &ty, &js);
        for mode in [PipelineMode::Force, PipelineMode::Potential] {
            let tables = kernels_for(mode);
            for clusters in [1usize, 2, 3] {
                let n_boards = 2 * clusters;
                let per_board = pos.len().div_ceil(n_boards);
                let reference: Vec<MdgPassResult> = (0..4)
                    .map(|p| {
                        let mut values = Vec::new();
                        let boards: Vec<MdgBoard> = (0..n_boards)
                            .map(|b| {
                                let mut board = MdgBoard::new(tables[p].clone(), coeffs[p].clone());
                                let chunk = (b * per_board).min(pos.len())
                                    ..((b + 1) * per_board).min(pos.len());
                                // An idle board is not even sent the j-store.
                                if !chunk.is_empty() {
                                    board.accept_jstore(&js).unwrap();
                                    let accs = board.calc_block2(mode, &batch, chunk, &js);
                                    values.extend(accs.iter().map(|a| a.acc));
                                }
                                board
                            })
                            .collect();
                        for (b, board) in boards.iter().enumerate() {
                            let meters = BoardBill { pair_ops: board.ops(), bus_bytes: board.bus_bytes() };
                            assert_eq!(meters, board_bill(clusters, &js, &plan, b), "{name} pass {p} board {b}");
                        }
                        let counters = MdgCounters {
                            pair_ops: boards.iter().map(MdgBoard::ops).sum(),
                            cycles: boards.iter().map(|b| b.ops().div_ceil(8)).max().unwrap(),
                            bus_bytes_per_cluster: boards
                                .chunks(2)
                                .map(|c| c.iter().map(MdgBoard::bus_bytes).sum())
                                .max()
                                .unwrap(),
                            particles: pos.len() as u64,
                        };
                        MdgPassResult { values, counters }
                    })
                    .collect();
                for threads in [1usize, 4] {
                    let swept = with_num_threads(threads, || {
                        let passes: [TablePass<'_>; 4] = std::array::from_fn(|p| TablePass {
                            table: &tables[p],
                            coefficients: &coeffs[p],
                        });
                        Mdgrape2System::new(
                            Mdgrape2Config { clusters },
                            tables[0].clone(),
                            coeffs[0].clone(),
                        )
                        .calc_passes_with_jstore(mode, &passes, &pos, &ty, &js)
                        .unwrap()
                    });
                    for (p, (s, r)) in swept.iter().zip(&reference).enumerate() {
                        let what =
                            format!("{name} {mode:?} pass {p} on {clusters} clusters ({threads} threads)");
                        assert_pass_bits_eq(s, r, &what);
                    }
                }
            }
        }
    }
}

/// What `MdmForceField::compute` did before the fused sweep, rebuilt
/// from public single-pass calls only: per step a fresh j-store, then
/// four force rounds and four energy rounds of `load_table` +
/// `load_coefficients` + `calc_pass_with_jstore`, summed pass by pass,
/// plus the WINE-2 wavenumber part and the self-energy. (The virial is
/// a host-side f64 reduction the boards have no part in; it is left
/// out and not compared.)
struct FourPassReference {
    mdg: Mdgrape2System,
    wave: Wine2Backend,
    params: EwaldParams,
    short: TosiFumi,
    force_tables: [FunctionEvaluator; 4],
    energy_tables: [FunctionEvaluator; 4],
    mdg_counters: MdgCounters,
    coulomb_pair_ops: u64,
}

impl FourPassReference {
    fn new(params: EwaldParams) -> Self {
        let force_tables = evaluators(FORCE_KERNELS);
        Self {
            mdg: Mdgrape2System::new(
                Mdgrape2Config { clusters: 2 },
                force_tables[0].clone(),
                AtomCoefficients::uniform(1.0, 0.0),
            ),
            wave: Wine2Backend::new(&params, 2),
            params,
            short: TosiFumi::nacl(),
            force_tables,
            energy_tables: evaluators(ENERGY_KERNELS),
            mdg_counters: MdgCounters::default(),
            coulomb_pair_ops: 0,
        }
    }

    /// The NaCl `(aᵢⱼ, bᵢⱼ)` matrices of the four passes.
    fn coefficients(&self, system: &System, kappa: f64, energy: bool) -> [AtomCoefficients; 4] {
        let species = system.species();
        let rho = self.short.rho();
        let matrix = |f: &dyn Fn(usize, usize) -> f64| -> Vec<Vec<f64>> {
            (0..species.len())
                .map(|i| (0..species.len()).map(|j| f(i, j)).collect())
                .collect()
        };
        let qq = |i: usize, j: usize| species[i].charge * species[j].charge;
        let ab = |a: &dyn Fn(usize, usize) -> f64, b: &dyn Fn(usize, usize) -> f64| {
            AtomCoefficients::new(&matrix(a), &matrix(b))
        };
        [
            ab(&|_, _| kappa * kappa, &|i, j| {
                COULOMB_EV_A * qq(i, j) * if energy { kappa } else { kappa.powi(3) }
            }),
            ab(&|_, _| 1.0 / (rho * rho), &|i, j| {
                let prefactor = self.short.born_mayer_prefactor(i, j);
                if energy {
                    prefactor
                } else {
                    prefactor / (rho * rho)
                }
            }),
            ab(&|_, _| 1.0, &|i, j| {
                -self.short.c6(i, j) * if energy { 1.0 } else { 6.0 }
            }),
            ab(&|_, _| 1.0, &|i, j| {
                -self.short.d8(i, j) * if energy { 1.0 } else { 8.0 }
            }),
        ]
    }

    fn four_passes(&mut self, mode: PipelineMode, system: &System, js: &JStore) -> Vec<MdgPassResult> {
        let energy = mode == PipelineMode::Potential;
        let kappa = self.params.kappa(system.simbox().l());
        let coeffs = self.coefficients(system, kappa, energy);
        let tables = if energy {
            self.energy_tables.clone()
        } else {
            self.force_tables.clone()
        };
        tables
            .iter()
            .zip(&coeffs)
            .map(|(table, coeff)| {
                self.mdg.load_table(table);
                self.mdg.load_coefficients(coeff);
                let out = self
                    .mdg
                    .calc_pass_with_jstore(mode, system.positions(), system.types(), js)
                    .unwrap();
                self.mdg_counters.merge(&out.counters);
                out
            })
            .collect()
    }
}

impl ForceField for FourPassReference {
    fn compute(&mut self, system: &System) -> ForceResult {
        let simbox = system.simbox();
        let kappa = self.params.kappa(simbox.l());
        self.mdg_counters = MdgCounters::default();
        let js = JStore::build(simbox, system.positions(), system.types(), self.params.r_cut);

        let mut forces = vec![Vec3::ZERO; system.len()];
        let force_passes = self.four_passes(PipelineMode::Force, system, &js);
        for pass in &force_passes {
            for (f, v) in forces.iter_mut().zip(&pass.values) {
                *f += Vec3::new(v[0], v[1], v[2]);
            }
        }
        self.coulomb_pair_ops = force_passes[0].counters.pair_ops;

        let wave = self
            .wave
            .compute(simbox, system.positions(), system.charges());
        for (f, df) in forces.iter_mut().zip(&wave.forces) {
            *f += *df;
        }
        let q_sq: f64 = system.charges().iter().map(|q| q * q).sum();
        let e_self = -COULOMB_EV_A * kappa / std::f64::consts::PI.sqrt() * q_sq;

        let totals: Vec<f64> = self
            .four_passes(PipelineMode::Potential, system, &js)
            .iter()
            .map(|pass| 0.5 * pass.values.iter().map(|v| v[0]).sum::<f64>())
            .collect();
        let e_short = totals[1] + totals[2] + totals[3];
        let coulomb = totals[0] + wave.energy + e_self;
        ForceResult {
            forces,
            potential: coulomb + e_short,
            coulomb,
            short_range: e_short,
            virial: 0.0,
        }
    }
}

/// The driver on the fused sweep against the four-round reference: a
/// 20-step N = 512 trajectory, bit-identical in positions, velocities,
/// forces, potential and the step's hardware counters.
#[test]
fn fused_driver_trajectory_bitwise_matches_four_pass_reference() {
    let start = molten_snapshot(4, 1500.0, 31);
    let l = start.simbox().l();

    let mut fused = Simulation::new(start.clone(), MdmForceField::nacl_default(l).unwrap(), 2.0);
    let params = *fused.force_field().params();
    let mut reference = Simulation::new(start, FourPassReference::new(params), 2.0);

    for step in 0..=20 {
        if step > 0 {
            fused.step();
            reference.step();
        }
        let (a, b) = (fused.current_forces(), reference.current_forces());
        assert_eq!(a.forces, b.forces, "forces at step {step}");
        assert_eq!(a.potential.to_bits(), b.potential.to_bits(), "potential at step {step}");
        assert_eq!(
            fused.system().positions(),
            reference.system().positions(),
            "positions at step {step}"
        );
        assert_eq!(
            fused.system().velocities(),
            reference.system().velocities(),
            "velocities at step {step}"
        );
        let counters = fused.force_field().last_counters();
        assert_eq!(counters.mdg, reference.force_field().mdg_counters, "step {step}");
        assert_eq!(
            counters.wine,
            reference.force_field().wave.last_wine_counters(),
            "step {step}"
        );
        assert_eq!(
            fused.force_field().coulomb_pair_ops(),
            reference.force_field().coulomb_pair_ops,
            "step {step}"
        );
    }
}
