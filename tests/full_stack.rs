//! Cross-crate integration tests: the whole machine, end to end.

use mdm::core::forcefield::{EwaldTosiFumi, ForceField};
use mdm::core::integrate::Simulation;
use mdm::core::lattice::{rocksalt_nacl, rocksalt_nacl_at_density, NACL_LATTICE_A, PAPER_DENSITY};
use mdm::core::thermostat::Thermostat;
use mdm::core::vec3::Vec3;
use mdm::core::velocities::{maxwell_boltzmann, temperature};
use mdm::host::driver::MdmForceField;
use mdm::host::parallel::{parallel_forces, ParallelConfig};

/// The paper's full protocol in miniature, on the emulated hardware:
/// crystal → thermalise at 1200 K (NVT, velocity scaling) → NVE; the
/// NVE phase must conserve energy and hold a stable temperature.
#[test]
fn paper_protocol_on_emulated_mdm() {
    let mut system = rocksalt_nacl(3, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 1200.0, 99);
    let machine = MdmForceField::nacl_default(system.simbox().l()).unwrap();
    let mut sim = Simulation::new(system, machine, 2.0);

    sim.set_thermostat(Some(Thermostat::velocity_scaling(1200.0)));
    sim.run(15);
    assert!((temperature(sim.system()) - 1200.0).abs() < 1.0);

    sim.set_thermostat(None);
    let e0 = sim.record().total;
    let records = sim.run(25);
    let drift = ((records.last().unwrap().total - e0) / e0).abs();
    assert!(drift < 1e-3, "NVE drift on hardware: {drift}");
    // Momentum conservation through the whole stack.
    assert!(
        sim.system().total_momentum().norm() < 1e-6,
        "momentum {:?}",
        sim.system().total_momentum()
    );
}

/// Hardware and software force fields must produce the same dynamics:
/// integrate the same initial state with both and compare trajectories.
#[test]
fn hardware_and_software_trajectories_agree() {
    let mut system = rocksalt_nacl(3, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 600.0, 5);
    let l = system.simbox().l();

    let hw = MdmForceField::nacl_default(l).unwrap();
    let mut sim_hw = Simulation::new(system.clone(), hw, 1.0);

    // The software reference with the *same* Ewald parameters — but it
    // cuts off at r_cut while the hardware keeps kernel tails, so the
    // trajectories agree closely, not bitwise.
    let params = *MdmForceField::nacl_default(l).unwrap().params();
    let sw = EwaldTosiFumi::new(params, mdm::core::potentials::TosiFumi::nacl());
    let mut sim_sw = Simulation::new(system, sw, 1.0);

    for _ in 0..10 {
        sim_hw.step();
        sim_sw.step();
    }
    let mut max_dev = 0.0f64;
    for (a, b) in sim_hw
        .system()
        .positions()
        .iter()
        .zip(sim_sw.system().positions())
    {
        max_dev = max_dev.max(sim_hw.system().simbox().min_image(*a, *b).norm());
    }
    assert!(max_dev < 1e-3, "trajectories diverged: {max_dev} A after 10 fs");
}

/// The §4 parallel program must agree with the serial software field
/// and with itself across process counts, on a molten-density system.
#[test]
fn parallel_program_is_exact() {
    let mut system = rocksalt_nacl_at_density(3, PAPER_DENSITY);
    maxwell_boltzmann(&mut system, 1200.0, 1);
    // Small thermal kick so positions are generic.
    let kicked: Vec<Vec3> = system
        .positions()
        .iter()
        .zip(system.velocities())
        .map(|(r, v)| *r + *v * 10.0)
        .collect();
    for (i, r) in kicked.into_iter().enumerate() {
        system.set_position(i, r);
    }

    let params = mdm::core::ewald::EwaldParams::from_alpha_accuracy(
        7.0,
        3.2,
        3.2,
        system.simbox().l(),
    );
    let par = parallel_forces(&system, &params, ParallelConfig::paper());
    let mut serial = EwaldTosiFumi::new(params, mdm::core::potentials::TosiFumi::nacl());
    let ser = serial.compute(&system);
    let scale = ser.forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
    for (i, (p, s)) in par.forces.iter().zip(&ser.forces).enumerate() {
        assert!(
            (*p - *s).norm() / scale < 1e-9,
            "particle {i}: {p:?} vs {s:?}"
        );
    }
    assert!(((par.potential - ser.potential) / ser.potential).abs() < 1e-10);
}

/// Determinism across the whole stack: identical seeds give identical
/// trajectories (hardware emulation included).
#[test]
fn end_to_end_determinism() {
    let run = || {
        let mut system = rocksalt_nacl(2, NACL_LATTICE_A);
        maxwell_boltzmann(&mut system, 900.0, 31);
        let hw = MdmForceField::nacl_default(system.simbox().l()).unwrap();
        let mut sim = Simulation::new(system, hw, 2.0);
        sim.run(5);
        sim.system().positions().to_vec()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must give bitwise-identical trajectories");
}

/// Cohesion sanity on the full stack: the crystal binds with the
/// Tosi–Fumi lattice energy, whichever engine computes it.
#[test]
fn cohesive_energy_consistency() {
    let s = rocksalt_nacl(3, NACL_LATTICE_A);
    let pairs = s.len() as f64 / 2.0;
    let mut hw = MdmForceField::nacl_default(s.simbox().l()).unwrap();
    let e_hw = hw.compute(&s).potential / pairs;
    let mut sw = EwaldTosiFumi::nacl_default(s.simbox().l());
    let e_sw = sw.compute(&s).potential / pairs;
    assert!((-8.4..-7.4).contains(&e_hw), "hardware: {e_hw} eV/pair");
    assert!((-8.4..-7.4).contains(&e_sw), "software: {e_sw} eV/pair");
    assert!((e_hw - e_sw).abs() < 0.05, "{e_hw} vs {e_sw}");
}

/// Satellite of the pluggable-backend refactor: SPME inside the full
/// software force field must reproduce the exact-recip field at matched
/// accuracy parameters. Forces are compared on a de-symmetrised state
/// (perfect-lattice wave forces vanish by symmetry and prove nothing).
#[test]
fn pme_forcefield_matches_exact_recip_at_matched_params() {
    let mut system = rocksalt_nacl(3, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 1800.0, 42);
    let l = system.simbox().l();
    let params = *MdmForceField::nacl_default(l).unwrap().params();
    let short = mdm::core::potentials::TosiFumi::nacl();

    let mut exact_sim = Simulation::new(
        system.clone(),
        EwaldTosiFumi::new(params, short.clone()),
        2.0,
    );
    exact_sim.run(3);
    let state = exact_sim.system().clone();

    let mut exact_ff = EwaldTosiFumi::new(params, short.clone());
    let mut pme_ff = EwaldTosiFumi::with_longrange(
        params,
        short,
        mdm::core::longrange::by_name("pme", &params, l).unwrap(),
    );
    let exact = exact_ff.compute(&state);
    let pme = pme_ff.compute(&state);

    let scale = (exact.forces.iter().map(|f| f.norm_sq()).sum::<f64>()
        / state.len() as f64)
        .sqrt();
    let rms = (exact
        .forces
        .iter()
        .zip(&pme.forces)
        .map(|(a, b)| (*a - *b).norm_sq())
        .sum::<f64>()
        / state.len() as f64)
        .sqrt();
    assert!(
        rms / scale < 1e-3,
        "PME force field deviates from exact recip: rel rms {}",
        rms / scale
    );
    let e_rel = ((exact.coulomb - pme.coulomb) / exact.coulomb).abs();
    assert!(e_rel < 1e-4, "PME Coulomb energy deviates: rel {e_rel}");
}

/// The PSWF fast-Ewald backend must support real dynamics: the paper's
/// thermalise→NVE protocol with the software field's wavenumber phase
/// swapped for the mesh engine still conserves energy and momentum.
#[test]
fn nve_conserves_with_pswf_backend() {
    let mut system = rocksalt_nacl(3, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 1200.0, 99);
    let l = system.simbox().l();
    let params = *MdmForceField::nacl_default(l).unwrap().params();
    let ff = EwaldTosiFumi::with_longrange(
        params,
        mdm::core::potentials::TosiFumi::nacl(),
        mdm::core::longrange::by_name("pswf", &params, l).unwrap(),
    );
    let mut sim = Simulation::new(system, ff, 2.0);

    sim.set_thermostat(Some(Thermostat::velocity_scaling(1200.0)));
    sim.run(15);
    sim.set_thermostat(None);
    let e0 = sim.record().total;
    let records = sim.run(25);
    let drift = ((records.last().unwrap().total - e0) / e0).abs();
    assert!(drift < 1e-3, "NVE drift with pswf backend: {drift}");
    assert!(
        sim.system().total_momentum().norm() < 1e-6,
        "momentum {:?}",
        sim.system().total_momentum()
    );
}

/// FNV-1a over the positions' bits: equal digests mean bit-identical
/// trajectories.
fn position_digest(positions: &[Vec3]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for p in positions {
        for byte in [p.x, p.y, p.z].iter().flat_map(|c| c.to_bits().to_le_bytes()) {
            digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// The software field's real-space pass on the 27-cell block: at
/// `cells = 3` the machine-balance cutoff is L/3.06, so the cell grid
/// has exactly 3 cells per side. Five steps at 1200 K through
/// `EwaldTosiFumi`: the position digest and the last evaluation's
/// potential and virial bits.
#[test]
fn software_field_pinned_on_a_three_cell_grid() {
    let mut system = rocksalt_nacl(3, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 1200.0, 17);
    let l = system.simbox().l();
    let params = *MdmForceField::nacl_default(l).unwrap().params();
    assert_eq!((l / params.r_cut).floor(), 3.0, "r_cut {} in L {l}", params.r_cut);
    let sw = EwaldTosiFumi::new(params, mdm::core::potentials::TosiFumi::nacl());
    let mut sim = Simulation::new(system, sw, 2.0);
    sim.run(5);

    let digest = position_digest(sim.system().positions());
    let last = sim.current_forces();
    assert_eq!(digest, 0x0ce4_b899_8cc2_6a6d, "position digest {digest:016x}");
    assert_eq!(
        (last.potential.to_bits(), last.virial.to_bits()),
        (0xc08b_068f_ebde_8c60, 0x401f_a084_c9ca_4500),
        "potential {:e} ({:016x}), virial {:e} ({:016x})",
        last.potential,
        last.potential.to_bits(),
        last.virial,
        last.virial.to_bits()
    );
}

/// The WINE-2 sweep at a ragged size: `cells = 3` is 216 particles, 108
/// per cluster and 16 / 12 per board, so every board ends in a partly
/// filled 8-lane block. Five steps through `MdmForceField`: the position
/// digest and the board's counters are the values the per-chip-pass
/// kernels produced before the row sweep replaced them, and no Q30
/// register saturates.
#[test]
fn wine2_sweep_pinned_at_ragged_lane_blocks() {
    let _scope = mdm::profile::scope();
    let mut system = rocksalt_nacl(3, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 900.0, 31);
    let hw = MdmForceField::nacl_default(system.simbox().l()).unwrap();
    let mut sim = Simulation::new(system, hw, 2.0);
    sim.run(5);

    let digest = position_digest(sim.system().positions());
    let wine = sim.force_field().last_counters().wine;
    let profile = mdm::profile::take();
    assert_eq!(digest, 0x4107_117b_fea9_c474, "position digest {digest:016x}");
    assert_eq!(
        wine,
        mdm::wine2::timing::WineCounters {
            dft_ops: 446_904,
            idft_ops: 446_904,
            cycles: 576,
            bus_bytes_per_cluster: 814_072,
            waves: 2069,
            particles: 216,
        }
    );
    assert!(!profile.counters.contains_key("wine_q30_saturations"));
}

/// The WINE-2 sweep at the serve size: `cells = 2` is 64 particles, 32
/// per cluster, which the boards' 5 / 5 / 5 / 5 / 5 / 5 / 2 split left
/// ragged on every board while each board held its own lane blocks. Five
/// steps through `MdmForceField`: the position digest and the counters
/// are the values the per-board sweep produced before one packed column
/// per cluster replaced it, and no Q30 register saturates.
#[test]
fn wine2_sweep_pinned_at_serve_size() {
    let _scope = mdm::profile::scope();
    let mut system = rocksalt_nacl(2, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 900.0, 31);
    let hw = MdmForceField::nacl_default(system.simbox().l()).unwrap();
    let mut sim = Simulation::new(system, hw, 2.0);
    sim.run(5);

    let digest = position_digest(sim.system().positions());
    let wine = sim.force_field().last_counters().wine;
    let profile = mdm::profile::take();
    assert_eq!(digest, 0x58c1_48ee_9383_d269, "position digest {digest:016x}");
    assert_eq!(
        wine,
        mdm::wine2::timing::WineCounters {
            dft_ops: 132_416,
            idft_ops: 132_416,
            cycles: 180,
            bus_bytes_per_cluster: 811_944,
            waves: 2069,
            particles: 64,
        }
    );
    assert!(!profile.counters.contains_key("wine_q30_saturations"));
}

/// The paper's own WINE-2, `Wine2Config::default()`: 20 clusters and
/// 2,240 chips, at N = 64 (a ragged 3–4 particles a cluster, most boards
/// empty) and N = 216. One wavenumber call each on thermally kicked
/// positions with the serve workloads' Ewald parameters: the force-bit
/// digest, the energy and virial bits and every `WineCounters` field,
/// with no Q30 register saturated.
#[test]
fn wine2_default_machine_pinned() {
    use mdm::wine2::{timing::WineCounters, Wine2Config, Wine2System};
    let counters = |n: u64, cycles: u64, bus_bytes_per_cluster: u64| WineCounters {
        dft_ops: n * 2069,
        idft_ops: n * 2069,
        cycles,
        bus_bytes_per_cluster,
        waves: 2069,
        particles: n,
    };
    // (cells, force digest, [energy, virial] bits, counters)
    let pins = [
        (
            2,
            0xa5c5_d287_68c3_e775,
            [0x4064_cff4_0e95_5126, 0xc071_5b4f_8bac_1ec3],
            counters(64, 36, 463_568),
        ),
        (
            3,
            0x8419_c437_bf06_a4f4,
            [0x405d_4458_b369_552f, 0xc080_8655_4caa_e593],
            counters(216, 72, 811_244),
        ),
    ];
    for (cells, digest_want, bits_want, counters_want) in pins {
        let mut system = rocksalt_nacl(cells, NACL_LATTICE_A);
        maxwell_boltzmann(&mut system, 1200.0, 7);
        let kicked: Vec<Vec3> = system
            .positions()
            .iter()
            .zip(system.velocities())
            .map(|(r, v)| system.simbox().wrap(*r + *v * 10.0))
            .collect();
        let params = *MdmForceField::nacl_default(system.simbox().l()).unwrap().params();
        let _scope = mdm::profile::scope();
        let out = Wine2System::new(Wine2Config::default())
            .compute_wavepart(
                system.simbox(),
                &kicked,
                system.charges(),
                params.alpha,
                params.n_max,
            )
            .unwrap();
        let profile = mdm::profile::take();
        let digest = position_digest(&out.forces);
        let bits = [out.energy.to_bits(), out.virial.to_bits()];
        let n = kicked.len();
        assert_eq!(digest, digest_want, "N = {n}: force digest {digest:016x}");
        assert_eq!(bits, bits_want, "N = {n}: energy and virial bits {bits:016x?}");
        assert_eq!(out.counters, counters_want, "N = {n}");
        assert!(!profile.counters.contains_key("wine_q30_saturations"), "N = {n}");
    }
}

/// The MDGRAPE-2 tile sweep at a size where every tile is ragged:
/// `cells = 3` is 216 particles in 27 cells, 8 to a cell on the lattice
/// and unevenly spread once molten, so no tile of sixteen lanes is ever
/// full. Five hot steps through `MdmForceField`: the position digest,
/// the step's counters and the Coulomb pass's pair ops are the values
/// the lane-per-j-slot kernel and the boards' own billing produced before
/// the tiles and the billing by arithmetic replaced them.
#[test]
fn mdgrape2_tile_sweep_pinned_at_ragged_tiles() {
    let mut system = rocksalt_nacl(3, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 2400.0, 47);
    let hw = MdmForceField::nacl_default(system.simbox().l()).unwrap();
    let mut sim = Simulation::new(system, hw, 2.0);
    sim.run(5);

    let digest = position_digest(sim.system().positions());
    let mdg = sim.force_field().last_counters().mdg;
    let coulomb = sim.force_field().coulomb_pair_ops();
    assert_eq!(digest, 0xe047_07d7_8b97_6679, "position digest {digest:016x}");
    // Four force and four energy passes; at 3 cells per side a particle's
    // 27-cell block is the whole box: 216 · 215 pair ops a pass.
    assert_eq!(
        mdg,
        mdm::mdgrape2::timing::MdgCounters {
            pair_ops: 8 * 46_440,
            cycles: 11_616,
            bus_bytes_per_cluster: 79_616,
            particles: 216,
        }
    );
    assert_eq!(coulomb, 46_440);
}

/// The MDGRAPE-2 tiles at the serve size: `cells = 2` is 64 particles in
/// 27 cells, ≈ 2.4 to a cell, so a tile that took one home cell's
/// i-particles kept about one lane in seven live. Five hot steps through
/// `MdmForceField`: the position digest, the step's counters and the
/// Coulomb pass's pair ops are the values the one-home-cell tiles produced
/// before tiles across home cells replaced them.
#[test]
fn mdgrape2_tiles_pinned_at_serve_size() {
    let mut system = rocksalt_nacl(2, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 2400.0, 47);
    let hw = MdmForceField::nacl_default(system.simbox().l()).unwrap();
    let mut sim = Simulation::new(system, hw, 2.0);
    sim.run(5);

    let digest = position_digest(sim.system().positions());
    let mdg = sim.force_field().last_counters().mdg;
    let coulomb = sim.force_field().coulomb_pair_ops();
    assert_eq!(digest, 0x4476_9a9b_12da_27fa, "position digest {digest:016x}");
    // Four force and four energy passes; at 3 cells per side a particle's
    // 27-cell block is the whole box: 64 · 63 pair ops a pass.
    assert_eq!(
        mdg,
        mdm::mdgrape2::timing::MdgCounters {
            pair_ops: 8 * 4_032,
            cycles: 1_008,
            bus_bytes_per_cluster: 26_112,
            particles: 64,
        }
    );
    assert_eq!(coulomb, 4_032);
}

/// The paper's own MDGRAPE-2, `Mdgrape2Config::default()`: 16 clusters,
/// 32 boards and 64 chips, at N = 64 (two i-particles a board), N = 216
/// (seven a board, six on the 31st and none on the last) and N = 1,000
/// (32 a board and eight on the last). One force pass and one potential
/// pass of the Ewald real-space Coulomb tables each, on thermally kicked
/// positions with the serve workloads' cutoff: the value digest and
/// every `MdgCounters` field. Then the force pass again in
/// `RealSpaceMode::SoftwareN3l` on 2 clusters, the shape the benchmark's
/// `n3l_pass_ns_per_pair` rung runs: its digest and counters.
#[test]
fn mdgrape2_paper_machine_pinned() {
    use mdm::mdgrape2::chip::AtomCoefficients;
    use mdm::mdgrape2::pipeline::PipelineMode;
    use mdm::mdgrape2::timing::MdgCounters;
    use mdm::mdgrape2::{GFunction, JStore, Mdgrape2Config, Mdgrape2System, RealSpaceMode};
    let counters = |pair_ops, cycles, bus_bytes_per_cluster, particles| MdgCounters {
        pair_ops,
        cycles,
        bus_bytes_per_cluster,
        particles,
    };
    // (cells, [force, potential, N3L force] value digests and counters)
    let pins: [(usize, [(u64, MdgCounters); 3]); 3] = [
        (
            2,
            [
                (0x8fb3_e4c1_0a13_1dd2, counters(4_032, 16, 2_592, 64)),
                (0xf56e_93eb_4364_5067, counters(4_032, 16, 2_592, 64)),
                (0xe2ed_db4f_3e15_df2b, counters(2_016, 123, 3_288, 64)),
            ],
        ),
        (
            3,
            [
                (0xe430_4405_2874_9cf1, counters(46_440, 189, 7_696, 216)),
                (0x3e5d_bda2_b68e_1ebf, counters(46_440, 189, 7_696, 216)),
                (0x045d_6802_46e1_d146, counters(23_220, 1_392, 10_072, 216)),
            ],
        ),
        (
            5,
            [
                (0x3afe_ea4a_26fd_39fa, counters(999_000, 3_996, 33_984, 1000)),
                (0x914e_3541_5b9c_5cc0, counters(999_000, 3_996, 33_984, 1000)),
                (0x03f7_1b08_55aa_3cd7, counters(499_500, 28_812, 44_856, 1000)),
            ],
        ),
    ];
    let digest = |values: &[[f64; 3]]| {
        position_digest(&values.iter().map(|v| Vec3::new(v[0], v[1], v[2])).collect::<Vec<_>>())
    };
    for (cells, want) in pins {
        let mut system = rocksalt_nacl(cells, NACL_LATTICE_A);
        maxwell_boltzmann(&mut system, 1200.0, 7);
        let kicked: Vec<Vec3> = system
            .positions()
            .iter()
            .zip(system.velocities())
            .map(|(r, v)| system.simbox().wrap(*r + *v * 10.0))
            .collect();
        let l = system.simbox().l();
        let params = MdmForceField::nacl_default_params(l);
        let kappa = params.kappa(l);
        let js = JStore::build(system.simbox(), &kicked, system.types(), params.r_cut);
        // Na⁺–Na⁺, Na⁺–Cl⁻, Cl⁻–Cl⁻ charge products, scaled as the
        // force (κ³) and energy (κ) tables take them.
        let coefficients = |scale: f64| {
            let b = |q: f64| q * mdm::core::units::COULOMB_EV_A * scale;
            let a = vec![vec![kappa * kappa; 2]; 2];
            AtomCoefficients::new(&a, &[vec![b(1.0), b(-1.0)], vec![b(-1.0), b(1.0)]])
        };
        let passes = [
            (PipelineMode::Force, GFunction::CoulombRealForce, kappa.powi(3)),
            (PipelineMode::Potential, GFunction::CoulombRealEnergy, kappa),
        ];
        let mut got = Vec::new();
        for (mode, g, scale) in passes {
            let table = g.build_evaluator().unwrap();
            let mut mdg = Mdgrape2System::new(Mdgrape2Config::default(), table, coefficients(scale));
            let out = mdg.calc_pass_with_jstore(mode, &kicked, system.types(), &js).unwrap();
            got.push((digest(&out.values), out.counters));
        }
        let table = GFunction::CoulombRealForce.build_evaluator().unwrap();
        let mut n3l = Mdgrape2System::new(Mdgrape2Config { clusters: 2 }, table, coefficients(kappa.powi(3)));
        n3l.set_real_space_mode(RealSpaceMode::SoftwareN3l);
        let out = n3l
            .calc_pass_with_jstore(PipelineMode::Force, &kicked, system.types(), &js)
            .unwrap();
        got.push((digest(&out.values), out.counters));
        let n = kicked.len();
        for (what, (got, want)) in ["force", "potential", "N3L force"].iter().zip(got.iter().zip(&want)) {
            assert_eq!(got.0, want.0, "N = {n}, {what}: value digest {:016x}", got.0);
            assert_eq!(got.1, want.1, "N = {n}, {what}");
        }
    }
}
