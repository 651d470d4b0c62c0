//! The shared mesh engine (`mdm::core::mesh`) through its two windows,
//! from the outside: thread-count invariance at a
//! size where every plane and pencil task has real work, stencils that
//! wrap or sit exactly on the slab boundaries the spread partitions by,
//! scratch reuse and its accounting, and non-neutral input.
//!
//! The transform-versus-oracle and spectral-versus-gather-energy checks
//! need the engine's internals and live beside it as unit tests
//! (`mesh::fft::tests`, `mesh::tests`).

use mdm::core::boxsim::SimBox;
use mdm::core::ewald::recip::recip_space;
use mdm::core::ewald::EwaldParams;
use mdm::core::kvectors::half_space_vectors;
use mdm::core::lattice::{rocksalt_nacl, rocksalt_nacl_at_density, NACL_LATTICE_A, PAPER_DENSITY};
use mdm::core::longrange::{by_name, SOFTWARE_BACKENDS};
use mdm::core::mesh::{MeshEngine, MeshResult, Window};
use mdm::core::pme::SpmeRecip;
use mdm::core::pswf::PswfRecip;
use mdm::core::system::System;
use mdm::core::Vec3;
use rayon::with_num_threads;

const ALPHA: f64 = 9.0;

/// Every ion pushed off its site by a deterministic, incommensurate
/// displacement of up to ~0.4 Å.
fn jittered(mut s: System) -> System {
    for i in 0..s.len() {
        let t = i as f64;
        s.displace(
            i,
            Vec3::new((t * 0.731).sin(), (t * 1.377).cos(), (t * 2.113).sin()) * 0.4,
        );
    }
    s
}

/// N = 512 rock salt, jittered.
fn jittered_512() -> System {
    jittered(rocksalt_nacl(4, NACL_LATTICE_A))
}

fn pswf_64(l: f64) -> PswfRecip {
    PswfRecip::new(l, ALPHA, 3.2 * ALPHA / std::f64::consts::PI, 64, 6)
}

fn spme_64(l: f64) -> SpmeRecip {
    SpmeRecip::new(l, ALPHA, 64, 6)
}

/// The wrap case: eight ions exactly on the grid planes of K = 32
/// engines in a 20 Å box — at u = 0, and at u = K − ε where the stencil
/// wraps on all three axes — with alternating charges, at α = 7.
const WRAP_L: f64 = 20.0;
const WRAP_ALPHA: f64 = 7.0;
const WRAP_CHARGES: [f64; 8] = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];

fn wrap_positions() -> [Vec3; 8] {
    let l = WRAP_L;
    let h = l / 32.0;
    let eps = 1e-9;
    [
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(l - eps, l - eps, l - eps),
        Vec3::new(3.0 * h, 7.0 * h, 16.0 * h),
        Vec3::new(17.0 * h, 2.0 * h, 31.0 * h),
        Vec3::new(9.4, 0.0, 31.0 * h + 0.5 * h),
        Vec3::new(l - eps, 11.7, 3.0 * h),
        Vec3::new(5.5 * h, l - eps, 0.0),
        Vec3::new(12.3, 6.1, 1.0 * h),
    ]
}

/// FNV-1a over the force components' bits.
fn force_digest(forces: &[Vec3]) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for f in forces {
        for byte in [f.x, f.y, f.z].iter().flat_map(|c| c.to_bits().to_le_bytes()) {
            digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

fn assert_bitwise(a: &MeshResult, b: &MeshResult, what: &str) {
    assert_eq!(a.forces, b.forces, "{what}: forces diverged");
    assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "{what}: energy");
    assert_eq!(a.virial.to_bits(), b.virial.to_bits(), "{what}: virial");
}

/// One fresh engine per run, so nothing but the thread count differs.
fn identical_at_every_thread_count<W: Window>(
    build: impl Fn() -> MeshEngine<W>,
    simbox: SimBox,
    positions: &[Vec3],
    charges: &[f64],
) -> MeshResult {
    let run = |threads: usize| {
        with_num_threads(threads, || build().compute(simbox, positions, charges))
    };
    let reference = run(1);
    for threads in [2, 3, 4] {
        assert_bitwise(&reference, &run(threads), &format!("{threads} threads"));
    }
    // Whatever RAYON_NUM_THREADS this binary runs under (CI repeats it
    // at 1 and at 3: an odd count splits the planes unevenly).
    let ambient = build().compute(simbox, positions, charges);
    assert_bitwise(&reference, &ambient, "ambient thread count");
    reference
}

#[test]
fn engine_output_is_bitwise_identical_at_1_2_3_4_threads_and_serial() {
    let s = jittered_512();
    let l = s.simbox().l();
    assert!(s.len() >= 512);
    let pswf =
        identical_at_every_thread_count(|| pswf_64(l), s.simbox(), s.positions(), s.charges());
    let spme =
        identical_at_every_thread_count(|| spme_64(l), s.simbox(), s.positions(), s.charges());
    // And the two windows compute the same physics.
    assert!(((pswf.energy - spme.energy) / pswf.energy).abs() < 1e-3);
}

/// The engine's output bits at the benchmark's mesh operating point —
/// `mesh_pswf_4k`: N = 4,096 at the paper's density, r_cut 9 Å,
/// s = 3.2, so K = 128 and b = 18 — and for order-6 PME at K = 64 on
/// the N = 512 system. A faster engine must reproduce every bit.
#[test]
fn mesh_engine_pinned_at_the_benchmark_mesh() {
    let s = jittered(rocksalt_nacl_at_density(8, PAPER_DENSITY));
    assert_eq!(s.len(), 4096);
    let l = s.simbox().l();
    let params = EwaldParams::from_alpha_accuracy(3.2 * l / 9.0, 3.2, 3.2, l);
    let mut pswf = PswfRecip::for_params(&params, l);
    assert_eq!(pswf.mesh(), 128);
    let out = pswf.compute(s.simbox(), s.positions(), s.charges());
    let pinned = (force_digest(&out.forces), out.energy.to_bits(), out.virial.to_bits());

    let s = jittered_512();
    let out = spme_64(s.simbox().l()).compute(s.simbox(), s.positions(), s.charges());
    let pinned_pme = (force_digest(&out.forces), out.energy.to_bits(), out.virial.to_bits());
    assert_eq!(
        pinned,
        (0x8cb5_5fe4_0455_81db, 0x4061_5e11_3e25_2ae6, 0xc090_0765_9dac_ef20),
        "pswf at K = 128"
    );
    assert_eq!(
        pinned_pme,
        (0x06ee_b74f_655f_29c2, 0x404b_151f_f92b_d527, 0xc05e_e6e8_dfe5_3326),
        "pme order 6 at K = 64"
    );
}

/// The corner the benchmark mesh does not reach: K = 16 on the N = 512
/// system — `pswf` support 6 and `pme` orders 4 and 5, supports that
/// divide the 16 planes and supports that do not — and the wrap case at
/// K = 32, each at 1, 2, 3, 4 and 7 threads, where the thread count
/// exceeds K / support. The output bits are pinned: a faster engine that
/// splits the planes another way must reproduce every one.
#[test]
fn mesh_engine_pinned_on_a_small_mesh() {
    let at_every_count = |compute: &dyn Fn() -> MeshResult| {
        let reference = with_num_threads(1, compute);
        for threads in [2, 3, 4, 7] {
            let out = with_num_threads(threads, compute);
            assert_bitwise(&reference, &out, &format!("{threads} threads"));
        }
        let (energy, virial) = (reference.energy.to_bits(), reference.virial.to_bits());
        (force_digest(&reference.forces), energy, virial)
    };
    let s = jittered_512();
    let (l, alpha) = (s.simbox().l(), WRAP_ALPHA);
    let (simbox, r, q) = (s.simbox(), s.positions(), s.charges());
    let n_max = 3.2 * alpha / std::f64::consts::PI;
    let (wrap_box, wrap_r, wrap_q) = (SimBox::cubic(WRAP_L), wrap_positions(), WRAP_CHARGES);
    let pinned = [
        at_every_count(&|| PswfRecip::new(l, alpha, n_max, 16, 6).compute(simbox, r, q)),
        at_every_count(&|| SpmeRecip::new(l, alpha, 16, 4).compute(simbox, r, q)),
        at_every_count(&|| SpmeRecip::new(l, alpha, 16, 5).compute(simbox, r, q)),
        at_every_count(&|| {
            PswfRecip::new(WRAP_L, alpha, n_max, 32, 6).compute(wrap_box, &wrap_r, &wrap_q)
        }),
        at_every_count(&|| {
            SpmeRecip::new(WRAP_L, alpha, 32, 6).compute(wrap_box, &wrap_r, &wrap_q)
        }),
    ];
    let want = [
        // pswf support 6, then pme orders 4 and 5, at K = 16
        (0x6cff_3cd4_cd1f_c0bb, 0x403f_871a_17dd_d52a, 0xc030_2075_bf65_871a),
        (0x8fad_b47c_ef25_687e, 0x403f_81f4_537b_3a0b, 0xc02f_454a_f7e8_4bf4),
        (0x6b06_aaf4_157f_f1f0, 0x403f_9e68_fc80_2404, 0xc030_920c_f6ca_dc31),
        // the wrap case at K = 32: pswf support 6, pme order 6
        (0x6f0a_51da_50ec_dacd, 0x4023_0e7c_be5d_d6c7, 0xc00f_330a_7c82_ca9d),
        (0x6c78_bd35_c3d3_bffd, 0x4023_0ea7_38d6_900d, 0xc00f_3849_f6f9_7c57),
    ];
    for (case, (got, want)) in pinned.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "case {case}: (force digest, energy bits, virial bits)");
    }
}

/// The second call runs on the first call's grid, spectrum buffers and
/// stencil scratch; none of it may leak into the result.
#[test]
fn reused_scratch_does_not_leak_between_calls() {
    let s = jittered_512();
    let l = s.simbox().l();
    let moved: Vec<Vec3> = s
        .positions()
        .iter()
        .map(|&r| s.simbox().wrap(r + Vec3::new(3.3, -1.1, 7.9)))
        .collect();
    let fewer = 300;

    let mut pswf = pswf_64(l);
    let first = pswf.compute(s.simbox(), s.positions(), s.charges());
    pswf.compute(s.simbox(), &moved, s.charges());
    pswf.compute(s.simbox(), &moved[..fewer], &s.charges()[..fewer]);
    let again = pswf.compute(s.simbox(), s.positions(), s.charges());
    assert_bitwise(&first, &again, "pswf, fourth call");

    let mut spme = spme_64(l);
    let first = spme.compute(s.simbox(), s.positions(), s.charges());
    spme.compute(s.simbox(), &moved[..fewer], &s.charges()[..fewer]);
    let again = spme.compute(s.simbox(), s.positions(), s.charges());
    assert_bitwise(&first, &again, "pme, third call");
}

/// `longrange_scratch_reuses` accounting, one rule for every software
/// backend: the first `compute` sizes the scratch (wave buffers, mesh
/// grid, stencils), each later call reuses it, so N calls report N − 1.
#[test]
fn n_calls_report_n_minus_one_scratch_reuses_for_every_software_backend() {
    let s = rocksalt_nacl(2, NACL_LATTICE_A);
    let l = s.simbox().l();
    let params = EwaldParams::from_alpha_accuracy(7.0, 3.2, 3.2, l);
    let _scope = mdm::profile::scope();
    for name in SOFTWARE_BACKENDS {
        for calls in [1u64, 4] {
            let mut backend = by_name(name, &params, l).expect("software backend");
            for _ in 0..calls {
                backend.compute(s.simbox(), s.positions(), s.charges());
            }
            let reuses = mdm::profile::take()
                .counters
                .get("longrange_scratch_reuses")
                .copied()
                .unwrap_or(0);
            assert_eq!(reuses, calls - 1, "{name}: {calls} calls");
        }
    }
}

/// Particles exactly on grid planes — the boundaries the spread buckets
/// by — at u = 0, and at u = K − ε where the stencil wraps on all three
/// axes: still thread-invariant, and still the exact reciprocal sum to
/// each window's tolerance.
#[test]
fn stencils_on_slab_boundaries_and_across_the_periodic_wrap() {
    let l = WRAP_L;
    let simbox = SimBox::cubic(l);
    let positions = wrap_positions();
    let charges = WRAP_CHARGES;
    let alpha = WRAP_ALPHA;
    let exact = recip_space(
        simbox,
        &positions,
        &charges,
        alpha,
        &half_space_vectors(2.2 * alpha),
    );
    let scale = exact
        .forces
        .iter()
        .map(|f| f.norm())
        .fold(1e-300f64, f64::max);

    let check = |got: MeshResult, e_tol: f64, f_tol: f64, what: &str| {
        let rel = ((got.energy - exact.energy) / exact.energy).abs();
        assert!(
            rel < e_tol,
            "{what}: energy {} vs {} (rel {rel})",
            got.energy,
            exact.energy
        );
        for (i, (a, b)) in got.forces.iter().zip(&exact.forces).enumerate() {
            let rel = (*a - *b).norm() / scale;
            assert!(rel < f_tol, "{what}: particle {i} rel {rel}");
        }
        let rel = ((got.virial - exact.virial) / exact.virial).abs();
        assert!(
            rel < 5e-3,
            "{what}: virial {} vs {} (rel {rel})",
            got.virial,
            exact.virial
        );
    };
    let n_max = 3.2 * alpha / std::f64::consts::PI;
    check(
        identical_at_every_thread_count(
            || PswfRecip::new(l, alpha, n_max, 32, 6),
            simbox,
            &positions,
            &charges,
        ),
        1e-3,
        2e-3,
        "pswf",
    );
    check(
        identical_at_every_thread_count(
            || SpmeRecip::new(l, alpha, 32, 6),
            simbox,
            &positions,
            &charges,
        ),
        2e-3,
        5e-3,
        "pme",
    );
}

/// m = 0 is excluded, so a net charge must not blow up; the mean-force
/// subtraction keeps the set momentum-free.
#[test]
fn non_neutral_input_stays_finite() {
    let s = jittered_512();
    let l = s.simbox().l();
    let charges: Vec<f64> = s.charges().iter().map(|q| q.abs()).collect();
    let results = [
        identical_at_every_thread_count(|| pswf_64(l), s.simbox(), s.positions(), &charges),
        identical_at_every_thread_count(|| spme_64(l), s.simbox(), s.positions(), &charges),
    ];
    for out in results {
        assert!(
            out.energy.is_finite() && out.energy > 0.0,
            "energy {}",
            out.energy
        );
        assert!(out.virial.is_finite());
        assert!(out.forces.iter().all(|f| f.norm().is_finite()));
        let net: Vec3 = out.forces.iter().copied().sum();
        assert!(net.norm() < 1e-9, "net force {net:?}");
    }
}

#[test]
fn empty_input_is_a_zero_sum() {
    let simbox = SimBox::cubic(20.0);
    let out = PswfRecip::new(20.0, 7.0, 7.0, 32, 6).compute(simbox, &[], &[]);
    assert_eq!((out.energy, out.virial), (0.0, 0.0));
    assert!(out.forces.is_empty());
}
