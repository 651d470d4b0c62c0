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
use mdm::core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm::core::longrange::{by_name, SOFTWARE_BACKENDS};
use mdm::core::mesh::{MeshEngine, MeshResult, Window};
use mdm::core::pme::SpmeRecip;
use mdm::core::pswf::PswfRecip;
use mdm::core::system::System;
use mdm::core::Vec3;
use rayon::with_num_threads;

const ALPHA: f64 = 9.0;

/// N = 512 rock salt with every ion pushed off its site by a
/// deterministic, incommensurate displacement of up to ~0.4 Å.
fn jittered_512() -> System {
    let mut s = rocksalt_nacl(4, NACL_LATTICE_A);
    for i in 0..s.len() {
        let t = i as f64;
        s.displace(
            i,
            Vec3::new((t * 0.731).sin(), (t * 1.377).cos(), (t * 2.113).sin()) * 0.4,
        );
    }
    s
}

fn pswf_64(l: f64) -> PswfRecip {
    PswfRecip::new(l, ALPHA, 3.2 * ALPHA / std::f64::consts::PI, 64, 6)
}

fn spme_64(l: f64) -> SpmeRecip {
    SpmeRecip::new(l, ALPHA, 64, 6)
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
    let l = 20.0;
    let simbox = SimBox::cubic(l);
    let h = l / 32.0; // grid spacing of the K = 32 engines below
    let eps = 1e-9;
    let positions = [
        Vec3::new(0.0, 0.0, 0.0),
        Vec3::new(l - eps, l - eps, l - eps),
        Vec3::new(3.0 * h, 7.0 * h, 16.0 * h),
        Vec3::new(17.0 * h, 2.0 * h, 31.0 * h),
        Vec3::new(9.4, 0.0, 31.0 * h + 0.5 * h),
        Vec3::new(l - eps, 11.7, 3.0 * h),
        Vec3::new(5.5 * h, l - eps, 0.0),
        Vec3::new(12.3, 6.1, 1.0 * h),
    ];
    let charges = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0];
    let alpha = 7.0;
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
