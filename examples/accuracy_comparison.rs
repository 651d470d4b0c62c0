//! Accuracy audit of the emulated hardware against the f64 reference —
//! the numbers behind §3.4.4 ("relative accuracy of F(wn) is about
//! 10^-4.5") and §3.5.4 ("relative accuracy of a pairwise force is
//! about 10^-7").
//!
//! Also validates the whole Ewald machinery against two independent
//! yardsticks: the analytically known rock-salt Madelung constant and a
//! brute-force periodic image sum.
//!
//! Run with: `cargo run --release --example accuracy_comparison`

use mdm::core::direct::{direct_coulomb_forces, madelung_rocksalt, tin_foil_force_correction};
use mdm::core::ewald::recip::recip_space;
use mdm::core::ewald::EwaldParams;
use mdm::core::forcefield::{EwaldTosiFumi, ForceField};
use mdm::core::kvectors::half_space_vectors;
use mdm::core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm::core::units::COULOMB_EV_A;
use mdm::core::vec3::Vec3;
use mdm::funceval::{FunctionEvaluator, FunctionTable, Segmentation};
use mdm::mdgrape2::tables::GFunction;
use mdm::wine2::system::{Wine2Config, Wine2System};

fn main() {
    println!("== accuracy audit ==\n");

    // --- 1. Madelung constant: Ewald vs analytic vs Evjen sum. ---
    let s = rocksalt_nacl(2, NACL_LATTICE_A);
    let l = s.simbox().l();
    let e = EwaldTosiFumi::coulomb(EwaldParams::from_alpha_accuracy(9.0, 3.8, 3.8, l)).compute(&s);
    let a0 = NACL_LATTICE_A / 2.0;
    let m_ewald = -e.coulomb / (s.len() as f64 / 2.0) * a0 / COULOMB_EV_A;
    let m_exact = 1.747_564_594_633_182_2;
    let m_evjen = madelung_rocksalt(12);
    println!("rock-salt Madelung constant:");
    println!("  analytic      : {m_exact:.12}");
    println!("  Ewald (ours)  : {m_ewald:.12}   (rel err {:.1e})", ((m_ewald - m_exact) / m_exact).abs());
    println!("  Evjen sum     : {m_evjen:.12}   (rel err {:.1e})", ((m_evjen - m_exact) / m_exact).abs());

    // --- 2. Ewald forces vs brute-force image sum. ---
    let mut p = rocksalt_nacl(1, NACL_LATTICE_A);
    p.displace(0, Vec3::new(0.4, -0.25, 0.1));
    p.displace(3, Vec3::new(-0.2, 0.3, 0.2));
    let ew = EwaldTosiFumi::coulomb(EwaldParams::from_alpha_accuracy(8.0, 3.6, 3.6, p.simbox().l()))
        .compute(&p);
    let mut direct = direct_coulomb_forces(p.simbox(), p.positions(), p.charges(), 16);
    let corr = tin_foil_force_correction(p.simbox(), p.positions(), p.charges());
    for (f, c) in direct.iter_mut().zip(&corr) {
        *f += *c;
    }
    let scale = ew.forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
    let max_dev = ew
        .forces
        .iter()
        .zip(&direct)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0f64, f64::max);
    println!("\nEwald vs direct image sum (16 image shells, tin-foil corrected):");
    println!("  max force deviation: {:.2e} of the force scale (image-sum tail, ~1/shells^2)", max_dev / scale);

    // --- 3. WINE-2 fixed-point pipeline vs f64 DFT/IDFT. ---
    let mut crystal = rocksalt_nacl(2, NACL_LATTICE_A);
    crystal.displace(0, Vec3::new(0.3, -0.2, 0.1));
    crystal.displace(7, Vec3::new(-0.15, 0.25, 0.3));
    let (alpha, n_max) = (7.0, 9.0);
    let mut wine = Wine2System::new(Wine2Config { clusters: 2 });
    let hw = wine
        .compute_wavepart(crystal.simbox(), crystal.positions(), crystal.charges(), alpha, n_max)
        .unwrap();
    let waves = half_space_vectors(n_max);
    let sw = recip_space(crystal.simbox(), crystal.positions(), crystal.charges(), alpha, &waves);
    let f_scale = sw.forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
    let max_rel = hw
        .forces
        .iter()
        .zip(&sw.forces)
        .map(|(a, b)| (*a - *b).norm())
        .fold(0.0f64, f64::max)
        / f_scale;
    println!("\nWINE-2 pipeline (32-bit fixed point, 4096-entry sine ROM) vs f64 reference:");
    println!(
        "  {} waves, max relative force error {:.2e}  (paper Section 3.4.4: ~10^-4.5 = 3.2e-5)",
        waves.len(),
        max_rel
    );

    // --- 4. MDGRAPE-2 function evaluator vs exact kernels. ---
    println!("\nMDGRAPE-2 function evaluator (f32, 1024 quartic segments) vs exact kernels:");
    for (g, lo, hi) in [
        (GFunction::CoulombRealForce, 0.05, 8.0),
        (GFunction::BornMayerForce, 20.0, 300.0),
        (GFunction::Dispersion6Force, 3.0, 1000.0),
        (GFunction::Dispersion8Force, 3.0, 1000.0),
    ] {
        let t = g.build_table().unwrap();
        let err = t.measured_max_rel_error(|x| g.eval(x), lo, hi, 20_000, 1e-300);
        println!(
            "  {:<22} max rel err {:.2e} over x in [{lo}, {hi}]  (paper Section 3.5.4: ~1e-7)",
            g.name(),
            err
        );
    }

    // --- 4b. The Section 1 question made executable: how accurate is a
    // "fast" O(N log N) method against the brute-force wavenumber sum
    // the MDM computes exactly? ---
    use mdm::core::pme::SpmeRecip;
    println!("\nsmooth PME (our FFT + B-splines) vs the exact wavenumber sum:");
    let exact_full = recip_space(
        crystal.simbox(),
        crystal.positions(),
        crystal.charges(),
        alpha,
        &half_space_vectors(2.2 * alpha),
    );
    for (mesh, order) in [(16usize, 4usize), (32, 4), (32, 6), (64, 6)] {
        let mut spme = SpmeRecip::new(crystal.simbox().l(), alpha, mesh, order);
        let got = spme.compute(crystal.simbox(), crystal.positions(), crystal.charges());
        let e_rel = ((got.energy - exact_full.energy) / exact_full.energy).abs();
        let f_scale = exact_full
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(1e-300f64, f64::max);
        let f_rel = got
            .forces
            .iter()
            .zip(&exact_full.forces)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max)
            / f_scale;
        println!(
            "  mesh {mesh:>3}, order {order}: energy rel err {e_rel:.2e}, max force rel err {f_rel:.2e}"
        );
    }
    println!("  (mesh/order buy accuracy smoothly - the trade the paper said was undiscussed)");

    // --- 5. And the programmability claim: an arbitrary custom force
    // (a Gaussian-bump-plus-Yukawa shape no fixed-function unit would
    // offer; smooth, as interpolation tables require). ---
    let custom = |x: f64| (-(x - 3.0) * (x - 3.0) / 4.0).exp() / (1.0 + x) + (-x.sqrt()).exp() / (1.0 + x * x);
    let table = FunctionTable::generate("custom", Segmentation::new(-8, 8, 6), custom).unwrap();
    let ev = FunctionEvaluator::new(table);
    let mut worst = 0.0f64;
    for i in 1..2000 {
        let x = 0.02 * i as f64;
        let exact = custom(x);
        if exact.abs() > 1e-12 {
            worst = worst.max(((ev.eval(x as f32) as f64 - exact) / exact).abs());
        }
    }
    println!(
        "\narbitrary custom g(x) (\"we can use any arbitrary central force by changing\nthe contents of the RAM\", Section 3.5.4): max rel err {worst:.2e}"
    );
}
