//! Property-based tests on the MD engine's core invariants.

use mdm_core::boxsim::SimBox;
use mdm_core::checkpoint::Checkpoint;
use mdm_core::system::Species;
use mdm_core::celllist::CellList;
use mdm_core::ewald::real::real_kernel;
use mdm_core::ewald::EwaldParams;
use mdm_core::forcefield::{EwaldTosiFumi, ForceField, ForceResult};
use mdm_core::lattice::nacl_species;
use mdm_core::system::System;
use mdm_core::special::{erf, erfc};
use mdm_core::vec3::Vec3;
use proptest::prelude::*;

#[path = "support/checkpoint_oracle.rs"]
mod checkpoint_oracle;

/// The bare Ewald Coulomb sum of alternating ±1 charges at `pos`.
fn ewald_coulomb(sb: SimBox, pos: &[Vec3]) -> ForceResult {
    let mut system = System::new(sb, nacl_species());
    for (i, &p) in pos.iter().enumerate() {
        system.push_particle(i % 2, p);
    }
    let params = EwaldParams::from_alpha_accuracy(7.0, 3.2, 3.2, sb.l());
    EwaldTosiFumi::coulomb(params).compute(&system)
}

fn arb_vec3(l: f64) -> impl Strategy<Value = Vec3> {
    (0.0..l, 0.0..l, 0.0..l).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// Every finite `f64` bit pattern — subnormals, −0.0, extreme
/// exponents — but no NaN/inf (the checkpoint losslessness contract is
/// stated for NaN/inf-free states). Bit patterns with an all-ones
/// exponent fold to the subnormal with the same sign and mantissa.
fn arb_finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            x
        } else {
            f64::from_bits(bits & !(0x7ffu64 << 52))
        }
    })
}

/// Every `f64` bit pattern, with the awkward ones drawn often: ±0,
/// subnormals, ±∞, NaNs with payloads and either sign, and the integers
/// either side of 2⁵³, where the JSON spelling of a bit pattern turns
/// from a number into a string.
fn arb_any_bits_f64() -> impl Strategy<Value = f64> {
    (any::<u64>(), 0u8..8).prop_map(|(bits, kind)| {
        f64::from_bits(match kind {
            0 => bits & (1 << 63),                      // ±0
            1 => bits & !(0x7ffu64 << 52),              // ±subnormal (or zero)
            2 => (bits & (1 << 63)) | (0x7ffu64 << 52), // ±∞
            3 => bits | (0x7ffu64 << 52) | 1,           // NaN, any sign and payload
            4 => (1u64 << 53) - 1 + (bits % 3),         // 2⁵³ − 1, 2⁵³, 2⁵³ + 1
            5 => bits % 1_000_000_000_000_001,          // below 10¹⁵, a bare number
            _ => bits,
        })
    })
}

/// A job or species name drawn from quotes, backslashes, control and
/// non-ASCII characters as well as plain ones.
fn arb_name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..12, 0..12).prop_map(|picks| {
        picks
            .into_iter()
            .map(|p| {
                [
                    'a', 'Z', '-', '"', '\\', '\n', '\t', '\u{1}', '\u{7f}', 'é', '€', '😀',
                ][p as usize]
            })
            .collect()
    })
}

fn arb_finite_vec3() -> impl Strategy<Value = Vec3> {
    (arb_finite_f64(), arb_finite_f64(), arb_finite_f64())
        .prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    /// Minimum-image displacement components never exceed L/2.
    #[test]
    fn min_image_bound(a in arb_vec3(13.7), b in arb_vec3(13.7)) {
        let sb = SimBox::cubic(13.7);
        let d = sb.min_image(a, b);
        prop_assert!(d.abs().max_component() <= 13.7 / 2.0 + 1e-12);
    }

    /// Minimum image is antisymmetric and consistent with wrap.
    #[test]
    fn min_image_antisymmetric(a in arb_vec3(9.3), b in arb_vec3(9.3)) {
        let sb = SimBox::cubic(9.3);
        prop_assert!((sb.min_image(a, b) + sb.min_image(b, a)).norm() < 1e-12);
    }

    /// Wrapping is idempotent.
    #[test]
    fn wrap_idempotent(x in -100.0f64..100.0, y in -100.0f64..100.0, z in -100.0f64..100.0) {
        let sb = SimBox::cubic(7.1);
        let w = sb.wrap(Vec3::new(x, y, z));
        prop_assert!((sb.wrap(w) - w).norm() < 1e-12);
        prop_assert!(w.x >= 0.0 && w.x < 7.1);
    }

    /// erf is bounded, odd, monotone; erfc complements it.
    #[test]
    fn erf_properties(x in -10.0f64..10.0, y in -10.0f64..10.0) {
        prop_assert!(erf(x).abs() <= 1.0);
        prop_assert!((erf(x) + erf(-x)).abs() < 1e-14);
        prop_assert!((erf(x) + erfc(x) - 1.0).abs() < 2e-15);
        if x < y {
            prop_assert!(erf(x) <= erf(y));
        }
    }

    /// The Ewald real-space kernel is positive and decreasing in r.
    #[test]
    fn real_kernel_monotone(kappa in 0.05f64..2.0, r in 0.5f64..8.0) {
        let (e1, f1) = real_kernel(kappa, r * r);
        let (e2, _) = real_kernel(kappa, (r * 1.01) * (r * 1.01));
        prop_assert!(e1 > 0.0 && f1 > 0.0);
        prop_assert!(e2 < e1);
    }

    /// Cell list half-pair iteration finds exactly the brute-force pairs
    /// for random configurations, cutoffs and box sizes.
    #[test]
    fn celllist_completeness(
        seed in 0u64..50,
        l in 8.0f64..20.0,
        r_cut_frac in 0.15f64..0.49,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let sb = SimBox::cubic(l);
        let n = 120;
        let pos: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let r_cut = r_cut_frac * l;
        let cl = CellList::build(sb, &pos, r_cut);
        let mut got = std::collections::BTreeSet::new();
        cl.for_each_half_pair(&pos, r_cut, |i, j, _, _| { got.insert((i, j)); });
        let mut want = std::collections::BTreeSet::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if sb.dist_sq(pos[i], pos[j]) <= r_cut * r_cut {
                    want.insert((i, j));
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    /// Ewald forces obey Newton's third law globally (zero net force)
    /// for arbitrary neutral configurations.
    #[test]
    fn ewald_zero_net_force(seed in 0u64..20) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let l = 11.0;
        let sb = SimBox::cubic(l);
        let n = 16;
        let pos: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let r = ewald_coulomb(sb, &pos);
        let net: Vec3 = r.forces.iter().copied().sum();
        prop_assert!(net.norm() < 1e-9, "net {net:?}");
    }

    /// Checkpoint encode/decode is bitwise lossless for arbitrary
    /// NaN/inf-free states: every scalar survives the JSON round-trip
    /// with its exact IEEE-754 bit pattern, including subnormals and
    /// signed zeros.
    #[test]
    fn checkpoint_round_trip_is_bitwise_lossless(
        particles in prop::collection::vec(
            (arb_finite_vec3(), arb_finite_vec3(), arb_finite_vec3()),
            1..6,
        ),
        step in any::<u64>(),
        seed in any::<u64>(),
        scalars in prop::collection::vec(arb_finite_f64(), 10..11),
        obs_vals in prop::collection::vec(arb_finite_f64(), 0..4),
        extra_vals in prop::collection::vec(arb_finite_f64(), 0..4),
    ) {
        let n = particles.len();
        let mut positions = Vec::with_capacity(n);
        let mut velocities = Vec::with_capacity(n);
        let mut forces = Vec::with_capacity(n);
        for (r, v, f) in particles {
            positions.push(r);
            velocities.push(v);
            forces.push(f);
        }
        let obs: std::collections::BTreeMap<String, f64> = obs_vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("obs_{i}"), v))
            .collect();
        let extras: std::collections::BTreeMap<String, f64> = extra_vals
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("carry.x{i}"), v))
            .collect();
        let cp = Checkpoint {
            job: format!("prop-{step}"),
            step,
            dt: scalars[0],
            seed,
            // A box edge is a length: positive (`parse` refuses the rest).
            l: scalars[1].abs(),
            species: vec![
                Species { name: "Na+".into(), mass: scalars[2], charge: scalars[3] },
                Species { name: "Cl-".into(), mass: scalars[4], charge: scalars[5] },
            ],
            types: (0..n).map(|i| (i % 2) as u8).collect(),
            positions,
            velocities,
            forces,
            potential: scalars[6],
            coulomb: scalars[7],
            short_range: scalars[8],
            virial: scalars[9],
            observables: obs,
            extras,
        };
        // A box edge that is no length is refused, not decoded.
        if cp.l == 0.0 {
            prop_assert!(Checkpoint::parse(&cp.to_line()).is_err());
            return;
        }
        let back = Checkpoint::parse(&cp.to_line()).expect("round-trip");
        prop_assert_eq!(&back, &cp);
        for (a, b) in [(cp.dt, back.dt), (cp.l, back.l), (cp.potential, back.potential), (cp.virial, back.virial)] {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in cp.positions.iter().zip(&back.positions) {
            prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
            prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            prop_assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        for (a, b) in cp.forces.iter().zip(&back.forces) {
            prop_assert_eq!(a.x.to_bits(), b.x.to_bits());
            prop_assert_eq!(a.y.to_bits(), b.y.to_bits());
            prop_assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        for (k, v) in &cp.observables {
            prop_assert_eq!(back.observables[k].to_bits(), v.to_bits());
        }
    }

    /// Ewald total energy is invariant under rigid translation of all
    /// particles (any translation, including across the boundary).
    #[test]
    fn ewald_translation_invariance(seed in 0u64..10, shift in arb_vec3(11.0)) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let l = 11.0;
        let sb = SimBox::cubic(l);
        let n = 12;
        let pos: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let e0 = ewald_coulomb(sb, &pos).coulomb;
        let moved: Vec<Vec3> = pos.iter().map(|&p| sb.wrap(p + shift)).collect();
        let e1 = ewald_coulomb(sb, &moved).coulomb;
        prop_assert!(((e0 - e1) / e0).abs() < 1e-10, "{e0} vs {e1}");
    }
}

proptest! {
    // Cheap cases: many of them, so every bit-pattern class shows up
    // in every field.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The streamed codec is the `Value`-tree codec, byte for byte and
    /// bit for bit, on every bit pattern: `to_line` writes the oracle's
    /// line, and `parse` reads both lines back to the same bits.
    #[test]
    fn streamed_checkpoint_codec_matches_the_value_oracle(
        particles in prop::collection::vec(
            (arb_any_bits_f64(), arb_any_bits_f64(), arb_any_bits_f64()),
            0..7,
        ),
        step in any::<u64>(),
        seed in any::<u64>(),
        scalars in prop::collection::vec(arb_any_bits_f64(), 10..11),
        names in prop::collection::vec(arb_name(), 3..4),
        obs_vals in prop::collection::vec(arb_any_bits_f64(), 0..4),
        extra_vals in prop::collection::vec(arb_any_bits_f64(), 0..4),
    ) {
        let n = particles.len();
        let cp = Checkpoint {
            job: names[0].clone(),
            step,
            dt: scalars[0],
            seed,
            l: scalars[1],
            species: vec![
                Species { name: names[1].clone(), mass: scalars[2], charge: scalars[3] },
                Species { name: names[2].clone(), mass: scalars[4], charge: scalars[5] },
            ],
            types: (0..n).map(|i| (i % 2) as u8).collect(),
            positions: particles.iter().map(|p| Vec3::new(p.0, p.1, p.2)).collect(),
            velocities: particles.iter().map(|p| Vec3::new(p.2, p.0, p.1)).collect(),
            forces: particles.iter().map(|p| Vec3::new(p.1, p.2, p.0)).collect(),
            potential: scalars[6],
            coulomb: scalars[7],
            short_range: scalars[8],
            virial: scalars[9],
            observables: obs_vals.iter().enumerate().map(|(i, &v)| (format!("{}{i}", names[1]), v)).collect(),
            extras: extra_vals.iter().enumerate().map(|(i, &v)| (format!("carry.{}{i}", names[2]), v)).collect(),
        };
        let line = cp.to_line();
        prop_assert_eq!(&line, &checkpoint_oracle::to_line(&cp));
        // NaN is not equal to itself: compare what the decoders read by
        // its encoding, which spells every bit.
        // Both refuse a box edge that is no length.
        if !(cp.l.is_finite() && cp.l > 0.0) {
            prop_assert!(Checkpoint::parse(&line).is_err());
            prop_assert!(checkpoint_oracle::parse(&line).is_err());
            return;
        }
        let streamed = Checkpoint::parse(&line).expect("streamed decode");
        let oracle = checkpoint_oracle::parse(&line).expect("oracle decode");
        prop_assert_eq!(streamed.to_line(), line.clone());
        prop_assert_eq!(checkpoint_oracle::to_line(&oracle), line);
    }
}
