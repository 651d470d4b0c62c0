//! The Tosi–Fumi (Born–Mayer–Huggins) force field, paper eq. 15:
//!
//! ```text
//! φ(r) = qᵢqⱼ/r + Aᵢⱼ·b·exp((σᵢ+σⱼ−r)/ρ) − cᵢⱼ/r⁶ − dᵢⱼ/r⁸
//! ```
//!
//! The Coulomb term is handled by the Ewald module; this type implements
//! the repulsion + dispersion remainder with the original Tosi & Fumi
//! (J. Phys. Chem. Solids 25, 45 (1964)) parameters for NaCl, the force
//! field the paper used for its 9-million-pair run.

use super::ShortRangePotential;
use crate::system::MAX_SPECIES;

/// Parameters of the Born–Mayer–Huggins form for a set of species.
#[derive(Clone, Debug)]
pub struct TosiFumiParams {
    /// The common repulsion scale `b`, eV.
    pub b: f64,
    /// Softness `ρ`, Å.
    pub rho: f64,
    /// Per-species repulsion radii `σᵢ`, Å.
    pub sigma: Vec<f64>,
    /// Pauling factors `Aᵢⱼ`, indexed `[ti][tj]`.
    pub pauling: Vec<Vec<f64>>,
    /// `cᵢⱼ` dispersion, eV·Å⁶.
    pub c6: Vec<Vec<f64>>,
    /// `dᵢⱼ` dispersion, eV·Å⁸.
    pub d8: Vec<Vec<f64>>,
}

impl TosiFumiParams {
    /// The Tosi–Fumi NaCl parameter set (species 0 = Na⁺, 1 = Cl⁻).
    ///
    /// Values converted from the CGS originals:
    /// `b = 0.338×10⁻¹⁹ J`, `ρ = 0.317 Å`, `σ₊ = 1.170 Å`,
    /// `σ₋ = 1.585 Å`, Pauling factors 1.25 / 1.00 / 0.75,
    /// `c₊₊, c₊₋, c₋₋ = 1.68, 11.2, 116 ×10⁻⁷⁹ J·m⁶`,
    /// `d₊₊, d₊₋, d₋₋ = 0.8, 13.9, 233 ×10⁻⁹⁹ J·m⁸`.
    pub fn nacl() -> Self {
        // 0.338e-19 J = 0.338e-19 / 1.602176634e-19 eV.
        let b = 0.338e-19 / 1.602_176_634e-19;
        // 1e-79 J·m⁶ = (1/1.602176634e-19) eV × 1e60 Å⁶ × 1e-79.
        let c_unit = 1e-79 / 1.602_176_634e-19 * 1e60;
        // 1e-99 J·m⁸ → eV·Å⁸.
        let d_unit = 1e-99 / 1.602_176_634e-19 * 1e80;
        Self {
            b,
            rho: 0.317,
            sigma: vec![1.170, 1.585],
            pauling: vec![vec![1.25, 1.00], vec![1.00, 0.75]],
            c6: vec![
                vec![1.68 * c_unit, 11.2 * c_unit],
                vec![11.2 * c_unit, 116.0 * c_unit],
            ],
            d8: vec![
                vec![0.8 * d_unit, 13.9 * d_unit],
                vec![13.9 * d_unit, 233.0 * d_unit],
            ],
        }
    }

    fn validate(&self) {
        let n = self.sigma.len();
        assert!(n > 0 && n <= MAX_SPECIES, "1..={MAX_SPECIES} species");
        assert!(self.b > 0.0 && self.rho > 0.0);
        for m in [&self.pauling, &self.c6, &self.d8] {
            assert_eq!(m.len(), n, "matrix row count");
            for row in m {
                assert_eq!(row.len(), n, "matrix column count");
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert_eq!(self.pauling[i][j], self.pauling[j][i], "Aᵢⱼ symmetric");
                assert_eq!(self.c6[i][j], self.c6[j][i], "cᵢⱼ symmetric");
                assert_eq!(self.d8[i][j], self.d8[j][i], "dᵢⱼ symmetric");
            }
        }
    }
}

/// The evaluatable force field: parameters plus precomputed pair
/// prefactors.
#[derive(Clone, Debug)]
pub struct TosiFumi {
    params: TosiFumiParams,
    /// `Bᵢⱼ = Aᵢⱼ·b·exp((σᵢ+σⱼ)/ρ)` — the Born–Mayer prefactor with the
    /// σ shift folded in, so the kernel is a pure `exp(−r/ρ)`. This is
    /// also exactly the `bᵢⱼ`-style coefficient an MDGRAPE-2 pass uses.
    bm_prefactor: Vec<Vec<f64>>,
    n: usize,
}

impl TosiFumi {
    /// Build from parameters (validates shapes and symmetry).
    pub fn new(params: TosiFumiParams) -> Self {
        params.validate();
        let n = params.sigma.len();
        let mut bm = vec![vec![0.0; n]; n];
        for (i, row) in bm.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = params.pauling[i][j]
                    * params.b
                    * ((params.sigma[i] + params.sigma[j]) / params.rho).exp();
            }
        }
        Self {
            params,
            bm_prefactor: bm,
            n,
        }
    }

    /// The standard NaCl instance.
    pub fn nacl() -> Self {
        Self::new(TosiFumiParams::nacl())
    }

    /// Parameter access.
    pub fn params(&self) -> &TosiFumiParams {
        &self.params
    }

    /// The folded Born–Mayer prefactor `Bᵢⱼ = Aᵢⱼ·b·e^((σᵢ+σⱼ)/ρ)`,
    /// used directly by the MDGRAPE-2 pass decomposition.
    pub fn born_mayer_prefactor(&self, ti: usize, tj: usize) -> f64 {
        self.bm_prefactor[ti][tj]
    }

    /// `cᵢⱼ` in eV·Å⁶.
    pub fn c6(&self, ti: usize, tj: usize) -> f64 {
        self.params.c6[ti][tj]
    }

    /// `dᵢⱼ` in eV·Å⁸.
    pub fn d8(&self, ti: usize, tj: usize) -> f64 {
        self.params.d8[ti][tj]
    }

    /// Softness `ρ` (Å).
    pub fn rho(&self) -> f64 {
        self.params.rho
    }
}

impl ShortRangePotential for TosiFumi {
    fn energy(&self, ti: usize, tj: usize, r: f64) -> f64 {
        debug_assert!(r > 0.0);
        let rep = self.bm_prefactor[ti][tj] * (-r / self.params.rho).exp();
        let r2 = r * r;
        let r6 = r2 * r2 * r2;
        let r8 = r6 * r2;
        rep - self.params.c6[ti][tj] / r6 - self.params.d8[ti][tj] / r8
    }

    fn force_over_r(&self, ti: usize, tj: usize, r: f64) -> f64 {
        // A NaN separation (a diverged run) passes through as NaN.
        debug_assert!(r > 0.0 || r.is_nan());
        // −φ'(r)/r with φ' = −B/ρ·e^(−r/ρ) + 6c/r⁷ + 8d/r⁹.
        let rep = self.bm_prefactor[ti][tj] * (-r / self.params.rho).exp() / (self.params.rho * r);
        let r2 = r * r;
        let r8 = r2 * r2 * r2 * r2;
        let r10 = r8 * r2;
        rep - 6.0 * self.params.c6[ti][tj] / r8 - 8.0 * self.params.d8[ti][tj] / r10
    }

    fn n_species(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::potentials::test_util::check_force_consistency;
    use crate::units::COULOMB_EV_A;

    #[test]
    fn parameter_conversions() {
        let p = TosiFumiParams::nacl();
        assert!((p.b - 0.2110).abs() < 5e-4, "b = {} eV", p.b);
        assert!((p.c6[0][0] - 1.0486).abs() < 0.01, "c++ = {}", p.c6[0][0]);
        assert!((p.c6[1][1] - 72.40).abs() < 0.2, "c-- = {}", p.c6[1][1]);
        assert!((p.d8[0][1] - 8.676).abs() < 0.05, "d+- = {}", p.d8[0][1]);
        assert!((p.d8[1][1] - 145.4).abs() < 0.5, "d-- = {}", p.d8[1][1]);
    }

    #[test]
    fn force_is_energy_gradient() {
        check_force_consistency(&TosiFumi::nacl(), 1.8, 8.0);
    }

    #[test]
    fn repulsive_at_short_range_attractive_at_long_range() {
        let tf = TosiFumi::nacl();
        // Na-Cl contact: strongly repulsive well inside σ₊+σ₋ = 2.755 Å.
        assert!(tf.force_over_r(0, 1, 1.8) > 0.0);
        // At long range dispersion (−c/r⁶) wins: attractive.
        assert!(tf.force_over_r(0, 1, 6.0) < 0.0);
    }

    #[test]
    fn lattice_energy_near_experiment() {
        // Rock-salt lattice sum at the equilibrium spacing: the Tosi-Fumi
        // fit reproduces the NaCl lattice energy of ≈ −8.0 eV/ion-pair
        // (experiment: −8.15 eV including zero-point corrections).
        let tf = TosiFumi::nacl();
        let a0 = 2.820; // nearest-neighbour spacing Å (a = 5.64)
        let madelung = 1.747_564_594_633_182_2;
        let coulomb = -madelung * COULOMB_EV_A / a0;
        // Short-range lattice sum over shells (converges fast).
        let mut short = 0.0;
        let range = 6i32;
        for dx in -range..=range {
            for dy in -range..=range {
                for dz in -range..=range {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let r = a0 * ((dx * dx + dy * dy + dz * dz) as f64).sqrt();
                    let tj = ((dx + dy + dz).rem_euclid(2)) as usize; // 0: same species as Na
                    // Site occupied by Na (type 0) if parity even else Cl.
                    let e = tf.energy(0, tj, r);
                    short += 0.5 * e;
                }
            }
        }
        // Per ion pair = per Na + per Cl; by symmetry Cl's short-range sum
        // differs (different species matrix), compute it too.
        let mut short_cl = 0.0;
        for dx in -range..=range {
            for dy in -range..=range {
                for dz in -range..=range {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let r = a0 * ((dx * dx + dy * dy + dz * dz) as f64).sqrt();
                    let tj = 1 - ((dx + dy + dz).rem_euclid(2)) as usize;
                    short_cl += 0.5 * tf.energy(1, tj, r);
                }
            }
        }
        let per_pair = 2.0 * coulomb / 2.0 + short + short_cl;
        assert!(
            (-8.4..-7.4).contains(&per_pair),
            "lattice energy {per_pair} eV/pair"
        );
    }

    #[test]
    fn equilibrium_spacing_near_experimental() {
        // Scan the lattice energy vs nearest-neighbour spacing; the
        // minimum should fall within ~2% of the experimental 2.82 Å.
        let tf = TosiFumi::nacl();
        let madelung = 1.747_564_594_633_182_2;
        let lattice_energy = |a0: f64| -> f64 {
            let coulomb = -madelung * COULOMB_EV_A / a0;
            let mut short = 0.0;
            let range = 5i32;
            for ti in 0..2usize {
                for dx in -range..=range {
                    for dy in -range..=range {
                        for dz in -range..=range {
                            if dx == 0 && dy == 0 && dz == 0 {
                                continue;
                            }
                            let r = a0 * ((dx * dx + dy * dy + dz * dz) as f64).sqrt();
                            let parity = ((dx + dy + dz).rem_euclid(2)) as usize;
                            let tj = if parity == 0 { ti } else { 1 - ti };
                            short += 0.5 * tf.energy(ti, tj, r);
                        }
                    }
                }
            }
            coulomb + short
        };
        let mut best = (0.0, f64::INFINITY);
        let mut a0 = 2.60;
        while a0 <= 3.05 {
            let e = lattice_energy(a0);
            if e < best.1 {
                best = (a0, e);
            }
            a0 += 0.005;
        }
        assert!(
            (best.0 - 2.82).abs() < 0.06,
            "equilibrium spacing {} Å",
            best.0
        );
    }

    #[test]
    #[should_panic]
    fn asymmetric_matrix_rejected() {
        let mut p = TosiFumiParams::nacl();
        p.c6[0][1] = 999.0;
        TosiFumi::new(p);
    }
}
