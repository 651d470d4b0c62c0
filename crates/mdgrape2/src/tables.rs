//! The g(x) function tables of the MDM NaCl production run — generated
//! by the "separate utility program" of §4 and loaded with `MR1SetTable`.
//!
//! One pass of `MR1calcvdw_block2` evaluates one global `g`, so a
//! multi-term force field is composed from several passes with
//! different tables and per-pair coefficients. For the paper's system:
//!
//! | pass | kernel `g(x)` | `aᵢⱼ` | `bᵢⱼ` |
//! |---|---|---|---|
//! | Ewald-real Coulomb force (§3.5.4) | `2e⁻ˣ/(√π x) + erfc(√x)/x³ᐟ²` | `κ² = (α/L)²` | `C·qᵢqⱼ·κ³` |
//! | Born–Mayer repulsion force | `e^(−√x)/√x` | `1/ρ²` | `Aᵢⱼ·b·e^(σᵢⱼ/ρ)/ρ²` |
//! | `r⁻⁶` dispersion force | `x⁻⁴` | `1` | `−6·cᵢⱼ` |
//! | `r⁻⁸` dispersion force | `x⁻⁵` | `1` | `−8·dᵢⱼ` |
//! | Lennard-Jones force (eq. 4) | `2x⁻⁷ − x⁻⁴` | `σᵢⱼ⁻²` | `εᵢⱼ` |
//!
//! plus the matching energy kernels for the every-100-steps potential
//! evaluation.

use mdm_core::special::erfc_expansion;
use mdm_funceval::{FunctionEvaluator, FunctionTable, Segmentation, TableBuildError};

/// The built-in kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GFunction {
    /// Ewald real-space Coulomb **force**: with `x = κ²r²`,
    /// `f⃗ = b·g(x)·r⃗`, `b = C·qᵢqⱼ·κ³`.
    CoulombRealForce,
    /// Ewald real-space Coulomb **energy**: `E = b·g(x)`, `b = C·qᵢqⱼ·κ`.
    CoulombRealEnergy,
    /// Born–Mayer repulsion force: with `x = r²/ρ²` and the prefactor
    /// `Bᵢⱼ = Aᵢⱼ·b·e^(σᵢⱼ/ρ)`, setting `b = Bᵢⱼ/ρ²` gives
    /// `f⃗ = b·g(x)·r⃗` of magnitude `(Bᵢⱼ/ρ)·e^(−r/ρ)` — the gradient of
    /// the Born–Mayer energy.
    BornMayerForce,
    /// Born–Mayer repulsion energy: `E = b·g(x)`.
    BornMayerEnergy,
    /// `r⁻⁶` dispersion force: `g = x⁻⁴` (`a = 1`, `b = −6c`).
    Dispersion6Force,
    /// `r⁻⁶` dispersion energy: `g = x⁻³` (`b = −c`).
    Dispersion6Energy,
    /// `r⁻⁸` dispersion force: `g = x⁻⁵` (`b = −8d`).
    Dispersion8Force,
    /// `r⁻⁸` dispersion energy: `g = x⁻⁴` (`b = −d`).
    Dispersion8Energy,
    /// Lennard-Jones force in the paper's eq. 4 form: `g = 2x⁻⁷ − x⁻⁴`
    /// (`a = σ⁻²`, `b = ε`).
    LennardJonesForce,
    /// Lennard-Jones energy: `g = (x⁻⁶ − x⁻³)·/6·σ²`-scaled variant
    /// `g = x⁻⁶ − x⁻³` (`b = ε·σ²/6`).
    LennardJonesEnergy,
}

impl GFunction {
    /// The exact `f64` kernel (used for table generation and as the
    /// reference in accuracy tests). The Coulomb kernels take their
    /// `erfc` from the defining expansions rather than the fitted
    /// `erfc`: the two agree to 10⁻¹⁴, but the coefficient-RAM images
    /// are pinned bit for bit (`table_images_are_pinned` in `mdm-host`)
    /// and 38 fourth-order `f32` coefficients would move by an ulp.
    pub fn eval(&self, x: f64) -> f64 {
        match self {
            Self::CoulombRealForce => {
                let sx = x.sqrt();
                2.0 * (-x).exp() / (std::f64::consts::PI.sqrt() * x)
                    + erfc_expansion(sx) / (x * sx)
            }
            Self::CoulombRealEnergy => erfc_expansion(x.sqrt()) / x.sqrt(),
            Self::BornMayerForce => {
                let sx = x.sqrt();
                (-sx).exp() / sx
            }
            Self::BornMayerEnergy => (-x.sqrt()).exp(),
            Self::Dispersion6Force => x.powi(-4),
            Self::Dispersion6Energy => x.powi(-3),
            Self::Dispersion8Force => x.powi(-5),
            Self::Dispersion8Energy => x.powi(-4),
            Self::LennardJonesForce => 2.0 * x.powi(-7) - x.powi(-4),
            Self::LennardJonesEnergy => x.powi(-6) - x.powi(-3),
        }
    }

    /// The segmentation appropriate for this kernel: steep inverse
    /// powers need the domain floor raised so the f32 coefficient RAM
    /// does not overflow; the physical `x` of real pairs never reaches
    /// the floor (closest approach in NaCl is ~2 Å).
    pub fn segmentation(&self) -> Segmentation {
        match self {
            Self::CoulombRealForce | Self::CoulombRealEnergy => Segmentation::new(-24, 24, 4),
            Self::BornMayerForce | Self::BornMayerEnergy => Segmentation::new(-24, 24, 4),
            Self::Dispersion6Force | Self::Dispersion6Energy => Segmentation::new(-8, 24, 5),
            Self::Dispersion8Force | Self::Dispersion8Energy => Segmentation::new(-6, 26, 5),
            Self::LennardJonesForce | Self::LennardJonesEnergy => Segmentation::new(-4, 12, 6),
        }
    }

    /// A short name (diagnostics).
    pub fn name(&self) -> &'static str {
        match self {
            Self::CoulombRealForce => "coulomb-real-force",
            Self::CoulombRealEnergy => "coulomb-real-energy",
            Self::BornMayerForce => "born-mayer-force",
            Self::BornMayerEnergy => "born-mayer-energy",
            Self::Dispersion6Force => "dispersion6-force",
            Self::Dispersion6Energy => "dispersion6-energy",
            Self::Dispersion8Force => "dispersion8-force",
            Self::Dispersion8Energy => "dispersion8-energy",
            Self::LennardJonesForce => "lennard-jones-force",
            Self::LennardJonesEnergy => "lennard-jones-energy",
        }
    }

    /// Generate the coefficient-RAM image (the §4 utility program).
    pub fn build_table(&self) -> Result<FunctionTable, TableBuildError> {
        let g = *self;
        FunctionTable::generate(self.name(), self.segmentation(), move |x| g.eval(x))
    }

    /// Convenience: a ready evaluator.
    pub fn build_evaluator(&self) -> Result<FunctionEvaluator, TableBuildError> {
        Ok(FunctionEvaluator::new(self.build_table()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_core::special::erfc;

    const ALL: [GFunction; 10] = [
        GFunction::CoulombRealForce,
        GFunction::CoulombRealEnergy,
        GFunction::BornMayerForce,
        GFunction::BornMayerEnergy,
        GFunction::Dispersion6Force,
        GFunction::Dispersion6Energy,
        GFunction::Dispersion8Force,
        GFunction::Dispersion8Energy,
        GFunction::LennardJonesForce,
        GFunction::LennardJonesEnergy,
    ];

    #[test]
    fn all_tables_build() {
        for g in ALL {
            g.build_table().unwrap_or_else(|e| panic!("{}: {e}", g.name()));
        }
    }

    #[test]
    fn tables_accurate_in_physical_range() {
        // Physical x ranges where each kernel carries non-negligible
        // force: Coulomb x = κ²r² ∈ [~0.05, s_r² ≈ 8]; Born–Mayer
        // x = r²/ρ² up to ~300 (beyond, e^(−√x) < 1e-8 of the contact
        // value); dispersion x = r² up to the cutoff².
        let cases: [(GFunction, f64, f64); 4] = [
            (GFunction::CoulombRealForce, 0.05, 8.0),
            (GFunction::BornMayerForce, 20.0, 300.0),
            (GFunction::Dispersion6Force, 3.0, 1000.0),
            (GFunction::Dispersion8Force, 3.0, 1000.0),
        ];
        for (g, lo, hi) in cases {
            let t = g.build_table().unwrap();
            let err = t.measured_max_rel_error(|x| g.eval(x), lo, hi, 10_000, 1e-300);
            assert!(err < 5e-5, "{}: err {err}", g.name());
        }
        // The LJ force kernel crosses zero at x = 2^(1/3): measure the
        // error against the kernel's natural scale there (floor = 0.01,
        // vs g(1) = 1).
        let lj = GFunction::LennardJonesForce;
        let t = lj.build_table().unwrap();
        let err = t.measured_max_rel_error(|x| lj.eval(x), 0.5, 10.0, 10_000, 1e-2);
        assert!(err < 5e-5, "lennard-jones-force: err {err}");
        // Beyond the physical range the table's *absolute* error is
        // negligible even where its relative error grows: the kernel
        // itself has decayed below 1e-11 of its contact value.
        let bm = GFunction::BornMayerForce;
        assert!(bm.eval(600.0) / bm.eval(30.0) < 1e-8);
    }

    #[test]
    fn a_coarse_table_reads_far_above_the_production_tables() {
        // The fit residual is relative to the table's largest |g|: every
        // production table reads at f32 coefficient rounding, and the
        // Coulomb force kernel fitted at one segment per octave instead
        // of sixteen reads at least 100x more.
        let production = ALL
            .iter()
            .map(|g| g.build_table().unwrap().fit_residual_max())
            .fold(0.0, f64::max);
        assert!(production < 1e-6, "production tables read {production}");
        let g = GFunction::CoulombRealForce;
        let coarse =
            FunctionTable::generate("coarse", Segmentation::new(-24, 24, 0), |x| g.eval(x)).unwrap();
        assert!(
            coarse.fit_residual_max() >= 100.0 * production,
            "coarse {} vs production {production}",
            coarse.fit_residual_max()
        );
    }

    #[test]
    fn coulomb_force_kernel_identity() {
        // b·g(κ²r²)·r with b = C·q²·κ³ must equal the Ewald real-space
        // force magnitude C·q²·[erfc(κr)/r + 2κ/√π·e^(−κ²r²)]/r².
        let kappa: f64 = 0.1;
        for r in [2.0f64, 5.0, 12.0] {
            let x = kappa * kappa * r * r;
            let lhs = kappa.powi(3) * GFunction::CoulombRealForce.eval(x);
            let rhs = (erfc(kappa * r) / r
                + 2.0 * kappa / std::f64::consts::PI.sqrt() * (-kappa * kappa * r * r).exp())
                / (r * r);
            assert!(((lhs - rhs) / rhs).abs() < 1e-12, "r={r}: {lhs} vs {rhs}");
        }
    }

    #[test]
    fn coulomb_energy_kernel_identity() {
        // b·g(κ²r²) with b = C·q²·κ equals C·q²·erfc(κr)/r.
        let kappa: f64 = 0.23;
        for r in [1.5f64, 4.0, 9.0] {
            let x = kappa * kappa * r * r;
            let lhs = kappa * GFunction::CoulombRealEnergy.eval(x);
            let rhs = erfc(kappa * r) / r;
            assert!(((lhs - rhs) / rhs).abs() < 1e-12);
        }
    }

    #[test]
    fn born_mayer_kernel_identity() {
        // (B/ρ)·g(r²/ρ²)·r = (B/ρ)·e^(−r/ρ)·(r/(r/ρ))/... :
        // with a = ρ⁻², b = B/ρ: b·g(a r²)·r = B·e^(−r/ρ)·r/(ρ·(r/ρ))
        // = B·e^(−r/ρ) — the correct force magnitude is (B/ρ)e^(−r/ρ),
        // so the force relation f⃗ = b·g·r⃗ gives
        // |f⃗| = (B/ρ)·e^(−r/ρ)·(r/r)·... verify numerically:
        let rho: f64 = 0.317;
        let b_phys: f64 = 42.0; // Born-Mayer prefactor B
        for r in [2.0f64, 3.5, 6.0] {
            let x = (r / rho).powi(2);
            // f⃗ = b·g(x)·r⃗ with b = B/ρ²... |f| = b·g·r.
            let b_coeff = b_phys / (rho * rho);
            let f = b_coeff * GFunction::BornMayerForce.eval(x) * r;
            let expect = b_phys / rho * (-r / rho).exp();
            assert!(((f - expect) / expect).abs() < 1e-12, "r={r}: {f} vs {expect}");
        }
    }

    #[test]
    fn lennard_jones_matches_eq4() {
        // g = 2x⁻⁷ − x⁻⁴ at x = (r/σ)² reproduces eq. 4's bracket.
        let sigma: f64 = 3.4;
        let r: f64 = 3.8;
        let x = (r / sigma) * (r / sigma);
        let g = GFunction::LennardJonesForce.eval(x);
        let expect = 2.0 * (sigma / r).powi(14) - (sigma / r).powi(8);
        assert!(((g - expect) / expect).abs() < 1e-12);
    }

    #[test]
    fn dispersion_identities() {
        // b·g(r²)·r⃗ with g = x⁻⁴, b = −6c gives −6c/r⁸·r⃗ = −6c/r⁷·r̂.
        let c: f64 = 7.0;
        let r: f64 = 3.0;
        let f = -6.0 * c * GFunction::Dispersion6Force.eval(r * r) * r;
        assert!(((f - (-6.0 * c / r.powi(7))) / f).abs() < 1e-12);
        let d: f64 = 11.0;
        let f8 = -8.0 * d * GFunction::Dispersion8Force.eval(r * r) * r;
        assert!(((f8 - (-8.0 * d / r.powi(9))) / f8).abs() < 1e-12);
    }
}
