//! Accuracy and effective-speed sample types (paper §5, Table 4,
//! Figure 5).
//!
//! The paper's headline number is *effective* speed: raw Tflops
//! re-costed by what the delivered accuracy would cost a conventional
//! machine (5.88·10¹³ flops/step at the paper's spec → 1.34 Tflops
//! effective from 15.4 Tflops raw). These types carry the two
//! measured inputs of that computation — RMS force error from the
//! on-line probe ([`ForceErrorSample`]) and flop throughput from the
//! emulator interaction counters ([`SpeedSample`]). A run streams
//! them as step-event observables (`force_error_rel`, `raw_tflops`,
//! `effective_tflops`) and reduces them into its ledger row.
//!
//! They live in `mdm-profile` (not `mdm-core`) because the ledger
//! reduction and the report tooling need them without a dependency on
//! the physics crates.

/// One on-line force-error measurement: RMS error of the production
/// forces against a well-converged f64 reference Ewald, over a sample
/// of particles (Figure 5's y-axis is `relative()`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ForceErrorSample {
    /// Step index the probe ran at.
    pub step: u64,
    /// Number of particles sampled.
    pub sampled: u64,
    /// RMS of the reference force magnitude over the sample (eV/Å).
    pub rms_force: f64,
    /// RMS of `|F_run − F_ref|` over the sample (eV/Å).
    pub rms_error: f64,
}

impl ForceErrorSample {
    /// Relative RMS force error `rms_error / rms_force` — the
    /// quantity Figure 5 plots (`≈ 10⁻⁴·⁵` at the paper's accuracy
    /// parameters).
    pub fn relative(&self) -> f64 {
        if self.rms_force > 0.0 {
            self.rms_error / self.rms_force
        } else {
            f64::INFINITY
        }
    }
}

/// One step's flop-throughput measurement, combining measured
/// wall-clock with the machine's interaction counters and the paper's
/// flop-accounting constants (59 flops/pair, 64 flops/particle–wave).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedSample {
    /// Step index.
    pub step: u64,
    /// Measured wall-clock for the step (s).
    pub wall_seconds: f64,
    /// Real-space flops actually performed: `59 × pair interactions`.
    pub real_flops: f64,
    /// Wavenumber-space flops: `29 × DFT ops + 35 × IDFT ops`.
    pub wave_flops: f64,
    /// Conventional-minimum flops for the run's *nominal* accuracy
    /// (§5: best-known algorithm at the same `s_r`/`s_k`).
    pub conventional_flops: f64,
    /// Conventional minimum re-costed at the *measured* RMS force
    /// error, when a probe sample exists for (or before) this step.
    pub conventional_flops_measured: Option<f64>,
}

impl SpeedSample {
    /// Total flops the machine performed this step.
    pub fn raw_flops(&self) -> f64 {
        self.real_flops + self.wave_flops
    }

    /// Raw speed in flops/s (Table 4's "calculation speed").
    pub fn raw_flops_per_s(&self) -> f64 {
        self.raw_flops() / self.wall_seconds
    }

    /// Effective speed in flops/s (Table 4's "effective speed"):
    /// conventional-minimum flops — at the measured accuracy when
    /// available, else the nominal accuracy — per measured second.
    pub fn effective_flops_per_s(&self) -> f64 {
        self.conventional_flops_measured.unwrap_or(self.conventional_flops) / self.wall_seconds
    }

    /// Raw speed in Tflops.
    pub fn raw_tflops(&self) -> f64 {
        self.raw_flops_per_s() / 1e12
    }

    /// Effective speed in Tflops.
    pub fn effective_tflops(&self) -> f64 {
        self.effective_flops_per_s() / 1e12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_speeds() -> [SpeedSample; 2] {
        [
            SpeedSample {
                step: 0,
                wall_seconds: 0.5,
                real_flops: 4e9,
                wave_flops: 1e9,
                conventional_flops: 2e9,
                conventional_flops_measured: None,
            },
            SpeedSample {
                step: 1,
                wall_seconds: 0.5,
                real_flops: 4e9,
                wave_flops: 1e9,
                conventional_flops: 2e9,
                conventional_flops_measured: Some(1.5e9),
            },
        ]
    }

    #[test]
    fn speed_sample_rates() {
        let speeds = sample_speeds();
        let s = &speeds[0];
        assert!((s.raw_flops() - 5e9).abs() < 1.0);
        assert!((s.raw_flops_per_s() - 1e10).abs() < 1.0);
        assert!((s.effective_flops_per_s() - 4e9).abs() < 1.0);
        // Measured re-costing takes precedence when present.
        assert!((speeds[1].effective_flops_per_s() - 3e9).abs() < 1.0);
        assert!((s.raw_tflops() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn force_error_relative() {
        let f = ForceErrorSample {
            step: 0,
            sampled: 8,
            rms_force: 2.0,
            rms_error: 6e-5,
        };
        assert!((f.relative() - 3e-5).abs() < 1e-18);
        let zero = ForceErrorSample { rms_force: 0.0, ..f };
        assert!(zero.relative().is_infinite());
    }
}
