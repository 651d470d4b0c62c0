//! Accuracy and effective-speed report types (paper §5, Table 4,
//! Figure 5).
//!
//! The paper's headline number is *effective* speed: raw Tflops
//! re-costed by what the delivered accuracy would cost a conventional
//! machine (5.88·10¹³ flops/step at the paper's spec → 1.34 Tflops
//! effective from 15.4 Tflops raw). These types carry the two
//! measured inputs of that computation — RMS force error from the
//! on-line probe ([`ForceErrorSample`]) and flop throughput from the
//! emulator interaction counters ([`SpeedSample`]) — plus the
//! [`AccuracyReport`] artifact the `accuracy_report` binary emits.
//!
//! They live in `mdm-profile` (not `mdm-core`) because the flight
//! recorder and the report tooling need them without a dependency on
//! the physics crates.

use crate::json::{obj, Value};

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

    /// Flight-recorder JSON form.
    pub fn to_json(&self) -> Value {
        obj([
            ("step", Value::from_u64(self.step)),
            ("sampled", Value::from_u64(self.sampled)),
            ("rms_force", Value::from_f64(self.rms_force)),
            ("rms_error", Value::from_f64(self.rms_error)),
        ])
    }

    /// Parse the [`Self::to_json`] form back.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            step: v.req_u64("step")?,
            sampled: v.req_u64("sampled")?,
            rms_force: v.req_f64("rms_force")?,
            rms_error: v.req_f64("rms_error")?,
        })
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

    /// Flight-recorder JSON form.
    pub fn to_json(&self) -> Value {
        let mut v = obj([
            ("step", Value::from_u64(self.step)),
            ("wall_seconds", Value::from_f64(self.wall_seconds)),
            ("real_flops", Value::from_f64(self.real_flops)),
            ("wave_flops", Value::from_f64(self.wave_flops)),
            ("conventional_flops", Value::from_f64(self.conventional_flops)),
        ]);
        if let (Value::Obj(map), Some(m)) = (&mut v, self.conventional_flops_measured) {
            map.insert("conventional_flops_measured".into(), Value::from_f64(m));
        }
        v
    }

    /// Parse the [`Self::to_json`] form back.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Self {
            step: v.req_u64("step")?,
            wall_seconds: v.req_f64("wall_seconds")?,
            real_flops: v.req_f64("real_flops")?,
            wave_flops: v.req_f64("wave_flops")?,
            conventional_flops: v.req_f64("conventional_flops")?,
            conventional_flops_measured: v.opt_f64("conventional_flops_measured"),
        })
    }
}

/// The `accuracy_report.json` artifact: the per-step probe and speed
/// samples of one recorded run. A container only — the run's
/// aggregates (raw / effective Tflops, worst force error) are columns
/// of its [`crate::ledger::RunRecord`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccuracyReport {
    /// Run label (e.g. `nacl_cells3`).
    pub label: String,
    /// Particle count.
    pub n_particles: u64,
    /// Steps recorded.
    pub steps: u64,
    /// Probe samples, in step order.
    pub force_errors: Vec<ForceErrorSample>,
    /// Per-step speed samples, in step order.
    pub speeds: Vec<SpeedSample>,
}

impl AccuracyReport {
    /// Serialize the report (the CI artifact format).
    pub fn to_json(&self) -> Value {
        obj([
            ("label", Value::Str(self.label.clone())),
            ("n_particles", Value::from_u64(self.n_particles)),
            ("steps", Value::from_u64(self.steps)),
            (
                "force_errors",
                Value::Arr(self.force_errors.iter().map(ForceErrorSample::to_json).collect()),
            ),
            (
                "speeds",
                Value::Arr(self.speeds.iter().map(SpeedSample::to_json).collect()),
            ),
        ])
    }

    /// Parse the [`Self::to_json`] form back.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let force_errors = v.arr("force_errors")?.iter().map(ForceErrorSample::from_json);
        let speeds = v.arr("speeds")?.iter().map(SpeedSample::from_json);
        Ok(Self {
            label: v.req_str("label")?.to_string(),
            n_particles: v.req_u64("n_particles")?,
            steps: v.req_u64("steps")?,
            force_errors: force_errors.collect::<Result<_, _>>()?,
            speeds: speeds.collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> AccuracyReport {
        AccuracyReport {
            label: "nacl_test".into(),
            n_particles: 512,
            steps: 2,
            force_errors: vec![ForceErrorSample {
                step: 0,
                sampled: 16,
                rms_force: 2.0,
                rms_error: 6e-5,
            }],
            speeds: vec![
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
            ],
        }
    }

    #[test]
    fn speed_sample_rates() {
        let r = sample_report();
        let s = &r.speeds[0];
        assert!((s.raw_flops() - 5e9).abs() < 1.0);
        assert!((s.raw_flops_per_s() - 1e10).abs() < 1.0);
        assert!((s.effective_flops_per_s() - 4e9).abs() < 1.0);
        // Measured re-costing takes precedence when present.
        assert!((r.speeds[1].effective_flops_per_s() - 3e9).abs() < 1.0);
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

    #[test]
    fn report_round_trips() {
        let r = sample_report();
        let text = r.to_json().to_pretty();
        let back = AccuracyReport::from_json(&Value::parse(&text).unwrap()).unwrap();
        assert_eq!(r, back);
    }
}
