//! The per-step measured-vs-modeled table `profile_step` prints.
//!
//! One [`StepReport`] captures, for one system size, the paper's
//! Table 4 decomposition `t_step = max(t_wine, t_mdg) + t_comm +
//! t_host` three ways at once: measured wall-clock per phase (from the
//! [`crate::span`] registry), modeled seconds per phase (from the
//! emulators' cycle counters and/or `mdm-host::perfmodel`), and the raw
//! hardware counters. It is an in-memory record: what outlives the
//! process is its one-line reduction in the run ledger
//! ([`crate::ledger::RunRecord`]).

use crate::Profile;
use std::collections::BTreeMap;

/// One phase row: measured seconds (per step) and, when a model covers
/// the phase, the modeled seconds beside it.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseReport {
    /// Phase name (see [`crate::phase`]).
    pub name: String,
    /// Measured wall-clock seconds per step.
    pub measured_seconds: f64,
    /// Modeled seconds per step (emulated hardware cycles / clock, or
    /// the analytic performance model), when available.
    pub modeled_seconds: Option<f64>,
}

/// The measured-vs-modeled decomposition of one MD step at one system
/// size.
#[derive(Clone, Debug, PartialEq)]
pub struct StepReport {
    /// Human label, e.g. `"nacl-4096"`.
    pub label: String,
    /// Particle count.
    pub n_particles: u64,
    /// Steps averaged over.
    pub steps: u64,
    /// Measured wall-clock seconds per step (whole step, outer clock).
    pub total_seconds: f64,
    /// Top-level phase rows (real, wave, comm, host, …).
    pub phases: Vec<PhaseReport>,
    /// Hardware/engine counters summed over the window (pair ops,
    /// waves, cycles, …).
    pub counters: BTreeMap<String, u64>,
    /// Per-phase measured flop throughput in Gflops, derived from the
    /// interaction counters and the paper's flop-accounting constants
    /// (59 flops/pair, 29/35 flops/particle–wave).
    pub gflops: BTreeMap<String, f64>,
    /// Gauge name → mean sampled value over the window (device
    /// occupancy, bus bandwidth, rayon utilization — see
    /// [`crate::gauge`]).
    pub gauges: BTreeMap<String, f64>,
}

impl StepReport {
    /// Assemble a report from a drained [`Profile`] covering `steps`
    /// steps. `total_seconds` is the whole measured window; modeled
    /// seconds are attached afterwards via [`StepReport::set_modeled`].
    pub fn from_profile(
        label: impl Into<String>,
        n_particles: u64,
        steps: u64,
        total_seconds: f64,
        profile: &Profile,
        phase_names: &[&str],
    ) -> Self {
        assert!(steps > 0, "a report needs at least one step");
        let per_step = 1.0 / steps as f64;
        let phases = phase_names
            .iter()
            .map(|&name| PhaseReport {
                name: name.to_string(),
                measured_seconds: profile.seconds(name) * per_step,
                modeled_seconds: None,
            })
            .collect();
        let counters = profile
            .counters
            .iter()
            .map(|(name, &value)| (name.clone(), value))
            .collect();
        let gauges = profile
            .gauges
            .iter()
            .map(|(name, stat)| (name.clone(), stat.mean()))
            .collect();
        Self {
            label: label.into(),
            n_particles,
            steps,
            total_seconds: total_seconds * per_step,
            phases,
            counters,
            gflops: BTreeMap::new(),
            gauges,
        }
    }

    /// Attach a modeled per-step time to the named phase (no-op if the
    /// phase isn't present).
    pub fn set_modeled(&mut self, phase: &str, seconds: f64) {
        if let Some(row) = self.phases.iter_mut().find(|row| row.name == phase) {
            row.modeled_seconds = Some(seconds);
        }
    }

    /// Attach a measured flop throughput (Gflops) for the named phase.
    pub fn set_gflops(&mut self, phase: &str, gflops: f64) {
        self.gflops.insert(phase.to_string(), gflops);
    }

    /// Sum of the top-level measured phase times (≤ total, the
    /// remainder being un-instrumented step overhead).
    pub fn phase_sum_seconds(&self) -> f64 {
        self.phases.iter().map(|row| row.measured_seconds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanStat;
    use std::time::Duration;

    fn sample_profile() -> Profile {
        let mut profile = Profile::default();
        for (path, millis) in [
            ("real", 600u64),
            ("real.pass", 500),
            ("wave", 300),
            ("wave.dft", 200),
            ("comm", 50),
            ("host", 25),
        ] {
            profile.spans.insert(
                path.to_string(),
                SpanStat {
                    calls: 2,
                    total: Duration::from_millis(millis),
                },
            );
        }
        profile.counters.insert("pair_ops".into(), 123_456);
        profile
    }

    fn sample_report() -> StepReport {
        let profile = sample_profile();
        let mut report = StepReport::from_profile(
            "nacl-512",
            512,
            2,
            1.0,
            &profile,
            &["real", "wave", "comm", "host"],
        );
        report.set_modeled("real", 0.21);
        report.set_modeled("wave", 0.11);
        report
    }

    #[test]
    fn phases_are_per_step_and_bounded_by_total() {
        let report = sample_report();
        // 600 ms of "real" over 2 steps → 0.3 s/step.
        assert!((report.phases[0].measured_seconds - 0.3).abs() < 1e-12);
        assert!((report.total_seconds - 0.5).abs() < 1e-12);
        // Top-level phases exclude nested spans, so their sum stays
        // within the measured step total.
        assert!(report.phase_sum_seconds() <= report.total_seconds + 1e-12);
    }

    #[test]
    fn gauges_are_window_means_and_unmodeled_phases_stay_none() {
        let mut profile = sample_profile();
        profile.gauges.insert(
            "mdg.occupancy".into(),
            crate::GaugeStat {
                count: 2,
                sum: 1.6,
                min: 0.7,
                max: 0.9,
                last: 0.9,
            },
        );
        let report = StepReport::from_profile("nacl-512", 512, 2, 1.0, &profile, &["real"]);
        assert!((report.gauges["mdg.occupancy"] - 0.8).abs() < 1e-12);
        assert_eq!(report.phases[0].modeled_seconds, None);
    }
}
