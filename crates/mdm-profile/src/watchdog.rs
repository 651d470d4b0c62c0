//! Threshold monitors for run telemetry.
//!
//! A long MD run can go numerically bad long before it crashes: total
//! energy drifts, net momentum appears out of rounding, the thermostat
//! loses the temperature. These monitors watch one scalar each and turn
//! a threshold crossing into an explicit [`Violation`] record that the
//! flight recorder ([`crate::events`]) attaches to the offending step —
//! instead of the failure staying silent until the trajectory is junk.
//!
//! The monitors are deliberately generic (plain `f64` in, `Violation`
//! out); the physics-specific composition — which scalar feeds which
//! monitor with which tolerance — lives with the observables in
//! `mdm-core`.

use crate::json::{obj, Value};

/// One threshold crossing: which monitor fired, on which step, with
/// what value against what threshold.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Name of the monitor that fired (e.g. `"energy_drift"`).
    pub monitor: String,
    /// Step index the offending sample belongs to.
    pub step: u64,
    /// The offending value (in the monitor's own units — a relative
    /// drift, a momentum magnitude, a force error).
    pub value: f64,
    /// The threshold that was crossed.
    pub threshold: f64,
    /// Human-readable one-liner for logs and tables.
    pub message: String,
    /// Simulated-MPI rank whose thread fired the monitor
    /// ([`crate::current_rank`] at creation), `None` outside any rank
    /// context. In a `run_world` run the monitors aggregate into one
    /// recording; this is what still names the offending rank.
    pub rank: Option<u64>,
}

impl Violation {
    /// Serialize for a flight-recorder event. `value` goes through
    /// [`Value::from_f64`] because a non-finite sample is exactly what
    /// [`DriftMonitor::check`] reports for a blown-up trajectory — the
    /// recording must capture it, not crash on it. `rank` is only
    /// written when present, so single-process recordings keep their
    /// exact pre-rank shape.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("monitor", Value::Str(self.monitor.clone())),
            ("step", Value::from_u64(self.step)),
            ("value", Value::from_f64(self.value)),
            ("threshold", Value::from_f64(self.threshold)),
            ("message", Value::Str(self.message.clone())),
        ];
        if let Some(rank) = self.rank {
            fields.push(("rank", Value::from_u64(rank)));
        }
        obj(fields)
    }

    /// Parse a violation written by [`Violation::to_json`].
    pub fn from_json(value: &Value) -> Result<Self, String> {
        Ok(Self {
            monitor: value.req_str("monitor")?.to_string(),
            step: value.req_u64("step")?,
            value: value.req_f64("value")?,
            threshold: value.req_f64("threshold")?,
            message: value.req_str("message")?.to_string(),
            // Tolerant: lines written before rank stamping existed
            // simply have no rank.
            rank: value.opt_u64("rank"),
        })
    }

    /// `message`, prefixed with the firing rank when known — the line
    /// the flight recorder's human-facing surfaces print.
    pub fn display_message(&self) -> String {
        match self.rank {
            Some(rank) => format!("[rank {rank}] {}", self.message),
            None => self.message.clone(),
        }
    }
}

/// Relative drift against a reference captured from the first sample:
/// fires when `|(x − x₀)/x₀| > threshold`. The classic NVE check is
/// total energy against its value on step 0.
#[derive(Clone, Debug)]
pub struct DriftMonitor {
    name: String,
    threshold: f64,
    reference: Option<f64>,
}

impl DriftMonitor {
    /// A monitor named `name` firing past relative drift `threshold`.
    pub fn new(name: impl Into<String>, threshold: f64) -> Self {
        assert!(threshold > 0.0);
        Self {
            name: name.into(),
            threshold,
            reference: None,
        }
    }

    /// The reference value (the first sample seen), once captured.
    pub fn reference(&self) -> Option<f64> {
        self.reference
    }

    /// Feed one sample; returns the violation if drift exceeds the
    /// threshold. The first sample becomes the reference and never
    /// fires. A non-finite sample always fires: `NaN > threshold` is
    /// false, so without the explicit check a blown-up trajectory that
    /// reaches NaN would sail past the monitor silently.
    pub fn check(&mut self, step: u64, value: f64) -> Option<Violation> {
        if !value.is_finite() {
            return Some(Violation {
                monitor: self.name.clone(),
                step,
                value,
                threshold: self.threshold,
                message: format!("{}: non-finite sample {value}", self.name),
                rank: crate::current_rank(),
            });
        }
        let reference = *self.reference.get_or_insert(value);
        // Guard a zero reference (relative drift is then meaningless;
        // fall back to absolute).
        let scale = reference.abs().max(f64::MIN_POSITIVE);
        let drift = ((value - reference) / scale).abs();
        (drift > self.threshold).then(|| Violation {
            monitor: self.name.clone(),
            step,
            value: drift,
            threshold: self.threshold,
            message: format!(
                "{}: relative drift {:.3e} exceeds {:.3e} (reference {:.6e}, current {:.6e})",
                self.name, drift, self.threshold, reference, value
            ),
            rank: crate::current_rank(),
        })
    }
}

/// A plain band check: fires when the sample leaves `[lo, hi]`.
#[derive(Clone, Debug)]
pub struct BoundMonitor {
    name: String,
    lo: f64,
    hi: f64,
}

impl BoundMonitor {
    /// A monitor named `name` requiring samples in `[lo, hi]`.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi);
        Self {
            name: name.into(),
            lo,
            hi,
        }
    }

    /// Feed one sample; returns the violation if it is out of band.
    pub fn check(&self, step: u64, value: f64) -> Option<Violation> {
        if value >= self.lo && value <= self.hi {
            return None;
        }
        let threshold = if value < self.lo { self.lo } else { self.hi };
        Some(Violation {
            monitor: self.name.clone(),
            step,
            value,
            threshold,
            message: format!(
                "{}: {:.6e} outside [{:.6e}, {:.6e}]",
                self.name, value, self.lo, self.hi
            ),
            rank: crate::current_rank(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_monitor_fires_past_threshold_only() {
        let mut monitor = DriftMonitor::new("energy_drift", 1e-3);
        assert!(monitor.check(0, 100.0).is_none(), "first sample is the reference");
        assert!(monitor.check(1, 100.05).is_none(), "5e-4 drift is in budget");
        let violation = monitor.check(2, 100.2).expect("2e-3 drift fires");
        assert_eq!(violation.monitor, "energy_drift");
        assert_eq!(violation.step, 2);
        assert!((violation.value - 2e-3).abs() < 1e-9);
        assert_eq!(monitor.reference(), Some(100.0));
    }

    #[test]
    fn drift_monitor_handles_negative_reference() {
        // NaCl total energy is a large negative number.
        let mut monitor = DriftMonitor::new("energy_drift", 1e-4);
        assert!(monitor.check(0, -3500.0).is_none());
        assert!(monitor.check(1, -3500.1).is_none());
        assert!(monitor.check(5, -3501.0).is_some());
    }

    #[test]
    fn drift_monitor_fires_on_non_finite_sample() {
        let mut monitor = DriftMonitor::new("energy_drift", 1e-3);
        assert!(monitor.check(0, 100.0).is_none());
        let violation = monitor.check(1, f64::NAN).expect("NaN must fire");
        assert!(violation.value.is_nan());
        assert!(monitor.check(2, f64::INFINITY).is_some());
    }

    #[test]
    fn bound_monitor_checks_band() {
        let monitor = BoundMonitor::new("momentum", 0.0, 1e-8);
        assert!(monitor.check(0, 5e-9).is_none());
        let violation = monitor.check(3, 2e-8).unwrap();
        assert_eq!(violation.threshold, 1e-8);
        assert!(BoundMonitor::new("x", -1.0, 1.0).check(0, -2.0).is_some());
    }

    #[test]
    fn violation_round_trips_through_json() {
        let violation = Violation {
            monitor: "energy_drift".into(),
            step: 42,
            value: 3.5e-3,
            threshold: 1e-3,
            message: "energy_drift: relative drift 3.500e-3 exceeds 1.000e-3".into(),
            rank: None,
        };
        let back = Violation::from_json(&violation.to_json()).unwrap();
        assert_eq!(back, violation);
        assert!(Violation::from_json(&Value::Null).is_err());
    }

    #[test]
    fn violations_are_stamped_with_the_firing_rank() {
        let monitor = BoundMonitor::new("t_momentum", 0.0, 1e-8);
        // Outside any rank context: no rank, legacy JSON shape.
        let bare = monitor.check(1, 1.0).unwrap();
        assert_eq!(bare.rank, None);
        assert!(!bare.to_json().to_compact().contains("\"rank\""));
        assert_eq!(bare.display_message(), bare.message);
        // Under a rank context (what every run_world rank thread
        // adopts): the violation names the rank, in JSON and in display.
        let ranked = {
            let _rank = crate::adopt_context(&crate::context_snapshot().with_rank(5));
            monitor.check(2, 1.0).unwrap()
        };
        assert_eq!(ranked.rank, Some(5));
        let line = ranked.to_json().to_compact();
        assert!(line.contains("\"rank\":5"), "{line}");
        assert!(ranked.display_message().starts_with("[rank 5] "));
        let back = Violation::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, ranked);
        // Tolerant parse: a pre-rank line round-trips to rank: None.
        let back = Violation::from_json(&bare.to_json()).unwrap();
        assert_eq!(back.rank, None);
    }

    #[test]
    fn non_finite_violation_serializes_and_round_trips() {
        // The exact record a DriftMonitor emits for a blown-up
        // trajectory: serializing it must not panic, and the NaN must
        // survive the trip (as the "NaN" sentinel, not null).
        let mut monitor = DriftMonitor::new("energy_drift", 1e-3);
        assert!(monitor.check(0, 100.0).is_none());
        let violation = monitor.check(1, f64::NAN).expect("NaN must fire");
        let line = violation.to_json().to_compact();
        assert!(line.contains("\"NaN\""), "{line}");
        let back = Violation::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert!(back.value.is_nan());
        assert_eq!(back.monitor, violation.monitor);
        assert_eq!(back.step, 1);
    }
}
