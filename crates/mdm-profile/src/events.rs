//! The flight recorder: a per-step JSONL event stream.
//!
//! A recorded run is one text file: the first line is a
//! [`RunManifest`] (`"type": "manifest"`) pinning down what was run —
//! label, N, timestep, force-field description, seed, and the numeric
//! parameters (α, r_cut, cell counts) that the paper's Table 4
//! decomposition depends on. Every following line is a [`StepEvent`]
//! (`"type": "step"`): wall-clock phase durations, hardware/numeric
//! counters, physical observables, and any watchdog [`Violation`]s for
//! that step. One line per step keeps the stream appendable, truncation-
//! tolerant (a crash loses at most the current line), and trivially
//! greppable/`jq`-able.
//!
//! [`parse_jsonl`] reads a single-run recording back for analysis and
//! tests; [`parse_jsonl_multi`] reads files that several recordings
//! were appended to (one run per size in `profile_step --record`),
//! splitting on the manifest lines.

use crate::json::{obj, Value};
use crate::watchdog::Violation;
use crate::Profile;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Format version written in the manifest line.
pub const FLIGHT_RECORDER_VERSION: u64 = 1;

/// The run-level header: everything needed to interpret (or reproduce)
/// the step stream that follows.
#[derive(Clone, Debug, PartialEq)]
pub struct RunManifest {
    /// Short run label (e.g. `"nacl-4096"`).
    pub label: String,
    /// The command line (or API call) that produced the run.
    pub command: String,
    /// Particle count.
    pub n_particles: u64,
    /// Integration timestep in femtoseconds.
    pub dt_fs: f64,
    /// Human-readable force-field description.
    pub forcefield: String,
    /// RNG seed used for initial velocities.
    pub seed: u64,
    /// Named numeric parameters: Ewald α, r_cut, cell counts, n_max, …
    pub params: BTreeMap<String, f64>,
    /// Git SHA of the code that ran (`"unknown"` when undetectable) —
    /// the environment stamp that makes cross-machine comparisons in
    /// the run ledger attributable.
    pub git_sha: String,
    /// Hostname of the machine that ran.
    pub hostname: String,
    /// Hardware parallelism (`nproc`) of the machine; 0 if unknown.
    pub nproc: u64,
    /// Effective worker-thread count the run used.
    pub threads: u64,
    /// Whether the force backend reports a real virial. Every current
    /// backend does — the WINE-2 emulation path reduces the
    /// reciprocal-space virial host-side from the board's structure
    /// factors — but the flag stays in the manifest so a future
    /// backend without one can opt out instead of streaming NaN.
    pub pressure_supported: bool,
}

impl Default for RunManifest {
    fn default() -> Self {
        RunManifest {
            label: String::new(),
            command: String::new(),
            n_particles: 0,
            dt_fs: 0.0,
            forcefield: String::new(),
            seed: 0,
            params: BTreeMap::new(),
            git_sha: "unknown".into(),
            hostname: "unknown".into(),
            nproc: 0,
            threads: 0,
            pressure_supported: false,
        }
    }
}

impl RunManifest {
    /// Serialize as one manifest line value.
    pub fn to_json(&self) -> Value {
        obj([
            ("type", Value::Str("manifest".into())),
            ("version", Value::from_u64(FLIGHT_RECORDER_VERSION)),
            ("label", Value::Str(self.label.clone())),
            ("command", Value::Str(self.command.clone())),
            ("n_particles", Value::from_u64(self.n_particles)),
            ("dt_fs", Value::from_f64(self.dt_fs)),
            ("forcefield", Value::Str(self.forcefield.clone())),
            // `from_u64`: a full-range 64-bit seed must survive the
            // f64-backed number representation exactly.
            ("seed", Value::from_u64(self.seed)),
            ("params", Value::from_f64_map(&self.params)),
            ("git_sha", Value::Str(self.git_sha.clone())),
            ("hostname", Value::Str(self.hostname.clone())),
            ("nproc", Value::from_u64(self.nproc)),
            ("threads", Value::from_u64(self.threads)),
            ("pressure_supported", Value::Bool(self.pressure_supported)),
        ])
    }

    /// Parse a manifest line written by [`RunManifest::to_json`].
    pub fn from_json(value: &Value) -> Result<Self, String> {
        if value.opt_str("type") != Some("manifest") {
            return Err("not a manifest line".into());
        }
        let version = value.req_u64("version")?;
        if version != FLIGHT_RECORDER_VERSION {
            return Err(format!("unsupported flight-recorder version {version}"));
        }
        Ok(Self {
            label: value.req_str("label")?.to_string(),
            command: value.req_str("command")?.to_string(),
            n_particles: value.req_u64("n_particles")?,
            dt_fs: value.req_f64("dt_fs")?,
            forcefield: value.req_str("forcefield")?.to_string(),
            seed: value.req_u64("seed")?,
            params: value.f64_map("params")?,
            // Environment-stamp fields arrived after version 1 shipped;
            // recordings made before them parse with the defaults.
            git_sha: value.str_or("git_sha", "unknown"),
            hostname: value.str_or("hostname", "unknown"),
            nproc: value.opt_u64("nproc").unwrap_or(0),
            threads: value.opt_u64("threads").unwrap_or(0),
            pressure_supported: value.opt_bool("pressure_supported").unwrap_or(false),
        })
    }
}

/// One step's telemetry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepEvent {
    /// Step index.
    pub step: u64,
    /// Wall-clock seconds for the whole step.
    pub wall_seconds: f64,
    /// Top-level phase name → seconds (the Table 4 decomposition:
    /// `real`, `wave`, `comm`, `host`).
    pub phases: BTreeMap<String, f64>,
    /// Counter name → value (hardware op counts, numeric-health
    /// counters like Q30 saturations).
    pub counters: BTreeMap<String, u64>,
    /// Observable name → value (temperature, energies, …).
    pub observables: BTreeMap<String, f64>,
    /// Watchdog violations attached to this step (usually empty).
    pub violations: Vec<Violation>,
    /// Gauge name → sampled value for this step (device utilization
    /// fractions, bandwidths). When a gauge sampled several times in
    /// one step (once per force pass), this is the step's mean.
    /// Absent from recordings made before this field existed.
    pub gauges: BTreeMap<String, f64>,
}

impl StepEvent {
    /// Build an event from a drained per-step [`Profile`]: top-level
    /// span paths (no dot) become phases, all counters are copied.
    pub fn from_profile(step: u64, wall_seconds: f64, profile: &Profile) -> Self {
        let phases = profile.phases().map(|(name, s)| (name.to_string(), s)).collect();
        let counters = profile
            .counters
            .iter()
            .map(|(name, value)| (name.clone(), *value))
            .collect();
        let gauges = profile
            .gauges
            .iter()
            .map(|(name, stat)| (name.clone(), stat.mean()))
            .collect();
        Self {
            step,
            wall_seconds,
            phases,
            counters,
            observables: BTreeMap::new(),
            violations: Vec::new(),
            gauges,
        }
    }

    /// Serialize as one step line value.
    pub fn to_json(&self) -> Value {
        // `from_f64`/`from_u64`: observables from a diverging run can
        // be NaN/inf and counters can exceed 2⁵³; both must be
        // *recorded*, never panic the serializer or lose precision.
        let violations = Value::Arr(self.violations.iter().map(Violation::to_json).collect());
        let mut value = obj([
            ("type", Value::Str("step".into())),
            ("step", Value::from_u64(self.step)),
            ("wall_seconds", Value::from_f64(self.wall_seconds)),
            ("phases", Value::from_f64_map(&self.phases)),
            ("counters", Value::from_u64_map(&self.counters)),
            ("observables", Value::from_f64_map(&self.observables)),
            ("violations", violations),
        ]);
        // Only pay the key when there is something to say; readers
        // treat a missing key as "no gauges".
        if let Value::Obj(map) = &mut value {
            if !self.gauges.is_empty() {
                map.insert("gauges".into(), Value::from_f64_map(&self.gauges));
            }
        }
        value
    }

    /// Parse a step line written by [`StepEvent::to_json`]. A
    /// `histograms` member, which older recordings carry, is ignored.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        if value.opt_str("type") != Some("step") {
            return Err("not a step line".into());
        }
        let violations = value.arr("violations")?.iter().map(Violation::from_json);
        Ok(Self {
            step: value.req_u64("step")?,
            wall_seconds: value.req_f64("wall_seconds")?,
            phases: value.f64_map("phases")?,
            counters: value.u64_map("counters")?,
            observables: value.f64_map("observables")?,
            violations: violations.collect::<Result<_, _>>()?,
            gauges: value.f64_map("gauges")?,
        })
    }
}

/// Streams a manifest line followed by step lines into any writer.
///
/// Each line is flushed as written, so a crashed run still leaves a
/// readable (truncated) recording behind.
pub struct FlightRecorder<W: Write> {
    sink: W,
}

impl<W: Write> FlightRecorder<W> {
    /// Open a recorder by writing the manifest line.
    pub fn new(mut sink: W, manifest: &RunManifest) -> io::Result<Self> {
        writeln!(sink, "{}", manifest.to_json().to_compact())?;
        sink.flush()?;
        Ok(Self { sink })
    }

    /// Append one step line.
    pub fn record(&mut self, event: &StepEvent) -> io::Result<()> {
        writeln!(self.sink, "{}", event.to_json().to_compact())?;
        self.sink.flush()
    }

    /// Unwrap the sink (for in-memory recordings in tests).
    pub fn into_inner(self) -> W {
        self.sink
    }
}

/// Parse a single-run recording: the manifest plus every step line, in
/// order. Errors if the stream holds more than one run — use
/// [`parse_jsonl_multi`] for files that several recordings were
/// appended to (e.g. a default multi-size `profile_step --record`).
pub fn parse_jsonl(text: &str) -> Result<(RunManifest, Vec<StepEvent>), String> {
    let mut runs = parse_jsonl_multi(text)?;
    if runs.len() != 1 {
        return Err(format!(
            "recording contains {} runs; use parse_jsonl_multi",
            runs.len()
        ));
    }
    Ok(runs.pop().expect("len checked"))
}

/// Parse a stream of appended recordings: each manifest line starts a
/// new `(manifest, steps)` run and the step lines that follow belong
/// to it. Blank lines are ignored. This is the reader for the file
/// `profile_step --record` writes when profiling several sizes.
pub fn parse_jsonl_multi(text: &str) -> Result<Vec<(RunManifest, Vec<StepEvent>)>, String> {
    let mut runs: Vec<(RunManifest, Vec<StepEvent>)> = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = index + 1;
        let value = Value::parse(line).map_err(|e| format!("line {lineno}: {e}"))?;
        match value.opt_str("type") {
            Some("manifest") => {
                let manifest =
                    RunManifest::from_json(&value).map_err(|e| format!("line {lineno}: {e}"))?;
                runs.push((manifest, Vec::new()));
            }
            Some("step") => {
                let event =
                    StepEvent::from_json(&value).map_err(|e| format!("line {lineno}: {e}"))?;
                runs.last_mut()
                    .ok_or_else(|| format!("line {lineno}: step event before any manifest"))?
                    .1
                    .push(event);
            }
            other => {
                return Err(format!(
                    "line {lineno}: unknown event type {other:?} (expected \"manifest\" or \"step\")"
                ))
            }
        }
    }
    if runs.is_empty() {
        return Err("empty recording".into());
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_manifest() -> RunManifest {
        RunManifest {
            label: "nacl-512".into(),
            command: "profile_step --record out.jsonl".into(),
            n_particles: 512,
            dt_fs: 2.0,
            forcefield: "MDM emulated Ewald (MDGRAPE-2 + WINE-2)".into(),
            seed: 2004,
            params: [
                ("alpha".to_string(), 0.2743),
                ("r_cut".to_string(), 10.16),
                ("cells".to_string(), 4.0),
            ]
            .into_iter()
            .collect(),
            git_sha: "0123abcd0123abcd0123abcd0123abcd0123abcd".into(),
            hostname: "bench-host".into(),
            nproc: 8,
            threads: 4,
            pressure_supported: true,
        }
    }

    fn sample_event(step: u64) -> StepEvent {
        StepEvent {
            step,
            wall_seconds: 0.0513,
            phases: [
                ("real".to_string(), 0.031),
                ("wave".to_string(), 0.017),
                ("comm".to_string(), 0.002),
                ("host".to_string(), 0.0013),
            ]
            .into_iter()
            .collect(),
            counters: [
                ("mdg_pair_ops".to_string(), 1_234_567),
                ("wine_q30_saturations".to_string(), 0),
            ]
            .into_iter()
            .collect(),
            observables: [
                ("temperature_k".to_string(), 1074.2),
                ("total_ev".to_string(), -3501.7),
            ]
            .into_iter()
            .collect(),
            violations: vec![Violation {
                monitor: "energy_drift".into(),
                step,
                value: 2e-3,
                threshold: 1e-3,
                message: "drift \"high\"\nsecond line".into(),
                rank: Some(2),
            }],
            gauges: [
                ("mdg.occupancy".to_string(), 0.83),
                ("wine.occupancy".to_string(), 0.91),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn recording_round_trips() {
        let manifest = sample_manifest();
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        recorder.record(&sample_event(0)).unwrap();
        recorder.record(&sample_event(1)).unwrap();
        let text = String::from_utf8(recorder.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 3, "manifest + 2 steps:\n{text}");

        let (back_manifest, back_steps) = parse_jsonl(&text).unwrap();
        assert_eq!(back_manifest, manifest);
        assert_eq!(back_steps, vec![sample_event(0), sample_event(1)]);
    }

    #[test]
    fn embedded_newlines_and_quotes_stay_on_one_line() {
        // The violation message contains a quote and a newline; JSONL
        // framing requires them escaped, never raw.
        let line = sample_event(7).to_json().to_compact();
        assert!(!line.contains('\n'));
        assert!(line.contains("\\n"));
        assert!(line.contains("\\\"high\\\""));
    }

    #[test]
    fn from_profile_extracts_top_level_phases_and_counters() {
        let mut profile = Profile::default();
        for (path, ms) in [("real", 31), ("real.mdg_pass", 30), ("wave", 17)] {
            profile.spans.insert(
                path.to_string(),
                crate::SpanStat {
                    calls: 1,
                    total: Duration::from_millis(ms),
                },
            );
        }
        profile.counters.insert("mdg_pair_ops".into(), 99);
        let event = StepEvent::from_profile(5, 0.05, &profile);
        assert_eq!(event.step, 5);
        assert_eq!(event.phases.len(), 2, "nested spans are not phases");
        assert!((event.phases["real"] - 0.031).abs() < 1e-12);
        assert_eq!(event.counters["mdg_pair_ops"], 99);
    }

    #[test]
    fn from_profile_reduces_gauges_to_step_means() {
        let mut profile = Profile::default();
        // Two samples in one step (one per force pass) → the step
        // event carries their mean.
        profile.gauges.insert(
            "mdg.occupancy".into(),
            crate::GaugeStat {
                count: 2,
                sum: 1.0,
                min: 0.2,
                max: 0.8,
                last: 0.8,
            },
        );
        let event = StepEvent::from_profile(0, 0.1, &profile);
        assert!((event.gauges["mdg.occupancy"] - 0.5).abs() < 1e-12);
        // An event with no gauges never pays the key.
        let bare = StepEvent::from_profile(0, 0.1, &Profile::default());
        assert!(!bare.to_json().to_compact().contains("gauges"));
    }

    #[test]
    fn pre_stamp_manifest_lines_parse_with_defaults() {
        // A manifest written before the environment-stamp fields
        // existed: serialize the new struct, strip the new keys, and
        // make sure the parser still reads it.
        let mut value = sample_manifest().to_json();
        if let Value::Obj(map) = &mut value {
            for key in ["git_sha", "hostname", "nproc", "threads", "pressure_supported"] {
                map.remove(key);
            }
        }
        let manifest = RunManifest::from_json(&value).unwrap();
        assert_eq!(manifest.git_sha, "unknown");
        assert_eq!(manifest.hostname, "unknown");
        assert_eq!(manifest.nproc, 0);
        assert_eq!(manifest.threads, 0);
        assert!(!manifest.pressure_supported);
        assert_eq!(manifest.label, "nacl-512");
    }

    #[test]
    fn parse_rejects_missing_manifest() {
        let step_line = sample_event(0).to_json().to_compact();
        assert!(parse_jsonl(&step_line).is_err());
        assert!(parse_jsonl("").is_err());
    }

    #[test]
    fn appended_runs_split_on_manifest_lines() {
        // profile_step --record appends one (manifest, steps) run per
        // size to the same file; the multi parser must read it all back.
        let mut text = String::new();
        for (label, steps) in [("nacl-512", 2u64), ("nacl-4096", 3)] {
            let manifest = RunManifest {
                label: label.into(),
                ..sample_manifest()
            };
            let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
            for k in 0..steps {
                recorder.record(&sample_event(k)).unwrap();
            }
            text.push_str(&String::from_utf8(recorder.into_inner()).unwrap());
        }

        let runs = parse_jsonl_multi(&text).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].0.label, "nacl-512");
        assert_eq!(runs[0].1.len(), 2);
        assert_eq!(runs[1].0.label, "nacl-4096");
        assert_eq!(runs[1].1.len(), 3);
        // The single-run parser refuses rather than mis-reading.
        let err = parse_jsonl(&text).unwrap_err();
        assert!(err.contains("2 runs"), "{err}");
    }

    #[test]
    fn blown_up_run_records_instead_of_panicking() {
        // A diverged trajectory: NaN observables, a NaN watchdog value,
        // and a full-range seed/counter. Everything must serialize and
        // read back — this is the run the recorder exists to document.
        let manifest = RunManifest {
            seed: u64::MAX - 1,
            ..sample_manifest()
        };
        let mut event = sample_event(3);
        event.observables.insert("total_ev".into(), f64::NAN);
        event.observables.insert("temperature_k".into(), f64::INFINITY);
        event.counters.insert("mdg_pair_ops".into(), (1 << 53) + 7);
        event.violations[0].value = f64::NAN;

        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        recorder.record(&event).unwrap();
        let text = String::from_utf8(recorder.into_inner()).unwrap();

        let (back_manifest, back_steps) = parse_jsonl(&text).unwrap();
        assert_eq!(back_manifest.seed, u64::MAX - 1);
        let back = &back_steps[0];
        assert!(back.observables["total_ev"].is_nan());
        assert_eq!(back.observables["temperature_k"], f64::INFINITY);
        assert_eq!(back.counters["mdg_pair_ops"], (1 << 53) + 7);
        assert!(back.violations[0].value.is_nan());
    }
}
