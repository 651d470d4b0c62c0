//! Run telemetry: the glue between the MD driver loop and the
//! observability stack in `mdm-profile`.
//!
//! [`run_instrumented`] is the instrumented twin of
//! [`Simulation::run`]: it advances the simulation step by step, and
//! for each step drains the run's own profile scope into a
//! [`StepEvent`] (phase durations + hardware/numeric counters), stamps
//! the physical observables from the [`StepRecord`], feeds the step
//! through the [`PhysicsWatchdogs`], and appends the event to a
//! [`FlightRecorder`] JSONL stream. What the run leaves in memory is
//! a [`RecordedRun`]; [`RecordedRun::reduce`] is the one reduction from
//! it to the run's ledger row ([`RunRecord`]) — every tool's row goes
//! through it, so every column has one definition.
//!
//! On top of the flight recorder, [`Instruments`] carries the two
//! accuracy-telemetry probes of the paper's §5 evaluation:
//!
//! * a [`ForceErrorProbe`] that every K steps re-derives sampled forces
//!   with a converged f64 Ewald and emits the relative RMS force error
//!   (Figure 5) as the `force_error_rel` observable;
//! * a [`SpeedMeter`] that prices the emulators' *actual* interaction
//!   counters with the paper's §2 flop constants and streams
//!   `raw_tflops` / `effective_tflops` per step — effective speed
//!   re-costed at the *measured* accuracy when the probe has fired
//!   (the honest 1.34-from-15.4 arithmetic, live).
//!
//! [`Simulation::run`]: mdm_core::integrate::Simulation::run

use mdm_core::accuracy::ForceErrorProbe;
use mdm_core::ewald::EwaldParams;
use mdm_core::forcefield::ForceField;
use mdm_core::integrate::{Simulation, StepRecord};
use mdm_core::observables::PhysicsWatchdogs;
use mdm_core::special::erfc;
use mdm_profile::accuracy::{ForceErrorSample, SpeedSample};
use mdm_profile::events::{FlightRecorder, RunManifest, StepEvent};
use mdm_profile::ledger::{EnvStamp, RunRecord};
use mdm_profile::phase;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::driver::MdmForceField;
use crate::machines::MachineModel;
use crate::perfmodel::{PerformanceModel, SystemSpec};

/// The environment stamp (git SHA, hostname, nproc) for this checkout:
/// walk up from the crate's manifest dir to the `.git` root. The
/// `MDM_GIT_SHA` environment variable overrides detection — see
/// [`EnvStamp::detect`]. Detected once per process (it reads `.git`
/// and the hostname, and a run server stamps every slice).
pub fn env_stamp() -> EnvStamp {
    static STAMP: OnceLock<EnvStamp> = OnceLock::new();
    STAMP
        .get_or_init(|| {
            let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
            let root = manifest_dir
                .ancestors()
                .find(|p| p.join(".git").exists())
                .unwrap_or(manifest_dir);
            EnvStamp::detect(root)
        })
        .clone()
}

/// Build the flight-recorder manifest for a run driven by the emulated
/// MDM force field: the Ewald parameters land in `params` under
/// `alpha`, `r_cut`, `n_max` (plus the accuracy pair `s_r`/`s_k` for
/// the box side `l`), and the environment stamp (git SHA, hostname,
/// nproc, effective thread count) makes the stream attributable.
///
/// `pressure_supported` is true: the WINE-2 emulation path reduces the
/// reciprocal-space virial host-side from the board's structure factors
/// and the driver adds the real-space part, so MDM runs stream a real
/// pressure like the software fields do.
pub fn mdm_manifest(
    label: &str,
    command: &str,
    sim: &Simulation<MdmForceField>,
    seed: u64,
) -> RunManifest {
    let params = sim.force_field().params();
    let l = sim.system().simbox().l();
    let (s_r, s_k) = params.accuracy_parameters(l);
    let env = env_stamp();
    RunManifest {
        label: label.to_string(),
        command: command.to_string(),
        n_particles: sim.system().len() as u64,
        dt_fs: sim.dt(),
        forcefield: sim.force_field().describe(),
        seed,
        git_sha: env.git_sha,
        hostname: env.hostname,
        nproc: env.nproc,
        threads: rayon::current_num_threads() as u64,
        pressure_supported: true,
        params: [
            ("alpha".to_string(), params.alpha),
            ("r_cut".to_string(), params.r_cut),
            ("n_max".to_string(), params.n_max),
            ("box_l".to_string(), l),
            ("s_r".to_string(), s_r),
            ("s_k".to_string(), s_k),
        ]
        .into_iter()
        .collect(),
    }
}

/// Prices measured wall-clock with the paper's §2 flop accounting.
///
/// Raw speed uses the interaction counters the emulators actually
/// increment (Coulomb-pass pairs on MDGRAPE-2, DFT/IDFT particle–wave
/// ops on WINE-2); effective speed divides the *conventional-minimum*
/// flop count for the delivered accuracy by the same wall-clock —
/// exactly the §5 re-costing that turns 15.4 raw Tflops into the
/// 1.34 Tflops headline.
#[derive(Clone, Copy, Debug)]
pub struct SpeedMeter {
    spec: SystemSpec,
    model: PerformanceModel,
    conventional_flops: f64,
}

impl SpeedMeter {
    /// Accuracy parameter range the inverse-erfc re-costing searches:
    /// `erfc(0.5) ≈ 0.48` down to `erfc(6) ≈ 2·10⁻¹⁷` covers every
    /// error a run can plausibly deliver.
    const S_MIN: f64 = 0.5;
    const S_MAX: f64 = 6.0;

    /// Build the meter for a run: `n` particles in a box of side `l`
    /// at the accuracy `params` encodes. The conventional minimum is
    /// evaluated once here (it only depends on the run, not the step).
    pub fn for_run(params: &EwaldParams, n: u64, l: f64) -> Self {
        let (s_r, s_k) = params.accuracy_parameters(l);
        let spec = SystemSpec {
            n: n as f64,
            l,
            s_r,
            s_k,
        };
        let model = PerformanceModel::new(MachineModel::mdm_current());
        Self {
            spec,
            model,
            conventional_flops: model.conventional_minimum_flops(&spec),
        }
    }

    /// Conventional-minimum flops per step at the run's *nominal*
    /// accuracy (5.88·10¹³ at the paper's spec).
    pub fn conventional_flops(&self) -> f64 {
        self.conventional_flops
    }

    /// §5 re-costing at the *measured* accuracy: invert the truncation
    /// estimate `error ≈ erfc(s)` to find the accuracy parameter the
    /// run actually delivered, then price the conventional minimum at
    /// that `s` for both cutoffs. A run delivering *worse* accuracy
    /// than configured gets a smaller conventional minimum — its
    /// effective speed drops even though its raw speed is unchanged.
    pub fn conventional_flops_at_error(&self, rel_error: f64) -> f64 {
        let s = Self::inverse_erfc(rel_error);
        let spec = SystemSpec {
            s_r: s,
            s_k: s,
            ..self.spec
        };
        self.model.conventional_minimum_flops(&spec)
    }

    /// Solve `erfc(s) = y` for `s ∈ [S_MIN, S_MAX]` by bisection
    /// (`erfc` is strictly decreasing; clamps outside the bracket).
    fn inverse_erfc(y: f64) -> f64 {
        if y.is_nan() || y >= erfc(Self::S_MIN) {
            return Self::S_MIN;
        }
        if y <= erfc(Self::S_MAX) {
            return Self::S_MAX;
        }
        let (mut lo, mut hi) = (Self::S_MIN, Self::S_MAX);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if erfc(mid) > y {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Price one step: `pair_ops` real-space pair interactions and
    /// `dft_ops`/`idft_ops` particle–wave operations over
    /// `wall_seconds`. `measured_error` is the most recent probe
    /// reading (when one exists) and switches the effective speed to
    /// the measured-accuracy re-costing.
    pub fn sample(
        &self,
        step: u64,
        wall_seconds: f64,
        pair_ops: u64,
        dft_ops: u64,
        idft_ops: u64,
        measured_error: Option<f64>,
    ) -> SpeedSample {
        self.sample_with_wave_flops(
            step,
            wall_seconds,
            pair_ops,
            mdm_core::flops::FLOPS_PER_WAVE_DFT * dft_ops as f64
                + mdm_core::flops::FLOPS_PER_WAVE_IDFT * idft_ops as f64,
            measured_error,
        )
    }

    /// As [`Self::sample`] with the wavenumber work already priced in
    /// flops — the form mesh backends (PME, PSWF) use: they have no
    /// paper-credited DFT/IDFT ops, so the `longrange_flops` counter
    /// their backend stamps is the honest wave cost.
    pub fn sample_with_wave_flops(
        &self,
        step: u64,
        wall_seconds: f64,
        pair_ops: u64,
        wave_flops: f64,
        measured_error: Option<f64>,
    ) -> SpeedSample {
        SpeedSample {
            step,
            wall_seconds,
            real_flops: mdm_core::flops::FLOPS_PER_REAL_PAIR * pair_ops as f64,
            wave_flops,
            conventional_flops: self.conventional_flops,
            conventional_flops_measured: measured_error
                .map(|e| self.conventional_flops_at_error(e)),
        }
    }
}

/// The optional probes threaded through [`run_instrumented`].
///
/// Everything defaults to off.
#[derive(Default)]
pub struct Instruments<'a> {
    /// Physics watchdogs checked every step (violations land on the
    /// step's event).
    pub watchdogs: Option<&'a mut PhysicsWatchdogs>,
    /// Force-error probe, fired on its own cadence; its reading is
    /// emitted as the `force_error_rel` observable and fed to the
    /// watchdogs' force-error band.
    pub probe: Option<&'a ForceErrorProbe>,
    /// Live flop meter; emits `raw_tflops` / `effective_tflops`
    /// observables from the step's drained interaction counters.
    pub meter: Option<&'a SpeedMeter>,
}

/// What an instrumented run leaves behind in memory (the JSONL stream
/// went to the recorder's sink), and the input of the one reduction to
/// a ledger row ([`RecordedRun::reduce`]). A caller whose run had no
/// step loop of this module's (the §4 parallel program, a serve job
/// summed over its slices) fills in the totals it has and defaults the
/// rest.
#[derive(Debug, Default)]
pub struct RecordedRun {
    /// One thermodynamic record per step, as [`Simulation::run`] would
    /// have returned.
    ///
    /// [`Simulation::run`]: mdm_core::integrate::Simulation::run
    pub records: Vec<StepRecord>,
    /// All per-step profiles merged (span times summed, `_max`
    /// counters maxed).
    pub profile: mdm_profile::Profile,
    /// Total watchdog violations across the run.
    pub violations: u64,
    /// Every force-error probe reading (empty without a probe).
    pub force_errors: Vec<ForceErrorSample>,
    /// One speed sample per step (empty without a meter).
    pub speeds: Vec<SpeedSample>,
    /// Steps the totals below cover.
    pub steps: u64,
    /// Wall-clock seconds summed over the measured steps (probe and
    /// recording overhead excluded, matching each event's
    /// `wall_seconds`).
    pub wall_seconds: f64,
    /// Gauge name → running (sum, count) of the gauge's finite values
    /// over the step events (device occupancy from the drained profile
    /// plus the derived wall-fraction gauges).
    pub gauges: BTreeMap<String, (f64, u64)>,
}

impl RecordedRun {
    /// The one reduction from a finished run to its ledger row:
    /// `phases[p]` = the top-level span's seconds per step; `gflops[p]`
    /// = the phase's credited flops ÷ that phase's measured seconds;
    /// `raw_tflops` / `effective_tflops` = Σ credited / Σ
    /// conventional-minimum flops ÷ Σ step wall (flops as the
    /// [`SpeedMeter`] priced them — a run without one has neither);
    /// `gauges` = mean over steps of each step event's gauge. Stamped
    /// with the time, the environment and the worker-thread count.
    pub fn reduce(&self, tool: &str, label: &str, n_particles: u64) -> RunRecord {
        let per_step = 1.0 / self.steps.max(1) as f64;
        let phases = self.profile.phases().map(|(name, s)| (name.to_string(), s * per_step));
        let mut gflops = BTreeMap::new();
        let (mut raw_tflops, mut effective_tflops) = (None, None);
        if !self.speeds.is_empty() && self.wall_seconds > 0.0 {
            let sum = |f: fn(&SpeedSample) -> f64| self.speeds.iter().map(f).sum::<f64>();
            let (real, wave) = (sum(|s| s.real_flops), sum(|s| s.wave_flops));
            for (name, flops) in [(phase::REAL, real), (phase::WAVE, wave)] {
                let seconds = self.profile.seconds(name);
                if seconds > 0.0 {
                    gflops.insert(name.to_string(), flops / seconds / 1e9);
                }
            }
            raw_tflops = Some((real + wave) / self.wall_seconds / 1e12);
            let conventional =
                sum(|s| s.conventional_flops_measured.unwrap_or(s.conventional_flops));
            effective_tflops = Some(conventional / self.wall_seconds / 1e12);
        }
        let mut record = RunRecord {
            tool: tool.to_string(),
            label: label.to_string(),
            threads: rayon::current_num_threads() as u64,
            n_particles,
            steps: self.steps,
            wall_seconds_per_step: self.wall_seconds * per_step,
            phases: phases.collect(),
            gflops,
            raw_tflops,
            effective_tflops,
            worst_force_error: self
                .force_errors
                .iter()
                .map(ForceErrorSample::relative)
                .reduce(f64::max),
            violations: self.violations,
            pressure_supported: true,
            gauges: self
                .gauges
                .iter()
                .map(|(name, (sum, count))| (name.clone(), sum / *count as f64))
                .collect(),
            ..RunRecord::default()
        };
        record.stamp_now();
        record.stamp_env(&env_stamp());
        record
    }
}

/// Advance `steps` steps, writing one flight-recorder line per step,
/// with the instrument rack of [`Instruments`] (watchdogs, force-error
/// probe, live speed meter — each optional).
///
/// The run records into an [`mdm_profile::scope`] of its own, drained
/// (`take`) once per step: the phase durations and counters on each
/// event belong to that step of *this* run alone — nothing recorded
/// before the call or by another run stepping in the same process.
///
/// Per-step ordering, which matters for attribution:
///
/// 1. the step's wall-clock covers `sim.step()` *only* — probe
///    overhead never pollutes the speed measurement;
/// 2. the probe (on its cadence) runs *before* the registry drain, so
///    its reference-Ewald work shows up on the step's own event as the
///    `probe` phase rather than leaking into the next step;
/// 3. the meter prices the step from the counters of the drained
///    profile, re-costing against the most recent probe reading;
/// 4. watchdogs see the thermodynamic record and the probe reading
///    (through the force-error band) and stamp violations on the event.
pub fn run_instrumented<F: ForceField, W: Write>(
    sim: &mut Simulation<F>,
    steps: usize,
    recorder: &mut FlightRecorder<W>,
    mut inst: Instruments<'_>,
) -> io::Result<RecordedRun> {
    let mut records = Vec::with_capacity(steps);
    let mut merged = mdm_profile::Profile::default();
    let mut violations = 0u64;
    let mut force_errors = Vec::new();
    let mut speeds = Vec::new();
    let mut wall_total = 0.0;
    let mut gauges: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    let mut last_error: Option<f64> = None;
    let _scope = mdm_profile::scope();
    for _ in 0..steps {
        let wall_start = Instant::now();
        let record = sim.step();
        let wall = wall_start.elapsed().as_secs_f64();
        wall_total += wall;

        let probe_sample = match inst.probe {
            Some(probe) if probe.should_fire(record.step) => Some(probe.measure(
                record.step,
                sim.system(),
                &sim.current_forces().forces,
            )),
            _ => None,
        };

        let profile = mdm_profile::take();
        let mut event = StepEvent::from_profile(record.step, wall, &profile);
        stamp_wall_fraction_gauges(&mut event, &profile, wall);
        for (name, &value) in event.gauges.iter().filter(|(_, v)| v.is_finite()) {
            if let Some((sum, count)) = gauges.get_mut(name) {
                *sum += value;
                *count += 1;
            } else {
                gauges.insert(name.clone(), (value, 1));
            }
        }
        event.observables.extend([
            ("time_fs".to_string(), record.time),
            ("temperature_k".to_string(), record.temperature),
            ("kinetic_ev".to_string(), record.kinetic),
            ("potential_ev".to_string(), record.potential),
            ("total_ev".to_string(), record.total),
        ]);
        // Every force field reports a virial now — the WINE-2 path
        // reduces it host-side from the board's structure factors — so
        // pressure streams unconditionally.
        let virial = sim.current_forces().virial;
        event.observables.insert(
            "pressure_gpa".to_string(),
            mdm_core::observables::pressure_gpa(sim.system(), virial),
        );

        if let Some(sample) = probe_sample {
            last_error = Some(sample.relative());
            event
                .observables
                .insert("force_error_rel".to_string(), sample.relative());
            force_errors.push(sample);
        }

        if let Some(meter) = inst.meter {
            let counter = |name: &str| profile.counters.get(name).copied().unwrap_or(0);
            let (dft, idft) = (counter("wine_dft_ops"), counter("wine_idft_ops"));
            // Backends with paper-credited particle–wave ops are priced
            // by the §2 constants; mesh backends stamp their estimated
            // flop cost on `longrange_flops` instead.
            let speed = if dft + idft > 0 {
                meter.sample(
                    record.step,
                    wall,
                    counter("mdg_coulomb_pair_ops"),
                    dft,
                    idft,
                    last_error,
                )
            } else {
                meter.sample_with_wave_flops(
                    record.step,
                    wall,
                    counter("mdg_coulomb_pair_ops"),
                    counter("longrange_flops") as f64,
                    last_error,
                )
            };
            event
                .observables
                .insert("raw_tflops".to_string(), speed.raw_tflops());
            event
                .observables
                .insert("effective_tflops".to_string(), speed.effective_tflops());
            speeds.push(speed);
        }

        if let Some(dogs) = inst.watchdogs.as_deref_mut() {
            event.violations = dogs.check(sim.system(), &record);
            if let Some(sample) = probe_sample {
                if let Some(v) = dogs.check_force_error(record.step, sample.relative()) {
                    event.violations.push(v);
                }
            }
            violations += event.violations.len() as u64;
        }
        recorder.record(&event)?;

        merged.merge(&profile);
        records.push(record);
    }
    Ok(RecordedRun {
        records,
        profile: merged,
        violations,
        force_errors,
        speeds,
        steps: steps as u64,
        wall_seconds: wall_total,
        gauges,
    })
}

/// Derived per-step utilization gauges. These are computed *after* the
/// registry drain, so they go straight onto the event (and the timeline
/// counter track) — a `gauge()` call here would leak into the *next*
/// step's profile.
fn stamp_wall_fraction_gauges(event: &mut StepEvent, profile: &mdm_profile::Profile, wall: f64) {
    if wall > 0.0 {
        // The Table 4 decomposition as wall fractions: how much of the
        // step each device column occupied.
        for (phase, gauge) in [
            ("real", "mdg.util_wall"),
            ("wave", "wine.util_wall"),
            ("comm", "comm.util_wall"),
            ("host", "host.util_wall"),
        ] {
            if let Some(seconds) = event.phases.get(phase) {
                let frac = seconds / wall;
                event.gauges.insert(gauge.to_string(), frac);
                mdm_profile::timeline_counter(gauge, frac);
            }
        }
    }
    // Rayon utilization over the whole step, capacity-weighted: the
    // busy and capacity counters every region of the step added to.
    let counter = |name: &str| profile.counters.get(name).copied().unwrap_or(0);
    let (busy, capacity) = (counter("rayon_busy_ns"), counter("rayon_capacity_ns"));
    if capacity > 0 {
        let util = busy as f64 / capacity as f64;
        event.gauges.insert("host.rayon_util".to_string(), util);
        mdm_profile::timeline_counter("host.rayon_util", util);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MdmTables;
    use mdm_core::forcefield::EwaldTosiFumi;
    use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use mdm_core::velocities::maxwell_boltzmann;
    use mdm_profile::events::parse_jsonl;
    use std::collections::BTreeMap;

    fn software_sim(dt: f64) -> Simulation<EwaldTosiFumi> {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        maxwell_boltzmann(&mut s, 300.0, 11);
        let ff = EwaldTosiFumi::nacl_default(s.simbox().l());
        Simulation::new(s, ff, dt)
    }

    fn software_manifest(sim: &Simulation<EwaldTosiFumi>) -> RunManifest {
        RunManifest {
            label: "test-nacl".into(),
            command: "cargo test".into(),
            n_particles: sim.system().len() as u64,
            dt_fs: sim.dt(),
            forcefield: "software Ewald (Tosi–Fumi)".into(),
            seed: 11,
            pressure_supported: true,
            ..RunManifest::default()
        }
    }

    #[test]
    fn recorded_run_streams_manifest_steps_and_observables() {
        let mut sim = software_sim(1.0);
        let manifest = software_manifest(&sim);
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        let run = run_instrumented(&mut sim, 4, &mut recorder, Instruments::default()).unwrap();
        assert_eq!(run.records.len(), 4);
        assert_eq!(run.violations, 0);
        // The merged profile saw the integrator spans of every step.
        assert!(run.profile.spans.contains_key("integrate"));

        let text = String::from_utf8(recorder.into_inner()).unwrap();
        let (back, steps) = parse_jsonl(&text).unwrap();
        assert_eq!(back, manifest);
        assert_eq!(steps.len(), 4);
        for (k, event) in steps.iter().enumerate() {
            assert_eq!(event.step, k as u64 + 1);
            assert!(event.observables.contains_key("temperature_k"));
            assert!(event.observables.contains_key("total_ev"));
            assert!(event.wall_seconds > 0.0);
        }
        // Energy is actually conserved step to step in the stream.
        let e0 = steps[0].observables["total_ev"];
        for event in &steps {
            assert!(((event.observables["total_ev"] - e0) / e0).abs() < 1e-3);
        }
    }

    #[test]
    fn watchdog_violations_land_on_the_offending_step() {
        // Unstable timestep (see mdm-core observables tests): the
        // energy-drift violations must appear in the JSONL stream.
        let mut sim = software_sim(40.0);
        let manifest = software_manifest(&sim);
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        let mut dogs = PhysicsWatchdogs::nve(1e-3, 1e9);
        let run = run_instrumented(
            &mut sim,
            10,
            &mut recorder,
            Instruments {
                watchdogs: Some(&mut dogs),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(run.violations > 0, "unstable run must trip the watchdog");

        let text = String::from_utf8(recorder.into_inner()).unwrap();
        let (_, steps) = parse_jsonl(&text).unwrap();
        let flagged: Vec<_> = steps.iter().filter(|e| !e.violations.is_empty()).collect();
        assert!(!flagged.is_empty());
        assert!(flagged[0]
            .violations
            .iter()
            .any(|v| v.monitor == "energy_drift"));
    }

    #[test]
    fn inverse_erfc_recovers_accuracy_parameters() {
        for s in [0.7, 1.5, 2.64, 3.2, 4.5] {
            let back = SpeedMeter::inverse_erfc(mdm_core::special::erfc(s));
            assert!((back - s).abs() < 1e-9, "s={s}: {back}");
        }
        // Out-of-bracket errors clamp instead of diverging.
        assert_eq!(SpeedMeter::inverse_erfc(1.0), SpeedMeter::S_MIN);
        assert_eq!(SpeedMeter::inverse_erfc(0.0), SpeedMeter::S_MAX);
        assert_eq!(SpeedMeter::inverse_erfc(f64::NAN), SpeedMeter::S_MIN);
    }

    #[test]
    fn worse_accuracy_means_lower_effective_speed() {
        let params = mdm_core::ewald::EwaldParams::from_alpha_accuracy(6.4, 3.2, 3.2, 11.28);
        let meter = SpeedMeter::for_run(&params, 64, 11.28);
        assert!(meter.conventional_flops() > 0.0);
        // Re-costing at the nominal accuracy reproduces the nominal
        // conventional minimum only when s_r == s_k; here both are 3.2.
        let nominal = meter.conventional_flops_at_error(mdm_core::special::erfc(3.2));
        assert!(
            (nominal / meter.conventional_flops() - 1.0).abs() < 1e-6,
            "nominal {nominal} vs {}",
            meter.conventional_flops()
        );
        // A sloppier run is worth fewer conventional flops.
        let sloppy = meter.conventional_flops_at_error(1e-2);
        assert!(sloppy < nominal, "sloppy {sloppy} vs nominal {nominal}");
        let speed_good = meter.sample(1, 2.0, 1000, 500, 500, None);
        let speed_bad = meter.sample(1, 2.0, 1000, 500, 500, Some(1e-2));
        assert!(speed_bad.effective_flops_per_s() < speed_good.effective_flops_per_s());
        assert_eq!(speed_bad.raw_flops(), speed_good.raw_flops());
    }

    fn perturbed_nacl() -> mdm_core::System {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        // Break lattice symmetry so the RMS force is honest (a perfect
        // crystal has near-zero forces and any probe error divides by
        // almost nothing).
        let n = s.len();
        for i in 0..n {
            let shift = 0.12 * ((i * 2654435761) % 97) as f64 / 97.0;
            s.displace(i, mdm_core::Vec3::new(shift, -0.5 * shift, 0.3 * shift));
        }
        maxwell_boltzmann(&mut s, 300.0, 11);
        s
    }

    fn mdm_sim() -> Simulation<MdmForceField> {
        let s = perturbed_nacl();
        let ff = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        Simulation::new(s, ff, 1.0)
    }

    #[test]
    fn instrumented_run_streams_accuracy_observables() {
        let mut sim = mdm_sim();
        let l = sim.system().simbox().l();
        let n = sim.system().len() as u64;
        let params = *sim.force_field().params();
        let manifest = mdm_manifest("accuracy-test", "cargo test", &sim, 11);
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        let probe = mdm_core::accuracy::ForceErrorProbe::converged_for_mdm(&params, l, 2, 8);
        let meter = SpeedMeter::for_run(&params, n, l);
        let mut dogs = PhysicsWatchdogs::nve(1e-2, 1e-6).with_force_error_band(1e-3);
        let run = run_instrumented(
            &mut sim,
            3,
            &mut recorder,
            Instruments {
                watchdogs: Some(&mut dogs),
                probe: Some(&probe),
                meter: Some(&meter),
            },
        )
        .unwrap();
        // Steps are 1, 2, 3; the probe fires on step 2 only.
        assert_eq!(run.force_errors.len(), 1);
        assert_eq!(run.force_errors[0].step, 2);
        assert!(
            run.force_errors[0].relative() < 1e-3,
            "healthy emulator run should probe clean: {}",
            run.force_errors[0].relative()
        );
        assert_eq!(run.violations, 0, "healthy run must stay silent");
        assert_eq!(run.speeds.len(), 3);
        for speed in &run.speeds {
            assert!(speed.raw_flops() > 0.0, "emulator counters must be priced");
            assert!(speed.effective_flops_per_s() > 0.0);
        }
        // Steps after the probe re-cost against the measured error.
        assert!(run.speeds[0].conventional_flops_measured.is_none());
        assert!(run.speeds[1].conventional_flops_measured.is_some());
        assert!(run.speeds[2].conventional_flops_measured.is_some());

        let text = String::from_utf8(recorder.into_inner()).unwrap();
        let (_, steps) = parse_jsonl(&text).unwrap();
        assert_eq!(steps.len(), 3);
        for event in &steps {
            assert!(event.observables.contains_key("raw_tflops"));
            assert!(event.observables.contains_key("effective_tflops"));
        }
        assert!(!steps[0].observables.contains_key("force_error_rel"));
        assert!(steps[1].observables.contains_key("force_error_rel"));
        // The probe's reference work is attributed to its own phase on
        // the step it ran, not smeared into the force phases.
        assert!(steps[1].phases.contains_key("probe"));
        assert!(!steps[0].phases.contains_key("probe"));
    }

    /// The emulated machine, plus one record per rayon worker item and
    /// per `run_world` rank on every force evaluation.
    struct RecordsOffThread(MdmForceField);

    impl ForceField for RecordsOffThread {
        fn compute(&mut self, system: &mdm_core::System) -> mdm_core::forcefield::ForceResult {
            use rayon::prelude::*;
            rayon::with_num_threads(4, || {
                (0..32usize).into_par_iter().for_each(|_| {
                    let _leaf = mdm_profile::span("worker_leaf");
                    mdm_profile::counter("worker_hits", 1);
                })
            });
            crate::mpi::run_world(3, |_comm| mdm_profile::counter("rank_hits", 1));
            self.0.compute(system)
        }
    }

    /// One 5-step `cells = 2` run; returns every counter of every step
    /// event (`mdg_pair_ops`, `mdg_cycles`, `wine_*_ops`, `jstore_*`, …
    /// — all but the wall-clock `*_ns` ones) and every span's calls.
    fn metered_run(
        tables: &MdmTables,
        start: &std::sync::Barrier,
    ) -> impl PartialEq + std::fmt::Debug + Send {
        let s = perturbed_nacl();
        let ff = MdmForceField::nacl_default_with_tables(s.simbox().l(), tables.clone());
        let mut sim = Simulation::new(s, RecordsOffThread(ff), 1.0);
        let mut recorder = FlightRecorder::new(Vec::new(), &RunManifest::default()).unwrap();
        start.wait();
        let _outer = mdm_profile::scope();
        let run = run_instrumented(&mut sim, 5, &mut recorder, Instruments::default()).unwrap();
        // The run's own scope took everything its caller, its rayon
        // workers and its ranks recorded; the one around it, nothing.
        assert_eq!(mdm_profile::take(), mdm_profile::Profile::default());
        let text = String::from_utf8(recorder.into_inner()).unwrap();
        let (_, mut steps) = parse_jsonl(&text).unwrap();
        assert_eq!(steps.len(), 5);
        for event in &mut steps {
            assert!(event.counters["mdg_pair_ops"] > 0);
            assert_eq!((event.counters["worker_hits"], event.counters["rank_hits"]), (32, 3));
            event.counters.retain(|name, _| !name.ends_with("_ns"));
        }
        let spans = run.profile.spans.iter();
        let calls: BTreeMap<_, _> = spans.map(|(path, stat)| (path.clone(), stat.calls)).collect();
        assert_eq!((calls["wave"], calls["worker_leaf"]), (5, 5 * 32), "{calls:?}");
        (steps.into_iter().map(|event| event.counters).collect::<Vec<_>>(), calls)
    }

    #[test]
    fn concurrent_runs_meter_exactly_what_a_solo_run_meters() {
        use std::sync::Barrier;
        let tables = MdmTables::build().unwrap();
        let solo = metered_run(&tables, &Barrier::new(1));
        // Two plain threads, no lock: each run's scope keeps the other
        // run's spans and counters out of its per-step drains.
        for rep in 0..20 {
            let start = Barrier::new(2);
            let (a, b) = std::thread::scope(|threads| {
                let a = threads.spawn(|| metered_run(&tables, &start));
                let b = threads.spawn(|| metered_run(&tables, &start));
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!((&a, &b), (&solo, &solo), "repetition {rep}");
        }
    }

    #[test]
    fn degraded_run_trips_the_force_error_watchdog() {
        use mdm_core::ewald::EwaldParams;
        let s = perturbed_nacl();
        let l = s.simbox().l();
        let good_alpha = MdmForceField::nacl_default(l).unwrap().params().alpha;
        // Same α, slashed wave cutoff: the recip sum is truncated at
        // s_k = 1.2 (erfc(1.2) ≈ 0.09) while the reference converges it.
        let bad = EwaldParams::from_alpha_accuracy(good_alpha, 1.2, 1.2, l);
        let ff = MdmForceField::new(bad, 2, 2).unwrap();
        let mut sim = Simulation::new(s, ff, 1.0);
        let manifest = mdm_manifest("degraded-test", "cargo test", &sim, 11);
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        let probe = mdm_core::accuracy::ForceErrorProbe::converged_for_mdm(&bad, l, 1, 8);
        let mut dogs = PhysicsWatchdogs::nve(1e9, 1e-6).with_force_error_band(1e-3);
        let run = run_instrumented(
            &mut sim,
            2,
            &mut recorder,
            Instruments {
                watchdogs: Some(&mut dogs),
                probe: Some(&probe),
                ..Instruments::default()
            },
        )
        .unwrap();
        assert!(run.violations > 0, "degraded run must trip the band");
        let text = String::from_utf8(recorder.into_inner()).unwrap();
        let (_, steps) = parse_jsonl(&text).unwrap();
        assert!(steps
            .iter()
            .flat_map(|e| &e.violations)
            .any(|v| v.monitor == "force_error"));
    }

    #[test]
    fn mdm_manifest_carries_the_ewald_parameters() {
        let s = rocksalt_nacl(2, NACL_LATTICE_A);
        let l = s.simbox().l();
        let ff = MdmForceField::nacl_default(l).unwrap();
        let sim = Simulation::new(s, ff, 2.0);
        let manifest = mdm_manifest("nacl-64", "test", &sim, 7);
        assert_eq!(manifest.n_particles, 64);
        assert!((manifest.dt_fs - 2.0).abs() < 1e-12);
        let alpha = sim.force_field().params().alpha;
        assert!((manifest.params["alpha"] - alpha).abs() < 1e-12);
        assert!(manifest.params.contains_key("r_cut"));
        assert!(manifest.params.contains_key("n_max"));
        assert!(manifest.params["s_r"] > 0.0);
    }

    #[test]
    fn mdm_manifest_names_the_wavenumber_backend_that_ran() {
        let s = rocksalt_nacl(2, NACL_LATTICE_A);
        let l = s.simbox().l();
        let sim = Simulation::new(s.clone(), MdmForceField::nacl_default(l).unwrap(), 2.0);
        let manifest = mdm_manifest("nacl-64", "test", &sim, 7);
        assert!(manifest.forcefield.contains("WINE-2 emulator"), "{}", manifest.forcefield);

        let mut ff = MdmForceField::nacl_default(l).unwrap();
        let params = *ff.params();
        ff.set_longrange(crate::driver::longrange_by_name("pswf", &params, l, 2).unwrap());
        let sim = Simulation::new(s, ff, 2.0);
        let manifest = mdm_manifest("nacl-64-lr-pswf", "test", &sim, 7);
        assert!(manifest.forcefield.to_lowercase().contains("pswf"), "{}", manifest.forcefield);
        assert!(!manifest.forcefield.contains("WINE-2"), "{}", manifest.forcefield);
    }

    #[test]
    fn mdm_manifest_is_environment_stamped() {
        let s = rocksalt_nacl(2, NACL_LATTICE_A);
        let ff = MdmForceField::nacl_default(s.simbox().l()).unwrap();
        let sim = Simulation::new(s, ff, 2.0);
        let manifest = mdm_manifest("nacl-64", "test", &sim, 7);
        // The test binary runs inside the checkout, so the stamp must
        // resolve (MDM_GIT_SHA override also yields a sha-like string).
        assert!(
            manifest.git_sha.len() >= 7
                && manifest.git_sha.chars().all(|c| c.is_ascii_hexdigit()),
            "git_sha: {:?}",
            manifest.git_sha
        );
        assert_ne!(manifest.hostname, "");
        assert!(manifest.nproc >= 1);
        assert!(manifest.threads >= 1);
        // The WINE-2 emulation path reduces a real virial host-side
        // from the structure factors: MDM runs support pressure.
        assert!(manifest.pressure_supported);
    }

    #[test]
    fn pressure_streams_on_software_and_emulated_runs() {
        // Software Ewald reports a virial → pressure_gpa is streamed.
        let mut sim = software_sim(1.0);
        let manifest = software_manifest(&sim);
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        run_instrumented(&mut sim, 2, &mut recorder, Instruments::default()).unwrap();
        let text = String::from_utf8(recorder.into_inner()).unwrap();
        let (_, steps) = parse_jsonl(&text).unwrap();
        for event in &steps {
            let p = steps[0].observables["pressure_gpa"];
            assert!(p.is_finite(), "software pressure must be real: {p}");
            assert!(event.observables.contains_key("pressure_gpa"));
        }

        // The MDM emulator streams a real pressure too, now that the
        // WINE-2 path reports its virial (no more NaN gating).
        let mut sim = mdm_sim();
        let manifest = mdm_manifest("with-pressure", "cargo test", &sim, 11);
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        run_instrumented(&mut sim, 1, &mut recorder, Instruments::default()).unwrap();
        let text = String::from_utf8(recorder.into_inner()).unwrap();
        let (back, steps) = parse_jsonl(&text).unwrap();
        assert!(back.pressure_supported);
        for event in &steps {
            let p = event.observables["pressure_gpa"];
            assert!(p.is_finite(), "emulated pressure must be real: {p}");
        }
    }

    #[test]
    fn instrumented_run_collects_the_utilization_timeseries() {
        let mut sim = mdm_sim();
        let n = sim.system().len() as u64;
        let manifest = mdm_manifest("gauge-test", "cargo test", &sim, 11);
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        let run = run_instrumented(&mut sim, 3, &mut recorder, Instruments::default()).unwrap();
        assert!(run.wall_seconds > 0.0);
        let row = run.reduce("run_instrumented", "gauge-test", n);

        // The driver's device gauges and the derived wall fractions
        // both land on every step line; the row's gauge is their mean.
        let text = String::from_utf8(recorder.into_inner()).unwrap();
        let (_, steps) = parse_jsonl(&text).unwrap();
        assert_eq!(steps.len(), 3);
        for name in [
            "mdg.occupancy",
            "wine.occupancy",
            "comm.jstore_upload_mbps",
            "mdg.util_wall",
            "wine.util_wall",
        ] {
            let per_step: Vec<f64> = steps.iter().map(|event| event.gauges[name]).collect();
            let mean = per_step.iter().sum::<f64>() / 3.0;
            assert!((row.gauges[name] - mean).abs() <= 1e-12 * mean.abs(), "{name}");
        }
        for event in &steps {
            let occupancy = event.gauges["mdg.occupancy"];
            assert!(occupancy > 0.0 && occupancy <= 1.0);
            // Wall fractions are fractions of the measured step.
            assert!(event.gauges["mdg.util_wall"] <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn rayon_utilization_is_the_steps_busy_over_capacity() {
        let mut sim = mdm_sim();
        let manifest = mdm_manifest("rayon-util", "cargo test", &sim, 11);
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        let run = rayon::with_num_threads(2, || {
            run_instrumented(&mut sim, 2, &mut recorder, Instruments::default()).unwrap()
        });
        // The drained step profiles hold the counters, not a gauge.
        assert!(run.profile.counters["rayon_capacity_ns"] > 0);
        assert!(!run.profile.gauges.contains_key("host.rayon_util"));
        let text = String::from_utf8(recorder.into_inner()).unwrap();
        let (_, steps) = parse_jsonl(&text).unwrap();
        assert_eq!(steps.len(), 2);
        for event in &steps {
            let busy = event.counters["rayon_busy_ns"] as f64;
            let capacity = event.counters["rayon_capacity_ns"] as f64;
            assert_eq!(event.gauges["host.rayon_util"], busy / capacity);
        }
    }

    /// A metered `cells = 2` emulated run and the row it reduces to.
    fn metered_row(steps: usize) -> (RecordedRun, RunRecord, RunManifest) {
        let mut sim = mdm_sim();
        let n = sim.system().len() as u64;
        let params = *sim.force_field().params();
        let meter = SpeedMeter::for_run(&params, n, sim.system().simbox().l());
        let manifest = mdm_manifest("ledger-test", "cargo test", &sim, 11);
        let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
        let instruments = Instruments {
            meter: Some(&meter),
            ..Instruments::default()
        };
        let run = run_instrumented(&mut sim, steps, &mut recorder, instruments).unwrap();
        let row = run.reduce("run_instrumented", "ledger-test", n);
        (run, row, manifest)
    }

    #[test]
    fn per_phase_gflops_and_raw_tflops_price_the_same_flops() {
        let (run, row, _) = metered_row(3);
        // Σ_p gflops[p]·phases[p] and raw_tflops·wall are the same
        // credited flops per step, read from the same speed samples.
        let by_phase: f64 = row.gflops.iter().map(|(p, g)| g * 1e9 * row.phases[p]).sum();
        let by_wall = row.raw_tflops.unwrap() * 1e12 * row.wall_seconds_per_step;
        assert!(by_phase > 0.0);
        assert!((by_phase - by_wall).abs() <= 1e-12 * by_wall, "{by_phase} vs {by_wall}");
        let credited: f64 = run.speeds.iter().map(SpeedSample::raw_flops).sum();
        assert!((by_wall - credited / 3.0).abs() <= 1e-12 * by_wall);
        // Phases are per step, and the top-level ones fit in the wall.
        assert!((row.phases["real"] - run.profile.seconds("real") / 3.0).abs() < 1e-15);
        assert!(row.phases.values().sum::<f64>() <= row.wall_seconds_per_step);
        assert!(row.effective_tflops.unwrap() > 0.0);
    }

    #[test]
    fn the_reductions_row_appends_and_reads_back() {
        let path = std::env::temp_dir().join(format!(
            "mdm_telemetry_ledger_{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (run, row, manifest) = metered_row(2);
        mdm_profile::ledger::append_record(&path, &row).unwrap();
        let (rows, skipped) = mdm_profile::ledger::read_ledger(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(rows, [row]);
        let row = &rows[0];
        assert_eq!(row.tool, "run_instrumented");
        assert_eq!(row.label, "ledger-test");
        assert_eq!(row.n_particles, manifest.n_particles);
        assert_eq!(row.steps, 2);
        assert!((row.wall_seconds_per_step - run.wall_seconds / 2.0).abs() < 1e-12);
        assert!(row.phases.contains_key("real"));
        assert!(row.gflops["real"] > 0.0);
        assert!(row.raw_tflops.unwrap() > 0.0);
        assert!(row.effective_tflops.unwrap() > 0.0);
        assert!(row.pressure_supported);
        assert!(row.gauges.contains_key("mdg.occupancy"));
        assert!(row.threads >= 1);
        assert_eq!(row.git_sha, manifest.git_sha);
        let _ = std::fs::remove_file(&path);
    }
}
