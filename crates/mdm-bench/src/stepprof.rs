//! Shared machinery for the step-profiling binaries (`profile_step`,
//! `accuracy_report`): building the emulated-MDM simulation at a given
//! size and running the profiled window that is reduced to its ledger
//! row ([`RunRecord`]), and reading the §4 program's step from its
//! ranks' spans ([`WorldStep`]).

use mdm_core::ewald::EwaldParams;
use mdm_core::integrate::Simulation;
use mdm_core::lattice::{rocksalt_nacl_at_density, PAPER_DENSITY};
use mdm_core::observables::PhysicsWatchdogs;
use mdm_core::velocities::maxwell_boltzmann;
use mdm_host::driver::MdmForceField;
use mdm_host::machines::MachineModel;
use mdm_host::parallel::{parallel_forces, ParallelConfig};
use mdm_host::telemetry::{
    mdm_manifest, run_instrumented, Instruments, RecordedRun, SpeedMeter,
};
use mdm_profile::events::FlightRecorder;
use mdm_profile::ledger::RunRecord;
use mdm_profile::{phase, Profile, Timeline};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Molten-salt temperature for the velocity draw (NaCl melts at
/// 1,074 K; the exact value only flavours the trajectory).
pub const T_MELT: f64 = 1074.0;

/// Balanced Ewald parameters for a box of side `l` with `n` particles.
///
/// The paper's §2 argument, transplanted to the machine we actually run
/// on: α should balance the *times* of the two engines, not their flop
/// counts. On the real MDM that pushes α from 30 to 85 (WINE-2 is 45×
/// faster than MDGRAPE-2); in the emulator the real-space pair op is
/// ~2.4× costlier than the wave op, which pushes α the same direction.
/// The emulator's real-space cost is a *step function* of the cell
/// grid — the block pair search visits all 27 neighbour cells of a
/// `c³` grid with `c = ⌊α/s⌋`, so real time ∝ 27·N²/c³ while wave
/// time ∝ N·α³. Balancing the two gives `c ≈ (0.8·N)^{1/6}` (the 0.8
/// folds the emulator's per-op cost ratio the way the paper's
/// `59·π³/64` folds the flop credits; fitted so both engines land
/// within ~20% of each other at N = 4,096). α then sits just above the
/// `c`-cell boundary. Without this, N = 32,768 at the conventional
/// flop-balance α is stuck at 3 cells per side (effectively all
/// pairs) and one step takes ~12 minutes instead of ~15 s.
pub fn balanced_params(l: f64, n: usize) -> EwaldParams {
    let s = 3.2f64;
    let cells = (0.8 * n as f64).powf(1.0 / 6.0).round().max(3.0);
    let alpha = 1.02 * s * cells;
    EwaldParams::from_alpha_accuracy(alpha, s, s, l)
}

/// Build the warm emulated-MDM simulation profiled by [`profile_size`]:
/// `cells` rocksalt cells per side at the paper's density, molten-salt
/// velocities, energy passes pushed out of the window, real-space
/// passes in the hardware-faithful no-N3L streaming pattern.
/// `longrange` names the wavenumber backend — `"wine2"` (the emulated
/// board, the default everywhere), `"ewald"`, `"pme"`, `"pswf"` (see
/// [`mdm_host::driver::LONGRANGE_BACKENDS`]).
pub fn build_sim(cells: usize, longrange: &str) -> Simulation<MdmForceField> {
    let mut system = rocksalt_nacl_at_density(cells, PAPER_DENSITY);
    let n = system.len();
    let l = system.simbox().l();
    maxwell_boltzmann(&mut system, T_MELT, 2000 + cells as u64);

    // Mesh backends bring their own operating point (fixed ~9 Å
    // cutoff); everything else runs at the machine-balance α. The
    // real-space engine always uses the same params as the wavenumber
    // backend — the driver asserts the two α agree.
    let params = mdm_core::longrange::default_operating_point(longrange, l)
        .unwrap_or_else(|| balanced_params(l, n));
    let mut ff = MdmForceField::new(params, 2, 2).expect("function tables build");
    // The paper amortised the energy-mode passes over 100 steps; push
    // them out of the profiled window entirely so every timed step is
    // the steady-state force-only step of Table 4.
    ff.set_potential_interval(u64::MAX);
    if longrange != "wine2" {
        let backend = mdm_host::driver::longrange_by_name(longrange, &params, l, 2)
            .unwrap_or_else(|| {
                panic!(
                    "unknown long-range backend {longrange:?} (known: {:?})",
                    mdm_host::LONGRANGE_BACKENDS
                )
            });
        ff.set_longrange(backend);
    }

    // Warmup: Simulation::new evaluates the initial forces (first-time
    // table uploads, the one potential pass) outside the timed window.
    Simulation::new(system, ff, 2.0)
}

/// Modeled per-step hardware times, phase by phase, from the cycle
/// counters of the last (steady-state) step — the `modeled` column.
fn modeled_phases(sim: &Simulation<MdmForceField>) -> BTreeMap<String, f64> {
    let counters = sim.force_field().last_counters();
    let host = 200.0 * sim.system().len() as f64 / MachineModel::mdm_current().host_flops;
    [
        (phase::REAL, counters.mdg.compute_seconds()),
        (phase::WAVE, counters.wine.compute_seconds()),
        (phase::COMM, counters.mdg.bus_seconds() + counters.wine.bus_seconds()),
        (phase::HOST, host),
    ]
    .into_iter()
    .map(|(name, seconds)| (name.to_string(), seconds))
    .collect()
}

/// Run `steps` profiled MD steps at `cells` rocksalt cells per side and
/// return the run's `profile_step` ledger row — measured phases, metered
/// Gflops / Tflops, gauge means and the `modeled` column — with the
/// merged profile it was reduced from (see [`build_sim`] for
/// `longrange`; non-default backends get `-lr-{name}` appended to the
/// label so ledger rows stay distinguishable), and last the profile of
/// the set-up: its initial force evaluation is the run's one energy
/// step (`real.potential`, `host.virial`), which the timed window by
/// design never contains.
///
/// There is one path, recorded or not: one untimed warm-up step absorbs
/// first-touch effects (page faults, cache warmup, lazily built
/// tables), then [`run_instrumented`] drives the window, streaming
/// every step's phases, counters, observables and watchdog verdicts to
/// `sink` as JSONL (pass [`io::sink`] when nothing is recorded). The
/// step time is the sum of the per-step walls, so recording overhead
/// never counts against the machine.
pub fn profile_size<W: Write>(
    cells: usize,
    steps: u64,
    longrange: &str,
    sink: W,
) -> io::Result<(RunRecord, Profile, Profile)> {
    let (mut sim, energy_step) = {
        let _scope = mdm_profile::scope();
        (build_sim(cells, longrange), mdm_profile::take())
    };
    sim.run(1);
    let n = sim.system().len();
    let meter = SpeedMeter::for_run(sim.force_field().params(), n as u64, sim.system().simbox().l());
    let label = if longrange == "wine2" {
        format!("nacl-{n}")
    } else {
        format!("nacl-{n}-lr-{longrange}")
    };
    let manifest = mdm_manifest(
        &label,
        "cargo run --release -p mdm-bench --bin profile_step -- --record",
        &sim,
        2000 + cells as u64,
    );
    let mut recorder = FlightRecorder::new(sink, &manifest)?;
    // Loose NVE watchdogs: the profiled window is a handful of steps of
    // a healthy melt, so anything they catch is a genuine emulator bug.
    let mut dogs = PhysicsWatchdogs::nve(1e-2, 1e-6);

    let run = run_instrumented(
        &mut sim,
        steps as usize,
        &mut recorder,
        Instruments {
            watchdogs: Some(&mut dogs),
            meter: Some(&meter),
            ..Instruments::default()
        },
    )?;
    let mut row = run.reduce("profile_step", &label, n as u64);
    row.modeled = modeled_phases(&sim);
    Ok((row, run.profile, energy_step))
}

/// The §4 program's step read the way Table 4 reads the machine:
/// `t_step = max(t_real, t_wave) + t_comm`. Its shape is fixed — real
/// ranks run `real`; wave ranks run `wave`, the all-reduce, `wave`;
/// every rank joins one gather — so the step is bound by the busiest
/// rank of one group, and everything else is the collectives and the
/// waits on them. A wait is never compute time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorldStep {
    /// The busiest rank's summed `real` seconds per step, and that rank.
    pub real: (f64, u64),
    /// The busiest rank's summed `wave` seconds per step, and that rank.
    pub wave: (f64, u64),
    /// The wall step less `max(real, wave)`, so the three terms add up
    /// to the wall step.
    pub comm: f64,
}

impl WorldStep {
    /// Read the step from the ranked top-level spans of `timeline`
    /// that start at or after `from_us` (earlier ones are the warm-up),
    /// over `steps` steps of `wall_seconds_per_step` each.
    pub fn read(timeline: &Timeline, from_us: f64, steps: u64, wall_seconds_per_step: f64) -> Self {
        let busiest = |path: &str| {
            let mut per_rank = BTreeMap::<u64, f64>::new();
            for e in &timeline.events {
                match e.rank {
                    Some(rank) if e.path == path && e.start_us >= from_us => {
                        *per_rank.entry(rank).or_default() += e.dur_us * 1e-6 / steps as f64;
                    }
                    _ => {}
                }
            }
            per_rank
                .into_iter()
                .fold((0.0, 0), |best, (rank, s)| if s > best.0 { (s, rank) } else { best })
        };
        let (real, wave) = (busiest(phase::REAL), busiest(phase::WAVE));
        let comm = (wall_seconds_per_step - real.0.max(wave.0)).max(0.0);
        Self { real, wave, comm }
    }

    /// The phase and the rank that bound the step.
    pub fn bound(&self) -> (&'static str, u64) {
        if self.wave.0 > self.real.0 {
            (phase::WAVE, self.wave.1)
        } else {
            (phase::REAL, self.real.1)
        }
    }
}

/// Profile the §4 simulated-MPI parallel program: `steps` repetitions
/// of [`parallel_forces`] at `cells` rocksalt cells per side under the
/// given process layout, after one warm-up call. Both are traced on
/// one timeline (returned for `--trace`: a process group per rank plus
/// the send/recv flows), and the row's phases are the [`WorldStep`]
/// read from the measured window's rank spans. What
/// `profile_step --world R,W` runs; labeled `nacl-{n}-world-{R}x{W}`.
/// The software kernels it runs count no cycles and meter no flops, so
/// the row has phases only.
pub fn profile_world(
    cells: usize,
    steps: u64,
    config: ParallelConfig,
) -> (RunRecord, Profile, WorldStep, Timeline) {
    let mut system = rocksalt_nacl_at_density(cells, PAPER_DENSITY);
    let n = system.len();
    let l = system.simbox().l();
    maxwell_boltzmann(&mut system, T_MELT, 2000 + cells as u64);
    let params = balanced_params(l, n);
    let label = format!("nacl-{n}-world-{}x{}", config.real_processes, config.wave_processes);

    // Warmup once (thread spawn paths, allocator), then measure; the
    // run's profile keeps the measured window only.
    let _scope = mdm_profile::scope();
    mdm_profile::timeline_start();
    parallel_forces(&system, &params, config);
    mdm_profile::reset();
    let from_us = mdm_profile::timeline_now_us().unwrap_or(0.0);
    let t0 = Instant::now();
    for _ in 0..steps {
        parallel_forces(&system, &params, config);
    }
    let wall_seconds = t0.elapsed().as_secs_f64();
    let timeline = mdm_profile::timeline_stop();
    let run = RecordedRun {
        steps,
        wall_seconds,
        profile: mdm_profile::take(),
        ..RecordedRun::default()
    };
    let mut row = run.reduce("profile_step", &label, n as u64);
    let step = WorldStep::read(&timeline, from_us, steps, row.wall_seconds_per_step);
    row.phases = [(phase::REAL, step.real.0), (phase::WAVE, step.wave.0), (phase::COMM, step.comm)]
        .into_iter()
        .map(|(name, seconds)| (name.to_string(), seconds))
        .collect();
    (row, run.profile, step, timeline)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorded_profile_matches_plain_profile_shape() {
        // One small recorded step: the row has the Table 4 phases and
        // the JSONL stream parses back with matching N.
        let mut jsonl = Vec::new();
        let (row, _, _) = profile_size(3, 1, "wine2", &mut jsonl).unwrap();
        assert_eq!(row.n_particles, 8 * 27);
        for name in [phase::REAL, phase::WAVE, phase::COMM, phase::HOST] {
            assert!(row.phases.contains_key(name), "{name}");
            assert!(row.modeled[name] > 0.0, "{name}");
        }
        // The paper-flop-credit throughput is derived for both engines.
        assert!(row.gflops["real"] > 0.0);
        assert!(row.gflops["wave"] > 0.0);

        let text = String::from_utf8(jsonl).unwrap();
        let (manifest, steps) = mdm_profile::events::parse_jsonl(&text).unwrap();
        assert_eq!(manifest.n_particles, 8 * 27);
        assert!(manifest.params.contains_key("alpha"));
        assert_eq!(steps.len(), 1);
        assert!(steps[0].phases.contains_key("real"));
        assert!(steps[0].observables.contains_key("temperature_k"));
    }

    #[test]
    fn recorded_and_unrecorded_profiles_share_one_path() {
        let (plain, plain_profile, _) =
            profile_size(3, 1, "wine2", io::sink()).unwrap();
        let (recorded, recorded_profile, _) =
            profile_size(3, 1, "wine2", Vec::new()).unwrap();
        let names = |r: &RunRecord| r.phases.keys().cloned().collect::<Vec<_>>();
        assert_eq!(names(&plain), names(&recorded));
        // Every count must agree exactly; only the wall-clock
        // counters (`rayon_busy_ns`, `rayon_capacity_ns`) differ run
        // to run.
        let counts = |p: &Profile| {
            let mut counters: BTreeMap<_, _> = p.counters.clone().into_iter().collect();
            counters.retain(|name, _| !name.ends_with("_ns"));
            counters
        };
        assert!(counts(&plain_profile).contains_key("mdg_pair_ops"));
        assert_eq!(counts(&plain_profile), counts(&recorded_profile));
        assert_eq!(plain.n_particles, recorded.n_particles);
        assert_eq!(plain.modeled, recorded.modeled);
    }

    #[test]
    fn recorded_run_honours_the_longrange_backend() {
        let steps = 2;
        let mut jsonl = Vec::new();
        let (row, _, _) = profile_size(3, steps, "pswf", &mut jsonl).unwrap();
        assert_eq!(row.label, "nacl-216-lr-pswf");

        let text = String::from_utf8(jsonl).unwrap();
        let (manifest, events) = mdm_profile::events::parse_jsonl(&text).unwrap();
        assert_eq!(manifest.label, "nacl-216-lr-pswf");
        assert_eq!(events.len() as u64, steps);
        for event in &events {
            assert_eq!(event.counters.get("wine_dft_ops").copied().unwrap_or(0), 0);
        }
    }

    #[test]
    fn a_profiled_size_is_reduced_to_one_complete_row() {
        let (row, profile, energy_step) =
            profile_size(3, 2, "wine2", io::sink()).unwrap();
        // The one energy step is the set-up's; the window has none.
        assert!(energy_step.seconds("host.virial") > 0.0);
        assert!(!profile.spans.contains_key("host.virial"));
        assert_eq!(row.tool, "profile_step");
        assert_eq!(row.label, "nacl-216");
        assert_eq!((row.n_particles, row.steps), (8 * 27, 2));
        // Phases are per step and fit in the step wall.
        assert!((row.phases["real"] - profile.seconds("real") / 2.0).abs() < 1e-15);
        assert!(row.phases.values().sum::<f64>() <= row.wall_seconds_per_step);
        // The driver's per-device gauges flow through to the row.
        assert!(row.gauges.contains_key("mdg.occupancy"));
        assert!(row.gauges.contains_key("wine.occupancy"));
        assert!(row.pressure_supported);
        // Metered like every other row: per-phase rates and the step
        // rates price the same flops, and the phases share the wall,
        // so the step rate stays below the sum of the phase rates.
        let raw = row.raw_tflops.expect("profile_size meters its run");
        assert!(row.effective_tflops.expect("effective speed from the same meter") > 0.0);
        let by_phase: f64 = row.gflops.iter().map(|(p, g)| g * 1e9 * row.phases[p]).sum();
        let by_wall = raw * 1e12 * row.wall_seconds_per_step;
        assert!(by_phase > 0.0);
        assert!((by_phase - by_wall).abs() <= 1e-12 * by_wall, "{by_phase} vs {by_wall}");
        assert!(raw <= row.gflops.values().sum::<f64>() / 1e3 + 1e-12);
        assert!(row.threads >= 1);
        assert!(row.timestamp_s > 0);
        // The row round-trips through the ledger line format.
        let line = row.to_json().to_compact();
        let back = RunRecord::from_json(&mdm_profile::json::Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, row);
    }

    #[test]
    fn modeled_column_reproduces_the_table4_step_time() {
        // `profile_step --cells 4 --steps 2` has printed this modeled
        // t_step since the cycle counters were last touched (PR 19):
        // max(real 3.27e-4, wave 2.00e-5) + comm 6.89e-3 + host 4.27e-5.
        let (row, _, _) = profile_size(4, 2, "wine2", io::sink()).unwrap();
        let m = &row.modeled;
        let t_step = m["real"].max(m["wave"]) + m["comm"] + m["host"];
        assert_eq!(row.modeled_step_seconds(), Some(t_step));
        assert_eq!(crate::sci(t_step), "7.26e-3");
    }

    #[test]
    fn the_parallel_program_reduces_to_a_phases_only_row() {
        let config = ParallelConfig {
            real_processes: 2,
            wave_processes: 2,
        };
        let (row, profile, step, timeline) = profile_world(3, 1, config);
        assert_eq!(row.label, "nacl-216-world-2x2");
        assert!(row.phases["real"] > 0.0 && row.phases["wave"] > 0.0);
        assert!(profile.spans.contains_key("real"));
        assert!(row.gflops.is_empty() && row.modeled.is_empty() && row.gauges.is_empty());
        assert_eq!((row.raw_tflops, row.modeled_step_seconds()), (None, None));
        // The row reads the busiest rank of each group, not the sum over
        // ranks: max(real, wave) + comm is the wall step, and no phase
        // exceeds it.
        let wall = row.wall_seconds_per_step;
        let t_step = row.phases["real"].max(row.phases["wave"]) + row.phases["comm"];
        assert!((t_step - wall).abs() <= 1e-12 * wall, "{t_step} vs {wall}");
        assert!(row.phases.values().all(|&s| s <= wall), "{:?} vs {wall}", row.phases);
        let phases = (row.phases["real"], row.phases["wave"], row.phases["comm"]);
        assert_eq!((step.real.0, step.wave.0, step.comm), phases);
        // The timeline holds the warm-up call and the measured one.
        let rank3_waves = timeline.events.iter().filter(|e| e.rank == Some(3) && e.path == "wave");
        assert_eq!(rank3_waves.count(), 4);
    }

    /// A synthetic ranked span, µs.
    fn span(rank: u64, path: &str, start_us: f64, end_us: f64) -> mdm_profile::TimelineEvent {
        mdm_profile::TimelineEvent {
            path: path.to_string(),
            start_us,
            dur_us: end_us - start_us,
            thread: rank,
            rank: Some(rank),
        }
    }

    /// One 100 µs step of a 2 + 2 world whose rank 1 runs `real` for
    /// `real_us` and whose rank 3 runs two `wave` halves of `wave_us`
    /// together; rank 0 sits in the gather from its `real` to the end.
    fn world_step(real_us: f64, wave_us: f64) -> Timeline {
        let half = wave_us / 2.0;
        Timeline {
            events: vec![
                span(0, "real", 0.0, 10.0),
                span(0, "comm", 10.0, 100.0),
                span(0, "comm.gather", 10.0, 100.0),
                span(1, "real", 0.0, real_us),
                span(1, "comm", real_us, 100.0),
                span(2, "wave", 0.0, 5.0),
                span(2, "comm", 5.0, 100.0),
                span(3, "wave", 0.0, half),
                span(3, "wave.dft", 0.0, half),
                span(3, "comm", half, half + 10.0),
                span(3, "wave", half + 10.0, wave_us + 10.0),
                span(3, "comm", wave_us + 10.0, 100.0),
                // An unranked span (the main thread) is no rank's work.
                mdm_profile::TimelineEvent {
                    rank: None,
                    ..span(0, "real", 0.0, 100.0)
                },
            ],
            ..Timeline::default()
        }
    }

    #[test]
    fn a_late_wave_rank_bounds_the_step_not_the_waiting_root() {
        // Rank 0 spends 90 of the 100 µs blocked in the gather; the
        // step is bound by rank 3's 80 µs of `wave`.
        let step = WorldStep::read(&world_step(30.0, 80.0), 0.0, 1, 100e-6);
        assert_eq!(step.bound(), ("wave", 3));
        assert!((step.real.0 - 30e-6).abs() < 1e-18 && step.real.1 == 1);
        assert!((step.wave.0 - 80e-6).abs() < 1e-18);
        assert!((step.comm - 20e-6).abs() < 1e-18, "{}", step.comm);
    }

    #[test]
    fn a_long_real_rank_bounds_the_step() {
        let step = WorldStep::read(&world_step(85.0, 40.0), 0.0, 1, 100e-6);
        assert_eq!(step.bound(), ("real", 1));
        assert!((step.real.0.max(step.wave.0) + step.comm - 100e-6).abs() < 1e-18);
    }

    #[test]
    fn comm_is_never_negative() {
        for (real_us, wave_us) in [(100.0, 10.0), (10.0, 90.0), (0.0, 0.0), (99.9, 89.9)] {
            let timeline = world_step(real_us, wave_us);
            for wall in [100e-6, 50e-6, 0.0] {
                let step = WorldStep::read(&timeline, 0.0, 1, wall);
                assert!(step.comm >= 0.0, "{real_us} {wave_us} {wall}: {}", step.comm);
            }
        }
        // Spans before the window (the warm-up) are not read, and
        // `steps` divides what is.
        let step = WorldStep::read(&world_step(30.0, 80.0), 50.0, 2, 25e-6);
        assert_eq!(step.real, (0.0, 0));
        assert!((step.wave.0 - 20e-6).abs() < 1e-18 && step.wave.1 == 3);
        assert!(step.comm >= 0.0);
    }
}
