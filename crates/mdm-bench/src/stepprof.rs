//! Shared machinery for the step-profiling binaries (`profile_step`,
//! `accuracy_report`): building the emulated-MDM simulation at a given
//! size and turning instrumented steps into a [`StepReport`].

use mdm_core::ewald::EwaldParams;
use mdm_core::integrate::Simulation;
use mdm_core::lattice::{rocksalt_nacl_at_density, PAPER_DENSITY};
use mdm_core::observables::PhysicsWatchdogs;
use mdm_core::velocities::maxwell_boltzmann;
use mdm_host::driver::MdmForceField;
use mdm_host::machines::MachineModel;
use mdm_host::parallel::{parallel_forces, ParallelConfig};
use mdm_host::telemetry::{env_stamp, mdm_manifest, run_instrumented, Instruments};
use mdm_profile::bus::Bus;
use mdm_profile::events::FlightRecorder;
use mdm_profile::ledger::RunRecord;
use mdm_profile::phase;
use mdm_profile::report::StepReport;
use std::io::{self, Write};
use std::path::PathBuf;
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

/// Cells per side for a rocksalt particle count `n = 8·c³`; `None` when
/// `n` is not a valid rocksalt size.
pub fn cells_for_particles(n: u64) -> Option<usize> {
    let cells = ((n as f64 / 8.0).cbrt()).round() as usize;
    (cells >= 1 && (8 * cells * cells * cells) as u64 == n).then_some(cells)
}

/// Build the warm emulated-MDM simulation profiled by [`profile_size`]:
/// `cells` rocksalt cells per side at the paper's density, molten-salt
/// velocities, energy passes pushed out of the window.
///
/// `n3l = true` turns on the Newton's-third-law software fast path
/// (each block pair evaluated once, action and reaction both applied),
/// `false` keeps the hardware-faithful no-N3L streaming pattern.
/// `longrange` names the wavenumber backend — `"wine2"` (the emulated
/// board, the default everywhere), `"ewald"`, `"pme"`, `"pswf"` (see
/// [`mdm_host::driver::LONGRANGE_BACKENDS`]).
pub fn build_sim(cells: usize, n3l: bool, longrange: &str) -> Simulation<MdmForceField> {
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
    ff.set_n3l_fast_path(n3l);
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

/// Stamp the modeled per-step hardware times (from the cycle counters
/// of the last, steady-state step) onto the report's phases.
fn set_modeled(report: &mut StepReport, sim: &Simulation<MdmForceField>) {
    let counters = sim.force_field().last_counters();
    let machine = MachineModel::mdm_current();
    report.set_modeled(phase::REAL, counters.mdg.compute_seconds());
    report.set_modeled(phase::WAVE, counters.wine.compute_seconds());
    report.set_modeled(
        phase::COMM,
        counters.mdg.bus_seconds() + counters.wine.bus_seconds(),
    );
    report.set_modeled(
        phase::HOST,
        200.0 * report.n_particles as f64 / machine.host_flops,
    );
}

/// Stamp the measured per-phase flop throughput (Gflops) onto the
/// report: the paper's §2 flop credits (59 per Coulomb pair, 29/35 per
/// particle–wave) priced against each phase's *measured* wall-clock.
/// This is the emulator's own "calculation speed" column — tiny next to
/// the real hardware's, but the same arithmetic.
fn set_gflops(report: &mut StepReport) {
    let counter = |r: &StepReport, name: &str| r.counters.get(name).copied().unwrap_or(0) as f64;
    let phase_total = |r: &StepReport, name: &str| {
        r.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.measured_seconds * r.steps as f64)
    };
    let real_seconds = phase_total(report, phase::REAL);
    if real_seconds > 0.0 {
        let flops =
            mdm_core::flops::FLOPS_PER_REAL_PAIR * counter(report, "mdg_coulomb_pair_ops");
        report.set_gflops(phase::REAL, flops / real_seconds / 1e9);
    }
    let wave_seconds = phase_total(report, phase::WAVE);
    if wave_seconds > 0.0 {
        let (dft, idft) = (
            counter(report, "wine_dft_ops"),
            counter(report, "wine_idft_ops"),
        );
        // Paper-credited DFT/IDFT pricing when the wave engine counts
        // particle–wave ops; mesh backends (PME, PSWF) stamp their
        // estimated cost on `longrange_flops` instead.
        let flops = if dft + idft > 0.0 {
            mdm_core::flops::FLOPS_PER_WAVE_DFT * dft + mdm_core::flops::FLOPS_PER_WAVE_IDFT * idft
        } else {
            counter(report, "longrange_flops")
        };
        report.set_gflops(phase::WAVE, flops / wave_seconds / 1e9);
    }
}

/// Run `steps` profiled MD steps at `cells` rocksalt cells per side and
/// assemble the measured-vs-modeled report (see [`build_sim`] for
/// `n3l` and `longrange`; non-default backends get `-lr-{name}`
/// appended to the label so ledger rows stay distinguishable).
///
/// There is one path, recorded or not: one untimed warm-up step absorbs
/// first-touch effects (page faults, cache warmup, lazily built
/// tables), then [`run_instrumented`] drives the window, streaming
/// every step's phases, counters, observables and watchdog verdicts to
/// `sink` as JSONL (pass [`io::sink`] when nothing is recorded) and
/// building the report from the merged per-step profiles. The step
/// time is the sum of the per-step walls, so recording overhead never
/// counts against the machine.
///
/// With a live telemetry [`Bus`], the size's manifest is published
/// first (so connected `mdm_top` viewers re-header when a ladder moves
/// to the next size), then every step event goes to the recorder *and*
/// the bus — what `profile_step --serve` runs.
pub fn profile_size<W: Write>(
    cells: usize,
    steps: u64,
    n3l: bool,
    longrange: &str,
    sink: W,
    bus: Option<&Bus>,
) -> io::Result<StepReport> {
    let mut sim = build_sim(cells, n3l, longrange);
    sim.run(1);
    let n = sim.system().len();
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
    if let Some(bus) = bus {
        bus.publish_manifest(&manifest);
    }
    // Loose NVE watchdogs: the profiled window is a handful of steps of
    // a healthy melt, so anything they catch is a genuine emulator bug.
    let mut dogs = PhysicsWatchdogs::nve(1e-2, 1e-6);

    let run = run_instrumented(
        &mut sim,
        steps as usize,
        &mut recorder,
        Instruments {
            watchdogs: Some(&mut dogs),
            bus,
            ..Instruments::default()
        },
    )?;

    let mut report = StepReport::from_profile(
        label,
        n as u64,
        steps,
        run.wall_seconds,
        &run.profile,
        &[phase::REAL, phase::WAVE, phase::COMM, phase::HOST],
    );
    set_modeled(&mut report, &sim);
    set_gflops(&mut report);
    Ok(report)
}

/// Profile the §4 simulated-MPI parallel program: `steps` repetitions
/// of [`parallel_forces`] at `cells` rocksalt cells per side under the
/// given process layout. Every rank's spans land in this run's own
/// scope (and, when a timeline session is open, on the timeline
/// stamped with that rank plus the send/recv flow endpoints), so the
/// report's phase decomposition is the *sum over ranks* — pair it with
/// `--critical-path` to see which rank chain actually bounds the step.
/// What `profile_step --world R,W` runs; labeled
/// `nacl-{n}-world-{R}x{W}`.
pub fn profile_world(cells: usize, steps: u64, config: ParallelConfig) -> StepReport {
    let mut system = rocksalt_nacl_at_density(cells, PAPER_DENSITY);
    let n = system.len();
    let l = system.simbox().l();
    maxwell_boltzmann(&mut system, T_MELT, 2000 + cells as u64);
    let params = balanced_params(l, n);
    let n_real: usize = config.real_dims.iter().product();
    let label = format!("nacl-{n}-world-{n_real}x{}", config.wave_processes);

    // Warmup once (thread spawn paths, allocator), then measure.
    parallel_forces(&system, &params, config);
    let _scope = mdm_profile::scope();
    let t0 = Instant::now();
    for _ in 0..steps {
        parallel_forces(&system, &params, config);
    }
    let total = t0.elapsed().as_secs_f64();
    let profile = mdm_profile::take();
    StepReport::from_profile(
        label,
        n as u64,
        steps,
        total,
        &profile,
        &[phase::REAL, phase::WAVE, phase::COMM, phase::HOST],
    )
}

/// The run ledger every bench binary appends to: one row per
/// invocation per size, at the repo root (`results/ledger.jsonl`).
/// The `MDM_LEDGER` environment variable overrides the location (CI
/// points it at the workspace; tests at a temp dir).
pub fn default_ledger_path() -> PathBuf {
    std::env::var("MDM_LEDGER")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
                .join("results/ledger.jsonl")
        })
}

/// Reduce an aggregate [`StepReport`] to its one-line ledger row.
///
/// Speed/accuracy aggregates stay `None` — they belong to the metered
/// entry points (`accuracy_report`, `run_instrumented`); a step profile
/// contributes the regression metric, the Table 4 phase decomposition,
/// throughput, and utilization gauges. Every backend (including the
/// emulated MDM) reports a virial now, so `pressure_supported` is true.
pub fn ledger_row(tool: &str, report: &StepReport) -> RunRecord {
    let mut record = RunRecord {
        tool: tool.to_string(),
        label: report.label.clone(),
        threads: rayon::current_num_threads() as u64,
        n_particles: report.n_particles,
        steps: report.steps,
        wall_seconds_per_step: report.total_seconds,
        phases: report
            .phases
            .iter()
            .map(|p| (p.name.clone(), p.measured_seconds))
            .collect(),
        gflops: report.gflops.clone(),
        gauges: report.gauges.clone(),
        pressure_supported: true,
        ..RunRecord::default()
    };
    // Reconstruct the raw step throughput from the per-phase rates:
    // each Gflops entry is flops over that phase's wall, so
    // rate x phase seconds recovers the flops, and the sum over the
    // step wall is the Table 4 "calculation speed" for this run.
    if !report.gflops.is_empty() && report.total_seconds > 0.0 {
        let flops: f64 = report
            .gflops
            .iter()
            .filter_map(|(phase, g)| {
                let seconds = record.phases.get(phase)?;
                Some(g * 1e9 * seconds)
            })
            .sum();
        if flops > 0.0 {
            record.raw_tflops = Some(flops / report.total_seconds / 1e12);
        }
    }
    record.stamp_now();
    record.stamp_env(&env_stamp());
    record
}

/// Append `report`'s ledger row to [`default_ledger_path`], stamped
/// with the live-telemetry annotations `mdm_report` trends: the
/// critical-path bottleneck label (e.g. `rank1/real`) from a
/// `--critical-path` analysis, and the run's bus drop count from a
/// `--serve` stream. An io failure is reported, not fatal — the
/// measurement the caller just printed matters more than the
/// bookkeeping.
pub fn append_to_ledger(
    tool: &str,
    report: &StepReport,
    critical_path: Option<&str>,
    bus_dropped_events: u64,
) {
    let mut row = ledger_row(tool, report);
    row.critical_path = critical_path.map(str::to_string);
    row.bus_dropped_events = bus_dropped_events;
    let path = default_ledger_path();
    match mdm_profile::ledger::append_record(&path, &row) {
        Ok(()) => eprintln!("ledger: appended {tool}:{} to {}", report.label, path.display()),
        Err(e) => eprintln!("ledger: SKIPPED {tool}:{} ({}: {e})", report.label, path.display()),
    }
}

/// Modeled step time by the Table 4 rule:
/// `max(t_wine, t_mdg) + t_comm + t_host`.
pub fn modeled_step(report: &StepReport) -> f64 {
    let get = |name: &str| {
        report
            .phases
            .iter()
            .find(|p| p.name == name)
            .and_then(|p| p.modeled_seconds)
            .unwrap_or(0.0)
    };
    get(phase::REAL).max(get(phase::WAVE)) + get(phase::COMM) + get(phase::HOST)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_round_trip_particle_counts() {
        assert_eq!(cells_for_particles(512), Some(4));
        assert_eq!(cells_for_particles(4096), Some(8));
        assert_eq!(cells_for_particles(32768), Some(16));
        assert_eq!(cells_for_particles(1000), Some(5));
        assert_eq!(cells_for_particles(1001), None);
        assert_eq!(cells_for_particles(100), None);
        assert_eq!(cells_for_particles(0), None);
    }

    #[test]
    fn recorded_profile_matches_plain_profile_shape() {
        // One small recorded step: the report has the Table 4 phases
        // and the JSONL stream parses back with matching N.
        let mut jsonl = Vec::new();
        let report = profile_size(3, 1, false, "wine2", &mut jsonl, None).unwrap();
        assert_eq!(report.n_particles, 8 * 27);
        assert_eq!(report.phases.len(), 4);
        assert!(report.phases.iter().any(|p| p.name == "real"));
        // The paper-flop-credit throughput is derived for both engines.
        assert!(report.gflops["real"] > 0.0);
        assert!(report.gflops["wave"] > 0.0);

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
        let plain = profile_size(3, 1, false, "wine2", io::sink(), None).unwrap();
        let recorded = profile_size(3, 1, false, "wine2", Vec::new(), None).unwrap();
        let names = |r: &StepReport| r.phases.iter().map(|p| p.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&plain), names(&recorded));
        // Every count must agree exactly; only the wall-clock
        // counters (`rayon_busy_ns`, `rayon_capacity_ns`) differ run
        // to run.
        let counts = |r: &StepReport| {
            let mut counters = r.counters.clone();
            counters.retain(|name, _| !name.ends_with("_ns"));
            counters
        };
        assert!(counts(&plain).contains_key("mdg_pair_ops"));
        assert_eq!(counts(&plain), counts(&recorded));
        assert_eq!(plain.n_particles, recorded.n_particles);
    }

    #[test]
    fn recorded_run_honours_the_longrange_backend() {
        let steps = 2;
        let mut jsonl = Vec::new();
        let report = profile_size(3, steps, false, "pswf", &mut jsonl, None).unwrap();
        assert_eq!(report.label, "nacl-216-lr-pswf");

        let text = String::from_utf8(jsonl).unwrap();
        let (manifest, events) = mdm_profile::events::parse_jsonl(&text).unwrap();
        assert_eq!(manifest.label, "nacl-216-lr-pswf");
        assert_eq!(events.len() as u64, steps);
        for event in &events {
            assert_eq!(event.counters.get("wine_dft_ops").copied().unwrap_or(0), 0);
        }
    }

    #[test]
    fn ledger_row_reduces_a_report() {
        let report = profile_size(3, 1, false, "wine2", io::sink(), None).unwrap();
        let row = ledger_row("profile_step", &report);
        assert_eq!(row.tool, "profile_step");
        assert_eq!(row.label, report.label);
        assert_eq!(row.n_particles, 8 * 27);
        assert!((row.wall_seconds_per_step - report.total_seconds).abs() < 1e-12);
        assert!(row.phases.contains_key("real"));
        assert!(row.phases.contains_key("wave"));
        // The driver's per-device gauges flow through to the row.
        assert!(row.gauges.contains_key("mdg.occupancy"));
        assert!(row.gauges.contains_key("wine.occupancy"));
        assert!(row.pressure_supported);
        // Raw throughput is rebuilt from the per-phase Gflops rates and
        // must stay below the sum of the rates (phases share the wall).
        let rate_sum_tflops: f64 = report.gflops.values().sum::<f64>() / 1e3;
        let raw = row.raw_tflops.expect("report with gflops gets a raw rate");
        assert!(raw > 0.0);
        assert!(raw <= rate_sum_tflops + 1e-12);
        assert!(row.threads >= 1);
        assert!(row.timestamp_s > 0);
        // The row round-trips through the ledger line format.
        let line = row.to_json().to_compact();
        let back = RunRecord::from_json(
            &mdm_profile::json::Value::parse(&line).unwrap(),
        )
        .unwrap();
        assert_eq!(back, row);
    }
}
