//! The two trajectory workloads: one NaCl simulation through
//! `MdmForceField`, each timed step one `run_instrumented(.., 1, ..)`.

use crate::hostspeed::Speed;
use crate::layers::{self, Reps, MDG_CLUSTERS, WINE_CLUSTERS};
use crate::metrics::{Report, FORCE_ERR_CEILING};
use crate::procstat;
use crate::spans;
use crate::stats::{max, median};
use crate::workloads::{scaled, OperatingPoint, TrajectorySpec, ACCURACY_S};
use crate::{fnv1a_positions, RunArgs};
use mdm_core::accuracy::ForceErrorProbe;
use mdm_core::checkpoint::Checkpoint;
use mdm_core::ewald::EwaldParams;
use mdm_core::integrate::Simulation;
use mdm_core::lattice::{rocksalt_nacl_at_density, PAPER_DENSITY};
use mdm_core::observables::PhysicsWatchdogs;
use mdm_core::velocities::maxwell_boltzmann;
use mdm_host::driver::{longrange_by_name, MdmForceField, MdmTables, StepCounters};
use mdm_host::telemetry::{mdm_manifest, run_instrumented, Instruments};
use mdm_profile::events::{FlightRecorder, RunManifest};
use mdm_profile::Profile;
use std::time::Instant;

/// Molten-salt temperature of the velocity draw (K).
const TEMPERATURE_K: f64 = 1074.0;
/// Time step (fs).
const DT_FS: f64 = 2.0;
/// The paper's energy-pass cadence: with it, no timed step of a run
/// this short hits an energy pass.
const POTENTIAL_INTERVAL: u64 = 100;
/// Net-momentum bound (amu·Å/fs). The WINE-2 fixed-point forces do not
/// sum to zero exactly: the drift is ~1e-6 over a window at N = 8000
/// against ~1e3 of summed particle momenta.
const MOMENTUM_TOL: f64 = 1e-4;

impl TrajectorySpec {
    /// The operating point, from the formulas in `workloads.rs`.
    fn params(&self, l: f64) -> EwaldParams {
        let s = ACCURACY_S;
        let alpha = match self.point {
            OperatingPoint::Faithful { cells_per_side } => 1.02 * s * cells_per_side,
            OperatingPoint::MeshPswf { r_cut } => s * l / r_cut,
        };
        EwaldParams::from_alpha_accuracy(alpha, s, s, l)
    }

    fn force_field(&self, params: EwaldParams, l: f64, tables: MdmTables) -> MdmForceField {
        let mut ff = MdmForceField::with_tables(params, WINE_CLUSTERS, MDG_CLUSTERS, tables);
        ff.set_potential_interval(POTENTIAL_INTERVAL);
        if let OperatingPoint::MeshPswf { .. } = self.point {
            let pswf = longrange_by_name("pswf", &params, l, WINE_CLUSTERS).expect("pswf exists");
            ff.set_longrange(pswf);
        }
        ff
    }

    fn on_wine(&self) -> bool {
        matches!(self.point, OperatingPoint::Faithful { .. })
    }
}

/// One full set-up: tables, lattice, force field, `Simulation::new`
/// (initial forces and the one energy pass), one warm-up step. The
/// component walls are the `setup_s`-moving rungs of the ladder.
struct Setup {
    sim: Simulation<MdmForceField>,
    params: EwaldParams,
    total_s: f64,
    tables_s: f64,
    ff_s: f64,
    sim_new_s: f64,
}

fn set_up(spec: &TrajectorySpec, seed: u64) -> Setup {
    let start = Instant::now();
    let _span = spans::span("setup");
    let (tables, tables_s) = spans::timed("mdm-host.tables_build", || {
        MdmTables::build().expect("function tables fit")
    });
    let system = {
        let _span = spans::span("mdm-core.lattice");
        let mut system = rocksalt_nacl_at_density(spec.cells, PAPER_DENSITY);
        maxwell_boltzmann(&mut system, TEMPERATURE_K, seed);
        system
    };
    let l = system.simbox().l();
    let params = spec.params(l);
    let (ff, ff_s) = spans::timed("mdm-host.ff_build", || spec.force_field(params, l, tables));
    let (mut sim, sim_new_s) =
        spans::timed("mdm-host.sim_new", || Simulation::new(system, ff, DT_FS));
    {
        let _span = spans::span("setup.warmup_step");
        sim.step();
    }
    Setup {
        sim,
        params,
        total_s: start.elapsed().as_secs_f64(),
        tables_s,
        ff_s,
        sim_new_s,
    }
}

/// What the set-ups and the timed window left behind, for the ladder.
struct Window {
    /// Per timed step, as measured.
    walls: Vec<f64>,
    /// The steps' profiles, merged.
    profile: Profile,
    /// Hardware counters of the last timed step.
    counters: StepCounters,
    params: EwaldParams,
    manifest: RunManifest,
    /// The end-to-end `step_p50_s` (at nominal host speed).
    step_p50_s: f64,
    /// Per set-up: total at nominal host speed, then total, tables,
    /// force field and `Simulation::new` as measured.
    setup_walls: Vec<[f64; 5]>,
}

/// Median over the set-ups of one column of their walls.
fn setup_median(setup_walls: &[[f64; 5]], column: usize) -> f64 {
    median(&setup_walls.iter().map(|w| w[column]).collect::<Vec<_>>()).expect("set-ups ran")
}

/// The traced run's per-layer metrics, on this workload's final
/// configuration. Every time here is as measured.
fn ladder(
    report: &mut Report,
    spec: &TrajectorySpec,
    args: &RunArgs,
    sim: &mut Simulation<MdmForceField>,
    window: &Window,
) {
    let reps = Reps::of(args.quick);
    let (steps, params) = (window.walls.len(), window.params);
    let step_s = median(&window.walls).expect("timed steps");
    let setups = window.setup_walls.len();
    report.set(
        "mdm-host.tables_build_s",
        setup_median(&window.setup_walls, 2),
        setups,
    );
    report.set(
        "mdm-host.ff_build_s",
        setup_median(&window.setup_walls, 3),
        setups,
    );
    report.set(
        "mdm-host.sim_new_s",
        setup_median(&window.setup_walls, 4),
        setups,
    );
    let mean_step_s = window.walls.iter().sum::<f64>() / steps as f64;
    layers::phase_rungs(report, &window.profile, steps, mean_step_s);
    let system = sim.system().clone();
    layers::realspace_rungs(report, reps, &system, &params, &window.counters);
    if spec.on_wine() {
        layers::wine_rungs(report, reps, &system, &params, &window.counters);
    } else {
        layers::mesh_rungs(report, reps, &system, &params);
    }
    let line = Checkpoint::capture(sim, spec.name, args.seed).to_line();
    layers::profile_rungs(
        report,
        reps,
        args.threads,
        &window.manifest,
        &window.profile,
        &line,
    );
    let tables = MdmTables::build().expect("function tables fit");
    let l = system.simbox().l();
    layers::driver_rungs(
        report,
        reps,
        sim,
        POTENTIAL_INTERVAL,
        (step_s, steps),
        &|| spec.force_field(params, l, tables.clone()),
        &args.scratch,
        args.seed,
    );
    layers::derived_rungs(report, window.step_p50_s, &window.counters, system.len());
    // Whatever is still unmeasured belongs to a layer that is not on
    // this workload's path.
    report.na_layer(
        "mdm-core",
        "the mesh backends are not on this workload's path",
    );
    report.na_layer("wine2", "wine2 is not on this workload's path");
    report.na_layer("mdm-serve", "no daemon on a trajectory workload");
    let unattributed = report
        .get("mdm-host.phase_unattributed_s")
        .expect("phase rungs ran");
    if unattributed > 0.05 * step_s {
        report.notes.push(format!(
            "ladder gap: {:.1} % of the step is outside every phase span",
            100.0 * unattributed / step_s
        ));
    }
}

/// Run one trajectory workload. Returns the report plus the
/// `attempted` / `failed` step counts of the result line.
pub fn run(spec: &TrajectorySpec, args: &RunArgs) -> (Report, u64, u64) {
    let mut report = Report::default();
    let steps = scaled(spec.base_steps, args.seconds, 2) as usize;

    // --- set-up, several times; the last one is the run's ---
    // Columns: total at nominal host speed, then total, tables, force
    // field and `Simulation::new` as measured.
    let mut setup_walls: Vec<[f64; 5]> = Vec::new();
    let mut last: Option<Setup> = None;
    let mut speed = Speed::read(args.threads);
    for _ in 0..spec.setups {
        // Drop the previous simulation first: peak memory is one
        // simulation's, not two.
        drop(last.take());
        let cpu_start = procstat::cpu_seconds();
        let s = set_up(spec, args.seed);
        let cpu_s = procstat::cpu_seconds() - cpu_start;
        let after = Speed::read(args.threads);
        let (nominal_s, _) = Speed::between(speed, after).nominal(s.total_s, cpu_s, args.threads);
        speed = after;
        setup_walls.push([nominal_s, s.total_s, s.tables_s, s.ff_s, s.sim_new_s]);
        last = Some(s);
    }
    let Setup {
        mut sim, params, ..
    } = last.expect("at least one set-up");
    let setup_s = setup_median(&setup_walls, 0);
    let l = sim.system().simbox().l();

    // --- the timed window ---
    let manifest = mdm_manifest(spec.name, "mdm-benchmark", &sim, args.seed);
    let mut recorder = FlightRecorder::new(std::io::sink(), &manifest).expect("sink never fails");
    // Per step: wall and process CPU as measured, and the host speed
    // over the step (a reading before and after it, off the clock).
    let mut walls = Vec::with_capacity(steps);
    let mut cpus = Vec::with_capacity(steps);
    let mut speeds = Vec::with_capacity(steps);
    let mut profile = Profile::default();
    let mut failed_steps = 0u64;
    mdm_profile::reset();
    for _ in 0..steps {
        let cpu_start = procstat::cpu_seconds();
        let (run, wall) = spans::timed("step", || {
            run_instrumented(
                &mut sim,
                1,
                &mut recorder,
                Instruments {
                    // Fresh per step: between energy passes the
                    // carried potential is stale, so `total` is not
                    // conserved inside the window and the energy
                    // monitor can only judge that it is finite. The
                    // momentum bound is the live check.
                    watchdogs: Some(&mut PhysicsWatchdogs::nve(1e-2, MOMENTUM_TOL)),
                    ..Instruments::default()
                },
            )
            .expect("sink never fails")
        });
        walls.push(wall);
        cpus.push(procstat::cpu_seconds() - cpu_start);
        let after = Speed::read(args.threads);
        speeds.push(Speed::between(speed, after));
        speed = after;
        let finite = run.records.iter().all(|r| {
            [r.temperature, r.kinetic, r.potential, r.total]
                .iter()
                .all(|x| x.is_finite())
        });
        if run.violations > 0 || !finite {
            failed_steps += 1;
        }
        profile.merge(&run.profile);
    }
    let counters = sim.force_field().last_counters();
    let (window_s, cpu_s): (f64, f64) = (walls.iter().sum(), cpus.iter().sum());
    // A step's own CPU reading is good to a clock tick; the window's
    // CPU-to-wall ratio is exact enough to share out instead.
    let busy_threads = cpu_s / window_s;
    let nominal: Vec<(f64, f64)> = walls
        .iter()
        .zip(&speeds)
        .map(|(&w, s)| s.nominal(w, busy_threads * w, args.threads))
        .collect();
    let nominal_walls: Vec<f64> = nominal.iter().map(|n| n.0).collect();
    let nominal_window_s: f64 = nominal_walls.iter().sum();
    let nominal_cpu_s: f64 = nominal.iter().map(|n| n.1).sum();
    let step_p50_s = median(&nominal_walls).expect("timed steps");

    // --- after the window: accuracy and the exact-repeat digest ---
    let force_err_rel = {
        let _span = spans::span("force_error_probe");
        ForceErrorProbe::converged_for_mdm(&params, l, 1, spec.probe_samples)
            .measure(sim.step_count(), sim.system(), &sim.current_forces().forces)
            .relative()
    };
    let digest = fnv1a_positions(sim.system().positions());

    report.set("setup_s", setup_s, setup_walls.len());
    report.set("steps_per_s", steps as f64 / nominal_window_s, steps);
    report.set("step_p50_s", step_p50_s, steps);
    report.set("job_p50_s", setup_s + nominal_window_s, 1);
    report.set("cpu_s_per_step", nominal_cpu_s / steps as f64, steps);
    report.set(
        "force_err_rel",
        force_err_rel,
        spec.probe_samples.min(sim.system().len()),
    );
    report.set("ok_share", 1.0 - failed_steps as f64 / steps as f64, steps);
    report.notes.push(format!(
        "N = {}, alpha = {:.4}, r_cut = {:.3} A, {} timed steps, slowest step {:.4} s (diagnostic)",
        sim.system().len(),
        params.alpha,
        params.r_cut,
        steps,
        max(&walls)
    ));
    report.notes.push(format!(
        "as measured (the metrics above are at nominal host speed): setup {:.4} s, {:.4} steps/s, \
         step p50 {:.4} s, cpu {:.4} s/step; host speed over the window: one thread {:.3}, {} \
         threads {:.3} of nominal",
        setup_median(&setup_walls, 1),
        steps as f64 / window_s,
        median(&walls).expect("timed steps"),
        cpu_s / steps as f64,
        median(&speeds.iter().map(|s| s.one).collect::<Vec<_>>()).expect("timed steps"),
        args.threads,
        median(&speeds.iter().map(|s| s.wide).collect::<Vec<_>>()).expect("timed steps"),
    ));
    report
        .notes
        .push(crate::stats::tail_note("step wall, s", &walls));
    report.notes.push(format!("position digest {digest:016x}"));
    report.check(failed_steps == 0, || {
        format!("{failed_steps} of {steps} steps had a watchdog violation or a non-finite record")
    });
    report.check(force_err_rel <= FORCE_ERR_CEILING, || {
        format!("force_err_rel {force_err_rel:e} is above the {FORCE_ERR_CEILING:e} gate")
    });
    crate::pinned::check(
        &mut report,
        spec.name,
        args,
        &[
            ("mdg_pair_ops", counters.mdg.pair_ops),
            ("mdg_cycles", counters.mdg.cycles),
            ("wine_dft_ops", counters.wine.dft_ops),
            ("wine_cycles", counters.wine.cycles),
            ("wine_waves", counters.wine.waves),
        ],
    );

    if args.trace {
        let window = Window {
            walls,
            profile,
            counters,
            params,
            manifest,
            step_p50_s,
            setup_walls,
        };
        ladder(&mut report, spec, args, &mut sim, &window);
    }
    // Last, so it covers the ladder too on a traced run (the traced
    // run does not report it).
    report.set("peak_rss_mb", procstat::peak_rss_mib(), 1);
    (report, steps as u64, failed_steps)
}
