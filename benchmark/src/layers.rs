//! The layer ladder: one function per rung, each timing one *public*
//! entry point of one crate from the outside (median of several calls
//! after one warm call). Counts come from the counters the calls
//! return, never from the harness's own arithmetic.

use crate::metrics::Report;
use crate::spans;
use crate::stats::median;
use mdgrape2::chip::AtomCoefficients;
use mdgrape2::jstore::JStore;
use mdgrape2::pipeline::{BatchScratch, MdgPipeline, PairAccum, PipelineMode};
use mdgrape2::system::{Mdgrape2Config, Mdgrape2System, RealSpaceMode};
use mdgrape2::tables::GFunction;
use mdm_core::celllist::CellList;
use mdm_core::checkpoint::Checkpoint;
use mdm_core::ewald::EwaldParams;
use mdm_core::forcefield::ForceField;
use mdm_core::integrate::Simulation;
use mdm_core::kvectors::half_space_vectors;
use mdm_core::system::System;
use mdm_core::units::COULOMB_EV_A;
use mdm_host::driver::{longrange_by_name, MdmForceField, StepCounters};
use mdm_host::machines::MachineModel;
use mdm_profile::events::{FlightRecorder, RunManifest, StepEvent};
use mdm_profile::json::Value;
use mdm_profile::Profile;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use wine2::system::{Wine2Config, Wine2System};

/// Emulated cluster counts of every workload (`MdmForceField::new(params, 2, 2)`).
pub const WINE_CLUSTERS: usize = 2;
pub const MDG_CLUSTERS: usize = 2;

/// How many timed calls a rung makes.
#[derive(Clone, Copy)]
pub struct Reps {
    /// Calls for a rung whose warm call took under [`Reps::SLOW_S`].
    pub fast: usize,
    /// Calls for a slower rung — the ladder has a run-time budget.
    pub slow: usize,
}

impl Reps {
    const SLOW_S: f64 = 0.5;
    pub const FULL: Reps = Reps { fast: 5, slow: 3 };
    pub const QUICK: Reps = Reps { fast: 2, slow: 1 };

    pub fn of(quick: bool) -> Reps {
        if quick {
            Reps::QUICK
        } else {
            Reps::FULL
        }
    }

    /// Median wall of several calls of `f`, after one warm call. A
    /// warm call that itself took [`Reps::SLOW_S`] or longer is kept as
    /// the first sample: lazy set-up is noise next to such a call, and
    /// the ladder has a run-time budget. Returns `(median seconds,
    /// samples, last result)`.
    pub fn median<T>(self, name: &'static str, mut f: impl FnMut() -> T) -> (f64, usize, T) {
        let (mut out, warm) = spans::timed(name, &mut f);
        let (mut walls, more) = if warm < Self::SLOW_S {
            (Vec::new(), self.fast)
        } else {
            (vec![warm], self.slow.saturating_sub(1))
        };
        for _ in 0..more {
            let (o, wall) = spans::timed(name, &mut f);
            out = o;
            walls.push(wall);
        }
        (
            median(&walls).expect("at least one sample"),
            walls.len(),
            out,
        )
    }

    /// As [`Reps::median`] for a closure that times a section of its
    /// own (under a span of its own) and returns those seconds: what
    /// it does around that section stays off the clock.
    pub fn median_inner(self, mut f: impl FnMut() -> f64) -> (f64, usize) {
        f();
        let walls: Vec<f64> = (0..self.fast).map(|_| f()).collect();
        (median(&walls).expect("at least one sample"), walls.len())
    }
}

/// `(force, energy)` Coulomb coefficient RAM images for the system's
/// species table — the same `a = κ²`, `b = k_e·qᵢqⱼ·κ³` (`κ` for the
/// energy kernel) the driver loads for its first pass.
fn coulomb_coefficients(system: &System, kappa: f64) -> (AtomCoefficients, AtomCoefficients) {
    let species = system.species();
    let grid = |b: &dyn Fn(f64) -> f64| -> Vec<Vec<f64>> {
        species
            .iter()
            .map(|si| species.iter().map(|sj| b(si.charge * sj.charge)).collect())
            .collect()
    };
    let a = grid(&|_| kappa * kappa);
    let force = grid(&|qq| COULOMB_EV_A * qq * kappa.powi(3));
    let energy = grid(&|qq| COULOMB_EV_A * qq * kappa);
    (
        AtomCoefficients::new(&a, &force),
        AtomCoefficients::new(&a, &energy),
    )
}

/// Repetitions of a sweep so one timed call covers at least
/// `target` elements (timer resolution at small N).
fn inner_reps(elements: usize, target: usize) -> usize {
    target.div_ceil(elements.max(1)).max(1)
}

/// `mdm-funceval` and `mdgrape2`: the real-space stack on the
/// workload's own final configuration and operating point.
pub fn realspace_rungs(
    report: &mut Report,
    reps: Reps,
    system: &System,
    params: &EwaldParams,
    counters: &StepCounters,
) {
    let _span = spans::span("ladder.realspace");
    let simbox = system.simbox();
    let kappa = params.kappa(simbox.l());
    let (pos, types) = (system.positions(), system.types());
    let force_table = GFunction::CoulombRealForce
        .build_evaluator()
        .expect("table fit");
    let energy_table = GFunction::CoulombRealEnergy
        .build_evaluator()
        .expect("table fit");
    let (force_coeffs, energy_coeffs) = coulomb_coefficients(system, kappa);

    // --- j-store ---
    let (build_s, n, mut js) = reps.median("mdgrape2.jstore_build", || {
        JStore::build(simbox, pos, types, params.r_cut)
    });
    report.set("mdgrape2.jstore_build_s", build_s, n);
    let (refresh_s, n, _) = reps.median("mdgrape2.jstore_refresh", || {
        js.refresh(simbox, pos, types, params.r_cut)
    });
    report.set("mdgrape2.jstore_refresh_s", refresh_s, n);
    report.set("mdgrape2.mean_cell_occupancy", js.mean_cell_occupancy(), 1);
    report.set("mdgrape2.jstore_upload_bytes", js.upload_bytes() as f64, 1);

    // --- sampled i-particles × their 27 neighbour cells ---
    let stride = pos.len().div_ceil(256).max(1);
    let sample: Vec<usize> = (0..pos.len()).step_by(stride).collect();
    // Per-i-type coefficient columns over the slot-ordered store, as
    // the board gathers them once per pass.
    let columns = |coeffs: &AtomCoefficients| -> Vec<(Vec<f32>, Vec<f32>)> {
        (0..coeffs.n_types() as u8)
            .map(|ti| {
                let (a, b) = coeffs.rows(ti);
                js.types()
                    .iter()
                    .map(|&tj| (a[tj as usize], b[tj as usize]))
                    .unzip()
            })
            .collect()
    };
    let sweep = |pipe: &MdgPipeline, cols: &[(Vec<f32>, Vec<f32>)], mode: PipelineMode| -> u64 {
        let mut scratch = BatchScratch::default();
        let mut ops = 0;
        for &i in &sample {
            let slot = js.slot_of_original(i);
            let (acol, bcol) = &cols[types[i] as usize];
            let home = js.cell_of(i);
            let mut acc = PairAccum::default();
            for &(nc, shift) in js.neighbors27(home) {
                let nc = nc as usize;
                let range = js.cell_range(nc);
                let skip = (nc == home && shift == [0.0; 3]).then(|| slot - range.start);
                pipe.interact_cell(
                    js.position(slot),
                    shift,
                    js.cell_columns(nc),
                    &acol[range.clone()],
                    &bcol[range],
                    skip,
                    mode,
                    &mut acc,
                    &mut scratch,
                );
            }
            ops += black_box(acc).ops;
        }
        ops
    };
    let one_sweep_ops = sweep(
        &MdgPipeline::new(force_table.clone()),
        &columns(&force_coeffs),
        PipelineMode::Force,
    );
    let inner = inner_reps(one_sweep_ops as usize, 400_000);
    for (metric, table, coeffs, mode) in [
        (
            "mdgrape2.interact_cell_ns_per_pair",
            &force_table,
            &force_coeffs,
            PipelineMode::Force,
        ),
        (
            "mdgrape2.interact_cell_potential_ns_per_pair",
            &energy_table,
            &energy_coeffs,
            PipelineMode::Potential,
        ),
    ] {
        let pipe = MdgPipeline::new(table.clone());
        let cols = columns(coeffs);
        let (wall, n, ops) = reps.median("mdgrape2.interact_cell", || {
            (0..inner).map(|_| sweep(&pipe, &cols, mode)).sum::<u64>()
        });
        report.set(metric, wall * 1e9 / ops as f64, n);
    }

    // --- eval_batch on the x = a·r² columns of the same sample ---
    let a_cols = columns(&force_coeffs);
    let x_columns: Vec<Vec<f32>> = sample
        .iter()
        .flat_map(|&i| {
            let xi = js.position(js.slot_of_original(i));
            let acol = &a_cols[types[i] as usize].0;
            js.neighbors27(js.cell_of(i))
                .iter()
                .map(|&(nc, shift)| {
                    let range = js.cell_range(nc as usize);
                    let cell = js.cell_columns(nc as usize);
                    (0..cell.len())
                        .map(|k| {
                            let dx = xi[0] - (cell.xs[k] + shift[0]);
                            let dy = xi[1] - (cell.ys[k] + shift[1]);
                            let dz = xi[2] - (cell.zs[k] + shift[2]);
                            acol[range.start + k] * (dx * dx + dy * dy + dz * dz)
                        })
                        .collect()
                })
                .collect::<Vec<Vec<f32>>>()
        })
        .collect();
    let elements: usize = x_columns.iter().map(Vec::len).sum();
    let inner = inner_reps(elements, 400_000);
    let mut g = vec![0.0f32; x_columns.iter().map(Vec::len).max().unwrap_or(0)];
    let (wall, n, _) = reps.median("mdm-funceval.eval_batch", || {
        for _ in 0..inner {
            for x in &x_columns {
                force_table.eval_batch(x, &mut g[..x.len()]);
                black_box(&mut g);
            }
        }
    });
    report.set(
        "mdm-funceval.eval_batch_ns_per_elem",
        wall * 1e9 / (elements * inner) as f64,
        n,
    );

    // --- whole passes through the emulated system ---
    let config = Mdgrape2Config {
        clusters: MDG_CLUSTERS,
    };
    let (new_s, n, mut mdg) = reps.median("mdgrape2.system_new", || {
        Mdgrape2System::new(config, force_table.clone(), force_coeffs.clone())
    });
    report.set("mdgrape2.system_new_s", new_s, n);
    let mut pass = |mdg: &mut Mdgrape2System, metric: &'static str, mode: PipelineMode| {
        let (wall, n, pair_ops) = reps.median(metric, || {
            mdg.calc_pass_with_jstore(mode, pos, types, &js)
                .expect("the j-store fits the board memory")
                .counters
                .pair_ops
        });
        report.set(metric, wall * 1e9 / pair_ops as f64, n);
    };
    pass(
        &mut mdg,
        "mdgrape2.force_pass_ns_per_pair",
        PipelineMode::Force,
    );
    mdg.set_real_space_mode(RealSpaceMode::SoftwareN3l);
    pass(
        &mut mdg,
        "mdgrape2.n3l_pass_ns_per_pair",
        PipelineMode::Force,
    );
    mdg.set_real_space_mode(RealSpaceMode::HardwareFaithful);
    mdg.load_table(&energy_table);
    mdg.load_coefficients(&energy_coeffs);
    pass(
        &mut mdg,
        "mdgrape2.potential_pass_ns_per_pair",
        PipelineMode::Potential,
    );

    // --- counts of the workload's own last step ---
    let pipes = (config.boards() * mdgrape2::board::PIPELINES_PER_BOARD) as u64;
    report.set(
        "mdgrape2.pair_ops_per_step",
        counters.mdg.pair_ops as f64,
        1,
    );
    report.set("mdgrape2.cycles_per_step", counters.mdg.cycles as f64, 1);
    report.set(
        "mdgrape2.occupancy",
        counters.mdg.pipeline_occupancy(pipes),
        1,
    );

    let (wall, n, _) = reps.median("mdm-core.celllist_build", || {
        CellList::build(simbox, pos, params.r_cut)
    });
    report.set("mdm-core.celllist_build_s", wall, n);
}

/// `wine2`: the wavenumber board on the workload's configuration.
pub fn wine_rungs(
    report: &mut Report,
    reps: Reps,
    system: &System,
    params: &EwaldParams,
    counters: &StepCounters,
) {
    let _span = spans::span("ladder.wine2");
    let waves = half_space_vectors(params.n_max);
    let config = Wine2Config {
        clusters: WINE_CLUSTERS,
    };
    let (new_s, n, mut wine) = reps.median("wine2.system_new", || Wine2System::new(config));
    report.set("wine2.system_new_s", new_s, n);
    let (wall, n, c) = reps.median("wine2.wavepart", || {
        wine.compute_wavepart_with_waves(
            system.simbox(),
            system.positions(),
            system.charges(),
            params.alpha,
            &waves,
        )
        .expect("the particles fit the board memory")
        .counters
    });
    report.set("wine2.wavepart_s", wall, n);
    report.set(
        "wine2.ns_per_wave_op",
        wall * 1e9 / (c.dft_ops + c.idft_ops) as f64,
        n,
    );
    report.set("wine2.dft_ops_per_step", counters.wine.dft_ops as f64, 1);
    report.set("wine2.idft_ops_per_step", counters.wine.idft_ops as f64, 1);
    report.set("wine2.cycles_per_step", counters.wine.cycles as f64, 1);
    report.set("wine2.waves", counters.wine.waves as f64, 1);
}

/// `mdm-core` mesh backends through `LongRangeBackend::compute`.
pub fn mesh_rungs(report: &mut Report, reps: Reps, system: &System, params: &EwaldParams) {
    let _span = spans::span("ladder.mesh");
    let l = system.simbox().l();
    let (simbox, pos, charges) = (system.simbox(), system.positions(), system.charges());
    let (mut pswf, first) = spans::timed("mdm-core.pswf_first_call", || {
        let mut b = longrange_by_name("pswf", params, l, WINE_CLUSTERS).expect("pswf exists");
        black_box(b.compute(simbox, pos, charges));
        b
    });
    report.set("mdm-core.pswf_first_call_s", first, 1);
    let (wall, n, flops) = reps.median("mdm-core.pswf_compute", || {
        pswf.compute(simbox, pos, charges).counters.flops
    });
    report.set("mdm-core.pswf_compute_s", wall, n);
    report.set("mdm-core.pswf_flops_per_step", flops, 1);
    let mut pme = longrange_by_name("pme", params, l, WINE_CLUSTERS).expect("pme exists");
    let (wall, n, _) = reps.median("mdm-core.pme_compute", || {
        black_box(pme.compute(simbox, pos, charges));
    });
    report.set("mdm-core.pme_compute_s", wall, n);
}

/// A large potential interval: no timed call hits an energy pass.
const FORCE_ONLY: u64 = 1 << 40;

/// `mdm-host` and `mdm-core` around one live simulation: the driver's
/// `compute`, the integrator's share, the instrumented loop's overhead,
/// the single-threaded baseline, the Table 4 model, and checkpoints.
///
/// `instrumented_step_s` is the median wall of
/// `run_instrumented(.., 1, ..)` on this simulation (`n` samples);
/// `energy_every_step` says whether the workload's own steps include
/// the energy passes (`potential_interval 1`, the serve default).
/// Mutates `sim` (it steps it), so it runs after every check.
#[allow(clippy::too_many_arguments)]
pub fn driver_rungs(
    report: &mut Report,
    reps: Reps,
    sim: &mut Simulation<MdmForceField>,
    potential_interval: u64,
    instrumented_step_s: (f64, usize),
    make_ff: &dyn Fn() -> MdmForceField,
    scratch: &Path,
    seed: u64,
) {
    let _span = spans::span("ladder.driver");
    let (step_s, step_n, _) = reps.median("mdm-core.sim_step", || sim.step());
    report.set(
        "mdm-host.run_loop_overhead_s",
        instrumented_step_s.0 - step_s,
        step_n.min(instrumented_step_s.1),
    );
    // Two steps at one rayon thread — the plain single-threaded
    // baseline. The simulation is warm; no extra warm call.
    let walls: Vec<f64> = (0..2)
        .map(|_| {
            spans::timed("mdm-host.step_1thread", || {
                rayon::with_num_threads(1, || sim.step())
            })
            .1
        })
        .collect();
    let one_thread_s = median(&walls).expect("two steps");
    report.set("mdm-host.step_1thread_s", one_thread_s, walls.len());
    report.set(
        "mdm-host.parallel_speedup",
        one_thread_s / step_s,
        walls.len(),
    );

    let system = sim.system().clone();
    sim.force_field_mut().set_potential_interval(FORCE_ONLY);
    let (compute_s, n, _) = reps.median("mdm-host.compute", || {
        black_box(sim.force_field_mut().compute(&system));
    });
    report.set("mdm-host.compute_s", compute_s, n);
    sim.force_field_mut().set_potential_interval(1);
    let (compute_potential_s, n, _) = reps.median("mdm-host.compute_potential", || {
        black_box(sim.force_field_mut().compute(&system));
    });
    report.set("mdm-host.compute_potential_s", compute_potential_s, n);
    sim.force_field_mut()
        .set_potential_interval(potential_interval);
    // The workload's own steps include the energy passes at interval 1.
    let force_s = if potential_interval == 1 {
        compute_potential_s
    } else {
        compute_s
    };
    report.set("mdm-core.step_minus_force_s", step_s - force_s, step_n);

    // --- checkpoint: capture → write → load → resume ---
    let path = scratch.join("ladder.ckpt");
    let (wall, n, cp) = reps.median("mdm-core.checkpoint_capture", || {
        Checkpoint::capture(sim, "ladder", seed)
    });
    report.set("mdm-core.checkpoint_capture_s", wall, n);
    let (wall, n, _) = reps.median("mdm-core.checkpoint_write", || {
        cp.write(&path).expect("checkpoint write")
    });
    report.set("mdm-core.checkpoint_write_s", wall, n);
    let bytes = std::fs::metadata(&path).expect("checkpoint written").len();
    report.set("mdm-core.checkpoint_bytes", bytes as f64, 1);
    let (wall, n, cp) = reps.median("mdm-core.checkpoint_load", || {
        Checkpoint::load(&path).expect("checkpoint load")
    });
    report.set("mdm-core.checkpoint_load_s", wall, n);
    // `resume` consumes a force field; build it outside the clock.
    let (wall, n) = reps.median_inner(|| {
        let ff = make_ff();
        let (resumed, wall) = spans::timed("mdm-core.checkpoint_resume", || cp.resume(ff));
        black_box(resumed);
        wall
    });
    report.set("mdm-core.checkpoint_resume_s", wall, n);
    let _ = std::fs::remove_file(&path);
}

/// `mdm-profile` (common to every workload): what one span, counter,
/// registry drain, step-event encode and JSON parse cost. `profile` is
/// a real profile of this workload (merged over steps: the entries of
/// one step, which is what encoding costs), `manifest` its run header
/// and `line` a real checkpoint line.
pub fn profile_rungs(
    report: &mut Report,
    reps: Reps,
    threads: usize,
    manifest: &RunManifest,
    profile: &Profile,
    line: &str,
) {
    let _span = spans::span("ladder.mdm-profile");
    const CALLS: usize = 50_000;
    let span_loop = || {
        for _ in 0..CALLS {
            let _s = mdm_profile::span("bench.rung");
        }
    };
    let (wall, n, _) = reps.median("mdm-profile.span", span_loop);
    report.set("mdm-profile.span_ns", wall * 1e9 / CALLS as f64, n);
    let (wall, n, _) = reps.median("mdm-profile.span_contended", || {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(span_loop);
            }
        })
    });
    report.set(
        "mdm-profile.span_ns_contended",
        wall * 1e9 / CALLS as f64,
        n,
    );
    let (wall, n, _) = reps.median("mdm-profile.counter", || {
        for _ in 0..CALLS {
            mdm_profile::counter("bench.counter", 1);
        }
    });
    report.set("mdm-profile.counter_ns", wall * 1e9 / CALLS as f64, n);

    // Drain a registry holding one step's worth of entries; filling
    // it stays off the clock.
    const DRAINS: usize = 200;
    let (drained, n) = reps.median_inner(|| {
        let _span = spans::span("mdm-profile.take");
        let mut seconds = 0.0;
        for _ in 0..DRAINS {
            for path in ["real", "wave", "comm", "host"] {
                let _outer = mdm_profile::span(path);
                let _inner = mdm_profile::span("inner");
            }
            for name in ["mdg_pair_ops", "mdg_cycles", "wine_dft_ops", "wine_cycles"] {
                mdm_profile::counter(name, 1);
            }
            let t = Instant::now();
            black_box(mdm_profile::take());
            seconds += t.elapsed().as_secs_f64();
        }
        seconds
    });
    report.set("mdm-profile.take_ns", drained * 1e9 / DRAINS as f64, n);

    const ENCODES: usize = 200;
    let (wall, n, _) = reps.median("mdm-profile.step_event_encode", || {
        let mut recorder =
            FlightRecorder::new(Vec::with_capacity(1 << 16), manifest).expect("Vec sink");
        for step in 0..ENCODES as u64 {
            let event = StepEvent::from_profile(step, 0.5, profile);
            recorder.record(&event).expect("Vec sink");
        }
        black_box(recorder.into_inner().len())
    });
    report.set(
        "mdm-profile.step_event_encode_ns",
        wall * 1e9 / ENCODES as f64,
        n,
    );

    let (wall, n, _) = reps.median("mdm-profile.json_parse", || {
        black_box(Value::parse(line).expect("a checkpoint line is valid JSON"));
    });
    report.set(
        "mdm-profile.json_parse_ns_per_byte",
        wall * 1e9 / line.len() as f64,
        n,
    );
    mdm_profile::reset();
}

/// Per-step means of the Table 4 phase spans from an instrumented
/// run's merged profile, and what the spans leave unattributed of the
/// mean step wall the harness saw around `run_instrumented`.
pub fn phase_rungs(report: &mut Report, profile: &Profile, steps: usize, mean_step_wall_s: f64) {
    let per_step = |phase: &str| profile.seconds(phase) / steps as f64;
    let mut attributed = 0.0;
    for (metric, phase) in [
        ("mdm-host.phase_real_s", mdm_profile::phase::REAL),
        ("mdm-host.phase_wave_s", mdm_profile::phase::WAVE),
        ("mdm-host.phase_comm_s", mdm_profile::phase::COMM),
        ("mdm-host.phase_host_s", mdm_profile::phase::HOST),
    ] {
        report.set(metric, per_step(phase), steps);
        attributed += per_step(phase);
    }
    report.set(
        "mdm-host.phase_unattributed_s",
        mean_step_wall_s - attributed,
        steps,
    );
}

/// Rungs derived from the counters of the workload's own last step and
/// from rungs already in the report: the Table 4 model (simulated time:
/// `max(t_wine, t_mdg) + t_comm + t_host`) and host time per simulated
/// cycle.
pub fn derived_rungs(report: &mut Report, step_p50_s: f64, counters: &StepCounters, n: usize) {
    let host_s = 200.0 * n as f64 / MachineModel::mdm_current().host_flops;
    let modeled = counters
        .wine
        .compute_seconds()
        .max(counters.mdg.compute_seconds())
        + counters.mdg.bus_seconds()
        + counters.wine.bus_seconds()
        + host_s;
    report.set("mdm-host.modeled_step_s", modeled, 1);
    report.set("mdm-host.slowdown_x", step_p50_s / modeled, 1);

    let real_s = report
        .get("mdm-host.phase_real_s")
        .expect("phase rungs ran");
    report.set(
        "mdgrape2.host_ns_per_cycle",
        real_s * 1e9 / counters.mdg.cycles.max(1) as f64,
        1,
    );
    if counters.wine.cycles > 0 {
        let wave_s = report
            .get("mdm-host.phase_wave_s")
            .expect("phase rungs ran");
        report.set(
            "wine2.host_ns_per_cycle",
            wave_s * 1e9 / counters.wine.cycles as f64,
            1,
        );
    }
}
