//! The two serve workloads: a closed batch of jobs against an
//! in-process `mdm_serve` daemon, observed only through `Client` and
//! the server's own ledger and spool.

use crate::hostspeed::Sampler;
use crate::layers::{self, Reps};
use crate::metrics::{Report, FORCE_ERR_CEILING};
use crate::procstat;
use crate::spans;
use crate::stats::median;
use crate::workloads::{scaled, ServeSpec, POLL_MS, SERVE_BOARDS, SERVE_DEADLINE_S, SERVE_QUEUE};
use crate::{fnv1a_positions, RunArgs};
use mdm_core::accuracy::ForceErrorProbe;
use mdm_core::checkpoint::Checkpoint;
use mdm_core::forcefield::ForceField;
use mdm_core::integrate::Simulation;
use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm_core::observables::PhysicsWatchdogs;
use mdm_core::system::System;
use mdm_core::velocities::maxwell_boltzmann;
use mdm_host::driver::{MdmForceField, MdmTables, PotentialCarry};
use mdm_host::telemetry::{mdm_manifest, run_instrumented, Instruments, RecordedRun};
use mdm_profile::events::{parse_jsonl_multi, FlightRecorder};
use mdm_profile::json::Value;
use mdm_profile::ledger::{read_ledger, RunRecord};
use mdm_serve::protocol::SubmitOutcome;
use mdm_serve::{Client, JobSpec, JobState, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Period of the in-batch host-speed sampler: 4 ms of one CPU in 200.
const SAMPLE_MS: u64 = 200;

impl ServeSpec {
    fn job(&self, i: u64, seed: u64) -> JobSpec {
        JobSpec {
            name: format!("{}-{i:03}", self.name),
            cells: self.cells,
            steps: self.steps,
            seed: seed + i,
            ..JobSpec::default()
        }
    }
}

fn config(spec: &ServeSpec, spool: &Path, boards: usize) -> ServerConfig {
    ServerConfig {
        boards,
        queue_capacity: SERVE_QUEUE,
        slice_steps: spec.slice_steps,
        ledger: Some(spool.join("ledger.jsonl")),
        ..ServerConfig::new(spool)
    }
}

/// Start a daemon on a fresh spool and connect one client.
fn start(spec: &ServeSpec, spool: &Path, boards: usize) -> (Server, Client) {
    let _ = std::fs::remove_dir_all(spool);
    let server = Server::start(config(spec, spool, boards)).expect("server starts");
    let client = Client::connect(&server.local_addr().to_string()).expect("client connects");
    (server, client)
}

/// What the client saw of one job.
struct JobView {
    name: String,
    steps: u64,
    accepted: bool,
    ack: Instant,
    first_running: Option<Instant>,
    terminal: Option<Instant>,
    done_clean: bool,
    upload_bytes: u64,
}

/// What one closed batch left behind, client side.
struct Batch {
    jobs: Vec<JobView>,
    /// First submit sent → last job seen terminal.
    makespan_s: f64,
    /// Process CPU time over the makespan.
    cpu_s: f64,
    /// Speed of the busy host, sampled all through the batch.
    busy_speed: f64,
    submit_ms: Vec<f64>,
    list_ms: Vec<f64>,
}

impl Batch {
    fn steps_submitted(&self) -> u64 {
        self.jobs.iter().map(|j| j.steps).sum()
    }

    fn steps_done(&self) -> u64 {
        self.jobs
            .iter()
            .filter(|j| j.done_clean)
            .map(|j| j.steps)
            .sum()
    }

    fn failed_jobs(&self) -> u64 {
        self.jobs.iter().filter(|j| !j.done_clean).count() as u64
    }

    /// As measured.
    fn steps_per_s(&self) -> f64 {
        self.steps_done() as f64 / self.makespan_s
    }

    /// Factor from a time as measured in this batch to nominal host
    /// speed, given the wall the pool spent stepping under the board
    /// lease (from the server's ledger). Stepping is arithmetic on
    /// every thread and rescales with the busy host's speed; the rest
    /// of the makespan — materialising, checkpoint IO, scheduling — is
    /// bound by allocation and IO and stays as measured.
    fn to_nominal(&self, stepping_wall_s: f64) -> f64 {
        let stepping = stepping_wall_s.clamp(0.0, self.makespan_s);
        (self.makespan_s - stepping + stepping * self.busy_speed) / self.makespan_s
    }

    /// Per job: submit-ack → seen terminal.
    fn job_walls(&self) -> Vec<f64> {
        let wall = |j: &JobView| Some((j.terminal? - j.ack).as_secs_f64());
        self.jobs.iter().filter_map(wall).collect()
    }

    /// Per job: submit-ack → first seen past `queued`.
    fn queue_waits(&self) -> Vec<f64> {
        let wait = |j: &JobView| Some((j.first_running? - j.ack).as_secs_f64());
        self.jobs.iter().filter_map(wait).collect()
    }

    fn upload_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.upload_bytes).sum()
    }
}

/// Submit every job back to back on one connection, then poll `list`
/// until all are terminal (or the deadline passes).
fn run_batch(client: &mut Client, spec: &ServeSpec, jobs: u64, seed: u64) -> Batch {
    let _span = spans::span("batch");
    let sampler = Sampler::start(Duration::from_millis(SAMPLE_MS));
    let cpu_start = procstat::cpu_seconds();
    let first_submit = Instant::now();
    let mut submit_ms = Vec::new();
    let mut views: Vec<JobView> = (0..jobs)
        .map(|i| {
            let job = spec.job(i, seed);
            let (outcome, wall) = spans::timed("mdm-serve.submit", || client.submit(&job));
            submit_ms.push(wall * 1e3);
            JobView {
                name: job.name,
                steps: spec.steps,
                accepted: matches!(outcome, Ok(SubmitOutcome::Accepted { .. })),
                ack: Instant::now(),
                first_running: None,
                terminal: None,
                done_clean: false,
                upload_bytes: 0,
            }
        })
        .collect();

    let deadline = first_submit + Duration::from_secs(SERVE_DEADLINE_S);
    let mut list_ms = Vec::new();
    let mut last_terminal = Instant::now();
    while views.iter().any(|v| v.accepted && v.terminal.is_none()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(POLL_MS));
        let (reports, wall) = spans::timed("mdm-serve.list", || client.list());
        list_ms.push(wall * 1e3);
        let now = Instant::now();
        for report in reports.expect("list answers") {
            let Some(view) = views
                .iter_mut()
                .find(|v| v.name == report.name && v.terminal.is_none())
            else {
                continue;
            };
            if report.state != JobState::Queued || report.step > 0 {
                view.first_running.get_or_insert(now);
            }
            if report.state.is_terminal() {
                view.terminal = Some(now);
                view.done_clean = report.state == JobState::Done
                    && report.step == report.steps
                    && report.violations == 0;
                view.upload_bytes = report.upload_bytes;
                last_terminal = now;
            }
        }
    }
    Batch {
        jobs: views,
        makespan_s: (last_terminal - first_submit).as_secs_f64(),
        cpu_s: procstat::cpu_seconds() - cpu_start,
        busy_speed: sampler.finish().unwrap_or(1.0),
        submit_ms,
        list_ms,
    }
}

/// A job's first materialisation, as `run_slice` does it: lattice,
/// velocities, force field, initial forces.
fn materialise(job: &JobSpec, tables: &MdmTables) -> Simulation<MdmForceField> {
    let mut system = rocksalt_nacl(job.cells as usize, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, job.temperature, job.seed);
    let mut ff = MdmForceField::nacl_default_with_tables(system.simbox().l(), tables.clone());
    ff.set_potential_interval(job.potential_interval);
    Simulation::new(system, ff, job.dt)
}

/// The same run the server made of `job`, uninterrupted and in this
/// thread: the bit-identity reference for the job's final checkpoint.
fn direct_run(job: &JobSpec, tables: &MdmTables) -> Simulation<MdmForceField> {
    let _span = spans::span("check.direct_run");
    let mut sim = materialise(job, tables);
    for _ in 0..job.steps {
        sim.step();
    }
    sim
}

/// Jobs whose final checkpoint the force-error probe reads.
const PROBED_JOBS: u64 = 5;

/// Restore a job's final checkpoint, evaluate it with a fresh default
/// force field, and probe those forces against the converged reference.
fn probe_final(ckpt: &Path, tables: &MdmTables) -> Result<(Checkpoint, System, f64), String> {
    let _span = spans::span("force_error_probe");
    let cp = Checkpoint::load(ckpt)?;
    let system = cp.restore_system();
    let mut ff = MdmForceField::nacl_default_with_tables(cp.l, tables.clone());
    let forces = ff.compute(&system).forces;
    let err = ForceErrorProbe::converged_for_mdm(ff.params(), cp.l, 1, 256)
        .measure(cp.step, &system, &forces)
        .relative();
    Ok((cp, system, err))
}

fn same_bits(a: &[mdm_core::vec3::Vec3], b: &[mdm_core::vec3::Vec3]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            p.x.to_bits() == q.x.to_bits()
                && p.y.to_bits() == q.y.to_bits()
                && p.z.to_bits() == q.z.to_bits()
        })
}

/// One slice replayed from the harness, the way `run_slice` does it:
/// load → force field → resume → step → capture → write.
struct Replay {
    total_s: f64,
    ff_build_s: f64,
    stepping_s: f64,
    run: RecordedRun,
    sim: Simulation<MdmForceField>,
}

fn replay_slice(ckpt: &Path, out: &Path, job: &JobSpec, steps: u64, tables: &MdmTables) -> Replay {
    let start = Instant::now();
    let _span = spans::span("mdm-serve.slice_replay");
    let cp = {
        let _span = spans::span("mdm-core.checkpoint_load");
        Checkpoint::load(ckpt).expect("checkpoint loads")
    };
    let (ff, ff_build_s) = spans::timed("mdm-host.ff_build", || {
        let mut ff = MdmForceField::nacl_default_with_tables(cp.l, tables.clone());
        ff.set_potential_interval(job.potential_interval);
        if let Some(carry) = PotentialCarry::from_extras(&cp.extras) {
            ff.restore_potential_carry(carry);
        }
        ff
    });
    let mut sim = {
        let _span = spans::span("mdm-core.checkpoint_resume");
        cp.resume(ff)
    };
    let manifest = mdm_manifest(&job.name, "mdm-benchmark", &sim, job.seed);
    let mut recorder = FlightRecorder::new(std::io::sink(), &manifest).expect("sink never fails");
    let mut watchdogs = PhysicsWatchdogs::nve(5e-3, 1e-2);
    mdm_profile::reset();
    let (run, stepping_s) = spans::timed("mdm-host.run_instrumented", || {
        run_instrumented(
            &mut sim,
            steps as usize,
            &mut recorder,
            Instruments {
                watchdogs: Some(&mut watchdogs),
                ..Instruments::default()
            },
        )
        .expect("sink never fails")
    });
    {
        let _span = spans::span("mdm-core.checkpoint_capture_write");
        let mut cp = Checkpoint::capture(&sim, &job.name, job.seed);
        if let Some(carry) = sim.force_field().potential_carry() {
            carry.to_extras(&mut cp.extras);
        }
        cp.write(out).expect("checkpoint write");
    }
    Replay {
        total_s: start.elapsed().as_secs_f64(),
        ff_build_s,
        stepping_s,
        run,
        sim,
    }
}

/// Slices the server actually ran: every slice opens its job's trace
/// with a fresh manifest line.
fn count_slices(spool: &Path, spec: &ServeSpec, jobs: u64) -> u64 {
    (0..jobs)
        .map(|i| {
            let path = spool.join(format!("{}.trace.jsonl", spec.job(i, 0).name));
            std::fs::read_to_string(path)
                .ok()
                .and_then(|text| parse_jsonl_multi(&text).ok())
                .map_or(0, |runs| runs.len() as u64)
        })
        .sum()
}

/// The server's ledger: one row per completed job.
fn ledger_rows(spool: &Path) -> Vec<RunRecord> {
    read_ledger(&spool.join("ledger.jsonl")).map_or(Vec::new(), |(rows, _)| rows)
}

/// Σ over jobs of the wall the ledger says they spent stepping, i.e.
/// holding the board lease.
fn stepping_wall_s(rows: &[RunRecord]) -> f64 {
    rows.iter()
        .map(|r| r.wall_seconds_per_step * r.steps as f64)
        .sum()
}

/// Everything the end-to-end part of a run observed, for the ladder.
struct Seen {
    batch: Batch,
    /// The server ledger: one row per completed job.
    rows: Vec<RunRecord>,
    /// Slices the server ran (manifest lines in the job traces).
    slices: u64,
    rejects: u64,
    spool: PathBuf,
    tables: MdmTables,
    job0: JobSpec,
}

impl Seen {
    fn ckpt0(&self) -> PathBuf {
        self.spool.join(format!("{}.ckpt", self.job0.name))
    }
}

/// The traced run's per-layer metrics: the daemon as the client saw
/// it, one slice replayed in the harness, the batch again on one
/// board, and the layers under a slice on job 0's final configuration.
fn ladder(report: &mut Report, spec: &ServeSpec, args: &RunArgs, seen: &Seen, system: &System) {
    let reps = Reps::of(args.quick);
    let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
    let (jobs, slices) = (seen.batch.jobs.len(), seen.slices);
    let (steps_done, lease_wall_s) = (seen.batch.steps_done(), stepping_wall_s(&seen.rows));
    let queue_waits = seen.batch.queue_waits();
    report.set(
        "mdm-serve.submit_ms_p50",
        p50(&seen.batch.submit_ms),
        seen.batch.submit_ms.len(),
    );
    report.set(
        "mdm-serve.list_ms_p50",
        p50(&seen.batch.list_ms),
        seen.batch.list_ms.len(),
    );
    report.set(
        "mdm-serve.queue_wait_p50_s",
        p50(&queue_waits),
        queue_waits.len(),
    );
    report.set("mdm-serve.slices", slices as f64, 1);
    report.set("mdm-serve.rejects", seen.rejects as f64, 1);
    report.set("mdm-serve.failed_jobs", seen.batch.failed_jobs() as f64, 1);
    report.set(
        "mdm-serve.upload_bytes_per_step",
        seen.batch.upload_bytes() as f64 / steps_done.max(1) as f64,
        steps_done as usize,
    );
    // The share of the run the board lease was held, and what a
    // slice costs the pool outside it.
    let step_share = lease_wall_s / seen.batch.makespan_s;
    let non_step =
        (SERVE_BOARDS as f64 * seen.batch.makespan_s - lease_wall_s) / slices.max(1) as f64;
    report.set("mdm-serve.step_share", step_share, seen.rows.len());
    report.set("mdm-serve.non_step_s_per_slice", non_step, slices as usize);

    // One slice, replayed here without the pool around it.
    let replay_out = args.scratch.join("replay.ckpt");
    let mut replays: Vec<Replay> = (0..=reps.fast)
        .map(|_| {
            replay_slice(
                &seen.ckpt0(),
                &replay_out,
                &seen.job0,
                spec.slice_steps,
                &seen.tables,
            )
        })
        .collect();
    replays.remove(0); // the warm call
    let col = |f: &dyn Fn(&Replay) -> f64| p50(&replays.iter().map(f).collect::<Vec<_>>());
    let (replay_s, replay_step_s) = (col(&|r| r.total_s), col(&|r| r.stepping_s));
    report.set("mdm-serve.slice_replay_s", replay_s, replays.len());
    report.set("mdm-host.ff_build_s", col(&|r| r.ff_build_s), replays.len());
    // With B boards, stepping serialises on the lease and the rest
    // of a slice overlaps it.
    let model = slices as f64 * replay_step_s.max(replay_s / SERVE_BOARDS as f64);
    let observed = seen.batch.makespan_s;
    let model_ratio = model / observed;
    report.set("mdm-serve.makespan_model_ratio", model_ratio, 1);
    report.notes.push(format!(
        "reconciliation: {slices} slices x max(stepping {replay_step_s:.4} s, slice \
         {replay_s:.4} s / {SERVE_BOARDS} boards) = {model:.3} s modelled against {observed:.3} s \
         observed; step_share {step_share:.3}, non_step \
         {non_step:.4} s/slice{}",
        if (0.85..=1.15).contains(&model_ratio) {
            ""
        } else {
            " -- LADDER GAP: outside 15 %, a rung is missing"
        }
    ));

    let Replay {
        run,
        mut sim,
        stepping_s,
        ..
    } = replays.pop().expect("replays ran");
    let slice_steps = spec.slice_steps as usize;
    layers::phase_rungs(
        report,
        &run.profile,
        slice_steps,
        stepping_s / slice_steps as f64,
    );

    // Set-up rungs: what the first slice of a job pays.
    let (wall, n, _) = reps.median("mdm-host.tables_build", || {
        MdmTables::build().expect("function tables fit")
    });
    report.set("mdm-host.tables_build_s", wall, n);
    let (wall, n, _) = reps.median("mdm-host.sim_new", || materialise(&seen.job0, &seen.tables));
    report.set("mdm-host.sim_new_s", wall, n);

    // `Server::start` on the populated spool (every job terminal).
    let (recover_s, n) = reps.median_inner(|| {
        let (server, wall) = spans::timed("mdm-serve.recover", || {
            Server::start(config(spec, &seen.spool, SERVE_BOARDS)).expect("server restarts")
        });
        server.stop();
        wall
    });
    report.set("mdm-serve.recover_s", recover_s, n);

    // The same batch on one board.
    let spool1 = args.scratch.join("spool-boards1");
    let (server1, mut client1) = start(spec, &spool1, 1);
    let batch1 = run_batch(&mut client1, spec, jobs as u64, args.seed);
    drop(client1);
    server1.stop();
    // Both sides at nominal host speed: the two batches ran minutes
    // apart.
    let nominal_rate = |batch: &Batch, rows: &[RunRecord]| {
        batch.steps_per_s() / batch.to_nominal(stepping_wall_s(rows))
    };
    let rate1 = nominal_rate(&batch1, &ledger_rows(&spool1));
    report.set("mdm-serve.boards1_steps_per_s", rate1, jobs);
    report.set(
        "mdm-serve.board_scaling_x",
        nominal_rate(&seen.batch, &seen.rows) / rate1,
        jobs,
    );
    report.check(batch1.failed_jobs() == 0, || {
        format!("{} jobs failed on the boards-1 rerun", batch1.failed_jobs())
    });

    // The layers under a slice, on job 0's final configuration.
    let params = *sim.force_field().params();
    let manifest = mdm_manifest(&seen.job0.name, "mdm-benchmark", &sim, seen.job0.seed);
    let mut recorder = FlightRecorder::new(std::io::sink(), &manifest).expect("sink never fails");
    let (instrumented_s, n, _) = reps.median("mdm-host.run_instrumented_1", || {
        run_instrumented(&mut sim, 1, &mut recorder, Instruments::default())
            .expect("sink never fails")
    });
    let counters = sim.force_field().last_counters();
    layers::realspace_rungs(report, reps, system, &params, &counters);
    layers::wine_rungs(report, reps, system, &params, &counters);
    let line = Checkpoint::capture(&sim, &seen.job0.name, seen.job0.seed).to_line();
    layers::profile_rungs(report, reps, args.threads, &manifest, &run.profile, &line);
    let l = system.simbox().l();
    layers::driver_rungs(
        report,
        reps,
        &mut sim,
        seen.job0.potential_interval,
        (instrumented_s, n),
        &|| MdmForceField::nacl_default_with_tables(l, seen.tables.clone()),
        &args.scratch,
        seen.job0.seed,
    );
    let step_p50_s = report.get("step_p50_s").expect("set above");
    layers::derived_rungs(report, step_p50_s, &counters, system.len());
    report.na_layer(
        "mdm-core",
        "the mesh backends are not on this workload's path",
    );
}

/// Run one serve workload. Returns the report plus the `attempted` /
/// `failed` job counts of the result line.
pub fn run(spec: &ServeSpec, args: &RunArgs) -> (Report, u64, u64) {
    let mut report = Report::default();
    let jobs = scaled(spec.base_jobs, args.seconds, 2);
    let spool: PathBuf = args.scratch.join("spool");

    // --- set-up, several times; the last daemon is the run's ---
    let mut setup_walls = Vec::new();
    let mut live: Option<(Server, Client)> = None;
    for _ in 0..spec.setups {
        if let Some((server, client)) = live.take() {
            drop(client);
            server.stop();
        }
        let (pair, wall) = spans::timed("setup", || start(spec, &spool, SERVE_BOARDS));
        setup_walls.push(wall);
        live = Some(pair);
    }
    let (server, mut client) = live.expect("at least one set-up");
    let setup_s = median(&setup_walls).expect("set-ups ran");

    // --- the timed batch ---
    let batch = run_batch(&mut client, spec, jobs, args.seed);
    let stats = client.stats().expect("stats answers");
    let stat = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(0);
    let (rejects, server_failed) = (stat("rejected_submits"), stat("failed"));
    drop(client);
    server.stop();

    let rows = ledger_rows(&spool);
    let to_nominal = batch.to_nominal(stepping_wall_s(&rows));
    let ledger_step_s: Vec<f64> = rows.iter().map(|r| r.wall_seconds_per_step).collect();
    let job_walls = batch.job_walls();
    let failed_jobs = batch.failed_jobs();
    let steps_done = batch.steps_done();

    // --- after the batch: accuracy, and job 0 against a direct run ---
    let tables = MdmTables::build().expect("function tables fit");
    let job0 = spec.job(0, args.seed);
    // The probe reads a different molten configuration for every seed;
    // the median over the first few jobs steadies it.
    let probed: Vec<(Checkpoint, System, f64)> = (0..jobs.min(PROBED_JOBS))
        .filter_map(|i| {
            let name = spec.job(i, args.seed).name;
            match probe_final(&spool.join(format!("{name}.ckpt")), &tables) {
                Ok(p) => Some(p),
                Err(e) => {
                    report.failures.push(format!("{name}: {e}"));
                    None
                }
            }
        })
        .collect();
    let force_errs: Vec<f64> = probed.iter().map(|p| p.2).collect();
    let force_err_rel = median(&force_errs).unwrap_or(f64::INFINITY);
    let final_system = probed.into_iter().next().map(|(cp, system, _)| {
        let direct = direct_run(&job0, &tables);
        let identical = cp.step == direct.step_count()
            && same_bits(&cp.positions, direct.system().positions())
            && same_bits(&cp.velocities, direct.system().velocities())
            && same_bits(&cp.forces, &direct.current_forces().forces);
        report.check(identical, || {
            format!(
                "{}'s final checkpoint is not bit-identical to a direct run",
                job0.name
            )
        });
        report.notes.push(format!(
            "position digest {:016x} ({}'s final checkpoint)",
            fnv1a_positions(&cp.positions),
            job0.name
        ));
        system
    });

    report.set("setup_s", setup_s, setup_walls.len());
    // Times at nominal host speed: a step under the lease is all
    // arithmetic; a job's wall and the makespan are part stepping.
    let raw_step_p50_s = median(&ledger_step_s).unwrap_or(f64::INFINITY);
    let raw_job_p50_s = median(&job_walls).unwrap_or(f64::INFINITY);
    let raw_cpu_s = batch.cpu_s / steps_done.max(1) as f64;
    report.set(
        "steps_per_s",
        batch.steps_per_s() / to_nominal,
        jobs as usize,
    );
    report.set(
        "step_p50_s",
        raw_step_p50_s * batch.busy_speed,
        ledger_step_s.len(),
    );
    report.set("job_p50_s", raw_job_p50_s * to_nominal, job_walls.len());
    report.set(
        "cpu_s_per_step",
        raw_cpu_s * to_nominal,
        steps_done as usize,
    );
    report.notes.push(format!(
        "as measured (the timing metrics above are at nominal host speed): {:.4} steps/s, step \
         p50 {raw_step_p50_s:.5} s, job p50 {raw_job_p50_s:.4} s, cpu {raw_cpu_s:.5} s/step; busy \
         host speed over the batch {:.3} of nominal",
        batch.steps_per_s(),
        batch.busy_speed,
    ));
    report.set("force_err_rel", force_err_rel, force_errs.len());
    report.set(
        "ok_share",
        steps_done as f64 / batch.steps_submitted() as f64,
        jobs as usize,
    );
    let slices = count_slices(&spool, spec, jobs);
    report.notes.push(format!(
        "{jobs} jobs x {} steps (N = {}), slices of {}, boards {SERVE_BOARDS}; makespan {:.3} s; \
         slowest job {:.3} s (diagnostic)",
        spec.steps,
        job0.n_particles(),
        spec.slice_steps,
        batch.makespan_s,
        crate::stats::max(&job_walls),
    ));
    report
        .notes
        .push(crate::stats::tail_note("job wall, s", &job_walls));
    report.check(
        failed_jobs == 0 && rejects == 0 && server_failed == 0,
        || {
            format!(
                "{failed_jobs} of {jobs} jobs not done clean by the {SERVE_DEADLINE_S} s deadline \
             ({rejects} rejected submits, {server_failed} failed on the server)"
            )
        },
    );
    report.check(rows.len() as u64 == jobs - failed_jobs, || {
        format!(
            "{} ledger rows for {} completed jobs",
            rows.len(),
            jobs - failed_jobs
        )
    });
    report.check(force_err_rel <= FORCE_ERR_CEILING, || {
        format!("force_err_rel {force_err_rel:e} is above the {FORCE_ERR_CEILING:e} gate")
    });
    crate::pinned::check(
        &mut report,
        spec.name,
        args,
        &[
            ("jobs", jobs),
            ("steps_done", steps_done),
            ("slices", slices),
        ],
    );

    if args.trace {
        match final_system {
            Some(system) => {
                let seen = Seen {
                    batch,
                    rows,
                    slices,
                    rejects,
                    spool,
                    tables,
                    job0,
                };
                ladder(&mut report, spec, args, &seen, &system);
            }
            None => report.na_rest("job 0 left no checkpoint to build the ladder on"),
        }
    }
    report.set("peak_rss_mb", procstat::peak_rss_mib(), 1);
    (report, jobs, failed_jobs)
}
