//! End-to-end server tests: the daemon binary under a real SIGKILL,
//! back-pressure at the admission bound, live watch streams (the stream
//! equal to the trace file; a stalled watcher stalling nothing; a
//! watcher ending when the daemon stops or its client closes), a
//! mini-soak with mixed priorities, one board carrying its machine
//! from job to job, and two boards sharing the host's cores.

use mdm_core::checkpoint::Checkpoint;
use mdm_core::integrate::Simulation;
use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm_core::velocities::maxwell_boltzmann;
use mdm_host::driver::MdmForceField;
use mdm_profile::events::StepEvent;
use mdm_profile::json::Value;
use mdm_serve::protocol::{JobSpec, JobState, SubmitOutcome};
use mdm_serve::server::{Server, ServerConfig};
use mdm_serve::Client;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn temp_spool(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mdm-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Spawn the real daemon on an ephemeral port; returns the child and
/// the address parsed from its banner line.
fn spawn_server(spool: &Path, slice: u64) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mdm_serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--spool",
            spool.to_str().unwrap(),
            "--slice",
            &slice.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn mdm_serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("server banner")
        .expect("read server banner");
    let addr = banner
        .rsplit(' ')
        .next()
        .expect("banner ends with the address")
        .to_string();
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// The same run the server executes, uninterrupted and in-process.
fn reference_records(spec: &JobSpec) -> Vec<mdm_core::integrate::StepRecord> {
    let mut system = rocksalt_nacl(spec.cells as usize, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, spec.temperature, spec.seed);
    let mut ff = MdmForceField::nacl_default(system.simbox().l()).expect("tables");
    ff.set_potential_interval(spec.potential_interval);
    let mut sim = Simulation::new(system, ff, spec.dt);
    sim.run(spec.steps as usize)
}

/// Parse a job trace leniently (a SIGKILL can truncate the last line
/// of a slice): keep the *last* event recorded for each step — steps
/// re-run after a restart overwrite their pre-kill copies.
fn step_events_deduped(trace: &str) -> Vec<StepEvent> {
    let mut by_step = std::collections::BTreeMap::new();
    for line in trace.lines() {
        let Ok(value) = Value::parse(line) else {
            continue;
        };
        if value.get("type").and_then(Value::as_str) == Some("step") {
            if let Ok(event) = StepEvent::from_json(&value) {
                by_step.insert(event.step, event);
            }
        }
    }
    by_step.into_values().collect()
}

#[test]
fn killed_server_resumes_jobs_bit_for_bit() {
    let spool = temp_spool("kill");
    let spec = JobSpec {
        name: "kr".into(),
        cells: 2,
        steps: 14,
        dt: 2.0,
        temperature: 900.0,
        seed: 7,
        potential_interval: 3,
        ..JobSpec::default()
    };

    let (mut child, addr) = spawn_server(&spool, 4);
    let mut client = Client::connect_with_retry(&addr, Duration::from_secs(10)).unwrap();
    assert!(matches!(
        client.submit(&spec).unwrap(),
        SubmitOutcome::Accepted { .. }
    ));

    // Wait for at least one durable checkpoint, then kill -9.
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let report = client.status("kr").unwrap();
        if report.step >= 4 || report.state.is_terminal() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint after 120 s (step {})",
            report.step
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    child.kill().unwrap();
    child.wait().unwrap();

    // Restart on the same spool: the job must resume and finish.
    let (mut child2, addr2) = spawn_server(&spool, 4);
    let mut client2 = Client::connect_with_retry(&addr2, Duration::from_secs(10)).unwrap();
    let report = client2.wait("kr", Duration::from_secs(120)).unwrap();
    assert_eq!(report.state, JobState::Done, "detail: {:?}", report.detail);
    assert_eq!(report.step, 14);
    client2.shutdown().unwrap();
    child2.wait().unwrap();

    // The stitched stream must equal the uninterrupted run bit for bit.
    let trace = std::fs::read_to_string(spool.join("kr.trace.jsonl")).unwrap();
    let events = step_events_deduped(&trace);
    let reference = reference_records(&spec);
    assert_eq!(events.len(), 14, "one event per step after dedup");
    for (event, r) in events.iter().zip(&reference) {
        assert_eq!(event.step, r.step);
        for (key, want) in [
            ("total_ev", r.total),
            ("temperature_k", r.temperature),
            ("potential_ev", r.potential),
            ("kinetic_ev", r.kinetic),
        ] {
            let got = *event
                .observables
                .get(key)
                .unwrap_or_else(|| panic!("step {} missing {key}", r.step));
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "step {} {key}: resumed {got} != uninterrupted {want}",
                r.step
            );
        }
    }
    let _ = std::fs::remove_dir_all(&spool);
}

/// [`reference_records`] with each step's pressure beside it, as the
/// flight recorder streams it.
fn reference_with_pressure(spec: &JobSpec) -> Vec<(mdm_core::integrate::StepRecord, f64)> {
    let mut system = rocksalt_nacl(spec.cells as usize, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, spec.temperature, spec.seed);
    let mut ff = MdmForceField::nacl_default(system.simbox().l()).expect("tables");
    ff.set_potential_interval(spec.potential_interval);
    let mut sim = Simulation::new(system, ff, spec.dt);
    (0..spec.steps)
        .map(|_| {
            let record = sim.step();
            let virial = sim.current_forces().virial;
            (
                record,
                mdm_core::observables::pressure_gpa(sim.system(), virial),
            )
        })
        .collect()
}

/// One board runs four jobs in two-step slices, round robin, keeping its
/// machine between slices: the box of the cells-3 job makes it build a
/// new one on the way in and out, and the job at potential interval 3
/// follows one whose carry it must not inherit. Each job's stream must
/// be its own uninterrupted run, bit for bit.
#[test]
fn a_board_carries_nothing_from_job_to_job() {
    let spool = temp_spool("board");
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 2;
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let job = |name: &str, cells: u32, seed: u64, potential_interval: u64| JobSpec {
        name: name.into(),
        cells,
        steps: 6,
        dt: 2.0,
        temperature: 1200.0,
        seed,
        potential_interval,
        ..JobSpec::default()
    };
    let specs = [
        job("b-first", 2, 11, 1),
        job("b-stale", 2, 12, 3),
        job("b-wide", 3, 13, 1),
        job("b-last", 2, 14, 1),
    ];
    for spec in &specs {
        assert!(matches!(
            client.submit(spec).unwrap(),
            SubmitOutcome::Accepted { .. }
        ));
    }
    for spec in &specs {
        let report = client.wait(&spec.name, Duration::from_secs(300)).unwrap();
        assert_eq!(
            report.state,
            JobState::Done,
            "{}: {:?}",
            spec.name,
            report.detail
        );
    }
    server.stop();
    for spec in &specs {
        let trace =
            std::fs::read_to_string(spool.join(format!("{}.trace.jsonl", spec.name))).unwrap();
        let events = step_events_deduped(&trace);
        let reference = reference_with_pressure(spec);
        assert_eq!(events.len(), reference.len(), "{}", spec.name);
        for (event, (r, pressure)) in events.iter().zip(&reference) {
            assert_eq!(event.step, r.step);
            for (key, want) in [
                ("total_ev", r.total),
                ("kinetic_ev", r.kinetic),
                ("potential_ev", r.potential),
                ("temperature_k", r.temperature),
                ("pressure_gpa", *pressure),
            ] {
                let got = event.observables[key];
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} step {} {key}: served {got} != uninterrupted {want}",
                    spec.name,
                    r.step
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&spool);
}

/// A checkpoint whose box edge is no length fails its own job at load,
/// on a typed error: the board survives it, so the next job on a
/// one-board daemon still runs.
#[test]
fn a_checkpoint_with_a_bad_box_edge_fails_its_job_not_its_board() {
    let spool = temp_spool("edge");
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 2;
    let job = |name: &str, steps: u64| JobSpec {
        name: name.into(),
        cells: 2,
        steps,
        dt: 2.0,
        temperature: 1200.0,
        seed: 21,
        ..JobSpec::default()
    };

    // Run the job long enough to leave a checkpoint, then stop the
    // server: the running slice finishes and the job stays queued.
    let server = Server::start(cfg.clone()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    assert!(matches!(
        client.submit(&job("edge-bad", 1_000_000)).unwrap(),
        SubmitOutcome::Accepted { .. }
    ));
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while client.status("edge-bad").unwrap().step < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint after 120 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();

    let ckpt = spool.join("edge-bad.ckpt");
    let mut line = std::fs::read_to_string(&ckpt).unwrap();
    let start = line
        .find("\"l\":\"")
        .expect("the checkpoint has a box edge");
    let end = start + 5 + line[start + 5..].find('"').expect("a closed string") + 1;
    line.replace_range(start..end, "\"l\":0");
    std::fs::write(&ckpt, line).unwrap();

    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let report = client.wait("edge-bad", Duration::from_secs(120)).unwrap();
    assert_eq!(report.state, JobState::Failed, "{:?}", report.detail);
    let detail = report.detail.unwrap_or_default();
    assert!(
        detail.contains("checkpoint load") && detail.contains("box edge"),
        "{detail}"
    );
    assert!(spool.join("edge-bad.failed").exists());
    assert!(matches!(
        client.submit(&job("edge-next", 4)).unwrap(),
        SubmitOutcome::Accepted { .. }
    ));
    let report = client.wait("edge-next", Duration::from_secs(120)).unwrap();
    assert_eq!(report.state, JobState::Done, "{:?}", report.detail);
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Run a job on an in-process daemon until its first checkpoint, stop
/// the daemon (the running slice finishes and checkpoints), let
/// `mangle` rearrange `<job>.ckpt` and `<job>.tmp` into a state a
/// killed writer can leave, and restart on the same spool. The job must
/// finish, leave no `.tmp`, and hold the uninterrupted run's final
/// checkpoint and per-step observables bit for bit. Returns the step
/// the first daemon stopped at and the number of step events the trace
/// holds, re-run steps included.
fn resume_from_spool_state(tag: &str, mangle: impl FnOnce(&Path, &Path)) -> (u64, usize) {
    let spool = temp_spool(tag);
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 2;
    let spec = JobSpec {
        name: tag.into(),
        cells: 2,
        steps: 40,
        dt: 2.0,
        temperature: 1200.0,
        seed: 31,
        potential_interval: 3,
        ..JobSpec::default()
    };
    let server = Server::start(cfg.clone()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    assert!(matches!(
        client.submit(&spec).unwrap(),
        SubmitOutcome::Accepted { .. }
    ));
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while client.status(tag).unwrap().step < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint after 120 s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    server.stop();
    let ckpt = spool.join(format!("{tag}.ckpt"));
    let tmp = spool.join(format!("{tag}.tmp"));
    let stopped_at = mdm_core::checkpoint::Checkpoint::load(&ckpt)
        .expect("the stopped daemon left a checkpoint")
        .step;
    assert!(stopped_at < spec.steps, "the job finished before the stop");
    mangle(&ckpt, &tmp);

    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let report = client.wait(tag, Duration::from_secs(120)).unwrap();
    assert_eq!(report.state, JobState::Done, "{:?}", report.detail);
    assert_eq!(report.step, spec.steps);
    server.stop();
    assert!(!tmp.exists(), "a finished spool holds a .tmp");

    // The final checkpoint is the uninterrupted run's.
    let mut system = rocksalt_nacl(spec.cells as usize, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, spec.temperature, spec.seed);
    let mut ff = MdmForceField::nacl_default(system.simbox().l()).expect("tables");
    ff.set_potential_interval(spec.potential_interval);
    let mut sim = Simulation::new(system, ff, spec.dt);
    sim.run(spec.steps as usize);
    let mut want = mdm_core::checkpoint::Checkpoint::capture(&sim, tag, spec.seed);
    if let Some(carry) = sim.force_field().potential_carry() {
        carry.to_extras(&mut want.extras);
    }
    assert_eq!(
        std::fs::read_to_string(&ckpt).unwrap(),
        want.to_line() + "\n",
        "final checkpoint differs from the uninterrupted run's"
    );

    let trace = std::fs::read_to_string(spool.join(format!("{tag}.trace.jsonl"))).unwrap();
    let recorded = trace
        .lines()
        .filter(|l| l.contains("\"type\":\"step\""))
        .count();
    let events = step_events_deduped(&trace);
    let reference = reference_records(&spec);
    assert_eq!(events.len(), reference.len());
    for (event, r) in events.iter().zip(&reference) {
        assert_eq!(event.step, r.step);
        for (key, want) in [
            ("total_ev", r.total),
            ("temperature_k", r.temperature),
            ("potential_ev", r.potential),
            ("kinetic_ev", r.kinetic),
        ] {
            let got = event.observables[key];
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "step {} {key}: resumed {got} != uninterrupted {want}",
                r.step
            );
        }
    }
    let _ = std::fs::remove_dir_all(&spool);
    (stopped_at, recorded)
}

/// A daemon killed between the checkpoint write's remove and its rename
/// leaves only `<job>.tmp`: the restarted job resumes from it, re-running
/// no step.
#[test]
fn a_checkpoint_left_only_as_tmp_resumes_its_job() {
    let (_, recorded) = resume_from_spool_state("window", |ckpt, tmp| {
        std::fs::rename(ckpt, tmp).unwrap();
    });
    assert_eq!(
        recorded, 40,
        "a step ran twice: the .tmp was not resumed from"
    );
}

/// A daemon killed inside its first checkpoint write leaves a torn
/// `<job>.tmp` and no `<job>.ckpt`: the restarted job starts from step 0.
#[test]
fn a_torn_tmp_and_no_checkpoint_restarts_its_job_from_step_0() {
    let (stopped_at, recorded) = resume_from_spool_state("torn", |ckpt, tmp| {
        let line = std::fs::read(ckpt).unwrap();
        std::fs::write(tmp, &line[..line.len() / 2]).unwrap();
        std::fs::remove_file(ckpt).unwrap();
    });
    assert_eq!(
        recorded,
        40 + stopped_at as usize,
        "steps 1..={stopped_at} ran once, not twice"
    );
}

#[test]
fn full_queue_rejects_with_retry_after_and_drops_nothing_admitted() {
    let spool = temp_spool("backpressure");
    // boards = 0: jobs are admitted but never scheduled, so the queue
    // stays exactly as full as we make it.
    let mut cfg = ServerConfig::new(&spool);
    cfg.boards = 0;
    cfg.queue_capacity = 2;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    for name in ["a", "b"] {
        let spec = JobSpec {
            name: name.into(),
            steps: 5,
            ..JobSpec::default()
        };
        assert!(matches!(
            client.submit(&spec).unwrap(),
            SubmitOutcome::Accepted { .. }
        ));
    }
    let spec = JobSpec {
        name: "c".into(),
        steps: 5,
        ..JobSpec::default()
    };
    match client.submit(&spec).unwrap() {
        SubmitOutcome::Rejected {
            error,
            retry_after_ms,
        } => {
            assert!(error.contains("queue full"), "{error}");
            assert!(retry_after_ms >= 50, "retry_after_ms = {retry_after_ms}");
        }
        other => panic!("expected a back-pressure reject, got {other:?}"),
    }
    // Duplicate names are a hard error, not a retryable one.
    let dup = JobSpec {
        name: "a".into(),
        steps: 5,
        ..JobSpec::default()
    };
    match client.submit(&dup).unwrap() {
        SubmitOutcome::Rejected { retry_after_ms, .. } => assert_eq!(retry_after_ms, 0),
        other => panic!("duplicate submit should reject, got {other:?}"),
    }
    // Both admitted jobs are still known and durable.
    assert_eq!(client.list().unwrap().len(), 2);
    assert!(spool.join("a.job").exists() && spool.join("b.job").exists());
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn watch_streams_manifest_steps_and_done_trailer() {
    let spool = temp_spool("watch");
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 3;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    // Long enough (twenty slices) that the watcher below attaches while
    // the job is still stepping: a six-step N = 64 job is over in ~20 ms,
    // and a watcher descheduled that long saw a manifest and a trailer
    // with no step between them (one full-suite run in ten).
    let spec = JobSpec {
        name: "watched".into(),
        steps: 60,
        seed: 3,
        ..JobSpec::default()
    };
    client.submit(&spec).unwrap();
    let watcher = Client::connect(&addr).unwrap();
    let lines: Vec<String> = watcher
        .watch("watched")
        .unwrap()
        .collect::<Result<_, _>>()
        .unwrap();
    let manifests = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"manifest\""))
        .count();
    let steps = lines
        .iter()
        .filter(|l| l.contains("\"type\":\"step\""))
        .count();
    assert!(manifests >= 1, "no manifest line in {lines:?}");
    assert!(steps >= 1, "no step events in {lines:?}");
    let last = lines.last().expect("stream not empty");
    assert!(
        last.contains("\"type\":\"done\"") && last.contains("\"state\":\"done\""),
        "missing done trailer: {last}"
    );
    assert_eq!(
        client.wait("watched", Duration::from_secs(60)).unwrap().state,
        JobState::Done
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A one-board daemon (ledger in the spool) whose board a
/// higher-priority `blocker` job holds for a while (`slice_steps` per
/// slice): a job submitted now waits in the queue until the blocker is
/// done.
fn daemon_behind_a_blocker(spool: &Path, slice_steps: u64) -> (Server, String, Client) {
    let mut cfg = ServerConfig::new(spool);
    cfg.slice_steps = slice_steps;
    cfg.ledger = Some(spool.join("ledger.jsonl"));
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let blocker = JobSpec {
        name: "blocker".into(),
        steps: 400,
        priority: 1,
        ..JobSpec::default()
    };
    client.submit(&blocker).unwrap();
    (server, addr, client)
}

/// A watch header means the watcher is attached. While the blocker is
/// not done, the jobs queued behind it have not run a step, so every
/// watcher attached so far sees them from their first slice on.
fn assert_blocker_still_holds_the_board(client: &mut Client) {
    let blocker = client.status("blocker").unwrap();
    assert!(
        !blocker.state.is_terminal(),
        "the blocker finished before the watchers attached; lengthen it"
    );
}

fn step_of(line: &str) -> Option<u64> {
    let value = Value::parse(line).expect("stream lines are JSON");
    (value.opt_str("type") == Some("step")).then(|| value.req_u64("step").unwrap())
}

/// The live stream and the job's trace file are one recording: a
/// watcher attached before the first slice receives, between its header
/// and the `done` trailer, exactly the lines of `<job>.trace.jsonl` —
/// each slice's manifest and its step lines, in order.
#[test]
fn a_watch_from_the_first_slice_streams_exactly_the_trace_file() {
    let spool = temp_spool("stream-file");
    let (server, addr, mut client) = daemon_behind_a_blocker(&spool, 3);
    let spec = JobSpec {
        name: "traced".into(),
        steps: 12,
        seed: 5,
        ..JobSpec::default()
    };
    client.submit(&spec).unwrap();
    let watcher = Client::connect(&addr).unwrap().watch("traced").unwrap();
    assert_blocker_still_holds_the_board(&mut client);
    let mut lines: Vec<String> = watcher.collect::<Result<_, _>>().unwrap();
    let trailer = lines.pop().expect("stream not empty");
    assert!(
        trailer.contains("\"type\":\"done\"") && trailer.contains("\"state\":\"done\""),
        "missing done trailer: {trailer}"
    );
    let trace = std::fs::read_to_string(spool.join("traced.trace.jsonl")).unwrap();
    assert_eq!(lines, trace.lines().collect::<Vec<_>>());
    let steps: Vec<u64> = lines.iter().filter_map(|l| step_of(l)).collect();
    assert_eq!(steps, (1..=12).collect::<Vec<_>>());
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A watcher that reads nothing until its job is done fills its socket
/// and blocks its own writes, nothing else: the job still finishes, a
/// second watcher still sees every step in order, and the stalled
/// watcher, read at last, gets exactly the job's trace file — the file
/// was its buffer.
#[test]
fn a_stalled_watcher_stalls_neither_the_job_nor_another_watcher() {
    // Enough step lines (≈ 1.3 kB each) to overflow the stalled
    // watcher's socket buffers (≈ 4 MiB on Linux loopback, where it saw
    // ≈ 4,200 of 10,000), so its writes block while the job runs on.
    const STEPS: u64 = 10_000;
    const SLICE: u64 = 500;
    let spool = temp_spool("stalled");
    let (server, addr, mut client) = daemon_behind_a_blocker(&spool, SLICE);
    let spec = JobSpec {
        name: "flood".into(),
        steps: STEPS,
        ..JobSpec::default()
    };
    client.submit(&spec).unwrap();
    let stalled = Client::connect(&addr).unwrap().watch("flood").unwrap();
    let reader = Client::connect(&addr).unwrap().watch("flood").unwrap();
    assert_blocker_still_holds_the_board(&mut client);
    let fast = std::thread::spawn(move || {
        let lines = reader.map(|line| line.unwrap());
        lines.filter_map(|line| step_of(&line)).collect::<Vec<u64>>()
    });
    let report = match client.wait("flood", Duration::from_secs(120)) {
        Ok(report) => report,
        Err(e) => {
            // The board is stuck: joining it would hang the test
            // instead of failing it.
            std::mem::forget(server);
            panic!("the job stalled behind a stalled watcher: {e}");
        }
    };
    assert_eq!(report.state, JobState::Done, "{:?}", report.detail);
    assert_eq!(fast.join().unwrap(), (1..=STEPS).collect::<Vec<_>>());

    let mut lines: Vec<String> = stalled.collect::<Result<_, _>>().unwrap();
    let trailer = lines.pop().expect("stream not empty");
    assert!(
        trailer.contains("\"type\":\"done\"") && trailer.contains("\"state\":\"done\""),
        "missing done trailer: {trailer}"
    );
    let trace = std::fs::read_to_string(spool.join("flood.trace.jsonl")).unwrap();
    assert_eq!(lines, trace.lines().collect::<Vec<_>>());
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A watcher of a running job ends when the daemon stops, with a
/// trailer naming the job's state at that point: it does not wait for a
/// job that no board will run again.
#[test]
fn a_watcher_of_a_stopped_daemon_ends_with_a_trailer() {
    let spool = temp_spool("stopped-watch");
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 5;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let spec = JobSpec {
        name: "endless".into(),
        steps: 1_000_000,
        ..JobSpec::default()
    };
    client.submit(&spec).unwrap();
    let watcher = Client::connect(&addr).unwrap().watch("endless").unwrap();
    let (sent, lines) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in watcher {
            let _ = sent.send(line.unwrap());
        }
    });
    let within = Duration::from_secs(10);
    while step_of(&lines.recv_timeout(within).expect("a step streams")).is_none() {}
    server.stop();
    let deadline = std::time::Instant::now() + within;
    let trailer = loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        let line = lines
            .recv_timeout(left)
            .expect("the watch ends within 10 s of the stop, with a trailer");
        if line.contains("\"type\":\"done\"") {
            break line;
        }
    };
    assert!(
        trailer.contains("\"state\":\"queued\"") || trailer.contains("\"state\":\"running\""),
        "{trailer}"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

/// A watch of a job that no board will run ends once its client closes
/// its side: the daemon sends a trailer naming the job's state and
/// closes the connection, instead of polling for the job until it ends.
#[test]
fn a_watch_ends_when_its_client_closes() {
    let spool = temp_spool("closed-watch");
    let mut cfg = ServerConfig::new(&spool);
    cfg.boards = 0; // accept, never run: the job stays queued
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();
    let spec = JobSpec {
        name: "parked".into(),
        ..JobSpec::default()
    };
    Client::connect(&addr).unwrap().submit(&spec).unwrap();

    let mut socket = std::net::TcpStream::connect(&addr).unwrap();
    // A daemon that misses the close fails the read, not the test run.
    socket.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    writeln!(socket, "{{\"op\":\"watch\",\"job\":\"parked\"}}").unwrap();
    let mut reader = std::io::BufReader::new(socket.try_clone().unwrap());
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    assert!(header.contains("\"streaming\":true"), "{header}");
    socket.shutdown(std::net::Shutdown::Write).unwrap();
    let closed = std::time::Instant::now();
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("the daemon closes the watch once its client has");
    let waited = closed.elapsed();
    assert!(waited < Duration::from_secs(2), "end of stream after {waited:?}");
    assert_eq!(
        rest.lines().collect::<Vec<_>>(),
        ["{\"job\":\"parked\",\"state\":\"queued\",\"type\":\"done\"}"]
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn mini_soak_mixed_priorities_all_jobs_finish_clean() {
    let spool = temp_spool("soak");
    let ledger = spool.join("ledger.jsonl");
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 3;
    cfg.queue_capacity = 4; // half the jobs — back-pressure must engage
    cfg.ledger = Some(ledger.clone());
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();

    let jobs: Vec<String> = (0..8).map(|i| format!("soak-{i}")).collect();
    let mut client = Client::connect(&addr).unwrap();
    for (i, name) in jobs.iter().enumerate() {
        let spec = JobSpec {
            name: name.clone(),
            steps: 6,
            seed: i as u64,
            priority: (i % 3) as i64,
            ..JobSpec::default()
        };
        client
            .submit_with_retry(&spec, Duration::from_secs(300))
            .unwrap();
    }
    for name in &jobs {
        let report = client.wait(name, Duration::from_secs(300)).unwrap();
        assert_eq!(report.state, JobState::Done, "{name}: {:?}", report.detail);
        assert_eq!(report.step, 6, "{name}");
        assert_eq!(report.violations, 0, "{name} tripped a watchdog");
        assert!(report.upload_bytes > 0, "{name}: j-store meter never moved");
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("done").and_then(Value::as_u64), Some(8));
    assert_eq!(stats.get("failed").and_then(Value::as_u64), Some(0));

    // One ledger row per completed job.
    let (records, bad) =
        mdm_profile::ledger::read_ledger(&ledger).expect("ledger written");
    assert_eq!(bad, 0);
    assert_eq!(records.len(), 8);
    assert!(records.iter().all(|r| r.tool == "mdm-serve" && r.violations == 0));
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// Two boards share the host's cores: `cells 2` jobs step on one core
/// each, side by side, and `cells 4` jobs on all of them, alone. Each
/// job's final checkpoint must be the one a direct run of its spec at
/// this process's full thread count writes, byte for byte, and each
/// slice's manifest and each job's ledger row must record that width.
#[test]
fn mixed_sizes_on_two_boards_end_at_their_direct_runs_checkpoints() {
    let spool = temp_spool("mixed");
    let ledger = spool.join("ledger.jsonl");
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 2;
    cfg.boards = 2;
    cfg.ledger = Some(ledger.clone());
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let job = |name: &str, cells: u32, seed: u64, potential_interval: u64| JobSpec {
        name: name.into(),
        cells,
        steps: 4,
        dt: 2.0,
        temperature: 1200.0,
        seed,
        potential_interval,
        ..JobSpec::default()
    };
    let specs = [
        job("m-small-0", 2, 21, 1),
        job("m-large-0", 4, 22, 1),
        job("m-small-1", 2, 23, 3),
        job("m-small-2", 2, 24, 1),
        job("m-large-1", 4, 25, 3),
        job("m-small-3", 2, 26, 1),
    ];
    for spec in &specs {
        assert!(matches!(
            client.submit(spec).unwrap(),
            SubmitOutcome::Accepted { .. }
        ));
    }
    for spec in &specs {
        let report = client.wait(&spec.name, Duration::from_secs(300)).unwrap();
        assert_eq!(
            report.state,
            JobState::Done,
            "{}: {:?}",
            spec.name,
            report.detail
        );
    }
    server.stop();
    let width = |cells: u32| match cells {
        2 => 1,
        _ => rayon::current_num_threads() as u64,
    };
    let (rows, bad) = mdm_profile::ledger::read_ledger(&ledger).expect("ledger written");
    assert_eq!((rows.len(), bad), (specs.len(), 0));
    for spec in &specs {
        let trace =
            std::fs::read_to_string(spool.join(format!("{}.trace.jsonl", spec.name))).unwrap();
        let runs = mdm_profile::events::parse_jsonl_multi(&trace).unwrap();
        assert_eq!(runs.len(), 2, "{}: one manifest per slice", spec.name);
        for (manifest, _) in &runs {
            assert_eq!(manifest.threads, width(spec.cells), "{}", spec.name);
        }
        let row = rows.iter().find(|r| r.label == spec.name);
        let row = row.expect("a ledger row per job");
        assert_eq!(row.threads, width(spec.cells), "{}'s ledger row", spec.name);
    }
    for spec in &specs {
        let mut system = rocksalt_nacl(spec.cells as usize, NACL_LATTICE_A);
        maxwell_boltzmann(&mut system, spec.temperature, spec.seed);
        let mut ff = MdmForceField::nacl_default(system.simbox().l()).expect("tables");
        ff.set_potential_interval(spec.potential_interval);
        let mut sim = Simulation::new(system, ff, spec.dt);
        sim.run(spec.steps as usize);
        let mut direct = Checkpoint::capture(&sim, &spec.name, spec.seed);
        if let Some(carry) = sim.force_field().potential_carry() {
            carry.to_extras(&mut direct.extras);
        }
        let served = Checkpoint::load(&spool.join(format!("{}.ckpt", spec.name))).unwrap();
        assert_eq!(served.step, spec.steps, "{}", spec.name);
        assert!(
            served.to_line() == direct.to_line(),
            "{}: served checkpoint differs from the direct run's",
            spec.name
        );
    }
    let _ = std::fs::remove_dir_all(&spool);
}

/// Run `jobs` copies of one spec on a `boards`-board in-process daemon
/// — beside whatever emulator work the other tests of this binary are
/// recording — and return each job's `jstore_upload_bytes_per_step`
/// ledger gauge.
fn upload_bytes_per_step(tag: &str, boards: usize, jobs: usize) -> Vec<f64> {
    let spool = temp_spool(tag);
    let ledger = spool.join("ledger.jsonl");
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 2;
    cfg.boards = boards;
    cfg.ledger = Some(ledger.clone());
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let names: Vec<String> = (0..jobs).map(|i| format!("{tag}-{i}")).collect();
    for name in &names {
        let spec = JobSpec {
            name: name.clone(),
            steps: 6,
            seed: 7,
            ..JobSpec::default()
        };
        client
            .submit_with_retry(&spec, Duration::from_secs(300))
            .unwrap();
    }
    for name in &names {
        let report = client.wait(name, Duration::from_secs(300)).unwrap();
        assert_eq!(report.state, JobState::Done, "{name}: {:?}", report.detail);
    }
    server.stop();
    let (records, bad) = mdm_profile::ledger::read_ledger(&ledger).expect("ledger written");
    assert_eq!((records.len(), bad), (jobs, 0));
    let _ = std::fs::remove_dir_all(&spool);
    records
        .iter()
        .map(|r| r.gauges["jstore_upload_bytes_per_step"])
        .collect()
}

/// A job's counters are its own: every slice records into its own
/// profile scope, so identical jobs sharing a 2-board pool — and a
/// process with the rest of this binary's tests — meter identical
/// uploads, the same as one job alone on the server.
#[test]
fn identical_jobs_meter_identical_uploads_on_a_shared_pool() {
    let solo = upload_bytes_per_step("meter-solo", 1, 1);
    assert!(solo[0] > 0.0, "j-store meter never moved");
    let batch = upload_bytes_per_step("meter-batch", 2, 12);
    for (i, per_step) in batch.iter().enumerate() {
        assert_eq!(*per_step, solo[0], "job {i} of the batch vs the solo run");
    }
}

/// Request/response round trips on loopback must not wait out a
/// delayed ACK: with Nagle on either side each `list` took ≈ 88 ms
/// (two 40 ms stalls), i.e. ≈ 1.8 s for twenty.
#[test]
fn twenty_list_round_trips_take_under_200_ms() {
    let spool = temp_spool("nodelay");
    let mut cfg = ServerConfig::new(&spool);
    cfg.boards = 0; // accept, never run: the listing stays put
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    client
        .submit(&JobSpec {
            name: "parked".into(),
            ..JobSpec::default()
        })
        .unwrap();
    client.list().unwrap(); // first exchange warms the connection
    let start = std::time::Instant::now();
    for _ in 0..20 {
        assert_eq!(client.list().unwrap().len(), 1);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "20 list round trips took {elapsed:?}"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A new connection is accepted at once: the accept loop blocks in
/// `accept` rather than polling every 10 ms, which held each
/// connect-and-ask to ≈ 10 ms (2.0 s for 200) and capped a soak that
/// connects once per job at ≈ 99 submits/s.
#[test]
fn two_hundred_connect_and_stats_round_trips_take_under_a_second() {
    let spool = temp_spool("accept");
    let mut cfg = ServerConfig::new(&spool);
    cfg.boards = 0;
    let server = Server::start(cfg).unwrap();
    let addr = server.local_addr().to_string();
    let start = std::time::Instant::now();
    for _ in 0..200 {
        let stats = Client::connect(&addr).unwrap().stats().unwrap();
        assert_eq!(stats.get("ok"), Some(&Value::Bool(true)));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "200 connect + stats round trips took {elapsed:?}"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A spec write killed before its rename leaves only `<job>.job.part`:
/// the daemon starts on that spool, knows no such job and removes the
/// part file.
#[test]
fn a_stale_spec_part_file_is_removed_at_start() {
    let spool = temp_spool("part");
    let part = spool.join("x.job.part");
    std::fs::write(&part, "").unwrap();
    let server = Server::start(ServerConfig::new(&spool)).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    assert!(client.status("x").is_err(), "a part file registered a job");
    assert!(client.list().unwrap().is_empty());
    assert!(!part.exists(), "the stale part file is still there");
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A checkpoint whose species table gains a third entry panics the
/// step (the Tosi–Fumi tables know two species). The panic fails that
/// job, with its message in the detail line, and the one board goes on
/// to run the next job.
#[test]
fn a_panicking_slice_fails_its_job_not_its_board() {
    let spool = temp_spool("panic");
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 2;
    let job = |name: &str, steps: u64| JobSpec {
        name: name.into(),
        cells: 2,
        steps,
        dt: 2.0,
        temperature: 1200.0,
        seed: 23,
        ..JobSpec::default()
    };

    let server = Server::start(cfg.clone()).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    assert!(matches!(
        client.submit(&job("victim", 1_000_000)).unwrap(),
        SubmitOutcome::Accepted { .. }
    ));
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    while client.status("victim").unwrap().step < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "no checkpoint after 120 s"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.stop();

    let ckpt = spool.join("victim.ckpt");
    let mut cp = Checkpoint::load(&ckpt).unwrap();
    cp.species.push(mdm_core::system::Species {
        name: "X".into(),
        mass: 1.0,
        charge: 0.0,
    });
    cp.write(&ckpt).unwrap();

    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    let report = client.wait("victim", Duration::from_secs(120)).unwrap();
    assert_eq!(report.state, JobState::Failed, "{:?}", report.detail);
    let detail = report.detail.unwrap_or_default();
    assert!(detail.contains("slice panicked"), "{detail}");
    assert!(spool.join("victim.failed").exists());
    assert!(matches!(
        client.submit(&job("after", 4)).unwrap(),
        SubmitOutcome::Accepted { .. }
    ));
    let report = client.wait("after", Duration::from_secs(120)).unwrap();
    assert_eq!(report.state, JobState::Done, "{:?}", report.detail);
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A spec that validates but cannot be integrated: `dt = 1e300` fs
/// throws every particle out of the box on the first step. The job
/// must end — `failed`, or `done` with its watchdogs firing — without a
/// panic, and the board must go on to run the next job.
#[test]
fn a_dt_of_1e300_ends_its_job_without_a_panic() {
    let spool = temp_spool("hugedt");
    let mut cfg = ServerConfig::new(&spool);
    cfg.slice_steps = 5;
    let job = |name: &str, dt: f64| JobSpec {
        name: name.into(),
        cells: 2,
        steps: 10,
        dt,
        seed: 29,
        ..JobSpec::default()
    };
    let server = Server::start(cfg).unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    assert!(matches!(
        client.submit(&job("hostile", 1e300)).unwrap(),
        SubmitOutcome::Accepted { .. }
    ));
    let report = client.wait("hostile", Duration::from_secs(30)).unwrap();
    let detail = report.detail.clone().unwrap_or_default();
    assert!(!detail.contains("panicked"), "{detail}");
    match report.state {
        JobState::Failed => assert!(spool.join("hostile.failed").exists()),
        JobState::Done => assert!(report.violations > 0, "{report:?}"),
        other => panic!("job still {other:?} after 30 s: {report:?}"),
    }
    assert!(matches!(
        client.submit(&job("after-hostile", 2.0)).unwrap(),
        SubmitOutcome::Accepted { .. }
    ));
    let report = client.wait("after-hostile", Duration::from_secs(120)).unwrap();
    assert_eq!(report.state, JobState::Done, "{:?}", report.detail);
    server.stop();
    let _ = std::fs::remove_dir_all(&spool);
}
