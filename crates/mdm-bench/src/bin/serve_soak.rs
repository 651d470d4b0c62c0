//! `serve_soak` — the multi-tenant stress drill for `mdm_serve`.
//!
//! Submits a fleet of small concurrent jobs with mixed priorities
//! against a live daemon, SIGKILLs the daemon mid-soak, restarts it on
//! the same spool, and requires every job to finish from its
//! checkpoint with zero watchdog violations and zero lost jobs — the
//! queue stays bounded the whole time (back-pressure rejections are
//! counted, not absorbed).
//!
//! ```text
//! serve_soak --jobs 200 --steps 10 --kill-after 20 --artifacts out/
//! ```
//!
//! Options: `--server PATH` (default: `mdm_serve` next to this
//! binary), `--spool DIR`, `--jobs N` (default 200), `--steps N` per
//! job (default 10), `--cells N` (default 2 → N=64), `--slice N`
//! (default 5), `--boards N` (default 2), `--queue N` (default 32),
//! `--kill-after N` (kill once N jobs finished; default jobs/4),
//! `--artifacts DIR` (copy the server ledger + one job trace there).
//!
//! Exits 0 only if every job completed clean.

use mdm_serve::protocol::JobSpec;
use mdm_serve::Client;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

struct Options {
    server: PathBuf,
    spool: PathBuf,
    jobs: usize,
    steps: u64,
    cells: u32,
    slice: u64,
    boards: usize,
    queue: usize,
    kill_after: Option<usize>,
    artifacts: Option<PathBuf>,
}

fn parse_options() -> Options {
    let default_server = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("mdm_serve")))
        .unwrap_or_else(|| PathBuf::from("mdm_serve"));
    let mut opt = Options {
        server: default_server,
        spool: std::env::temp_dir().join(format!("mdm-serve-soak-{}", std::process::id())),
        jobs: 200,
        steps: 10,
        cells: 2,
        slice: 5,
        boards: 2,
        queue: 32,
        kill_after: None,
        artifacts: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match arg.as_str() {
            "--server" => opt.server = value("--server").into(),
            "--spool" => opt.spool = value("--spool").into(),
            "--jobs" => opt.jobs = value("--jobs").parse().expect("--jobs"),
            "--steps" => opt.steps = value("--steps").parse().expect("--steps"),
            "--cells" => opt.cells = value("--cells").parse().expect("--cells"),
            "--slice" => opt.slice = value("--slice").parse().expect("--slice"),
            "--boards" => opt.boards = value("--boards").parse().expect("--boards"),
            "--queue" => opt.queue = value("--queue").parse().expect("--queue"),
            "--kill-after" => opt.kill_after = Some(value("--kill-after").parse().expect("--kill-after")),
            "--artifacts" => opt.artifacts = Some(value("--artifacts").into()),
            other => {
                eprintln!("serve_soak: unknown option {other:?}");
                std::process::exit(2);
            }
        }
    }
    opt
}

fn spawn_server(opt: &Options) -> (Child, String) {
    let mut child = Command::new(&opt.server)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--spool",
            opt.spool.to_str().expect("utf-8 spool path"),
            "--boards",
            &opt.boards.to_string(),
            "--queue",
            &opt.queue.to_string(),
            "--slice",
            &opt.slice.to_string(),
            "--ledger",
            opt.spool.join("ledger.jsonl").to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("serve_soak: spawn {:?}: {e}", opt.server);
            std::process::exit(1);
        });
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner").expect("read banner");
    let addr = banner.rsplit(' ').next().expect("address").to_string();
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn job_name(i: usize) -> String {
    format!("soak-{i:04}")
}

/// Submit every job, riding out back-pressure rejects and one server
/// restart. A submit whose response was lost to the kill is detected
/// by asking `status` before retrying.
fn submit_all(jobs: usize, cells: u32, steps: u64, addr: &Mutex<String>, stop: &AtomicBool) -> usize {
    let mut submitted = 0;
    for i in 0..jobs {
        let spec = JobSpec {
            name: job_name(i),
            cells,
            steps,
            seed: i as u64,
            // Three priority classes, like a shared facility's
            // interactive / normal / batch split.
            priority: 1 - (i % 3) as i64,
            ..JobSpec::default()
        };
        loop {
            if stop.load(Ordering::SeqCst) {
                return submitted;
            }
            let current = addr.lock().unwrap().clone();
            let attempt = Client::connect(&current).and_then(|mut client| {
                client.submit_with_retry(&spec, Duration::from_secs(30))
            });
            match attempt {
                Ok(_) => break,
                Err(_) => {
                    // Lost response or dead server: if the job is
                    // already registered, it was accepted.
                    let known = Client::connect(&addr.lock().unwrap().clone())
                        .and_then(|mut c| c.status(&spec.name))
                        .is_ok();
                    if known {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(300));
                }
            }
        }
        submitted += 1;
    }
    submitted
}

fn main() {
    let opt = parse_options();
    let kill_after = opt.kill_after.unwrap_or(opt.jobs / 4).max(1);
    let _ = std::fs::remove_dir_all(&opt.spool);
    std::fs::create_dir_all(&opt.spool).expect("create spool");
    let started = Instant::now();

    let (mut child, first_addr) = spawn_server(&opt);
    eprintln!(
        "serve_soak: {} jobs x {} steps (N={}), boards {}, queue {}, kill after {} completions — {first_addr}",
        opt.jobs,
        opt.steps,
        8 * (opt.cells as u64).pow(3),
        opt.boards,
        opt.queue,
        kill_after
    );

    let addr = Arc::new(Mutex::new(first_addr));
    let stop = Arc::new(AtomicBool::new(false));
    let submitter = {
        let (jobs, cells, steps) = (opt.jobs, opt.cells, opt.steps);
        let addr = Arc::clone(&addr);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || submit_all(jobs, cells, steps, &addr, &stop))
    };

    // Monitor: count completions, fire the kill once, declare victory
    // when everything the submitter sent in is terminal. The first
    // daemon's back-pressure rejects die with it: keep the last count
    // read from it.
    let mut killed = false;
    let mut rejected_before_kill = 0u64;
    let mut restarts = 0u32;
    let deadline = Instant::now() + Duration::from_secs(3600);
    let (done, failed) = loop {
        std::thread::sleep(Duration::from_millis(500));
        if Instant::now() > deadline {
            eprintln!("serve_soak: FAIL — 1 h deadline exceeded");
            std::process::exit(1);
        }
        let current = addr.lock().unwrap().clone();
        let Ok(stats) = Client::connect(&current).and_then(|mut c| c.stats()) else {
            continue;
        };
        let count = |key: &str| {
            stats
                .get(key)
                .and_then(mdm_profile::json::Value::as_u64)
                .unwrap_or(0) as usize
        };
        let (done, failed) = (count("done"), count("failed"));
        if !killed {
            rejected_before_kill = count("rejected_submits") as u64;
        }
        if !killed && done >= kill_after {
            eprintln!("serve_soak: {done} done — SIGKILLing the server mid-soak");
            child.kill().expect("kill server");
            child.wait().expect("reap server");
            let (new_child, new_addr) = spawn_server(&opt);
            child = new_child;
            eprintln!("serve_soak: restarted on {new_addr}, resuming from checkpoints");
            *addr.lock().unwrap() = new_addr;
            killed = true;
            restarts += 1;
        }
        if done + failed >= opt.jobs && submitter.is_finished() {
            break (done, failed);
        }
    };
    let submitted = submitter.join().expect("submitter");
    stop.store(true, Ordering::SeqCst);

    // Per-job verdicts + server-level accounting.
    let current = addr.lock().unwrap().clone();
    let mut client = Client::connect(&current).expect("final connect");
    let mut bad = Vec::new();
    let mut violations = 0u64;
    for i in 0..opt.jobs {
        let name = job_name(i);
        match client.status(&name) {
            Ok(report) => {
                violations += report.violations;
                if report.state != mdm_serve::JobState::Done || report.step != opt.steps {
                    bad.push(format!(
                        "{name}: {} at {}/{} ({:?})",
                        report.state.as_str(),
                        report.step,
                        report.steps,
                        report.detail
                    ));
                }
            }
            Err(e) => bad.push(format!("{name}: status failed: {e}")),
        }
    }
    let stats = client.stats().expect("final stats");
    let rejected_after_restart = stats
        .get("rejected_submits")
        .and_then(mdm_profile::json::Value::as_u64)
        .unwrap_or(0);
    let rejected = rejected_before_kill + rejected_after_restart;
    let ledger_path = opt.spool.join("ledger.jsonl");
    let ledger_rows = mdm_profile::ledger::read_ledger(&ledger_path)
        .map(|(rows, _)| rows.len())
        .unwrap_or(0);
    client.shutdown().expect("shutdown");
    child.wait().expect("server exit");

    if let Some(artifacts) = &opt.artifacts {
        std::fs::create_dir_all(artifacts).expect("create artifacts dir");
        let _ = std::fs::copy(&ledger_path, artifacts.join("ledger.jsonl"));
        let trace = format!("{}.trace.jsonl", job_name(0));
        let _ = std::fs::copy(opt.spool.join(&trace), artifacts.join(&trace));
    }

    eprintln!(
        "serve_soak: {submitted} submitted, {done} done, {failed} failed, \
         {violations} watchdog violations, {rejected} back-pressure rejects \
         ({rejected_before_kill} before the kill, {rejected_after_restart} after the restart), \
         {restarts} restart(s), {ledger_rows} ledger rows, {:.1} s",
        started.elapsed().as_secs_f64()
    );
    let mut ok = true;
    for line in &bad {
        eprintln!("serve_soak: FAIL {line}");
        ok = false;
    }
    if submitted != opt.jobs || done != opt.jobs || failed != 0 {
        eprintln!("serve_soak: FAIL — lost jobs (submitted {submitted}, done {done}, failed {failed}, wanted {})", opt.jobs);
        ok = false;
    }
    if violations != 0 {
        eprintln!("serve_soak: FAIL — {violations} watchdog violations");
        ok = false;
    }
    if restarts != 1 {
        eprintln!("serve_soak: FAIL — expected exactly one mid-soak restart, had {restarts}");
        ok = false;
    }
    if opt.jobs > opt.queue && rejected == 0 {
        eprintln!("serve_soak: FAIL — queue never pushed back with {} jobs over a {}-slot bound", opt.jobs, opt.queue);
        ok = false;
    }
    if ledger_rows != opt.jobs {
        // Jobs finished before the kill wrote their rows in the first
        // server's ledger; the file survives the restart, so the count
        // must still come out exact.
        eprintln!("serve_soak: FAIL — {ledger_rows} ledger rows for {} jobs", opt.jobs);
        ok = false;
    }
    if !ok {
        std::process::exit(1);
    }
    eprintln!("serve_soak: PASS");
}
