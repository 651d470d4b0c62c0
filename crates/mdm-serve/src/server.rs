//! The daemon: accept loop, scheduler, board pool, checkpoint spool.
//!
//! ## Scheduling model
//!
//! `boards` worker threads form the board pool — each worker is one
//! leased set of emulated WINE-2/MDGRAPE-2 boards. Workers pull the
//! highest-priority job from the bounded [`JobQueue`], *materialise it
//! from its checkpoint* (or from the spec, first time) onto the board's
//! machine, run one slice of `slice_steps` steps, write the next
//! checkpoint (a kill at any instant leaves one complete), and put the
//! job back. A board keeps its machine between slices —
//! [`MdmForceField::forget_job`] drops the last job's state, and a new
//! machine is built only for a job in another box or after a failed
//! slice — but jobs hold no memory between slices:
//! the spool is the only per-job state, which is what makes a crash
//! indistinguishable from a scheduling gap: either way the job's next
//! slice starts from its last durable checkpoint, and because
//! checkpoint restores are bit-exact the observable stream continues
//! exactly as the uninterrupted run would have.
//!
//! Every slice records into its own [`mdm_profile::scope`], so
//! per-slice counters (the j-store upload meter the pool arbitrates
//! on) attribute to exactly one job. The *stepping* section of a slice
//! runs under a lease of host cores taken from `HOST_CORES`, a
//! budget of `rayon::current_num_threads()` cores granted in arrival
//! order, and its rayon regions run exactly that many threads wide. A
//! job of N ≤ 216 takes one core, so a second board's small job steps
//! beside it: two one-core steps deliver more than one two-thread step
//! does. A larger job takes every core and steps alone. Checkpoint IO,
//! loading the job onto the machine, and client streaming overlap
//! stepping either way.
//!
//! ## Spool layout
//!
//! | file | meaning |
//! |---|---|
//! | `<job>.job` | submitted spec (JSON line) — present while live |
//! | `<job>.ckpt` | latest checkpoint, replaced each slice by remove + rename of `<job>.tmp` |
//! | `<job>.tmp` | the next checkpoint while it is written; the latest one if the daemon died between that remove and rename |
//! | `<job>.trace.jsonl` | flight-recorder stream, appended and flushed per step; `watch` follows it |
//! | `<job>.done` | spec, moved here on completion |
//! | `<job>.failed` | spec + error line, moved here on failure |
//!
//! A restarted server scans the spool: `.done`/`.failed` register as
//! terminal, `.job` re-enters the queue, resuming from the checkpoint
//! [`Checkpoint::load_latest`] finds (`.ckpt`, else a complete `.tmp`)
//! or from step 0. Nothing is synced: a SIGKILL loses at most the slice
//! that was running, a power loss may lose more.

use crate::protocol::{error_line, JobReport, JobSpec, JobState, Request};
use crate::queue::{Entry, JobQueue};
use mdm_core::checkpoint::Checkpoint;
use mdm_core::integrate::Simulation;
use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
use mdm_core::observables::PhysicsWatchdogs;
use mdm_core::thermostat::Thermostat;
use mdm_core::velocities::maxwell_boltzmann;
use mdm_host::driver::{MdmForceField, MdmTables, PotentialCarry};
use mdm_host::telemetry::{mdm_manifest, run_instrumented, Instruments, RecordedRun};
use mdm_profile::events::FlightRecorder;
use mdm_profile::json::{obj, Value};
use mdm_profile::ledger::append_record;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LazyLock, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The host's cores, shared by the boards' steps: a budget of
/// `rayon::current_num_threads()` cores (the daemon's threads set no
/// override, so this is `RAYON_NUM_THREADS` or the host's parallelism).
/// A slice takes [`step_width`] cores of it before it steps, and its
/// rayon regions run that many threads wide, so the busy threads never
/// outnumber the cores: two boards' N = 64 steps run side by side on
/// one core each, an N = 512 step runs alone on all of them. Leases are
/// granted in arrival order, so a wide slice waits only for the steps
/// already running, never for narrow slices that asked after it. The
/// profiling registry needs no lease (a run's profile is its own); the
/// cores do (DESIGN.md §15).
static HOST_CORES: LazyLock<CoreBudget> =
    LazyLock::new(|| CoreBudget::new(rayon::current_num_threads()));

/// The largest job, in unit cells a side, that steps on one core.
/// `examples/step_width.rs` reads a step's wall at one thread over its
/// wall at two, on the 2-vCPU host in six runs: N = 64 ×0.96–1.23,
/// N = 216 ×1.10–1.58, N = 512 ×1.24–1.66, N = 1,000 ×1.27–1.88. Two
/// one-core steps side by side deliver up to twice what one two-thread
/// step does at every size; the price is each job's own step wall,
/// longer by that ratio. At N = 64 it is within the host's run-to-run
/// spread. N = 216 is the boundary case and steps narrow; from N = 512
/// on a job keeps its short steps and takes every core.
const NARROW_MAX_CELLS: u32 = 3;

/// How many of [`HOST_CORES`] a job of `cells` unit cells a side steps
/// on.
fn step_width(cells: u32) -> usize {
    if cells <= NARROW_MAX_CELLS {
        1
    } else {
        HOST_CORES.total
    }
}

/// A budget of host cores, granted in FIFO ticket order.
struct CoreBudget {
    total: usize,
    turns: Mutex<Turns>,
    turn: Condvar,
}

/// The budget's books: cores leased out, and the ticket counter.
struct Turns {
    in_use: usize,
    /// The ticket the next request draws.
    next_ticket: u64,
    /// The ticket that is granted next, once its cores are free.
    serving: u64,
}

impl CoreBudget {
    fn new(total: usize) -> Self {
        CoreBudget {
            total,
            turns: Mutex::new(Turns {
                in_use: 0,
                next_ticket: 0,
                serving: 0,
            }),
            turn: Condvar::new(),
        }
    }

    fn books(&self) -> MutexGuard<'_, Turns> {
        // Every critical section is counter arithmetic that cannot
        // panic half done.
        self.turns.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Block until every earlier request has been granted and `width`
    /// cores are free, then lease them.
    fn acquire(&self, width: usize) -> CoreLease<'_> {
        assert!(
            (1..=self.total).contains(&width),
            "{width} of {} cores",
            self.total
        );
        let mut turns = self.books();
        let ticket = turns.next_ticket;
        turns.next_ticket += 1;
        while turns.serving != ticket || turns.in_use + width > self.total {
            turns = self.turn.wait(turns).unwrap_or_else(|p| p.into_inner());
        }
        turns.serving += 1;
        turns.in_use += width;
        drop(turns);
        // The next ticket may fit in what is left.
        self.turn.notify_all();
        CoreLease {
            budget: self,
            width,
        }
    }
}

/// Cores leased from a [`CoreBudget`]; dropping it (on unwind too)
/// returns them.
struct CoreLease<'a> {
    budget: &'a CoreBudget,
    width: usize,
}

impl Drop for CoreLease<'_> {
    fn drop(&mut self) {
        self.budget.books().in_use -= self.width;
        self.budget.turn.notify_all();
    }
}

/// Everything [`Server::start`] needs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Spool directory — specs, checkpoints, traces. Created if
    /// missing; scanned for recoverable jobs at start.
    pub spool: PathBuf,
    /// Board-pool size = worker threads. `0` accepts jobs but never
    /// runs them (used by the back-pressure tests).
    pub boards: usize,
    /// Admission bound: jobs queued-or-running at once. Beyond it,
    /// submits bounce with a `retry_after_ms`.
    pub queue_capacity: usize,
    /// Steps per scheduling slice — also the checkpoint cadence: a
    /// crash loses at most this many steps of progress per job.
    pub slice_steps: u64,
    /// When set, one ledger row per completed job is appended here
    /// (`tool` = `"mdm-serve"`, `label` = job name).
    pub ledger: Option<PathBuf>,
}

impl ServerConfig {
    /// Defaults: ephemeral port, one board, 64-job queue, 25-step
    /// slices, no ledger.
    pub fn new(spool: impl Into<PathBuf>) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            spool: spool.into(),
            boards: 1,
            queue_capacity: 64,
            slice_steps: 25,
            ledger: None,
        }
    }
}

/// Per-job scheduler state (the durable half lives in the spool).
struct JobSlot {
    spec: JobSpec,
    state: JobState,
    /// Checkpointed steps (a killed slice rolls back to this).
    step: u64,
    violations: u64,
    upload_bytes: u64,
    wall_seconds: f64,
    detail: Option<String>,
}

impl JobSlot {
    fn report(&self, name: &str) -> JobReport {
        JobReport {
            name: name.to_string(),
            state: self.state,
            step: self.step,
            steps: self.spec.steps,
            priority: self.spec.priority,
            violations: self.violations,
            upload_bytes: self.upload_bytes,
            detail: self.detail.clone(),
        }
    }
}

struct State {
    queue: JobQueue,
    jobs: BTreeMap<String, JobSlot>,
    draining: bool,
}

struct Inner {
    cfg: ServerConfig,
    tables: MdmTables,
    state: Mutex<State>,
    work: Condvar,
    stop: AtomicBool,
    seq: AtomicU64,
    rejected_submits: AtomicU64,
    /// EMA of recent slice wall-clock (ms) — the `retry_after_ms`
    /// estimator.
    slice_ms: AtomicU64,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// How long a bounced submitter should wait: roughly one queue
    /// drain cycle per backlog-per-board, from the recent slice EMA.
    fn retry_after_ms(&self, queued: usize) -> u64 {
        let boards = self.cfg.boards.max(1) as u64;
        let ema = self.slice_ms.load(Ordering::Relaxed).max(1);
        (ema * (queued as u64 / boards + 1)).clamp(50, 10_000)
    }

    fn spool_file(&self, job: &str, suffix: &str) -> PathBuf {
        self.cfg.spool.join(format!("{job}.{suffix}"))
    }
}

/// What one slice left behind.
struct SliceOutcome {
    step: u64,
    done: bool,
    violations: u64,
    upload_bytes: u64,
    wall_seconds: f64,
}

/// A running server. Dropping it drains and stops.
pub struct Server {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Server {
    /// Build the tables, recover the spool, bind, and spawn the accept
    /// loop plus `boards` workers.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        fs::create_dir_all(&cfg.spool)?;
        let tables = MdmTables::build()
            .map_err(|e| io::Error::other(format!("function-table build: {e:?}")))?;
        let boards = cfg.boards;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: JobQueue::new(cfg.queue_capacity),
                jobs: BTreeMap::new(),
                draining: false,
            }),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            rejected_submits: AtomicU64::new(0),
            slice_ms: AtomicU64::new(200),
            cfg,
            tables,
        });
        recover_spool(&inner)?;

        let listener = TcpListener::bind(&inner.cfg.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(inner, listener))
        };
        let workers = (0..boards)
            .map(|board| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mdm-serve-board-{board}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawn worker")
            })
            .collect();
        Ok(Server {
            inner,
            accept: Some(accept),
            workers,
            local_addr,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop scheduling new slices. Running slices finish and
    /// checkpoint; queued jobs stay durable in the spool.
    pub fn drain(&self) {
        let mut st = self.inner.lock();
        st.draining = true;
        drop(st);
        self.inner.work.notify_all();
    }

    /// Drain, stop the accept loop, and join every thread.
    pub fn stop(mut self) {
        self.shutdown_threads();
    }

    /// Block until a client's `shutdown` request (or [`Server::stop`])
    /// ends the serve loop — the daemon binary's main body.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    fn shutdown_threads(&mut self) {
        self.drain();
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_threads();
    }
}

/// Re-register every job the spool knows about.
fn recover_spool(inner: &Arc<Inner>) -> io::Result<()> {
    let mut names: Vec<(String, String)> = Vec::new(); // (job, suffix)
    for entry in fs::read_dir(&inner.cfg.spool)? {
        let name = entry?.file_name().to_string_lossy().into_owned();
        for suffix in ["job", "done", "failed"] {
            if let Some(stem) = name.strip_suffix(&format!(".{suffix}")) {
                names.push((stem.to_string(), suffix.to_string()));
            }
        }
    }
    names.sort();
    for (job, suffix) in names {
        let path = inner.spool_file(&job, &suffix);
        let text = fs::read_to_string(&path)?;
        let mut lines = text.lines();
        let spec = lines
            .next()
            .ok_or_else(|| io::Error::other(format!("{path:?}: empty spec")))
            .and_then(|line| {
                Value::parse(line)
                    .map_err(|e| io::Error::other(format!("{path:?}: {e}")))
                    .and_then(|v| {
                        JobSpec::from_json(&v).map_err(|e| io::Error::other(format!("{path:?}: {e}")))
                    })
            })?;
        let detail = lines.next().map(str::to_string);
        let mut st = inner.lock();
        let slot = JobSlot {
            state: match suffix.as_str() {
                "done" => JobState::Done,
                "failed" => JobState::Failed,
                _ => JobState::Queued,
            },
            step: match suffix.as_str() {
                "done" => spec.steps,
                _ => checkpointed_step(inner, &job),
            },
            violations: 0,
            upload_bytes: 0,
            wall_seconds: 0.0,
            detail: if suffix == "failed" { detail } else { None },
            spec,
        };
        if slot.state == JobState::Queued {
            // Recovery bypasses the admission bound (these jobs were
            // admitted by a previous server and are durable already).
            inner.state_queue_requeue(&mut st, &slot, &job);
        }
        st.jobs.insert(job, slot);
    }
    inner.work.notify_all();
    Ok(())
}

impl Inner {
    fn state_queue_requeue(&self, st: &mut State, slot: &JobSlot, job: &str) {
        st.queue.requeue(Entry {
            priority: slot.spec.priority,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            job: job.to_string(),
        });
    }
}

fn checkpointed_step(inner: &Arc<Inner>, job: &str) -> u64 {
    match Checkpoint::load_latest(&inner.spool_file(job, "ckpt")) {
        Ok(Some(cp)) => cp.step,
        _ => 0,
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    let _ = handle_client(inner, stream);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_client(inner: Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    // Responses and `watch` events are short lines the client waits on;
    // never hold one back for the peer's delayed ACK. (`writer`, and the
    // stream `watch` takes over, are this same socket.)
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let request = Value::parse(&line)
            .map_err(|e| e.to_string())
            .and_then(|v| Request::from_json(&v));
        let request = match request {
            Ok(r) => r,
            Err(e) => {
                // A malformed line means the framing is gone; answer
                // once and close rather than misparse what follows.
                writeln!(writer, "{}", error_line(e).to_compact())?;
                return Ok(());
            }
        };
        match request {
            Request::Submit(spec) => {
                let response = submit(&inner, spec);
                writeln!(writer, "{}", response.to_compact())?;
            }
            Request::Status { job } => {
                let st = inner.lock();
                let response = match st.jobs.get(&job) {
                    Some(slot) => {
                        let mut v = slot.report(&job).to_json();
                        if let Value::Obj(map) = &mut v {
                            map.insert("ok".into(), Value::Bool(true));
                        }
                        v
                    }
                    None => error_line(format!("unknown job {job:?}")),
                };
                drop(st);
                writeln!(writer, "{}", response.to_compact())?;
            }
            Request::List => {
                let st = inner.lock();
                let jobs: Vec<Value> = st
                    .jobs
                    .iter()
                    .map(|(name, slot)| slot.report(name).to_json())
                    .collect();
                drop(st);
                let response = obj([("ok", Value::Bool(true)), ("jobs", Value::Arr(jobs))]);
                writeln!(writer, "{}", response.to_compact())?;
            }
            Request::Stats => {
                let response = stats(&inner);
                writeln!(writer, "{}", response.to_compact())?;
            }
            Request::Watch { job } => {
                return watch(&inner, writer, &job);
            }
            Request::Drain => {
                let mut st = inner.lock();
                st.draining = true;
                drop(st);
                inner.work.notify_all();
                let response = obj([("ok", Value::Bool(true)), ("draining", Value::Bool(true))]);
                writeln!(writer, "{}", response.to_compact())?;
            }
            Request::Shutdown => {
                let mut st = inner.lock();
                st.draining = true;
                drop(st);
                inner.stop.store(true, Ordering::SeqCst);
                inner.work.notify_all();
                let response = obj([("ok", Value::Bool(true)), ("stopping", Value::Bool(true))]);
                writeln!(writer, "{}", response.to_compact())?;
                return Ok(());
            }
        }
        writer.flush()?;
    }
    Ok(())
}

/// Admission: validate, bound, persist, enqueue — in that order, so a
/// job the client saw accepted is already durable.
fn submit(inner: &Arc<Inner>, spec: JobSpec) -> Value {
    let job = spec.name.clone();
    let mut st = inner.lock();
    if st.draining {
        inner.rejected_submits.fetch_add(1, Ordering::Relaxed);
        let mut v = error_line("server is draining");
        if let Value::Obj(map) = &mut v {
            map.insert("retry_after_ms".into(), Value::from_u64(2_000));
        }
        return v;
    }
    if st.jobs.contains_key(&job) {
        return error_line(format!("job {job:?} already exists"));
    }
    let spec_path = inner.spool_file(&job, "job");
    if let Err(e) = write_spec(&spec_path, &spec, None) {
        return error_line(format!("spool write failed: {e}"));
    }
    let entry = Entry {
        priority: spec.priority,
        seq: inner.seq.fetch_add(1, Ordering::Relaxed),
        job: job.clone(),
    };
    match st.queue.offer(entry) {
        Ok(position) => {
            st.jobs.insert(
                job.clone(),
                JobSlot {
                    state: JobState::Queued,
                    step: 0,
                    violations: 0,
                    upload_bytes: 0,
                    wall_seconds: 0.0,
                    detail: None,
                    spec,
                },
            );
            drop(st);
            inner.work.notify_all();
            obj([
                ("ok", Value::Bool(true)),
                ("job", Value::Str(job)),
                ("state", Value::Str("queued".into())),
                ("position", Value::from_u64(position as u64)),
            ])
        }
        Err(full) => {
            let _ = fs::remove_file(&spec_path);
            inner.rejected_submits.fetch_add(1, Ordering::Relaxed);
            let retry = inner.retry_after_ms(st.queue.len());
            drop(st);
            let mut v = error_line(format!(
                "queue full ({} jobs admitted); back off and resubmit",
                full.capacity
            ));
            if let Value::Obj(map) = &mut v {
                map.insert("retry_after_ms".into(), Value::from_u64(retry));
            }
            v
        }
    }
}

fn write_spec(path: &Path, spec: &JobSpec, detail: Option<&str>) -> io::Result<()> {
    let mut text = spec.to_json().to_compact();
    text.push('\n');
    if let Some(detail) = detail {
        text.push_str(&detail.replace('\n', " "));
        text.push('\n');
    }
    fs::write(path, text)
}

fn stats(inner: &Arc<Inner>) -> Value {
    let st = inner.lock();
    let count = |state: JobState| {
        Value::from_u64(st.jobs.values().filter(|s| s.state == state).count() as u64)
    };
    obj([
        ("ok", Value::Bool(true)),
        ("queued", count(JobState::Queued)),
        ("running", count(JobState::Running)),
        ("done", count(JobState::Done)),
        ("failed", count(JobState::Failed)),
        ("queue_depth", Value::from_u64(st.queue.len() as u64)),
        (
            "queue_capacity",
            Value::from_u64(st.queue.capacity() as u64),
        ),
        ("boards", Value::from_u64(inner.cfg.boards as u64)),
        (
            "rejected_submits",
            Value::from_u64(inner.rejected_submits.load(Ordering::Relaxed)),
        ),
        ("draining", Value::Bool(st.draining)),
    ])
}

/// How long a watcher that has read its job's trace file to the end
/// waits before it reads again.
const WATCH_POLL: Duration = Duration::from_millis(5);

/// Turn the connection into the job's live stream, read from the job's
/// trace file: the file's last manifest line at attach time, every line
/// appended after it, then a `done` trailer once the job is terminal,
/// the daemon stops or the client closes. The file is the watcher's
/// buffer, so a slow watcher stalls only its own socket and loses
/// nothing.
fn watch(inner: &Arc<Inner>, writer: TcpStream, job: &str) -> io::Result<()> {
    use io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    // The request line is a watcher's last, so the connection reads end
    // of stream once the client has closed. That read, under a timeout
    // of `WATCH_POLL`, is the idle wait; stray bytes are dropped. Only
    // reads time out: writes still block on a stalled watcher.
    let client = writer.try_clone()?;
    client.set_read_timeout(Some(WATCH_POLL))?;
    let closed = Cell::new(false);
    let mut out = BufWriter::new(writer);
    let job_state = || inner.lock().jobs.get(job).map(|slot| slot.state);
    if job_state().is_none() {
        writeln!(out, "{}", error_line(format!("unknown job {job:?}")).to_compact())?;
        return out.flush();
    }
    let (mut tail, manifest) = TraceTail::attach(inner.spool_file(job, "trace.jsonl"))?;
    let header = obj([
        ("ok", Value::Bool(true)),
        ("job", Value::Str(job.to_string())),
        ("topic", Value::Str(job.to_string())),
        ("streaming", Value::Bool(true)),
    ]);
    writeln!(out, "{}", header.to_compact())?;
    out.write_all(&manifest.unwrap_or_default())?;
    let ended = || {
        let state = job_state().unwrap_or(JobState::Failed);
        let over = state.is_terminal() || inner.stop.load(Ordering::SeqCst) || closed.get();
        over.then_some(state)
    };
    let idle = || {
        match (&client).read(&mut [0; 64]) {
            Ok(n) => closed.set(n == 0),
            Err(e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
            Err(e) => return Err(e),
        }
        Ok(())
    };
    let state = tail.follow(&mut out, ended, idle)?;
    let trailer = obj([
        ("type", Value::Str("done".into())),
        ("job", Value::Str(job.to_string())),
        ("state", Value::Str(state.as_str().into())),
    ]);
    writeln!(out, "{}", trailer.to_compact())?;
    out.flush()
}

/// A job's trace file read from one point on, whole lines only: a line
/// still being written waits in `partial` until its newline lands.
struct TraceTail {
    path: PathBuf,
    /// `None` until the job's first slice creates the file.
    file: Option<BufReader<fs::File>>,
    partial: Vec<u8>,
}

impl TraceTail {
    /// Read the file's complete lines as they stand and keep the last
    /// manifest line among them; the tail then starts after them.
    fn attach(path: PathBuf) -> io::Result<(TraceTail, Option<Vec<u8>>)> {
        let mut tail = TraceTail {
            path,
            file: None,
            partial: Vec::new(),
        };
        // Quotes inside a JSON string are escaped, so these bytes are a
        // `type` key, and only a line's top level has one: no parse.
        const MANIFEST: &[u8] = br#""type":"manifest""#;
        let mut manifest = None;
        while let Some(line) = tail.next_line()? {
            if line.windows(MANIFEST.len()).any(|w| w == MANIFEST) {
                manifest = Some(line);
            }
        }
        Ok((tail, manifest))
    }

    /// The next complete line, newline included, if one has landed.
    fn next_line(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.file.is_none() {
            match fs::File::open(&self.path) {
                Ok(file) => self.file = Some(BufReader::new(file)),
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        let file = self.file.as_mut().expect("opened above");
        file.read_until(b'\n', &mut self.partial)?;
        Ok((self.partial.last() == Some(&b'\n')).then(|| std::mem::take(&mut self.partial)))
    }

    /// Copy each line to `out` as it lands, waiting on `idle` at the
    /// end of the file, until `ended` names the state to end on. The
    /// file is read once more after that: the worker marks a job
    /// terminal only after its slice has written its last line, so that
    /// read catches every line.
    fn follow<W: Write>(
        &mut self,
        mut out: W,
        mut ended: impl FnMut() -> Option<JobState>,
        mut idle: impl FnMut() -> io::Result<()>,
    ) -> io::Result<JobState> {
        loop {
            let end = ended();
            while let Some(line) = self.next_line()? {
                out.write_all(&line)?;
            }
            out.flush()?;
            if let Some(state) = end {
                return Ok(state);
            }
            idle()?;
        }
    }
}

fn worker_loop(inner: Arc<Inner>) {
    // This board's machine: loaded with each slice's job, kept between
    // slices, rebuilt when a job needs other parameters or a slice
    // failed on it.
    let mut board = None;
    loop {
        let entry = {
            let mut st = inner.lock();
            loop {
                if inner.stop.load(Ordering::SeqCst) || st.draining {
                    return;
                }
                if let Some(entry) = st.queue.pop() {
                    break entry;
                }
                let (guard, _) = inner
                    .work
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|p| p.into_inner());
                st = guard;
            }
        };
        let job = entry.job.clone();
        {
            let mut st = inner.lock();
            if let Some(slot) = st.jobs.get_mut(&job) {
                slot.state = JobState::Running;
            }
        }
        let started = Instant::now();
        let outcome = run_slice(&inner, &job, &mut board);
        let ms = started.elapsed().as_millis() as u64;
        let ema = inner.slice_ms.load(Ordering::Relaxed);
        inner
            .slice_ms
            .store((3 * ema + ms.max(1)) / 4, Ordering::Relaxed);

        let mut st = inner.lock();
        let Some(slot) = st.jobs.get_mut(&job) else {
            continue;
        };
        match outcome {
            Ok(out) => {
                slot.step = out.step;
                slot.violations += out.violations;
                slot.upload_bytes += out.upload_bytes;
                slot.wall_seconds += out.wall_seconds;
                if out.done {
                    slot.state = JobState::Done;
                    finalize(&inner, &job, slot, "done");
                } else {
                    slot.state = JobState::Queued;
                    let requeue = Entry {
                        priority: entry.priority,
                        seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                        job: job.clone(),
                    };
                    st.queue.requeue(requeue);
                    drop(st);
                    inner.work.notify_all();
                    continue;
                }
            }
            Err(message) => {
                slot.state = JobState::Failed;
                slot.detail = Some(message);
                finalize(&inner, &job, slot, "failed");
            }
        }
    }
}

/// Move a terminal job's spec file and (for completions) write its
/// ledger row.
fn finalize(inner: &Arc<Inner>, job: &str, slot: &JobSlot, suffix: &str) {
    let from = inner.spool_file(job, "job");
    let to = inner.spool_file(job, suffix);
    let _ = write_spec(&to, &slot.spec, slot.detail.as_deref());
    let _ = fs::remove_file(&from);
    if suffix != "done" {
        return;
    }
    if let Some(ledger_path) = &inner.cfg.ledger {
        // A job's slices ran in separate `run_instrumented` windows;
        // the slot carries their totals into the one reduction.
        let totals = RecordedRun {
            steps: slot.spec.steps,
            wall_seconds: slot.wall_seconds,
            violations: slot.violations,
            ..RecordedRun::default()
        };
        let mut record = totals.reduce("mdm-serve", job, slot.spec.n_particles());
        record.threads = step_width(slot.spec.cells) as u64;
        record.gauges.insert(
            "jstore_upload_bytes_per_step".to_string(),
            slot.upload_bytes as f64 / slot.spec.steps.max(1) as f64,
        );
        let _ = append_record(ledger_path, &record);
    }
}

/// The board's machine loaded for a job in a box of side `l`: the one
/// the board holds when its parameters are the job's, else a new one.
fn load_machine(inner: &Inner, board: &mut Option<MdmForceField>, l: f64) -> MdmForceField {
    match board.take() {
        Some(mut ff) if *ff.params() == MdmForceField::nacl_default_params(l) => {
            ff.forget_job();
            ff
        }
        _ => MdmForceField::nacl_default_with_tables(l, inner.tables.clone()),
    }
}

/// One scheduling slice: materialise from the spool onto the board's
/// machine, step on the cores leased from [`HOST_CORES`], checkpoint,
/// hand the machine back to the board. A slice that fails leaves the
/// board empty.
fn run_slice(
    inner: &Arc<Inner>,
    job: &str,
    board: &mut Option<MdmForceField>,
) -> Result<SliceOutcome, String> {
    let spec = {
        let st = inner.lock();
        let slot = st.jobs.get(job).ok_or("job vanished from the registry")?;
        slot.spec.clone()
    };
    let ckpt_path = inner.spool_file(job, "ckpt");
    let trace_path = inner.spool_file(job, "trace.jsonl");

    // The core lease: whatever runs the emulators' parallel regions runs
    // under it, `width` threads wide. A resumed slice takes it at the
    // stepping section; a job's first slice takes it here already —
    // `Simulation::new` runs the initial force and energy evaluation, a
    // step's worth of work.
    let width = step_width(spec.cells);
    let mut lease = None;
    let latest =
        Checkpoint::load_latest(&ckpt_path).map_err(|e| format!("checkpoint load: {e}"))?;
    let mut sim = if let Some(cp) = latest {
        let mut ff = load_machine(inner, board, cp.l);
        ff.set_potential_interval(spec.potential_interval);
        if let Some(carry) = PotentialCarry::from_extras(&cp.extras) {
            ff.restore_potential_carry(carry);
        }
        cp.resume(ff)
    } else {
        let mut system = rocksalt_nacl(spec.cells as usize, NACL_LATTICE_A);
        maxwell_boltzmann(&mut system, spec.temperature, spec.seed);
        let mut ff = load_machine(inner, board, system.simbox().l());
        ff.set_potential_interval(spec.potential_interval);
        lease = Some(HOST_CORES.acquire(width));
        rayon::with_num_threads(width, || Simulation::new(system, ff, spec.dt))
    };
    if spec.thermostat {
        sim.set_thermostat(Some(Thermostat::velocity_scaling(spec.temperature)));
    }

    let remaining = spec.steps.saturating_sub(sim.step_count());
    if remaining == 0 {
        let step = sim.step_count();
        *board = Some(sim.into_force_field());
        return Ok(SliceOutcome {
            step,
            done: true,
            violations: 0,
            upload_bytes: 0,
            wall_seconds: 0.0,
        });
    }
    let n = remaining.min(inner.cfg.slice_steps.max(1)) as usize;

    let file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&trace_path)
        .map_err(|e| format!("trace open: {e}"))?;
    let mut manifest = mdm_manifest(job, "mdm-serve", &sim, spec.seed);
    // The job's steps run `width` threads wide, not the daemon's pool.
    manifest.threads = width as u64;
    let mut recorder =
        FlightRecorder::new(BufWriter::new(file), &manifest).map_err(|e| format!("trace: {e}"))?;
    // NVE slices watch per-slice energy drift; thermostatted ones pin
    // temperature instead, so their energy band is effectively off.
    let mut dogs = if spec.thermostat {
        PhysicsWatchdogs::nve(1e12, 1e-2)
    } else {
        PhysicsWatchdogs::nve(5e-3, 1e-2)
    };

    let run = {
        let _cores = lease.unwrap_or_else(|| HOST_CORES.acquire(width));
        rayon::with_num_threads(width, || {
            run_instrumented(
                &mut sim,
                n,
                &mut recorder,
                Instruments {
                    watchdogs: Some(&mut dogs),
                    ..Instruments::default()
                },
            )
        })
        .map_err(|e| format!("slice: {e}"))?
    };
    let upload_bytes = run
        .profile
        .counters
        .get("jstore_upload_bytes")
        .copied()
        .unwrap_or(0);

    let mut cp = Checkpoint::capture(&sim, job, spec.seed);
    if let Some(carry) = sim.force_field().potential_carry() {
        carry.to_extras(&mut cp.extras);
    }
    cp.write(&ckpt_path)
        .map_err(|e| format!("checkpoint write: {e}"))?;

    let step = sim.step_count();
    *board = Some(sim.into_force_field());
    Ok(SliceOutcome {
        step,
        done: step >= spec.steps,
        violations: run.violations,
        upload_bytes,
        wall_seconds: run.wall_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A budget the test's threads can borrow for as long as they run.
    fn budget(total: usize) -> &'static CoreBudget {
        Box::leak(Box::new(CoreBudget::new(total)))
    }

    /// Block until `tickets` requests of `budget` have drawn a ticket.
    fn await_tickets(budget: &CoreBudget, tickets: u64) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while budget.books().next_ticket < tickets {
            assert!(
                Instant::now() < deadline,
                "no request drew ticket {tickets}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Acquire `width` cores on a thread of its own, hold them until
    /// `release` says so, and report `tag` on `granted` once they are
    /// granted.
    fn holder(
        budget: &'static CoreBudget,
        width: usize,
        tag: &'static str,
        granted: mpsc::Sender<&'static str>,
        release: mpsc::Receiver<()>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let _lease = budget.acquire(width);
            granted.send(tag).unwrap();
            let _ = release.recv();
        })
    }

    #[test]
    fn two_narrow_leases_share_a_budget_of_two() {
        let budget = budget(2);
        let (granted, grants) = mpsc::channel();
        let (release_a, hold_a) = mpsc::channel();
        let (release_b, hold_b) = mpsc::channel();
        let a = holder(budget, 1, "a", granted.clone(), hold_a);
        let b = holder(budget, 1, "b", granted, hold_b);
        let within = Duration::from_secs(10);
        let mut got = [grants.recv_timeout(within), grants.recv_timeout(within)]
            .map(|g| g.expect("both width-1 leases granted while the other holds"));
        got.sort();
        assert_eq!(got, ["a", "b"]);
        assert_eq!(budget.books().in_use, 2);
        release_a.send(()).unwrap();
        release_b.send(()).unwrap();
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(budget.books().in_use, 0);
    }

    #[test]
    fn a_wide_request_is_granted_before_narrow_ones_that_came_after_it() {
        let budget = budget(2);
        let (granted, grants) = mpsc::channel();
        let (release_first, hold_first) = mpsc::channel();
        let first = holder(budget, 1, "first", granted.clone(), hold_first);
        assert_eq!(grants.recv().unwrap(), "first");

        // A width-2 request queues behind the width-1 holder...
        let (release_wide, hold_wide) = mpsc::channel();
        let wide = holder(budget, 2, "wide", granted.clone(), hold_wide);
        await_tickets(budget, 2);
        // ...and a width-1 request after it waits too, although one
        // core is free.
        let (release_narrow, hold_narrow) = mpsc::channel();
        let narrow = holder(budget, 1, "narrow", granted, hold_narrow);
        await_tickets(budget, 3);
        assert_eq!(
            grants.recv_timeout(Duration::from_millis(50)).ok(),
            None,
            "a request was granted past the queued wide one"
        );

        release_first.send(()).unwrap();
        first.join().unwrap();
        assert_eq!(grants.recv().unwrap(), "wide");
        assert_eq!(grants.recv_timeout(Duration::from_millis(50)).ok(), None);
        release_wide.send(()).unwrap();
        wide.join().unwrap();
        assert_eq!(grants.recv().unwrap(), "narrow");
        release_narrow.send(()).unwrap();
        narrow.join().unwrap();
    }

    #[test]
    fn a_panic_under_a_lease_returns_its_cores() {
        let budget = budget(2);
        let panicked = std::thread::spawn(move || {
            let _lease = budget.acquire(2);
            panic!("a slice panics mid-step");
        })
        .join();
        assert!(panicked.is_err());
        let (granted, grants) = mpsc::channel();
        let (release, hold) = mpsc::channel();
        let full = holder(budget, 2, "full", granted, hold);
        assert_eq!(
            grants.recv_timeout(Duration::from_secs(10)),
            Ok("full"),
            "the full budget is free again after the panic"
        );
        release.send(()).unwrap();
        full.join().unwrap();
    }

    #[test]
    fn small_jobs_step_on_one_core_and_larger_ones_on_all() {
        for cells in 1..=NARROW_MAX_CELLS {
            assert_eq!(step_width(cells), 1);
        }
        assert_eq!(step_width(NARROW_MAX_CELLS + 1), HOST_CORES.total);
        assert_eq!(HOST_CORES.total, rayon::current_num_threads());
    }

    /// A `Write` that hands each write to a channel.
    struct Sent(mpsc::Sender<Vec<u8>>);

    impl Write for Sent {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            let _ = self.0.send(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Follow `tail` on a thread of its own until `end` is set; its
    /// writes arrive on the returned receiver.
    fn follow_until(
        mut tail: TraceTail,
        end: &'static AtomicBool,
    ) -> (mpsc::Receiver<Vec<u8>>, JoinHandle<io::Result<JobState>>) {
        let (sent, lines) = mpsc::channel();
        let follower = std::thread::spawn(move || {
            let ended = || end.load(Ordering::SeqCst).then_some(JobState::Done);
            let idle = || {
                std::thread::sleep(WATCH_POLL);
                Ok(())
            };
            tail.follow(Sent(sent), ended, idle)
        });
        (lines, follower)
    }

    fn trace_path(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("mdm-serve-tail-{tag}-{}.jsonl", std::process::id()));
        let _ = fs::remove_file(&path);
        path
    }

    fn append(path: &Path, bytes: &str) {
        let mut file = fs::OpenOptions::new().create(true).append(true).open(path).unwrap();
        file.write_all(bytes.as_bytes()).unwrap();
    }

    const WITHIN: Duration = Duration::from_secs(10);

    /// A watcher forwards whole lines only: of a file holding one whole
    /// line and half of the next, only the first, and the second once
    /// its newline lands.
    #[test]
    fn a_watcher_forwards_only_whole_lines() {
        static END: AtomicBool = AtomicBool::new(false);
        let path = trace_path("torn");
        let (tail, manifest) = TraceTail::attach(path.clone()).unwrap();
        assert_eq!(manifest, None, "no file yet");
        let (lines, follower) = follow_until(tail, &END);
        append(&path, "{\"type\":\"step\",\"step\":1}\n{\"type\":\"st");
        assert_eq!(lines.recv_timeout(WITHIN).unwrap(), b"{\"type\":\"step\",\"step\":1}\n");
        let torn = lines.recv_timeout(20 * WATCH_POLL);
        assert!(torn.is_err(), "a torn line was forwarded: {torn:?}");
        append(&path, "ep\",\"step\":2}\n");
        assert_eq!(lines.recv_timeout(WITHIN).unwrap(), b"{\"type\":\"step\",\"step\":2}\n");
        END.store(true, Ordering::SeqCst);
        assert_eq!(follower.join().unwrap().unwrap(), JobState::Done);
        assert!(lines.try_recv().is_err());
        let _ = fs::remove_file(&path);
    }

    /// A watcher that attaches after the first slice gets the file's
    /// latest manifest, then only the lines appended after it attached
    /// (a line half written at the attach among them).
    #[test]
    fn a_late_watcher_gets_the_latest_manifest_then_only_new_lines() {
        static END: AtomicBool = AtomicBool::new(false);
        let path = trace_path("late");
        let line = |kind: &str, n: u64| format!("{{\"step\":{n},\"type\":\"{kind}\"}}\n");
        let before = [line("manifest", 0), line("step", 1), line("manifest", 1), line("step", 2)];
        append(&path, &before.concat());
        let third = line("step", 3);
        append(&path, &third[..5]);
        let (tail, manifest) = TraceTail::attach(path.clone()).unwrap();
        assert_eq!(manifest.as_deref(), Some(before[2].as_bytes()));
        let (lines, follower) = follow_until(tail, &END);
        append(&path, &third[5..]);
        let fourth = line("step", 4);
        append(&path, &fourth);
        assert_eq!(lines.recv_timeout(WITHIN).unwrap(), third.as_bytes());
        assert_eq!(lines.recv_timeout(WITHIN).unwrap(), fourth.as_bytes());
        END.store(true, Ordering::SeqCst);
        assert_eq!(follower.join().unwrap().unwrap(), JobState::Done);
        assert!(lines.try_recv().is_err());
        let _ = fs::remove_file(&path);
    }
}
