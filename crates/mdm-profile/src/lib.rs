//! # mdm-profile — wall-clock instrumentation for the MDM reproduction
//!
//! The paper's headline numbers (Table 4: 43.8 s/step decomposed as
//! `t_step = max(t_wine, t_mdg) + t_comm + t_host`) are a *per-component
//! timing budget*. The sibling crates model that budget analytically
//! (`mdm-host::perfmodel`) and in cycle counters (`wine2::timing`,
//! `mdgrape2::timing`); this crate adds the third leg: **measured
//! wall-clock**, so modeled and measured decompositions can be printed
//! side by side (`mdm-bench`'s `profile_step` binary).
//!
//! Design:
//!
//! * [`span`] returns an RAII guard; spans on the same thread nest, and
//!   the accumulated time is keyed by the dot-joined path (a `"dft"`
//!   span inside a `"wave"` span accumulates under `"wave.dft"`).
//! * Accumulation belongs to a *run*: records go to the innermost
//!   [`scope`] open on the thread — worker threads inherit it through
//!   [`context_snapshot`] / [`adopt_context`] — else to one
//!   process-wide sink; either is a `Mutex` touched once per span
//!   *end*, not per sample. Concurrent runs never see each other.
//! * [`counter`] accumulates named integer totals (pairs visited, waves
//!   processed, …) next to the timings; [`counter_max`] keeps a running
//!   maximum instead (names ending in `_max` merge by maximum too, so
//!   high-water marks survive [`Profile::merge`]).
//! * [`take`] drains the current sink into a [`Profile`] snapshot; a
//!   run's merged profile is reduced once, to a [`ledger::RunRecord`].
//! * An optional **timeline** ([`timeline_start`]/[`timeline_stop`])
//!   additionally records every span occurrence with its wall-clock
//!   placement, feeding the Chrome-trace exporter in [`trace`].
//!
//! The run-telemetry layer builds on these primitives: [`events`] is
//! the per-step JSONL flight recorder (flushed line by line, so a
//! reader following the file — the serve daemon's `watch` — sees each
//! step as it lands), [`watchdog`] holds the generic threshold monitors, [`ledger`] is
//! the append-only run history the serve daemon writes (one
//! [`ledger::RunRecord`] per run — the only run summary), and
//! [`critical_path`] names the span chain that bounds a timeline; all
//! of them encode and decode through the typed field readers of
//! [`json`]. The accuracy-telemetry layer adds
//! [`histogram`] (log-bucketed distributions — [`histogram_record`] /
//! [`histogram_merge`] put them in the registry next to counters) and
//! [`accuracy`] (RMS-force-error and effective-speed report types,
//! paper §5 / Table 4 / Figure 5).
//!
//! Everything is `std`-only: monotonic [`Instant`] clocks, no external
//! dependencies, no feature gates. Overhead is one `Instant::now` pair
//! plus one short critical section per span, intended for *phase*-level
//! scopes (per step), not per-pair inner loops.

pub mod accuracy;
pub mod critical_path;
pub mod events;
pub mod histogram;
pub mod json;
pub mod ledger;
pub mod trace;
pub mod watchdog;

use histogram::LogHistogram;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Canonical top-level phase names, mirroring the paper's Table 4
/// decomposition `t_step = max(t_wine, t_mdg) + t_comm + t_host`.
pub mod phase {
    /// Real-space force engine (MDGRAPE-2 side / `t_mdg`).
    pub const REAL: &str = "real";
    /// Wavenumber-space force engine (WINE-2 side / `t_wine`).
    pub const WAVE: &str = "wave";
    /// Data movement: board uploads, halo exchange, reductions
    /// (`t_comm`).
    pub const COMM: &str = "comm";
    /// Host-side O(N) work: integration, bookkeeping, self-energy
    /// (`t_host`).
    pub const HOST: &str = "host";
}

/// Accumulated timing for one span path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub calls: u64,
    /// Total time spent inside, summed over calls (and over threads).
    pub total: Duration,
}

/// Summary of the values a gauge took since the last drain: counters
/// count *events*, gauges sample *levels* (utilization fractions,
/// bandwidths), so sum/min/max/last all carry meaning.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaugeStat {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples (mean = sum / count).
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Most recent sample.
    pub last: f64,
}

impl GaugeStat {
    fn from_sample(value: f64) -> Self {
        GaugeStat {
            count: 1,
            sum: value,
            min: value,
            max: value,
            last: value,
        }
    }

    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
    }

    /// Mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn merge(&mut self, other: &GaugeStat) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        // Merge order stands in for time order (profiles merge
        // step-by-step), so the other side is the newer sample.
        self.last = other.last;
    }
}

/// A drained snapshot of the registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Profile {
    /// Dot-joined span path → accumulated stat.
    pub spans: HashMap<String, SpanStat>,
    /// Counter name → accumulated value.
    pub counters: HashMap<String, u64>,
    /// Gauge name → sampled-level summary (device utilization,
    /// bandwidths — written via [`gauge`]).
    pub gauges: HashMap<String, GaugeStat>,
    /// Histogram name → log-bucketed distribution (error-attribution
    /// telemetry from the precision seams).
    pub histograms: HashMap<String, LogHistogram>,
}

impl Profile {
    /// Seconds accumulated under exactly `path` (0.0 when absent).
    pub fn seconds(&self, path: &str) -> f64 {
        self.spans
            .get(path)
            .map_or(0.0, |stat| stat.total.as_secs_f64())
    }

    /// The top-level spans (paths with no dot) and their seconds: the
    /// *phases* of a step event and of a run's ledger row.
    pub fn phases(&self) -> impl Iterator<Item = (&str, f64)> {
        let top_level = self.spans.iter().filter(|(path, _)| !path.contains('.'));
        top_level.map(|(path, stat)| (path.as_str(), stat.total.as_secs_f64()))
    }

    /// Span paths, sorted for stable output.
    pub fn sorted_paths(&self) -> Vec<&str> {
        let mut paths: Vec<&str> = self.spans.keys().map(String::as_str).collect();
        paths.sort_unstable();
        paths
    }

    /// Merge another profile into this one. Span stats and ordinary
    /// counters sum; counters named `…_max` (high-water marks written
    /// via [`counter_max`]) merge by maximum instead, so e.g. a peak
    /// cell occupancy survives aggregation across steps.
    pub fn merge(&mut self, other: &Profile) {
        for (path, stat) in &other.spans {
            let entry = self.spans.entry(path.clone()).or_default();
            entry.calls += stat.calls;
            entry.total += stat.total;
        }
        for (name, value) in &other.counters {
            let entry = self.counters.entry(name.clone()).or_insert(0);
            if name.ends_with("_max") {
                *entry = (*entry).max(*value);
            } else {
                *entry += value;
            }
        }
        for (name, stat) in &other.gauges {
            match self.gauges.get_mut(name) {
                Some(mine) => mine.merge(stat),
                None => {
                    self.gauges.insert(name.clone(), *stat);
                }
            }
        }
        for (name, hist) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(hist),
                None => {
                    self.histograms.insert(name.clone(), hist.clone());
                }
            }
        }
    }
}

/// One accumulation target: a lock per span *end*, off any inner loop.
type Sink = Mutex<Option<Profile>>;

/// The process-wide sink: where a thread with no [`scope`] records.
static REGISTRY: Sink = Mutex::new(None);

/// A thread's recording context: its open span names, outermost first
/// (for path nesting), and the innermost [`scope`] it records into.
#[derive(Clone)]
pub struct Context {
    stack: Vec<&'static str>,
    sink: Option<Arc<Sink>>,
}

thread_local! {
    static CONTEXT: RefCell<Context> = const {
        RefCell::new(Context { stack: Vec::new(), sink: None })
    };
}

fn with_registry<R>(f: impl FnOnce(&mut Profile) -> R) -> R {
    CONTEXT.with(|context| {
        let context = context.borrow();
        let sink = context.sink.as_deref().unwrap_or(&REGISTRY);
        let mut guard = sink.lock().unwrap_or_else(|poisoned| {
            // A panic inside the short record section cannot leave the map
            // half-updated in a way we care about; keep profiling.
            poisoned.into_inner()
        });
        f(guard.get_or_insert_with(Profile::default))
    })
}

/// Guard returned by [`scope`] and [`adopt_context`]: on drop (also on
/// unwind) the thread's span stack and recording target are what they
/// were before; what nobody drained from a scope is discarded with it.
#[must_use = "the scope lasts until the guard is dropped"]
pub struct Scope {
    /// Stack depth and sink of this thread before the guard.
    depth: usize,
    outer: Option<Arc<Sink>>,
    /// The context is thread-local: drop on the thread that opened it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        CONTEXT.with(|context| {
            let mut context = context.borrow_mut();
            context.stack.truncate(self.depth);
            context.sink = self.outer.take();
        });
    }
}

/// Open a run-scoped recording target: until the guard drops, records
/// made on this thread — and on every worker that adopts its context —
/// accumulate in a fresh sink, and [`take`]/[`reset`] drain that sink
/// only. Scopes nest; `run_instrumented` opens one per call.
pub fn scope() -> Scope {
    adopt_context(&Context {
        stack: Vec::new(),
        sink: Some(Arc::new(Mutex::new(None))),
    })
}

/// RAII guard: records the elapsed time under the span's path on drop.
///
/// Drop is *rebalancing*: the guard remembers the stack depth it was
/// opened at and truncates back to it, so a panic unwinding through
/// nested spans (or a leaked inner guard) cannot leave stale names on
/// the thread-local stack and corrupt every later path on that thread.
#[must_use = "a span measures until dropped — bind it with `let _span = …`"]
pub struct SpanGuard {
    path: String,
    start: Instant,
    /// Stack depth *before* this span's name was pushed.
    depth: usize,
    /// Span paths are built from a thread-local stack, so a guard must
    /// be dropped on the thread that opened it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        CONTEXT.with(|context| {
            // Truncate, don't pop: rebalances even when inner guards
            // were leaked or the stack was disturbed by a panic.
            context.borrow_mut().stack.truncate(self.depth);
        });
        if TIMELINE_ENABLED.load(Ordering::Relaxed) {
            record_timeline_event(&self.path, self.start, elapsed);
        }
        with_registry(|profile| {
            let stat = profile.spans.entry(std::mem::take(&mut self.path)).or_default();
            stat.calls += 1;
            stat.total += elapsed;
        });
    }
}

/// Open a scoped timer. The name joins the enclosing spans on this
/// thread with dots: `span("wave")` containing `span("dft")` records
/// `"wave"` and `"wave.dft"`.
pub fn span(name: &'static str) -> SpanGuard {
    debug_assert!(
        !name.contains('.'),
        "span names must be single segments; nesting builds the path"
    );
    let (path, depth) = CONTEXT.with(|context| {
        let stack = &mut context.borrow_mut().stack;
        let depth = stack.len();
        let path = match stack.last() {
            // Reconstruct the parent path from the stack.
            Some(_) => {
                let mut joined = stack.join(".");
                joined.push('.');
                joined.push_str(name);
                joined
            }
            None => name.to_string(),
        };
        stack.push(name);
        (path, depth)
    });
    SpanGuard {
        path,
        start: Instant::now(),
        depth,
        _not_send: std::marker::PhantomData,
    }
}

/// Snapshot of the current thread's recording context. Hand it to
/// another thread (via [`adopt_context`]) so spans it opens nest under
/// the phase that handed it work, in that run's [`scope`]. The vendored
/// rayon backend takes one per parallel region, for the pool workers
/// that help with it; `mpi::run_world` one per world, for its rank
/// threads.
pub fn context_snapshot() -> Context {
    CONTEXT.with(|context| context.borrow().clone())
}

/// Adopt `context` (a [`context_snapshot`] from the thread handing out
/// work) until the guard drops: this thread records into its scope,
/// under its span names, and afterwards records where it did before. A
/// long-lived thread can therefore serve many runs in turn — a rayon
/// pool worker adopts the caller's context for one region and drops it
/// before taking the next. The adopted names themselves are *context
/// only* — no time accumulates under them from this thread; the handing
/// thread's own guards measure the phase.
pub fn adopt_context(context: &Context) -> Scope {
    CONTEXT.with(|mine| {
        let mut mine = mine.borrow_mut();
        let depth = mine.stack.len();
        mine.stack.extend_from_slice(&context.stack);
        Scope {
            depth,
            outer: std::mem::replace(&mut mine.sink, context.sink.clone()),
            _not_send: std::marker::PhantomData,
        }
    })
}

/// Add `value` to the named counter.
pub fn counter(name: &'static str, value: u64) {
    with_registry(|profile| {
        *profile.counters.entry(name.to_string()).or_insert(0) += value;
    });
}

/// Raise the named counter to at least `value` (a high-water mark).
/// By convention the name should end in `_max`, which makes
/// [`Profile::merge`] keep the maximum instead of summing.
pub fn counter_max(name: &'static str, value: u64) {
    debug_assert!(
        name.ends_with("_max"),
        "high-water counters should end in `_max` so merge keeps the maximum"
    );
    with_registry(|profile| {
        let entry = profile.counters.entry(name.to_string()).or_insert(0);
        *entry = (*entry).max(value);
    });
}

/// Sample the named gauge: a *level* (utilization fraction, achieved
/// bandwidth) rather than an event count. The registry keeps a
/// [`GaugeStat`] summary; when a timeline is recording, the sample
/// additionally becomes a Perfetto counter-track point (see
/// [`trace::chrome_trace`]), so utilization renders as a curve beside
/// the span tracks. One registry lock per call — per-phase/per-step
/// cadence, not inner loops.
pub fn gauge(name: &'static str, value: f64) {
    if TIMELINE_ENABLED.load(Ordering::Relaxed) {
        record_timeline_counter(name, value);
    }
    with_registry(|profile| match profile.gauges.get_mut(name) {
        Some(stat) => stat.record(value),
        None => {
            profile
                .gauges
                .insert(name.to_string(), GaugeStat::from_sample(value));
        }
    });
}

/// Record a counter-track point on the timeline *only* — no registry
/// entry. For gauges derived from an already-drained [`Profile`]
/// (e.g. the per-step wall-clock fractions `run_instrumented` computes
/// after [`take`]): writing those back through [`gauge`] would leak
/// them into the *next* step's drain, so they go straight to the
/// timeline. A no-op unless a timeline is recording.
pub fn timeline_counter(name: &str, value: f64) {
    if TIMELINE_ENABLED.load(Ordering::Relaxed) {
        record_timeline_counter(name, value);
    }
}

/// Record one sample into the named registry histogram, creating it
/// with [`LogHistogram::error_default`] geometry on first use.
///
/// This takes the registry mutex per call — fine at probe or
/// once-per-step cadence, wrong inside a per-particle loop. Hot paths
/// should accumulate into a local [`LogHistogram`] and publish once
/// via [`histogram_merge`].
pub fn histogram_record(name: &'static str, value: f64) {
    with_registry(|profile| {
        profile
            .histograms
            .entry(name.to_string())
            .or_insert_with(LogHistogram::error_default)
            .record(value);
    });
}

/// Merge a locally accumulated histogram into the named registry
/// histogram (one lock for the whole batch). The registry entry is
/// created with `hist`'s geometry on first use; later merges must
/// match it.
pub fn histogram_merge(name: &'static str, hist: &LogHistogram) {
    with_registry(|profile| match profile.histograms.get_mut(name) {
        Some(mine) => mine.merge(hist),
        None => {
            profile.histograms.insert(name.to_string(), hist.clone());
        }
    });
}

/// Drain the current sink (innermost open [`scope`], else process-wide):
/// everything accumulated there since the last `take`/`reset`.
pub fn take() -> Profile {
    with_registry(std::mem::take)
}

/// Clear the current sink without reading it.
pub fn reset() {
    let _ = take();
}

// ---------------------------------------------------------------------
// Rank context: per-thread recorder identity for distributed runs.
// ---------------------------------------------------------------------

thread_local! {
    /// The simulated-MPI rank this thread is executing as, if any.
    static CURRENT_RANK: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

/// The rank identity of the current thread ([`rank_scope`]), or `None`
/// outside any rank context (single-process runs, the main thread).
/// Timeline events and watchdog [`watchdog::Violation`]s stamp this at
/// creation, which is what turns one shared profile into a
/// *distributed* trace: same span paths, per-rank attribution.
pub fn current_rank() -> Option<u64> {
    CURRENT_RANK.with(|cell| cell.get())
}

/// RAII guard restoring the previous rank context on drop.
#[must_use = "the rank context lasts until the guard is dropped"]
pub struct RankGuard {
    prev: Option<u64>,
    /// The context is thread-local; the guard must drop on the thread
    /// that opened it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for RankGuard {
    fn drop(&mut self) {
        CURRENT_RANK.with(|cell| cell.set(self.prev));
    }
}

/// Declare that this thread is executing as simulated-MPI rank `rank`
/// until the returned guard drops. `mpi::run_world` opens one per rank
/// thread; nesting restores the outer rank on drop.
pub fn rank_scope(rank: u64) -> RankGuard {
    let prev = CURRENT_RANK.with(|cell| cell.replace(Some(rank)));
    RankGuard {
        prev,
        _not_send: std::marker::PhantomData,
    }
}

// ---------------------------------------------------------------------
// Timeline: optional per-occurrence span recording for trace export.
// ---------------------------------------------------------------------

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One completed span occurrence, placed on the wall clock relative to
/// the [`timeline_start`] call that enabled recording.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineEvent {
    /// Dot-joined span path (same key as [`Profile::spans`]).
    pub path: String,
    /// Microseconds from timeline start to span entry.
    pub start_us: f64,
    /// Span duration in microseconds.
    pub dur_us: f64,
    /// Small per-process ordinal of the recording thread (0, 1, …).
    pub thread: u64,
    /// Simulated-MPI rank the span ran under ([`rank_scope`]), if any.
    /// Drives per-rank process tracks in the Chrome-trace export.
    pub rank: Option<u64>,
}

/// Which half of a message a [`TimelineFlow`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// The send side (Chrome flow phase `"s"`).
    Send,
    /// The receive side (Chrome flow phase `"f"`, binding-point end).
    Recv,
}

/// One endpoint of a message edge between ranks: a send and a recv
/// sharing an `id` render as an arrow in Perfetto (flow events), making
/// communication causality visible across the per-rank tracks.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineFlow {
    /// Ties the send to its recv; unique per message, process-wide.
    pub id: u64,
    /// Send or recv side.
    pub kind: FlowKind,
    /// Simulated-MPI message tag (labels the arrow).
    pub tag: u64,
    /// Microseconds from timeline start.
    pub ts_us: f64,
    /// Thread ordinal of the endpoint (same space as
    /// [`TimelineEvent::thread`]).
    pub thread: u64,
    /// Rank of the endpoint, if inside a [`rank_scope`].
    pub rank: Option<u64>,
}

/// One gauge sample placed on the wall clock: renders as a point on a
/// Perfetto counter track (`"ph": "C"`).
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineCounter {
    /// Gauge name (same key as [`Profile::gauges`]).
    pub name: String,
    /// Microseconds from timeline start to the sample.
    pub ts_us: f64,
    /// Sampled value.
    pub value: f64,
}

/// The events captured between [`timeline_start`] and [`timeline_stop`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Completed span occurrences, in drop order.
    pub events: Vec<TimelineEvent>,
    /// Gauge samples ([`gauge`] / [`timeline_counter`] calls made
    /// while recording), in sample order.
    pub counters: Vec<TimelineCounter>,
    /// Message send/recv endpoints ([`timeline_flow_send`] /
    /// [`timeline_flow_recv`]), in record order.
    pub flows: Vec<TimelineFlow>,
}

struct TimelineState {
    epoch: Instant,
    events: Vec<TimelineEvent>,
    counters: Vec<TimelineCounter>,
    flows: Vec<TimelineFlow>,
}

/// Cheap gate checked on every span drop; the mutex is only touched
/// while a timeline is actually recording.
static TIMELINE_ENABLED: AtomicBool = AtomicBool::new(false);
static TIMELINE: Mutex<Option<TimelineState>> = Mutex::new(None);
/// Current timeline session (bumped by every [`timeline_start`], so it
/// starts at 1 once any session exists). Thread ordinals are assigned
/// *per session*: a thread's cached ordinal from an earlier session is
/// stale and gets replaced, so a second trace in the same process
/// starts its tids at 0 again instead of continuing where the first
/// left off.
static TIMELINE_SESSION: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD_ORDINAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// `(session, ordinal)` naming this thread in timeline events; the
    /// ordinal is only valid while the session matches.
    static THREAD_ORDINAL: std::cell::Cell<(u64, u64)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// This thread's small tid for the current session, assigned in
/// first-use order. Caller must hold the [`TIMELINE`] lock so the
/// session read and counter bump cannot interleave with
/// [`timeline_start`]'s reset.
fn thread_ordinal_locked() -> u64 {
    let session = TIMELINE_SESSION.load(Ordering::Relaxed);
    THREAD_ORDINAL.with(|cell| {
        let (cached_session, ordinal) = cell.get();
        if cached_session == session {
            ordinal
        } else {
            let ordinal = NEXT_THREAD_ORDINAL.fetch_add(1, Ordering::Relaxed);
            cell.set((session, ordinal));
            ordinal
        }
    })
}

/// Begin recording a timeline: every span that *ends* from now on is
/// captured with its wall-clock placement. Any previous unfinished
/// timeline is discarded, and thread-ordinal assignment restarts at 0
/// for the new session. Recording costs one mutex lock per span end,
/// so keep it off (the default) outside trace-export runs.
pub fn timeline_start() {
    let mut guard = TIMELINE.lock().unwrap_or_else(|p| p.into_inner());
    TIMELINE_SESSION.fetch_add(1, Ordering::Relaxed);
    NEXT_THREAD_ORDINAL.store(0, Ordering::Relaxed);
    *guard = Some(TimelineState {
        epoch: Instant::now(),
        events: Vec::new(),
        counters: Vec::new(),
        flows: Vec::new(),
    });
    drop(guard);
    TIMELINE_ENABLED.store(true, Ordering::Relaxed);
}

/// Stop recording and return the captured [`Timeline`] (empty if
/// [`timeline_start`] was never called).
pub fn timeline_stop() -> Timeline {
    TIMELINE_ENABLED.store(false, Ordering::Relaxed);
    let mut guard = TIMELINE.lock().unwrap_or_else(|p| p.into_inner());
    match guard.take() {
        Some(state) => Timeline {
            events: state.events,
            counters: state.counters,
            flows: state.flows,
        },
        None => Timeline::default(),
    }
}

fn record_timeline_event(path: &str, start: Instant, elapsed: Duration) {
    let mut guard = TIMELINE.lock().unwrap_or_else(|p| p.into_inner());
    let thread = thread_ordinal_locked();
    if let Some(state) = guard.as_mut() {
        // `saturating_duration_since` guards spans opened before the
        // timeline was enabled (they clamp to start at 0).
        let start_us = start.saturating_duration_since(state.epoch).as_secs_f64() * 1e6;
        state.events.push(TimelineEvent {
            path: path.to_string(),
            start_us,
            dur_us: elapsed.as_secs_f64() * 1e6,
            thread,
            rank: current_rank(),
        });
    }
}

/// Process-wide flow-id source; ids tie a send endpoint to its recv
/// across threads, so they must never repeat within a process.
static NEXT_FLOW_ID: AtomicU64 = AtomicU64::new(1);

/// Record the *send* side of a message and return the flow id the
/// matching [`timeline_flow_recv`] must quote. Returns `None` (and
/// records nothing) when no timeline is recording — callers thread the
/// id through the message payload, so a recv on a timeline started
/// mid-flight simply has no send to pair with, which the exporter
/// tolerates.
pub fn timeline_flow_send(tag: u64) -> Option<u64> {
    if !TIMELINE_ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    let id = NEXT_FLOW_ID.fetch_add(1, Ordering::Relaxed);
    record_timeline_flow(id, FlowKind::Send, tag);
    Some(id)
}

/// Record the *recv* side of a message whose send returned `id`. A
/// no-op when no timeline is recording.
pub fn timeline_flow_recv(id: u64, tag: u64) {
    if TIMELINE_ENABLED.load(Ordering::Relaxed) {
        record_timeline_flow(id, FlowKind::Recv, tag);
    }
}

fn record_timeline_flow(id: u64, kind: FlowKind, tag: u64) {
    let mut guard = TIMELINE.lock().unwrap_or_else(|p| p.into_inner());
    let thread = thread_ordinal_locked();
    if let Some(state) = guard.as_mut() {
        let ts_us = state.epoch.elapsed().as_secs_f64() * 1e6;
        state.flows.push(TimelineFlow {
            id,
            kind,
            tag,
            ts_us,
            thread,
            rank: current_rank(),
        });
    }
}

fn record_timeline_counter(name: &str, value: f64) {
    let mut guard = TIMELINE.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(state) = guard.as_mut() {
        let ts_us = state.epoch.elapsed().as_secs_f64() * 1e6;
        state.counters.push(TimelineCounter {
            name: name.to_string(),
            ts_us,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(duration: Duration) {
        let start = Instant::now();
        while start.elapsed() < duration {
            std::hint::spin_loop();
        }
    }

    // The tests without a `scope()` share the process-wide sink and run
    // concurrently, so each uses unique span names and asserts on those.

    /// Copy the current sink without clearing it.
    fn snapshot() -> Profile {
        with_registry(|profile| profile.clone())
    }

    #[test]
    fn nesting_builds_dotted_paths() {
        {
            let _outer = span("t1_outer");
            spin(Duration::from_millis(2));
            {
                let _inner = span("t1_inner");
                spin(Duration::from_millis(2));
            }
            {
                let _inner = span("t1_inner");
                spin(Duration::from_millis(2));
            }
        }
        let profile = snapshot();
        assert_eq!(profile.spans["t1_outer"].calls, 1);
        assert_eq!(profile.spans["t1_outer.t1_inner"].calls, 2);
        assert!(!profile.spans.contains_key("t1_inner"));
        // Parent's clock covers its children.
        assert!(
            profile.spans["t1_outer"].total >= profile.spans["t1_outer.t1_inner"].total,
            "outer {:?} vs inner {:?}",
            profile.spans["t1_outer"].total,
            profile.spans["t1_outer.t1_inner"].total
        );
    }

    #[test]
    fn accumulation_sums_across_calls() {
        for _ in 0..3 {
            let _span = span("t2_repeat");
            spin(Duration::from_millis(1));
        }
        let profile = snapshot();
        assert_eq!(profile.spans["t2_repeat"].calls, 3);
        assert!(profile.spans["t2_repeat"].total >= Duration::from_millis(3));
    }

    #[test]
    fn counters_accumulate() {
        counter("t3_pairs", 10);
        counter("t3_pairs", 32);
        assert_eq!(snapshot().counters["t3_pairs"], 42);
    }

    #[test]
    fn worker_thread_spans_aggregate_globally() {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let _span = span("t4_rank");
                    spin(Duration::from_millis(1));
                });
            }
        });
        let profile = snapshot();
        // Worker threads have empty stacks: top-level path, 4 calls.
        assert_eq!(profile.spans["t4_rank"].calls, 4);
    }

    #[test]
    fn panic_inside_span_leaves_stack_balanced() {
        let result = std::panic::catch_unwind(|| {
            let _outer = span("t7_outer");
            let _inner = span("t7_inner");
            panic!("boom inside nested spans");
        });
        assert!(result.is_err());
        // The unwound guards must have fully rebalanced the stack: a
        // fresh span on this thread gets a clean top-level path.
        {
            let _after = span("t7_after");
        }
        let profile = snapshot();
        assert!(profile.spans.contains_key("t7_after"));
        assert!(
            !profile.spans.keys().any(|k| k.contains("t7_outer.t7_after")),
            "stale stack entries leaked into later paths: {:?}",
            profile.sorted_paths()
        );
    }

    #[test]
    fn leaked_inner_guard_rebalances_on_outer_drop() {
        {
            let _outer = span("t8_outer");
            std::mem::forget(span("t8_leaked"));
            // Outer drop truncates past the leaked name.
        }
        {
            let _after = span("t8_after");
        }
        let profile = snapshot();
        assert!(profile.spans.contains_key("t8_after"));
        assert!(
            !profile.spans.keys().any(|k| k.starts_with("t8_outer.t8_leaked.")),
            "leaked guard polluted later paths: {:?}",
            profile.sorted_paths()
        );
    }

    #[test]
    fn adopted_stack_attributes_worker_spans_under_parent() {
        let parent = {
            let _phase = span("t15_phase");
            context_snapshot()
        };
        assert_eq!(parent.stack, vec!["t15_phase"]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let parent = parent.clone();
                scope.spawn(move || {
                    let _adopted = adopt_context(&parent);
                    let _leaf = span("t15_leaf");
                    spin(Duration::from_micros(100));
                });
            }
        });
        let profile = snapshot();
        assert_eq!(
            profile.spans["t15_phase.t15_leaf"].calls, 4,
            "worker spans mis-attributed: {:?}",
            profile.sorted_paths()
        );
        assert!(!profile.spans.contains_key("t15_leaf"));
        // Adoption is context only: the phase accumulated exactly its
        // own one call on the spawning thread.
        assert_eq!(profile.spans["t15_phase"].calls, 1);
    }

    #[test]
    fn scope_takes_exactly_its_own_records() {
        counter("t17_outside", 1);
        {
            let _scope = scope();
            drop(span("t17_span"));
            counter("t17_inside", 5);
            gauge("t17_gauge", 0.5);
            histogram_record("t17_hist", 1e-6);
            // Nothing another test put in the process-wide sink, nothing
            // recorded before the scope opened.
            let mine = take();
            assert_eq!(mine.spans.len(), 1);
            assert_eq!(mine.spans["t17_span"].calls, 1);
            assert_eq!(mine.counters, HashMap::from([("t17_inside".to_string(), 5)]));
            assert_eq!(mine.gauges["t17_gauge"].count, 1);
            assert_eq!(mine.histograms["t17_hist"].count(), 1);
            counter("t17_inside", 1);
            reset();
            assert_eq!(take(), Profile::default());
            counter("t17_inside", 1);
        }
        // Closed: this thread records process-wide again, and what the
        // scope held — drained or not — never reached that sink.
        counter("t17_outside", 1);
        let global = snapshot();
        assert_eq!(global.counters["t17_outside"], 2);
        assert!(!global.counters.contains_key("t17_inside"));
        assert!(!global.spans.contains_key("t17_span"));
    }

    #[test]
    fn nested_scope_restores_the_outer_one_on_drop_and_on_unwind() {
        let _outer = scope();
        counter("t18_outer", 1);
        {
            let _inner = scope();
            counter("t18_inner", 1);
            assert_eq!(take().counters, HashMap::from([("t18_inner".to_string(), 1)]));
        }
        counter("t18_outer", 1);
        let unwound = std::panic::catch_unwind(|| {
            let _inner = scope();
            counter("t18_unwound", 1);
            panic!("boom inside a scope");
        });
        assert!(unwound.is_err());
        counter("t18_outer", 1);
        assert_eq!(take().counters, HashMap::from([("t18_outer".to_string(), 3)]));
    }

    #[test]
    fn concurrent_spans_and_counters_are_lossless() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 200;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        let _outer = span("t16_outer");
                        let _inner = span("t16_inner");
                        counter("t16_hits", 1);
                        counter_max("t16_peak_max", 7);
                    }
                });
            }
        });
        let profile = snapshot();
        let total = THREADS as u64 * PER_THREAD;
        // Nothing lost and nothing misnested under contention: every
        // span landed on its exact dotted path, every increment counted.
        assert_eq!(profile.spans["t16_outer"].calls, total);
        assert!(
            !profile.spans.contains_key("t16_inner"),
            "t16_inner misnested to top level"
        );
        assert_eq!(profile.spans["t16_outer.t16_inner"].calls, total);
        assert_eq!(profile.counters["t16_hits"], total);
        assert_eq!(profile.counters["t16_peak_max"], 7);
    }

    #[test]
    fn counter_max_keeps_high_water_mark() {
        counter_max("t9_occupancy_max", 10);
        counter_max("t9_occupancy_max", 42);
        counter_max("t9_occupancy_max", 17);
        assert_eq!(snapshot().counters["t9_occupancy_max"], 42);
    }

    #[test]
    fn merge_maxes_max_suffixed_counters() {
        let mut a = Profile::default();
        a.counters.insert("t10_sum".into(), 5);
        a.counters.insert("t10_peak_max".into(), 9);
        let mut b = Profile::default();
        b.counters.insert("t10_sum".into(), 7);
        b.counters.insert("t10_peak_max".into(), 4);
        a.merge(&b);
        assert_eq!(a.counters["t10_sum"], 12);
        assert_eq!(a.counters["t10_peak_max"], 9);
    }

    #[test]
    fn gauges_summarize_and_merge() {
        gauge("t13_util", 0.25);
        gauge("t13_util", 0.75);
        gauge("t13_util", 0.50);
        let stat = snapshot().gauges["t13_util"];
        assert_eq!(stat.count, 3);
        assert_eq!(stat.min, 0.25);
        assert_eq!(stat.max, 0.75);
        assert_eq!(stat.last, 0.50);
        assert!((stat.mean() - 0.50).abs() < 1e-12);

        // Profile::merge folds gauges: extrema widen, merge order
        // carries `last`, the mean stays sample-weighted.
        let mut a = Profile::default();
        a.gauges.insert("t13_m".into(), GaugeStat::from_sample(0.2));
        let mut b = Profile::default();
        b.gauges.insert("t13_m".into(), GaugeStat::from_sample(0.8));
        b.gauges.insert("t13_only_b".into(), GaugeStat::from_sample(0.4));
        a.merge(&b);
        let merged = a.gauges["t13_m"];
        assert_eq!(merged.count, 2);
        assert_eq!((merged.min, merged.max, merged.last), (0.2, 0.8, 0.8));
        assert!((merged.mean() - 0.5).abs() < 1e-12);
        assert_eq!(a.gauges["t13_only_b"].count, 1);
    }

    #[test]
    fn timeline_records_span_occurrences() {
        // Single test exercising the global timeline (other timeline
        // users build `Timeline` values directly), so concurrent tests
        // can only *add* events, which the filter below ignores.
        timeline_start();
        {
            let _outer = span("t11_outer");
            spin(Duration::from_millis(1));
            let _inner = span("t11_inner");
            spin(Duration::from_millis(1));
        }
        gauge("t11_gauge", 0.5);
        timeline_counter("t11_derived", 0.9);
        // Rank context and a message flow, recorded on this thread.
        let flow_id = {
            let _rank = rank_scope(3);
            let _ranked = span("t11_ranked");
            timeline_flow_send(7).expect("timeline is recording")
        };
        timeline_flow_recv(flow_id, 7);
        let timeline = timeline_stop();
        // Both the registry gauge and the timeline-only counter landed
        // as counter samples; only the former entered the registry.
        let counters: Vec<&TimelineCounter> = timeline
            .counters
            .iter()
            .filter(|c| c.name.starts_with("t11_"))
            .collect();
        assert_eq!(counters.len(), 2, "counters: {:?}", timeline.counters);
        assert!(counters.iter().all(|c| c.ts_us >= 0.0));
        assert!(snapshot().gauges.contains_key("t11_gauge"));
        assert!(!snapshot().gauges.contains_key("t11_derived"));
        let mine: Vec<&TimelineEvent> = timeline
            .events
            .iter()
            .filter(|e| e.path.starts_with("t11_"))
            .collect();
        assert_eq!(mine.len(), 3, "events: {:?}", timeline.events);
        // Rank stamping: only the span closed inside the rank scope is
        // attributed; the send was in-scope, the recv was not.
        let ranked = mine.iter().find(|e| e.path == "t11_ranked").unwrap();
        assert_eq!(ranked.rank, Some(3));
        assert!(mine.iter().filter(|e| e.path != "t11_ranked").all(|e| e.rank.is_none()));
        assert_eq!(current_rank(), None, "rank guard failed to restore");
        let flows: Vec<&TimelineFlow> =
            timeline.flows.iter().filter(|f| f.id == flow_id).collect();
        assert_eq!(flows.len(), 2, "flows: {:?}", timeline.flows);
        assert_eq!(flows[0].kind, FlowKind::Send);
        assert_eq!(flows[0].rank, Some(3));
        assert_eq!(flows[1].kind, FlowKind::Recv);
        assert_eq!(flows[1].rank, None);
        assert!(flows[1].ts_us >= flows[0].ts_us);
        let inner = mine.iter().find(|e| e.path == "t11_outer.t11_inner").unwrap();
        let outer = mine.iter().find(|e| e.path == "t11_outer").unwrap();
        // Inner nests within outer on the wall clock.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.dur_us <= outer.dur_us);
        assert!(outer.dur_us >= 2_000.0, "outer dur {}", outer.dur_us);
        // Disabled again: later spans are not recorded.
        {
            let _late = span("t11_late");
        }
        assert!(timeline_stop().events.is_empty());
    }

    #[test]
    fn rank_scope_nests_and_restores() {
        assert_eq!(current_rank(), None);
        {
            let _outer = rank_scope(1);
            assert_eq!(current_rank(), Some(1));
            {
                let _inner = rank_scope(2);
                assert_eq!(current_rank(), Some(2));
            }
            assert_eq!(current_rank(), Some(1));
        }
        assert_eq!(current_rank(), None);
    }

    #[test]
    fn registry_histograms_record_and_merge() {
        histogram_record("t12_residual", 1e-6);
        histogram_record("t12_residual", 1e-6);
        let mut local = LogHistogram::error_default();
        local.record(3e-2);
        histogram_merge("t12_residual", &local);
        let profile = snapshot();
        let hist = &profile.histograms["t12_residual"];
        assert_eq!(hist.count(), 3);
        assert!(hist.max().unwrap() >= 3e-2);

        // Profile::merge folds histograms too (same name merges, new
        // name copies).
        let mut a = Profile::default();
        let mut b = Profile::default();
        let mut h = LogHistogram::error_default();
        h.record(1e-4);
        a.histograms.insert("t12_m".into(), h.clone());
        b.histograms.insert("t12_m".into(), h.clone());
        b.histograms.insert("t12_only_b".into(), h);
        a.merge(&b);
        assert_eq!(a.histograms["t12_m"].count(), 2);
        assert_eq!(a.histograms["t12_only_b"].count(), 1);
    }

    #[test]
    fn merge_sums_profiles() {
        let mut a = Profile::default();
        a.spans.insert(
            "t6".into(),
            SpanStat {
                calls: 1,
                total: Duration::from_secs(1),
            },
        );
        a.counters.insert("t6_count".into(), 5);
        let mut b = Profile::default();
        b.spans.insert(
            "t6".into(),
            SpanStat {
                calls: 2,
                total: Duration::from_secs(3),
            },
        );
        b.counters.insert("t6_count".into(), 7);
        a.merge(&b);
        assert_eq!(a.spans["t6"].calls, 3);
        assert_eq!(a.spans["t6"].total, Duration::from_secs(4));
        assert_eq!(a.counters["t6_count"], 12);
    }
}
