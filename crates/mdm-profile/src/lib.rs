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
//!   The thread's one [`Context`] holds its span stack, that sink, its
//!   timeline and its simulated-MPI rank, and a worker adopts all four.
//! * [`counter`] accumulates named integer totals (pairs visited, waves
//!   processed, …) next to the timings; [`counter_max`] keeps a running
//!   maximum instead (names ending in `_max` merge by maximum too, so
//!   high-water marks survive [`Profile::merge`]).
//! * [`take`] drains the current sink into a [`Profile`] snapshot; a
//!   run's merged profile is reduced once, to a [`ledger::RunRecord`].
//! * An optional **timeline** ([`timeline_start`]/[`timeline_stop`])
//!   additionally records every span occurrence with its wall-clock
//!   placement, feeding the Chrome-trace exporter in [`trace`]. It
//!   belongs to the context that started it: it holds what that thread
//!   and every thread adopting its context record, and nothing else.
//!
//! The run-telemetry layer builds on these primitives: [`events`] is
//! the per-step JSONL flight recorder (flushed line by line, so a
//! reader following the file — the serve daemon's `watch` — sees each
//! step as it lands), [`watchdog`] holds the generic threshold monitors, [`ledger`] is
//! the append-only run history the serve daemon writes (one
//! [`ledger::RunRecord`] per run — the only run summary); all of them
//! encode and decode through the typed field readers of [`json`]. The accuracy-telemetry layer is [`accuracy`]
//! (RMS-force-error and effective-speed report types, paper §5 /
//! Table 4 / Figure 5); each precision seam reports its fault through a
//! counter (`wine_q30_saturations`, `funceval_fit_residual_p12_max`).
//!
//! Everything is `std`-only: monotonic [`Instant`] clocks, no external
//! dependencies, no feature gates. Overhead is one `Instant::now` pair
//! plus one short critical section per span, intended for *phase*-level
//! scopes (per step), not per-pair inner loops.

pub mod accuracy;
pub mod events;
pub mod json;
pub mod ledger;
pub mod trace;
pub mod watchdog;

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
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
    }
}

/// One accumulation target: a lock per span *end*, off any inner loop.
type Sink = Mutex<Option<Profile>>;

/// The process-wide sink: where a thread with no [`scope`] records.
static REGISTRY: Sink = Mutex::new(None);

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic inside a short record section cannot leave the data
    // half-updated in a way we care about; keep profiling.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's recording context: its open span names, outermost first
/// (for path nesting), the innermost [`scope`] it records into, the
/// timeline it traces into ([`timeline_start`]) and the simulated-MPI
/// rank it runs as ([`Context::with_rank`]). A worker that adopts the
/// context ([`adopt_context`]) takes all four for as long as it helps.
#[derive(Clone)]
pub struct Context {
    stack: Vec<&'static str>,
    sink: Option<Arc<Sink>>,
    timeline: Option<Arc<Recording>>,
    rank: Option<u64>,
}

impl Context {
    const EMPTY: Context = Context {
        stack: Vec::new(),
        sink: None,
        timeline: None,
        rank: None,
    };

    /// Run `f` on this context's sink (innermost [`scope`], else the
    /// process-wide one).
    fn record<R>(&self, f: impl FnOnce(&mut Profile) -> R) -> R {
        let sink = self.sink.as_deref().unwrap_or(&REGISTRY);
        f(lock(sink).get_or_insert_with(Profile::default))
    }

    /// This context, run as simulated-MPI rank `rank`: what
    /// `mpi::run_world` hands each rank thread to adopt. Spans, flows
    /// and watchdog violations recorded under it — on the rank thread
    /// and on every pool worker helping with its regions — carry the
    /// rank.
    pub fn with_rank(&self, rank: u64) -> Context {
        Context {
            rank: Some(rank),
            ..self.clone()
        }
    }
}

thread_local! {
    static CONTEXT: RefCell<Context> = const { RefCell::new(Context::EMPTY) };
}

fn with_registry<R>(f: impl FnOnce(&mut Profile) -> R) -> R {
    CONTEXT.with(|context| context.borrow().record(f))
}

/// Run `f` on the caller's recording timeline with the caller's rank;
/// `None` when the caller traces nothing or its timeline has stopped.
fn with_timeline<R>(f: impl FnOnce(&mut Log, Option<u64>) -> R) -> Option<R> {
    CONTEXT.with(|context| {
        let context = context.borrow();
        context.timeline.as_deref()?.with_log(|log| f(log, context.rank))
    })
}

/// Guard returned by [`scope`] and [`adopt_context`]: on drop (also on
/// unwind) the thread's span stack, recording target, timeline and rank
/// are what they were before; what nobody drained from a scope is
/// discarded with it.
#[must_use = "the scope lasts until the guard is dropped"]
pub struct Scope {
    /// Stack depth of this thread before the guard.
    depth: usize,
    /// The thread's context before the guard, its stack left out.
    outer: Context,
    /// The context is thread-local: drop on the thread that opened it.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        let outer = std::mem::replace(&mut self.outer, Context::EMPTY);
        CONTEXT.with(|context| {
            let mut context = context.borrow_mut();
            context.stack.truncate(self.depth);
            context.sink = outer.sink;
            context.timeline = outer.timeline;
            context.rank = outer.rank;
        });
    }
}

/// Open a run-scoped recording target: until the guard drops, records
/// made on this thread — and on every worker that adopts its context —
/// accumulate in a fresh sink, and [`take`]/[`reset`] drain that sink
/// only. The thread's timeline and rank carry on into the scope. Scopes
/// nest; `run_instrumented` opens one per call.
pub fn scope() -> Scope {
    adopt_context(&Context {
        stack: Vec::new(),
        sink: Some(Arc::new(Mutex::new(None))),
        ..context_snapshot()
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
            let mut context = context.borrow_mut();
            // Truncate, don't pop: rebalances even when inner guards
            // were leaked or the stack was disturbed by a panic.
            context.stack.truncate(self.depth);
            if let Some(recording) = &context.timeline {
                recording.with_log(|log| {
                    let thread = log.thread_ordinal();
                    log.timeline.events.push(TimelineEvent {
                        path: self.path.clone(),
                        // Spans opened before the timeline started
                        // clamp to start at 0.
                        start_us: micros(self.start.saturating_duration_since(log.epoch)),
                        dur_us: micros(elapsed),
                        thread,
                        rank: context.rank,
                    });
                });
            }
            context.record(|profile| {
                let stat = profile.spans.entry(std::mem::take(&mut self.path)).or_default();
                stat.calls += 1;
                stat.total += elapsed;
            });
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
/// the phase that handed it work, in that run's [`scope`], timeline and
/// rank. The vendored rayon backend takes one per parallel region, for
/// the pool workers that help with it; `mpi::run_world` one per world,
/// for its rank threads.
pub fn context_snapshot() -> Context {
    CONTEXT.with(|context| context.borrow().clone())
}

/// Adopt `context` (a [`context_snapshot`] from the thread handing out
/// work) until the guard drops: this thread records into its scope and
/// timeline, under its span names and rank, and afterwards records
/// where it did before. A long-lived thread can therefore serve many
/// runs in turn — a rayon pool worker adopts the caller's context for
/// one region and drops it before taking the next. The adopted names
/// themselves are *context only* — no time accumulates under them from
/// this thread; the handing thread's own guards measure the phase.
pub fn adopt_context(context: &Context) -> Scope {
    CONTEXT.with(|mine| {
        let mut mine = mine.borrow_mut();
        let depth = mine.stack.len();
        mine.stack.extend_from_slice(&context.stack);
        let outer = Context {
            sink: std::mem::replace(&mut mine.sink, context.sink.clone()),
            timeline: std::mem::replace(&mut mine.timeline, context.timeline.clone()),
            rank: std::mem::replace(&mut mine.rank, context.rank),
            ..Context::EMPTY
        };
        Scope {
            depth,
            outer,
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
/// [`GaugeStat`] summary; when the caller is tracing, the sample
/// additionally becomes a Perfetto counter-track point (see
/// [`trace::chrome_trace`]), so utilization renders as a curve beside
/// the span tracks. One registry lock per call — per-phase/per-step
/// cadence, not inner loops.
pub fn gauge(name: &'static str, value: f64) {
    timeline_counter(name, value);
    with_registry(|profile| match profile.gauges.get_mut(name) {
        Some(stat) => stat.record(value),
        None => {
            profile
                .gauges
                .insert(name.to_string(), GaugeStat::from_sample(value));
        }
    });
}

/// Record a counter-track point on the caller's timeline *only* — no
/// registry entry. For gauges derived from an already-drained
/// [`Profile`] (e.g. the per-step wall-clock fractions
/// `run_instrumented` computes after [`take`]): writing those back
/// through [`gauge`] would leak them into the *next* step's drain, so
/// they go straight to the timeline. A no-op unless the caller traces.
pub fn timeline_counter(name: &str, value: f64) {
    with_timeline(|log, _| {
        let ts_us = log.now_us();
        log.timeline.counters.push(TimelineCounter {
            name: name.to_string(),
            ts_us,
            value,
        });
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

/// The simulated-MPI rank the current thread records as
/// ([`Context::with_rank`]), or `None` outside any rank context
/// (single-process runs, the main thread). Timeline events and watchdog
/// [`watchdog::Violation`]s stamp this at creation, which is what turns
/// one shared profile into a *distributed* trace: same span paths,
/// per-rank attribution.
pub fn current_rank() -> Option<u64> {
    CONTEXT.with(|context| context.borrow().rank)
}

// ---------------------------------------------------------------------
// Timeline: optional per-occurrence span recording for trace export.
// ---------------------------------------------------------------------

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
    /// Small per-timeline ordinal of the recording thread (0, 1, …).
    pub thread: u64,
    /// Simulated-MPI rank the span ran under ([`Context::with_rank`]),
    /// if any. Drives per-rank process tracks in the Chrome-trace
    /// export.
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
    /// Ties the send to its recv; unique per message within a timeline.
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
    /// Rank of the endpoint, if recorded under one.
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

/// A timeline being recorded: what its threads have recorded, until
/// [`timeline_stop`] takes it.
struct Recording(Mutex<Option<Log>>);

impl Recording {
    /// Run `f` on the log; `None`, recording nothing, once stopped.
    fn with_log<R>(&self, f: impl FnOnce(&mut Log) -> R) -> Option<R> {
        lock(&self.0).as_mut().map(f)
    }
}

struct Log {
    /// The timeline's clock zero.
    epoch: Instant,
    timeline: Timeline,
    /// Each recording thread's ordinal, in first-record order.
    threads: HashMap<ThreadId, u64>,
    /// The last flow id handed out.
    last_flow: u64,
}

impl Log {
    fn thread_ordinal(&mut self) -> u64 {
        let next = self.threads.len() as u64;
        *self.threads.entry(std::thread::current().id()).or_insert(next)
    }

    fn now_us(&self) -> f64 {
        micros(self.epoch.elapsed())
    }

    fn push_flow(&mut self, id: u64, kind: FlowKind, tag: u64, rank: Option<u64>) {
        let (ts_us, thread) = (self.now_us(), self.thread_ordinal());
        self.timeline.flows.push(TimelineFlow {
            id,
            kind,
            tag,
            ts_us,
            thread,
            rank,
        });
    }
}

fn micros(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// Begin recording a timeline in the caller's context: every span that
/// *ends* from now on — on this thread, and on every thread that adopts
/// its context — is captured with its wall-clock placement. Thread
/// ordinals and flow ids start afresh; a timeline this context was
/// already recording is discarded. Call [`timeline_stop`] at the same
/// [`scope`] level: a scope opened after the start carries the
/// timeline, and one closed before the stop takes it away. Recording
/// costs one more mutex lock per span end, so keep it off (the default)
/// outside trace-export runs.
pub fn timeline_start() {
    let recording = Arc::new(Recording(Mutex::new(Some(Log {
        epoch: Instant::now(),
        timeline: Timeline::default(),
        threads: HashMap::new(),
        last_flow: 0,
    }))));
    finish(CONTEXT.with(|context| context.borrow_mut().timeline.replace(recording)));
}

/// Stop `recording`, if any, and return what it captured.
fn finish(recording: Option<Arc<Recording>>) -> Timeline {
    recording
        .and_then(|recording| lock(&recording.0).take())
        .map_or_else(Timeline::default, |log| log.timeline)
}

/// Stop the caller's timeline and return what it captured (empty if
/// [`timeline_start`] was never called in this context). From here on
/// no thread records into it.
pub fn timeline_stop() -> Timeline {
    finish(CONTEXT.with(|context| context.borrow_mut().timeline.take()))
}

/// Microseconds from the caller's [`timeline_start`] to now — the clock
/// of [`TimelineEvent::start_us`] — or `None` when the caller traces
/// nothing: the mark that splits a timeline into a warm-up and a
/// measured window.
pub fn timeline_now_us() -> Option<f64> {
    with_timeline(|log, _| log.now_us())
}

/// Record the *send* side of a message and return the flow id the
/// matching [`timeline_flow_recv`] must quote. Returns `None` (and
/// records nothing) when the caller traces nothing — callers thread the
/// id through the message payload, so a recv on a timeline started
/// mid-flight simply has no send to pair with, which the exporter
/// tolerates.
pub fn timeline_flow_send(tag: u64) -> Option<u64> {
    with_timeline(|log, rank| {
        log.last_flow += 1;
        let id = log.last_flow;
        log.push_flow(id, FlowKind::Send, tag, rank);
        id
    })
}

/// Record the *recv* side of a message whose send returned `id`. A
/// no-op when the caller traces nothing.
pub fn timeline_flow_recv(id: u64, tag: u64) {
    with_timeline(|log, rank| log.push_flow(id, FlowKind::Recv, tag, rank));
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
            profile.spans.keys()
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
            profile.spans.keys()
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
            profile.spans.keys()
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
            // Nothing another test put in the process-wide sink, nothing
            // recorded before the scope opened.
            let mine = take();
            assert_eq!(mine.spans.len(), 1);
            assert_eq!(mine.spans["t17_span"].calls, 1);
            assert_eq!(mine.counters, HashMap::from([("t17_inside".to_string(), 5)]));
            assert_eq!(mine.gauges["t17_gauge"].count, 1);
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
        let _scope = scope();
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
            let _rank = adopt_context(&context_snapshot().with_rank(3));
            let _ranked = span("t11_ranked");
            timeline_flow_send(7).expect("timeline is recording")
        };
        timeline_flow_recv(flow_id, 7);
        let timeline = timeline_stop();
        // Both the registry gauge and the timeline-only counter landed
        // as counter samples; only the former entered the registry.
        let counters: Vec<&str> = timeline.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(counters, ["t11_gauge", "t11_derived"]);
        assert!(timeline.counters.iter().all(|c| c.ts_us >= 0.0));
        let profile = take();
        assert!(profile.gauges.contains_key("t11_gauge"));
        assert!(!profile.gauges.contains_key("t11_derived"));
        let paths: Vec<&str> = timeline.events.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, ["t11_outer.t11_inner", "t11_outer", "t11_ranked"]);
        // Rank stamping: only the span closed inside the rank context is
        // attributed; the send was in it, the recv was not.
        let ranks: Vec<Option<u64>> = timeline.events.iter().map(|e| e.rank).collect();
        assert_eq!(ranks, [None, None, Some(3)]);
        assert_eq!(current_rank(), None, "rank context failed to restore");
        let flows = &timeline.flows;
        assert_eq!(flows.len(), 2, "flows: {flows:?}");
        assert!(flows.iter().all(|f| f.id == flow_id && f.tag == 7));
        assert_eq!((flows[0].kind, flows[0].rank), (FlowKind::Send, Some(3)));
        assert_eq!((flows[1].kind, flows[1].rank), (FlowKind::Recv, None));
        assert!(flows[1].ts_us >= flows[0].ts_us);
        let (inner, outer) = (&timeline.events[0], &timeline.events[1]);
        // Inner nests within outer on the wall clock.
        assert!(inner.start_us >= outer.start_us);
        assert!(inner.dur_us <= outer.dur_us);
        assert!(outer.dur_us >= 2_000.0, "outer dur {}", outer.dur_us);
        // Stopped: later spans are not recorded, and nothing traces.
        {
            let _late = span("t11_late");
        }
        assert_eq!(timeline_now_us(), None);
        assert_eq!(timeline_flow_send(7), None);
        assert!(timeline_stop().events.is_empty());
    }

    /// Record three spans and gauge samples named `name` and one flow
    /// on this thread under a timeline of its own, started and stopped
    /// outside `barrier`'s two waits so that every thread's trace spans
    /// every other's records. Nothing between the waits may panic: a
    /// thread that died there would leave the others waiting.
    fn trace_beside_others(barrier: &std::sync::Barrier, name: &'static str) -> Timeline {
        timeline_start();
        barrier.wait();
        for _ in 0..3 {
            let _span = span(name);
            gauge(name, 1.0);
        }
        if let Some(flow) = timeline_flow_send(1) {
            timeline_flow_recv(flow, 1);
        }
        barrier.wait();
        timeline_stop()
    }

    #[test]
    fn two_threads_tracing_at_once_each_get_only_their_own_events() {
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| trace_beside_others(&barrier, "t19_a"));
            let b = s.spawn(|| trace_beside_others(&barrier, "t19_b"));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (timeline, name) in [(a, "t19_a"), (b, "t19_b")] {
            assert_eq!(timeline.events.len(), 3, "{name}: {:?}", timeline.events);
            assert!(timeline.events.iter().all(|e| e.path == name && e.thread == 0));
            assert_eq!(timeline.counters.len(), 3, "{name}: {:?}", timeline.counters);
            assert!(timeline.counters.iter().all(|c| c.name == name));
            // Flow ids are numbered per timeline.
            let ids: Vec<u64> = timeline.flows.iter().map(|f| f.id).collect();
            assert_eq!(ids, [1, 1], "{name}: {:?}", timeline.flows);
        }
    }

    #[test]
    fn an_untraced_threads_spans_never_reach_a_concurrent_trace() {
        let barrier = std::sync::Barrier::new(2);
        let (traced, untraced) = std::thread::scope(|s| {
            let traced = s.spawn(|| trace_beside_others(&barrier, "t20_traced"));
            let untraced = s.spawn(|| {
                barrier.wait();
                for _ in 0..3 {
                    let _span = span("t20_untraced");
                    gauge("t20_untraced", 1.0);
                    timeline_counter("t20_untraced", 1.0);
                }
                let seen = (timeline_flow_send(2), timeline_now_us());
                timeline_flow_recv(1, 2);
                barrier.wait();
                seen
            });
            (traced.join().unwrap(), untraced.join().unwrap())
        });
        assert_eq!(untraced, (None, None), "the untraced thread saw a timeline");
        assert!(traced.events.iter().all(|e| e.path == "t20_traced"), "{:?}", traced.events);
        assert_eq!(traced.events.len(), 3);
        assert!(traced.counters.iter().all(|c| c.name == "t20_traced"), "{:?}", traced.counters);
        assert!(traced.flows.iter().all(|f| f.tag == 1), "{:?}", traced.flows);
    }

    /// Trace one span on this thread and one on each of `workers`
    /// threads that adopt this thread's context.
    fn record_on_workers(workers: usize) -> Timeline {
        timeline_start();
        {
            let _main = span("t21_main");
            let context = context_snapshot();
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        let _adopted = adopt_context(&context);
                        let _worker = span("t21_worker");
                        std::thread::sleep(Duration::from_millis(1));
                    });
                }
            });
        }
        timeline_stop()
    }

    #[test]
    fn thread_ordinals_are_numbered_per_timeline() {
        let _scope = scope();
        let tids = |timeline: &Timeline| {
            let mut tids: Vec<u64> = timeline.events.iter().map(|e| e.thread).collect();
            tids.sort_unstable();
            tids
        };
        let main_tid = |timeline: &Timeline| {
            let main = timeline.events.iter().find(|e| e.path == "t21_main");
            main.expect("main span recorded").thread
        };
        // This thread and three adopting workers: ordinals 0..=3, in
        // first-record order, so the main span (closed last) has 3.
        let first = record_on_workers(3);
        assert_eq!(tids(&first), [0, 1, 2, 3], "{:?}", first.events);
        assert_eq!(main_tid(&first), 3);
        // A second timeline numbers afresh: the first one's ordinals
        // are not burned.
        let second = record_on_workers(1);
        assert_eq!(tids(&second), [0, 1], "{:?}", second.events);
        let third = record_on_workers(0);
        assert_eq!(tids(&third), [0]);
        assert_eq!(main_tid(&third), 0);
    }

    #[test]
    fn a_rank_context_nests_and_restores() {
        assert_eq!(current_rank(), None);
        {
            let _outer = adopt_context(&context_snapshot().with_rank(1));
            assert_eq!(current_rank(), Some(1));
            {
                let _inner = adopt_context(&context_snapshot().with_rank(2));
                assert_eq!(current_rank(), Some(2));
                // A scope keeps the rank it was opened under.
                let _scope = scope();
                assert_eq!(current_rank(), Some(2));
            }
            assert_eq!(current_rank(), Some(1));
        }
        assert_eq!(current_rank(), None);
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
