//! Harness-side tracing: spans recorded around the calls *into* each
//! layer's public functions (spans inside the program are a later
//! change). Spans stay in memory and are written out once, as a Chrome
//! trace, when the workload ends.
//!
//! The tracer is thread-local and only the workload's main thread
//! records; rungs that start threads wrap the whole rung in one span.

use mdm_profile::json::{obj, Value};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was enabled.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread (the `--trace 1` run). Without this
/// call every [`span`] is a no-op, which is how end-to-end numbers are
/// measured with tracing off.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span; it closes when the returned guard drops.
pub fn span(name: &'static str) -> Guard {
    Guard(TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let t = t.as_mut()?;
        let now = t.epoch.elapsed().as_secs_f64();
        let id = t.spans.len();
        t.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: t.open.last().copied(),
        });
        t.open.push(id);
        Some(id)
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[id].end = t.epoch.elapsed().as_secs_f64();
                // Guards drop in LIFO order, so `id` is on top.
                t.open.pop();
            }
        });
    }
}

/// Run `f` inside a span and return its result with its wall time —
/// the shape of every rung. The wall time is measured whether or not
/// tracing is on.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let _span = span(name);
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Stop recording and hand back everything recorded.
pub fn take() -> Vec<Span> {
    TRACER.with(|t| t.borrow_mut().take().map_or(Vec::new(), |t| t.spans))
}

/// Self time per span name: each span's duration minus the part of it
/// its direct children cover, summed by name. Returns
/// `name → (calls, total seconds, self seconds)`.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut child_time = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_time[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(&child_time) {
        let e = out.entry(s.name).or_default();
        let total = s.end - s.start;
        e.0 += 1;
        e.1 += total;
        e.2 += (total - covered).max(0.0);
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"X"`) event per span, with its id, parent id and the workload in
/// `args` so spans of one run share an identifier.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Value {
    let events = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            obj([
                ("name", Value::Str(s.name.to_string())),
                ("ph", Value::Str("X".into())),
                ("ts", Value::from_f64(s.start * 1e6)),
                ("dur", Value::from_f64((s.end - s.start) * 1e6)),
                ("pid", Value::from_u64(1)),
                ("tid", Value::from_u64(1)),
                (
                    "args",
                    obj([
                        ("id", Value::from_u64(id as u64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from_u64(p as u64)),
                        ),
                        ("workload", Value::Str(workload.to_string())),
                    ]),
                ),
            ])
        })
        .collect();
    obj([("traceEvents", Value::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,10] ⊃ a [1,4] ⊃ leaf [2,3];  root ⊃ a [5,9]
        let spans = [
            s("root", 0.0, 10.0, None),
            s("a", 1.0, 4.0, Some(0)),
            s("leaf", 2.0, 3.0, Some(1)),
            s("a", 5.0, 9.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["root"], (1, 10.0, 3.0)); // 10 − (3 + 4)
        assert_eq!(t["a"], (2, 7.0, 6.0)); // (3 − 1) + 4
        assert_eq!(t["leaf"], (1, 1.0, 1.0));
    }

    #[test]
    fn disabled_tracer_records_nothing_and_still_times() {
        let _ = take();
        let (v, wall) = timed("x", || 7);
        assert_eq!(v, 7);
        assert!(wall >= 0.0);
        assert!(take().is_empty());
    }

    #[test]
    fn nesting_sets_parents() {
        enable();
        {
            let _a = span("a");
            let _b = span("b");
        }
        let _c = span("c");
        drop(_c);
        let spans = take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.end >= s.start));
        let json = chrome_trace(&spans, "w").to_compact();
        assert!(json.contains("\"traceEvents\"") && json.contains("\"workload\":\"w\""));
    }
}
