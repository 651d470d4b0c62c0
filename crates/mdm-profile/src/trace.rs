//! Chrome trace-event export: turn a recorded [`Timeline`] into a
//! `trace.json` that Perfetto / `chrome://tracing` loads directly.
//!
//! Each span occurrence becomes one complete event (`"ph": "X"`) with
//! microsecond `ts`/`dur`. Events are routed onto one *process track
//! per emulated device* — MDGRAPE-2 (real-space), WINE-2 (wavenumber),
//! the communication paths, and the host — so the paper's Table 4
//! identity `t_step = max(t_wine, t_mdg) + t_comm + t_host` is visible
//! as an actual timeline: the real- and wave-space tracks run side by
//! side, and whichever is longer sets the step's critical path.
//!
//! The routing key is the top-level segment of the span path, i.e. the
//! [`crate::phase`] constants the driver already uses.
//!
//! Gauge samples recorded while the timeline records become counter
//! events (`"ph": "C"`) on the same device tracks, so each device
//! shows its utilization curve (pipeline occupancy, bus bandwidth,
//! worker utilization) directly beneath its span rows.
//!
//! **Distributed runs**: spans recorded under a rank context
//! ([`crate::Context::with_rank`] — every `mpi::run_world` rank thread
//! and every pool worker helping with its regions) carry their rank,
//! and the exporter gives each rank its *own family of process tracks*
//! ([`rank_track`]) — the merged trace shows rank 0's MDGRAPE-2 beside
//! rank 1's, the paper's 16-host picture in miniature. Message
//! send/recv pairs ([`crate::timeline_flow_send`] /
//! [`crate::timeline_flow_recv`]) export as Chrome flow events
//! (`"ph": "s"` / `"ph": "f"` sharing an `id`), drawn by Perfetto as
//! arrows between the rank tracks, plus a small anchor slice at each
//! endpoint for the arrow to bind to.

use crate::json::{obj, Value};
use crate::{phase, FlowKind, Timeline};
use std::collections::BTreeMap;

/// The process-track id and display name for a span path, keyed by its
/// top-level segment. Unknown segments land on the host track (the
/// host is where un-phased work runs).
pub fn device_track(path: &str) -> (u64, &'static str) {
    let top = path.split('.').next().unwrap_or(path);
    match top {
        t if t == phase::REAL => (1, "MDGRAPE-2 (real-space)"),
        t if t == phase::WAVE => (2, "WINE-2 (wavenumber)"),
        t if t == phase::COMM => (3, "comm"),
        _ => (4, "host"),
    }
}

/// The process track a *counter* (gauge) belongs on, keyed by the
/// gauge's dotted prefix: `mdg.occupancy` curves under the MDGRAPE-2
/// track, `wine.occupancy` under WINE-2, `comm.jstore_upload_mbps`
/// under the comm track, and everything else (`host.rayon_util`, …)
/// under the host — the same four tracks [`device_track`] routes the
/// span events to, so each device shows its spans *and* its
/// utilization curve together.
pub fn counter_track(name: &str) -> (u64, &'static str) {
    let top = name.split('.').next().unwrap_or(name);
    match top {
        "mdg" => (1, "MDGRAPE-2 (real-space)"),
        "wine" => (2, "WINE-2 (wavenumber)"),
        "comm" | "jstore" => (3, "comm"),
        _ => (4, "host"),
    }
}

/// The process track for a span recorded under a rank. Unranked spans
/// keep the legacy single-process pids 1–4 ([`device_track`]); rank
/// `r` gets its own copy of the device family at `10·(r+1) + device`,
/// so rank 0 owns pids 11–14, rank 1 owns 21–24, … — one process group
/// per host in the paper's topology, each with its MDGRAPE-2 / WINE-2 /
/// comm / host rows.
pub fn rank_track(rank: Option<u64>, path: &str) -> (u64, String) {
    let (device, name) = device_track(path);
    match rank {
        None => (device, name.to_string()),
        Some(r) => (10 * (r + 1) + device, format!("rank {r} · {name}")),
    }
}

/// Convert a timeline into a Chrome trace-event document.
///
/// The result serializes with [`Value::to_pretty`] or
/// [`Value::to_compact`]; both load in Perfetto.
pub fn chrome_trace(timeline: &Timeline) -> Value {
    let mut events = Vec::new();

    // Name the process tracks first (metadata events, `"ph": "M"`),
    // one per (rank, device) that actually appears.
    let mut tracks: BTreeMap<u64, String> = BTreeMap::new();
    for event in &timeline.events {
        let (pid, name) = rank_track(event.rank, &event.path);
        tracks.insert(pid, name);
    }
    for counter in &timeline.counters {
        let (pid, name) = counter_track(&counter.name);
        tracks.insert(pid, name.to_string());
    }
    for flow in &timeline.flows {
        let (pid, name) = rank_track(flow.rank, phase::COMM);
        tracks.insert(pid, name);
    }
    for (pid, name) in &tracks {
        events.push(obj([
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", Value::Num(*pid as f64)),
            ("tid", Value::Num(0.0)),
            ("args", obj([("name", Value::Str(name.clone()))])),
        ]));
    }

    for event in &timeline.events {
        let (pid, _) = rank_track(event.rank, &event.path);
        let cat = event.path.split('.').next().unwrap_or(&event.path);
        events.push(obj([
            ("name", Value::Str(event.path.clone())),
            ("cat", Value::Str(cat.to_string())),
            ("ph", Value::Str("X".into())),
            ("ts", Value::Num(event.start_us)),
            ("dur", Value::Num(event.dur_us)),
            ("pid", Value::Num(pid as f64)),
            ("tid", Value::Num(event.thread as f64)),
        ]));
    }

    // Message causality: each send/recv endpoint gets a 1 µs anchor
    // slice on its rank's comm track plus the flow half (`"s"` start,
    // `"f"` finish with binding-point `"e"`). Perfetto binds each half
    // to the slice enclosing it at that (pid, tid, ts) — the anchor
    // guarantees one exists even when the endpoint fired outside any
    // span — and draws an arrow between the two.
    for flow in &timeline.flows {
        let (pid, _) = rank_track(flow.rank, phase::COMM);
        let (anchor, bind_extra) = match flow.kind {
            FlowKind::Send => ("send", None),
            FlowKind::Recv => ("recv", Some(("bp", Value::Str("e".into())))),
        };
        events.push(obj([
            ("name", Value::Str(format!("{anchor}(tag={})", flow.tag))),
            ("cat", Value::Str(phase::COMM.into())),
            ("ph", Value::Str("X".into())),
            ("ts", Value::Num(flow.ts_us)),
            ("dur", Value::Num(1.0)),
            ("pid", Value::Num(pid as f64)),
            ("tid", Value::Num(flow.thread as f64)),
        ]));
        let mut fields = vec![
            ("name", Value::Str(format!("msg tag {}", flow.tag))),
            ("cat", Value::Str(phase::COMM.into())),
            (
                "ph",
                Value::Str(match flow.kind {
                    FlowKind::Send => "s".into(),
                    FlowKind::Recv => "f".into(),
                }),
            ),
            ("id", Value::from_u64(flow.id)),
            ("ts", Value::Num(flow.ts_us)),
            ("pid", Value::Num(pid as f64)),
            ("tid", Value::Num(flow.thread as f64)),
        ];
        if let Some(extra) = bind_extra {
            fields.push(extra);
        }
        events.push(obj(fields));
    }

    // Gauge samples become counter events (`"ph": "C"`): Perfetto
    // draws one counter track per (pid, name) and steps the curve at
    // each sample. `from_f64` keeps a NaN sample recordable (it lands
    // as a string sentinel rather than breaking the JSON document).
    for counter in &timeline.counters {
        let (pid, _) = counter_track(&counter.name);
        events.push(obj([
            ("name", Value::Str(counter.name.clone())),
            ("cat", Value::Str("gauge".into())),
            ("ph", Value::Str("C".into())),
            ("ts", Value::Num(counter.ts_us)),
            ("pid", Value::Num(pid as f64)),
            ("args", obj([("value", Value::from_f64(counter.value))])),
        ]));
    }

    obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TimelineCounter, TimelineEvent};

    fn sample_timeline() -> Timeline {
        let event = |path: &str, start_us: f64, dur_us: f64| TimelineEvent {
            path: path.to_string(),
            start_us,
            dur_us,
            thread: 0,
            rank: None,
        };
        let counter = |name: &str, ts_us: f64, value: f64| TimelineCounter {
            name: name.to_string(),
            ts_us,
            value,
        };
        Timeline {
            events: vec![
                event("real.mdg_pass.pipelines", 10.0, 800.0),
                event("real.mdg_pass", 5.0, 900.0),
                event("real", 0.0, 1000.0),
                event("wave.dft", 0.0, 400.0),
                event("wave", 0.0, 700.0),
                event("comm.upload", 1000.0, 50.0),
                event("host", 1050.0, 120.5),
                event("jstore_build", 1171.0, 30.0), // un-phased → host
            ],
            counters: vec![
                counter("mdg.occupancy", 900.0, 0.83),
                counter("wine.occupancy", 650.0, 0.91),
                counter("comm.jstore_upload_mbps", 1040.0, 118.0),
                counter("host.rayon_util", 1170.0, 1.0),
                counter("mdg.occupancy", 1900.0, 0.79),
            ],
            flows: vec![],
        }
    }

    #[test]
    fn device_track_routing() {
        assert_eq!(device_track("real.mdg_pass").0, 1);
        assert_eq!(device_track("wave").0, 2);
        assert_eq!(device_track("comm.upload").0, 3);
        assert_eq!(device_track("host.selfenergy").0, 4);
        assert_eq!(device_track("jstore_build").0, 4, "unknown → host");
    }

    #[test]
    fn perfetto_schema_smoke() {
        // The fields Perfetto requires on complete events: every "X"
        // event must carry name, ph, ts, dur, pid, tid; ts/dur must be
        // finite numbers.
        let doc = chrome_trace(&sample_timeline());
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("top-level traceEvents array");
        assert!(!events.is_empty());
        let mut complete = 0;
        let mut counters = 0;
        let mut pids = std::collections::BTreeSet::new();
        for event in events {
            let ph = event.opt_str("ph").expect("ph");
            match ph {
                "X" => {
                    complete += 1;
                    assert!(event.opt_str("name").is_some());
                    for key in ["ts", "dur", "pid", "tid"] {
                        let x = event
                            .get(key)
                            .and_then(Value::as_f64)
                            .unwrap_or_else(|| panic!("missing {key}: {event:?}"));
                        assert!(x.is_finite());
                    }
                    pids.insert(event.opt_u64("pid").unwrap());
                }
                "C" => {
                    counters += 1;
                    // Checked in depth by counter_track_schema; here
                    // only that the phase is known.
                }
                "M" => {
                    assert_eq!(
                        event.opt_str("name"),
                        Some("process_name")
                    );
                    assert!(event.get("args").and_then(|a| a.get("name")).is_some());
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(complete, sample_timeline().events.len());
        assert_eq!(counters, sample_timeline().counters.len());
        // All four device tracks are present for this timeline.
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn counter_track_routing() {
        assert_eq!(counter_track("mdg.occupancy").0, 1);
        assert_eq!(counter_track("wine.occupancy").0, 2);
        assert_eq!(counter_track("comm.jstore_upload_mbps").0, 3);
        assert_eq!(counter_track("jstore.upload_mbps").0, 3);
        assert_eq!(counter_track("host.rayon_util").0, 4);
        assert_eq!(counter_track("unprefixed_gauge").0, 4, "unknown → host");
        // Counters ride the same pids the span events use, so both
        // appear under one device heading in the viewer.
        assert_eq!(counter_track("mdg.occupancy"), device_track("real"));
        assert_eq!(counter_track("wine.occupancy"), device_track("wave"));
    }

    #[test]
    fn counter_track_schema() {
        // Perfetto's requirements on counter events: every "C" event
        // carries name, pid, a finite ts, and an args object holding
        // the sampled value.
        let timeline = sample_timeline();
        let doc = chrome_trace(&timeline);
        let events = doc.arr("traceEvents").unwrap();
        let counter_events: Vec<&Value> = events
            .iter()
            .filter(|e| e.opt_str("ph") == Some("C"))
            .collect();
        assert_eq!(counter_events.len(), timeline.counters.len());
        for (event, counter) in counter_events.iter().zip(&timeline.counters) {
            assert_eq!(
                event.opt_str("name"),
                Some(counter.name.as_str())
            );
            let ts = event.opt_f64("ts").expect("ts");
            assert!(ts.is_finite());
            assert_eq!(ts, counter.ts_us);
            assert_eq!(
                event.opt_u64("pid"),
                Some(counter_track(&counter.name).0)
            );
            let value = event
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Value::as_f64)
                .expect("args.value");
            assert_eq!(value, counter.value);
        }
        // Counter-bearing pids are named by metadata events even when
        // no span event landed on that track.
        let wave_only = Timeline {
            events: Vec::new(),
            counters: vec![TimelineCounter {
                name: "wine.occupancy".into(),
                ts_us: 1.0,
                value: 0.5,
            }],
            flows: vec![],
        };
        let doc = chrome_trace(&wave_only);
        let events = doc.arr("traceEvents").unwrap();
        assert!(events.iter().any(|e| {
            e.opt_str("ph") == Some("M")
                && e.opt_u64("pid") == Some(2)
        }));
    }

    /// The distributed-trace schema: ranked spans land on per-rank
    /// pids, send/recv flows export as paired `"s"`/`"f"` events, and
    /// counter tracks coexist with both in one document.
    #[test]
    fn ranked_trace_has_per_rank_pids_and_paired_flows() {
        use crate::{FlowKind, TimelineFlow};
        let event = |path: &str, rank: u64, thread: u64, start: f64, dur: f64| TimelineEvent {
            path: path.to_string(),
            start_us: start,
            dur_us: dur,
            thread,
            rank: Some(rank),
        };
        let timeline = Timeline {
            events: vec![
                event("real", 0, 0, 0.0, 100.0),
                event("comm", 0, 0, 100.0, 130.0),
                event("wave", 1, 1, 0.0, 90.0),
                event("comm", 1, 1, 90.0, 130.0),
            ],
            counters: vec![TimelineCounter {
                name: "mdg.occupancy".into(),
                ts_us: 50.0,
                value: 0.8,
            }],
            flows: vec![
                TimelineFlow {
                    id: 42,
                    kind: FlowKind::Send,
                    tag: 2,
                    ts_us: 110.0,
                    thread: 0,
                    rank: Some(0),
                },
                TimelineFlow {
                    id: 42,
                    kind: FlowKind::Recv,
                    tag: 2,
                    ts_us: 120.0,
                    thread: 1,
                    rank: Some(1),
                },
            ],
        };
        let doc = chrome_trace(&timeline);
        let events = doc.arr("traceEvents").unwrap();

        // Per-rank pids: rank 0 owns 11..=14, rank 1 owns 21..=24; the
        // two ranks' comm spans are on *different* tracks.
        let span_pids: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e.opt_str("ph") == Some("X"))
            .map(|e| e.opt_u64("pid").unwrap())
            .collect();
        assert!(span_pids.contains(&11), "rank0 real pid: {span_pids:?}");
        assert!(span_pids.contains(&13), "rank0 comm pid: {span_pids:?}");
        assert!(span_pids.contains(&22), "rank1 wave pid: {span_pids:?}");
        assert!(span_pids.contains(&23), "rank1 comm pid: {span_pids:?}");
        assert_eq!(rank_track(Some(0), "comm").0, 13);
        assert_eq!(rank_track(Some(1), "comm").0, 23);
        assert_eq!(
            rank_track(Some(1), "wave").1,
            "rank 1 · WINE-2 (wavenumber)"
        );

        // Flow pairing: exactly one "s" and one "f" sharing the id,
        // same name (Perfetto matches on both), the "f" carrying the
        // binding point, each on its own rank's comm track.
        let flows: Vec<&Value> = events
            .iter()
            .filter(|e| {
                matches!(e.opt_str("ph"), Some("s") | Some("f"))
            })
            .collect();
        assert_eq!(flows.len(), 2);
        let s = flows
            .iter()
            .find(|e| e.opt_str("ph") == Some("s"))
            .expect("send half");
        let f = flows
            .iter()
            .find(|e| e.opt_str("ph") == Some("f"))
            .expect("finish half");
        assert_eq!(s.opt_u64("id"), Some(42));
        assert_eq!(f.opt_u64("id"), Some(42));
        assert_eq!(
            s.opt_str("name"),
            f.opt_str("name")
        );
        assert_eq!(f.opt_str("bp"), Some("e"));
        assert_eq!(s.opt_u64("pid"), Some(13));
        assert_eq!(f.opt_u64("pid"), Some(23));
        // Each endpoint has an anchor slice at its (pid, tid, ts) for
        // the arrow to bind to.
        for (half, name) in [(s, "send(tag=2)"), (f, "recv(tag=2)")] {
            let ts = half.opt_f64("ts").unwrap();
            assert!(
                events.iter().any(|e| {
                    e.opt_str("ph") == Some("X")
                        && e.opt_str("name") == Some(name)
                        && e.opt_f64("ts") == Some(ts)
                        && e.get("pid") == half.get("pid")
                        && e.get("tid") == half.get("tid")
                }),
                "no anchor slice {name} at ts {ts}"
            );
        }

        // Counter tracks coexist in the same document.
        assert!(events
            .iter()
            .any(|e| e.opt_str("ph") == Some("C")));
        // And every used pid is named by a metadata event.
        let named: std::collections::BTreeSet<u64> = events
            .iter()
            .filter(|e| e.opt_str("ph") == Some("M"))
            .map(|e| e.opt_u64("pid").unwrap())
            .collect();
        for pid in &span_pids {
            assert!(named.contains(pid), "unnamed pid {pid}");
        }
    }

    #[test]
    fn trace_round_trips_through_parser() {
        let doc = chrome_trace(&sample_timeline());
        let compact = doc.to_compact();
        assert_eq!(Value::parse(&compact).unwrap(), doc);
        let pretty = doc.to_pretty();
        assert_eq!(Value::parse(&pretty).unwrap(), doc);
    }

    #[test]
    fn metadata_names_every_used_track() {
        let doc = chrome_trace(&sample_timeline());
        let events = doc.arr("traceEvents").unwrap();
        let named: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e.opt_str("ph") == Some("M"))
            .map(|e| {
                (
                    e.opt_u64("pid").unwrap(),
                    e.get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(
            named,
            vec![
                (1, "MDGRAPE-2 (real-space)"),
                (2, "WINE-2 (wavenumber)"),
                (3, "comm"),
                (4, "host"),
            ]
        );
    }
}
