//! Critical-path analysis over a merged multi-rank timeline.
//!
//! The paper's Table 4 explains one step as
//! `t_step = max(t_wine, t_mdg) + t_comm + t_host` — an *analytic*
//! critical path through a fixed two-device pipeline. With
//! `mpi::run_world` the pipeline is live: every rank records its
//! top-level phase spans on the shared timeline (stamped with its rank,
//! see [`crate::rank_scope`]) and every message leaves a send/recv
//! [`crate::TimelineFlow`] pair. This module walks that record as a DAG —
//! program order within a rank, message edges between ranks — and
//! reports the dependency chain that actually bounds the run: the
//! live, multi-rank generalization of Table 4's `max(...)`.
//!
//! Only *top-level* spans (paths without a `.`) are nodes: nested
//! spans are refinements of their parent's interval and would double
//! count. Chain time is accumulated **without overlap**: when a
//! successor starts before its predecessor ends (a recv span that was
//! already open, waiting), only the part after the predecessor's end
//! is credited, so `total_us` never exceeds the makespan.

use crate::{FlowKind, Timeline, TimelineEvent};
use std::collections::BTreeMap;

/// Tolerance when comparing span boundaries (µs). Two spans recorded
/// back-to-back on one thread can carry equal f64 timestamps.
const EPS_US: f64 = 1e-6;

/// One link of the critical chain.
#[derive(Clone, Debug, PartialEq)]
pub struct ChainSegment {
    /// Rank the span ran under (`None` for unranked events, which are
    /// laned by thread instead).
    pub rank: Option<u64>,
    /// Top-level span path (`real`, `wave`, `comm`, `host`, …).
    pub path: String,
    /// Span placement, µs from timeline start.
    pub start_us: f64,
    /// Span end, µs from timeline start.
    pub end_us: f64,
    /// Non-overlapping time this segment adds to the chain, µs.
    pub contribution_us: f64,
}

impl ChainSegment {
    /// `rank{r}/{path}` (or bare `path` when unranked) — the label the
    /// report lines use.
    pub fn label(&self) -> String {
        match self.rank {
            Some(r) => format!("rank{r}/{}", self.path),
            None => self.path.clone(),
        }
    }
}

/// The longest dependency chain through a timeline.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CriticalPathReport {
    /// Chain time (sum of non-overlapping contributions), µs.
    pub total_us: f64,
    /// Wall extent of the whole timeline (max end − min start), µs.
    pub makespan_us: f64,
    /// The chain, in time order.
    pub chain: Vec<ChainSegment>,
    /// Chain time aggregated by segment label, largest first.
    pub phase_totals: Vec<(String, f64)>,
    /// Label of the single largest contributor — "which rank/phase
    /// bounds `t_step`". `None` on an empty timeline.
    pub bottleneck: Option<String>,
}

impl CriticalPathReport {
    /// Fraction of the makespan explained by the chain (1.0 = the run
    /// is fully serialized along this chain; lower means slack).
    pub fn coverage(&self) -> f64 {
        if self.makespan_us > 0.0 {
            self.total_us / self.makespan_us
        } else {
            0.0
        }
    }

    /// Human-readable report block (one string per line).
    pub fn to_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!(
            "critical path: {:.1} us of {:.1} us makespan ({:.1}% serialized)",
            self.total_us,
            self.makespan_us,
            100.0 * self.coverage()
        ));
        for (label, us) in &self.phase_totals {
            lines.push(format!(
                "  {label:<20} {us:>12.1} us  ({:.1}% of chain)",
                100.0 * us / self.total_us.max(f64::MIN_POSITIVE)
            ));
        }
        if let Some(bottleneck) = &self.bottleneck {
            lines.push(format!("  bottleneck: {bottleneck}"));
        }
        lines
    }
}

/// Lane identity: events inside a [`crate::rank_scope`] chain by rank
/// (a rank may migrate between pool threads without breaking program
/// order); unranked events chain by recording thread.
fn lane(event: &TimelineEvent) -> (u64, u64) {
    match event.rank {
        Some(rank) => (0, rank),
        None => (1, event.thread),
    }
}

/// Walk `timeline` and return the dependency chain that bounds it.
///
/// Nodes are top-level span occurrences. Edges are (a) program order
/// within a lane (predecessor ends before successor starts) and (b)
/// message flows: a send endpoint inside span `p` on one lane and its
/// recv endpoint inside span `n` on another add `p → n`. The returned
/// chain maximizes non-overlapping busy time.
pub fn critical_path(timeline: &Timeline) -> CriticalPathReport {
    // Nodes: top-level spans only, indexed in end-time order so every
    // possible predecessor precedes its successors in the scan.
    let mut nodes: Vec<&TimelineEvent> = timeline
        .events
        .iter()
        .filter(|e| !e.path.contains('.'))
        .collect();
    nodes.sort_by(|a, b| {
        let ea = a.start_us + a.dur_us;
        let eb = b.start_us + b.dur_us;
        ea.partial_cmp(&eb)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.start_us.partial_cmp(&b.start_us).unwrap_or(std::cmp::Ordering::Equal))
    });
    if nodes.is_empty() {
        return CriticalPathReport::default();
    }

    let end = |e: &TimelineEvent| e.start_us + e.dur_us;

    // Message edges: pair flows by id, then bind each endpoint to the
    // node on its lane whose interval contains the endpoint timestamp
    // (top-level spans on one lane never overlap, so "contains" is
    // unique); a send after its span closed binds to the last span
    // ending before it, a recv before its span opened to the next one.
    let mut sends: BTreeMap<u64, &crate::TimelineFlow> = BTreeMap::new();
    let mut recvs: BTreeMap<u64, &crate::TimelineFlow> = BTreeMap::new();
    for flow in &timeline.flows {
        match flow.kind {
            FlowKind::Send => {
                sends.entry(flow.id).or_insert(flow);
            }
            FlowKind::Recv => {
                recvs.entry(flow.id).or_insert(flow);
            }
        }
    }
    let flow_lane = |f: &crate::TimelineFlow| match f.rank {
        Some(rank) => (0, rank),
        None => (1, f.thread),
    };
    let bind_send = |f: &crate::TimelineFlow| -> Option<usize> {
        let l = flow_lane(f);
        let mut best: Option<usize> = None;
        for (i, n) in nodes.iter().enumerate() {
            if lane(n) != l || n.start_us > f.ts_us + EPS_US {
                continue;
            }
            // Containing span wins; otherwise the latest span ending
            // before the send.
            match best {
                Some(b) if end(nodes[b]) >= end(n) => {}
                _ => best = Some(i),
            }
        }
        best
    };
    let bind_recv = |f: &crate::TimelineFlow| -> Option<usize> {
        let l = flow_lane(f);
        let mut containing: Option<usize> = None;
        let mut next: Option<usize> = None;
        for (i, n) in nodes.iter().enumerate() {
            if lane(n) != l {
                continue;
            }
            if n.start_us <= f.ts_us + EPS_US && f.ts_us <= end(n) + EPS_US {
                containing = Some(i);
            } else if n.start_us > f.ts_us {
                match next {
                    Some(x) if nodes[x].start_us <= n.start_us => {}
                    _ => next = Some(i),
                }
            }
        }
        containing.or(next)
    };
    let mut flow_edges: Vec<(usize, usize)> = Vec::new();
    for (id, send) in &sends {
        let Some(recv) = recvs.get(id) else { continue };
        if send.ts_us > recv.ts_us + EPS_US {
            continue;
        }
        if let (Some(p), Some(n)) = (bind_send(send), bind_recv(recv)) {
            // The DP scans predecessors in end order; an edge into an
            // earlier-ending node would be a cycle, so require p ≤ n.
            if p != n && end(nodes[p]) <= end(nodes[n]) + EPS_US {
                flow_edges.push((p, n));
            }
        }
    }

    // Longest-chain DP over the end-ordered nodes. `best[i]` is the
    // maximum non-overlapping chain time of any chain ending at i.
    let n_nodes = nodes.len();
    let mut best = vec![0.0f64; n_nodes];
    let mut pred: Vec<Option<usize>> = vec![None; n_nodes];
    for i in 0..n_nodes {
        best[i] = nodes[i].dur_us;
        for j in 0..i {
            let linked = (lane(nodes[j]) == lane(nodes[i])
                && end(nodes[j]) <= nodes[i].start_us + EPS_US)
                || flow_edges.contains(&(j, i));
            if !linked {
                continue;
            }
            let contribution = (end(nodes[i]) - nodes[i].start_us.max(end(nodes[j]))).max(0.0);
            if best[j] + contribution > best[i] {
                best[i] = best[j] + contribution;
                pred[i] = Some(j);
            }
        }
    }

    let (mut at, _) = best
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("nodes is non-empty");
    let total_us = best[at];
    let mut chain = Vec::new();
    loop {
        let node = nodes[at];
        let contribution = match pred[at] {
            Some(p) => (end(node) - node.start_us.max(end(nodes[p]))).max(0.0),
            None => node.dur_us,
        };
        chain.push(ChainSegment {
            rank: node.rank,
            path: node.path.clone(),
            start_us: node.start_us,
            end_us: end(node),
            contribution_us: contribution,
        });
        match pred[at] {
            Some(p) => at = p,
            None => break,
        }
    }
    chain.reverse();

    let first = nodes.iter().map(|e| e.start_us).fold(f64::INFINITY, f64::min);
    let last = nodes.iter().map(|e| end(e)).fold(0.0f64, f64::max);
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for segment in &chain {
        *totals.entry(segment.label()).or_insert(0.0) += segment.contribution_us;
    }
    let mut phase_totals: Vec<(String, f64)> = totals.into_iter().collect();
    phase_totals.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let bottleneck = phase_totals.first().map(|(label, _)| label.clone());

    CriticalPathReport {
        total_us,
        makespan_us: (last - first).max(0.0),
        chain,
        phase_totals,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TimelineFlow;

    fn event(path: &str, rank: Option<u64>, thread: u64, start: f64, end: f64) -> TimelineEvent {
        TimelineEvent {
            path: path.into(),
            start_us: start,
            dur_us: end - start,
            thread,
            rank,
        }
    }

    fn flow(id: u64, kind: FlowKind, rank: Option<u64>, thread: u64, ts: f64) -> TimelineFlow {
        TimelineFlow {
            id,
            kind,
            tag: 0,
            ts_us: ts,
            thread,
            rank,
        }
    }

    /// rank 1 computes for 300 µs, sends at 310 inside its comm span;
    /// rank 0 finishes its own compute at 100 and cannot start `host`
    /// until the message lands. The chain must cross the flow edge:
    /// rank1/real → rank1/comm → rank0/host.
    #[test]
    fn flow_edge_carries_the_chain_across_ranks() {
        let timeline = Timeline {
            events: vec![
                event("real", Some(0), 0, 0.0, 100.0),
                event("host", Some(0), 0, 330.0, 380.0),
                event("real", Some(1), 1, 0.0, 300.0),
                event("comm", Some(1), 1, 300.0, 320.0),
                // Nested spans are not chain nodes.
                event("comm.pack", Some(1), 1, 301.0, 308.0),
            ],
            counters: vec![],
            flows: vec![
                flow(1, FlowKind::Send, Some(1), 1, 310.0),
                flow(1, FlowKind::Recv, Some(0), 0, 340.0),
            ],
        };
        let report = critical_path(&timeline);
        let labels: Vec<String> = report.chain.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["rank1/real", "rank1/comm", "rank0/host"]);
        assert!((report.total_us - 370.0).abs() < 1e-6, "total {}", report.total_us);
        assert!((report.makespan_us - 380.0).abs() < 1e-6);
        assert_eq!(report.bottleneck.as_deref(), Some("rank1/real"));
        assert!(report.coverage() > 0.97);
        // Contributions along the chain never overlap.
        assert!((report.chain[0].contribution_us - 300.0).abs() < 1e-6);
        assert!((report.chain[1].contribution_us - 20.0).abs() < 1e-6);
        assert!((report.chain[2].contribution_us - 50.0).abs() < 1e-6);
    }

    /// Without the message the chain stays inside the longest lane.
    #[test]
    fn no_flows_reduces_to_longest_lane_chain() {
        let timeline = Timeline {
            events: vec![
                event("real", Some(0), 0, 0.0, 100.0),
                event("host", Some(0), 0, 100.0, 150.0),
                event("real", Some(1), 1, 0.0, 300.0),
            ],
            counters: vec![],
            flows: vec![],
        };
        let report = critical_path(&timeline);
        assert_eq!(report.bottleneck.as_deref(), Some("rank1/real"));
        assert!((report.total_us - 300.0).abs() < 1e-6);
        assert_eq!(report.chain.len(), 1);
    }

    /// A recv span already open when the send fires (blocked waiting)
    /// only credits the post-send part — chain time never exceeds the
    /// makespan.
    #[test]
    fn overlapping_recv_span_is_partially_credited() {
        let timeline = Timeline {
            events: vec![
                event("comm", Some(0), 0, 50.0, 400.0), // waiting most of it
                event("real", Some(1), 1, 0.0, 350.0),
            ],
            counters: vec![],
            flows: vec![
                flow(7, FlowKind::Send, Some(1), 1, 349.0),
                flow(7, FlowKind::Recv, Some(0), 0, 351.0),
            ],
        };
        let report = critical_path(&timeline);
        // real contributes 350, comm only its post-send tail 400-350.
        assert!((report.total_us - 400.0).abs() < 1e-6, "total {}", report.total_us);
        assert!(report.total_us <= report.makespan_us + 1e-9);
        assert_eq!(report.bottleneck.as_deref(), Some("rank1/real"));
    }

    /// Unranked events lane by thread, so single-process timelines
    /// (profile_step without --world) still analyze.
    #[test]
    fn unranked_events_chain_by_thread() {
        let timeline = Timeline {
            events: vec![
                event("real", None, 0, 0.0, 80.0),
                event("wave", None, 0, 80.0, 120.0),
                event("host", None, 0, 120.0, 130.0),
            ],
            counters: vec![],
            flows: vec![],
        };
        let report = critical_path(&timeline);
        assert!((report.total_us - 130.0).abs() < 1e-6);
        assert_eq!(report.bottleneck.as_deref(), Some("real"));
        assert_eq!(report.chain.len(), 3);
    }

    #[test]
    fn empty_timeline_reports_empty() {
        let report = critical_path(&Timeline::default());
        assert_eq!(report.bottleneck, None);
        assert_eq!(report.total_us, 0.0);
        assert!(report.to_lines()[0].contains("critical path"));
    }
}
