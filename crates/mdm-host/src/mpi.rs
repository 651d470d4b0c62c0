//! A simulated message-passing fabric.
//!
//! The paper's MD program "is parallelized with Message Passing
//! Interface (MPI)" over Myrinet (§4). Here the processes are threads
//! and the interconnect is crossbeam channels, but the programming
//! model is the same: ranks, point-to-point send/recv with tags, and
//! all-reduce and gather over a rank group — a contiguous
//! `Range` of ranks whose first is the root, `0..size()` for the whole
//! world, standing in for an MPI sub-communicator. The
//! [`parallel`](crate::parallel) module writes against this exactly as
//! the paper's code wrote against MPI.
//!
//! **Tracing**: every rank thread adopts its caller's profile context
//! with its rank set ([`mdm_profile::Context::with_rank`]), so it
//! records into the caller's scope and timeline, and the spans and
//! watchdog violations it records — and those of every pool worker
//! helping with its parallel regions — carry the rank.
//! [`Comm::send`] / [`Comm::recv`] mark each message's endpoints as
//! timeline flows ([`mdm_profile::timeline_flow_send`]) — in a `--trace`
//! run the merged Perfetto trace shows one process-track family per
//! rank with send→recv arrows between them. The timeline part is a
//! no-op when the caller traces nothing.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::ops::Range;

/// A tagged message.
struct Message {
    from: usize,
    tag: u64,
    data: Vec<f64>,
    /// Timeline flow id stamped by the sender when a trace is
    /// recording; the receiver closes the arrow with it.
    flow: Option<u64>,
}

/// Reserved control tag broadcast by a panicking rank so that peers
/// blocked in [`Comm::recv`] wake up and abort instead of waiting for
/// a message that will never come. Not usable as an application tag.
const POISON_TAG: u64 = u64::MAX;

/// Marker prefix identifying a poison-induced (secondary) panic, so
/// [`run_world`] can re-raise the *original* rank failure instead of a
/// victim's.
const POISON_MSG: &str = "[mpi] world poisoned: rank";

/// A buffered out-of-order message: its payload and the sender's flow
/// id (closed into a trace arrow when the receiver consumes it).
type Buffered = (Vec<f64>, Option<u64>);

/// One rank's endpoint.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    /// Out-of-order delivery buffer keyed by `(from, tag)`.
    pending: HashMap<(usize, u64), VecDeque<Buffered>>,
}

impl Comm {
    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `data` to `to` with `tag`. Never blocks (channels are
    /// unbounded, like a buffered MPI eager send).
    pub fn send(&self, to: usize, tag: u64, data: &[f64]) {
        assert!(tag != POISON_TAG, "tag u64::MAX is reserved");
        self.senders[to]
            .send(Message {
                from: self.rank,
                tag,
                data: data.to_vec(),
                flow: mdm_profile::timeline_flow_send(tag),
            })
            .expect("peer hung up");
    }

    /// Blocking receive matching `(from, tag)`; unrelated messages are
    /// buffered for later receives. Panics if any rank in the world has
    /// panicked (its poison broadcast wakes this receive), so a dead
    /// rank fails the whole run fast instead of deadlocking it.
    pub fn recv(&mut self, from: usize, tag: u64) -> Vec<f64> {
        // The recv endpoint is marked when the message is *returned*
        // (including pops from the out-of-order buffer), not when it
        // arrived — the flow arrow should land where the program
        // actually consumed the data.
        let deliver = |data: Vec<f64>, flow: Option<u64>| {
            if let Some(id) = flow {
                mdm_profile::timeline_flow_recv(id, tag);
            }
            data
        };
        if let Some(queue) = self.pending.get_mut(&(from, tag)) {
            if let Some((data, flow)) = queue.pop_front() {
                return deliver(data, flow);
            }
        }
        loop {
            let msg = self.receiver.recv().expect("world shut down");
            if msg.tag == POISON_TAG {
                panic!(
                    "{POISON_MSG} {} panicked while rank {} waited on recv(from={from}, tag={tag})",
                    msg.from, self.rank
                );
            }
            if msg.from == from && msg.tag == tag {
                return deliver(msg.data, msg.flow);
            }
            self.pending
                .entry((msg.from, msg.tag))
                .or_default()
                .push_back((msg.data, msg.flow));
        }
    }

    /// Element-wise sum across the ranks of `group`; every member gets
    /// the result (reduce to the root `group.start`, then broadcast).
    /// `0..size()` is the whole world. Only members call it; ranks
    /// outside `group` are never waited on.
    pub fn allreduce_sum(&mut self, group: Range<usize>, tag: u64, data: &[f64]) -> Vec<f64> {
        assert!(group.contains(&self.rank), "rank outside its group");
        let root = group.start;
        if self.rank == root {
            let mut acc = data.to_vec();
            for from in group.clone().skip(1) {
                let part = self.recv(from, tag);
                assert_eq!(part.len(), acc.len(), "allreduce length mismatch");
                for (a, p) in acc.iter_mut().zip(&part) {
                    *a += p;
                }
            }
            for to in group.skip(1) {
                self.send(to, tag, &acc);
            }
            acc
        } else {
            self.send(root, tag, data);
            self.recv(root, tag)
        }
    }

    /// Gather variable-length contributions of the ranks of `group` to
    /// its root `group.start`, concatenated in rank order; the other
    /// members get an empty vec. `0..size()` is the whole world.
    pub fn gather_to_root(&mut self, group: Range<usize>, tag: u64, data: &[f64]) -> Vec<f64> {
        assert!(group.contains(&self.rank), "rank outside its group");
        if self.rank == group.start {
            let mut all = data.to_vec();
            for from in group.skip(1) {
                all.extend(self.recv(from, tag));
            }
            all
        } else {
            self.send(group.start, tag, data);
            Vec::new()
        }
    }
}

/// Run `size` ranks, each executing `f(comm)` on its own thread, and
/// return the per-rank results in rank order.
///
/// A panicking rank **aborts the world** instead of deadlocking it:
/// every `Comm` clone holds senders to every rank, so without
/// intervention a dead rank's peers would block forever inside
/// [`Comm::recv`] (the channel never disconnects) and the scope would
/// never join. Instead each rank runs under `catch_unwind`; on panic it
/// broadcasts a poison message that wakes all blocked receives (which
/// then panic in turn), and `run_world` re-raises the *original* panic
/// payload once every thread has exited.
pub fn run_world<F, R>(size: usize, f: F) -> Vec<R>
where
    F: Fn(Comm) -> R + Send + Sync,
    R: Send,
{
    assert!(size > 0);
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (tx, rx) = unbounded();
        senders.push(tx);
        receivers.push(rx);
    }
    let comms: Vec<Comm> = receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| Comm {
            rank,
            size,
            senders: senders.clone(),
            receiver,
            pending: HashMap::new(),
        })
        .collect();
    let f = &f;
    let parent = &mdm_profile::context_snapshot();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                let rank = comm.rank;
                let peers = senders.clone();
                scope.spawn(move || {
                    // The closure only shares `f` (&F) and channel
                    // endpoints, both of which tolerate a peer's
                    // unwind; the panic is re-raised below, so no
                    // broken invariant is ever observed as "ok".
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // Everything the rank records — spans, flows,
                        // watchdog violations — carries its identity.
                        let _context = mdm_profile::adopt_context(&parent.with_rank(rank as u64));
                        f(comm)
                    })) {
                        Ok(result) => Ok(result),
                        Err(payload) => {
                            for peer in &peers {
                                // A peer that already exited dropped
                                // its receiver; nothing to wake there.
                                let _ = peer.send(Message {
                                    from: rank,
                                    tag: POISON_TAG,
                                    data: Vec::new(),
                                    flow: None,
                                });
                            }
                            Err(payload)
                        }
                    }
                })
            })
            .collect();
        // Join every thread before re-raising, so the scope never hangs
        // and secondary (poison-induced) panics don't mask the root
        // cause.
        let mut results = Vec::with_capacity(size);
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        let mut first_secondary: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            match handle.join().expect("rank thread died outside catch_unwind") {
                Ok(result) => results.push(result),
                Err(payload) => {
                    let secondary = payload
                        .downcast_ref::<String>()
                        .is_some_and(|m| m.starts_with(POISON_MSG));
                    let slot = if secondary {
                        &mut first_secondary
                    } else {
                        &mut first_panic
                    };
                    slot.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic.or(first_secondary) {
            std::panic::resume_unwind(payload);
        }
        results
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_ring() {
        let out = run_world(4, |mut comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 1, &[comm.rank() as f64]);
            comm.recv(prev, 1)[0]
        });
        assert_eq!(out, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sums_everywhere() {
        let out = run_world(5, |mut comm| {
            let mine = vec![comm.rank() as f64, 1.0];
            comm.allreduce_sum(0..comm.size(), 7, &mine)
        });
        for r in out {
            assert_eq!(r, vec![10.0, 5.0]);
        }
        // The group 1..3 of a 4-rank world; ranks 0 and 3 stay out
        // and trade a message of the same tag meanwhile.
        let out = in_group_1_to_3(|comm| comm.allreduce_sum(1..3, 7, &[comm.rank() as f64, 1.0]));
        assert_eq!(
            out,
            vec![None, Some(vec![3.0, 2.0]), Some(vec![3.0, 2.0]), None]
        );
    }

    /// Run `collective` on ranks 1 and 2 of a 4-rank world while ranks 0
    /// and 3, outside the group, exchange a tag-7 and a tag-9 message
    /// with each other; fails, rather than hangs, if a group member
    /// waits on an outsider or an outsider is held up.
    fn in_group_1_to_3(collective: fn(&mut Comm) -> Vec<f64>) -> Vec<Option<Vec<f64>>> {
        expect_completes_within(std::time::Duration::from_secs(30), move || {
            run_world(4, |mut comm| match comm.rank() {
                1 | 2 => Some(collective(&mut comm)),
                outsider => {
                    let other = 3 - outsider;
                    for tag in [7, 9] {
                        comm.send(other, tag, &[outsider as f64]);
                        assert_eq!(comm.recv(other, tag), vec![other as f64]);
                    }
                    None
                }
            })
        })
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let out = run_world(3, |mut comm| {
            let mine: Vec<f64> = (0..=comm.rank()).map(|i| i as f64).collect();
            comm.gather_to_root(0..comm.size(), 9, &mine)
        });
        assert_eq!(out[0], vec![0.0, 0.0, 1.0, 0.0, 1.0, 2.0]);
        assert!(out[1].is_empty());
        // The group 1..3 of a 4-rank world gathers to rank 1.
        let out = in_group_1_to_3(|comm| {
            let mine: Vec<f64> = (0..=comm.rank()).map(|i| i as f64).collect();
            comm.gather_to_root(1..3, 9, &mine)
        });
        let root = vec![0.0, 1.0, 0.0, 1.0, 2.0];
        assert_eq!(out, vec![None, Some(root), Some(vec![]), None]);
    }

    #[test]
    fn out_of_order_messages_are_buffered() {
        let out = run_world(2, |mut comm| {
            if comm.rank() == 0 {
                // Send tag 2 before tag 1; receiver asks for 1 first.
                comm.send(1, 2, &[2.0]);
                comm.send(1, 1, &[1.0]);
                0.0
            } else {
                let first = comm.recv(0, 1)[0];
                let second = comm.recv(0, 2)[0];
                first * 10.0 + second
            }
        });
        assert_eq!(out[1], 12.0);
    }

    /// Run `f` on a watchdog thread; panics if it is still running
    /// after `timeout` (a deadlocked world used to hang forever here).
    fn expect_completes_within<R: Send + 'static>(
        timeout: std::time::Duration,
        f: impl FnOnce() -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(timeout)
            .expect("run_world hung: a rank waited on a message that never came")
    }

    /// The distributed-tracing contract: under a recording timeline, a
    /// ring of sends produces rank-stamped spans and one send/recv
    /// flow pair per message, with send-side and recv-side ranks both
    /// attributed.
    #[test]
    fn run_world_records_rank_spans_and_message_flows() {
        use mdm_profile::FlowKind;
        mdm_profile::timeline_start();
        let out = run_world(3, |mut comm| {
            let _span = mdm_profile::span("mpi_trace_test");
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 77, &[comm.rank() as f64]);
            comm.recv(prev, 77)[0]
        });
        let timeline = mdm_profile::timeline_stop();
        assert_eq!(out.len(), 3);
        // Every rank's span carries its identity.
        let ranks: std::collections::BTreeSet<Option<u64>> = timeline
            .events
            .iter()
            .map(|e| e.rank)
            .collect();
        assert_eq!(
            ranks,
            [Some(0), Some(1), Some(2)].into_iter().collect(),
            "events: {:?}",
            timeline.events
        );
        // Three messages → three send/recv pairs with matching ids and
        // ranks on both endpoints.
        let sends: Vec<_> = timeline
            .flows
            .iter()
            .filter(|f| f.kind == FlowKind::Send)
            .collect();
        let recvs: Vec<_> = timeline
            .flows
            .iter()
            .filter(|f| f.kind == FlowKind::Recv)
            .collect();
        assert_eq!(sends.len(), 3, "flows: {:?}", timeline.flows);
        assert_eq!(recvs.len(), 3);
        for send in &sends {
            let recv = recvs
                .iter()
                .find(|r| r.id == send.id)
                .unwrap_or_else(|| panic!("unpaired send {send:?}"));
            assert!(send.rank.is_some() && recv.rank.is_some());
            // The ring: rank r sends to r+1 (mod 3).
            assert_eq!(
                (send.rank.unwrap() + 1) % 3,
                recv.rank.unwrap(),
                "send {send:?} paired with recv {recv:?}"
            );
        }
    }

    /// A pool worker that helps with a rank's parallel region records
    /// as that rank: the rank rides in the context the region hands out.
    #[test]
    fn pool_workers_stamp_the_rank_whose_region_they_help() {
        use rayon::prelude::*;
        const ITEMS: [&str; 3] = ["mpi_item_0", "mpi_item_1", "mpi_item_2"];
        mdm_profile::timeline_start();
        run_world(3, |comm| {
            let item = ITEMS[comm.rank()];
            let _body = mdm_profile::span("mpi_rank_body");
            rayon::with_num_threads(4, || {
                (0..32usize).into_par_iter().for_each(|_| {
                    let _item = mdm_profile::span(item);
                    std::thread::sleep(std::time::Duration::from_micros(500));
                })
            });
        });
        let timeline = mdm_profile::timeline_stop();
        let rank_threads: Vec<u64> = timeline
            .events
            .iter()
            .filter(|e| e.path == "mpi_rank_body")
            .map(|e| e.thread)
            .collect();
        assert_eq!(rank_threads.len(), 3, "events: {:?}", timeline.events);
        let mut workers = std::collections::BTreeSet::new();
        for (rank, item) in ITEMS.iter().enumerate() {
            let path = format!("mpi_rank_body.{item}");
            let items: Vec<_> = timeline.events.iter().filter(|e| e.path == path).collect();
            assert_eq!(items.len(), 32, "events: {:?}", timeline.events);
            for e in items {
                assert_eq!(e.rank, Some(rank as u64), "{e:?}");
                if !rank_threads.contains(&e.thread) {
                    workers.insert(e.thread);
                }
            }
        }
        // Pool workers took part: some items were closed by a thread
        // that is no rank thread.
        assert!(!workers.is_empty(), "events: {:?}", timeline.events);
    }

    #[test]
    fn panicking_rank_aborts_world_instead_of_hanging() {
        let outcome = expect_completes_within(std::time::Duration::from_secs(30), || {
            std::panic::catch_unwind(|| {
                run_world(3, |mut comm| {
                    if comm.rank() == 2 {
                        panic!("deliberate rank failure");
                    }
                    // Without poisoning, these ranks block forever: rank
                    // 2 dies before sending, and every Comm keeps rank
                    // 2's channel alive, so recv never disconnects.
                    comm.recv(2, 7)
                })
            })
        });
        let payload = outcome.expect_err("world must fail once a rank panics");
        // The *original* panic surfaces, not a victim's poison panic.
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("deliberate rank failure"),
            "expected the root-cause payload, got: {message:?}"
        );
    }

    #[test]
    fn panic_during_collective_aborts_world() {
        let outcome = expect_completes_within(std::time::Duration::from_secs(30), || {
            std::panic::catch_unwind(|| {
                run_world(4, |mut comm| {
                    if comm.rank() == 3 {
                        panic!("rank 3 died before the all-reduce");
                    }
                    comm.allreduce_sum(0..4, 12, &[1.0])
                })
            })
        });
        assert!(outcome.is_err());
    }
}
