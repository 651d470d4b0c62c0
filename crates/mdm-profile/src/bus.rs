//! In-process telemetry pub/sub: the live side of the flight recorder.
//!
//! The instrumented run loop ([`crate::events::FlightRecorder`] writes
//! the post-hoc JSONL file) publishes the same manifest and
//! [`StepEvent`]s onto a [`Bus`]; any number of subscribers — each
//! client of an `mdm_serve` job's `watch` stream, a test — consume them
//! *live*, each over its own bounded queue.
//!
//! Back-pressure policy: **drop-oldest, never block**. The publisher
//! is the step loop, whose wall-clock *is* the measurement (the whole
//! point of the paper's Table 4 decomposition), so a slow subscriber
//! must never stall it. When a subscriber's queue is full the oldest
//! event is discarded and counted — per subscription and bus-wide
//! ([`Bus::dropped_events`], surfaced as the `bus_dropped_events`
//! ledger column) — so losses are *observable*, not silent.
//!
//! Everything is `std`-only: `Mutex` + `Condvar` queues, `Weak`
//! subscriber registration (dropping a [`Subscription`] unregisters it
//! on the next publish), no threads of its own.

use crate::events::{RunManifest, StepEvent};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};

/// One message on the bus. Events are `Arc`-shared: publishing to N
/// subscribers clones N pointers, not N copies of the step payload.
#[derive(Clone, Debug)]
pub enum BusEvent {
    /// The run manifest, published at the start of each run window
    /// (an `mdm_serve` job publishes it every slice). Late subscribers
    /// read the newest one from [`Bus::latest_manifest`].
    Manifest(Arc<RunManifest>),
    /// One completed step.
    Step(Arc<StepEvent>),
}

impl BusEvent {
    /// The JSONL line this event contributes to a live stream —
    /// identical to what the flight recorder writes for the same
    /// payload, so stream clients and file readers share a parser.
    pub fn to_jsonl(&self) -> String {
        match self {
            BusEvent::Manifest(m) => m.to_json().to_compact(),
            BusEvent::Step(s) => s.to_json().to_compact(),
        }
    }
}

struct SubQueue {
    queue: VecDeque<BusEvent>,
    /// Set by [`Bus::close`]; `recv` drains the queue then returns
    /// `None` instead of blocking.
    closed: bool,
}

struct SubShared {
    state: Mutex<SubQueue>,
    available: Condvar,
    capacity: usize,
    dropped: AtomicU64,
}

struct BusShared {
    subs: Mutex<Vec<Weak<SubShared>>>,
    dropped: AtomicU64,
    closed: AtomicBool,
    /// Most recent manifest published on the bus, retained so late
    /// joiners (e.g. a viewer connecting mid-run) can be brought up to
    /// date without replaying the stream.
    latest_manifest: Mutex<Option<Arc<RunManifest>>>,
    /// Scope label: the run server keys one bus per job, by job name.
    topic: String,
}

/// The hub. Cheap to clone (an `Arc`); all clones publish to the same
/// subscriber set.
#[derive(Clone)]
pub struct Bus {
    shared: Arc<BusShared>,
}

impl Bus {
    /// A bus with no subscribers, scoped to a named topic. Topics don't
    /// route anything —
    /// each bus is its own hub — they label the stream so a host
    /// multiplexing many buses (one per server job) can report which
    /// stream a subscriber is attached to.
    pub fn with_topic(topic: impl Into<String>) -> Self {
        Bus {
            shared: Arc::new(BusShared {
                subs: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                closed: AtomicBool::new(false),
                latest_manifest: Mutex::new(None),
                topic: topic.into(),
            }),
        }
    }

    /// The scope label this bus was created with (`""` if anonymous).
    pub fn topic(&self) -> &str {
        &self.shared.topic
    }

    /// Register a subscriber with room for `capacity` queued events
    /// (min 1). Events published while the queue is full evict the
    /// oldest queued event. Dropping the returned [`Subscription`]
    /// unregisters it.
    pub fn subscribe(&self, capacity: usize) -> Subscription {
        let shared = Arc::new(SubShared {
            state: Mutex::new(SubQueue {
                queue: VecDeque::new(),
                closed: self.shared.closed.load(Ordering::SeqCst),
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        });
        let mut subs = self.shared.subs.lock().unwrap_or_else(|p| p.into_inner());
        subs.push(Arc::downgrade(&shared));
        drop(subs);
        Subscription { shared }
    }

    /// Publish to every live subscriber. Never blocks on consumers:
    /// the per-subscriber critical section is a queue push (plus a
    /// pop when full), and `Condvar` waiters hold no lock while
    /// waiting. Dead subscriptions are pruned as a side effect.
    pub fn publish(&self, event: BusEvent) {
        if let BusEvent::Manifest(m) = &event {
            *self
                .shared
                .latest_manifest
                .lock()
                .unwrap_or_else(|p| p.into_inner()) = Some(Arc::clone(m));
        }
        let mut subs = self.shared.subs.lock().unwrap_or_else(|p| p.into_inner());
        subs.retain(|weak| {
            let Some(sub) = weak.upgrade() else {
                return false;
            };
            let mut state = sub.state.lock().unwrap_or_else(|p| p.into_inner());
            if state.queue.len() >= sub.capacity {
                state.queue.pop_front();
                sub.dropped.fetch_add(1, Ordering::Relaxed);
                self.shared.dropped.fetch_add(1, Ordering::Relaxed);
            }
            state.queue.push_back(event.clone());
            drop(state);
            sub.available.notify_one();
            true
        });
    }

    /// Publish the run manifest (convenience wrapper).
    pub fn publish_manifest(&self, manifest: &RunManifest) {
        self.publish(BusEvent::Manifest(Arc::new(manifest.clone())));
    }

    /// Publish one step event (convenience wrapper). It takes the event
    /// by value: the `Arc` every subscriber shares is made from it, with
    /// no copy.
    pub fn publish_step(&self, event: StepEvent) {
        self.publish(BusEvent::Step(Arc::new(event)));
    }

    /// Mark the run finished: subscribers drain their queues and then
    /// see end-of-stream (`recv` → `None`) instead of blocking.
    /// Publishing after close still works (late events reach whoever
    /// is still draining) but new subscribers start closed.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        let subs = self.shared.subs.lock().unwrap_or_else(|p| p.into_inner());
        for weak in subs.iter() {
            if let Some(sub) = weak.upgrade() {
                let mut state = sub.state.lock().unwrap_or_else(|p| p.into_inner());
                state.closed = true;
                drop(state);
                sub.available.notify_all();
            }
        }
    }

    /// The most recent manifest published on this bus, if any — what a
    /// late joiner should be told about the run in progress.
    pub fn latest_manifest(&self) -> Option<Arc<RunManifest>> {
        self.shared
            .latest_manifest
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Total events evicted across all subscribers since creation —
    /// the run-level `bus_dropped_events` counter.
    pub fn dropped_events(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Live subscriber count (prunes dead registrations).
    pub fn subscriber_count(&self) -> usize {
        let mut subs = self.shared.subs.lock().unwrap_or_else(|p| p.into_inner());
        subs.retain(|weak| weak.strong_count() > 0);
        subs.len()
    }
}

/// A subscriber's receiving end. Owns the queue: dropping it
/// unregisters the subscription from the bus.
pub struct Subscription {
    shared: Arc<SubShared>,
}

impl Subscription {
    /// Block until an event arrives; `None` means the bus was closed
    /// and the queue is drained (end of stream).
    pub fn recv(&self) -> Option<BusEvent> {
        let mut state = self.shared.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(event) = state.queue.pop_front() {
                return Some(event);
            }
            if state.closed {
                return None;
            }
            state = self
                .shared
                .available
                .wait(state)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Events evicted from *this* subscription's queue.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn step(n: u64) -> StepEvent {
        StepEvent {
            step: n,
            wall_seconds: 0.25,
            phases: BTreeMap::new(),
            counters: BTreeMap::new(),
            observables: BTreeMap::new(),
            violations: Vec::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        }
    }

    fn step_no(event: &BusEvent) -> u64 {
        match event {
            BusEvent::Step(s) => s.step,
            BusEvent::Manifest(_) => panic!("expected a step event"),
        }
    }

    #[test]
    fn fast_subscriber_sees_every_event_in_order() {
        let bus = Bus::with_topic("t");
        let sub = bus.subscribe(128);
        for n in 0..100 {
            bus.publish_step(step(n));
        }
        bus.close();
        let mut seen = Vec::new();
        while let Some(event) = sub.recv() {
            seen.push(step_no(&event));
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        assert_eq!(sub.dropped(), 0);
        assert_eq!(bus.dropped_events(), 0);
    }

    #[test]
    fn full_queue_drops_oldest_and_counts() {
        let bus = Bus::with_topic("t");
        let sub = bus.subscribe(4);
        for n in 0..100 {
            bus.publish_step(step(n));
        }
        bus.close();
        let mut seen = Vec::new();
        while let Some(event) = sub.recv() {
            seen.push(step_no(&event));
        }
        // Drop-oldest: exactly the newest `capacity` events survive.
        assert_eq!(seen, vec![96, 97, 98, 99]);
        assert_eq!(sub.dropped(), 96);
        assert_eq!(bus.dropped_events(), 96);
    }

    #[test]
    fn publish_never_blocks_on_a_stalled_subscriber() {
        let bus = Bus::with_topic("t");
        // Stalled: subscribed but never receiving.
        let _stalled = bus.subscribe(2);
        let start = std::time::Instant::now();
        for n in 0..10_000 {
            bus.publish_step(step(n));
        }
        // Generous bound: 10k publishes are queue ops, not waits. The
        // real assertion is that we got here at all (no deadlock) —
        // the time bound just catches accidental sleeps.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "publish stalled: {:?}",
            start.elapsed()
        );
        assert_eq!(bus.dropped_events(), 10_000 - 2);
    }

    #[test]
    fn dropped_subscription_unregisters() {
        let bus = Bus::with_topic("t");
        let sub = bus.subscribe(8);
        assert_eq!(bus.subscriber_count(), 1);
        drop(sub);
        bus.publish_step(step(0)); // prunes the dead weak
        assert_eq!(bus.subscriber_count(), 0);
        // Evictions in a dead queue are not counted (nobody lost data).
        assert_eq!(bus.dropped_events(), 0);
    }

    #[test]
    fn concurrent_publisher_and_consumers() {
        let bus = Bus::with_topic("t");
        let fast = bus.subscribe(2048);
        let slow = bus.subscribe(4);
        const EVENTS: u64 = 500;
        std::thread::scope(|scope| {
            let publisher = {
                let bus = bus.clone();
                scope.spawn(move || {
                    for n in 0..EVENTS {
                        bus.publish_step(step(n));
                    }
                    bus.close();
                })
            };
            let fast_seen = scope.spawn(move || {
                let mut seen = Vec::new();
                while let Some(event) = fast.recv() {
                    seen.push(step_no(&event));
                }
                seen
            });
            let slow_count = scope.spawn(move || {
                let mut count = 0u64;
                while let Some(event) = slow.recv() {
                    let _ = step_no(&event);
                    count += 1;
                    // Deliberately slower than the publisher.
                    std::thread::sleep(Duration::from_micros(200));
                }
                (count, slow.dropped())
            });
            publisher.join().unwrap();
            let seen = fast_seen.join().unwrap();
            // The fast consumer's queue was never full: every event,
            // in publish order.
            assert_eq!(seen, (0..EVENTS).collect::<Vec<_>>());
            let (count, dropped) = slow_count.join().unwrap();
            // The slow consumer saw a (possibly complete) subset; what
            // it missed is exactly what was counted as dropped.
            assert_eq!(count + dropped, EVENTS);
        });
    }

    #[test]
    fn bus_retains_the_latest_manifest_for_late_joiners() {
        let bus = Bus::with_topic("t");
        assert!(bus.latest_manifest().is_none());
        bus.publish_manifest(&RunManifest {
            label: "first".into(),
            ..RunManifest::default()
        });
        bus.publish_step(step(1));
        bus.publish_manifest(&RunManifest {
            label: "second".into(),
            ..RunManifest::default()
        });
        assert_eq!(bus.latest_manifest().unwrap().label, "second");
    }

    #[test]
    fn topics_label_buses_and_clones_share_them() {
        let bus = Bus::with_topic("job-42");
        assert_eq!(bus.topic(), "job-42");
        assert_eq!(bus.clone().topic(), "job-42");
        assert_eq!(Bus::with_topic("job-43").topic(), "job-43");
    }

    #[test]
    fn manifest_and_step_share_the_jsonl_shape() {
        let manifest = RunManifest {
            label: "bus-test".into(),
            n_particles: 8,
            ..RunManifest::default()
        };
        let event = BusEvent::Manifest(Arc::new(manifest.clone()));
        let line = event.to_jsonl();
        let parsed = RunManifest::from_json(&crate::json::Value::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.label, manifest.label);
        assert!(!line.contains('\n'));
        assert!(BusEvent::Step(Arc::new(step(3))).to_jsonl().contains("\"step\":3"));
    }
}
