//! End-to-end tests of the live telemetry path: instrumented run loop
//! → bus → TCP stream server → clients, including the back-pressure
//! contract (a slow client loses its oldest events; the publisher and
//! other clients are never held up).

use mdm::host::telemetry::{run_instrumented, serve, Instruments, ServeOptions};
use mdm::profile::bus::Bus;
use mdm::profile::events::{FlightRecorder, RunManifest, StepEvent};
use mdm::profile::json::Value;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Parse one streamed JSONL line into (type, step) for assertions.
fn line_kind(line: &str) -> (String, Option<u64>) {
    let value = Value::parse(line).expect("stream lines are valid JSON");
    let kind = value
        .get("type")
        .and_then(Value::as_str)
        .expect("stream lines are typed")
        .to_string();
    let step = value.get("step").and_then(Value::as_u64);
    (kind, step)
}

/// A step event with a deliberately fat payload (~50 kB serialized),
/// so a non-reading client's socket buffers fill after a handful of
/// events and its server-side pump thread measurably falls behind.
fn fat_step(step: u64) -> StepEvent {
    let mut event = StepEvent::from_profile(step, 1e-2, &mdm::profile::Profile::default());
    for k in 0..400u64 {
        event.counters.insert(
            format!("padding_counter_{k}_{}", "x".repeat(100)),
            k,
        );
    }
    event
}

#[test]
fn two_clients_one_slow_fast_sees_everything_slow_drops_oldest() {
    const EVENTS: u64 = 200;
    let bus = Bus::new();
    let manifest = RunManifest {
        label: "stream-test".into(),
        n_particles: 4096,
        ..RunManifest::default()
    };
    let server = serve(
        "127.0.0.1:0",
        &bus,
        &manifest,
        ServeOptions { queue_capacity: 16 },
    )
    .unwrap();
    let addr = server.local_addr();

    // Fast client: reads continuously, must see every event in order.
    let fast = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut steps = Vec::new();
        let mut saw_manifest = false;
        for line in BufReader::new(stream).lines() {
            let (kind, step) = line_kind(&line.unwrap());
            match kind.as_str() {
                "manifest" => saw_manifest = true,
                "step" => steps.push(step.unwrap()),
                other => panic!("unexpected line type {other:?}"),
            }
        }
        assert!(saw_manifest, "fast client gets the manifest on connect");
        steps
    });

    // Slow client: connects but reads NOTHING until the run is over.
    // Its socket buffers fill, its pump thread blocks on write, and
    // its 16-deep bus queue sheds the oldest events.
    let slow_conn = TcpStream::connect(addr).unwrap();

    // Both subscriptions must exist before the first publish (the
    // server subscribes at accept time, so wait for both registrations).
    let deadline = Instant::now() + Duration::from_secs(10);
    while bus.subscriber_count() < 2 {
        assert!(Instant::now() < deadline, "clients failed to register");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The "step loop": publish on a steady cadence and time the
    // publish calls themselves. Publishing must never wait on the
    // stalled client — with a blocking design this loop would deadlock
    // (the slow client reads nothing until after the loop ends).
    let mut publish_time = Duration::ZERO;
    for step in 1..=EVENTS {
        let event = fat_step(step);
        let t0 = Instant::now();
        bus.publish_step(event);
        publish_time += t0.elapsed();
        std::thread::sleep(Duration::from_millis(10));
    }
    bus.close();
    assert!(
        publish_time < Duration::from_secs(5),
        "publishing {EVENTS} events spent {publish_time:?} — the step loop stalled on a slow client"
    );
    assert!(
        bus.dropped_events() > 0,
        "a never-reading client with a 16-deep queue must shed events"
    );

    // Fast client saw the complete run, in order.
    let fast_steps = fast.join().unwrap();
    assert_eq!(fast_steps, (1..=EVENTS).collect::<Vec<u64>>());

    // Now drain the slow client: it gets the manifest, a prefix that
    // fit in the socket, a gap where drop-oldest shed the backlog, and
    // the newest events (its queue drains on close) — ending with the
    // final step.
    let mut text = String::new();
    let mut slow_reader = BufReader::new(slow_conn);
    slow_reader.read_to_string(&mut text).unwrap();
    let mut slow_steps = Vec::new();
    let mut saw_manifest = false;
    for line in text.lines() {
        let (kind, step) = line_kind(line);
        match kind.as_str() {
            "manifest" => saw_manifest = true,
            "step" => slow_steps.push(step.unwrap()),
            other => panic!("unexpected line type {other:?}"),
        }
    }
    assert!(saw_manifest);
    assert!(
        (slow_steps.len() as u64) < EVENTS,
        "slow client saw all {EVENTS} events — no drops happened"
    );
    assert!(slow_steps.windows(2).all(|w| w[0] < w[1]), "in order");
    assert_eq!(
        slow_steps.last(),
        Some(&EVENTS),
        "drop-oldest keeps the newest events: the stream must end at the last step"
    );
    // The shed events are exactly the ones the slow client never saw.
    assert_eq!(
        bus.dropped_events(),
        EVENTS - slow_steps.len() as u64,
        "every published event was either delivered to or dropped by the slow client"
    );
    server.shutdown();
}

#[test]
fn instrumented_run_streams_live_over_tcp() {
    use mdm::core::forcefield::EwaldTosiFumi;
    use mdm::core::integrate::Simulation;
    use mdm::core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use mdm::core::velocities::maxwell_boltzmann;

    let mut system = rocksalt_nacl(2, NACL_LATTICE_A);
    maxwell_boltzmann(&mut system, 300.0, 11);
    let ff = EwaldTosiFumi::nacl_default(system.simbox().l());
    let mut sim = Simulation::new(system, ff, 1.0);
    let manifest = RunManifest {
        label: "live-nacl".into(),
        n_particles: sim.system().len() as u64,
        dt_fs: sim.dt(),
        ..RunManifest::default()
    };

    let bus = Bus::new();
    let server = serve("127.0.0.1:0", &bus, &manifest, ServeOptions::default()).unwrap();
    let addr = server.local_addr();
    let client = std::thread::spawn(move || {
        let stream = TcpStream::connect(addr).unwrap();
        let mut lines = Vec::new();
        for line in BufReader::new(stream).lines() {
            lines.push(line.unwrap());
        }
        lines
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while bus.subscriber_count() < 1 {
        assert!(Instant::now() < deadline, "client failed to register");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut recorder = FlightRecorder::new(Vec::new(), &manifest).unwrap();
    let run = run_instrumented(
        &mut sim,
        3,
        &mut recorder,
        Instruments {
            bus: Some(&bus),
            ..Instruments::default()
        },
    )
    .unwrap();
    bus.close();
    assert_eq!(run.records.len(), 3);
    assert_eq!(run.bus_dropped_events, 0);

    let lines = client.join().unwrap();
    server.shutdown();
    let (kind, _) = line_kind(&lines[0]);
    assert_eq!(kind, "manifest");
    let steps: Vec<StepEvent> = lines[1..]
        .iter()
        .map(|l| StepEvent::from_json(&Value::parse(l).unwrap()).unwrap())
        .collect();
    assert_eq!(steps.len(), 3);
    for (k, event) in steps.iter().enumerate() {
        assert_eq!(event.step, k as u64 + 1);
        assert!(event.observables.contains_key("temperature_k"));
        assert_eq!(event.counters["bus_dropped_events"], 0);
    }
}
