//! The record family's bytes: one manifest, step, run and checkpoint
//! line pinned at exactly what the parent of the one-codec change
//! wrote (`fixtures/record_lines.jsonl`; the run line as ledger
//! version 3 writes it, without the `critical_path` column version 1
//! carried and the `bus_dropped_events` column version 2 carried), and
//! the old spellings every reader must keep accepting.
//! `FLIGHT_RECORDER_VERSION` and `CHECKPOINT_VERSION` stay 1, and
//! `LEDGER_VERSION` 3, only while these hold.

use mdm::core::checkpoint::Checkpoint;
use mdm::core::system::Species;
use mdm::core::Vec3;
use mdm::profile::events::{parse_jsonl, RunManifest, StepEvent};
use mdm::profile::histogram::LogHistogram;
use mdm::profile::json::Value;
use mdm::profile::ledger::{parse_ledger, RunRecord};
use mdm::profile::watchdog::Violation;
use std::collections::BTreeMap;

fn map<T: Copy>(pairs: &[(&str, T)]) -> BTreeMap<String, T> {
    pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
}

fn manifest() -> RunManifest {
    RunManifest {
        label: "nacl-512".into(),
        command: "profile_step --record \"out.jsonl\"".into(),
        n_particles: 512,
        dt_fs: 2.0,
        forcefield: "MDM emulated Ewald (MDGRAPE-2 + WINE-2)".into(),
        seed: u64::MAX - 1,
        params: map(&[("alpha", 0.2743), ("cells", 4.0), ("r_cut", 10.16)]),
        git_sha: "0123abcd0123abcd0123abcd0123abcd0123abcd".into(),
        hostname: "bench-host".into(),
        nproc: 8,
        threads: 4,
        pressure_supported: true,
    }
}

fn step() -> StepEvent {
    let mut residual = LogHistogram::new(-12, -6, 2);
    for v in [5e-10, 4e-10, 1e-9, 3e-13, 1.0] {
        residual.record(v);
    }
    StepEvent {
        step: 7,
        wall_seconds: 0.0513,
        phases: map(&[("comm", 0.002), ("host", 0.0013), ("real", 0.031), ("wave", 0.017)]),
        counters: map(&[("mdg_pair_ops", (1 << 53) + 7), ("wine_q30_saturations", 0)]),
        observables: map(&[("temperature_k", f64::INFINITY), ("total_ev", -3501.7)]),
        violations: vec![Violation {
            monitor: "energy_drift".into(),
            step: 7,
            value: f64::NAN,
            threshold: 1e-3,
            message: "drift \"high\"\nsecond line".into(),
            rank: Some(2),
        }],
        gauges: map(&[("mdg.occupancy", 0.83), ("wine.util_wall", 0.25)]),
        histograms: [("wine_fx_quant_residual".to_string(), residual)].into(),
    }
}

fn run() -> RunRecord {
    RunRecord {
        timestamp_s: 1_754_600_000,
        tool: "profile_step".into(),
        label: "nacl-4096".into(),
        git_sha: "8868e36aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".into(),
        hostname: "ci-runner-7".into(),
        nproc: 4,
        threads: 2,
        n_particles: 4096,
        steps: 10,
        wall_seconds_per_step: 0.886,
        phases: map(&[("real", 0.7), ("wave", 0.1)]),
        gflops: map(&[("real", 1.9)]),
        raw_tflops: Some(15.4),
        effective_tflops: None,
        worst_force_error: Some(f64::INFINITY),
        violations: 3,
        pressure_supported: true,
        gauges: map(&[("mdg.occupancy", 0.83)]),
        ..RunRecord::default()
    }
}

fn checkpoint() -> Checkpoint {
    let v = |x: f64| Vec3::new(x, -x, 0.5 * x);
    Checkpoint {
        job: "job-7".into(),
        step: 5,
        dt: 2.0,
        seed: 42,
        l: 11.28,
        species: vec![
            Species { name: "Na".into(), mass: 22.99, charge: 1.0 },
            Species { name: "Cl".into(), mass: 35.45, charge: -1.0 },
        ],
        types: vec![0, 1],
        positions: vec![v(0.0), v(2.82)],
        velocities: vec![v(1e-3), v(-2e-3)],
        forces: vec![v(0.25), v(-0.25)],
        potential: -7.9,
        coulomb: -8.9,
        short_range: 1.0,
        virial: -0.3,
        observables: map(&[("mean_temperature", 873.2519)]),
        extras: map(&[("carry.steps_since", 3.0)]),
    }
}

#[test]
fn record_lines_keep_the_parents_bytes() {
    let written = [
        manifest().to_json().to_compact(),
        step().to_json().to_compact(),
        run().to_json().to_compact(),
        checkpoint().to_line(),
    ];
    let golden: Vec<&str> = include_str!("fixtures/record_lines.jsonl").lines().collect();
    assert_eq!(golden.len(), written.len());
    for (written, golden) in written.iter().zip(golden) {
        assert_eq!(written, golden);
    }
    // … and every line reads back to the value that wrote it (NaN
    // fields aside, which `==` cannot see).
    let (back_manifest, back_steps) = parse_jsonl(&written[..2].join("\n")).unwrap();
    assert_eq!(back_manifest, manifest());
    let mut want = step();
    assert!(back_steps[0].violations[0].value.is_nan());
    want.violations[0].value = back_steps[0].violations[0].value;
    assert_eq!(format!("{:?}", back_steps[0]), format!("{want:?}"));
    assert_eq!(RunRecord::from_json(&Value::parse(&written[2]).unwrap()).unwrap(), run());
    assert_eq!(Checkpoint::parse(&written[3]).unwrap(), checkpoint());
}

#[test]
fn older_spellings_still_read() {
    // A manifest from before the environment stamp.
    let mut value = manifest().to_json();
    if let Value::Obj(fields) = &mut value {
        for key in ["git_sha", "hostname", "nproc", "threads", "pressure_supported"] {
            fields.remove(key);
        }
    }
    let old = RunManifest::from_json(&value).unwrap();
    let stamps = (old.git_sha.as_str(), old.hostname.as_str(), old.nproc, old.threads);
    assert_eq!(stamps, ("unknown", "unknown", 0, 0));
    assert!(!old.pressure_supported);
    assert_eq!((old.label.as_str(), old.seed), ("nacl-512", u64::MAX - 1));

    // The run line as ledger version 1 wrote it, with the
    // `critical_path` column no writer set.
    let v1 = r#"{"bus_dropped_events":3,"critical_path":"rank1/real","effective_tflops":null,"gauges":{"mdg.occupancy":0.83},"gflops":{"real":1.9},"git_sha":"8868e36aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa","hostname":"ci-runner-7","label":"nacl-4096","n_particles":4096,"nproc":4,"phases":{"real":0.7,"wave":0.1},"pressure_supported":true,"raw_tflops":15.4,"steps":10,"threads":2,"timestamp_s":1754600000,"tool":"profile_step","type":"run","version":1,"violations":3,"wall_seconds_per_step":0.886,"worst_force_error":"inf"}"#;
    assert_eq!(RunRecord::from_json(&Value::parse(v1).unwrap()).unwrap(), run());
    // … and as version 2 wrote it, with the `bus_dropped_events` column
    // of the retired live-telemetry bus.
    let v2 = r#"{"bus_dropped_events":3,"effective_tflops":null,"gauges":{"mdg.occupancy":0.83},"gflops":{"real":1.9},"git_sha":"8868e36aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa","hostname":"ci-runner-7","label":"nacl-4096","n_particles":4096,"nproc":4,"phases":{"real":0.7,"wave":0.1},"pressure_supported":true,"raw_tflops":15.4,"steps":10,"threads":2,"timestamp_s":1754600000,"tool":"profile_step","type":"run","version":2,"violations":3,"wall_seconds_per_step":0.886,"worst_force_error":"inf"}"#;
    assert_eq!(RunRecord::from_json(&Value::parse(v2).unwrap()).unwrap(), run());

    // A ledger row with only the required keys.
    let minimal = "{\"type\":\"run\",\"tool\":\"t\",\"label\":\"l\",\"wall_seconds_per_step\":0.07}";
    let (rows, skipped) = parse_ledger(minimal);
    assert_eq!((rows.len(), skipped), (1, 0));
    let expected = RunRecord {
        tool: "t".into(),
        label: "l".into(),
        git_sha: "unknown".into(),
        hostname: "unknown".into(),
        wall_seconds_per_step: 0.07,
        ..RunRecord::default()
    };
    assert_eq!(rows[0], expected);
}

/// Three rows of the `results/ledger.jsonl` this repository tracked
/// until ISSUE 22 — a `profile_step` size, a `--world` run and an
/// `accuracy_report` backend — must keep parsing to the values they
/// were written with: writing a parsed row back gives the line as
/// ledger version 3 writes it, without version 1's `critical_path` and
/// version 2's `bus_dropped_events`.
#[test]
fn once_tracked_rows_parse_to_what_was_written() {
    let text = include_str!("fixtures/tracked_ledger.jsonl");
    let (rows, skipped) = parse_ledger(text);
    assert_eq!((rows.len(), skipped), (3, 0));
    for (row, line) in rows.iter().zip(text.lines()) {
        let mut want = Value::parse(line).unwrap();
        if let Value::Obj(fields) = &mut want {
            assert!(fields.remove("critical_path").is_some());
            assert!(fields.remove("bus_dropped_events").is_some());
            fields.insert("version".into(), Value::from_u64(3));
        }
        assert_eq!(row.to_json().to_compact(), want.to_compact());
        assert!(row.modeled.is_empty());
    }
    let (size, world, accuracy) = (&rows[0], &rows[1], &rows[2]);
    assert_eq!((size.tool.as_str(), size.label.as_str()), ("profile_step", "nacl-4096"));
    assert_eq!(size.wall_seconds_per_step, 0.23580917413000002);
    assert_eq!((size.raw_tflops, size.effective_tflops), (Some(0.007213785147655909), None));
    // Phase-wall Gflops here, step-wall Gflops on the accuracy row
    // below: same flops, same host, the two pre-PR-22 definitions.
    assert_eq!(size.gflops["real"], 3.1316897856479406);
    assert_eq!(world.label, "nacl-4096-world-2x2");
    assert_eq!((world.phases["host"], world.gflops.len(), world.steps), (0.0, 0, 4));
    assert_eq!(accuracy.tool, "accuracy_report");
    assert_eq!(accuracy.worst_force_error, Some(0.00011744381767115052));
    assert_eq!(accuracy.gflops["real"], 1.7564376062013216);
    assert_eq!(accuracy.gauges["mdg.occupancy"], 0.9931726276060389);
    assert!(accuracy.pressure_supported);
}
