//! The metric registry — the single source of truth that
//! `BENCHMARK.json` mirrors (a unit test keeps the two in step) — and
//! the report a workload fills in.

use mdm_profile::json::{obj, Value};
use std::collections::BTreeMap;

/// Which way is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Every workload reports all of these, from a run with tracing off.
///
/// The bounds are what the 2-vCPU baseline host allows, not what one
/// would wish for: its speed wanders (see `hostspeed.rs`), and sets of
/// ten runs of the same code had quartile spreads of 3–17 % in the
/// timing metrics, so those sit at the largest bound a benchmark may
/// have. Memory repeats to half a percent. `force_err_rel` is exact for
/// a seed but reads another molten configuration for every seed
/// (spread up to 14 %); its hard limit is [`FORCE_ERR_CEILING`].
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "step_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_p50_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s_per_step",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "force_err_rel",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
    },
];

/// Hard ceiling on `force_err_rel`, whatever the parent measured: the
/// repo's accuracy gate.
pub const FORCE_ERR_CEILING: f64 = 1e-3;

/// A per-layer metric: one rung of the ladder.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric and workload this rung should move.
    pub moves: &'static str,
}

const fn rung(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

const REAL: &str = "steps_per_s on faithful_8k (large share), mesh_pswf_4k (small share)";
const WAVE: &str = "steps_per_s on faithful_8k and serve_long";
const MESH: &str = "steps_per_s on mesh_pswf_4k only";
const SLICE: &str = "steps_per_s on serve_small";
const SETUP: &str = "setup_s everywhere; steps_per_s on serve_small";
const LEASE: &str =
    "steps_per_s on serve_long and serve_small; no change on the trajectory workloads";
const SERVE: &str = "steps_per_s and job_p50_s on serve_small and serve_long";
const COUNT: &str = "simulated count: an emulator speed-up must leave it bit-identical";

/// The ladder, outside in. The layer is the prefix before the dot.
pub const PER_LAYER: &[PerLayer] = &[
    rung("mdm-funceval.eval_batch_ns_per_elem", "ns", L, REAL),
    rung("mdgrape2.interact_cell_ns_per_pair", "ns", L, REAL),
    rung("mdgrape2.interact_cell_potential_ns_per_pair", "ns", L, "steps_per_s on serve_small and serve_long (energy passes every step)"),
    rung("mdgrape2.force_pass_ns_per_pair", "ns", L, REAL),
    rung("mdgrape2.potential_pass_ns_per_pair", "ns", L, "steps_per_s on serve_small and serve_long (energy passes every step)"),
    rung("mdgrape2.n3l_pass_ns_per_pair", "ns", L, "none: the N3L mode is on no end-to-end path"),
    rung("mdgrape2.jstore_build_s", "s", L, SETUP),
    rung("mdgrape2.jstore_refresh_s", "s", L, REAL),
    rung("mdgrape2.system_new_s", "s", L, SLICE),
    rung("mdgrape2.pair_ops_per_step", "count", L, COUNT),
    rung("mdgrape2.cycles_per_step", "count", L, COUNT),
    rung("mdgrape2.occupancy", "ratio", H, COUNT),
    rung("mdgrape2.mean_cell_occupancy", "count", H, COUNT),
    rung("mdgrape2.jstore_upload_bytes", "count", L, COUNT),
    rung("mdgrape2.host_ns_per_cycle", "ns", L, REAL),
    rung("wine2.wavepart_s", "s", L, WAVE),
    rung("wine2.ns_per_wave_op", "ns", L, WAVE),
    rung("wine2.system_new_s", "s", L, SLICE),
    rung("wine2.dft_ops_per_step", "count", L, COUNT),
    rung("wine2.idft_ops_per_step", "count", L, COUNT),
    rung("wine2.cycles_per_step", "count", L, COUNT),
    rung("wine2.waves", "count", L, COUNT),
    rung("wine2.host_ns_per_cycle", "ns", L, WAVE),
    rung("mdm-core.pswf_compute_s", "s", L, MESH),
    rung("mdm-core.pswf_first_call_s", "s", L, "setup_s on mesh_pswf_4k"),
    rung("mdm-core.pme_compute_s", "s", L, "none: the comparison mesh backend, on no end-to-end path"),
    rung("mdm-core.pswf_flops_per_step", "count", L, COUNT),
    rung("mdm-core.celllist_build_s", "s", L, REAL),
    rung("mdm-core.step_minus_force_s", "s", L, "step_p50_s everywhere (integrator share)"),
    rung("mdm-core.checkpoint_capture_s", "s", L, SLICE),
    rung("mdm-core.checkpoint_write_s", "s", L, SLICE),
    rung("mdm-core.checkpoint_load_s", "s", L, SLICE),
    rung("mdm-core.checkpoint_resume_s", "s", L, SLICE),
    rung("mdm-core.checkpoint_bytes", "count", L, SLICE),
    rung("mdm-host.compute_s", "s", L, "step_p50_s on the trajectory workloads"),
    rung("mdm-host.compute_potential_s", "s", L, "step_p50_s on serve_small and serve_long; setup_s on the trajectory workloads"),
    rung("mdm-host.phase_real_s", "s", L, REAL),
    rung("mdm-host.phase_wave_s", "s", L, "steps_per_s on faithful_8k, mesh_pswf_4k and serve_long"),
    rung("mdm-host.phase_comm_s", "s", L, "step_p50_s everywhere (table and coefficient uploads)"),
    rung("mdm-host.phase_host_s", "s", L, "step_p50_s everywhere (j-store refresh, virial on energy steps)"),
    rung("mdm-host.phase_unattributed_s", "s", L, "none: step wall no phase span covers; above 5 % the ladder is missing a rung"),
    rung("mdm-host.tables_build_s", "s", L, SETUP),
    rung("mdm-host.ff_build_s", "s", L, SETUP),
    rung("mdm-host.sim_new_s", "s", L, SETUP),
    rung("mdm-host.run_loop_overhead_s", "s", L, LEASE),
    rung("mdm-host.step_1thread_s", "s", L, "none: the plain single-threaded baseline"),
    rung("mdm-host.parallel_speedup", "x", H, "steps_per_s against cpu_s_per_step on every workload"),
    rung("mdm-host.modeled_step_s", "s", L, COUNT),
    rung("mdm-host.slowdown_x", "x", L, "steps_per_s on the trajectory workloads"),
    rung("mdm-profile.span_ns", "ns", L, LEASE),
    rung("mdm-profile.span_ns_contended", "ns", L, LEASE),
    rung("mdm-profile.counter_ns", "ns", L, LEASE),
    rung("mdm-profile.take_ns", "ns", L, LEASE),
    rung("mdm-profile.step_event_encode_ns", "ns", L, LEASE),
    rung("mdm-profile.json_parse_ns_per_byte", "ns", L, SLICE),
    rung("mdm-serve.submit_ms_p50", "ms", L, "job_p50_s on serve_small"),
    rung("mdm-serve.list_ms_p50", "ms", L, "job_p50_s on serve_small"),
    rung("mdm-serve.queue_wait_p50_s", "s", L, "job_p50_s on serve_small and serve_long"),
    rung("mdm-serve.slices", "count", L, COUNT),
    rung("mdm-serve.rejects", "count", L, "ok_share on the serve workloads"),
    rung("mdm-serve.failed_jobs", "count", L, "ok_share on the serve workloads"),
    rung("mdm-serve.upload_bytes_per_step", "count", L, COUNT),
    rung("mdm-serve.step_share", "ratio", L, SERVE),
    rung("mdm-serve.non_step_s_per_slice", "s", L, SLICE),
    rung("mdm-serve.slice_replay_s", "s", L, SERVE),
    rung("mdm-serve.recover_s", "s", L, "setup_s on the serve workloads"),
    rung("mdm-serve.boards1_steps_per_s", "1/s", H, SERVE),
    rung("mdm-serve.board_scaling_x", "x", H, SERVE),
    rung("mdm-serve.makespan_model_ratio", "ratio", H, "none: replayed-slice model of the makespan over the observed one; outside 0.85–1.15 the ladder is missing a rung"),
    rung("trace_overhead_pct", "%", L, "none: traced against untraced steps_per_s of the same workload"),
];

/// The content of `BENCHMARK.json`: this registry, the workloads, and
/// the command that runs one of them.
pub fn benchmark_json() -> Value {
    let text = |s: &str| Value::Str(s.to_string());
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        (
            "command",
            Value::Arr(command.iter().map(|s| text(s)).collect()),
        ),
        ("paths", Value::Arr(vec![text("benchmark")])),
        (
            "run_seconds",
            Value::from_u64(crate::workloads::BASE_SECONDS),
        ),
        (
            "workloads",
            Value::Arr(
                crate::workloads::ALL
                    .iter()
                    .map(|w| obj([("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Reading {
    pub value: f64,
    /// Samples behind the value (calls, steps, jobs).
    pub samples: usize,
    /// Why the value is `n/a` on this workload (it then reads 0).
    pub na: Option<&'static str>,
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Report {
    readings: BTreeMap<&'static str, Reading>,
    /// Failed correctness checks; any entry fails the command.
    pub failures: Vec<String>,
    /// Diagnostics printed but never compared (per-step maximum, the
    /// position digest, reconciliation notes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.readings.insert(
            name,
            Reading {
                value,
                samples,
                na: None,
            },
        );
    }

    /// Mark a metric as not on this workload's path. It reads 0 (the
    /// layer did no work here) and prints as `n/a` with the reason.
    pub fn na(&mut self, name: &'static str, reason: &'static str) {
        self.readings.insert(
            name,
            Reading {
                value: 0.0,
                samples: 0,
                na: Some(reason),
            },
        );
    }

    /// Mark every metric of `layer` that has no reading yet as `n/a`.
    pub fn na_layer(&mut self, layer: &str, reason: &'static str) {
        for m in PER_LAYER {
            if m.name.split('.').next() == Some(layer) && !self.readings.contains_key(m.name) {
                self.na(m.name, reason);
            }
        }
    }

    /// Mark every per-layer metric that has no reading yet as `n/a` —
    /// for a run that failed before its ladder could be built.
    pub fn na_rest(&mut self, reason: &'static str) {
        for m in PER_LAYER {
            if !self.readings.contains_key(m.name) {
                self.na(m.name, reason);
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.readings.get(name).map(|r| r.value)
    }

    /// Record a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// `(name, unit, better, what it should move, reading)` of every
    /// metric of the mode, in registry order.
    fn rows(
        &self,
        traced: bool,
    ) -> Vec<(&'static str, &'static str, Better, &'static str, &Reading)> {
        let defs: Vec<(&'static str, &'static str, Better, &'static str)> = if traced {
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, m.better, m.moves))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better, ""))
                .collect()
        };
        defs.into_iter()
            .map(|(name, unit, better, moves)| {
                let reading = self
                    .readings
                    .get(name)
                    .unwrap_or_else(|| panic!("harness bug: metric {name} was never measured"));
                (name, unit, better, moves, reading)
            })
            .collect()
    }

    /// Human-readable table: every metric by name, with unit and
    /// sample count.
    pub fn print(&self, traced: bool) {
        for (name, unit, better, moves, r) in self.rows(traced) {
            match r.na {
                Some(reason) => println!("  {name:<46} {:>14} {unit:<6} {reason}", "n/a"),
                None => {
                    let value = fmt_value(r.value);
                    let (n, better) = (r.samples, better.as_str());
                    let moves = if moves.is_empty() {
                        String::new()
                    } else {
                        format!(" -> {moves}")
                    };
                    println!(
                        "  {name:<46} {value:>14} {unit:<6} n={n:<5} {better} is better{moves}"
                    );
                }
            }
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        for failure in &self.failures {
            println!("  FAILED CHECK: {failure}");
        }
    }

    /// The `metrics` object of the result line.
    pub fn metrics_json(&self, traced: bool) -> Value {
        Value::Obj(
            self.rows(traced)
                .into_iter()
                .map(|(name, unit, _, _, r)| {
                    (
                        name.to_string(),
                        obj([
                            ("value", Value::from_f64(r.value)),
                            ("unit", Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

/// Enough digits to compare runs by eye; the JSON carries them all.
pub fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        // Counts keep every digit: they are compared exactly.
        format!("{v:.0}")
    } else if (1e-3..1e7).contains(&v.abs()) {
        let s = format!("{v:.6}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        format!("{v:.4e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert_eq!(END_TO_END.len(), 8);
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` at the repo root is `mdm-benchmark describe`.
    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc,
            benchmark_json(),
            "regenerate with `mdm-benchmark describe`"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn report_na_reads_zero_and_checks_fail_the_run() {
        let mut r = Report::default();
        r.set("wine2.waves", 12.0, 1);
        r.na_layer("wine2", "not on this path");
        assert_eq!(r.get("wine2.waves"), Some(12.0));
        assert_eq!(r.get("wine2.wavepart_s"), Some(0.0));
        assert!(r.correct());
        r.check(false, || "boom".into());
        assert!(!r.correct());
    }

    #[test]
    fn values_format_compactly() {
        assert_eq!(fmt_value(0.0), "0");
        assert_eq!(fmt_value(107970896.0), "107970896");
        assert_eq!(fmt_value(1.5), "1.5");
        assert_eq!(fmt_value(0.001234567), "0.001235");
        assert_eq!(fmt_value(1.2e-5), "1.2000e-5");
    }
}
