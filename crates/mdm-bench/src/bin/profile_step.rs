//! `profile_step` — measured wall-clock vs modeled hardware time for
//! one emulated MDM step, in the layout of the paper's Table 4.
//!
//! The emulator runs real MD steps through `MdmForceField` with the
//! `mdm-profile` instrumentation live, then puts the measured phase
//! wall-clock (real-space, wavenumber-space, communication, host)
//! beside the time the *actual hardware* would have taken according to
//! the cycle counters — `t_step = max(t_wine, t_mdg) + t_comm + t_host`
//! is exactly the decomposition behind the paper's 43.8 s/step.
//!
//! ```text
//! cargo run --release -p mdm-bench --bin profile_step
//! ```
//!
//! This is the explainer, not the gate: the committed baseline and the
//! regression gate are the repo benchmark (`BENCHMARK.json`,
//! `benchmark/`); each size profiled here is reduced to one run row
//! ([`RunRecord`]) that the table is printed from, and written nowhere.
//!
//! Options:
//! * `--steps K` — steps averaged per size (default 2), after one
//!   untimed warm-up step;
//! * `--cells A,B,C` — rocksalt cells per side (default `4,8,16` →
//!   N = 512, 4,096, 32,768; N = 8·c³);
//! * `--longrange B` — wavenumber backend for the profiled steps:
//!   `wine2` (default, the emulated board), `ewald`, `pme`, or `pswf`.
//!   Non-default backends append `-lr-B` to the report labels;
//! * `--trace FILE` — also write a Chrome trace-event file (open in
//!   Perfetto or `chrome://tracing`) with one track per emulated
//!   device: MDGRAPE-2, WINE-2, comm, host. With `--world`, one
//!   process *group* per rank plus send/recv flow arrows between them;
//!   with several sizes, the per-size timelines are concatenated with
//!   a 1 ms gap;
//! * `--record FILE` — also stream a per-step JSONL flight recording
//!   (manifest + step events with counters, observables, and watchdog
//!   verdicts): the same lines an `mdm_serve` job streams to `mdm_top`,
//!   read after the run instead of during it;
//! * `--world R,W` — profile the §4 simulated-MPI parallel program
//!   instead of the emulated single-host step: `R` real-space ranks ×
//!   `W` wavenumber ranks per force evaluation, `--steps` evaluations.
//!   Spans land on per-rank tracks in `--trace` output, and the step is
//!   printed as Table 4 reads it, `t_step = max(t_real, t_wave) +
//!   t_comm` from the busiest rank of each group, ending with the
//!   phase and the rank that bound it (`bound: wave (rank 3)`).

use mdm_bench::stepprof::{profile_size, profile_world, WorldStep};
use mdm_host::parallel::ParallelConfig;
use mdm_profile::ledger::RunRecord;
use mdm_profile::{phase, Profile, Timeline};
use std::io::Write;

/// Format an emulation slowdown factor (`< 1` means the emulated path
/// is *faster* than the modeled hardware — e.g. memcpy vs a PCI bus).
fn slowdown(ratio: f64) -> String {
    if ratio >= 10.0 {
        format!("{ratio:.0}x")
    } else {
        format!("{ratio:.2}x")
    }
}

/// The measured / modeled / slowdown table of one size, read from its
/// ledger row (the counters line from the profile the row reduced), and
/// what the set-up's energy step spent on top of a force-only step; a
/// `--world` size ends with its [`WorldStep`] decomposition instead.
fn print_report(
    row: &RunRecord,
    profile: &Profile,
    energy_step: &Profile,
    world: Option<&WorldStep>,
) {
    println!(
        "== {} (N = {}, {} step{} averaged) ==",
        row.label,
        row.n_particles,
        row.steps,
        if row.steps == 1 { "" } else { "s" }
    );
    println!(
        "  {:<12} {:>18} {:>18} {:>12}",
        "phase", "measured [s/step]", "modeled [s/step]", "slowdown"
    );
    let table4 = [phase::REAL, phase::WAVE, phase::COMM, phase::HOST];
    let measured = |name: &str| row.phases.get(name).copied().unwrap_or(0.0);
    // No cycle counters to model from (e.g. --world runs the software
    // kernels): measured column only.
    let versus = |measured: f64, modeled: Option<f64>| match modeled {
        Some(modeled) if modeled > 0.0 => (mdm_bench::sci(modeled), slowdown(measured / modeled)),
        _ => ("-".to_string(), "-".to_string()),
    };
    for name in table4 {
        let (modeled, ratio) = versus(measured(name), row.modeled.get(name).copied());
        println!(
            "  {:<12} {:>18} {:>18} {:>12}",
            name,
            mdm_bench::sci(measured(name)),
            modeled,
            ratio
        );
    }
    if world.is_none() {
        let phase_sum: f64 = table4.into_iter().map(measured).sum();
        println!(
            "  {:<12} {:>18}   (coverage {:.1}% of wall step)",
            "sum(phases)",
            mdm_bench::sci(phase_sum),
            100.0 * phase_sum / row.wall_seconds_per_step
        );
    }
    let (modeled, ratio) = versus(row.wall_seconds_per_step, row.modeled_step_seconds());
    println!(
        "  {:<12} {:>18} {:>18} {:>12}   [t = max(wave, real) + comm + host]",
        "t_step",
        mdm_bench::sci(row.wall_seconds_per_step),
        modeled,
        ratio
    );
    let c = |k: &str| profile.counters.get(k).copied().unwrap_or(0);
    let counted = ["mdg_pair_ops", "wine_dft_ops", "wine_idft_ops", "mdg_cycles", "wine_cycles"];
    if counted.into_iter().any(|k| c(k) > 0) {
        println!(
            "  counters: {} pair ops, {} DFT + {} IDFT ops, {} MDG / {} WINE cycles",
            c("mdg_pair_ops"),
            c("wine_dft_ops"),
            c("wine_idft_ops"),
            c("mdg_cycles"),
            c("wine_cycles")
        );
    }
    if !row.gflops.is_empty() {
        let parts: Vec<String> = row
            .gflops
            .iter()
            .map(|(phase, g)| format!("{phase} {g:.3}"))
            .collect();
        println!(
            "  measured throughput [Gflops, paper flop credits]: {}",
            parts.join(", ")
        );
    }
    // The window holds force-only steps; the energy passes and the host
    // virial of the set-up's evaluation are what every
    // `potential_interval`-th step pays besides.
    let parts: Vec<String> = ["real.potential", "host.virial"]
        .into_iter()
        .filter(|path| energy_step.spans.contains_key(*path))
        .map(|path| format!("{path} {}", mdm_bench::sci(energy_step.seconds(path))))
        .collect();
    if !parts.is_empty() {
        println!(
            "  an energy step adds [s, from the set-up pass]: {}",
            parts.join(", ")
        );
    }
    if let Some(step) = world {
        let sci = mdm_bench::sci;
        let (bound, rank) = step.bound();
        println!(
            "  t_step = max(t_real, t_wave) + t_comm = max({}, {}) + {} = {} [s/step]",
            sci(step.real.0),
            sci(step.wave.0),
            sci(step.comm),
            sci(step.real.0.max(step.wave.0) + step.comm)
        );
        println!("  bound: {bound} (rank {rank})");
    }
    println!();
}

/// Concatenate per-size timelines into one trace, each size shifted
/// past the previous one with a 1 ms gap so the sizes stay visually
/// distinct in Perfetto.
fn merge_timelines(timelines: Vec<Timeline>) -> Timeline {
    let mut merged = Timeline::default();
    let mut offset = 0.0f64;
    for timeline in timelines {
        let mut end = 0.0f64;
        for e in &timeline.events {
            end = end.max(e.start_us + e.dur_us);
        }
        for c in &timeline.counters {
            end = end.max(c.ts_us);
        }
        for f in &timeline.flows {
            end = end.max(f.ts_us);
        }
        merged.events.extend(timeline.events.into_iter().map(|mut e| {
            e.start_us += offset;
            e
        }));
        merged
            .counters
            .extend(timeline.counters.into_iter().map(|mut c| {
                c.ts_us += offset;
                c
            }));
        merged.flows.extend(timeline.flows.into_iter().map(|mut f| {
            f.ts_us += offset;
            f
        }));
        offset += end + 1000.0;
    }
    merged
}

fn main() {
    let mut steps: u64 = 2;
    let mut cells: Vec<usize> = vec![4, 8, 16];
    let mut longrange = "wine2".to_string();
    let mut trace_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut world: Option<ParallelConfig> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--steps" => {
                steps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--steps needs a positive integer");
                assert!(steps >= 1, "--steps needs a positive integer");
            }
            "--cells" => {
                cells = args
                    .next()
                    .expect("--cells needs a comma-separated list")
                    .split(',')
                    .map(|v| v.parse().expect("cells must be integers"))
                    .collect();
            }
            "--longrange" => {
                longrange = args.next().expect("--longrange needs a backend name");
                assert!(
                    mdm_host::LONGRANGE_BACKENDS.contains(&longrange.as_str()),
                    "unknown backend {longrange:?} (known: {:?})",
                    mdm_host::LONGRANGE_BACKENDS
                );
            }
            "--trace" => {
                trace_path = Some(args.next().expect("--trace needs an output path"));
            }
            "--record" => {
                record_path = Some(args.next().expect("--record needs an output path"));
            }
            "--world" => {
                let spec = args.next().expect("--world needs R,W (ranks)");
                let (r, w) = spec
                    .split_once(',')
                    .and_then(|(r, w)| Some((r.parse().ok()?, w.parse().ok()?)))
                    .expect("--world needs R,W, e.g. --world 2,2");
                assert!(r >= 1 && w >= 1, "--world needs at least one rank per part");
                world = Some(ParallelConfig {
                    real_processes: r,
                    wave_processes: w,
                });
            }
            other => panic!(
                "unknown option {other:?} (try --steps, --cells, --longrange, --trace, --record, --world)"
            ),
        }
    }

    // The JSONL flight recorder appends every size's manifest+steps to
    // one file; a reader splits runs on the manifest lines.
    let mut recorder_sink = record_path.as_ref().map(|path| {
        std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("create {path}: {e}"))
    });

    if world.is_some() {
        assert!(
            recorder_sink.is_none(),
            "--world profiles the parallel program; it has no per-step stream (--record)"
        );
    }

    // One timeline per size: a `--world` run always records
    // its own (its step is read from the ranks' spans), the emulated
    // step only for `--trace`.
    let mut timelines: Vec<Timeline> = Vec::new();
    let mut results = Vec::new();
    for &c in &cells {
        eprintln!(
            "profiling {} particles ({c} cells per side, longrange={longrange})...",
            8 * c * c * c
        );
        results.push(match world {
            Some(config) => {
                let (row, profile, step, timeline) = profile_world(c, steps, config);
                timelines.push(timeline);
                (row, profile, Profile::default(), Some(step))
            }
            None => {
                if trace_path.is_some() {
                    mdm_profile::timeline_start();
                }
                let sink: Box<dyn Write> = match recorder_sink.as_mut() {
                    Some(file) => Box::new(file),
                    None => Box::new(std::io::sink()),
                };
                let (row, profile, energy_step) =
                    profile_size(c, steps, &longrange, sink).expect("write flight recording");
                if trace_path.is_some() {
                    timelines.push(mdm_profile::timeline_stop());
                }
                (row, profile, energy_step, None)
            }
        });
    }

    if let Some(path) = &trace_path {
        let timeline = merge_timelines(timelines);
        let trace = mdm_profile::trace::chrome_trace(&timeline);
        std::fs::write(path, trace.to_pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!(
            "wrote {path} ({} events, {} flow endpoints; open in Perfetto / chrome://tracing)",
            timeline.events.len(),
            timeline.flows.len()
        );
    }
    if let Some(path) = &record_path {
        eprintln!("wrote {path} (JSONL flight recording)");
    }

    println!("MDM emulated step: measured wall-clock vs modeled hardware time");
    println!("(Table 4 decomposition; the slowdown column is the emulation cost)");
    println!();
    for (row, profile, energy_step, step) in results {
        print_report(&row, &profile, &energy_step, step.as_ref());
    }
}
