//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! mdm-benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--quick] [--out FILE]
//! mdm-benchmark --all [--repeat R] [the same options]
//! mdm-benchmark compare A.json B.json
//! mdm-benchmark describe            # prints BENCHMARK.json
//! ```
//!
//! A `--workload` run prints every metric by name with its unit and
//! sample count, then — as the last line of standard output — one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. It exits
//! non-zero when a correctness check fails.

mod compare;
mod hostspeed;
mod layers;
mod metrics;
mod pinned;
mod procstat;
mod serve;
mod spans;
mod stats;
mod trajectory;
mod workloads;

use mdm_core::vec3::Vec3;
use mdm_profile::json::{obj, Value};
use metrics::Report;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Workload, BASE_SECONDS, DEFAULT_SEED};

/// What one workload run was asked to do.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
    /// `min(nproc, 4)`, set once through `RAYON_NUM_THREADS`.
    pub threads: usize,
    /// This run's private directory under `benchmark/out/`: spools,
    /// ledgers and checkpoints go here and are removed at exit.
    pub scratch: PathBuf,
}

/// FNV-1a over the bit patterns of the positions: two runs of the same
/// code on the same seed print the same digest.
pub fn fnv1a_positions(positions: &[Vec3]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for p in positions {
        for byte in [p.x, p.y, p.z]
            .iter()
            .flat_map(|c| c.to_bits().to_le_bytes())
        {
            hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `benchmark/out/`, inside the checkout whatever the working directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Cli {
    workload: Option<String>,
    all: bool,
    repeat: u64,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: mdm-benchmark --workload <{}> [--seed S] [--seconds T] [--trace 0|1] [--quick] [--out FILE]\n\
         \x20      mdm-benchmark --all [--repeat R] [--seed S] [--seconds T] [--trace 0|1] [--quick] [--out FILE]\n\
         \x20      mdm-benchmark compare A.json B.json\n\
         \x20      mdm-benchmark describe",
        names.join("|")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        all: false,
        repeat: 1,
        seed: DEFAULT_SEED,
        seconds: BASE_SECONDS,
        trace: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{arg} {v}: not a number"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--all" => cli.all = true,
            "--quick" => cli.quick = true,
            "--repeat" => cli.repeat = number(value()?)?.max(1),
            "--seed" => cli.seed = number(value()?)?,
            "--seconds" => cli.seconds = number(value()?)?.clamp(1, 60),
            "--trace" => cli.trace = number(value()?)? != 0,
            "--out" => cli.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if cli.all == cli.workload.is_some() {
        return Err("give exactly one of --workload NAME and --all".into());
    }
    Ok(cli)
}

/// One run of one workload, in this process.
fn run_workload(workload: Workload, cli: &Cli, threads: usize) -> (Value, bool) {
    let name = workload.name();
    let scratch = out_dir()
        .join("tmp")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("benchmark/out/ is writable");
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        threads,
        scratch: scratch.clone(),
    };
    println!(
        "== {name}: seed {}, {} s, trace {}, threads {threads}, quick: {}",
        args.seed, args.seconds, args.trace as u8, args.quick
    );
    if args.trace {
        spans::enable();
    }
    let sized = if args.quick {
        workload.quick()
    } else {
        workload
    };
    let (mut report, attempted, failed): (Report, u64, u64) = match &sized {
        Workload::Trajectory(spec) => trajectory::run(spec, &args),
        Workload::Serve(spec) => serve::run(spec, &args),
    };
    let _ = std::fs::remove_dir_all(&scratch);

    // Tracing overhead: this traced run against the last untraced run
    // of the same workload and size, whose throughput is on file.
    let rate_file = out_dir().join(format!(
        "{name}{}.untraced",
        if args.quick { ".quick" } else { "" }
    ));
    let steps_per_s = report
        .get("steps_per_s")
        .expect("every workload reports it");
    if args.trace {
        match std::fs::read_to_string(&rate_file)
            .ok()
            .and_then(|s| s.trim().parse::<f64>().ok())
        {
            Some(untraced) if untraced > 0.0 => report.set(
                "trace_overhead_pct",
                100.0 * (untraced - steps_per_s) / untraced,
                1,
            ),
            _ => report.na(
                "trace_overhead_pct",
                "no untraced run of this workload on file yet",
            ),
        }
        let recorded = spans::take();
        let trace_file = out_dir().join(format!("{name}.trace.json"));
        std::fs::write(
            &trace_file,
            spans::chrome_trace(&recorded, name).to_compact(),
        )
        .expect("benchmark/out/ is writable");
        println!(
            "  self time per span (calls, total s, self s) -> {}",
            trace_file.display()
        );
        for (span, (calls, total, own)) in spans::self_times(&recorded) {
            println!("    {span:<40} {calls:>6} {total:>10.4} {own:>10.4}");
        }
    } else {
        std::fs::write(&rate_file, format!("{steps_per_s}\n")).expect("benchmark/out/ is writable");
    }

    report.print(args.trace);
    let result = obj([
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::from_u64(attempted.max(1))),
        ("failed", Value::from_u64(failed)),
        ("metrics", report.metrics_json(args.trace)),
    ]);
    (result, report.correct())
}

/// A result line plus what produced it, for `--out` files.
fn stamped(result: &Value, workload: &str, seed: u64, cli: &Cli) -> Value {
    let mut run = result.clone();
    if let Value::Obj(map) = &mut run {
        map.insert("workload".into(), Value::Str(workload.into()));
        map.insert("seed".into(), Value::from_u64(seed));
        map.insert("seconds".into(), Value::from_u64(cli.seconds));
        map.insert("trace".into(), Value::from_u64(cli.trace as u64));
    }
    run
}

fn write_out(cli: &Cli, threads: usize, runs: Vec<Value>) {
    let Some(path) = &cli.out else { return };
    let env = mdm_profile::ledger::EnvStamp::detect(Path::new(env!("CARGO_MANIFEST_DIR")));
    let doc = obj([
        ("schema", Value::from_u64(1)),
        ("quick", Value::Bool(cli.quick)),
        ("threads", Value::from_u64(threads as u64)),
        ("nproc", Value::from_u64(env.nproc)),
        ("hostname", Value::Str(env.hostname)),
        ("runs", Value::Arr(runs)),
    ]);
    std::fs::write(path, doc.to_pretty()).expect("--out file is writable");
}

/// `--all`: every workload in its own process (so peak memory and CPU
/// time are per workload), one after the other.
fn run_all(cli: &Cli, threads: usize) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut runs = Vec::new();
    let mut ok = true;
    for repeat in 0..cli.repeat {
        let seed = cli.seed + repeat;
        for workload in workloads::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &cli.seconds.to_string()])
                .args(["--trace", if cli.trace { "1" } else { "0" }]);
            if cli.quick {
                cmd.arg("--quick");
            }
            let output = cmd.output().expect("re-execute self");
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            ok &= output.status.success();
            match stdout.lines().last().map(Value::parse) {
                Some(Ok(result)) => runs.push(stamped(&result, workload.name(), seed, cli)),
                _ => {
                    println!("{}: no result line", workload.name());
                    ok = false;
                }
            }
        }
    }
    write_out(cli, threads, runs);
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => match compare::run(a, b) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    if args.first().map(String::as_str) == Some("describe") {
        // What `BENCHMARK.json` at the repo root holds.
        print!("{}", metrics::benchmark_json().to_pretty());
        return ExitCode::SUCCESS;
    }
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    // Before the first parallel region: the worker count is read once.
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let ok = if cli.all {
        run_all(&cli, threads)
    } else {
        let name = cli.workload.as_deref().expect("checked by parse_cli");
        let Some(workload) = Workload::by_name(name) else {
            eprintln!("unknown workload {name:?}\n{}", usage());
            return ExitCode::from(2);
        };
        let (result, ok) = run_workload(workload, &cli, threads);
        write_out(&cli, threads, vec![stamped(&result, name, cli.seed, &cli)]);
        // The result line: last on standard output.
        println!("{}", result.to_compact());
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_fnv1a_of_the_position_bits() {
        assert_eq!(fnv1a_positions(&[]), 0xcbf2_9ce4_8422_2325);
        let a = fnv1a_positions(&[Vec3::new(1.0, 2.0, 3.0)]);
        let b = fnv1a_positions(&[Vec3::new(1.0, 2.0, 3.0 + f64::EPSILON * 4.0)]);
        assert_ne!(a, b);
        assert_eq!(a, fnv1a_positions(&[Vec3::new(1.0, 2.0, 3.0)]));
    }

    #[test]
    fn cli_parses_the_driver_form() {
        let args: Vec<String> = "--workload serve_small --seed 7 --seconds 10 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve_small"));
        assert_eq!(
            (cli.seed, cli.seconds, cli.trace, cli.quick),
            (7, 10, true, false)
        );
        assert!(parse_cli(&["--all".into(), "--workload".into(), "x".into()]).is_err());
        assert!(parse_cli(&[]).is_err());
        assert!(parse_cli(&["--seed".into()]).is_err());
    }
}
