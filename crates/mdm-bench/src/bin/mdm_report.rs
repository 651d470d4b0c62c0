//! `mdm_report` — the cross-run regression dashboard.
//!
//! Reads the run ledger (`results/ledger.jsonl`, one line per
//! bench/instrumented invocation *in this checkout* — the file is not
//! tracked), renders the dashboard, and exits non-zero when the latest
//! run of any `tool:label` group is slower than its trailing median by
//! more than the tolerance (see `mdm_bench::dashboard` for the rule
//! and its minimum-history guard). It explains a trend; it is not a
//! gate — the repo benchmark's `compare` is the only perf gate.
//!
//! ```text
//! cargo run --release -p mdm-bench --bin mdm_report                 # markdown to stdout
//! cargo run --release -p mdm-bench --bin mdm_report -- \
//!     --out dashboard.md --html dashboard.html                      # CI artifacts
//! ```
//!
//! Options:
//! * `--ledger PATH` — ledger file (default: where the bench binaries
//!   append, `results/ledger.jsonl` at the repo root or `MDM_LEDGER`;
//!   missing file = empty ledger, which renders and passes);
//! * `--out PATH` — write the markdown dashboard to a file instead of
//!   stdout;
//! * `--html PATH` — also write a standalone HTML rendering;
//! * `--tolerance F` — regression tolerance as a fraction (default
//!   0.5 = 50% over the trailing median);
//! * `--window K` — trailing runs the median is taken over (default 10).

use mdm_bench::dashboard::{Dashboard, DEFAULT_TOLERANCE, DEFAULT_WINDOW};

fn main() {
    let mut ledger_path = mdm_bench::stepprof::default_ledger_path();
    let mut out_path: Option<String> = None;
    let mut html_path: Option<String> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut window = DEFAULT_WINDOW;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ledger" => ledger_path = args.next().expect("--ledger needs a path").into(),
            "--out" => out_path = Some(args.next().expect("--out needs a path")),
            "--html" => html_path = Some(args.next().expect("--html needs a path")),
            "--tolerance" => {
                tolerance = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--tolerance needs a fraction (e.g. 0.5)");
                assert!(tolerance >= 0.0, "--tolerance must be non-negative");
            }
            "--window" => {
                window = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--window needs a positive integer");
                assert!(window >= 1, "--window needs a positive integer");
            }
            other => panic!(
                "unknown option {other:?} (try --ledger, --out, --html, --tolerance, --window)"
            ),
        }
    }

    let (records, skipped) = mdm_profile::ledger::read_ledger(&ledger_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", ledger_path.display()));

    let dash = Dashboard::build(&records, skipped, tolerance, window);
    let markdown = dash.to_markdown();
    match &out_path {
        Some(path) => {
            std::fs::write(path, &markdown).unwrap_or_else(|e| panic!("write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        None => print!("{markdown}"),
    }
    if let Some(path) = &html_path {
        std::fs::write(path, dash.to_html()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }

    if dash.has_regressions() {
        for g in dash.regressions() {
            eprintln!(
                "REGRESSION {}: {:.3e} s/step vs trailing median {:.3e} ({:+.1}%, tolerance {:.0}%)",
                g.key,
                g.latest.wall_seconds_per_step,
                g.median_prior.unwrap_or(f64::NAN),
                (g.ratio.unwrap_or(1.0) - 1.0) * 100.0,
                tolerance * 100.0
            );
        }
        std::process::exit(1);
    }
    eprintln!(
        "no regressions ({} groups, {} rows, tolerance {:.0}%)",
        dash.groups.len(),
        dash.total_rows,
        tolerance * 100.0
    );
}
