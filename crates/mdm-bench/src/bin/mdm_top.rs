//! `mdm_top` — live terminal viewer for one job of an `mdm_serve`
//! daemon.
//!
//! Opens the job's watch stream (`mdm_serve::Client::watch`: the job's
//! manifest line and then one JSONL step event per completed step,
//! ending with a `done` trailer) and renders a refreshing dashboard:
//! step rate, per-device occupancy gauges, the worst probed force
//! error, watchdog status, and the bus drop counter (how many events
//! slow viewers — including this one — have cost so far).
//!
//! ```text
//! cargo run --release -p mdm-serve --bin mdm_serve -- --spool /tmp/spool &
//! cargo run --release -p mdm-bench --bin mdm_submit -- submit --job melt-1 --cells 4 --steps 400
//! cargo run --release -p mdm-bench --bin mdm_top -- melt-1
//! ```
//!
//! Usage: `mdm_top [--addr HOST:PORT] JOB [--once] [--retry-seconds S]`.
//! * `--addr HOST:PORT` — the daemon (default `127.0.0.1:7980`, the
//!   address `mdm_serve` and `mdm_submit` default to);
//! * `--once` — wait for the manifest and the first step event, print
//!   one snapshot without any screen control, and exit 0 (for scripts
//!   and CI smoke tests); a job that has already finished prints its
//!   manifest view and "job J done, no step streamed", and exits 0 too.
//!   Without it, the view refreshes in place on every step until the
//!   stream ends;
//! * `--retry-seconds S` — keep retrying the connection for S seconds
//!   before giving up (default 30; the daemon may still be starting
//!   when the viewer does).
//!
//! A `profile_step` run is not served; its `--record FILE` holds the
//! same lines, to be read after the run.
//!
//! Exit codes: 0 on a clean stream end (a finished job's included),
//! 1 if `--once` saw the stream end with no step and no trailer,
//! 2 on a connection or watch failure, a mid-stream error, or
//! malformed JSONL, 3 if the job's trailer says it ended in a state
//! other than `done` (the stream-following rules live in
//! `mdm_bench::topview`).

use mdm_bench::topview::{follow, StreamError};
use mdm_serve::Client;
use std::ops::ControlFlow;
use std::time::Duration;

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("mdm_top: {message}");
    std::process::exit(2)
}

fn main() {
    let mut addr = "127.0.0.1:7980".to_string();
    let mut job: Option<String> = None;
    let mut once = false;
    let mut retry_seconds = 30u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_else(|| fail("--addr needs host:port")),
            "--once" => once = true,
            "--retry-seconds" => {
                retry_seconds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--retry-seconds needs an integer"));
            }
            other if !other.starts_with("--") && job.is_none() => job = Some(other.to_string()),
            other => fail(format_args!(
                "unexpected argument {other:?} (usage: mdm_top [--addr HOST:PORT] JOB [--once] [--retry-seconds S])"
            )),
        }
    }
    let job = job.unwrap_or_else(|| fail("which job? (usage: mdm_top [--addr HOST:PORT] JOB ...)"));

    let client = Client::connect_with_retry(&addr, Duration::from_secs(retry_seconds))
        .unwrap_or_else(|e| fail(format_args!("connect {addr}: {e} (is mdm_serve up?)")));
    let stream = client
        .watch(&job)
        .unwrap_or_else(|e| fail(format_args!("watch {job}: {e}")));
    let result = follow(stream, |view| {
        if once {
            print!("{}", view.render());
            return ControlFlow::Break(());
        }
        // Clear + home, repaint in place.
        print!("\x1b[2J\x1b[H{}", view.render());
        use std::io::Write;
        let _ = std::io::stdout().flush();
        ControlFlow::Continue(())
    });
    match result {
        // `follow` ends clean with no step only on a `done` trailer: the
        // job finished before this viewer attached.
        Ok(view) if view.steps_seen() == 0 => {
            print!("{}", view.render());
            println!("mdm_top: job {job} done, no step streamed");
        }
        Ok(view) => {
            if !once {
                println!("\nmdm_top: stream ended ({} steps seen)", view.steps_seen());
            }
        }
        Err(StreamError::EndedEarly) if once => {
            eprintln!("mdm_top: stream ended before the first step event");
            std::process::exit(1);
        }
        Err(StreamError::JobEnded(state)) => {
            eprintln!("mdm_top: job {job} ended {}", state.as_str());
            std::process::exit(3);
        }
        Err(e) => fail(e),
    }
}
