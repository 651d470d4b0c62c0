//! Stream-following core of `mdm_top`, split out so it can be driven
//! by unit tests against scripted readers and fake servers.
//!
//! [`follow`] consumes the lines of an `mdm_serve` job's watch stream
//! (`mdm_serve::Client::watch`: the job's manifest and step lines, then
//! a `done` trailer) and folds them into a [`View`]. Stream pathologies
//! are *typed*, not swallowed:
//!
//! * an I/O error mid-stream → [`StreamError::Io`];
//! * a line that is not valid JSON (truncated by a dying server,
//!   garbage on the port), or a `manifest` / `step` line whose fields do
//!   not parse → [`StreamError::Malformed`] with the line number and a
//!   snippet — the framing or the schema is gone, so we stop rather
//!   than resynchronize on guesswork;
//! * the server closing before the first step event →
//!   [`StreamError::EndedEarly`];
//! * a `{"type":"done"}` trailer whose `state` is not `done` (the job
//!   failed) → [`StreamError::JobEnded`] with that state;
//! * EOF after at least one step, or a trailer with `"state":"done"` →
//!   clean end.

use mdm_profile::events::{RunManifest, StepEvent};
use mdm_profile::json::Value;
use mdm_serve::JobState;
use std::io;
use std::ops::ControlFlow;

/// Rolling view of the stream: the newest step plus run aggregates.
#[derive(Default)]
pub struct View {
    manifest: Option<RunManifest>,
    last: Option<StepEvent>,
    steps_seen: u64,
    violations_seen: u64,
    last_violation: Option<String>,
    worst_force_error: Option<f64>,
}

impl View {
    pub fn absorb_manifest(&mut self, manifest: RunManifest) {
        self.manifest = Some(manifest);
    }

    pub fn absorb_step(&mut self, event: StepEvent) {
        self.steps_seen += 1;
        self.violations_seen += event.violations.len() as u64;
        if let Some(v) = event.violations.last() {
            self.last_violation = Some(v.display_message());
        }
        if let Some(&err) = event.observables.get("force_error_rel") {
            let worst = self.worst_force_error.get_or_insert(err);
            *worst = worst.max(err);
        }
        self.last = Some(event);
    }

    pub fn steps_seen(&self) -> u64 {
        self.steps_seen
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        match &self.manifest {
            Some(m) => out.push_str(&format!(
                "mdm_top — {} (N = {}, dt = {} fs)  [{}]\n",
                m.label, m.n_particles, m.dt_fs, m.forcefield
            )),
            None => out.push_str("mdm_top — waiting for manifest...\n"),
        }
        let Some(event) = &self.last else {
            out.push_str("no steps yet\n");
            return out;
        };
        if event.wall_seconds > 0.0 {
            out.push_str(&format!(
                "step {}: {:.3} s/step ({:.2} steps/s), {} seen this session\n",
                event.step,
                event.wall_seconds,
                1.0 / event.wall_seconds,
                self.steps_seen
            ));
        } else {
            out.push_str(&format!("step {}\n", event.step));
        }
        if let Some(&t) = event.observables.get("temperature_k") {
            let energy = event
                .observables
                .get("total_ev")
                .map(|e| format!(", E = {e:.3} eV"))
                .unwrap_or_default();
            out.push_str(&format!("temperature {t:.1} K{energy}\n"));
        }
        if self.violations_seen == 0 {
            out.push_str("watchdog: OK (0 violations)\n");
        } else {
            out.push_str(&format!(
                "watchdog: {} violation(s); last: {}\n",
                self.violations_seen,
                self.last_violation.as_deref().unwrap_or("?")
            ));
        }
        match self.worst_force_error {
            Some(err) => out.push_str(&format!("worst probed force error: {err:.2e}\n")),
            None => out.push_str("worst probed force error: (no probe reading yet)\n"),
        }
        if !event.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &event.gauges {
                out.push_str(&format!("  {:<20} {:>7.3} {}\n", name, value, bar(*value)));
            }
        }
        out
    }
}

/// A 20-cell occupancy bar for a 0..=1 gauge (clamped).
pub fn bar(value: f64) -> String {
    let cells = 20usize;
    let filled = ((value.clamp(0.0, 1.0) * cells as f64).round() as usize).min(cells);
    format!("|{}{}|", "#".repeat(filled), ".".repeat(cells - filled))
}

/// Why a telemetry stream stopped being followable.
#[derive(Debug)]
pub enum StreamError {
    /// The connection died mid-read (reset, timeout, …).
    Io(std::io::Error),
    /// A line was not valid JSON, or a manifest / step line whose fields
    /// did not parse: nothing after it can be trusted either.
    Malformed { lineno: u64, snippet: String },
    /// The server closed the stream before the first step event — the
    /// run never got going from this viewer's perspective.
    EndedEarly,
    /// The job's trailer gave a final state other than `done`.
    JobEnded(JobState),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream error: {e}"),
            StreamError::Malformed { lineno, snippet } => {
                write!(f, "malformed JSONL at line {lineno}: {snippet:?}")
            }
            StreamError::EndedEarly => {
                write!(f, "server closed the stream before the first step event")
            }
            StreamError::JobEnded(state) => write!(f, "the job ended {}", state.as_str()),
        }
    }
}

impl std::error::Error for StreamError {}

/// Follow a telemetry stream's lines to their end, calling `on_step`
/// after each absorbed step event (return [`ControlFlow::Break`] to
/// stop early, e.g. for `--once`). Returns the final view on a clean
/// end.
pub fn follow(
    lines: impl IntoIterator<Item = io::Result<String>>,
    mut on_step: impl FnMut(&View) -> ControlFlow<()>,
) -> Result<View, StreamError> {
    let mut view = View::default();
    for (lineno, line) in (1u64..).zip(lines) {
        let line = line.map_err(StreamError::Io)?;
        if line.trim().is_empty() {
            continue;
        }
        let malformed = || StreamError::Malformed {
            lineno,
            snippet: line.chars().take(80).collect(),
        };
        let value = Value::parse(&line).map_err(|_| malformed())?;
        match value.opt_str("type") {
            Some("manifest") => {
                view.absorb_manifest(RunManifest::from_json(&value).map_err(|_| malformed())?);
            }
            Some("step") => {
                view.absorb_step(StepEvent::from_json(&value).map_err(|_| malformed())?);
                if on_step(&view).is_break() {
                    return Ok(view);
                }
            }
            // An mdm_serve watch ends with a done trailer carrying the
            // job's final state: a clean end for a finished job, even if
            // it produced no steps for this viewer.
            Some("done") => {
                let state = value.opt_str("state").map(JobState::parse);
                return match state.ok_or_else(malformed)?.map_err(|_| malformed())? {
                    JobState::Done => Ok(view),
                    other => Err(StreamError::JobEnded(other)),
                };
            }
            _ => {}
        }
    }
    if view.steps_seen == 0 {
        return Err(StreamError::EndedEarly);
    }
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Cursor};

    fn manifest_line() -> String {
        RunManifest {
            label: "t".into(),
            n_particles: 64,
            ..RunManifest::default()
        }
        .to_json()
        .to_compact()
    }

    fn step_line(step: u64) -> String {
        StepEvent {
            step,
            wall_seconds: 0.01,
            ..StepEvent::default()
        }
        .to_json()
        .to_compact()
    }

    fn keep_going(_: &View) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }

    #[test]
    fn clean_stream_counts_steps() {
        let text = format!("{}\n{}\n{}\n", manifest_line(), step_line(0), step_line(1));
        let view = follow(Cursor::new(text).lines(), keep_going).unwrap();
        assert_eq!(view.steps_seen(), 2);
        assert!(view.render().contains("mdm_top — t"));
    }

    #[test]
    fn malformed_line_is_a_typed_error_with_position() {
        // Broken framing, and valid JSON whose step / manifest fields do
        // not parse: each stops the stream at its own line.
        for bad in [
            "{\"type\":\"st",
            "{\"type\":\"step\",\"step\":\"three\"}",
            "{\"type\":\"manifest\",\"label\":7}",
        ] {
            let text = format!("{}\n{}\n{bad}\n{}\n", manifest_line(), step_line(0), step_line(1));
            match follow(Cursor::new(text).lines(), keep_going) {
                Err(StreamError::Malformed { lineno, snippet }) => {
                    assert_eq!(lineno, 3);
                    assert_eq!(snippet, bad);
                }
                other => panic!(
                    "{bad}: expected Malformed, got {other:?}",
                    other = other.map(|v| v.steps_seen())
                ),
            }
        }
    }

    #[test]
    fn eof_before_first_step_is_ended_early() {
        let text = format!("{}\n", manifest_line());
        assert!(matches!(
            follow(Cursor::new(text).lines(), keep_going),
            Err(StreamError::EndedEarly)
        ));
    }

    #[test]
    fn done_trailer_ends_clean_even_with_zero_steps() {
        let text = format!("{}\n{{\"type\":\"done\",\"state\":\"done\"}}\n", manifest_line());
        let view = follow(Cursor::new(text).lines(), keep_going).unwrap();
        assert_eq!(view.steps_seen(), 0);
        // The trailer of a job that failed is not a clean end, with steps
        // seen or none.
        for steps in [String::new(), format!("{}\n", step_line(0))] {
            let text = format!("{}\n{steps}{{\"type\":\"done\",\"state\":\"failed\"}}\n", manifest_line());
            let result = follow(Cursor::new(text).lines(), keep_going);
            assert!(
                matches!(result, Err(StreamError::JobEnded(JobState::Failed))),
                "{steps:?}: {:?}",
                result.map(|v| v.steps_seen())
            );
        }
    }

    #[test]
    fn break_from_callback_stops_early() {
        let text = format!("{}\n{}\n{}\n", manifest_line(), step_line(0), step_line(1));
        let view = follow(Cursor::new(text).lines(), |_| ControlFlow::Break(())).unwrap();
        assert_eq!(view.steps_seen(), 1);
    }

    /// A real watch of an in-process `mdm_serve` daemon, followed to
    /// its `done` trailer. A higher-priority job holds the one board
    /// while the viewer attaches, so the view sees every step.
    #[test]
    fn follows_a_served_job_to_its_done_trailer() {
        use mdm_serve::{Client, JobSpec, Server, ServerConfig};
        let spool = std::env::temp_dir().join(format!("mdm-topview-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let mut cfg = ServerConfig::new(&spool);
        cfg.slice_steps = 5;
        let server = Server::start(cfg).unwrap();
        let addr = server.local_addr().to_string();
        let mut client = Client::connect(&addr).unwrap();
        for (name, steps, priority) in [("blocker", 400, 1), ("viewed", 12, 0)] {
            let spec = JobSpec {
                name: name.into(),
                steps,
                priority,
                ..JobSpec::default()
            };
            client.submit(&spec).unwrap();
        }
        let stream = Client::connect(&addr).unwrap().watch("viewed").unwrap();
        assert!(!client.status("blocker").unwrap().state.is_terminal());
        let view = follow(stream, keep_going).unwrap();
        assert_eq!(view.steps_seen(), 12);
        let screen = view.render();
        assert!(screen.contains("mdm_top — viewed (N = 64"), "{screen}");
        assert!(screen.contains("step 12:"), "{screen}");
        server.stop();
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// A scripted fake server: serves a manifest, one step, then a
    /// *truncated* line and drops the connection — the viewer must
    /// come back with a Malformed error, not hang or panic.
    #[test]
    fn fake_server_dropping_mid_line_yields_malformed() {
        use std::io::Write;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            write!(sock, "{}\n{}\n{{\"type\":\"step\",\"ste", manifest_line(), step_line(0))
                .unwrap();
            // Dropping the socket closes the connection mid-line.
        });
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let result = follow(std::io::BufReader::new(stream).lines(), keep_going);
        script.join().unwrap();
        assert!(
            matches!(result, Err(StreamError::Malformed { lineno: 3, .. })),
            "wanted Malformed at line 3"
        );
    }

    /// A fake server that closes right after the manifest: ended early.
    #[test]
    fn fake_server_closing_before_steps_yields_ended_early() {
        use std::io::Write;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let script = std::thread::spawn(move || {
            let (mut sock, _) = listener.accept().unwrap();
            writeln!(sock, "{}", manifest_line()).unwrap();
        });
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let result = follow(std::io::BufReader::new(stream).lines(), keep_going);
        script.join().unwrap();
        assert!(matches!(result, Err(StreamError::EndedEarly)));
    }
}
