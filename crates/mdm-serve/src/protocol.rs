//! The wire protocol: single-line JSON over TCP.
//!
//! A connection carries a sequence of requests, one JSON object per
//! line; the server answers each with one JSON line (every response
//! has an `ok` field). The exception is `watch`, which turns the rest
//! of the connection into a one-way stream: an `ok` line, then the
//! job's flight-recorder JSONL (manifest + step events: from the watch
//! on, the lines its `<job>.trace.jsonl` gets, and what `mdm_top JOB`
//! renders), then one `{"type":"done",...}` trailer when the job
//! finishes.
//!
//! Grammar (one object per line):
//!
//! ```text
//! request  = submit | status | list | stats | watch | drain | shutdown
//! submit   = {"op":"submit","spec":{jobspec}}
//! status   = {"op":"status","job":NAME}
//! watch    = {"op":"watch","job":NAME}
//! list     = {"op":"list"}        stats = {"op":"stats"}
//! drain    = {"op":"drain"}       shutdown = {"op":"shutdown"}
//! jobspec  = {"name":NAME,"cells":U,"steps":U,"dt":F,"temperature":F,
//!             "seed":U,"priority":I,"potential_interval":U,
//!             "thermostat":B}     (all but "name" optional)
//! ```
//!
//! Back-pressure is explicit in the grammar: a submit against a full
//! queue answers `{"ok":false,"error":...,"retry_after_ms":M}` and
//! the client retries after `M` — the queue never grows unbounded.

use mdm_profile::json::{obj, Value};

/// Everything the server needs to run a job. The spec is persisted to
/// the spool verbatim at submit time, so a restarted server rebuilds
/// the exact same run.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Unique job name; doubles as the spool file stem and the bus
    /// topic, so it is restricted to `[A-Za-z0-9._-]`.
    pub name: String,
    /// Rock-salt unit cells per box side (N = 8·cells³).
    pub cells: u32,
    /// Total MD steps the job runs.
    pub steps: u64,
    /// Time step (fs).
    pub dt: f64,
    /// Initial Maxwell–Boltzmann temperature (K) — and the velocity-
    /// scaling target when `thermostat` is set.
    pub temperature: f64,
    /// Velocity-initialisation seed.
    pub seed: u64,
    /// Scheduling priority: higher runs first; ties run in submission
    /// order (round-robin between slices).
    pub priority: i64,
    /// Evaluate the potential every this many steps (the paper's
    /// stale-energy economy; 1 = every step).
    pub potential_interval: u64,
    /// NVT by velocity scaling at `temperature` instead of NVE.
    pub thermostat: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: String::new(),
            cells: 2,
            steps: 100,
            dt: 2.0,
            temperature: 300.0,
            seed: 0,
            priority: 0,
            potential_interval: 1,
            thermostat: false,
        }
    }
}

impl JobSpec {
    /// Check the invariants a spec must satisfy before it is accepted
    /// (and before its name is used as a file stem).
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() || self.name.len() > 64 {
            return Err("job name must be 1..=64 characters".into());
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
            || self.name.starts_with('.')
        {
            return Err(format!(
                "job name {:?} must match [A-Za-z0-9._-]+ and not start with '.'",
                self.name
            ));
        }
        if self.cells == 0 || self.cells > 8 {
            return Err("cells must be 1..=8".into());
        }
        if self.steps == 0 {
            return Err("steps must be >= 1".into());
        }
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err("dt must be positive and finite".into());
        }
        if !(self.temperature >= 0.0 && self.temperature.is_finite()) {
            return Err("temperature must be non-negative and finite".into());
        }
        if self.potential_interval == 0 {
            return Err("potential_interval must be >= 1".into());
        }
        Ok(())
    }

    /// Serialize (all fields, explicit).
    pub fn to_json(&self) -> Value {
        obj([
            ("name", Value::Str(self.name.clone())),
            ("cells", Value::from_u64(self.cells as u64)),
            ("steps", Value::from_u64(self.steps)),
            ("dt", Value::from_f64(self.dt)),
            ("temperature", Value::from_f64(self.temperature)),
            ("seed", Value::from_u64(self.seed)),
            ("priority", Value::Num(self.priority as f64)),
            ("potential_interval", Value::from_u64(self.potential_interval)),
            ("thermostat", Value::Bool(self.thermostat)),
        ])
    }

    /// Parse; every field but `name` falls back to its default.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let mut spec = JobSpec {
            name: value.req_str("name")?.to_string(),
            ..JobSpec::default()
        };
        if let Some(v) = value.opt_u64("cells") {
            spec.cells = v as u32;
        }
        if let Some(v) = value.opt_u64("steps") {
            spec.steps = v;
        }
        if let Some(v) = value.opt_f64("dt") {
            spec.dt = v;
        }
        if let Some(v) = value.opt_f64("temperature") {
            spec.temperature = v;
        }
        if let Some(v) = value.opt_u64("seed") {
            spec.seed = v;
        }
        if let Some(v) = value.opt_f64("priority") {
            spec.priority = v as i64;
        }
        if let Some(v) = value.opt_u64("potential_interval") {
            spec.potential_interval = v;
        }
        if let Some(Value::Bool(b)) = value.get("thermostat") {
            spec.thermostat = *b;
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Particle count of the job (8 per rock-salt cell).
    pub fn n_particles(&self) -> u64 {
        8 * (self.cells as u64).pow(3)
    }
}

/// Job lifecycle, as reported by `status`/`list`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a board (includes between-slice waits).
    Queued,
    /// A worker is stepping it right now.
    Running,
    /// All steps completed.
    Done,
    /// A slice errored; `detail` on the report says why.
    Failed,
}

impl JobState {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "queued" => Ok(JobState::Queued),
            "running" => Ok(JobState::Running),
            "done" => Ok(JobState::Done),
            "failed" => Ok(JobState::Failed),
            other => Err(format!("unknown job state {other:?}")),
        }
    }

    /// Has the job left the scheduler for good?
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// A client request, one per line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job for scheduling.
    Submit(JobSpec),
    /// One-shot report for one job.
    Status { job: String },
    /// Reports for every known job.
    List,
    /// Server-level counters (queue depth, boards, rejects).
    Stats,
    /// Switch this connection to the job's live JSONL stream.
    Watch { job: String },
    /// Stop scheduling new slices; running slices finish and
    /// checkpoint. Queued work stays on disk for the next server.
    Drain,
    /// Drain, then stop accepting and exit the serve loop.
    Shutdown,
}

impl Request {
    /// Serialize to a request line.
    pub fn to_json(&self) -> Value {
        match self {
            Request::Submit(spec) => {
                obj([("op", Value::Str("submit".into())), ("spec", spec.to_json())])
            }
            Request::Status { job } => obj([
                ("op", Value::Str("status".into())),
                ("job", Value::Str(job.clone())),
            ]),
            Request::List => obj([("op", Value::Str("list".into()))]),
            Request::Stats => obj([("op", Value::Str("stats".into()))]),
            Request::Watch { job } => obj([
                ("op", Value::Str("watch".into())),
                ("job", Value::Str(job.clone())),
            ]),
            Request::Drain => obj([("op", Value::Str("drain".into()))]),
            Request::Shutdown => obj([("op", Value::Str("shutdown".into()))]),
        }
    }

    /// Parse a request line.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let op = value.req_str("op")?;
        let job = || Ok::<_, String>(value.req_str("job")?.to_string());
        match op {
            "submit" => Ok(Request::Submit(JobSpec::from_json(
                value.get("spec").ok_or("submit request missing `spec`")?,
            )?)),
            "status" => Ok(Request::Status { job: job()? }),
            "list" => Ok(Request::List),
            "stats" => Ok(Request::Stats),
            "watch" => Ok(Request::Watch { job: job()? }),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op {other:?} (try submit/status/list/stats/watch/drain/shutdown)"
            )),
        }
    }
}

/// What a submit came back with.
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitOutcome {
    /// Admitted; `position` is the queue depth at admission.
    Accepted { position: u64 },
    /// Bounced by back-pressure (or a validation error with
    /// `retry_after_ms` 0, which means retrying won't help).
    Rejected { error: String, retry_after_ms: u64 },
}

impl SubmitOutcome {
    /// Parse a submit response line.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        match value.get("ok") {
            Some(Value::Bool(true)) => Ok(SubmitOutcome::Accepted {
                position: value.opt_u64("position").unwrap_or(0),
            }),
            Some(Value::Bool(false)) => Ok(SubmitOutcome::Rejected {
                error: value.opt_str("error").unwrap_or("unspecified").to_string(),
                retry_after_ms: value.opt_u64("retry_after_ms").unwrap_or(0),
            }),
            _ => Err("submit response missing `ok`".into()),
        }
    }
}

/// One job's scheduler-eye view, the `status`/`list` payload.
#[derive(Clone, Debug, PartialEq)]
pub struct JobReport {
    /// Job name.
    pub name: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Steps completed (checkpointed; a killed slice rolls back here).
    pub step: u64,
    /// Total steps requested.
    pub steps: u64,
    /// Scheduling priority.
    pub priority: i64,
    /// Watchdog violations accumulated across slices.
    pub violations: u64,
    /// J-store bytes the job has pushed to its leased boards — the
    /// board-time meter the pool arbitrates on.
    pub upload_bytes: u64,
    /// Failure message when `state` is `Failed`.
    pub detail: Option<String>,
}

impl JobReport {
    /// Serialize.
    pub fn to_json(&self) -> Value {
        let mut pairs = vec![
            ("job", Value::Str(self.name.clone())),
            ("state", Value::Str(self.state.as_str().into())),
            ("step", Value::from_u64(self.step)),
            ("steps", Value::from_u64(self.steps)),
            ("priority", Value::Num(self.priority as f64)),
            ("violations", Value::from_u64(self.violations)),
            ("upload_bytes", Value::from_u64(self.upload_bytes)),
        ];
        if let Some(detail) = &self.detail {
            pairs.push(("detail", Value::Str(detail.clone())));
        }
        obj(pairs)
    }

    /// Parse (from a `status` response or a `list` element).
    pub fn from_json(value: &Value) -> Result<Self, String> {
        Ok(JobReport {
            name: value.req_str("job")?.to_string(),
            state: JobState::parse(value.req_str("state")?)?,
            step: value.opt_u64("step").unwrap_or(0),
            steps: value.opt_u64("steps").unwrap_or(0),
            priority: value.opt_f64("priority").unwrap_or(0.0) as i64,
            violations: value.opt_u64("violations").unwrap_or(0),
            upload_bytes: value.opt_u64("upload_bytes").unwrap_or(0),
            detail: value.opt_str("detail").map(str::to_string),
        })
    }
}

/// A one-line error response.
pub fn error_line(message: impl Into<String>) -> Value {
    obj([
        ("ok", Value::Bool(false)),
        ("error", Value::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            name: "melt-42".into(),
            cells: 3,
            steps: 5000,
            dt: 1.5,
            temperature: 1100.0,
            seed: 99,
            priority: -2,
            potential_interval: 100,
            thermostat: true,
        };
        let back = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.n_particles(), 8 * 27);
    }

    #[test]
    fn spec_defaults_fill_missing_fields() {
        let v = Value::parse(r#"{"name":"tiny","steps":7}"#).unwrap();
        let spec = JobSpec::from_json(&v).unwrap();
        assert_eq!(spec.steps, 7);
        assert_eq!(spec.cells, 2);
        assert_eq!(spec.dt, 2.0);
        assert!(!spec.thermostat);
    }

    #[test]
    fn hostile_job_names_are_rejected() {
        for name in ["", "../escape", "a/b", "job name", ".hidden", "a\nb"] {
            let spec = JobSpec {
                name: name.into(),
                ..JobSpec::default()
            };
            assert!(spec.validate().is_err(), "{name:?} should be invalid");
        }
        assert!(JobSpec {
            name: "ok-1.2_3".into(),
            ..JobSpec::default()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit(JobSpec {
                name: "j".into(),
                ..JobSpec::default()
            }),
            Request::Status { job: "j".into() },
            Request::List,
            Request::Stats,
            Request::Watch { job: "j".into() },
            Request::Drain,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_json().to_compact();
            let back = Request::from_json(&Value::parse(&line).unwrap()).unwrap();
            assert_eq!(back, req, "{line}");
        }
    }

    #[test]
    fn unknown_op_is_a_parse_error_not_a_panic() {
        let v = Value::parse(r#"{"op":"fly"}"#).unwrap();
        assert!(Request::from_json(&v).unwrap_err().contains("unknown op"));
    }

    #[test]
    fn submit_outcomes_parse_both_arms() {
        let ok = Value::parse(r#"{"ok":true,"job":"a","position":4}"#).unwrap();
        assert_eq!(
            SubmitOutcome::from_json(&ok).unwrap(),
            SubmitOutcome::Accepted { position: 4 }
        );
        let full = Value::parse(r#"{"ok":false,"error":"queue full","retry_after_ms":250}"#).unwrap();
        assert_eq!(
            SubmitOutcome::from_json(&full).unwrap(),
            SubmitOutcome::Rejected {
                error: "queue full".into(),
                retry_after_ms: 250
            }
        );
    }

    #[test]
    fn job_report_round_trips_with_and_without_detail() {
        let mut report = JobReport {
            name: "j".into(),
            state: JobState::Failed,
            step: 12,
            steps: 40,
            priority: 3,
            violations: 1,
            upload_bytes: 4096,
            detail: Some("board caught fire".into()),
        };
        let back = JobReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        report.detail = None;
        report.state = JobState::Queued;
        let back = JobReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }
}
