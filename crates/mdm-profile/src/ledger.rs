//! The run ledger: one JSONL line per bench/instrumented invocation.
//!
//! The flight recorder ([`crate::events`]) documents one run in depth;
//! the ledger documents *every* run in one line, so performance and
//! accuracy can be compared **across** runs, commits, and machines.
//! Each [`RunRecord`] carries the environment stamp ([`EnvStamp`]:
//! git SHA, hostname, nproc, thread count) next to the measurement, so
//! a regression between two ledger rows is attributable — "slower
//! because the code changed" is distinguishable from "slower because
//! CI moved to a different machine".
//!
//! Appends are crash-safe: one `O_APPEND` write of one complete line,
//! so concurrent writers (a bench matrix, parallel CI jobs) interleave
//! whole records rather than shearing each other's bytes. The reader
//! ([`read_ledger`]) is tolerant: corrupt or foreign lines are counted
//! and skipped, never fatal — a ledger survives its own history.

use crate::json::{obj, Value};
use crate::phase;
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Format version stamped on every ledger line.
pub const LEDGER_VERSION: u64 = 2;

/// Where the run came from: git SHA, hostname, and core count.
///
/// Thread count is deliberately *not* detected here — the profiling
/// crate has no dependency on the thread-pool backend, so the caller
/// (who knows the effective worker count) stamps it on the record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvStamp {
    /// Full commit SHA of the working tree's HEAD (`"unknown"` when
    /// undetectable, e.g. outside a git checkout).
    pub git_sha: String,
    /// Machine hostname (`"unknown"` when undetectable).
    pub hostname: String,
    /// Hardware parallelism (`nproc`); 0 when undetectable.
    pub nproc: u64,
}

impl EnvStamp {
    /// Detect the environment. `repo_root` is where `.git` lives; the
    /// `MDM_GIT_SHA` environment variable overrides detection (useful
    /// for CI runners that export the SHA but build from a tarball).
    pub fn detect(repo_root: &Path) -> Self {
        EnvStamp {
            git_sha: std::env::var("MDM_GIT_SHA")
                .ok()
                .filter(|s| !s.trim().is_empty())
                .map(|s| s.trim().to_string())
                .or_else(|| git_head_sha(repo_root))
                .unwrap_or_else(|| "unknown".into()),
            hostname: hostname().unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(0),
        }
    }
}

/// Resolve HEAD to a commit SHA by reading `.git` directly — no `git`
/// subprocess, so this works in minimal containers.
fn git_head_sha(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return looks_like_sha(head).then(|| head.to_string());
    };
    let refname = refname.trim();
    if let Ok(sha) = fs::read_to_string(git.join(refname)) {
        let sha = sha.trim();
        if looks_like_sha(sha) {
            return Some(sha.to_string());
        }
    }
    // Loose ref absent: the ref may only exist packed.
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name.trim() == refname && looks_like_sha(sha)).then(|| sha.to_string())
    })
}

fn looks_like_sha(s: &str) -> bool {
    s.len() >= 7 && s.chars().all(|c| c.is_ascii_hexdigit())
}

fn hostname() -> Option<String> {
    ["/proc/sys/kernel/hostname", "/etc/hostname"]
        .iter()
        .find_map(|p| fs::read_to_string(p).ok())
        .map(|s| s.trim().to_string())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .filter(|s| !s.is_empty())
}

/// One ledger line: the only summary of a run. Every row is produced by
/// the one reduction (`mdm_host::telemetry::RecordedRun::reduce`), so
/// each column has one definition whichever tool wrote it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Seconds since the Unix epoch when the record was written.
    pub timestamp_s: u64,
    /// Which entry point produced the row (`profile_step`,
    /// `accuracy_report`, `mdm-serve`, …).
    pub tool: String,
    /// Run label (`nacl-4096`, `nacl-512-lr-pswf`, …). Trend grouping
    /// key together with `tool`.
    pub label: String,
    /// Environment stamp (see [`EnvStamp`]).
    pub git_sha: String,
    /// Machine hostname.
    pub hostname: String,
    /// Hardware parallelism of the machine.
    pub nproc: u64,
    /// Effective worker-thread count the run used.
    pub threads: u64,
    /// Particle count.
    pub n_particles: u64,
    /// Steps measured.
    pub steps: u64,
    /// Σ step wall ÷ steps — the regression metric. A step's wall
    /// covers the step alone: probe and recording overhead is outside.
    pub wall_seconds_per_step: f64,
    /// Top-level span name → seconds per step (Table 4's `real`,
    /// `wave`, `comm`, `host`, plus whatever else ran at top level —
    /// `integrate`, `probe`).
    pub phases: BTreeMap<String, f64>,
    /// Phase name → Gflops: the phase's credited flops ÷ that phase's
    /// measured seconds (`gflops[p] · phases[p]` summed over `p` is
    /// `raw_tflops · wall_seconds_per_step`, up to the units).
    /// `accuracy_report` rows written before ISSUE 22 divided by the
    /// *step* wall instead.
    pub gflops: BTreeMap<String, f64>,
    /// Σ credited flops ÷ Σ step wall, in Tflops (paper Table 4
    /// "calculation speed"), when the run metered its flops.
    pub raw_tflops: Option<f64>,
    /// Σ conventional-minimum flops (re-costed at the probed accuracy
    /// once the probe has fired) ÷ Σ step wall, in Tflops, when metered.
    pub effective_tflops: Option<f64>,
    /// Worst relative RMS force error the probe observed, when probed.
    pub worst_force_error: Option<f64>,
    /// Total watchdog violations over the run.
    pub violations: u64,
    /// Whether the backend reports a real virial (true for every
    /// current backend, including the emulated WINE-2 board — see
    /// DESIGN.md §12).
    pub pressure_supported: bool,
    /// Gauge name → mean over steps of each step event's gauge.
    pub gauges: BTreeMap<String, f64>,
    /// Telemetry-bus events evicted by slow subscribers during the run
    /// (0 when the run streamed to nobody — see [`crate::bus`]). A
    /// nonzero trend here means live consumers are losing data.
    pub bus_dropped_events: u64,
    /// Phase name → modeled seconds per step on the real hardware,
    /// from the emulators' cycle counters. Written only when non-empty
    /// (rows from runs with no cycle counters, and every row written
    /// before the column existed, have none).
    pub modeled: BTreeMap<String, f64>,
}

impl RunRecord {
    /// Stamp the record with the current wall-clock time.
    pub fn stamp_now(&mut self) {
        self.timestamp_s = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
    }

    /// Copy the environment stamp onto the record.
    pub fn stamp_env(&mut self, env: &EnvStamp) {
        self.git_sha = env.git_sha.clone();
        self.hostname = env.hostname.clone();
        self.nproc = env.nproc;
    }

    /// Modeled step time by the Table 4 rule,
    /// `max(t_wine, t_mdg) + t_comm + t_host` over [`Self::modeled`];
    /// `None` when the run modeled nothing.
    pub fn modeled_step_seconds(&self) -> Option<f64> {
        let get = |name: &str| self.modeled.get(name).copied().unwrap_or(0.0);
        (!self.modeled.is_empty()).then(|| {
            get(phase::REAL).max(get(phase::WAVE)) + get(phase::COMM) + get(phase::HOST)
        })
    }

    /// Serialize as one ledger line value.
    pub fn to_json(&self) -> Value {
        let mut value = obj([
            ("type", Value::Str("run".into())),
            ("version", Value::from_u64(LEDGER_VERSION)),
            ("timestamp_s", Value::from_u64(self.timestamp_s)),
            ("tool", Value::Str(self.tool.clone())),
            ("label", Value::Str(self.label.clone())),
            ("git_sha", Value::Str(self.git_sha.clone())),
            ("hostname", Value::Str(self.hostname.clone())),
            ("nproc", Value::from_u64(self.nproc)),
            ("threads", Value::from_u64(self.threads)),
            ("n_particles", Value::from_u64(self.n_particles)),
            ("steps", Value::from_u64(self.steps)),
            (
                "wall_seconds_per_step",
                Value::from_f64(self.wall_seconds_per_step),
            ),
            ("phases", Value::from_f64_map(&self.phases)),
            ("gflops", Value::from_f64_map(&self.gflops)),
            ("raw_tflops", Value::from_opt_f64(self.raw_tflops)),
            ("effective_tflops", Value::from_opt_f64(self.effective_tflops)),
            ("worst_force_error", Value::from_opt_f64(self.worst_force_error)),
            ("violations", Value::from_u64(self.violations)),
            ("pressure_supported", Value::Bool(self.pressure_supported)),
            ("gauges", Value::from_f64_map(&self.gauges)),
            ("bus_dropped_events", Value::from_u64(self.bus_dropped_events)),
        ]);
        if !self.modeled.is_empty() {
            // Like `StepEvent.gauges`: only pay the key when non-empty.
            if let Value::Obj(map) = &mut value {
                map.insert("modeled".into(), Value::from_f64_map(&self.modeled));
            }
        }
        value
    }

    /// Parse a ledger line. Only `tool`, `label`, and the regression
    /// metric are required; everything else defaults, so rows written
    /// by older (or newer) versions still read.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        if value.opt_str("type") != Some("run") {
            return Err("not a run line".into());
        }
        Ok(RunRecord {
            timestamp_s: value.opt_u64("timestamp_s").unwrap_or(0),
            tool: value.req_str("tool")?.to_string(),
            label: value.req_str("label")?.to_string(),
            git_sha: value.str_or("git_sha", "unknown"),
            hostname: value.str_or("hostname", "unknown"),
            nproc: value.opt_u64("nproc").unwrap_or(0),
            threads: value.opt_u64("threads").unwrap_or(0),
            n_particles: value.opt_u64("n_particles").unwrap_or(0),
            steps: value.opt_u64("steps").unwrap_or(0),
            wall_seconds_per_step: value.req_f64("wall_seconds_per_step")?,
            phases: value.f64_map("phases")?,
            gflops: value.f64_map("gflops")?,
            raw_tflops: value.opt_f64("raw_tflops"),
            effective_tflops: value.opt_f64("effective_tflops"),
            worst_force_error: value.opt_f64("worst_force_error"),
            violations: value.opt_u64("violations").unwrap_or(0),
            pressure_supported: value.opt_bool("pressure_supported").unwrap_or(false),
            gauges: value.f64_map("gauges")?,
            bus_dropped_events: value.opt_u64("bus_dropped_events").unwrap_or(0),
            modeled: value.f64_map("modeled")?,
        })
    }
}

/// Append one record to the ledger at `path`, creating the file (and
/// its parent directory) on first use.
///
/// Crash-safety comes from the shape of the write: the whole line —
/// record plus newline — goes down in a single `write_all` on an
/// `O_APPEND` descriptor. A crash mid-run loses at most this one line,
/// and concurrent appenders interleave whole lines.
pub fn append_record(path: &Path, record: &RunRecord) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut line = record.to_json().to_compact();
    line.push('\n');
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(line.as_bytes())?;
    file.flush()
}

/// Parse ledger text: returns the readable records in file order plus
/// the number of lines that were skipped as corrupt or foreign.
pub fn parse_ledger(text: &str) -> (Vec<RunRecord>, usize) {
    let mut records = Vec::new();
    let mut skipped = 0;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match Value::parse(line).ok().and_then(|v| RunRecord::from_json(&v).ok()) {
            Some(record) => records.push(record),
            None => skipped += 1,
        }
    }
    (records, skipped)
}

/// Read and parse the ledger file at `path`. A missing file is an
/// empty ledger, not an error.
pub fn read_ledger(path: &Path) -> io::Result<(Vec<RunRecord>, usize)> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(parse_ledger(&text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok((Vec::new(), 0)),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn sample_record(label: &str, s_per_step: f64) -> RunRecord {
        RunRecord {
            timestamp_s: 1_754_600_000,
            tool: "profile_step".into(),
            label: label.into(),
            git_sha: "8868e36aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa".into(),
            hostname: "ci-runner-7".into(),
            nproc: 4,
            threads: 1,
            n_particles: 4096,
            steps: 10,
            wall_seconds_per_step: s_per_step,
            phases: [("real".to_string(), 0.7), ("wave".to_string(), 0.1)]
                .into_iter()
                .collect(),
            gflops: [("real".to_string(), 1.9)].into_iter().collect(),
            raw_tflops: Some(15.4e0),
            effective_tflops: Some(1.34),
            worst_force_error: Some(4.2e-4),
            violations: 0,
            pressure_supported: false,
            gauges: [("mdg.occupancy".to_string(), 0.83)].into_iter().collect(),
            bus_dropped_events: 3,
            modeled: BTreeMap::new(),
        }
    }

    /// A unique temp path per call — tests run concurrently.
    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "mdm_ledger_{tag}_{}_{seq}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn record_round_trips() {
        let record = sample_record("nacl-4096", 0.886);
        let line = record.to_json().to_compact();
        assert!(!line.contains('\n'));
        let back = RunRecord::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn modeled_round_trips_and_is_absent_when_empty() {
        let mut record = sample_record("nacl-512", 0.071);
        assert!(!record.to_json().to_compact().contains("modeled"));
        assert_eq!(record.modeled_step_seconds(), None);
        record.modeled = [("real", 3e-4), ("wave", 2e-5), ("comm", 7e-3), ("host", 4e-5)]
            .into_iter()
            .map(|(phase, s)| (phase.to_string(), s))
            .collect();
        let line = record.to_json().to_compact();
        let back = RunRecord::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert_eq!(back, record);
        // Table 4: max(real, wave) + comm + host.
        assert_eq!(back.modeled_step_seconds(), Some(3e-4 + 7e-3 + 4e-5));
    }

    #[test]
    fn minimal_and_foreign_lines_are_tolerated() {
        // A minimal row (older writer): only the required keys.
        let text = concat!(
            "{\"type\":\"run\",\"tool\":\"bench_compare\",\"label\":\"nacl-512\",",
            "\"wall_seconds_per_step\":0.07}\n",
            "this line is not json at all\n",
            "{\"type\":\"step\",\"step\":3}\n",
            "\n",
        );
        let (records, skipped) = parse_ledger(text);
        assert_eq!(records.len(), 1);
        assert_eq!(skipped, 2, "garbage and foreign lines skip, blanks don't count");
        let r = &records[0];
        assert_eq!(r.label, "nacl-512");
        assert_eq!(r.git_sha, "unknown");
        assert_eq!(r.threads, 0);
        assert!(!r.pressure_supported);
        assert_eq!(r.bus_dropped_events, 0);
        assert!(r.raw_tflops.is_none());
    }

    /// A version-1 row still carries the `critical_path` column no
    /// writer set; it parses, and the column is dropped on write.
    #[test]
    fn a_version_1_row_with_a_critical_path_still_parses() {
        let mut line = sample_record("nacl-4096", 0.886).to_json();
        if let Value::Obj(map) = &mut line {
            map.insert("version".into(), Value::from_u64(1));
            map.insert("critical_path".into(), Value::Str("rank1/real".into()));
        }
        let (records, skipped) = parse_ledger(&line.to_compact());
        assert_eq!((records.len(), skipped), (1, 0));
        assert_eq!(records[0], sample_record("nacl-4096", 0.886));
        assert!(!records[0].to_json().to_compact().contains("critical_path"));
    }

    #[test]
    fn append_and_read_back() {
        let path = temp_path("roundtrip");
        append_record(&path, &sample_record("nacl-512", 0.071)).unwrap();
        append_record(&path, &sample_record("nacl-4096", 0.886)).unwrap();
        let (records, skipped) = read_ledger(&path).unwrap();
        assert_eq!(skipped, 0);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].label, "nacl-512");
        assert_eq!(records[1].label, "nacl-4096");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_ledger_reads_empty() {
        let (records, skipped) = read_ledger(&temp_path("missing")).unwrap();
        assert!(records.is_empty());
        assert_eq!(skipped, 0);
    }

    #[test]
    fn concurrent_appenders_interleave_whole_lines() {
        let path = temp_path("concurrent");
        const WRITERS: usize = 8;
        const PER_WRITER: usize = 25;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let path = path.clone();
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        let record = sample_record(&format!("w{w}-r{i}"), 0.1);
                        append_record(&path, &record).unwrap();
                    }
                });
            }
        });
        let (records, skipped) = read_ledger(&path).unwrap();
        assert_eq!(skipped, 0, "no sheared lines under concurrent append");
        assert_eq!(records.len(), WRITERS * PER_WRITER);
        // Every writer's every record arrived exactly once.
        let mut labels: Vec<&str> = records.iter().map(|r| r.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), WRITERS * PER_WRITER);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn env_stamp_detects_this_repo() {
        // The test binary runs from the workspace; walk up until `.git`
        // is found so the assertion holds from any crate dir.
        let mut root = std::env::current_dir().unwrap();
        while !root.join(".git").exists() {
            assert!(root.pop(), "no .git above the test cwd");
        }
        let env = EnvStamp::detect(&root);
        assert!(
            looks_like_sha(&env.git_sha),
            "expected a hex sha, got {:?}",
            env.git_sha
        );
        assert!(!env.hostname.is_empty());
        assert!(env.nproc >= 1);
    }

    #[test]
    fn env_stamp_outside_a_repo_is_unknown() {
        // Only meaningful when the override is unset (it is in CI/dev).
        if std::env::var("MDM_GIT_SHA").is_ok() {
            return;
        }
        let env = EnvStamp::detect(&std::env::temp_dir());
        assert_eq!(env.git_sha, "unknown");
    }

    #[test]
    fn non_finite_metrics_survive_the_round_trip() {
        let mut record = sample_record("nacl-blowup", f64::NAN);
        record.worst_force_error = Some(f64::INFINITY);
        let line = record.to_json().to_compact();
        let back = RunRecord::from_json(&Value::parse(&line).unwrap()).unwrap();
        assert!(back.wall_seconds_per_step.is_nan());
        assert_eq!(back.worst_force_error, Some(f64::INFINITY));
    }
}
