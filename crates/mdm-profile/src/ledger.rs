//! The run ledger: one JSONL line per bench/instrumented invocation.
//!
//! The flight recorder ([`crate::events`]) documents one run in depth;
//! the ledger documents *every* run in one line, so performance and
//! accuracy can be compared **across** runs, commits, and machines.
//! Each [`RunRecord`] carries the environment stamp ([`EnvStamp`]:
//! git SHA, hostname, nproc, thread count) next to the measurement, so
//! a regression in `results/ledger.jsonl` is attributable — "slower
//! because the code changed" is distinguishable from "slower because
//! CI moved to a different machine".
//!
//! Appends are crash-safe: one `O_APPEND` write of one complete line,
//! so concurrent writers (a bench matrix, parallel CI jobs) interleave
//! whole records rather than shearing each other's bytes. The reader
//! ([`read_ledger`]) is tolerant: corrupt or foreign lines are counted
//! and skipped, never fatal — a ledger survives its own history.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Format version stamped on every ledger line.
pub const LEDGER_VERSION: u64 = 1;

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

/// One ledger line: a whole run reduced to its comparable summary.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunRecord {
    /// Seconds since the Unix epoch when the record was written.
    pub timestamp_s: u64,
    /// Which entry point produced the row (`profile_step`,
    /// `accuracy_report`, `run_instrumented`).
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
    /// Measured wall-clock seconds per step — the regression metric.
    pub wall_seconds_per_step: f64,
    /// Top-level phase name → seconds per step (Table 4 decomposition).
    pub phases: BTreeMap<String, f64>,
    /// Phase name → measured Gflops (paper flop credits / wall time).
    pub gflops: BTreeMap<String, f64>,
    /// Raw calculation speed in Tflops (paper Table 4 "calculation
    /// speed"), when the run metered it.
    pub raw_tflops: Option<f64>,
    /// Effective speed in Tflops (erfc⁻¹ re-costed), when metered.
    pub effective_tflops: Option<f64>,
    /// Worst RMS force error the probe observed, when probed.
    pub worst_force_error: Option<f64>,
    /// Total watchdog violations over the run.
    pub violations: u64,
    /// Whether the backend reports a real virial (true for every
    /// current backend, including the emulated WINE-2 board — see
    /// DESIGN.md §12).
    pub pressure_supported: bool,
    /// Gauge name → mean utilization over the run (from the
    /// [`crate::timeseries`] samples).
    pub gauges: BTreeMap<String, f64>,
    /// Telemetry-bus events evicted by slow subscribers during the run
    /// (0 when the run streamed to nobody — see [`crate::bus`]). A
    /// nonzero trend here means live consumers are losing data.
    pub bus_dropped_events: u64,
    /// Label of the critical-path bottleneck segment
    /// (`rank1/real`-style, from [`crate::critical_path`]), when the
    /// run analyzed one. Trending this catches the bounding phase
    /// *moving* — a regression signature no scalar column shows.
    pub critical_path: Option<String>,
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

    /// Serialize as one ledger line value.
    pub fn to_json(&self) -> Value {
        let num_map = |map: &BTreeMap<String, f64>| {
            Value::Obj(map.iter().map(|(k, v)| (k.clone(), Value::from_f64(*v))).collect())
        };
        let opt = |x: Option<f64>| x.map(Value::from_f64).unwrap_or(Value::Null);
        obj([
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
            ("phases", num_map(&self.phases)),
            ("gflops", num_map(&self.gflops)),
            ("raw_tflops", opt(self.raw_tflops)),
            ("effective_tflops", opt(self.effective_tflops)),
            ("worst_force_error", opt(self.worst_force_error)),
            ("violations", Value::from_u64(self.violations)),
            ("pressure_supported", Value::Bool(self.pressure_supported)),
            ("gauges", num_map(&self.gauges)),
            ("bus_dropped_events", Value::from_u64(self.bus_dropped_events)),
            (
                "critical_path",
                self.critical_path
                    .as_ref()
                    .map(|s| Value::Str(s.clone()))
                    .unwrap_or(Value::Null),
            ),
        ])
    }

    /// Parse a ledger line. Only `tool`, `label`, and the regression
    /// metric are required; everything else defaults, so rows written
    /// by older (or newer) versions still read.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        if value.get("type").and_then(Value::as_str) != Some("run") {
            return Err("not a run line".into());
        }
        let str_of = |key: &str| {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        let u64_of = |key: &str| value.get(key).and_then(Value::as_u64).unwrap_or(0);
        let f64_opt = |key: &str| value.get(key).and_then(Value::as_f64);
        let num_map = |key: &str| -> BTreeMap<String, f64> {
            match value.get(key) {
                Some(Value::Obj(map)) => map
                    .iter()
                    .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                    .collect(),
                _ => BTreeMap::new(),
            }
        };
        Ok(RunRecord {
            timestamp_s: u64_of("timestamp_s"),
            tool: str_of("tool").ok_or("run line missing `tool`")?,
            label: str_of("label").ok_or("run line missing `label`")?,
            git_sha: str_of("git_sha").unwrap_or_else(|| "unknown".into()),
            hostname: str_of("hostname").unwrap_or_else(|| "unknown".into()),
            nproc: u64_of("nproc"),
            threads: u64_of("threads"),
            n_particles: u64_of("n_particles"),
            steps: u64_of("steps"),
            wall_seconds_per_step: f64_opt("wall_seconds_per_step")
                .ok_or("run line missing `wall_seconds_per_step`")?,
            phases: num_map("phases"),
            gflops: num_map("gflops"),
            raw_tflops: f64_opt("raw_tflops"),
            effective_tflops: f64_opt("effective_tflops"),
            worst_force_error: f64_opt("worst_force_error"),
            violations: u64_of("violations"),
            pressure_supported: matches!(
                value.get("pressure_supported"),
                Some(Value::Bool(true))
            ),
            gauges: num_map("gauges"),
            bus_dropped_events: u64_of("bus_dropped_events"),
            critical_path: str_of("critical_path"),
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
            critical_path: Some("rank1/real".into()),
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
        assert_eq!(r.critical_path, None);
        assert!(r.raw_tflops.is_none());
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
