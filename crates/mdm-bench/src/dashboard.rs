//! The cross-run regression dashboard behind the `mdm_report` binary.
//!
//! Input: the run ledger (`results/ledger.jsonl`, one [`RunRecord`] per
//! bench/instrumented invocation — see [`mdm_profile::ledger`]).
//! Output: a rendered dashboard (markdown or HTML) with one trend row
//! per `tool:label` group, the latest utilization gauges, and the
//! accuracy trajectory — and a machine verdict: did the *latest* run of
//! any group regress beyond tolerance against its own trailing history?
//!
//! The regression rule is deliberately simple and robust to the noise
//! of shared CI machines: within each group the latest
//! `wall_seconds_per_step` is compared against the **median** of up to
//! `window` preceding runs; only `latest > median × (1 + tolerance)`
//! counts as a regression, and a group with fewer than
//! [`MIN_HISTORY`] prior runs is never judged (one slow first run must
//! not brick the gate).

use mdm_profile::ledger::RunRecord;
use std::collections::BTreeMap;

/// Prior runs a group needs before its latest run can be judged.
pub const MIN_HISTORY: usize = 2;

/// Trailing-window length the median is taken over (in runs), unless
/// the caller overrides it.
pub const DEFAULT_WINDOW: usize = 10;

/// Default regression tolerance: the latest run must be more than 50%
/// slower than the trailing median to fail. Wide on purpose — the
/// ledger spans shared CI machines; genuine regressions worth gating
/// on (an accidental O(N²) path, a dropped parallel region) blow far
/// past this, while cache-state noise stays inside it.
pub const DEFAULT_TOLERANCE: f64 = 0.5;

/// One `tool:label` group's trend summary.
#[derive(Clone, Debug)]
pub struct GroupSummary {
    /// Grouping key: `"{tool}:{label}"`.
    pub key: String,
    /// Number of ledger rows in the group.
    pub runs: usize,
    /// The most recent row (ledger file order is append order).
    pub latest: RunRecord,
    /// Median `wall_seconds_per_step` of the trailing window *before*
    /// the latest run; `None` with fewer than [`MIN_HISTORY`] priors.
    pub median_prior: Option<f64>,
    /// `latest / median_prior`, when judged.
    pub ratio: Option<f64>,
    /// True when the latest run exceeds the tolerance band.
    pub regressed: bool,
}

/// The assembled dashboard: one trend summary per group.
#[derive(Clone, Debug)]
pub struct Dashboard {
    /// One summary per `tool:label` group, in key order.
    pub groups: Vec<GroupSummary>,
    /// Total ledger rows read.
    pub total_rows: usize,
    /// Ledger lines skipped as corrupt/foreign (tolerant reader).
    pub skipped: usize,
    /// Tolerance the verdicts were judged at.
    pub tolerance: f64,
}

/// Group ledger rows by `"{tool}:{label}"`, preserving append order
/// within each group.
pub fn group_rows(records: &[RunRecord]) -> BTreeMap<String, Vec<&RunRecord>> {
    let mut groups: BTreeMap<String, Vec<&RunRecord>> = BTreeMap::new();
    for record in records {
        groups
            .entry(format!("{}:{}", record.tool, record.label))
            .or_default()
            .push(record);
    }
    groups
}

/// Median of the finite values in `xs` (midpoint-averaged for even
/// counts); `None` when nothing finite remains.
fn median(xs: &[f64]) -> Option<f64> {
    let mut finite: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    finite.sort_by(|a, b| a.total_cmp(b));
    let n = finite.len();
    Some(if n % 2 == 1 {
        finite[n / 2]
    } else {
        0.5 * (finite[n / 2 - 1] + finite[n / 2])
    })
}

impl Dashboard {
    /// Assemble the dashboard from parsed ledger rows (`skipped` from
    /// the tolerant reader).
    pub fn build(records: &[RunRecord], skipped: usize, tolerance: f64, window: usize) -> Self {
        let window = window.max(1);
        let groups = group_rows(records)
            .into_iter()
            .map(|(key, rows)| {
                let latest: RunRecord = (*rows.last().expect("groups are non-empty")).clone();
                let prior: Vec<f64> = rows[..rows.len() - 1]
                    .iter()
                    .rev()
                    .take(window)
                    .map(|r| r.wall_seconds_per_step)
                    .collect();
                let median_prior = (prior.len() >= MIN_HISTORY)
                    .then(|| median(&prior))
                    .flatten();
                let ratio = median_prior
                    .filter(|&m| m > 0.0 && latest.wall_seconds_per_step.is_finite())
                    .map(|m| latest.wall_seconds_per_step / m);
                let regressed = ratio.is_some_and(|r| r > 1.0 + tolerance);
                GroupSummary {
                    key,
                    runs: rows.len(),
                    latest,
                    median_prior,
                    ratio,
                    regressed,
                }
            })
            .collect();
        Dashboard {
            groups,
            total_rows: records.len(),
            skipped,
            tolerance,
        }
    }

    /// The groups whose latest run regressed.
    pub fn regressions(&self) -> Vec<&GroupSummary> {
        self.groups.iter().filter(|g| g.regressed).collect()
    }

    /// True when any group regressed — the `mdm_report` exit gate.
    pub fn has_regressions(&self) -> bool {
        self.groups.iter().any(|g| g.regressed)
    }

    /// Gauge names that appear on any group's latest run, in order —
    /// the columns of the utilization table.
    fn gauge_columns(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .groups
            .iter()
            .flat_map(|g| g.latest.gauges.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Render the dashboard as GitHub-flavored markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# MDM run dashboard\n\n");
        out.push_str(&format!(
            "{} ledger rows in {} groups ({} skipped lines); \
             regression tolerance {:.0}% over the trailing median.\n\n",
            self.total_rows,
            self.groups.len(),
            self.skipped,
            self.tolerance * 100.0
        ));

        out.push_str("## Trends (wall seconds per step)\n\n");
        out.push_str("| group | runs | latest | median | Δ | raw Tflops | eff Tflops | worst err | viol | drops | critical path | verdict |\n");
        out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|\n");
        for g in &self.groups {
            let delta = g
                .ratio
                .map(|r| format!("{:+.1}%", (r - 1.0) * 100.0))
                .unwrap_or_else(|| "-".into());
            let verdict = match (g.regressed, g.ratio.is_some()) {
                (true, _) => "**REGRESSED**",
                (false, true) => "ok",
                (false, false) => "(no history)",
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |\n",
                g.key,
                g.runs,
                sci(g.latest.wall_seconds_per_step),
                g.median_prior.map(sci).unwrap_or_else(|| "-".into()),
                delta,
                opt_num(g.latest.raw_tflops, 3),
                opt_num(g.latest.effective_tflops, 3),
                g.latest.worst_force_error.map(sci).unwrap_or_else(|| "-".into()),
                g.latest.violations,
                g.latest.bus_dropped_events,
                g.latest.critical_path.as_deref().unwrap_or("-"),
                verdict
            ));
        }
        out.push('\n');

        let gauges = self.gauge_columns();
        if !gauges.is_empty() {
            out.push_str("## Utilization (latest run per group)\n\n");
            out.push_str(&format!("| group | {} |\n", gauges.join(" | ")));
            out.push_str(&format!("|---|{}\n", "---|".repeat(gauges.len())));
            for g in &self.groups {
                let cells: Vec<String> = gauges
                    .iter()
                    .map(|name| {
                        g.latest
                            .gauges
                            .get(name)
                            .map(|v| format!("{v:.3}"))
                            .unwrap_or_else(|| "-".into())
                    })
                    .collect();
                out.push_str(&format!("| {} | {} |\n", g.key, cells.join(" | ")));
            }
            out.push('\n');
        }

        let probed: Vec<&GroupSummary> = self
            .groups
            .iter()
            .filter(|g| g.latest.worst_force_error.is_some())
            .collect();
        if !probed.is_empty() {
            out.push_str("## Accuracy trajectory (worst probed force error, latest runs)\n\n");
            for g in &probed {
                out.push_str(&format!(
                    "- {}: {} @ {}\n",
                    g.key,
                    g.latest.worst_force_error.map(sci).unwrap_or_default(),
                    short_sha(&g.latest.git_sha)
                ));
            }
            out.push('\n');
        }

        let regressions = self.regressions();
        if regressions.is_empty() {
            out.push_str("No regressions against the trailing medians.\n");
        } else {
            out.push_str("## Regressions\n\n");
            for g in regressions {
                out.push_str(&format!(
                    "- {}: {} vs trailing median {} ({:+.1}%, tolerance {:.0}%)\n",
                    g.key,
                    sci(g.latest.wall_seconds_per_step),
                    g.median_prior.map(sci).unwrap_or_default(),
                    (g.ratio.unwrap_or(1.0) - 1.0) * 100.0,
                    self.tolerance * 100.0
                ));
            }
        }
        out
    }

    /// Render as a standalone HTML page (the markdown tables as real
    /// `<table>`s; no external assets, so it works as a CI artifact).
    pub fn to_html(&self) -> String {
        let mut body = String::new();
        for line in self.to_markdown().lines() {
            if let Some(h) = line.strip_prefix("## ") {
                flush_table(&mut body);
                body.push_str(&format!("<h2>{}</h2>\n", escape(h)));
            } else if let Some(h) = line.strip_prefix("# ") {
                body.push_str(&format!("<h1>{}</h1>\n", escape(h)));
            } else if line.starts_with('|') {
                table_row(&mut body, line);
            } else if let Some(item) = line.strip_prefix("- ") {
                flush_table(&mut body);
                body.push_str(&format!("<li>{}</li>\n", escape(item)));
            } else if !line.trim().is_empty() {
                flush_table(&mut body);
                body.push_str(&format!("<p>{}</p>\n", escape(line)));
            } else {
                flush_table(&mut body);
            }
        }
        flush_table(&mut body);
        format!(
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
             <title>MDM run dashboard</title>\
             <style>body{{font-family:sans-serif;margin:2em}}\
             table{{border-collapse:collapse;margin:1em 0}}\
             td,th{{border:1px solid #999;padding:0.3em 0.6em;text-align:right}}\
             th,td:first-child{{text-align:left}}</style>\
             </head><body>\n{body}</body></html>\n"
        )
    }
}

/// Append one markdown table line to the HTML body, opening the table
/// on the first row. Separator rows (`|---|`) are dropped.
fn table_row(body: &mut String, line: &str) {
    let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
    if cells.iter().all(|c| c.chars().all(|ch| ch == '-') && !c.is_empty()) {
        return;
    }
    if !in_open_table(body) {
        body.push_str("<table>\n");
    }
    // The first row after opening a table is its header.
    let tag = if body.ends_with("<table>\n") { "th" } else { "td" };
    body.push_str("<tr>");
    for cell in cells {
        body.push_str(&format!("<{tag}>{}</{tag}>", escape(cell)));
    }
    body.push_str("</tr>\n");
}

fn in_open_table(body: &str) -> bool {
    body.rfind("<table>") > body.rfind("</table>")
}

fn flush_table(body: &mut String) {
    if in_open_table(body) {
        body.push_str("</table>\n");
    }
}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

fn sci(x: f64) -> String {
    format!("{x:.3e}")
}

fn opt_num(x: Option<f64>, prec: usize) -> String {
    x.map(|v| format!("{v:.prec$}")).unwrap_or_else(|| "-".into())
}

fn short_sha(sha: &str) -> &str {
    if sha.len() >= 7 && sha.chars().all(|c| c.is_ascii_hexdigit()) {
        &sha[..7]
    } else {
        sha
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(tool: &str, label: &str, s_per_step: f64) -> RunRecord {
        RunRecord {
            tool: tool.into(),
            label: label.into(),
            git_sha: "0123456789abcdef0123456789abcdef01234567".into(),
            wall_seconds_per_step: s_per_step,
            n_particles: 4096,
            steps: 2,
            raw_tflops: Some(15.4),
            effective_tflops: Some(1.34),
            gauges: [
                ("mdg.occupancy".to_string(), 0.83),
                ("wine.occupancy".to_string(), 0.91),
            ]
            .into_iter()
            .collect(),
            ..RunRecord::default()
        }
    }

    fn history(speeds: &[f64]) -> Vec<RunRecord> {
        speeds
            .iter()
            .map(|&s| row("profile_step", "nacl-4096", s))
            .collect()
    }

    #[test]
    fn synthetic_2x_regression_is_detected() {
        let mut rows = history(&[0.10, 0.11, 0.09, 0.10]);
        rows.push(row("profile_step", "nacl-4096", 0.20));
        let dash = Dashboard::build(&rows, 0, DEFAULT_TOLERANCE, DEFAULT_WINDOW);
        assert!(dash.has_regressions());
        let g = &dash.regressions()[0];
        assert_eq!(g.key, "profile_step:nacl-4096");
        assert!((g.median_prior.unwrap() - 0.10).abs() < 1e-12);
        assert!(g.ratio.unwrap() > 1.9);
        assert!(dash.to_markdown().contains("REGRESSED"));
    }

    #[test]
    fn noise_within_tolerance_stays_silent() {
        let rows = history(&[0.10, 0.11, 0.09, 0.10, 0.12]);
        let dash = Dashboard::build(&rows, 0, DEFAULT_TOLERANCE, DEFAULT_WINDOW);
        assert!(!dash.has_regressions());
        let g = &dash.groups[0];
        assert!(g.ratio.is_some(), "judged, just not regressed");
        assert!(dash.to_markdown().contains("| ok |"));
        assert!(dash
            .to_markdown()
            .contains("No regressions against the trailing medians."));
    }

    #[test]
    fn short_history_is_never_judged() {
        // One prior run < MIN_HISTORY: a slow second run is not a
        // verdict, however large the jump.
        let rows = history(&[0.10, 10.0]);
        let dash = Dashboard::build(&rows, 0, DEFAULT_TOLERANCE, DEFAULT_WINDOW);
        assert!(!dash.has_regressions());
        assert_eq!(dash.groups[0].median_prior, None);
        assert!(dash.to_markdown().contains("(no history)"));
    }

    #[test]
    fn groups_split_on_tool_and_label() {
        let rows = vec![
            row("profile_step", "nacl-512", 0.07),
            row("accuracy_report", "nacl-512", 0.07),
            row("profile_step", "nacl-4096", 0.9),
        ];
        let groups = group_rows(&rows);
        assert_eq!(groups.len(), 3);
        assert!(groups.contains_key("profile_step:nacl-512"));
        assert!(groups.contains_key("accuracy_report:nacl-512"));
    }

    #[test]
    fn median_is_robust_to_one_outlier_and_nan() {
        assert_eq!(median(&[0.1, 0.1, 9.9]), Some(0.1));
        assert_eq!(median(&[1.0, f64::NAN, 3.0]), Some(2.0));
        assert_eq!(median(&[f64::NAN]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_limits_the_trailing_median() {
        // Old slow era (1.0 s) followed by a fast era (0.1 s): with a
        // short window the old era must not drag the median up.
        let mut speeds = vec![1.0; 10];
        speeds.extend([0.1; 10]);
        let mut rows = history(&speeds);
        rows.push(row("profile_step", "nacl-4096", 0.12));
        let dash = Dashboard::build(&rows, 0, DEFAULT_TOLERANCE, 5);
        assert!(!dash.has_regressions());
        assert!((dash.groups[0].median_prior.unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn trends_surface_bus_drops_and_critical_path() {
        let mut rows = history(&[0.1, 0.1, 0.1]);
        let last = rows.last_mut().unwrap();
        last.bus_dropped_events = 7;
        last.critical_path = Some("rank1/real".into());
        let dash = Dashboard::build(&rows, 0, DEFAULT_TOLERANCE, DEFAULT_WINDOW);
        let md = dash.to_markdown();
        assert!(md.contains("| drops | critical path |"));
        assert!(md.contains("| 7 | rank1/real |"));
        // A row without telemetry shows the defaults, not blanks.
        let plain = Dashboard::build(&history(&[0.1, 0.1]), 0, 0.5, DEFAULT_WINDOW);
        assert!(plain.to_markdown().contains("| 0 | - |"));
    }

    #[test]
    fn an_absent_ledger_renders_an_empty_dashboard_and_passes() {
        // What `mdm_report` does in a checkout that has profiled
        // nothing yet: the ledger is untracked, so it may not exist.
        let absent = std::env::temp_dir().join("mdm_dashboard_no_such_ledger.jsonl");
        let (rows, skipped) = mdm_profile::ledger::read_ledger(&absent).unwrap();
        let dash = Dashboard::build(&rows, skipped, DEFAULT_TOLERANCE, DEFAULT_WINDOW);
        assert!(!dash.has_regressions());
        assert_eq!((dash.groups.len(), dash.total_rows), (0, 0));
        assert!(dash.to_markdown().starts_with("# MDM run dashboard"));
        assert!(dash.to_html().ends_with("</body></html>\n"));
    }

    #[test]
    fn markdown_renders_utilization_and_skipped_count() {
        let rows = history(&[0.1, 0.1, 0.1]);
        let dash = Dashboard::build(&rows, 1, 0.5, DEFAULT_WINDOW);
        let md = dash.to_markdown();
        assert!(md.contains("## Utilization"));
        assert!(md.contains("mdg.occupancy"));
        assert!(md.contains("0.830"));
        assert!(md.contains("(1 skipped lines)"));
    }

    #[test]
    fn html_is_self_contained_and_escaped() {
        let mut rows = history(&[0.1, 0.1, 0.1, 0.1]);
        rows[0].label = "a<b&c".into();
        rows[0].tool = "profile_step".into();
        let dash = Dashboard::build(&rows, 0, 0.5, DEFAULT_WINDOW);
        let html = dash.to_html();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<table>"));
        assert!(html.ends_with("</body></html>\n"));
        assert!(html.contains("a&lt;b&amp;c"));
        assert!(!html.contains("a<b&c"));
        // Every opened table is closed.
        assert_eq!(html.matches("<table>").count(), html.matches("</table>").count());
    }
}
