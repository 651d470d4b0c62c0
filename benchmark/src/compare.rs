//! `compare A.json B.json`: apply the bounds, per workload and
//! end-to-end metric, to two result files written with `--out`.

use crate::metrics::{fmt_value, Better, END_TO_END, FORCE_ERR_CEILING};
use crate::stats::{median, quartile_spread};
use crate::workloads;
use mdm_profile::json::Value;
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// tell "unchanged" from "regressed".
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × metric comparison.
#[derive(Debug, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    /// Median of B over median of A; the base is `base`.
    pub ratio: f64,
    pub base: f64,
    /// The wider of the two sides' quartile spreads.
    pub spread: f64,
}

/// Judge side B (the change) against side A (the parent).
pub fn judge(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Option<Judgement> {
    let (base, new) = (median(a)?, median(b)?);
    let ratio = new / base;
    let worse_by = match better {
        Better::Lower => ratio - 1.0,
        Better::Higher => 1.0 - ratio,
    };
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let every_b_beats_every_a = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    let spread = quartile_spread(a).max(quartile_spread(b));
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if every_b_beats_every_a {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else if -worse_by > quartile_spread(a) && worse_by < 0.0 {
        // The medians differ by more than the parent's own spread.
        Verdict::Better
    } else {
        Verdict::Same
    };
    Some(Judgement {
        verdict,
        ratio,
        base,
        spread,
    })
}

/// `workload → metric → values`, untraced runs only.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

struct ResultFile {
    quick: bool,
    stamp: String,
    runs: Runs,
    failed: BTreeMap<String, u64>,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Value::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("{path}: no `{key}`"));
    let quick = matches!(field("quick")?, Value::Bool(true));
    let stamp = format!(
        "{} (nproc {}, threads {})",
        field("hostname")?.as_str().unwrap_or("?"),
        field("nproc")?.as_u64().unwrap_or(0),
        field("threads")?.as_u64().unwrap_or(0),
    );
    let mut runs = Runs::new();
    let mut failed = BTreeMap::new();
    for run in field("runs")?
        .as_arr()
        .ok_or_else(|| format!("{path}: `runs` is not a list"))?
    {
        if run.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: a run has no `workload`"))?;
        *failed.entry(workload.to_string()).or_insert(0) +=
            run.get("failed").and_then(Value::as_u64).unwrap_or(0);
        if let Some(Value::Obj(metrics)) = run.get("metrics") {
            for (name, reading) in metrics {
                if let Some(v) = reading.get("value").and_then(Value::as_f64) {
                    runs.entry(workload.to_string())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(ResultFile {
        quick,
        stamp,
        runs,
        failed,
    })
}

/// Print the table; `Ok(true)` when nothing regressed.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    if a.quick || b.quick {
        return Err("refusing to compare a --quick result: its sizes measure nothing".into());
    }
    println!("A (base): {path_a} on {}", a.stamp);
    println!("B:        {path_b} on {}", b.stamp);
    if a.stamp != b.stamp {
        println!("warning: different hosts or thread counts; baselines are machine-specific");
    }
    let mut ok = true;
    for workload in workloads::ALL.iter().map(|w| w.name()) {
        let (Some(ra), Some(rb)) = (a.runs.get(workload), b.runs.get(workload)) else {
            println!("{workload}: missing on one side, skipped");
            continue;
        };
        for metric in END_TO_END {
            let empty = Vec::new();
            let (va, vb) = (
                ra.get(metric.name).unwrap_or(&empty),
                rb.get(metric.name).unwrap_or(&empty),
            );
            let Some(mut j) = judge(metric.better, metric.bound, va, vb) else {
                println!(
                    "{workload:<14} {:<15} no untraced runs on one side",
                    metric.name
                );
                continue;
            };
            if metric.name == "force_err_rel" && j.ratio * j.base > FORCE_ERR_CEILING {
                j.verdict = Verdict::Worse;
            }
            ok &= j.verdict != Verdict::Worse;
            println!(
                "{workload:<14} {:<15} {:<10} B/A = {:.4} of {} {} (n = {}/{}, spread {:.2} %, bound {:.1} %)",
                metric.name,
                j.verdict.as_str(),
                j.ratio,
                fmt_value(j.base),
                metric.unit,
                va.len(),
                vb.len(),
                100.0 * j.spread,
                100.0 * metric.bound,
            );
        }
        let (fa, fb) = (
            a.failed.get(workload).copied(),
            b.failed.get(workload).copied(),
        );
        if fb > fa {
            println!("{workload:<14} failed operations rose from {fa:?} to {fb:?}");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [1.00, 1.01, 0.99, 1.005, 0.995];

    fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
        judge(better, bound, a, b).unwrap().verdict
    }

    #[test]
    fn within_bound_is_same_beyond_is_worse() {
        let b_same = [1.02, 1.03, 1.01, 1.02, 1.025];
        assert_eq!(
            verdict(Better::Lower, 0.05, &TIGHT_A, &b_same),
            Verdict::Same
        );
        let b_worse = [1.07, 1.08, 1.06, 1.07, 1.075];
        assert_eq!(
            verdict(Better::Lower, 0.05, &TIGHT_A, &b_worse),
            Verdict::Worse
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            verdict(Better::Higher, 0.05, &TIGHT_A, &b_worse),
            Verdict::Better
        );
        let b_lower = [0.93, 0.92, 0.94, 0.93, 0.925];
        assert_eq!(
            verdict(Better::Higher, 0.05, &TIGHT_A, &b_lower),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Lower, 0.05, &TIGHT_A, &b_lower),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy_a = [1.0, 1.3, 0.8, 1.2, 0.9];
        let noisy_b = [1.02, 1.25, 0.85, 1.15, 0.95];
        assert_eq!(
            verdict(Better::Lower, 0.05, &noisy_a, &noisy_b),
            Verdict::Unresolved
        );
        let clear_b = [0.5, 0.6, 0.55, 0.7, 0.65];
        assert_eq!(
            verdict(Better::Lower, 0.05, &noisy_a, &clear_b),
            Verdict::Better
        );
    }

    #[test]
    fn ratio_carries_its_base() {
        let j = judge(Better::Lower, 0.05, &[2.0, 2.0, 2.0], &[2.2, 2.2, 2.2]).unwrap();
        assert_eq!(j.verdict, Verdict::Worse);
        assert!((j.ratio - 1.1).abs() < 1e-12);
        assert_eq!(j.base, 2.0);
        assert_eq!(judge(Better::Lower, 0.05, &[], &[1.0]), None);
    }

    #[test]
    fn single_runs_have_no_spread_and_still_gate() {
        assert_eq!(verdict(Better::Lower, 0.05, &[1.0], &[1.2]), Verdict::Worse);
        assert_eq!(verdict(Better::Lower, 0.05, &[1.0], &[1.0]), Verdict::Same);
    }
}
