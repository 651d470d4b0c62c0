//! Simulated counts pinned for the default run.
//!
//! A change meant only to speed the emulators up must leave every
//! simulated count bit-identical. The counts of the default run
//! (`--seed 20000 --seconds 10`, not `--quick`) are committed in
//! `pinned_counts.json`; a default run whose counts differ fails its
//! correctness check. Only integer counts are pinned — they survive a
//! different `libm`, which the last bits of a position do not.

use crate::metrics::Report;
use crate::workloads::{BASE_SECONDS, DEFAULT_SEED};
use crate::RunArgs;
use mdm_profile::json::Value;

const PINNED: &str = include_str!("../pinned_counts.json");

/// Note the counts; on the default run, hold them to the pinned values.
pub fn check(report: &mut Report, workload: &str, args: &RunArgs, counts: &[(&str, u64)]) {
    let listed: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    report
        .notes
        .push(format!("simulated counts {{{}}}", listed.join(", ")));
    if args.quick || args.seed != DEFAULT_SEED || args.seconds != BASE_SECONDS {
        return;
    }
    let doc = Value::parse(PINNED).expect("pinned_counts.json parses");
    for (name, got) in counts {
        let want = doc
            .get(workload)
            .and_then(|w| w.get(name))
            .and_then(Value::as_u64);
        report.check(want == Some(*got), || {
            format!("simulated count {workload}.{name} is {got}, pinned {want:?}")
        });
    }
}
