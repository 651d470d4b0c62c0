//! # mdm-bench — the reproduction harness
//!
//! One binary per table/figure of the paper:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 — MDM component inventory |
//! | `table2` | Table 2 — WINE-2 host library routines |
//! | `table3` | Table 3 — MDGRAPE-2 host library routines |
//! | `table4` | Table 4 — performance of simulation (α, cutoffs, flop counts, sec/step, calculation & effective Tflops for MDM-current / conventional / MDM-future) |
//! | `table5` | Table 5 — current vs future MDM (chips, peaks, efficiencies) + the §6.2 million-particle projection |
//! | `figure2` | Figure 2 — temperature vs time for a ladder of N, with the 1/√N fluctuation law |
//! | `figure3` | Figures 1/3–11 — the machine block-diagram hierarchy |
//! | `ablation` | §6.1's upgrade list quantified factor by factor |
//! | `profile_step` | Table 4's `t_step = max(t_wine, t_mdg) + t_comm + t_host` measured live on the emulator vs modeled from cycle counters, printed from the run's one ledger row — the explainer beside the repo benchmark (`benchmark/`), which is the baseline and the only perf gate |
//! | `accuracy_report` | §5 accuracy/speed sweep per long-range backend; its raw / effective / worst-error figures are its ledger rows' columns |
//! | `mdm_top` | live terminal viewer for one `mdm_serve` job's watch stream (step rate, device occupancy, worst probed force error, watchdog status); `--once` prints a single snapshot for scripts/CI |
//!
//! Kernel-level timings are the repo benchmark's layer rungs (DESIGN.md
//! §5 maps each retired bench target to its rung).

pub mod figure2;
pub mod stepprof;
pub mod topview;

/// Format a flop count the way the paper's table does (e.g. `6.75e14`).
pub fn sci(x: f64) -> String {
    format!("{x:.2e}")
}

/// Relative deviation helper for the paper-vs-ours report lines.
pub fn rel_dev(ours: f64, paper: f64) -> String {
    format!("{:+.1}%", (ours - paper) / paper * 100.0)
}
