//! The four workloads and their sizes.
//!
//! Every size below is fixed here, not taken from a library default
//! (`stepprof::balanced_params`, `default_operating_point`), so a later
//! change to a default cannot silently change a workload.
//!
//! A run does a fixed amount of work — a step or job count scaled from
//! `--seconds` — rather than running against the clock: the simulated
//! counts, the position digest and the bit-identity checks need the
//! same work on every run. The counts are sized so that `--seconds 15`
//! measures for about fifteen seconds on the 2-core baseline host. The
//! window is that long because the host's speed wanders by a fifth
//! over a few seconds: a shorter window sees too few of its moods.

/// `--seconds` the sizes below are calibrated for (`run_seconds` in
/// `BENCHMARK.json`).
pub const BASE_SECONDS: u64 = 15;

/// Default `--seed`: feeds every velocity draw; serve job *i* uses
/// `seed + i`.
pub const DEFAULT_SEED: u64 = 20_000;

/// Ewald accuracy parameter `s = α·r_cut/L = π·n_max/α` of every
/// workload (the repo's 1e-3 force-error operating point).
pub const ACCURACY_S: f64 = 3.2;

/// How a trajectory workload splits the Coulomb sum.
#[derive(Clone, Copy, Debug)]
pub enum OperatingPoint {
    /// WINE-2 + MDGRAPE-2 emulators; `α = 1.02·s·c` puts the real-space
    /// cutoff just inside a `c`-cells-per-side grid.
    Faithful { cells_per_side: f64 },
    /// MDGRAPE-2 real space at a fixed cutoff (Å), wavenumber part
    /// through the `pswf` mesh backend; `α = s·L/r_cut`.
    MeshPswf { r_cut: f64 },
}

/// One trajectory: molten NaCl at the paper's density, `dt = 2 fs`,
/// velocities drawn at 1074 K from the seed.
#[derive(Clone, Copy, Debug)]
pub struct TrajectorySpec {
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Rock-salt cells per side (N = 8·cells³).
    pub cells: usize,
    pub point: OperatingPoint,
    /// Timed steps at [`BASE_SECONDS`].
    pub base_steps: u64,
    /// Full set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Particles the force-error probe samples.
    pub probe_samples: usize,
}

/// One closed batch of jobs against an in-process `mdm_serve` daemon:
/// one client connection submits every job back to back, then polls
/// `list` until all are terminal. Population = jobs, no arrivals.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// `JobSpec::cells` (N = 8·cells³ at the crystal lattice constant).
    pub cells: u32,
    /// Steps per job.
    pub steps: u64,
    /// `ServerConfig::slice_steps`.
    pub slice_steps: u64,
    /// Jobs at [`BASE_SECONDS`].
    pub base_jobs: u64,
    /// Server set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

/// Board-pool size of the serve workloads.
pub const SERVE_BOARDS: usize = 2;
/// Admission bound of the serve workloads (never reached: no rejects).
pub const SERVE_QUEUE: usize = 64;
/// `list` polling interval of the serve client.
pub const POLL_MS: u64 = 20;
/// A job not terminal by then counts as failed.
pub const SERVE_DEADLINE_S: u64 = 120;

#[derive(Clone, Copy, Debug)]
pub enum Workload {
    Trajectory(TrajectorySpec),
    Serve(ServeSpec),
}

pub const ALL: &[Workload] = &[
    Workload::Trajectory(TrajectorySpec {
        name: "faithful_8k",
        why: "WINE-2 + MDGRAPE-2 emulators at N = 8000, 125 particles per cell: long real-space batches are ~73 % of the step and wine2 ~26 %, so a fused sweep or interact_cell SIMD must show here",
        cells: 10,
        point: OperatingPoint::Faithful { cells_per_side: 4.0 },
        base_steps: 30,
        setups: 3,
        probe_samples: 256,
    }),
    Workload::Trajectory(TrajectorySpec {
        name: "mesh_pswf_4k",
        why: "N = 4096 at r_cut 9 A through the serial pswf mesh (~76 % of the step), wine2 absent: mesh parallelisation shows here only, and a real-space win moves it by at most its ~23 % share",
        cells: 8,
        point: OperatingPoint::MeshPswf { r_cut: 9.0 },
        base_steps: 36,
        setups: 3,
        probe_samples: 256,
    }),
    Workload::Serve(ServeSpec {
        name: "serve_small",
        why: "24 N = 64 jobs in 96 slices on a 2-board in-process daemon: the cost is materialise + checkpoint + scheduling, not physics, so a slice-overhead fix must show here",
        cells: 2,
        steps: 20,
        slice_steps: 5,
        base_jobs: 24,
        setups: 9,
    }),
    Workload::Serve(ServeSpec {
        name: "serve_long",
        why: "9 N = 512 jobs in 36 long slices: the board lease is held for most of the makespan, so only in-lease costs or removing the lease show; a slice-overhead fix should leave it flat",
        cells: 4,
        steps: 40,
        slice_steps: 10,
        base_jobs: 9,
        setups: 9,
    }),
];

/// Scale a count calibrated for [`BASE_SECONDS`] to `seconds`.
pub fn scaled(base: u64, seconds: u64, floor: u64) -> u64 {
    ((base * seconds + BASE_SECONDS / 2) / BASE_SECONDS).max(floor)
}

impl Workload {
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Trajectory(t) => t.name,
            Workload::Serve(s) => s.name,
        }
    }

    pub fn why(&self) -> &'static str {
        match self {
            Workload::Trajectory(t) => t.why,
            Workload::Serve(s) => s.why,
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name() == name)
    }

    /// The `--quick` smoke size: N = 512 trajectories, 4 small jobs —
    /// every rung and check still runs, no number means anything.
    pub fn quick(self) -> Workload {
        match self {
            Workload::Trajectory(t) => Workload::Trajectory(TrajectorySpec {
                cells: 4,
                point: match t.point {
                    OperatingPoint::Faithful { .. } => OperatingPoint::Faithful {
                        cells_per_side: 3.0,
                    },
                    // 3 cells per side is the cell-index minimum.
                    OperatingPoint::MeshPswf { .. } => OperatingPoint::MeshPswf { r_cut: 8.0 },
                },
                base_steps: 3,
                setups: 1,
                probe_samples: 64,
                ..t
            }),
            Workload::Serve(s) => Workload::Serve(ServeSpec {
                cells: s.cells.min(3),
                steps: 2 * s.slice_steps.min(3),
                slice_steps: s.slice_steps.min(3),
                base_jobs: 4,
                setups: 1,
                ..s
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_scale_with_seconds() {
        assert_eq!(scaled(30, BASE_SECONDS, 2), 30);
        assert_eq!(scaled(30, 5, 2), 10);
        assert_eq!(scaled(9, 1, 2), 2);
        assert_eq!(scaled(24, 30, 2), 48);
    }

    #[test]
    fn four_uniquely_named_workloads() {
        assert_eq!(ALL.len(), 4);
        for w in ALL {
            assert_eq!(
                Workload::by_name(w.name()).map(|x| x.name()),
                Some(w.name())
            );
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
