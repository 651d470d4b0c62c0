//! Cycle and bandwidth accounting for WINE-2 — the numbers behind the
//! performance model's `t_wine` term — and [`bill`], which turns one
//! evaluation's particle and wave counts into the counters the machine's
//! clusters, boards and chips would have metered.

use crate::board::{BoardError, BYTES_PER_PARTICLE, PARTICLE_CAPACITY, WAVES_PER_BOARD};
use crate::chip::{pass_cycles, WAVES_PER_CHIP};
use crate::cluster::BOARDS_PER_CLUSTER;
use mdm_core::deal;

/// Pipeline clock (§3.4.3: 66.6 MHz).
pub const CLOCK_HZ: f64 = 66.6e6;

/// Flops credited per particle–wave DFT op (paper §2.3).
pub const FLOPS_PER_DFT_OP: f64 = 29.0;

/// Flops credited per particle–wave IDFT op (paper §2.3).
pub const FLOPS_PER_IDFT_OP: f64 = 35.0;

/// Flops per op at *peak* rating: the paper rates a chip at "about
/// 20 Gflops" = 8 pipelines × 66.6 MHz × 37.5 flops/op — the generic
/// hardware rating, higher than the 29/35 Ewald accounting credits.
pub const PEAK_FLOPS_PER_OP: f64 = 37.5;

/// CompactPCI bus bandwidth per cluster, bytes/s (32-bit 33 MHz PCI,
/// ~132 MB/s theoretical).
pub const CLUSTER_BUS_BYTES_PER_S: f64 = 132.0e6;

/// Hardware counters from one WINE-2 evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WineCounters {
    /// Particle–wave operations in DFT mode.
    pub dft_ops: u64,
    /// Particle–wave operations in IDFT mode.
    pub idft_ops: u64,
    /// Busy pipeline cycles (max over clusters — they run concurrently).
    pub cycles: u64,
    /// Bus bytes moved on the busiest cluster's CompactPCI bus.
    pub bus_bytes_per_cluster: u64,
    /// Number of waves processed.
    pub waves: u64,
    /// Number of particles processed.
    pub particles: u64,
}

impl WineCounters {
    /// Ewald-credited floating-point work (the paper's `64·N·N_wv` when
    /// DFT and IDFT each run once per particle–wave).
    pub fn credited_flops(&self) -> f64 {
        self.dft_ops as f64 * FLOPS_PER_DFT_OP + self.idft_ops as f64 * FLOPS_PER_IDFT_OP
    }

    /// Compute time at the hardware clock (seconds) — the lower bound
    /// the performance model starts from.
    pub fn compute_seconds(&self) -> f64 {
        self.cycles as f64 / CLOCK_HZ
    }

    /// Bus transfer time (seconds) on the busiest cluster.
    pub fn bus_seconds(&self) -> f64 {
        self.bus_bytes_per_cluster as f64 / CLUSTER_BUS_BYTES_PER_S
    }

    /// Fraction of pipeline slots doing useful DFT/IDFT work:
    /// `(dft_ops + idft_ops) / (cycles × total_pipelines)`. `cycles`
    /// is the busiest chip's count while chips run concurrently, so
    /// wave-batch padding (the per-chip `⌈waves/8⌉` round-up) and
    /// cluster imbalance both read as occupancy < 1. Sampled per step
    /// by the driver as the `wine.occupancy` gauge.
    pub fn pipeline_occupancy(&self, total_pipelines: u64) -> f64 {
        let slots = self.cycles as f64 * total_pipelines as f64;
        if slots <= 0.0 {
            return 0.0;
        }
        (self.dft_ops + self.idft_ops) as f64 / slots
    }
}

/// What one board is billed for one evaluation: its chunk loaded into
/// the particle memory, then a DFT and an IDFT of the whole wave table
/// streamed past it in batches of ≤ 256 waves, ≤ 16 to a chip.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct BoardBill {
    /// Particles dealt to the board.
    pub(crate) particles: u64,
    /// Particle–wave operations: one per particle and wave in each of
    /// the DFT and the IDFT.
    pub(crate) ops: u64,
    /// Busy cycles: the board's chips run in lock-step on one particle
    /// stream, so its time is its busiest chip's.
    pub(crate) cycles: u64,
    /// Bytes over the cluster's bus.
    pub(crate) bus_bytes: u64,
}

impl BoardBill {
    /// The bill of a board holding `particles` of the particles, for
    /// `waves` waves. An empty board is sent nothing and bills nothing.
    pub(crate) fn new(particles: usize, waves: usize) -> Self {
        if particles == 0 {
            return Self::default();
        }
        let (p, w) = (particles as u64, waves as u64);
        // Chip 0 holds 16 waves of every full batch and the first ≤ 16
        // of the last, partial one: no chip is busier.
        let (full, rest) = (waves / WAVES_PER_BOARD, waves % WAVES_PER_BOARD);
        let chip0 = full as u64 * pass_cycles(WAVES_PER_CHIP, p) + pass_cycles(rest.min(WAVES_PER_CHIP), p);
        Self {
            particles: p,
            ops: 2 * p * w,
            cycles: 2 * chip0,
            // The load; 16 B a wave up and 16 B of accumulators down for
            // the DFT; 24 B of coefficients a wave up and 12 B of force a
            // particle down for the IDFT.
            bus_bytes: BYTES_PER_PARTICLE as u64 * p + (16 + 16) * w + 24 * w + 12 * p,
        }
    }
}

/// Board `board`'s bill, boards numbered cluster by cluster, for one
/// evaluation of `particles` particles and `waves` waves on `clusters`
/// clusters (see [`bill`]): the host deals the particles to the
/// clusters, and a cluster its chunk to the boards, by
/// [`deal::contiguous`].
pub(crate) fn board_bill(particles: usize, waves: usize, clusters: usize, board: usize) -> BoardBill {
    let cluster = deal::contiguous(particles, clusters, board / BOARDS_PER_CLUSTER).len();
    let chunk = deal::contiguous(cluster, BOARDS_PER_CLUSTER, board % BOARDS_PER_CLUSTER);
    BoardBill::new(chunk.len(), waves)
}

/// The counters of one evaluation, billed by arithmetic: `particles`
/// particles dealt to `clusters` clusters in contiguous chunks, each
/// cluster's chunk dealt to its seven boards the same way, and every
/// board with particles billed its load, DFT and IDFT of `waves` waves
/// (`board_bill`). A chunk over a board's particle memory is refused —
/// the constraint that made the real machine split the particles — and
/// the host checks it before it packs anything.
pub fn bill(particles: usize, waves: usize, clusters: usize) -> Result<WineCounters, BoardError> {
    // Board 0 holds the largest chunk: the first a load would refuse,
    // and the busiest.
    let busiest = board_bill(particles, waves, clusters, 0);
    if busiest.particles > PARTICLE_CAPACITY as u64 {
        return Err(BoardError::ParticleMemoryOverflow {
            requested: busiest.particles as usize,
            capacity: PARTICLE_CAPACITY,
        });
    }
    // A cluster's boards share its bus, so their transfers add up.
    let bus_bytes_per_cluster = (0..clusters)
        .map(|c| {
            let boards = c * BOARDS_PER_CLUSTER..(c + 1) * BOARDS_PER_CLUSTER;
            boards.map(|b| board_bill(particles, waves, clusters, b).bus_bytes).sum()
        })
        .max()
        .unwrap_or(0);
    let ops = (particles * waves) as u64;
    Ok(WineCounters {
        dft_ops: ops,
        idft_ops: ops,
        cycles: busiest.cycles,
        bus_bytes_per_cluster,
        waves: waves as u64,
        particles: particles as u64,
    })
}

/// Peak rated flops of a WINE-2 configuration: every pipeline doing one
/// op per cycle at the hardware rating. The paper quotes "about
/// 20 Gflops" per chip, 45 Tflops for 2,240 chips, 54 for 2,688.
pub fn peak_flops(chips: usize) -> f64 {
    let pipes = chips as f64 * crate::chip::PIPELINES_PER_CHIP as f64;
    pipes * CLOCK_HZ * PEAK_FLOPS_PER_OP
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_peak_is_about_20_gflops() {
        let per_chip = peak_flops(1);
        assert!((15e9..22e9).contains(&per_chip), "{per_chip}");
    }

    #[test]
    fn system_peak_is_about_45_tflops() {
        let sys = peak_flops(2240);
        assert!((35e12..50e12).contains(&sys), "{sys}");
    }

    #[test]
    fn credited_flops_formula() {
        let c = WineCounters {
            dft_ops: 100,
            idft_ops: 100,
            ..Default::default()
        };
        assert_eq!(c.credited_flops(), 6400.0); // 64 per pair of ops
    }

    #[test]
    fn compute_seconds() {
        let c = WineCounters {
            cycles: 66_600_000,
            ..Default::default()
        };
        assert!((c.compute_seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pipeline_occupancy_counts_both_transform_directions() {
        let c = WineCounters {
            dft_ops: 300,
            idft_ops: 500,
            cycles: 100,
            ..Default::default()
        };
        // 10 pipelines × 100 cycles = 1000 slots, 800 busy.
        assert!((c.pipeline_occupancy(10) - 0.8).abs() < 1e-12);
        assert_eq!(WineCounters::default().pipeline_occupancy(10), 0.0);
    }
}
