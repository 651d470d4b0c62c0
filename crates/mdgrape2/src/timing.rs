//! Cycle and bandwidth accounting for MDGRAPE-2 — the numbers behind
//! the performance model's `t_mdg` term — and [`bill`], which turns one
//! pass's i-particles and their 27-cell blocks into the counters the
//! machine's boards would have metered.

use crate::board::{MdgBoardError, PARTICLE_CAPACITY, PIPELINES_PER_BOARD};
use crate::cluster::BOARDS_PER_CLUSTER;
use crate::jstore::JStore;
use crate::plan::TilePlan;
use mdm_core::deal;

/// Pipeline clock (§3.5.3: 100 MHz).
pub const CLOCK_HZ: f64 = 100.0e6;

/// Flops the Ewald accounting credits per real-space pair (paper §2.2).
pub const FLOPS_PER_PAIR: f64 = 59.0;

/// Flops per pair at *peak* rating: the paper rates a chip at
/// "about 16 Gflops" = 4 pipelines × 100 MHz × 40 flops/pair.
pub const PEAK_FLOPS_PER_PAIR: f64 = 40.0;

/// PCI bus bandwidth per cluster, bytes/s (32-bit 33 MHz).
pub const CLUSTER_BUS_BYTES_PER_S: f64 = 132.0e6;

/// Hardware counters from one MDGRAPE-2 pass (or a composed step).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MdgCounters {
    /// Pair operations executed.
    pub pair_ops: u64,
    /// Busy cycles of the most-loaded board (boards run concurrently;
    /// within a board the 8 pipelines run in parallel).
    pub cycles: u64,
    /// Bus bytes on the busiest cluster.
    pub bus_bytes_per_cluster: u64,
    /// i-particles processed.
    pub particles: u64,
}

impl MdgCounters {
    /// Ewald-credited floating-point work (`59·N·N_int_g` for the
    /// Coulomb pass).
    pub fn credited_flops(&self) -> f64 {
        self.pair_ops as f64 * FLOPS_PER_PAIR
    }

    /// Compute time at the hardware clock (seconds).
    pub fn compute_seconds(&self) -> f64 {
        self.cycles as f64 / CLOCK_HZ
    }

    /// Bus transfer time on the busiest cluster (seconds).
    pub fn bus_seconds(&self) -> f64 {
        self.bus_bytes_per_cluster as f64 / CLUSTER_BUS_BYTES_PER_S
    }

    /// Fraction of pipeline slots doing useful pair work: `pair_ops /
    /// (cycles × total_pipelines)`. `cycles` is the busy time of the
    /// most-loaded board while boards run concurrently, so imbalance
    /// (some boards idle while the slowest finishes) and ragged tail
    /// cells both show up as occupancy < 1. This is the per-step
    /// utilization gauge the driver samples (`mdg.occupancy`).
    pub fn pipeline_occupancy(&self, total_pipelines: u64) -> f64 {
        let slots = self.cycles as f64 * total_pipelines as f64;
        if slots <= 0.0 {
            return 0.0;
        }
        self.pair_ops as f64 / slots
    }

    /// Achieved j-store upload bandwidth in bytes/s, given the wall
    /// clock the uploads actually took (the driver measures the
    /// `comm.upload` spans). The modeled ceiling is
    /// [`CLUSTER_BUS_BYTES_PER_S`]; the emulated ratio shows how far
    /// the software bus is from PCI.
    pub fn upload_bandwidth(&self, upload_wall_seconds: f64) -> f64 {
        if upload_wall_seconds <= 0.0 {
            return 0.0;
        }
        self.bus_bytes_per_cluster as f64 / upload_wall_seconds
    }

    /// Merge counters from passes executed back to back.
    pub fn merge(&mut self, other: &MdgCounters) {
        self.pair_ops += other.pair_ops;
        self.cycles += other.cycles;
        self.bus_bytes_per_cluster += other.bus_bytes_per_cluster;
        self.particles = self.particles.max(other.particles);
    }
}

impl MdgCounters {
    /// The counters of one pass on `clusters` clusters from its boards'
    /// bills, `board(b)` for boards numbered cluster by cluster: the
    /// pair ops of them all; the busiest board's cycles, its ops over its
    /// eight pipelines (boards run concurrently, and a board's pipelines
    /// share its i-stream); and the busiest cluster's bus bytes, its two
    /// boards' added (they share the bus).
    pub(crate) fn of_boards(clusters: usize, particles: usize, board: impl Fn(usize) -> BoardBill) -> Self {
        let mut counters = Self { particles: particles as u64, ..Self::default() };
        for c in 0..clusters {
            let mut bus_bytes = 0;
            for b in c * BOARDS_PER_CLUSTER..(c + 1) * BOARDS_PER_CLUSTER {
                let bill = board(b);
                counters.pair_ops += bill.pair_ops;
                counters.cycles = counters.cycles.max(bill.pair_ops.div_ceil(PIPELINES_PER_BOARD as u64));
                bus_bytes += bill.bus_bytes;
            }
            counters.bus_bytes_per_cluster = counters.bus_bytes_per_cluster.max(bus_bytes);
        }
        counters
    }
}

/// What one board is billed for one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoardBill {
    /// Pair operations its chips executed.
    pub pair_ops: u64,
    /// Bytes over its bus: the j-store upload and 24 B of read-back per
    /// i-particle.
    pub bus_bytes: u64,
}

/// A board accepting `jstore` into its 8 MB SSRAM: the upload's bus
/// bytes, or the overflow that refuses it.
pub(crate) fn upload(jstore: &JStore) -> Result<u64, MdgBoardError> {
    if jstore.len() > PARTICLE_CAPACITY {
        return Err(MdgBoardError::ParticleMemoryOverflow {
            requested: jstore.len(),
            capacity: PARTICLE_CAPACITY,
        });
    }
    Ok(jstore.upload_bytes())
}

/// Board `b`'s bill for one hardware-faithful pass over `jstore`'s
/// particles on `clusters` clusters, which deals the i-particles to the
/// boards in original index order ([`deal::contiguous`]): each
/// i-particle of its chunk at its home cell's 27-cell block minus the
/// self pair (the block lengths of `plan`, which must be up to date with
/// `jstore`), the store's upload and the read-back — what
/// [`MdgBoard::calc_block2`] meters on that chunk. An idle board is not
/// sent the store and bills nothing.
///
/// [`MdgBoard::calc_block2`]: crate::board::MdgBoard::calc_block2
pub fn board_bill(clusters: usize, jstore: &JStore, plan: &TilePlan, b: usize) -> BoardBill {
    let chunk = deal::contiguous(jstore.len(), clusters * BOARDS_PER_CLUSTER, b);
    if chunk.is_empty() {
        return BoardBill::default();
    }
    let block_len = plan.block_len();
    BoardBill {
        pair_ops: chunk.clone().map(|i| block_len[jstore.cell_of(i)] - 1).sum(),
        bus_bytes: jstore.upload_bytes() + 24 * chunk.len() as u64,
    }
}

/// The counters of one hardware-faithful pass, billed by arithmetic and
/// without an object per cluster, board or chip: `jstore`'s particles
/// dealt to the boards in contiguous chunks, every board billed by
/// [`board_bill`]. A j-store over a board's SSRAM is refused before
/// anything is billed.
pub fn bill(clusters: usize, jstore: &JStore, plan: &TilePlan) -> Result<MdgCounters, MdgBoardError> {
    upload(jstore)?;
    Ok(MdgCounters::of_boards(clusters, jstore.len(), |b| board_bill(clusters, jstore, plan, b)))
}

/// Peak rated flops of an MDGRAPE-2 configuration (the paper's
/// "1 Tflops" for 64 chips, "25 Tflops" for 1,536).
pub fn peak_flops(chips: usize) -> f64 {
    chips as f64 * crate::chip::PIPELINES_PER_CHIP as f64 * CLOCK_HZ * PEAK_FLOPS_PER_PAIR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_peak_is_16_gflops() {
        assert!((peak_flops(1) - 16e9).abs() < 1e6);
    }

    #[test]
    fn current_system_peak_is_about_1_tflops() {
        let p = peak_flops(64);
        assert!((0.9e12..1.1e12).contains(&p), "{p}");
    }

    #[test]
    fn future_system_peak_is_about_25_tflops() {
        let p = peak_flops(1536);
        assert!((24e12..26e12).contains(&p), "{p}");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = MdgCounters {
            pair_ops: 10,
            cycles: 5,
            bus_bytes_per_cluster: 100,
            particles: 3,
        };
        a.merge(&MdgCounters {
            pair_ops: 20,
            cycles: 7,
            bus_bytes_per_cluster: 50,
            particles: 3,
        });
        assert_eq!(a.pair_ops, 30);
        assert_eq!(a.cycles, 12);
        assert_eq!(a.bus_bytes_per_cluster, 150);
    }

    #[test]
    fn pipeline_occupancy_is_work_over_slots() {
        let c = MdgCounters {
            pair_ops: 600,
            cycles: 100,
            ..Default::default()
        };
        // 8 pipelines × 100 cycles = 800 slots, 600 of them busy.
        assert!((c.pipeline_occupancy(8) - 0.75).abs() < 1e-12);
        // Perfectly packed pipelines reach exactly 1.
        let full = MdgCounters {
            pair_ops: 800,
            cycles: 100,
            ..Default::default()
        };
        assert_eq!(full.pipeline_occupancy(8), 1.0);
        // No cycles (empty pass) reads as idle, not a division blowup.
        assert_eq!(MdgCounters::default().pipeline_occupancy(8), 0.0);
    }

    #[test]
    fn upload_bandwidth_is_bytes_over_wall() {
        let c = MdgCounters {
            bus_bytes_per_cluster: 132_000_000,
            ..Default::default()
        };
        assert!((c.upload_bandwidth(1.0) - CLUSTER_BUS_BYTES_PER_S).abs() < 1.0);
        assert_eq!(c.upload_bandwidth(0.0), 0.0);
    }
}
