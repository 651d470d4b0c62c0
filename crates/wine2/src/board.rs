//! The WINE-2 board (paper Fig. 5): 16 chips, the interface
//! logic / particle index counter (an FPGA on the real board), and
//! 16 MB of SDRAM particle memory.
//!
//! A board holds a subset of the particles in its memory for the whole
//! step and streams wave batches (≤ 256 waves, 16 per chip) past them —
//! the dataflow that keeps the bus traffic linear in `N` while the
//! compute is `N·N_wv`.
//!
//! That dataflow is what a board *bills*, by arithmetic on its resident
//! count ([`crate::timing::bill`]); the emulator builds no board.
//! What the host *executes* is the wavenumber sweep (the `sweep` module)
//! over one packed particle column for the whole system
//! ([`crate::system`]).

use crate::chip::WAVES_PER_CHIP;

/// Chips per board (Fig. 4b).
pub const CHIPS_PER_BOARD: usize = 16;
/// Waves resident per board pass.
pub const WAVES_PER_BOARD: usize = CHIPS_PER_BOARD * WAVES_PER_CHIP;
/// Particle memory size: 16 MB SDRAM (§3.4.2).
pub const PARTICLE_MEMORY_BYTES: usize = 16 * 1024 * 1024;
/// Bytes per stored particle: 3 × 4-byte fixed-point coordinates plus a
/// 4-byte charge word.
pub const BYTES_PER_PARTICLE: usize = 16;
/// Particles a board's memory can hold.
pub const PARTICLE_CAPACITY: usize = PARTICLE_MEMORY_BYTES / BYTES_PER_PARTICLE;

/// Board-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoardError {
    /// More particles than the 16 MB SDRAM holds.
    ParticleMemoryOverflow {
        /// Requested number of particles.
        requested: usize,
        /// The fixed capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for BoardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParticleMemoryOverflow { requested, capacity } => write!(
                f,
                "particle memory overflow: {requested} particles > capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for BoardError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::tests::{idft_waves, particles, StreamedChip};
    use crate::pipeline::{IdftAccum, WinePipeline};
    use crate::timing::{bill, BoardBill};

    #[test]
    fn capacity_is_one_megaparticle() {
        assert_eq!(PARTICLE_CAPACITY, 1024 * 1024);
    }

    #[test]
    fn overflow_rejected() {
        // One cluster's seven boards: ⌈(7C + 1)/7⌉ = C + 1 on board 0.
        assert_eq!(
            bill(7 * PARTICLE_CAPACITY + 1, 10, 1),
            Err(BoardError::ParticleMemoryOverflow {
                requested: PARTICLE_CAPACITY + 1,
                capacity: PARTICLE_CAPACITY,
            })
        );
        assert!(bill(7 * PARTICLE_CAPACITY, 10, 1).is_ok());
    }

    #[test]
    fn multi_batch_dft_matches_single_chip_result() {
        // 300 waves → two board passes. The chips' own passes, dealt as
        // the board deals a batch, agree with a lone pipeline, and the
        // board's bill is exactly the ops and busiest-chip cycles they
        // counted over a DFT and an IDFT.
        let ps = particles(20);
        let waves: Vec<[i32; 3]> = (0..300).map(|i| [i % 13 - 6, i % 7 - 3, i % 5 + 1]).collect();
        let idft = idft_waves(&waves);
        let mut chips: Vec<StreamedChip> = (0..CHIPS_PER_BOARD).map(|_| StreamedChip::default()).collect();
        let mut out = Vec::new();
        let mut forces = vec![IdftAccum::default(); ps.len()];
        for (batch, idft_batch) in waves.chunks(WAVES_PER_BOARD).zip(idft.chunks(WAVES_PER_BOARD)) {
            let groups = batch.chunks(WAVES_PER_CHIP).zip(idft_batch.chunks(WAVES_PER_CHIP));
            for (chip, (group, idft_group)) in chips.iter_mut().zip(groups) {
                out.extend(chip.dft_pass(group, &ps));
                chip.idft_pass(idft_group, &ps, &mut forces);
            }
        }
        assert_eq!(out.len(), 300);
        let mut lone = WinePipeline::new();
        for &w in [0usize, 17, 255, 256, 299].iter() {
            let reference = lone.dft_wave(waves[w], &ps);
            assert_eq!(out[w].resolve(), reference.resolve(), "wave {w}");
        }
        let billed = BoardBill::new(ps.len(), waves.len());
        let ops: u64 = chips.iter().map(StreamedChip::ops).sum();
        let cycles = chips.iter().map(|c| c.cycles).max().unwrap();
        assert_eq!((billed.ops, billed.cycles), (ops, cycles));
    }

    #[test]
    fn ops_count_is_particles_times_waves() {
        // One op per particle and wave, in each direction.
        assert_eq!(BoardBill::new(11, 40).ops, 2 * 11 * 40);
        assert_eq!(BoardBill::new(0, 40), BoardBill::default());
    }

    #[test]
    fn bus_accounting() {
        // 16 B a particle loaded, 8 waves up and 8 accumulators down at
        // 16 B each, 24 B of coefficients a wave up and 12 B of force a
        // particle down.
        let load_bytes = 10 * BYTES_PER_PARTICLE as u64;
        assert_eq!(BoardBill::new(10, 8).bus_bytes, load_bytes + 8 * 16 * 2 + 8 * 24 + 10 * 12);
    }

    #[test]
    fn idft_output_length_matches_particles() {
        // The IDFT reads back one 12 B force word per resident particle,
        // beyond the particle's 16 B load.
        let (nine, ten) = (BoardBill::new(9, 20), BoardBill::new(10, 20));
        assert_eq!(ten.bus_bytes - nine.bus_bytes, 16 + 12);
        assert_eq!(nine.ops, 2 * 9 * 20);
    }
}
