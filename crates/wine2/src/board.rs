//! The WINE-2 board (paper Fig. 5): 16 chips, the interface
//! logic / particle index counter (an FPGA on the real board), and
//! 16 MB of SDRAM particle memory.
//!
//! A board holds a subset of the particles in its memory for the whole
//! step and streams wave batches (≤ 256 waves, 16 per chip) past them —
//! the dataflow that keeps the bus traffic linear in `N` while the
//! compute is `N·N_wv`.
//!
//! That dataflow is what the board *bills*: ops per pipeline, cycles per
//! chip and bytes per bus, all by arithmetic on its resident count. What
//! the host *executes* is the wavenumber sweep (the `sweep` module) over
//! the particle memory of the whole system ([`crate::system`]), where
//! every board's chunk lies packed in one column, so a board keeps its
//! capacity check and its counters but no columns of its own.

use crate::chip::{WineChip, WAVES_PER_CHIP};
use crate::pipeline::WineParticle;

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

/// One WINE-2 board: its chips and the size of its particle memory's
/// contents.
#[derive(Clone, Debug)]
pub struct WineBoard {
    chips: Vec<WineChip>,
    /// Particles resident in the SDRAM.
    particles: usize,
    /// Bytes moved over the board's bus interface (loads + read-backs).
    bus_bytes: u64,
}

impl Default for WineBoard {
    fn default() -> Self {
        Self::new()
    }
}

impl WineBoard {
    /// An empty board.
    pub fn new() -> Self {
        Self {
            chips: (0..CHIPS_PER_BOARD).map(|_| WineChip::new()).collect(),
            particles: 0,
            bus_bytes: 0,
        }
    }

    /// Load the board's particle subset into SDRAM (counted as bus
    /// traffic). Fails if the subset exceeds the memory capacity —
    /// the same constraint that forced the real machine to split
    /// particles across boards. The words themselves are packed by the
    /// system ([`crate::system::Wine2System`]).
    pub fn load_particles(&mut self, particles: &[WineParticle]) -> Result<(), BoardError> {
        if particles.len() > PARTICLE_CAPACITY {
            return Err(BoardError::ParticleMemoryOverflow {
                requested: particles.len(),
                capacity: PARTICLE_CAPACITY,
            });
        }
        self.particles = particles.len();
        self.bus_bytes += (particles.len() * BYTES_PER_PARTICLE) as u64;
        Ok(())
    }

    /// The chips (the ROM-sharing tests walk them).
    #[cfg(test)]
    pub(crate) fn chips(&self) -> &[WineChip] {
        &self.chips
    }

    /// Number of particles resident.
    pub fn particle_count(&self) -> usize {
        self.particles
    }

    /// Total particle–wave ops across the chips.
    pub fn ops(&self) -> u64 {
        self.chips.iter().map(WineChip::ops).sum()
    }

    /// Busy cycles: chips run in lock-step on the shared particle
    /// stream, so the board time per pass is the maximum over chips;
    /// accumulated here as the sum over passes of that maximum — which
    /// equals any single chip's cycle count because the wave batches are
    /// dealt round-robin.
    pub fn cycles(&self) -> u64 {
        self.chips.iter().map(WineChip::cycles).max().unwrap_or(0)
    }

    /// Bus traffic so far, bytes.
    pub fn bus_bytes(&self) -> u64 {
        self.bus_bytes
    }

    /// Reset all counters (between steps).
    pub fn reset_counters(&mut self) {
        self.bus_bytes = 0;
        for c in &mut self.chips {
            c.reset_counters();
        }
    }

    /// Bill the chip passes of `waves` waves streamed past the resident
    /// particles — batches of ≤ 256 waves per board pass, ≤ 16 per chip,
    /// so every chip holds 16 waves of each full batch and chip `c` the
    /// waves `16c ..` of the last, partial one — and `bus_bytes_per_wave`
    /// of bus traffic for each wave.
    fn credit_passes(&mut self, waves: usize, bus_bytes_per_wave: usize) {
        let particles = self.particles as u64;
        let (full, rest) = (waves / WAVES_PER_BOARD, waves % WAVES_PER_BOARD);
        for (c, chip) in self.chips.iter_mut().enumerate() {
            chip.credit_passes(full as u64, WAVES_PER_CHIP, particles);
            let last = rest.saturating_sub(c * WAVES_PER_CHIP).min(WAVES_PER_CHIP);
            if last > 0 {
                chip.credit_passes(1, last, particles);
            }
        }
        self.bus_bytes += (waves * bus_bytes_per_wave) as u64;
    }

    /// Bill a DFT over `waves` waves: the chip passes, plus 16 B per wave
    /// up and 16 B per accumulator pair down on the bus.
    pub(crate) fn credit_dft(&mut self, waves: usize) {
        self.credit_passes(waves, 16 + 16);
    }

    /// Bill an IDFT over `waves` waves: the chip passes, plus 24 B of
    /// coefficients per wave up and 12 B of force per particle down.
    pub(crate) fn credit_idft(&mut self, waves: usize) {
        self.credit_passes(waves, 24);
        self.bus_bytes += (self.particles * 12) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particles(n: usize) -> Vec<WineParticle> {
        (0..n)
            .map(|i| {
                WineParticle::quantize(
                    [
                        (0.1 + 0.37 * i as f64) % 1.0,
                        (0.5 + 0.21 * i as f64) % 1.0,
                        (0.9 + 0.11 * i as f64) % 1.0,
                    ],
                    if i % 2 == 0 { 1.0 } else { -1.0 },
                )
            })
            .collect()
    }

    #[test]
    fn capacity_is_one_megaparticle() {
        assert_eq!(PARTICLE_CAPACITY, 1024 * 1024);
    }

    #[test]
    fn overflow_rejected() {
        let mut b = WineBoard::new();
        let too_many = vec![WineParticle::quantize([0.0; 3], 0.0); PARTICLE_CAPACITY + 1];
        assert!(matches!(
            b.load_particles(&too_many),
            Err(BoardError::ParticleMemoryOverflow { .. })
        ));
    }

    #[test]
    fn multi_batch_dft_matches_single_chip_result() {
        // 300 waves → two board passes. The chips' own DFT passes, dealt
        // as the board deals a batch, agree with a lone pipeline, and
        // `credit_dft` bills exactly the ops and cycles they counted.
        let ps = particles(20);
        let waves: Vec<[i32; 3]> = (0..300).map(|i| [i % 13 - 6, i % 7 - 3, i % 5 + 1]).collect();
        let mut streamed = WineBoard::new();
        let mut out = Vec::new();
        for batch in waves.chunks(WAVES_PER_BOARD) {
            for (chip, group) in streamed.chips.iter_mut().zip(batch.chunks(WAVES_PER_CHIP)) {
                out.extend(chip.dft_pass(group, &ps));
            }
        }
        assert_eq!(out.len(), 300);
        let mut lone = crate::pipeline::WinePipeline::new();
        for &w in [0usize, 17, 255, 256, 299].iter() {
            let reference = lone.dft_wave(waves[w], &ps);
            assert_eq!(out[w].resolve(), reference.resolve(), "wave {w}");
        }
        let mut billed = WineBoard::new();
        billed.load_particles(&ps).unwrap();
        billed.credit_dft(waves.len());
        for (a, b) in billed.chips.iter().zip(&streamed.chips) {
            assert_eq!((a.ops(), a.cycles()), (b.ops(), b.cycles()));
        }
    }

    #[test]
    fn ops_count_is_particles_times_waves() {
        let mut b = WineBoard::new();
        b.load_particles(&particles(11)).unwrap();
        b.credit_dft(40);
        assert_eq!(b.ops(), 11 * 40);
    }

    #[test]
    fn bus_accounting() {
        let mut b = WineBoard::new();
        b.load_particles(&particles(10)).unwrap();
        let load_bytes = 10 * BYTES_PER_PARTICLE as u64;
        assert_eq!(b.bus_bytes(), load_bytes);
        b.credit_dft(8);
        // + 8 waves up + 8 accumulators down at 16 B each.
        assert_eq!(b.bus_bytes(), load_bytes + 8 * 16 * 2);
    }

    #[test]
    fn idft_output_length_matches_particles() {
        // The IDFT reads back one 12 B force word per resident particle.
        let mut b = WineBoard::new();
        b.load_particles(&particles(9)).unwrap();
        b.reset_counters();
        b.credit_idft(20);
        assert_eq!(b.bus_bytes(), 20 * 24 + 9 * 12);
        assert_eq!(b.ops(), 9 * 20);
    }
}
