//! The WINE-2 chip (paper Fig. 6): eight pipelines behind one interface,
//! each holding **two** resident waves (the figure's `a₂ₙ₋₁, a₂ₙ` pairs)
//! — so a chip processes up to 16 waves per particle stream.

use crate::pipeline::{DftAccum, IdftAccum, IdftWave, WineParticle, WinePipeline};
#[cfg(test)]
use mdm_fixed::SinCosTable;

/// Waves resident per pipeline.
pub const WAVES_PER_PIPELINE: usize = 2;
/// Pipelines per chip.
pub const PIPELINES_PER_CHIP: usize = 8;
/// Waves a chip can hold per pass.
pub const WAVES_PER_CHIP: usize = WAVES_PER_PIPELINE * PIPELINES_PER_CHIP;

/// Cycles of one pass: `P` particles against `w ≤ 16` resident waves
/// take `P·⌈w/8⌉` (each pipeline serves its two waves on alternate
/// cycles).
fn pass_cycles(waves: usize, particles: u64) -> u64 {
    particles * waves.div_ceil(PIPELINES_PER_CHIP) as u64
}

/// One WINE-2 chip: 8 pipelines plus cycle accounting.
#[derive(Clone, Debug)]
pub struct WineChip {
    /// Held inline: a 20-cluster machine has 2,240 chips, and billing
    /// walks every one of them each evaluation.
    pipelines: [WinePipeline; PIPELINES_PER_CHIP],
    cycles: u64,
}

impl Default for WineChip {
    fn default() -> Self {
        Self::new()
    }
}

impl WineChip {
    /// A chip with freshly initialised pipelines.
    pub fn new() -> Self {
        Self {
            pipelines: std::array::from_fn(|_| WinePipeline::new()),
            cycles: 0,
        }
    }

    /// Particle–wave operations executed (sum over pipelines).
    pub fn ops(&self) -> u64 {
        self.pipelines.iter().map(WinePipeline::ops).sum()
    }

    /// Busy cycles: a particle stream of length `P` against `w ≤ 16`
    /// resident waves takes `P·⌈w/8⌉` cycles (each pipeline serves its
    /// two waves on alternate cycles).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The sine/cosine ROM the chip's pipelines read (one host-memory
    /// image for the whole emulator, see [`WinePipeline`]; the
    /// ROM-sharing tests compare addresses).
    #[cfg(test)]
    pub(crate) fn rom(&self) -> &'static SinCosTable {
        self.pipelines[0].trig()
    }

    /// Clear counters.
    pub fn reset_counters(&mut self) {
        self.cycles = 0;
        for p in &mut self.pipelines {
            p.reset_ops();
        }
    }

    /// Bill `passes` passes of `waves ≤ 16` resident waves over a stream
    /// of `particles`: one op per particle to the pipeline holding each
    /// wave (dealt round-robin, so pipeline `k` holds the waves
    /// `k, k + 8, …`), `P·⌈w/8⌉` cycles to the chip. The wavenumber sweep
    /// ([`crate::sweep`]) computes the system's results in its own order
    /// and bills every chip pass through here, exactly as
    /// [`Self::dft_pass`] and [`Self::idft_pass`] bill themselves.
    pub(crate) fn credit_passes(&mut self, passes: u64, waves: usize, particles: u64) {
        assert!(waves <= WAVES_PER_CHIP, "chip holds at most 16 waves");
        for (k, pipeline) in self.pipelines.iter_mut().enumerate() {
            let held = waves.saturating_sub(k).div_ceil(PIPELINES_PER_CHIP) as u64;
            pipeline.add_ops(passes * held * particles);
        }
        self.cycles += passes * pass_cycles(waves, particles);
    }

    /// DFT pass: up to [`WAVES_PER_CHIP`] waves over one particle stream,
    /// each on the pipeline that holds it (dealt round-robin). Returns
    /// one accumulator per wave, in input order.
    pub fn dft_pass(&mut self, waves: &[[i32; 3]], particles: &[WineParticle]) -> Vec<DftAccum> {
        assert!(waves.len() <= WAVES_PER_CHIP, "chip holds at most 16 waves");
        let out = waves
            .iter()
            .enumerate()
            .map(|(w, &n)| self.pipelines[w % PIPELINES_PER_CHIP].dft_wave(n, particles))
            .collect();
        self.cycles += pass_cycles(waves.len(), particles.len() as u64);
        out
    }

    /// IDFT pass: up to 16 resident waves accumulated into the shared
    /// per-particle force accumulators (op and cycle attribution as in
    /// [`Self::dft_pass`]).
    pub fn idft_pass(
        &mut self,
        waves: &[IdftWave],
        particles: &[WineParticle],
        out: &mut [IdftAccum],
    ) {
        assert!(waves.len() <= WAVES_PER_CHIP, "chip holds at most 16 waves");
        for (w, wave) in waves.iter().enumerate() {
            self.pipelines[w % PIPELINES_PER_CHIP].idft_wave(wave, particles, out);
        }
        self.cycles += pass_cycles(waves.len(), particles.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_fixed::Q30;

    fn particles(n: usize) -> Vec<WineParticle> {
        (0..n)
            .map(|i| {
                WineParticle::quantize(
                    [0.017 * i as f64 % 1.0, 0.31 * i as f64 % 1.0, 0.73 * i as f64 % 1.0],
                    if i % 2 == 0 { 0.9 } else { -0.9 },
                )
            })
            .collect()
    }

    #[test]
    fn dft_pass_returns_one_accum_per_wave() {
        let mut chip = WineChip::new();
        let waves: Vec<[i32; 3]> = (1..=16).map(|i| [i, 0, 0]).collect();
        let out = chip.dft_pass(&waves, &particles(10));
        assert_eq!(out.len(), 16);
        // 16 waves over 10 particles: 10 × ⌈16/8⌉ = 20 cycles, 160 ops.
        assert_eq!(chip.cycles(), 20);
        assert_eq!(chip.ops(), 160);
    }

    #[test]
    fn partial_wave_load_cycles() {
        let mut chip = WineChip::new();
        let waves: Vec<[i32; 3]> = (1..=5).map(|i| [0, i, 0]).collect();
        chip.dft_pass(&waves, &particles(7));
        // 5 waves fit in one wave-slot round: 7 × ⌈5/8⌉ = 7 cycles.
        assert_eq!(chip.cycles(), 7);
    }

    #[test]
    #[should_panic]
    fn overloading_the_chip_panics() {
        let mut chip = WineChip::new();
        let waves: Vec<[i32; 3]> = (0..17).map(|i| [i, 0, 0]).collect();
        chip.dft_pass(&waves, &particles(1));
    }

    #[test]
    fn idft_pass_accumulates_all_waves() {
        let mut chip = WineChip::new();
        let ps = particles(4);
        let waves: Vec<IdftWave> = (1..=3)
            .map(|i| IdftWave {
                n: [i, i, 0],
                u: Q30::from_f64(0.1 * i as f64),
                v: Q30::from_f64(-0.2 * i as f64),
            })
            .collect();
        let mut acc = vec![Default::default(); 4];
        chip.idft_pass(&waves, &ps, &mut acc);
        assert_eq!(chip.ops(), 12);
        // Same pass issued one wave at a time agrees exactly.
        let mut chip2 = WineChip::new();
        let mut acc2 = vec![Default::default(); 4];
        for w in &waves {
            chip2.idft_pass(std::slice::from_ref(w), &ps, &mut acc2);
        }
        for (a, b) in acc.iter().zip(&acc2) {
            let (fa, fb): (&IdftAccum, &IdftAccum) = (a, b);
            assert_eq!(fa.to_f64(), fb.to_f64());
        }
    }

    #[test]
    fn credited_passes_bill_each_pipeline_as_streamed_passes() {
        let ps = particles(7);
        for waves in 0..=WAVES_PER_CHIP {
            let table: Vec<[i32; 3]> = (0..waves as i32).map(|i| [i, 1, 0]).collect();
            let mut streamed = WineChip::new();
            for _ in 0..3 {
                streamed.dft_pass(&table, &ps);
            }
            let mut billed = WineChip::new();
            billed.credit_passes(3, waves, ps.len() as u64);
            let ops = |c: &WineChip| c.pipelines.iter().map(WinePipeline::ops).collect::<Vec<_>>();
            assert_eq!(ops(&billed), ops(&streamed), "{waves} waves");
            assert_eq!(billed.cycles(), streamed.cycles(), "{waves} waves");
        }
    }

    #[test]
    fn reset_counters() {
        let mut chip = WineChip::new();
        chip.dft_pass(&[[1, 2, 3]], &particles(5));
        assert!(chip.ops() > 0);
        chip.reset_counters();
        assert_eq!(chip.ops(), 0);
        assert_eq!(chip.cycles(), 0);
    }
}
