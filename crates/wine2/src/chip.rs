//! The WINE-2 chip (paper Fig. 6): eight pipelines behind one interface,
//! each holding **two** resident waves (the figure's `a₂ₙ₋₁, a₂ₙ` pairs)
//! — so a chip processes up to 16 waves per particle stream.
//!
//! The emulator builds no chip: [`crate::timing::bill`] bills every chip
//! pass from these numbers and `pass_cycles`, and the wavenumber sweep
//! computes what the pipelines would.

/// Waves resident per pipeline.
pub const WAVES_PER_PIPELINE: usize = 2;
/// Pipelines per chip.
pub const PIPELINES_PER_CHIP: usize = 8;
/// Waves a chip can hold per pass.
pub const WAVES_PER_CHIP: usize = WAVES_PER_PIPELINE * PIPELINES_PER_CHIP;

/// Cycles of one pass: `P` particles against `w ≤ 16` resident waves
/// take `P·⌈w/8⌉` (each pipeline serves its two waves on alternate
/// cycles).
pub(crate) fn pass_cycles(waves: usize, particles: u64) -> u64 {
    assert!(waves <= WAVES_PER_CHIP, "chip holds at most 16 waves");
    particles * waves.div_ceil(PIPELINES_PER_CHIP) as u64
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::{DftAccum, IdftAccum, IdftWave, WineParticle, WinePipeline};
    use crate::timing::BoardBill;
    use mdm_fixed::Q30;

    /// A chip pass as the silicon streams it, the oracle of the billing
    /// tests: up to 16 waves dealt round-robin to eight pipelines, each
    /// wave run by its pipeline's `dft_wave` / `idft_wave`, ops on the
    /// pipelines' meters and `P·⌈w/8⌉` cycles a pass.
    #[derive(Default)]
    pub(crate) struct StreamedChip {
        pipelines: [WinePipeline; PIPELINES_PER_CHIP],
        pub(crate) cycles: u64,
    }

    impl StreamedChip {
        pub(crate) fn ops(&self) -> u64 {
            self.pipelines.iter().map(WinePipeline::ops).sum()
        }

        pub(crate) fn dft_pass(&mut self, waves: &[[i32; 3]], particles: &[WineParticle]) -> Vec<DftAccum> {
            let out = waves
                .iter()
                .enumerate()
                .map(|(w, &n)| self.pipelines[w % PIPELINES_PER_CHIP].dft_wave(n, particles))
                .collect();
            self.cycles += pass_cycles(waves.len(), particles.len() as u64);
            out
        }

        pub(crate) fn idft_pass(&mut self, waves: &[IdftWave], particles: &[WineParticle], out: &mut [IdftAccum]) {
            for (w, wave) in waves.iter().enumerate() {
                self.pipelines[w % PIPELINES_PER_CHIP].idft_wave(wave, particles, out);
            }
            self.cycles += pass_cycles(waves.len(), particles.len() as u64);
        }
    }

    pub(crate) fn particles(n: usize) -> Vec<WineParticle> {
        (0..n)
            .map(|i| {
                WineParticle::quantize(
                    [0.017 * i as f64 % 1.0, 0.31 * i as f64 % 1.0, 0.73 * i as f64 % 1.0],
                    if i % 2 == 0 { 0.9 } else { -0.9 },
                )
            })
            .collect()
    }

    /// IDFT waves with coefficients for the table `ns`.
    pub(crate) fn idft_waves(ns: &[[i32; 3]]) -> Vec<IdftWave> {
        let coefficient = |x: f64| Q30::from_f64(0.9 * x.sin());
        ns.iter()
            .enumerate()
            .map(|(k, &n)| IdftWave { n, u: coefficient(0.37 * k as f64), v: coefficient(0.61 * k as f64 + 1.0) })
            .collect()
    }

    #[test]
    fn dft_pass_returns_one_accum_per_wave() {
        let mut chip = StreamedChip::default();
        let waves: Vec<[i32; 3]> = (1..=16).map(|i| [i, 0, 0]).collect();
        let out = chip.dft_pass(&waves, &particles(10));
        assert_eq!(out.len(), 16);
        // 16 waves over 10 particles: 10 × ⌈16/8⌉ = 20 cycles, 160 ops.
        assert_eq!(chip.cycles, 20);
        assert_eq!(chip.ops(), 160);
    }

    #[test]
    fn partial_wave_load_cycles() {
        // 5 waves fit in one wave-slot round: 7 × ⌈5/8⌉ = 7 cycles.
        assert_eq!(pass_cycles(5, 7), 7);
        assert_eq!(pass_cycles(9, 7), 14);
        assert_eq!(pass_cycles(0, 7), 0);
    }

    #[test]
    #[should_panic]
    fn overloading_the_chip_panics() {
        pass_cycles(17, 1);
    }

    #[test]
    fn idft_pass_accumulates_all_waves() {
        let mut chip = StreamedChip::default();
        let ps = particles(4);
        let waves = idft_waves(&[[1, 1, 0], [2, 2, 0], [3, 3, 0]]);
        let mut acc = vec![IdftAccum::default(); 4];
        chip.idft_pass(&waves, &ps, &mut acc);
        assert_eq!(chip.ops(), 12);
        // The same waves on one pipeline, one at a time, agree exactly.
        let mut lone = WinePipeline::new();
        let mut acc2 = vec![IdftAccum::default(); 4];
        for w in &waves {
            lone.idft_wave(w, &ps, &mut acc2);
        }
        for (a, b) in acc.iter().zip(&acc2) {
            assert_eq!(a.f, b.f);
        }
    }

    #[test]
    fn credited_passes_bill_each_pipeline_as_streamed_passes() {
        // A table of ≤ 16 waves is one pass of chip 0 in each direction:
        // the board's bill is the ops its pipelines metered and the cycles
        // the chip counted.
        let ps = particles(7);
        for waves in 0..=WAVES_PER_CHIP {
            let table: Vec<[i32; 3]> = (0..waves as i32).map(|i| [i, 1, 0]).collect();
            let mut streamed = StreamedChip::default();
            streamed.dft_pass(&table, &ps);
            streamed.idft_pass(&idft_waves(&table), &ps, &mut vec![IdftAccum::default(); ps.len()]);
            let billed = BoardBill::new(ps.len(), waves);
            assert_eq!((billed.ops, billed.cycles), (streamed.ops(), streamed.cycles), "{waves} waves");
        }
    }
}
