//! A WINE-2 cluster: 7 boards sharing one CompactPCI bus, attached to a
//! node computer through a PCI–CompactPCI bridge (§3.4.1). From the
//! host's point of view each board "looks like a normal PCI device";
//! from the performance model's point of view the cluster is the unit
//! of bus bandwidth.
//!
//! The boards split the particles into contiguous chunks and are billed
//! for them (capacity, bus bytes, chip passes). The host holds the
//! chunks packed in load order as one particle memory for the whole
//! cluster, in the sweep's column layout, and runs the wavenumber sweep
//! over that once: the DFT and IDFT sums are integer and order-free, so
//! the packed column computes the same registers as the boards' chunks
//! would, with one ragged lane block per cluster instead of one per
//! board.

use crate::board::{BoardError, WineBoard};
use crate::pipeline::{DftAccum, IdftAccum, IdftWave, WineParticle};
use crate::sweep::{DftScratch, Kernel, Lanes, WavePlan};

/// Boards per cluster (Fig. 3).
pub const BOARDS_PER_CLUSTER: usize = 7;

/// One cluster of seven boards.
#[derive(Clone, Debug)]
pub struct WineCluster {
    boards: Vec<WineBoard>,
    /// Every board's chunk, concatenated in load order.
    particles: Lanes,
    /// Sweep scratch and results, kept across calls so that a
    /// steady-state evaluation allocates nothing: the DFT's working
    /// columns, its per-slot sums, and the IDFT's per-particle registers.
    dft_scratch: DftScratch,
    /// `[Σ q(sin+cos), Σ q(sin−cos)]` per slot of the last DFT's plan.
    dft_sums: Vec<[i64; 2]>,
    idft_acc: Vec<IdftAccum>,
}

impl Default for WineCluster {
    fn default() -> Self {
        Self::new()
    }
}

impl WineCluster {
    /// A cluster of empty boards.
    pub fn new() -> Self {
        Self {
            boards: (0..BOARDS_PER_CLUSTER).map(|_| WineBoard::new()).collect(),
            particles: Lanes::default(),
            dft_scratch: DftScratch::default(),
            dft_sums: Vec::new(),
            idft_acc: Vec::new(),
        }
    }

    /// The boards.
    pub fn boards(&self) -> &[WineBoard] {
        &self.boards
    }

    /// Split `particles` across the cluster's boards (contiguous chunks),
    /// load each board's share, then pack the whole list into the
    /// cluster's particle memory. A chunk over a board's capacity is
    /// refused before anything is packed.
    pub fn load_particles(&mut self, particles: &[WineParticle]) -> Result<(), BoardError> {
        let per = particles.len().div_ceil(BOARDS_PER_CLUSTER);
        for (b, chunk) in self
            .boards
            .iter_mut()
            .zip(particles.chunks(per.max(1)).chain(std::iter::repeat(&[][..])))
        {
            b.load_particles(chunk)?;
        }
        self.particles.load(particles);
        Ok(())
    }

    /// Particles resident across the boards.
    pub fn particle_count(&self) -> usize {
        self.particles.len()
    }

    /// DFT over the whole wave list: the sum over every board's resident
    /// particles.
    pub fn dft(&mut self, waves: &[[i32; 3]]) -> Vec<DftAccum> {
        let plan = WavePlan::new(waves);
        self.dft_planned(Kernel::detect(), &plan);
        (0..waves.len()).map(|w| self.dft_accum(plan.slot_of(w))).collect()
    }

    /// [`Self::dft`] with the caller's plan; the results stay in the
    /// cluster, one [`Self::dft_accum`] per slot of the plan.
    pub(crate) fn dft_planned(&mut self, kernel: Kernel, plan: &WavePlan) {
        kernel.dft(plan, &self.particles, &mut self.dft_scratch, &mut self.dft_sums);
        // Every board with a non-empty chunk streamed the whole table.
        for b in self.boards.iter_mut().filter(|b| b.particle_count() > 0) {
            b.credit_dft(plan.waves());
        }
    }

    /// The accumulator pair of slot `slot` after [`Self::dft_planned`].
    pub(crate) fn dft_accum(&self, slot: usize) -> DftAccum {
        DftAccum::from_partial(self.dft_sums[slot], self.particle_count() as u64)
    }

    /// IDFT: the per-particle force registers, in load order.
    pub fn idft(&mut self, waves: &[IdftWave]) -> Vec<IdftAccum> {
        let (plan, uv) = crate::sweep::plan_idft(waves);
        self.idft_planned(Kernel::detect(), &plan, &uv);
        self.idft_acc.clone()
    }

    /// [`Self::idft`] with the caller's plan and slot-ordered `[u, v]`
    /// registers; the results stay in the cluster ([`Self::idft_acc`]).
    pub(crate) fn idft_planned(&mut self, kernel: Kernel, plan: &WavePlan, uv: &[[i64; 2]]) {
        self.idft_acc.clear();
        self.idft_acc.resize(self.particle_count(), IdftAccum::default());
        kernel.idft(plan, uv, &self.particles, &mut self.idft_acc);
        for b in self.boards.iter_mut().filter(|b| b.particle_count() > 0) {
            b.credit_idft(plan.waves());
        }
    }

    /// The per-particle registers of the last [`Self::idft_planned`], in
    /// load order.
    pub(crate) fn idft_acc(&self) -> &[IdftAccum] {
        &self.idft_acc
    }

    /// Address and capacity of every buffer a call reuses (the
    /// scratch-reuse test).
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> Vec<(usize, usize)> {
        let mut out = self.dft_scratch.buffers();
        out.push((self.dft_sums.as_ptr() as usize, self.dft_sums.capacity()));
        out.push((self.idft_acc.as_ptr() as usize, self.idft_acc.capacity()));
        out.extend(self.particles.buffers());
        out
    }

    /// Total ops across boards.
    pub fn ops(&self) -> u64 {
        self.boards.iter().map(WineBoard::ops).sum()
    }

    /// Cluster busy cycles: boards run concurrently; the bus serialises
    /// only transfers, so compute time is the max over boards.
    pub fn cycles(&self) -> u64 {
        self.boards.iter().map(WineBoard::cycles).max().unwrap_or(0)
    }

    /// Bytes moved over the shared CompactPCI bus (sum over boards — the
    /// bus is shared, so transfers serialise).
    pub fn bus_bytes(&self) -> u64 {
        self.boards.iter().map(WineBoard::bus_bytes).sum()
    }

    /// Reset counters on every board.
    pub fn reset_counters(&mut self) {
        for b in &mut self.boards {
            b.reset_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::PARTICLE_CAPACITY;

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

    /// `count` null particles in memory the test never reads: a zeroed
    /// allocation is mapped lazily, so a list longer than a whole
    /// cluster's capacity costs no resident memory.
    fn untouched_particles(count: usize) -> Vec<WineParticle> {
        let layout = std::alloc::Layout::array::<WineParticle>(count).unwrap();
        // SAFETY: `layout` has a non-zero size; an all-zero
        // `WineParticle` (zero phases, zero charge) is a valid value; and
        // the vector takes over an allocation of exactly `count` elements
        // made by the global allocator with the layout it frees with.
        unsafe {
            let ptr = std::alloc::alloc_zeroed(layout).cast::<WineParticle>();
            assert!(!ptr.is_null(), "allocation failed");
            Vec::from_raw_parts(ptr, count, count)
        }
    }

    /// Every board's counters after one load, one DFT and one IDFT of
    /// `waves` waves over `n` particles, by the formula the per-board
    /// sweep billed: each non-empty chunk is loaded over the bus and
    /// streamed past every batch of ≤ 256 waves, and an empty board
    /// bills nothing.
    fn assert_billed_as_boards(cluster: &WineCluster, n: usize, waves: usize) {
        let per = n.div_ceil(BOARDS_PER_CLUSTER).max(1);
        // A board's cycles are chip 0's, which holds ≤ 16 waves of every
        // batch and serves them 8 per particle cycle.
        let rounds: u64 =
            (0..waves).step_by(256).map(|b| (waves - b).min(16).div_ceil(8) as u64).sum();
        let w = waves as u64;
        for (i, board) in cluster.boards().iter().enumerate() {
            let p = n.saturating_sub(i * per).min(per) as u64;
            let want = match p {
                0 => (0, 0, 0),
                p => (2 * p * w, 2 * p * rounds, 16 * p + (16 + 16) * w + 24 * w + 12 * p),
            };
            assert_eq!(
                (board.ops(), board.cycles(), board.bus_bytes()),
                want,
                "board {i}, N = {n}, {waves} waves"
            );
        }
    }

    #[test]
    fn packed_cluster_matches_the_pipeline_over_cluster_sizes() {
        // 520 particles are 65 blocks: one full 64-block segment and a
        // one-block tail.
        use crate::pipeline::WinePipeline;
        use crate::sweep::tests as sweep;
        let mut tables: Vec<Vec<[i32; 3]>> = [1, 9, 300].map(sweep::mixed_table).into();
        tables.push(mdm_core::kvectors::half_space_vectors(4.2).iter().map(|k| k.n).collect());
        for n in [0, 1, 5, 7, 8, 9, 32, 33, 57, 520] {
            let ps = sweep::particles(n, n as u64);
            for table in &tables {
                let waves = sweep::idft_waves(table);
                let mut oracle = WinePipeline::new();
                let dft_want: Vec<DftAccum> =
                    table.iter().map(|&k| oracle.dft_wave(k, &ps)).collect();
                let mut idft_want = vec![IdftAccum::default(); n];
                for wave in &waves {
                    oracle.idft_wave(wave, &ps, &mut idft_want);
                }
                let (plan, uv) = crate::sweep::plan_idft(&waves);
                for kernel in sweep::kernels() {
                    let case = format!("{kernel:?}, N = {n}, {} waves", table.len());
                    let mut cluster = WineCluster::new();
                    cluster.load_particles(&ps).unwrap();
                    cluster.dft_planned(kernel, &plan);
                    for (w, want) in dft_want.iter().enumerate() {
                        // `FixedAccum` equality is raw register and term count.
                        let got = cluster.dft_accum(plan.slot_of(w));
                        assert_eq!(got.s_plus_c, want.s_plus_c, "{case}: wave {w}");
                        assert_eq!(got.s_minus_c, want.s_minus_c, "{case}: wave {w}");
                    }
                    cluster.idft_planned(kernel, &plan, &uv);
                    assert_eq!(cluster.idft_acc().len(), n, "{case}");
                    for (i, (got, want)) in cluster.idft_acc().iter().zip(&idft_want).enumerate() {
                        assert_eq!(got.f, want.f, "{case}: particle {i}");
                    }
                    assert_billed_as_boards(&cluster, n, table.len());
                }
            }
        }
    }

    #[test]
    fn over_capacity_chunk_is_refused_before_packing() {
        let mut cluster = WineCluster::new();
        cluster.load_particles(&particles(20)).unwrap();
        let packed = cluster.particles.buffers();
        let too_many = untouched_particles(BOARDS_PER_CLUSTER * PARTICLE_CAPACITY + 1);
        assert_eq!(
            cluster.load_particles(&too_many),
            Err(BoardError::ParticleMemoryOverflow {
                requested: PARTICLE_CAPACITY + 1,
                capacity: PARTICLE_CAPACITY,
            })
        );
        assert_eq!(cluster.particle_count(), 20);
        assert_eq!(cluster.particles.buffers(), packed, "the refused list was packed");
    }

    #[test]
    fn cluster_dft_equals_single_board_dft() {
        // Splitting particles across boards must not change the result:
        // the packed column sums every board's chunk exactly as one
        // pipeline streaming them all does.
        let ps = particles(33);
        let waves: Vec<[i32; 3]> = (0..25).map(|i| [i % 9 - 4, i % 5, 2]).collect();

        let mut cluster = WineCluster::new();
        cluster.load_particles(&ps).unwrap();
        let split = cluster.dft(&waves);

        let mut lone = crate::pipeline::WinePipeline::new();
        for (w, (a, &n)) in split.iter().zip(&waves).enumerate() {
            assert_eq!(a.resolve(), lone.dft_wave(n, &ps).resolve(), "wave {w}");
        }
    }

    #[test]
    fn idft_concatenation_preserves_particle_order() {
        let ps = particles(20);
        let waves: Vec<IdftWave> = (1..=10)
            .map(|i| IdftWave {
                n: [i, 0, i],
                u: mdm_fixed::Q30::from_f64(0.03 * i as f64),
                v: mdm_fixed::Q30::from_f64(0.05 * i as f64),
            })
            .collect();

        let mut cluster = WineCluster::new();
        cluster.load_particles(&ps).unwrap();
        let split = cluster.idft(&waves);

        let mut lone = crate::pipeline::WinePipeline::new();
        let mut whole = vec![IdftAccum::default(); ps.len()];
        for wave in &waves {
            lone.idft_wave(wave, &ps, &mut whole);
        }

        assert_eq!(split.len(), whole.len());
        for (i, (a, b)) in split.iter().zip(&whole).enumerate() {
            assert_eq!(a.to_f64(), b.to_f64(), "particle {i}");
        }
    }

    #[test]
    fn particles_distributed_across_boards() {
        let mut cluster = WineCluster::new();
        cluster.load_particles(&particles(20)).unwrap();
        let counts: Vec<usize> = cluster.boards().iter().map(|b| b.particle_count()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 20);
        // ceil(20/7) = 3 per board for the first boards.
        assert_eq!(counts[0], 3);
    }
}
