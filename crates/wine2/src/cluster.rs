//! A WINE-2 cluster: 7 boards sharing one CompactPCI bus, attached to a
//! node computer through a PCI–CompactPCI bridge (§3.4.1). From the
//! host's point of view each board "looks like a normal PCI device";
//! from the performance model's point of view the cluster is the unit
//! of bus bandwidth.

use crate::board::{BoardError, WineBoard};
use crate::pipeline::{DftAccum, IdftAccum, IdftWave, WineParticle};
use crate::sweep::{DftScratch, Kernel, WavePlan};

/// Boards per cluster (Fig. 3).
pub const BOARDS_PER_CLUSTER: usize = 7;

/// One cluster of seven boards.
#[derive(Clone, Debug)]
pub struct WineCluster {
    boards: Vec<WineBoard>,
    /// Sweep scratch and results, kept across calls so that a
    /// steady-state evaluation allocates nothing: the DFT's working
    /// columns, its per-slot sums, and the IDFT's per-particle registers.
    dft_scratch: DftScratch,
    /// `[Σ q(sin+cos), Σ q(sin−cos)]` per slot of the last DFT's plan,
    /// and the number of particles each was summed over.
    dft_sums: Vec<[i64; 2]>,
    dft_terms: u64,
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
            dft_scratch: DftScratch::default(),
            dft_sums: Vec::new(),
            dft_terms: 0,
            idft_acc: Vec::new(),
        }
    }

    /// The boards.
    pub fn boards(&self) -> &[WineBoard] {
        &self.boards
    }

    /// Mutable board access (the system distributes particles directly).
    pub fn boards_mut(&mut self) -> &mut [WineBoard] {
        &mut self.boards
    }

    /// Split `particles` across the cluster's boards (contiguous chunks)
    /// and load each board's share.
    pub fn load_particles(&mut self, particles: &[WineParticle]) -> Result<(), BoardError> {
        let per = particles.len().div_ceil(BOARDS_PER_CLUSTER);
        for (b, chunk) in self
            .boards
            .iter_mut()
            .zip(particles.chunks(per.max(1)).chain(std::iter::repeat(&[][..])))
        {
            b.load_particles(chunk)?;
        }
        Ok(())
    }

    /// Particles resident across the boards.
    pub fn particle_count(&self) -> usize {
        self.boards.iter().map(WineBoard::particle_count).sum()
    }

    /// DFT over the whole wave list: the sum over every board's resident
    /// particles (fixed-point addition is associative, so the boards'
    /// partial sums merge exactly).
    pub fn dft(&mut self, waves: &[[i32; 3]]) -> Vec<DftAccum> {
        let plan = WavePlan::new(waves);
        self.dft_planned(Kernel::detect(), &plan);
        (0..waves.len()).map(|w| self.dft_accum(plan.slot_of(w))).collect()
    }

    /// [`Self::dft`] with the caller's plan; the results stay in the
    /// cluster, one [`Self::dft_accum`] per slot of the plan.
    pub(crate) fn dft_planned(&mut self, kernel: Kernel, plan: &WavePlan) {
        kernel.dft(
            plan,
            self.boards.iter().map(WineBoard::lanes),
            &mut self.dft_scratch,
            &mut self.dft_sums,
        );
        self.dft_terms = self.particle_count() as u64;
        for b in self.boards.iter_mut().filter(|b| b.particle_count() > 0) {
            b.credit_dft(plan.waves());
        }
    }

    /// The accumulator pair of slot `slot` after [`Self::dft_planned`].
    pub(crate) fn dft_accum(&self, slot: usize) -> DftAccum {
        DftAccum::from_partial(self.dft_sums[slot], self.dft_terms)
    }

    /// IDFT: per-board forces for disjoint particle subsets, returned
    /// concatenated in load order.
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
        let mut rest = self.idft_acc.as_mut_slice();
        for b in self.boards.iter_mut().filter(|b| b.particle_count() > 0) {
            let (out, tail) = rest.split_at_mut(b.particle_count());
            b.idft_planned(kernel, plan, uv, out);
            rest = tail;
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
        out.extend(self.boards.iter().flat_map(WineBoard::buffers));
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
    fn cluster_dft_equals_single_board_dft() {
        // Splitting particles across boards must not change the result:
        // fixed-point partial sums merge exactly.
        let ps = particles(33);
        let waves: Vec<[i32; 3]> = (0..25).map(|i| [i % 9 - 4, i % 5, 2]).collect();

        let mut cluster = WineCluster::new();
        cluster.load_particles(&ps).unwrap();
        let split = cluster.dft(&waves);

        let mut board = WineBoard::new();
        board.load_particles(&ps).unwrap();
        let whole = board.dft(&waves);

        for (w, (a, b)) in split.iter().zip(&whole).enumerate() {
            assert_eq!(a.resolve(), b.resolve(), "wave {w}");
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

        let mut board = WineBoard::new();
        board.load_particles(&ps).unwrap();
        let whole = board.idft(&waves);

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
