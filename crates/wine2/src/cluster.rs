//! A WINE-2 cluster: 7 boards sharing one CompactPCI bus, attached to a
//! node computer through a PCI–CompactPCI bridge (§3.4.1). From the
//! host's point of view each board "looks like a normal PCI device";
//! from the performance model's point of view the cluster is the unit
//! of bus bandwidth.
//!
//! The host deals each cluster a contiguous chunk of the particles, and
//! the cluster deals its chunk to its boards the same way;
//! [`crate::timing::bill`] bills that dealing by arithmetic. No cluster
//! holds particle words: the host keeps one packed particle column for
//! the whole system ([`crate::system`]) and runs the wavenumber sweep
//! over that, split by threads, not by clusters. The DFT and IDFT sums
//! are integer and order-free, so the column computes the same registers
//! as the boards' chunks would.

/// Boards per cluster (Fig. 3).
pub const BOARDS_PER_CLUSTER: usize = 7;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{BoardError, PARTICLE_CAPACITY};
    use crate::pipeline::{DftAccum, IdftAccum, IdftWave, WineParticle, WinePipeline};
    use crate::sweep::Kernel;
    use crate::system::{Wine2Config, Wine2System};
    use crate::timing::{bill, board_bill};
    use mdm_fixed::Q30;

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

    /// A one-cluster system: the cluster's particles are the system's.
    fn one_cluster() -> Wine2System {
        Wine2System::new(Wine2Config { clusters: 1 })
    }

    /// Every board's bill for one load, one DFT and one IDFT of `waves`
    /// waves over `n` particles on one cluster, against the formula
    /// written out on its own: each non-empty chunk is loaded over the
    /// bus and streamed past every batch of ≤ 256 waves, and an empty
    /// board bills nothing. The cluster's counters are its boards' total
    /// ops, busiest board and summed bus bytes.
    fn assert_billed_as_boards(n: usize, waves: usize) {
        let per = n.div_ceil(BOARDS_PER_CLUSTER).max(1);
        // A board's cycles are chip 0's, which holds ≤ 16 waves of every
        // batch and serves them 8 per particle cycle.
        let rounds: u64 =
            (0..waves).step_by(256).map(|b| (waves - b).min(16).div_ceil(8) as u64).sum();
        let w = waves as u64;
        let mut boards = Vec::new();
        for i in 0..BOARDS_PER_CLUSTER {
            let p = n.saturating_sub(i * per).min(per) as u64;
            let want = match p {
                0 => (0, 0, 0),
                p => (2 * p * w, 2 * p * rounds, 16 * p + (16 + 16) * w + 24 * w + 12 * p),
            };
            let board = board_bill(n, waves, 1, i);
            assert_eq!((board.ops, board.cycles, board.bus_bytes), want, "board {i}, N = {n}, {waves} waves");
            boards.push(board);
        }
        let counters = bill(n, waves, 1).unwrap();
        let ops: u64 = boards.iter().map(|b| b.ops).sum();
        assert_eq!(counters.dft_ops + counters.idft_ops, ops);
        assert_eq!(counters.cycles, boards.iter().map(|b| b.cycles).max().unwrap());
        assert_eq!(counters.bus_bytes_per_cluster, boards.iter().map(|b| b.bus_bytes).sum());
    }

    #[test]
    fn packed_cluster_matches_the_pipeline_over_cluster_sizes() {
        // A cluster's particles in the system's column, swept by the
        // thread-sized regions at 1 and 3 threads. 520 particles are 65
        // blocks: one full 64-block segment and a one-block tail.
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
                for (kernel, threads) in sweep::kernels().into_iter().flat_map(|k| [(k, 1), (k, 3)]) {
                    let case = format!("{kernel:?}, {threads} threads, N = {n}, {} waves", table.len());
                    let mut wine = one_cluster();
                    rayon::with_num_threads(threads, || {
                        let (dft, idft) = wine.sweep_raw(kernel, ps.clone(), &waves).unwrap();
                        for (w, (got, want)) in dft.iter().zip(&dft_want).enumerate() {
                            // `FixedAccum` equality is raw register and term count.
                            assert_eq!(got.s_plus_c, want.s_plus_c, "{case}: wave {w}");
                            assert_eq!(got.s_minus_c, want.s_minus_c, "{case}: wave {w}");
                        }
                        assert_eq!(idft.len(), n, "{case}");
                        for (i, (got, want)) in idft.iter().zip(&idft_want).enumerate() {
                            assert_eq!(got.f, want.f, "{case}: particle {i}");
                        }
                    });
                    assert_billed_as_boards(n, table.len());
                }
            }
        }
    }

    #[test]
    fn over_capacity_chunk_is_refused_before_packing() {
        let mut wine = one_cluster();
        wine.sweep_raw(Kernel::Portable, particles(20), &[]).unwrap();
        let packed = wine.column().buffers();
        let too_many = untouched_particles(BOARDS_PER_CLUSTER * PARTICLE_CAPACITY + 1);
        assert_eq!(
            wine.sweep_raw(Kernel::Portable, too_many, &[]).map(|_| ()),
            Err(BoardError::ParticleMemoryOverflow {
                requested: PARTICLE_CAPACITY + 1,
                capacity: PARTICLE_CAPACITY,
            })
        );
        assert_eq!(wine.column().len(), 20);
        assert_eq!(wine.column().buffers(), packed, "the refused list was packed");
    }

    #[test]
    fn cluster_dft_equals_single_board_dft() {
        // Splitting particles across boards must not change the result:
        // the column sums every board's chunk exactly as one pipeline
        // streaming them all does.
        let ps = particles(33);
        let waves: Vec<IdftWave> = (0..25)
            .map(|i| IdftWave { n: [i % 9 - 4, i % 5, 2], u: Q30::ZERO, v: Q30::ZERO })
            .collect();

        let mut wine = one_cluster();
        let (split, _) = wine.sweep_raw(Kernel::detect(), ps.clone(), &waves).unwrap();

        let mut lone = WinePipeline::new();
        for (w, (a, wave)) in split.iter().zip(&waves).enumerate() {
            assert_eq!(a.resolve(), lone.dft_wave(wave.n, &ps).resolve(), "wave {w}");
        }
    }

    #[test]
    fn idft_concatenation_preserves_particle_order() {
        let ps = particles(20);
        let waves: Vec<IdftWave> = (1..=10)
            .map(|i| IdftWave {
                n: [i, 0, i],
                u: Q30::from_f64(0.03 * i as f64),
                v: Q30::from_f64(0.05 * i as f64),
            })
            .collect();

        // Three boards' chunks of 3 and the rest, at three threads:
        // items and boards cut the particles in different places.
        let mut wine = one_cluster();
        let split = rayon::with_num_threads(3, || {
            wine.sweep_raw(Kernel::detect(), ps.clone(), &waves).unwrap().1.to_vec()
        });

        let mut lone = WinePipeline::new();
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
        let counts: Vec<u64> = (0..BOARDS_PER_CLUSTER).map(|b| board_bill(20, 0, 1, b).particles).collect();
        // ⌈20/7⌉ = 3 per board, the last one short.
        assert_eq!(counts, [3, 3, 3, 3, 3, 3, 2]);
        // Clusters first: 20 on 3 clusters is 7 + 7 + 6, one per board.
        let dealt: Vec<u64> = (0..3 * BOARDS_PER_CLUSTER).map(|b| board_bill(20, 0, 3, b).particles).collect();
        assert_eq!(dealt.iter().sum::<u64>(), 20);
        assert!(dealt[..20].iter().all(|&p| p == 1) && dealt[20] == 0, "{dealt:?}");
    }
}
