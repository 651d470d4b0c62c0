//! The full MDGRAPE-2 system (paper Fig. 3): a configurable number of
//! clusters (16 in the current MDM = 64 chips), the i-particle
//! distribution across boards, and the Rayon-parallel execution that
//! stands in for the boards' physical concurrency.
//!
//! The hierarchy is the accounting truth, and it is billed by arithmetic
//! ([`crate::timing::bill`]): every board is dealt its contiguous chunk
//! of i-particles and billed the j-store upload, pair ops and read-back
//! of each pass it ran. What the host *executes* for the
//! hardware-faithful pattern is the tile sweep of the `sweep` module,
//! run above the board level in one parallel region over the tiles of a
//! [`crate::plan::TilePlan`] — sixteen resident i-particles per streamed
//! j, as the silicon broadcasts it, taken from neighbouring home cells
//! where one cell has fewer — in the form this CPU runs (AVX-512 lanes or
//! portable arrays, bit for bit the same). Its values and counters are
//! those of the boards each running [`MdgBoard::calc_block2`] on their
//! own chunks.
//!
//! The system keeps one table image and one coefficient image: what
//! [`Mdgrape2System::load_table`] and [`Mdgrape2System::load_coefficients`]
//! broadcast to every chip, and what a single pass reads. Uploads are not
//! billed: a pass's counters are its own, and the reset that starts one
//! erased whatever the uploads before it had billed.

use crate::board::{MdgBoard, MdgBoardError};
use crate::chip::AtomCoefficients;
use crate::cluster::BOARDS_PER_CLUSTER;
use crate::ftz::FtzGuard;
use crate::jstore::JStore;
use crate::pipeline::PipelineMode;
use crate::plan::TilePlan;
use crate::sweep::Kernel;
use crate::timing::{bill, BoardBill, MdgCounters};
use mdm_core::boxsim::SimBox;
use mdm_core::deal;
use mdm_core::vec3::Vec3;
use mdm_funceval::FunctionEvaluator;
use rayon::prelude::*;

/// System configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mdgrape2Config {
    /// Number of clusters (current MDM: 16; future: 384).
    pub clusters: usize,
}

impl Default for Mdgrape2Config {
    fn default() -> Self {
        Self { clusters: 16 }
    }
}

impl Mdgrape2Config {
    /// Total boards.
    pub fn boards(&self) -> usize {
        self.clusters * BOARDS_PER_CLUSTER
    }

    /// Total chips (current MDM: 64).
    pub fn chips(&self) -> usize {
        self.boards() * crate::board::CHIPS_PER_BOARD
    }
}

/// How the emulated system walks the real-space pairs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RealSpaceMode {
    /// The hardware pattern: every ordered 27-cell block pair, no
    /// cutoff skip, no third-law halving (§2.2). This is what MDGRAPE-2
    /// silicon does and the default.
    #[default]
    HardwareFaithful,
    /// Software-only fast path: each unordered block pair evaluated
    /// once, action and reaction both applied (Newton's third law).
    /// Forces agree with [`Self::HardwareFaithful`] to f64 tolerance,
    /// not bitwise; pair-op counters drop to ~half. No MDGRAPE-2 mode
    /// behaves like this — enable it only when emulation speed matters
    /// more than hardware fidelity.
    SoftwareN3l,
}

/// One table pass as the host programs it: the `MR1SetTable` image and
/// the coefficient RAM contents that go with it.
#[derive(Clone, Copy, Debug)]
pub struct TablePass<'a> {
    /// The g(x) function table.
    pub table: &'a FunctionEvaluator,
    /// The `aᵢⱼ`, `bᵢⱼ` matrices.
    pub coefficients: &'a AtomCoefficients,
}

/// Result of one real-space pass.
#[derive(Clone, Debug)]
pub struct MdgPassResult {
    /// Per-particle accumulations: forces (eV/Å after host scaling) in
    /// force mode, per-particle potential sums in potential mode.
    pub values: Vec<[f64; 3]>,
    /// Hardware counters.
    pub counters: MdgCounters,
}

/// The machine the passes run on, less its loaded images: its shape,
/// its real-space mode and the working state of the tile sweep, sized by
/// the first call and reused by every later one — a steady-state call
/// allocates the vectors it returns and the parallel region's
/// bookkeeping, all on the calling thread, never on a worker
/// (short-lived workers each grow an allocator arena of their own).
struct Machine {
    config: Mdgrape2Config,
    mode: RealSpaceMode,
    /// The form of the sweep this CPU runs.
    kernel: Kernel,
    /// The accumulators of the sweep in flight in j-store slot order,
    /// `[slot][pass]`: each tile owns one contiguous run.
    slot_values: Vec<[f64; 3]>,
    /// The tiles of the j-store last swept, rebuilt only when its cell
    /// ranges change.
    plan: TilePlan,
}

/// The emulated MDGRAPE-2 system.
pub struct Mdgrape2System {
    /// The function table last loaded (`MR1SetTable`).
    table: FunctionEvaluator,
    /// The coefficient RAM last loaded.
    coefficients: AtomCoefficients,
    machine: Machine,
}

impl Mdgrape2System {
    /// Build with a function table and coefficients replicated to every
    /// board (which is what `MR1SetTable` does).
    pub fn new(
        config: Mdgrape2Config,
        evaluator: FunctionEvaluator,
        coefficients: AtomCoefficients,
    ) -> Self {
        assert!(config.clusters > 0);
        Self {
            table: evaluator,
            coefficients,
            machine: Machine {
                config,
                mode: RealSpaceMode::default(),
                kernel: Kernel::detect(),
                slot_values: Vec::new(),
                plan: TilePlan::default(),
            },
        }
    }

    /// The configuration.
    pub fn config(&self) -> Mdgrape2Config {
        self.machine.config
    }

    /// Select how real-space pairs are walked (defaults to the
    /// hardware-faithful no-N3L pattern).
    pub fn set_real_space_mode(&mut self, mode: RealSpaceMode) {
        self.machine.mode = mode;
    }

    /// Reload the function table everywhere (unbilled, see the module
    /// docs).
    pub fn load_table(&mut self, evaluator: &FunctionEvaluator) {
        self.table.clone_from(evaluator);
    }

    /// Reload the coefficient RAM everywhere (unbilled, see the module
    /// docs).
    pub fn load_coefficients(&mut self, coefficients: &AtomCoefficients) {
        self.coefficients.clone_from(coefficients);
    }

    /// Run one pass of the cell-index pairwise evaluation (the
    /// emulated `MR1calcvdw_block2`).
    ///
    /// * `positions`/`types`: the configuration (i- and j-sides are the
    ///   same set, as in the paper's runs);
    /// * `min_cell`: cell edge lower bound (≥ r_cut).
    ///
    /// The same `JStore` image is conceptually broadcast to every board
    /// (each board's SSRAM holds the full j-set); i-particles are dealt
    /// across boards in contiguous chunks.
    pub fn calc_pass(
        &mut self,
        mode: PipelineMode,
        simbox: SimBox,
        positions: &[Vec3],
        types: &[u8],
        min_cell: f64,
    ) -> Result<MdgPassResult, MdgBoardError> {
        let jstore = JStore::build(simbox, positions, types, min_cell);
        self.calc_pass_with_jstore(mode, positions, types, &jstore)
    }

    /// As [`Self::calc_pass`] with a prebuilt j-store (lets the driver
    /// reuse one store across the several passes of a composed force
    /// field — exactly what the real host did between `MR1SetTable`
    /// swaps). Runs the table and coefficients last loaded: the
    /// single-pass instance of [`Self::calc_passes_with_jstore`].
    pub fn calc_pass_with_jstore(
        &mut self,
        mode: PipelineMode,
        positions: &[Vec3],
        types: &[u8],
        jstore: &JStore,
    ) -> Result<MdgPassResult, MdgBoardError> {
        let pass = TablePass {
            table: &self.table,
            coefficients: &self.coefficients,
        };
        let [result] = self.machine.calc_passes(mode, &[pass], positions, types, jstore)?;
        Ok(result)
    }

    /// `P` passes over the same particles and j-store — the four
    /// `MR1SetTable` + `MR1calcvdw_block2` rounds of the §4 force field —
    /// in one call. Pass `p` of the result is **bitwise identical**,
    /// values and counters, to loading `passes[p]` and calling
    /// [`Self::calc_pass_with_jstore`].
    ///
    /// `positions` and `types` must be the configuration `jstore` holds
    /// (the sweep reads its i-side from the store's image); otherwise the
    /// call returns [`MdgBoardError::StaleJStore`] and bills nothing.
    ///
    /// In [`RealSpaceMode::HardwareFaithful`] the passes run as one
    /// fused sweep: the 27-cell pair set is walked once and all `P`
    /// tables are evaluated per pair, one fork-join for the lot. The modeled
    /// machine still ran `P` passes: every board is billed `P` j-store
    /// uploads, `P` read-backs and `P` pair ops per pair, and each
    /// returned [`MdgCounters`] is that of one pass.
    ///
    /// The table and coefficient uploads (`load_table`,
    /// `load_coefficients`) stay with the caller, which times them as bus
    /// traffic, and are not billed: each returned [`MdgCounters`] holds
    /// only its pass's own traffic. The sweep reads the images from
    /// `passes`, and leaves the loaded ones as they were.
    /// [`RealSpaceMode::SoftwareN3l`] has no fused form (a pair's
    /// reaction lands in another particle's accumulator): there the
    /// passes run one after another, each on boards built for the call
    /// with its own images.
    pub fn calc_passes_with_jstore<const P: usize>(
        &mut self,
        mode: PipelineMode,
        passes: &[TablePass<'_>; P],
        positions: &[Vec3],
        types: &[u8],
        jstore: &JStore,
    ) -> Result<[MdgPassResult; P], MdgBoardError> {
        self.machine.calc_passes(mode, passes, positions, types, jstore)
    }
}

impl Machine {
    /// [`Mdgrape2System::calc_passes_with_jstore`].
    fn calc_passes<const P: usize>(
        &mut self,
        mode: PipelineMode,
        passes: &[TablePass<'_>; P],
        positions: &[Vec3],
        types: &[u8],
        jstore: &JStore,
    ) -> Result<[MdgPassResult; P], MdgBoardError> {
        assert_eq!(positions.len(), types.len());
        let _span = mdm_profile::span("mdg_pass");
        if let Some(particle) = first_stale(positions, types, jstore) {
            return Err(MdgBoardError::StaleJStore { particle });
        }
        match self.mode {
            RealSpaceMode::HardwareFaithful => self.tile_sweep(mode, passes, jstore),
            RealSpaceMode::SoftwareN3l => {
                let mut results = Vec::with_capacity(P);
                for pass in passes {
                    results.push(self.n3l_pass(mode, pass, jstore)?);
                }
                Ok(results
                    .try_into()
                    .unwrap_or_else(|_| unreachable!("one result per pass")))
            }
        }
    }

    /// The hardware-faithful sweep: one parallel region over the tiles of
    /// the cached [`TilePlan`], each tile ([`Kernel::sweep_tile`]) writing
    /// its own run of the slot-ordered buffer, one scatter to original
    /// order at the end. The i-side is the j-store's own image of the
    /// particles — the same `p.x as f32` casts
    /// [`IBatch::stage`](crate::board::IBatch::stage) makes.
    fn tile_sweep<const P: usize>(
        &mut self,
        mode: PipelineMode,
        passes: &[TablePass<'_>; P],
        jstore: &JStore,
    ) -> Result<[MdgPassResult; P], MdgBoardError> {
        let n = jstore.len();
        let species = jstore.types().iter().max().map_or(0, |&t| t as usize + 1);
        for pass in passes {
            assert!(
                species <= pass.coefficients.n_types(),
                "species beyond the coefficient RAM"
            );
        }
        self.plan.update(jstore);
        let counters = bill(self.config.clusters, jstore, &self.plan)?;

        let (kernel, plan, values) = (self.kernel, &self.plan, &mut self.slot_values);
        values.clear();
        values.resize(n * P, [0.0; 3]);
        let mut tiles = Vec::with_capacity(plan.tiles());
        let mut rest = &mut values[..];
        for t in 0..plan.tiles() {
            let (tile, tail) = rest.split_at_mut(plan.tile(t).0.len() * P);
            tiles.push(tile);
            rest = tail;
        }
        let pipeline_span = mdm_profile::span("pipelines");
        tiles.par_iter_mut().enumerate().for_each(|(t, out)| {
            // MXCSR is per thread: a guard opened by the caller would
            // not reach this worker.
            let _ftz = FtzGuard::new();
            let (slots, union) = plan.tile(t);
            kernel.sweep_tile(passes, mode, jstore, slots, union, out);
        });
        drop(pipeline_span);

        // Every pass walked the same pairs on the same boards.
        Ok(std::array::from_fn(|p| MdgPassResult {
            values: (0..n).map(|i| values[jstore.slot_of_original(i) * P + p]).collect(),
            counters,
        }))
    }

    /// The Newton's-third-law software pass: boards, built for the call
    /// with `pass`'s images, own contiguous **home-cell** ranges and each
    /// produces a partial force array over every sorted slot (reactions
    /// land in other boards' home cells); the partials are reduced in
    /// fixed board order so the result is independent of the Rayon
    /// thread count, then scattered back to original particle indexing.
    /// The counters are read off the boards' meters.
    fn n3l_pass(
        &self,
        mode: PipelineMode,
        pass: &TablePass<'_>,
        jstore: &JStore,
    ) -> Result<MdgPassResult, MdgBoardError> {
        let (n_cells, n_boards) = (jstore.n_cells(), self.config.boards());
        let ranges: Vec<std::ops::Range<usize>> =
            (0..n_boards).map(|b| deal::contiguous(n_cells, n_boards, b)).collect();
        // An idle board is not built, so not sent the store.
        let mut boards: Vec<Option<(MdgBoard, Vec<[f64; 3]>)>> = ranges
            .iter()
            .map(|range| {
                (!range.is_empty()).then(|| {
                    let board = MdgBoard::new(pass.table.clone(), pass.coefficients.clone());
                    (board, vec![[0f64; 3]; jstore.len()])
                })
            })
            .collect();
        let pipeline_span = mdm_profile::span("pipelines");
        boards
            .par_iter_mut()
            .zip(ranges)
            .map(|(board, range)| {
                if let Some((board, partial)) = board {
                    board.accept_jstore(jstore)?;
                    board.calc_block2_n3l(mode, range, jstore, partial);
                }
                Ok(())
            })
            .collect::<Result<Vec<()>, MdgBoardError>>()?;
        drop(pipeline_span);

        let mut values = vec![[0f64; 3]; jstore.len()];
        for (_, partial) in boards.iter().flatten() {
            for (s, v) in partial.iter().enumerate() {
                let out = &mut values[jstore.original_index(s)];
                out[0] += v[0];
                out[1] += v[1];
                out[2] += v[2];
            }
        }
        let meters = |b: usize| {
            boards[b].as_ref().map_or(BoardBill::default(), |(board, _)| BoardBill {
                pair_ops: board.ops(),
                bus_bytes: board.bus_bytes(),
            })
        };
        let counters = MdgCounters::of_boards(self.config.clusters, jstore.len(), meters);
        Ok(MdgPassResult { values, counters })
    }
}

/// The first original index at which `jstore` does not hold
/// `positions`/`types` — an `f32` position bit or a species that differs,
/// or the shorter length if the counts do — or `None` if it holds them.
fn first_stale(positions: &[Vec3], types: &[u8], jstore: &JStore) -> Option<usize> {
    let n = positions.len().min(jstore.len());
    (0..n)
        .find(|&i| {
            let (p, s) = (positions[i], jstore.slot_of_original(i));
            jstore.position(s).map(f32::to_bits) != [p.x, p.y, p.z].map(|v| (v as f32).to_bits())
                || jstore.species(s) != types[i]
        })
        .or((positions.len() != jstore.len()).then_some(n))
}

#[cfg(test)]
impl Mdgrape2System {
    /// This system running `kernel` in place of the detected one.
    pub(crate) fn with_kernel(mut self, kernel: Kernel) -> Self {
        self.machine.kernel = kernel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{IBatch, PIPELINES_PER_BOARD};
    use crate::pipeline::PairAccum;
    use crate::sweep::tests::{kernels, tables, three_species_ram, FORCE_KERNELS};
    use crate::tables::GFunction;
    use mdm_core::celllist::CellList;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn config(n: usize, l: f64) -> (SimBox, Vec<Vec3>, Vec<u8>) {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let sb = SimBox::cubic(l);
        let pos = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let ty = (0..n).map(|i| (i % 2) as u8).collect();
        (sb, pos, ty)
    }

    fn system(clusters: usize) -> Mdgrape2System {
        Mdgrape2System::new(
            Mdgrape2Config { clusters },
            GFunction::Dispersion6Force.build_evaluator().unwrap(),
            AtomCoefficients::new(
                &[vec![1.0, 1.0], vec![1.0, 1.0]],
                &[vec![-6.0, -6.0], vec![-6.0, -6.0]],
            ),
        )
    }

    #[test]
    fn pass_matches_f64_block_reference() {
        let (sb, pos, ty) = config(150, 16.0);
        let mut sys = system(4);
        let out = sys
            .calc_pass(PipelineMode::Force, sb, &pos, &ty, 4.0)
            .unwrap();
        let cl = CellList::build(sb, &pos, 4.0);
        let mut sw = vec![[0f64; 3]; pos.len()];
        cl.for_each_block_pair(&pos, |i, _j, d, r2| {
            let bg = -6.0 * r2.powi(-4);
            sw[i][0] += bg * d.x;
            sw[i][1] += bg * d.y;
            sw[i][2] += bg * d.z;
        });
        let scale = sw
            .iter()
            .flat_map(|f| f.iter())
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (h, s)) in out.values.iter().zip(&sw).enumerate() {
            for k in 0..3 {
                assert!(
                    (h[k] - s[k]).abs() / scale < 1e-4,
                    "particle {i} axis {k}: {} vs {}",
                    h[k],
                    s[k]
                );
            }
        }
    }

    #[test]
    fn board_count_does_not_change_results() {
        let (sb, pos, ty) = config(100, 14.0);
        let run = |clusters| {
            system(clusters)
                .calc_pass(PipelineMode::Force, sb, &pos, &ty, 4.0)
                .unwrap()
                .values
        };
        let one = run(1);
        let many = run(8);
        for (a, b) in one.iter().zip(&many) {
            assert_eq!(a, b, "per-i accumulation is board-independent");
        }
    }

    #[test]
    fn pair_ops_equal_n_int_g_accounting() {
        let (sb, pos, ty) = config(200, 18.0);
        let mut sys = system(2);
        let js = JStore::build(sb, &pos, &ty, 4.5);
        let out = sys
            .calc_pass_with_jstore(PipelineMode::Force, &pos, &ty, &js)
            .unwrap();
        assert_eq!(out.counters.pair_ops, js.block_pair_count());
        assert!(out.counters.cycles > 0);
        assert!(out.counters.bus_bytes_per_cluster > 0);
    }

    /// `config` with three species, and the four force tables with a
    /// coefficient RAM each whose every entry is distinct.
    fn three_species(
        n: usize,
        l: f64,
    ) -> (SimBox, Vec<Vec3>, Vec<u8>, Vec<FunctionEvaluator>, Vec<AtomCoefficients>) {
        let (sb, pos, _) = config(n, l);
        let ty = (0..n).map(|i| (i * 7 % 3) as u8).collect();
        (sb, pos, ty, tables(FORCE_KERNELS), three_species_ram())
    }

    /// A system that runs `kernel`.
    fn tiled(clusters: usize, kernel: Kernel) -> Mdgrape2System {
        system(clusters).with_kernel(kernel)
    }

    /// The hierarchy doing its own work, pass by pass: every board of
    /// `clusters` clusters, loaded with the pass's images, is dealt its
    /// chunk of original indices, accepts the j-store and runs
    /// [`MdgBoard::calc_block2`] on the chunk (an idle board is not even
    /// sent the store); the counters are read off those boards' meters,
    /// and each board's meters must be its closed-form bill.
    fn boards_reference(
        clusters: usize,
        passes: &[TablePass<'_>],
        mode: PipelineMode,
        pos: &[Vec3],
        ty: &[u8],
        js: &JStore,
    ) -> Vec<MdgPassResult> {
        let (n, boards) = (pos.len(), Mdgrape2Config { clusters }.boards());
        let per_board = n.div_ceil(boards).max(1);
        let batch = IBatch::stage(pos, ty, js);
        passes
            .iter()
            .map(|pass| {
                let mut values = Vec::with_capacity(n);
                let boards: Vec<MdgBoard> = (0..boards)
                    .map(|b| {
                        let mut board = MdgBoard::new(pass.table.clone(), pass.coefficients.clone());
                        let chunk = (b * per_board).min(n)..((b + 1) * per_board).min(n);
                        if !chunk.is_empty() {
                            board.accept_jstore(js).unwrap();
                            values.extend(board.calc_block2(mode, &batch, chunk, js).iter().map(|a| a.acc));
                        }
                        board
                    })
                    .collect();
                let plan = TilePlan::new(js);
                for (b, board) in boards.iter().enumerate() {
                    let meters = BoardBill { pair_ops: board.ops(), bus_bytes: board.bus_bytes() };
                    assert_eq!(meters, crate::timing::board_bill(clusters, js, &plan, b), "board {b}");
                }
                let ops = boards.iter().map(MdgBoard::ops);
                let counters = MdgCounters {
                    pair_ops: ops.clone().sum(),
                    cycles: ops.map(|o| o.div_ceil(PIPELINES_PER_BOARD as u64)).max().unwrap_or(0),
                    bus_bytes_per_cluster: boards
                        .chunks(BOARDS_PER_CLUSTER)
                        .map(|c| c.iter().map(MdgBoard::bus_bytes).sum())
                        .max()
                        .unwrap_or(0),
                    particles: n as u64,
                };
                MdgPassResult { values, counters }
            })
            .collect()
    }

    /// `P` passes through every kernel's tile sweep, on 1 and 4 threads,
    /// against [`boards_reference`]: every value bit and all four
    /// counters.
    #[allow(clippy::too_many_arguments)]
    fn assert_tiles_match_boards<const P: usize>(
        clusters: usize,
        tables: &[FunctionEvaluator],
        ram: &[AtomCoefficients],
        mode: PipelineMode,
        pos: &[Vec3],
        ty: &[u8],
        js: &JStore,
        what: &str,
    ) {
        let passes: [TablePass<'_>; P] = std::array::from_fn(|p| TablePass {
            table: &tables[p],
            coefficients: &ram[p],
        });
        let reference = boards_reference(clusters, &passes, mode, pos, ty, js);
        for kernel in kernels() {
            let mut tiles = tiled(clusters, kernel);
            for threads in [1usize, 4] {
                let swept = rayon::with_num_threads(threads, || {
                    tiles.calc_passes_with_jstore(mode, &passes, pos, ty, js).unwrap()
                });
                for (p, (t, b)) in swept.iter().zip(&reference).enumerate() {
                    let what = format!("{what} {kernel:?} P {P} {mode:?} pass {p} ({threads} threads)");
                    assert_eq!(t.counters, b.counters, "{what}");
                    for (i, (tv, bv)) in t.values.iter().zip(&b.values).enumerate() {
                        assert_eq!(tv.map(f64::to_bits), bv.map(f64::to_bits), "{what} particle {i}");
                    }
                }
            }
        }
    }

    /// The tile sweep with its billing by arithmetic against the boards
    /// computing and billing their own chunks: every value bit and all
    /// four counters, on an uneven box, on a nearly empty one (27 cells,
    /// 10 particles: most cells empty, and on 3 clusters a board with no
    /// chunk at all) and on one whose every cell holds a ragged tile.
    #[test]
    fn scalar_simd_equivalence_of_the_tile_sweep_and_the_boards() {
        for (n, l, min_cell) in [(150usize, 16.0, 4.0), (10, 12.0, 4.0), (216, 15.0, 5.0)] {
            let (sb, pos, ty, tables, ram) = three_species(n, l);
            let js = JStore::build(sb, &pos, &ty, min_cell);
            for clusters in [1usize, 2, 3] {
                if (n, clusters) == (10, 3) {
                    assert!(deal::contiguous(n, Mdgrape2Config { clusters }.boards(), 5).is_empty(), "no board is idle");
                }
                for mode in [PipelineMode::Force, PipelineMode::Potential] {
                    let what = format!("N {n} clusters {clusters}");
                    assert_tiles_match_boards::<4>(clusters, &tables, &ram, mode, &pos, &ty, &js, &what);
                }
            }
        }
    }

    /// Tiles across home cells against the per-i boards: 3, 4 and 5
    /// cells per side, every cell holding 0, 1, 2, 7, 15, 16, 17 or 33
    /// particles (so tiles start and end mid-cell, span runs of empty
    /// cells, and wrap across rows and planes of the grid), three
    /// species, `P` = 1 / 3 / 4, both modes, 1–3 clusters.
    #[test]
    fn tiles_across_home_cells_match_the_boards() {
        use crate::plan::tests::random_store;
        let (tables, ram) = (tables(FORCE_KERNELS), three_species_ram());
        for (m, seed) in [(3usize, 31u64), (4, 32), (5, 33)] {
            let (_, pos, ty, js) = random_store(m, seed);
            let lanes = crate::plan::LANES;
            let one_cell_tiles: usize = (0..js.n_cells()).map(|c| js.cell_range(c).len().div_ceil(lanes)).sum();
            assert!(TilePlan::new(&js).tiles() < one_cell_tiles, "{m} cells a side: no tile spans home cells");
            for clusters in [1usize, 2, 3] {
                for mode in [PipelineMode::Force, PipelineMode::Potential] {
                    let what = format!("{m} cells a side, N {}, {clusters} clusters", pos.len());
                    let c = clusters;
                    assert_tiles_match_boards::<1>(c, &tables, &ram, mode, &pos, &ty, &js, &what);
                    assert_tiles_match_boards::<3>(c, &tables[1..], &ram[1..], mode, &pos, &ty, &js, &what);
                    assert_tiles_match_boards::<4>(c, &tables, &ram, mode, &pos, &ty, &js, &what);
                }
            }
        }
    }

    /// MXCSR is per thread: the sweep's flush-to-zero must not depend on
    /// the caller's, nor on how many workers the region gets. The
    /// coefficients put most `b·g` products below the smallest normal
    /// `f32`, so a task that ran with gradual underflow would show.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn worker_threads_flush_to_zero_whatever_the_caller_does() {
        let (sb, pos, ty) = config(150, 16.0);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let table = GFunction::Dispersion6Force.build_evaluator().unwrap();
        let ram = AtomCoefficients::new(&[vec![1.0; 2], vec![1.0; 2]], &[vec![1e-34; 2], vec![1e-34; 2]]);
        let pass = [TablePass { table: &table, coefficients: &ram }];
        for kernel in kernels() {
            let mut sys = tiled(2, kernel);
            let mut run = |flushed: bool, threads: usize| {
                let _ftz = flushed.then(crate::ftz::FtzGuard::new);
                let [out] = rayon::with_num_threads(threads, || {
                    sys.calc_passes_with_jstore(PipelineMode::Force, &pass, &pos, &ty, &js).unwrap()
                });
                out.values
            };
            let reference = run(true, 1);
            for flushed in [true, false] {
                for threads in [1usize, 2, 4] {
                    let got = run(flushed, threads);
                    for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                        assert_eq!(
                            g.map(f64::to_bits),
                            r.map(f64::to_bits),
                            "{kernel:?} particle {i}: caller flushed {flushed}, {threads} threads"
                        );
                    }
                }
            }
            // The input does tell the two arithmetics apart: particle 0 by
            // the per-pair datapath on this thread, which does not flush.
            let pipe = crate::pipeline::MdgPipeline::new(table.clone());
            let mut gradual = PairAccum::default();
            let xi = js.position(js.slot_of_original(0));
            for &(nc, shift) in js.neighbors27(js.cell_of(0)) {
                for s in js.cell_range(nc as usize).filter(|&s| js.original_index(s) != 0) {
                    let xj = js.position(s);
                    let xj = [xj[0] + shift[0], xj[1] + shift[1], xj[2] + shift[2]];
                    pipe.interact(xi, xj, 1.0, 1e-34, PipelineMode::Force, &mut gradual);
                }
            }
            assert_ne!(gradual.acc, reference[0], "no subnormal product in the input");
        }
    }

    /// Pool workers live for the whole process, so an MXCSR a sweep task
    /// leaked would silently flush every later region's arithmetic on
    /// that thread. After a four-thread sweep, a four-thread region
    /// whose first item waits for a second thread reads it everywhere.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pool_workers_carry_no_mxcsr_between_regions() {
        use std::sync::{Condvar, Mutex};
        let (sb, pos, ty) = config(150, 16.0);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let table = GFunction::Dispersion6Force.build_evaluator().unwrap();
        let ram = AtomCoefficients::new(&[vec![1.0; 2], vec![1.0; 2]], &[vec![-6.0; 2], vec![-6.0; 2]]);
        let pass = [TablePass { table: &table, coefficients: &ram }];
        for kernel in kernels() {
            let mut sys = tiled(2, kernel);
            assert!(!crate::ftz::flushing(), "the test thread starts flushed");
            let seen = Mutex::new(Vec::new());
            let second_thread = Condvar::new();
            rayon::with_num_threads(4, || {
                sys.calc_passes_with_jstore(PipelineMode::Force, &pass, &pos, &ty, &js).unwrap();
                (0..64usize).into_par_iter().for_each(|i| {
                    let mut seen = seen.lock().unwrap();
                    seen.push((std::thread::current().id(), crate::ftz::flushing()));
                    second_thread.notify_all();
                    if i == 0 {
                        let patience = std::time::Duration::from_secs(5);
                        let one = |seen: &mut Vec<(std::thread::ThreadId, bool)>| seen.iter().all(|s| s.0 == seen[0].0);
                        let _ = second_thread.wait_timeout_while(seen, patience, one).unwrap();
                    }
                });
            });
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), 64);
            assert!(seen.iter().any(|s| s.0 != seen[0].0), "the region ran on one thread");
            assert!(seen.iter().all(|&(_, flushing)| !flushing), "{kernel:?}: a chunk ran with FTZ/DAZ set: {seen:?}");
        }
    }

    /// Address and capacity of every buffer the tile sweep keeps between
    /// calls.
    fn buffers(sys: &Mdgrape2System) -> Vec<(usize, usize)> {
        let machine = &sys.machine;
        let mut buffers = machine.plan.buffers();
        buffers.push((machine.slot_values.as_ptr() as usize, machine.slot_values.capacity()));
        buffers
    }

    #[test]
    fn steady_state_calls_reuse_every_buffer() {
        // The first call sizes the working state and the tile plan, and
        // from then on no buffer moves or grows, whichever pass count or
        // mode follows: not when the j-store is refreshed in place (the
        // plan is kept), nor when it is re-sorted (the plan is rebuilt in
        // its own buffers).
        use crate::jstore::JStoreRefresh;
        let (sb, start, ty, tables, ram) = three_species(150, 16.0);
        let passes: [TablePass<'_>; 4] = std::array::from_fn(|p| TablePass {
            table: &tables[p],
            coefficients: &ram[p],
        });
        for kernel in kernels() {
            let mut pos = start.clone();
            let mut sys = tiled(2, kernel);
            let mut js = JStore::build(sb, &pos, &ty, 4.0);
            sys.calc_passes_with_jstore(PipelineMode::Force, &passes, &pos, &ty, &js).unwrap();
            let warm = buffers(&sys);
            assert!(warm.iter().all(|&(_, capacity)| capacity > 0), "{warm:?}");
            pos[3] += Vec3::new(1e-3, 1e-3, -2e-3);
            assert_eq!(js.refresh(sb, &pos, &ty, 4.0), JStoreRefresh::InPlace);
            sys.calc_passes_with_jstore(PipelineMode::Potential, &passes, &pos, &ty, &js).unwrap();
            assert_eq!(buffers(&sys), warm, "{kernel:?}: the second call moved or grew a buffer");
            // One cell edge along x: particle 11 changes cell.
            pos[11] += Vec3::new(4.0, 0.0, 0.0);
            assert_eq!(js.refresh(sb, &pos, &ty, 4.0), JStoreRefresh::Resorted);
            let third = sys.calc_passes_with_jstore(PipelineMode::Force, &[passes[0]], &pos, &ty, &js).unwrap();
            assert_eq!(buffers(&sys), warm, "{kernel:?}: the third call moved or grew a buffer");
            // Reuse changes nothing: a fresh system computes the same bits.
            let fresh = tiled(2, kernel)
                .calc_passes_with_jstore(PipelineMode::Force, &[passes[0]], &pos, &ty, &js)
                .unwrap();
            assert_eq!(third[0].values, fresh[0].values);
            assert_eq!(third[0].counters, fresh[0].counters);
        }
    }

    /// A j-store over a board's 8 MB SSRAM is refused before the sweep
    /// runs: the billing's capacity check, with the count it refused.
    #[test]
    fn an_over_capacity_jstore_is_refused_before_the_sweep() {
        use crate::board::PARTICLE_CAPACITY;
        let (sb, pos, ty) = config(PARTICLE_CAPACITY + 1, 30.0);
        let js = JStore::build(sb, &pos, &ty, 10.0);
        let refused = system(2).calc_pass_with_jstore(PipelineMode::Force, &pos, &ty, &js);
        let want = MdgBoardError::ParticleMemoryOverflow { requested: PARTICLE_CAPACITY + 1, capacity: PARTICLE_CAPACITY };
        assert_eq!(refused.map(|r| r.counters), Err(want));
    }

    #[test]
    fn config_chip_counts() {
        assert_eq!(Mdgrape2Config::default().chips(), 64);
        assert_eq!(Mdgrape2Config { clusters: 384 }.chips(), 1536); // future
    }
}
