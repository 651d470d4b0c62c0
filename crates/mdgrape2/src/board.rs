//! The MDGRAPE-2 board (paper Fig. 9): two chips behind an FPGA holding
//! the **cell index counter**, **cell memory**, **particle index
//! counter** and 8 MB of SSRAM particle memory.
//!
//! The dual-counter dataflow of eqs. 7–8: for each i-particle, the cell
//! index counter steps through the 27 neighbour cells `c`; the cell
//! memory supplies `(jstartᶜ, jendᶜ)`; the particle index counter then
//! streams every j in that range — **no distance test, no third-law
//! skip** ("MDGRAPE-2 does not skip the force calculation even if the
//! distance between two particles is larger than r_cut", §2.2).
//!
//! That dataflow is what a board *bills* (pair ops per chip, bytes on
//! the bus). The host *executes* the hardware-faithful pattern above the
//! board level, sixteen i-particles to a tile (the `sweep` module), and
//! bills each board its share by arithmetic
//! ([`crate::timing::board_bill`]), without building one; the entry
//! points here that compute per i-particle are the oracle the tiles are
//! pinned against, and the Newton's-third-law mode builds its boards
//! for the call.

use crate::chip::{AtomCoefficients, MdgChip, PIPELINES_PER_CHIP};
use crate::ftz::FtzGuard;
use crate::jstore::JStore;
use crate::pipeline::{PairAccum, PipelineMode};
use mdm_funceval::FunctionEvaluator;

/// Chips per board (Fig. 8b).
pub const CHIPS_PER_BOARD: usize = 2;
/// Pipelines per board.
pub const PIPELINES_PER_BOARD: usize = CHIPS_PER_BOARD * PIPELINES_PER_CHIP;
/// Particle memory: 8 MB SSRAM (§3.5.2).
pub const PARTICLE_MEMORY_BYTES: usize = 8 * 1024 * 1024;
/// Bytes per stored j-particle (3 × f32 position, charge/type word).
pub const BYTES_PER_PARTICLE: usize = 16;
/// j-particles the SSRAM holds.
pub const PARTICLE_CAPACITY: usize = PARTICLE_MEMORY_BYTES / BYTES_PER_PARTICLE;

/// An i-particle as dispatched to the pipelines (the per-pair reference
/// path; the batched per-i path stages an [`IBatch`] instead).
#[derive(Clone, Copy, Debug)]
pub struct IParticle {
    /// Position (f32, as the pipeline receives it).
    pub pos: [f32; 3],
    /// Species index.
    pub ty: u8,
    /// Home cell in the j-store grid.
    pub cell: u32,
    /// Original index (used only to skip the self pair).
    pub original: u32,
}

/// Sentinel in [`IBatch::self_slots`] for an i-particle that has no
/// counterpart in the j-store (disjoint i/j sets): no self pair to skip.
pub const NO_SELF_SLOT: u32 = u32::MAX;

/// The staged i-particles of one pass in structure-of-arrays form — the
/// flat `x[]/y[]/z[]` layout the batched pipelines consume, built once
/// per pass by the host and sliced into contiguous per-board ranges.
#[derive(Clone, Debug, Default)]
pub struct IBatch {
    /// x components (f32, as the pipelines receive them).
    pub xs: Vec<f32>,
    /// y components.
    pub ys: Vec<f32>,
    /// z components.
    pub zs: Vec<f32>,
    /// Species index per i-particle.
    pub types: Vec<u8>,
    /// Home cell in the j-store grid.
    pub cells: Vec<u32>,
    /// The i-particle's own sorted slot in the j-store (for the O(1)
    /// self-pair skip), or [`NO_SELF_SLOT`].
    pub self_slots: Vec<u32>,
}

impl IBatch {
    /// Stage every position (in original order, so pass results line up
    /// with the caller's indexing) against `jstore`. Index `i` is taken
    /// as the particle's original index for the self-pair skip, exactly
    /// as the per-pair path's [`IParticle::original`].
    pub fn stage(positions: &[mdm_core::vec3::Vec3], types: &[u8], jstore: &JStore) -> Self {
        assert_eq!(positions.len(), types.len());
        let n = positions.len();
        let mut batch = Self {
            xs: Vec::with_capacity(n),
            ys: Vec::with_capacity(n),
            zs: Vec::with_capacity(n),
            types: types.to_vec(),
            cells: Vec::with_capacity(n),
            self_slots: Vec::with_capacity(n),
        };
        for (i, p) in positions.iter().enumerate() {
            batch.xs.push(p.x as f32);
            batch.ys.push(p.y as f32);
            batch.zs.push(p.z as f32);
            batch.cells.push(jstore.cell_of(i) as u32);
            batch.self_slots.push(if i < jstore.len() {
                jstore.slot_of_original(i) as u32
            } else {
                NO_SELF_SLOT
            });
        }
        batch
    }

    /// Staged i-particles.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// Board-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdgBoardError {
    /// j-store exceeds the 8 MB SSRAM.
    ParticleMemoryOverflow {
        /// Requested particle count.
        requested: usize,
        /// SSRAM capacity.
        capacity: usize,
    },
    /// The j-store does not hold the configuration the pass was given:
    /// the sweep reads its i-side from the store's image, so it would
    /// return another configuration's forces.
    StaleJStore {
        /// The first original index whose `f32` position or species
        /// differs from the store's image (the shorter length if the
        /// particle counts differ).
        particle: usize,
    },
}

impl std::fmt::Display for MdgBoardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParticleMemoryOverflow { requested, capacity } => write!(
                f,
                "SSRAM overflow: {requested} j-particles > capacity {capacity}"
            ),
            Self::StaleJStore { particle } => write!(
                f,
                "stale j-store: particle {particle} differs from the uploaded image"
            ),
        }
    }
}

impl std::error::Error for MdgBoardError {}

/// Per-i-type coefficient columns of the resident coefficient RAM,
/// parallel to the j-store slot order: `a[ti][slot] = a(ti, types[slot])`
/// (and likewise `b`). Rebuilt at the top of every per-i batched sweep —
/// O(n_types·N) gathers, negligible next to the O(N·27·occupancy) pair
/// work they free from per-pair type lookups. The gathered values are the
/// exact `f32`s of the coefficient RAM, so the columns change nothing
/// numerically.
#[derive(Clone, Debug, Default)]
struct CoeffCols {
    a: Vec<Vec<f32>>,
    b: Vec<Vec<f32>>,
}

impl CoeffCols {
    /// Regather the columns for `coeffs` over the slot-ordered species
    /// column `types`, reusing the buffers.
    fn build(&mut self, coeffs: &AtomCoefficients, types: &[u8]) {
        let n_types = coeffs.n_types();
        self.a.resize_with(n_types, Vec::new);
        self.b.resize_with(n_types, Vec::new);
        for ti in 0..n_types {
            let (a_row, b_row) = coeffs.rows(ti as u8);
            let (ca, cb) = (&mut self.a[ti], &mut self.b[ti]);
            ca.clear();
            cb.clear();
            ca.extend(types.iter().map(|&tj| a_row[tj as usize]));
            cb.extend(types.iter().map(|&tj| b_row[tj as usize]));
        }
    }
}

/// One MDGRAPE-2 board.
#[derive(Clone, Debug)]
pub struct MdgBoard {
    chips: Vec<MdgChip>,
    bus_bytes: u64,
    /// Columns for the per-i entry points.
    coeff_cols: CoeffCols,
}

impl MdgBoard {
    /// Build with a function table and coefficient RAM replicated to
    /// both chips.
    pub fn new(evaluator: FunctionEvaluator, coefficients: AtomCoefficients) -> Self {
        Self {
            chips: (0..CHIPS_PER_BOARD)
                .map(|_| MdgChip::new(evaluator.clone(), coefficients.clone()))
                .collect(),
            bus_bytes: 0,
            coeff_cols: CoeffCols::default(),
        }
    }

    /// Validate a j-store against the SSRAM capacity and count its
    /// upload traffic.
    pub fn accept_jstore(&mut self, jstore: &JStore) -> Result<(), MdgBoardError> {
        self.bus_bytes += crate::timing::upload(jstore)?;
        Ok(())
    }

    /// Run a block-2 pass (eqs. 7–8) with the resident table and
    /// coefficients for the i-particles `batch[range]` against the
    /// resident j-store, one whole j-cell per pipeline dispatch. Returns
    /// one accumulator per i-particle in range order. i-particles are
    /// dealt round-robin to the chips; the board result does not depend
    /// on the dealing because each i has its own accumulator.
    ///
    /// Bitwise identical to [`Self::calc_block2_per_pair`] over the same
    /// particles: the batch kernel preserves the per-pair f32 operation
    /// sequence and the f64 accumulation order (slots in cell order,
    /// cells in 27-stencil order).
    pub fn calc_block2(
        &mut self,
        mode: PipelineMode,
        batch: &IBatch,
        range: std::ops::Range<usize>,
        jstore: &JStore,
    ) -> Vec<PairAccum> {
        let _ftz = FtzGuard::new();
        self.coeff_cols
            .build(self.chips[0].coefficients(), jstore.types());
        let (columns, chips) = (&self.coeff_cols, &mut self.chips);
        let mut out = vec![PairAccum::default(); range.len()];
        for (idx, (i, acc)) in range.clone().zip(out.iter_mut()).enumerate() {
            let chip = &mut chips[idx % CHIPS_PER_BOARD];
            let pipe = (idx / CHIPS_PER_BOARD) % PIPELINES_PER_CHIP;
            let xi = [batch.xs[i], batch.ys[i], batch.zs[i]];
            let ti = batch.types[i] as usize;
            let self_slot = batch.self_slots[i] as usize;
            for &(nc, shift) in jstore.neighbors27(batch.cells[i] as usize) {
                let cell_range = jstore.cell_range(nc as usize);
                // The self pair lives in exactly one zero-shift cell;
                // skipped as the per-pair driver did (the silicon
                // evaluates it and gets f⃗·0⃗; skipping is numerically
                // identical and keeps potential mode clean).
                let skip = (shift == [0.0f32; 3] && cell_range.contains(&self_slot))
                    .then(|| self_slot - cell_range.start);
                chip.stream_cell(
                    pipe,
                    mode,
                    xi,
                    shift,
                    jstore.cell_columns(nc as usize),
                    &columns.a[ti][cell_range.clone()],
                    &columns.b[ti][cell_range],
                    skip,
                    acc,
                );
            }
        }
        // Force read-back: 24 B per i-particle (3 × f64).
        self.bus_bytes += (range.len() * 24) as u64;
        out
    }

    /// The pre-batching per-pair reference implementation of
    /// [`Self::calc_block2`]: one virtual dispatch per streamed j. Kept
    /// as the ground truth the batched path is pinned bitwise against
    /// (and for callers that stage ad-hoc [`IParticle`] records).
    pub fn calc_block2_per_pair(
        &mut self,
        mode: PipelineMode,
        i_particles: &[IParticle],
        jstore: &JStore,
    ) -> Vec<PairAccum> {
        let _ftz = FtzGuard::new();
        let mut out = vec![PairAccum::default(); i_particles.len()];
        for (idx, (ip, acc)) in i_particles.iter().zip(out.iter_mut()).enumerate() {
            let chip = idx % CHIPS_PER_BOARD;
            let pipe = (idx / CHIPS_PER_BOARD) % PIPELINES_PER_CHIP;
            let neighbors = *jstore.neighbors27(ip.cell as usize);
            for (nc, shift) in neighbors {
                let range = jstore.cell_range(nc as usize);
                let zero_shift = shift == [0.0f32; 3];
                let original = ip.original as usize;
                let js = range.filter_map(|slot| {
                    if zero_shift && jstore.original_index(slot) == original {
                        return None;
                    }
                    let p = jstore.position(slot);
                    Some((
                        [p[0] + shift[0], p[1] + shift[1], p[2] + shift[2]],
                        jstore.species(slot),
                    ))
                });
                self.chips[chip].stream(pipe, mode, ip.pos, ip.ty, js, acc);
            }
        }
        self.bus_bytes += (i_particles.len() * 24) as u64;
        out
    }

    /// The Newton's-third-law software fast path: evaluate each
    /// **unordered** block pair once for the home cells in `cells`,
    /// accumulating action and reaction into `forces` (sorted-slot
    /// indexed, length `jstore.len()`).
    ///
    /// Cell-pair enumeration: for home cell `c`, a neighbour entry
    /// `(nc, shift)` is taken iff `nc > c` (full cross batch) or
    /// `nc == c` (triangular in-cell batch) — valid because with ≥ 3
    /// cells per side the 27 stencil entries are distinct cells and a
    /// same-cell entry has zero shift. Pair ops drop to half the
    /// hardware pattern (minus self pairs); no MDGRAPE-2 mode does this,
    /// so modeled hardware numbers for this mode describe a hypothetical
    /// N3L-capable board.
    pub fn calc_block2_n3l(
        &mut self,
        mode: PipelineMode,
        cells: std::ops::Range<usize>,
        jstore: &JStore,
        forces: &mut [[f64; 3]],
    ) {
        let _ftz = FtzGuard::new();
        assert_eq!(forces.len(), jstore.len());
        self.coeff_cols
            .build(self.chips[0].coefficients(), jstore.types());
        let coeff_cols = &self.coeff_cols;
        let chips = &mut self.chips;
        let mut i_count = 0usize;
        for c in cells {
            let ci_range = jstore.cell_range(c);
            i_count += ci_range.len();
            for (ii, islot) in ci_range.clone().enumerate() {
                let chip = islot % CHIPS_PER_BOARD;
                let pipe = (islot / CHIPS_PER_BOARD) % PIPELINES_PER_CHIP;
                let xi = jstore.position(islot);
                let ti = jstore.species(islot) as usize;
                let (acol, bcol) = (&coeff_cols.a[ti], &coeff_cols.b[ti]);
                let mut acc = PairAccum::default();
                for &(nc, shift) in jstore.neighbors27(c) {
                    let nc = nc as usize;
                    if nc < c {
                        continue;
                    }
                    let (cols, lo, back_range) = if nc == c {
                        debug_assert_eq!(shift, [0.0f32; 3]);
                        (jstore.cell_columns(c), ii + 1, ci_range.clone())
                    } else {
                        (jstore.cell_columns(nc), 0, jstore.cell_range(nc))
                    };
                    chips[chip].stream_cell_n3l(
                        pipe,
                        mode,
                        xi,
                        shift,
                        cols,
                        lo,
                        &acol[back_range.clone()],
                        &bcol[back_range.clone()],
                        &mut acc,
                        &mut forces[back_range],
                    );
                }
                let f = &mut forces[islot];
                f[0] += acc.acc[0];
                f[1] += acc.acc[1];
                f[2] += acc.acc[2];
            }
        }
        self.bus_bytes += (i_count * 24) as u64;
    }

    /// Pair operations executed across both chips.
    pub fn ops(&self) -> u64 {
        self.chips.iter().map(MdgChip::ops).sum()
    }

    /// Bus traffic, bytes.
    pub fn bus_bytes(&self) -> u64 {
        self.bus_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::GFunction;
    use mdm_core::boxsim::SimBox;
    use mdm_core::vec3::Vec3;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn board(g: GFunction, a: f64, b: f64) -> MdgBoard {
        MdgBoard::new(
            g.build_evaluator().unwrap(),
            AtomCoefficients::new(&[vec![a, a], vec![a, a]], &[vec![b, b], vec![b, b]]),
        )
    }

    fn config(n: usize, l: f64) -> (SimBox, Vec<Vec3>, Vec<u8>) {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let sb = SimBox::cubic(l);
        let pos = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let ty = (0..n).map(|i| (i % 2) as u8).collect();
        (sb, pos, ty)
    }

    fn i_particles(pos: &[Vec3], ty: &[u8], js: &JStore) -> Vec<IParticle> {
        pos.iter()
            .enumerate()
            .map(|(i, p)| IParticle {
                pos: [p.x as f32, p.y as f32, p.z as f32],
                ty: ty[i],
                cell: js.cell_of(i) as u32,
                original: i as u32,
            })
            .collect()
    }

    #[test]
    fn block2_ops_equal_block_pair_count() {
        let (sb, pos, ty) = config(120, 15.0);
        let js = JStore::build(sb, &pos, &ty, 5.0);
        let mut b = board(GFunction::Dispersion6Force, 1.0, -6.0);
        b.accept_jstore(&js).unwrap();
        let batch = IBatch::stage(&pos, &ty, &js);
        let out = b.calc_block2(PipelineMode::Force, &batch, 0..batch.len(), &js);
        assert_eq!(out.len(), 120);
        assert_eq!(b.ops(), js.block_pair_count());
    }

    #[test]
    fn batched_block2_is_bitwise_identical_to_per_pair() {
        let (sb, pos, ty) = config(100, 14.0);
        let js = JStore::build(sb, &pos, &ty, 4.5);
        let mut b1 = board(GFunction::Dispersion6Force, 1.0, -6.0);
        let mut b2 = board(GFunction::Dispersion6Force, 1.0, -6.0);
        for mode in [PipelineMode::Force, PipelineMode::Potential] {
            let batch = IBatch::stage(&pos, &ty, &js);
            let batched = b1.calc_block2(mode, &batch, 0..batch.len(), &js);
            let per_pair = b2.calc_block2_per_pair(mode, &i_particles(&pos, &ty, &js), &js);
            for (i, (a, b)) in batched.iter().zip(&per_pair).enumerate() {
                assert_eq!(a.acc, b.acc, "particle {i} ({mode:?})");
                assert_eq!(a.ops, b.ops, "particle {i} ({mode:?})");
            }
        }
    }

    #[test]
    fn n3l_block2_matches_no_n3l_to_f64_tolerance() {
        let (sb, pos, ty) = config(90, 13.0);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let mut b1 = board(GFunction::Dispersion6Force, 1.0, -6.0);
        let mut b2 = board(GFunction::Dispersion6Force, 1.0, -6.0);
        let batch = IBatch::stage(&pos, &ty, &js);
        let no_n3l = b1.calc_block2(PipelineMode::Force, &batch, 0..batch.len(), &js);
        let mut forces = vec![[0f64; 3]; js.len()];
        b2.calc_block2_n3l(PipelineMode::Force, 0..js.n_cells(), &js, &mut forces);
        // Half the evaluations...
        assert_eq!(b2.ops(), js.block_pair_count() / 2);
        // ...same forces to f32-rounding tolerance (image pairs see r⃗
        // from one side only; agreement is tolerance, not bitwise).
        let scale = no_n3l
            .iter()
            .flat_map(|a| a.acc.iter())
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, a) in no_n3l.iter().enumerate() {
            let s = js.slot_of_original(i);
            for (k, (av, fv)) in a.acc.iter().zip(&forces[s]).enumerate() {
                assert!(
                    (av - fv).abs() / scale < 1e-5,
                    "particle {i} axis {k}: {av} vs {fv}"
                );
            }
        }
    }

    #[test]
    fn forces_match_f64_block_reference() {
        // Same traversal in f64 (no cutoff, 27 cells, ordered pairs)
        // must agree to f32 pipeline accuracy.
        let (sb, pos, ty) = config(80, 12.0);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let mut b = board(GFunction::Dispersion6Force, 1.0, -6.0);
        b.accept_jstore(&js).unwrap();
        let batch = IBatch::stage(&pos, &ty, &js);
        let hw = b.calc_block2(PipelineMode::Force, &batch, 0..batch.len(), &js);

        let cl = mdm_core::celllist::CellList::build(sb, &pos, 4.0);
        let mut sw = vec![[0f64; 3]; pos.len()];
        cl.for_each_block_pair(&pos, |i, _j, d, r2| {
            let g = r2.powi(-4);
            let bg = -6.0 * g;
            sw[i][0] += bg * d.x;
            sw[i][1] += bg * d.y;
            sw[i][2] += bg * d.z;
        });
        let scale = sw
            .iter()
            .flat_map(|f| f.iter())
            .fold(0.0f64, |m, v| m.max(v.abs()));
        for (i, (h, s)) in hw.iter().zip(&sw).enumerate() {
            for (k, sk) in s.iter().enumerate() {
                assert!(
                    (h.acc[k] - sk).abs() / scale < 1e-4,
                    "particle {i} axis {k}: {} vs {}",
                    h.acc[k],
                    sk
                );
            }
        }
    }

    #[test]
    fn capacity_is_half_megaparticle() {
        assert_eq!(PARTICLE_CAPACITY, 512 * 1024);
    }

    #[test]
    fn potential_mode_counts_each_ordered_pair() {
        let (sb, pos, ty) = config(60, 12.0);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let mut b = board(GFunction::Dispersion6Energy, 1.0, 1.0);
        b.accept_jstore(&js).unwrap();
        let batch = IBatch::stage(&pos, &ty, &js);
        let out = b.calc_block2(PipelineMode::Potential, &batch, 0..batch.len(), &js);
        let total_ops: u64 = out.iter().map(|a| a.ops).sum();
        assert_eq!(total_ops, js.block_pair_count());
        // All scalar accumulations, no vector parts.
        for a in &out {
            assert_eq!(a.acc[1], 0.0);
            assert_eq!(a.acc[2], 0.0);
        }
    }
}
