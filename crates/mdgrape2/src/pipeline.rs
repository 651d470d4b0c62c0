//! The MDGRAPE-2 pipeline (paper Fig. 11).
//!
//! Per cycle, the pipeline takes the resident i-particle position and
//! one streamed j-particle, and:
//!
//! 1. forms `r⃗ᵢⱼ = x⃗ᵢ − x⃗ⱼ` in f32;
//! 2. forms `x = aᵢⱼ·rᵢⱼ²` in f32;
//! 3. evaluates `g(x)` in the function evaluator;
//! 4. multiplies `bᵢⱼ·g` and the components of `r⃗ᵢⱼ` in f32;
//! 5. accumulates into f64 registers ("to prevent the underflow when
//!    large number of particles are used", §3.5.4).
//!
//! In **potential mode** step 4–5 accumulate the scalar `bᵢⱼ·g` instead
//! (the real chip had the same dual use; the paper evaluates the
//! potential energy every 100 steps).

use crate::jstore::JCellColumns;
use mdm_funceval::FunctionEvaluator;

/// Reusable per-chip buffers for whole-cell batch evaluation on the
/// scalar paths: the displacement columns, the `x = a·r²` evaluator
/// inputs (one column per table pass of the sweep) and the `g(x)`
/// outputs for one j-cell. Sized lazily to the largest cell seen;
/// allocation never happens in the steady state.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    dx: Vec<f32>,
    dy: Vec<f32>,
    dz: Vec<f32>,
    x: Vec<f32>,
    g: Vec<f32>,
}

impl BatchScratch {
    /// Room for `n` slots and `passes` evaluator-input columns.
    #[inline]
    fn ensure(&mut self, n: usize, passes: usize) {
        if self.dx.len() < n {
            self.dx.resize(n, 0.0);
            self.dy.resize(n, 0.0);
            self.dz.resize(n, 0.0);
            self.g.resize(n, 0.0);
        }
        if self.x.len() < n * passes {
            self.x.resize(n * passes, 0.0);
        }
    }
}

/// Evaluation mode of a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PipelineMode {
    /// Accumulate `bᵢⱼ·g(aᵢⱼr²)·r⃗ᵢⱼ` (three components).
    Force,
    /// Accumulate the scalar `bᵢⱼ·g(aᵢⱼr²)` (pair potential; the host
    /// halves the ordered-pair double counting).
    Potential,
}

/// The f64 accumulation registers of one pipeline serving one
/// i-particle.
#[derive(Clone, Copy, Debug, Default)]
pub struct PairAccum {
    /// Force components (or potential in `[0]` in potential mode).
    pub acc: [f64; 3],
    /// Pair operations accumulated.
    pub ops: u64,
}

/// One table pass of a multi-table cell sweep, as the pipeline sees it
/// for one i-particle against one j-cell: the function-table image and
/// the **pre-gathered coefficient columns** for this i-type, parallel to
/// the cell's slots (`acol[k] = a[ti][tⱼₖ]`). The columns are built
/// once per sweep (O(n_types·N)), which removes the per-pair
/// type gather from the hot loop; the gathered values are the exact
/// same `f32`s the coefficient RAM would supply.
#[derive(Clone, Copy, Debug)]
pub struct CellPass<'a> {
    /// The pass's g(x) table.
    pub evaluator: &'a FunctionEvaluator,
    /// `aᵢⱼ` per in-cell slot.
    pub acol: &'a [f32],
    /// `bᵢⱼ` per in-cell slot.
    pub bcol: &'a [f32],
}

/// Most tables one sweep carries: the four §4 passes (Ewald-real,
/// Born–Mayer, `r⁻⁶`, `r⁻⁸`).
pub const MAX_CELL_PASSES: usize = 4;

/// One i-particle against a **whole j-cell**, for `P` table passes in
/// one sweep — the batch-dispatch granularity of the real board, where
/// the particle index counter streams `jstart..jend` without per-pair
/// host involvement, with the emulator running the passes the hardware
/// would run back to back (a table swap in between) side by side over
/// the geometry they share.
///
/// Per slot: the displacement `r⃗ᵢⱼ = x⃗ᵢ − (x⃗ⱼ + shift)` and `r²` once;
/// then per pass `x = aᵢⱼ·r²`, `g(x)`, `bᵢⱼ·g` and the f64 accumulation
/// of `bᵢⱼ·g·r⃗` (or the scalar `bᵢⱼ·g` in potential mode) into that
/// pass's own `accs[p]`.
///
/// Every f32 operation and each accumulator's f64 add order (slots in
/// cell order) are those of calling [`MdgPipeline::interact`] per slot
/// per pass, so `accs[p]` is **bitwise identical** to pass `p` run
/// alone through the per-pair path — the passes share inputs, never
/// arithmetic. `skip` excludes one in-cell slot (the self pair) from
/// both the accumulation and the op count, exactly as the per-pair
/// driver skipped it: the slot is passed over, no zero is added.
///
/// This is the per-i entry point: the scalar column sweeps of
/// `interact_cell_scalar`, on every CPU. The production sweep of
/// [`crate::system::Mdgrape2System`] runs sixteen i-particles to a tile
/// on AVX-512 lanes where the CPU has them (the `simd` module) and is
/// pinned bitwise against this function; elsewhere it runs this
/// function.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn interact_cell_passes<const P: usize>(
    passes: &[CellPass<'_>; P],
    xi: [f32; 3],
    shift: [f32; 3],
    cell: JCellColumns<'_>,
    skip: Option<usize>,
    mode: PipelineMode,
    accs: &mut [PairAccum; P],
    scratch: &mut BatchScratch,
) {
    const { assert!(P >= 1 && P <= MAX_CELL_PASSES) };
    let n = cell.len();
    if n == 0 {
        return;
    }
    let skip = skip.unwrap_or(n).min(n);
    interact_cell_scalar(passes, xi, shift, cell, skip, mode, accs, scratch);
}

/// The body of [`interact_cell_passes`], in column sweeps over
/// exact-length SoA slices: one geometry sweep that also forms every
/// pass's evaluator input `x = a·r²`, then per pass one
/// [`FunctionEvaluator::eval_batch`] and the slot-order accumulation with
/// the self slot (`skip`; `cell.len()` for none) excised as two
/// sub-ranges.
#[allow(clippy::too_many_arguments)]
pub(crate) fn interact_cell_scalar<const P: usize>(
    passes: &[CellPass<'_>; P],
    xi: [f32; 3],
    shift: [f32; 3],
    cell: JCellColumns<'_>,
    skip: usize,
    mode: PipelineMode,
    accs: &mut [PairAccum; P],
    scratch: &mut BatchScratch,
) {
    let n = cell.len();
    scratch.ensure(n, P);
    let BatchScratch { dx, dy, dz, x, g } = scratch;
    let (dx, dy, dz, x, gv) = (
        &mut dx[..n],
        &mut dy[..n],
        &mut dz[..n],
        &mut x[..n * P],
        &mut g[..n],
    );
    let (xs, ys, zs) = (&cell.xs[..n], &cell.ys[..n], &cell.zs[..n]);
    let acols: [&[f32]; P] = std::array::from_fn(|p| &passes[p].acol[..n]);
    for k in 0..n {
        let ddx = xi[0] - (xs[k] + shift[0]);
        let ddy = xi[1] - (ys[k] + shift[1]);
        let ddz = xi[2] - (zs[k] + shift[2]);
        let r_sq = ddx * ddx + ddy * ddy + ddz * ddz;
        dx[k] = ddx;
        dy[k] = ddy;
        dz[k] = ddz;
        for (p, acol) in acols.iter().enumerate() {
            x[p * n + k] = acol[k] * r_sq;
        }
    }
    let ops = (n - usize::from(skip < n)) as u64;
    for (p, (pass, acc)) in passes.iter().zip(accs.iter_mut()).enumerate() {
        let (xv, bc) = (&x[p * n..(p + 1) * n], &pass.bcol[..n]);
        pass.evaluator.eval_batch(xv, gv);
        // A local copy keeps the chains in registers: adding through
        // `acc` puts a store and a reload between dependent adds.
        let mut sum = acc.acc;
        match mode {
            PipelineMode::Force => {
                for range in [0..skip, (skip + 1).min(n)..n] {
                    for k in range {
                        let bg = bc[k] * gv[k];
                        sum[0] += (bg * dx[k]) as f64;
                        sum[1] += (bg * dy[k]) as f64;
                        sum[2] += (bg * dz[k]) as f64;
                    }
                }
            }
            PipelineMode::Potential => {
                for range in [0..skip, (skip + 1).min(n)..n] {
                    for k in range {
                        sum[0] += (bc[k] * gv[k]) as f64;
                    }
                }
            }
        }
        acc.acc = sum;
        acc.ops += ops;
    }
}

/// One MDGRAPE-2 pipeline: the function evaluator plus op counting.
/// Coefficients `aᵢⱼ, bᵢⱼ` arrive per pair from the chip's atom
/// coefficient RAM.
#[derive(Clone, Debug)]
pub struct MdgPipeline {
    evaluator: FunctionEvaluator,
}

impl MdgPipeline {
    /// Wire a pipeline to a function-table image.
    pub fn new(evaluator: FunctionEvaluator) -> Self {
        Self { evaluator }
    }

    /// Replace the function table (what `MR1SetTable` loads).
    pub fn load_table(&mut self, evaluator: FunctionEvaluator) {
        self.evaluator = evaluator;
    }

    /// The loaded evaluator.
    pub fn evaluator(&self) -> &FunctionEvaluator {
        &self.evaluator
    }

    /// One pair interaction: i at `xi`, j at `xj` (both f32, as stored
    /// in particle memory), coefficients `(a, b)`, accumulated into
    /// `acc` according to `mode`.
    #[inline]
    pub fn interact(
        &self,
        xi: [f32; 3],
        xj: [f32; 3],
        a: f32,
        b: f32,
        mode: PipelineMode,
        acc: &mut PairAccum,
    ) {
        let dx = xi[0] - xj[0];
        let dy = xi[1] - xj[1];
        let dz = xi[2] - xj[2];
        let r_sq = dx * dx + dy * dy + dz * dz;
        let g = self.evaluator.eval(a * r_sq);
        let bg = b * g;
        match mode {
            PipelineMode::Force => {
                acc.acc[0] += (bg * dx) as f64;
                acc.acc[1] += (bg * dy) as f64;
                acc.acc[2] += (bg * dz) as f64;
            }
            PipelineMode::Potential => {
                acc.acc[0] += bg as f64;
            }
        }
        acc.ops += 1;
    }

    /// One i-particle against a whole j-cell with the loaded table: the
    /// single-pass instance of [`interact_cell_passes`] (see there for
    /// the datapath and the bitwise contract, pinned by
    /// `tests/realspace_equivalence.rs`). Inlined into its callers, so
    /// sharing the kernel costs short cells no extra call level.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn interact_cell(
        &self,
        xi: [f32; 3],
        shift: [f32; 3],
        cell: JCellColumns<'_>,
        acol: &[f32],
        bcol: &[f32],
        skip: Option<usize>,
        mode: PipelineMode,
        acc: &mut PairAccum,
        scratch: &mut BatchScratch,
    ) {
        let pass = CellPass {
            evaluator: &self.evaluator,
            acol,
            bcol,
        };
        interact_cell_passes(
            &[pass],
            xi,
            shift,
            cell,
            skip,
            mode,
            std::array::from_mut(acc),
            scratch,
        );
    }

    /// The Newton's-third-law variant of [`Self::interact_cell`]: each
    /// computed pair lands **twice** — `+f⃗` into the i-accumulator and
    /// `−f⃗` into `back[k]`, the reaction column parallel to `cell` (in
    /// potential mode both sides receive `+bᵢⱼ·g`, matching the
    /// ordered-pair double counting the host halves).
    ///
    /// `lo` is the first in-cell slot to process: `0` for a cross-cell
    /// batch, the i-slot + 1 for the triangular same-cell batch. This is
    /// the software-only fast path — no MDGRAPE-2 mode computes a pair
    /// once — and its results match the no-N3L path to f64 tolerance,
    /// not bitwise (the f32 datapath sees `r⃗ᵢⱼ` from one side only).
    #[allow(clippy::too_many_arguments)]
    pub fn interact_cell_n3l(
        &self,
        xi: [f32; 3],
        shift: [f32; 3],
        cell: JCellColumns<'_>,
        lo: usize,
        acol: &[f32],
        bcol: &[f32],
        mode: PipelineMode,
        acc: &mut PairAccum,
        back: &mut [[f64; 3]],
        scratch: &mut BatchScratch,
    ) {
        let n = cell.len();
        debug_assert_eq!(back.len(), n);
        if lo >= n {
            return;
        }
        scratch.ensure(n, 1);
        let BatchScratch { dx, dy, dz, x, g } = scratch;
        let (dx, dy, dz, xv, gv) = (
            &mut dx[lo..n],
            &mut dy[lo..n],
            &mut dz[lo..n],
            &mut x[lo..n],
            &mut g[lo..n],
        );
        let (xs, ys, zs, ac, bc, bk) = (
            &cell.xs[lo..n],
            &cell.ys[lo..n],
            &cell.zs[lo..n],
            &acol[lo..n],
            &bcol[lo..n],
            &mut back[lo..n],
        );
        let m = n - lo;
        for k in 0..m {
            let ddx = xi[0] - (xs[k] + shift[0]);
            let ddy = xi[1] - (ys[k] + shift[1]);
            let ddz = xi[2] - (zs[k] + shift[2]);
            let r_sq = ddx * ddx + ddy * ddy + ddz * ddz;
            dx[k] = ddx;
            dy[k] = ddy;
            dz[k] = ddz;
            xv[k] = ac[k] * r_sq;
        }
        self.evaluator.eval_batch(xv, gv);
        match mode {
            PipelineMode::Force => {
                for k in 0..m {
                    let bg = bc[k] * gv[k];
                    let fx = (bg * dx[k]) as f64;
                    let fy = (bg * dy[k]) as f64;
                    let fz = (bg * dz[k]) as f64;
                    acc.acc[0] += fx;
                    acc.acc[1] += fy;
                    acc.acc[2] += fz;
                    bk[k][0] -= fx;
                    bk[k][1] -= fy;
                    bk[k][2] -= fz;
                }
            }
            PipelineMode::Potential => {
                for k in 0..m {
                    let bg = (bc[k] * gv[k]) as f64;
                    acc.acc[0] += bg;
                    bk[k][0] += bg;
                }
            }
        }
        acc.ops += m as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdm_funceval::{FunctionTable, Segmentation};

    fn pipeline_for<F: Fn(f64) -> f64 + 'static>(g: F) -> MdgPipeline {
        let seg = Segmentation::HARDWARE_DEFAULT;
        MdgPipeline::new(FunctionEvaluator::new(
            FunctionTable::generate("test", seg, g).unwrap(),
        ))
    }

    #[test]
    fn force_matches_f64_reference_to_single_precision() {
        // g(x) = x⁻², a = 1, b = 1 → f⃗ = r⃗/r⁴.
        let p = pipeline_for(|x| 1.0 / (x * x));
        let xi = [1.0f32, 2.0, 3.0];
        let xj = [2.5f32, 0.5, 2.0];
        let mut acc = PairAccum::default();
        p.interact(xi, xj, 1.0, 1.0, PipelineMode::Force, &mut acc);
        let d = [-1.5f64, 1.5, 1.0];
        let r_sq = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
        for (k, dk) in d.iter().enumerate() {
            let expect = dk / (r_sq * r_sq);
            assert!(
                ((acc.acc[k] - expect) / expect).abs() < 1e-5,
                "axis {k}: {} vs {expect}",
                acc.acc[k]
            );
        }
        assert_eq!(acc.ops, 1);
    }

    #[test]
    fn self_pair_contributes_zero_force() {
        // r⃗ = 0: whatever finite g(0⁻) the table returns, the force is 0.
        let p = pipeline_for(|x| 1.0 / (x * x.sqrt()));
        let xi = [4.0f32, 4.0, 4.0];
        let mut acc = PairAccum::default();
        p.interact(xi, xi, 1.0, 1.0, PipelineMode::Force, &mut acc);
        assert_eq!(acc.acc, [0.0; 3]);
    }

    #[test]
    fn potential_mode_accumulates_scalar() {
        let p = pipeline_for(|x| (-x).exp());
        let mut acc = PairAccum::default();
        p.interact(
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            1.0,
            2.0,
            PipelineMode::Potential,
            &mut acc,
        );
        // b·g(1) = 2·e⁻¹.
        assert!((acc.acc[0] - 2.0 * (-1.0f64).exp()).abs() < 1e-5);
        assert_eq!(acc.acc[1], 0.0);
    }

    #[test]
    fn f64_accumulation_does_not_lose_small_terms() {
        // 1e6 terms of 1e-4 in f32 accumulation would stall at ~2e1
        // (f32 ulp at 32 is 2⁻¹⁸·32 ≈ 1.2e-4); the f64 accumulator must
        // reach 100 accurately. This is exactly the §3.5.4 rationale.
        let p = pipeline_for(|_| 1e-4);
        let mut acc = PairAccum::default();
        for _ in 0..1_000_000 {
            p.interact(
                [1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
                1.0,
                1.0,
                PipelineMode::Force,
                &mut acc,
            );
        }
        assert!(
            (acc.acc[0] - 100.0).abs() / 100.0 < 1e-3,
            "accumulated {}",
            acc.acc[0]
        );
        assert_eq!(acc.ops, 1_000_000);
    }

    /// The multi-table sweep against the per-pair datapath it stands
    /// for: short and long cells, with and without a self slot.
    #[test]
    fn cell_passes_bitwise_match_per_pair_interact_per_pass() {
        use crate::tables::GFunction;
        let pipes: Vec<MdgPipeline> = [
            GFunction::CoulombRealForce,
            GFunction::BornMayerForce,
            GFunction::Dispersion6Force,
            GFunction::Dispersion8Force,
        ]
        .iter()
        .map(|g| MdgPipeline::new(g.build_evaluator().unwrap()))
        .collect();
        let _ftz = crate::ftz::FtzGuard::new();
        for n in [1usize, 3, 4, 21, 40] {
            let col = |scale: f32, phase: f32| -> Vec<f32> {
                (0..n).map(|k| (k as f32 * phase).sin().abs() * scale).collect()
            };
            let (xs, ys, zs) = (col(5.0, 0.37), col(5.0, 0.91), col(5.0, 1.73));
            let types = vec![0u8; n];
            let cols: Vec<(Vec<f32>, Vec<f32>)> = (0..4)
                .map(|p| (col(0.8, 0.2 + p as f32), col(3.0, 0.6 + p as f32)))
                .collect();
            let cell = JCellColumns {
                xs: &xs,
                ys: &ys,
                zs: &zs,
                types: &types,
            };
            let (xi, shift) = ([2.5f32, 2.4, 2.6], [5.0f32, 0.0, -5.0]);
            for skip in [None, Some(n / 2)] {
                for mode in [PipelineMode::Force, PipelineMode::Potential] {
                    let passes: [CellPass<'_>; 4] = std::array::from_fn(|p| CellPass {
                        evaluator: pipes[p].evaluator(),
                        acol: &cols[p].0,
                        bcol: &cols[p].1,
                    });
                    let mut swept = [PairAccum::default(); 4];
                    interact_cell_passes(
                        &passes,
                        xi,
                        shift,
                        cell,
                        skip,
                        mode,
                        &mut swept,
                        &mut BatchScratch::default(),
                    );
                    for (p, pipe) in pipes.iter().enumerate() {
                        let mut per_pair = PairAccum::default();
                        for k in (0..n).filter(|&k| Some(k) != skip) {
                            let xj = [xs[k] + shift[0], ys[k] + shift[1], zs[k] + shift[2]];
                            pipe.interact(xi, xj, cols[p].0[k], cols[p].1[k], mode, &mut per_pair);
                        }
                        assert_eq!(
                            swept[p].acc.map(f64::to_bits),
                            per_pair.acc.map(f64::to_bits),
                            "n {n} skip {skip:?} {mode:?} pass {p}"
                        );
                        assert_eq!(swept[p].ops, per_pair.ops);
                    }
                }
            }
        }
    }

    #[test]
    fn coefficients_scale_linearly() {
        let p = pipeline_for(|x| 1.0 / x);
        let xi = [0.0f32, 0.0, 0.0];
        let xj = [2.0f32, 0.0, 0.0];
        let mut a1 = PairAccum::default();
        let mut a2 = PairAccum::default();
        p.interact(xi, xj, 1.0, 1.0, PipelineMode::Force, &mut a1);
        p.interact(xi, xj, 1.0, 3.0, PipelineMode::Force, &mut a2);
        assert!((a2.acc[0] / a1.acc[0] - 3.0).abs() < 1e-6);
    }
}
