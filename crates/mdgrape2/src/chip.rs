//! The MDGRAPE-2 chip (paper Fig. 10): four pipelines and the atom
//! coefficient RAM (32 × 32 pair coefficients). Its neighbour-list RAM
//! ("which was not used in our simulation", §3.5.3) is not modelled.

use crate::jstore::JCellColumns;
use crate::pipeline::{BatchScratch, MdgPipeline, PairAccum, PipelineMode};
use mdm_funceval::FunctionEvaluator;

/// Pipelines per chip (§3.5.3).
pub const PIPELINES_PER_CHIP: usize = 4;

/// Maximum particle types the coefficient RAM addresses (§3.5.3).
pub const MAX_TYPES: usize = 32;

/// The atom coefficient RAM: `aᵢⱼ` and `bᵢⱼ` of eq. 14 per type pair.
#[derive(Clone, Debug)]
pub struct AtomCoefficients {
    a: Vec<f32>,
    b: Vec<f32>,
    n_types: usize,
}

impl AtomCoefficients {
    /// Build from `n_types × n_types` matrices (row-major `[ti][tj]`).
    pub fn new(a: &[Vec<f64>], b: &[Vec<f64>]) -> Self {
        let n = a.len();
        assert!(n > 0 && n <= MAX_TYPES, "1..={MAX_TYPES} types");
        assert_eq!(b.len(), n);
        let mut fa = vec![0f32; n * n];
        let mut fb = vec![0f32; n * n];
        for i in 0..n {
            assert_eq!(a[i].len(), n);
            assert_eq!(b[i].len(), n);
            for j in 0..n {
                fa[i * n + j] = a[i][j] as f32;
                fb[i * n + j] = b[i][j] as f32;
            }
        }
        Self {
            a: fa,
            b: fb,
            n_types: n,
        }
    }

    /// Uniform coefficients (single-species systems).
    pub fn uniform(a: f64, b: f64) -> Self {
        Self::new(&[vec![a]], &[vec![b]])
    }

    /// Look up `(aᵢⱼ, bᵢⱼ)`.
    #[inline]
    pub fn get(&self, ti: u8, tj: u8) -> (f32, f32) {
        let idx = ti as usize * self.n_types + tj as usize;
        (self.a[idx], self.b[idx])
    }

    /// The whole `a`/`b` coefficient rows for i-species `ti`, indexed by
    /// j-species — one RAM read per batch instead of one per pair.
    #[inline]
    pub fn rows(&self, ti: u8) -> (&[f32], &[f32]) {
        let base = ti as usize * self.n_types;
        (
            &self.a[base..base + self.n_types],
            &self.b[base..base + self.n_types],
        )
    }

    /// Number of types configured.
    pub fn n_types(&self) -> usize {
        self.n_types
    }
}

/// One MDGRAPE-2 chip.
#[derive(Clone, Debug)]
pub struct MdgChip {
    pipelines: Vec<MdgPipeline>,
    coefficients: AtomCoefficients,
    ops: u64,
    scratch: BatchScratch,
}

impl MdgChip {
    /// Build with a function-table image and coefficient RAM contents.
    pub fn new(evaluator: FunctionEvaluator, coefficients: AtomCoefficients) -> Self {
        Self {
            pipelines: (0..PIPELINES_PER_CHIP)
                .map(|_| MdgPipeline::new(evaluator.clone()))
                .collect(),
            coefficients,
            ops: 0,
            scratch: BatchScratch::default(),
        }
    }

    /// Reload the function table on every pipeline (`MR1SetTable`).
    pub fn load_table(&mut self, evaluator: &FunctionEvaluator) {
        for p in &mut self.pipelines {
            p.load_table(evaluator.clone());
        }
    }

    /// The coefficient RAM.
    pub fn coefficients(&self) -> &AtomCoefficients {
        &self.coefficients
    }

    /// Pair ops executed.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Evaluate one i-particle against a stream of j-particles on
    /// pipeline `pipe`, accumulating into `acc`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn stream(
        &mut self,
        pipe: usize,
        mode: PipelineMode,
        xi: [f32; 3],
        ti: u8,
        js: impl Iterator<Item = ([f32; 3], u8)>,
        acc: &mut PairAccum,
    ) {
        let pipeline = &self.pipelines[pipe % PIPELINES_PER_CHIP];
        let before = acc.ops;
        for (xj, tj) in js {
            let (a, b) = self.coefficients.get(ti, tj);
            pipeline.interact(xi, xj, a, b, mode, acc);
        }
        self.ops += acc.ops - before;
    }

    /// Evaluate one i-particle against a whole j-cell batch on pipeline
    /// `pipe` with the resident table — the batched counterpart of
    /// [`Self::stream`], bitwise identical to it (see
    /// [`MdgPipeline::interact_cell`]). `acol`/`bcol` are the i-type's
    /// coefficient columns over the cell's slots.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn stream_cell(
        &mut self,
        pipe: usize,
        mode: PipelineMode,
        xi: [f32; 3],
        shift: [f32; 3],
        cell: JCellColumns<'_>,
        acol: &[f32],
        bcol: &[f32],
        skip: Option<usize>,
        acc: &mut PairAccum,
    ) {
        let pipeline = &self.pipelines[pipe % PIPELINES_PER_CHIP];
        let before = acc.ops;
        pipeline.interact_cell(xi, shift, cell, acol, bcol, skip, mode, acc, &mut self.scratch);
        self.ops += acc.ops - before;
    }

    /// The Newton's-third-law batch (software fast path): as
    /// [`Self::stream_cell`], but each pair also deposits its reaction
    /// into `back` (see [`MdgPipeline::interact_cell_n3l`]).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub fn stream_cell_n3l(
        &mut self,
        pipe: usize,
        mode: PipelineMode,
        xi: [f32; 3],
        shift: [f32; 3],
        cell: JCellColumns<'_>,
        lo: usize,
        acol: &[f32],
        bcol: &[f32],
        acc: &mut PairAccum,
        back: &mut [[f64; 3]],
    ) {
        let pipeline = &self.pipelines[pipe % PIPELINES_PER_CHIP];
        let before = acc.ops;
        pipeline.interact_cell_n3l(
            xi,
            shift,
            cell,
            lo,
            acol,
            bcol,
            mode,
            acc,
            back,
            &mut self.scratch,
        );
        self.ops += acc.ops - before;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::GFunction;

    #[test]
    fn coefficient_ram_lookup() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 3.0]];
        let b = vec![vec![-1.0, 0.5], vec![0.5, 4.0]];
        let ram = AtomCoefficients::new(&a, &b);
        assert_eq!(ram.get(0, 1), (2.0, 0.5));
        assert_eq!(ram.get(1, 1), (3.0, 4.0));
        assert_eq!(ram.n_types(), 2);
    }

    #[test]
    #[should_panic]
    fn too_many_types_rejected() {
        let big = vec![vec![0.0; 33]; 33];
        AtomCoefficients::new(&big, &big);
    }

    #[test]
    fn stream_accumulates_and_counts() {
        let ev = GFunction::Dispersion6Force.build_evaluator().unwrap();
        let mut chip = MdgChip::new(ev, AtomCoefficients::uniform(1.0, -6.0));
        let js = vec![([3.0f32, 0.0, 0.0], 0u8), ([0.0, 4.0, 0.0], 0u8)];
        let mut acc = PairAccum::default();
        chip.stream(
            0,
            PipelineMode::Force,
            [0.0, 0.0, 0.0],
            0,
            js.into_iter(),
            &mut acc,
        );
        assert_eq!(chip.ops(), 2);
        // f_x from first j: −6·(3²)⁻⁴·(−3) = +6·3/3⁸.
        let expect_x = 6.0 * 3.0 / 3f64.powi(8);
        assert!(
            ((acc.acc[0] - expect_x) / expect_x).abs() < 1e-5,
            "{} vs {expect_x}",
            acc.acc[0]
        );
    }

    #[test]
    fn table_reload_changes_results() {
        let ev6 = GFunction::Dispersion6Force.build_evaluator().unwrap();
        let ev8 = GFunction::Dispersion8Force.build_evaluator().unwrap();
        let mut chip = MdgChip::new(ev6, AtomCoefficients::uniform(1.0, 1.0));
        let run = |chip: &mut MdgChip| {
            let mut acc = PairAccum::default();
            chip.stream(
                0,
                PipelineMode::Force,
                [0.0, 0.0, 0.0],
                0,
                std::iter::once(([2.0f32, 0.0, 0.0], 0u8)),
                &mut acc,
            );
            acc.acc[0]
        };
        let before = run(&mut chip);
        chip.load_table(&ev8);
        let after = run(&mut chip);
        assert!((before / after - 4.0).abs() < 1e-4, "{before} vs {after}"); // x⁻⁴ vs x⁻⁵ at x=4
    }
}
