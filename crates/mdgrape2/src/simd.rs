//! AVX-512 form of the tile sweep ([`crate::sweep`]): the same order with
//! a lane's datapath in 512-bit registers — `x = a·r²` → address decode
//! in integer lanes → the coefficients straight from the `[f32; 5]` rows
//! by masked gathers → quartic Horner → `b·g` → three products — and one
//! masked `add_pd` advancing up to sixteen f64 chains by one term each.
//! Every operation is the scalar datapath's, in its order (the integer
//! decode is [`mdm_funceval::Segmentation::locate`]'s), under the same
//! MXCSR, so the chains are **bitwise identical** to the portable form's.
//! Requires AVX-512 F only; anything else runs the portable form.

#![cfg(target_arch = "x86_64")]

use crate::plan::LANES;
use crate::sweep::{JRun, Tile};
use crate::system::TablePass;
use mdm_funceval::{FunctionEvaluator, POLY_COEFFS};
use std::arch::x86_64::*;

/// Runtime gate for the kernel.
#[inline]
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// One table's address-decode constants, read once per tile.
#[derive(Clone, Copy)]
struct TableLanes {
    /// Coefficient RAM base, as `f32` words (`POLY_COEFFS` per row).
    rows: *const f32,
    /// Biased exponent of the first covered octave (`e_min + 127`).
    exp_lo: i32,
    /// Biased exponent one past the last covered octave.
    exp_hi: i32,
    /// Segments per octave, as a shift.
    mantissa_bits: u32,
    /// The below-range answer: the first row's `c0`.
    below: f32,
}

impl TableLanes {
    fn new(evaluator: &FunctionEvaluator) -> Self {
        let table = evaluator.table();
        let seg = table.segmentation();
        let rows = table.rows();
        // The gathers below index `rows` by decoded segment; that is in
        // bounds only for a table with one row per segment.
        assert_eq!(
            rows.len(),
            seg.segment_count(),
            "table/segmentation mismatch"
        );
        Self {
            rows: rows.as_ptr().cast(),
            exp_lo: seg.e_min + 127,
            exp_hi: seg.e_max + 127,
            mantissa_bits: seg.mantissa_bits,
            below: rows[0][0],
        }
    }

    /// `g(x)` for 16 lanes, bit-exact against
    /// [`mdm_funceval::FunctionEvaluator::eval`]. Lanes outside `live`
    /// never touch memory.
    ///
    /// # Safety
    /// `self.rows` must still point at the `segment_count()` rows
    /// [`Self::new`] checked.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn eval(&self, x: __m512, live: __mmask16) -> __m512 {
        let bits = _mm512_castps_si512(x);
        // Sign and exponent as one 9-bit field: negative inputs land at
        // ≥ 256, +inf/NaN at 255, zero and subnormals at 0 — so
        // `exp_lo ≤ field < exp_hi` (≤ 255) is exactly `locate`'s `In`,
        // `exp_hi ≤ field < 255` its `Above`, everything else `Below`.
        let field = _mm512_srli_epi32::<23>(bits);
        let (exp_lo, exp_hi) = (
            _mm512_set1_epi32(self.exp_lo),
            _mm512_set1_epi32(self.exp_hi),
        );
        let in_range =
            _mm512_mask_cmplt_epi32_mask(_mm512_cmpge_epi32_mask(field, exp_lo), field, exp_hi);
        let above = _mm512_mask_cmplt_epi32_mask(
            _mm512_cmpge_epi32_mask(field, exp_hi),
            field,
            _mm512_set1_epi32(255),
        );
        let below = !(in_range | above);
        // Address decode: for a positive input, `bits >> rem_bits` is
        // `(biased exponent << mantissa_bits) | sub`; the low `rem_bits`
        // are the position inside the segment, scaled by `2^-rem_bits`.
        let rem_bits = 23 - self.mantissa_bits;
        let index = _mm512_sub_epi32(
            _mm512_srl_epi32(bits, _mm_cvtsi32_si128(rem_bits as i32)),
            _mm512_set1_epi32(self.exp_lo << self.mantissa_bits),
        );
        let rem = _mm512_and_si512(bits, _mm512_set1_epi32((1i32 << rem_bits) - 1));
        // `rem < 2²³` converts exactly, like the scalar `rem as f32`.
        let t = _mm512_mul_ps(
            _mm512_cvtepi32_ps(rem),
            _mm512_set1_ps(f32::from_bits((127 - rem_bits) << 23)),
        );

        // Coefficient fetch straight from the `[f32; 5]` rows: word
        // offset `5·index`, `(c0,c1)` and `(c2,c3)` as 64-bit pairs,
        // `c4` alone. Masked-off lanes load nothing and read as 0.
        let fetch = in_range & live;
        let word = _mm512_add_epi32(index, _mm512_slli_epi32::<2>(index));
        let word_lo = _mm512_castsi512_si256(word);
        let word_hi = _mm512_extracti64x4_epi64::<1>(word);
        let (fetch_lo, fetch_hi) = (fetch as __mmask8, (fetch >> 8) as __mmask8);
        let zero = _mm512_setzero_si512();
        // SAFETY: a fetched lane has `index < segment_count()` (its
        // exponent lies in `[e_min, e_max)`), so words `5·index ..
        // 5·index + 5` are inside the row array.
        let pair = |mask, words, first: usize| unsafe {
            _mm512_castsi512_ps(_mm512_mask_i32gather_epi64::<4>(
                zero,
                mask,
                words,
                self.rows.add(first).cast(),
            ))
        };
        let (c01_lo, c01_hi) = (pair(fetch_lo, word_lo, 0), pair(fetch_hi, word_hi, 0));
        let (c23_lo, c23_hi) = (pair(fetch_lo, word_lo, 2), pair(fetch_hi, word_hi, 2));
        // SAFETY: as above, word `5·index + 4`.
        let c4 = unsafe {
            _mm512_mask_i32gather_ps::<4>(
                _mm512_setzero_ps(),
                fetch,
                word,
                self.rows.add(POLY_COEFFS - 1).cast(),
            )
        };
        let even = _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14, 12, 10, 8, 6, 4, 2, 0);
        let odd = _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15, 13, 11, 9, 7, 5, 3, 1);
        let c0 = _mm512_permutex2var_ps(c01_lo, even, c01_hi);
        let c1 = _mm512_permutex2var_ps(c01_lo, odd, c01_hi);
        let c2 = _mm512_permutex2var_ps(c23_lo, even, c23_hi);
        let c3 = _mm512_permutex2var_ps(c23_lo, odd, c23_hi);

        // ((((c4·t) + c3)·t + c2)·t + c1)·t + c0; an unfetched lane has
        // all-zero coefficients and evaluates to +0 — `Above`'s answer.
        let mut g = _mm512_add_ps(_mm512_mul_ps(c4, t), c3);
        g = _mm512_add_ps(_mm512_mul_ps(g, t), c2);
        g = _mm512_add_ps(_mm512_mul_ps(g, t), c1);
        g = _mm512_add_ps(_mm512_mul_ps(g, t), c0);
        _mm512_mask_mov_ps(g, below, _mm512_set1_ps(self.below))
    }
}

/// Widen one f32 term per lane and add it into the lanes' own f64
/// chains; a lane whose bit is clear keeps its chain untouched.
#[inline]
#[target_feature(enable = "avx512f")]
fn add_term(chain: &mut [__m512d; 2], term: __m512, live: __mmask16) {
    let upper = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(term));
    chain[0] = _mm512_mask_add_pd(
        chain[0],
        live as __mmask8,
        chain[0],
        _mm512_cvtps_pd(_mm512_castps512_ps256(term)),
    );
    chain[1] = _mm512_mask_add_pd(
        chain[1],
        (live >> 8) as __mmask8,
        chain[1],
        _mm512_cvtps_pd(_mm256_castpd_ps(upper)),
    );
}

/// The AVX-512 j-stream of [`crate::sweep::Kernel::sweep_tile`], the
/// mode as a constant: with both modes' arms in one body the four-pass
/// sweep keeps fewer of its chains in registers (5–7 % at 33 particles
/// per cell). The chains live in registers from the tile's load to its
/// store.
#[target_feature(enable = "avx512f")]
pub(crate) fn tile<'a, const P: usize, const FORCE: bool>(
    passes: &[TablePass<'_>; P],
    tile: &mut Tile<P>,
    runs: impl Iterator<Item = JRun<'a>>,
) {
    let tables: [TableLanes; P] = std::array::from_fn(|p| TableLanes::new(passes[p].table));
    // SAFETY: whole-register loads of 16-lane arrays.
    let load = |lanes: &[f32; LANES]| unsafe { _mm512_loadu_ps(lanes.as_ptr()) };
    let xi = tile.xi.each_ref().map(load);
    // SAFETY: two whole-register loads of each 16-lane chain array.
    let mut acc = tile.acc.map(|chains| {
        chains.map(|c| unsafe { [_mm512_loadu_pd(c.as_ptr()), _mm512_loadu_pd(c.as_ptr().add(LANES / 2))] })
    });

    for run in runs {
        let n = run.cell.len();
        let (xs, ys, zs, ts) = (
            &run.cell.xs[..n],
            &run.cell.ys[..n],
            &run.cell.zs[..n],
            &run.cell.types[..n],
        );
        for k in 0..n {
            // The j-side once for the whole tile.
            let d = [
                _mm512_sub_ps(xi[0], _mm512_set1_ps(xs[k] + run.shift[0])),
                _mm512_sub_ps(xi[1], _mm512_set1_ps(ys[k] + run.shift[1])),
                _mm512_sub_ps(xi[2], _mm512_set1_ps(zs[k] + run.shift[2])),
            ];
            let r_sq = _mm512_add_ps(
                _mm512_add_ps(_mm512_mul_ps(d[0], d[0]), _mm512_mul_ps(d[1], d[1])),
                _mm512_mul_ps(d[2], d[2]),
            );
            let live = run.live(k);
            let pair = &tile.coeffs[ts[k] as usize];
            for p in 0..P {
                let x = _mm512_mul_ps(load(&pair[p][0]), r_sq);
                // SAFETY: `tables[p]` was built from `passes[p]`, which
                // outlives this call.
                let g = unsafe { tables[p].eval(x, run.lanes) };
                let bg = _mm512_mul_ps(load(&pair[p][1]), g);
                if FORCE {
                    for (chain, &dc) in acc[p].iter_mut().zip(&d) {
                        add_term(chain, _mm512_mul_ps(bg, dc), live);
                    }
                } else {
                    add_term(&mut acc[p][0], bg, live);
                }
            }
        }
    }

    for (chains, lanes) in acc.iter().zip(&mut tile.acc) {
        for (chain, lanes) in chains.iter().zip(lanes) {
            // SAFETY: two whole-register stores into a 16-lane array.
            unsafe {
                _mm512_storeu_pd(lanes.as_mut_ptr(), chain[0]);
                _mm512_storeu_pd(lanes.as_mut_ptr().add(LANES / 2), chain[1]);
            }
        }
    }
}

/// The tile-level equivalence tests of both kernels (the portable form
/// runs wherever they do; the AVX-512 one skips loudly without it).
#[cfg(test)]
mod tests {
    use crate::chip::AtomCoefficients;
    use crate::ftz::FtzGuard;
    use crate::jstore::JCellColumns;
    use crate::pipeline::{interact_cell_scalar, BatchScratch, CellPass, PairAccum, PipelineMode, MAX_CELL_PASSES};
    use crate::sweep::tests::{kernels, tables, three_species_ram, FORCE_KERNELS};
    use crate::sweep::JCell;
    use crate::system::TablePass;
    use crate::tables::GFunction;
    use mdm_funceval::FunctionEvaluator;

    /// Deterministic pseudo-random stream in `[0, 1)` (xorshift; no
    /// external RNG).
    fn stream(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        }
    }

    struct Cell {
        xs: Vec<f32>,
        ys: Vec<f32>,
        zs: Vec<f32>,
        types: Vec<u8>,
    }

    impl Cell {
        /// `n` slots scattered over a 6 Å cube, species drawn from
        /// `0..n_types`.
        fn random(n: usize, n_types: usize, seed: u64) -> Self {
            let mut next = stream(seed);
            let mut column = |scale: f32| (0..n).map(|_| next() * scale).collect::<Vec<f32>>();
            let (xs, ys, zs) = (column(6.0), column(6.0), column(6.0));
            let types = column(n_types as f32).iter().map(|&t| t as u8).collect();
            Self { xs, ys, zs, types }
        }

        fn columns(&self) -> JCellColumns<'_> {
            JCellColumns {
                xs: &self.xs,
                ys: &self.ys,
                zs: &self.zs,
                types: &self.types,
            }
        }
    }

    /// The oracle: the scalar column sweep, one i-particle at a time,
    /// with that particle's coefficient columns gathered from the RAM.
    fn scalar_sweep<const P: usize>(
        passes: &[TablePass<'_>; P],
        mode: PipelineMode,
        home: JCellColumns<'_>,
        stencil: &[JCell<'_>],
        out: &mut [[f64; 3]],
    ) {
        let mut scratch = BatchScratch::default();
        for i in 0..home.len() {
            let mut accs: [PairAccum; P] = std::array::from_fn(|p| PairAccum {
                acc: out[i * P + p],
                ops: 0,
            });
            for entry in stencil {
                let cols: [(Vec<f32>, Vec<f32>); P] = std::array::from_fn(|p| {
                    let ram = passes[p].coefficients;
                    entry.cell.types.iter().map(|&tj| ram.get(home.types[i], tj)).unzip()
                });
                let cell_passes: [CellPass<'_>; P] = std::array::from_fn(|p| CellPass {
                    evaluator: passes[p].table,
                    acol: &cols[p].0,
                    bcol: &cols[p].1,
                });
                let skip = if entry.is_home { i } else { entry.cell.len() };
                interact_cell_scalar(
                    &cell_passes,
                    [home.xs[i], home.ys[i], home.zs[i]],
                    entry.shift,
                    entry.cell,
                    skip,
                    mode,
                    &mut accs,
                    &mut scratch,
                );
            }
            for (p, acc) in accs.iter().enumerate() {
                out[i * P + p] = acc.acc;
            }
        }
    }

    /// Run the scalar sweep and every kernel's tiles on the same inputs
    /// from the same starting accumulators and demand identical bits.
    fn assert_tiles_match_scalar<const P: usize>(
        tables: &[FunctionEvaluator],
        ram: &[AtomCoefficients],
        home: JCellColumns<'_>,
        stencil: &[JCell<'_>],
        start: [f64; 3],
        what: &str,
    ) {
        let passes: [TablePass<'_>; P] = std::array::from_fn(|p| TablePass {
            table: &tables[p],
            coefficients: &ram[p],
        });
        for mode in [PipelineMode::Force, PipelineMode::Potential] {
            let begin: Vec<[f64; 3]> = (0..home.len() * P)
                .map(|k| start.map(|v| v * (1 + k % 7) as f64))
                .collect();
            let mut scalar = begin.clone();
            scalar_sweep(&passes, mode, home, stencil, &mut scalar);
            for kernel in kernels() {
                let mut tiled = begin.clone();
                kernel.sweep_tiles(&passes, mode, home, stencil, &mut tiled);
                for (k, (s, t)) in scalar.iter().zip(&tiled).enumerate() {
                    assert_eq!(
                        s.map(f64::to_bits),
                        t.map(f64::to_bits),
                        "{what}: slot {} pass {} {mode:?}: scalar {s:?} vs {kernel:?} tiles {t:?}",
                        k / P,
                        k % P,
                    );
                }
            }
        }
    }

    #[test]
    fn scalar_simd_equivalence_over_cell_lengths_and_self_slots() {
        let tables = tables(FORCE_KERNELS);
        let ram = three_species_ram();
        let _ftz = FtzGuard::new();
        // Full tiles, one-lane tiles, a ragged tail of 1 and of 15: as
        // the home cell is its own j-cell, the self slot visits every
        // lane of a full tile and every lane of the tails.
        for m in [1usize, 15, 16, 17, 33, 125] {
            let home = Cell::random(m, 3, 0x9e37_79b9 + m as u64);
            for n in [0usize, 1, 16, 125] {
                let other = Cell::random(n, 3, 0x5bd1_e995 + n as u64);
                // The stencil in miniature: a shifted neighbour before
                // and after the home cell, and an empty one.
                let empty = Cell::random(0, 3, 1);
                let stencil = [
                    JCell { cell: other.columns(), shift: [6.0, 0.0, -6.0], is_home: false },
                    JCell { cell: empty.columns(), shift: [0.0, 6.0, 0.0], is_home: false },
                    JCell { cell: home.columns(), shift: [0.0; 3], is_home: true },
                    JCell { cell: other.columns(), shift: [0.0, -6.0, 0.0], is_home: false },
                ];
                for start in [[0.0f64; 3], [0.25, -1.5e-3, 7.0e3]] {
                    let what = format!("home {m} j-cell {n} start {start:?}");
                    let home = home.columns();
                    assert_tiles_match_scalar::<4>(&tables, &ram, home, &stencil, start, &what);
                    assert_tiles_match_scalar::<1>(&tables, &ram, home, &stencil, start, &what);
                    assert_tiles_match_scalar::<3>(&tables[1..], &ram[1..], home, &stencil, start, &what);
                }
            }
        }
    }

    #[test]
    fn scalar_simd_equivalence_for_a_particle_alone_in_its_stencil() {
        let tables = tables(FORCE_KERNELS);
        let ram = three_species_ram();
        let _ftz = FtzGuard::new();
        let home = Cell::random(1, 3, 5);
        let stencil = [JCell { cell: home.columns(), shift: [0.0; 3], is_home: true }];
        let passes: [TablePass<'_>; 4] = std::array::from_fn(|p| TablePass {
            table: &tables[p],
            coefficients: &ram[p],
        });
        // Its one pair is the self pair: no term at all, so even the
        // sign of a zero accumulator survives (`−0 + 0` would be `+0`).
        for kernel in kernels() {
            for mode in [PipelineMode::Force, PipelineMode::Potential] {
                let mut out = [[-0.0f64; 3]; 4];
                kernel.sweep_tiles(&passes, mode, home.columns(), &stencil, &mut out);
                for acc in out {
                    assert_eq!(acc.map(f64::to_bits), [(-0.0f64).to_bits(); 3], "{kernel:?} {mode:?}");
                }
            }
        }
    }

    #[test]
    fn scalar_simd_equivalence_over_every_input_class() {
        let tables = tables([
            GFunction::CoulombRealEnergy,
            GFunction::BornMayerEnergy,
            GFunction::Dispersion6Energy,
            GFunction::Dispersion8Energy,
        ]);
        let seg = tables[0].table().segmentation();
        let specials = [
            0.0f32,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            (seg.x_min() / 2.0) as f32,
            f32::from_bits((seg.x_min() as f32).to_bits() - 1),
            seg.x_min() as f32,
            1.0,
            f32::from_bits((seg.x_max() as f32).to_bits() - 1),
            seg.x_max() as f32,
            f32::MAX,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            -3.5,
        ];
        // One species per special: with every i at one point and every
        // j at distance 1 from it (r² = 1 exactly) the evaluator input
        // is the RAM's `a` entry itself, at every rotation across the
        // i-species, the j-species and the four tables.
        let s = specials.len();
        let ram: Vec<AtomCoefficients> = (0..MAX_CELL_PASSES)
            .map(|p| {
                let matrix = |f: &dyn Fn(usize, usize) -> f64| -> Vec<Vec<f64>> {
                    (0..s).map(|i| (0..s).map(|j| f(i, j)).collect()).collect()
                };
                AtomCoefficients::new(
                    &matrix(&|i, j| specials[(i + j + 5 * p) % s] as f64),
                    &matrix(&|i, j| 1.5 - 0.25 * ((i + 3 * j + p) % 11) as f64),
                )
            })
            .collect();
        // 40 slots a side: two full tiles and a tail, every species in
        // each.
        let n = 40;
        let point = |x: f32, first: usize| Cell {
            xs: vec![x; n],
            ys: vec![0.0; n],
            zs: vec![0.0; n],
            types: (0..n).map(|k| ((k + first) % s) as u8).collect(),
        };
        let (home, other) = (point(2.0, 0), point(1.0, 7));
        let stencil = [JCell { cell: other.columns(), shift: [0.0; 3], is_home: false }];
        for flushed in [true, false] {
            let _ftz = flushed.then(FtzGuard::new);
            let what = format!("flush-to-zero {flushed}");
            let home = home.columns();
            assert_tiles_match_scalar::<4>(&tables, &ram, home, &stencil, [0.0; 3], &what);
            assert_tiles_match_scalar::<1>(&tables, &ram, home, &stencil, [0.0; 3], &what);
        }
    }
}
