//! AVX-512 lanes for the multi-table j-cell sweep.
//!
//! One 16-lane block of a j-cell at a time: the geometry (`r⃗ᵢⱼ`, `r²`)
//! once, then per table the Fig. 11 datapath `x = a·r²` → address
//! decode → coefficient fetch → quartic Horner → `b·g`, then **one**
//! accumulate over every f64 chain of every table at once.
//!
//! Every lane performs the scalar datapath's IEEE 754 operations in the
//! scalar datapath's order — separate multiplies and adds, never an FMA;
//! the integer decode of [`mdm_funceval::Segmentation::locate`]; the
//! widening `f32 → f64` convert; f64 adds slot by slot — under the same
//! MXCSR (flush-to-zero governs the 512-bit operations too), so the
//! accumulators are **bitwise identical** to
//! [`crate::pipeline::interact_cell_scalar`]. The `scalar_simd_equivalence`
//! tests assert it on any machine that runs this path.
//!
//! Lane layout: one lane per j-slot for the geometry and the evaluator.
//! The f64 accumulation order is fixed (slots in cell order), so it
//! cannot run across lanes; instead `b·g` (one register per table) and
//! `r⃗ᵢⱼ` are transposed to per-slot quads, and each slot broadcasts its
//! quads into `[t0 t0 t0 · | t1 t1 t1 · | t2 t2 t2 · | t3 t3 t3 ·] ×
//! [dx dy dz 0 | …]` — one multiply, two widening converts and two f64
//! adds advance all twelve force chains of the four tables (the fourth
//! lane of each quad is padding that is never read back). The chains
//! are independent, so their add latencies overlap; that, and the
//! vector coefficient fetch, is where the time goes.
//!
//! Requires AVX-512 F; anything else — and cells too short to fill a
//! useful part of a block — runs the scalar multi-table loop.

#![cfg(target_arch = "x86_64")]

use crate::jstore::JCellColumns;
use crate::pipeline::{CellPass, PairAccum, PipelineMode, MAX_CELL_PASSES};
use mdm_funceval::POLY_COEFFS;
use std::arch::x86_64::*;

/// j-slots per block.
const LANES: usize = 16;

/// Runtime gate for the kernel.
#[inline]
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// One table's address-decode constants, read once per cell.
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
    fn new(pass: &CellPass<'_>) -> Self {
        let table = pass.evaluator.table();
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

/// 4×4 transpose inside each 128-bit lane: `out[j]`'s lane `l` is
/// `(r0, r1, r2, r3)[4l + j]` — the quad of slot `4l + j`.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose_quads(r: [__m512; 4]) -> [__m512; 4] {
    let a = _mm512_unpacklo_ps(r[0], r[1]);
    let b = _mm512_unpackhi_ps(r[0], r[1]);
    let c = _mm512_unpacklo_ps(r[2], r[3]);
    let d = _mm512_unpackhi_ps(r[2], r[3]);
    [
        _mm512_shuffle_ps::<0x44>(a, c),
        _mm512_shuffle_ps::<0xEE>(a, c),
        _mm512_shuffle_ps::<0x44>(b, d),
        _mm512_shuffle_ps::<0xEE>(b, d),
    ]
}

/// The f64 accumulation registers of up to four tables.
#[derive(Clone, Copy)]
struct Chains {
    /// Force mode: `[t0x t0y t0z · t1x t1y t1z ·]`.
    force_lo: __m512d,
    /// Force mode: the same for tables 2 and 3.
    force_hi: __m512d,
    /// Potential mode: `[t0 t1 t2 t3]`.
    potential: __m256d,
}

/// Add one block's slots, in slot order, into the chains. `live` has a
/// bit per slot; a cleared bit (tail padding, the self slot) skips the
/// slot outright — nothing is added, not even a zero. `CHECK = false`
/// is the all-live block without the per-slot test.
#[inline]
#[target_feature(enable = "avx512f")]
fn accumulate<const P: usize, const CHECK: bool>(
    chains: &mut Chains,
    mode: PipelineMode,
    bg: [__m512; 4],
    d: [__m512; 3],
    live: __mmask16,
) {
    let bg_quads = transpose_quads(bg);
    // Lane `l` of a quad register, repeated across the register.
    let lane = _mm512_set_epi32(3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0, 3, 2, 1, 0);
    match mode {
        PipelineMode::Force => {
            let d_quads = transpose_quads([d[0], d[1], d[2], _mm512_setzero_ps()]);
            // Element `p` of lane `l`, held four times in quad `p`.
            let spread = _mm512_set_epi32(3, 3, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1, 0, 0, 0, 0);
            for l in 0..4 {
                let first = _mm512_set1_epi32(4 * l as i32);
                let (spread, lane) = (
                    _mm512_add_epi32(spread, first),
                    _mm512_add_epi32(lane, first),
                );
                // Slot `4l + j` sits in lane `l` of quad register `j`.
                for (j, (&bg_quad, &d_quad)) in bg_quads.iter().zip(&d_quads).enumerate() {
                    if CHECK && live & (1 << (4 * l + j)) == 0 {
                        continue;
                    }
                    let f = _mm512_mul_ps(
                        _mm512_permutexvar_ps(spread, bg_quad),
                        _mm512_permutexvar_ps(lane, d_quad),
                    );
                    chains.force_lo =
                        _mm512_add_pd(chains.force_lo, _mm512_cvtps_pd(_mm512_castps512_ps256(f)));
                    if P > 2 {
                        let upper = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(f));
                        chains.force_hi = _mm512_add_pd(
                            chains.force_hi,
                            _mm512_cvtps_pd(_mm256_castpd_ps(upper)),
                        );
                    }
                }
            }
        }
        PipelineMode::Potential => {
            for l in 0..4 {
                let lane = _mm512_add_epi32(lane, _mm512_set1_epi32(4 * l as i32));
                for (j, &bg_quad) in bg_quads.iter().enumerate() {
                    if CHECK && live & (1 << (4 * l + j)) == 0 {
                        continue;
                    }
                    let quad = _mm512_castps512_ps128(_mm512_permutexvar_ps(lane, bg_quad));
                    chains.potential = _mm256_add_pd(chains.potential, _mm256_cvtps_pd(quad));
                }
            }
        }
    }
}

/// The vector body of [`crate::pipeline::interact_cell_passes`]: same
/// arguments, same accumulator bits. `skip == cell.len()` means no self
/// slot.
///
/// # Safety
/// Requires AVX-512 F (checked by [`available`]).
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn interact_cell_lanes<const P: usize>(
    passes: &[CellPass<'_>; P],
    xi: [f32; 3],
    shift: [f32; 3],
    cell: JCellColumns<'_>,
    skip: usize,
    mode: PipelineMode,
    accs: &mut [PairAccum; P],
) {
    // A per-slot quad holds one lane per table.
    const { assert!(P >= 1 && P <= MAX_CELL_PASSES && MAX_CELL_PASSES == 4) };
    let n = cell.len();
    // Exact-length columns: every masked load below stays inside them.
    let (xs, ys, zs) = (&cell.xs[..n], &cell.ys[..n], &cell.zs[..n]);
    let cols: [(&[f32], &[f32]); P] =
        std::array::from_fn(|p| (&passes[p].acol[..n], &passes[p].bcol[..n]));
    let tables: [TableLanes; P] = std::array::from_fn(|p| TableLanes::new(&passes[p]));

    let quad = |p: usize, k: usize| accs.get(p).map_or(0.0, |a| a.acc[k]);
    let mut chains = Chains {
        force_lo: _mm512_set_pd(
            0.0,
            quad(1, 2),
            quad(1, 1),
            quad(1, 0),
            0.0,
            quad(0, 2),
            quad(0, 1),
            quad(0, 0),
        ),
        force_hi: _mm512_set_pd(
            0.0,
            quad(3, 2),
            quad(3, 1),
            quad(3, 0),
            0.0,
            quad(2, 2),
            quad(2, 1),
            quad(2, 0),
        ),
        potential: _mm256_set_pd(quad(3, 0), quad(2, 0), quad(1, 0), quad(0, 0)),
    };

    let xi = [
        _mm512_set1_ps(xi[0]),
        _mm512_set1_ps(xi[1]),
        _mm512_set1_ps(xi[2]),
    ];
    let shift = [
        _mm512_set1_ps(shift[0]),
        _mm512_set1_ps(shift[1]),
        _mm512_set1_ps(shift[2]),
    ];
    for base in (0..n).step_by(LANES) {
        let width = (n - base).min(LANES);
        let tail = ((1u32 << width) - 1) as __mmask16;
        // SAFETY: lanes `0..width` of each load are `base..base + width`
        // of a column of length `n`; the rest are masked off and read 0.
        let load = |col: &[f32]| unsafe { _mm512_maskz_loadu_ps(tail, col.as_ptr().add(base)) };
        let d = [
            _mm512_sub_ps(xi[0], _mm512_add_ps(load(xs), shift[0])),
            _mm512_sub_ps(xi[1], _mm512_add_ps(load(ys), shift[1])),
            _mm512_sub_ps(xi[2], _mm512_add_ps(load(zs), shift[2])),
        ];
        let r_sq = _mm512_add_ps(
            _mm512_add_ps(_mm512_mul_ps(d[0], d[0]), _mm512_mul_ps(d[1], d[1])),
            _mm512_mul_ps(d[2], d[2]),
        );
        let mut bg = [_mm512_setzero_ps(); 4];
        for p in 0..P {
            let x = _mm512_mul_ps(load(cols[p].0), r_sq);
            // SAFETY: `tables[p]` was built from `passes[p]`, which
            // outlives this call.
            let g = unsafe { tables[p].eval(x, tail) };
            bg[p] = _mm512_mul_ps(load(cols[p].1), g);
        }
        let live = if (base..base + width).contains(&skip) {
            tail & !(1 << (skip - base))
        } else {
            tail
        };
        if live == 0xffff {
            accumulate::<P, false>(&mut chains, mode, bg, d, live);
        } else {
            accumulate::<P, true>(&mut chains, mode, bg, d, live);
        }
    }

    let mut force = [0.0f64; 16];
    let mut potential = [0.0f64; 4];
    // SAFETY: unaligned stores into local arrays of exactly the
    // registers' widths.
    unsafe {
        _mm512_storeu_pd(force.as_mut_ptr(), chains.force_lo);
        _mm512_storeu_pd(force.as_mut_ptr().add(8), chains.force_hi);
        _mm256_storeu_pd(potential.as_mut_ptr(), chains.potential);
    }
    let ops = (n - usize::from(skip < n)) as u64;
    for (p, acc) in accs.iter_mut().enumerate() {
        match mode {
            PipelineMode::Force => acc.acc.copy_from_slice(&force[4 * p..4 * p + 3]),
            PipelineMode::Potential => acc.acc[0] = potential[p],
        }
        acc.ops += ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftz::FtzGuard;
    use crate::pipeline::{interact_cell_scalar, BatchScratch};
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
        /// Per table: `(a, b)` columns.
        cols: Vec<(Vec<f32>, Vec<f32>)>,
    }

    impl Cell {
        /// `n` slots scattered over a 6 Å cube, with per-table
        /// coefficients of mixed sign and magnitude.
        fn random(n: usize, seed: u64) -> Self {
            let mut next = stream(seed);
            let mut column = |scale: f32| (0..n).map(|_| next() * scale).collect::<Vec<f32>>();
            let (xs, ys, zs) = (column(6.0), column(6.0), column(6.0));
            let cols = (0..MAX_CELL_PASSES)
                .map(|p| {
                    let a = column(0.9).iter().map(|v| v + 0.1).collect();
                    let b = column(4.0).iter().map(|v| v - 2.0 - p as f32).collect();
                    (a, b)
                })
                .collect();
            Self {
                xs,
                ys,
                zs,
                types: vec![0; n],
                cols,
            }
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

    fn tables(kernels: [GFunction; 4]) -> Vec<FunctionEvaluator> {
        kernels
            .iter()
            .map(|g| g.build_evaluator().unwrap())
            .collect()
    }

    /// Run both bodies on the same inputs from the same non-trivial
    /// starting accumulators and demand identical bits.
    fn assert_lanes_match_scalar<const P: usize>(
        tables: &[FunctionEvaluator],
        cell: &Cell,
        xi: [f32; 3],
        shift: [f32; 3],
        skip: usize,
        what: &str,
    ) {
        let passes: [CellPass<'_>; P] = std::array::from_fn(|p| CellPass {
            evaluator: &tables[p],
            acol: &cell.cols[p].0,
            bcol: &cell.cols[p].1,
        });
        for mode in [PipelineMode::Force, PipelineMode::Potential] {
            let start: [PairAccum; P] = std::array::from_fn(|p| PairAccum {
                acc: [0.25 + p as f64, -1.5e-3, 7.0e3],
                ops: 11 * p as u64,
            });
            let (mut scalar, mut lanes) = (start, start);
            interact_cell_scalar(
                &passes,
                xi,
                shift,
                cell.columns(),
                skip,
                mode,
                &mut scalar,
                &mut BatchScratch::default(),
            );
            // SAFETY: callers checked `available()`.
            unsafe {
                interact_cell_lanes(&passes, xi, shift, cell.columns(), skip, mode, &mut lanes)
            };
            for (p, (s, l)) in scalar.iter().zip(&lanes).enumerate() {
                assert_eq!(
                    s.acc.map(f64::to_bits),
                    l.acc.map(f64::to_bits),
                    "{what}: table {p} {mode:?}: scalar {:?} vs lanes {:?}",
                    s.acc,
                    l.acc
                );
                assert_eq!(s.ops, l.ops, "{what}: table {p} {mode:?} op count");
            }
        }
    }

    const FORCE_KERNELS: [GFunction; 4] = [
        GFunction::CoulombRealForce,
        GFunction::BornMayerForce,
        GFunction::Dispersion6Force,
        GFunction::Dispersion8Force,
    ];

    fn simd_or_loud_skip() -> bool {
        if !available() {
            eprintln!("AVX-512 absent: SIMD case skipped");
        }
        available()
    }

    #[test]
    fn scalar_simd_equivalence_over_cell_lengths_and_self_slots() {
        if !simd_or_loud_skip() {
            return;
        }
        let tables = tables(FORCE_KERNELS);
        let _ftz = FtzGuard::new();
        for n in [0usize, 1, 15, 16, 17, 33, 125] {
            let cell = Cell::random(n, 0x9e37_79b9 + n as u64);
            // First / middle / last slot, and `n` = no self slot (the
            // `NO_SELF_SLOT` case of disjoint i/j sets).
            let mut skips = vec![n];
            if n > 0 {
                skips.extend([0, n / 2, n - 1]);
            }
            for skip in skips {
                // The self pair sits on its own slot; an i-particle
                // from a disjoint set sits anywhere.
                let xi = if skip < n {
                    [cell.xs[skip], cell.ys[skip], cell.zs[skip]]
                } else {
                    [2.9, 3.3, 1.7]
                };
                for shift in [[0.0f32; 3], [6.0, 0.0, -6.0]] {
                    let what = format!("n {n} skip {skip} shift {shift:?}");
                    assert_lanes_match_scalar::<4>(&tables, &cell, xi, shift, skip, &what);
                    assert_lanes_match_scalar::<1>(&tables, &cell, xi, shift, skip, &what);
                    assert_lanes_match_scalar::<3>(&tables[1..], &cell, xi, shift, skip, &what);
                }
            }
        }
    }

    #[test]
    fn scalar_simd_equivalence_over_every_input_class() {
        if !simd_or_loud_skip() {
            return;
        }
        let tables = tables([
            GFunction::CoulombRealEnergy,
            GFunction::BornMayerEnergy,
            GFunction::Dispersion6Energy,
            GFunction::Dispersion8Energy,
        ]);
        let seg = tables[0].table().segmentation();
        // Every slot at distance 1 along x (r² = 1 exactly), so the
        // evaluator input is the `a` column itself.
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
        // 40 slots: the specials land in the first, a middle and the
        // tail block, at every rotation across the four tables.
        let n = 40;
        let mut cell = Cell::random(n, 77);
        cell.xs.iter_mut().for_each(|x| *x = 1.0);
        cell.ys.iter_mut().for_each(|y| *y = 0.0);
        cell.zs.iter_mut().for_each(|z| *z = 0.0);
        for (p, (a, _)) in cell.cols.iter_mut().enumerate() {
            for (k, a) in a.iter_mut().enumerate() {
                *a = specials[(k + 5 * p) % specials.len()];
            }
        }
        let xi = [2.0, 0.0, 0.0];
        for flushed in [true, false] {
            let _ftz = flushed.then(FtzGuard::new);
            let what = format!("flush-to-zero {flushed}");
            assert_lanes_match_scalar::<4>(&tables, &cell, xi, [0.0; 3], n, &what);
            assert_lanes_match_scalar::<1>(&tables, &cell, xi, [0.0; 3], 3, &what);
        }
    }
}
