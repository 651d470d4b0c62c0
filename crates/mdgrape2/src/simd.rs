//! AVX-512 tiles for the hardware-faithful real-space sweep.
//!
//! MDGRAPE-2 streams each j-particle once and broadcasts it to pipelines
//! that each hold their own resident i-particle and their own f64
//! accumulators (paper Figs. 9–11). The kernel here runs that dataflow
//! as written: a **tile** is up to sixteen consecutive j-store slots, one
//! i-particle per lane, whichever home cells they belong to, and every
//! j-particle of the union of the lanes' 27-cell boxes is broadcast to
//! all of them in turn ([`crate::plan`] says which slots share a tile and
//! in which order the union streams).
//!
//! What a tile shares: the j-side — `x⃗ⱼ + shift` is one scalar add per
//! component instead of sixteen, and the j-species selects one
//! precomputed `a`/`b` vector per pass — and the table constants. What
//! each lane owns: its `x⃗ᵢ`, its `r⃗ᵢⱼ`, `r²`, its trip through the
//! Fig. 11 datapath (`x = a·r²` → address decode → coefficient fetch →
//! quartic Horner → `b·g` → three products) and, after the widening
//! `f32 → f64` convert, **its own accumulation chains**. One masked
//! `add_pd` therefore advances up to sixteen chains by one term each. A
//! streamed cell's mask holds only the lanes whose own box holds it, and
//! the union's order keeps every box's, so each chain still receives its
//! terms slot by slot in cell order, cells in stencil order — the order
//! of [`crate::pipeline::interact_cell_scalar`] run per i. The self pair
//! is one mask bit cleared for one j: the lane is passed over, nothing is
//! added, not even a zero. Lanes past a short tile's last slot are masked
//! the same way, never fetched and never stored.
//!
//! Every lane performs the scalar datapath's IEEE 754 operations in the
//! scalar datapath's order — separate multiplies and adds, never an FMA;
//! the integer decode of [`mdm_funceval::Segmentation::locate`] — under
//! the same MXCSR (flush-to-zero governs the 512-bit operations and the
//! scalar j-side add alike), so the accumulators are **bitwise
//! identical** to the scalar sweep's. The `scalar_simd_equivalence`
//! tests assert it on any machine that runs this path.
//!
//! Requires AVX-512 F only; any other CPU runs the scalar column sweep
//! through the per-i entry points.

#![cfg(target_arch = "x86_64")]

use crate::chip::MAX_TYPES;
use crate::jstore::{JCellColumns, JStore};
use crate::pipeline::PipelineMode;
use crate::plan::{StreamCell, LANES};
use crate::system::TablePass;
use mdm_funceval::{FunctionEvaluator, POLY_COEFFS};
use std::arch::x86_64::*;
use std::ops::Range;

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

/// One run of a tile's j-stream: a j-cell, the shift added to every
/// position streamed from it, the lanes it feeds, and which lane's own
/// particle each of its slots is.
struct JRun<'a> {
    /// The j-cell's columns.
    cell: JCellColumns<'a>,
    /// Periodic image shift.
    shift: [f32; 3],
    /// The lanes whose chains take its terms.
    lanes: __mmask16,
    /// Slot `k` is the self pair of lane `self_lane + k` (wrapping); a
    /// value past the last lane for every `k` means no slot is.
    self_lane: usize,
}

/// One pass's coefficients for one j-species across a tile: lane `l`
/// holds `a[tᵢ(l)][tⱼ]` and `b[tᵢ(l)][tⱼ]`.
#[derive(Clone, Copy)]
struct PairCoeffs {
    a: __m512,
    b: __m512,
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

/// Tile `slots` of `jstore` — its i-particles, one per lane — against
/// the j-stream `union` in order, `P` passes side by side. A stream cell
/// feeds only its own lanes, and a streamed j that is one of the tile's
/// own slots is passed over by that slot's lane (the plan's lanes hold
/// their home cell once, unshifted). `out[l·P + p]` is the accumulator of
/// slot `slots.start + l` for pass `p`: read as the chains' starting
/// values, written back with what [`crate::pipeline::interact_cell_scalar`]
/// would leave there, bit for bit, after the slot's own j-cells in the
/// same order with the slot's own species row of the coefficient RAM.
/// Potential mode touches component 0 only.
///
/// Species beyond a pass's coefficient RAM are the caller's to rule out.
#[target_feature(enable = "avx512f")]
pub(crate) fn sweep_tile<const P: usize>(
    passes: &[TablePass<'_>; P],
    mode: PipelineMode,
    jstore: &JStore,
    slots: Range<usize>,
    union: impl Iterator<Item = StreamCell>,
    out: &mut [[f64; 3]],
) {
    let first = slots.start;
    let runs = union.map(|u| {
        let cell = jstore.cell_range(u.cell);
        JRun {
            self_lane: cell.start.wrapping_sub(first),
            cell: jstore.slot_columns(cell),
            shift: u.shift,
            lanes: u.lanes,
        }
    });
    let lanes = jstore.slot_columns(slots);
    match mode {
        PipelineMode::Force => tile::<P, true>(passes, lanes, runs, out),
        PipelineMode::Potential => tile::<P, false>(passes, lanes, runs, out),
    }
}

/// One entry of a home cell's stencil, for [`sweep_tiles`].
#[cfg(test)]
#[derive(Clone, Copy)]
pub(crate) struct JCell<'a> {
    /// The j-cell's columns.
    pub cell: JCellColumns<'a>,
    /// Periodic image shift, added to every streamed position.
    pub shift: [f32; 3],
    /// The entry is the home cell itself: slot `k` is the self pair of
    /// i-slot `k`.
    pub is_home: bool,
}

/// The one-home-cell form of the tiles, against a stencil of the
/// caller's making: every i-particle of `home`, sixteen to a tile, each
/// tile streaming all of `stencil` to all its lanes. `out[s·P + p]` is
/// home slot `s`'s accumulator for pass `p`, as in [`sweep_tile`].
#[cfg(test)]
#[target_feature(enable = "avx512f")]
pub(crate) fn sweep_tiles<const P: usize>(
    passes: &[TablePass<'_>; P],
    mode: PipelineMode,
    home: JCellColumns<'_>,
    stencil: &[JCell<'_>],
    out: &mut [[f64; 3]],
) {
    assert_eq!(out.len(), home.len() * P, "one accumulator per slot per pass");
    for base in (0..home.len()).step_by(LANES) {
        let lanes = base..(base + LANES).min(home.len());
        let runs = stencil.iter().map(|entry| JRun {
            cell: entry.cell,
            shift: entry.shift,
            lanes: ((1u32 << lanes.len()) - 1) as __mmask16,
            // Home slot `k` is lane `k − base`'s own particle.
            self_lane: if entry.is_home { base.wrapping_neg() } else { LANES },
        });
        let i_side = JCellColumns {
            xs: &home.xs[lanes.clone()],
            ys: &home.ys[lanes.clone()],
            zs: &home.zs[lanes.clone()],
            types: &home.types[lanes.clone()],
        };
        let out = &mut out[base * P..lanes.end * P];
        match mode {
            PipelineMode::Force => tile::<P, true>(passes, i_side, runs, out),
            PipelineMode::Potential => tile::<P, false>(passes, i_side, runs, out),
        }
    }
}

/// One tile with the mode as a constant: with both modes' arms in one
/// body the four-pass sweep keeps fewer of its chains in registers
/// (5–7 % at 33 particles per cell). `lanes` holds the tile's
/// i-particles, at most [`LANES`].
#[target_feature(enable = "avx512f")]
fn tile<'a, const P: usize, const FORCE: bool>(
    passes: &[TablePass<'_>; P],
    lanes: JCellColumns<'_>,
    runs: impl Iterator<Item = JRun<'a>>,
    out: &mut [[f64; 3]],
) {
    let width = lanes.len();
    assert!(width <= LANES, "a tile holds at most {LANES} i-particles");
    assert_eq!(out.len(), width * P, "one accumulator per lane per pass");
    let tables: [TableLanes; P] = std::array::from_fn(|p| TableLanes::new(passes[p].table));
    let components = if FORCE { 3 } else { 1 };
    let tail = ((1u32 << width) - 1) as __mmask16;
    // SAFETY: lanes `0..width` of each load are a column of length
    // `width`; the rest are masked off and read 0.
    let load = |col: &[f32]| unsafe { _mm512_maskz_loadu_ps(tail, col[..width].as_ptr()) };
    let xi = [load(lanes.xs), load(lanes.ys), load(lanes.zs)];

    // The coefficient RAM as the tile sees it: per j-species, per pass,
    // the lanes' own rows.
    let zero = _mm512_setzero_ps();
    let mut coeffs = [[PairCoeffs { a: zero, b: zero }; P]; MAX_TYPES];
    for (p, pass) in passes.iter().enumerate() {
        for (tj, pair) in coeffs.iter_mut().enumerate().take(pass.coefficients.n_types()) {
            let (mut a, mut b) = ([0f32; LANES], [0f32; LANES]);
            for (lane, &ti) in lanes.types[..width].iter().enumerate() {
                (a[lane], b[lane]) = pass.coefficients.get(ti, tj as u8);
            }
            // SAFETY: whole-register loads of 16-element arrays.
            pair[p] = unsafe {
                PairCoeffs {
                    a: _mm512_loadu_ps(a.as_ptr()),
                    b: _mm512_loadu_ps(b.as_ptr()),
                }
            };
        }
    }

    // Lane `l`'s chains start from its slot's accumulators.
    let mut acc = [[[_mm512_setzero_pd(); 2]; 3]; P];
    for (p, chains) in acc.iter_mut().enumerate() {
        for (c, chain) in chains.iter_mut().enumerate().take(components) {
            let mut start = [0f64; LANES];
            for (lane, value) in start.iter_mut().enumerate().take(width) {
                *value = out[lane * P + p][c];
            }
            // SAFETY: two whole-register loads of a 16-element array.
            *chain = unsafe {
                [
                    _mm512_loadu_pd(start.as_ptr()),
                    _mm512_loadu_pd(start.as_ptr().add(LANES / 2)),
                ]
            };
        }
    }

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
            let own = run.self_lane.wrapping_add(k);
            let live = if own < LANES {
                run.lanes & !(1 << own)
            } else {
                run.lanes
            };
            let pair = &coeffs[ts[k] as usize];
            for p in 0..P {
                let x = _mm512_mul_ps(pair[p].a, r_sq);
                // SAFETY: `tables[p]` was built from `passes[p]`, which
                // outlives this call.
                let g = unsafe { tables[p].eval(x, run.lanes) };
                let bg = _mm512_mul_ps(pair[p].b, g);
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

    for (p, chains) in acc.iter().enumerate() {
        for (c, chain) in chains.iter().enumerate().take(components) {
            let mut end = [0f64; LANES];
            // SAFETY: two whole-register stores into a 16-element array.
            unsafe {
                _mm512_storeu_pd(end.as_mut_ptr(), chain[0]);
                _mm512_storeu_pd(end.as_mut_ptr().add(LANES / 2), chain[1]);
            }
            for (lane, &value) in end.iter().enumerate().take(width) {
                out[lane * P + p][c] = value;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chip::AtomCoefficients;
    use crate::ftz::FtzGuard;
    use crate::pipeline::{interact_cell_scalar, BatchScratch, CellPass, PairAccum, MAX_CELL_PASSES};
    use crate::tables::GFunction;

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

    pub(crate) fn tables(kernels: [GFunction; 4]) -> Vec<FunctionEvaluator> {
        kernels
            .iter()
            .map(|g| g.build_evaluator().unwrap())
            .collect()
    }

    /// Three species, every `a` and `b` of every pass distinct, mixed
    /// signs and magnitudes.
    pub(crate) fn three_species_ram() -> Vec<AtomCoefficients> {
        (0..MAX_CELL_PASSES)
            .map(|p| {
                let entry = |scale: f64, offset: f64| -> Vec<Vec<f64>> {
                    (0..3)
                        .map(|i| {
                            (0..3)
                                .map(|j| offset + scale * (1 + 3 * i + j + 9 * p) as f64)
                                .collect()
                        })
                        .collect()
                };
                AtomCoefficients::new(&entry(0.02, 0.1), &entry(-0.11, 2.0))
            })
            .collect()
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

    /// Run both sweeps on the same inputs from the same starting
    /// accumulators and demand identical bits.
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
            let (mut scalar, mut tiled) = (begin.clone(), begin);
            scalar_sweep(&passes, mode, home, stencil, &mut scalar);
            // SAFETY: callers checked `available()`.
            unsafe { sweep_tiles(&passes, mode, home, stencil, &mut tiled) };
            for (k, (s, t)) in scalar.iter().zip(&tiled).enumerate() {
                assert_eq!(
                    s.map(f64::to_bits),
                    t.map(f64::to_bits),
                    "{what}: slot {} pass {} {mode:?}: scalar {s:?} vs tiles {t:?}",
                    k / P,
                    k % P,
                );
            }
        }
    }

    pub(crate) const FORCE_KERNELS: [GFunction; 4] = [
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
        if !simd_or_loud_skip() {
            return;
        }
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
        for mode in [PipelineMode::Force, PipelineMode::Potential] {
            let mut out = [[-0.0f64; 3]; 4];
            // SAFETY: `available()` was checked above.
            unsafe { sweep_tiles(&passes, mode, home.columns(), &stencil, &mut out) };
            for acc in out {
                assert_eq!(acc.map(f64::to_bits), [(-0.0f64).to_bits(); 3], "{mode:?}");
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
