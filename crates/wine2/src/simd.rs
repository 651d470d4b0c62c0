//! AVX-512 form of the wavenumber sweep ([`crate::sweep`]).
//!
//! Same order as the portable form — one 64-bit lane per particle, rows
//! of the wave table innermost, the phase walked by `θ ← θ + s_x` — and
//! **bitwise identical** accumulator contents, because every operation
//! is integer arithmetic with defined wrap semantics. The
//! `scalar_simd_equivalence` tests assert that, raw register for raw
//! register, against the portable form and the per-wave pipeline on any
//! host that can run this path (and skip loudly elsewhere).
//!
//! ## Why it is laid out this way
//!
//! The bound of an integer kernel on a 512-bit Intel core is port 0:
//! every 512-bit shift and every multiply issues there, and a
//! `vpmullq` costs three of its µops. The two ROM gathers per 8
//! operations are not the bound. So the inner loop is built to need
//! only single-µop `vpmuldq` multiplies (every operand is a 32-bit
//! register), and to let 32-bit lane adds do the Q30 register wraps
//! that a 64-bit lane would need a shift pair for:
//!
//! * **The ROM is read through a re-laid image**, built once per
//!   process from the one shared ROM: per index one aligned 64-bit
//!   word, low dword `(table[i+1] − table[i]) << 2`, high dword
//!   `table[i]`. One 64-bit gather fetches both; `vpmuldq` of that word
//!   with the fraction `low << 10` (a dword, zero above) leaves the
//!   interpolation step `(Δ·frac) >> 30` in the *high* dword of the
//!   product, and a 32-bit lane add of word and product leaves
//!   `sin = table[i] + step` there, wrapped to the Q30 register — no
//!   shift at all.
//! * **Values travel in high dwords** through the 32-bit adds
//!   (`sin ± cos`), and are moved to the low dword — where `vpmuldq`
//!   reads — by a port-5 shuffle, not a port-0 shift.
//! * **Nothing is reduced inside the loops**: see the three reorderings
//!   in [`crate::sweep`]. The 64-bit multiplies left (`vpmullq`, three
//!   per row and block) are outside the per-wave loop.
//!
//! The kernels require AVX-512 F + DQ and the default 12-bit ROM (shift
//! counts are constants); anything else runs the portable form.

#![cfg(target_arch = "x86_64")]

use crate::pipeline::{shared_rom, IdftAccum};
use crate::sweep::{Block, DftLanes, Lanes, Row, WavePlan, LANES};
use std::arch::x86_64::*;
use std::ops::Range;
use std::sync::OnceLock;

/// ROM index width the kernels are specialised for (the WINE-2 default).
const INDEX_BITS: u32 = 12;
const IDX_SHIFT: u32 = 32 - INDEX_BITS; // 20: high bits → table index
const FRAC_SHIFT: u32 = INDEX_BITS - 2; // 10: low bits → Q30 fraction
const LOW_MASK: i64 = (1 << IDX_SHIFT) - 1;
/// Extra left shift of the stored table step, so that
/// `(Δ << 2)·(low << 10) = (Δ·frac) << 2` carries `(Δ·frac) >> 30` in
/// its high dword.
const STEP_SHIFT: u32 = 32 - 30;

/// Runtime gate for the kernels: CPU features and the shared ROM's width.
#[inline]
pub(crate) fn available() -> bool {
    shared_rom().index_bits() == INDEX_BITS
        && is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
}

/// The re-laid image of the shared ROM (see the module docs): exactly
/// `2^INDEX_BITS` words, so every 12-bit index is in bounds.
fn rom_image() -> &'static [i64] {
    static IMAGE: OnceLock<Box<[i64]>> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let words = shared_rom().words();
        assert_eq!(words.len(), (1 << INDEX_BITS) + 1, "kernels need the 12-bit ROM");
        words
            .windows(2)
            .map(|w| {
                let step = w[1].wrapping_sub(w[0]); // the Q30 register `b − a`
                let shifted = step << STEP_SHIFT;
                assert_eq!(shifted >> STEP_SHIFT, step, "table step outgrew its dword");
                (i64::from(w[0]) << 32) | i64::from(shifted as u32)
            })
            .collect()
    })
}

/// `(sin θ, cos θ)` for 8 phases (zero-extended `u32` turn fractions in
/// 64-bit lanes), bit-exact against [`SinCosTable::sin_cos`]. The Q30
/// results are in the **high dword** of each lane; low dwords are
/// scratch.
///
/// # Safety
/// `image` must point at the `2^12` words of [`rom_image`] and every
/// lane of `theta` must be below 2³².
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn sin_cos_high(image: *const i64, theta: __m512i) -> (__m512i, __m512i) {
    // split_index: top 12 bits → index, low 20 bits << 10 → Q30
    // fraction. A quarter turn has no low bits, so sine and cosine
    // share the fraction.
    let frac = _mm512_slli_epi32::<{ FRAC_SHIFT }>(_mm512_and_si512(
        theta,
        _mm512_set1_epi64(LOW_MASK),
    ));
    let theta_cos = _mm512_add_epi32(theta, _mm512_set1_epi64(1 << 30));
    // SAFETY: lanes are below 2³², so both indices are below 2¹².
    let sin_word = _mm512_i64gather_epi64::<8>(_mm512_srli_epi64::<{ IDX_SHIFT }>(theta), image);
    let cos_word =
        _mm512_i64gather_epi64::<8>(_mm512_srli_epi64::<{ IDX_SHIFT }>(theta_cos), image);
    // High dword: table[i] + ((Δ·frac) >> 30), wrapped by the lane add.
    let sin = _mm512_add_epi32(sin_word, _mm512_mul_epi32(sin_word, frac));
    let cos = _mm512_add_epi32(cos_word, _mm512_mul_epi32(cos_word, frac));
    (sin, cos)
}

/// Copy each lane's high dword over its low dword (port 5), putting a
/// value where `vpmuldq` reads it.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn high_to_low(x: __m512i) -> __m512i {
    _mm512_shuffle_epi32::<0b11_11_01_01>(x)
}

/// A wave-vector component as the 64-bit lane constant the phase
/// products take: its 32-bit register, zero-extended.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn component(n: i32) -> __m512i {
    _mm512_set1_epi64(i64::from(n as u32))
}

/// `θ₀ = n₀·s_x + n_y·s_y + n_z·s_z (mod 2³²)` for one block: the low
/// 32 bits of a sum of `vpmuludq` products are the wrapping inner
/// product of [`mdm_fixed::Phase32::dot`].
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn first_phase(n: [__m512i; 3], s: [__m512i; 3]) -> __m512i {
    let sum = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_mul_epu32(n[0], s[0]), _mm512_mul_epu32(n[1], s[1])),
        _mm512_mul_epu32(n[2], s[2]),
    );
    _mm512_and_si512(sum, _mm512_set1_epi64(0xffff_ffff))
}

/// The AVX-512 body of [`crate::sweep::Kernel::dft_row`].
///
/// # Safety
/// Requires AVX-512 F + DQ and the 12-bit ROM (checked by
/// [`available`]). `blocks` lies within `lanes`, `theta` holds one block
/// per block of `blocks` and `acc` one entry per wave of `row` (asserted
/// by the caller).
#[target_feature(enable = "avx512f,avx512dq")]
pub(crate) unsafe fn dft_row(
    row: &Row,
    lanes: &Lanes,
    blocks: Range<usize>,
    theta: &mut [Block<u64>],
    acc: &mut [DftLanes],
) {
    assert!(blocks.end <= lanes.blocks());
    assert!(theta.len() == blocks.len() && acc.len() == row.len);
    let first = blocks.start;
    let blocks = blocks.len();
    let image = rom_image().as_ptr();
    let columns = [0, 1, 2].map(|axis| lanes.phases(axis)[first..].as_ptr());
    let charges = lanes.charges()[first..].as_ptr();
    let theta = theta.as_mut_ptr();
    // SAFETY (every load and store below): the `Lanes` invariant gives
    // each column `lanes.blocks()` blocks, so at least `blocks` past
    // `first`; `theta` was just checked to have as many, and
    // `b < blocks`. A `Block` is 64 bytes on a 64-byte boundary, so the
    // aligned forms apply.
    let n = [component(row.n0), component(row.ny), component(row.nz)];
    for b in 0..blocks {
        let s = columns.map(|c| _mm512_load_si512(c.add(b).cast()));
        _mm512_store_si512(theta.add(b).cast(), first_phase(n, s));
    }
    for [plus_lanes, minus_lanes] in acc {
        let mut plus = _mm512_load_si512(plus_lanes.0.as_ptr().cast());
        let mut minus = _mm512_load_si512(minus_lanes.0.as_ptr().cast());
        for b in 0..blocks {
            let t = _mm512_load_si512(theta.add(b).cast());
            let sx = _mm512_load_si512(columns[0].add(b).cast());
            let q = _mm512_load_si512(charges.add(b).cast());
            // SAFETY: `theta` holds masked phases and `Lanes` phase
            // words are below 2³², so the walked phase stays below 2³².
            let (sin, cos) = sin_cos_high(image, t);
            // The paired accumulation: q·(sinθ ± cosθ), the ± wrapped
            // by the 32-bit lane op, the product truncated to Q30
            // fraction bits and summed exactly in the i64 lane.
            let sp = high_to_low(_mm512_add_epi32(sin, cos));
            let sm = high_to_low(_mm512_sub_epi32(sin, cos));
            plus = _mm512_add_epi64(plus, _mm512_srai_epi64::<30>(_mm512_mul_epi32(q, sp)));
            minus = _mm512_add_epi64(minus, _mm512_srai_epi64::<30>(_mm512_mul_epi32(q, sm)));
            _mm512_store_si512(theta.add(b).cast(), _mm512_add_epi32(t, sx));
        }
        _mm512_store_si512(plus_lanes.0.as_mut_ptr().cast(), plus);
        _mm512_store_si512(minus_lanes.0.as_mut_ptr().cast(), minus);
    }
}

/// The AVX-512 body of [`crate::sweep::Kernel::idft`].
///
/// # Safety
/// Requires AVX-512 F + DQ and the 12-bit ROM (checked by
/// [`available`]). `uv` holds one pair per wave of `plan` and `out` one
/// accumulator per particle from block `first_block` on, none past the
/// last resident one (asserted by the caller).
#[target_feature(enable = "avx512f,avx512dq")]
pub(crate) unsafe fn idft(
    plan: &WavePlan,
    uv: &[[i64; 2]],
    lanes: &Lanes,
    first_block: usize,
    out: &mut [IdftAccum],
) {
    assert!(uv.len() == plan.waves() && first_block * LANES + out.len() <= lanes.len());
    let image = rom_image().as_ptr();
    let columns = [0, 1, 2].map(|axis| lanes.phases(axis).as_ptr());
    let one = _mm512_set1_epi64(1);
    for (b, block_out) in (first_block..).zip(out.chunks_mut(LANES)) {
        // SAFETY: `out` ends at or before the last resident particle, so
        // `b < lanes.blocks()`, each column holds `blocks()` blocks, and a
        // `Block` is 64 bytes on a 64-byte boundary.
        let s = columns.map(|c| _mm512_load_si512(c.add(b).cast()));
        for span in plan.spans() {
            let mut f = [_mm512_setzero_si512(); 3];
            let mut waves = 0u64;
            for row in span {
                let n = [component(row.n0), component(row.ny), component(row.nz)];
                let mut theta = first_phase(n, s);
                // Σg and Σₖ Sₖ (the running sum of the prefix sums).
                let mut sum = _mm512_setzero_si512();
                let mut prefix_sum = _mm512_setzero_si512();
                for &[u, v] in &uv[row.start..row.start + row.len] {
                    // SAFETY: `theta` starts masked and walks by 32-bit
                    // lane adds of phase words below 2³².
                    let (sin, cos) = sin_cos_high(image, theta);
                    // g = v·sinθ − u·cosθ: truncating Q30 multiplies,
                    // each wrapped with the difference by the 32-bit
                    // lane subtract (low dwords).
                    let vs = _mm512_mul_epi32(_mm512_set1_epi64(v), high_to_low(sin));
                    let uc = _mm512_mul_epi32(_mm512_set1_epi64(u), high_to_low(cos));
                    let g = _mm512_sub_epi32(
                        _mm512_srli_epi64::<30>(vs),
                        _mm512_srli_epi64::<30>(uc),
                    );
                    // `vpmuldq` by 1 sign-extends the low dword.
                    sum = _mm512_add_epi64(sum, _mm512_mul_epi32(g, one));
                    prefix_sum = _mm512_add_epi64(prefix_sum, sum);
                    theta = _mm512_add_epi32(theta, s[0]);
                }
                let past_end = _mm512_set1_epi64(i64::from(row.n0) + row.len as i64);
                f[0] = _mm512_add_epi64(
                    f[0],
                    _mm512_sub_epi64(_mm512_mullo_epi64(past_end, sum), prefix_sum),
                );
                let ny = _mm512_set1_epi64(i64::from(row.ny));
                let nz = _mm512_set1_epi64(i64::from(row.nz));
                f[1] = _mm512_add_epi64(f[1], _mm512_mullo_epi64(ny, sum));
                f[2] = _mm512_add_epi64(f[2], _mm512_mullo_epi64(nz, sum));
                waves += row.len as u64;
            }
            for (axis, lanes_f) in f.into_iter().enumerate() {
                let mut partial = [0i64; LANES];
                _mm512_storeu_si512(partial.as_mut_ptr().cast(), lanes_f);
                // The ragged block's null lanes are simply not read back.
                for (acc, p) in block_out.iter_mut().zip(partial) {
                    acc.f[axis].fold_partial(p, waves);
                }
            }
        }
    }
}
