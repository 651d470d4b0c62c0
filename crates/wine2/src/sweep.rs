//! The wavenumber sweep: the one order in which the emulator executes
//! the particle–wave operations of a DFT or IDFT evaluation.
//!
//! The hardware hierarchy ([`crate::chip`] → [`crate::board`] →
//! [`crate::cluster`]) says *which pipeline is billed* for an operation;
//! this module says *in which order the host computes them*. Because the
//! datapath is two's-complement integer arithmetic the order is free,
//! and three exact reorderings make it cheap:
//!
//! 1. **One lane per particle.** The particle memory of the whole system
//!    — every board's chunk of every cluster, concatenated in load order
//!    — is held as one set of SoA columns ([`Lanes`]), 8 particles to a
//!    512-bit register, with only the last block padded with null
//!    particles (zero phase, zero charge: their DFT terms are exactly 0,
//!    and their IDFT lanes are never read back). The clusters' and
//!    boards' split is billing, not layout.
//! 2. **The wave table regrouped into rows** ([`WavePlan`]): runs of
//!    consecutive `n_x` at fixed `(n_y, n_z)`. Along a row the phase is
//!    an accumulator, `θ ← θ + s_x (mod 2³²)` — the same 32-bit word
//!    [`Phase32::dot`] forms with three multiplies, reached by one
//!    modular add. A slot ↔ table-index permutation returns results in
//!    the caller's order.
//! 3. **Order-free integer sums.** The DFT keeps a wave's two sums in
//!    i64 lanes across every particle block of the system and reduces
//!    once per wave, so a wave's sums are whole-system totals with no
//!    merge after the sweep. It walks the column in segments of at most
//!    `SEGMENT_BLOCKS` blocks, so that the walking phase, `s_x` and
//!    charge words of one segment (12 KiB) stay L1-resident while a
//!    row's waves pass over them; the row's lanes are parked between
//!    segments. The IDFT keeps `Σg` and its running prefix sum per
//!    row and applies `Σₖ (n₀ + k)·gₖ = (n₀ + len)·Σg − Σₖ Sₖ`,
//!    `f_y += n_y·Σg`, `f_z += n_z·Σg` once per row, folding into the
//!    wide [`FixedAccum`](mdm_fixed::FixedAccum)s once per particle.
//!
//! The same freedom splits the work across threads without changing a
//! bit: a DFT call covers any contiguous slot range (a row cut at the
//! range's edge is still a row, [`WavePlan::rows_in`]), and an IDFT call
//! any run of particle blocks.
//!
//! ## The one new bound
//!
//! IDFT partials live in i64 lanes across a whole call. A per-axis sum
//! is `Σ n·g` with `|g| ≤ 2³¹`, so it is exact while
//! `2³¹ · max|n| · N_waves < 2⁶³` (wrapping intermediates are harmless:
//! the final value is right modulo 2⁶⁴ and fits). That is 2⁴⁸ for the
//! tables run here and 2⁵⁶ at the paper's α = 85. A table beyond it is
//! not refused and never wraps silently: [`WavePlan`] cuts it into
//! *spans* of rows that each satisfy the bound, and the sweep folds into
//! the 128-bit registers at every span end.
//!
//! Two forms of the same order live here and in [`crate::simd`]: the
//! portable one below (every host; the reference for the row plan, the
//! padding and the summation by parts) and the AVX-512 one. Both are
//! asserted raw-register-equal to per-wave
//! [`WinePipeline::{dft_wave, idft_wave}`](crate::pipeline::WinePipeline).

use crate::pipeline::{shared_rom, IdftAccum, WineParticle};
use mdm_fixed::{Phase32, SinCosTable, Q30};
use std::ops::Range;

/// Particles per lane block (one 512-bit register of 64-bit lanes).
pub(crate) const LANES: usize = 8;

/// Most blocks a DFT row sweeps before moving on: 64 blocks of phase,
/// `s_x` and charge words are 12 KiB, well inside L1 (see the module
/// docs). A column of 4,000 particles is 94 KiB a wave, which is not.
const SEGMENT_BLOCKS: usize = 64;

/// One lane block: a word for each of [`LANES`] particles, on one
/// 64-byte cache line. Every column and scratch the sweep streams is a
/// list of these, so each 512-bit load and store of the AVX-512 form is
/// aligned wherever the allocator puts the list (a misaligned one spans
/// two lines).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(C, align(64))]
pub(crate) struct Block<T>(pub(crate) [T; LANES]);

/// The blocks of `word(p)` over `particles`, the last block padded with
/// zeros.
fn blocks_of<'a, T: Copy + Default + 'a>(
    particles: &'a [WineParticle],
    word: impl Fn(&WineParticle) -> T + 'a,
) -> impl Iterator<Item = Block<T>> + 'a {
    particles.chunks(LANES).map(move |chunk| {
        let mut block = Block([T::default(); LANES]);
        for (lane, p) in block.0.iter_mut().zip(chunk) {
            *lane = word(p);
        }
        block
    })
}

/// The system's particle memory as SoA columns, one lane per particle.
///
/// Invariant (the AVX-512 kernel indexes the ROM with these words):
/// every phase word is a zero-extended `u32` and every charge word a
/// sign-extended Q30 register; the columns all hold `blocks()` blocks
/// and the words past `len()` are zero. The fields are private and
/// [`Lanes::load`] is their only writer.
#[derive(Clone, Debug, Default)]
pub(crate) struct Lanes {
    s: [Vec<Block<u64>>; 3],
    q: Vec<Block<i64>>,
    len: usize,
}

impl Lanes {
    /// Replace the contents with `particles`, padding the last block
    /// with null particles. Keeps the columns' capacity.
    pub(crate) fn load(&mut self, particles: &[WineParticle]) {
        for (axis, column) in self.s.iter_mut().enumerate() {
            column.clear();
            column.extend(blocks_of(particles, |p| u64::from(p.s[axis].raw())));
        }
        self.q.clear();
        self.q.extend(blocks_of(particles, |p| p.q.raw()));
        self.len = particles.len();
    }

    /// Resident particles (padding excluded).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// 8-lane blocks, the ragged last one included.
    pub(crate) fn blocks(&self) -> usize {
        self.q.len()
    }

    /// Phase column of one axis (`blocks()` blocks of zero-extended words).
    pub(crate) fn phases(&self, axis: usize) -> &[Block<u64>] {
        &self.s[axis]
    }

    /// Charge column (`blocks()` blocks of sign-extended Q30 words).
    pub(crate) fn charges(&self) -> &[Block<i64>] {
        &self.q
    }

    /// Particle `i`'s phase word on `axis`.
    fn phase(&self, axis: usize, i: usize) -> u32 {
        self.s[axis][i / LANES].0[i % LANES] as u32
    }
}

/// A run of consecutive `n_x` at fixed `(n_y, n_z)`: the waves
/// `(n0 + k, ny, nz)` for `k < len` occupy slots `start .. start + len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) n0: i32,
    pub(crate) ny: i32,
    pub(crate) nz: i32,
    pub(crate) start: usize,
    pub(crate) len: usize,
}

/// A wave table regrouped into rows, built once per table.
#[derive(Clone, Debug, Default)]
pub(crate) struct WavePlan {
    rows: Vec<Row>,
    /// Table index → slot in row order.
    slot_of: Vec<u32>,
    /// End (exclusive) row index of each span; see the module docs.
    span_ends: Vec<usize>,
    longest_row: usize,
}

/// `max|n| · N_waves` must stay below this for i64 IDFT partials
/// (`2³¹ · max|n| · N_waves < 2⁶³`).
const SPAN_LIMIT: u64 = 1 << 32;

/// Largest `|component|` of a wave vector.
fn max_abs(n: [i32; 3]) -> u64 {
    n.iter().map(|c| u64::from(c.unsigned_abs())).max().unwrap_or(0)
}

impl WavePlan {
    /// Regroup `table`. Any table is accepted: unsorted, duplicated or
    /// isolated vectors simply make short rows.
    pub(crate) fn new(table: &[[i32; 3]]) -> Self {
        assert!(table.len() <= u32::MAX as usize, "wave table too long");
        let mut sorted: Vec<u32> = (0..table.len() as u32).collect();
        sorted.sort_by_key(|&i| {
            let [nx, ny, nz] = table[i as usize];
            (nz, ny, nx)
        });

        let mut rows: Vec<Row> = Vec::new();
        let mut slot_of = vec![0u32; table.len()];
        // `max|n|` of the row being grown: a row never outgrows a span.
        let mut row_max = 0u64;
        for (slot, &index) in sorted.iter().enumerate() {
            let n = table[index as usize];
            slot_of[index as usize] = slot as u32;
            let grown = row_max.max(max_abs(n));
            match rows.last_mut() {
                Some(row)
                    if (row.ny, row.nz) == (n[1], n[2])
                        && i64::from(n[0]) == i64::from(row.n0) + row.len as i64
                        && grown * (row.len as u64 + 1) < SPAN_LIMIT =>
                {
                    row.len += 1;
                    row_max = grown;
                }
                _ => {
                    rows.push(Row { n0: n[0], ny: n[1], nz: n[2], start: slot, len: 1 });
                    row_max = max_abs(n);
                }
            }
        }

        // Greedy spans: extend while `max|n| · waves < 2³²` still holds.
        let mut span_ends = Vec::new();
        let (mut span_max, mut span_waves) = (0u64, 0u64);
        for (r, row) in rows.iter().enumerate() {
            let last = [row.n0 + (row.len as i32 - 1), row.ny, row.nz];
            let row_max = max_abs([row.n0, row.ny, row.nz]).max(max_abs(last));
            let (grown_max, grown_waves) = (span_max.max(row_max), span_waves + row.len as u64);
            if span_waves > 0 && grown_max.saturating_mul(grown_waves) >= SPAN_LIMIT {
                span_ends.push(r);
                (span_max, span_waves) = (row_max, row.len as u64);
            } else {
                (span_max, span_waves) = (grown_max, grown_waves);
            }
        }
        if !rows.is_empty() {
            span_ends.push(rows.len());
        }

        let longest_row = rows.iter().map(|r| r.len).max().unwrap_or(0);
        Self { rows, slot_of, span_ends, longest_row }
    }

    /// Waves in the table.
    pub(crate) fn waves(&self) -> usize {
        self.slot_of.len()
    }

    /// The rows, in slot order.
    #[cfg(test)]
    pub(crate) fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Slot of table entry `index`.
    pub(crate) fn slot_of(&self, index: usize) -> usize {
        self.slot_of[index] as usize
    }

    /// The rows covering `slots`, the first and last cut at its edges:
    /// a row's tail `(n₀ + k, n_y, n_z)`, `k ≥ j`, is the row starting at
    /// `n₀ + j`.
    pub(crate) fn rows_in(&self, slots: Range<usize>) -> impl Iterator<Item = Row> + '_ {
        let first = self.rows.partition_point(|r| r.start + r.len <= slots.start);
        self.rows[first..].iter().take_while(move |r| r.start < slots.end).map(move |r| {
            let (begin, end) = (r.start.max(slots.start), (r.start + r.len).min(slots.end));
            Row { n0: r.n0 + (begin - r.start) as i32, start: begin, len: end - begin, ..*r }
        })
    }

    /// Waves in the longest row.
    pub(crate) fn longest_row(&self) -> usize {
        self.longest_row
    }

    /// The spans: maximal runs of rows whose IDFT partials fit i64 lanes
    /// (one span for every table short of `max|n| · N_waves = 2³²`).
    pub(crate) fn spans(&self) -> impl Iterator<Item = &[Row]> + '_ {
        let mut begin = 0;
        self.span_ends.iter().map(move |&end| {
            let span = &self.rows[begin..end];
            begin = end;
            span
        })
    }
}

/// Plan an IDFT wave list: the row plan of its vectors and the `[u, v]`
/// Q30 registers in slot order.
#[cfg(test)]
pub(crate) fn plan_idft(waves: &[crate::pipeline::IdftWave]) -> (WavePlan, Vec<[i64; 2]>) {
    let table: Vec<[i32; 3]> = waves.iter().map(|w| w.n).collect();
    let plan = WavePlan::new(&table);
    let mut uv = vec![[0; 2]; waves.len()];
    for (w, wave) in waves.iter().enumerate() {
        uv[plan.slot_of(w)] = [wave.u.raw(), wave.v.raw()];
    }
    (plan, uv)
}

/// Per-lane DFT partial sums of one wave: `[Σ q(sin+cos), Σ q(sin−cos)]`,
/// each product already truncated to Q30 fraction bits. A term is below
/// 2³² and a system holds fewer than 2³¹ particles (`Wine2System`
/// asserts it), so a lane stays below 2⁶⁰ and the 8-lane total, the
/// wave's whole-system sum, below 2⁶³.
pub(crate) type DftLanes = [Block<i64>; 2];

/// Scratch of the DFT sweep, reused across calls: the walking-phase
/// column of the segment in hand and the lane sums of the row in hand.
#[derive(Clone, Debug, Default)]
pub(crate) struct DftScratch {
    theta: Vec<Block<u64>>,
    acc: Vec<DftLanes>,
}

/// Which form of the sweep executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Plain Rust, every host.
    Portable,
    /// [`crate::simd`]: AVX-512 F + DQ and the 12-bit ROM.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The kernel for this CPU and the shared ROM — the only selection
    /// there is.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::available() {
            return Self::Avx512;
        }
        Self::Portable
    }

    /// DFT of the plan's slots `slots` over the whole particle memory:
    /// `sums[slot − slots.start]` becomes the wave's
    /// `[Σ q(sin+cos), Σ q(sin−cos)]` over every resident particle. A
    /// wave's lanes stay live across every segment of the column and are
    /// reduced once.
    pub(crate) fn dft(
        self,
        plan: &WavePlan,
        slots: Range<usize>,
        lanes: &Lanes,
        scratch: &mut DftScratch,
        sums: &mut [[i64; 2]],
    ) {
        assert!(slots.end <= plan.waves() && sums.len() == slots.len());
        scratch.acc.resize(plan.longest_row(), DftLanes::default());
        let blocks = lanes.blocks();
        scratch.theta.resize(blocks.min(SEGMENT_BLOCKS), Block::default());
        for row in plan.rows_in(slots.clone()) {
            let acc = &mut scratch.acc[..row.len];
            acc.fill(DftLanes::default());
            for start in (0..blocks).step_by(SEGMENT_BLOCKS) {
                let segment = start..blocks.min(start + SEGMENT_BLOCKS);
                let theta = &mut scratch.theta[..segment.len()];
                self.dft_row(&row, lanes, segment, theta, acc);
            }
            let out = &mut sums[row.start - slots.start..][..row.len];
            for (sum, [plus, minus]) in out.iter_mut().zip(acc) {
                *sum = [plus.0.iter().sum(), minus.0.iter().sum()];
            }
        }
    }

    /// DFT of one row over the blocks `blocks` of `lanes`: form the
    /// row's first phase for every particle of the segment into `theta`,
    /// then walk it along the row, adding each wave's terms into its
    /// lanes `acc[k]` (which carry over from the previous segment).
    fn dft_row(
        self,
        row: &Row,
        lanes: &Lanes,
        blocks: Range<usize>,
        theta: &mut [Block<u64>],
        acc: &mut [DftLanes],
    ) {
        assert!(blocks.end <= lanes.blocks());
        assert_eq!(theta.len(), blocks.len());
        assert_eq!(acc.len(), row.len);
        match self {
            Self::Portable => dft_row_portable(shared_rom(), row, lanes, blocks, theta, acc),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                assert!(crate::simd::available(), "AVX-512 kernel on a host without it");
                // SAFETY: the CPU features and ROM width were just
                // checked; `blocks`, `theta` and `acc` have the asserted
                // extents.
                unsafe { crate::simd::dft_row(row, lanes, blocks, theta, acc) }
            }
        }
    }

    /// IDFT of the whole plan over the particles from block
    /// `first_block` on, added into `out` (one accumulator per particle,
    /// in load order). `uv[slot]` is the wave's `[u, v]` Q30 register
    /// pair.
    pub(crate) fn idft(
        self,
        plan: &WavePlan,
        uv: &[[i64; 2]],
        lanes: &Lanes,
        first_block: usize,
        out: &mut [IdftAccum],
    ) {
        assert_eq!(uv.len(), plan.waves());
        assert!(first_block * LANES + out.len() <= lanes.len());
        match self {
            Self::Portable => idft_portable(shared_rom(), plan, uv, lanes, first_block, out),
            #[cfg(target_arch = "x86_64")]
            Self::Avx512 => {
                assert!(crate::simd::available(), "AVX-512 kernel on a host without it");
                // SAFETY: the CPU features and ROM width were just
                // checked; `uv` and `out` have the asserted extents.
                unsafe { crate::simd::idft(plan, uv, lanes, first_block, out) }
            }
        }
    }
}

/// `θ₀ = n₀·s_x + n_y·s_y + n_z·s_z` for particle `i` — the row's first
/// phase, by the pipeline's own inner-product stage.
fn first_phase(row: &Row, lanes: &Lanes, i: usize) -> Phase32 {
    Phase32::dot(
        [row.n0, row.ny, row.nz],
        [0, 1, 2].map(|axis| Phase32::from_raw(lanes.phase(axis, i))),
    )
}

fn dft_row_portable(
    rom: &SinCosTable,
    row: &Row,
    lanes: &Lanes,
    blocks: Range<usize>,
    theta: &mut [Block<u64>],
    acc: &mut [DftLanes],
) {
    for (t, b) in theta.iter_mut().zip(blocks.clone()) {
        for (lane, word) in t.0.iter_mut().enumerate() {
            *word = u64::from(first_phase(row, lanes, b * LANES + lane).raw());
        }
    }
    let (sx, q) = (&lanes.s[0][blocks.clone()], &lanes.q[blocks]);
    for [plus, minus] in acc {
        for (thetas, (sx, q)) in theta.iter_mut().zip(sx.iter().zip(q)) {
            for lane in 0..LANES {
                let (sin, cos) = rom.sin_cos(Phase32::from_raw(thetas.0[lane] as u32));
                // `FixedAccum::mac`: the truncated product, summed exactly.
                plus.0[lane] += (q.0[lane] * (sin + cos).raw()) >> 30;
                minus.0[lane] += (q.0[lane] * (sin - cos).raw()) >> 30;
                thetas.0[lane] = u64::from((thetas.0[lane] as u32).wrapping_add(sx.0[lane] as u32));
            }
        }
    }
}

fn idft_portable(
    rom: &SinCosTable,
    plan: &WavePlan,
    uv: &[[i64; 2]],
    lanes: &Lanes,
    first_block: usize,
    out: &mut [IdftAccum],
) {
    for (i, acc) in (first_block * LANES..).zip(out) {
        let sx = lanes.phase(0, i);
        for span in plan.spans() {
            let mut f = [0i64; 3];
            let mut waves = 0u64;
            for row in span {
                let mut theta = first_phase(row, lanes, i).raw();
                // Σg and Σₖ Sₖ (the running sum of the prefix sums).
                let (mut sum, mut prefix_sum) = (0i64, 0i64);
                for &[u, v] in &uv[row.start..row.start + row.len] {
                    let (sin, cos) = rom.sin_cos(Phase32::from_raw(theta));
                    let g = Q30::from_raw(v).mul_trunc(sin) - Q30::from_raw(u).mul_trunc(cos);
                    sum = sum.wrapping_add(g.raw());
                    prefix_sum = prefix_sum.wrapping_add(sum);
                    theta = theta.wrapping_add(sx);
                }
                let past_end = i64::from(row.n0) + row.len as i64;
                f[0] = f[0].wrapping_add(past_end.wrapping_mul(sum).wrapping_sub(prefix_sum));
                f[1] = f[1].wrapping_add(i64::from(row.ny).wrapping_mul(sum));
                f[2] = f[2].wrapping_add(i64::from(row.nz).wrapping_mul(sum));
                waves += row.len as u64;
            }
            for (axis, partial) in f.into_iter().enumerate() {
                acc.f[axis].fold_partial(partial, waves);
            }
        }
    }
}

#[cfg(test)]
impl Lanes {
    /// Address and capacity of every column (the scratch-reuse test).
    pub(crate) fn buffers(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<_> = self.s.iter().map(|c| (c.as_ptr() as usize, c.capacity())).collect();
        out.push((self.q.as_ptr() as usize, self.q.capacity()));
        out
    }
}

#[cfg(test)]
impl WavePlan {
    /// Address and capacity of every table (the scratch-reuse test).
    pub(crate) fn buffers(&self) -> Vec<(usize, usize)> {
        vec![
            (self.rows.as_ptr() as usize, self.rows.capacity()),
            (self.slot_of.as_ptr() as usize, self.slot_of.capacity()),
            (self.span_ends.as_ptr() as usize, self.span_ends.capacity()),
        ]
    }
}

#[cfg(test)]
impl DftScratch {
    /// Address and capacity of both columns (the scratch-reuse test).
    pub(crate) fn buffers(&self) -> Vec<(usize, usize)> {
        vec![
            (self.theta.as_ptr() as usize, self.theta.capacity()),
            (self.acc.as_ptr() as usize, self.acc.capacity()),
        ]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pipeline::{DftAccum, IdftWave, WinePipeline};

    /// Every form of the sweep this host can run: the portable one
    /// always, the AVX-512 one where the CPU has it (loud skip
    /// otherwise).
    pub(crate) fn kernels() -> Vec<Kernel> {
        let mut all = vec![Kernel::Portable];
        #[cfg(target_arch = "x86_64")]
        if crate::simd::available() {
            all.push(Kernel::Avx512);
            return all;
        }
        eprintln!("AVX-512 absent: SIMD case skipped");
        all
    }

    /// Deterministic pseudo-random particle stream covering the full
    /// phase range and signed charges (xorshift; no external RNG).
    pub(crate) fn particles(count: usize, seed: u64) -> Vec<WineParticle> {
        let mut state = 0x243f_6a88_85a3_08d3u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|i| WineParticle {
                s: [0; 3].map(|_| Phase32::from_raw(next() as u32)),
                q: Q30::from_f64(if i % 2 == 0 { 0.93 } else { -0.87 }),
            })
            .collect()
    }

    /// IDFT waves over `table` with in-range pseudo-random coefficients.
    pub(crate) fn idft_waves(table: &[[i32; 3]]) -> Vec<IdftWave> {
        table
            .iter()
            .enumerate()
            .map(|(k, &n)| IdftWave {
                n,
                u: Q30::from_f64(0.9 * (0.37 * k as f64 + 0.2).sin()),
                v: Q30::from_f64(0.9 * (0.61 * k as f64 - 0.4).cos()),
            })
            .collect()
    }

    /// The mixed test table: unsorted, duplicated, mixed-sign vectors.
    pub(crate) fn mixed_table(count: i32) -> Vec<[i32; 3]> {
        (0..count).map(|i| [i % 13 - 6, i % 7 - 3, i % 5 + 1]).collect()
    }

    /// Run every kernel over `all` (one particle memory) and assert raw
    /// register equality — value and term count — with the per-wave
    /// pipeline streaming the same particles: the DFT over the whole slot
    /// range and cut into three uneven ranges, the IDFT over the whole
    /// column and block by block.
    fn assert_sweep_matches_pipeline(all: &[WineParticle], waves: &[IdftWave]) {
        let table: Vec<[i32; 3]> = waves.iter().map(|w| w.n).collect();
        let mut oracle = WinePipeline::new();
        let dft_want: Vec<DftAccum> = table.iter().map(|&n| oracle.dft_wave(n, all)).collect();
        let mut idft_want = vec![IdftAccum::default(); all.len()];
        for wave in waves {
            oracle.idft_wave(wave, all, &mut idft_want);
        }

        let mut lanes = Lanes::default();
        lanes.load(all);
        let (plan, uv) = plan_idft(waves);
        assert_eq!(plan.rows().iter().map(|r| r.len).sum::<usize>(), waves.len());

        let (third, waves) = (waves.len() / 3, waves.len());
        for kernel in kernels() {
            let mut sums = vec![[0; 2]; waves];
            kernel.dft(&plan, 0..waves, &lanes, &mut DftScratch::default(), &mut sums);
            let mut pieces = vec![[0; 2]; waves];
            let (head, tail) = pieces.split_at_mut(third);
            let (middle, tail) = tail.split_at_mut(third + 1);
            let mut scratch = DftScratch::default();
            kernel.dft(&plan, 0..third, &lanes, &mut scratch, head);
            kernel.dft(&plan, third..2 * third + 1, &lanes, &mut scratch, middle);
            kernel.dft(&plan, 2 * third + 1..waves, &lanes, &mut scratch, tail);
            assert_eq!(pieces, sums, "{kernel:?}: slot ranges");
            for (w, want) in dft_want.iter().enumerate() {
                let got = DftAccum::from_partial(sums[plan.slot_of(w)], all.len() as u64);
                assert_eq!(got.s_plus_c, want.s_plus_c, "{kernel:?} wave {w} {:?}", table[w]);
                assert_eq!(got.s_minus_c, want.s_minus_c, "{kernel:?} wave {w} {:?}", table[w]);
            }
            let mut got = vec![IdftAccum::default(); all.len()];
            kernel.idft(&plan, &uv, &lanes, 0, &mut got);
            let mut blockwise = vec![IdftAccum::default(); all.len()];
            for (b, block) in blockwise.chunks_mut(LANES).enumerate() {
                kernel.idft(&plan, &uv, &lanes, b, block);
            }
            for (i, ((g, want), piece)) in got.iter().zip(&idft_want).zip(&blockwise).enumerate() {
                // `FixedAccum` equality is raw register and term count.
                assert_eq!(g.f, want.f, "{kernel:?} particle {i}");
                assert_eq!(piece.f, want.f, "{kernel:?} particle {i}, block by block");
            }
        }
    }

    #[test]
    fn plan_rows_are_runs_of_consecutive_nx() {
        let table = [[3, 0, 1], [-1, 2, 0], [1, 0, 1], [2, 0, 1], [-1, 2, 0], [0, 2, 0], [5, 0, 1]];
        let plan = WavePlan::new(&table);
        let rows: Vec<(i32, i32, i32, usize)> =
            plan.rows().iter().map(|r| (r.n0, r.ny, r.nz, r.len)).collect();
        // Sorted by (n_z, n_y, n_x); the duplicate starts its own row.
        assert_eq!(rows, [(-1, 2, 0, 1), (-1, 2, 0, 2), (1, 0, 1, 3), (5, 0, 1, 1)]);
        // The permutation returns every table entry to its own vector.
        for (w, n) in table.iter().enumerate() {
            let slot = plan.slot_of(w);
            let row = plan.rows().iter().find(|r| (r.start..r.start + r.len).contains(&slot));
            let row = row.expect("every slot is in a row");
            assert_eq!([row.n0 + (slot - row.start) as i32, row.ny, row.nz], *n);
        }
        assert_eq!(plan.spans().count(), 1);
        assert_eq!(WavePlan::new(&[]).spans().count(), 0);
    }

    #[test]
    fn half_space_table_regroups_into_few_rows() {
        let table: Vec<[i32; 3]> =
            mdm_core::kvectors::half_space_vectors(10.6).iter().map(|k| k.n).collect();
        let plan = WavePlan::new(&table);
        assert!(table.len() > 2000);
        // ~2·n_max waves per row: the three phase multiplies are paid
        // once per ~13 evaluations.
        assert!(plan.rows().len() * 12 < table.len(), "{} rows", plan.rows().len());
    }

    #[test]
    fn scalar_simd_equivalence_over_particles_per_board() {
        // Every ragged board chunk alone, the seven packed into one
        // column, and a column crossing two segment edges with a ragged
        // last block (1,030 particles: 64 + 64 + 1 blocks).
        let waves = idft_waves(&mixed_table(300));
        let boards: Vec<Vec<WineParticle>> =
            [0usize, 1, 7, 8, 9, 17, 0].iter().map(|&n| particles(n, n as u64)).collect();
        assert_sweep_matches_pipeline(&boards.concat(), &waves);
        for board in boards {
            assert_sweep_matches_pipeline(&board, &waves);
        }
        assert_sweep_matches_pipeline(&particles(1030, 5), &waves);
    }

    #[test]
    fn scalar_simd_equivalence_over_table_shapes() {
        let cluster = [particles(19, 1), particles(5, 2)].concat();
        for count in [1, 7, 8, 9, 300] {
            assert_sweep_matches_pipeline(&cluster, &idft_waves(&mixed_table(count)));
        }
        // Unsorted, duplicated, single-wave rows, negative components,
        // one long row walked through zero.
        let mut table = vec![[4, -3, -2], [-7, 0, 0], [4, -3, -2], [100, -50, 25], [-2, -3, -2]];
        table.extend((-9..=9).rev().map(|nx| [nx, 1, -1]));
        assert_sweep_matches_pipeline(&cluster, &idft_waves(&table));
        // The physical table, in the host's shell order.
        let half_space: Vec<[i32; 3]> =
            mdm_core::kvectors::half_space_vectors(4.2).iter().map(|k| k.n).collect();
        assert_sweep_matches_pipeline(&cluster, &idft_waves(&half_space));
    }

    #[test]
    fn scalar_simd_equivalence_at_register_extremes() {
        // Phases 0 and u32::MAX on every axis, charges at the Q30
        // limits, and u, v at the limits — the only inputs on which the
        // `g = v·sinθ − u·cosθ` register wrap fires.
        let edge = [0u32, u32::MAX, 1 << 30, (1 << 30) - 1, 1 << 31, 0x8000_0001];
        let mut board = Vec::new();
        for (i, &a) in edge.iter().enumerate() {
            for &b in &edge[..3] {
                board.push(WineParticle {
                    s: [Phase32::from_raw(a), Phase32::from_raw(b), Phase32::from_raw(a ^ b)],
                    q: [Q30::min_value(), Q30::max_value(), Q30::from_f64(1.0)][i % 3],
                });
            }
        }
        let limits = [Q30::min_value(), Q30::max_value(), Q30::ZERO, Q30::from_f64(-1.0)];
        let waves: Vec<IdftWave> = mixed_table(64)
            .into_iter()
            .enumerate()
            .map(|(k, n)| IdftWave { n, u: limits[k % 4], v: limits[(k / 4) % 4] })
            .collect();
        assert_sweep_matches_pipeline(&[board, particles(9, 3)].concat(), &waves);
    }

    #[test]
    fn scalar_simd_equivalence_either_side_of_the_i64_bound() {
        // One particle a quarter turn along x for every wave below
        // (s_x = 1 ulp, n_x = 2³⁰), v at the negative limit: each wave
        // adds n_x·g = −2⁶¹ to f_x, so a fifth wave would leave i64.
        let probe = WineParticle {
            s: [Phase32::from_raw(1), Phase32::ZERO, Phase32::ZERO],
            q: Q30::from_f64(1.0),
        };
        let cluster = [vec![probe], particles(8, 4)].concat();
        let big = 1 << 30;
        let waves = |count: i32| -> Vec<IdftWave> {
            (0..count)
                .map(|j| IdftWave { n: [big, j, 0], u: Q30::ZERO, v: Q30::min_value() })
                .collect()
        };
        // max|n| · N_waves = 3·2³⁰ < 2³²: one span, partials stay in i64.
        let (under, _) = plan_idft(&waves(3));
        assert_eq!(under.spans().count(), 1);
        assert_sweep_matches_pipeline(&cluster, &waves(3));
        // 2³² and beyond: the plan folds early instead of wrapping.
        for count in [4, 5, 11] {
            let (over, _) = plan_idft(&waves(count));
            assert_eq!(over.spans().count(), (count as usize).div_ceil(3), "{count} waves");
            assert_sweep_matches_pipeline(&cluster, &waves(count));
        }
        // A run of consecutive huge n_x: rows are cut so that each fits.
        let run: Vec<IdftWave> = (0..7)
            .map(|k| IdftWave { n: [big + k, 0, 0], u: Q30::max_value(), v: Q30::min_value() })
            .collect();
        let (plan, _) = plan_idft(&run);
        assert!(plan.rows().iter().all(|r| r.len <= 3), "{:?}", plan.rows());
        assert_sweep_matches_pipeline(&cluster, &run);
        // The far corner of the component range.
        let corner = [[i32::MIN, i32::MAX, -1], [i32::MAX, i32::MIN, 1], [i32::MIN, 0, 0]];
        assert_sweep_matches_pipeline(&cluster, &idft_waves(&corner));
    }
}
