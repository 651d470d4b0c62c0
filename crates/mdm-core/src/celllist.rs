//! The cell-index (link-cell) method, Hockney & Eastwood — the
//! neighbour-search structure of both the paper's software and the
//! MDGRAPE-2 board (eqs. 7–8).
//!
//! The box is divided into `m³` cubic cells with edge ≥ the requested
//! minimum (the paper sets it "a little larger than r_cut"); particles
//! are bucket-sorted so that **indices within a cell are contiguous** —
//! the exact layout the MDGRAPE-2 particle memory requires ("We assumed
//! that the indices of particles in a cell are contiguous", §2.2). The
//! board's cell memory is then precisely [`CellList::cell_ranges`], and
//! its dual index counters walk [`CellList::neighbors27`].
//!
//! Three walks read it. [`CellList::for_each_block_pair`] is the
//! board's pattern: every ordered pair of the 27-cell blocks, no
//! cutoff. [`CellList::for_each_half_pair`] is the conventional
//! computer's: each pair within `r_cut` once. The host virial's walk
//! takes each cell's *half shell* ([`CellList::half_shell`]: the cell
//! and the 13 neighbours at positive offsets, so each unordered block
//! pair once) and hands out one block's pairs within `r_cut`, one `i`
//! at a time as `(i, js, r²s)` ([`CellList::in_range_pairs`]) —
//! portable, or eight `j` a register on AVX-512 with the kept lanes
//! compressed out, the same pairs bit for bit.

use crate::boxsim::SimBox;
use crate::vec3::Vec3;

/// What an incremental [`CellList::rebuild`] had to do.
///
/// The invariant either way: after `rebuild(positions)` the list is
/// **bit-identical** to `CellList::build(simbox, positions, min_cell)`
/// at the same grid — the counting sort is stable (within a cell,
/// original indices ascend), so equal cell memberships force equal
/// `sorted_order`/`cell_ranges` regardless of history.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellListRefresh {
    /// No particle changed cell: the sort order and cell ranges are
    /// untouched (only the caller's positions moved within cells).
    Unchanged,
    /// At least one particle crossed a cell boundary; the bucket sort
    /// re-ran in the existing buffers (no reallocation, no
    /// neighbour-table work — cell geometry never depends on positions).
    Resorted,
}

/// A built cell list over a snapshot of positions.
#[derive(Clone, Debug)]
pub struct CellList {
    m: usize,
    cell_size: f64,
    simbox: SimBox,
    /// Particle indices bucket-sorted by cell (the "sorted particle
    /// memory" order).
    order: Vec<u32>,
    /// `m³ + 1` offsets into `order`: cell `c` holds
    /// `order[cell_start[c]..cell_start[c+1]]`.
    cell_start: Vec<u32>,
    /// Cell index of every particle (original indexing).
    cell_of_particle: Vec<u32>,
}

impl CellList {
    /// Build a cell list with cell edge at least `min_cell` (usually
    /// `r_cut`). The number of cells per side is `⌊L/min_cell⌋`,
    /// clamped to ≥ 1.
    ///
    /// # Panics
    /// Panics if `min_cell` is not positive.
    pub fn build(simbox: SimBox, positions: &[Vec3], min_cell: f64) -> Self {
        assert!(min_cell > 0.0, "min_cell must be positive");
        let _span = mdm_profile::span("celllist_build");
        let l = simbox.l();
        let m = ((l / min_cell).floor() as usize).max(1);
        let cell_size = l / m as f64;
        let n_cells = m * m * m;

        let mut cell_of_particle = Vec::with_capacity(positions.len());
        let mut counts = vec![0u32; n_cells + 1];
        for &r in positions {
            let c = Self::cell_index_of(simbox, m, cell_size, r);
            cell_of_particle.push(c as u32);
            counts[c + 1] += 1;
        }
        // Prefix sums → cell_start.
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let cell_start = counts.clone();
        // Scatter into buckets.
        let mut cursor = cell_start.clone();
        let mut order = vec![0u32; positions.len()];
        for (i, &c) in cell_of_particle.iter().enumerate() {
            let slot = cursor[c as usize];
            order[slot as usize] = i as u32;
            cursor[c as usize] += 1;
        }
        Self {
            m,
            cell_size,
            simbox,
            order,
            cell_start,
            cell_of_particle,
        }
    }

    fn cell_index_of(simbox: SimBox, m: usize, cell_size: f64, r: Vec3) -> usize {
        let w = simbox.wrap(r);
        let clamp = |x: f64| ((x / cell_size) as usize).min(m - 1);
        let (ix, iy, iz) = (clamp(w.x), clamp(w.y), clamp(w.z));
        (iz * m + iy) * m + ix
    }

    /// Incrementally bring the list up to date with moved `positions`,
    /// keeping the grid (box, cell count, cell edge) fixed.
    ///
    /// Re-derives every particle's cell (O(N), a few flops each) and:
    ///
    /// * if **no membership changed**, leaves the sort order and ranges
    ///   untouched and returns [`CellListRefresh::Unchanged`] — the
    ///   common case while displacements since the last sort stay under
    ///   the cell-edge "skin";
    /// * otherwise re-runs the stable counting sort **in the existing
    ///   buffers** and returns [`CellListRefresh::Resorted`].
    ///
    /// Either way the result is bit-identical to a from-scratch
    /// [`CellList::build`] at the same positions (see
    /// [`CellListRefresh`]); a particle count change is handled by
    /// resizing the buffers and resorting.
    pub fn rebuild(&mut self, positions: &[Vec3]) -> CellListRefresh {
        let _span = mdm_profile::span("celllist_build");
        let same_len = positions.len() == self.cell_of_particle.len();
        let mut changed = !same_len;
        if same_len {
            for (i, &r) in positions.iter().enumerate() {
                let c = Self::cell_index_of(self.simbox, self.m, self.cell_size, r) as u32;
                if self.cell_of_particle[i] != c {
                    self.cell_of_particle[i] = c;
                    changed = true;
                }
            }
        } else {
            self.cell_of_particle.clear();
            self.cell_of_particle.extend(
                positions
                    .iter()
                    .map(|&r| Self::cell_index_of(self.simbox, self.m, self.cell_size, r) as u32),
            );
        }
        if !changed {
            return CellListRefresh::Unchanged;
        }
        let n_cells = self.n_cells();
        self.cell_start.clear();
        self.cell_start.resize(n_cells + 1, 0);
        for &c in &self.cell_of_particle {
            self.cell_start[c as usize + 1] += 1;
        }
        for i in 1..self.cell_start.len() {
            self.cell_start[i] += self.cell_start[i - 1];
        }
        let mut cursor = self.cell_start.clone();
        self.order.resize(positions.len(), 0);
        for (i, &c) in self.cell_of_particle.iter().enumerate() {
            let slot = cursor[c as usize];
            self.order[slot as usize] = i as u32;
            cursor[c as usize] += 1;
        }
        CellListRefresh::Resorted
    }

    /// Number of particles the list was (re)built over.
    #[inline]
    pub fn len(&self) -> usize {
        self.cell_of_particle.len()
    }

    /// Is the list empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cell_of_particle.is_empty()
    }

    /// Cells per side.
    #[inline]
    pub fn cells_per_side(&self) -> usize {
        self.m
    }

    /// Cell edge length (Å).
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Total number of cells.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.m * self.m * self.m
    }

    /// The box this list was built for.
    #[inline]
    pub fn simbox(&self) -> SimBox {
        self.simbox
    }

    /// Cell index of particle `i` (original indexing).
    #[inline]
    pub fn cell_of(&self, i: usize) -> usize {
        self.cell_of_particle[i] as usize
    }

    /// Particle indices bucket-sorted by cell — the MDGRAPE-2 particle
    /// memory order.
    #[inline]
    pub fn sorted_order(&self) -> &[u32] {
        &self.order
    }

    /// The `(jstart, jend)` table of the paper's eqs. 7–8 — the MDGRAPE-2
    /// cell memory. Cell `c` holds sorted positions
    /// `sorted_order()[ranges[c] as usize..ranges[c+1] as usize]`.
    #[inline]
    pub fn cell_ranges(&self) -> &[u32] {
        &self.cell_start
    }

    /// Particles in cell `c` (original indices).
    #[inline]
    pub fn particles_in(&self, c: usize) -> &[u32] {
        let lo = self.cell_start[c] as usize;
        let hi = self.cell_start[c + 1] as usize;
        &self.order[lo..hi]
    }

    /// The 27 neighbour cells of `c` (including `c` itself), each with
    /// the periodic image shift (in Å) that must be **added to positions
    /// of particles in that cell** to place them next to cell `c`.
    ///
    /// With fewer than 3 cells per side the same cell can appear several
    /// times with different shifts; that is correct — they are distinct
    /// periodic images.
    pub fn neighbors27(&self, c: usize) -> [(usize, Vec3); 27] {
        let at = self.coordinates(c);
        std::array::from_fn(|w| self.neighbor(at, w))
    }

    /// Cell `c`'s `(ix, iy, iz)`.
    fn coordinates(&self, c: usize) -> [usize; 3] {
        [c % self.m, (c / self.m) % self.m, c / (self.m * self.m)]
    }

    /// Entry `w` of [`Self::neighbors27`] for the cell at `at`: offset
    /// `(dx, dy, dz)` with `w = 9·(dz + 1) + 3·(dy + 1) + (dx + 1)`.
    fn neighbor(&self, at: [usize; 3], w: usize) -> (usize, Vec3) {
        let m = self.m as i64;
        let l = self.simbox.l();
        let along = |i: usize, d: usize| {
            let v = i as i64 + d as i64 - 1;
            if v < 0 {
                (v + m, -l)
            } else if v >= m {
                (v - m, l)
            } else {
                (v, 0.0)
            }
        };
        let (cx, sx) = along(at[0], w % 3);
        let (cy, sy) = along(at[1], (w / 3) % 3);
        let (cz, sz) = along(at[2], w / 9);
        (((cz * m + cy) * m + cx) as usize, Vec3::new(sx, sy, sz))
    }

    /// Whether the cell grid is fine enough for cell-based pair search
    /// to be exact for cutoff `r_cut` (needs ≥ 3 cells per side and
    /// `cell_size ≥ r_cut`).
    pub fn supports_cutoff(&self, r_cut: f64) -> bool {
        self.m >= 3 && self.cell_size >= r_cut - 1e-12
    }

    /// Visit every **unique** pair within `r_cut` (minimum image):
    /// `f(i, j, r⃗ᵢⱼ, r²)` with `i < j` and `r⃗ᵢⱼ = r⃗ᵢ − r⃗ⱼ` folded. This
    /// is the "conventional computer" kernel with Newton's third law.
    ///
    /// Falls back to an all-pairs scan when the grid is too coarse for
    /// exact cell search.
    pub fn for_each_half_pair<F>(&self, positions: &[Vec3], r_cut: f64, mut f: F)
    where
        F: FnMut(usize, usize, Vec3, f64),
    {
        let _span = mdm_profile::span("celllist_traverse");
        assert!(
            r_cut <= self.simbox.max_cutoff() + 1e-12,
            "r_cut {} exceeds minimum-image limit {}",
            r_cut,
            self.simbox.max_cutoff()
        );
        let r_cut_sq = r_cut * r_cut;
        if !self.supports_cutoff(r_cut) {
            for i in 0..positions.len() {
                for j in (i + 1)..positions.len() {
                    let d = self.simbox.min_image(positions[i], positions[j]);
                    let r2 = d.norm_sq();
                    if r2 <= r_cut_sq {
                        f(i, j, d, r2);
                    }
                }
            }
            return;
        }
        for c in 0..self.n_cells() {
            let center = self.particles_in(c);
            for (neighbor, shift) in self.neighbors27(c) {
                for &iu in center {
                    let i = iu as usize;
                    let ri = positions[i];
                    for &ju in self.particles_in(neighbor) {
                        let j = ju as usize;
                        if j <= i {
                            continue;
                        }
                        let d = ri - (positions[j] + shift);
                        let r2 = d.norm_sq();
                        if r2 <= r_cut_sq {
                            f(i, j, d, r2);
                        }
                    }
                }
            }
        }
    }

    /// Visit every **ordered** neighbour `(i, j)` pair over the full
    /// 27-cell blocks with **no cutoff filtering and no third-law
    /// halving** — the MDGRAPE-2 work pattern (the hardware "does not
    /// skip the force calculation even if the distance between two
    /// particles is larger than r_cut", §2.2). Self pairs (`i == j`)
    /// are skipped here; the hardware computes them too but their
    /// `r⃗ = 0` contribution vanishes.
    pub fn for_each_block_pair<F>(&self, positions: &[Vec3], mut f: F)
    where
        F: FnMut(usize, usize, Vec3, f64),
    {
        let _span = mdm_profile::span("celllist_traverse");
        for c in 0..self.n_cells() {
            let center = self.particles_in(c);
            for (neighbor, shift) in self.neighbors27(c) {
                for &iu in center {
                    let i = iu as usize;
                    let ri = positions[i];
                    for &ju in self.particles_in(neighbor) {
                        let j = ju as usize;
                        if i == j && shift == Vec3::ZERO {
                            continue;
                        }
                        let d = ri - (positions[j] + shift);
                        f(i, j, d, d.norm_sq());
                    }
                }
            }
        }
    }

    /// The 14 blocks of cell `c`'s half shell, in walk order: first
    /// `(c, 0)` — the cell's own pairs, taken triangularly — then the 13
    /// neighbour cells at a lexicographically positive offset (the upper
    /// half of [`Self::neighbors27`]). For `m ≥ 3` the 27 offsets reach
    /// 27 distinct cells, so a cross-cell pair `{c, nc}` sits at offset
    /// `o` in `c`'s table and `−o` in `nc`'s and is taken from exactly
    /// one side: over all cells the half shells visit every unordered
    /// block pair once. Every cell does the same neighbour work and
    /// touches no state but its own pairs, so cells can run in parallel
    /// with the order of the pairs *within* a cell fixed.
    ///
    /// # Panics
    /// Panics with fewer than 3 cells per side, where neighbour cells
    /// alias and the once-per-pair rule breaks down.
    pub fn half_shell(&self, c: usize) -> [(usize, Vec3); HALF_SHELL_BLOCKS] {
        assert!(
            self.m >= 3,
            "half-shell traversal needs >= 3 cells per side (have {})",
            self.m
        );
        // neighbors27 runs dz, dy, dx from −1 to 1: entry 13 is `c`
        // itself and entry 26 − w is the opposite of entry w.
        let at = self.coordinates(c);
        std::array::from_fn(|b| self.neighbor(at, 27 - HALF_SHELL_BLOCKS + b))
    }

    /// One block of cell `c`'s half shell (an entry of
    /// [`Self::half_shell`]): every pair `(i, j)` with `i` in `c` and `j`
    /// in the block whose `r²` is **not greater than** `r_cut_sq`, in walk
    /// order — `i` in cell order, then `j` in cell order (`j` after `i` in
    /// the cell's own block). They are handed out one `i` at a time:
    /// `row(i, js, r_sq)` for each `i` with a pair in range. `r²` is
    /// `|r⃗ᵢ − (r⃗ⱼ + shift)|²` summed `x, y, z` in that order, without
    /// fused multiply-adds, so its bits do not depend on the walk's form;
    /// the own block adds no shift. A NaN `r²` is kept, so a NaN position
    /// reaches whatever the caller computes from its pairs.
    ///
    /// The walk is portable or, on a CPU with AVX-512 F, eight `j` a
    /// register with the kept lanes compressed out; both hand out the
    /// same bits.
    pub fn in_range_pairs(
        &self,
        c: usize,
        block: (usize, Vec3),
        positions: &[Vec3],
        r_cut_sq: f64,
        scratch: &mut InRangePairs,
        row: impl FnMut(u32, &[u32], &[f64]),
    ) {
        let walk = if avx512_walk_available() {
            Walk::Avx512
        } else {
            Walk::Portable
        };
        self.in_range_pairs_with(walk, c, block, positions, r_cut_sq, scratch, row);
    }

    #[allow(clippy::too_many_arguments)]
    fn in_range_pairs_with(
        &self,
        walk: Walk,
        c: usize,
        (nc, shift): (usize, Vec3),
        positions: &[Vec3],
        r_cut_sq: f64,
        scratch: &mut InRangePairs,
        row: impl FnMut(u32, &[u32], &[f64]),
    ) {
        let center = self.particles_in(c);
        let js = self.particles_in(nc);
        if center.is_empty() || js.is_empty() {
            return;
        }
        let own = nc == c;
        scratch.load_block(js, positions, shift, own);
        match walk {
            Walk::Portable => walk_portable(center, js, positions, own, r_cut_sq, scratch, row),
            #[cfg(target_arch = "x86_64")]
            Walk::Avx512 => {
                assert!(avx512_walk_available(), "AVX-512 walk on a CPU without it");
                // SAFETY: the CPU runs AVX-512 F and POPCNT (checked
                // above).
                unsafe { avx512::walk(center, js, positions, own, r_cut_sq, scratch, row) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            Walk::Avx512 => unreachable!("no AVX-512 walk off x86-64"),
        }
    }

    /// The number of ordered block pairs the hardware pattern evaluates
    /// (per-particle average is the paper's `N_int_g`, eq. 6 — ≈13×
    /// larger than the conventional `N_int`).
    pub fn block_pair_count(&self) -> u64 {
        let mut total = 0u64;
        for c in 0..self.n_cells() {
            let center = self.particles_in(c).len() as u64;
            let mut block = 0u64;
            for (neighbor, _) in self.neighbors27(c) {
                block += self.particles_in(neighbor).len() as u64;
            }
            total += center * block;
        }
        total
    }
}

/// Blocks in a cell's half shell ([`CellList::half_shell`]): the cell
/// itself and 13 neighbours.
pub const HALF_SHELL_BLOCKS: usize = 14;

/// Slots past a row's last pair that the AVX-512 walk may write (it
/// stores whole registers; only the kept lanes count).
const WALK_SLACK: usize = 8;

/// Scratch for [`CellList::in_range_pairs`]: the block's `j` positions
/// and one `i`'s kept pairs. It grows only to the largest cell seen (plus
/// a register's slack), so a worker's scratch is bounded by the largest
/// cell, never by N.
#[derive(Clone, Debug, Default)]
pub struct InRangePairs {
    /// The block's `j` positions, shift added, one column per axis.
    jx: Vec<f64>,
    jy: Vec<f64>,
    jz: Vec<f64>,
    /// One row's pair columns; the walk hands out their first entries.
    j: Vec<u32>,
    r_sq: Vec<f64>,
}

impl InRangePairs {
    /// Copy the block's `j` positions into the columns — `r⃗ⱼ + shift`
    /// as the scalar walk formed it, `r⃗ⱼ` alone in the own block — and
    /// make the row columns at least `js.len() + WALK_SLACK` long (the
    /// two always have the same length: only this resizes them).
    fn load_block(&mut self, js: &[u32], positions: &[Vec3], shift: Vec3, own: bool) {
        let shift = if own { None } else { Some(shift) };
        self.jx.clear();
        self.jy.clear();
        self.jz.clear();
        for &ju in js {
            let p = positions[ju as usize];
            let p = shift.map_or(p, |shift| p + shift);
            self.jx.push(p.x);
            self.jy.push(p.y);
            self.jz.push(p.z);
        }
        let slots = js.len() + WALK_SLACK;
        if self.j.len() < slots {
            self.j.resize(slots, 0);
            self.r_sq.resize(slots, 0.0);
        }
    }
}

/// The two forms of the in-range walk (bitwise equal).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Walk {
    Portable,
    Avx512,
}

/// Runtime gate for the AVX-512 walk.
fn avx512_walk_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The portable walk: every pair of a row is written to the row's next
/// free slot, and the count advances only past the kept ones — no branch
/// on the cutoff.
fn walk_portable(
    center: &[u32],
    js: &[u32],
    positions: &[Vec3],
    own: bool,
    r_cut_sq: f64,
    scratch: &mut InRangePairs,
    mut row: impl FnMut(u32, &[u32], &[f64]),
) {
    let InRangePairs {
        jx,
        jy,
        jz,
        j,
        r_sq,
    } = scratch;
    for (a, &iu) in center.iter().enumerate() {
        let ri = positions[iu as usize];
        let from = if own { a + 1 } else { 0 };
        let mut n = 0;
        for b in from..js.len() {
            let (dx, dy, dz) = (ri.x - jx[b], ri.y - jy[b], ri.z - jz[b]);
            let d_sq = dx * dx + dy * dy + dz * dz;
            j[n] = js[b];
            r_sq[n] = d_sq;
            // Kept unless beyond the cutoff: a NaN r² is kept.
            let beyond = d_sq > r_cut_sq;
            n += usize::from(!beyond);
        }
        if n > 0 {
            row(iu, &j[..n], &r_sq[..n]);
        }
    }
}

/// The AVX-512 form of [`walk_portable`]: eight `j` a register, the
/// same subtractions, products and left-to-right sum per lane, and the
/// kept lanes compressed to the front of a register stored whole.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{InRangePairs, Vec3, WALK_SLACK};
    use std::arch::x86_64::*;

    /// # Safety
    /// The CPU must run AVX-512 F and POPCNT.
    #[target_feature(enable = "avx512f,popcnt")]
    pub(super) unsafe fn walk(
        center: &[u32],
        js: &[u32],
        positions: &[Vec3],
        own: bool,
        r_cut_sq: f64,
        scratch: &mut InRangePairs,
        mut row: impl FnMut(u32, &[u32], &[f64]),
    ) {
        let js_len = js.len();
        // The loads below read `b..js_len` of the position columns; the
        // stores write whole registers at `n ≤ js_len − 1`.
        assert!(scratch.jx.len() == js_len && scratch.jy.len() == js_len);
        assert!(scratch.jz.len() == js_len);
        assert!(scratch.j.len() >= js_len + WALK_SLACK);
        assert!(scratch.r_sq.len() >= js_len + WALK_SLACK);
        let (jx, jy, jz) = (
            scratch.jx.as_ptr(),
            scratch.jy.as_ptr(),
            scratch.jz.as_ptr(),
        );
        let (j_out, r_out) = (scratch.j.as_mut_ptr(), scratch.r_sq.as_mut_ptr());
        let cut = _mm512_set1_pd(r_cut_sq);
        for (a, &iu) in center.iter().enumerate() {
            let ri = positions[iu as usize];
            let (xi, yi, zi) = (
                _mm512_set1_pd(ri.x),
                _mm512_set1_pd(ri.y),
                _mm512_set1_pd(ri.z),
            );
            let mut b = if own { a + 1 } else { 0 };
            let mut n = 0usize;
            while b < js_len {
                let live: __mmask8 = if js_len - b >= 8 {
                    0xff
                } else {
                    (1u8 << (js_len - b)) - 1
                };
                // SAFETY (these loads and the `js` load below): masked-off
                // lanes are not read, and live lanes are `b..js_len`,
                // inside the columns and `js`.
                let dx = _mm512_sub_pd(xi, _mm512_maskz_loadu_pd(live, jx.add(b)));
                let dy = _mm512_sub_pd(yi, _mm512_maskz_loadu_pd(live, jy.add(b)));
                let dz = _mm512_sub_pd(zi, _mm512_maskz_loadu_pd(live, jz.add(b)));
                let d_sq = _mm512_add_pd(
                    _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)),
                    _mm512_mul_pd(dz, dz),
                );
                // Not greater than, unordered: a NaN r² is kept, as
                // `!(d_sq > r_cut_sq)` keeps it.
                let keep = _mm512_mask_cmp_pd_mask::<_CMP_NGT_UQ>(live, d_sq, cut);
                let j_lanes =
                    _mm512_maskz_loadu_epi32(__mmask16::from(live), js.as_ptr().add(b).cast());
                // SAFETY (both stores): `n ≤ b < js_len`, so a whole
                // register at `n` ends before `js_len + WALK_SLACK`,
                // inside both row columns (asserted above).
                _mm512_storeu_pd(r_out.add(n), _mm512_maskz_compress_pd(keep, d_sq));
                _mm256_storeu_si256(
                    j_out.add(n).cast(),
                    _mm512_castsi512_si256(_mm512_maskz_compress_epi32(
                        __mmask16::from(keep),
                        j_lanes,
                    )),
                );
                n += keep.count_ones() as usize;
                b += 8;
            }
            if n > 0 {
                // SAFETY: the stores above wrote entries `0..n` of both
                // row columns, and nothing writes them while the row
                // callback reads.
                let (row_j, row_r_sq) = (
                    std::slice::from_raw_parts(j_out, n),
                    std::slice::from_raw_parts(r_out, n),
                );
                row(iu, row_j, row_r_sq);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_positions(n: usize, l: f64, seed: u64) -> (SimBox, Vec<Vec3>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let b = SimBox::cubic(l);
        let pos = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        (b, pos)
    }

    #[test]
    fn every_particle_in_exactly_one_cell() {
        let (b, pos) = random_positions(500, 20.0, 1);
        let cl = CellList::build(b, &pos, 4.0);
        assert_eq!(cl.cells_per_side(), 5);
        let mut seen = vec![false; pos.len()];
        for c in 0..cl.n_cells() {
            for &i in cl.particles_in(c) {
                assert!(!seen[i as usize], "particle {i} in two cells");
                seen[i as usize] = true;
                assert_eq!(cl.cell_of(i as usize), c);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn half_pairs_match_brute_force() {
        let (b, pos) = random_positions(300, 18.0, 2);
        let r_cut = 4.5;
        let cl = CellList::build(b, &pos, r_cut);
        let mut from_cells = std::collections::BTreeSet::new();
        cl.for_each_half_pair(&pos, r_cut, |i, j, _d, _r2| {
            assert!(i < j);
            assert!(from_cells.insert((i, j)), "pair ({i},{j}) visited twice");
        });
        let mut brute = std::collections::BTreeSet::new();
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                if b.dist_sq(pos[i], pos[j]) <= r_cut * r_cut {
                    brute.insert((i, j));
                }
            }
        }
        assert_eq!(from_cells, brute);
    }

    #[test]
    fn half_pair_displacement_is_minimum_image() {
        let (b, pos) = random_positions(200, 15.0, 3);
        let cl = CellList::build(b, &pos, 5.0);
        cl.for_each_half_pair(&pos, 5.0, |i, j, d, r2| {
            let mi = b.min_image(pos[i], pos[j]);
            assert!((d - mi).norm() < 1e-12, "pair ({i},{j})");
            assert!((r2 - mi.norm_sq()).abs() < 1e-12);
        });
    }

    #[test]
    fn coarse_grid_fallback_still_exact() {
        // L/min_cell < 3 → brute-force fallback path.
        let (b, pos) = random_positions(60, 10.0, 4);
        let cl = CellList::build(b, &pos, 4.0); // m = 2
        assert!(!cl.supports_cutoff(4.0));
        let mut count = 0;
        cl.for_each_half_pair(&pos, 4.0, |_, _, _, _| count += 1);
        let mut brute = 0;
        for i in 0..pos.len() {
            for j in (i + 1)..pos.len() {
                if b.dist_sq(pos[i], pos[j]) <= 16.0 {
                    brute += 1;
                }
            }
        }
        assert_eq!(count, brute);
    }

    #[test]
    fn block_pairs_cover_all_cutoff_pairs_both_directions() {
        let (b, pos) = random_positions(250, 16.0, 5);
        let r_cut = 4.0;
        let cl = CellList::build(b, &pos, r_cut);
        let mut ordered = std::collections::BTreeSet::new();
        cl.for_each_block_pair(&pos, |i, j, _d, r2| {
            if r2 <= r_cut * r_cut {
                ordered.insert((i, j));
            }
        });
        for i in 0..pos.len() {
            for j in 0..pos.len() {
                if i != j && b.dist_sq(pos[i], pos[j]) <= r_cut * r_cut {
                    assert!(ordered.contains(&(i, j)), "missing ordered pair ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn block_pair_count_matches_iteration() {
        let (b, pos) = random_positions(200, 16.0, 6);
        let cl = CellList::build(b, &pos, 4.0);
        let mut n = 0u64;
        cl.for_each_block_pair(&pos, |_, _, _, _| n += 1);
        // for_each_block_pair skips self pairs; the count formula includes
        // them (that is what the hardware does), so they differ by N.
        assert_eq!(cl.block_pair_count(), n + pos.len() as u64);
    }

    #[test]
    fn block_pair_inflation_factor_near_13() {
        // Paper §2.2: N_int_g ≈ 13.5 × N_int (27/2 up to boundary effects)
        // for a uniform system with cell ≈ r_cut.
        let (b, pos) = random_positions(4000, 40.0, 7);
        let r_cut = 5.0;
        let cl = CellList::build(b, &pos, r_cut);
        let n = pos.len() as f64;
        // Paper conventions: N_int = unique-pairs/N (eq. 5, third law),
        // N_int_g = ordered-block-pairs/N (eq. 6).
        let n_int_g = cl.block_pair_count() as f64 / n;
        let mut half = 0u64;
        cl.for_each_half_pair(&pos, r_cut, |_, _, _, _| half += 1);
        let n_int = half as f64 / n;
        let ratio = n_int_g / n_int;
        // Expected: 27·c³ / ((2π/3)·r_cut³) ≈ 12.9 at c = r_cut — the
        // paper's "about 13 times larger".
        let c = cl.cell_size();
        let expect = 27.0 * c.powi(3) / (2.0 * std::f64::consts::PI / 3.0 * r_cut.powi(3));
        assert!(
            (ratio / expect - 1.0).abs() < 0.1,
            "ratio {ratio}, expect {expect}"
        );
        assert!((11.0..16.0).contains(&ratio), "paper says ~13x, got {ratio}");
    }

    #[test]
    fn rebuild_unchanged_when_no_cell_crossing() {
        let (b, mut pos) = random_positions(200, 16.0, 9);
        let mut cl = CellList::build(b, &pos, 4.0);
        let before_order = cl.sorted_order().to_vec();
        // Nudge every particle by far less than a cell edge.
        for p in &mut pos {
            p.x += 1e-9;
        }
        assert_eq!(cl.rebuild(&pos), CellListRefresh::Unchanged);
        assert_eq!(cl.sorted_order(), &before_order[..]);
    }

    #[test]
    fn rebuild_matches_from_scratch_build() {
        let (b, mut pos) = random_positions(300, 18.0, 10);
        let mut cl = CellList::build(b, &pos, 4.5);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for step in 0..5 {
            for p in &mut pos {
                *p += Vec3::new(
                    (rng.gen::<f64>() - 0.5) * 3.0,
                    (rng.gen::<f64>() - 0.5) * 3.0,
                    (rng.gen::<f64>() - 0.5) * 3.0,
                );
            }
            let refresh = cl.rebuild(&pos);
            let fresh = CellList::build(b, &pos, 4.5);
            assert_eq!(cl.sorted_order(), fresh.sorted_order(), "step {step}");
            assert_eq!(cl.cell_ranges(), fresh.cell_ranges(), "step {step}");
            for i in 0..pos.len() {
                assert_eq!(cl.cell_of(i), fresh.cell_of(i), "step {step}");
            }
            // 1.5 Å max displacement against a 4.5+ Å cell: some particle
            // crosses a boundary essentially surely.
            assert_eq!(refresh, CellListRefresh::Resorted, "step {step}");
        }
    }

    #[test]
    fn rebuild_handles_particle_count_change() {
        let (b, pos) = random_positions(120, 15.0, 12);
        let mut cl = CellList::build(b, &pos, 5.0);
        let shorter = &pos[..80];
        assert_eq!(cl.rebuild(shorter), CellListRefresh::Resorted);
        assert_eq!(cl.len(), 80);
        let fresh = CellList::build(b, shorter, 5.0);
        assert_eq!(cl.sorted_order(), fresh.sorted_order());
        assert_eq!(cl.cell_ranges(), fresh.cell_ranges());
    }

    /// Every half-shell block of every cell through `walk`, as
    /// `(i, j, r²)` in walk order.
    fn half_shell_pairs(
        cl: &CellList,
        walk: Walk,
        pos: &[Vec3],
        r_cut_sq: f64,
    ) -> Vec<(u32, u32, u64)> {
        let mut scratch = InRangePairs::default();
        let mut all = Vec::new();
        for c in 0..cl.n_cells() {
            for block in cl.half_shell(c) {
                let row = |i, js: &[u32], r_sq: &[f64]| {
                    all.extend(js.iter().zip(r_sq).map(|(&j, r2)| (i, j, r2.to_bits())));
                };
                cl.in_range_pairs_with(walk, c, block, pos, r_cut_sq, &mut scratch, row);
            }
        }
        all
    }

    #[test]
    fn half_shell_visits_every_unordered_block_pair_once() {
        let (b, pos) = random_positions(250, 16.0, 13);
        let cl = CellList::build(b, &pos, 4.0);
        let mut ordered = std::collections::BTreeSet::new();
        cl.for_each_block_pair(&pos, |i, j, _d, _r2| {
            ordered.insert((i, j));
        });
        // An infinite cutoff keeps every block pair.
        let mut unordered = std::collections::BTreeSet::new();
        for (i, j, _) in half_shell_pairs(&cl, Walk::Portable, &pos, f64::INFINITY) {
            let (i, j) = (i as usize, j as usize);
            assert_ne!(i, j);
            assert!(
                unordered.insert((i.min(j), i.max(j))),
                "pair ({i},{j}) visited twice"
            );
        }
        // Every ordered pair appears as exactly one unordered pair.
        assert_eq!(ordered.len(), 2 * unordered.len());
        for &(i, j) in &ordered {
            assert!(unordered.contains(&(i.min(j), i.max(j))));
        }
    }

    #[test]
    fn in_range_pairs_are_the_half_shell_pairs_within_the_cutoff() {
        let (b, pos) = random_positions(300, 18.0, 15);
        let r_cut = 4.5;
        let cl = CellList::build(b, &pos, r_cut);
        let r_cut_sq = r_cut * r_cut;
        // The walk as `Vec3` arithmetic: the own cell triangularly with
        // no shift, then each upper neighbour, i-major.
        let mut want = Vec::new();
        for c in 0..cl.n_cells() {
            let center = cl.particles_in(c);
            for (a, &i) in center.iter().enumerate() {
                for &j in &center[a + 1..] {
                    want.push((i, j, (pos[i as usize] - pos[j as usize]).norm_sq()));
                }
            }
            for &(nc, shift) in &cl.neighbors27(c)[14..] {
                for &i in center {
                    for &j in cl.particles_in(nc) {
                        let d = pos[i as usize] - (pos[j as usize] + shift);
                        want.push((i, j, d.norm_sq()));
                    }
                }
            }
        }
        want.retain(|&(_, _, r2)| r2 <= r_cut_sq);
        let want: Vec<_> = want
            .into_iter()
            .map(|(i, j, r2)| (i, j, r2.to_bits()))
            .collect();
        let kept = half_shell_pairs(&cl, Walk::Portable, &pos, r_cut_sq);
        assert_eq!(kept, want);
        // The same set the cutoff walk with the third law finds.
        let mut half = std::collections::BTreeSet::new();
        cl.for_each_half_pair(&pos, r_cut, |i, j, _, _| {
            half.insert((i, j));
        });
        let from_shell: std::collections::BTreeSet<_> = kept
            .iter()
            .map(|&(i, j, _)| ((i.min(j)) as usize, (i.max(j)) as usize))
            .collect();
        assert_eq!(from_shell, half);
    }

    #[test]
    fn in_range_walks_agree_bit_for_bit() {
        if !avx512_walk_available() {
            eprintln!("skipped: this CPU has no AVX-512 F, only the portable walk runs");
            return;
        }
        // Uniform clouds at one, a few and ~60 j per block (every tail
        // length of an eight-lane register), a cutoff right at a pair's
        // r², and NaN, infinite and huge coordinates.
        for (n, l, seed) in [(30, 12.0, 21), (250, 16.0, 22), (1700, 13.0, 23)] {
            let (b, mut pos) = random_positions(n, l, seed);
            if n == 250 {
                pos[3].x = f64::NAN;
                pos[17].y = f64::INFINITY;
                pos[40].z = -1e300;
                pos[41] = pos[42];
            }
            let cl = CellList::build(b, &pos, 4.0);
            let exact =
                f64::from_bits(half_shell_pairs(&cl, Walk::Portable, &pos, f64::INFINITY)[7].2);
            for r_cut_sq in [0.0, 4.0, exact, 16.0, f64::INFINITY, f64::NAN] {
                let portable = half_shell_pairs(&cl, Walk::Portable, &pos, r_cut_sq);
                let simd = half_shell_pairs(&cl, Walk::Avx512, &pos, r_cut_sq);
                assert_eq!(portable, simd, "n {n}, r_cut² {r_cut_sq}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn half_shell_rejects_coarse_grid() {
        let (b, pos) = random_positions(40, 10.0, 14);
        let cl = CellList::build(b, &pos, 4.0); // m = 2
        cl.half_shell(0);
    }

    #[test]
    fn neighbors27_shifts_are_consistent() {
        let (b, pos) = random_positions(100, 12.0, 8);
        let cl = CellList::build(b, &pos, 4.0); // m = 3
        for c in 0..cl.n_cells() {
            let neighbors = cl.neighbors27(c);
            assert_eq!(neighbors.len(), 27);
            for (nc, shift) in neighbors {
                assert!(nc < cl.n_cells());
                for comp in [shift.x, shift.y, shift.z] {
                    assert!(comp == 0.0 || comp == 12.0 || comp == -12.0);
                }
            }
        }
    }
}
