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
        let m = self.m as i64;
        let ix = (c % self.m) as i64;
        let iy = ((c / self.m) % self.m) as i64;
        let iz = (c / (self.m * self.m)) as i64;
        let l = self.simbox.l();
        let mut out = [(0usize, Vec3::ZERO); 27];
        let mut w = 0;
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    let (jx, jy, jz) = (ix + dx, iy + dy, iz + dz);
                    let wrap = |v: i64| -> (i64, f64) {
                        if v < 0 {
                            (v + m, -l)
                        } else if v >= m {
                            (v - m, l)
                        } else {
                            (v, 0.0)
                        }
                    };
                    let (cx, sx) = wrap(jx);
                    let (cy, sy) = wrap(jy);
                    let (cz, sz) = wrap(jz);
                    out[w] = (
                        ((cz * m + cy) * m + cx) as usize,
                        Vec3::new(sx, sy, sz),
                    );
                    w += 1;
                }
            }
        }
        out
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

    /// Visit every **unordered** block pair exactly once — the software
    /// Newton's-third-law fast path over the *same* 27-cell blocks as
    /// [`Self::for_each_block_pair`] (still no cutoff filtering: cell
    /// membership, not distance, defines the interaction set, exactly as
    /// on the hardware). `f(i, j, r⃗ᵢⱼ, r²)` fires once per pair; the
    /// caller applies `±f⃗`. Cells are walked in index order, each through
    /// [`Self::for_each_block_pair_n3l_in_cell`].
    ///
    /// # Panics
    /// Panics with fewer than 3 cells per side, where neighbour cells
    /// alias and the once-per-pair rule breaks down.
    pub fn for_each_block_pair_n3l<F>(&self, positions: &[Vec3], mut f: F)
    where
        F: FnMut(usize, usize, Vec3, f64),
    {
        let _span = mdm_profile::span("celllist_traverse");
        for c in 0..self.n_cells() {
            self.for_each_block_pair_n3l_in_cell(c, positions, &mut f);
        }
    }

    /// Cell `c`'s share of [`Self::for_each_block_pair_n3l`]: its
    /// same-cell pairs, enumerated triangularly, then every pair with
    /// `i` in `c` and `j` in one of the 13 neighbour cells at a
    /// lexicographically positive offset (the upper half of
    /// [`Self::neighbors27`]). For `m ≥ 3` the 27 offsets reach 27
    /// distinct cells, so a cross-cell pair `{c, nc}` sits at offset `o`
    /// in `c`'s table and `−o` in `nc`'s and is taken from exactly one
    /// side. Every cell does the same amount of neighbour work and
    /// touches no state but its own pairs, so cells can run in parallel
    /// with the order of the pairs *within* a cell fixed.
    ///
    /// # Panics
    /// Panics with fewer than 3 cells per side.
    pub fn for_each_block_pair_n3l_in_cell<F>(&self, c: usize, positions: &[Vec3], mut f: F)
    where
        F: FnMut(usize, usize, Vec3, f64),
    {
        assert!(
            self.m >= 3,
            "N3L block traversal needs >= 3 cells per side (have {})",
            self.m
        );
        let center = self.particles_in(c);
        for (a, &iu) in center.iter().enumerate() {
            let i = iu as usize;
            let ri = positions[i];
            for &ju in &center[a + 1..] {
                let j = ju as usize;
                let d = ri - positions[j];
                f(i, j, d, d.norm_sq());
            }
        }
        // neighbors27 runs dz, dy, dx from −1 to 1: entry 13 is `c`
        // itself and entry 26 − w is the opposite of entry w.
        for &(neighbor, shift) in &self.neighbors27(c)[14..] {
            for &iu in center {
                let i = iu as usize;
                let ri = positions[i];
                for &ju in self.particles_in(neighbor) {
                    let j = ju as usize;
                    let d = ri - (positions[j] + shift);
                    f(i, j, d, d.norm_sq());
                }
            }
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

    #[test]
    fn n3l_block_pairs_are_the_block_pairs_halved() {
        let (b, pos) = random_positions(250, 16.0, 13);
        let cl = CellList::build(b, &pos, 4.0);
        let mut ordered = std::collections::BTreeSet::new();
        cl.for_each_block_pair(&pos, |i, j, _d, _r2| {
            ordered.insert((i, j));
        });
        let mut unordered = std::collections::BTreeMap::new();
        cl.for_each_block_pair_n3l(&pos, |i, j, d, r2| {
            assert_ne!(i, j);
            assert!(
                unordered.insert((i.min(j), i.max(j)), (d, r2)).is_none(),
                "pair ({i},{j}) visited twice"
            );
        });
        // Every ordered pair appears as exactly one unordered pair.
        assert_eq!(ordered.len(), 2 * unordered.len());
        for &(i, j) in &ordered {
            assert!(unordered.contains_key(&(i.min(j), i.max(j))));
        }
    }

    #[test]
    #[should_panic]
    fn n3l_traversal_rejects_coarse_grid() {
        let (b, pos) = random_positions(40, 10.0, 14);
        let cl = CellList::build(b, &pos, 4.0); // m = 2
        cl.for_each_block_pair_n3l(&pos, |_, _, _, _| {});
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
