//! The j-particle image the host uploads to MDGRAPE-2 particle memory.
//!
//! The board expects (paper §3.5.2 / eqs. 7–8):
//!
//! * particles **bucket-sorted by cell** so indices within a cell are
//!   contiguous (the cell memory stores `(jstart, jend)` per cell);
//! * single-precision positions (the memory is 8 MB of SSRAM);
//! * for boundary cells, the host's 27-neighbour table carries the
//!   periodic image shift — the hardware itself knows nothing about
//!   periodicity.
//!
//! # Storage layout
//!
//! Positions are held as **structure-of-arrays** (`xs[]`/`ys[]`/`zs[]`
//! plus a `types[]` column): the board streams whole j-cells, and a flat
//! per-component slice per cell is what lets the distance loop vectorize
//! instead of gathering `[f32; 3]` records. [`JStore::cell_columns`]
//! hands a cell out in exactly that form.
//!
//! # Reuse across steps
//!
//! A `JStore` embeds its [`CellList`] and can be [refreshed][JStore::refresh]
//! in place between steps instead of rebuilt: the common case (no
//! particle crossed a cell boundary) rewrites only the position columns,
//! and even a re-sort reuses every buffer and never re-derives the
//! neighbour tables (cell geometry does not depend on positions). The
//! refreshed store is **bit-identical** to a from-scratch build at the
//! same positions — the counting sort underneath is stable — which a
//! 100-step trajectory test pins.
//!
//! Telemetry distinguishes the paths: `jstore_builds` counts full
//! builds only; `jstore_refreshes` counts in-place refreshes, of which
//! `jstore_resorts` needed a re-sort.

use mdm_core::boxsim::SimBox;
use mdm_core::celllist::{CellList, CellListRefresh};
use mdm_core::vec3::Vec3;

/// One j-cell as the pipelines consume it: per-component position
/// columns plus the species column, all the same length and indexed by
/// in-cell slot.
#[derive(Clone, Copy, Debug)]
pub struct JCellColumns<'a> {
    /// x components (f32, as stored in particle memory).
    pub xs: &'a [f32],
    /// y components.
    pub ys: &'a [f32],
    /// z components.
    pub zs: &'a [f32],
    /// Species index per slot.
    pub types: &'a [u8],
}

impl JCellColumns<'_> {
    /// Particles in the cell.
    #[inline]
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Is the cell empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }
}

/// What [`JStore::refresh`] had to do to bring the store up to date.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JStoreRefresh {
    /// No particle changed cell: only the position columns were
    /// rewritten (the per-step position upload the real host does
    /// anyway).
    InPlace,
    /// Some particle crossed a cell boundary: the bucket sort re-ran in
    /// the existing buffers; neighbour tables untouched.
    Resorted,
    /// The grid itself changed (box size or cell count): full rebuild.
    Rebuilt,
}

/// The uploaded, cell-sorted j-particle image plus the cell tables the
/// board's dual index counters walk.
#[derive(Clone, Debug)]
pub struct JStore {
    /// The embedded cell list: sort order, cell ranges, per-particle
    /// cells. Kept so the store can refresh incrementally.
    cells: CellList,
    /// f32 x positions, sorted by cell (SoA; see module docs).
    xs: Vec<f32>,
    /// f32 y positions, sorted by cell.
    ys: Vec<f32>,
    /// f32 z positions, sorted by cell.
    zs: Vec<f32>,
    /// Species index per sorted slot.
    types: Vec<u8>,
    /// Sorted slot of each original particle (inverse of
    /// `cells.sorted_order()`), used for O(1) self-pair skips.
    slot_of_original: Vec<u32>,
    /// Per cell: the 27 `(cell, shift)` neighbour entries, with the
    /// shift in f32 (what the host writes into the neighbour table).
    neighbors: Vec<[(u32, [f32; 3]); 27]>,
}

impl JStore {
    /// Build from a configuration. `min_cell` is the cell edge lower
    /// bound ("a little larger than r_cut", §2.2).
    ///
    /// Requires at least 3 cells per side — the hardware cell-index
    /// method needs distinct neighbour cells. For smaller boxes the
    /// caller should enlarge `min_cell`'s box or fall back to software.
    pub fn build(simbox: SimBox, positions: &[Vec3], types: &[u8], min_cell: f64) -> Self {
        assert_eq!(positions.len(), types.len());
        let _span = mdm_profile::span("jstore_build");
        let cl = CellList::build(simbox, positions, min_cell);
        assert!(
            cl.cells_per_side() >= 3,
            "cell-index hardware needs >= 3 cells per side (box {} / cell {})",
            simbox.l(),
            min_cell
        );
        let neighbors = (0..cl.n_cells())
            .map(|c| {
                let mut row = [(0u32, [0f32; 3]); 27];
                for (k, (nc, shift)) in cl.neighbors27(c).into_iter().enumerate() {
                    row[k] = (nc as u32, [shift.x as f32, shift.y as f32, shift.z as f32]);
                }
                row
            })
            .collect();
        let mut store = Self {
            cells: cl,
            xs: Vec::new(),
            ys: Vec::new(),
            zs: Vec::new(),
            types: Vec::new(),
            slot_of_original: Vec::new(),
            neighbors,
        };
        store.sync_sorted(positions, types);
        // Occupancy telemetry: the board walks whole cells, so one
        // overfull cell sets the worst-case block length (and a wildly
        // uneven histogram means the cell edge is mis-sized for the
        // density).
        mdm_profile::counter("jstore_builds", 1);
        mdm_profile::counter("jstore_upload_bytes", store.upload_bytes());
        mdm_profile::counter_max(
            "jstore_cell_occupancy_max",
            store.max_cell_occupancy() as u64,
        );
        store
    }

    /// Bring the store up to date with moved `positions` without
    /// rebuilding it, and say what that took (see [`JStoreRefresh`]).
    ///
    /// The result is bit-identical to
    /// `JStore::build(simbox, positions, types, min_cell)` — the
    /// contract the incremental-trajectory equivalence test pins — but
    /// the common per-step cost drops to one O(N) cell re-derivation
    /// plus the position-column rewrite. A changed box or a `min_cell`
    /// implying a different grid falls back to a full rebuild (and
    /// counts as one in `jstore_builds`).
    pub fn refresh(
        &mut self,
        simbox: SimBox,
        positions: &[Vec3],
        types: &[u8],
        min_cell: f64,
    ) -> JStoreRefresh {
        assert_eq!(positions.len(), types.len());
        let l = simbox.l();
        let m = ((l / min_cell).floor() as usize).max(1);
        if self.cells.simbox() != simbox || m != self.cells.cells_per_side() {
            *self = Self::build(simbox, positions, types, min_cell);
            return JStoreRefresh::Rebuilt;
        }
        let _span = mdm_profile::span("jstore_build");
        let outcome = self.cells.rebuild(positions);
        self.sync_sorted(positions, types);
        mdm_profile::counter("jstore_refreshes", 1);
        mdm_profile::counter("jstore_upload_bytes", self.upload_bytes());
        match outcome {
            CellListRefresh::Unchanged => JStoreRefresh::InPlace,
            CellListRefresh::Resorted => {
                mdm_profile::counter("jstore_resorts", 1);
                mdm_profile::counter_max(
                    "jstore_cell_occupancy_max",
                    self.max_cell_occupancy() as u64,
                );
                JStoreRefresh::Resorted
            }
        }
    }

    /// Rewrite the sorted SoA columns and the inverse permutation from
    /// the (already up-to-date) embedded cell list.
    fn sync_sorted(&mut self, positions: &[Vec3], types: &[u8]) {
        let order = self.cells.sorted_order();
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        self.types.clear();
        for &i in order {
            let p = positions[i as usize];
            self.xs.push(p.x as f32);
            self.ys.push(p.y as f32);
            self.zs.push(p.z as f32);
            self.types.push(types[i as usize]);
        }
        self.slot_of_original.resize(order.len(), 0);
        for (s, &i) in order.iter().enumerate() {
            self.slot_of_original[i as usize] = s as u32;
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.cells.n_cells()
    }

    /// The embedded cell list — the grid, sort order and cell ranges the
    /// board's index counters walk, for host-side reductions over the
    /// same block-pair set.
    pub fn cells(&self) -> &CellList {
        &self.cells
    }

    /// The cell edge (Å).
    pub fn cell_size(&self) -> f64 {
        self.cells.cell_size()
    }

    /// Sorted-slot range of cell `c`.
    #[inline]
    pub fn cell_range(&self, c: usize) -> std::ops::Range<usize> {
        let ranges = self.cells.cell_ranges();
        ranges[c] as usize..ranges[c + 1] as usize
    }

    /// The SoA position/species columns of cell `c` — what the board
    /// streams through a pipeline in one batch.
    #[inline]
    pub fn cell_columns(&self, c: usize) -> JCellColumns<'_> {
        self.slot_columns(self.cell_range(c))
    }

    /// The SoA columns of a run of sorted slots — a cell's, or a tile's
    /// i-particles.
    #[inline]
    pub(crate) fn slot_columns(&self, r: std::ops::Range<usize>) -> JCellColumns<'_> {
        JCellColumns {
            xs: &self.xs[r.clone()],
            ys: &self.ys[r.clone()],
            zs: &self.zs[r.clone()],
            types: &self.types[r],
        }
    }

    /// The 27 neighbour `(cell, shift)` entries of cell `c`.
    #[inline]
    pub fn neighbors27(&self, c: usize) -> &[(u32, [f32; 3]); 27] {
        &self.neighbors[c]
    }

    /// f32 position of sorted slot `s`.
    #[inline]
    pub fn position(&self, s: usize) -> [f32; 3] {
        [self.xs[s], self.ys[s], self.zs[s]]
    }

    /// Species of sorted slot `s`.
    #[inline]
    pub fn species(&self, s: usize) -> u8 {
        self.types[s]
    }

    /// The whole slot-ordered species column — what the board gathers
    /// per-i-type coefficient columns from, once per pass.
    #[inline]
    pub fn types(&self) -> &[u8] {
        &self.types
    }

    /// Original index of sorted slot `s`.
    #[inline]
    pub fn original_index(&self, s: usize) -> usize {
        self.cells.sorted_order()[s] as usize
    }

    /// Sorted slot of original particle `i` (inverse of
    /// [`Self::original_index`]) — how the driver skips the self pair in
    /// O(1) per i-particle instead of a compare per streamed j.
    #[inline]
    pub fn slot_of_original(&self, i: usize) -> usize {
        self.slot_of_original[i] as usize
    }

    /// Cell of original particle `i`.
    #[inline]
    pub fn cell_of(&self, i: usize) -> usize {
        self.cells.cell_of(i)
    }

    /// Upload size in bytes (16 B per particle + 8 B per cell-range
    /// entry), for bus accounting.
    pub fn upload_bytes(&self) -> u64 {
        (self.len() * 16 + self.cells.cell_ranges().len() * 8) as u64
    }

    /// Particles in the fullest cell (0 for an empty store). The board
    /// streams j-cells whole, so this is the hardware's worst-case
    /// inner-block length; it is also the `jstore_cell_occupancy_max`
    /// telemetry counter.
    pub fn max_cell_occupancy(&self) -> usize {
        (0..self.n_cells())
            .map(|c| self.cell_range(c).len())
            .max()
            .unwrap_or(0)
    }

    /// Mean particles per cell.
    pub fn mean_cell_occupancy(&self) -> f64 {
        if self.n_cells() == 0 {
            return 0.0;
        }
        self.len() as f64 / self.n_cells() as f64
    }

    /// Total ordered block pairs the hardware will evaluate (the
    /// `N·N_int_g` of eq. 6, self pairs excluded as the driver skips
    /// them).
    pub fn block_pair_count(&self) -> u64 {
        let mut total = 0u64;
        for c in 0..self.n_cells() {
            let center = self.cell_range(c).len() as u64;
            let mut block = 0u64;
            for (nc, _) in self.neighbors27(c) {
                block += self.cell_range(*nc as usize).len() as u64;
            }
            total += center * block;
        }
        total - self.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize, l: f64) -> (SimBox, Vec<Vec3>, Vec<u8>) {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let b = SimBox::cubic(l);
        let pos = (0..n)
            .map(|_| Vec3::new(rng.gen::<f64>() * l, rng.gen::<f64>() * l, rng.gen::<f64>() * l))
            .collect();
        let ty = (0..n).map(|i| (i % 2) as u8).collect();
        (b, pos, ty)
    }

    #[test]
    fn slots_cover_all_particles_once() {
        let (b, pos, ty) = setup(200, 18.0);
        let js = JStore::build(b, &pos, &ty, 4.5);
        assert_eq!(js.len(), 200);
        let mut seen = [false; 200];
        for s in 0..js.len() {
            let o = js.original_index(s);
            assert!(!seen[o]);
            seen[o] = true;
            assert_eq!(js.species(s), ty[o]);
            assert_eq!(js.slot_of_original(o), s);
        }
    }

    #[test]
    fn cell_ranges_are_contiguous_partition() {
        let (b, pos, ty) = setup(150, 15.0);
        let js = JStore::build(b, &pos, &ty, 5.0);
        let mut total = 0;
        for c in 0..js.n_cells() {
            total += js.cell_range(c).len();
        }
        assert_eq!(total, 150);
    }

    #[test]
    fn positions_quantized_to_f32() {
        let (b, pos, ty) = setup(50, 12.0);
        let js = JStore::build(b, &pos, &ty, 4.0);
        for s in 0..js.len() {
            let o = js.original_index(s);
            let p32 = js.position(s);
            assert_eq!(p32[0], pos[o].x as f32);
        }
    }

    #[test]
    fn cell_columns_match_slot_accessors() {
        let (b, pos, ty) = setup(180, 16.0);
        let js = JStore::build(b, &pos, &ty, 4.0);
        for c in 0..js.n_cells() {
            let cols = js.cell_columns(c);
            let range = js.cell_range(c);
            assert_eq!(cols.len(), range.len());
            for (k, s) in range.enumerate() {
                assert_eq!(
                    [cols.xs[k], cols.ys[k], cols.zs[k]],
                    js.position(s),
                    "cell {c} slot {k}"
                );
                assert_eq!(cols.types[k], js.species(s));
            }
        }
    }

    #[test]
    #[should_panic]
    fn too_coarse_grid_panics() {
        let (b, pos, ty) = setup(20, 10.0);
        JStore::build(b, &pos, &ty, 4.0); // 2 cells per side
    }

    #[test]
    fn block_pair_count_matches_celllist() {
        let (b, pos, ty) = setup(300, 20.0);
        let js = JStore::build(b, &pos, &ty, 5.0);
        let cl = CellList::build(b, &pos, 5.0);
        assert_eq!(js.block_pair_count(), cl.block_pair_count() - 300);
    }

    #[test]
    fn refresh_in_place_when_no_cell_crossing() {
        let (b, mut pos, ty) = setup(150, 15.0);
        let mut js = JStore::build(b, &pos, &ty, 5.0);
        for p in &mut pos {
            p.y += 1e-9;
        }
        assert_eq!(js.refresh(b, &pos, &ty, 5.0), JStoreRefresh::InPlace);
        let fresh = JStore::build(b, &pos, &ty, 5.0);
        for s in 0..js.len() {
            assert_eq!(js.position(s), fresh.position(s));
            assert_eq!(js.original_index(s), fresh.original_index(s));
        }
    }

    #[test]
    fn refresh_matches_from_scratch_build_after_crossings() {
        let (b, mut pos, ty) = setup(250, 18.0);
        let mut js = JStore::build(b, &pos, &ty, 4.5);
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mut saw_resort = false;
        for _ in 0..5 {
            for p in &mut pos {
                *p += Vec3::new(
                    (rng.gen::<f64>() - 0.5) * 4.0,
                    (rng.gen::<f64>() - 0.5) * 4.0,
                    (rng.gen::<f64>() - 0.5) * 4.0,
                );
            }
            saw_resort |= js.refresh(b, &pos, &ty, 4.5) == JStoreRefresh::Resorted;
            let fresh = JStore::build(b, &pos, &ty, 4.5);
            assert_eq!(js.len(), fresh.len());
            for s in 0..js.len() {
                assert_eq!(js.position(s), fresh.position(s));
                assert_eq!(js.species(s), fresh.species(s));
                assert_eq!(js.original_index(s), fresh.original_index(s));
            }
            for c in 0..js.n_cells() {
                assert_eq!(js.cell_range(c), fresh.cell_range(c));
            }
        }
        assert!(saw_resort, "2 Å kicks against a 4.5 Å cell must resort");
    }

    #[test]
    fn refresh_rebuilds_on_grid_change() {
        let (b, pos, ty) = setup(150, 15.0);
        let mut js = JStore::build(b, &pos, &ty, 5.0);
        // A finer grid request changes m: full rebuild.
        assert_eq!(js.refresh(b, &pos, &ty, 3.0), JStoreRefresh::Rebuilt);
        assert_eq!(js.n_cells(), 125);
    }

    #[test]
    fn refresh_counters_distinguish_paths() {
        let (b, mut pos, ty) = setup(100, 15.0);
        let mut js = JStore::build(b, &pos, &ty, 5.0);
        let _scope = mdm_profile::scope();
        for p in &mut pos {
            p.x += 1e-9;
        }
        js.refresh(b, &pos, &ty, 5.0);
        let profile = mdm_profile::take();
        // An in-place refresh counts as a refresh, not a build.
        assert_eq!(profile.counters["jstore_refreshes"], 1);
        assert!(!profile.counters.contains_key("jstore_builds"));
    }

    #[test]
    fn occupancy_statistics() {
        let (b, pos, ty) = setup(300, 20.0);
        let _scope = mdm_profile::scope();
        let js = JStore::build(b, &pos, &ty, 5.0);
        let max = js.max_cell_occupancy();
        assert!(max >= 1);
        // The max is an actual cell size and bounds every cell.
        let sizes: Vec<usize> = (0..js.n_cells()).map(|c| js.cell_range(c).len()).collect();
        assert_eq!(max, *sizes.iter().max().unwrap());
        assert!((js.mean_cell_occupancy() - 300.0 / js.n_cells() as f64).abs() < 1e-12);
        // Build telemetry landed in the registry.
        let profile = mdm_profile::take();
        assert_eq!(profile.counters["jstore_cell_occupancy_max"], max as u64);
        assert_eq!(profile.counters["jstore_upload_bytes"], js.upload_bytes());
        assert_eq!(profile.counters["jstore_builds"], 1);
    }
}
