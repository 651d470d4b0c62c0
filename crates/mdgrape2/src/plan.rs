//! The tile plan: which j-store slots share a tile of the sixteen-lane
//! real-space sweep, and which j-cells each tile streams.
//!
//! MDGRAPE-2 keeps one i-particle in each pipeline and streams every
//! j-particle of the particle's 27-cell block past it (paper Figs. 9–11,
//! §2.2). The emulator's tile holds sixteen such i-particles, one per
//! lane. A tile takes up to sixteen **consecutive j-store slots**,
//! whichever home cells they belong to, and streams the union of its
//! lanes' 27-cell boxes:
//!
//! * The union is walked in lexicographic `(z, y, x)` order of
//!   *unwrapped* cell coordinates (each axis from −1 to `m`, `m` cells per
//!   side). An unwrapped cell is one wrapped cell at one periodic shift,
//!   so the j-side stays one scalar broadcast per component.
//! * Each entry carries the mask of the lanes whose own box holds it.
//!   [`JStore::neighbors27`] lists a box `dz`, `dy`, `dx` from −1 to 1 —
//!   the same order — so every lane's 27-cell stencil is a subsequence of
//!   the union, and every lane's f64 chains receive their own terms in
//!   their own order. With `m ≥ 3` a lane's box holds its home cell once,
//!   unshifted: a streamed j that is one of the tile's own slots is that
//!   lane's self pair, wherever in the union it appears.
//!
//! The plan is the cheapest cover of the slot order by runs of at most
//! sixteen slots. A cover costs first the j-particles its tiles stream,
//! then its tiles: one tile per home cell (sixteen slots at a time) is a
//! feasible cover, so the plan never streams more than that — and where
//! that is all it can do (a uniform 125 per cell) it *is* that, tile for
//! tile. The cover is a dynamic programme over slots, solved from the
//! last slot down: a tile starting at slot `a` only needs the covers of
//! the sixteen slots after it, and for each run of home cells it could
//! span only its longest candidate, so the build is linear in cells plus
//! particles. The plan depends on the box and the cell ranges alone, so
//! the system keeps it across a j-store refresh that moved no particle
//! across a cell boundary, and otherwise rebuilds it in its own buffers.

use crate::jstore::JStore;
use mdm_core::boxsim::SimBox;
use std::ops::Range;

/// i-particles per tile: the `f32` lanes of one 512-bit register.
pub(crate) const LANES: usize = 16;

/// One unwrapped cell of a tile's j-stream, as the plan stores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct UnionCell {
    /// The wrapped j-cell.
    cell: u32,
    /// The tile's lanes whose 27-cell box holds this unwrapped cell.
    lanes: u16,
    /// The periodic shift, as an index into [`TilePlan::shifts`]:
    /// `(sz + 1)·9 + (sy + 1)·3 + (sx + 1)` for `s ∈ {−1, 0, 1}` a side.
    shift: u8,
}

/// One cell of a tile's j-stream, as the sweep reads it.
pub(crate) struct StreamCell {
    /// The wrapped j-cell.
    pub(crate) cell: usize,
    /// The periodic image shift added to every streamed position.
    pub(crate) shift: [f32; 3],
    /// The tile's lanes this cell feeds.
    pub(crate) lanes: u16,
}

/// The build's working buffers, kept with the plan so a rebuild reuses
/// them.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// The occupied cells, in cell order.
    occupied: Vec<u32>,
    /// Per occupied cell `i`, where its run costs start in `run_len`.
    reach: Vec<u32>,
    /// `run_len[reach[i] + d]`: the j-particles the union of the boxes of
    /// occupied cells `i..=i + d` holds.
    run_len: Vec<u64>,
    /// Per slot `a`, the width of the tile the cheapest cover of
    /// `a..n` starts with.
    width: Vec<u8>,
    /// Per cell, its own unwrapped cell: the first of its box.
    corner: Vec<u32>,
    /// Per unwrapped cell (the `(m + 2)³` grid of coordinates −1 ..= m,
    /// numbered in `(z, y, x)` order), its wrapped cell and shift.
    unwrapped: Vec<UnionCell>,
    /// Per unwrapped cell, the last union that counted it (`i + 1`).
    stamp: Vec<u32>,
    /// Per unwrapped cell, the lanes of the tile being laid out whose box
    /// holds it; zero between tiles.
    lanes: Vec<u16>,
    /// The unwrapped cells the tile being laid out has marked.
    touched: Vec<u32>,
}

impl Scratch {
    /// Size the per-cell and per-unwrapped-cell tables for `m` cells a
    /// side (kept while `m` is).
    fn grid(&mut self, m: usize) {
        let side = m + 2;
        if self.unwrapped.len() == side * side * side {
            return;
        }
        self.corner.clear();
        for z in 0..m {
            for y in 0..m {
                self.corner.extend((0..m).map(|x| ((z * side + y) * side + x) as u32));
            }
        }
        // Per axis, coordinate `u − 1` wraps to cell `w` with shift `s`
        // (0 / 1 / 2: down / none / up).
        let axis = |u: usize| match u {
            0 => (m - 1, 0),
            u if u <= m => (u - 1, 1),
            _ => (0, 2),
        };
        self.unwrapped.clear();
        for (z, sz) in (0..side).map(axis) {
            for (y, sy) in (0..side).map(axis) {
                self.unwrapped.extend((0..side).map(axis).map(|(x, sx)| UnionCell {
                    cell: ((z * m + y) * m + x) as u32,
                    lanes: 0,
                    shift: (sz * 9 + sy * 3 + sx) as u8,
                }));
            }
        }
        self.stamp.clear();
        self.stamp.resize(side * side * side, 0);
        self.lanes.clear();
        self.lanes.resize(side * side * side, 0);
    }
}

/// Which j-store slots share a tile, and the j-cells each tile streams —
/// see the module docs. [`TilePlan::new`] builds one for a j-store.
#[derive(Clone, Debug, Default)]
pub struct TilePlan {
    /// The box the plan was built for (its shifts); `None` before the
    /// first build.
    simbox: Option<SimBox>,
    /// The cell ranges (`CellList::cell_ranges`) it was built for.
    ranges: Vec<u32>,
    /// Tile `t` is j-store slots `starts[t]..starts[t + 1]`.
    starts: Vec<u32>,
    /// Tile `t` streams `union[union_starts[t]..union_starts[t + 1]]`.
    union_starts: Vec<u32>,
    /// Every tile's j-stream, back to back. Empty cells are left out:
    /// they stream nothing.
    union: Vec<UnionCell>,
    /// The 27 periodic shifts, as the j-store's neighbour table writes
    /// them.
    shifts: [[f32; 3]; 27],
    /// Per home cell, the population of its 27-cell block: what one pass
    /// streams past each of its i-particles, self pair included.
    block_len: Vec<u64>,
    scratch: Scratch,
}

impl TilePlan {
    /// The plan for `jstore`'s box and cell ranges.
    pub fn new(jstore: &JStore) -> Self {
        let mut plan = Self::default();
        plan.update(jstore);
        plan
    }

    /// Bring the plan up to date with `jstore`: rebuilt, in its own
    /// buffers, only if the box or the cell ranges changed.
    pub(crate) fn update(&mut self, jstore: &JStore) {
        let cells = jstore.cells();
        if self.simbox == Some(cells.simbox()) && self.ranges == cells.cell_ranges() {
            return;
        }
        let _span = mdm_profile::span("tile_plan");
        self.simbox = Some(cells.simbox());
        self.ranges.clear();
        self.ranges.extend_from_slice(cells.cell_ranges());
        self.build(jstore);
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// j-particles one pass streams, summed over tiles: each tile
    /// streams every particle of every cell of its union once.
    pub fn streamed(&self) -> u64 {
        self.union
            .iter()
            .map(|u| self.cell_len(u.cell as usize))
            .sum()
    }

    /// The j-store slots of tile `t` and its j-stream, in order.
    pub(crate) fn tile(&self, t: usize) -> (Range<usize>, impl Iterator<Item = StreamCell> + '_) {
        let slots = self.starts[t] as usize..self.starts[t + 1] as usize;
        let union = &self.union[self.union_starts[t] as usize..self.union_starts[t + 1] as usize];
        let stream = union.iter().map(|u| StreamCell {
            cell: u.cell as usize,
            shift: self.shifts[u.shift as usize],
            lanes: u.lanes,
        });
        (slots, stream)
    }

    /// Per home cell, its 27-cell block population.
    pub(crate) fn block_len(&self) -> &[u64] {
        &self.block_len
    }

    /// Address and capacity of every buffer the plan keeps between
    /// builds.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> Vec<(usize, usize)> {
        fn of<T>(v: &Vec<T>) -> (usize, usize) {
            (v.as_ptr() as usize, v.capacity())
        }
        let s = &self.scratch;
        vec![
            of(&self.ranges),
            of(&self.starts),
            of(&self.union_starts),
            of(&self.union),
            of(&self.block_len),
            of(&s.occupied),
            of(&s.reach),
            of(&s.run_len),
            of(&s.width),
            of(&s.corner),
            of(&s.unwrapped),
            of(&s.stamp),
            of(&s.lanes),
            of(&s.touched),
        ]
    }

    fn cell_len(&self, c: usize) -> u64 {
        (self.ranges[c + 1] - self.ranges[c]) as u64
    }

    /// The cheapest cover for `self.ranges` (module docs).
    fn build(&mut self, jstore: &JStore) {
        let m = jstore.cells().cells_per_side();
        let n = jstore.len();
        let ranges = &self.ranges;
        let len = |c: usize| (ranges[c + 1] - ranges[c]) as u64;
        let (lo, hi) = (
            |c: u32| ranges[c as usize] as usize,
            |c: u32| ranges[c as usize + 1] as usize,
        );
        let s = &mut self.scratch;
        s.grid(m);
        // Unwrapped cell `k` of cell `c`'s box is `s.corner[c] + offset[k]`.
        let side = m + 2;
        let offset: [usize; 27] = std::array::from_fn(|k| (k / 9 * side + k / 3 % 3) * side + k % 3);

        let block = |c: usize| {
            jstore
                .neighbors27(c)
                .iter()
                .map(|&(nc, _)| len(nc as usize))
                .sum::<u64>()
        };
        self.block_len.clear();
        self.block_len.extend((0..jstore.n_cells()).map(block));

        s.occupied.clear();
        s.occupied
            .extend((0..jstore.n_cells() as u32).filter(|&c| len(c as usize) > 0));
        let occupied = &s.occupied;

        // The j-particles of every run of occupied cells a tile can span:
        // from cell `i`, every cell a window of sixteen slots starting in
        // `i` reaches.
        s.stamp.fill(0);
        s.reach.clear();
        s.run_len.clear();
        for (i, &c) in occupied.iter().enumerate() {
            s.reach.push(s.run_len.len() as u32);
            let mark = i as u32 + 1;
            let mut union = 0;
            for &next in occupied[i..]
                .iter()
                .take_while(|&&next| lo(next) < hi(c) - 1 + LANES)
            {
                let corner = s.corner[next as usize] as usize;
                for (k, &(nc, _)) in jstore.neighbors27(next as usize).iter().enumerate() {
                    let stamp = &mut s.stamp[corner + offset[k]];
                    if *stamp != mark {
                        *stamp = mark;
                        union += len(nc as usize);
                    }
                }
                s.run_len.push(union);
            }
        }

        // The cheapest cover of `a..n`, `a` from the last slot down, as
        // (j-particles streamed, tiles). It only reads the covers of
        // `a + 1 ..= a + LANES`, kept in a ring. A cover of fewer slots
        // never costs more, so of the tiles from `a` that span the same
        // cells the longest is the one to try.
        const RING: usize = LANES + 1;
        let mut best = [(0u64, 0u32); RING];
        s.width.clear();
        s.width.resize(n, 0);
        let mut i = occupied.len();
        for a in (0..n).rev() {
            while lo(occupied[i - 1]) > a {
                i -= 1;
            }
            let i = i - 1;
            let mut cheapest = (u64::MAX, u32::MAX);
            for (d, &last) in occupied[i..]
                .iter()
                .take_while(|&&c| lo(c) < a + LANES)
                .enumerate()
            {
                let b = hi(last).min(a + LANES);
                let (streamed, tiles) = best[b % RING];
                let cost = (s.run_len[s.reach[i] as usize + d] + streamed, tiles + 1);
                // Fewest cells first: a tie keeps the shorter run.
                if cost < cheapest {
                    cheapest = cost;
                    s.width[a] = (b - a) as u8;
                }
            }
            best[a % RING] = cheapest;
        }

        // Walk the cover from slot 0 and lay out each tile's union: mark
        // the lanes of every unwrapped cell of its boxes, then read the
        // marked cells back in unwrapped-cell order.
        self.starts.clear();
        self.union_starts.clear();
        self.union.clear();
        self.union_starts.push(0);
        let (mut a, mut i) = (0, 0);
        while a < n {
            let b = a + s.width[a] as usize;
            self.starts.push(a as u32);
            while hi(occupied[i]) <= a {
                i += 1;
            }
            s.touched.clear();
            for &c in occupied[i..].iter().take_while(|&&c| lo(c) < b) {
                let lanes = ((1u32 << (hi(c).min(b) - a)) - (1u32 << (lo(c).max(a) - a))) as u16;
                let corner = s.corner[c as usize] as usize;
                for (k, &(nc, shift)) in jstore.neighbors27(c as usize).iter().enumerate() {
                    if len(nc as usize) == 0 {
                        continue;
                    }
                    let key = corner + offset[k];
                    debug_assert_eq!(s.unwrapped[key].cell, nc);
                    self.shifts[s.unwrapped[key].shift as usize] = shift;
                    if s.lanes[key] == 0 {
                        s.touched.push(key as u32);
                    }
                    s.lanes[key] |= lanes;
                }
            }
            // At most 27 keys a cell, and a lone cell's arrive sorted.
            s.touched.sort_unstable();
            for &key in &s.touched {
                self.union.push(UnionCell {
                    lanes: std::mem::take(&mut s.lanes[key as usize]),
                    ..s.unwrapped[key as usize]
                });
            }
            self.union_starts.push(self.union.len() as u32);
            a = b;
        }
        self.starts.push(n as u32);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mdm_core::vec3::Vec3;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The per-cell occupancies the tests draw from: empty cells, lone
    /// particles, one lane short of a tile, a full one, one over, two
    /// over and one.
    pub(crate) const OCCUPANCIES: [usize; 8] = [0, 1, 2, 7, 15, 16, 17, 33];

    /// `m³` cells of edge 4 Å, cell `c` holding `occupancy(c)` particles
    /// scattered inside it (clear of its faces), in shuffled original
    /// order, species drawn from `0..3`.
    pub(crate) fn filled(
        m: usize,
        occupancy: impl Fn(usize) -> usize,
        seed: u64,
    ) -> (SimBox, Vec<Vec3>, Vec<u8>) {
        const EDGE: f64 = 4.0;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut positions = Vec::new();
        for c in 0..m * m * m {
            let corner = Vec3::new((c % m) as f64, (c / m % m) as f64, (c / (m * m)) as f64) * EDGE;
            for _ in 0..occupancy(c) {
                let mut inside = || rng.gen_range(0.01..EDGE - 0.01);
                positions.push(corner + Vec3::new(inside(), inside(), inside()));
            }
        }
        for i in (1..positions.len()).rev() {
            positions.swap(i, rng.gen_range(0..i + 1));
        }
        let types = (0..positions.len())
            .map(|_| rng.gen_range(0u8..3))
            .collect();
        (SimBox::cubic(m as f64 * EDGE), positions, types)
    }

    /// `filled` with occupancies drawn from [`OCCUPANCIES`], and its
    /// j-store.
    pub(crate) fn random_store(m: usize, seed: u64) -> (SimBox, Vec<Vec3>, Vec<u8>, JStore) {
        let draws: Vec<usize> = {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            (0..m * m * m)
                .map(|_| OCCUPANCIES[rng.gen_range(0..OCCUPANCIES.len())])
                .collect()
        };
        let (sb, pos, ty) = filled(m, |c| draws[c], seed);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        assert_eq!(js.cells().cells_per_side(), m);
        (sb, pos, ty, js)
    }

    /// One-home-cell tiles: `(tiles, j-particles one pass streams)`.
    fn per_cell(js: &JStore) -> (usize, u64) {
        let len = |c: usize| js.cell_range(c).len();
        (0..js.n_cells()).fold((0, 0), |(tiles, streamed), c| {
            let block: usize = js
                .neighbors27(c)
                .iter()
                .map(|&(nc, _)| len(nc as usize))
                .sum();
            let cell_tiles = len(c).div_ceil(LANES);
            (tiles + cell_tiles, streamed + (cell_tiles * block) as u64)
        })
    }

    /// Everything a plan hands the sweep and the billing.
    fn contents(plan: &TilePlan) -> impl PartialEq + std::fmt::Debug {
        type Stream = Vec<(usize, [u32; 3], u16)>;
        let tiles: Vec<(Range<usize>, Stream)> = (0..plan.tiles())
            .map(|t| {
                let (slots, stream) = plan.tile(t);
                (
                    slots,
                    stream
                        .map(|s| (s.cell, s.shift.map(f32::to_bits), s.lanes))
                        .collect(),
                )
            })
            .collect();
        (tiles, plan.block_len.clone())
    }

    #[test]
    fn every_lane_streams_its_own_stencil_in_order() {
        for (m, seed) in [(3usize, 1u64), (3, 2), (4, 3), (4, 4), (5, 5)] {
            let (_, _, _, js) = random_store(m, seed);
            let plan = TilePlan::new(&js);
            let mut covered = 0;
            for t in 0..plan.tiles() {
                let (slots, _) = plan.tile(t);
                assert_eq!(slots.start, covered, "m {m}: tiles are consecutive");
                assert!(
                    (1..=LANES).contains(&slots.len()),
                    "m {m}: tile {t} has {} lanes",
                    slots.len()
                );
                covered = slots.end;
                for (lane, slot) in slots.clone().enumerate() {
                    // What the lane streams: the stream cells its bit is set in.
                    let got: Vec<(usize, [u32; 3])> = plan
                        .tile(t)
                        .1
                        .filter(|s| s.lanes & 1 << lane != 0)
                        .map(|s| (s.cell, s.shift.map(f32::to_bits)))
                        .collect();
                    // What it must stream: its home cell's stencil, in order,
                    // empty cells left out.
                    let home = js.cell_of(js.original_index(slot));
                    let want: Vec<(usize, [u32; 3])> = js
                        .neighbors27(home)
                        .iter()
                        .filter(|&&(nc, _)| !js.cell_range(nc as usize).is_empty())
                        .map(|&(nc, shift)| (nc as usize, shift.map(f32::to_bits)))
                        .collect();
                    assert_eq!(got, want, "m {m} seed {seed}: tile {t} lane {lane}");
                }
                assert!(
                    plan.tile(t)
                        .1
                        .all(|s| u32::from(s.lanes) >> slots.len() == 0),
                    "a lane past the tile"
                );
            }
            assert_eq!(covered, js.len(), "m {m}: every slot in a tile");
        }
    }

    #[test]
    fn the_plan_never_streams_more_than_one_home_cell_a_tile() {
        let mut fewer = 0;
        for m in [3usize, 4, 5] {
            for seed in 0..8 {
                let (_, _, _, js) = random_store(m, 100 * m as u64 + seed);
                let plan = TilePlan::new(&js);
                let (tiles, streamed) = per_cell(&js);
                assert!(
                    plan.streamed() <= streamed,
                    "m {m} seed {seed}: {} > {streamed}",
                    plan.streamed()
                );
                if plan.streamed() == streamed {
                    assert!(
                        plan.tiles() <= tiles,
                        "m {m} seed {seed}: {} > {tiles} tiles",
                        plan.tiles()
                    );
                }
                fewer += (plan.streamed() < streamed) as usize;
            }
        }
        assert!(fewer > 0, "no layout gained from tiles across home cells");
    }

    #[test]
    fn at_a_uniform_125_a_cell_the_tiles_are_one_home_cell_each() {
        let (sb, pos, ty) = filled(4, |_| 125, 7);
        let js = JStore::build(sb, &pos, &ty, 4.0);
        let plan = TilePlan::new(&js);
        let per_cell: Vec<Range<usize>> = (0..js.n_cells())
            .flat_map(|c| {
                let cell = js.cell_range(c);
                cell.clone()
                    .step_by(LANES)
                    .map(move |s| s..(s + LANES).min(cell.end))
            })
            .collect();
        let planned: Vec<Range<usize>> = (0..plan.tiles()).map(|t| plan.tile(t).0).collect();
        assert_eq!(planned, per_cell);
        assert_eq!(plan.streamed(), self::per_cell(&js).1);
    }

    #[test]
    fn the_plan_is_a_function_of_the_cell_ranges() {
        let (sb, mut pos, ty, mut js) = random_store(4, 11);
        let fresh = contents(&TilePlan::new(&js));
        // Other positions, the same cells: the same plan, and an update
        // keeps it.
        let mut kept = TilePlan::new(&js);
        for p in &mut pos {
            *p += Vec3::new(1e-3, -1e-3, 1e-3);
        }
        assert_eq!(
            js.refresh(sb, &pos, &ty, 4.0),
            crate::jstore::JStoreRefresh::InPlace
        );
        kept.update(&js);
        assert_eq!(contents(&kept), fresh);
        assert_eq!(contents(&TilePlan::new(&js)), fresh);
        // A plan carried through other ranges and back is the fresh plan
        // of the ranges it ends at.
        let moved = pos[0];
        pos[0] += Vec3::new(4.0, 0.0, 0.0);
        assert_eq!(
            js.refresh(sb, &pos, &ty, 4.0),
            crate::jstore::JStoreRefresh::Resorted
        );
        kept.update(&js);
        assert_eq!(contents(&kept), contents(&TilePlan::new(&js)));
        assert_ne!(contents(&kept), fresh, "one particle changed cell");
        pos[0] = moved;
        js.refresh(sb, &pos, &ty, 4.0);
        kept.update(&js);
        assert_eq!(contents(&kept), fresh);
    }

    #[test]
    fn an_empty_store_has_no_tiles() {
        let js = JStore::build(SimBox::cubic(12.0), &[], &[], 4.0);
        let plan = TilePlan::new(&js);
        assert_eq!((plan.tiles(), plan.streamed()), (0, 0));
    }
}
