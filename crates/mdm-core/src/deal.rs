//! How work is dealt to parts: the one rule for each way the code
//! splits particles among clusters, boards or processes.
//!
//! * [`contiguous`]: `⌈n/parts⌉` items a part, in order — the
//!   emulators' clusters and boards, and the §4 wavenumber processes
//!   ("each of them has about N/8 particle positions").
//! * [`cell_runs`]: runs of whole cells in a [`CellList`]'s own order,
//!   balanced by particle count — the §4 real-space processes ("one
//!   process for real-space part performs all the calculation in each
//!   domain").

use crate::celllist::CellList;
use std::ops::Range;

/// Part `i`'s run when `n` items are dealt to `parts` in contiguous
/// runs of `⌈n/parts⌉`, the last ones short or empty.
pub fn contiguous(n: usize, parts: usize, i: usize) -> Range<usize> {
    let per = n.div_ceil(parts).max(1);
    (i * per).min(n)..((i + 1) * per).min(n)
}

/// The list's cells (x fastest) cut into `parts` runs of whole cells,
/// each given as its slice of [`CellList::sorted_order`]. Cut `k` sits
/// at the first cell boundary where [`CellList::cell_ranges`] reaches
/// `k·N/parts`, so a run holds fewer than `N/parts` particles plus its
/// last cell's; it is empty only where one cell alone holds more than
/// a fair share.
pub fn cell_runs(cells: &CellList, parts: usize) -> Vec<Range<usize>> {
    let (starts, n) = (cells.cell_ranges(), cells.len());
    let cut = |k: usize| starts[starts.partition_point(|&s| s as usize * parts < k * n)] as usize;
    (0..parts).map(|k| cut(k)..cut(k + 1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boxsim::SimBox;
    use crate::vec3::Vec3;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn contiguous_tiles_in_ceiling_sized_runs() {
        for n in 0..=40 {
            for parts in 1..=9 {
                let mut next = 0;
                for i in 0..parts {
                    let run = contiguous(n, parts, i);
                    assert_eq!(run.start, next, "n {n} parts {parts} part {i}");
                    // The chunk length written out: an oracle that
                    // shares no code with `contiguous`.
                    let per = n.div_ceil(parts).max(1);
                    assert_eq!(run.len(), n.saturating_sub(i * per).min(per));
                    next = run.end;
                }
                assert_eq!(next, n, "n {n} parts {parts}");
            }
        }
    }

    /// Cubed uniforms crowd the particles towards the origin corner, so
    /// the cells' occupancies range from empty to several fair shares.
    fn crowded(n: usize, l: f64, seed: u64) -> CellList {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut at = || rng.gen::<f64>().powi(3) * l;
        let positions: Vec<Vec3> = (0..n).map(|_| Vec3::new(at(), at(), at())).collect();
        CellList::build(SimBox::cubic(l), &positions, 4.0)
    }

    /// The runs tile the sorted order in order, every cut on a cell
    /// boundary, and no run holds more than the fair share plus the
    /// largest cell's occupancy.
    #[test]
    fn cell_runs_tile_whole_cells_within_one_cell_of_a_fair_share() {
        let uneven = crowded(300, 20.0, 5);
        let nearly_empty = crowded(10, 12.0, 6);
        assert!(nearly_empty.n_cells() > 2 * nearly_empty.len(), "most cells empty");
        for (cells, what) in [(&uneven, "uneven"), (&nearly_empty, "nearly empty")] {
            let n = cells.len();
            let largest = (0..cells.n_cells()).map(|c| cells.particles_in(c).len()).max().unwrap();
            for parts in [1, 2, 3, 7, 16, 40] {
                let runs = cell_runs(cells, parts);
                assert_eq!(runs.len(), parts, "{what} parts {parts}");
                let mut next = 0;
                for run in runs {
                    assert_eq!(run.start, next, "{what} parts {parts}");
                    let on_a_boundary = cells.cell_ranges().binary_search(&(run.end as u32)).is_ok();
                    assert!(on_a_boundary, "{what} parts {parts}: {run:?}");
                    assert!(run.len() * parts <= n + largest * parts, "{what} parts {parts}: {run:?}");
                    next = run.end;
                }
                assert_eq!(next, n, "{what} parts {parts}");
            }
        }
    }
}
