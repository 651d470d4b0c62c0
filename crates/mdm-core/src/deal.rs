//! How work is dealt to parts: the one rule by which the code splits
//! particles among clusters, boards or processes.
//!
//! [`contiguous`]: `⌈n/parts⌉` items a part, in order — the emulators'
//! clusters and boards, the §4 wavenumber processes ("each of them has
//! about N/8 particle positions") and the §4 real-space processes, which
//! take their runs of a cell list's sorted order, so each run is
//! compact in space: whole cells but for the two it cuts.

use std::ops::Range;

/// Part `i`'s run when `n` items are dealt to `parts` in contiguous
/// runs of `⌈n/parts⌉`, the last ones short or empty.
pub fn contiguous(n: usize, parts: usize, i: usize) -> Range<usize> {
    let per = n.div_ceil(parts).max(1);
    (i * per).min(n)..((i + 1) * per).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
