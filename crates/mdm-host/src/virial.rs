//! The host's real-space virial `Σ f⃗·r⃗` over the boards' pair set.
//!
//! The MDGRAPE-2 pipelines accumulate forces only, so the host reduces
//! the real-space virial itself, at the potential cadence. It runs in
//! two stages over the same pairs, in the same order, as the per-pair
//! walk it replaced:
//!
//! * **Walk.** Each cell's half shell ([`CellList::half_shell`]) hands
//!   out its in-range `(i, j, r²)` one block and one `i` at a time
//!   ([`CellList::in_range_pairs`]), lane-filtered, in the walk order
//!   and with the `r²` bits the scalar walk had.
//! * **Pair term.** Each pair's `(qq·f_over_r + fs)·r²` is read from f64
//!   pieces in `x = r²`, one set per species pair ([`PairTerms`]),
//!   fitted from the exact term on the machine's `(κ, r_cut, species
//!   charges)` with `special`'s piece fitter — the same "fit the table
//!   from the exact function" MDGRAPE-2's function tables use. Below
//!   the table's floor, and for a NaN `r²`, the term is the exact one.
//!
//! The value is within 10⁻¹² of the ordered-pair sum of the exact term,
//! and the same bits for every thread count.

use mdm_core::celllist::{CellList, InRangePairs};
use mdm_core::ewald::real::real_kernel;
use mdm_core::potentials::{ShortRangePotential, TosiFumi};
use mdm_core::special::{eval_piece, ChebyshevFitter};
use mdm_core::system::{Species, System};
use mdm_core::units::COULOMB_EV_A;
use rayon::prelude::*;
use std::cell::RefCell;

/// Coefficients per piece (degree 11).
const TERMS: usize = 12;
/// Pieces per octave of `r²`, as mantissa bits: sixteen, so a piece's
/// half-width is at most 1/32 of its distance from `r² = 0`, where the
/// `r⁻⁸` and `erfc(κr)/r` terms are singular. The fitted terms then
/// stay within 3.3·10⁻¹⁵ of the largest term on the domain at every
/// operating point the tests sample (bound 10⁻¹⁴); eight pieces an
/// octave read 4.8·10⁻¹⁵, four 2.2·10⁻¹⁴.
const OCTAVE_BITS: u32 = 4;
/// `r²`'s bits above this shift are its piece: exponent and the top
/// `OCTAVE_BITS` mantissa bits.
const PIECE_SHIFT: u32 = 52 - OCTAVE_BITS;
/// The table's floor: `(1.5 Å)²`, a piece boundary, well inside the
/// closest approach of molten NaCl (≈ 2 Å). Pairs closer than this take
/// the exact term.
const FLOOR_SQ: f64 = 2.25;
/// The f64 mantissa field.
const MANTISSA: u64 = (1 << 52) - 1;

/// The pair term `(qq·f_over_r + fs)·r²` of every species pair, as
/// f64 pieces in `r²` from [`FLOOR_SQ`] to `r_cut²` — sixteen pieces an
/// octave, twelve coefficients each — plus the exact term it was
/// fitted from. A machine fits it at its first energy evaluation and
/// keeps it while `(κ, r_cut, species charges)` stay the same.
pub(crate) struct PairTerms {
    kappa: f64,
    r_cut: f64,
    charges: Vec<f64>,
    short: TosiFumi,
    /// `slots[a·n + b]`: the piece set of species pair `{a, b}`.
    slots: Vec<usize>,
    n_species: usize,
    /// Piece index (`r²`'s bits `>> PIECE_SHIFT`) of the first piece.
    first: u64,
    /// Pieces per species pair.
    pieces_per_slot: usize,
    /// `pieces[slot·pieces_per_slot + k]`: `piece[j]` multiplies `tʲ`,
    /// `t ∈ [−1, 1)` across the piece.
    pieces: Vec<[f64; TERMS]>,
}

impl PairTerms {
    /// Fit every species pair's term on `[FLOOR_SQ, r_cut²]`.
    pub(crate) fn fit(kappa: f64, r_cut: f64, species: &[Species], short: &TosiFumi) -> Self {
        let n_species = species.len();
        let mut slots = vec![0; n_species * n_species];
        let mut pairs = Vec::new();
        for a in 0..n_species {
            for b in a..n_species {
                slots[a * n_species + b] = pairs.len();
                slots[b * n_species + a] = pairs.len();
                pairs.push((a, b));
            }
        }
        let first = FLOOR_SQ.to_bits() >> PIECE_SHIFT;
        let r_cut_sq = r_cut * r_cut;
        let pieces_per_slot = if r_cut_sq >= FLOOR_SQ {
            ((r_cut_sq.to_bits() >> PIECE_SHIFT) - first + 1) as usize
        } else {
            0
        };
        let mut terms = Self {
            kappa,
            r_cut,
            charges: species.iter().map(|s| s.charge).collect(),
            short: short.clone(),
            slots,
            n_species,
            first,
            pieces_per_slot,
            pieces: Vec::new(),
        };
        // One piece per parallel item; the collect keeps slot-major
        // order and each fit is serial, so the table does not depend on
        // the thread count.
        let fitter = ChebyshevFitter::<TERMS>::new();
        terms.pieces = (0..pairs.len() * pieces_per_slot)
            .into_par_iter()
            .map(|item| {
                let (a, b) = pairs[item / pieces_per_slot];
                let index = first + (item % pieces_per_slot) as u64;
                let lo = f64::from_bits(index << PIECE_SHIFT);
                let octave = f64::from_bits((index >> OCTAVE_BITS) << 52);
                let half_width = octave / (2 << OCTAVE_BITS) as f64;
                fitter.piece(lo + half_width, half_width, |r_sq| {
                    terms.exact(a, b, terms.charges[a], terms.charges[b], r_sq)
                })
            })
            .collect();
        terms
    }

    /// Was this table fitted for `(kappa, r_cut, species charges)`?
    pub(crate) fn fits(&self, kappa: f64, r_cut: f64, species: &[Species]) -> bool {
        self.kappa.to_bits() == kappa.to_bits()
            && self.r_cut.to_bits() == r_cut.to_bits()
            && self.charges.len() == species.len()
            && self
                .charges
                .iter()
                .zip(species)
                .all(|(q, s)| q.to_bits() == s.charge.to_bits())
    }

    /// Size of the fitted pieces in bytes.
    #[cfg(test)]
    fn bytes(&self) -> usize {
        std::mem::size_of_val(self.pieces.as_slice())
    }

    /// The exact pair term of species `ti`, `tj` with charges `qi`, `qj`
    /// at `r_sq`: `real_kernel`'s `f_over_r` and the short-range
    /// `force_over_r`, as the per-pair virial walk computed it.
    pub(crate) fn exact(&self, ti: usize, tj: usize, qi: f64, qj: f64, r_sq: f64) -> f64 {
        let r = r_sq.sqrt();
        let (_e, f_over_r) = real_kernel(self.kappa, r_sq);
        let qq = COULOMB_EV_A * qi * qj;
        let fs = self.short.force_over_r(ti, tj, r);
        // f⃗ = d⃗·(qq·f_over_r + fs), so f⃗·d⃗ = (qq·f_over_r + fs)·r².
        (qq * f_over_r + fs) * r_sq
    }

    /// The pair term from the pieces — or, below the floor, above the
    /// last piece or for a NaN `r_sq`, the exact one.
    #[inline]
    pub(crate) fn term(&self, ti: usize, tj: usize, qi: f64, qj: f64, r_sq: f64) -> f64 {
        match self.piece_of(r_sq) {
            Some(k) => {
                // The mantissa bits below the piece index, as `y ∈ [1, 2)`:
                // `t = 2y − 3` is the exact position across the piece.
                let bits = (r_sq.to_bits() << OCTAVE_BITS) & MANTISSA;
                let y = f64::from_bits(bits | 1f64.to_bits());
                let slot = self.slots[ti * self.n_species + tj];
                eval_piece(&self.pieces[slot * self.pieces_per_slot + k], 2.0 * y - 3.0)
            }
            None => self.exact(ti, tj, qi, qj, r_sq),
        }
    }

    /// The piece `r_sq` falls in, if the table covers it. Below the
    /// floor (and for a negative sign bit) the index wraps to a huge
    /// value; NaN and ∞ sit above every piece.
    #[inline]
    fn piece_of(&self, r_sq: f64) -> Option<usize> {
        let k = (r_sq.to_bits() >> PIECE_SHIFT).wrapping_sub(self.first) as usize;
        (k < self.pieces_per_slot).then_some(k)
    }
}

/// `Σ f⃗·r⃗` over the unordered pairs of `cells`' block-pair set within
/// `terms`' cutoff. The boards evaluate every block pair (no cutoff),
/// but the pressure observable is defined against the truncated
/// interaction — the same `r_cut` the f64 reference applies. The
/// dispersion virial tail beyond `r_cut` is ~6× its energy tail, so
/// keeping it would put the reported pressure > 1 % from the
/// reference's.
///
/// Summation order: cells run in parallel, each adding its half-shell
/// pairs in walk order into its own partial; the partials are collected
/// in cell order and added serially. The value is therefore the same
/// bits for every thread count. Each thread walks with its own
/// [`InRangePairs`] scratch, kept between calls, so an energy step
/// allocates nothing once the largest block has been seen.
///
/// # Panics
/// Panics with fewer than 3 cells per side (`JStore::build` has already
/// refused such a grid).
pub(crate) fn real_virial(cells: &CellList, system: &System, terms: &PairTerms) -> f64 {
    thread_local! {
        static SCRATCH: RefCell<InRangePairs> = RefCell::default();
    }
    let r_cut_sq = terms.r_cut * terms.r_cut;
    let positions = system.positions();
    let charges = system.charges();
    let types = system.types();
    let per_cell: Vec<f64> = (0..cells.n_cells())
        .into_par_iter()
        .map(|c| {
            SCRATCH.with_borrow_mut(|scratch| {
                let mut virial = 0.0;
                for block in cells.half_shell(c) {
                    let row = |i: u32, js: &[u32], r_sq: &[f64]| {
                        let i = i as usize;
                        let (ti, qi) = (types[i] as usize, charges[i]);
                        for (&j, &r_sq) in js.iter().zip(r_sq) {
                            let j = j as usize;
                            virial += terms.term(ti, types[j] as usize, qi, charges[j], r_sq);
                        }
                    };
                    cells.in_range_pairs(c, block, positions, r_cut_sq, scratch, row);
                }
                virial
            })
        })
        .collect();
    per_cell.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::MdmForceField;
    use mdm_core::ewald::EwaldParams;
    use mdm_core::lattice::nacl_species;
    use mdm_core::lattice::NACL_LATTICE_A;

    /// The fitted term against the exact one across `[floor, r_cut]`
    /// for every species pair, at `1e-14` of the largest `|term|` on
    /// the domain — an absolute bound, since the Na–Cl term crosses
    /// zero.
    fn assert_pieces_match_the_exact_term(params: &EwaldParams, l: f64, what: &str) {
        let species = nacl_species();
        let kappa = params.kappa(l);
        let terms = PairTerms::fit(kappa, params.r_cut, &species, &TosiFumi::nacl());
        let r_cut_sq = params.r_cut * params.r_cut;
        assert!(r_cut_sq > FLOOR_SQ, "{what}: r_cut {}", params.r_cut);
        const SAMPLES: usize = 40_000;
        let xs: Vec<f64> = (0..=SAMPLES)
            .map(|s| FLOOR_SQ + (r_cut_sq - FLOOR_SQ) * s as f64 / SAMPLES as f64)
            // Every piece boundary, an ulp either side.
            .chain((0..terms.pieces_per_slot as u64).flat_map(|k| {
                let lo = f64::from_bits((terms.first + k) << PIECE_SHIFT);
                [lo.next_down(), lo, lo.next_up()]
            }))
            .filter(|&x| (FLOOR_SQ..=r_cut_sq).contains(&x))
            .collect();
        for a in 0..species.len() {
            for b in 0..species.len() {
                let (qa, qb) = (species[a].charge, species[b].charge);
                let exact: Vec<f64> = xs.iter().map(|&x| terms.exact(a, b, qa, qb, x)).collect();
                let largest = exact.iter().fold(0.0f64, |m, e| m.max(e.abs()));
                let mut worst = 0.0f64;
                for (&x, &want) in xs.iter().zip(&exact) {
                    let got = terms.term(a, b, qa, qb, x);
                    worst = worst.max((got - want).abs());
                }
                assert!(
                    worst <= 1e-14 * largest,
                    "{what}, species ({a}, {b}): worst {worst:e} against largest {largest:e} \
                     (ratio {:e})",
                    worst / largest
                );
            }
        }
    }

    #[test]
    fn pieces_match_the_exact_term_at_every_operating_point() {
        for cells in [2, 4, 10] {
            let l = cells as f64 * NACL_LATTICE_A;
            let params = MdmForceField::nacl_default_params(l);
            assert_pieces_match_the_exact_term(&params, l, &format!("nacl_default, {cells} cells"));
        }
        // faithful_8k's point: N = 8,000, α = 1.02·s·4, 4 cells per side.
        let l = 10.0 * NACL_LATTICE_A;
        let s = 3.2;
        let faithful = EwaldParams::from_alpha_accuracy(1.02 * s * 4.0, s, s, l);
        assert_pieces_match_the_exact_term(&faithful, l, "faithful_8k");
        // The smallest box the machine takes: α = 9, r_cut = L/3.
        let l = 2.0 * NACL_LATTICE_A;
        assert_pieces_match_the_exact_term(&EwaldParams::new(9.0, l / 3.0, 3.0), l, "smallest box");
    }

    #[test]
    fn the_table_is_small_at_the_largest_operating_point() {
        let l = 10.0 * NACL_LATTICE_A;
        let s = 3.2;
        let params = EwaldParams::from_alpha_accuracy(1.02 * s * 4.0, s, s, l);
        let terms = PairTerms::fit(
            params.kappa(l),
            params.r_cut,
            &nacl_species(),
            &TosiFumi::nacl(),
        );
        assert!(terms.bytes() <= 128 << 10, "{} bytes", terms.bytes());
    }

    #[test]
    fn off_table_arguments_take_the_exact_term() {
        let l = 4.0 * NACL_LATTICE_A;
        let params = MdmForceField::nacl_default_params(l);
        let terms = PairTerms::fit(
            params.kappa(l),
            params.r_cut,
            &nacl_species(),
            &TosiFumi::nacl(),
        );
        let r_cut_sq = params.r_cut * params.r_cut;
        let past_the_table =
            f64::from_bits((terms.first + terms.pieces_per_slot as u64) << PIECE_SHIFT);
        assert!(past_the_table > r_cut_sq);
        for x in [1e-6, 1.0, FLOOR_SQ.next_down(), past_the_table, 1e300] {
            let (got, want) = (
                terms.term(0, 1, 1.0, -1.0, x),
                terms.exact(0, 1, 1.0, -1.0, x),
            );
            assert_eq!(got.to_bits(), want.to_bits(), "r² = {x:e}");
        }
        // `force_over_r` refuses r = 0 and NaN in debug builds: check
        // only that they miss the table.
        for x in [0.0, -0.0, -1.0, f64::NAN, -f64::NAN, f64::INFINITY] {
            assert_eq!(terms.piece_of(x), None, "r² = {x:e}");
        }
        assert_eq!(terms.piece_of(FLOOR_SQ), Some(0));
        assert_eq!(terms.piece_of(r_cut_sq), Some(terms.pieces_per_slot - 1));
    }

    #[test]
    fn the_key_is_kappa_r_cut_and_the_species_charges() {
        let species = nacl_species();
        let terms = PairTerms::fit(0.4, 7.0, &species, &TosiFumi::nacl());
        assert!(terms.fits(0.4, 7.0, &species));
        assert!(!terms.fits(0.4f64.next_up(), 7.0, &species));
        assert!(!terms.fits(0.4, 7.5, &species));
        let mut charged = species.clone();
        charged[0].charge = 0.9;
        assert!(!terms.fits(0.4, 7.0, &charged));
        assert!(!terms.fits(0.4, 7.0, &species[..1]));
    }
}
