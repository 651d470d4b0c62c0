//! The tile sweep: the one order in which the emulator executes the
//! hardware-faithful real-space pairs.
//!
//! MDGRAPE-2 streams each j-particle once and broadcasts it to pipelines
//! that each hold their own resident i-particle and their own f64
//! accumulators (paper Figs. 9–11). A **tile** runs that dataflow as
//! written: up to sixteen consecutive j-store slots, one i-particle per
//! lane, and every j-particle of the union of the lanes' 27-cell boxes
//! broadcast to all of them in turn ([`crate::plan`] says which slots
//! share a tile and in which order the union streams). The j-side
//! (`x⃗ⱼ + shift`, the species' `a`/`b` row) is formed once for the tile;
//! each lane owns its `r⃗ᵢⱼ`, `r²`, its trip through the Fig. 11 datapath
//! and **its own f64 chains**. A streamed cell feeds only the lanes whose
//! own box holds it, and the union's order keeps every box's, so each
//! chain receives its terms in the order of
//! [`crate::pipeline::interact_cell_scalar`] run per i. The self pair is
//! one lane passed over for one j: nothing is added, not even a zero.
//!
//! Two forms of the order exist, as in `wine2`: the portable one here
//! (`[f32; 16]` lanes, one
//! [`eval_batch`](mdm_funceval::FunctionEvaluator::eval_batch) per pass
//! and streamed j) and the AVX-512 one in [`crate::simd`]. Both perform
//! the scalar datapath's IEEE 754 operations in its order — separate
//! multiplies and adds, never an FMA — under the same MXCSR, so both are
//! **bitwise identical** to the per-i sweep; the `scalar_simd_equivalence`
//! tests assert it for every kernel the host can run.

use crate::chip::MAX_TYPES;
use crate::jstore::{JCellColumns, JStore};
use crate::pipeline::PipelineMode;
use crate::plan::{StreamCell, LANES};
use crate::system::TablePass;
use std::ops::Range;

/// One run of a tile's j-stream: a j-cell, the shift added to every
/// position streamed from it, the lanes it feeds, and which lane's own
/// particle each of its slots is.
pub(crate) struct JRun<'a> {
    /// The j-cell's columns.
    pub(crate) cell: JCellColumns<'a>,
    /// Periodic image shift.
    pub(crate) shift: [f32; 3],
    /// The lanes whose chains take its terms.
    pub(crate) lanes: u16,
    /// Slot `k` is the self pair of lane `self_lane + k` (wrapping); a
    /// value past the last lane for every `k` means no slot is.
    pub(crate) self_lane: usize,
}

impl JRun<'_> {
    /// The lanes that add slot `k`'s term: the run's lanes, less the one
    /// whose own particle slot `k` is.
    #[inline]
    pub(crate) fn live(&self, k: usize) -> u16 {
        let own = self.self_lane.wrapping_add(k);
        if own < LANES {
            self.lanes & !(1 << own)
        } else {
            self.lanes
        }
    }
}

/// A tile as both forms take it. Lanes past `width` hold zeros and take
/// no term.
#[repr(C, align(64))]
pub(crate) struct Tile<const P: usize> {
    /// The lanes' `x⃗ᵢ`, per component.
    pub(crate) xi: [[f32; LANES]; 3],
    /// The coefficient RAM as the tile sees it: per j-species, per pass,
    /// the lanes' own `[a, b]`.
    pub(crate) coeffs: [[[[f32; LANES]; 2]; P]; MAX_TYPES],
    /// The lanes' f64 chains, per pass, per component.
    pub(crate) acc: [[[f64; LANES]; 3]; P],
    /// How many lanes hold the tile's i-particles.
    pub(crate) width: usize,
}

/// Which form of the tile sweep executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// Plain Rust, every host.
    Portable,
    /// [`crate::simd`]: AVX-512 F.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The kernel for this CPU — the only selection there is.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if crate::simd::available() {
            return Self::Avx512;
        }
        Self::Portable
    }

    /// Tile `slots` of `jstore` — its i-particles, one per lane — against
    /// the j-stream `union` in order, `P` passes side by side (a streamed
    /// j that is one of the tile's own slots is that lane's self pair: the
    /// plan's lanes hold their home cell once, unshifted). `out[l·P + p]`
    /// is the accumulator of slot `slots.start + l` for pass `p`: read as
    /// the chains' starting values, written back with what
    /// [`crate::pipeline::interact_cell_scalar`] would leave there, bit for
    /// bit, after the slot's own j-cells in the same order with the slot's
    /// own species row of the coefficient RAM. Potential mode touches
    /// component 0 only.
    ///
    /// Species beyond a pass's coefficient RAM are the caller's to rule out.
    pub(crate) fn sweep_tile<const P: usize>(
        self,
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
        self.tile(passes, mode, jstore.slot_columns(slots), runs, out);
    }

    /// One tile of the i-particles `lanes`, at most [`LANES`], in this
    /// form: the [`Tile`] is laid out here, the j-stream runs in the
    /// form's own loop.
    fn tile<'a, const P: usize>(
        self,
        passes: &[TablePass<'_>; P],
        mode: PipelineMode,
        lanes: JCellColumns<'_>,
        runs: impl Iterator<Item = JRun<'a>>,
        out: &mut [[f64; 3]],
    ) {
        let width = lanes.len();
        assert!(width <= LANES, "a tile holds at most {LANES} i-particles");
        assert_eq!(out.len(), width * P, "one accumulator per lane per pass");
        let mut tile = Tile {
            xi: [[0.0; LANES]; 3],
            coeffs: [[[[0.0; LANES]; 2]; P]; MAX_TYPES],
            acc: [[[0.0; LANES]; 3]; P],
            width,
        };
        for (xi, column) in tile.xi.iter_mut().zip([lanes.xs, lanes.ys, lanes.zs]) {
            xi[..width].copy_from_slice(&column[..width]);
        }
        for (p, pass) in passes.iter().enumerate() {
            for (tj, pair) in tile.coeffs.iter_mut().enumerate().take(pass.coefficients.n_types()) {
                for (lane, &ti) in lanes.types[..width].iter().enumerate() {
                    (pair[p][0][lane], pair[p][1][lane]) = pass.coefficients.get(ti, tj as u8);
                }
            }
        }
        let components = if mode == PipelineMode::Force { 3 } else { 1 };
        for (lane, accs) in out.chunks_exact(P).enumerate() {
            for (chains, acc) in tile.acc.iter_mut().zip(accs) {
                for c in 0..components {
                    chains[c][lane] = acc[c];
                }
            }
        }
        match (self, mode) {
            (Self::Portable, PipelineMode::Force) => tile_portable::<P, true>(passes, &mut tile, runs),
            (Self::Portable, PipelineMode::Potential) => tile_portable::<P, false>(passes, &mut tile, runs),
            #[cfg(target_arch = "x86_64")]
            (Self::Avx512, mode) => {
                assert!(crate::simd::available(), "AVX-512 kernel on a host without it");
                // SAFETY: the CPU feature was just checked.
                unsafe {
                    match mode {
                        PipelineMode::Force => crate::simd::tile::<P, true>(passes, &mut tile, runs),
                        PipelineMode::Potential => crate::simd::tile::<P, false>(passes, &mut tile, runs),
                    }
                }
            }
        }
        for (lane, accs) in out.chunks_exact_mut(P).enumerate() {
            for (chains, acc) in tile.acc.iter().zip(accs) {
                for c in 0..components {
                    acc[c] = chains[c][lane];
                }
            }
        }
    }
}

/// The portable j-stream, the mode as a constant. Per streamed j every
/// lane forms `r⃗ᵢⱼ`, `r²` and each pass's `x = a·r²` in the AVX-512
/// operand order; one `eval_batch` per pass evaluates the tile's lanes
/// (bit-equal to `eval`), and each live lane adds its terms into its own
/// chains.
fn tile_portable<'a, const P: usize, const FORCE: bool>(
    passes: &[TablePass<'_>; P],
    tile: &mut Tile<P>,
    runs: impl Iterator<Item = JRun<'a>>,
) {
    let width = tile.width;
    let every = ((1u32 << width) - 1) as u16;
    let mut g = [0f32; LANES];
    for run in runs {
        let cell = run.cell;
        for k in 0..cell.len() {
            // The j-side once for the whole tile.
            let xj = [
                cell.xs[k] + run.shift[0],
                cell.ys[k] + run.shift[1],
                cell.zs[k] + run.shift[2],
            ];
            let d: [[f32; LANES]; 3] = std::array::from_fn(|c| tile.xi[c].map(|v| v - xj[c]));
            let r_sq: [f32; LANES] =
                std::array::from_fn(|l| d[0][l] * d[0][l] + d[1][l] * d[1][l] + d[2][l] * d[2][l]);
            let live = run.live(k);
            let on: [bool; LANES] = std::array::from_fn(|l| live >> l & 1 != 0);
            // A term every lane of the tile takes needs no select (lanes
            // past `width` add `0·g` and are never stored).
            let all = live == every;
            let pair = &tile.coeffs[cell.types[k] as usize];
            for p in 0..P {
                let [a, b] = &pair[p];
                let x: [f32; LANES] = std::array::from_fn(|l| a[l] * r_sq[l]);
                passes[p].table.eval_batch(&x[..width], &mut g[..width]);
                let bg: [f32; LANES] = std::array::from_fn(|l| b[l] * g[l]);
                // Every lane computes, a live one adds: a select, not a
                // `+ 0.0`, so a chain outside `live` keeps even its sign.
                for (chain, dc) in tile.acc[p].iter_mut().zip(&d).take(if FORCE { 3 } else { 1 }) {
                    for l in 0..LANES {
                        let term = if FORCE { bg[l] * dc[l] } else { bg[l] };
                        let sum = chain[l] + term as f64;
                        chain[l] = if all || on[l] { sum } else { chain[l] };
                    }
                }
            }
        }
    }
}

/// One entry of a home cell's stencil, for [`Kernel::sweep_tiles`].
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

#[cfg(test)]
impl Kernel {
    /// The one-home-cell form of the tiles, against a stencil of the
    /// caller's making: every i-particle of `home`, sixteen to a tile,
    /// each tile streaming all of `stencil` to all its lanes.
    /// `out[s·P + p]` is home slot `s`'s accumulator for pass `p`, as in
    /// [`Self::sweep_tile`].
    pub(crate) fn sweep_tiles<const P: usize>(
        self,
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
                lanes: ((1u32 << lanes.len()) - 1) as u16,
                // Home slot `k` is lane `k − base`'s own particle.
                self_lane: if entry.is_home { base.wrapping_neg() } else { LANES },
            });
            let i_side = JCellColumns {
                xs: &home.xs[lanes.clone()],
                ys: &home.ys[lanes.clone()],
                zs: &home.zs[lanes.clone()],
                types: &home.types[lanes.clone()],
            };
            self.tile(passes, mode, i_side, runs, &mut out[base * P..lanes.end * P]);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chip::AtomCoefficients;
    use crate::pipeline::MAX_CELL_PASSES;
    use crate::tables::GFunction;
    use mdm_funceval::FunctionEvaluator;

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

    pub(crate) const FORCE_KERNELS: [GFunction; 4] = [
        GFunction::CoulombRealForce,
        GFunction::BornMayerForce,
        GFunction::Dispersion6Force,
        GFunction::Dispersion8Force,
    ];

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

    /// What each kernel costs, reported and not gated: the median wall of
    /// one four-pass `calc_passes_with_jstore` call (force and potential,
    /// 2 clusters) on the inputs of `examples/tile_cost.rs` — N = 64, 512,
    /// 4,096 and 8,000, a jittered rock-salt lattice, the §4 tables at
    /// NaCl magnitudes — at 1 and 2 threads. Run with
    /// `cargo test --release -p mdgrape2 --lib kernel_cost -- --ignored --nocapture`.
    #[test]
    #[ignore = "a timing report, not a check"]
    fn kernel_cost_at_the_benchmark_shapes() {
        use crate::jstore::JStore;
        use crate::system::{Mdgrape2Config, Mdgrape2System};
        use mdm_core::lattice::{rocksalt_nacl, rocksalt_nacl_at_density, NACL_LATTICE_A, PAPER_DENSITY};
        use mdm_core::vec3::Vec3;
        use rand::{Rng, SeedableRng};
        use std::time::{Duration, Instant};

        // `tile_cost`'s coefficient RAMs at `κ`.
        let ram = |kappa: f64, energy: bool| -> [AtomCoefficients; 4] {
            let matrix = |f: &dyn Fn(usize, usize) -> f64| -> Vec<Vec<f64>> {
                (0..2).map(|i| (0..2).map(|j| f(i, j)).collect()).collect()
            };
            let sign = |i: usize, j: usize| if i == j { 1.0 } else { -1.0 };
            let coulomb = 14.4 * if energy { kappa } else { kappa.powi(3) };
            let short = |scale: f64| if energy { scale } else { scale * 6.0 };
            let ram = |a: f64, b: &dyn Fn(usize, usize) -> f64| AtomCoefficients::new(&matrix(&|_, _| a), &matrix(b));
            [
                ram(kappa * kappa, &|i, j| coulomb * sign(i, j)),
                ram(1.0 / (0.317f64 * 0.317), &|i, j| 0.2 + 0.1 * (i + j) as f64),
                ram(1.0, &|i, j| -short(1.7 + 10.0 * (i * j) as f64)),
                ram(1.0, &|i, j| -short(2.0 + 20.0 * (i * j) as f64)),
            ]
        };
        let cases = [
            (rocksalt_nacl(2, NACL_LATTICE_A), 3, 2000),
            (rocksalt_nacl(4, NACL_LATTICE_A), 3, 300),
            (rocksalt_nacl(8, NACL_LATTICE_A), 5, 20),
            (rocksalt_nacl_at_density(10, PAPER_DENSITY), 4, 10),
        ];
        println!("kernel         N  threads  force (ms)  potential (ms)");
        for (mut system, cells, reps) in cases {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(28);
            let mut jitter = || 2.0 * rng.gen::<f64>() - 1.0;
            system.displace_all(|_| Vec3::new(jitter(), jitter(), jitter()));
            let l = system.simbox().l();
            let (positions, types) = (system.positions(), system.types());
            let js = JStore::build(system.simbox(), positions, types, l / (cells as f64 + 0.01));
            let kappa = 3.2 * 1.02 * cells as f64 / l;
            for kernel in kernels() {
                for threads in [1, 2] {
                    let [force, potential] = [PipelineMode::Force, PipelineMode::Potential].map(|mode| {
                        let energy = mode == PipelineMode::Potential;
                        let kinds = if energy {
                            [
                                GFunction::CoulombRealEnergy,
                                GFunction::BornMayerEnergy,
                                GFunction::Dispersion6Energy,
                                GFunction::Dispersion8Energy,
                            ]
                        } else {
                            FORCE_KERNELS
                        };
                        let (tables, ram) = (tables(kinds), ram(kappa, energy));
                        let passes: [TablePass<'_>; 4] = std::array::from_fn(|p| TablePass {
                            table: &tables[p],
                            coefficients: &ram[p],
                        });
                        let config = Mdgrape2Config { clusters: 2 };
                        let mut mdg = Mdgrape2System::new(config, tables[0].clone(), ram[0].clone()).with_kernel(kernel);
                        rayon::with_num_threads(threads, || {
                            let mut call = || {
                                let start = Instant::now();
                                std::hint::black_box(mdg.calc_passes_with_jstore(mode, &passes, positions, types, &js).unwrap());
                                start.elapsed()
                            };
                            call();
                            let mut samples: Vec<Duration> = (0..reps).map(|_| call()).collect();
                            samples.sort();
                            samples[reps / 2].as_secs_f64() * 1e3
                        })
                    });
                    let name = format!("{kernel:?}");
                    println!("{name:<9} {:>5}  {threads:>7}  {force:>10.3}  {potential:>14.3}", system.len());
                }
            }
        }
    }
}
