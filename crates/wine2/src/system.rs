//! The full WINE-2 system (paper Fig. 3): a configurable number of
//! clusters (20 in the current MDM = 2,240 chips) with the host-side
//! scaling logic that turns physical quantities into fixed-point
//! pipeline inputs and back.
//!
//! The clusters are billing, by arithmetic and without an object per
//! cluster, board or chip ([`crate::timing::bill`]): each is dealt a
//! contiguous chunk of the particles, checked against its boards'
//! capacity and billed the chip passes and bus bytes the chunk costs.
//! The host computes over one packed particle column for the whole
//! system, in two parallel regions sized by the thread count alone —
//! the DFT split into equal runs of wave slots, the IDFT into equal runs
//! of particle blocks — so the emulated cluster count changes neither
//! the parallel width nor a bit of the result. The host's per-wave work (§3.4.4: "calculates Sₙ and
//! Cₙ from Sₙ+Cₙ and Sₙ−Cₙ", then energy, virial and the IDFT
//! coefficients) is one pass in table order over the whole-system i64
//! sums.

use crate::board::BoardError;
use crate::cluster::BOARDS_PER_CLUSTER;
use crate::pipeline::{IdftAccum, WineParticle};
use crate::sweep::{DftScratch, Kernel, Lanes, WavePlan, LANES};
use crate::timing::{bill, WineCounters};
use mdm_core::boxsim::SimBox;
use mdm_core::ewald::recip::spectral_coefficient;
use mdm_core::kvectors::{half_space_vectors, KVector};
use mdm_core::units::COULOMB_EV_A;
use mdm_core::vec3::Vec3;
use mdm_fixed::Q30;
use rayon::prelude::*;

/// System configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wine2Config {
    /// Number of clusters (current MDM: 20).
    pub clusters: usize,
}

impl Default for Wine2Config {
    fn default() -> Self {
        Self { clusters: 20 }
    }
}

impl Wine2Config {
    /// Total boards in the system.
    pub fn boards(&self) -> usize {
        self.clusters * BOARDS_PER_CLUSTER
    }

    /// Total chips in the system (current MDM: 2,240).
    pub fn chips(&self) -> usize {
        self.boards() * crate::board::CHIPS_PER_BOARD
    }
}

/// Result of a wavenumber-space force evaluation on WINE-2.
#[derive(Clone, Debug)]
pub struct WineForceResult {
    /// Per-particle wavenumber-space Coulomb forces (eV/Å).
    pub forces: Vec<Vec3>,
    /// Reciprocal-space energy (eV), computed host-side from the
    /// hardware structure factors.
    pub energy: f64,
    /// Reciprocal-space virial (eV), computed host-side from the same
    /// structure factors: `Σₖ E_k·(1 − 2π²n²/α²)`. The boards only
    /// produce `(Sₙ, Cₙ)` — energy and virial are both host
    /// reductions over them, so the virial costs nothing extra.
    pub virial: f64,
    /// The structure factors `(Sₙ, Cₙ)` as resolved by the host.
    pub structure_factors: Vec<(f64, f64)>,
    /// Hardware counters for this evaluation.
    pub counters: WineCounters,
}

/// The emulated WINE-2 system.
///
/// It owns the host library's working state, built
/// on the first call and reused by every later one — the row plan and
/// per-wave spectral coefficients of the caller's wave table, the
/// quantised particle image and its packed column, the whole-system DFT
/// sums, one DFT scratch per parallel item, the IDFT coefficient
/// registers and the per-particle IDFT registers — so a steady-state
/// evaluation allocates only the vectors it returns. The table-derived
/// part is rebuilt when a call brings a different table or α; the
/// particle-sized part follows the particle count, the scratch list the
/// thread count.
pub struct Wine2System {
    config: Wine2Config,
    /// The form of the sweep this CPU and ROM run.
    kernel: Kernel,
    /// The wave table `plan` and `spectral` were built for, and its α.
    waves: Vec<KVector>,
    alpha: f64,
    plan: WavePlan,
    /// `spectral_coefficient(α, n²)` and the virial factor
    /// `1 − 2π²n²/α²` per wave, in table order.
    spectral: Vec<[f64; 2]>,
    /// The IDFT coefficients `(aₙ'·Sₙ, aₙ'·Cₙ)/c_scale` as `[u, v]` Q30
    /// registers, in slot order.
    uv: Vec<[i64; 2]>,
    /// The fixed-point particle image the boards are loaded from.
    quantized: Vec<WineParticle>,
    /// `quantized` packed in load order: every cluster's particles.
    particles: Lanes,
    /// `[Σ q(sin+cos), Σ q(sin−cos)]` over every particle, per slot.
    dft_sums: Vec<[i64; 2]>,
    /// One scratch per item of the DFT region.
    dft_scratch: Vec<DftScratch>,
    /// The IDFT's per-particle registers, in load order.
    idft_acc: Vec<IdftAccum>,
}

impl Wine2System {
    /// Build an idle system.
    pub fn new(config: Wine2Config) -> Self {
        assert!(config.clusters > 0);
        Self {
            config,
            kernel: Kernel::detect(),
            waves: Vec::new(),
            alpha: f64::NAN,
            plan: WavePlan::default(),
            spectral: Vec::new(),
            uv: Vec::new(),
            quantized: Vec::new(),
            particles: Lanes::default(),
            dft_sums: Vec::new(),
            dft_scratch: Vec::new(),
            idft_acc: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> Wine2Config {
        self.config
    }

    /// Evaluate the wavenumber-space part of the Coulomb force
    /// (paper eqs. 9–13) for the given configuration, entirely through
    /// the fixed-point pipeline hierarchy.
    ///
    /// `alpha` and `n_max` are the paper's dimensionless Ewald
    /// parameters; the wave table is enumerated internally.
    pub fn compute_wavepart(
        &mut self,
        simbox: SimBox,
        positions: &[Vec3],
        charges: &[f64],
        alpha: f64,
        n_max: f64,
    ) -> Result<WineForceResult, BoardError> {
        let waves = half_space_vectors(n_max);
        self.compute_wavepart_with_waves(simbox, positions, charges, alpha, &waves)
    }

    /// Rebuild the table-derived state if this call's table or α is not
    /// the one held.
    fn prepare(&mut self, alpha: f64, waves: &[KVector]) {
        if self.waves != waves {
            let table: Vec<[i32; 3]> = waves.iter().map(|k| k.n).collect();
            self.plan = WavePlan::new(&table);
            self.waves.clear();
            self.waves.extend_from_slice(waves);
            self.alpha = f64::NAN;
        }
        if self.alpha.to_bits() != alpha.to_bits() {
            let pi = std::f64::consts::PI;
            self.spectral.clear();
            self.spectral.extend(waves.iter().map(|k| {
                let n_sq = k.n_sq as f64;
                [spectral_coefficient(alpha, n_sq), 1.0 - 2.0 * pi * pi * n_sq / (alpha * alpha)]
            }));
            self.alpha = alpha;
        }
    }

    /// Pack `quantized` into the column (the boards' particle memories,
    /// in load order).
    fn load(&mut self) {
        // Fewer than 2³¹ particles keep every whole-system DFT sum in an
        // i64 (see `sweep::DftLanes`).
        assert!(self.quantized.len() < 1 << 31, "more particles than the DFT sums hold");
        self.particles.load(&self.quantized);
    }

    /// The DFT region: one item per thread, each summing an equal run of
    /// the plan's slots over the whole column into its own run of
    /// `dft_sums`.
    fn dft(&mut self) {
        let (kernel, plan, lanes) = (self.kernel, &self.plan, &self.particles);
        let waves = plan.waves();
        self.dft_sums.clear();
        self.dft_sums.resize(waves, [0; 2]);
        if waves > 0 {
            let per_item = waves.div_ceil(rayon::current_num_threads().min(waves));
            self.dft_scratch.resize_with(waves.div_ceil(per_item), DftScratch::default);
            self.dft_sums
                .par_chunks_mut(per_item)
                .zip(self.dft_scratch.par_iter_mut())
                .enumerate()
                .for_each(|(item, (sums, scratch))| {
                    let first = item * per_item;
                    kernel.dft(plan, first..first + sums.len(), lanes, scratch, sums);
                });
        }
    }

    /// The IDFT region: one item per thread, each sweeping the whole
    /// plan over an equal run of the column's blocks into its own run of
    /// `idft_acc`.
    fn idft(&mut self) {
        let (kernel, plan, uv, lanes) = (self.kernel, &self.plan, &self.uv, &self.particles);
        self.idft_acc.clear();
        self.idft_acc.resize(lanes.len(), IdftAccum::default());
        let blocks = lanes.blocks();
        if blocks > 0 {
            let per_item = blocks.div_ceil(rayon::current_num_threads().min(blocks));
            self.idft_acc
                .par_chunks_mut(per_item * LANES)
                .enumerate()
                .for_each(|(item, out)| kernel.idft(plan, uv, lanes, item * per_item, out));
        }
    }

    /// As [`Self::compute_wavepart`] with a caller-supplied wave table
    /// (lets the host cache the enumeration across steps).
    pub fn compute_wavepart_with_waves(
        &mut self,
        simbox: SimBox,
        positions: &[Vec3],
        charges: &[f64],
        alpha: f64,
        waves: &[KVector],
    ) -> Result<WineForceResult, BoardError> {
        assert_eq!(positions.len(), charges.len());
        // A chunk over a board's capacity is refused before anything is
        // quantised or packed.
        let counters = bill(positions.len(), waves.len(), self.config.clusters)?;

        // --- Host: quantise particles into the fixed-point format. ---
        let quantize_span = mdm_profile::span("quantize");
        let q_scale = charges.iter().fold(0.0f64, |m, q| m.max(q.abs())).max(1e-300);
        self.quantized.clear();
        self.quantized.extend(positions.iter().zip(charges).map(|(&r, &q)| {
            let f = simbox.fractional(r);
            WineParticle::quantize([f.x, f.y, f.z], q / q_scale)
        }));
        self.load();
        self.prepare(alpha, waves);
        drop(quantize_span);

        // --- DFT phase: whole-system sums per wave. ---
        let dft_span = mdm_profile::span("dft");
        self.dft();
        drop(dft_span);

        // --- Host: Sₙ and Cₙ from the rotated sums, energy, virial and
        // the coefficient scale, in one pass in table order. ---
        let l = simbox.l();
        let energy_unit = COULOMB_EV_A / (std::f64::consts::PI * l);
        let q30_unit = (1i64 << 30) as f64;
        let mut energy = 0.0;
        let mut virial = 0.0;
        let mut c_scale = 0.0f64;
        let mut structure_factors = Vec::with_capacity(waves.len());
        for (w, &[a, virial_factor]) in self.spectral.iter().enumerate() {
            // The Q30 readback of each i64 sum: both casts round once.
            let [p, m] = self.dft_sums[self.plan.slot_of(w)].map(|sum| sum as f64 / q30_unit);
            let (s, c) = (0.5 * (p + m) * q_scale, 0.5 * (p - m) * q_scale);
            let e_k = energy_unit * a * (c * c + s * s);
            energy += e_k;
            virial += e_k * virial_factor;
            // A max is order-free: one link per wave in the chain.
            c_scale = c_scale.max((a * s).abs().max((a * c).abs()));
            structure_factors.push((s, c));
        }
        c_scale = c_scale.max(1e-300);

        // --- Host: each IDFT coefficient formed and quantised once. A
        // saturation is the only way a Q30 register misses its half-LSB
        // bound, so the counter is the seam's whole fault report. ---
        let mut coeff_saturations = 0u64;
        let mut register = |x: f64| {
            let (reg, saturated) = Q30::quantize(x);
            coeff_saturations += u64::from(saturated);
            reg.raw()
        };
        self.uv.clear();
        self.uv.resize(waves.len(), [0; 2]);
        for (w, (&[a, _], &(s, c))) in self.spectral.iter().zip(&structure_factors).enumerate() {
            self.uv[self.plan.slot_of(w)] = [register(a * s / c_scale), register(a * c / c_scale)];
        }
        if coeff_saturations > 0 {
            mdm_profile::counter("wine_q30_saturations", coeff_saturations);
        }

        // --- IDFT phase: per-particle registers. ---
        let idft_span = mdm_profile::span("idft");
        self.idft();
        drop(idft_span);

        // --- Host: rescale to physical forces. ---
        let prefactor = 4.0 * COULOMB_EV_A / (l * l) * c_scale;
        let forces = self
            .idft_acc
            .iter()
            .zip(charges)
            .map(|(acc, &q)| {
                let g = acc.to_f64();
                Vec3::new(g[0], g[1], g[2]) * (prefactor * q)
            })
            .collect();

        Ok(WineForceResult {
            forces,
            energy,
            virial,
            structure_factors,
            counters,
        })
    }
}

#[cfg(test)]
impl Wine2System {
    /// Load `particles` as they are and run both regions over `waves`
    /// with `kernel`: the DFT accumulators in table order and the IDFT
    /// registers in load order. Leaves the table cache stale, so only
    /// for a system no later call evaluates on.
    pub(crate) fn sweep_raw(
        &mut self,
        kernel: Kernel,
        particles: Vec<WineParticle>,
        waves: &[crate::pipeline::IdftWave],
    ) -> Result<(Vec<crate::pipeline::DftAccum>, &[IdftAccum]), BoardError> {
        bill(particles.len(), waves.len(), self.config.clusters)?;
        self.kernel = kernel;
        self.quantized = particles;
        self.load();
        (self.plan, self.uv) = crate::sweep::plan_idft(waves);
        self.dft();
        let terms = self.quantized.len() as u64;
        let dft = (0..waves.len())
            .map(|w| {
                let sums = self.dft_sums[self.plan.slot_of(w)];
                crate::pipeline::DftAccum::from_partial(sums, terms)
            })
            .collect();
        self.idft();
        Ok((dft, &self.idft_acc))
    }

    /// The packed column (the refusal test checks it did not move).
    pub(crate) fn column(&self) -> &Lanes {
        &self.particles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::IdftWave;
    use mdm_core::ewald::recip::recip_space;
    use mdm_core::lattice::{rocksalt_nacl, NACL_LATTICE_A};
    use mdm_core::system::System;

    fn perturbed_crystal() -> System {
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(0, Vec3::new(0.3, -0.2, 0.1));
        s.displace(7, Vec3::new(-0.15, 0.25, 0.3));
        s.displace(20, Vec3::new(0.05, 0.0, -0.4));
        s
    }

    #[test]
    fn matches_f64_reference_to_paper_accuracy() {
        // Paper §3.4.4: relative accuracy of F(wn) is ~1e-4.5 ≈ 3e-5.
        let s = perturbed_crystal();
        let alpha = 7.0;
        let n_max = 8.0;
        let mut wine = Wine2System::new(Wine2Config { clusters: 2 });
        let hw = wine
            .compute_wavepart(s.simbox(), s.positions(), s.charges(), alpha, n_max)
            .unwrap();
        let waves = half_space_vectors(n_max);
        let sw = recip_space(s.simbox(), s.positions(), s.charges(), alpha, &waves);
        let scale = sw
            .forces
            .iter()
            .map(|f| f.norm())
            .fold(0.0f64, f64::max);
        for (i, (a, b)) in hw.forces.iter().zip(&sw.forces).enumerate() {
            let rel = (*a - *b).norm() / scale;
            assert!(rel < 1e-4, "particle {i}: rel err {rel} ({a:?} vs {b:?})");
        }
        assert!(
            ((hw.energy - sw.energy) / sw.energy).abs() < 1e-4,
            "energy {} vs {}",
            hw.energy,
            sw.energy
        );
        // The host-side virial reduction shares the structure factors
        // with the energy, so it lands at the same fixed-point accuracy.
        assert!(hw.virial.is_finite(), "virial must be finite");
        assert!(
            (hw.virial - sw.virial).abs() / sw.virial.abs().max(sw.energy.abs()) < 1e-3,
            "virial {} vs {}",
            hw.virial,
            sw.virial
        );
    }

    #[test]
    fn error_is_fixed_point_not_zero() {
        // The emulator must actually be quantised: agreement should NOT
        // be at f64 level.
        let s = perturbed_crystal();
        let mut wine = Wine2System::new(Wine2Config { clusters: 1 });
        let hw = wine
            .compute_wavepart(s.simbox(), s.positions(), s.charges(), 7.0, 8.0)
            .unwrap();
        let waves = half_space_vectors(8.0);
        let sw = recip_space(s.simbox(), s.positions(), s.charges(), 7.0, &waves);
        let max_rel = hw
            .forces
            .iter()
            .zip(&sw.forces)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max)
            / sw.forces.iter().map(|f| f.norm()).fold(0.0f64, f64::max);
        assert!(max_rel > 1e-9, "suspiciously exact: {max_rel}");
    }

    #[test]
    fn structure_factors_match_reference() {
        let s = perturbed_crystal();
        let mut wine = Wine2System::new(Wine2Config { clusters: 3 });
        let hw = wine
            .compute_wavepart(s.simbox(), s.positions(), s.charges(), 7.0, 6.0)
            .unwrap();
        let waves = half_space_vectors(6.0);
        let sf = mdm_core::ewald::recip::structure_factors(
            s.simbox(),
            s.positions(),
            s.charges(),
            &waves,
        );
        for (k, ((s_hw, c_hw), (s_sw, c_sw))) in hw.structure_factors.iter().zip(&sf).enumerate()
        {
            assert!((s_hw - s_sw).abs() < 1e-4, "wave {k}: S {s_hw} vs {s_sw}");
            assert!((c_hw - c_sw).abs() < 1e-4, "wave {k}: C {c_hw} vs {c_sw}");
        }
    }

    #[test]
    fn op_counters_match_formula() {
        let s = perturbed_crystal();
        let n = s.len() as u64;
        let mut wine = Wine2System::new(Wine2Config { clusters: 2 });
        let hw = wine
            .compute_wavepart(s.simbox(), s.positions(), s.charges(), 7.0, 6.0)
            .unwrap();
        let n_wv = half_space_vectors(6.0).len() as u64;
        assert_eq!(hw.counters.waves, n_wv);
        assert_eq!(hw.counters.dft_ops, n * n_wv);
        assert_eq!(hw.counters.idft_ops, n * n_wv);
    }

    /// The physics of two results: forces, structure factors, energy and
    /// virial bits, and the op counts — everything but the per-cluster
    /// cycle and bus figures, which follow the emulated machine's size.
    fn assert_same_physics(a: &WineForceResult, b: &WineForceResult) {
        let bits = |r: &WineForceResult| -> Vec<[u64; 3]> {
            r.forces.iter().map(|f| [f.x, f.y, f.z].map(f64::to_bits)).collect()
        };
        assert_eq!(bits(a), bits(b));
        assert_eq!(a.structure_factors, b.structure_factors);
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.virial.to_bits(), b.virial.to_bits());
        let ops = |r: &WineForceResult| {
            let c = r.counters;
            (c.dft_ops, c.idft_ops, c.waves, c.particles)
        };
        assert_eq!(ops(a), ops(b));
    }

    #[test]
    fn no_cluster_or_thread_count_changes_a_bit() {
        // Integer sums are partition-free: the emulated cluster count, the
        // thread count (which sizes both regions) and the form of the
        // sweep change nothing, for a system, no particles and no waves.
        let s = perturbed_crystal();
        let table = half_space_vectors(6.0);
        let cases: [(&[Vec3], &[f64], &[KVector]); 3] = [
            (s.positions(), s.charges(), &table),
            (&[], &[], &table),
            (s.positions(), s.charges(), &[]),
        ];
        for (positions, charges, waves) in cases {
            let run = |clusters: usize, threads: usize, kernel: Kernel| {
                rayon::with_num_threads(threads, || {
                    let mut wine = Wine2System::new(Wine2Config { clusters });
                    wine.kernel = kernel;
                    wine.compute_wavepart_with_waves(s.simbox(), positions, charges, 7.0, waves)
                        .unwrap()
                })
            };
            let reference = run(1, 1, Kernel::Portable);
            let case = (positions.len(), waves.len());
            for clusters in [1, 2, 7, 20] {
                let machine = run(clusters, 1, Kernel::Portable);
                assert_same_physics(&machine, &reference);
                for threads in [1, 2, 4] {
                    for kernel in crate::sweep::tests::kernels() {
                        let got = run(clusters, threads, kernel);
                        let label = format!("{case:?}: {clusters} clusters, {threads} threads");
                        assert_eq!(got.counters, machine.counters, "{label}, {kernel:?}");
                        assert_same_result(&got, &machine);
                    }
                }
            }
        }
    }

    /// Address and capacity of every buffer the system keeps between
    /// calls.
    fn buffers(wine: &Wine2System) -> Vec<(usize, usize)> {
        let mut out = vec![
            (wine.waves.as_ptr() as usize, wine.waves.capacity()),
            (wine.spectral.as_ptr() as usize, wine.spectral.capacity()),
            (wine.uv.as_ptr() as usize, wine.uv.capacity()),
            (wine.quantized.as_ptr() as usize, wine.quantized.capacity()),
            (wine.dft_sums.as_ptr() as usize, wine.dft_sums.capacity()),
            (wine.dft_scratch.as_ptr() as usize, wine.dft_scratch.capacity()),
            (wine.idft_acc.as_ptr() as usize, wine.idft_acc.capacity()),
        ];
        out.extend(wine.plan.buffers());
        out.extend(wine.particles.buffers());
        out.extend(wine.dft_scratch.iter().flat_map(DftScratch::buffers));
        out
    }

    fn assert_same_result(a: &WineForceResult, b: &WineForceResult) {
        assert_eq!(a.forces, b.forces);
        assert_eq!(a.structure_factors, b.structure_factors);
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.virial.to_bits(), b.virial.to_bits());
        assert_eq!(a.counters, b.counters);
    }

    #[test]
    fn steady_state_calls_reuse_every_buffer() {
        // The `longrange_scratch_reuses` contract: the first call sizes
        // the scratch and from then on no buffer moves or grows. At two
        // threads: the system's seven vectors, the plan's three tables,
        // the column's four and two DFT items' two scratch columns each.
        let mut s = perturbed_crystal();
        let waves = half_space_vectors(6.0);
        let mut wine = Wine2System::new(Wine2Config { clusters: 2 });
        let step = |wine: &mut Wine2System, s: &System| {
            rayon::with_num_threads(2, || {
                wine.compute_wavepart_with_waves(s.simbox(), s.positions(), s.charges(), 7.0, &waves)
                    .unwrap()
            })
        };
        step(&mut wine, &s);
        let warm = buffers(&wine);
        s.displace(3, Vec3::new(0.1, 0.1, -0.2));
        step(&mut wine, &s);
        assert_eq!(buffers(&wine), warm, "the second call moved or grew a buffer");
        s.displace(11, Vec3::new(-0.2, 0.05, 0.1));
        let third = step(&mut wine, &s);
        assert_eq!(buffers(&wine), warm, "the third call moved or grew a buffer");
        assert_eq!(warm.len(), 7 + 3 + 4 + 2 * 2, "{warm:?}");
        assert!(warm.iter().all(|&(_, cap)| cap > 0), "{warm:?}");
        // Reuse changes nothing: a fresh system computes the same bits.
        let fresh = step(&mut Wine2System::new(Wine2Config { clusters: 2 }), &s);
        assert_same_result(&third, &fresh);
    }

    #[test]
    fn changed_table_alpha_or_particle_count_rebuilds() {
        let s = perturbed_crystal();
        let big = rocksalt_nacl(3, NACL_LATTICE_A);
        let mut wine = Wine2System::new(Wine2Config { clusters: 2 });
        let fresh = |s: &System, alpha: f64, n_max: f64| {
            Wine2System::new(Wine2Config { clusters: 2 })
                .compute_wavepart(s.simbox(), s.positions(), s.charges(), alpha, n_max)
                .unwrap()
        };
        // Same system object throughout: table, α and N each change once
        // (and back), and every result equals a fresh machine's.
        for (system, alpha, n_max) in
            [(&s, 7.0, 6.0), (&s, 7.0, 4.0), (&s, 6.0, 4.0), (&big, 6.0, 4.0), (&s, 7.0, 6.0)]
        {
            let got = wine
                .compute_wavepart(system.simbox(), system.positions(), system.charges(), alpha, n_max)
                .unwrap();
            assert_eq!(wine.plan.waves(), half_space_vectors(n_max).len());
            assert_same_result(&got, &fresh(system, alpha, n_max));
        }
    }

    #[test]
    fn scalar_simd_equivalence_on_a_machine_with_empty_boards() {
        // 10 particles on 3 clusters: 4 + 4 + 2, one per board, so 11 of
        // the 21 boards are empty. Every form of the sweep, and every
        // cluster count, gives the same bits.
        let mut s = rocksalt_nacl(2, NACL_LATTICE_A);
        s.displace(1, Vec3::new(0.2, -0.1, 0.3));
        let (positions, charges) = (&s.positions()[..10], &s.charges()[..10]);
        let run = |clusters: usize, kernel: Kernel| {
            let mut wine = Wine2System::new(Wine2Config { clusters });
            wine.kernel = kernel;
            let out = wine.compute_wavepart(s.simbox(), positions, charges, 7.0, 5.0).unwrap();
            let waves = out.counters.waves as usize;
            let bills = (0..Wine2Config { clusters }.boards()).map(|b| crate::timing::board_bill(10, waves, clusters, b));
            let empty = bills.filter(|b| b.particles == 0).count();
            (out, empty)
        };
        let (reference, empty) = run(3, Kernel::Portable);
        assert_eq!(empty, 11);
        for kernel in crate::sweep::tests::kernels() {
            assert_same_result(&run(3, kernel).0, &reference);
            let (one, _) = run(1, kernel);
            assert_eq!(one.forces, reference.forces);
            assert_eq!(one.structure_factors, reference.structure_factors);
        }
    }

    #[test]
    fn an_empty_system_is_zero_not_a_panic() {
        let s = perturbed_crystal();
        for kernel in crate::sweep::tests::kernels() {
            let mut wine = Wine2System::new(Wine2Config { clusters: 2 });
            wine.kernel = kernel;
            let hw = wine.compute_wavepart(s.simbox(), &[], &[], 7.0, 6.0).unwrap();
            assert!(hw.forces.is_empty());
            assert_eq!(hw.energy.to_bits(), 0.0f64.to_bits());
            assert_eq!(hw.virial.to_bits(), 0.0f64.to_bits());
            assert!(hw.structure_factors.iter().all(|&sc| sc == (0.0, 0.0)));
            assert_eq!(
                hw.counters,
                WineCounters {
                    dft_ops: 0,
                    idft_ops: 0,
                    cycles: 0,
                    bus_bytes_per_cluster: 0,
                    waves: half_space_vectors(6.0).len() as u64,
                    particles: 0,
                }
            );
        }
    }

    #[test]
    fn one_particle_on_two_clusters_matches_one_cluster() {
        // The second cluster, and six boards of the first, hold nothing.
        let s = perturbed_crystal();
        let (positions, charges) = (&s.positions()[..1], &s.charges()[..1]);
        for kernel in crate::sweep::tests::kernels() {
            let run = |clusters: usize| {
                let mut wine = Wine2System::new(Wine2Config { clusters });
                wine.kernel = kernel;
                wine.compute_wavepart(s.simbox(), positions, charges, 7.0, 6.0).unwrap()
            };
            let (two, one) = (run(2), run(1));
            let bits = |r: &WineForceResult| -> Vec<[u64; 3]> {
                r.forces.iter().map(|f| [f.x, f.y, f.z].map(f64::to_bits)).collect()
            };
            assert_eq!(two.forces.len(), 1);
            assert_eq!(bits(&two), bits(&one));
            assert_same_result(&two, &one);
        }
    }

    #[test]
    fn config_chip_counts() {
        assert_eq!(Wine2Config::default().chips(), 2240);
        assert_eq!(Wine2Config { clusters: 24 }.chips(), 2688); // future MDM
    }

    #[test]
    fn every_chip_reads_one_rom_allocation() {
        // One process-wide image: every pipeline the oracles build reads
        // the table the sweep reads, so building a machine — which builds
        // no chip at all — constructs no `SinCosTable`.
        use crate::pipeline::{shared_rom, WinePipeline};
        let rom = shared_rom();
        let _machine = Wine2System::new(Wine2Config::default());
        for pipeline in [WinePipeline::new(), WinePipeline::default(), WinePipeline::new()] {
            assert!(std::ptr::eq(pipeline.trig(), rom));
        }
        assert!(std::ptr::eq(shared_rom(), rom));
    }

    #[test]
    fn full_machine_matches_a_lone_pipeline_with_its_own_rom() {
        // The whole 20-cluster, 2,240-chip MDM (17,920 pipelines) on the
        // shared ROM against one pipeline holding a freshly built table:
        // raw DFT and IDFT accumulators, bit for bit.
        use crate::pipeline::{IdftAccum, WinePipeline};
        use mdm_fixed::SinCosTable;
        let mut wine = Wine2System::new(Wine2Config::default());
        let mut oracle = WinePipeline::with_rom(Box::leak(Box::new(SinCosTable::new(12))));
        assert!(!std::ptr::eq(oracle.trig(), crate::pipeline::shared_rom()));

        let particles: Vec<WineParticle> = (0..301)
            .map(|i| {
                let x = i as f64;
                WineParticle::quantize(
                    [(0.0137 * x) % 1.0, (0.3119 * x) % 1.0, (0.7331 * x) % 1.0],
                    if i % 2 == 0 { 0.93 } else { -0.71 },
                )
            })
            .collect();
        let waves: Vec<[i32; 3]> = half_space_vectors(3.0).iter().map(|k| k.n).collect();
        let idft_waves: Vec<IdftWave> = waves
            .iter()
            .enumerate()
            .map(|(k, &n)| IdftWave {
                n,
                u: Q30::from_f64(0.9 * (0.37 * k as f64).sin()),
                v: Q30::from_f64(0.9 * (0.61 * k as f64).cos()),
            })
            .collect();

        let (dft, idft) = wine.sweep_raw(wine.kernel, particles.clone(), &idft_waves).unwrap();
        for (n, acc) in waves.iter().zip(&dft) {
            assert_eq!(acc.resolve(), oracle.dft_wave(*n, &particles).resolve(), "wave {n:?}");
        }
        let mut expect = vec![IdftAccum::default(); particles.len()];
        for wave in &idft_waves {
            oracle.idft_wave(wave, &particles, &mut expect);
        }
        assert_eq!(idft.len(), expect.len());
        for (i, (a, b)) in idft.iter().zip(&expect).enumerate() {
            assert_eq!(a.f, b.f, "particle {i}");
        }
    }

    #[test]
    fn a_normalised_wavepart_call_never_saturates_q30() {
        let _scope = mdm_profile::scope();
        let s = perturbed_crystal();
        let mut wine = Wine2System::new(Wine2Config { clusters: 2 });
        wine.compute_wavepart(s.simbox(), s.positions(), s.charges(), 7.0, 8.0).unwrap();
        let profile = mdm_profile::take();
        // The host normalises charges by `q_scale = max|q|` and
        // coefficients by `c_scale`, so a standard NaCl evaluation must
        // never saturate the Q30 datapath inputs.
        assert!(
            !profile.counters.contains_key("wine_q30_saturations"),
            "saturation events in a normalised run"
        );
    }
}
