//! The full WINE-2 system (paper Fig. 3): a configurable number of
//! clusters (20 in the current MDM = 2,240 chips) with the host-side
//! scaling logic that turns physical quantities into fixed-point
//! pipeline inputs and back.

use crate::board::BoardError;
use crate::cluster::{WineCluster, BOARDS_PER_CLUSTER};
use crate::pipeline::{DftAccum, WineParticle};
use crate::sweep::{Kernel, WavePlan};
use crate::timing::WineCounters;
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
/// Besides the hardware it owns the host library's working state, built
/// on the first call and reused by every later one — the row plan and
/// per-wave spectral coefficients of the caller's wave table, the
/// quantised particle image and the IDFT coefficient registers (each
/// cluster keeps its packed particle columns and result registers the
/// same way) — so a steady-state evaluation allocates only the
/// vectors it returns. The
/// table-derived part is rebuilt when a call brings a different table or
/// α; the particle-sized part follows the particle count.
pub struct Wine2System {
    config: Wine2Config,
    clusters: Vec<WineCluster>,
    /// The form of the sweep this CPU and ROM run.
    kernel: Kernel,
    /// The wave table `plan` and `spectral` were built for, and its α.
    waves: Vec<KVector>,
    alpha: f64,
    plan: WavePlan,
    /// `spectral_coefficient(α, n²)` per wave, in table order.
    spectral: Vec<f64>,
    /// The IDFT coefficients `(aₙ'·Sₙ, aₙ'·Cₙ)/c_scale` as `[u, v]` Q30
    /// registers, in slot order.
    uv: Vec<[i64; 2]>,
    /// The fixed-point particle image the boards are loaded from.
    quantized: Vec<WineParticle>,
}

impl Wine2System {
    /// Build an idle system.
    pub fn new(config: Wine2Config) -> Self {
        assert!(config.clusters > 0);
        Self {
            config,
            clusters: (0..config.clusters).map(|_| WineCluster::new()).collect(),
            kernel: Kernel::detect(),
            waves: Vec::new(),
            alpha: f64::NAN,
            plan: WavePlan::default(),
            spectral: Vec::new(),
            uv: Vec::new(),
            quantized: Vec::new(),
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
            self.spectral.clear();
            self.spectral
                .extend(waves.iter().map(|k| spectral_coefficient(alpha, k.n_sq as f64)));
            self.alpha = alpha;
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
        for c in &mut self.clusters {
            c.reset_counters();
        }

        // --- Host: quantise particles into the fixed-point format. ---
        let quantize_span = mdm_profile::span("quantize");
        let q_scale = charges.iter().fold(0.0f64, |m, q| m.max(q.abs())).max(1e-300);
        // Error attribution for the precision seam: every quantization
        // residual (charge and phase here, IDFT coefficients below)
        // goes into one local histogram, merged into the registry once
        // per call — never a lock per particle.
        let mut quant_hist = mdm_profile::histogram::LogHistogram::error_default();
        self.quantized.clear();
        self.quantized.extend(positions.iter().zip(charges).map(|(&r, &q)| {
            let f = simbox.fractional(r);
            let p = WineParticle::quantize([f.x, f.y, f.z], q / q_scale);
            quant_hist.record(q / q_scale - p.q.to_f64());
            for (frac, phase) in [f.x, f.y, f.z].into_iter().zip(p.s) {
                // Phase residual in turns, wrapped to the nearest
                // representative.
                let d = (frac - phase.to_turns()).rem_euclid(1.0);
                quant_hist.record(d.min(1.0 - d));
            }
            p
        }));

        // Distribute across clusters (contiguous chunks).
        let per_cluster = self.quantized.len().div_ceil(self.config.clusters).max(1);
        let chunks = self.quantized.chunks(per_cluster).chain(std::iter::repeat(&[][..]));
        for (cluster, chunk) in self.clusters.iter_mut().zip(chunks) {
            cluster.load_particles(chunk)?;
        }

        self.prepare(alpha, waves);
        drop(quantize_span);
        let (kernel, plan) = (self.kernel, &self.plan);

        // --- DFT phase (each cluster sums its own particles). ---
        let dft_span = mdm_profile::span("dft");
        self.clusters.par_iter_mut().for_each(|c| c.dft_planned(kernel, plan));
        let dft_ops: u64 = self.clusters.iter().map(WineCluster::ops).sum();
        let structure_factors: Vec<(f64, f64)> = (0..waves.len())
            .map(|w| {
                let slot = plan.slot_of(w);
                let mut acc = DftAccum::default();
                for c in &self.clusters {
                    acc.merge(&c.dft_accum(slot));
                }
                let (s, c) = acc.resolve();
                (s * q_scale, c * q_scale)
            })
            .collect();
        drop(dft_span);

        // --- Host: energy and IDFT coefficients. ---
        let l = simbox.l();
        let pi = std::f64::consts::PI;
        let mut energy = 0.0;
        let mut virial = 0.0;
        let mut c_scale = 0.0f64;
        for ((k, &a), &(s, c)) in waves.iter().zip(&self.spectral).zip(&structure_factors) {
            let n_sq = k.n_sq as f64;
            let e_k = COULOMB_EV_A / (pi * l) * a * (c * c + s * s);
            energy += e_k;
            virial += e_k * (1.0 - 2.0 * pi * pi * n_sq / (alpha * alpha));
            c_scale = c_scale.max((a * s).abs()).max((a * c).abs());
        }
        c_scale = c_scale.max(1e-300);
        let mut coeff_saturations = 0u64;
        self.uv.clear();
        self.uv.resize(waves.len(), [0; 2]);
        for (w, (&a, &(s, c))) in self.spectral.iter().zip(&structure_factors).enumerate() {
            let (u, v) = (a * s, a * c);
            coeff_saturations +=
                u64::from(Q30::saturates(u / c_scale)) + u64::from(Q30::saturates(v / c_scale));
            let (u_reg, v_reg) = (
                Q30::from_f64_saturating(u / c_scale),
                Q30::from_f64_saturating(v / c_scale),
            );
            quant_hist.record(u / c_scale - u_reg.to_f64());
            quant_hist.record(v / c_scale - v_reg.to_f64());
            self.uv[plan.slot_of(w)] = [u_reg.raw(), v_reg.raw()];
        }
        if coeff_saturations > 0 {
            mdm_profile::counter("wine_q30_saturations", coeff_saturations);
        }
        mdm_profile::histogram_merge("wine_fx_quant_residual", &quant_hist);

        // --- IDFT phase (per-cluster disjoint particles). ---
        let idft_span = mdm_profile::span("idft");
        let uv = &self.uv;
        self.clusters.par_iter_mut().for_each(|c| c.idft_planned(kernel, plan, uv));
        drop(idft_span);
        let total_ops: u64 = self.clusters.iter().map(WineCluster::ops).sum();
        let idft_ops = total_ops - dft_ops;

        // --- Host: rescale to physical forces. ---
        let prefactor = 4.0 * COULOMB_EV_A / (l * l) * c_scale;
        let mut forces = Vec::with_capacity(positions.len());
        for acc in self.clusters.iter().flat_map(WineCluster::idft_acc) {
            let g = acc.to_f64();
            forces.push(Vec3::new(g[0], g[1], g[2]));
        }
        for (f, &q) in forces.iter_mut().zip(charges) {
            *f *= prefactor * q;
        }

        let counters = WineCounters {
            dft_ops,
            idft_ops,
            cycles: self.clusters.iter().map(WineCluster::cycles).max().unwrap_or(0),
            bus_bytes_per_cluster: self
                .clusters
                .iter()
                .map(WineCluster::bus_bytes)
                .max()
                .unwrap_or(0),
            waves: waves.len() as u64,
            particles: positions.len() as u64,
        };

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

    #[test]
    fn cluster_count_does_not_change_forces_much() {
        // Different distributions change fixed-point summation order by
        // nothing (exact) for DFT; IDFT per-particle work is identical.
        let s = perturbed_crystal();
        let run = |clusters: usize| {
            let mut wine = Wine2System::new(Wine2Config { clusters });
            wine.compute_wavepart(s.simbox(), s.positions(), s.charges(), 7.0, 6.0)
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        for (fa, fb) in a.forces.iter().zip(&b.forces) {
            assert_eq!(fa, fb, "fixed-point results should be exactly equal");
        }
        assert_eq!(a.energy, b.energy);
    }

    /// Address and capacity of every buffer the system and its hardware
    /// keep between calls.
    fn buffers(wine: &Wine2System) -> Vec<(usize, usize)> {
        let mut out = vec![
            (wine.waves.as_ptr() as usize, wine.waves.capacity()),
            (wine.spectral.as_ptr() as usize, wine.spectral.capacity()),
            (wine.uv.as_ptr() as usize, wine.uv.capacity()),
            (wine.quantized.as_ptr() as usize, wine.quantized.capacity()),
        ];
        out.extend(wine.plan.buffers());
        out.extend(wine.clusters.iter().flat_map(WineCluster::buffers));
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
        // the scratch and from then on no buffer moves or grows.
        let mut s = perturbed_crystal();
        let waves = half_space_vectors(6.0);
        let mut wine = Wine2System::new(Wine2Config { clusters: 2 });
        let step = |wine: &mut Wine2System, s: &System| {
            wine.compute_wavepart_with_waves(s.simbox(), s.positions(), s.charges(), 7.0, &waves)
                .unwrap()
        };
        step(&mut wine, &s);
        let warm = buffers(&wine);
        s.displace(3, Vec3::new(0.1, 0.1, -0.2));
        step(&mut wine, &s);
        assert_eq!(buffers(&wine), warm, "the second call moved or grew a buffer");
        s.displace(11, Vec3::new(-0.2, 0.05, 0.1));
        let third = step(&mut wine, &s);
        assert_eq!(buffers(&wine), warm, "the third call moved or grew a buffer");
        assert!(warm.iter().filter(|&&(_, cap)| cap > 0).count() > 20, "{warm:?}");
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
            let empty = wine.clusters.iter().flat_map(|c| c.boards());
            (out, empty.filter(|b| b.particle_count() == 0).count())
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
        // One process-wide image: every chip of a system — and of the
        // next system built — reads the same table, so building a
        // machine constructs no `SinCosTable`.
        let wine = Wine2System::new(Wine2Config { clusters: 3 });
        let rom = wine.clusters[0].boards()[0].chips()[0].rom();
        let other = Wine2System::new(Wine2Config { clusters: 1 });
        let chips = wine
            .clusters
            .iter()
            .chain(&other.clusters)
            .flat_map(|c| c.boards())
            .flat_map(|b| b.chips());
        let mut seen = 0;
        for chip in chips {
            assert!(std::ptr::eq(chip.rom(), rom));
            seen += 1;
        }
        assert_eq!(seen, 4 * BOARDS_PER_CLUSTER * crate::board::CHIPS_PER_BOARD);
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
        assert!(!std::ptr::eq(oracle.trig(), wine.clusters[0].boards()[0].chips()[0].rom()));

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

        let per_cluster = particles.len().div_ceil(wine.clusters.len());
        let mut dft = vec![DftAccum::default(); waves.len()];
        let mut idft: Vec<IdftAccum> = Vec::new();
        for (cluster, chunk) in wine.clusters.iter_mut().zip(particles.chunks(per_cluster)) {
            cluster.load_particles(chunk).unwrap();
            for (total, part) in dft.iter_mut().zip(cluster.dft(&waves)) {
                total.merge(&part);
            }
            idft.extend(cluster.idft(&idft_waves));
        }

        for (n, acc) in waves.iter().zip(&dft) {
            assert_eq!(acc.resolve(), oracle.dft_wave(*n, &particles).resolve(), "wave {n:?}");
        }
        let mut expect = vec![IdftAccum::default(); particles.len()];
        for wave in &idft_waves {
            oracle.idft_wave(wave, &particles, &mut expect);
        }
        assert_eq!(idft.len(), expect.len());
        for (i, (a, b)) in idft.iter().zip(&expect).enumerate() {
            assert_eq!(a.to_f64(), b.to_f64(), "particle {i}");
        }
    }

    #[test]
    fn quantization_residuals_land_in_seam_histogram() {
        // Every charge, phase, and IDFT-coefficient quantization
        // residual goes into the `wine_fx_quant_residual` histogram.
        let _scope = mdm_profile::scope();
        let s = perturbed_crystal();
        let n = s.len() as u64;
        let mut wine = Wine2System::new(Wine2Config { clusters: 2 });
        let hw = wine
            .compute_wavepart(s.simbox(), s.positions(), s.charges(), 7.0, 8.0)
            .unwrap();
        let profile = mdm_profile::take();
        // 4 residuals per particle (charge + 3 phases) + 2 per wave.
        let hist = &profile.histograms["wine_fx_quant_residual"];
        assert_eq!(hist.count(), 4 * n + 2 * hw.counters.waves);
        // Q30 resolution is 2⁻³¹ ≈ 4.7e-10; Phase32 is finer still.
        let min = hist.min().expect("non-empty");
        assert!(min < 1e-8, "smallest residual suspiciously large: {min}");
        // The host normalises charges by `q_scale = max|q|` and
        // coefficients by `c_scale`, so a standard NaCl evaluation must
        // never saturate the Q30 datapath inputs.
        assert!(
            !profile.counters.contains_key("wine_q30_saturations"),
            "saturation events in a normalised run"
        );
    }
}
