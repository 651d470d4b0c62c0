//! The WINE-2 pipeline (paper Fig. 7): the fixed-point datapath that
//! evaluates one particle–wave interaction per cycle.
//!
//! **DFT mode** (eqs. 9–10): for a resident wave `n⃗`, stream particles
//! `(s⃗ⱼ, qⱼ)` and accumulate. The physical pipeline accumulates the
//! rotated pair `(S+C, S−C)` and lets the host recover `S` and `C`; we
//! do the same.
//!
//! **IDFT mode** (eq. 11): for a resident wave with pre-scaled spectral
//! coefficients `u = aₙ'·Sₙ`, `v = aₙ'·Cₙ`, stream particles and emit
//! per-particle partial forces `(v·sinθᵢ − u·cosθᵢ)·n⃗`. The per-wave
//! charge factor `qᵢ` and the physical prefactor `4C/L²` are applied by
//! the host after accumulation (numerically equivalent to the in-pipe
//! multiply, and it keeps the fixed-point scaling in one place).
//!
//! ## The per-wave definition
//!
//! [`WinePipeline::dft_wave`] and [`WinePipeline::idft_wave`] are the
//! datapath one wave at a time, in plain `mdm_fixed` operations, and the
//! oracle of the emulator's tests: an evaluation runs the reordered
//! wavenumber sweep (`crate::sweep`), which is tested raw-register-equal
//! to these two functions, and [`crate::timing::bill`] bills each
//! operation to the pipeline that holds the wave, which chips built of
//! these pipelines in the tests meter op for op.
//!
//! ## Fixed-point contract
//!
//! Values streamed into the pipeline must be pre-scaled by the host into
//! the Q30 range `[-2, 2)`: charges as `q/q_scale`, coefficients as
//! `u/c_scale`, `v/c_scale`. Accumulator read-backs are rescaled by the
//! host. This mirrors the real machine, where the host library prepared
//! fixed-point images of all inputs.

use mdm_fixed::{FixedAccum, Phase32, SinCosTable, Q30};
use std::sync::OnceLock;

/// A particle as stored in WINE-2 particle memory: fractional position
/// as three 32-bit turn fractions plus the pre-scaled charge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WineParticle {
    /// Fractional coordinates `r⃗/L` as hardware phases.
    pub s: [Phase32; 3],
    /// Charge scaled into Q30 (`q/q_scale`).
    pub q: Q30,
}

impl WineParticle {
    /// Quantise a fractional position (components in `[0,1)`) and a
    /// pre-scaled charge.
    ///
    /// A charge outside the Q30 range clamps (hardware saturation) and
    /// bumps the `wine_q30_saturations` telemetry counter: the host
    /// library normalises charges by `q_scale = max|q|` before calling
    /// this, so any saturation here means that scaling contract was
    /// broken and force errors are no longer bounded by quantisation.
    pub fn quantize(frac: [f64; 3], q_scaled: f64) -> Self {
        let (q, saturated) = Q30::quantize(q_scaled);
        if saturated {
            mdm_profile::counter("wine_q30_saturations", 1);
        }
        Self { s: frac.map(Phase32::from_turns), q }
    }
}

/// Accumulated DFT pair for one wave: the rotated sums `(S+C, S−C)` in
/// wide fixed-point registers.
#[derive(Clone, Copy, Debug, Default)]
pub struct DftAccum {
    /// `Σ q(sinθ + cosθ)`.
    pub s_plus_c: FixedAccum<30>,
    /// `Σ q(sinθ − cosθ)`.
    pub s_minus_c: FixedAccum<30>,
}

impl DftAccum {
    /// The registers after `terms` particles whose truncated products
    /// sum to `[Σ q(sin+cos), Σ q(sin−cos)]` — how the wavenumber sweep
    /// ([`crate::sweep`]) hands over a wave it summed in machine words.
    #[cfg(test)]
    pub(crate) fn from_partial(sums: [i64; 2], terms: u64) -> Self {
        let mut acc = Self::default();
        acc.s_plus_c.fold_partial(sums[0], terms);
        acc.s_minus_c.fold_partial(sums[1], terms);
        acc
    }

    /// Recover `(S, C)` the way the host computer does (§3.4.4: "The
    /// host computer calculates Sₙ and Cₙ from Sₙ+Cₙ and Sₙ−Cₙ").
    pub fn resolve(&self) -> (f64, f64) {
        let p = self.s_plus_c.to_f64();
        let m = self.s_minus_c.to_f64();
        (0.5 * (p + m), 0.5 * (p - m))
    }

    /// Merge a partial sum from another pipeline/board.
    pub fn merge(&mut self, other: &DftAccum) {
        self.s_plus_c.merge(other.s_plus_c);
        self.s_minus_c.merge(other.s_minus_c);
    }
}

/// IDFT per-particle force accumulator (three components, Q30 wide).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdftAccum {
    /// The three force-component accumulators.
    pub f: [FixedAccum<30>; 3],
}

impl IdftAccum {
    /// Read back as f64 triple (host rescales afterwards).
    pub fn to_f64(&self) -> [f64; 3] {
        [self.f[0].to_f64(), self.f[1].to_f64(), self.f[2].to_f64()]
    }

    /// Merge a partial accumulation.
    pub fn merge(&mut self, other: &IdftAccum) {
        for k in 0..3 {
            self.f[k].merge(other.f[k]);
        }
    }
}

/// A resident IDFT wave: integer wave vector plus pre-scaled spectral
/// coefficients.
#[derive(Clone, Copy, Debug)]
pub struct IdftWave {
    /// Integer wave vector `n⃗`.
    pub n: [i32; 3],
    /// `aₙ'·Sₙ / c_scale` in Q30.
    pub u: Q30,
    /// `aₙ'·Cₙ / c_scale` in Q30.
    pub v: Q30,
}

/// The one sine/cosine ROM image of the emulator process.
///
/// On silicon every pipeline has its own 16 KB ROM, and the modeled
/// inventory still says so ([`SinCosTable::rom_bytes`] per pipeline,
/// ops and cycles billed per pipeline). The contents are identical
/// and never written, so the emulator keeps a single host-memory copy
/// that the sweep and every pipeline read: a 20-cluster machine is
/// 17,920 pipelines, and a private copy each would be 880 MB and
/// 73 million `f64::sin` calls.
pub(crate) fn shared_rom() -> &'static SinCosTable {
    static ROM: OnceLock<SinCosTable> = OnceLock::new();
    ROM.get_or_init(SinCosTable::default)
}

/// The pipeline: the sine/cosine ROM both modes read (one host-memory
/// image for all pipelines, see the crate docs), plus operation
/// counting (one count per particle–wave evaluation, matching the
/// hardware's one-op-per-cycle throughput).
#[derive(Clone, Debug)]
pub struct WinePipeline {
    trig: &'static SinCosTable,
    ops: u64,
}

impl Default for WinePipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl WinePipeline {
    /// A pipeline reading the standard 4096-entry ROM.
    pub fn new() -> Self {
        Self::with_rom(shared_rom())
    }

    /// A pipeline reading the given ROM image.
    pub(crate) fn with_rom(trig: &'static SinCosTable) -> Self {
        Self { trig, ops: 0 }
    }

    /// Particle–wave operations executed so far (for cycle accounting).
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Reset the op counter.
    pub fn reset_ops(&mut self) {
        self.ops = 0;
    }

    /// DFT mode: accumulate one wave over a particle stream.
    pub fn dft_wave(&mut self, n: [i32; 3], particles: &[WineParticle]) -> DftAccum {
        let mut acc = DftAccum::default();
        for p in particles {
            let theta = Phase32::dot(n, p.s);
            let (sin, cos) = self.trig.sin_cos(theta);
            // The physical adders form sin+cos and sin−cos before the
            // charge multiply (Fig. 7's paired accumulation).
            acc.s_plus_c.mac(p.q, sin + cos);
            acc.s_minus_c.mac(p.q, sin - cos);
            self.ops += 1;
        }
        acc
    }

    /// The pipeline's sine/cosine ROM (the ROM-sharing tests compare
    /// addresses).
    #[cfg(test)]
    pub(crate) fn trig(&self) -> &'static SinCosTable {
        self.trig
    }

    /// IDFT mode: accumulate one wave's force contribution into the
    /// per-particle accumulators (`out.len() == particles.len()`).
    pub fn idft_wave(
        &mut self,
        wave: &IdftWave,
        particles: &[WineParticle],
        out: &mut [IdftAccum],
    ) {
        assert_eq!(particles.len(), out.len());
        // The hardware multiplies g by the wave component n held as a
        // wide Fx<40,30>; since the fractional bits of that operand are
        // all zero, the truncating wide MAC collapses to the exact
        // integer product g.raw · n (see `FixedAccum::mac_int`).
        let [nx, ny, nz] = wave.n.map(i64::from);
        for (p, acc) in particles.iter().zip(out.iter_mut()) {
            let theta = Phase32::dot(wave.n, p.s);
            let (sin, cos) = self.trig.sin_cos(theta);
            // g = v·sinθ − u·cosθ (the bracket of eq. 11).
            let g = wave.v.mul_trunc(sin) - wave.u.mul_trunc(cos);
            acc.f[0].mac_int(g, nx);
            acc.f[1].mac_int(g, ny);
            acc.f[2].mac_int(g, nz);
            self.ops += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn particles_from(fracs: &[[f64; 3]], qs: &[f64]) -> Vec<WineParticle> {
        fracs
            .iter()
            .zip(qs)
            .map(|(f, &q)| WineParticle::quantize(*f, q))
            .collect()
    }

    #[test]
    fn dft_matches_f64_reference() {
        let fracs = [
            [0.1, 0.2, 0.3],
            [0.7, 0.05, 0.6],
            [0.33, 0.91, 0.48],
            [0.5, 0.5, 0.25],
        ];
        let qs = [1.0, -1.0, 1.0, -1.0];
        let particles = particles_from(&fracs, &qs);
        let mut pipe = WinePipeline::new();
        for n in [[1, 0, 0], [2, -3, 1], [5, 5, -7], [0, 0, 9]] {
            let acc = pipe.dft_wave(n, &particles);
            let (s, c) = acc.resolve();
            let (mut s_ref, mut c_ref) = (0.0f64, 0.0f64);
            for (f, &q) in fracs.iter().zip(&qs) {
                let theta = std::f64::consts::TAU
                    * (n[0] as f64 * f[0] + n[1] as f64 * f[1] + n[2] as f64 * f[2]);
                s_ref += q * theta.sin();
                c_ref += q * theta.cos();
            }
            assert!((s - s_ref).abs() < 5e-6, "n={n:?}: S {s} vs {s_ref}");
            assert!((c - c_ref).abs() < 5e-6, "n={n:?}: C {c} vs {c_ref}");
        }
    }

    #[test]
    fn dft_op_counting() {
        let particles = particles_from(&[[0.1, 0.1, 0.1]; 7], &[1.0; 7]);
        let mut pipe = WinePipeline::new();
        pipe.dft_wave([1, 2, 3], &particles);
        pipe.dft_wave([4, 5, 6], &particles);
        assert_eq!(pipe.ops(), 14);
        pipe.reset_ops();
        assert_eq!(pipe.ops(), 0);
    }

    #[test]
    fn dft_partial_sums_merge_exactly() {
        let fracs: Vec<[f64; 3]> = (0..10)
            .map(|i| [0.05 * i as f64, 0.09 * i as f64, 0.13 * i as f64])
            .collect();
        let qs: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 0.8 } else { -0.8 }).collect();
        let particles = particles_from(&fracs, &qs);
        let mut pipe = WinePipeline::new();
        let whole = pipe.dft_wave([3, -2, 5], &particles);
        let mut left = pipe.dft_wave([3, -2, 5], &particles[..6]);
        let right = pipe.dft_wave([3, -2, 5], &particles[6..]);
        left.merge(&right);
        assert_eq!(left.resolve(), whole.resolve());
    }

    #[test]
    fn idft_matches_f64_reference() {
        let fracs = [[0.12, 0.34, 0.56], [0.9, 0.1, 0.4], [0.25, 0.75, 0.5]];
        let qs = [1.0, 1.0, 1.0];
        let particles = particles_from(&fracs, &qs);
        // Arbitrary but in-range coefficients.
        let wave = IdftWave {
            n: [2, -1, 3],
            u: Q30::from_f64(0.37),
            v: Q30::from_f64(-0.82),
        };
        let mut pipe = WinePipeline::new();
        let mut out = vec![IdftAccum::default(); particles.len()];
        pipe.idft_wave(&wave, &particles, &mut out);
        for (k, f) in fracs.iter().enumerate() {
            let theta = std::f64::consts::TAU
                * (2.0 * f[0] - 1.0 * f[1] + 3.0 * f[2]);
            let g = -0.82 * theta.sin() - 0.37 * theta.cos();
            let expect = [g * 2.0, -g, g * 3.0];
            let got = out[k].to_f64();
            for axis in 0..3 {
                assert!(
                    (got[axis] - expect[axis]).abs() < 3e-6,
                    "particle {k} axis {axis}: {} vs {}",
                    got[axis],
                    expect[axis]
                );
            }
        }
    }

    #[test]
    fn idft_accumulates_across_waves() {
        let particles = particles_from(&[[0.3, 0.6, 0.9]], &[1.0]);
        let w1 = IdftWave {
            n: [1, 0, 0],
            u: Q30::from_f64(0.5),
            v: Q30::from_f64(0.0),
        };
        let w2 = IdftWave {
            n: [0, 2, 0],
            u: Q30::from_f64(0.0),
            v: Q30::from_f64(0.5),
        };
        let mut pipe = WinePipeline::new();
        let mut acc = vec![IdftAccum::default(); 1];
        pipe.idft_wave(&w1, &particles, &mut acc);
        let after_one = acc[0].to_f64();
        pipe.idft_wave(&w2, &particles, &mut acc);
        let after_two = acc[0].to_f64();
        // Second wave has n_x = 0: x-component unchanged, y changed.
        assert_eq!(after_one[0], after_two[0]);
        assert_ne!(after_one[1], after_two[1]);
    }

    #[test]
    fn overdriven_charges_bump_saturation_counter() {
        // Deliberately break the host's `q/q_scale ∈ [-1, 1]` contract:
        // every out-of-range charge must surface in the telemetry
        // counter, not just clamp silently.
        let _scope = mdm_profile::scope();
        let hot = WineParticle::quantize([0.1, 0.2, 0.3], 5.0);
        let cold = WineParticle::quantize([0.4, 0.5, 0.6], -3.0);
        let fine = WineParticle::quantize([0.7, 0.8, 0.9], 0.99);
        assert_eq!(hot.q, Q30::max_value());
        assert_eq!(cold.q, Q30::min_value());
        assert_eq!(fine.q, Q30::from_f64_saturating(0.99));
        assert_eq!(
            mdm_profile::take().counters["wine_q30_saturations"],
            2,
            "exactly the two overdriven charges count"
        );
    }
}
