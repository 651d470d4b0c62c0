//! The coefficient RAM and its generator.

use crate::fit::{chebyshev_nodes5, polyfit5};
use crate::segments::Segmentation;
use crate::POLY_COEFFS;
use std::sync::Arc;

/// Errors from table generation.
#[derive(Debug, Clone, PartialEq)]
pub enum TableBuildError {
    /// `g` returned a non-finite value at a sample point inside the domain.
    NonFiniteSample {
        /// The segment in which the bad sample occurred.
        segment: usize,
        /// The sample abscissa.
        x: f64,
    },
    /// A fitted coefficient does not fit in `f32`.
    CoefficientOverflow {
        /// The segment whose coefficient overflowed.
        segment: usize,
    },
}

impl std::fmt::Display for TableBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFiniteSample { segment, x } => {
                write!(f, "g(x) non-finite at x={x} (segment {segment})")
            }
            Self::CoefficientOverflow { segment } => {
                write!(f, "fitted coefficient overflows f32 in segment {segment}")
            }
        }
    }
}

impl std::error::Error for TableBuildError {}

/// A complete function table: segmentation plus per-segment quartic
/// coefficients stored in `f32` (the precision of the hardware RAM).
///
/// Out-of-range behaviour mirrors the hardware conventions:
/// * below range (`x < 2^e_min`, including the `r = 0` self pair) the
///   table answers with the *first segment's* value at `t = 0` — a
///   finite number that the pipeline then multiplies by `r⃗ = 0⃗`;
/// * above range the answer is `0` — by construction the covered range
///   extends far past the cutoff where every force kernel has decayed
///   to a negligible value.
///
/// The image is immutable once generated and held behind `Arc`s, so a
/// clone — what every `MR1SetTable` fan-out to the emulated pipelines
/// does — is two reference-count bumps, not a copy of the RAM.
#[derive(Clone, Debug)]
pub struct FunctionTable {
    seg: Segmentation,
    /// Exactly `seg.segment_count()` rows of 5 coefficients, `c0..c4` of
    /// the quartic in the normalised coordinate `t` (the vector lookup
    /// in `mdgrape2` relies on the row count matching the segmentation).
    coeffs: Arc<[[f32; POLY_COEFFS]]>,
    /// Human-readable label (shows up in diagnostics / topology dumps).
    name: Arc<str>,
    /// Worst fit residual observed at generation time, relative to the
    /// table's largest |g| (see [`FunctionTable::fit_residual_max`]).
    fit_residual_max: f64,
}

impl FunctionTable {
    /// Generate a table for `g` over `seg` — the paper's table-building
    /// utility. `g` is sampled at five Chebyshev points per segment.
    ///
    /// As a numeric-health check, each segment's stored (f32) quartic
    /// is re-evaluated at the midpoints between the fit nodes and
    /// compared against `g`; the worst absolute residual, relative to
    /// the largest |g| of the whole table, is kept on the table and
    /// published to the telemetry registry as the
    /// `funceval_fit_residual_p12_max` counter (units of 10⁻¹²). A
    /// quietly mis-segmented or under-resolved kernel shows up there
    /// instead of only in force errors downstream. (Scaled by each
    /// segment's own |g| instead, the segments far past the cutoff,
    /// where g is ~10⁻²⁹ of its peak, would swamp it.)
    pub fn generate<F>(name: &str, seg: Segmentation, g: F) -> Result<Self, TableBuildError>
    where
        F: Fn(f64) -> f64,
    {
        let nodes = chebyshev_nodes5();
        let count = seg.segment_count();
        let mut coeffs = Vec::with_capacity(count);
        let (mut residual_max, mut g_max) = (0.0f64, 0.0f64);
        for index in 0..count {
            let lo = seg.segment_lo(index);
            let hi = seg.segment_hi(index);
            let width = hi - lo;
            let mut values = [0.0f64; 5];
            for (k, v) in values.iter_mut().enumerate() {
                let x = lo + nodes[k] * width;
                let y = g(x);
                if !y.is_finite() {
                    return Err(TableBuildError::NonFiniteSample { segment: index, x });
                }
                *v = y;
            }
            let c = polyfit5(&nodes, &values);
            let mut row = [0.0f32; POLY_COEFFS];
            for (k, &cf) in c.iter().enumerate() {
                let as32 = cf as f32;
                if !as32.is_finite() {
                    return Err(TableBuildError::CoefficientOverflow { segment: index });
                }
                row[k] = as32;
            }
            // Residual probe between the fit nodes, evaluated with the
            // stored f32 row exactly as the hardware Horner datapath
            // will; a segment whose nodes all read 0 fits 0 and is not
            // probed.
            let scale = values.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            g_max = g_max.max(scale);
            if scale > 0.0 {
                for k in 0..4 {
                    let t = 0.5 * (nodes[k] + nodes[k + 1]);
                    let y = g(lo + t * width);
                    if !y.is_finite() {
                        return Err(TableBuildError::NonFiniteSample {
                            segment: index,
                            x: lo + t * width,
                        });
                    }
                    let t32 = t as f32;
                    let horner =
                        ((((row[4] * t32) + row[3]) * t32 + row[2]) * t32 + row[1]) * t32 + row[0];
                    residual_max = residual_max.max((horner as f64 - y).abs());
                }
            }
            coeffs.push(row);
        }
        let fit_residual_max = if g_max > 0.0 { residual_max / g_max } else { 0.0 };
        let residual_p12 = (fit_residual_max * 1e12).round().min(u64::MAX as f64) as u64;
        mdm_profile::counter_max("funceval_fit_residual_p12_max", residual_p12);
        Ok(Self {
            seg,
            coeffs: coeffs.into(),
            name: name.into(),
            fit_residual_max,
        })
    }

    /// The worst fit residual measured at generation time:
    /// `max |quartic(t) − g(x)| / max_table|g|`, probed at the midpoints
    /// between the Chebyshev fit nodes with the f32 coefficient row the
    /// hardware actually stores.
    pub fn fit_residual_max(&self) -> f64 {
        self.fit_residual_max
    }

    /// The segmentation this table was built for.
    pub fn segmentation(&self) -> Segmentation {
        self.seg
    }

    /// The coefficient row for `segment` (the RAM word).
    #[inline]
    pub fn coefficients(&self, segment: usize) -> &[f32; POLY_COEFFS] {
        &self.coeffs[segment]
    }

    /// All coefficient rows (for RAM-image uploads in the emulator).
    pub fn rows(&self) -> &[[f32; POLY_COEFFS]] {
        &self.coeffs
    }

    /// The table label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// RAM image size in bytes (5 × 4 bytes per segment).
    pub fn ram_bytes(&self) -> usize {
        self.coeffs.len() * POLY_COEFFS * 4
    }

    /// Measure the worst relative error of the table against `g` by dense
    /// sampling inside `[x_lo, x_hi]` (used by tests and EXPERIMENTS.md).
    /// Points where `|g| < floor` are compared absolutely against `floor`
    /// to avoid dividing by ~0 near kernel zero crossings.
    pub fn measured_max_rel_error<F>(&self, g: F, x_lo: f64, x_hi: f64, samples: usize, floor: f64) -> f64
    where
        F: Fn(f64) -> f64,
    {
        let eval = crate::eval::FunctionEvaluator::new(self.clone());
        let mut max_err = 0.0f64;
        let log_lo = x_lo.ln();
        let log_hi = x_hi.ln();
        for i in 0..samples {
            let x = (log_lo + (log_hi - log_lo) * i as f64 / (samples - 1) as f64).exp();
            let approx = eval.eval(x as f32) as f64;
            let exact = g(x);
            let denom = exact.abs().max(floor);
            max_err = max_err.max((approx - exact).abs() / denom);
        }
        max_err
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_rejects_singular_kernel_at_zero_if_domain_includes_blowup() {
        // 1/x over a domain reaching down to 2^-126 is fine (finite), but a
        // kernel that produces inf must error.
        let seg = Segmentation::new(-2, 2, 2);
        let res = FunctionTable::generate("bad", seg, |_x| f64::INFINITY);
        assert!(matches!(res, Err(TableBuildError::NonFiniteSample { .. })));
    }

    #[test]
    fn generate_sizes_and_accessors() {
        let seg = Segmentation::new(0, 2, 3);
        let t = FunctionTable::generate("lin", seg, |x| 2.0 * x).unwrap();
        assert_eq!(t.rows().len(), 16);
        assert_eq!(t.ram_bytes(), 16 * 20);
        assert_eq!(t.name(), "lin");
    }

    #[test]
    fn linear_function_fits_exactly() {
        let seg = Segmentation::new(-4, 4, 2);
        let t = FunctionTable::generate("lin", seg, |x| 3.0 * x - 1.0).unwrap();
        // floor = 1.0: near the zero crossing at x = 1/3 the error is
        // measured absolutely against the function's natural scale.
        let err = t.measured_max_rel_error(|x| 3.0 * x - 1.0, 0.07, 15.0, 5_000, 1.0);
        assert!(err < 1e-5, "err = {err}");
    }

    #[test]
    fn fit_residual_tracks_approximation_quality() {
        let _scope = mdm_profile::scope();
        // A quartic fits a line exactly: residual at f32 rounding level.
        let seg = Segmentation::new(-4, 4, 2);
        let line = FunctionTable::generate("lin", seg, |x| 3.0 * x - 1.0).unwrap();
        assert!(
            line.fit_residual_max() < 1e-6,
            "line residual {}",
            line.fit_residual_max()
        );
        // A hard kernel on a coarse segmentation leaves a visibly
        // larger residual — the counter's whole purpose.
        let coarse = Segmentation::new(-2, 4, 1);
        let rough = FunctionTable::generate("rough", coarse, |x| (-3.0 * x).exp() * x.sin())
            .unwrap();
        assert!(
            rough.fit_residual_max() > line.fit_residual_max(),
            "rough {} vs line {}",
            rough.fit_residual_max(),
            line.fit_residual_max()
        );
        // And it lands in the telemetry registry as a `_max` counter.
        let profile = mdm_profile::take();
        assert!(profile.counters.contains_key("funceval_fit_residual_p12_max"));
    }

    #[test]
    fn hardware_error_matches_paper_order_of_magnitude() {
        // The paper quotes ~1e-7 relative pairwise-force accuracy. Within
        // the physical range (x = α²r²/L² up to the cutoff, x ≲ s_r² ≈ 7)
        // the evaluator error on a smooth decaying kernel is at the
        // f32-quantisation level. Beyond the cutoff the segments grow
        // wide relative to the e⁻ˣ decay length and the quartic fit error
        // rises to ~1e-5 relative — but there g itself is < 1e-7 of its
        // cutoff value, so the absolute force error stays negligible.
        let seg = Segmentation::HARDWARE_DEFAULT;
        let g = |x: f64| (-x).exp() / (x + 0.1);
        let t = FunctionTable::generate("exp-kernel", seg, g).unwrap();
        let err_core = t.measured_max_rel_error(g, 1e-6, 7.0, 20_000, 1e-30);
        assert!(err_core < 2e-6, "core-range err = {err_core}");
        assert!(err_core > 1e-9, "suspiciously exact: err = {err_core}");
        // Tail: relative error grows but absolute error stays tiny.
        let err_tail = t.measured_max_rel_error(g, 7.0, 30.0, 5_000, 1e-30);
        assert!(err_tail < 3e-4, "tail err = {err_tail}");
    }
}
