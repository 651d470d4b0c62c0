//! The evaluation datapath.

use crate::segments::{SegmentHit, Segmentation};
use crate::table::FunctionTable;
use crate::POLY_COEFFS;

/// The function evaluator proper: address decode + coefficient RAM read +
/// 4th-order Horner evaluation, all in IEEE 754 single precision like the
/// silicon (§3.5.4).
#[derive(Clone, Debug)]
pub struct FunctionEvaluator {
    table: FunctionTable,
}

/// The shared scalar core of [`FunctionEvaluator::eval`] and
/// [`FunctionEvaluator::eval_batch`]: one address decode, one coefficient
/// RAM read, one quartic Horner sweep, all in `f32`.
///
/// Both entry points funnel through this function so that batch
/// evaluation is **bitwise identical** per element to scalar evaluation
/// — the equivalence the emulator's batched j-cell pipeline relies on.
#[inline(always)]
fn eval_one(seg: Segmentation, rows: &[[f32; POLY_COEFFS]], x: f32) -> f32 {
    match seg.locate(x) {
        SegmentHit::In { index, t } => {
            let c = &rows[index];
            ((((c[4] * t) + c[3]) * t + c[2]) * t + c[1]) * t + c[0]
        }
        SegmentHit::Below => rows[0][0],
        SegmentHit::Above => 0.0,
    }
}

impl FunctionEvaluator {
    /// Wire the evaluator to a coefficient RAM image.
    pub fn new(table: FunctionTable) -> Self {
        Self { table }
    }

    /// Swap in a new RAM image (what `MR1SetTable` ultimately does).
    pub fn load_table(&mut self, table: FunctionTable) {
        self.table = table;
    }

    /// The loaded table.
    pub fn table(&self) -> &FunctionTable {
        &self.table
    }

    /// Evaluate `g(x)`.
    ///
    /// * In range: quartic Horner in `f32`.
    /// * Below range (including `x == 0`): the first segment's `t = 0`
    ///   value — finite, harmless, multiplied by `r⃗ = 0⃗` downstream.
    /// * Above range: `0.0` (the kernel tail has decayed).
    #[inline]
    pub fn eval(&self, x: f32) -> f32 {
        eval_one(self.table.segmentation(), self.table.rows(), x)
    }

    /// Evaluate a whole batch of inputs in one call — the emulator's
    /// j-cell dispatch granularity.
    ///
    /// # Batch-evaluation contract
    ///
    /// * `out[k]` is **bitwise identical** to `self.eval(xs[k])` for
    ///   every `k` — batching changes dispatch cost only, never a bit of
    ///   the result. A test pins this for every out-of-range class.
    /// * The segmentation and coefficient RAM are read once up front and
    ///   held across the sweep; the per-element work is the pure address
    ///   decode + Horner datapath with no repeated table indirection.
    /// * Out-of-range inputs follow the scalar conventions: below range
    ///   (including `x <= 0` and NaN) yields the first segment's `t = 0`
    ///   value; at or above range yields `0.0`.
    ///
    /// # Panics
    /// Panics if `xs` and `out` differ in length.
    ///
    /// # Implementation
    ///
    /// The sweep is split in two, mirroring the silicon's pipelined
    /// address decode feeding the coefficient RAM: a pure-integer decode
    /// sweep producing `(segment, t)` for a chunk of inputs, then a
    /// gather + Horner sweep over the chunk. Splitting keeps the decode
    /// loop free of the FP latency chain and lets the out-of-order core
    /// overlap independent Horner evaluations; every per-element
    /// operation is the same as [`Segmentation::locate`] + the quartic
    /// Horner of [`Self::eval`], so results are bit-for-bit unchanged.
    pub fn eval_batch(&self, xs: &[f32], out: &mut [f32]) {
        assert_eq!(xs.len(), out.len());
        let seg = self.table.segmentation();
        let rows = self.table.rows();
        let (e_min, e_max, mbits) = (seg.e_min, seg.e_max, seg.mantissa_bits);
        let rem_bits = 23 - mbits;
        // 2^-rem_bits: exact, so `rem * t_scale` is bitwise identical to
        // the `rem / 2^rem_bits` the scalar decode performs.
        let t_scale = f32::from_bits((127 - rem_bits) << 23);
        /// Sentinel for below-range lanes (including `x <= 0` and NaN).
        const BELOW: u32 = u32::MAX;
        /// Sentinel for at-or-above-range lanes.
        const ABOVE: u32 = u32::MAX - 1;
        const CHUNK: usize = 64;
        let mut idx_buf = [0u32; CHUNK];
        let mut t_buf = [0.0f32; CHUNK];
        for (xc, oc) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            let m = xc.len();
            let (idx, ts) = (&mut idx_buf[..m], &mut t_buf[..m]);
            for k in 0..m {
                let v = xc[k];
                let bits = v.to_bits();
                let exp = ((bits >> 23) & 0xff) as i32 - 127;
                let mantissa = bits & 0x7f_ffff;
                let sub = mantissa >> rem_bits;
                let raw = (((exp - e_min) as u32) << mbits) | sub;
                let rem = mantissa & ((1u32 << rem_bits) - 1);
                ts[k] = rem as f32 * t_scale;
                // Same classification as `Segmentation::locate`: zero,
                // negative, NaN and ±inf land below/above range.
                idx[k] = if v <= 0.0 || !v.is_finite() || exp < e_min {
                    BELOW
                } else if exp >= e_max {
                    ABOVE
                } else {
                    raw
                };
            }
            for k in 0..m {
                let index = idx[k];
                oc[k] = if index < ABOVE {
                    let c = &rows[index as usize];
                    let t = ts[k];
                    ((((c[4] * t) + c[3]) * t + c[2]) * t + c[1]) * t + c[0]
                } else if index == BELOW {
                    rows[0][0]
                } else {
                    0.0
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segments::Segmentation;

    fn evaluator_for<F: Fn(f64) -> f64>(g: F) -> FunctionEvaluator {
        let seg = Segmentation::HARDWARE_DEFAULT;
        FunctionEvaluator::new(FunctionTable::generate("t", seg, g).unwrap())
    }

    #[test]
    fn evaluates_smooth_kernel_to_f32_accuracy() {
        let g = |x: f64| 2.0 * x.powf(-3.5).min(1e6) * (-x / 10.0).exp();
        let ev = evaluator_for(g);
        for &x in &[0.01f32, 0.5, 1.0, 7.0, 100.0] {
            let approx = ev.eval(x) as f64;
            let exact = g(x as f64);
            assert!(
                (approx - exact).abs() / exact.abs() < 1e-5,
                "x={x}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn below_range_is_finite() {
        let ev = evaluator_for(|x| 1.0 / (x + 1e-30));
        let v = ev.eval(0.0);
        assert!(v.is_finite());
        // and equals the left edge value of the domain
        let edge = ev.table().segmentation().x_min();
        assert!((v as f64 - 1.0 / (edge + 1e-30)).abs() / (1.0 / edge) < 1e-2);
    }

    #[test]
    fn above_range_is_zero() {
        let ev = evaluator_for(|x| (-x).exp());
        assert_eq!(ev.eval(1e20), 0.0);
    }

    #[test]
    fn eval_batch_matches_scalar_for_every_input_class() {
        let ev = evaluator_for(|x| x.sqrt());
        let seg = ev.table().segmentation();
        let mut xs = vec![
            0.25f32,
            1.0,
            4.0,
            16.0,
            0.0,
            -0.0,
            -1.0,
            f32::from_bits(1), // subnormal
            (seg.x_min() * 0.75) as f32,
            seg.x_min() as f32,
            seg.x_max() as f32,
            f32::from_bits((seg.x_max() as f32).to_bits() - 1),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        // Longer than one decode chunk, so the chunk seam is crossed.
        xs.extend((0..100).map(|k| 1.0e-3 * 1.37f32.powi(k)));
        let mut out = vec![0.0f32; xs.len()];
        ev.eval_batch(&xs, &mut out);
        for (x, o) in xs.iter().zip(out) {
            assert_eq!(ev.eval(*x).to_bits(), o.to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn load_table_swaps_function() {
        let mut ev = evaluator_for(|_| 1.0);
        assert!((ev.eval(1.0) - 1.0).abs() < 1e-6);
        let seg = Segmentation::HARDWARE_DEFAULT;
        ev.load_table(FunctionTable::generate("two", seg, |_| 2.0).unwrap());
        assert!((ev.eval(1.0) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn continuity_across_segment_edges() {
        // Both-endpoint Chebyshev nodes make neighbouring quartics agree
        // at shared edges up to f32 rounding.
        let g = |x: f64| (-x).exp() * x.sqrt();
        let ev = evaluator_for(g);
        let seg = ev.table().segmentation();
        for index in 600..700 {
            let edge = seg.segment_hi(index) as f32;
            let left = ev.eval(f32::from_bits(edge.to_bits() - 1)) as f64;
            let right = ev.eval(edge) as f64;
            let scale = left.abs().max(right.abs()).max(1e-12);
            assert!(
                ((left - right) / scale).abs() < 1e-4,
                "segment {index}: {left} vs {right}"
            );
        }
    }
}
