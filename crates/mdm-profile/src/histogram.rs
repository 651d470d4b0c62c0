//! Log-bucketed histograms for error-attribution telemetry.
//!
//! The precision seams of the emulated machine (Q30 quantization in
//! WINE-2, f32 quartic table fits in MDGRAPE-2's function evaluator)
//! produce per-element residuals spanning many decades. A
//! [`LogHistogram`] buckets `|value|` on a logarithmic grid —
//! `buckets_per_decade` bins per factor of ten between `10^lo_exp` and
//! `10^hi_exp` — so a fixed, small amount of state captures the whole
//! distribution and percentile queries stay meaningful at any scale.
//!
//! Histograms live in the [`crate::Profile`] registry next to
//! counters (see [`crate::histogram_record`] /
//! [`crate::histogram_merge`]) and serialize through the flight
//! recorder as a sparse JSON object. Hot loops should accumulate into
//! a local `LogHistogram` and merge once per step — the registry takes
//! a mutex per call.

use crate::json::{malformed, obj, Value};

/// A histogram over `|value|` with logarithmically spaced buckets.
///
/// Bucket `i` covers `[10^(lo_exp + i/bpd), 10^(lo_exp + (i+1)/bpd))`.
/// Zero and values below `10^lo_exp` land in `underflow`; values at or
/// above `10^hi_exp`, and non-finite values, land in `overflow`. The
/// observed min/max are tracked exactly so percentile queries can
/// answer from the under/overflow tails.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    lo_exp: i32,
    hi_exp: i32,
    buckets_per_decade: u32,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    /// Smallest recorded `|value|` (`+inf` when empty).
    min: f64,
    /// Largest recorded `|value|` (`0` when empty).
    max: f64,
}

impl LogHistogram {
    /// A histogram spanning `[10^lo_exp, 10^hi_exp)` with
    /// `buckets_per_decade` bins per decade.
    ///
    /// # Panics
    /// If `lo_exp >= hi_exp` or `buckets_per_decade == 0`.
    pub fn new(lo_exp: i32, hi_exp: i32, buckets_per_decade: u32) -> Self {
        assert!(lo_exp < hi_exp, "histogram range must be non-empty");
        assert!(buckets_per_decade > 0, "need at least one bucket per decade");
        let n = (hi_exp - lo_exp) as usize * buckets_per_decade as usize;
        Self {
            lo_exp,
            hi_exp,
            buckets_per_decade,
            counts: vec![0; n],
            underflow: 0,
            overflow: 0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    /// Default geometry for relative-error telemetry: `1e-12 … 10`,
    /// four buckets per decade (52 buckets). Covers everything from
    /// Q30 quantization noise (~`2⁻³¹ ≈ 5e-10`) up to order-one
    /// relative errors.
    pub fn error_default() -> Self {
        Self::new(-12, 1, 4)
    }

    /// `(lo_exp, hi_exp, buckets_per_decade)` — two histograms can be
    /// merged iff these match.
    pub fn geometry(&self) -> (i32, i32, u32) {
        (self.lo_exp, self.hi_exp, self.buckets_per_decade)
    }

    /// Total number of recorded samples (including under/overflow).
    pub fn count(&self) -> u64 {
        self.underflow + self.overflow + self.counts.iter().sum::<u64>()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Samples below `10^lo_exp` (including exact zeros).
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above `10^hi_exp`, plus non-finite samples.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Smallest recorded `|value|`, if any.
    pub fn min(&self) -> Option<f64> {
        if self.is_empty() { None } else { Some(self.min) }
    }

    /// Largest recorded `|value|`, if any.
    pub fn max(&self) -> Option<f64> {
        if self.is_empty() { None } else { Some(self.max) }
    }

    /// Lower edge of bucket `i`: `10^(lo_exp + i/bpd)`.
    pub fn bucket_lo(&self, i: usize) -> f64 {
        let bpd = f64::from(self.buckets_per_decade);
        10f64.powf(f64::from(self.lo_exp) + i as f64 / bpd)
    }

    /// Upper edge of bucket `i` (the lower edge of bucket `i + 1`).
    pub fn bucket_hi(&self, i: usize) -> f64 {
        self.bucket_lo(i + 1)
    }

    /// Raw per-bucket counts (index 0 is the `10^lo_exp` bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Record one sample. `|value|` is bucketed; zero and
    /// below-range values count as underflow, out-of-range and
    /// non-finite values as overflow.
    pub fn record(&mut self, value: f64) {
        let v = value.abs();
        if !v.is_finite() {
            self.overflow += 1;
            return;
        }
        if v > self.max {
            self.max = v;
        }
        if v < self.min {
            self.min = v;
        }
        if v == 0.0 {
            self.underflow += 1;
            return;
        }
        let bpd = f64::from(self.buckets_per_decade);
        let pos = (v.log10() - f64::from(self.lo_exp)) * bpd;
        if pos < 0.0 {
            self.underflow += 1;
        } else if pos >= self.counts.len() as f64 {
            self.overflow += 1;
        } else {
            self.counts[pos as usize] += 1;
        }
    }

    /// Merge another histogram of identical geometry into this one.
    ///
    /// # Panics
    /// If the geometries differ — merging incompatible grids would
    /// silently misattribute counts.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(
            self.geometry(),
            other.geometry(),
            "cannot merge histograms with different bucket geometry"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        if other.count() > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Upper bound for the `q`-quantile (`q` in `[0, 1]`): the upper
    /// edge of the first bucket whose cumulative count reaches
    /// `q · count()`. The underflow tail answers with the observed
    /// min's bucket floor (`10^lo_exp` at most), the overflow tail
    /// with the observed max. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the requested quantile, 1-based: ceil(q·total), at least 1.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cum = self.underflow;
        if rank <= cum {
            return Some(self.min.min(self.bucket_lo(0)));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if rank <= cum {
                return Some(self.bucket_hi(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median upper bound — `percentile(0.5)`.
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// 99th-percentile upper bound — `percentile(0.99)`.
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }

    /// Serialize to the flight-recorder JSON form. Bucket counts are
    /// sparse (`{"index": count}` for non-zero buckets only) so an
    /// empty or narrow distribution costs a few bytes per step.
    pub fn to_json(&self) -> Value {
        let mut counts = std::collections::BTreeMap::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                counts.insert(i.to_string(), Value::from_u64(c));
            }
        }
        obj([
            ("lo_exp", Value::Num(f64::from(self.lo_exp))),
            ("hi_exp", Value::Num(f64::from(self.hi_exp))),
            ("buckets_per_decade", Value::Num(f64::from(self.buckets_per_decade))),
            ("underflow", Value::from_u64(self.underflow)),
            ("overflow", Value::from_u64(self.overflow)),
            ("min", Value::from_f64(self.min)),
            ("max", Value::from_f64(self.max)),
            ("counts", Value::Obj(counts)),
        ])
    }

    /// Parse the [`Self::to_json`] form back; a malformed or
    /// geometry-less object is an error.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let lo_exp = v.req_f64("lo_exp")? as i32;
        let hi_exp = v.req_f64("hi_exp")? as i32;
        let bpd = v.req_f64("buckets_per_decade")? as u32;
        if lo_exp >= hi_exp || bpd == 0 {
            return Err(malformed("lo_exp"));
        }
        let mut h = Self::new(lo_exp, hi_exp, bpd);
        h.underflow = v.req_u64("underflow")?;
        h.overflow = v.req_u64("overflow")?;
        h.min = v.req_f64("min")?;
        h.max = v.req_f64("max")?;
        if let Some(Value::Obj(counts)) = v.get("counts") {
            for (k, c) in counts {
                let slot = k.parse().ok().and_then(|i: usize| h.counts.get_mut(i));
                *slot.ok_or_else(|| malformed("counts"))? =
                    c.as_u64().ok_or_else(|| malformed("counts"))?;
            }
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        // One bucket per decade over [1e-3, 1): three buckets.
        let mut h = LogHistogram::new(-3, 0, 1);
        assert_eq!(h.bucket_counts().len(), 3);
        assert!((h.bucket_lo(0) - 1e-3).abs() < 1e-18);
        assert!((h.bucket_hi(2) - 1.0).abs() < 1e-12);

        h.record(1e-3); // exact lower edge → bucket 0
        h.record(5e-3); // mid bucket 0
        h.record(0.05); // bucket 1
        h.record(0.5); // bucket 2
        h.record(1.0); // at hi edge → overflow
        h.record(1e-4); // below range → underflow
        h.record(0.0); // zero → underflow
        h.record(f64::NAN); // non-finite → overflow
        h.record(-0.05); // |value| → bucket 1

        assert_eq!(h.bucket_counts(), &[2, 2, 1]);
        assert_eq!(h.underflow(), 2);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(1.0));
    }

    #[test]
    fn sub_decade_buckets() {
        let h0 = LogHistogram::new(0, 1, 4);
        assert_eq!(h0.bucket_counts().len(), 4);
        // Edges at 10^(i/4): 1, 1.778, 3.162, 5.623, 10.
        let mut h = h0.clone();
        h.record(1.5);
        h.record(2.0);
        h.record(4.0);
        h.record(9.0);
        assert_eq!(h.bucket_counts(), &[1, 1, 1, 1]);
    }

    #[test]
    fn merge_associativity_and_geometry_guard() {
        let samples_a = [1e-6, 3e-4, 0.2];
        let samples_b = [5e-9, 5e-9, 0.9, 2.0];
        let samples_c = [0.0, 1e-11, 7e-3];
        let fill = |vals: &[f64]| {
            let mut h = LogHistogram::error_default();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (fill(&samples_a), fill(&samples_b), fill(&samples_c));

        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // Merge equals recording everything into one histogram.
        let mut all = LogHistogram::error_default();
        for &v in samples_a.iter().chain(&samples_b).chain(&samples_c) {
            all.record(v);
        }
        assert_eq!(ab_c, all);

        let result = std::panic::catch_unwind(move || {
            let mut x = LogHistogram::new(-3, 0, 1);
            x.merge(&LogHistogram::new(-3, 0, 2));
        });
        assert!(result.is_err(), "geometry mismatch must panic");
    }

    #[test]
    fn percentile_queries() {
        let mut h = LogHistogram::new(-6, 0, 1);
        // 98 samples near 1e-5 (bucket [-5,-4)), 2 near 0.5 (bucket [-1,0)).
        for _ in 0..98 {
            h.record(2e-5);
        }
        h.record(0.4);
        h.record(0.5);
        // p50 and p90 resolve to the small bucket's upper edge.
        assert!((h.p50().unwrap() - 1e-4).abs() / 1e-4 < 1e-9);
        assert!((h.percentile(0.9).unwrap() - 1e-4).abs() / 1e-4 < 1e-9);
        // p99 lands in the big-residual bucket, capped by observed max.
        assert!((h.p99().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(h.percentile(1.0), Some(0.5));

        // All-underflow histogram answers from the observed min.
        let mut u = LogHistogram::new(-3, 0, 1);
        u.record(1e-7);
        assert_eq!(u.p50(), Some(1e-7));

        assert_eq!(LogHistogram::error_default().p50(), None);
    }

    #[test]
    fn json_round_trip() {
        let mut h = LogHistogram::error_default();
        for &v in &[1e-9, 3e-9, 2e-4, 0.0, f64::INFINITY] {
            h.record(v);
        }
        let back = LogHistogram::from_json(&h.to_json()).unwrap();
        assert_eq!(h, back);

        // Empty histogram round-trips (min = +inf survives via the
        // non-finite JSON sentinels).
        let empty = LogHistogram::error_default();
        let back = LogHistogram::from_json(&empty.to_json()).unwrap();
        assert_eq!(empty, back);
        assert!(back.is_empty());
    }
}
