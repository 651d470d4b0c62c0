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
//!
//! `record` takes no logarithm: each geometry has a table of bucket
//! edges — the smallest `f64` the rule `floor((log10 v − lo_exp)·bpd)`
//! puts in each bucket — found by bisection on bit patterns the first
//! time the geometry is built and shared by every histogram of it. A
//! sample's binary exponent indexes the first edge that can lie above
//! it, so it costs one or two comparisons.
//!
//! A geometry read back from JSON may hold at most [`MAX_BUCKETS`]
//! buckets, so a hostile or corrupt file cannot make the reader allocate
//! or bisect without bound.

use crate::json::{malformed, obj, Value};
use std::sync::{Arc, Mutex, PoisonError};

/// Most buckets [`LogHistogram::from_json`] accepts (the error default
/// has 52).
pub const MAX_BUCKETS: usize = 4096;

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
    /// [`EdgeTable::of`] the geometry.
    edges: Edges,
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
            edges: Edges(EdgeTable::of(lo_exp, hi_exp, buckets_per_decade)),
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
        match self.edges.0.at_or_below(v) {
            0 => self.underflow += 1,
            p if p > self.counts.len() => self.overflow += 1,
            p => self.counts[p - 1] += 1,
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
        let buckets = (i64::from(hi_exp) - i64::from(lo_exp)).saturating_mul(i64::from(bpd));
        if buckets > MAX_BUCKETS as i64 {
            return Err(malformed("buckets_per_decade"));
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

/// Where the logarithmic rule puts a finite `v > 0`: `-1` below the
/// range, `len` at or above it, else `floor((log10 v − lo_exp)·bpd)`.
fn position_by_log(v: f64, lo_exp: i32, buckets_per_decade: u32, len: usize) -> isize {
    let pos = (v.log10() - f64::from(lo_exp)) * f64::from(buckets_per_decade);
    if pos < 0.0 {
        -1
    } else if pos >= len as f64 {
        len as isize
    } else {
        pos as isize
    }
}

/// A histogram's [`EdgeTable`]. It is a function of the geometry, which
/// the histogram compares itself, so any two are equal.
#[derive(Clone, Debug)]
struct Edges(Arc<EdgeTable>);

impl PartialEq for Edges {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// The bucket edges of a geometry, and where to start looking for a
/// sample among them.
struct EdgeTable {
    /// Entry `k` (for `k` in `0..=len`) is the smallest positive finite
    /// `f64` that [`position_by_log`] puts at position `k` or above,
    /// `+inf` if none: bucket `k` is `[edges[k], edges[k + 1])`.
    edges: Box<[f64]>,
    /// Per biased binary exponent `E`, how many edges are at or below
    /// the smallest positive `f64` of exponent `E` (0 for subnormals).
    by_exponent: Box<[u32]>,
}

impl std::fmt::Debug for EdgeTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EdgeTable({} edges)", self.edges.len())
    }
}

impl EdgeTable {
    /// The table of a geometry: built by bisection on bit patterns — the
    /// order of positive floats — once per geometry per process for the
    /// first [`Self::CACHED`] geometries, and per call after that.
    fn of(lo_exp: i32, hi_exp: i32, buckets_per_decade: u32) -> Arc<Self> {
        type Tables = Vec<((i32, i32, u32), Arc<EdgeTable>)>;
        static TABLES: Mutex<Tables> = Mutex::new(Vec::new());
        let geometry = (lo_exp, hi_exp, buckets_per_decade);
        let mut tables = TABLES.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, table)) = tables.iter().find(|(g, _)| *g == geometry) {
            return Arc::clone(table);
        }
        let len = (hi_exp - lo_exp) as usize * buckets_per_decade as usize;
        let position =
            |bits: u64| position_by_log(f64::from_bits(bits), lo_exp, buckets_per_decade, len);
        let largest = f64::MAX.to_bits();
        let edges: Box<[f64]> = (0..=len as isize)
            .map(|k| {
                if position(largest) < k {
                    return f64::INFINITY;
                }
                // Smallest bit pattern in [1, largest] at position ≥ k.
                let (mut lo, mut hi) = (1u64, largest);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if position(mid) >= k {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                f64::from_bits(lo)
            })
            .collect();
        let by_exponent = (0..1u64 << 11)
            .map(|e| edges.partition_point(|&edge| edge <= f64::from_bits(e << 52)) as u32)
            .collect();
        let table = Arc::new(Self { edges, by_exponent });
        if tables.len() < Self::CACHED {
            tables.push((geometry, Arc::clone(&table)));
        }
        table
    }

    /// Geometries kept for the life of the process.
    const CACHED: usize = 16;

    /// How many edges are at or below a finite `v ≥ 0`: 0 below the
    /// range, `len + 1` at or above it, else one more than `v`'s bucket.
    /// Only the edges inside `v`'s binade are searched.
    #[inline]
    fn at_or_below(&self, v: f64) -> usize {
        let exponent = (v.to_bits() >> 52) as usize;
        let (first, end) = (self.by_exponent[exponent], self.by_exponent[exponent + 1]);
        let binade = &self.edges[first as usize..end as usize];
        first as usize + binade.partition_point(|&edge| edge <= v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_table_buckets_as_the_logarithm_does() {
        // The old rule, sample by sample, as the oracle.
        fn by_log(h: &LogHistogram, v: f64) -> LogHistogram {
            let mut want = LogHistogram::new(h.lo_exp, h.hi_exp, h.buckets_per_decade);
            let v = v.abs();
            match position_by_log(v, h.lo_exp, h.buckets_per_decade, h.counts.len()) {
                _ if v == 0.0 => want.underflow += 1,
                -1 => want.underflow += 1,
                p if p as usize == h.counts.len() => want.overflow += 1,
                p => want.counts[p as usize] += 1,
            }
            want.min = v;
            want.max = v;
            want
        }
        fn check(lo: i32, hi: i32, bpd: u32, v: f64) {
            let mut got = LogHistogram::new(lo, hi, bpd);
            got.record(v);
            let want = by_log(&got, v);
            assert_eq!(got.counts, want.counts, "{v:e} in ({lo}, {hi}, {bpd})");
            assert_eq!((got.underflow, got.overflow), (want.underflow, want.overflow), "{v:e}");
        }
        let geometries = [(-12, 1, 4), (-3, 0, 1), (-6, 0, 1), (0, 1, 4), (-12, -6, 2), (-13, 3, 7)];
        // 2 M log-uniform samples over [1e-13, 1e2].
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..2_000_000 {
            let (lo, hi, bpd) = geometries[i % geometries.len()];
            check(lo, hi, bpd, 10f64.powf(-13.0 + 15.0 * next()));
        }
        // ±4 ulps around every edge of every geometry.
        for (lo, hi, bpd) in geometries {
            for &edge in EdgeTable::of(lo, hi, bpd).edges.iter() {
                let mut v = edge;
                for _ in 0..4 {
                    v = v.next_down();
                }
                for _ in 0..9 {
                    check(lo, hi, bpd, v);
                    v = v.next_up();
                }
            }
        }
    }

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

        // A geometry past `MAX_BUCKETS` is refused before anything is
        // allocated or bisected; one at the limit reads back.
        let widest = LogHistogram::new(0, 1, MAX_BUCKETS as u32);
        assert_eq!(LogHistogram::from_json(&widest.to_json()).unwrap(), widest);
        let mut wider = widest.to_json();
        if let Value::Obj(fields) = &mut wider {
            fields.insert("buckets_per_decade".into(), Value::Num(MAX_BUCKETS as f64 + 1.0));
        }
        assert!(LogHistogram::from_json(&wider).is_err());
    }
}
