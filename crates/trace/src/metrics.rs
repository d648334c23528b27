//! Metrics registry: fixed-bucket histograms and counters that ride
//! along inside `RunStats` (everything here is `Copy` so `RunStats`
//! stays `Copy`).

use dtsvliw_json::{FromJson, Json, ToJson};

/// Number of buckets in every [`Histogram`]. The last bucket is an
/// overflow catch-all.
pub const HIST_BUCKETS: usize = 16;

/// How values map onto the 16 buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketScale {
    /// Bucket `i` covers `[i*step, (i+1)*step)`; the final bucket also
    /// absorbs everything above.
    Linear {
        /// Bucket width (values per bucket), >= 1.
        step: u64,
    },
    /// Bucket 0 holds value 0; bucket `i` (1..) covers
    /// `[2^(i-1), 2^i)`; the final bucket absorbs the rest. Suits
    /// heavy-tailed cycle counts (swap gaps, block lifetimes).
    Log2,
}

impl BucketScale {
    fn label(self) -> String {
        match self {
            BucketScale::Linear { step } => format!("linear:{step}"),
            BucketScale::Log2 => "log2".to_string(),
        }
    }

    fn from_label(s: &str) -> Option<Self> {
        if s == "log2" {
            return Some(BucketScale::Log2);
        }
        let step = s.strip_prefix("linear:")?.parse().ok()?;
        Some(BucketScale::Linear { step })
    }
}

/// A fixed-size histogram of `u64` samples with running count/sum/max.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    scale: BucketScale,
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// Linear histogram with the given bucket width (clamped to >= 1).
    pub fn linear(step: u64) -> Self {
        Histogram {
            scale: BucketScale::Linear { step: step.max(1) },
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Power-of-two histogram.
    pub fn log2() -> Self {
        Histogram {
            scale: BucketScale::Log2,
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(&self, v: u64) -> usize {
        let idx = match self.scale {
            BucketScale::Linear { step } => (v / step) as usize,
            BucketScale::Log2 => {
                if v == 0 {
                    0
                } else {
                    // floor(log2(v)) + 1: value 1 → bucket 1, 2..3 → 2, …
                    (64 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
                }
            }
        };
        idx.min(HIST_BUCKETS - 1)
    }

    /// The half-open value range `[lo, hi)` of bucket `i`; `hi` is
    /// `None` for the overflow bucket.
    pub fn bucket_range(&self, i: usize) -> (u64, Option<u64>) {
        assert!(i < HIST_BUCKETS);
        match self.scale {
            BucketScale::Linear { step } => {
                let lo = i as u64 * step;
                if i == HIST_BUCKETS - 1 {
                    (lo, None)
                } else {
                    (lo, Some(lo + step))
                }
            }
            BucketScale::Log2 => match i {
                0 => (0, Some(1)),
                _ if i == HIST_BUCKETS - 1 => (1 << (i - 1), None),
                _ => (1 << (i - 1), Some(1 << i)),
            },
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        let i = self.bucket_index(v);
        self.buckets[i] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Occupancy of bucket `i`.
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Approximate `q`-quantile (`0.0 < q <= 1.0`) by bucket upper
    /// bound: the inclusive upper edge of the first bucket whose
    /// cumulative count reaches `ceil(q × count)`, clamped to the
    /// largest sample actually seen (so a lone sample in a wide bucket
    /// does not overstate the tail). 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for i in 0..HIST_BUCKETS {
            seen += self.buckets[i];
            if seen >= rank {
                let upper = match self.bucket_range(i) {
                    (_, Some(hi)) => hi - 1,
                    (_, None) => self.max,
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// The bucketing scale.
    pub fn scale(&self) -> BucketScale {
        self.scale
    }
}

/// Machine snapshots and external tooling read the [`ToJson`] form
/// back; the derived members (`mean` and the percentiles) are not read.
impl FromJson for Histogram {
    fn from_json(j: &Json) -> Option<Self> {
        Some(Histogram {
            scale: BucketScale::from_label(&j.field::<String>("scale")?)?,
            count: j.field("count")?,
            sum: j.field("sum")?,
            max: j.field("max")?,
            buckets: j.field("buckets")?,
        })
    }
}

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        Json::obj([
            ("scale", Json::Str(self.scale.label())),
            ("count", Json::U64(self.count)),
            ("sum", Json::U64(self.sum)),
            ("max", Json::U64(self.max)),
            ("mean", Json::F64(self.mean())),
            // Derived from the buckets (bucket-upper-bound
            // approximation); deliberately not read back by `from_json`.
            ("p50", Json::U64(self.percentile(0.50))),
            ("p90", Json::U64(self.percentile(0.90))),
            ("p99", Json::U64(self.percentile(0.99))),
            ("p999", Json::U64(self.percentile(0.999))),
            (
                "buckets",
                Json::Arr(self.buckets.iter().map(|b| Json::U64(*b)).collect()),
            ),
        ])
    }
}

/// The simulator's metric registry. Lives inside `RunStats`, updated
/// unconditionally (cheap array increments), serialised with the rest
/// of the stats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metrics {
    /// Occupied-slot count per executed long instruction.
    pub li_slot_occupancy: Histogram,
    /// Long instructions per installed block (block height).
    pub block_height: Histogram,
    /// Occupied slots per installed block (block width x height fill).
    pub block_filled: Histogram,
    /// Cycles between consecutive engine-mode swaps.
    pub swap_gap_cycles: Histogram,
    /// VLIW-cache residence time (cycles) of evicted blocks.
    pub evicted_block_lifetime: Histogram,
    /// Total trace events emitted (0 when tracing is disabled).
    pub trace_events: u64,
    /// Trace events lost to flight-recorder wraparound.
    pub trace_dropped: u64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            li_slot_occupancy: Histogram::linear(1),
            block_height: Histogram::linear(1),
            block_filled: Histogram::linear(4),
            swap_gap_cycles: Histogram::log2(),
            evicted_block_lifetime: Histogram::log2(),
            trace_events: 0,
            trace_dropped: 0,
        }
    }
}

impl Metrics {
    /// Fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Machine snapshots read the [`ToJson`] form back.
impl FromJson for Metrics {
    fn from_json(j: &Json) -> Option<Self> {
        Some(Metrics {
            li_slot_occupancy: j.field("li_slot_occupancy")?,
            block_height: j.field("block_height")?,
            block_filled: j.field("block_filled")?,
            swap_gap_cycles: j.field("swap_gap_cycles")?,
            evicted_block_lifetime: j.field("evicted_block_lifetime")?,
            trace_events: j.field("trace_events")?,
            trace_dropped: j.field("trace_dropped")?,
        })
    }
}

impl ToJson for Metrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("li_slot_occupancy", self.li_slot_occupancy.to_json()),
            ("block_height", self.block_height.to_json()),
            ("block_filled", self.block_filled.to_json()),
            ("swap_gap_cycles", self.swap_gap_cycles.to_json()),
            (
                "evicted_block_lifetime",
                self.evicted_block_lifetime.to_json(),
            ),
            ("trace_events", Json::U64(self.trace_events)),
            ("trace_dropped", Json::U64(self.trace_dropped)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_bucket_boundaries() {
        let h = Histogram::linear(4);
        assert_eq!(h.bucket_index(0), 0);
        assert_eq!(h.bucket_index(3), 0);
        assert_eq!(h.bucket_index(4), 1);
        assert_eq!(h.bucket_index(7), 1);
        assert_eq!(h.bucket_index(8), 2);
        // Overflow clamps into the last bucket.
        assert_eq!(h.bucket_index(4 * 15), 15);
        assert_eq!(h.bucket_index(u64::MAX), 15);
        assert_eq!(h.bucket_range(0), (0, Some(4)));
        assert_eq!(h.bucket_range(15), (60, None));
    }

    #[test]
    fn log2_bucket_boundaries() {
        let h = Histogram::log2();
        assert_eq!(h.bucket_index(0), 0);
        assert_eq!(h.bucket_index(1), 1);
        assert_eq!(h.bucket_index(2), 2);
        assert_eq!(h.bucket_index(3), 2);
        assert_eq!(h.bucket_index(4), 3);
        assert_eq!(h.bucket_index(1 << 13), 14);
        assert_eq!(h.bucket_index((1 << 14) - 1), 14);
        assert_eq!(h.bucket_index(1 << 14), 15);
        assert_eq!(h.bucket_index(u64::MAX), 15);
        assert_eq!(h.bucket_range(0), (0, Some(1)));
        assert_eq!(h.bucket_range(1), (1, Some(2)));
        assert_eq!(h.bucket_range(14), (1 << 13, Some(1 << 14)));
        assert_eq!(h.bucket_range(15), (1 << 14, None));
    }

    #[test]
    fn bucket_ranges_tile_and_match_index() {
        for h in [Histogram::linear(3), Histogram::log2()] {
            for i in 0..HIST_BUCKETS {
                let (lo, hi) = h.bucket_range(i);
                assert_eq!(h.bucket_index(lo), i, "lo of bucket {i}");
                if let Some(hi) = hi {
                    assert_eq!(h.bucket_index(hi - 1), i, "hi-1 of bucket {i}");
                    // Ranges tile: next bucket starts where this ends.
                    if i + 1 < HIST_BUCKETS {
                        assert_eq!(h.bucket_range(i + 1).0, hi);
                    }
                }
            }
        }
    }

    #[test]
    fn record_tracks_count_sum_max_mean() {
        let mut h = Histogram::linear(2);
        assert_eq!(h.mean(), 0.0);
        for v in [1, 2, 3, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 16);
        assert_eq!(h.max(), 10);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.bucket(0), 1); // 1
        assert_eq!(h.bucket(1), 2); // 2, 3
        assert_eq!(h.bucket(5), 1); // 10
    }

    #[test]
    fn percentiles_by_bucket_upper_bound() {
        let mut h = Histogram::linear(1);
        assert_eq!(h.percentile(0.5), 0); // empty
        for v in 1..=10 {
            h.record(v);
        }
        // Step-1 buckets make the approximation exact here.
        assert_eq!(h.percentile(0.50), 5);
        assert_eq!(h.percentile(0.90), 9);
        assert_eq!(h.percentile(0.99), 10);
        assert_eq!(h.percentile(0.999), 10);
        assert_eq!(h.percentile(1.0), 10);

        // Coarse buckets: the answer is the bucket's inclusive upper
        // edge, clamped to the observed max.
        let mut c = Histogram::linear(10);
        c.record(3);
        assert_eq!(c.percentile(0.5), 3); // upper edge 9, clamped to max
        c.record(14);
        assert_eq!(c.percentile(0.99), 14);

        // Overflow bucket reports the observed max.
        let mut o = Histogram::log2();
        o.record(1 << 20);
        assert_eq!(o.percentile(0.5), 1 << 20);

        // p99.9 only leaves the p99 bucket once the tail has weight:
        // 1000 small samples put rank 1000 in the last occupied bucket.
        let mut t = Histogram::linear(1);
        for _ in 0..999 {
            t.record(1);
        }
        t.record(12);
        assert_eq!(t.percentile(0.99), 1);
        assert_eq!(t.percentile(0.999), 1);
        t.record(12); // 1001 samples: rank ceil(0.999*1001)=1000 still 1…
        for _ in 0..8 {
            t.record(12);
        }
        // 999 ones + 10 twelves = 1009 samples; rank ceil(.999*1009)=1008 → bucket 12.
        assert_eq!(t.percentile(0.999), 12);
    }

    #[test]
    fn percentiles_ride_in_json_without_breaking_round_trip() {
        let mut h = Histogram::linear(2);
        for v in [1, 2, 3, 10] {
            h.record(v);
        }
        let j = h.to_json();
        assert_eq!(j.get("p50").and_then(Json::as_u64), Some(h.percentile(0.5)));
        assert_eq!(j.get("p90").and_then(Json::as_u64), Some(h.percentile(0.9)));
        assert_eq!(
            j.get("p99").and_then(Json::as_u64),
            Some(h.percentile(0.99))
        );
        assert_eq!(
            j.get("p999").and_then(Json::as_u64),
            Some(h.percentile(0.999))
        );
        let back = Histogram::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn json_round_trip() {
        let mut h = Histogram::log2();
        for v in [0, 1, 5, 5, 1000, u64::MAX] {
            h.record(v);
        }
        let text = h.to_json().to_string();
        let parsed = Json::parse(&text).expect("parse back");
        let h2 = Histogram::from_json(&parsed).expect("histogram from json");
        assert_eq!(h, h2);

        let mut lin = Histogram::linear(7);
        lin.record(13);
        let lin2 = Histogram::from_json(&Json::parse(&lin.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(lin, lin2);
    }

    #[test]
    fn metrics_round_trip() {
        let mut m = Metrics::new();
        m.block_height.record(6);
        m.swap_gap_cycles.record(900);
        m.trace_events = 4;
        m.trace_dropped = 1;
        let back = Metrics::from_json(&Json::parse(&m.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(m, back);
        assert!(Metrics::from_json(&Json::Null).is_none());
    }

    #[test]
    fn metrics_serialise() {
        let mut m = Metrics::new();
        m.li_slot_occupancy.record(3);
        m.trace_events = 9;
        let j = m.to_json();
        assert_eq!(
            j.get("li_slot_occupancy")
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(j.get("trace_events").and_then(Json::as_u64), Some(9));
    }
}
