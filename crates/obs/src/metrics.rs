//! A lock-free, sharded metrics registry: counters and fixed-bucket
//! log2 histograms, snapshot-on-demand.
//!
//! Writers never contend on a lock: every metric is an array of
//! cache-line-padded shards, and each thread picks its shard by
//! SplitMix64-mixing a per-thread tag — uniform shard spread without
//! any coordination.
//!
//! # Ordering contract
//!
//! Every shard cell is updated and read with `Relaxed` ordering, and
//! that is a *contract*, not an accident:
//!
//! - Updates are always `fetch_add` (never load-then-store), so no
//!   increment can be lost regardless of interleaving — each shard's
//!   value is monotone non-decreasing.
//! - A snapshot sums the shards with `Relaxed` loads and therefore
//!   carries no happens-before edge of its own: while writers are
//!   live it may be *torn across shards* (the sum need not equal the
//!   registry's state at any single instant), but it is always
//!   monotone between two snapshots by one thread, and never exceeds
//!   what has been written.
//! - Exactness comes from the caller's synchronization, not the
//!   registry's: the sweep paths snapshot only after joining their
//!   workers, and the join edge is what makes the quiesced snapshot
//!   exact.
//!
//! Both halves of the contract — quiesced exactness and live
//! monotonicity — are checked under the OS scheduler by this module's
//! threaded tests (exact totals after a scoped join, including four
//! writers contending on one shard, and monotone live snapshots), and
//! `scripts/check.sh` reruns them under ThreadSanitizer when a nightly
//! toolchain is available.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: bucket 0 holds zero values and bucket
/// `1 + floor(log2(v))` holds value `v`, so all of `u64` is covered.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A cache-line-padded atomic cell: one shard of one metric.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// SplitMix64's finalizer: mixes a per-thread tag into a uniformly
/// distributed shard selector.
#[must_use]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

thread_local! {
    static THREAD_TAG: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        splitmix64(NEXT.fetch_add(1, Ordering::Relaxed))
    };
}

/// The calling thread's shard tag: a SplitMix64-mixed process-wide
/// counter, assigned once per thread. `Relaxed` is sufficient: the
/// counter is only ever incremented and uniqueness, not ordering, is
/// what shard spread needs.
fn thread_tag() -> u64 {
    THREAD_TAG.with(|&tag| tag)
}

fn shard_for_tag(tag: u64, shards: usize) -> usize {
    debug_assert!(shards.is_power_of_two());
    (tag as usize) & (shards - 1)
}

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

#[derive(Debug)]
struct CounterFamily {
    name: &'static str,
    shards: Box<[PaddedU64]>,
}

#[derive(Debug)]
struct HistogramFamily {
    name: &'static str,
    /// `shards × HISTOGRAM_BUCKETS`, shard-major.
    buckets: Box<[PaddedU64]>,
}

/// The registry: metrics are registered up front (while the registry
/// is still exclusively owned), then shared by reference across
/// worker threads for lock-free recording.
#[derive(Debug)]
pub struct MetricsRegistry {
    shards: usize,
    counters: Vec<CounterFamily>,
    histograms: Vec<HistogramFamily>,
}

impl MetricsRegistry {
    /// A registry with `shards` shards per metric (rounded up to a
    /// power of two, at least 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        MetricsRegistry {
            shards: shards.max(1).next_power_of_two(),
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// A registry sharded for the machine's available parallelism.
    #[must_use]
    pub fn for_host() -> Self {
        let n = std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get);
        Self::new(n)
    }

    /// Registers a counter and returns its handle.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        let shards: Box<[PaddedU64]> = (0..self.shards).map(|_| PaddedU64::default()).collect();
        self.counters.push(CounterFamily { name, shards });
        CounterId(self.counters.len() - 1)
    }

    /// Registers a histogram and returns its handle.
    pub fn histogram(&mut self, name: &'static str) -> HistogramId {
        let buckets: Box<[PaddedU64]> = (0..self.shards * HISTOGRAM_BUCKETS)
            .map(|_| PaddedU64::default())
            .collect();
        self.histograms.push(HistogramFamily { name, buckets });
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `n` to a counter (lock-free; callable from any thread).
    pub fn add(&self, id: CounterId, n: u64) {
        self.add_tagged(id, thread_tag(), n);
    }

    /// [`add`](Self::add) with an explicit shard tag, for callers that
    /// shard by their own key rather than by thread: serve tags each
    /// update with its virtual shard's index. `Relaxed` suffices:
    /// increments are RMWs (nothing is lost) and snapshot exactness
    /// comes from the caller's join edge.
    pub fn add_tagged(&self, id: CounterId, tag: u64, n: u64) {
        let shard = shard_for_tag(tag, self.shards);
        self.counters[id.0].shards[shard]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Records one observation of `value` into a histogram.
    pub fn record(&self, id: HistogramId, value: u64) {
        self.record_tagged(id, thread_tag(), value);
    }

    /// [`record`](Self::record) with an explicit shard tag (see
    /// [`add_tagged`](Self::add_tagged)).
    pub fn record_tagged(&self, id: HistogramId, tag: u64, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            1 + value.ilog2() as usize
        };
        let shard = shard_for_tag(tag, self.shards);
        self.histograms[id.0].buckets[shard * HISTOGRAM_BUCKETS + bucket]
            .0
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Sums every metric's shards into a point-in-time snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|c| {
                let total = c
                    .shards
                    .iter()
                    .map(|s| s.0.load(Ordering::Relaxed))
                    .sum::<u64>();
                (c.name, total)
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|h| {
                let mut buckets = [0u64; HISTOGRAM_BUCKETS];
                for (i, cell) in h.buckets.iter().enumerate() {
                    buckets[i % HISTOGRAM_BUCKETS] += cell.0.load(Ordering::Relaxed);
                }
                (h.name, HistogramSnapshot { buckets })
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// A summed view of one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation counts per log2 bucket (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// An all-zero snapshot, for accumulating observations outside a
    /// registry (per-window views, parsed artifacts).
    #[must_use]
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Adds one observation of `value`, using the same log2 bucket
    /// rule as [`MetricsRegistry::record`].
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            1 + value.ilog2() as usize
        };
        self.buckets[bucket] += 1;
    }

    /// Total observations recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Inclusive lower bound of the values in bucket `i` (0 for the
    /// zero bucket, otherwise `2^(i-1)`).
    #[must_use]
    pub fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << (i - 1)
        }
    }

    /// The highest non-empty bucket's index, if any observation was
    /// recorded.
    #[must_use]
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Inclusive upper bound of the values in bucket `i` (0 for the
    /// zero bucket, otherwise `2^i - 1`, saturating at `u64::MAX`).
    #[must_use]
    pub fn bucket_ceiling(i: usize) -> u64 {
        match i {
            0 => 0,
            64.. => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// The `q`-quantile (`0.0..=1.0`, clamped) of the recorded
    /// observations, interpolated within log2 buckets.
    ///
    /// The rank is the standard fractional rank `q * (count - 1)`
    /// over the sorted observations; the bucket holding that rank
    /// contributes linearly between its floor and its ceiling. Exact
    /// bucket boundaries are exact: a rank landing on the first
    /// observation of a bucket yields precisely
    /// [`bucket_floor`](HistogramSnapshot::bucket_floor). Returns
    /// `None` when nothing was recorded.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        #[allow(clippy::cast_precision_loss)]
        let rank = q.clamp(0.0, 1.0) * ((n - 1) as f64);
        let mut below = 0u64;
        for (i, &cnt) in self.buckets.iter().enumerate() {
            if cnt == 0 {
                continue;
            }
            #[allow(clippy::cast_precision_loss)]
            let (lo, hi) = (below as f64, (below + cnt) as f64);
            if rank < hi || below + cnt == n {
                let floor = Self::bucket_floor(i);
                let ceiling = Self::bucket_ceiling(i);
                let frac = ((rank - lo) / (hi - lo)).clamp(0.0, 1.0);
                #[allow(clippy::cast_precision_loss)]
                return Some(floor as f64 + frac * (ceiling - floor) as f64);
            }
            below += cnt;
        }
        None
    }
}

/// A point-in-time view of every registered metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, total)` per counter, in registration order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, buckets)` per histogram, in registration order.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks a counter up by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Looks a histogram up by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as a Prometheus-style text exposition:
    /// counters verbatim, histograms as cumulative `_bucket{le="…"}`
    /// series over the log2 bucket ceilings (up to the highest
    /// non-empty bucket) plus `_count`. Metric names are sanitized to
    /// `[a-zA-Z0-9_]` and prefixed `opd_`.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 4);
            out.push_str("opd_");
            for c in name.chars() {
                out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            out
        }
        let mut out = String::new();
        for &(name, total) in &self.counters {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {total}\n"));
        }
        for (name, hist) in &self.histograms {
            let name = sanitize(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let top = hist.max_bucket().unwrap_or(0);
            let mut cumulative = 0u64;
            for (i, &cnt) in hist.buckets.iter().enumerate().take(top + 1) {
                cumulative += cnt;
                let le = HistogramSnapshot::bucket_ceiling(i);
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_count {count}\n",
                count = hist.count()
            ));
        }
        out
    }
}

/// Plain (non-atomic) per-unit sweep accounting: what one
/// `SweepEngine` unit run actually did, accumulated on the worker
/// thread and cross-checked against the static cost model.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UnitMetrics {
    /// Trace scans performed (1 per shared group, 1 per private
    /// member).
    pub scans: u64,
    /// Detector steps taken across all scans.
    pub steps: u64,
    /// `(member, step)` pairs that were actually judged (windows warm
    /// and refilled).
    pub judged_steps: u64,
    /// Comparison ops spent on similarity computation and judging —
    /// the runtime counterpart of `ConfigCost::compare_ops`.
    pub compare_ops: u64,
    /// Profile elements consumed across all scans.
    pub elements: u64,
}

impl UnitMetrics {
    /// An all-zero accumulator.
    #[must_use]
    pub fn new() -> Self {
        UnitMetrics::default()
    }

    /// Adds another accumulator's totals into this one.
    pub fn merge(&mut self, other: &UnitMetrics) {
        self.scans += other.scans;
        self.steps += other.steps;
        self.judged_steps += other.judged_steps;
        self.compare_ops += other.compare_ops;
        self.elements += other.elements;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_across_threads() {
        let mut r = MetricsRegistry::new(8);
        let c = r.counter("ops");
        let r = &r;
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(move || {
                    for _ in 0..10_000 {
                        r.add(c, 3);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter("ops"), Some(8 * 10_000 * 3));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut r = MetricsRegistry::new(1);
        let h = r.histogram("lat");
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            r.record(h, v);
        }
        let snap = r.snapshot();
        let hist = snap.histogram("lat").unwrap();
        assert_eq!(hist.count(), 8);
        assert_eq!(hist.buckets[0], 1); // 0
        assert_eq!(hist.buckets[1], 1); // 1
        assert_eq!(hist.buckets[2], 2); // 2, 3
        assert_eq!(hist.buckets[3], 1); // 4
        assert_eq!(hist.buckets[10], 1); // 1023
        assert_eq!(hist.buckets[11], 1); // 1024
        assert_eq!(hist.buckets[64], 1); // u64::MAX
        assert_eq!(hist.max_bucket(), Some(64));
        assert_eq!(HistogramSnapshot::bucket_floor(0), 0);
        assert_eq!(HistogramSnapshot::bucket_floor(11), 1024);
        assert_eq!(snap.histogram("nope"), None);
        assert_eq!(snap.counter("nope"), None);
    }

    #[test]
    fn histograms_sum_across_threads() {
        let mut r = MetricsRegistry::new(4);
        let h = r.histogram("v");
        let r = &r;
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for i in 0..1_000 {
                        r.record(h, t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().histogram("v").unwrap().count(), 4_000);
    }

    #[test]
    fn live_snapshots_are_monotone_under_stress() {
        // Concurrent writers + a snapshotter never observe a
        // non-monotone or overshooting total.
        let mut r = MetricsRegistry::new(4);
        let c = r.counter("ops");
        let r = &r;
        const PER_THREAD: u64 = 20_000;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        r.add(c, 1);
                    }
                });
            }
            let mut last = 0;
            for _ in 0..1_000 {
                let now = r.snapshot().counter("ops").unwrap();
                assert!(now >= last, "non-monotone snapshot: {last} -> {now}");
                assert!(now <= 4 * PER_THREAD, "snapshot overshoots: {now}");
                last = now;
            }
        });
        assert_eq!(r.snapshot().counter("ops"), Some(4 * PER_THREAD));
    }

    #[test]
    fn contended_shard_loses_no_update() {
        // Four writers pin every update to shard 0, so each increment
        // races the other three on one cell; `fetch_add` keeps every
        // one, and the scoped join makes the snapshot exact.
        const PER_THREAD: u64 = 100_000;
        let mut r = MetricsRegistry::new(4);
        let c = r.counter("ops");
        let h = r.histogram("lat");
        let r = &r;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        r.add_tagged(c, 0, 1);
                        r.record_tagged(h, 0, 1);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("ops"), Some(4 * PER_THREAD));
        let hist = snap.histogram("lat").unwrap();
        assert_eq!(hist.buckets[1], 4 * PER_THREAD);
        assert_eq!(hist.count(), 4 * PER_THREAD);
    }

    #[test]
    fn tagged_updates_pin_shards() {
        let mut r = MetricsRegistry::new(4);
        let c = r.counter("ops");
        let h = r.histogram("lat");
        for tag in 0..8u64 {
            r.add_tagged(c, tag, 1);
            r.record_tagged(h, tag, 5);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("ops"), Some(8));
        assert_eq!(snap.histogram("lat").unwrap().count(), 8);
        // Tags reduce mod the shard count: tag and tag+4 share a
        // shard, so exactly 4 shards were touched with 2 each.
        for shard in 0..4 {
            assert_eq!(r.counters[c.0].shards[shard].0.load(Ordering::Relaxed), 2);
        }
    }

    #[test]
    fn splitmix_spreads_sequential_tags() {
        // Sequential thread tags must not all land in one shard.
        let shards: std::collections::HashSet<u64> =
            (0..16u64).map(|t| splitmix64(t) & 7).collect();
        assert!(shards.len() >= 4, "poor spread: {shards:?}");
    }

    #[test]
    fn unit_metrics_merge_adds_fields() {
        let mut a = UnitMetrics {
            scans: 1,
            steps: 10,
            judged_steps: 5,
            compare_ops: 100,
            elements: 1_000,
        };
        a.merge(&a.clone());
        assert_eq!(
            a,
            UnitMetrics {
                scans: 2,
                steps: 20,
                judged_steps: 10,
                compare_ops: 200,
                elements: 2_000,
            }
        );
    }

    #[test]
    fn percentile_is_exact_on_bucket_boundaries() {
        // Rank landing on the first observation of a bucket yields
        // exactly the bucket floor — the documented boundary contract.
        let mut h = HistogramSnapshot::empty();
        assert_eq!(h.percentile(0.5), None);
        h.record(0); // bucket 0
        h.record(1); // bucket 1, floor 1
        h.record(4); // bucket 3, floor 4
        h.record(5); // bucket 3
        assert_eq!(h.percentile(0.0), Some(0.0));
        // rank 1.0 is the first (only) observation of bucket 1.
        assert_eq!(h.percentile(1.0 / 3.0), Some(1.0));
        // rank 2.0 is the first observation of bucket 3: exactly 4.
        assert_eq!(h.percentile(2.0 / 3.0), Some(4.0));
        // rank 3.0 is halfway through bucket 3 [4, 7]: 4 + 0.5 * 3.
        assert_eq!(h.percentile(1.0), Some(5.5));
        // Out-of-range quantiles clamp.
        assert_eq!(h.percentile(-1.0), h.percentile(0.0));
        assert_eq!(h.percentile(9.0), h.percentile(1.0));
    }

    #[test]
    fn percentile_interpolates_within_a_bucket() {
        let mut h = HistogramSnapshot::empty();
        for _ in 0..5 {
            h.record(100); // bucket 7: [64, 127]
        }
        // All mass in one bucket: p0 is the floor, p100 walks toward
        // (but stays below) the ceiling.
        assert_eq!(h.percentile(0.0), Some(64.0));
        let p100 = h.percentile(1.0).unwrap();
        assert!(p100 > 64.0 && p100 < 127.0, "{p100}");
        // A single observation reports its bucket floor at every q.
        let mut one = HistogramSnapshot::empty();
        one.record(1024);
        assert_eq!(one.percentile(0.5), Some(1024.0));
        assert_eq!(HistogramSnapshot::bucket_ceiling(0), 0);
        assert_eq!(HistogramSnapshot::bucket_ceiling(11), 2047);
        assert_eq!(HistogramSnapshot::bucket_ceiling(64), u64::MAX);
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_sanitized() {
        let mut r = MetricsRegistry::new(1);
        let c = r.counter("serve.frames_processed");
        let h = r.histogram("serve.latency_ticks");
        r.add(c, 7);
        r.record(h, 0);
        r.record(h, 3);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE opd_serve_frames_processed counter\n"));
        assert!(text.contains("opd_serve_frames_processed 7\n"));
        assert!(text.contains("# TYPE opd_serve_latency_ticks histogram\n"));
        assert!(text.contains("opd_serve_latency_ticks_bucket{le=\"0\"} 1\n"));
        // Bucket 2 holds value 3; the series is cumulative.
        assert!(text.contains("opd_serve_latency_ticks_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("opd_serve_latency_ticks_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("opd_serve_latency_ticks_count 2\n"));
        assert!(!text.contains("serve."), "names must be sanitized");
    }

    #[test]
    fn registry_for_host_has_power_of_two_shards() {
        let r = MetricsRegistry::for_host();
        assert!(r.shards.is_power_of_two());
        let r3 = MetricsRegistry::new(3);
        assert_eq!(r3.shards, 4);
    }
}
