//! # Observability: a workspace-wide metrics registry.
//!
//! The paper's staircase-join argument is a claim about *where time
//! goes* during stand-off query evaluation. This module gives every
//! crate in the workspace a place to prove its mechanisms with numbers:
//! a [`MetricsRegistry`] of named monotonic counters and power-of-two
//! bucketed histograms, built only on `std` atomics so it is cheap
//! enough to leave enabled in release builds.
//!
//! Design points:
//!
//! * **Lock-free hot path.** [`Counter::add`] and [`Histogram::record`]
//!   are a handful of relaxed atomic operations. The registry's map is
//!   only locked on *registration* (`counter()`/`histogram()`); callers
//!   on hot paths register once and keep the returned handle.
//! * **Snapshot / delta.** [`MetricsRegistry::snapshot`] copies all
//!   values into a [`MetricsSnapshot`]; [`MetricsSnapshot::delta`]
//!   subtracts an earlier snapshot, so "what did this batch do?" is two
//!   calls around the batch. Counters are monotonic; deltas saturate.
//! * **No dependencies.** [`MetricsSnapshot::to_json`] hand-renders the
//!   snapshot (the workspace is offline; there is no serde).
//! * **Scoped or global.** Engines own their own registry (shared by
//!   all sessions of a `SharedEngine`), so tests stay isolated; code
//!   with no natural owner (snapshot mounting deep inside the store)
//!   records into the process-wide [`MetricsRegistry::global`] registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of power-of-two histogram buckets. Bucket `i` counts values
/// `v` with `bucket_index(v) == i`, i.e. an upper bound of `2^i - 1`
/// for `i < 63`; the last bucket is unbounded. 64 buckets cover the
/// full `u64` range (nanosecond timings up to centuries).
pub const HISTOGRAM_BUCKETS: usize = 64;

fn bucket_index(v: u64) -> usize {
    // 0 → bucket 0; otherwise the position of the highest set bit + 1,
    // clamped to the last bucket. v=1 → 1, v=2..3 → 2, v=4..7 → 3, …
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A named monotonic counter. Cloning shares the underlying cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is currently below — for
    /// high-water-mark gauges (e.g. `executor.queue_depth_hwm`)
    /// published through the counter namespace.
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A named bucketed histogram (power-of-two buckets). Cloning shares
/// the underlying cells.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let c = &self.0;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Copy the current state out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let c = &self.0;
        HistogramSnapshot {
            count: c.count.load(Ordering::Relaxed),
            sum: c.sum.load(Ordering::Relaxed),
            max: c.max.load(Ordering::Relaxed),
            buckets: c
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// One entry per power-of-two bucket (see [`bucket_upper_bound`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Approximate quantile `q` in `[0,1]`: the upper bound of the
    /// bucket containing the `q`-th observation. Bucketing makes this
    /// an over-estimate by at most 2×.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Saturating subtraction of an earlier snapshot.
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            // max is not differentiable; keep the later max.
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &n)| n.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    histograms: BTreeMap<String, Histogram>,
}

/// A registry of named counters and histograms.
///
/// Names are dot-separated (`join.result_sorts`, `store.mount_ns`);
/// histogram names end in a unit suffix (`_ns`, `_bytes`) or describe a
/// dimensionless size (`executor.queue_depth`). Registration
/// get-or-creates: two callers asking for the same name share one cell.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The process-wide registry, for instrumentation points with no
    /// natural owner (e.g. snapshot mounting inside the store crate).
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Get or create the counter `name`. Hot paths should call this
    /// once and keep the handle; the registry map is behind a mutex.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// One-shot `counter(name).add(n)` (locks the map; fine off the
    /// hot path).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// One-shot `histogram(name).record(v)`.
    pub fn record(&self, name: &str, v: u64) {
        self.histogram(name).record(v);
    }

    /// Copy every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole registry, ordered by name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Saturating subtraction of an earlier snapshot: "what happened
    /// between these two points". Metrics absent from `earlier` keep
    /// their full value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, &v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, v)| match earlier.histograms.get(k) {
                    Some(e) => (k.clone(), v.delta(e)),
                    None => (k.clone(), v.clone()),
                })
                .collect(),
        }
    }

    /// Merge another snapshot in. Counters add; histograms add
    /// bucket-wise (max takes the larger). Used to combine an engine's
    /// registry with the global store registry for reporting.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            let slot = self.histograms.entry(k.clone()).or_default();
            slot.count += h.count;
            slot.sum += h.sum;
            slot.max = slot.max.max(h.max);
            if slot.buckets.len() < h.buckets.len() {
                slot.buckets.resize(h.buckets.len(), 0);
            }
            for (i, &n) in h.buckets.iter().enumerate() {
                slot.buckets[i] += n;
            }
        }
    }

    /// True when every counter is zero and every histogram empty.
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0) && self.histograms.values().all(|h| h.count == 0)
    }

    /// Render as a JSON object. Counters are plain numbers; histograms
    /// are objects with `count`, `sum`, `mean`, `max`, `p50`, `p99`
    /// and a sparse `buckets` array of `[upper_bound, count]` pairs
    /// (only non-empty buckets; the last bucket's bound renders as the
    /// string `"inf"`). Names are emitted in sorted order so output is
    /// deterministic for a given state.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", escape_json(k), v));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        let mut first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}, \"buckets\": [",
                escape_json(k),
                h.count,
                h.sum,
                h.mean(),
                h.max,
                h.quantile(0.50),
                h.quantile(0.99),
            ));
            let mut firstb = true;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !firstb {
                    out.push_str(", ");
                }
                firstb = false;
                let bound = bucket_upper_bound(i);
                if bound == u64::MAX {
                    out.push_str(&format!("[\"inf\", {n}]"));
                } else {
                    out.push_str(&format!("[{bound}, {n}]"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}");
        out
    }
}

/// Escape `s` for use inside a JSON string literal: quotes,
/// backslashes and control characters.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same cell.
        let c2 = reg.counter("a.b");
        c2.inc();
        assert_eq!(c.get(), 6);
        assert_eq!(reg.snapshot().counters["a.b"], 6);
    }

    #[test]
    fn bucket_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_stats() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat_ns");
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), 221);
        // p50: 3rd of 5 observations lands in the [2,3] bucket.
        assert_eq!(s.quantile(0.5), 3);
        // p99 → last observation's bucket, clamped to max.
        assert_eq!(s.quantile(0.99), 1000);
    }

    #[test]
    fn snapshot_delta() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        c.add(10);
        h.record(5);
        let before = reg.snapshot();
        c.add(7);
        h.record(9);
        h.record(90);
        let d = reg.snapshot().delta(&before);
        assert_eq!(d.counters["c"], 7);
        assert_eq!(d.histograms["h"].count, 2);
        assert_eq!(d.histograms["h"].sum, 99);
        // New metric absent from the earlier snapshot keeps its value.
        reg.counter("new").add(3);
        let d2 = reg.snapshot().delta(&before);
        assert_eq!(d2.counters["new"], 3);
    }

    #[test]
    fn snapshot_merge() {
        let a = MetricsRegistry::new();
        a.add("shared", 2);
        a.record("h", 10);
        let b = MetricsRegistry::new();
        b.add("shared", 3);
        b.add("only_b", 1);
        b.record("h", 20);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counters["shared"], 5);
        assert_eq!(m.counters["only_b"], 1);
        assert_eq!(m.histograms["h"].count, 2);
        assert_eq!(m.histograms["h"].sum, 30);
        assert_eq!(m.histograms["h"].max, 20);
    }

    #[test]
    fn json_shape() {
        let reg = MetricsRegistry::new();
        reg.add("plan_cache.hits", 3);
        reg.record("query.exec_ns", 1500);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"plan_cache.hits\": 3"));
        assert!(json.contains("\"query.exec_ns\""));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"sum\": 1500"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_snapshot() {
        let reg = MetricsRegistry::new();
        assert!(reg.snapshot().is_empty());
        reg.counter("c"); // registered but zero
        reg.histogram("h");
        assert!(reg.snapshot().is_empty());
        reg.add("c", 1);
        assert!(!reg.snapshot().is_empty());
    }

    #[test]
    fn concurrent_increments() {
        let reg = Arc::new(MetricsRegistry::new());
        let c = reg.counter("hot");
        let h = reg.histogram("hot_ns");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
        assert_eq!(h.snapshot().count, 8000);
    }

    #[test]
    fn global_registry_is_shared() {
        MetricsRegistry::global().add("obs.test_global", 1);
        let v = MetricsRegistry::global().snapshot().counters["obs.test_global"];
        assert!(v >= 1);
    }
}
