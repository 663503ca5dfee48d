//! The global metrics registry: counters, gauges, float gauges and
//! fixed-bucket histograms.
//!
//! Instruments are created (or fetched) by name from [`registry`] and held
//! as `Arc` handles; hot paths cache the handle once and then pay a single
//! atomic op per update. All mutating operations are no-ops while
//! telemetry is disabled, so instrumented code needs no of its own guards
//! — but local bookkeeping that *must* stay correct regardless (the public
//! stats structs in `qtensor`) goes through [`GaugeTrack`], which tracks
//! locally always and mirrors into the registry only when enabled.

use crate::lock_unpoisoned;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while telemetry is disabled).
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A signed level with a high-water mark (live bytes, queue depths).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    /// Adds `delta` (may be negative); updates the high-water mark.
    /// No-op while telemetry is disabled.
    #[inline]
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Subtracts `delta`.
    #[inline]
    pub fn sub(&self, delta: i64) {
        self.add(-delta);
    }

    /// Sets the level outright (still raises the high-water mark).
    pub fn set(&self, value: i64) {
        if !crate::enabled() {
            return;
        }
        self.value.store(value, Ordering::Relaxed);
        self.high_water.fetch_max(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest level ever observed.
    pub fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Starts a per-run tracker mirroring into this gauge; see
    /// [`GaugeTrack`].
    pub fn track(self: &Arc<Self>) -> GaugeTrack {
        GaugeTrack {
            gauge: Arc::clone(self),
            local: 0,
            local_peak: 0,
        }
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.high_water.store(0, Ordering::Relaxed);
    }
}

/// Per-run view of a [`Gauge`]: tracks a local level and local peak
/// unconditionally (so per-run stats stay exact even with telemetry
/// disabled, or with concurrent runs sharing the global gauge) while
/// forwarding every delta to the registry gauge.
#[derive(Debug)]
pub struct GaugeTrack {
    gauge: Arc<Gauge>,
    local: i64,
    local_peak: i64,
}

impl GaugeTrack {
    /// Adds `delta` locally and to the global gauge.
    pub fn add(&mut self, delta: i64) {
        self.local += delta;
        self.local_peak = self.local_peak.max(self.local);
        self.gauge.add(delta);
    }

    /// Subtracts `delta`.
    pub fn sub(&mut self, delta: i64) {
        self.add(-delta);
    }

    /// This run's current level.
    pub fn value(&self) -> i64 {
        self.local
    }

    /// This run's peak level.
    pub fn peak(&self) -> i64 {
        self.local_peak
    }
}

impl Drop for GaugeTrack {
    fn drop(&mut self) {
        // Return this run's residual level so the global gauge reflects
        // only live runs.
        if self.local != 0 {
            self.gauge.add(-self.local);
        }
    }
}

/// A last-value float gauge (compression ratios, PSNR, throughput).
#[derive(Debug, Default)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl FloatGauge {
    /// Sets the value (no-op while telemetry is disabled).
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Last value set (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    fn reset(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram over f64 observations.
///
/// Buckets are cumulative-upper-bound style: observation `v` lands in the
/// first bucket with `v <= bound`, or — for any finite `v` above the last
/// bound — in the explicit **overflow bucket** (reported with a `+inf`
/// upper bound). Non-finite observations (`NaN`, `±inf`) carry no usable
/// magnitude: they are *dropped*, counted per-histogram ([`Histogram::dropped`])
/// and in the global `telemetry.dropped_samples` registry counter, rather
/// than silently polluting the top bucket and the sum/mean. Tracks count
/// and sum for mean derivation.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    dropped: AtomicU64,
    sum_bits: Mutex<f64>,
}

/// The global drop counter every histogram feeds: lives in the process
/// registry as `telemetry.dropped_samples`, so any metrics dump shows at a
/// glance whether observations were discarded.
fn dropped_samples_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| registry().counter("telemetry.dropped_samples"))
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be increasing"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "bounds must be finite (the overflow bucket is implicit)"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            sum_bits: Mutex::new(0.0),
        }
    }

    /// Records one observation (no-op while telemetry is disabled).
    /// Non-finite values are dropped and counted, not bucketed.
    pub fn observe(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        if !v.is_finite() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            dropped_samples_counter().inc();
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        *lock_unpoisoned(&self.sum_bits) += v;
    }

    /// Runs `f` and, while telemetry is enabled, observes its wall time in
    /// microseconds. Disabled, the timer is one relaxed load and reads no
    /// clock.
    #[inline]
    pub fn time_us<R>(&self, f: impl FnOnce() -> R) -> R {
        if !crate::enabled() {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.observe(t0.elapsed().as_secs_f64() * 1e6);
        r
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Number of non-finite observations dropped by this histogram.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Count in the explicit overflow bucket (finite observations above
    /// the last configured bound).
    pub fn overflow(&self) -> u64 {
        self.buckets
            .last()
            .map(|b| b.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        *lock_unpoisoned(&self.sum_bits)
    }

    /// Mean of observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// `(upper_bound, count)` pairs; the final pair uses `f64::INFINITY`.
    pub fn bucket_counts(&self) -> Vec<(f64, u64)> {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
            .collect()
    }

    /// The bucket-sketch `q`-quantile; see [`quantile_from_buckets`] for
    /// the exact contract and error bound.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.bucket_counts(), self.count(), q)
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
        *lock_unpoisoned(&self.sum_bits) = 0.0;
    }
}

/// The process-global instrument registry. Obtain via [`registry`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    float_gauges: Mutex<BTreeMap<String, Arc<FloatGauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = lock_unpoisoned(&self.counters);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = lock_unpoisoned(&self.gauges);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The float gauge named `name`, created on first use.
    pub fn float_gauge(&self, name: &str) -> Arc<FloatGauge> {
        let mut map = lock_unpoisoned(&self.float_gauges);
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name` with `bounds`, created on first use.
    /// Later calls return the existing histogram regardless of `bounds`.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = lock_unpoisoned(&self.histograms);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A flat, name-sorted snapshot of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = lock_unpoisoned(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = lock_unpoisoned(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), (v.value(), v.high_water())))
            .collect();
        let float_gauges = lock_unpoisoned(&self.float_gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = lock_unpoisoned(&self.histograms)
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: v.count(),
                        dropped: v.dropped(),
                        sum: v.sum(),
                        mean: v.mean(),
                        buckets: v.bucket_counts(),
                    },
                )
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            float_gauges,
            histograms,
        }
    }

    /// Takes a snapshot and then zeroes every instrument — the atomic
    /// "read out this run, start the next one clean" primitive scoped runs
    /// ([`crate::RunScope`]) and the `qcfz report` phase pipeline use so
    /// consecutive runs in one process don't bleed counters into each
    /// other.
    pub fn drain(&self) -> Snapshot {
        let snap = self.snapshot();
        self.reset_values();
        snap
    }

    /// Zeroes every instrument's value, keeping registrations.
    pub fn reset_values(&self) {
        for c in lock_unpoisoned(&self.counters).values() {
            c.reset();
        }
        for g in lock_unpoisoned(&self.gauges).values() {
            g.reset();
        }
        for f in lock_unpoisoned(&self.float_gauges).values() {
            f.reset();
        }
        for h in lock_unpoisoned(&self.histograms).values() {
            h.reset();
        }
    }
}

/// Point-in-time registry values (input to the exporters).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `name -> value`.
    pub counters: BTreeMap<String, u64>,
    /// `name -> (value, high_water)`.
    pub gauges: BTreeMap<String, (i64, i64)>,
    /// `name -> value`.
    pub float_gauges: BTreeMap<String, f64>,
    /// `name -> histogram`.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// One histogram's snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Observation count.
    pub count: u64,
    /// Non-finite observations dropped instead of bucketed.
    pub dropped: u64,
    /// Observation sum.
    pub sum: f64,
    /// Mean (0.0 when empty).
    pub mean: f64,
    /// `(upper_bound, count)` pairs (last bound is +inf).
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// The bucket-sketch `q`-quantile; see [`quantile_from_buckets`].
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_buckets(&self.buckets, self.count, q)
    }
}

/// The zero-dependency percentile sketch over fixed histogram buckets.
///
/// Returns the **upper bound of the bucket containing the `q`-quantile**
/// of the observed distribution: with `rank = ceil(q·count)` (clamped to
/// `[1, count]`), the smallest bucket bound whose cumulative count reaches
/// `rank`. The true quantile lies in the same bucket, i.e. in
/// `(prev_bound, returned_bound]`, so the sketch error is at most one
/// bucket width and the sketch never *under*-reports — the conservative
/// direction for latency SLOs. A quantile that lands in the explicit
/// overflow bucket is reported as `f64::INFINITY` (no finite bound covers
/// it); an empty histogram or a `q` outside `[0, 1]` yields `NaN`.
pub fn quantile_from_buckets(buckets: &[(f64, u64)], count: u64, q: f64) -> f64 {
    if count == 0 || !(0.0..=1.0).contains(&q) {
        return f64::NAN;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for &(bound, n) in buckets {
        cumulative += n;
        if cumulative >= rank {
            return bound;
        }
    }
    f64::NAN
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        crate::set_enabled(false);
        c.inc();
        assert_eq!(c.get(), 5, "disabled counter must not move");
        crate::set_enabled(true);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let g = Gauge::default();
        g.add(10);
        g.add(5);
        g.sub(12);
        assert_eq!(g.value(), 3);
        assert_eq!(g.high_water(), 15);
    }

    #[test]
    fn gauge_track_keeps_local_peak_even_disabled() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        let gauge = Arc::new(Gauge::default());
        let mut t = gauge.track();
        t.add(100);
        t.add(50);
        t.sub(120);
        assert_eq!(t.value(), 30);
        assert_eq!(t.peak(), 150);
        assert_eq!(gauge.value(), 0, "disabled: global gauge untouched");
        crate::set_enabled(true);
    }

    #[test]
    fn gauge_track_returns_residual_on_drop() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let gauge = Arc::new(Gauge::default());
        {
            let mut t = gauge.track();
            t.add(64);
            assert_eq!(gauge.value(), 64);
        }
        assert_eq!(gauge.value(), 0, "drop must release the run's level");
        assert_eq!(gauge.high_water(), 64, "but keep the high-water mark");
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 5.0, 50.0, 500.0, 7.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 112.5).abs() < 1e-12);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0], (1.0, 1));
        assert_eq!(buckets[1], (10.0, 2));
        assert_eq!(buckets[2], (100.0, 1));
        assert_eq!(buckets[3].1, 1);
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let h = Histogram::new(&[1.0, 10.0]);
        // Exactly on a bound lands in that bucket; just above moves on.
        h.observe(1.0);
        h.observe(1.0 + f64::EPSILON * 2.0);
        h.observe(10.0);
        h.observe(10.000001); // above the top bound: explicit overflow
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], (1.0, 1));
        assert_eq!(buckets[1], (10.0, 2));
        assert_eq!(buckets[2], (f64::INFINITY, 1));
        assert_eq!(h.overflow(), 1, "out-of-range sample must be visible");
        assert_eq!(h.count(), 4);
        assert_eq!(h.dropped(), 0);
    }

    #[test]
    fn histogram_drops_non_finite_and_counts_them() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let global = dropped_samples_counter();
        let before = global.get();
        let h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(f64::NEG_INFINITY);
        h.observe(0.5);
        assert_eq!(h.count(), 1, "only the finite sample is observed");
        assert_eq!(h.dropped(), 3);
        assert_eq!(h.overflow(), 0, "non-finite must not pollute overflow");
        assert_eq!(h.sum(), 0.5, "sum must stay finite");
        assert_eq!(
            global.get(),
            before + 3,
            "telemetry.dropped_samples aggregates across histograms"
        );
        // Snapshot carries the per-histogram drop count.
        h.reset();
        assert_eq!(h.dropped(), 0);
    }

    #[test]
    fn quantile_sketch_basics() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let h = Histogram::new(&[10.0, 20.0, 50.0, 100.0]);
        // 100 observations uniform over (0, 100]: k-th percentile ≈ k.
        for i in 1..=100 {
            h.observe(i as f64);
        }
        assert_eq!(h.quantile(0.5), 50.0, "p50 of uniform(0,100] in (20,50]");
        assert_eq!(h.quantile(0.95), 100.0);
        assert_eq!(h.quantile(0.05), 10.0);
        assert_eq!(h.quantile(0.0), 10.0, "q=0 clamps to rank 1");
        assert_eq!(h.quantile(1.0), 100.0);
        assert!(h.quantile(1.5).is_nan(), "q outside [0,1]");
        assert!(h.quantile(-0.1).is_nan());
    }

    #[test]
    fn quantile_overflow_bucket_reports_infinity() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let h = Histogram::new(&[1.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(9.0);
        assert_eq!(h.quantile(0.1), 1.0);
        assert_eq!(
            h.quantile(0.99),
            f64::INFINITY,
            "overflow-bucket quantiles have no finite bound"
        );
    }

    #[test]
    fn quantile_empty_is_nan() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let h = Histogram::new(&[1.0]);
        assert!(h.quantile(0.5).is_nan());
        let snap = HistogramSnapshot::default();
        assert!(snap.quantile(0.5).is_nan());
    }

    #[test]
    fn snapshot_quantile_matches_live_histogram() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.1, 0.2, 1.5, 3.0, 3.5, 7.0, 7.5, 20.0] {
            h.observe(v);
        }
        let snap = HistogramSnapshot {
            count: h.count(),
            dropped: h.dropped(),
            sum: h.sum(),
            mean: h.mean(),
            buckets: h.bucket_counts(),
        };
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let (a, b) = (h.quantile(q), snap.quantile(q));
            assert!(a == b || (a.is_nan() && b.is_nan()), "q={q}: {a} vs {b}");
        }
    }

    #[test]
    fn drain_snapshots_then_clears() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let r = Registry::default();
        r.counter("runs").add(3);
        r.gauge("depth").add(7);
        let snap = r.drain();
        assert_eq!(snap.counters.get("runs"), Some(&3));
        assert_eq!(snap.gauges.get("depth"), Some(&(7, 7)));
        let after = r.snapshot();
        assert_eq!(after.counters.get("runs"), Some(&0), "drain must reset");
        assert_eq!(after.gauges.get("depth"), Some(&(0, 0)));
    }

    #[test]
    fn registry_returns_same_instrument() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("x"), Some(&1));
        r.reset_values();
        assert_eq!(a.get(), 0);
    }
}
