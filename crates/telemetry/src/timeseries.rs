//! The time-series sampler: a background thread that captures registry
//! snapshots into a fixed-capacity downsampling ring.
//!
//! Continuous telemetry needs *rates over time*, not just end-of-run
//! totals: a requant storm that lasts 200 ms looks identical to a steady
//! trickle in a final snapshot. The sampler closes that gap with the
//! cheapest possible mechanism — one background thread that calls
//! [`crate::metrics::Registry::snapshot`] every `interval_ms` and pushes
//! the result into a bounded ring.
//!
//! ## Downsampling ring
//!
//! The ring holds at most [`CAPACITY`] samples. When it fills, every other
//! retained sample is discarded and the keep-stride doubles, so a run of
//! any length is always covered end to end by ≤ `CAPACITY` samples at a
//! self-adjusting effective interval (`interval_ms · stride`). The newest
//! samples are always at full stride resolution.
//!
//! This ring is the process's only store of registry history: the SLO
//! evaluator ([`crate::slo::evaluate_ring`]) replays it, `qcfz top` draws
//! it, and a flight dump ([`crate::flight::dump`]) carries its [`tail`].
//!
//! ## Arming and lifecycle
//!
//! Off by default. `QCF_TELEMETRY_SAMPLE=<ms>` arms it for the process:
//! [`crate::RunScope::enter`] starts it at that interval and
//! [`crate::RunScope::finish`] (or drop) stops and **joins** the thread,
//! so no sampler outlives its run and consecutive `qcfz report` phases
//! cannot interleave samples. Programmatic users (`qcfz top`) call
//! [`start`]/[`stop`] directly. The sampler sits on no hot path: engine
//! code never touches this module, so the disabled-telemetry cost of the
//! instrumented paths stays exactly one relaxed atomic load.

use crate::lock_unpoisoned;
use crate::metrics::Snapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Maximum samples retained; on overflow the ring halves itself and
/// doubles its keep-stride (see module docs).
pub const CAPACITY: usize = 512;

/// One captured sample: the registry frozen at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Microseconds since the telemetry epoch (same clock as spans and
    /// journal events).
    pub t_us: u64,
    /// Full metrics registry snapshot.
    pub metrics: Snapshot,
}

#[derive(Debug)]
struct Ring {
    samples: VecDeque<Sample>,
    /// Keep every `stride`-th offered capture (doubles on each fold).
    stride: u64,
    /// Captures offered since the last reset (kept or not).
    offered: u64,
    /// Times the ring downsampled itself.
    folds: u64,
}

impl Default for Ring {
    fn default() -> Self {
        Ring {
            samples: VecDeque::new(),
            stride: 1,
            offered: 0,
            folds: 0,
        }
    }
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(Ring::default()))
}

struct SamplerHandle {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
    interval_ms: u64,
}

fn sampler() -> &'static Mutex<Option<SamplerHandle>> {
    static SAMPLER: OnceLock<Mutex<Option<SamplerHandle>>> = OnceLock::new();
    SAMPLER.get_or_init(|| Mutex::new(None))
}

/// Captures one sample into the ring immediately (the sampler thread's
/// tick body; also used by `qcfz top --once` to guarantee a frame without
/// waiting out an interval). No-op while telemetry is disabled.
pub fn capture() {
    if !crate::enabled() {
        return;
    }
    offer(Sample {
        t_us: crate::span::now_us(),
        metrics: crate::metrics::registry().snapshot(),
    });
}

/// Offers one sample to the ring (between-stride offers after a fold are
/// dropped). Timestamps are forced **strictly** monotonic on admission:
/// `now_us` can tie across adjacent captures (sub-microsecond ticks) and
/// a tie that survives a fold would leave two retained samples claiming
/// the same instant — rate and span math over the downsampled ring then
/// divides by zero. Ties are bumped forward by 1 µs instead.
pub fn offer(mut sample: Sample) {
    let mut ring = lock_unpoisoned(ring());
    ring.offered += 1;
    if !(ring.offered - 1).is_multiple_of(ring.stride) {
        return; // between strides after a fold
    }
    if ring.samples.len() == CAPACITY {
        // Fold: keep every other sample (newest half-resolution), double
        // the stride so future captures match the retained density. Index
        // 0 is always kept, so the series still spans the whole run.
        let kept: VecDeque<Sample> = ring
            .samples
            .drain(..)
            .enumerate()
            .filter_map(|(i, s)| (i % 2 == 0).then_some(s))
            .collect();
        ring.samples = kept;
        ring.stride *= 2;
        ring.folds += 1;
    }
    if let Some(last) = ring.samples.back() {
        if sample.t_us <= last.t_us {
            sample.t_us = last.t_us + 1;
        }
    }
    ring.samples.push_back(sample);
}

/// Starts a background sampler capturing every `interval_ms` milliseconds.
/// Returns `false` (and changes nothing) when one is already running or
/// `interval_ms` is zero.
pub fn start(interval_ms: u64) -> bool {
    if interval_ms == 0 {
        return false;
    }
    let mut slot = lock_unpoisoned(sampler());
    if slot.is_some() {
        return false;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("qcf-sampler".into())
        .spawn(move || {
            capture(); // t=0 sample so even short runs have a series
            while !thread_stop.load(Ordering::Relaxed) {
                // Sleep in small slices so stop() joins promptly even at
                // long intervals.
                let mut left = interval_ms;
                while left > 0 && !thread_stop.load(Ordering::Relaxed) {
                    let slice = left.min(20);
                    std::thread::sleep(Duration::from_millis(slice));
                    left -= slice;
                }
                if thread_stop.load(Ordering::Relaxed) {
                    break;
                }
                capture();
            }
        })
        .expect("spawn sampler thread");
    *slot = Some(SamplerHandle {
        stop,
        thread,
        interval_ms,
    });
    true
}

/// Stops and joins the sampler thread, capturing one final sample so the
/// series always covers the end of the run. Returns `true` when a sampler
/// was actually running. Idempotent.
pub fn stop() -> bool {
    let handle = lock_unpoisoned(sampler()).take();
    match handle {
        Some(h) => {
            h.stop.store(true, Ordering::Relaxed);
            let _ = h.thread.join();
            capture();
            true
        }
        None => false,
    }
}

/// True while a sampler thread is running.
pub fn is_running() -> bool {
    lock_unpoisoned(sampler()).is_some()
}

/// The running sampler's interval, when one is active.
pub fn interval_ms() -> Option<u64> {
    lock_unpoisoned(sampler()).as_ref().map(|h| h.interval_ms)
}

/// All retained samples, oldest first.
pub fn samples() -> Vec<Sample> {
    lock_unpoisoned(ring()).samples.iter().cloned().collect()
}

/// The newest `n` samples, oldest first (the flight recorder's tail).
pub fn tail(n: usize) -> Vec<Sample> {
    let ring = lock_unpoisoned(ring());
    let skip = ring.samples.len().saturating_sub(n);
    ring.samples.iter().skip(skip).cloned().collect()
}

/// Retained sample count.
pub fn len() -> usize {
    lock_unpoisoned(ring()).samples.len()
}

/// True when no samples are retained.
pub fn is_empty() -> bool {
    len() == 0
}

/// Current keep-stride (1 until the first fold, then doubling).
pub fn stride() -> u64 {
    lock_unpoisoned(ring()).stride
}

/// Times the ring has downsampled itself.
pub fn folds() -> u64 {
    lock_unpoisoned(ring()).folds
}

/// Clears the ring and resets the stride. Does not touch a running
/// sampler thread; `RunScope` stops the thread separately.
pub fn reset() {
    *lock_unpoisoned(ring()) = Ring::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_fills_ring_and_folds_at_capacity() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        reset();
        for _ in 0..CAPACITY {
            capture();
        }
        assert_eq!(len(), CAPACITY);
        assert_eq!(stride(), 1);
        // One more capture folds the ring to half and doubles the stride.
        capture();
        assert_eq!(len(), CAPACITY / 2 + 1);
        assert_eq!(stride(), 2);
        assert_eq!(folds(), 1);
        // Timestamps stay monotone through the fold.
        let s = samples();
        assert!(s.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        reset();
    }

    #[test]
    fn strided_captures_keep_every_other() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        reset();
        for _ in 0..=CAPACITY {
            capture(); // forces one fold → stride 2
        }
        let before = len();
        capture(); // off-stride: skipped
        assert_eq!(len(), before);
        capture(); // on-stride: kept
        assert_eq!(len(), before + 1);
        reset();
    }

    #[test]
    fn sampler_thread_runs_and_joins() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        reset();
        assert!(start(1));
        assert!(is_running());
        assert_eq!(interval_ms(), Some(1));
        assert!(!start(5), "second start is a no-op while running");
        std::thread::sleep(Duration::from_millis(30));
        assert!(stop());
        assert!(!is_running());
        assert!(!stop(), "stop is idempotent");
        assert!(len() >= 2, "expected several samples, got {}", len());
        let s = samples();
        assert!(s.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        reset();
    }

    #[test]
    fn disabled_telemetry_captures_nothing() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        reset();
        capture();
        assert_eq!(len(), 0);
        crate::set_enabled(true);
    }

    #[test]
    fn tail_returns_newest() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        reset();
        for _ in 0..10 {
            capture();
        }
        let t = tail(3);
        assert_eq!(t.len(), 3);
        let all = samples();
        assert_eq!(t.last(), all.last());
        assert_eq!(tail(100).len(), 10, "tail larger than ring is clamped");
        reset();
    }
}
