//! Hierarchical RAII spans with thread-aware lanes.
//!
//! A span measures one region of host work: creation timestamps the start,
//! dropping the guard records a [`SpanEvent`] into a bounded global buffer.
//! Spans nest naturally (inner guards drop first), and every thread gets a
//! stable small integer *lane* id, so block-parallel work under
//! `QCF_WORKERS>1` attributes to the worker that actually ran it — the
//! Chrome-trace exporter renders one timeline lane per worker.

use crate::lock_unpoisoned;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Upper bound on buffered span events; beyond it events are counted as
/// dropped instead of stored, bounding memory for long processes.
pub const MAX_SPAN_EVENTS: usize = 1 << 16;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name, e.g. `contract.pairwise`.
    pub name: &'static str,
    /// Category: the name's first dot-separated segment (`contract`).
    pub cat: &'static str,
    /// Lane (thread) id the span ran on.
    pub lane: u32,
    /// Microseconds since the process epoch (first telemetry use).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth on this lane at the time the span started (0 = root).
    pub depth: u32,
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn buffer() -> &'static Mutex<Vec<SpanEvent>> {
    static BUF: OnceLock<Mutex<Vec<SpanEvent>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Vec::new()))
}

static DROPPED: AtomicU64 = AtomicU64::new(0);
static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// This thread's stable lane id (assigned on first use, in thread-start
/// order).
pub fn lane_id() -> u32 {
    LANE.with(|l| *l)
}

/// Microseconds since the process telemetry epoch (first telemetry use) —
/// the same clock span events timestamp with, so sampler, journal and
/// flight-dump timestamps line up with the trace.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Number of span events currently buffered.
pub fn buffered() -> usize {
    lock_unpoisoned(buffer()).len()
}

/// Splits a span name into its category (the segment before the first `.`,
/// or the whole name when there is no dot).
pub fn category_of(name: &'static str) -> &'static str {
    match name.find('.') {
        Some(i) => &name[..i],
        None => name,
    }
}

/// RAII guard: records a [`SpanEvent`] when dropped. Created by [`enter`]
/// or the [`span!`](crate::span!) macro. When telemetry is disabled the
/// guard holds nothing and drop is free.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    name: &'static str,
    start: Instant,
    start_us: u64,
    depth: u32,
}

/// Starts a span named `name`. Near-free when telemetry is disabled.
pub fn enter(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { active: None };
    }
    let start = Instant::now();
    let start_us = start.duration_since(epoch()).as_micros() as u64;
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            start,
            start_us,
            depth,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_us = span.start.elapsed().as_micros() as u64;
        let event = SpanEvent {
            name: span.name,
            cat: category_of(span.name),
            lane: lane_id(),
            start_us: span.start_us,
            dur_us,
            depth: span.depth,
        };
        let mut buf = lock_unpoisoned(buffer());
        if buf.len() < MAX_SPAN_EVENTS {
            buf.push(event);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Starts an RAII span: `let _g = span!("contract.pairwise");`.
///
/// The guard records the span when it goes out of scope; bind it to a
/// named variable (not `_`) so it lives to the end of the block.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::enter($name)
    };
}

/// Snapshot of all buffered span events (production order per lane).
pub fn snapshot() -> Vec<SpanEvent> {
    lock_unpoisoned(buffer()).clone()
}

/// Number of span events dropped due to the buffer bound.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clears the span buffer and drop counter.
pub fn reset() {
    lock_unpoisoned(buffer()).clear();
    DROPPED.store(0, Ordering::Relaxed);
}

/// Aggregates spans by name: `(name, cat, count, total_us)`, largest total
/// first. The per-phase summary the bench harness renders.
pub fn aggregate(events: &[SpanEvent]) -> Vec<(&'static str, &'static str, u64, u64)> {
    let mut by_name: std::collections::BTreeMap<&'static str, (&'static str, u64, u64)> =
        std::collections::BTreeMap::new();
    for e in events {
        let entry = by_name.entry(e.name).or_insert((e.cat, 0, 0));
        entry.1 += 1;
        entry.2 += e.dur_us;
    }
    let mut rows: Vec<_> = by_name
        .into_iter()
        .map(|(n, (c, count, total))| (n, c, count, total))
        .collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_and_nest() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        reset();
        {
            let _outer = crate::span!("test.outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = crate::span!("test.inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let events = snapshot();
        let outer = events
            .iter()
            .find(|e| e.name == "test.outer")
            .expect("outer recorded");
        let inner = events
            .iter()
            .find(|e| e.name == "test.inner")
            .expect("inner recorded");
        assert_eq!(outer.cat, "test");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.dur_us >= inner.dur_us, "outer contains inner");
        assert!(inner.start_us >= outer.start_us);
        reset();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        let before = snapshot().len();
        {
            let _g = crate::span!("test.disabled");
        }
        assert_eq!(snapshot().len(), before);
        crate::set_enabled(true);
    }

    #[test]
    fn lanes_distinguish_threads() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        reset();
        let main_lane = lane_id();
        let other = std::thread::spawn(|| {
            let _g = crate::span!("test.worker");
            lane_id()
        })
        .join()
        .unwrap();
        assert_ne!(main_lane, other, "each thread gets its own lane");
        let events = snapshot();
        let worker = events.iter().find(|e| e.name == "test.worker").unwrap();
        assert_eq!(worker.lane, other);
        reset();
    }

    #[test]
    fn category_splits_on_first_dot() {
        assert_eq!(category_of("contract.pairwise"), "contract");
        assert_eq!(category_of("stage.dict.emit"), "stage");
        assert_eq!(category_of("plain"), "plain");
    }

    #[test]
    fn aggregate_sums_by_name() {
        let events = vec![
            SpanEvent {
                name: "a.x",
                cat: "a",
                lane: 0,
                start_us: 0,
                dur_us: 5,
                depth: 0,
            },
            SpanEvent {
                name: "a.x",
                cat: "a",
                lane: 1,
                start_us: 2,
                dur_us: 7,
                depth: 0,
            },
            SpanEvent {
                name: "b.y",
                cat: "b",
                lane: 0,
                start_us: 9,
                dur_us: 100,
                depth: 0,
            },
        ];
        let rows = aggregate(&events);
        assert_eq!(rows[0], ("b.y", "b", 1, 100));
        assert_eq!(rows[1], ("a.x", "a", 2, 12));
    }
}
