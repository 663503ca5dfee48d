//! # qcf-telemetry — the workspace's measurement substrate
//!
//! Every crate in the workspace reports into this one layer, so the
//! questions the paper's evaluation asks — where does the time go per
//! kernel, what is the peak live footprint, what ratio does each stage
//! contribute — are answered from one place instead of per-crate ad-hoc
//! state:
//!
//! * [`span`] — lightweight hierarchical spans with thread-aware lanes.
//!   `span!("contract.pairwise")` returns an RAII guard; the category is
//!   the name's first dot-separated segment.
//! * [`metrics`] — a global registry of counters, gauges (with high-water
//!   marks), float gauges and fixed-bucket histograms.
//! * [`export`] — a Chrome-trace JSON exporter (`chrome://tracing` /
//!   `ui.perfetto.dev`-loadable; one lane per worker thread plus one
//!   virtual lane per simulated GPU stream) and flat JSON/TSV metrics
//!   dumps.
//! * [`faults`] — deterministic fault injection for chaos testing
//!   (`QCF_FAULTS`), gated on the same one-relaxed-load pattern as the
//!   enabled flag.
//! * [`timeseries`] — a background sampler (`QCF_TELEMETRY_SAMPLE=<ms>`)
//!   capturing registry snapshots into a fixed-capacity downsampling ring
//!   for rates-over-time and `qcfz top`: the one store of registry
//!   history.
//! * [`slo`] — declarative service-level objectives (`QCF_SLO`), judged
//!   by replaying the sampler ring.
//! * [`flight`] — a post-mortem JSON dump (`QCF_FLIGHT_RECORD`) of the
//!   live registry and the sampler ring's tail.
//! * [`journal`] — a per-chunk causal event journal (`QCF_JOURNAL`):
//!   bounded per-chunk rings of sequence-numbered lifecycle events behind
//!   every ledger requant/quarantine count.
//! * [`config`] — every `QCF_*` variable, parsed once into one typed
//!   [`config::Config`] under one policy for malformed values.
//!
//! ## Cost when disabled
//!
//! Telemetry is on by default and disabled with `QCF_TELEMETRY=0` (or
//! [`set_enabled`]`(false)`). Disabled, every instrumentation point
//! reduces to one relaxed atomic load and a branch — no clock reads, no
//! locks, no allocation — so hot paths keep their measured throughput
//! (see `BENCH_telemetry.json` at the workspace root for numbers).
//!
//! Span and metric state is process-global. The span buffer is bounded
//! ([`span::MAX_SPAN_EVENTS`]); overflow increments a drop counter rather
//! than growing without bound.

pub mod config;
pub mod export;
pub mod faults;
pub mod flight;
pub mod journal;
pub mod metrics;
pub mod slo;
pub mod span;
pub mod timeseries;

pub use export::{chrome_trace, metrics_json, metrics_tsv, prometheus_text, LaneEvent, StreamLane};
pub use metrics::{registry, Counter, FloatGauge, Gauge, GaugeTrack, Histogram, Registry};
pub use span::{SpanEvent, SpanGuard};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard};

/// 0 = uninitialized, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when telemetry collection is active.
///
/// Initialized on first call from `QCF_TELEMETRY` ([`config::config`];
/// on unless switched off). One relaxed atomic load on every later call.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = config::config().telemetry;
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Locks `m`, recovering the guard if a previous holder panicked.
///
/// Only for mutexes whose state is valid after every single update
/// (counters, free-lists, rings, file handles): there a panic elsewhere
/// must not cascade into every later caller.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Overrides the enabled state (CLIs forcing `--trace`, overhead benches).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Clears all recorded spans, metric values (counters, gauges and
/// histograms keep their registrations), time-series samples and journal
/// rings. For isolating runs in one process.
pub fn reset() {
    span::reset();
    metrics::registry().reset_values();
    timeseries::reset();
    journal::reset();
}

/// Scoped run isolation: entering a `RunScope` clears the span buffer,
/// every metric value, the time-series ring and the chunk journal, so a
/// run that starts inside the scope reads zeros — consecutive subcommands
/// in one process (`qcfz report` runs `qaoa`, `state` and a quality sweep
/// back to back) no longer bleed `state.*` counters, samples or chunk events
/// into each other's exports.
///
/// Entering also arms the time-series sampler when
/// `QCF_TELEMETRY_SAMPLE=<ms>` asks for one; [`RunScope::finish`] (and the
/// scope's drop, for CLIs that hold the scope to process exit) stops and
/// **joins** that sampler thread, so no sampler outlives its run.
///
/// [`RunScope::finish`] reads the scope's spans and metrics out and clears
/// them again, handing the caller an isolated per-run record.
#[derive(Debug)]
#[must_use = "entering the scope is what resets the registry"]
pub struct RunScope(());

impl RunScope {
    /// Starts an isolated run: spans, metric values, time series and
    /// journal reset to zero; the env-armed sampler (if any) starts.
    pub fn enter() -> Self {
        // A sampler left over from a previous scope must not write into
        // this scope's freshly-reset ring.
        timeseries::stop();
        reset();
        if let Some(ms) = config::config().telemetry_sample_ms {
            timeseries::start(ms);
        }
        RunScope(())
    }

    /// Ends the run: stops and joins the sampler, then returns everything
    /// recorded since [`RunScope::enter`] and leaves the registry clean
    /// for the next scope.
    pub fn finish(self) -> (Vec<SpanEvent>, metrics::Snapshot) {
        timeseries::stop();
        let spans = span::snapshot();
        let snap = metrics::registry().drain();
        span::reset();
        (spans, snap)
    }
}

impl Drop for RunScope {
    fn drop(&mut self) {
        // `finish` already stopped the sampler; this covers scopes that
        // are simply dropped (the `qcfz` main holds one to process exit).
        timeseries::stop();
    }
}

/// Serializes tests that touch the process-global enabled flag / buffers.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    lock_unpoisoned(&LOCK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_scopes_do_not_bleed() {
        let _g = test_guard();
        set_enabled(true);
        let scope = RunScope::enter();
        registry().counter("state.cache.hit").add(11);
        {
            let _s = span!("test.scope_one");
        }
        let (spans, snap) = scope.finish();
        assert_eq!(snap.counters.get("state.cache.hit"), Some(&11));
        assert!(spans.iter().any(|e| e.name == "test.scope_one"));

        // Second scope starts from zero: nothing from scope one leaks.
        let scope = RunScope::enter();
        registry().counter("state.cache.hit").add(2);
        let (spans, snap) = scope.finish();
        assert_eq!(
            snap.counters.get("state.cache.hit"),
            Some(&2),
            "previous run's counters must not bleed into this run"
        );
        assert!(!spans.iter().any(|e| e.name == "test.scope_one"));
    }

    #[test]
    fn run_scope_resets_timeseries_and_journal() {
        let _g = test_guard();
        set_enabled(true);
        journal::set_enabled(true);
        let scope = RunScope::enter();
        timeseries::capture();
        journal::record(3, journal::EventKind::Zero, 1.0);
        assert_eq!(timeseries::len(), 1);
        assert_eq!(journal::total_events(), 1);
        drop(scope.finish());

        // The next scope must start with empty series and journal.
        let scope = RunScope::enter();
        assert_eq!(timeseries::len(), 0, "samples bled between scopes");
        assert_eq!(journal::total_events(), 0, "events bled between scopes");
        assert!(journal::events(3).is_empty());
        drop(scope.finish());
        journal::set_enabled(false);
    }

    #[test]
    fn run_scope_joins_a_programmatic_sampler() {
        let _g = test_guard();
        set_enabled(true);
        let scope = RunScope::enter();
        timeseries::start(1);
        assert!(timeseries::is_running());
        std::thread::sleep(std::time::Duration::from_millis(10));
        let (_, _) = scope.finish();
        assert!(
            !timeseries::is_running(),
            "finish must stop and join the sampler"
        );
    }

    #[test]
    fn enabled_toggles() {
        let _g = test_guard();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
    }
}
