//! The flight recorder: a bounded ring of recent telemetry snapshots, so a
//! bad run can explain itself after the fact.
//!
//! Instrumented code (the `qcfz` subcommands, the report pipeline, any
//! library user) calls [`record`]`("label")` at interesting moments; each
//! call captures a [`FlightFrame`] — timestamp, label, the full metrics
//! registry snapshot, and the span-buffer fill level — into a fixed-size
//! ring ([`CAPACITY`] frames; older frames are overwritten and counted).
//! When a run fails, [`dump`] (or the `qcfz` error path) writes the ring
//! as one JSON document, so the operator sees the last N checkpoints of
//! registry state leading up to the failure without having re-run under a
//! debugger.
//!
//! ## Enabling
//!
//! The recorder is **off** unless `QCF_FLIGHT_RECORD` arms it (a switch
//! word that is on, or a path) or [`set_enabled`]`(true)` is called. A path
//! value doubles as the default dump destination ([`dump_path`]); `qcfz`
//! writes there on error *and* at normal exit, so the ring is available
//! on demand, not only post-mortem. Recording also
//! requires the telemetry layer itself to be enabled — a disabled process
//! pays one relaxed atomic load per [`record`] call and nothing else.

use crate::config::FlightRecord;
use crate::lock_unpoisoned;
use crate::metrics::Snapshot;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Maximum frames retained; older frames are overwritten (and counted in
/// [`overwritten`]).
pub const CAPACITY: usize = 32;

/// One recorded checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightFrame {
    /// Microseconds since the telemetry epoch (same clock as span events).
    pub t_us: u64,
    /// Caller-provided checkpoint label (e.g. `qaoa.done`, `error: …`).
    pub label: String,
    /// Full metrics registry snapshot at the checkpoint.
    pub metrics: Snapshot,
    /// Span events buffered at the checkpoint.
    pub spans_buffered: usize,
    /// Span events dropped (buffer full) at the checkpoint.
    pub spans_dropped: u64,
}

#[derive(Debug, Default)]
struct Ring {
    frames: VecDeque<FlightFrame>,
    overwritten: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(Ring::default()))
}

/// 0 = uninitialized, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when the flight recorder is armed (see module docs for the
/// `QCF_FLIGHT_RECORD` convention).
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = crate::config::config().flight_record != FlightRecord::Off;
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Overrides the armed state (tests, CLIs with an explicit flag).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// The dump destination implied by `QCF_FLIGHT_RECORD`, when its value is
/// a path rather than a bare on-switch.
pub fn dump_path() -> Option<&'static std::path::Path> {
    match &crate::config::config().flight_record {
        FlightRecord::Path(path) => Some(path),
        _ => None,
    }
}

/// Captures one frame labelled `label` into the ring. No-op unless both
/// the recorder and telemetry are enabled.
pub fn record(label: &str) {
    if !enabled() || !crate::enabled() {
        return;
    }
    let frame = FlightFrame {
        t_us: crate::span::now_us(),
        label: label.to_string(),
        metrics: crate::metrics::registry().snapshot(),
        spans_buffered: crate::span::buffered(),
        spans_dropped: crate::span::dropped(),
    };
    let mut ring = lock_unpoisoned(ring());
    if ring.frames.len() == CAPACITY {
        ring.frames.pop_front();
        ring.overwritten += 1;
    }
    ring.frames.push_back(frame);
}

/// All retained frames, oldest first.
pub fn frames() -> Vec<FlightFrame> {
    lock_unpoisoned(ring()).frames.iter().cloned().collect()
}

/// Frames displaced from the ring so far.
pub fn overwritten() -> u64 {
    lock_unpoisoned(ring()).overwritten
}

/// Clears the ring (tests, run isolation when a fresh recording is wanted).
pub fn reset() {
    let mut ring = lock_unpoisoned(ring());
    ring.frames.clear();
    ring.overwritten = 0;
}

/// Newest time-series samples embedded in every dump, so a post-mortem
/// carries the last seconds of the sampler's view alongside the frames.
pub const SAMPLER_TAIL: usize = 8;

/// Renders the ring as one JSON document:
/// `{"capacity":…,"overwritten":…,"frames":[{…}],"sampler_tail":[{…}]}`.
/// The `sampler_tail` array holds the newest [`SAMPLER_TAIL`] samples from
/// [`crate::timeseries`] (empty when the sampler never ran).
pub fn to_json() -> String {
    use std::fmt::Write as _;
    let frames = frames();
    let overwritten = overwritten();
    let mut out = String::with_capacity(256 + frames.len() * 512);
    let _ = write!(
        out,
        "{{\"capacity\":{CAPACITY},\"overwritten\":{overwritten},\"frames\":["
    );
    for (i, f) in frames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"t_us\":{},\"label\":\"", f.t_us);
        crate::export::escape_into(&mut out, &f.label);
        let _ = write!(
            out,
            "\",\"spans_buffered\":{},\"spans_dropped\":{},\"metrics\":{}}}",
            f.spans_buffered,
            f.spans_dropped,
            crate::export::metrics_json(&f.metrics)
        );
    }
    out.push_str("],\"sampler_tail\":[");
    for (i, s) in crate::timeseries::tail(SAMPLER_TAIL).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"t_us\":{},\"metrics\":{}}}",
            s.t_us,
            crate::export::metrics_json(&s.metrics)
        );
    }
    out.push_str("]}");
    out
}

/// Records one final frame labelled `label` and writes the ring to `path`
/// (or the `QCF_FLIGHT_RECORD` path, or `qcf-flight.json`). Returns the
/// path written, or `None` when the recorder is disarmed.
pub fn dump(
    label: &str,
    path: Option<&std::path::Path>,
) -> std::io::Result<Option<std::path::PathBuf>> {
    if !enabled() {
        return Ok(None);
    }
    record(label);
    let path = match path {
        Some(p) => p,
        None => dump_path().unwrap_or_else(|| std::path::Path::new("qcf-flight.json")),
    };
    std::fs::write(path, to_json())?;
    Ok(Some(path.to_path_buf()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_enabled(false);
        reset();
        record("ignored");
        assert!(frames().is_empty());
        assert_eq!(dump("x", None).unwrap(), None);
    }

    #[test]
    fn frames_capture_metrics_and_ring_is_bounded() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        let c = crate::registry().counter("flight.test.events");
        for i in 0..(CAPACITY + 5) {
            c.inc();
            record(&format!("step {i}"));
        }
        let frames = frames();
        assert_eq!(frames.len(), CAPACITY, "ring must stay bounded");
        assert_eq!(overwritten(), 5);
        // Oldest retained frame is step 5; newest is the last step.
        assert_eq!(frames[0].label, "step 5");
        assert_eq!(
            frames.last().unwrap().label,
            format!("step {}", CAPACITY + 4)
        );
        // Each frame froze the registry at its moment: the counter grows
        // monotonically across frames.
        let counts: Vec<u64> = frames
            .iter()
            .map(|f| *f.metrics.counters.get("flight.test.events").unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] < w[1]), "{counts:?}");
        reset();
        set_enabled(false);
    }

    #[test]
    fn json_dump_is_valid() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        record("with \"quotes\" and\nnewlines");
        let doc = to_json();
        crate::export::validate_json(&doc).expect("flight JSON must be valid");
        assert!(doc.contains("\"capacity\""));
        assert!(doc.contains("quotes"));
        assert!(doc.contains("\"sampler_tail\""));
        reset();
        set_enabled(false);
    }

    #[test]
    fn dump_carries_the_sampler_tail() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        crate::timeseries::reset();
        for _ in 0..(SAMPLER_TAIL + 4) {
            crate::timeseries::capture();
        }
        record("end");
        let doc = to_json();
        crate::export::validate_json(&doc).expect("flight JSON with tail must be valid");
        // Exactly SAMPLER_TAIL newest samples are embedded.
        let tail_count = doc.matches("{\"t_us\":").count() - frames().len();
        assert_eq!(tail_count, SAMPLER_TAIL, "{doc}");
        crate::timeseries::reset();
        reset();
        set_enabled(false);
    }

    #[test]
    fn telemetry_disabled_blocks_recording() {
        let _g = crate::test_guard();
        set_enabled(true);
        crate::set_enabled(false);
        reset();
        record("nope");
        assert!(frames().is_empty(), "telemetry off ⇒ no frames");
        crate::set_enabled(true);
        set_enabled(false);
    }
}
