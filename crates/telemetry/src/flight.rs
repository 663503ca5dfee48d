//! The flight recorder: a post-mortem dump, so a bad run can explain
//! itself after the fact.
//!
//! [`dump`] writes one JSON document: a label (`exit`, `error: …`), the
//! live metrics registry, the span-buffer fill and the newest
//! [`SAMPLER_TAIL`] samples of the [`crate::timeseries`] ring, which is the
//! one store of registry history. The recorder keeps no ring of its own:
//! the registry at the moment of failure plus the sampler's recent view is
//! the record.
//!
//! ## Enabling
//!
//! The recorder is **off** unless `QCF_FLIGHT_RECORD` arms it (a switch
//! word that is on, or a path) or [`set_enabled`]`(true)` is called. A path
//! value doubles as the default dump destination ([`dump_path`]); `qcfz`
//! dumps on error *and*, when a path is set, at normal exit. Disarmed,
//! [`dump`] writes nothing.

use crate::config::FlightRecord;
use std::sync::atomic::{AtomicU8, Ordering};

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

/// Newest time-series samples embedded in every dump, so a post-mortem
/// carries the last seconds of the sampler's view alongside the registry.
pub const SAMPLER_TAIL: usize = 8;

/// Renders the dump as one JSON document:
/// `{"t_us":…,"label":…,"spans_buffered":…,"spans_dropped":…,"metrics":{…},"sampler_tail":[{…}]}`.
/// `metrics` is the live registry; `sampler_tail` holds the newest
/// [`SAMPLER_TAIL`] samples (empty when the sampler never ran).
fn to_json(label: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    let _ = write!(out, "{{\"t_us\":{},\"label\":\"", crate::span::now_us());
    crate::export::escape_into(&mut out, label);
    let _ = write!(
        out,
        "\",\"spans_buffered\":{},\"spans_dropped\":{},\"metrics\":{},\"sampler_tail\":[",
        crate::span::buffered(),
        crate::span::dropped(),
        crate::export::metrics_json(&crate::metrics::registry().snapshot())
    );
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

/// Writes the dump labelled `label` to `path` (or the `QCF_FLIGHT_RECORD`
/// path, or `qcf-flight.json`). Returns the path written, or `None` when
/// the recorder is disarmed.
pub fn dump(
    label: &str,
    path: Option<&std::path::Path>,
) -> std::io::Result<Option<std::path::PathBuf>> {
    if !enabled() {
        return Ok(None);
    }
    let path = match path {
        Some(p) => p,
        None => dump_path().unwrap_or_else(|| std::path::Path::new("qcf-flight.json")),
    };
    std::fs::write(path, to_json(label))?;
    Ok(Some(path.to_path_buf()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("qcf-flight-{}-{name}.json", std::process::id()))
    }

    #[test]
    fn disarmed_dump_writes_nothing() {
        let _g = crate::test_guard();
        set_enabled(false);
        let path = scratch_path("disarmed");
        let _ = std::fs::remove_file(&path);
        assert_eq!(dump("x", Some(&path)).unwrap(), None);
        assert!(!path.exists(), "a disarmed recorder must not write");
    }

    #[test]
    fn armed_dump_carries_label_live_registry_and_sampler_tail() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_enabled(true);
        crate::timeseries::reset();
        let c = crate::registry().counter("flight.test.events");
        let base = c.get();
        for _ in 0..(SAMPLER_TAIL + 4) {
            c.inc();
            crate::timeseries::capture();
        }
        // Only the live registry has seen this value; every sample
        // predates it.
        c.add(1000);
        let path = scratch_path("armed");
        let label = "error: with \"quotes\" and\nnewlines";
        assert_eq!(dump(label, Some(&path)).unwrap(), Some(path.clone()));
        let doc = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        crate::export::validate_json(&doc).expect("flight JSON must be valid");
        assert!(
            doc.contains(r#""label":"error: with \"quotes\" and\nnewlines""#),
            "{doc}"
        );

        // The counter's value in each JSON document, in order.
        let counts = |json: &str| -> Vec<u64> {
            let leading = |v: &str| -> u64 {
                let digits = v.split(|ch: char| !ch.is_ascii_digit()).next();
                digits.unwrap().parse().unwrap()
            };
            json.split("\"flight.test.events\":")
                .skip(1)
                .map(leading)
                .collect()
        };
        let (live, tail) = doc.split_once("\"sampler_tail\":[").unwrap();
        assert_eq!(counts(live), [base + SAMPLER_TAIL as u64 + 4 + 1000]);
        // Exactly the SAMPLER_TAIL newest samples, oldest first.
        let newest: Vec<u64> = (5..=SAMPLER_TAIL as u64 + 4).map(|i| base + i).collect();
        assert_eq!(counts(tail), newest, "{doc}");
        crate::timeseries::reset();
        set_enabled(false);
    }
}
