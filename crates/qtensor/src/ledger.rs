//! The error-budget ledger: per-chunk accounting of every lossy event.
//!
//! The related amplitude-compression work (and this repo's own E8
//! characterization in `qcf-core::fidelity`) agree on the failure mode of
//! compressed simulation: it is the *accumulated* requantization error — not
//! the per-chunk bound — that degrades the final fidelity. Stage fusion
//! bounds how often that error is paid (once per stage that touches a
//! chunk), but that alone *records* nothing: a run that requantized one
//! hot chunk 200 times would look identical to one that requantized it
//! twice.
//!
//! [`ErrorLedger`] closes that gap. [`CompressedState`](crate::CompressedState)
//! reports every lossy event into it:
//!
//! * the **initial quantization** of each chunk at state preparation,
//! * every **requantization** — each chunk re-encoded once per stage of
//!   gates that touches it (the state is write-through),
//! * **error mixing** when a stage's gates combine a group of chunks, so
//!   each chunk's running estimate reflects everything that flowed into it.
//!
//! Per event the ledger stores the resolved absolute bound and folds it
//! into a running accumulated-bound estimate using the same first-order
//! random-walk model `qcf-core::fidelity` calibrates against measurements:
//! independent bounded perturbations add in quadrature ([`rss_accumulate`]).
//! Lossless events are counted but contribute zero bound, so a lossless
//! codec provably keeps every estimate at exactly `0.0` (property-tested).
//!
//! Bookkeeping is local-always (exact regardless of `QCF_TELEMETRY`, like
//! the `GaugeTrack`-backed stats) and mirrored into the registry when
//! telemetry is on: `state.ledger.requants` (counter),
//! `state.ledger.event_abs_bound` (histogram),
//! `state.ledger.max_requants` (gauge) and
//! `state.ledger.accumulated_bound` (float gauge).

use qcf_telemetry::{Counter, FloatGauge, Gauge, Histogram};
use std::sync::Arc;

/// Folds one more independent bounded perturbation into a running
/// accumulated-bound estimate: the first-order random-walk (root-sum-square)
/// model — `sqrt(acc² + eps²)`.
#[inline]
pub fn rss_accumulate(acc: f64, eps: f64) -> f64 {
    (acc * acc + eps * eps).sqrt()
}

/// Accumulated bound after `events` independent perturbations of equal
/// magnitude `eps`: `eps·√events` (the closed form of repeated
/// [`rss_accumulate`]; `qcf-core::fidelity`'s prediction model is
/// `C ·` this).
#[inline]
pub fn uniform_rss(eps: f64, events: usize) -> f64 {
    eps * (events.max(1) as f64).sqrt()
}

/// Per-chunk ledger record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChunkRecord {
    /// Total encodes of this chunk (lossy or lossless, including the
    /// initial state-preparation encode).
    pub encodes: u64,
    /// Lossy re-quantizations absorbed (write-backs after the initial
    /// encode; `0` forever under a lossless codec).
    pub requants: u64,
    /// Running accumulated-bound estimate (RSS over every lossy event that
    /// touched this chunk, including error mixed in from grouped gates).
    pub accumulated_bound: f64,
    /// Resolved absolute bound of the most recent lossy event.
    pub last_abs_bound: f64,
    /// Largest *measured* max-abs-error over this chunk's events, when
    /// measurement was cheap (lossless events measure `0.0` for free;
    /// lossy events measure only under `QCF_LEDGER_MEASURE=1`).
    pub max_measured_err: f64,
    /// Whether any event's error was actually measured.
    pub measured: bool,
    /// Times this chunk was quarantined (zero-filled after recovery from a
    /// poisoned decode or encode was exhausted).
    pub quarantines: u64,
}

/// Aggregate view of a whole state's ledger — the queryable per-state
/// summary `qcfz report` renders and baselines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LedgerSummary {
    /// Number of chunks tracked.
    pub chunks: usize,
    /// Total encodes across chunks.
    pub total_encodes: u64,
    /// Total lossy re-quantizations across chunks.
    pub total_requants: u64,
    /// Largest per-chunk requant count.
    pub max_requants: u64,
    /// Largest per-chunk accumulated bound.
    pub max_accumulated_bound: f64,
    /// Mean per-chunk accumulated bound.
    pub mean_accumulated_bound: f64,
    /// RSS over all chunks' accumulated bounds — the state-level input to
    /// `qcf-core::fidelity::predict_ledger_energy_error`.
    pub accumulated_rss: f64,
    /// Largest measured max-abs-error (0.0 when nothing was measured).
    pub max_measured_err: f64,
    /// True when any event was lossy.
    pub lossy: bool,
    /// Total quarantine events across chunks.
    pub total_quarantines: u64,
}

/// Ledger over a fixed set of chunks. Created by
/// [`CompressedState`](crate::CompressedState); exact regardless of the
/// telemetry enabled flag.
#[derive(Debug)]
pub struct ErrorLedger {
    chunks: Vec<ChunkRecord>,
    lossy_events: u64,
    requants: Arc<Counter>,
    quarantines: Arc<Counter>,
    bound_hist: Arc<Histogram>,
    max_requants_gauge: Arc<Gauge>,
    acc_bound_gauge: Arc<FloatGauge>,
    acc_rss_gauge: Arc<FloatGauge>,
}

impl ErrorLedger {
    /// A fresh ledger over `n_chunks` chunks.
    pub fn new(n_chunks: usize) -> Self {
        let reg = qcf_telemetry::registry();
        ErrorLedger {
            chunks: vec![ChunkRecord::default(); n_chunks],
            lossy_events: 0,
            requants: reg.counter("state.ledger.requants"),
            quarantines: reg.counter("state.ledger.quarantines"),
            bound_hist: reg.histogram(
                "state.ledger.event_abs_bound",
                &[1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 1.0],
            ),
            max_requants_gauge: reg.gauge("state.ledger.max_requants"),
            acc_bound_gauge: reg.float_gauge("state.ledger.accumulated_bound"),
            acc_rss_gauge: reg.float_gauge("state.ledger.accumulated_rss"),
        }
    }

    /// Rebuilds a ledger from checkpointed records: the restored state's
    /// accounting (and its registry mirrors) must be field-for-field the
    /// state that was checkpointed, so resumed runs report identically.
    pub(crate) fn restore(records: Vec<ChunkRecord>, lossy_events: u64) -> Self {
        let mut ledger = ErrorLedger::new(records.len());
        ledger.chunks = records;
        ledger.lossy_events = lossy_events;
        let max = ledger.chunks.iter().map(|c| c.requants).max().unwrap_or(0);
        ledger.max_requants_gauge.set(max as i64);
        ledger.publish_bounds();
        ledger
    }

    /// Every chunk's record, in chunk order (checkpoint serialization).
    pub(crate) fn records(&self) -> &[ChunkRecord] {
        &self.chunks
    }

    /// Refreshes the registry mirrors of the state-level bounds: the
    /// worst per-chunk accumulated bound and the state-level RSS across
    /// chunks ([`LedgerSummary::accumulated_rss`] — the fidelity signal
    /// the SLO engine watches live, rather than only at summary time).
    fn publish_bounds(&self) {
        let mut max_acc = 0.0f64;
        let mut rss = 0.0f64;
        for c in &self.chunks {
            max_acc = max_acc.max(c.accumulated_bound);
            rss = rss_accumulate(rss, c.accumulated_bound);
        }
        self.acc_bound_gauge.set(max_acc);
        self.acc_rss_gauge.set(rss);
    }

    /// Number of chunks tracked.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The record for chunk `id`.
    pub fn chunk(&self, id: usize) -> &ChunkRecord {
        &self.chunks[id]
    }

    /// Total lossy events recorded (initial quantizations + requants).
    pub fn lossy_events(&self) -> u64 {
        self.lossy_events
    }

    /// Records the initial (state-preparation) encode of chunk `id`.
    /// `abs_bound` is the resolved absolute bound when the encode was
    /// lossy, `None` for a lossless codec.
    pub fn record_initial(&mut self, id: usize, abs_bound: Option<f64>) {
        self.record_event(id, abs_bound, None, false);
    }

    /// Records a write-back of chunk `id`. Lossy write-backs (`abs_bound`
    /// present) count as one requantization; `measured_err` is the actual
    /// max-abs-error when it was cheap to obtain.
    pub fn record_requant(&mut self, id: usize, abs_bound: Option<f64>, measured_err: Option<f64>) {
        self.record_event(id, abs_bound, measured_err, true);
    }

    fn record_event(
        &mut self,
        id: usize,
        abs_bound: Option<f64>,
        measured_err: Option<f64>,
        requant: bool,
    ) {
        let rec = &mut self.chunks[id];
        rec.encodes += 1;
        if let Some(err) = measured_err {
            rec.max_measured_err = rec.max_measured_err.max(err);
            rec.measured = true;
        }
        let Some(eps) = abs_bound else {
            return; // lossless: counted, zero error contribution
        };
        self.lossy_events += 1;
        rec.last_abs_bound = eps;
        rec.accumulated_bound = rss_accumulate(rec.accumulated_bound, eps);
        if requant {
            rec.requants += 1;
            self.requants.inc();
            let max = self.chunks.iter().map(|c| c.requants).max().unwrap_or(0);
            self.max_requants_gauge.set(max as i64);
        }
        self.bound_hist.observe(eps);
        self.publish_bounds();
    }

    /// Records a quarantine of chunk `id`: its amplitudes were zero-filled
    /// after every recovery policy failed, losing `lost_norm_sq` of squared
    /// amplitude norm. The loss enters the chunk's accumulated bound as one
    /// perturbation of magnitude `sqrt(lost_norm_sq)` — an upper bound on
    /// the amplitude error the zero-fill introduced — so downstream
    /// fidelity predictions see quarantines as (large) lossy events rather
    /// than silently ignoring them.
    pub fn record_quarantine(&mut self, id: usize, lost_norm_sq: f64) {
        let rec = &mut self.chunks[id];
        rec.quarantines += 1;
        self.lossy_events += 1;
        let eps = lost_norm_sq.max(0.0).sqrt();
        rec.accumulated_bound = rss_accumulate(rec.accumulated_bound, eps);
        self.quarantines.inc();
        self.publish_bounds();
    }

    /// Propagates accumulated bounds through a cross-chunk (grouped) gate.
    ///
    /// The gate's unitary moves amplitude — and with it the accumulated
    /// perturbation — between the member chunks, but being unitary it
    /// preserves the total error energy. To first order the group's sum of
    /// squared bounds is therefore conserved and redistributed evenly: each
    /// member ends at `sqrt(Σᵢ bᵢ² / k)`. This keeps the state-level
    /// [`LedgerSummary::accumulated_rss`] an invariant of the events alone
    /// (for a uniform bound ε it stays exactly `ε·√events`, matching
    /// `qcf-core::fidelity`'s closed form no matter how gates regroup the
    /// chunks).
    pub fn mix(&mut self, members: &[usize]) {
        let sum_sq: f64 = members
            .iter()
            .map(|&id| {
                let b = self.chunks[id].accumulated_bound;
                b * b
            })
            .sum();
        if sum_sq == 0.0 {
            return;
        }
        let per_member = (sum_sq / members.len() as f64).sqrt();
        for &id in members {
            self.chunks[id].accumulated_bound = per_member;
        }
    }

    /// The aggregate per-state summary.
    pub fn summary(&self) -> LedgerSummary {
        let mut s = LedgerSummary {
            chunks: self.chunks.len(),
            lossy: self.lossy_events > 0,
            ..LedgerSummary::default()
        };
        for rec in &self.chunks {
            s.total_encodes += rec.encodes;
            s.total_requants += rec.requants;
            s.max_requants = s.max_requants.max(rec.requants);
            s.max_accumulated_bound = s.max_accumulated_bound.max(rec.accumulated_bound);
            s.mean_accumulated_bound += rec.accumulated_bound;
            s.accumulated_rss = rss_accumulate(s.accumulated_rss, rec.accumulated_bound);
            s.max_measured_err = s.max_measured_err.max(rec.max_measured_err);
            s.total_quarantines += rec.quarantines;
        }
        if !self.chunks.is_empty() {
            s.mean_accumulated_bound /= self.chunks.len() as f64;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_matches_closed_form() {
        let mut acc = 0.0;
        for _ in 0..9 {
            acc = rss_accumulate(acc, 1e-4);
        }
        assert!((acc - uniform_rss(1e-4, 9)).abs() < 1e-18);
        assert_eq!(rss_accumulate(0.0, 0.0), 0.0);
        assert!((rss_accumulate(3.0, 4.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lossless_events_accumulate_nothing() {
        let mut l = ErrorLedger::new(4);
        for id in 0..4 {
            l.record_initial(id, None);
        }
        l.record_requant(2, None, Some(0.0));
        let s = l.summary();
        assert_eq!(s.total_encodes, 5);
        assert_eq!(s.total_requants, 0, "lossless write-backs are not requants");
        assert_eq!(s.max_accumulated_bound, 0.0);
        assert_eq!(s.accumulated_rss, 0.0);
        assert!(!s.lossy);
    }

    #[test]
    fn requants_count_per_chunk_and_bounds_accumulate() {
        let mut l = ErrorLedger::new(2);
        l.record_initial(0, Some(1e-4));
        l.record_initial(1, Some(1e-4));
        l.record_requant(0, Some(1e-4), None);
        l.record_requant(0, Some(1e-4), None);
        let s = l.summary();
        assert_eq!(s.total_requants, 2);
        assert_eq!(s.max_requants, 2);
        assert_eq!(l.chunk(1).requants, 0);
        // Chunk 0 absorbed 3 lossy events, chunk 1 one.
        assert!((l.chunk(0).accumulated_bound - uniform_rss(1e-4, 3)).abs() < 1e-18);
        assert!((l.chunk(1).accumulated_bound - 1e-4).abs() < 1e-18);
        assert!(s.lossy);
    }

    #[test]
    fn mixing_conserves_error_energy_across_chunks() {
        let mut l = ErrorLedger::new(3);
        l.record_initial(0, Some(3e-5));
        l.record_initial(1, Some(4e-5));
        let rss_before = l.summary().accumulated_rss;
        l.mix(&[0, 1]);
        // Evenly redistributed: each member at sqrt((3² + 4²)/2)·1e-5.
        let want = (rss_accumulate(3e-5, 4e-5).powi(2) / 2.0).sqrt();
        assert!((l.chunk(0).accumulated_bound - want).abs() < 1e-18);
        assert!((l.chunk(1).accumulated_bound - want).abs() < 1e-18);
        assert_eq!(l.chunk(2).accumulated_bound, 0.0, "untouched chunk");
        // The state-level RSS is invariant under mixing.
        assert!((l.summary().accumulated_rss - rss_before).abs() < 1e-18);
        // Mixing clean chunks is a no-op.
        l.mix(&[2]);
        assert_eq!(l.chunk(2).accumulated_bound, 0.0);
    }

    #[test]
    fn quarantine_folds_lost_norm_into_the_bound() {
        let mut l = ErrorLedger::new(2);
        l.record_initial(0, Some(1e-4));
        l.record_quarantine(0, 0.25); // lost norm² 0.25 → eps 0.5
        let s = l.summary();
        assert_eq!(s.total_quarantines, 1);
        assert_eq!(l.chunk(0).quarantines, 1);
        assert_eq!(l.chunk(1).quarantines, 0);
        assert!((l.chunk(0).accumulated_bound - rss_accumulate(1e-4, 0.5)).abs() < 1e-15);
        assert!(s.lossy);
    }

    #[test]
    fn measured_error_is_tracked() {
        let mut l = ErrorLedger::new(1);
        l.record_requant(0, Some(1e-3), Some(4.2e-4));
        l.record_requant(0, Some(1e-3), Some(1.0e-4));
        let s = l.summary();
        assert!(s.max_measured_err > 4e-4);
        assert!(l.chunk(0).measured);
    }
}
