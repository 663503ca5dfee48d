//! The per-chunk causal event journal: every chunk's lifecycle as a
//! bounded, sequence-numbered event ring.
//!
//! The error-budget ledger answers *how much* error a chunk absorbed; this
//! journal answers *why*: the ordered chain of encodes, decodes,
//! write-back requants, faults, heals and quarantines that produced those
//! totals. `qcfz state --chunk <id>` renders the
//! chain, so a requant storm or a quarantine in the ledger is attributable
//! to concrete events instead of a bare count.
//!
//! ## Ring semantics
//!
//! Each chunk keeps its newest [`RING`] events; older ones are discarded
//! and counted per chunk ([`dropped`]). Per-kind **totals are exact
//! regardless of ring overflow** — [`kind_counts`] tallies on append, so
//! consistency checks against the ledger (requants, quarantines) never
//! depend on ring capacity. Sequence numbers are journal-global and
//! strictly monotone, giving a total order across chunks (cross-chunk
//! causality: a gather on chunk A followed by a write-back on chunk B).
//!
//! ## Cost and gating
//!
//! Off by default; armed by `QCF_JOURNAL=1` (or [`set_enabled`], which
//! `qcfz state --chunk` / `qcfz top` use). Disabled, every [`record`] call
//! is one relaxed atomic load and a branch — the same contract as spans
//! and metrics. Chunk ids are the caller's (stable chunk index within a
//! run); [`crate::RunScope`] resets the journal so ids cannot collide
//! across phases in one process.

use crate::lock_unpoisoned;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Events retained per chunk; older events are dropped (and counted).
pub const RING: usize = 32;

/// What happened to a chunk. `detail` in [`ChunkEvent`] carries the
/// kind-specific magnitude documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Initial state-preparation encode (`detail`: compressed bytes).
    Zero,
    /// Chunk (re-)encoded to bytes (`detail`: compressed bytes).
    Encode,
    /// Chunk decoded to amplitudes (`detail`: amplitude count).
    Decode,
    /// Lossy write-back re-quantization (`detail`: resolved abs bound).
    WritebackRequant,
    /// A fault surfaced on this chunk — decode failure, corrupt frame
    /// (`detail`: 0).
    Fault,
    /// Recovery succeeded — the bounded decode retry (`detail`: 1).
    Heal,
    /// Chunk zero-filled after recovery was exhausted (`detail`: lost
    /// squared amplitude norm).
    Quarantine,
    /// Compressed frame spilled from RAM to the disk tier (`detail`:
    /// spilled bytes).
    Spill,
    /// Compressed frame fetched back from the disk tier (`detail`:
    /// fetched bytes).
    Fetch,
    /// Chunk's sealed frame serialized into a durable snapshot, or
    /// restored from one on resume (`detail`: frame bytes).
    Checkpoint,
    /// Chunk's live spill record relocated by a compaction pass
    /// (`detail`: record bytes rewritten).
    Compact,
}

/// Number of [`EventKind`] variants (size of the per-kind count table).
pub const KINDS: usize = 11;

impl EventKind {
    /// Stable index into per-kind count tables.
    pub fn index(self) -> usize {
        match self {
            EventKind::Zero => 0,
            EventKind::Encode => 1,
            EventKind::Decode => 2,
            EventKind::WritebackRequant => 3,
            EventKind::Fault => 4,
            EventKind::Heal => 5,
            EventKind::Quarantine => 6,
            EventKind::Spill => 7,
            EventKind::Fetch => 8,
            EventKind::Checkpoint => 9,
            EventKind::Compact => 10,
        }
    }

    /// Human/export label.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Zero => "zero",
            EventKind::Encode => "encode",
            EventKind::Decode => "decode",
            EventKind::WritebackRequant => "writeback-requant",
            EventKind::Fault => "fault",
            EventKind::Heal => "heal",
            EventKind::Quarantine => "quarantine",
            EventKind::Spill => "spill",
            EventKind::Fetch => "fetch",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Compact => "compact",
        }
    }

    /// All variants, in [`EventKind::index`] order.
    pub fn all() -> [EventKind; KINDS] {
        [
            EventKind::Zero,
            EventKind::Encode,
            EventKind::Decode,
            EventKind::WritebackRequant,
            EventKind::Fault,
            EventKind::Heal,
            EventKind::Quarantine,
            EventKind::Spill,
            EventKind::Fetch,
            EventKind::Checkpoint,
            EventKind::Compact,
        ]
    }
}

/// One journaled event.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkEvent {
    /// Journal-global strictly monotone sequence number.
    pub seq: u64,
    /// Microseconds since the telemetry epoch.
    pub t_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific magnitude (see [`EventKind`] variant docs).
    pub detail: f64,
}

#[derive(Debug, Default)]
struct ChunkRing {
    events: VecDeque<ChunkEvent>,
    dropped: u64,
    kind_counts: [u64; KINDS],
}

#[derive(Debug, Default)]
struct Journal {
    chunks: BTreeMap<u64, ChunkRing>,
    next_seq: u64,
}

fn journal() -> &'static Mutex<Journal> {
    static JOURNAL: OnceLock<Mutex<Journal>> = OnceLock::new();
    JOURNAL.get_or_init(|| Mutex::new(Journal::default()))
}

/// 0 = uninitialized, 1 = enabled, 2 = disabled.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// True when the journal is armed (`QCF_JOURNAL` or [`set_enabled`]).
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
    let on = crate::config::config().journal;
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Overrides the armed state (`qcfz state --chunk`, `qcfz top`, tests).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Appends one event to `chunk`'s ring. No-op unless both the journal and
/// telemetry are enabled; the disarmed path is one relaxed atomic load.
pub fn record(chunk: u64, kind: EventKind, detail: f64) {
    if !enabled() || !crate::enabled() {
        return;
    }
    let t_us = crate::span::now_us();
    let mut j = lock_unpoisoned(journal());
    let seq = j.next_seq;
    j.next_seq += 1;
    let ring = j.chunks.entry(chunk).or_default();
    ring.kind_counts[kind.index()] += 1;
    if ring.events.len() == RING {
        ring.events.pop_front();
        ring.dropped += 1;
    }
    ring.events.push_back(ChunkEvent {
        seq,
        t_us,
        kind,
        detail,
    });
}

/// The retained events for `chunk`, oldest first (empty when unknown).
pub fn events(chunk: u64) -> Vec<ChunkEvent> {
    lock_unpoisoned(journal())
        .chunks
        .get(&chunk)
        .map(|r| r.events.iter().cloned().collect())
        .unwrap_or_default()
}

/// Events dropped from `chunk`'s ring (appended beyond [`RING`]).
pub fn dropped(chunk: u64) -> u64 {
    lock_unpoisoned(journal())
        .chunks
        .get(&chunk)
        .map(|r| r.dropped)
        .unwrap_or(0)
}

/// Exact per-kind event totals for `chunk` (indexed by
/// [`EventKind::index`]; unaffected by ring overflow).
pub fn kind_counts(chunk: u64) -> [u64; KINDS] {
    lock_unpoisoned(journal())
        .chunks
        .get(&chunk)
        .map(|r| r.kind_counts)
        .unwrap_or([0; KINDS])
}

/// All chunk ids with at least one journaled event, ascending.
pub fn chunk_ids() -> Vec<u64> {
    lock_unpoisoned(journal()).chunks.keys().copied().collect()
}

/// Total events ever appended (== the next sequence number).
pub fn total_events() -> u64 {
    lock_unpoisoned(journal()).next_seq
}

/// Clears all rings and the sequence counter (run isolation).
pub fn reset() {
    *lock_unpoisoned(journal()) = Journal::default();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_ordered_events_per_chunk() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        record(0, EventKind::Zero, 100.0);
        record(1, EventKind::Zero, 90.0);
        record(0, EventKind::Decode, 64.0);
        record(0, EventKind::WritebackRequant, 1e-4);
        let ev = events(0);
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].kind, EventKind::Zero);
        assert_eq!(ev[2].kind, EventKind::WritebackRequant);
        assert!(ev.windows(2).all(|w| w[0].seq < w[1].seq));
        // Global sequence orders across chunks too.
        assert!(events(1)[0].seq > ev[0].seq);
        assert!(events(1)[0].seq < ev[1].seq);
        assert_eq!(chunk_ids(), vec![0, 1]);
        assert_eq!(total_events(), 4);
        reset();
        set_enabled(false);
    }

    #[test]
    fn ring_bounds_but_kind_counts_stay_exact() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_enabled(true);
        reset();
        for _ in 0..(RING + 10) {
            record(7, EventKind::Decode, 0.0);
        }
        record(7, EventKind::Quarantine, 0.5);
        assert_eq!(events(7).len(), RING);
        assert_eq!(dropped(7), 11);
        let counts = kind_counts(7);
        assert_eq!(
            counts[EventKind::Decode.index()],
            (RING + 10) as u64,
            "totals must survive ring overflow"
        );
        assert_eq!(counts[EventKind::Quarantine.index()], 1);
        // The newest event is always retained.
        assert_eq!(events(7).last().unwrap().kind, EventKind::Quarantine);
        reset();
        set_enabled(false);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        set_enabled(false);
        reset();
        record(0, EventKind::Fault, 0.0);
        assert!(events(0).is_empty());
        assert_eq!(total_events(), 0);
    }

    #[test]
    fn telemetry_disabled_blocks_journal() {
        let _g = crate::test_guard();
        set_enabled(true);
        crate::set_enabled(false);
        reset();
        record(0, EventKind::Fault, 0.0);
        assert!(events(0).is_empty());
        crate::set_enabled(true);
        set_enabled(false);
    }

    #[test]
    fn kind_labels_and_indices_are_bijective() {
        let mut seen = [false; KINDS];
        for k in EventKind::all() {
            assert!(!seen[k.index()], "duplicate index for {:?}", k);
            seen[k.index()] = true;
            assert!(!k.label().is_empty());
        }
        assert!(seen.iter().all(|&s| s));
    }
}
