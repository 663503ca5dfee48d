//! Property tests for the downsampling ring's timestamp discipline: for
//! any capture timestamp sequence — including ties and clock stalls —
//! and any number of fold-induced halvings, the retained series must
//! keep **strictly** monotonic timestamps and still span the whole run
//! (first offered sample retained, newest on-stride offer retained).
//!
//! Strictness matters downstream: rate signals divide by `Δt` between
//! retained samples, and a tie that survives a halving would make that
//! zero. The ring bumps ties forward by 1 µs on admission instead.

use proptest::prelude::*;
use qcf_telemetry::metrics::Snapshot;
use qcf_telemetry::timeseries::{self, Sample, CAPACITY};
use std::sync::Mutex;

/// The ring is process-global; cases must not interleave.
static RING_LOCK: Mutex<()> = Mutex::new(());

fn offer_all(timestamps: &[u64]) {
    for &t_us in timestamps {
        timeseries::offer(Sample {
            t_us,
            metrics: Snapshot::default(),
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn retained_series_is_strictly_monotonic_and_spans_the_run(
        // Non-negative per-capture clock increments; zero models a
        // sub-microsecond tick (the tie case that motivated the fix).
        increments in prop::collection::vec(0u64..3, 1..(CAPACITY * 4 + 7)),
        start in 0u64..1_000_000,
    ) {
        let _g = qcf_telemetry::lock_unpoisoned(&RING_LOCK);
        timeseries::reset();

        let mut t = start;
        let mut stamps = Vec::with_capacity(increments.len());
        for inc in &increments {
            t += inc;
            stamps.push(t);
        }
        offer_all(&stamps);

        let retained = timeseries::samples();
        prop_assert!(!retained.is_empty());
        prop_assert!(retained.len() <= CAPACITY);

        // Strict monotonicity survives any number of halvings.
        for w in retained.windows(2) {
            prop_assert!(
                w[0].t_us < w[1].t_us,
                "tie or inversion after {} folds: {} then {}",
                timeseries::folds(),
                w[0].t_us,
                w[1].t_us
            );
        }

        // Whole-run span: the fold keeps index 0, so the very first
        // capture is always present (possibly tie-bumped by admission,
        // but the first offer is never bumped).
        prop_assert_eq!(retained[0].t_us, stamps[0]);

        // The newest retained sample is the last *on-stride* offer: no
        // more than one stride's worth of captures ever falls off the
        // fresh end, and admission only bumps timestamps forward.
        let stride = timeseries::stride();
        let offered = stamps.len() as u64;
        let last_kept_idx = ((offered - 1) / stride) * stride;
        prop_assert!(
            retained.last().unwrap().t_us >= stamps[last_kept_idx as usize],
            "newest retained sample predates the newest on-stride offer"
        );

        timeseries::reset();
    }

    #[test]
    fn fold_halves_once_at_capacity_and_keeps_ends(
        extra in 1usize..CAPACITY,
    ) {
        let _g = qcf_telemetry::lock_unpoisoned(&RING_LOCK);
        timeseries::reset();

        // Capacity fills the ring; each further on-stride offer folds at
        // most once more. Identical timestamps throughout: the admission
        // bump must synthesize a strictly increasing series from a
        // completely stalled clock.
        let stamps = vec![42u64; CAPACITY + extra];
        offer_all(&stamps);

        let retained = timeseries::samples();
        prop_assert!(retained.len() <= CAPACITY);
        for w in retained.windows(2) {
            prop_assert!(w[0].t_us < w[1].t_us);
        }
        prop_assert_eq!(retained[0].t_us, 42, "first capture must survive every fold");
        prop_assert!(timeseries::folds() >= 1);

        timeseries::reset();
    }
}
