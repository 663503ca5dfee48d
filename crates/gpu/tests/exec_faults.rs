//! The executor's injected `exec.worker.panic` fault.
//!
//! Armed faults are process-global and every `par_*` block passes the
//! fault site, so arming one in the unit-test binary lets a concurrently
//! running executor test take the injected panic. This file holds the one
//! test that arms it, in its own process.

use gpu_model::exec::par_for_blocks;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn injected_worker_panic_fires() {
    let _g = qcf_telemetry::faults::chaos_guard();
    qcf_telemetry::faults::arm_from_spec("exec.worker.panic@2").unwrap();
    let done = AtomicUsize::new(0);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        par_for_blocks(8, 8, |_, range| {
            done.fetch_add(range.len(), Ordering::Relaxed);
        });
    }));
    qcf_telemetry::faults::disarm();
    assert!(caught.is_err(), "injected panic must surface to the caller");
    // Exactly one block was killed; the other seven completed.
    assert_eq!(done.load(Ordering::Relaxed), 7);
}
