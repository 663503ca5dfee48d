//! A panic while the framework encodes its imaginary plane surfaces on the
//! caller.
//!
//! With more than one worker, a split encode runs the real plane on the
//! calling thread and the imaginary plane on an executor pool worker. The
//! test walks the injected `exec.worker.panic` fault over every block the
//! encode runs, so each of its kernel blocks panics once, in either plane.
//! Every such panic must reach the caller with its own payload, and with
//! more than one worker some of them must have been raised on a pool
//! worker: the imaginary plane. Armed faults are process-global, so this
//! file holds one test, in its own process.

use compressors::{Compressor, ErrorBound};
use gpu_model::{DeviceSpec, Stream};
use qcf_core::QcfCompressor;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn an_imaginary_plane_panic_reaches_the_caller() {
    let _g = qcf_telemetry::faults::chaos_guard();
    // Interleaved noise: an even length, so the planes split, and too
    // many distinct values at this bound for the dictionary route, so each
    // plane runs its stage and backend kernels on the executor.
    let data: Vec<f64> = (0..1u64 << 14)
        .map(|i| {
            let h = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    static ON_WORKER: AtomicUsize = AtomicUsize::new(0);
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {
        let name = std::thread::current().name().map(str::to_owned);
        if name.is_some_and(|n| n.starts_with("qcf-exec-")) {
            ON_WORKER.fetch_add(1, Ordering::SeqCst);
        }
    }));
    for codec in [QcfCompressor::ratio(), QcfCompressor::speed()] {
        let stream = Stream::new(DeviceSpec::a100());
        let clean = codec
            .compress(&data, ErrorBound::Abs(1e-9), &stream)
            .unwrap();
        let mut k = 1;
        loop {
            qcf_telemetry::faults::arm_from_spec(&format!("exec.worker.panic@{k}")).unwrap();
            let got = panic::catch_unwind(AssertUnwindSafe(|| {
                codec.compress(&data, ErrorBound::Abs(1e-9), &stream)
            }));
            qcf_telemetry::faults::disarm();
            match got {
                Ok(bytes) => {
                    // Past the last block: the encode ran clean.
                    assert_eq!(bytes.unwrap(), clean, "{}", codec.name());
                    break;
                }
                Err(payload) => {
                    let text = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default();
                    assert!(
                        text.starts_with("injected fault: exec.worker.panic"),
                        "{} block {k}: payload {text:?}",
                        codec.name()
                    );
                }
            }
            k += 1;
        }
        assert!(
            k > 2,
            "{}: the encode ran fewer than two blocks",
            codec.name()
        );
    }
    panic::set_hook(default_hook);
    if gpu_model::exec::worker_count() > 1 {
        assert!(
            ON_WORKER.load(Ordering::SeqCst) > 0,
            "no injected panic ran on a pool worker"
        );
    }
}
