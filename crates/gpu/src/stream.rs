//! Simulated CUDA streams: ordered kernel execution with a virtual clock.
//!
//! A [`Stream`] executes closures (the kernel bodies, real Rust code) while
//! charging simulated time from each kernel's [`KernelSpec`]. The event log
//! lets the bench harness break a compressor's runtime into kernels, which
//! is how the paper attributes cuSZ's cost to its Huffman stage.

use crate::device::{DeviceSpec, KernelSpec};
use qcf_telemetry::{Counter, LaneEvent, StreamLane};
use std::sync::{Arc, Mutex, OnceLock};

/// Workspace-wide kernel counters, cached so `charge` pays one atomic add
/// instead of a registry lookup per launch.
struct KernelCounters {
    launches: Arc<Counter>,
    launch_bytes: Arc<Counter>,
}

fn kernel_counters() -> &'static KernelCounters {
    static COUNTERS: OnceLock<KernelCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let r = qcf_telemetry::registry();
        KernelCounters {
            launches: r.counter("gpu.kernel.launches"),
            launch_bytes: r.counter("gpu.kernel.bytes"),
        }
    })
}

/// One completed kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEvent {
    /// Kernel name.
    pub name: &'static str,
    /// Simulated start time (seconds since stream creation).
    pub start_s: f64,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// Bytes moved (read + written).
    pub bytes: u64,
}

/// An in-order execution queue on a device, with a virtual clock.
///
/// Interior mutability (a `Mutex`) keeps the API `&self`, so a stream can
/// be shared by the parallel executor without plumbing `&mut`.
///
/// # Concurrency semantics
///
/// Kernels are charged **at submission**, under the state lock, before the
/// body runs. Concurrent `launch` calls therefore serialize their clock
/// updates in lock-acquisition order — exactly a CUDA stream's in-order
/// queue: start times are monotone non-decreasing per stream, each kernel
/// starts where the previous one ended, and the final elapsed time is the
/// sum of all charged durations regardless of how the host threads
/// interleave. Only the *event order* can vary run-to-run under
/// concurrency, never totals, breakdowns, or any compressed byte.
#[derive(Debug)]
pub struct Stream {
    device: DeviceSpec,
    state: Mutex<StreamState>,
}

#[derive(Debug, Default)]
struct StreamState {
    now_s: f64,
    events: Vec<KernelEvent>,
}

impl Stream {
    /// Creates a stream on `device` with the clock at zero.
    pub fn new(device: DeviceSpec) -> Self {
        Stream {
            device,
            state: Mutex::new(StreamState::default()),
        }
    }

    /// The device this stream runs on.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StreamState> {
        // A panicking kernel body never holds this lock (charging happens
        // before the body runs), so poison only means a panic elsewhere;
        // the state itself is always consistent.
        qcf_telemetry::lock_unpoisoned(&self.state)
    }

    /// Charges `duration` seconds for `name` at submission time and
    /// returns the kernel's start time.
    fn charge(&self, name: &'static str, duration: f64, bytes: u64) -> f64 {
        let mut st = self.lock();
        let start = st.now_s;
        st.now_s += duration;
        st.events.push(KernelEvent {
            name,
            start_s: start,
            duration_s: duration,
            bytes,
        });
        start
    }

    /// Executes `body` as a kernel, charging `spec`'s simulated time.
    /// Returns the body's value.
    ///
    /// The charge lands when the launch is submitted (before the body
    /// runs), so concurrent launches from executor workers keep the
    /// virtual clock well-defined; see the type-level docs.
    pub fn launch<R>(&self, spec: &KernelSpec, body: impl FnOnce() -> R) -> R {
        let duration = spec.time_on(&self.device);
        let bytes = spec.bytes_read + spec.bytes_written;
        self.charge(spec.name, duration, bytes);
        if qcf_telemetry::enabled() {
            let c = kernel_counters();
            c.launches.inc();
            c.launch_bytes.add(bytes);
        }
        body()
    }

    /// Current simulated time in seconds.
    pub fn elapsed_s(&self) -> f64 {
        self.lock().now_s
    }

    /// Snapshot of the event log.
    pub fn events(&self) -> Vec<KernelEvent> {
        self.lock().events.clone()
    }

    /// Simulated time spent in kernels whose name contains `needle`.
    pub fn time_in(&self, needle: &str) -> f64 {
        self.lock()
            .events
            .iter()
            .filter(|e| e.name.contains(needle))
            .map(|e| e.duration_s)
            .sum()
    }

    /// Resets the clock and event log (for reusing a stream across runs).
    pub fn reset(&self) {
        let mut st = self.lock();
        st.now_s = 0.0;
        st.events.clear();
    }

    /// Simulated aggregate throughput for `payload_bytes` processed since
    /// the last reset, in bytes/second. Returns infinity at time zero.
    pub fn throughput(&self, payload_bytes: u64) -> f64 {
        payload_bytes as f64 / self.elapsed_s()
    }

    /// Per-kernel time breakdown since the last reset: `(name, total
    /// seconds, share of elapsed)`, largest first. The simulated analogue
    /// of an `nsys` profile — how the paper attributes cuSZ's cost to its
    /// Huffman stage.
    pub fn breakdown(&self) -> Vec<(String, f64, f64)> {
        let st = self.lock();
        let total: f64 = st.now_s.max(f64::MIN_POSITIVE);
        let mut by_name: std::collections::BTreeMap<&'static str, f64> =
            std::collections::BTreeMap::new();
        for e in &st.events {
            *by_name.entry(e.name).or_insert(0.0) += e.duration_s;
        }
        let mut rows: Vec<(String, f64, f64)> = by_name
            .into_iter()
            .map(|(n, t)| (n.to_string(), t, t / total))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite times"));
        rows
    }

    /// Converts the event log into a named virtual lane for the
    /// Chrome-trace exporter: simulated seconds scale to microseconds and
    /// every event is tagged with the `kernel` category.
    pub fn telemetry_lane(&self, name: impl Into<String>) -> StreamLane {
        let events = self
            .events()
            .into_iter()
            .map(|e| LaneEvent {
                name: e.name.to_string(),
                cat: "kernel".to_string(),
                start_us: (e.start_s * 1e6) as u64,
                dur_us: (e.duration_s * 1e6) as u64,
                bytes: e.bytes as usize,
            })
            .collect();
        StreamLane {
            name: name.into(),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemoryPattern;
    use crate::exec::par_for_blocks;

    #[test]
    fn clock_advances_per_launch() {
        let s = Stream::new(DeviceSpec::a100());
        let spec = KernelSpec::streaming("k1", 1 << 20, 1 << 20);
        let v = s.launch(&spec, || 42);
        assert_eq!(v, 42);
        let t1 = s.elapsed_s();
        assert!(t1 > 0.0);
        s.launch(&spec, || ());
        assert!((s.elapsed_s() - 2.0 * t1).abs() < 1e-12);
    }

    #[test]
    fn events_record_order_and_times() {
        let s = Stream::new(DeviceSpec::a100());
        s.launch(&KernelSpec::streaming("a", 1024, 0), || ());
        s.launch(&KernelSpec::streaming("b", 2048, 0), || ());
        let ev = s.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "a");
        assert!((ev[1].start_s - ev[0].duration_s).abs() < 1e-15);
    }

    #[test]
    fn charge_lands_at_submission() {
        // The clock must already show the kernel's cost while its body is
        // still running — that is what makes concurrent launches coherent.
        let s = Stream::new(DeviceSpec::a100());
        let spec = KernelSpec::streaming("probe", 1 << 24, 0);
        let elapsed_inside = s.launch(&spec, || s.elapsed_s());
        assert!(elapsed_inside > 0.0);
        assert_eq!(elapsed_inside, s.elapsed_s());
    }

    #[test]
    fn concurrent_launches_keep_clock_coherent() {
        let s = Stream::new(DeviceSpec::a100());
        let spec = KernelSpec::streaming("worker_kernel", 1 << 22, 1 << 22);
        let one = {
            let probe = Stream::new(DeviceSpec::a100());
            probe.launch(&spec, || ());
            probe.elapsed_s()
        };
        let n = 64;
        par_for_blocks(n, 16, |_, range| {
            for _ in range {
                s.launch(&spec, || ());
            }
        });
        let ev = s.events();
        assert_eq!(ev.len(), n);
        // Starts monotone, each kernel begins where the previous ended.
        for w in ev.windows(2) {
            assert!(w[1].start_s >= w[0].start_s, "starts must be monotone");
            assert!((w[1].start_s - (w[0].start_s + w[0].duration_s)).abs() < 1e-12);
        }
        // Total time is exactly the serial sum, independent of interleaving.
        assert!((s.elapsed_s() - one * n as f64).abs() < 1e-9 * one * n as f64);
    }

    #[test]
    fn time_in_filters_by_name() {
        let s = Stream::new(DeviceSpec::a100());
        s.launch(
            &KernelSpec::streaming("huffman_encode", 1 << 24, 1 << 22),
            || (),
        );
        s.launch(
            &KernelSpec::streaming("lorenzo_quant", 1 << 24, 1 << 24),
            || (),
        );
        assert!(s.time_in("huffman") > 0.0);
        assert!(s.time_in("nothing") == 0.0);
        assert!((s.time_in("huffman") + s.time_in("lorenzo") - s.elapsed_s()).abs() < 1e-12);
    }

    #[test]
    fn reset_clears() {
        let s = Stream::new(DeviceSpec::a100());
        s.launch(&KernelSpec::streaming("x", 1 << 20, 0), || ());
        s.reset();
        assert_eq!(s.elapsed_s(), 0.0);
        assert!(s.events().is_empty());
    }

    #[test]
    fn breakdown_attributes_time() {
        let s = Stream::new(DeviceSpec::a100());
        s.launch(&KernelSpec::streaming("big", 1 << 28, 0), || ());
        s.launch(&KernelSpec::streaming("small", 1 << 20, 0), || ());
        s.launch(&KernelSpec::streaming("big", 1 << 28, 0), || ());
        let rows = s.breakdown();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "big");
        assert!(rows[0].2 > 0.9, "big share {}", rows[0].2);
        let share_sum: f64 = rows.iter().map(|r| r.2).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_launches_never_lose_events() {
        // Four explicit threads (the QCF_WORKERS=4 shape regardless of the
        // env) hammering one stream: every launch must land in the log.
        let s = Stream::new(DeviceSpec::a100());
        let spec = KernelSpec::streaming("hammer", 1 << 16, 1 << 16);
        let per_thread = 250;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..per_thread {
                        s.launch(&spec, || ());
                    }
                });
            }
        });
        let ev = s.events();
        assert_eq!(ev.len(), 4 * per_thread, "no launch may vanish");
        for w in ev.windows(2) {
            assert!(w[1].start_s >= w[0].start_s, "starts must stay monotone");
        }
    }

    #[test]
    fn reset_clears_after_concurrent_use() {
        let s = Stream::new(DeviceSpec::a100());
        let spec = KernelSpec::streaming("pre_reset", 1 << 18, 0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        s.launch(&spec, || ());
                    }
                });
            }
        });
        assert!(s.elapsed_s() > 0.0);
        s.reset();
        assert_eq!(s.elapsed_s(), 0.0, "reset must zero the clock");
        assert!(s.events().is_empty(), "reset must clear the event log");
        // The stream is fully reusable: the next launch starts at zero.
        s.launch(&spec, || ());
        assert_eq!(s.events()[0].start_s, 0.0);
    }

    #[test]
    fn telemetry_lane_scales_to_micros() {
        let device = DeviceSpec::a100();
        let spec = KernelSpec::streaming("lorenzo_quant", 1 << 30, 1 << 30);
        let s = Stream::new(device.clone());
        s.launch(&spec, || ());
        let lane = s.telemetry_lane("A100 stream 0");
        assert_eq!(lane.name, "A100 stream 0");
        assert_eq!(lane.events.len(), 1);
        assert_eq!(lane.events[0].name, "lorenzo_quant");
        assert_eq!(lane.events[0].start_us, 0);
        assert_eq!(lane.events[0].dur_us, (spec.time_on(&device) * 1e6) as u64);
        assert_eq!(lane.events[0].bytes, 1 << 31);
    }

    #[test]
    fn launches_bridge_into_registry() {
        qcf_telemetry::set_enabled(true);
        let launches = qcf_telemetry::registry().counter("gpu.kernel.launches");
        let before = launches.get();
        let s = Stream::new(DeviceSpec::a100());
        s.launch(&KernelSpec::streaming("bridge_probe", 1 << 12, 0), || ());
        assert!(
            launches.get() > before,
            "launch must bump the registry counter"
        );
    }

    #[test]
    fn throughput_reflects_pattern() {
        let bytes = 1u64 << 28;
        let fast = Stream::new(DeviceSpec::a100());
        fast.launch(&KernelSpec::streaming("s", bytes, 0), || ());
        let slow = Stream::new(DeviceSpec::a100());
        slow.launch(
            &KernelSpec::streaming("r", bytes, 0).with_pattern(MemoryPattern::BitSerial),
            || (),
        );
        assert!(fast.throughput(bytes) > 5.0 * slow.throughput(bytes));
    }
}
