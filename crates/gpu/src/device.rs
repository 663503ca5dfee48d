//! Device specifications and the roofline cost model.
//!
//! The paper measures GPU compressors on an NVIDIA A100. Without CUDA
//! hardware, we model a device explicitly: a kernel declares how much memory
//! it moves, how many flops it performs, its dominant access pattern and its
//! serial fraction, and the model charges simulated time from a roofline:
//!
//! `t = launch_latency + max(bytes / (BW · eff), flops / (peak · eff_c))
//!      · (1 − s) + serial_term`
//!
//! The *relative* ordering of compressor throughputs (cuSZx ≫ cuSZ ≫
//! deflate-class) is produced by their pass structure and access patterns —
//! not hardcoded — while absolute GB/s land in the range published for the
//! A100 because the constants below are the A100's.

/// Dominant memory-access pattern of a kernel, mapped to a bandwidth
/// efficiency factor by the device spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryPattern {
    /// Fully coalesced streaming loads/stores.
    Streaming,
    /// Mostly coalesced with some shuffling (block transposes, scans).
    Strided,
    /// Data-dependent scatter/gather or heavy atomics (histograms).
    Random,
    /// Bit-granular variable-length output (entropy-coder emission).
    BitSerial,
}

/// A simulated accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// HBM bandwidth in bytes per second.
    pub hbm_bytes_per_sec: f64,
    /// Peak FP64 throughput in flop/s.
    pub fp64_flops: f64,
    /// Peak FP32/integer throughput in flop/s (integer ops are charged here).
    pub fp32_flops: f64,
    /// Fixed kernel-launch latency in seconds.
    pub launch_latency_s: f64,
    /// Host↔device copy bandwidth in bytes per second (PCIe 4.0 x16).
    pub pcie_bytes_per_sec: f64,
    /// Bandwidth efficiency for each [`MemoryPattern`], in [0, 1].
    pub eff_streaming: f64,
    /// See `eff_streaming`.
    pub eff_strided: f64,
    /// See `eff_streaming`.
    pub eff_random: f64,
    /// See `eff_streaming`.
    pub eff_bit_serial: f64,
}

impl DeviceSpec {
    /// NVIDIA A100-SXM4-40GB (the paper's testbed).
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100-SXM4-40GB (simulated)",
            sm_count: 108,
            hbm_bytes_per_sec: 1555.0e9,
            fp64_flops: 9.7e12,
            fp32_flops: 19.5e12,
            launch_latency_s: 4.0e-6,
            pcie_bytes_per_sec: 26.0e9,
            eff_streaming: 0.85,
            eff_strided: 0.55,
            eff_random: 0.14,
            eff_bit_serial: 0.06,
        }
    }

    /// Bandwidth efficiency for a pattern.
    pub fn efficiency(&self, pattern: MemoryPattern) -> f64 {
        match pattern {
            MemoryPattern::Streaming => self.eff_streaming,
            MemoryPattern::Strided => self.eff_strided,
            MemoryPattern::Random => self.eff_random,
            MemoryPattern::BitSerial => self.eff_bit_serial,
        }
    }
}

/// Work declaration for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Kernel name, for the event log.
    pub name: &'static str,
    /// Bytes read from device memory.
    pub bytes_read: u64,
    /// Bytes written to device memory.
    pub bytes_written: u64,
    /// Floating-point (or heavy integer) operations performed.
    pub flops: u64,
    /// Dominant access pattern.
    pub pattern: MemoryPattern,
    /// Fraction of the kernel's work that serializes (Amdahl): e.g. a
    /// single-thread codebook construction inside an otherwise parallel
    /// kernel. 0 for fully parallel kernels.
    pub serial_fraction: f64,
}

impl KernelSpec {
    /// A fully parallel streaming kernel moving `bytes_read`/`bytes_written`.
    pub fn streaming(name: &'static str, bytes_read: u64, bytes_written: u64) -> Self {
        KernelSpec {
            name,
            bytes_read,
            bytes_written,
            flops: 0,
            pattern: MemoryPattern::Streaming,
            serial_fraction: 0.0,
        }
    }

    /// Builder: sets flops.
    pub fn with_flops(mut self, flops: u64) -> Self {
        self.flops = flops;
        self
    }

    /// Builder: sets the access pattern.
    pub fn with_pattern(mut self, pattern: MemoryPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Builder: sets the serial fraction.
    ///
    /// # Panics
    /// Panics when outside [0, 1].
    pub fn with_serial_fraction(mut self, s: f64) -> Self {
        assert!((0.0..=1.0).contains(&s), "serial fraction must be in [0,1]");
        self.serial_fraction = s;
        self
    }

    /// Simulated execution time on `device`, in seconds.
    pub fn time_on(&self, device: &DeviceSpec) -> f64 {
        let eff = device.efficiency(self.pattern);
        let mem_t =
            (self.bytes_read + self.bytes_written) as f64 / (device.hbm_bytes_per_sec * eff);
        let cmp_t = self.flops as f64 / (device.fp64_flops * eff.max(0.25));
        let parallel_t = mem_t.max(cmp_t);
        // Amdahl: the serial share runs at single-SM speed.
        let serial_t = parallel_t * self.serial_fraction * (device.sm_count as f64 - 1.0);
        device.launch_latency_s + parallel_t + serial_t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_kernel_near_peak_bandwidth() {
        let dev = DeviceSpec::a100();
        let bytes = 1u64 << 30; // 1 GiB read + nothing written
        let k = KernelSpec::streaming("copy", bytes, bytes);
        let t = k.time_on(&dev);
        let gbps = (2 * bytes) as f64 / t / 1e9;
        assert!(gbps > 1000.0 && gbps < 1555.0, "achieved {gbps} GB/s");
    }

    #[test]
    fn random_pattern_is_much_slower() {
        let dev = DeviceSpec::a100();
        let bytes = 1u64 << 28;
        let stream = KernelSpec::streaming("s", bytes, 0).time_on(&dev);
        let random = KernelSpec::streaming("r", bytes, 0)
            .with_pattern(MemoryPattern::Random)
            .time_on(&dev);
        assert!(random > 4.0 * stream);
    }

    #[test]
    fn launch_latency_dominates_tiny_kernels() {
        let dev = DeviceSpec::a100();
        let k = KernelSpec::streaming("tiny", 64, 64);
        let t = k.time_on(&dev);
        assert!(t >= dev.launch_latency_s);
        assert!(t < 2.0 * dev.launch_latency_s);
    }

    #[test]
    fn serial_fraction_applies_amdahl() {
        let dev = DeviceSpec::a100();
        let bytes = 1u64 << 26;
        let par = KernelSpec::streaming("p", bytes, 0).time_on(&dev);
        let half_serial = KernelSpec::streaming("s", bytes, 0)
            .with_serial_fraction(0.5)
            .time_on(&dev);
        assert!(half_serial > 10.0 * par, "{half_serial} vs {par}");
    }

    #[test]
    fn compute_bound_kernel_charged_by_flops() {
        let dev = DeviceSpec::a100();
        let k = KernelSpec::streaming("fma", 1024, 1024).with_flops(1u64 << 40);
        let t = k.time_on(&dev);
        // 2^40 flops at <= 9.7 Tflop/s -> >= 0.1 s
        assert!(t > 0.1);
    }

    #[test]
    #[should_panic(expected = "serial fraction")]
    fn bad_serial_fraction_panics() {
        KernelSpec::streaming("x", 1, 1).with_serial_fraction(1.5);
    }
}
