//! Results of one benchmark run: metrics, correctness checks, and the
//! printed table plus the final one-line JSON object.

use crate::spec::{all_layer_metrics, END_TO_END};
use crate::trace::{Attribution, Tracer, DECODE, ENCODE, OP};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

#[derive(Default)]
pub struct Report {
    pub e2e: BTreeMap<&'static str, f64>,
    pub layer: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    /// Counts one checked operation; a failed one is printed to stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints every metric of the selected set as a table, then the JSON
    /// result as the last line of standard output.
    pub fn print(&mut self, trace: bool) {
        self.set(
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
        );
        for n in &self.notes {
            println!("# {n}");
        }
        let rows: Vec<(String, &str, &str, f64)> = if trace {
            all_layer_metrics()
                .into_iter()
                .map(|(n, u, b)| {
                    let v = self.layer.get(&n).copied().unwrap_or(0.0);
                    (n, u, b, v)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let v = self.e2e.get(m.name).copied().unwrap_or(0.0);
                    (m.name.to_string(), m.unit, m.better, v)
                })
                .collect()
        };
        for (n, u, b, v) in &rows {
            println!("{n:<42} {v:>16.6} {u:<6} ({b} is better)");
        }
        let metrics: Vec<String> = rows
            .iter()
            .map(|(n, u, _, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it, with that
/// percentile. Below 40 samples that percentile is under p75 and no tail,
/// so the maximum (p100) is reported instead.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        (0.0, 0.0)
    } else if n < 40 {
        (s[n - 1], 100.0)
    } else {
        (s[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds (user + system) used by every thread of this process so
/// far, exited threads included. Time the hypervisor gives to other
/// guests (steal) is not counted, unlike wall time.
fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the whole
    // call, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall seconds since `t0`.
fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Wall and CPU seconds of one measured stretch of work, and the seconds
/// it waited on the modelled spill device.
#[derive(Clone, Copy, Debug, Default)]
pub struct Times {
    pub wall: f64,
    pub cpu: f64,
    pub device_wait: f64,
}

impl std::ops::AddAssign for Times {
    fn add_assign(&mut self, o: Times) {
        self.wall += o.wall;
        self.cpu += o.cpu;
        self.device_wait += o.device_wait;
    }
}

/// Measures wall and process CPU time from its start.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_now(),
        }
    }

    pub fn read(&self) -> Times {
        Times {
            wall: secs(self.wall),
            cpu: cpu_now() - self.cpu,
            device_wait: 0.0,
        }
    }
}

/// Runs whole passes while another pass is expected to end within
/// `seconds`, judged by the mean pass so far; at least one. Times
/// [`calibrate`] before each pass and after the last, and returns for
/// each pass the mean of the calibrations on either side of it.
pub fn repeat_for(seconds: f64, mut pass: impl FnMut(usize)) -> Vec<f64> {
    let t0 = Instant::now();
    let mut calib = vec![calibrate()];
    let mut i = 0;
    while i == 0 || secs(t0) * (i + 1) as f64 / i as f64 <= seconds {
        pass(i);
        calib.push(calibrate());
        i += 1;
    }
    calib.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
}

/// CPU seconds [`calibrate`] takes on the reference host (a quiet 2-vCPU
/// Xeon VM, 2 executor workers); end-to-end times are scaled to it.
const CALIBRATION_REF_S: f64 = 0.08;

/// Times a fixed mix of work like the engine's and returns its CPU
/// seconds: on each of as many threads as the engine's executor has, a
/// cache-resident f64 matrix product, integer bit-twiddling like a
/// coder's, and a read-modify-write stream over 8 MiB (16 MiB in all, more
/// than the L2 cache). No engine code runs in it, so its time moves only
/// with the speed the host gives this process (clock, busy sibling
/// hyperthreads, other guests' cache and memory traffic).
pub fn calibrate() -> f64 {
    static BUFS: OnceLock<Vec<Mutex<Vec<f64>>>> = OnceLock::new();
    let bufs = BUFS.get_or_init(|| {
        (0..gpu_model::exec::worker_count().max(1))
            .map(|_| Mutex::new((0..1 << 20).map(|i| (i % 97) as f64).collect()))
            .collect()
    });
    let sw = Stopwatch::start();
    std::thread::scope(|s| {
        for buf in &bufs[1..] {
            s.spawn(|| calibration_kernel(&mut buf.lock().expect("calibration buffer")));
        }
        calibration_kernel(&mut bufs[0].lock().expect("calibration buffer"));
    });
    sw.read().cpu
}

fn calibration_kernel(buf: &mut [f64]) {
    const DIM: usize = 64;
    let a: Vec<f64> = (0..DIM * DIM).map(|i| (i % 7) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..DIM * DIM).map(|i| (i % 5) as f64 * 0.5).collect();
    let mut c = vec![0.0f64; DIM * DIM];
    for _ in 0..250 {
        for i in 0..DIM {
            for k in 0..DIM {
                let aik = std::hint::black_box(a[i * DIM + k]);
                for j in 0..DIM {
                    c[i * DIM + j] += aik * b[k * DIM + j];
                }
            }
        }
    }
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u32;
    for _ in 0..5_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x.leading_zeros() + (x as u32 & 0xff).count_ones());
    }
    for _ in 0..10 {
        for v in buf.iter_mut() {
            *v = *v * 0.5 + 1.0;
        }
    }
    std::hint::black_box((&c, acc, buf));
}

/// Records the timing metrics from per-pass samples, the CPU seconds of
/// each set-up and the calibration of each pass. The end-to-end times are
/// CPU seconds scaled by how much faster the reference host ran the
/// calibration than this one did around the same pass (set-up by the
/// median calibration), plus each pass's modelled device wait, which no
/// host speed changes.
pub fn timing_metrics(rep: &mut Report, passes: &[Times], setups: &[f64], calib: &[f64]) {
    let scale = CALIBRATION_REF_S / median(calib);
    let run: Vec<f64> = passes
        .iter()
        .zip(calib)
        .map(|(t, c)| t.cpu * CALIBRATION_REF_S / c + t.device_wait)
        .collect();
    let cpu: Vec<f64> = passes.iter().map(|t| t.cpu).collect();
    let wall: Vec<f64> = passes.iter().map(|t| t.wall).collect();
    let (tail_v, tail_p) = tail(&run);
    rep.e2e.insert("run_s", median(&run));
    rep.e2e.insert("setup_s", median(setups) * scale);
    rep.set("run.tail_s", tail_v);
    rep.set("run.cpu_s", median(&cpu));
    rep.set(
        "run.device_wait_s",
        median(&passes.iter().map(|t| t.device_wait).collect::<Vec<_>>()),
    );
    rep.set("run.wall_s", median(&wall));
    rep.set("run.tail_wall_s", tail(&wall).0);
    rep.set("run.samples", passes.len() as f64);
    rep.set("host.calibration_s", median(calib));
    rep.note(format!(
        "{} passes; tails are p{tail_p:.0} of them, setup_s the median of {} set-ups; host speed scale {scale:.3}",
        passes.len(),
        setups.len()
    ));
}

/// Fills the codec-boundary (overall and per codec) and whole-run layer
/// metrics from the spans of the traced passes. `layers` maps the span names that make up a pass,
/// besides the codec spans, to their metrics; returns the attribution for
/// workload-specific metrics.
pub fn codec_and_run_layers(
    rep: &mut Report,
    tracer: &Tracer,
    untraced: &[Times],
    traced: &[Times],
    layers: &[(&'static str, &'static str)],
) -> Attribution {
    let passes = traced.len().max(1);
    let a = Attribution::of(&tracer.spans(), crate::trace::thread_id());
    let per = 1.0 / passes as f64;
    let enc = Attribution::layer(&a.in_op, ENCODE);
    let dec = Attribution::layer(&a.in_op, DECODE);
    let bg = Attribution::layer(&a.other_threads, DECODE);
    rep.set("compressors.encode_s", enc.self_s * per);
    rep.set("compressors.decode_s", dec.self_s * per);
    rep.set("compressors.bg_decode_s", bg.wall_s * per);
    rep.set("compressors.encodes", enc.count as f64 * per);
    rep.set("compressors.decodes", dec.count as f64 * per);
    rep.set("compressors.bytes_in", enc.bytes_in as f64 * per);
    rep.set("compressors.bytes_out", enc.bytes_out as f64 * per);
    rep.set("compressors.encode_mbps", mbps(enc.bytes_in, enc.wall_s));
    rep.set("compressors.decode_mbps", mbps(dec.bytes_out, dec.wall_s));
    let mut attributed = enc.self_s + dec.self_s;
    for (name, metric) in layers {
        let t = Attribution::layer(&a.in_op, name);
        rep.set(metric, t.self_s * per);
        attributed += t.self_s;
    }
    let op_self = Attribution::layer(&a.in_op, OP).self_s;
    let wall = a.op_wall_s;
    rep.set("trace.wall_s", wall * per);
    rep.set("unattributed_frac", op_self / wall);
    // Self times partition the span tree, so this holds whatever was
    // timed; it fails only when a span under an op is missing from the
    // listed layers.
    rep.check(
        "layer self times + unattributed sum to the traced wall time",
        ((attributed + op_self) - wall).abs() <= 1e-6 * wall.max(1e-9),
    );
    let cpu = |t: &[Times]| median(&t.iter().map(|t| t.cpu).collect::<Vec<_>>());
    rep.set("trace_overhead_frac", cpu(traced) / cpu(untraced) - 1.0);
    frame_probe(rep, tracer, (enc.bytes_out + dec.bytes_in) as f64 * per);
    per_codec_layers(rep, &a);
    a
}

/// Times the integrity-frame checksum on the run's own sealed frames:
/// `fnv1a32` over each payload plus the `unseal` check. `frame_bytes` is
/// how many frame bytes one pass seals or unseals.
fn frame_probe(rep: &mut Report, tracer: &Tracer, frame_bytes: f64) {
    let frames = tracer.take_frames();
    let total: usize = frames.iter().map(Vec::len).sum();
    if total == 0 {
        return;
    }
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut acc = 0u32;
            for f in &frames {
                acc ^= codec_kit::frame::fnv1a32(f);
                let payload =
                    codec_kit::frame::unseal(f).expect("frame produced by this run unseals");
                acc ^= payload.len() as u32;
            }
            std::hint::black_box(acc);
            secs(t0)
        })
        .collect();
    // Each frame is checksummed twice above: once directly, once by unseal.
    let rate = 2.0 * total as f64 / median(&times);
    rep.set("codec.frame_mbps", rate / 1e6);
    rep.set("codec.frame_s", frame_bytes / rate);
}

fn mbps(bytes: u64, s: f64) -> f64 {
    if s > 0.0 {
        bytes as f64 / s / 1e6
    } else {
        0.0
    }
}

/// Per-codec cr and rates from the codec spans of a traced phase.
fn per_codec_layers(rep: &mut Report, a: &Attribution) {
    let mut totals: BTreeMap<&str, (u64, u64, f64, u64, f64)> = BTreeMap::new();
    for ((name, tag), t) in &a.in_op {
        let e = totals.entry(tag).or_default();
        if *name == ENCODE {
            e.0 += t.bytes_in;
            e.1 += t.bytes_out;
            e.2 += t.wall_s;
        } else if *name == DECODE {
            e.3 += t.bytes_out;
            e.4 += t.wall_s;
        }
    }
    for (codec, (raw, packed, enc_s, decoded, dec_s)) in totals {
        if codec.is_empty() || packed == 0 {
            continue;
        }
        rep.set(
            &format!("compressors.{codec}.cr"),
            raw as f64 / packed as f64,
        );
        rep.set(
            &format!("compressors.{codec}.encode_mbps"),
            mbps(raw, enc_s),
        );
        rep.set(
            &format!("compressors.{codec}.decode_mbps"),
            mbps(decoded, dec_s),
        );
    }
}
