//! In-memory span recording around the engine's public boundaries.
//!
//! Spans are recorded only from this benchmark's own files: a delegating
//! [`TimedCompressor`], a [`TimedHook`] around the contraction hook, and
//! [`Tracer::span`] around the public calls the benchmark makes. Each span keeps
//! its name, start, end, parent, iteration id and thread; the spans are kept
//! in memory and written out when the benchmark ends.

use compressors::{Compressor, CompressorKind, ErrorBound};
use gpu_model::Stream;
use qtensor::{ContractError, ContractionHook};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tensornet::Tensor;

/// Marks a span without a parent.
const NO_PARENT: u32 = u32::MAX;

/// Span name of one measured sample's unit of work; its self time is the
/// benchmark's own overhead, reported as unattributed.
pub const OP: &str = "run.op";
pub const ENCODE: &str = "compressors.encode";
pub const DECODE: &str = "compressors.decode";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub thread: u32,
    pub iter: u32,
    pub name: &'static str,
    /// Codec name for codec spans, empty otherwise.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

thread_local! {
    /// Open span ids on this thread, innermost last.
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

/// Small stable id of the calling thread (the first thread to ask gets 0).
pub fn thread_id() -> u32 {
    THREAD.with(|t| *t)
}

/// Collects spans from every thread that calls into it.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    iter: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Frames kept for the frame-checksum probe, up to `FRAME_CAPTURE_BYTES`.
    frames: Mutex<(usize, Vec<Vec<u8>>)>,
}

/// Bytes of sealed frames kept for the frame-checksum probe.
const FRAME_CAPTURE_BYTES: usize = 32 << 20;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            iter: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            frames: Mutex::new((0, Vec::new())),
        }
    }

    /// Sets the iteration id stamped on spans opened from now on.
    pub fn set_iter(&self, iter: u32) {
        self.iter.store(iter, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times `f` as a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_io(name, "", 0, || (f(), 0))
    }

    /// Times `f` as a span that moved `bytes_in` bytes in and reports the
    /// bytes it produced.
    pub fn span_io<R>(
        &self,
        name: &'static str,
        tag: &'static str,
        bytes_in: u64,
        f: impl FnOnce() -> (R, u64),
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(NO_PARENT);
            s.push(id);
            parent
        });
        let iter = self.iter.load(Ordering::Relaxed);
        let start_ns = self.now_ns();
        let (out, bytes_out) = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                thread: thread_id(),
                iter,
                name,
                tag,
                start_ns,
                end_ns,
                bytes_in,
                bytes_out,
            });
        out
    }

    fn capture_frame(&self, frame: &[u8]) {
        let mut frames = self.frames.lock().expect("frame buffer lock poisoned");
        if frames.0 + frame.len() <= FRAME_CAPTURE_BYTES {
            frames.0 += frame.len();
            frames.1.push(frame.to_vec());
        }
    }

    /// The captured sealed frames.
    pub fn take_frames(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.frames.lock().expect("frame buffer lock poisoned").1)
    }

    /// All spans recorded so far, ordered by id (parents before children).
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\tparent\tthread\titer\tname\ttag\tstart_ns\tend_ns\tbytes_in\tbytes_out"
        )?;
        for s in self.spans() {
            let parent = if s.parent == NO_PARENT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                s.thread,
                s.iter,
                s.name,
                s.tag,
                s.start_ns,
                s.end_ns,
                s.bytes_in,
                s.bytes_out
            )?;
        }
        out.flush()
    }
}

/// `tracer.span(name, f)` when tracing, plain `f()` otherwise.
pub fn span_if<R>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Self time of every span (its duration minus the durations of its
/// children) summed per `(name, tag)`, split by whether the span descends
/// from an [`OP`] span on the main thread (`in_op`) or not. Spans of other
/// threads never have a parent, so their time is never subtracted from a
/// main-thread span.
pub struct Attribution {
    /// Total duration of the [`OP`] spans: the traced wall time.
    pub op_wall_s: f64,
    pub in_op: BTreeMap<(&'static str, &'static str), LayerTotals>,
    pub outside_op: BTreeMap<(&'static str, &'static str), LayerTotals>,
    pub other_threads: BTreeMap<(&'static str, &'static str), LayerTotals>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub self_s: f64,
    pub wall_s: f64,
    pub count: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl Attribution {
    pub fn of(spans: &[Span], main_thread: u32) -> Self {
        let mut index = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            index.insert(s.id, i);
        }
        let mut child_s = vec![0.0f64; spans.len()];
        let mut in_op = vec![false; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(&p) = index.get(&s.parent) {
                child_s[p] += s.dur_s();
                // Parents have lower ids, so they were classified first.
                in_op[i] = in_op[p];
            } else {
                in_op[i] = s.name == OP;
            }
        }
        let mut a = Attribution {
            op_wall_s: 0.0,
            in_op: BTreeMap::new(),
            outside_op: BTreeMap::new(),
            other_threads: BTreeMap::new(),
        };
        for (i, s) in spans.iter().enumerate() {
            if s.name == OP && s.parent == NO_PARENT {
                a.op_wall_s += s.dur_s();
            }
            let map = if s.thread != main_thread {
                &mut a.other_threads
            } else if in_op[i] {
                &mut a.in_op
            } else {
                &mut a.outside_op
            };
            let t = map.entry((s.name, s.tag)).or_default();
            t.self_s += s.dur_s() - child_s[i];
            t.wall_s += s.dur_s();
            t.count += 1;
            t.bytes_in += s.bytes_in;
            t.bytes_out += s.bytes_out;
        }
        a
    }

    /// Totals of every `(name, *)` entry of `map`.
    pub fn layer(
        map: &BTreeMap<(&'static str, &'static str), LayerTotals>,
        name: &str,
    ) -> LayerTotals {
        map.iter().filter(|((n, _), _)| *n == name).fold(
            LayerTotals::default(),
            |mut acc, (_, t)| {
                acc.self_s += t.self_s;
                acc.wall_s += t.wall_s;
                acc.count += t.count;
                acc.bytes_in += t.bytes_in;
                acc.bytes_out += t.bytes_out;
                acc
            },
        )
    }
}

/// A compressor that forwards every trait method to `inner` and records a
/// span around each codec call, so the frames it returns are byte-identical
/// to the inner compressor's.
pub struct TimedCompressor<'a> {
    pub inner: &'a dyn Compressor,
    pub tracer: &'a Tracer,
}

impl Compressor for TimedCompressor<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn id(&self) -> u8 {
        self.inner.id()
    }

    fn kind(&self) -> CompressorKind {
        self.inner.kind()
    }

    fn compress_raw(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
    ) -> Result<Vec<u8>, codec_kit::CodecError> {
        self.tracer
            .span_io(ENCODE, self.name(), bytes_of(data), || {
                let r = self.inner.compress_raw(data, bound, stream);
                let out = r.as_ref().map_or(0, |b| b.len() as u64);
                (r, out)
            })
    }

    fn decompress_raw(
        &self,
        bytes: &[u8],
        stream: &Stream,
    ) -> Result<Vec<f64>, codec_kit::CodecError> {
        self.tracer
            .span_io(DECODE, self.name(), bytes.len() as u64, || {
                let r = self.inner.decompress_raw(bytes, stream);
                let out = r.as_ref().map_or(0, |v| bytes_of(v));
                (r, out)
            })
    }

    fn compress_raw_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), codec_kit::CodecError> {
        self.tracer
            .span_io(ENCODE, self.name(), bytes_of(data), || {
                let r = self.inner.compress_raw_into(data, bound, stream, out);
                (r, out.len() as u64)
            })
    }

    fn decompress_raw_into(
        &self,
        bytes: &[u8],
        stream: &Stream,
        out: &mut Vec<f64>,
    ) -> Result<(), codec_kit::CodecError> {
        self.tracer
            .span_io(DECODE, self.name(), bytes.len() as u64, || {
                let r = self.inner.decompress_raw_into(bytes, stream, out);
                (r, bytes_of(out))
            })
    }

    fn compress(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
    ) -> Result<Vec<u8>, codec_kit::CodecError> {
        let r = self
            .tracer
            .span_io(ENCODE, self.name(), bytes_of(data), || {
                let r = self.inner.compress(data, bound, stream);
                let out = r.as_ref().map_or(0, |b| b.len() as u64);
                (r, out)
            });
        if let Ok(frame) = &r {
            self.tracer.capture_frame(frame);
        }
        r
    }

    fn compress_into(
        &self,
        data: &[f64],
        bound: ErrorBound,
        stream: &Stream,
        out: &mut Vec<u8>,
    ) -> Result<(), codec_kit::CodecError> {
        let r = self
            .tracer
            .span_io(ENCODE, self.name(), bytes_of(data), || {
                let r = self.inner.compress_into(data, bound, stream, out);
                (r, out.len() as u64)
            });
        if r.is_ok() {
            self.tracer.capture_frame(out);
        }
        r
    }

    fn decompress(&self, bytes: &[u8], stream: &Stream) -> Result<Vec<f64>, codec_kit::CodecError> {
        self.tracer
            .span_io(DECODE, self.name(), bytes.len() as u64, || {
                let r = self.inner.decompress(bytes, stream);
                let out = r.as_ref().map_or(0, |v| bytes_of(v));
                (r, out)
            })
    }

    fn decompress_into(
        &self,
        bytes: &[u8],
        stream: &Stream,
        out: &mut Vec<f64>,
    ) -> Result<(), codec_kit::CodecError> {
        self.tracer
            .span_io(DECODE, self.name(), bytes.len() as u64, || {
                let r = self.inner.decompress_into(bytes, stream, out);
                (r, bytes_of(out))
            })
    }
}

fn bytes_of(values: &[f64]) -> u64 {
    (values.len() * 8) as u64
}

/// Span name of one call into the contraction hook.
pub const HOOK: &str = "qtensor.hook";

/// Wraps a contraction hook, recording a span around every intermediate.
pub struct TimedHook<'a> {
    pub inner: &'a mut dyn ContractionHook,
    pub tracer: &'a Tracer,
}

impl ContractionHook for TimedHook<'_> {
    fn on_intermediate(&mut self, tensor: Tensor) -> Result<Tensor, ContractError> {
        let bytes = tensor.nbytes() as u64;
        let inner = &mut *self.inner;
        self.tracer
            .span_io(HOOK, "", bytes, || (inner.on_intermediate(tensor), bytes))
    }
}
