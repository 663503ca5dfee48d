//! `codec-corpus`: compress + decompress round trips of every codec in
//! `qcf_bench::cli::cli_lineup()` over traced p=2 intermediates and scaled
//! synthetic ensembles, with no simulator in the measured work.
//!
//! The synthetic tensors are 1, 4 and 16 MiB, so some fit the 4 MiB L2
//! cache and some do not, with near-zero fractions 0, 0.8 and 0.5. The
//! traced tensors are the largest intermediates of one pinned graph
//! (`tn::CORPUS_GRAPH`) at seeded angles.

use crate::report::{self, repeat_for, Report, Stopwatch, Times};
use crate::spec::CODECS;
use crate::trace::{TimedCompressor, Tracer, OP};
use crate::Ctx;
use compressors::traits::value_range;
use compressors::{Compressor, CompressorKind, ErrorBound};
use gpu_model::{DeviceSpec, Stream};
use qcf_bench::corpus::{synthetic_tensor, CorpusTensor};
use qcircuit::{Graph, QaoaParams};
use qtensor::{Simulator, TraceHook};
use tensornet::planes::as_interleaved;

const BOUND: ErrorBound = ErrorBound::Rel(1e-3);
/// `(MiB, near-zero fraction)` of the synthetic tensors.
const SYNTHETIC: [(usize, f64); 3] = [(1, 0.0), (4, 0.8), (16, 0.5)];
/// Traced intermediates kept from the graph.
const TRACED: usize = 4;
/// Input stream of the traced graph's angles.
const TRACE_STREAM: u64 = 3;
/// Building the lineup takes about a microsecond: per pass, time
/// `SETUP_BATCHES` batches of `SETUP_BATCH` builds.
const SETUP_BATCHES: usize = 16;
const SETUP_BATCH: usize = 256;

/// Frame length and checksum of one round trip; compared bit for bit.
type Frames = Vec<(usize, u32)>;

fn build_corpus(ctx: &Ctx) -> Vec<CorpusTensor> {
    let (n, graph_seed) = crate::tn::CORPUS_GRAPH;
    let graph = Graph::random_regular(n, 3, graph_seed);
    let params = ctx.angles(&QaoaParams::fixed_angles_3reg_p2(), TRACE_STREAM);
    let mut trace = TraceHook::new(2048, 0);
    Simulator::default()
        .energy_with_hook(&graph, &params, &mut trace)
        .expect("tracing an exact contraction");
    let mut captured = trace.into_captured();
    captured.sort_by_key(|t| std::cmp::Reverse(t.len()));
    captured.truncate(TRACED);
    let mut corpus: Vec<CorpusTensor> = captured
        .iter()
        .enumerate()
        .map(|(i, t)| CorpusTensor {
            data: as_interleaved(t.data()).to_vec(),
            origin: format!("qaoa-n{n}-t{i}"),
            real: true,
        })
        .collect();
    for (i, &(mib, zero)) in SYNTHETIC.iter().enumerate() {
        corpus.push(synthetic_tensor(mib << 16, zero, ctx.derive(10 + i as u64)));
    }
    corpus
}

/// One pass over every codec and tensor. Returns the pass time (sum of
/// the round trips), the set-up times (building the lineup), the
/// frames and the raw and compressed bytes of each codec; the correctness
/// check of each round trip runs between the timed calls.
fn pass(
    corpus: &[CorpusTensor],
    tracer: Option<&Tracer>,
    rep: &mut Report,
) -> (Times, Vec<f64>, Frames, Vec<(u64, u64)>) {
    let mut setup = Vec::with_capacity(SETUP_BATCHES);
    for _ in 0..SETUP_BATCHES {
        let sw = Stopwatch::start();
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(qcf_bench::cli::cli_lineup());
        }
        setup.push(sw.read().cpu / SETUP_BATCH as f64);
    }
    let lineup = qcf_bench::cli::cli_lineup();
    let stream = Stream::new(DeviceSpec::a100());
    let mut time = Times::default();
    let mut frames = Vec::new();
    let mut sizes = Vec::new();
    for inner in &lineup {
        let timed = tracer.map(|t| TimedCompressor {
            inner: inner.as_ref(),
            tracer: t,
        });
        let codec: &dyn Compressor = match &timed {
            Some(t) => t,
            None => inner.as_ref(),
        };
        let (mut raw, mut packed) = (0u64, 0u64);
        for t in corpus {
            let round_trip = || {
                let frame = codec.compress(&t.data, BOUND, &stream)?;
                let back = codec.decompress(&frame, &stream)?;
                Ok::<_, codec_kit::CodecError>((frame, back))
            };
            let sw = Stopwatch::start();
            let result = match tracer {
                Some(tr) => tr.span(OP, round_trip),
                None => round_trip(),
            };
            time += sw.read();
            match result {
                Ok((frame, back)) => {
                    let verdict = bound_held(codec, t, &back);
                    rep.check(
                        &format!("{} on {}: {verdict}", codec.name(), t.origin),
                        verdict == "ok",
                    );
                    raw += t.nbytes() as u64;
                    packed += frame.len() as u64;
                    frames.push((frame.len(), codec_kit::frame::fnv1a32(&frame)));
                }
                Err(e) => rep.check(&format!("{} on {}: {e}", codec.name(), t.origin), false),
            }
        }
        sizes.push((raw, packed));
    }
    (time, setup, frames, sizes)
}

/// "ok" when an error-bounded codec stayed within the resolved absolute
/// bound and a lossless one reproduced every bit; otherwise what broke.
fn bound_held(codec: &dyn Compressor, t: &CorpusTensor, back: &[f64]) -> String {
    if back.len() != t.data.len() {
        return format!("decoded {} values, expected {}", back.len(), t.data.len());
    }
    match codec.kind() {
        CompressorKind::Lossless => {
            match t
                .data
                .iter()
                .zip(back)
                .position(|(a, b)| a.to_bits() != b.to_bits())
            {
                None => "ok".into(),
                Some(i) => format!("lossless codec changed value {i}"),
            }
        }
        CompressorKind::ErrorBounded => {
            let (min, max) = value_range(&t.data);
            let eb = BOUND.to_abs(max - min);
            let worst = t
                .data
                .iter()
                .zip(back)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            if worst <= eb {
                "ok".into()
            } else {
                format!("max error {worst:e} above the bound {eb:e}")
            }
        }
    }
}

pub fn run(ctx: &Ctx, tracer: &Tracer, rep: &mut Report) {
    let corpus = build_corpus(ctx);
    let lineup: Vec<&str> = qcf_bench::cli::cli_lineup()
        .iter()
        .map(|c| c.name())
        .collect();
    rep.check(
        "the codec lineup is the one the metric names list",
        lineup == CODECS,
    );
    rep.note(format!(
        "{} tensors, {:.1} MiB, {} codecs",
        corpus.len(),
        corpus.iter().map(|t| t.nbytes()).sum::<usize>() as f64 / (1 << 20) as f64,
        lineup.len()
    ));
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut first: Option<(Frames, Vec<(u64, u64)>)> = None;
    let calib = repeat_for(ctx.untraced_seconds(), |_| {
        let (w, s, frames, sizes) = pass(&corpus, None, rep);
        walls.push(w);
        setups.extend(s);
        match &first {
            None => first = Some((frames, sizes)),
            Some((f, _)) => rep.check(
                "codec-corpus frames repeat exactly across passes",
                *f == frames,
            ),
        }
    });
    report::timing_metrics(rep, &walls, &setups, &calib);
    let Some((frames, sizes)) = first else { return };
    let cr = |name: &str| {
        let i = CODECS
            .iter()
            .position(|c| *c == name)
            .expect("codec in lineup");
        sizes[i].0 as f64 / sizes[i].1.max(1) as f64
    };
    rep.e2e.insert("cr", cr("QCF-ratio"));
    rep.set("c1_cr_gain", cr("QCF-ratio") / cr("cuSZ"));
    rep.set("c2_cr_gain", cr("QCF-speed") / cr("cuSZx"));
    if !ctx.trace {
        return;
    }
    let mut traced = Vec::new();
    repeat_for(ctx.seconds - ctx.untraced_seconds(), |i| {
        tracer.set_iter(i as u32);
        let (w, _, f, _) = pass(&corpus, Some(tracer), rep);
        traced.push(w);
        rep.check(
            "traced codec-corpus frames equal the untraced ones bit for bit",
            f == frames,
        );
    });
    report::codec_and_run_layers(rep, tracer, &walls, &traced, &[]);
    let encode_mbps = |codec: &str| {
        rep.layer
            .get(&format!("compressors.{codec}.encode_mbps"))
            .copied()
            .unwrap_or(0.0)
    };
    let ratio = encode_mbps("QCF-speed") / encode_mbps("cuSZx");
    rep.set("c2_speed_ratio", ratio);
}
