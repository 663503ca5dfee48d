//! `sv-gates` and `sv-oocore`: p=1 QAOA on an 18-qubit `CompressedState`
//! of 64 chunks through QCF-speed, with a 2-chunk write-back cache.
//!
//! A pass applies the first half of the gates, passes a midpoint barrier,
//! applies the second half and scans the MaxCut energy. On `sv-gates` the
//! barrier is `set_cache_capacity`, which flushes and drops the cache; on
//! `sv-oocore` it is a `checkpoint` commit followed by `resume`, which does
//! the same to the cache, so both workloads requantize the same chunks at
//! the same points and must end in bit-identical states. `sv-oocore` also
//! runs under a compressed-RAM budget of 1/8 of the state's compressed
//! size, with prefetch on and a modelled NVMe-class read latency. The graph
//! is fixed; the seed draws the QAOA angles.

use crate::report::{self, repeat_for, Report, Stopwatch, Times};
use crate::trace::{span_if, Attribution, TimedCompressor, Tracer, OP};
use crate::{fixed_seed, Ctx};
use compressors::{Compressor, ErrorBound};
use qcf_core::QcfCompressor;
use qcircuit::{qaoa_circuit, Circuit, Graph, QaoaParams};
use qtensor::{CompressedState, StateStats, StateVector};
use std::path::{Path, PathBuf};

const N: usize = 18;
const CHUNK_QUBITS: usize = 12;
/// Set-up takes milliseconds; build the state this often per pass.
const SETUP_REPEATS: usize = 6;
const CACHE_CHUNKS: usize = 2;
const SPILL_LATENCY_US: u64 = 100;
const BOUND: ErrorBound = ErrorBound::Rel(1e-3);
/// Input stream of the (fixed) graph; the seed draws the angles.
const GRAPH_STREAM: u64 = 2;

/// Everything a pass produced that must repeat bit for bit.
#[derive(Clone, PartialEq, Debug)]
struct Outcome {
    energy_bits: u64,
    amps_hash: u64,
    /// Stats of the state before the barrier (sv-oocore) and after it.
    before: StateStats,
    after: StateStats,
    ckpt_bytes: u64,
    ckpt_hash: u32,
    stored_bytes: usize,
    spill_file_bytes: usize,
}

impl Outcome {
    /// Stats of the whole pass, timing fields excluded.
    fn counts(&self) -> StateStats {
        let (a, b) = (&self.before, &self.after);
        StateStats {
            recompressions: a.recompressions + b.recompressions,
            decompressions: a.decompressions + b.decompressions,
            resident_bytes: b.resident_bytes,
            peak_resident_bytes: a.peak_resident_bytes.max(b.peak_resident_bytes),
            cache_hits: a.cache_hits + b.cache_hits,
            cache_misses: a.cache_misses + b.cache_misses,
            writebacks: a.writebacks + b.writebacks,
            spills: a.spills + b.spills,
            fetches: a.fetches + b.fetches,
            spilled_bytes: b.spilled_bytes,
            prefetch_hits: a.prefetch_hits + b.prefetch_hits,
            prefetch_misses: a.prefetch_misses + b.prefetch_misses,
            prefetch_stall_us: 0,
            compactions: a.compactions + b.compactions,
            spill_reclaimed_bytes: a.spill_reclaimed_bytes + b.spill_reclaimed_bytes,
        }
    }

    fn without_timing(&self) -> Self {
        let mut o = self.clone();
        o.before.prefetch_stall_us = 0;
        o.after.prefetch_stall_us = 0;
        o
    }
}

struct Pass {
    /// Includes the modelled device wait (see [`device_wait`]).
    time: Times,
    setup_s: Vec<f64>,
    stall_s: f64,
    out: Outcome,
}

fn fnv64(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Sets the cache and, for `sv-oocore`, the compressed-RAM budget and the
/// modelled read latency.
fn configure(state: &mut CompressedState<'_>, budget: Option<usize>) -> Result<(), String> {
    state
        .set_cache_capacity(CACHE_CHUNKS)
        .map_err(|e| e.to_string())?;
    if budget.is_some() {
        state.set_mem_budget(budget);
        state.set_spill_latency_us(SPILL_LATENCY_US);
    }
    Ok(())
}

/// Seconds the calling thread waited on the modelled spill device in one
/// pass: the prefetch stall the state measured on the gate path (a
/// synchronous read on a miss, a wait for an in-flight read on a hit),
/// plus `SPILL_LATENCY_US` for every in-place read of a spilled frame
/// (`reads`: by the checkpoint, and by the energy scan, which reads each
/// spilled chunk once per graph edge). Sleeping uses no CPU, so this is
/// added to the pass's CPU time.
fn device_wait(stall_us: u64, reads: usize) -> f64 {
    (stall_us + reads as u64 * SPILL_LATENCY_US) as f64 * 1e-6
}

/// One pass: set-up (graph, circuit, `zero`; `SETUP_REPEATS` times, the
/// last state is used), then the measured
/// gates + barrier + scan, then untimed read-back of the final state.
fn pass(
    params: &QaoaParams,
    budget: Option<usize>,
    ckpt: &Path,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let speed = QcfCompressor::speed();
    let timed = tracer.map(|t| TimedCompressor {
        inner: &speed,
        tracer: t,
    });
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        let sw = Stopwatch::start();
        let (graph, circuit) = span_if(tracer, "circuit.build", || {
            let graph = Graph::random_regular(N, 3, fixed_seed(GRAPH_STREAM));
            let circuit = qaoa_circuit(&graph, params);
            (graph, circuit)
        });
        let codec: &dyn Compressor = match &timed {
            Some(t) => t,
            None => &speed,
        };
        let state = span_if(tracer, "qtensor.state.init", || {
            let mut s =
                CompressedState::zero(N, CHUNK_QUBITS, codec, BOUND).map_err(|e| e.to_string())?;
            configure(&mut s, budget)?;
            Ok::<_, String>(s)
        })?;
        setup_s.push(sw.read().cpu);
        built = Some((graph, circuit, codec, state));
    }
    let (graph, circuit, codec, mut state) = built.expect("at least one set-up");

    let gates = circuit.gates();
    let (first, second) = gates.split_at(gates.len() / 2);
    let prefetch = budget.is_some();
    let sw = Stopwatch::start();
    let measured = || -> Result<_, String> {
        span_if(tracer, "qtensor.state.apply", || {
            state.run_scheduled(first, prefetch)
        })
        .map_err(|e| e.to_string())?;
        let before = state.stats.clone();
        let mut ckpt_bytes = 0;
        let mut ckpt_reads = 0;
        let mut spill_file_bytes = state.tier_breakdown().spill_file_bytes;
        if budget.is_some() {
            ckpt_bytes = span_if(tracer, "qtensor.checkpoint.commit", || {
                state.checkpoint(ckpt, b"perfbench")
            })
            .map_err(|e| e.to_string())?;
            // The checkpoint reads spilled frames in place: they stay spilled.
            ckpt_reads = state.tier_breakdown().spilled_chunks;
            drop(std::mem::replace(
                &mut state,
                span_if(tracer, "qtensor.checkpoint.resume", || {
                    let (mut s, _) =
                        CompressedState::resume(ckpt, codec).map_err(|e| e.to_string())?;
                    configure(&mut s, budget)?;
                    Ok::<_, String>(s)
                })?,
            ));
        } else {
            span_if(tracer, "qtensor.state.apply", || {
                state.set_cache_capacity(CACHE_CHUNKS)
            })
            .map_err(|e| e.to_string())?;
        }
        span_if(tracer, "qtensor.state.apply", || {
            state.run_scheduled(second, prefetch)
        })
        .map_err(|e| e.to_string())?;
        let energy = span_if(tracer, "qtensor.state.scan", || state.maxcut_energy(&graph))
            .map_err(|e| e.to_string())?;
        spill_file_bytes = spill_file_bytes.max(state.tier_breakdown().spill_file_bytes);
        Ok((energy, before, ckpt_bytes, ckpt_reads, spill_file_bytes))
    };
    let (energy, before, ckpt_bytes, ckpt_reads, spill_file_bytes) = span_if(tracer, OP, measured)?;
    let mut time = sw.read();

    // The scan leaves the tiers as they were.
    let tiers = state.tier_breakdown();
    let scan_reads = graph.edges().len() * tiers.spilled_chunks;
    let amps = state.to_statevector().map_err(|e| e.to_string())?;
    let amps_hash = fnv64(amps.amplitudes().iter().flat_map(|a| {
        a.re.to_bits()
            .to_le_bytes()
            .into_iter()
            .chain(a.im.to_bits().to_le_bytes())
    }));
    let ckpt_hash = if budget.is_some() {
        let bytes = std::fs::read(ckpt).map_err(|e| e.to_string())?;
        codec_kit::frame::fnv1a32(&bytes)
    } else {
        0
    };
    // Without a checkpoint the state's stats already cover the whole pass.
    let before = if budget.is_some() {
        before
    } else {
        StateStats::default()
    };
    let stall_us = before.prefetch_stall_us + state.stats.prefetch_stall_us;
    time.device_wait = device_wait(stall_us, ckpt_reads + scan_reads);
    Ok(Pass {
        time,
        setup_s,
        stall_s: stall_us as f64 * 1e-6,
        out: Outcome {
            energy_bits: energy.to_bits(),
            amps_hash,
            before,
            after: state.stats.clone(),
            ckpt_bytes,
            ckpt_hash,
            stored_bytes: tiers.ram_compressed_bytes + tiers.spilled_bytes,
            spill_file_bytes,
        },
    })
}

pub fn run(ctx: &Ctx, tracer: &Tracer, rep: &mut Report, oocore: bool) {
    let name = if oocore { "sv-oocore" } else { "sv-gates" };
    let ckpt: PathBuf = ctx.out_dir.join(format!("ckpt-{name}-{}.snap", ctx.seed));
    let params = ctx.angles(&QaoaParams::fixed_angles_3reg_p1(), GRAPH_STREAM);

    // References, outside the timed region: the dense energy, and for
    // sv-oocore the sv-gates pass of the same seed, which also sizes the
    // budget.
    let graph = Graph::random_regular(N, 3, fixed_seed(GRAPH_STREAM));
    let circuit: Circuit = qaoa_circuit(&graph, &params);
    let dense = StateVector::run(&circuit).maxcut_energy(&graph);
    let (budget, reference) = if oocore {
        match pass(&params, None, &ckpt, None) {
            Ok(p) => {
                let budget = p.out.stored_bytes / 8;
                rep.note(format!("compressed-RAM budget {budget} bytes"));
                (Some(budget), Some(p.out))
            }
            Err(e) => {
                rep.check(&format!("sv-gates reference pass: {e}"), false);
                return;
            }
        }
    } else {
        (None, None)
    };

    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut first: Option<Outcome> = None;
    let mut stall = Vec::new();
    let calib = repeat_for(ctx.untraced_seconds(), |_| {
        match pass(&params, budget, &ckpt, None) {
            Ok(p) => {
                walls.push(p.time);
                setups.extend(p.setup_s);
                stall.push(p.stall_s);
                let energy = f64::from_bits(p.out.energy_bits);
                let err = (energy - dense).abs() / dense.abs();
                rep.check(
                    &format!(
                        "{name}: energy {energy} within 5 % of the dense {dense} (error {err:e})"
                    ),
                    err <= 0.05,
                );
                if let Some(r) = &reference {
                    rep.check(
                        "sv-oocore ends bit-identical to the uninterrupted sv-gates pass",
                        r.energy_bits == p.out.energy_bits && r.amps_hash == p.out.amps_hash,
                    );
                }
                let out = p.out.without_timing();
                match &first {
                    None => first = Some(out),
                    Some(f) => rep.check(
                        &format!("{name}: results and counts repeat exactly"),
                        *f == out,
                    ),
                }
            }
            Err(e) => rep.check(&format!("{name} pass: {e}"), false),
        }
    });
    report::timing_metrics(rep, &walls, &setups, &calib);
    let _ = std::fs::remove_file(&ckpt);
    let Some(out) = first else { return };
    let dense_bytes = 16usize << N;
    rep.e2e
        .insert("cr", dense_bytes as f64 / out.stored_bytes as f64);
    let energy = f64::from_bits(out.energy_bits);
    rep.set("energy_rel_err", (energy - dense).abs() / dense.abs());
    let c = out.counts();
    let gates = circuit.gates().len() as f64;
    rep.set("peak_resident_bytes", c.peak_resident_bytes as f64);
    rep.set(
        "qtensor.state.decodes_per_gate",
        c.decompressions as f64 / gates,
    );
    rep.set(
        "qtensor.state.encodes_per_gate",
        c.recompressions as f64 / gates,
    );
    rep.set(
        "qtensor.state.cache_hit_ratio",
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
    );
    rep.set("qtensor.state.writebacks", c.writebacks as f64);
    rep.set("qtensor.spill.writes", c.spills as f64);
    rep.set("qtensor.spill.fetches", c.fetches as f64);
    rep.set("qtensor.spill.file_bytes", out.spill_file_bytes as f64);
    rep.set(
        "qtensor.spill.prefetch_hit_ratio",
        ratio(c.prefetch_hits, c.prefetch_hits + c.prefetch_misses),
    );
    rep.set("qtensor.checkpoint.bytes", out.ckpt_bytes as f64);
    rep.set("qtensor.spill.stall_s", report::median(&stall));
    if !ctx.trace {
        return;
    }
    let mut traced = Vec::new();
    repeat_for(ctx.seconds - ctx.untraced_seconds(), |i| {
        tracer.set_iter(i as u32);
        match pass(&params, budget, &ckpt, Some(tracer)) {
            Ok(p) => {
                traced.push(p.time);
                rep.check(
                    &format!("traced {name} pass equals the untraced one bit for bit"),
                    p.out.without_timing() == out,
                );
            }
            Err(e) => rep.check(&format!("traced {name} pass: {e}"), false),
        }
    });
    let a = report::codec_and_run_layers(
        rep,
        tracer,
        &walls,
        &traced,
        &[
            ("qtensor.state.apply", "qtensor.state.apply_self_s"),
            ("qtensor.state.scan", "qtensor.state.scan_s"),
            ("qtensor.checkpoint.commit", "qtensor.checkpoint.commit_s"),
            ("qtensor.checkpoint.resume", "qtensor.checkpoint.resume_s"),
        ],
    );
    let _ = std::fs::remove_file(&ckpt);
    for (span, metric) in [
        ("qtensor.state.init", "qtensor.state.init_s"),
        ("circuit.build", "circuit.build_s"),
    ] {
        let t = Attribution::layer(&a.outside_op, span);
        rep.set(metric, t.wall_s / t.count.max(1) as f64);
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
