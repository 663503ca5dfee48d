//! Chunk-compressed full-statevector simulation.
//!
//! The memory wall the paper opens with: a dense `2^n` statevector needs
//! `16·2^n` bytes. Prior work from the same group compressed the full state
//! between gate applications; this module provides that workflow as an
//! extension (DESIGN.md lists it as the paper's motivating substrate):
//!
//! * amplitudes live as `2^(n−c)` *chunks* of `2^c`, each stored compressed
//!   with any [`Compressor`] (including the framework);
//! * the gate list runs in **stages** ([`chunk_groups`]): a stage is a
//!   maximal run of consecutive gates whose *gather bits* — the chunk-id
//!   qubits (`q >= c`) of every gate except the fully diagonal `Zz` and
//!   `Cz` — cover at most two chunk-id qubits in total;
//! * a stage groups the 1, 2 or 4 chunks that differ only in its gather
//!   bits, decodes each group once, applies all of the stage's gates to
//!   the group buffer (gathered qubits remapped onto the group dimension;
//!   a `Zz`/`Cz` bit outside the group is constant there and read from the
//!   group's base id), and stores each member once. `apply(gate)` is a
//!   one-gate stage.
//!
//! So codec work scales with stages, not gates: a p=1 QAOA circuit on
//! 18 qubits in 64 chunks runs in 6 stages instead of 63 per-gate passes.
//!
//! The state is **write-through**: a stage decodes each group's chunks
//! straight into the group buffer and encodes every member back from that
//! buffer before the next group, so between groups every amplitude lives
//! only as a compressed frame (in RAM or on the disk tier) and no decoded
//! copy outlives its group. Under a lossy codec each chunk is requantized
//! exactly once per stage that touches it.
//!
//! The tests measure the end effect as state fidelity and energy drift vs.
//! the dense oracle; `tests/differential.rs` holds every knob to it.

use crate::checkpoint::{self, CkptError};
use crate::contraction::ContractError;
use crate::ledger::{ChunkRecord, ErrorLedger, LedgerSummary};
use crate::spill::{self, Consume, FramePayload, PrefetchCtl, PrefetchRequest, SpillTier};
use crate::statevector::{apply_diagonal_2q, apply_gate_to_amplitudes, StateVector};
use compressors::traits::value_range;
use compressors::{Compressor, CompressorKind, ErrorBound};
use gpu_model::{DeviceSpec, Stream};
use qcf_telemetry::journal::{self, EventKind};
use qcf_telemetry::{Counter, Gauge, GaugeTrack, Histogram};
use qcircuit::{Circuit, Gate, Graph};
use std::borrow::Cow;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tensornet::planes::as_interleaved;
use tensornet::Complex64;

/// Accounting for a compressed-state run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateStats {
    /// Chunk (re)compressions performed.
    pub recompressions: u64,
    /// Chunk decompressions performed.
    pub decompressions: u64,
    /// Current compressed bytes across all chunks.
    pub resident_bytes: usize,
    /// Peak compressed bytes observed.
    pub peak_resident_bytes: usize,
    /// Always 0: the state is write-through and has no chunk cache. Kept so
    /// callers that build `StateStats` as a literal still compile.
    pub cache_hits: u64,
    /// Always 0 (see [`cache_hits`](Self::cache_hits)).
    pub cache_misses: u64,
    /// Always 0 (see [`cache_hits`](Self::cache_hits)).
    pub writebacks: u64,
    /// Compressed frames spilled from RAM to the disk tier.
    pub spills: u64,
    /// Compressed frames fetched back from the disk tier on the data
    /// path (read-only scans like `maxcut_energy` read the disk tier in
    /// place and are counted only in the `state.spill.reads` counter).
    pub fetches: u64,
    /// Current live bytes on the disk tier.
    pub spilled_bytes: usize,
    /// Disk-tier fetches served by the async prefetch pipeline.
    pub prefetch_hits: u64,
    /// Disk-tier fetches that fell back to a synchronous read.
    pub prefetch_misses: u64,
    /// Microseconds the apply path spent blocked waiting on disk-tier
    /// data (prefetch waits + synchronous fallback reads).
    pub prefetch_stall_us: u64,
    /// Spill-log compaction passes that actually rewrote the file.
    pub compactions: u64,
    /// Dead bytes reclaimed from the spill log across those passes.
    pub spill_reclaimed_bytes: u64,
}

/// Fault accounting for a compressed-state run: what went wrong and how
/// each failure was absorbed. Exact regardless of `QCF_TELEMETRY` (like
/// [`StateStats`]); mirrored into `state.faults.*` registry counters.
///
/// The recovery policy chain on a failed chunk decode is, in order:
///
/// 1. **bounded retry** — one immediate re-decode (heals transient faults:
///    an injected decode error, a panicked worker mid-kernel);
/// 2. **quarantine** — the chunk is zero-filled, the lost squared norm is
///    folded into the error ledger, and the simulation continues degraded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultStats {
    /// Chunk decode failures observed (checksum mismatch, corrupt stream,
    /// injected decode error, worker panic during decode).
    pub decode_errors: u64,
    /// Failures healed by an immediate bounded retry (decode or encode).
    pub retries_ok: u64,
    /// Chunks quarantined (zero-filled) after recovery was exhausted.
    pub quarantines: u64,
    /// Worker panics converted into per-chunk failures.
    pub worker_panics: u64,
    /// Total squared amplitude norm lost to quarantine zero-fills.
    pub lost_norm_sq: f64,
}

/// Microsecond bucket bounds for the state latency histograms: roughly
/// log-spaced from sub-10µs chunk kernels up to a second, so every default
/// SLO threshold (100 ms for `latency.apply_p99` and `latency.decode_p95`)
/// is itself a bound and a 10–100 ms sample reads as finite. Only slower
/// events land in the overflow bucket, whose quantile reads `+inf`.
const LATENCY_BOUNDS_US: [f64; 15] = [
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0, 25000.0, 50000.0,
    100000.0, 250000.0, 1000000.0,
];

/// Cached handles for every `state.*` registry instrument, resolved once
/// at construction so the hot path never takes the registry lock.
/// Counter and histogram updates are lock-free and allocation-free, which
/// keeps the warm apply path inside the zero-allocation gate.
struct StateCounters {
    // `state.faults.*`, mirrors of `FaultStats`
    decode_errors: Arc<Counter>,
    retries_ok: Arc<Counter>,
    quarantines: Arc<Counter>,
    worker_panics: Arc<Counter>,
    // `state.spill.*`, `state.prefetch.*`
    spill_writes: Arc<Counter>,
    spill_reads: Arc<Counter>,
    spill_bytes: Arc<Counter>,
    spill_live_bytes: GaugeTrack,
    /// Dead (superseded-record) bytes in the spill log — the level the
    /// `capacity.spill_dead` SLO watches; compaction drives it back down.
    spill_dead_bytes: Arc<Gauge>,
    compactions: Arc<Counter>,
    prefetch_hits: Arc<Counter>,
    prefetch_misses: Arc<Counter>,
    stall_us: Arc<Counter>,
    // `state.ckpt.*`
    ckpt_writes: Arc<Counter>,
    ckpt_bytes: Arc<Counter>,
    ckpt_restores: Arc<Counter>,
    // `state.*_us` latencies; with telemetry disabled no clock is read at
    // all. `apply_us` times one stage (one sample per stage, whatever its
    // gate count); `encode_us`/`decode_us` time one chunk codec call.
    apply_us: Arc<Histogram>,
    encode_us: Arc<Histogram>,
    decode_us: Arc<Histogram>,
}

impl StateCounters {
    fn new() -> Self {
        let reg = qcf_telemetry::registry();
        let us = |name| reg.histogram(name, &LATENCY_BOUNDS_US);
        StateCounters {
            decode_errors: reg.counter("state.faults.decode_errors"),
            retries_ok: reg.counter("state.faults.retries_ok"),
            quarantines: reg.counter("state.faults.quarantines"),
            worker_panics: reg.counter("state.faults.worker_panics"),
            spill_writes: reg.counter("state.spill.writes"),
            spill_reads: reg.counter("state.spill.reads"),
            spill_bytes: reg.counter("state.spill.bytes"),
            spill_live_bytes: reg.gauge("state.spill.live_bytes").track(),
            spill_dead_bytes: reg.gauge("state.spill.dead_bytes"),
            compactions: reg.counter("state.spill.compactions"),
            prefetch_hits: reg.counter("state.prefetch.hits"),
            prefetch_misses: reg.counter("state.prefetch.misses"),
            stall_us: reg.counter("state.prefetch.stall_us"),
            ckpt_writes: reg.counter("state.ckpt.writes"),
            ckpt_bytes: reg.counter("state.ckpt.bytes"),
            ckpt_restores: reg.counter("state.ckpt.restores"),
            apply_us: us("state.apply_us"),
            encode_us: us("state.encode_us"),
            decode_us: us("state.decode_us"),
        }
    }
}

/// Where the compressed frames stand: RAM against the disk tier (`qcfz
/// state`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierBreakdown {
    /// Compressed frames held in RAM.
    pub ram_compressed_bytes: usize,
    /// Live compressed frames on the disk tier.
    pub spilled_bytes: usize,
    /// Chunks currently living on the disk tier.
    pub spilled_chunks: usize,
    /// Total spill-log bytes on disk (live records plus dead space the
    /// next compaction will reclaim).
    pub spill_file_bytes: usize,
}

/// Starts a latency measurement iff telemetry is enabled (one relaxed load
/// on the disabled path, no clock read).
#[inline]
fn lat_start() -> Option<Instant> {
    if qcf_telemetry::enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Ends a latency measurement started by [`lat_start`].
#[inline]
fn lat_end(hist: &Histogram, t0: Option<Instant>) {
    if let Some(t0) = t0 {
        hist.observe(t0.elapsed().as_secs_f64() * 1e6);
    }
}

/// Result of a [`CompressedState::verify`] scrub.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Chunks scrubbed.
    pub chunks: usize,
    /// Chunks that decoded cleanly on the first attempt.
    pub clean: usize,
    /// Chunks that failed once but were healed by the bounded retry.
    pub healed: usize,
    /// Chunks zero-filled because recovery was exhausted.
    pub quarantined: usize,
    /// Chunks whose measured error exceeds their ledger bound — a codec
    /// violating its own error contract.
    pub ledger_breaches: usize,
}

impl VerifyReport {
    /// True when every chunk decoded cleanly and no ledger bound was
    /// breached.
    pub fn all_clean(&self) -> bool {
        self.clean == self.chunks && self.ledger_breaches == 0
    }

    /// Corruptions the scrub detected (chunks that did not decode cleanly).
    pub fn detected(&self) -> usize {
        self.healed + self.quarantined
    }
}

/// Decodes one compressed chunk via the reusable `flat` interleaved
/// scratch and appends its amplitudes to `amps` (a group buffer decodes
/// its members in place; on an error `amps` is untouched) — a free
/// function so callers can split borrows
/// across `CompressedState` fields (and the prefetch workers can decode
/// off-thread with exactly the main thread's semantics).
pub(crate) fn decode_chunk(
    compressor: &dyn Compressor,
    stream: &Stream,
    chunk_len: usize,
    bytes: &[u8],
    flat: &mut Vec<f64>,
    amps: &mut Vec<Complex64>,
) -> Result<(), ContractError> {
    compressor
        .decompress_into(bytes, stream, flat)
        .map_err(|e| ContractError::Hook(format!("chunk decompress: {e}")))?;
    if flat.len() != chunk_len * 2 {
        return Err(ContractError::Hook("chunk length mismatch".into()));
    }
    amps.extend(flat.chunks_exact(2).map(|c| Complex64::new(c[0], c[1])));
    Ok(())
}

/// The chunk-id bits `gate` needs gathered into one group buffer: its
/// high qubits (`q >= chunk_qubits`) as `q - chunk_qubits`, in gate order —
/// except those of the fully diagonal two-qubit gates `Zz` and `Cz`, which
/// a stage applies where the chunks lie ([`apply_diagonal_2q`]). `None`
/// when a qubit lies outside a register of `2^id_bits` chunks.
fn gather_bits(gate: &Gate, chunk_qubits: usize, id_bits: usize) -> Option<([usize; 2], usize)> {
    let (qs, k) = gate.qubits_array();
    let diagonal = matches!(gate, Gate::Zz(..) | Gate::Cz(..));
    let (mut bits, mut nb) = ([0usize; 2], 0);
    for &q in qs[..k].iter().filter(|&&q| q >= chunk_qubits) {
        if q - chunk_qubits >= id_bits {
            return None;
        }
        if !diagonal {
            bits[nb] = q - chunk_qubits;
            nb += 1;
        }
    }
    Some((bits, nb))
}

/// One stage of a gate list: a maximal run of consecutive gates whose
/// gather bits ([`gather_bits`]) cover at most two chunk-id bits in total.
/// Every group of the stage is decoded once, gets all of the stage's
/// gates, and is stored once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Stage {
    /// The stage is `gates[start..end]` of the list it was cut from.
    pub start: usize,
    pub end: usize,
    /// The gathered chunk-id bits, in order of first use: bit `j` of a
    /// member's index in its group sets chunk-id bit `bits[j]`.
    pub bits: [usize; 2],
    /// How many of `bits` are in use (0, 1 or 2).
    pub nh: usize,
}

/// The stages of `gates` and each stage's chunk groups, in apply order —
/// the single enumerator behind both the stage loop
/// ([`CompressedState::run_scheduled`], [`CompressedState::apply`]) and the
/// prefetch schedule ([`spill::touch_schedule`]), so the prefetcher follows
/// the apply loop by construction.
///
/// Stages are cut greedily: a gate joins the current stage unless its
/// gather bits would take the stage past two. A group holds the `2^nh`
/// chunks that differ only in the stage's gathered bits; groups come by
/// ascending base id (those bits zero), and the first `2^nh` ids of an item
/// are its members. A stage with no gathered bit makes every chunk its own
/// one-member group, in id order. The first gate with a qubit outside the
/// register of `n_chunks` chunks of `2^chunk_qubits` amplitudes is
/// returned as the error, before anything is enumerated.
pub(crate) fn chunk_groups(
    gates: &[Gate],
    chunk_qubits: usize,
    n_chunks: usize,
) -> Result<impl Iterator<Item = (Stage, impl Iterator<Item = [usize; 4]>)> + '_, &Gate> {
    let id_bits = n_chunks.trailing_zeros() as usize;
    if let Some(outside) = gates
        .iter()
        .find(|g| gather_bits(g, chunk_qubits, id_bits).is_none())
    {
        return Err(outside);
    }
    let mut start = 0;
    let stages = std::iter::from_fn(move || {
        if start == gates.len() {
            return None;
        }
        let mut stage = Stage {
            start,
            end: start,
            bits: [0; 2],
            nh: 0,
        };
        'gates: for gate in &gates[start..] {
            let (bits, nb) = gather_bits(gate, chunk_qubits, id_bits)?;
            let mut grown = stage;
            for &b in &bits[..nb] {
                if !grown.bits[..grown.nh].contains(&b) {
                    if grown.nh == 2 {
                        break 'gates;
                    }
                    grown.bits[grown.nh] = b;
                    grown.nh += 1;
                }
            }
            stage = Stage {
                end: stage.end + 1,
                ..grown
            };
        }
        start = stage.end;
        Some(stage)
    });
    Ok(stages.map(move |stage| {
        let (bits, nh) = (stage.bits, stage.nh);
        let member =
            move |base: usize, m: usize| base | ((m & 1) << bits[0]) | ((m >> 1) << bits[1]);
        let mask: usize = bits[..nh].iter().map(|&b| 1 << b).sum();
        let groups = (0..n_chunks)
            .filter(move |base| base & mask == 0)
            .map(move |base| [0, 1, 2, 3].map(|m| member(base, m)));
        (stage, groups)
    }))
}

/// Applies a stage's `gates` to one group buffer: the group's chunks of
/// `2^c` amplitudes, member `m` at offset `m << c`, where bit `j` of `m`
/// is chunk-id bit `bits[j]` and every other chunk-id bit is `base`'s.
/// Low and gathered qubits map onto buffer qubits for the dense kernel; a
/// `Zz`/`Cz` qubit among the other chunk-id bits is constant over the
/// buffer, read from `base`.
fn apply_stage_gates(buf: &mut [Complex64], c: usize, bits: &[usize], base: usize, gates: &[Gate]) {
    let place = |q: usize| match q.checked_sub(c) {
        None => Ok(q),
        Some(b) => match bits.iter().position(|&x| x == b) {
            Some(j) => Ok(c + j),
            None => Err((base >> b) & 1 == 1),
        },
    };
    for gate in gates {
        let (qs, k) = gate.qubits_array();
        if qs[..k].iter().all(|&q| place(q).is_ok()) {
            let remapped = gate.map_qubits(|q| place(q).unwrap_or(q));
            apply_gate_to_amplitudes(buf, c + bits.len(), &remapped);
        } else {
            apply_diagonal_2q(buf, place(qs[0]), place(qs[1]), &gate.matrix_array().0);
        }
    }
}

/// A statevector whose chunks are stored compressed.
pub struct CompressedState<'a> {
    n: usize,
    chunk_qubits: usize,
    chunks: Vec<Vec<u8>>,
    compressor: &'a dyn Compressor,
    bound: ErrorBound,
    stream: Stream,
    /// Resident-bytes level: locally exact per run, mirrored into the
    /// `state.resident_bytes` registry gauge when telemetry is enabled.
    /// Tracks the *compressed* bytes held in `chunks`.
    resident: GaugeTrack,
    /// Reused interleaved-f64 scratch for chunk (de)compression.
    flat: Vec<f64>,
    /// Reused group buffer: a stage decodes each group into it.
    group_buf: Vec<Complex64>,
    /// Per-chunk error-budget accounting (see [`crate::ledger`]).
    ledger: ErrorLedger,
    /// Measure actual max-abs-error at each lossy write-back
    /// (`QCF_LEDGER_MEASURE`): a decode per requant, so off by default.
    measure_err: bool,
    /// Squared amplitude norm of each chunk at its last write-back — the
    /// loss estimate recorded when a chunk has to be quarantined.
    chunk_norm: Vec<f64>,
    /// Cached `state.*` registry handles.
    counters: StateCounters,
    /// The disk tier (inert until the first spill).
    spill_tier: SpillTier,
    /// Compressed-RAM budget in bytes (`QCF_MEM_BUDGET`); `None` means
    /// unbounded — the disk tier is never used.
    mem_budget: Option<usize>,
    /// Active prefetch pipeline during a scheduled run.
    prefetch: Option<PrefetchCtl>,
    /// Last-touch stamp per chunk — spill coldness.
    touch_stamp: Vec<u64>,
    touch_tick: u64,
    /// Gates applied by this process; beside [`StateStats`], whose fields
    /// callers build as literals (see [`gates_applied`](Self::gates_applied)).
    gates_applied: u64,
    /// Run accounting.
    pub stats: StateStats,
    /// Fault and recovery accounting (see [`FaultStats`]).
    pub faults: FaultStats,
}

impl<'a> CompressedState<'a> {
    /// `|0…0⟩` over `n` qubits with `2^chunk_qubits`-amplitude chunks.
    ///
    /// # Panics
    /// Panics when `chunk_qubits > n` or `n > 26`.
    pub fn zero(
        n: usize,
        chunk_qubits: usize,
        compressor: &'a dyn Compressor,
        bound: ErrorBound,
    ) -> Result<Self, ContractError> {
        assert!(chunk_qubits <= n, "chunk cannot exceed the register");
        assert!(n <= 26, "compressed state limited to 26 qubits in-process");
        let n_chunks = 1usize << (n - chunk_qubits);
        let mut state = CompressedState::assemble(
            n,
            chunk_qubits,
            compressor,
            bound,
            Vec::with_capacity(n_chunks),
            vec![0.0; n_chunks],
            ErrorLedger::new(n_chunks),
        );
        let chunk_len = 1usize << chunk_qubits;
        for chunk_id in 0..n_chunks {
            let mut amps = vec![Complex64::ZERO; chunk_len];
            if chunk_id == 0 {
                amps[0] = Complex64::ONE;
            }
            let mut bytes = Vec::new();
            state.encode_with_retry(as_interleaved(&amps), &mut bytes)?;
            journal::record(chunk_id as u64, EventKind::Zero, bytes.len() as f64);
            let abs_bound = state.lossy_abs_bound(&amps);
            state.ledger.record_initial(chunk_id, abs_bound);
            state.chunk_norm[chunk_id] = amps.iter().map(|a| a.norm_sq()).sum();
            state.resident.add(bytes.len() as i64);
            state.chunks.push(bytes);
        }
        state.sync_resident_stats();
        state.enforce_budget();
        Ok(state)
    }

    /// The one constructor behind [`zero`](Self::zero) and
    /// [`resume`](Self::resume): wraps chunk frames, norms and ledger in
    /// a fresh (inert) spill tier, the env-configured
    /// knobs and the registry handles, with zeroed run and fault tallies.
    fn assemble(
        n: usize,
        chunk_qubits: usize,
        compressor: &'a dyn Compressor,
        bound: ErrorBound,
        chunks: Vec<Vec<u8>>,
        chunk_norm: Vec<f64>,
        ledger: ErrorLedger,
    ) -> Self {
        let n_chunks = 1usize << (n - chunk_qubits);
        let config = qcf_telemetry::config::config();
        CompressedState {
            n,
            chunk_qubits,
            chunks,
            compressor,
            bound,
            stream: Stream::new(DeviceSpec::a100()),
            resident: qcf_telemetry::registry()
                .gauge("state.resident_bytes")
                .track(),
            flat: Vec::new(),
            group_buf: Vec::new(),
            ledger,
            measure_err: config.ledger_measure,
            chunk_norm,
            counters: StateCounters::new(),
            spill_tier: SpillTier::new(n_chunks),
            mem_budget: config.mem_budget,
            prefetch: None,
            touch_stamp: vec![0; n_chunks],
            touch_tick: 0,
            gates_applied: 0,
            stats: StateStats::default(),
            faults: FaultStats::default(),
        }
    }

    /// Copies the tracker's level/peak into the public stats struct.
    fn sync_resident_stats(&mut self) {
        self.stats.resident_bytes = self.resident.value() as usize;
        self.stats.peak_resident_bytes = self.resident.peak() as usize;
        self.stats.spilled_bytes = self.spill_tier.live_bytes() as usize;
        self.counters
            .spill_dead_bytes
            .set(self.spill_tier.dead_bytes() as i64);
    }

    /// The configured compressed-RAM budget in bytes (`None` = unbounded).
    pub fn mem_budget(&self) -> Option<usize> {
        self.mem_budget
    }

    /// Sets the compressed-RAM budget and immediately re-tiers to honor
    /// it: with `Some(0)` every compressed frame moves to disk. `None`
    /// stops future spills (already-spilled frames fetch back lazily on
    /// their next touch).
    pub fn set_mem_budget(&mut self, budget: Option<usize>) {
        self.mem_budget = budget;
        self.enforce_budget();
    }

    /// Overrides the simulated per-read disk latency
    /// (`QCF_SPILL_LATENCY_US`) — lets tests and demos model a slow
    /// device deterministically.
    pub fn set_spill_latency_us(&mut self, us: u64) {
        self.spill_tier.latency_us = us;
    }

    /// Current distribution of the state across the three storage tiers.
    pub fn tier_breakdown(&self) -> TierBreakdown {
        TierBreakdown {
            ram_compressed_bytes: self.resident.value() as usize,
            spilled_bytes: self.spill_tier.live_bytes() as usize,
            spilled_chunks: self.spill_tier.spilled_chunks(),
            spill_file_bytes: self.spill_tier.file_bytes() as usize,
        }
    }

    /// Spills coldest-first until compressed-in-RAM bytes fit the
    /// budget.
    fn enforce_budget(&mut self) {
        let Some(budget) = self.mem_budget else {
            return;
        };
        if self.spill_tier.disabled {
            return;
        }
        while (self.resident.value() as usize) > budget {
            let victim = (0..self.chunks.len())
                .filter(|&id| !self.chunks[id].is_empty() && self.spill_tier.entry(id).is_none())
                .min_by_key(|&id| self.touch_stamp[id]);
            let Some(id) = victim else {
                break;
            };
            if !self.spill_chunk(id) {
                break;
            }
        }
    }

    /// Moves chunk `id`'s compressed frame from RAM to the disk tier.
    /// Returns `false` (and disables the tier) on an I/O failure — the
    /// frame stays in RAM and the simulation degrades to unbounded.
    fn spill_chunk(&mut self, id: usize) -> bool {
        let bytes = std::mem::take(&mut self.chunks[id]);
        // Chaos site: flip one bit in the *on-disk* record only; the RAM
        // copy is dropped, so the corruption lives purely in the disk
        // tier and must be caught by the frame checksum at fetch time.
        // Byte 0 is skipped for the same reason as `state.chunk.bitflip`:
        // clearing the frame-flag bit would fake a legacy-v1 stream, an
        // undetectable fault outside the model.
        let mut flipped;
        let disk: &[u8] = if bytes.len() > 1 {
            if let Some(payload) = qcf_telemetry::faults::inject("state.spill.bitflip") {
                flipped = bytes.clone();
                let bit = 8 + (payload as usize) % ((flipped.len() - 1) * 8);
                flipped[bit / 8] ^= 1 << (bit % 8);
                &flipped
            } else {
                &bytes
            }
        } else {
            &bytes
        };
        match self.spill_tier.append(id, disk) {
            Ok(entry) => {
                self.resident.add(-(bytes.len() as i64));
                self.stats.spills += 1;
                self.counters.spill_writes.inc();
                self.counters.spill_bytes.add(bytes.len() as u64);
                self.counters.spill_live_bytes.add(i64::from(entry.len));
                journal::record(id as u64, EventKind::Spill, bytes.len() as f64);
                self.sync_resident_stats();
                self.maybe_compact();
                true
            }
            Err(e) => {
                eprintln!("warning: disk spill tier disabled after I/O error: {e}");
                self.spill_tier.disabled = true;
                self.chunks[id] = bytes;
                false
            }
        }
    }

    /// If chunk `id` lives on the disk tier, brings its frame back into
    /// RAM: a prefetched payload is claimed first (*hit* — even when we
    /// wait on an in-flight read, so hit/miss counts depend only on the
    /// deterministic issue/consume schedule, never on timing); otherwise
    /// the frame is read synchronously (*miss*). Either way the bytes
    /// land in `chunks[id]` before any decode, so the recovery chain
    /// treats disk corruption exactly like RAM corruption. Returns the
    /// amplitudes when a prefetch worker already decoded the frame, so the
    /// caller skips its own codec call.
    fn fetch_if_spilled(&mut self, id: usize) -> Option<Vec<Complex64>> {
        let entry = self.spill_tier.entry(id)?;
        let t0 = Instant::now();
        let claimed = match &self.prefetch {
            Some(ctl) => ctl.shared.consume(id, entry.gen),
            None => Consume::Miss,
        };
        let mut decoded = None;
        let (bytes, hit) = match claimed {
            Consume::Ready(FramePayload::Decoded { bytes, amps }) => {
                decoded = Some(amps);
                (bytes, true)
            }
            Consume::Ready(FramePayload::Bytes(b)) => (b, true),
            Consume::Ready(FramePayload::Failed) | Consume::Miss => {
                // Synchronous fallback. A failed read leaves empty bytes:
                // the decode below fails and the chunk goes through
                // retry → quarantine with exact accounting.
                (self.spill_tier.read(entry).unwrap_or_default(), false)
            }
        };
        let stall = t0.elapsed().as_micros() as u64;
        self.stats.prefetch_stall_us += stall;
        self.counters.stall_us.add(stall);
        if hit {
            self.stats.prefetch_hits += 1;
            self.counters.prefetch_hits.inc();
        } else {
            self.stats.prefetch_misses += 1;
            self.counters.prefetch_misses.inc();
        }
        self.spill_tier.invalidate(id);
        self.counters.spill_live_bytes.add(-i64::from(entry.len));
        self.stats.fetches += 1;
        self.counters.spill_reads.inc();
        journal::record(id as u64, EventKind::Fetch, bytes.len() as f64);
        self.resident.add(bytes.len() as i64);
        self.chunks[id] = bytes;
        self.sync_resident_stats();
        decoded
    }

    /// Bumps chunk `id`'s last-touch stamp and, during a scheduled run,
    /// advances the prefetcher and tops up its lookahead window with
    /// upcoming spilled chunks.
    fn note_touch(&mut self, id: usize) {
        self.touch_tick += 1;
        self.touch_stamp[id] = self.touch_tick;
        let Some(mut ctl) = self.prefetch.take() else {
            return;
        };
        ctl.advance(id);
        let horizon = (ctl.pos + spill::PREFETCH_LOOKAHEAD).min(ctl.schedule.len());
        let mut slots = spill::PREFETCH_WINDOW.saturating_sub(ctl.shared.tracked());
        for &next in &ctl.schedule[ctl.pos..horizon] {
            if slots == 0 {
                break;
            }
            if let Some(entry) = self.spill_tier.entry(next) {
                if !ctl.shared.is_tracked(next) {
                    ctl.shared.request(PrefetchRequest {
                        id: next,
                        offset: entry.offset,
                        len: entry.len,
                        gen: entry.gen,
                    });
                    slots -= 1;
                }
            }
        }
        self.prefetch = Some(ctl);
    }

    /// Applies `gates` stage by stage ([`chunk_groups`]): each stage decodes
    /// and stores every chunk it touches once, however many gates it
    /// holds. Bit-identical to the dense reference under a lossless codec;
    /// under a lossy one each chunk is requantized at most once per stage
    /// instead of once per gate.
    ///
    /// With `prefetch` and a memory budget set, the async prefetch
    /// pipeline is armed: the upcoming chunk-touch schedule comes from the
    /// same `chunk_groups` enumerator the stage loop walks, and two I/O
    /// worker threads read + decode spilled frames ahead of use so disk
    /// latency overlaps gate compute. Prefetch only changes *when* frames
    /// are read, never what is computed. Without a budget (or with
    /// `prefetch` false: the synchronous-fetch-on-miss baseline) the stages
    /// run on the calling thread alone.
    pub fn run_scheduled(&mut self, gates: &[Gate], prefetch: bool) -> Result<(), ContractError> {
        let use_prefetch = prefetch
            && self.mem_budget.is_some()
            && !self.spill_tier.disabled
            && self.spill_tier.ensure_file().is_ok();
        if !use_prefetch {
            return self.run_stages(gates);
        }
        let schedule = spill::touch_schedule(gates, self.chunk_qubits, self.chunks.len());
        let shared = Arc::new(spill::PrefetchShared::new());
        let path = self.spill_tier.path().to_path_buf();
        let compressor = self.compressor;
        let chunk_len = self.chunk_len();
        let latency_us = self.spill_tier.latency_us;
        self.prefetch = Some(PrefetchCtl {
            shared: Arc::clone(&shared),
            schedule,
            pos: 0,
        });
        // The I/O workers block on disk, so they are dedicated threads
        // rather than executor pool work.
        let res = std::thread::scope(|s| {
            for _ in 0..spill::PREFETCH_WORKERS {
                let shared = Arc::clone(&shared);
                let path = path.clone();
                s.spawn(move || {
                    spill::prefetch_worker(&shared, &path, compressor, chunk_len, latency_us)
                });
                gpu_model::exec::count_thread_spawn();
            }
            let res = self.run_stages(gates);
            shared.shutdown();
            res
        });
        self.prefetch = None;
        // The pipeline blocks compaction for the whole run (workers hold
        // the pre-compaction file handle and offsets); settle the churn
        // it accumulated now that they are gone.
        self.maybe_compact();
        res
    }

    /// Compacts the spill log when the dead-space policy says a rewrite
    /// pays for itself ([`SpillTier::should_compact`]). A no-op while the
    /// prefetch pipeline is armed: its workers read via pre-compaction
    /// offsets on the old file handle. Failures leave the log as it was
    /// (the rewrite goes to a temp file first) and only warn.
    fn maybe_compact(&mut self) {
        if self.prefetch.is_some() || !self.spill_tier.should_compact() {
            return;
        }
        if let Err(e) = self.compact_now() {
            eprintln!("warning: spill compaction failed (log left as-is): {e}");
        }
    }

    fn compact_now(&mut self) -> std::io::Result<u64> {
        let reclaimed = self.spill_tier.compact()?;
        if reclaimed > 0 {
            self.stats.compactions += 1;
            self.stats.spill_reclaimed_bytes += reclaimed;
            self.counters.compactions.inc();
            for id in 0..self.chunks.len() {
                if let Some(e) = self.spill_tier.entry(id) {
                    journal::record(
                        id as u64,
                        EventKind::Compact,
                        (e.len as usize + spill::RECORD_HEADER) as f64,
                    );
                }
            }
            self.sync_resident_stats();
        }
        Ok(reclaimed)
    }

    /// Gates this process applied to the state (a resumed state starts
    /// at 0, like [`StateStats`]). With `stats.decompressions` and
    /// `stats.recompressions` this gives the codec work per gate.
    pub fn gates_applied(&self) -> u64 {
        self.gates_applied
    }

    /// Register width.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Amplitudes per chunk.
    pub fn chunk_len(&self) -> usize {
        1usize << self.chunk_qubits
    }

    /// Bytes the dense state would need.
    pub fn dense_bytes(&self) -> usize {
        16usize << self.n
    }

    /// The resolved absolute bound a lossy encode of `amps` is allowed, or
    /// `None` for a lossless codec (same `Rel → Abs` resolution the
    /// error-bounded compressors apply internally).
    fn lossy_abs_bound(&self, amps: &[Complex64]) -> Option<f64> {
        if self.compressor.kind() != CompressorKind::ErrorBounded {
            return None;
        }
        let (min, max) = value_range(as_interleaved(amps));
        Some(self.bound.to_abs(max - min))
    }

    /// The per-chunk error-budget ledger.
    pub fn ledger(&self) -> &ErrorLedger {
        &self.ledger
    }

    /// Aggregate ledger view (requant counts, accumulated bounds).
    pub fn ledger_summary(&self) -> LedgerSummary {
        self.ledger.summary()
    }

    /// One guarded encode attempt of `data` into `bytes`. A worker panic
    /// inside the codec kernel is converted into a per-chunk error (and
    /// counted) instead of unwinding through the simulation.
    fn try_encode(&mut self, data: &[f64], bytes: &mut Vec<u8>) -> Result<(), ContractError> {
        let (compressor, bound, stream) = (self.compressor, self.bound, &self.stream);
        match panic::catch_unwind(AssertUnwindSafe(|| {
            compressor.compress_into(data, bound, stream, bytes)
        })) {
            Ok(r) => r.map_err(|e| ContractError::Hook(format!("chunk compress: {e}"))),
            Err(_) => {
                self.note_worker_panics(1);
                Err(ContractError::Hook("worker panic in chunk compress".into()))
            }
        }
    }

    /// [`try_encode`](Self::try_encode) with one bounded retry: a
    /// transient fault (a panicked worker) heals on the second attempt and
    /// is booked as `retries_ok`.
    fn encode_with_retry(
        &mut self,
        data: &[f64],
        bytes: &mut Vec<u8>,
    ) -> Result<(), ContractError> {
        if self.try_encode(data, bytes).is_ok() {
            return Ok(());
        }
        let res = self.try_encode(data, bytes);
        if res.is_ok() {
            self.faults.retries_ok += 1;
            self.counters.retries_ok.inc();
        }
        res
    }

    /// Books `n` worker panics that were converted into per-chunk failures.
    fn note_worker_panics(&mut self, n: u64) {
        if n > 0 {
            self.faults.worker_panics += n;
            self.counters.worker_panics.add(n);
        }
    }

    /// Books a quarantine of chunk `id`, whose last-known squared norm is
    /// lost to the zero-fill.
    fn record_quarantine_loss(&mut self, id: usize) {
        let lost = self.chunk_norm[id];
        self.faults.quarantines += 1;
        self.counters.quarantines.inc();
        self.faults.lost_norm_sq += lost;
        self.ledger.record_quarantine(id, lost);
        journal::record(id as u64, EventKind::Quarantine, lost);
    }

    /// Chunk `id`'s sealed frame for a `&self` reader: the RAM copy, or
    /// the disk-tier record read *in place* (counted in
    /// `state.spill.reads` but not unspilled — read-only scans and
    /// checkpoints must not mutate the tiers).
    fn frame(&self, id: usize) -> std::io::Result<Cow<'_, [u8]>> {
        match self.spill_tier.entry(id) {
            Some(entry) => {
                let bytes = self.spill_tier.read(entry)?;
                self.counters.spill_reads.inc();
                Ok(Cow::Owned(bytes))
            }
            None => Ok(Cow::Borrowed(&self.chunks[id])),
        }
    }

    /// Appends chunk `id`'s amplitudes to `amps` for a `&self` reader: its
    /// [`frame`](Self::frame) decoded through the `flat` scratch.
    fn read_chunk(
        &self,
        id: usize,
        flat: &mut Vec<f64>,
        amps: &mut Vec<Complex64>,
    ) -> Result<(), ContractError> {
        let frame = self
            .frame(id)
            .map_err(|e| ContractError::Hook(format!("spill read: {e}")))?;
        decode_chunk(
            self.compressor,
            &self.stream,
            self.chunk_len(),
            &frame,
            flat,
            amps,
        )
    }

    /// One guarded decode attempt of chunk `id`, appended to `amps`
    /// ([`decode_chunk`]). A worker panic inside the codec kernel is
    /// converted into a per-chunk error (and counted) instead of unwinding
    /// through the simulation.
    fn try_decode(&mut self, id: usize, amps: &mut Vec<Complex64>) -> Result<(), ContractError> {
        let chunk_len = self.chunk_len();
        let compressor = self.compressor;
        let stream = &self.stream;
        let bytes = &self.chunks[id];
        let flat = &mut self.flat;
        let t0 = lat_start();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            decode_chunk(compressor, stream, chunk_len, bytes, flat, amps)
        }));
        lat_end(&self.counters.decode_us, t0);
        match caught {
            Ok(r) => r,
            Err(_) => {
                self.note_worker_panics(1);
                Err(ContractError::Hook("worker panic in chunk decode".into()))
            }
        }
    }

    /// Decodes chunk `id` through the recovery policy chain (see
    /// [`FaultStats`]): decode → bounded retry → quarantine, appending its
    /// `chunk_len` amplitudes to `amps`. Returns `Ok(true)` when they are
    /// real data (clean or healed), `Ok(false)` when the chunk was
    /// quarantined (zeros appended); an error only when even the
    /// quarantine re-encode failed.
    fn decode_healed(
        &mut self,
        id: usize,
        amps: &mut Vec<Complex64>,
    ) -> Result<bool, ContractError> {
        let chunk_len = self.chunk_len() as f64;
        if let Some(decoded) = self.fetch_if_spilled(id) {
            // A prefetch worker already decoded the fetched frame (which
            // proves its integrity); skip the redundant main-thread
            // decode but keep the causal record identical.
            amps.extend_from_slice(&decoded);
            journal::record(id as u64, EventKind::Decode, chunk_len);
            return Ok(true);
        }
        if self.try_decode(id, amps).is_ok() {
            journal::record(id as u64, EventKind::Decode, chunk_len);
            return Ok(true);
        }
        self.faults.decode_errors += 1;
        self.counters.decode_errors.inc();
        journal::record(id as u64, EventKind::Fault, self.chunks[id].len() as f64);
        // 1. Bounded retry: transient faults (a panicked worker, an
        //    injected decode error) heal on a second attempt; persistent
        //    byte corruption does not.
        if self.try_decode(id, amps).is_ok() {
            self.faults.retries_ok += 1;
            self.counters.retries_ok.inc();
            // Heal detail 1: the bounded retry.
            journal::record(id as u64, EventKind::Heal, 1.0);
            return Ok(true);
        }
        // 2. Quarantine: zero-fill, re-encode the zeros over the poisoned
        //    bytes so later reads decode cleanly, account the lost norm,
        //    keep simulating.
        let start = amps.len();
        amps.resize(start + self.chunk_len(), Complex64::ZERO);
        self.record_quarantine_loss(id);
        self.write_back(id, &amps[start..])?;
        Ok(false)
    }

    /// No-op: the state is write-through and holds no chunk cache, so
    /// there is nothing to size or flush. Kept, always `Ok`, only for
    /// callers built against the cached API.
    pub fn set_cache_capacity(&mut self, _cap: usize) -> Result<(), ContractError> {
        Ok(())
    }

    /// Serializes the state into a durable snapshot at `path`, committed
    /// atomically (see [`crate::checkpoint`] for the format and commit
    /// protocol). `app_meta` is a caller-opaque blob returned verbatim by
    /// [`CompressedState::resume`] — `qcfz` stores the circuit recipe and
    /// gate progress there.
    ///
    /// The stored frames are the whole state (every stage writes its
    /// groups through), so they are the exact ground truth the resumed run
    /// re-reads — evolution after a resume is bit-identical to the
    /// uninterrupted run even under a lossy codec, because both sides
    /// continue from the same requantized bytes. Spilled frames are read
    /// from the disk tier in place; the tiers are not touched.
    ///
    /// Returns total bytes at the committed path.
    pub fn checkpoint(&self, path: &Path, app_meta: &[u8]) -> Result<u64, CkptError> {
        let n_chunks = self.chunks.len();
        let mut body = Vec::new();
        body.extend_from_slice(checkpoint::SNAP_MAGIC);
        checkpoint::put_u32(&mut body, self.n as u32);
        checkpoint::put_u32(&mut body, self.chunk_qubits as u32);
        checkpoint::put_u8(&mut body, self.compressor.id());
        let (kind, value) = match self.bound {
            ErrorBound::Abs(v) => (0u8, v),
            ErrorBound::Rel(v) => (1u8, v),
        };
        checkpoint::put_u8(&mut body, kind);
        checkpoint::put_f64(&mut body, value);
        checkpoint::put_u64(&mut body, self.ledger.lossy_events());
        checkpoint::put_u32(&mut body, n_chunks as u32);
        checkpoint::put_u32(&mut body, app_meta.len() as u32);
        body.extend_from_slice(app_meta);
        let mut frame_lens = Vec::with_capacity(n_chunks);
        for id in 0..n_chunks {
            let frame = self.frame(id).map_err(CkptError::Io)?;
            checkpoint::put_u32(&mut body, frame.len() as u32);
            body.extend_from_slice(&frame);
            checkpoint::put_f64(&mut body, self.chunk_norm[id]);
            let rec = &self.ledger.records()[id];
            checkpoint::put_u64(&mut body, rec.encodes);
            checkpoint::put_u64(&mut body, rec.requants);
            checkpoint::put_f64(&mut body, rec.accumulated_bound);
            checkpoint::put_f64(&mut body, rec.last_abs_bound);
            checkpoint::put_f64(&mut body, rec.max_measured_err);
            checkpoint::put_u8(&mut body, u8::from(rec.measured));
            checkpoint::put_u64(&mut body, rec.quarantines);
            frame_lens.push(frame.len());
        }
        checkpoint::put_u64(&mut body, self.faults.decode_errors);
        checkpoint::put_u64(&mut body, self.faults.retries_ok);
        // A retired slot (the old cache-repair count), written as 0 so the
        // snapshot layout is unchanged.
        checkpoint::put_u64(&mut body, 0);
        checkpoint::put_u64(&mut body, self.faults.quarantines);
        checkpoint::put_u64(&mut body, self.faults.worker_panics);
        checkpoint::put_f64(&mut body, self.faults.lost_norm_sq);
        let total = checkpoint::write_snapshot(path, &body)?;
        // Journal only after the commit: the causal record reflects what
        // is durably on disk, so a kill-point "crash" records nothing.
        for (id, len) in frame_lens.into_iter().enumerate() {
            journal::record(id as u64, EventKind::Checkpoint, len as f64);
        }
        self.counters.ckpt_writes.inc();
        self.counters.ckpt_bytes.add(total);
        Ok(total)
    }

    /// Reconstructs a state from a snapshot written by
    /// [`CompressedState::checkpoint`], returning it together with the
    /// caller's `app_meta` blob. The snapshot must have been written
    /// under the same codec (`compressor.id()` is checked against the
    /// stored stream id). Sealed frames, chunk norms, the error-budget
    /// ledger, and the fault tally are restored exactly; the spill tier
    /// and run stats start fresh (re-tiered immediately if
    /// `QCF_MEM_BUDGET` demands it). Registry counters are *not*
    /// back-filled — they count this process's events; the restored
    /// [`FaultStats`]/ledger carry the run's cumulative history.
    pub fn resume(
        path: &Path,
        compressor: &'a dyn Compressor,
    ) -> Result<(Self, Vec<u8>), CkptError> {
        let body = checkpoint::read_snapshot(path)?;
        let mut r = checkpoint::Reader::new(&body);
        if r.take(checkpoint::SNAP_MAGIC.len())? != checkpoint::SNAP_MAGIC {
            return Err(CkptError::Corrupt("bad snapshot magic".into()));
        }
        let n = r.u32()? as usize;
        let chunk_qubits = r.u32()? as usize;
        if n > 26 || chunk_qubits > n {
            return Err(CkptError::Corrupt(format!(
                "implausible geometry: n={n}, chunk_qubits={chunk_qubits}"
            )));
        }
        let stored_id = r.u8()?;
        if stored_id != compressor.id() {
            return Err(CkptError::Corrupt(format!(
                "snapshot written by compressor id {stored_id}, resume offered \"{}\" (id {})",
                compressor.name(),
                compressor.id()
            )));
        }
        let bound = match r.u8()? {
            0 => ErrorBound::Abs(r.f64()?),
            1 => ErrorBound::Rel(r.f64()?),
            k => return Err(CkptError::Corrupt(format!("unknown bound kind {k}"))),
        };
        let lossy_events = r.u64()?;
        let n_chunks = 1usize << (n - chunk_qubits);
        let stored_chunks = r.u32()? as usize;
        if stored_chunks != n_chunks {
            return Err(CkptError::Corrupt(format!(
                "chunk count {stored_chunks} does not match geometry ({n_chunks})"
            )));
        }
        let meta_len = r.u32()? as usize;
        let app_meta = r.take(meta_len)?.to_vec();
        // The header's chunk count is untrusted: refuse it before reserving
        // anything unless the body can hold that many records (each at
        // least a frame length u32, a norm f64 and the seven ledger fields)
        // plus the six-field fault tally.
        const MIN_CHUNK_RECORD: usize = 4 + 8 + (6 * 8 + 1);
        const FAULT_TAIL: usize = 6 * 8;
        if n_chunks.saturating_mul(MIN_CHUNK_RECORD) + FAULT_TAIL > r.remaining() {
            return Err(CkptError::Corrupt(format!(
                "{n_chunks} chunk records cannot fit in the {} body bytes left",
                r.remaining()
            )));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut chunk_norm = Vec::with_capacity(n_chunks);
        let mut records = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            let frame_len = r.u32()? as usize;
            chunks.push(r.take(frame_len)?.to_vec());
            chunk_norm.push(r.f64()?);
            records.push(ChunkRecord {
                encodes: r.u64()?,
                requants: r.u64()?,
                accumulated_bound: r.f64()?,
                last_abs_bound: r.f64()?,
                max_measured_err: r.f64()?,
                measured: r.u8()? != 0,
                quarantines: r.u64()?,
            });
        }
        let decode_errors = r.u64()?;
        let retries_ok = r.u64()?;
        r.u64()?; // the retired cache-repair slot
        let faults = FaultStats {
            decode_errors,
            retries_ok,
            quarantines: r.u64()?,
            worker_panics: r.u64()?,
            lost_norm_sq: r.f64()?,
        };
        if r.remaining() != 0 {
            return Err(CkptError::Corrupt(format!(
                "{} trailing bytes after a complete parse",
                r.remaining()
            )));
        }
        let mut state = CompressedState::assemble(
            n,
            chunk_qubits,
            compressor,
            bound,
            chunks,
            chunk_norm,
            ErrorLedger::restore(records, lossy_events),
        );
        state.faults = faults;
        for id in 0..state.chunks.len() {
            let len = state.chunks[id].len();
            state.resident.add(len as i64);
            journal::record(id as u64, EventKind::Checkpoint, len as f64);
        }
        state.sync_resident_stats();
        state.enforce_budget();
        state.counters.ckpt_restores.inc();
        Ok((state, app_meta))
    }

    /// Applies one gate: a one-gate stage. A gate acting on a qubit outside
    /// the register is an error, refused before any chunk is touched.
    pub fn apply(&mut self, gate: &Gate) -> Result<(), ContractError> {
        self.run_stages(std::slice::from_ref(gate))
    }

    /// Applies `gates` stage by stage ([`chunk_groups`]). A gate list with
    /// any gate outside the register is refused before any chunk is
    /// touched.
    fn run_stages(&mut self, gates: &[Gate]) -> Result<(), ContractError> {
        let stages = chunk_groups(gates, self.chunk_qubits, self.chunks.len()).map_err(|gate| {
            ContractError::Hook(format!(
                "gate {gate:?} acts outside the {}-qubit register",
                self.n
            ))
        })?;
        for (stage, groups) in stages {
            let stage_gates = &gates[stage.start..stage.end];
            // The codec stream's kernel-event log is never read here;
            // clearing it once per stage keeps it from growing for the
            // state's whole life.
            self.stream.reset();
            let t0 = lat_start();
            let res = self.apply_stage(stage_gates, &stage.bits[..stage.nh], groups);
            lat_end(&self.counters.apply_us, t0);
            res?;
            self.gates_applied += stage_gates.len() as u64;
        }
        Ok(())
    }

    /// One stage with gathered chunk-id `bits` (possibly none): each
    /// group's `2^|bits|` chunks are decoded once, straight into the group
    /// buffer, take all of the stage's gates, and are each encoded back
    /// from the buffer once ([`write_back`](Self::write_back)).
    fn apply_stage(
        &mut self,
        gates: &[Gate],
        bits: &[usize],
        groups: impl Iterator<Item = [usize; 4]>,
    ) -> Result<(), ContractError> {
        let c = self.chunk_qubits;
        let chunk_len = self.chunk_len();
        let mut buffer = std::mem::take(&mut self.group_buf);
        for ids in groups {
            let members = &ids[..1 << bits.len()];
            buffer.clear();
            buffer.reserve(chunk_len << bits.len());
            let res = (|| {
                for &id in members {
                    self.note_touch(id);
                    self.decode_healed(id, &mut buffer)?;
                    self.stats.decompressions += 1;
                }
                let gate_ok = panic::catch_unwind(AssertUnwindSafe(|| {
                    apply_stage_gates(&mut buffer, c, bits, ids[0], gates);
                }))
                .is_ok();
                if gate_ok {
                    // The stage mixed these chunks' amplitudes; redistribute
                    // their accumulated error accordingly (energy-preserving).
                    // A one-member group mixes nothing.
                    if members.len() > 1 {
                        self.ledger.mix(members);
                    }
                } else {
                    // A worker panicked mid-stage: the whole group buffer is
                    // garbage. Quarantine every member and store zeros.
                    self.note_worker_panics(1);
                    buffer.iter_mut().for_each(|a| *a = Complex64::ZERO);
                    for &id in members {
                        self.record_quarantine_loss(id);
                    }
                }
                for (m, &id) in members.iter().enumerate() {
                    self.write_back(id, &buffer[m * chunk_len..(m + 1) * chunk_len])?;
                }
                Ok(())
            })();
            if res.is_err() {
                self.group_buf = buffer;
                return res;
            }
        }
        self.group_buf = buffer;
        Ok(())
    }

    /// Recompresses `amps` into chunk `id`'s byte buffer (capacity reused),
    /// keeping resident-bytes accounting exact. Every call is one ledger
    /// event; under a lossy codec it is one *requantization*.
    ///
    /// The encode itself is guarded: a worker panic or codec error gets one
    /// retry, and if that also fails the chunk is quarantined (a zero
    /// chunk is encoded in its place) rather than failing the run.
    fn write_back(&mut self, id: usize, amps: &[Complex64]) -> Result<(), ContractError> {
        // Fresh bytes supersede any on-disk record of this chunk.
        if let Some(old) = self.spill_tier.invalidate(id) {
            self.counters.spill_live_bytes.add(-i64::from(old.len));
        }
        let mut bytes = std::mem::take(&mut self.chunks[id]);
        let old_len = bytes.len();
        let t0 = lat_start();
        let mut res = self.encode_with_retry(as_interleaved(amps), &mut bytes);
        // Recovery exhausted: encode a zero chunk in place of the
        // unencodable one (a single attempt) so the stored state stays
        // decodable.
        let quarantined = res.is_err()
            && self
                .try_encode(&vec![0.0; amps.len() * 2], &mut bytes)
                .is_ok();
        lat_end(&self.counters.encode_us, t0);
        if quarantined {
            res = Ok(());
            self.record_quarantine_loss(id);
        }
        self.stats.recompressions += 1;
        let abs_bound = self.lossy_abs_bound(amps);
        if res.is_ok() {
            journal::record(id as u64, EventKind::Encode, bytes.len() as f64);
        }
        if let Some(eps) = abs_bound {
            // Mirrors `ledger.record_requant` below exactly (which counts
            // every lossy write-back, successful or not), so the journal's
            // requant count always matches the ledger's.
            journal::record(id as u64, EventKind::WritebackRequant, eps);
        }
        // Lossless reconstruction is exact by contract: measured error 0
        // for free. Lossy error is measured (a decode of the fresh bytes,
        // pure metrology — not counted in the data-path stats) only under
        // QCF_LEDGER_MEASURE.
        let measured = match abs_bound {
            None => Some(0.0),
            Some(_) if self.measure_err && res.is_ok() => self
                .compressor
                .decompress_into(&bytes, &self.stream, &mut self.flat)
                .ok()
                .map(|()| {
                    as_interleaved(amps)
                        .iter()
                        .zip(self.flat.iter())
                        .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
                }),
            Some(_) => None,
        };
        self.ledger.record_requant(id, abs_bound, measured);
        // Chaos site: corrupt one stored bit after a successful write-back.
        // Byte 0 is skipped — clearing the frame-flag bit there would turn
        // the stream into a legacy-v1 lookalike that decodes to garbage
        // instead of failing its checksum, i.e. an *undetectable* fault,
        // which is not the fault model (storage bit rot under an integrity
        // frame is always detectable).
        if res.is_ok() && bytes.len() > 1 {
            if let Some(payload) = qcf_telemetry::faults::inject("state.chunk.bitflip") {
                let bit = 8 + (payload as usize) % ((bytes.len() - 1) * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        self.chunk_norm[id] = if quarantined {
            0.0
        } else {
            amps.iter().map(|a| a.norm_sq()).sum()
        };
        self.resident.add(bytes.len() as i64 - old_len as i64);
        self.chunks[id] = bytes;
        self.sync_resident_stats();
        self.enforce_budget();
        res
    }

    /// Runs a whole circuit from `|0…0⟩`, stage by stage.
    pub fn run(
        circuit: &Circuit,
        chunk_qubits: usize,
        compressor: &'a dyn Compressor,
        bound: ErrorBound,
    ) -> Result<Self, ContractError> {
        let mut state = CompressedState::zero(circuit.n_qubits(), chunk_qubits, compressor, bound)?;
        state.run_stages(circuit.gates())?;
        Ok(state)
    }

    /// Materializes the dense state (testing / small n).
    pub fn to_statevector(&self) -> Result<StateVector, ContractError> {
        let mut amps = Vec::with_capacity(1usize << self.n);
        let mut flat = Vec::new();
        for id in 0..self.chunks.len() {
            self.read_chunk(id, &mut flat, &mut amps)?;
        }
        StateVector::from_amplitudes(self.n, amps).map_err(|e| ContractError::Hook(e.to_string()))
    }

    /// MaxCut energy computed chunk by chunk in one pass (never
    /// materializes the state): each chunk is read once and adds into
    /// every edge's `⟨Z_a Z_b⟩` sum. Each edge still sums its terms in
    /// global index order, so the energy is bit-identical to
    /// [`StateVector::maxcut_energy`] on the same amplitudes.
    pub fn maxcut_energy(&self, graph: &Graph) -> Result<f64, ContractError> {
        let chunk_len = self.chunk_len();
        let edges = graph.edges();
        let mut zz = vec![0.0; edges.len()];
        let (mut flat, mut buf, mut probs) = (Vec::new(), Vec::new(), Vec::new());
        for chunk_id in 0..self.chunks.len() {
            buf.clear();
            self.read_chunk(chunk_id, &mut flat, &mut buf)?;
            probs.clear();
            probs.extend(buf.iter().map(|a| a.norm_sq()));
            let base = chunk_id * chunk_len;
            for (&(a, b), zz) in edges.iter().zip(&mut zz) {
                let (ma, mb) = (1usize << a, 1usize << b);
                for (i, &p) in probs.iter().enumerate() {
                    let g = base + i;
                    let sign = if ((g & ma != 0) as u8) ^ ((g & mb != 0) as u8) == 1 {
                        -1.0
                    } else {
                        1.0
                    };
                    *zz += sign * p;
                }
            }
        }
        let mut energy = 0.0;
        for zz in zz {
            energy += 0.5 * (1.0 - zz);
        }
        Ok(energy)
    }

    /// True when any chunk has been quarantined: amplitudes were lost and
    /// the state is degraded (norm < 1, with the loss accounted in the
    /// ledger and [`FaultStats::lost_norm_sq`]).
    pub fn degraded(&self) -> bool {
        self.faults.quarantines > 0
    }

    /// Scrubs the whole state end-to-end: every chunk is decoded — which
    /// verifies its integrity-frame checksum — through the recovery policy
    /// chain, and each chunk's ledger record is checked for a measured
    /// error exceeding its accumulated bound. Detected corruption is healed
    /// or quarantined *in place*, so a second `verify()` right after a
    /// non-clean one reports all-clean. Spilled chunks are fetched and
    /// verified through the identical chain — the scrub covers the disk
    /// tier for free — then re-tiered to the budget afterwards.
    pub fn verify(&mut self) -> Result<VerifyReport, ContractError> {
        let mut report = VerifyReport {
            chunks: self.chunks.len(),
            ..VerifyReport::default()
        };
        let mut amps = std::mem::take(&mut self.group_buf);
        for id in 0..self.chunks.len() {
            let errors_before = self.faults.decode_errors;
            amps.clear();
            match self.decode_healed(id, &mut amps) {
                Ok(true) if self.faults.decode_errors == errors_before => report.clean += 1,
                Ok(true) => report.healed += 1,
                Ok(false) => report.quarantined += 1,
                Err(e) => {
                    self.group_buf = amps;
                    return Err(e);
                }
            }
        }
        self.group_buf = amps;
        for id in 0..self.ledger.n_chunks() {
            let rec = self.ledger.chunk(id);
            let cap = rec.accumulated_bound.max(rec.last_abs_bound);
            if rec.measured && rec.max_measured_err > cap * (1.0 + 1e-9) {
                report.ledger_breaches += 1;
            }
        }
        // The scrub fetched every spilled chunk into RAM; restore the
        // configured tiering.
        self.enforce_budget();
        Ok(report)
    }

    /// Squared norm (drifts from 1 with the bound; a fidelity proxy).
    pub fn norm_sq(&self) -> Result<f64, ContractError> {
        let mut s = 0.0;
        let (mut flat, mut buf) = (Vec::new(), Vec::new());
        for id in 0..self.chunks.len() {
            buf.clear();
            self.read_chunk(id, &mut flat, &mut buf)?;
            s += buf.iter().map(|a| a.norm_sq()).sum::<f64>();
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compressors::dummy::Memcpy;
    use qcircuit::{qaoa_circuit, QaoaParams};

    fn qaoa(n: usize, seed: u64) -> (Circuit, Graph) {
        let g = Graph::random_regular(n, 3, seed);
        let c = qaoa_circuit(&g, &QaoaParams::fixed_angles_3reg_p1());
        (c, g)
    }

    #[test]
    fn lossless_chunked_equals_dense() {
        let (circuit, graph) = qaoa(8, 3);
        let comp = Memcpy;
        for chunk_qubits in [2usize, 4, 8] {
            let cs =
                CompressedState::run(&circuit, chunk_qubits, &comp, ErrorBound::Abs(1e-3)).unwrap();
            let dense = StateVector::run(&circuit);
            let materialized = cs.to_statevector().unwrap();
            assert!(
                (materialized.fidelity(&dense) - 1.0).abs() < 1e-12,
                "chunk_qubits={chunk_qubits}"
            );
            assert!(
                (cs.maxcut_energy(&graph).unwrap() - dense.maxcut_energy(&graph)).abs() < 1e-10
            );
        }
    }

    #[test]
    fn kernel_event_log_does_not_grow_across_gates() {
        let comp = compressors::cuszx::CuSzx::default();
        let mut cs = CompressedState::zero(8, 4, &comp, ErrorBound::Abs(1e-6)).unwrap();
        // Every one-gate stage decodes and re-encodes all 16 chunks, so
        // each leaves the same work in the log — and only its own.
        let lens: Vec<usize> = (0..6)
            .map(|k| {
                cs.apply(&Gate::H(k % 4)).unwrap();
                cs.stream.events().len()
            })
            .collect();
        assert!(lens[0] > 0, "codec calls must reach the stream");
        assert!(lens.iter().all(|&l| l == lens[0]), "log grew: {lens:?}");
    }

    /// `(start, end, gathered bits)` of each stage of `gates`.
    fn stage_cuts(gates: &[Gate], c: usize, n_chunks: usize) -> Vec<(usize, usize, Vec<usize>)> {
        chunk_groups(gates, c, n_chunks)
            .unwrap()
            .map(|(st, _)| (st.start, st.end, st.bits[..st.nh].to_vec()))
            .collect()
    }

    #[test]
    fn stages_fuse_gates_until_a_third_gathered_bit() {
        // The sv-gates shape: 18 qubits in 64 chunks of 2^12. Only the H
        // and Rx gates on qubits 12..18 gather; the Zz layer never does.
        let (circuit, _) = qaoa(18, 7);
        let gates = circuit.gates();
        let (first, second) = gates.split_at(gates.len() / 2);
        assert_eq!(
            stage_cuts(first, 12, 64),
            [
                (0, 14, vec![0, 1]),
                (14, 16, vec![2, 3]),
                (16, 31, vec![4, 5])
            ]
        );
        assert_eq!(
            stage_cuts(second, 12, 64),
            [
                (0, 28, vec![0, 1]),
                (28, 30, vec![2, 3]),
                (30, 32, vec![4, 5])
            ]
        );
        assert_eq!(stage_cuts(gates, 12, 64).len(), 6);
        // Cz is as diagonal as Zz; Cnot and one-qubit diagonals gather.
        let g = [
            Gate::Cz(0, 3),
            Gate::Zz(4, 5, 0.2),
            Gate::T(3),
            Gate::Cnot(4, 0),
            Gate::H(5),
        ];
        assert_eq!(stage_cuts(&g, 3, 8), [(0, 4, vec![0, 1]), (4, 5, vec![2])]);
    }

    #[test]
    fn stages_decode_and_encode_each_chunk_once() {
        let (circuit, graph) = qaoa(10, 5);
        let comp = compressors::cuszx::CuSzx::default();
        let mut cs = CompressedState::zero(10, 4, &comp, ErrorBound::Abs(1e-7)).unwrap();
        cs.run_scheduled(circuit.gates(), false).unwrap();
        let stages = stage_cuts(circuit.gates(), 4, 64).len() as u64;
        assert_eq!(cs.gates_applied(), circuit.gates().len() as u64);
        assert!(stages * 4 < cs.gates_applied(), "{stages} stages");
        // Every stage decodes and re-encodes all 64 chunks once.
        assert_eq!(cs.stats.decompressions, 64 * stages);
        assert_eq!(cs.stats.recompressions, 64 * stages);
        assert_eq!(cs.ledger_summary().total_requants, 64 * stages);
        let dense = StateVector::run(&circuit);
        let f = cs.to_statevector().unwrap().fidelity_normalized(&dense);
        assert!(f > 0.999, "normalized fidelity {f}");
        let e = cs.maxcut_energy(&graph).unwrap();
        assert!((e - dense.maxcut_energy(&graph)).abs() / dense.maxcut_energy(&graph) < 1e-3);
    }

    #[test]
    fn apply_latency_buckets_resolve_the_slo_threshold() {
        use qcf_telemetry::metrics::{HistogramSnapshot, Snapshot};
        use qcf_telemetry::slo::{eval_window, SloSpec};
        use qcf_telemetry::timeseries::Sample;
        let spec = SloSpec::defaults();
        let p99 = spec
            .objectives
            .iter()
            .find(|o| o.name == "latency.apply_p99")
            .expect("default objective");
        // The report's whole-phase reading of `p99(state.apply_us)` over
        // these samples, bucketed exactly as the histogram buckets them.
        let judge = |samples_us: &[f64]| {
            let mut buckets: Vec<(f64, u64)> = LATENCY_BOUNDS_US
                .iter()
                .chain([f64::INFINITY].iter())
                .map(|&b| (b, 0))
                .collect();
            for &v in samples_us {
                buckets.iter_mut().find(|(b, _)| v <= *b).unwrap().1 += 1;
            }
            let mut last = Snapshot::default();
            last.histograms.insert(
                "state.apply_us".into(),
                HistogramSnapshot {
                    count: samples_us.len() as u64,
                    buckets,
                    ..HistogramSnapshot::default()
                },
            );
            let window = [
                Sample {
                    t_us: 0,
                    metrics: Snapshot::default(),
                },
                Sample {
                    t_us: 1,
                    metrics: last,
                },
            ];
            let v = eval_window(&p99.expr, &window)?;
            Some((v, p99.op.violated(v, p99.threshold)))
        };
        // 100 applies, two of them slow at 12 ms: the p99 lands on a slow
        // one, whose bucket must be finite and under the objective.
        let mut phase = vec![1_000.0; 98];
        phase.extend([12_000.0; 2]);
        let (v, breached) = judge(&phase).expect("100 applies resolve a p99");
        assert!(v.is_finite() && !breached, "p99 {v} breached");
        // Two applies past the 100 ms objective still breach it.
        phase.truncate(98);
        phase.extend([150_000.0; 2]);
        let (v, breached) = judge(&phase).expect("100 applies resolve a p99");
        assert!(breached, "p99 {v} passed");
        // Fewer than 100 applies cannot resolve a p99: no reading at all,
        // not the slowest apply passed off as the tail.
        assert_eq!(judge(&phase[1..]), None);
        assert_eq!(judge(&[150_000.0]), None);
    }

    #[test]
    fn gate_outside_the_register_is_an_error() {
        // Spills below: keep armed `spill.*` faults of sibling tests out.
        let _guard = qcf_telemetry::faults::chaos_guard();
        let comp = Memcpy;
        let mut cs = CompressedState::zero(10, 4, &comp, ErrorBound::Abs(1e-6)).unwrap();
        for gate in [Gate::H(10), Gate::Cnot(2, 12), Gate::Zz(11, 4, 0.3)] {
            assert!(cs.apply(&gate).is_err(), "{gate:?} accepted");
        }
        cs.set_mem_budget(Some(0));
        assert!(cs.run_scheduled(&[Gate::H(0), Gate::H(64)], true).is_err());
        assert!(cs.apply(&Gate::Cnot(9, 0)).is_ok());
    }

    #[test]
    fn high_qubit_gates_cross_chunks_correctly() {
        // All entanglers across the chunk boundary.
        let comp = Memcpy;
        let circuit = Circuit::new(6)
            .with(Gate::H(0))
            .with(Gate::Cnot(0, 5))
            .with(Gate::Zz(1, 4, 0.7))
            .with(Gate::Swap(2, 5))
            .with(Gate::Cnot(4, 3));
        let cs = CompressedState::run(&circuit, 2, &comp, ErrorBound::Abs(1e-6)).unwrap();
        let dense = StateVector::run(&circuit);
        assert!((cs.to_statevector().unwrap().fidelity(&dense) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_high_qubit_gate() {
        let comp = Memcpy;
        let circuit = Circuit::new(6)
            .with(Gate::H(4))
            .with(Gate::H(5))
            .with(Gate::Cnot(5, 4))
            .with(Gate::Zz(4, 5, 0.3));
        let cs = CompressedState::run(&circuit, 3, &comp, ErrorBound::Abs(1e-6)).unwrap();
        let dense = StateVector::run(&circuit);
        assert!((cs.to_statevector().unwrap().fidelity(&dense) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lossy_state_keeps_high_fidelity() {
        let (circuit, graph) = qaoa(10, 5);
        let comp = compressors::cuszx::CuSzx::default();
        let cs = CompressedState::run(&circuit, 5, &comp, ErrorBound::Abs(1e-7)).unwrap();
        let dense = StateVector::run(&circuit);
        // Normalized, so norm drift cannot pass for overlap; the drift is
        // checked on its own below.
        let f = cs.to_statevector().unwrap().fidelity_normalized(&dense);
        assert!(f > 0.999, "normalized fidelity {f}");
        let e = cs.maxcut_energy(&graph).unwrap();
        assert!((e - dense.maxcut_energy(&graph)).abs() / dense.maxcut_energy(&graph) < 0.01);
        assert!((cs.norm_sq().unwrap() - 1.0).abs() < 0.01);
    }

    #[test]
    fn stats_track_resident_bytes() {
        let (circuit, _) = qaoa(8, 7);
        let comp = compressors::cuszx::CuSzx::default();
        let cs = CompressedState::run(&circuit, 4, &comp, ErrorBound::Abs(1e-6)).unwrap();
        assert!(cs.stats.recompressions > 0);
        assert!(cs.stats.decompressions > 0);
        assert!(cs.stats.resident_bytes > 0);
        assert!(cs.stats.peak_resident_bytes >= cs.stats.resident_bytes);
    }

    #[test]
    fn resident_bytes_are_exact_after_every_stage() {
        let comp = compressors::cuszx::CuSzx::default();
        let (circuit, _) = qaoa(8, 13);
        let mut cs = CompressedState::zero(8, 4, &comp, ErrorBound::Abs(1e-7)).unwrap();
        for g in circuit.gates() {
            cs.apply(g).unwrap();
        }
        let total: usize = cs.chunks.iter().map(Vec::len).sum();
        assert_eq!(cs.stats.resident_bytes, total);
        assert!(cs.stats.peak_resident_bytes >= cs.stats.resident_bytes);
    }

    #[test]
    fn ledger_stays_zero_under_lossless_codec() {
        let (circuit, _) = qaoa(8, 17);
        let comp = Memcpy;
        let cs = CompressedState::run(&circuit, 3, &comp, ErrorBound::Abs(1e-4)).unwrap();
        let s = cs.ledger_summary();
        assert_eq!(s.total_requants, 0);
        assert_eq!(s.max_accumulated_bound, 0.0);
        assert_eq!(s.accumulated_rss, 0.0);
        assert_eq!(s.max_measured_err, 0.0);
        assert!(!s.lossy);
        // Every encode was still counted.
        assert_eq!(
            s.total_encodes,
            cs.chunks.len() as u64 + cs.stats.recompressions
        );
    }

    #[test]
    fn ledger_requants_match_recompressions_for_lossy_codec() {
        let (circuit, _) = qaoa(8, 19);
        let comp = compressors::cuszx::CuSzx::default();
        let mut cs = CompressedState::zero(8, 3, &comp, ErrorBound::Abs(1e-7)).unwrap();
        for g in circuit.gates() {
            cs.apply(g).unwrap();
        }
        let s = cs.ledger_summary();
        // Under a lossy codec every write_back is exactly one requant.
        assert_eq!(s.total_requants, cs.stats.recompressions);
        assert!(s.total_requants > 0, "every stage requantizes");
        assert!(s.max_requants > 0);
        assert!(s.max_accumulated_bound > 0.0);
        assert!(s.accumulated_rss >= s.max_accumulated_bound);
        assert!(s.lossy);
        // Each chunk absorbed at least its initial quantization.
        assert!(cs.ledger().lossy_events() >= cs.chunks.len() as u64);
    }

    #[test]
    fn measured_error_respects_the_bound_when_enabled() {
        let comp = compressors::cuszx::CuSzx::default();
        let (circuit, _) = qaoa(8, 23);
        let mut cs = CompressedState::zero(8, 4, &comp, ErrorBound::Abs(1e-6)).unwrap();
        cs.measure_err = true; // what QCF_LEDGER_MEASURE=1 sets
        for g in circuit.gates() {
            cs.apply(g).unwrap();
        }
        let s = cs.ledger_summary();
        assert!(s.total_requants > 0);
        // The measured max-abs-err must honor the compressor's contract.
        assert!(
            s.max_measured_err <= 1e-6 * (1.0 + 1e-9),
            "measured {} exceeds bound",
            s.max_measured_err
        );
    }

    #[test]
    fn zero_state_compresses_massively() {
        let comp = compressors::cuszx::CuSzx::default();
        let cs = CompressedState::zero(16, 10, &comp, ErrorBound::Abs(1e-8)).unwrap();
        // 2^16 amplitudes = 1 MiB dense; all-zero chunks are near-free.
        assert!(
            cs.stats.resident_bytes < cs.dense_bytes() / 50,
            "resident {} vs dense {}",
            cs.stats.resident_bytes,
            cs.dense_bytes()
        );
    }
}
