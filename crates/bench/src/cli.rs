//! `qcfz` — a file-level compression utility over the whole compressor
//! suite (the downstream-user face of the framework).
//!
//! Files are treated as little-endian `f64` streams (the layout QTensor
//! tensors serialize to). Compressed files are the compressors' own
//! self-describing streams, so `decompress`/`info` need no side channel.

pub mod args;

use compressors::{all_compressors, by_name, Compressor, ErrorBound};
use gpu_model::{DeviceSpec, Stream};
use qcf_core::QcfCompressor;
use qcf_telemetry::StreamLane;
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::compressed::CompressingHook;
use qtensor::{CompressedState, Simulator, StateStats};
use std::path::Path;

/// CLI-level errors with user-facing messages.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(format!("io error: {e}"))
    }
}

/// The full lineup addressable by name (baselines + framework modes).
pub fn cli_lineup() -> Vec<Box<dyn Compressor>> {
    let mut comps = all_compressors();
    comps.push(Box::new(QcfCompressor::ratio()));
    comps.push(Box::new(QcfCompressor::speed()));
    comps
}

/// Looks up a compressor by display name across the full lineup.
pub fn cli_by_name(name: &str) -> Option<Box<dyn Compressor>> {
    if name.eq_ignore_ascii_case("qcf-ratio") {
        return Some(Box::new(QcfCompressor::ratio()));
    }
    if name.eq_ignore_ascii_case("qcf-speed") {
        return Some(Box::new(QcfCompressor::speed()));
    }
    by_name(name)
}

fn read_f64_file(path: &Path) -> Result<Vec<f64>, CliError> {
    let bytes = std::fs::read(path)?;
    if bytes.len() % 8 != 0 {
        return Err(CliError(format!(
            "{} is {} bytes — not a whole number of f64 values",
            path.display(),
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Result summary of a compression run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressSummary {
    /// Input values.
    pub n_values: usize,
    /// Output bytes.
    pub compressed_bytes: usize,
    /// Input / output size.
    pub ratio: f64,
    /// Simulated A100 compression seconds.
    pub simulated_s: f64,
}

/// Compresses `input` (raw little-endian f64) into `output`.
pub fn compress_file(
    input: &Path,
    output: &Path,
    compressor: &str,
    bound: ErrorBound,
) -> Result<CompressSummary, CliError> {
    compress_file_on(
        input,
        output,
        compressor,
        bound,
        &Stream::new(DeviceSpec::a100()),
    )
}

/// [`compress_file`] on a caller-owned stream, so the caller can export
/// the stream's kernel events afterwards (`--trace`).
pub fn compress_file_on(
    input: &Path,
    output: &Path,
    compressor: &str,
    bound: ErrorBound,
    stream: &Stream,
) -> Result<CompressSummary, CliError> {
    let comp = cli_by_name(compressor).ok_or_else(|| {
        CliError(format!(
            "unknown compressor '{compressor}' (try `qcfz list`)"
        ))
    })?;
    let data = read_f64_file(input)?;
    let bytes = comp
        .compress(&data, bound, stream)
        .map_err(|e| CliError(format!("{}: {e}", comp.name())))?;
    std::fs::write(output, &bytes)?;
    Ok(CompressSummary {
        n_values: data.len(),
        compressed_bytes: bytes.len(),
        ratio: (data.len() * 8) as f64 / bytes.len().max(1) as f64,
        simulated_s: stream.elapsed_s(),
    })
}

/// Decompresses a `qcfz` stream back to raw little-endian f64.
pub fn decompress_file(input: &Path, output: &Path) -> Result<usize, CliError> {
    decompress_file_on(input, output, &Stream::new(DeviceSpec::a100()))
}

/// [`decompress_file`] on a caller-owned stream (see [`compress_file_on`]).
pub fn decompress_file_on(input: &Path, output: &Path, stream: &Stream) -> Result<usize, CliError> {
    let bytes = std::fs::read(input)?;
    let values = compressed_values(&bytes, stream)?;
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in &values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    std::fs::write(output, &out)?;
    Ok(values.len())
}

/// Dispatches decompression on the stream's id byte across the full lineup.
/// The id survives sealing (the frame flag is the high bit), so framed and
/// legacy streams dispatch identically; the codec itself verifies the frame.
fn compressed_values(bytes: &[u8], stream: &Stream) -> Result<Vec<f64>, CliError> {
    let id = codec_kit::frame::stream_id(bytes).map_err(|_| CliError("empty file".into()))?;
    let comp = cli_lineup()
        .into_iter()
        .find(|c| c.id() == id)
        .ok_or_else(|| CliError(format!("unknown stream id {id}")))?;
    comp.decompress(bytes, stream)
        .map_err(|e| CliError(format!("{}: {e}", comp.name())))
}

/// Human-readable info about a compressed file.
pub fn info(input: &Path) -> Result<String, CliError> {
    let bytes = std::fs::read(input)?;
    let id = codec_kit::frame::stream_id(&bytes).map_err(|_| CliError("empty file".into()))?;
    let comp = cli_lineup()
        .into_iter()
        .find(|c| c.id() == id)
        .ok_or_else(|| CliError(format!("unknown stream id {id}")))?;
    // Frame first: a sealed stream's header lives inside the payload, and
    // unsealing also validates length + checksum (cheap integrity report).
    let payload =
        codec_kit::frame::unseal(&bytes).map_err(|e| CliError(format!("corrupt frame: {e}")))?;
    let mut pos = 1usize;
    let n = codec_kit::varint::read_uvarint(payload, &mut pos)
        .map_err(|e| CliError(format!("corrupt header: {e}")))?;
    Ok(format!(
        "{}: {} values, {} bytes compressed ({:.1}x), {}",
        comp.name(),
        n,
        bytes.len(),
        (n as f64 * 8.0) / bytes.len() as f64,
        match frame_version(&bytes) {
            Some(v) => format!("sealed v{v} frame (checksum verified)"),
            None => "legacy v1 stream (no integrity frame)".into(),
        }
    ))
}

/// The version byte of a sealed frame; `None` for a bare v1 stream.
fn frame_version(bytes: &[u8]) -> Option<u8> {
    let version = *bytes.get(1)?;
    codec_kit::frame::is_framed(bytes).then_some(version)
}

/// Scrubs a compressed file: frame + checksum validation, then a full
/// decode. Returns a human-readable verdict line; any corruption is a
/// `CliError` (the `qcfz verify <file>` exit-code contract).
pub fn verify_file(input: &Path) -> Result<String, CliError> {
    let bytes = std::fs::read(input)?;
    codec_kit::frame::unseal(&bytes).map_err(|e| CliError(format!("corrupt frame: {e}")))?;
    let stream = Stream::new(DeviceSpec::a100());
    let values = compressed_values(&bytes, &stream)?;
    Ok(format!(
        "{}: OK — {} values decoded, {}",
        input.display(),
        values.len(),
        match frame_version(&bytes) {
            Some(v) => format!("v{v} frame checksum verified"),
            None => "legacy v1 stream (no checksum to verify)".into(),
        }
    ))
}

/// The `list` subcommand body.
pub fn list() -> String {
    cli_lineup()
        .iter()
        .map(|c| format!("  {:10} (id {}, {:?})", c.name(), c.id(), c.kind()))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Result summary of a [`qaoa_demo`] run.
#[derive(Debug, Clone)]
pub struct QaoaSummary {
    /// MaxCut energy expectation from the compressed contraction.
    pub energy: f64,
    /// Intermediates routed through the compressor.
    pub tensors_compressed: usize,
    /// Aggregate compression ratio over those intermediates.
    pub ratio: f64,
    /// Peak live bytes during contraction.
    pub peak_live_bytes: usize,
    /// Lossy round trips over intermediates (0 under a lossless codec).
    pub lossy_events: u64,
    /// Accumulated-bound estimate over the contraction (RSS of every lossy
    /// round trip's resolved absolute bound).
    pub accumulated_bound: f64,
    /// Simulated seconds spent on the compressor's stream.
    pub simulated_s: f64,
    /// The compressor stream's kernel-event lane (for `--trace`).
    pub stream_lane: StreamLane,
}

/// Runs a small QAOA energy computation with every intermediate tensor
/// round-tripping through `compressor` — the end-to-end pipeline
/// (contraction → stages → compressor kernels) that `qcfz qaoa --trace`
/// exports as a Chrome trace.
pub fn qaoa_demo(
    nodes: usize,
    seed: u64,
    compressor: &str,
    bound: ErrorBound,
) -> Result<QaoaSummary, CliError> {
    let comp = cli_by_name(compressor).ok_or_else(|| {
        CliError(format!(
            "unknown compressor '{compressor}' (try `qcfz list`)"
        ))
    })?;
    let graph = Graph::random_regular(nodes, 3, seed);
    let params = QaoaParams::fixed_angles_3reg_p1();
    let mut hook = CompressingHook::new(comp.as_ref(), bound, 4);
    let report = Simulator::default()
        .energy_with_hook(&graph, &params, &mut hook)
        .map_err(|e| CliError(format!("contraction failed: {e}")))?;
    Ok(QaoaSummary {
        energy: report.energy,
        tensors_compressed: hook.stats.tensors_compressed,
        ratio: hook.stats.ratio(),
        peak_live_bytes: report.stats.peak_live_bytes,
        lossy_events: hook.stats.lossy_events,
        accumulated_bound: hook.stats.accumulated_bound,
        simulated_s: hook.stream().elapsed_s(),
        stream_lane: hook
            .stream()
            .telemetry_lane(format!("{} stream", comp.name())),
    })
}

/// Result summary of a [`state_demo`] run.
#[derive(Debug, Clone)]
pub struct StateSummary {
    /// MaxCut energy expectation from the compressed-state simulation.
    pub energy: f64,
    /// Bytes the dense statevector would need.
    pub dense_bytes: usize,
    /// Effective compressed-resident byte budget (`None` = no disk tier).
    pub mem_budget: Option<usize>,
    /// Where the frames ended up: compressed RAM / disk.
    pub tiers: qtensor::TierBreakdown,
    /// Run accounting (codec calls, resident bytes, spill traffic).
    pub stats: StateStats,
    /// Gates the run applied (the denominator of [`per_gate`]).
    pub gates: u64,
    /// Error-budget ledger aggregate (requant counts, accumulated bounds).
    pub ledger: qtensor::LedgerSummary,
    /// Causal event chain for the requested chunk (`qcfz state --chunk`).
    pub chain: Option<ChunkChain>,
}

/// Data-path chunk decodes and encodes per applied gate: the exact codec
/// work counters `qcfz report` hard-gates (a stage decodes and stores each
/// chunk once, however many gates it holds). `(0, 0)` for no gates.
pub fn per_gate(stats: &StateStats, gates: u64) -> (f64, f64) {
    if gates == 0 {
        return (0.0, 0.0);
    }
    let g = gates as f64;
    (
        stats.decompressions as f64 / g,
        stats.recompressions as f64 / g,
    )
}

/// The causal journal chain behind one chunk's ledger row (`qcfz state
/// --chunk <id>`): the chunk's exact per-kind event counts, the tail of
/// its event ring, and the ledger record those events must explain.
#[derive(Debug, Clone)]
pub struct ChunkChain {
    /// Chunk id.
    pub id: u64,
    /// The ledger's accounting for this chunk.
    pub record: qtensor::ChunkRecord,
    /// Newest events still in the ring (oldest → newest).
    pub events: Vec<qcf_telemetry::journal::ChunkEvent>,
    /// Events discarded from the ring (the chain's trimmed prefix).
    pub dropped: u64,
    /// Exact per-kind counts (survive ring overflow).
    pub kind_counts: [u64; qcf_telemetry::journal::KINDS],
}

impl ChunkChain {
    /// True when the journal's exact counts agree with the ledger — the
    /// `qcfz state --chunk` consistency contract.
    pub fn consistent(&self) -> bool {
        use qcf_telemetry::journal::EventKind;
        self.kind_counts[EventKind::WritebackRequant.index()] == self.record.requants
            && self.kind_counts[EventKind::Quarantine.index()] == self.record.quarantines
    }
}

/// Everything one `qcfz state` run needs ([`state_demo`]'s input — grown
/// past the point where positional arguments stay readable).
#[derive(Debug, Clone)]
pub struct StateRunCfg {
    /// QAOA graph size (nodes = qubits).
    pub nodes: usize,
    /// Graph seed.
    pub seed: u64,
    /// Qubits per chunk.
    pub chunk_qubits: usize,
    /// Compressor display name (`qcfz list`).
    pub compressor: String,
    /// Error bound for the chunk codec.
    pub bound: ErrorBound,
    /// Chunk id whose causal journal chain to capture (`--chunk <id>`).
    pub journal_chunk: Option<u64>,
    /// Compressed-resident byte budget; `Some` arms the disk spill tier
    /// (`--mem-budget`, also set by `QCF_MEM_BUDGET`).
    pub mem_budget: Option<usize>,
    /// Gate-schedule-aware async prefetch for the spilled run (the
    /// default; `--no-prefetch` forces synchronous fetch-on-miss).
    pub prefetch: bool,
}

impl StateRunCfg {
    /// A default-shaped run: no budget, prefetch on.
    pub fn new(nodes: usize, seed: u64, chunk_qubits: usize, compressor: &str) -> Self {
        StateRunCfg {
            nodes,
            seed,
            chunk_qubits,
            compressor: compressor.to_string(),
            bound: ErrorBound::Rel(1e-3),
            journal_chunk: None,
            mem_budget: None,
            prefetch: true,
        }
    }
}

/// Runs a QAOA circuit through the chunk-compressed statevector simulator
/// (`qcfz state`), so the `state.*` and `scratch.*` registry counters
/// populate for `--metrics`; with a memory budget set, the out-of-core
/// spill tier and its prefetcher populate `state.spill.*` /
/// `state.prefetch.*` too.
///
/// With `journal_chunk` set, the per-chunk causal journal is armed for the
/// run and the named chunk's event chain is returned alongside its ledger
/// record (`qcfz state --chunk <id>`).
pub fn state_demo(cfg: &StateRunCfg) -> Result<StateSummary, CliError> {
    use qcf_telemetry::journal;
    let comp = cli_by_name(&cfg.compressor).ok_or_else(|| {
        CliError(format!(
            "unknown compressor '{}' (try `qcfz list`)",
            cfg.compressor
        ))
    })?;
    if cfg.journal_chunk.is_some() {
        // The journal only records under the master switch too.
        qcf_telemetry::set_enabled(true);
        journal::set_enabled(true);
        journal::reset();
    }
    let graph = Graph::random_regular(cfg.nodes, 3, cfg.seed);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let err = |e: qtensor::ContractError| CliError(format!("compressed state: {e}"));
    let mut cs = CompressedState::zero(
        cfg.nodes,
        cfg.chunk_qubits.min(cfg.nodes),
        comp.as_ref(),
        cfg.bound,
    )
    .map_err(err)?;
    if cfg.mem_budget.is_some() {
        cs.set_mem_budget(cfg.mem_budget);
    }
    // One gate path for every tier shape: without a budget this is the
    // plain apply loop; with one it runs the schedule-aware prefetcher
    // (or synchronous fetch-on-miss under `prefetch: false`).
    cs.run_scheduled(circuit.gates(), cfg.prefetch)
        .map_err(err)?;
    let energy = cs.maxcut_energy(&graph).map_err(err)?;
    let chain = match cfg.journal_chunk {
        Some(id) => {
            let n_chunks = cs.ledger().n_chunks() as u64;
            if id >= n_chunks {
                return Err(CliError(format!(
                    "chunk {id} out of range (state has {n_chunks} chunks)"
                )));
            }
            Some(ChunkChain {
                id,
                record: cs.ledger().chunk(id as usize).clone(),
                events: journal::events(id),
                dropped: journal::dropped(id),
                kind_counts: journal::kind_counts(id),
            })
        }
        None => None,
    };
    if cfg.journal_chunk.is_some() {
        journal::set_enabled(false);
    }
    Ok(StateSummary {
        energy,
        dense_bytes: cs.dense_bytes(),
        mem_budget: cs.mem_budget(),
        tiers: cs.tier_breakdown(),
        stats: cs.stats.clone(),
        gates: cs.gates_applied(),
        ledger: cs.ledger_summary(),
        chain,
    })
}

/// Result summary of a [`verify_state`] scrub run.
#[derive(Debug, Clone)]
pub struct VerifySummary {
    /// MaxCut energy expectation from the (possibly degraded) run.
    pub energy: f64,
    /// The settled scrub report (after healing passes).
    pub report: qtensor::VerifyReport,
    /// Fault accounting accumulated over the run plus the scrub.
    pub faults: qtensor::FaultStats,
    /// Injected `state.chunk.bitflip` events (0 when faults are disarmed).
    pub injected_bitflips: u64,
    /// Injected `codec.decode` events.
    pub injected_decode_errors: u64,
    /// Injected events across all sites.
    pub injected_total: u64,
    /// Injected `state.spill.bitflip` events (on-disk frame corruption).
    pub injected_spill_bitflips: u64,
    /// Frames spilled to disk over run + scrub (0 without a budget).
    pub spills: u64,
    /// Spilled frames fetched back over run + scrub.
    pub fetches: u64,
    /// Spill-log compaction passes over run + scrub.
    pub compactions: u64,
    /// Dead bytes those passes reclaimed from the spill log.
    pub spill_reclaimed: u64,
    /// Scrub passes it took to settle (1 on a healthy state).
    pub scrub_passes: usize,
    /// True when the final pass came back fully clean.
    pub settled: bool,
}

impl VerifySummary {
    /// The `qcfz verify --state` pass/fail verdict: the scrub must settle
    /// clean, every measured error must respect its ledger bound, and every
    /// injected storage corruption must have surfaced as a detected decode
    /// failure (the 100%-detection contract of the integrity frame).
    pub fn ok(&self) -> bool {
        self.settled
            && self.report.ledger_breaches == 0
            && self.faults.decode_errors >= self.injected_bitflips
    }
}

/// Runs a QAOA circuit on the chunk-compressed state, then scrubs it:
/// every chunk is decoded (frame checksum verified on the way) and checked
/// against its error-budget ledger bound. With `mem_budget` set the run
/// spills cold frames to disk and the scrub reads the disk tier back
/// through the exact same decode path, so on-disk corruption is covered by
/// the same detection contract. With `QCF_FAULTS` armed in the environment
/// the run executes under injected faults; injection is disarmed before
/// the scrub so it evaluates the storage actually left behind, and the
/// scrub loops until the state settles clean. The energy is read from the
/// settled state: the read-only scan cannot heal, so a frame the last
/// stage stored corrupt must pass through the scrub first.
pub fn verify_state(
    nodes: usize,
    seed: u64,
    chunk_qubits: usize,
    compressor: &str,
    bound: ErrorBound,
    mem_budget: Option<usize>,
) -> Result<VerifySummary, CliError> {
    use qcf_telemetry::faults;
    let comp = cli_by_name(compressor).ok_or_else(|| {
        CliError(format!(
            "unknown compressor '{compressor}' (try `qcfz list`)"
        ))
    })?;
    let armed = faults::armed(); // first call also arms from QCF_FAULTS
    let graph = Graph::random_regular(nodes, 3, seed);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let err = |e: qtensor::ContractError| CliError(format!("compressed state: {e}"));
    let mut cs =
        CompressedState::zero(nodes, chunk_qubits.min(nodes), comp.as_ref(), bound).map_err(err)?;
    if mem_budget.is_some() {
        cs.set_mem_budget(mem_budget);
    }
    cs.run_scheduled(circuit.gates(), true).map_err(err)?;
    let injected_bitflips = faults::injected_count("state.chunk.bitflip");
    let injected_spill_bitflips = faults::injected_count("state.spill.bitflip");
    let injected_decode_errors = faults::injected_count("codec.decode");
    let injected_total = faults::total_injected();
    if armed {
        faults::disarm();
    }
    let (report, scrub_passes) = settle(&mut cs).map_err(err)?;
    let energy = cs.maxcut_energy(&graph).map_err(err)?;
    Ok(VerifySummary {
        energy,
        settled: report.all_clean(),
        report,
        spills: cs.stats.spills,
        fetches: cs.stats.fetches,
        compactions: cs.stats.compactions,
        spill_reclaimed: cs.stats.spill_reclaimed_bytes,
        faults: cs.faults.clone(),
        injected_bitflips,
        injected_spill_bitflips,
        injected_decode_errors,
        injected_total,
        scrub_passes,
    })
}

/// Scrubs `cs` until a pass comes back clean (at most 8 passes): the first
/// clean pass proves every corruption left behind was caught and healed
/// (or quarantined) by a prior one. Returns the last report and the
/// number of passes.
fn settle(
    cs: &mut CompressedState<'_>,
) -> Result<(qtensor::VerifyReport, usize), qtensor::ContractError> {
    let mut report = cs.verify()?;
    let mut passes = 1;
    while !report.all_clean() && passes < 8 {
        report = cs.verify()?;
        passes += 1;
    }
    Ok((report, passes))
}

/// The caller-opaque `app_meta` blob `qcfz` stores in a snapshot: the
/// circuit recipe and run progress needed to finish the simulation after
/// a resume, without the user restating any flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptMeta {
    /// QAOA graph size (nodes = qubits).
    pub nodes: usize,
    /// Graph seed.
    pub seed: u64,
    /// Qubits per chunk.
    pub chunk_qubits: usize,
    /// Gates of the QAOA circuit already applied to the snapshot state.
    pub gates_applied: usize,
    /// Compressor display name (the snapshot also stores the stream id;
    /// the name makes `qcfz resume` output self-describing).
    pub compressor: String,
}

/// Recipe magic and version. Version 1 also stored a chunk-cache
/// capacity; its recipes are refused as not a qcfz blob.
const META_MAGIC: &[u8; 6] = b"QMETA2";

impl CkptMeta {
    /// Serializes into the little-endian blob stored as snapshot
    /// `app_meta` (layout: magic, nodes u32, seed u64, chunk_qubits u32,
    /// gates_applied u64, name len u8 + bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(31 + self.compressor.len());
        out.extend_from_slice(META_MAGIC);
        out.extend_from_slice(&(self.nodes as u32).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.chunk_qubits as u32).to_le_bytes());
        out.extend_from_slice(&(self.gates_applied as u64).to_le_bytes());
        let name = self.compressor.as_bytes();
        out.push(name.len().min(255) as u8);
        out.extend_from_slice(&name[..name.len().min(255)]);
        out
    }

    /// Refuses a recipe that cannot drive `cs`, the state restored from
    /// the same snapshot: the graph must cover exactly the state's qubits
    /// at the state's chunk size, and be a size
    /// `Graph::random_regular(_, 3, _)` accepts (even, at least 4).
    fn check_against(&self, cs: &CompressedState<'_>) -> Result<(), CliError> {
        let chunk_qubits = cs.chunk_len().trailing_zeros() as usize;
        if self.nodes != cs.n_qubits() || self.chunk_qubits != chunk_qubits {
            return Err(CliError(format!(
                "snapshot recipe ({} nodes, {}-qubit chunks) does not match its state \
                 ({} qubits, {chunk_qubits}-qubit chunks)",
                self.nodes,
                self.chunk_qubits,
                cs.n_qubits()
            )));
        }
        if self.nodes < 4 || !self.nodes.is_multiple_of(2) {
            return Err(CliError(format!(
                "snapshot recipe asks for a 3-regular graph on {} nodes (need an even count >= 4)",
                self.nodes
            )));
        }
        Ok(())
    }

    /// Parses an `app_meta` blob written by [`CkptMeta::encode`].
    pub fn decode(raw: &[u8]) -> Result<Self, CliError> {
        let bad = || CliError("snapshot app metadata is not a qcfz blob".into());
        if raw.len() < 31 || &raw[..6] != META_MAGIC {
            return Err(bad());
        }
        let u32_at = |i: usize| u32::from_le_bytes(raw[i..i + 4].try_into().unwrap());
        let u64_at = |i: usize| u64::from_le_bytes(raw[i..i + 8].try_into().unwrap());
        let name_len = raw[30] as usize;
        if raw.len() != 31 + name_len {
            return Err(bad());
        }
        Ok(CkptMeta {
            nodes: u32_at(6) as usize,
            seed: u64_at(10),
            chunk_qubits: u32_at(18) as usize,
            gates_applied: u64_at(22) as usize,
            compressor: String::from_utf8(raw[31..].to_vec()).map_err(|_| bad())?,
        })
    }
}

/// Picks the lineup compressor matching a snapshot's stored stream id
/// (the same id-dispatch `qcfz info` uses on compressed files).
fn snapshot_compressor(path: &Path) -> Result<Box<dyn Compressor>, CliError> {
    let id = qtensor::checkpoint::snapshot_compressor_id(path)
        .map_err(|e| CliError(format!("resume {}: {e}", path.display())))?;
    cli_lineup()
        .into_iter()
        .find(|c| c.id() == id)
        .ok_or_else(|| CliError(format!("snapshot codec id {id} is not in the lineup")))
}

/// Result summary of a `qcfz checkpoint` commit.
#[derive(Debug, Clone)]
pub struct CkptSummary {
    /// Bytes at the committed snapshot path.
    pub snapshot_bytes: u64,
    /// Gates applied to the snapshotted state (from circuit start).
    pub gates_applied: usize,
    /// Gates in the full QAOA circuit.
    pub total_gates: usize,
    /// MaxCut energy of the snapshotted (possibly partial) state.
    pub energy: f64,
    /// Gate progress of the source snapshot when `--from` resumed one.
    pub resumed_from: Option<usize>,
}

/// Runs a QAOA circuit up to `gates` gates (default: all) on the
/// chunk-compressed state and commits a durable snapshot at `out`
/// (`qcfz checkpoint`). With `from` set, the run continues a previous
/// snapshot instead of starting fresh: geometry, codec and bound all come
/// from the snapshot, so the evolution is bit-identical
/// to a run that was never interrupted; only `cfg.prefetch` and
/// `cfg.mem_budget` (pure tiering, bit-transparent) still apply.
pub fn checkpoint_demo(
    cfg: &StateRunCfg,
    out: &Path,
    from: Option<&Path>,
    gates: Option<usize>,
) -> Result<CkptSummary, CliError> {
    let err = |e: qtensor::ContractError| CliError(format!("compressed state: {e}"));
    let comp: Box<dyn Compressor> = match from {
        Some(src) => snapshot_compressor(src)?,
        None => cli_by_name(&cfg.compressor).ok_or_else(|| {
            CliError(format!(
                "unknown compressor '{}' (try `qcfz list`)",
                cfg.compressor
            ))
        })?,
    };
    let (mut cs, mut meta) = match from {
        Some(src) => {
            let (cs, raw) = CompressedState::resume(src, comp.as_ref())
                .map_err(|e| CliError(format!("resume {}: {e}", src.display())))?;
            let meta = CkptMeta::decode(&raw)?;
            meta.check_against(&cs)?;
            (cs, meta)
        }
        None => {
            let cs = CompressedState::zero(
                cfg.nodes,
                cfg.chunk_qubits.min(cfg.nodes),
                comp.as_ref(),
                cfg.bound,
            )
            .map_err(err)?;
            let meta = CkptMeta {
                nodes: cfg.nodes,
                seed: cfg.seed,
                chunk_qubits: cfg.chunk_qubits.min(cfg.nodes),
                gates_applied: 0,
                compressor: comp.name().to_string(),
            };
            (cs, meta)
        }
    };
    if cfg.mem_budget.is_some() {
        cs.set_mem_budget(cfg.mem_budget);
    }
    let graph = Graph::random_regular(meta.nodes, 3, meta.seed);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let total = circuit.gates().len();
    let target = gates.unwrap_or(total).min(total);
    if target < meta.gates_applied {
        return Err(CliError(format!(
            "snapshot already has {} gates applied — --gates {target} would go backwards",
            meta.gates_applied
        )));
    }
    cs.run_scheduled(&circuit.gates()[meta.gates_applied..target], cfg.prefetch)
        .map_err(err)?;
    let resumed_from = from.map(|_| meta.gates_applied);
    meta.gates_applied = target;
    let snapshot_bytes = cs
        .checkpoint(out, &meta.encode())
        .map_err(|e| CliError(format!("checkpoint: {e}")))?;
    let energy = cs.maxcut_energy(&graph).map_err(err)?;
    Ok(CkptSummary {
        snapshot_bytes,
        gates_applied: target,
        total_gates: total,
        energy,
        resumed_from,
    })
}

/// Result summary of a `qcfz resume` run-to-completion.
#[derive(Debug, Clone)]
pub struct ResumeSummary {
    /// The snapshot's stored run recipe and progress.
    pub meta: CkptMeta,
    /// Gates in the full QAOA circuit.
    pub total_gates: usize,
    /// MaxCut energy after finishing the remaining gates.
    pub energy: f64,
    /// Error-budget ledger aggregate at the end of the finished run.
    pub ledger: qtensor::LedgerSummary,
    /// Fault accounting: the snapshot's restored history plus this
    /// process's events.
    pub faults: qtensor::FaultStats,
    /// Settled scrub report when `--verify` was requested.
    pub scrub: Option<qtensor::VerifyReport>,
    /// This process's run accounting (starts fresh at resume).
    pub stats: StateStats,
    /// Gates this process applied after the resume.
    pub gates: u64,
}

impl ResumeSummary {
    /// The `qcfz resume --verify` verdict: either no scrub was requested,
    /// or the restored state settled fully clean with no ledger breach.
    pub fn ok(&self) -> bool {
        self.scrub.as_ref().is_none_or(|r| r.all_clean())
    }
}

/// Restores a snapshot and finishes its run (`qcfz resume`): the stored
/// recipe rebuilds the QAOA circuit, the remaining gates are applied, and
/// the final energy + ledger are reported. With `scrub` set every restored
/// chunk is decoded and checked against its ledger bound *before* the run
/// continues (`--verify`); scrubbing only re-tiers — it never requantizes
/// a clean chunk — so the continued evolution stays bit-identical.
pub fn resume_demo(
    path: &Path,
    scrub: bool,
    prefetch: bool,
    mem_budget: Option<usize>,
) -> Result<ResumeSummary, CliError> {
    let err = |e: qtensor::ContractError| CliError(format!("compressed state: {e}"));
    let comp = snapshot_compressor(path)?;
    let (mut cs, raw) = CompressedState::resume(path, comp.as_ref())
        .map_err(|e| CliError(format!("resume {}: {e}", path.display())))?;
    let meta = CkptMeta::decode(&raw)?;
    meta.check_against(&cs)?;
    if mem_budget.is_some() {
        cs.set_mem_budget(mem_budget);
    }
    let scrub_report = if scrub {
        Some(settle(&mut cs).map_err(err)?.0)
    } else {
        None
    };
    let graph = Graph::random_regular(meta.nodes, 3, meta.seed);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let total = circuit.gates().len();
    let from = meta.gates_applied.min(total);
    cs.run_scheduled(&circuit.gates()[from..], prefetch)
        .map_err(err)?;
    let energy = cs.maxcut_energy(&graph).map_err(err)?;
    Ok(ResumeSummary {
        meta,
        total_gates: total,
        energy,
        ledger: cs.ledger_summary(),
        faults: cs.faults.clone(),
        scrub: scrub_report,
        stats: cs.stats.clone(),
        gates: cs.gates_applied(),
    })
}

/// Writes the recorded spans plus `lanes` as Chrome-trace JSON to `path`.
pub fn write_trace(path: &Path, lanes: &[StreamLane]) -> Result<(), CliError> {
    let spans = qcf_telemetry::span::snapshot();
    std::fs::write(path, qcf_telemetry::chrome_trace(&spans, lanes))?;
    Ok(())
}

/// Writes the registry snapshot to `path`: JSON when the extension is
/// `.json`, TSV otherwise.
pub fn write_metrics(path: &Path) -> Result<(), CliError> {
    let snap = qcf_telemetry::registry().snapshot();
    let doc = if path.extension().is_some_and(|e| e == "json") {
        qcf_telemetry::metrics_json(&snap)
    } else {
        qcf_telemetry::metrics_tsv(&snap)
    };
    std::fs::write(path, doc)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("qcfz-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write_f64s(path: &Path, values: &[f64]) {
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        std::fs::write(path, bytes).unwrap();
    }

    /// `qcfz compress --compressor LZ4 --abs 0` of the 16 values
    /// `(i % 5) * 0.25` as a build before the v5 frame wrote it: a v2 frame
    /// with an FNV-1a checksum.
    const V2_FILE: [u8; 38] = [
        0x84, 0x02, 0x1c, 0x00, 0x00, 0x00, 0x04, 0x10, 0x19, 0x19, 0x00, 0x01, 0x00, 0x22, 0xd0,
        0x3f, 0x08, 0x00, 0x13, 0xe0, 0x08, 0x00, 0x13, 0xe8, 0x08, 0x00, 0x13, 0xf0, 0x08, 0x00,
        0x0f, 0x28, 0x00, 0x3f, 0x8a, 0xe3, 0x96, 0xa7,
    ];

    fn v2_file(name: &str) -> std::path::PathBuf {
        let path = tmp(name);
        std::fs::write(&path, V2_FILE).unwrap();
        path
    }

    #[test]
    fn compress_decompress_roundtrip_lossless() {
        let input = tmp("in1.f64");
        let comp = tmp("out1.qcfz");
        let back = tmp("back1.f64");
        let values: Vec<f64> = (0..1000).map(|i| (i % 17) as f64 * 0.25).collect();
        write_f64s(&input, &values);
        let s = compress_file(&input, &comp, "LZ4", ErrorBound::Abs(0.0)).unwrap();
        assert_eq!(s.n_values, 1000);
        assert!(s.ratio > 1.0);
        let n = decompress_file(&comp, &back).unwrap();
        assert_eq!(n, 1000);
        assert_eq!(
            std::fs::read(&input).unwrap(),
            std::fs::read(&back).unwrap()
        );
    }

    #[test]
    fn compress_with_framework_and_info() {
        let input = tmp("in2.f64");
        let comp = tmp("out2.qcfz");
        let values: Vec<f64> = (0..2048).map(|i| ((i % 13) as f64 * 0.1).sin()).collect();
        write_f64s(&input, &values);
        let s = compress_file(&input, &comp, "QCF-ratio", ErrorBound::Rel(1e-4)).unwrap();
        assert!(s.ratio > 4.0, "framework ratio {}", s.ratio);
        let info_line = info(&comp).unwrap();
        assert!(info_line.contains("QCF-ratio"), "{info_line}");
        assert!(info_line.contains("2048"));
        assert!(
            info_line.contains("sealed v5 frame (checksum verified)"),
            "{info_line}"
        );
        // A file from an older build reports the version it carries.
        let info_line = info(&v2_file("info-v2.qcfz")).unwrap();
        assert!(
            info_line.contains("LZ4: 16 values, 38 bytes compressed"),
            "{info_line}"
        );
        assert!(
            info_line.contains("sealed v2 frame (checksum verified)"),
            "{info_line}"
        );
    }

    #[test]
    fn errors_are_messages_not_panics() {
        let input = tmp("in3.f64");
        std::fs::write(&input, [1, 2, 3]).unwrap(); // not multiple of 8
        assert!(compress_file(&input, &tmp("x"), "cuSZ", ErrorBound::Rel(1e-3)).is_err());
        write_f64s(&input, &[1.0]);
        assert!(compress_file(&input, &tmp("x"), "nope", ErrorBound::Rel(1e-3)).is_err());
        let garbage = tmp("garbage.qcfz");
        std::fs::write(&garbage, [250u8, 0, 0]).unwrap();
        assert!(decompress_file(&garbage, &tmp("y")).is_err());
        assert!(info(&garbage).is_err());
    }

    #[test]
    fn verify_file_passes_clean_and_flags_corruption() {
        let input = tmp("in-verify.f64");
        let comp = tmp("out-verify.qcfz");
        let values: Vec<f64> = (0..512).map(|i| ((i % 11) as f64 * 0.2).cos()).collect();
        write_f64s(&input, &values);
        compress_file(&input, &comp, "LZ4", ErrorBound::Abs(0.0)).unwrap();
        let verdict = verify_file(&comp).unwrap();
        assert!(verdict.contains("OK"), "{verdict}");
        assert!(verdict.contains("v5 frame checksum verified"), "{verdict}");
        // A file from an older build verifies and decodes bit for bit.
        let old = v2_file("verify-v2.qcfz");
        let verdict = verify_file(&old).unwrap();
        assert!(verdict.contains("OK — 16 values decoded"), "{verdict}");
        assert!(verdict.contains("v2 frame checksum verified"), "{verdict}");
        let back = tmp("verify-v2.f64");
        assert_eq!(decompress_file(&old, &back).unwrap(), 16);
        let want: Vec<u8> = (0..16)
            .flat_map(|i| ((i % 5) as f64 * 0.25).to_le_bytes())
            .collect();
        assert_eq!(std::fs::read(&back).unwrap(), want);
        let mut bytes = V2_FILE;
        bytes[V2_FILE.len() / 2] ^= 0x10;
        std::fs::write(&old, bytes).unwrap();
        assert!(verify_file(&old).is_err(), "v2 corruption went undetected");

        // Flip one payload bit: the scrub must fail with a frame error.
        let mut bytes = std::fs::read(&comp).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let bad = tmp("out-verify-bad.qcfz");
        std::fs::write(&bad, &bytes).unwrap();
        assert!(verify_file(&bad).is_err(), "corruption went undetected");
    }

    #[test]
    fn verify_state_healthy_run_is_ok() {
        let _t = crate::telemetry_test_lock();
        let _g = qcf_telemetry::faults::chaos_guard();
        qcf_telemetry::faults::disarm();
        let s = verify_state(8, 3, 3, "LZ4", ErrorBound::Abs(0.0), None).unwrap();
        assert!(s.ok());
        assert!(s.settled);
        assert_eq!(s.scrub_passes, 1);
        assert_eq!(s.injected_total, 0);
        assert_eq!(s.report.chunks, 32);
        assert_eq!(s.report.clean, 32);
        assert_eq!(s.spills, 0, "no budget, no disk tier");
    }

    #[test]
    fn verify_state_scrubs_the_disk_tier() {
        let _t = crate::telemetry_test_lock();
        let _g = qcf_telemetry::faults::chaos_guard();
        qcf_telemetry::faults::disarm();
        // All-spill budget: every sealed frame lives on disk, and the
        // scrub must fetch and re-verify each through the normal path.
        let s = verify_state(8, 3, 3, "LZ4", ErrorBound::Abs(0.0), Some(0)).unwrap();
        assert!(s.ok(), "{s:?}");
        assert!(s.spills > 0, "budget 0 must spill");
        assert!(s.fetches > 0, "scrub must read the disk tier");
        // Identical physics to the unbudgeted run.
        let r = verify_state(8, 3, 3, "LZ4", ErrorBound::Abs(0.0), None).unwrap();
        assert_eq!(s.energy.to_bits(), r.energy.to_bits());
    }

    #[test]
    fn verify_state_detects_injected_bitflip() {
        let _t = crate::telemetry_test_lock();
        let _g = qcf_telemetry::faults::chaos_guard();
        qcf_telemetry::faults::arm_from_spec("seed=5,state.chunk.bitflip@3").unwrap();
        let s = verify_state(8, 3, 3, "LZ4", ErrorBound::Abs(0.0), None).unwrap();
        // verify_state disarms after the run; re-disarm is harmless.
        qcf_telemetry::faults::disarm();
        assert_eq!(s.injected_bitflips, 1, "@3 fires exactly once");
        assert!(s.ok(), "detection contract failed: {s:?}");
        assert!(s.faults.decode_errors >= 1, "bitflip went undetected");
        assert!(s.settled);
    }

    #[test]
    fn state_demo_reports_tier_breakdown() {
        let _t = crate::telemetry_test_lock();
        let mut cfg = StateRunCfg::new(8, 5, 4, "LZ4");
        cfg.bound = ErrorBound::Abs(0.0);
        let base = state_demo(&cfg).unwrap();
        assert_eq!(base.mem_budget, None);
        assert_eq!(base.stats.spills, 0);
        assert_eq!(base.tiers.spilled_bytes, 0);

        cfg.mem_budget = Some(0); // all-spill
        let spilled = state_demo(&cfg).unwrap();
        assert_eq!(spilled.mem_budget, Some(0));
        assert!(spilled.stats.spills > 0, "budget 0 must spill");
        assert!(spilled.stats.fetches > 0);
        assert!(spilled.tiers.spilled_bytes > 0);
        assert!(spilled.tiers.spilled_chunks > 0);
        // Placement never changes physics.
        assert_eq!(spilled.energy.to_bits(), base.energy.to_bits());

        cfg.prefetch = false; // synchronous fetch-on-miss, same bits
        let sync = state_demo(&cfg).unwrap();
        assert_eq!(sync.stats.prefetch_hits, 0);
        assert_eq!(sync.energy.to_bits(), base.energy.to_bits());
    }

    #[test]
    fn qaoa_demo_trace_and_metrics_are_parseable() {
        let _t = crate::telemetry_test_lock();
        qcf_telemetry::set_enabled(true);
        let s = qaoa_demo(10, 21, "QCF-ratio", ErrorBound::Abs(1e-5)).unwrap();
        assert!(s.tensors_compressed > 0);
        assert!(
            !s.stream_lane.events.is_empty(),
            "stream lane must carry kernel events"
        );

        // Chrome trace: valid JSON with host spans from >= 3 categories
        // plus the virtual stream lane.
        let trace_path = tmp("qaoa.trace.json");
        write_trace(&trace_path, std::slice::from_ref(&s.stream_lane)).unwrap();
        let doc = std::fs::read_to_string(&trace_path).unwrap();
        qcf_telemetry::export::validate_json(&doc).expect("trace must be valid JSON");
        let spans = qcf_telemetry::span::snapshot();
        let cats: std::collections::BTreeSet<&str> = spans.iter().map(|e| e.cat).collect();
        assert!(
            ["contract", "stage", "compress"]
                .iter()
                .all(|c| cats.contains(c)),
            "need contraction, stage and compressor-pipeline categories, got {cats:?}"
        );
        assert!(
            doc.contains("\"pid\":2"),
            "stream lane events must be present"
        );

        // Metrics: TSV and JSON both parse, and carry peak-live-bytes and
        // per-compressor CR.
        let tsv_path = tmp("qaoa.metrics.tsv");
        write_metrics(&tsv_path).unwrap();
        let tsv = std::fs::read_to_string(&tsv_path).unwrap();
        assert!(tsv.starts_with("kind\tname\tvalue\textra\n"));
        for line in tsv.lines() {
            assert_eq!(line.split('\t').count(), 4, "malformed TSV row {line:?}");
        }
        assert!(
            tsv.contains("contract.live_bytes"),
            "peak-live-bytes gauge missing:\n{tsv}"
        );
        assert!(
            tsv.contains("compressor.QCF-ratio.cr"),
            "per-compressor CR missing:\n{tsv}"
        );

        let json_path = tmp("qaoa.metrics.json");
        write_metrics(&json_path).unwrap();
        let mjson = std::fs::read_to_string(&json_path).unwrap();
        qcf_telemetry::export::validate_json(&mjson).expect("metrics JSON must be valid");
        assert!(mjson.contains("contract.live_bytes"));
    }

    #[test]
    fn list_names_everything() {
        let l = list();
        for name in [
            "cuSZ",
            "cuSZx",
            "cuZFP",
            "LZ4",
            "GDeflate",
            "QCF-ratio",
            "QCF-speed",
        ] {
            assert!(l.contains(name), "missing {name} in:\n{l}");
        }
    }
}
