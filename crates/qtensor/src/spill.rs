//! Chunk placement: where each sealed chunk frame lives — in RAM, or in
//! an append-log spill file once the compressed-RAM budget
//! (`QCF_MEM_BUDGET`) pushes the coldest out — and the readers that fetch
//! spilled frames ahead of the stage loop.
//!
//! [`Frames`] owns that decision. The state's stage loop gets each frame
//! from it, stamps each touch, feeds it the stage's group list to read
//! ahead in, and puts each freshly encoded frame back; which frames stay
//! in RAM, which spill, when the log compacts and what is read ahead are
//! decided here alone. Frames are checksummed and self-describing, so the
//! disk tier needs no format of its own, and a fetched frame goes through
//! the same decode → retry → quarantine chain as one that never left RAM.
//!
//! ## Log semantics and crash consistency
//!
//! Appends only: a re-spilled chunk gets a fresh record and the old one is
//! dead space until [`SpillTier::compact`] rewrites the live records and
//! atomically swaps the file, so a long session's log stays bounded. Every
//! record carries a monotone *generation*: crash recovery keeps the newest
//! record of each chunk, and a read of an older generation than the
//! chunk's current record is refused as stale. Each record is framed as
//! `["QCR2" magic][chunk u32][gen u64][len u32][checksum(payload) u32]` +
//! payload (24-byte header, little endian; the checksum is the frames'
//! XXH32, [`codec_kit::frame::checksum`]). Only the process that wrote a
//! log reads it (a dead owner's logs are swept), so there is no reader for
//! the older FNV-1a records ("QFCR" magic). In-session reads stay raw — a
//! torn or corrupt payload fails its sealed frame's checksum downstream —
//! and the header exists for [`SpillTier::open_recover`], which re-scans
//! a log after a crash and truncates it at the first torn record (the
//! `spill.torn_tail` fault site cuts a write short to model that crash).
//! Logs are named with the owning pid; opening one sweeps leftovers whose
//! owner is dead.
//!
//! ## Readahead
//!
//! A prefetched run starts [`PREFETCH_READERS`] threads that only read
//! bytes ([`Readahead`]); every frame is still decoded on the main thread,
//! so fault draws and their accounting stay on one thread. A request
//! carries the log's file handle as it was when the read was requested: a
//! compaction mid-run swaps the log, and reads in flight finish on the old
//! file, which the swap unlinks but never changes. `QCF_SPILL_LATENCY_US`
//! adds a per-read sleep that models a slow device, so the async/sync A-B
//! comparisons in tests and `qcfz report` can measure the overlap.

use crate::compressed_state::{StateStats, TierBreakdown};
use codec_kit::frame::checksum;
use qcf_telemetry::journal::{self, EventKind};
use qcf_telemetry::{lock_unpoisoned, Counter, Gauge, GaugeTrack};
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, Once};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Reader threads per prefetched run: two frames in flight while the main
/// thread computes.
const PREFETCH_READERS: usize = 2;
/// Most reads outstanding at once (requested and not yet taken).
const PREFETCH_WINDOW: usize = 8;
/// How many upcoming touches of the stage's group list a top-up scans for
/// spilled chunks. Without the bound the window fills with chunks far
/// ahead while the next few touches miss.
const PREFETCH_LOOKAHEAD: usize = 64;

/// Chaos sites `state.chunk.bitflip` (a frame just stored in RAM) and
/// `state.spill.bitflip` (a frame's on-disk record only): when `site`
/// fires, one bit of `frame` flips, which its checksum must catch at the
/// next decode. Byte 0 is never flipped: clearing its frame-flag bit would
/// fake a legacy-v1 stream that decodes to garbage, an *undetectable*
/// fault outside the model. A frame of one byte or less draws nothing.
pub(crate) fn inject_bitflip(site: &str, frame: &mut [u8]) {
    if frame.len() > 1 {
        if let Some(draw) = qcf_telemetry::faults::inject(site) {
            let bit = 8 + (draw as usize) % ((frame.len() - 1) * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

// ---------------------------------------------------------------------------
// The spill tier
// ---------------------------------------------------------------------------

/// On-disk record framing: `[magic u32][chunk u32][gen u64][len u32]
/// [checksum(payload) u32]`, all little-endian, payload follows.
pub(crate) const RECORD_MAGIC: u32 = u32::from_le_bytes(*b"QCR2");
/// Bytes of the per-record header.
pub(crate) const RECORD_HEADER: usize = 24;

/// One live record in the append-log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpillEntry {
    /// Byte offset of the record's *payload* (the sealed frame), so raw
    /// readers stay oblivious to the header in front of it.
    pub offset: u64,
    pub len: u32,
    /// Monotone re-spill generation: the newest record wins recovery,
    /// and a read of an older one is stale.
    pub gen: u64,
}

/// Disambiguates spill files of multiple states in one process.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Fills the header of `rec`, a record whose payload already follows its
/// first [`RECORD_HEADER`] bytes.
fn seal_record(rec: &mut [u8], chunk: u32, gen: u64) {
    let (header, payload) = rec.split_at_mut(RECORD_HEADER);
    header[0..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&chunk.to_le_bytes());
    header[8..16].copy_from_slice(&gen.to_le_bytes());
    header[16..20].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[20..24].copy_from_slice(&checksum(payload).to_le_bytes());
}

/// Reads `entry`'s frame bytes from `file` after the simulated device
/// latency: the one read behind fetches, in-place reads and the readahead.
fn read_record(file: &Mutex<File>, entry: SpillEntry, latency_us: u64) -> std::io::Result<Vec<u8>> {
    if latency_us > 0 {
        std::thread::sleep(Duration::from_micros(latency_us));
    }
    let mut bytes = vec![0u8; entry.len as usize];
    read_zero_padded(&mut lock_unpoisoned(file), entry.offset, &mut bytes)?;
    Ok(bytes)
}

/// Reads as many bytes as the file still has, leaving the rest zero:
/// a torn tail reads back as zeros, which the sealed frame's checksum
/// rejects downstream instead of turning the read into a hard error.
fn read_zero_padded(f: &mut File, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
    f.seek(SeekFrom::Start(offset))?;
    let mut filled = 0;
    while filled < buf.len() {
        match f.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    buf[filled..].fill(0);
    Ok(())
}

// ---------------------------------------------------------------------------
// Stale-file hygiene (crash-leftover spill logs and checkpoint temps)
// ---------------------------------------------------------------------------

/// The creating pid encoded in a spill-log or checkpoint-temp filename
/// (`qcf-spill-<pid>-<seq>.log`, `<snapshot>.tmp.<pid>`), if any.
fn stale_owner(name: &str) -> Option<u32> {
    if let Some(rest) = name.strip_prefix("qcf-spill-") {
        return rest.split('-').next()?.parse().ok();
    }
    if let Some(pos) = name.rfind(".tmp.") {
        return name[pos + 5..].parse().ok();
    }
    None
}

/// True when `pid` still runs. Without procfs we cannot tell, so we
/// claim alive — hygiene must never delete a live process's files.
fn pid_alive(pid: u32) -> bool {
    if !Path::new("/proc/self").exists() {
        return true;
    }
    Path::new("/proc").join(pid.to_string()).exists()
}

/// Removes crash leftovers in `dir`: spill logs and checkpoint temps
/// whose creating process is dead. Returns how many files went away.
pub fn sweep_stale_dir(dir: &Path) -> usize {
    let own = std::process::id();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(pid) = stale_owner(name) else {
            continue;
        };
        if pid == own || pid_alive(pid) {
            continue;
        }
        if std::fs::remove_file(entry.path()).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Once per process, on the first spill-file creation: sweep the temp
/// dir for leftovers of crashed runs.
fn sweep_stale_temp_once() {
    static SWEEP: Once = Once::new();
    SWEEP.call_once(|| {
        sweep_stale_dir(&std::env::temp_dir());
    });
}

/// The per-state disk tier. Inert (no file) until the first spill.
pub(crate) struct SpillTier {
    path: PathBuf,
    /// Lazily created; behind a mutex so `&self` readers ([`Frames::read`])
    /// can seek + read, and shared so a read request keeps the handle it
    /// was issued against across a compaction.
    file: Option<Arc<Mutex<File>>>,
    index: Vec<Option<SpillEntry>>,
    end: u64,
    /// Bytes of live (non-superseded) spilled frames.
    live_bytes: u64,
    next_gen: u64,
    /// Simulated per-read device latency (`QCF_SPILL_LATENCY_US`).
    latency_us: u64,
}

impl SpillTier {
    pub fn new(n_chunks: usize) -> Self {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("qcf-spill-{}-{seq}.log", std::process::id()));
        SpillTier {
            path,
            file: None,
            index: vec![None; n_chunks],
            end: 0,
            live_bytes: 0,
            next_gen: 1,
            latency_us: qcf_telemetry::config::config().spill_latency_us,
        }
    }

    /// Creates the spill file if it does not exist yet. The first creation
    /// in a process also sweeps the temp dir for crash leftovers of dead
    /// runs.
    fn ensure_file(&mut self) -> std::io::Result<()> {
        if self.file.is_none() {
            sweep_stale_temp_once();
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&self.path)?;
            self.file = Some(Arc::new(Mutex::new(f)));
        }
        Ok(())
    }

    /// Reopens a spill log after a crash: keeps the newest record of each
    /// chunk and truncates the file at the first torn record (short header,
    /// payload past EOF, or checksum mismatch). Never panics.
    pub fn open_recover(path: &Path, n_chunks: usize) -> std::io::Result<Self> {
        let mut f = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = f.metadata()?.len();
        let mut index: Vec<Option<SpillEntry>> = vec![None; n_chunks];
        let mut pos = 0u64;
        let mut next_gen = 1u64;
        let mut header = [0u8; RECORD_HEADER];
        while pos + RECORD_HEADER as u64 <= file_len {
            f.seek(SeekFrom::Start(pos))?;
            f.read_exact(&mut header)?;
            let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
            let id = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
            let gen = u64::from_le_bytes(header[8..16].try_into().unwrap());
            let len = u32::from_le_bytes(header[16..20].try_into().unwrap());
            let crc = u32::from_le_bytes(header[20..24].try_into().unwrap());
            let payload_off = pos + RECORD_HEADER as u64;
            if magic != RECORD_MAGIC || id >= n_chunks || payload_off + u64::from(len) > file_len {
                break;
            }
            let mut payload = vec![0u8; len as usize];
            f.read_exact(&mut payload)?;
            if checksum(&payload) != crc {
                break;
            }
            let entry = SpillEntry {
                offset: payload_off,
                len,
                gen,
            };
            if index[id].is_none_or(|old| gen > old.gen) {
                index[id] = Some(entry);
            }
            next_gen = next_gen.max(gen + 1);
            pos = payload_off + u64::from(len);
        }
        if pos < file_len {
            f.set_len(pos)?; // drop the torn tail
        }
        let live_bytes = index.iter().flatten().map(|e| u64::from(e.len)).sum();
        Ok(SpillTier {
            path: path.to_path_buf(),
            file: Some(Arc::new(Mutex::new(f))),
            index,
            end: pos,
            live_bytes,
            next_gen,
            latency_us: qcf_telemetry::config::config().spill_latency_us,
        })
    }

    /// Appends `bytes` as chunk `id`'s new on-disk record, superseding any
    /// previous one. Returns the fresh entry. Under the
    /// `state.spill.bitflip` fault site the record's copy of the frame
    /// takes a bit flip ([`inject_bitflip`]; the caller's bytes stay
    /// intact). Under `spill.torn_tail` the write is cut short (modelling a
    /// crash mid-append) while the index still advances — exactly the
    /// state a real torn append leaves behind for recovery to clean up.
    pub fn append(&mut self, id: usize, bytes: &[u8]) -> std::io::Result<SpillEntry> {
        let gen = self.next_gen;
        let mut rec = vec![0u8; RECORD_HEADER + bytes.len()];
        rec[RECORD_HEADER..].copy_from_slice(bytes);
        inject_bitflip("state.spill.bitflip", &mut rec[RECORD_HEADER..]);
        seal_record(&mut rec, id as u32, gen);
        self.ensure_file()?;
        let file = self.file.as_ref().expect("just ensured");
        let record_start = self.end;
        let write_len = match qcf_telemetry::faults::inject("spill.torn_tail") {
            // Strictly short of a full record: a crash mid-append.
            Some(draw) => (draw as usize) % rec.len(),
            None => rec.len(),
        };
        {
            let mut f = lock_unpoisoned(file);
            f.seek(SeekFrom::Start(record_start))?;
            f.write_all(&rec[..write_len])?;
        }
        let entry = SpillEntry {
            offset: record_start + RECORD_HEADER as u64,
            len: bytes.len() as u32,
            gen,
        };
        self.next_gen += 1;
        self.end = record_start + rec.len() as u64;
        if let Some(old) = self.index[id].replace(entry) {
            self.live_bytes -= u64::from(old.len);
        }
        self.live_bytes += u64::from(entry.len);
        Ok(entry)
    }

    /// Rewrites live records into a fresh log and atomically swaps it
    /// over the old one (write → fsync → rename), dropping dead space and
    /// keeping generations. Returns the bytes reclaimed.
    pub fn compact(&mut self) -> std::io::Result<u64> {
        let Some(file) = self.file.as_ref() else {
            return Ok(0);
        };
        if self.dead_bytes() == 0 {
            return Ok(0);
        }
        let tmp_path = self.path.with_extension("compact");
        let mut out = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        {
            let mut f = lock_unpoisoned(file);
            for (id, slot) in self.index.iter().enumerate() {
                let Some(e) = slot else { continue };
                // Bytes are copied verbatim — a corrupt payload stays
                // corrupt and is still caught by its sealed frame at
                // decode time; compaction must never mask or drop it.
                // (Its record checksum is recomputed over the bytes as
                // read, so the re-scan below indexes it like any other.)
                let mut rec = vec![0u8; RECORD_HEADER + e.len as usize];
                read_zero_padded(&mut f, e.offset, &mut rec[RECORD_HEADER..])?;
                seal_record(&mut rec, id as u32, e.gen);
                out.write_all(&rec)?;
            }
        }
        out.sync_all()?;
        drop(out);
        std::fs::rename(&tmp_path, &self.path)?;
        let old_end = self.end;
        // Rebuild the index by re-scanning the swapped log through the
        // crash-recovery reader: the old handle still maps the pre-swap
        // inode (so it must be reopened anyway), and the scan doubles as
        // a self-check that the rewrite produced a fully-framed log.
        let mut recovered = SpillTier::open_recover(&self.path, self.index.len())?;
        std::mem::swap(&mut self.file, &mut recovered.file);
        std::mem::swap(&mut self.index, &mut recovered.index);
        self.live_bytes = recovered.live_bytes;
        self.end = recovered.end;
        // Generations stay monotone even if the rewritten log's max gen
        // is behind the in-memory counter (fetched-back chunks).
        self.next_gen = self.next_gen.max(recovered.next_gen);
        // `recovered` shares our live path: repoint it at the (already
        // renamed-away) temp name so its Drop cannot delete the log; it
        // still closes the pre-swap handle it took in the swap above.
        recovered.path = tmp_path;
        Ok(old_end - self.end)
    }

    /// Live payload + header bytes — what a compacted log would occupy.
    fn live_record_bytes(&self) -> u64 {
        self.live_bytes + self.spilled_chunks() as u64 * RECORD_HEADER as u64
    }

    /// Dead (superseded or invalidated) bytes still occupying the log.
    pub fn dead_bytes(&self) -> u64 {
        self.end - self.live_record_bytes()
    }

    /// Total log bytes on disk (live + dead).
    pub fn file_bytes(&self) -> u64 {
        self.end
    }

    /// Compaction policy: the log is at least 4x its live payload and
    /// carries at least 4 KiB of dead space — churn-proportional, so a
    /// short run never pays a rewrite.
    pub fn should_compact(&self) -> bool {
        self.end >= 4 * self.live_record_bytes().max(1) && self.dead_bytes() >= 4096
    }

    /// The live record for chunk `id`, if it is currently spilled.
    pub fn entry(&self, id: usize) -> Option<SpillEntry> {
        self.index.get(id).copied().flatten()
    }

    /// Drops chunk `id`'s record (it is back in RAM or superseded).
    pub fn invalidate(&mut self, id: usize) -> Option<SpillEntry> {
        let old = self.index.get_mut(id)?.take();
        if let Some(e) = old {
            self.live_bytes -= u64::from(e.len);
        }
        old
    }

    /// Synchronous read of `entry`'s frame bytes ([`read_record`]).
    pub fn read(&self, entry: SpillEntry) -> std::io::Result<Vec<u8>> {
        let file = self
            .file
            .as_ref()
            .ok_or_else(|| std::io::Error::other("spill file not created"))?;
        read_record(file, entry, self.latency_us)
    }

    /// Chunks currently resident on disk.
    pub fn spilled_chunks(&self) -> usize {
        self.index.iter().filter(|e| e.is_some()).count()
    }
}

impl Drop for SpillTier {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

// ---------------------------------------------------------------------------
// Readahead
// ---------------------------------------------------------------------------

/// One read for a reader: chunk `id`'s record on the log file as it was
/// when the read was requested.
struct ReadRequest {
    id: usize,
    entry: SpillEntry,
    file: Arc<Mutex<File>>,
}

/// A finished read: the chunk, the generation read, and the bytes
/// (`None` when the read failed).
type ReadDone = (usize, u64, Option<Vec<u8>>);

/// One reader thread: reads each requested record and sends its bytes
/// back, until the request channel closes. It decodes nothing.
fn reader(requests: &Mutex<Receiver<ReadRequest>>, done: &Sender<ReadDone>, latency_us: u64) {
    loop {
        // The receiver's lock is released at the end of this statement, so
        // the other reader takes the next request while this one reads.
        let Ok(req) = lock_unpoisoned(requests).recv() else {
            return;
        };
        let bytes = read_record(&req.file, req.entry, latency_us).ok();
        if done.send((req.id, req.entry.gen, bytes)).is_err() {
            return;
        }
    }
}

/// The stage loop's side of the readers during one prefetched run.
pub(crate) struct Readahead {
    requests: Sender<ReadRequest>,
    done: Receiver<ReadDone>,
    /// Chunks requested and not yet taken: the window.
    inflight: Vec<usize>,
    /// Finished reads not yet taken.
    ready: Vec<ReadDone>,
}

impl Readahead {
    /// Starts [`PREFETCH_READERS`] readers on `scope`. They exit once the
    /// readahead is dropped, which closes their request channel.
    pub fn start<'scope>(scope: &'scope Scope<'scope, '_>, latency_us: u64) -> Self {
        let (requests, rx) = mpsc::channel();
        let (done_tx, done) = mpsc::channel();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..PREFETCH_READERS {
            let (rx, done_tx) = (Arc::clone(&rx), done_tx.clone());
            scope.spawn(move || reader(&rx, &done_tx, latency_us));
            gpu_model::exec::count_thread_spawn();
        }
        Readahead {
            requests,
            done,
            inflight: Vec::with_capacity(PREFETCH_WINDOW),
            ready: Vec::with_capacity(PREFETCH_WINDOW),
        }
    }

    /// Requests, in order, the chunks among `touches` that live on `tier`,
    /// until [`PREFETCH_WINDOW`] reads are outstanding. A chunk already
    /// requested is not requested again.
    pub fn request(&mut self, tier: &SpillTier, touches: impl Iterator<Item = usize>) {
        let Some(file) = tier.file.as_ref() else {
            return;
        };
        for id in touches {
            if self.inflight.len() >= PREFETCH_WINDOW {
                return;
            }
            let Some(entry) = tier.entry(id).filter(|_| !self.inflight.contains(&id)) else {
                continue;
            };
            self.inflight.push(id);
            // The readers outlive the readahead, so the send cannot fail.
            let _ = self.requests.send(ReadRequest {
                id,
                entry,
                file: Arc::clone(file),
            });
        }
    }

    /// The bytes of chunk `id`'s record at generation `gen`, waiting for
    /// the read if it is still in flight. `None` when the chunk was never
    /// requested, the read failed or it read an older generation (stale):
    /// the caller then reads synchronously.
    pub fn take(&mut self, id: usize, gen: u64) -> Option<Vec<u8>> {
        let pos = self.inflight.iter().position(|&i| i == id)?;
        self.inflight.swap_remove(pos);
        loop {
            if let Some(pos) = self.ready.iter().position(|r| r.0 == id) {
                let (_, read_gen, bytes) = self.ready.swap_remove(pos);
                return bytes.filter(|_| read_gen == gen);
            }
            // An error means both readers are gone: nothing more arrives.
            let done = self.done.recv().ok()?;
            self.ready.push(done);
        }
    }
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

/// Where each chunk's sealed frame lives: in RAM, or on the spill log —
/// never both. Owns the RAM frames, the budget and coldness stamps, the
/// log and its compaction, a prefetched run's readahead, and the
/// `state.resident_bytes`, `state.spill.*` and `state.prefetch.*`
/// instruments; each event writes its [`StateStats`] fields where it
/// happens.
pub(crate) struct Frames {
    /// Each chunk's frame while it is in RAM; empty while it is on disk.
    ram: Vec<Vec<u8>>,
    /// Bytes of `ram`, mirrored into the `state.resident_bytes` gauge.
    resident: GaugeTrack,
    /// Compressed-RAM budget in bytes (`QCF_MEM_BUDGET`).
    budget: Option<usize>,
    /// Last-touch stamp per chunk: the coldest frame spills first.
    stamp: Vec<u64>,
    tick: u64,
    /// The disk tier (inert until the first spill).
    tier: SpillTier,
    /// Set after a spill I/O failure: stop spilling, keep frames in RAM.
    disabled: bool,
    /// The spill readers' feed during a prefetched run.
    readahead: Option<Readahead>,
    writes: Arc<Counter>,
    reads: Arc<Counter>,
    written_bytes: Arc<Counter>,
    live_bytes: GaugeTrack,
    /// Dead (superseded-record) bytes in the log — the level the
    /// `capacity.spill_dead` SLO watches; compaction drives it back down.
    dead_bytes: Arc<Gauge>,
    compactions: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    stall_us: Arc<Counter>,
}

impl Frames {
    /// Placement for `n_chunks` chunks under the configured budget and
    /// device latency; [`load`](Self::load) installs the frames.
    pub fn new(n_chunks: usize) -> Self {
        let reg = qcf_telemetry::registry();
        Frames {
            ram: Vec::new(),
            resident: reg.gauge("state.resident_bytes").track(),
            budget: qcf_telemetry::config::config().mem_budget,
            stamp: vec![0; n_chunks],
            tick: 0,
            tier: SpillTier::new(n_chunks),
            disabled: false,
            readahead: None,
            writes: reg.counter("state.spill.writes"),
            reads: reg.counter("state.spill.reads"),
            written_bytes: reg.counter("state.spill.bytes"),
            live_bytes: reg.gauge("state.spill.live_bytes").track(),
            dead_bytes: reg.gauge("state.spill.dead_bytes"),
            compactions: reg.counter("state.spill.compactions"),
            hits: reg.counter("state.prefetch.hits"),
            misses: reg.counter("state.prefetch.misses"),
            stall_us: reg.counter("state.prefetch.stall_us"),
        }
    }

    /// Installs every chunk's frame (a fresh or a resumed state) in RAM,
    /// then spills to the budget.
    pub fn load(&mut self, frames: Vec<Vec<u8>>, stats: &mut StateStats) {
        let bytes: usize = frames.iter().map(Vec::len).sum();
        self.ram = frames;
        self.book_resident(bytes as i64, stats);
        self.book_log(stats);
        self.spill_to_budget(stats);
    }

    /// The budget in bytes (`None` = unbounded).
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Sets the budget and spills to it at once.
    pub fn set_budget(&mut self, budget: Option<usize>, stats: &mut StateStats) {
        self.budget = budget;
        self.spill_to_budget(stats);
    }

    /// Overrides the simulated per-read latency (`QCF_SPILL_LATENCY_US`).
    pub fn set_latency_us(&mut self, us: u64) {
        self.tier.latency_us = us;
    }

    /// Where the frames stand: RAM against the disk tier.
    pub fn breakdown(&self) -> TierBreakdown {
        TierBreakdown {
            ram_compressed_bytes: self.resident.value() as usize,
            spilled_bytes: self.tier.live_bytes as usize,
            spilled_chunks: self.tier.spilled_chunks(),
            spill_file_bytes: self.tier.file_bytes() as usize,
        }
    }

    /// Stamps chunk `id` as touched by a stage just now (spill coldness).
    pub fn touch(&mut self, id: usize) {
        self.tick += 1;
        self.stamp[id] = self.tick;
    }

    /// Chunk `id`'s frame on the data path, brought back into RAM first if
    /// it was spilled: a read the stage loop requested is taken (*hit* —
    /// even when it still waits for it, so hit/miss counts depend only on
    /// where reads are requested and taken, never on timing), else the
    /// frame is read synchronously (*miss*).
    pub fn get(&mut self, id: usize, stats: &mut StateStats) -> &[u8] {
        if let Some(entry) = self.tier.entry(id) {
            let t0 = Instant::now();
            let prefetched = self
                .readahead
                .as_mut()
                .and_then(|ra| ra.take(id, entry.gen));
            let hit = prefetched.is_some();
            // A failed synchronous read leaves empty bytes: the decode fails
            // and the chunk goes through retry → quarantine with exact
            // accounting.
            let bytes = prefetched.unwrap_or_else(|| self.tier.read(entry).unwrap_or_default());
            let stall = t0.elapsed().as_micros() as u64;
            stats.prefetch_stall_us += stall;
            self.stall_us.add(stall);
            let (count, counter) = match hit {
                true => (&mut stats.prefetch_hits, &self.hits),
                false => (&mut stats.prefetch_misses, &self.misses),
            };
            *count += 1;
            counter.inc();
            self.drop_record(id, stats);
            stats.fetches += 1;
            self.reads.inc();
            journal::record(id as u64, EventKind::Fetch, bytes.len() as f64);
            self.book_resident(bytes.len() as i64, stats);
            self.ram[id] = bytes;
        }
        &self.ram[id]
    }

    /// Chunk `id`'s frame for a `&self` reader (read-only scans,
    /// checkpoints): the RAM copy, or the disk record read *in place* —
    /// counted in `state.spill.reads`, but the frame stays where it is.
    pub fn read(&self, id: usize) -> std::io::Result<Cow<'_, [u8]>> {
        match self.tier.entry(id) {
            Some(entry) => self
                .tier
                .read(entry)
                .inspect(|_| self.reads.inc())
                .map(Cow::Owned),
            None => Ok(Cow::Borrowed(&self.ram[id])),
        }
    }

    /// Chunk `id`'s RAM frame, moved out so the next encode reuses its
    /// allocation; [`put`](Self::put) stores the new frame.
    pub fn take(&mut self, id: usize, stats: &mut StateStats) -> Vec<u8> {
        let bytes = std::mem::take(&mut self.ram[id]);
        self.book_resident(-(bytes.len() as i64), stats);
        bytes
    }

    /// Stores chunk `id`'s freshly encoded frame in RAM, drops the disk
    /// record it supersedes, and spills back under the budget.
    pub fn put(&mut self, id: usize, bytes: Vec<u8>, stats: &mut StateStats) {
        self.drop_record(id, stats);
        self.book_resident(bytes.len() as i64, stats);
        self.ram[id] = bytes;
        self.spill_to_budget(stats);
    }

    /// Starts the spill readers on `scope` for a prefetched run when there
    /// is anything to read ahead (a budget is set and the log still works);
    /// `None` stops them, closing their request channel so the scope can
    /// join them.
    pub fn read_ahead<'scope>(&mut self, scope: Option<&'scope Scope<'scope, '_>>) {
        let on = self.budget.is_some() && !self.disabled;
        self.readahead = scope
            .filter(|_| on)
            .map(|s| Readahead::start(s, self.tier.latency_us));
    }

    /// During a prefetched run, requests the spilled chunks among the next
    /// [`PREFETCH_LOOKAHEAD`] of `touches`, the stage's upcoming group
    /// members in touch order.
    pub fn request(&mut self, touches: impl Iterator<Item = usize>) {
        if let Some(ra) = self.readahead.as_mut() {
            ra.request(&self.tier, touches.take(PREFETCH_LOOKAHEAD));
        }
    }

    /// Spills coldest-first (lowest id on a tie) until the frames in RAM
    /// fit the budget.
    pub fn spill_to_budget(&mut self, stats: &mut StateStats) {
        let Some(budget) = self.budget else {
            return;
        };
        while !self.disabled && (self.resident.value() as usize) > budget {
            let victim = (0..self.ram.len())
                .filter(|&id| !self.ram[id].is_empty())
                .min_by_key(|&id| self.stamp[id]);
            let Some(id) = victim else {
                break;
            };
            self.spill(id, stats);
        }
    }

    /// Moves chunk `id`'s frame from RAM to the log. An I/O failure disables
    /// the tier with a warning and keeps the frame in RAM: the simulation
    /// degrades to unbounded, it never loses data.
    fn spill(&mut self, id: usize, stats: &mut StateStats) {
        let bytes = std::mem::take(&mut self.ram[id]);
        match self.tier.append(id, &bytes) {
            Ok(entry) => {
                self.book_resident(-(bytes.len() as i64), stats);
                stats.spills += 1;
                self.writes.inc();
                self.written_bytes.add(bytes.len() as u64);
                self.live_bytes.add(i64::from(entry.len));
                journal::record(id as u64, EventKind::Spill, bytes.len() as f64);
                self.book_log(stats);
                self.maybe_compact(stats);
            }
            Err(e) => {
                eprintln!("warning: disk spill tier disabled after I/O error: {e}");
                self.disabled = true;
                self.ram[id] = bytes;
            }
        }
    }

    /// Compacts the log when its dead-space policy says a rewrite pays
    /// ([`SpillTier::should_compact`]). A failure leaves the log as it was
    /// (the rewrite goes to a temp file first) and only warns.
    fn maybe_compact(&mut self, stats: &mut StateStats) {
        if !self.tier.should_compact() {
            return;
        }
        match self.tier.compact() {
            Ok(0) => {}
            Ok(reclaimed) => {
                stats.compactions += 1;
                stats.spill_reclaimed_bytes += reclaimed;
                self.compactions.inc();
                for id in 0..self.ram.len() {
                    if let Some(e) = self.tier.entry(id) {
                        let record = e.len as usize + RECORD_HEADER;
                        journal::record(id as u64, EventKind::Compact, record as f64);
                    }
                }
                self.book_log(stats);
            }
            Err(e) => eprintln!("warning: spill compaction failed (log left as-is): {e}"),
        }
    }

    /// Drops chunk `id`'s disk record, if any: the frame is back in RAM, or
    /// a fresh one supersedes it.
    fn drop_record(&mut self, id: usize, stats: &mut StateStats) {
        if let Some(old) = self.tier.invalidate(id) {
            self.live_bytes.add(-i64::from(old.len));
            self.book_log(stats);
        }
    }

    /// Moves the resident level by `delta` bytes.
    fn book_resident(&mut self, delta: i64, stats: &mut StateStats) {
        self.resident.add(delta);
        stats.resident_bytes = self.resident.value() as usize;
        stats.peak_resident_bytes = self.resident.peak() as usize;
    }

    /// Records the log's live and dead bytes after it changed.
    fn book_log(&self, stats: &mut StateStats) {
        stats.spilled_bytes = self.tier.live_bytes as usize;
        self.dead_bytes.set(self.tier.dead_bytes() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_read_roundtrip_with_generations() {
        let _guard = qcf_telemetry::faults::chaos_guard();
        let mut tier = SpillTier::new(4);
        let e1 = tier.append(2, b"hello frame").unwrap();
        assert_eq!(tier.spilled_chunks(), 1);
        assert_eq!(tier.live_bytes, 11);
        assert_eq!(tier.read(e1).unwrap(), b"hello frame");
        // Re-spill supersedes: live bytes track the new record only.
        let e2 = tier.append(2, b"v2").unwrap();
        assert!(e2.gen > e1.gen);
        assert_eq!(tier.live_bytes, 2);
        assert_eq!(tier.read(e2).unwrap(), b"v2");
        // The old record still physically exists (append-log), but the
        // index no longer points at it.
        assert_eq!(tier.entry(2).unwrap(), e2);
        assert_eq!(tier.invalidate(2), Some(e2));
        assert_eq!(tier.live_bytes, 0);
        assert_eq!(tier.entry(2), None);
    }

    #[test]
    fn open_recover_rebuilds_index_and_truncates_torn_tail() {
        let _guard = qcf_telemetry::faults::chaos_guard();
        let mut tier = SpillTier::new(3);
        let _ = tier.append(0, b"alpha").unwrap();
        let _ = tier.append(1, b"beta!").unwrap();
        let e0b = tier.append(0, b"alpha-v2").unwrap(); // supersedes gen 1
        let path = tier.path.clone();
        let end = tier.file_bytes();
        // Simulate a crash mid-append: a torn record after the last
        // complete one (header + half the payload).
        {
            let mut rec = [&[0; RECORD_HEADER][..], b"torn-payload"].concat();
            seal_record(&mut rec, 2, 99);
            rec.truncate(RECORD_HEADER + 6);
            let mut f = OpenOptions::new().write(true).open(&path).unwrap();
            f.seek(SeekFrom::Start(end)).unwrap();
            f.write_all(&rec).unwrap();
        }
        std::mem::forget(tier); // crash: no Drop, file stays behind
        let rec = SpillTier::open_recover(&path, 3).unwrap();
        assert_eq!(rec.spilled_chunks(), 2);
        assert_eq!(rec.entry(2), None, "torn record must not be indexed");
        assert_eq!(rec.read(rec.entry(0).unwrap()).unwrap(), b"alpha-v2");
        assert_eq!(rec.read(rec.entry(1).unwrap()).unwrap(), b"beta!");
        assert_eq!(rec.entry(0).unwrap().gen, e0b.gen, "generations survive");
        assert_eq!(rec.file_bytes(), end, "torn tail truncated away");
        assert!(rec.next_gen > e0b.gen);
    }

    #[test]
    fn compaction_drops_dead_space_and_preserves_reads() {
        let _guard = qcf_telemetry::faults::chaos_guard();
        let mut tier = SpillTier::new(2);
        for i in 0..200u32 {
            tier.append(0, format!("record-{i:04}").as_bytes()).unwrap();
        }
        let e1 = tier.append(1, b"keeper").unwrap();
        assert!(tier.should_compact(), "200x churn must trip the policy");
        let before = tier.file_bytes();
        let reclaimed = tier.compact().unwrap();
        assert!(reclaimed > 0);
        assert_eq!(tier.file_bytes(), before - reclaimed);
        assert_eq!(tier.dead_bytes(), 0);
        assert_eq!(tier.read(tier.entry(0).unwrap()).unwrap(), b"record-0199");
        assert_eq!(tier.read(tier.entry(1).unwrap()).unwrap(), b"keeper");
        assert_eq!(tier.entry(1).unwrap().gen, e1.gen, "gens preserved");
        assert!(!tier.should_compact());
        // The swapped file is also recoverable as-is.
        let on_disk = std::fs::metadata(&tier.path).unwrap().len();
        assert_eq!(on_disk, tier.file_bytes());
    }

    #[test]
    fn sweep_removes_only_dead_owners_files() {
        let dir = std::env::temp_dir().join("qcf-sweep-test");
        std::fs::create_dir_all(&dir).unwrap();
        let own = std::process::id();
        // u32::MAX is above any real pid_max; it can never be alive.
        let dead = dir.join("qcf-spill-4294967295-0.log");
        let dead_tmp = dir.join("snap.qcfs.tmp.4294967295");
        let live = dir.join(format!("qcf-spill-{own}-7.log"));
        let unrelated = dir.join("keep.log");
        for p in [&dead, &dead_tmp, &live, &unrelated] {
            std::fs::write(p, b"x").unwrap();
        }
        let removed = sweep_stale_dir(&dir);
        assert_eq!(removed, 2);
        assert!(!dead.exists() && !dead_tmp.exists());
        assert!(live.exists() && unrelated.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_fault_cuts_the_write_short_for_recovery_to_drop() {
        use qcf_telemetry::faults;
        let _guard = faults::chaos_guard();
        let mut tier = SpillTier::new(2);
        tier.append(0, b"complete-record").unwrap();
        faults::arm_from_spec("seed=7,spill.torn_tail@1").unwrap();
        let torn = tier.append(1, b"doomed-record!!").unwrap();
        faults::disarm();
        // In-session: the read zero-pads and the (absent) payload would
        // fail its sealed-frame checksum downstream.
        let bytes = tier.read(torn).unwrap();
        assert_eq!(bytes.len(), 15);
        assert_ne!(bytes, b"doomed-record!!");
        // Across a crash: recovery keeps the intact record, drops the torn.
        let path = tier.path.clone();
        std::mem::forget(tier);
        let rec = SpillTier::open_recover(&path, 2).unwrap();
        assert_eq!(rec.spilled_chunks(), 1);
        assert_eq!(rec.read(rec.entry(0).unwrap()).unwrap(), b"complete-record");
    }

    #[test]
    fn spill_file_is_removed_on_drop() {
        let _guard = qcf_telemetry::faults::chaos_guard();
        let path = {
            let mut tier = SpillTier::new(1);
            tier.append(0, b"x").unwrap();
            let p = tier.path.clone();
            assert!(p.exists());
            p
        };
        assert!(!path.exists());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 8,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Crash-consistency, exhaustively: append N records, then cut
        /// the log at *every* byte boundary of the tail record (from its
        /// first header byte up to one byte short of complete). Recovery
        /// must always yield exactly the N−1 intact records, payloads
        /// bit-for-bit, with the torn tail truncated away — no panic, no
        /// partial record ever surfacing.
        #[test]
        fn recovery_survives_truncation_at_every_tail_byte(
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 1..40),
                2..6,
            ),
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let _guard = qcf_telemetry::faults::chaos_guard();
            let n = payloads.len();
            let mut tier = SpillTier::new(n);
            let mut tail_start = 0;
            for (id, p) in payloads.iter().enumerate() {
                tail_start = tier.file_bytes();
                tier.append(id, p).unwrap();
            }
            let end = tier.file_bytes();
            let path = tier.path.clone();
            std::mem::forget(tier); // crash: no Drop, the log stays behind
            let bytes = std::fs::read(&path).unwrap();
            for cut in tail_start..end {
                let copy = path.with_extension(format!("cut{cut}"));
                std::fs::write(&copy, &bytes[..cut as usize]).unwrap();
                let rec = SpillTier::open_recover(&copy, n).unwrap();
                prop_assert_eq!(rec.spilled_chunks(), n - 1, "cut at {}", cut);
                prop_assert_eq!(rec.entry(n - 1), None, "torn tail indexed at {}", cut);
                for (id, p) in payloads.iter().enumerate().take(n - 1) {
                    let e = rec.entry(id).unwrap();
                    prop_assert_eq!(&rec.read(e).unwrap(), p, "cut at {}", cut);
                }
                prop_assert_eq!(rec.file_bytes(), tail_start, "cut at {}", cut);
                prop_assert!(
                    std::fs::metadata(&copy).unwrap().len() == tail_start,
                    "torn bytes left on disk at cut {}", cut
                );
                drop(rec); // Drop removes the copy
                prop_assert!(!copy.exists());
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    const MODEL_CHUNKS: usize = 8;

    /// One step of the store model ([`store_matches_a_plain_map`]).
    #[derive(Debug, Clone)]
    enum Step {
        /// A write-back: the chunk's buffer taken, fresh bytes put.
        Put(usize, Vec<u8>),
        /// A stage touch: the chunk stamped, then got on the data path.
        Get(usize),
        Read(usize),
        Budget(Option<usize>),
        /// Reads requested ahead for these upcoming touches.
        Request(Vec<usize>),
    }

    fn step() -> impl proptest::prelude::Strategy<Value = Step> {
        use proptest::collection::vec;
        use proptest::prelude::*;
        let id = || 0..MODEL_CHUNKS;
        let budget = prop_oneof![Just(None), Just(Some(0)), (1usize..2048).prop_map(Some)];
        prop_oneof![
            4 => (id(), vec(any::<u8>(), 64..400)).prop_map(|(id, b)| Step::Put(id, b)),
            3 => id().prop_map(Step::Get),
            2 => id().prop_map(Step::Read),
            1 => budget.prop_map(Step::Budget),
            2 => vec(id(), 1..6).prop_map(Step::Request),
        ]
    }

    /// The store's books against the model: every chunk lives in RAM or on
    /// disk, never both, and reads back as the bytes last put; the resident
    /// and spilled byte counts are the sums of the RAM and disk frames.
    fn check_books(
        frames: &Frames,
        stats: &StateStats,
        model: &[Vec<u8>],
    ) -> Result<(), proptest::TestCaseError> {
        use proptest::prelude::{prop_assert, prop_assert_eq};
        let (mut ram, mut disk) = (0, 0);
        for (id, bytes) in model.iter().enumerate() {
            let entry = frames.tier.entry(id);
            prop_assert!(
                frames.ram[id].is_empty() || entry.is_none(),
                "chunk {} twice",
                id
            );
            ram += frames.ram[id].len();
            disk += entry.map_or(0, |e| e.len as usize);
            prop_assert_eq!(&*frames.read(id).unwrap(), &bytes[..], "chunk {}", id);
        }
        prop_assert_eq!(stats.resident_bytes, ram);
        prop_assert_eq!(stats.spilled_bytes, disk);
        prop_assert!(stats.peak_resident_bytes >= ram);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 16,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Random put / get / read-in-place / budget / request sequences,
        /// with the spill readers running, against a plain id → bytes map.
        /// RAM stays within the budget after every put and budget change
        /// (a get may overshoot it until the chunk's write-back). Each case
        /// ends with a compaction while reads are outstanding: records
        /// that kept their generation are served from the old file, and
        /// reads a later put made stale are never served.
        #[test]
        fn store_matches_a_plain_map(steps in proptest::collection::vec(step(), 1..150)) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let _guard = qcf_telemetry::faults::chaos_guard();
            std::thread::scope(|s| -> Result<(), proptest::TestCaseError> {
                let mut model: Vec<Vec<u8>> =
                    (0..MODEL_CHUNKS).map(|id| vec![id as u8; 100]).collect();
                let mut stats = StateStats::default();
                let mut frames = Frames::new(MODEL_CHUNKS);
                frames.load(model.clone(), &mut stats);
                frames.set_budget(Some(256), &mut stats);
                frames.read_ahead(Some(s));
                for step in steps {
                    let budgeted = matches!(step, Step::Put(..) | Step::Budget(_));
                    match step {
                        Step::Put(id, bytes) => {
                            drop(frames.take(id, &mut stats));
                            frames.put(id, bytes.clone(), &mut stats);
                            model[id] = bytes;
                        }
                        Step::Get(id) => {
                            frames.touch(id);
                            prop_assert_eq!(frames.get(id, &mut stats), &model[id][..]);
                        }
                        Step::Read(id) => {
                            prop_assert_eq!(&*frames.read(id).unwrap(), &model[id][..]);
                        }
                        Step::Budget(budget) => frames.set_budget(budget, &mut stats),
                        Step::Request(ids) => frames.request(ids.into_iter()),
                    }
                    if let (true, Some(budget)) = (budgeted, frames.budget()) {
                        prop_assert!(stats.resident_bytes <= budget, "RAM over budget");
                    }
                    check_books(&frames, &stats, &model)?;
                }
                // Everything on disk, a fresh window with every chunk
                // requested, then puts to the upper half until the log
                // compacts.
                frames.set_budget(Some(0), &mut stats);
                frames.read_ahead(None);
                frames.read_ahead(Some(s));
                frames.request(0..MODEL_CHUNKS);
                let (half, compactions) = (MODEL_CHUNKS / 2, stats.compactions);
                for round in 0u8.. {
                    if stats.compactions > compactions {
                        break;
                    }
                    prop_assert!(round < 200, "the log never compacted");
                    for (id, bytes) in model.iter_mut().enumerate().skip(half) {
                        *bytes = vec![round; 300];
                        drop(frames.take(id, &mut stats));
                        frames.put(id, bytes.clone(), &mut stats);
                    }
                }
                let (hits, misses) = (stats.prefetch_hits, stats.prefetch_misses);
                for (id, bytes) in model.iter().enumerate() {
                    prop_assert_eq!(frames.get(id, &mut stats), &bytes[..], "chunk {}", id);
                }
                prop_assert_eq!(stats.prefetch_hits - hits, half as u64);
                prop_assert_eq!(stats.prefetch_misses - misses, (MODEL_CHUNKS - half) as u64);
                check_books(&frames, &stats, &model)
            })?;
        }
    }

    #[test]
    fn readahead_dedupes_and_takes_by_generation() {
        let _guard = qcf_telemetry::faults::chaos_guard();
        let mut tier = SpillTier::new(4);
        let e1 = tier.append(1, b"one").unwrap();
        tier.append(2, b"two").unwrap();
        std::thread::scope(|s| {
            let mut ra = Readahead::start(s, 0);
            // A repeated request is dropped; a chunk in RAM is skipped.
            ra.request(&tier, [1, 1, 0].into_iter());
            assert_eq!(ra.inflight, [1]);
            assert_eq!(ra.take(1, e1.gen).as_deref(), Some(&b"one"[..]));
            assert!(ra.inflight.is_empty() && ra.ready.is_empty());
            // A never-requested chunk, and one already taken, are misses.
            assert_eq!(ra.take(2, tier.entry(2).unwrap().gen), None);
            assert_eq!(ra.take(1, e1.gen), None);
            // A read of an older generation is stale.
            ra.request(&tier, [2].into_iter());
            let e2 = tier.append(2, b"two-v2").unwrap();
            assert_eq!(ra.take(2, e2.gen), None);
        });
        // A failed read is a miss: every read of a write-only handle fails.
        let write_only = OpenOptions::new().write(true).open(&tier.path).unwrap();
        tier.file = Some(Arc::new(Mutex::new(write_only)));
        std::thread::scope(|s| {
            let mut ra = Readahead::start(s, 0);
            ra.request(&tier, [1].into_iter());
            assert_eq!(ra.take(1, e1.gen), None);
        });
    }
}
