//! Durable snapshots for [`CompressedState`](crate::CompressedState):
//! the on-disk format, the atomic commit protocol, and the deterministic
//! crash sites the kill-point recovery drills drive.
//!
//! ## Snapshot format (version 1, all little-endian)
//!
//! ```text
//! "QCFSNAP1"                                    8-byte magic + version
//! n u32 | chunk_qubits u32                      geometry
//! compressor_id u8                              the codec's stable stream id
//! bound_kind u8 (0 = Abs, 1 = Rel) | bound f64  error bound
//! lossy_events u64                              ledger aggregate
//! n_chunks u32
//! app_meta_len u32 | app_meta bytes             caller-opaque blob (qcfz
//!                                               stores circuit + progress)
//! per chunk:
//!   frame_len u32 | sealed frame bytes          resident or read from spill
//!   chunk_norm f64
//!   ledger record: encodes u64 | requants u64 | accumulated_bound f64 |
//!     last_abs_bound f64 | max_measured_err f64 | measured u8 |
//!     quarantines u64
//! fault counters: decode_errors | retries_ok | 0 (a retired slot) |
//!   quarantines | worker_panics (u64 each) | lost_norm_sq f64
//! footer: checksum u32 over everything above | "QCFSEND2"
//! ```
//!
//! Every chunk payload is a sealed frame carrying its own checksum, so
//! the footer checksum guards the *manifest* (geometry, index, ledger)
//! while per-chunk corruption still surfaces through the normal
//! decode/heal/quarantine chain after resume.
//!
//! The footer checksum is the frames' XXH32 ([`codec_kit::frame::checksum`]),
//! and the end magic names it: `"QCFSEND2"`. Snapshots written before it
//! end in `"QCFSEND1"` behind an FNV-1a footer and hold v2 chunk frames;
//! `read_snapshot` still accepts them, and the frames unseal as v2. The
//! two end magics differ in two bits (`'1'` and `'2'`), so no single
//! flipped bit moves a snapshot from one footer hash to the other.
//!
//! ## Commit protocol
//!
//! `checkpoint()` is an atomic commit: serialize the stored frames (the
//! state is write-through, so they are the ground truth the resumed run
//! re-reads) into `<path>.tmp.<pid>`, fsync, rename over `<path>`, fsync the directory
//! best-effort. A crash at any boundary leaves either the old snapshot
//! or the new one — never a torn file at the committed path. The five
//! [`kill_point`] boundaries make that claim drillable:
//!
//! 1. body serialized, before the temp file exists
//! 2. mid-body (half the serialized bytes written)
//! 3. body complete, footer not yet written
//! 4. footer written and fsynced, rename not yet done
//! 5. rename done, before returning
//!
//! `ckpt.kill_point@N` fires boundary N and the writer returns
//! [`CkptError::KillPoint`] *without cleanup*, leaving the disk exactly
//! as a SIGKILL there would. `ckpt.torn_write` models lying storage: the
//! body is written short but the commit completes; resume's footer
//! checksum rejects the file. Stale `*.tmp.<pid>` files from crashed
//! writers are swept by pid-liveness on the next checkpoint in the same
//! directory ([`crate::spill::sweep_stale_dir`]).

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use codec_kit::frame::{checksum, fnv1a32};

/// Leading magic: snapshot file, format version 1.
pub(crate) const SNAP_MAGIC: &[u8; 8] = b"QCFSNAP1";
/// Trailing magic: the footer completed, and its checksum is [`checksum`].
const SNAP_END: &[u8; 8] = b"QCFSEND2";
/// Trailing magic of snapshots whose footer checksum is [`fnv1a32`].
const LEGACY_SNAP_END: &[u8; 8] = b"QCFSEND1";
/// Footer bytes: the body's checksum + the end magic.
const SNAP_FOOTER: usize = 4 + SNAP_END.len();

/// Why a checkpoint or resume failed.
#[derive(Debug)]
pub enum CkptError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The snapshot failed validation on resume.
    Corrupt(String),
    /// A `ckpt.kill_point@N` fault fired: the process "crashed" at commit
    /// boundary N, leaving the disk exactly as a real crash would.
    KillPoint(u32),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "io error: {e}"),
            CkptError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            CkptError::KillPoint(n) => {
                write!(f, "simulated crash at ckpt.kill_point@{n}")
            }
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// One commit boundary: under `ckpt.kill_point@N` the Nth boundary
/// reached returns the simulated crash, with no cleanup.
fn kill_point(n: u32) -> Result<(), CkptError> {
    match qcf_telemetry::faults::inject("ckpt.kill_point") {
        Some(_) => Err(CkptError::KillPoint(n)),
        None => Ok(()),
    }
}

/// The temp path a writer with pid `pid` uses for `path`.
fn tmp_path(path: &Path, pid: u32) -> PathBuf {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".into());
    path.with_file_name(format!("{name}.tmp.{pid}"))
}

/// Commits `body` (everything before the footer) to `path` atomically:
/// temp → fsync → rename → best-effort dir fsync. Returns total bytes
/// at the committed path. Boundaries 1–5 are kill points (see module
/// docs); `ckpt.torn_write` cuts the body write short while letting the
/// commit complete, so the footer checksum catches it on resume.
pub(crate) fn write_snapshot(path: &Path, body: &[u8]) -> Result<u64, CkptError> {
    let crc = checksum(body);
    kill_point(1)?;
    // Sweep crashed writers' temp files in this directory first — the
    // drills re-run against the same path and must not leak disk.
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            crate::spill::sweep_stale_dir(dir);
        }
    }
    let tmp = tmp_path(path, std::process::id());
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    let half = body.len() / 2;
    f.write_all(&body[..half])?;
    kill_point(2)?;
    let rest = match qcf_telemetry::faults::inject("ckpt.torn_write") {
        // Lying storage: drop a tail of the body but keep committing.
        Some(draw) if body.len() > half => {
            &body[half..body.len() - 1 - (draw as usize % (body.len() - half))]
        }
        _ => &body[half..],
    };
    f.write_all(rest)?;
    kill_point(3)?;
    f.write_all(&crc.to_le_bytes())?;
    f.write_all(SNAP_END)?;
    f.sync_all()?;
    drop(f);
    kill_point(4)?;
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    kill_point(5)?;
    Ok((body.len() + SNAP_FOOTER) as u64)
}

/// Reads and validates a snapshot's envelope: length, end magic, footer
/// checksum (the hash the end magic names). Returns the body bytes
/// (everything before the footer).
pub(crate) fn read_snapshot(path: &Path) -> Result<Vec<u8>, CkptError> {
    let mut bytes = std::fs::read(path)?;
    if bytes.len() < SNAP_MAGIC.len() + SNAP_FOOTER {
        return Err(CkptError::Corrupt(format!(
            "{} bytes is too short for a snapshot",
            bytes.len()
        )));
    }
    let body_len = bytes.len() - SNAP_FOOTER;
    let sum: fn(&[u8]) -> u32 = match &bytes[body_len + 4..] {
        end if end == SNAP_END => checksum,
        end if end == LEGACY_SNAP_END => fnv1a32,
        _ => return Err(CkptError::Corrupt("missing end magic".into())),
    };
    let stored = u32::from_le_bytes(bytes[body_len..body_len + 4].try_into().unwrap());
    let actual = sum(&bytes[..body_len]);
    if stored != actual {
        return Err(CkptError::Corrupt(format!(
            "footer checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    bytes.truncate(body_len);
    Ok(bytes)
}

/// Validates a snapshot's envelope and reports which codec wrote it (the
/// stable stream id stored in the manifest), so a CLI can pick the
/// matching compressor before calling
/// [`CompressedState::resume`](crate::CompressedState::resume).
pub fn snapshot_compressor_id(path: &Path) -> Result<u8, CkptError> {
    let body = read_snapshot(path)?;
    let mut r = Reader::new(&body);
    if r.take(SNAP_MAGIC.len())? != SNAP_MAGIC {
        return Err(CkptError::Corrupt("bad snapshot magic".into()));
    }
    r.u32()?; // n
    r.u32()?; // chunk_qubits
    r.u8()
}

// ---------------------------------------------------------------------------
// Little-endian serialization helpers (zero-dep, bounds-checked reader)
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a snapshot body. Every
/// overrun is a [`CkptError::Corrupt`], never a panic.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                CkptError::Corrupt(format!(
                    "truncated body: wanted {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Bytes left unread (must be 0 after a complete parse).
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("qcf-ckpt-unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn snapshot_roundtrips_and_rejects_tampering() {
        // `write_snapshot` passes the process-global ckpt fault points; a
        // sibling test arming them must not fire inside this one.
        let _guard = qcf_telemetry::faults::chaos_guard();
        let path = tmp("roundtrip.qcfs");
        let body = b"QCFSNAP1 pretend body".to_vec();
        let total = write_snapshot(&path, &body).unwrap();
        assert_eq!(total, (body.len() + SNAP_FOOTER) as u64);
        assert_eq!(read_snapshot(&path).unwrap(), body);
        // Flip one body byte: the footer checksum must reject the file.
        let mut raw = std::fs::read(&path).unwrap();
        raw[3] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(read_snapshot(&path), Err(CkptError::Corrupt(_))));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_points_leave_the_committed_path_crash_consistent() {
        use qcf_telemetry::faults;
        let _guard = faults::chaos_guard();
        let path = tmp("killpoints.qcfs");
        let _ = std::fs::remove_file(&path);
        write_snapshot(&path, b"golden snapshot body").unwrap();
        let golden = std::fs::read(&path).unwrap();
        for n in 1..=5u32 {
            faults::arm_from_spec(&format!("seed=3,ckpt.kill_point@{n}")).unwrap();
            let res = write_snapshot(&path, b"the replacement body");
            faults::disarm();
            match res {
                Err(CkptError::KillPoint(k)) => assert_eq!(k, n),
                other => panic!("boundary {n}: expected a kill, got {other:?}"),
            }
            let now = std::fs::read(&path).unwrap();
            if n < 5 {
                assert_eq!(now, golden, "boundary {n} must keep the old snapshot");
            } else {
                // Boundary 5 is after the rename: the new snapshot
                // committed even though the "process" died.
                assert_eq!(read_snapshot(&path).unwrap(), b"the replacement body");
            }
            // Either way the committed path always validates.
            read_snapshot(&path).unwrap();
        }
        let _ = std::fs::remove_file(&path);
        // The boundary-1..3 "crashes" left temp files behind on purpose;
        // a later writer sweeps them only once their owner pid is dead,
        // so here they are still present (we are alive) — clean up.
        let dir = path.parent().unwrap().to_path_buf();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_commits_a_snapshot_the_checksum_rejects() {
        use qcf_telemetry::faults;
        let _guard = faults::chaos_guard();
        let path = tmp("torn.qcfs");
        faults::arm_from_spec("seed=11,ckpt.torn_write@1").unwrap();
        let res = write_snapshot(&path, b"body that will be cut short");
        faults::disarm();
        res.unwrap(); // the commit itself "succeeds" — storage lied
        match read_snapshot(&path) {
            Err(CkptError::Corrupt(_)) => {}
            other => panic!("expected corrupt verdict, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reader_rejects_overruns_without_panicking() {
        let mut r = Reader::new(&[1, 2, 3, 4, 5]);
        assert_eq!(r.u32().unwrap(), u32::from_le_bytes([1, 2, 3, 4]));
        assert!(r.u32().is_err());
        assert_eq!(r.u8().unwrap(), 5);
        assert_eq!(r.remaining(), 0);
        assert!(r.u8().is_err());
    }
}
