//! Snapshots written before the v5 frame still resume. Such a snapshot
//! ends in an FNV-1a footer and `"QCFSEND1"`, and every chunk in it is a
//! v2 frame. The test takes a checkpoint with this build, rewrites it into
//! that envelope, and checks that the rewritten file resumes to the same
//! frames' amplitudes bit for bit and to the same ledger, both at the
//! checkpoint and after the rest of the circuit runs on the resumed state.
//! A torn copy of the old envelope must still be refused.

use codec_kit::frame::{fnv1a32, FRAME_VERSION, LEGACY_FRAME_VERSION};
use compressors::ErrorBound;
use qcf_core::QcfCompressor;
use qcircuit::{qaoa_circuit, Graph, QaoaParams};
use qtensor::{CkptError, CompressedState};
use std::path::Path;

/// Footer: a u32 checksum and an 8-byte end magic.
const FOOTER: usize = 12;

fn u32_at(bytes: &[u8], at: usize) -> usize {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize
}

/// Rewrites a v5 frame of the same length in place as the v2 frame an
/// older build wrote: version byte 2, FNV-1a checksum of the payload.
fn reseal_as_v2(frame: &mut [u8]) {
    assert_eq!(frame[1], FRAME_VERSION, "this build seals v5 frames");
    frame[1] = LEGACY_FRAME_VERSION;
    let end = frame.len() - 4;
    let sum = fnv1a32(&frame[6..end]);
    frame[end..].copy_from_slice(&sum.to_le_bytes());
}

/// Rewrites a snapshot of this build into the envelope builds before v5
/// wrote (see `qtensor::checkpoint` for the layout).
fn to_legacy(snapshot: &[u8]) -> Vec<u8> {
    assert_eq!(&snapshot[snapshot.len() - 8..], b"QCFSEND2");
    let mut body = snapshot[..snapshot.len() - FOOTER].to_vec();
    // magic 8 | n, chunk_qubits 8 | codec id, bound kind 2 | bound 8 |
    // lossy events 8 | n_chunks 4 | app_meta_len 4 | app_meta
    let n_chunks = u32_at(&body, 34);
    let mut pos = 42 + u32_at(&body, 38);
    for _ in 0..n_chunks {
        let len = u32_at(&body, pos);
        pos += 4;
        reseal_as_v2(&mut body[pos..pos + len]);
        // norm f64, then the ledger record: six 8-byte fields and a u8.
        pos += len + 8 + 6 * 8 + 1;
    }
    assert_eq!(pos + 6 * 8, body.len(), "walked every chunk record");
    let sum = fnv1a32(&body);
    body.extend_from_slice(&sum.to_le_bytes());
    body.extend_from_slice(b"QCFSEND1");
    body
}

fn assert_same_amplitudes(a: &CompressedState<'_>, b: &CompressedState<'_>, what: &str) {
    let (a, b) = (a.to_statevector().unwrap(), b.to_statevector().unwrap());
    for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
        assert_eq!(
            (x.re.to_bits(), x.im.to_bits()),
            (y.re.to_bits(), y.im.to_bits()),
            "{what}: amplitude {i}"
        );
    }
}

fn assert_same_ledger(a: &CompressedState<'_>, b: &CompressedState<'_>, what: &str) {
    assert_eq!(
        a.ledger().lossy_events(),
        b.ledger().lossy_events(),
        "{what}"
    );
    for id in 0..a.ledger().n_chunks() {
        assert_eq!(
            a.ledger().chunk(id),
            b.ledger().chunk(id),
            "{what}: chunk {id}"
        );
    }
    assert_eq!(a.faults, b.faults, "{what}: fault tally");
}

fn refused(path: &Path, codec: &QcfCompressor) -> bool {
    matches!(
        CompressedState::resume(path, codec),
        Err(CkptError::Corrupt(_))
    )
}

#[test]
fn qcfsend1_snapshot_with_v2_frames_resumes_bit_identically() {
    let codec = QcfCompressor::speed();
    let graph = Graph::random_regular(10, 3, 17);
    let circuit = qaoa_circuit(&graph, &QaoaParams::fixed_angles_3reg_p1());
    let (first, rest) = circuit.gates().split_at(circuit.gates().len() / 2);
    let mut straight = CompressedState::zero(10, 3, &codec, ErrorBound::Rel(1e-3)).unwrap();
    straight.run_scheduled(first, false).unwrap();

    let dir = std::env::temp_dir().join(format!("qcf-legacy-snapshot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (new_path, old_path, torn_path) = (
        dir.join("new.qcfs"),
        dir.join("legacy.qcfs"),
        dir.join("torn.qcfs"),
    );
    straight.checkpoint(&new_path, b"gates=half").unwrap();
    let legacy = to_legacy(&std::fs::read(&new_path).unwrap());
    std::fs::write(&old_path, &legacy).unwrap();

    let (mut resumed, meta) = CompressedState::resume(&old_path, &codec).unwrap();
    assert_eq!(meta, b"gates=half");
    assert!(
        straight.ledger().lossy_events() > 0,
        "lossy run fills the ledger"
    );
    assert_same_amplitudes(&straight, &resumed, "at the checkpoint");
    assert_same_ledger(&straight, &resumed, "at the checkpoint");

    // The resumed v2 frames decode through the engine; the rest of the
    // circuit reseals the chunks it touches as v5.
    straight.run_scheduled(rest, false).unwrap();
    resumed.run_scheduled(rest, false).unwrap();
    assert_same_amplitudes(&straight, &resumed, "after the rest of the circuit");
    assert_same_ledger(&straight, &resumed, "after the rest of the circuit");

    // Damaged copies of the old envelope: a body written short under an
    // intact footer, a file cut inside its footer, and one flipped bit in
    // the app_meta, which parses and only the FNV-1a footer can catch.
    let half = legacy.len() / 2;
    let short_body = [&legacy[..half], &legacy[half + 16..]].concat();
    std::fs::write(&torn_path, short_body).unwrap();
    assert!(refused(&torn_path, &codec), "short body accepted");
    std::fs::write(&torn_path, &legacy[..legacy.len() - 1]).unwrap();
    assert!(refused(&torn_path, &codec), "cut footer accepted");
    let mut flipped = legacy.clone();
    flipped[42] ^= 1;
    std::fs::write(&torn_path, flipped).unwrap();
    assert!(refused(&torn_path, &codec), "flipped app_meta bit accepted");
    let _ = std::fs::remove_dir_all(&dir);
}
