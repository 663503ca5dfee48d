//! A snapshot header is untrusted: `CompressedState::resume` must refuse a
//! chunk count the body cannot hold *before* reserving memory for it.
//!
//! The forged snapshot is 54 bytes with a valid footer checksum. Its header
//! declares n=26 over 1-amplitude chunks (2^26 chunk records) and then ends.
//! A resume that sized its frame, norm and ledger vectors from the header
//! would ask the allocator for gigabytes before noticing the truncation.
//!
//! Keep this file to a single `#[test]`: the allocator records the largest
//! request of the whole process.

use codec_kit::frame::fnv1a32;
use compressors::dummy::Memcpy;
use compressors::Compressor;
use qtensor::{CkptError, CompressedState};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// System allocator that remembers the largest single request.
struct LargestRequest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LargestRequest = LargestRequest;

#[test]
fn forged_chunk_count_is_refused_before_any_reservation() {
    let comp = Memcpy;
    let (n, chunk_qubits) = (26u32, 0u32);
    let mut body = Vec::new();
    body.extend_from_slice(b"QCFSNAP1");
    body.extend_from_slice(&n.to_le_bytes());
    body.extend_from_slice(&chunk_qubits.to_le_bytes());
    body.push(comp.id());
    body.push(0); // bound kind: Abs
    body.extend_from_slice(&1e-6f64.to_le_bytes());
    body.extend_from_slice(&0u64.to_le_bytes()); // lossy events
    body.extend_from_slice(&(1u32 << (n - chunk_qubits)).to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes()); // app_meta length
    let mut snapshot = body.clone();
    snapshot.extend_from_slice(&fnv1a32(&body).to_le_bytes());
    snapshot.extend_from_slice(b"QCFSEND1");
    assert_eq!(snapshot.len(), 54);

    let dir = std::env::temp_dir().join(format!("qcf-forged-header-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("forged.qcfs");
    std::fs::write(&path, &snapshot).unwrap();

    LARGEST.store(0, Ordering::Relaxed);
    let res = CompressedState::resume(&path, &comp);
    let largest = LARGEST.load(Ordering::Relaxed);
    let _ = std::fs::remove_dir_all(&dir);

    match res {
        Err(CkptError::Corrupt(_)) => {}
        Err(e) => panic!("want a Corrupt refusal, got {e}"),
        Ok(_) => panic!("a 54-byte snapshot cannot hold 2^26 chunks"),
    }
    assert!(
        largest < 1 << 20,
        "resume asked for {largest} bytes in one request before refusing"
    );
}
