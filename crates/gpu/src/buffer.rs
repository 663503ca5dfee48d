//! Scratch-buffer reuse.
//!
//! [`ScratchPool`]: hot loops (the codecs' symbol planes and payloads, the
//! framework's value planes) check same-typed `Vec`s back in after use
//! instead of reallocating one per call, mirroring how the CUDA
//! implementations keep one workspace per stream.

use qcf_telemetry::{lock_unpoisoned, Counter};
use std::sync::{Arc, Mutex};

/// Maximum buffers a [`ScratchPool`] retains; beyond this, returned
/// buffers are simply dropped. Bounds worst-case memory held by the pool.
const SCRATCH_POOL_CAP: usize = 16;

/// A thread-safe free-list of reusable `Vec<T>` scratch buffers — the one
/// scratch mechanism of the workspace.
///
/// [`take`] hands out a vector of exactly `len` default-initialized
/// elements and [`take_spare`] an empty one with at least `cap` spare
/// capacity, each reusing the best-fitting (smallest sufficient) buffer a
/// caller checked back in with [`put`]. Clones share the free-list.
///
/// The pool never hands the same buffer to two callers: checkout removes
/// it from the list and `put` re-inserts it, both under the lock, so
/// pooled buffers are safe to use from executor workers (each worker takes
/// its own). Contents of a reused buffer are always reset, so reuse can
/// never leak data across users — which also keeps pooled and non-pooled
/// runs bit-identical. A buffer that is dropped instead of put back (an
/// early error return, an unwind) simply frees itself; the pool misses
/// once on the next checkout.
///
/// [`take`]: ScratchPool::take
/// [`take_spare`]: ScratchPool::take_spare
/// [`put`]: ScratchPool::put
#[derive(Debug, Default, Clone)]
pub struct ScratchPool<T> {
    inner: Arc<Mutex<ScratchState<T>>>,
    counters: Option<(Arc<Counter>, Arc<Counter>)>,
}

#[derive(Debug)]
struct ScratchState<T> {
    free: Vec<Vec<T>>,
    hits: u64,
    misses: u64,
}

impl<T> Default for ScratchState<T> {
    fn default() -> Self {
        ScratchState {
            free: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }
}

impl<T: Clone + Default> ScratchPool<T> {
    /// A fresh, empty pool.
    pub fn new() -> Self {
        ScratchPool {
            inner: Arc::default(),
            counters: None,
        }
    }

    /// A fresh pool that mirrors hits/misses into the telemetry registry
    /// as `<prefix>.hits` / `<prefix>.misses` (counter handles are cached
    /// here, so a checkout pays one atomic add, not a registry lookup).
    pub fn with_metrics(prefix: &str) -> Self {
        let r = qcf_telemetry::registry();
        ScratchPool {
            inner: Arc::default(),
            counters: Some((
                r.counter(&format!("{prefix}.hits")),
                r.counter(&format!("{prefix}.misses")),
            )),
        }
    }

    /// A vector of `len` default-initialized elements, reusing pooled
    /// capacity when possible.
    pub fn take(&self, len: usize) -> Vec<T> {
        match self.checkout(len) {
            Some(mut buf) => {
                buf.resize(len, T::default());
                buf
            }
            None => vec![T::default(); len],
        }
    }

    /// An **empty** vector with at least `cap` spare capacity, reusing
    /// pooled capacity when possible. For output buffers that grow by
    /// `push`/`extend` rather than being indexed up front.
    pub fn take_spare(&self, cap: usize) -> Vec<T> {
        self.checkout(cap)
            .unwrap_or_else(|| Vec::with_capacity(cap))
    }

    /// Removes and clears the best-fitting pooled buffer with capacity for
    /// `cap` elements, counting the hit or miss.
    fn checkout(&self, cap: usize) -> Option<Vec<T>> {
        let reused = {
            let mut st = lock_unpoisoned(&self.inner);
            // Prefer the buffer whose capacity fits best, to keep big
            // buffers available for big requests.
            let best = st
                .free
                .iter()
                .enumerate()
                .filter(|(_, b)| b.capacity() >= cap)
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            match best {
                Some(i) => {
                    st.hits += 1;
                    Some(st.free.swap_remove(i))
                }
                None => {
                    st.misses += 1;
                    None
                }
            }
        };
        if let Some((hits, misses)) = &self.counters {
            if reused.is_some() {
                hits.inc();
            } else {
                misses.inc();
            }
        }
        reused.map(|mut buf| {
            buf.clear();
            buf
        })
    }

    /// Checks `buf` back in for reuse (dropped if the pool is full).
    pub fn put(&self, buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut st = lock_unpoisoned(&self.inner);
        if st.free.len() < SCRATCH_POOL_CAP {
            st.free.push(buf);
        }
    }

    /// `(hits, misses)` of checkouts against the free-list, for tests and
    /// footprint reports.
    pub fn stats(&self) -> (u64, u64) {
        let st = lock_unpoisoned(&self.inner);
        (st.hits, st.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_reuses_capacity() {
        let pool = ScratchPool::<f64>::new();
        let mut a = pool.take(100);
        a[0] = 3.5;
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take(80);
        assert_eq!(b.capacity(), cap, "must reuse the checked-in buffer");
        assert!(b.iter().all(|&v| v == 0.0), "reused buffer must be reset");
        assert_eq!(pool.stats(), (1, 1));
    }

    #[test]
    fn scratch_take_spare_is_empty_with_capacity() {
        let pool = ScratchPool::<u32>::new();
        let mut a = pool.take_spare(64);
        assert!(a.is_empty() && a.capacity() >= 64);
        a.extend([7; 64]);
        let cap = a.capacity();
        pool.put(a);
        let b = pool.take_spare(32);
        assert!(b.is_empty(), "reused spare buffer must be cleared");
        assert_eq!(b.capacity(), cap, "must reuse the checked-in buffer");
        assert_eq!(pool.stats(), (1, 1));
    }

    #[test]
    fn scratch_misses_when_too_small() {
        let pool = ScratchPool::<u8>::new();
        pool.put(Vec::with_capacity(10));
        let big = pool.take(1000);
        assert_eq!(big.len(), 1000);
        assert_eq!(pool.stats(), (0, 1));
    }

    #[test]
    fn scratch_prefers_tightest_fit() {
        let pool = ScratchPool::<u8>::new();
        pool.put(Vec::with_capacity(4096));
        pool.put(Vec::with_capacity(64));
        let buf = pool.take(50);
        assert!(buf.capacity() < 4096, "should pick the 64-cap buffer");
    }

    #[test]
    fn scratch_is_bounded() {
        let pool = ScratchPool::<u8>::new();
        for _ in 0..100 {
            pool.put(Vec::with_capacity(8));
        }
        let st = lock_unpoisoned(&pool.inner);
        assert!(st.free.len() <= SCRATCH_POOL_CAP);
    }

    #[test]
    fn scratch_shared_across_clones_and_threads() {
        let pool = ScratchPool::<f64>::new();
        let clone = pool.clone();
        std::thread::scope(|s| {
            s.spawn(|| {
                let buf = clone.take(32);
                clone.put(buf);
            });
        });
        let (_hits, misses) = pool.stats();
        assert_eq!(misses, 1);
        let buf = pool.take(16);
        assert_eq!(pool.stats().0, 1, "clone's buffer visible to original");
        pool.put(buf);
    }
}
