//! `WarpScratch`: a per-thread arena of reusable scratch buffers.
//!
//! Kernel launches need per-launch working memory — the long kernel's
//! `warpVal` partial array, batching buffers — and allocating it fresh
//! every launch dominates small-matrix interpretation time. The arena
//! keeps returned buffers in a thread-local pool keyed by element type;
//! a lease hands out a length-`n` buffer (recycled capacity when
//! available) and returns it to the pool on drop. (The cache model's
//! tick and tag arrays pool separately, keyed by geometry — see
//! `crate::cache`.)
//!
//! Pooling is per OS thread: the sequential executor leases from the
//! main thread's pool, and each [`crate::ParExecutor`] worker leases
//! from its own, so no locking is involved. Leased buffers are always
//! re-initialized to the caller's fill value — a lease never observes a
//! previous launch's contents — which is what makes reuse invisible to
//! kernel semantics. The pool is bounded (a fixed number of buffers per
//! type; the largest are kept) so pathological launch sequences cannot
//! hoard memory.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};

/// Buffers retained per element type. Two covers every current kernel
/// (one live lease plus one returned buffer between launches); the
/// headroom is for nested leases.
const POOL_PER_TYPE: usize = 4;

thread_local! {
    static POOL: RefCell<WarpScratch> = RefCell::new(WarpScratch::new());
}

/// The per-thread buffer pool. Not constructed directly — use
/// [`WarpScratch::lease`] (or [`WarpScratch::lease_with`]), which
/// operates on the calling thread's pool.
#[derive(Debug, Default)]
pub struct WarpScratch {
    /// Returned buffers by element type. The boxes hold `Vec<T>`.
    pools: HashMap<TypeId, Vec<Box<dyn Any>>>,
}

impl WarpScratch {
    fn new() -> WarpScratch {
        WarpScratch {
            pools: HashMap::new(),
        }
    }

    /// Leases a length-`len` buffer filled with copies of `fill` from the
    /// calling thread's pool, allocating only when the pool has no buffer
    /// of that element type. The buffer returns to the pool when the
    /// lease drops.
    pub fn lease<T: Copy + 'static>(len: usize, fill: T) -> ScratchLease<T> {
        let mut buf = Self::take::<T>();
        buf.clear();
        buf.resize(len, fill);
        ScratchLease { buf }
    }

    /// Leases a length-`len` buffer whose element `i` is `f(i)`.
    pub fn lease_with<T: 'static>(len: usize, f: impl FnMut(usize) -> T) -> ScratchLease<T> {
        let mut buf = Self::take::<T>();
        buf.clear();
        buf.extend((0..len).map(f));
        ScratchLease { buf }
    }

    /// Pops a pooled buffer of element type `T`, or a fresh empty one.
    fn take<T: 'static>() -> Vec<T> {
        POOL.with(|p| {
            p.borrow_mut()
                .pools
                .get_mut(&TypeId::of::<T>())
                .and_then(Vec::pop)
        })
        .and_then(|b| b.downcast::<Vec<T>>().ok().map(|b| *b))
        .unwrap_or_default()
    }

    /// Returns a buffer to the calling thread's pool. Keeps the
    /// `POOL_PER_TYPE` largest buffers per type; the rest are freed.
    fn put<T: 'static>(buf: Vec<T>) {
        if buf.capacity() == 0 {
            return;
        }
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            let entry = pool.pools.entry(TypeId::of::<T>()).or_default();
            entry.push(Box::new(buf));
            if entry.len() > POOL_PER_TYPE {
                // Evict the smallest-capacity buffer so repeated
                // mixed-size launches converge on the largest ones.
                let min = entry
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, b)| b.downcast_ref::<Vec<T>>().map_or(0, Vec::capacity))
                    .map(|(i, _)| i)
                    .expect("pool non-empty");
                entry.swap_remove(min);
            }
        });
    }

    /// Number of pooled buffers of element type `T` on this thread
    /// (test/diagnostic aid).
    pub fn pooled<T: 'static>() -> usize {
        POOL.with(|p| p.borrow().pools.get(&TypeId::of::<T>()).map_or(0, Vec::len))
    }
}

/// An RAII lease of one scratch buffer; derefs to the underlying slice
/// (and exposes the `Vec` via [`ScratchLease::vec_mut`] for callers that
/// need to grow it). Returns the buffer to the thread's pool on drop.
#[derive(Debug)]
pub struct ScratchLease<T: 'static> {
    buf: Vec<T>,
}

impl<T: 'static> ScratchLease<T> {
    /// Mutable access to the underlying `Vec` (for push/extend use).
    pub fn vec_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: 'static> Deref for ScratchLease<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.buf
    }
}

impl<T: 'static> DerefMut for ScratchLease<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf
    }
}

impl<T: 'static> Drop for ScratchLease<T> {
    fn drop(&mut self) {
        WarpScratch::put(std::mem::take(&mut self.buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_is_initialized_and_reuses_capacity() {
        let ptr;
        {
            let mut a = WarpScratch::lease::<u64>(100, 7);
            assert!(a.iter().all(|&v| v == 7));
            a[0] = 42;
            ptr = a.as_ptr();
        }
        // Same thread, same type, smaller length: the pooled buffer comes
        // back re-filled, previous contents invisible.
        let b = WarpScratch::lease::<u64>(50, 1);
        assert_eq!(b.as_ptr(), ptr);
        assert!(b.iter().all(|&v| v == 1));
    }

    #[test]
    fn lease_with_builds_elements() {
        let l = WarpScratch::lease_with(4, |i| i * i);
        assert_eq!(&*l, &[0usize, 1, 4, 9]);
    }

    #[test]
    fn pools_are_typed_and_bounded() {
        {
            let _a = WarpScratch::lease::<u8>(1, 0);
            let _b = WarpScratch::lease::<u8>(2, 0);
        }
        assert!(WarpScratch::pooled::<u8>() >= 2);
        let leases: Vec<_> = (0..POOL_PER_TYPE + 3)
            .map(|i| WarpScratch::lease::<u8>(i + 1, 0))
            .collect();
        drop(leases);
        assert!(WarpScratch::pooled::<u8>() <= POOL_PER_TYPE);
    }

    #[test]
    fn distinct_threads_have_distinct_pools() {
        drop(WarpScratch::lease::<u32>(8, 0));
        assert!(WarpScratch::pooled::<u32>() >= 1);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(WarpScratch::pooled::<u32>(), 0);
                drop(WarpScratch::lease::<u32>(8, 0));
            });
        });
    }
}
