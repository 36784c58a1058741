//! Thread-local recycling pool for transient `Vec<f32>` buffers.
//!
//! A training step allocates dozens of multi-megabyte scratch buffers —
//! forward outputs, backward gradient scratch, GEMM packing panels — and
//! frees them microseconds later when the autograd graph is torn down. At
//! those sizes the allocator round-trips pages to the OS, so every step
//! pays the mmap/munmap + page-fault tax again. This pool keeps freed
//! buffers on a thread-local free-list keyed by length (`BTreeMap`, per
//! lint rule D1) and hands them back to subsequent requests of the same
//! (or slightly smaller) size.
//!
//! Integration points:
//! - [`crate::Tensor`] node data and gradient buffers are recycled when the
//!   node drops, and `accumulate_grad` / `zeros` draw from the pool.
//! - Backward closures in the op modules check scratch out via
//!   [`PooledBuf`], an RAII handle that returns the buffer on drop and
//!   feeds the checked-out high-water counter consumed by
//!   [`crate::GraphLeakGuard`].
//! - [`set_pool_enabled`] turns recycling off (every take allocates fresh,
//!   every recycle drops) so benchmarks can measure the unpooled baseline
//!   on the same build.
//!
//! The pool is thread-local because [`crate::Tensor`] itself is
//! single-threaded (`Rc`); each worker thread warms its own free-lists.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

/// Buffers shorter than this are cheaper to allocate than to track.
const MIN_POOL_ELEMS: usize = 64;

/// Cap on retained free-list elements per thread (16 Mi f32 = 64 MiB).
const MAX_RETAINED_ELEMS: usize = 16 * 1024 * 1024;

/// A free buffer is reused only when its length is at most this multiple of
/// the request, so small asks cannot pin huge buffers.
const MAX_SLACK_FACTOR: usize = 2;

/// Snapshot of the pool's counters for one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffer requests served (hit or miss).
    pub takes: u64,
    /// Requests satisfied from the free-list.
    pub hits: u64,
    /// Requests that fell back to a fresh allocation.
    pub misses: u64,
    /// Buffers accepted back onto the free-list.
    pub recycled: u64,
    /// RAII handles currently outstanding ([`PooledBuf`] checkouts).
    pub checked_out: u64,
    /// Maximum simultaneous checkouts observed (high-water mark).
    pub high_water: u64,
    /// Elements currently parked on the free-list.
    pub retained_elems: u64,
}

#[derive(Default)]
struct Pool {
    /// Free buffers keyed by their length (capacity may exceed it).
    free: BTreeMap<usize, Vec<Vec<f32>>>,
    retained_elems: usize,
    disabled: bool,
    stats: PoolStats,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// How the caller wants the returned buffer prepared.
enum Prep {
    /// Length `n`, every element `0.0`.
    Zeroed,
    /// Length `n`, contents unspecified (caller overwrites everything).
    Scratch,
    /// Length `0`, capacity at least `n` (caller appends).
    Cleared,
}

fn take(n: usize, prep: Prep) -> Vec<f32> {
    let reused = POOL
        .try_with(|cell| {
            let mut p = cell.borrow_mut();
            if n < MIN_POOL_ELEMS {
                // Below the pooling threshold: not counted, so hit-rate
                // reflects only buffers the pool could actually serve.
                return None;
            }
            p.stats.takes += 1;
            if p.disabled {
                p.stats.misses += 1;
                return None;
            }
            let hi = n.saturating_mul(MAX_SLACK_FACTOR);
            let mut found: Option<(usize, Vec<f32>)> = None;
            if let Some((&len, bucket)) = p.free.range_mut(n..=hi).next() {
                if let Some(v) = bucket.pop() {
                    found = Some((len, v));
                }
            }
            match found {
                Some((len, v)) => {
                    if p.free.get(&len).is_some_and(|b| b.is_empty()) {
                        p.free.remove(&len);
                    }
                    p.retained_elems = p.retained_elems.saturating_sub(len);
                    p.stats.retained_elems = p.retained_elems as u64;
                    p.stats.hits += 1;
                    Some(v)
                }
                None => {
                    p.stats.misses += 1;
                    None
                }
            }
        })
        .unwrap_or(None);

    match reused {
        Some(mut v) => {
            match prep {
                Prep::Zeroed => {
                    v.truncate(n);
                    v.fill(0.0);
                }
                Prep::Scratch => v.truncate(n),
                Prep::Cleared => v.clear(),
            }
            v
        }
        None => match prep {
            // A fresh zeroed Vec serves both: the allocator hands back
            // zero pages anyway, and `Scratch` contents are unspecified.
            Prep::Zeroed | Prep::Scratch => vec![0.0; n],
            Prep::Cleared => Vec::with_capacity(n),
        },
    }
}

/// Pooled buffer of length `n` with every element `0.0`.
pub(crate) fn take_zeroed(n: usize) -> Vec<f32> {
    take(n, Prep::Zeroed)
}

/// Pooled buffer of length `n` with unspecified contents — callers must
/// overwrite every element before reading.
pub(crate) fn take_scratch(n: usize) -> Vec<f32> {
    take(n, Prep::Scratch)
}

/// Pooled empty buffer with capacity at least `n`, for `extend` builders.
pub(crate) fn take_cleared(n: usize) -> Vec<f32> {
    take(n, Prep::Cleared)
}

/// Offer a buffer back to this thread's free-list. Dropped (deallocated
/// normally) when pooling is disabled, the buffer is too small, or the
/// retained-bytes cap is reached.
pub(crate) fn recycle(v: Vec<f32>) {
    let len = v.len();
    if len < MIN_POOL_ELEMS {
        return;
    }
    // Ignore TLS-teardown races: if the pool is already destroyed the
    // buffer simply deallocates normally.
    let _ = POOL.try_with(|cell| {
        let mut p = cell.borrow_mut();
        if p.disabled || p.retained_elems + len > MAX_RETAINED_ELEMS {
            return;
        }
        p.retained_elems += len;
        p.stats.retained_elems = p.retained_elems as u64;
        p.stats.recycled += 1;
        p.free.entry(len).or_default().push(v);
    });
}

fn checkout_inc() {
    let _ = POOL.try_with(|cell| {
        let mut p = cell.borrow_mut();
        p.stats.checked_out += 1;
        if p.stats.checked_out > p.stats.high_water {
            p.stats.high_water = p.stats.checked_out;
        }
    });
}

fn checkout_dec() {
    let _ = POOL.try_with(|cell| {
        let mut p = cell.borrow_mut();
        p.stats.checked_out = p.stats.checked_out.saturating_sub(1);
    });
}

/// RAII checkout of a pooled scratch buffer.
///
/// Dereferences to `Vec<f32>`; dropping the handle returns the buffer to
/// the thread's free-list and decrements the checked-out counter, so an
/// un-returned buffer shows up as a nonzero [`live_pooled_buffers`] — the
/// debug-mode [`crate::GraphLeakGuard`] asserts that count is restored
/// across guarded scopes.
pub struct PooledBuf {
    buf: Option<Vec<f32>>,
}

impl PooledBuf {
    /// Check out a buffer of length `n`, all elements `0.0`.
    pub fn zeroed(n: usize) -> Self {
        checkout_inc();
        PooledBuf {
            buf: Some(take_zeroed(n)),
        }
    }

    /// Check out a buffer of length `n` with unspecified contents; the
    /// caller must overwrite every element before reading.
    pub fn scratch(n: usize) -> Self {
        checkout_inc();
        PooledBuf {
            buf: Some(take_scratch(n)),
        }
    }

    /// Check out a buffer of length `n`, every element `v`.
    pub fn filled(n: usize, v: f32) -> Self {
        let mut b = Self::scratch(n);
        b.fill(v);
        b
    }
}

impl Deref for PooledBuf {
    type Target = Vec<f32>;
    fn deref(&self) -> &Vec<f32> {
        // INVARIANT: `buf` is only `None` once `drop` has taken it, so it
        // is always present here.
        self.buf.as_ref().expect("PooledBuf already consumed")
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<f32> {
        // INVARIANT: `buf` is only `None` once `drop` has taken it, so it
        // is always present here.
        self.buf.as_mut().expect("PooledBuf already consumed")
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(v) = self.buf.take() {
            checkout_dec();
            recycle(v);
        }
    }
}

/// This thread's pool counters.
pub fn pool_stats() -> PoolStats {
    POOL.try_with(|cell| cell.borrow().stats)
        .unwrap_or_default()
}

/// Reset this thread's pool counters (free-lists are untouched).
pub fn reset_pool_stats() {
    let _ = POOL.try_with(|cell| {
        let mut p = cell.borrow_mut();
        let retained = p.stats.retained_elems;
        let checked_out = p.stats.checked_out;
        p.stats = PoolStats {
            retained_elems: retained,
            checked_out,
            high_water: checked_out,
            ..PoolStats::default()
        };
    });
}

/// Scoped counter isolation for this thread's pool stats, from
/// [`pool_stats_scope`]. While the scope is alive, [`pool_stats`] reports
/// only activity since the scope opened; on drop the pre-scope counters
/// are merged back in, so enclosing observers still see cumulative
/// totals. This is what lets two tests (or a test and the code under
/// test) assert on `pool_stats()` without perturbing each other.
pub struct PoolStatsScope {
    saved: PoolStats,
    /// Thread-local state: the guard must drop on the creating thread.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Open a [`PoolStatsScope`]: snapshot and reset this thread's pool
/// counters, restoring (merged) counters when the guard drops.
pub fn pool_stats_scope() -> PoolStatsScope {
    let saved = pool_stats();
    reset_pool_stats();
    PoolStatsScope {
        saved,
        _not_send: std::marker::PhantomData,
    }
}

impl PoolStatsScope {
    /// Counters accumulated inside this scope so far (same as
    /// [`pool_stats`] while the scope is the active one).
    pub fn stats(&self) -> PoolStats {
        pool_stats()
    }
}

impl Drop for PoolStatsScope {
    fn drop(&mut self) {
        let _ = POOL.try_with(|cell| {
            let mut p = cell.borrow_mut();
            let inner = p.stats;
            p.stats = PoolStats {
                takes: self.saved.takes + inner.takes,
                hits: self.saved.hits + inner.hits,
                misses: self.saved.misses + inner.misses,
                recycled: self.saved.recycled + inner.recycled,
                // Live levels are current truth, not scope-relative.
                checked_out: inner.checked_out,
                high_water: self.saved.high_water.max(inner.high_water),
                retained_elems: inner.retained_elems,
            };
        });
    }
}

/// Enable or disable recycling on this thread; returns the previous state.
///
/// While disabled every take allocates fresh and every recycle drops, which
/// is how `zg-bench` measures the unpooled baseline on the same build.
pub fn set_pool_enabled(enabled: bool) -> bool {
    POOL.try_with(|cell| {
        let mut p = cell.borrow_mut();
        let was = !p.disabled;
        p.disabled = !enabled;
        was
    })
    .unwrap_or(true)
}

/// Drop every buffer parked on this thread's free-list.
pub fn clear_pool() {
    let _ = POOL.try_with(|cell| {
        let mut p = cell.borrow_mut();
        p.free.clear();
        p.retained_elems = 0;
        p.stats.retained_elems = 0;
    });
}

/// Number of [`PooledBuf`] handles currently outstanding on this thread.
///
/// Zero whenever no backward pass is mid-flight; a persistent nonzero value
/// means pooled scratch escaped its scope.
pub fn live_pooled_buffers() -> u64 {
    pool_stats().checked_out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests mutate thread-local pool state; each starts from a clean slate.
    fn reset() {
        set_pool_enabled(true);
        clear_pool();
        reset_pool_stats();
    }

    #[test]
    fn take_recycle_roundtrip_hits() {
        reset();
        let v = take_zeroed(1024);
        assert_eq!(v.len(), 1024);
        recycle(v);
        let before = pool_stats();
        assert_eq!(before.recycled, 1);
        let v2 = take_zeroed(1024);
        assert_eq!(v2.len(), 1024);
        assert!(v2.iter().all(|&x| x == 0.0));
        let after = pool_stats();
        assert_eq!(after.hits, before.hits + 1);
    }

    #[test]
    fn smaller_request_reuses_with_bounded_slack() {
        reset();
        recycle(vec![7.0; 1000]);
        // 600 is within 2x of 1000: reuse and truncate.
        let v = take_scratch(600);
        assert_eq!(v.len(), 600);
        assert_eq!(pool_stats().hits, 1);
        recycle(v);
        // 100 is far below 600: the parked buffer must not be pinned.
        let w = take_scratch(100);
        assert_eq!(w.len(), 100);
        assert_eq!(
            pool_stats().hits,
            1,
            "oversized buffer must not serve tiny ask"
        );
    }

    #[test]
    fn zeroed_take_scrubs_recycled_contents() {
        reset();
        recycle(vec![3.5; 512]);
        let v = take_zeroed(512);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cleared_take_is_empty_with_capacity() {
        reset();
        recycle(vec![1.0; 256]);
        let v = take_cleared(256);
        assert!(v.is_empty());
        assert!(v.capacity() >= 256);
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        reset();
        recycle(vec![1.0; MIN_POOL_ELEMS - 1]);
        assert_eq!(pool_stats().recycled, 0);
        let _ = take_zeroed(8);
        assert_eq!(pool_stats().hits, 0);
    }

    #[test]
    fn disabled_pool_never_recycles() {
        reset();
        set_pool_enabled(false);
        recycle(vec![1.0; 4096]);
        let v = take_zeroed(4096);
        assert_eq!(pool_stats().hits, 0);
        drop(v);
        set_pool_enabled(true);
    }

    #[test]
    fn pooled_buf_checkout_counter_balances() {
        reset();
        assert_eq!(live_pooled_buffers(), 0);
        {
            let a = PooledBuf::zeroed(128);
            let b = PooledBuf::zeroed(128);
            assert_eq!(live_pooled_buffers(), 2);
            assert_eq!(pool_stats().high_water, 2);
            drop(a);
            assert_eq!(live_pooled_buffers(), 1);
            drop(b);
        }
        assert_eq!(live_pooled_buffers(), 0);
        assert_eq!(pool_stats().high_water, 2);
    }

    #[test]
    fn retained_cap_bounds_free_list() {
        reset();
        let chunk = MAX_RETAINED_ELEMS / 2;
        recycle(vec![0.0; chunk]);
        recycle(vec![0.0; chunk]);
        // A third chunk would exceed the cap and must be dropped.
        recycle(vec![0.0; chunk]);
        let s = pool_stats();
        assert_eq!(s.recycled, 2);
        assert!(s.retained_elems as usize <= MAX_RETAINED_ELEMS);
        clear_pool();
        assert_eq!(pool_stats().retained_elems, 0);
    }

    #[test]
    fn stats_scope_isolates_and_merges_back() {
        reset();
        recycle(vec![0.0; 512]);
        let _ = take_zeroed(512); // outer: 1 take, 1 hit
        let outer_before = pool_stats();
        assert_eq!(outer_before.takes, 1);
        {
            let scope = pool_stats_scope();
            assert_eq!(pool_stats().takes, 0, "scope starts clean");
            let _ = take_zeroed(512); // inner: 1 take, 1 miss
            assert_eq!(scope.stats().takes, 1);
            assert_eq!(scope.stats().hits, 0);
        }
        // After the scope, cumulative counters include inner activity.
        let outer_after = pool_stats();
        assert_eq!(outer_after.takes, 2);
        assert_eq!(outer_after.hits, 1);
        assert_eq!(outer_after.misses, 1);
    }

    #[test]
    fn stats_scopes_nest() {
        reset();
        let s1 = pool_stats_scope();
        let _ = take_zeroed(256);
        {
            let s2 = pool_stats_scope();
            let _ = take_zeroed(256);
            let _ = take_zeroed(256);
            assert_eq!(s2.stats().takes, 2);
        }
        assert_eq!(s1.stats().takes, 3, "inner scope merges into outer");
        drop(s1);
        assert_eq!(pool_stats().takes, 3);
    }

    #[test]
    fn stats_scope_tracks_live_checkouts_truthfully() {
        reset();
        let held = PooledBuf::zeroed(128);
        {
            let scope = pool_stats_scope();
            // The pre-existing checkout is a live level, not scope activity.
            assert_eq!(scope.stats().checked_out, 1);
            let inner = PooledBuf::zeroed(128);
            assert_eq!(scope.stats().checked_out, 2);
            drop(inner);
        }
        assert_eq!(pool_stats().checked_out, 1);
        drop(held);
        assert_eq!(pool_stats().checked_out, 0);
    }
}
