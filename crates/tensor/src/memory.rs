//! Global tensor-byte accounting and the buffer-recycling pool.
//!
//! The paper's Table VIII reports GPU memory usage per model variant. Our
//! substrate is CPU-only, so the analogous quantity is the number of bytes
//! held live in tensor buffers. Every [`crate::Tensor`] registers its
//! buffer size on construction and deregisters on drop, letting the
//! experiment harness report `peak_bytes()` per training run.
//!
//! The counter logic lives in [`Accounting`], an instantiable struct, so
//! its arithmetic can be unit-tested deterministically on private
//! instances; the process wires one global instance into the `Tensor`
//! constructor/drop paths. The globals are plain atomics: cheap enough to
//! leave enabled unconditionally, and safe to read from any thread —
//! though with the worker pool other threads may allocate concurrently,
//! so global readings are best-effort snapshots, not exact ledgers.
//!
//! # Buffer pool
//!
//! A training step allocates and frees the same tensor shapes every
//! iteration: forward intermediates, gradients, optimizer scratch. Rather
//! than round-tripping each `Vec<f32>` through the global allocator, the
//! pool keeps dropped buffers on free lists keyed by *capacity class*
//! (floor log2 of capacity) and hands them back to the tensor
//! constructors. After the first step warms the pool, steady-state
//! training performs almost no heap allocation.
//!
//! Accounting semantics are preserved: a pooled (free) buffer belongs to
//! no tensor, so it is **not** counted in `current_bytes`/`peak_bytes` —
//! those still mean "bytes held live in tensor buffers", exactly as
//! before. The pool's own footprint is observable separately through
//! [`pool_stats`] and the `alloc.*` counters.
//!
//! The pool is a `Mutex` around plain `Vec` free lists — no lock-free
//! cleverness. Tensor construction and drop already happen on the main
//! thread in the training loop; worker threads only touch the pool when a
//! kernel closure constructs temporaries, which the hot paths avoid. A
//! contended mutex acquisition is still ~20ns, noise next to a 256KiB
//! memset saved per hit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A live-bytes counter with a high-water mark.
///
/// All methods are lock-free and safe under concurrent use; `current`
/// is exact once all allocating threads have quiesced, and `peak` never
/// under-reports a quiesced high-water mark.
#[derive(Default)]
pub struct Accounting {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl Accounting {
    pub const fn new() -> Accounting {
        Accounting {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Record an allocation of `bytes`; returns the new live total.
    pub fn alloc(&self, bytes: usize) -> usize {
        let now = self.current.fetch_add(bytes, Ordering::Relaxed) + bytes;
        // Lock-free peak update: retry while we hold a larger value.
        let mut peak = self.peak.load(Ordering::Relaxed);
        while now > peak {
            match self
                .peak
                .compare_exchange_weak(peak, now, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(p) => peak = p,
            }
        }
        now
    }

    /// Record a deallocation of `bytes`.
    pub fn dealloc(&self, bytes: usize) {
        self.current.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently recorded as live.
    pub fn current(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// High-water mark since the last [`Accounting::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to the current live byte count.
    pub fn reset_peak(&self) {
        self.peak.store(self.current(), Ordering::Relaxed);
    }
}

static GLOBAL: Accounting = Accounting::new();

/// Record an allocation of `bytes` tensor-buffer bytes.
pub(crate) fn track_alloc(bytes: usize) {
    GLOBAL.alloc(bytes);
    stwa_observe::counter!("tensor.allocs").incr();
    stwa_observe::counter!("tensor.alloc_bytes").add(bytes as u64);
}

/// Record a deallocation of `bytes` tensor-buffer bytes.
pub(crate) fn track_dealloc(bytes: usize) {
    GLOBAL.dealloc(bytes);
}

/// Bytes currently held in live tensor buffers.
pub fn current_bytes() -> usize {
    GLOBAL.current()
}

/// High-water mark of tensor-buffer bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    GLOBAL.peak()
}

/// Reset the high-water mark to the current live byte count.
///
/// Call this at the start of a measured region (e.g. one training run) and
/// read [`peak_bytes`] at the end.
pub fn reset_peak() {
    GLOBAL.reset_peak()
}

// -------------------------------------------------------------------
// Buffer pool
// -------------------------------------------------------------------

/// Buffers shorter than this are not worth pooling: the mutex round-trip
/// costs as much as the malloc it saves.
const MIN_POOL_LEN: usize = 64;

/// Largest capacity class retained (2^27 f32 = 512 MiB). Anything bigger
/// goes straight back to the allocator rather than pinning gigabytes.
const MAX_CLASS: usize = 27;

/// Total bytes the pool may hold in free buffers; releases beyond this
/// fall through to the allocator.
const MAX_HELD_BYTES: usize = 1 << 30;

/// Free buffers retained per capacity class. Generous on purpose: one
/// training step can drop hundreds of same-shape intermediates at once
/// (the whole tape frees when the graph drops) and the next step wants
/// every one of them back.
const MAX_PER_CLASS: usize = 4096;

struct PoolInner {
    /// `classes[c]` holds buffers of capacity exactly `2^c`. Pool-built
    /// buffers always reserve a power of two ([`pooled_capacity`]), so
    /// every buffer in a class is interchangeable and acquire/release
    /// are O(1) push/pop — no scanning under the lock.
    classes: Vec<Vec<Vec<f32>>>,
    held_bytes: usize,
}

struct PoolCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    recycled_bytes: AtomicUsize,
}

static POOL: OnceLock<Mutex<PoolInner>> = OnceLock::new();
static COUNTERS: PoolCounters = PoolCounters {
    hits: AtomicUsize::new(0),
    misses: AtomicUsize::new(0),
    recycled_bytes: AtomicUsize::new(0),
};

fn pool() -> &'static Mutex<PoolInner> {
    POOL.get_or_init(|| {
        Mutex::new(PoolInner {
            classes: (0..=MAX_CLASS).map(|_| Vec::new()).collect(),
            held_bytes: 0,
        })
    })
}

/// `floor(log2(cap))`, the free-list index for a buffer of capacity `cap`.
fn class_of(cap: usize) -> usize {
    usize::BITS as usize - 1 - cap.leading_zeros() as usize
}

/// Capacity reserved for a pool-built buffer of `len` elements: the next
/// power of two. Rounding up (at most 2x) is what makes every buffer in
/// a class interchangeable, turning acquire into a constant-time pop.
fn pooled_capacity(len: usize) -> usize {
    len.next_power_of_two()
}

/// Try to pull a free buffer with `capacity >= len` from the pool.
///
/// Pops from the class of `len`'s rounded-up capacity (every buffer
/// there has exactly that capacity) and falls back one class up, where
/// buffers are twice as big. Both probes are O(1) — the lock is held for
/// a few instructions, never a scan.
fn pool_acquire(len: usize) -> Option<Vec<f32>> {
    if len < MIN_POOL_LEN {
        return None;
    }
    let c = class_of(pooled_capacity(len));
    if c > MAX_CLASS {
        return None;
    }
    let mut inner = pool().lock().unwrap();
    let found = inner.classes[c].pop();
    let found = found.or_else(|| {
        if c < MAX_CLASS {
            inner.classes[c + 1].pop()
        } else {
            None
        }
    });
    if let Some(buf) = &found {
        inner.held_bytes -= buf.capacity() * 4;
    }
    found
}

fn note_hit(len: usize) {
    COUNTERS.hits.fetch_add(1, Ordering::Relaxed);
    COUNTERS.recycled_bytes.fetch_add(len * 4, Ordering::Relaxed);
    stwa_observe::counter!("alloc.pool_hits").incr();
    stwa_observe::counter!("alloc.bytes_recycled").add((len * 4) as u64);
}

fn note_miss() {
    COUNTERS.misses.fetch_add(1, Ordering::Relaxed);
    stwa_observe::counter!("alloc.pool_misses").incr();
    stwa_observe::counter!("alloc.heap").incr();
}

/// A freshly heap-allocated, *empty* buffer for `len` elements.
/// Capacity is rounded up to the pooled power of two so the buffer
/// joins a free list when its tensor drops; lengths outside the pooled
/// range are exact-sized.
fn fresh(len: usize) -> Vec<f32> {
    note_miss();
    if len >= MIN_POOL_LEN && class_of(pooled_capacity(len)) <= MAX_CLASS {
        Vec::with_capacity(pooled_capacity(len))
    } else {
        Vec::with_capacity(len)
    }
}

/// A buffer with room for `len` elements, contents unspecified: from
/// the pool when it has one, else fresh (and empty).
fn acquire(len: usize) -> Vec<f32> {
    match pool_acquire(len) {
        Some(buf) => {
            note_hit(len);
            buf
        }
        None => fresh(len),
    }
}

/// A buffer of exactly `len` elements with *unspecified* (but
/// initialized) contents — for outputs every element of which the caller
/// overwrites. Pool hits skip both malloc and memset.
pub fn take_scratch(len: usize) -> Vec<f32> {
    let mut buf = acquire(len);
    // Shrink is a truncate; grow fills only the tail. Either way every
    // element is initialized f32 memory.
    buf.resize(len, 0.0);
    buf
}

/// A buffer of `len` copies of `value`, drawn from the pool when possible.
pub fn take_filled(len: usize, value: f32) -> Vec<f32> {
    let mut buf = acquire(len);
    buf.clear();
    buf.resize(len, value);
    buf
}

/// A pooled copy of `src`.
pub fn take_copy(src: &[f32]) -> Vec<f32> {
    let mut buf = acquire(src.len());
    buf.clear();
    buf.extend_from_slice(src);
    buf
}

/// Return a dropped buffer to the free list (or to the allocator when
/// the buffer is out of class range or the pool is at capacity). Called
/// from `Tensor::drop`.
///
/// Only power-of-two capacities are accepted — those are the buffers the
/// pool itself built, and uniformity within a class is what keeps
/// acquire scan-free. Odd-sized buffers (e.g. user vectors passed to
/// `from_vec`) go back to the allocator.
pub fn recycle(buf: Vec<f32>) {
    let cap = buf.capacity();
    if cap < MIN_POOL_LEN || !cap.is_power_of_two() {
        return;
    }
    let c = class_of(cap);
    if c > MAX_CLASS {
        return;
    }
    let bytes = cap * 4;
    let mut inner = pool().lock().unwrap();
    if inner.held_bytes + bytes > MAX_HELD_BYTES || inner.classes[c].len() >= MAX_PER_CLASS {
        return;
    }
    inner.held_bytes += bytes;
    inner.classes[c].push(buf);
}

/// Release every pooled buffer back to the allocator and reset the
/// hit/miss counters. Used by benchmarks and tests to start cold.
pub fn clear_pool() {
    let mut inner = pool().lock().unwrap();
    for list in &mut inner.classes {
        list.clear();
    }
    inner.held_bytes = 0;
    COUNTERS.hits.store(0, Ordering::Relaxed);
    COUNTERS.misses.store(0, Ordering::Relaxed);
    COUNTERS.recycled_bytes.store(0, Ordering::Relaxed);
}

/// Snapshot of pool activity since the last [`clear_pool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions served from the free lists.
    pub hits: usize,
    /// Acquisitions that fell through to the heap.
    pub misses: usize,
    /// Bytes served from recycled buffers.
    pub recycled_bytes: usize,
    /// Heap allocations by the tensor constructors: every miss is one.
    pub heap_allocs: usize,
    /// Bytes currently parked on the free lists.
    pub held_bytes: usize,
}

impl PoolStats {
    /// Fraction of acquisitions served from the pool (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Read the pool's activity counters and current footprint.
pub fn pool_stats() -> PoolStats {
    let held = pool().lock().unwrap().held_bytes;
    let misses = COUNTERS.misses.load(Ordering::Relaxed);
    PoolStats {
        hits: COUNTERS.hits.load(Ordering::Relaxed),
        misses,
        recycled_bytes: COUNTERS.recycled_bytes.load(Ordering::Relaxed),
        heap_allocs: misses,
        held_bytes: held,
    }
}

/// Format a byte count for human-readable experiment tables.
pub fn format_bytes(bytes: usize) -> String {
    const KB: f64 = 1024.0;
    let b = bytes as f64;
    if b >= KB * KB * KB {
        format!("{:.2} GiB", b / (KB * KB * KB))
    } else if b >= KB * KB {
        format!("{:.2} MiB", b / (KB * KB))
    } else if b >= KB {
        format!("{:.2} KiB", b / KB)
    } else {
        format!("{bytes} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    // The arithmetic is tested exactly on private instances; the global
    // counters are shared with every concurrently running test (and the
    // worker pool), so the tests against them only assert *deltas large
    // enough to be unambiguous*, never absolute equality.

    #[test]
    fn accounting_tracks_alloc_and_dealloc_exactly() {
        let acct = Accounting::new();
        assert_eq!(acct.alloc(1024), 1024);
        assert_eq!(acct.alloc(512), 1536);
        assert_eq!(acct.current(), 1536);
        acct.dealloc(1024);
        assert_eq!(acct.current(), 512);
        acct.dealloc(512);
        assert_eq!(acct.current(), 0);
    }

    #[test]
    fn accounting_peak_is_monotone_until_reset() {
        let acct = Accounting::new();
        acct.alloc(4096);
        acct.dealloc(4096);
        // Peak persists after the bytes are gone...
        assert_eq!(acct.peak(), 4096);
        acct.alloc(100);
        assert_eq!(acct.peak(), 4096);
        // ...until reset, which clamps it to the live count.
        acct.reset_peak();
        assert_eq!(acct.peak(), 100);
    }

    #[test]
    fn accounting_peak_tracks_highest_watermark() {
        let acct = Accounting::new();
        for _ in 0..4 {
            acct.alloc(1000);
            acct.dealloc(500);
        }
        assert_eq!(acct.current(), 2000);
        // Live bytes peaked on the final alloc: 3*500 + 1000.
        assert_eq!(acct.peak(), 2500);
    }

    #[test]
    fn global_counters_observe_tensor_lifecycle() {
        // Other tests allocate and free tensors concurrently, so no
        // absolute-equality or even delta assertion on the globals is
        // sound (the seed's versions of these tests were flaky for
        // exactly that reason). What *is* race-free: the global live
        // count is a sum of live buffer sizes, so while our tensor is
        // alive the count — and therefore the peak — must be at least
        // its size, no matter what other threads do.
        let bytes = (1 << 16) * std::mem::size_of::<f32>();
        let t = Tensor::zeros(&[1 << 16]);
        assert!(
            current_bytes() >= bytes,
            "a live [65536] tensor must be covered by the global count"
        );
        assert!(peak_bytes() >= bytes, "peak must cover the live tensor");
        drop(t);
    }

    #[test]
    fn format_bytes_units() {
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.00 MiB");
        assert!(format_bytes(2 * 1024 * 1024 * 1024).ends_with("GiB"));
    }

    #[test]
    fn capacity_classes_bracket_powers_of_two() {
        assert_eq!(class_of(64), 6);
        assert_eq!(class_of(127), 6);
        assert_eq!(class_of(128), 7);
        assert_eq!(class_of(1), 0);
    }

    #[test]
    fn pool_roundtrip_reuses_buffer() {
        // Use an odd size no other test allocates, so concurrent tests
        // cannot steal the buffer between release and acquire.
        let n = 12_345;
        let buf = take_scratch(n);
        let ptr = buf.as_ptr();
        recycle(buf);
        let again = take_scratch(n);
        assert_eq!(again.len(), n);
        assert_eq!(again.as_ptr(), ptr, "same-size reacquire must reuse the buffer");
        drop(again);
    }

    #[test]
    fn pool_filled_and_copy_reinitialize() {
        let n = 23_456;
        let mut buf = take_scratch(n);
        for x in buf.iter_mut() {
            *x = 7.0;
        }
        recycle(buf);
        // A pooled buffer full of sevens must come back fully reset.
        let filled = take_filled(n, 1.5);
        assert!(filled.iter().all(|&x| x == 1.5));
        recycle(filled);
        let src: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let copy = take_copy(&src);
        assert_eq!(copy, src);
    }

    #[test]
    fn tiny_buffers_bypass_the_pool() {
        let before = pool_stats();
        let buf = take_scratch(MIN_POOL_LEN - 1);
        recycle(buf);
        let after = pool_stats();
        // Tiny requests always miss (they never enter the free lists).
        assert!(after.misses > before.misses || after.hits == before.hits);
    }

    /// Hand-rolled interleaving test for the free list: several threads
    /// hammer acquire/write/verify/release concurrently. If the pool ever
    /// handed the same buffer to two threads at once, the sentinel check
    /// would see the other thread's writes.
    #[test]
    fn pool_survives_concurrent_drop_and_alloc() {
        let threads = 8;
        let rounds = 200;
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                std::thread::spawn(move || {
                    let sentinel = tid as f32 + 1.0;
                    for r in 0..rounds {
                        let n = 4096 + (tid * 131 + r * 17) % 4096;
                        let mut buf = take_scratch(n);
                        assert_eq!(buf.len(), n);
                        for x in buf.iter_mut() {
                            *x = sentinel;
                        }
                        // Re-check after a yield: another thread holding
                        // this buffer would have scribbled its own id.
                        std::thread::yield_now();
                        assert!(
                            buf.iter().all(|&x| x == sentinel),
                            "buffer shared between threads"
                        );
                        recycle(buf);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = pool_stats();
        assert!(stats.held_bytes <= MAX_HELD_BYTES);
    }
}
