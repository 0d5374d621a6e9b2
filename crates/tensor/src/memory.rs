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
//! What the pool keeps is bounded by its own traffic: each class keeps
//! a returned buffer only while its free plus outstanding buffers stay
//! below the most it ever had outstanding at once (`FreeLists`). A
//! retired weight the pool never handed out therefore goes back to the
//! allocator unless the process's own draws from its class have room
//! for it.
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
use std::sync::{Mutex, MutexGuard};

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

/// One capacity class: its free buffers and the demand they answer.
struct Class {
    /// Free buffers of capacity exactly `2^c`. Pool-built buffers always
    /// reserve a power of two ([`pooled_capacity`]), so every buffer in
    /// a class is interchangeable and take/give-back are O(1) pop/push.
    free: Vec<Vec<f32>>,
    /// Buffers of this class handed out (hits, and misses given a pooled
    /// capacity) and not yet given back.
    outstanding: usize,
    /// The most buffers of this class ever outstanding at once.
    high_water: usize,
}

impl Class {
    const fn new() -> Class {
        Class {
            free: Vec::new(),
            outstanding: 0,
            high_water: 0,
        }
    }
}

/// The pool's free lists and the one rule that bounds them.
///
/// A returned buffer is kept only while its class's free buffers plus
/// its outstanding buffers stay below the class's high-water mark of
/// outstanding buffers; otherwise it goes back to the allocator. So a
/// class never holds more buffers than the process's own draws from it
/// once needed at the same time: a loop that re-draws the same classes
/// (a training step, a serving forward) gets every buffer back on its
/// next iteration, while a buffer the pool never handed out — a
/// `randn`-built or checkpoint-loaded weight — is kept only as far as
/// that demand has room for it.
///
/// Instantiable, like [`Accounting`], so the rule is tested on private
/// instances; the process shares one global instance behind a mutex.
struct FreeLists {
    classes: [Class; MAX_CLASS + 1],
    held_bytes: usize,
}

impl FreeLists {
    const fn new() -> FreeLists {
        FreeLists {
            classes: [const { Class::new() }; MAX_CLASS + 1],
            held_bytes: 0,
        }
    }

    /// Hand out a free buffer of class `c`, or one class up (twice as
    /// big) when `c` is empty; `None` is a miss, for which the caller
    /// allocates a fresh `2^c` buffer. Either way the buffer is counted
    /// outstanding against the class it will be given back to.
    fn take(&mut self, c: usize) -> Option<Vec<f32>> {
        let hit = match self.classes[c].free.pop() {
            Some(buf) => Some((c, buf)),
            None if c < MAX_CLASS => self.classes[c + 1].free.pop().map(|buf| (c + 1, buf)),
            None => None,
        };
        let owner = hit.as_ref().map_or(c, |&(owner, _)| owner);
        let class = &mut self.classes[owner];
        class.outstanding += 1;
        class.high_water = class.high_water.max(class.outstanding);
        hit.map(|(_, buf)| {
            self.held_bytes -= buf.capacity() * 4;
            buf
        })
    }

    /// Take back a buffer of power-of-two capacity in class range.
    /// Returns it when the rule refuses it, for the caller to free
    /// outside the lock.
    fn give_back(&mut self, buf: Vec<f32>) -> Option<Vec<f32>> {
        let bytes = buf.capacity() * 4;
        let class = &mut self.classes[class_of(buf.capacity())];
        // A buffer the pool never handed out can arrive while none is
        // outstanding; the count saturates rather than wrapping.
        class.outstanding = class.outstanding.saturating_sub(1);
        if class.free.len() + class.outstanding >= class.high_water {
            return Some(buf);
        }
        class.free.push(buf);
        self.held_bytes += bytes;
        None
    }

    /// Release every free buffer and start each class's demand afresh
    /// from the buffers still outstanding.
    fn clear(&mut self) {
        for class in &mut self.classes {
            class.free = Vec::new();
            class.high_water = class.outstanding;
        }
        self.held_bytes = 0;
    }
}

struct PoolCounters {
    hits: AtomicUsize,
    misses: AtomicUsize,
    recycled_bytes: AtomicUsize,
}

static POOL: Mutex<FreeLists> = Mutex::new(FreeLists::new());
static COUNTERS: PoolCounters = PoolCounters {
    hits: AtomicUsize::new(0),
    misses: AtomicUsize::new(0),
    recycled_bytes: AtomicUsize::new(0),
};

fn lists() -> MutexGuard<'static, FreeLists> {
    POOL.lock()
        .expect("no FreeLists method panics while the pool lock is held")
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

/// The class a `len`-element request draws from, if it is pooled.
fn pooled_class(len: usize) -> Option<usize> {
    let c = class_of(pooled_capacity(len));
    (len >= MIN_POOL_LEN && c <= MAX_CLASS).then_some(c)
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

/// A buffer with room for `len` elements, contents unspecified: from
/// the pool when it has one, else freshly allocated and empty. A fresh
/// buffer in the pooled range reserves its class's power of two, so it
/// joins a free list when its tensor drops; others are exact-sized.
fn acquire(len: usize) -> Vec<f32> {
    let Some(c) = pooled_class(len) else {
        note_miss();
        return Vec::with_capacity(len);
    };
    let found = lists().take(c);
    match found {
        Some(buf) => {
            note_hit(len);
            buf
        }
        None => {
            note_miss();
            Vec::with_capacity(1 << c)
        }
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

/// Return a dropped buffer to its free list, or to the allocator when
/// the buffer is out of class range or its class's demand has no room
/// for it (see `FreeLists`). Called from `Tensor::drop`; returns
/// whether the pool kept the buffer.
///
/// Only power-of-two capacities are accepted — those are the buffers the
/// pool itself built, and uniformity within a class is what keeps
/// acquire scan-free. Odd-sized buffers (e.g. user vectors passed to
/// `from_vec`) go back to the allocator.
pub fn recycle(buf: Vec<f32>) -> bool {
    let cap = buf.capacity();
    if cap < MIN_POOL_LEN || !cap.is_power_of_two() || class_of(cap) > MAX_CLASS {
        return false;
    }
    // The guard drops at the end of this statement, so a refused buffer
    // is freed outside the lock.
    let refused = lists().give_back(buf);
    refused.is_none()
}

/// Release every pooled buffer back to the allocator and reset the
/// hit/miss counters. Used by benchmarks and tests to start cold.
pub fn clear_pool() {
    lists().clear();
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
    let held = lists().held_bytes;
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
        let lists = lists();
        for (c, class) in lists.classes.iter().enumerate() {
            assert!(
                class.free.len() + class.outstanding <= class.high_water,
                "class {c}: {} free + {} outstanding above its mark {}",
                class.free.len(),
                class.outstanding,
                class.high_water
            );
        }
    }

    // The retention rule, on private instances.

    /// Draw a buffer of class `c` the way `acquire` does: from the
    /// lists, else fresh. Returns it and whether it was a miss.
    fn draw(lists: &mut FreeLists, c: usize) -> (Vec<f32>, bool) {
        match lists.take(c) {
            Some(buf) => (buf, false),
            None => (Vec::with_capacity(1 << c), true),
        }
    }

    #[test]
    fn a_loop_over_the_same_classes_misses_only_on_its_first_iteration() {
        // One iteration of a step: intermediates drawn and freed in a
        // fixed order, some freed before later draws reuse them.
        enum Step {
            Draw(usize, usize),
            Give(usize),
        }
        use Step::{Draw, Give};
        let script = [
            Draw(0, 6),
            Draw(1, 9),
            Give(0),
            Draw(2, 6),
            Draw(3, 12),
            Draw(4, 12),
            Give(1),
            Draw(5, 7),
            Give(3),
            Draw(6, 12),
            Give(2),
            Give(6),
            Give(4),
            Give(5),
        ];
        let mut lists = FreeLists::new();
        let mut slots: Vec<Option<Vec<f32>>> = (0..7).map(|_| None).collect();
        for iteration in 0..5 {
            let mut misses = 0;
            for step in &script {
                match *step {
                    Draw(slot, c) => {
                        let (buf, missed) = draw(&mut lists, c);
                        misses += missed as usize;
                        slots[slot] = Some(buf);
                    }
                    Give(slot) => {
                        let refused = lists.give_back(slots[slot].take().unwrap());
                        assert!(refused.is_none(), "a buffer the pool handed out comes back");
                    }
                }
            }
            // Slots 2 and 6 reuse the buffers slots 0 and 3 freed; the
            // other five draws miss only while the lists are cold.
            let want = if iteration == 0 { 5 } else { 0 };
            assert_eq!(misses, want, "iteration {iteration}");
        }
    }

    #[test]
    fn buffers_the_pool_never_handed_out_are_not_kept_without_demand() {
        let mut lists = FreeLists::new();
        // A weight built outside the pool, retired in a class nobody
        // draws from, goes back to the allocator.
        assert!(lists.give_back(Vec::with_capacity(1 << 18)).is_some());
        assert_eq!(lists.held_bytes, 0);
        // Demand in one class makes no room in another.
        let (buf, _) = draw(&mut lists, 10);
        assert!(lists.give_back(buf).is_none());
        assert!(lists.give_back(Vec::with_capacity(1 << 18)).is_some());
        // And a class's demand is met once: one buffer was ever
        // outstanding, one is already free, so a second is refused.
        assert!(lists.give_back(Vec::with_capacity(1 << 10)).is_some());
        assert_eq!(lists.held_bytes, (1 << 10) * 4);
        // While a drawn buffer is out, a foreign one can stand in for it;
        // the drawn one then finds its class full and is refused.
        let (buf, missed) = draw(&mut lists, 10);
        assert!(!missed);
        assert!(lists.give_back(Vec::with_capacity(1 << 10)).is_none());
        assert!(lists.give_back(buf).is_some());
        assert_eq!(lists.held_bytes, (1 << 10) * 4);
    }

    proptest::proptest! {
        /// Any interleaving of draws (each class and one class up),
        /// returns of drawn buffers and returns of foreign buffers keeps
        /// every class's free plus outstanding buffers within its
        /// high-water mark, and `held_bytes` equal to what the lists hold.
        #[test]
        fn kept_plus_outstanding_never_exceeds_the_high_water_mark(
            ops in proptest::collection::vec((0u8..3, 6usize..10, 0usize..64), 0..200),
        ) {
            let mut lists = FreeLists::new();
            let mut live: Vec<Vec<f32>> = Vec::new();
            for (kind, c, pick) in ops {
                match kind {
                    0 => live.push(draw(&mut lists, c).0),
                    1 if !live.is_empty() => {
                        let buf = live.swap_remove(pick % live.len());
                        lists.give_back(buf);
                    }
                    _ => {
                        lists.give_back(Vec::with_capacity(1 << c));
                    }
                }
                let mut held = 0;
                for class in &lists.classes {
                    proptest::prop_assert!(
                        class.free.len() + class.outstanding <= class.high_water
                    );
                    held += class.free.iter().map(|b| b.capacity() * 4).sum::<usize>();
                }
                proptest::prop_assert_eq!(held, lists.held_bytes);
            }
        }
    }
}
