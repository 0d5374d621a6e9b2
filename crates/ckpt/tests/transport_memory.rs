//! The checkpoint transport's memory claim, in live heap bytes: a
//! publish streams the checkpoint to disk without holding the file, and
//! a load holds the file once and each tensor once, moving the decoded
//! buffers into the store instead of copying them.
//!
//! A counting global allocator measures every heap byte the process
//! holds, so this is the only test in its binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_nn::ParamStore;
use stwa_tensor::Tensor;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return how far live heap bytes rose above where they
/// stood before it, at their highest.
fn peak_rise<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (PEAK.load(Ordering::Relaxed) - before, out)
}

/// Headroom for paths, the manifest, directory listings and the
/// writer's buffer — everything but the tensors and the file itself.
const SLACK: usize = 256 * 1024;

/// A store whose largest tensor (512 KiB) alone is over [`SLACK`], so
/// one extra copy of it, or of the file, breaks either bound. It is
/// registered last: a copy made while it decodes adds to every tensor
/// decoded before it.
fn store(fill: f32) -> ParamStore {
    let store = ParamStore::new();
    for (name, shape) in [
        ("dec.b", [1, 256]),
        ("dec.w", [256, 256]),
        ("enc.w", [512, 256]),
    ] {
        let len = shape[0] * shape[1];
        let data = (0..len).map(|i| fill + i as f32 * 1e-3).collect();
        store.param(name, Tensor::from_vec(data, &shape).unwrap());
    }
    store
}

#[test]
fn publish_streams_and_load_holds_the_file_and_each_tensor_once() {
    let root = std::env::temp_dir().join(format!("stwa_transport_memory_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();

    let saved = store(1.0);
    let ckpt = TrainCheckpoint::params_only("demo", &saved);
    let param_bytes: usize = ckpt.params.iter().map(|t| t.data.len() * 4).sum();
    let (publish_rise, version) = peak_rise(|| registry.publish("demo", &ckpt).unwrap());
    assert!(
        publish_rise <= SLACK,
        "a publish of {param_bytes} parameter bytes raised the heap by {publish_rise} B; \
         the bound is {SLACK} B over what was live before"
    );

    let file_bytes: usize = std::fs::read_dir(registry.version_dir("demo", version))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "bin"))
        .map(|p| std::fs::metadata(p).unwrap().len() as usize)
        .sum();
    let loading = store(-1.0);
    let (load_rise, ()) = peak_rise(|| {
        registry
            .load("demo", None)
            .unwrap()
            .load_best_into(&loading)
            .unwrap()
    });
    let bound = file_bytes + param_bytes + SLACK;
    assert!(
        load_rise <= bound,
        "a load raised the heap by {load_rise} B; the bound is {bound} B \
         ({file_bytes} file + {param_bytes} parameter + {SLACK} slack)"
    );
    for (a, b) in saved.params().iter().zip(loading.params()) {
        assert_eq!(a.value().data(), b.value().data(), "{}", a.name());
    }
    let _ = std::fs::remove_dir_all(&root);
}
