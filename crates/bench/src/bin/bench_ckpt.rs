//! Checkpoint save/load throughput harness: publishes a training-shaped
//! checkpoint (parameters + both Adam moment sets + best-params — the
//! exact blob mix `Trainer` writes) through the model registry and loads
//! it back, reporting MB/s for each direction.
//!
//! Before timing begins the loaded checkpoint is asserted **bitwise
//! equal** to what was saved — the format is only fast because it is a
//! flat LE dump, never because it drops precision.
//!
//! Saves and loads alternate, one call a burst
//! (`stwa_bench::gate::interleave`), and each rate is over its side's
//! median. `--check` gates both directions at 15% below the checked-in
//! baseline (`BENCH_ckpt.json`), the same tolerance as every other bench
//! gate.

use stwa_bench::gate::{self, Fields, Gate, Limit};
use stwa_ckpt::{NamedTensor, Registry, TrainCheckpoint};

/// Parameter tensors in the synthetic model (each with m/v moments and a
/// best-params copy, so the on-disk volume is ~4x this).
const TENSORS: usize = 4;
const ELEMS_PER_TENSOR: usize = 1 << 20; // 4 MiB of f32 per tensor

/// A deterministic, non-trivial fill (compressibility must not matter,
/// but all-zero pages can be special-cased by the filesystem).
fn fill(seed: usize) -> Vec<f32> {
    let mut state = seed as u32 | 1;
    (0..ELEMS_PER_TENSOR)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1 << 24) as f32 - 0.5
        })
        .collect()
}

fn synthetic_checkpoint() -> TrainCheckpoint {
    let params: Vec<NamedTensor> = (0..TENSORS)
        .map(|i| NamedTensor {
            name: format!("layer{i}.w"),
            shape: vec![1024, ELEMS_PER_TENSOR / 1024],
            data: fill(i),
        })
        .collect();
    let moments = |tag: usize| -> Vec<NamedTensor> {
        params
            .iter()
            .map(|p| NamedTensor {
                name: p.name.clone(),
                shape: p.shape.clone(),
                data: fill(100 * tag + 7),
            })
            .collect()
    };
    TrainCheckpoint {
        model: "bench".to_string(),
        seed: 42,
        config_hash: 0xBE7C_4B07,
        epoch: 5,
        step: 1234,
        rng: [1, 2, 3, 4],
        best_val: 17.25,
        since_best: 0,
        history: vec![(30.0, 20.0), (25.0, 17.25)],
        params: params.clone(),
        opt_m: moments(1),
        opt_v: moments(2),
        best_params: params,
    }
}

struct Results {
    bytes_per_save: u64,
    save_mb_s: f64,
    load_mb_s: f64,
}

fn run_suite() -> Results {
    let root = std::env::temp_dir().join(format!("stwa_bench_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).expect("open registry");
    let ckpt = synthetic_checkpoint();

    // Correctness first: one publish/load cycle must round-trip bitwise.
    let v = registry.publish("bench", &ckpt).expect("publish");
    let back = registry.load("bench", Some(v)).expect("load");
    let bits = |ts: &[NamedTensor]| -> Vec<u32> {
        ts.iter()
            .flat_map(|t| t.data.iter().map(|x| x.to_bits()))
            .collect()
    };
    for (a, b) in [
        (&ckpt.params, &back.params),
        (&ckpt.opt_m, &back.opt_m),
        (&ckpt.opt_v, &back.opt_v),
        (&ckpt.best_params, &back.best_params),
    ] {
        assert_eq!(bits(a), bits(b), "checkpoint round-trip is not bitwise");
    }
    assert_eq!(ckpt.rng, back.rng);
    assert_eq!(ckpt.history, back.history);

    let manifest = stwa_ckpt::Manifest::read(
        &registry.version_dir("bench", v).join(stwa_ckpt::MANIFEST_FILE),
    )
    .expect("manifest");
    let bytes_per_save: u64 = manifest.blobs.iter().map(|b| b.bytes).sum();

    let mut publish = gate::calls(|| {
        registry.publish("bench", &ckpt).expect("publish");
    });
    let pairs = gate::interleave(
        |calls| {
            (0..calls)
                .map(|_| {
                    let ms = publish(1);
                    // Keep the bench directory flat, off the clock;
                    // latest is never pruned.
                    registry.prune("bench", 1).expect("prune");
                    ms
                })
                .sum()
        },
        gate::calls(|| {
            std::hint::black_box(registry.load("bench", None).expect("load"));
        }),
    );
    let _ = std::fs::remove_dir_all(&root);

    let mb = bytes_per_save as f64 / (1024.0 * 1024.0);
    Results {
        bytes_per_save,
        save_mb_s: mb / (gate::percentile(&pairs.a_ms, 0.5) / 1e3),
        load_mb_s: mb / (gate::percentile(&pairs.b_ms, 0.5) / 1e3),
    }
}

fn main() {
    let mut gate = Gate::from_args("BENCH_ckpt.json");
    let results = run_suite();
    println!(
        "checkpoint {:>5.1} MB  save {:>7.1} MB/s  load {:>7.1} MB/s",
        results.bytes_per_save as f64 / (1024.0 * 1024.0),
        results.save_mb_s,
        results.load_mb_s
    );
    gate.check("save_mb_s", results.save_mb_s, Limit::Floor);
    gate.check("load_mb_s", results.load_mb_s, Limit::Floor);
    gate.finish(
        Fields::default()
            .num("tensors", TENSORS as f64)
            .num("elems_per_tensor", ELEMS_PER_TENSOR as f64)
            .num("bytes_per_save", results.bytes_per_save as f64)
            .num("save_mb_s", results.save_mb_s)
            .num("load_mb_s", results.load_mb_s),
    );
}
