//! Checkpoint save/load throughput harness: publishes a training-shaped
//! checkpoint (parameters + both Adam moment sets + best-params — the
//! exact blob mix `Trainer` writes) through the model registry and loads
//! it back, reporting MB/s for each direction.
//!
//! Before timing begins the loaded checkpoint is asserted **bitwise
//! equal** to what was saved — the format is only fast because it is a
//! flat LE dump, never because it drops precision.
//!
//! `--check` gates both directions at 15% below the checked-in baseline
//! (`BENCH_ckpt.json`), the same tolerance as every other bench gate.

use std::time::Instant;
use stwa_ckpt::{NamedTensor, Registry, TrainCheckpoint};

/// Allowed relative loss of a baseline throughput before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Parameter tensors in the synthetic model (each with m/v moments and a
/// best-params copy, so the on-disk volume is ~4x this).
const TENSORS: usize = 4;
const ELEMS_PER_TENSOR: usize = 1 << 20; // 4 MiB of f32 per tensor

const WARMUP: usize = 2;
const ITERS: usize = 8;

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

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
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

    let mut save_ms = Vec::with_capacity(ITERS);
    let mut load_ms = Vec::with_capacity(ITERS);
    for i in 0..WARMUP + ITERS {
        let t0 = Instant::now();
        let v = registry.publish("bench", &ckpt).expect("publish");
        let save = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        std::hint::black_box(registry.load("bench", Some(v)).expect("load"));
        let load = t0.elapsed().as_secs_f64() * 1e3;
        if i >= WARMUP {
            save_ms.push(save);
            load_ms.push(load);
        }
        // Keep the bench directory flat; latest is never pruned.
        registry.prune("bench", 1).expect("prune");
    }
    let _ = std::fs::remove_dir_all(&root);

    let mb = bytes_per_save as f64 / (1024.0 * 1024.0);
    Results {
        bytes_per_save,
        save_mb_s: mb / (median(&mut save_ms) / 1e3),
        load_mb_s: mb / (median(&mut load_ms) / 1e3),
    }
}

fn render_json(r: &Results) -> String {
    format!(
        "{{\n{}  \"tensors\": {TENSORS},\n  \"elems_per_tensor\": {ELEMS_PER_TENSOR},\n  \
         \"bytes_per_save\": {},\n  \"save_mb_s\": {:.1},\n  \"load_mb_s\": {:.1}\n}}\n",
        stwa_bench::host::json_fields(),
        r.bytes_per_save,
        r.save_mb_s,
        r.load_mb_s
    )
}

/// Pull a `"key": value` number back out of a report written by
/// [`render_json`] (one key per line — no JSON dependency needed).
fn parse_number(json: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    for line in json.lines() {
        if let Some(at) = line.find(&tag) {
            let s: String = line[at + tag.len()..]
                .chars()
                .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
                .collect();
            return s.parse().ok();
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_ckpt.json".to_string();
    let mut check_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                out_path = args.get(i + 1).expect("--out needs a path").clone();
                i += 2;
            }
            "--check" => {
                check_path = Some(args.get(i + 1).expect("--check needs a path").clone());
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other}; usage: bench_ckpt [--out PATH | --check PATH]");
                std::process::exit(2);
            }
        }
    }

    let results = run_suite();
    println!(
        "checkpoint {:>5.1} MB  save {:>7.1} MB/s  load {:>7.1} MB/s",
        results.bytes_per_save as f64 / (1024.0 * 1024.0),
        results.save_mb_s,
        results.load_mb_s
    );

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let mut failed = false;
        for (key, new_val) in [
            ("save_mb_s", results.save_mb_s),
            ("load_mb_s", results.load_mb_s),
        ] {
            let Some(old_val) = parse_number(&baseline, key) else {
                println!("note: no baseline value for {key}, skipping");
                continue;
            };
            let floor = old_val * (1.0 - REGRESSION_TOLERANCE);
            if new_val < floor {
                eprintln!(
                    "REGRESSION {key}: {new_val:.1} fell below {floor:.1} \
                     (baseline {old_val:.1} - {:.0}% tolerance)",
                    REGRESSION_TOLERANCE * 100.0
                );
                failed = true;
            } else {
                println!("ok {key}: {new_val:.1} vs baseline {old_val:.1} (floor {floor:.1})");
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("ckpt check passed");
    } else {
        std::fs::write(&out_path, render_json(&results))
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
    }
}
