//! Kernel throughput harness: measures the production matmul paths
//! (small in-place, blocked/packed, pre-packed, folded shared operand,
//! fused NT) against the retained naive reference on the shapes the
//! models actually run, and writes the results to `BENCH_kernels.json`.
//!
//! Every row runs on **one pool thread**: the rows gate the kernels,
//! not the pool, and on the 2-vCPU hosts this is recorded on a product
//! that fans out over both cores waits at its join for whichever core
//! the host disturbed — the two-thread `square_128/256` and
//! `batched_128x32` rows swung more than the 15% tolerance on unchanged
//! code.
//!
//! Modes:
//!
//! - `bench_kernels [--out PATH]` — run the suite, print a table, write
//!   the JSON report (default `BENCH_kernels.json` in the CWD).
//! - `bench_kernels --check PATH` — run the suite and compare against a
//!   checked-in baseline report; exits nonzero if any shape's
//!   *normalized* throughput (production kernel relative to the naive
//!   reference measured in the same run) regressed more than 15%.
//!   Normalizing by the same-run reference makes the gate portable
//!   across hosts of different absolute speed: a uniformly slower
//!   machine slows both kernels equally, while a real kernel regression
//!   shows up in the ratio.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_tensor::{linalg, Tensor};

/// Allowed relative loss of normalized throughput before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Per-sample measurement budget; long enough to swamp timer noise for
/// every shape in the suite.
const TARGET_SAMPLE_MS: f64 = 150.0;

struct Entry {
    name: &'static str,
    shape: String,
    flops: usize,
    reference_ms: f64,
    kernel_ms: f64,
}

impl Entry {
    fn reference_gflops(&self) -> f64 {
        self.flops as f64 / (self.reference_ms * 1e6)
    }
    fn kernel_gflops(&self) -> f64 {
        self.flops as f64 / (self.kernel_ms * 1e6)
    }
    /// Production throughput normalized by the same-run reference.
    fn speedup(&self) -> f64 {
        self.reference_ms / self.kernel_ms
    }
}

/// Mean per-call milliseconds, adaptively iterated until the timed
/// window reaches [`TARGET_SAMPLE_MS`]; best of three windows.
fn time_ms(mut f: impl FnMut()) -> f64 {
    f(); // warmup: page in buffers, spawn pool workers, pack scratch
    let mut iters = 1u64;
    let mut best = f64::INFINITY;
    let mut windows = 0;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ms < TARGET_SAMPLE_MS && windows == 0 {
            let scale = (TARGET_SAMPLE_MS / ms.max(1e-3)).ceil();
            iters = (iters as f64 * scale.clamp(2.0, 256.0)) as u64;
            continue;
        }
        best = best.min(ms / iters as f64);
        windows += 1;
        if windows >= 3 {
            return best;
        }
    }
}

fn measure(
    name: &'static str,
    shape: String,
    flops: usize,
    mut kernel: impl FnMut(),
    mut reference: impl FnMut(),
) -> Entry {
    let kernel_ms = time_ms(&mut kernel);
    let reference_ms = time_ms(&mut reference);
    Entry {
        name,
        shape,
        flops,
        reference_ms,
        kernel_ms,
    }
}

fn run_suite() -> Vec<Entry> {
    stwa_pool::set_threads(1);
    let mut rng = StdRng::seed_from_u64(42);
    let mut entries = Vec::new();

    // Square single-matrix products: the predictor/generator dense
    // layers. 512 is the acceptance shape for the blocked kernel.
    for s in [64usize, 128, 256, 512] {
        let a = Tensor::randn(&[s, s], &mut rng);
        let b = Tensor::randn(&[s, s], &mut rng);
        let name: &'static str = match s {
            64 => "square_64",
            128 => "square_128",
            256 => "square_256",
            _ => "square_512",
        };
        entries.push(measure(
            name,
            format!("[{s},{s}]@[{s},{s}]"),
            2 * s * s * s,
            || {
                std::hint::black_box(linalg::matmul(&a, &b).unwrap());
            },
            || {
                std::hint::black_box(linalg::matmul_reference(&a, &b).unwrap());
            },
        ));
    }

    // A unit batch axis must take the same walk as the bare matrix.
    {
        let a = Tensor::randn(&[1, 512, 512], &mut rng);
        let b = Tensor::randn(&[512, 512], &mut rng);
        entries.push(measure(
            "batch1_512",
            "[1,512,512]@[512,512]".into(),
            2 * 512 * 512 * 512,
            || {
                std::hint::black_box(linalg::matmul(&a, &b).unwrap());
            },
            || {
                std::hint::black_box(linalg::matmul_reference(&a, &b).unwrap());
            },
        ));
    }

    // Attention scores, fused Q·Kᵀ vs materialized transpose: the shape
    // window attention produces per layer ([B·heads, T, d]).
    {
        let q = Tensor::randn(&[64, 24, 32], &mut rng);
        let k = Tensor::randn(&[64, 24, 32], &mut rng);
        entries.push(measure(
            "attention_qkt",
            "[64,24,32]@[64,24,32]^T".into(),
            2 * 64 * 24 * 24 * 32,
            || {
                std::hint::black_box(linalg::matmul_nt(&q, &k).unwrap());
            },
            || {
                std::hint::black_box(
                    linalg::matmul(&q, &k.transpose_last2().unwrap()).unwrap(),
                );
            },
        ));
    }

    // Wide batched product: the per-sensor projection pattern.
    {
        let a = Tensor::randn(&[128, 32, 32], &mut rng);
        let b = Tensor::randn(&[128, 32, 32], &mut rng);
        entries.push(measure(
            "batched_128x32",
            "[128,32,32]@[128,32,32]".into(),
            2 * 128 * 32 * 32 * 32,
            || {
                std::hint::black_box(linalg::matmul(&a, &b).unwrap());
            },
            || {
                std::hint::black_box(linalg::matmul_reference(&a, &b).unwrap());
            },
        ));
    }

    // The train step's real shapes (PEMS08-like: batch 32, 20 sensors,
    // d = 16). Most of a step's 252 products look like these, and only
    // the decoder is large enough for blocking alone to make fast. The
    // `^T` row normalizes against the reference on a materialized
    // transpose, like `attention_qkt`.
    let mut step_shape = |name: &'static str, a_shape: &[usize], b_shape: &[usize], nt: bool| {
        let a = Tensor::randn(a_shape, &mut rng);
        let b = Tensor::randn(b_shape, &mut rng);
        let (ar, br) = (a_shape.len(), b_shape.len());
        let n = if nt { b_shape[br - 2] } else { b_shape[br - 1] };
        let rows: usize = a_shape[..ar - 1].iter().product();
        entries.push(measure(
            name,
            format!("{a_shape:?}@{b_shape:?}{}", if nt { "^T" } else { "" }).replace(' ', ""),
            2 * rows * a_shape[ar - 1] * n,
            || {
                let c = if nt {
                    linalg::matmul_nt(&a, &b)
                } else {
                    linalg::matmul(&a, &b)
                };
                std::hint::black_box(c.unwrap());
            },
            || {
                let c = if nt {
                    linalg::matmul_reference(&a, &b.transpose_last2().unwrap())
                } else {
                    linalg::matmul_reference(&a, &b)
                };
                std::hint::black_box(c.unwrap());
            },
        ));
    };
    // Eq. 12 gate: one shared weight under a row vector per (sample, sensor).
    step_shape("step_shared_b", &[32, 20, 1, 16], &[16, 16], false);
    // Per-head score VJP: a dot-product chain per output element.
    step_shape("step_heads_nt", &[32, 20, 4, 1, 4], &[32, 20, 4, 3, 4], true);
    // Sensor-correlation attention applied to values, one matrix per sample.
    step_shape("step_sca_20x20", &[32, 20, 20], &[32, 20, 16], false);
    // Skinny dense layer over the flattened batch.
    step_shape("step_skinny", &[640, 16], &[16, 16], false);
    // Generator decoder output layer.
    step_shape("step_decoder", &[640, 32], &[32, 512], false);

    // The serving forward's dominant products: the decoder's last layer
    // at serving widths (`m2 = 128` -> `2·d·d = 2048`), pre-packed as
    // the frozen engine holds it, over the served 48 sensors and the
    // city workload's 1 024.
    for (name, rows) in [("decoder_48", 48usize), ("decoder_1024", 1024)] {
        let (k, n) = (128, 2048);
        let a = Tensor::randn(&[rows, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let packed = linalg::PackedMatrix::pack(&b).unwrap();
        entries.push(measure(
            name,
            format!("[{rows},{k}]@packed[{k},{n}]"),
            2 * rows * k * n,
            || {
                std::hint::black_box(linalg::matmul_packed(&a, &packed).unwrap());
            },
            || {
                std::hint::black_box(linalg::matmul_reference(&a, &b).unwrap());
            },
        ));
    }

    entries
}

fn render_json(entries: &[Entry], total_wall_ms: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&stwa_bench::host::json_fields());
    out.push_str(&format!(
        "  \"total_wall_ms\": {total_wall_ms:.1},\n  \"entries\": [\n"
    ));
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"shape\": \"{}\", \"flops\": {}, \
             \"reference_ms\": {:.4}, \"kernel_ms\": {:.4}, \
             \"reference_gflops\": {:.3}, \"kernel_gflops\": {:.3}, \
             \"speedup\": {:.3}}}{}\n",
            e.name,
            e.shape,
            e.flops,
            e.reference_ms,
            e.kernel_ms,
            e.reference_gflops(),
            e.kernel_gflops(),
            e.speedup(),
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pull `"name": ..., "speedup": ...` pairs back out of a report. The
/// writer above emits one entry per line, so a line-oriented scan is
/// enough — no JSON dependency in the workspace.
fn parse_speedups(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(name_at) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[name_at + 9..];
        let Some(name_end) = rest.find('"') else {
            continue;
        };
        let name = rest[..name_end].to_string();
        let Some(spd_at) = line.find("\"speedup\": ") else {
            continue;
        };
        let spd_str: String = line[spd_at + 11..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = spd_str.parse::<f64>() {
            out.push((name, v));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_kernels.json".to_string();
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
                eprintln!("unknown flag {other}; usage: bench_kernels [--out PATH | --check PATH]");
                std::process::exit(2);
            }
        }
    }

    let t0 = Instant::now();
    let entries = run_suite();
    let total_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!(
        "{:<16} {:>30} {:>10} {:>10} {:>9} {:>9} {:>8}",
        "shape", "dims", "ref ms", "kernel ms", "ref GF/s", "ker GF/s", "speedup"
    );
    for e in &entries {
        println!(
            "{:<16} {:>30} {:>10.3} {:>10.3} {:>9.2} {:>9.2} {:>7.2}x",
            e.name,
            e.shape,
            e.reference_ms,
            e.kernel_ms,
            e.reference_gflops(),
            e.kernel_gflops(),
            e.speedup()
        );
    }
    println!(
        "threads: {}, total wall: {:.0} ms",
        stwa_pool::current_threads(),
        total_wall_ms
    );

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let old = parse_speedups(&baseline);
        let mut failed = false;
        for e in &entries {
            let Some((_, old_spd)) = old.iter().find(|(n, _)| n == e.name) else {
                println!("note: no baseline entry for {}, skipping", e.name);
                continue;
            };
            let new_spd = e.speedup();
            let floor = old_spd * (1.0 - REGRESSION_TOLERANCE);
            if new_spd < floor {
                eprintln!(
                    "REGRESSION {}: normalized speedup {new_spd:.2}x fell below \
                     {floor:.2}x (baseline {old_spd:.2}x - {:.0}% tolerance)",
                    e.name,
                    REGRESSION_TOLERANCE * 100.0
                );
                failed = true;
            } else {
                println!(
                    "ok {}: {new_spd:.2}x vs baseline {old_spd:.2}x (floor {floor:.2}x)",
                    e.name
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("throughput check passed");
    } else {
        std::fs::write(&out_path, render_json(&entries, total_wall_ms))
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
    }
}
