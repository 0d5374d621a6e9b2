//! Sensor-attention scaling harness: measures the sparse O(N·k)
//! correlation-attention path against the dense O(N²) path on
//! corridor topologies from the synthetic generator, and checks that
//! sparse step time stays near-linear in N at fixed k — all the way to
//! the city-scale 10k-sensor regime where the dense score matrix
//! (400 MB at N=10240) is no longer a sane thing to materialize.
//!
//! Modes:
//!
//! - `bench_attention [--out PATH]` — run the suite, print a table,
//!   write the JSON report (default `BENCH_attention.json`).
//! - `bench_attention --check PATH` — run the suite and compare against
//!   a checked-in baseline; exits nonzero if any entry's normalized
//!   speedup (measured against a same-run reference) regressed more
//!   than 15%. Same-run normalization keeps the gate portable across
//!   hosts of different absolute speed.
//!
//! Two entry families:
//!
//! - `sparse_vs_dense_N`: reference is the dense attend at N sensors,
//!   kernel is the sparse attend on the same inputs over a hops=8
//!   corridor graph (k <= 17). Speedup grows with N/k.
//! - `sparse_scaling_N`: reference is a *linear budget* — the measured
//!   sparse time at N=512 scaled by N/512 — and kernel is the actual
//!   sparse time at N. Near-linear scaling keeps this ratio around
//!   1.0; a quadratic term would drive it toward 512/N. The run fails
//!   outright below [`LINEARITY_FLOOR`], independent of any baseline.
//!
//! Before timing anything the harness asserts the sparse kernel with a
//! complete graph is bitwise identical to the dense chain — a perf
//! suite that silently measures a wrong kernel is worse than none.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_tensor::{linalg, mathfn, sparse, Tensor};
use stwa_traffic::RoadNetwork;

/// Allowed relative loss of normalized speedup before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Per-sample measurement budget.
const TARGET_SAMPLE_MS: f64 = 150.0;

/// Hard floor on `sparse_scaling_*` speedups: actual sparse time may be
/// at most 2.5x the linear extrapolation from N=512. A quadratic path
/// lands near 512/N (0.125 at N=4096) and fails loudly.
const LINEARITY_FLOOR: f64 = 0.4;

/// Feature dimension of the attention embeddings (matches the models'
/// default `d`).
const D: usize = 32;

/// Corridor length used for every topology; hops=8 then caps the
/// neighborhood at k = 17 regardless of N.
const SENSORS_PER_CORRIDOR: usize = 64;
const HOPS: usize = 8;

struct Entry {
    name: &'static str,
    shape: String,
    flops: usize,
    reference_ms: f64,
    kernel_ms: f64,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.reference_ms / self.kernel_ms
    }
}

/// Mean per-call milliseconds, adaptively iterated until the timed
/// window reaches [`TARGET_SAMPLE_MS`]; best of five windows. Five
/// (not three) because the gated quantity is a *ratio* of two timings
/// and the 15% regression tolerance leaves little room for scheduler
/// noise on the ~2 ms dense reference runs.
fn time_ms(mut f: impl FnMut()) -> f64 {
    f(); // warmup
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
        if windows >= 5 {
            return best;
        }
    }
}

/// The dense sensor-correlation attend: fused scores + in-place scaled
/// softmax + mix, exactly what the frozen engine runs in dense mode.
fn dense_attend(q: &Tensor, k: &Tensor, h: &Tensor, scale: f32) -> Tensor {
    let mut scores = linalg::matmul_nt(q, k).unwrap();
    let t = scores.shape()[scores.rank() - 1];
    for row in scores.data_mut().chunks_exact_mut(t) {
        let mut m = f32::NEG_INFINITY;
        for x in row.iter_mut() {
            *x *= scale;
            m = m.max(*x);
        }
        mathfn::exp_sub_slice(row, m);
        let mut z = 0.0f32;
        for &x in row.iter() {
            z += x;
        }
        for x in row.iter_mut() {
            *x /= z;
        }
    }
    linalg::matmul(&scores, h).unwrap()
}

/// `(q, k, h, graph)` for an N-sensor corridor city.
fn inputs(n: usize, rng: &mut StdRng) -> (Tensor, Tensor, Tensor, sparse::SensorGraph) {
    assert_eq!(n % SENSORS_PER_CORRIDOR, 0);
    let net = RoadNetwork::generate(n / SENSORS_PER_CORRIDOR, SENSORS_PER_CORRIDOR, rng);
    let graph = net.sensor_graph(HOPS);
    let q = Tensor::randn(&[1, n, D], rng);
    let k = Tensor::randn(&[1, n, D], rng);
    let h = Tensor::randn(&[1, n, D], rng);
    (q, k, h, graph)
}

/// Bitwise self-check: sparse attention over a complete graph must
/// reproduce the dense chain exactly, or every timing below is
/// measuring the wrong kernel.
fn assert_sparse_equals_dense_bitwise(rng: &mut StdRng) {
    let scale = 1.0 / (D as f32).sqrt();
    for n in [3usize, 17, 64] {
        let q = Tensor::randn(&[2, n, D], rng);
        let k = Tensor::randn(&[2, n, D], rng);
        let h = Tensor::randn(&[2, n, D], rng);
        let complete = sparse::SensorGraph::complete(n);
        let (got, _) = sparse::sparse_attention_forward(&q, &k, &h, &complete, scale).unwrap();
        let want = dense_attend(&q, &k, &h, scale);
        assert_eq!(
            got.data(),
            want.data(),
            "sparse attend diverged from dense at n={n}"
        );
    }
}

fn run_suite() -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(42);
    assert_sparse_equals_dense_bitwise(&mut rng);

    let scale = 1.0 / (D as f32).sqrt();
    let mut entries = Vec::new();

    // Head-to-head at sizes where the dense path is still affordable.
    let mut sparse_ms_512 = 0.0;
    for n in [512usize, 2048] {
        let (q, k, h, graph) = inputs(n, &mut rng);
        let sparse_ms = time_ms(|| {
            std::hint::black_box(
                sparse::sparse_attention_forward(&q, &k, &h, &graph, scale).unwrap(),
            );
        });
        let dense_ms = time_ms(|| {
            std::hint::black_box(dense_attend(&q, &k, &h, scale));
        });
        if n == 512 {
            sparse_ms_512 = sparse_ms;
        }
        entries.push(Entry {
            name: if n == 512 {
                "sparse_vs_dense_512"
            } else {
                "sparse_vs_dense_2048"
            },
            shape: format!("n={n} k<=17 d={D}"),
            flops: 4 * graph.nnz() * D,
            reference_ms: dense_ms,
            kernel_ms: sparse_ms,
        });
    }

    // Scaling entries: the reference is a linear budget extrapolated
    // from N=512, not a measured dense run — at N=10240 the dense score
    // matrix alone is 10240^2 floats = 400 MB and is exactly what this
    // PR exists to avoid.
    for n in [4096usize, 10_240] {
        let (q, k, h, graph) = inputs(n, &mut rng);
        let sparse_ms = time_ms(|| {
            std::hint::black_box(
                sparse::sparse_attention_forward(&q, &k, &h, &graph, scale).unwrap(),
            );
        });
        entries.push(Entry {
            name: if n == 4096 {
                "sparse_scaling_4096"
            } else {
                "sparse_scaling_10240"
            },
            shape: format!("n={n} k<=17 d={D}"),
            flops: 4 * graph.nnz() * D,
            reference_ms: sparse_ms_512 * (n as f64 / 512.0),
            kernel_ms: sparse_ms,
        });
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
             \"reference_ms\": {:.4}, \"kernel_ms\": {:.4}, \"speedup\": {:.3}}}{}\n",
            e.name,
            e.shape,
            e.flops,
            e.reference_ms,
            e.kernel_ms,
            e.speedup(),
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pull `"name": ..., "speedup": ...` pairs back out of a report
/// (one entry per line; no JSON dependency in the workspace).
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
    let mut out_path = "BENCH_attention.json".to_string();
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
                eprintln!(
                    "unknown flag {other}; usage: bench_attention [--out PATH | --check PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let t0 = Instant::now();
    let entries = run_suite();
    let total_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!(
        "{:<22} {:>18} {:>12} {:>11} {:>8}",
        "entry", "shape", "ref ms", "sparse ms", "speedup"
    );
    for e in &entries {
        println!(
            "{:<22} {:>18} {:>12.3} {:>11.3} {:>7.2}x",
            e.name,
            e.shape,
            e.reference_ms,
            e.kernel_ms,
            e.speedup()
        );
    }
    println!(
        "threads: {}, total wall: {:.0} ms",
        stwa_pool::current_threads(),
        total_wall_ms
    );

    // Unconditional near-linearity gate, baseline or not.
    let mut failed = false;
    for e in entries.iter().filter(|e| e.name.starts_with("sparse_scaling")) {
        if e.speedup() < LINEARITY_FLOOR {
            eprintln!(
                "SCALING FAILURE {}: sparse time is {:.2}x the linear budget \
                 (floor allows {:.1}x) — step time is no longer near-linear in N",
                e.name,
                1.0 / e.speedup(),
                1.0 / LINEARITY_FLOOR
            );
            failed = true;
        }
    }

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let old = parse_speedups(&baseline);
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
        println!("attention scaling check passed");
    } else {
        if failed {
            std::process::exit(1);
        }
        std::fs::write(&out_path, render_json(&entries, total_wall_ms))
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
    }
}
