//! Kernel throughput harness: measures the production matmul paths
//! (small in-place, blocked/packed, pre-packed, folded shared operand,
//! fused NT) on the shapes the models actually run — and, at the
//! serving width `d = 32`, the packed decoder with its bias epilogue,
//! proxy attention, sparse sensor correlation and the split K/V
//! projection (the `serve_*` rows) — against the machine's own FMA
//! peak, measured in the same run, and writes the results to
//! `BENCH_kernels.json`.
//!
//! Every row runs on **one pool thread**: the rows gate the kernels,
//! not the pool, and on the 2-vCPU hosts this is recorded on a product
//! that fans out over both cores waits at its join for whichever core
//! the host disturbed — the two-thread `square_128/256` and
//! `batched_128x32` rows swung more than the 15% tolerance on unchanged
//! code.
//!
//! The peak probe runs register-only fused multiply-add chains on the
//! dispatched arm — sixteen independent zmm chains on AVX-512, twelve
//! ymm on AVX2, eight scalar `mul_add` chains otherwise — so both FMA
//! ports stay busy behind the instruction's latency and no load or
//! store is in the loop. Each row reports `roofline_share`: its GFLOP/s
//! over that peak. (The earlier normaliser, `matmul_reference`, moved
//! with every change to the contraction arithmetic — its own speed is
//! part of what such a change changes — and read 10–16 GFLOP/s on
//! unchanged code.)
//!
//! Modes:
//!
//! - `bench_kernels [--out PATH]` — run the suite, print a table, write
//!   the JSON report (default `BENCH_kernels.json` in the CWD).
//! - `bench_kernels --check PATH` — run the suite and compare against a
//!   checked-in baseline report; exits nonzero if any shape's
//!   `roofline_share` fell more than 15% below the baseline's — on
//!   every one of up to three timings, each against a fresh probe. The
//!   share is portable across hosts of different absolute speed: a
//!   uniformly slower machine lowers the peak and the kernel together,
//!   while a real kernel regression shows up in the ratio. Cold rows —
//!   those that evict their operands from L2 between calls — are
//!   printed beside the baseline but not gated.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_tensor::isa::{self, Isa};
use stwa_tensor::{attention, linalg, projection, sparse, window_layer, SensorGraph, Tensor};

/// Allowed relative loss of `roofline_share` before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Further timings of a row under its floor before `--check` fails it.
const RETRIES: usize = 2;

/// Per-sample measurement budget; long enough to swamp timer noise for
/// every shape in the suite.
const TARGET_SAMPLE_MS: f64 = 150.0;

/// Fused multiply-adds per chain per probe call.
const PROBE_STEPS: usize = 1 << 16;

/// Floats a cold row streams through between calls: 16 MiB, eight
/// times the 2 MiB per-core L2 of the Xeon hosts this is recorded on.
/// Half that (one read per line) left the panels' lines in L2 there:
/// the cold row read 0.9 of the hot row's rate, against 0.58–0.66 at
/// 16 MiB and 0.53 at 128 MiB.
const EVICT_FLOATS: usize = 4 << 20;

struct Entry {
    name: &'static str,
    shape: String,
    flops: usize,
    kernel_ms: f64,
}

/// A row of the suite: what [`measure`] times, kept so `--check` can
/// time a row again.
struct Bench {
    name: &'static str,
    shape: String,
    flops: usize,
    kernel: Box<dyn FnMut()>,
    /// Run before every timed call, outside the clock: a cold row.
    evict: Option<Box<dyn FnMut()>>,
}

impl Entry {
    fn kernel_gflops(&self) -> f64 {
        self.flops as f64 / (self.kernel_ms * 1e6)
    }
    /// Throughput as a share of the same-run FMA peak.
    fn roofline_share(&self, peak_gflops: f64) -> f64 {
        self.kernel_gflops() / peak_gflops
    }
}

/// Mean per-call milliseconds, adaptively iterated until the timed
/// window reaches [`TARGET_SAMPLE_MS`]; best of three windows.
fn time_ms(mut f: impl FnMut()) -> f64 {
    f(); // warmup: page in buffers, spawn pool workers, pack scratch
    best_window(|iters| {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// [`time_ms`] with `evict` run before every call and only the calls
/// on the clock.
fn time_cold_ms(mut f: impl FnMut(), mut evict: impl FnMut()) -> f64 {
    f();
    best_window(|iters| {
        let mut ms = 0.0;
        for _ in 0..iters {
            evict();
            let t0 = Instant::now();
            f();
            ms += t0.elapsed().as_secs_f64() * 1e3;
        }
        ms
    })
}

/// Best per-call milliseconds of three windows of `window(iters)` —
/// the timed milliseconds of `iters` calls — with `iters` grown until
/// a window reaches [`TARGET_SAMPLE_MS`].
fn best_window(mut window: impl FnMut(u64) -> f64) -> f64 {
    let mut iters = 1u64;
    let mut best = f64::INFINITY;
    let mut windows = 0;
    loop {
        let ms = window(iters);
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

fn measure(bench: &mut Bench) -> Entry {
    Entry {
        name: bench.name,
        shape: bench.shape.clone(),
        flops: bench.flops,
        kernel_ms: match &mut bench.evict {
            None => time_ms(&mut bench.kernel),
            Some(evict) => time_cold_ms(&mut bench.kernel, evict),
        },
    }
}

fn bench(name: &'static str, shape: String, flops: usize, kernel: impl FnMut() + 'static) -> Bench {
    Bench {
        name,
        shape,
        flops,
        kernel: Box::new(kernel),
        evict: None,
    }
}

/// `CHAINS` independent `acc = fma(acc, x, y)` chains of `512`-bit
/// vectors, [`PROBE_STEPS`] deep; returns a fold of the accumulators so
/// nothing is dead.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn probe_avx512<const CHAINS: usize>(x: f32, y: f32) -> f32 {
    use std::arch::x86_64::*;
    let (xv, yv) = (_mm512_set1_ps(x), _mm512_set1_ps(y));
    let mut acc = [_mm512_setzero_ps(); CHAINS];
    for _ in 0..PROBE_STEPS {
        for a in acc.iter_mut() {
            *a = _mm512_fmadd_ps(*a, xv, yv);
        }
    }
    _mm512_reduce_add_ps(
        acc.iter()
            .fold(_mm512_setzero_ps(), |s, &a| _mm512_add_ps(s, a)),
    )
}

/// [`probe_avx512`] on 256-bit vectors.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn probe_avx2<const CHAINS: usize>(x: f32, y: f32) -> f32 {
    use std::arch::x86_64::*;
    let (xv, yv) = (_mm256_set1_ps(x), _mm256_set1_ps(y));
    let mut acc = [_mm256_setzero_ps(); CHAINS];
    for _ in 0..PROBE_STEPS {
        for a in acc.iter_mut() {
            *a = _mm256_fmadd_ps(*a, xv, yv);
        }
    }
    let mut lanes = [0f32; 8];
    _mm256_storeu_ps(
        lanes.as_mut_ptr(),
        acc.iter()
            .fold(_mm256_setzero_ps(), |s, &a| _mm256_add_ps(s, a)),
    );
    lanes.iter().sum()
}

/// [`probe_avx512`] on scalars, through `f32::mul_add`.
fn probe_scalar<const CHAINS: usize>(x: f32, y: f32) -> f32 {
    let mut acc = [0f32; CHAINS];
    for _ in 0..PROBE_STEPS {
        for a in acc.iter_mut() {
            *a = a.mul_add(x, y);
        }
    }
    acc.iter().sum()
}

/// Single-thread fused-multiply-add peak of the dispatched arm, in
/// GFLOP/s (two FLOPs per lane per FMA). The chains converge to
/// `y / (1 - x)`, so nothing overflows or goes subnormal.
fn fma_peak_gflops() -> f64 {
    let (x, y) = (
        std::hint::black_box(1.0 - 1.0 / 1024.0),
        std::hint::black_box(1e-3),
    );
    let (lanes, chains, probe): (usize, usize, fn(f32, f32) -> f32) = match isa::detected() {
        // Safety (both arms): the tier implies the probe's features.
        #[cfg(target_arch = "x86_64")]
        tier if tier >= Isa::Avx512 => (16, 16, |x, y| unsafe { probe_avx512::<16>(x, y) }),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => (8, 12, |x, y| unsafe { probe_avx2::<12>(x, y) }),
        _ => (1, 8, probe_scalar::<8>),
    };
    let ms = time_ms(|| {
        std::hint::black_box(probe(x, y));
    });
    (2 * lanes * chains * PROBE_STEPS) as f64 / (ms * 1e6)
}

fn suite() -> Vec<Bench> {
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
        entries.push(bench(
            name,
            format!("[{s},{s}]@[{s},{s}]"),
            2 * s * s * s,
            move || {
                std::hint::black_box(linalg::matmul(&a, &b).unwrap());
            },
        ));
    }

    // A unit batch axis must take the same walk as the bare matrix.
    {
        let a = Tensor::randn(&[1, 512, 512], &mut rng);
        let b = Tensor::randn(&[512, 512], &mut rng);
        entries.push(bench(
            "batch1_512",
            "[1,512,512]@[512,512]".into(),
            2 * 512 * 512 * 512,
            move || {
                std::hint::black_box(linalg::matmul(&a, &b).unwrap());
            },
        ));
    }

    // Attention scores, fused Q·Kᵀ: the shape window attention produces
    // per layer ([B·heads, T, d]).
    {
        let q = Tensor::randn(&[64, 24, 32], &mut rng);
        let k = Tensor::randn(&[64, 24, 32], &mut rng);
        entries.push(bench(
            "attention_qkt",
            "[64,24,32]@[64,24,32]^T".into(),
            2 * 64 * 24 * 24 * 32,
            move || {
                std::hint::black_box(linalg::matmul_nt(&q, &k).unwrap());
            },
        ));
    }

    // Wide batched product: the per-sensor projection pattern.
    {
        let a = Tensor::randn(&[128, 32, 32], &mut rng);
        let b = Tensor::randn(&[128, 32, 32], &mut rng);
        entries.push(bench(
            "batched_128x32",
            "[128,32,32]@[128,32,32]".into(),
            2 * 128 * 32 * 32 * 32,
            move || {
                std::hint::black_box(linalg::matmul(&a, &b).unwrap());
            },
        ));
    }

    // The train step's real shapes (PEMS08-like: batch 32, 20 sensors,
    // d = 16). Most of a step's 252 products look like these, and only
    // the decoder is large enough for blocking alone to make fast.
    let mut step_shape = |name: &'static str, a_shape: &[usize], b_shape: &[usize], nt: bool| {
        let a = Tensor::randn(a_shape, &mut rng);
        let b = Tensor::randn(b_shape, &mut rng);
        let (ar, br) = (a_shape.len(), b_shape.len());
        let n = if nt { b_shape[br - 2] } else { b_shape[br - 1] };
        let rows: usize = a_shape[..ar - 1].iter().product();
        entries.push(bench(
            name,
            format!("{a_shape:?}@{b_shape:?}{}", if nt { "^T" } else { "" }).replace(' ', ""),
            2 * rows * a_shape[ar - 1] * n,
            move || {
                let c = if nt {
                    linalg::matmul_nt(&a, &b)
                } else {
                    linalg::matmul(&a, &b)
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

    // The step's two costliest backward products. The decoder's
    // last-layer weight gradient, `Aᵀ·G` with 32 output rows (G read in
    // place, not packed)...
    {
        let a = Tensor::randn(&[640, 32], &mut rng);
        let g = Tensor::randn(&[640, 512], &mut rng);
        entries.push(bench(
            "step_decoder_wgrad",
            "[640,32]^T@[640,512]".into(),
            2 * 640 * 32 * 512,
            move || {
                std::hint::black_box(linalg::matmul_tn(&a, &g).unwrap());
            },
        ));
    }
    // ...and the generated K/V projection at the second WA layer, with
    // the decoder's output layer folded in: every (sample, sensor)'s
    // `[32]` head decoded into its `[16,16]` K and V, the `[2,2,16]`
    // window rows projected through them, then the VJP — `dx`, the
    // head, the weight and the bias.
    {
        let (lead, t, s, f, d, m2) = (640, 4, 2, 16, 16, 32);
        let x = Tensor::randn(&[32, 20, t, f], &mut rng);
        let head = Tensor::randn(&[32, 20, m2], &mut rng);
        let weight = Tensor::randn(&[m2, 2 * f * d], &mut rng).mul_scalar(0.2);
        let bias = Tensor::randn(&[2 * f * d], &mut rng);
        let g = Tensor::randn(&[32, 20, 2, t / s, s, d], &mut rng);
        let all = projection::Need {
            x: true,
            head: true,
            weight: true,
            bias: true,
        };
        entries.push(bench(
            "step_project_kv",
            format!("[32,20,{m2}]@[{m2},512]->[2,2,2,16] fwd+vjp"),
            3 * (2 * lead * m2 * 2 * f * d) + 3 * (2 * 2 * lead * t * f * d),
            move || {
                let dec = projection::Decoder {
                    head: &head,
                    weight: &weight,
                    bias: &bias,
                };
                let (out, rows) = projection::forward(&x, dec, s, true).unwrap();
                std::hint::black_box(out);
                let grads = projection::vjp(&g, &x, dec, &rows.unwrap(), s, all).unwrap();
                std::hint::black_box(grads.weight);
            },
        ));
    }

    // The window-attention layer body as the train step runs it: the
    // first layer's four windows over `[32, 20]` (sample, sensor) pairs,
    // `S = 3`, `d = 16` in four heads, one proxy, the learned gate and
    // shared dense sensor correlation — forward with its activations
    // saved, then the VJP. FLOPs count the products (two per
    // multiply-add) the chain of ops it replaced runs.
    {
        let (b, n, w, s, d) = (32usize, 20usize, 4usize, 3usize, 16usize);
        let t = |shape: &[usize], scale: f32, rng: &mut StdRng| Tensor::randn(shape, rng).mul_scalar(scale);
        let kv = t(&[b, n, 2, w, s, d], 1.0, &mut rng);
        let params: Vec<Tensor> = [
            vec![n, w, 1, d],
            vec![2 * d, d],
            vec![d],
            vec![d, d],
            vec![d, d],
            vec![d, d],
            vec![d, d],
        ]
        .iter()
        .map(|shape| t(shape, 0.3, &mut rng))
        .collect();
        let grad = t(&[b, n, w, d], 1.0, &mut rng);
        let (rows, pairs) = (b * n, b * n * n);
        let per_window = 2 * (rows * s * d * 2 + rows * d * d * 2 + rows * d * d * 2 + pairs * d * 2);
        let fusion = 2 * rows * 2 * d * d;
        let flops = 3 * (w * per_window + (w - 1) * fusion);
        let mut gkv = vec![0f32; kv.len()];
        entries.push(bench(
            "step_window_layer",
            format!("[{b},{n}]x{w}x[{s},{d}] fwd+vjp"),
            flops,
            move || {
                let [proxies, fw, fb, w1, w2, t1, t2] = &params[..] else {
                    unreachable!("seven parameters")
                };
                let wts = window_layer::Weights {
                    proxies,
                    fusion: Some((fw, fb)),
                    gate: Some((w1, w2)),
                    sca: window_layer::Sca::Shared(t1, t2),
                    graph: None,
                };
                let joint = window_layer::Kv::Joint(&kv);
                let (out, saved) = window_layer::forward(joint, &wts, 4, true).unwrap();
                let saved = saved.expect("saved activations");
                let sink = &mut |_, part| {
                    std::hint::black_box(part);
                    Ok(())
                };
                window_layer::vjp(&grad, &out, &kv, &wts, 4, &saved, Some(&mut gkv), sink).unwrap();
            },
        ));
    }

    // The serving forward's dominant products: the decoder's last layer
    // at serving widths (`m2 = 128` -> `2·d·d = 2048`), pre-packed as
    // the frozen engine holds it, over the served 48 sensors and the
    // city workload's 1 024.
    for (name, rows) in [("decoder_48", 48usize), ("decoder_1024", 1024)] {
        let (k, n) = (128, 2048);
        let a = Tensor::randn(&[rows, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let packed = linalg::PackedMatrix::pack(&b).unwrap();
        entries.push(bench(
            name,
            format!("[{rows},{k}]@packed[{k},{n}]"),
            2 * rows * k * n,
            move || {
                std::hint::black_box(
                    linalg::matmul_packed(&a, &packed, linalg::Epilogue::NONE).unwrap(),
                );
            },
        ));
    }

    // The same products as the frozen engine's decoder runs them: the
    // layer's bias added by each register tile as it stores, the
    // output's second pass gone.
    for (name, rows) in [
        ("decoder_48_epilogue", 48usize),
        ("decoder_1024_epilogue", 1024),
    ] {
        let (k, n) = (128, 2048);
        let a = Tensor::randn(&[rows, k], &mut rng);
        let packed = linalg::PackedMatrix::pack(&Tensor::randn(&[k, n], &mut rng)).unwrap();
        let bias = Tensor::randn(&[n], &mut rng);
        entries.push(bench(
            name,
            format!("[{rows},{k}]@packed[{k},{n}]+bias"),
            2 * rows * k * n,
            move || {
                let ep = linalg::Epilogue {
                    bias: Some(bias.data()),
                    relu: false,
                };
                std::hint::black_box(linalg::matmul_packed(&a, &packed, ep).unwrap());
            },
        ));
    }

    // The serving width's other kernels, at the city forward's shapes
    // (1 024 sensors, batch 1, `d = 32` in eight heads). Proxy
    // attention: one proxy query per sensor against a window's three
    // keys, sixteen sensors to a lane group.
    {
        let (lead, tk, d) = (1024usize, 3usize, 32usize);
        let q = Tensor::randn(&[lead, 1, d], &mut rng);
        let k = Tensor::randn(&[lead, tk, d], &mut rng);
        let v = Tensor::randn(&[lead, tk, d], &mut rng);
        entries.push(bench(
            "serve_proxy_attention_d32",
            format!("[{lead},1,{d}]x[{lead},{tk},{d}] 8 heads"),
            2 * 2 * lead * tk * d,
            move || {
                std::hint::black_box(attention::forward(&q, &k, &v, 8).unwrap());
            },
        ));
    }
    // Sparse sensor correlation over 128 corridors of eight sensors,
    // each attending its 2-hop corridor neighbours (degree 3 to 5).
    {
        let (n, d) = (1024usize, 32usize);
        let lists: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let (c0, c1) = (i / 8 * 8, i / 8 * 8 + 8);
                (i.saturating_sub(2).max(c0)..(i + 3).min(c1)).collect()
            })
            .collect();
        let graph = SensorGraph::from_neighbor_lists(n, &lists).unwrap();
        let (q, k, h) = (
            Tensor::randn(&[1, n, d], &mut rng),
            Tensor::randn(&[1, n, d], &mut rng),
            Tensor::randn(&[1, n, d], &mut rng),
        );
        let scale = 1.0 / (d as f32).sqrt();
        entries.push(bench(
            "serve_sparse_sca_1024",
            format!("[1,{n},{d}] nnz {}", graph.nnz()),
            2 * 2 * graph.nnz() * d,
            move || {
                std::hint::black_box(
                    sparse::sparse_attention_forward(&q, &k, &h, &graph, scale).unwrap(),
                );
            },
        ));
    }
    // The K/V projection in the engine's split layout: a 64-sensor
    // block's `[4, 32]` window rows (the second layer) through the
    // `[32, 32]` halves of their decoded `[2·32·32]` rows.
    {
        let (lead, rows, f, d) = (64usize, 4usize, 32usize, 32usize);
        let x = Tensor::randn(&[lead, rows, f], &mut rng);
        let decoded = Tensor::randn(&[lead, 2 * f * d], &mut rng);
        let (mut keys, mut values) = (vec![0f32; lead * rows * d], vec![0f32; lead * rows * d]);
        entries.push(bench(
            "serve_project_kv_d32",
            format!("{lead}x[{rows},{f}]@[{f},{d}] K and V"),
            2 * 2 * lead * rows * f * d,
            move || {
                let (kp, vp) = (decoded.data(), &decoded.data()[f * d..]);
                projection::forward_split(
                    x.data(),
                    kp,
                    vp,
                    2 * f * d,
                    lead,
                    (rows, f, d),
                    &mut keys,
                    &mut values,
                );
                std::hint::black_box((&keys, &values));
            },
        ));
    }

    // `decoder_48` as the batch-1 serving forward meets it: the rest of
    // the forward has pushed the 1 MiB of panels out of L2 before the
    // decoder runs again. Recorded, not gated: it measures how fast
    // memory beyond L2 feeds the strips, not how close the tile runs
    // to the FMA roofline the other rows are held to.
    {
        let (rows, k, n) = (48, 128, 2048);
        let a = Tensor::randn(&[rows, k], &mut rng);
        let packed = linalg::PackedMatrix::pack(&Tensor::randn(&[k, n], &mut rng)).unwrap();
        let flush = vec![1f32; EVICT_FLOATS];
        entries.push(Bench {
            evict: Some(Box::new(move || {
                // One read per 64-byte line.
                std::hint::black_box(flush.iter().step_by(16).sum::<f32>());
            })),
            ..bench(
                "decoder_48_cold",
                format!("[{rows},{k}]@packed[{k},{n}] L2-cold"),
                2 * rows * k * n,
                move || {
                    std::hint::black_box(
                        linalg::matmul_packed(&a, &packed, linalg::Epilogue::NONE).unwrap(),
                    );
                },
            )
        });
    }

    entries
}

fn render_json(entries: &[Entry], peak_gflops: f64, total_wall_ms: f64) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&stwa_bench::host::json_fields());
    out.push_str(&format!(
        "  \"total_wall_ms\": {total_wall_ms:.1},\n  \"peak_gflops\": {peak_gflops:.3},\n  \"entries\": [\n"
    ));
    for (i, e) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"shape\": \"{}\", \"flops\": {}, \
             \"kernel_ms\": {:.4}, \"kernel_gflops\": {:.3}, \
             \"roofline_share\": {:.4}}}{}\n",
            e.name,
            e.shape,
            e.flops,
            e.kernel_ms,
            e.kernel_gflops(),
            e.roofline_share(peak_gflops),
            comma
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pull `"name": ..., "roofline_share": ...` pairs back out of a
/// report. The writer above emits one entry per line, so a
/// line-oriented scan is enough — no JSON dependency in the workspace.
fn parse_shares(json: &str) -> Vec<(String, f64)> {
    const KEY: &str = "\"roofline_share\": ";
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
        let Some(at) = line.find(KEY) else {
            continue;
        };
        let value: String = line[at + KEY.len()..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = value.parse::<f64>() {
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
    // The probe brackets the suite and the faster reading stands, so a
    // host disturbance during one probe cannot inflate every share.
    let before = fma_peak_gflops();
    stwa_pool::set_threads(1);
    let mut benches = suite();
    let entries: Vec<Entry> = benches.iter_mut().map(measure).collect();
    let peak_gflops = before.max(fma_peak_gflops());
    let total_wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    println!(
        "FMA peak ({} arm, 1 thread): {peak_gflops:.1} GFLOP/s",
        isa::detected().label()
    );
    println!(
        "{:<25} {:>36} {:>10} {:>9} {:>9}",
        "shape", "dims", "kernel ms", "GF/s", "roofline"
    );
    for e in &entries {
        println!(
            "{:<25} {:>36} {:>10.3} {:>9.2} {:>9.3}",
            e.name,
            e.shape,
            e.kernel_ms,
            e.kernel_gflops(),
            e.roofline_share(peak_gflops)
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
        let old = parse_shares(&baseline);
        let mut failed = false;
        for (e, bench) in entries.iter().zip(benches.iter_mut()) {
            let Some((_, old_share)) = old.iter().find(|(n, _)| n == e.name) else {
                println!("note: no baseline entry for {}, skipping", e.name);
                continue;
            };
            if bench.evict.is_some() {
                println!(
                    "note {}: {:.3} of peak (baseline {old_share:.3}, cold, not gated)",
                    e.name,
                    e.roofline_share(peak_gflops)
                );
                continue;
            }
            let floor = old_share * (1.0 - REGRESSION_TOLERANCE);
            // A row under its floor is timed again, up to twice, each
            // time against a fresh probe: the host swings single rows
            // by the tolerance on unchanged code. It fails only if every
            // attempt is under the floor.
            let mut attempts = vec![e.roofline_share(peak_gflops)];
            while attempts.last().is_some_and(|&a| a < floor) && attempts.len() < 1 + RETRIES {
                let peak = fma_peak_gflops();
                attempts.push(measure(bench).roofline_share(peak));
            }
            let shown: Vec<String> = attempts.iter().map(|a| format!("{a:.3}")).collect();
            let share = attempts.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if share < floor {
                eprintln!(
                    "REGRESSION {}: roofline share {} all below {floor:.3} \
                     (baseline {old_share:.3} - {:.0}% tolerance)",
                    e.name,
                    shown.join(", "),
                    REGRESSION_TOLERANCE * 100.0
                );
                failed = true;
            } else {
                println!(
                    "ok {}: {} of peak vs baseline {old_share:.3} (floor {floor:.3})",
                    e.name,
                    shown.join(" then ")
                );
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("throughput check passed");
    } else {
        std::fs::write(&out_path, render_json(&entries, peak_gflops, total_wall_ms))
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
    }
}
