//! Inference-engine harness: serves the default ST-WA configuration
//! through both eval paths on synthetic PEMS-shaped requests —
//!
//! - **eval**: `ForecastModel::forward_eval`, the model's one forward
//!   on a graph that records nothing, and
//! - **infer**: the frozen `stwa-infer` session (frozen latents,
//!   pre-decoded projections where input-independent, packed GEMM
//!   panels, lazily decoded K/V blocks),
//!
//! at batch sizes 1, 8, and 64, reporting p50/p99 latency and rows/sec
//! for each. Every measured pair is asserted bitwise identical before
//! timing begins — the engine may only skip work, never change
//! arithmetic.
//!
//! The speedups are same-run ratios, portable across hosts of different
//! absolute speed. The two paths run the same kernels, and each
//! window-attention layer's body is the same op on both sides
//! (`stwa_tensor::window_layer::forward`), so the engine's time edge
//! comes only from what surrounds the bodies: weight panels packed once
//! at freeze where evaluation packs every product's right operand per
//! call, latents collapsed to their means and flow constants
//! precomputed, S-WA projections decoded once, and no graph nodes to
//! build. Evaluation is the graph's own forward, so a faster forward
//! lowers the eval-over-frozen ratios: `--check` prints them beside the
//! baseline's but does not gate them. What the engine must still earn,
//! in the same run, is two hard floors: at
//! batch 1 it is not slower than evaluation (`MIN_SPEEDUP_B1`), and at
//! every batch size of the quant section's shape its peak live tensor
//! bytes are several times lower (`MIN_PEAK_BYTES_RATIO` — lazy decode
//! never materializes the `[B·N, 2·d·d]` projections evaluation holds).
//! That floor holds at batch 1 only: batches 8 and 64 read under it.
//!
//! A second section times the **quantized** frozen path (f32 vs int8
//! panels; `quant_*` keys) on a serving-scale configuration whose
//! weight panels exceed L2 — the memory-bandwidth-bound regime
//! quantization exists for. Two more hard gates ride on it: the
//! batch-64 int8 speedup floor (`MIN_INT8_SPEEDUP_B64`) and the
//! forecast-MAE accuracy gate of the int8 path against the f32 frozen
//! path. The peak-bytes comparison runs on this section's model.
//!
//! Both sections time their two paths in alternating bursts
//! (`stwa_bench::gate::interleave`): a speedup is the median over those
//! pairs, p50 and p99 are over each side's bursts. A failed floor or
//! gate does not cut the run short: every section runs, the report is
//! written (without `--check`), and then all failures are printed
//! together and the exit code is 1.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_bench::gate::{self, Fields, Gate, Limit};
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_infer::{InferSession, Precision};
use stwa_observe::Json;
use stwa_tensor::{memory, Tensor};

/// Hard floor on the batch-1 eval-over-frozen time ratio, independent of
/// any baseline: the frozen engine may not be slower than evaluation
/// (0.9 leaves room for this host class's run-to-run spread).
const MIN_SPEEDUP_B1: f64 = 0.9;
/// Hard floor on eval-over-frozen peak live tensor bytes of one forward
/// at the quant-section shape, every batch size. A count, not a timing:
/// it repeats exactly. It reads 8.27x at batch 1, and 2.30x at batch 8
/// and 1.78x at batch 64, under the floor (DESIGN §5).
const MIN_PEAK_BYTES_RATIO: f64 = 4.0;
/// Hard floor on the batch-64 int8-vs-f32 frozen speedup. It is a ratio
/// against f32 measured in the same run, so a faster f32 kernel lowers
/// it: the `8×32` f32 tile moved batch-64 f32 102 → 69 ms and int8
/// (whose `4×16` VNNI tile did not change) 75 → 64 ms, 1.35x → 1.08x.
/// The floor is that recorded ratio less the 15% tolerance — int8 may
/// not fall behind f32 — not the 1.3x the old f32 kernel allowed.
const MIN_INT8_SPEEDUP_B64: f64 = 0.9;
/// Forecast-MAE accuracy gate (normalized units, batch-64 request) for
/// the int8 frozen path against the f32 frozen path.
const MAE_GATE_INT8: f64 = 0.08;

const SENSORS: usize = 32;
const HISTORY: usize = 12;
const HORIZON: usize = 3;
const BATCHES: [usize; 3] = [1, 8, 64];

/// Serving-scale dims for the quant section: wide enough that the
/// decoder/predictor panels dominate the forward and spill L2 at f32.
const QSENSORS: usize = 48;

struct PathStats {
    p50_ms: f64,
    p99_ms: f64,
    rows_per_sec: f64,
}

struct BatchResult {
    batch: usize,
    eval: PathStats,
    infer: PathStats,
    /// Eval-path time over infer-path time, the median over pairs.
    speedup: f64,
}

/// Time `first` against `second` in alternating bursts: each side's
/// stats over its bursts, and the median first-over-second ratio.
fn measure_pair(
    batch: usize,
    first: impl FnMut(),
    second: impl FnMut(),
) -> (PathStats, PathStats, f64) {
    let pairs = gate::interleave(gate::calls(first), gate::calls(second));
    let stats = |ms: &[f64]| {
        let p50 = gate::percentile(ms, 0.50);
        PathStats {
            p50_ms: p50,
            p99_ms: gate::percentile(ms, 0.99),
            rows_per_sec: batch as f64 / (p50 / 1e3),
        }
    };
    (stats(&pairs.a_ms), stats(&pairs.b_ms), pairs.ratio)
}

/// Peak live tensor bytes `run` adds on top of what is resident when it
/// starts (weights, panels, the request).
fn peak_bytes_of(run: impl FnOnce()) -> usize {
    let resting = memory::current_bytes();
    memory::reset_peak();
    run();
    memory::peak_bytes().saturating_sub(resting)
}

fn run_suite() -> Vec<BatchResult> {
    let mut rng = StdRng::seed_from_u64(42);
    let model =
        StwaModel::new(StwaConfig::st_wa(SENSORS, HISTORY, HORIZON), &mut rng).expect("model");
    let session = InferSession::new(&model).expect("freeze");

    BATCHES
        .iter()
        .map(|&batch| {
            let x = Tensor::randn(&[batch, SENSORS, HISTORY, 1], &mut rng);
            // Correctness first: the two paths must agree bit-for-bit.
            let want = model.forward_eval(&x).expect("eval");
            let got = session.run(&x).expect("infer");
            assert_eq!(
                want.data(),
                got.data(),
                "batch {batch}: frozen path diverged from forward_eval"
            );
            let (eval, infer, speedup) = measure_pair(
                batch,
                || {
                    std::hint::black_box(model.forward_eval(&x).expect("eval"));
                },
                || {
                    std::hint::black_box(session.run(&x).expect("infer"));
                },
            );
            BatchResult {
                batch,
                eval,
                infer,
                speedup,
            }
        })
        .collect()
}

struct QuantBatch {
    batch: usize,
    f32_ms: PathStats,
    int8_ms: PathStats,
    /// f32 time over int8 time, the median over pairs.
    int8_speedup: f64,
    /// Peak live bytes of one `forward_eval` / one f32 frozen forward.
    eval_peak_bytes: usize,
    frozen_peak_bytes: usize,
}

impl QuantBatch {
    fn peak_bytes_ratio(&self) -> f64 {
        self.eval_peak_bytes as f64 / self.frozen_peak_bytes.max(1) as f64
    }
}

struct QuantSuite {
    batches: Vec<QuantBatch>,
    int8_mae: f64,
    f32_bytes: usize,
    int8_bytes: usize,
}

/// Serving-scale ST-WA: same data shape family as the main section but
/// with paper-scale widths so the decoder/predictor panels dominate the
/// forward and the f32 panels spill L2.
fn quant_config() -> StwaConfig {
    let mut cfg = StwaConfig::st_wa(QSENSORS, HISTORY, HORIZON);
    cfg.d = 32;
    cfg.heads = 8;
    cfg.k = 32;
    cfg.predictor_hidden = 512;
    cfg.decoder_hidden = (64, 128);
    cfg
}

fn mae(a: &Tensor, b: &Tensor) -> f64 {
    let (x, y) = (a.data(), b.data());
    assert_eq!(x.len(), y.len(), "MAE over mismatched tensors");
    x.iter()
        .zip(y.iter())
        .map(|(p, q)| (p - q).abs() as f64)
        .sum::<f64>()
        / x.len() as f64
}

fn run_quant_suite() -> QuantSuite {
    let mut rng = StdRng::seed_from_u64(7);
    let model = StwaModel::new(quant_config(), &mut rng).expect("quant model");
    let s_f32 = InferSession::new_at(&model, Precision::F32).expect("freeze f32");
    let s_int8 = InferSession::new_at(&model, Precision::Int8).expect("freeze int8");

    // Accuracy gate on the largest request before any timing: the
    // quantized forecasts must track the f32 frozen forecasts.
    let x64 = Tensor::randn(&[64, QSENSORS, HISTORY, 1], &mut rng);
    let base = s_f32.run(&x64).expect("f32 forward");
    let int8_mae = mae(&base, &s_int8.run(&x64).expect("int8 forward"));

    let batches = BATCHES
        .iter()
        .map(|&batch| {
            let x = if batch == 64 {
                x64.clone()
            } else {
                Tensor::randn(&[batch, QSENSORS, HISTORY, 1], &mut rng)
            };
            let (f32_ms, int8_ms, int8_speedup) = measure_pair(
                batch,
                || {
                    std::hint::black_box(s_f32.run(&x).expect("f32"));
                },
                || {
                    std::hint::black_box(s_int8.run(&x).expect("int8"));
                },
            );
            // After the timed runs, so the pool is warm and both peaks
            // count live tensors only.
            let eval_peak_bytes = peak_bytes_of(|| {
                std::hint::black_box(model.forward_eval(&x).expect("eval"));
            });
            let frozen_peak_bytes = peak_bytes_of(|| {
                std::hint::black_box(s_f32.run(&x).expect("f32"));
            });
            QuantBatch {
                batch,
                f32_ms,
                int8_ms,
                int8_speedup,
                eval_peak_bytes,
                frozen_peak_bytes,
            }
        })
        .collect();

    QuantSuite {
        batches,
        int8_mae,
        f32_bytes: s_f32.frozen().packed_bytes(),
        int8_bytes: s_int8.frozen().packed_bytes(),
    }
}

fn report(results: &[BatchResult], quant: &QuantSuite) -> Fields {
    let mut f = Fields::default().put(
        "shape",
        Json::Str(format!(
            "[B,{SENSORS},{HISTORY},1] -> [B,{SENSORS},{HORIZON},1]"
        )),
    );
    for r in results {
        let b = r.batch;
        f = f
            .num(format!("b{b}_eval_p50_ms"), r.eval.p50_ms)
            .num(format!("b{b}_eval_p99_ms"), r.eval.p99_ms)
            .num(format!("b{b}_infer_p50_ms"), r.infer.p50_ms)
            .num(format!("b{b}_infer_p99_ms"), r.infer.p99_ms)
            .num(format!("b{b}_infer_rows_per_sec"), r.infer.rows_per_sec)
            .num(format!("b{b}_speedup"), r.speedup);
    }
    f = f.num("min_speedup_b1", MIN_SPEEDUP_B1).put(
        "quant_shape",
        Json::Str(format!(
            "[B,{QSENSORS},{HISTORY},1] d=32 heads=8 k=32 ph=512 dh=(64,128)"
        )),
    );
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    for q in &quant.batches {
        let b = q.batch;
        f = f
            .num(format!("quant_b{b}_f32_p50_ms"), q.f32_ms.p50_ms)
            .num(format!("quant_b{b}_int8_p50_ms"), q.int8_ms.p50_ms)
            .num(format!("quant_b{b}_int8_speedup"), q.int8_speedup)
            .num(format!("quant_b{b}_eval_peak_mib"), mib(q.eval_peak_bytes))
            .num(
                format!("quant_b{b}_frozen_peak_mib"),
                mib(q.frozen_peak_bytes),
            )
            .num(format!("quant_b{b}_peak_bytes_ratio"), q.peak_bytes_ratio());
    }
    f.num("quant_int8_mae", quant.int8_mae)
        .num("quant_mae_gate_int8", MAE_GATE_INT8)
        .num("quant_f32_panel_mib", mib(quant.f32_bytes))
        .num("quant_int8_panel_mib", mib(quant.int8_bytes))
        .num("min_int8_speedup_b64", MIN_INT8_SPEEDUP_B64)
        .num("min_peak_bytes_ratio", MIN_PEAK_BYTES_RATIO)
}

fn main() {
    let mut gate = Gate::from_args("BENCH_infer.json");
    let results = run_suite();
    for r in &results {
        println!(
            "batch {:>2}  eval p50 {:>7.2} ms  infer p50 {:>7.2} ms  p99 {:>7.2} ms  \
             {:>9.0} rows/s  speedup {:.2}x",
            r.batch, r.eval.p50_ms, r.infer.p50_ms, r.infer.p99_ms, r.infer.rows_per_sec, r.speedup
        );
    }
    // Eval-over-frozen ratios are reported against the baseline but
    // not gated: evaluation is the model's own forward, so a faster
    // graph forward lowers them without the engine losing anything.
    // The batch-1 floor is what the engine must still earn.
    for r in &results {
        gate.note(&format!("b{}_speedup", r.batch), r.speedup);
    }
    let b1 = results.iter().find(|r| r.batch == 1).expect("batch 1 run");
    gate.check("b1_speedup", b1.speedup, Limit::AtLeast(MIN_SPEEDUP_B1));

    let quant = run_quant_suite();
    for q in &quant.batches {
        println!(
            "quant batch {:>2}  f32 p50 {:>7.2} ms  int8 p50 {:>7.2} ms ({:.2}x)  \
             peak eval {} frozen {} ({:.1}x)",
            q.batch,
            q.f32_ms.p50_ms,
            q.int8_ms.p50_ms,
            q.int8_speedup,
            memory::format_bytes(q.eval_peak_bytes),
            memory::format_bytes(q.frozen_peak_bytes),
            q.peak_bytes_ratio(),
        );
    }
    println!(
        "quant panels  f32 {:.2} MiB  int8 {:.2} MiB  |  mae int8 {:.5}",
        quant.f32_bytes as f64 / (1 << 20) as f64,
        quant.int8_bytes as f64 / (1 << 20) as f64,
        quant.int8_mae,
    );
    for q in &quant.batches {
        let b = q.batch;
        gate.check(
            &format!("quant_b{b}_peak_bytes_ratio"),
            q.peak_bytes_ratio(),
            Limit::AtLeast(MIN_PEAK_BYTES_RATIO),
        );
        gate.check(
            &format!("quant_b{b}_int8_speedup"),
            q.int8_speedup,
            Limit::Floor,
        );
        if b == 64 {
            gate.check(
                "quant_b64_int8_speedup",
                q.int8_speedup,
                Limit::AtLeast(MIN_INT8_SPEEDUP_B64),
            );
        }
    }
    gate.check(
        "quant_int8_mae",
        quant.int8_mae,
        Limit::AtMost(MAE_GATE_INT8),
    );
    gate.finish(report(&results, &quant));
}
