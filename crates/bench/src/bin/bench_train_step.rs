//! End-to-end train-step harness: times one full ST-WA optimization
//! step (forward, Huber loss, backward, Adam) on synthetic PEMS-shaped
//! batches, in two allocator regimes measured in the same run:
//!
//! - **fast**: buffer pool + fused kernels on (the production default);
//! - **churn**: pool and fusion disabled, so every tensor round-trips
//!   through the system allocator — the pre-pool behaviour.
//!
//! The report (`BENCH_train_step.json`) records per-step wall-clock and
//! heap-allocation counts for both regimes plus the pool hit rate and
//! peak live bytes. `--check PATH` compares the *speedup* and
//! *allocation-reduction* ratios against a checked-in baseline; both are
//! same-run ratios, so the gate is portable across hosts of different
//! absolute speed, exactly like `bench_kernels`.
//!
//! A third, traced pass in the fast regime turns `stwa-observe`'s
//! existing spans into **the table** a "do less" change starts from:
//! ms/step by backward op kind (`backward/<kind>`, with the nodes of
//! that kind per step) and by forward stage (`generator/latent`,
//! `generator/decoder`, `wa_layer{l}`, `sensor_attention`, `predictor`),
//! beside `matmul.flops` per step. The table is reported, not gated:
//! absolute milliseconds belong to the host in the header.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::Graph;
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_nn::loss::huber;
use stwa_nn::optim::{Adam, Optimizer};
use stwa_tensor::{memory, Tensor};

/// Allowed relative loss of a baseline ratio before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.15;

/// The repo benchmark's `train_epoch` shape: `st_wa(20, 12, 12)` at
/// batch 32, so the table below attributes the step that workload times.
const SENSORS: usize = 20;
const HISTORY: usize = 12;
const HORIZON: usize = 12;
const BATCH: usize = 32;

const WARMUP_STEPS: usize = 5;
/// Measurement runs in chunks; the per-step time reported for each mode
/// is the fastest chunk's. OS jitter and cgroup throttling are strictly
/// additive on wall-clock, so the minimum is the steady-state estimate
/// (both modes are treated symmetrically).
const CHUNKS: usize = 5;
const STEPS_PER_CHUNK: usize = 8;
const MEASURED_STEPS: usize = CHUNKS * STEPS_PER_CHUNK;

struct ModeResult {
    ms_per_step: f64,
    allocs_per_step: f64,
    hit_rate: f64,
    peak_bytes: usize,
}

/// One row of the traced table: a span path, how often it closed per
/// step (for `backward/<kind>`: tape nodes of that kind) and its time.
struct Row {
    name: String,
    per_step: f64,
    ms_per_step: f64,
}

/// The traced pass: where a fast-regime step's time goes.
struct Table {
    step_ms: f64,
    matmul_flops_per_step: u64,
    forward: Vec<Row>,
    backward: Vec<Row>,
}

struct Report {
    fast: ModeResult,
    churn: ModeResult,
    table: Table,
}

impl Report {
    /// Churn-mode step time over fast-mode step time (same run).
    fn speedup(&self) -> f64 {
        self.churn.ms_per_step / self.fast.ms_per_step
    }
    /// Churn-mode heap allocations over fast-mode heap allocations.
    fn alloc_reduction(&self) -> f64 {
        self.churn.allocs_per_step / self.fast.allocs_per_step.max(1e-9)
    }
}

/// One optimization step: fresh tape, forward, raw-scale Huber (+KL
/// when the model is stochastic), backward, Adam — the body of
/// `Trainer::train_step` on synthetic data.
fn train_step(model: &StwaModel, opt: &mut Adam, bx: &Tensor, by: &Tensor, rng: &mut StdRng) {
    let graph = Graph::new();
    let x = graph.constant(bx.clone());
    let out = model.forward(&graph, &x, rng, true).expect("forward");
    let target = graph.constant(by.clone());
    let mut loss = huber(&out.pred, &target, 1.0).expect("huber");
    if let Some(reg) = out.regularizer {
        loss = loss.add(&reg).expect("regularizer");
    }
    graph.backward(&loss).expect("backward");
    opt.step();
    opt.finish_step();
}

fn run_mode(
    pooled: bool,
    model: &StwaModel,
    opt: &mut Adam,
    bx: &Tensor,
    by: &Tensor,
    rng: &mut StdRng,
) -> ModeResult {
    memory::set_pool_enabled(pooled);
    memory::set_fused_enabled(pooled);
    for _ in 0..WARMUP_STEPS {
        train_step(model, opt, bx, by, rng);
    }
    memory::reset_peak();
    let before = memory::pool_stats();
    let mut best_ms = f64::INFINITY;
    for _ in 0..CHUNKS {
        let t0 = Instant::now();
        for _ in 0..STEPS_PER_CHUNK {
            train_step(model, opt, bx, by, rng);
        }
        let chunk_ms = t0.elapsed().as_secs_f64() * 1e3 / STEPS_PER_CHUNK as f64;
        best_ms = best_ms.min(chunk_ms);
    }
    let after = memory::pool_stats();
    let d_heap = after.heap_allocs - before.heap_allocs;
    let d_hits = after.hits - before.hits;
    let d_misses = after.misses - before.misses;
    let lookups = d_hits + d_misses;
    ModeResult {
        ms_per_step: best_ms,
        allocs_per_step: d_heap as f64 / MEASURED_STEPS as f64,
        hit_rate: if lookups == 0 {
            0.0
        } else {
            d_hits as f64 / lookups as f64
        },
        peak_bytes: memory::peak_bytes(),
    }
}

/// Forward stages reported by the table, matched as path suffixes so a
/// stage entered once per layer (`sensor_attention`) sums over layers.
const FORWARD_STAGES: [&str; 4] = [
    "generator/latent",
    "generator/decoder",
    "sensor_attention",
    "predictor",
];

/// Run fast-regime steps with recording on and fold the spans of the
/// fastest chunk into per-step rows.
fn run_traced(
    model: &StwaModel,
    opt: &mut Adam,
    bx: &Tensor,
    by: &Tensor,
    rng: &mut StdRng,
) -> Table {
    // Like the timed modes, keep the fastest chunk: its spans are the
    // steady-state attribution, the others carry the host's jitter.
    stwa_observe::set_enabled(true);
    let mut step_ms = f64::INFINITY;
    let mut spans = Vec::new();
    let mut matmul_flops = 0;
    for _ in 0..CHUNKS {
        stwa_observe::reset();
        let t0 = Instant::now();
        for _ in 0..STEPS_PER_CHUNK {
            train_step(model, opt, bx, by, rng);
        }
        let chunk_ms = t0.elapsed().as_secs_f64() * 1e3 / STEPS_PER_CHUNK as f64;
        if chunk_ms < step_ms {
            step_ms = chunk_ms;
            spans = stwa_observe::Recorder::global().snapshot();
            matmul_flops = stwa_observe::counters_snapshot()
                .iter()
                .find(|(name, _)| name == "matmul.flops")
                .map_or(0, |&(_, v)| v);
        }
    }
    stwa_observe::set_enabled(false);

    let steps = STEPS_PER_CHUNK as f64;
    // Sum every span whose path is `name` or ends in `/name`.
    let sum = |name: &str| -> Row {
        let tail = format!("/{name}");
        let (count, ns) = spans
            .iter()
            .filter(|s| s.path == name || s.path.ends_with(&tail))
            .fold((0u64, 0u64), |(c, n), s| (c + s.count, n + s.total_ns));
        Row {
            name: name.to_string(),
            per_step: count as f64 / steps,
            ms_per_step: ns as f64 / 1e6 / steps,
        }
    };
    let mut forward = vec![sum("forward")];
    forward.extend(FORWARD_STAGES.iter().map(|stage| sum(stage)));
    let mut layers: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.path.strip_prefix("forward/"))
        .filter(|rest| rest.starts_with("wa_layer") && !rest.contains('/'))
        .collect();
    layers.sort_unstable();
    forward.extend(layers.into_iter().map(sum));

    // One row per op kind; spans opened inside a VJP (`backward/matmul/
    // matmul` is the kernel under the op) are part of their kind's row.
    let mut backward: Vec<Row> = spans
        .iter()
        .filter(|s| {
            s.path
                .strip_prefix("backward/")
                .is_some_and(|kind| !kind.contains('/'))
        })
        .map(|s| sum(&s.path))
        .collect();
    backward.sort_by(|a, b| b.ms_per_step.total_cmp(&a.ms_per_step));
    backward.insert(0, sum("backward"));

    Table {
        step_ms,
        matmul_flops_per_step: matmul_flops / STEPS_PER_CHUNK as u64,
        forward,
        backward,
    }
}

fn run_suite() -> Report {
    let mut rng = StdRng::seed_from_u64(42);
    let model =
        StwaModel::new(StwaConfig::st_wa(SENSORS, HISTORY, HORIZON), &mut rng).expect("model");
    let mut opt = Adam::new(model.store(), 1e-3);
    let bx = Tensor::randn(&[BATCH, SENSORS, HISTORY, 1], &mut rng);
    let by = Tensor::randn(&[BATCH, SENSORS, HORIZON, 1], &mut rng);

    // Churn first so the fast mode's pool starts cold and still has to
    // earn its hit rate inside its own warmup.
    let churn = run_mode(false, &model, &mut opt, &bx, &by, &mut rng);
    let fast = run_mode(true, &model, &mut opt, &bx, &by, &mut rng);
    // Leave the process-wide switches in their default-on state.
    memory::set_pool_enabled(true);
    memory::set_fused_enabled(true);
    let table = run_traced(&model, &mut opt, &bx, &by, &mut rng);
    Report { fast, churn, table }
}

fn render_rows(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"per_step\": {:.1}, \"ms\": {:.4}}}",
                r.name, r.per_step, r.ms_per_step
            )
        })
        .collect();
    lines.join(",\n")
}

fn render_json(r: &Report) -> String {
    format!(
        "{{\n{}  \"shape\": \"[{BATCH},{SENSORS},{HISTORY},1] -> \
         [{BATCH},{SENSORS},{HORIZON},1]\",\n  \"measured_steps\": {MEASURED_STEPS},\n  \
         \"fast_ms_per_step\": {:.3},\n  \"churn_ms_per_step\": {:.3},\n  \
         \"speedup\": {:.3},\n  \"fast_allocs_per_step\": {:.1},\n  \
         \"churn_allocs_per_step\": {:.1},\n  \"alloc_reduction\": {:.3},\n  \
         \"pool_hit_rate\": {:.4},\n  \"fast_peak_bytes\": {},\n  \
         \"churn_peak_bytes\": {},\n  \"traced_ms_per_step\": {:.3},\n  \
         \"matmul_flops_per_step\": {},\n  \"forward_by_stage\": {{\n{}\n  }},\n  \
         \"backward_by_op_kind\": {{\n{}\n  }}\n}}\n",
        stwa_bench::host::json_fields(),
        r.fast.ms_per_step,
        r.churn.ms_per_step,
        r.speedup(),
        r.fast.allocs_per_step,
        r.churn.allocs_per_step,
        r.alloc_reduction(),
        r.fast.hit_rate,
        r.fast.peak_bytes,
        r.churn.peak_bytes,
        r.table.step_ms,
        r.table.matmul_flops_per_step,
        render_rows(&r.table.forward),
        render_rows(&r.table.backward),
    )
}

fn print_table(t: &Table) {
    println!(
        "traced step {:.2} ms  matmul {:.1} MFLOP/step",
        t.step_ms,
        t.matmul_flops_per_step as f64 / 1e6
    );
    for (title, rows) in [("forward stage", &t.forward), ("backward op kind", &t.backward)] {
        println!("{title:<28} {:>9} {:>9}", "per step", "ms/step");
        for r in rows {
            println!("  {:<26} {:>9.1} {:>9.3}", r.name, r.per_step, r.ms_per_step);
        }
    }
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
    let mut out_path = "BENCH_train_step.json".to_string();
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
                    "unknown flag {other}; usage: bench_train_step [--out PATH | --check PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let report = run_suite();
    println!(
        "train step  fast {:.2} ms  churn {:.2} ms  speedup {:.2}x",
        report.fast.ms_per_step,
        report.churn.ms_per_step,
        report.speedup()
    );
    println!(
        "heap allocs fast {:.0}/step  churn {:.0}/step  reduction {:.1}x  hit rate {:.1}%",
        report.fast.allocs_per_step,
        report.churn.allocs_per_step,
        report.alloc_reduction(),
        report.fast.hit_rate * 100.0
    );
    println!(
        "peak bytes  fast {}  churn {}",
        memory::format_bytes(report.fast.peak_bytes),
        memory::format_bytes(report.churn.peak_bytes)
    );
    print_table(&report.table);

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let mut failed = false;
        for (key, new_val) in [
            ("speedup", report.speedup()),
            ("alloc_reduction", report.alloc_reduction()),
        ] {
            let Some(old_val) = parse_number(&baseline, key) else {
                println!("note: no baseline value for {key}, skipping");
                continue;
            };
            let floor = old_val * (1.0 - REGRESSION_TOLERANCE);
            if new_val < floor {
                eprintln!(
                    "REGRESSION {key}: {new_val:.2} fell below {floor:.2} \
                     (baseline {old_val:.2} - {:.0}% tolerance)",
                    REGRESSION_TOLERANCE * 100.0
                );
                failed = true;
            } else {
                println!("ok {key}: {new_val:.2} vs baseline {old_val:.2} (floor {floor:.2})");
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("train-step check passed");
    } else {
        std::fs::write(&out_path, render_json(&report))
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
    }
}
