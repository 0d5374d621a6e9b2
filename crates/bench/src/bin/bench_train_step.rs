//! End-to-end train-step harness: times one full ST-WA optimization
//! step (forward, Huber loss, backward, Adam) on synthetic PEMS-shaped
//! batches.
//!
//! The report (`BENCH_train_step.json`) records per-step wall-clock,
//! heap allocations per step, the pool hit rate, peak live bytes,
//! `forward_live_bytes` — one step's live tensor bytes at the end of its
//! forward, what the tape holds for backward plus the parameters and
//! optimizer state — and `backward_peak_over_forward`, that step's peak
//! live bytes across backward over them (both reported, not gated).
//! `--check PATH` gates three figures against a checked-in baseline —
//! heap allocations per step, the pool hit rate and peak live bytes
//! depend on the step's tensor shapes, not on the host, so they
//! repeat where milliseconds do not: allocations may grow to at most
//! [`ALLOC_GROWTH`]× the baseline, peak bytes to [`PEAK_GROWTH`]×, and
//! the hit rate may fall at most [`HIT_RATE_SLACK`] below it.
//!
//! A second, traced pass turns `stwa-observe`'s
//! existing spans into **the table** a "do less" change starts from:
//! ms/step by backward op kind (`backward/<kind>`, with the nodes of
//! that kind per step) and by forward stage (`generator/latent`,
//! `generator/decoder`, `wa_layer{l}`, `kv_projection`, `window_layer`
//! — the layer body, one tape node per layer — `sensor_attention`
//! inside it, `predictor`), by stage inside the layer body op
//! (`window_layer_by_stage`: `queries`, `proxy_attention`, `gate`,
//! `sensor_attention` forward; `sensor_attention`, `gate`,
//! `proxy_attention`, `fusion` — with the proxies' partials — backward,
//! summed over layers), beside the tape nodes a step records,
//! beside `matmul.flops` per step, and the product VJPs by operand shape
//! (`backward_matmul_by_shape`: the ten costliest `matmul` / `matmul_nt`
//! shapes with their nodes per step and GFLOP/s over the halves they
//! computed). The table is reported, not gated: absolute milliseconds
//! belong to the host in the header.
//!
//! Both passes run on **one pool thread**, the width `benchmark/` runs
//! `train_epoch` at, so the table attributes the step that workload
//! times.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::{Graph, Var};
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_nn::loss::huber;
use stwa_nn::optim::{Adam, Optimizer};
use stwa_tensor::{memory, Tensor};

/// `--check` fails when heap allocations per step exceed the baseline's
/// by more than this factor.
const ALLOC_GROWTH: f64 = 1.25;
/// `--check` fails when the pool hit rate falls further than this below
/// the baseline's.
const HIT_RATE_SLACK: f64 = 0.05;
/// `--check` fails when peak live bytes exceed the baseline's by more
/// than this factor.
const PEAK_GROWTH: f64 = 1.05;

/// The repo benchmark's `train_epoch` shape: `st_wa(20, 12, 12)` at
/// batch 32, so the table below attributes the step that workload times.
const SENSORS: usize = 20;
const HISTORY: usize = 12;
const HORIZON: usize = 12;
const BATCH: usize = 32;

const WARMUP_STEPS: usize = 5;
/// Measurement runs in chunks; the per-step time reported is the
/// fastest chunk's. OS jitter and cgroup throttling are strictly
/// additive on wall-clock, so the minimum is the steady-state estimate.
const CHUNKS: usize = 5;
const STEPS_PER_CHUNK: usize = 8;
const MEASURED_STEPS: usize = CHUNKS * STEPS_PER_CHUNK;

struct Timed {
    /// Nodes on one step's tape (forward, loss).
    tape_nodes: usize,
    ms_per_step: f64,
    allocs_per_step: f64,
    hit_rate: f64,
    peak_bytes: usize,
    /// One step's live bytes at the end of its forward.
    forward_live_bytes: usize,
    /// That step's peak live bytes across backward over them.
    backward_peak_over_forward: f64,
}

/// One row of the traced table: a span path, how often it closed per
/// step (for `backward/<kind>`: tape nodes of that kind) and its time.
struct Row {
    name: String,
    per_step: f64,
    ms_per_step: f64,
}

/// One product VJP shape: `kind operand shapes halves`, nodes and ms per
/// step, and the GFLOP/s of the halves it computed.
struct ShapeRow {
    row: Row,
    gflops: f64,
}

/// The traced pass: where a step's time goes.
struct Table {
    step_ms: f64,
    matmul_flops_per_step: u64,
    forward: Vec<Row>,
    backward: Vec<Row>,
    window_layer: Vec<Row>,
    matmul_by_shape: Vec<ShapeRow>,
}

/// Rows of the by-shape table.
const SHAPE_ROWS: usize = 10;

/// FLOPs of one product VJP from its span label, `"[.., m, k]@[.., k,
/// n] dA+dB"` (`matmul`) or `"[.., m, k]@[.., n, k] dB"` (`matmul_nt`):
/// two per multiply-add, per computed half, over the broadcast batch.
fn vjp_flops(kind: &str, label: &str) -> Option<f64> {
    let (shapes, halves) = label.rsplit_once(' ')?;
    let (a, b) = shapes.split_once('@')?;
    let dims = |s: &str| -> Option<Vec<f64>> {
        s.trim_matches(|c| c == '[' || c == ']')
            .split(", ")
            .map(|v| v.parse().ok())
            .collect()
    };
    let (a, b) = (dims(a)?, dims(b)?);
    let (ra, rb) = (a.len(), b.len());
    let (m, k) = (a[ra - 2], a[ra - 1]);
    let n = if kind == "matmul_nt" {
        b[rb - 2]
    } else {
        b[rb - 1]
    };
    let lead = ra.max(rb) - 2;
    let batch: f64 = (0..lead)
        .map(|i| {
            let at = |v: &[f64], r: usize| (i + r >= lead + 2).then(|| v[i + r - lead - 2]);
            at(&a, ra).unwrap_or(1.0).max(at(&b, rb).unwrap_or(1.0))
        })
        .product();
    let halves = halves.split('+').count() as f64;
    Some(2.0 * batch * m * k * n * halves)
}

/// A step's fresh tape up to its loss: forward, raw-scale Huber (+KL
/// when the model is stochastic).
fn forward_loss(model: &StwaModel, bx: &Tensor, by: &Tensor, rng: &mut StdRng) -> (Graph, Var) {
    let graph = Graph::new();
    let x = graph.constant(bx.clone());
    let out = model.forward(&graph, &x, rng, true).expect("forward");
    let target = graph.constant(by.clone());
    let mut loss = huber(&out.pred, &target, 1.0).expect("huber");
    if let Some(reg) = out.regularizer {
        loss = loss.add(&reg).expect("regularizer");
    }
    (graph, loss)
}

/// One optimization step: [`forward_loss`], backward, Adam — the body
/// of `Trainer::train_step` on synthetic data. Returns the tape's
/// length.
fn train_step(model: &StwaModel, opt: &mut Adam, bx: &Tensor, by: &Tensor, rng: &mut StdRng) -> usize {
    let (graph, loss) = forward_loss(model, bx, by, rng);
    graph.backward(&loss).expect("backward");
    opt.step();
    opt.finish_step();
    graph.len()
}

/// One step whose backward alone is measured: the live bytes at the end
/// of its forward, and its peak live bytes across backward over them.
fn measured_backward(
    model: &StwaModel,
    opt: &mut Adam,
    bx: &Tensor,
    by: &Tensor,
    rng: &mut StdRng,
) -> (usize, f64) {
    let (graph, loss) = forward_loss(model, bx, by, rng);
    let forward_live = memory::current_bytes();
    memory::reset_peak();
    graph.backward(&loss).expect("backward");
    let ratio = memory::peak_bytes() as f64 / forward_live as f64;
    opt.step();
    opt.finish_step();
    (forward_live, ratio)
}

/// The timed pass. The pool starts cold and earns its hit rate inside
/// the warmup.
fn run_timed(
    model: &StwaModel,
    opt: &mut Adam,
    bx: &Tensor,
    by: &Tensor,
    rng: &mut StdRng,
) -> Timed {
    let mut tape_nodes = 0;
    for _ in 0..WARMUP_STEPS {
        tape_nodes = train_step(model, opt, bx, by, rng);
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
    let peak_bytes = memory::peak_bytes();
    let (forward_live_bytes, backward_peak_over_forward) =
        measured_backward(model, opt, bx, by, rng);
    Timed {
        tape_nodes,
        ms_per_step: best_ms,
        allocs_per_step: d_heap as f64 / MEASURED_STEPS as f64,
        hit_rate: if lookups == 0 {
            0.0
        } else {
            d_hits as f64 / lookups as f64
        },
        peak_bytes,
        forward_live_bytes,
        backward_peak_over_forward,
    }
}

/// Forward stages reported by the table, matched as path suffixes so a
/// stage entered once per layer (`kv_projection`, `sensor_attention`)
/// sums over layers.
const FORWARD_STAGES: [&str; 6] = [
    "generator/latent",
    "generator/decoder",
    "kv_projection",
    "window_layer",
    "sensor_attention",
    "predictor",
];

/// Stages inside the `window_layer` op, as `(pass, span)`: the spans
/// `stwa_tensor::window_layer::{forward, vjp}` open per window.
const WINDOW_LAYER_STAGES: [(&str, &str); 8] = [
    ("forward", "queries"),
    ("forward", "proxy_attention"),
    ("forward", "gate"),
    ("forward", "sensor_attention"),
    ("backward", "sensor_attention"),
    ("backward", "gate"),
    ("backward", "proxy_attention"),
    ("backward", "fusion"),
];

/// Run steps with recording on and fold the spans of the fastest chunk
/// into per-step rows.
fn run_traced(
    model: &StwaModel,
    opt: &mut Adam,
    bx: &Tensor,
    by: &Tensor,
    rng: &mut StdRng,
) -> Table {
    // Like the timed pass, keep the fastest chunk: its spans are the
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
    // Sum every span under `root` whose path is `name` or ends in
    // `/name` (a forward stage and the backward node of the same name
    // are different rows).
    let sum_under = |root: &str, name: &str| -> Row {
        let tail = format!("/{name}");
        let (count, ns) = spans
            .iter()
            .filter(|s| s.path.starts_with(root) && (s.path == name || s.path.ends_with(&tail)))
            .fold((0u64, 0u64), |(c, n), s| (c + s.count, n + s.total_ns));
        Row {
            name: name.to_string(),
            per_step: count as f64 / steps,
            ms_per_step: ns as f64 / 1e6 / steps,
        }
    };
    let sum = |name: &str| sum_under("", name);
    let mut forward = vec![sum("forward")];
    forward.extend(FORWARD_STAGES.iter().map(|stage| sum_under("forward", stage)));
    let mut layers: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.path.strip_prefix("forward/"))
        .filter(|rest| rest.starts_with("wa_layer") && !rest.contains('/'))
        .collect();
    layers.sort_unstable();
    forward.extend(layers.into_iter().map(sum));

    let window_layer = WINDOW_LAYER_STAGES
        .iter()
        .map(|(pass, stage)| Row {
            name: format!("{pass}/{stage}"),
            ..sum_under(pass, &format!("window_layer/{stage}"))
        })
        .collect();

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

    // `backward/<kind>/<shapes> <halves>`: the span each product VJP
    // opens under its kind.
    let mut matmul_by_shape: Vec<ShapeRow> = spans
        .iter()
        .filter_map(|s| {
            let (kind, label) = s.path.strip_prefix("backward/")?.split_once('/')?;
            if !matches!(kind, "matmul" | "matmul_nt") || label.contains('/') {
                return None;
            }
            let row = sum(&s.path);
            let flops = vjp_flops(kind, label)? * row.per_step;
            Some(ShapeRow {
                gflops: flops / (row.ms_per_step * 1e6),
                row: Row {
                    name: format!("{kind} {label}"),
                    ..row
                },
            })
        })
        .collect();
    matmul_by_shape.sort_by(|a, b| b.row.ms_per_step.total_cmp(&a.row.ms_per_step));
    matmul_by_shape.truncate(SHAPE_ROWS);

    Table {
        step_ms,
        matmul_flops_per_step: matmul_flops / STEPS_PER_CHUNK as u64,
        forward,
        backward,
        window_layer,
        matmul_by_shape,
    }
}

fn run_suite() -> (Timed, Table) {
    stwa_pool::set_threads(1);
    let mut rng = StdRng::seed_from_u64(42);
    let model =
        StwaModel::new(StwaConfig::st_wa(SENSORS, HISTORY, HORIZON), &mut rng).expect("model");
    let mut opt = Adam::new(model.store(), 1e-3);
    let bx = Tensor::randn(&[BATCH, SENSORS, HISTORY, 1], &mut rng);
    let by = Tensor::randn(&[BATCH, SENSORS, HORIZON, 1], &mut rng);

    let timed = run_timed(&model, &mut opt, &bx, &by, &mut rng);
    let table = run_traced(&model, &mut opt, &bx, &by, &mut rng);
    (timed, table)
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

fn render_shape_rows(rows: &[ShapeRow]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{\"per_step\": {:.1}, \"ms\": {:.4}, \"gflops\": {:.2}}}",
                r.row.name, r.row.per_step, r.row.ms_per_step, r.gflops
            )
        })
        .collect();
    lines.join(",\n")
}

fn render_json(timed: &Timed, table: &Table) -> String {
    format!(
        "{{\n{}  \"shape\": \"[{BATCH},{SENSORS},{HISTORY},1] -> \
         [{BATCH},{SENSORS},{HORIZON},1]\",\n  \"measured_steps\": {MEASURED_STEPS},\n  \
         \"tape_nodes_per_step\": {},\n  \
         \"fast_ms_per_step\": {:.3},\n  \"fast_allocs_per_step\": {:.1},\n  \
         \"pool_hit_rate\": {:.4},\n  \"fast_peak_bytes\": {},\n  \
         \"forward_live_bytes\": {},\n  \"backward_peak_over_forward\": {:.4},\n  \
         \"traced_ms_per_step\": {:.3},\n  \
         \"matmul_flops_per_step\": {},\n  \"forward_by_stage\": {{\n{}\n  }},\n  \
         \"backward_by_op_kind\": {{\n{}\n  }},\n  \
         \"window_layer_by_stage\": {{\n{}\n  }},\n  \
         \"backward_matmul_by_shape\": {{\n{}\n  }}\n}}\n",
        stwa_bench::host::json_fields(),
        timed.tape_nodes,
        timed.ms_per_step,
        timed.allocs_per_step,
        timed.hit_rate,
        timed.peak_bytes,
        timed.forward_live_bytes,
        timed.backward_peak_over_forward,
        table.step_ms,
        table.matmul_flops_per_step,
        render_rows(&table.forward),
        render_rows(&table.backward),
        render_rows(&table.window_layer),
        render_shape_rows(&table.matmul_by_shape),
    )
}

fn print_table(t: &Table) {
    println!(
        "traced step {:.2} ms  matmul {:.1} MFLOP/step",
        t.step_ms,
        t.matmul_flops_per_step as f64 / 1e6
    );
    for (title, rows) in [
        ("forward stage", &t.forward),
        ("backward op kind", &t.backward),
        ("window_layer stage", &t.window_layer),
    ] {
        println!("{title:<28} {:>9} {:>9}", "per step", "ms/step");
        for r in rows {
            println!("  {:<26} {:>9.1} {:>9.3}", r.name, r.per_step, r.ms_per_step);
        }
    }
    println!(
        "{:<58} {:>9} {:>9} {:>7}",
        "backward product by shape", "per step", "ms/step", "GF/s"
    );
    for r in &t.matmul_by_shape {
        println!(
            "  {:<56} {:>9.1} {:>9.3} {:>7.1}",
            r.row.name, r.row.per_step, r.row.ms_per_step, r.gflops
        );
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

    let (timed, table) = run_suite();
    println!(
        "train step  {:.2} ms  heap allocs {:.0}/step  hit rate {:.1}%  peak {} \
         (forward live {}, backward {:.3}x it)  tape {} nodes",
        timed.ms_per_step,
        timed.allocs_per_step,
        timed.hit_rate * 100.0,
        memory::format_bytes(timed.peak_bytes),
        memory::format_bytes(timed.forward_live_bytes),
        timed.backward_peak_over_forward,
        timed.tape_nodes
    );
    print_table(&table);

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let mut failed = false;
        // Allocations and peak bytes may rise to `factor`x the baseline
        // (`Some(factor)`); the hit rate may fall at most its slack.
        for (key, new_val, growth) in [
            ("fast_allocs_per_step", timed.allocs_per_step, Some(ALLOC_GROWTH)),
            ("fast_peak_bytes", timed.peak_bytes as f64, Some(PEAK_GROWTH)),
            ("pool_hit_rate", timed.hit_rate, None),
        ] {
            let Some(old_val) = parse_number(&baseline, key) else {
                println!("note: no baseline value for {key}, skipping");
                continue;
            };
            let (limit, past) = match growth {
                Some(factor) => (old_val * factor, new_val > old_val * factor),
                None => (old_val - HIT_RATE_SLACK, new_val < old_val - HIT_RATE_SLACK),
            };
            if past {
                eprintln!("REGRESSION {key}: {new_val:.4} is past {limit:.4} (baseline {old_val:.4})");
                failed = true;
            } else {
                println!("ok {key}: {new_val:.4} vs baseline {old_val:.4} (limit {limit:.4})");
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("train-step check passed");
    } else {
        std::fs::write(&out_path, render_json(&timed, &table))
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
    }
}
