//! The per-layer ledger: a fixed walk through every crate's public
//! functions, timed from outside, on the *workload's own* model. Every
//! traced run ends with it, so every workload reports every per-layer
//! metric. The same name therefore reads differently per workload —
//! `infer.run_b1_us` is a 48-sensor forward on the serve workloads, a
//! 20-sensor one on `train_epoch`, a 1 024-sensor one on `infer_city` —
//! which is what lets a layer's change be followed to the end-to-end
//! number it should move there.
//!
//! Parts, in order: request replay through `stwa-serve`'s functions in
//! `server.rs`'s order (with `stwa-observe` on, so the engine's spans
//! nest under the replayed evaluations); a socket probe on a fresh
//! server, whose round trip minus the replayed request is the residual
//! no function call explains; inference, training-step, kernel,
//! checkpoint and data probes.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::Graph;
use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_core::{ForecastModel, StwaModel, TrainConfig, Trainer};
use stwa_infer::{FrozenStwa, InferSession, Precision};
use stwa_nn::loss::huber;
use stwa_nn::optim::{Adam, Optimizer};
use stwa_serve::cache::{fingerprint_f32, CacheKey, ForecastCache};
use stwa_serve::http::{self, Parse};
use stwa_serve::{proto, Server};
use stwa_tensor::linalg::{self, PackedMatrix};
use stwa_tensor::quant::{matmul_packed_int8_lean, PackedMatrixInt8};
use stwa_tensor::{mathfn, memory, sparse, SensorGraph, Tensor};
use stwa_traffic::{DatasetConfig, GeneratorConfig, Scaler, SplitTensors, TrafficDataset};

use crate::loadgen::Conn;
use crate::other;
use crate::report::Report;
use crate::serve::{serve_config, server_stats, Mix};
use crate::stats::median;
use crate::subject::{weights_seed, Scratch, Subject};
use crate::trace::{self_times, Span, Tracer};
use crate::wire::{apply_frame, get_forecast, post, rotation, Dims, Mirror, Oracle};

/// How much of the run each part may take; `scale` shrinks all of them
/// for `--smoke`.
pub struct Budget {
    pub scale: f64,
}

impl Budget {
    fn seconds(&self, s: f64) -> f64 {
        s * self.scale
    }
    fn count(&self, n: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(2)
    }
}

/// What every part of one ledger walk works on.
struct Walk<'a> {
    subject: &'a Subject,
    /// `subject` with the fixed version-1 weights.
    model: StwaModel,
    scratch: Scratch,
    registry: Registry,
    mix: Mix,
    seed: u64,
    budget: &'a Budget,
}

/// Call `f` once untimed, then repeatedly for about `budget_s` seconds
/// (at least three calls); per-call nanoseconds.
fn sample_ns(budget_s: f64, mut f: impl FnMut()) -> Vec<f64> {
    f();
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < 3 || (started.elapsed().as_secs_f64() < budget_s && out.len() < 100_000) {
        let t0 = Instant::now();
        f();
        out.push(t0.elapsed().as_nanos() as f64);
    }
    out
}

fn put_median(
    report: &mut Report,
    name: &str,
    samples_ns: &[f64],
    per_unit: f64,
    unit: &'static str,
) {
    report.put(name, median(samples_ns) / per_unit, unit, samples_ns.len());
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// The server's request path as public function calls on one thread:
/// `http::parse_request`, then for an observation `proto::parse_observe`,
/// the window shift and `cache::fingerprint_f32`, and for a forecast
/// `ForecastCache::get`, on a miss `InferSession::run` (once per
/// window, as the replica's memo has it) and `ForecastCache::put`,
/// then `proto::forecast_body` and `http::write_response`.
struct Replayer<'a> {
    dims: Dims,
    session: &'a InferSession,
    cache: ForecastCache,
    window: Vec<f32>,
    window_fp: u64,
    memo: Option<(u64, Vec<f32>)>,
    hits: u64,
    lookups: u64,
}

const REPLAY_VERSION: u64 = 1;

impl Replayer<'_> {
    fn handle(&mut self, tr: &mut Tracer, id: u64, bytes: &[u8]) -> Vec<u8> {
        let is_post = bytes.starts_with(b"POST");
        let (request_name, parse_name) = if is_post {
            ("request.observe", "http.parse_post")
        } else {
            ("request.forecast", "http.parse_get")
        };
        tr.span(request_name, id, |tr| {
            let (parsed, _) = tr.span(parse_name, id, |_| http::parse_request(bytes));
            let Parse::Complete(req, used) = parsed else {
                panic!("replayed request did not parse: {parsed:?}");
            };
            assert_eq!(used, bytes.len(), "one request per replayed buffer");
            let mut out = Vec::new();
            if is_post {
                let d = self.dims;
                let (frame, _) = tr.span("proto.parse_observe", id, |_| {
                    proto::parse_observe(&req.body, d.n * d.f).expect("generated frame parses")
                });
                tr.span("window.shift", id, |_| {
                    apply_frame(&mut self.window, &frame, d)
                });
                self.window_fp = tr
                    .span("cache.fingerprint", id, |_| fingerprint_f32(&self.window))
                    .0;
                tr.span("proto.encode_ack", id, |_| {
                    let body = proto::observe_ack(REPLAY_VERSION, self.window_fp);
                    http::write_response(
                        &mut out,
                        200,
                        "OK",
                        "application/json",
                        &body,
                        req.keep_alive,
                    );
                });
                return out;
            }
            let sensor: u32 = req
                .query("sensor")
                .and_then(|v| v.parse().ok())
                .expect("sensor");
            let horizon: u32 = req
                .query("horizon")
                .and_then(|v| v.parse().ok())
                .expect("horizon");
            let key = CacheKey {
                version: REPLAY_VERSION,
                sensor,
                horizon,
                window_fp: self.window_fp,
            };
            self.lookups += 1;
            let (cached, _) = tr.span("cache.get", id, |_| self.cache.get(&key));
            let (values, label) = match cached {
                Some(values) => {
                    self.hits += 1;
                    (values, "hit")
                }
                None => {
                    let fresh = self
                        .memo
                        .as_ref()
                        .is_none_or(|(fp, _)| *fp != self.window_fp);
                    if fresh {
                        let d = self.dims;
                        let (full, _) = tr.span("infer.run", id, |_| {
                            let x = Tensor::from_vec(self.window.clone(), &[1, d.n, d.h, d.f])
                                .expect("window shape");
                            self.session
                                .run(&x)
                                .expect("replayed forward")
                                .data()
                                .to_vec()
                        });
                        self.memo = Some((self.window_fp, full));
                    }
                    let full = &self.memo.as_ref().expect("memo just set").1;
                    let start = sensor as usize * self.dims.u * self.dims.f;
                    let sliced =
                        Arc::new(full[start..start + horizon as usize * self.dims.f].to_vec());
                    tr.span("cache.put", id, |_| {
                        self.cache.put(key, Arc::clone(&sliced))
                    });
                    (sliced, if fresh { "miss" } else { "memo" })
                }
            };
            tr.span("proto.encode", id, |_| {
                let body = proto::forecast_body(
                    sensor,
                    horizon,
                    REPLAY_VERSION,
                    self.window_fp,
                    label,
                    &values,
                );
                http::write_response(
                    &mut out,
                    200,
                    "OK",
                    "application/json",
                    &body,
                    req.keep_alive,
                );
            });
            out
        })
        .0
    }
}

/// Durations in nanoseconds of every span named `name`.
fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect()
}

/// Replay the mix's request stream, then a short tail that visits
/// every stage often enough to time it whatever the mix.
fn replay(w: &Walk, tr: &mut Tracer, report: &mut Report) -> io::Result<f64> {
    let Walk {
        subject,
        model,
        mix,
        seed,
        budget,
        ..
    } = w;
    let (mix, seed) = (*mix, *seed);
    let dims = subject.dims();
    let session = InferSession::new(model).map_err(other)?;
    // The mirror only generates the stream here; nothing is verified
    // against it, so the oracle holds no sessions.
    let mut oracle = Oracle::new(dims);
    let mut mirror = Mirror::new(dims, seed, &mut oracle);
    let mut rp = Replayer {
        dims,
        session: &session,
        cache: ForecastCache::new(16, std::time::Duration::from_secs(600)),
        window: vec![0.0; dims.window_len()],
        window_fp: fingerprint_f32(&vec![0.0; dims.window_len()]),
        memo: None,
        hits: 0,
        lookups: 0,
    };
    // Fill the window and the cache before the timed stream, as the
    // workload's set-up does on the real server.
    let mut setup_tr = Tracer::new();
    for _ in 0..dims.h {
        rp.handle(&mut setup_tr, 0, &mirror.observe(&mut oracle));
    }
    if mix == Mix::Read {
        for k in 0..(dims.n * dims.u) as u64 {
            let (sensor, horizon) = rotation(k, dims);
            rp.handle(&mut setup_tr, 0, &get_forecast(sensor, horizon));
        }
    }
    (rp.hits, rp.lookups) = (0, 0);
    let replay_start = tr.spans().len();
    stwa_observe::reset();
    stwa_observe::set_enabled(true);

    // Segment 1: the mix as the workload sends it. For `Read`, one
    // whole observation period with the observation in its middle.
    let observe_every = match mix {
        Mix::Read => crate::serve::OBSERVE_EVERY,
        Mix::Write => 2,
    };
    let max_requests = match mix {
        Mix::Read => budget.count(crate::serve::OBSERVE_EVERY as usize),
        Mix::Write => budget.count(600),
    };
    let started = Instant::now();
    let mut id = 0u64;
    let mut k = 0u64;
    while (id as usize) < max_requests && started.elapsed().as_secs_f64() < budget.seconds(3.0) {
        id += 1;
        if (id + observe_every / 2).is_multiple_of(observe_every) {
            rp.handle(tr, id, &mirror.observe(&mut oracle));
        } else {
            let (sensor, horizon) = rotation(k, dims);
            k += 1;
            rp.handle(tr, id, &get_forecast(sensor, horizon));
        }
    }
    let mix_end = tr.spans().len();
    let (mix_hits, mix_lookups) = (rp.hits, rp.lookups);

    // Segment 2: 32 observations, each followed by a miss that pays a
    // forward, a miss answered from the memo, and two hits.
    for round in 0..budget.count(32) as u64 {
        id += 1;
        rp.handle(tr, id, &mirror.observe(&mut oracle));
        for (sensor, horizon) in [rotation(round, dims), rotation(round + 1, dims)] {
            for _ in 0..2 {
                id += 1;
                rp.handle(tr, id, &get_forecast(sensor, horizon));
            }
        }
    }
    stwa_observe::set_enabled(false);
    report.check(
        "replayed window ends where the generated stream does",
        rp.window == mirror.window(),
    );

    // Stage times come from the whole replay, the mix's own figures
    // from its first segment. Spans refer to their parents by index, and
    // both slices hold whole requests, so each stands on its own.
    let replayed = &tr.spans()[replay_start..];
    let mix_spans = &tr.spans()[replay_start..mix_end];
    for (metric, span, per_unit, unit) in [
        ("serve.http_parse_get_ns", "http.parse_get", 1.0, "ns"),
        ("serve.proto_encode_ns", "proto.encode", 1.0, "ns"),
        ("serve.cache_get_ns", "cache.get", 1.0, "ns"),
        ("serve.http_parse_post_us", "http.parse_post", 1e3, "us"),
        (
            "serve.proto_parse_observe_us",
            "proto.parse_observe",
            1e3,
            "us",
        ),
        ("serve.fingerprint_ns", "cache.fingerprint", 1.0, "ns"),
        ("serve.cache_put_ns", "cache.put", 1.0, "ns"),
    ] {
        put_median(report, metric, &durations(replayed, span), per_unit, unit);
    }

    // What a forecast request costs when replayed, and how much of all
    // replayed time is the model evaluating.
    let selfs = self_times(mix_spans);
    let total_ns: u64 = ["request.forecast", "request.observe"]
        .iter()
        .filter_map(|name| selfs.get(name))
        .map(|t| t.total_ns)
        .sum();
    let eval_ns = selfs.get("infer.run").map_or(0, |t| t.self_ns);
    let eval_share = eval_ns as f64 / total_ns.max(1) as f64;
    report.put(
        "serve.replay_eval_share",
        eval_share,
        "ratio",
        mix_spans.len(),
    );
    report.put(
        "serve.replay_hit_ratio",
        mix_hits as f64 / mix_lookups.max(1) as f64,
        "ratio",
        mix_lookups as usize,
    );
    let forecasts = durations(mix_spans, "request.forecast");
    let replay_request_us = median(&forecasts) / 1e3;
    report.put(
        "serve.replay_request_us",
        replay_request_us,
        "us",
        forecasts.len(),
    );
    if budget.scale >= 1.0 {
        match mix {
            Mix::Read => report.check("read mix: eval <= 5% of replayed time", eval_share <= 0.05),
            Mix::Write => report.check(
                "write mix: eval >= 70% of replayed time",
                eval_share >= 0.70,
            ),
        }
    }
    engine_counters(report);
    Ok(replay_request_us)
}

/// What `stwa-observe` recorded inside the replayed evaluations: the
/// forward's own span tree as shares of `forward`, and pool and plan
/// counters per forward.
fn engine_counters(report: &mut Report) {
    let spans: BTreeMap<String, u64> = stwa_observe::Recorder::global()
        .snapshot()
        .into_iter()
        .map(|s| (s.path, s.total_ns))
        .collect();
    let total = |pred: &dyn Fn(&str) -> bool| -> f64 {
        spans
            .iter()
            .filter(|(p, _)| pred(p))
            .map(|(_, ns)| *ns as f64)
            .sum()
    };
    let forward = total(&|p| p == "forward").max(1.0);
    let layer = |p: &str| {
        p.strip_prefix("forward/wa_layer")
            .is_some_and(|r| !r.contains('/'))
    };
    let sca = total(&|p| p.starts_with("forward/wa_layer") && p.ends_with("/sensor_attention"));
    let n = spans.len();
    report.put(
        "core.fwd.decoder_share",
        total(&|p| p == "forward/generator/decoder") / forward,
        "ratio",
        n,
    );
    report.put(
        "core.fwd.latent_share",
        total(&|p| p == "forward/generator/latent") / forward,
        "ratio",
        n,
    );
    report.put(
        "core.fwd.wa_share",
        (total(&layer) - sca) / forward,
        "ratio",
        n,
    );
    report.put("core.fwd.sca_share", sca / forward, "ratio", n);
    report.put(
        "core.fwd.predictor_share",
        total(&|p| p == "forward/predictor") / forward,
        "ratio",
        n,
    );

    let counters: BTreeMap<String, u64> = stwa_observe::counters_snapshot().into_iter().collect();
    let count = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    let forwards = count("infer.forwards").max(1.0);
    report.put(
        "pool.tasks_per_forward",
        count("pool.tasks") / forwards,
        "count",
        forwards as usize,
    );
    report.put(
        "pool.dispatches_per_forward",
        count("pool.dispatches") / forwards,
        "count",
        forwards as usize,
    );
    let plans = count("infer.plan_hits") + count("infer.plan_misses");
    report.put(
        "infer.plan_miss_share",
        count("infer.plan_misses") / plans.max(1.0),
        "ratio",
        plans as usize,
    );
}

// ---------------------------------------------------------------------
// Socket probe
// ---------------------------------------------------------------------

/// One fresh server on the subject's registry: depth-1 round trips of
/// the mix (their median is what a lone client sees), then three hot
/// swaps, each followed by a forecast checked against the new version.
fn socket_probe(w: &Walk, report: &mut Report) -> io::Result<f64> {
    let Walk {
        subject,
        model,
        scratch,
        registry,
        mix,
        seed,
        budget,
    } = w;
    let (mix, seed) = (*mix, *seed);
    let dims = subject.dims();
    let latest = registry.latest(subject.name).map_err(other)? as u64;
    // The latest version holds `model`'s weights: the checkpoint probe
    // published them.
    let mut oracle = Oracle::new(dims);
    oracle.add_version(latest, InferSession::new(model).map_err(other)?);
    let builder = Subject::clone(subject);
    let server = Server::start(serve_config(scratch, subject), move || Ok(builder.build(0)))?;
    let mut mirror = Mirror::new(dims, seed ^ 0x50C, &mut oracle);
    let mut conn = Conn::connect(server.addr())?;
    for _ in 0..dims.h {
        conn.call(&mirror.observe(&mut oracle))?;
    }
    let base = server_stats(&server)?;

    let started = Instant::now();
    let mut trips_us = Vec::new();
    let mut k = 0u64;
    let max_trips = budget.count(match mix {
        Mix::Read => 4000,
        Mix::Write => 400,
    });
    while trips_us.len() < 3
        || (trips_us.len() < max_trips && started.elapsed().as_secs_f64() < budget.seconds(1.5))
    {
        // Read repeats one query, so all but the first trip hit.
        let (sensor, horizon) = match mix {
            Mix::Read => (0, dims.u as u32),
            Mix::Write => rotation(k, dims),
        };
        if mix == Mix::Write {
            conn.call(&mirror.observe(&mut oracle))?;
        }
        let t0 = Instant::now();
        let resp = conn.call(&get_forecast(sensor, horizon))?;
        trips_us.push(t0.elapsed().as_secs_f64() * 1e6);
        report.attempted += 1;
        if resp.status != 200
            || (k.is_multiple_of(64) && !oracle.verify(&resp.body, sensor, horizon))
        {
            report.fail(1, "socket probe: bad forecast response");
        }
        k += 1;
    }
    let socket_p50 = median(&trips_us);
    report.put("serve.socket_p50_us", socket_p50, "us", trips_us.len());
    let probed = server_stats(&server)?.since(&base);
    report.put(
        "serve.forecasts_per_eval",
        probed.forecasts_per_eval(),
        "ratio",
        probed.evals as usize,
    );

    let mut swap_ms = Vec::new();
    for i in 1..=3u64 {
        let (version, swapped_in) = subject.publish(registry, weights_seed(latest + i));
        oracle.add_version(
            version as u64,
            InferSession::new(&swapped_in).map_err(other)?,
        );
        let t0 = Instant::now();
        let ack = conn.call(&post("/admin/swap", b""))?;
        swap_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let resp = conn.call(&get_forecast(0, dims.u as u32))?;
        report.check(
            "swap acknowledged and the next forecast is the new version's, bitwise",
            ack.status == 200
                && server.version() == version as u64
                && resp.status == 200
                && oracle.verify(&resp.body, 0, dims.u as u32),
        );
    }
    report.put("serve.swap_ms", median(&swap_ms), "ms", swap_ms.len());
    let stats = server_stats(&server)?;
    report.check("socket probe: no swap errors", stats.swap_errors == 0.0);
    drop(conn);
    let (requests, responses) = server.traffic();
    server.shutdown();
    report.check(
        "socket probe: every request answered",
        requests == responses,
    );
    report.fail(
        oracle.mismatches,
        "socket probe: body differs from direct evaluation",
    );
    Ok(socket_p50)
}

// ---------------------------------------------------------------------
// Engine, training-step, kernel, checkpoint and data probes
// ---------------------------------------------------------------------

/// Windows per training-step probe batch: 32 for the 20-sensor model,
/// falling to 1 at city scale, so a step stays tens of milliseconds.
fn step_batch(dims: Dims) -> usize {
    (640 / dims.n).clamp(1, 32)
}

fn infer_probes(w: &Walk, report: &mut Report) -> io::Result<()> {
    let Walk {
        subject,
        model,
        registry,
        budget,
        ..
    } = w;
    let dims = subject.dims();
    let mut rng = StdRng::seed_from_u64(7);
    let per = budget.seconds(0.4);

    let freeze_ns = sample_ns(per, || {
        std::hint::black_box(FrozenStwa::freeze(model).expect("freeze"));
    });
    put_median(report, "infer.freeze_ms", &freeze_ns, 1e6, "ms");
    let scratch_model = subject.build(0);
    let registry_ns = sample_ns(per, || {
        std::hint::black_box(
            FrozenStwa::freeze_from_registry(&scratch_model, registry, subject.name, None)
                .expect("freeze from registry"),
        );
    });
    put_median(
        report,
        "infer.freeze_from_registry_ms",
        &registry_ns,
        1e6,
        "ms",
    );

    let session = InferSession::new(model).map_err(other)?;
    report.put(
        "infer.packed_mib",
        session.frozen().packed_bytes() as f64 / (1024.0 * 1024.0),
        "MiB",
        1,
    );
    let x1 = Tensor::randn(&[1, dims.n, dims.h, dims.f], &mut rng);
    let b1 = sample_ns(per, || {
        std::hint::black_box(session.run(&x1).expect("run b1"));
    });
    put_median(report, "infer.run_b1_us", &b1, 1e3, "us");

    let x8 = Tensor::randn(&[8, dims.n, dims.h, dims.f], &mut rng);
    let b8 = sample_ns(per, || {
        std::hint::black_box(session.run(&x8).expect("run b8"));
    });
    put_median(report, "infer.run_b8_us", &b8, 1e3, "us");
    let int8 = InferSession::new_at(model, Precision::Int8).map_err(other)?;
    let b8q = sample_ns(per, || {
        std::hint::black_box(int8.run(&x8).expect("run b8 int8"));
    });
    put_median(report, "infer.run_b8_int8_us", &b8q, 1e3, "us");
    let exact = session.run(&x8).map_err(other)?;
    let quant = int8.run(&x8).map_err(other)?;
    let delta: f64 = exact
        .data()
        .iter()
        .zip(quant.data())
        .map(|(a, b)| (a - b).abs() as f64)
        .sum::<f64>()
        / exact.data().len() as f64;
    report.put("infer.int8_mae_delta", delta, "norm", exact.data().len());
    report.check("int8 forecasts are finite", delta.is_finite());

    let generator = model.generator().expect("ST-aware model has a generator");
    let gen_ns = sample_ns(per, || {
        std::hint::black_box(generator.generate_nograd(&x1).expect("generate"));
    });
    put_median(report, "core.generate_nograd_us", &gen_ns, 1e3, "us");

    // The graph-path forward counts every GEMM it issues (the frozen
    // path's lean kernels skip the counter), and both run the same
    // products: an exact operation count for one batch-1 forward.
    stwa_observe::reset();
    stwa_observe::set_enabled(true);
    let graph_out = model.forward_nograd(&x1).map_err(other)?;
    stwa_observe::set_enabled(false);
    let flops = stwa_observe::counter("matmul.flops").get();
    report.put("tensor.gemm_flops_per_forward", flops as f64, "count", 1);
    let frozen_out = session.run(&x1).map_err(other)?;
    let same = graph_out
        .data()
        .iter()
        .zip(frozen_out.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    report.check("frozen forward is bitwise the graph-path forward", same);
    Ok(())
}

/// One hand-rolled optimisation step (the body of
/// `Trainer::train_step`), each phase timed on its own.
fn step_probes(subject: &Subject, budget: &Budget, report: &mut Report) -> io::Result<()> {
    let dims = subject.dims();
    let batch = step_batch(dims);
    let mut rng = StdRng::seed_from_u64(11);
    let model = subject.build(weights_seed(1));
    let mut opt = Adam::new(model.store(), 1e-3);
    let bx = Tensor::randn(&[batch, dims.n, dims.h, dims.f], &mut rng);
    let by = Tensor::randn(&[batch, dims.n, dims.u, dims.f], &mut rng);
    let (mut fwd, mut loss_ns, mut bwd, mut adam) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut tape_nodes = 0usize;
    let mut step = |timed: bool| -> io::Result<()> {
        let graph = Graph::new();
        let x = graph.constant(bx.clone());
        let target = graph.constant(by.clone());
        let t0 = Instant::now();
        let out = model.forward(&graph, &x, &mut rng, true).map_err(other)?;
        let t1 = Instant::now();
        let mut loss = huber(&out.pred, &target, 1.0).map_err(other)?;
        let t2 = Instant::now();
        if let Some(reg) = out.regularizer {
            loss = loss.add(&reg).map_err(other)?;
        }
        tape_nodes = graph.len();
        let t3 = Instant::now();
        graph.backward(&loss).map_err(other)?;
        let t4 = Instant::now();
        opt.step();
        opt.finish_step();
        let t5 = Instant::now();
        if timed {
            fwd.push((t1 - t0).as_nanos() as f64);
            loss_ns.push((t2 - t1).as_nanos() as f64);
            bwd.push((t4 - t3).as_nanos() as f64);
            adam.push((t5 - t4).as_nanos() as f64);
        }
        Ok(())
    };
    for _ in 0..3 {
        step(false)?;
    }
    memory::reset_peak();
    stwa_observe::reset();
    stwa_observe::set_enabled(true);
    let before = memory::pool_stats();
    let started = Instant::now();
    let mut steps = 0usize;
    while steps < 3 || (started.elapsed().as_secs_f64() < budget.seconds(1.5) && steps < 200) {
        step(true)?;
        steps += 1;
    }
    stwa_observe::set_enabled(false);
    let after = memory::pool_stats();
    put_median(report, "core.step.forward_ms", &fwd, 1e6, "ms");
    put_median(report, "nn.huber_us", &loss_ns, 1e3, "us");
    put_median(report, "autograd.backward_ms", &bwd, 1e6, "ms");
    put_median(report, "nn.adam_step_ms", &adam, 1e6, "ms");
    report.put("autograd.tape_nodes", tape_nodes as f64, "count", 1);
    let heap = (after.heap_allocs - before.heap_allocs) as f64;
    let (hits, misses) = (
        (after.hits - before.hits) as f64,
        (after.misses - before.misses) as f64,
    );
    report.put(
        "tensor.heap_allocs_per_step",
        heap / steps as f64,
        "count",
        steps,
    );
    report.put(
        "tensor.pool_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        steps,
    );
    report.put(
        "tensor.peak_tracked_mib",
        memory::peak_bytes() as f64 / (1024.0 * 1024.0),
        "MiB",
        steps,
    );

    let split = SplitTensors {
        x: Tensor::randn(&[4 * batch, dims.n, dims.h, dims.f], &mut rng),
        y: Tensor::randn(&[4 * batch, dims.n, dims.u, dims.f], &mut rng),
    };
    let scaler = Scaler {
        mean: 0.0,
        std: 1.0,
    };
    let trainer = Trainer::new(TrainConfig {
        batch_size: batch,
        ..TrainConfig::default()
    });
    let eval_ns = sample_ns(budget.seconds(0.5), || {
        std::hint::black_box(
            trainer
                .evaluate(&model, &split, &scaler, &mut rng)
                .expect("evaluate"),
        );
    });
    put_median(report, "core.evaluate_ms", &eval_ns, 1e6, "ms");
    Ok(())
}

fn kernel_probes(subject: &Subject, budget: &Budget, report: &mut Report) -> io::Result<()> {
    let cfg = &subject.config;
    let mut rng = StdRng::seed_from_u64(13);
    let per = budget.seconds(0.3);

    // The host's GEMM rate, to tell a slower machine from slower code.
    let a = Tensor::randn(&[512, 512], &mut rng);
    let b = Tensor::randn(&[512, 512], &mut rng);
    let ns = sample_ns(per, || {
        std::hint::black_box(linalg::matmul(&a, &b).expect("matmul"));
    });
    report.put(
        "tensor.gemm_512_gflops",
        2.0 * 512f64.powi(3) / median(&ns),
        "GFLOP/s",
        ns.len(),
    );

    // The decoder's widest product: every sensor's hidden row against
    // the output layer that emits one layer's K and V projections.
    let (m, k, n) = (cfg.n, cfg.decoder_hidden.1, 2 * cfg.d * cfg.d);
    let rows = Tensor::randn(&[m, k], &mut rng);
    let weight = Tensor::randn(&[k, n], &mut rng);
    let ops = 2.0 * (m * k * n) as f64;
    let packed = PackedMatrix::pack(&weight).map_err(other)?;
    let ns = sample_ns(per, || {
        std::hint::black_box(linalg::matmul_packed_lean(&rows, &packed).expect("packed matmul"));
    });
    report.put(
        "tensor.gemm_packed_decoder_gflops",
        ops / median(&ns),
        "GFLOP/s",
        ns.len(),
    );
    let packed8 = PackedMatrixInt8::pack(&weight).map_err(other)?;
    let ns = sample_ns(per, || {
        std::hint::black_box(matmul_packed_int8_lean(&rows, &packed8).expect("int8 matmul"));
    });
    report.put(
        "tensor.gemm_int8_decoder_gops",
        ops / median(&ns),
        "GOP/s",
        ns.len(),
    );

    let source: Vec<f32> = (0..65_536).map(|i| -((i % 4096) as f32) / 1024.0).collect();
    let mut buf = source.clone();
    let ns = sample_ns(per, || {
        buf.copy_from_slice(&source);
        mathfn::exp_slice(&mut buf);
        std::hint::black_box(&buf);
    });
    report.put(
        "tensor.exp_ns_per_elem",
        median(&ns) / source.len() as f64,
        "ns",
        ns.len(),
    );

    // Sensor-correlation attention through the sparse kernel, on the
    // model's own graph (the complete graph for a dense-attention model).
    let graph = match &cfg.sensor_graph {
        Some(g) => Arc::clone(g),
        None => Arc::new(SensorGraph::complete(cfg.n)),
    };
    let q = Tensor::randn(&[1, cfg.n, cfg.d], &mut rng);
    let kk = Tensor::randn(&[1, cfg.n, cfg.d], &mut rng);
    let h = Tensor::randn(&[1, cfg.n, cfg.d], &mut rng);
    let scale = 1.0 / (cfg.d as f32).sqrt();
    let ns = sample_ns(per, || {
        std::hint::black_box(
            sparse::sparse_attention_forward(&q, &kk, &h, &graph, scale).expect("sparse attention"),
        );
    });
    put_median(report, "tensor.sparse_attn_us", &ns, 1e3, "us");
    Ok(())
}

fn ckpt_probes(w: &Walk, report: &mut Report) -> io::Result<()> {
    let Walk {
        subject,
        model,
        registry,
        budget,
        ..
    } = w;
    let ckpt = TrainCheckpoint::params_only(subject.name, model.store());
    let mut publish_ns = Vec::new();
    let mut version = 0;
    for _ in 0..budget.count(5) {
        let t0 = Instant::now();
        version = registry.publish(subject.name, &ckpt).map_err(other)?;
        publish_ns.push(t0.elapsed().as_nanos() as f64);
    }
    put_median(report, "ckpt.publish_ms", &publish_ns, 1e6, "ms");
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(registry.version_dir(subject.name, version))? {
        bytes += entry?.metadata()?.len();
    }
    report.put("ckpt.bytes_per_save", bytes as f64, "count", 1);
    let load_ns = sample_ns(budget.seconds(0.3), || {
        std::hint::black_box(registry.load(subject.name, None).expect("load"));
    });
    put_median(report, "ckpt.load_ms", &load_ns, 1e6, "ms");
    let loaded = registry.load(subject.name, None).map_err(other)?;
    let round_trip = loaded.params.len() == ckpt.params.len()
        && loaded.params.iter().zip(&ckpt.params).all(|(a, b)| {
            a.name == b.name
                && a.data
                    .iter()
                    .zip(&b.data)
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        });
    report.check("checkpoint round trip is bitwise", round_trip);
    Ok(())
}

fn traffic_probes(subject: &Subject, budget: &Budget, report: &mut Report) -> io::Result<()> {
    let dims = subject.dims();
    let per_corridor = [8, 6, 5]
        .into_iter()
        .find(|p| dims.n.is_multiple_of(*p))
        .unwrap_or(1);
    let config = DatasetConfig {
        name: "LEDGER".to_string(),
        num_corridors: dims.n / per_corridor,
        sensors_per_corridor: per_corridor,
        generator: GeneratorConfig {
            days: 2,
            ..GeneratorConfig::default()
        },
        seed: 3000,
    };
    let generate_ns = sample_ns(budget.seconds(0.3), || {
        std::hint::black_box(TrafficDataset::generate(config.clone()));
    });
    put_median(report, "traffic.generate_ms", &generate_ns, 1e6, "ms");
    let dataset = TrafficDataset::generate(config.clone());
    let windows_ns = sample_ns(budget.seconds(0.3), || {
        std::hint::black_box(dataset.train(dims.h, dims.u, 1).expect("windows"));
    });
    put_median(report, "traffic.windows_ms", &windows_ns, 1e6, "ms");
    Ok(())
}

/// Walk the ledger for `subject` under `mix`, adding every per-layer
/// metric to `report` and every replayed span to `tr`.
pub fn walk(
    subject: &Subject,
    mix: Mix,
    seed: u64,
    budget: &Budget,
    tr: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let scratch = Scratch::new(&format!("{}-ledger", report.workload));
    let registry = Registry::open(scratch.path()).map_err(other)?;
    let w = Walk {
        subject,
        model: subject.build(weights_seed(1)),
        scratch,
        registry,
        mix,
        seed,
        budget,
    };
    ckpt_probes(&w, report)?;
    let replay_us = replay(&w, tr, report)?;
    let socket_us = socket_probe(&w, report)?;
    // What is left of a lone client's round trip once every replayed
    // function call is taken out: system calls, wake-ups, channel hops
    // and queue waits inside the server, plus the client's own socket
    // work. The two terms sum to the socket figure by construction.
    report.put("serve.residual_us", socket_us - replay_us, "us", 1);
    infer_probes(&w, report)?;
    step_probes(subject, budget, report)?;
    kernel_probes(subject, budget, report)?;
    traffic_probes(subject, budget, report)?;

    Ok(())
}
