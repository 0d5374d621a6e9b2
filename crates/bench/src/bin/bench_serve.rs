//! Serving front-end harness: a real `stwa-serve` server on a loopback
//! socket under a million-request pipelined load, with a registry hot
//! swap in the middle of it.
//!
//! Five phases:
//!
//! 1. **Correctness** — fill the rolling window over the wire, then
//!    query every sensor x horizon and assert each served forecast is
//!    bitwise equal to a direct `InferSession` evaluation of the same
//!    window. The wire (JSON f64 round trip) must be lossless.
//! 2. **Closed-loop latency** — sequential round trips measuring the
//!    cache-hit path (worker-side, no model thread) against the
//!    cache-miss path (full forward on the model thread), plus the
//!    direct in-process evaluation as the floor. The hit/miss p50
//!    ratio is a hard gate: below [`MIN_HIT_SPEEDUP`] the cache is not
//!    paying for itself.
//! 3. **Load** — at least [`MIN_REQUESTS`] pipelined requests over
//!    several keep-alive connections, rotating sensors/horizons with
//!    periodic observations. Mid-run, a new model version is published
//!    to the registry and hot-swapped in. Every request must get a
//!    response (zero drops), every response must be 200, and sampled
//!    responses — before, during, and after the swap — are verified
//!    bitwise against the version and window fingerprint they declare.
//! 4. **Replica scaling** — pure cache-miss throughput (every forecast
//!    follows a fresh observation, so every one pays a full forward) at
//!    1, 2, and 4 model replicas, plus a separate 4-replica run that
//!    hot-swaps mid-load (kept out of the timing runs because the
//!    swap's per-replica freezes overlap on real cores but serialize
//!    on small containers). The 4-vs-1 ratio is gated by a
//!    host-adaptive floor: near-linear (>= 2.5x) on >= 4-core hosts, a
//!    pathology guard on smaller containers where the replicas time-
//!    slice one core.
//! 5. **Report** — rows/sec, latency percentiles, cache hit rate,
//!    replica scaling, and swap counts into `BENCH_serve.json`, plus an
//!    `stwa-observe` run manifest (per-replica eval counters, per-
//!    worker connection counters, swap latency gauge) showing where
//!    time went. `--check` gates the same-run ratios (hit speedup,
//!    miss efficiency, hit rate, replica scaling) against the
//!    checked-in baseline with 15% tolerance; the absolute floors
//!    (request count, zero errors, zero drops, one swap) always apply.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_infer::InferSession;
use stwa_serve::cache::fingerprint_f32;
use stwa_serve::{proto, Client, ServeConfig, Server};
use stwa_tensor::Tensor;

/// Allowed relative loss of a baseline ratio before `--check` fails.
const REGRESSION_TOLERANCE: f64 = 0.15;
/// Hard floor: the load phase must push at least this many requests.
const MIN_REQUESTS: u64 = 1_000_000;
/// Hard floor: cached-hit p50 must beat cache-miss p50 by this factor.
const MIN_HIT_SPEEDUP: f64 = 10.0;

/// Serving-scale model (the `bench_infer` quant section's dims): wide
/// enough that a cache miss pays a real forward, which is exactly the
/// contrast the hit/miss gate measures.
const SENSORS: usize = 48;
const HISTORY: usize = 12;
const HORIZON: usize = 3;

const MODEL_NAME: &str = "ST-WA";
const V1_SEED: u64 = 42;
const V2_SEED: u64 = 99;

/// Load-phase shape: `CONNS` keep-alive connections, each pipelined
/// `DEPTH` deep, observing a fresh frame every `OBSERVE_EVERY`
/// requests and bitwise-verifying every `VERIFY_EVERY`-th response.
const CONNS: usize = 4;
const DEPTH: usize = 64;
const OBSERVE_EVERY: u64 = 5_000;
const VERIFY_EVERY: u64 = 4_096;

/// Replica-scaling phase: pool sizes measured, rounds of
/// (observe, forecast) pairs per run, pipeline depth in pairs, and the
/// bitwise-verification sampling stride.
const SCALE_REPLICAS: [usize; 3] = [1, 2, 4];
const SCALE_ROUNDS: u64 = 160;
const SCALE_DEPTH_PAIRS: usize = 8;
const SCALE_VERIFY_EVERY: u64 = 32;

/// Absolute floor on 4-replica-vs-1 miss throughput as a function of
/// core count: near-linear scaling where the cores exist, a pathology
/// guard (the pool must not make a small host dramatically slower)
/// where they don't. Mirrors `bench_epoch`'s host-adaptive idiom.
fn scaling_floor(cores: usize) -> f64 {
    if cores >= 4 {
        2.5
    } else if cores >= 2 {
        1.1
    } else {
        // One core: 4 replicas time-slice it, so all the floor can
        // catch is outright pathology (serialization collapse or a
        // stalled dispatcher), not scheduler overhead.
        0.25
    }
}

fn serving_config() -> StwaConfig {
    let mut cfg = StwaConfig::st_wa(SENSORS, HISTORY, HORIZON);
    cfg.d = 32;
    cfg.heads = 8;
    cfg.k = 32;
    cfg.predictor_hidden = 512;
    cfg.decoder_hidden = (64, 128);
    cfg
}

fn model(seed: u64) -> StwaModel {
    let mut rng = StdRng::seed_from_u64(seed);
    StwaModel::new(serving_config(), &mut rng).expect("model")
}

fn frame(t: usize, n: usize, f: usize) -> Vec<f32> {
    // Mix (t, i) through a 64-bit hash so no two observation frames —
    // and hence no two rolling windows — ever repeat bitwise. (A
    // periodic generator would make the server legitimately serve
    // cache hits where the bench expects misses.)
    (0..n * f)
        .map(|i| {
            let x = (t as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            // Top 24 bits → exact f32 in [-1, 1).
            ((x >> 40) as f32 / (1u64 << 23) as f32) - 1.0
        })
        .collect()
}

fn apply_frame(window: &mut [f32], frame: &[f32], n: usize, h: usize, f: usize) {
    for s in 0..n {
        let row = &mut window[s * h * f..(s + 1) * h * f];
        row.copy_within(f.., 0);
        row[(h - 1) * f..].copy_from_slice(&frame[s * f..(s + 1) * f]);
    }
}

fn observe_body(frame: &[f32]) -> Vec<u8> {
    let items: Vec<String> = frame.iter().map(|v| format!("{}", *v as f64)).collect();
    format!("{{\"frame\": [{}]}}", items.join(", ")).into_bytes()
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 * q).ceil() as usize)
        .saturating_sub(1)
        .min(sorted_us.len() - 1);
    sorted_us[idx]
}

/// Ground truth oracle: direct in-process evaluation, memoized per
/// (version, window fingerprint) so repeated verifications of the same
/// window pay one forward.
struct Oracle {
    v1: InferSession,
    v2: InferSession,
    v1_version: u64,
    v2_version: u64,
    windows: HashMap<u64, Vec<f32>>,
    full: HashMap<(u64, u64), Vec<f32>>,
    n: usize,
    h: usize,
    f: usize,
    u: usize,
}

impl Oracle {
    fn register_window(&mut self, window: &[f32]) -> u64 {
        let fp = fingerprint_f32(window);
        self.windows.entry(fp).or_insert_with(|| window.to_vec());
        fp
    }

    /// Bitwise-expected values for (version, fp, sensor, horizon).
    fn expect(&mut self, version: u64, fp: u64, sensor: u32, horizon: u32) -> Vec<f32> {
        let full = self.full.entry((version, fp)).or_insert_with(|| {
            let window = self
                .windows
                .get(&fp)
                .unwrap_or_else(|| panic!("response declared unknown window fp {fp:016x}"));
            let session = if version == self.v1_version {
                &self.v1
            } else if version == self.v2_version {
                &self.v2
            } else {
                panic!("response declared unknown version {version}");
            };
            let x = Tensor::from_vec(window.clone(), &[1, self.n, self.h, self.f]).expect("x");
            session.run(&x).expect("direct eval").data().to_vec()
        });
        let start = sensor as usize * self.u * self.f;
        full[start..start + horizon as usize * self.f].to_vec()
    }

    /// Assert a served forecast body matches the direct evaluation of
    /// exactly the (version, window) it declares.
    fn verify(&mut self, body: &[u8], sensor: u32, horizon: u32, what: &str) {
        let text = std::str::from_utf8(body).expect("utf8 body");
        let doc = stwa_observe::parse_json(text).expect("json body");
        let version = doc
            .get("version")
            .and_then(|v| v.as_num())
            .unwrap_or_else(|| panic!("{what}: no version in {text}")) as u64;
        let fp = proto::parse_window_fp(body).unwrap_or_else(|e| panic!("{what}: {e}"));
        let got = proto::parse_forecast_values(body).unwrap_or_else(|e| panic!("{what}: {e}"));
        let want = self.expect(version, fp, sensor, horizon);
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: value {i} diverged ({a} vs {b}, version {version}, fp {fp:016x})"
            );
        }
    }
}

struct LoadResult {
    requests: u64,
    errors: u64,
    observes: u64,
    verified: u64,
    wall_s: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_load(
    addr: std::net::SocketAddr,
    oracle: &mut Oracle,
    registry: &Registry,
    server: &Server,
    window: &mut [f32],
    next_frame: &mut usize,
    total: u64,
) -> LoadResult {
    let (n, f, u) = (oracle.n, oracle.f, oracle.u);
    let mut clients: Vec<Client> = (0..CONNS)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    // (sensor, horizon) of every in-flight request per connection, or
    // None for an observe/admin request.
    let mut inflight: Vec<std::collections::VecDeque<Option<(u32, u32)>>> =
        (0..CONNS).map(|_| std::collections::VecDeque::new()).collect();

    let mut sent: u64 = 0;
    let mut received: u64 = 0;
    let mut errors: u64 = 0;
    let mut observes: u64 = 0;
    let mut verified: u64 = 0;
    let mut swap_sent = false;
    let mut rr = 0usize; // sensor/horizon rotation
    let t0 = Instant::now();

    while received < total {
        for (ci, client) in clients.iter_mut().enumerate() {
            // Top up the pipeline.
            while client.outstanding < DEPTH && sent < total {
                if sent > 0 && sent.is_multiple_of(OBSERVE_EVERY) && inflight[ci].iter().all(Option::is_some)
                {
                    // A fresh observation invalidates the window; the
                    // oracle learns the new fingerprint immediately.
                    let fr = frame(*next_frame, n, f);
                    *next_frame += 1;
                    apply_frame(window, &fr, n, oracle.h, f);
                    oracle.register_window(window);
                    client.send_post("/observe", &observe_body(&fr)).expect("send observe");
                    inflight[ci].push_back(None);
                    observes += 1;
                } else if !swap_sent && sent >= total / 2 {
                    // Mid-load hot swap: publish v2, force a poll.
                    registry
                        .publish(
                            MODEL_NAME,
                            &TrainCheckpoint::params_only(MODEL_NAME, model(V2_SEED).store()),
                        )
                        .expect("publish v2");
                    client.send_post("/admin/swap", b"").expect("send swap");
                    inflight[ci].push_back(None);
                    swap_sent = true;
                } else {
                    let sensor = (rr % n) as u32;
                    let horizon = (rr % u + 1) as u32;
                    rr = rr.wrapping_add(1);
                    client
                        .send_get(&format!("/forecast?sensor={sensor}&horizon={horizon}"))
                        .expect("send forecast");
                    inflight[ci].push_back(Some((sensor, horizon)));
                }
                sent += 1;
            }
            // Drain it.
            while client.outstanding > 0 {
                let resp = client.recv().expect("response lost (dropped request)");
                let tag = inflight[ci].pop_front().expect("bookkeeping");
                received += 1;
                if resp.status != 200 {
                    errors += 1;
                } else if let Some((sensor, horizon)) = tag {
                    if received.is_multiple_of(VERIFY_EVERY) {
                        // The swap publishes its new version before any
                        // v2-stamped response leaves, so the handle is
                        // authoritative by the time one arrives here.
                        if oracle.v2_version == 0 && server.version() != oracle.v1_version {
                            oracle.v2_version = server.version();
                        }
                        oracle.verify(&resp.body, sensor, horizon, "load sample");
                        verified += 1;
                    }
                }
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(sent, received, "every request must get a response");
    assert!(swap_sent, "the load must cover the hot swap");
    assert_eq!(server.swaps(), 1, "exactly one swap under load");
    LoadResult {
        requests: received,
        errors,
        observes,
        verified,
        wall_s,
    }
}

struct ScaleResult {
    replicas: usize,
    windows_per_s: f64,
    verified: u64,
}

/// One replica-scaling run: a fresh registry and server with
/// `replicas` model threads, driven by a single client pipelining
/// (observe, forecast) pairs [`SCALE_DEPTH_PAIRS`] deep. Every
/// observation invalidates the window, so every forecast is a
/// guaranteed cache miss — exactly one full forward per round on the
/// round's affinity replica — and the sensor rotation spreads
/// consecutive rounds across the pool. With
/// `swap_mid_run`, v2 is published and hot-swapped halfway through
/// under the same in-flight traffic.
///
/// Frames replay the phase-1 sequence from t=0, so the oracle's window
/// and forward memos are shared with the earlier phases.
fn run_replica_scale(replicas: usize, oracle: &mut Oracle, swap_mid_run: bool) -> ScaleResult {
    let (n, h, f, u) = (oracle.n, oracle.h, oracle.f, oracle.u);
    let root = std::env::temp_dir().join(format!(
        "stwa_bench_serve_scale{replicas}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).expect("scale registry");
    registry
        .publish(
            MODEL_NAME,
            &TrainCheckpoint::params_only(MODEL_NAME, model(V1_SEED).store()),
        )
        .expect("publish v1");
    let cfg = ServeConfig {
        io_threads: 2,
        model_threads: replicas,
        ttl: Duration::from_secs(600),
        // Swaps are admin-triggered here so each run is deterministic.
        registry_poll: Duration::from_secs(60),
        registry: Some((root.clone(), MODEL_NAME.to_string())),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, || Ok(model(V1_SEED))).expect("scale server");
    assert_eq!(server.replicas(), replicas);
    let mut client = Client::connect(server.addr()).expect("connect");

    let mut window = vec![0.0f32; n * h * f];
    oracle.register_window(&window);
    // (sensor, horizon) per in-flight forecast; None for observe/swap.
    let mut inflight: std::collections::VecDeque<Option<(u32, u32)>> =
        std::collections::VecDeque::new();
    let mut sent_rounds: u64 = 0;
    let mut answered: u64 = 0;
    let mut verified: u64 = 0;
    let mut errors: u64 = 0;
    let mut swap_sent = false;
    let t0 = Instant::now();
    while sent_rounds < SCALE_ROUNDS || client.outstanding > 0 {
        while client.outstanding < 2 * SCALE_DEPTH_PAIRS && sent_rounds < SCALE_ROUNDS {
            if swap_mid_run && !swap_sent && sent_rounds == SCALE_ROUNDS / 2 {
                registry
                    .publish(
                        MODEL_NAME,
                        &TrainCheckpoint::params_only(MODEL_NAME, model(V2_SEED).store()),
                    )
                    .expect("publish v2");
                client.send_post("/admin/swap", b"").expect("send swap");
                inflight.push_back(None);
                swap_sent = true;
            }
            let fr = frame(sent_rounds as usize, n, f);
            apply_frame(&mut window, &fr, n, h, f);
            oracle.register_window(&window);
            client
                .send_post("/observe", &observe_body(&fr))
                .expect("send observe");
            inflight.push_back(None);
            // The sensor rotation rotates the affinity replica too, so
            // consecutive windows evaluate on different replicas.
            let sensor = (sent_rounds % n as u64) as u32;
            client
                .send_get(&format!("/forecast?sensor={sensor}&horizon={u}"))
                .expect("send forecast");
            inflight.push_back(Some((sensor, u as u32)));
            sent_rounds += 1;
        }
        let resp = client.recv().expect("response lost (dropped request)");
        let tag = inflight.pop_front().expect("bookkeeping");
        if resp.status != 200 {
            errors += 1;
        } else if let Some((sensor, horizon)) = tag {
            answered += 1;
            if answered.is_multiple_of(SCALE_VERIFY_EVERY) {
                oracle.verify(&resp.body, sensor, horizon, "scale sample");
                verified += 1;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(errors, 0, "scale run saw non-200 responses");
    assert_eq!(answered, SCALE_ROUNDS, "every forecast must be answered");
    if swap_mid_run {
        assert_eq!(server.swaps(), 1, "scale run must complete exactly one swap");
    } else {
        assert_eq!(server.swaps(), 0);
    }

    // The pool must actually have spread the work: with the sensor
    // rotation and no spill pressure, every replica owns rounds.
    let stats = client.get("/stats").expect("stats");
    let doc = stwa_observe::parse_json(std::str::from_utf8(&stats.body).expect("utf8"))
        .expect("stats json");
    let evals: Vec<f64> = doc
        .get("replica_evals")
        .and_then(|v| v.as_arr())
        .expect("replica_evals")
        .iter()
        .map(|v| v.as_num().expect("eval count"))
        .collect();
    assert_eq!(evals.len(), replicas);
    assert!(
        evals.iter().all(|&e| e > 0.0),
        "idle replica in scale run: {evals:?}"
    );
    let swap_errors = doc.get("swap_errors").and_then(|v| v.as_num()).unwrap_or(0.0);
    assert_eq!(swap_errors, 0.0, "scale run saw swap errors");

    drop(client);
    let (requests_total, responses_total) = server.traffic();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    assert_eq!(requests_total, responses_total, "scale run dropped requests");
    ScaleResult {
        replicas,
        windows_per_s: SCALE_ROUNDS as f64 / wall_s,
        verified,
    }
}

fn render_json(fields: &[(&str, f64)]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&stwa_bench::host::json_fields());
    for (i, (key, val)) in fields.iter().enumerate() {
        let sep = if i + 1 == fields.len() { "" } else { "," };
        if (val.fract() == 0.0) && val.abs() < 1e15 {
            s.push_str(&format!("  \"{key}\": {val:.0}{sep}\n"));
        } else {
            s.push_str(&format!("  \"{key}\": {val:.6}{sep}\n"));
        }
    }
    s.push_str("}\n");
    s
}

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
    let mut out_path = "BENCH_serve.json".to_string();
    let mut check_path: Option<String> = None;
    let mut requests_target = MIN_REQUESTS;
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
            "--requests" => {
                requests_target = args
                    .get(i + 1)
                    .expect("--requests needs a count")
                    .parse()
                    .expect("request count");
                i += 2;
            }
            other => {
                eprintln!(
                    "unknown flag {other}; usage: bench_serve [--out PATH | --check PATH | --requests N]"
                );
                std::process::exit(2);
            }
        }
    }

    // Record counters/gauges so the run manifest can show where time
    // went (per-replica evals, per-worker conns, swap latency).
    stwa_observe::set_enabled(true);

    // Registry with v1 published; the server freezes from it.
    let root = std::env::temp_dir().join(format!("stwa_bench_serve_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).expect("registry");
    registry
        .publish(
            MODEL_NAME,
            &TrainCheckpoint::params_only(MODEL_NAME, model(V1_SEED).store()),
        )
        .expect("publish v1");

    let cfg = ServeConfig {
        io_threads: 2,
        ttl: Duration::from_secs(600),
        registry_poll: Duration::from_millis(100),
        registry: Some((root.clone(), MODEL_NAME.to_string())),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, || Ok(model(V1_SEED))).expect("server");
    let dims = server.dims();
    let (n, h, u, f) = (dims.sensors, dims.history, dims.horizon, dims.features);
    let mut oracle = Oracle {
        v1: InferSession::new(&model(V1_SEED)).expect("v1 session"),
        v2: InferSession::new(&model(V2_SEED)).expect("v2 session"),
        v1_version: server.version(),
        v2_version: 0, // learned after the swap
        windows: HashMap::new(),
        full: HashMap::new(),
        n,
        h,
        f,
        u,
    };

    // ---- Phase 1: correctness over the wire -----------------------------
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut window = vec![0.0f32; n * h * f];
    oracle.register_window(&window);
    let mut next_frame = 0usize;
    for _ in 0..h {
        let fr = frame(next_frame, n, f);
        next_frame += 1;
        apply_frame(&mut window, &fr, n, h, f);
        let resp = client.post("/observe", &observe_body(&fr)).expect("observe");
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    }
    let fp = oracle.register_window(&window);
    let ack_fp = proto::parse_window_fp(
        &client.post("/observe", &observe_body(&frame(next_frame, n, f))).map(|r| r.body).expect("observe"),
    )
    .expect("ack fp");
    // That extra observe moved the window; mirror it.
    apply_frame(&mut window, &frame(next_frame, n, f), n, h, f);
    next_frame += 1;
    assert_eq!(
        ack_fp,
        oracle.register_window(&window),
        "server window diverged from the client-side mirror (was {fp:016x})"
    );
    for sensor in 0..n as u32 {
        for horizon in 1..=u as u32 {
            let resp = client
                .get(&format!("/forecast?sensor={sensor}&horizon={horizon}"))
                .expect("forecast");
            assert_eq!(resp.status, 200);
            oracle.verify(&resp.body, sensor, horizon, "phase-1");
        }
    }
    let phase1 = n as u32 * u as u32;
    println!("phase 1: {phase1} forecasts verified bitwise against direct eval");

    // ---- Phase 2: closed-loop hit/miss/direct latency -------------------
    const LAT_ITERS: usize = 200;
    const MISS_ITERS: usize = 40;
    // Hits: repeat one warmed query.
    let warm = client.get("/forecast?sensor=0&horizon=3").expect("warm");
    assert_eq!(warm.status, 200);
    let mut hit_us = Vec::with_capacity(LAT_ITERS);
    let mut hits_seen = 0usize;
    for _ in 0..LAT_ITERS {
        let t0 = Instant::now();
        let resp = client.get("/forecast?sensor=0&horizon=3").expect("hit");
        hit_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if String::from_utf8_lossy(&resp.body).contains("\"hit\"") {
            hits_seen += 1;
        }
    }
    assert!(
        hits_seen * 10 >= LAT_ITERS * 9,
        "repeat queries must hit the cache ({hits_seen}/{LAT_ITERS} hits)"
    );
    // Misses: each observation invalidates the window, so the next
    // query pays a full forward on the model thread.
    let mut miss_us = Vec::with_capacity(MISS_ITERS);
    for _ in 0..MISS_ITERS {
        let fr = frame(next_frame, n, f);
        next_frame += 1;
        apply_frame(&mut window, &fr, n, h, f);
        oracle.register_window(&window);
        let resp = client.post("/observe", &observe_body(&fr)).expect("observe");
        assert_eq!(resp.status, 200);
        let t0 = Instant::now();
        let resp = client.get("/forecast?sensor=0&horizon=3").expect("miss");
        miss_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        assert!(
            body.contains("\"miss\""),
            "post-observe query must be a miss: {body}"
        );
        oracle.verify(&resp.body, 0, 3, "phase-2 miss");
    }
    // Direct in-process floor, same window each time (plan warmed).
    let x = Tensor::from_vec(window.clone(), &[1, n, h, f]).expect("x");
    let _ = oracle.v1.run(&x).expect("warm direct");
    let mut direct_us = Vec::with_capacity(MISS_ITERS);
    for _ in 0..MISS_ITERS {
        let t0 = Instant::now();
        std::hint::black_box(oracle.v1.run(&x).expect("direct"));
        direct_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    hit_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    miss_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    direct_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let hit_p50 = percentile(&hit_us, 0.50);
    let hit_p99 = percentile(&hit_us, 0.99);
    let miss_p50 = percentile(&miss_us, 0.50);
    let miss_p99 = percentile(&miss_us, 0.99);
    let direct_p50 = percentile(&direct_us, 0.50);
    let hit_speedup = miss_p50 / hit_p50;
    // Serving overhead ratio: direct eval over the miss round trip
    // (higher is better; 1.0 would mean the network layer is free).
    let miss_efficiency = direct_p50 / miss_p50;
    println!(
        "phase 2: hit p50 {hit_p50:.1} us (p99 {hit_p99:.1})  miss p50 {miss_p50:.1} us \
         (p99 {miss_p99:.1})  direct p50 {direct_p50:.1} us  hit speedup {hit_speedup:.1}x  \
         miss efficiency {miss_efficiency:.2}"
    );
    if hit_speedup < MIN_HIT_SPEEDUP {
        eprintln!(
            "REGRESSION: cached-hit p50 is only {hit_speedup:.1}x faster than a miss \
             (floor {MIN_HIT_SPEEDUP}x)"
        );
        std::process::exit(1);
    }

    // ---- Phase 3: million-request load with a mid-run hot swap ----------
    drop(client);
    let load = run_load(
        server.addr(),
        &mut oracle,
        &registry,
        &server,
        &mut window,
        &mut next_frame,
        requests_target,
    );
    oracle.v2_version = server.version();
    assert_ne!(oracle.v2_version, oracle.v1_version, "swap changed the version");
    let rps = load.requests as f64 / load.wall_s;
    println!(
        "phase 3: {} requests in {:.1} s ({:.0} req/s), {} observes, {} verified bitwise, \
         {} errors, swap at version {} -> {}",
        load.requests,
        load.wall_s,
        rps,
        load.observes,
        load.verified,
        load.errors,
        oracle.v1_version,
        oracle.v2_version,
    );
    if load.requests < requests_target {
        eprintln!("REGRESSION: only {} of {requests_target} requests served", load.requests);
        std::process::exit(1);
    }
    if load.errors > 0 {
        eprintln!("REGRESSION: {} non-200 responses under load", load.errors);
        std::process::exit(1);
    }

    // Post-swap correctness: fresh connection, fresh window, must be
    // served with v2 weights.
    let mut client = Client::connect(server.addr()).expect("connect post-swap");
    let fr = frame(next_frame, n, f);
    apply_frame(&mut window, &fr, n, h, f);
    oracle.register_window(&window);
    let resp = client.post("/observe", &observe_body(&fr)).expect("observe");
    assert_eq!(resp.status, 200);
    for sensor in [0u32, (n as u32) - 1] {
        let resp = client
            .get(&format!("/forecast?sensor={sensor}&horizon={u}"))
            .expect("post-swap forecast");
        assert_eq!(resp.status, 200);
        assert!(
            String::from_utf8_lossy(&resp.body).contains(&format!("\"version\":{}", oracle.v2_version)),
            "post-swap forecasts must come from v2"
        );
        oracle.verify(&resp.body, sensor, u as u32, "post-swap");
    }
    println!("post-swap forecasts verified bitwise against v2 direct eval");

    // Cache effectiveness over the whole run, from the server's own
    // counters (worker-side hits vs lookups).
    let stats = client.get("/stats").expect("stats");
    let doc = stwa_observe::parse_json(std::str::from_utf8(&stats.body).expect("utf8"))
        .expect("stats json");
    let num = |key: &str| doc.get(key).and_then(|v| v.as_num()).unwrap_or(0.0);
    let cache_hits = num("cache_hits");
    let cache_misses = num("cache_misses");
    let cache_hit_rate = cache_hits / (cache_hits + cache_misses).max(1.0);
    let swap_errors = num("swap_errors");
    println!(
        "cache hit rate {:.4} ({:.0} hits / {:.0} lookups), swaps {}, swap errors {:.0}",
        cache_hit_rate,
        cache_hits,
        cache_hits + cache_misses,
        server.swaps(),
        swap_errors,
    );
    if swap_errors > 0.0 {
        eprintln!("REGRESSION: {swap_errors} swap errors");
        std::process::exit(1);
    }

    let (requests_total, responses_total) = server.traffic();
    let swaps = server.swaps();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    // The stats request itself was answered, so after shutdown the
    // ledger must balance exactly: zero dropped requests.
    assert_eq!(
        requests_total, responses_total,
        "server parsed {requests_total} requests but sent {responses_total} responses"
    );

    // ---- Phase 4: replica scaling on pure cache-miss traffic ------------
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut scale: Vec<ScaleResult> = Vec::new();
    for &r in &SCALE_REPLICAS {
        let res = run_replica_scale(r, &mut oracle, false);
        println!(
            "phase 4: {} replica{} -> {:.1} miss-windows/s ({} verified bitwise)",
            res.replicas,
            if res.replicas == 1 { "" } else { "s" },
            res.windows_per_s,
            res.verified,
        );
        scale.push(res);
    }
    // Coordinated swap under full-pool pipelined miss traffic; timed
    // separately so the freezes don't pollute the scaling ratios.
    let max_replicas = *SCALE_REPLICAS.last().expect("non-empty");
    let swap_run = run_replica_scale(max_replicas, &mut oracle, true);
    println!(
        "phase 4: {} replicas + mid-run coordinated swap -> {:.1} miss-windows/s \
         ({} verified bitwise, 0 errors, 0 drops)",
        max_replicas, swap_run.windows_per_s, swap_run.verified,
    );
    let scale_base = scale[0].windows_per_s;
    let replica_scaling_2 = scale[1].windows_per_s / scale_base;
    let replica_scaling_4 = scale[2].windows_per_s / scale_base;
    let floor_4 = scaling_floor(cores);
    println!(
        "phase 4: scaling x2 {replica_scaling_2:.2}, x4 {replica_scaling_4:.2} \
         (host floor {floor_4:.2} on {cores} core{})",
        if cores == 1 { "" } else { "s" },
    );
    // The host-adaptive absolute floor applies on every run, checked or
    // not — a pool that scales worse than the host allows is broken.
    if replica_scaling_4 < floor_4 {
        eprintln!(
            "REGRESSION: 4-replica miss throughput is only {replica_scaling_4:.2}x the \
             1-replica path (floor {floor_4:.2} for {cores} cores)"
        );
        std::process::exit(1);
    }

    let fields: Vec<(&str, f64)> = vec![
        ("requests", load.requests as f64),
        ("errors", load.errors as f64),
        ("dropped", (requests_total - responses_total) as f64),
        ("wall_s", load.wall_s),
        ("requests_per_sec", rps),
        ("observes", load.observes as f64),
        ("verified_bitwise", (load.verified + phase1 as u64 + MISS_ITERS as u64 + 2) as f64),
        ("hit_p50_us", hit_p50),
        ("hit_p99_us", hit_p99),
        ("miss_p50_us", miss_p50),
        ("miss_p99_us", miss_p99),
        ("direct_p50_us", direct_p50),
        ("hit_speedup", hit_speedup),
        ("miss_efficiency", miss_efficiency),
        ("cache_hit_rate", cache_hit_rate),
        ("swaps", swaps as f64),
        ("min_hit_speedup", MIN_HIT_SPEEDUP),
        ("cores", cores as f64),
        ("replica_miss_per_s_1", scale[0].windows_per_s),
        ("replica_miss_per_s_2", scale[1].windows_per_s),
        ("replica_miss_per_s_4", scale[2].windows_per_s),
        ("replica_scaling_2", replica_scaling_2),
        ("replica_scaling_4", replica_scaling_4),
        ("replica_scaling_floor", floor_4),
        ("replica_swap_miss_per_s", swap_run.windows_per_s),
    ];

    // Where the time went, from the servers' own instrumentation. The
    // counters accumulate across every server in this process (phases
    // 1-4), which is exactly the whole-run attribution we want.
    let manifest_path = "BENCH_serve_manifest.json";
    let mut manifest = stwa_observe::RunManifest::new("bench_serve", V1_SEED);
    manifest
        .config_num("requests", load.requests as f64)
        .config_num("cores", cores as f64)
        .config_num("io_threads", 2.0)
        .config_num("scale_rounds", SCALE_ROUNDS as f64)
        .config_num("max_replicas", *SCALE_REPLICAS.last().expect("non-empty") as f64)
        .capture_runtime();
    println!("serve counters (manifest):");
    for (name, val) in stwa_observe::counters_snapshot() {
        if name.starts_with("serve.") {
            println!("  {name} = {val}");
        }
    }
    for (name, val) in stwa_observe::gauges_snapshot() {
        if name.starts_with("serve.") {
            println!("  {name} = {val:.3}");
        }
    }

    if let Some(baseline_path) = check_path {
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let mut failed = false;
        // Same-run ratios only: portable across hosts of different
        // absolute speed. replica_scaling_4 is additionally floored by
        // the host-adaptive guard above, which already ran.
        for key in [
            "hit_speedup",
            "miss_efficiency",
            "cache_hit_rate",
            "replica_scaling_4",
        ] {
            if key == "replica_scaling_4" && cores < 4 {
                // Below 4 cores the ratio measures scheduler noise, not
                // the code: only the pathology floor (already enforced
                // above) applies. On >= 4 cores the baseline binds.
                println!(
                    "note: {cores}-core host, replica_scaling_4 gated by the \
                     host floor only ({:.2} >= {:.2})",
                    replica_scaling_4, floor_4
                );
                continue;
            }
            let new_val = fields.iter().find(|(k, _)| *k == key).expect("field").1;
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
        println!("serve check passed");
    } else {
        std::fs::write(&out_path, render_json(&fields))
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        println!("wrote {out_path}");
        manifest
            .write_to(manifest_path)
            .unwrap_or_else(|e| panic!("cannot write {manifest_path}: {e}"));
        println!("wrote {manifest_path}");
    }
}
