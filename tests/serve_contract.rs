//! The serving path's contract in the tier-1 command: a replica holds
//! one rolling window, the first forecast on a window evaluates it on
//! the spot and every later one slices that evaluation, an observe or
//! a swap takes effect exactly between the jobs around it, and every
//! value on the wire is bitwise a direct `InferSession::run`.
//!
//! The per-crate suites (`crates/serve/tests/`) cover caching, the
//! replica pool, shutdown and swap under load; this one pins the
//! evaluation count and the `cache` label sequence on one replica, and
//! the cache-hit path: a hit is the entry's pre-encoded body framed
//! onto the wire, in request order, for a window that is still live.

#![cfg(target_os = "linux")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_wa::ckpt::{Registry, TrainCheckpoint};
use st_wa::infer::InferSession;
use st_wa::model::{ForecastModel, StwaConfig, StwaModel};
use st_wa::observe::parse_json;
use st_wa::serve::{http, proto, Client, Response, ServeConfig, Server};
use st_wa::tensor::Tensor;

const N: usize = 4;
const H: usize = 12;
const U: usize = 3;

fn model(seed: u64) -> StwaModel {
    StwaModel::new(StwaConfig::st_wa(N, H, U), &mut StdRng::seed_from_u64(seed)).unwrap()
}

fn config() -> ServeConfig {
    ServeConfig {
        io_threads: 1,
        model_threads: 1,
        // Swaps here are admin-triggered only.
        registry_poll: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

fn frame(t: usize) -> Vec<f32> {
    (0..N).map(|i| ((t * 31 + i * 7) % 23) as f32 * 0.125 - 1.0).collect()
}

fn observe_body(frame: &[f32]) -> Vec<u8> {
    let items: Vec<String> = frame.iter().map(|v| format!("{}", *v as f64)).collect();
    format!("{{\"frame\": [{}]}}", items.join(", ")).into_bytes()
}

/// Client-side mirror of the server's window shift (one feature).
fn apply_frame(window: &mut [f32], frame: &[f32]) {
    for (row, v) in window.chunks_mut(H).zip(frame) {
        row.copy_within(1.., 0);
        row[H - 1] = *v;
    }
}

fn field(resp: &Response, key: &str) -> st_wa::observe::Json {
    parse_json(std::str::from_utf8(&resp.body).unwrap())
        .unwrap()
        .get(key)
        .unwrap_or_else(|| panic!("body has no {key}"))
        .clone()
}

fn label(resp: &Response) -> String {
    field(resp, "cache").as_str().unwrap().to_string()
}

/// Full forwards run so far, summed over replicas.
fn evals(client: &mut Client) -> u64 {
    let stats = client.get("/stats").unwrap();
    let per_replica = field(&stats, "replica_evals");
    per_replica.as_arr().unwrap().iter().map(|v| v.as_num().unwrap() as u64).sum()
}

/// Direct evaluation of `window`, sensor `sensor`, full horizon.
fn direct(session: &InferSession, window: &[f32], sensor: usize) -> Vec<f32> {
    let x = Tensor::from_vec(window.to_vec(), &[1, N, H, 1]).unwrap();
    session.run(&x).unwrap().data()[sensor * U..(sensor + 1) * U].to_vec()
}

/// A served forecast is bitwise the direct evaluation of `window`.
fn assert_serves(resp: &Response, session: &InferSession, window: &[f32], sensor: usize, what: &str) {
    assert_eq!(resp.status, 200, "{what}: {}", String::from_utf8_lossy(&resp.body));
    let want = direct(session, window, sensor);
    let got = proto::parse_forecast_values(&resp.body).unwrap();
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (a, b) in got.iter().zip(&want) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
    }
}

fn stat(client: &mut Client, key: &str) -> f64 {
    field(&client.get("/stats").unwrap(), key).as_num().unwrap()
}

/// The bytes a 200 with `body` occupies on the wire.
fn framed(body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::new();
    http::write_response(&mut out, 200, "OK", "application/json", body, keep_alive);
    out
}

fn get_request(sensor: usize, extra_header: &str) -> String {
    format!("GET /forecast?sensor={sensor} HTTP/1.1\r\nHost: stwa\r\n{extra_header}\r\n")
}

#[test]
fn a_hit_is_the_encoded_entry_framed_for_keep_alive_and_for_close() {
    let server = Server::start(config(), || Ok(model(42))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let fr = frame(5);
    let ack = client.post("/observe", &observe_body(&fr)).unwrap();
    let fp = proto::parse_window_fp(&ack.body).unwrap();
    let mut window = vec![0.0f32; N * H];
    apply_frame(&mut window, &fr);
    assert_eq!(label(&client.get("/forecast?sensor=2").unwrap()), "miss");

    let session = InferSession::new(&model(42)).unwrap();
    let body = proto::forecast_body(2, U as u32, 0, fp, "hit", &direct(&session, &window, 2));
    for (header, keep_alive) in [("", true), ("Connection: close\r\n", false)] {
        let want = framed(&body, keep_alive);
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        raw.write_all(get_request(2, header).as_bytes()).unwrap();
        let mut got = vec![0u8; want.len()];
        raw.read_exact(&mut got).unwrap();
        assert_eq!(String::from_utf8_lossy(&got), String::from_utf8_lossy(&want));
        if !keep_alive {
            assert_eq!(raw.read(&mut [0u8; 1]).unwrap(), 0, "the server closes after the answer");
        }
    }
    assert_eq!(evals(&mut client), 1);
    server.shutdown();
}

#[test]
fn inline_hits_never_overtake_a_dispatched_forecast() {
    let server = Server::start(config(), || Ok(model(42))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let window = vec![0.0f32; N * H];
    // Sensors 1 and 2 are cached; sensor 0 must go to the replica.
    assert_eq!(label(&client.get("/forecast?sensor=1").unwrap()), "miss");
    let primed = client.get("/forecast?sensor=2").unwrap();
    assert_eq!(label(&primed), "memo");
    let fp = proto::parse_window_fp(&primed.body).unwrap();

    // One write, so the worker parses all three in one pass: the two
    // hits are ready long before the replica answers the first.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let burst: String = (0..3).map(|s| get_request(s, "")).collect();
    raw.write_all(burst.as_bytes()).unwrap();

    let session = InferSession::new(&model(42)).unwrap();
    let mut want = Vec::new();
    for (sensor, source) in [(0, "memo"), (1, "hit"), (2, "hit")] {
        let values = direct(&session, &window, sensor);
        let body = proto::forecast_body(sensor as u32, U as u32, 0, fp, source, &values);
        want.extend_from_slice(&framed(&body, true));
    }
    let mut got = vec![0u8; want.len()];
    raw.read_exact(&mut got).unwrap();
    assert_eq!(String::from_utf8_lossy(&got), String::from_utf8_lossy(&want));
    server.shutdown();
}

#[test]
fn superseded_windows_leave_the_cache_as_observes_arrive() {
    let server = Server::start(config(), || Ok(model(42))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for t in 0..6 {
        assert_eq!(client.post("/observe", &observe_body(&frame(t))).unwrap().status, 200);
        for sensor in 0..N {
            for horizon in 1..=U {
                let target = format!("/forecast?sensor={sensor}&horizon={horizon}");
                assert_eq!(client.get(&target).unwrap().status, 200);
                assert_eq!(label(&client.get(&target).unwrap()), "hit");
            }
        }
        assert_eq!(stat(&mut client, "cache_entries"), (N * U) as f64, "after observe {t}");
    }
    // An observe that leaves the window as it was supersedes nothing.
    let server_zero = Server::start(config(), || Ok(model(42))).unwrap();
    let mut zero = Client::connect(server_zero.addr()).unwrap();
    assert_eq!(label(&zero.get("/forecast?sensor=0").unwrap()), "miss");
    assert_eq!(zero.post("/observe", &observe_body(&[0.0; N])).unwrap().status, 200);
    assert_eq!(label(&zero.get("/forecast?sensor=0").unwrap()), "hit");
    server_zero.shutdown();
    server.shutdown();
}

#[test]
fn an_expired_entry_is_refused_on_read_before_any_sweep() {
    let cfg = ServeConfig {
        ttl: Duration::from_millis(60),
        sweep_interval: Duration::from_secs(3600),
        ..config()
    };
    let server = Server::start(cfg, || Ok(model(42))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert_eq!(label(&client.get("/forecast?sensor=3").unwrap()), "miss");
    std::thread::sleep(Duration::from_millis(90));
    // Still resident — nothing has swept — but too old to serve: the
    // replica answers from its memo and primes a fresh entry.
    assert_eq!(stat(&mut client, "cache_entries"), 1.0);
    assert_eq!(label(&client.get("/forecast?sensor=3").unwrap()), "memo");
    assert_eq!(evals(&mut client), 1);
    server.shutdown();
}

#[test]
fn a_non_finite_observation_is_refused_and_leaves_the_window_alone() {
    let server = Server::start(config(), || Ok(model(42))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let ack = client.post("/observe", &observe_body(&frame(1))).unwrap();
    let fp = proto::parse_window_fp(&ack.body).unwrap();
    assert_eq!(label(&client.get("/forecast?sensor=0").unwrap()), "miss");

    // Finite as f64 but infinite as f32, and infinite outright.
    for bad in ["1e39", "-1e999"] {
        let body = format!("{{\"frame\": [0.5, {bad}, 0.25, 1.0]}}");
        let resp = client.post("/observe", body.as_bytes()).unwrap();
        assert_eq!(resp.status, 400, "{bad}");
        let message = field(&resp, "error");
        assert!(message.as_str().unwrap().contains("not a finite f32"), "{message:?}");
    }
    let after = client.get("/forecast?sensor=0").unwrap();
    assert_eq!(label(&after), "hit", "the refused frames invalidated nothing");
    assert_eq!(proto::parse_window_fp(&after.body).unwrap(), fp);
    assert!(proto::parse_forecast_values(&after.body).unwrap().iter().all(|v| v.is_finite()));
    server.shutdown();
}

#[test]
fn a_megabyte_of_open_brackets_is_refused_and_the_server_lives() {
    let server = Server::start(config(), || Ok(model(42))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let ack = client.post("/observe", &observe_body(&frame(1))).unwrap();
    let fp = proto::parse_window_fp(&ack.body).unwrap();
    assert_eq!(label(&client.get("/forecast?sensor=0").unwrap()), "miss");

    // The largest body the parser admits, all of it nesting: unbounded
    // recursion here overflows the IO worker's stack and aborts.
    let resp = client.post("/observe", &vec![b'['; http::MAX_BODY]).unwrap();
    assert_eq!(resp.status, 400);
    let message = field(&resp, "error");
    assert!(message.as_str().unwrap().contains("nested too deep"), "{message:?}");

    // Same connection, same window, same cache entry.
    let after = client.get("/forecast?sensor=0").unwrap();
    assert_eq!(label(&after), "hit", "the refused body invalidated nothing");
    assert_eq!(proto::parse_window_fp(&after.body).unwrap(), fp);
    server.shutdown();
}

#[test]
fn pipelined_forecasts_on_one_window_share_one_evaluation() {
    let server = Server::start(config(), || Ok(model(42))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut window = vec![0.0f32; N * H];
    for t in 0..3 {
        let fr = frame(t);
        let resp = client.post("/observe", &observe_body(&fr)).unwrap();
        assert_eq!(resp.status, 200);
        apply_frame(&mut window, &fr);
    }
    assert_eq!(evals(&mut client), 0, "observes evaluate nothing");

    for sensor in 0..N {
        client.send_get(&format!("/forecast?sensor={sensor}")).unwrap();
    }
    let session = InferSession::new(&model(42)).unwrap();
    for sensor in 0..N {
        let resp = client.recv().unwrap();
        assert_serves(&resp, &session, &window, sensor, &format!("sensor {sensor}"));
        let label = label(&resp);
        if sensor == 0 {
            assert_eq!(label, "miss", "the first forecast on a window evaluates it");
        } else {
            assert!(label == "memo" || label == "hit", "sensor {sensor} answered {label:?}");
        }
    }
    assert_eq!(evals(&mut client), 1, "one window, one forward");
    server.shutdown();
}

#[test]
fn an_observe_mid_pipeline_splits_forecasts_by_window() {
    let server = Server::start(config(), || Ok(model(9))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let before = vec![0.0f32; N * H];
    let mut after = before.clone();
    apply_frame(&mut after, &frame(7));

    client.send_get("/forecast?sensor=0").unwrap();
    client.send_get("/forecast?sensor=1").unwrap();
    client.send_post("/observe", &observe_body(&frame(7))).unwrap();
    client.send_get("/forecast?sensor=2").unwrap();
    client.send_get("/forecast?sensor=3").unwrap();

    let session = InferSession::new(&model(9)).unwrap();
    let old: Vec<Response> = (0..2).map(|_| client.recv().unwrap()).collect();
    let ack = client.recv().unwrap();
    assert_eq!(ack.status, 200);
    let new: Vec<Response> = (0..2).map(|_| client.recv().unwrap()).collect();
    let ack_fp = proto::parse_window_fp(&ack.body).unwrap();
    for (i, resp) in old.iter().enumerate() {
        assert_serves(resp, &session, &before, i, &format!("pre-observe sensor {i}"));
        assert_ne!(proto::parse_window_fp(&resp.body).unwrap(), ack_fp);
    }
    for (i, resp) in new.iter().enumerate() {
        assert_serves(resp, &session, &after, 2 + i, &format!("post-observe sensor {}", 2 + i));
        assert_eq!(proto::parse_window_fp(&resp.body).unwrap(), ack_fp);
    }
    assert_eq!(label(&old[0]), "miss");
    assert_eq!(label(&new[0]), "miss", "the observe invalidated the memo");
    assert_eq!(evals(&mut client), 2, "one forward on each side of the observe");
    server.shutdown();
}

#[test]
fn a_swap_clears_the_memo() {
    let root = std::env::temp_dir().join(format!("stwa_serve_contract_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();
    let publish = |seed: u64| {
        registry
            .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", model(seed).store()))
            .unwrap()
    };
    assert_eq!(publish(101), 1);
    let cfg = ServeConfig {
        registry: Some((root.clone(), "ST-WA".to_string())),
        ..config()
    };
    let server = Server::start(cfg, || Ok(model(1))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let window = vec![0.0f32; N * H];

    let v1 = InferSession::new(&model(101)).unwrap();
    let first = client.get("/forecast?sensor=0").unwrap();
    assert_serves(&first, &v1, &window, 0, "v1 sensor 0");
    assert_eq!(label(&first), "miss");
    let second = client.get("/forecast?sensor=1").unwrap();
    assert_serves(&second, &v1, &window, 1, "v1 sensor 1");
    assert_eq!(label(&second), "memo");
    assert_eq!(stat(&mut client, "cache_entries"), 2.0);

    assert_eq!(publish(202), 2);
    let swap = client.post("/admin/swap", b"").unwrap();
    assert_eq!(swap.status, 200);
    assert_eq!(field(&swap, "version").as_num(), Some(2.0));
    assert_eq!(stat(&mut client, "cache_entries"), 0.0, "the swap purged v1's entries");

    // Same window, new weights: the old forward must not answer.
    let v2 = InferSession::new(&model(202)).unwrap();
    let third = client.get("/forecast?sensor=2").unwrap();
    assert_serves(&third, &v2, &window, 2, "v2 sensor 2");
    assert_eq!(label(&third), "miss");
    assert_eq!(field(&third, "version").as_num(), Some(2.0));
    assert_eq!(evals(&mut client), 2);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
