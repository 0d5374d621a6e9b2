//! The serving path's contract in the tier-1 command: a replica holds
//! one rolling window, the first forecast on a window evaluates it on
//! the spot and every later one slices that evaluation, an observe or
//! a swap takes effect exactly between the jobs around it, and every
//! value on the wire is bitwise a direct `InferSession::run`.
//!
//! The per-crate suites (`crates/serve/tests/`) cover caching, the
//! replica pool, shutdown and swap under load; this one pins the
//! evaluation count and the `cache` label sequence on one replica.

#![cfg(target_os = "linux")]

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_wa::ckpt::{Registry, TrainCheckpoint};
use st_wa::infer::InferSession;
use st_wa::model::{ForecastModel, StwaConfig, StwaModel};
use st_wa::observe::parse_json;
use st_wa::serve::{proto, Client, Response, ServeConfig, Server};
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

/// A served forecast is bitwise the direct evaluation of `window`.
fn assert_serves(resp: &Response, session: &InferSession, window: &[f32], sensor: usize, what: &str) {
    assert_eq!(resp.status, 200, "{what}: {}", String::from_utf8_lossy(&resp.body));
    let x = Tensor::from_vec(window.to_vec(), &[1, N, H, 1]).unwrap();
    let full = session.run(&x).unwrap();
    let want = &full.data()[sensor * U..(sensor + 1) * U];
    let got = proto::parse_forecast_values(&resp.body).unwrap();
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
    }
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

    assert_eq!(publish(202), 2);
    let swap = client.post("/admin/swap", b"").unwrap();
    assert_eq!(swap.status, 200);
    assert_eq!(field(&swap, "version").as_num(), Some(2.0));

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
