//! Replica-pool end-to-end tests: several model threads behind the
//! same reactor, each with its own frozen snapshot. The assertions
//! extend the single-evaluator serving contract to the pool — every
//! response is bitwise-verifiable against direct eval of the (version,
//! window) it names no matter which replica answered, observes keep
//! all replica windows identical, and a coordinated hot swap flips the
//! whole pool with zero drops and no mixed-version responses once the
//! swap call returns.

#![cfg(target_os = "linux")]

mod common;

use common::{apply_frame, assert_bitwise, direct_eval, frame, model, observe_body};
use std::time::Duration;
use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_core::ForecastModel;
use stwa_infer::InferSession;
use stwa_serve::{Client, ServeConfig, Server};

fn config(replicas: usize) -> ServeConfig {
    ServeConfig {
        io_threads: 2,
        model_threads: replicas,
        ttl: Duration::from_secs(300),
        // Swaps are admin-triggered unless a test sets a short poll of
        // its own, so a publish never races the poller.
        registry_poll: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

fn response_version(body: &[u8]) -> u64 {
    stwa_observe::parse_json(std::str::from_utf8(body).unwrap())
        .unwrap()
        .get("version")
        .and_then(|v| v.as_num())
        .unwrap() as u64
}

fn stat(body: &[u8], key: &str) -> f64 {
    stwa_observe::parse_json(std::str::from_utf8(body).unwrap())
        .unwrap()
        .get(key)
        .and_then(|v| v.as_num())
        .unwrap_or_else(|| panic!("stats missing {key}"))
}

/// `/stats`' forward count per replica.
fn replica_evals(body: &[u8]) -> Vec<u64> {
    stwa_observe::parse_json(std::str::from_utf8(body).unwrap())
        .unwrap()
        .get("replica_evals")
        .and_then(|v| v.as_arr())
        .unwrap()
        .iter()
        .map(|v| v.as_num().unwrap() as u64)
        .collect()
}

#[test]
fn replica_pool_serves_bitwise_correct_forecasts_from_every_replica() {
    let server = Server::start(config(3), || Ok(model(42))).unwrap();
    assert_eq!(server.replicas(), 3);
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();
    let reference = model(42);
    let session = InferSession::new(&reference).unwrap();

    // Fill the window, then sweep every (sensor, horizon) over the
    // three successive windows the last three observes leave. Window
    // `w` (observes so far) routes every miss to replica `w % 3`, so
    // the sweeps visit all three replicas.
    const SWEPT: usize = 3;
    let mut window = vec![0.0f32; n * h * f];
    for t in 0..h + SWEPT - 1 {
        let fr = frame(t, n, f);
        let resp = client.post("/observe", &observe_body(&fr)).unwrap();
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8_lossy(&resp.body));
        apply_frame(&mut window, &fr, n, h, f);
        if t + 1 < h {
            continue;
        }
        for sensor in 0..n {
            for horizon in 1..=dims.horizon {
                let resp = client
                    .get(&format!("/forecast?sensor={sensor}&horizon={horizon}"))
                    .unwrap();
                assert_eq!(resp.status, 200, "{:?}", String::from_utf8_lossy(&resp.body));
                let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
                let want = direct_eval(&session, &window, n, h, f, sensor, horizon);
                assert_bitwise(&got, &want, &format!("step {t} sensor {sensor} horizon {horizon}"));
            }
        }
    }

    // Every forecast on a window is a slice of one city-wide forward:
    // one forward per window, each on a different replica.
    let stats = client.get("/stats").unwrap();
    assert_eq!(stat(&stats.body, "replicas") as usize, 3);
    let evals = replica_evals(&stats.body);
    assert_eq!(evals.iter().sum::<u64>(), SWEPT as u64, "one forward per window: {evals:?}");
    assert_eq!(evals, [1, 1, 1], "successive windows rotate across the pool");

    server.shutdown();
}

#[test]
fn pipelined_observe_forecast_pairs_read_your_writes_across_replicas() {
    let server = Server::start(config(3), || Ok(model(9))).unwrap();
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();

    // Deep pipelined stream of (observe, forecast) pairs — each window
    // routes its miss to the next replica, and each forecast must
    // answer for the window its preceding observe produced (broadcast
    // order + per-channel FIFO).
    const PAIRS: usize = 10;
    let mut windows = Vec::with_capacity(PAIRS);
    let mut window = vec![0.0f32; n * h * f];
    for t in 0..PAIRS {
        let fr = frame(100 + t, n, f);
        client.send_post("/observe", &observe_body(&fr)).unwrap();
        client
            .send_get(&format!("/forecast?sensor={}&horizon={}", t % n, 1 + t % dims.horizon))
            .unwrap();
        apply_frame(&mut window, &fr, n, h, f);
        windows.push(window.clone());
    }

    let reference = model(9);
    let session = InferSession::new(&reference).unwrap();
    for (t, want_window) in windows.iter().enumerate() {
        let ack = client.recv().unwrap();
        assert_eq!(ack.status, 200, "observe {t}");
        let ack_fp = stwa_serve::proto::parse_window_fp(&ack.body).unwrap();
        let resp = client.recv().unwrap();
        assert_eq!(resp.status, 200, "forecast {t}");
        let got_fp = stwa_serve::proto::parse_window_fp(&resp.body).unwrap();
        assert_eq!(got_fp, ack_fp, "forecast {t} answers the observed window");
        let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
        let want = direct_eval(&session, want_window, n, h, f, t % n, 1 + t % dims.horizon);
        assert_bitwise(&got, &want, &format!("pair {t}"));
    }
    // Each window saw one forecast, so one forward each.
    let stats = client.get("/stats").unwrap();
    assert_eq!(replica_evals(&stats.body).iter().sum::<u64>(), PAIRS as u64);
    server.shutdown();
}

#[test]
fn coordinated_swap_under_pipelined_traffic_zero_drops_no_mixed_versions() {
    let root = std::env::temp_dir().join(format!("stwa_serve_pool_swap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();
    registry
        .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", model(101).store()))
        .unwrap();

    let cfg = ServeConfig {
        registry: Some((root.clone(), "ST-WA".to_string())),
        ..config(3)
    };
    let server = Server::start(cfg, || Ok(model(1))).unwrap();
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    assert_eq!(server.version(), 1, "pool starts on registry v1");

    let mut admin = Client::connect(server.addr()).unwrap();
    let mut traffic = Client::connect(server.addr()).unwrap();

    // Window stays all-zeros for the swap phase so any in-flight
    // forecast is checkable against both versions.
    let window = vec![0.0f32; n * h * f];
    let v1_session = InferSession::new(&model(101)).unwrap();
    let v2_session = InferSession::new(&model(202)).unwrap();

    // Publish v2, then pipeline traffic *around* the swap: the
    // traffic connection has a deep burst in flight while the admin
    // connection swaps. Mid-swap responses may name v1 or v2 — each
    // must be bitwise-true to the version it names.
    registry
        .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", model(202).store()))
        .unwrap();
    const BURST: usize = 24;
    for i in 0..BURST {
        traffic
            .send_get(&format!("/forecast?sensor={}&horizon={}", i % n, 1 + i % dims.horizon))
            .unwrap();
    }
    let swap = admin.post("/admin/swap", b"").unwrap();
    assert_eq!(swap.status, 200);
    let swap_text = String::from_utf8_lossy(&swap.body).to_string();
    assert!(swap_text.contains("\"swapped\":true"), "{swap_text}");
    assert_eq!(response_version(&swap.body), 2);
    assert_eq!(server.version(), 2, "swap reply means the whole pool flipped");
    assert_eq!(server.swaps(), 1);

    for i in 0..BURST {
        let resp = traffic.recv().unwrap_or_else(|e| panic!("in-flight request {i} dropped: {e}"));
        assert_eq!(resp.status, 200, "in-flight request {i}");
        let version = response_version(&resp.body);
        let session = match version {
            1 => &v1_session,
            2 => &v2_session,
            v => panic!("request {i} names unknown version {v}"),
        };
        let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
        let want = direct_eval(session, &window, n, h, f, i % n, 1 + i % dims.horizon);
        assert_bitwise(&got, &want, &format!("mid-swap request {i} (v{version})"));
    }

    // After the swap call returned, no response may name v1 again —
    // the version flips pool-wide before the admin reply leaves.
    for i in 0..2 * BURST {
        traffic
            .send_get(&format!("/forecast?sensor={}&horizon={}", i % n, 1 + i % dims.horizon))
            .unwrap();
    }
    for i in 0..2 * BURST {
        let resp = traffic.recv().unwrap();
        assert_eq!(resp.status, 200, "post-swap request {i}");
        assert_eq!(response_version(&resp.body), 2, "post-swap request {i} mixed version");
        let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
        let want = direct_eval(&v2_session, &window, n, h, f, i % n, 1 + i % dims.horizon);
        assert_bitwise(&got, &want, &format!("post-swap request {i}"));
    }

    // Observes still apply after the swap: a post-observe sweep over
    // all sensors is bitwise v2.
    let fr = frame(7, n, f);
    let ack = traffic.post("/observe", &observe_body(&fr)).unwrap();
    assert_eq!(ack.status, 200);
    let mut new_window = window.clone();
    apply_frame(&mut new_window, &fr, n, h, f);
    for sensor in 0..n {
        let resp = traffic.get(&format!("/forecast?sensor={sensor}&horizon=2")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(response_version(&resp.body), 2);
        let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
        let want = direct_eval(&v2_session, &new_window, n, h, f, sensor, 2);
        assert_bitwise(&got, &want, &format!("post-observe sensor {sensor}"));
    }

    // Zero drops, zero swap errors, no client aborts; the in-flight
    // stats request is the only parsed-but-unanswered one.
    let stats = traffic.get("/stats").unwrap();
    assert_eq!(stat(&stats.body, "swaps"), 1.0);
    assert_eq!(stat(&stats.body, "swap_errors"), 0.0);
    assert_eq!(stat(&stats.body, "client_aborts"), 0.0);
    assert_eq!(
        stat(&stats.body, "requests"),
        stat(&stats.body, "responses") + 1.0,
        "stats: {}",
        String::from_utf8_lossy(&stats.body)
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn racing_admin_swaps_over_back_to_back_publishes_keep_the_pool_on_one_version() {
    let root = std::env::temp_dir().join(format!("stwa_serve_pool_race_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();
    let publish = |seed: u64| {
        registry
            .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", model(seed).store()))
            .unwrap()
    };
    publish(101);
    let cfg = ServeConfig {
        registry: Some((root.clone(), "ST-WA".to_string())),
        ..config(3)
    };
    let server = Server::start(cfg, || Ok(model(1))).unwrap();
    let addr = server.addr();

    // Two admin connections swap in a loop while v2 and v3 land back
    // to back, so swaps pinned to v2 and to v3 interleave on the
    // replica channels. A pool split across versions, or a barrier
    // stranded between two targets, shows up as a call that never
    // reads v3 or one that stalls.
    let swappers: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let mut admin = Client::connect(addr).unwrap();
                let mut slowest = Duration::ZERO;
                loop {
                    let t0 = std::time::Instant::now();
                    let resp = admin.post("/admin/swap", b"").unwrap();
                    slowest = slowest.max(t0.elapsed());
                    assert_eq!(resp.status, 200);
                    if response_version(&resp.body) == 3 {
                        return slowest;
                    }
                }
            })
        })
        .collect();
    assert_eq!(publish(202), 2);
    assert_eq!(publish(303), 3);
    for swapper in swappers {
        let slowest = swapper.join().unwrap();
        assert!(slowest < Duration::from_secs(5), "a swap call stalled for {slowest:?}");
    }
    assert_eq!(server.version(), 3);

    // Every replica stamps the pool's version: three fresh windows send
    // their misses to the three replicas in turn.
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    let mut client = Client::connect(addr).unwrap();
    let mut window = vec![0.0f32; n * h * f];
    let v3_session = InferSession::new(&model(303)).unwrap();
    for t in 0..3 {
        let fr = frame(5 + t, n, f);
        assert_eq!(client.post("/observe", &observe_body(&fr)).unwrap().status, 200);
        apply_frame(&mut window, &fr, n, h, f);
        for sensor in 0..n {
            let resp = client.get(&format!("/forecast?sensor={sensor}&horizon=2")).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(response_version(&resp.body), server.version(), "step {t} sensor {sensor}");
            let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
            let want = direct_eval(&v3_session, &window, n, h, f, sensor, 2);
            assert_bitwise(&got, &want, &format!("post-race step {t} sensor {sensor}"));
        }
    }
    let stats = client.get("/stats").unwrap();
    assert_eq!(stat(&stats.body, "swap_errors"), 0.0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_polled_swap_flips_every_replica_of_the_pool() {
    let root = std::env::temp_dir().join(format!("stwa_serve_pool_poll_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();
    let publish = |seed: u64| {
        registry
            .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", model(seed).store()))
            .unwrap()
    };
    assert_eq!(publish(101), 1);
    let poll = Duration::from_millis(20);
    let cfg = ServeConfig {
        registry: Some((root.clone(), "ST-WA".to_string())),
        registry_poll: poll,
        ..config(3)
    };
    let server = Server::start(cfg, || Ok(model(1))).unwrap();
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();

    // No admin call: the poll alone must carry the pool to v2, and
    // `/stats` names v2 only once the last replica has flipped.
    assert_eq!(publish(202), 2);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while stat(&client.get("/stats").unwrap().body, "version") != 2.0 {
        assert!(std::time::Instant::now() < deadline, "the poll never swapped the pool");
        std::thread::sleep(poll / 4);
    }

    // Three fresh windows send their misses to the three replicas in
    // turn; every answer is v2's, bitwise.
    let v2 = InferSession::new(&model(202)).unwrap();
    let mut window = vec![0.0f32; n * h * f];
    for t in 0..3 {
        let fr = frame(40 + t, n, f);
        assert_eq!(client.post("/observe", &observe_body(&fr)).unwrap().status, 200);
        apply_frame(&mut window, &fr, n, h, f);
        for sensor in 0..n {
            let resp = client.get(&format!("/forecast?sensor={sensor}&horizon=2")).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(response_version(&resp.body), 2, "step {t} sensor {sensor}");
            let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
            let want = direct_eval(&v2, &window, n, h, f, sensor, 2);
            assert_bitwise(&got, &want, &format!("polled swap step {t} sensor {sensor}"));
        }
    }
    let stats = client.get("/stats").unwrap();
    assert_eq!(replica_evals(&stats.body), [1, 1, 1], "one forward per window, one window per replica");
    assert_eq!(stat(&stats.body, "swaps"), 1.0);
    assert_eq!(stat(&stats.body, "swap_errors"), 0.0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_drains_every_pipelined_request_across_replicas() {
    let server = Server::start(config(2), || Ok(model(5))).unwrap();
    let dims = server.dims();
    let (n, f) = (dims.sensors, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();

    const K: usize = 24;
    for i in 0..K {
        if i == K / 2 {
            client
                .send_post("/observe", &observe_body(&frame(3, n, f)))
                .unwrap();
        }
        client
            .send_get(&format!("/forecast?sensor={}&horizon=1", i % n))
            .unwrap();
    }
    // Shutdown with the burst outstanding across both replicas: the
    // drain contract answers every request before any thread exits.
    server.shutdown();
    for i in 0..K + 1 {
        let resp = client.recv().unwrap_or_else(|e| panic!("request {i} dropped: {e}"));
        assert_eq!(resp.status, 200, "request {i}");
    }
}

#[test]
fn a_superseded_windows_entries_are_gone_once_the_last_replica_has_observed() {
    let server = Server::start(config(3), || Ok(model(13))).unwrap();
    let dims = server.dims();
    let (n, f) = (dims.sensors, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();

    // Prime every (sensor, horizon) of the starting window. Its misses
    // all go to replica 0, the window's replica, which puts every
    // entry under the fingerprint about to be superseded.
    let stale = n * dims.horizon;
    for sensor in 0..n {
        for horizon in 1..=dims.horizon {
            let resp = client
                .get(&format!("/forecast?sensor={sensor}&horizon={horizon}"))
                .unwrap();
            assert_eq!(resp.status, 200);
        }
    }
    let stats = client.get("/stats").unwrap();
    assert_eq!(stat(&stats.body, "cache_entries") as usize, stale);

    let ack = client.post("/observe", &observe_body(&frame(3, n, f))).unwrap();
    assert_eq!(ack.status, 200);
    let fp = stwa_serve::proto::parse_window_fp(&ack.body).unwrap();
    // Replica 0 is also the observe's responder, and a replica purges
    // as it applies an observe, so the stale entries are gone before
    // the ack. The new window's misses go to replica 1; an answer
    // naming the new window proves it has applied the observe too.
    for sensor in 0..n {
        let resp = client.get(&format!("/forecast?sensor={sensor}&horizon=1")).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(stwa_serve::proto::parse_window_fp(&resp.body).unwrap(), fp);
    }
    let stats = client.get("/stats").unwrap();
    assert_eq!(
        stat(&stats.body, "cache_entries") as usize,
        n,
        "only the new window's entries remain: {}",
        String::from_utf8_lossy(&stats.body)
    );
    server.shutdown();
}
