//! End-to-end serving tests: a real server on a real socket, driven by
//! the blocking pipelining client. The recurring assertion is the
//! serving contract — every forecast that leaves the server is bitwise
//! equal to a direct `InferSession` evaluation of the window named in
//! the response, whether it came from a fresh forward, the model-thread
//! memo, or the worker-side cache.

#![cfg(target_os = "linux")]

mod common;

use common::{apply_frame, assert_bitwise, direct_eval, frame, model, observe_body, N};
use std::time::Duration;
use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_core::ForecastModel;
use stwa_infer::InferSession;
use stwa_serve::cache::fingerprint_f32;
use stwa_serve::{Client, ServeConfig, Server};

fn config() -> ServeConfig {
    ServeConfig {
        io_threads: 2,
        ttl: Duration::from_secs(300),
        registry_poll: Duration::from_millis(50),
        ..ServeConfig::default()
    }
}

/// One numeric `/stats` field, or a numeric array's entries.
fn stats(client: &mut Client, key: &str) -> Vec<f64> {
    let resp = client.get("/stats").unwrap();
    let doc = stwa_observe::parse_json(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    let field = doc.get(key).unwrap_or_else(|| panic!("/stats lacks {key}"));
    match field.as_arr() {
        Some(items) => items.iter().map(|v| v.as_num().unwrap()).collect(),
        None => vec![field.as_num().unwrap()],
    }
}

/// A checkpoint every load refuses: it matches every parameter of
/// `model(seed)` but the last-registered one, so a load that writes
/// parameter by parameter would leave most of the store on other
/// weights before refusing.
fn refused_checkpoint(seed: u64) -> TrainCheckpoint {
    let mut ckpt = TrainCheckpoint::params_only("ST-WA", model(seed).store());
    ckpt.params.pop();
    ckpt
}

#[test]
fn served_forecasts_match_direct_eval_bitwise() {
    let server = Server::start(config(), || Ok(model(42))).unwrap();
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();

    // Fill the window over the wire and mirror it locally.
    let mut window = vec![0.0f32; n * h * f];
    for t in 0..h {
        let fr = frame(t, n, f);
        let resp = client.post("/observe", &observe_body(&fr)).unwrap();
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8_lossy(&resp.body));
        apply_frame(&mut window, &fr, n, h, f);
    }

    // Ground truth: the same seed builds the same weights.
    let reference = model(42);
    let session = InferSession::new(&reference).unwrap();
    let fp = fingerprint_f32(&window);

    for sensor in 0..n {
        for horizon in 1..=dims.horizon {
            let resp = client
                .get(&format!("/forecast?sensor={sensor}&horizon={horizon}"))
                .unwrap();
            assert_eq!(resp.status, 200, "{:?}", String::from_utf8_lossy(&resp.body));
            // The response names the window it answers: the client's
            // mirror of every frame sent.
            assert_eq!(stwa_serve::proto::parse_window_fp(&resp.body).unwrap(), fp);
            let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
            let want = direct_eval(&session, &window, n, h, f, sensor, horizon);
            assert_bitwise(&got, &want, &format!("sensor {sensor} horizon {horizon}"));
        }
    }
    server.shutdown();
}

#[test]
fn repeat_queries_hit_the_cache_with_identical_values() {
    let server = Server::start(config(), || Ok(model(7))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let first = client.get("/forecast?sensor=1&horizon=2").unwrap();
    assert_eq!(first.status, 200);
    let first_vals = stwa_serve::proto::parse_forecast_values(&first.body).unwrap();
    let text = String::from_utf8_lossy(&first.body).to_string();
    assert!(text.contains("\"miss\""), "first query is a miss: {text}");

    // The replica primed the shared cache before it answered, so every
    // repeat is served by the worker: none reaches a replica.
    for i in 0..5 {
        let resp = client.get("/forecast?sensor=1&horizon=2").unwrap();
        assert_eq!(resp.status, 200);
        let vals = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
        assert_bitwise(&vals, &first_vals, "cached repeat");
        let text = String::from_utf8_lossy(&resp.body).to_string();
        assert!(text.contains("\"hit\""), "repeat {i} must hit the cache: {text}");
    }

    // A second connection shares the cache.
    let mut other = Client::connect(server.addr()).unwrap();
    let resp = other.get("/forecast?sensor=1&horizon=2").unwrap();
    let vals = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
    assert_bitwise(&vals, &first_vals, "cross-connection cache");
    let text = String::from_utf8_lossy(&resp.body).to_string();
    assert!(text.contains("\"hit\""), "cross-connection repeat must hit: {text}");

    // A hit does no model work: the first miss is the only job and the
    // only forward.
    assert_eq!(stats(&mut other, "model_jobs"), [1.0]);
    assert_eq!(stats(&mut other, "replica_evals"), [1.0]);
    server.shutdown();
}

#[test]
fn model_jobs_count_forecast_dispatches_not_broadcasts() {
    let server = Server::start(config(), || Ok(model(11))).unwrap();
    let dims = server.dims();
    let (n, f) = (dims.sensors, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();

    // k observes; the first m are each followed by a forecast, which
    // misses the cache because the window just moved.
    let (k, m) = (5, 3);
    for t in 0..k {
        let resp = client.post("/observe", &observe_body(&frame(t, n, f))).unwrap();
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8_lossy(&resp.body));
        if t < m {
            let resp = client.get("/forecast?sensor=0&horizon=1").unwrap();
            let text = String::from_utf8_lossy(&resp.body).to_string();
            assert!(text.contains("\"miss\""), "a forecast on a fresh window misses: {text}");
        }
    }

    let stats = client.get("/stats").unwrap();
    let doc = stwa_observe::parse_json(std::str::from_utf8(&stats.body).unwrap()).unwrap();
    let model_jobs = doc.get("model_jobs").unwrap().as_num().unwrap();
    assert_eq!(
        model_jobs,
        m as f64,
        "observes are broadcasts, not model jobs: {}",
        String::from_utf8_lossy(&stats.body)
    );
    server.shutdown();
}

#[test]
fn stats_report_every_field_and_the_buffer_pool() {
    let server = Server::start(config(), || Ok(model(13))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let before = stwa_tensor::memory::pool_stats();
    // A cache miss runs a frozen forward, which draws from the pool.
    let resp = client.get("/forecast?sensor=0&horizon=1").unwrap();
    assert_eq!(resp.status, 200);
    let stats = client.get("/stats").unwrap();
    let after = stwa_tensor::memory::pool_stats();
    let text = String::from_utf8_lossy(&stats.body).to_string();
    let doc = stwa_observe::parse_json(&text).unwrap();
    for key in [
        "version", "requests", "responses", "conns", "inline_hits", "model_jobs",
        "cache_hits", "cache_misses", "cache_entries", "replicas", "replica_evals",
        "replica_depth", "swaps", "swap_errors", "swap_ms", "client_aborts",
        "pool_held_bytes", "pool_hits", "pool_misses",
    ] {
        assert!(doc.get(key).is_some(), "/stats lacks {key}: {text}");
    }
    // The pool fields are this process's `memory::pool_stats()`, read
    // between the two local snapshots (other tests share the pool, so
    // only the bracket is exact).
    let num = |key: &str| doc.get(key).unwrap().as_num().unwrap() as usize;
    let (hits, misses) = (num("pool_hits"), num("pool_misses"));
    assert!((before.hits..=after.hits).contains(&hits), "{text}");
    assert!((before.misses..=after.misses).contains(&misses), "{text}");
    assert!(hits + misses > before.hits + before.misses, "the forward drew from the pool: {text}");
    assert!(doc.get("pool_held_bytes").unwrap().as_num().is_some(), "{text}");
    server.shutdown();
}

#[test]
fn pipelined_mixed_traffic_returns_in_order_with_read_your_writes() {
    let server = Server::start(config(), || Ok(model(9))).unwrap();
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();

    // One pipelined burst: forecast, observe, forecast, stats,
    // forecast. Responses must come back in exactly this order, and
    // the post-observe forecasts must answer for the *new* window.
    client.send_get("/forecast?sensor=0&horizon=1").unwrap();
    let fr = frame(99, n, f);
    client.send_post("/observe", &observe_body(&fr)).unwrap();
    client.send_get("/forecast?sensor=0&horizon=1").unwrap();
    client.send_get("/stats").unwrap();
    client.send_get("/forecast?sensor=2&horizon=3").unwrap();

    let before = client.recv().unwrap();
    let ack = client.recv().unwrap();
    let after = client.recv().unwrap();
    let stats = client.recv().unwrap();
    let last = client.recv().unwrap();
    for (resp, what) in [
        (&before, "pre-observe forecast"),
        (&ack, "observe ack"),
        (&after, "post-observe forecast"),
        (&stats, "stats"),
        (&last, "second post-observe forecast"),
    ] {
        assert_eq!(resp.status, 200, "{what}: {}", String::from_utf8_lossy(&resp.body));
    }

    let fp_before = stwa_serve::proto::parse_window_fp(&before.body).unwrap();
    let fp_ack = stwa_serve::proto::parse_window_fp(&ack.body).unwrap();
    let fp_after = stwa_serve::proto::parse_window_fp(&after.body).unwrap();
    let fp_last = stwa_serve::proto::parse_window_fp(&last.body).unwrap();
    assert_ne!(fp_before, fp_ack, "observe must change the window");
    assert_eq!(fp_after, fp_ack, "read-your-writes: forecast after observe");
    assert_eq!(fp_last, fp_ack);

    // And the post-observe values really are the new window's values.
    let mut window = vec![0.0f32; n * h * f];
    apply_frame(&mut window, &fr, n, h, f);
    let reference = model(9);
    let session = InferSession::new(&reference).unwrap();
    let got = stwa_serve::proto::parse_forecast_values(&after.body).unwrap();
    let want = direct_eval(&session, &window, n, h, f, 0, 1);
    assert_bitwise(&got, &want, "post-observe forecast");

    server.shutdown();
}

#[test]
fn bad_requests_get_4xx_without_killing_the_connection() {
    let server = Server::start(config(), || Ok(model(3))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    for (target, expect) in [
        ("/forecast?sensor=999&horizon=1", 400),
        ("/forecast?sensor=zero&horizon=1", 400),
        ("/forecast?sensor=0&horizon=0", 400),
        ("/forecast?sensor=0&horizon=99", 400),
        ("/nope", 404),
    ] {
        let resp = client.get(target).unwrap();
        assert_eq!(resp.status, expect, "{target}");
    }
    let resp = client.post("/observe", b"{\"frame\": [1.0]}").unwrap();
    assert_eq!(resp.status, 400, "short frame");

    // The same connection still serves good requests afterwards.
    let resp = client.get("/forecast?sensor=0&horizon=1").unwrap();
    assert_eq!(resp.status, 200);
    let resp = client.get("/healthz").unwrap();
    assert_eq!(resp.status, 200);

    server.shutdown();
}

#[test]
fn registry_hot_swap_serves_new_weights_and_drops_nothing() {
    let root = std::env::temp_dir().join(format!("stwa_serve_swap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();

    // v1 weights published before the server starts.
    let v1 = model(101);
    registry
        .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", v1.store()))
        .unwrap();

    let cfg = ServeConfig {
        registry: Some((root.clone(), "ST-WA".to_string())),
        ..config()
    };
    // The builder's own weights don't matter: the server loads v1 from
    // the registry before serving.
    let server = Server::start(cfg, || Ok(model(1))).unwrap();
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();

    let window = vec![0.0f32; n * h * f];
    let v1_session = InferSession::new(&model(101)).unwrap();
    let resp = client.get("/forecast?sensor=0&horizon=2").unwrap();
    assert_eq!(resp.status, 200);
    let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
    let want = direct_eval(&v1_session, &window, n, h, f, 0, 2);
    assert_bitwise(&got, &want, "v1 forecast");
    let version_before = server.version();

    // Publish v2 and force a poll; traffic keeps flowing pipelined
    // around the swap request.
    let v2 = model(202);
    registry
        .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", v2.store()))
        .unwrap();
    client.send_get("/forecast?sensor=1&horizon=1").unwrap();
    client.send_post("/admin/swap", b"").unwrap();
    client.send_get("/forecast?sensor=0&horizon=2").unwrap();
    let pre_swap = client.recv().unwrap();
    let swap = client.recv().unwrap();
    let post_swap = client.recv().unwrap();
    assert_eq!(pre_swap.status, 200);
    assert_eq!(swap.status, 200);
    assert!(
        String::from_utf8_lossy(&swap.body).contains("\"swapped\":true"),
        "{}",
        String::from_utf8_lossy(&swap.body)
    );
    assert_eq!(post_swap.status, 200);

    // Post-swap forecasts are v2's answers, computed fresh (the v1
    // cache entries were purged with the old version).
    assert_ne!(server.version(), version_before, "swap must change the version");
    assert_eq!(server.swaps(), 1);
    let v2_session = InferSession::new(&model(202)).unwrap();
    let got = stwa_serve::proto::parse_forecast_values(&post_swap.body).unwrap();
    let want = direct_eval(&v2_session, &window, n, h, f, 0, 2);
    assert_bitwise(&got, &want, "v2 forecast after swap");

    // Zero dropped requests: everything parsed got a response. The
    // stats request itself is in flight while its body is built, so
    // it appears in `requests` but not yet in `responses`.
    let stats = client.get("/stats").unwrap();
    let doc = stwa_observe::parse_json(std::str::from_utf8(&stats.body).unwrap()).unwrap();
    let requests = doc.get("requests").unwrap().as_num().unwrap();
    let responses = doc.get("responses").unwrap().as_num().unwrap();
    assert_eq!(
        requests,
        responses + 1.0,
        "stats: {}",
        String::from_utf8_lossy(&stats.body)
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_refused_swap_keeps_serving_the_builder_weights_bitwise() {
    let root = std::env::temp_dir().join(format!("stwa_serve_refused_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();
    let cfg = ServeConfig {
        registry: Some((root.clone(), "ST-WA".to_string())),
        // Only the admin call below may try the swap.
        registry_poll: Duration::from_secs(3600),
        ..config()
    };
    // An empty registry pins version 0: the builder's own weights.
    let server = Server::start(cfg, || Ok(model(42))).unwrap();
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();
    let builder = InferSession::new(&model(42)).unwrap();
    let mut window = vec![0.0f32; n * h * f];
    let mut served_on_fresh_window = |client: &mut Client, t: usize, what: &str| {
        let fr = frame(t, n, f);
        let resp = client.post("/observe", &observe_body(&fr)).unwrap();
        assert_eq!(resp.status, 200);
        apply_frame(&mut window, &fr, n, h, f);
        for sensor in 0..n {
            let resp = client
                .get(&format!(
                    "/forecast?sensor={sensor}&horizon={}",
                    dims.horizon
                ))
                .unwrap();
            assert_eq!(resp.status, 200);
            let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
            let want = direct_eval(&builder, &window, n, h, f, sensor, dims.horizon);
            assert_bitwise(&got, &want, &format!("{what}: sensor {sensor}"));
        }
    };
    served_on_fresh_window(&mut client, 0, "before the swap");

    assert_eq!(registry.publish("ST-WA", &refused_checkpoint(7)).unwrap(), 1);
    let swap = client.post("/admin/swap", b"").unwrap();
    assert_eq!(swap.status, 200);
    assert!(
        String::from_utf8_lossy(&swap.body).contains("\"swapped\":false"),
        "{}",
        String::from_utf8_lossy(&swap.body)
    );
    assert_eq!(stats(&mut client, "swap_errors"), [1.0]);
    assert_eq!(
        server.version(),
        0,
        "a refused swap must not change the version"
    );

    // A new window misses the cache, so these are fresh forwards on the
    // session the replica kept.
    served_on_fresh_window(&mut client, 1, "after the refused swap");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_poller_tries_a_refused_version_once_and_swaps_to_the_next() {
    let root = std::env::temp_dir().join(format!("stwa_serve_poll_refused_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();
    let poll = Duration::from_millis(20);
    let cfg = ServeConfig {
        registry: Some((root.clone(), "ST-WA".to_string())),
        registry_poll: poll,
        ..config()
    };
    let server = Server::start(cfg, || Ok(model(42))).unwrap();
    let dims = server.dims();
    let (n, h, f) = (dims.sensors, dims.history, dims.features);
    let mut client = Client::connect(server.addr()).unwrap();
    let wait_for = |client: &mut Client, key: &str, value: f64| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while stats(client, key) != [value] {
            assert!(std::time::Instant::now() < deadline, "{key} never reached {value}");
            std::thread::sleep(poll / 4);
        }
    };

    // The poll finds version 1 and is refused; ten polls later it has
    // not read version 1 again.
    assert_eq!(registry.publish("ST-WA", &refused_checkpoint(7)).unwrap(), 1);
    wait_for(&mut client, "swap_errors", 1.0);
    std::thread::sleep(poll * 15);
    assert_eq!(stats(&mut client, "swap_errors"), [1.0], "the poll retried a refused version");
    assert_eq!(server.version(), 0);

    // A newer good version is the poll's to take, with no admin call.
    assert_eq!(
        registry
            .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", model(8).store()))
            .unwrap(),
        2
    );
    wait_for(&mut client, "version", 2.0);
    assert_eq!(stats(&mut client, "swaps"), [1.0]);
    assert_eq!(stats(&mut client, "swap_errors"), [1.0]);
    let resp = client.get("/forecast?sensor=0&horizon=1").unwrap();
    assert_eq!(resp.status, 200);
    let got = stwa_serve::proto::parse_forecast_values(&resp.body).unwrap();
    let v2 = InferSession::new(&model(8)).unwrap();
    let window = vec![0.0f32; n * h * f];
    let want = direct_eval(&v2, &window, n, h, f, 0, 1);
    assert_bitwise(&got, &want, "after the polled swap");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_drains_every_pipelined_request() {
    let server = Server::start(config(), || Ok(model(5))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    const K: usize = 24;
    for i in 0..K {
        client
            .send_get(&format!("/forecast?sensor={}&horizon=1", i % 3))
            .unwrap();
    }
    // Shutdown with K requests outstanding: the drain contract says
    // every one of them is answered before the threads exit.
    server.shutdown();
    for i in 0..K {
        let resp = client.recv().unwrap_or_else(|e| panic!("request {i} dropped: {e}"));
        assert_eq!(resp.status, 200, "request {i}");
    }
}

#[test]
fn a_client_that_stops_reading_is_paused_and_later_gets_every_answer_in_order() {
    use std::io::{Read, Write};
    use std::time::Instant;

    let server = Server::start(config(), || Ok(model(11))).unwrap();
    let mut other = Client::connect(server.addr()).unwrap();
    let stat = |client: &mut Client, key: &str| {
        let stats = client.get("/stats").unwrap();
        let doc = stwa_observe::parse_json(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        doc.get(key).unwrap().as_num().unwrap() as u64
    };

    // Cache every sensor, then learn a hit's exact bytes on the wire.
    let request = |sensor: usize| format!("GET /forecast?sensor={sensor}&horizon=1 HTTP/1.1\r\n\r\n");
    let mut wire: Vec<Vec<u8>> = Vec::new();
    for sensor in 0..N {
        let target = format!("/forecast?sensor={sensor}&horizon=1");
        assert_eq!(other.get(&target).unwrap().status, 200);
        let hit = other.get(&target).unwrap();
        assert!(String::from_utf8_lossy(&hit.body).contains("\"hit\""));
        let mut framed = Vec::new();
        stwa_serve::http::write_response(&mut framed, 200, "OK", "application/json", &hit.body, true);
        wire.push(framed);
    }

    // Pipeline hits without reading a byte until the socket has
    // refused more for a while: the worker has stopped reading this
    // connection and every kernel buffer between the two is full.
    let mut flood = std::net::TcpStream::connect(server.addr()).unwrap();
    flood.set_nonblocking(true).unwrap();
    let burst: Vec<u8> = (0..N * 256).flat_map(|i| request(i % N).into_bytes()).collect();
    let request_len = request(0).len();
    let mut sent = 0usize;
    let mut last_progress = Instant::now();
    while last_progress.elapsed() < Duration::from_millis(300) {
        match flood.write(&burst[sent % burst.len()..]) {
            Ok(n) => {
                sent += n;
                last_progress = Instant::now();
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("flood write: {e}"),
        }
        assert!(sent < 32 << 20, "the server kept reading from a client that never reads");
    }

    // The flooding connection is parked — its requests stay unparsed —
    // while other connections are served as usual.
    let parsed = stat(&mut other, "requests");
    assert!((parsed as usize) < sent / request_len, "part of the flood is still unread");
    let resp = other.get("/forecast?sensor=1&horizon=1").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(stat(&mut other, "requests"), parsed + 2, "only this connection's requests were parsed");

    // The client starts reading (and, once there is room, completes the
    // request its last short write cut): every answer it is owed
    // arrives, in order.
    let cut = sent % request_len;
    let mut tail: &[u8] = if cut > 0 {
        &burst[sent % burst.len()..][..request_len - cut]
    } else {
        &[]
    };
    let owed = (sent + tail.len()) / request_len;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut carry: Vec<u8> = Vec::new();
    let mut answered = 0usize;
    let mut last_progress = Instant::now();
    while answered < owed {
        assert!(
            last_progress.elapsed() < Duration::from_secs(30),
            "stuck after {answered} of {owed} answers"
        );
        if !tail.is_empty() {
            if let Ok(n) = flood.write(tail) {
                tail = &tail[n..];
            }
        }
        match flood.read(&mut chunk) {
            Ok(0) => panic!("closed after {answered} of {owed} answers"),
            Ok(n) => {
                carry.extend_from_slice(&chunk[..n]);
                last_progress = Instant::now();
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("flood read: {e}"),
        }
        let mut at = 0;
        while answered < owed && carry.len() - at >= wire[answered % N].len() {
            let want = &wire[answered % N];
            assert!(
                carry[at..].starts_with(want),
                "answer {answered} is not sensor {}'s hit",
                answered % N
            );
            at += want.len();
            answered += 1;
        }
        carry.drain(..at);
    }
    assert!(carry.is_empty());
    server.shutdown();
}
