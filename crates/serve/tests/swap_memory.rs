//! Hot swaps must not accumulate retired weights in the tensor buffer
//! pool: each `/admin/swap` loads a new version and drops the old one,
//! and the pool keeps only what its own traffic re-draws, so what it
//! holds settles after the first swaps instead of growing by a model's
//! weights per swap.
//!
//! A test binary of its own: it reads the process-global pool, which
//! other tests running beside it would move.

#![cfg(target_os = "linux")]

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_serve::{Client, ServeConfig, Server};
use stwa_tensor::memory;

const SWAPS: usize = 12;

/// The serving widths (`d = 32`, decoder hidden `(64, 128)`), whose
/// decoder output weights are `[128, 2048]`: 1 MiB each.
fn serving_config() -> StwaConfig {
    let mut cfg = StwaConfig::st_wa(8, 12, 3);
    cfg.d = 32;
    cfg.heads = 8;
    cfg.k = 32;
    cfg.predictor_hidden = 512;
    cfg.decoder_hidden = (64, 128);
    cfg
}

fn model(seed: u64) -> StwaModel {
    StwaModel::new(serving_config(), &mut StdRng::seed_from_u64(seed)).unwrap()
}

#[test]
fn the_pool_holds_steady_across_hot_swaps() {
    let root = std::env::temp_dir().join(format!("stwa_swap_memory_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();
    let publish = |m: &StwaModel| {
        registry
            .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", m.store()))
            .unwrap();
    };

    // Every version is built before the server starts, so the only
    // allocations during the swaps are the server's own.
    let models: Vec<StwaModel> = (0..=SWAPS as u64).map(|v| model(100 + v)).collect();
    publish(&models[0]);
    let cfg = ServeConfig {
        io_threads: 1,
        registry_poll: Duration::from_secs(600),
        registry: Some((root.clone(), "ST-WA".to_string())),
        ..ServeConfig::default()
    };
    let server = Server::start(cfg, || Ok(model(1))).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let mut held = Vec::new();
    for next in &models[1..] {
        publish(next);
        let resp = client.post("/admin/swap", b"").unwrap();
        let body = String::from_utf8_lossy(&resp.body).to_string();
        assert_eq!(resp.status, 200, "{body}");
        assert!(body.contains("\"swapped\":true"), "{body}");
        held.push(memory::pool_stats().held_bytes);
    }
    assert_eq!(server.swaps() as usize, SWAPS);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);

    let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
    let (second, last) = (held[1], held[SWAPS - 1]);
    assert!(
        (mib(last) - mib(second)).abs() <= 0.5,
        "pool held {:.2} MiB after swap 2 and {:.2} MiB after swap {SWAPS}: {:?}",
        mib(second),
        mib(last),
        held.iter()
            .map(|&b| format!("{:.2}", mib(b)))
            .collect::<Vec<_>>()
    );
}
