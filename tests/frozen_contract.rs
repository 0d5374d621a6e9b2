//! The serving engine's contract in the tier-1 command: at the
//! benchmark's serving widths, `InferSession::run` is
//! `StwaModel::forward_nograd` bit for bit.
//!
//! The per-crate suites (`crates/infer/tests/`) hold the contract
//! across every model variant on narrow models; this one holds it where
//! the serving path's kernels actually run — `[N, 128] x [128, 2048]`
//! decoder products walked by sensor block, 32-wide register tiles,
//! packed fusion panels — dense at the served 48 sensors and with the
//! city workload's corridor-local sparse sensor attention.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_wa::infer::InferSession;
use st_wa::model::{StwaConfig, StwaModel};
use st_wa::tensor::Tensor;
use st_wa::traffic::RoadNetwork;

/// `benchmark/`'s serving widths over `n` sensors.
fn serving_widths(n: usize, u: usize) -> StwaConfig {
    let mut cfg = StwaConfig::st_wa(n, 12, u);
    cfg.d = 32;
    cfg.heads = 8;
    cfg.k = 32;
    cfg.predictor_hidden = 512;
    cfg.decoder_hidden = (64, 128);
    cfg
}

fn assert_frozen_is_graph(cfg: StwaConfig, seed: u64) {
    let n = cfg.n;
    let mut rng = StdRng::seed_from_u64(seed);
    let model = StwaModel::new(cfg, &mut rng).expect("model");
    let session = InferSession::new(&model).expect("freeze");
    for batch in [1usize, 2] {
        let x = Tensor::randn(&[batch, n, 12, 1], &mut rng);
        let want = model.forward_nograd(&x).expect("graph-path forward");
        let got = session.run(&x).expect("frozen forward");
        assert_eq!(want.shape(), got.shape(), "N {n}, batch {batch}");
        assert!(
            want.data()
                .iter()
                .zip(got.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "N {n}, batch {batch}: frozen forward diverged from forward_nograd"
        );
    }
}

#[test]
fn serving_model_dense_48_sensors() {
    assert_frozen_is_graph(serving_widths(48, 3), 48);
}

#[test]
fn city_model_sparse_64_sensors() {
    let network = RoadNetwork::generate(8, 8, &mut StdRng::seed_from_u64(64));
    let graph = Arc::new(network.sensor_graph(2));
    assert_frozen_is_graph(serving_widths(64, 12).with_sensor_graph(graph), 64);
}
