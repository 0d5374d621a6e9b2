//! End-to-end checks of the frozen inference engine: bitwise equality
//! against the training graph's eval path, staleness refusal (direct
//! mutation and registry hot swap), replay across batch sizes, and
//! row-exact batching.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::Graph;
use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_infer::{FrozenStwa, InferSession};
use stwa_nn::layers::{Linear, Mlp};
use stwa_tensor::{manip, Tensor};

fn graph_eval(model: &StwaModel, x: &Tensor) -> Tensor {
    let g = Graph::new();
    let xv = g.constant(x.clone());
    let mut rng = StdRng::seed_from_u64(0);
    let out = model.forward(&g, &xv, &mut rng, false).unwrap();
    out.pred.value().as_ref().clone()
}

#[test]
fn frozen_forward_bitwise_matches_graph_eval_for_every_variant() {
    let configs = [
        StwaConfig::st_wa(3, 12, 4),
        StwaConfig::s_wa(3, 12, 4),
        StwaConfig::wa(3, 12, 4),
        StwaConfig::deterministic(3, 12, 4),
        StwaConfig::st_wa(3, 12, 4).with_mean_aggregator(),
        StwaConfig::st_wa(3, 12, 4).with_flow(2),
        StwaConfig::s_wa(3, 12, 4).with_flow(2),
        StwaConfig::st_wa(3, 12, 4).with_generated_sca(),
        StwaConfig::s_wa(3, 12, 4).with_generated_sca(),
        StwaConfig {
            sensor_attention: false,
            ..StwaConfig::st_wa(3, 12, 4)
        },
        StwaConfig::wa_1(3, 12, 4),
        StwaConfig::st_wa(3, 12, 4)
            .with_sensor_graph(std::sync::Arc::new(stwa_tensor::SensorGraph::complete(3))),
        StwaConfig::st_wa(3, 12, 4).with_sensor_graph(std::sync::Arc::new(
            stwa_tensor::SensorGraph::from_neighbor_lists(3, &[vec![0, 1], vec![0, 1, 2], vec![1, 2]])
                .unwrap(),
        )),
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        let model = StwaModel::new(cfg, &mut rng).unwrap();
        let session = InferSession::new(&model).unwrap();
        for b in [1usize, 3] {
            let x = Tensor::randn(&[b, 3, 12, 1], &mut rng);
            let want = graph_eval(&model, &x);
            let got = session.run(&x).unwrap();
            assert_eq!(want.shape(), got.shape(), "variant {i}, batch {b}");
            assert_eq!(
                want.data(),
                got.data(),
                "variant {i}, batch {b}: frozen path diverged from graph eval"
            );
        }
    }
}

/// A ring graph: every sensor attends to itself and its two neighbours.
fn ring(n: usize) -> std::sync::Arc<stwa_tensor::SensorGraph> {
    let lists: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let mut l = vec![(i + n - 1) % n, i, (i + 1) % n];
            l.sort_unstable();
            l.dedup();
            l
        })
        .collect();
    std::sync::Arc::new(stwa_tensor::SensorGraph::from_neighbor_lists(n, &lists).unwrap())
}

#[test]
fn lazy_decode_is_bitwise_at_sensor_counts_off_the_block() {
    // The dynamic generator decodes its last layer a block of sensors
    // at a time; (sample, sensor) pairs below one block, just past one
    // and across several — with the batch boundary falling inside a
    // block — must all serve the graph path's bits, for every variant
    // that changes what the walk decodes or who consumes it.
    for (i, n) in [5usize, 33, 70].into_iter().enumerate() {
        let configs = [
            StwaConfig::st_wa(n, 12, 4),
            StwaConfig::st_wa(n, 12, 4).with_flow(2),
            StwaConfig::st_wa(n, 12, 4).with_generated_sca(),
            StwaConfig::st_wa(n, 12, 4).with_sensor_graph(ring(n)),
            StwaConfig::st_wa(n, 12, 4)
                .with_generated_sca()
                .with_sensor_graph(ring(n)),
            StwaConfig::st_wa(n, 12, 4)
                .with_proxies(2)
                .with_windows(&[4, 3]),
        ];
        for (j, cfg) in configs.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(300 + (10 * i + j) as u64);
            let model = StwaModel::new(cfg, &mut rng).unwrap();
            let session = InferSession::new(&model).unwrap();
            for b in [1usize, 3] {
                let x = Tensor::randn(&[b, n, 12, 1], &mut rng);
                let want = graph_eval(&model, &x);
                let got = session.run(&x).unwrap();
                assert_eq!(want.shape(), got.shape(), "N {n}, variant {j}, batch {b}");
                assert!(
                    want.data() == got.data(),
                    "N {n}, variant {j}, batch {b}: frozen path diverged from graph eval"
                );
            }
        }
    }
}

#[test]
fn frozen_sparse_complete_graph_matches_dense_bitwise() {
    // Same seed -> identical parameters; the only difference is the
    // attention support, and a complete graph must reproduce the dense
    // fold orders exactly, through freeze and serve.
    let n = 5;
    let dense = StwaModel::new(StwaConfig::st_wa(n, 12, 4), &mut StdRng::seed_from_u64(7)).unwrap();
    let sparse = StwaModel::new(
        StwaConfig::st_wa(n, 12, 4)
            .with_sensor_graph(std::sync::Arc::new(stwa_tensor::SensorGraph::complete(n))),
        &mut StdRng::seed_from_u64(7),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let x = Tensor::randn(&[2, n, 12, 1], &mut rng);
    let a = InferSession::new(&dense).unwrap().run(&x).unwrap();
    let b = InferSession::new(&sparse).unwrap().run(&x).unwrap();
    assert_eq!(a.data(), b.data());
}

#[test]
fn stale_session_refuses_to_serve() {
    let mut rng = StdRng::seed_from_u64(7);
    let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
    let session = InferSession::new(&model).unwrap();
    let x = Tensor::randn(&[2, 3, 12, 1], &mut rng);
    assert!(!session.is_stale());
    session.run(&x).unwrap();

    // Mutate one parameter, as an optimizer step would.
    let p = &model.store().params()[0];
    let mut v = p.value();
    v.data_mut()[0] += 1.0;
    p.set_value(v);

    assert!(session.is_stale());
    let err = session.run(&x).unwrap_err();
    assert!(
        format!("{err}").contains("stale"),
        "expected a staleness refusal, got: {err}"
    );

    // Re-freezing picks the new weights up and serves again, matching
    // the mutated model's graph path.
    let fresh = InferSession::new(&model).unwrap();
    assert_eq!(fresh.run(&x).unwrap().data(), graph_eval(&model, &x).data());
}

#[test]
fn a_replay_after_another_batch_size_is_bitwise_stable() {
    let mut rng = StdRng::seed_from_u64(8);
    let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
    let session = InferSession::new(&model).unwrap();
    let x2 = Tensor::randn(&[2, 3, 12, 1], &mut rng);
    let x5 = Tensor::randn(&[5, 3, 12, 1], &mut rng);
    let first = session.run(&x2).unwrap();
    session.run(&x5).unwrap();
    let again = session.run(&x2).unwrap();
    assert_eq!(first.data(), again.data());
}

#[test]
fn frozen_snapshot_reports_packed_bytes() {
    let mut rng = StdRng::seed_from_u64(9);
    let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
    let session = InferSession::new(&model).unwrap();
    assert!(session.frozen().packed_bytes() > 0);
    assert_eq!(session.frozen().num_sensors(), 3);
    assert_eq!(session.frozen().input_len(), 12);
    assert_eq!(session.frozen().horizon(), 4);
    assert_eq!(session.frozen().features(), 1);
}

/// Bytes a `[k, n]` weight's panels hold at their real depth: `k` rows
/// of `n` rounded up to whole 16-wide strips, no slab padding.
fn panel_bytes(w: &Tensor) -> usize {
    let (k, n) = (w.shape()[0], w.shape()[1]);
    4 * k * n.div_ceil(16) * 16
}

fn linear_bytes(l: &Linear) -> usize {
    panel_bytes(&l.weight_param().value())
}

fn mlp_bytes(m: &Mlp) -> usize {
    m.layers().iter().map(linear_bytes).sum()
}

#[test]
fn serving_snapshot_panels_are_its_weights_without_slab_padding() {
    // The widths `stwa-serve` runs behind the socket: a 2048-wide
    // decoder output layer over a 128-deep hidden layer, 32-deep
    // projections — contractions far shallower than one packed slab.
    let mut cfg = StwaConfig::st_wa(48, 12, 3);
    cfg.d = 32;
    cfg.heads = 8;
    cfg.k = 32;
    cfg.predictor_hidden = 512;
    cfg.decoder_hidden = (64, 128);
    let mut rng = StdRng::seed_from_u64(48);
    let model = StwaModel::new(cfg, &mut rng).unwrap();
    let mut want =
        model.skips().iter().map(linear_bytes).sum::<usize>() + mlp_bytes(model.predictor());
    for layer in model.layers() {
        let (k, v) = layer.shared_projections();
        let (w1, w2) = layer.agg_weights();
        want += [k, v, layer.fusion()].into_iter().flatten().map(linear_bytes).sum::<usize>()
            + panel_bytes(&w1.value())
            + panel_bytes(&w2.value());
        if let Some(sca) = layer.sensor_attention() {
            let (t1, t2) = sca.shared_transforms();
            want += [t1, t2].into_iter().flatten().map(linear_bytes).sum::<usize>();
        }
    }
    let gen = model.generator().expect("ST-WA generates its projections");
    let temporal = gen.temporal().expect("ST-WA has a temporal latent");
    want += mlp_bytes(temporal.body()) + linear_bytes(temporal.head_mu());
    want += gen.decoders().iter().map(|d| mlp_bytes(d.mlp())).sum::<usize>();
    want += gen.sca_decoders().map_or(0, |d| d.iter().map(|d| mlp_bytes(d.mlp())).sum());
    let frozen = FrozenStwa::freeze(&model).unwrap();
    assert_eq!(frozen.packed_bytes(), want);
}

#[test]
fn batched_rows_match_individual_runs_bitwise() {
    // Batch-8/64 serving and every stacked caller rely on this: row i
    // of `run(concat(rows))` is bitwise `run(row i)`.
    let mut rng = StdRng::seed_from_u64(10);
    let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
    let session = InferSession::new(&model).unwrap();
    let rows: Vec<Tensor> = (0..4)
        .map(|_| Tensor::randn(&[1, 3, 12, 1], &mut rng))
        .collect();
    let batched = session
        .run(&manip::concat(&rows.iter().collect::<Vec<_>>(), 0).unwrap())
        .unwrap();
    for (i, row) in rows.iter().enumerate() {
        let want = session.run(row).unwrap();
        let got = batched.narrow(0, i, 1).unwrap();
        assert_eq!(want.data(), got.data(), "batched row {i} diverged");
    }
}

fn sample(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(&[1, 3, 12, 1], &mut rng)
}

#[test]
fn registry_hot_swap_staleness_error_then_fresh_session_serves() {
    let root = std::env::temp_dir().join(format!("stwa_engine_hot_swap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Registry::open(&root).unwrap();
    let model = |seed: u64| {
        StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut StdRng::seed_from_u64(seed)).unwrap()
    };

    // v1: the live model's weights, published to the registry, and a
    // serving session frozen from them.
    let m = model(13);
    registry
        .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", m.store()))
        .unwrap();
    let session = InferSession::new(&m).unwrap();
    session.run(&sample(70)).unwrap();

    // v2: different weights (a fresh model stands in for "more
    // training"), published on top.
    let retrained = model(99);
    registry
        .publish("ST-WA", &TrainCheckpoint::params_only("ST-WA", retrained.store()))
        .unwrap();

    // Hot swap: load v2 from the registry into the live model and
    // freeze. This mutates the store, so the OLD session is now stale
    // and refuses with the typed error.
    let fresh = FrozenStwa::freeze_from_registry(&m, &registry, "ST-WA", None).unwrap();
    assert!(session.is_stale());
    let x = sample(71);
    let err = session.run(&x).unwrap_err();
    assert!(err.to_string().contains("stale"), "got: {err}");

    // A session over the swapped-in snapshot serves the v2 weights:
    // bitwise equal to freezing the retrained model directly.
    let got = InferSession::from_frozen(fresh).run(&x).unwrap();
    let want = InferSession::new(&retrained).unwrap().run(&x).unwrap();
    assert_eq!(got.data(), want.data(), "hot-swapped weights diverged");

    // Pinned-version load still reaches v1.
    let v1 = FrozenStwa::freeze_from_registry(&m, &registry, "ST-WA", Some(1)).unwrap();
    let want_v1 = InferSession::new(&model(13)).unwrap().run(&x).unwrap();
    let got_v1 = InferSession::from_frozen(v1).run(&x).unwrap();
    assert_eq!(got_v1.data(), want_v1.data(), "pinned v1 load diverged");

    let _ = std::fs::remove_dir_all(&root);
}
