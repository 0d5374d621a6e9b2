//! End-to-end checks of the frozen inference engine: bitwise equality
//! against the training graph's eval path, staleness refusal, plan
//! reuse, and micro-batching semantics.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;
use stwa_autograd::Graph;
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_infer::{InferQueue, InferSession, QueueConfig};
use stwa_tensor::Tensor;

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
fn plan_arena_reuses_per_batch_size_plans() {
    let mut rng = StdRng::seed_from_u64(8);
    let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
    let session = InferSession::new(&model).unwrap();
    assert_eq!(session.plan_count(), 0);
    let x2 = Tensor::randn(&[2, 3, 12, 1], &mut rng);
    let x5 = Tensor::randn(&[5, 3, 12, 1], &mut rng);
    let first = session.run(&x2).unwrap();
    assert_eq!(session.plan_count(), 1);
    session.run(&x5).unwrap();
    assert_eq!(session.plan_count(), 2);
    // Replays at known batch sizes add no plans and stay bitwise stable.
    let again = session.run(&x2).unwrap();
    assert_eq!(session.plan_count(), 2);
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

#[test]
fn queue_batched_results_match_individual_runs_bitwise() {
    let mut rng = StdRng::seed_from_u64(10);
    let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
    let reference = InferSession::new(&model).unwrap();
    let session = InferSession::new(&model).unwrap();
    let mut queue = InferQueue::new(
        session,
        QueueConfig {
            max_batch: 4,
            max_wait: Duration::from_secs(3600),
        },
    )
    .unwrap();

    let rows: Vec<Tensor> = (0..4)
        .map(|_| Tensor::randn(&[3, 12, 1], &mut rng))
        .collect();
    let mut ids = Vec::new();
    for row in &rows {
        ids.push(queue.submit(row.clone()).unwrap());
    }
    // 4th submit hit max_batch and flushed inline.
    assert_eq!(queue.pending_rows(), 0);
    for (id, row) in ids.iter().zip(&rows) {
        let got = queue.take(*id).expect("flushed result available");
        let want = reference.run(&row.clone().unsqueeze(0).unwrap()).unwrap();
        assert_eq!(want.data(), got.data(), "batched row diverged");
    }
    // Tickets are single-use.
    assert!(queue.take(ids[0]).is_none());
}

#[test]
fn queue_flushes_on_wait_and_rejects_bad_shapes() {
    let mut rng = StdRng::seed_from_u64(11);
    let model = StwaModel::new(StwaConfig::wa(3, 12, 4), &mut rng).unwrap();
    let session = InferSession::new(&model).unwrap();
    let mut queue = InferQueue::new(
        session,
        QueueConfig {
            max_batch: 64,
            max_wait: Duration::from_millis(0),
        },
    )
    .unwrap();

    // Nothing pending: poll is a no-op.
    assert_eq!(queue.poll().unwrap(), 0);

    let id = queue
        .submit(Tensor::randn(&[1, 3, 12, 1], &mut rng))
        .unwrap();
    assert_eq!(queue.pending_rows(), 1);
    assert!(queue.take(id).is_none(), "not flushed yet");
    // max_wait = 0: the next poll flushes immediately.
    assert_eq!(queue.poll().unwrap(), 1);
    assert_eq!(queue.take(id).unwrap().shape(), &[1, 3, 4, 1]);

    // Wrong shapes are rejected at submit.
    assert!(queue.submit(Tensor::zeros(&[2, 3, 12, 1])).is_err());
    assert!(queue.submit(Tensor::zeros(&[12, 1])).is_err());

    // Forced flush drains the remainder.
    queue.submit(Tensor::randn(&[3, 12, 1], &mut rng)).unwrap();
    assert_eq!(queue.flush().unwrap(), 1);
    assert_eq!(queue.flush().unwrap(), 0);
}

#[test]
fn queue_surfaces_staleness_and_recovers_after_refreeze() {
    let mut rng = StdRng::seed_from_u64(12);
    let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
    let session = InferSession::new(&model).unwrap();
    let mut queue = InferQueue::new(session, QueueConfig::default()).unwrap();

    let id = queue.submit(Tensor::randn(&[3, 12, 1], &mut rng)).unwrap();
    let p = &model.store().params()[0];
    let mut v = p.value();
    v.data_mut()[0] -= 0.5;
    p.set_value(v);

    // The flush fails but keeps the request queued.
    assert!(queue.flush().is_err());
    assert_eq!(queue.pending_rows(), 1);
    assert!(queue.take(id).is_none());
}
