//! Property tests for the inference engine's bitwise contract:
//!
//! 1. `InferSession::run` equals the training graph's eval forward
//!    bit-for-bit across random model configurations (awareness
//!    variants, window schedules, proxy counts, sensor attention on or
//!    off, aggregators, flows) and random inputs.
//! 2. Freezing a model configured with a complete (`k = N - 1`) sparse
//!    sensor graph serves the dense model's bits — the frozen leg of
//!    the sparse-attention dense-equivalence gate (DESIGN.md §13).
//! 3. `matmul_packed` over a pre-packed B equals the reference triple
//!    loop bit-for-bit for arbitrary shapes.
//! 4. The same contract as 1 at sensor counts on either side of the
//!    lazy decoder's sensor block, for the variants that change what
//!    the block walk decodes.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::Graph;
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_infer::InferSession;
use stwa_tensor::linalg::{matmul_packed, matmul_reference, Epilogue, PackedMatrix};
use stwa_tensor::{SensorGraph, Tensor};

fn build_config(variant: u8, windows: u8, proxies: usize, sca: bool, mean_agg: bool) -> StwaConfig {
    let (n, h, u) = (3, 12, 2);
    let mut cfg = match variant % 5 {
        0 => StwaConfig::st_wa(n, h, u),
        1 => StwaConfig::s_wa(n, h, u),
        2 => StwaConfig::wa(n, h, u),
        3 => StwaConfig::st_wa(n, h, u).with_flow(2),
        _ => StwaConfig::st_wa(n, h, u).with_generated_sca(),
    };
    cfg = match windows % 4 {
        0 => cfg.with_windows(&[3, 2, 2]),
        1 => cfg.with_windows(&[4, 3]),
        2 => cfg.with_windows(&[12]),
        _ => cfg.with_windows(&[6, 2]),
    };
    cfg = cfg.with_proxies(proxies);
    cfg.sensor_attention = sca;
    if mean_agg {
        cfg = cfg.with_mean_aggregator();
    }
    // Generated SCA requires sensor attention to matter; keep the flag
    // combination legal either way (the constructor tolerates both).
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frozen_session_bitwise_matches_graph_eval(
        shape_sel in (0u8..5, 0u8..4, 1usize..=2),
        flags in (any::<bool>(), any::<bool>()),
        batch in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let (variant, windows, proxies) = shape_sel;
        let (sca, mean_agg) = flags;
        let cfg = build_config(variant, windows, proxies, sca, mean_agg);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = StwaModel::new(cfg, &mut rng).unwrap();
        let x = Tensor::randn(&[batch, 3, 12, 1], &mut rng);

        let g = Graph::new();
        let mut eval_rng = StdRng::seed_from_u64(0);
        let want = model
            .forward(&g, &g.constant(x.clone()), &mut eval_rng, false)
            .unwrap()
            .pred;

        let session = InferSession::new(&model).unwrap();
        let got = session.run(&x).unwrap();
        prop_assert_eq!(want.shape(), got.shape().to_vec());
        prop_assert_eq!(want.value().data(), got.data());
    }

    /// Frozen sparse-complete ≡ frozen dense, bit for bit, for random
    /// sensor counts and seeds.
    #[test]
    fn frozen_sparse_complete_graph_matches_dense(
        n in 2usize..6,
        batch in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let dense = StwaModel::new(
            StwaConfig::st_wa(n, 12, 2),
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let sparse = StwaModel::new(
            StwaConfig::st_wa(n, 12, 2)
                .with_sensor_graph(std::sync::Arc::new(SensorGraph::complete(n))),
            &mut StdRng::seed_from_u64(seed),
        ).unwrap();
        let x = Tensor::randn(&[batch, n, 12, 1], &mut StdRng::seed_from_u64(seed ^ 0xabcd));

        let a = InferSession::new(&dense).unwrap().run(&x).unwrap();
        let b = InferSession::new(&sparse).unwrap().run(&x).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&a), bits(&b), "frozen sparse-complete diverged from dense");
    }

    /// The dynamic generator walks its sensors a block at a time;
    /// whatever the remainder, and wherever the batch boundary falls
    /// inside a block, the served bits are the graph path's.
    #[test]
    fn frozen_session_bitwise_matches_graph_eval_across_sensor_blocks(
        n in 60usize..72,
        variant in 0u8..4,
        batch in 1usize..=3,
        seed in 0u64..1_000_000,
    ) {
        let cfg = match variant {
            0 => StwaConfig::st_wa(n, 12, 2),
            1 => StwaConfig::st_wa(n, 12, 2).with_flow(1),
            2 => StwaConfig::st_wa(n, 12, 2).with_generated_sca(),
            _ => StwaConfig::deterministic(n, 12, 2).with_proxies(2),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let model = StwaModel::new(cfg, &mut rng).unwrap();
        let x = Tensor::randn(&[batch, n, 12, 1], &mut rng);
        let want = model.forward_nograd(&x).unwrap();
        let got = InferSession::new(&model).unwrap().run(&x).unwrap();
        prop_assert_eq!(want.shape(), got.shape());
        prop_assert!(want.data() == got.data(), "N {} variant {} batch {}", n, variant, batch);
    }

    #[test]
    fn packed_gemm_bitwise_matches_reference(
        dims in (1usize..48, 1usize..48, 1usize..48),
        seed in 0u64..1_000_000,
    ) {
        let (m, k, n) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let packed = PackedMatrix::pack(&b).unwrap();
        let want = matmul_reference(&a, &b).unwrap();
        let got = matmul_packed(&a, &packed, Epilogue::NONE).unwrap();
        prop_assert_eq!(want.data(), got.data());
    }

    #[test]
    fn packed_gemm_with_leading_axes_matches_reference(
        dims in (1usize..4, 1usize..12, 1usize..24, 1usize..24),
        seed in 0u64..1_000_000,
    ) {
        let (lead, m, k, n) = dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[lead, m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let packed = PackedMatrix::pack(&b).unwrap();
        let flat = a.reshape(&[lead * m, k]).unwrap();
        let want = matmul_reference(&flat, &b).unwrap();
        let got = matmul_packed(&a, &packed, Epilogue::NONE).unwrap();
        prop_assert_eq!(got.shape(), &[lead, m, n]);
        prop_assert_eq!(want.data(), got.reshape(&[lead * m, n]).unwrap().data());
    }
}
