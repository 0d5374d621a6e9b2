//! Bitwise anchor for the training step: three full ST-WA optimization
//! steps (forward, Huber + KL, backward, Adam) on the benchmark's
//! `train_epoch` shape must reproduce the recorded loss bits and
//! parameter checksum exactly.
//!
//! The sibling determinism tests compare two runs of the *same* build
//! (pool on/off, 1 vs N threads, straight vs resumed), so a kernel
//! change that moves every run by the same ulp passes them all. These
//! constants were recorded before the GEMM kernels were rebuilt
//! (write-mode output, register-tiled small products, folded shared
//! operands, fused weight-gradient reduction); they hold the step to
//! the order contract — one ascending f32 chain per product element,
//! reductions in recorded order — across builds. A deliberate numeric
//! change must re-derive them, not loosen them.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::Graph;
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_nn::loss::huber;
use stwa_nn::optim::{Adam, Optimizer};
use stwa_tensor::Tensor;

/// Loss of steps 0, 1, 2 as raw f32 bits.
const RECORDED_LOSS_BITS: [u32; 3] = [0x3ee2_4263, 0x3ee1_a9da, 0x3ee1_0d8b];
/// FNV-1a over every parameter's f32 bits, in store order, after step 2.
const RECORDED_PARAM_CHECKSUM: u64 = 0x56ca_a36e_939f_2dce;

fn param_checksum(model: &StwaModel) -> u64 {
    let bytes: Vec<u8> = model
        .store()
        .params()
        .iter()
        .flat_map(|p| {
            p.value()
                .data()
                .iter()
                .flat_map(|x| x.to_bits().to_le_bytes())
                .collect::<Vec<_>>()
        })
        .collect();
    stwa_ckpt::fnv1a64(&bytes)
}

#[test]
fn three_steps_reproduce_recorded_bits() {
    let mut rng = StdRng::seed_from_u64(15);
    let model = StwaModel::new(StwaConfig::st_wa(20, 12, 12), &mut rng).expect("model");
    let mut opt = Adam::new(model.store(), 1e-3);
    let bx = Tensor::randn(&[32, 20, 12, 1], &mut rng);
    let by = Tensor::randn(&[32, 20, 12, 1], &mut rng);

    let mut losses = [0u32; 3];
    for slot in &mut losses {
        let graph = Graph::new();
        let x = graph.constant(bx.clone());
        let out = model.forward(&graph, &x, &mut rng, true).expect("forward");
        let target = graph.constant(by.clone());
        let mut loss = huber(&out.pred, &target, 1.0).expect("huber");
        if let Some(reg) = out.regularizer {
            loss = loss.add(&reg).expect("regularizer");
        }
        *slot = loss.value().item().expect("scalar loss").to_bits();
        graph.backward(&loss).expect("backward");
        opt.step();
        opt.finish_step();
    }

    assert_eq!(
        losses, RECORDED_LOSS_BITS,
        "loss trajectory moved: {losses:#010x?}"
    );
    let checksum = param_checksum(&model);
    assert_eq!(
        checksum, RECORDED_PARAM_CHECKSUM,
        "parameters after three steps moved: {checksum:#018x}"
    );
}
