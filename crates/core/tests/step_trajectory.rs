//! Bitwise anchor for the training step: three full ST-WA optimization
//! steps (forward, Huber + KL, backward, Adam) on the benchmark's
//! `train_epoch` shape must reproduce the recorded loss bits and
//! parameter checksum exactly.
//!
//! The sibling determinism tests compare two runs of the *same* build
//! (1 vs N threads, straight vs resumed), so a kernel change that moves
//! every run by the same ulp passes them all. These
//! constants hold the step to the order contract — one ascending f32
//! chain per product element, one fused multiply-add per term,
//! reductions in recorded order — across builds. A deliberate numeric
//! change must re-derive them, not loosen them: the checksum was
//! re-derived once, when contractions went from rounding each product
//! to fusing each term (the loss bits of the three steps did not move).
//!
//! The second test repeats the steps on a buffer pool seeded with NaN:
//! every kernel draws its output from the pool unfilled, so one that
//! reads an element it never wrote, or starts a sum from its output
//! buffer instead of zero, turns the loss or a parameter into NaN and
//! misses the same constants.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::Graph;
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_nn::loss::huber;
use stwa_nn::optim::{Adam, Optimizer};
use stwa_tensor::{memory, Tensor};

/// Loss of steps 0, 1, 2 as raw f32 bits.
const RECORDED_LOSS_BITS: [u32; 3] = [0x3ee2_4263, 0x3ee1_a9da, 0x3ee1_0d8b];
/// FNV-1a over every parameter's f32 bits, in store order, after step 2.
const RECORDED_PARAM_CHECKSUM: u64 = 0xc718_d266_936d_88cd;

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

/// Park NaN-filled buffers on top of every pool free list a step draws
/// from (capacities `2^6 ..= 2^20` floats, a few MiB per class), so the
/// next `take_scratch` of each size hands out poisoned memory. Best
/// effort — the free lists are LIFO and shared with the other test —
/// so it can only make the run stricter, never flaky. It does assert
/// that the pool kept every poisoned buffer, so no retention policy can
/// disarm the check by sending them back to the allocator.
fn poison_pool() {
    for class in 6..=20usize {
        let cap = 1usize << class;
        let count = ((1usize << 20) / cap).clamp(2, 256);
        let dirty: Vec<Vec<f32>> = (0..count)
            .map(|_| memory::take_filled(cap, f32::NAN))
            .collect();
        let poisoned: usize = dirty.iter().map(|b| b.capacity() * 4).sum();
        let parked: usize = dirty
            .into_iter()
            .map(|b| b.capacity() * 4 * memory::recycle(b) as usize)
            .sum();
        assert_eq!(
            parked, poisoned,
            "the pool must keep the class-{class} poisoned buffers"
        );
    }
}

/// Three optimization steps; the loss bits of each and the parameter
/// checksum after the last.
fn three_steps(poisoned: bool) -> ([u32; 3], u64) {
    let mut rng = StdRng::seed_from_u64(15);
    let model = StwaModel::new(StwaConfig::st_wa(20, 12, 12), &mut rng).expect("model");
    let mut opt = Adam::new(model.store(), 1e-3);
    let bx = Tensor::randn(&[32, 20, 12, 1], &mut rng);
    let by = Tensor::randn(&[32, 20, 12, 1], &mut rng);

    let mut losses = [0u32; 3];
    for slot in &mut losses {
        if poisoned {
            poison_pool();
        }
        let graph = Graph::new();
        let x = graph.constant(bx.clone());
        let out = model.forward(&graph, &x, &mut rng, true).expect("forward");
        let target = graph.constant(by.clone());
        let mut loss = huber(&out.pred, &target, 1.0).expect("huber");
        if let Some(reg) = out.regularizer {
            loss = loss.add(&reg).expect("regularizer");
        }
        *slot = loss.value().item().expect("scalar loss").to_bits();
        if poisoned {
            poison_pool();
        }
        graph.backward(&loss).expect("backward");
        opt.step();
        opt.finish_step();
    }
    (losses, param_checksum(&model))
}

fn assert_recorded((losses, checksum): ([u32; 3], u64)) {
    assert_eq!(
        losses, RECORDED_LOSS_BITS,
        "loss trajectory moved: {losses:#010x?}"
    );
    assert_eq!(
        checksum, RECORDED_PARAM_CHECKSUM,
        "parameters after three steps moved: {checksum:#018x}"
    );
}

#[test]
fn three_steps_reproduce_recorded_bits() {
    assert_recorded(three_steps(false));
}

#[test]
fn three_steps_on_a_nan_poisoned_pool_reproduce_recorded_bits() {
    assert_recorded(three_steps(true));
}
