//! Property-based tests of the nn layer semantics: gradient-checked
//! layers on random inputs, batching invariants, loss identities.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::{check_gradient, Graph, Var};
use stwa_nn::batch::BatchIter;
use stwa_nn::layers::{Activation, GruCell, LayerNorm, Linear, Mlp};
use stwa_nn::loss::{huber, huber_reference, kl_standard_normal, mae, mse};
use stwa_nn::ParamStore;
use stwa_tensor::Tensor;

fn vecs(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linear_layer_gradcheck(data in vecs(6), seed in 0u64..100) {
        let x = Tensor::from_vec(data, &[2, 3]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            let store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let lin = Linear::new(&store, "l", 3, 4, &mut rng);
            lin.forward(v.graph(), v)?.square()?.mean_all()
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn layernorm_gradcheck(data in vecs(8), seed in 0u64..100) {
        // Keep some spread so the variance is well-conditioned.
        let x = Tensor::from_vec(
            data.iter().enumerate().map(|(i, v)| v + i as f32 * 0.3).collect(),
            &[2, 4],
        ).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            let store = ParamStore::new();
            let ln = LayerNorm::new(&store, "ln", 4);
            ln.forward(v.graph(), v)?.square()?.mean_all()
        }).unwrap();
        let _ = seed;
        prop_assert!(r.passes(5e-2), "{r:?}");
    }

    #[test]
    fn gru_cell_gradcheck(data in vecs(4), seed in 0u64..50) {
        let x = Tensor::from_vec(data, &[2, 2]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            let store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let cell = GruCell::new(&store, "g", 2, 3, &mut rng);
            let h = v.graph().constant(Tensor::zeros(&[2, 3]));
            cell.step(v.graph(), v, &h)?.square()?.mean_all()
        }).unwrap();
        prop_assert!(r.passes(4e-2), "{r:?}");
    }

    #[test]
    fn mlp_composes_like_manual_layers(data in vecs(6), seed in 0u64..50) {
        // An MLP with identity activations equals chaining its Linears.
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&store, "m", &[3, 5, 2],
            &[Activation::Identity, Activation::Identity], &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(data, &[2, 3]).unwrap());
        let via_mlp = mlp.forward(&g, &x).unwrap();
        // Manual: layer params live in the same store (w0, b0, w1, b1).
        let params = store.params();
        let w0 = g.constant(params[0].value());
        let b0 = g.constant(params[1].value());
        let w1 = g.constant(params[2].value());
        let b1 = g.constant(params[3].value());
        let manual = x.matmul(&w0).unwrap().add(&b0).unwrap()
            .matmul(&w1).unwrap().add(&b1).unwrap();
        prop_assert!(via_mlp.value().approx_eq(&manual.value(), 1e-5));
    }

    #[test]
    fn huber_between_zero_and_mae_scaled(p in vecs(6), t in vecs(6), delta in 0.1f32..3.0) {
        // 0 <= H(p, t) <= delta * mean|p - t|
        let g = Graph::new();
        let pv = g.constant(Tensor::from_vec(p.clone(), &[6]).unwrap());
        let tv = g.constant(Tensor::from_vec(t.clone(), &[6]).unwrap());
        let h = huber(&pv, &tv, delta).unwrap().value().item().unwrap();
        let m = mae(&pv, &tv).unwrap().value().item().unwrap();
        prop_assert!(h >= 0.0);
        prop_assert!(h <= delta * m + 1e-5, "h={h} delta*mae={}", delta * m);
    }

    #[test]
    fn huber_converges_to_half_mse_for_large_delta(p in vecs(5), t in vecs(5)) {
        let g = Graph::new();
        let pv = g.constant(Tensor::from_vec(p, &[5]).unwrap());
        let tv = g.constant(Tensor::from_vec(t, &[5]).unwrap());
        let h = huber(&pv, &tv, 1e4).unwrap().value().item().unwrap();
        let m = mse(&pv, &tv).unwrap().value().item().unwrap();
        prop_assert!((h - 0.5 * m).abs() < 1e-4);
    }

    #[test]
    fn kl_nonnegative_for_any_gaussian(mu in vecs(4), logvar in vecs(4)) {
        let g = Graph::new();
        let m = g.constant(Tensor::from_vec(mu, &[4]).unwrap());
        let lv = g.constant(Tensor::from_vec(logvar, &[4]).unwrap());
        let kl = kl_standard_normal(&m, &lv).unwrap().value().item().unwrap();
        prop_assert!(kl >= -1e-6, "KL must be nonnegative, got {kl}");
    }

    #[test]
    fn batches_partition_samples(n in 1usize..20, batch in 1usize..8) {
        let x = Tensor::from_fn(&[n, 2], |i| i[0] as f32);
        let y = Tensor::from_fn(&[n, 1], |i| i[0] as f32);
        let total: usize = BatchIter::new(&x, &y, batch).unwrap()
            .map(|(bx, _)| bx.shape()[0])
            .sum();
        prop_assert_eq!(total, n);
        let mut rng = StdRng::seed_from_u64(0);
        let shuffled_total: usize = BatchIter::shuffled(&x, &y, batch, &mut rng).unwrap()
            .map(|(bx, _)| bx.shape()[0])
            .sum();
        prop_assert_eq!(shuffled_total, n);
    }
}

// ---- Fused-kernel bitwise equality ----
//
// The fused Huber and bias_add+activation tape nodes must reproduce the
// op chains they replace bit for bit, in both the forward values and
// the gradients they backpropagate. The chains are the oracles:
// `huber_reference`, and `add` + activation spelled out below.

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Loss value and d(loss)/d(pred) of a Huber loss built by `loss`.
fn huber_loss_and_grad(
    loss: fn(&Var, &Var, f32) -> stwa_tensor::Result<Var>,
    pred: &[f32],
    target: &[f32],
    delta: f32,
) -> (f32, Vec<f32>) {
    let graph = Graph::new();
    let cols = pred.len() / 2;
    let p = graph.leaf(Tensor::from_vec(pred.to_vec(), &[2, cols]).unwrap());
    let t = graph.constant(Tensor::from_vec(target.to_vec(), &[2, cols]).unwrap());
    let loss = loss(&p, &t, delta).unwrap();
    graph.backward(&loss).unwrap();
    let g = graph.grad(&p).unwrap();
    (loss.value().item().unwrap(), g.data().to_vec())
}

/// Forward values, input gradient, and all parameter gradients of one
/// dense step `layer(lin, x)` on a fresh layer drawn from `seed`.
fn linear_act_run(
    layer: impl Fn(&Linear, &Var) -> Var,
    data: &[f32],
    seed: u64,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let graph = Graph::new();
    let store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let lin = Linear::new(&store, "l", 3, 4, &mut rng);
    let x = graph.leaf(Tensor::from_vec(data.to_vec(), &[2, 3]).unwrap());
    let y = layer(&lin, &x);
    let out = y.value().data().to_vec();
    let loss = y.square().unwrap().mean_all().unwrap();
    graph.backward(&loss).unwrap();
    let gx = graph.grad(&x).unwrap().data().to_vec();
    let mut gp = Vec::new();
    for p in store.params() {
        gp.extend_from_slice(p.grad().expect("param grad").data());
    }
    (out, gx, gp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_huber_bitwise_matches_reference(
        pred in vecs(8),
        target in vecs(8),
        delta in 0.25f32..2.0,
    ) {
        let (lf, gf) = huber_loss_and_grad(huber, &pred, &target, delta);
        let (lr, gr) = huber_loss_and_grad(huber_reference, &pred, &target, delta);
        prop_assert_eq!(lf.to_bits(), lr.to_bits(), "loss {lf} vs {lr}");
        prop_assert_eq!(bits(&gf), bits(&gr));
    }

    #[test]
    fn fused_bias_add_act_bitwise_matches_unfused(data in vecs(6), seed in 0u64..100) {
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            let (of, xf, pf) = linear_act_run(
                |lin, x| lin.forward_act(x.graph(), x, act).unwrap(),
                &data,
                seed,
            );
            // The chain the fused node replaced: product, broadcast
            // bias add, then the activation as its own op.
            let (or_, xr, pr) = linear_act_run(
                |lin, x| {
                    let w = lin.weight_param().leaf(x.graph());
                    let b = lin.bias_param().expect("bias").leaf(x.graph());
                    act.apply(&x.matmul(&w).unwrap().add(&b).unwrap())
                },
                &data,
                seed,
            );
            prop_assert_eq!(bits(&of), bits(&or_), "forward values diverge for {act:?}");
            prop_assert_eq!(bits(&xf), bits(&xr), "input grads diverge for {act:?}");
            prop_assert_eq!(bits(&pf), bits(&pr), "param grads diverge for {act:?}");
        }
    }
}

// ---- Thread-count invariance of the clipping norm ----
//
// `global_grad_norm` reduces every gradient through fixed-length chunk
// lanes, so its bits must not depend on how many pool threads execute
// the reduction. Gradients larger than the tensor crate's parallel
// threshold exercise the pooled path; small ones take the scalar fold.
// The thread count is process-global, so cases serialize on a lock.

static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn global_grad_norm_is_thread_count_invariant(
        seed in 0u64..1000,
        amp in 0.1f32..4.0,
        clip in 0.5f32..10.0,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(seed);
        // One gradient well above the parallel threshold (1 << 16) plus
        // two small ones that stay on the scalar fold.
        let sizes = [70_000usize, 513, 7];
        let store = ParamStore::new();
        for (i, &n) in sizes.iter().enumerate() {
            let data: Vec<f32> = (0..n)
                .map(|_| (rng.next_u64() as f32 / u64::MAX as f32 - 0.5) * amp)
                .collect();
            let p = store.param(format!("p{i}"), Tensor::zeros(&[n]));
            p.set_grad(Tensor::from_vec(data, &[n]).unwrap());
        }
        let params = store.params();

        let before = stwa_pool::current_threads();
        stwa_pool::set_threads(1);
        let norm_1 = stwa_nn::optim::global_grad_norm(&params);
        stwa_pool::set_threads(8);
        let norm_8 = stwa_nn::optim::global_grad_norm(&params);
        stwa_pool::set_threads(before);
        prop_assert_eq!(norm_1.to_bits(), norm_8.to_bits(), "norm {norm_1} vs {norm_8}");

        // The derived clip scale is therefore invariant too.
        let max_norm = clip;
        let scale_1 = if norm_1 > max_norm && norm_1 > 0.0 { max_norm / norm_1 } else { 1.0 };
        let scale_8 = if norm_8 > max_norm && norm_8 > 0.0 { max_norm / norm_8 } else { 1.0 };
        prop_assert_eq!(scale_1.to_bits(), scale_8.to_bits());
    }
}
