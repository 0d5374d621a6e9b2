//! The training step's order contract in the tier-1 command.
//!
//! `crates/core/tests/step_trajectory.rs` pins three full ST-WA
//! optimization steps on the benchmark's `train_epoch` shape to loss
//! bits and a parameter checksum (re-derived when contractions began to
//! fuse each term); `cargo test -q` does not run per-crate suites, so
//! the same constants are held here. They bound every fused op on the step —
//! proxy attention is one tape node ([`Var::attention`]) — to the bits
//! of the chain of primitive ops it replaced.
//!
//! The second and third hold the window-attention layer's fused ops to
//! their oracles directly. A transcription of the production forward
//! runs the generated K/V projection ([`Var::project_kv`]) as the chain
//! it replaced — the decoder's output `Linear` (`matmul`,
//! `bias_add_act`) writing the flat rows, their `reshape` / `narrow` /
//! `squeeze` split, one window-broadcast `matmul` per half, a `narrow`
//! per window — and must train to the production loss bits on the
//! benchmark's layer stack (`F = 1` with an input that takes no
//! gradient, `W = 4`, then `W = 2`, then `W = 1`). On a model with two
//! proxies per window the transcription also runs the twelve-node
//! reshape / swap-axes / `matmul_nt` / `softmax` / `matmul` chain in
//! the attention op's place.
//!
//! The window-layer op ([`Var::window_layer`]) — every window's proxy
//! fusion, attention, gate and sensor-correlation attention as one tape
//! node — is held to the per-window chain it replaced, transcribed from
//! the layer's public parts, on every layer configuration: learned and
//! mean gates; sensor correlation absent, shared dense, shared sparse
//! and generated; shared K/V; one window; two proxies; one head.
//!
//! Another holds evaluation to the same `forward`: `Trainer::evaluate`
//! runs it on a graph that records nothing, and its metrics must be the
//! bits of an evaluation rolled by hand on a recording graph.
//!
//! The last pins backward's memory: an interior gradient is dropped once
//! propagated, so one step's backward peaks within 15 % of the live
//! bytes at the end of its forward. The live-byte counters are
//! process-global, so that test runs alone ([`TAPE_MEMORY`]).

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_wa::autograd::{concat, Graph, Var};
use st_wa::model::{
    AggregatorKind, ForecastModel, GeneratedProjections, StwaConfig, StwaModel, TrainConfig,
    Trainer, WindowAttentionLayer,
};
use st_wa::nn::layers::Activation;
use st_wa::nn::loss::huber;
use st_wa::nn::optim::{Adam, Optimizer};
use st_wa::tensor::{manip, memory, Result, SensorGraph, Tensor};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};
use st_wa::traffic::{Metrics, Scaler, SplitTensors};

/// The memory pin holds this exclusively while it reads the global
/// live-byte counters; every other test shares it.
static TAPE_MEMORY: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    TAPE_MEMORY.read().unwrap_or_else(PoisonError::into_inner)
}

/// `step_trajectory.rs`: loss of steps 0, 1, 2 as raw f32 bits.
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
    st_wa::ckpt::fnv1a64(&bytes)
}

/// A training-mode forward: prediction and optional regularizer.
type Forward = fn(&StwaModel, &Graph, &Var, &mut StdRng) -> Result<(Var, Option<Var>)>;

/// `steps` optimization steps (Huber + KL, backward, Adam) on one fixed
/// batch; returns each step's loss bits.
fn train(
    model: &StwaModel,
    forward: Forward,
    (bx, by): (&Tensor, &Tensor),
    rng: &mut StdRng,
    steps: usize,
) -> Vec<u32> {
    let mut opt = Adam::new(model.store(), 1e-3);
    (0..steps)
        .map(|_| {
            let graph = Graph::new();
            let x = graph.constant(bx.clone());
            let (pred, regularizer) = forward(model, &graph, &x, rng).expect("forward");
            let target = graph.constant(by.clone());
            let mut loss = huber(&pred, &target, 1.0).expect("huber");
            if let Some(reg) = regularizer {
                loss = loss.add(&reg).expect("regularizer");
            }
            let bits = loss.value().item().expect("scalar loss").to_bits();
            graph.backward(&loss).expect("backward");
            opt.step();
            opt.finish_step();
            bits
        })
        .collect()
}

fn production(
    model: &StwaModel,
    graph: &Graph,
    x: &Var,
    rng: &mut StdRng,
) -> Result<(Var, Option<Var>)> {
    let out = model.forward(graph, x, rng, true)?;
    Ok((out.pred, out.regularizer))
}

#[test]
fn three_steps_reproduce_the_recorded_trajectory() {
    let _counters = shared();
    let mut rng = StdRng::seed_from_u64(15);
    let model = StwaModel::new(StwaConfig::st_wa(20, 12, 12), &mut rng).expect("model");
    let bx = Tensor::randn(&[32, 20, 12, 1], &mut rng);
    let by = Tensor::randn(&[32, 20, 12, 1], &mut rng);
    let losses = train(&model, production, (&bx, &by), &mut rng, 3);
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

// ---------------------------------------------------------------------
// The oracle: the model's forward with the unfused attention chain.
// ---------------------------------------------------------------------

/// Multi-head scaled-dot-product attention as twelve tape nodes — what
/// `Var::attention` replaced, and must equal bit for bit.
fn attention_chain(q: &Var, k: &Var, v: &Var, heads: usize) -> Result<Var> {
    let rank = q.shape().len();
    let dh = q.shape()[rank - 1] / heads;
    let split = |x: &Var| -> Result<Var> {
        let mut s = x.shape()[..rank - 1].to_vec();
        s.extend_from_slice(&[heads, dh]);
        x.reshape(&s)?.swap_axes(rank - 2, rank - 1)
    };
    let (qh, kh, vh) = (split(q)?, split(k)?, split(v)?);
    let scores = qh.matmul_nt(&kh)?.mul_scalar(1.0 / (dh as f32).sqrt());
    let ctx = scores.softmax(rank)?.matmul(&vh)?;
    ctx.swap_axes(rank - 2, rank - 1)?.reshape(&q.shape())
}

/// Per-window attention over `[B, N, S, d]` key and value blocks.
type Attend = fn(&Var, &Var, &Var, usize) -> Result<Var>;

/// `WindowAttentionLayer::forward` from the layer's public parts, with
/// the K/V projection as the chain [`Var::project_kv`] replaced — the
/// flat `kv` rows the decoder's output `Linear` wrote, split, one
/// `matmul` per half and a `narrow` per window — and `attend` for each
/// window's attention.
fn layer_through_chain(
    layer: &WindowAttentionLayer,
    graph: &Graph,
    x: &Var,
    kv: &Var,
    attend: Attend,
) -> Result<Var> {
    let (n, _t, s, p, f_in, d, heads) = layer.dims();
    let (b, w) = (x.shape()[0], layer.num_windows());
    let x_win = x.reshape(&[b, n, w, s, f_in])?;
    // [B, N, 2·F·d] -> [B, N, 2, F, d], one `[B, N, 1, F, d]` half
    // broadcast over the windows per product.
    let split = kv.reshape(&[b, n, 2, f_in, d])?;
    let half = |h: usize| split.narrow(2, h, 1)?.squeeze(2)?.unsqueeze(2);
    let keys = x_win.matmul(&half(0)?)?;
    let values = x_win.matmul(&half(1)?)?;
    let proxies = layer.proxies().leaf(graph);
    let (agg_w1, agg_w2) = layer.agg_weights();
    let (agg_w1, agg_w2) = (agg_w1.leaf(graph), agg_w2.leaf(graph));
    assert_eq!(layer.aggregator_kind(), AggregatorKind::Learned);

    let mut prev: Option<Var> = None;
    let mut outputs = Vec::with_capacity(w);
    for wi in 0..w {
        let k_w = keys.narrow(2, wi, 1)?.squeeze(2)?;
        let v_w = values.narrow(2, wi, 1)?.squeeze(2)?;
        let p_base = proxies
            .narrow(1, wi, 1)?
            .squeeze(1)?
            .unsqueeze(0)?
            .broadcast_to(&[b, n, p, d])?;
        let p_q = match &prev {
            None => p_base,
            Some(h_prev) => {
                let tiled = h_prev.unsqueeze(2)?.broadcast_to(&[b, n, p, d])?;
                let stacked = concat(&[&tiled, &p_base], 3)?;
                let fusion = layer.fusion().expect("w > 1 implies fusion");
                fusion.forward_act(graph, &stacked, Activation::Tanh)?
            }
        };
        let h_w = attend(&p_q, &k_w, &v_w, heads)?;
        let gate = h_w.matmul(&agg_w1)?.tanh().matmul(&agg_w2)?.sigmoid();
        let h_hat = gate.mul(&h_w)?.sum_axis(2, false)?;
        let sca = layer.sensor_attention().expect("ST-WA mixes sensors");
        let h_bar = sca.forward(graph, &h_hat)?;
        prev = Some(h_bar.clone());
        outputs.push(h_bar.unsqueeze(2)?);
    }
    concat(&outputs.iter().collect::<Vec<_>>(), 2)
}

/// `StwaModel::forward` (training mode) over [`layer_through_chain`]
/// with the fused attention op.
fn through_kv_chain(
    model: &StwaModel,
    graph: &Graph,
    x: &Var,
    rng: &mut StdRng,
) -> Result<(Var, Option<Var>)> {
    model_through(model, graph, x, rng, |q, k, v, heads| {
        q.attention(k, v, heads)
    })
}

/// `StwaModel::forward` (training mode) over [`layer_through_chain`]
/// with [`attention_chain`].
fn through_chain(
    model: &StwaModel,
    graph: &Graph,
    x: &Var,
    rng: &mut StdRng,
) -> Result<(Var, Option<Var>)> {
    model_through(model, graph, x, rng, attention_chain)
}

fn model_through(
    model: &StwaModel,
    graph: &Graph,
    x: &Var,
    rng: &mut StdRng,
    attend: Attend,
) -> Result<(Var, Option<Var>)> {
    let cfg = model.config();
    let b = x.shape()[0];
    let generator = model.generator().expect("ST-WA generates its projections");
    let generated = generator.generate_with_mode(graph, x, rng, cfg.latent_mode)?;
    let mut h = x.clone();
    let mut skip_sum: Option<Var> = None;
    for (l, layer) in model.layers().iter().enumerate() {
        let kv = generator.decode_rows(graph, l, &generated.layers[l])?;
        let out = layer_through_chain(layer, graph, &h, &kv, attend)?;
        let flat = out.reshape(&[b, cfg.n, layer.num_windows() * cfg.d])?;
        let skip = model.skips()[l].forward(graph, &flat)?;
        skip_sum = Some(match skip_sum {
            None => skip,
            Some(acc) => acc.add(&skip)?,
        });
        h = out;
    }
    let o = skip_sum.expect("at least one layer");
    let pred = model
        .predictor()
        .forward(graph, &o)?
        .reshape(&[b, cfg.n, cfg.u, cfg.f_in])?;
    let regularizer = generated.kl.as_ref().map(|kl| kl.mul_scalar(cfg.kl_weight));
    Ok((pred, regularizer))
}

/// `WindowAttentionLayer::forward` as the per-window chain of tape ops
/// [`Var::window_layer`] replaced: each window's proxy block narrowed
/// and broadcast, fused with the previous summary through `concat` and
/// the dense layer, the attention op over the window's narrowed key and
/// value blocks, the gate chain (or the mean) and sensor-correlation
/// attention, then one `concat`.
fn layer_chain(
    layer: &WindowAttentionLayer,
    graph: &Graph,
    x: &Var,
    generated: Option<&GeneratedProjections>,
) -> Result<Var> {
    let (n, _t, _s, p, _f, d, heads) = layer.dims();
    let (b, w) = (x.shape()[0], layer.num_windows());
    let kv = layer.keys_values(graph, x, generated)?;
    let proxies = layer.proxies().leaf(graph);
    let (agg_w1, agg_w2) = layer.agg_weights();
    let (agg_w1, agg_w2) = (agg_w1.leaf(graph), agg_w2.leaf(graph));
    let mut prev: Option<Var> = None;
    let mut outputs = Vec::with_capacity(w);
    for wi in 0..w {
        let p_base = proxies
            .narrow(1, wi, 1)?
            .squeeze(1)?
            .unsqueeze(0)?
            .broadcast_to(&[b, n, p, d])?;
        let p_q = match &prev {
            None => p_base,
            Some(h_prev) => {
                let tiled = h_prev.unsqueeze(2)?.broadcast_to(&[b, n, p, d])?;
                let stacked = concat(&[&tiled, &p_base], 3)?;
                let fusion = layer.fusion().expect("w > 1 implies fusion");
                fusion.forward_act(graph, &stacked, Activation::Tanh)?
            }
        };
        let block = |h: usize| kv.narrow(2, h, 1)?.squeeze(2)?.narrow(2, wi, 1)?.squeeze(2);
        let h_w = p_q.attention(&block(0)?, &block(1)?, heads)?;
        let h_hat = match layer.aggregator_kind() {
            AggregatorKind::Learned => {
                let gate = h_w.matmul(&agg_w1)?.tanh().matmul(&agg_w2)?.sigmoid();
                gate.mul(&h_w)?.sum_axis(2, false)?
            }
            AggregatorKind::Mean => h_w.mean_axis(2, false)?,
        };
        let transforms = generated.and_then(|g| g.sca_transforms.as_ref());
        let h_bar = match (layer.sensor_attention(), transforms) {
            (Some(sca), Some((t1, t2))) => sca.forward_with(graph, &h_hat, t1, t2)?,
            (Some(sca), None) => sca.forward(graph, &h_hat)?,
            (None, _) => h_hat,
        };
        prev = Some(h_bar.clone());
        outputs.push(h_bar.unsqueeze(2)?);
    }
    concat(&outputs.iter().collect::<Vec<_>>(), 2)
}

/// `StwaModel::forward` (training mode) with every layer through
/// [`layer_chain`].
fn through_layer_chain(
    model: &StwaModel,
    graph: &Graph,
    x: &Var,
    rng: &mut StdRng,
) -> Result<(Var, Option<Var>)> {
    let cfg = model.config();
    let b = x.shape()[0];
    let generated = match model.generator() {
        Some(generator) => Some(generator.generate_with_mode(graph, x, rng, cfg.latent_mode)?),
        None => None,
    };
    let mut h = x.clone();
    let mut skip_sum: Option<Var> = None;
    for (l, layer) in model.layers().iter().enumerate() {
        let out = layer_chain(layer, graph, &h, generated.as_ref().map(|g| &g.layers[l]))?;
        let flat = out.reshape(&[b, cfg.n, layer.num_windows() * cfg.d])?;
        let skip = model.skips()[l].forward(graph, &flat)?;
        skip_sum = Some(match skip_sum {
            None => skip,
            Some(acc) => acc.add(&skip)?,
        });
        h = out;
    }
    let o = skip_sum.expect("at least one layer");
    let pred = model
        .predictor()
        .forward(graph, &o)?
        .reshape(&[b, cfg.n, cfg.u, cfg.f_in])?;
    let regularizer = generated
        .as_ref()
        .and_then(|g| g.kl.as_ref())
        .map(|kl| kl.mul_scalar(cfg.kl_weight));
    Ok((pred, regularizer))
}

/// Two training steps of `config` through `forward` and through
/// `oracle` from the same seed: the same loss bits and parameters.
fn assert_trains_like(config: StwaConfig, forward: Forward, oracle: Forward) {
    let run = |forward: Forward| {
        let mut rng = StdRng::seed_from_u64(21);
        let model = StwaModel::new(config.clone(), &mut rng).expect("model");
        let bx = Tensor::randn(&[4, 6, 12, 1], &mut rng);
        let by = Tensor::randn(&[4, 6, 12, 1], &mut rng);
        let losses = train(&model, forward, (&bx, &by), &mut rng, 2);
        (losses, param_checksum(&model))
    };
    let (fused_losses, fused_params) = run(forward);
    let (chain_losses, chain_params) = run(oracle);
    assert_eq!(
        fused_losses, chain_losses,
        "fused {fused_losses:#010x?} vs chain {chain_losses:#010x?}"
    );
    assert_ne!(
        fused_losses[0], fused_losses[1],
        "the step must move the loss"
    );
    assert_eq!(fused_params, chain_params, "parameters after two steps");
}

#[test]
fn kv_projection_trains_to_the_bits_of_the_decoder_linear_chain() {
    let _counters = shared();
    let config = StwaConfig::st_wa(6, 12, 12);
    let mut rng = StdRng::seed_from_u64(0);
    let model = StwaModel::new(config.clone(), &mut rng).expect("model");
    let stack: Vec<(usize, usize)> = model
        .layers()
        .iter()
        .map(|l| (l.dims().4, l.num_windows()))
        .collect();
    assert_eq!(stack, [(1, 4), (16, 2), (16, 1)], "(F, W) per layer");
    assert_trains_like(config, production, through_kv_chain);
}

#[test]
fn two_proxy_model_trains_to_the_bits_of_the_unfused_chain() {
    let _counters = shared();
    let config = StwaConfig::st_wa(6, 12, 12).with_proxies(2);
    assert_trains_like(config, production, through_chain);
}

#[test]
fn window_layer_op_trains_to_the_bits_of_the_per_window_chain() {
    let _counters = shared();
    let st_wa = StwaConfig::st_wa(6, 12, 12);
    // Each sensor with itself and its ring neighbours.
    let ring: Vec<Vec<usize>> = (0..6)
        .map(|i| {
            let mut row = vec![(i + 5) % 6, i, (i + 1) % 6];
            row.sort_unstable();
            row
        })
        .collect();
    let graph = Arc::new(SensorGraph::from_neighbor_lists(6, &ring).expect("graph"));
    let configs = [
        ("learned gate, shared dense SCA", st_wa.clone()),
        ("mean gate", st_wa.clone().with_mean_aggregator()),
        (
            "no SCA",
            StwaConfig {
                sensor_attention: false,
                ..st_wa.clone()
            },
        ),
        ("shared K/V", StwaConfig::wa(6, 12, 12)),
        ("shared sparse SCA", st_wa.clone().with_sensor_graph(graph.clone())),
        ("generated SCA", st_wa.clone().with_generated_sca()),
        (
            "generated sparse SCA",
            st_wa.clone().with_generated_sca().with_sensor_graph(graph),
        ),
        ("W = 1", st_wa.clone().with_windows(&[12])),
        ("p = 2", st_wa.clone().with_proxies(2).with_mean_aggregator()),
        ("p = 2, learned", st_wa.clone().with_proxies(2)),
        ("one head", StwaConfig { heads: 1, ..st_wa }),
    ];
    for (name, config) in configs {
        eprintln!("{name}");
        assert_trains_like(config, production, through_layer_chain);
    }
}

// ---------------------------------------------------------------------
// Evaluation is the same forward on a graph that records nothing.
// ---------------------------------------------------------------------

#[test]
fn evaluate_is_bitwise_a_recorded_graph_evaluation() {
    let _counters = shared();
    let (n, h, u) = (6, 12, 12);
    let mut rng = StdRng::seed_from_u64(33);
    let models: Vec<Box<dyn ForecastModel>> = vec![
        Box::new(StwaModel::new(StwaConfig::st_wa(n, h, u), &mut rng).expect("model")),
        st_wa::baselines::build_model("GRU", n, h, u, &Tensor::zeros(&[n, n]), &mut rng)
            .expect("baseline"),
    ];
    // Five samples in batches of two: the last batch is ragged.
    let split = SplitTensors {
        x: Tensor::randn(&[5, n, h, 1], &mut rng),
        y: Tensor::randn(&[5, n, u, 1], &mut rng),
    };
    let scaler = Scaler {
        mean: 210.0,
        std: 45.0,
    };
    let trainer = Trainer::new(TrainConfig {
        batch_size: 2,
        ..TrainConfig::default()
    });
    for model in &models {
        let got = trainer
            .evaluate(model.as_ref(), &split, &scaler, &mut rng)
            .expect("evaluate");

        let chunks: Vec<Tensor> = (0..5)
            .step_by(2)
            .map(|start| {
                let bx = split.x.narrow(0, start, 2.min(5 - start)).expect("batch");
                let graph = Graph::new();
                let out = model
                    .forward(&graph, &graph.constant(bx), &mut rng, false)
                    .expect("recorded forward");
                assert!(graph.len() > 1, "the reference must run on a tape");
                scaler.inverse(&out.pred.value())
            })
            .collect();
        let preds = manip::concat(&chunks.iter().collect::<Vec<_>>(), 0).expect("concat");
        let want = Metrics::compute(&preds, &split.y);

        let name = model.name();
        assert_eq!(got.mae.to_bits(), want.mae.to_bits(), "{name}: MAE");
        assert_eq!(got.rmse.to_bits(), want.rmse.to_bits(), "{name}: RMSE");
        assert_eq!(got.mape.to_bits(), want.mape.to_bits(), "{name}: MAPE");
    }
}

// ---------------------------------------------------------------------
// Backward's memory: interior gradients go as soon as they propagate.
// ---------------------------------------------------------------------

#[test]
fn backward_peaks_within_fifteen_percent_of_the_forward_tape() {
    let _alone = TAPE_MEMORY.write().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(15);
    let model = StwaModel::new(StwaConfig::st_wa(20, 12, 12), &mut rng).expect("model");
    let bx = Tensor::randn(&[32, 20, 12, 1], &mut rng);
    let by = Tensor::randn(&[32, 20, 12, 1], &mut rng);
    let graph = Graph::new();
    let x = graph.constant(bx);
    let (pred, regularizer) = production(&model, &graph, &x, &mut rng).expect("forward");
    let mut loss = huber(&pred, &graph.constant(by), 1.0).expect("huber");
    if let Some(reg) = regularizer {
        loss = loss.add(&reg).expect("regularizer");
    }

    let forward_live = memory::current_bytes();
    memory::reset_peak();
    graph.backward(&loss).expect("backward");
    let peak = memory::peak_bytes();

    // Keeping every interior gradient read 1.59x; dropping them, 1.11x.
    let ratio = peak as f64 / forward_live as f64;
    assert!(
        ratio <= 1.15,
        "backward peaks at {peak} B, {ratio:.3}x the {forward_live} B live after forward"
    );
}
