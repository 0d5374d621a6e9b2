//! Freezing an [`StwaModel`] into a serving-ready parameter snapshot.
//!
//! `freeze` walks the trained model once and collapses everything that
//! does not depend on the request input:
//!
//! - stochastic latents collapse to their posterior means (exactly what
//!   the graph path does in eval mode),
//! - for spatially-aware models without a temporal encoder (S-WA), the
//!   decoder `D_omega` runs **once per sensor** here and never again —
//!   the per-sensor K/V projections and sensor-correlation transforms
//!   are cached as `[1, N, F, d]` [`GeneratedTensors`] that broadcast
//!   over any batch,
//! - for temporally-aware models, the input-dependent encoder `E_psi`
//!   stays live but every dense weight along its path (encoder body,
//!   mean head, decoders) is panel-packed, and the planar-flow
//!   constrained parameters `(u, w, b)` are precomputed,
//! - the static dense weights around the layer bodies (shared K/V,
//!   skip, predictor) are packed into GEMM panel layout; the bodies'
//!   own weights (proxies, fusion, gate, shared SCA transforms) are kept
//!   as f32 tensors at every precision, because the body is the graph's
//!   `window_layer` op.
//!
//! # Lazy decoding
//!
//! Decoding `Theta_t^(i)` into per-sensor `[F, d]` projections is most
//! of a forward's arithmetic — the decoder's last layer is a
//! `[B·N, m2] x [m2, 2·F·d]` product — and its output is consumed once,
//! by a product of a few rows per sensor. The dynamic generator
//! therefore never materializes `[B, N, 2·F·d]`: per request it computes
//! `theta` once, and just before each layer only that layer's decoder
//! *head* (`[B·N, m2]`, everything before the last dense layer, dropped
//! once the layer's keys and values exist, so one head is live at a
//! time). The layer then walks its sensors a block at a time — last
//! dense layer into a block-sized scratch, its bias added as the
//! GEMM's register tiles store, then each sensor's window
//! rows times the two `[F, d]` halves straight out of that scratch
//! ([`projection::forward_split`], the walk the static path's
//! [`project_kv`] runs too). The scratch stays L2-resident between the
//! decode that writes it and the products that read it, and nothing
//! wider than the keys and values themselves reaches memory. Generated
//! sensor-correlation transforms are consumed once per *window*, so
//! their last layer runs whole, once per layer, into one flat
//! `[B·N, 2·d·d]` buffer that the layer body reads in place.
//!
//! # One layer body
//!
//! Each window-attention layer's body — proxy fusion, proxy attention,
//! the gate and sensor-correlation attention (Eq. 10–16) — is
//! [`stwa_tensor::window_layer::forward`], the op the training graph
//! records, run without saving: it reads the split keys and values this
//! engine projects and the generated transforms in whichever layout the
//! generator left them (the S-WA cache's `[1, N, d, d]`, the dynamic
//! decode's flat rows). The frozen forward mirrors `StwaModel::forward`
//! in eval mode (`training == false`, what `forward_eval` /
//! `forward_nograd` run on a graph that records nothing)
//! kernel-for-kernel, so its predictions are bitwise identical to the
//! training-time evaluation. Its only second definition of the model
//! is the generator and packing plumbing around the bodies — the lazy
//! decode, the K/V projections, the skips and the predictor;
//! `tests/frozen_contract.rs` is the pin between the two.

use crate::packed::{PackedDense, PackedMlp};
use std::sync::Arc;
use stwa_core::generator::GeneratedTensors;
use stwa_core::{AggregatorKind, ForecastModel, StGenerator, StwaModel};
use stwa_nn::layers::Linear;
use stwa_nn::StoreVersion;
use stwa_tensor::quant::Precision;
use stwa_tensor::window_layer::{self, Kv, Sca, Weights};
use stwa_tensor::{linalg, memory, projection, Result, SensorGraph, Tensor, TensorError};

/// Frozen per-layer state of one window-attention layer. The body's
/// weights are the f32 tensors [`window_layer::forward`] reads, at every
/// snapshot precision.
struct FrozenLayer {
    proxies: Tensor, // [N, W, p, d]
    /// Eq. 14 proxy-fusion weight `[2d, d]` and bias `[d]`, absent when
    /// there is a single window.
    fusion: Option<(Tensor, Tensor)>,
    k_shared: Option<PackedDense>,
    v_shared: Option<PackedDense>,
    /// Eq. 12 gate matrices `[d, d]`; `None` is the mean aggregator.
    gate: Option<(Tensor, Tensor)>,
    /// Whether the layer mixes sensors (Eq. 15–16).
    mixes: bool,
    /// Shared sensor-correlation transforms `[d, d]`, absent when they
    /// are generated per sensor (or the layer does not mix).
    theta: Option<(Tensor, Tensor)>,
    /// Neighbor lists when the training model ran in sparse mode; the
    /// frozen path must mix over the same support to stay bitwise.
    graph: Option<Arc<SensorGraph>>,
    n: usize,
    t_in: usize,
    s: usize,
    w: usize,
    f_in: usize,
    heads: usize,
}

/// The frozen parameter-generation path.
enum FrozenGenerator {
    /// S-WA: fully decoded at freeze time; per-sensor projections are
    /// `[1, N, F, d]` and broadcast over any request batch.
    Static(Vec<GeneratedTensors>),
    /// ST-WA / T-WA: the temporal encoder must see the input, so only
    /// its weights are packed; decoding runs per request.
    Dynamic(Box<DynamicGenerator>),
}

/// The input-dependent remainder of the generator after freezing.
struct DynamicGenerator {
    spatial_mean: Option<Tensor>, // [N, k]
    temporal_body: PackedMlp,
    temporal_head: PackedDense,
    enc_h: usize,
    enc_f: usize,
    /// Per flow layer: constrained `(u, w_col, b)`, precomputed since
    /// they are pure parameter arithmetic.
    flow: Option<Vec<(Tensor, Tensor, Tensor)>>,
    decoders: Vec<PackedMlp>,
    sca_decoders: Option<Vec<PackedMlp>>,
    layer_dims: Vec<(usize, usize)>,
}

/// A trained [`StwaModel`] collapsed into its serving form.
pub struct FrozenStwa {
    generator: Option<FrozenGenerator>,
    layers: Vec<FrozenLayer>,
    skips: Vec<PackedDense>,
    predictor: PackedMlp,
    n: usize,
    h: usize,
    u: usize,
    f_in: usize,
    d: usize,
    precision: Precision,
    version: StoreVersion,
    frozen_at: u64,
}

impl FrozenStwa {
    /// Snapshot `model`'s parameters into the frozen serving form at
    /// f32 — the precision whose forward is bitwise identical to the
    /// training graph's eval path.
    pub fn freeze(model: &StwaModel) -> Result<FrozenStwa> {
        Self::freeze_at(model, Precision::F32)
    }

    /// Snapshot `model`'s parameters at the given panel [`Precision`].
    /// Training stays f32 and untouched; only the serving snapshot's
    /// static weight panels change width. The layer bodies' weights
    /// (proxies, fusion, gate, shared SCA transforms) stay f32 at every
    /// precision — the body op runs f32 only. The pre-decoded S-WA
    /// projection caches and all activations remain f32 at every
    /// precision (they are request-scale data, not frozen weights).
    /// Quantized snapshots trade the bitwise-vs-graph contract for the
    /// accuracy gate in DESIGN.md §14.
    pub fn freeze_at(model: &StwaModel, precision: Precision) -> Result<FrozenStwa> {
        let cfg = model.config();
        let generator = match model.generator() {
            None => None,
            Some(gen) => Some(Self::freeze_generator(gen, precision)?),
        };

        let weight = |l: &Linear| l.weight_param().value();
        let mut layers = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            let (n, t_in, s, _, f_in, _, heads) = layer.dims();
            let (k_shared, v_shared) = layer.shared_projections();
            let (agg_w1, agg_w2) = layer.agg_weights();
            let sca = layer.sensor_attention();
            let theta = match sca.map(|sca| sca.shared_transforms()) {
                Some((Some(t1), Some(t2))) => Some((weight(t1), weight(t2))),
                _ => None,
            };
            let fusion = match layer.fusion() {
                None => None,
                Some(f) => {
                    let bias = f.bias_param().ok_or_else(|| {
                        TensorError::Invalid("freeze: a fusion layer without a bias".into())
                    })?;
                    Some((weight(f), bias.value()))
                }
            };
            layers.push(FrozenLayer {
                proxies: layer.proxies().value(),
                fusion,
                k_shared: k_shared
                    .map(|l| PackedDense::from_linear_at(l, precision))
                    .transpose()?,
                v_shared: v_shared
                    .map(|l| PackedDense::from_linear_at(l, precision))
                    .transpose()?,
                gate: match layer.aggregator_kind() {
                    AggregatorKind::Learned => Some((agg_w1.value(), agg_w2.value())),
                    AggregatorKind::Mean => None,
                },
                mixes: sca.is_some(),
                theta,
                graph: sca.and_then(|sca| sca.sparsity().graph().cloned()),
                n,
                t_in,
                s,
                w: layer.num_windows(),
                f_in,
                heads,
            });
        }

        Ok(FrozenStwa {
            generator,
            layers,
            skips: model
                .skips()
                .iter()
                .map(|l| PackedDense::from_linear_at(l, precision))
                .collect::<Result<Vec<_>>>()?,
            predictor: PackedMlp::from_mlp_at(model.predictor(), precision)?,
            n: cfg.n,
            h: cfg.h,
            u: cfg.u,
            f_in: cfg.f_in,
            d: cfg.d,
            precision,
            version: model.store().version_handle(),
            frozen_at: model.store().version(),
        })
    }

    /// Load a published checkpoint from `registry` into `model`'s store
    /// and freeze the result — the registry-to-serving transport behind
    /// hot swaps. Loads the best-validation parameters when the
    /// checkpoint carries them, else the live ones. `version: None`
    /// takes the registry's `LATEST`.
    ///
    /// Note that loading mutates the model's store (bumping its
    /// version), so any session frozen from the *previous* weights
    /// becomes stale and starts refusing — exactly the guard that makes
    /// a hot swap safe. A refused checkpoint writes nothing: the store,
    /// and every session frozen from it, stay as they were.
    pub fn freeze_from_registry(
        model: &StwaModel,
        registry: &stwa_ckpt::Registry,
        name: &str,
        version: Option<u32>,
    ) -> Result<FrozenStwa> {
        let _span = stwa_observe::span!("freeze_from_registry");
        let ckpt = registry.load(name, version).map_err(|e| {
            TensorError::Invalid(format!("freeze_from_registry: {e}"))
        })?;
        ckpt.load_best_into(model.store()).map_err(|e| {
            TensorError::Invalid(format!("freeze_from_registry: {e}"))
        })?;
        Self::freeze(model)
    }

    fn freeze_generator(gen: &StGenerator, precision: Precision) -> Result<FrozenGenerator> {
        match gen.temporal() {
            // Spatial-only: `Theta` is input-independent, so decode the
            // per-sensor parameters once — one eval-mode generation at
            // batch 1, whose singleton batch axis broadcasts against any
            // request batch. The window's content is never read.
            None => {
                let spatial = gen.spatial().ok_or_else(|| {
                    TensorError::Invalid("freeze: generator with no latents".into())
                })?;
                let x = Tensor::zeros(&[1, spatial.n(), 1, 1]);
                Ok(FrozenGenerator::Static(gen.generate_nograd(&x)?))
            }
            Some(temporal) => Ok(FrozenGenerator::Dynamic(Box::new(DynamicGenerator {
                spatial_mean: gen.spatial().map(|s| s.means()),
                temporal_body: PackedMlp::from_mlp_at(temporal.body(), precision)?,
                temporal_head: PackedDense::from_linear_at(temporal.head_mu(), precision)?,
                enc_h: temporal.h(),
                enc_f: temporal.f(),
                flow: gen
                    .flow()
                    .map(|f| f.frozen_layers_nograd())
                    .transpose()?,
                decoders: gen
                    .decoders()
                    .iter()
                    .map(|d| PackedMlp::from_mlp_at(d.mlp(), precision))
                    .collect::<Result<Vec<_>>>()?,
                sca_decoders: gen
                    .sca_decoders()
                    .map(|decs| {
                        decs.iter()
                            .map(|d| PackedMlp::from_mlp_at(d.mlp(), precision))
                            .collect::<Result<Vec<_>>>()
                    })
                    .transpose()?,
                layer_dims: gen.layer_dims().to_vec(),
            }))),
        }
    }

    /// Sensor count `N` the model was built for.
    pub fn num_sensors(&self) -> usize {
        self.n
    }

    /// Input window length `H`.
    pub fn input_len(&self) -> usize {
        self.h
    }

    /// Forecast horizon `U`.
    pub fn horizon(&self) -> usize {
        self.u
    }

    /// Attributes per timestamp.
    pub fn features(&self) -> usize {
        self.f_in
    }

    /// Panel precision this snapshot was frozen at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Store version this snapshot was taken at.
    pub fn frozen_at(&self) -> u64 {
        self.frozen_at
    }

    /// Live version of the source parameter store as of now.
    pub fn current_version(&self) -> u64 {
        self.version.get()
    }

    /// True when any source parameter changed after [`FrozenStwa::freeze`].
    pub fn is_stale(&self) -> bool {
        self.version.get() != self.frozen_at
    }

    /// One tape-free forward through the frozen stack: normalized-scale
    /// predictions `[B, N, U, F]`. At [`Precision::F32`] the output is
    /// bitwise identical to the graph eval path of the source model; at
    /// int8 it is the same op sequence over quantized panels, gated by
    /// the forecast-MAE accuracy check instead.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != self.n || shape[2] != self.h || shape[3] != self.f_in
        {
            return Err(TensorError::Invalid(format!(
                "FrozenStwa: expected [B, {}, {}, {}], got {shape:?}",
                self.n, self.h, self.f_in
            )));
        }
        let b = shape[0];
        let _span = stwa_observe::span!("forward");

        // ST/T-aware models: theta, once per request. The static cache
        // is borrowed, never recomputed.
        let dynamic = match &self.generator {
            Some(FrozenGenerator::Dynamic(dg)) => Some((dg, dg.theta(x, b)?)),
            _ => None,
        };

        let mut h = x.clone();
        let mut skip_sum: Option<Tensor> = None;
        for (l, layer) in self.layers.iter().enumerate() {
            let params = if let Some((dg, theta)) = &dynamic {
                // The layer's decoders and the projections they feed
                // are generator work: attributed there, per layer, not
                // to the window-attention layer.
                let _generator = stwa_observe::span!("generator");
                let _decoder = stwa_observe::span!("decoder");
                let (keys, values) = dg.project_kv(l, theta, &layer.windows(&h, b)?)?;
                LayerParams::Projected {
                    keys,
                    values,
                    sca: dg.sca_transforms(l, theta)?,
                }
            } else if let Some(FrozenGenerator::Static(cached)) = &self.generator {
                LayerParams::Cached(&cached[l])
            } else {
                LayerParams::Shared
            };
            let layer_span = stwa_observe::span!("wa_layer{}", l);
            let out = layer.forward(&h, params, b)?;
            let flat = out.reshape(&[b, self.n, layer.w * self.d])?;
            let skip = self.skips[l].forward(&flat)?;
            skip_sum = Some(match skip_sum {
                None => skip,
                Some(acc) => acc.add(&skip)?,
            });
            h = out;
            drop(layer_span);
        }
        let o = skip_sum.expect("at least one layer");

        let predictor_span = stwa_observe::span!("predictor");
        let pred = self
            .predictor
            .forward(&o)?
            .reshape(&[b, self.n, self.u, self.f_in])?;
        drop(predictor_span);
        Ok(pred)
    }

    /// Bytes of frozen weights a forward reads: the packed GEMM panels
    /// plus the layer bodies' f32 fusion, gate and shared
    /// sensor-correlation weights.
    pub fn packed_bytes(&self) -> usize {
        let f32_bytes = |pair: &Option<(Tensor, Tensor)>| {
            pair.as_ref().map_or(0, |(a, b)| 4 * (a.len() + b.len()))
        };
        let layer_bytes: usize = self
            .layers
            .iter()
            .map(|l| {
                l.k_shared.as_ref().map_or(0, PackedDense::packed_bytes)
                    + l.v_shared.as_ref().map_or(0, PackedDense::packed_bytes)
                    + l.fusion.as_ref().map_or(0, |(w, _)| 4 * w.len())
                    + f32_bytes(&l.gate)
                    + f32_bytes(&l.theta)
            })
            .sum();
        let gen_bytes = match &self.generator {
            Some(FrozenGenerator::Dynamic(dg)) => {
                dg.temporal_body.packed_bytes()
                    + dg.temporal_head.packed_bytes()
                    + dg.decoders.iter().map(PackedMlp::packed_bytes).sum::<usize>()
                    + dg
                        .sca_decoders
                        .as_ref()
                        .map_or(0, |d| d.iter().map(PackedMlp::packed_bytes).sum())
            }
            _ => 0,
        };
        layer_bytes
            + gen_bytes
            + self.skips.iter().map(PackedDense::packed_bytes).sum::<usize>()
            + self.predictor.packed_bytes()
    }
}

/// (Sample, sensor) pairs decoded per block of the lazy K/V walk.
/// `KV_BLOCK × 2·F·d` floats of scratch (512 KiB at `F = d = 32`) sit
/// in L2 beside the last layer's panels between the decode that writes
/// them and the row products that read them.
const KV_BLOCK: usize = 64;

impl DynamicGenerator {
    /// The per-request part of eval-mode `StGenerator::generate` that
    /// every layer shares: encode `E_psi` means, combine with the cached
    /// spatial means, apply the flow with precomputed constrained
    /// parameters. `theta` is `[B·N, k]`.
    fn theta(&self, x: &Tensor, b: usize) -> Result<Tensor> {
        let _span = stwa_observe::span!("generator");
        let n = x.shape()[1];

        let latent_span = stwa_observe::span!("latent");
        let flat = x.reshape(&[b, n, self.enc_h * self.enc_f])?;
        let t_mean = self.temporal_head.forward(&self.temporal_body.forward(&flat)?)?;
        drop(latent_span);

        let theta0 = match &self.spatial_mean {
            Some(s) => s.unsqueeze(0)?.broadcast_to(t_mean.shape())?.add(&t_mean)?,
            None => t_mean,
        };
        let theta = match &self.flow {
            None => theta0,
            Some(layers) => {
                let mut current = theta0;
                for (u, w_col, bias) in layers {
                    let pre = linalg::matmul(&current, w_col)?.add(bias)?;
                    let t = pre.tanh();
                    let step = t.mul(u)?;
                    current = current.add(&step)?;
                }
                current
            }
        };
        theta.reshape(&[b * n, theta.shape()[2]])
    }

    /// Layer `l`'s keys and values `[B, N, w, s, d]` from `theta`: the
    /// decoder's head (`[B·N, m2]`, dropped on return), then, without
    /// the `[B, N, 2·F·d]` projections in between, its last dense layer
    /// runs [`KV_BLOCK`] sensors at a time into one
    /// scratch buffer and each sensor's `[w·s, F]` window rows multiply
    /// the two `[F, d]` halves where they land.
    ///
    /// Bitwise contract: a block's rows of the dense layer are the same
    /// rows the whole-tensor forward computes (rows are independent at
    /// both precisions), and [`projection::forward_split`] is the product
    /// the static path and — by the kernel order contract — the graph
    /// path's broadcast matmul run.
    fn project_kv(
        &self,
        l: usize,
        theta: &Tensor,
        x_win: &Tensor, // [B, N, w, s, F]
    ) -> Result<(Tensor, Tensor)> {
        let (f, d) = self.layer_dims[l];
        let xs = x_win.shape();
        let (pairs, rows) = (xs[0] * xs[1], xs[2] * xs[3]);
        let head = self.decoders[l].forward_head(theta)?;
        let (last, act) = self.decoders[l].last();
        let (m2, width) = (last.in_dim(), last.out_dim());
        if xs[4] != f || width != 2 * f * d || head.len() != pairs * m2 {
            return Err(TensorError::Invalid(format!(
                "DynamicGenerator: layer {l} windows {xs:?} / head {:?} vs decoder \
                 {m2} -> {width} for [{f}, {d}] projections",
                head.shape()
            )));
        }
        let (xd, hd) = (x_win.data(), head.data());
        let mut keys = memory::take_scratch(pairs * rows * d);
        let mut values = memory::take_scratch(pairs * rows * d);
        // Blocks are independent — disjoint output rows — so on a
        // multi-thread pool runs of them go side by side, each run with
        // a scratch of its own, as the row split of the one big product
        // used to. Two runs per thread lets the pool rebalance.
        let mut blocks: Vec<(&mut [f32], &mut [f32])> = keys
            .chunks_mut(KV_BLOCK * rows * d)
            .zip(values.chunks_mut(KV_BLOCK * rows * d))
            .collect();
        let runs = blocks.len().min(2 * stwa_pool::current_threads());
        let decode = last.rows_kernel(act);
        stwa_pool::parallel_chunks(&mut blocks, runs, |first, run| {
            let mut decoded = memory::take_scratch(KV_BLOCK.min(pairs) * width);
            for (i, (kout, vout)) in run.iter_mut().enumerate() {
                let p0 = (first + i) * KV_BLOCK;
                let count = kout.len() / (rows * d);
                decode(&hd[p0 * m2..], count, &mut decoded);
                projection::forward_split(
                    &xd[p0 * rows * f..],
                    &decoded,
                    &decoded[f * d..],
                    width,
                    count,
                    (rows, f, d),
                    kout,
                    vout,
                );
            }
            memory::recycle(decoded);
        });
        let shape = [xs[0], xs[1], xs[2], xs[3], d];
        Ok((
            Tensor::from_vec(keys, &shape)?,
            Tensor::from_vec(values, &shape)?,
        ))
    }

    /// Layer `l`'s generated sensor-correlation transforms, decoded
    /// flat: `[B·N, 2·d·d]`, each row one sensor's `T1 | T2`. Every
    /// window of the layer reads them, so unlike the K/V projections
    /// they are materialized — once, unsplit.
    fn sca_transforms(&self, l: usize, theta: &Tensor) -> Result<Option<Tensor>> {
        self.sca_decoders.as_ref().map(|decs| decs[l].forward(theta)).transpose()
    }
}

/// Where one layer's keys, values and sensor-correlation transforms
/// come from.
enum LayerParams<'a> {
    /// ST-agnostic: the layer's own shared projections.
    Shared,
    /// S-WA: per-sensor projections decoded at freeze time.
    Cached(&'a GeneratedTensors),
    /// ST/T-WA: keys and values already projected by the generator's
    /// block walk, transforms decoded flat (see
    /// [`DynamicGenerator::sca_transforms`]).
    Projected {
        keys: Tensor,
        values: Tensor,
        sca: Option<Tensor>,
    },
}

impl FrozenLayer {
    /// The layer input `[B, N, T, F]` cut into its windows,
    /// `[B, N, w, s, F]` (a reshape: windows are contiguous).
    fn windows(&self, x: &Tensor, b: usize) -> Result<Tensor> {
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != self.n || shape[2] != self.t_in || shape[3] != self.f_in
        {
            return Err(TensorError::Invalid(format!(
                "FrozenLayer: expected [B, {}, {}, {}], got {shape:?}",
                self.n, self.t_in, self.f_in
            )));
        }
        x.reshape(&[b, self.n, self.w, self.s, self.f_in])
    }

    /// `WindowAttentionLayer::forward`: the keys and values (and
    /// generated transforms) `params` names, through the layer body op.
    fn forward(&self, x: &Tensor, params: LayerParams<'_>, b: usize) -> Result<Tensor> {
        let projected;
        let (keys, values) = match &params {
            LayerParams::Projected { keys, values, .. } => (keys, values),
            LayerParams::Cached(gp) => {
                projected = project_kv(&self.windows(x, b)?, &gp.k_proj, &gp.v_proj)?;
                (&projected.0, &projected.1)
            }
            LayerParams::Shared => {
                let (Some(ks), Some(vs)) = (&self.k_shared, &self.v_shared) else {
                    return Err(TensorError::Invalid(
                        "FrozenLayer without shared projections requires generated K/V".into(),
                    ));
                };
                let x_win = self.windows(x, b)?;
                projected = (ks.forward(&x_win)?, vs.forward(&x_win)?);
                (&projected.0, &projected.1)
            }
        };
        let sca = match (&params, &self.theta) {
            _ if !self.mixes => Sca::Off,
            (LayerParams::Projected { sca: Some(rows), .. }, _) => Sca::GeneratedRows(rows),
            (LayerParams::Cached(GeneratedTensors { sca_transforms: Some((t1, t2)), .. }), _) => {
                Sca::Generated(t1, t2)
            }
            (_, Some((t1, t2))) => Sca::Shared(t1, t2),
            (_, None) => {
                return Err(TensorError::Invalid(
                    "FrozenLayer built for generated transforms requires generated theta".into(),
                ))
            }
        };
        fn pair(p: &Option<(Tensor, Tensor)>) -> Option<(&Tensor, &Tensor)> {
            p.as_ref().map(|(a, b)| (a, b))
        }
        let wts = Weights {
            proxies: &self.proxies,
            fusion: pair(&self.fusion),
            gate: pair(&self.gate),
            sca,
            graph: self.graph.as_deref(),
        };
        Ok(window_layer::forward(Kv::Split(keys, values), &wts, self.heads, false)?.0)
    }
}

/// The freeze-time projections applied: `x_win @ kp` / `x_win @ vp`
/// with the window axis flattened into GEMM rows, so the broadcast
/// matmul's `B*N*w` tiny dispatches (and its per-batch offset table)
/// collapse into `B*N` slice products per side. `[1, N, F, d]`
/// projections broadcast over the request batch, exactly like the
/// broadcast matmul did.
fn project_kv(x_win: &Tensor, k_proj: &Tensor, v_proj: &Tensor) -> Result<(Tensor, Tensor)> {
    let xs = x_win.shape();
    let ks = k_proj.shape();
    if xs.len() != 5 || ks.len() != 4 || v_proj.shape() != ks {
        return Err(TensorError::Invalid(format!(
            "project_kv: x {xs:?} / k {ks:?} / v {:?}",
            v_proj.shape()
        )));
    }
    let (b, n, w, s, f) = (xs[0], xs[1], xs[2], xs[3], xs[4]);
    let d = ks[3];
    if (ks[0] != b && ks[0] != 1) || ks[1] != n || ks[2] != f {
        return Err(TensorError::Invalid(format!(
            "project_kv: x {xs:?} incompatible with projections {ks:?}"
        )));
    }
    let rows = w * s;
    let (xd, kd, vd) = (x_win.data(), k_proj.data(), v_proj.data());
    let pb_stride = if ks[0] == 1 { 0 } else { n * f * d };
    let mut kout = memory::take_scratch(b * n * rows * d);
    let mut vout = memory::take_scratch(b * n * rows * d);
    for bi in 0..b {
        projection::forward_split(
            &xd[bi * n * rows * f..],
            &kd[bi * pb_stride..],
            &vd[bi * pb_stride..],
            f * d,
            n,
            (rows, f, d),
            &mut kout[bi * n * rows * d..],
            &mut vout[bi * n * rows * d..],
        );
    }
    Ok((
        Tensor::from_vec(kout, &[b, n, w, s, d])?,
        Tensor::from_vec(vout, &[b, n, w, s, d])?,
    ))
}

