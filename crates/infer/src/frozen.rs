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
//! - all static dense weights (shared K/V, fusion, gate, SCA embedding,
//!   skip, predictor) are packed into GEMM panel layout.
//!
//! # Lazy decoding
//!
//! Decoding `Theta_t^(i)` into per-sensor `[F, d]` projections is most
//! of a forward's arithmetic — the decoder's last layer is a
//! `[B·N, m2] x [m2, 2·F·d]` product — and its output is consumed once,
//! by a product of a few rows per sensor. The dynamic generator
//! therefore never materializes `[B, N, 2·F·d]`: per request it computes
//! only the decoder *heads* (`[B·N, m2]` per layer, everything before
//! the last dense layer), and each layer then walks its sensors a block
//! at a time — last dense layer into a block-sized scratch, bias add,
//! then each sensor's window rows times the two `[F, d]` halves straight
//! out of that scratch ([`project_run`], the kernel the static path's
//! [`project_kv`] runs too). The scratch stays L2-resident between the
//! decode that writes it and the products that read it, and nothing
//! wider than the keys and values themselves reaches memory. Generated
//! sensor-correlation transforms are consumed once per *window*, so
//! their last layer runs whole, once per layer, into one flat
//! `[B·N, 2·d·d]` buffer that [`project_run`] reads in place.
//!
//! The frozen forward mirrors `StwaModel::forward` in eval mode
//! (`training == false`, what `forward_eval` / `forward_nograd` run on
//! a graph that records nothing) kernel-for-kernel, so its predictions
//! are bitwise identical to the training-time evaluation. It is the
//! only second definition of the model; `tests/frozen_contract.rs` is
//! the pin between the two.

use crate::packed::{PackedDense, PackedMlp, PackedWeight};
use stwa_core::generator::GeneratedTensors;
use stwa_core::{AggregatorKind, ForecastModel, StGenerator, StwaModel};
use stwa_nn::layers::Activation;
use stwa_nn::StoreVersion;
use stwa_tensor::quant::Precision;
use stwa_tensor::{attention, linalg, mathfn, memory, Result, Tensor, TensorError};

/// Frozen per-layer state of one window-attention layer.
struct FrozenLayer {
    proxies: Tensor, // [N, W, p, d]
    /// Eq. 14 proxy-fusion dense layer `[2d, d]`, absent when there is
    /// a single window. Packed at f32 whatever the snapshot's precision
    /// (it is `2·d·d` weights; quantized snapshots keep the fusion they
    /// always had).
    fusion: Option<PackedDense>,
    k_shared: Option<PackedDense>,
    v_shared: Option<PackedDense>,
    /// Eq. 12 gate matrices `[d, d]`, panel-packed: measured against a
    /// fused scalar walk, the blocked GEMM + bulk activation maps win
    /// (the vectorized `exp` maps beat short per-row loops).
    agg_w1: PackedWeight,
    agg_w2: PackedWeight,
    aggregator: AggregatorKind,
    sca: Option<FrozenSca>,
    n: usize,
    t_in: usize,
    s: usize,
    w: usize,
    p: usize,
    f_in: usize,
    d: usize,
    heads: usize,
}

/// Frozen sensor-correlation attention: packed shared transforms, or
/// none when the transforms are generated per sensor.
struct FrozenSca {
    theta1: Option<PackedDense>,
    theta2: Option<PackedDense>,
    d: usize,
    /// Neighbor lists when the training model ran in sparse mode; the
    /// frozen path must mix over the same support to stay bitwise.
    graph: Option<std::sync::Arc<stwa_tensor::SensorGraph>>,
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

/// Per-batch-size execution plan: the input-independent broadcast
/// buffers recorded on the first forward at that batch size and reused
/// for every subsequent request (the proxy blocks `[B, N, p, d]` of
/// every layer/window).
pub struct BatchPlan {
    batch: usize,
    /// `p_base[layer][window]`.
    p_base: Vec<Vec<Tensor>>,
}

impl BatchPlan {
    /// Batch size this plan was recorded for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Total f32 elements held by the recorded broadcast buffers.
    pub fn buffered_elems(&self) -> usize {
        self.p_base
            .iter()
            .flat_map(|ws| ws.iter().map(Tensor::len))
            .sum()
    }
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
    /// static weight panels change width. The pre-decoded S-WA
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

        let mut layers = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            let (n, t_in, s, p, f_in, d, heads) = layer.dims();
            let (k_shared, v_shared) = layer.shared_projections();
            let (agg_w1, agg_w2) = layer.agg_weights();
            let sca = match layer.sensor_attention() {
                None => None,
                Some(sca) => {
                    let (t1, t2) = sca.shared_transforms();
                    Some(FrozenSca {
                        theta1: t1.map(|l| PackedDense::from_linear_at(l, precision)).transpose()?,
                        theta2: t2.map(|l| PackedDense::from_linear_at(l, precision)).transpose()?,
                        d: sca.dim(),
                        graph: sca.sparsity().graph().cloned(),
                    })
                }
            };
            layers.push(FrozenLayer {
                proxies: layer.proxies().value(),
                fusion: layer.fusion().map(PackedDense::from_linear).transpose()?,
                k_shared: k_shared
                    .map(|l| PackedDense::from_linear_at(l, precision))
                    .transpose()?,
                v_shared: v_shared
                    .map(|l| PackedDense::from_linear_at(l, precision))
                    .transpose()?,
                agg_w1: PackedWeight::pack_at(&agg_w1.value(), precision)?,
                agg_w2: PackedWeight::pack_at(&agg_w2.value(), precision)?,
                aggregator: layer.aggregator_kind(),
                sca,
                n,
                t_in,
                s,
                w: layer.num_windows(),
                p,
                f_in,
                d,
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
    /// a hot swap safe.
    pub fn freeze_from_registry(
        model: &StwaModel,
        registry: &stwa_ckpt::Registry,
        name: &str,
        version: Option<u32>,
    ) -> Result<FrozenStwa> {
        Self::freeze_from_registry_at(model, registry, name, version, Precision::F32)
    }

    /// [`FrozenStwa::freeze_from_registry`] at a chosen panel
    /// precision — the hot-swap transport for quantized serving.
    pub fn freeze_from_registry_at(
        model: &StwaModel,
        registry: &stwa_ckpt::Registry,
        name: &str,
        version: Option<u32>,
        precision: Precision,
    ) -> Result<FrozenStwa> {
        let _span = stwa_observe::span!("freeze_from_registry");
        let ckpt = registry.load(name, version).map_err(|e| {
            TensorError::Invalid(format!("freeze_from_registry: {e}"))
        })?;
        ckpt.load_best_into(model.store()).map_err(|e| {
            TensorError::Invalid(format!("freeze_from_registry: {e}"))
        })?;
        Self::freeze_at(model, precision)
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

    /// Record the execution plan for batch size `b`: materialize every
    /// input-independent broadcast buffer once so subsequent forwards
    /// at the same batch size reuse them.
    pub fn record_plan(&self, b: usize) -> Result<BatchPlan> {
        let mut p_base = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let mut per_window = Vec::with_capacity(layer.w);
            for wi in 0..layer.w {
                per_window.push(
                    layer
                        .proxies
                        .narrow(1, wi, 1)?
                        .squeeze(1)?
                        .unsqueeze(0)?
                        .broadcast_to(&[b, layer.n, layer.p, layer.d])?,
                );
            }
            p_base.push(per_window);
        }
        Ok(BatchPlan { batch: b, p_base })
    }

    /// One tape-free forward through the frozen stack: normalized-scale
    /// predictions `[B, N, U, F]`. At [`Precision::F32`] the output is
    /// bitwise identical to the graph eval path of the source model; at
    /// int8 it is the same op sequence over quantized panels, gated by
    /// the forecast-MAE accuracy check instead. `plan` must
    /// come from [`FrozenStwa::record_plan`] for `x`'s batch size.
    pub fn forward(&self, x: &Tensor, plan: &BatchPlan) -> Result<Tensor> {
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != self.n || shape[2] != self.h || shape[3] != self.f_in
        {
            return Err(TensorError::Invalid(format!(
                "FrozenStwa: expected [B, {}, {}, {}], got {shape:?}",
                self.n, self.h, self.f_in
            )));
        }
        let b = shape[0];
        if plan.batch != b {
            return Err(TensorError::Invalid(format!(
                "FrozenStwa: plan recorded for batch {}, input has batch {b}",
                plan.batch
            )));
        }
        let _span = stwa_observe::span!("forward");

        // ST/T-aware models: the decoder heads, once per request. The
        // static cache is borrowed, never recomputed.
        let dynamic = match &self.generator {
            Some(FrozenGenerator::Dynamic(dg)) => Some((dg, dg.decoder_heads(x, b)?)),
            _ => None,
        };

        let mut h = x.clone();
        let mut skip_sum: Option<Tensor> = None;
        for (l, layer) in self.layers.iter().enumerate() {
            let params = if let Some((dg, heads)) = &dynamic {
                // The last decoder layer and the projections it feeds
                // are generator work: attributed there, per layer, not
                // to the window-attention layer.
                let _generator = stwa_observe::span!("generator");
                let _decoder = stwa_observe::span!("decoder");
                let (keys, values) = dg.project_kv(l, &heads[l], &layer.windows(&h, b)?)?;
                LayerParams::Projected {
                    keys,
                    values,
                    sca: dg.sca_transforms(l, &heads[l])?,
                }
            } else if let Some(FrozenGenerator::Static(cached)) = &self.generator {
                LayerParams::Cached(&cached[l])
            } else {
                LayerParams::Shared
            };
            let layer_span = stwa_observe::span!("wa_layer{}", l);
            let out = layer.forward(&h, params, &plan.p_base[l], b)?;
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

    /// Total bytes held in packed GEMM panels across the snapshot.
    pub fn packed_bytes(&self) -> usize {
        let layer_bytes: usize = self
            .layers
            .iter()
            .map(|l| {
                l.k_shared.as_ref().map_or(0, PackedDense::packed_bytes)
                    + l.v_shared.as_ref().map_or(0, PackedDense::packed_bytes)
                    + l.fusion.as_ref().map_or(0, PackedDense::packed_bytes)
                    + l.agg_w1.packed_bytes()
                    + l.agg_w2.packed_bytes()
                    + l.sca.as_ref().map_or(0, |s| {
                        s.theta1.as_ref().map_or(0, PackedDense::packed_bytes)
                            + s.theta2.as_ref().map_or(0, PackedDense::packed_bytes)
                    })
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

/// What the dynamic generator keeps of one layer's decoders for the
/// rest of the request: the activations entering their last dense
/// layers, `[B·N, m2]` each.
struct DecoderHeads {
    kv: Tensor,
    sca: Option<Tensor>,
}

/// (Sample, sensor) pairs decoded per block of the lazy K/V walk.
/// `KV_BLOCK × 2·F·d` floats of scratch (512 KiB at `F = d = 32`) sit
/// in L2 beside the last layer's panels between the decode that writes
/// them and the row products that read them.
const KV_BLOCK: usize = 64;

impl DynamicGenerator {
    /// The per-request remainder of eval-mode `StGenerator::generate`
    /// up to the decoders' last dense layers: encode `E_psi` means, combine
    /// with the cached spatial means, apply the flow with precomputed
    /// constrained parameters, run every decoder's head.
    fn decoder_heads(&self, x: &Tensor, b: usize) -> Result<Vec<DecoderHeads>> {
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
        let theta = theta.reshape(&[b * n, theta.shape()[2]])?;

        self.decoders
            .iter()
            .enumerate()
            .map(|(l, dec)| {
                Ok(DecoderHeads {
                    kv: dec.forward_head(&theta)?,
                    sca: match &self.sca_decoders {
                        None => None,
                        Some(decs) => Some(decs[l].forward_head(&theta)?),
                    },
                })
            })
            .collect()
    }

    /// Layer `l`'s keys and values `[B, N, w, s, d]` from its decoder
    /// head, without the `[B, N, 2·F·d]` projections in between: the
    /// last dense layer runs [`KV_BLOCK`] sensors at a time into one
    /// scratch buffer and each sensor's `[w·s, F]` window rows multiply
    /// the two `[F, d]` halves where they land.
    ///
    /// Bitwise contract: a block's rows of the dense layer are the same
    /// rows the whole-tensor forward computes (rows are independent at
    /// both precisions), and [`project_run`] is the product the static
    /// path and — by the kernel order contract — the graph path's
    /// broadcast matmul run.
    fn project_kv(
        &self,
        l: usize,
        heads: &DecoderHeads,
        x_win: &Tensor, // [B, N, w, s, F]
    ) -> Result<(Tensor, Tensor)> {
        let (f, d) = self.layer_dims[l];
        let xs = x_win.shape();
        let (pairs, rows) = (xs[0] * xs[1], xs[2] * xs[3]);
        let (last, act) = self.decoders[l].last();
        let (m2, width) = (last.in_dim(), last.out_dim());
        if xs[4] != f || width != 2 * f * d || heads.kv.len() != pairs * m2 {
            return Err(TensorError::Invalid(format!(
                "DynamicGenerator: layer {l} windows {xs:?} / head {:?} vs decoder \
                 {m2} -> {width} for [{f}, {d}] projections",
                heads.kv.shape()
            )));
        }
        let (xd, hd) = (x_win.data(), heads.kv.data());
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
                project_run(
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
    fn sca_transforms(&self, l: usize, heads: &DecoderHeads) -> Result<Option<Tensor>> {
        let (Some(decs), Some(head)) = (&self.sca_decoders, &heads.sca) else {
            return Ok(None);
        };
        let (last, act) = decs[l].last();
        last.forward_act(head, act).map(Some)
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

    /// Mirror of `WindowAttentionLayer::forward` with packed
    /// weights and the proxy broadcasts served from the batch plan.
    fn forward(
        &self,
        x: &Tensor,
        params: LayerParams<'_>,
        p_base_plan: &[Tensor],
        b: usize,
    ) -> Result<Tensor> {
        let (w, p, d) = (self.w, self.p, self.d);

        let (keys, values, sca_source) = match params {
            LayerParams::Projected { keys, values, sca } => {
                (keys, values, sca.map(ScaTransforms::Flat))
            }
            LayerParams::Cached(gp) => {
                let (keys, values) = project_kv(&self.windows(x, b)?, &gp.k_proj, &gp.v_proj)?;
                let sca = gp.sca_transforms.as_ref();
                (
                    keys,
                    values,
                    sca.map(|(t1, t2)| ScaTransforms::Cached(t1, t2)),
                )
            }
            LayerParams::Shared => {
                let (Some(ks), Some(vs)) = (&self.k_shared, &self.v_shared) else {
                    return Err(TensorError::Invalid(
                        "FrozenLayer without shared projections requires generated K/V".into(),
                    ));
                };
                let x_win = self.windows(x, b)?;
                (ks.forward(&x_win)?, vs.forward(&x_win)?, None)
            }
        };

        let mut prev: Option<Tensor> = None;
        // Window outputs go straight into the `[B, N, w, d]` result
        // buffer — the graph path unsqueezes and concatenates, which
        // copies the same bytes through `w + 1` extra dispatches.
        let mut out = memory::take_scratch(b * self.n * w * d);
        for wi in 0..w {
            let p_base = p_base_plan[wi].clone();
            let p_q = match &prev {
                None => p_base,
                Some(h_prev) => {
                    let fspan = stwa_observe::span!("fusion");
                    let fusion = self.fusion.as_ref().expect("w > 1 implies fusion");
                    let r = fused_fusion(h_prev, &p_base, fusion, (b, self.n, p, d))?;
                    drop(fspan);
                    r
                }
            };
            let aspan = stwa_observe::span!("attn");
            // The graph path's attention walk, reading window `wi` of
            // the all-window projections in place (the graph narrows
            // and squeezes a `[B, N, s, d]` copy per window first).
            let h_w = attention::forward_window(&p_q, &keys, &values, wi, self.heads)?;
            drop(aspan);
            let gspan = stwa_observe::span!("gate");
            let h_hat = match self.aggregator {
                AggregatorKind::Learned => {
                    // Blocked packed GEMMs (measured faster than a
                    // fused scalar walk at d x d), with the activation
                    // maps run in place on the uniquely-owned buffers
                    // and the gate-multiply + proxy-sum folded into one
                    // pass — same elementwise kernels and the same
                    // ascending-p fold as `mul` + `sum_axis`, minus
                    // four dispatches.
                    let mut gate = self.agg_w1.matmul(&h_w)?;
                    mathfn::tanh_slice(gate.data_mut());
                    let mut gate = self.agg_w2.matmul(&gate)?;
                    mathfn::sigmoid_slice(gate.data_mut());
                    let (gd, hd) = (gate.data(), h_w.data());
                    let mut out = memory::take_filled(b * self.n * d, 0.0);
                    for (ln, orow) in out.chunks_exact_mut(d).enumerate() {
                        for pi in 0..p {
                            let at = (ln * p + pi) * d;
                            for ((o, &g), &hv) in orow
                                .iter_mut()
                                .zip(gd[at..at + d].iter())
                                .zip(hd[at..at + d].iter())
                            {
                                *o += g * hv;
                            }
                        }
                    }
                    Tensor::from_vec(out, &[b, self.n, d])?
                }
                AggregatorKind::Mean => h_w.mean_axis(2, false)?,
            };
            drop(gspan);
            let h_bar = match (&self.sca, &sca_source) {
                (Some(sca), Some(transforms)) => sca.forward_with(&h_hat, transforms)?,
                (Some(sca), None) => sca.forward(&h_hat)?,
                (None, _) => h_hat,
            };
            let hd = h_bar.data();
            for (ln, row) in hd.chunks_exact(d).enumerate() {
                out[(ln * w + wi) * d..(ln * w + wi + 1) * d].copy_from_slice(row);
            }
            prev = Some(h_bar);
        }
        Tensor::from_vec(out, &[b, self.n, w, d])
    }
}

/// `kout[i] = x[i] @ first[i]` and `vout[i] = x[i] @ second[i]` for
/// `count` consecutive (sample, sensor) pairs: pair `i`'s input block
/// is the `[rows, f]` matrix at `x[i·rows·f..]`, its two `[f, d]`
/// operands start at `first[i·stride..]` / `second[i·stride..]`, its
/// outputs are the `[rows, d]` matrices at `kout[i·rows·d..]` /
/// `vout[i·rows·d..]`. One definition serves the K/V projections
/// (`rows = w·s` window rows) and the generated sensor-correlation
/// transforms (`rows = 1`), over freeze-time caches and freshly decoded
/// scratch alike — only the stride differs.
///
/// Bitwise contract: each pair is one [`linalg::gemm_nn_slice`] per
/// side — same kernels, same ascending-`f` accumulation as the
/// broadcast matmul the graph path runs per window.
#[allow(clippy::too_many_arguments)]
fn project_run(
    x: &[f32],
    first: &[f32],
    second: &[f32],
    stride: usize,
    count: usize,
    (rows, f, d): (usize, usize, usize),
    kout: &mut [f32],
    vout: &mut [f32],
) {
    for i in 0..count {
        let a = &x[i * rows * f..(i + 1) * rows * f];
        let at = i * stride;
        let (kp, vp) = (&first[at..at + f * d], &second[at..at + f * d]);
        let out = i * rows * d..(i + 1) * rows * d;
        linalg::gemm_nn_slice(a, kp, &mut kout[out.clone()], rows, f, d);
        linalg::gemm_nn_slice(a, vp, &mut vout[out], rows, f, d);
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
        project_run(
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

/// Generated per-sensor sensor-correlation transforms, as stored.
enum ScaTransforms<'a> {
    /// Freeze-time `T1`, `T2`, each `[1, N, d, d]`.
    Cached(&'a Tensor, &'a Tensor),
    /// Decoded this request: `[B·N, 2·d·d]`, each row `T1 | T2`.
    Flat(Tensor),
}

impl FrozenSca {
    /// Mirror of `SensorCorrelationAttention::forward` with packed
    /// shared transforms.
    fn forward(&self, h: &Tensor) -> Result<Tensor> {
        let (Some(theta1), Some(theta2)) = (&self.theta1, &self.theta2) else {
            return Err(TensorError::Invalid(
                "FrozenSca built for generated transforms requires forward_with".into(),
            ));
        };
        let _span = stwa_observe::span!("sensor_attention");
        let q = theta1.forward(h)?;
        let k = theta2.forward(h)?;
        self.attend(&q, &k, h)
    }

    /// Mirror of `SensorCorrelationAttention::forward_with`: the
    /// per-sensor transforms `q = h @ T1`, `k = h @ T2` are the K/V
    /// projection with one row per sensor.
    fn forward_with(&self, h: &Tensor, transforms: &ScaTransforms<'_>) -> Result<Tensor> {
        let _span = stwa_observe::span!("sensor_attention");
        let hs = h.shape();
        let d = self.d;
        if hs.len() != 3 || hs[2] != d {
            return Err(TensorError::Invalid(format!(
                "FrozenSca: expected [B, N, {d}], got {hs:?}"
            )));
        }
        let (b, n) = (hs[0], hs[1]);
        let (q, k) = match transforms {
            ScaTransforms::Cached(t1, t2) => {
                let (q, k) = project_kv(&h.reshape(&[b, n, 1, 1, d])?, t1, t2)?;
                (q.reshape(hs)?, k.reshape(hs)?)
            }
            ScaTransforms::Flat(flat) => {
                if flat.len() != b * n * 2 * d * d {
                    return Err(TensorError::Invalid(format!(
                        "FrozenSca: transforms {:?} for h {hs:?}",
                        flat.shape()
                    )));
                }
                let mut q = memory::take_scratch(b * n * d);
                let mut k = memory::take_scratch(b * n * d);
                let td = flat.data();
                project_run(
                    h.data(),
                    td,
                    &td[d * d..],
                    2 * d * d,
                    b * n,
                    (1, d, d),
                    &mut q,
                    &mut k,
                );
                (Tensor::from_vec(q, hs)?, Tensor::from_vec(k, hs)?)
            }
        };
        self.attend(&q, &k, h)
    }

    /// The sensor-correlation score matrix is `N x N` — big enough that
    /// the blocked GEMM kernels win — so the two products are plain
    /// matmuls; the scale and row softmax in between run in
    /// place on the uniquely-owned score buffer (same elementwise
    /// chain as `mul_scalar` + `softmax`, minus two dispatches and one
    /// materialization).
    fn attend(&self, q: &Tensor, k: &Tensor, h: &Tensor) -> Result<Tensor> {
        let scale = 1.0 / (self.d as f32).sqrt();
        if let Some(graph) = &self.graph {
            // Sparse mode: the fused gather kernel is the exact
            // training-time forward.
            let (out, _) = stwa_tensor::sparse::sparse_attention_forward(q, k, h, graph, scale)?;
            return Ok(out);
        }
        let mut scores = linalg::matmul_nt(q, k)?;
        let t = scores.shape()[scores.rank() - 1];
        for row in scores.data_mut().chunks_exact_mut(t) {
            // Scale first, then the max / exp-shift / ascending-sum /
            // divide chain — fold-for-fold what softmax_lastdim does.
            let mut m = f32::NEG_INFINITY;
            for x in row.iter_mut() {
                *x *= scale;
                m = m.max(*x);
            }
            mathfn::exp_sub_slice(row, m);
            let mut z = 0.0f32;
            for &x in row.iter() {
                z += x;
            }
            for x in row.iter_mut() {
                *x /= z;
            }
        }
        linalg::matmul(&scores, h)
    }
}

/// Proxy fusion `tanh(concat(h_prev, p_base) @ W + bias)`: the graph
/// path tiles `h_prev` to `[B, N, p, d]`, concatenates with the proxy
/// block, and runs the `2d -> d` dense layer. Here the `[h_prev | p]`
/// rows are gathered straight into one scratch matrix and the packed
/// layer runs on it — the same rows through the same product, bias add
/// and `tanh` pass, so bitwise by construction.
fn fused_fusion(
    h_prev: &Tensor, // [B, N, d]
    p_base: &Tensor, // [B, N, p, d]
    fusion: &PackedDense,
    dims: (usize, usize, usize, usize),
) -> Result<Tensor> {
    let (b, n, p, d) = dims;
    if h_prev.len() != b * n * d || p_base.len() != b * n * p * d || fusion.in_dim() != 2 * d {
        return Err(TensorError::Invalid(format!(
            "fused_fusion: h_prev {:?} / p_base {:?} / fusion {} -> {} vs dims {dims:?}",
            h_prev.shape(),
            p_base.shape(),
            fusion.in_dim(),
            fusion.out_dim()
        )));
    }
    let (hd, pd) = (h_prev.data(), p_base.data());
    let mut stacked = memory::take_scratch(b * n * p * 2 * d);
    for (row, (dst, prow)) in stacked
        .chunks_exact_mut(2 * d)
        .zip(pd.chunks_exact(d))
        .enumerate()
    {
        let ln = row / p;
        dst[..d].copy_from_slice(&hd[ln * d..(ln + 1) * d]);
        dst[d..].copy_from_slice(prow);
    }
    let stacked = Tensor::from_vec(stacked, &[b, n, p, 2 * d])?;
    fusion.forward_act(&stacked, Activation::Tanh)
}
