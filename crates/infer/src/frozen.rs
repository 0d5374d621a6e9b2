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
//!   are cached as `[1, N, F, d]` tensors that broadcast over any batch,
//! - for temporally-aware models, the input-dependent encoder `E_psi`
//!   stays live but every dense weight along its path (encoder body,
//!   mean head, decoders) is panel-packed, and the planar-flow
//!   constrained parameters `(u, w, b)` are precomputed,
//! - all static dense weights (shared K/V, fusion, gate, SCA embedding,
//!   skip, predictor) are packed into GEMM panel layout.
//!
//! The frozen forward mirrors `StwaModel::forward_nograd` — which in
//! turn mirrors the graph path in eval mode — kernel-for-kernel, so its
//! predictions are bitwise identical to the training-time evaluation.

use crate::packed::{PackedDense, PackedMlp, PackedWeight};
use stwa_core::generator::GeneratedTensors;
use stwa_core::{AggregatorKind, ForecastModel, StGenerator, StwaModel};
use stwa_nn::StoreVersion;
use stwa_tensor::quant::Precision;
use stwa_tensor::{linalg, mathfn, memory, Result, Tensor, TensorError};

/// Frozen per-layer state of one window-attention layer.
struct FrozenLayer {
    proxies: Tensor, // [N, W, p, d]
    /// Proxy-fusion dense weight `[2d, d]` and bias, applied by the
    /// fused lean walk in [`fused_fusion`] instead of a packed GEMM —
    /// the matrices are too small for panel dispatch to pay off.
    fusion_w: Option<Tensor>,
    fusion_b: Option<Tensor>,
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
                fusion_w: layer.fusion().map(|l| l.weight_param().value()),
                fusion_b: layer
                    .fusion()
                    .and_then(|l| l.bias_param().map(|b| b.value())),
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
            // per-sensor parameters once, with a singleton batch axis
            // that broadcasts against any request batch.
            None => {
                let spatial = gen.spatial().ok_or_else(|| {
                    TensorError::Invalid("freeze: generator with no latents".into())
                })?;
                let means = spatial.means(); // [N, k]
                let (n, k) = (means.shape()[0], means.shape()[1]);
                let theta0 = means.unsqueeze(0)?.broadcast_to(&[1, n, k])?;
                let theta = match gen.flow() {
                    None => theta0,
                    Some(flow) => flow.transform_nograd(&theta0)?,
                };
                let mut cached = Vec::with_capacity(gen.decoders().len());
                for (l, (dec, &(fl, d))) in
                    gen.decoders().iter().zip(gen.layer_dims()).enumerate()
                {
                    let flat = dec.forward_nograd(&theta)?; // [1, N, 2*fl*d]
                    let kv = flat.reshape(&[1, n, 2, fl, d])?;
                    let k_proj = kv.narrow(2, 0, 1)?.squeeze(2)?;
                    let v_proj = kv.narrow(2, 1, 1)?.squeeze(2)?;
                    let sca_transforms = match gen.sca_decoders() {
                        None => None,
                        Some(decs) => {
                            let flat = decs[l].forward_nograd(&theta)?;
                            let pair = flat.reshape(&[1, n, 2, d, d])?;
                            Some((
                                pair.narrow(2, 0, 1)?.squeeze(2)?,
                                pair.narrow(2, 1, 1)?.squeeze(2)?,
                            ))
                        }
                    };
                    cached.push(GeneratedTensors {
                        k_proj,
                        v_proj,
                        sca_transforms,
                    });
                }
                Ok(FrozenGenerator::Static(cached))
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
    /// bf16/int8 it is the same op sequence over quantized panels,
    /// gated by the forecast-MAE accuracy check instead. `plan` must
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

        // Dynamically generated parameters (ST/T-aware only); the
        // static cache is borrowed, never recomputed.
        let dynamic: Option<Vec<GeneratedTensors>> = match &self.generator {
            Some(FrozenGenerator::Dynamic(dg)) => Some(dg.generate(x, b)?),
            _ => None,
        };
        let generated: Option<&[GeneratedTensors]> = match &self.generator {
            None => None,
            Some(FrozenGenerator::Static(cached)) => Some(cached),
            Some(FrozenGenerator::Dynamic(_)) => dynamic.as_deref(),
        };

        let mut h = x.clone();
        let mut skip_sum: Option<Tensor> = None;
        for (l, layer) in self.layers.iter().enumerate() {
            let layer_span = stwa_observe::span!("wa_layer{}", l);
            let proj = generated.map(|g| &g[l]);
            let out = layer.forward(&h, proj, &plan.p_base[l], b)?;
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

impl DynamicGenerator {
    /// The per-request remainder of `StGenerator::generate_nograd`:
    /// encode `E_psi` means, combine with the cached spatial means,
    /// apply the flow with precomputed constrained parameters, decode.
    fn generate(&self, x: &Tensor, b: usize) -> Result<Vec<GeneratedTensors>> {
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
                    let pre = linalg::matmul_lean(&current, w_col)?.add(bias)?;
                    let t = pre.tanh();
                    let step = t.mul(u)?;
                    current = current.add(&step)?;
                }
                current
            }
        };

        let decoder_span = stwa_observe::span!("decoder");
        let mut out = Vec::with_capacity(self.decoders.len());
        for (l, (dec, &(fl, d))) in self.decoders.iter().zip(&self.layer_dims).enumerate() {
            let flat = dec.forward(&theta)?; // [B, N, 2*fl*d]
            let (k_proj, v_proj) = split_kv(&flat, b, n, fl, d)?;
            let sca_transforms = match &self.sca_decoders {
                None => None,
                Some(decs) => {
                    let flat = decs[l].forward(&theta)?;
                    Some(split_kv(&flat, b, n, d, d)?)
                }
            };
            out.push(GeneratedTensors {
                k_proj,
                v_proj,
                sca_transforms,
            });
        }
        drop(decoder_span);
        Ok(out)
    }
}

impl FrozenLayer {
    /// Mirror of `WindowAttentionLayer::forward_nograd` with packed
    /// weights and the proxy broadcasts served from the batch plan.
    fn forward(
        &self,
        x: &Tensor,
        generated: Option<&GeneratedTensors>,
        p_base_plan: &[Tensor],
        b: usize,
    ) -> Result<Tensor> {
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != self.n || shape[2] != self.t_in || shape[3] != self.f_in
        {
            return Err(TensorError::Invalid(format!(
                "FrozenLayer: expected [B, {}, {}, {}], got {shape:?}",
                self.n, self.t_in, self.f_in
            )));
        }
        let (w, s, p, d) = (self.w, self.s, self.p, self.d);

        let x_win = x.reshape(&[b, self.n, w, s, self.f_in])?;
        let (keys, values) = match generated {
            Some(gp) => project_kv(&x_win, &gp.k_proj, &gp.v_proj)?,
            None => {
                let (Some(ks), Some(vs)) = (&self.k_shared, &self.v_shared) else {
                    return Err(TensorError::Invalid(
                        "FrozenLayer without shared projections requires generated K/V".into(),
                    ));
                };
                (ks.forward(&x_win)?, vs.forward(&x_win)?)
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
                    let fw = self.fusion_w.as_ref().expect("w > 1 implies fusion");
                    let r = fused_fusion(
                        h_prev,
                        &p_base,
                        fw,
                        self.fusion_b.as_ref(),
                        (b, self.n, p, d),
                    )?;
                    drop(fspan);
                    r
                }
            };
            let aspan = stwa_observe::span!("attn");
            let h_w = windowed_attention_lean(&p_q, &keys, &values, wi, self.heads)?;
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
            let h_bar = match (
                &self.sca,
                generated.and_then(|g| g.sca_transforms.as_ref()),
            ) {
                (Some(sca), Some((t1, t2))) => sca.forward_with(&h_hat, t1, t2)?,
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

/// The generated K/V projections `x_win @ kp` / `x_win @ vp` with the
/// window axis flattened into GEMM rows: for each `(b, n)` the `[w, s,
/// F]` input block multiplies one `[F, d]` projection, so the broadcast
/// matmul's `B*N*w` tiny dispatches (and its per-batch offset table)
/// collapse into `B*N` slice products per side.
///
/// Bitwise contract: row `(wi, si)` of a block is the same `[s, F]` row
/// the per-window product consumed, against the same `[F, d]` operand,
/// through [`linalg::gemm_nn_slice`] — same kernels, same ascending-`F`
/// accumulation, so the flattening is invisible bit-for-bit.
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
    // Freeze-time projections are `[1, N, F, d]` and broadcast over the
    // request batch (stride 0), exactly like the broadcast matmul did.
    let pb_stride = if ks[0] == 1 { 0 } else { n * f * d };
    let mut kout = memory::take_scratch(b * n * rows * d);
    let mut vout = memory::take_scratch(b * n * rows * d);
    for bi in 0..b {
        for ni in 0..n {
            let ln = bi * n + ni;
            let pat = bi * pb_stride + ni * f * d;
            let a = &xd[ln * rows * f..(ln + 1) * rows * f];
            let c = &mut kout[ln * rows * d..(ln + 1) * rows * d];
            linalg::gemm_nn_slice(a, &kd[pat..pat + f * d], c, rows, f, d);
            let c = &mut vout[ln * rows * d..(ln + 1) * rows * d];
            linalg::gemm_nn_slice(a, &vd[pat..pat + f * d], c, rows, f, d);
        }
    }
    Ok((
        Tensor::from_vec(kout, &[b, n, w, s, d])?,
        Tensor::from_vec(vout, &[b, n, w, s, d])?,
    ))
}

impl FrozenSca {
    /// Mirror of `SensorCorrelationAttention::forward_nograd` with
    /// packed shared transforms.
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

    /// Mirror of `SensorCorrelationAttention::forward_with_nograd`: the
    /// per-sensor Q/K transforms run as one fused microkernel walk
    /// instead of two broadcast matmul dispatches.
    fn forward_with(&self, h: &Tensor, t1: &Tensor, t2: &Tensor) -> Result<Tensor> {
        let _span = stwa_observe::span!("sensor_attention");
        let (q, k) = fused_qk(h, t1, t2, self.d)?;
        self.attend(&q, &k, h)
    }

    /// The sensor-correlation score matrix is `N x N` — big enough that
    /// the blocked GEMM kernels win — so the two GEMMs stay on the lean
    /// matmul entries; the scale and row softmax in between run in
    /// place on the uniquely-owned score buffer (same elementwise
    /// chain as `mul_scalar` + `softmax`, minus two dispatches and one
    /// materialization).
    fn attend(&self, q: &Tensor, k: &Tensor, h: &Tensor) -> Result<Tensor> {
        let scale = 1.0 / (self.d as f32).sqrt();
        if let Some(graph) = &self.graph {
            // Sparse mode: the fused gather kernel is the exact
            // training-time forward, so no separate lean variant to
            // keep in bitwise lockstep.
            let (out, _) = stwa_tensor::sparse::sparse_attention_forward(q, k, h, graph, scale)?;
            return Ok(out);
        }
        let mut scores = linalg::matmul_nt_lean(q, k)?;
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
        linalg::matmul_lean(&scores, h)
    }
}

/// [`scaled_dot_attention_lean`] with the window's K/V block read
/// straight out of the all-window projection tensors `[B, N, W, s, d]`
/// — the graph path narrows and squeezes a `[B, N, s, d]` copy per
/// window first, which is pure data movement (bitwise, slicing is the
/// same bits).
fn windowed_attention_lean(
    q: &Tensor, // [B, N, p, d]
    keys: &Tensor,
    values: &Tensor, // [B, N, W, s, d]
    wi: usize,
    heads: usize,
) -> Result<Tensor> {
    let qs = q.shape();
    let ks = keys.shape();
    if qs.len() != 4 || ks.len() != 5 || values.shape() != ks {
        return Err(TensorError::Invalid(format!(
            "windowed_attention_lean: q {qs:?} / keys {ks:?} / values {:?}",
            values.shape()
        )));
    }
    let (b, n, p, d) = (qs[0], qs[1], qs[2], qs[3]);
    let (w, s) = (ks[2], ks[3]);
    if ks[0] != b || ks[1] != n || ks[4] != d || wi >= w || heads == 0 || !d.is_multiple_of(heads)
    {
        return Err(TensorError::Invalid(format!(
            "windowed_attention_lean: q {qs:?} vs keys {ks:?}, window {wi}, heads {heads}"
        )));
    }
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let (qd, kd, vd) = (q.data(), keys.data(), values.data());
    let mut out = memory::take_scratch(b * n * p * d);
    let mut scores = vec![0f32; s];
    for l in 0..b * n {
        let qb = &qd[l * p * d..(l + 1) * p * d];
        let kvat = (l * w + wi) * s * d;
        let kb = &kd[kvat..kvat + s * d];
        let vb = &vd[kvat..kvat + s * d];
        let ob = &mut out[l * p * d..(l + 1) * p * d];
        for h in 0..heads {
            let off = h * dh;
            for i in 0..p {
                let qrow = &qb[i * d + off..i * d + off + dh];
                for (j, slot) in scores.iter_mut().enumerate() {
                    let krow = &kb[j * d + off..j * d + off + dh];
                    let mut acc = 0.0f32;
                    for (&qv, &kv) in qrow.iter().zip(krow.iter()) {
                        acc += qv * kv;
                    }
                    *slot = acc * scale;
                }
                let mut m = f32::NEG_INFINITY;
                for &x in scores.iter() {
                    m = m.max(x);
                }
                for x in scores.iter_mut() {
                    *x = mathfn::exp_f32(*x - m);
                }
                let mut z = 0.0f32;
                for &x in scores.iter() {
                    z += x;
                }
                for x in scores.iter_mut() {
                    *x /= z;
                }
                let orow = &mut ob[i * d + off..i * d + off + dh];
                for (c, slot) in orow.iter_mut().enumerate() {
                    let mut acc = 0.0f32;
                    for (j, &wv) in scores.iter().enumerate() {
                        acc += wv * vb[j * d + off + c];
                    }
                    *slot = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, n, p, d])
}

/// Split a decoded `[B, N, 2*F*d]` buffer into its K/V halves
/// (`[B, N, F, d]` each) in one contiguous pass — equivalent to the
/// graph path's reshape-to-`[B, N, 2, F, d]` + `narrow` + `squeeze`
/// pairs, which copy the same bytes through four dispatches.
fn split_kv(
    flat: &Tensor,
    b: usize,
    n: usize,
    f: usize,
    d: usize,
) -> Result<(Tensor, Tensor)> {
    let half = f * d;
    let data = flat.data();
    if data.len() != b * n * 2 * half {
        return Err(TensorError::Invalid(format!(
            "split_kv: {:?} vs [{b}, {n}, 2*{f}*{d}]",
            flat.shape()
        )));
    }
    let mut kbuf = memory::take_scratch(b * n * half);
    let mut vbuf = memory::take_scratch(b * n * half);
    for ln in 0..b * n {
        let src = &data[ln * 2 * half..(ln + 1) * 2 * half];
        kbuf[ln * half..(ln + 1) * half].copy_from_slice(&src[..half]);
        vbuf[ln * half..(ln + 1) * half].copy_from_slice(&src[half..]);
    }
    Ok((
        Tensor::from_vec(kbuf, &[b, n, f, d])?,
        Tensor::from_vec(vbuf, &[b, n, f, d])?,
    ))
}

/// The sensor-correlation Q/K transforms `q = h @ T1`, `k = h @ T2`
/// with per-sensor `T1, T2 in [Bt, N, d, d]` (`Bt = 1` broadcasts over
/// the request batch) as one lean walk sharing each input row.
///
/// Bitwise contract: every output element accumulates its `d`
/// contraction in a single ascending chain, exactly the broadcast
/// matmul the graph path runs on the unsqueezed rows.
fn fused_qk(h: &Tensor, t1: &Tensor, t2: &Tensor, d: usize) -> Result<(Tensor, Tensor)> {
    let hs = h.shape();
    let ts = t1.shape();
    if hs.len() != 3
        || hs[2] != d
        || t2.shape() != ts
        || ts.len() != 4
        || ts[1] != hs[1]
        || ts[2] != d
        || ts[3] != d
        || (ts[0] != 1 && ts[0] != hs[0])
    {
        return Err(TensorError::Invalid(format!(
            "fused_qk: h {hs:?} / t1 {ts:?} / t2 {:?}",
            t2.shape()
        )));
    }
    let (b, n) = (hs[0], hs[1]);
    let tb_stride = if ts[0] == 1 { 0 } else { n * d * d };
    let (hd, t1d, t2d) = (h.data(), t1.data(), t2.data());
    let mut qo = memory::take_filled(b * n * d, 0.0);
    let mut ko = memory::take_filled(b * n * d, 0.0);
    for bi in 0..b {
        for ni in 0..n {
            let at = (bi * n + ni) * d;
            let row = &hd[at..at + d];
            let tbase = bi * tb_stride + ni * d * d;
            let qrow = &mut qo[at..at + d];
            let krow = &mut ko[at..at + d];
            for (k, &hv) in row.iter().enumerate() {
                let t1row = &t1d[tbase + k * d..tbase + (k + 1) * d];
                let t2row = &t2d[tbase + k * d..tbase + (k + 1) * d];
                for ((q, &w1), (kk, &w2)) in qrow
                    .iter_mut()
                    .zip(t1row.iter())
                    .zip(krow.iter_mut().zip(t2row.iter()))
                {
                    *q += hv * w1;
                    *kk += hv * w2;
                }
            }
        }
    }
    Ok((
        Tensor::from_vec(qo, &[b, n, d])?,
        Tensor::from_vec(ko, &[b, n, d])?,
    ))
}

/// Proxy fusion `tanh(concat(h_prev, p_base) @ W + bias)` as one lean
/// walk: the graph path tiles `h_prev` to `[B, N, p, d]`, concatenates
/// with the proxy block, and runs a `2d -> d` dense — five dispatches
/// and three materializations for a `[2d, d]` matrix. Here each output
/// row reads `h_prev` and `p_base` in place.
///
/// Bitwise contract: each output element accumulates the `2d`
/// contraction in one ascending chain — `h_prev` features first, proxy
/// features second, exactly the concat order — matching the GEMM
/// kernels' order contract; the bias add and `tanh_f32` mirror both the
/// fused `bias_add_act` zip and the unfused add-then-activate branch,
/// which agree bitwise.
fn fused_fusion(
    h_prev: &Tensor, // [B, N, d]
    p_base: &Tensor, // [B, N, p, d]
    w: &Tensor,      // [2d, d]
    bias: Option<&Tensor>,
    dims: (usize, usize, usize, usize),
) -> Result<Tensor> {
    let (b, n, p, d) = dims;
    if h_prev.len() != b * n * d || p_base.len() != b * n * p * d || w.len() != 2 * d * d {
        return Err(TensorError::Invalid(format!(
            "fused_fusion: h_prev {:?} / p_base {:?} / w {:?} vs dims {dims:?}",
            h_prev.shape(),
            p_base.shape(),
            w.shape()
        )));
    }
    let (hd, pd, wd) = (h_prev.data(), p_base.data(), w.data());
    let bd = bias.map(Tensor::data);
    let mut out = memory::take_scratch(b * n * p * d);
    let mut acc = vec![0f32; d];
    for ln in 0..b * n {
        let hrow = &hd[ln * d..(ln + 1) * d];
        for pi in 0..p {
            let prow = &pd[(ln * p + pi) * d..(ln * p + pi + 1) * d];
            acc.fill(0.0);
            for (k, &hv) in hrow.iter().enumerate() {
                let wrow = &wd[k * d..(k + 1) * d];
                for (slot, &wv) in acc.iter_mut().zip(wrow.iter()) {
                    *slot += hv * wv;
                }
            }
            for (k, &pv) in prow.iter().enumerate() {
                let wrow = &wd[(d + k) * d..(d + k + 1) * d];
                for (slot, &wv) in acc.iter_mut().zip(wrow.iter()) {
                    *slot += pv * wv;
                }
            }
            let orow = &mut out[(ln * p + pi) * d..(ln * p + pi + 1) * d];
            match bd {
                Some(bv) => {
                    for ((o, &a), &bx) in orow.iter_mut().zip(acc.iter()).zip(bv.iter()) {
                        *o = a + bx;
                    }
                }
                None => orow.copy_from_slice(&acc),
            }
        }
    }
    // One wide tanh pass over the pre-activations — per element the
    // same add-then-tanh chain as the interleaved loop it replaces.
    mathfn::tanh_slice(&mut out);
    Tensor::from_vec(out, &[b, n, p, d])
}

