//! The Spatio-Temporal Aware Model Parameter Generator
//! (paper Section IV-A.3 and Figure 5).
//!
//! [`StGenerator`] owns the latent machinery ([`crate::latent`]) and one
//! [`ParamDecoder`] per attention layer; its
//! [`StGenerator::generate`] returns per-sensor, time-varying `K`/`V`
//! projection tensors for every layer, plus the analytic KL regularizer
//! of Eq. 20.
//!
//! Parameter-count accounting (paper Section IV-A.3): the naive
//! per-sensor projections cost `O(N * d^2)`; here the per-sensor cost is
//! only the latent means/log-variances `O(N * k)` while the decoder
//! (`O(k*m1 + m1*m2 + m2*d^2)`) is shared across sensors.

use crate::flow::{flow_kl, FlowStack};
use crate::latent::{GaussianSample, LatentMode, SpatialLatent, TemporalEncoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stwa_autograd::{Graph, Var};
use stwa_nn::layers::{Activation, Linear, Mlp};
use stwa_nn::{Param, ParamStore};
use stwa_tensor::{Result, Tensor, TensorError};

/// The shared decoder `D_omega` (Eq. 8): a small MLP from the latent
/// space to a flat parameter vector, reshaped by the caller.
pub struct ParamDecoder {
    mlp: Mlp,
    k: usize,
    out_elems: usize,
}

impl ParamDecoder {
    /// `hidden = (m1, m2)` mirrors the paper's 3-layer decoder.
    pub fn new(
        store: &ParamStore,
        name: &str,
        k: usize,
        hidden: (usize, usize),
        out_elems: usize,
        rng: &mut impl Rng,
    ) -> ParamDecoder {
        ParamDecoder {
            mlp: Mlp::new(
                store,
                name,
                &[k, hidden.0, hidden.1, out_elems],
                &[Activation::Relu, Activation::Relu, Activation::Identity],
                rng,
            ),
            k,
            out_elems,
        }
    }

    /// Seed the decoder's output bias with `values` so the *initial*
    /// generated parameters match a conventionally initialized layer
    /// (e.g. Xavier-scaled projections). Without this, generated
    /// projections start near zero — poorly conditioned compared to the
    /// shared-parameter baselines they are meant to replace — and the
    /// ST-aware variants train visibly slower.
    pub fn seed_output_bias(&self, values: stwa_tensor::Tensor) {
        self.output_bias().set_value(values);
    }

    fn output_bias(&self) -> &Param {
        self.last()
            .bias_param()
            .expect("decoder layers carry biases")
    }

    pub fn out_elems(&self) -> usize {
        self.out_elems
    }

    /// Decode `theta` `[..., k]` into `[..., out_elems]`.
    pub fn forward(&self, graph: &Graph, theta: &Var) -> Result<Var> {
        self.last()
            .forward(graph, &self.forward_head(graph, theta)?)
    }

    /// Every layer but the last: `theta` `[..., k]` into the `[..., m2]`
    /// activations that enter [`ParamDecoder::last`].
    pub fn forward_head(&self, graph: &Graph, theta: &Var) -> Result<Var> {
        if theta.shape().last() != Some(&self.k) {
            return Err(TensorError::Invalid(format!(
                "ParamDecoder: expected latent dim {}, got {:?}",
                self.k,
                theta.shape()
            )));
        }
        let layers = self.mlp.layers();
        let mut h = theta.clone();
        for (layer, act) in layers[..layers.len() - 1]
            .iter()
            .zip(self.mlp.activations())
        {
            h = layer.forward_act(graph, &h, *act)?;
        }
        Ok(h)
    }

    /// The output layer `[m2] -> [out_elems]`, whose activation is the
    /// identity.
    pub fn last(&self) -> &Linear {
        self.mlp.last_layer()
    }

    /// The decoder MLP — read when packing frozen inference weights.
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }
}

/// Per-layer generated projections: the K/V decoder's last hidden
/// activations `head` `[B, N, m2]` and its output layer's `weight` `[m2,
/// 2·F_l·d]` and `bias` leaves, which [`Var::project_kv`] decodes into
/// one flat row per (sample, sensor) — `K_t^(i)` `[F_l, d]` then
/// `V_t^(i)` — block by block as it projects; plus (optionally) the
/// sensor-correlation transforms `theta1/theta2` of shape `[B, N, d, d]`
/// (Section IV-C's generated variant).
pub struct GeneratedProjections {
    pub head: Var,
    pub weight: Var,
    pub bias: Var,
    pub sca_transforms: Option<(Var, Var)>,
}

/// Everything one forward pass needs from the generator.
pub struct GeneratedParams {
    pub layers: Vec<GeneratedProjections>,
    /// Eq. 20's `D_KL[Theta_t || N(0, I)]`, present when the latents are
    /// stochastic.
    pub kl: Option<Var>,
}

/// [`GeneratedProjections`] as plain tensors, off any graph — what
/// [`StGenerator::generate_nograd`] returns and the frozen S-WA cache
/// holds.
pub struct GeneratedTensors {
    pub k_proj: Tensor,
    pub v_proj: Tensor,
    pub sca_transforms: Option<(Tensor, Tensor)>,
}

/// Configuration of which latent pieces are active — the paper's
/// S-aware / T-aware / ST-aware spectrum (Tables IV, VII, VIII).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AwarenessFlags {
    pub spatial: bool,
    pub temporal: bool,
}

impl AwarenessFlags {
    pub fn st_aware() -> Self {
        AwarenessFlags {
            spatial: true,
            temporal: true,
        }
    }
    pub fn s_aware() -> Self {
        AwarenessFlags {
            spatial: true,
            temporal: false,
        }
    }
    pub fn t_aware() -> Self {
        AwarenessFlags {
            spatial: false,
            temporal: true,
        }
    }
}

/// The full generator: latents + one decoder per target layer.
pub struct StGenerator {
    spatial: Option<SpatialLatent>,
    temporal: Option<TemporalEncoder>,
    decoders: Vec<ParamDecoder>,
    /// Optional normalizing flow over `Theta` (the paper's future-work
    /// extension); replaces the analytic KL with a Monte-Carlo estimate.
    flow: Option<FlowStack>,
    /// Optional per-layer decoders for generated sensor-correlation
    /// transforms (Section IV-C).
    sca_decoders: Option<Vec<ParamDecoder>>,
    /// `(F_l, d)` for each layer, in layer order.
    layer_dims: Vec<(usize, usize)>,
    mode: LatentMode,
    n: usize,
}

impl StGenerator {
    /// `layer_dims` lists `(input_feature_dim, d)` for each attention
    /// layer whose `K`/`V` this generator supplies.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &ParamStore,
        name: &str,
        flags: AwarenessFlags,
        mode: LatentMode,
        n: usize,
        h: usize,
        f: usize,
        k: usize,
        decoder_hidden: (usize, usize),
        layer_dims: &[(usize, usize)],
        flow_depth: Option<usize>,
        generated_sca: bool,
        rng: &mut impl Rng,
    ) -> StGenerator {
        assert!(
            flags.spatial || flags.temporal,
            "StGenerator needs at least one of spatial/temporal awareness"
        );
        let spatial = flags
            .spatial
            .then(|| SpatialLatent::new(store, &format!("{name}.z"), n, k, rng));
        let temporal = flags
            .temporal
            .then(|| TemporalEncoder::new(store, &format!("{name}.enc"), h, f, 32, k, rng));
        let decoders: Vec<ParamDecoder> = layer_dims
            .iter()
            .enumerate()
            .map(|(l, &(fl, d))| {
                let dec = ParamDecoder::new(
                    store,
                    &format!("{name}.dec{l}"),
                    k,
                    decoder_hidden,
                    2 * fl * d,
                    rng,
                );
                // Start every sensor from Xavier-scale K/V (see
                // `seed_output_bias`); the decoder weights then learn
                // per-sensor, per-time deltas around it.
                dec.seed_output_bias(crate::generator::xavier_flat(2, fl, d, rng));
                dec
            })
            .collect();
        let flow =
            flow_depth.map(|depth| FlowStack::new(store, &format!("{name}.flow"), k, depth, rng));
        let sca_decoders = generated_sca.then(|| {
            layer_dims
                .iter()
                .enumerate()
                .map(|(l, &(_fl, d))| {
                    let dec = ParamDecoder::new(
                        store,
                        &format!("{name}.sca{l}"),
                        k,
                        decoder_hidden,
                        2 * d * d,
                        rng,
                    );
                    dec.seed_output_bias(xavier_flat(2, d, d, rng));
                    dec
                })
                .collect()
        });
        StGenerator {
            spatial,
            temporal,
            decoders,
            flow,
            sca_decoders,
            layer_dims: layer_dims.to_vec(),
            mode,
            n,
        }
    }

    /// Whether the generator is temporal-aware.
    pub fn is_temporal(&self) -> bool {
        self.temporal.is_some()
    }

    /// The learned spatial means (Fig. 9(b) visualization), if spatial.
    pub fn spatial_means(&self) -> Option<stwa_tensor::Tensor> {
        self.spatial.as_ref().map(|s| s.means())
    }

    /// Sample `Theta_t = z + z_t` and decode per-layer projections.
    ///
    /// `x` is the normalized recent window `[B, N, H, F]` (the encoder's
    /// conditioning input).
    pub fn generate(&self, graph: &Graph, x: &Var, rng: &mut impl Rng) -> Result<GeneratedParams> {
        self.generate_with_mode(graph, x, rng, self.mode)
    }

    /// [`StGenerator::generate`] with an explicit latent mode — the
    /// trainer passes `Deterministic` at evaluation time so predictions
    /// use the posterior means instead of a random draw.
    pub fn generate_with_mode(
        &self,
        graph: &Graph,
        x: &Var,
        rng: &mut impl Rng,
        mode: LatentMode,
    ) -> Result<GeneratedParams> {
        let shape = x.shape();
        let (b, n) = (shape[0], shape[1]);
        if n != self.n {
            return Err(TensorError::Invalid(format!(
                "StGenerator: built for N={}, got N={n}",
                self.n
            )));
        }
        let _span = stwa_observe::span!("generator");

        let latent_span = stwa_observe::span!("latent");
        let s_sample: Option<GaussianSample> = match &self.spatial {
            Some(s) => Some(s.sample(graph, mode, rng)?),
            None => None,
        };
        let t_sample: Option<GaussianSample> = match &self.temporal {
            Some(t) => Some(t.sample(graph, x, mode, rng)?),
            None => None,
        };
        drop(latent_span);

        // Theta_t^(i) = z^(i) + z_t^(i) (Eq. 4), in [B, N, k].
        let theta0 = combine_theta(s_sample.as_ref(), t_sample.as_ref(), b, self.n)?;

        // Optionally flow Theta to a non-Gaussian posterior (future-work
        // extension); the KL then comes from the flow's MC estimator.
        let (theta, kl_override) = match &self.flow {
            None => (theta0, None),
            Some(flow) => {
                let (theta_k, logdet) = flow.forward(graph, &theta0)?;
                let kl = if mode == LatentMode::Stochastic {
                    let (mu_c, var_c) =
                        combined_moments(s_sample.as_ref(), t_sample.as_ref(), b, self.n)?;
                    Some(flow_kl(&theta0, &mu_c, &var_c, &theta_k, &logdet)?)
                } else {
                    None
                };
                (theta_k, kl)
            }
        };

        // Decode each layer's K/V (and optionally theta1/theta2).
        let decoder_span = stwa_observe::span!("decoder");
        let mut layers = Vec::with_capacity(self.decoders.len());
        for (l, (dec, &(_, d))) in self.decoders.iter().zip(&self.layer_dims).enumerate() {
            let head = dec.forward_head(graph, &theta)?; // [B, N, m2]
            let weight = dec.last().weight_param().leaf(graph);
            let bias = dec.output_bias().leaf(graph);
            let sca_transforms = match &self.sca_decoders {
                None => None,
                Some(decs) => {
                    let flat = decs[l].forward(graph, &theta)?; // [B, N, 2*d*d]
                    let pair = flat.reshape(&[b, self.n, 2, d, d])?;
                    Some((
                        pair.narrow(2, 0, 1)?.squeeze(2)?,
                        pair.narrow(2, 1, 1)?.squeeze(2)?,
                    ))
                }
            };
            layers.push(GeneratedProjections {
                head,
                weight,
                bias,
                sca_transforms,
            });
        }
        drop(decoder_span);

        // Analytic KL of Theta (sum of independent Gaussians) vs N(0, I),
        // unless the flow already produced its MC estimate.
        let kl = match (&self.flow, mode) {
            (Some(_), _) => kl_override,
            (None, LatentMode::Stochastic) => Some(combined_kl(
                s_sample.as_ref(),
                t_sample.as_ref(),
                b,
                self.n,
            )?),
            (None, LatentMode::Deterministic) => None,
        };

        Ok(GeneratedParams { layers, kl })
    }

    /// Eval-mode generation on plain tensors: [`StGenerator::generate_with_mode`]
    /// with `Deterministic` latents (the posterior means) on a graph that
    /// records nothing, so nothing outlives the returned projections.
    pub fn generate_nograd(&self, x: &Tensor) -> Result<Vec<GeneratedTensors>> {
        let graph = Graph::no_grad();
        // Deterministic latents never draw; the seed is inert.
        let mut rng = StdRng::seed_from_u64(0);
        let params = self.generate_with_mode(
            &graph,
            &graph.constant(x.clone()),
            &mut rng,
            LatentMode::Deterministic,
        )?;
        let tensor = |v: Var| v.value().as_ref().clone();
        params
            .layers
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                let (fl, d) = self.layer_dims[i];
                let kv = self.decode_rows(&graph, i, &l)?;
                let [k_proj, v_proj] = split_kv(&kv.value(), fl, d)?;
                Ok(GeneratedTensors {
                    k_proj,
                    v_proj,
                    sca_transforms: l.sca_transforms.map(|(t1, t2)| (tensor(t1), tensor(t2))),
                })
            })
            .collect()
    }

    /// Layer `l`'s flat `[B, N, 2·F·d]` K/V rows, decoded from `gp`'s
    /// head through the decoder's output [`Linear`] — the rows
    /// [`Var::project_kv`] decodes, bit for bit.
    pub fn decode_rows(&self, graph: &Graph, l: usize, gp: &GeneratedProjections) -> Result<Var> {
        self.decoders[l].last().forward(graph, &gp.head)
    }

    /// The spatial latent, when spatially aware.
    pub fn spatial(&self) -> Option<&SpatialLatent> {
        self.spatial.as_ref()
    }

    /// The temporal encoder, when temporally aware.
    pub fn temporal(&self) -> Option<&TemporalEncoder> {
        self.temporal.as_ref()
    }

    /// Per-layer K/V decoders, in layer order.
    pub fn decoders(&self) -> &[ParamDecoder] {
        &self.decoders
    }

    /// Per-layer sensor-correlation decoders, when generated SCA is on.
    pub fn sca_decoders(&self) -> Option<&[ParamDecoder]> {
        self.sca_decoders.as_deref()
    }

    /// The latent flow, when configured.
    pub fn flow(&self) -> Option<&FlowStack> {
        self.flow.as_ref()
    }

    /// `(F_l, d)` per layer, in layer order.
    pub fn layer_dims(&self) -> &[(usize, usize)] {
        &self.layer_dims
    }
}

/// `K` and `V`, each `[B, N, F, d]`, copied out of a decoder's flat
/// `[B, N, 2·F·d]` output.
fn split_kv(kv: &Tensor, f: usize, d: usize) -> Result<[Tensor; 2]> {
    let s = kv.shape();
    let half = |h: usize| kv.narrow(2, h * f * d, f * d)?.reshape(&[s[0], s[1], f, d]);
    Ok([half(0)?, half(1)?])
}

/// Xavier-scale flat initialization for `count` stacked `[fan_in, fan_out]`
/// projection matrices (used to seed decoder output biases). Thin wrapper
/// over [`stwa_nn::init::xavier_uniform`] with a flattened shape.
pub(crate) fn xavier_flat(
    count: usize,
    fan_in: usize,
    fan_out: usize,
    rng: &mut impl Rng,
) -> stwa_tensor::Tensor {
    stwa_nn::init::xavier_uniform(&[count * fan_in * fan_out], fan_in, fan_out, rng)
}

/// `Theta_t = z + z_t` (Eq. 4): broadcast the `[N, k]` spatial sample over
/// the batch and add the `[B, N, k]` temporal sample. Either side may be
/// absent (S-only / T-only awareness) but not both.
pub fn combine_theta(
    s: Option<&GaussianSample>,
    t: Option<&GaussianSample>,
    b: usize,
    n: usize,
) -> Result<Var> {
    match (s, t) {
        (Some(s), Some(t)) => {
            let zs = s.z.unsqueeze(0)?; // [1, N, k]
            zs.broadcast_to(&t.z.shape())?.add(&t.z)
        }
        (Some(s), None) => {
            let k = s.z.shape()[1];
            s.z.unsqueeze(0)?.broadcast_to(&[b, n, k])
        }
        (None, Some(t)) => Ok(t.z.clone()),
        (None, None) => Err(TensorError::Invalid(
            "combine_theta: need at least one latent".into(),
        )),
    }
}

/// Analytic KL of `Theta` against `N(0, I)`: `Theta = z + z_t` is
/// Gaussian with mean `mu_s + mu_t` and variance `var_s + var_t`, so the
/// KL is elementwise `0.5 (var + mu^2 - 1 - ln var)` (Eq. 20's
/// regularizer).
pub fn combined_kl(
    s: Option<&GaussianSample>,
    t: Option<&GaussianSample>,
    b: usize,
    n: usize,
) -> Result<Var> {
    let (mu, var) = combined_moments(s, t, b, n)?;
    // 0.5 * mean(var + mu^2 - 1 - ln(var)); var > 0 by construction.
    let term = var.add(&mu.square()?)?.add_scalar(-1.0).sub(&var.ln())?;
    term.mul_scalar(0.5).mean_all()
}

/// Mean and variance of `Theta = z + z_t` (independent Gaussians add).
pub fn combined_moments(
    s: Option<&GaussianSample>,
    t: Option<&GaussianSample>,
    b: usize,
    n: usize,
) -> Result<(Var, Var)> {
    match (s, t) {
        (Some(s), Some(t)) => {
            let k = s.mu.shape()[1];
            let mu_s = s.mu.unsqueeze(0)?.broadcast_to(&[b, n, k])?;
            let var_s = s.logvar.exp().unsqueeze(0)?.broadcast_to(&[b, n, k])?;
            Ok((mu_s.add(&t.mu)?, var_s.add(&t.logvar.exp())?))
        }
        (Some(s), None) => Ok((s.mu.clone(), s.logvar.exp())),
        (None, Some(t)) => Ok((t.mu.clone(), t.logvar.exp())),
        (None, None) => Err(TensorError::Invalid(
            "combined_moments: need at least one latent".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stwa_tensor::Tensor;

    fn mk(flags: AwarenessFlags, mode: LatentMode) -> (ParamStore, StGenerator, StdRng) {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let gen = StGenerator::new(
            &store,
            "g",
            flags,
            mode,
            4, // N
            6, // H
            1, // F
            8, // k
            (16, 16),
            &[(1, 8), (8, 8)],
            None,
            false,
            &mut rng,
        );
        (store, gen, rng)
    }

    #[test]
    fn generates_per_layer_projections() {
        let (_s, gen, mut rng) = mk(AwarenessFlags::st_aware(), LatentMode::Stochastic);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[3, 4, 6, 1], &mut rng));
        let out = gen.generate(&g, &x, &mut rng).unwrap();
        assert_eq!(out.layers.len(), 2);
        let rows = |l: usize| gen.decode_rows(&g, l, &out.layers[l]).unwrap().shape();
        assert_eq!(rows(0), vec![3, 4, 2 * 8]);
        assert_eq!(rows(1), vec![3, 4, 2 * 8 * 8]);
        assert_eq!(out.layers[1].head.shape(), vec![3, 4, 16]);
        assert!(out.kl.is_some());
    }

    #[test]
    fn deterministic_mode_has_no_kl() {
        let (_s, gen, mut rng) = mk(AwarenessFlags::st_aware(), LatentMode::Deterministic);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 4, 6, 1], &mut rng));
        let out = gen.generate(&g, &x, &mut rng).unwrap();
        assert!(out.kl.is_none());
    }

    #[test]
    fn spatial_only_projections_ignore_input_content() {
        // S-aware generation must not vary with the window content —
        // that's the definition of the S-WA ablation.
        let (_s, gen, mut rng) = mk(AwarenessFlags::s_aware(), LatentMode::Deterministic);
        let g = Graph::new();
        let a = g.constant(Tensor::randn(&[1, 4, 6, 1], &mut rng));
        let b = g.constant(Tensor::randn(&[1, 4, 6, 1], &mut rng));
        let pa = gen.generate(&g, &a, &mut rng).unwrap();
        let pb = gen.generate(&g, &b, &mut rng).unwrap();
        let rows = |p: &GeneratedParams| gen.decode_rows(&g, 0, &p.layers[0]).unwrap().value();
        assert!(rows(&pa).approx_eq(&rows(&pb), 1e-6));
    }

    #[test]
    fn temporal_projections_vary_with_input() {
        let (_s, gen, mut rng) = mk(AwarenessFlags::st_aware(), LatentMode::Deterministic);
        let g = Graph::new();
        let a = g.constant(Tensor::from_fn(&[1, 4, 6, 1], |i| i[2] as f32 * 0.2));
        let b = g.constant(Tensor::from_fn(&[1, 4, 6, 1], |i| 1.0 - i[2] as f32 * 0.2));
        let pa = gen.generate(&g, &a, &mut rng).unwrap();
        let pb = gen.generate(&g, &b, &mut rng).unwrap();
        let rows = |p: &GeneratedParams| gen.decode_rows(&g, 0, &p.layers[0]).unwrap().value();
        assert!(!rows(&pa).approx_eq(&rows(&pb), 1e-5));
    }

    #[test]
    fn different_sensors_get_different_projections() {
        let (_s, gen, mut rng) = mk(AwarenessFlags::s_aware(), LatentMode::Deterministic);
        let g = Graph::new();
        let x = g.constant(Tensor::zeros(&[1, 4, 6, 1]));
        let p = gen.generate(&g, &x, &mut rng).unwrap();
        let rows = gen.decode_rows(&g, 0, &p.layers[0]).unwrap().value();
        let k0 = rows.narrow(1, 0, 1).unwrap();
        let k1 = rows.narrow(1, 1, 1).unwrap();
        assert!(
            !k0.approx_eq(&k1, 1e-6),
            "sensors must have distinct params"
        );
    }

    #[test]
    fn kl_decreases_as_latents_approach_prior() {
        let (store, gen, mut rng) = mk(AwarenessFlags::s_aware(), LatentMode::Stochastic);
        let g = Graph::new();
        let x = g.constant(Tensor::zeros(&[1, 4, 6, 1]));
        let far = gen.generate(&g, &x, &mut rng).unwrap().kl.unwrap();
        let far_val = far.value().item().unwrap();
        // Move mu to 0 and logvar to 0 (exactly the prior).
        store.params()[0].set_value(Tensor::zeros(&[4, 8]));
        store.params()[1].set_value(Tensor::zeros(&[4, 8]));
        let near = gen.generate(&g, &x, &mut rng).unwrap().kl.unwrap();
        let near_val = near.value().item().unwrap();
        assert!(
            near_val.abs() < 1e-6,
            "KL at prior should be 0, got {near_val}"
        );
        assert!(far_val > near_val);
    }

    #[test]
    fn kl_gradients_reach_latent_parameters() {
        let (store, gen, mut rng) = mk(AwarenessFlags::st_aware(), LatentMode::Stochastic);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 4, 6, 1], &mut rng));
        let out = gen.generate(&g, &x, &mut rng).unwrap();
        g.backward(&out.kl.unwrap()).unwrap();
        // Spatial mu/logvar are the first two registered params.
        assert!(store.params()[0].grad().is_some());
        assert!(store.params()[1].grad().is_some());
    }

    #[test]
    fn generate_nograd_bitwise_matches_deterministic_graph_path() {
        for flags in [
            AwarenessFlags::st_aware(),
            AwarenessFlags::s_aware(),
            AwarenessFlags::t_aware(),
        ] {
            let (_s, gen, mut rng) = mk(flags, LatentMode::Stochastic);
            let x = Tensor::randn(&[3, 4, 6, 1], &mut rng);
            let g = Graph::new();
            let graph_out = gen
                .generate_with_mode(
                    &g,
                    &g.constant(x.clone()),
                    &mut rng,
                    LatentMode::Deterministic,
                )
                .unwrap();
            let nograd_out = gen.generate_nograd(&x).unwrap();
            assert_eq!(graph_out.layers.len(), nograd_out.len());
            for (l, ((gl, nl), &(f, d))) in graph_out
                .layers
                .iter()
                .zip(&nograd_out)
                .zip(gen.layer_dims())
                .enumerate()
            {
                let rows = gen.decode_rows(&g, l, gl).unwrap();
                let [k, v] = split_kv(&rows.value(), f, d).unwrap();
                assert_eq!(k.data(), nl.k_proj.data());
                assert_eq!(v.data(), nl.v_proj.data());
                assert_eq!(nl.k_proj.shape(), &[3, 4, f, d]);
            }
        }
    }

    #[test]
    fn wrong_sensor_count_rejected() {
        let (_s, gen, mut rng) = mk(AwarenessFlags::st_aware(), LatentMode::Stochastic);
        let g = Graph::new();
        let x = g.constant(Tensor::zeros(&[1, 5, 6, 1]));
        assert!(gen.generate(&g, &x, &mut rng).is_err());
    }
}
