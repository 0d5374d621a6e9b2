//! The full ST-WA model (paper Section IV-D, Figure 8) and its ablation
//! variants.

use crate::generator::{AwarenessFlags, StGenerator};
use crate::latent::LatentMode;
use crate::sensor_attention::SparsityMode;
use crate::trainer::{ForecastModel, ForwardOutput, ReplicaFactory};
pub use crate::window_attention::AggregatorKind;
use crate::window_attention::WindowAttentionLayer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stwa_autograd::{Graph, Var};
use stwa_nn::layers::{Activation, Linear, Mlp};
use stwa_nn::ParamStore;
use stwa_tensor::{Result, Tensor, TensorError};

/// Configuration of an [`StwaModel`].
///
/// The defaults follow the paper's H=12 setting at this repository's
/// reduced scale: 3 layers with window sizes (3, 2, 2), one proxy,
/// k=16 as in the paper, and d=16 with 4 heads (the paper uses d=32,
/// 8 heads; see DESIGN.md on uniform width reduction). The `variant`
/// constructors produce the exact ablation rows of Table VIII.
#[derive(Debug, Clone)]
pub struct StwaConfig {
    /// Number of sensors.
    pub n: usize,
    /// Input window length (timestamps).
    pub h: usize,
    /// Forecast horizon (timestamps).
    pub u: usize,
    /// Attributes per timestamp (PEMS flow: 1).
    pub f_in: usize,
    /// Hidden width of the attention layers.
    pub d: usize,
    /// Attention heads (must divide `d`).
    pub heads: usize,
    /// Per-layer window sizes; their product must divide `h` stage by
    /// stage (layer `l+1` runs on layer `l`'s `W` windows).
    pub window_sizes: Vec<usize>,
    /// Number of proxies per window.
    pub proxies: usize,
    /// Latent dimension `k` of the stochastic variables.
    pub k: usize,
    /// Which awareness the parameter generator provides; `None` is the
    /// ST-agnostic stacked window attention ("WA" in Table VIII).
    pub awareness: Option<AwarenessFlags>,
    /// Stochastic (paper) vs deterministic latents (Table XI ablation).
    pub latent_mode: LatentMode,
    /// Learned gate (paper) vs mean aggregation (Table XIV ablation).
    pub aggregator: AggregatorKind,
    /// `alpha` weighting of the KL regularizer (Eq. 20); 0 disables it
    /// (Table X ablation).
    pub kl_weight: f32,
    /// Hidden width of the 2-layer predictor (paper: 512).
    pub predictor_hidden: usize,
    /// `(m1, m2)` hidden sizes of the decoder `D_omega`.
    pub decoder_hidden: (usize, usize),
    /// Whether to apply sensor correlation attention per window.
    pub sensor_attention: bool,
    /// Optional planar normalizing flow depth over `Theta` — the
    /// paper's future-work extension (crate::flow). `None` keeps the
    /// paper's Gaussian latents.
    pub flow_depth: Option<usize>,
    /// Generate per-sensor sensor-correlation transforms too
    /// (Section IV-C's optional variant). Default: shared transforms.
    pub generated_sensor_attention: bool,
    /// Restrict sensor correlation attention to a neighbor graph
    /// (O(N·k) instead of O(N²) — the city-scale path). `None` keeps
    /// the paper's dense attention. Carried in the config so shard
    /// replicas rebuild with the same pair set (the graph is shared by
    /// `Arc`, not copied).
    pub sensor_graph: Option<std::sync::Arc<stwa_tensor::SensorGraph>>,
}

impl StwaConfig {
    /// The paper's default full model for the given data dimensions.
    /// The window schedule comes from [`default_windows`]; override it
    /// with [`StwaConfig::with_windows`].
    pub fn st_wa(n: usize, h: usize, u: usize) -> StwaConfig {
        StwaConfig {
            n,
            h,
            u,
            f_in: 1,
            d: 16,
            heads: 4,
            window_sizes: default_windows(h),
            proxies: 1,
            k: 16,
            awareness: Some(AwarenessFlags::st_aware()),
            latent_mode: LatentMode::Stochastic,
            aggregator: AggregatorKind::Learned,
            kl_weight: 0.01,
            predictor_hidden: 128,
            decoder_hidden: (16, 32),
            sensor_attention: true,
            flow_depth: None,
            generated_sensor_attention: false,
            sensor_graph: None,
        }
    }

    /// "S-WA": spatial-aware only (drop `z_t^(i)`).
    pub fn s_wa(n: usize, h: usize, u: usize) -> StwaConfig {
        StwaConfig {
            awareness: Some(AwarenessFlags::s_aware()),
            ..StwaConfig::st_wa(n, h, u)
        }
    }

    /// "WA": stacked window attention without parameter generation.
    pub fn wa(n: usize, h: usize, u: usize) -> StwaConfig {
        StwaConfig {
            awareness: None,
            ..StwaConfig::st_wa(n, h, u)
        }
    }

    /// "WA-1": a single window-attention layer (no stacking).
    pub fn wa_1(n: usize, h: usize, u: usize) -> StwaConfig {
        StwaConfig {
            awareness: None,
            window_sizes: vec![h.min(3)],
            ..StwaConfig::st_wa(n, h, u)
        }
    }

    /// Deterministic ST-WA (Table XI).
    pub fn deterministic(n: usize, h: usize, u: usize) -> StwaConfig {
        StwaConfig {
            latent_mode: LatentMode::Deterministic,
            kl_weight: 0.0,
            ..StwaConfig::st_wa(n, h, u)
        }
    }

    /// Override the window schedule (Table IX).
    pub fn with_windows(mut self, sizes: &[usize]) -> StwaConfig {
        self.window_sizes = sizes.to_vec();
        self
    }

    /// Override the number of proxies (Table XIII).
    pub fn with_proxies(mut self, p: usize) -> StwaConfig {
        self.proxies = p;
        self
    }

    /// Override the latent size `k` (Table XII).
    pub fn with_k(mut self, k: usize) -> StwaConfig {
        self.k = k;
        self
    }

    /// Disable the KL regularizer (Table X).
    pub fn without_kl(mut self) -> StwaConfig {
        self.kl_weight = 0.0;
        self
    }

    /// Use the mean proxy aggregator (Table XIV).
    pub fn with_mean_aggregator(mut self) -> StwaConfig {
        self.aggregator = AggregatorKind::Mean;
        self
    }

    /// Enable planar normalizing flows of the given depth over the
    /// latent `Theta` (the paper's future-work extension).
    pub fn with_flow(mut self, depth: usize) -> StwaConfig {
        self.flow_depth = Some(depth);
        self
    }

    /// Also generate the sensor-correlation transforms per sensor
    /// (Section IV-C's optional variant). Requires awareness.
    pub fn with_generated_sca(mut self) -> StwaConfig {
        self.generated_sensor_attention = true;
        self
    }

    /// Restrict sensor correlation attention to `graph`'s neighbor
    /// lists (O(N·k)). With a complete graph this is bitwise identical
    /// to dense attention; with a corridor/k-NN graph it is the
    /// city-scale configuration.
    pub fn with_sensor_graph(mut self, graph: std::sync::Arc<stwa_tensor::SensorGraph>) -> StwaConfig {
        self.sensor_graph = Some(graph);
        self
    }

    /// Validate the window schedule against `h`, returning per-layer
    /// `(t_in, f_in)`.
    fn layer_plan(&self) -> Result<Vec<(usize, usize)>> {
        let mut t = self.h;
        let mut f = self.f_in;
        let mut plan = Vec::with_capacity(self.window_sizes.len());
        for (l, &s) in self.window_sizes.iter().enumerate() {
            if s == 0 || !t.is_multiple_of(s) {
                return Err(TensorError::Invalid(format!(
                    "StwaConfig: window size {s} of layer {l} does not divide its input length {t}"
                )));
            }
            plan.push((t, f));
            t /= s;
            f = self.d;
        }
        if plan.is_empty() {
            return Err(TensorError::Invalid(
                "StwaConfig: need at least one layer".into(),
            ));
        }
        Ok(plan)
    }
}

/// The paper's H=12 default schedule (3, 2, 2) when it fits, otherwise a
/// greedy factorization into small windows.
pub fn default_windows(h: usize) -> Vec<usize> {
    if h.is_multiple_of(12) && h >= 12 {
        // (3, 2, 2) handles h = 12; longer inputs get an extra leading
        // window layer to reduce them to 12 first (e.g. h=36 -> 3,3,2,2;
        // h=72 -> 6,3,2,2; h=120 -> 10,3,2,2).
        let lead = h / 12;
        if lead == 1 {
            vec![3, 2, 2]
        } else {
            vec![lead, 3, 2, 2]
        }
    } else {
        // Fallback: peel small prime factors.
        let mut t = h;
        let mut sizes = Vec::new();
        for f in [2usize, 3, 5, 7] {
            while t.is_multiple_of(f) && t > f {
                sizes.push(f);
                t /= f;
            }
        }
        sizes.push(t.max(1));
        sizes
    }
}

/// The stacked ST-WA forecasting model.
pub struct StwaModel {
    config: StwaConfig,
    generator: Option<StGenerator>,
    layers: Vec<WindowAttentionLayer>,
    /// Eq. 18 skip connections: one `W_l` per layer mapping the
    /// flattened layer output to the shared skip width.
    skips: Vec<Linear>,
    predictor: Mlp,
    store: ParamStore,
    name: String,
}

impl StwaModel {
    /// Build the model (and its own parameter store) from a config.
    pub fn new(config: StwaConfig, rng: &mut impl Rng) -> Result<StwaModel> {
        let store = ParamStore::new();
        let plan = config.layer_plan()?;

        let wants_generated_sca = config.generated_sensor_attention
            && config.sensor_attention
            && config.awareness.is_some();
        let generator = match config.awareness {
            None => None,
            Some(flags) => {
                let layer_dims: Vec<(usize, usize)> =
                    plan.iter().map(|&(_t, f)| (f, config.d)).collect();
                Some(StGenerator::new(
                    &store,
                    "gen",
                    flags,
                    config.latent_mode,
                    config.n,
                    config.h,
                    config.f_in,
                    config.k,
                    config.decoder_hidden,
                    &layer_dims,
                    config.flow_depth,
                    wants_generated_sca,
                    rng,
                ))
            }
        };

        let mut layers = Vec::with_capacity(plan.len());
        let mut skips = Vec::with_capacity(plan.len());
        for (l, (&(t_in, f_in), &s)) in plan.iter().zip(&config.window_sizes).enumerate() {
            let mut layer = WindowAttentionLayer::new_with_sca_mode(
                &store,
                &format!("wa{l}"),
                config.n,
                t_in,
                s,
                config.proxies,
                f_in,
                config.d,
                config.heads,
                config.aggregator,
                config.sensor_attention,
                config.awareness.is_none(),
                wants_generated_sca,
                rng,
            )?;
            if let Some(graph) = &config.sensor_graph {
                layer.set_sparsity(SparsityMode::Sparse(std::sync::Arc::clone(graph)));
            }
            let w_out = layer.num_windows();
            skips.push(Linear::new(
                &store,
                &format!("skip{l}"),
                w_out * config.d,
                config.d,
                rng,
            ));
            layers.push(layer);
        }

        let predictor = Mlp::new(
            &store,
            "predictor",
            &[config.d, config.predictor_hidden, config.u * config.f_in],
            &[Activation::Relu, Activation::Identity],
            rng,
        );

        let mut name = match (&config.awareness, config.latent_mode, layers.len()) {
            (None, _, 1) => "WA-1".to_string(),
            (None, _, _) => "WA".to_string(),
            (Some(f), LatentMode::Deterministic, _) if f.temporal => "ST-WA (det)".to_string(),
            (Some(f), _, _) if f.spatial && f.temporal => "ST-WA".to_string(),
            (Some(f), _, _) if f.spatial => "S-WA".to_string(),
            _ => "T-WA".to_string(),
        };
        if config.flow_depth.is_some() {
            name.push_str("+NF");
        }

        Ok(StwaModel {
            config,
            generator,
            layers,
            skips,
            predictor,
            store,
            name,
        })
    }

    pub fn config(&self) -> &StwaConfig {
        &self.config
    }

    /// The learned spatial latent means, for Fig. 9(b).
    pub fn spatial_latent_means(&self) -> Option<stwa_tensor::Tensor> {
        self.generator.as_ref().and_then(|g| g.spatial_means())
    }

    /// Decode the generated `K`/`V` projections for an input window —
    /// used by the Fig. 9(a) visualization of `phi_t^(i)`.
    pub fn generated_projections(
        &self,
        x: &stwa_tensor::Tensor,
        rng: &mut StdRng,
    ) -> Result<Option<stwa_tensor::Tensor>> {
        let Some(gen) = &self.generator else {
            return Ok(None);
        };
        let g = Graph::new();
        let xv = g.constant(x.clone());
        let params = gen.generate(&g, &xv, rng)?;
        // K's half of the first layer's flat rows: [B, N, F*d].
        let kv = gen.decode_rows(&g, 0, &params.layers[0])?.value();
        let half = kv.shape()[2] / 2;
        Ok(Some(kv.narrow(2, 0, half)?))
    }

    /// Eval-mode forward on a plain tensor: [`ForecastModel::forward_eval`]
    /// under the name serving-side callers use — the one `forward` with
    /// `training == false` on a graph that records nothing.
    pub fn forward_nograd(&self, x: &Tensor) -> Result<Tensor> {
        self.forward_eval(x)
    }

    /// The parameter generator, when the model is ST/S/T-aware.
    pub fn generator(&self) -> Option<&StGenerator> {
        self.generator.as_ref()
    }

    /// The stacked window-attention layers.
    pub fn layers(&self) -> &[WindowAttentionLayer] {
        &self.layers
    }

    /// Re-point every layer's sensor correlation attention at `mode`
    /// (and record it in the config so replicas and frozen snapshots
    /// follow). Parameters are untouched.
    pub fn set_sparsity(&mut self, mode: SparsityMode) {
        self.config.sensor_graph = mode.graph().map(std::sync::Arc::clone);
        for layer in &mut self.layers {
            layer.set_sparsity(mode.clone());
        }
    }

    /// Eq. 18 skip projections, one per layer.
    pub fn skips(&self) -> &[Linear] {
        &self.skips
    }

    /// The Eq. 19 predictor head.
    pub fn predictor(&self) -> &Mlp {
        &self.predictor
    }
}

impl ForecastModel for StwaModel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn store(&self) -> &ParamStore {
        &self.store
    }

    fn replica_builder(&self) -> Option<ReplicaFactory> {
        let config = self.config.clone();
        Some(Box::new(move || {
            // The replica's init values are dead weight — every shard
            // step overwrites them from the live snapshot — but the
            // constructor must run to register parameters in the same
            // order and shapes, so any fixed seed does.
            let mut rng = StdRng::seed_from_u64(0);
            Ok(Box::new(StwaModel::new(config, &mut rng)?) as Box<dyn ForecastModel>)
        }))
    }

    fn forward(
        &self,
        graph: &Graph,
        x: &Var,
        rng: &mut StdRng,
        training: bool,
    ) -> Result<ForwardOutput> {
        let shape = x.shape();
        if shape.len() != 4
            || shape[1] != self.config.n
            || shape[2] != self.config.h
            || shape[3] != self.config.f_in
        {
            return Err(TensorError::Invalid(format!(
                "StwaModel: expected [B, {}, {}, {}], got {shape:?}",
                self.config.n, self.config.h, self.config.f_in
            )));
        }
        let b = shape[0];
        let _span = stwa_observe::span!("forward");

        // Generate ST-aware parameters (or nothing for the agnostic WA).
        // Evaluation collapses the latents to their means (the posterior
        // mean predictor); training samples them.
        let generated = match &self.generator {
            Some(gen) => Some(gen.generate_with_mode(
                graph,
                x,
                rng,
                if training {
                    self.config.latent_mode
                } else {
                    LatentMode::Deterministic
                },
            )?),
            None => None,
        };

        // Stacked window attention with skip connections (Eq. 17–18).
        let mut h = x.clone();
        let mut skip_sum: Option<Var> = None;
        for (l, layer) in self.layers.iter().enumerate() {
            let layer_span = stwa_observe::span!("wa_layer{}", l);
            let proj = generated.as_ref().map(|g| &g.layers[l]);
            let out = layer.forward(graph, &h, proj)?; // [B, N, W, d]
            let w = layer.num_windows();
            let flat = out.reshape(&[b, self.config.n, w * self.config.d])?;
            let skip = self.skips[l].forward(graph, &flat)?; // [B, N, d]
            skip_sum = Some(match skip_sum {
                None => skip,
                Some(acc) => acc.add(&skip)?,
            });
            h = out; // next layer consumes the window summaries
            drop(layer_span);
        }
        let o = skip_sum.expect("at least one layer");

        // Predictor (Eq. 19): [B, N, d] -> [B, N, U * F] -> [B, N, U, F].
        let predictor_span = stwa_observe::span!("predictor");
        let pred = self.predictor.forward(graph, &o)?.reshape(&[
            b,
            self.config.n,
            self.config.u,
            self.config.f_in,
        ])?;
        drop(predictor_span);

        let regularizer = match &generated {
            Some(gp) if self.config.kl_weight > 0.0 => gp
                .kl
                .as_ref()
                .map(|kl| kl.mul_scalar(self.config.kl_weight)),
            _ => None,
        };

        Ok(ForwardOutput { pred, regularizer })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use stwa_tensor::Tensor;

    fn forward_once(config: StwaConfig, b: usize) -> (StwaModel, ForwardOutput, Graph) {
        let mut rng = StdRng::seed_from_u64(0);
        let model = StwaModel::new(config, &mut rng).unwrap();
        let g = Graph::new();
        let x = g.constant(Tensor::randn(
            &[b, model.config.n, model.config.h, model.config.f_in],
            &mut rng,
        ));
        let out = model.forward(&g, &x, &mut rng, true).unwrap();
        (model, out, g)
    }

    #[test]
    fn default_window_schedules() {
        assert_eq!(default_windows(12), vec![3, 2, 2]);
        assert_eq!(default_windows(36), vec![3, 3, 2, 2]);
        assert_eq!(default_windows(72), vec![6, 3, 2, 2]);
        assert_eq!(default_windows(120), vec![10, 3, 2, 2]);
    }

    #[test]
    fn st_wa_forward_shapes_and_kl() {
        let (_m, out, _g) = forward_once(StwaConfig::st_wa(4, 12, 12), 3);
        assert_eq!(out.pred.shape(), vec![3, 4, 12, 1]);
        assert!(out.regularizer.is_some(), "ST-WA must carry a KL term");
        assert!(!out.pred.value().has_non_finite());
    }

    #[test]
    fn wa_variant_has_no_regularizer() {
        let (_m, out, _g) = forward_once(StwaConfig::wa(4, 12, 6), 2);
        assert_eq!(out.pred.shape(), vec![2, 4, 6, 1]);
        assert!(out.regularizer.is_none());
    }

    #[test]
    fn deterministic_variant_has_no_regularizer() {
        let (_m, out, _g) = forward_once(StwaConfig::deterministic(3, 12, 12), 1);
        assert!(out.regularizer.is_none());
    }

    #[test]
    fn without_kl_builder_disables_regularizer() {
        let (_m, out, _g) = forward_once(StwaConfig::st_wa(3, 12, 12).without_kl(), 1);
        assert!(out.regularizer.is_none());
    }

    #[test]
    fn variant_names() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            StwaModel::new(StwaConfig::st_wa(3, 12, 12), &mut rng)
                .unwrap()
                .name(),
            "ST-WA"
        );
        assert_eq!(
            StwaModel::new(StwaConfig::s_wa(3, 12, 12), &mut rng)
                .unwrap()
                .name(),
            "S-WA"
        );
        assert_eq!(
            StwaModel::new(StwaConfig::wa(3, 12, 12), &mut rng)
                .unwrap()
                .name(),
            "WA"
        );
        assert_eq!(
            StwaModel::new(StwaConfig::wa_1(3, 12, 12), &mut rng)
                .unwrap()
                .name(),
            "WA-1"
        );
        assert_eq!(
            StwaModel::new(StwaConfig::deterministic(3, 12, 12), &mut rng)
                .unwrap()
                .name(),
            "ST-WA (det)"
        );
    }

    #[test]
    fn invalid_window_schedule_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = StwaConfig::st_wa(3, 12, 12).with_windows(&[5, 2]);
        assert!(StwaModel::new(cfg, &mut rng).is_err());
    }

    #[test]
    fn param_count_scales_with_k_not_n_squared() {
        // The generator's per-sensor cost is O(N * k): doubling N adds
        // ~N*k*2 scalars (mu + logvar), far below N * d^2.
        let mut rng = StdRng::seed_from_u64(0);
        let small = StwaModel::new(StwaConfig::st_wa(8, 12, 12), &mut rng).unwrap();
        let big = StwaModel::new(StwaConfig::st_wa(16, 12, 12), &mut rng).unwrap();
        let added = big.store().num_scalars() as isize - small.store().num_scalars() as isize;
        let k = 16isize;
        let d = 16isize;
        // Extra sensors cost latents (2k each) + proxies (W_total * p * d each).
        let w_total: isize = [4isize, 2, 1].iter().sum();
        let per_sensor = 2 * k + w_total * d;
        assert_eq!(
            added,
            8 * per_sensor,
            "unexpected per-sensor parameter cost"
        );
        // And far less than the naive N * 3 * d^2 per sensor.
        assert!(per_sensor < 3 * d * d);
    }

    #[test]
    fn full_model_gradients_reach_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 3, 12, 1], &mut rng));
        let out = model.forward(&g, &x, &mut rng, true).unwrap();
        let mut loss = out.pred.square().unwrap().mean_all().unwrap();
        if let Some(reg) = out.regularizer {
            loss = loss.add(&reg).unwrap();
        }
        g.backward(&loss).unwrap();
        let missing: Vec<String> = model
            .store()
            .params()
            .iter()
            .filter(|p| p.grad().is_none())
            .map(|p| p.name().to_string())
            .collect();
        assert!(missing.is_empty(), "params without grad: {missing:?}");
    }

    #[test]
    fn stochastic_forward_varies_deterministic_does_not() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
        let g = Graph::new();
        let x_t = Tensor::randn(&[1, 3, 12, 1], &mut rng);
        let x = g.constant(x_t.clone());
        let a = model.forward(&g, &x, &mut rng, true).unwrap().pred;
        let b = model.forward(&g, &x, &mut rng, true).unwrap().pred;
        assert!(
            !a.value().approx_eq(&b.value(), 1e-7),
            "stochastic passes should differ"
        );

        let det = StwaModel::new(StwaConfig::deterministic(3, 12, 4), &mut rng).unwrap();
        let c = det.forward(&g, &x, &mut rng, true).unwrap().pred;
        let d = det.forward(&g, &x, &mut rng, true).unwrap().pred;
        assert!(
            c.value().approx_eq(&d.value(), 1e-7),
            "deterministic passes must agree"
        );
    }

    #[test]
    fn generated_sca_variant_builds_and_differs() {
        let mut rng = StdRng::seed_from_u64(8);
        let base = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
        let mut rng2 = StdRng::seed_from_u64(8);
        let gen_sca =
            StwaModel::new(StwaConfig::st_wa(3, 12, 4).with_generated_sca(), &mut rng2).unwrap();
        // Extra decoders add parameters...
        assert!(gen_sca.store().num_scalars() > base.store().num_scalars());
        // ...and the forward pass still works with gradients everywhere.
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 3, 12, 1], &mut rng));
        let out = gen_sca.forward(&g, &x, &mut rng, true).unwrap();
        assert_eq!(out.pred.shape(), vec![2, 3, 4, 1]);
        let mut loss = out.pred.square().unwrap().mean_all().unwrap();
        if let Some(reg) = out.regularizer {
            loss = loss.add(&reg).unwrap();
        }
        g.backward(&loss).unwrap();
        let missing: Vec<String> = gen_sca
            .store()
            .params()
            .iter()
            .filter(|p| p.grad().is_none())
            .map(|p| p.name().to_string())
            .collect();
        assert!(missing.is_empty(), "no grad for {missing:?}");
    }

    #[test]
    fn nograd_forward_bitwise_matches_graph_eval_path() {
        // Every variant: `forward` on a graph that records nothing must
        // agree bit for bit with `forward` on a tape (training = false).
        let configs = [
            StwaConfig::st_wa(3, 12, 4),
            StwaConfig::s_wa(3, 12, 4),
            StwaConfig::wa(3, 12, 4),
            StwaConfig::deterministic(3, 12, 4),
            StwaConfig::st_wa(3, 12, 4).with_mean_aggregator(),
            StwaConfig::st_wa(3, 12, 4).with_flow(2),
            StwaConfig::st_wa(3, 12, 4).with_generated_sca(),
            StwaConfig {
                sensor_attention: false,
                ..StwaConfig::st_wa(3, 12, 4)
            },
        ];
        for (i, cfg) in configs.into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(40 + i as u64);
            let model = StwaModel::new(cfg, &mut rng).unwrap();
            let x = Tensor::randn(&[2, 3, 12, 1], &mut rng);
            let g = Graph::new();
            let graph_out = model
                .forward(&g, &g.constant(x.clone()), &mut rng, false)
                .unwrap();
            let nograd_out = model.forward_nograd(&x).unwrap();
            assert_eq!(graph_out.pred.shape(), nograd_out.shape());
            assert_eq!(
                graph_out.pred.value().data(),
                nograd_out.data(),
                "variant {i} diverged from the graph eval path"
            );
        }
    }

    #[test]
    fn generated_projection_export_for_visualization() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = StwaModel::new(StwaConfig::st_wa(3, 12, 4), &mut rng).unwrap();
        let x = Tensor::randn(&[2, 3, 12, 1], &mut rng);
        let phi = model.generated_projections(&x, &mut rng).unwrap().unwrap();
        assert_eq!(phi.shape(), &[2, 3, 16]); // F*d = 1*16
        assert!(model.spatial_latent_means().is_some());
        // Agnostic model exports nothing.
        let wa = StwaModel::new(StwaConfig::wa(3, 12, 4), &mut rng).unwrap();
        assert!(wa.generated_projections(&x, &mut rng).unwrap().is_none());
        assert!(wa.spatial_latent_means().is_none());
    }
}
