//! Window Attention with proxies (paper Section IV-B, Figure 6(b)).
//!
//! The input series of length `T` is split into `W = T / S` windows.
//! Each window owns `p` learnable *proxy* vectors that replace the Query
//! of canonical attention: every timestamp computes one score per proxy
//! instead of one per timestamp, dropping the complexity from `O(T^2)`
//! to `O(p * T) = O(T)`.
//!
//! Three paper mechanisms live here:
//!
//! - Eq. 10–11: per-window proxy attention (`h_w`),
//! - Eq. 12–13: the learned gate that collapses the `p` proxies into one
//!   window representation (`ĥ_w`),
//! - Eq. 14: fusing the previous window's output into the current
//!   window's proxies, restoring cross-window information flow that the
//!   windowing would otherwise sever.
//!
//! The output is `[B, N, W, d]` — one summary per window — so stacking
//! layers shrinks the time axis geometrically (Figure 8), keeping the
//! whole stack linear in `T` (Section IV-D complexity analysis).

use crate::generator::GeneratedProjections;
use crate::sensor_attention::SensorCorrelationAttention;
use rand::Rng;
use stwa_autograd::{concat, Graph, Var, WindowParams, WindowSca};
use stwa_nn::layers::Linear;
use stwa_nn::{init, Param, ParamStore};
use stwa_tensor::{Result, TensorError};

/// How the `p` proxies of a window are collapsed into one vector —
/// the paper's learned gate (Eq. 12–13) vs. the mean-aggregator ablation
/// (Table XIV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregatorKind {
    /// `A = sigmoid(W2 tanh(W1 h))`, `ĥ = sum_j A_j ⊙ h_j`.
    Learned,
    /// Uniform weights `1/p`.
    Mean,
}

/// One window-attention layer.
pub struct WindowAttentionLayer {
    /// Learnable proxy tensor, stored `[N, W, p, d]` (the paper writes
    /// `P ∈ R^{W×N×p×d}`; the axis order here just matches our batch
    /// layout).
    proxies: Param,
    /// Eq. 14 fusion `theta`: `[ĥ_{w-1} || P_w] -> P_w'`. Absent when
    /// there is only one window (nothing to fuse).
    fusion: Option<Linear>,
    /// Shared projections, present only when the layer is built for the
    /// ST-agnostic mode (a generator-fed layer never uses them, so
    /// creating them would inflate the paper's "# Para" accounting).
    k_shared: Option<Linear>,
    v_shared: Option<Linear>,
    /// Eq. 12 weighting network.
    agg_w1: Param,
    agg_w2: Param,
    aggregator: AggregatorKind,
    sensor_attention: Option<SensorCorrelationAttention>,
    n: usize,
    t_in: usize,
    s: usize,
    w: usize,
    p: usize,
    f_in: usize,
    d: usize,
    heads: usize,
}

impl WindowAttentionLayer {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        store: &ParamStore,
        name: &str,
        n: usize,
        t_in: usize,
        s: usize,
        p: usize,
        f_in: usize,
        d: usize,
        heads: usize,
        aggregator: AggregatorKind,
        use_sensor_attention: bool,
        shared_kv: bool,
        rng: &mut impl Rng,
    ) -> Result<WindowAttentionLayer> {
        Self::new_with_sca_mode(
            store,
            name,
            n,
            t_in,
            s,
            p,
            f_in,
            d,
            heads,
            aggregator,
            use_sensor_attention,
            shared_kv,
            false,
            rng,
        )
    }

    /// [`WindowAttentionLayer::new`] with control over whether the
    /// sensor-correlation transforms come from the generator (in which
    /// case no shared theta parameters are created).
    #[allow(clippy::too_many_arguments)]
    pub fn new_with_sca_mode(
        store: &ParamStore,
        name: &str,
        n: usize,
        t_in: usize,
        s: usize,
        p: usize,
        f_in: usize,
        d: usize,
        heads: usize,
        aggregator: AggregatorKind,
        use_sensor_attention: bool,
        shared_kv: bool,
        generated_sca: bool,
        rng: &mut impl Rng,
    ) -> Result<WindowAttentionLayer> {
        if s == 0 || !t_in.is_multiple_of(s) {
            return Err(TensorError::Invalid(format!(
                "WindowAttentionLayer: window size {s} must divide input length {t_in}"
            )));
        }
        if p == 0 {
            return Err(TensorError::Invalid("need at least one proxy".into()));
        }
        if heads == 0 || !d.is_multiple_of(heads) {
            return Err(TensorError::Invalid(format!(
                "WindowAttentionLayer: heads {heads} must divide d {d}"
            )));
        }
        let w = t_in / s;
        Ok(WindowAttentionLayer {
            proxies: store.param(format!("{name}.P"), init::normal(&[n, w, p, d], 0.2, rng)),
            fusion: (w > 1).then(|| Linear::new(store, &format!("{name}.fusion"), 2 * d, d, rng)),
            k_shared: shared_kv
                .then(|| Linear::new_no_bias(store, &format!("{name}.K"), f_in, d, rng)),
            v_shared: shared_kv
                .then(|| Linear::new_no_bias(store, &format!("{name}.V"), f_in, d, rng)),
            agg_w1: store.param(
                format!("{name}.aggW1"),
                init::xavier_uniform(&[d, d], d, d, rng),
            ),
            agg_w2: store.param(
                format!("{name}.aggW2"),
                init::xavier_uniform(&[d, d], d, d, rng),
            ),
            aggregator,
            sensor_attention: use_sensor_attention.then(|| {
                if generated_sca {
                    SensorCorrelationAttention::new_generated(d)
                } else {
                    SensorCorrelationAttention::new(store, &format!("{name}.sca"), d, rng)
                }
            }),
            n,
            t_in,
            s,
            w,
            p,
            f_in,
            d,
            heads,
        })
    }

    /// Number of windows = the output time length.
    pub fn num_windows(&self) -> usize {
        self.w
    }

    pub fn out_dim(&self) -> usize {
        self.d
    }

    /// Forward: `x` is `[B, N, T, F_in]`; `generated` optionally carries
    /// the ST-aware `K_t^(i)`/`V_t^(i)` (the decoder's flat `[B, N,
    /// 2·F_in·d]` rows) from the [`crate::StGenerator`]. Returns `[B, N,
    /// W, d]`.
    pub fn forward(
        &self,
        graph: &Graph,
        x: &Var,
        generated: Option<&GeneratedProjections>,
    ) -> Result<Var> {
        let kv = self.keys_values(graph, x, generated)?;
        // Eq. 10–16 for every window: one tape node.
        let _span = stwa_observe::span!("window_layer");
        let proxies = self.proxies.leaf(graph); // [N, W, p, d]
        let fusion = self.fusion.as_ref().map(|f| {
            let bias = f.bias_param().expect("the fusion layer has a bias");
            (f.weight_param().leaf(graph), bias.leaf(graph))
        });
        let gate = match self.aggregator {
            AggregatorKind::Learned => Some((self.agg_w1.leaf(graph), self.agg_w2.leaf(graph))),
            AggregatorKind::Mean => None,
        };
        let transforms = generated.and_then(|g| g.sca_transforms.as_ref());
        // Shared transforms, when the layer mixes sensors with its own.
        let shared = match (&self.sensor_attention, transforms) {
            (Some(sca), None) => {
                let (Some(t1), Some(t2)) = sca.shared_transforms() else {
                    return Err(TensorError::Invalid(
                        "SensorCorrelationAttention built for generated transforms \
                         requires generated theta1/theta2"
                            .into(),
                    ));
                };
                Some((t1.weight_param().leaf(graph), t2.weight_param().leaf(graph)))
            }
            _ => None,
        };
        let sca = match (&self.sensor_attention, transforms, &shared) {
            (None, _, _) => WindowSca::Off,
            (Some(_), Some((t1, t2)), _) => WindowSca::Generated(t1, t2),
            (Some(_), None, Some((t1, t2))) => WindowSca::Shared(t1, t2),
            (Some(_), None, None) => unreachable!("shared transforms were bound above"),
        };
        kv.window_layer(
            &WindowParams {
                proxies: &proxies,
                fusion: fusion.as_ref().map(|(w, b)| (w, b)),
                gate: gate.as_ref().map(|(w1, w2)| (w1, w2)),
                sca,
                graph: self
                    .sensor_attention
                    .as_ref()
                    .and_then(|sca| sca.sparsity().graph()),
            },
            self.heads,
        ) // [B, N, W, d]
    }

    /// Keys then values for every window in one tensor, `[B, N, 2, W, S,
    /// d]`, which the layer body reads in place: `x` through the
    /// generated per-(sample, sensor) rows, or the shared projections.
    pub fn keys_values(
        &self,
        graph: &Graph,
        x: &Var,
        generated: Option<&GeneratedProjections>,
    ) -> Result<Var> {
        let shape = x.shape();
        if shape.len() != 4 || shape[1] != self.n || shape[2] != self.t_in || shape[3] != self.f_in
        {
            return Err(TensorError::Invalid(format!(
                "WindowAttentionLayer: expected [B, {}, {}, {}], got {shape:?}",
                self.n, self.t_in, self.f_in
            )));
        }
        let (b, w, s) = (shape[0], self.w, self.s);
        match generated {
            // Each (sample, sensor) through its own decoded K/V rows.
            Some(gp) => {
                let _span = stwa_observe::span!("kv_projection");
                x.project_kv(&gp.head, &gp.weight, &gp.bias, s)
            }
            None => {
                let (Some(ks), Some(vs)) = (&self.k_shared, &self.v_shared) else {
                    return Err(TensorError::Invalid(
                        "WindowAttentionLayer built without shared projections \
                         requires generated K/V"
                            .into(),
                    ));
                };
                let x_win = x.reshape(&[b, self.n, w, s, self.f_in])?;
                let keys = ks.forward(graph, &x_win)?.unsqueeze(2)?;
                let values = vs.forward(graph, &x_win)?.unsqueeze(2)?;
                concat(&[&keys, &values], 2)
            }
        }
    }

    /// Learnable proxy tensor `[N, W, p, d]` — read by the inference
    /// engine when snapshotting frozen weights.
    pub fn proxies(&self) -> &Param {
        &self.proxies
    }

    /// Eq. 14 fusion layer, absent when there is a single window.
    pub fn fusion(&self) -> Option<&Linear> {
        self.fusion.as_ref()
    }

    /// Shared K/V projections, present only in ST-agnostic mode.
    pub fn shared_projections(&self) -> (Option<&Linear>, Option<&Linear>) {
        (self.k_shared.as_ref(), self.v_shared.as_ref())
    }

    /// Eq. 12 gate weights `(W1, W2)`.
    pub fn agg_weights(&self) -> (&Param, &Param) {
        (&self.agg_w1, &self.agg_w2)
    }

    pub fn aggregator_kind(&self) -> AggregatorKind {
        self.aggregator
    }

    pub fn sensor_attention(&self) -> Option<&SensorCorrelationAttention> {
        self.sensor_attention.as_ref()
    }

    /// Select dense or sparse sensor attention; a no-op when the layer has no
    /// sensor-correlation stage.
    pub fn set_sparsity(&mut self, mode: crate::sensor_attention::SparsityMode) {
        if let Some(sca) = &mut self.sensor_attention {
            sca.set_sparsity(mode);
        }
    }

    /// `(N, T_in, S, p, F_in, d, heads)` — the layer's full geometry.
    pub fn dims(&self) -> (usize, usize, usize, usize, usize, usize, usize) {
        (
            self.n, self.t_in, self.s, self.p, self.f_in, self.d, self.heads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stwa_tensor::Tensor;

    fn layer(
        n: usize,
        t: usize,
        s: usize,
        p: usize,
        agg: AggregatorKind,
        sca: bool,
    ) -> (ParamStore, WindowAttentionLayer) {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let l =
            WindowAttentionLayer::new(&store, "wa", n, t, s, p, 1, 8, 2, agg, sca, true, &mut rng)
                .unwrap();
        (store, l)
    }

    #[test]
    fn output_shape_is_windows_by_d() {
        let (_s, l) = layer(3, 12, 3, 2, AggregatorKind::Learned, true);
        assert_eq!(l.num_windows(), 4);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(1);
        let x = g.constant(Tensor::randn(&[2, 3, 12, 1], &mut rng));
        let y = l.forward(&g, &x, None).unwrap();
        assert_eq!(y.shape(), vec![2, 3, 4, 8]);
        assert!(!y.value().has_non_finite());
    }

    #[test]
    fn invalid_configs_rejected() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        // S doesn't divide T.
        assert!(WindowAttentionLayer::new(
            &store,
            "a",
            2,
            10,
            3,
            1,
            1,
            8,
            1,
            AggregatorKind::Learned,
            true,
            true,
            &mut rng
        )
        .is_err());
        // Zero proxies.
        assert!(WindowAttentionLayer::new(
            &store,
            "b",
            2,
            12,
            3,
            0,
            1,
            8,
            1,
            AggregatorKind::Learned,
            true,
            true,
            &mut rng
        )
        .is_err());
        // Heads don't divide d.
        assert!(WindowAttentionLayer::new(
            &store,
            "c",
            2,
            12,
            3,
            1,
            1,
            8,
            3,
            AggregatorKind::Learned,
            true,
            true,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn wrong_input_shape_rejected() {
        let (_s, l) = layer(3, 12, 3, 1, AggregatorKind::Learned, false);
        let g = Graph::new();
        assert!(l
            .forward(&g, &g.constant(Tensor::zeros(&[2, 3, 10, 1])), None)
            .is_err());
        assert!(l
            .forward(&g, &g.constant(Tensor::zeros(&[2, 4, 12, 1])), None)
            .is_err());
    }

    #[test]
    fn later_windows_see_earlier_content() {
        // Eq. 14's cross-window flow: changing the first window's input
        // must change the last window's output.
        let (_s, l) = layer(2, 12, 3, 2, AggregatorKind::Learned, false);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(3);
        let base = Tensor::randn(&[1, 2, 12, 1], &mut rng);
        let mut modified = base.clone();
        modified.data_mut()[0] += 2.5; // perturb timestamp 0 of sensor 0
        let ya = l.forward(&g, &g.constant(base), None).unwrap();
        let yb = l.forward(&g, &g.constant(modified), None).unwrap();
        let last_a = ya.value().narrow(2, 3, 1).unwrap();
        let last_b = yb.value().narrow(2, 3, 1).unwrap();
        assert!(
            !last_a.approx_eq(&last_b, 1e-7),
            "cross-window fusion failed to propagate information"
        );
    }

    #[test]
    fn mean_aggregator_differs_from_learned() {
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(4);
        let x = Tensor::randn(&[1, 2, 12, 1], &mut rng);
        let (_s1, learned) = layer(2, 12, 3, 2, AggregatorKind::Learned, false);
        let (_s2, mean) = layer(2, 12, 3, 2, AggregatorKind::Mean, false);
        let ya = learned.forward(&g, &g.constant(x.clone()), None).unwrap();
        let yb = mean.forward(&g, &g.constant(x), None).unwrap();
        assert!(!ya.value().approx_eq(&yb.value(), 1e-6));
    }

    #[test]
    fn generated_projections_change_output_per_sensor() {
        let (_s, l) = layer(2, 12, 3, 1, AggregatorKind::Learned, false);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(5);
        // Same series for both sensors; distinct generated projections
        // must yield distinct outputs — spatial awareness in action.
        let one = Tensor::randn(&[1, 1, 12, 1], &mut rng);
        let x = g.constant(one.broadcast_to(&[1, 2, 12, 1]).unwrap());
        // Rows decoded from a per-sensor head through one output layer.
        let weight = g.constant(Tensor::randn(&[4, 2 * 8], &mut rng));
        let bias = g.constant(Tensor::randn(&[2 * 8], &mut rng));
        let generated = |head: Tensor| GeneratedProjections {
            head: g.constant(head),
            weight: weight.clone(),
            bias: bias.clone(),
            sca_transforms: None,
        };
        let kv = generated(Tensor::randn(&[1, 2, 4], &mut rng));
        let y = l.forward(&g, &x, Some(&kv)).unwrap();
        let s0 = y.value().narrow(1, 0, 1).unwrap();
        let s1 = y.value().narrow(1, 1, 1).unwrap();
        assert!(!s0.approx_eq(&s1, 1e-6));

        // Identical projections for both sensors -> identical outputs.
        let shared_head = Tensor::randn(&[1, 1, 4], &mut rng);
        let kv_same = generated(shared_head.broadcast_to(&[1, 2, 4]).unwrap());
        // But proxies differ per sensor, so outputs may still differ;
        // equality only holds if proxies match too. Overwrite proxies to
        // be identical across sensors for this check.
        let mut proxies = _s.params()[0].value();
        let half = proxies.len() / 2;
        let first_half: Vec<f32> = proxies.data()[..half].to_vec();
        proxies.data_mut()[half..].copy_from_slice(&first_half);
        _s.params()[0].set_value(proxies);
        let y2 = l.forward(&g, &x, Some(&kv_same)).unwrap();
        let t0 = y2.value().narrow(1, 0, 1).unwrap();
        let t1 = y2.value().narrow(1, 1, 1).unwrap();
        assert!(t0.approx_eq(&t1, 1e-5));
    }

    #[test]
    fn gradients_flow_to_proxies_and_aggregator() {
        let (store, l) = layer(2, 12, 3, 2, AggregatorKind::Learned, true);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(6);
        let x = g.constant(Tensor::randn(&[2, 2, 12, 1], &mut rng));
        let loss = l
            .forward(&g, &x, None)
            .unwrap()
            .square()
            .unwrap()
            .sum_all()
            .unwrap();
        g.backward(&loss).unwrap();
        let missing: Vec<String> = store
            .params()
            .iter()
            .filter(|p| p.grad().is_none())
            .map(|p| p.name().to_string())
            .collect();
        assert!(missing.is_empty(), "no grad for {missing:?}");
    }

    #[test]
    fn single_window_layer_works() {
        // S = T: one window, no fusion step — the Table IX "1 layer,
        // S=12" configuration.
        let (_s, l) = layer(2, 12, 12, 2, AggregatorKind::Learned, true);
        assert_eq!(l.num_windows(), 1);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(8);
        let x = g.constant(Tensor::randn(&[1, 2, 12, 1], &mut rng));
        assert_eq!(l.forward(&g, &x, None).unwrap().shape(), vec![1, 2, 1, 8]);
    }
}
