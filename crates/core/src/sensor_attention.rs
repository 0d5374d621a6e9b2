//! Sensor Correlation Attention (paper Section IV-C, Eq. 15–16):
//! embedded-Gaussian attention across the N sensors within a window.

use rand::Rng;
use std::sync::Arc;
use stwa_autograd::{Graph, Var};
use stwa_nn::layers::Linear;
use stwa_nn::ParamStore;
use stwa_tensor::{Result, SensorGraph, TensorError};

/// Which sensor pairs the correlation attention scores.
///
/// `Dense` is the paper's Eq. 15–16 verbatim: every sensor attends
/// every sensor, O(N²). `Sparse` restricts attention to an explicit
/// [`SensorGraph`] neighbor list, O(N·k) — the city-scale path. A
/// complete graph (`k = N−1`, self included) makes the sparse path
/// bitwise identical to `Dense` on forward, backward, and frozen
/// inference, which is how the equivalence tests gate it. The graph is
/// `Arc`-shared so shard replicas and frozen snapshots reference one
/// copy.
#[derive(Debug, Clone, Default)]
pub enum SparsityMode {
    #[default]
    Dense,
    Sparse(Arc<SensorGraph>),
}

impl SparsityMode {
    /// The neighbor graph, when sparse.
    pub fn graph(&self) -> Option<&Arc<SensorGraph>> {
        match self {
            SparsityMode::Dense => None,
            SparsityMode::Sparse(g) => Some(g),
        }
    }
}

/// `B(h_i, h_j) = softmax_j( theta1(h_i)^T theta2(h_j) )`, followed by
/// `h̄_i = sum_j B(h_i, h_j) * h_j` — i.e. each sensor re-weights the
/// other sensors' window summaries by learned similarity.
pub struct SensorCorrelationAttention {
    /// Shared embedding transforms; absent when the layer always
    /// receives generated per-sensor transforms (Section IV-C variant),
    /// so no orphan parameters are registered.
    theta1: Option<Linear>,
    theta2: Option<Linear>,
    d: usize,
    mode: SparsityMode,
}

impl SensorCorrelationAttention {
    pub fn new(store: &ParamStore, name: &str, d: usize, rng: &mut impl Rng) -> Self {
        SensorCorrelationAttention {
            theta1: Some(Linear::new_no_bias(
                store,
                &format!("{name}.theta1"),
                d,
                d,
                rng,
            )),
            theta2: Some(Linear::new_no_bias(
                store,
                &format!("{name}.theta2"),
                d,
                d,
                rng,
            )),
            d,
            mode: SparsityMode::Dense,
        }
    }

    /// A variant with no shared transforms — every forward pass must go
    /// through [`SensorCorrelationAttention::forward_with`] with
    /// generated `theta1`/`theta2`.
    pub fn new_generated(d: usize) -> Self {
        SensorCorrelationAttention {
            theta1: None,
            theta2: None,
            d,
            mode: SparsityMode::Dense,
        }
    }

    /// Switch between dense and graph-restricted attention. Parameters
    /// are untouched — the mode only selects which pairs are scored.
    pub fn set_sparsity(&mut self, mode: SparsityMode) {
        self.mode = mode;
    }

    /// The active [`SparsityMode`] — read at freeze time so the
    /// inference mirror serves the same pair set.
    pub fn sparsity(&self) -> &SparsityMode {
        &self.mode
    }

    /// `h` is `[..., N, d]`; returns the correlated representation of the
    /// same shape. The attention (softmax) axis is the *source sensor*
    /// axis `j`.
    pub fn forward(&self, graph: &Graph, h: &Var) -> Result<Var> {
        let shape = h.shape();
        let rank = shape.len();
        if rank < 2 || shape[rank - 1] != self.d {
            return Err(TensorError::Invalid(format!(
                "SensorCorrelationAttention: expected [..., N, {}], got {shape:?}",
                self.d
            )));
        }
        let (Some(theta1), Some(theta2)) = (&self.theta1, &self.theta2) else {
            return Err(TensorError::Invalid(
                "SensorCorrelationAttention built for generated transforms \
                 requires forward_with"
                    .into(),
            ));
        };
        let _span = stwa_observe::span!("sensor_attention");
        let q = theta1.forward(graph, h)?; // [..., N, d]
        let k = theta2.forward(graph, h)?;
        let _ = rank;
        self.attend(&q, &k, h)
    }

    /// Eq. 15–16 with *generated* per-sensor embedding transforms — the
    /// option the paper sketches at the end of Section IV-C ("we can use
    /// the model parameters generation process ... to generate a
    /// distinct set of transformation matrices for each sensor").
    ///
    /// `h` is `[B, N, d]`; `t1`/`t2` are `[B, N, d, d]`.
    pub fn forward_with(&self, _graph: &Graph, h: &Var, t1: &Var, t2: &Var) -> Result<Var> {
        let shape = h.shape();
        if shape.len() != 3 || shape[2] != self.d {
            return Err(TensorError::Invalid(format!(
                "SensorCorrelationAttention::forward_with: expected [B, N, {}], got {shape:?}",
                self.d
            )));
        }
        let _span = stwa_observe::span!("sensor_attention");
        // Per-sensor projections: [B, N, 1, d] @ [B, N, d, d].
        let rows = h.unsqueeze(2)?;
        let q = rows.matmul(t1)?.squeeze(2)?; // [B, N, d]
        let k = rows.matmul(t2)?.squeeze(2)?;
        self.attend(&q, &k, h)
    }

    /// Eq. 15–16 core shared by both transform sources: softmax over the
    /// source-sensor axis of `q k^T / sqrt(d)`, then mix the raw window
    /// summaries. Scaling is a monotone logit rescaling that the softmax
    /// normalization absorbs; it only adds numerical headroom.
    ///
    /// Under [`SparsityMode::Sparse`] the same math runs as one fused
    /// O(N·k) tape entry restricted to the graph's neighbor pairs.
    fn attend(&self, q: &Var, k: &Var, h: &Var) -> Result<Var> {
        let scale = 1.0 / (self.d as f32).sqrt();
        match &self.mode {
            SparsityMode::Dense => {
                let scores = q.matmul_nt(k)?.mul_scalar(scale); // [..., N, N]
                let weights = scores.softmax(scores.shape().len() - 1)?;
                weights.matmul(h)
            }
            SparsityMode::Sparse(graph) => q.sparse_attend(k, h, graph, scale),
        }
    }

    /// Shared embedding transforms, when present — read by the inference
    /// engine when packing frozen weights.
    pub fn shared_transforms(&self) -> (Option<&Linear>, Option<&Linear>) {
        (self.theta1.as_ref(), self.theta2.as_ref())
    }

    /// Feature width `d`.
    pub fn dim(&self) -> usize {
        self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stwa_tensor::Tensor;

    fn mk(d: usize) -> (ParamStore, SensorCorrelationAttention, StdRng) {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let sca = SensorCorrelationAttention::new(&store, "sca", d, &mut rng);
        (store, sca, rng)
    }

    #[test]
    fn preserves_shape() {
        let (_s, sca, mut rng) = mk(6);
        let g = Graph::new();
        let h = g.constant(Tensor::randn(&[3, 5, 6], &mut rng));
        let out = sca.forward(&g, &h).unwrap();
        assert_eq!(out.shape(), vec![3, 5, 6]);
    }

    #[test]
    fn output_is_convex_combination_of_sensors() {
        let (_s, sca, mut rng) = mk(4);
        let g = Graph::new();
        let h = g.constant(Tensor::randn(&[1, 6, 4], &mut rng));
        let out = sca.forward(&g, &h).unwrap();
        let hv = h.value();
        let ov = out.value();
        for c in 0..4 {
            let lo = (0..6)
                .map(|n| hv.at(&[0, n, c]))
                .fold(f32::INFINITY, f32::min);
            let hi = (0..6)
                .map(|n| hv.at(&[0, n, c]))
                .fold(f32::NEG_INFINITY, f32::max);
            for n in 0..6 {
                let v = ov.at(&[0, n, c]);
                assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
            }
        }
    }

    #[test]
    fn identical_sensors_map_to_identical_outputs() {
        let (_s, sca, _rng) = mk(3);
        let g = Graph::new();
        let row = Tensor::from_vec(vec![1.0, -0.5, 2.0], &[3]).unwrap();
        let h = g.constant(row.broadcast_to(&[1, 4, 3]).unwrap());
        let out = sca.forward(&g, &h).unwrap();
        let ov = out.value();
        for n in 1..4 {
            for c in 0..3 {
                assert!((ov.at(&[0, n, c]) - ov.at(&[0, 0, c])).abs() < 1e-5);
            }
        }
        // And each output equals the (uniform) average = the shared row.
        for c in 0..3 {
            assert!((ov.at(&[0, 0, c]) - row.data()[c]).abs() < 1e-4);
        }
    }

    #[test]
    fn gradients_reach_both_embeddings() {
        let (store, sca, mut rng) = mk(4);
        let g = Graph::new();
        let h = g.constant(Tensor::randn(&[2, 3, 4], &mut rng));
        let loss = sca
            .forward(&g, &h)
            .unwrap()
            .square()
            .unwrap()
            .sum_all()
            .unwrap();
        g.backward(&loss).unwrap();
        assert!(store.params().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn wrong_feature_dim_rejected() {
        let (_s, sca, _r) = mk(4);
        let g = Graph::new();
        let h = g.constant(Tensor::zeros(&[1, 3, 5]));
        assert!(sca.forward(&g, &h).is_err());
    }

    #[test]
    fn complete_sparse_graph_matches_dense_bitwise() {
        for n in [1usize, 2, 5, 9] {
            let (store, mut sca, mut rng) = mk(4);
            let x = Tensor::randn(&[2, n, 4], &mut rng);

            let g = Graph::new();
            let h = g.constant(x.clone());
            let dense = sca.forward(&g, &h).unwrap();
            let loss = dense.square().unwrap().sum_all().unwrap();
            g.backward(&loss).unwrap();
            let dense_out = dense.value().data().to_vec();
            let dense_grads: Vec<Vec<f32>> = store
                .params()
                .iter()
                .map(|p| p.grad().unwrap().data().to_vec())
                .collect();

            sca.set_sparsity(SparsityMode::Sparse(Arc::new(SensorGraph::complete(n))));
            for p in store.params() {
                p.unbind();
            }
            let g2 = Graph::new();
            let h2 = g2.constant(x.clone());
            let sparse = sca.forward(&g2, &h2).unwrap();
            let loss2 = sparse.square().unwrap().sum_all().unwrap();
            g2.backward(&loss2).unwrap();

            assert_eq!(
                sparse.value().data(),
                &dense_out[..],
                "forward bits diverge at n={n}"
            );
            for (p, want) in store.params().iter().zip(&dense_grads) {
                assert_eq!(
                    p.grad().unwrap().data(),
                    &want[..],
                    "grad bits diverge at n={n}"
                );
            }

            // A graph that records nothing computes the same bits.
            let eval = Graph::no_grad();
            let out = sca.forward(&eval, &eval.constant(x.clone())).unwrap();
            assert_eq!(out.value().data(), &dense_out[..]);
        }
    }

    #[test]
    fn sparse_graph_restricts_mixing_to_neighbors() {
        let (_s, mut sca, mut rng) = mk(4);
        // Two disconnected cliques: {0, 1} and {2, 3}.
        let graph = SensorGraph::from_neighbor_lists(4, &[
            vec![0, 1],
            vec![0, 1],
            vec![2, 3],
            vec![2, 3],
        ])
        .unwrap();
        sca.set_sparsity(SparsityMode::Sparse(Arc::new(graph)));

        let g = Graph::no_grad();
        let run = |h: Tensor| sca.forward(&g, &g.constant(h)).unwrap().value();
        let base = Tensor::randn(&[1, 4, 4], &mut rng);
        let out_a = run(base.clone());

        // Perturbing sensors in the other clique must not change rows 0-1.
        let mut data = base.data().to_vec();
        for v in &mut data[8..] {
            *v += 3.0;
        }
        let out_b = run(Tensor::from_vec(data, &[1, 4, 4]).unwrap());
        assert_eq!(&out_a.data()[..8], &out_b.data()[..8]);
        assert_ne!(&out_a.data()[8..], &out_b.data()[8..]);
    }
}
