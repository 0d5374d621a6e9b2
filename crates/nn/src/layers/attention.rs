//! Canonical (quadratic) multi-head self-attention — the paper's Eq. 2/3
//! and the `SA` ablation baseline of Table VIII.

use crate::init;
use crate::param::{Param, ParamStore};
use rand::Rng;
use stwa_autograd::{Graph, Var};
use stwa_tensor::{Result, TensorError};

/// Multi-head scaled-dot-product self-attention.
///
/// Input is `[..., T, in_dim]` with any number of leading batch axes
/// (the workspace convention is `[B, N, T, F]`). The projections
/// `Q, K, V in R^{F x d}` are the *spatio-temporal agnostic* shared
/// parameters the paper's generator replaces; use
/// [`MultiHeadSelfAttention::forward_with`] to run the same attention
/// arithmetic under externally generated projections.
pub struct MultiHeadSelfAttention {
    wq: Param,
    wk: Param,
    wv: Param,
    heads: usize,
    in_dim: usize,
    d: usize,
}

impl MultiHeadSelfAttention {
    pub fn new(
        store: &ParamStore,
        name: &str,
        in_dim: usize,
        d: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> MultiHeadSelfAttention {
        assert!(heads >= 1 && d.is_multiple_of(heads), "heads must divide d");
        let proj = |suffix: &str, rng: &mut dyn rand::RngCore| {
            store.param(
                format!("{name}.{suffix}"),
                init::xavier_uniform(&[in_dim, d], in_dim, d, &mut &mut *rng),
            )
        };
        MultiHeadSelfAttention {
            wq: proj("q", rng),
            wk: proj("k", rng),
            wv: proj("v", rng),
            heads,
            in_dim,
            d,
        }
    }

    pub fn out_dim(&self) -> usize {
        self.d
    }

    /// Attention with this layer's own (shared) projections.
    pub fn forward(&self, graph: &Graph, x: &Var) -> Result<Var> {
        let wq = self.wq.leaf(graph);
        let wk = self.wk.leaf(graph);
        let wv = self.wv.leaf(graph);
        self.forward_with(x, &wq, &wk, &wv)
    }

    /// Attention under externally supplied projections.
    ///
    /// `wq`/`wk`/`wv` must broadcast against `x`'s leading axes under
    /// batched matmul — either plain `[F, d]` (shared) or
    /// `[B, N, F, d]`-style per-sensor generated projections (the
    /// spatio-temporal aware case).
    pub fn forward_with(&self, x: &Var, wq: &Var, wk: &Var, wv: &Var) -> Result<Var> {
        let shape = x.shape();
        let rank = shape.len();
        if rank < 2 || shape[rank - 1] != self.in_dim {
            return Err(TensorError::Invalid(format!(
                "attention: expected [..., T, {}], got {shape:?}",
                self.in_dim
            )));
        }
        let q = x.matmul(wq)?; // [..., T, d]
        let k = x.matmul(wk)?;
        let v = x.matmul(wv)?;
        let ctx = scaled_dot_attention(&q, &k, &v, self.heads)?;
        Ok(ctx)
    }
}

/// Scaled-dot-product attention with head splitting.
///
/// `q`: `[..., Tq, d]`, `k`/`v`: `[..., Tk, d]` with the same leading
/// axes; returns `[..., Tq, d]`. Softmax is over the key axis. `heads`
/// must divide `d`. One tape node ([`Var::attention`]).
pub fn scaled_dot_attention(q: &Var, k: &Var, v: &Var, heads: usize) -> Result<Var> {
    q.attention(k, v, heads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stwa_tensor::Tensor;

    fn layer(
        in_dim: usize,
        d: usize,
        heads: usize,
        seed: u64,
    ) -> (ParamStore, MultiHeadSelfAttention) {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let att = MultiHeadSelfAttention::new(&store, "att", in_dim, d, heads, &mut rng);
        (store, att)
    }

    #[test]
    fn output_shape_multi_batch() {
        let (_s, att) = layer(3, 8, 2, 0);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(1);
        // [B, N, T, F] convention.
        let x = g.constant(Tensor::randn(&[2, 4, 6, 3], &mut rng));
        let y = att.forward(&g, &x).unwrap();
        assert_eq!(y.shape(), vec![2, 4, 6, 8]);
    }

    #[test]
    fn single_head_equals_multi_head_with_same_dh_math() {
        // Sanity: one head runs and produces finite values.
        let (_s, att) = layer(2, 4, 1, 2);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(3);
        let x = g.constant(Tensor::randn(&[1, 5, 2], &mut rng));
        let y = att.forward(&g, &x).unwrap();
        assert!(!y.value().has_non_finite());
    }

    #[test]
    fn identical_timestamps_attend_uniformly() {
        // If every timestamp is the same vector, attention output equals
        // the value projection of that vector at every position.
        let (_s, att) = layer(3, 6, 3, 4);
        let g = Graph::new();
        let row = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]).unwrap();
        let x = g.constant(row.broadcast_to(&[1, 7, 3]).unwrap());
        let y = att.forward(&g, &x).unwrap();
        let v = y.value();
        for t in 1..7 {
            for c in 0..6 {
                assert!((v.at(&[0, t, c]) - v.at(&[0, 0, c])).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn heads_must_divide_d() {
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(5);
        let q = g.constant(Tensor::randn(&[1, 4, 6], &mut rng));
        assert!(scaled_dot_attention(&q, &q, &q, 4).is_err());
        assert!(scaled_dot_attention(&q, &q, &q, 0).is_err());
        assert!(scaled_dot_attention(&q, &q, &q, 3).is_ok());
    }

    #[test]
    fn cross_attention_shapes() {
        // Query length != key length (the window-attention usage where
        // proxies act as queries).
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(6);
        let q = g.constant(Tensor::randn(&[2, 3, 8], &mut rng)); // 3 proxies
        let k = g.constant(Tensor::randn(&[2, 12, 8], &mut rng)); // 12 timestamps
        let v = g.constant(Tensor::randn(&[2, 12, 8], &mut rng));
        let y = scaled_dot_attention(&q, &k, &v, 2).unwrap();
        assert_eq!(y.shape(), vec![2, 3, 8]);
    }

    #[test]
    fn attention_output_in_value_convex_hull() {
        // Attention is a convex combination of values per head; with one
        // head the output of each position lies within [min, max] of the
        // value rows per coordinate.
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(7);
        let q = g.constant(Tensor::randn(&[1, 4, 4], &mut rng));
        let k = g.constant(Tensor::randn(&[1, 6, 4], &mut rng));
        let v = g.constant(Tensor::randn(&[1, 6, 4], &mut rng));
        let y = scaled_dot_attention(&q, &k, &v, 1).unwrap();
        let vv = v.value();
        let yv = y.value();
        for c in 0..4 {
            let lo = (0..6)
                .map(|t| vv.at(&[0, t, c]))
                .fold(f32::INFINITY, f32::min);
            let hi = (0..6)
                .map(|t| vv.at(&[0, t, c]))
                .fold(f32::NEG_INFINITY, f32::max);
            for t in 0..4 {
                let val = yv.at(&[0, t, c]);
                assert!(val >= lo - 1e-5 && val <= hi + 1e-5);
            }
        }
    }

    #[test]
    fn gradients_flow_to_projections() {
        let (store, att) = layer(3, 4, 2, 8);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(9);
        let x = g.constant(Tensor::randn(&[1, 5, 3], &mut rng));
        let loss = att
            .forward(&g, &x)
            .unwrap()
            .square()
            .unwrap()
            .sum_all()
            .unwrap();
        g.backward(&loss).unwrap();
        assert!(store.params().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn forward_with_accepts_per_batch_projections() {
        // Generated projections with a leading batch axis broadcast
        // through batched matmul — the ST-aware path.
        let (_s, att) = layer(3, 4, 1, 10);
        let g = Graph::new();
        let mut rng = StdRng::seed_from_u64(11);
        let x = g.constant(Tensor::randn(&[2, 5, 3], &mut rng));
        let wq = g.constant(Tensor::randn(&[2, 3, 4], &mut rng));
        let wk = g.constant(Tensor::randn(&[2, 3, 4], &mut rng));
        let wv = g.constant(Tensor::randn(&[2, 3, 4], &mut rng));
        let y = att.forward_with(&x, &wq, &wk, &wv).unwrap();
        assert_eq!(y.shape(), vec![2, 5, 4]);
        // Different per-batch projections -> different outputs.
        let y0 = y.value().narrow(0, 0, 1).unwrap();
        let y1 = y.value().narrow(0, 1, 1).unwrap();
        assert!(!y0.approx_eq(&y1, 1e-6));
    }
}
