//! Planar normalizing flows over the latent variables — the paper's
//! stated future work ("it is of interest to explore methods such as
//! normalizing flows for ... non-Gaussian stochastic variables",
//! Section VI), implemented here as an opt-in extension
//! ([`crate::StwaConfig::with_flow`]).
//!
//! Each planar layer transforms a latent `z ∈ R^k` as
//!
//! ```text
//! z' = z + u * tanh(w · z + b)
//! log |det ∂z'/∂z| = ln |1 + (1 - tanh^2(w·z + b)) (u · w)|
//! ```
//!
//! (Rezende & Mohamed, 2015). With flows active, the analytic Gaussian
//! KL of Eq. 20 is replaced by a single-sample Monte-Carlo estimate
//!
//! ```text
//! KL ≈ log q0(theta0) - Σ log|det J| - log p(theta_K)
//! ```
//!
//! where `q0` is the (still Gaussian) base posterior, `theta_K` the
//! flowed sample, and `p = N(0, I)` the prior.

use rand::Rng;
use stwa_autograd::{Graph, Var};
use stwa_nn::{init, Param, ParamStore};
use stwa_tensor::{Result, Tensor, TensorError};

/// One planar flow layer with learnable `u, w ∈ R^k`, `b ∈ R`.
struct PlanarLayer {
    u: Param,
    w: Param,
    b: Param,
}

/// A stack of planar flow layers sharing a latent dimension `k`.
pub struct FlowStack {
    layers: Vec<PlanarLayer>,
    k: usize,
}

impl FlowStack {
    pub fn new(store: &ParamStore, name: &str, k: usize, depth: usize, rng: &mut impl Rng) -> Self {
        assert!(depth >= 1, "FlowStack: depth must be >= 1");
        let layers = (0..depth)
            .map(|l| PlanarLayer {
                // Small init keeps the initial flow near the identity, so
                // training starts from the plain-Gaussian behaviour.
                u: store.param(format!("{name}.u{l}"), init::normal(&[k], 0.05, rng)),
                w: store.param(format!("{name}.w{l}"), init::normal(&[k], 0.05, rng)),
                b: store.param(format!("{name}.b{l}"), init::zeros(&[1])),
            })
            .collect();
        FlowStack { layers, k }
    }

    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Transform `z` of shape `[..., k]` (rank >= 2 — batched matmul
    /// treats the second-to-last axis as rows); returns the flowed latent
    /// and the accumulated `Σ log |det J|` of shape `[..., 1]`.
    pub fn forward(&self, graph: &Graph, z: &Var) -> Result<(Var, Var)> {
        let shape = z.shape();
        let rank = shape.len();
        if rank < 2 || shape[rank - 1] != self.k {
            return Err(TensorError::Invalid(format!(
                "FlowStack: expected rank >= 2 with last dim {}, got {shape:?}",
                self.k
            )));
        }
        let mut current = z.clone();
        let mut logdet_sum: Option<Var> = None;
        for layer in &self.layers {
            let (u, w_col, b) = layer.constrained(graph, self.k)?;
            // w · z per row: batched matmul broadcasts [k, 1] over the
            // leading axes, so no manual flattening is needed.
            let pre = current.matmul(&w_col)?.add(&b)?; // [..., 1]
            let t = pre.tanh();
            // z' = z + u * t  (u broadcasts over rows, t over features).
            let step = t.mul(&u)?; // [..., k] via broadcasting
            current = current.add(&step)?;
            // log|det| = ln(1 + (1 - t^2)(u_hat · w)); with the u_hat
            // constraint the argument is strictly positive, the abs is
            // only float-safety.
            let u_dot_w = u.reshape(&[1, self.k])?.matmul(&w_col)?.reshape(&[1])?;
            let psi = t.square()?.neg().add_scalar(1.0); // [..., 1]
            let inner = psi.mul(&u_dot_w)?.add_scalar(1.0);
            let logdet = inner.abs().add_scalar(1e-6).ln();
            logdet_sum = Some(match logdet_sum {
                None => logdet,
                Some(acc) => acc.add(&logdet)?,
            });
        }
        Ok((current, logdet_sum.expect("depth >= 1")))
    }

    /// Per-layer frozen flow constants for the inference engine: the
    /// constrained `u_hat` (`[k]`), the column weight (`[k, 1]`), and the
    /// bias (`[1]`), read off a non-recording graph. These depend only
    /// on parameters, so a frozen session computes them once; per
    /// request only `matmul / add / tanh / mul / add` remain.
    pub fn frozen_layers_nograd(&self) -> Result<Vec<(Tensor, Tensor, Tensor)>> {
        let graph = Graph::no_grad();
        let tensor = |v: Var| v.value().as_ref().clone();
        self.layers
            .iter()
            .map(|layer| {
                let (u, w_col, b) = layer.constrained(&graph, self.k)?;
                Ok((tensor(u), tensor(w_col), tensor(b)))
            })
            .collect()
    }
}

impl PlanarLayer {
    /// The invertibility-constrained `u_hat` (`[k]`), plus `w` as a
    /// `[k, 1]` column and the bias (`[1]`).
    ///
    /// Invertibility (Rezende & Mohamed, appendix): constrain
    /// `u·w >= -1` by reparameterizing
    ///   `u_hat = u + (m(u·w) - u·w) * w / ||w||^2`,
    ///   `m(x)  = -1 + softplus(x) = -1 + ln(1 + e^x) > -1`.
    /// Without this, training can push a layer non-invertible and the
    /// "density" the MC-KL estimates stops being one.
    fn constrained(&self, graph: &Graph, k: usize) -> Result<(Var, Var, Var)> {
        let u_raw = self.u.leaf(graph); // [k]
        let w = self.w.leaf(graph); // [k]
        let b = self.b.leaf(graph); // [1]
        let w_row = w.reshape(&[1, k])?;
        let u_col = u_raw.reshape(&[k, 1])?;
        let uw = w_row.matmul(&u_col)?.reshape(&[1])?; // scalar u·w
        let softplus = uw.exp().add_scalar(1.0).ln();
        let m_uw = softplus.add_scalar(-1.0);
        let w_norm_sq = w_row.matmul(&w.reshape(&[k, 1])?)?.reshape(&[1])?;
        let coeff = m_uw.sub(&uw)?.div(&w_norm_sq.add_scalar(1e-8))?; // [1]
        let u = u_raw.add(&coeff.mul(&w)?)?; // [k] via broadcasting
        let w_col = w.reshape(&[k, 1])?;
        Ok((u, w_col, b))
    }
}

/// Single-sample Monte-Carlo KL of a flowed Gaussian against `N(0, I)`:
///
/// `theta0` is the base sample from `N(mu, diag(var))`, `theta_k` the
/// flowed sample, `logdet` the accumulated jacobian terms (`[..., 1]`).
/// Returns a scalar (mean over all latent coordinates).
pub fn flow_kl(theta0: &Var, mu: &Var, var: &Var, theta_k: &Var, logdet: &Var) -> Result<Var> {
    // log q0 (up to the 2π constant that cancels against log p):
    //   -0.5 * (ln var + (theta0 - mu)^2 / var), summed over k.
    // `mu`/`var` may be lower-rank than `theta0` (spatial-only moments
    // are [N, k] against a [B, N, k] sample); the sum axis must be the
    // latent axis of the *broadcast* term, so it is taken from the term
    // itself rather than from `var`.
    let dev2 = theta0.sub(mu)?.square()?;
    let term = var.ln().add(&dev2.div(var)?)?;
    let log_q0 = term.sum_axis(last_axis(&term), true)?.mul_scalar(-0.5);
    // log p(theta_K) = -0.5 * theta_K^2 summed over k.
    let log_p = theta_k
        .square()?
        .sum_axis(last_axis(theta_k), true)?
        .mul_scalar(-0.5);
    // KL_mc = log q0 - logdet - log p, averaged over rows; normalize by
    // k so the magnitude matches the analytic KL's mean-per-coordinate
    // convention used elsewhere in the loss.
    let k = theta0.shape()[theta0.shape().len() - 1] as f32;
    log_q0
        .sub(logdet)?
        .sub(&log_p)?
        .mul_scalar(1.0 / k)
        .mean_all()
}

fn last_axis(v: &Var) -> usize {
    v.shape().len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stwa_autograd::check_gradient;
    use stwa_tensor::Tensor;

    #[test]
    fn identity_at_zero_u() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let flow = FlowStack::new(&store, "f", 4, 2, &mut rng);
        // Zero out u AND w: u_hat collapses to 0 (coeff * w = 0), so the
        // transform is the identity with logdet 0.
        for p in store.params() {
            if p.name().contains(".u") || p.name().contains(".w") {
                p.set_value(Tensor::zeros(&[4]));
            }
        }
        let g = Graph::new();
        let z = g.constant(Tensor::randn(&[3, 4], &mut rng));
        let (out, logdet) = flow.forward(&g, &z).unwrap();
        assert!(out.value().approx_eq(&z.value(), 1e-6));
        assert!(logdet.value().abs().max_all() < 1e-4);
    }

    #[test]
    fn output_shapes_any_rank() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let flow = FlowStack::new(&store, "f", 8, 3, &mut rng);
        let g = Graph::new();
        let z = g.constant(Tensor::randn(&[2, 5, 8], &mut rng));
        let (out, logdet) = flow.forward(&g, &z).unwrap();
        assert_eq!(out.shape(), vec![2, 5, 8]);
        assert_eq!(logdet.shape(), vec![2, 5, 1]);
        let bad = g.constant(Tensor::zeros(&[2, 5, 7]));
        assert!(flow.forward(&g, &bad).is_err());
    }

    #[test]
    fn logdet_matches_numeric_jacobian() {
        // For k=1 the planar flow is scalar: z' = z + u tanh(wz + b);
        // dz'/dz = 1 + u w (1 - tanh^2(wz+b)). Verify logdet exactly.
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let flow = FlowStack::new(&store, "f", 1, 1, &mut rng);
        let (u, w, b) = (0.7f32, -0.4f32, 0.2f32);
        store.params()[0].set_value(Tensor::from_vec(vec![u], &[1]).unwrap());
        store.params()[1].set_value(Tensor::from_vec(vec![w], &[1]).unwrap());
        store.params()[2].set_value(Tensor::from_vec(vec![b], &[1]).unwrap());
        let g = Graph::new();
        let z0 = 0.9f32;
        let z = g.constant(Tensor::from_vec(vec![z0], &[1, 1]).unwrap());
        let (out, logdet) = flow.forward(&g, &z).unwrap();
        // Mirror the u_hat reparameterization independently:
        // u_hat = u + (softplus(uw) - 1 - uw) * w / (w^2 + eps).
        let uw = u * w;
        let m_uw = -1.0 + (1.0 + uw.exp()).ln();
        let u_hat = u + (m_uw - uw) * w / (w * w + 1e-8);
        let t = (w * z0 + b).tanh();
        assert!(
            (out.value().data()[0] - (z0 + u_hat * t)).abs() < 1e-4,
            "{} vs {}",
            out.value().data()[0],
            z0 + u_hat * t
        );
        let expect = (1.0 + u_hat * w * (1.0 - t * t)).abs().ln();
        assert!((logdet.value().data()[0] - expect).abs() < 1e-4);
        // The constraint itself: u_hat . w >= -1 guarantees a positive
        // Jacobian argument for any t in (-1, 1).
        assert!(u_hat * w > -1.0);
    }

    #[test]
    fn flow_gradients_match_numeric() {
        let z = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut StdRng::seed_from_u64(3));
        let report = check_gradient(&z, 1e-2, |v| {
            let store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(4);
            let flow = FlowStack::new(&store, "f", 3, 2, &mut rng);
            let (out, logdet) = flow.forward(v.graph(), v)?;
            out.square()?.mean_all()?.add(&logdet.mean_all()?)
        })
        .unwrap();
        assert!(report.passes(4e-2), "{report:?}");
    }

    #[test]
    fn flow_kl_broadcasts_lower_rank_moments() {
        // Spatial-only case: moments are [N, k], the sample [B, N, k].
        // The reduction must run over k (the last axis of the broadcast
        // term), not over N.
        let g = Graph::new();
        let (b_sz, n, k) = (2usize, 3usize, 4usize);
        let mu = g.constant(Tensor::zeros(&[n, k]));
        let var = g.constant(Tensor::ones(&[n, k]));
        let theta0 = g.constant(Tensor::zeros(&[b_sz, n, k]));
        let logdet = g.constant(Tensor::zeros(&[b_sz, n, 1]));
        // At the prior (mu=0, var=1, theta=0) the MC-KL is exactly 0.
        let kl = flow_kl(&theta0, &mu, &var, &theta0, &logdet)
            .unwrap()
            .value()
            .item()
            .unwrap();
        assert!(kl.abs() < 1e-6, "KL at prior should be 0, got {kl}");
        // Off the prior, the value must match the hand formula
        // mean over k of 0.5 * (theta_k^2 - ln var - dev^2/var)... with
        // var = 1, dev = theta0: 0.5 * mean(theta_k^2 - theta0^2) = 0
        // when theta_k = theta0; use distinct theta_k to see a value.
        let theta_k = g.constant(Tensor::full(&[b_sz, n, k], 2.0));
        let kl2 = flow_kl(&theta0, &mu, &var, &theta_k, &logdet)
            .unwrap()
            .value()
            .item()
            .unwrap();
        assert!((kl2 - 2.0).abs() < 1e-5, "0.5 * 2^2 = 2, got {kl2}");
    }

    #[test]
    fn flow_kl_reduces_to_gaussian_kl_at_identity() {
        // With an identity flow (u = 0), the MC-KL estimator evaluated
        // at theta0 = mu equals the analytic KL at that point:
        // KL_point = 0.5 * mean(-ln var - 0 + mu^2) ... compare against
        // the direct formula.
        let g = Graph::new();
        let mu_t = Tensor::from_vec(vec![0.5, -0.3], &[1, 2]).unwrap();
        let var_t = Tensor::from_vec(vec![0.8, 1.2], &[1, 2]).unwrap();
        let mu = g.constant(mu_t.clone());
        let var = g.constant(var_t.clone());
        let theta0 = g.constant(mu_t.clone()); // sample at the mean
        let logdet = g.constant(Tensor::zeros(&[1, 1]));
        let kl = flow_kl(&theta0, &mu, &var, &theta0, &logdet)
            .unwrap()
            .value()
            .item()
            .unwrap();
        // Manual: mean over k of 0.5 * (-ln var + mu^2).
        let expect: f32 = (0..2)
            .map(|i| 0.5 * (-var_t.data()[i].ln() + mu_t.data()[i].powi(2)))
            .sum::<f32>()
            / 2.0;
        assert!((kl - expect).abs() < 1e-5, "{kl} vs {expect}");
    }
}
