//! Stochastic latent variables (paper Section IV-A.2).
//!
//! Two pieces:
//!
//! - [`SpatialLatent`]: one learnable Gaussian per sensor,
//!   `z^(i) ~ N(mu^(i), Sigma^(i))` with directly learnable `mu`/`Sigma`
//!   (Eq. 5). Captures each location's *general, prominent* pattern.
//! - [`TemporalEncoder`]: the variational encoder `E_psi` mapping the
//!   most recent `H` observations of each sensor to
//!   `z_t^(i) ~ N(mu_t^(i), Sigma_t^(i))` (Eq. 6–7). Captures the
//!   *current deviation* from the general pattern.
//!
//! Covariances are diagonal and parameterized as log-variances, which
//! keeps them positive and makes the KL of Eq. 20 analytic. Sampling uses
//! the reparameterization trick so gradients flow into `mu`/`logvar`.

use rand::Rng;
use stwa_autograd::{Graph, Var};
use stwa_nn::layers::{Activation, Mlp};
use stwa_nn::{Param, ParamStore};
use stwa_tensor::{Result, Tensor};

/// Whether latents are sampled (the paper's model) or collapsed to their
/// means (the "Deterministic ST-WA" ablation of Table XI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatentMode {
    Stochastic,
    Deterministic,
}

/// A Gaussian sampled (or collapsed) on the graph: mean, log-variance,
/// and a realization `z`.
pub struct GaussianSample {
    pub mu: Var,
    pub logvar: Var,
    pub z: Var,
}

/// Reparameterized sample: `z = mu + exp(logvar / 2) * eps`,
/// `eps ~ N(0, I)` entering the graph as a constant.
fn reparameterize(
    graph: &Graph,
    mu: &Var,
    logvar: &Var,
    mode: LatentMode,
    rng: &mut impl Rng,
) -> Result<Var> {
    match mode {
        LatentMode::Deterministic => Ok(mu.clone()),
        LatentMode::Stochastic => {
            let eps = graph.constant(Tensor::randn(&mu.shape(), rng));
            let std = logvar.mul_scalar(0.5).exp();
            mu.add(&std.mul(&eps)?)
        }
    }
}

/// The spatial-aware latent `z^(i)`: `mu` and `logvar` are plain
/// learnable parameters of shape `[N, k]` — no encoder, purely
/// data-driven, exactly as the paper argues (no POI features needed).
pub struct SpatialLatent {
    mu: Param,
    logvar: Param,
    n: usize,
    k: usize,
}

impl SpatialLatent {
    pub fn new(store: &ParamStore, name: &str, n: usize, k: usize, rng: &mut impl Rng) -> Self {
        SpatialLatent {
            // Small random means separate sensors from the start; small
            // negative log-variance starts sampling tight around them.
            mu: store.param(
                format!("{name}.mu"),
                Tensor::rand_normal(&[n, k], 0.0, 0.1, rng),
            ),
            logvar: store.param(format!("{name}.logvar"), Tensor::full(&[n, k], -2.0)),
            n,
            k,
        }
    }

    pub fn n(&self) -> usize {
        self.n
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Sample `z^(i)` for every sensor: returns `[N, k]` on the graph.
    pub fn sample(
        &self,
        graph: &Graph,
        mode: LatentMode,
        rng: &mut impl Rng,
    ) -> Result<GaussianSample> {
        let mu = self.mu.leaf(graph);
        let logvar = self.logvar.leaf(graph);
        let z = reparameterize(graph, &mu, &logvar, mode, rng)?;
        Ok(GaussianSample { mu, logvar, z })
    }

    /// The learned means, for the latent-space visualization (Fig. 9(b)).
    pub fn means(&self) -> Tensor {
        self.mu.value()
    }
}

/// The variational temporal encoder `E_psi` (paper: a 3-layer fully
/// connected network): recent window `[B, N, H, F]` → `mu_t, logvar_t`
/// of shape `[B, N, k]`.
pub struct TemporalEncoder {
    body: Mlp,
    head_mu: stwa_nn::layers::Linear,
    head_logvar: stwa_nn::layers::Linear,
    h: usize,
    f: usize,
    k: usize,
}

impl TemporalEncoder {
    pub fn new(
        store: &ParamStore,
        name: &str,
        h: usize,
        f: usize,
        hidden: usize,
        k: usize,
        rng: &mut impl Rng,
    ) -> Self {
        // Paper: 3-layer FC with ReLU producing a k-dim Gaussian; we use
        // a 2-layer trunk plus separate mu / logvar heads (the standard
        // VAE factorization of the same architecture).
        let body = Mlp::new(
            store,
            &format!("{name}.body"),
            &[h * f, hidden, hidden],
            &[Activation::Relu, Activation::Relu],
            rng,
        );
        let head_mu = stwa_nn::layers::Linear::new(store, &format!("{name}.mu"), hidden, k, rng);
        let head_logvar =
            stwa_nn::layers::Linear::new(store, &format!("{name}.logvar"), hidden, k, rng);
        TemporalEncoder {
            body,
            head_mu,
            head_logvar,
            h,
            f,
            k,
        }
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Encode and sample `z_t^(i)`: input `[B, N, H, F]`, output sample
    /// tensors of shape `[B, N, k]`.
    pub fn sample(
        &self,
        graph: &Graph,
        x: &Var,
        mode: LatentMode,
        rng: &mut impl Rng,
    ) -> Result<GaussianSample> {
        let shape = x.shape();
        let (b, n) = (shape[0], shape[1]);
        debug_assert_eq!(shape[2], self.h, "TemporalEncoder: H mismatch");
        debug_assert_eq!(shape[3], self.f, "TemporalEncoder: F mismatch");
        let flat = x.reshape(&[b, n, self.h * self.f])?;
        let hidden = self.body.forward(graph, &flat)?;
        let mu = self.head_mu.forward(graph, &hidden)?;
        // Clamp-free logvar: tanh keeps it in a numerically safe band
        // (variance between e^-4 and e^4) without branching.
        let logvar = self
            .head_logvar
            .forward(graph, &hidden)?
            .tanh()
            .mul_scalar(4.0);
        let z = reparameterize(graph, &mu, &logvar, mode, rng)?;
        Ok(GaussianSample { mu, logvar, z })
    }

    /// Input window length `H`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Input feature width `F`.
    pub fn f(&self) -> usize {
        self.f
    }

    /// The encoder trunk — read when packing frozen inference weights.
    pub fn body(&self) -> &Mlp {
        &self.body
    }

    /// The mean head — read when packing frozen inference weights.
    pub fn head_mu(&self) -> &stwa_nn::layers::Linear {
        &self.head_mu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn spatial_sample_shape_and_grad() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lat = SpatialLatent::new(&store, "z", 5, 4, &mut rng);
        let g = Graph::new();
        let s = lat.sample(&g, LatentMode::Stochastic, &mut rng).unwrap();
        assert_eq!(s.z.shape(), vec![5, 4]);
        let loss = s.z.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        // Both mu and logvar receive gradients through the
        // reparameterization.
        assert!(store.params()[0].grad().is_some());
        assert!(store.params()[1].grad().is_some());
    }

    #[test]
    fn deterministic_mode_returns_mean() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let lat = SpatialLatent::new(&store, "z", 3, 2, &mut rng);
        let g = Graph::new();
        let s = lat.sample(&g, LatentMode::Deterministic, &mut rng).unwrap();
        assert_eq!(s.z.value().data(), lat.means().data());
    }

    #[test]
    fn stochastic_samples_differ_between_draws() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let lat = SpatialLatent::new(&store, "z", 3, 2, &mut rng);
        let g = Graph::new();
        let a = lat.sample(&g, LatentMode::Stochastic, &mut rng).unwrap();
        let b = lat.sample(&g, LatentMode::Stochastic, &mut rng).unwrap();
        assert_ne!(a.z.value().data(), b.z.value().data());
    }

    #[test]
    fn sampling_concentrates_as_variance_shrinks() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let lat = SpatialLatent::new(&store, "z", 1, 64, &mut rng);
        // Force a very small variance.
        store.params()[1].set_value(Tensor::full(&[1, 64], -12.0));
        let g = Graph::new();
        let s = lat.sample(&g, LatentMode::Stochastic, &mut rng).unwrap();
        let spread = s.z.value().sub(&s.mu.value()).unwrap().abs().max_all();
        assert!(spread < 0.05, "low-variance sample strayed {spread}");
    }

    #[test]
    fn encoder_shapes_and_grads() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = TemporalEncoder::new(&store, "e", 6, 1, 16, 8, &mut rng);
        let g = Graph::new();
        let x = g.constant(Tensor::randn(&[2, 3, 6, 1], &mut rng));
        let s = enc
            .sample(&g, &x, LatentMode::Stochastic, &mut rng)
            .unwrap();
        assert_eq!(s.z.shape(), vec![2, 3, 8]);
        assert_eq!(s.mu.shape(), vec![2, 3, 8]);
        let loss = s.z.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert!(store.params().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn encoder_logvar_is_bounded() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let enc = TemporalEncoder::new(&store, "e", 4, 1, 8, 4, &mut rng);
        let g = Graph::new();
        // Extreme inputs cannot blow the log-variance past +-4.
        let x = g.constant(Tensor::full(&[1, 2, 4, 1], 1e4));
        let s = enc
            .sample(&g, &x, LatentMode::Stochastic, &mut rng)
            .unwrap();
        assert!(s.logvar.value().data().iter().all(|v| v.abs() <= 4.0));
        assert!(!s.z.value().has_non_finite());
    }

    #[test]
    fn encoder_distinguishes_inputs() {
        // Different recent windows must produce different mu_t — that is
        // the whole point of temporal awareness.
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let enc = TemporalEncoder::new(&store, "e", 4, 1, 16, 4, &mut rng);
        let g = Graph::new();
        let rising = g.constant(Tensor::from_fn(&[1, 1, 4, 1], |i| i[2] as f32));
        let falling = g.constant(Tensor::from_fn(&[1, 1, 4, 1], |i| 3.0 - i[2] as f32));
        let a = enc
            .sample(&g, &rising, LatentMode::Deterministic, &mut rng)
            .unwrap();
        let b = enc
            .sample(&g, &falling, LatentMode::Deterministic, &mut rng)
            .unwrap();
        assert!(!a.mu.value().approx_eq(&b.mu.value(), 1e-4));
    }
}
