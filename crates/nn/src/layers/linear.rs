//! Dense (fully connected) layers and the small MLP used throughout the
//! paper (encoder `E_psi`, decoder `D_omega`, predictor, aggregator).

use crate::init;
use crate::param::{Param, ParamStore};
use rand::Rng;
use stwa_autograd::{ActKind, Graph, Var};
use stwa_tensor::{Result, TensorError};

/// Pointwise nonlinearity selector for [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Identity,
    Relu,
    Tanh,
    Sigmoid,
}

impl Activation {
    pub fn apply(&self, x: &Var) -> Var {
        match self {
            Activation::Identity => x.clone(),
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
        }
    }

    /// The autograd-side fused-kernel selector for this activation.
    pub fn kind(&self) -> ActKind {
        match self {
            Activation::Identity => ActKind::Identity,
            Activation::Relu => ActKind::Relu,
            Activation::Tanh => ActKind::Tanh,
            Activation::Sigmoid => ActKind::Sigmoid,
        }
    }
}

/// `y = x W + b`, applied to the last axis of an arbitrary-rank input.
pub struct Linear {
    w: Param,
    b: Option<Param>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    pub fn new(
        store: &ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Linear {
        let w = store.param(
            format!("{name}.w"),
            init::xavier_uniform(&[in_dim, out_dim], in_dim, out_dim, rng),
        );
        let b = Some(store.param(format!("{name}.b"), init::zeros(&[out_dim])));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// A bias-free projection (attention projections in the paper carry
    /// no bias, matching canonical `Q`, `K`, `V`).
    pub fn new_no_bias(
        store: &ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Linear {
        let w = store.param(
            format!("{name}.w"),
            init::xavier_uniform(&[in_dim, out_dim], in_dim, out_dim, rng),
        );
        Linear {
            w,
            b: None,
            in_dim,
            out_dim,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The bias parameter, when the layer has one — used by the ST-WA
    /// decoder to seed its output distribution at a useful scale.
    pub fn bias_param(&self) -> Option<&Param> {
        self.b.as_ref()
    }

    /// Apply to `x` of shape `[..., in_dim]`, producing `[..., out_dim]`.
    pub fn forward(&self, graph: &Graph, x: &Var) -> Result<Var> {
        self.forward_act(graph, x, Activation::Identity)
    }

    /// `act(x W + b)` in one call. With a bias present the bias add and
    /// the activation are a single tape node ([`Var::bias_add_act`]),
    /// which skips one intermediate tensor per layer; the result is
    /// bit-identical to `act.apply(&x.matmul(w)?.add(b)?)`.
    pub fn forward_act(&self, graph: &Graph, x: &Var, act: Activation) -> Result<Var> {
        let shape = x.shape();
        let rank = shape.len();
        if rank == 0 || shape[rank - 1] != self.in_dim {
            return Err(TensorError::Invalid(format!(
                "Linear: expected last dim {}, got shape {:?}",
                self.in_dim, shape
            )));
        }
        let w = self.w.leaf(graph);
        // Flatten leading dims so matmul sees a plain [M, in] x [in, out].
        let lead: usize = shape[..rank - 1].iter().product();
        let flat = x.reshape(&[lead, self.in_dim])?;
        let y = flat.matmul(&w)?;
        let y = match &self.b {
            Some(b) => y.bias_add_act(&b.leaf(graph), act.kind())?,
            None => act.apply(&y),
        };
        let mut out_shape = shape[..rank - 1].to_vec();
        out_shape.push(self.out_dim);
        y.reshape(&out_shape)
    }

    /// The weight parameter — read by the inference engine when packing
    /// frozen layers.
    pub fn weight_param(&self) -> &Param {
        &self.w
    }
}

/// A stack of [`Linear`] layers with per-layer activations — the "2/3
/// layer fully-connected network" pattern the paper uses for the encoder,
/// decoder, predictor, and proxy aggregator.
pub struct Mlp {
    layers: Vec<Linear>,
    activations: Vec<Activation>,
}

impl Mlp {
    /// `dims = [in, h1, ..., out]`; `activations` has one entry per layer
    /// (so `dims.len() - 1` entries).
    pub fn new(
        store: &ParamStore,
        name: &str,
        dims: &[usize],
        activations: &[Activation],
        rng: &mut impl Rng,
    ) -> Mlp {
        assert!(
            dims.len() >= 2 && activations.len() == dims.len() - 1,
            "Mlp: need at least one layer and one activation per layer"
        );
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{name}.{i}"), w[0], w[1], rng))
            .collect();
        Mlp {
            layers,
            activations: activations.to_vec(),
        }
    }

    pub fn forward(&self, graph: &Graph, x: &Var) -> Result<Var> {
        let mut h = x.clone();
        for (layer, act) in self.layers.iter().zip(&self.activations) {
            h = layer.forward_act(graph, &h, *act)?;
        }
        Ok(h)
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("Mlp has layers").out_dim()
    }

    /// The final layer (for output-distribution seeding).
    pub fn last_layer(&self) -> &Linear {
        self.layers.last().expect("Mlp has layers")
    }

    /// The stacked layers, in order — read when packing frozen weights.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Per-layer activations, parallel to [`Mlp::layers`].
    pub fn activations(&self) -> &[Activation] {
        &self.activations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stwa_tensor::Tensor;

    #[test]
    fn linear_shapes_any_rank() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&store, "l", 4, 3, &mut rng);
        let g = Graph::new();
        let x2 = g.constant(Tensor::zeros(&[5, 4]));
        assert_eq!(lin.forward(&g, &x2).unwrap().shape(), vec![5, 3]);
        let x4 = g.constant(Tensor::zeros(&[2, 3, 7, 4]));
        assert_eq!(lin.forward(&g, &x4).unwrap().shape(), vec![2, 3, 7, 3]);
        let bad = g.constant(Tensor::zeros(&[5, 5]));
        assert!(lin.forward(&g, &bad).is_err());
    }

    #[test]
    fn linear_computes_xw_plus_b() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&store, "l", 2, 2, &mut rng);
        // Overwrite weights with known values.
        store.params()[0].set_value(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap());
        store.params()[1].set_value(Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap());
        let g = Graph::new();
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
        let y = lin.forward(&g, &x).unwrap();
        assert_eq!(y.value().data(), &[11.0, 22.0]);
    }

    #[test]
    fn mlp_learns_linear_map() {
        // Fit y = 2x - 1 with a tiny MLP; loss must drop substantially.
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(
            &store,
            "mlp",
            &[1, 8, 1],
            &[Activation::Tanh, Activation::Identity],
            &mut rng,
        );
        let xs = Tensor::from_fn(&[16, 1], |i| i[0] as f32 / 8.0 - 1.0);
        let ys = xs.affine(2.0, -1.0);
        let mut opt = Adam::new(&store, 0.05);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..150 {
            let g = Graph::new();
            let x = g.constant(xs.clone());
            let y = g.constant(ys.clone());
            let pred = mlp.forward(&g, &x).unwrap();
            let loss = crate::loss::mse(&pred, &y).unwrap();
            last = loss.value().item().unwrap();
            first.get_or_insert(last);
            g.backward(&loss).unwrap();
            opt.step();
            opt.finish_step();
        }
        let first = first.unwrap();
        assert!(last < first * 0.05, "loss {first} -> {last} did not drop");
    }

    #[test]
    fn no_bias_variant_has_fewer_params() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Linear::new_no_bias(&store, "l", 3, 4, &mut rng);
        assert_eq!(store.num_scalars(), 12);
    }

    #[test]
    fn mlp_gradients_flow_to_all_layers() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(
            &store,
            "m",
            &[2, 3, 1],
            &[Activation::Relu, Activation::Identity],
            &mut rng,
        );
        let g = Graph::new();
        let x = g.constant(Tensor::ones(&[4, 2]));
        let loss = mlp
            .forward(&g, &x)
            .unwrap()
            .square()
            .unwrap()
            .sum_all()
            .unwrap();
        g.backward(&loss).unwrap();
        let with_grad = store.params().iter().filter(|p| p.grad().is_some()).count();
        assert_eq!(with_grad, store.tensor_count());
    }
}
