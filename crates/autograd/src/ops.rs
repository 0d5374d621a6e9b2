//! Forward operations on [`Var`]: each computes its value eagerly and
//! records the op on the tape for the backward sweep.

use crate::graph::{ActKind, Op, Var};
use std::rc::Rc;
use std::sync::Arc;
use stwa_tensor::projection;
use stwa_tensor::window_layer::{self, Kv, Sca, Weights};
use stwa_tensor::{linalg, manip, Result, SensorGraph, Tensor, TensorError};

/// The sensor-correlation embeddings of [`Var::window_layer`].
#[derive(Clone, Copy)]
pub enum WindowSca<'a> {
    /// No sensor-correlation stage.
    Off,
    /// Shared `(θ1, θ2)`, each `[d, d]`.
    Shared(&'a Var, &'a Var),
    /// Generated per-sensor `(θ1, θ2)`, each `[B, N, d, d]`.
    Generated(&'a Var, &'a Var),
}

/// The parameters of [`Var::window_layer`]; see
/// [`stwa_tensor::window_layer::Weights`] for their shapes.
pub struct WindowParams<'a> {
    pub proxies: &'a Var,
    /// Fusion `(weight, bias)`, present exactly when `W > 1`.
    pub fusion: Option<(&'a Var, &'a Var)>,
    /// Learned gate `(W1, W2)`; `None` is the mean aggregator.
    pub gate: Option<(&'a Var, &'a Var)>,
    pub sca: WindowSca<'a>,
    /// Neighbor lists for sparse sensor correlation.
    pub graph: Option<&'a Arc<SensorGraph>>,
}

impl Var {
    fn unary(&self, value: Tensor, op: Op) -> Var {
        self.graph.push(value, op, self.requires_grad())
    }

    fn binary(&self, rhs: &Var, value: Tensor, op: Op) -> Var {
        self.graph
            .push(value, op, self.requires_grad() || rhs.requires_grad())
    }

    // ---------------------------------------------------------------
    // Elementwise binary (broadcasting)
    // ---------------------------------------------------------------

    pub fn add(&self, rhs: &Var) -> Result<Var> {
        self.same_graph(rhs, "add")?;
        let v = self.value().add(&rhs.value())?;
        Ok(self.binary(rhs, v, Op::Add(self.id, rhs.id)))
    }

    pub fn sub(&self, rhs: &Var) -> Result<Var> {
        self.same_graph(rhs, "sub")?;
        let v = self.value().sub(&rhs.value())?;
        Ok(self.binary(rhs, v, Op::Sub(self.id, rhs.id)))
    }

    pub fn mul(&self, rhs: &Var) -> Result<Var> {
        self.same_graph(rhs, "mul")?;
        let v = self.value().mul(&rhs.value())?;
        Ok(self.binary(rhs, v, Op::Mul(self.id, rhs.id)))
    }

    pub fn div(&self, rhs: &Var) -> Result<Var> {
        self.same_graph(rhs, "div")?;
        let v = self.value().div(&rhs.value())?;
        Ok(self.binary(rhs, v, Op::Div(self.id, rhs.id)))
    }

    // ---------------------------------------------------------------
    // Elementwise unary
    // ---------------------------------------------------------------

    pub fn neg(&self) -> Var {
        self.unary(self.value().neg(), Op::Neg(self.id))
    }

    pub fn exp(&self) -> Var {
        self.unary(self.value().exp(), Op::Exp(self.id))
    }

    /// Natural log. The caller is responsible for keeping inputs positive
    /// (e.g. via [`Var::add_scalar`] with an epsilon).
    pub fn ln(&self) -> Var {
        self.unary(self.value().ln(), Op::Ln(self.id))
    }

    pub fn sqrt(&self) -> Var {
        self.unary(self.value().sqrt(), Op::Sqrt(self.id))
    }

    pub fn tanh(&self) -> Var {
        self.unary(self.value().tanh(), Op::Tanh(self.id))
    }

    pub fn sigmoid(&self) -> Var {
        self.unary(self.value().sigmoid(), Op::Sigmoid(self.id))
    }

    pub fn relu(&self) -> Var {
        self.unary(self.value().relu(), Op::Relu(self.id))
    }

    pub fn abs(&self) -> Var {
        self.unary(self.value().abs(), Op::Abs(self.id))
    }

    pub fn square(&self) -> Result<Var> {
        Ok(self.unary(self.value().square(), Op::Square(self.id)))
    }

    pub fn add_scalar(&self, s: f32) -> Var {
        self.unary(self.value().add_scalar(s), Op::AddScalar(self.id))
    }

    pub fn mul_scalar(&self, s: f32) -> Var {
        self.unary(self.value().mul_scalar(s), Op::MulScalar(self.id, s))
    }

    // ---------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------

    /// Batched matrix product; see [`stwa_tensor::linalg::matmul`] for
    /// the shape rules.
    pub fn matmul(&self, rhs: &Var) -> Result<Var> {
        self.same_graph(rhs, "matmul")?;
        let v = linalg::matmul(&self.value(), &rhs.value())?;
        Ok(self.binary(rhs, v, Op::Matmul(self.id, rhs.id)))
    }

    /// Fused `self · rhsᵀ` over the trailing two axes: `rhs` keeps its
    /// `[..., n, k]` layout and is read transposed inside the kernel,
    /// bitwise identical to `self.matmul(&rhs.transpose_last2()?)` but
    /// without materializing the transposed copy. This is the natural
    /// form of attention scores (`Q · Kᵀ`).
    pub fn matmul_nt(&self, rhs: &Var) -> Result<Var> {
        self.same_graph(rhs, "matmul_nt")?;
        let v = linalg::matmul_nt(&self.value(), &rhs.value())?;
        Ok(self.binary(rhs, v, Op::MatmulNT(self.id, rhs.id)))
    }

    /// Fused sparse sensor attention over a neighbor graph:
    /// `out_i = Σ_{j ∈ nbr(i)} softmax_j(q_i·k_j · scale) · h_j`
    /// with `self` as `q`. One tape entry replaces the dense
    /// matmul_nt → mul_scalar → softmax → matmul chain; per-edge
    /// softmax weights are saved for the exact VJP. With a complete
    /// graph the forward value and every input gradient are bitwise
    /// identical to the dense chain (see [`stwa_tensor::sparse`]).
    pub fn sparse_attend(
        &self,
        k: &Var,
        h: &Var,
        graph: &std::sync::Arc<stwa_tensor::SensorGraph>,
        scale: f32,
    ) -> Result<Var> {
        self.same_graph(k, "sparse_attend")?;
        self.same_graph(h, "sparse_attend")?;
        let (out, weights) = stwa_tensor::sparse::sparse_attention_forward(
            &self.value(),
            &k.value(),
            &h.value(),
            graph,
            scale,
        )?;
        let requires = self.requires_grad() || k.requires_grad() || h.requires_grad();
        Ok(self.graph.push(
            out,
            Op::SparseAttention {
                q: self.id,
                k: k.id,
                h: h.id,
                graph: std::sync::Arc::clone(graph),
                scale,
                weights: Rc::new(weights),
            },
            requires,
        ))
    }

    /// Fused multi-head scaled-dot-product attention with `self` as the
    /// queries `[..., Tq, d]` over `k`/`v` `[..., Tk, d]` (equal leading
    /// axes, `heads` dividing `d`); returns `[..., Tq, d]`. One tape
    /// entry replaces the reshape/swap-axes head split, `matmul_nt`,
    /// `mul_scalar`, `softmax`, `matmul` and head-merge nodes, and the
    /// forward value and every input gradient are bitwise identical to
    /// that chain's (see [`stwa_tensor::attention`] for the contract).
    pub fn attention(&self, k: &Var, v: &Var, heads: usize) -> Result<Var> {
        self.same_graph(k, "attention")?;
        self.same_graph(v, "attention")?;
        let (out, weights) =
            stwa_tensor::attention::forward(&self.value(), &k.value(), &v.value(), heads)?;
        let requires = self.requires_grad() || k.requires_grad() || v.requires_grad();
        Ok(self.graph.push(
            out,
            Op::Attention {
                q: self.id,
                k: k.id,
                v: v.id,
                heads,
                weights: Rc::new(weights),
            },
            requires,
        ))
    }

    /// The generated K/V projection with `self` as the layer input `[...,
    /// T, F]`, decoded from `head [..., m2]` — the shared decoder's last
    /// hidden layer — through its output layer `weight [m2, 2·F·d]` and
    /// `bias [2·F·d]`; returns `[..., 2, W, S, d]` for windows of `s`
    /// steps. One tape entry replaces that dense layer's `matmul` and
    /// `bias_add_act`, the K/V split of its flat rows and the two
    /// window-broadcast products; see [`stwa_tensor::projection`] for
    /// the contract.
    pub fn project_kv(&self, head: &Var, weight: &Var, bias: &Var, s: usize) -> Result<Var> {
        for v in [head, weight, bias] {
            self.same_graph(v, "project_kv")?;
        }
        let requires = [self, head, weight, bias].iter().any(|v| v.requires_grad());
        let (hv, wv, bv) = (head.value(), weight.value(), bias.value());
        let dec = projection::Decoder {
            head: &hv,
            weight: &wv,
            bias: &bv,
        };
        let (out, rows) = projection::forward(&self.value(), dec, s, requires)?;
        Ok(self.graph.push(
            out,
            Op::ProjectKv {
                x: self.id,
                head: head.id,
                weight: weight.id,
                bias: bias.id,
                s,
                rows: rows.map(Rc::new),
            },
            requires,
        ))
    }

    /// The body of a window-attention layer with `self` as its keys and
    /// values `[B, N, 2, W, S, d]` ([`Var::project_kv`]'s layout): returns
    /// the `[B, N, W, d]` window summaries. One tape entry replaces each
    /// window's proxy `narrow` / broadcast, fusion `concat` + dense
    /// layer, attention, gate chain, sensor-correlation
    /// chain and the closing `concat`; see [`stwa_tensor::window_layer`]
    /// for the contract.
    pub fn window_layer(&self, params: &WindowParams<'_>, heads: usize) -> Result<Var> {
        let (sca, generated) = match params.sca {
            WindowSca::Off => (None, false),
            WindowSca::Shared(t1, t2) => (Some((t1, t2)), false),
            WindowSca::Generated(t1, t2) => (Some((t1, t2)), true),
        };
        let pairs = [params.fusion, params.gate, sca].into_iter().flatten();
        let inputs: Vec<&Var> = std::iter::once(params.proxies)
            .chain(pairs.flat_map(|(a, b)| [a, b]))
            .collect();
        for v in &inputs {
            self.same_graph(v, "window_layer")?;
        }
        let values = |p: Option<(&Var, &Var)>| p.map(|(a, b)| (a.value(), b.value()));
        let (kv, proxies) = (self.value(), params.proxies.value());
        let (fusion, gate, sca_values) = (values(params.fusion), values(params.gate), values(sca));
        let wts = window_weights(
            &proxies,
            [&fusion, &gate, &sca_values],
            generated,
            params.graph.map(|g| &**g),
        );
        let requires = self.requires_grad() || inputs.iter().any(|v| v.requires_grad());
        let (out, saved) = window_layer::forward(Kv::Joint(&kv), &wts, heads, requires)?;
        let ids = |p: Option<(&Var, &Var)>| p.map(|(a, b)| (a.id, b.id));
        Ok(self.graph.push(
            out,
            Op::WindowLayer {
                kv: self.id,
                proxies: params.proxies.id,
                fusion: ids(params.fusion),
                gate: ids(params.gate),
                sca: ids(sca),
                generated,
                graph: params.graph.cloned(),
                heads,
                saved: saved.map(Rc::new),
            },
            requires,
        ))
    }

    // ---------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------

    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Result<Var> {
        let v = self.value().sum_axis(axis, keepdim)?;
        Ok(self.unary(
            v,
            Op::SumAxis {
                x: self.id,
                axis,
                keepdim,
            },
        ))
    }

    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Result<Var> {
        let v = self.value().mean_axis(axis, keepdim)?;
        Ok(self.unary(
            v,
            Op::MeanAxis {
                x: self.id,
                axis,
                keepdim,
            },
        ))
    }

    pub fn sum_all(&self) -> Result<Var> {
        if self.value().is_empty() {
            return Err(TensorError::Invalid(
                "sum_all: cannot reduce an empty tensor into a loss".into(),
            ));
        }
        Ok(self.unary(self.value().sum_all(), Op::SumAll(self.id)))
    }

    pub fn mean_all(&self) -> Result<Var> {
        if self.value().is_empty() {
            return Err(TensorError::Invalid(
                "mean_all: cannot reduce an empty tensor into a loss".into(),
            ));
        }
        Ok(self.unary(self.value().mean_all(), Op::MeanAll(self.id)))
    }

    /// Numerically stable softmax along `axis`.
    pub fn softmax(&self, axis: usize) -> Result<Var> {
        let v = self.value().softmax(axis)?;
        Ok(self.unary(v, Op::Softmax { x: self.id, axis }))
    }

    // ---------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------

    pub fn reshape(&self, shape: &[usize]) -> Result<Var> {
        let v = self.value().reshape(shape)?;
        Ok(self.unary(v, Op::Reshape(self.id)))
    }

    pub fn unsqueeze(&self, axis: usize) -> Result<Var> {
        let v = self.value().unsqueeze(axis)?;
        Ok(self.unary(v, Op::Reshape(self.id)))
    }

    pub fn squeeze(&self, axis: usize) -> Result<Var> {
        let v = self.value().squeeze(axis)?;
        Ok(self.unary(v, Op::Reshape(self.id)))
    }

    pub fn permute(&self, perm: &[usize]) -> Result<Var> {
        let v = self.value().permute(perm)?;
        Ok(self.unary(
            v,
            Op::Permute {
                x: self.id,
                perm: perm.to_vec(),
            },
        ))
    }

    pub fn swap_axes(&self, a: usize, b: usize) -> Result<Var> {
        let rank = self.value().rank();
        let mut perm: Vec<usize> = (0..rank).collect();
        if a >= rank || b >= rank {
            return Err(TensorError::InvalidAxis {
                op: "swap_axes",
                axis: a.max(b),
                rank,
            });
        }
        perm.swap(a, b);
        self.permute(&perm)
    }

    /// Transpose the last two axes.
    pub fn transpose_last2(&self) -> Result<Var> {
        let rank = self.value().rank();
        if rank < 2 {
            return Err(TensorError::RankTooSmall {
                op: "transpose_last2",
                required: 2,
                actual: rank,
            });
        }
        self.swap_axes(rank - 2, rank - 1)
    }

    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Result<Var> {
        let v = self.value().narrow(axis, start, len)?;
        Ok(self.unary(
            v,
            Op::Narrow {
                x: self.id,
                axis,
                start,
            },
        ))
    }

    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Result<Var> {
        let v = self.value().index_select(axis, indices)?;
        Ok(self.unary(
            v,
            Op::IndexSelect {
                x: self.id,
                axis,
                indices: indices.to_vec(),
            },
        ))
    }

    pub fn broadcast_to(&self, shape: &[usize]) -> Result<Var> {
        let v = self.value().broadcast_to(shape)?;
        Ok(self.unary(v, Op::BroadcastTo(self.id)))
    }

    /// `mask * self + (1 - mask) * other`, with `mask` a constant tensor
    /// of zeros and ones. This is the differentiable branch selector used
    /// by the Huber loss (the mask itself gets no gradient, which matches
    /// the loss being non-differentiable only on a measure-zero set).
    pub fn where_mask(&self, mask: &Tensor, other: &Var) -> Result<Var> {
        self.same_graph(other, "where_mask")?;
        let a = self.value();
        let b = other.value();
        let picked_a = a.mul(mask)?;
        let inv = mask.affine(-1.0, 1.0);
        let picked_b = b.mul(&inv)?;
        let v = picked_a.add(&picked_b)?;
        Ok(self.binary(
            other,
            v,
            Op::WhereMask {
                mask: Rc::new(mask.clone()),
                a: self.id,
                b: other.id,
            },
        ))
    }

    // ---------------------------------------------------------------
    // Fused ops
    // ---------------------------------------------------------------

    /// Fused mean Huber loss: one pass over `pred`/`target` computing
    /// the per-element branch and the sequential mean, recorded as a
    /// single tape node. Shapes must match exactly (the loss chains it
    /// replaces always compare like with like).
    ///
    /// Each element evaluates exactly the expressions of the reference
    /// chain `where(|d|<=δ, 0.5 d², δ|d| - 0.5 δ²).mean()` in the same
    /// order, and the mean folds sequentially in index order — so the
    /// fused loss is bitwise-equal to the unfused one.
    pub fn huber_loss(&self, target: &Var, delta: f32) -> Result<Var> {
        self.same_graph(target, "huber_loss")?;
        let p = self.value();
        let t = target.value();
        if p.shape() != t.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "huber_loss",
                lhs: p.shape().to_vec(),
                rhs: t.shape().to_vec(),
            });
        }
        if p.is_empty() {
            return Err(TensorError::Invalid(
                "huber_loss: cannot reduce an empty tensor into a loss".into(),
            ));
        }
        // Sequential fold, like `mean_all` (a parallel sum would
        // reassociate f32 addition and change bits).
        let mut sum = 0.0f32;
        for (&pv, &tv) in p.data().iter().zip(t.data().iter()) {
            sum += huber_point(pv, tv, delta);
        }
        let v = Tensor::scalar(sum / p.len() as f32);
        Ok(self.binary(
            target,
            v,
            Op::Huber {
                pred: self.id,
                target: target.id,
                delta,
            },
        ))
    }

    /// Fused `act(self + bias)`: the bias add (broadcast) and the
    /// activation evaluate in one elementwise pass and record one node.
    /// Bitwise-identical to `self.add(bias)` followed by the activation
    /// op — same per-element expressions, same broadcast pairing.
    pub fn bias_add_act(&self, bias: &Var, act: ActKind) -> Result<Var> {
        self.same_graph(bias, "bias_add_act")?;
        let v = act.bias_add(&self.value(), &bias.value())?;
        Ok(self.binary(
            bias,
            v,
            Op::BiasAddAct {
                x: self.id,
                b: bias.id,
                act,
            },
        ))
    }
}

/// The per-element Huber value, spelled as the exact expression sequence
/// of the reference chain (sub → abs → mask → 0.5·d² → δ|d|−0.5δ² →
/// where-mask select).
#[inline]
pub(crate) fn huber_point(p: f32, t: f32, delta: f32) -> f32 {
    let d = p - t;
    let ad = d.abs();
    let m = if ad <= delta { 1.0 } else { 0.0 };
    let quad = (d * d) * 0.5;
    let lin = ad * delta + (-0.5 * delta * delta);
    quad * m + lin * (-m + 1.0)
}

/// Values of an optional pair of inputs.
pub(crate) type ValuePair = Option<(Rc<Tensor>, Rc<Tensor>)>;

/// [`Weights`] over the values of [`Var::window_layer`]'s inputs:
/// `pairs` are the fusion, gate and sensor-correlation pairs, the last
/// generated per sensor when `generated`.
pub(crate) fn window_weights<'a>(
    proxies: &'a Tensor,
    [fusion, gate, sca]: [&'a ValuePair; 3],
    generated: bool,
    graph: Option<&'a SensorGraph>,
) -> Weights<'a> {
    fn refs(p: &ValuePair) -> Option<(&Tensor, &Tensor)> {
        p.as_ref().map(|(a, b)| (&**a, &**b))
    }
    Weights {
        proxies,
        fusion: refs(fusion),
        gate: refs(gate),
        sca: match (refs(sca), generated) {
            (None, _) => Sca::Off,
            (Some((t1, t2)), false) => Sca::Shared(t1, t2),
            (Some((t1, t2)), true) => Sca::Generated(t1, t2),
        },
        graph,
    }
}

/// Concatenate variables along `axis`.
pub fn concat(vars: &[&Var], axis: usize) -> Result<Var> {
    let first = vars
        .first()
        .ok_or_else(|| TensorError::Invalid("concat: need at least one Var".into()))?;
    for v in vars.iter().skip(1) {
        first.same_graph(v, "concat")?;
    }
    let values: Vec<Rc<Tensor>> = vars.iter().map(|v| v.value()).collect();
    let refs: Vec<&Tensor> = values.iter().map(|v| v.as_ref()).collect();
    let out = manip::concat(&refs, axis)?;
    let requires = vars.iter().any(|v| v.requires_grad());
    Ok(first.graph.push(
        out,
        Op::Concat {
            xs: vars.iter().map(|v| v.id).collect(),
            axis,
        },
        requires,
    ))
}

/// Stack equal-shape variables along a new axis.
pub fn stack(vars: &[&Var], axis: usize) -> Result<Var> {
    let unsqueezed: Vec<Var> = vars
        .iter()
        .map(|v| v.unsqueeze(axis))
        .collect::<Result<_>>()?;
    let refs: Vec<&Var> = unsqueezed.iter().collect();
    concat(&refs, axis)
}
