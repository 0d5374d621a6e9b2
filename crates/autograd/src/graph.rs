//! The tape: graph storage, nodes, and `Var` handles.
//!
//! A [`Graph`] comes in two kinds. [`Graph::new`] records: every op
//! appends a node, and the tape keeps each intermediate value alive for
//! the backward sweep. [`Graph::no_grad`] computes and records nothing:
//! ops return the same values (same kernels, same bits) but no node is
//! appended, so an intermediate is freed when its last [`Var`] drops.
//! Evaluation runs a model's one `forward` on the second kind; that is
//! the whole difference between a training and an evaluation pass.

use std::cell::RefCell;
use std::rc::Rc;
use stwa_tensor::{Result, Tensor, TensorError};

/// Node id within a graph. Ids increase in creation order, which is a
/// valid topological order of the dataflow DAG.
pub(crate) type Id = usize;

/// Activation applied inside the fused bias-add ([`Var::bias_add_act`]).
///
/// The closed set matches `stwa_nn`'s `Activation`; each variant's
/// forward expression and VJP replicate the corresponding standalone op
/// bit for bit, so fusing is invisible to loss trajectories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActKind {
    Identity,
    Relu,
    Tanh,
    Sigmoid,
}

impl ActKind {
    /// The scalar forward function — exactly the expression the unfused
    /// elementwise ops apply.
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            ActKind::Identity => x,
            ActKind::Relu => x.max(0.0),
            ActKind::Tanh => stwa_tensor::mathfn::tanh_f32(x),
            ActKind::Sigmoid => stwa_tensor::mathfn::sigmoid_f32(x),
        }
    }

    /// `self.apply(x + bias)` over the broadcast of `x` and `bias` — the
    /// forward of [`Var::bias_add_act`]. The activation is matched once
    /// per call, so each arm's element loop is a straight-line
    /// expression the compiler can vectorize (Identity and Relu rows
    /// do); per element it is still exactly `apply(a + b)`.
    pub(crate) fn bias_add(self, x: &Tensor, bias: &Tensor) -> Result<Tensor> {
        const OP: &str = "bias_add_act";
        match self {
            ActKind::Identity => x.zip(bias, OP, |a, b| ActKind::Identity.apply(a + b)),
            ActKind::Relu => x.zip(bias, OP, |a, b| ActKind::Relu.apply(a + b)),
            ActKind::Tanh => x.zip(bias, OP, |a, b| ActKind::Tanh.apply(a + b)),
            ActKind::Sigmoid => x.zip(bias, OP, |a, b| ActKind::Sigmoid.apply(a + b)),
        }
    }
}

/// The recorded operation that produced a node.
///
/// Each variant stores the input ids plus whatever metadata the backward
/// pass needs. Output values are available from the node itself, so ops
/// like `Exp` or `Softmax` don't duplicate saved tensors.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Input tensor; `Leaf` nodes are where gradients are read out.
    Leaf,
    Add(Id, Id),
    Sub(Id, Id),
    Mul(Id, Id),
    Div(Id, Id),
    Neg(Id),
    Exp(Id),
    Ln(Id),
    Sqrt(Id),
    Tanh(Id),
    Sigmoid(Id),
    Relu(Id),
    Abs(Id),
    Square(Id),
    AddScalar(Id),
    MulScalar(Id, f32),
    Matmul(Id, Id),
    /// Fused `A · Bᵀ` (see [`stwa_tensor::linalg::matmul_nt`]): `b` is
    /// stored `[..., n, k]` and never materialized transposed.
    MatmulNT(Id, Id),
    SumAxis {
        x: Id,
        axis: usize,
        keepdim: bool,
    },
    MeanAxis {
        x: Id,
        axis: usize,
        keepdim: bool,
    },
    SumAll(Id),
    MeanAll(Id),
    Softmax {
        x: Id,
        axis: usize,
    },
    Reshape(Id),
    Permute {
        x: Id,
        perm: Vec<usize>,
    },
    Concat {
        xs: Vec<Id>,
        axis: usize,
    },
    Narrow {
        x: Id,
        axis: usize,
        start: usize,
    },
    IndexSelect {
        x: Id,
        axis: usize,
        indices: Vec<usize>,
    },
    BroadcastTo(Id),
    /// `mask * a + (1 - mask) * b` with the mask treated as a constant.
    WhereMask {
        mask: Rc<Tensor>,
        a: Id,
        b: Id,
    },
    /// Fused mean Huber loss over equal-shape `pred`/`target`; forward
    /// and VJP replicate the reference sub/abs/square/where/mean chain
    /// bit for bit without materializing its intermediates.
    Huber {
        pred: Id,
        target: Id,
        delta: f32,
    },
    /// Fused `act(x + bias)` (bias broadcast against `x`), replacing an
    /// Add node plus an activation node with a single tape entry.
    BiasAddAct {
        x: Id,
        b: Id,
        act: ActKind,
    },
    /// Fused sparse sensor attention (gather scores → scatter-softmax →
    /// gather mix) over a [`stwa_tensor::SensorGraph`] neighbor list.
    /// Replaces the dense matmul_nt/mul_scalar/softmax/matmul chain with
    /// one O(N·k) tape entry; the saved per-edge `weights` are the
    /// softmax output the VJP needs. On complete graphs forward and
    /// backward are bitwise identical to the dense chain.
    SparseAttention {
        q: Id,
        k: Id,
        h: Id,
        graph: std::sync::Arc<stwa_tensor::SensorGraph>,
        scale: f32,
        weights: Rc<Tensor>,
    },
    /// Fused multi-head scaled-dot-product attention (see
    /// [`stwa_tensor::attention`]): one tape entry for the head split,
    /// scores, scale, softmax, mix and head merge. The saved `weights`
    /// are the softmax rows the VJP needs. Value and all three input
    /// gradients are bitwise those of the unfused chain.
    Attention {
        q: Id,
        k: Id,
        v: Id,
        heads: usize,
        weights: Rc<Tensor>,
    },
    /// The generated K/V projection with the decoder's output layer
    /// folded in (see [`stwa_tensor::projection`]): `x [..., T, F]`
    /// through each lead's row, decoded from `head [..., m2]` by
    /// `weight [m2, 2·F·d]` and `bias`, into `[..., 2, W, S, d]`. One
    /// tape entry for the dense layer's `matmul` and `bias_add_act`, the
    /// reshape / narrow / squeeze split and the two window-broadcast
    /// `matmul`s; value and every gradient are bitwise that chain's.
    /// `rows` holds the decoded `[lead, 2·F·d]` rows for the VJP and is
    /// absent when nothing took a gradient.
    ProjectKv {
        x: Id,
        head: Id,
        weight: Id,
        bias: Id,
        s: usize,
        rows: Option<Rc<Tensor>>,
    },
    /// The body of one window-attention layer (see
    /// [`stwa_tensor::window_layer`]): proxy fusion, proxy attention over
    /// window after window of the `[..., 2, W, S, d]` node `kv`, the proxy
    /// gate and sensor-correlation attention, into `[B, N, W, d]`. One
    /// tape entry for the chain of some forty nodes per window it
    /// replaces; value and every gradient are bitwise that chain's.
    /// `sca` holds `(θ1, θ2)`, generated per sensor when `generated`;
    /// `saved` is absent when nothing took a gradient.
    WindowLayer {
        kv: Id,
        proxies: Id,
        fusion: Option<(Id, Id)>,
        gate: Option<(Id, Id)>,
        sca: Option<(Id, Id)>,
        generated: bool,
        graph: Option<std::sync::Arc<stwa_tensor::SensorGraph>>,
        heads: usize,
        saved: Option<Rc<stwa_tensor::window_layer::Saved>>,
    },
}

impl Op {
    /// Stable kind label for observability (per-op-kind backward timing).
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            Op::Leaf => "leaf",
            Op::Add(..) => "add",
            Op::Sub(..) => "sub",
            Op::Mul(..) => "mul",
            Op::Div(..) => "div",
            Op::Neg(..) => "neg",
            Op::Exp(..) => "exp",
            Op::Ln(..) => "ln",
            Op::Sqrt(..) => "sqrt",
            Op::Tanh(..) => "tanh",
            Op::Sigmoid(..) => "sigmoid",
            Op::Relu(..) => "relu",
            Op::Abs(..) => "abs",
            Op::Square(..) => "square",
            Op::AddScalar(..) => "add_scalar",
            Op::MulScalar(..) => "mul_scalar",
            Op::Matmul(..) => "matmul",
            Op::MatmulNT(..) => "matmul_nt",
            Op::SumAxis { .. } => "sum_axis",
            Op::MeanAxis { .. } => "mean_axis",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::Softmax { .. } => "softmax",
            Op::Reshape(..) => "reshape",
            Op::Permute { .. } => "permute",
            Op::Concat { .. } => "concat",
            Op::Narrow { .. } => "narrow",
            Op::IndexSelect { .. } => "index_select",
            Op::BroadcastTo(..) => "broadcast_to",
            Op::WhereMask { .. } => "where_mask",
            Op::Huber { .. } => "huber",
            Op::BiasAddAct { .. } => "bias_add_act",
            Op::SparseAttention { .. } => "sparse_attention",
            Op::Attention { .. } => "attention",
            Op::ProjectKv { .. } => "project_kv",
            Op::WindowLayer { .. } => "window_layer",
        }
    }
}

pub(crate) struct Node {
    pub value: Rc<Tensor>,
    /// A leaf's accumulated gradient; on an interior node, the gradient
    /// being summed during a sweep, dropped once its VJP has run.
    pub grad: Option<Tensor>,
    pub requires_grad: bool,
    pub op: Op,
}

/// A reverse-mode autodiff tape.
///
/// Cloning a `Graph` is cheap (it is an `Rc` handle); all clones append
/// to the same tape. Graphs are single-threaded by design — a training
/// step builds and consumes one graph on one thread, while data-level
/// parallelism lives inside the tensor kernels.
#[derive(Clone)]
pub struct Graph {
    /// The tape; also the graph's identity (`Rc::ptr_eq`). Stays empty
    /// on a non-recording graph.
    pub(crate) inner: Rc<RefCell<Vec<Node>>>,
    recording: bool,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// An empty tape.
    pub fn new() -> Graph {
        Graph {
            inner: Rc::new(RefCell::new(Vec::new())),
            recording: true,
        }
    }

    /// A graph that computes and records nothing: every op returns its
    /// value without appending a node, no `Var` on it requires a
    /// gradient, and [`Graph::backward`] is refused. Intermediates live
    /// only as long as the `Var`s holding them.
    pub fn no_grad() -> Graph {
        Graph {
            inner: Rc::new(RefCell::new(Vec::new())),
            recording: false,
        }
    }

    /// Whether ops on this graph append tape nodes ([`Graph::new`]) or
    /// only compute ([`Graph::no_grad`]).
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a gradient-requiring leaf (a parameter or an input we want
    /// gradients for).
    pub fn leaf(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Insert a constant leaf (no gradient tracked).
    pub fn constant(&self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false)
    }

    pub(crate) fn push(&self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        let value = Rc::new(value);
        let requires_grad = requires_grad && self.recording;
        let mut id = 0;
        if self.recording {
            let mut nodes = self.inner.borrow_mut();
            id = nodes.len();
            nodes.push(Node {
                value: Rc::clone(&value),
                grad: None,
                requires_grad,
                op,
            });
        }
        Var {
            graph: self.clone(),
            id,
            value,
            requires_grad,
        }
    }

    /// The accumulated gradient of the leaf `var` after
    /// [`Graph::backward`], if any path from the loss reached it (never,
    /// on a graph that records nothing: it has no nodes). An interior
    /// node reads `None`: the sweep drops its gradient once propagated.
    pub fn grad(&self, var: &Var) -> Option<Tensor> {
        assert!(
            Rc::ptr_eq(&self.inner, &var.graph.inner),
            "grad: Var belongs to a different graph"
        );
        self.inner.borrow().get(var.id)?.grad.clone()
    }

    /// Squared L2 norm of `var`'s gradient, computed in place — the
    /// gradient-clipping measurement without cloning the tensor. Large
    /// gradients reduce through the pool's fixed-chunk lanes (see
    /// [`stwa_tensor::reduce::sq_norm`]), so the result is identical at
    /// any thread count.
    pub fn grad_sq_norm(&self, var: &Var) -> Option<f32> {
        assert!(
            Rc::ptr_eq(&self.inner, &var.graph.inner),
            "grad_sq_norm: Var belongs to a different graph"
        );
        let nodes = self.inner.borrow();
        nodes
            .get(var.id)?
            .grad
            .as_ref()
            .map(|g| stwa_tensor::reduce::sq_norm(g.data()))
    }

    /// Drop the accumulated leaf gradients (e.g. between gradient checks
    /// on a shared tape); their buffers go back to the pool. Interior
    /// gradients are already gone once a sweep has finished.
    pub fn zero_grads(&self) {
        for node in self.inner.borrow_mut().iter_mut() {
            node.grad = None;
        }
    }
}

/// A handle to one value computed on a [`Graph`].
///
/// All forward operations live on `Var` (see the `ops` module); on a
/// recording graph each call appends a node and returns a handle to it,
/// on a [`Graph::no_grad`] graph it returns the value alone. Either way
/// the `Var` carries its value, so reading it never touches the tape.
#[derive(Clone)]
pub struct Var {
    pub(crate) graph: Graph,
    /// Tape index; meaningless (and never read) on a non-recording graph.
    pub(crate) id: Id,
    value: Rc<Tensor>,
    requires_grad: bool,
}

impl Var {
    /// The node's value. Cheap: values are behind `Rc`.
    pub fn value(&self) -> Rc<Tensor> {
        Rc::clone(&self.value)
    }

    /// Shape of the node's value.
    pub fn shape(&self) -> Vec<usize> {
        self.value.shape().to_vec()
    }

    /// Whether gradients flow into this node. Always `false` on a
    /// [`Graph::no_grad`] graph.
    pub fn requires_grad(&self) -> bool {
        self.requires_grad
    }

    /// A constant copy of this value on the same graph: gradients do not
    /// flow through the returned `Var`.
    pub fn detach(&self) -> Var {
        self.graph.constant(self.value().as_ref().clone())
    }

    /// The owning graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Whether this `Var` lives on `graph` (same tape identity).
    pub fn belongs_to(&self, graph: &Graph) -> bool {
        Rc::ptr_eq(&self.graph.inner, &graph.inner)
    }

    pub(crate) fn same_graph(&self, other: &Var, op: &'static str) -> Result<()> {
        if Rc::ptr_eq(&self.graph.inner, &other.graph.inner) {
            Ok(())
        } else {
            Err(TensorError::Invalid(format!(
                "{op}: operands belong to different graphs"
            )))
        }
    }
}

impl std::fmt::Debug for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Var(id={}, shape={:?})", self.id, self.value.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_constant_flags() {
        let g = Graph::new();
        let p = g.leaf(Tensor::ones(&[2]));
        let c = g.constant(Tensor::ones(&[2]));
        assert!(p.requires_grad());
        assert!(!c.requires_grad());
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn ids_are_creation_order() {
        let g = Graph::new();
        let a = g.constant(Tensor::zeros(&[1]));
        let b = g.constant(Tensor::zeros(&[1]));
        assert!(a.id < b.id);
    }

    #[test]
    fn detach_blocks_grad() {
        let g = Graph::new();
        let p = g.leaf(Tensor::ones(&[2]));
        let d = p.detach();
        assert!(!d.requires_grad());
        assert_eq!(d.value().data(), p.value().data());
    }

    #[test]
    fn no_grad_graph_computes_and_records_nothing() {
        let g = Graph::no_grad();
        assert!(!g.is_recording());
        let p = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let y = p.mul_scalar(3.0).add(&p).unwrap();
        assert_eq!(y.value().data(), &[4.0, 8.0]);
        assert!(!p.requires_grad() && !y.requires_grad());
        assert!(!p.detach().requires_grad());
        assert_eq!(g.len(), 0);
        assert!(g.is_empty());
    }

    #[test]
    fn no_grad_graph_refuses_backward_and_has_no_grads() {
        let g = Graph::no_grad();
        let p = g.leaf(Tensor::ones(&[3]));
        let loss = p.square().unwrap().sum_all().unwrap();
        match g.backward(&loss) {
            Err(TensorError::Invalid(msg)) => assert!(msg.contains("no_grad"), "{msg}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(g.grad(&p).is_none());
        assert!(g.grad_sq_norm(&p).is_none());
        g.zero_grads();
        assert_eq!(g.len(), 0);
    }

    #[test]
    fn no_grad_and_recording_operands_do_not_mix() {
        let rec = Graph::new();
        let a = rec.leaf(Tensor::ones(&[2]));
        let b = Graph::no_grad().constant(Tensor::ones(&[2]));
        let c = Graph::no_grad().constant(Tensor::ones(&[2]));
        assert!(a.add(&b).is_err());
        assert!(b.add(&a).is_err());
        // Two no-grad graphs are two graphs, like two tapes.
        assert!(b.add(&c).is_err());
        assert!(!b.belongs_to(&rec));
        // A recording loss handed to a no-grad graph (and the reverse)
        // is a different-graph error, not a panic.
        let loss = a.sum_all().unwrap();
        assert!(b.graph().backward(&loss).is_err());
        assert!(rec.backward(&b.sum_all().unwrap()).is_err());
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn cross_graph_ops_rejected() {
        let g1 = Graph::new();
        let g2 = Graph::new();
        let a = g1.leaf(Tensor::ones(&[2]));
        let b = g2.leaf(Tensor::ones(&[2]));
        assert!(a.add(&b).is_err());
    }
}
