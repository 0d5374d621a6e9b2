//! The backward sweep: one VJP per recorded op.
//!
//! Two memory disciplines matter here. Gradients accumulate **in
//! place**: every contribution lands via `add_assign` (an axpy into the
//! existing buffer) and the only clone left is the unavoidable one that
//! materializes the first contribution into an empty slot. And the hot
//! elementwise VJPs are **fused**: single `zip` passes spelling the same
//! per-element expressions as the chains of primitive `Tensor` ops they
//! replace. Those chains are written out in `tests/proptests.rs`, which
//! asserts bitwise-identical gradients.
//!
//! What each VJP reads of the tape's values is declared in one table,
//! [`Op::vjp_reads`], beside [`propagate`]: the tape holds a value only
//! while a recorded VJP reads it, and every read goes through [`read`],
//! which debug builds check against the table.

use crate::graph::{ActKind, Graph, Id, Node, Op, Var};
use std::rc::Rc;
use crate::ops::window_weights;
use stwa_tensor::projection;
use stwa_tensor::window_layer::{self, Part};
use stwa_tensor::{linalg, Result, Tensor, TensorError};

impl Graph {
    /// Run reverse-mode differentiation from `loss` (which must hold a
    /// single element), filling each reachable gradient-requiring node's
    /// `grad`.
    ///
    /// *Leaf* gradients accumulate across calls (PyTorch-style); use
    /// [`Graph::zero_grads`] to reset them. An interior node's gradient
    /// is dropped as soon as its VJP has run, so its buffer goes back to
    /// the pool mid-sweep and [`Graph::grad`] reads `None` for it
    /// afterwards.
    ///
    /// A [`Graph::no_grad`] graph has recorded nothing and returns
    /// [`TensorError::Invalid`].
    pub fn backward(&self, loss: &Var) -> Result<()> {
        if !Rc::ptr_eq(&self.inner, &loss.graph.inner) {
            return Err(TensorError::Invalid(
                "backward: loss belongs to a different graph".into(),
            ));
        }
        if !self.is_recording() {
            return Err(TensorError::Invalid(
                "backward: a Graph::no_grad graph records nothing to differentiate".into(),
            ));
        }
        {
            let nodes = self.inner.borrow();
            let shape = &nodes[loss.id].shape;
            if shape.iter().product::<usize>() != 1 {
                return Err(TensorError::Invalid(format!(
                    "backward: loss must be a single element, got shape {shape:?}"
                )));
            }
        }
        let _span = stwa_observe::span!("backward");
        stwa_observe::counter!("backward.calls").incr();
        let mut nodes = self.inner.borrow_mut();
        seed(&mut nodes, loss.id);
        // Node ids are a topological order (ops only reference earlier
        // ids), so a reverse sweep visits every node after all of its
        // consumers.
        for id in (0..=loss.id).rev() {
            if !nodes[id].requires_grad {
                continue;
            }
            // Take the gradient out instead of cloning it: this node is
            // fully accumulated (all consumers have higher ids and were
            // already visited), and `propagate` only writes to lower ids.
            let Some(grad) = nodes[id].grad.take() else {
                continue;
            };
            let op = nodes[id].op.clone();
            // Per-op-kind grad timing: spans aggregate by path, so e.g.
            // every matmul VJP of this sweep folds into "backward/matmul".
            let op_span = stwa_observe::scope(op.kind_name());
            let propagated = propagate(&mut nodes, id, &op, &grad);
            drop(op_span);
            if let Err(e) = propagated {
                // Leave no half-swept interior gradient for a later
                // sweep to propagate a second time.
                for node in nodes.iter_mut().filter(|n| !matches!(n.op, Op::Leaf)) {
                    node.grad = None;
                }
                return Err(e);
            }
            // An interior gradient is read by nothing after its VJP: it
            // goes back to the pool here. Leaves keep accumulating.
            if matches!(op, Op::Leaf) {
                nodes[id].grad = Some(grad);
            }
        }
        Ok(())
    }
}

fn seed(nodes: &mut [Node], id: Id) {
    // Accumulate rather than overwrite: when the loss node is itself a
    // leaf, its gradient must keep accumulating across backward calls
    // like every other leaf (a non-leaf loss's slot is empty, so this is
    // assignment for it).
    let ones = Tensor::ones(&nodes[id].shape);
    match &mut nodes[id].grad {
        Some(existing) => {
            existing.add_assign(&ones).expect("seed shape matches");
        }
        slot @ None => *slot = Some(ones),
    }
}

/// Accumulate an owned gradient contribution: axpy into the existing
/// buffer, or move the tensor into an empty slot (no copy at all).
fn accumulate(nodes: &mut [Node], id: Id, grad: Tensor) -> Result<()> {
    if !nodes[id].requires_grad {
        return Ok(());
    }
    match &mut nodes[id].grad {
        Some(existing) => existing.add_assign(&grad),
        slot @ None => {
            *slot = Some(grad);
            Ok(())
        }
    }
}

/// Accumulate a borrowed gradient contribution in place. Cloning happens
/// only when the slot is empty (the buffer has to come from somewhere —
/// and then it comes from the pool); an occupied slot takes the in-place
/// axpy.
fn accumulate_ref(nodes: &mut [Node], id: Id, grad: &Tensor) -> Result<()> {
    if !nodes[id].requires_grad {
        return Ok(());
    }
    match &mut nodes[id].grad {
        Some(existing) => existing.add_assign(grad),
        slot @ None => {
            *slot = Some(grad.clone());
            Ok(())
        }
    }
}

/// Reduce `grad` down to `id`'s value shape (inverting broadcasting) and
/// accumulate it. The common case — shapes already equal — takes the
/// by-reference path with no intermediate tensor; only genuinely
/// broadcast ops pay for the summed reduction.
fn accumulate_reduced(nodes: &mut [Node], id: Id, grad: &Tensor) -> Result<()> {
    if !nodes[id].requires_grad {
        return Ok(());
    }
    if grad.shape() == nodes[id].shape {
        accumulate_ref(nodes, id, grad)
    } else {
        let g = reduce_to_shape(grad, &nodes[id].shape)?;
        accumulate(nodes, id, g)
    }
}

/// Sum `grad` down to `shape`, inverting broadcasting: extra leading axes
/// are summed away and axes that were expanded from length 1 are summed
/// back to length 1.
fn reduce_to_shape(grad: &Tensor, shape: &[usize]) -> Result<Tensor> {
    if grad.shape() == shape {
        return Ok(grad.clone());
    }
    let mut g = grad.clone();
    while g.rank() > shape.len() {
        g = g.sum_axis(0, false)?;
    }
    for (axis, (&gs, &ts)) in g.shape().to_vec().iter().zip(shape.iter()).enumerate() {
        if ts == 1 && gs != 1 {
            g = g.sum_axis(axis, true)?;
        }
    }
    if g.shape() != shape {
        // Ranks matched but some axis disagreed without being 1: the
        // forward op would have failed, so this indicates a bug.
        return Err(TensorError::ShapeMismatch {
            op: "reduce_to_shape",
            lhs: grad.shape().to_vec(),
            rhs: shape.to_vec(),
        });
    }
    Ok(g)
}

/// The weight-gradient product `aᵀ·g` on its way to an operand of rank
/// `operand_rank`. When the operand is shared across the leading batch
/// axis — so [`reduce_to_shape`] would begin by summing axis 0 — and
/// every batch is a single row vector, that first sum is fused into the
/// product ([`linalg::matmul_tn_sum_lead`]: one FMA chain over the
/// leading axis, i.e. `matmul_tn` over the lead-flattened operands) and
/// the `[B, .., d, d]` stack of outer products is never written. The
/// remaining axes reduce as before, in the recorded order.
fn matmul_tn_toward(a: &Tensor, g: &Tensor, operand_rank: usize) -> Result<Tensor> {
    let r = a.rank();
    let row_vectors = r >= 3
        && r > operand_rank
        && g.rank() == r
        && a.shape()[r - 2] == 1
        && a.shape()[..r - 1] == g.shape()[..r - 1];
    if row_vectors {
        linalg::matmul_tn_sum_lead(a, g)
    } else {
        linalg::matmul_tn(a, g)
    }
}

/// The value of node `id` as the VJP of `op`, recorded as node `me`,
/// reads it — the one accessor every VJP read goes through. The tape
/// holds a value only while a recorded VJP declares the read
/// ([`Op::vjp_reads`]), so debug builds check the declaration here and
/// panic naming the op on a read its table misses, even when another
/// reader happens to hold the value; release builds refuse the sweep if
/// the value is gone.
fn read(nodes: &[Node], me: Id, id: Id, op: &Op) -> Result<Rc<Tensor>> {
    let held = nodes[id].held.clone();
    debug_assert!(
        held.is_some() && {
            let reads = op.vjp_reads(|i| nodes[i].requires_grad);
            if id == me {
                reads.output
            } else {
                reads.inputs.contains(&id)
            }
        },
        "{} VJP reads node {id}, which its vjp_reads entry does not declare",
        op.kind_name()
    );
    held.ok_or_else(|| {
        TensorError::Invalid(format!(
            "{}: VJP reads node {id}, whose value is released",
            op.kind_name()
        ))
    })
}

/// `g · tanh'` from the output `y`: one zip spelling the
/// square/affine/mul chain's exact expression `g * ((y*y)*(-1) + 1)`.
fn tanh_vjp(g: &Tensor, y: &Tensor) -> Result<Tensor> {
    g.zip(y, "tanh_vjp", |g, y| g * (-(y * y) + 1.0))
}

/// `g · sigmoid'` from the output `y`: `g * (y * (1 - y))`.
fn sigmoid_vjp(g: &Tensor, y: &Tensor) -> Result<Tensor> {
    g.zip(y, "sigmoid_vjp", |g, y| g * (y * (-y + 1.0)))
}

/// `g · relu'`. `v` is the input — or the output, which is positive
/// exactly where the input is.
fn relu_vjp(g: &Tensor, v: &Tensor) -> Result<Tensor> {
    g.zip(v, "relu_vjp", |g, v| g * (if v > 0.0 { 1.0 } else { 0.0 }))
}

/// What one op's VJP reads of the tape's values: the entry
/// [`Op::vjp_reads`] returns.
pub(crate) struct Reads {
    /// Inputs whose values the VJP reads.
    pub inputs: Vec<Id>,
    /// Whether it reads the op's own output.
    pub output: bool,
}

impl Op {
    /// The read table: the inputs whose values this op's VJP reads,
    /// given which inputs take a gradient (`takes_grad`), and whether it
    /// reads its own output. A recorded node that takes a gradient holds
    /// exactly these values on the tape; every other read of the sweep
    /// is a shape, kept on the node apart from its value. Each entry
    /// mirrors its [`propagate`] arm, whose reads all go through
    /// [`read`].
    pub(crate) fn vjp_reads(&self, takes_grad: impl Fn(Id) -> bool) -> Reads {
        let (inputs, output) = match *self {
            Op::Leaf
            | Op::Add(..)
            | Op::Sub(..)
            | Op::Neg(..)
            | Op::AddScalar(..)
            | Op::MulScalar(..)
            | Op::SumAxis { .. }
            | Op::MeanAxis { .. }
            | Op::SumAll(..)
            | Op::MeanAll(..)
            | Op::Reshape(..)
            | Op::Permute { .. }
            | Op::Concat { .. }
            | Op::Narrow { .. }
            | Op::IndexSelect { .. }
            | Op::BroadcastTo(..)
            | Op::WhereMask { .. } => (vec![], false),
            // `a`'s half reads `b`, `b`'s half reads `a`.
            Op::Mul(a, b) | Op::Matmul(a, b) | Op::MatmulNT(a, b) => {
                let halves = [(a, b), (b, a)].into_iter();
                let others = halves
                    .filter(|&(to, _)| takes_grad(to))
                    .map(|(_, other)| other);
                (others.collect(), false)
            }
            // `g / b` for `a`; `-(g·a) / b²` for `b`.
            Op::Div(a, b) => (if takes_grad(b) { vec![a, b] } else { vec![b] }, false),
            Op::Ln(x) | Op::Relu(x) | Op::Abs(x) | Op::Square(x) => (vec![x], false),
            Op::Exp(..) | Op::Sqrt(..) | Op::Tanh(..) | Op::Sigmoid(..) | Op::Softmax { .. } => {
                (vec![], true)
            }
            Op::BiasAddAct { act, .. } => (vec![], act != ActKind::Identity),
            Op::Huber { pred, target, .. } => (vec![pred, target], false),
            Op::SparseAttention { q, k, h, .. } => (vec![q, k, h], false),
            Op::Attention { q, k, v, .. } => (vec![q, k, v], false),
            Op::ProjectKv {
                x,
                head,
                weight,
                bias,
                ref rows,
                ..
            } => match rows {
                Some(_) => (vec![x, head, weight, bias], false),
                None => (vec![], false),
            },
            Op::WindowLayer {
                kv,
                proxies,
                fusion,
                gate,
                sca,
                ref saved,
                ..
            } => match saved {
                Some(_) => {
                    let pairs = [fusion, gate, sca].into_iter().flatten();
                    let params = pairs.flat_map(|(a, b)| [a, b]);
                    ([kv, proxies].into_iter().chain(params).collect(), true)
                }
                None => (vec![], false),
            },
        };
        Reads { inputs, output }
    }
}

/// Run the VJP of `op`, recorded as node `me`, for its output gradient
/// `grad`: each input's contribution accumulates into its slot.
fn propagate(nodes: &mut [Node], me: Id, op: &Op, grad: &Tensor) -> Result<()> {
    match *op {
        Op::Leaf => Ok(()),

        Op::Add(a, b) => {
            accumulate_reduced(nodes, a, grad)?;
            accumulate_reduced(nodes, b, grad)
        }

        Op::Sub(a, b) => {
            accumulate_reduced(nodes, a, grad)?;
            accumulate_reduced(nodes, b, &grad.neg())
        }

        // A half whose operand takes no gradient is not computed:
        // `accumulate_reduced` would drop it.
        Op::Mul(a, b) => {
            if nodes[a].requires_grad {
                let bv = read(nodes, me, b, op)?;
                accumulate_reduced(nodes, a, &grad.mul(&bv)?)?;
            }
            if nodes[b].requires_grad {
                let av = read(nodes, me, a, op)?;
                accumulate_reduced(nodes, b, &grad.mul(&av)?)?;
            }
            Ok(())
        }

        Op::Div(a, b) => {
            let bv = read(nodes, me, b, op)?;
            // d(a/b)/da = 1/b ; d(a/b)/db = -a/b^2
            if nodes[a].requires_grad {
                accumulate_reduced(nodes, a, &grad.div(&bv)?)?;
            }
            if nodes[b].requires_grad {
                let av = read(nodes, me, a, op)?;
                let b2 = bv.square();
                let gb_full = grad.mul(&av)?.div(&b2)?.neg();
                accumulate_reduced(nodes, b, &gb_full)?;
            }
            Ok(())
        }

        Op::Neg(x) => accumulate(nodes, x, grad.neg()),

        // exp'(x) = exp(x) = out
        Op::Exp(x) => {
            let out = read(nodes, me, me, op)?;
            accumulate(nodes, x, grad.mul(&out)?)
        }

        // ln'(x) = 1/x
        Op::Ln(x) => {
            let xv = read(nodes, me, x, op)?;
            accumulate(nodes, x, grad.div(&xv)?)
        }

        // sqrt'(x) = 1 / (2 sqrt(x)) = 1 / (2 out)
        Op::Sqrt(x) => {
            let out = read(nodes, me, me, op)?;
            let gx = grad.div(&out.mul_scalar(2.0))?;
            accumulate(nodes, x, gx)
        }

        Op::Tanh(x) => accumulate(nodes, x, tanh_vjp(grad, &*read(nodes, me, me, op)?)?),

        Op::Sigmoid(x) => accumulate(nodes, x, sigmoid_vjp(grad, &*read(nodes, me, me, op)?)?),

        Op::Relu(x) => {
            let xv = read(nodes, me, x, op)?;
            accumulate(nodes, x, relu_vjp(grad, &xv)?)
        }

        Op::Abs(x) => {
            let xv = read(nodes, me, x, op)?;
            let gx = grad.zip(&xv, "abs_vjp", |g, v| {
                let sign = if v > 0.0 {
                    1.0
                } else if v < 0.0 {
                    -1.0
                } else {
                    0.0
                };
                g * sign
            })?;
            accumulate(nodes, x, gx)
        }

        Op::Square(x) => {
            let xv = read(nodes, me, x, op)?;
            let gx = grad.zip(&xv, "square_vjp", |g, v| g * (v * 2.0))?;
            accumulate(nodes, x, gx)
        }

        Op::AddScalar(x) => accumulate_ref(nodes, x, grad),

        Op::MulScalar(x, s) => accumulate(nodes, x, grad.mul_scalar(s)),

        // dA = g @ Bᵀ and dB = Aᵀ @ g, both through the fused transposed
        // kernels (no materialized transpose copies), reduced over
        // broadcast batch dims. A half whose operand takes no gradient
        // is not computed: `accumulate_reduced` would drop it.
        Op::Matmul(a, b) => {
            let (da, db) = (nodes[a].requires_grad, nodes[b].requires_grad);
            let _shape = shape_span(&nodes[a].shape, &nodes[b].shape, [da, db]);
            if da {
                let bv = read(nodes, me, b, op)?;
                let ga_full = linalg::matmul_nt(grad, &bv)?;
                accumulate_reduced(nodes, a, &ga_full)?;
            }
            if db {
                let av = read(nodes, me, a, op)?;
                let gb_full = matmul_tn_toward(&av, grad, nodes[b].shape.len())?;
                accumulate_reduced(nodes, b, &gb_full)?;
            }
            Ok(())
        }

        // C = A @ Bᵀ with B stored [..., n, k]: dA = g @ B (the
        // transposes cancel), dB = gᵀ @ A; halves skipped as above.
        Op::MatmulNT(a, b) => {
            let (da, db) = (nodes[a].requires_grad, nodes[b].requires_grad);
            let _shape = shape_span(&nodes[a].shape, &nodes[b].shape, [da, db]);
            if da {
                let bv = read(nodes, me, b, op)?;
                let ga_full = linalg::matmul(grad, &bv)?;
                accumulate_reduced(nodes, a, &ga_full)?;
            }
            if db {
                let av = read(nodes, me, a, op)?;
                let gb_full = matmul_tn_toward(grad, &av, nodes[b].shape.len())?;
                accumulate_reduced(nodes, b, &gb_full)?;
            }
            Ok(())
        }

        Op::SumAxis { x, axis, keepdim } => {
            let shape = &nodes[x].shape;
            let g = if keepdim {
                grad.broadcast_to(shape)?
            } else {
                grad.unsqueeze(axis)?.broadcast_to(shape)?
            };
            accumulate(nodes, x, g)
        }

        Op::MeanAxis { x, axis, keepdim } => {
            let shape = &nodes[x].shape;
            let n = shape[axis] as f32;
            let g = if keepdim {
                grad.broadcast_to(shape)?
            } else {
                grad.unsqueeze(axis)?.broadcast_to(shape)?
            };
            accumulate(nodes, x, g.mul_scalar(1.0 / n))
        }

        Op::SumAll(x) => {
            let g = grad.item()?;
            let gx = Tensor::full(&nodes[x].shape, g);
            accumulate(nodes, x, gx)
        }

        Op::MeanAll(x) => {
            let shape = &nodes[x].shape;
            let g = grad.item()? / shape.iter().product::<usize>() as f32;
            let gx = Tensor::full(shape, g);
            accumulate(nodes, x, gx)
        }

        // Softmax Jacobian-vector product:
        //   dx = y * (g - sum(g * y, axis))
        // The last axis — every attention softmax — takes the fused row
        // kernel; other axes run the strided four-tensor chain. Bitwise
        // identical either way.
        Op::Softmax { x, axis } => {
            let out = read(nodes, me, me, op)?;
            let gx = if axis + 1 == out.rank() {
                out.softmax_vjp_lastdim(grad)?
            } else {
                let gy = grad.mul(&out)?;
                let s = gy.sum_axis(axis, true)?;
                out.mul(&grad.sub(&s.broadcast_to(grad.shape())?)?)?
            };
            accumulate(nodes, x, gx)
        }

        Op::Reshape(x) => {
            let gx = grad.reshape(&nodes[x].shape)?;
            accumulate(nodes, x, gx)
        }

        Op::Permute { x, ref perm } => {
            // Invert the permutation: output axis i came from input axis
            // perm[i], so grad axis perm[i] must go back to axis i.
            let mut inverse = vec![0usize; perm.len()];
            for (i, &p) in perm.iter().enumerate() {
                inverse[p] = i;
            }
            accumulate(nodes, x, grad.permute(&inverse)?)
        }

        Op::Concat { ref xs, axis } => {
            let mut start = 0;
            for &x in xs {
                let len = nodes[x].shape[axis];
                let gx = grad.narrow(axis, start, len)?;
                accumulate(nodes, x, gx)?;
                start += len;
            }
            Ok(())
        }

        Op::Narrow { x, axis, start } => narrow_scatter(nodes, x, axis, start, grad),

        Op::IndexSelect {
            x,
            axis,
            ref indices,
        } => {
            // Scatter-add: repeated indices accumulate their gradients.
            let shape = &nodes[x].shape;
            let axis_len = shape[axis];
            let outer: usize = shape[..axis].iter().product();
            let inner: usize = shape[axis + 1..].iter().product();
            let mut gx = Tensor::zeros(shape);
            let dst = gx.data_mut();
            for o in 0..outer {
                for (j, &i) in indices.iter().enumerate() {
                    let src_base = (o * indices.len() + j) * inner;
                    let dst_base = (o * axis_len + i) * inner;
                    for t in 0..inner {
                        dst[dst_base + t] += grad.data()[src_base + t];
                    }
                }
            }
            accumulate(nodes, x, gx)
        }

        Op::BroadcastTo(x) => accumulate_reduced(nodes, x, grad),

        Op::WhereMask { ref mask, a, b } => {
            let ga = grad.mul(mask)?;
            accumulate_reduced(nodes, a, &ga)?;
            drop(ga);
            let inv = mask.affine(-1.0, 1.0);
            let gb = grad.mul(&inv)?;
            accumulate_reduced(nodes, b, &gb)
        }

        // Fused Huber VJP: replays the reference chain's reverse sweep
        // (mean → where-mask → {·0.5 → square, ·δ → +c → abs} → sub)
        // node by node per element, in the same accumulation order —
        // quadratic-branch contribution first, then linear-branch — so
        // gradients are bitwise-equal to the unfused chain's.
        Op::Huber {
            pred,
            target,
            delta,
        } => {
            let pv = read(nodes, me, pred, op)?;
            let tv = read(nodes, me, target, op)?;
            let g0 = grad.item()? / pv.len() as f32;
            let ddiff = pv.zip(&tv, "huber_vjp", |p, t| {
                let d = p - t;
                let ad = d.abs();
                let m = if ad <= delta { 1.0 } else { 0.0 };
                let ga = g0 * m;
                let gb = g0 * (-m + 1.0);
                let sign = if d > 0.0 {
                    1.0
                } else if d < 0.0 {
                    -1.0
                } else {
                    0.0
                };
                // Square-branch (via ·0.5 then ·2d) + abs-branch (via ·δ
                // then sign), summed in the reverse-sweep's visit order.
                (ga * 0.5) * (d * 2.0) + (gb * delta) * sign
            })?;
            accumulate_ref(nodes, pred, &ddiff)?;
            accumulate(nodes, target, ddiff.neg())
        }

        // Fused bias+activation VJP: g_pre = g * act'(out) in one zip
        // (each activation's standalone VJP), then the Add node's
        // reduce-to-operand-shape accumulation.
        Op::BiasAddAct { x, b, act } => {
            let g_pre = match act {
                ActKind::Identity => None,
                ActKind::Tanh => Some(tanh_vjp(grad, &*read(nodes, me, me, op)?)?),
                ActKind::Sigmoid => Some(sigmoid_vjp(grad, &*read(nodes, me, me, op)?)?),
                ActKind::Relu => Some(relu_vjp(grad, &*read(nodes, me, me, op)?)?),
            };
            let g_pre = g_pre.as_ref().unwrap_or(grad);
            accumulate_reduced(nodes, x, g_pre)?;
            accumulate_reduced(nodes, b, g_pre)
        }

        // Fused sparse-attention VJP: one kernel produces all three
        // input gradients from the saved per-edge softmax weights. `h`'s
        // contribution lands first — the position the dense chain's
        // `weights @ h` node gives it — so shared-embedding accumulation
        // order (and therefore bits) match the unfused chain.
        Op::SparseAttention {
            q,
            k,
            h,
            ref graph,
            scale,
            ref weights,
        } => {
            let qv = read(nodes, me, q, op)?;
            let kv = read(nodes, me, k, op)?;
            let hv = read(nodes, me, h, op)?;
            let (dq, dk, dh) = stwa_tensor::sparse::sparse_attention_vjp(
                grad, &qv, &kv, &hv, weights, graph, scale,
            )?;
            accumulate(nodes, h, dh)?;
            accumulate(nodes, q, dq)?;
            accumulate(nodes, k, dk)
        }

        // Fused attention VJP. Contributions land v, then k, then q —
        // the order in which the unfused chain's reverse sweep reaches
        // its three head-split nodes — so accumulation order (and bits)
        // match the chain even when one `Var` is passed more than once.
        Op::Attention {
            q,
            k,
            v,
            heads,
            ref weights,
        } => {
            let qv = read(nodes, me, q, op)?;
            let kv = read(nodes, me, k, op)?;
            let vv = read(nodes, me, v, op)?;
            let (gq, gk, gv) = stwa_tensor::attention::vjp(grad, &qv, &kv, &vv, weights, heads)?;
            accumulate(nodes, v, gv)?;
            accumulate(nodes, k, gk)?;
            accumulate(nodes, q, gq)
        }

        // The window-attention layer: `kv`'s gradient is added into in
        // place (zeroed when this sweep first reaches it), as each
        // window's attention VJP did; every parameter partial lands as
        // the sink receives it, the order the chain's nodes reached them.
        Op::WindowLayer {
            kv,
            proxies,
            fusion,
            gate,
            sca,
            generated,
            ref graph,
            heads,
            ref saved,
        } => {
            let Some(saved) = saved else {
                return Ok(());
            };
            let pair = |nodes: &[Node], p: Option<(Id, Id)>| {
                p.map(|(a, b)| Ok((read(nodes, me, a, op)?, read(nodes, me, b, op)?)))
                    .transpose()
            };
            let (kvv, pv) = (read(nodes, me, kv, op)?, read(nodes, me, proxies, op)?);
            let (fv, gv, sv) = (pair(nodes, fusion)?, pair(nodes, gate)?, pair(nodes, sca)?);
            let out = read(nodes, me, me, op)?;
            let wts = window_weights(&pv, [&fv, &gv, &sv], generated, graph.as_deref());
            let mut gkv = if nodes[kv].requires_grad {
                grad_buffer(&mut nodes[kv]);
                nodes[kv].grad.take()
            } else {
                None
            };
            let missing =
                || TensorError::Invalid("window_layer: a partial without its input".into());
            let result = window_layer::vjp(
                grad,
                &out,
                &kvv,
                &wts,
                heads,
                saved,
                gkv.as_mut().map(|t| t.data_mut()),
                &mut |part, t| {
                    let id = match part {
                        Part::Proxies(wi) => return narrow_scatter(nodes, proxies, 1, wi, &t),
                        Part::Theta2 => sca.map(|s| s.1),
                        Part::Theta1 => sca.map(|s| s.0),
                        Part::Gate2 => gate.map(|g| g.1),
                        Part::Gate1 => gate.map(|g| g.0),
                        Part::FusionBias => fusion.map(|f| f.1),
                        Part::FusionWeight => fusion.map(|f| f.0),
                    };
                    accumulate(nodes, id.ok_or_else(missing)?, t)
                },
            );
            if let Some(g) = gkv {
                nodes[kv].grad = Some(g);
            }
            result
        }

        // The K/V projection with the decoder's output layer: `dx` (V
        // half, then K half added) only when the layer input takes a
        // gradient — never for layer 0, whose input is the raw batch —
        // then the bias, the head and the weight, the order in which the
        // chain's reverse sweep reached them (`bias_add_act`, then the
        // `matmul`'s `dA` and `dB`).
        Op::ProjectKv {
            x,
            head,
            weight,
            bias,
            s,
            ref rows,
        } => {
            let Some(rows) = rows else {
                return Ok(());
            };
            let (xv, hv, wv, bv) = (
                read(nodes, me, x, op)?,
                read(nodes, me, head, op)?,
                read(nodes, me, weight, op)?,
                read(nodes, me, bias, op)?,
            );
            let dec = projection::Decoder {
                head: &hv,
                weight: &wv,
                bias: &bv,
            };
            let need = projection::Need {
                x: nodes[x].requires_grad,
                head: nodes[head].requires_grad,
                weight: nodes[weight].requires_grad,
                bias: nodes[bias].requires_grad,
            };
            let grads = projection::vjp(grad, &xv, dec, rows, s, need)?;
            for (id, g) in [
                (x, grads.x),
                (bias, grads.bias),
                (head, grads.head),
                (weight, grads.weight),
            ] {
                if let Some(g) = g {
                    accumulate(nodes, id, g)?;
                }
            }
            Ok(())
        }
    }
}

/// The `narrow` VJP: scatter `grad` into `x`'s gradient at `start` along
/// `axis`.
fn narrow_scatter(
    nodes: &mut [Node],
    x: Id,
    axis: usize,
    start: usize,
    grad: &Tensor,
) -> Result<()> {
    let shape = &nodes[x].shape;
    let len = grad.shape()[axis];
    let axis_len = shape[axis];
    let outer: usize = shape[..axis].iter().product();
    let inner: usize = shape[axis + 1..].iter().product();
    // When a gradient buffer already exists (windows overlap, so
    // most narrow VJPs land on a live buffer), add the slice
    // straight into it instead of materializing a full-size zero
    // tensor and paying a whole-volume axpy for a sliver of
    // nonzeros.
    if nodes[x].requires_grad && nodes[x].grad.is_some() {
        let src = grad.data();
        let existing = nodes[x].grad.as_mut().expect("checked above");
        let dst = existing.data_mut();
        for o in 0..outer {
            let src_base = o * len * inner;
            let dst_base = o * axis_len * inner + start * inner;
            for (d, &s) in dst[dst_base..dst_base + len * inner]
                .iter_mut()
                .zip(src[src_base..src_base + len * inner].iter())
            {
                *d += s;
            }
        }
        return Ok(());
    }
    let mut gx = Tensor::zeros(&nodes[x].shape);
    let dst = gx.data_mut();
    for o in 0..outer {
        let src_base = o * len * inner;
        let dst_base = o * axis_len * inner + start * inner;
        dst[dst_base..dst_base + len * inner]
            .copy_from_slice(&grad.data()[src_base..src_base + len * inner]);
    }
    accumulate(nodes, x, gx)
}

/// `node`'s gradient as a buffer to add into in place: the live gradient,
/// or — when the slot is empty — zeros.
fn grad_buffer(node: &mut Node) -> &mut Tensor {
    let shape = &node.shape;
    node.grad.get_or_insert_with(|| Tensor::zeros(shape))
}

/// A span naming a product VJP's operand shapes and the halves it
/// computes (`[640, 32]@[32, 512] dA+dB`), nested under
/// `backward/<kind>` — `bench_train_step`'s by-shape table. Formats
/// nothing while recording is off.
fn shape_span(a: &[usize], b: &[usize], [da, db]: [bool; 2]) -> stwa_observe::Scope {
    let halves = match (da, db) {
        (true, true) => "dA+dB",
        (true, false) => "dA",
        _ => "dB",
    };
    stwa_observe::span!("{:?}@{:?} {}", a, b, halves)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn sum_of_squares_gradient() {
        let g = Graph::new();
        let x = g.leaf(t(&[1.0, -2.0, 3.0], &[3]));
        let loss = x.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[2.0, -4.0, 6.0]);
    }

    #[test]
    fn constants_get_no_grad() {
        let g = Graph::new();
        let x = g.leaf(t(&[2.0], &[1]));
        let c = g.constant(t(&[3.0], &[1]));
        let loss = x.mul(&c).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[3.0]);
        assert!(g.grad(&c).is_none());
    }

    #[test]
    fn broadcast_add_reduces_grad() {
        // loss = sum(x + b) with x: [2,3], b: [3] -> db = [2, 2, 2]
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2, 3]));
        let b = g.leaf(Tensor::zeros(&[3]));
        let loss = x.add(&b).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&b).unwrap().data(), &[2.0, 2.0, 2.0]);
        assert_eq!(g.grad(&x).unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn matmul_gradients() {
        // loss = sum(A @ B); dA = 1 @ B^T (row sums of B broadcast), etc.
        let g = Graph::new();
        let a = g.leaf(t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = g.leaf(t(&[5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let loss = a.matmul(&b).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        // dA[i, p] = sum_j B[p, j]
        assert_eq!(g.grad(&a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        // dB[p, j] = sum_i A[i, p]
        assert_eq!(g.grad(&b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn sparse_attend_complete_graph_matches_dense_chain_bitwise() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use std::sync::Arc;
        use stwa_tensor::SensorGraph;

        let (n, d) = (5usize, 3usize);
        let scale = 1.0 / (d as f32).sqrt();
        let mut rng = StdRng::seed_from_u64(77);
        let hv = Tensor::randn(&[2, n, d], &mut rng);
        let qv = Tensor::randn(&[2, n, d], &mut rng);
        let kv = Tensor::randn(&[2, n, d], &mut rng);

        // Dense: the exact chain SensorCorrelationAttention::attend runs.
        let gd = Graph::new();
        let (h1, q1, k1) = (gd.leaf(hv.clone()), gd.leaf(qv.clone()), gd.leaf(kv.clone()));
        let scores = q1.matmul_nt(&k1).unwrap().mul_scalar(scale);
        let w = scores.softmax(2).unwrap();
        let out_dense = w.matmul(&h1).unwrap();
        let loss_d = out_dense.square().unwrap().sum_all().unwrap();
        gd.backward(&loss_d).unwrap();

        // Sparse over the complete graph: one fused tape entry.
        let gs = Graph::new();
        let (h2, q2, k2) = (gs.leaf(hv.clone()), gs.leaf(qv.clone()), gs.leaf(kv.clone()));
        let graph = Arc::new(SensorGraph::complete(n));
        let out_sparse = q2.sparse_attend(&k2, &h2, &graph, scale).unwrap();
        let loss_s = out_sparse.square().unwrap().sum_all().unwrap();
        gs.backward(&loss_s).unwrap();

        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out_dense.value()), bits(&out_sparse.value()));
        for ((a, b), name) in [(&q1, &q2), (&k1, &k2), (&h1, &h2)]
            .iter()
            .zip(["q", "k", "h"])
        {
            assert_eq!(
                bits(&gd.grad(a).unwrap()),
                bits(&gs.grad(b).unwrap()),
                "grad {name} diverged"
            );
        }
    }

    #[test]
    fn sparse_attend_isolated_sensor_backward_is_finite() {
        use std::sync::Arc;
        use stwa_tensor::SensorGraph;

        let (n, d) = (3usize, 2usize);
        let graph = Arc::new(
            SensorGraph::from_neighbor_lists(n, &[vec![0, 2], vec![], vec![0, 2]]).unwrap(),
        );
        let g = Graph::new();
        let h = g.leaf(Tensor::from_fn(&[1, n, d], |i| (i[1] * d + i[2]) as f32));
        let out = h.sparse_attend(&h, &h, &graph, 1.0).unwrap();
        let loss = out.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        let grad = g.grad(&h).unwrap();
        assert!(out.value().data().iter().all(|x| x.is_finite()));
        assert!(grad.data().iter().all(|x| x.is_finite()));
        // The isolated sensor's output row is zero, not NaN.
        assert_eq!(out.value().at(&[0, 1, 0]), 0.0);
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // loss = sum(x * x_detached + x) uses x twice: grads add.
        let g = Graph::new();
        let x = g.leaf(t(&[3.0], &[1]));
        let y = x.add(&x).unwrap(); // dy/dx = 2
        let loss = y.sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn repeated_backward_accumulates_leaf_grads_bitwise() {
        // Same tape, backward twice: leaf grads double exactly, and
        // every interior gradient is dropped once it has propagated.
        let g = Graph::new();
        let x = g.leaf(t(&[1.5, -2.0, 0.25], &[3]));
        let sq = x.square().unwrap();
        let y = sq.mul_scalar(3.0);
        let loss = y.sum_all().unwrap();
        let interior_released = || [&sq, &y, &loss].iter().all(|v| g.grad(v).is_none());
        g.backward(&loss).unwrap();
        assert!(interior_released(), "first sweep left an interior grad");
        let first = g.grad(&x).unwrap();
        let doubled: Vec<u32> = first.data().iter().map(|v| (v + v).to_bits()).collect();

        g.backward(&loss).unwrap();
        assert!(interior_released(), "second sweep left an interior grad");
        let second = g.grad(&x).unwrap();
        let bits: Vec<u32> = second.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, doubled, "leaf grad must accumulate exactly");
    }

    #[test]
    fn zero_grads_then_backward_matches_first_sweep_bitwise() {
        let g = Graph::new();
        let x = g.leaf(t(&[0.5, 2.0, -1.25, 3.0], &[4]));
        let loss = x.square().unwrap().mean_all().unwrap();
        g.backward(&loss).unwrap();
        let first: Vec<u32> = g.grad(&x).unwrap().data().iter().map(|v| v.to_bits()).collect();
        g.zero_grads();
        assert!(g.grad(&x).is_none(), "zeroed grads read as empty");
        g.backward(&loss).unwrap();
        let second: Vec<u32> = g.grad(&x).unwrap().data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn leaf_loss_gradient_accumulates_across_backwards() {
        // Degenerate but contract-bearing: backward on a leaf directly.
        let g = Graph::new();
        let x = g.leaf(Tensor::scalar(2.0));
        g.backward(&x).unwrap();
        g.backward(&x).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[2.0]);
    }

    #[test]
    fn backward_requires_single_element_loss() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[2]));
        assert!(g.backward(&x).is_err());
    }

    #[test]
    fn mean_all_scales_gradient() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[4]));
        let loss = x.mean_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[0.25; 4]);
    }

    #[test]
    fn softmax_grad_sums_to_zero() {
        // For loss = sum(w * softmax(x)), sum of dx over the softmax axis
        // is 0 because softmax output sums to a constant.
        let g = Graph::new();
        let x = g.leaf(t(&[0.5, -1.0, 2.0], &[1, 3]));
        let w = g.constant(t(&[1.0, 2.0, 3.0], &[1, 3]));
        let loss = x.softmax(1).unwrap().mul(&w).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        let dx = g.grad(&x).unwrap();
        let s: f32 = dx.data().iter().sum();
        assert!(s.abs() < 1e-6, "softmax grad should sum to ~0, got {s}");
    }

    #[test]
    fn narrow_grad_scatters() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[4]));
        let loss = x.narrow(0, 1, 2).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn index_select_grad_accumulates_repeats() {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[3]));
        let loss = x.index_select(0, &[1, 1, 2]).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&x).unwrap().data(), &[0.0, 2.0, 1.0]);
    }

    #[test]
    fn concat_grad_splits() {
        let g = Graph::new();
        let a = g.leaf(Tensor::zeros(&[2]));
        let b = g.leaf(Tensor::zeros(&[3]));
        let c = crate::ops::concat(&[&a, &b], 0).unwrap();
        let w = g.constant(t(&[1.0, 2.0, 3.0, 4.0, 5.0], &[5]));
        let loss = c.mul(&w).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&a).unwrap().data(), &[1.0, 2.0]);
        assert_eq!(g.grad(&b).unwrap().data(), &[3.0, 4.0, 5.0]);
    }

    #[test]
    fn where_mask_routes_gradients() {
        let g = Graph::new();
        let a = g.leaf(t(&[1.0, 1.0], &[2]));
        let b = g.leaf(t(&[2.0, 2.0], &[2]));
        let mask = t(&[1.0, 0.0], &[2]);
        let out = a.where_mask(&mask, &b).unwrap();
        assert_eq!(out.value().data(), &[1.0, 2.0]);
        let loss = out.sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(g.grad(&a).unwrap().data(), &[1.0, 0.0]);
        assert_eq!(g.grad(&b).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn permute_grad_inverts() {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_fn(&[2, 3], |i| (i[0] * 3 + i[1]) as f32));
        let w = g.constant(Tensor::from_fn(&[3, 2], |i| (i[0] * 2 + i[1]) as f32));
        let loss = x
            .permute(&[1, 0])
            .unwrap()
            .mul(&w)
            .unwrap()
            .sum_all()
            .unwrap();
        g.backward(&loss).unwrap();
        // Gradient of x[i,j] is w[j,i].
        let dx = g.grad(&x).unwrap();
        assert_eq!(dx.at(&[0, 1]), w.value().at(&[1, 0]));
        assert_eq!(dx.at(&[1, 2]), w.value().at(&[2, 1]));
    }

    #[test]
    fn detach_stops_gradient_flow() {
        let g = Graph::new();
        let x = g.leaf(t(&[2.0], &[1]));
        let d = x.detach();
        let loss = x.mul(&d).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        // Through the detached branch the value acts as constant 2.0.
        assert_eq!(g.grad(&x).unwrap().data(), &[2.0]);
    }
}
